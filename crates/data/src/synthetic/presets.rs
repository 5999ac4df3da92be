//! Calibrated simulator presets for the paper's two datasets (Table II).
//!
//! | statistic        | Beauty target | ML-1M target |
//! |------------------|---------------|--------------|
//! | #user            | 14 993        | 6 031        |
//! | #item            | 12 069        | 3 516        |
//! | #interactions    | 130 455       | 571 519      |
//! | sparsity         | 99.93 %       | 97.30 %      |
//! | held-out users   | 1 200         | 750          |
//!
//! Targets are *post-preprocessing* numbers; the presets therefore
//! over-generate raw events so the ≥4 binarization and 5-core filter land
//! near the targets at `scale = 1.0`. Experiments default to a smaller
//! `scale` (see `vsan-bench`) because CPU training at paper scale is
//! hours per model — the `table2` experiment binary reports the achieved
//! statistics at any scale.

use super::catalog::CatalogConfig;
use super::SyntheticConfig;

/// Scale a count, keeping at least `min`.
fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// Million-item retrieval catalog (embeddings-only; see
/// [`super::catalog`]). At `scale = 1.0` this is a 10⁶-item universe;
/// `benchmark/`'s `retrieval_100k` workload runs it at 0.1. Smaller
/// scales keep the same geometry (topic count grows like √N,
/// head-heavy Zipf traffic) so the differential suites stay cheap.
pub fn million_item(scale: f64) -> CatalogConfig {
    let num_items = scaled(1_000_000, scale, 1_000);
    let num_topics = (((num_items as f64).sqrt() as usize) / 2).clamp(16, 2048);
    CatalogConfig {
        name: "million-item-sim".into(),
        num_items,
        dim: 64,
        num_topics,
        topic_scale: 1.0,
        item_spread: 0.25,
        zipf_exponent: 1.1,
        seed: 0xCA7A_7061,
    }
}

/// Amazon-Beauty-like preset: very sparse, short sequences, huge catalogue,
/// strong within-category purchase chains (the shampoo → conditioner story).
pub fn beauty(scale: f64) -> SyntheticConfig {
    SyntheticConfig {
        name: "Beauty-sim".into(),
        num_users: scaled(16_000, scale, 60),
        num_items: scaled(13_000, scale, 48),
        num_categories: scaled(64, scale.sqrt(), 4),
        zipf_exponent: 1.05,
        markov_strength: 0.55,
        category_stickiness: 0.75,
        drift_rate: 0.08,
        noise: 0.06,
        mean_seq_len: 13.0,
        seq_len_sigma: 0.45,
        prefs_per_user: 2,
        alignment_boost: 0.9,
    }
}

/// MovieLens-1M-like preset: dense, long sequences, compact catalogue,
/// weaker chains but strong genre (category) stickiness.
pub fn ml1m(scale: f64) -> SyntheticConfig {
    SyntheticConfig {
        name: "ML-1M-sim".into(),
        num_users: scaled(6_200, scale, 50),
        num_items: scaled(3_700, scale, 40),
        num_categories: scaled(18, scale.sqrt(), 4),
        zipf_exponent: 0.9,
        markov_strength: 0.35,
        category_stickiness: 0.8,
        drift_rate: 0.05,
        noise: 0.08,
        mean_seq_len: 120.0,
        seq_len_sigma: 0.5,
        prefs_per_user: 3,
        alignment_boost: 0.8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Pipeline;
    use crate::stats::DatasetStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn presets_scale_monotonically() {
        let small = beauty(0.05);
        let big = beauty(0.5);
        assert!(big.num_users > small.num_users);
        assert!(big.num_items > small.num_items);
        let small = ml1m(0.05);
        let big = ml1m(0.5);
        assert!(big.num_users > small.num_users);
    }

    #[test]
    fn beauty_is_sparser_than_ml1m_after_preprocessing() {
        let mut rng = StdRng::seed_from_u64(11);
        let b_raw = super::super::generate(&beauty(0.04), &mut rng);
        let m_raw = super::super::generate(&ml1m(0.04), &mut rng);
        let pipe = Pipeline::default();
        let b = pipe.run(&b_raw);
        let m = pipe.run(&m_raw);
        let bs = DatasetStats::compute(&b);
        let ms = DatasetStats::compute(&m);
        assert!(
            bs.sparsity > ms.sparsity,
            "Beauty-sim sparsity {} must exceed ML-1M-sim {}",
            bs.sparsity,
            ms.sparsity
        );
        // ML-1M-like sequences are much longer on average.
        assert!(ms.mean_seq_len > 2.0 * bs.mean_seq_len);
    }

    #[test]
    fn preprocessing_keeps_a_usable_population() {
        let mut rng = StdRng::seed_from_u64(12);
        let raw = super::super::generate(&beauty(0.05), &mut rng);
        let ds = Pipeline::default().run(&raw);
        assert!(ds.num_users() > 100, "got {}", ds.num_users());
        assert!(ds.num_items > 50, "got {}", ds.num_items);
        ds.check_invariants().unwrap();
    }
}
