//! Synthetic million-item catalogs for retrieval benchmarks.
//!
//! Clustered MIPS (DESIGN.md §12; the `retrieval_100k` workload of
//! `benchmark/`) needs item-embedding universes far beyond what the
//! interaction simulator in the parent module produces: up to 10⁶
//! vectors with the two structural properties real recommender
//! embeddings have —
//!
//! * **topical geometry**: items cluster around latent topic centers
//!   (categories, franchises, price bands), which is what makes a
//!   coarse centroid stage recover most of the exact top-k;
//! * **Zipf popularity**: a short head dominates traffic, so sampled
//!   query histories hit the head hard and the serving cache story
//!   stays honest.
//!
//! Generation is deterministic per seed (the seed-stability proptest in
//! this module pins it), so a benchmark run names its whole universe
//! with one `(preset, scale, seed)` triple.

use super::gaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic catalog. Build one with
/// [`crate::synthetic::million_item`] or literal fields.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Catalog label.
    pub name: String,
    /// Real items (vocabulary is `num_items + 1`; id 0 is padding).
    pub num_items: usize,
    /// Embedding width.
    pub dim: usize,
    /// Latent topic centers items cluster around.
    pub num_topics: usize,
    /// Standard deviation of topic-center coordinates.
    pub topic_scale: f32,
    /// Standard deviation of an item's offset from its topic center
    /// (smaller ⇒ tighter clusters ⇒ easier coarse retrieval).
    pub item_spread: f32,
    /// Zipf exponent of item popularity (rank = item id; id 1 is the
    /// most popular item).
    pub zipf_exponent: f64,
    /// Seed of the generation stream.
    pub seed: u64,
}

/// A generated catalog: embeddings plus a popularity law for sampling
/// query histories.
#[derive(Debug, Clone)]
pub struct SyntheticCatalog {
    /// Real item count (ids `1..=num_items`).
    pub num_items: usize,
    /// Embedding width.
    pub dim: usize,
    /// Row-major `(num_items + 1, dim)` table; row 0 is the all-zero
    /// padding row, exactly the layout of the model's item-embedding
    /// parameter, so benches can copy it in wholesale.
    pub embeddings: Vec<f32>,
    /// Topic of each item, indexed by `item_id - 1`.
    pub item_topic: Vec<u32>,
    /// Cumulative (unnormalized) Zipf popularity over `item_id - 1`.
    cum_pop: Vec<f64>,
}

/// Generate a catalog from its config. Deterministic per
/// `(config, seed)`: two calls yield bit-identical embeddings.
pub fn generate_catalog(cfg: &CatalogConfig) -> SyntheticCatalog {
    assert!(cfg.num_items >= 1 && cfg.dim >= 1, "catalog needs items and width");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let nt = cfg.num_topics.clamp(1, cfg.num_items);
    let mut centers = vec![0.0f32; nt * cfg.dim];
    for c in centers.iter_mut() {
        *c = cfg.topic_scale * gaussian(&mut rng);
    }
    let mut embeddings = vec![0.0f32; (cfg.num_items + 1) * cfg.dim];
    let mut item_topic = Vec::with_capacity(cfg.num_items);
    for item in 1..=cfg.num_items {
        let t = rng.gen_range(0..nt);
        item_topic.push(t as u32);
        let row = &mut embeddings[item * cfg.dim..(item + 1) * cfg.dim];
        for (slot, &c) in row.iter_mut().zip(&centers[t * cfg.dim..(t + 1) * cfg.dim]) {
            *slot = c + cfg.item_spread * gaussian(&mut rng);
        }
    }
    let mut cum_pop = Vec::with_capacity(cfg.num_items);
    let mut acc = 0.0f64;
    for rank in 1..=cfg.num_items {
        acc += 1.0 / (rank as f64).powf(cfg.zipf_exponent);
        cum_pop.push(acc);
    }
    SyntheticCatalog { num_items: cfg.num_items, dim: cfg.dim, embeddings, item_topic, cum_pop }
}

impl SyntheticCatalog {
    /// Model vocabulary for this catalog (`num_items + 1`, padding
    /// included).
    pub fn vocab(&self) -> usize {
        self.num_items + 1
    }

    /// Draw one item id by Zipf popularity.
    pub fn sample_item<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let total = *self.cum_pop.last().expect("non-empty catalog");
        let x = rng.gen::<f64>() * total;
        let idx = self.cum_pop.partition_point(|&c| c < x).min(self.num_items - 1);
        (idx + 1) as u32
    }

    /// Draw a `len`-item query history by Zipf popularity (with
    /// repetition, like real browse streams).
    pub fn sample_history<R: Rng + ?Sized>(&self, rng: &mut R, len: usize) -> Vec<u32> {
        (0..len).map(|_| self.sample_item(rng)).collect()
    }

    /// Popularity mass held by the top `frac` of items — the head-mass
    /// statistic the Zipf law is calibrated against.
    pub fn head_mass(&self, frac: f64) -> f64 {
        let head = ((self.num_items as f64 * frac).ceil() as usize).clamp(1, self.num_items);
        let total = *self.cum_pop.last().expect("non-empty catalog");
        self.cum_pop[head - 1] / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::million_item;
    use proptest::prelude::*;

    #[test]
    fn catalog_has_the_configured_shape() {
        let cfg = million_item(0.002); // 2 000 items
        let cat = generate_catalog(&cfg);
        assert_eq!(cat.num_items, cfg.num_items);
        assert_eq!(cat.vocab(), cfg.num_items + 1);
        assert_eq!(cat.embeddings.len(), (cfg.num_items + 1) * cfg.dim);
        assert_eq!(cat.item_topic.len(), cfg.num_items);
        assert!(cat.embeddings[..cfg.dim].iter().all(|&v| v == 0.0), "padding row must be zero");
        assert!(cat.embeddings[cfg.dim..].iter().all(|v| v.is_finite()));
        assert!(cat.item_topic.iter().all(|&t| (t as usize) < cfg.num_topics));
    }

    #[test]
    fn zipf_head_dominates() {
        let cat = generate_catalog(&million_item(0.005)); // 5 000 items
        let one_pct = cat.head_mass(0.01);
        let ten_pct = cat.head_mass(0.10);
        assert!(one_pct > 0.3, "top-1% mass {one_pct} too flat for a Zipf head");
        assert!(ten_pct > one_pct && ten_pct < 1.0);
        // Sampling follows the law: the head shows up far more often
        // than uniform would allow.
        let mut rng = StdRng::seed_from_u64(42);
        let head_cut = (cat.num_items / 100).max(1) as u32;
        let draws = 4000;
        let head_hits =
            (0..draws).filter(|_| cat.sample_item(&mut rng) <= head_cut).count();
        assert!(head_hits as f64 / draws as f64 > 0.2, "head hits {head_hits}/{draws}");
    }

    #[test]
    fn topics_shape_the_geometry() {
        // Same-topic items must sit closer together than cross-topic
        // pairs on average — the property the coarse stage exploits.
        let cfg = CatalogConfig {
            num_topics: 8,
            ..million_item(0.001) // 1 000 items
        };
        let cat = generate_catalog(&cfg);
        let d = cat.dim;
        let dist2 = |a: usize, b: usize| -> f32 {
            let ra = &cat.embeddings[a * d..(a + 1) * d];
            let rb = &cat.embeddings[b * d..(b + 1) * d];
            ra.iter().zip(rb).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let (mut same, mut same_n, mut cross, mut cross_n) = (0.0f64, 0u32, 0.0f64, 0u32);
        for i in 1..=200usize {
            for j in (i + 1)..=200usize {
                if cat.item_topic[i - 1] == cat.item_topic[j - 1] {
                    same += dist2(i, j) as f64;
                    same_n += 1;
                } else {
                    cross += dist2(i, j) as f64;
                    cross_n += 1;
                }
            }
        }
        assert!(same_n > 0 && cross_n > 0);
        assert!(
            same / same_n as f64 * 2.0 < cross / cross_n as f64,
            "same-topic pairs must be much tighter than cross-topic"
        );
    }

    #[test]
    fn million_item_preset_scales() {
        let small = million_item(0.01);
        let big = million_item(1.0);
        assert_eq!(big.num_items, 1_000_000);
        assert!(small.num_items < big.num_items);
        assert!(small.num_topics <= big.num_topics);
        assert!(big.zipf_exponent > 1.0, "production catalogs are head-heavy");
    }

    proptest! {
        #[test]
        fn seed_stable_generation(seed in 0u64..1_000, items in 20usize..200, dim in 2usize..16) {
            let cfg = CatalogConfig {
                name: "prop".into(),
                num_items: items,
                dim,
                num_topics: 4,
                topic_scale: 1.0,
                item_spread: 0.3,
                zipf_exponent: 1.1,
                seed,
            };
            let a = generate_catalog(&cfg);
            let b = generate_catalog(&cfg);
            prop_assert_eq!(a.item_topic, b.item_topic);
            for (x, y) in a.embeddings.iter().zip(&b.embeddings) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            let other = generate_catalog(&CatalogConfig { seed: seed + 1_000_000, ..cfg });
            prop_assert!(
                a.embeddings.iter().zip(&other.embeddings).any(|(x, y)| x.to_bits() != y.to_bits()),
                "different seeds must generate different catalogs"
            );
        }
    }
}
