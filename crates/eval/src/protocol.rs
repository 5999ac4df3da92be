//! The strong-generalization held-out evaluation loop (§V-A/§V-C).

use crate::metrics::MetricSet;
use crate::ranking::top_n_excluding;
use crate::report::MetricsReport;
use std::collections::HashSet;
use vsan_data::HeldOutUser;

/// Anything that can score the full catalogue from a fold-in history.
///
/// Implementations return a vector of length `vocab` (`num_items + 1`)
/// where index `i` is the model's preference score for item id `i`
/// (index 0 — the padding item — is ignored by the ranker).
pub trait Scorer {
    /// Score every item for a user whose observed history is `fold_in`.
    fn score_items(&self, fold_in: &[u32]) -> Vec<f32>;

    /// Catalogue vocabulary (`num_items + 1`). Used for sanity checks.
    fn vocab(&self) -> usize;
}

/// Evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Cutoffs to evaluate (paper: 10 and 20).
    pub cutoffs: Vec<usize>,
    /// Exclude the fold-in items from the ranked list (standard for the
    /// strong-generalization protocol).
    pub exclude_seen: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { cutoffs: vec![10, 20], exclude_seen: true }
    }
}

/// Per-user metric bundles for significance testing: entry `[u][c]` is
/// user `u`'s [`MetricSet`] at `cfg.cutoffs[c]`. Users with empty target
/// sets are skipped *consistently* (same users, same order, for any
/// scorer), so two models' outputs are paired and can feed
/// [`crate::significance::paired_bootstrap`] directly.
pub fn evaluate_held_out_per_user(
    scorer: &dyn Scorer,
    users: &[HeldOutUser],
    cfg: &EvalConfig,
) -> Vec<Vec<MetricSet>> {
    let max_n = cfg.cutoffs.iter().copied().max().unwrap_or(10);
    let mut out = Vec::with_capacity(users.len());
    for user in users {
        if user.targets.is_empty() {
            continue;
        }
        let scores = scorer.score_items(&user.fold_in);
        debug_assert_eq!(scores.len(), scorer.vocab(), "scorer returned wrong vocab size");
        let exclude: HashSet<u32> = if cfg.exclude_seen {
            user.fold_in.iter().copied().collect()
        } else {
            HashSet::new()
        };
        let ranked = top_n_excluding(&scores, max_n, &exclude);
        let targets: HashSet<u32> = user.targets.iter().copied().collect();
        out.push(cfg.cutoffs.iter().map(|&n| MetricSet::compute(&ranked, &targets, n)).collect());
    }
    out
}

/// Evaluate a scorer over a set of held-out users, averaging each metric
/// across users (users with empty target sets are skipped): the rows of
/// [`evaluate_held_out_per_user`], summed in user order.
pub fn evaluate_held_out(
    scorer: &dyn Scorer,
    users: &[HeldOutUser],
    cfg: &EvalConfig,
) -> MetricsReport {
    let rows = evaluate_held_out_per_user(scorer, users, cfg);
    let mut sums: Vec<MetricSet> = vec![MetricSet::default(); cfg.cutoffs.len()];
    for row in &rows {
        for (sum, m) in sums.iter_mut().zip(row) {
            sum.add_assign(m);
        }
    }
    let counted = rows.len();
    let inv = if counted > 0 { 1.0 / counted as f64 } else { 0.0 };
    let mut report = MetricsReport::new();
    for (slot, &n) in cfg.cutoffs.iter().enumerate() {
        let mut m = sums[slot];
        m.scale(inv);
        report.set("Precision", n, m.precision);
        report.set("Recall", n, m.recall);
        report.set("NDCG", n, m.ndcg);
        report.set("HR", n, m.hit_rate);
    }
    report.set_meta_users(counted);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle that scores exactly the user's future items highest.
    struct Oracle {
        vocab: usize,
        futures: Vec<Vec<u32>>,
        calls: std::cell::Cell<usize>,
    }

    impl Scorer for Oracle {
        fn score_items(&self, _fold_in: &[u32]) -> Vec<f32> {
            let call = self.calls.get();
            self.calls.set(call + 1);
            let mut scores = vec![0.0f32; self.vocab];
            for (rank, &item) in self.futures[call].iter().enumerate() {
                scores[item as usize] = 100.0 - rank as f32;
            }
            scores
        }
        fn vocab(&self) -> usize {
            self.vocab
        }
    }

    fn user(fold_in: &[u32], targets: &[u32]) -> HeldOutUser {
        HeldOutUser { user: 0, fold_in: fold_in.to_vec(), targets: targets.to_vec() }
    }

    #[test]
    fn oracle_achieves_perfect_metrics() {
        let users = vec![user(&[1, 2], &[3, 4]), user(&[5], &[6])];
        let oracle = Oracle {
            vocab: 10,
            futures: vec![vec![3, 4], vec![6]],
            calls: std::cell::Cell::new(0),
        };
        let cfg = EvalConfig { cutoffs: vec![2], exclude_seen: true };
        let report = evaluate_held_out(&oracle, &users, &cfg);
        assert!((report.get("Recall", 2).unwrap() - 1.0).abs() < 1e-12);
        assert!((report.get("NDCG", 2).unwrap() - 1.0).abs() < 1e-12);
        assert!((report.get("HR", 2).unwrap() - 1.0).abs() < 1e-12);
        // Precision@2 for user 2 is 1/2 (only one target), user 1 is 1.0.
        assert!((report.get("Precision", 2).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(report.users(), 2);
    }

    /// Scorer that puts all mass on the fold-in items — exclusion must
    /// force it to fall back to arbitrary items and score zero.
    struct SeenLover {
        vocab: usize,
    }
    impl Scorer for SeenLover {
        fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
            let mut s = vec![0.0f32; self.vocab];
            for &i in fold_in {
                s[i as usize] = 50.0;
            }
            s
        }
        fn vocab(&self) -> usize {
            self.vocab
        }
    }

    #[test]
    fn seen_items_are_excluded_from_recommendations() {
        let users = vec![user(&[1, 2, 3], &[1])]; // target *is* a seen item
        let cfg = EvalConfig { cutoffs: vec![3], exclude_seen: true };
        let report = evaluate_held_out(&SeenLover { vocab: 8 }, &users, &cfg);
        assert_eq!(report.get("Recall", 3).unwrap(), 0.0);

        let cfg_no_excl = EvalConfig { cutoffs: vec![3], exclude_seen: false };
        let report = evaluate_held_out(&SeenLover { vocab: 8 }, &users, &cfg_no_excl);
        assert!((report.get("Recall", 3).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn users_without_targets_are_skipped() {
        let users = vec![user(&[1], &[]), user(&[2], &[3])];
        let oracle = Oracle {
            vocab: 6,
            futures: vec![vec![3]],
            calls: std::cell::Cell::new(0),
        };
        let cfg = EvalConfig { cutoffs: vec![1], exclude_seen: true };
        let report = evaluate_held_out(&oracle, &users, &cfg);
        assert_eq!(report.users(), 1);
        assert!((report.get("Recall", 1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_user_metrics_are_paired_across_scorers() {
        let users = vec![user(&[1], &[2]), user(&[3], &[]), user(&[4], &[5, 6])];
        let cfg = EvalConfig { cutoffs: vec![1, 2], exclude_seen: true };
        let a = SeenLover { vocab: 8 };
        let per_user = evaluate_held_out_per_user(&a, &users, &cfg);
        // The empty-target user is skipped; two remain, each with two cutoffs.
        assert_eq!(per_user.len(), 2);
        assert_eq!(per_user[0].len(), 2);
        // Mean of per-user values matches the aggregated report.
        let report = evaluate_held_out(&a, &users, &cfg);
        let mean_recall_2: f64 =
            per_user.iter().map(|u| u[1].recall).sum::<f64>() / per_user.len() as f64;
        assert!((mean_recall_2 - report.get("Recall", 2).unwrap()).abs() < 1e-12);
    }

    /// Scores every item by a hash of `(fold-in, item)`: rankings differ
    /// per user, so the metrics are fractional and their sum order shows.
    struct Hashed {
        vocab: usize,
    }
    impl Scorer for Hashed {
        fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
            let seed = fold_in
                .iter()
                .fold(0x9E37_79B9u32, |h, &i| h.rotate_left(5) ^ i.wrapping_mul(0x85EB_CA6B));
            (0..self.vocab as u32)
                .map(|i| (seed ^ i.wrapping_mul(0xC2B2_AE35)).rotate_left(i % 31) as f32)
                .collect()
        }
        fn vocab(&self) -> usize {
            self.vocab
        }
    }

    #[test]
    fn the_report_is_the_per_user_rows_summed_in_user_order_bit_for_bit() {
        let users: Vec<HeldOutUser> = (0..57u32)
            .map(|u| {
                let fold_in: Vec<u32> = (0..u % 7 + 1).map(|j| (u * 3 + j * 5) % 40 + 1).collect();
                let targets: Vec<u32> = (0..u % 5).map(|j| (u * 7 + j * 11) % 40 + 1).collect();
                user(&fold_in, &targets)
            })
            .collect();
        let scorer = Hashed { vocab: 41 };
        for exclude_seen in [true, false] {
            let cfg = EvalConfig { cutoffs: vec![3, 10, 20], exclude_seen };
            // The reference: one standalone pass, accumulating as it goes.
            let mut sums = vec![MetricSet::default(); cfg.cutoffs.len()];
            let mut counted = 0usize;
            for u in users.iter().filter(|u| !u.targets.is_empty()) {
                let scores = scorer.score_items(&u.fold_in);
                let exclude: HashSet<u32> =
                    if exclude_seen { u.fold_in.iter().copied().collect() } else { HashSet::new() };
                let ranked = top_n_excluding(&scores, 20, &exclude);
                let targets: HashSet<u32> = u.targets.iter().copied().collect();
                for (sum, &n) in sums.iter_mut().zip(&cfg.cutoffs) {
                    sum.add_assign(&MetricSet::compute(&ranked, &targets, n));
                }
                counted += 1;
            }
            let report = evaluate_held_out(&scorer, &users, &cfg);
            assert_eq!(report.users(), counted);
            for (sum, &n) in sums.iter().zip(&cfg.cutoffs) {
                let mut mean = *sum;
                mean.scale(1.0 / counted as f64);
                let want = [
                    ("Precision", mean.precision),
                    ("Recall", mean.recall),
                    ("NDCG", mean.ndcg),
                    ("HR", mean.hit_rate),
                ];
                for (name, value) in want {
                    let got = report.get(name, n).unwrap();
                    assert_eq!(got.to_bits(), value.to_bits(), "{name}@{n}");
                }
            }
            assert!(report.get("NDCG", 20).unwrap() > 0.0, "the fixture must produce hits");
        }
    }

    #[test]
    fn per_user_metrics_feed_the_bootstrap() {
        use crate::significance::paired_bootstrap;
        let users: Vec<HeldOutUser> =
            (0..40).map(|i| user(&[1], &[(i % 5 + 2) as u32])).collect();
        let cfg = EvalConfig { cutoffs: vec![3], exclude_seen: true };
        // Oracle-ish scorer A: always ranks 2..=6 on top (hits often).
        struct A;
        impl Scorer for A {
            fn score_items(&self, _f: &[u32]) -> Vec<f32> {
                let mut s = vec![0.0; 10];
                for (i, si) in s.iter_mut().enumerate().take(7).skip(2) {
                    *si = 10.0 - i as f32;
                }
                s
            }
            fn vocab(&self) -> usize {
                10
            }
        }
        // Scorer B: ranks irrelevant items.
        struct B;
        impl Scorer for B {
            fn score_items(&self, _f: &[u32]) -> Vec<f32> {
                let mut s = vec![0.0; 10];
                s[8] = 5.0;
                s[9] = 4.0;
                s
            }
            fn vocab(&self) -> usize {
                10
            }
        }
        let pa: Vec<f64> =
            evaluate_held_out_per_user(&A, &users, &cfg).iter().map(|u| u[0].recall).collect();
        let pb: Vec<f64> =
            evaluate_held_out_per_user(&B, &users, &cfg).iter().map(|u| u[0].recall).collect();
        let mut rng = rand::rngs::mock::StepRng::new(42, 0x9E3779B97F4A7C15);
        let r = paired_bootstrap(&pa, &pb, 500, &mut rng).unwrap();
        assert!(r.mean_diff > 0.0);
        assert!(r.significant_at(0.05), "A clearly beats B: p = {}", r.p_value);
    }

    #[test]
    fn empty_user_set_yields_zeroes() {
        let oracle = Oracle { vocab: 4, futures: vec![], calls: std::cell::Cell::new(0) };
        let report = evaluate_held_out(&oracle, &[], &EvalConfig::default());
        assert_eq!(report.get("NDCG", 10).unwrap(), 0.0);
        assert_eq!(report.users(), 0);
    }
}
