//! Posterior introspection: measuring the uncertainty VSAN claims to
//! capture.
//!
//! Fig. 1 of the paper argues that a *distributional* user representation
//! separates multi-modal preferences a fixed point cannot.
//! [`Vsan::posterior`] reads the learned posterior `q(z | S^u) = N(μ, σ²)`
//! of the final position off the training forward's encoder, and
//! [`Vsan::score_items_sampled`] decodes draws from it; this module holds
//! the summary type and its aggregates, so experiments (and the
//! `uncertainty_probe` example) can test that story quantitatively — e.g.
//! users with mixed-category histories should carry larger posterior
//! variance than single-category users.

use crate::model::Vsan;

/// Posterior parameters of the last sequence position for one user.
#[derive(Debug, Clone)]
pub struct PosteriorStats {
    /// Posterior mean `μ_λ` (length `d`).
    pub mu: Vec<f32>,
    /// Posterior standard deviation `σ_λ` (length `d`).
    pub sigma: Vec<f32>,
}

impl PosteriorStats {
    /// Mean of `σ` across latent dimensions — a scalar uncertainty score.
    pub fn mean_sigma(&self) -> f32 {
        if self.sigma.is_empty() {
            return 0.0;
        }
        self.sigma.iter().sum::<f32>() / self.sigma.len() as f32
    }

    /// Differential entropy of the diagonal Gaussian (up to constants):
    /// `Σ_j log σ_j`.
    pub fn log_volume(&self) -> f32 {
        self.sigma.iter().map(|s| s.max(1e-20).ln()).sum()
    }
}

impl Vsan {
    /// Average posterior uncertainty (mean σ) over a set of histories.
    pub fn mean_uncertainty(&self, histories: &[Vec<u32>]) -> Result<f32, String> {
        if histories.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0f32;
        for h in histories {
            total += self.posterior(h)?.mean_sigma();
        }
        Ok(total / histories.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VsanConfig;
    use vsan_data::Dataset;

    fn model() -> Vsan {
        let sequences = (0..16u32)
            .map(|u| (0..8).map(|t| (u + t) % 6 + 1).collect())
            .collect();
        let ds = Dataset { name: "t".into(), num_items: 6, sequences };
        let users: Vec<usize> = (0..16).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(3);
        Vsan::train(&ds, &users, &cfg).unwrap()
    }

    #[test]
    fn posterior_has_model_width_and_positive_sigma() {
        let m = model();
        let stats = m.posterior(&[1, 2, 3]).unwrap();
        assert_eq!(stats.mu.len(), m.config().base.dim);
        assert_eq!(stats.sigma.len(), m.config().base.dim);
        assert!(stats.sigma.iter().all(|&s| s > 0.0));
        assert!(stats.mean_sigma() > 0.0);
        assert!(stats.log_volume().is_finite());
    }

    #[test]
    fn posterior_depends_on_history() {
        let m = model();
        let a = m.posterior(&[1, 2, 3]).unwrap();
        let b = m.posterior(&[4, 5, 6]).unwrap();
        let diff: f32 = a.mu.iter().zip(&b.mu).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "different histories must map to different posteriors");
    }

    #[test]
    fn sampled_scores_are_probabilities_and_converge_to_mean() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use vsan_eval::Scorer;
        let m = model();
        let mut rng = StdRng::seed_from_u64(1);
        let sampled = m.score_items_sampled(&[1, 2, 3], 8, &mut rng).unwrap();
        assert_eq!(sampled.len(), m.vocab());
        let total: f32 = sampled.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "averaged probabilities sum to 1, got {total}");
        assert!(sampled.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // samples = 0 falls back to the deterministic mean scoring.
        let zero = m.score_items_sampled(&[1, 2, 3], 0, &mut rng).unwrap();
        assert_eq!(zero, m.score_items(&[1, 2, 3]));
        // More samples → ranking correlates with the mean decode: the top
        // mean item should be well ranked under sampling too (same data).
        let mean_probs = m.score_items(&[1, 2, 3]);
        let argmax = |v: &[f32]| {
            v.iter().enumerate().skip(1).max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0
        };
        let best_mean = argmax(&mean_probs);
        let rank_of_best: usize = sampled
            .iter()
            .skip(1)
            .filter(|&&p| p > sampled[best_mean])
            .count();
        assert!(rank_of_best < 4, "mean-best item fell to rank {rank_of_best} under sampling");
    }

    #[test]
    fn mean_uncertainty_aggregates() {
        let m = model();
        let hists = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let mu = m.mean_uncertainty(&hists).unwrap();
        assert!(mu > 0.0);
        assert_eq!(m.mean_uncertainty(&[]).unwrap(), 0.0);
    }
}
