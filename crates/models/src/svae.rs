//! SVAE: sequential variational autoencoder for collaborative filtering
//! (Sachdeva et al. 2019) — the paper's closest VAE baseline.
//!
//! Item embedding → GRU → per-position variational heads (μ, log σ²) →
//! reparameterized latent `z` → linear decoder → multinomial likelihood
//! over the next `k` items, optimized by the β-annealed ELBO. This is the
//! RNN-encoder counterpart of VSAN: same latent structure, recurrent
//! instead of self-attentive encoders.

use crate::common::{active_rows, train_epochs, NeuralConfig};
use crate::traits::Recommender;
use vsan_data::sequence::{next_k_example, pad_left};
use vsan_data::Dataset;
use vsan_eval::Scorer;
use vsan_nn::{BetaSchedule, Embedding, GruCell, Linear, ParamStore};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::{Graph, Result as AgResult};
use vsan_tensor::init;

/// SVAE-specific knobs on top of [`NeuralConfig`].
#[derive(Debug, Clone)]
pub struct SvaeConfig {
    /// Latent dimension of `z` (defaults to the model dim).
    pub latent_dim: usize,
    /// Next-`k` window for the multinomial target (the paper finds k = 4
    /// best for SVAE, Fig. 3).
    pub next_k: usize,
    /// β schedule for the KL term.
    pub beta: BetaSchedule,
}

impl SvaeConfig {
    /// Defaults matched to the paper's SVAE setup at a given model dim.
    pub fn for_dim(dim: usize) -> Self {
        SvaeConfig {
            latent_dim: dim,
            next_k: 4,
            beta: BetaSchedule::paper_default(200),
        }
    }
}

/// Trained SVAE model.
pub struct Svae {
    store: ParamStore,
    item_emb: Embedding,
    gru: GruCell,
    mu_head: Linear,
    logvar_head: Linear,
    decoder: Linear,
    cfg: NeuralConfig,
    vocab: usize,
    /// Mean training loss per epoch (reconstruction + β·KL).
    pub train_losses: Vec<f32>,
}

impl Svae {
    /// Train on the training users' sequences.
    pub fn train(
        ds: &Dataset,
        train_users: &[usize],
        cfg: &NeuralConfig,
        scfg: &SvaeConfig,
    ) -> Result<Self, String> {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", ds.vocab(), cfg.dim, true);
        let gru = GruCell::new(&mut store, &mut rng, "gru", cfg.dim, cfg.dim);
        let mu_head = Linear::new(&mut store, &mut rng, "mu", cfg.dim, scfg.latent_dim, true);
        let logvar_head = Linear::new(&mut store, &mut rng, "logvar", cfg.dim, scfg.latent_dim, true);
        // Near-deterministic posterior at init (see vsan-core::model for
        // the rationale): σ ≈ e⁻² so the reparameterized signal is not
        // drowned in unit-variance noise before the decoder learns.
        store.get_mut(logvar_head.w).fill(0.0);
        if let Some(b) = logvar_head.b {
            store.get_mut(b).fill(-4.0);
        }
        let decoder = Linear::new(&mut store, &mut rng, "dec", scfg.latent_dim, ds.vocab(), true);

        // Next-k examples; reuse SeqExample layout via next_k targets.
        let n = cfg.max_seq_len;
        let examples_k: Vec<_> = train_users
            .iter()
            .filter_map(|&u| next_k_example(&ds.sequences[u], n, scfg.next_k))
            .collect();
        let mut model = Svae {
            store,
            item_emb,
            gru,
            mu_head,
            logvar_head,
            decoder,
            cfg: cfg.clone(),
            vocab: ds.vocab(),
            train_losses: Vec::new(),
        };
        if examples_k.is_empty() {
            return Ok(model);
        }

        // train_epochs wants SeqExample; carry indices into examples_k.
        let proxies: Vec<vsan_data::sequence::SeqExample> = (0..examples_k.len())
            .map(|i| vsan_data::sequence::SeqExample { input: vec![i as u32], targets: vec![] })
            .collect();

        let item_emb = model.item_emb.clone();
        let gru = model.gru.clone();
        let mu_head = model.mu_head.clone();
        let logvar_head = model.logvar_head.clone();
        let decoder = model.decoder.clone();
        let beta_sched = scfg.beta;
        let latent = scfg.latent_dim;
        let losses = train_epochs(
            cfg,
            &mut model.store,
            &proxies,
            |g, store, batch, rng, step| {
                let b = batch.len();
                let mut inputs = Vec::with_capacity(b * n);
                for proxy in batch {
                    let ex = &examples_k[proxy.input[0] as usize];
                    inputs.extend(ex.input.iter().map(|&i| i as usize));
                }
                let table = store.var(g, item_emb.table);
                let emb = g.gather_rows(table, &inputs)?;
                let mut xs = Vec::with_capacity(n);
                for t in 0..n {
                    let idx: Vec<usize> = (0..b).map(|s| s * n + t).collect();
                    xs.push(g.gather_rows(emb, &idx)?);
                }
                let states = gru.unroll(g, store, &xs, b)?;
                let h_all = g.concat_rows(&states)?; // (n·B, d) position-major
                let mu = mu_head.forward(g, store, h_all)?;
                let logvar = logvar_head.forward(g, store, h_all)?;
                // Reparameterize.
                let half = g.scale(logvar, 0.5);
                let sigma = g.exp(half);
                let eps = g.constant(init::randn(rng, &[n * b, latent], 0.0, 1.0));
                let noise = g.mul(sigma, eps)?;
                let z = g.add(mu, noise)?;
                // Position-major multi-hot targets + KL row mask.
                let mut targets: Vec<Vec<usize>> = vec![Vec::new(); n * b];
                let mut mask = vec![false; n * b];
                for (s, proxy) in batch.iter().enumerate() {
                    let ex = &examples_k[proxy.input[0] as usize];
                    for t in 0..n {
                        let tv = &ex.targets[t];
                        if !tv.is_empty() {
                            targets[t * b + s] = tv.clone();
                            mask[t * b + s] = true;
                        }
                    }
                }
                // Only the rows that have a target go through the decoder;
                // the KL keeps its full rows and its mask.
                let (active, targets) = active_rows(targets, |t| !t.is_empty());
                let z = g.gather_rows(z, &active)?;
                let logits = decoder.forward(g, store, z)?;
                let ce = g.ce_multi_hot(logits, &targets)?;
                let kl = g.kl_std_normal(mu, logvar, &mask)?;
                let beta = beta_sched.beta(step);
                let kl_scaled = g.scale(kl, beta);
                let loss = g.add(ce, kl_scaled)?;
                let stats = vsan_nn::ShardStats {
                    ce: g.value(ce).data()[0],
                    kl: g.value(kl).data()[0],
                    beta,
                };
                Ok((loss, stats))
            },
            |store| {
                item_emb.zero_padding(store);
            },
        )?;
        model.train_losses = losses;
        Ok(model)
    }

    fn forward_logits(&self, fold_in: &[u32]) -> AgResult<Vec<f32>> {
        let window = pad_left(fold_in, self.cfg.max_seq_len.min(fold_in.len().max(1)));
        let mut g = Graph::with_threads(self.cfg.threads);
        let idx: Vec<usize> = window.iter().map(|&i| i as usize).collect();
        let emb = self.item_emb.lookup(&mut g, &self.store, &idx)?;
        let mut xs = Vec::with_capacity(idx.len());
        for t in 0..idx.len() {
            xs.push(g.gather_rows(emb, &[t])?);
        }
        let states = self.gru.unroll(&mut g, &self.store, &xs, 1)?;
        let last = *states.last().expect("non-empty window");
        // Evaluation uses the posterior mean (z = μ), following §IV-E.
        let mu = self.mu_head.forward(&mut g, &self.store, last)?;
        let logits = self.decoder.forward(&mut g, &self.store, mu)?;
        Ok(g.value(logits).data().to_vec())
    }
}

impl Scorer for Svae {
    fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
        if fold_in.is_empty() {
            return vec![0.0; self.vocab];
        }
        self.forward_logits(fold_in).unwrap_or_else(|_| vec![0.0; self.vocab])
    }
    fn vocab(&self) -> usize {
        self.vocab
    }
}

impl Recommender for Svae {
    fn name(&self) -> &'static str {
        "SVAE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let sequences = (0..users)
            .map(|u| (0..len).map(|t| ((u + t) % num_items + 1) as u32).collect())
            .collect();
        Dataset { name: "chain".into(), num_items, sequences }
    }

    #[test]
    fn training_reduces_loss() {
        // Fixed β: under annealing the growing KL weight can mask the
        // falling reconstruction term across epochs.
        let ds = chain_dataset(6, 20, 10);
        let users: Vec<usize> = (0..20).collect();
        let cfg = NeuralConfig::smoke().with_epochs(6);
        let mut scfg = SvaeConfig::for_dim(cfg.dim);
        scfg.beta = vsan_nn::BetaSchedule::Fixed(0.02);
        let model = Svae::train(&ds, &users, &cfg, &scfg).unwrap();
        assert!(model.train_losses.last().unwrap() < &model.train_losses[0]);
    }

    #[test]
    fn learns_deterministic_chain() {
        let ds = chain_dataset(5, 25, 12);
        let users: Vec<usize> = (0..25).collect();
        let cfg = NeuralConfig::smoke().with_epochs(15);
        let mut scfg = SvaeConfig::for_dim(cfg.dim);
        scfg.next_k = 1;
        let model = Svae::train(&ds, &users, &cfg, &scfg).unwrap();
        let scores = model.score_items(&[2, 3]);
        let best = (1..=5).max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap()).unwrap();
        assert_eq!(best, 4, "scores {:?}", &scores[1..]);
    }

    #[test]
    fn evaluation_uses_posterior_mean_hence_deterministic() {
        let ds = chain_dataset(5, 10, 8);
        let users: Vec<usize> = (0..10).collect();
        let cfg = NeuralConfig::smoke().with_epochs(2);
        let model = Svae::train(&ds, &users, &cfg, &SvaeConfig::for_dim(cfg.dim)).unwrap();
        assert_eq!(model.score_items(&[1, 2]), model.score_items(&[1, 2]));
    }

    #[test]
    fn next_k_window_is_configurable() {
        let ds = chain_dataset(5, 10, 8);
        let users: Vec<usize> = (0..10).collect();
        let cfg = NeuralConfig::smoke().with_epochs(2);
        for k in [1, 2, 4] {
            let mut scfg = SvaeConfig::for_dim(cfg.dim);
            scfg.next_k = k;
            let model = Svae::train(&ds, &users, &cfg, &scfg).unwrap();
            assert!(model.train_losses.iter().all(|l| l.is_finite()));
        }
    }
}
