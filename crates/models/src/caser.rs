//! Caser: convolutional sequence embedding (Tang & Wang 2018).
//!
//! The last `L` items are embedded into an `(L, d)` "image"; horizontal
//! filters (heights 1..=L, full width) capture union-level sequential
//! patterns via max-over-time pooling, and vertical filters (weighted sums
//! over the `L` rows) capture point-level patterns. Both feature groups
//! feed a fully-connected layer and a softmax over items.
//!
//! The original concatenates a user embedding before the output layer;
//! under strong generalization held-out users are unseen, so we use the
//! sequence-only variant (noted in the crate docs).

use crate::common::{train_epochs, NeuralConfig};
use crate::traits::Recommender;
use vsan_data::sequence::{pad_left, SeqExample};
use vsan_data::Dataset;
use vsan_eval::Scorer;
use vsan_nn::{Embedding, Linear, ParamStore};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::{Graph, Result as AgResult, Var};

/// Caser-specific hyper-parameters on top of [`NeuralConfig`].
#[derive(Debug, Clone)]
pub struct CaserConfig {
    /// Markov window length `L` (the "image" height).
    pub window: usize,
    /// Horizontal filters per height (heights 1..=L each get this many).
    pub h_filters: usize,
    /// Number of vertical filters.
    pub v_filters: usize,
    /// Maximum training windows sampled per user per epoch (bounds cost on
    /// long ML-1M-like histories).
    pub max_windows_per_user: usize,
}

impl Default for CaserConfig {
    fn default() -> Self {
        CaserConfig { window: 5, h_filters: 4, v_filters: 2, max_windows_per_user: 12 }
    }
}

/// Trained Caser model.
pub struct Caser {
    store: ParamStore,
    item_emb: Embedding,
    /// One horizontal filter bank per height `h`: weight `(h·d, F)`.
    h_banks: Vec<Linear>,
    /// Vertical filter bank `(v_filters, L)` applied as `W · E`.
    v_bank: usize, // param id
    fc: Linear,
    out: Linear,
    cfg: NeuralConfig,
    ccfg: CaserConfig,
    vocab: usize,
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
}

impl Caser {
    /// Train on sliding windows from the training users.
    pub fn train(
        ds: &Dataset,
        train_users: &[usize],
        cfg: &NeuralConfig,
        ccfg: &CaserConfig,
    ) -> Result<Self, String> {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", ds.vocab(), cfg.dim, true);
        let l = ccfg.window;
        let h_banks: Vec<Linear> = (1..=l)
            .map(|h| Linear::new(&mut store, &mut rng, &format!("hconv{h}"), h * cfg.dim, ccfg.h_filters, true))
            .collect();
        let v_bank = store.add(
            "vconv",
            vsan_tensor::init::xavier_uniform(&mut rng, &[ccfg.v_filters, l]),
        );
        let feat_dim = l * ccfg.h_filters + ccfg.v_filters * cfg.dim;
        let fc = Linear::new(&mut store, &mut rng, "fc", feat_dim, cfg.dim, true);
        let out = Linear::new(&mut store, &mut rng, "out", cfg.dim, ds.vocab(), true);

        // Sliding windows: (last-L-items, next-item) pairs, capped per user.
        let mut examples: Vec<SeqExample> = Vec::new();
        for &u in train_users {
            let seq = &ds.sequences[u];
            if seq.len() < 2 {
                continue;
            }
            let starts: Vec<usize> = (1..seq.len()).collect();
            let take = starts.len().min(ccfg.max_windows_per_user);
            // Deterministic stride so every epoch sees the same windows.
            let stride = (starts.len() / take).max(1);
            for &t in starts.iter().step_by(stride).take(take) {
                examples.push(SeqExample {
                    input: pad_left(&seq[..t], l),
                    targets: vec![seq[t] as usize],
                });
            }
        }

        let mut model = Caser {
            store,
            item_emb,
            h_banks,
            v_bank,
            fc,
            out,
            cfg: cfg.clone(),
            ccfg: ccfg.clone(),
            vocab: ds.vocab(),
            train_losses: Vec::new(),
        };
        if examples.is_empty() {
            return Ok(model);
        }

        // The store trains on its own while the model lends its layers.
        let mut store = std::mem::replace(&mut model.store, ParamStore::new());
        let net = &model;
        let losses = train_epochs(
            cfg,
            &mut store,
            &examples,
            |g, store, batch, _rng, _step| {
                let inputs: Vec<usize> =
                    batch.iter().flat_map(|ex| ex.input.iter().map(|&i| i as usize)).collect();
                let targets: Vec<usize> = batch.iter().map(|ex| ex.targets[0]).collect();
                // One feature row per example and every example has its
                // target: there is no padded row for `active_rows` to drop.
                let logits = net.forward(g, store, &inputs)?;
                let loss = g.ce_one_hot(logits, &targets)?;
                let ce = g.value(loss).data()[0];
                Ok((loss, vsan_nn::ShardStats::ce_only(ce)))
            },
            |store| net.item_emb.zero_padding(store),
        );
        model.store = store;
        model.train_losses = losses?;
        Ok(model)
    }

    /// The forward over `inputs`, stacked windows of `L` items: the conv
    /// features, fused by the fully connected layer (ReLU), then one
    /// logit row per window. Training and scoring both run it; scoring
    /// over the one left-padded window.
    fn forward(&self, g: &mut Graph, store: &ParamStore, inputs: &[usize]) -> AgResult<Var> {
        let l = self.ccfg.window;
        let emb = self.item_emb.lookup(g, store, inputs)?; // (B·L, d)
        let v_w = store.var(g, self.v_bank); // (F_v, L)
        let mut per_sample_feats: Vec<Var> = Vec::with_capacity(inputs.len() / l);
        for s in 0..inputs.len() / l {
            let mut parts: Vec<Var> = Vec::new();
            // Horizontal convolutions with max-over-time pooling.
            for (h_idx, bank) in self.h_banks.iter().enumerate() {
                let h = h_idx + 1;
                let n_offsets = l - h + 1;
                // im2col: rows are windows, built as column-concat of shifted gathers.
                let mut cols: Vec<Var> = Vec::with_capacity(h);
                for r in 0..h {
                    let idx: Vec<usize> = (0..n_offsets).map(|o| s * l + o + r).collect();
                    cols.push(g.gather_rows(emb, &idx)?);
                }
                let im2col = if cols.len() == 1 { cols[0] } else { g.concat_cols(&cols)? };
                let conv = bank.forward(g, store, im2col)?; // (n_offsets, F)
                let conv = g.relu(conv);
                let pooled = g.max_axis0(conv)?; // (F,)
                parts.push(g.reshape(pooled, &[1, bank.out_dim()])?);
            }
            // Vertical convolution: W_v (F_v, L) × E_s (L, d) → (F_v, d).
            let sample_idx: Vec<usize> = (0..l).map(|r| s * l + r).collect();
            let e_s = g.gather_rows(emb, &sample_idx)?;
            let v_out = g.matmul(v_w, e_s)?;
            let d = g.value(e_s).dims()[1];
            let f_v = g.value(v_w).dims()[0];
            parts.push(g.reshape(v_out, &[1, f_v * d])?);
            per_sample_feats.push(g.concat_cols(&parts)?);
        }
        let feats = g.concat_rows(&per_sample_feats)?; // (B, feat_dim)
        let fused = self.fc.forward(g, store, feats)?;
        let fused = g.relu(fused);
        self.out.forward(g, store, fused)
    }
}

impl Scorer for Caser {
    fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
        let inputs: Vec<usize> =
            pad_left(fold_in, self.ccfg.window).into_iter().map(|i| i as usize).collect();
        let mut g = Graph::with_threads(self.cfg.threads);
        self.forward(&mut g, &self.store, &inputs)
            .map(|logits| g.value(logits).data().to_vec())
            .unwrap_or_else(|_| vec![0.0; self.vocab])
    }
    fn vocab(&self) -> usize {
        self.vocab
    }
}

impl Recommender for Caser {
    fn name(&self) -> &'static str {
        "Caser"
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
        let ds = chain_dataset(6, 20, 10);
        let users: Vec<usize> = (0..20).collect();
        let cfg = NeuralConfig::smoke().with_epochs(6);
        let model = Caser::train(&ds, &users, &cfg, &CaserConfig::default()).unwrap();
        assert!(model.train_losses.last().unwrap() < &model.train_losses[0]);
    }

    #[test]
    fn learns_local_patterns() {
        let ds = chain_dataset(5, 30, 12);
        let users: Vec<usize> = (0..30).collect();
        let cfg = NeuralConfig::smoke().with_epochs(15);
        let model = Caser::train(&ds, &users, &cfg, &CaserConfig::default()).unwrap();
        let scores = model.score_items(&[4, 5, 1]);
        let best = (1..=5).max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap()).unwrap();
        assert_eq!(best, 2, "scores {:?}", &scores[1..]);
    }

    #[test]
    fn short_fold_in_is_padded() {
        let ds = chain_dataset(5, 10, 8);
        let users: Vec<usize> = (0..10).collect();
        let cfg = NeuralConfig::smoke().with_epochs(1);
        let model = Caser::train(&ds, &users, &cfg, &CaserConfig::default()).unwrap();
        let scores = model.score_items(&[3]);
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn window_cap_bounds_example_count() {
        let ds = chain_dataset(5, 4, 40);
        let users: Vec<usize> = (0..4).collect();
        let cfg = NeuralConfig::smoke().with_epochs(1);
        let ccfg = CaserConfig { max_windows_per_user: 3, ..CaserConfig::default() };
        // Indirect check: training completes quickly and produces losses.
        let model = Caser::train(&ds, &users, &cfg, &ccfg).unwrap();
        assert_eq!(model.train_losses.len(), 1);
    }
}
