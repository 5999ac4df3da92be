//! GRU4Rec: session-based recommendation with a gated recurrent unit
//! (Hidasi et al. 2016).
//!
//! Item embedding → unrolled GRU → per-position softmax over the
//! catalogue. The original trains with session-parallel mini-batches and a
//! pairwise loss; with whole user histories available we train next-item
//! full-softmax cross-entropy (the stronger "GRU4Rec+ CE" variant),
//! keeping the objective aligned across all neural baselines.

use crate::common::{active_rows, examples_for_users, flatten_batch, train_epochs, NeuralConfig};
use crate::traits::Recommender;
use vsan_data::sequence::pad_left;
use vsan_data::Dataset;
use vsan_eval::Scorer;
use vsan_nn::{Embedding, GruCell, Linear, ParamStore};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::{Graph, Result as AgResult};

/// Trained GRU4Rec model.
pub struct Gru4Rec {
    store: ParamStore,
    item_emb: Embedding,
    gru: GruCell,
    out: Linear,
    cfg: NeuralConfig,
    vocab: usize,
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
}

impl Gru4Rec {
    /// Train on the training users' sequences.
    pub fn train(ds: &Dataset, train_users: &[usize], cfg: &NeuralConfig) -> Result<Self, String> {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", ds.vocab(), cfg.dim, true);
        let gru = GruCell::new(&mut store, &mut rng, "gru", cfg.dim, cfg.dim);
        let out = Linear::new(&mut store, &mut rng, "out", cfg.dim, ds.vocab(), true);

        let examples = examples_for_users(ds, train_users, cfg.max_seq_len);
        let mut model = Gru4Rec {
            store,
            item_emb,
            gru,
            out,
            cfg: cfg.clone(),
            vocab: ds.vocab(),
            train_losses: Vec::new(),
        };
        if examples.is_empty() {
            return Ok(model);
        }

        let n = cfg.max_seq_len;
        let item_emb = model.item_emb.clone();
        let gru = model.gru.clone();
        let out = model.out.clone();
        let losses = train_epochs(
            cfg,
            &mut model.store,
            &examples,
            |g, store, batch, _rng, _step| {
                let (inputs, targets) = flatten_batch(batch);
                let b = batch.len();
                let table = store.var(g, item_emb.table);
                let emb = g.gather_rows(table, &inputs)?; // (B·n, d) batch-major
                // Per-timestep input slices: position t of every sample.
                let mut xs = Vec::with_capacity(n);
                for t in 0..n {
                    let idx: Vec<usize> = (0..b).map(|s| s * n + t).collect();
                    xs.push(g.gather_rows(emb, &idx)?);
                }
                let states = gru.unroll(g, store, &xs, b)?;
                // Position-major stack with matching target reordering.
                let h_all = g.concat_rows(&states)?; // (n·B, d), row t·B + s
                let mut reordered = vec![usize::MAX; n * b];
                for (s, _) in batch.iter().enumerate() {
                    for t in 0..n {
                        reordered[t * b + s] = targets[s * n + t];
                    }
                }
                // Only the rows that have a target go through the head.
                let (active, targets) = active_rows(reordered, |&t| t != usize::MAX);
                let h = g.gather_rows(h_all, &active)?;
                let logits = out.forward(g, store, h)?;
                let loss = g.ce_one_hot(logits, &targets)?;
                let ce = g.value(loss).data()[0];
                Ok((loss, vsan_nn::ShardStats::ce_only(ce)))
            },
            |store| {
                item_emb.zero_padding(store);
            },
        )?;
        model.train_losses = losses;
        Ok(model)
    }

    fn forward_logits(&self, fold_in: &[u32]) -> AgResult<Vec<f32>> {
        // Feed the most recent `max_seq_len` real items (no padding needed —
        // the GRU consumes variable length naturally).
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
        let logits = self.out.forward(&mut g, &self.store, last)?;
        Ok(g.value(logits).data().to_vec())
    }
}

impl Scorer for Gru4Rec {
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

impl Recommender for Gru4Rec {
    fn name(&self) -> &'static str {
        "GRU4Rec"
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
        let ds = chain_dataset(8, 20, 10);
        let users: Vec<usize> = (0..20).collect();
        let cfg = NeuralConfig::smoke().with_epochs(6);
        let model = Gru4Rec::train(&ds, &users, &cfg).unwrap();
        assert!(model.train_losses.last().unwrap() < &model.train_losses[0]);
    }

    #[test]
    fn learns_deterministic_chain() {
        let ds = chain_dataset(5, 25, 12);
        let users: Vec<usize> = (0..25).collect();
        let cfg = NeuralConfig::smoke().with_epochs(15);
        let model = Gru4Rec::train(&ds, &users, &cfg).unwrap();
        let scores = model.score_items(&[1, 2]);
        let best = (1..=5).max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap()).unwrap();
        assert_eq!(best, 3, "scores {:?}", &scores[1..]);
    }

    #[test]
    fn empty_fold_in_returns_flat_scores() {
        let ds = chain_dataset(5, 10, 8);
        let users: Vec<usize> = (0..10).collect();
        let cfg = NeuralConfig::smoke().with_epochs(1);
        let model = Gru4Rec::train(&ds, &users, &cfg).unwrap();
        let scores = model.score_items(&[]);
        assert!(scores.iter().all(|&s| s == 0.0));
        assert_eq!(scores.len(), 6);
    }

    #[test]
    fn long_fold_in_is_truncated_not_fatal() {
        let ds = chain_dataset(5, 10, 8);
        let users: Vec<usize> = (0..10).collect();
        let cfg = NeuralConfig::smoke().with_epochs(1);
        let model = Gru4Rec::train(&ds, &users, &cfg).unwrap();
        let long: Vec<u32> = (0..100).map(|t| (t % 5 + 1) as u32).collect();
        assert!(model.score_items(&long).iter().all(|s| s.is_finite()));
    }
}
