//! SASRec: self-attentive sequential recommendation (Kang & McAuley 2018).
//!
//! Item + learned positional embeddings, a stack of causal self-attention
//! blocks, and a weight-tied prediction layer (`score = G · Eᵀ`, sharing
//! the item embedding as the output matrix, as in the original paper).
//! We train with full-softmax cross-entropy over next items rather than
//! the original sampled binary cross-entropy — comparable to VSAN's
//! objective and strictly harder than sampled BCE.

use crate::common::{
    active_rows, examples_for_users, flatten_batch, position_indices, train_epochs, NeuralConfig,
};
use crate::traits::Recommender;
use vsan_data::sequence::pad_left;
use vsan_data::Dataset;
use vsan_eval::Scorer;
use vsan_nn::{Dropout, Embedding, ParamStore, SelfAttentionBlock, Windows};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::{Graph, Result as AgResult, Var};

/// Trained SASRec model.
pub struct SasRec {
    store: ParamStore,
    item_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<SelfAttentionBlock>,
    cfg: NeuralConfig,
    vocab: usize,
    /// Mean training loss per epoch (for convergence checks / benches).
    pub train_losses: Vec<f32>,
}

impl SasRec {
    /// Number of self-attention blocks used by default (the original
    /// paper's b = 2; our Table III harness passes 2).
    pub const DEFAULT_BLOCKS: usize = 2;

    /// Train SASRec on the training users' sequences.
    pub fn train(ds: &Dataset, train_users: &[usize], cfg: &NeuralConfig) -> Result<Self, String> {
        Self::train_with_blocks(ds, train_users, cfg, Self::DEFAULT_BLOCKS)
    }

    /// Train with an explicit block count.
    pub fn train_with_blocks(
        ds: &Dataset,
        train_users: &[usize],
        cfg: &NeuralConfig,
        num_blocks: usize,
    ) -> Result<Self, String> {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", ds.vocab(), cfg.dim, true);
        let pos_emb =
            Embedding::new(&mut store, &mut rng, "pos_emb", cfg.max_seq_len, cfg.dim, false);
        let blocks: Vec<SelfAttentionBlock> = (0..num_blocks)
            .map(|b| SelfAttentionBlock::new(&mut store, &mut rng, &format!("block{b}"), cfg.dim, true))
            .collect();

        let examples = examples_for_users(ds, train_users, cfg.max_seq_len);
        let mut model = SasRec {
            store,
            item_emb,
            pos_emb,
            blocks,
            cfg: cfg.clone(),
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
            |g, store, batch, rng, _step| {
                let (inputs, targets) = flatten_batch(batch);
                let (active, targets) = active_rows(targets, |&t| t != usize::MAX);
                let logits = net.forward(g, store, &inputs, &active, rng, true)?;
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

    /// The forward over `inputs`, stacked windows of `max_seq_len` rows:
    /// embedding + dropout, the blocks, then weight-tied logits
    /// `(readout, d) × (vocab, d)ᵀ` on the `readout` rows only. Training
    /// reads out the rows that have a target; scoring runs it with
    /// dropout off over the one left-padded window, read out at its last
    /// row.
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        inputs: &[usize],
        readout: &[usize],
        rng: &mut StdRng,
        train: bool,
    ) -> AgResult<Var> {
        let n = self.cfg.max_seq_len;
        let batch = inputs.len() / n;
        let dropout = Dropout::new(self.cfg.dropout);
        let table = store.var(g, self.item_emb.table);
        let items = g.gather_rows(table, inputs)?;
        let pos = self.pos_emb.lookup(g, store, &position_indices(batch, n))?;
        let mut h = g.add(items, pos)?;
        h = dropout.forward(g, rng, h, train)?;
        for block in &self.blocks {
            h = block.forward(g, store, h, Windows::Stacked { batch }, &dropout, rng, train)?;
        }
        let h = g.gather_rows(h, readout)?;
        g.matmul_a_bt(h, table)
    }
}

impl Scorer for SasRec {
    fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
        let n = self.cfg.max_seq_len;
        let inputs: Vec<usize> = pad_left(fold_in, n).into_iter().map(|i| i as usize).collect();
        let mut g = Graph::with_threads(self.cfg.threads);
        let mut rng = StdRng::seed_from_u64(0); // dropout is off: never drawn
        self.forward(&mut g, &self.store, &inputs, &[n - 1], &mut rng, false)
            .map(|logits| g.value(logits).data().to_vec())
            .unwrap_or_else(|_| vec![0.0; self.vocab])
    }
    fn vocab(&self) -> usize {
        self.vocab
    }
}

impl Recommender for SasRec {
    fn name(&self) -> &'static str {
        "SASRec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic cyclic-chain data: next item is fully determined by
    /// the previous one, the easiest possible sequence task.
    fn chain_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let sequences = (0..users)
            .map(|u| (0..len).map(|t| ((u + t) % num_items + 1) as u32).collect())
            .collect();
        Dataset { name: "chain".into(), num_items, sequences }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = chain_dataset(8, 24, 10);
        let users: Vec<usize> = (0..24).collect();
        let cfg = NeuralConfig::smoke().with_epochs(5);
        let model = SasRec::train(&ds, &users, &cfg).unwrap();
        let first = model.train_losses[0];
        let last = *model.train_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn learns_deterministic_chain() {
        let ds = chain_dataset(6, 30, 12);
        let users: Vec<usize> = (0..30).collect();
        let cfg = NeuralConfig::smoke().with_epochs(40);
        let model = SasRec::train(&ds, &users, &cfg).unwrap();
        // After ... 3, 4 the chain continues with 5.
        let scores = model.score_items(&[3, 4]);
        let best = (1..=6).max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap()).unwrap();
        assert_eq!(best, 5, "scores {:?}", &scores[1..]);
    }

    #[test]
    fn scoring_is_deterministic() {
        let ds = chain_dataset(6, 12, 8);
        let users: Vec<usize> = (0..12).collect();
        let cfg = NeuralConfig::smoke().with_epochs(2);
        let model = SasRec::train(&ds, &users, &cfg).unwrap();
        assert_eq!(model.score_items(&[1, 2]), model.score_items(&[1, 2]));
    }

    #[test]
    fn handles_fold_in_longer_than_window() {
        let ds = chain_dataset(6, 12, 8);
        let users: Vec<usize> = (0..12).collect();
        let cfg = NeuralConfig::smoke().with_epochs(1);
        let model = SasRec::train(&ds, &users, &cfg).unwrap();
        let long: Vec<u32> = (0..50).map(|t| (t % 6 + 1) as u32).collect();
        let scores = model.score_items(&long);
        assert_eq!(scores.len(), model.vocab());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn empty_training_set_is_safe() {
        let ds = chain_dataset(6, 4, 8);
        let cfg = NeuralConfig::smoke().with_epochs(1);
        let model = SasRec::train(&ds, &[], &cfg).unwrap();
        assert!(model.train_losses.is_empty());
        assert!(model.score_items(&[1]).iter().all(|s| s.is_finite()));
    }
}
