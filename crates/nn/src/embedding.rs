//! Embedding tables with a reserved zero-padding row.

use crate::param::{ParamId, ParamStore};
use rand::Rng;
use vsan_autograd::{Graph, Result, Var};
use vsan_tensor::init;

/// A learned lookup table `(vocab, dim)`.
///
/// Index `0` is reserved for the padding item: the paper left-pads short
/// sequences "with the zero vector" (§IV-A), so [`Embedding::zero_padding`]
/// must be called after every optimizer step to pin row 0 at zero (the
/// gradient scatter will otherwise drift it).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Table parameter id.
    pub table: ParamId,
    vocab: usize,
    dim: usize,
    padded: bool,
}

impl Embedding {
    /// Register an embedding table initialized with a clamped normal
    /// (`std = 1/sqrt(dim)`). When `padded` is true, row 0 starts at zero
    /// and is expected to be re-zeroed each step.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        vocab: usize,
        dim: usize,
        padded: bool,
    ) -> Self {
        let std = 1.0 / (dim as f32).sqrt();
        let mut t = init::embedding_init(rng, &[vocab, dim], std);
        if padded {
            for v in t.row_mut(0) {
                *v = 0.0;
            }
        }
        let table = store.add(name.to_string(), t);
        Embedding { table, vocab, dim, padded }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Look up a batch of indices: `(len,) → (len, dim)`.
    ///
    /// The table enters the graph once per call; repeated lookups in the
    /// same graph accumulate gradients correctly because all scatter-adds
    /// land on the same parameter key.
    pub fn lookup(&self, g: &mut Graph, store: &ParamStore, idx: &[usize]) -> Result<Var> {
        let table = store.var(g, self.table);
        g.gather_rows(table, idx)
    }

    /// Re-zero the padding row after an optimizer step.
    pub fn zero_padding(&self, store: &mut ParamStore) {
        if self.padded {
            for v in store.get_mut(self.table).row_mut(0) {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn padded_table_starts_with_zero_row() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let emb = Embedding::new(&mut store, &mut rng, "item_emb", 10, 4, true);
        assert!(store.get(emb.table).row(0).iter().all(|&v| v == 0.0));
        // Non-padding rows should be initialized.
        assert!(store.get(emb.table).row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn lookup_gathers_rows() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let emb = Embedding::new(&mut store, &mut rng, "e", 6, 3, false);
        let mut g = Graph::new();
        let out = emb.lookup(&mut g, &store, &[4, 1, 4]).unwrap();
        assert_eq!(g.value(out).dims(), &[3, 3]);
        assert_eq!(g.value(out).row(0), store.get(emb.table).row(4));
        assert_eq!(g.value(out).row(1), store.get(emb.table).row(1));
        assert_eq!(g.value(out).row(0), g.value(out).row(2));
    }

    #[test]
    fn gradients_scatter_into_looked_up_rows_only() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let emb = Embedding::new(&mut store, &mut rng, "e", 5, 2, true);
        let mut g = Graph::new();
        let out = emb.lookup(&mut g, &store, &[2, 2, 3]).unwrap();
        let loss = g.sum_all(out);
        let grads = g.backward(loss).unwrap();
        let dg = grads.param_grad(emb.table).unwrap();
        // Row 2 hit twice, row 3 once, others untouched.
        assert_eq!(dg.row(2), &[2.0, 2.0]);
        assert_eq!(dg.row(3), &[1.0, 1.0]);
        assert_eq!(dg.row(0), &[0.0, 0.0]);
        assert_eq!(dg.row(1), &[0.0, 0.0]);
        assert_eq!(dg.row(4), &[0.0, 0.0]);
    }

    #[test]
    fn zero_padding_restores_row_zero() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let emb = Embedding::new(&mut store, &mut rng, "e", 4, 3, true);
        store.get_mut(emb.table).row_mut(0)[1] = 9.0; // simulate optimizer drift
        emb.zero_padding(&mut store);
        assert!(store.get(emb.table).row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unpadded_table_is_left_alone() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let emb = Embedding::new(&mut store, &mut rng, "e", 4, 3, false);
        let before = store.get(emb.table).clone();
        let mut store2 = store;
        emb.zero_padding(&mut store2);
        assert_eq!(store2.get(emb.table), &before);
    }
}
