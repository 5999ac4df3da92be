//! The causal self-attention block (Eqs. 5–9 / 15–16 of the paper).
//!
//! One block is: scaled dot-product attention with the causal mask →
//! residual connection + LayerNorm → point-wise two-layer feed-forward
//! network with ReLU → residual connection + LayerNorm. The FFN (and its
//! LayerNorm) can be disabled to build the paper's `VSAN-all-feed` /
//! `VSAN-infer-feed` / `VSAN-gene-feed` ablations (Table VI).

use crate::dropout::Dropout;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::param::ParamStore;
use rand::Rng;
use vsan_autograd::{Graph, Result, Var};

/// Which input rows each sample's `n`-row causal attention window holds.
/// The block's projections, dropout, LayerNorms and FFN run once per
/// *input* row whatever the windows; only the attention reads windows.
#[derive(Debug, Clone, Copy)]
pub enum Windows<'a> {
    /// Stacked windows: input rows `s·n..(s+1)·n` are window `s`.
    Stacked {
        /// Number of windows.
        batch: usize,
    },
    /// Windows assembled from shared input rows: window `s` is input rows
    /// `rows[s·n..(s+1)·n]` and is queried at its last `keep[s]` rows, and
    /// the input rows are, in order, exactly those queried rows of every
    /// window. A row that several windows read — their common left
    /// padding, which attends only to itself — is then computed once, by
    /// the one window that queries it.
    Gathered {
        /// Window rows, flat `(keep.len(), n)`.
        rows: &'a [usize],
        /// Queried rows per window.
        keep: &'a [usize],
    },
}

/// One single-head self-attention block (the paper's, like SASRec's)
/// operating on flattened activations, with per-sample causal attention
/// over [`Windows`].
#[derive(Debug, Clone)]
pub struct SelfAttentionBlock {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    ln1: LayerNorm,
    ffn: Option<Ffn>,
    dim: usize,
}

/// The point-wise feed-forward sublayer (Eq. 8/16) with its LayerNorm.
#[derive(Debug, Clone)]
struct Ffn {
    w1: Linear,
    w2: Linear,
    ln2: LayerNorm,
}

impl SelfAttentionBlock {
    /// Register a block's parameters under `prefix`. `use_ffn = false`
    /// builds the ablated block without the point-wise feed-forward network.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        prefix: &str,
        dim: usize,
        use_ffn: bool,
    ) -> Self {
        let wq = Linear::new(store, rng, &format!("{prefix}.wq"), dim, dim, false);
        let wk = Linear::new(store, rng, &format!("{prefix}.wk"), dim, dim, false);
        let wv = Linear::new(store, rng, &format!("{prefix}.wv"), dim, dim, false);
        let ln1 = LayerNorm::new(store, &format!("{prefix}.ln1"), dim);
        let ffn = use_ffn.then(|| Ffn {
            w1: Linear::new(store, rng, &format!("{prefix}.ffn1"), dim, dim, true),
            w2: Linear::new(store, rng, &format!("{prefix}.ffn2"), dim, dim, true),
            ln2: LayerNorm::new(store, &format!("{prefix}.ln2"), dim),
        });
        SelfAttentionBlock { wq, wk, wv, ln1, ffn, dim }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when the point-wise feed-forward sublayer is present.
    pub fn has_ffn(&self) -> bool {
        self.ffn.is_some()
    }

    /// The query projection (graph-free executors resolve its params
    /// directly from the store).
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &Linear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &Linear {
        &self.wv
    }

    /// The post-attention LayerNorm.
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// The feed-forward sublayer's pieces `(w1, w2, ln2)`, when present.
    pub fn ffn_parts(&self) -> Option<(&Linear, &Linear, &LayerNorm)> {
        self.ffn.as_ref().map(|f| (&f.w1, &f.w2, &f.ln2))
    }

    /// Forward flattened `(rows, dim)` activations; attention runs
    /// causally within each window of `windows` and never across windows.
    #[allow(clippy::too_many_arguments)]
    pub fn forward<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        windows: Windows<'_>,
        dropout: &Dropout,
        rng: &mut R,
        train: bool,
    ) -> Result<Var> {
        // Project once over every input row.
        let q = self.wq.forward(g, store, x)?;
        let k = self.wk.forward(g, store, x)?;
        let v = self.wv.forward(g, store, x)?;
        let scale = 1.0 / (self.dim as f32).sqrt();

        // Per-sample causal attention (Eq. 5 with the j > i links removed)
        // through the tier-dispatched batch builder: one fused node on a
        // fast-tier graph, the per-sample composed chains on a
        // reference-tier one — bit-identical values and gradients either
        // way.
        let d = match windows {
            Windows::Stacked { batch } => g.causal_attention_batch(q, k, v, batch, scale)?,
            Windows::Gathered { rows, keep } => {
                let kw = g.gather_rows(k, rows)?;
                let vw = g.gather_rows(v, rows)?;
                g.causal_attention_windows(q, kw, vw, keep, scale)?
            }
        };
        let d = dropout.forward(g, rng, d, train)?;

        // Residual + LayerNorm (Eq. 7).
        let res1 = g.add(d, x)?;
        let e = self.ln1.forward(g, store, res1)?;

        // Point-wise FFN + residual + LayerNorm (Eqs. 8–9), if enabled.
        match &self.ffn {
            Some(ffn) => {
                let h = ffn.w1.forward(g, store, e)?;
                let h = g.relu(h);
                let f = ffn.w2.forward(g, store, h)?;
                let f = dropout.forward(g, rng, f, train)?;
                let res2 = g.add(f, e)?;
                ffn.ln2.forward(g, store, res2)
            }
            None => Ok(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vsan_tensor::{init, Tensor};

    fn setup(use_ffn: bool) -> (ParamStore, SelfAttentionBlock) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let block = SelfAttentionBlock::new(&mut store, &mut rng, "san", 8, use_ffn);
        (store, block)
    }

    #[test]
    fn forward_preserves_shape() {
        let (store, block) = setup(true);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(2);
        let x = g.constant(init::randn(&mut rng, &[3 * 5, 8], 0.0, 1.0));
        let drop = Dropout::new(0.0);
        let windows = Windows::Stacked { batch: 3 };
        let y = block.forward(&mut g, &store, x, windows, &drop, &mut rng, true).unwrap();
        assert_eq!(g.value(y).dims(), &[15, 8]);
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn causality_future_items_do_not_affect_past_positions() {
        // Changing the *last* item of a sequence must not change the block
        // output at earlier positions.
        let (store, block) = setup(true);
        let drop = Dropout::new(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let base = init::randn(&mut rng, &[4, 8], 0.0, 1.0);
        let mut altered = base.clone();
        for v in altered.row_mut(3) {
            *v += 5.0;
        }

        let run = |input: Tensor| {
            let mut g = Graph::new();
            let mut rng = StdRng::seed_from_u64(4);
            let x = g.constant(input);
            let windows = Windows::Stacked { batch: 1 };
            let y = block.forward(&mut g, &store, x, windows, &drop, &mut rng, false).unwrap();
            g.value(y).clone()
        };
        let y0 = run(base);
        let y1 = run(altered);
        for pos in 0..3 {
            for (a, b) in y0.row(pos).iter().zip(y1.row(pos)) {
                assert!((a - b).abs() < 1e-5, "position {pos} leaked future information");
            }
        }
        // The final position *should* change.
        let diff: f32 = y0.row(3).iter().zip(y1.row(3)).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn samples_in_a_batch_do_not_interact() {
        let (store, block) = setup(true);
        let drop = Dropout::new(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let a = init::randn(&mut rng, &[3, 8], 0.0, 1.0);
        let b = init::randn(&mut rng, &[3, 8], 0.0, 1.0);
        let c = init::randn(&mut rng, &[3, 8], 0.0, 1.0);

        let run_batch = |parts: &[&Tensor]| {
            let mut g = Graph::new();
            let mut rng = StdRng::seed_from_u64(6);
            let mut data = Vec::new();
            for p in parts {
                data.extend_from_slice(p.data());
            }
            let x = g.constant(Tensor::from_vec(data, &[parts.len() * 3, 8]).unwrap());
            let windows = Windows::Stacked { batch: parts.len() };
            let y = block.forward(&mut g, &store, x, windows, &drop, &mut rng, false).unwrap();
            g.value(y).clone()
        };
        let with_b = run_batch(&[&a, &b]);
        let with_c = run_batch(&[&a, &c]);
        // Sample a's output is independent of its batch neighbour.
        for r in 0..3 {
            for (x, y) in with_b.row(r).iter().zip(with_c.row(r)) {
                assert!((x - y).abs() < 1e-5, "cross-sample leakage at row {r}");
            }
        }
    }

    /// Two 4-row windows over 6 input rows: window 0 is rows `[0, 1, 2,
    /// 3]` and queries all of them, window 1 shares rows 0 and 1 (a common
    /// left prefix) and queries its own rows 4 and 5.
    const SHARED_ROWS: [usize; 8] = [0, 1, 2, 3, 0, 1, 4, 5];
    const SHARED_KEEP: [usize; 2] = [4, 2];
    /// Where each input row sits in the stacked copies of the windows.
    const SHARED_OUT: [usize; 6] = [0, 1, 2, 3, 6, 7];

    #[test]
    fn gathered_windows_match_stacked_copies_of_the_shared_rows() {
        // A window built from shared rows computes exactly what the same
        // rows copied into a stacked window compute, row for row; only the
        // shared rows' gradients sum over the windows that read them.
        let (store, block) = setup(true);
        let drop = Dropout::new(0.0);
        let mut rng = StdRng::seed_from_u64(51);
        let shared = init::randn(&mut rng, &[6, 8], 0.0, 1.0);
        let stacked = shared.gather_rows(&SHARED_ROWS).unwrap();
        let run = |input: &Tensor, windows: Windows<'_>| {
            let mut g = Graph::new();
            let mut rng = StdRng::seed_from_u64(52);
            let x = g.constant(input.clone());
            let y = block.forward(&mut g, &store, x, windows, &drop, &mut rng, false).unwrap();
            g.value(y).clone()
        };
        let gathered = run(&shared, Windows::Gathered { rows: &SHARED_ROWS, keep: &SHARED_KEEP });
        let copies = run(&stacked, Windows::Stacked { batch: 2 });
        assert_eq!(gathered.dims(), &[6, 8]);
        for (r, &w) in SHARED_OUT.iter().enumerate() {
            assert_eq!(gathered.row(r), copies.row(w), "input row {r} vs window row {w}");
        }
    }

    #[test]
    fn no_ffn_block_registers_fewer_params() {
        let (store_full, _) = setup(true);
        let (store_slim, block) = setup(false);
        assert!(!block.has_ffn());
        assert!(store_slim.len() < store_full.len());
    }

    #[test]
    fn block_forward_and_grads_are_bit_equal_across_kernel_tiers() {
        // The whole block (with FFN) run on a reference-tier and a
        // fast-tier graph, over stacked and over gathered windows: output
        // values and every parameter gradient must match to the bit.
        use vsan_tensor::KernelTier;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(31);
        let block = SelfAttentionBlock::new(&mut store, &mut rng, "t", 8, true);
        let stacked = init::randn(&mut rng, &[2 * 3, 8], 0.0, 0.5);
        let shared = init::randn(&mut rng, &[6, 8], 0.0, 0.5);
        let gathered = Windows::Gathered { rows: &SHARED_ROWS, keep: &SHARED_KEEP };
        let drop = Dropout::new(0.0);

        for (x0, windows) in [(&stacked, Windows::Stacked { batch: 2 }), (&shared, gathered)] {
            let run = |tier: KernelTier| {
                let mut g = Graph::with_threads_and_tier(1, tier);
                let mut rng2 = StdRng::seed_from_u64(32);
                let x = g.constant(x0.clone());
                let y = block.forward(&mut g, &store, x, windows, &drop, &mut rng2, false).unwrap();
                let out = g.value(y).clone();
                let sq = g.mul(y, y).unwrap();
                let loss = g.sum_all(sq);
                let grads = g.backward(loss).unwrap();
                (out, grads)
            };
            let (out_ref, grads_ref) = run(KernelTier::Reference);
            let (out_fast, grads_fast) = run(KernelTier::Fast);
            for (a, b) in out_ref.data().iter().zip(out_fast.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "forward diverged across tiers: {windows:?}");
            }
            for (id, name, _) in store.iter() {
                let gr = grads_ref.param_grad(id).unwrap();
                let gf = grads_fast.param_grad(id).unwrap();
                for (a, b) in gr.data().iter().zip(gf.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "gradient diverged for {name}: {windows:?}");
                }
            }
        }
    }

    #[test]
    fn fast_tier_tape_does_not_grow_with_the_batch() {
        // One attention node per block, whatever the batch: no per-sample
        // gathers, nodes or concat on the tier that trains.
        use vsan_tensor::KernelTier;
        let (store, block) = setup(true);
        let drop = Dropout::new(0.0);
        let tape_len = |batch: usize| {
            let mut g = Graph::with_threads_and_tier(1, KernelTier::Fast);
            let mut rng2 = StdRng::seed_from_u64(42);
            let x = g.constant(init::randn(&mut rng2, &[batch * 3, 8], 0.0, 0.5));
            let windows = Windows::Stacked { batch };
            block.forward(&mut g, &store, x, windows, &drop, &mut rng2, false).unwrap();
            g.len()
        };
        assert_eq!(tape_len(8), tape_len(1));
    }

    #[test]
    fn gradcheck_through_whole_block() {
        // End-to-end finite-difference check of the composed block (no FFN
        // for speed; the FFN pieces are covered by linear/layernorm checks).
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let block = SelfAttentionBlock::new(&mut store, &mut rng, "b", 4, false);
        let x0 = init::randn(&mut rng, &[3, 4], 0.0, 0.5);
        let drop = Dropout::new(0.0);

        // Collect the block's params in id order as gradcheck inputs.
        let params: Vec<Tensor> = store.iter().map(|(_, _, t)| t.clone()).collect();
        let report = vsan_autograd::gradcheck::check_gradients(
            &params,
            |g, vars| {
                // Rebuild a store-view: vars[i] corresponds to param id i.
                // We inline the block's forward with these vars.
                let x = g.constant(x0.clone());
                let q = g.matmul(x, vars[0]).unwrap();
                let k = g.matmul(x, vars[1]).unwrap();
                let v = g.matmul(x, vars[2]).unwrap();
                let s = g.matmul_a_bt(q, k).unwrap();
                let s = g.scale(s, 0.5);
                let a = g.softmax_causal(s).unwrap();
                let d = g.matmul(a, v).unwrap();
                let r = g.add(d, x).unwrap();
                let e = g.layer_norm(r, vars[3], vars[4]).unwrap();
                let sq = g.mul(e, e).unwrap();
                g.sum_all(sq)
            },
            1e-2,
            3e-2,
        )
        .unwrap();
        assert!(report.compared > 0);

        // And confirm the actual forward produces gradients for every param.
        let mut g = Graph::new();
        let mut rng2 = StdRng::seed_from_u64(8);
        let x = g.constant(x0);
        let windows = Windows::Stacked { batch: 1 };
        let y = block.forward(&mut g, &store, x, windows, &drop, &mut rng2, false).unwrap();
        let sq = g.mul(y, y).unwrap();
        let loss = g.sum_all(sq);
        let grads = g.backward(loss).unwrap();
        for (id, name, _) in store.iter() {
            assert!(grads.param_grad(id).is_some(), "no gradient for {name}");
        }
    }
}
