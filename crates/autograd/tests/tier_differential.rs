//! Differential tests for the fast kernel tier (DESIGN.md §10).
//!
//! The fast tier's contract is *bitwise* equivalence with the reference
//! scalar tape — not finite-difference closeness. These tests drive the
//! fused causal-attention forward/backward (and the tiled matmul family it
//! rides on) through [`vsan_autograd::gradcheck::check_tier_equivalence`],
//! which builds the identical loss on a reference-tier and a fast-tier
//! graph and demands `to_bits()`-equal loss and parameter gradients.
//!
//! Shape coverage deliberately targets the register-tile edges: the tiled
//! kernels use MR=4 × NR=16 output tiles, so shapes that are not multiples
//! of 4/16 exercise the j-remainder, i-remainder, and corner regions, and
//! `n = 1` exercises the single-row-history / batch-1 path end to end.

use proptest::prelude::*;
use vsan_autograd::gradcheck::{check_gradients_tiered, check_tier_equivalence};
use vsan_autograd::Graph;
use vsan_tensor::{KernelTier, Tensor};

fn matrix(r: usize, c: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, r * c)
        .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
}

/// `(n, d, q, k, v)` with `n`/`d` spanning 1..=19 / 1..=18 — both sides of
/// the MR=4 and NR=16 tile boundaries, including the degenerate 1-row case.
fn qkv() -> impl Strategy<Value = (usize, usize, Tensor, Tensor, Tensor)> {
    (1usize..=19, 1usize..=18).prop_flat_map(|(n, d)| {
        (Just(n), Just(d), matrix(n, d), matrix(n, d), matrix(n, d))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused attention backward: fast-tier dq/dk/dv are bit-equal to the
    /// composed reference chain for arbitrary tile-edge shapes.
    #[test]
    fn fused_attention_grads_are_bit_equal_across_tiers(
        (n, d, q, k, v) in qkv(),
        scale in 0.05f32..2.0,
    ) {
        let report = check_tier_equivalence(&[q, k, v], |g, vars| {
            let attn = g.causal_attention(vars[0], vars[1], vars[2], scale).unwrap();
            let sq = g.mul(attn, attn).unwrap();
            g.sum_all(sq)
        });
        prop_assert!(report.is_ok(), "n={} d={}: {:?}", n, d, report);
        prop_assert_eq!(report.unwrap().compared, 1 + 3 * n * d);
    }

    /// Self-attention with a *shared* input (q = k = v from one parameter):
    /// the fused backward must accumulate the three gradients into the
    /// shared leaf in the same order the composed chain does (v, then q,
    /// then k), or the f32 fan-out sums diverge bitwise.
    #[test]
    fn shared_input_attention_accumulates_in_chain_order(
        (n, d, x, _, _) in qkv(),
        scale in 0.05f32..2.0,
    ) {
        let report = check_tier_equivalence(&[x], |g, vars| {
            let attn = g.causal_attention(vars[0], vars[0], vars[0], scale).unwrap();
            let sq = g.mul(attn, attn).unwrap();
            g.sum_all(sq)
        });
        prop_assert!(report.is_ok(), "n={} d={}: {:?}", n, d, report);
    }

    /// A projection block around the fused op (the shape `nn::Attention`
    /// builds): input embeddings through Wq/Wk/Wv, fused attention, and a
    /// tiled output matmul — every parameter gradient bit-equal across
    /// tiers.
    #[test]
    fn projected_attention_block_is_bit_equal_across_tiers(
        n in 1usize..=9,
        d in 1usize..=10,
        seed in 0u64..1024,
    ) {
        let mk = |salt: u64, r: usize, c: usize| {
            let data: Vec<f32> = (0..r * c)
                .map(|i| (((seed * 31 + salt * 7 + i as u64) as f32) * 0.61).sin())
                .collect();
            Tensor::from_vec(data, &[r, c]).unwrap()
        };
        let params =
            [mk(1, n, d), mk(2, d, d), mk(3, d, d), mk(4, d, d), mk(5, d, d)];
        let scale = 1.0 / (d as f32).sqrt();
        let report = check_tier_equivalence(&params, |g, v| {
            let q = g.matmul(v[0], v[1]).unwrap();
            let k = g.matmul(v[0], v[2]).unwrap();
            let val = g.matmul(v[0], v[3]).unwrap();
            let attn = g.causal_attention(q, k, val, scale).unwrap();
            let out = g.matmul(attn, v[4]).unwrap();
            let sq = g.mul(out, out).unwrap();
            g.sum_all(sq)
        });
        prop_assert!(report.is_ok(), "n={} d={}: {:?}", n, d, report);
    }
}

#[test]
fn tile_edge_shape_matrix_is_bit_equal_and_finite_difference_close() {
    // Deterministic sweep over the shapes the proptest strategies may not
    // pin every run: exact tile multiples, every remainder class around
    // MR=4/NR=16, batch 1, and single-row histories. Each shape is checked
    // two ways — bitwise across tiers, and fast-tier analytic gradients
    // against reference-tier central finite differences.
    let shapes: &[(usize, usize)] = &[
        (1, 1),   // single element
        (1, 7),   // single-row history, off-grid width
        (1, 16),  // single-row history, exact NR
        (2, 16),  // i-remainder rows, exact NR columns
        (3, 5),   // both remainders
        (4, 4),   // exact MR, quarter NR
        (4, 16),  // exact MR × NR tile
        (5, 17),  // one past both boundaries
        (7, 8),
        (13, 20), // past NR in d
        (16, 12),
        (17, 16), // one past 4·MR rows, exact NR
    ];
    for &(n, d) in shapes {
        let mk = |salt: usize| {
            let data: Vec<f32> =
                (0..n * d).map(|i| (((salt * 131 + i * 17) as f32) * 0.23).sin()).collect();
            Tensor::from_vec(data, &[n, d]).unwrap()
        };
        let params = [mk(1), mk(2), mk(3)];
        let scale = 1.0 / (d as f32).sqrt();
        let build = |g: &mut Graph, vars: &[vsan_autograd::Var]| {
            let attn = g.causal_attention(vars[0], vars[1], vars[2], scale).unwrap();
            let sq = g.mul(attn, attn).unwrap();
            g.sum_all(sq)
        };
        check_tier_equivalence(&params, build)
            .unwrap_or_else(|e| panic!("tier mismatch at n={n} d={d}: {e}"));
        check_gradients_tiered(&params, build, 1e-2, 2e-2, KernelTier::Fast)
            .unwrap_or_else(|e| panic!("fast-tier gradcheck failed at n={n} d={d}: {e}"));
    }
}

#[test]
fn fast_tier_forward_value_matches_reference_forward() {
    // The forward value itself (not just gradients) must be bit-equal: run
    // the same attention on both tiers and compare the output tensor bits.
    let n = 6;
    let d = 10;
    let mk = |salt: usize| {
        let data: Vec<f32> =
            (0..n * d).map(|i| (((salt * 53 + i * 11) as f32) * 0.41).cos()).collect();
        Tensor::from_vec(data, &[n, d]).unwrap()
    };
    let (q, k, v) = (mk(1), mk(2), mk(3));
    let scale = 1.0 / (d as f32).sqrt();
    let run = |tier: KernelTier| {
        let mut g = Graph::with_threads_and_tier(1, tier);
        let qv = g.constant(q.clone());
        let kv = g.constant(k.clone());
        let vv = g.constant(v.clone());
        let attn = g.causal_attention(qv, kv, vv, scale).unwrap();
        g.value(attn).clone()
    };
    let reference = run(KernelTier::Reference);
    let fast = run(KernelTier::Fast);
    assert_eq!(reference.dims(), fast.dims());
    for (i, (a, b)) in reference.data().iter().zip(fast.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a:?} vs {b:?}");
    }
}

#[test]
fn full_vsan_loss_is_bit_equal_across_tiers() {
    // The complete training objective from `grad_full_vsan_loss_end_to_end`
    // (gradcheck_ops.rs), built through the tier-dispatched
    // `causal_attention` entry point for both attention stacks: inference
    // block + LayerNorm, reparameterized z, generative block, multi-hot CE
    // + β·KL. Every one of the 12 parameter gradients must be bit-equal
    // across tiers — this is the loss `Vsan::train` actually differentiates.
    let n = 4;
    let d = 4;
    let vocab = 6;
    let mk = |salt: usize, dims: &[usize]| {
        let len: usize = dims.iter().product();
        let data: Vec<f32> =
            (0..len).map(|i| (((salt * 211 + i * 29) as f32) * 0.17).sin()).collect();
        Tensor::from_vec(data, dims).unwrap()
    };
    let params = [
        mk(1, &[n, d]),      // x
        mk(2, &[d, d]),      // wq
        mk(3, &[d, d]),      // wk
        mk(4, &[d, d]),      // wv
        mk(5, &[d]),         // gamma
        mk(6, &[d]),         // beta_ln
        mk(7, &[d, d]),      // w_mu
        mk(8, &[d, d]),      // w_lv
        mk(9, &[d, d]),      // gq
        mk(10, &[d, d]),     // gk
        mk(11, &[d, d]),     // gv
        mk(12, &[d, vocab]), // w_out
    ];
    let eps = mk(13, &[n, d]);
    let targets = vec![vec![1usize, 4], vec![], vec![0, 2], vec![5]];
    let kl_mask = vec![true, false, true, true];
    let beta = 0.37f32;

    check_tier_equivalence(&params, |g, v| {
        let scale = 1.0 / (d as f32).sqrt();
        let q = g.matmul(v[0], v[1]).unwrap();
        let k = g.matmul(v[0], v[2]).unwrap();
        let val = g.matmul(v[0], v[3]).unwrap();
        let ctx = g.causal_attention(q, k, val, scale).unwrap();
        let res = g.add(ctx, v[0]).unwrap();
        let h = g.layer_norm(res, v[4], v[5]).unwrap();
        let mu = g.matmul(h, v[6]).unwrap();
        let logvar = g.matmul(h, v[7]).unwrap();
        let half_lv = g.scale(logvar, 0.5);
        let sigma = g.exp(half_lv);
        let e = g.constant(eps.clone());
        let noise = g.mul(sigma, e).unwrap();
        let z = g.add(mu, noise).unwrap();
        let q2 = g.matmul(z, v[8]).unwrap();
        let k2 = g.matmul(z, v[9]).unwrap();
        let v2 = g.matmul(z, v[10]).unwrap();
        let ctx2 = g.causal_attention(q2, k2, v2, scale).unwrap();
        let gen = g.add(ctx2, z).unwrap();
        let logits = g.matmul(gen, v[11]).unwrap();
        let ce = g.ce_multi_hot(logits, &targets).unwrap();
        let kl = g.kl_std_normal(mu, logvar, &kl_mask).unwrap();
        let kl_scaled = g.scale(kl, beta);
        g.add(ce, kl_scaled).unwrap()
    })
    .unwrap();
}

#[test]
fn fast_tier_rejects_mismatched_operands() {
    let mut g = Graph::with_threads_and_tier(1, KernelTier::Fast);
    let q = g.constant(Tensor::zeros(&[3, 4]));
    let k = g.constant(Tensor::zeros(&[2, 4]));
    let v = g.constant(Tensor::zeros(&[3, 4]));
    assert!(g.causal_attention(q, k, v, 0.5).is_err());
}
