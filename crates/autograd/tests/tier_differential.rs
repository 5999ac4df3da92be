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
use vsan_autograd::{Graph, Var};
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
        let build = |g: &mut Graph, vars: &[Var]| {
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

// ---- causal_attention_batch ------------------------------------------------
//
// Three recordings of the same attention over `batch` stacked samples must
// agree to the bit: the batch builder on the fast tier (one fused node),
// the batch builder on the reference tier (per-sample composed chains),
// and `batch` separate `causal_attention` calls on row gathers, stacked
// with `concat_rows` — the per-sample fused nodes training recorded
// before the batch node existed.

/// How a build turns flat `(batch·n, d)` operands into the attention output.
type Attend = fn(&mut Graph, Var, Var, Var, usize, f32) -> Var;

fn batch_node(g: &mut Graph, q: Var, k: Var, v: Var, batch: usize, scale: f32) -> Var {
    g.causal_attention_batch(q, k, v, batch, scale).unwrap()
}

fn stacked_single_calls(g: &mut Graph, q: Var, k: Var, v: Var, batch: usize, scale: f32) -> Var {
    let n = g.value(q).dims()[0] / batch;
    let mut outs = Vec::with_capacity(batch);
    for s in 0..batch {
        let idx: Vec<usize> = (s * n..(s + 1) * n).collect();
        // k before q: descending ids then reach a shared operand in the
        // chain's own v → q → k order (as the builder's reference arm).
        let ks = g.gather_rows(k, &idx).unwrap();
        let qs = g.gather_rows(q, &idx).unwrap();
        let vs = g.gather_rows(v, &idx).unwrap();
        outs.push(g.causal_attention(qs, ks, vs, scale).unwrap());
    }
    g.concat_rows(&outs).unwrap()
}

const RECORDINGS: [(&str, KernelTier, Attend); 3] = [
    ("batch node, fast tier", KernelTier::Fast, batch_node),
    ("batch builder, reference tier", KernelTier::Reference, batch_node),
    ("stacked single calls, fast tier", KernelTier::Fast, stacked_single_calls),
];

/// Deterministic dense test data.
fn wave(salt: usize, dims: &[usize]) -> Tensor {
    let len: usize = dims.iter().product();
    let data = (0..len).map(|i| (((salt * 97 + i * 13) as f32) * 0.29).sin()).collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Attention-output bits and each parameter's gradient bits for one
/// recording of `build`, under the loss `Σ out ⊙ upstream` (so `upstream`
/// *is* the gradient that reaches the output).
fn record<A>(
    tier: KernelTier,
    attend: A,
    params: &[Tensor],
    upstream: &Tensor,
    build: impl Fn(&mut Graph, &[Var], A) -> Var,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut g = Graph::with_threads_and_tier(1, tier);
    let vars: Vec<Var> = params.iter().enumerate().map(|(i, t)| g.param(t.clone(), i)).collect();
    let out = build(&mut g, &vars, attend);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let out_bits = bits(g.value(out));
    let w = g.constant(upstream.clone());
    let weighted = g.mul(out, w).unwrap();
    let loss = g.sum_all(weighted);
    let grads = g.backward(loss).unwrap();
    let grad_bits = (0..params.len())
        .map(|i| bits(grads.param_grad(i).unwrap_or_else(|| panic!("no gradient for param {i}"))))
        .collect();
    (out_bits, grad_bits)
}

/// All `recordings` of `build`: values bit-equal, and every parameter
/// gradient element the same under `same_grad(want_bits, got_bits)`.
fn compare_recordings<A: Copy>(
    recordings: &[(&str, KernelTier, A)],
    what: &str,
    params: &[Tensor],
    upstream: &Tensor,
    build: impl Fn(&mut Graph, &[Var], A) -> Var,
    same_grad: impl Fn(u32, u32) -> bool,
) {
    let (name0, tier0, attend0) = recordings[0];
    let want = record(tier0, attend0, params, upstream, &build);
    for (name, tier, attend) in &recordings[1..] {
        let got = record(*tier, *attend, params, upstream, &build);
        assert_eq!(want.0, got.0, "{what}: values differ between {name0} and {name}");
        for (i, (w, g)) in want.1.iter().zip(&got.1).enumerate() {
            assert_eq!(w.len(), g.len(), "{what}: gradient shape of param {i}");
            for (e, (&a, &b)) in w.iter().zip(g).enumerate() {
                assert!(
                    same_grad(a, b),
                    "{what}: gradient of param {i}, element {e}: \
                     {a:08x} ({name0}) vs {b:08x} ({name})"
                );
            }
        }
    }
}

/// All three batch recordings of `build`: values and every parameter
/// gradient bit-equal.
fn assert_recordings_agree(
    what: &str,
    params: &[Tensor],
    upstream: &Tensor,
    build: impl Fn(&mut Graph, &[Var], Attend) -> Var,
) {
    compare_recordings(&RECORDINGS, what, params, upstream, build, |a, b| a == b);
}

/// `x → (x·Wq, x·Wk, x·Wv)` → attention → `·Wf`: the shape
/// `nn::SelfAttentionBlock` records, with a downstream projection (the
/// FFN's first linear) so the upstream gradient reaches the attention
/// through a product. Params: `[x, wq, wk, wv, wf]`.
fn projected_block(batch: usize) -> impl Fn(&mut Graph, &[Var], Attend) -> Var {
    move |g, p, attend| {
        let d = g.value(p[1]).dims()[1];
        let scale = 1.0 / (d as f32).sqrt();
        let q = g.matmul(p[0], p[1]).unwrap();
        let k = g.matmul(p[0], p[2]).unwrap();
        let v = g.matmul(p[0], p[3]).unwrap();
        let mixed = attend(g, q, k, v, batch, scale);
        g.matmul(mixed, p[4]).unwrap()
    }
}

#[test]
fn batch_attention_recordings_agree_over_the_shape_matrix() {
    for d in [8, 100] {
        for n in [1, 4, 17, 33, 50] {
            for batch in [1, 2, 8] {
                let rows = batch * n;
                let what = format!("batch = {batch}, n = {n}, d = {d}");
                let scale = 1.0 / (d as f32).sqrt();
                let upstream = wave(9, &[rows, d]);

                // q, k, v as leaves: the gradients are dq / dk / dv themselves.
                let qkv = [wave(1, &[rows, d]), wave(2, &[rows, d]), wave(3, &[rows, d])];
                let leaf = |g: &mut Graph, p: &[Var], attend: Attend| {
                    attend(g, p[0], p[1], p[2], batch, scale)
                };
                assert_recordings_agree(&format!("{what}, leaf q/k/v"), &qkv, &upstream, leaf);

                // One operand in all three roles: the v → q → k fan-in order.
                let x = [wave(4, &[rows, d])];
                let shared = |g: &mut Graph, p: &[Var], attend: Attend| {
                    attend(g, p[0], p[0], p[0], batch, scale)
                };
                assert_recordings_agree(&format!("{what}, shared q = k = v"), &x, &upstream, shared);

                // The projected block.
                let block = [
                    wave(5, &[rows, d]),
                    wave(6, &[d, d]),
                    wave(7, &[d, d]),
                    wave(8, &[d, d]),
                    wave(10, &[d, d]),
                ];
                assert_recordings_agree(
                    &format!("{what}, projected block"),
                    &block,
                    &upstream,
                    projected_block(batch),
                );
            }
        }
    }
}

#[test]
fn zero_rows_and_negative_zeros_upstream_leave_parameter_gradients_bit_equal() {
    // An upstream gradient with whole zero rows and −0.0 entries — what a
    // compacted head's scatter and a dropout mask hand the last block.
    // The per-sample gathers of the composed and stacked recordings pass
    // every gradient through `0.0 + g`, which turns a −0.0 into +0.0; the
    // batch node writes dq / dk / dv in place. So a *leaf* q / k / v may
    // differ in the sign of a zero and in nothing else, and everything
    // behind a projection — a product folded from +0.0 — must not differ
    // at all.
    let (batch, n, d) = (3, 5, 8);
    let rows = batch * n;
    let mut upstream = wave(11, &[rows, d]);
    for (i, v) in upstream.data_mut().iter_mut().enumerate() {
        let row = i / d;
        if row % 4 == 1 || row == rows - 1 {
            *v = 0.0;
        } else if i % 3 == 0 {
            *v = -0.0;
        }
    }
    let scale = 1.0 / (d as f32).sqrt();

    let qkv = [wave(1, &[rows, d]), wave(2, &[rows, d]), wave(3, &[rows, d])];
    let leaf = |g: &mut Graph, p: &[Var], attend: Attend| attend(g, p[0], p[1], p[2], batch, scale);
    compare_recordings(&RECORDINGS, "zero-row upstream, leaf q/k/v", &qkv, &upstream, leaf, |a, b| {
        a == b || (f32::from_bits(a) == 0.0 && f32::from_bits(b) == 0.0)
    });

    let block = [
        wave(5, &[rows, d]),
        wave(6, &[d, d]),
        wave(7, &[d, d]),
        wave(8, &[d, d]),
        wave(10, &[d, d]),
    ];
    assert_recordings_agree("zero-row upstream, projected block", &block, &upstream, projected_block(batch));
}

// ---- causal_attention_windows ----------------------------------------------
//
// Windows that query only their last rows, the shape a training shard's
// shared padding gives: window 0 queries all `n` rows, every other window
// its last `n − pads` rows. Three recordings must agree to the bit: the
// windows builder on the fast tier (one node over the row kernels), on
// the reference tier (per-window chains with zeroed leading queries), and
// the definition on the fast tier — the square batch node over the
// windows with the unqueried rows' queries zeroed, then the queried rows.

/// How a build turns `(Σ keep, d)` queries and `(keep.len()·n, d)`
/// keys/values into the attention output.
type Windowed = fn(&mut Graph, Var, Var, Var, &[usize], f32) -> Var;

fn windows_node(g: &mut Graph, q: Var, k: Var, v: Var, keep: &[usize], scale: f32) -> Var {
    g.causal_attention_windows(q, k, v, keep, scale).unwrap()
}

fn zero_padded_square_windows(g: &mut Graph, q: Var, k: Var, v: Var, keep: &[usize], scale: f32) -> Var {
    let (rows, d) = (g.value(k).dims()[0], g.value(k).dims()[1]);
    let n = rows / keep.len();
    let (mut parts, mut kept, mut first) = (Vec::new(), Vec::new(), 0);
    for (s, &r) in keep.iter().enumerate() {
        if r < n {
            parts.push(g.constant(Tensor::zeros(&[n - r, d])));
        }
        parts.push(g.gather_rows(q, &(first..first + r).collect::<Vec<_>>()).unwrap());
        first += r;
        kept.extend(s * n + n - r..(s + 1) * n);
    }
    let q_full = g.concat_rows(&parts).unwrap();
    let all = g.causal_attention_batch(q_full, k, v, keep.len(), scale).unwrap();
    g.gather_rows(all, &kept).unwrap()
}

const WINDOW_RECORDINGS: [(&str, KernelTier, Windowed); 3] = [
    ("windows node, fast tier", KernelTier::Fast, windows_node),
    ("windows builder, reference tier", KernelTier::Reference, windows_node),
    ("zero-padded square windows, fast tier", KernelTier::Fast, zero_padded_square_windows),
];

/// A shard of windows with `pads[s]` leading padding rows each (window 0
/// computes the shared padding): per-window queried rows, and the input
/// row each window row reads.
fn shard(n: usize, pads: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let (mut keep, mut rows) = (Vec::new(), Vec::new());
    for (s, &p) in pads.iter().enumerate() {
        let p = if s == 0 { 0 } else { p };
        let at: usize = keep.iter().sum();
        rows.extend((0..p).chain(at..at + n - p));
        keep.push(n - p);
    }
    (keep, rows)
}

#[test]
fn windowed_attention_recordings_agree_over_the_shape_matrix() {
    for d in [8, 100] {
        for (n, pads) in [
            (1, vec![0]),
            (4, vec![3, 3, 0, 1]),
            (17, vec![16, 0, 9, 16, 1]),
            (50, vec![49, 40, 0, 25, 49, 48]),
        ] {
            let (keep, rows) = shard(n, &pads);
            let kept: usize = keep.iter().sum();
            let what = format!("n = {n}, keep = {keep:?}, d = {d}");
            let scale = 1.0 / (d as f32).sqrt();
            let upstream = wave(9, &[kept, d]);

            // q, k, v as leaves: the gradients are dq / dk / dv themselves.
            let wide = rows.len();
            let qkv = [wave(1, &[kept, d]), wave(2, &[wide, d]), wave(3, &[wide, d])];
            let leaf = |g: &mut Graph, p: &[Var], attend: Windowed| attend(g, p[0], p[1], p[2], &keep, scale);
            let leaf_what = format!("{what}, leaf q/k/v");
            compare_recordings(&WINDOW_RECORDINGS, &leaf_what, &qkv, &upstream, leaf, |a, b| a == b);

            // The block's shape: the queried rows are the input rows, the
            // windows gather keys and values from their projections.
            let block =
                [wave(5, &[kept, d]), wave(6, &[d, d]), wave(7, &[d, d]), wave(8, &[d, d]), wave(10, &[d, d])];
            let gathered = |g: &mut Graph, p: &[Var], attend: Windowed| {
                let q = g.matmul(p[0], p[1]).unwrap();
                let k = g.matmul(p[0], p[2]).unwrap();
                let v = g.matmul(p[0], p[3]).unwrap();
                let kw = g.gather_rows(k, &rows).unwrap();
                let vw = g.gather_rows(v, &rows).unwrap();
                let mixed = attend(g, q, kw, vw, &keep, scale);
                g.matmul(mixed, p[4]).unwrap()
            };
            let what = format!("{what}, gathered block");
            compare_recordings(&WINDOW_RECORDINGS, &what, &block, &upstream, gathered, |a, b| a == b);
        }
    }
}

#[test]
fn full_windows_are_the_batch_node_bit_for_bit() {
    // Every window queried at all n rows: the windows builder records the
    // batch node's values and gradients exactly, on both tiers.
    for tier in [KernelTier::Fast, KernelTier::Reference] {
        for (batch, n, d) in [(1, 1, 8), (3, 5, 8), (8, 17, 100)] {
            let rows = batch * n;
            let qkv = [wave(1, &[rows, d]), wave(2, &[rows, d]), wave(3, &[rows, d])];
            let upstream = wave(9, &[rows, d]);
            let keep = vec![n; batch];
            let scale = 1.0 / (d as f32).sqrt();
            let windows = |g: &mut Graph, p: &[Var], _: ()| windows_node(g, p[0], p[1], p[2], &keep, scale);
            let batched = |g: &mut Graph, p: &[Var], _: ()| batch_node(g, p[0], p[1], p[2], batch, scale);
            assert_eq!(
                record(tier, (), &qkv, &upstream, windows),
                record(tier, (), &qkv, &upstream, batched),
                "tier {}, batch = {batch}, n = {n}, d = {d}",
                tier.name()
            );
        }
    }
}

#[test]
fn windows_builder_rejects_bad_shapes_with_a_shape_mismatch_on_both_tiers() {
    use vsan_autograd::GradError;
    use vsan_tensor::TensorError;
    for tier in [KernelTier::Reference, KernelTier::Fast] {
        let mut g = Graph::with_threads_and_tier(1, tier);
        let kv = g.constant(Tensor::zeros(&[8, 4]));
        let q3 = g.constant(Tensor::zeros(&[3, 4]));
        let narrow = g.constant(Tensor::zeros(&[3, 2]));
        let short = g.constant(Tensor::zeros(&[2, 4]));
        let before = g.len();
        for (what, result) in [
            ("queries past the window", g.causal_attention_windows(q3, short, short, &[3], 0.5)),
            ("a window that queries nothing", g.causal_attention_windows(q3, kv, kv, &[3, 0], 0.5)),
            ("no windows", g.causal_attention_windows(q3, kv, kv, &[], 0.5)),
            ("q rows differ from Σ keep", g.causal_attention_windows(q3, kv, kv, &[2, 2], 0.5)),
            ("rows not a multiple of the windows", g.causal_attention_windows(q3, kv, kv, &[1, 1, 1], 0.5)),
            ("narrow q", g.causal_attention_windows(narrow, kv, kv, &[1, 2], 0.5)),
            ("short v", g.causal_attention_windows(q3, kv, q3, &[1, 2], 0.5)),
        ] {
            assert!(
                matches!(result, Err(GradError::Tensor(TensorError::ShapeMismatch { .. }))),
                "{what} on the {} tier: {result:?}",
                tier.name()
            );
        }
        assert_eq!(g.len(), before, "a rejected call must leave the tape as it was");
        assert!(g.causal_attention_windows(q3, kv, kv, &[1, 2], 0.5).is_ok());
    }
}

#[test]
fn batch_node_passes_the_fast_tier_gradcheck_at_batch_three() {
    let (batch, n, d) = (3, 4, 5);
    let params = [wave(1, &[batch * n, d]), wave(2, &[batch * n, d]), wave(3, &[batch * n, d])];
    let scale = 1.0 / (d as f32).sqrt();
    let build = |g: &mut Graph, vars: &[Var]| {
        let attn = g.causal_attention_batch(vars[0], vars[1], vars[2], batch, scale).unwrap();
        let sq = g.mul(attn, attn).unwrap();
        g.sum_all(sq)
    };
    check_tier_equivalence(&params, build).expect("tiers must agree bitwise");
    check_gradients_tiered(&params, build, 1e-2, 2e-2, KernelTier::Fast)
        .expect("fast-tier batch node vs reference finite differences");
}

#[test]
fn batch_builder_rejects_bad_shapes_with_a_shape_mismatch_on_both_tiers() {
    use vsan_autograd::GradError;
    use vsan_tensor::TensorError;
    for tier in [KernelTier::Reference, KernelTier::Fast] {
        let mut g = Graph::with_threads_and_tier(1, tier);
        let q = g.constant(Tensor::zeros(&[6, 4]));
        let short = g.constant(Tensor::zeros(&[4, 4]));
        let narrow = g.constant(Tensor::zeros(&[6, 3]));
        let before = g.len();
        for (what, result) in [
            ("rows % batch != 0", g.causal_attention_batch(q, q, q, 4, 0.5)),
            ("batch = 0", g.causal_attention_batch(q, q, q, 0, 0.5)),
            ("short k", g.causal_attention_batch(q, short, q, 2, 0.5)),
            ("narrow v", g.causal_attention_batch(q, q, narrow, 2, 0.5)),
        ] {
            assert!(
                matches!(result, Err(GradError::Tensor(TensorError::ShapeMismatch { .. }))),
                "{what} on the {} tier: {result:?}",
                tier.name()
            );
        }
        assert_eq!(g.len(), before, "a rejected call must leave the tape as it was");
        assert!(g.causal_attention_batch(q, q, q, 3, 0.5).is_ok());
    }
}
