//! Finite-difference verification of every backward rule on the tape.

use vsan_autograd::gradcheck::{check_default, check_gradients_tiered};
use vsan_autograd::Graph;
use vsan_tensor::{init, KernelTier, Tensor};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn randt(seed: u64, dims: &[usize]) -> Tensor {
    init::randn(&mut StdRng::seed_from_u64(seed), dims, 0.0, 0.8)
}

#[test]
fn grad_add_sub_mul() {
    let a = randt(1, &[3, 4]);
    let b = randt(2, &[3, 4]);
    let r = check_default(&[a, b], |g, v| {
        let s = g.add(v[0], v[1]).unwrap();
        let d = g.sub(s, v[1]).unwrap();
        let m = g.mul(d, v[0]).unwrap();
        g.sum_all(m)
    })
    .unwrap();
    assert!(r.compared > 0);
}

#[test]
fn grad_affine_scale() {
    let a = randt(3, &[2, 5]);
    check_default(&[a], |g, v| {
        let x = g.affine(v[0], 2.5, -1.0);
        let x = g.scale(x, 0.3);
        g.sum_all(x)
    })
    .unwrap();
}

#[test]
fn grad_add_row_broadcast() {
    let x = randt(4, &[4, 3]);
    let b = randt(5, &[3]);
    check_default(&[x, b], |g, v| {
        let y = g.add_row_broadcast(v[0], v[1]).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_matmul_both_sides() {
    let a = randt(6, &[3, 4]);
    let b = randt(7, &[4, 2]);
    check_default(&[a, b], |g, v| {
        let y = g.matmul(v[0], v[1]).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_matmul_a_bt() {
    let a = randt(8, &[3, 5]);
    let b = randt(9, &[4, 5]);
    check_default(&[a, b], |g, v| {
        let y = g.matmul_a_bt(v[0], v[1]).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_activations() {
    let a = randt(10, &[2, 6]);
    check_default(std::slice::from_ref(&a), |g, v| {
        let y = g.relu(v[0]);
        g.sum_all(y)
    })
    .unwrap();
    check_default(std::slice::from_ref(&a), |g, v| {
        let y = g.sigmoid(v[0]);
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
    check_default(std::slice::from_ref(&a), |g, v| {
        let y = g.tanh(v[0]);
        g.sum_all(y)
    })
    .unwrap();
    check_default(&[a], |g, v| {
        let y = g.exp(v[0]);
        g.mean_all(y)
    })
    .unwrap();
}

#[test]
fn grad_softmax_rows() {
    let a = randt(11, &[3, 5]);
    let w = randt(12, &[3, 5]);
    check_default(&[a, w], |g, v| {
        let s = g.softmax_rows(v[0]).unwrap();
        // Weighted sum to make the loss depend on the full distribution.
        let m = g.mul(s, v[1]).unwrap();
        g.sum_all(m)
    })
    .unwrap();
}

#[test]
fn grad_softmax_causal() {
    let a = randt(13, &[4, 4]);
    let w = randt(14, &[4, 4]);
    check_default(&[a, w], |g, v| {
        let s = g.softmax_causal(v[0]).unwrap();
        let m = g.mul(s, v[1]).unwrap();
        g.sum_all(m)
    })
    .unwrap();
}

#[test]
fn grad_layer_norm_all_three_inputs() {
    let x = randt(15, &[4, 6]);
    let gamma = init::rand_uniform(&mut StdRng::seed_from_u64(16), &[6], 0.5, 1.5);
    let beta = randt(17, &[6]);
    let w = randt(18, &[4, 6]);
    check_default(&[x, gamma, beta, w], |g, v| {
        let y = g.layer_norm(v[0], v[1], v[2]).unwrap();
        let m = g.mul(y, v[3]).unwrap();
        g.sum_all(m)
    })
    .unwrap();
}

#[test]
fn grad_gather_rows_scatter_add() {
    let table = randt(19, &[5, 3]);
    // Repeated index 2 exercises accumulation.
    let idx = vec![2usize, 0, 2, 4];
    check_default(&[table], |g, v| {
        let y = g.gather_rows(v[0], &idx).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_concat_rows_and_cols() {
    let a = randt(20, &[2, 3]);
    let b = randt(21, &[4, 3]);
    check_default(&[a, b], |g, v| {
        let y = g.concat_rows(&[v[0], v[1]]).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();

    let a = randt(22, &[3, 2]);
    let b = randt(23, &[3, 4]);
    check_default(&[a, b], |g, v| {
        let y = g.concat_cols(&[v[0], v[1]]).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_reshape_transpose() {
    let a = randt(24, &[2, 6]);
    check_default(&[a], |g, v| {
        let y = g.reshape(v[0], &[3, 4]).unwrap();
        let y = g.transpose(y).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_dropout_fixed_mask() {
    let a = randt(25, &[3, 4]);
    let mask: Vec<f32> = (0..12).map(|i| if i % 3 == 0 { 0.0 } else { 1.5 }).collect();
    check_default(&[a], |g, v| {
        let y = g.dropout(v[0], mask.clone()).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_max_axis0() {
    // Well-separated values so the argmax doesn't flip under perturbation.
    let a = Tensor::from_vec(
        vec![0.1, 5.0, -3.0, 4.0, 0.2, -8.0, 9.0, 0.3, 2.0, -1.0, 0.4, 1.0],
        &[4, 3],
    )
    .unwrap();
    check_default(&[a], |g, v| {
        let y = g.max_axis0(v[0]).unwrap();
        let y = g.mul(y, y).unwrap();
        g.sum_all(y)
    })
    .unwrap();
}

#[test]
fn grad_ce_one_hot_with_padding_rows() {
    let logits = randt(26, &[4, 6]);
    let targets = vec![2usize, usize::MAX, 5, 0];
    check_default(&[logits], |g, v| g.ce_one_hot(v[0], &targets).unwrap()).unwrap();
}

#[test]
fn grad_ce_multi_hot_next_k() {
    let logits = randt(27, &[3, 7]);
    let targets = vec![vec![1usize, 4], vec![], vec![0, 2, 6]];
    check_default(&[logits], |g, v| g.ce_multi_hot(v[0], &targets).unwrap()).unwrap();
}

#[test]
fn grad_kl_std_normal_masked() {
    let mu = randt(28, &[3, 4]);
    let logvar = randt(29, &[3, 4]);
    let mask = vec![true, false, true];
    check_default(&[mu, logvar], |g, v| g.kl_std_normal(v[0], v[1], &mask).unwrap()).unwrap();
}

#[test]
fn grad_composed_attention_block() {
    // A miniature single-head causal attention block end-to-end, the exact
    // composition used by the inference/generative self-attention layers.
    let x = randt(30, &[4, 5]);
    let wq = randt(31, &[5, 5]);
    let wk = randt(32, &[5, 5]);
    let wv = randt(33, &[5, 5]);
    check_default(&[x, wq, wk, wv], |g, v| {
        let q = g.matmul(v[0], v[1]).unwrap();
        let k = g.matmul(v[0], v[2]).unwrap();
        let val = g.matmul(v[0], v[3]).unwrap();
        let scores = g.matmul_a_bt(q, k).unwrap();
        let scaled = g.scale(scores, 1.0 / (5.0f32).sqrt());
        let attn = g.softmax_causal(scaled).unwrap();
        let out = g.matmul(attn, val).unwrap();
        let out = g.add(out, v[0]).unwrap(); // residual
        let sq = g.mul(out, out).unwrap();
        g.sum_all(sq)
    })
    .unwrap();
}

#[test]
fn grad_composed_reparameterized_elbo() {
    // mu/logvar heads + reparameterization + KL + CE — the VSAN loss shape.
    let h = randt(34, &[3, 4]);
    let w_mu = randt(35, &[4, 4]);
    let w_lv = randt(36, &[4, 4]);
    let w_out = randt(37, &[4, 6]);
    let eps = randt(38, &[3, 4]);
    let targets = vec![1usize, 3, usize::MAX];
    let mask = vec![true, true, false];
    check_default(&[h, w_mu, w_lv, w_out], |g, v| {
        let mu = g.matmul(v[0], v[1]).unwrap();
        let logvar = g.matmul(v[0], v[2]).unwrap();
        let half_lv = g.scale(logvar, 0.5);
        let sigma = g.exp(half_lv);
        let e = g.constant(eps.clone());
        let noise = g.mul(sigma, e).unwrap();
        let z = g.add(mu, noise).unwrap();
        let logits = g.matmul(z, v[3]).unwrap();
        let ce = g.ce_one_hot(logits, &targets).unwrap();
        let kl = g.kl_std_normal(mu, logvar, &mask).unwrap();
        let kl_scaled = g.scale(kl, 0.7); // β
        g.add(ce, kl_scaled).unwrap()
    })
    .unwrap();
}

#[test]
fn grad_full_vsan_loss_end_to_end() {
    // The complete VSAN training objective in miniature, one op graph from
    // embedded inputs to the β-weighted ELBO: causal self-attention with
    // residual + LayerNorm (inference layer, Eqs. 5–9), μ/log σ² heads with
    // reparameterized z = μ + σ·ε under a frozen ε (Eqs. 11–13), a second
    // causal attention stack over z (generative layer, Eqs. 15–16), next-k
    // multi-hot cross-entropy (Eq. 18) plus β · masked diagonal-Gaussian KL
    // (Eq. 20). Individual-op checks above can all pass while a composed
    // backward rule mis-accumulates through the reused μ/log σ² nodes; this
    // pins the exact composition `Vsan::train` differentiates.
    let n = 4; // sequence length
    let d = 4; // model width
    let vocab = 6;
    let x = randt(40, &[n, d]);
    let wq = randt(41, &[d, d]);
    let wk = randt(42, &[d, d]);
    let wv = randt(43, &[d, d]);
    let gamma = init::rand_uniform(&mut StdRng::seed_from_u64(44), &[d], 0.5, 1.5);
    let beta_ln = randt(45, &[d]);
    let w_mu = randt(46, &[d, d]);
    let w_lv = randt(47, &[d, d]);
    let gq = randt(48, &[d, d]);
    let gk = randt(49, &[d, d]);
    let gv = randt(50, &[d, d]);
    let w_out = randt(51, &[d, vocab]);
    let eps = randt(52, &[n, d]);
    // Next-k targets with an empty (padding) row, plus a masked KL row.
    let targets = vec![vec![1usize, 4], vec![], vec![0, 2], vec![5]];
    let kl_mask = vec![true, false, true, true];
    let beta = 0.37f32;

    let params = [x, wq, wk, wv, gamma, beta_ln, w_mu, w_lv, gq, gk, gv, w_out];
    check_default(&params, |g, v| {
        let scale = 1.0 / (d as f32).sqrt();
        // Inference self-attention block.
        let q = g.matmul(v[0], v[1]).unwrap();
        let k = g.matmul(v[0], v[2]).unwrap();
        let val = g.matmul(v[0], v[3]).unwrap();
        let scores = g.matmul_a_bt(q, k).unwrap();
        let scaled = g.scale(scores, scale);
        let attn = g.softmax_causal(scaled).unwrap();
        let ctx = g.matmul(attn, val).unwrap();
        let res = g.add(ctx, v[0]).unwrap();
        let h = g.layer_norm(res, v[4], v[5]).unwrap();
        // Variational heads + reparameterization with frozen ε.
        let mu = g.matmul(h, v[6]).unwrap();
        let logvar = g.matmul(h, v[7]).unwrap();
        let half_lv = g.scale(logvar, 0.5);
        let sigma = g.exp(half_lv);
        let e = g.constant(eps.clone());
        let noise = g.mul(sigma, e).unwrap();
        let z = g.add(mu, noise).unwrap();
        // Generative self-attention block over z.
        let q2 = g.matmul(z, v[8]).unwrap();
        let k2 = g.matmul(z, v[9]).unwrap();
        let v2 = g.matmul(z, v[10]).unwrap();
        let scores2 = g.matmul_a_bt(q2, k2).unwrap();
        let scaled2 = g.scale(scores2, scale);
        let attn2 = g.softmax_causal(scaled2).unwrap();
        let ctx2 = g.matmul(attn2, v2).unwrap();
        let gen = g.add(ctx2, z).unwrap();
        // Prediction + β-weighted ELBO.
        let logits = g.matmul(gen, v[11]).unwrap();
        let ce = g.ce_multi_hot(logits, &targets).unwrap();
        let kl = g.kl_std_normal(mu, logvar, &kl_mask).unwrap();
        let kl_scaled = g.scale(kl, beta);
        g.add(ce, kl_scaled).unwrap()
    })
    .unwrap();
}

#[test]
fn grad_fused_causal_attention_on_both_tiers() {
    // The tier-dispatched attention entry point: on the reference tier it
    // composes the four tape ops; on the fast tier it records the fused
    // `CausalAttention` node. Both analytic passes must agree with central
    // finite differences (the bitwise cross-tier check lives in
    // tier_differential.rs).
    let q = randt(60, &[5, 3]);
    let k = randt(61, &[5, 3]);
    let v = randt(62, &[5, 3]);
    for tier in [KernelTier::Reference, KernelTier::Fast] {
        check_gradients_tiered(
            &[q.clone(), k.clone(), v.clone()],
            |g, vars| {
                let attn = g.causal_attention(vars[0], vars[1], vars[2], 0.6).unwrap();
                let sq = g.mul(attn, attn).unwrap();
                g.sum_all(sq)
            },
            1e-2,
            2e-2,
            tier,
        )
        .unwrap_or_else(|e| panic!("tier {}: {e}", tier.name()));
    }
}

#[test]
fn grad_windowed_causal_attention_on_both_tiers() {
    // Windows queried at their last rows only (a shard's shared padding:
    // window 0 all rows, the others their real rows): both tiers'
    // analytic passes agree with central finite differences, one-row
    // queries included.
    let (n, d) = (4, 3);
    for keep in [vec![4, 1, 3], vec![4, 2, 2, 1], vec![1, 1]] {
        let q = randt(63, &[keep.iter().sum(), d]);
        let k = randt(64, &[keep.len() * n, d]);
        let v = randt(65, &[keep.len() * n, d]);
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            check_gradients_tiered(
                &[q.clone(), k.clone(), v.clone()],
                |g, vars| {
                    let attn = g.causal_attention_windows(vars[0], vars[1], vars[2], &keep, 0.6).unwrap();
                    let sq = g.mul(attn, attn).unwrap();
                    g.sum_all(sq)
                },
                1e-2,
                2e-2,
                tier,
            )
            .unwrap_or_else(|e| panic!("keep {keep:?}, tier {}: {e}", tier.name()));
        }
    }
}

#[test]
fn grad_full_vsan_loss_end_to_end_fast_tier() {
    // `grad_full_vsan_loss_end_to_end` rebuilt through the fused
    // `causal_attention` entry point, with the analytic pass on the *fast*
    // tier. The numeric side of the checker always runs the reference
    // tier, so this validates the fused training kernels' gradients
    // against an independent forward implementation.
    let n = 4;
    let d = 4;
    let vocab = 6;
    let x = randt(40, &[n, d]);
    let wq = randt(41, &[d, d]);
    let wk = randt(42, &[d, d]);
    let wv = randt(43, &[d, d]);
    let gamma = init::rand_uniform(&mut StdRng::seed_from_u64(44), &[d], 0.5, 1.5);
    let beta_ln = randt(45, &[d]);
    let w_mu = randt(46, &[d, d]);
    let w_lv = randt(47, &[d, d]);
    let gq = randt(48, &[d, d]);
    let gk = randt(49, &[d, d]);
    let gv = randt(50, &[d, d]);
    let w_out = randt(51, &[d, vocab]);
    let eps = randt(52, &[n, d]);
    let targets = vec![vec![1usize, 4], vec![], vec![0, 2], vec![5]];
    let kl_mask = vec![true, false, true, true];
    let beta = 0.37f32;

    let params = [x, wq, wk, wv, gamma, beta_ln, w_mu, w_lv, gq, gk, gv, w_out];
    check_gradients_tiered(
        &params,
        |g, v| {
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
        },
        1e-2,
        2e-2,
        KernelTier::Fast,
    )
    .unwrap();
}

#[test]
fn constants_receive_no_gradient() {
    let a = randt(39, &[2, 2]);
    let mut g = Graph::new();
    let p = g.param(a.clone(), 0);
    let c = g.constant(Tensor::ones(&[2, 2]));
    let y = g.mul(p, c).unwrap();
    let loss = g.sum_all(y);
    let grads = g.backward(loss).unwrap();
    assert!(grads.param_grad(0).is_some());
    assert_eq!(grads.len(), 1);
}

#[test]
fn fan_out_accumulates() {
    // x used twice: d/dx (x*x + 3x) = 2x + 3.
    let a = Tensor::from_vec(vec![2.0], &[1, 1]).unwrap();
    let mut g = Graph::new();
    let x = g.param(a, 0);
    let sq = g.mul(x, x).unwrap();
    let three_x = g.scale(x, 3.0);
    let s = g.add(sq, three_x).unwrap();
    let loss = g.sum_all(s);
    let grads = g.backward(loss).unwrap();
    assert!((grads.param_grad(0).unwrap().data()[0] - 7.0).abs() < 1e-5);
}

#[test]
fn non_scalar_loss_is_rejected() {
    let mut g = Graph::new();
    let x = g.param(Tensor::ones(&[2, 2]), 0);
    assert!(g.backward(x).is_err());
}

#[test]
fn gradient_clipping_bounds_global_norm() {
    let mut g = Graph::new();
    let x = g.param(Tensor::full(&[100], 10.0), 0);
    let y = g.mul(x, x).unwrap();
    let loss = g.sum_all(y);
    let mut grads = g.backward(loss).unwrap();
    assert!(grads.global_norm() > 5.0);
    grads.clip_global_norm(5.0);
    assert!((grads.global_norm() - 5.0).abs() < 1e-3);
}
