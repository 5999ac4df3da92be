//! Layer-normalization statistics (Ba et al. 2016), applied per row.
//!
//! The paper applies LayerNorm after both the attention and feed-forward
//! sub-layers of each self-attention block (Eqs. 7, 9, 16). The forward
//! kernel lives here; the autograd layer reuses the cached statistics for
//! the backward pass.

use crate::{Result, Tensor};

/// Cached per-row statistics from a layer-norm forward pass.
#[derive(Debug, Clone)]
pub struct LayerNormStats {
    /// Per-row mean.
    pub mean: Vec<f32>,
    /// Per-row inverse standard deviation `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
}

/// Default epsilon used across the workspace.
pub const LN_EPS: f32 = 1e-5;

/// Normalize each row of a rank-2 tensor to zero mean / unit variance and
/// apply the learned affine transform `gamma ⊙ x̂ + beta`.
///
/// Returns the output along with the cached statistics needed by the
/// backward pass.
pub fn layer_norm_rows(
    x: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Result<(Tensor, LayerNormStats)> {
    let (r, c) = x.shape().as_2d()?;
    assert_eq!(gamma.len(), c, "gamma length must match row width");
    assert_eq!(beta.len(), c, "beta length must match row width");
    let mut out = Tensor::zeros(&[r, c]);
    let mut mean = Vec::with_capacity(r);
    let mut inv_std = Vec::with_capacity(r);
    for i in 0..r {
        let row = &x.data()[i * c..(i + 1) * c];
        let o_row = &mut out.data_mut()[i * c..(i + 1) * c];
        let (m, is) = layer_norm_row(row, gamma, beta, eps, o_row);
        mean.push(m);
        inv_std.push(is);
    }
    Ok((out, LayerNormStats { mean, inv_std }))
}

/// Allocation-free LayerNorm over flat row-major buffers (the inference
/// fast path's variant): normalizes `rows × c` from `x` into `out`.
/// Shares `layer_norm_row` with [`layer_norm_rows`], so the two are
/// bit-identical by construction.
pub fn layer_norm_rows_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    rows: usize,
    c: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), rows * c);
    debug_assert_eq!(out.len(), rows * c);
    debug_assert_eq!(gamma.len(), c);
    debug_assert_eq!(beta.len(), c);
    for i in 0..rows {
        let row = &x[i * c..(i + 1) * c];
        let o_row = &mut out[i * c..(i + 1) * c];
        layer_norm_row(row, gamma, beta, eps, o_row);
    }
}

/// Like [`layer_norm_rows_into`], but also captures the per-row statistics
/// into caller-provided vectors (pushed in row order) so the autograd tape
/// can run the backward pass from them. Shares `layer_norm_row` with
/// both other entry points, so all three are bit-identical by
/// construction.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_rows_stats_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    rows: usize,
    c: usize,
    out: &mut [f32],
    mean: &mut Vec<f32>,
    inv_std: &mut Vec<f32>,
) {
    assert_eq!(gamma.len(), c, "gamma length must match row width");
    assert_eq!(beta.len(), c, "beta length must match row width");
    debug_assert_eq!(x.len(), rows * c);
    debug_assert_eq!(out.len(), rows * c);
    for i in 0..rows {
        let row = &x[i * c..(i + 1) * c];
        let o_row = &mut out[i * c..(i + 1) * c];
        let (m, is) = layer_norm_row(row, gamma, beta, eps, o_row);
        mean.push(m);
        inv_std.push(is);
    }
}

/// Normalize one row; returns `(mean, inv_std)`. The single definition
/// both entry points use — the fixed accumulation order here is part of
/// the workspace-wide bitwise-determinism contract.
#[inline]
fn layer_norm_row(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32, o_row: &mut [f32]) -> (f32, f32) {
    let c = row.len();
    let m: f32 = row.iter().sum::<f32>() / c as f32;
    let var: f32 = row.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / c as f32;
    let is = 1.0 / (var + eps).sqrt();
    for j in 0..c {
        o_row[j] = gamma[j] * (row[j] - m) * is + beta[j];
    }
    (m, is)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_rows_have_zero_mean_unit_var() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]).unwrap();
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        let (y, _) = layer_norm_rows(&x, &gamma, &beta, LN_EPS).unwrap();
        for i in 0..2 {
            let row = y.row(i);
            let m: f32 = row.iter().sum::<f32>() / 4.0;
            let v: f32 = row.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
    }

    #[test]
    fn affine_params_shift_and_scale() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let (plain, _) = layer_norm_rows(&x, &[1.0; 4], &[0.0; 4], LN_EPS).unwrap();
        let (scaled, _) = layer_norm_rows(&x, &[2.0; 4], &[1.0; 4], LN_EPS).unwrap();
        for (p, s) in plain.data().iter().zip(scaled.data()) {
            assert!((s - (2.0 * p + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_row_is_handled_by_eps() {
        let x = Tensor::from_vec(vec![5.0; 4], &[1, 4]).unwrap();
        let (y, stats) = layer_norm_rows(&x, &[1.0; 4], &[0.0; 4], LN_EPS).unwrap();
        assert!(y.all_finite());
        assert!(y.data().iter().all(|&v| v.abs() < 1e-3));
        assert!(stats.inv_std[0].is_finite());
    }

    #[test]
    fn stats_are_cached_per_row() {
        let x = Tensor::from_vec(vec![0.0, 2.0, 100.0, 102.0], &[2, 2]).unwrap();
        let (_, stats) = layer_norm_rows(&x, &[1.0; 2], &[0.0; 2], LN_EPS).unwrap();
        assert!((stats.mean[0] - 1.0).abs() < 1e-6);
        assert!((stats.mean[1] - 101.0).abs() < 1e-5);
        // Same spread → same inv_std.
        assert!((stats.inv_std[0] - stats.inv_std[1]).abs() < 1e-4);
    }
}
