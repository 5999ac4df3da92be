//! Row-wise softmax kernels, including the causal-masked variant used by
//! the self-attention layers (§IV-B of the paper: links between `Q_i` and
//! `K_j` are prohibited for `j > i`).

use crate::kernel::simd_kernel;
use crate::{Result, Tensor, TensorError};

/// Numerically stable softmax over each row of a rank-2 tensor.
pub fn softmax_rows(a: &Tensor) -> Result<Tensor> {
    let (r, c) = a.shape().as_2d()?;
    let mut out = a.clone();
    for i in 0..r {
        softmax_slice(&mut out.data_mut()[i * c..(i + 1) * c]);
    }
    Ok(out)
}

/// Stable softmax of a mutable slice in place.
#[inline(always)]
pub fn softmax_slice(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    if !max.is_finite() {
        // Entire row is -inf (fully masked): fall back to uniform to avoid NaN.
        let u = 1.0 / row.len().max(1) as f32;
        row.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    row.iter_mut().for_each(|x| *x *= inv);
}

/// Causal-masked softmax for square score matrices.
///
/// Row `i` attends only to columns `j ≤ i`; masked entries come out exactly
/// zero. This implements the attention constraint from SASRec that VSAN
/// inherits in both its inference and generative self-attention layers.
pub fn softmax_rows_masked(scores: &Tensor) -> Result<Tensor> {
    let (r, c) = scores.shape().as_2d()?;
    if r != c {
        return Err(TensorError::ShapeMismatch {
            lhs: scores.dims().to_vec(),
            rhs: scores.dims().to_vec(),
            op: "softmax_rows_masked (square required)",
        });
    }
    let mut out = Tensor::zeros(&[r, c]);
    masked_rows(scores.data(), out.data_mut(), r);
    Ok(out)
}

/// The masked row sequence behind [`softmax_rows_masked`] and
/// [`softmax_rows_masked_into`], compiled under its caller's codegen.
#[inline(always)]
fn masked_rows(scores: &[f32], out: &mut [f32], r: usize) {
    let c = r;
    for i in 0..r {
        let src = &scores[i * c..i * c + i + 1];
        let max = src.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        let dst = &mut out[i * c..(i + 1) * c];
        for j in 0..=i {
            let e = (src[j] - max).exp();
            dst[j] = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for v in dst[..=i].iter_mut() {
            *v *= inv;
        }
        // dst[i+1..] stays zero: future positions carry no weight.
    }
}

// ---------------------------------------------------------------------------
// `_into` kernels: the same row sequences over caller buffers, one name per
// op, stamped by `simd_kernel!` like `ops/elementwise.rs`'s. The max/exp/sum
// folds inside stay strictly sequential (never reassociated); only the copy
// and normalize loops are legal for LLVM to vectorize. Lengths are checked
// in release builds too.
// ---------------------------------------------------------------------------

simd_kernel! {
    /// Row softmax over flat row-major buffers: copies each `src` row into
    /// `out` and applies [`softmax_slice`] — the exact sequence of
    /// [`softmax_rows`] without the output allocation.
    pub fn softmax_rows_into(src: &[f32], out: &mut [f32], rows: usize, c: usize) {
        assert_eq!((src.len(), out.len()), (rows * c, rows * c));
        for i in 0..rows {
            let dst = &mut out[i * c..(i + 1) * c];
            dst.copy_from_slice(&src[i * c..(i + 1) * c]);
            softmax_slice(dst);
        }
    }
}

simd_kernel! {
    /// Causal-masked softmax writing a caller buffer. `out` must be zeroed
    /// (masked entries `j > i` are left untouched and must read exactly 0.0).
    pub fn softmax_rows_masked_into(scores: &[f32], out: &mut [f32], r: usize) {
        assert_eq!((scores.len(), out.len()), (r * r, r * r));
        masked_rows(scores, out, r)
    }
}

simd_kernel! {
    /// Softmax backward over flat buffers: for each row,
    /// `dot = Σ_j y[j]·g[j]` (strictly sequential fold) then
    /// `out[j] = y[j] * (g[j] - dot)` — the exact per-row sequence of the
    /// tape's softmax backward. Covers both the plain and causal-masked
    /// variants (masked positions have `y = 0`, contributing nothing).
    pub fn softmax_grad_into(y: &[f32], g: &[f32], out: &mut [f32], rows: usize, c: usize) {
        assert_eq!((y.len(), g.len(), out.len()), (rows * c, rows * c, rows * c));
        for i in 0..rows {
            let y_row = &y[i * c..(i + 1) * c];
            let g_row = &g[i * c..(i + 1) * c];
            let dot: f32 = y_row.iter().zip(g_row).map(|(a, b)| a * b).sum();
            let o_row = &mut out[i * c..(i + 1) * c];
            for j in 0..c {
                o_row[j] = y_row[j] * (g_row[j] - dot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax_rows(&a).unwrap();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotonic in the logits.
        assert!(s.get2(0, 2) > s.get2(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = a.map(|x| x + 1000.0);
        let sa = softmax_rows(&a).unwrap();
        let sb = softmax_rows(&b).unwrap();
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(sb.all_finite());
    }

    #[test]
    fn causal_mask_zeroes_future() {
        let a = Tensor::from_vec(vec![5.0; 9], &[3, 3]).unwrap();
        let s = softmax_rows_masked(&a).unwrap();
        // Row 0 attends only to itself.
        assert_eq!(s.row(0), &[1.0, 0.0, 0.0]);
        // Row 1 splits between 0 and 1.
        assert!((s.get2(1, 0) - 0.5).abs() < 1e-6);
        assert_eq!(s.get2(1, 2), 0.0);
        // Row 2 uniform over all three.
        for j in 0..3 {
            assert!((s.get2(2, j) - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn causal_mask_requires_square() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(softmax_rows_masked(&a).is_err());
    }

    #[test]
    fn fully_masked_row_falls_back_to_uniform() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_slice(&mut row);
        for v in row {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn into_kernels_match_the_tensor_reference_bitwise() {
        use crate::init;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        for (r, c) in [(1usize, 1usize), (3, 5), (16, 16), (50, 64), (7, 200)] {
            let a = init::randn(&mut rng, &[r, c], 0.0, 3.0);
            let want = softmax_rows(&a).unwrap();
            let mut y = vec![0.0f32; r * c];
            softmax_rows_into(a.data(), &mut y, r, c);
            for (w, got) in want.data().iter().zip(&y) {
                assert_eq!(w.to_bits(), got.to_bits(), "{r}x{c}");
            }
            // Backward against the tape's formula written out: the per-row
            // sequential dot, then y·(g − dot).
            let g = init::randn(&mut rng, &[r, c], 0.0, 1.0);
            let mut dx = vec![0.0f32; r * c];
            softmax_grad_into(&y, g.data(), &mut dx, r, c);
            for ((y_row, g_row), dx_row) in y.chunks(c).zip(g.data().chunks(c)).zip(dx.chunks(c)) {
                let mut dot = 0.0f32;
                for (yv, gv) in y_row.iter().zip(g_row) {
                    dot += yv * gv;
                }
                for ((yv, gv), got) in y_row.iter().zip(g_row).zip(dx_row) {
                    assert_eq!(got.to_bits(), (yv * (gv - dot)).to_bits(), "grad {r}x{c}");
                }
            }
        }
    }

    #[test]
    fn masked_into_matches_the_tensor_entry_points() {
        use crate::init;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 4, 17, 33] {
            let a = init::randn(&mut rng, &[n, n], 0.0, 2.0);
            let want = softmax_rows_masked(&a).unwrap();
            let mut got = vec![0.0f32; n * n];
            softmax_rows_masked_into(a.data(), &mut got, n);
            for (w, g) in want.data().iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits(), "n={n}");
            }
        }
    }

    // The length contract holds in release builds (see `ops/elementwise.rs`).
    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn row_softmax_rejects_a_short_input() {
        softmax_rows_into(&[1.0; 3], &mut [0.0; 6], 2, 3);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn row_softmax_rejects_a_short_output() {
        softmax_grad_into(&[1.0; 6], &[1.0; 6], &mut [0.0; 3], 2, 3);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn masked_softmax_rejects_a_short_input() {
        softmax_rows_masked_into(&[1.0; 2], &mut [0.0; 4], 2);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn masked_softmax_rejects_a_short_output() {
        softmax_rows_masked_into(&[1.0; 4], &mut [0.0; 2], 2);
    }
}
