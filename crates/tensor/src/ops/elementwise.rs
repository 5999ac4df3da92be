//! Elementwise binary/unary kernels and fused accumulation helpers.

use crate::kernel::simd_kernel;
use crate::{Result, Tensor, TensorError};

fn check_same(a: &Tensor, b: &Tensor, op: &'static str) -> Result<()> {
    if !a.shape().same_as(b.shape()) {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op,
        });
    }
    Ok(())
}

/// Elementwise `a + b` (identical shapes).
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same(a, b, "add")?;
    let mut out = a.clone();
    for (o, &x) in out.data_mut().iter_mut().zip(b.data()) {
        *o += x;
    }
    Ok(out)
}

/// Elementwise `a - b` (identical shapes).
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same(a, b, "sub")?;
    let mut out = a.clone();
    for (o, &x) in out.data_mut().iter_mut().zip(b.data()) {
        *o -= x;
    }
    Ok(out)
}

/// Elementwise product `a ⊙ b` (identical shapes).
pub fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same(a, b, "hadamard")?;
    let mut out = a.clone();
    for (o, &x) in out.data_mut().iter_mut().zip(b.data()) {
        *o *= x;
    }
    Ok(out)
}

/// Scalar multiple `s · a`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// In-place accumulation `dst += s · src` (identical shapes).
///
/// This is the hot path of the backward pass (gradient accumulation), so it
/// avoids any allocation.
pub fn add_scaled_into(dst: &mut Tensor, src: &Tensor, s: f32) -> Result<()> {
    check_same(dst, src, "add_scaled_into")?;
    for (d, &x) in dst.data_mut().iter_mut().zip(src.data()) {
        *d += s * x;
    }
    Ok(())
}

/// Broadcast-add a row vector `bias` (shape `(cols,)`) to every row of a
/// rank-2 tensor.
pub fn add_row_broadcast(a: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let (rows, cols) = a.shape().as_2d()?;
    if bias.dims() != [cols] {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: bias.dims().to_vec(),
            op: "add_row_broadcast",
        });
    }
    let mut out = a.clone();
    let b = bias.data();
    for r in 0..rows {
        let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
        for (o, &x) in row.iter_mut().zip(b) {
            *o += x;
        }
    }
    Ok(out)
}

/// ReLU activation.
pub fn relu(a: &Tensor) -> Tensor {
    a.map(|x| x.max(0.0))
}

/// Sigmoid activation (numerically stable two-branch form).
pub fn sigmoid(a: &Tensor) -> Tensor {
    a.map(stable_sigmoid)
}

/// Scalar stable sigmoid.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent activation.
pub fn tanh(a: &Tensor) -> Tensor {
    a.map(f32::tanh)
}

/// Elementwise exponential.
pub fn exp(a: &Tensor) -> Tensor {
    a.map(f32::exp)
}

// ---------------------------------------------------------------------------
// `_into` kernels: the same maps over caller buffers.
//
// One name per op, stamped by `simd_kernel!` (DESIGN.md §14): the body runs
// under AVX2 codegen where the CPU has it. Every output element is its own
// expression and the transcendentals stay scalar libm calls — no polynomial
// approximations, no reassociation — so the bits are those of the scalar
// `Tensor` functions above, which the tests below hold these kernels to.
// The slice lengths are checked in release builds too: a short input or
// output would otherwise compute a prefix and say nothing.
// ---------------------------------------------------------------------------

macro_rules! unary_into_kernel {
    ($(#[$doc:meta])* $name:ident, |$x:ident| $expr:expr) => {
        simd_kernel! {
            $(#[$doc])*
            pub fn $name(src: &[f32], out: &mut [f32]) {
                assert_eq!(src.len(), out.len());
                for (o, &$x) in out.iter_mut().zip(src) {
                    *o = $expr;
                }
            }
        }
    };
}

macro_rules! binary_into_kernel {
    ($(#[$doc:meta])* $name:ident, |$x:ident, $y:ident| $expr:expr) => {
        simd_kernel! {
            $(#[$doc])*
            pub fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
                assert_eq!((a.len(), b.len()), (out.len(), out.len()));
                for i in 0..out.len() {
                    let $x = a[i];
                    let $y = b[i];
                    out[i] = $expr;
                }
            }
        }
    };
}

binary_into_kernel!(
    /// `out[i] = a[i] + b[i]` (same fold as [`add`]).
    add_into, |x, y| x + y
);
binary_into_kernel!(
    /// `out[i] = a[i] - b[i]` (same fold as [`sub`]).
    sub_into, |x, y| x - y
);
binary_into_kernel!(
    /// `out[i] = a[i] * b[i]` (same fold as [`hadamard`]; also the dropout
    /// mask application forward and backward).
    hadamard_into, |x, y| x * y
);
binary_into_kernel!(
    /// Sigmoid backward: `out[i] = g[i] * (y[i] * (1 - y[i]))` with `a = g`
    /// (upstream grad) and `b = y` (saved activation) — the exact grouping
    /// of the reference backward loop.
    sigmoid_grad_into, |x, y| x * (y * (1.0 - y))
);
binary_into_kernel!(
    /// Tanh backward: `out[i] = g[i] * (1 - y[i]²)` with `a = g`, `b = y`.
    tanh_grad_into, |x, y| x * (1.0 - y * y)
);
binary_into_kernel!(
    /// ReLU backward: `out[i] = if x[i] <= 0 { 0 } else { g[i] }` with
    /// `a = g`, `b = x` (saved input).
    relu_grad_into, |x, y| if y <= 0.0 { 0.0 } else { x }
);

unary_into_kernel!(
    /// `out[i] = max(src[i], 0)` (same definition as [`relu`]).
    relu_into, |x| x.max(0.0)
);
unary_into_kernel!(
    /// Stable two-branch sigmoid per element (same definition as
    /// [`sigmoid`]; the `exp` stays a scalar libm call).
    sigmoid_into, |x| stable_sigmoid(x)
);
unary_into_kernel!(
    /// `out[i] = tanh(src[i])` (a scalar libm call).
    tanh_into, |x| x.tanh()
);
unary_into_kernel!(
    /// `out[i] = exp(src[i])` (a scalar libm call).
    exp_into, |x| x.exp()
);

simd_kernel! {
    /// `out[i] = src[i] * s` (same order as [`scale`]).
    pub fn scale_into(src: &[f32], s: f32, out: &mut [f32]) {
        assert_eq!(src.len(), out.len());
        for (o, &x) in out.iter_mut().zip(src) {
            *o = x * s;
        }
    }
}

simd_kernel! {
    /// `out[i] = scale * src[i] + shift` (same order as the tape's affine map).
    pub fn affine_into(src: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
        assert_eq!(src.len(), out.len());
        for (o, &x) in out.iter_mut().zip(src) {
            *o = scale * x + shift;
        }
    }
}

simd_kernel! {
    /// Row-broadcast bias add over flat row-major buffers:
    /// `out[r*c + j] = src[r*c + j] + bias[j]` (same fold as
    /// [`add_row_broadcast`]).
    pub fn add_row_broadcast_into(src: &[f32], bias: &[f32], out: &mut [f32], rows: usize, cols: usize) {
        assert_eq!((src.len(), out.len(), bias.len()), (rows * cols, rows * cols, cols));
        for r in 0..rows {
            let s_row = &src[r * cols..(r + 1) * cols];
            let o_row = &mut out[r * cols..(r + 1) * cols];
            for ((o, &x), &b) in o_row.iter_mut().zip(s_row).zip(bias) {
                *o = x + b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn add_sub_hadamard() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(hadamard(&a, &b).unwrap().data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(add(&a, &b).is_err());
        assert!(sub(&a, &b).is_err());
        assert!(hadamard(&a, &b).is_err());
        let mut d = a.clone();
        assert!(add_scaled_into(&mut d, &b, 1.0).is_err());
    }

    #[test]
    fn add_scaled_into_accumulates() {
        let mut d = t(&[1.0, 1.0]);
        add_scaled_into(&mut d, &t(&[2.0, 4.0]), -1.0).unwrap();
        assert_eq!(d.data(), &[-1.0, -3.0]);
    }

    #[test]
    fn row_broadcast_adds_bias_to_every_row() {
        let a = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        let bias = t(&[1.0, 2.0, 3.0]);
        let out = add_row_broadcast(&a, &bias).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
        assert!(add_row_broadcast(&a, &t(&[1.0])).is_err());
    }

    #[test]
    fn activations() {
        let a = t(&[-1.0, 0.0, 2.0]);
        assert_eq!(relu(&a).data(), &[0.0, 0.0, 2.0]);
        let s = sigmoid(&a);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[0] < 0.5 && s.data()[2] > 0.5);
        let th = tanh(&a);
        assert!((th.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(stable_sigmoid(100.0), 1.0);
        assert!(stable_sigmoid(-100.0) >= 0.0);
        assert!(stable_sigmoid(-100.0) < 1e-20);
        assert!(stable_sigmoid(-100.0).is_finite());
    }

    #[test]
    fn scale_and_exp() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(scale(&a, 3.0).data(), &[3.0, -6.0]);
        let e = exp(&t(&[0.0, 1.0]));
        assert!((e.data()[0] - 1.0).abs() < 1e-6);
        assert!((e.data()[1] - std::f32::consts::E).abs() < 1e-5);
    }

    fn awkward_inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
        // Deterministic, sign-mixed, denormal-adjacent values that would
        // expose any reassociation or approximation under vector codegen.
        let a: Vec<f32> = (0..n)
            .map(|i| ((i as f32) * 0.37 - 11.0) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let b: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.11 - 3.0).sin() * 7.5).collect();
        (a, b)
    }

    fn assert_bits_eq(lhs: &[f32], rhs: &[f32], what: &str) {
        assert_eq!(lhs.len(), rhs.len());
        for (i, (l, r)) in lhs.iter().zip(rhs).enumerate() {
            assert_eq!(l.to_bits(), r.to_bits(), "{what} diverged at {i}: {l} vs {r}");
        }
    }

    #[test]
    fn into_kernels_match_the_tensor_reference_bitwise() {
        for n in [1usize, 7, 64, 150, 768] {
            let (av, bv) = awkward_inputs(n);
            let at = Tensor::from_vec(av.clone(), &[n]).unwrap();
            let bt = Tensor::from_vec(bv.clone(), &[n]).unwrap();
            let mut out = vec![0.0f32; n];
            add_into(&av, &bv, &mut out);
            assert_bits_eq(&out, add(&at, &bt).unwrap().data(), "add");
            sub_into(&av, &bv, &mut out);
            assert_bits_eq(&out, sub(&at, &bt).unwrap().data(), "sub");
            hadamard_into(&av, &bv, &mut out);
            assert_bits_eq(&out, hadamard(&at, &bt).unwrap().data(), "hadamard");
            scale_into(&av, -0.73, &mut out);
            assert_bits_eq(&out, scale(&at, -0.73).data(), "scale");
            affine_into(&av, 1.25, -0.5, &mut out);
            assert_bits_eq(&out, at.map(|e| 1.25 * e + -0.5).data(), "affine");
            relu_into(&av, &mut out);
            assert_bits_eq(&out, relu(&at).data(), "relu");
            sigmoid_into(&av, &mut out);
            assert_bits_eq(&out, sigmoid(&at).data(), "sigmoid");
            tanh_into(&av, &mut out);
            assert_bits_eq(&out, tanh(&at).data(), "tanh");
            exp_into(&av, &mut out);
            assert_bits_eq(&out, exp(&at).data(), "exp");
            // Two rows of `n` columns, the second operand as the bias.
            let src = [av.as_slice(), bv.as_slice()].concat();
            let mut out = vec![0.0f32; 2 * n];
            add_row_broadcast_into(&src, &bv, &mut out, 2, n);
            let src_t = Tensor::from_vec(src, &[2, n]).unwrap();
            assert_bits_eq(&out, add_row_broadcast(&src_t, &bt).unwrap().data(), "add_row_broadcast");
        }
    }

    #[test]
    fn grad_kernels_match_the_tape_formulas() {
        let (g, y) = awkward_inputs(40);
        let mut out = vec![0.0f32; 40];
        sigmoid_grad_into(&g, &y, &mut out);
        for i in 0..40 {
            assert_eq!(out[i].to_bits(), (g[i] * (y[i] * (1.0 - y[i]))).to_bits());
        }
        tanh_grad_into(&g, &y, &mut out);
        for i in 0..40 {
            assert_eq!(out[i].to_bits(), (g[i] * (1.0 - y[i] * y[i])).to_bits());
        }
        relu_grad_into(&g, &y, &mut out);
        for i in 0..40 {
            let want = if y[i] <= 0.0 { 0.0f32 } else { g[i] };
            assert_eq!(out[i].to_bits(), want.to_bits());
        }
    }

    // The length contract holds in release builds: a mismatch panics
    // instead of computing a prefix (one case per signature shape and side).
    // The expected message is the stamped body's own `assert_eq!`: a slice
    // index that happens to run out further down does not satisfy these.
    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn unary_kernel_rejects_a_short_input() {
        relu_into(&[1.0; 2], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn unary_kernel_rejects_a_short_output() {
        affine_into(&[1.0; 4], 2.0, 1.0, &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn binary_kernel_rejects_a_short_input() {
        add_into(&[1.0; 4], &[1.0; 2], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn binary_kernel_rejects_a_short_output() {
        add_into(&[1.0; 4], &[1.0; 4], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn row_broadcast_kernel_rejects_a_short_input() {
        add_row_broadcast_into(&[1.0; 6], &[1.0; 2], &mut [0.0; 6], 2, 3);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn row_broadcast_kernel_rejects_a_short_output() {
        add_row_broadcast_into(&[1.0; 6], &[1.0; 3], &mut [0.0; 3], 2, 3);
    }
}
