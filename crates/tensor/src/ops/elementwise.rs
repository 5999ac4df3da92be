//! Elementwise binary/unary kernels and fused accumulation helpers.

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

/// `a + s·b` producing a new tensor (the classic axpy).
pub fn axpy(a: &Tensor, b: &Tensor, s: f32) -> Result<Tensor> {
    let mut out = a.clone();
    add_scaled_into(&mut out, b, s)?;
    Ok(out)
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
// `_into` kernel tier: variants writing caller buffers.
//
// Each kernel comes in three pieces, following the `ops/matmul.rs` /
// `softmax_rows_masked_fast` idiom:
//
//   * `<name>_into`       — the scalar reference kernel;
//   * `<name>_into_fast`  — runtime AVX2 dispatcher;
//   * an `unsafe` twin compiled with `target_feature(enable = "avx2")`
//     that calls the *same* `#[inline(always)]` body.
//
// Because both tiers execute one shared per-element definition (and the
// transcendentals stay scalar libm calls — no polynomial approximations,
// no reassociation), the fast tier is bit-identical to the reference by
// construction. LLVM is free to vectorize the legal parts (loads, stores,
// add/mul lanes) under the AVX2 feature. The differential proptest wall in
// `vsan-autograd` enforces the equivalence end to end.
// ---------------------------------------------------------------------------

macro_rules! unary_into_kernel {
    ($(#[$doc:meta])* $name:ident, $fast:ident, $avx2:ident, $body:ident,
     |$x:ident| $expr:expr) => {
        $(#[$doc])*
        pub fn $name(src: &[f32], out: &mut [f32]) {
            $body(src, out)
        }

        /// AVX2-dispatched twin of the scalar kernel — same
        /// `#[inline(always)]` body recompiled under the feature gate, so
        /// results are bit-identical by construction.
        pub fn $fast(src: &[f32], out: &mut [f32]) {
            #[cfg(target_arch = "x86_64")]
            {
                if crate::ops::matmul::avx2_available() {
                    // SAFETY: AVX2 presence checked at runtime.
                    unsafe { $avx2(src, out) };
                    return;
                }
            }
            $body(src, out)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(src: &[f32], out: &mut [f32]) {
            $body(src, out)
        }

        #[inline(always)]
        fn $body(src: &[f32], out: &mut [f32]) {
            debug_assert_eq!(src.len(), out.len());
            for (o, &$x) in out.iter_mut().zip(src) {
                *o = $expr;
            }
        }
    };
}

macro_rules! binary_into_kernel {
    ($(#[$doc:meta])* $name:ident, $fast:ident, $avx2:ident, $body:ident,
     |$x:ident, $y:ident| $expr:expr) => {
        $(#[$doc])*
        pub fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
            $body(a, b, out)
        }

        /// AVX2-dispatched twin of the scalar kernel — same
        /// `#[inline(always)]` body recompiled under the feature gate, so
        /// results are bit-identical by construction.
        pub fn $fast(a: &[f32], b: &[f32], out: &mut [f32]) {
            #[cfg(target_arch = "x86_64")]
            {
                if crate::ops::matmul::avx2_available() {
                    // SAFETY: AVX2 presence checked at runtime.
                    unsafe { $avx2(a, b, out) };
                    return;
                }
            }
            $body(a, b, out)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(a: &[f32], b: &[f32], out: &mut [f32]) {
            $body(a, b, out)
        }

        #[inline(always)]
        fn $body(a: &[f32], b: &[f32], out: &mut [f32]) {
            debug_assert_eq!(a.len(), b.len());
            debug_assert_eq!(a.len(), out.len());
            for i in 0..out.len() {
                let $x = a[i];
                let $y = b[i];
                out[i] = $expr;
            }
        }
    };
}

binary_into_kernel!(
    /// `out[i] = a[i] + b[i]` (same fold as [`add`]).
    add_into, add_into_fast, add_into_avx2, add_into_body, |x, y| x + y
);
binary_into_kernel!(
    /// `out[i] = a[i] - b[i]` (same fold as [`sub`]).
    sub_into, sub_into_fast, sub_into_avx2, sub_into_body, |x, y| x - y
);
binary_into_kernel!(
    /// `out[i] = a[i] * b[i]` (same fold as [`hadamard`]; also the dropout
    /// mask application forward and backward).
    hadamard_into, hadamard_into_fast, hadamard_into_avx2, hadamard_into_body, |x, y| x * y
);
binary_into_kernel!(
    /// Sigmoid backward: `out[i] = g[i] * (y[i] * (1 - y[i]))` with `a = g`
    /// (upstream grad) and `b = y` (saved activation) — the exact grouping
    /// of the reference backward loop.
    sigmoid_grad_into, sigmoid_grad_into_fast, sigmoid_grad_into_avx2, sigmoid_grad_into_body,
    |x, y| x * (y * (1.0 - y))
);
binary_into_kernel!(
    /// Tanh backward: `out[i] = g[i] * (1 - y[i]²)` with `a = g`, `b = y`.
    tanh_grad_into, tanh_grad_into_fast, tanh_grad_into_avx2, tanh_grad_into_body,
    |x, y| x * (1.0 - y * y)
);
binary_into_kernel!(
    /// ReLU backward: `out[i] = if x[i] <= 0 { 0 } else { g[i] }` with
    /// `a = g`, `b = x` (saved input).
    relu_grad_into, relu_grad_into_fast, relu_grad_into_avx2, relu_grad_into_body,
    |x, y| if y <= 0.0 { 0.0 } else { x }
);

unary_into_kernel!(
    /// `out[i] = max(src[i], 0)` (same definition as [`relu`]).
    relu_into, relu_into_fast, relu_into_avx2, relu_into_body, |x| x.max(0.0)
);
unary_into_kernel!(
    /// Stable two-branch sigmoid per element (same definition as
    /// [`sigmoid`]; the `exp` stays a scalar libm call in both tiers).
    sigmoid_into, sigmoid_into_fast, sigmoid_into_avx2, sigmoid_into_body,
    |x| stable_sigmoid(x)
);
unary_into_kernel!(
    /// `out[i] = tanh(src[i])` (scalar libm call in both tiers).
    tanh_into, tanh_into_fast, tanh_into_avx2, tanh_into_body, |x| x.tanh()
);
unary_into_kernel!(
    /// `out[i] = exp(src[i])` (scalar libm call in both tiers).
    exp_into, exp_into_fast, exp_into_avx2, exp_into_body, |x| x.exp()
);

/// `out[i] = src[i] * s` (same order as [`scale`]).
pub fn scale_into(src: &[f32], s: f32, out: &mut [f32]) {
    scale_into_body(src, s, out)
}

/// AVX2-dispatched twin of [`scale_into`] (shared body, identical bits).
pub fn scale_into_fast(src: &[f32], s: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::ops::matmul::avx2_available() {
            // SAFETY: AVX2 presence checked at runtime.
            unsafe { scale_into_avx2(src, s, out) };
            return;
        }
    }
    scale_into_body(src, s, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_into_avx2(src: &[f32], s: f32, out: &mut [f32]) {
    scale_into_body(src, s, out)
}

#[inline(always)]
fn scale_into_body(src: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    for (o, &x) in out.iter_mut().zip(src) {
        *o = x * s;
    }
}

/// `out[i] = scale * src[i] + shift` (same order as the tape's affine map).
pub fn affine_into(src: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    affine_into_body(src, scale, shift, out)
}

/// AVX2-dispatched twin of [`affine_into`] (shared body, identical bits).
pub fn affine_into_fast(src: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::ops::matmul::avx2_available() {
            // SAFETY: AVX2 presence checked at runtime.
            unsafe { affine_into_avx2(src, scale, shift, out) };
            return;
        }
    }
    affine_into_body(src, scale, shift, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn affine_into_avx2(src: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    affine_into_body(src, scale, shift, out)
}

#[inline(always)]
fn affine_into_body(src: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    for (o, &x) in out.iter_mut().zip(src) {
        *o = scale * x + shift;
    }
}

/// Row-broadcast bias add over flat row-major buffers:
/// `out[r*c + j] = src[r*c + j] + bias[j]` (same fold as
/// [`add_row_broadcast`]).
pub fn add_row_broadcast_into(src: &[f32], bias: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    add_row_broadcast_into_body(src, bias, out, rows, cols)
}

/// AVX2-dispatched twin of [`add_row_broadcast_into`] (shared body,
/// identical bits).
pub fn add_row_broadcast_into_fast(
    src: &[f32],
    bias: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::ops::matmul::avx2_available() {
            // SAFETY: AVX2 presence checked at runtime.
            unsafe { add_row_broadcast_into_avx2(src, bias, out, rows, cols) };
            return;
        }
    }
    add_row_broadcast_into_body(src, bias, out, rows, cols)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_row_broadcast_into_avx2(
    src: &[f32],
    bias: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
) {
    add_row_broadcast_into_body(src, bias, out, rows, cols)
}

#[inline(always)]
fn add_row_broadcast_into_body(src: &[f32], bias: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    debug_assert_eq!(bias.len(), cols);
    for r in 0..rows {
        let s_row = &src[r * cols..(r + 1) * cols];
        let o_row = &mut out[r * cols..(r + 1) * cols];
        for ((o, &x), &b) in o_row.iter_mut().zip(s_row).zip(bias) {
            *o = x + b;
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
    fn axpy_accumulates() {
        let a = t(&[1.0, 1.0]);
        let b = t(&[2.0, 4.0]);
        assert_eq!(axpy(&a, &b, 0.5).unwrap().data(), &[2.0, 3.0]);
        let mut d = a.clone();
        add_scaled_into(&mut d, &b, -1.0).unwrap();
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
        // expose any fast-tier reassociation or approximation.
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
        }
    }

    #[test]
    fn fast_tier_is_bit_identical_to_scalar_reference() {
        for n in [1usize, 8, 63, 200, 768] {
            let (av, bv) = awkward_inputs(n);
            let mut r = vec![0.0f32; n];
            let mut f = vec![0.0f32; n];
            macro_rules! check2 {
                ($refk:ident, $fastk:ident) => {
                    $refk(&av, &bv, &mut r);
                    $fastk(&av, &bv, &mut f);
                    assert_bits_eq(&r, &f, stringify!($refk));
                };
            }
            macro_rules! check1 {
                ($refk:ident, $fastk:ident) => {
                    $refk(&av, &mut r);
                    $fastk(&av, &mut f);
                    assert_bits_eq(&r, &f, stringify!($refk));
                };
            }
            check2!(add_into, add_into_fast);
            check2!(sub_into, sub_into_fast);
            check2!(hadamard_into, hadamard_into_fast);
            check2!(sigmoid_grad_into, sigmoid_grad_into_fast);
            check2!(tanh_grad_into, tanh_grad_into_fast);
            check2!(relu_grad_into, relu_grad_into_fast);
            check1!(relu_into, relu_into_fast);
            check1!(sigmoid_into, sigmoid_into_fast);
            check1!(tanh_into, tanh_into_fast);
            check1!(exp_into, exp_into_fast);
            scale_into(&av, 0.125, &mut r);
            scale_into_fast(&av, 0.125, &mut f);
            assert_bits_eq(&r, &f, "scale_into");
            affine_into(&av, -2.5, 0.3, &mut r);
            affine_into_fast(&av, -2.5, 0.3, &mut f);
            assert_bits_eq(&r, &f, "affine_into");
        }
        let (av, bias) = awkward_inputs(6);
        let src: Vec<f32> = av.iter().chain(av.iter()).copied().collect();
        let mut r = vec![0.0f32; 12];
        let mut f = vec![0.0f32; 12];
        add_row_broadcast_into(&src, &bias, &mut r, 2, 6);
        add_row_broadcast_into_fast(&src, &bias, &mut f, 2, 6);
        assert_bits_eq(&r, &f, "add_row_broadcast_into");
        let at = Tensor::from_vec(src.clone(), &[2, 6]).unwrap();
        let bt = Tensor::from_vec(bias.clone(), &[6]).unwrap();
        assert_bits_eq(&r, add_row_broadcast(&at, &bt).unwrap().data(), "add_row_broadcast ref");
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
}
