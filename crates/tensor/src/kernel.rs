//! The two choices a kernel call involves, each made in one place
//! (DESIGN.md §10).
//!
//! **Which codegen** — every hot kernel in `ops` is written once and
//! stamped by `simd_kernel!`: one name, whose body runs under AVX2
//! codegen where the CPU has it and under the baseline build elsewhere.
//! The two compilations are the same Rust source with vector lanes only
//! across independent output elements, so they agree bit for bit; no
//! caller picks between them and no second public name reaches the
//! baseline one (the matmul and attention matrix tests do, by inlining
//! the crate-private `tiled_nest` / `attention_rows` bodies).
//!
//! **Which implementation** — only the three dense products (`A·B`,
//! `A·Bᵀ`, `Aᵀ·B`) and causal attention exist twice: the scalar loops of
//! `ops::matmul::reference` (and the tape's composed attention chain),
//! kept unoptimized as the *differential oracle*, and the register-tiled
//! kernels. [`KernelTier`] names that choice and its three product methods
//! are where it is made; `vsan-autograd`'s `Graph::causal_attention_batch`
//! makes the fourth. Bit-identical by construction (tiles cover output
//! dims only, `k` is never split) and by the differential test wall.
//! Nothing reads the environment: training runs the tier its config
//! names, and the reference tier is reached by naming it.

use crate::ops::matmul::{self, reference, transpose_into};
use crate::{parallel, Result, Tensor, TensorError};
use std::sync::OnceLock;

/// Stamps `pub fn name(args) { body }` as a runtime-dispatched kernel: the
/// body as an `#[inline(always)]` function, a twin that inlines it under
/// `#[target_feature(enable = "avx2")]`, and the pick between the two.
/// Attributes (docs, `#[allow]`) land on the public function and cover the
/// nested ones. A body may call other `#[inline(always)]` helpers: they are
/// compiled under whichever twin they are inlined into.
macro_rules! simd_kernel {
    ($(#[$attr:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$attr])*
        pub fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body

            /// # Safety
            /// The CPU must support AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if $crate::kernel::avx2_available() {
                // SAFETY: `avx2` requires only that the CPU executes AVX2
                // instructions, which `avx2_available` has just detected
                // on the CPU running this call; beyond the feature gate it
                // is the safe function `body`.
                return unsafe { avx2($($arg),*) };
            }
            body($($arg),*)
        }
    };
}
pub(crate) use simd_kernel;

/// Which implementation a tape (or plan) runs the dense products and
/// causal attention on.
///
/// Both tiers produce bit-identical results — that is the invariant the
/// differential suites enforce — so the choice is purely about speed
/// versus oracle independence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The original scalar loops: the differential oracle.
    Reference,
    /// The register-tiled kernels.
    Fast,
}

/// `(m, k, n)` of a rank-2 product whose operands must agree on the
/// shared dimension `k`; `a_t` / `b_t` say which operand stores it first.
fn product_dims(
    a: &Tensor,
    b: &Tensor,
    a_t: bool,
    b_t: bool,
    op: &'static str,
) -> Result<(usize, usize, usize)> {
    let (a0, a1) = a.shape().as_2d()?;
    let (b0, b1) = b.shape().as_2d()?;
    let (m, k) = if a_t { (a1, a0) } else { (a0, a1) };
    let (kb, n) = if b_t { (b1, b0) } else { (b0, b1) };
    if k != kb {
        return Err(TensorError::ShapeMismatch { lhs: a.dims().to_vec(), rhs: b.dims().to_vec(), op });
    }
    Ok((m, k, n))
}

impl KernelTier {
    /// Short lowercase name, for report JSON and test labels.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Fast => "fast",
        }
    }

    /// Dense `C = A · B` for rank-2 operands `(m, k) × (k, n) → (m, n)`,
    /// rows split across up to `threads` workers once the product is
    /// large enough to pay for them ([`parallel`]'s row chunking, which
    /// never splits a fold: same bits for every thread count).
    pub fn matmul(self, a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor> {
        let (m, k, n) = product_dims(a, b, false, false, "matmul")?;
        let mut out = Tensor::zeros(&[m, n]);
        let kernel = match self {
            KernelTier::Reference => reference::matmul_into,
            KernelTier::Fast => matmul::matmul_into,
        };
        parallel::row_chunked(kernel, a.data(), b.data(), out.data_mut(), m, k, n, threads);
        Ok(out)
    }

    /// `C = A · Bᵀ` for `(m, k) × (n, k) → (m, n)`: the attention-score
    /// shape (`Q · Kᵀ`) and the `dX = dY · Wᵀ` half of every matmul
    /// backward.
    ///
    /// The fast arm is **transpose-then-tiled**. `A·Bᵀ` is the one dense
    /// shape a vector lane cannot help in place: each output is a single
    /// dot fold over `k`, and lanes within one fold would reassociate the
    /// sum. Materializing `Bᵀ` first (pure data movement — no arithmetic,
    /// no bits at risk) turns the product into the plain `A·(Bᵀ)` shape,
    /// which [`matmul::matmul_into`] tiles and vectorizes along `j`. Each
    /// `c[i][j]` is still one scalar accumulator folded over the *same*
    /// products `a[i][t]·b[j][t]` in the *same* ascending-`t` order as
    /// the reference dot, so the result is bit-identical (enforced by
    /// `blocked_kernel_is_bit_identical_to_naive_fold`); the one `(n, k)`
    /// copy is paid against an `m·k·n` fold.
    pub fn matmul_a_bt(self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k, n) = product_dims(a, b, false, true, "matmul_a_bt")?;
        let mut out = Tensor::zeros(&[m, n]);
        match self {
            KernelTier::Reference => {
                reference::matmul_a_bt_into(a.data(), b.data(), out.data_mut(), m, k, n);
            }
            KernelTier::Fast => {
                let mut bt = vec![0.0f32; k * n];
                transpose_into(b.data(), &mut bt, n, k);
                matmul::matmul_into(a.data(), &bt, out.data_mut(), m, k, n);
            }
        }
        Ok(out)
    }

    /// `C = Aᵀ · B` for `(k, m) × (k, n) → (m, n)` without materializing
    /// `Aᵀ`: the gradient-of-weights shape (`dW = Xᵀ · dY`), hit every
    /// step.
    pub fn matmul_at_b(self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k, n) = product_dims(a, b, true, false, "matmul_at_b")?;
        let mut out = Tensor::zeros(&[m, n]);
        let kernel = match self {
            KernelTier::Reference => reference::matmul_at_b_into,
            KernelTier::Fast => matmul::matmul_at_b_into,
        };
        kernel(a.data(), b.data(), out.data_mut(), m, k, n);
        Ok(out)
    }
}

/// Whether the running CPU supports AVX2, probed once.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Whether the running CPU takes the AVX2 side of every stamped kernel.
/// Exposed so CI can assert the vector codegen was genuinely exercised
/// (`VSAN_REQUIRE_AVX2=1` in the parallel-train matrix): a host without
/// AVX2 still runs every kernel bit-identically, but a gate that silently
/// measured the baseline build would not attest what it claims to.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(KernelTier::Reference.name(), "reference");
        assert_eq!(KernelTier::Fast.name(), "fast");
    }
}
