//! Kernel-tier selection shared by inference and training (DESIGN.md §10).
//!
//! The workspace carries two implementations of every hot kernel:
//!
//! - **Reference** — the original scalar loops (`i-k-j` matmul, composed
//!   attention ops). Obviously correct, kept as the *differential
//!   oracle*: an oracle is only worth having if it is an independent
//!   implementation, so nothing routes the oracle paths onto the
//!   optimized kernels.
//! - **Fast** — the register-tiled, runtime-AVX2-dispatched kernels
//!   (`matmul_into`, `matmul_a_bt_into`, `matmul_at_b_into`, the fused
//!   causal-attention pair). Bit-identical to the reference fold by
//!   construction (tiles cover output dims only, `k` is never split)
//!   and by the differential test wall.
//!
//! Inference picked between the tiers per entry point since PR 5; this
//! module names the choice so the *training* tape can make it too. The
//! process-level pin is `VSAN_DISABLE_FAST_PATH=1` — the same
//! environment toggle that reroutes inference to the graph oracle also
//! forces training onto the reference tier, read once per process.

use std::sync::OnceLock;

/// Which implementation tier a tape (or plan) runs its kernels on.
///
/// Both tiers produce bit-identical results — that is the invariant the
/// differential suites enforce — so the choice is purely about speed
/// versus oracle independence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The original scalar kernels: the differential oracle.
    Reference,
    /// The register-tiled / AVX2-dispatched kernels.
    Fast,
}

impl KernelTier {
    /// Short lowercase name, for report JSON and test labels.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Fast => "fast",
        }
    }
}

/// Whether `VSAN_DISABLE_FAST_PATH=1` pins this process to the
/// reference tier. Read once: the pin is process-level on purpose, so a
/// whole test run (or a whole training job) is rerouted at the same
/// point the production entry points consult.
pub fn fast_path_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var("VSAN_DISABLE_FAST_PATH").map(|v| v == "1").unwrap_or(false)
    })
}

/// The tier training entry points run when the caller did not choose
/// explicitly: [`KernelTier::Fast`] unless the process is pinned by
/// `VSAN_DISABLE_FAST_PATH=1`.
///
/// Explicit selection (e.g. `NeuralConfig::with_kernel_tier` in
/// `vsan-models`) wins over the pin, mirroring how inference's explicit
/// `Vsan::score_items_batch_fast` / `Vsan::score_items_batch_graph`
/// bypass it — that is what lets a single test process compare both
/// tiers regardless of the environment.
pub fn default_train_tier() -> KernelTier {
    if fast_path_disabled() {
        KernelTier::Reference
    } else {
        KernelTier::Fast
    }
}

/// Whether the running CPU dispatches the AVX2 twins of the fast-tier
/// kernels. Exposed so CI can assert the fast tier was genuinely
/// exercised (`VSAN_REQUIRE_AVX2=1` in the parallel-train matrix): a
/// host without AVX2 still runs the fast tier bit-identically, but a
/// gate that silently measured the baseline build would not attest what
/// it claims to.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::ops::matmul::avx2_available()
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

    #[test]
    fn default_tier_respects_the_pin() {
        // The OnceLock reads the real process environment; assert the
        // mapping is consistent with whatever this process was started
        // with (verify.sh runs the suite under both settings).
        let pinned = std::env::var("VSAN_DISABLE_FAST_PATH").map(|v| v == "1").unwrap_or(false);
        assert_eq!(fast_path_disabled(), pinned);
        let want = if pinned { KernelTier::Reference } else { KernelTier::Fast };
        assert_eq!(default_train_tier(), want);
    }
}
