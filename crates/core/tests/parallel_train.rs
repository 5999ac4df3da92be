//! Serial-equivalence harness for the deterministic data-parallel trainer.
//!
//! The contract under test (DESIGN.md §7): for a fixed seed, training is
//! **bit-identical for every thread count** — shard boundaries, per-shard
//! RNG streams, and the pairwise-tree gradient reduction are all functions
//! of the batch alone, so `threads` may only change wall-clock time, never
//! a single bit of the parameters or the loss curve.
//!
//! Since PR 9 the contract is two-dimensional: the sweep runs the full
//! **threads × kernel-tier grid** — the reference scalar tape and the
//! fast tiled/fused tier (DESIGN.md §10) must train the same bits as the
//! serial reference baseline in every cell.
//!
//! The thread matrix can be overridden from CI via `VSAN_THREADS_MATRIX`
//! (comma-separated counts, e.g. `VSAN_THREADS_MATRIX=1,2,8`); the default
//! covers serial, even, odd, and threads-greater-than-batch-size cases.
//! CI additionally exports `VSAN_REQUIRE_AVX2=1` on AVX2-capable hosts so
//! a fast tier that silently fell back to non-dispatched kernels (or a
//! build that lost the `target_feature` twins) fails the suite instead of
//! vacuously passing it.

use vsan_core::{Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_models::NeuralConfig;
use vsan_nn::BetaSchedule;
use vsan_tensor::KernelTier;

/// Thread counts to sweep: env override or the default matrix.
fn thread_matrix() -> Vec<usize> {
    match std::env::var("VSAN_THREADS_MATRIX") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .collect(),
        // 1 = inline serial; 2/4 = even pools; 3 = odd; 64 > batch size.
        Err(_) => vec![1, 2, 3, 4, 64],
    }
}

/// Mildly irregular synthetic dataset: overlapping item chains with
/// varying lengths, so batches are ragged-free but shards see different
/// content and the last batch of each epoch is partial.
fn chain_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
    let sequences = (0..users)
        .map(|u| (0..len + u % 3).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    Dataset { name: "chain".into(), num_items, sequences }
}

/// Fingerprint a trained VSAN: per-epoch losses plus every parameter
/// tensor, all as raw bit patterns (no tolerance — the contract is exact).
fn train_fingerprint(
    threads: usize,
    tier: KernelTier,
    cfg: &VsanConfig,
) -> (Vec<u32>, Vec<(String, Vec<u32>)>) {
    // 22 users with batch 16 → one full batch + one partial per epoch;
    // shard size 8 → shards of 8, 8 and 6.
    let ds = chain_dataset(10, 22, 9);
    let users: Vec<usize> = (0..ds.sequences.len()).collect();
    let model =
        Vsan::train(&ds, &users, &cfg.clone().with_threads(threads).with_kernel_tier(tier))
            .unwrap();
    let losses = model.train_losses.iter().map(|l| l.to_bits()).collect();
    let params = model
        .params()
        .iter()
        .map(|(_, name, t)| (name.to_string(), t.data().iter().map(|x| x.to_bits()).collect()))
        .collect();
    (losses, params)
}

fn assert_identical(
    label: &str,
    baseline: &(Vec<u32>, Vec<(String, Vec<u32>)>),
    got: &(Vec<u32>, Vec<(String, Vec<u32>)>),
) {
    assert_eq!(got.0, baseline.0, "per-epoch losses diverged at {label}");
    assert_eq!(got.1.len(), baseline.1.len(), "parameter count differs at {label}");
    for ((name_b, bits_b), (name_g, bits_g)) in baseline.1.iter().zip(&got.1) {
        assert_eq!(name_b, name_g, "parameter order differs at {label}");
        assert_eq!(bits_b, bits_g, "parameter `{name_b}` is not bit-identical at {label}");
    }
}

#[test]
fn vsan_training_is_bit_identical_across_the_thread_tier_grid() {
    // Multi-epoch with the default smoke KL-annealing schedule
    // (LinearAnneal, warmup 20): β varies across the ~12 optimizer steps,
    // so a thread-dependent step counter would show up immediately. The
    // serial reference run is the baseline for *every* other grid cell —
    // thread counts and kernel tiers alike may only change wall-clock.
    let mut cfg = VsanConfig::smoke();
    cfg.base = cfg.base.with_epochs(4);
    assert!(matches!(cfg.beta, BetaSchedule::LinearAnneal { .. }));

    let matrix = thread_matrix();
    let baseline = train_fingerprint(1, KernelTier::Reference, &cfg);
    assert_eq!(baseline.0.len(), 4, "expected one loss per epoch");
    for tier in [KernelTier::Reference, KernelTier::Fast] {
        for &threads in &matrix {
            if threads == 1 && tier == KernelTier::Reference {
                continue; // the baseline itself
            }
            let got = train_fingerprint(threads, tier, &cfg);
            assert_identical(&format!("threads={threads} tier={}", tier.name()), &baseline, &got);
        }
    }
}

#[test]
fn equivalence_holds_with_dropout_and_fixed_beta() {
    // Heavier dropout stresses the per-shard RNG streams (masks are the
    // largest RNG consumers); fixed β checks the no-annealing path too.
    let mut cfg = VsanConfig::smoke().with_beta(BetaSchedule::Fixed(0.1));
    cfg.base = cfg.base.with_epochs(2).with_dropout(0.5).with_seed(123);

    let baseline = train_fingerprint(1, KernelTier::Reference, &cfg);
    for threads in [2, 5] {
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            let got = train_fingerprint(threads, tier, &cfg);
            assert_identical(&format!("threads={threads} tier={}", tier.name()), &baseline, &got);
        }
    }
}

#[test]
fn fast_tier_grid_runs_with_real_simd_dispatch_when_required() {
    // `VSAN_REQUIRE_AVX2=1` (exported by scripts/verify.sh on hosts whose
    // /proc/cpuinfo advertises avx2) turns "the fast tier happened to run
    // scalar bodies" from a silent vacuous pass into a failure: the grid
    // above only proves something about the SIMD twins if the dispatcher
    // actually selected them.
    if std::env::var("VSAN_REQUIRE_AVX2").is_ok_and(|v| v == "1") {
        assert!(
            vsan_tensor::kernel::avx2_supported(),
            "VSAN_REQUIRE_AVX2=1 but AVX2 dispatch is unavailable — the \
             tier grid just ran without exercising the SIMD kernels"
        );
    }
}

#[test]
fn recommendations_from_parallel_training_match_serial() {
    // End-to-end: not just parameters, but the user-facing ranking.
    let ds = chain_dataset(8, 20, 10);
    let users: Vec<usize> = (0..ds.sequences.len()).collect();
    let mut cfg = VsanConfig::smoke();
    cfg.base = cfg.base.with_epochs(3);

    let serial = Vsan::train(&ds, &users, &cfg.clone().with_threads(1)).unwrap();
    let parallel = Vsan::train(&ds, &users, &cfg.clone().with_threads(4)).unwrap();
    for history in [&[1u32, 2, 3][..], &[5, 6][..], &[7][..]] {
        assert_eq!(
            serial.recommend(history, 5).unwrap(),
            parallel.recommend(history, 5).unwrap(),
            "rankings diverged for history {history:?}"
        );
    }
}

#[test]
fn sasrec_baseline_inherits_thread_invariance() {
    // The shared train_epochs driver routes every baseline through the
    // executor; SASRec's loss curve must carry the same exact-bits contract.
    let ds = chain_dataset(9, 18, 8);
    let users: Vec<usize> = (0..ds.sequences.len()).collect();
    let cfg = NeuralConfig::smoke().with_epochs(3);

    let serial = vsan_models::sasrec::SasRec::train(&ds, &users, &cfg.clone().with_threads(1))
        .unwrap()
        .train_losses;
    for threads in [2, 3, 64] {
        let parallel =
            vsan_models::sasrec::SasRec::train(&ds, &users, &cfg.clone().with_threads(threads))
                .unwrap()
                .train_losses;
        let serial_bits: Vec<u32> = serial.iter().map(|l| l.to_bits()).collect();
        let parallel_bits: Vec<u32> = parallel.iter().map(|l| l.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits, "SASRec losses diverged at threads={threads}");
    }
}
