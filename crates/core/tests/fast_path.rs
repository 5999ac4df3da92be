//! Differential property suite: the graph-free inference fast path
//! ([`vsan_core::infer`]) must produce **bit-identical** logits to the
//! autograd graph path for every configuration the model can take.
//!
//! The fixture test (`tests/golden_logits.rs`) pins one trained
//! configuration across commits; this suite samples the configuration
//! space — width, sequence length, block counts, the latent/FFN/tied
//! ablation axes, thread counts, and batch shapes including `b = 1`
//! and empty histories — on freshly initialized (seeded, untrained)
//! models. Equality is `f32::to_bits`, no tolerance: the fast path's
//! contract is *the same floats*, not close floats (DESIGN.md §10).

use proptest::prelude::*;
use vsan_core::{Vsan, VsanConfig};

/// Build an untrained model for one sampled point of the config space.
#[allow(clippy::too_many_arguments)]
fn build_model(
    dim: usize,
    n: usize,
    vocab: usize,
    h1: usize,
    h2: usize,
    flags: u8,
    threads: usize,
    seed: u64,
) -> Vsan {
    let mut cfg = VsanConfig::smoke().with_blocks(h1, h2).with_seed(seed).with_threads(threads);
    cfg.base.dim = dim;
    cfg.base.max_seq_len = n;
    cfg.use_latent = flags & 1 != 0;
    cfg.infer_ffn = flags & 2 != 0;
    cfg.gene_ffn = flags & 4 != 0;
    cfg.tie_prediction = flags & 8 != 0;
    Vsan::init(vocab, &cfg)
}

/// Clamp sampled raw ids into the valid item range `1..vocab`.
fn clamp_histories(raw: &[Vec<u32>], vocab: usize) -> Vec<Vec<u32>> {
    raw.iter()
        .map(|h| h.iter().map(|&r| 1 + r % (vocab as u32 - 1)).collect())
        .collect()
}

proptest! {
    #[test]
    fn fast_path_matches_graph_path_bit_for_bit(
        dim in 2usize..14,
        n in 1usize..9,
        vocab in 3usize..24,
        h1 in 0usize..3,
        h2 in 0usize..3,
        flags in 0u8..16,
        threads in 1usize..3,
        seed in 0u64..10_000,
        raw_histories in collection::vec(collection::vec(0u32..4096, 0..20), 1..5),
    ) {
        let model = build_model(dim, n, vocab, h1, h2, flags, threads, seed);
        let histories = clamp_histories(&raw_histories, vocab);
        let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();

        let fast = model.try_score_items_batch(&refs).expect("fast path");
        let graph = model.score_items_batch_graph(&refs).expect("graph path");

        prop_assert_eq!(fast.len(), graph.len());
        for (i, (f_row, g_row)) in fast.iter().zip(&graph).enumerate() {
            prop_assert_eq!(f_row.len(), g_row.len());
            for (j, (f, g)) in f_row.iter().zip(g_row).enumerate() {
                prop_assert!(
                    f.to_bits() == g.to_bits(),
                    "logit [{}][{}] diverged: fast {} ({:08x}) vs graph {} ({:08x}) \
                     at dim={} n={} vocab={} h1={} h2={} flags={:04b} threads={}",
                    i, j, f, f.to_bits(), g, g.to_bits(),
                    dim, n, vocab, h1, h2, flags, threads
                );
            }
        }
    }

    #[test]
    fn single_fold_in_matches_batched_fast_path(
        dim in 2usize..10,
        n in 1usize..7,
        vocab in 3usize..16,
        seed in 0u64..10_000,
        raw_histories in collection::vec(collection::vec(0u32..4096, 0..14), 2..5),
    ) {
        // Batching along the row axis must not change any bits either:
        // scoring b histories at once equals b independent b=1 calls.
        let model = build_model(dim, n, vocab, 1, 1, 0b0111, 1, seed);
        let histories = clamp_histories(&raw_histories, vocab);
        let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();
        let batched = model.try_score_items_batch(&refs).expect("batched");
        for (history, row) in refs.iter().zip(&batched) {
            let single = model.try_score_items_batch(&[history]).expect("b=1");
            for (f, g) in single[0].iter().zip(row) {
                prop_assert!(f.to_bits() == g.to_bits(), "batch-size dependence in fast path");
            }
        }
    }
}

/// The error paths must agree too: an out-of-vocabulary id fails on
/// both forwards (no path silently gathers garbage).
#[test]
fn both_paths_reject_out_of_vocab_ids() {
    let model = build_model(6, 4, 8, 1, 1, 0b0111, 1, 7);
    let bad: &[&[u32]] = &[&[1, 2, 300]];
    assert!(model.try_score_items_batch(bad).is_err(), "fast path must reject id 300");
    assert!(model.score_items_batch_graph(bad).is_err(), "graph path must reject id 300");
}
