//! Differential suite: clustered retrieval vs the exact brute-force
//! oracle ([`vsan_core::retrieval`], DESIGN.md §12).
//!
//! The clustered index is an *approximation with an exactness mode*:
//! with `nprobe = num_clusters` every cluster is visited, the survivor
//! re-rank runs the same IEEE fold as the exact prediction matmul, and
//! the shared `(score desc, id asc)` comparator makes selection a pure
//! function of the candidate set — so the full-probe clustered top-k
//! must equal the exact top-k **bit for bit and in order**, on every
//! configuration, tied or untied. Smaller probes may drop items but
//! recall is monotone in `nprobe` (the probed-cluster list is a prefix
//! of the larger probe's), result lengths never differ, and both paths
//! reject the same errors. The clustered side is reached through
//! `try_recommend_batch` on a model whose index is built, the exact side
//! through `recommend_batch_exact` by name.

use std::collections::HashSet;

use proptest::prelude::*;
use vsan_core::{ClusteredConfig, Retrieval, Vsan, VsanConfig};

/// Build an untrained model for one sampled point of the config space.
#[allow(clippy::too_many_arguments)]
fn build_model(
    dim: usize,
    n: usize,
    vocab: usize,
    h1: usize,
    h2: usize,
    flags: u8,
    seed: u64,
) -> Vsan {
    let mut cfg = VsanConfig::smoke().with_blocks(h1, h2).with_seed(seed).with_threads(1);
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

/// A small, fast index config with every knob pinned.
fn cluster_cfg(num_clusters: usize, nprobe: usize, seed: u64) -> ClusteredConfig {
    ClusteredConfig { num_clusters, nprobe, kmeans_iters: 2, train_sample: 4096, seed }
}

proptest! {
    /// The exactness mode: `nprobe = num_clusters` must reproduce the
    /// oracle's ranking bit for bit and in order, across widths, block
    /// counts, the ablation flags (bit 3 = tied prediction, exercising
    /// both index layouts), cluster counts, and batch shapes.
    #[test]
    fn full_probe_equals_exact_in_order(
        dim in 2usize..10,
        n in 1usize..7,
        vocab in 4usize..40,
        h1 in 0usize..2,
        h2 in 0usize..2,
        flags in 0u8..16,
        nc in 1usize..8,
        k in 1usize..12,
        seed in 0u64..10_000,
        raw_histories in collection::vec(collection::vec(0u32..4096, 0..12), 1..4),
    ) {
        let mut model = build_model(dim, n, vocab, h1, h2, flags, seed);
        model.set_retrieval(Retrieval::Clustered(cluster_cfg(nc, nc, seed)));
        let histories = clamp_histories(&raw_histories, vocab);
        let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();

        let exact = model.recommend_batch_exact(&refs, k).expect("exact oracle");
        let clustered = model.try_recommend_batch(&refs, k).expect("clustered path");
        prop_assert_eq!(
            &exact, &clustered,
            "full probe diverged at dim={} n={} vocab={} h1={} h2={} flags={:04b} nc={}",
            dim, n, vocab, h1, h2, flags, nc
        );
    }

    /// Structural recall property: the probed-cluster list under the
    /// shared total order is a prefix of any larger probe's list, so
    /// oracle hits can only be gained as `nprobe` grows — never lost.
    /// (A displaced candidate is only displaced by a higher-ranked one,
    /// which itself belongs to the oracle top-k.)
    #[test]
    fn recall_is_monotone_in_nprobe(
        dim in 2usize..8,
        vocab in 8usize..48,
        nc in 2usize..8,
        k in 1usize..10,
        seed in 0u64..10_000,
        raw_history in collection::vec(0u32..4096, 0..10),
    ) {
        let mut model = build_model(dim, 4, vocab, 1, 1, 0b1000, seed);
        model.set_retrieval(Retrieval::Clustered(cluster_cfg(nc, nc, seed)));
        let history = clamp_histories(&[raw_history], vocab).pop().unwrap();
        let refs: Vec<&[u32]> = vec![&history];

        let index = model.retrieval_index().expect("index built");
        let hidden = {
            let mut ws = model.workspace(1);
            model.try_last_hidden_batch_with(&refs, &mut ws).expect("hidden row")
        };
        let seen: HashSet<u32> = history.iter().copied().collect();
        let oracle: HashSet<u32> = index
            .query_with_probe(&hidden, k, &seen, index.num_clusters())
            .into_iter()
            .collect();

        let mut prev_hits = 0usize;
        for np in 1..=index.num_clusters() {
            let got = index.query_with_probe(&hidden, k, &seen, np);
            let hits = got.iter().filter(|item| oracle.contains(item)).count();
            prop_assert!(
                hits >= prev_hits,
                "recall dropped from {} to {} when nprobe grew to {} (of {})",
                prev_hits, hits, np, index.num_clusters()
            );
            prev_hits = hits;
        }
        prop_assert_eq!(prev_hits, oracle.len(), "full probe must recover the oracle set");
    }

    /// Result-length parity: the clustered path keeps probing past
    /// `nprobe` until it holds enough candidates, so even `nprobe = 1`
    /// returns exactly as many items as the oracle — including the
    /// `k > N` regime where both exhaust the catalog.
    #[test]
    fn result_lengths_match_at_any_probe(
        dim in 2usize..8,
        vocab in 4usize..32,
        nc in 1usize..8,
        np in 1usize..8,
        k in 1usize..64,
        seed in 0u64..10_000,
        raw_history in collection::vec(0u32..4096, 0..10),
    ) {
        let mut model = build_model(dim, 4, vocab, 1, 1, 0b1000, seed);
        model.set_retrieval(Retrieval::Clustered(cluster_cfg(nc, np, seed)));
        let history = clamp_histories(&[raw_history], vocab).pop().unwrap();
        let refs: Vec<&[u32]> = vec![&history];

        let exact = model.recommend_batch_exact(&refs, k).expect("exact oracle");
        let clustered = model.try_recommend_batch(&refs, k).expect("clustered path");
        prop_assert_eq!(exact[0].len(), clustered[0].len());
    }
}

/// Numeric recall floor on a *structured* catalog (topic-clustered
/// embeddings, like the benchmark's `million_item` preset): probing a
/// fifth of the clusters must recover nearly all of the oracle top-10.
/// Random-Gaussian catalogs get no such floor — their clusters carry
/// no signal, which is what the monotonicity property above is for.
#[test]
fn structured_catalog_recall_floor() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (num_items, dim, topics) = (2_000usize, 16usize, 16usize);
    let mut model = build_model(dim, 4, num_items + 1, 1, 1, 0b1000, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let mut centers = vec![0.0f32; topics * dim];
    for c in centers.iter_mut() {
        *c = rng.gen_range(-1.0..1.0f32);
    }
    let mut table = vec![0.0f32; (num_items + 1) * dim];
    for item in 1..=num_items {
        let t = rng.gen_range(0..topics);
        for j in 0..dim {
            table[item * dim + j] = centers[t * dim + j] + rng.gen_range(-0.1..0.1f32);
        }
    }
    let id = model.params_mut().id_of("item_emb").expect("item table");
    model.params_mut().get_mut(id).data_mut().copy_from_slice(&table);
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(40, 8, 5)));

    let histories: Vec<Vec<u32>> =
        (0..16).map(|_| (0..4).map(|_| rng.gen_range(1..=num_items as u32)).collect()).collect();
    let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();
    let exact = model.recommend_batch_exact(&refs, 10).expect("exact oracle");
    let clustered = model.try_recommend_batch(&refs, 10).expect("clustered path");

    let mut hits = 0usize;
    let mut total = 0usize;
    for (e, c) in exact.iter().zip(&clustered) {
        let oracle: HashSet<u32> = e.iter().copied().collect();
        hits += c.iter().filter(|item| oracle.contains(item)).count();
        total += e.len();
    }
    let recall = hits as f64 / total.max(1) as f64;
    assert!(recall >= 0.9, "recall@10 {recall} on a topic-structured catalog (8/40 probes)");
}

/// Both paths must reject an out-of-vocabulary id with the *same*
/// error — the clustered path reuses the exact path's embedding gather,
/// so no path can silently score garbage.
#[test]
fn both_paths_reject_oov_identically() {
    let mut model = build_model(4, 4, 8, 1, 1, 0b1000, 7);
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(2, 2, 7)));
    let bad: &[&[u32]] = &[&[1, 2, 300]];
    let exact = model.recommend_batch_exact(bad, 3).expect_err("exact must reject id 300");
    let clustered =
        model.try_recommend_batch(bad, 3).expect_err("clustered must reject id 300");
    assert_eq!(exact, clustered, "the two paths must fail with the same message");
}

/// `k` far beyond the catalog: both paths return every rankable item,
/// identically ordered, under exclusions.
#[test]
fn k_beyond_catalog_is_identical() {
    let mut model = build_model(6, 4, 33, 1, 1, 0b1000, 11);
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(4, 1, 11)));
    let history: Vec<u32> = (1..=10).collect();
    let refs: Vec<&[u32]> = vec![&history];
    let exact = model.recommend_batch_exact(&refs, 500).expect("exact oracle");
    let clustered = model.try_recommend_batch(&refs, 500).expect("clustered path");
    assert_eq!(exact[0].len(), 22, "32 items minus 10 excluded");
    assert_eq!(exact, clustered, "exhausting the catalog must visit every cluster");
}

/// Deterministic tie-breaking: when every item scores identically
/// (identical tied-table rows), both paths must order by ascending item
/// id — selection is a pure function of the candidate set, not of heap
/// insertion order.
#[test]
fn equal_scores_order_by_item_id_on_both_paths() {
    let (vocab, dim) = (24usize, 4usize);
    let mut model = build_model(dim, 4, vocab, 1, 1, 0b1000, 13);
    let mut table = vec![0.0f32; vocab * dim];
    for item in 1..vocab {
        for j in 0..dim {
            table[item * dim + j] = 0.25 + j as f32 * 0.5; // every item identical
        }
    }
    let id = model.params_mut().id_of("item_emb").expect("item table");
    model.params_mut().get_mut(id).data_mut().copy_from_slice(&table);
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(3, 3, 13)));

    let history: Vec<u32> = vec![2, 5];
    let refs: Vec<&[u32]> = vec![&history];
    let expected: Vec<u32> = (1..vocab as u32).filter(|i| ![2, 5].contains(i)).take(8).collect();
    let exact = model.recommend_batch_exact(&refs, 8).expect("exact oracle");
    let clustered = model.try_recommend_batch(&refs, 8).expect("clustered path");
    assert_eq!(exact[0], expected, "exact ties must break to ascending id");
    assert_eq!(clustered[0], expected, "clustered ties must break to ascending id");
}

/// Index rebuild determinism: the same parameters and config produce a
/// bit-identical index — twice in one model, and again after a
/// checkpoint round-trip into a *differently seeded* model.
#[test]
fn index_rebuild_is_deterministic_across_checkpoint_reload() {
    let cfg = cluster_cfg(5, 2, 17);
    let mut a = build_model(6, 4, 40, 1, 1, 0b1000, 17);
    a.set_retrieval(Retrieval::Clustered(cfg.clone()));
    let assign_1 = a.retrieval_index().unwrap().assignments().to_vec();
    a.rebuild_retrieval_index();
    let assign_2 = a.retrieval_index().unwrap().assignments().to_vec();
    assert_eq!(assign_1, assign_2, "rebuild from unchanged parameters must be bit-identical");

    let histories: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![7, 9], vec![4]];
    let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();
    let results_a = a.try_recommend_batch(&refs, 6).expect("clustered path");

    let blob = a.params().save();
    let mut b = build_model(6, 4, 40, 1, 1, 0b1000, 99); // different init weights
    b.params_mut().load_values(blob).expect("checkpoint reload");
    b.set_retrieval(Retrieval::Clustered(cfg));
    assert_eq!(
        assign_1,
        b.retrieval_index().unwrap().assignments(),
        "the restored checkpoint must rebuild the same clustering"
    );
    assert_eq!(
        results_a,
        b.try_recommend_batch(&refs, 6).expect("clustered path"),
        "the restored checkpoint must answer queries identically"
    );
}

/// Routing is the model's own configuration: with a full-probe index
/// built, `try_recommend_batch` serves through it and equals the exact
/// oracle bit for bit; after `set_retrieval(Exact)` no index exists and
/// the reply is still the same.
#[test]
fn retrieval_mode_routes_try_recommend_batch() {
    let mut model = build_model(4, 4, 20, 1, 1, 0b1000, 23);
    let histories: Vec<Vec<u32>> = vec![vec![1, 2], vec![3]];
    let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();
    let exact = model.recommend_batch_exact(&refs, 5).expect("exact oracle");

    model.set_retrieval(Retrieval::Clustered(cluster_cfg(3, 3, 23)));
    assert!(model.retrieval_index().is_some(), "clustered mode builds the index");
    assert_eq!(model.try_recommend_batch(&refs, 5).expect("clustered path"), exact);

    model.set_retrieval(Retrieval::Exact);
    assert!(model.retrieval_index().is_none(), "exact mode drops the index");
    assert_eq!(model.try_recommend_batch(&refs, 5).expect("exact path"), exact);
    assert_eq!(model.recommend_batch(&refs, 5), exact);
}
