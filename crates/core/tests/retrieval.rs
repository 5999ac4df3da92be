//! Differential suite: clustered retrieval vs the exact brute-force
//! oracle ([`vsan_core::retrieval`], DESIGN.md §12).
//!
//! The clustered index is an *approximation with two exactness modes*.
//! With `slack = inf` every cluster is visited, the survivor re-rank runs
//! the same IEEE fold as the exact prediction matmul, and the shared
//! `(score desc, id asc)` comparator makes selection a pure function of
//! the candidate set — so the full-probe clustered top-k must equal the
//! exact top-k **bit for bit and in order**, on every configuration,
//! tied or untied. With `slack = 1` the walk skips only clusters whose
//! Cauchy–Schwarz bound (with its rounding margin) is below the k-th
//! score, so every reply is certified and equals exact too; at smaller
//! slack a certified reply still does. Result lengths never differ, and
//! both paths reject the same errors. The clustered side is reached
//! through `try_recommend_batch` on a model whose index is built, the
//! exact side through `recommend_batch_exact` by name.

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
fn cluster_cfg(num_clusters: usize, slack: f32, seed: u64) -> ClusteredConfig {
    ClusteredConfig { num_clusters, slack, kmeans_iters: 2, train_sample: 4096, seed }
}

/// `slack = inf`: no bound is ever below the k-th score, so the walk
/// visits every cluster.
const FULL_PROBE: f32 = f32::INFINITY;

proptest! {
    /// The exactness mode: a full probe must reproduce the
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
        model.set_retrieval(Retrieval::Clustered(cluster_cfg(nc, FULL_PROBE, seed)));
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

    /// The certificate: at `slack = 1` every reply is certified and
    /// equals `recommend_batch_exact` bit for bit and in order; at the
    /// default slack, every reply that says it is certified does. Tied
    /// and untied heads (bit 3 of `flags`), with a history excluded.
    #[test]
    fn alpha_one_equals_exact_in_order(
        dim in 2usize..10,
        vocab in 8usize..200,
        flags in 0u8..16,
        nc in 2usize..16,
        k in 1usize..12,
        seed in 0u64..10_000,
        raw_history in collection::vec(0u32..4096, 0..10),
    ) {
        let mut model = build_model(dim, 4, vocab, 1, 1, flags, seed);
        let history = clamp_histories(&[raw_history], vocab).pop().unwrap();
        let refs: Vec<&[u32]> = vec![&history];
        let exact = model.recommend_batch_exact(&refs, k).expect("exact oracle").remove(0);
        let hidden = {
            let mut ws = model.workspace(1);
            model.try_last_hidden_batch_with(&refs, &mut ws).expect("hidden row")
        };
        for slack in [1.0, ClusteredConfig::default().slack] {
            model.set_retrieval(Retrieval::Clustered(cluster_cfg(nc, slack, seed)));
            let (got, stats) =
                model.recommend_from_hidden_stats(&hidden, &history, k).expect("clustered path");
            prop_assert!(stats.certified || slack < 1.0, "slack 1 left a reply uncertified: {:?}", stats);
            if stats.certified {
                prop_assert_eq!(&got, &exact, "certified reply diverged at slack {}: {:?}", slack, stats);
            }
        }
    }

    /// Result-length parity: the walk skips nothing until it holds `k`
    /// rankable candidates, so even `slack = 0` returns exactly as many
    /// items as the oracle — including the `k > N` regime where both
    /// exhaust the catalog.
    #[test]
    fn result_lengths_match_at_any_probe(
        dim in 2usize..8,
        vocab in 4usize..32,
        nc in 1usize..8,
        slack in 0.0f32..1.0,
        k in 1usize..64,
        seed in 0u64..10_000,
        raw_history in collection::vec(0u32..4096, 0..10),
    ) {
        let mut model = build_model(dim, 4, vocab, 1, 1, 0b1000, seed);
        model.set_retrieval(Retrieval::Clustered(cluster_cfg(nc, slack, seed)));
        let history = clamp_histories(&[raw_history], vocab).pop().unwrap();
        let refs: Vec<&[u32]> = vec![&history];

        let exact = model.recommend_batch_exact(&refs, k).expect("exact oracle");
        let clustered = model.try_recommend_batch(&refs, k).expect("clustered path");
        prop_assert_eq!(exact[0].len(), clustered[0].len());
    }
}

/// Numeric recall floor on a *structured* catalog (topic-clustered
/// embeddings, like the benchmark's `million_item` preset): the default
/// slack must recover nearly all of the oracle top-10. Random-Gaussian
/// catalogs get no such floor — their clusters carry no signal, which
/// is what the certificate property above is for.
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
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(40, ClusteredConfig::default().slack, 5)));

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
    assert!(recall >= 0.9, "recall@10 {recall} on a topic-structured catalog (default slack)");
}

/// Both paths must reject an out-of-vocabulary id with the *same*
/// error — the clustered path reuses the exact path's embedding gather,
/// so no path can silently score garbage.
#[test]
fn both_paths_reject_oov_identically() {
    let mut model = build_model(4, 4, 8, 1, 1, 0b1000, 7);
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(2, FULL_PROBE, 7)));
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
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(4, 0.0, 11)));
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
    model.set_retrieval(Retrieval::Clustered(cluster_cfg(3, 1.0, 13)));

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
    let cfg = cluster_cfg(5, ClusteredConfig::default().slack, 17);
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

    model.set_retrieval(Retrieval::Clustered(cluster_cfg(3, FULL_PROBE, 23)));
    assert!(model.retrieval_index().is_some(), "clustered mode builds the index");
    assert_eq!(model.try_recommend_batch(&refs, 5).expect("clustered path"), exact);

    model.set_retrieval(Retrieval::Exact);
    assert!(model.retrieval_index().is_none(), "exact mode drops the index");
    assert_eq!(model.try_recommend_batch(&refs, 5).expect("exact path"), exact);
    assert_eq!(model.recommend(refs[0], 5).expect("single history"), exact[0]);
}
