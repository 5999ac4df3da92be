//! Engine-level retrieval tests: the clustered index behind
//! [`EngineConfig::with_retrieval`] must agree with the exact oracle at
//! full probe, and a restart on a restored checkpoint must rebuild a
//! bit-identical index (DESIGN.md §12 — the index is derived data, not
//! checkpoint state).

use vsan_core::{ClusteredConfig, Retrieval, Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_serve::{Engine, EngineConfig};

/// Tiny deterministic dataset + model, same shape as the engine tests.
fn serve_cfg() -> VsanConfig {
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;
    cfg
}

fn trained_model() -> Vsan {
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "serve-retrieval".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    Vsan::train(&ds, &train_users, &serve_cfg()).expect("smoke training")
}

/// A full-probe index config: with `slack = inf` no bound is below the
/// k-th score, every cluster is visited, so the engine's clustered
/// answers must equal the exact oracle's.
fn full_probe() -> ClusteredConfig {
    ClusteredConfig { num_clusters: 3, slack: f32::INFINITY, kmeans_iters: 2, train_sample: 4096, seed: 7 }
}

#[test]
fn engine_clustered_matches_exact_oracle_at_full_probe() {
    let model = trained_model();
    let histories: [&[u32]; 4] = [&[1, 2, 3], &[4, 5], &[6], &[7, 8, 1, 2]];
    let expected = model.recommend_batch_exact(&histories, 5).expect("exact oracle");

    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_workers(1)
            .with_retrieval(Retrieval::Clustered(full_probe())),
    );
    for (history, want) in histories.iter().zip(&expected) {
        let got = engine.submit(history, 5).wait().expect("serve reply");
        assert!(!got.is_degraded(), "healthy engine must answer from the model");
        assert_eq!(got.items(), want.as_slice(), "engine ranking diverged from the oracle");
    }
    engine.shutdown_stats();
}

#[test]
fn restart_on_restored_checkpoint_rebuilds_identically() {
    let ccfg = full_probe();
    let mut a = trained_model();
    let blob = a.params().save();

    // Reference clustering from the trained parameters; Engine::start
    // runs the same rebuild on its own copy.
    a.set_retrieval(Retrieval::Clustered(ccfg.clone()));
    let assignments = a.retrieval_index().expect("index built").assignments().to_vec();

    let histories: [&[u32]; 3] = [&[1, 2, 3], &[4, 5], &[8]];
    let engine_cfg =
        EngineConfig::default().with_workers(1).with_retrieval(Retrieval::Clustered(ccfg.clone()));
    let engine_a = Engine::start(a, engine_cfg.clone());
    let replies_a: Vec<Vec<u32>> = histories
        .iter()
        .map(|h| engine_a.submit(h, 4).wait().expect("serve reply").into_items())
        .collect();
    engine_a.shutdown_stats();

    // "Restart": a freshly initialized model (different weights until
    // the load), restored from the checkpoint blob, served again.
    let mut b = Vsan::init(9, &serve_cfg());
    b.params_mut().load_values(&blob).expect("checkpoint reload");
    b.set_retrieval(Retrieval::Clustered(ccfg));
    assert_eq!(
        assignments,
        b.retrieval_index().expect("index built").assignments(),
        "restored parameters must produce a bit-identical clustering"
    );
    let engine_b = Engine::start(b, engine_cfg);
    for (h, want) in histories.iter().zip(&replies_a) {
        let got = engine_b.submit(h, 4).wait().expect("serve reply");
        assert_eq!(got.items(), want.as_slice(), "restarted engine must answer identically");
    }
    engine_b.shutdown_stats();
}

#[test]
fn retrieval_path_counters_account_for_every_batch_answer() {
    let model = trained_model();
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_workers(1)
            .with_cache_capacity(0)
            .with_retrieval(Retrieval::Clustered(full_probe())),
    );
    let histories: [&[u32]; 4] = [&[1, 2, 3], &[4, 5], &[6], &[7, 8, 1, 2]];
    for history in &histories {
        engine.submit(history, 5).wait().expect("serve reply");
    }
    let stats = engine.shutdown_stats();
    let m = stats.snapshot;

    // Exactly one retrieval-path resolution per request: the index.
    assert_eq!(m.retrieval_clustered, histories.len() as u64);
    assert_eq!(m.retrieval_exact, 0);
    // A full probe skips nothing, so every reply is certified exact.
    assert_eq!(m.retrieval_certified, histories.len() as u64);
    // One probe/survivor observation per clustered answer; at full
    // probe every cluster is visited.
    assert_eq!(stats.retrieval_probes.count, histories.len() as u64);
    assert_eq!(stats.retrieval_survivors.count, histories.len() as u64);
    assert_eq!(stats.retrieval_probes.max, 3, "full probe visits all 3 clusters");
    assert!(stats.retrieval_survivors.max >= 5, "re-rank pool covers the requested k");

    // An exact-retrieval engine counts on the other side and probes
    // nothing.
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default().with_workers(1).with_cache_capacity(0),
    );
    for history in &histories {
        engine.submit(history, 5).wait().expect("serve reply");
    }
    let stats = engine.shutdown_stats();
    assert_eq!(stats.snapshot.retrieval_exact, histories.len() as u64);
    assert_eq!(stats.snapshot.retrieval_clustered, 0);
    assert_eq!(stats.snapshot.retrieval_certified, 0);
    assert_eq!(stats.retrieval_probes.count, 0);
    assert_eq!(stats.retrieval_survivors.count, 0);
}
