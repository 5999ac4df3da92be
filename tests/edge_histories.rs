//! Edge histories, pinned on every entry point (DESIGN.md §7).
//!
//! Four requests sit at the edges of what a history can be: the empty
//! history, a history of padding ids only, a history whose window holds
//! an out-of-vocabulary id, and a `k` larger than the catalog. Each must
//! get the same reply — or the same error — from the graph-free plan
//! (`try_score_items_batch`, `recommend_batch_exact`), the graph oracle
//! (`score_items_batch_graph`), a session (`prepare_session_into` +
//! `append_session_logits`) and the engine (`Engine::submit`), and none
//! may panic. The posterior and the Monte-Carlo scores run the oracle's
//! forward too, so they meet the same windows and the same errors.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use vsan_repro::prelude::*;

const K: usize = 5;

fn trained_model() -> Vsan {
    let num_items = 8;
    let sequences = (0..12)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "edges".into(), num_items, sequences };
    let mut cfg = VsanConfig::smoke().with_threads(1);
    cfg.base.epochs = 2;
    Vsan::train(&ds, &(0..12).collect::<Vec<_>>(), &cfg).expect("smoke training")
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Logits for `history` from the plan, the graph oracle and — when the
/// history has a last event to append — a session over its prefix, held
/// to one another bit for bit.
fn logits_on_every_path(model: &Vsan, history: &[u32]) -> Vec<f32> {
    let plan = model.try_score_items_batch(&[history]).expect("plan").pop().unwrap();
    let graph = model.score_items_batch_graph(&[history]).expect("graph oracle").pop().unwrap();
    assert_eq!(bits(&plan), bits(&graph), "plan vs graph oracle for {history:?}");
    let mean = model.score_items_sampled(history, 0, &mut StdRng::seed_from_u64(7)).expect("no draws");
    assert_eq!(bits(&plan), bits(&mean), "plan vs zero-sample scores for {history:?}");
    let mut ws = Workspace::new();
    let mut state = SessionState::new();
    match history.split_last() {
        Some((&last, prefix)) => {
            model.prepare_session_into(prefix, None, &mut state, &mut ws).expect("prepare");
            let streamed = model.append_session_logits(&state, last, &mut ws).expect("append");
            assert_eq!(bits(&plan), bits(&streamed), "plan vs session for {history:?}");
        }
        // No event to append: the empty prefix still prepares.
        None => model.prepare_session_into(&[], None, &mut state, &mut ws).expect("prepare"),
    }
    plan
}

/// The posterior's `(μ, σ)` and two Monte-Carlo draws, as bits.
fn posterior_and_draws(model: &Vsan, history: &[u32]) -> Vec<u32> {
    let stats = model.posterior(history).expect("posterior");
    let draws = model.score_items_sampled(history, 2, &mut StdRng::seed_from_u64(7)).expect("draws");
    [bits(&stats.mu), bits(&stats.sigma), bits(&draws)].concat()
}

/// Top-`k` of `history` from the plan's exact path and from the engine,
/// held equal; returns the reply.
fn replies_on_every_path(model: &Vsan, engine: &Engine, history: &[u32], k: usize) -> Vec<u32> {
    let exact = model.recommend_batch_exact(&[history], k).expect("exact").pop().unwrap();
    let served = engine.submit(history, k).wait().expect("engine reply");
    assert_eq!(served.items(), exact.as_slice(), "engine vs exact for {history:?}, k = {k}");
    exact
}

#[test]
fn empty_and_padding_only_histories_are_the_all_padding_window() {
    let model = trained_model();
    let engine = Engine::start(trained_model(), EngineConfig::default());
    let n = model.config().base.max_seq_len;

    // Padding is item 0 left of the real rows: an empty history, and any
    // history of padding ids alone, is the all-padding window.
    let empty = logits_on_every_path(&model, &[]);
    assert!(empty.iter().all(|v| v.is_finite()));
    let empty_posterior = posterior_and_draws(&model, &[]);
    for zeros in [vec![0u32], vec![0; 3], vec![0; n], vec![0; n + 4]] {
        assert_eq!(bits(&logits_on_every_path(&model, &zeros)), bits(&empty), "{} zeros", zeros.len());
        assert_eq!(posterior_and_draws(&model, &zeros), empty_posterior, "{} zeros", zeros.len());
    }

    let reply = replies_on_every_path(&model, &engine, &[], K);
    assert_eq!(reply.len(), K);
    assert!(!reply.contains(&0), "the padding item is never recommended");
    assert_eq!(replies_on_every_path(&model, &engine, &[0, 0, 0], K), reply);
    engine.shutdown_stats();
}

#[test]
fn an_out_of_vocabulary_id_in_the_window_is_the_same_error_on_every_path() {
    let model = trained_model();
    let engine = Engine::start(trained_model(), EngineConfig::default());
    let vocab = model.vocab() as u32;
    let n = model.config().base.max_seq_len;
    for (user, (history, bad)) in [
        (vec![vocab], vocab),
        (vec![1, 2, vocab + 7], vocab + 7),
        (vec![vocab + 1, 3, 4], vocab + 1),
        (vec![u32::MAX], u32::MAX),
    ]
    .into_iter()
    .enumerate()
    {
        let message = format!("item id {bad} out of vocabulary ({vocab})");
        let h = history.as_slice();
        assert_eq!(model.try_score_items_batch(&[h]).unwrap_err(), message);
        assert_eq!(model.recommend_batch_exact(&[h], K).unwrap_err(), message);
        assert_eq!(model.recommend(h, K).unwrap_err(), message);
        assert!(model.score_items_batch_graph(&[h]).is_err(), "graph oracle accepted {h:?}");
        assert_eq!(model.posterior(h).unwrap_err(), message);
        for samples in [0, 2] {
            let sampled = model.score_items_sampled(h, samples, &mut StdRng::seed_from_u64(7));
            assert_eq!(sampled.unwrap_err(), message, "{samples} samples");
        }
        // A session meets the id in its prefix or as the appended event.
        let (&last, prefix) = h.split_last().unwrap();
        let (mut ws, mut state) = (Workspace::new(), SessionState::new());
        let session = model
            .prepare_session_into(prefix, None, &mut state, &mut ws)
            .and_then(|()| model.append_session_logits(&state, last, &mut ws));
        assert_eq!(session.unwrap_err(), message);
        let invalid = Err(ServeError::InvalidItem { item: bad, vocab: vocab as usize });
        assert_eq!(engine.submit(h, K).wait(), invalid);
        assert_eq!(engine.append_event(user as u64, Some(prefix), last, K), invalid);
        assert_eq!(ServeError::InvalidItem { item: bad, vocab: vocab as usize }.to_string(), message);
    }
    // Only the window is read: an unknown id that slid out of it is no
    // error on any path.
    let mut slid: Vec<u32> = vec![vocab + 3];
    slid.extend((0..n as u32).map(|t| t % 8 + 1));
    let logits = logits_on_every_path(&model, &slid);
    assert_eq!(bits(&logits), bits(&logits_on_every_path(&model, model.fold_in_window(&slid))));
    replies_on_every_path(&model, &engine, &slid, K);
    let m = engine.shutdown_stats().snapshot;
    assert_eq!((m.model_errors, m.degraded_responses), (0, 0), "{m:?}");
}

#[test]
fn k_beyond_the_catalog_returns_every_unseen_item() {
    let model = trained_model();
    let engine = Engine::start(trained_model(), EngineConfig::default());
    // The clustered index at slack 1 is exact, so it must give the same
    // replies, whatever `k`.
    let mut clustered = trained_model();
    clustered.set_retrieval(Retrieval::Clustered(ClusteredConfig { slack: 1.0, ..Default::default() }));
    let catalog = model.vocab() - 1;
    for history in [vec![], vec![0, 0], vec![3], vec![1, 2, 3, 2]] {
        let seen: HashSet<u32> = history.iter().copied().filter(|&i| i != 0).collect();
        for k in [0, catalog, catalog + 1, 1_000, usize::MAX] {
            let reply = replies_on_every_path(&model, &engine, &history, k);
            assert_eq!(reply.len(), k.min(catalog - seen.len()), "{history:?}, k = {k}");
            assert!(reply.iter().all(|i| *i != 0 && !seen.contains(i)));
            let via_index = clustered.try_recommend_batch(&[&history], k).expect("index").pop();
            assert_eq!(via_index, Some(reply), "clustered vs exact for {history:?}, k = {k}");
        }
    }
    engine.shutdown_stats();
}
