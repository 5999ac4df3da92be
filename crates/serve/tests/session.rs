//! Engine-level tests for the incremental session path
//! (`Engine::append_event`): bitwise agreement with the offline
//! recommend path whether or not the pool's refresh has caught up,
//! transparent eviction under capacity pressure, hint-driven resets,
//! `session.*` metrics and fault telemetry, and the sequence-cache
//! warming side effect.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vsan_core::{Vsan, VsanConfig};
use vsan_data::synthetic::{generate_stream, SessionStreamConfig};
use vsan_data::Dataset;
use vsan_serve::{Engine, EngineConfig, ResponseSource};

fn trained_model() -> Vsan {
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "session-test".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;
    Vsan::train(&ds, &train_users, &cfg).expect("smoke training")
}

/// Spin (bounded) until the pool has run `n` refreshes: what makes the
/// next event's outcome a fact instead of a race.
fn wait_for_refreshes(engine: &Engine, n: u64) {
    let due = Instant::now() + Duration::from_secs(20);
    while engine.stats().snapshot.session_refreshes < n {
        assert!(Instant::now() < due, "refresh {n} never ran: {:?}", engine.stats().snapshot);
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn appends_match_offline_recommend_and_count_as_warm() {
    let engine = Engine::start(trained_model(), EngineConfig::default());
    let mut history: Vec<u32> = Vec::new();
    for (i, item) in [3u32, 1, 4, 1, 5, 2, 6].into_iter().enumerate() {
        let resp = engine.append_event(42, None, item, 5).unwrap();
        history.push(item);
        assert_eq!(resp.source(), ResponseSource::Session);
        assert!(!resp.is_degraded());
        let offline = engine.model().recommend(&history, 5).unwrap();
        assert_eq!(resp.items(), &offline[..], "event {i} diverged from offline recommend");
        // Let the pool catch the state up before the next event.
        wait_for_refreshes(&engine, i as u64 + 1);
    }
    let stats = engine.stats();
    let m = stats.snapshot;
    assert_eq!(m.session_cold_starts, 1, "only the first event finds nobody resident");
    assert_eq!(m.session_appends, 6, "every later event found its state refreshed");
    assert_eq!(m.session_refreshes, 7, "one refresh per event");
    assert_eq!(m.session_refresh_skipped, 0);
    assert_eq!(m.session_resets, 0);
    assert_eq!(m.session_evictions, 0);
    assert_eq!(stats.sessions_live, 1);
    assert!(stats.session_bytes > 0);
    assert!(engine.end_session(42));
    assert!(!engine.end_session(42));
}

#[test]
fn session_stream_replay_matches_offline_recommend() {
    // Zipf-skewed multi-user stream from the vsan-data generator: warm
    // histories, then live appends with client hints — every response
    // must match the offline path regardless of which users stayed
    // cached.
    let cfg = SessionStreamConfig {
        num_users: 6,
        num_items: 8,
        zipf_exponent: 1.0,
        events: 30,
        min_history: 2,
        max_history: 12,
        seed: 7,
    };
    let stream = generate_stream(&cfg);
    let engine = Engine::start(trained_model(), EngineConfig::default().with_session_capacity(3));
    let mut histories = stream.histories.clone();
    for event in &stream.events {
        let user = event.user as usize;
        let hint = histories[user].clone();
        let resp = engine.append_event(event.user, Some(&hint), event.item, 4).unwrap();
        histories[user].push(event.item);
        assert_eq!(resp.source(), ResponseSource::Session);
        let offline = engine.model().recommend(&histories[user], 4).unwrap();
        assert_eq!(resp.items(), &offline[..]);
    }
    let stats = engine.stats();
    let m = stats.snapshot;
    assert_eq!(
        m.session_appends + m.session_cold_starts + m.session_resumes + m.session_resets,
        stream.events.len() as u64,
        "every event classified exactly once: {m:?}"
    );
    assert!(stats.sessions_live <= 3, "capacity bound holds: {}", stats.sessions_live);
}

#[test]
fn eviction_is_transparent_counted_and_reported() {
    let sink = Arc::new(vsan_obs::MemorySink::new());
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default().with_session_capacity(1).with_fault_sink(sink.clone()),
    );
    // Two users ping-pong through a 1-slot store: every switch evicts.
    let mut histories: Vec<Vec<u32>> = vec![Vec::new(); 2];
    for i in 0..6u32 {
        let user = u64::from(i % 2);
        let item = i % 8 + 1;
        let hint = histories[user as usize].clone();
        let resp = engine.append_event(user, Some(&hint), item, 3).unwrap();
        histories[user as usize].push(item);
        let offline = engine.model().recommend(&histories[user as usize], 3).unwrap();
        assert_eq!(resp.items(), &offline[..], "post-eviction event {i} must still be exact");
    }
    let m = engine.stats().snapshot;
    assert!(m.session_evictions >= 4, "every user switch evicts: {m:?}");
    assert_eq!(m.session_appends, 0, "capacity 1 with 2 users never stays warm");
    let evicted_faults = sink
        .lines()
        .iter()
        .filter(|l| {
            vsan_obs::parse(l)
                .ok()
                .and_then(|v| v.get("kind").and_then(|k| k.as_str().map(String::from)))
                .as_deref()
                == Some("session_evicted")
        })
        .count();
    assert_eq!(evicted_faults as u64, m.session_evictions, "one fault event per eviction");
}

#[test]
fn divergent_hint_resets_the_session() {
    let sink = Arc::new(vsan_obs::MemorySink::new());
    let engine =
        Engine::start(trained_model(), EngineConfig::default().with_fault_sink(sink.clone()));
    engine.append_event(9, None, 3, 3).unwrap();
    engine.append_event(9, None, 5, 3).unwrap();
    // The client claims a history that contradicts the cached [3, 5]:
    // the hint wins, the reset is counted and reported.
    let resp = engine.append_event(9, Some(&[7, 7]), 2, 3).unwrap();
    let offline = engine.model().recommend(&[7, 7, 2], 3).unwrap();
    assert_eq!(resp.items(), &offline[..]);
    // A reset is decided by comparing the hint with the cached history,
    // so it does not matter whether the refresh for [3, 5] has run yet —
    // nor whether the incremental path is on at all.
    let m = engine.stats().snapshot;
    assert_eq!(m.session_resets, 1);
    assert_eq!(m.session_cold_starts, 1);
    assert!(sink.lines().iter().any(|l| l.contains("session_reset")), "reset fault emitted");
}

#[test]
fn append_warms_the_sequence_cache() {
    let engine = Engine::start(trained_model(), EngineConfig::default());
    engine.append_event(1, None, 2, 4).unwrap();
    engine.append_event(1, None, 6, 4).unwrap();
    let before = engine.stats().snapshot;
    // The appended logits are exactly what a batch forward of [2, 6]
    // would cache, so a submit for the same history must hit.
    let resp = engine.recommend(&[2, 6], 4).unwrap();
    assert_eq!(resp.source(), ResponseSource::Cache);
    assert_eq!(resp.items(), &engine.model().recommend(&[2, 6], 4).unwrap()[..]);
    let after = engine.stats().snapshot;
    assert_eq!(after.cache_hits, before.cache_hits + 1);
}

#[test]
fn model_errors_resolve_degraded_not_fabricated() {
    let engine = Engine::start(
        trained_model(),
        // Popularity fallback so the degraded path has an answer even
        // with nothing cached.
        EngineConfig::default().with_popularity(vec![0.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1]),
    );
    engine.append_event(4, None, 3, 3).unwrap();
    // Out-of-vocabulary item: surfaced via model_errors + degraded path.
    let resp = engine.append_event(4, None, 4000, 3).unwrap();
    assert!(resp.is_degraded(), "fabricated logits are forbidden; fallback required");
    let m = engine.stats().snapshot;
    assert_eq!(m.model_errors, 1);
    assert_eq!(m.degraded_responses, 1);
    // The session itself is not poisoned: the next valid event serves
    // exactly.
    let resp = engine.append_event(4, None, 5, 3).unwrap();
    assert_eq!(resp.source(), ResponseSource::Session);
    assert_eq!(resp.items(), &engine.model().recommend(&[3, 5], 3).unwrap()[..]);
}

#[test]
fn a_failed_event_evicts_no_one_and_leaves_no_slot() {
    let sink = Arc::new(vsan_obs::MemorySink::new());
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_session_capacity(1)
            .with_fault_sink(sink.clone())
            .with_popularity(vec![0.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1]),
    );
    engine.append_event(1, None, 3, 3).unwrap();
    // Another user, an item the model cannot embed. Making room for user
    // 2 in the one-slot store would have evicted user 1 — for a request
    // that was never going to be served.
    let resp = engine.append_event(2, None, 4000, 3).unwrap();
    assert!(resp.is_degraded());
    let stats = engine.stats();
    let m = stats.snapshot;
    assert_eq!(m.model_errors, 1);
    assert_eq!(m.session_evictions, 0, "a request that cannot be served evicts no one");
    assert!(!sink.lines().iter().any(|l| l.contains("session_evicted")));
    assert_eq!(stats.sessions_live, 1);
    assert!(!engine.end_session(2), "…and leaves no slot behind");

    // User 1 is still resident, server-side history and all.
    let resp = engine.append_event(1, None, 5, 3).unwrap();
    assert_eq!(resp.items(), &engine.model().recommend(&[3, 5], 3).unwrap()[..]);
    assert_eq!(
        engine.stats().snapshot.session_cold_starts,
        1,
        "user 1's second event is no cold start"
    );
}

#[test]
fn stateless_capacity_zero_still_serves_exact_answers() {
    let engine = Engine::start(trained_model(), EngineConfig::default().with_session_capacity(0));
    let mut history = Vec::new();
    for item in [2u32, 4, 6] {
        let hint = history.clone();
        let resp = engine.append_event(8, Some(&hint), item, 4).unwrap();
        history.push(item);
        assert_eq!(resp.items(), &engine.model().recommend(&history, 4).unwrap()[..]);
    }
    let stats = engine.stats();
    let m = stats.snapshot;
    assert_eq!(m.session_cold_starts, 3, "stateless mode recomputes every event");
    assert_eq!(m.session_refreshes + m.session_refresh_skipped, 0, "no refresh is even posted");
    assert_eq!(stats.sessions_live, 0);
}
