//! Integration tests for the serving engine: batching policy, response
//! routing under concurrency, shutdown draining, and determinism
//! against the offline `Vsan::recommend` path.

use std::time::Duration;

use vsan_core::{Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_serve::{Engine, EngineConfig, ServeError};

/// Tiny deterministic dataset + model, same shape as vsan-core's own
/// smoke tests. Two training epochs keep each test fast; the engine
/// only ever runs evaluation-mode forwards.
fn trained_model() -> Vsan {
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "serve-test".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;
    Vsan::train(&ds, &train_users, &cfg).expect("smoke training")
}

#[test]
fn deadline_flushes_a_partial_batch() {
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_max_batch(64)
            .with_batch_deadline(Duration::from_millis(10))
            .with_workers(1),
    );
    let tickets: Vec<_> =
        [&[1u32, 2][..], &[3, 4, 5], &[6]].iter().map(|h| engine.submit(h, 4)).collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().len(), 4);
    }
    let m = engine.shutdown_stats().snapshot;
    assert_eq!(m.requests, 3);
    assert!(m.flush_deadline >= 1, "far-from-full batch must flush on deadline: {m:?}");
    assert_eq!(m.flush_full, 0, "max_batch=64 can never fill with 3 requests");
    assert_eq!(m.batched_requests, 3);
}

#[test]
fn max_batch_size_flushes_before_the_deadline() {
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_max_batch(2)
            // Far longer than the test: any flush that happens is a
            // size-triggered flush, never a deadline flush.
            .with_batch_deadline(Duration::from_secs(30))
            .with_workers(1),
    );
    let histories: [&[u32]; 4] = [&[1], &[2], &[3], &[4]];
    let tickets: Vec<_> = histories.iter().map(|h| engine.submit(h, 3)).collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().len(), 3);
    }
    let m = engine.shutdown_stats().snapshot;
    assert_eq!(m.flush_full, 2, "4 requests at max_batch=2 → exactly 2 full batches: {m:?}");
    assert_eq!(m.flush_deadline, 0);
    assert_eq!(m.batched_requests, 4);
    assert!(m.mean_batch_size() >= 2.0 - f64::EPSILON);
}

#[test]
fn concurrent_submitters_each_get_their_own_answer() {
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(2))
            .with_workers(2),
    );
    std::thread::scope(|scope| {
        for worker in 0u32..8 {
            let engine = &engine;
            scope.spawn(move || {
                let history = vec![worker % 8 + 1, (worker + 3) % 8 + 1];
                let expected = engine.model().recommend(&history, 5).unwrap();
                for _ in 0..3 {
                    let got = engine.recommend(&history, 5).unwrap();
                    assert_eq!(
                        got, expected,
                        "submitter {worker} must receive the reply to its own request"
                    );
                }
            });
        }
    });
    let m = engine.shutdown_stats().snapshot;
    assert_eq!(m.requests, 24);
    assert_eq!(m.cache_hits + m.cache_misses, 24);
}

#[test]
fn shutdown_drains_a_non_empty_queue() {
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_max_batch(100)
            // The deadline never fires during the test, so the queued
            // requests can only be answered by the shutdown drain.
            .with_batch_deadline(Duration::from_secs(30))
            .with_workers(1),
    );
    let histories: [&[u32]; 6] = [&[1], &[2], &[3], &[4], &[5], &[6]];
    let tickets: Vec<_> = histories.iter().map(|h| engine.submit(h, 3)).collect();
    let m = engine.shutdown_stats().snapshot;
    for t in tickets {
        assert_eq!(t.wait().unwrap().len(), 3, "queued request must still be answered");
    }
    assert_eq!(m.flush_shutdown, 1, "the drain flush is a shutdown flush: {m:?}");
    assert_eq!(m.batched_requests, 6);
}

#[test]
fn engine_matches_offline_recommend_on_miss_and_hit() {
    let engine = Engine::start(trained_model(), EngineConfig::default());
    // Longer than max_seq_len (8) so the cache key is the fold-in
    // window while the exclusion set still uses the full history.
    let long: Vec<u32> = (0..20).map(|t| t % 8 + 1).collect();
    for history in [&[2u32, 4, 6][..], &long, &[]] {
        let miss = engine.recommend(history, 5).unwrap();
        let hit = engine.recommend(history, 5).unwrap();
        let offline = engine.model().recommend(history, 5).unwrap();
        assert_eq!(miss, offline, "cache miss must match Vsan::recommend");
        assert_eq!(hit, offline, "cache hit must match Vsan::recommend");
    }
    let m = engine.stats().snapshot;
    assert!(m.cache_hits >= 3, "second lookups must hit: {m:?}");
    assert!(m.cache_misses >= 3);
    assert!(m.cache_hit_rate() > 0.0);
}

#[test]
fn invalidate_evicts_the_users_window() {
    let engine = Engine::start(trained_model(), EngineConfig::default());
    let history = [1u32, 3, 5];
    engine.recommend(&history, 3).unwrap();
    let before = engine.stats().snapshot;
    assert!(engine.invalidate(&history), "entry cached by the first request");
    assert!(!engine.invalidate(&history), "second eviction finds nothing");
    engine.recommend(&history, 3).unwrap();
    let after = engine.stats().snapshot;
    assert_eq!(after.cache_misses, before.cache_misses + 1, "evicted entry must re-miss");
    assert_eq!(
        after.cache_invalidate_misses,
        before.cache_invalidate_misses + 1,
        "the no-op second invalidation must be counted, not silent"
    );
}

#[test]
fn invalidate_during_in_flight_tickets_is_safe_and_exact() {
    // Submit on a long deadline so the request sits in the batcher queue,
    // invalidate the same window while the ticket is in flight, and keep
    // polling a second ticket throughout. Neither ticket may deadlock,
    // lose its reply, or return anything but the offline answer.
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            // Large max_batch + a deadline flush: both submits are queued
            // (in flight) for ~the full deadline, giving the invalidation
            // below a guaranteed window to race against.
            .with_max_batch(64)
            .with_batch_deadline(Duration::from_millis(150))
            .with_workers(1),
    );
    let history = [2u32, 4, 6];
    let expected = engine.model().recommend(&history, 4).unwrap();

    let waited = engine.submit(&history, 4);
    let mut polled = engine.submit(&history, 4);
    // The window cannot be cached yet — both requests are still in flight.
    assert!(!engine.invalidate(&history), "nothing cached while in flight");
    assert_eq!(
        engine.stats().snapshot.cache_invalidate_misses,
        1,
        "an in-flight (uncached) invalidation is a recorded miss"
    );
    let reply = loop {
        engine.invalidate(&history); // racing eviction must stay harmless
        if let Some(reply) = polled.poll() {
            break reply;
        }
        std::thread::yield_now();
    };
    assert_eq!(reply.unwrap(), expected, "polled ticket must match Vsan::recommend");
    assert_eq!(waited.wait().unwrap(), expected, "waited ticket must match Vsan::recommend");

    // Post-flight: the reply was (re)cached after the racing evictions
    // settled, or it wasn't — either way a fresh request re-misses or
    // hits with the exact offline answer.
    assert_eq!(engine.recommend(&history, 4).unwrap(), expected);
    let misses_before = engine.stats().snapshot.cache_invalidate_misses;
    assert!(engine.invalidate(&history), "settled entry evicts exactly once");
    assert!(!engine.invalidate(&history));
    let m = engine.shutdown_stats().snapshot;
    assert!(m.requests >= 3);
    assert_eq!(
        m.cache_invalidate_misses,
        misses_before + 1,
        "exactly the second post-flight invalidation misses"
    );
}

#[test]
fn engine_from_parallel_trained_model_matches_offline_recommend() {
    // Train the backing model through the data-parallel executor (threads
    // > 1, > batch size) and serve from it: the engine must agree with
    // Vsan::recommend bit-for-bit on rankings, and — because training is
    // thread-count invariant — with an engine built from a serially
    // trained twin.
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "serve-par".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;

    let serial = Vsan::train(&ds, &train_users, &cfg.clone().with_threads(1)).unwrap();
    let parallel = Vsan::train(&ds, &train_users, &cfg.clone().with_threads(16)).unwrap();

    let engine = Engine::start(parallel, EngineConfig::default());
    let long: Vec<u32> = (0..20).map(|t| t % 8 + 1).collect();
    for history in [&[1u32, 2, 3][..], &[7][..], &long, &[]] {
        let served = engine.recommend(history, 5).unwrap();
        assert_eq!(served, engine.model().recommend(history, 5).unwrap(), "engine vs its own model");
        assert_eq!(served, serial.recommend(history, 5).unwrap(), "parallel vs serial training");
    }
    engine.shutdown_stats();
}

#[test]
fn cache_can_be_disabled() {
    let engine = Engine::start(trained_model(), EngineConfig::default().with_cache_capacity(0));
    let a = engine.recommend(&[1, 2], 4).unwrap();
    let b = engine.recommend(&[1, 2], 4).unwrap();
    assert_eq!(a, b, "determinism must not depend on the cache");
    let m = engine.shutdown_stats().snapshot;
    assert_eq!(m.cache_hits, 0);
    assert_eq!(m.cache_misses, 2);
}

#[test]
fn tickets_poll_exactly_once() {
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default().with_batch_deadline(Duration::from_millis(1)),
    );
    let mut ticket = engine.submit(&[1, 2, 3], 4);
    let reply = loop {
        if let Some(reply) = ticket.poll() {
            break reply;
        }
        std::thread::yield_now();
    };
    assert_eq!(reply.unwrap().len(), 4);
    assert!(ticket.poll().is_none(), "a taken response is gone");
    assert_eq!(ticket.wait(), Err(ServeError::ResponseTaken));

    // A cache-hit ticket is resolved at submit time.
    let mut warm = engine.submit(&[1, 2, 3], 4);
    assert!(warm.poll().is_some(), "cache hits resolve immediately");
}

#[test]
fn out_of_vocabulary_requests_are_rejected_at_admission() {
    // An out-of-vocabulary item id in the fold-in window is the one input
    // every scoring path rejects. The engine rejects it with a typed error
    // before the request can join a batch — so it neither degrades nor
    // fails its batch-mates — and never answers it with fabricated scores.
    let popularity: Vec<f32> = (0..9).map(|i| i as f32).collect();
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_batch_deadline(Duration::from_millis(1))
            .with_workers(1)
            .with_popularity(popularity),
    );
    let vocab = engine.model().vocab();

    let bad_history = [1u32, 2, 10_000]; // 10_000 is far out of vocab
    let good = engine.submit(&[1, 2, 3], 4);
    let bad = engine.submit(&bad_history, 3);
    assert_eq!(bad.wait(), Err(ServeError::InvalidItem { item: 10_000, vocab }));
    let good = good.wait().unwrap();
    assert!(!good.is_degraded());
    assert_eq!(good, engine.model().recommend(&[1, 2, 3], 4).unwrap());
    // The same id outside the window the model reads is no error.
    let mut long = vec![10_000u32];
    long.extend((0..engine.model().config().base.max_seq_len as u32).map(|t| t % 8 + 1));
    assert!(engine.recommend(&long, 3).is_ok());

    let stats = engine.shutdown_stats();
    let m = stats.snapshot;
    assert_eq!((m.model_errors, m.degraded_responses, m.worker_panics), (0, 0, 0), "{m:?}");
    // The rejection resolved its ticket like any other reply.
    assert_eq!(stats.latency_us.count, m.requests, "{m:?}");
}
