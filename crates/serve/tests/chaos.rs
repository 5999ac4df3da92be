//! Chaos suite: seeded fault-injection schedules driving the engine's
//! fault-tolerance guarantees (README § Fault tolerance, DESIGN.md §9):
//!
//! 1. **No ticket is ever lost** — every submit resolves to a response
//!    or a typed error, across worker panics, dropped batches, respawn
//!    exhaustion, and shutdown. The metric form of the same guarantee:
//!    `latency_us.count == requests` (one terminal resolution each).
//! 2. **Deadline-expired requests never occupy compute** — they are
//!    rejected at batcher pickup, before the forward pass.
//! 3. **Completed (non-degraded) results are bit-identical to a
//!    fault-free run** — faults can delay or reject a request, never
//!    corrupt its ranking.
//!
//! 4. **A session refresh is pool work like any other** — a panic inside
//!    one is isolated and healed like a batch panic, and shutdown drops
//!    the queued backlog instead of running it.
//!
//! The failpoint registry is process-global, so every test serializes
//! on one lock and disarms on the way out. Seeded schedules draw their
//! seed from `VSAN_FAILPOINT_SEED` (the verify script sweeps several);
//! assertions hold for *any* seed — the seed varies the fault pattern,
//! not the contract.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use vsan_core::{Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_serve::failpoint::{self, FailAction, Schedule};
use vsan_serve::{
    BackpressurePolicy, Engine, EngineConfig, Response, ResponseSource, ServeError, Ticket,
};

/// Serialize chaos tests (the failpoint registry is process-global) and
/// disarm everything when the test ends, pass or fail.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

fn chaos() -> ChaosGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    static QUIET: Once = Once::new();
    // Injected panics are expected output; keep the test log readable by
    // swallowing their reports while delegating real panics.
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !msg.contains("failpoint:") {
                prev(info);
            }
        }));
    });
    let guard =
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner);
    failpoint::disarm_all();
    ChaosGuard(guard)
}

/// Seed for the fault schedules; `verify.sh` sweeps several values.
fn chaos_seed() -> u64 {
    std::env::var("VSAN_FAILPOINT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

/// Tiny deterministic dataset + model (same shape as the engine tests).
fn trained_model() -> Vsan {
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "chaos-test".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;
    Vsan::train(&ds, &train_users, &cfg).expect("smoke training")
}

/// A pool of distinct histories (distinct fold-in windows, so the cache
/// never aliases them).
fn histories(n: usize) -> Vec<Vec<u32>> {
    (0..n).map(|u| (0..6).map(|t| ((u + t) % 8 + 1) as u32).collect()).collect()
}

/// Resolve a ticket with a watchdog: a ticket that never resolves IS
/// the lost-ticket bug this suite exists to catch, reported as a panic
/// instead of a hung test binary.
fn wait_within(mut ticket: Ticket, limit: Duration) -> Result<Response, ServeError> {
    let due = Instant::now() + limit;
    loop {
        if let Some(reply) = ticket.poll() {
            return reply;
        }
        assert!(Instant::now() < due, "ticket lost: unresolved after {limit:?}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn no_ticket_lost_under_seeded_worker_panics() {
    let _chaos = chaos();
    let seed = chaos_seed();
    failpoint::arm(
        "panic_in_worker",
        Schedule::Seeded { seed, num: 1, den: 3 },
        FailAction::Panic,
    );

    let model = trained_model();
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(1))
            .with_workers(2),
    );
    let pool = histories(12);
    let tickets: Vec<_> =
        (0..80).map(|i| engine.submit(&pool[i % pool.len()], 5)).collect();
    let submitted = tickets.len() as u64;

    let (mut ok, mut lost) = (0u64, 0u64);
    for ticket in tickets {
        match wait_within(ticket, Duration::from_secs(20)) {
            Ok(resp) => {
                assert!(!resp.is_degraded(), "unlimited respawns never degrade");
                ok += 1;
            }
            Err(ServeError::WorkerLost) => lost += 1,
            Err(other) => panic!("unexpected error under panic injection: {other:?}"),
        }
    }
    assert_eq!(ok + lost, submitted, "every ticket must resolve exactly once");

    let panics = failpoint::fired("panic_in_worker");
    failpoint::disarm_all();
    // The pool must have healed: a fresh request succeeds post-chaos.
    let healed = engine.recommend(&pool[0], 5).expect("respawned pool serves again");
    assert_eq!(healed, engine.model().recommend(&pool[0], 5));

    let stats = engine.shutdown_stats();
    let m = stats.snapshot;
    assert!(panics > 0, "a 1/3 schedule over ~{submitted} requests must fire");
    assert_eq!(m.worker_panics, panics, "every injected panic is caught and counted");
    assert_eq!(m.worker_respawns, panics, "unlimited budget respawns every panic");
    assert!(
        m.requeued_requests + m.requests >= m.requests,
        "requeue counter is well-formed: {m:?}"
    );
    assert_eq!(
        stats.latency_us.count,
        m.requests,
        "metric form of no-ticket-lost: one terminal resolution per request"
    );
}

#[test]
fn expired_requests_are_rejected_at_pickup_and_never_computed() {
    let _chaos = chaos();
    let model = trained_model();
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_workers(1),
    );
    let pool = histories(12);

    // Zero-budget deadlines: already expired when the batcher picks them
    // up, so the pickup check must reject every one before the forward.
    let expired: Vec<_> = pool[..6]
        .iter()
        .map(|h| engine.submit_with_deadline(h, 5, Some(Duration::ZERO)))
        .collect();
    // A disjoint live wave that must be computed normally.
    let live: Vec<_> = pool[6..12].iter().map(|h| engine.submit(h, 5)).collect();

    for ticket in expired {
        assert_eq!(
            wait_within(ticket, Duration::from_secs(20)),
            Err(ServeError::DeadlineExceeded),
            "an expired request must resolve to the typed deadline error"
        );
    }
    for (ticket, history) in live.into_iter().zip(&pool[6..12]) {
        let resp = wait_within(ticket, Duration::from_secs(20)).expect("live request");
        assert_eq!(resp, engine.model().recommend(history, 5));
    }

    let stats = engine.shutdown_stats();
    let m = stats.snapshot;
    assert_eq!(m.deadline_misses, 6, "all six expired requests counted: {m:?}");
    assert_eq!(
        stats.compute_us.count, 6,
        "only the six live requests may occupy compute — expired ones never do"
    );
    assert_eq!(stats.latency_us.count, m.requests);
}

#[test]
fn dropped_batches_resolve_every_ticket_typed() {
    let _chaos = chaos();
    failpoint::arm("drop_batch", Schedule::FirstN(1), FailAction::DropBatch);

    let model = trained_model();
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(1))
            .with_workers(1),
    );
    let pool = histories(8);
    let tickets: Vec<_> = pool.iter().map(|h| engine.submit(h, 4)).collect();

    let (mut ok, mut lost) = (0u64, 0u64);
    for (ticket, history) in tickets.into_iter().zip(&pool) {
        match wait_within(ticket, Duration::from_secs(20)) {
            Ok(resp) => {
                assert_eq!(resp, engine.model().recommend(history, 4));
                ok += 1;
            }
            Err(ServeError::WorkerLost) => lost += 1,
            Err(other) => panic!("unexpected error under drop_batch: {other:?}"),
        }
    }
    assert_eq!(ok + lost, 8);
    assert!(lost >= 1, "the dropped batch carried at least one request");

    let m = engine.shutdown();
    assert_eq!(m.dropped_batches, 1);
}

#[test]
fn respawn_exhaustion_degrades_gracefully_instead_of_erroring() {
    let _chaos = chaos();
    failpoint::arm("panic_in_worker", Schedule::Always, FailAction::Panic);

    let model = trained_model();
    // Popularity scores: item ids 1..=8, higher id = more popular.
    let popularity: Vec<f32> = (0..9).map(|i| i as f32).collect();
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(1))
            .with_workers(1)
            .with_max_worker_respawns(0)
            .with_popularity(popularity),
    );
    let history = vec![1u32, 2, 3];

    // The only worker panics on the first batch, the respawn budget is
    // zero, so the engine must flip into degraded mode and resolve the
    // requeued request through the popularity fallback (nothing is
    // cached yet) — not strand it, not error it.
    let resp = wait_within(engine.submit(&history, 4), Duration::from_secs(20))
        .expect("requeued request resolves degraded, not lost");
    assert_eq!(resp.source(), ResponseSource::DegradedPopularity);
    // Most popular first, minus the history: 8, 7, 6, 5.
    assert_eq!(resp, vec![8u32, 7, 6, 5]);
    assert!(engine.is_degraded(), "all workers down + zero budget = degraded mode");

    // Submits now resolve at admission through the fallback.
    let again = engine.recommend(&history, 2).expect("degraded mode still answers");
    assert!(again.is_degraded());

    let stats = engine.shutdown_stats();
    let m = stats.snapshot;
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.worker_respawns, 0);
    assert!(m.degraded_responses >= 2, "{m:?}");
    assert_eq!(m.overloaded_errors, 0, "a configured fallback never errors Overloaded");
    assert_eq!(stats.latency_us.count, m.requests);
}

#[test]
fn chaos_storm_completed_results_match_the_fault_free_run() {
    let _chaos = chaos();
    let seed = chaos_seed();
    let model = trained_model();
    let pool = histories(12);

    // Fault-free reference rankings, straight from the offline path the
    // engine is contractually bit-identical to.
    let expected: HashMap<&[u32], Vec<u32>> =
        pool.iter().map(|h| (h.as_slice(), model.recommend(h, 5))).collect();

    failpoint::arm(
        "panic_in_worker",
        Schedule::Seeded { seed, num: 1, den: 6 },
        FailAction::Panic,
    );
    failpoint::arm(
        "slow_compute",
        Schedule::Seeded { seed: seed.wrapping_add(1), num: 1, den: 4 },
        FailAction::SleepMs(2),
    );
    failpoint::arm(
        "drop_batch",
        Schedule::Seeded { seed: seed.wrapping_add(2), num: 1, den: 8 },
        FailAction::DropBatch,
    );

    let popularity: Vec<f32> = (0..9).map(|i| i as f32).collect();
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(1))
            .with_workers(2)
            .with_queue_capacity(16)
            .with_backpressure(BackpressurePolicy::ShedOldest)
            .with_popularity(popularity),
    );

    let total = 120usize;
    let tickets: Vec<_> = (0..total)
        .map(|i| {
            let history = &pool[i % pool.len()];
            // Every third request carries a real (generous) deadline, so
            // slow batches can push some over the edge under load.
            if i % 3 == 0 {
                engine.submit_with_deadline(history, 5, Some(Duration::from_millis(40)))
            } else {
                engine.submit(history, 5)
            }
        })
        .collect();

    let (mut exact, mut degraded, mut errors) = (0u64, 0u64, 0u64);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let history = pool[i % pool.len()].as_slice();
        match wait_within(ticket, Duration::from_secs(30)) {
            Ok(resp) if resp.is_degraded() => degraded += 1,
            Ok(resp) => {
                assert_eq!(
                    resp.items(),
                    expected[history].as_slice(),
                    "completed result {i} must be bit-identical to the fault-free run"
                );
                exact += 1;
            }
            Err(
                ServeError::WorkerLost | ServeError::DeadlineExceeded | ServeError::Overloaded,
            ) => errors += 1,
            Err(other) => panic!("untyped loss on request {i}: {other:?}"),
        }
    }
    assert_eq!(exact + degraded + errors, total as u64, "every ticket accounted for");
    assert!(exact > 0, "some requests must complete exactly even under chaos");
    assert!(failpoint::hits("panic_in_worker") > 0, "the storm must reach the failpoints");

    failpoint::disarm_all();
    let stats = engine.shutdown_stats();
    let m = stats.snapshot;
    assert_eq!(m.requests, total as u64);
    assert_eq!(
        stats.latency_us.count,
        m.requests,
        "metric form of no-ticket-lost under the full storm"
    );
    assert_eq!(m.worker_panics, m.worker_respawns, "unlimited budget heals every panic");
}

#[test]
fn unarmed_failpoints_leave_the_engine_bit_identical() {
    let _chaos = chaos();
    // Nothing armed: the instrumented engine must behave exactly like
    // the offline path — the failpoint fast path is a single atomic
    // load and must not perturb results.
    let engine = Engine::start(trained_model(), EngineConfig::default());
    for history in histories(6) {
        let miss = engine.recommend(&history, 5).expect("fault-free serve");
        let hit = engine.recommend(&history, 5).expect("fault-free cache hit");
        let offline = engine.model().recommend(&history, 5);
        assert_eq!(miss, offline);
        assert_eq!(hit, offline);
        assert_eq!(miss.source(), ResponseSource::Batch);
        assert_eq!(hit.source(), ResponseSource::Cache);
    }
    let stats = engine.shutdown_stats();
    let m = stats.snapshot;
    assert_eq!(m.worker_panics + m.dropped_batches + m.deadline_misses, 0);
    assert_eq!(m.degraded_responses, 0);
    assert_eq!(stats.latency_us.count, m.requests);
    assert_eq!(stats.compute_us.count, m.requests);
}

#[test]
fn worker_panic_dump_reconstructs_the_poisoned_batch_chain() {
    let _chaos = chaos();
    failpoint::arm("panic_in_worker", Schedule::FirstN(1), FailAction::Panic);

    let sink = vsan_obs::MemorySink::new();
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default()
            .with_workers(1)
            .with_max_batch(4)
            .with_cache_capacity(0)
            .with_fault_sink(std::sync::Arc::new(sink.clone())),
    );
    for history in histories(8) {
        let _ = wait_within(engine.submit(&history, 5), Duration::from_secs(30));
    }
    assert!(failpoint::fired("panic_in_worker") > 0, "the panic must fire");
    engine.shutdown();

    // Every fault-sink line — events, dump header, dump records — must
    // be a valid single-line JSON object.
    let lines = sink.lines();
    for line in &lines {
        vsan_obs::parse(line).unwrap_or_else(|e| panic!("unparseable fault JSONL: {e}: {line}"));
    }

    // The worker panic dumps the flight recorder: locate the bundle and
    // slice out exactly the records it declares.
    let dump_at = lines
        .iter()
        .position(|l| {
            let v = vsan_obs::parse(l).expect("parsed above");
            v.get("type").and_then(vsan_obs::JsonValue::as_str) == Some("flight_dump")
                && v.get("fault").and_then(vsan_obs::JsonValue::as_str) == Some("worker_panic")
        })
        .expect("a worker panic must dump the flight recorder");
    let header = vsan_obs::parse(&lines[dump_at]).expect("parsed above");
    let declared = header.get("records").and_then(vsan_obs::JsonValue::as_u64).expect("records");
    assert!(declared > 0, "the dump must carry the spans leading up to the panic");

    // (trace_id, span_id, parent_span_id, stage) per dumped record.
    let records: Vec<(String, String, String, String)> = lines
        [dump_at + 1..dump_at + 1 + declared as usize]
        .iter()
        .map(|l| {
            let v = vsan_obs::parse(l).expect("parsed above");
            assert_eq!(v.get("type").and_then(vsan_obs::JsonValue::as_str), Some("flight_record"));
            let s = |k: &str| {
                v.get(k).and_then(vsan_obs::JsonValue::as_str).expect("string field").to_string()
            };
            (s("trace_id"), s("span_id"), s("parent_span_id"), s("stage"))
        })
        .collect();

    // The poisoned batch's compute spans were recorded *before* the
    // failpoint fired, so each reconstructs its full causal chain —
    // admission → pickup → compute — entirely from the dump.
    let by_span: HashMap<&str, &(String, String, String, String)> =
        records.iter().map(|r| (r.1.as_str(), r)).collect();
    let computes: Vec<_> = records.iter().filter(|r| r.3 == "compute").collect();
    assert!(!computes.is_empty(), "the poisoned batch must leave compute spans in the dump");
    for c in computes {
        let pickup = by_span.get(c.2.as_str()).expect("compute's parent span in dump");
        assert_eq!(pickup.3, "pickup", "compute must chain to a pickup span");
        assert_eq!(pickup.0, c.0, "trace id constant along the chain");
        let admission = by_span.get(pickup.2.as_str()).expect("pickup's parent span in dump");
        assert_eq!(admission.3, "admission", "pickup must chain to the admission root");
        assert_eq!(admission.2, "0000000000000000", "admission is the root (no parent)");
        assert_eq!(admission.0, c.0, "trace id constant along the chain");
    }
}

/// Spin (bounded) until `cond` holds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let due = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < due, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn shutdown_drops_a_backlog_of_refreshes_without_running_them() {
    let _chaos = chaos();
    // Put the one worker to sleep inside a batch, then queue session
    // refreshes behind it.
    failpoint::arm("slow_compute", Schedule::FirstN(1), FailAction::SleepMs(500));
    let engine =
        Engine::start(trained_model(), EngineConfig::default().with_workers(1).with_cache_capacity(0));
    let ticket = engine.submit(&histories(1)[0], 5);
    wait_until("the worker to fall asleep", || failpoint::fired("slow_compute") == 1);

    for user in 0..8u32 {
        let item = user % 8 + 1;
        let resp = engine.append_event(u64::from(user), None, item, 3).expect("append");
        assert_eq!(resp.items(), &engine.model().recommend(&[item], 3)[..]);
    }
    let before = engine.metrics();
    assert_eq!(before.session_refreshes + before.session_refresh_skipped, 0, "the worker is asleep");

    // Shutdown closes the admission queue first; the worker wakes up to
    // eight refreshes nobody will read, and must not spend eight full
    // passes on them before it lets the engine go.
    let after = engine.shutdown();
    assert_eq!(after.session_refreshes, before.session_refreshes, "shutdown ran a queued refresh");
    assert_eq!(after.session_refresh_skipped, 8, "every queued refresh is dropped, and counted");
    wait_within(ticket, Duration::from_secs(30)).expect("the sleeping batch still resolves");
}

#[test]
fn a_panic_inside_a_refresh_is_isolated_and_healed_like_a_batch_panic() {
    let _chaos = chaos();
    failpoint::arm("panic_in_worker", Schedule::FirstN(1), FailAction::Panic);
    let engine = Engine::start(trained_model(), EngineConfig::default().with_workers(1));

    // The reply does not wait for the refresh, so the panic cannot touch
    // it; the worker dies at the end of the refresh and is respawned.
    let resp = engine.append_event(5, None, 3, 3).expect("append");
    assert_eq!(resp.items(), &engine.model().recommend(&[3], 3)[..]);
    wait_until("the respawn", || engine.metrics().worker_respawns == 1);

    // The session is unharmed, and the new worker takes over its
    // refreshes and ordinary batches alike.
    let resp = engine.append_event(5, None, 5, 3).expect("append after the panic");
    assert_eq!(resp.source(), ResponseSource::Session);
    assert_eq!(resp.items(), &engine.model().recommend(&[3, 5], 3)[..]);
    wait_until("a refresh on the respawned worker", || engine.metrics().session_refreshes == 2);
    assert_eq!(engine.recommend(&[1, 2, 3], 3).expect("batch"), engine.model().recommend(&[1, 2, 3], 3));

    let m = engine.shutdown();
    assert_eq!((m.worker_panics, m.worker_respawns), (1, 1));
    assert_eq!(m.session_cold_starts, 1, "the second event found the session resident");
}
