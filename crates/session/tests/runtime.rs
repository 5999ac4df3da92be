//! Runtime-level differential tests: `SessionRuntime::append_event`
//! must serve every event — across users, evictions, divergent hints,
//! sibling reuse, and any schedule of `refresh` around them — with
//! logits bit-identical to a full recompute of the same history, and
//! classify each event's outcome correctly.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use vsan_core::{Vsan, VsanConfig, Workspace};
use vsan_session::{EvictReason, Eviction, SessionConfig, SessionOutcome, SessionRuntime};

fn tiny_model() -> Vsan {
    let mut cfg = VsanConfig::smoke().with_threads(1);
    cfg.base.dim = 6;
    cfg.base.max_seq_len = 6;
    Vsan::init(11, &cfg)
}

fn oracle(model: &Vsan, history: &[u32]) -> Vec<f32> {
    model
        .try_score_items_batch(&[model.fold_in_window(history)])
        .expect("oracle")
        .pop()
        .unwrap()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn appends_match_recompute_under_capacity_pressure() {
    let model = tiny_model();
    let runtime = SessionRuntime::new(&model, &SessionConfig::new().with_capacity(2)).unwrap();
    let mut ws = Workspace::new();
    let now = Instant::now();

    // Three users through a 2-slot store: user rotation forces steady
    // evictions, every post-eviction event must transparently cold-start
    // with the right logits. The client supplies its history as the hint
    // (what makes eviction recoverable at all — the server-side copy
    // died with the slot).
    let mut histories: Vec<Vec<u32>> = vec![Vec::new(); 3];
    for i in 0..18u32 {
        let user = (i % 3) as u64;
        let item = 1 + (i * 5 + 2) % 10;
        let hint = histories[user as usize].clone();
        let r = runtime
            .append_event(&model, user, Some(&hint), item, &mut ws, now)
            .expect("append never errors on eviction");
        histories[user as usize].push(item);
        assert_eq!(r.history, histories[user as usize]);
        assert_bits_eq(&r.logits, &oracle(&model, &r.history));
        // With capacity 2 and three round-robin users, every return to a
        // user finds it evicted: a cold start, or a free sibling resume
        // when another user happens to share the exact history. Never a
        // warm append, never an error.
        assert!(
            matches!(
                r.outcome,
                SessionOutcome::ColdStart | SessionOutcome::Resumed { replayed: 0 }
            ),
            "event {i}: {:?}",
            r.outcome
        );
    }
    assert_eq!(runtime.stats().sessions, 2);
    assert!(runtime.stats().bytes > 0);
}

#[test]
fn warm_sessions_append_and_hints_govern_resume_reset() {
    let model = tiny_model();
    let runtime = SessionRuntime::new(&model, &SessionConfig::new().with_capacity(8)).unwrap();
    let mut ws = Workspace::new();
    let now = Instant::now();

    // First event: not resident. It leaves the state stale and asks for
    // exactly one refresh.
    let r = runtime.append_event(&model, 1, None, 3, &mut ws, now).unwrap();
    assert_eq!(r.outcome, SessionOutcome::ColdStart);
    assert!(r.needs_refresh);

    // Refreshed in time: a pure append. A second refresh has nothing
    // left to do.
    assert_eq!(runtime.refresh(&model, 1, &mut ws), Ok(true));
    assert_eq!(runtime.refresh(&model, 1, &mut ws), Ok(false));
    let r = runtime.append_event(&model, 1, Some(&[3]), 5, &mut ws, now).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Append);
    assert_bits_eq(&r.logits, &oracle(&model, &[3, 5]));

    // Not refreshed: resident, one event behind — the event prepares for
    // itself, and does not ask for a second refresh while the first is
    // still owed.
    assert!(r.needs_refresh);
    let r = runtime.append_event(&model, 1, Some(&[3, 5]), 7, &mut ws, now).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Resumed { replayed: 1 });
    assert!(!r.needs_refresh, "one refresh per user in flight");
    assert_bits_eq(&r.logits, &oracle(&model, &[3, 5, 7]));

    // Hint runs ahead of the cache (client saw events we did not):
    // resume replays the gap.
    assert_eq!(runtime.refresh(&model, 1, &mut ws), Ok(true));
    let r = runtime.append_event(&model, 1, Some(&[3, 5, 7, 2, 8]), 4, &mut ws, now).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Resumed { replayed: 2 });
    assert_bits_eq(&r.logits, &oracle(&model, &[3, 5, 7, 2, 8, 4]));

    // Divergent hint: the cached history is not a prefix — reset, hint
    // wins. Decided from the history, so a stale state (no refresh ran
    // since the last event) resets all the same.
    let r = runtime.append_event(&model, 1, Some(&[9, 9]), 1, &mut ws, now).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Reset);
    assert_bits_eq(&r.logits, &oracle(&model, &[9, 9, 1]));
    assert_eq!(r.history, vec![9, 9, 1]);

    // A refresh after the reset prepares the *new* history, whichever
    // event asked for it: its fresh state is reused verbatim by a new
    // user with the exact same history.
    assert_eq!(runtime.refresh(&model, 1, &mut ws), Ok(true));
    let r = runtime.append_event(&model, 2, Some(&[9, 9, 1]), 6, &mut ws, now).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Resumed { replayed: 0 });
    assert_bits_eq(&r.logits, &oracle(&model, &[9, 9, 1, 6]));

    // end_session drops the state; a refresh still owed finds nobody,
    // and the next event cold-starts from the hint.
    assert!(runtime.end_session(2));
    assert!(!runtime.end_session(2));
    assert_eq!(runtime.refresh(&model, 2, &mut ws), Ok(false));
    let r = runtime.append_event(&model, 2, Some(&[2]), 3, &mut ws, now).unwrap();
    // (user 1's [9,9,1] is not a prefix of [2], so no sibling reuse.)
    assert_eq!(r.outcome, SessionOutcome::ColdStart);
    assert_bits_eq(&r.logits, &oracle(&model, &[2, 3]));
}

#[test]
fn capacity_zero_is_stateless_full_recompute() {
    let model = tiny_model();
    let runtime = SessionRuntime::new(&model, &SessionConfig::new().with_capacity(0)).unwrap();
    let mut ws = Workspace::new();
    let now = Instant::now();
    for hint in [vec![], vec![4, 2], vec![1, 2, 3, 4, 5, 6, 7, 8]] {
        let r = runtime.append_event(&model, 1, Some(&hint), 9, &mut ws, now).unwrap();
        assert_eq!(r.outcome, SessionOutcome::ColdStart);
        let mut full = hint.clone();
        full.push(9);
        assert_bits_eq(&r.logits, &oracle(&model, &full));
    }
    assert_eq!(runtime.stats().sessions, 0);
}

#[test]
fn model_errors_surface_without_poisoning_the_session() {
    let model = tiny_model();
    let runtime = SessionRuntime::new(&model, &SessionConfig::default()).unwrap();
    let mut ws = Workspace::new();
    let now = Instant::now();
    runtime.append_event(&model, 1, None, 3, &mut ws, now).unwrap();
    // Out-of-vocabulary item: a genuine error…
    assert!(runtime.append_event(&model, 1, None, 4000, &mut ws, now).is_err());
    // …that leaves the session serving correctly afterwards.
    let r = runtime.append_event(&model, 1, None, 5, &mut ws, now).unwrap();
    assert_bits_eq(&r.logits, &oracle(&model, &[3, 5]));
}

#[test]
fn an_event_that_cannot_be_served_evicts_no_one_and_leaves_no_slot() {
    let model = tiny_model();
    let runtime = SessionRuntime::new(&model, &SessionConfig::new().with_capacity(1)).unwrap();
    let mut ws = Workspace::new();
    let now = Instant::now();
    runtime.append_event(&model, 1, None, 3, &mut ws, now).unwrap();

    // A different user, out-of-vocabulary in the item and then in the
    // hint: rejected before the store is touched. Creating user 2's slot
    // would have evicted user 1 from the one-slot store.
    assert!(runtime.append_event(&model, 2, None, 4000, &mut ws, now).is_err());
    assert!(runtime.append_event(&model, 2, Some(&[4000]), 3, &mut ws, now).is_err());
    assert_eq!(runtime.stats().sessions, 1);
    assert!(!runtime.end_session(2), "the failed events left no slot behind");

    // User 1 is still resident: its server-side history survived.
    let r = runtime.append_event(&model, 1, None, 5, &mut ws, now).unwrap();
    assert_ne!(r.outcome, SessionOutcome::ColdStart);
    assert!(r.evictions.is_empty());
    assert_eq!(r.history, vec![3, 5]);
    assert_bits_eq(&r.logits, &oracle(&model, &[3, 5]));

    // An id the model never reads — beyond the window the item shares —
    // is not grounds for rejection (n = 6: the window is the hint's last
    // five ids plus the item).
    let r = runtime.append_event(&model, 1, Some(&[4000, 1, 2, 3, 4, 5]), 6, &mut ws, now).unwrap();
    assert_bits_eq(&r.logits, &oracle(&model, &[1, 2, 3, 4, 5, 6]));
}

/// `(user, reason)` of one operation's evictions, in a canonical order
/// (the TTL scan walks a hash map).
fn evicted(mut evictions: Vec<Eviction>) -> Vec<(u64, bool)> {
    evictions.sort_by_key(|e| e.user);
    evictions.iter().map(|e| (e.user, e.reason == EvictReason::Ttl)).collect()
}

proptest! {
    /// Any schedule of refreshes around any sequence of events, ends and
    /// sweeps: every reply is the graph oracle's row for the grown
    /// history, and everything the store does — histories, evictions,
    /// occupancy — is what the same sequence does with no refresh at
    /// all. `twin` is that second run.
    #[test]
    fn replies_and_evictions_do_not_depend_on_the_refresh_schedule(
        capacity in 0usize..4,
        ops in collection::vec((0u8..10, 0u64..4, 0u8..4, 1u32..10), 1..40),
    ) {
        let model = tiny_model();
        let cfg = SessionConfig::new().with_capacity(capacity).with_ttl(Some(Duration::from_millis(6)));
        let runtime = SessionRuntime::new(&model, &cfg).unwrap();
        let twin = SessionRuntime::new(&model, &cfg).unwrap();
        let mut ws = Workspace::new();
        let t0 = Instant::now();
        let live = capacity > 0;
        // What each client holds, and what this test knows of the store:
        // who is resident, whose state a refresh has made fresh.
        let mut client: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let mut resident = [false; 4];
        let mut fresh = [false; 4];
        let drop_evicted = |evs: &[(u64, bool)], resident: &mut [bool; 4], fresh: &mut [bool; 4]| {
            for &(u, _) in evs {
                resident[u as usize] = false;
                fresh[u as usize] = false;
            }
        };

        for (step, &(kind, user, hint_kind, item)) in ops.iter().enumerate() {
            // One fabricated millisecond per operation: idle users expire.
            let now = t0 + Duration::from_millis(step as u64);
            let u = user as usize;
            match kind {
                0..=5 => {
                    let mut hint = client[u].clone();
                    let agrees = match hint_kind {
                        0 => None,
                        1 => Some(true),
                        2 => {
                            hint.extend([item % 9 + 1, 2]);
                            Some(false)
                        }
                        _ => {
                            // Contradicts any cached history: events carry
                            // 1..=9, so none is a prefix of `[10, item]`.
                            hint = vec![10, item];
                            Some(false)
                        }
                    };
                    let hint = agrees.map(|_| hint.as_slice());
                    let a = runtime.append_event(&model, user, hint, item, &mut ws, now).unwrap();
                    let b = twin.append_event(&model, user, hint, item, &mut ws, now).unwrap();

                    let graph = model.score_items_batch_graph(&[model.fold_in_window(&a.history)]).unwrap();
                    assert_bits_eq(&a.logits, &graph[0]);
                    prop_assert_eq!(&a.history, &b.history);
                    if let Some(h) = hint {
                        prop_assert_eq!(&a.history[..h.len()], h);
                    }
                    prop_assert_eq!(a.history.last(), Some(&item));
                    let evs = evicted(a.evictions);
                    prop_assert_eq!(&evs, &evicted(b.evictions), "step {}: a refresh moved an eviction", step);

                    // A pure append is exactly: refreshed since the last
                    // event, still resident, and the hint (if any) agrees.
                    drop_evicted(&evs, &mut resident, &mut fresh);
                    let expect_append = fresh[u] && agrees != Some(false);
                    prop_assert_eq!(a.outcome == SessionOutcome::Append, expect_append, "step {}: {:?}", step, a.outcome);
                    prop_assert_ne!(b.outcome, SessionOutcome::Append, "nothing refreshes the twin");
                    if !resident[u] {
                        prop_assert!(
                            matches!(a.outcome, SessionOutcome::ColdStart | SessionOutcome::Resumed { replayed: 0 }),
                            "step {}: {:?} for a user that is not resident", step, a.outcome
                        );
                    }
                    resident[u] = capacity > 0;
                    fresh[u] = false;
                    client[u] = a.history;
                }
                6 | 7 => {
                    // Does work exactly when there is a resident, stale
                    // state: never after an eviction or an end, never
                    // twice in a row.
                    let did = runtime.refresh(&model, user, &mut ws).unwrap();
                    prop_assert_eq!(did, live && resident[u] && !fresh[u], "step {}", step);
                    fresh[u] |= did;
                }
                8 => {
                    prop_assert_eq!(runtime.end_session(user), twin.end_session(user));
                    resident[u] = false;
                    fresh[u] = false;
                }
                _ => {
                    let evs = evicted(runtime.sweep(now));
                    prop_assert_eq!(&evs, &evicted(twin.sweep(now)));
                    drop_evicted(&evs, &mut resident, &mut fresh);
                }
            }
            prop_assert_eq!(runtime.stats().sessions, twin.stats().sessions);
            prop_assert_eq!(runtime.stats().sessions, resident.iter().filter(|&&r| r).count());
        }
    }
}

/// An appender and a refresher race on one user for 1 000 rounds while
/// the appender also drives a second user through the one-slot store, so
/// every round evicts and re-creates: replies stay exact whichever side
/// wins each race, and the test finishing is the no-deadlock assertion
/// (events lock entry → store, and so does the refresh).
#[test]
fn an_appender_and_a_refresher_racing_on_one_user_stay_exact() {
    let model = tiny_model();
    let runtime = SessionRuntime::new(&model, &SessionConfig::new().with_capacity(1)).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let refreshed = std::thread::scope(|scope| {
        let refresher = scope.spawn(|| {
            let mut ws = Workspace::new();
            let mut refreshed = 0u32;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                for user in [1, 2] {
                    refreshed += u32::from(runtime.refresh(&model, user, &mut ws).unwrap());
                }
            }
            refreshed
        });
        let mut ws = Workspace::new();
        let now = Instant::now();
        let mut histories = [Vec::new(), Vec::new()];
        for round in 0..1_000u32 {
            // Two events for user 1 (the second may find the state
            // fresh, stale, or mid-refresh), then one for user 2, which
            // evicts user 1 — possibly under the refresher's feet.
            for (user, item) in [(1u64, round % 10 + 1), (1, round % 7 + 1), (2, round % 9 + 1)] {
                let history = &mut histories[user as usize - 1];
                let r = runtime.append_event(&model, user, Some(history), item, &mut ws, now).unwrap();
                history.push(item);
                assert_eq!(&r.history, history);
                assert_bits_eq(&r.logits, &oracle(&model, history));
            }
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        refresher.join().expect("refresher thread")
    });
    assert_eq!(runtime.stats().sessions, 1);
    assert!(refreshed > 0, "the refresher never won a single race in 3 000 events");
}
