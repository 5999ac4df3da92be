//! Property tests for the admission queue's backpressure policies.
//!
//! Three laws, sampled over random capacities, policies, and op
//! sequences (`PROPTEST_CASES` controls the sample count, like
//! upstream proptest):
//!
//! 1. **Bound** — queue depth never exceeds the configured capacity, at
//!    any point, under any interleaving of pushes and pops.
//! 2. **FIFO shedding** — `ShedOldest` always evicts the current front:
//!    the eviction order is exactly submission order, and what remains
//!    pops as the newest-capacity suffix, still FIFO.
//! 3. **Conservation** — every submitted item is accounted for exactly
//!    once: popped + still-queued + expired + shed == submitted, and
//!    each push reports exactly one outcome.
//!
//! Every scripted push carries an already-elapsed deadline, so a `Block`
//! push on a full queue gives up at once (`Expired`) instead of waiting.

use proptest::prelude::*;

use vsan_serve::{AdmissionQueue, BackpressurePolicy, PopOutcome, PushOutcome};

/// One scripted queue operation, decoded from sampled integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(BackpressurePolicy),
    Pop,
}

fn decode(op: u8) -> Op {
    match op % 5 {
        // Pushes outnumber pops 3:2 so full-queue behaviour is reached.
        0 | 2 => Op::Push(BackpressurePolicy::Block),
        1 => Op::Push(BackpressurePolicy::ShedOldest),
        _ => Op::Pop,
    }
}

proptest! {
    #[test]
    fn depth_never_exceeds_capacity(
        capacity in 1usize..8,
        ops in collection::vec(0u8..=255, 0..120),
    ) {
        let q = AdmissionQueue::new(capacity);
        let mut next_id = 0u64;
        for &op in &ops {
            match decode(op) {
                Op::Push(policy) => {
                    q.push(next_id, policy, Some(std::time::Instant::now()));
                    next_id += 1;
                }
                Op::Pop => {
                    // Non-blocking: an already-elapsed deadline pops an
                    // item if present and times out otherwise.
                    let _ = q.pop_until(std::time::Instant::now());
                }
            }
            prop_assert!(
                q.len() <= capacity,
                "depth {} exceeded capacity {capacity}",
                q.len()
            );
        }
    }

    #[test]
    fn shed_oldest_evicts_in_fifo_order(
        capacity in 1usize..8,
        extra in 0usize..12,
    ) {
        let q = AdmissionQueue::new(capacity);
        let total = capacity + extra;
        let mut evicted = Vec::new();
        for id in 0..total as u64 {
            match q.push(id, BackpressurePolicy::ShedOldest, None) {
                PushOutcome::Queued => {}
                PushOutcome::Shed { evicted: e } => evicted.push(e),
                other => panic!("ShedOldest never rejects: {other:?}"),
            }
        }
        // Evictions are exactly the oldest `extra` items, oldest first.
        let expected_evicted: Vec<u64> = (0..extra as u64).collect();
        prop_assert_eq!(&evicted, &expected_evicted);
        // The survivors are the newest `capacity` items, still FIFO.
        let mut popped = Vec::new();
        while let PopOutcome::Item(id) = q.pop_until(std::time::Instant::now()) {
            popped.push(id);
        }
        let expected_left: Vec<u64> = (extra as u64..total as u64).collect();
        prop_assert_eq!(&popped, &expected_left);
    }

    #[test]
    fn every_item_is_accounted_for_exactly_once(
        capacity in 1usize..6,
        ops in collection::vec(0u8..=255, 0..200),
    ) {
        let q = AdmissionQueue::new(capacity);
        let mut submitted = 0u64;
        let (mut expired, mut shed, mut popped) = (0usize, 0usize, 0usize);
        for &op in &ops {
            match decode(op) {
                Op::Push(policy) => {
                    match q.push(submitted, policy, Some(std::time::Instant::now())) {
                        PushOutcome::Queued => {}
                        PushOutcome::Expired { .. } => expired += 1,
                        PushOutcome::Shed { .. } => shed += 1,
                        other => panic!("open unblocked queue: {other:?}"),
                    }
                    submitted += 1;
                }
                Op::Pop => {
                    if let PopOutcome::Item(_) = q.pop_until(std::time::Instant::now()) {
                        popped += 1;
                    }
                }
            }
        }
        // A shed push still queues its newcomer, so the ledger closes:
        prop_assert_eq!(
            popped + q.len() + expired + shed,
            submitted as usize,
            "popped {} + queued {} + expired {} + shed {} != submitted {}",
            popped, q.len(), expired, shed, submitted
        );
        // Drain after close: everything still queued must come out.
        q.close();
        let mut drained = 0usize;
        while let PopOutcome::Item(_) = q.pop() {
            drained += 1;
        }
        prop_assert_eq!(popped + drained + expired + shed, submitted as usize);
    }

    #[test]
    fn closed_queue_refuses_all_policies(
        policy_bits in 0u8..=255,
        capacity in 1usize..4,
    ) {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(capacity);
        q.close();
        let policy = match decode(policy_bits) {
            Op::Push(p) => p,
            Op::Pop => BackpressurePolicy::Block,
        };
        prop_assert!(matches!(q.push(9, policy, None), PushOutcome::Closed { item: 9 }));
        prop_assert!(matches!(q.pop(), PopOutcome::Closed));
    }
}
