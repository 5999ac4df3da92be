//! Property suite for the session store's bookkeeping: LRU eviction
//! order against a reference recency model, TTL expiry with fabricated
//! instants, longest-prefix lookup correctness, and the
//! eviction-never-corrupts-a-sibling guarantee (ISSUE 6 satellite).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use vsan_session::{EvictReason, SessionConfig, SessionStore};

proptest! {
    #[test]
    fn lru_eviction_matches_a_reference_recency_model(
        capacity in 1usize..6,
        accesses in collection::vec(0u64..12, 1..80),
    ) {
        let now = Instant::now();
        let mut store = SessionStore::new(&SessionConfig::new().with_capacity(capacity));
        // Reference model: users ordered most-recent-first.
        let mut recency: VecDeque<u64> = VecDeque::new();
        for &user in &accesses {
            let (_, evictions) = store.get_or_create(user, now);
            recency.retain(|&u| u != user);
            recency.push_front(user);
            let mut expected = Vec::new();
            while recency.len() > capacity {
                expected.push(recency.pop_back().unwrap());
            }
            let got: Vec<u64> = evictions.iter().map(|e| e.user).collect();
            prop_assert_eq!(&got, &expected, "evictions diverged from the LRU model");
            for e in &evictions {
                prop_assert_eq!(e.reason, EvictReason::Capacity);
            }
            prop_assert!(store.len() <= capacity);
            prop_assert_eq!(store.len(), recency.len());
        }
    }

    #[test]
    fn longest_prefix_lookup_returns_the_longest_true_prefix(
        histories in collection::vec(collection::vec(1u32..5, 0..6), 1..8),
        query in collection::vec(1u32..5, 0..8),
    ) {
        let now = Instant::now();
        let mut store = SessionStore::new(&SessionConfig::new().with_capacity(64));
        for (user, history) in histories.iter().enumerate() {
            let (arc, _) = store.get_or_create(user as u64, now);
            store.commit(user as u64, &arc, history.clone(), true, history.len() * 4, now);
        }
        match store.longest_prefix_of(&query, u64::MAX) {
            Some(hit) => {
                // The hit is a true prefix of the query…
                prop_assert!(query.starts_with(&hit.history));
                // …its snapshot matches what was committed…
                prop_assert_eq!(&hit.history, &histories[hit.user as usize]);
                // …and no resident prefix is longer.
                for h in &histories {
                    if query.starts_with(h.as_slice()) {
                        prop_assert!(h.len() <= hit.history.len());
                    }
                }
            }
            None => {
                for h in &histories {
                    prop_assert!(!query.starts_with(h.as_slice()));
                }
            }
        }
    }
}

#[test]
fn ttl_expires_idle_sessions_and_spares_active_ones() {
    let t0 = Instant::now();
    let ttl = Duration::from_millis(1500);
    let mut store = SessionStore::new(&SessionConfig::new().with_capacity(8).with_ttl(Some(ttl)));
    // Staggered by less than the TTL so nobody expires during setup.
    for (user, offset_ms) in [(1u64, 0u64), (2, 500), (3, 1000)] {
        let (arc, _) = store.get_or_create(user, t0 + Duration::from_millis(offset_ms));
        store.commit(user, &arc, vec![user as u32], true, 4, t0 + Duration::from_millis(offset_ms));
    }
    // At t0+2.1s: user 1 idle 2.1s and user 2 idle 1.6s (> ttl) expire;
    // user 3 idle 1.1s survives.
    let evictions = store.sweep(t0 + Duration::from_millis(2100));
    let mut gone: Vec<u64> = evictions.iter().map(|e| e.user).collect();
    gone.sort_unstable();
    assert_eq!(gone, vec![1, 2]);
    assert!(evictions.iter().all(|e| e.reason == EvictReason::Ttl));
    assert_eq!(store.len(), 1);
    assert!(store.snapshot(3).is_some());

    // An expired session is also dropped (and reported) on direct access.
    let (_, evs) = store.get_or_create(3, t0 + Duration::from_millis(10_000));
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].user, 3);
    assert_eq!(evs[0].reason, EvictReason::Ttl);
    // …and immediately recreated fresh.
    let (snap, prepared) = store.snapshot(3).unwrap();
    assert!(snap.is_empty());
    assert!(!prepared);
}

#[test]
fn eviction_never_corrupts_an_in_flight_sibling() {
    let now = Instant::now();
    let mut store = SessionStore::new(&SessionConfig::new().with_capacity(1));
    let (held, _) = store.get_or_create(7, now);
    held.lock().unwrap().history = vec![1, 2, 3];
    store.commit(7, &held, vec![1, 2, 3], true, 12, now);

    // Capacity pressure evicts user 7 while we still hold its entry.
    let (_, evictions) = store.get_or_create(8, now);
    assert_eq!(evictions.len(), 1);
    assert_eq!(evictions[0].user, 7);
    assert!(store.snapshot(7).is_none());

    // The held entry is alive and fully usable: eviction dropped the
    // slot, not the state.
    assert_eq!(Arc::strong_count(&held), 1);
    {
        let mut guard = held.lock().unwrap();
        assert_eq!(guard.history, vec![1, 2, 3]);
        guard.history.push(4);
    }
    // Committing re-registers the evicted session (evicting the LRU
    // occupant in turn) — exactly what an in-flight append does.
    let evictions = store.commit(7, &held, vec![1, 2, 3, 4], true, 16, now);
    assert_eq!(evictions.len(), 1);
    assert_eq!(evictions[0].user, 8);
    let (snap, prepared) = store.snapshot(7).unwrap();
    assert_eq!(snap, &[1, 2, 3, 4]);
    assert!(prepared);
}

#[test]
fn refresh_bookkeeping_reads_the_slot_and_nothing_else() {
    let now = Instant::now();
    let mut store = SessionStore::new(&SessionConfig::new().with_capacity(2));
    let (one, _) = store.get_or_create(1, now);
    store.commit(1, &one, vec![4], false, 8, now);
    let (two, _) = store.get_or_create(2, now);
    store.commit(2, &two, vec![5], false, 8, now);

    // One queued refresh per resident session; none for a stranger.
    assert!(store.request_refresh(1));
    assert!(!store.request_refresh(1));
    assert!(!store.request_refresh(9));
    assert!(store.take_for_refresh(9).is_none());
    assert_eq!(store.len(), 2, "a refresh never creates a slot");

    // Taking clears the flag and publishing marks the snapshot prepared
    // — without making user 1 any younger: it is still the LRU victim.
    let taken = store.take_for_refresh(1).expect("resident");
    assert!(Arc::ptr_eq(&taken, &one));
    assert!(store.request_refresh(1), "taken: the next event may ask again");
    assert!(store.publish_refreshed(1, &taken, 16));
    assert_eq!(store.snapshot(1), Some((&[4u32][..], true)));
    assert_eq!(store.bytes(), 16 + 8);
    let (_, evictions) = store.get_or_create(3, now);
    assert_eq!(evictions.iter().map(|e| e.user).collect::<Vec<_>>(), vec![1]);

    // Evicted, then re-created under a new entry: the old refresh has
    // nothing to publish to and must not re-register anything.
    assert!(!store.publish_refreshed(1, &taken, 16));
    let (fresh, _) = store.get_or_create(1, now);
    assert!(!store.publish_refreshed(1, &taken, 16), "same user, different entry");
    assert_eq!(store.snapshot(1), Some((&[][..], false)));
    assert!(store.request_refresh(1), "the flag died with the evicted slot");
    assert!(Arc::ptr_eq(&store.take_for_refresh(1).expect("resident"), &fresh));
}

#[test]
fn remove_reports_absence() {
    let now = Instant::now();
    let mut store = SessionStore::new(&SessionConfig::default());
    assert!(!store.remove(5));
    let (_, _) = store.get_or_create(5, now);
    assert!(store.remove(5));
    assert!(store.is_empty());
    assert_eq!(store.bytes(), 0);
}
