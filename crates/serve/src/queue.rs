//! Bounded admission queue with configurable backpressure.
//!
//! The engine's request queue was unbounded until the fault-tolerance
//! layer: under sustained overload an unbounded queue converts excess
//! load into unbounded memory growth and unbounded latency, which is
//! strictly worse than refusing work. This queue enforces a hard depth
//! bound and lets the deployment choose what happens at the bound
//! ([`BackpressurePolicy`]): block the submitter, or shed the oldest
//! queued request (which has already burned the most latency budget and
//! is the most likely to be abandoned).
//!
//! The queue is `Mutex<VecDeque>` + two condvars, the same substrate as
//! the vendored crossbeam channel shim, but with capacity, eviction,
//! and deadline-aware blocking — none of which a plain channel offers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// What [`AdmissionQueue::push`] does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until space frees up (or the
    /// request's deadline expires, or the queue closes). Converts
    /// overload into upstream latency — lossless but contagious.
    #[default]
    Block,
    /// Evict the oldest queued request to admit the newcomer. Keeps the
    /// queue fresh under overload; evictees take the degraded path.
    ShedOldest,
}

/// Outcome of one [`AdmissionQueue::push`].
#[derive(Debug)]
pub enum PushOutcome<T> {
    /// The item was queued.
    Queued,
    /// The item was queued and the oldest entry was evicted to make
    /// room ([`BackpressurePolicy::ShedOldest`]).
    Shed {
        /// The evicted oldest entry.
        evicted: T,
    },
    /// A blocking push gave up because the item's deadline passed
    /// before space freed up ([`BackpressurePolicy::Block`] only).
    Expired {
        /// The expired item, returned to the caller.
        item: T,
    },
    /// The queue is closed and accepts nothing.
    Closed {
        /// The refused item, returned to the caller.
        item: T,
    },
}

/// Outcome of one [`AdmissionQueue::pop`] / [`AdmissionQueue::pop_until`].
#[derive(Debug)]
pub enum PopOutcome<T> {
    /// An item, FIFO order.
    Item(T),
    /// `pop_until` reached its deadline with the queue still empty.
    TimedOut,
    /// The queue is closed **and** fully drained.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC FIFO with explicit backpressure; see the module docs.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signalled when an item arrives or the queue closes (pop side).
    nonempty: Condvar,
    /// Signalled when an item leaves or the queue closes (blocked push side).
    space: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; exact under the caller's own
    /// serialization, advisory otherwise).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // Queue state is plain data mutated only under the lock; a
        // panicking holder cannot leave it mid-mutation, so recovering
        // from poisoning is safe (and required: a worker panic must not
        // brick admission).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offer `item` under `policy`. `deadline` only matters for
    /// [`BackpressurePolicy::Block`]: a blocked push gives up (returning
    /// [`PushOutcome::Expired`]) once the deadline passes.
    pub fn push(
        &self,
        item: T,
        policy: BackpressurePolicy,
        deadline: Option<Instant>,
    ) -> PushOutcome<T> {
        let mut st = self.lock();
        if st.closed {
            return PushOutcome::Closed { item };
        }
        if st.items.len() < self.capacity {
            st.items.push_back(item);
            drop(st);
            self.nonempty.notify_one();
            return PushOutcome::Queued;
        }
        match policy {
            BackpressurePolicy::ShedOldest => {
                let evicted = st.items.pop_front().expect("full queue has a front");
                st.items.push_back(item);
                drop(st);
                self.nonempty.notify_one();
                PushOutcome::Shed { evicted }
            }
            BackpressurePolicy::Block => loop {
                if st.closed {
                    return PushOutcome::Closed { item };
                }
                if st.items.len() < self.capacity {
                    st.items.push_back(item);
                    drop(st);
                    self.nonempty.notify_one();
                    return PushOutcome::Queued;
                }
                match deadline {
                    None => st = self.space.wait(st).expect("queue lock"),
                    Some(due) => {
                        let now = Instant::now();
                        if now >= due {
                            return PushOutcome::Expired { item };
                        }
                        let (guard, _) =
                            self.space.wait_timeout(st, due - now).expect("queue lock");
                        st = guard;
                    }
                }
            },
        }
    }

    /// Take the oldest item, blocking until one arrives or the queue is
    /// closed and drained.
    pub fn pop(&self) -> PopOutcome<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.space.notify_one();
                return PopOutcome::Item(item);
            }
            if st.closed {
                return PopOutcome::Closed;
            }
            st = self.nonempty.wait(st).expect("queue lock");
        }
    }

    /// Take the oldest item, blocking until one arrives, `due` passes,
    /// or the queue is closed and drained.
    pub fn pop_until(&self, due: Instant) -> PopOutcome<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.space.notify_one();
                return PopOutcome::Item(item);
            }
            if st.closed {
                return PopOutcome::Closed;
            }
            let now = Instant::now();
            if now >= due {
                return PopOutcome::TimedOut;
            }
            let (guard, _) = self.nonempty.wait_timeout(st, due - now).expect("queue lock");
            st = guard;
        }
    }

    /// Stop admitting. Queued items remain poppable (the shutdown
    /// drain); blocked pushers and poppers wake immediately.
    pub fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    /// `true` once [`AdmissionQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

impl<T> std::fmt::Debug for AdmissionQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_depth_bound() {
        let q = AdmissionQueue::new(3);
        for i in 0..3 {
            assert!(matches!(q.push(i, BackpressurePolicy::Block, None), PushOutcome::Queued));
        }
        // Full: a blocking push whose deadline has passed gives up at once.
        assert!(matches!(
            q.push(99, BackpressurePolicy::Block, Some(Instant::now())),
            PushOutcome::Expired { item: 99 }
        ));
        assert_eq!(q.len(), 3);
        for want in 0..3 {
            match q.pop() {
                PopOutcome::Item(got) => assert_eq!(got, want),
                other => panic!("expected item, got {other:?}"),
            }
        }
    }

    #[test]
    fn shed_oldest_evicts_the_front() {
        let q = AdmissionQueue::new(2);
        q.push(1, BackpressurePolicy::ShedOldest, None);
        q.push(2, BackpressurePolicy::ShedOldest, None);
        match q.push(3, BackpressurePolicy::ShedOldest, None) {
            PushOutcome::Shed { evicted } => assert_eq!(evicted, 1),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop(), PopOutcome::Item(2)));
        assert!(matches!(q.pop(), PopOutcome::Item(3)));
    }

    #[test]
    fn blocked_push_expires_at_its_deadline() {
        let q = AdmissionQueue::new(1);
        q.push(1, BackpressurePolicy::Block, None);
        let due = Instant::now() + Duration::from_millis(20);
        match q.push(2, BackpressurePolicy::Block, Some(due)) {
            PushOutcome::Expired { item } => assert_eq!(item, 2),
            other => panic!("expected expiry, got {other:?}"),
        }
        assert!(Instant::now() >= due, "push must have blocked until the deadline");
    }

    #[test]
    fn blocked_push_proceeds_when_space_frees() {
        let q = std::sync::Arc::new(AdmissionQueue::new(1));
        q.push(1, BackpressurePolicy::Block, None);
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                q.pop()
            })
        };
        assert!(matches!(q.push(2, BackpressurePolicy::Block, None), PushOutcome::Queued));
        assert!(matches!(popper.join().unwrap(), PopOutcome::Item(1)));
        assert!(matches!(q.pop(), PopOutcome::Item(2)));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = AdmissionQueue::new(4);
        q.push(1, BackpressurePolicy::Block, None);
        q.push(2, BackpressurePolicy::Block, None);
        q.close();
        assert!(matches!(q.push(3, BackpressurePolicy::Block, None), PushOutcome::Closed { .. }));
        assert!(matches!(q.pop(), PopOutcome::Item(1)));
        assert!(matches!(q.pop_until(Instant::now()), PopOutcome::Item(2)));
        assert!(matches!(q.pop(), PopOutcome::Closed));
        assert!(matches!(q.pop_until(Instant::now()), PopOutcome::Closed));
    }

    #[test]
    fn pop_until_times_out_on_an_empty_open_queue() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1);
        let due = Instant::now() + Duration::from_millis(5);
        assert!(matches!(q.pop_until(due), PopOutcome::TimedOut));
        assert!(Instant::now() >= due);
    }

    #[test]
    fn close_wakes_a_blocked_pusher() {
        let q = std::sync::Arc::new(AdmissionQueue::new(1));
        q.push(1, BackpressurePolicy::Block, None);
        let pusher = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.push(2, BackpressurePolicy::Block, None))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(matches!(pusher.join().unwrap(), PushOutcome::Closed { item: 2 }));
    }
}
