//! Deterministic fault-injection registry.
//!
//! A *failpoint* is a named site in the serving path where a test can
//! arm a fault: `panic_in_worker` (panic mid-batch or mid-refresh,
//! exercising worker isolation and respawn), `slow_compute` (inject latency before the
//! forward pass, exercising deadlines and saturation), and `drop_batch`
//! (discard a dispatched batch, exercising the no-ticket-lost
//! guarantee). Sites call [`fire`], which is a single relaxed atomic
//! load when nothing is armed — the registry compiles into the release
//! binary but costs nothing until a test arms it.
//!
//! Whether an armed failpoint fires on a given hit is decided by a
//! [`Schedule`] evaluated on the failpoint's own hit counter, not on
//! wall-clock or thread identity. The [`Schedule::Seeded`] variant
//! draws a splitmix64 stream keyed on `(seed, hit_index)`, so a chaos
//! run is reproducible from its seed alone: the same seed and the same
//! submission order produce the same fault pattern.
//!
//! The registry is process-global (tests in one binary share it), so
//! chaos tests serialize on a lock and [`disarm_all`] between cases.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// What an armed failpoint injects when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with payload `"failpoint: <name>"`.
    Panic,
    /// Sleep this many milliseconds at the site.
    SleepMs(u64),
    /// Tell the site to discard the unit of work it is holding.
    DropBatch,
}

/// Decides, per hit, whether an armed failpoint fires.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Fire on every hit.
    Always,
    /// Fire on the first `n` hits only.
    FirstN(u64),
    /// Fire on hit indices in `[start, end)` (0-based).
    HitRange(u64, u64),
    /// Fire on hit `i` iff `splitmix64(seed ^ i) % den < num` — a
    /// deterministic Bernoulli(`num/den`) stream keyed on the seed.
    Seeded {
        /// Stream seed (chaos tests derive it from `VSAN_FAILPOINT_SEED`).
        seed: u64,
        /// Numerator of the firing probability.
        num: u64,
        /// Denominator of the firing probability (clamped to ≥ 1).
        den: u64,
    },
}

impl Schedule {
    fn fires(&self, hit: u64) -> bool {
        match *self {
            Schedule::Always => true,
            Schedule::FirstN(n) => hit < n,
            Schedule::HitRange(start, end) => (start..end).contains(&hit),
            Schedule::Seeded { seed, num, den } => {
                splitmix64(seed ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % den.max(1) < num
            }
        }
    }
}

/// The splitmix64 mixing function (same generator the data-parallel
/// trainer uses to derive per-shard RNG streams).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Armed {
    schedule: Schedule,
    action: FailAction,
    hits: u64,
    fired: u64,
}

/// Number of currently armed failpoints; the [`fire`] fast path.
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Armed>> {
    // A panic between `fire` and the site acting on it cannot leave the
    // map mid-mutation (all mutation happens under the lock, and the
    // armed state is plain data), so poisoning is recoverable.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm `name` with a schedule and an action, resetting its hit counter.
pub fn arm(name: &str, schedule: Schedule, action: FailAction) {
    let mut map = lock();
    if map
        .insert(name.to_string(), Armed { schedule, action, hits: 0, fired: 0 })
        .is_none()
    {
        ARMED_COUNT.fetch_add(1, Ordering::Release);
    }
}

/// Disarm `name`; returns `true` if it was armed.
pub fn disarm(name: &str) -> bool {
    let mut map = lock();
    let was = map.remove(name).is_some();
    if was {
        ARMED_COUNT.fetch_sub(1, Ordering::Release);
    }
    was
}

/// Disarm every failpoint (chaos tests call this between cases).
pub fn disarm_all() {
    let mut map = lock();
    ARMED_COUNT.fetch_sub(map.len(), Ordering::Release);
    map.clear();
}

/// Total hits recorded for `name` since it was armed (0 if unarmed).
pub fn hits(name: &str) -> u64 {
    lock().get(name).map_or(0, |a| a.hits)
}

/// Hits on which `name` actually fired since it was armed (0 if unarmed).
pub fn fired(name: &str) -> u64 {
    lock().get(name).map_or(0, |a| a.fired)
}

/// Evaluate the failpoint `name` at a site: `None` (the overwhelmingly
/// common case — one atomic load when nothing is armed, one map lookup
/// when anything is) or the action to inject on this hit.
pub fn fire(name: &str) -> Option<FailAction> {
    if ARMED_COUNT.load(Ordering::Acquire) == 0 {
        return None;
    }
    let mut map = lock();
    let armed = map.get_mut(name)?;
    let hit = armed.hits;
    armed.hits += 1;
    if armed.schedule.fires(hit) {
        armed.fired += 1;
        Some(armed.action)
    } else {
        None
    }
}

/// Perform `action` at a site that supports panicking and sleeping.
/// Returns `true` when the site should drop its unit of work
/// ([`FailAction::DropBatch`]).
pub(crate) fn act(name: &str, action: FailAction) -> bool {
    match action {
        FailAction::Panic => panic!("failpoint: {name}"),
        FailAction::SleepMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        FailAction::DropBatch => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; unit tests serialize on this.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_is_a_noop() {
        let _guard = serial();
        disarm_all();
        assert_eq!(fire("fp.unarmed"), None);
        assert_eq!(hits("fp.unarmed"), 0);
    }

    #[test]
    fn first_n_fires_exactly_n_times() {
        let _guard = serial();
        disarm_all();
        arm("fp.first", Schedule::FirstN(3), FailAction::DropBatch);
        let fired_count =
            (0..10).filter(|_| fire("fp.first") == Some(FailAction::DropBatch)).count();
        assert_eq!(fired_count, 3);
        assert_eq!(hits("fp.first"), 10);
        assert_eq!(fired("fp.first"), 3);
        assert!(disarm("fp.first"));
        assert_eq!(fire("fp.first"), None);
    }

    #[test]
    fn hit_range_targets_a_window() {
        let _guard = serial();
        disarm_all();
        arm("fp.range", Schedule::HitRange(2, 4), FailAction::SleepMs(0));
        let pattern: Vec<bool> = (0..6).map(|_| fire("fp.range").is_some()).collect();
        assert_eq!(pattern, [false, false, true, true, false, false]);
        disarm_all();
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_seed_sensitive() {
        let _guard = serial();
        disarm_all();
        let run = |seed: u64| -> Vec<bool> {
            arm("fp.seeded", Schedule::Seeded { seed, num: 1, den: 3 }, FailAction::Panic);
            let v = (0..64).map(|_| fire("fp.seeded").is_some()).collect();
            disarm("fp.seeded");
            v
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay the same fault pattern");
        assert_ne!(a, c, "different seeds must differ");
        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((0.05..0.7).contains(&rate), "p=1/3 stream fired at rate {rate}");
        disarm_all();
    }

    #[test]
    fn rearming_resets_counters() {
        let _guard = serial();
        disarm_all();
        arm("fp.rearm", Schedule::Always, FailAction::DropBatch);
        fire("fp.rearm");
        fire("fp.rearm");
        assert_eq!(hits("fp.rearm"), 2);
        arm("fp.rearm", Schedule::Always, FailAction::DropBatch);
        assert_eq!(hits("fp.rearm"), 0, "re-arming must reset the hit counter");
        disarm_all();
    }
}
