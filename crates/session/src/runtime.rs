//! The streaming session runtime: ties the [`SessionStore`] to
//! `vsan-core`'s prepare/append schedule and implements the per-event
//! protocol behind `Engine::append_event` (DESIGN.md §11):
//!
//! 1. resolve the session (own entry → exact-history sibling →
//!    cold start), never erroring on a miss or eviction — those just
//!    cost a transparent full prepare;
//! 2. fold the event in with one `O(n·d²)` append pass, bit-identical
//!    to a full recompute of the grown history;
//! 3. re-prepare the state for the grown history (the state caches a
//!    fixed *window*, so every append re-aligns slots — see the DESIGN
//!    section for why this is the bit-exact formulation for VSAN's
//!    left-padded, absolutely-positioned windows);
//! 4. commit the snapshot and report any evictions to the caller.
//!
//! All four steps run synchronously on the calling worker, under the
//! session's entry lock: step 2's logits are returned only after step 3
//! has finished, so a warm event's latency is append *plus* prepare, and
//! the prepare is nearly all of it (DESIGN.md §11 has the measured
//! split).
//!
//! With `VSAN_DISABLE_FAST_PATH=1` the incremental path is bypassed
//! entirely: every event is a full recompute through whatever path
//! `Vsan::try_score_items_batch` routes to. The differential suites run
//! both ways.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vsan_core::{fast_path_disabled, SessionState, Vsan, Workspace};
use vsan_obs::recorder::FlightRecorder;
use vsan_obs::trace::{TraceContext, TraceSpan, TraceStage};

use crate::store::{Eviction, SessionConfig, SessionStore};

/// Lock a mutex, shrugging off poisoning: a panicking worker can only
/// ever leave an entry *unprepared* (prepare clears the flag before
/// touching buffers), so the recovery path is always a cold start, never
/// corrupt state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How an event was served, for `session.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The user's prepared state matched the pre-append history exactly:
    /// one append pass, no prepare on the hot path.
    Append,
    /// A cached prefix was resumed. `replayed` counts the hinted events
    /// the cache had not seen (0 = an exact-history sibling state was
    /// reused verbatim).
    Resumed {
        /// Hinted events recomputed because the cache had not seen them.
        replayed: usize,
    },
    /// Nothing cached (first event, or evicted): transparent full
    /// prepare.
    ColdStart,
    /// The hint contradicted the cached history; the cached state was
    /// discarded and rebuilt.
    Reset,
}

impl SessionOutcome {
    /// Snake-case wire name, for metrics and structured logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            SessionOutcome::Append => "append",
            SessionOutcome::Resumed { .. } => "resumed",
            SessionOutcome::ColdStart => "cold_start",
            SessionOutcome::Reset => "reset",
        }
    }

    /// Stable numeric wire code, used as the trace-span attribute of
    /// session stages.
    pub fn code(&self) -> u64 {
        match self {
            SessionOutcome::Append => 0,
            SessionOutcome::Resumed { .. } => 1,
            SessionOutcome::ColdStart => 2,
            SessionOutcome::Reset => 3,
        }
    }
}

/// Trace hookup for one traced append: where to record, the parent
/// session span, and the engine's time origin. Purely observational —
/// [`SessionRuntime::append_event_traced`] computes identical bits with
/// or without it (the §8 telemetry rule).
#[derive(Clone, Copy)]
pub struct SessionTrace<'a> {
    /// The engine's flight recorder.
    pub recorder: &'a FlightRecorder,
    /// The session-stage context sub-stages hang off.
    pub ctx: TraceContext,
    /// The engine's origin instant `at_us` is measured from.
    pub origin: Instant,
}

fn us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

impl SessionTrace<'_> {
    /// Record one sub-stage as a child of the session span: `started`
    /// is when the stage began (its elapsed time is the duration).
    fn record(&self, stage: TraceStage, started: Instant, attr: u64) {
        self.recorder.record(&TraceSpan {
            ctx: self.ctx.child(stage.code()),
            stage,
            at_us: us(self.origin.elapsed()),
            dur_us: us(started.elapsed()),
            attr,
        });
    }
}

/// What one [`SessionRuntime::append_event`] produced.
#[derive(Debug)]
pub struct AppendResult {
    /// Last-position logits for the grown history — bit-identical to a
    /// full recompute.
    pub logits: Vec<f32>,
    /// The session's history *after* the append.
    pub history: Vec<u32>,
    /// How the event was served.
    pub outcome: SessionOutcome,
    /// Sessions evicted while serving this event (LRU/TTL).
    pub evictions: Vec<Eviction>,
}

/// Point-in-time store occupancy, for gauges.
#[derive(Debug, Clone, Copy)]
pub struct SessionStats {
    /// Live sessions.
    pub sessions: usize,
    /// Resident bytes across all session states.
    pub bytes: usize,
}

/// Shared, thread-safe session runtime. One per engine; workers call
/// [`Self::append_event`] concurrently with their own workspaces —
/// appends to different users never contend beyond the brief store
/// lock.
pub struct SessionRuntime {
    store: Mutex<SessionStore>,
    /// The all-padding donor window, computed once: every prepare copies
    /// its leading padding rows instead of recomputing them.
    pad: SessionState,
    stateless: bool,
}

impl SessionRuntime {
    /// Build a runtime for `model` (computes the shared all-padding
    /// donor state once). `capacity = 0` makes every event a stateless
    /// full recompute.
    pub fn new(model: &Vsan, cfg: &SessionConfig) -> Result<Self, String> {
        Ok(SessionRuntime {
            store: Mutex::new(SessionStore::new(cfg)),
            pad: model.pad_session_state()?,
            stateless: cfg.capacity == 0,
        })
    }

    /// Live-session / resident-byte gauges.
    pub fn stats(&self) -> SessionStats {
        let store = lock(&self.store);
        SessionStats { sessions: store.len(), bytes: store.bytes() }
    }

    /// Drop `user`'s session. `false` when it was not resident.
    pub fn end_session(&self, user: u64) -> bool {
        lock(&self.store).remove(user)
    }

    /// TTL sweep + LRU trim (what a supervisor calls periodically so
    /// idle sessions do not linger until the next event).
    pub fn sweep(&self, now: Instant) -> Vec<Eviction> {
        lock(&self.store).sweep(now)
    }

    /// Fold one event into `user`'s session and return logits for the
    /// grown history.
    ///
    /// `hint` is the client's view of the pre-append history: `None`
    /// trusts the cached history; `Some` cross-checks it (a divergent
    /// hint resets the session — the hint wins, since only the client
    /// knows the truth). Misses, evictions, and resets are all served
    /// transparently by full recompute; the only errors are genuine
    /// model errors (e.g. out-of-vocabulary ids).
    pub fn append_event(
        &self,
        model: &Vsan,
        user: u64,
        hint: Option<&[u32]>,
        item: u32,
        ws: &mut Workspace,
        now: Instant,
    ) -> Result<AppendResult, String> {
        self.append_event_traced(model, user, hint, item, ws, now, None)
    }

    /// [`Self::append_event`] with optional per-stage trace recording:
    /// resolve / prepare / apply / commit sub-spans hang off
    /// `trace.ctx` in the engine's flight recorder. The trace hookup is
    /// write-only — logits, history, outcome, and evictions are
    /// bit-identical with `trace` present or `None`.
    #[allow(clippy::too_many_arguments)]
    pub fn append_event_traced(
        &self,
        model: &Vsan,
        user: u64,
        hint: Option<&[u32]>,
        item: u32,
        ws: &mut Workspace,
        now: Instant,
        trace: Option<SessionTrace<'_>>,
    ) -> Result<AppendResult, String> {
        let stage_start = Instant::now();
        if self.stateless {
            let mut history = hint.unwrap_or_default().to_vec();
            history.push(item);
            let logits = model
                .try_score_items_batch(&[model.fold_in_window(&history)])?
                .pop()
                .unwrap_or_default();
            if let Some(t) = &trace {
                t.record(TraceStage::SessionPrepare, stage_start, history.len() as u64);
            }
            return Ok(AppendResult {
                logits,
                history,
                outcome: SessionOutcome::ColdStart,
                evictions: Vec::new(),
            });
        }

        // 1. Own slot + (when the hint can't be served from it) the best
        //    cached prefix, under one brief store lock. Entry locks are
        //    never taken while the store is locked.
        let (entry_arc, sibling) = {
            let mut store = lock(&self.store);
            let (arc, evictions) = store.get_or_create(user, now);
            let need_sibling = match (hint, store.snapshot(user)) {
                (Some(h), Some((snap, prepared))) => !(prepared && snap == h),
                (Some(_), None) => true,
                (None, _) => false,
            };
            let sibling =
                if need_sibling { store.longest_prefix_of(hint.unwrap(), user) } else { None };
            (arc, (sibling, evictions))
        };
        let (sibling, mut evictions) = sibling;

        // 2. Session states are pure functions of history, so an
        //    *exact*-history sibling state is reusable verbatim. Clone it
        //    outside every lock-pair (snapshot may be stale: re-verify
        //    under the sibling's own lock).
        let sibling_state: Option<SessionState> = sibling.and_then(|hit| {
            let query = hint.unwrap_or_default();
            if hit.history.len() != query.len() {
                return None;
            }
            let guard = lock(&hit.entry);
            (guard.state.is_prepared() && guard.history == query).then(|| guard.state.clone())
        });

        // 3. Serve the event under the entry lock.
        let mut entry = lock(&entry_arc);
        let pre: Vec<u32> = match hint {
            Some(h) => h.to_vec(),
            None => entry.history.clone(),
        };
        let prepared_for_pre = entry.state.is_prepared() && entry.history == pre;
        let divergent =
            entry.state.is_prepared() && !prepared_for_pre && !pre.starts_with(&entry.history);
        let prior_len = if entry.state.is_prepared() { Some(entry.history.len()) } else { None };
        let sibling_used = !prepared_for_pre && sibling_state.is_some();
        let outcome = if prepared_for_pre {
            SessionOutcome::Append
        } else if divergent {
            SessionOutcome::Reset
        } else if sibling_used {
            SessionOutcome::Resumed { replayed: 0 }
        } else if let Some(len) = prior_len {
            SessionOutcome::Resumed { replayed: pre.len() - len }
        } else {
            SessionOutcome::ColdStart
        };
        if let Some(t) = &trace {
            t.record(TraceStage::SessionResolve, stage_start, outcome.code());
        }

        let logits = if fast_path_disabled() {
            // Graph-oracle mode: bypass the incremental path entirely.
            let stage_start = Instant::now();
            entry.state.clear();
            let mut full = pre;
            full.push(item);
            let row = model
                .try_score_items_batch(&[model.fold_in_window(&full)])?
                .pop()
                .unwrap_or_default();
            entry.history = full;
            if let Some(t) = &trace {
                t.record(TraceStage::SessionPrepare, stage_start, entry.history.len() as u64);
            }
            row
        } else {
            if !prepared_for_pre {
                let stage_start = Instant::now();
                match sibling_state {
                    Some(state) => entry.state = state,
                    None => {
                        model.prepare_session_into(&pre, Some(&self.pad), &mut entry.state, ws)?
                    }
                }
                if let Some(t) = &trace {
                    t.record(TraceStage::SessionPrepare, stage_start, pre.len() as u64);
                }
            }
            let stage_start = Instant::now();
            let row = model.append_session_logits(&entry.state, item, ws)?;
            entry.history = pre;
            entry.history.push(item);
            // Re-prepare for the grown history so the *next* event is a
            // pure append. (Split the guard so the history borrow and
            // the state borrow don't alias through `Deref`.)
            let crate::store::SessionEntry { history, state } = &mut *entry;
            model.prepare_session_into(history, Some(&self.pad), state, ws)?;
            if let Some(t) = &trace {
                t.record(TraceStage::SessionApply, stage_start, entry.history.len() as u64);
            }
            row
        };

        let history = entry.history.clone();
        let prepared = entry.state.is_prepared();
        let bytes = entry.state.bytes() + history.len() * std::mem::size_of::<u32>();
        drop(entry);

        // 4. Publish the snapshot; eviction may fire here (never at us —
        //    we are the freshest tick).
        let stage_start = Instant::now();
        evictions.extend(lock(&self.store).commit(user, &entry_arc, history.clone(), prepared, bytes, now));
        if let Some(t) = &trace {
            t.record(TraceStage::SessionCommit, stage_start, evictions.len() as u64);
        }
        Ok(AppendResult { logits, history, outcome, evictions })
    }
}
