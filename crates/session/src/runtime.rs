//! The streaming session runtime: ties the [`SessionStore`] to
//! `vsan-core`'s prepare/append schedule and implements the per-event
//! protocol behind `Engine::append_event` (DESIGN.md §11):
//!
//! 1. reject an event the model cannot serve (out-of-vocabulary ids)
//!    before the store is touched, so it evicts no one and leaves no
//!    slot behind;
//! 2. resolve the session (own entry → exact-history sibling → cold
//!    start), never erroring on a miss or eviction — those just cost a
//!    transparent full prepare;
//! 3. if the state is not fresh for the pre-append history, prepare it;
//!    then fold the event in with one `O(n·d²)` append pass,
//!    bit-identical to a full recompute of the grown history;
//! 4. store the grown history, mark the state *stale* (it is now one
//!    event behind; the buffers are kept), commit the snapshot and
//!    report any evictions — and whether a refresh should be scheduled.
//!
//! The reply is ready after step 4. Preparing the state for the grown
//! history — one full pass — is [`SessionRuntime::refresh`], which the
//! caller runs off the reply path (the serve engine hands it to its
//! worker pool). The state caches a fixed *window*, so every append
//! re-aligns slots and that pass cannot be skipped, only moved: see the
//! DESIGN section for why this is the bit-exact formulation for VSAN's
//! left-padded, absolutely-positioned windows. An event that arrives
//! before its refresh finds the state stale and pays the prepare itself
//! in step 3 (exactly what a resume does); one that arrives during it
//! waits on the entry lock and appends. Either way the logits are a
//! function of the history alone — the schedule moves time, never bits.
//!
//! The one full-recompute mode is a deployment setting: with
//! `capacity = 0` every event is a stateless
//! `Vsan::try_score_items_batch` call and `refresh` is a no-op.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vsan_core::{SessionState, Vsan, Workspace};
use vsan_obs::recorder::FlightRecorder;
use vsan_obs::trace::{TraceContext, TraceSpan, TraceStage};

use crate::store::{Eviction, SessionConfig, SessionEntry, SessionStore};

/// Lock a mutex, shrugging off poisoning: a panicking worker can only
/// ever leave an entry *unprepared* (prepare clears the flag before
/// touching buffers), so the recovery path is always a full prepare,
/// never corrupt state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How an event was served, for `session.*` metrics. Decided from the
/// session's *history* (is the user resident, does the hint agree with
/// what is cached); only [`Self::Append`] also asks whether the state
/// was fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The user's state was fresh for the pre-append history — the
    /// refresh got there first: one append pass, no prepare on the
    /// reply path.
    Append,
    /// The user was resident and the hint extends what is cached.
    /// `replayed` counts the events the state had not seen: 1 when the
    /// state was merely stale (one event behind), more when the hint
    /// runs ahead of the cache, 0 when an exact-history sibling state
    /// was reused verbatim.
    Resumed {
        /// Events recomputed because the state had not seen them.
        replayed: usize,
    },
    /// Not resident (first event, evicted, or ended): transparent full
    /// prepare.
    ColdStart,
    /// The hint contradicted the cached history; the session was
    /// rebuilt from the hint.
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

/// Trace hookup for one traced append or refresh: where to record, the
/// parent session span, and the engine's time origin. Purely
/// observational — [`SessionRuntime::append_event`] and
/// [`SessionRuntime::refresh`] compute identical bits with or without it
/// (the §8 telemetry rule).
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
        self.record_salted(stage, 0, started, attr);
    }

    /// [`Self::record`] for a second span of the same stage under the
    /// same parent: `salt` keeps the siblings' span ids apart (the
    /// `TraceContext::child` convention, above the stage code).
    fn record_salted(&self, stage: TraceStage, salt: u64, started: Instant, attr: u64) {
        self.recorder.record(&TraceSpan {
            ctx: self.ctx.child(stage.code() | salt << 8),
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
    /// Sessions evicted (by LRU capacity) while serving this event.
    pub evictions: Vec<Eviction>,
    /// `true` when the caller should schedule one
    /// [`SessionRuntime::refresh`] for this user: the state is now one
    /// event behind and no refresh is in flight for it.
    pub needs_refresh: bool,
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

    /// Fold one event into `user`'s session and return logits for the
    /// grown history. Returns after the append pass: the state is left
    /// stale and [`AppendResult::needs_refresh`] says whether the caller
    /// should schedule a [`Self::refresh`].
    ///
    /// `hint` is the client's view of the pre-append history: `None`
    /// trusts the cached history; `Some` cross-checks it (a divergent
    /// hint resets the session — the hint wins, since only the client
    /// knows the truth). Misses, evictions, and resets are all served
    /// transparently by full recompute; the only errors are genuine
    /// model errors (out-of-vocabulary ids), raised before the store is
    /// touched.
    ///
    /// With `trace`, resolve / prepare / apply / commit sub-spans hang
    /// off `trace.ctx` in the engine's flight recorder. The hookup is
    /// write-only — logits, history, outcome, and evictions are
    /// bit-identical with `trace` present or `None`.
    pub fn append_event(
        &self,
        model: &Vsan,
        user: u64,
        hint: Option<&[u32]>,
        item: u32,
        ws: &mut Workspace,
        trace: Option<SessionTrace<'_>>,
    ) -> Result<AppendResult, String> {
        let stage_start = Instant::now();
        // 1. A request that cannot be served must not evict anyone or
        //    leave a slot: check every id the model would read — the
        //    item and the hint's tail that shares its window — first. (A
        //    cached history needs no check: it got in this way.)
        let n = model.config().base.max_seq_len;
        let hinted = hint.unwrap_or_default();
        let read = hinted[hinted.len().saturating_sub(n.saturating_sub(1))..].iter().chain([&item]);
        if let Some(bad) = read.copied().find(|&id| id as usize >= model.vocab()) {
            return Err(format!("item id {bad} out of vocabulary ({})", model.vocab()));
        }

        if self.stateless {
            let mut history = hinted.to_vec();
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
                needs_refresh: false,
            });
        }

        // 2. Own slot + (when the hint can't be served from it) the best
        //    cached prefix, under one brief store lock. Entry locks are
        //    never taken while the store is locked.
        let (entry_arc, sibling, mut evictions) = {
            let mut store = lock(&self.store);
            let (arc, evictions) = store.get_or_create(user, stage_start);
            let need_sibling = match (hint, store.snapshot(user)) {
                (Some(h), Some((snap, prepared))) => !(prepared && snap == h),
                (Some(_), None) => true,
                (None, _) => false,
            };
            let sibling = if need_sibling { store.longest_prefix_of(hinted, user) } else { None };
            (arc, sibling, evictions)
        };

        //    Session states are pure functions of history, so an
        //    *exact*-history sibling state is reusable verbatim. Clone it
        //    outside every lock-pair (snapshot may be stale: re-verify
        //    under the sibling's own lock).
        let sibling_state: Option<SessionState> = sibling.and_then(|hit| {
            if hit.history.len() != hinted.len() {
                return None;
            }
            let guard = lock(&hit.entry);
            (guard.state.is_prepared() && guard.history == hinted).then(|| guard.state.clone())
        });

        //    Classify under the entry lock, from the history: resident or
        //    not, hint agreeing or not. Only `Append` asks about the
        //    state, which is stale for most resident entries.
        let mut entry = lock(&entry_arc);
        let pre: Vec<u32> = match hint {
            Some(h) => h.to_vec(),
            None => entry.history.clone(),
        };
        let resident = !entry.history.is_empty();
        let fresh = entry.state.is_prepared();
        let outcome = if fresh && entry.history == pre {
            SessionOutcome::Append
        } else if resident && !pre.starts_with(&entry.history) {
            SessionOutcome::Reset
        } else if sibling_state.is_some() {
            SessionOutcome::Resumed { replayed: 0 }
        } else if resident {
            // A stale state is one event behind its history.
            let seen = entry.history.len() - usize::from(!fresh);
            SessionOutcome::Resumed { replayed: pre.len() - seen }
        } else {
            SessionOutcome::ColdStart
        };
        if let Some(t) = &trace {
            t.record(TraceStage::SessionResolve, stage_start, outcome.code());
        }

        // 3. The reply.
        if outcome != SessionOutcome::Append {
            let stage_start = Instant::now();
            match sibling_state {
                Some(state) => entry.state = state,
                None => model.prepare_session_into(&pre, Some(&self.pad), &mut entry.state, ws)?,
            }
            // State and history move together, so an entry never holds a
            // state prepared for some other history.
            entry.history = pre;
            if let Some(t) = &trace {
                t.record(TraceStage::SessionPrepare, stage_start, entry.history.len() as u64);
            }
        }
        let stage_start = Instant::now();
        let logits = model.append_session_logits(&entry.state, item, ws)?;
        entry.history.push(item);
        // One event behind now. Preparing for the grown history is
        // `refresh`'s job, off the reply path; the buffers stay.
        entry.state.clear();
        if let Some(t) = &trace {
            t.record(TraceStage::SessionApply, stage_start, entry.history.len() as u64);
        }

        // 4. Publish the snapshot, still under the entry lock (entry →
        //    store is the lock order) so a refresh never sees a state and
        //    a snapshot that disagree; eviction may fire here (never at
        //    us — we are the freshest tick).
        let stage_start = Instant::now();
        let history = entry.history.clone();
        let bytes = entry.state.bytes() + history.len() * std::mem::size_of::<u32>();
        let needs_refresh = {
            let mut store = lock(&self.store);
            let committed = store.commit(user, &entry_arc, history.clone(), false, bytes, stage_start);
            evictions.extend(committed);
            store.request_refresh(user)
        };
        drop(entry);
        if let Some(t) = &trace {
            t.record(TraceStage::SessionCommit, stage_start, evictions.len() as u64);
        }
        Ok(AppendResult { logits, history, outcome, evictions, needs_refresh })
    }

    /// Prepare `user`'s stale state for its current history, off the
    /// reply path. `Ok(true)` when a state was prepared and published;
    /// `Ok(false)` when there was nothing to do — the user is not
    /// resident (evicted, ended, never seen), the state is already
    /// fresh, or the incremental path is off (`capacity = 0`).
    ///
    /// A refresh only ever *reads* the store's bookkeeping: it does not
    /// touch LRU order, creates no slot, and publishes nothing
    /// for an entry the store no longer holds, so the sequence of
    /// evictions is the same with or without it. It runs under the entry
    /// lock; an event for the same user waits there and then appends.
    ///
    /// With `trace`, the pass is a `session_prepare` span under
    /// `trace.ctx` — the `session` span of the event that asked for the
    /// refresh.
    pub fn refresh(
        &self,
        model: &Vsan,
        user: u64,
        ws: &mut Workspace,
        trace: Option<SessionTrace<'_>>,
    ) -> Result<bool, String> {
        if self.stateless {
            return Ok(false);
        }
        let Some(entry_arc) = lock(&self.store).take_for_refresh(user) else {
            return Ok(false);
        };
        let mut entry = lock(&entry_arc);
        if entry.state.is_prepared() {
            return Ok(false);
        }
        let stage_start = Instant::now();
        // (Split the guard so the history borrow and the state borrow
        // don't alias through `Deref`.)
        let SessionEntry { history, state } = &mut *entry;
        model.prepare_session_into(history, Some(&self.pad), state, ws)?;
        if let Some(t) = &trace {
            // Salted: the event may have recorded a prepare of its own.
            t.record_salted(TraceStage::SessionPrepare, 1, stage_start, history.len() as u64);
        }
        let bytes = state.bytes() + history.len() * std::mem::size_of::<u32>();
        Ok(lock(&self.store).publish_refreshed(user, &entry_arc, bytes))
    }
}
