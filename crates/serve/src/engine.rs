//! The engine: admission queue → micro-batcher → supervised worker
//! pool, with a cache short-circuit on the submit path and a degraded
//! fallback path around everything.
//!
//! ## Failure semantics (DESIGN.md §9)
//!
//! * Every accepted ticket resolves — to a [`Response`] or a typed
//!   [`ServeError`] — across worker panics, load shedding, and
//!   shutdown. No code path strands a ticket.
//! * Per-request deadlines are enforced at admission (blocking pushes
//!   give up), at batcher pickup (expired requests are rejected
//!   *before* they occupy compute), and at completion.
//! * A panicking worker is caught at the batch boundary
//!   ([`std::panic::catch_unwind`]): untouched requests are requeued
//!   (once each, [`MAX_BATCH_RETRIES`]), the thread exits, and a supervisor
//!   respawns a replacement. When the respawn budget is exhausted and
//!   no worker remains, the engine flips into permanent degraded mode.
//! * Degraded mode (a shed request, a model error, or workers down)
//!   answers from the approximate cache or the popularity fallback (see
//!   [`crate::degrade`]), tagged in [`Response::source`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SendError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vsan_core::Vsan;
use vsan_obs::{
    EventSink, FaultEvent, FaultKind, FlightRecorder, Registry, TraceContext, TraceSpan, TraceStage,
};
use vsan_session::{SessionConfig, SessionOutcome, SessionRuntime, SessionTrace};

use crate::cache::SequenceCache;
use crate::config::EngineConfig;
use crate::degrade::degraded_response;
use crate::failpoint;
use crate::metrics::{as_us, Metrics, ServeStats};
use crate::queue::{AdmissionQueue, BackpressurePolicy, PopOutcome, PushOutcome};

/// How many times a request survives being requeued out of a poisoned
/// batch before failing [`ServeError::WorkerLost`].
const MAX_BATCH_RETRIES: u32 = 1;

/// Failure modes of the serving path. A model-forward error is *not*
/// one of them: it is surfaced through the fault telemetry
/// ([`FaultKind::ModelError`], the `serve.model_errors` counter) and
/// the affected requests resolve through the degraded path — never as
/// fabricated all-zero scores. These are invalid-request, lifecycle and
/// overload outcomes, every one of them part of the resolution
/// guarantee: a ticket either carries a [`Response`] or one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The worker serving this request disappeared before replying and
    /// the retry budget was exhausted (or the batch was dropped).
    WorkerLost,
    /// The ticket's response was already taken by an earlier `poll`.
    ResponseTaken,
    /// The request's deadline expired before a reply was produced.
    DeadlineExceeded,
    /// The engine is saturated (or its workers are down) and no
    /// degraded fallback could produce an answer.
    Overloaded,
    /// The history's fold-in window holds an item id the model does not
    /// know (`item >= vocab`) — the id every scoring path rejects. Raised
    /// at admission, so the request never joins (and never spoils) a
    /// batch.
    InvalidItem {
        /// The first out-of-vocabulary id in the window.
        item: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::WorkerLost => write!(f, "worker exited before replying"),
            ServeError::ResponseTaken => write!(f, "response already taken"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::Overloaded => write!(f, "engine overloaded and no fallback available"),
            ServeError::InvalidItem { item, vocab } => {
                write!(f, "item id {item} out of vocabulary ({vocab})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Where a [`Response`] came from. Anything but [`Self::Batch`] /
/// [`Self::Cache`] / [`Self::Session`] is a degraded answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Computed by the worker pool's batched evaluation forward.
    Batch,
    /// Served from the exact-window sequence cache.
    Cache,
    /// Served by the incremental session path
    /// ([`Engine::append_event`]) — bit-identical to a batch forward of
    /// the same history.
    Session,
    /// Degraded: shortened-window (approximate) cache fallback.
    DegradedCache,
    /// Degraded: static popularity fallback.
    DegradedPopularity,
}

/// A resolved recommendation: the ranked items plus the path that
/// produced them. Dereferences to the item slice, so existing callers
/// that only want the ranking keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    items: Vec<u32>,
    source: ResponseSource,
}

impl Response {
    pub(crate) fn new(items: Vec<u32>, source: ResponseSource) -> Self {
        Response { items, source }
    }

    /// The ranked item ids, best first.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Consume the response, keeping only the ranking.
    pub fn into_items(self) -> Vec<u32> {
        self.items
    }

    /// Which path produced this answer.
    pub fn source(&self) -> ResponseSource {
        self.source
    }

    /// `true` when the answer came from a fallback, not the model.
    pub fn is_degraded(&self) -> bool {
        matches!(self.source, ResponseSource::DegradedCache | ResponseSource::DegradedPopularity)
    }
}

impl std::ops::Deref for Response {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.items
    }
}

impl PartialEq<Vec<u32>> for Response {
    fn eq(&self, other: &Vec<u32>) -> bool {
        &self.items == other
    }
}

impl PartialEq<[u32]> for Response {
    fn eq(&self, other: &[u32]) -> bool {
        self.items == other
    }
}

type Reply = Result<Response, ServeError>;

/// One queued recommendation request.
struct Request {
    history: Vec<u32>,
    k: usize,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Times this request has been requeued out of a poisoned batch.
    attempts: u32,
    reply: Sender<Reply>,
    /// The request's trace context. Minted at admission; *extended* (not
    /// replaced) at each propagation point — pickup and compute re-point
    /// it at the freshly recorded child span, so later spans chain
    /// causally: admission → pickup → compute → retrieval/complete.
    trace: TraceContext,
}

/// Handle to an in-flight (or already answered) request.
///
/// Obtained from [`Engine::submit`]; redeem it with [`Ticket::wait`]
/// (blocking) or [`Ticket::poll`] (non-blocking).
pub struct Ticket(TicketState);

enum TicketState {
    /// Answered at submit time (cache hit, degraded answer, or typed
    /// rejection); `None` once the response has been taken.
    Ready(Option<Reply>),
    Pending(Receiver<Reply>),
}

impl Ticket {
    fn ready(reply: Reply) -> Self {
        Ticket(TicketState::Ready(Some(reply)))
    }

    /// Block until the response arrives.
    pub fn wait(self) -> Reply {
        match self.0 {
            TicketState::Ready(Some(reply)) => reply,
            TicketState::Ready(None) => Err(ServeError::ResponseTaken),
            TicketState::Pending(rx) => rx.recv().unwrap_or(Err(ServeError::WorkerLost)),
        }
    }

    /// Non-blocking check: `Some(response)` exactly once when it is
    /// available, `None` while the request is still in flight.
    pub fn poll(&mut self) -> Option<Reply> {
        let out = match &mut self.0 {
            TicketState::Ready(slot) => slot.take(),
            TicketState::Pending(rx) => match rx.try_recv() {
                Ok(reply) => Some(reply),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
            },
        };
        if out.is_some() {
            self.0 = TicketState::Ready(None);
        }
        out
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.0 {
            TicketState::Ready(Some(_)) => "ready",
            TicketState::Ready(None) => "taken",
            TicketState::Pending(_) => "pending",
        };
        f.debug_tuple("Ticket").field(&state).finish()
    }
}

/// Work units travelling to the workers: batches from the batcher,
/// session refreshes from [`Engine::append_event`].
enum BatchMsg {
    /// A batch of requests to score and answer.
    Work(Vec<Request>),
    /// Prepare `user`'s session state for its grown history, after the
    /// event that grew it has been answered. `trace` is that event's
    /// `session` span, the parent of the prepare span recorded here.
    Refresh { user: u64, trace: TraceContext },
    /// Teardown sentinel: the receiving worker exits.
    Stop,
}

/// Messages to the supervisor thread.
enum Ctrl {
    /// Worker `id` died on a caught panic.
    Died(usize),
    /// The engine is shutting down; stop and join the pool.
    Shutdown,
}

/// State shared between the caller-facing handle, the batcher, the
/// workers, and the supervisor.
struct Inner {
    model: Vsan,
    cache: Mutex<SequenceCache>,
    cache_enabled: bool,
    metrics: Metrics,
    queue: AdmissionQueue<Request>,
    policy: BackpressurePolicy,
    /// Scores for the popularity fallback (`EngineConfig::popularity`).
    popularity: Option<Arc<Vec<f32>>>,
    /// Set once all workers are down with no respawn budget left; every
    /// request from then on takes the degraded path.
    degraded_mode: AtomicBool,
    fault_sink: Option<Arc<dyn EventSink>>,
    /// Engine birth instant: the zero point for span timestamps, so one
    /// run's spans share a single monotonic clock.
    origin: Instant,
    /// Last-N span ring for post-mortem dumps; `None` disables tracing.
    recorder: Option<Arc<FlightRecorder>>,
    trace_seed: u64,
    /// Admission sequence number; with a fixed [`Self::trace_seed`] the
    /// n-th admitted request always gets the same trace id.
    trace_seq: AtomicU64,
    /// Incremental per-user session state behind [`Engine::append_event`].
    session: SessionRuntime,
    /// Workspaces for the caller-thread session path (the worker pool's
    /// workspaces live on the worker threads). Popped per append, pushed
    /// back after: zero steady-state allocation once the pool is warm.
    session_ws: Mutex<Vec<vsan_core::Workspace>>,
    /// Batches dispatched but not yet fully processed. The batcher
    /// stalls at `max_inflight` instead of running ahead of the pool —
    /// without this cap the unbounded batch channel would absorb any
    /// flood and the admission queue's bound would never bind.
    inflight: Mutex<usize>,
    inflight_cv: Condvar,
    max_inflight: usize,
}

impl Inner {
    /// Emit one structured fault event, if a sink is configured. The
    /// severe kinds — a worker panic, the permanent degraded-mode flip,
    /// a session eviction (storm detection happens downstream) — also
    /// dump the flight recorder to the same sink: the last N spans
    /// leading up to the fault, as a self-contained forensic bundle.
    fn fault(&self, kind: FaultKind, detail: &str) {
        if let Some(sink) = &self.fault_sink {
            FaultEvent::new(kind, detail).emit(sink.as_ref());
            if matches!(
                kind,
                FaultKind::WorkerPanic | FaultKind::DegradedMode | FaultKind::SessionEvicted
            ) {
                if let Some(rec) = &self.recorder {
                    rec.dump(sink.as_ref(), kind.as_str(), detail);
                }
            }
        }
    }

    /// Mint a root trace context for a newly admitted request.
    fn mint_trace(&self) -> TraceContext {
        TraceContext::root(self.trace_seed, self.trace_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Record one span into the flight recorder. Observation only: a
    /// no-op when tracing is disabled, and never feeds control flow.
    fn trace(&self, ctx: TraceContext, stage: TraceStage, dur_us: u64, attr: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(&TraceSpan { ctx, stage, at_us: as_us(self.origin.elapsed()), dur_us, attr });
        }
    }

    /// The admission check `submit` and `append_event` share: the first
    /// id among `read` (the ids the model would embed) that is out of
    /// vocabulary rejects the request as [`ServeError::InvalidItem`],
    /// with its latency and a `Rejected` span recorded, before a cache,
    /// a session slot or a worker is touched.
    fn admit(
        &self,
        mut read: impl Iterator<Item = u32>,
        start: Instant,
        trace: TraceContext,
    ) -> Result<(), ServeError> {
        let vocab = self.model.vocab();
        let Some(item) = read.find(|&id| id as usize >= vocab) else { return Ok(()) };
        let elapsed = as_us(start.elapsed());
        self.metrics.latency_us.record_traced(elapsed, self.exemplar(&trace));
        self.span(trace, TraceStage::Rejected, elapsed, 0);
        Err(ServeError::InvalidItem { item, vocab })
    }

    /// Record `stage` as a child span of `parent`.
    fn span(&self, parent: TraceContext, stage: TraceStage, dur_us: u64, attr: u64) {
        self.trace(parent.child(stage.code()), stage, dur_us, attr);
    }

    /// The session runtime's trace hookup under the `session` span
    /// `ctx`; `None` when tracing is disabled.
    fn session_trace(&self, ctx: TraceContext) -> Option<SessionTrace<'_>> {
        self.recorder.as_deref().map(|recorder| SessionTrace { recorder, ctx, origin: self.origin })
    }

    /// The trace id to attach as a histogram exemplar — `0` (no
    /// exemplar) when tracing is disabled, so a tracing-off engine
    /// exports bit-identical telemetry to the pre-tracing engine.
    fn exemplar(&self, ctx: &TraceContext) -> u64 {
        if self.recorder.is_some() {
            ctx.trace_id
        } else {
            0
        }
    }

    /// Lock the cache, recovering from poisoning: if a worker panicked
    /// while holding the lock the contents are suspect, so the cache is
    /// emptied (always safe — it is only a cache) and the poison flag
    /// cleared.
    fn lock_cache(&self) -> MutexGuard<'_, SequenceCache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.cache.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.fault(FaultKind::CachePoisoned, "cache cleared after poisoned lock");
                guard
            }
        }
    }

    /// Produce a degraded reply for `history` (counted + tagged), or
    /// [`ServeError::Overloaded`] when no fallback can answer.
    fn degraded(&self, history: &[u32], k: usize, cause: &str) -> Reply {
        let popularity = self.popularity.as_deref().map(Vec::as_slice);
        match degraded_response(&self.model, &self.cache, popularity, history, k) {
            Some(resp) => {
                match resp.source() {
                    ResponseSource::DegradedCache => self.metrics.degraded_cache.inc(),
                    ResponseSource::DegradedPopularity => self.metrics.degraded_popularity.inc(),
                    _ => {}
                }
                self.fault(FaultKind::Degraded, cause);
                Ok(resp)
            }
            None => {
                self.metrics.overloaded_errors.inc();
                self.fault(FaultKind::Overloaded, cause);
                Err(ServeError::Overloaded)
            }
        }
    }

    /// Record end-to-end latency, close the trace with a `complete`
    /// span, and deliver the reply. Every terminal resolution of a
    /// *queued* request funnels through here (a dropped ticket is fine —
    /// the send just returns an error).
    fn finish(&self, enqueued: Instant, trace: TraceContext, reply_to: &Sender<Reply>, reply: Reply) {
        let elapsed = as_us(enqueued.elapsed());
        self.metrics.latency_us.record_traced(elapsed, self.exemplar(&trace));
        self.span(trace, TraceStage::Complete, elapsed, reply.is_ok() as u64);
        let _ = reply_to.send(reply);
    }

    /// Resolve a queued request through the degraded path.
    fn finish_degraded(&self, req: Request, cause: &str) {
        let reply = self.degraded(&req.history, req.k, cause);
        self.span(req.trace, TraceStage::Degraded, 0, reply.is_ok() as u64);
        self.finish(req.enqueued, req.trace, &req.reply, reply);
    }

    fn lock_inflight(&self) -> MutexGuard<'_, usize> {
        // A plain counter: poisoning cannot leave it inconsistent.
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until the pool has capacity for one more batch. Gives up
    /// waiting (but still takes the slot) once the engine is degraded
    /// or shutting down — in both states the batcher resolves or drains
    /// batches itself and must not deadlock against a dead pool.
    fn acquire_batch_slot(&self) {
        let mut n = self.lock_inflight();
        while *n >= self.max_inflight
            && !self.degraded_mode.load(Ordering::Acquire)
            && !self.queue.is_closed()
        {
            n = self.inflight_cv.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
    }

    /// Mark one dispatched batch as fully processed.
    fn release_batch_slot(&self) {
        let mut n = self.lock_inflight();
        // Requeued panic-survivor batches are dispatched without a slot,
        // so their completion saturates instead of underflowing.
        *n = n.saturating_sub(1);
        drop(n);
        self.inflight_cv.notify_one();
    }

    /// Wake a batcher blocked on the in-flight cap (degraded-mode flip
    /// or shutdown).
    fn wake_batcher(&self) {
        self.inflight_cv.notify_all();
    }

    /// Pop a session workspace (allocating on first use per concurrent
    /// caller). A plain value pool: poisoning cannot apply.
    fn take_session_ws(&self) -> vsan_core::Workspace {
        let mut pool = self.session_ws.lock().unwrap_or_else(PoisonError::into_inner);
        pool.pop().unwrap_or_default()
    }

    /// Return a session workspace to the pool.
    fn put_session_ws(&self, ws: vsan_core::Workspace) {
        let mut pool = self.session_ws.lock().unwrap_or_else(PoisonError::into_inner);
        pool.push(ws);
    }
}

/// The serving engine. See the crate docs for the architecture; create
/// one with [`Engine::start`], stop it with [`Engine::shutdown_stats`] (or
/// just drop it — both drain the queue before joining the threads).
pub struct Engine {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    ctrl_tx: Sender<Ctrl>,
    /// The batch channel, for posting session refreshes to the pool.
    batch_tx: Sender<BatchMsg>,
}

impl Engine {
    /// Spawn the batcher, the worker pool, and the pool supervisor
    /// around a trained model.
    ///
    /// [`EngineConfig::retrieval`] is applied here, before any worker
    /// can score: a clustered index is built deterministically from the
    /// model's *current* parameters, so starting an engine on a
    /// checkpoint-restored model always serves the restored weights —
    /// rebuilding after a reload is this call, not a separate step.
    pub fn start(mut model: Vsan, cfg: EngineConfig) -> Self {
        model.set_retrieval(cfg.retrieval.clone());
        let (max_batch, workers) = (cfg.max_batch.max(1), cfg.workers.max(1));
        let session_cfg = SessionConfig::new().with_capacity(cfg.session_capacity);
        let session = SessionRuntime::new(&model, &session_cfg)
            .expect("session pad state (empty-history prepare cannot hit invalid items)");
        let inner = Arc::new(Inner {
            model,
            cache: Mutex::new(SequenceCache::new(cfg.cache_capacity)),
            cache_enabled: cfg.cache_capacity > 0,
            metrics: Metrics::default(),
            queue: AdmissionQueue::new(cfg.queue_capacity),
            policy: cfg.backpressure,
            popularity: cfg.popularity.clone(),
            degraded_mode: AtomicBool::new(false),
            fault_sink: cfg.fault_sink.clone(),
            origin: Instant::now(),
            recorder: (cfg.recorder_capacity > 0)
                .then(|| Arc::new(FlightRecorder::new(cfg.recorder_capacity))),
            trace_seed: cfg.trace_seed,
            trace_seq: AtomicU64::new(0),
            session,
            session_ws: Mutex::new(Vec::new()),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            // One batch per worker in flight plus one ready behind each:
            // enough to keep the pool saturated, small enough that a
            // flood backs up into the *bounded* admission queue where
            // deadlines and backpressure can see it.
            max_inflight: workers * 2,
        });

        let (batch_tx, batch_rx) = mpsc::channel::<BatchMsg>();
        let (ctrl_tx, ctrl_rx) = mpsc::channel::<Ctrl>();

        let batcher = {
            let inner = Arc::clone(&inner);
            let batch_tx = batch_tx.clone();
            let deadline = cfg.batch_deadline;
            std::thread::Builder::new()
                .name("vsan-serve-batcher".into())
                .spawn(move || batcher_loop(&inner, &batch_tx, max_batch, deadline))
                .expect("spawn batcher thread")
        };

        let ctx = WorkerCtx {
            inner: Arc::clone(&inner),
            batch_rx: Arc::new(Mutex::new(batch_rx)),
            batch_tx: batch_tx.clone(),
            ctrl_tx: ctrl_tx.clone(),
            max_batch,
        };
        let mut handles = HashMap::new();
        for id in 0..workers {
            handles.insert(id, spawn_worker(id, ctx.clone()));
        }
        inner.metrics.workers_alive.set(workers as i64);

        let supervisor = {
            let inner = Arc::clone(&inner);
            let max_respawns = cfg.max_worker_respawns;
            std::thread::Builder::new()
                .name("vsan-serve-supervisor".into())
                .spawn(move || supervisor_loop(&inner, ctx, &ctrl_rx, handles, max_respawns))
                .expect("spawn supervisor thread")
        };

        Engine { inner, batcher: Some(batcher), supervisor: Some(supervisor), ctrl_tx, batch_tx }
    }

    /// Enqueue a request for the top `k` items after `history`, with no
    /// deadline.
    ///
    /// Returns immediately unless the backpressure policy is
    /// [`BackpressurePolicy::Block`] and the queue is full. On a cache
    /// hit, a degraded resolution, or a typed rejection the ticket is
    /// already resolved; otherwise the request rides the next
    /// micro-batch.
    pub fn submit(&self, history: &[u32], k: usize) -> Ticket {
        self.submit_with_deadline(history, k, None)
    }

    /// [`Engine::submit`] with an explicit per-request deadline
    /// (`None` = no deadline), measured from this call.
    pub fn submit_with_deadline(
        &self,
        history: &[u32],
        k: usize,
        deadline: Option<Duration>,
    ) -> Ticket {
        let inner = &*self.inner;
        let metrics = &inner.metrics;
        metrics.requests.inc();
        let start = Instant::now();
        // Every request roots a trace at admission, whatever its fate:
        // the span tree tells shed from served from deadline-missed.
        let trace = inner.mint_trace();
        inner.trace(trace, TraceStage::Admission, 0, history.len() as u64);

        let window = inner.model.fold_in_window(history);
        if let Err(err) = inner.admit(window.iter().copied(), start, trace) {
            return Ticket::ready(Err(err));
        }

        if inner.cache_enabled {
            let hit = inner.lock_cache().get(window);
            if let Some(logits) = hit {
                metrics.cache_hits.inc();
                let recs = rank(&logits, history, k);
                // A cache hit never queues: the whole latency is compute
                // (lookup + rank), and queue-wait records nothing.
                let elapsed = as_us(start.elapsed());
                metrics.compute_us.record_traced(elapsed, inner.exemplar(&trace));
                metrics.latency_us.record_traced(elapsed, inner.exemplar(&trace));
                inner.span(trace, TraceStage::CacheHit, elapsed, k as u64);
                return Ticket::ready(Ok(Response::new(recs, ResponseSource::Cache)));
            }
        }
        metrics.cache_misses.inc();

        if inner.degraded_mode.load(Ordering::Acquire) {
            let reply = inner.degraded(history, k, "workers_down");
            let elapsed = as_us(start.elapsed());
            metrics.latency_us.record_traced(elapsed, inner.exemplar(&trace));
            inner.span(trace, TraceStage::Degraded, elapsed, reply.is_ok() as u64);
            return Ticket::ready(reply);
        }

        let (reply_tx, reply_rx) = mpsc::channel();
        let due = deadline.map(|d| start + d);
        let req = Request {
            history: history.to_vec(),
            k,
            enqueued: start,
            deadline: due,
            attempts: 0,
            reply: reply_tx,
            trace,
        };
        match inner.queue.push(req, inner.policy, due) {
            PushOutcome::Queued => {
                metrics.queue_depth.add(1);
                Ticket(TicketState::Pending(reply_rx))
            }
            PushOutcome::Shed { evicted } => {
                // Net queue depth is unchanged: the evictee left, the
                // newcomer entered. The evictee resolves degraded.
                metrics.shed_oldest.inc();
                inner.fault(FaultKind::Shed, "shed_oldest");
                inner.span(evicted.trace, TraceStage::Shed, 0, 0);
                inner.finish_degraded(evicted, "shed_oldest");
                Ticket(TicketState::Pending(reply_rx))
            }
            PushOutcome::Expired { item } => {
                metrics.deadline_miss_admission.inc();
                inner.fault(FaultKind::DeadlineMiss, "admission");
                inner.span(item.trace, TraceStage::DeadlineMiss, 0, 0);
                inner.finish(item.enqueued, item.trace, &item.reply, Err(ServeError::DeadlineExceeded));
                Ticket(TicketState::Pending(reply_rx))
            }
            PushOutcome::Closed { item } => {
                inner.finish(item.enqueued, item.trace, &item.reply, Err(ServeError::ShuttingDown));
                Ticket(TicketState::Pending(reply_rx))
            }
        }
    }

    /// Blocking recommendation: [`Engine::submit`] + [`Ticket::wait`].
    pub fn recommend(&self, history: &[u32], k: usize) -> Reply {
        self.submit(history, k).wait()
    }

    /// Evict the cache entry for this user's history, if present.
    ///
    /// Call this when the user records a new interaction: the cached
    /// logits for their old window are stale. (The *extended* history
    /// keys a different window, so it would miss anyway — eviction
    /// reclaims the dead entry and keeps semantics obvious.)
    pub fn invalidate(&self, history: &[u32]) -> bool {
        let window = self.inner.model.fold_in_window(history);
        let removed = self.inner.lock_cache().remove(window);
        if !removed {
            // Not an error (racing invalidations are legal), but a high
            // miss rate means callers invalidate windows that never
            // cached — worth a counter, not silence.
            self.inner.metrics.cache_invalidate_misses.inc();
        }
        removed
    }

    /// Fold one interaction event into `user`'s incremental session and
    /// return the top `k` recommendations for the grown history, served
    /// by the prefix-keyed layer-state cache (README § Incremental
    /// sessions) — bit-identical to a batch forward of the same history.
    ///
    /// The reply is computed on the calling thread and returned as soon
    /// as the append pass is done. Preparing the session state for the
    /// *next* event — one full pass — is then posted to the worker pool
    /// as a refresh: an event that arrives after it pays the append pass
    /// alone, one that arrives before it prepares for itself, and the
    /// answer is the same either way.
    ///
    /// `hint` is the client's view of the history *before* this event:
    /// `None` trusts the server-side session; `Some` cross-checks it. A
    /// missing session, an eviction, or a hint running ahead of the
    /// cache are never errors — they cost a transparent recompute,
    /// tagged in the `session.*` metrics. A *contradictory* hint resets
    /// the session (the hint wins) and fires a `session_reset` fault.
    /// An out-of-vocabulary id among those the model would read (`item`
    /// and the hint's tail in its window) is rejected at admission with
    /// [`ServeError::InvalidItem`], as [`Engine::submit`] rejects it; no
    /// session slot is touched. In degraded mode, and on a genuine model
    /// error, the event resolves through the degraded fallback path like
    /// any other request.
    pub fn append_event(
        &self,
        user: u64,
        hint: Option<&[u32]>,
        item: u32,
        k: usize,
    ) -> Result<Response, ServeError> {
        let inner = &*self.inner;
        let metrics = &inner.metrics;
        metrics.requests.inc();
        let start = Instant::now();
        let trace = inner.mint_trace();
        inner.trace(trace, TraceStage::Admission, 0, item as u64);

        // The ids the model reads: `item` and the hint's tail that
        // shares its window (a server-side history got in this way).
        let hinted = hint.unwrap_or_default();
        let tail = inner.model.config().base.max_seq_len.saturating_sub(1);
        let read = hinted[hinted.len().saturating_sub(tail)..].iter().copied().chain([item]);
        inner.admit(read, start, trace)?;

        let degraded_history = || {
            let mut h = hinted.to_vec();
            h.push(item);
            h
        };
        if inner.degraded_mode.load(Ordering::Acquire) {
            let reply = inner.degraded(&degraded_history(), k, "workers_down");
            let elapsed = as_us(start.elapsed());
            metrics.latency_us.record_traced(elapsed, inner.exemplar(&trace));
            inner.span(trace, TraceStage::Degraded, elapsed, reply.is_ok() as u64);
            return reply;
        }

        // The session runtime records its own sub-stage spans (resolve /
        // prepare / apply / commit) as children of this `session` span.
        let sctx = trace.child(TraceStage::Session.code());
        inner.trace(sctx, TraceStage::Session, 0, user);
        let mut ws = inner.take_session_ws();
        let trace_to = inner.session_trace(sctx);
        let result = inner.session.append_event(&inner.model, user, hint, item, &mut ws, trace_to);
        inner.put_session_ws(ws);
        match result {
            Ok(r) => {
                // The state is one event behind: a pool worker catches it
                // up while this thread ranks and replies. (The send only
                // fails once the pool is gone, and then nobody is left to
                // read the state.)
                if r.needs_refresh {
                    let _ = self.batch_tx.send(BatchMsg::Refresh { user, trace: sctx });
                }
                match r.outcome {
                    SessionOutcome::Append => metrics.session_appends.inc(),
                    SessionOutcome::Resumed { .. } => metrics.session_resumes.inc(),
                    SessionOutcome::ColdStart => metrics.session_cold_starts.inc(),
                    SessionOutcome::Reset => {
                        metrics.session_resets.inc();
                        inner.fault(FaultKind::SessionReset, &format!("user-{user}"));
                    }
                }
                for ev in &r.evictions {
                    metrics.session_evictions.inc();
                    inner.fault(FaultKind::SessionEvicted, &format!("user-{} (capacity)", ev.user));
                }
                let stats = inner.session.stats();
                metrics.sessions_live.set(stats.sessions as i64);
                metrics.session_bytes.set(stats.bytes as i64);

                let recs = rank(&r.logits, &r.history, k);
                // Keep the sequence cache coherent for free: these are
                // exactly the logits a batch forward of the grown
                // history would produce, so a subsequent `submit` with
                // the same history hits instead of recomputing.
                if inner.cache_enabled {
                    let window = inner.model.fold_in_window(&r.history).to_vec();
                    inner.lock_cache().insert(window, Arc::new(r.logits));
                }
                let elapsed = as_us(start.elapsed());
                metrics.compute_us.record_traced(elapsed, inner.exemplar(&trace));
                metrics.latency_us.record_traced(elapsed, inner.exemplar(&trace));
                inner.span(trace, TraceStage::Complete, elapsed, 1);
                Ok(Response::new(recs, ResponseSource::Session))
            }
            Err(err) => {
                // Surfaced, never hidden — same contract as a failed
                // batch forward: fault telemetry fires and the request
                // resolves degraded, not with fabricated logits.
                metrics.model_errors.inc();
                inner.fault(FaultKind::ModelError, &err);
                let reply = inner.degraded(&degraded_history(), k, "model_error");
                let elapsed = as_us(start.elapsed());
                metrics.latency_us.record_traced(elapsed, inner.exemplar(&trace));
                inner.span(trace, TraceStage::Degraded, elapsed, reply.is_ok() as u64);
                reply
            }
        }
    }

    /// Drop `user`'s incremental session (logout / end of stream).
    /// `false` when no session was resident.
    pub fn end_session(&self, user: u64) -> bool {
        self.inner.session.end_session(user)
    }

    /// `true` once the engine has permanently fallen back to degraded
    /// answers (all workers down with no respawn budget left).
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded_mode.load(Ordering::Acquire)
    }

    /// Full telemetry: counters plus queue-wait / compute / end-to-end
    /// latency distributions and batch-fill occupancy.
    pub fn stats(&self) -> ServeStats {
        self.inner.metrics.stats()
    }

    /// Emit the engine's metric registry as one JSONL record
    /// (`"type":"serve_metrics"`) to `sink`.
    pub fn export_metrics(&self, sink: &dyn EventSink) {
        self.inner.metrics.emit(sink, "serve_metrics");
    }

    /// The engine's live metric registry — hand it to
    /// [`vsan_obs::ExpositionServer::bind`] to serve Prometheus text
    /// exposition, or to [`vsan_obs::expo::render`] for a one-shot
    /// scrape.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        self.inner.metrics.registry()
    }

    /// The flight recorder holding the last N trace spans, or `None`
    /// when tracing is disabled ([`EngineConfig::recorder_capacity`]
    /// = 0).
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.inner.recorder.clone()
    }

    /// Dump the flight recorder's contents to `sink` as a JSONL
    /// forensic bundle (the same shape a fault-triggered dump emits).
    /// Returns the number of records written; `0` when tracing is
    /// disabled.
    pub fn dump_flight_recorder(&self, sink: &dyn EventSink) -> usize {
        match &self.inner.recorder {
            Some(rec) => rec.dump(sink, "manual", "operator-requested dump"),
            None => 0,
        }
    }

    /// The model being served.
    pub fn model(&self) -> &Vsan {
        &self.inner.model
    }

    /// Graceful shutdown: stop accepting requests, flush every queued
    /// request through the workers, join all threads, and return the
    /// final [`ServeStats`] — drained-queue telemetry includes the
    /// queue-wait / compute split for every request flushed during the
    /// drain. Tickets issued before the call still resolve.
    pub fn shutdown_stats(mut self) -> ServeStats {
        self.close();
        self.inner.metrics.stats()
    }

    fn close(&mut self) {
        // Closing the admission queue wakes blocked submitters (they
        // get `ShuttingDown`) and lets the batcher drain what was
        // already queued, so every accepted request is still answered.
        self.inner.queue.close();
        // The batcher may be parked on the in-flight cap rather than the
        // queue; wake it so it observes the close.
        self.inner.wake_batcher();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        // All work batches are now enqueued; the supervisor stops the
        // workers (one Stop sentinel each), joins them, and resolves
        // anything stranded in the batch channel.
        if let Some(handle) = self.supervisor.take() {
            let _ = self.ctrl_tx.send(Ctrl::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("running", &!self.inner.queue.is_closed())
            .field("workers_alive", &self.inner.metrics.workers_alive.get())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

/// Pop-side bookkeeping: account the dequeue and enforce the pickup
/// deadline. Returns `None` (request already resolved
/// `DeadlineExceeded`) for expired requests — they never reach a batch,
/// so they never occupy compute.
fn pickup(inner: &Inner, mut req: Request) -> Option<Request> {
    inner.metrics.queue_depth.add(-1);
    // Extend the trace: the pickup span's duration is the queue wait so
    // far, and downstream spans (compute, retrieval) chain off it.
    let wait = as_us(req.enqueued.elapsed());
    let pctx = req.trace.child(TraceStage::Pickup.code());
    inner.trace(pctx, TraceStage::Pickup, wait, req.attempts as u64);
    req.trace = pctx;
    if req.deadline.is_some_and(|d| Instant::now() >= d) {
        inner.metrics.deadline_miss_pickup.inc();
        inner.fault(FaultKind::DeadlineMiss, "pickup");
        inner.span(req.trace, TraceStage::DeadlineMiss, 0, 0);
        inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::DeadlineExceeded));
        return None;
    }
    Some(req)
}

/// Coalesce queued requests into batches. A batch opens with the first
/// live request to arrive and is flushed when it reaches `max_batch`,
/// when `deadline` has elapsed since it opened, or when the engine
/// closes the queue (shutdown) — whichever comes first. Expired
/// requests are rejected at pickup and never enter a batch; in
/// degraded mode requests resolve straight through the fallback.
fn batcher_loop(
    inner: &Inner,
    batch_tx: &Sender<BatchMsg>,
    max_batch: usize,
    deadline: Duration,
) {
    loop {
        let first = loop {
            match inner.queue.pop() {
                PopOutcome::Item(req) => {
                    let Some(req) = pickup(inner, req) else { continue };
                    if inner.degraded_mode.load(Ordering::Acquire) {
                        inner.finish_degraded(req, "workers_down");
                        continue;
                    }
                    break req;
                }
                PopOutcome::TimedOut => unreachable!("untimed pop cannot time out"),
                PopOutcome::Closed => return,
            }
        };
        let mut batch = vec![first];
        // The deadline counts from when the first request was
        // *enqueued*, not when the batcher picked it up, so queue wait
        // time is charged against the latency budget.
        let due = batch[0].enqueued + deadline;
        let mut closed = false;
        let flush_counter = loop {
            if batch.len() >= max_batch {
                break &inner.metrics.flush_full;
            }
            if Instant::now() >= due {
                break &inner.metrics.flush_deadline;
            }
            match inner.queue.pop_until(due) {
                PopOutcome::Item(req) => {
                    if let Some(req) = pickup(inner, req) {
                        if inner.degraded_mode.load(Ordering::Acquire) {
                            inner.finish_degraded(req, "workers_down");
                        } else {
                            batch.push(req);
                        }
                    }
                }
                PopOutcome::TimedOut => break &inner.metrics.flush_deadline,
                PopOutcome::Closed => {
                    closed = true;
                    break &inner.metrics.flush_shutdown;
                }
            }
        };
        // Reserve a pool slot; under saturation this blocks here while
        // new requests back up into the bounded admission queue.
        inner.acquire_batch_slot();
        // Top up with whatever accumulated while we waited for the
        // slot: the first request's deadline anchor is long past by
        // then, and those requests would otherwise idle until the
        // *next* slot anyway — fuller batches at strictly lower
        // latency. `pop_until(now)` never waits.
        while !closed && batch.len() < max_batch {
            match inner.queue.pop_until(Instant::now()) {
                PopOutcome::Item(req) => {
                    if let Some(req) = pickup(inner, req) {
                        if inner.degraded_mode.load(Ordering::Acquire) {
                            inner.finish_degraded(req, "workers_down");
                        } else {
                            batch.push(req);
                        }
                    }
                }
                PopOutcome::TimedOut => break,
                PopOutcome::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        flush_counter.inc();
        inner.metrics.batches.inc();
        inner.metrics.batched_requests.add(batch.len() as u64);
        inner.metrics.batch_fill_pct.record((batch.len() * 100 / max_batch) as u64);

        if let Some(action) = failpoint::fire("drop_batch") {
            if failpoint::act("drop_batch", action) {
                inner.release_batch_slot();
                inner.metrics.dropped_batches.inc();
                inner.fault(FaultKind::BatchDropped, "drop_batch failpoint");
                for req in batch {
                    inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::WorkerLost));
                }
                if closed {
                    return;
                }
                continue;
            }
        }

        if inner.degraded_mode.load(Ordering::Acquire) {
            // The pool died while this batch was filling (or while we
            // waited for a slot); resolve it here rather than stranding
            // it in the batch channel.
            inner.release_batch_slot();
            for req in batch {
                inner.finish_degraded(req, "workers_down");
            }
        } else if batch_tx.send(BatchMsg::Work(batch)).is_err() {
            inner.release_batch_slot();
            return;
        }
        if closed {
            return;
        }
    }
}

/// Everything a worker (and the supervisor, to spawn one) needs.
#[derive(Clone)]
struct WorkerCtx {
    inner: Arc<Inner>,
    /// The batch channel's one receiver, shared by the pool: a worker
    /// holds the lock only for its `recv` (see [`next_batch_msg`]).
    batch_rx: Arc<Mutex<Receiver<BatchMsg>>>,
    /// For requeueing the untouched remainder of a poisoned batch.
    batch_tx: Sender<BatchMsg>,
    ctrl_tx: Sender<Ctrl>,
    /// Sizes the per-worker inference workspace at spawn.
    max_batch: usize,
}

/// Take the next message off the shared batch channel. The lock is
/// released as soon as `recv` returns, so the next idle worker queues
/// on it while this one computes; a poisoned lock still guards a
/// consistent receiver.
fn next_batch_msg(batch_rx: &Mutex<Receiver<BatchMsg>>) -> Option<BatchMsg> {
    batch_rx.lock().unwrap_or_else(PoisonError::into_inner).recv().ok()
}

fn spawn_worker(id: usize, ctx: WorkerCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("vsan-serve-worker-{id}"))
        .spawn(move || worker_loop(id, &ctx))
        .expect("spawn worker thread")
}

/// Worker: score batches and refresh session states until told to
/// stop. A panic anywhere in a batch or a refresh is caught at this
/// boundary; the untouched requests are requeued (bounded by the retry
/// budget; a refresh holds none), the supervisor is notified, and the
/// thread exits — the supervisor respawns a replacement.
///
/// Each worker owns one [`vsan_core::Workspace`], pre-sized for
/// `max_batch` fold-ins at spawn, so the inference fast path performs
/// zero steady-state allocation across batches (README § Inference
/// fast path).
fn worker_loop(id: usize, ctx: &WorkerCtx) {
    let mut ws = ctx.inner.model.workspace(ctx.max_batch);
    loop {
        match next_batch_msg(&ctx.batch_rx) {
            None | Some(BatchMsg::Stop) => return,
            Some(BatchMsg::Work(batch)) => {
                let mut slots: Vec<Option<Request>> = batch.into_iter().map(Some).collect();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| process_batch(&ctx.inner, &mut slots, &mut ws)));
                ctx.inner.release_batch_slot();
                if outcome.is_err() {
                    isolate_panic(id, ctx, slots);
                    return;
                }
            }
            Some(BatchMsg::Refresh { user, trace }) => {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| refresh_session(&ctx.inner, user, trace, &mut ws)));
                if outcome.is_err() {
                    isolate_panic(id, ctx, Vec::new());
                    return;
                }
            }
        }
    }
}

/// Run one queued session refresh on a worker. Never fails the engine:
/// a refresh that finds nothing to do (user evicted or ended, state
/// already fresh) is counted and dropped, and so is every refresh still
/// queued once shutdown has closed the admission queue — a state
/// prepared then would never be read.
fn refresh_session(inner: &Inner, user: u64, trace: TraceContext, ws: &mut vsan_core::Workspace) {
    if inner.queue.is_closed() {
        inner.metrics.session_refresh_skipped.inc();
        return;
    }
    match inner.session.refresh(&inner.model, user, ws, inner.session_trace(trace)) {
        Ok(true) => inner.metrics.session_refreshes.inc(),
        Ok(false) => inner.metrics.session_refresh_skipped.inc(),
        Err(err) => {
            inner.metrics.model_errors.inc();
            inner.fault(FaultKind::ModelError, &err);
        }
    }
    // After the runtime has taken the refresh off the store's books: a
    // worker that dies here owes the session nothing.
    if let Some(action) = failpoint::fire("panic_in_worker") {
        failpoint::act("panic_in_worker", action);
    }
}

/// Post-panic cleanup, running on the dying worker thread: requeue what
/// the batch never touched, fail what is out of retries, tell the
/// supervisor.
fn isolate_panic(id: usize, ctx: &WorkerCtx, slots: Vec<Option<Request>>) {
    let inner = &*ctx.inner;
    inner.metrics.worker_panics.inc();
    inner.metrics.workers_alive.add(-1);
    inner.fault(FaultKind::WorkerPanic, &format!("worker-{id}"));

    let mut requeue: Vec<Request> = Vec::new();
    for mut req in slots.into_iter().flatten() {
        req.attempts += 1;
        if req.attempts > MAX_BATCH_RETRIES {
            inner.metrics.retry_exhausted.inc();
            inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::WorkerLost));
        } else {
            inner.metrics.requeued_requests.inc();
            inner.span(req.trace, TraceStage::Requeued, 0, req.attempts as u64);
            requeue.push(req);
        }
    }
    if !requeue.is_empty() {
        inner.fault(FaultKind::BatchRequeued, &format!("{} requests", requeue.len()));
        if let Err(SendError(BatchMsg::Work(reqs))) = ctx.batch_tx.send(BatchMsg::Work(requeue)) {
            // Channel torn down mid-panic: fail the stragglers, typed.
            for req in reqs {
                inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::WorkerLost));
            }
        }
    }
    let _ = ctx.ctrl_tx.send(Ctrl::Died(id));
}

/// Supervisor: joins dead workers, respawns them while budget remains,
/// flips the engine into degraded mode when the pool is gone, and runs
/// the teardown protocol at shutdown.
fn supervisor_loop(
    inner: &Arc<Inner>,
    ctx: WorkerCtx,
    ctrl_rx: &Receiver<Ctrl>,
    mut handles: HashMap<usize, JoinHandle<()>>,
    max_respawns: u64,
) {
    let mut respawns = 0u64;
    loop {
        match ctrl_rx.recv() {
            Err(_) => break,
            Ok(Ctrl::Shutdown) => break,
            Ok(Ctrl::Died(id)) => {
                if let Some(handle) = handles.remove(&id) {
                    let _ = handle.join();
                }
                if respawns < max_respawns {
                    respawns += 1;
                    inner.metrics.worker_respawns.inc();
                    inner.metrics.workers_alive.add(1);
                    inner.fault(FaultKind::WorkerRespawn, &format!("worker-{id}"));
                    handles.insert(id, spawn_worker(id, ctx.clone()));
                } else if inner.metrics.workers_alive.get() <= 0 {
                    // Pool gone, budget spent: permanent degraded mode.
                    // New submits and the batcher resolve through the
                    // fallback from here on; batches already dispatched
                    // to the dead pool resolve right now.
                    inner.degraded_mode.store(true, Ordering::Release);
                    inner.wake_batcher();
                    inner.fault(FaultKind::DegradedMode, "all workers down, respawn budget spent");
                    drain_batches(&ctx.batch_rx, |req| inner.finish_degraded(req, "workers_down"));
                }
            }
        }
    }
    // Teardown: one Stop per live worker (a worker consumes exactly
    // one), join the pool, then resolve anything stranded in the batch
    // channel (e.g. a batch requeued after the Stops went out).
    for _ in 0..handles.len() {
        let _ = ctx.batch_tx.send(BatchMsg::Stop);
    }
    for (_, handle) in handles.drain() {
        let _ = handle.join();
    }
    drain_batches(&ctx.batch_rx, |req| {
        inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::ShuttingDown));
    });
}

/// Resolve every request currently sitting in the batch channel.
///
/// Takes the receiver's lock, which a live worker holds while it blocks
/// in `recv`. The supervisor calls this only when no worker can be
/// there: at the degraded flip every worker has left `worker_loop` for
/// good (`workers_alive` is down to 0 and nothing respawns), and at
/// teardown every worker has been joined. So this never waits on a
/// worker that waits on a message.
fn drain_batches(batch_rx: &Mutex<Receiver<BatchMsg>>, mut resolve: impl FnMut(Request)) {
    let batch_rx = batch_rx.lock().unwrap_or_else(PoisonError::into_inner);
    while let Ok(msg) = batch_rx.try_recv() {
        if let BatchMsg::Work(batch) = msg {
            for req in batch {
                resolve(req);
            }
        }
    }
}

/// Score one batch and reply to every request in it. Identical windows
/// within the batch are deduplicated and forwarded once; the forward is
/// deterministic, so shared logits are exactly what separate forwards
/// would produce. Requests are *taken out* of their slots as they are
/// answered — on a panic, whatever is still in a slot was untouched and
/// is safe to requeue.
///
/// The forward can fail (e.g. an out-of-vocabulary item id in a
/// window). A failure is surfaced, never hidden: the fault counter and
/// JSONL event fire, nothing enters the cache, and every request in
/// the batch resolves through the degraded path instead of receiving
/// fabricated all-zero logits.
fn process_batch(inner: &Inner, slots: &mut [Option<Request>], ws: &mut vsan_core::Workspace) {
    // Everything before this instant is queue wait; everything after is
    // compute. The split is per request (the wait differs per request —
    // later arrivals waited less for the same flush). Requeued requests
    // already recorded their wait at first pickup.
    let picked_up = Instant::now();
    let live = slots.iter().flatten().count() as u64;
    for req in slots.iter_mut().flatten() {
        if req.attempts == 0 {
            inner.metrics.queue_wait_us.record_traced(
                as_us(picked_up.saturating_duration_since(req.enqueued)),
                inner.exemplar(&req.trace),
            );
        }
        // The compute span is recorded *on entry*, before the failpoints
        // below can panic: a poisoned batch's flight-recorder dump must
        // show the full admission → pickup → compute chain for every
        // request it held. Retries salt the span id with the attempt so
        // each pass through compute is a distinct span.
        let salt = TraceStage::Compute.code() | (req.attempts as u64) << 8;
        let cctx = req.trace.child(salt);
        inner.trace(cctx, TraceStage::Compute, 0, live);
        req.trace = cctx;
    }

    if let Some(action) = failpoint::fire("panic_in_worker") {
        failpoint::act("panic_in_worker", action);
    }
    if let Some(action) = failpoint::fire("slow_compute") {
        failpoint::act("slow_compute", action);
    }

    let mut windows: Vec<Vec<u32>> = Vec::new();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut which: Vec<usize> = Vec::with_capacity(slots.len());
    for req in slots.iter().flatten() {
        let window = inner.model.fold_in_window(&req.history);
        let idx = match index.get(window) {
            Some(&i) => i,
            None => {
                let i = windows.len();
                windows.push(window.to_vec());
                index.insert(window.to_vec(), i);
                i
            }
        };
        which.push(idx);
    }

    let refs: Vec<&[u32]> = windows.iter().map(Vec::as_slice).collect();

    if inner.model.retrieval_index().is_some() {
        // Clustered retrieval: one hidden row per distinct window, then a
        // two-stage index query per request. Survivors re-rank with the
        // exact scores and the exact comparator, so `ResponseSource`
        // stays `Batch`. No full logits rows exist here, so nothing is
        // inserted into the sequence cache (hits still serve — session
        // warming inserts exact rows, which rank at least as well).
        let d = inner.model.config().base.dim;
        let hidden = match inner.model.try_last_hidden_batch_with(&refs, ws) {
            Ok(hidden) => hidden,
            Err(err) => {
                inner.metrics.model_errors.inc();
                inner.fault(FaultKind::ModelError, &err);
                for slot in slots.iter_mut() {
                    let Some(req) = slot.take() else { continue };
                    inner.finish_degraded(req, "model_error");
                }
                return;
            }
        };
        let mut row_of = which.into_iter();
        for slot in slots.iter_mut() {
            let Some(req) = slot.take() else { continue };
            let idx = row_of.next().expect("one row index per live slot");
            if req.deadline.is_some_and(|dl| Instant::now() >= dl) {
                inner.metrics.deadline_miss_completion.inc();
                inner.fault(FaultKind::DeadlineMiss, "completion");
                inner.span(req.trace, TraceStage::DeadlineMiss, 0, 0);
                inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::DeadlineExceeded));
                continue;
            }
            match inner
                .model
                .recommend_from_hidden_stats(&hidden[idx * d..(idx + 1) * d], &req.history, req.k)
            {
                Ok((recs, qs)) => {
                    inner.metrics.retrieval_clustered.inc();
                    if qs.certified {
                        inner.metrics.retrieval_certified.inc();
                    }
                    inner.metrics.retrieval_probes.record(qs.probed_clusters as u64);
                    inner.metrics.retrieval_survivors.record(qs.survivors as u64);
                    // attr packs the probe stats: probed clusters in the
                    // high half, re-rank survivors in the low half.
                    inner.span(
                        req.trace,
                        TraceStage::Retrieval,
                        0,
                        (qs.probed_clusters as u64) << 32 | qs.survivors as u64,
                    );
                    inner
                        .metrics
                        .compute_us
                        .record_traced(as_us(picked_up.elapsed()), inner.exemplar(&req.trace));
                    inner.finish(
                        req.enqueued,
                        req.trace,
                        &req.reply,
                        Ok(Response::new(recs, ResponseSource::Batch)),
                    );
                }
                Err(err) => {
                    inner.metrics.model_errors.inc();
                    inner.fault(FaultKind::ModelError, &err);
                    inner.finish_degraded(req, "model_error");
                }
            }
        }
        return;
    }

    let rows: Vec<Arc<Vec<f32>>> = match inner.model.try_score_items_batch_with(&refs, ws) {
        Ok(rows) => rows.into_iter().map(Arc::new).collect(),
        Err(err) => {
            inner.metrics.model_errors.inc();
            inner.fault(FaultKind::ModelError, &err);
            for slot in slots.iter_mut() {
                let Some(req) = slot.take() else { continue };
                inner.finish_degraded(req, "model_error");
            }
            return;
        }
    };

    if inner.cache_enabled {
        let mut cache = inner.lock_cache();
        for (window, row) in windows.into_iter().zip(&rows) {
            cache.insert(window, Arc::clone(row));
        }
    }

    let mut row_of = which.into_iter();
    for slot in slots.iter_mut() {
        let Some(req) = slot.take() else { continue };
        let idx = row_of.next().expect("one row index per live slot");
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            // Computed (the batch forward is all-or-nothing) but the
            // caller's budget is gone: the contract is a typed error.
            // The logits are cached, so the work is not wasted.
            inner.metrics.deadline_miss_completion.inc();
            inner.fault(FaultKind::DeadlineMiss, "completion");
            inner.span(req.trace, TraceStage::DeadlineMiss, 0, 0);
            inner.finish(req.enqueued, req.trace, &req.reply, Err(ServeError::DeadlineExceeded));
            continue;
        }
        let recs = rank(&rows[idx], &req.history, req.k);
        inner.metrics.retrieval_exact.inc();
        inner.metrics.compute_us.record_traced(as_us(picked_up.elapsed()), inner.exemplar(&req.trace));
        inner.finish(req.enqueued, req.trace, &req.reply, Ok(Response::new(recs, ResponseSource::Batch)));
    }
}

/// Top-k by heap-based partial selection over raw logits, excluding the
/// full history — the exact ranking rule of [`Vsan::recommend`]
/// (softmax is strictly increasing, so it never reorders).
fn rank(logits: &[f32], history: &[u32], k: usize) -> Vec<u32> {
    let seen: std::collections::HashSet<u32> = history.iter().copied().collect();
    vsan_eval::top_n_excluding(logits, k, &seen)
}
