//! Engine tuning knobs.

use std::sync::Arc;
use std::time::Duration;

use vsan_core::Retrieval;
use vsan_obs::EventSink;

use crate::degrade::DegradeConfig;
use crate::queue::BackpressurePolicy;

/// Configuration for [`crate::Engine`].
///
/// The two batching knobs trade latency for throughput: a batch is
/// dispatched as soon as it holds `max_batch` requests (throughput
/// bound) or `batch_deadline` after its first request arrived (latency
/// bound). Under load batches fill before the deadline; a lone request
/// waits at most one deadline.
///
/// The fault-tolerance knobs (queue bound, backpressure policy, shed
/// watermark, deadlines, respawn and retry budgets, degraded fallbacks)
/// default to the pre-fault-tolerance behaviour as closely as a bounded
/// system can: a large blocking queue, no deadlines, unlimited worker
/// respawns, and one batch retry after a worker panic.
#[derive(Clone)]
pub struct EngineConfig {
    /// Dispatch a batch once it holds this many requests.
    pub max_batch: usize,
    /// Dispatch a partially filled batch this long after its first
    /// request arrived.
    pub batch_deadline: Duration,
    /// Worker threads running the batched forward.
    pub workers: usize,
    /// LRU capacity in distinct fold-in windows; `0` disables caching.
    pub cache_capacity: usize,
    /// Hard bound on queued (admitted but not yet batched) requests;
    /// clamped to at least 1.
    pub queue_capacity: usize,
    /// What a full queue does to the next submit.
    pub backpressure: BackpressurePolicy,
    /// Divert submits to the degraded path once queue depth reaches
    /// this watermark (before the hard bound); `None` disables.
    pub shed_watermark: Option<usize>,
    /// Deadline applied to every [`crate::Engine::submit`]; `None`
    /// means no deadline. [`crate::Engine::submit_with_deadline`]
    /// overrides per request.
    pub default_deadline: Option<Duration>,
    /// Total worker respawns after panics before the pool is allowed to
    /// die (and the engine degrades permanently).
    pub max_worker_respawns: u64,
    /// How many times a request survives being requeued out of a
    /// poisoned batch before failing `WorkerLost`.
    pub max_batch_retries: u32,
    /// Degraded-fallback configuration (approximate cache, popularity).
    pub degrade: DegradeConfig,
    /// Structured fault events (`"type":"serve_fault"`) are emitted
    /// here; `None` disables fault telemetry.
    pub fault_sink: Option<Arc<dyn EventSink>>,
    /// Live incremental sessions kept for [`crate::Engine::append_event`]
    /// (LRU-bounded); `0` makes every append a stateless full recompute.
    pub session_capacity: usize,
    /// Idle time after which a session is evicted; `None` disables TTL
    /// expiry (capacity pressure still evicts).
    pub session_ttl: Option<Duration>,
    /// How batched recommendation retrieves top-k:
    /// [`Retrieval::Exact`] brute-force (default), or
    /// [`Retrieval::Clustered`] two-stage MIPS with exact re-rank. The
    /// engine builds the index at startup, so a restart after a
    /// checkpoint reload deterministically rebuilds it from the restored
    /// parameters. Exact is the one way to deploy without the index.
    pub retrieval: Retrieval,
    /// Flight-recorder capacity in span records (rounded up to a power
    /// of two, minimum 8); `0` disables tracing and the recorder
    /// entirely. The recorder is a fixed ring of `8 × capacity × 8`
    /// bytes of atomics — 1024 records ≈ 64 KiB.
    pub recorder_capacity: usize,
    /// Seed for deterministic trace-id derivation: trace ids are
    /// `splitmix64(seed ^ admission_seq)`, so a fixed seed plus a fixed
    /// request order reproduces the exact ids of a prior run.
    pub trace_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 32,
            batch_deadline: Duration::from_millis(2),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            cache_capacity: 1024,
            queue_capacity: 4096,
            backpressure: BackpressurePolicy::Block,
            shed_watermark: None,
            default_deadline: None,
            max_worker_respawns: u64::MAX,
            max_batch_retries: 1,
            degrade: DegradeConfig::default(),
            fault_sink: None,
            session_capacity: 1024,
            session_ttl: None,
            retrieval: Retrieval::Exact,
            recorder_capacity: 1024,
            trace_seed: 0x5641_5341_4e00_0001, // "VASAN" tag — any fixed value works
        }
    }
}

impl EngineConfig {
    /// Builder: set [`Self::max_batch`] (clamped to at least 1).
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Builder: set [`Self::batch_deadline`].
    pub fn with_batch_deadline(mut self, d: Duration) -> Self {
        self.batch_deadline = d;
        self
    }

    /// Builder: set [`Self::workers`] (clamped to at least 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Builder: set [`Self::cache_capacity`] (`0` disables the cache).
    pub fn with_cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Builder: set [`Self::queue_capacity`] (clamped to at least 1).
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Builder: set [`Self::backpressure`].
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Builder: set [`Self::shed_watermark`].
    pub fn with_shed_watermark(mut self, depth: usize) -> Self {
        self.shed_watermark = Some(depth);
        self
    }

    /// Builder: set [`Self::default_deadline`].
    pub fn with_default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    /// Builder: set [`Self::max_worker_respawns`].
    pub fn with_max_worker_respawns(mut self, n: u64) -> Self {
        self.max_worker_respawns = n;
        self
    }

    /// Builder: set [`Self::max_batch_retries`].
    pub fn with_max_batch_retries(mut self, n: u32) -> Self {
        self.max_batch_retries = n;
        self
    }

    /// Builder: set [`Self::degrade`].
    pub fn with_degrade(mut self, degrade: DegradeConfig) -> Self {
        self.degrade = degrade;
        self
    }

    /// Builder: enable the popularity fallback with per-item scores
    /// (indexed by item id, index 0 = padding).
    pub fn with_popularity(mut self, scores: Vec<f32>) -> Self {
        self.degrade.popularity = Some(Arc::new(scores));
        self
    }

    /// Builder: set [`Self::fault_sink`].
    pub fn with_fault_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.fault_sink = Some(sink);
        self
    }

    /// Builder: set [`Self::session_capacity`] (`0` disables the
    /// session cache — appends become stateless full recomputes).
    pub fn with_session_capacity(mut self, n: usize) -> Self {
        self.session_capacity = n;
        self
    }

    /// Builder: set [`Self::session_ttl`].
    pub fn with_session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = Some(ttl);
        self
    }

    /// Builder: set [`Self::retrieval`].
    pub fn with_retrieval(mut self, retrieval: Retrieval) -> Self {
        self.retrieval = retrieval;
        self
    }

    /// Builder: set [`Self::recorder_capacity`] (`0` disables tracing
    /// and the flight recorder).
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.recorder_capacity = capacity;
        self
    }

    /// Builder: set [`Self::trace_seed`].
    pub fn with_trace_seed(mut self, seed: u64) -> Self {
        self.trace_seed = seed;
        self
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("max_batch", &self.max_batch)
            .field("batch_deadline", &self.batch_deadline)
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("queue_capacity", &self.queue_capacity)
            .field("backpressure", &self.backpressure)
            .field("shed_watermark", &self.shed_watermark)
            .field("default_deadline", &self.default_deadline)
            .field("max_worker_respawns", &self.max_worker_respawns)
            .field("max_batch_retries", &self.max_batch_retries)
            .field("degrade", &self.degrade)
            .field("fault_sink", &self.fault_sink.as_ref().map(|_| "Arc<dyn EventSink>"))
            .field("session_capacity", &self.session_capacity)
            .field("session_ttl", &self.session_ttl)
            .field("retrieval", &self.retrieval)
            .field("recorder_capacity", &self.recorder_capacity)
            .field("trace_seed", &self.trace_seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = EngineConfig::default();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.workers >= 1);
        assert!(cfg.batch_deadline > Duration::ZERO);
        assert!(cfg.queue_capacity >= 1);
        assert_eq!(cfg.backpressure, BackpressurePolicy::Block);
        assert!(cfg.shed_watermark.is_none());
        assert!(cfg.default_deadline.is_none());
        assert_eq!(cfg.max_batch_retries, 1);
        assert!(cfg.degrade.cache_fallback);
        assert!(cfg.session_capacity >= 1);
        assert!(cfg.session_ttl.is_none());
        assert_eq!(cfg.retrieval, Retrieval::Exact);
        assert!(cfg.recorder_capacity >= 1);
    }

    #[test]
    fn builders_clamp() {
        let cfg = EngineConfig::default()
            .with_max_batch(0)
            .with_workers(0)
            .with_batch_deadline(Duration::from_micros(500))
            .with_cache_capacity(0)
            .with_queue_capacity(0)
            .with_backpressure(BackpressurePolicy::ShedOldest)
            .with_shed_watermark(8)
            .with_default_deadline(Duration::from_millis(5))
            .with_max_worker_respawns(2)
            .with_max_batch_retries(0)
            .with_popularity(vec![0.0, 3.0, 1.0])
            .with_session_capacity(0)
            .with_session_ttl(Duration::from_secs(60))
            .with_retrieval(Retrieval::Clustered(vsan_core::ClusteredConfig::default()))
            .with_flight_recorder(0)
            .with_trace_seed(42);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.batch_deadline, Duration::from_micros(500));
        assert_eq!(cfg.cache_capacity, 0);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.backpressure, BackpressurePolicy::ShedOldest);
        assert_eq!(cfg.shed_watermark, Some(8));
        assert_eq!(cfg.default_deadline, Some(Duration::from_millis(5)));
        assert_eq!(cfg.max_worker_respawns, 2);
        assert_eq!(cfg.max_batch_retries, 0);
        assert!(cfg.degrade.popularity.is_some());
        assert_eq!(cfg.session_capacity, 0);
        assert_eq!(cfg.session_ttl, Some(Duration::from_secs(60)));
        assert!(matches!(cfg.retrieval, Retrieval::Clustered(_)));
        assert_eq!(cfg.recorder_capacity, 0);
        assert_eq!(cfg.trace_seed, 42);
    }
}
