//! Engine telemetry on the [`vsan_obs`] metrics registry.
//!
//! The hot path holds `Arc` handles obtained once at engine start —
//! counters and histogram records are single relaxed atomics, and the
//! registry lock is never touched after startup. [`ServeStats`] is
//! the one view the engine hands out: the [`MetricsSnapshot`] counters
//! plus the full latency distributions, split into queue wait vs.
//! compute time.

use std::sync::Arc;
use std::time::Duration;

use vsan_obs::{Counter, EventSink, Gauge, Histogram, HistogramSnapshot, Registry};

/// Clamp a duration to whole microseconds for histogram recording.
pub(crate) fn as_us(elapsed: Duration) -> u64 {
    elapsed.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Registry-backed engine metrics. Handles are pre-resolved so the
/// request path never takes the registry lock.
#[derive(Debug)]
pub(crate) struct Metrics {
    registry: Arc<Registry>,
    pub requests: Arc<Counter>,
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub batched_requests: Arc<Counter>,
    pub flush_full: Arc<Counter>,
    pub flush_deadline: Arc<Counter>,
    pub flush_shutdown: Arc<Counter>,
    /// Requests enqueued but not yet picked into a batch.
    pub queue_depth: Arc<Gauge>,
    /// Submit → batch pickup (cache hits never enter the queue, so they
    /// record nothing here).
    pub queue_wait_us: Arc<Histogram>,
    /// Batch pickup → reply (for cache hits: the whole lookup+rank).
    pub compute_us: Arc<Histogram>,
    /// Submit → reply, end to end.
    pub latency_us: Arc<Histogram>,
    /// Batch occupancy at flush, percent of `max_batch` (100 = full).
    pub batch_fill_pct: Arc<Histogram>,
    // --- fault-path counters (README § Fault tolerance) ---
    /// Blocking submits whose deadline expired before queue space freed.
    pub deadline_miss_admission: Arc<Counter>,
    /// Requests found expired when the batcher picked them up (they
    /// never occupy compute).
    pub deadline_miss_pickup: Arc<Counter>,
    /// Requests whose deadline expired between pickup and reply.
    pub deadline_miss_completion: Arc<Counter>,
    /// Queued requests evicted at a full queue under `ShedOldest`.
    pub shed_oldest: Arc<Counter>,
    /// Degraded responses answered from the approximate-cache fallback.
    pub degraded_cache: Arc<Counter>,
    /// Degraded responses answered from the popularity fallback.
    pub degraded_popularity: Arc<Counter>,
    /// Requests that found no fallback and errored `Overloaded`.
    pub overloaded_errors: Arc<Counter>,
    /// Worker panics caught at the batch isolation boundary.
    pub worker_panics: Arc<Counter>,
    /// Workers respawned after a panic.
    pub worker_respawns: Arc<Counter>,
    /// Untouched requests requeued out of a poisoned batch.
    pub requeued_requests: Arc<Counter>,
    /// Requests failed `WorkerLost` after exhausting their retry budget.
    pub retry_exhausted: Arc<Counter>,
    /// Batches discarded whole (the `drop_batch` failpoint).
    pub dropped_batches: Arc<Counter>,
    /// Batches whose model forward returned an error (requests were
    /// resolved through the degraded path, never with fabricated zeros).
    pub model_errors: Arc<Counter>,
    /// Live worker threads (spawns and respawns minus deaths).
    pub workers_alive: Arc<Gauge>,
    // --- cache-coherency telemetry (ISSUE 6 satellite) ---
    /// `Engine::invalidate` calls that found nothing to evict — a miss
    /// rate here flags callers invalidating windows that never cached.
    pub cache_invalidate_misses: Arc<Counter>,
    // --- incremental-session counters (README § Incremental sessions) ---
    /// Events that found their state refreshed in time: one append
    /// pass, no prepare on the reply path.
    pub session_appends: Arc<Counter>,
    /// Events for a user that was not resident (first event, evicted,
    /// ended).
    pub session_cold_starts: Arc<Counter>,
    /// Events for a resident user that prepared on the reply path: the
    /// state was still stale, the hint ran ahead, or an exact-history
    /// sibling state was reused.
    pub session_resumes: Arc<Counter>,
    /// Events whose hint contradicted the cached history (state rebuilt).
    pub session_resets: Arc<Counter>,
    /// Sessions evicted by LRU capacity.
    pub session_evictions: Arc<Counter>,
    /// Session states prepared by the worker pool after the reply.
    pub session_refreshes: Arc<Counter>,
    /// Queued refreshes that prepared nothing: user evicted or ended,
    /// state already fresh, or dropped at shutdown.
    pub session_refresh_skipped: Arc<Counter>,
    /// Live sessions in the store.
    pub sessions_live: Arc<Gauge>,
    /// Resident bytes across all session states.
    pub session_bytes: Arc<Gauge>,
    // --- retrieval-route telemetry (README § Clustered retrieval) ---
    /// Requests scored by exact brute force over the full vocabulary.
    pub retrieval_exact: Arc<Counter>,
    /// Requests scored through the clustered MIPS index.
    pub retrieval_clustered: Arc<Counter>,
    /// Clustered replies the index certified exact (no skipped cluster's
    /// slack-1 bound reached the k-th score).
    pub retrieval_certified: Arc<Counter>,
    /// Clusters probed per clustered query (coarse-stage width).
    pub retrieval_probes: Arc<Histogram>,
    /// Candidates surviving into the exact re-rank per clustered query.
    pub retrieval_survivors: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Metrics {
            requests: registry.counter("serve.requests"),
            cache_hits: registry.counter("serve.cache_hits"),
            cache_misses: registry.counter("serve.cache_misses"),
            batches: registry.counter("serve.batches"),
            batched_requests: registry.counter("serve.batched_requests"),
            flush_full: registry.counter("serve.flush_full"),
            flush_deadline: registry.counter("serve.flush_deadline"),
            flush_shutdown: registry.counter("serve.flush_shutdown"),
            queue_depth: registry.gauge("serve.queue_depth"),
            queue_wait_us: registry.histogram("serve.queue_wait_us"),
            compute_us: registry.histogram("serve.compute_us"),
            latency_us: registry.histogram("serve.latency_us"),
            batch_fill_pct: registry.histogram("serve.batch_fill_pct"),
            deadline_miss_admission: registry.counter("serve.deadline_miss_admission"),
            deadline_miss_pickup: registry.counter("serve.deadline_miss_pickup"),
            deadline_miss_completion: registry.counter("serve.deadline_miss_completion"),
            shed_oldest: registry.counter("serve.shed_oldest"),
            degraded_cache: registry.counter("serve.degraded_cache"),
            degraded_popularity: registry.counter("serve.degraded_popularity"),
            overloaded_errors: registry.counter("serve.overloaded_errors"),
            worker_panics: registry.counter("serve.worker_panics"),
            worker_respawns: registry.counter("serve.worker_respawns"),
            requeued_requests: registry.counter("serve.requeued_requests"),
            retry_exhausted: registry.counter("serve.retry_exhausted"),
            dropped_batches: registry.counter("serve.dropped_batches"),
            model_errors: registry.counter("serve.model_errors"),
            workers_alive: registry.gauge("serve.workers_alive"),
            cache_invalidate_misses: registry.counter("serve.cache_invalidate_misses"),
            session_appends: registry.counter("session.appends"),
            session_cold_starts: registry.counter("session.cold_starts"),
            session_resumes: registry.counter("session.resumes"),
            session_resets: registry.counter("session.resets"),
            session_evictions: registry.counter("session.evictions"),
            session_refreshes: registry.counter("session.refreshes"),
            session_refresh_skipped: registry.counter("session.refresh_skipped"),
            sessions_live: registry.gauge("session.live"),
            session_bytes: registry.gauge("session.bytes"),
            retrieval_exact: registry.counter("serve.retrieval_exact"),
            retrieval_clustered: registry.counter("serve.retrieval_clustered"),
            retrieval_certified: registry.counter("serve.retrieval_certified"),
            retrieval_probes: registry.histogram("serve.retrieval_probes"),
            retrieval_survivors: registry.histogram("serve.retrieval_survivors"),
            registry,
        }
    }

    /// Shared registry handle — what the Prometheus exposition endpoint
    /// serves (`vsan_obs::expo`).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The stable counter view.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            batches: self.batches.get(),
            batched_requests: self.batched_requests.get(),
            flush_full: self.flush_full.get(),
            flush_deadline: self.flush_deadline.get(),
            flush_shutdown: self.flush_shutdown.get(),
            deadline_misses: self.deadline_miss_admission.get()
                + self.deadline_miss_pickup.get()
                + self.deadline_miss_completion.get(),
            rejected_newest: 0,
            shed_oldest: self.shed_oldest.get(),
            load_shed: 0,
            degraded_responses: self.degraded_cache.get() + self.degraded_popularity.get(),
            overloaded_errors: self.overloaded_errors.get(),
            worker_panics: self.worker_panics.get(),
            worker_respawns: self.worker_respawns.get(),
            requeued_requests: self.requeued_requests.get(),
            dropped_batches: self.dropped_batches.get(),
            model_errors: self.model_errors.get(),
            cache_invalidate_misses: self.cache_invalidate_misses.get(),
            session_appends: self.session_appends.get(),
            session_cold_starts: self.session_cold_starts.get(),
            session_resumes: self.session_resumes.get(),
            session_resets: self.session_resets.get(),
            session_evictions: self.session_evictions.get(),
            session_refreshes: self.session_refreshes.get(),
            session_refresh_skipped: self.session_refresh_skipped.get(),
            retrieval_exact: self.retrieval_exact.get(),
            retrieval_clustered: self.retrieval_clustered.get(),
            retrieval_certified: self.retrieval_certified.get(),
        }
    }

    /// The full histogram view.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            snapshot: self.snapshot(),
            queue_depth: self.queue_depth.get(),
            queue_wait_us: self.queue_wait_us.snapshot(),
            compute_us: self.compute_us.snapshot(),
            latency_us: self.latency_us.snapshot(),
            batch_fill_pct: self.batch_fill_pct.snapshot(),
            sessions_live: self.sessions_live.get(),
            session_bytes: self.session_bytes.get(),
            retrieval_probes: self.retrieval_probes.snapshot(),
            retrieval_survivors: self.retrieval_survivors.snapshot(),
        }
    }

    /// Emit the whole registry as one JSONL record.
    pub fn emit(&self, sink: &dyn EventSink, record_type: &str) {
        self.registry.emit(sink, record_type);
    }
}

/// Point-in-time view of the engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted via `submit`/`recommend`.
    pub requests: u64,
    /// Requests answered directly from the sequence cache.
    pub cache_hits: u64,
    /// Requests that missed the cache and were enqueued.
    pub cache_misses: u64,
    /// Batches dispatched to the worker pool.
    pub batches: u64,
    /// Requests carried by those batches (`batched_requests / batches`
    /// is the mean batch size).
    pub batched_requests: u64,
    /// Batches flushed because they reached `max_batch`.
    pub flush_full: u64,
    /// Batches flushed because `batch_deadline` expired.
    pub flush_deadline: u64,
    /// Batches flushed while draining the queue at shutdown.
    pub flush_shutdown: u64,
    /// Requests rejected `DeadlineExceeded` (admission + pickup +
    /// completion misses).
    pub deadline_misses: u64,
    /// Always 0: no backpressure policy refuses a newcomer. Kept only
    /// because the frozen benchmark surface (`benchmark/src/surface.rs`)
    /// reads it.
    pub rejected_newest: u64,
    /// Queued requests evicted at a full queue under `ShedOldest`.
    pub shed_oldest: u64,
    /// Always 0: nothing sheds load before the queue is full. Kept only
    /// because the frozen benchmark surface (`benchmark/src/surface.rs`)
    /// reads it.
    pub load_shed: u64,
    /// Responses answered by a fallback (approximate cache or
    /// popularity), tagged degraded.
    pub degraded_responses: u64,
    /// Requests that found no fallback and errored `Overloaded`.
    pub overloaded_errors: u64,
    /// Worker panics caught at the batch isolation boundary.
    pub worker_panics: u64,
    /// Workers respawned after a panic.
    pub worker_respawns: u64,
    /// Untouched requests requeued out of a poisoned batch.
    pub requeued_requests: u64,
    /// Batches discarded whole (the `drop_batch` failpoint).
    pub dropped_batches: u64,
    /// Batches whose model forward returned an error.
    pub model_errors: u64,
    /// `Engine::invalidate` calls that found nothing to evict.
    pub cache_invalidate_misses: u64,
    /// Session events that found their state refreshed in time (one
    /// append pass on the reply path).
    pub session_appends: u64,
    /// Session events for a user that was not resident.
    pub session_cold_starts: u64,
    /// Session events for a resident user that prepared on the reply
    /// path (stale state, hint ahead, or sibling reuse).
    pub session_resumes: u64,
    /// Session events whose hint contradicted the cached history.
    pub session_resets: u64,
    /// Sessions evicted by LRU capacity.
    pub session_evictions: u64,
    /// Session states prepared by the worker pool after the reply.
    pub session_refreshes: u64,
    /// Queued refreshes that prepared nothing (user gone, state already
    /// fresh, or dropped at shutdown).
    pub session_refresh_skipped: u64,
    /// Requests scored by exact brute force over the full vocabulary.
    pub retrieval_exact: u64,
    /// Requests scored through the clustered MIPS index.
    pub retrieval_clustered: u64,
    /// Of those, replies certified exact (`retrieval_certified /
    /// retrieval_clustered` is a recall signal that needs no oracle).
    pub retrieval_certified: u64,
}

impl MetricsSnapshot {
    /// Mean requests per dispatched batch (0.0 before the first batch).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Fraction of requests answered from the cache (0.0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

}

/// Full engine telemetry: the counter snapshot plus the latency
/// distributions. Invariants the engine maintains:
///
/// - `latency_us.count == compute_us.count == requests` (every answered
///   request records both),
/// - `queue_wait_us.count == cache_misses` (cache hits never queue),
/// - `batch_fill_pct.count == batches`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// The stable counter view.
    pub snapshot: MetricsSnapshot,
    /// Requests currently enqueued (0 once drained).
    pub queue_depth: i64,
    /// Submit → batch-pickup wait distribution (cache misses only).
    pub queue_wait_us: HistogramSnapshot,
    /// Batch-pickup → reply compute distribution.
    pub compute_us: HistogramSnapshot,
    /// End-to-end submit → reply latency distribution.
    pub latency_us: HistogramSnapshot,
    /// Batch occupancy at flush, percent of `max_batch`.
    pub batch_fill_pct: HistogramSnapshot,
    /// Live incremental sessions (`session.live` gauge).
    pub sessions_live: i64,
    /// Resident session-state bytes (`session.bytes` gauge).
    pub session_bytes: i64,
    /// Clusters probed per clustered query (empty when serving exact).
    pub retrieval_probes: HistogramSnapshot,
    /// Re-rank candidates per clustered query (empty when serving exact).
    pub retrieval_survivors: HistogramSnapshot,
}

impl ServeStats {
    /// Mean batch occupancy in percent of `max_batch` (0.0 before the
    /// first flush).
    pub fn mean_batch_fill_pct(&self) -> f64 {
        self.batch_fill_pct.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = Metrics::default();
        assert_eq!(m.snapshot().mean_batch_size(), 0.0);
        assert_eq!(m.snapshot().cache_hit_rate(), 0.0);

        m.requests.add(10);
        m.cache_hits.add(4);
        m.batches.add(2);
        m.batched_requests.add(6);
        m.latency_us.record(as_us(Duration::from_micros(100)));
        m.latency_us.record(as_us(Duration::from_micros(300)));
        let s = m.snapshot();
        assert_eq!(s.mean_batch_size(), 3.0);
        assert_eq!(s.cache_hit_rate(), 0.4);
        // Latency sum and max live on the histogram only.
        let lat = m.stats().latency_us;
        assert_eq!((lat.sum, lat.max), (400, 300));
    }

    #[test]
    fn stats_carry_counters_and_distributions() {
        let m = Metrics::new();
        m.requests.inc();
        m.queue_wait_us.record(50);
        m.compute_us.record(200);
        m.latency_us.record(250);
        m.batch_fill_pct.record(100);
        m.session_refreshes.add(3);
        m.session_refresh_skipped.inc();
        let stats = m.stats();
        assert_eq!(stats.mean_batch_fill_pct(), 100.0);
        assert_eq!(stats.snapshot.requests, 1);
        assert_eq!(stats.snapshot.session_refreshes, 3);
        assert_eq!(stats.snapshot.session_refresh_skipped, 1);
        assert_eq!(stats.latency_us.count, 1);
        assert!(stats.latency_us.percentile(0.99) >= 250);
    }

    #[test]
    fn registry_emits_one_record() {
        let m = Metrics::new();
        m.requests.inc();
        let sink = vsan_obs::MemorySink::new();
        m.emit(&sink, "serve_metrics");
        assert_eq!(sink.len(), 1);
        let v = vsan_obs::parse(&sink.lines()[0]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("serve_metrics"));
        let counters = v.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("serve.requests").unwrap().as_u64(), Some(1));
    }
}
