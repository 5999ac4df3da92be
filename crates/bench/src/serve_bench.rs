//! Online-serving throughput benchmark: the `vsan-serve` engine
//! (micro-batching + sequence cache) against a sequential
//! one-request-at-a-time `Vsan::recommend` loop on the same workload.
//!
//! The workload models repeat traffic: `requests` lookups drawn from
//! `unique_histories` distinct user histories, shuffled, submitted in
//! bursts (an online service sees overlapping in-flight requests, not a
//! closed loop). Repeat lookups hit the engine's sequence cache and
//! unique ones share batched forwards, which is where the speedup
//! comes from; the sequential baseline pays a full batch-of-one
//! forward per request.
//!
//! Both sides produce rankings on the identical model, and the report
//! records whether they matched element-for-element — a speedup from a
//! wrong answer would be meaningless.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vsan_core::{Vsan, VsanConfig};
use vsan_data::synthetic::{generate_stream, SessionStreamConfig};
use vsan_data::Dataset;
use vsan_serve::{BackpressurePolicy, Engine, EngineConfig, ServeError, ServeStats};

/// Workload and engine knobs for [`run_serve_bench`].
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Catalogue size of the synthetic training set.
    pub num_items: usize,
    /// Users in the synthetic training set.
    pub num_users: usize,
    /// Interactions per training user.
    pub seq_len: usize,
    /// Model width `d` (a toy-sized model makes a single forward so
    /// cheap that batching has nothing to amortize; the default is a
    /// realistically sized serving model).
    pub dim: usize,
    /// Model attention window `n`.
    pub max_seq_len: usize,
    /// Training epochs (the bench measures inference; 1–2 is plenty).
    pub epochs: usize,
    /// Total lookups in the request stream.
    pub requests: usize,
    /// Distinct histories the stream draws from (repeat factor =
    /// `requests / unique_histories`).
    pub unique_histories: usize,
    /// Top-k size per request.
    pub k: usize,
    /// Requests submitted before the client waits for replies.
    pub burst: usize,
    /// Engine `max_batch`.
    pub max_batch: usize,
    /// Engine `batch_deadline`.
    pub batch_deadline: Duration,
    /// RNG seed for the dataset and the stream shuffle.
    pub seed: u64,
    /// Requests offered in one flood during the overload phase (all
    /// distinct histories, so every one needs a forward).
    pub overload_requests: usize,
    /// Admission-queue capacity during the overload phase — deliberately
    /// far smaller than the flood so backpressure must engage.
    pub overload_queue_capacity: usize,
    /// Per-request deadline during the overload phase.
    pub overload_deadline: Duration,
    /// Live users in the streaming-session phase.
    pub session_users: usize,
    /// Append events replayed through `Engine::append_event` in the
    /// streaming-session phase.
    pub session_events: usize,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            num_items: 1000,
            num_users: 48,
            seq_len: 60,
            dim: 96,
            max_seq_len: 48,
            epochs: 2,
            requests: 320,
            unique_histories: 40,
            k: 10,
            burst: 32,
            max_batch: 32,
            batch_deadline: Duration::from_micros(200),
            seed: 42,
            overload_requests: 512,
            overload_queue_capacity: 32,
            overload_deadline: Duration::from_millis(50),
            session_users: 8,
            session_events: 96,
        }
    }
}

impl ServeBenchConfig {
    /// Sub-second configuration for the test suite.
    pub fn smoke() -> Self {
        ServeBenchConfig {
            num_items: 30,
            num_users: 16,
            seq_len: 12,
            dim: 16,
            max_seq_len: 8,
            epochs: 1,
            requests: 120,
            unique_histories: 24,
            k: 5,
            overload_requests: 96,
            overload_queue_capacity: 8,
            overload_deadline: Duration::from_millis(250),
            ..Self::default()
        }
    }
}

/// Measured results of one benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Configuration the run used.
    pub config: ServeBenchConfig,
    /// Wall-clock seconds for the sequential `Vsan::recommend` loop.
    pub sequential_seconds: f64,
    /// Wall-clock seconds for the engine serving the same stream.
    pub engine_seconds: f64,
    /// `sequential_seconds / engine_seconds`.
    pub speedup: f64,
    /// Sequential throughput, requests per second.
    pub sequential_rps: f64,
    /// Engine throughput, requests per second.
    pub engine_rps: f64,
    /// Engine cache hits over the stream.
    pub cache_hits: u64,
    /// Engine cache misses over the stream.
    pub cache_misses: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Mean request latency through the engine, microseconds.
    pub mean_latency_us: f64,
    /// Whether every engine ranking equalled the sequential ranking.
    pub results_match: bool,
    /// Full engine telemetry at shutdown: queue-wait / compute /
    /// end-to-end latency distributions and batch-fill occupancy.
    pub stats: ServeStats,
    /// Saturation-phase measurements (same model weights, tight queue).
    pub overload: OverloadReport,
    /// Streaming-session phase (same model weights, warm append path).
    pub session: SessionPhaseReport,
    /// Tracing-cost phase (same model weights, recorder on vs off).
    pub trace_overhead: TraceOverheadReport,
}

/// Measured cost of request-scoped tracing (DESIGN.md §13): the same
/// latency-probe stream served by two engines on twin weights — flight
/// recorder + tracing enabled vs disabled — submitted strictly paired
/// and alternating so clock drift and cache warmth cancel. Latencies
/// are measured client-side (no histogram-bucket quantization), and the
/// rankings from both engines are compared element-for-element:
/// observation must not change bits.
#[derive(Debug, Clone)]
pub struct TraceOverheadReport {
    /// Requests served by *each* engine.
    pub requests: u64,
    /// Median end-to-end latency with tracing enabled, microseconds.
    pub p50_on_us: f64,
    /// Tail end-to-end latency with tracing enabled, microseconds.
    pub p99_on_us: f64,
    /// Median end-to-end latency with tracing disabled, microseconds.
    pub p50_off_us: f64,
    /// Tail end-to-end latency with tracing disabled, microseconds.
    pub p99_off_us: f64,
    /// `(p50_on - p50_off) / p50_off`, percent (negative = free).
    pub p50_overhead_pct: f64,
    /// `(p99_on - p99_off) / p99_off`, percent.
    pub p99_overhead_pct: f64,
    /// Ring capacity of the traced engine's flight recorder.
    pub recorder_capacity: u64,
    /// Spans the traced engine recorded over the stream.
    pub spans_recorded: u64,
    /// Whether both engines returned identical rankings throughout.
    pub results_match: bool,
}

/// Measured behaviour of the incremental session path: a Zipf-skewed
/// multi-user append stream through [`Engine::append_event`], warm
/// sessions resident the whole run. The rankings are re-derived
/// offline after the timed loop and compared element-for-element —
/// the phase refuses to report throughput for wrong answers.
#[derive(Debug, Clone)]
pub struct SessionPhaseReport {
    /// Append events replayed.
    pub events: u64,
    /// Distinct users in the stream.
    pub users: u64,
    /// Events served per wall-clock second (end to end, hot loop).
    pub events_per_second: f64,
    /// Events that found their state refreshed in time (no prepare on
    /// the reply path) — how many depends on how the pool's refreshes
    /// raced the stream.
    pub appends: u64,
    /// Events that cold-started a session.
    pub cold_starts: u64,
    /// Events that resumed a cached prefix.
    pub resumes: u64,
    /// Events whose hint contradicted the cached history.
    pub resets: u64,
    /// Sessions evicted during the phase (LRU/TTL).
    pub evictions: u64,
    /// Median end-to-end append latency, microseconds.
    pub p50_latency_us: u64,
    /// Tail end-to-end append latency, microseconds.
    pub p99_latency_us: u64,
    /// Whether every streamed ranking equalled the offline
    /// `Vsan::recommend` of the same grown history.
    pub results_match: bool,
}

/// Measured behaviour of the engine under deliberate saturation: a
/// flood of distinct requests against a tight admission queue with
/// `ShedOldest` backpressure, a per-request deadline, and a popularity
/// fallback. The interesting numbers are the *rates* — how much load
/// was refused or degraded, and what latency the survivors saw — not
/// throughput (a saturated engine is by construction not keeping up).
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Requests offered in the flood.
    pub offered: u64,
    /// Requests answered exactly (full model forward).
    pub exact: u64,
    /// Requests answered through the degraded fallback.
    pub degraded: u64,
    /// Requests rejected with a typed `DeadlineExceeded`.
    pub deadline_misses: u64,
    /// Requests failed with any other typed error.
    pub other_errors: u64,
    /// Fraction of offered load refused at admission (shed + rejected
    /// + watermark-shed) — `MetricsSnapshot::rejection_rate`.
    pub rejection_rate: f64,
    /// Fraction of offered load answered degraded.
    pub degraded_rate: f64,
    /// Median end-to-end latency under saturation, microseconds.
    pub p50_latency_us: u64,
    /// Tail end-to-end latency under saturation, microseconds.
    pub p99_latency_us: u64,
    /// Offered load over the flood's wall-clock, requests per second.
    pub offered_rps: f64,
    /// Full engine telemetry at shutdown.
    pub stats: ServeStats,
}

/// Train a small VSAN, then time the same shuffled repeat-traffic
/// stream through (a) a sequential uncached `recommend` loop and
/// (b) the serving engine, and compare.
pub fn run_serve_bench(cfg: ServeBenchConfig) -> ServeBenchReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Synthetic training set: random walks over the catalogue.
    let sequences: Vec<Vec<u32>> = (0..cfg.num_users)
        .map(|_| {
            (0..cfg.seq_len).map(|_| rng.gen_range(1..=cfg.num_items as u32)).collect()
        })
        .collect();
    let ds = Dataset { name: "serve-bench".into(), num_items: cfg.num_items, sequences };
    let train_users: Vec<usize> = (0..cfg.num_users).collect();
    let mut model_cfg = VsanConfig::smoke();
    model_cfg.base.dim = cfg.dim;
    model_cfg.base.max_seq_len = cfg.max_seq_len;
    model_cfg.base.epochs = cfg.epochs;
    let model = Vsan::train(&ds, &train_users, &model_cfg).expect("bench training");

    // Twin model for the overload phase via a checkpoint round-trip
    // (`Vsan` is deliberately not `Clone`; the engine consumes it).
    let twin = {
        let mut m = Vsan::init(ds.vocab(), &model_cfg);
        m.params_mut().load_values(model.params().save()).expect("twin weights");
        m
    };
    // And a third copy for the streaming-session phase.
    let session_twin = {
        let mut m = Vsan::init(ds.vocab(), &model_cfg);
        m.params_mut().load_values(model.params().save()).expect("session twin weights");
        m
    };
    // Two more for the tracing-cost phase (recorder on / recorder off).
    let traced_twin = {
        let mut m = Vsan::init(ds.vocab(), &model_cfg);
        m.params_mut().load_values(model.params().save()).expect("traced twin weights");
        m
    };
    let untraced_twin = {
        let mut m = Vsan::init(ds.vocab(), &model_cfg);
        m.params_mut().load_values(model.params().save()).expect("untraced twin weights");
        m
    };

    // Distinct query histories (2..=seq_len items), then a shuffled
    // stream with `requests / unique_histories` lookups of each.
    let histories: Vec<Vec<u32>> = (0..cfg.unique_histories)
        .map(|_| {
            let len = rng.gen_range(2..=cfg.seq_len);
            (0..len).map(|_| rng.gen_range(1..=cfg.num_items as u32)).collect()
        })
        .collect();
    let mut stream: Vec<usize> = (0..cfg.requests).map(|i| i % cfg.unique_histories).collect();
    stream.shuffle(&mut rng);

    // Warm the code paths once so neither side pays first-touch costs.
    let _ = model.recommend(&histories[0], cfg.k);

    // (a) Sequential baseline: one uncached batch-of-one forward per
    // request — what an embedder without vsan-serve would write.
    let t0 = Instant::now();
    let sequential: Vec<Vec<u32>> =
        stream.iter().map(|&i| model.recommend(&histories[i], cfg.k)).collect();
    let sequential_seconds = t0.elapsed().as_secs_f64();

    // (b) The engine, bursty submission.
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(cfg.max_batch)
            .with_batch_deadline(cfg.batch_deadline)
            .with_workers(1)
            .with_cache_capacity(cfg.unique_histories * 2),
    );
    let t1 = Instant::now();
    let mut served: Vec<Vec<u32>> = Vec::with_capacity(stream.len());
    for burst in stream.chunks(cfg.burst.max(1)) {
        let tickets: Vec<_> =
            burst.iter().map(|&i| engine.submit(&histories[i], cfg.k)).collect();
        for ticket in tickets {
            served.push(ticket.wait().expect("engine reply").into_items());
        }
    }
    let engine_seconds = t1.elapsed().as_secs_f64();
    let stats = engine.shutdown_stats();
    let metrics = stats.snapshot;

    let results_match = served == sequential;
    let overload = run_overload_bench(&cfg, twin);
    let session = run_session_bench(&cfg, session_twin);
    let trace_overhead = run_trace_overhead_bench(&cfg, traced_twin, untraced_twin);
    ServeBenchReport {
        speedup: sequential_seconds / engine_seconds.max(1e-12),
        sequential_rps: cfg.requests as f64 / sequential_seconds.max(1e-12),
        engine_rps: cfg.requests as f64 / engine_seconds.max(1e-12),
        sequential_seconds,
        engine_seconds,
        cache_hits: metrics.cache_hits,
        cache_misses: metrics.cache_misses,
        mean_batch_size: metrics.mean_batch_size(),
        mean_latency_us: metrics.mean_latency_us(),
        results_match,
        stats,
        overload,
        session,
        trace_overhead,
        config: cfg,
    }
}

/// Measure what tracing costs: serve the same distinct-history stream
/// through a traced engine (flight recorder at its default capacity)
/// and an untraced twin (`with_flight_recorder(0)`), one request at a
/// time, strictly paired and alternating which engine goes first.
/// Caching is off so every request pays a real forward — the honest
/// denominator for a relative-overhead claim.
///
/// Each request is replayed for several rounds and the per-request
/// **minimum** latency per engine is kept: the floor is the
/// deterministic cost of the path (forward + ranking + any tracing),
/// while one-off scheduler preemptions — which would otherwise dominate
/// a raw p99 over single shots — are filtered out symmetrically from
/// both sides. `scripts/verify.sh` gates the committed report's p50 and
/// p99 overhead below 3% (DESIGN.md §13).
pub fn run_trace_overhead_bench(
    cfg: &ServeBenchConfig,
    traced: Vsan,
    untraced: Vsan,
) -> TraceOverheadReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7AC3_0DD5);
    let histories: Vec<Vec<u32>> = (0..cfg.requests.max(1))
        .map(|_| {
            let len = rng.gen_range(2..=cfg.seq_len);
            (0..len).map(|_| rng.gen_range(1..=cfg.num_items as u32)).collect()
        })
        .collect();

    let base = EngineConfig::default()
        .with_max_batch(cfg.max_batch)
        .with_batch_deadline(cfg.batch_deadline)
        .with_workers(1)
        .with_cache_capacity(0);
    let on = Engine::start(traced, base.clone());
    let off = Engine::start(untraced, base.with_flight_recorder(0));
    let recorder = on.flight_recorder().expect("tracing defaults to on");

    // Warm both engines (first-touch allocation, thread spin-up).
    let _ = on.submit(&histories[0], cfg.k).wait();
    let _ = off.submit(&histories[0], cfg.k).wait();

    const ROUNDS: usize = 9;
    let mut lat_on = vec![f64::INFINITY; histories.len()];
    let mut lat_off = vec![f64::INFINITY; histories.len()];
    let mut results_match = true;
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for round in 0..ROUNDS {
        for (i, h) in histories.iter().enumerate() {
            let off_first = (i + round) % 2 == 0;
            let (first, second) = if off_first { (&off, &on) } else { (&on, &off) };
            let t = Instant::now();
            let a = first.submit(h, cfg.k).wait().expect("trace-phase reply");
            let first_us = us(t);
            let t = Instant::now();
            let b = second.submit(h, cfg.k).wait().expect("trace-phase reply");
            let second_us = us(t);
            let (on_us, off_us) = if off_first { (second_us, first_us) } else { (first_us, second_us) };
            lat_on[i] = lat_on[i].min(on_us);
            lat_off[i] = lat_off[i].min(off_us);
            results_match &= a.items() == b.items();
        }
    }
    let spans_recorded = recorder.recorded();
    let recorder_capacity = recorder.capacity() as u64;
    on.shutdown();
    off.shutdown();

    let pct = |sorted: &[f64], q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    lat_on.sort_by(|a, b| a.total_cmp(b));
    lat_off.sort_by(|a, b| a.total_cmp(b));
    let (p50_on_us, p99_on_us) = (pct(&lat_on, 0.50), pct(&lat_on, 0.99));
    let (p50_off_us, p99_off_us) = (pct(&lat_off, 0.50), pct(&lat_off, 0.99));
    let overhead = |on: f64, off: f64| if off > 0.0 { (on - off) / off * 100.0 } else { 0.0 };
    TraceOverheadReport {
        requests: histories.len() as u64,
        p50_on_us,
        p99_on_us,
        p50_off_us,
        p99_off_us,
        p50_overhead_pct: overhead(p50_on_us, p50_off_us),
        p99_overhead_pct: overhead(p99_on_us, p99_off_us),
        recorder_capacity,
        spans_recorded,
        results_match,
    }
}

/// Replay a Zipf-skewed multi-user append stream through
/// [`Engine::append_event`]: one event per request, client hints
/// supplied, session capacity sized to keep every user warm. The timed
/// loop records only streaming latency; rankings are verified against
/// the offline `Vsan::recommend` afterwards.
pub fn run_session_bench(cfg: &ServeBenchConfig, model: Vsan) -> SessionPhaseReport {
    let stream_cfg = SessionStreamConfig {
        num_users: cfg.session_users.max(1),
        num_items: cfg.num_items,
        zipf_exponent: 1.0,
        events: cfg.session_events,
        min_history: 2,
        max_history: cfg.seq_len.max(2),
        seed: cfg.seed ^ 0x5E55_10F0,
    };
    let stream = generate_stream(&stream_cfg);
    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_workers(1)
            .with_session_capacity(stream_cfg.num_users),
    );

    let mut histories = stream.histories.clone();
    let mut served: Vec<(usize, Vec<u32>)> = Vec::with_capacity(stream.events.len());
    let t0 = Instant::now();
    for event in &stream.events {
        let user = event.user as usize;
        let hint = histories[user].clone();
        let resp =
            engine.append_event(event.user, Some(&hint), event.item, cfg.k).expect("append");
        histories[user].push(event.item);
        served.push((user, resp.into_items()));
    }
    let wall = t0.elapsed().as_secs_f64();

    // Verification pass, untimed: replay the grown histories offline.
    let mut replay: Vec<Vec<u32>> = stream.histories.clone();
    let results_match = stream.events.iter().zip(&served).all(|(event, (user, items))| {
        replay[*user].push(event.item);
        *items == engine.model().recommend(&replay[*user], cfg.k)
    });

    let stats = engine.shutdown_stats();
    let m = &stats.snapshot;
    SessionPhaseReport {
        events: stream.events.len() as u64,
        users: stream_cfg.num_users as u64,
        events_per_second: stream.events.len() as f64 / wall.max(1e-12),
        appends: m.session_appends,
        cold_starts: m.session_cold_starts,
        resumes: m.session_resumes,
        resets: m.session_resets,
        evictions: m.session_evictions,
        p50_latency_us: stats.latency_us.percentile(0.50),
        p99_latency_us: stats.latency_us.percentile(0.99),
        results_match,
    }
}

/// Drive the engine past its capacity on purpose: `overload_requests`
/// *distinct* histories (no cache relief) offered in a single flood
/// against one worker, a queue of `overload_queue_capacity`, `ShedOldest`
/// backpressure, a per-request deadline, and a popularity fallback. No
/// failpoints — this measures genuine saturation, not injected faults.
pub fn run_overload_bench(cfg: &ServeBenchConfig, model: Vsan) -> OverloadReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_CAFE);
    let histories: Vec<Vec<u32>> = (0..cfg.overload_requests)
        .map(|_| {
            let len = rng.gen_range(2..=cfg.seq_len);
            (0..len).map(|_| rng.gen_range(1..=cfg.num_items as u32)).collect()
        })
        .collect();
    // Fallback ranking when load is shed: item id 0 is padding, the
    // rest scored by (synthetic) popularity.
    let popularity: Vec<f32> = (0..=cfg.num_items)
        .map(|i| if i == 0 { f32::NEG_INFINITY } else { 1.0 / i as f32 })
        .collect();

    let engine = Engine::start(
        model,
        EngineConfig::default()
            .with_max_batch(cfg.max_batch)
            .with_batch_deadline(cfg.batch_deadline)
            .with_workers(1)
            .with_cache_capacity(0)
            .with_queue_capacity(cfg.overload_queue_capacity)
            .with_backpressure(BackpressurePolicy::ShedOldest)
            .with_default_deadline(cfg.overload_deadline)
            .with_popularity(popularity),
    );

    let t0 = Instant::now();
    let tickets: Vec<_> = histories.iter().map(|h| engine.submit(h, cfg.k)).collect();
    let (mut exact, mut degraded, mut deadline_misses, mut other_errors) = (0u64, 0u64, 0u64, 0u64);
    for ticket in tickets {
        match ticket.wait() {
            Ok(r) if r.is_degraded() => degraded += 1,
            Ok(_) => exact += 1,
            Err(ServeError::DeadlineExceeded) => deadline_misses += 1,
            Err(_) => other_errors += 1,
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = engine.shutdown_stats();

    OverloadReport {
        offered: cfg.overload_requests as u64,
        exact,
        degraded,
        deadline_misses,
        other_errors,
        rejection_rate: stats.snapshot.rejection_rate(),
        degraded_rate: stats.snapshot.degraded_rate(),
        p50_latency_us: stats.latency_us.percentile(0.50),
        p99_latency_us: stats.latency_us.percentile(0.99),
        offered_rps: cfg.overload_requests as f64 / wall.max(1e-12),
        stats,
    }
}

impl ServeBenchReport {
    /// Serialize as a JSON object (hand-rolled: the workspace has no
    /// JSON dependency and the schema is flat).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\n  \"benchmark\": \"vsan-serve engine vs sequential recommend loop\",\n  \
               \"requests\": {},\n  \"unique_histories\": {},\n  \"k\": {},\n  \
               \"burst\": {},\n  \"max_batch\": {},\n  \"batch_deadline_us\": {},\n  \
               \"num_items\": {},\n  \"seed\": {},\n  \
               \"sequential_seconds\": {:.6},\n  \"engine_seconds\": {:.6},\n  \
               \"speedup\": {:.3},\n  \
               \"sequential_rps\": {:.1},\n  \"engine_rps\": {:.1},\n  \
               \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
               \"mean_batch_size\": {:.2},\n  \"mean_latency_us\": {:.1},\n  \
               \"mean_batch_fill_pct\": {:.1},\n  \
               \"queue_wait_us\": {},\n  \"compute_us\": {},\n  \"latency_us\": {},\n  \
               \"results_match\": {},\n  \"overload\": {},\n  \"session\": {},\n  \
               \"trace_overhead\": {}\n}}\n",
            c.requests,
            c.unique_histories,
            c.k,
            c.burst,
            c.max_batch,
            c.batch_deadline.as_micros(),
            c.num_items,
            c.seed,
            self.sequential_seconds,
            self.engine_seconds,
            self.speedup,
            self.sequential_rps,
            self.engine_rps,
            self.cache_hits,
            self.cache_misses,
            self.mean_batch_size,
            self.mean_latency_us,
            self.stats.mean_batch_fill_pct(),
            self.stats.queue_wait_us.summary_json(),
            self.stats.compute_us.summary_json(),
            self.stats.latency_us.summary_json(),
            self.results_match,
            self.overload.to_json(),
            self.session.to_json(),
            self.trace_overhead.to_json(),
        )
    }

    /// Write the JSON report into the workspace `results/` directory.
    pub fn write_json(&self, file_name: &str) -> std::io::Result<PathBuf> {
        let path = results_dir().join(file_name);
        std::fs::create_dir_all(results_dir())?;
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

impl OverloadReport {
    /// Serialize as a JSON object (embedded under `"overload"` in the
    /// main report).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n    \"offered\": {},\n    \"exact\": {},\n    \"degraded\": {},\n    \
               \"deadline_misses\": {},\n    \"other_errors\": {},\n    \
               \"rejection_rate\": {:.4},\n    \"degraded_rate\": {:.4},\n    \
               \"p50_latency_us\": {},\n    \"p99_latency_us\": {},\n    \
               \"offered_rps\": {:.1},\n    \
               \"shed_oldest\": {},\n    \"load_shed\": {},\n    \"rejected_newest\": {}\n  }}",
            self.offered,
            self.exact,
            self.degraded,
            self.deadline_misses,
            self.other_errors,
            self.rejection_rate,
            self.degraded_rate,
            self.p50_latency_us,
            self.p99_latency_us,
            self.offered_rps,
            self.stats.snapshot.shed_oldest,
            self.stats.snapshot.load_shed,
            self.stats.snapshot.rejected_newest,
        )
    }
}

impl SessionPhaseReport {
    /// Serialize as a JSON object (embedded under `"session"` in the
    /// main report).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n    \"events\": {},\n    \"users\": {},\n    \
               \"events_per_second\": {:.1},\n    \
               \"appends\": {},\n    \"cold_starts\": {},\n    \"resumes\": {},\n    \
               \"resets\": {},\n    \"evictions\": {},\n    \
               \"p50_latency_us\": {},\n    \"p99_latency_us\": {},\n    \
               \"results_match\": {}\n  }}",
            self.events,
            self.users,
            self.events_per_second,
            self.appends,
            self.cold_starts,
            self.resumes,
            self.resets,
            self.evictions,
            self.p50_latency_us,
            self.p99_latency_us,
            self.results_match,
        )
    }
}

impl TraceOverheadReport {
    /// Serialize as a JSON object (embedded under `"trace_overhead"` in
    /// the main report).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n    \"requests\": {},\n    \
               \"p50_on_us\": {:.1},\n    \"p99_on_us\": {:.1},\n    \
               \"p50_off_us\": {:.1},\n    \"p99_off_us\": {:.1},\n    \
               \"p50_overhead_pct\": {:.2},\n    \"p99_overhead_pct\": {:.2},\n    \
               \"recorder_capacity\": {},\n    \"spans_recorded\": {},\n    \
               \"results_match\": {}\n  }}",
            self.requests,
            self.p50_on_us,
            self.p99_on_us,
            self.p50_off_us,
            self.p99_off_us,
            self.p50_overhead_pct,
            self.p99_overhead_pct,
            self.recorder_capacity,
            self.spans_recorded,
            self.results_match,
        )
    }
}

/// The workspace-level `results/` directory (next to the root Cargo.toml).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke invocation of the full benchmark (≈1–2 s): the engine must
    /// return the sequential loop's exact rankings. No wall-clock ratio
    /// is asserted: at toy dimensions the forward is cheaper than the
    /// batch deadline, so the ratio says nothing about the engine (and
    /// inverts under `--release`); speed is measured by `benchmark/`.
    #[test]
    fn smoke_run_writes_report_and_beats_sequential() {
        let report = run_serve_bench(ServeBenchConfig::smoke());
        assert!(report.results_match, "engine rankings must equal Vsan::recommend");
        assert!(report.cache_hits > 0, "repeat traffic must hit the cache: {report:?}");
        // Telemetry invariants: every request records compute and
        // end-to-end latency; only cache misses record queue wait.
        let stats = &report.stats;
        let requests = report.config.requests as u64;
        assert_eq!(stats.latency_us.count, requests);
        assert_eq!(stats.compute_us.count, requests);
        assert_eq!(stats.queue_wait_us.count, report.cache_misses);
        assert_eq!(stats.batch_fill_pct.count, stats.snapshot.batches);
        assert_eq!(stats.queue_depth, 0, "queue must be drained at shutdown");
        assert!(stats.latency_us.percentile(0.99) >= stats.latency_us.percentile(0.50));
        // Overload phase: every offered request resolves exactly once
        // (ticket conservation), and the tight queue forces the engine
        // to actually refuse or degrade part of the flood.
        let o = &report.overload;
        assert_eq!(
            o.exact + o.degraded + o.deadline_misses + o.other_errors,
            o.offered,
            "overload accounting must cover every offered request: {o:?}"
        );
        assert!(o.exact > 0, "a saturated engine still answers some requests: {o:?}");
        assert!(
            o.degraded + o.deadline_misses > 0,
            "the flood must overwhelm the tight queue: {o:?}"
        );
        assert!(o.rejection_rate > 0.0, "backpressure must engage under saturation: {o:?}");
        assert_eq!(o.stats.queue_depth, 0, "overload queue drained at shutdown");
        assert_eq!(
            o.stats.latency_us.count, o.offered,
            "every overload ticket records end-to-end latency"
        );
        assert!(o.p99_latency_us >= o.p50_latency_us);

        // Streaming-session phase: every event classified exactly once,
        // every streamed ranking equal to the offline recommend.
        let s = &report.session;
        assert!(s.results_match, "streamed rankings must equal Vsan::recommend: {s:?}");
        assert_eq!(
            s.appends + s.cold_starts + s.resumes + s.resets,
            s.events,
            "every session event classified exactly once: {s:?}"
        );
        assert!(s.events_per_second > 0.0);
        assert!(s.p99_latency_us >= s.p50_latency_us);

        // Tracing-cost phase: identical bits on vs off, and the traced
        // engine actually recorded spans. The <3% overhead budget is
        // gated by verify.sh on the committed release-build report, not
        // asserted here (a shared-core debug harness is too noisy).
        let t = &report.trace_overhead;
        assert!(t.results_match, "tracing must not change served bits: {t:?}");
        assert_eq!(t.requests, report.config.requests as u64);
        assert!(t.spans_recorded > 0, "the traced engine must record spans: {t:?}");
        assert!(t.recorder_capacity > 0);
        assert!(t.p50_on_us > 0.0 && t.p50_off_us > 0.0);
        // Exemplar satellite: the traced engine's histograms carry a
        // trace-id exemplar into the JSON summaries.
        assert!(
            report.stats.latency_us.exemplar_trace != 0,
            "default-traced main phase must attach a latency exemplar"
        );

        let path = report.write_json("BENCH_serve_smoke.json").expect("write report");
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.contains("\"results_match\": true"));
        assert!(written.contains("\"speedup\""));
        assert!(written.contains("\"queue_wait_us\""));
        assert!(written.contains("\"overload\""));
        assert!(written.contains("\"rejection_rate\""));
        assert!(written.contains("\"session\""));
        assert!(written.contains("\"events_per_second\""));
        assert!(written.contains("\"trace_overhead\""));
        assert!(written.contains("\"p50_overhead_pct\""));
        assert!(written.contains("\"exemplar_trace\""));
    }
}
