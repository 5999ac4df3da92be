//! The five workloads. Each is a closed loop of one kind of operation
//! against one part of the system; `README.md` records why each was
//! chosen and which layer it loads. A workload's run is: set up (several
//! times, the median is `setup_s`), measure for `--seconds`, check the
//! outputs against an oracle, and — in a traced run — take the
//! per-layer numbers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::client::{closed_loop, open_loop, Outcome};
use crate::engine_trace;
use crate::host;
use crate::inputs;
use crate::probes::{self, Shapes};
use crate::report::{Metrics, RunResult};
use crate::spans::Tracer;
use crate::stats::{better_half_mean, median, summarize_slices, PhaseSummary, Sample};
use crate::surface::{self as s, ModelRef, ModelShape, Service, ServiceConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "serve_cold",
    "serve_warm",
    "session_append",
    "retrieval_100k",
    "train_eval",
];

/// A phase is cut into this many equal time slices in all; each metric
/// is the mean of its better half of per-slice values
/// (`stats::summarize_slices`).
pub const SLICES: usize = 10;

/// Set-ups an untraced run makes besides its first; `setup_s` is the
/// median of all of them. (`retrieval_100k`, whose set-up builds the
/// k-means index, makes one.)
const SETUP_REPEATS: usize = 2;

/// Flight-recorder capacity of a traced run.
const RECORDER_SPANS: usize = 65_536;

/// An open-loop rate counts as goodput when its p99 from the due time
/// stays within this limit, nothing fails and the queue does not grow.
const OPEN_LOOP_P99_LIMIT_MS: f64 = 25.0;

/// Metric and phase names of the three open-loop rates.
struct OpenLoopNames {
    phase: &'static str,
    p50: &'static str,
    p99: &'static str,
}

const OPEN_LOOP_NAMES: [OpenLoopNames; 3] = [
    OpenLoopNames {
        phase: "open_loop_r25",
        p50: "client.open_p50_ms.r25",
        p99: "client.open_p99_ms.r25",
    },
    OpenLoopNames {
        phase: "open_loop_r50",
        p50: "client.open_p50_ms.r50",
        p99: "client.open_p99_ms.r50",
    },
    OpenLoopNames {
        phase: "open_loop_r75",
        p50: "client.open_p50_ms.r75",
        p99: "client.open_p99_ms.r75",
    },
];

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// One of [`NAMES`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measured phases.
    pub seconds: f64,
    /// Take the per-layer numbers instead of the end-to-end ones.
    pub traced: bool,
    /// Toy sizes, for the smoke run.
    pub toy: bool,
}

impl RunSpec {
    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// What a run hands back to `main`.
pub struct RunOutput {
    /// Metrics, counts and notes.
    pub result: RunResult,
    /// The spans of a traced run.
    pub tracer: Tracer,
    /// Threads the trainer used (1 where nothing trains).
    pub train_threads: usize,
}

/// `build`, timed.
fn timed_setup<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let built = build()?;
    Ok((built, t0.elapsed().as_secs_f64()))
}

/// Close an untraced run: set up `extra` more times — each instance
/// dropped before the next is built — and report the median set-up time.
/// The repeats come last, after `peak_rss_mb` was read at the end of the
/// measured phases, so that the peak is that of one instance and its
/// run: not of what the allocator kept from an earlier instance, and not
/// of the harness's own summaries and oracle checks.
fn finish_untraced<T>(
    m: &mut Metrics,
    peak_rss_mb: f64,
    first_setup_s: f64,
    extra: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    m.set("peak_rss_mb", peak_rss_mb);
    let mut times = vec![first_setup_s];
    for _ in 0..extra {
        times.push(timed_setup(&mut build)?.1);
    }
    m.set("setup_s", median(&times));
    Ok(())
}

fn set_end_to_end(m: &mut Metrics, throughput: &PhaseSummary, latency: &PhaseSummary) {
    m.set("throughput_per_s", throughput.per_s);
    m.set("latency_p50_ms", latency.p50_ms);
    m.set("latency_p99_ms", latency.p99_ms);
}

fn phase_note(name: &str, p: &PhaseSummary) -> String {
    format!(
        "{name}: {} ops in {} slices, fewest in a slice {} ({:.0} beyond its p99)",
        p.samples,
        p.slices,
        p.min_slice_samples,
        p.min_slice_samples as f64 / 100.0
    )
}

/// Dispatch on the workload name.
pub fn run(spec: &RunSpec) -> Result<RunOutput, String> {
    match spec.workload.as_str() {
        "serve_cold" => run_serving(spec, &ServingPlan::serve_cold(spec.toy)),
        "serve_warm" => run_serving(spec, &ServingPlan::serve_warm(spec.toy)),
        "retrieval_100k" => run_serving(spec, &ServingPlan::retrieval(spec.toy)),
        "session_append" => run_session(spec),
        "train_eval" => run_train_eval(spec),
        other => Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    }
}

// ---------------------------------------------------------------------------
// serve_cold · serve_warm · retrieval_100k
// ---------------------------------------------------------------------------

/// Which request stream a serving workload sends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Traffic {
    /// Every request a history never sent before: all cache misses.
    Distinct,
    /// Zipf(1.1) draws from pre-warmed histories: all cache hits.
    ZipfWarm,
}

/// What the engine serves.
#[derive(Debug, Clone, Copy)]
enum Served {
    /// A randomly initialised model with the dense prediction head.
    Dense(ModelShape),
    /// A tied-head model over the `million_item` catalog at `scale`,
    /// served through the clustered index; width and item count are the
    /// catalog's.
    Clustered { scale: f64, max_seq_len: usize },
}

/// The numbers that define a serving workload.
#[derive(Debug, Clone)]
struct ServingPlan {
    served: Served,
    traffic: Traffic,
    histories: usize,
    history_len: usize,
    k: usize,
    /// Distinct sampled histories the oracle is computed for.
    oracle_cap: usize,
    /// Set-ups made after the run besides the first, for the median.
    setup_repeats: usize,
    /// Open-loop rates of the traced run: 25 / 50 / 75 % of the
    /// reference host's closed-loop saturation (README § Reference host).
    open_rates: [f64; 3],
}

impl ServingPlan {
    fn clustered(&self) -> bool {
        matches!(self.served, Served::Clustered { .. })
    }

    fn serve_cold(toy: bool) -> Self {
        ServingPlan {
            served: Served::Dense(ModelShape {
                dim: 100,
                max_seq_len: 50,
                h1: 1,
                h2: 1,
                num_items: if toy { 1_200 } else { 12_000 },
            }),
            traffic: Traffic::Distinct,
            histories: if toy { 4_000 } else { 60_000 },
            history_len: 40,
            k: 10,
            oracle_cap: if toy { 32 } else { 128 },
            setup_repeats: SETUP_REPEATS,
            open_rates: [400.0, 800.0, 1200.0],
        }
    }

    fn serve_warm(toy: bool) -> Self {
        let shape = if toy {
            ModelShape {
                dim: 32,
                max_seq_len: 50,
                h1: 1,
                h2: 1,
                num_items: 400,
            }
        } else {
            ModelShape {
                dim: 100,
                max_seq_len: 200,
                h1: 3,
                h2: 1,
                num_items: 3_400,
            }
        };
        ServingPlan {
            served: Served::Dense(shape),
            traffic: Traffic::ZipfWarm,
            histories: if toy { 32 } else { 256 },
            history_len: if toy { 30 } else { 150 },
            k: 10,
            oracle_cap: if toy { 16 } else { 64 },
            setup_repeats: SETUP_REPEATS,
            open_rates: [6_000.0, 12_000.0, 18_000.0],
        }
    }

    fn retrieval(toy: bool) -> Self {
        ServingPlan {
            served: Served::Clustered {
                scale: if toy { 0.012 } else { 0.1 },
                max_seq_len: 32,
            },
            traffic: Traffic::Distinct,
            histories: if toy { 2_000 } else { 60_000 },
            history_len: 32,
            k: 50,
            oracle_cap: if toy { 32 } else { 256 },
            setup_repeats: 1,
            open_rates: [500.0, 1000.0, 1500.0],
        }
    }
}

/// A started serving workload.
struct Serving {
    svc: Service,
    histories: Vec<Vec<u32>>,
    /// Index schedule of the Zipf traffic; empty for distinct traffic.
    schedule: Vec<u32>,
    /// Position of the next request in the stream.
    cursor: usize,
    /// Operations the engine has admitted so far.
    admitted: u64,
    /// The clustered workload's catalog and the seconds it took to
    /// generate.
    catalog: Option<(s::Catalog, f64)>,
    engine_start_s: f64,
}

impl Serving {
    fn start(
        plan: &ServingPlan,
        spec: &RunSpec,
        recorder_capacity: usize,
    ) -> Result<Serving, String> {
        let (model, histories, catalog) = match plan.served {
            Served::Clustered { scale, max_seq_len } => {
                let t0 = Instant::now();
                let c = s::Catalog::generate(scale);
                let catalog_s = t0.elapsed().as_secs_f64();
                (
                    s::Model::over_catalog(&c, max_seq_len),
                    c.sample_histories(spec.seed, plan.histories, plan.history_len),
                    Some((c, catalog_s)),
                )
            }
            Served::Dense(shape) => (
                s::Model::init(shape, spec.seed),
                inputs::uniform_histories(
                    spec.seed,
                    plan.histories,
                    plan.history_len,
                    shape.num_items as u32,
                ),
                None,
            ),
        };
        let schedule = match plan.traffic {
            Traffic::Distinct => Vec::new(),
            Traffic::ZipfWarm => inputs::zipf_schedule(spec.seed, plan.histories, 1.1, 1 << 19),
        };
        let t1 = Instant::now();
        let svc = Service::start(
            model,
            ServiceConfig {
                workers: host::engine_workers(),
                cache_capacity: 1024,
                session_capacity: 0,
                clustered: catalog.is_some(),
                recorder_capacity,
                trace_seed: spec.seed,
            },
        );
        let engine_start_s = t1.elapsed().as_secs_f64();
        let mut serving = Serving {
            svc,
            histories,
            schedule,
            cursor: 0,
            admitted: 0,
            catalog,
            engine_start_s,
        };
        serving.warm_up(plan)?;
        Ok(serving)
    }

    /// Warm-up, part of set-up: distinct traffic sends two full batches
    /// (threads spawned, workspaces sized); Zipf traffic sends every
    /// history once so each later request is a cache hit.
    fn warm_up(&mut self, plan: &ServingPlan) -> Result<(), String> {
        let count = match plan.traffic {
            Traffic::Distinct => 2 * self.svc.max_batch(),
            Traffic::ZipfWarm => self.histories.len(),
        };
        for chunk in (0..count).collect::<Vec<_>>().chunks(self.svc.max_batch()) {
            let pending: Vec<_> = chunk
                .iter()
                .map(|&i| self.svc.submit(&self.histories[i], plan.k))
                .collect();
            for p in pending {
                p.wait()?;
            }
        }
        self.admitted += count as u64;
        if plan.traffic == Traffic::Distinct {
            self.cursor = count;
        }
        Ok(())
    }

    /// The next `count` positions of the request stream (open loop); the
    /// engine will admit that many operations.
    fn take_indices(&mut self, count: usize) -> Vec<usize> {
        self.admitted += count as u64;
        let first = self.cursor;
        self.cursor += count;
        (first..first + count)
            .map(|at| stream_index(&self.schedule, self.histories.len(), at))
            .collect()
    }

    /// One closed-loop phase over the workload's request stream.
    fn phase(
        &mut self,
        k: usize,
        window: usize,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> Outcome {
        let (schedule, total, cursor) = (&self.schedule, self.histories.len(), &mut self.cursor);
        let next = || {
            *cursor += 1;
            stream_index(schedule, total, *cursor - 1)
        };
        let out = closed_loop(
            &self.svc,
            &self.histories,
            next,
            k,
            window,
            duration,
            tracer,
            self.admitted,
        );
        self.admitted += out.attempted as u64;
        out
    }
}

/// History index of position `at` of a request stream: the Zipf
/// schedule when there is one, else each history in turn.
fn stream_index(schedule: &[u32], histories: usize, at: usize) -> usize {
    if schedule.is_empty() {
        at % histories
    } else {
        schedule[at % schedule.len()] as usize
    }
}

/// The `(samples, window length)` pairs of a phase's segments.
fn segments_of(phase: &[Outcome]) -> Vec<(&[Sample], u64)> {
    phase
        .iter()
        .map(|o| (o.samples.as_slice(), o.phase_ns))
        .collect()
}

/// Compare kept replies with the exact oracle, element for element.
/// Returns `(replies compared, replies that differ)`.
fn verify_exact(
    model: ModelRef<'_>,
    histories: &[Vec<u32>],
    kept: &[(usize, Vec<u32>)],
    k: usize,
    cap: usize,
) -> Result<(usize, usize), String> {
    let mut distinct: Vec<usize> = Vec::new();
    for (i, _) in kept {
        if distinct.len() < cap && !distinct.contains(i) {
            distinct.push(*i);
        }
    }
    let mut oracle: HashMap<usize, Vec<u32>> = HashMap::new();
    for chunk in distinct.chunks(32) {
        let refs: Vec<&[u32]> = chunk.iter().map(|&i| histories[i].as_slice()).collect();
        for (&i, ranked) in chunk.iter().zip(model.recommend_exact(&refs, k)?) {
            oracle.insert(i, ranked);
        }
    }
    let compared: Vec<bool> = kept
        .iter()
        .filter_map(|(i, items)| Some(oracle.get(i)? == items))
        .collect();
    Ok((
        compared.len(),
        compared.iter().filter(|same| !**same).count(),
    ))
}

/// What the retrieval check found.
struct RetrievalCheck {
    compared: usize,
    differ: usize,
    recall: f64,
    full_probe_checked: usize,
    full_probe_equal: bool,
}

/// The clustered workload's check: every kept reply must equal a direct
/// clustered query of the same history; the clustered ranking is scored
/// against the exact oracle (recall@k); and a full probe of the index
/// must reproduce the oracle bit for bit on the first 32 queries.
fn verify_retrieval(
    model: ModelRef<'_>,
    histories: &[Vec<u32>],
    kept: &[(usize, Vec<u32>)],
    k: usize,
    cap: usize,
) -> Result<RetrievalCheck, String> {
    let d = model.dim();
    let mut ws = model.workspace(32);
    let mut check = RetrievalCheck {
        compared: 0,
        differ: 0,
        recall: 0.0,
        full_probe_checked: 0,
        full_probe_equal: true,
    };
    let mut recalls = Vec::new();
    for chunk in kept[..kept.len().min(cap)].chunks(32) {
        let refs: Vec<&[u32]> = chunk
            .iter()
            .map(|(i, _)| histories[*i].as_slice())
            .collect();
        let hidden = model.hidden_batch(&refs, &mut ws)?;
        let exact = model.recommend_exact(&refs, k)?;
        for (row, ((i, items), oracle)) in chunk.iter().zip(&exact).enumerate() {
            let h = &hidden[row * d..(row + 1) * d];
            let (direct, _) = model.recommend_clustered(h, &histories[*i], k)?;
            check.compared += 1;
            check.differ += usize::from(&direct != items);
            let hits = direct.iter().filter(|id| oracle.contains(id)).count();
            recalls.push(hits as f64 / oracle.len().max(1) as f64);
            if check.full_probe_checked < 32 {
                check.full_probe_checked += 1;
                check.full_probe_equal &=
                    &model.recommend_full_probe(h, &histories[*i], k)? == oracle;
            }
        }
    }
    check.recall = if recalls.is_empty() {
        0.0
    } else {
        recalls.iter().sum::<f64>() / recalls.len() as f64
    };
    Ok(check)
}

fn run_serving(spec: &RunSpec, plan: &ServingPlan) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(spec.traced);
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let recorder = if spec.traced { RECORDER_SPANS } else { 0 };
    let (mut sv, setup_s) = timed_setup(|| Serving::start(plan, spec, recorder))?;

    // Measured phases: the saturated (64 in flight) and the paced (8 in
    // flight) loop alternate, so a slow spell of the host lands in both.
    // A traced run spends half its seconds here, in one cycle, and the
    // other half on the open loop and the untraced comparison.
    let (cycles, measured) = if spec.traced { (1, 0.5) } else { (2, 1.0) };
    let segment = spec.share(measured / (2 * cycles) as f64);
    let (mut thr, mut lat) = (Vec::new(), Vec::new());
    let stats0 = sv.svc.stats();
    let (mut stats1, mut paced_from_ns) = (stats0.clone(), 0);
    for _ in 0..cycles {
        thr.push(sv.phase(plan.k, 64, segment, &mut tracer));
        stats1 = sv.svc.stats();
        paced_from_ns = tracer.now_ns();
        lat.push(sv.phase(plan.k, 8, segment, &mut tracer));
    }
    let peak_rss_mb = host::peak_rss_mb()?;
    let stats2 = sv.svc.stats();
    let recorder_view = sv.svc.recorder_snapshot();
    let thr_sum = summarize_slices(&segments_of(&thr), SLICES / cycles);
    let lat_sum = summarize_slices(&segments_of(&lat), SLICES / cycles);
    result
        .notes
        .push(phase_note("throughput phase (64 in flight)", &thr_sum));
    result
        .notes
        .push(phase_note("latency phase (8 in flight)", &lat_sum));

    // Output check, after the timed phases.
    let model = sv.svc.model();
    let kept: Vec<(usize, Vec<u32>)> = thr
        .iter()
        .chain(&lat)
        .flat_map(|o| o.kept.iter().cloned())
        .collect();
    let mut recall = None;
    let differ = if plan.clustered() {
        let c = verify_retrieval(model, &sv.histories, &kept, plan.k, plan.oracle_cap)?;
        result.notes.push(format!(
            "check: {} sampled replies equal a direct clustered query ({} differ); recall@{} {:.4} vs exact; \
             full probe equals exact on {} queries: {}",
            c.compared, c.differ, plan.k, c.recall, c.full_probe_checked, c.full_probe_equal
        ));
        result.correct &= c.full_probe_equal && c.recall >= 0.9 && c.compared > 0;
        recall = Some(c.recall);
        c.differ
    } else {
        let (compared, differ) =
            verify_exact(model, &sv.histories, &kept, plan.k, plan.oracle_cap)?;
        result.notes.push(format!("check: {compared} sampled replies compared with recommend_batch_exact, {differ} differ"));
        result.correct &= compared > 0;
        differ
    };
    let counts = |phase: &[Outcome]| {
        phase
            .iter()
            .fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed))
    };
    result.count_phase("throughput_64_in_flight", counts(&thr).0, counts(&thr).1);
    result.count_phase("latency_8_in_flight", counts(&lat).0, counts(&lat).1);
    result.failed += differ;
    result.correct &= result.failed == 0;

    set_end_to_end(&mut result.metrics, &thr_sum, &lat_sum);
    if spec.traced {
        let taken = Taken {
            stats: [stats0, stats1, stats2],
            recorder: recorder_view,
            paced_from_ns,
            recall,
        };
        serving_layers(
            spec,
            plan,
            sv,
            &taken,
            thr_sum.per_s,
            &mut tracer,
            &mut result,
        )?;
    } else {
        sv.svc.shutdown();
        finish_untraced(
            &mut result.metrics,
            peak_rss_mb,
            setup_s,
            plan.setup_repeats,
            || Serving::start(plan, spec, 0),
        )?;
    }
    Ok(RunOutput {
        result,
        tracer,
        train_threads: 1,
    })
}

/// What the measured phases of a traced serving run left behind.
struct Taken {
    /// Engine telemetry before the saturated phase, between the two
    /// phases, and after the paced phase.
    stats: [s::ServeView; 3],
    recorder: s::RecorderView,
    /// Harness time at which the paced phase began.
    paced_from_ns: u64,
    recall: Option<f64>,
}

/// The per-layer half of a traced serving run: engine telemetry, the
/// recorder's stages, kernel and structure probes, the staged replay,
/// the open loop, and the untraced comparison engine.
fn serving_layers(
    spec: &RunSpec,
    plan: &ServingPlan,
    mut sv: Serving,
    taken: &Taken,
    traced_per_s: f64,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let m = &mut result.metrics;
    let model = sv.svc.model();
    if let Some((_, catalog_s)) = &sv.catalog {
        m.set("data.catalog_s", *catalog_s);
        m.set("core.retrieval.index_build_s", sv.engine_start_s);
    }
    if let Some(r) = taken.recall {
        m.set("core.retrieval.recall_at_50", r);
    }
    let [before, between, after] = &taken.stats;
    serve_counters(
        m,
        &between.since(before),
        &after.since(between),
        &after.since(before),
    );
    let submit_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|sp| sp.name == "serve.submit")
        .map(|sp| sp.dur_ns() as f64 / 1e3)
        .collect();
    m.set(
        "serve.span.admission_us",
        if submit_us.is_empty() {
            0.0
        } else {
            median(&submit_us)
        },
    );
    recorder_metrics(m, &taken.recorder, tracer, taken.paced_from_ns);

    let shapes = Shapes {
        d: model.dim(),
        n: model.max_seq_len(),
        vocab: model.vocab(),
    };
    let peaks = probes::peaks(m, tracer);
    probes::inference_kernels(m, tracer, shapes, peaks);
    probes::serve_structures(m, tracer, plan.history_len.min(shapes.n), shapes.vocab);
    probes::obs_structures(m, tracer);
    if let Some((catalog, _)) = &sv.catalog {
        probes::kmeans(
            m,
            tracer,
            catalog.embeddings(),
            catalog.num_items().min(16_384),
            catalog.dim(),
        );
    }
    let batch_ms = staged_replay(m, tracer, model, &sv.histories, plan)?;
    let miss_ratio = 1.0 - m.get("serve.cache_hit_ratio").unwrap_or(0.0);
    let worker_ms_per_batch = 32_000.0 / traced_per_s * host::engine_workers() as f64;
    m.set(
        "core.busy_share_pct",
        100.0 * miss_ratio * batch_ms / worker_ms_per_batch,
    );

    // Open loop at three fixed rates.
    let (mut good_rate, mut sender_lag) = (0.0f64, 0.0f64);
    for (rate, names) in plan.open_rates.iter().zip(OPEN_LOOP_NAMES) {
        let due = inputs::poisson_schedule(spec.seed, *rate, spec.seconds / 12.0);
        let order = sv.take_indices(due.len());
        let o = tracer.scope("client.open_loop", 0, 0, || {
            open_loop(&sv.svc, &sv.histories, &order, plan.k, &due)
        });
        result.count_phase(names.phase, o.attempted, o.failed);
        result.metrics.set(names.p50, o.p50_ms);
        result.metrics.set(names.p99, o.p99_ms);
        if o.steady && o.failed == 0 && o.p99_ms <= OPEN_LOOP_P99_LIMIT_MS {
            good_rate = good_rate.max(*rate);
        }
        sender_lag = sender_lag.max(o.sender_lag_p99_ms);
    }
    result.metrics.set("client.goodput_rps", good_rate);
    result.metrics.set("client.sender_lag_p99_ms", sender_lag);

    // The same saturated phase on an engine with the recorder off.
    sv.svc.shutdown();
    let mut plain = Serving::start(plan, spec, 0)?;
    let untraced = plain.phase(plan.k, 64, spec.share(0.25), &mut Tracer::new(false));
    result.count_phase("untraced_comparison", untraced.attempted, untraced.failed);
    let untraced_sum = summarize_slices(&[(&untraced.samples, untraced.phase_ns)], SLICES);
    trace_overhead(&mut result.metrics, untraced_sum.per_s, traced_per_s);
    plain.svc.shutdown();
    Ok(())
}

fn trace_overhead(m: &mut Metrics, untraced_per_s: f64, traced_per_s: f64) {
    m.set("client.traced_throughput_per_s", traced_per_s);
    m.set(
        "client.trace_overhead_pct",
        100.0 * (untraced_per_s - traced_per_s) / untraced_per_s,
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `serve.*` from the engine's own telemetry: batching figures from the
/// saturated phase, the queue/compute split from the 8-in-flight phase,
/// ratios over both.
fn serve_counters(
    m: &mut Metrics,
    saturated: &s::ServeView,
    paced: &s::ServeView,
    both: &s::ServeView,
) {
    m.set(
        "serve.queue_wait_p50_us",
        paced.queue_wait_us.quantile(0.50),
    );
    m.set(
        "serve.queue_wait_p99_us",
        paced.queue_wait_us.quantile(0.99),
    );
    m.set("serve.compute_p50_us", paced.compute_us.quantile(0.50));
    m.set("serve.compute_p99_us", paced.compute_us.quantile(0.99));
    m.set(
        "serve.mean_batch_size",
        ratio(saturated.batched_requests, saturated.batches),
    );
    m.set("serve.batch_fill_pct", saturated.batch_fill_pct.mean());
    m.set(
        "serve.flush_full_ratio",
        ratio(
            saturated.flush_full,
            saturated.flush_full + saturated.flush_deadline,
        ),
    );
    m.set(
        "serve.cache_hit_ratio",
        ratio(both.cache_hits, both.cache_hits + both.cache_misses),
    );
    m.set("serve.degraded_ratio", ratio(both.degraded, both.requests));
    m.set("serve.rejected", (both.rejected + both.model_errors) as f64);
    m.set(
        "core.retrieval.probed_clusters",
        both.retrieval_probes.mean(),
    );
    m.set("core.retrieval.survivors", both.retrieval_survivors.mean());
}

/// Stage medians from the flight recorder, its fill figures, and its
/// spans adopted into the harness's trace. The medians cover the
/// operations the harness sent at or after `since_ns` on its own clock
/// (the paced phase of a serving workload), so saturated-phase queueing
/// does not blur the stage split.
fn recorder_metrics(m: &mut Metrics, view: &s::RecorderView, tracer: &mut Tracer, since_ns: u64) {
    let mut roots = HashMap::new();
    let mut starts = HashMap::new();
    for sp in tracer
        .spans()
        .iter()
        .filter(|sp| sp.parent == 0 && sp.trace != 0)
    {
        roots.insert(sp.trace, sp.id);
        starts.insert(sp.trace, sp.start_ns);
    }
    let paced: Vec<s::EngineSpan> = view
        .spans
        .iter()
        .filter(|r| starts.get(&r.trace).is_some_and(|&t| t >= since_ns))
        .copied()
        .collect();
    let st = engine_trace::stage_medians(&paced);
    m.set("serve.span.pickup_us", st.pickup_us);
    m.set("serve.span.batch_us", st.batch_us);
    m.set("serve.span.compute_us", st.compute_us);
    m.set("serve.span.retrieval_us", st.retrieval_us);
    m.set("serve.span.complete_us", st.complete_us);
    m.set("serve.span.cache_hit_us", st.cache_hit_us);
    m.set("session.span.resolve_us", st.session_resolve_us);
    m.set("session.span.prepare_us", st.session_prepare_us);
    m.set("session.span.apply_us", st.session_apply_us);
    m.set("session.span.commit_us", st.session_commit_us);
    m.set("obs.recorder.spans_recorded", view.recorded as f64);
    m.set(
        "obs.recorder.overwritten_ratio",
        ratio(
            view.recorded.saturating_sub(view.spans.len() as u64),
            view.recorded,
        ),
    );
    let offset = engine_trace::clock_offset_ns(&view.spans, &starts);
    tracer.adopt(engine_trace::to_spans(&view.spans, offset, &roots));
}

/// Replay batches of the workload's own histories through the model's
/// stages, each call inside a span: hidden rows, hidden + head, hidden +
/// head + top-k. Stage costs are differences of the medians. Returns
/// the model time of one batch of 32 in milliseconds.
fn staged_replay(
    m: &mut Metrics,
    tracer: &mut Tracer,
    model: ModelRef<'_>,
    histories: &[Vec<u32>],
    plan: &ServingPlan,
) -> Result<f64, String> {
    if plan.traffic == Traffic::ZipfWarm {
        // Every request is a cache hit: the forward and the head run
        // nowhere, and the only model-side work is ranking a cached row.
        let row = model
            .score_batch(&[histories[0].as_slice()], &mut model.workspace(1))?
            .remove(0);
        let ns = tracer.scope("eval.top_n_excluding", 0, 0, || {
            probes::time_ns(Duration::from_millis(40), || {
                std::hint::black_box(s::rank_top_k(&row, plan.k, &histories[0]));
            })
        });
        m.set("core.topk_ms_b32", 32.0 * ns / 1e6);
        return Ok(0.0);
    }
    let clustered = plan.clustered();
    let mut ws = model.workspace(32);
    let (mut hidden_ms, mut score_ms, mut rank_ms, mut b1_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut query_us, mut probed, mut survivors) = (Vec::new(), Vec::new(), Vec::new());
    let d = model.dim();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for batch in histories.chunks(32).filter(|c| c.len() == 32).take(6) {
        let refs: Vec<&[u32]> = batch.iter().map(Vec::as_slice).collect();
        let start = tracer.now_ns();
        let t = Instant::now();
        let hidden = tracer.scope("core.hidden_batch", 0, 0, || {
            model.hidden_batch(&refs, &mut ws)
        })?;
        hidden_ms.push(ms(t));
        let t = Instant::now();
        tracer.scope("core.score_batch", 0, 0, || {
            model.score_batch(&refs, &mut ws).map(|rows| rows.len())
        })?;
        score_ms.push(ms(t));
        let t = Instant::now();
        tracer.scope("core.recommend_exact", 0, 0, || {
            model.recommend_exact(&refs, plan.k).map(|r| r.len())
        })?;
        rank_ms.push(ms(t));
        let t = Instant::now();
        tracer.scope("core.hidden_b1", 0, 0, || {
            model.hidden_batch(&refs[..1], &mut ws).map(|h| h.len())
        })?;
        b1_ms.push(ms(t));
        if clustered {
            for (row, history) in batch.iter().enumerate() {
                let t = Instant::now();
                let (_, stats) =
                    model.recommend_clustered(&hidden[row * d..(row + 1) * d], history, plan.k)?;
                query_us.push(t.elapsed().as_secs_f64() * 1e6);
                probed.push(stats.probed_clusters as f64);
                survivors.push(stats.survivors as f64);
            }
        }
        let end = tracer.now_ns();
        tracer.record("client.replay_batch", 0, 0, start, end);
    }
    if hidden_ms.is_empty() {
        return Err("staged replay needs at least 32 histories".into());
    }
    let (hidden, score, rank) = (median(&hidden_ms), median(&score_ms), median(&rank_ms));
    let (head, topk) = ((score - hidden).max(0.0), (rank - score).max(0.0));
    m.set("core.hidden_ms_b32", hidden);
    m.set("core.hidden_ms_b1", median(&b1_ms));
    m.set("core.head_ms_b32", head);
    m.set("core.topk_ms_b32", topk);
    m.set("core.head_share", head / rank);
    m.set("core.topk_share", topk / rank);
    if clustered {
        let q = median(&query_us);
        m.set("core.retrieval.query_us", q);
        m.set("core.retrieval.probed_clusters", median(&probed));
        m.set("core.retrieval.survivors", median(&survivors));
        m.set(
            "core.retrieval.useful_ratio",
            plan.k as f64 / median(&survivors).max(1.0),
        );
        Ok(hidden + 32.0 * q / 1e3)
    } else {
        Ok(rank)
    }
}

// ---------------------------------------------------------------------------
// session_append
// ---------------------------------------------------------------------------

struct SessionSizes {
    shape: ModelShape,
    users: u32,
    session_capacity: usize,
    start_len: usize,
    warm_events: usize,
    oracle_cap: usize,
    k: usize,
}

impl SessionSizes {
    fn of(toy: bool) -> Self {
        let shape = if toy {
            ModelShape {
                dim: 32,
                max_seq_len: 50,
                h1: 1,
                h2: 1,
                num_items: 400,
            }
        } else {
            ModelShape {
                dim: 100,
                max_seq_len: 200,
                h1: 3,
                h2: 1,
                num_items: 3_400,
            }
        };
        SessionSizes {
            shape,
            users: if toy { 16 } else { 128 },
            session_capacity: if toy { 8 } else { 64 },
            start_len: if toy { 10 } else { 200 },
            warm_events: if toy { 32 } else { 192 },
            oracle_cap: if toy { 16 } else { 96 },
            k: 10,
        }
    }
}

/// One append in [`APPEND_CHECK_EVERY`] is recomputed from scratch.
const APPEND_CHECK_EVERY: usize = 16;

struct Sessions {
    svc: Service,
    /// Client-side history per user: the hint sent with each event.
    histories: Vec<Vec<u32>>,
    events: Vec<inputs::Event>,
    cursor: usize,
    admitted: u64,
}

/// What a phase of appends produced.
#[derive(Default)]
struct AppendOutcome {
    samples: Vec<Sample>,
    phase_ns: u64,
    attempted: usize,
    failed: usize,
    /// `(grown history, ranked items)` of the kept replies.
    kept: Vec<(Vec<u32>, Vec<u32>)>,
}

impl Sessions {
    fn start(
        sizes: &SessionSizes,
        spec: &RunSpec,
        recorder_capacity: usize,
    ) -> Result<Sessions, String> {
        let svc = Service::start(
            s::Model::init(sizes.shape, spec.seed),
            ServiceConfig {
                workers: host::engine_workers(),
                cache_capacity: 1024,
                session_capacity: sizes.session_capacity,
                clustered: false,
                recorder_capacity,
                trace_seed: spec.seed,
            },
        );
        let items = sizes.shape.num_items as u32;
        let mut sessions = Sessions {
            svc,
            histories: inputs::uniform_histories(
                spec.seed,
                sizes.users as usize,
                sizes.start_len,
                items,
            ),
            events: inputs::event_stream(spec.seed, sizes.users, items, 1 << 17),
            cursor: 0,
            admitted: 0,
        };
        // Warm-up, part of set-up: enough events that the store is full
        // and the measured mix of warm appends and cold starts is the
        // steady one.
        let warm = sessions.append_phase(
            sizes.k,
            Some(sizes.warm_events),
            Duration::MAX,
            &mut Tracer::new(false),
        );
        if warm.failed > 0 {
            return Err(format!(
                "{} of {} warm-up appends failed",
                warm.failed, warm.attempted
            ));
        }
        Ok(sessions)
    }

    /// Synchronous appends from one caller until `duration` has passed
    /// (or `count` events were sent).
    fn append_phase(
        &mut self,
        k: usize,
        count: Option<usize>,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> AppendOutcome {
        let mut out = AppendOutcome {
            phase_ns: duration.as_nanos().min(u128::from(u64::MAX)) as u64,
            ..Default::default()
        };
        let t0 = tracer.now_ns();
        let end = t0.saturating_add(out.phase_ns);
        while tracer.now_ns() < end && count.is_none_or(|c| out.attempted < c) {
            let ev = self.events[self.cursor % self.events.len()];
            self.cursor += 1;
            let trace = if tracer.enabled() {
                self.svc.trace_id_of(self.admitted)
            } else {
                0
            };
            self.admitted += 1;
            let history = &mut self.histories[ev.user as usize];
            let start_ns = tracer.now_ns();
            let reply = self
                .svc
                .append_event(u64::from(ev.user), history, ev.item, k);
            let done_ns = tracer.now_ns();
            history.push(ev.item);
            tracer.record("client.append", 0, trace, start_ns, done_ns);
            if done_ns < end {
                out.samples.push(Sample {
                    done_ns: done_ns - t0,
                    latency_ns: done_ns - start_ns,
                });
            }
            match reply {
                Ok(r) if !r.degraded => {
                    if out.attempted.is_multiple_of(APPEND_CHECK_EVERY) {
                        out.kept.push((history.clone(), r.items));
                    }
                }
                _ => out.failed += 1,
            }
            out.attempted += 1;
        }
        out
    }
}

fn run_session(spec: &RunSpec) -> Result<RunOutput, String> {
    let sizes = SessionSizes::of(spec.toy);
    let mut tracer = Tracer::new(spec.traced);
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let recorder = if spec.traced { RECORDER_SPANS } else { 0 };
    let (mut ss, setup_s) = timed_setup(|| Sessions::start(&sizes, spec, recorder))?;

    let stats0 = ss.svc.stats();
    let out = ss.append_phase(
        sizes.k,
        None,
        spec.share(if spec.traced { 0.5 } else { 1.0 }),
        &mut tracer,
    );
    let peak_rss_mb = host::peak_rss_mb()?;
    let stats1 = ss.svc.stats();
    let recorder_view = ss.svc.recorder_snapshot();
    let sum = summarize_slices(&[(&out.samples, out.phase_ns)], SLICES);
    result
        .notes
        .push(phase_note("append phase (one synchronous caller)", &sum));

    // Output check: recompute sampled replies from the full history.
    let model = ss.svc.model();
    let kept = &out.kept[..out.kept.len().min(sizes.oracle_cap)];
    let mut differ = 0;
    for chunk in kept.chunks(32) {
        let refs: Vec<&[u32]> = chunk.iter().map(|(h, _)| h.as_slice()).collect();
        let oracle = model.recommend_exact(&refs, sizes.k)?;
        differ += chunk
            .iter()
            .zip(&oracle)
            .filter(|((_, items), want)| items != *want)
            .count();
    }
    result.notes.push(format!(
        "check: {} sampled append replies recomputed from the hinted history plus the item, {differ} differ",
        kept.len()
    ));
    result.count_phase("append_events", out.attempted, out.failed);
    result.failed += differ;
    result.correct &= !kept.is_empty() && result.failed == 0;
    set_end_to_end(&mut result.metrics, &sum, &sum);

    if spec.traced {
        session_layers(
            spec,
            &sizes,
            ss,
            &stats1.since(&stats0),
            &recorder_view,
            sum.per_s,
            &mut tracer,
            &mut result,
        )?;
    } else {
        ss.svc.shutdown();
        finish_untraced(
            &mut result.metrics,
            peak_rss_mb,
            setup_s,
            SETUP_REPEATS,
            || Sessions::start(&sizes, spec, 0),
        )?;
    }
    Ok(RunOutput {
        result,
        tracer,
        train_threads: 1,
    })
}

/// The per-layer half of a traced `session_append` run.
#[allow(clippy::too_many_arguments)]
fn session_layers(
    spec: &RunSpec,
    sizes: &SessionSizes,
    ss: Sessions,
    delta: &s::ServeView,
    recorder: &s::RecorderView,
    traced_per_s: f64,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let m = &mut result.metrics;
    let model = ss.svc.model();
    let events = delta.session_appends
        + delta.session_cold_starts
        + delta.session_resumes
        + delta.session_resets;
    m.set("session.warm_ratio", ratio(delta.session_appends, events));
    m.set("session.cold_starts", delta.session_cold_starts as f64);
    m.set("session.resumes", delta.session_resumes as f64);
    m.set("session.evictions", delta.session_evictions as f64);
    m.set(
        "session.bytes_per_session",
        ratio(delta.session_bytes, delta.sessions_live),
    );
    m.set(
        "serve.degraded_ratio",
        ratio(delta.degraded, delta.requests),
    );
    m.set(
        "serve.rejected",
        (delta.rejected + delta.model_errors) as f64,
    );
    m.set("serve.compute_p50_us", delta.compute_us.quantile(0.50));
    m.set("serve.compute_p99_us", delta.compute_us.quantile(0.99));
    recorder_metrics(m, recorder, tracer, 0);

    let shapes = Shapes {
        d: model.dim(),
        n: model.max_seq_len(),
        vocab: model.vocab(),
    };
    let window = shapes.n.min(sizes.start_len);
    let peaks = probes::peaks(m, tracer);
    probes::inference_kernels(m, tracer, shapes, peaks);
    probes::session_kernels(m, tracer, shapes);
    probes::serve_structures(m, tracer, window, shapes.vocab);
    probes::obs_structures(m, tracer);
    probes::session_structures(m, tracer, sizes.session_capacity, sizes.start_len);

    // The two session kernels through the model's own entry points.
    let mut ws = model.workspace(1);
    let mut probe = model.session_probe()?;
    let (mut prepare_ms, mut append_us) = (Vec::new(), Vec::new());
    for history in ss.histories.iter().take(24) {
        let (past, item) = history.split_at(history.len() - 1);
        let t = Instant::now();
        tracer.scope("core.prepare_session", 0, 0, || {
            probe.prepare(past, &mut ws)
        })?;
        prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tracer.scope("core.append_session", 0, 0, || {
            probe.append(item[0], &mut ws).map(|l| l.len())
        })?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("core.session.prepare_ms", median(&prepare_ms));
    m.set("core.session.append_us", median(&append_us));

    // The same append phase on an engine with the recorder off.
    ss.svc.shutdown();
    let mut plain = Sessions::start(sizes, spec, 0)?;
    let untraced = plain.append_phase(sizes.k, None, spec.share(0.5), &mut Tracer::new(false));
    result.count_phase("untraced_comparison", untraced.attempted, untraced.failed);
    let untraced_sum = summarize_slices(&[(&untraced.samples, untraced.phase_ns)], SLICES);
    trace_overhead(&mut result.metrics, untraced_sum.per_s, traced_per_s);
    plain.svc.shutdown();
    Ok(())
}

// ---------------------------------------------------------------------------
// train_eval
// ---------------------------------------------------------------------------

struct TrainSizes {
    scale: f64,
    held_out: usize,
    spec: s::TrainSpec,
}

impl TrainSizes {
    fn of(toy: bool, seed: u64) -> Self {
        TrainSizes {
            scale: if toy { 0.02 } else { 0.05 },
            held_out: if toy { 30 } else { 100 },
            spec: s::TrainSpec {
                dim: if toy { 32 } else { 100 },
                max_seq_len: 50,
                epochs: 1,
                threads: host::engine_workers(),
                lr: 3e-3,
                seed,
            },
        }
    }
}

/// Held-out users scored per timed `evaluate_held_out` call.
const EVAL_GROUP: usize = 8;

/// Repeat `Vsan::train` from scratch until `budget` is spent (at least
/// twice). Every call does the same work from the same seed, so the
/// per-epoch losses must repeat bit for bit.
fn train_phase(
    data: &s::TrainData,
    spec: s::TrainSpec,
    observe: bool,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Vec<s::Trained>), String> {
    let (mut rates, mut runs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while runs.len() < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let trained = tracer.scope("core.train", 0, runs.len() as u64 + 1, || {
            s::train(data, spec, observe)
        })?;
        rates.push((spec.epochs * data.train_users()) as f64 / t.elapsed().as_secs_f64());
        // Keep the first and the latest run only: bits to compare, a
        // model to evaluate.
        if runs.len() == 2 {
            runs.pop();
        }
        runs.push(trained);
    }
    Ok((rates, runs))
}

fn run_train_eval(spec: &RunSpec) -> Result<RunOutput, String> {
    let sizes = TrainSizes::of(spec.toy, spec.seed);
    let mut tracer = Tracer::new(spec.traced);
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };

    // Set-up: generate, preprocess, split, and one warm-up epoch (thread
    // spawn, first-touch of every buffer).
    let set_up = || -> Result<s::TrainData, String> {
        let data = s::TrainData::generate(sizes.scale, sizes.held_out, spec.seed);
        s::train(
            &data,
            s::TrainSpec {
                epochs: 1,
                ..sizes.spec
            },
            false,
        )?;
        Ok(data)
    };
    let (data, setup_s) = timed_setup(set_up)?;
    let eval_set = s::EvalSet::of(&data);
    if data.train_users() == 0 || eval_set.len() == 0 {
        return Err("the generated dataset has no training or test users".into());
    }

    // Phase 1: training throughput, two thirds of the measured time (a
    // call takes a second or more; an eval sample takes a millisecond).
    let measured = if spec.traced { 0.5 } else { 1.0 };
    let (rates, runs) = train_phase(
        &data,
        sizes.spec,
        spec.traced,
        spec.share(measured * 2.0 / 3.0),
        &mut tracer,
    )?;
    let (first, last) = (&runs[0], &runs[runs.len() - 1]);
    let bits = |losses: &[f32]| {
        losses
            .iter()
            .map(|l| format!("{:08x}", l.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let finite = !last.losses.is_empty() && last.losses.iter().all(|l| l.is_finite());
    let repeat = bits(&first.losses) == bits(&last.losses);
    result.notes.push(format!(
        "train: {} calls of {} epoch(s) over {} users, N = {}; examples/s per call {:?}; loss bits per epoch \
         [{}]; finite {finite}, identical across calls {repeat}",
        rates.len(),
        sizes.spec.epochs,
        data.train_users(),
        data.num_items(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        bits(&last.losses)
    ));
    result.count_phase(
        "train_examples",
        rates.len() * sizes.spec.epochs * data.train_users(),
        0,
    );
    result.correct &= finite && repeat;

    // Phase 2: one `evaluate_held_out` call per group of held-out users,
    // timed. A group, not one user: a 0.4 ms call's tail is the host's
    // timer tick, a 3 ms call's tail is the code's.
    let model = last.model.view();
    let mut samples = Vec::new();
    let mut ndcg_passes: Vec<f64> = Vec::new();
    let phase_ns = spec.share(measured / 3.0).as_nanos() as u64;
    let t0 = tracer.now_ns();
    while tracer.now_ns() - t0 < phase_ns {
        let mut sum = 0.0;
        let pass_start = tracer.now_ns();
        for first in (0..eval_set.len()).step_by(EVAL_GROUP) {
            let start_ns = tracer.now_ns();
            sum += eval_set.evaluate_users(model, first, EVAL_GROUP);
            let done_ns = tracer.now_ns();
            if done_ns - t0 < phase_ns {
                samples.push(Sample {
                    done_ns: done_ns - t0,
                    latency_ns: done_ns - start_ns,
                });
            }
        }
        tracer.record("eval.pass", 0, 0, pass_start, tracer.now_ns());
        ndcg_passes.push(sum / eval_set.len() as f64);
    }
    let peak_rss_mb = host::peak_rss_mb()?;
    let eval_sum = summarize_slices(&[(&samples, phase_ns)], SLICES);
    let ndcg = ndcg_passes[0];
    let same_every_pass = ndcg_passes.iter().all(|n| n.to_bits() == ndcg.to_bits());
    // Three routes to the same number: one call per user, one call over
    // the set, and the serving oracle's ranking scored by hand.
    let whole = eval_set.evaluate_all(model);
    let views = data.test_views();
    let mut by_oracle = 0.0;
    for chunk in views.chunks(32) {
        let refs: Vec<&[u32]> = chunk.iter().map(|v| v.fold_in.as_slice()).collect();
        let ranked = model.recommend_exact(&refs, 10)?;
        by_oracle += chunk
            .iter()
            .zip(&ranked)
            .map(|(v, r)| s::ndcg_of(r, &v.targets, 10))
            .sum::<f64>();
    }
    by_oracle /= views.len() as f64;
    result
        .notes
        .push(phase_note("eval phase (8 users per call)", &eval_sum));
    result.notes.push(format!(
        "eval: {} users x {} passes, NDCG@10 {ndcg:.6} (whole-set call {whole:.6}, via recommend_batch_exact \
         {by_oracle:.6}), identical every pass {same_every_pass}",
        eval_set.len(), ndcg_passes.len()
    ));
    result.count_phase("eval_users", ndcg_passes.len() * eval_set.len(), 0);
    result.correct &=
        same_every_pass && (ndcg - whole).abs() < 1e-9 && (ndcg - by_oracle).abs() < 1e-9;

    let train_sum = PhaseSummary {
        per_s: better_half_mean(&rates, true),
        ..eval_sum
    };
    set_end_to_end(&mut result.metrics, &train_sum, &eval_sum);

    if spec.traced {
        let m = &mut result.metrics;
        let calls_per_pass = eval_set.len().div_ceil(EVAL_GROUP);
        m.set(
            "eval.users_per_s",
            eval_sum.per_s * eval_set.len() as f64 / calls_per_pass as f64,
        );
        m.set("eval.ndcg_at_10", ndcg);
        train_layers(
            spec,
            &sizes,
            &data,
            last,
            better_half_mean(&rates, true),
            &mut tracer,
            &mut result,
        )?;
    } else {
        finish_untraced(
            &mut result.metrics,
            peak_rss_mb,
            setup_s,
            SETUP_REPEATS,
            set_up,
        )?;
    }
    Ok(RunOutput {
        result,
        tracer,
        train_threads: sizes.spec.threads,
    })
}

/// The per-layer half of a traced `train_eval` run: the trainer's epoch
/// records, the staged replay of an evaluation pass, kernel probes,
/// thread scaling and the unobserved comparison.
fn train_layers(
    spec: &RunSpec,
    sizes: &TrainSizes,
    data: &s::TrainData,
    trained: &s::Trained,
    traced_per_s: f64,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let m = &mut result.metrics;
    let model = trained.model.view();
    m.set("data.generate_s", data.generate_s);
    m.set("data.preprocess_s", data.preprocess_s);
    m.set("data.split_s", data.split_s);
    let epochs = &trained.epochs;
    let last_epoch = epochs.last().copied().unwrap_or_default();
    let steps_per_epoch = last_epoch.steps as f64 / epochs.len().max(1) as f64;
    m.set(
        "core.train.epoch_wall_ms",
        median(&epochs.iter().map(|e| e.wall_ms).collect::<Vec<_>>()),
    );
    m.set("core.train.final_loss", f64::from(last_epoch.loss));
    m.set("core.train.kl", f64::from(last_epoch.kl));
    m.set("core.train.ce", f64::from(last_epoch.ce));
    m.set("nn.shards_per_epoch", last_epoch.shards as f64);
    m.set("nn.steps_per_epoch", steps_per_epoch);
    m.set("nn.grad_norm_pre_clip", f64::from(last_epoch.grad_norm_pre));
    m.set(
        "autograd.peak_tape_nodes",
        last_epoch.peak_tape_nodes as f64,
    );
    m.set(
        "autograd.arena_held_mb",
        last_epoch.arena_held_bytes as f64 / (1 << 20) as f64,
    );
    let fresh_in_last_epoch = match epochs.len() {
        0 | 1 => last_epoch.arena_fresh_allocs,
        n => last_epoch.arena_fresh_allocs - epochs[n - 2].arena_fresh_allocs,
    };
    m.set(
        "autograd.arena_fresh_allocs_per_step",
        fresh_in_last_epoch as f64 / steps_per_epoch.max(1.0),
    );

    // Staged replay of one evaluation pass: score, rank, metric.
    let (mut score_us, mut rank_us, mut metric_us) = (Vec::new(), Vec::new(), Vec::new());
    let views = data.test_views();
    for v in &views {
        let t = Instant::now();
        let scores = tracer.scope("core.score_items", 0, 0, || model.score_items(&v.fold_in));
        score_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let ranked = tracer.scope("eval.top_n_excluding", 0, 0, || {
            s::rank_top_k(&scores, 10, &v.fold_in)
        });
        rank_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(tracer.scope("eval.metric_set", 0, 0, || {
            s::ndcg_of(&ranked, &v.targets, 10)
        }));
        metric_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("eval.score_us_per_user", median(&score_us));
    m.set("eval.rank_us_per_user", median(&rank_us));
    m.set("eval.metric_us_per_user", median(&metric_us));

    let shapes = Shapes {
        d: model.dim(),
        n: model.max_seq_len(),
        vocab: model.vocab(),
    };
    let peaks = probes::peaks(m, tracer);
    probes::inference_kernels(m, tracer, shapes, peaks);
    probes::training_kernels(m, tracer, shapes);
    let mut ws = model.workspace(1);
    let b1: Vec<f64> = views
        .iter()
        .take(32)
        .map(|v| {
            let t = Instant::now();
            let _ = std::hint::black_box(model.hidden_batch(&[v.fold_in.as_slice()], &mut ws));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.set("core.hidden_ms_b1", median(&b1));

    // Thread scaling: the same training call on one thread and on
    // every core. With one core there is nothing to compare, and the
    // row says so.
    if host::cores() > 1 {
        let mut rate = |threads: usize| -> Result<f64, String> {
            let spec_t = s::TrainSpec {
                threads,
                ..sizes.spec
            };
            Ok(better_half_mean(
                &train_phase(data, spec_t, false, spec.share(0.1), tracer)?.0,
                true,
            ))
        };
        let (single, all) = (rate(1)?, rate(host::cores())?);
        result.metrics.set("nn.thread_speedup", all / single);
    } else {
        result
            .notes
            .push("nn.thread_speedup: unmeasurable on one core (reported as 0)".into());
    }
    // Tracing here is the collecting observer plus the harness's own
    // spans: the same training call without either.
    let (plain, _) = train_phase(
        data,
        sizes.spec,
        false,
        spec.share(0.3),
        &mut Tracer::new(false),
    )?;
    trace_overhead(
        &mut result.metrics,
        better_half_mean(&plain, true),
        traced_per_s,
    );
    Ok(())
}
