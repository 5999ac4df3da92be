//! The measured surface: the only file of the harness that names a
//! function or a type of the repository. Everything else works with the
//! plain structs defined here, so when the repository's API moves this
//! is the one file that follows it.
//!
//! It uses what ROADMAP item 3 intends to keep — `Vsan::*`, `Engine::*`,
//! the `EngineConfig` builders, `ServeStats`, the `_into` kernels,
//! `cluster_rows`, `evaluate_held_out` — and none of what that item
//! intends to delete (the counter-snapshot adapter type, the PR 3 span
//! tracer, the `_fast` / `_ref_into` / `_body` kernel twins, the
//! graph-path scoring entry point).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use vsan_autograd::Graph;
use vsan_core::{ClusteredConfig, Retrieval, SessionState, Vsan, VsanConfig, Workspace};
use vsan_data::preprocess::Pipeline;
use vsan_data::synthetic;
use vsan_data::{Dataset, HeldOutUser, Split};
use vsan_eval::metrics::MetricSet;
use vsan_eval::{evaluate_held_out, top_n_excluding, EvalConfig, Scorer};
use vsan_obs::{CollectingObserver, Histogram, HistogramSnapshot, ObserverHandle, TraceContext};
use vsan_serve::{
    AdmissionQueue, BackpressurePolicy, Engine, EngineConfig, PopOutcome, SequenceCache, Ticket,
};
use vsan_session::{SessionConfig, SessionStore};
use vsan_tensor::cluster::{cluster_rows, KmeansConfig};
use vsan_tensor::{ops, Tensor};

// ---------------------------------------------------------------------------
// Process-wide switches
// ---------------------------------------------------------------------------

/// The environment pins that route the process onto the oracle paths.
/// The harness refuses to measure with either set: the numbers would be
/// those of the reference implementations.
pub const ORACLE_PINS: [&str; 2] = ["VSAN_DISABLE_FAST_PATH", "VSAN_DISABLE_ANN"];

/// Whether the AVX2 kernel bodies are in use on this host.
pub fn avx2_in_use() -> bool {
    vsan_tensor::kernel::avx2_supported()
}

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

/// Shape of an untrained model.
#[derive(Debug, Clone, Copy)]
pub struct ModelShape {
    /// Width `d`.
    pub dim: usize,
    /// Window length `n`.
    pub max_seq_len: usize,
    /// Inference blocks `h₁`.
    pub h1: usize,
    /// Generative blocks `h₂`.
    pub h2: usize,
    /// Real items `N` (the vocabulary adds the padding id 0).
    pub num_items: usize,
}

fn model_config(dim: usize, max_seq_len: usize, h1: usize, h2: usize, seed: u64) -> VsanConfig {
    let mut cfg = VsanConfig::paper("Beauty-sim")
        .with_blocks(h1, h2)
        .with_seed(seed)
        .with_threads(1);
    cfg.base.dim = dim;
    cfg.base.max_seq_len = max_seq_len;
    cfg
}

/// A model the harness owns.
pub struct Model(Vsan);

impl Model {
    /// A randomly initialised model with the paper's untied prediction
    /// head. Serving cost does not depend on the weights' values.
    pub fn init(shape: ModelShape, seed: u64) -> Model {
        let cfg = model_config(shape.dim, shape.max_seq_len, shape.h1, shape.h2, seed);
        Model(Vsan::init(shape.num_items + 1, &cfg))
    }

    /// A tied-head model whose item table is `catalog`'s embeddings, so
    /// both retrieval paths rank over the catalog's geometry. Its other
    /// weights come from a fixed seed: they decide where queries land
    /// among the clusters, and so what a query costs.
    pub fn over_catalog(catalog: &Catalog, max_seq_len: usize) -> Model {
        let mut cfg = model_config(catalog.0.dim, max_seq_len, 1, 1, 0xCA7A_7061);
        cfg.tie_prediction = true;
        let mut model = Vsan::init(catalog.0.vocab(), &cfg);
        let table = model
            .params_mut()
            .id_of("item_emb")
            .expect("item embedding parameter");
        model
            .params_mut()
            .get_mut(table)
            .data_mut()
            .copy_from_slice(&catalog.0.embeddings);
        Model(model)
    }

    /// Read-only view.
    pub fn view(&self) -> ModelRef<'_> {
        ModelRef(&self.0)
    }
}

/// Per-query probe telemetry of the clustered index.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeStats {
    /// Clusters whose members were scored.
    pub probed_clusters: usize,
    /// Candidates that entered the exact re-rank.
    pub survivors: usize,
}

/// Borrowed model: the harness's own, or the one an engine serves.
#[derive(Clone, Copy)]
pub struct ModelRef<'a>(&'a Vsan);

impl ModelRef<'_> {
    /// Vocabulary (items + padding).
    pub fn vocab(&self) -> usize {
        Scorer::vocab(self.0)
    }

    /// Width `d`.
    pub fn dim(&self) -> usize {
        self.0.config().base.dim
    }

    /// Window length `n`.
    pub fn max_seq_len(&self) -> usize {
        self.0.config().base.max_seq_len
    }

    /// A reusable inference workspace for batches of `max_batch`.
    pub fn workspace(&self, max_batch: usize) -> Scratch {
        Scratch(self.0.workspace(max_batch))
    }

    /// Stage 1 of a request: embed + h₁ blocks + μ head + h₂ blocks,
    /// one final hidden row per history.
    pub fn hidden_batch(&self, histories: &[&[u32]], ws: &mut Scratch) -> Result<Vec<f32>, String> {
        self.0.try_last_hidden_batch_with(histories, &mut ws.0)
    }

    /// Stages 1–2: hidden rows plus the N-wide prediction head.
    pub fn score_batch(
        &self,
        histories: &[&[u32]],
        ws: &mut Scratch,
    ) -> Result<Vec<Vec<f32>>, String> {
        self.0.try_score_items_batch_with(histories, &mut ws.0)
    }

    /// Stages 1–3: the exact oracle ranking (full logits, heap top-k).
    pub fn recommend_exact(&self, histories: &[&[u32]], k: usize) -> Result<Vec<Vec<u32>>, String> {
        self.0.recommend_batch_exact(histories, k)
    }

    /// Clustered top-k for one hidden row, with its probe telemetry.
    pub fn recommend_clustered(
        &self,
        hidden: &[f32],
        history: &[u32],
        k: usize,
    ) -> Result<(Vec<u32>, ProbeStats), String> {
        let (ids, s) = self.0.recommend_from_hidden_stats(hidden, history, k)?;
        Ok((
            ids,
            ProbeStats {
                probed_clusters: s.probed_clusters,
                survivors: s.survivors,
            },
        ))
    }

    /// The clustered query probing every cluster: must equal the exact
    /// ranking bit for bit.
    pub fn recommend_full_probe(
        &self,
        hidden: &[f32],
        history: &[u32],
        k: usize,
    ) -> Result<Vec<u32>, String> {
        let index = self
            .0
            .retrieval_index()
            .ok_or("clustered retrieval index not built")?;
        let seen: HashSet<u32> = history.iter().copied().collect();
        Ok(index.query_with_probe(hidden, k, &seen, index.num_clusters()))
    }

    /// Full logits for one fold-in, the way the evaluation protocol
    /// asks for them.
    pub fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
        self.0.score_items(fold_in)
    }

    /// A session state prepared for `history` (the cold-start cost of an
    /// incremental session) plus the pad donor it was prepared against.
    pub fn session_probe(&self) -> Result<SessionProbe<'_>, String> {
        Ok(SessionProbe {
            model: self.0,
            pad: self.0.pad_session_state()?,
            state: SessionState::new(),
        })
    }
}

/// An inference workspace.
pub struct Scratch(Workspace);

/// A harness-owned incremental session, for timing the two session
/// kernels directly.
pub struct SessionProbe<'a> {
    model: &'a Vsan,
    pad: SessionState,
    state: SessionState,
}

impl SessionProbe<'_> {
    /// Prepare the state for `history` (what a cold start pays).
    pub fn prepare(&mut self, history: &[u32], ws: &mut Scratch) -> Result<(), String> {
        self.model
            .prepare_session_into(history, Some(&self.pad), &mut self.state, &mut ws.0)
    }

    /// Logits for `history ++ [item]` from the prepared state (what a
    /// warm append pays).
    pub fn append(&self, item: u32, ws: &mut Scratch) -> Result<Vec<f32>, String> {
        self.model
            .append_session_logits(&self.state, item, &mut ws.0)
    }
}

/// Top-`k` over a logits row, excluding `seen` — the ranking rule of
/// the evaluation protocol and of the engine.
pub fn rank_top_k(scores: &[f32], k: usize, seen: &[u32]) -> Vec<u32> {
    let seen: HashSet<u32> = seen.iter().copied().collect();
    top_n_excluding(scores, k, &seen)
}

/// The metric bundle of one ranked list at cutoff `k`; returns NDCG.
pub fn ndcg_of(ranked: &[u32], targets: &[u32], k: usize) -> f64 {
    let targets: HashSet<u32> = targets.iter().copied().collect();
    MetricSet::compute(ranked, &targets, k).ndcg
}

// ---------------------------------------------------------------------------
// Catalog (retrieval workload)
// ---------------------------------------------------------------------------

/// A synthetic embeddings-only catalog.
pub struct Catalog(synthetic::SyntheticCatalog);

impl Catalog {
    /// The `million_item` preset at `scale` (0.1 = 100 000 items). The
    /// catalog is the workload's fixed dataset — the preset carries its
    /// own seed — because the index's shape, and with it the cost of a
    /// query, follows the catalog's geometry; `--seed` draws the query
    /// histories.
    pub fn generate(scale: f64) -> Catalog {
        Catalog(synthetic::generate_catalog(&synthetic::million_item(scale)))
    }

    /// Real items.
    pub fn num_items(&self) -> usize {
        self.0.num_items
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.0.dim
    }

    /// The `(num_items + 1, dim)` embedding table, row 0 the padding.
    pub fn embeddings(&self) -> &[f32] {
        &self.0.embeddings
    }

    /// `count` query histories of `len` items drawn by the catalog's
    /// Zipf popularity — a pure function of `seed`.
    pub fn sample_histories(&self, seed: u64, count: usize, len: usize) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| self.0.sample_history(&mut rng, len))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Serving engine
// ---------------------------------------------------------------------------

/// How the harness starts an engine.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads running the batched forward.
    pub workers: usize,
    /// Sequence-cache capacity in windows.
    pub cache_capacity: usize,
    /// Live incremental sessions kept.
    pub session_capacity: usize,
    /// Serve through the clustered index instead of the dense head.
    pub clustered: bool,
    /// Flight-recorder capacity in spans; 0 turns tracing off.
    pub recorder_capacity: usize,
    /// Seed of the engine's deterministic trace ids.
    pub trace_seed: u64,
}

/// One reply of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Ranked item ids, best first.
    pub items: Vec<u32>,
    /// The answer came from a fallback, not the model.
    pub degraded: bool,
}

/// An in-flight request.
pub struct Pending(Ticket);

impl Pending {
    /// Block until the reply arrives; `Err` carries the typed failure.
    pub fn wait(self) -> Result<Reply, String> {
        match self.0.wait() {
            Ok(r) => Ok(Reply {
                degraded: r.is_degraded(),
                items: r.into_items(),
            }),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A running engine.
pub struct Service {
    engine: Engine,
    max_batch: usize,
    trace_seed: u64,
}

impl Service {
    /// Start an engine around `model`. With `clustered` the k-means
    /// index is built here, inside `Engine::start`.
    pub fn start(model: Model, cfg: ServiceConfig) -> Service {
        let mut ec = EngineConfig::default()
            .with_workers(cfg.workers)
            .with_cache_capacity(cfg.cache_capacity)
            .with_session_capacity(cfg.session_capacity)
            .with_flight_recorder(cfg.recorder_capacity)
            .with_trace_seed(cfg.trace_seed);
        if cfg.clustered {
            ec = ec.with_retrieval(Retrieval::Clustered(ClusteredConfig::default()));
        }
        let max_batch = ec.max_batch;
        Service {
            engine: Engine::start(model.0, ec),
            max_batch,
            trace_seed: cfg.trace_seed,
        }
    }

    /// The engine's batch size bound.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Enqueue a request for the top `k` after `history`.
    pub fn submit(&self, history: &[u32], k: usize) -> Pending {
        Pending(self.engine.submit(history, k))
    }

    /// Fold one event into `user`'s session and return the top `k` for
    /// the grown history; `hint` is the history before the event.
    pub fn append_event(
        &self,
        user: u64,
        hint: &[u32],
        item: u32,
        k: usize,
    ) -> Result<Reply, String> {
        match self.engine.append_event(user, Some(hint), item, k) {
            Ok(r) => Ok(Reply {
                degraded: r.is_degraded(),
                items: r.into_items(),
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The model being served.
    pub fn model(&self) -> ModelRef<'_> {
        ModelRef(self.engine.model())
    }

    /// The trace id the engine gives its `seq`-th admitted operation
    /// (submits and appends share one counter, starting at 0).
    pub fn trace_id_of(&self, seq: u64) -> u64 {
        TraceContext::root(self.trace_seed, seq).trace_id
    }

    /// Counters and distributions since the engine started.
    pub fn stats(&self) -> ServeView {
        let s = self.engine.stats();
        let c = &s.snapshot;
        ServeView {
            requests: c.requests,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            batches: c.batches,
            batched_requests: c.batched_requests,
            flush_full: c.flush_full,
            flush_deadline: c.flush_deadline,
            degraded: c.degraded_responses,
            rejected: c.rejected_newest
                + c.shed_oldest
                + c.load_shed
                + c.overloaded_errors
                + c.deadline_misses,
            model_errors: c.model_errors,
            session_appends: c.session_appends,
            session_cold_starts: c.session_cold_starts,
            session_resumes: c.session_resumes,
            session_resets: c.session_resets,
            session_evictions: c.session_evictions,
            sessions_live: s.sessions_live.max(0) as u64,
            session_bytes: s.session_bytes.max(0) as u64,
            queue_wait_us: Dist(s.queue_wait_us),
            compute_us: Dist(s.compute_us),
            batch_fill_pct: Dist(s.batch_fill_pct),
            retrieval_probes: Dist(s.retrieval_probes),
            retrieval_survivors: Dist(s.retrieval_survivors),
        }
    }

    /// The flight recorder's contents, oldest first, plus how many spans
    /// were ever recorded. Empty when tracing is off.
    pub fn recorder_snapshot(&self) -> RecorderView {
        let Some(rec) = self.engine.flight_recorder() else {
            return RecorderView::default();
        };
        let spans = rec
            .snapshot()
            .into_iter()
            .map(|r| EngineSpan {
                ticket: r.ticket,
                trace: r.span.ctx.trace_id,
                span: r.span.ctx.span_id,
                parent: r.span.ctx.parent_span_id,
                stage: r.span.stage.as_str(),
                at_us: r.span.at_us,
                dur_us: r.span.dur_us,
                attr: r.span.attr,
            })
            .collect();
        RecorderView {
            spans,
            recorded: rec.recorded(),
        }
    }

    /// Drain the queue, join the engine's threads.
    pub fn shutdown(self) {
        let _ = self.engine.shutdown_stats();
    }
}

/// One span out of the engine's flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpan {
    /// Global write order.
    pub ticket: u64,
    /// Request identifier.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// The span that caused it; 0 for the request's root.
    pub parent: u64,
    /// Stage name (`admission`, `pickup`, `compute`, …).
    pub stage: &'static str,
    /// Microseconds since the engine started when the stage was
    /// recorded — the *end* of a stage that has a duration.
    pub at_us: u64,
    /// Stage duration in microseconds; 0 for entry markers.
    pub dur_us: u64,
    /// Stage-specific attribute.
    pub attr: u64,
}

/// The flight recorder read back.
#[derive(Debug, Clone, Default)]
pub struct RecorderView {
    /// Spans still in the ring, oldest first.
    pub spans: Vec<EngineSpan>,
    /// Spans ever recorded.
    pub recorded: u64,
}

/// A latency or occupancy distribution.
#[derive(Debug, Clone, Default)]
pub struct Dist(HistogramSnapshot);

impl Dist {
    /// What was recorded after `earlier` was taken (both snapshots of
    /// the same histogram).
    pub fn since(&self, earlier: &Dist) -> Dist {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .zip(&earlier.0.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        Dist(HistogramSnapshot {
            buckets,
            count: self.0.count.saturating_sub(earlier.0.count),
            sum: self.0.sum.saturating_sub(earlier.0.sum),
            max: self.0.max,
            exemplar_value: 0,
            exemplar_trace: 0,
        })
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.0.mean()
    }

    /// Bucket-resolution estimate of the `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.count == 0 {
            0.0
        } else {
            self.0.percentile(q) as f64
        }
    }
}

/// The engine's telemetry as plain numbers.
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)] // field names are the engine's counter names
pub struct ServeView {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub flush_full: u64,
    pub flush_deadline: u64,
    pub degraded: u64,
    /// Rejected, shed, overloaded or deadline-missed operations.
    pub rejected: u64,
    pub model_errors: u64,
    pub session_appends: u64,
    pub session_cold_starts: u64,
    pub session_resumes: u64,
    pub session_resets: u64,
    pub session_evictions: u64,
    pub sessions_live: u64,
    pub session_bytes: u64,
    pub queue_wait_us: Dist,
    pub compute_us: Dist,
    pub batch_fill_pct: Dist,
    pub retrieval_probes: Dist,
    pub retrieval_survivors: Dist,
}

impl ServeView {
    /// Counters and distributions accumulated since `earlier`; gauges
    /// (`sessions_live`, `session_bytes`) keep their current value.
    pub fn since(&self, earlier: &ServeView) -> ServeView {
        ServeView {
            requests: self.requests - earlier.requests,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            batches: self.batches - earlier.batches,
            batched_requests: self.batched_requests - earlier.batched_requests,
            flush_full: self.flush_full - earlier.flush_full,
            flush_deadline: self.flush_deadline - earlier.flush_deadline,
            degraded: self.degraded - earlier.degraded,
            rejected: self.rejected - earlier.rejected,
            model_errors: self.model_errors - earlier.model_errors,
            session_appends: self.session_appends - earlier.session_appends,
            session_cold_starts: self.session_cold_starts - earlier.session_cold_starts,
            session_resumes: self.session_resumes - earlier.session_resumes,
            session_resets: self.session_resets - earlier.session_resets,
            session_evictions: self.session_evictions - earlier.session_evictions,
            sessions_live: self.sessions_live,
            session_bytes: self.session_bytes,
            queue_wait_us: self.queue_wait_us.since(&earlier.queue_wait_us),
            compute_us: self.compute_us.since(&earlier.compute_us),
            batch_fill_pct: self.batch_fill_pct.since(&earlier.batch_fill_pct),
            retrieval_probes: self.retrieval_probes.since(&earlier.retrieval_probes),
            retrieval_survivors: self.retrieval_survivors.since(&earlier.retrieval_survivors),
        }
    }
}

// ---------------------------------------------------------------------------
// Data, training, evaluation
// ---------------------------------------------------------------------------

/// One held-out user: what the model sees and what it must rank.
#[derive(Debug, Clone)]
pub struct TestView {
    /// Observed history.
    pub fold_in: Vec<u32>,
    /// Held-out items.
    pub targets: Vec<u32>,
}

/// A preprocessed dataset with its strong-generalization split.
pub struct TrainData {
    dataset: Dataset,
    train_users: Vec<usize>,
    test_views: Vec<HeldOutUser>,
    /// Seconds in `synthetic::generate`.
    pub generate_s: f64,
    /// Seconds in `Pipeline::run`.
    pub preprocess_s: f64,
    /// Seconds in the split and the held-out views.
    pub split_s: f64,
}

impl TrainData {
    /// Generate the Beauty-like simulator at `scale`, preprocess it and
    /// split it with `held_out` users in each of validation and test.
    pub fn generate(scale: f64, held_out: usize, seed: u64) -> TrainData {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let raw = synthetic::generate(&synthetic::beauty(scale), &mut rng);
        let t1 = Instant::now();
        let dataset = Pipeline::default().run(&raw);
        let t2 = Instant::now();
        let split = Split::strong_generalization(&dataset, held_out, 5, &mut rng);
        let test_views = Split::held_out_views(&dataset, &split.test_users, 0.8);
        let t3 = Instant::now();
        TrainData {
            dataset,
            train_users: split.train_users,
            test_views,
            generate_s: (t1 - t0).as_secs_f64(),
            preprocess_s: (t2 - t1).as_secs_f64(),
            split_s: (t3 - t2).as_secs_f64(),
        }
    }

    /// Training users.
    pub fn train_users(&self) -> usize {
        self.train_users.len()
    }

    /// Real items after preprocessing.
    pub fn num_items(&self) -> usize {
        self.dataset.num_items
    }

    /// Held-out test users with a non-empty target set.
    pub fn test_views(&self) -> Vec<TestView> {
        self.test_views
            .iter()
            .filter(|v| !v.targets.is_empty())
            .map(|v| TestView {
                fold_in: v.fold_in.clone(),
                targets: v.targets.clone(),
            })
            .collect()
    }
}

/// Training hyper-parameters the harness sets; the rest is the paper's
/// Beauty preset.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Width `d`.
    pub dim: usize,
    /// Window length `n`.
    pub max_seq_len: usize,
    /// Epochs per `Vsan::train` call.
    pub epochs: usize,
    /// Worker threads of the data-parallel trainer.
    pub threads: usize,
    /// Learning rate (the paper's 1e-3 needs hundreds of epochs).
    pub lr: f32,
    /// Seed for init, shuffling and sampling.
    pub seed: u64,
}

/// One epoch of training telemetry.
#[derive(Debug, Clone, Copy, Default)]
#[allow(missing_docs)] // field names are the observer record's
pub struct EpochView {
    pub loss: f32,
    pub ce: f32,
    pub kl: f32,
    pub grad_norm_pre: f32,
    pub shards: usize,
    pub steps: u64,
    pub wall_ms: f64,
    pub peak_tape_nodes: usize,
    pub arena_fresh_allocs: u64,
    pub arena_held_bytes: u64,
}

/// What one `Vsan::train` call produced.
pub struct Trained {
    /// The trained model.
    pub model: Model,
    /// Mean loss per epoch.
    pub losses: Vec<f32>,
    /// Per-epoch telemetry; empty unless an observer was attached.
    pub epochs: Vec<EpochView>,
}

/// `Vsan::train` on the training users (next-k = 2, the paper's
/// objective). With `observe` a collecting observer rides along.
pub fn train(data: &TrainData, spec: TrainSpec, observe: bool) -> Result<Trained, String> {
    let mut cfg = VsanConfig::paper("Beauty-sim")
        .with_seed(spec.seed)
        .with_threads(spec.threads);
    cfg.base.dim = spec.dim;
    cfg.base.max_seq_len = spec.max_seq_len;
    cfg.base.epochs = spec.epochs;
    cfg.base.lr = spec.lr;
    let collector = Arc::new(CollectingObserver::new());
    if observe {
        cfg = cfg.with_observer(ObserverHandle::new(collector.clone()));
    }
    let model = Vsan::train(&data.dataset, &data.train_users, &cfg)?;
    let epochs = collector
        .records()
        .iter()
        .map(|r| EpochView {
            loss: r.loss,
            ce: r.ce,
            kl: r.kl,
            grad_norm_pre: r.grad_norm_pre,
            shards: r.shards,
            steps: r.steps,
            wall_ms: r.wall_ms,
            peak_tape_nodes: r.peak_tape_nodes,
            arena_fresh_allocs: r.arena_fresh_allocs,
            arena_held_bytes: r.arena_held_bytes,
        })
        .collect();
    Ok(Trained {
        losses: model.train_losses.clone(),
        model: Model(model),
        epochs,
    })
}

/// The evaluation set as the protocol's own type, cloned once so a
/// timed loop can hand out one-user slices without allocating.
pub struct EvalSet {
    views: Vec<HeldOutUser>,
    cfg: EvalConfig,
}

impl EvalSet {
    /// Held-out test users with a non-empty target set.
    pub fn of(data: &TrainData) -> EvalSet {
        EvalSet {
            views: data
                .test_views
                .iter()
                .filter(|v| !v.targets.is_empty())
                .cloned()
                .collect(),
            cfg: EvalConfig {
                cutoffs: vec![10],
                exclude_seen: true,
            },
        }
    }

    /// Users in the set.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// `evaluate_held_out` on users `first..first + count`; returns the
    /// sum of their NDCG@10 (the call's mean times the users in it).
    pub fn evaluate_users(&self, model: ModelRef<'_>, first: usize, count: usize) -> f64 {
        let users = &self.views[first..(first + count).min(self.views.len())];
        evaluate_held_out(model.0, users, &self.cfg)
            .get("NDCG", 10)
            .unwrap_or(0.0)
            * users.len() as f64
    }

    /// `evaluate_held_out` over the whole set; returns NDCG@10.
    pub fn evaluate_all(&self, model: ModelRef<'_>) -> f64 {
        evaluate_held_out(model.0, &self.views, &self.cfg)
            .get("NDCG", 10)
            .unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// Direct kernel and data-structure calls (per-layer probes)
// ---------------------------------------------------------------------------

/// `C += A·B`, `(m,k)·(k,n)`.
pub fn k_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    ops::matmul::matmul_into(a, b, c, m, k, n);
}

/// `C = A·Bᵀ`, `(m,k)·(n,k)ᵀ` — the backward's `dX = dY·Wᵀ` shape.
pub fn k_matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    ops::matmul_a_bt_into(a, b, c, m, k, n);
}

/// `C += Aᵀ·B`, `(k,m)ᵀ·(k,n) → (m,n)` — the backward's `dW = Xᵀ·dY` shape.
pub fn k_matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    ops::matmul_at_b_into(a, b, c, m, k, n);
}

/// Causal attention of one `(n, d)` sample, inference kernel.
pub fn k_attention(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    n: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    ops::causal_attention_into(q, k, v, n, d, 1.0 / (d as f32).sqrt(), scores, out);
}

/// The session append kernel: one new query row over `m` cached rows.
#[allow(clippy::too_many_arguments)]
pub fn k_attention_append(
    q_row: &[f32],
    k_prefix: &[f32],
    k_last: &[f32],
    v_prefix: &[f32],
    v_last: &[f32],
    m: usize,
    d: usize,
    scores: &mut [f32],
    out_row: &mut [f32],
) {
    let scale = 1.0 / (d as f32).sqrt();
    ops::causal_attention_append_into(
        q_row, k_prefix, k_last, v_prefix, v_last, m, d, scale, scores, out_row,
    );
}

/// The session prepare kernel: rows `start..m` of causal attention.
#[allow(clippy::too_many_arguments)]
pub fn k_attention_resume(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    m: usize,
    d: usize,
    start: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    ops::causal_attention_resume_into(q, k, v, m, d, start, 1.0 / (d as f32).sqrt(), scores, out);
}

/// Training attention forward (saves the `(n, n)` probabilities).
pub fn k_attention_train_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    n: usize,
    d: usize,
    probs: &mut [f32],
    out: &mut [f32],
) {
    ops::causal_attention_train_forward(q, k, v, n, d, 1.0 / (d as f32).sqrt(), probs, out);
}

/// Training attention backward.
#[allow(clippy::too_many_arguments)]
pub fn k_attention_train_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &[f32],
    d_out: &[f32],
    n: usize,
    d: usize,
    grads: &mut [Vec<f32>; 4],
) {
    let [dq, dk, dv, ds] = grads;
    ops::causal_attention_train_backward(
        q,
        k,
        v,
        probs,
        d_out,
        n,
        d,
        1.0 / (d as f32).sqrt(),
        dq,
        dk,
        dv,
        ds,
    );
}

/// LayerNorm over `rows × c`.
pub fn k_layer_norm(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    rows: usize,
    c: usize,
    out: &mut [f32],
) {
    ops::layer_norm_rows_into(x, gamma, beta, 1e-5, rows, c, out);
}

/// Row softmax over `rows × c`.
pub fn k_softmax(x: &[f32], out: &mut [f32], rows: usize, c: usize) {
    ops::softmax_rows_into(x, out, rows, c);
}

/// Seeded k-means over `n` rows of width `dim` into `clusters`
/// centroids, with the index's default iteration and sampling knobs.
pub fn k_cluster_rows(data: &[f32], n: usize, dim: usize, clusters: usize) -> usize {
    let cfg = KmeansConfig {
        num_clusters: clusters,
        ..KmeansConfig::default()
    };
    cluster_rows(data, n, dim, &cfg).num_clusters
}

/// One attention block on an autograd tape: `sum(attention(q, k, v))`
/// forward, then backward. Returns `(forward, backward, tape nodes)`.
pub fn autograd_attention_step(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    n: usize,
    d: usize,
) -> Result<(Duration, Duration, usize), String> {
    let leaf = |g: &mut Graph, x: &[f32], key| -> Result<_, String> {
        Ok(g.param(
            Tensor::from_vec(x.to_vec(), &[n, d]).map_err(|e| e.to_string())?,
            key,
        ))
    };
    let mut g = Graph::new();
    let (q, k, v) = (
        leaf(&mut g, q, 0)?,
        leaf(&mut g, k, 1)?,
        leaf(&mut g, v, 2)?,
    );
    let t0 = Instant::now();
    let out = g
        .causal_attention(q, k, v, 1.0 / (d as f32).sqrt())
        .map_err(|e| e.to_string())?;
    let loss = g.sum_all(out);
    let t1 = Instant::now();
    let grads = g.backward(loss).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    std::hint::black_box(grads.len());
    Ok((t1 - t0, t2 - t1, g.len()))
}

/// A sequence cache holding `entries` windows of `values` logits each,
/// for timing its read and write paths directly.
pub struct CacheProbe {
    cache: SequenceCache,
    row: Arc<Vec<f32>>,
}

impl CacheProbe {
    /// A full cache: keys are `[i, i+1, …]` windows of `key_len` items.
    pub fn full(entries: usize, key_len: usize, values: usize) -> CacheProbe {
        let mut cache = SequenceCache::new(entries);
        for i in 0..entries {
            cache.insert(Self::key(i, key_len), Arc::new(vec![0.5; values]));
        }
        CacheProbe {
            cache,
            row: Arc::new(vec![0.25; values]),
        }
    }

    /// The key of entry `i`.
    pub fn key(i: usize, key_len: usize) -> Vec<u32> {
        (0..key_len).map(|j| (i * 31 + j) as u32).collect()
    }

    /// Look up a resident key.
    pub fn get(&mut self, key: &[u32]) -> bool {
        self.cache.get(key).is_some()
    }

    /// Insert a new key into the full cache, evicting the oldest.
    pub fn insert_evict(&mut self, key: Vec<u32>) {
        self.cache.insert(key, Arc::clone(&self.row));
    }
}

/// Push one item through an admission queue and pop it again.
pub struct QueueProbe(AdmissionQueue<u64>);

impl QueueProbe {
    /// A queue with the engine's default bound.
    pub fn new() -> QueueProbe {
        QueueProbe(AdmissionQueue::new(4096))
    }

    /// One push and one pop; `true` when the item came back.
    pub fn push_pop(&self, item: u64) -> bool {
        let _ = self.0.push(item, BackpressurePolicy::Block, None);
        matches!(self.0.pop(), PopOutcome::Item(got) if got == item)
    }
}

/// The metrics histogram's record path.
pub struct HistogramProbe(Histogram);

impl HistogramProbe {
    /// An empty histogram.
    pub fn new() -> HistogramProbe {
        HistogramProbe(Histogram::new())
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }
}

/// A session store with `sessions` prepared entries, for timing the
/// longest-prefix lookup a resume performs.
pub struct PrefixProbe(SessionStore);

impl PrefixProbe {
    /// Session `u` holds the history `[u+1; len]`.
    pub fn full(sessions: usize, len: usize) -> PrefixProbe {
        let mut store = SessionStore::new(&SessionConfig::new().with_capacity(sessions));
        let now = Instant::now();
        for u in 0..sessions as u64 {
            let (entry, _) = store.get_or_create(u, now);
            store.commit(u, &entry, vec![u as u32 + 1; len], true, 0, now);
        }
        PrefixProbe(store)
    }

    /// Longest cached prefix of `query` among the other users.
    pub fn lookup(&self, query: &[u32]) -> Option<usize> {
        self.0
            .longest_prefix_of(query, u64::MAX)
            .map(|hit| hit.history.len())
    }
}
