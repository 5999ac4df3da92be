//! Training telemetry: the observer hook threaded through
//! `NeuralConfig`/`VsanConfig` and its stock implementations.
//!
//! The trainer calls [`TrainObserver::on_train_start`] once with the
//! run description, [`TrainObserver::on_epoch`] after every epoch with
//! the loss decomposition (CE, KL, β) and gradient norms, and
//! [`TrainObserver::on_train_end`] when the loop finishes. Observers
//! receive copies of values the trainer computed anyway — they cannot
//! influence the training trajectory, so determinism is unaffected
//! (DESIGN.md §8).

use std::sync::{Arc, Mutex};

use crate::json::JsonObj;
use crate::sink::{git_describe, unix_time_ms, EventSink};

/// Description of one training run, emitted as the JSONL run header.
#[derive(Debug, Clone, Default)]
pub struct TrainRunInfo {
    /// RNG seed the run trains under.
    pub seed: u64,
    /// Worker threads of the data-parallel executor.
    pub threads: usize,
    /// Configured epoch budget.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Model width `d`.
    pub dim: usize,
    /// Maximum sequence length `n`.
    pub max_seq_len: usize,
    /// Dropout rate.
    pub dropout: f32,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// Training examples after filtering.
    pub examples: usize,
}

impl TrainRunInfo {
    /// Render the run-header JSONL record: config, seed, thread count,
    /// and `git describe` of the producing tree.
    pub fn header_json(&self) -> String {
        let config = JsonObj::new()
            .u64("dim", self.dim as u64)
            .u64("max_seq_len", self.max_seq_len as u64)
            .u64("epochs", self.epochs as u64)
            .u64("batch_size", self.batch_size as u64)
            .f64("lr", f64::from(self.lr))
            .f64("dropout", f64::from(self.dropout))
            .f64("grad_clip", f64::from(self.grad_clip))
            .u64("examples", self.examples as u64)
            .finish();
        JsonObj::new()
            .str("type", "run_header")
            .str("run", "train")
            .u64("ts_ms", unix_time_ms())
            .u64("seed", self.seed)
            .u64("threads", self.threads as u64)
            .str("git", &git_describe())
            .raw("config", &config)
            .finish()
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based, strictly increasing).
    pub epoch: usize,
    /// Mean total loss (CE + β·KL) over the epoch's batches.
    pub loss: f32,
    /// Mean cross-entropy component.
    pub ce: f32,
    /// Mean KL component (0 for models without a latent path).
    pub kl: f32,
    /// β at the epoch's final optimizer step.
    pub beta: f32,
    /// Mean pre-clip gradient global norm over the epoch's steps.
    pub grad_norm_pre: f32,
    /// Mean post-clip gradient global norm.
    pub grad_norm_post: f32,
    /// Shards executed this epoch.
    pub shards: usize,
    /// Global optimizer steps completed after this epoch.
    pub steps: u64,
    /// Epoch wall-clock in milliseconds (telemetry only).
    pub wall_ms: f64,
    /// Longest autograd tape (node count) any shard has recorded so far
    /// (0 when the trainer does not report it).
    pub peak_tape_nodes: usize,
    /// Retired with the step arena (DESIGN.md §14) and always 0: no arena
    /// allocates. The name stays because `benchmark/` reads it.
    pub arena_fresh_allocs: u64,
    /// Retired with the step arena and always 0: nothing is held between
    /// steps. The name stays because `benchmark/` reads it.
    pub arena_held_bytes: u64,
}

impl EpochRecord {
    /// Render as one JSONL record.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("type", "epoch")
            .u64("epoch", self.epoch as u64)
            .f64("loss", f64::from(self.loss))
            .f64("ce", f64::from(self.ce))
            .f64("kl", f64::from(self.kl))
            .f64("beta", f64::from(self.beta))
            .f64("grad_norm_pre", f64::from(self.grad_norm_pre))
            .f64("grad_norm_post", f64::from(self.grad_norm_post))
            .u64("shards", self.shards as u64)
            .u64("steps", self.steps)
            .f64("wall_ms", self.wall_ms)
            .u64("peak_tape_nodes", self.peak_tape_nodes as u64)
            .finish()
    }
}

/// Receiver for training telemetry. All methods default to no-ops so
/// observers implement only what they need.
pub trait TrainObserver: Send + Sync {
    /// The run is about to start.
    fn on_train_start(&self, _info: &TrainRunInfo) {}
    /// One epoch finished.
    fn on_epoch(&self, _record: &EpochRecord) {}
    /// The run finished normally after `epochs_run` epochs.
    fn on_train_end(&self, _epochs_run: usize) {}
}

/// Cloneable, optional observer slot carried inside training configs.
///
/// `Debug` deliberately hides the observer (trait objects have no
/// useful debug form) and `Clone` shares it — a config clone observes
/// into the same sink.
#[derive(Clone, Default)]
pub struct ObserverHandle(Option<Arc<dyn TrainObserver>>);

impl ObserverHandle {
    /// The empty handle (no telemetry).
    pub fn none() -> Self {
        ObserverHandle(None)
    }

    /// Wrap an observer.
    pub fn new(observer: Arc<dyn TrainObserver>) -> Self {
        ObserverHandle(Some(observer))
    }

    /// `true` when an observer is attached (trainers use this to skip
    /// telemetry-only work such as extra gradient-norm passes).
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Forward a run start.
    pub fn on_train_start(&self, info: &TrainRunInfo) {
        if let Some(obs) = &self.0 {
            obs.on_train_start(info);
        }
    }

    /// Forward an epoch record.
    pub fn on_epoch(&self, record: &EpochRecord) {
        if let Some(obs) = &self.0 {
            obs.on_epoch(record);
        }
    }

    /// Forward a run end.
    pub fn on_train_end(&self, epochs_run: usize) {
        if let Some(obs) = &self.0 {
            obs.on_train_end(epochs_run);
        }
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_attached() { "ObserverHandle(attached)" } else { "ObserverHandle(none)" })
    }
}

/// Observer that streams run-header and epoch records to a JSONL sink.
pub struct JsonlTrainObserver {
    sink: Arc<dyn EventSink>,
}

impl JsonlTrainObserver {
    /// Stream onto `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        JsonlTrainObserver { sink }
    }
}

impl TrainObserver for JsonlTrainObserver {
    fn on_train_start(&self, info: &TrainRunInfo) {
        self.sink.emit(&info.header_json());
    }

    fn on_epoch(&self, record: &EpochRecord) {
        self.sink.emit(&record.to_json());
    }

    fn on_train_end(&self, epochs_run: usize) {
        let line = JsonObj::new()
            .str("type", "run_end")
            .u64("ts_ms", unix_time_ms())
            .u64("epochs_run", epochs_run as u64)
            .finish();
        self.sink.emit(&line);
        self.sink.flush();
    }
}

/// Observer that mirrors per-epoch training telemetry into a metrics
/// [`Registry`](crate::metrics::Registry) as gauges, so training progress
/// and the peak tape length ride the same Prometheus exposition path as
/// the serving metrics. Gauges are clamped at `i64::MAX` on overflow.
pub struct MetricsTrainObserver {
    registry: Arc<crate::metrics::Registry>,
}

impl MetricsTrainObserver {
    /// Mirror epoch records into `registry`.
    pub fn new(registry: Arc<crate::metrics::Registry>) -> Self {
        MetricsTrainObserver { registry }
    }

    /// The backing registry (for exposition).
    pub fn registry(&self) -> Arc<crate::metrics::Registry> {
        self.registry.clone()
    }
}

fn as_gauge(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl TrainObserver for MetricsTrainObserver {
    fn on_epoch(&self, record: &EpochRecord) {
        let r = &self.registry;
        r.gauge("train.epoch").set(as_gauge(record.epoch as u64));
        r.gauge("train.steps").set(as_gauge(record.steps));
        r.gauge("train.peak_tape_nodes").set(as_gauge(record.peak_tape_nodes as u64));
    }
}

/// Observer that keeps every record in memory (benches, tests).
#[derive(Debug, Default)]
pub struct CollectingObserver {
    info: Mutex<Option<TrainRunInfo>>,
    records: Mutex<Vec<EpochRecord>>,
}

impl CollectingObserver {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The run header, once the run started.
    pub fn info(&self) -> Option<TrainRunInfo> {
        self.info.lock().expect("collector lock").clone()
    }

    /// Copy of every epoch record so far.
    pub fn records(&self) -> Vec<EpochRecord> {
        self.records.lock().expect("collector lock").clone()
    }
}

impl TrainObserver for CollectingObserver {
    fn on_train_start(&self, info: &TrainRunInfo) {
        *self.info.lock().expect("collector lock") = Some(info.clone());
    }

    fn on_epoch(&self, record: &EpochRecord) {
        self.records.lock().expect("collector lock").push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::sink::MemorySink;

    fn sample_epoch(epoch: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            loss: 2.5,
            ce: 2.0,
            kl: 0.5,
            beta: 0.1,
            grad_norm_pre: 7.0,
            grad_norm_post: 5.0,
            shards: 4,
            steps: (epoch as u64 + 1) * 3,
            wall_ms: 12.5,
            peak_tape_nodes: 120,
            ..Default::default()
        }
    }

    #[test]
    fn jsonl_observer_emits_header_epochs_and_end() {
        let sink = MemorySink::new();
        let obs = JsonlTrainObserver::new(Arc::new(sink.clone()));
        let info = TrainRunInfo { seed: 7, threads: 2, epochs: 2, ..Default::default() };
        obs.on_train_start(&info);
        obs.on_epoch(&sample_epoch(0));
        obs.on_epoch(&sample_epoch(1));
        obs.on_train_end(2);
        let lines = sink.lines();
        assert_eq!(lines.len(), 4);
        let header = parse(&lines[0]).unwrap();
        assert_eq!(header.get("type").unwrap().as_str(), Some("run_header"));
        assert_eq!(header.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(header.get("threads").unwrap().as_u64(), Some(2));
        assert!(header.get("git").unwrap().as_str().is_some());
        assert!(header.get("config").unwrap().get("epochs").is_some());
        let e1 = parse(&lines[2]).unwrap();
        assert_eq!(e1.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(e1.get("kl").unwrap().as_f64(), Some(0.5));
        assert_eq!(e1.get("peak_tape_nodes").unwrap().as_u64(), Some(120));
        let end = parse(&lines[3]).unwrap();
        assert_eq!(end.get("type").unwrap().as_str(), Some("run_end"));
    }

    #[test]
    fn metrics_observer_mirrors_epoch_gauges() {
        let registry = Arc::new(crate::metrics::Registry::new());
        let obs = MetricsTrainObserver::new(registry.clone());
        obs.on_epoch(&sample_epoch(3));
        assert_eq!(registry.gauge("train.epoch").get(), 3);
        assert_eq!(registry.gauge("train.peak_tape_nodes").get(), 120);
        // A later epoch overwrites (gauges, not counters).
        obs.on_epoch(&EpochRecord { peak_tape_nodes: 150, ..sample_epoch(4) });
        assert_eq!(registry.gauge("train.epoch").get(), 4);
        assert_eq!(registry.gauge("train.peak_tape_nodes").get(), 150);
    }

    #[test]
    fn handle_forwards_only_when_attached() {
        let collector = Arc::new(CollectingObserver::new());
        let attached = ObserverHandle::new(collector.clone());
        let detached = ObserverHandle::none();
        assert!(attached.is_attached() && !detached.is_attached());
        detached.on_epoch(&sample_epoch(0)); // no-op
        attached.on_train_start(&TrainRunInfo::default());
        attached.on_epoch(&sample_epoch(0));
        attached.on_train_end(1);
        assert!(collector.info().is_some());
        assert_eq!(collector.records().len(), 1);
        assert_eq!(format!("{detached:?}"), "ObserverHandle(none)");
        // A cloned handle feeds the same collector.
        attached.clone().on_epoch(&sample_epoch(1));
        assert_eq!(collector.records().len(), 2);
    }
}
