#![warn(missing_docs)]

//! # vsan-obs
//!
//! Zero-dependency observability layer for the VSAN reproduction:
//! structured tracing, a metrics registry, and JSONL telemetry export.
//!
//! * [`metrics::Registry`] — named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and log-linear-bucket [`metrics::Histogram`]s
//!   with p50/p90/p99/max estimation and lossless snapshot merging.
//! * [`sink::EventSink`] — structured JSONL event sink with file,
//!   stderr, and in-memory backends, plus the run-header record every
//!   instrumented run opens with (config, seed, thread count, git
//!   describe).
//! * [`observer::TrainObserver`] — the per-epoch training telemetry
//!   hook threaded through `NeuralConfig`/`VsanConfig`, with a JSONL
//!   emitter and an in-memory collector.
//! * [`json`] — the hand-rolled JSON builder and validating parser the
//!   workspace uses instead of an external JSON dependency.
//! * [`events::FaultEvent`] — the `"serve_fault"` JSONL record the
//!   serving layer's fault-tolerance machinery emits (panics, respawns,
//!   deadline misses, backpressure actions, degraded-mode transitions).
//! * [`trace::TraceContext`] — request-scoped trace identity
//!   (deterministic splitmix64 trace/span ids with parent links) minted
//!   at admission and propagated through every serving stage.
//! * [`recorder::FlightRecorder`] — a fixed-capacity, wrapping,
//!   multi-writer ring of the last N trace spans, dumped as a JSONL
//!   forensic bundle when a fault fires.
//! * [`expo`] — Prometheus text-format exposition of the registry:
//!   deterministic render, file export, a `std::net::TcpListener`
//!   scrape endpoint, and the round-trip validating parser.
//!
//! ## Telemetry policy (DESIGN.md §8)
//!
//! Wall-clock time lives **only in telemetry output, never in control
//! flow**: nothing in this crate feeds a timing back into a training or
//! serving decision, so attaching any observer, trace, or metric
//! leaves trained parameters and served rankings bit-identical — the
//! determinism contract of DESIGN.md §7 is unaffected.

pub mod events;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod recorder;
pub mod sink;
pub mod trace;

pub use events::{FaultEvent, FaultKind};
pub use expo::ExpositionServer;
pub use json::{parse, JsonObj, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use observer::{
    CollectingObserver, EpochRecord, JsonlTrainObserver, MetricsTrainObserver, ObserverHandle,
    TrainObserver, TrainRunInfo,
};
pub use recorder::{FlightRecord, FlightRecorder};
pub use sink::{EventSink, FileSink, MemorySink, StderrSink};
pub use trace::{TraceContext, TraceSpan, TraceStage};
