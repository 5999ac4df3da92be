//! `vsan-serve` — embedded online inference engine for VSAN.
//!
//! Turns a trained [`vsan_core::Vsan`] into a shared, thread-safe
//! recommendation service:
//!
//! * **Admission queue** — callers submit `(history, k)` requests into
//!   a bounded FIFO with a configurable backpressure policy
//!   ([`BackpressurePolicy`]): block, reject the newcomer, or shed the
//!   oldest. An optional watermark sheds load before the hard bound.
//! * **Micro-batcher** — a dedicated thread coalesces queued requests
//!   into batches, flushing when [`EngineConfig::max_batch`] requests
//!   have accumulated or [`EngineConfig::batch_deadline`] has elapsed
//!   since the batch was opened, whichever comes first. Requests whose
//!   deadline already expired are rejected at pickup and never occupy
//!   compute.
//! * **Supervised worker pool** — workers run the batched
//!   evaluation-mode forward (`z = μ_λ`, no sampling, dropout off) via
//!   [`vsan_core::Vsan::try_score_items_batch`] and rank the top-k by
//!   partial selection over raw logits (softmax is rank-monotonic, so
//!   it is skipped entirely). A panicking worker is caught at the batch
//!   boundary, its untouched requests are requeued, and a supervisor
//!   respawns a replacement.
//! * **Sequence cache** — an LRU keyed on the model's fold-in window
//!   (the last `max_seq_len` items of the history) memoizes logits;
//!   hits answer without touching the queue.
//! * **Graceful degradation** — under saturation or with the pool down,
//!   requests resolve through the approximate-cache or popularity
//!   fallback, tagged in [`Response::source`]; see [`DegradeConfig`].
//! * **Incremental sessions** — [`Engine::append_event`] folds one new
//!   interaction into a per-user prefix-keyed layer-state cache
//!   (`vsan_session`), answering in one O(n·d²) append pass instead of
//!   a full forward, bit-identical to it; the worker pool re-prepares
//!   the state for the next event after the reply has gone out.
//!   Eviction (LRU capacity / idle TTL) is transparent: the next event
//!   cold-starts through the same API, tagged in the `session.*`
//!   metrics and fault events.
//! * **Request-scoped tracing** — every request roots a deterministic
//!   trace at admission and grows child spans at each stage it crosses
//!   (queue pickup, compute, clustered retrieval, session sub-stages,
//!   degraded/shed/deadline outcomes). Spans land in a lock-free
//!   flight-recorder ring ([`Engine::flight_recorder`]); severe faults
//!   dump its last N spans to the fault sink as a JSONL forensic
//!   bundle, and [`Engine::metrics_registry`] feeds the Prometheus
//!   text-exposition endpoint ([`vsan_obs::ExpositionServer`]).
//!   Observation never changes bits: rankings are identical with
//!   tracing on or off (DESIGN.md §13).
//!
//! Fault-free results are deterministic and bit-identical to
//! [`vsan_core::Vsan::recommend`] for the same history, cache hit or
//! miss — the batched forward uses row-wise kernels with a fixed
//! per-row accumulation order, and the cache stores the same logits a
//! fresh forward would produce. Under faults, every accepted ticket
//! still resolves — to a [`Response`] or a typed [`ServeError`] — and
//! completed responses stay bit-identical to a fault-free run (the
//! chaos suite in `tests/chaos.rs` enforces both, driven by the
//! deterministic [`failpoint`] registry).
//!
//! ```no_run
//! use vsan_serve::{Engine, EngineConfig};
//! # let model: vsan_core::Vsan = unimplemented!();
//! let engine = Engine::start(model, EngineConfig::default());
//! // Blocking call:
//! let recs = engine.recommend(&[3, 1, 4], 10).unwrap();
//! // Submit/poll style:
//! let ticket = engine.submit(&[3, 1, 4], 10);
//! let recs = ticket.wait().unwrap();
//! let stats = engine.shutdown(); // drains the queue, joins threads
//! # let _ = (recs, stats);
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod degrade;
mod engine;
pub mod failpoint;
mod metrics;
mod queue;

pub use cache::SequenceCache;
pub use config::EngineConfig;
pub use degrade::DegradeConfig;
pub use engine::{Engine, Response, ResponseSource, ServeError, Ticket};
pub use metrics::{MetricsSnapshot, ServeStats};
pub use queue::{AdmissionQueue, BackpressurePolicy, PopOutcome, PushOutcome};
