#![warn(missing_docs)]

//! # vsan-repro
//!
//! Umbrella crate for the reproduction of *"Variational Self-attention
//! Network for Sequential Recommendation"* (Zhao et al., ICDE 2021).
//!
//! This crate re-exports the whole workspace under one roof so the
//! `examples/` and the cross-crate integration tests have a single import
//! surface. The substance lives in the member crates:
//!
//! * [`tensor`] / [`autograd`] / [`nn`] — the from-scratch deep-learning
//!   substrate (dense f32 tensors, reverse-mode tape, layers/optimizers).
//! * [`data`] — preprocessing, strong-generalization splits, and the
//!   synthetic Beauty/ML-1M simulators.
//! * [`eval`] — Precision/Recall/NDCG and the held-out protocol.
//! * [`models`] — the eight baselines of Table III.
//! * [`core`] — VSAN itself (the paper's contribution) and its ablations.
//! * [`serve`] — the embedded online inference engine (micro-batching,
//!   top-k partial selection, user-sequence LRU cache, and the
//!   fault-tolerance layer: deadlines, backpressure, panic isolation,
//!   graceful degradation — README § Fault tolerance).
//! * [`session`] — incremental session inference: the prefix-keyed
//!   layer-state cache behind `Engine::append_event`, folding one event
//!   per O(n·d²) append pass, bit-identical to a full recompute
//!   (README § Incremental sessions, DESIGN.md §11).
//! * [`obs`] — observability: span tracing, metrics registry, and the
//!   JSONL training/serving telemetry (README § Observability).
//!
//! See README.md for a quickstart and DESIGN.md for the system inventory.

pub use vsan_autograd as autograd;
pub use vsan_core as core;
pub use vsan_data as data;
pub use vsan_eval as eval;
pub use vsan_models as models;
pub use vsan_nn as nn;
pub use vsan_obs as obs;
pub use vsan_serve as serve;
pub use vsan_session as session;
pub use vsan_tensor as tensor;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use vsan_core::{ClusteredConfig, Retrieval, SessionState, Vsan, VsanConfig, Workspace};
    pub use vsan_data::preprocess::Pipeline;
    pub use vsan_data::split::Split;
    pub use vsan_data::synthetic;
    pub use vsan_data::{Dataset, HeldOutUser};
    pub use vsan_eval::{evaluate_held_out, EvalConfig, Scorer};
    pub use vsan_models::{NeuralConfig, Recommender};
    pub use vsan_obs::{
        CollectingObserver, EventSink, FileSink, JsonlTrainObserver, MemorySink, ObserverHandle,
        TrainObserver,
    };
    pub use vsan_serve::{
        BackpressurePolicy, Engine, EngineConfig, MetricsSnapshot, Response, ResponseSource,
        ServeError, ServeStats, Ticket,
    };
    pub use vsan_session::{SessionConfig, SessionOutcome, SessionRuntime};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let cfg = VsanConfig::smoke();
        assert_eq!(cfg.variant_name(), "VSAN");
        let _pipeline = Pipeline::default();
        let _eval = EvalConfig::default();
        let _observer = ObserverHandle::none();
    }
}
