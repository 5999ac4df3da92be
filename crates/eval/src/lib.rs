#![warn(missing_docs)]

//! # vsan-eval
//!
//! Evaluation machinery for the VSAN reproduction (§V-C):
//!
//! * [`metrics`] — Precision@N, Recall@N, NDCG@N (plus HR@N and MRR as
//!   extras), computed per held-out user and averaged.
//! * [`ranking`] — top-N selection over item scores with seen-item
//!   exclusion.
//! * [`protocol`] — the strong-generalization held-out loop: feed each
//!   held-out user's 80 % fold-in to a [`protocol::Scorer`], rank the
//!   remaining catalogue, compare the top-N against the 20 % target tail.
//! * [`report`] — multi-seed aggregation (the paper reports the average of
//!   five runs) and paper-style table formatting.

pub mod metrics;
pub mod protocol;
pub mod ranking;
pub mod significance;
pub mod report;

pub use metrics::MetricSet;
pub use protocol::{evaluate_held_out, evaluate_held_out_per_user, EvalConfig, Scorer};
pub use significance::{paired_bootstrap, BootstrapResult};
pub use ranking::{top_n_excluding, top_n_excluding_pairs};
pub use report::{MetricsReport, RunAggregate};
