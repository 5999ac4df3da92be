#![warn(missing_docs)]

//! # vsan-nn
//!
//! Neural-network building blocks on top of [`vsan_autograd`]: a named
//! parameter store, the layers the paper's models are assembled from, the
//! optimizers used in its experiments, and the KL-annealing schedule from
//! §IV-E.
//!
//! ## Layers
//!
//! * [`linear::Linear`] — affine projection (`l₁`, `l₂` heads, prediction
//!   layer `W_g, b_g`).
//! * [`embedding::Embedding`] — item/position tables with a reserved
//!   zero-padding row (index 0), re-zeroed after every optimizer step.
//! * [`layernorm::LayerNorm`] — learned affine layer normalization.
//! * [`dropout::Dropout`] — inverted dropout with train/eval modes.
//! * [`attention::SelfAttentionBlock`] — one causal self-attention block
//!   (dot-product attention → residual + LayerNorm → point-wise FFN →
//!   residual + LayerNorm), exactly Eqs. 5–9 / 15–16; the FFN can be
//!   disabled for the paper's VSAN-*-feed ablations.
//! * [`gru::GruCell`] — gated recurrent unit for the GRU4Rec and SVAE
//!   baselines.
//!
//! ## Training machinery
//!
//! * [`param::ParamStore`] — named parameters with binary checkpointing.
//! * [`data_parallel::DataParallel`] — deterministic data-parallel batch
//!   executor: fixed-size shards, one autograd graph per shard, and a
//!   fixed-order pairwise tree reduction so training is bit-identical
//!   across thread counts.
//! * [`optim::Adam`] / [`optim::Sgd`] — the optimizers used in §V-D.
//! * [`schedule::BetaSchedule`] — fixed-β and KL-annealing schedules for
//!   the ELBO (Fig. 6).

pub mod attention;
pub mod data_parallel;
pub mod dropout;
pub mod embedding;
pub mod gru;
pub mod layernorm;
pub mod linear;
pub mod optim;
pub mod param;
pub mod schedule;

pub use attention::SelfAttentionBlock;
pub use data_parallel::{DataParallel, ShardStats};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use gru::GruCell;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{ParamId, ParamStore};
pub use schedule::BetaSchedule;
