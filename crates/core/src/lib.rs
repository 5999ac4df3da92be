#![warn(missing_docs)]

//! # vsan-core
//!
//! The **Variational Self-Attention Network** (VSAN) of Zhao et al.,
//! *"Variational Self-attention Network for Sequential Recommendation"*,
//! ICDE 2021 — the primary contribution this workspace reproduces.
//!
//! VSAN marries a variational autoencoder with causal self-attention
//! (Fig. 2 of the paper):
//!
//! ```text
//!            ┌───────────────────────────────────────────────┐
//!  items ───►│ Embedding: I = A + P (item + position, §IV-A) │
//!            └───────────────┬───────────────────────────────┘
//!                            ▼
//!            ┌───────────────────────────────────────────────┐
//!            │ Inference SAN: h₁ causal blocks → G_i  (§IV-B)│
//!            │ heads: μ = l₁(G_i),  log σ² = l₂(G_i) (Eq.12) │
//!            └───────────────┬───────────────────────────────┘
//!                            ▼
//!            ┌───────────────────────────────────────────────┐
//!            │ Latent: z = μ + σ ⊙ ε   (Eq. 13, §IV-C)       │
//!            │ (evaluation uses z = μ)                        │
//!            └───────────────┬───────────────────────────────┘
//!                            ▼
//!            ┌───────────────────────────────────────────────┐
//!            │ Generative SAN: h₂ causal blocks → G_g (§IV-D)│
//!            └───────────────┬───────────────────────────────┘
//!                            ▼
//!            ┌───────────────────────────────────────────────┐
//!            │ Prediction: softmax(G_g W_g + b_g)   (Eq. 19) │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! trained by minimizing the β-weighted negative ELBO (Eq. 20):
//! `β·KL[q(z|S)‖N(0,I)] + CE(next items)`, with KL annealing and an
//! optional next-`k` multi-hot target (Eq. 18).
//!
//! Note on Eq. 12: the paper writes `σ_λ = l₂(G)`, a direct linear head
//! for the standard deviation; like every practical VAE implementation
//! (including the SVAE baseline the paper builds on) we parameterize the
//! head as `log σ²` so positivity holds by construction. This is recorded
//! in DESIGN.md.
//!
//! ## Modules
//!
//! * [`config`] — [`VsanConfig`]: paper presets ((h₁,h₂) = (1,1) Beauty /
//!   (3,1) ML-1M, k = 2, d = 200 …) and ablation constructors
//!   (`vsan_z`, `all_feed`, `infer_feed`, `gene_feed` — Tables V–VI).
//! * [`model`] — the trainable [`Vsan`] network and its
//!   [`vsan_eval::Scorer`] implementation.
//! * [`uncertainty`] — posterior introspection: per-user `(μ, σ)` so the
//!   Fig. 1 uncertainty story can be measured, not just told.
//! * [`retrieval`] — clustered MIPS top-k over the prediction head with
//!   the exact brute-force path kept deployable ([`Retrieval::Exact`])
//!   and as the oracle.

pub mod config;
pub mod infer;
pub mod model;
pub mod retrieval;
pub mod uncertainty;

pub use config::VsanConfig;
pub use infer::{SessionState, Workspace};
pub use model::Vsan;
pub use retrieval::{ClusteredConfig, ItemIndex, QueryStats, Retrieval};
pub use uncertainty::PosteriorStats;
