#![warn(missing_docs)]

//! # vsan-models
//!
//! The eight baseline recommenders the paper compares VSAN against
//! (Table III), trained end-to-end on `vsan-data` datasets and evaluated
//! through `vsan-eval`'s strong-generalization protocol:
//!
//! | Model | Family | Module |
//! |---|---|---|
//! | POP | popularity | [`pop`] |
//! | BPR | matrix factorization, pairwise loss | [`bpr`] |
//! | FPMC | factorized Markov chain | [`fpmc`] |
//! | TransRec | translation embedding | [`transrec`] |
//! | GRU4Rec | RNN | [`gru4rec`] |
//! | Caser | CNN | [`caser`] |
//! | SVAE | RNN + VAE | [`svae`] |
//! | SASRec | self-attention | [`sasrec`] |
//!
//! Held-out users are unseen during training (strong generalization), so
//! models that natively need a user embedding (BPR, FPMC, TransRec, Caser)
//! fold a held-out user in from their history — BPR/FPMC average the
//! fold-in item factors, TransRec uses the learned global translation,
//! Caser drops its user embedding — the same adaptation the paper applies
//! via SVAE's protocol ("for the baselines that can only provide
//! meaningful predictions for users who are already utilized during the
//! training phase, we adopt the same operation as \[33\]").
//!
//! Neural baselines are trained with full-softmax cross-entropy (rather
//! than the sampled losses some original papers used) for comparability
//! with VSAN's Eq. 20 objective; this is noted per-model.
//!
//! [`itemknn`] adds Item-kNN as a workspace extension beyond the paper's
//! baseline set (see its module docs).

pub mod bpr;
pub mod caser;
pub mod common;
pub mod fpmc;
pub mod gru4rec;
pub mod itemknn;
pub mod pop;
pub mod sasrec;
pub mod svae;
pub mod transrec;
pub mod traits;

pub use bpr::Bpr;
pub use caser::Caser;
pub use common::NeuralConfig;
// Telemetry types callers need to attach observers to a config.
pub use vsan_obs::{
    CollectingObserver, EpochRecord, JsonlTrainObserver, ObserverHandle, TrainObserver,
    TrainRunInfo,
};
pub use fpmc::Fpmc;
pub use gru4rec::Gru4Rec;
pub use itemknn::ItemKnn;
pub use pop::Pop;
pub use sasrec::SasRec;
pub use svae::Svae;
pub use transrec::TransRec;
pub use traits::Recommender;
