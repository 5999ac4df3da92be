#![warn(missing_docs)]

//! # vsan-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`vsan_tensor::Tensor`], purpose-built for the VSAN reproduction.
//!
//! ## Design
//!
//! A [`Graph`] is a tape: every operation appends a node holding its
//! forward value and a typed [`op::Op`] record of how it was computed.
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients.
//! Graphs are cheap and rebuilt per training batch (define-by-run), which
//! keeps control flow — per-sample attention loops, unrolled GRUs,
//! KL-annealing schedules — in ordinary Rust.
//!
//! The op set is exactly what the paper's models need:
//!
//! * linear algebra: [`Graph::matmul`], [`Graph::matmul_a_bt`] (the `Q·Kᵀ`
//!   shape), transpose, reshape, row gather/concat;
//! * activations: ReLU, sigmoid, tanh, exp;
//! * attention: scaled causal-masked row softmax (§IV-B);
//! * normalization: fused LayerNorm with cached statistics (Eq. 7/9/16);
//! * embeddings: gather with sparse scatter-add backward;
//! * regularization: inverted dropout with caller-provided masks;
//! * fused losses: softmax cross-entropy (one-hot, Eq. 14, and multi-hot
//!   next-`k`, Eq. 18) and the diagonal-Gaussian KL to a standard-normal
//!   prior (Eq. 20).
//!
//! Every rule is verified against central finite differences in
//! [`gradcheck`].
//!
//! ## Example
//!
//! ```
//! use vsan_autograd::Graph;
//! use vsan_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.param(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap(), 0);
//! let w = g.param(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).unwrap(), 1);
//! let y = g.matmul(x, w).unwrap();
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss).unwrap();
//! assert_eq!(grads.param_grad(1).unwrap().data(), &[1.0, 2.0]);
//! ```

pub mod gradcheck;
pub mod graph;
pub mod op;

pub use graph::{Gradients, Graph, Var};

/// Errors surfaced by graph construction or the backward pass.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant docs describe the named fields
pub enum GradError {
    /// Underlying tensor kernel rejected the operands.
    Tensor(vsan_tensor::TensorError),
    /// The requested loss node is not a scalar.
    NonScalarLoss { shape: Vec<usize> },
    /// A variable belongs to a different (or stale) graph.
    UnknownVar(usize),
    /// Mask/target bookkeeping is inconsistent with the logits shape.
    BadTargets(&'static str),
}

impl From<vsan_tensor::TensorError> for GradError {
    fn from(e: vsan_tensor::TensorError) -> Self {
        GradError::Tensor(e)
    }
}

impl std::fmt::Display for GradError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GradError::Tensor(e) => write!(f, "tensor error: {e}"),
            GradError::NonScalarLoss { shape } => {
                write!(f, "backward requires a scalar loss, got shape {shape:?}")
            }
            GradError::UnknownVar(id) => write!(f, "unknown variable id {id}"),
            GradError::BadTargets(msg) => write!(f, "bad targets: {msg}"),
        }
    }
}

impl std::error::Error for GradError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GradError>;
