#![warn(missing_docs)]

//! # vsan-tensor
//!
//! A dense, row-major, `f32` tensor substrate built from scratch for the
//! VSAN (ICDE 2021) reproduction. No BLAS, no external numeric crates —
//! just carefully written loops (with a scoped-thread parallel matmul)
//! sized for training small-to-medium neural recommenders on CPU.
//!
//! The crate deliberately keeps the surface area small: the autograd layer
//! (`vsan-autograd`) composes these kernels into differentiable ops, and
//! the NN layer builds modules on top of that.
//!
//! ## Layout
//!
//! * [`shape`] — shapes, strides, and index arithmetic.
//! * [`tensor`] — the [`Tensor`] type and its constructors/accessors.
//! * [`init`] — random initializers (uniform, normal via Box–Muller,
//!   Xavier/Glorot) driven by a seedable PRNG.
//! * [`ops`] — elementwise kernels, matrix multiplication (serial and
//!   parallel), reductions, row softmax, and layer-norm statistics.
//! * [`kernel`] — [`KernelTier`] (reference or tiled products) and the
//!   one runtime AVX2 dispatch every hot kernel is stamped with.
//! * [`serialize`] — compact binary encode/decode over byte slices.
//! * [`cluster`] — deterministic seeded k-means for the clustered
//!   retrieval index (DESIGN.md §12).
//!
//! ## Example
//!
//! ```
//! use vsan_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

pub mod cluster;
pub mod init;
pub mod kernel;
pub mod ops;
pub mod parallel;
pub mod serialize;
pub mod shape;
pub mod tensor;

pub use kernel::KernelTier;
pub use shape::Shape;
pub use tensor::Tensor;

/// Errors produced by tensor construction and kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant docs describe the named fields
pub enum TensorError {
    /// The number of elements does not match the product of the shape dims.
    LengthMismatch { expected: usize, got: usize },
    /// Two operands had incompatible shapes for the requested kernel.
    ShapeMismatch { lhs: Vec<usize>, rhs: Vec<usize>, op: &'static str },
    /// The kernel requires a specific rank (e.g. matmul wants rank 2).
    RankMismatch { expected: usize, got: usize, op: &'static str },
    /// An index was out of bounds for the tensor's shape.
    OutOfBounds { index: Vec<usize>, shape: Vec<usize> },
    /// Decoding a serialized tensor failed.
    Decode(&'static str),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: shape wants {expected} elements, got {got}")
            }
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::RankMismatch { expected, got, op } => {
                write!(f, "rank mismatch in {op}: expected rank {expected}, got {got}")
            }
            TensorError::OutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::Decode(msg) => write!(f, "decode error: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::LengthMismatch { expected: 4, got: 3 };
        assert!(e.to_string().contains("4"));
        let e = TensorError::ShapeMismatch { lhs: vec![2], rhs: vec![3], op: "add" };
        assert!(e.to_string().contains("add"));
        let e = TensorError::RankMismatch { expected: 2, got: 1, op: "matmul" };
        assert!(e.to_string().contains("matmul"));
        let e = TensorError::OutOfBounds { index: vec![9], shape: vec![2] };
        assert!(e.to_string().contains("[9]"));
        let e = TensorError::Decode("bad magic");
        assert!(e.to_string().contains("bad magic"));
    }
}
