//! The dense row-major `f32` [`Tensor`] type.

use crate::shape::Shape;
use crate::{Result, TensorError};

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// The type is intentionally value-like: cloning copies the buffer, and all
/// kernels in [`crate::ops`] allocate fresh outputs. The autograd tape above
/// this layer owns the sharing story; here we keep invariants simple:
///
/// * `data.len() == shape.numel()` always holds.
/// * The layout is row-major (C order).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Build a tensor from a flat buffer and a shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch { expected: shape.numel(), got: data.len() });
        }
        Ok(Tensor { data, shape })
    }

    /// Build a rank-0 scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor { data: vec![v], shape: Shape::scalar() }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(dims: &[usize], v: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![v; shape.numel()], shape }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Zero tensor with the same shape as `other`.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor { data: vec![0.0; other.data.len()], shape: other.shape.clone() }
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Convenience accessor for rank-2 tensors: `t.get2(r, c)`.
    ///
    /// Panics on out-of-bounds; use [`Tensor::at`] for checked access.
    pub fn get2(&self, r: usize, c: usize) -> f32 {
        let (_, cols) = self.shape.as_2d().expect("get2 on non-matrix");
        self.data[r * cols + c]
    }

    /// Set a rank-2 element. Panics on out-of-bounds.
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        let (_, cols) = self.shape.as_2d().expect("set2 on non-matrix");
        self.data[r * cols + c] = v;
    }

    /// A borrowed row of a rank-2 tensor.
    pub fn row(&self, r: usize) -> &[f32] {
        let (rows, cols) = self.shape.as_2d().expect("row on non-matrix");
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        &self.data[r * cols..(r + 1) * cols]
    }

    /// A mutable borrowed row of a rank-2 tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let (rows, cols) = self.shape.as_2d().expect("row_mut on non-matrix");
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Reinterpret the buffer with a new shape of equal element count.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                got: self.data.len(),
            });
        }
        Ok(Tensor { data: self.data.clone(), shape })
    }

    /// Apply a scalar function elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Apply a scalar function elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Fill the tensor with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `true` if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute element, or 0.0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm of the flattened tensor.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose2(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_2d()?;
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extract a contiguous block of rows `[start, start+len)` from a
    /// rank-2 tensor.
    pub fn rows_slice(&self, start: usize, len: usize) -> Result<Tensor> {
        let (r, c) = self.shape.as_2d()?;
        if start + len > r {
            return Err(TensorError::OutOfBounds {
                index: vec![start + len],
                shape: self.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data[start * c..(start + len) * c].to_vec(),
            shape: Shape::new(&[len, c]),
        })
    }

    /// Gather rows of a rank-2 tensor by index, producing `(idx.len(), cols)`.
    pub fn gather_rows(&self, idx: &[usize]) -> Result<Tensor> {
        let (r, c) = self.shape.as_2d()?;
        let mut data = Vec::with_capacity(idx.len() * c);
        for &i in idx {
            if i >= r {
                return Err(TensorError::OutOfBounds {
                    index: vec![i],
                    shape: self.shape.dims().to_vec(),
                });
            }
            data.extend_from_slice(&self.data[i * c..(i + 1) * c]);
        }
        Ok(Tensor { data, shape: Shape::new(&[idx.len(), c]) })
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview = self.data.iter().take(8).collect::<Vec<_>>();
        for (i, v) in preview.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_respect_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.numel(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let t = Tensor::ones(&[4]);
        assert!(t.data().iter().all(|&x| x == 1.0));
        let t = Tensor::full(&[2, 2], 3.5);
        assert!(t.data().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.get2(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn row_access_and_mutation() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        t.row_mut(0)[2] = 9.0;
        assert_eq!(t.get2(0, 2), 9.0);
        t.set2(1, 0, -1.0);
        assert_eq!(t.at(&[1, 0]).unwrap(), -1.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[2, 6]);
        assert!(t.reshape(&[5, 2]).is_err());
    }

    #[test]
    fn transpose2_round_trip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose2().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get2(0, 1), t.get2(1, 0));
        let back = tt.transpose2().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rows_slice_extracts_block() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        let s = t.rows_slice(1, 2).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert!(t.rows_slice(3, 2).is_err());
    }

    #[test]
    fn gather_rows_selects_and_validates() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]).unwrap();
        let g = t.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        assert!(t.gather_rows(&[3]).is_err());
    }

    #[test]
    fn map_and_fill() {
        let mut t = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let m = t.map(f32::abs);
        assert_eq!(m.data(), &[1.0, 2.0]);
        t.map_in_place(|x| x * 2.0);
        assert_eq!(t.data(), &[2.0, -4.0]);
        t.fill(0.5);
        assert_eq!(t.data(), &[0.5, 0.5]);
    }

    #[test]
    fn finiteness_and_norms() {
        let t = Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap();
        assert!(t.all_finite());
        assert_eq!(t.sq_norm(), 25.0);
        assert_eq!(t.max_abs(), 4.0);
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(!bad.all_finite());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains("…"));
    }
}
