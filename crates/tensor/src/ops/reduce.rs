//! Reduction kernels: sums, means, and axis reductions.

use crate::{Result, Tensor};

/// Sum of all elements.
pub fn sum_all(a: &Tensor) -> f32 {
    a.data().iter().sum()
}

/// Mean of all elements (0.0 for empty tensors).
pub fn mean_all(a: &Tensor) -> f32 {
    if a.numel() == 0 {
        0.0
    } else {
        sum_all(a) / a.numel() as f32
    }
}

/// Column sums of a rank-2 tensor: `(r, c) → (c,)`.
///
/// This is the bias-gradient reduction (`db = Σ_rows dY`).
pub fn sum_axis0(a: &Tensor) -> Result<Tensor> {
    let (r, c) = a.shape().as_2d()?;
    let mut out = Tensor::zeros(&[c]);
    let od = out.data_mut();
    for i in 0..r {
        let row = &a.data()[i * c..(i + 1) * c];
        for (o, &x) in od.iter_mut().zip(row) {
            *o += x;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(sum_all(&a), 10.0);
        assert_eq!(mean_all(&a), 2.5);
    }

    #[test]
    fn axis_reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(sum_axis0(&a).unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn rank_checks() {
        let v = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        assert!(sum_axis0(&v).is_err());
    }
}
