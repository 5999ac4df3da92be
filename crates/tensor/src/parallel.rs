//! Data-parallel kernels built on `crossbeam::thread::scope`.
//!
//! The prediction layer of every sequential model in this workspace ends in
//! a `(rows, d) × (d, N_items)` matmul with `N_items` in the thousands —
//! by far the dominant cost. Splitting output rows across threads is
//! embarrassingly parallel and gives near-linear speedups (measured in
//! `vsan-bench`'s `matmul_parallel` bench).

use crate::kernel::KernelTier;
use crate::ops::matmul::{matmul_into, matmul_into_skip_zeros, MR};
use crate::{Result, Tensor, TensorError};

/// Number of worker threads to use: the machine's available parallelism,
/// clamped to `[1, 16]`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// Rows per worker for an `m`-row product: an even split rounded up to
/// whole `MR`-row register tiles, so only the last chunk can end in
/// single-row tiles. Every front-end below chunks with this, which keeps
/// the tiers' chunk boundaries identical; rows are never split, so no
/// fold is.
fn chunk_rows(m: usize, threads: usize) -> usize {
    m.div_ceil(threads).next_multiple_of(MR)
}

/// Parallel dense `C = A · B` for rank-2 operands, splitting rows of `A`
/// across `threads` workers. Falls back to the serial kernel when the
/// problem is too small to amortize thread spawn cost.
///
/// This is the tape's parallel front-end, so each chunk runs the
/// *reference* kernel (`ops::matmul`'s `i-k-j` loop — see that module's
/// header on oracle independence). Row chunking never splits a row's
/// `k` fold, so the result is bit-identical for every thread count.
pub fn matmul_parallel(a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (kb, n) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_parallel",
        });
    }
    let threads = threads.max(1).min(m.max(1));
    // Below ~2 MFLOP the spawn overhead dominates; stay serial.
    if threads == 1 || m * k * n < 1_000_000 {
        return crate::ops::matmul(a, b);
    }
    let mut out = Tensor::zeros(&[m, n]);
    let chunk_rows = chunk_rows(m, threads);
    let (ad, bd) = (a.data(), b.data());
    {
        let od = out.data_mut();
        let mut chunks: Vec<&mut [f32]> = od.chunks_mut(chunk_rows * n).collect();
        crossbeam::thread::scope(|s| {
            for (ci, c_chunk) in chunks.iter_mut().enumerate() {
                let row0 = ci * chunk_rows;
                let rows = c_chunk.len() / n;
                let a_chunk = &ad[row0 * k..(row0 + rows) * k];
                s.spawn(move |_| {
                    matmul_into_skip_zeros(a_chunk, bd, c_chunk, rows, k, n);
                });
            }
        })
        .expect("worker thread panicked in matmul_parallel");
    }
    Ok(out)
}

/// Tier-dispatched parallel `c += a · b` into a caller's zeroed buffer:
/// the tape's front-end. [`KernelTier::Reference`] runs the reference
/// `i-k-j` zero-skip kernel with [`matmul_parallel`]'s exact row-chunking
/// and serial-fallback threshold; [`KernelTier::Fast`] runs
/// [`matmul_into_parallel`] (identical chunking, tiled kernel). Chunking
/// never splits a row's `k` fold and the tiled kernel is bit-identical to
/// the reference fold, so both tiers produce `ops::matmul`'s bits at
/// every thread count.
#[allow(clippy::too_many_arguments)]
pub fn matmul_parallel_tiered_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    tier: KernelTier,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if tier == KernelTier::Fast {
        return matmul_into_parallel(a, b, c, m, k, n, threads);
    }
    let threads = threads.max(1).min(m.max(1));
    if threads == 1 || m * k * n < 1_000_000 {
        return matmul_into_skip_zeros(a, b, c, m, k, n);
    }
    let chunk_rows = chunk_rows(m, threads);
    let mut chunks: Vec<&mut [f32]> = c.chunks_mut(chunk_rows * n).collect();
    crossbeam::thread::scope(|s| {
        for (ci, c_chunk) in chunks.iter_mut().enumerate() {
            let row0 = ci * chunk_rows;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            s.spawn(move |_| {
                matmul_into_skip_zeros(a_chunk, b, c_chunk, rows, k, n);
            });
        }
    })
    .expect("worker thread panicked in matmul_parallel_tiered_into");
}

/// Parallel flat-buffer `c += a · b` (the inference fast path's front
/// end): same row-chunking and serial-fallback threshold as
/// [`matmul_parallel`], but writing into a caller-owned workspace slice
/// instead of allocating an output tensor. `c` must be zeroed. Row
/// chunking never splits a row's `k` fold, so the result is bit-identical
/// to the serial kernel for every thread count.
pub fn matmul_into_parallel(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let threads = threads.max(1).min(m.max(1));
    if threads == 1 || m * k * n < 1_000_000 {
        return matmul_into(a, b, c, m, k, n);
    }
    let chunk_rows = chunk_rows(m, threads);
    let mut chunks: Vec<&mut [f32]> = c.chunks_mut(chunk_rows * n).collect();
    crossbeam::thread::scope(|s| {
        for (ci, c_chunk) in chunks.iter_mut().enumerate() {
            let row0 = ci * chunk_rows;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            s.spawn(move |_| {
                matmul_into(a_chunk, b, c_chunk, rows, k, n);
            });
        }
    })
    .expect("worker thread panicked in matmul_into_parallel");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::randn(&mut rng, &[64, 48], 0.0, 1.0);
        let b = init::randn(&mut rng, &[48, 96], 0.0, 1.0);
        let serial = crate::ops::matmul(&a, &b).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = matmul_parallel(&a, &b, threads).unwrap();
            for (s, p) in serial.data().iter().zip(par.data()) {
                assert!((s - p).abs() < 1e-4, "thread count {threads}");
            }
        }
    }

    #[test]
    fn parallel_handles_large_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = init::randn(&mut rng, &[300, 64], 0.0, 0.1);
        let b = init::randn(&mut rng, &[64, 400], 0.0, 0.1);
        let serial = crate::ops::matmul(&a, &b).unwrap();
        let par = matmul_parallel(&a, &b, default_threads()).unwrap();
        let mut max_diff = 0.0f32;
        for (s, p) in serial.data().iter().zip(par.data()) {
            max_diff = max_diff.max((s - p).abs());
        }
        assert!(max_diff < 1e-4, "max diff {max_diff}");
    }

    #[test]
    fn parallel_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul_parallel(&a, &b, 2).is_err());
    }

    #[test]
    fn tiered_front_end_is_bit_identical_across_tiers_and_threads() {
        let mut rng = StdRng::seed_from_u64(4);
        // The large shape crosses the serial-fallback threshold at 2 and 4
        // threads; the small one stays serial and ends in partial tiles.
        for (m, k, n) in [(5usize, 7usize, 9usize), (128, 64, 160)] {
            let mut a = init::randn(&mut rng, &[m, k], 0.0, 0.5);
            // Exact zeros exercise the reference tier's skip branch.
            for v in a.data_mut().iter_mut().step_by(5) {
                *v = 0.0;
            }
            let b = init::randn(&mut rng, &[k, n], 0.0, 0.5);
            let want = crate::ops::matmul(&a, &b).unwrap();
            for threads in [1usize, 2, 4] {
                for tier in [KernelTier::Reference, KernelTier::Fast] {
                    let mut got = vec![0.0f32; m * n];
                    matmul_parallel_tiered_into(a.data(), b.data(), &mut got, m, k, n, threads, tier);
                    for (w, g) in want.data().iter().zip(&got) {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "({m},{k},{n}) threads={threads} tier={}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!((1..=16).contains(&t));
    }
}
