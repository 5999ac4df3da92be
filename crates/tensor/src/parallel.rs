//! Data-parallel kernels built on `std::thread::scope`.
//!
//! The prediction layer of every sequential model in this workspace ends in
//! a `(rows, d) × (d, N_items)` matmul with `N_items` in the thousands —
//! by far the dominant cost. Splitting output rows across threads is
//! embarrassingly parallel; one row-chunking loop (`row_chunked`, generic
//! over the serial kernel it hands each chunk to) serves both front-ends:
//! [`matmul_into_parallel`] for the inference pass's workspace slices and
//! [`crate::KernelTier::matmul`] for the tape, on either tier.

use crate::ops::matmul::{matmul_into, MR};

/// Number of worker threads to use: the machine's available parallelism,
/// clamped to `[1, 16]`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// `c += a · b` with the rows of `a` split across up to `threads` workers,
/// each running the serial `kernel` on its chunk; the whole product goes
/// to `kernel` directly when it is too small to amortize thread spawn cost.
///
/// A worker takes an even share of the `m` rows rounded up to whole
/// `MR`-row register tiles, so only the last chunk can end in single-row
/// tiles and the chunk boundaries do not depend on the kernel. Rows are
/// never split, so no `k` fold is: the result is bit-identical to the
/// serial kernel for every thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_chunked(
    kernel: impl Fn(&[f32], &[f32], &mut [f32], usize, usize, usize) + Sync,
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
    // Below ~2 MFLOP the spawn overhead dominates; stay serial.
    if threads == 1 || m * k * n < 1_000_000 {
        return kernel(a, b, c, m, k, n);
    }
    let chunk_rows = m.div_ceil(threads).next_multiple_of(MR);
    let kernel = &kernel;
    // A panicking worker re-panics here when the scope joins it.
    std::thread::scope(|s| {
        for (ci, c_chunk) in c.chunks_mut(chunk_rows * n).enumerate() {
            let row0 = ci * chunk_rows;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            s.spawn(move || kernel(a_chunk, b, c_chunk, rows, k, n));
        }
    });
}

/// Parallel flat-buffer `c += a · b` (the inference fast path's front
/// end): `row_chunked` over the tiled [`matmul_into`], writing into a
/// caller-owned workspace slice. `c` must be zeroed.
pub fn matmul_into_parallel(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    row_chunked(matmul_into, a, b, c, m, k, n, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelTier;
    use crate::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TIERS: [KernelTier; 2] = [KernelTier::Reference, KernelTier::Fast];

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::randn(&mut rng, &[64, 48], 0.0, 1.0);
        let b = init::randn(&mut rng, &[48, 96], 0.0, 1.0);
        let serial = crate::ops::matmul(&a, &b).unwrap();
        for tier in TIERS {
            for threads in [1, 2, 4, 7] {
                let par = tier.matmul(&a, &b, threads).unwrap();
                for (s, p) in serial.data().iter().zip(par.data()) {
                    assert!((s - p).abs() < 1e-4, "thread count {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_handles_large_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = init::randn(&mut rng, &[300, 64], 0.0, 0.1);
        let b = init::randn(&mut rng, &[64, 400], 0.0, 0.1);
        let serial = crate::ops::matmul(&a, &b).unwrap();
        for tier in TIERS {
            let par = tier.matmul(&a, &b, default_threads()).unwrap();
            let mut max_diff = 0.0f32;
            for (s, p) in serial.data().iter().zip(par.data()) {
                max_diff = max_diff.max((s - p).abs());
            }
            assert!(max_diff < 1e-4, "max diff {max_diff}");
        }
    }

    #[test]
    fn parallel_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        for tier in TIERS {
            assert!(tier.matmul(&a, &b, 2).is_err());
        }
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
                let assert_bits = |name: &str, got: &[f32]| {
                    for (w, g) in want.data().iter().zip(got) {
                        assert_eq!(w.to_bits(), g.to_bits(), "({m},{k},{n}) threads={threads} {name}");
                    }
                };
                // The inference front-end, then the tape's on each tier.
                let mut flat = vec![0.0f32; m * n];
                matmul_into_parallel(a.data(), b.data(), &mut flat, m, k, n, threads);
                assert_bits("matmul_into_parallel", &flat);
                for tier in TIERS {
                    assert_bits(tier.name(), tier.matmul(&a, &b, threads).unwrap().data());
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
