//! Deterministic seeded k-means over row-major vector sets — the
//! centroid layer of the clustered maximum-inner-product (MIPS) index
//! (DESIGN.md §12).
//!
//! ## Determinism contract
//!
//! Rebuilding from the same `(data, config)` pair is **bit-reproducible**:
//!
//! * initial centroids are chosen by a [`splitmix64`] stream seeded from
//!   the config, not by any ambient RNG;
//! * assignment scores run through [`matmul_into`] over a transposed copy
//!   of the centroids, whose per-element fold is a single ascending-`k`
//!   scalar fold (the blocking rule of `ops::matmul`: tiling covers output
//!   dims only, never splits `k`; the transpose moves bits without
//!   computing any), so every row-to-centroid distance is one fixed-order
//!   f32 fold;
//! * centroid updates accumulate member rows in ascending row order and
//!   ties in the argmin break toward the lower centroid id.
//!
//! There is no threading in the build: a k-means build is a rare,
//! offline-ish event (model load / checkpoint reload), and a serial build
//! makes the fixed-order fold argument trivial. The expensive inner loop
//! is the blocked score matmul, which already carries the AVX2 codegen
//! twin.

use crate::ops::matmul::{matmul_into, transpose_into};

/// The splitmix64 mixer — the same generator the data-parallel trainer
/// derives its per-shard streams from. Advances `state` and returns the
/// next value.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Knobs for [`cluster_rows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmeansConfig {
    /// Number of centroids (clamped to `[1, n]`).
    pub num_clusters: usize,
    /// Lloyd iterations over the training rows.
    pub iters: usize,
    /// Train the centroids on at most this many rows (`0` = all rows);
    /// the final assignment pass always covers every row. Sampling keeps
    /// million-row builds affordable without touching determinism — the
    /// sample is drawn from the same seeded stream.
    pub train_sample: usize,
    /// Seed for the splitmix64 init/sample stream.
    pub seed: u64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig { num_clusters: 16, iters: 4, train_sample: 65_536, seed: 0x5EED }
    }
}

/// A finished clustering: centroids plus a per-row assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Number of centroids actually built (`min(config, n)`, at least 1).
    pub num_clusters: usize,
    /// Vector width.
    pub dim: usize,
    /// Row-major `(num_clusters, dim)` centroid matrix.
    pub centroids: Vec<f32>,
    /// Centroid id per input row, `(n,)`.
    pub assignments: Vec<u32>,
}

/// Rows scored per blocked assignment pass — amortizes the `(rows, dim) ×
/// (dim, clusters)` matmul without a large score buffer.
const ASSIGN_BLOCK: usize = 256;

/// Deterministic k-means over `n` row-major `dim`-wide vectors in `data`.
///
/// Distances use the expansion `argmin_c ‖x−c‖² = argmin_c (‖c‖²/2 − x·c)`
/// — the `‖x‖²` term is constant per row — with both the dot products and
/// the centroid norms computed as fixed-order ascending folds. See the
/// module docs for the full determinism argument.
///
/// # Panics
/// Panics if `data.len() != n * dim` or `n == 0` or `dim == 0`.
pub fn cluster_rows(data: &[f32], n: usize, dim: usize, cfg: &KmeansConfig) -> Clustering {
    assert!(n > 0 && dim > 0, "cluster_rows needs at least one row and one column");
    assert_eq!(data.len(), n * dim, "data length must be n * dim");
    let k = cfg.num_clusters.clamp(1, n);
    let mut stream = cfg.seed;

    // Seeded init: k distinct row indices from the splitmix64 stream.
    let mut centroids = vec![0.0f32; k * dim];
    let mut taken = std::collections::HashSet::with_capacity(k);
    for c in 0..k {
        let row = loop {
            let r = (splitmix64(&mut stream) % n as u64) as usize;
            if taken.insert(r) {
                break r;
            }
        };
        centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[row * dim..(row + 1) * dim]);
    }

    // Training rows: a seeded sample (ascending order, so the update
    // folds rows in a fixed order) or every row.
    let sample: Vec<usize> = if cfg.train_sample == 0 || cfg.train_sample >= n {
        (0..n).collect()
    } else {
        let mut idx = std::collections::HashSet::with_capacity(cfg.train_sample);
        while idx.len() < cfg.train_sample {
            idx.insert((splitmix64(&mut stream) % n as u64) as usize);
        }
        let mut idx: Vec<usize> = idx.into_iter().collect();
        idx.sort_unstable();
        idx
    };

    let mut sample_assign = vec![0u32; sample.len()];
    let mut sums = vec![0.0f32; k * dim];
    let mut counts = vec![0usize; k];
    for _ in 0..cfg.iters {
        assign_sampled(data, dim, &sample, &centroids, k, &mut sample_assign);
        // Update: fold member rows in ascending row order (the sample is
        // sorted), one fixed-order accumulation per centroid.
        sums.fill(0.0);
        counts.fill(0);
        for (si, &row) in sample.iter().enumerate() {
            let c = sample_assign[si] as usize;
            counts[c] += 1;
            let dst = &mut sums[c * dim..(c + 1) * dim];
            for (s, &x) in dst.iter_mut().zip(&data[row * dim..(row + 1) * dim]) {
                *s += x;
            }
        }
        // An empty cluster keeps its previous centroid — deterministic
        // and harmless (it simply attracts no queries).
        for c in 0..k {
            if counts[c] > 0 {
                let src = &sums[c * dim..(c + 1) * dim];
                let inv = 1.0 / counts[c] as f32;
                for (dst, &s) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(src) {
                    *dst = s * inv;
                }
            }
        }
    }

    // Final assignment over every row.
    let all: Vec<usize> = (0..n).collect();
    let mut assignments = vec![0u32; n];
    assign_sampled(data, dim, &all, &centroids, k, &mut assignments);
    Clustering { num_clusters: k, dim, centroids, assignments }
}

/// Assign each listed row to its nearest centroid (lowest centroid id on
/// ties), writing into `out[i]` for the `i`-th listed row.
fn assign_sampled(
    data: &[f32],
    dim: usize,
    rows: &[usize],
    centroids: &[f32],
    k: usize,
    out: &mut [u32],
) {
    debug_assert_eq!(out.len(), rows.len());
    // ‖c‖²/2 per centroid, ascending fold over dim.
    let mut half_norm = vec![0.0f32; k];
    for (c, h) in half_norm.iter_mut().enumerate() {
        let row = &centroids[c * dim..(c + 1) * dim];
        let mut acc = 0.0f32;
        for &v in row {
            acc += v * v;
        }
        *h = 0.5 * acc;
    }
    // Centroids transposed once per pass, so a block's scores are the
    // tiled `block · centroidsᵀ` with the lanes across centroids — the
    // same products in the same ascending order as per-pair dots.
    let mut centroids_t = vec![0.0f32; dim * k];
    transpose_into(centroids, &mut centroids_t, k, dim);
    let mut block = vec![0.0f32; ASSIGN_BLOCK * dim];
    let mut scores = vec![0.0f32; ASSIGN_BLOCK * k];
    for (chunk_i, chunk) in rows.chunks(ASSIGN_BLOCK).enumerate() {
        let m = chunk.len();
        for (local, &row) in chunk.iter().enumerate() {
            block[local * dim..(local + 1) * dim]
                .copy_from_slice(&data[row * dim..(row + 1) * dim]);
        }
        scores[..m * k].fill(0.0);
        matmul_into(&block[..m * dim], &centroids_t, &mut scores[..m * k], m, dim, k);
        for local in 0..m {
            let row_scores = &scores[local * k..(local + 1) * k];
            let mut best = 0usize;
            let mut best_cost = half_norm[0] - row_scores[0];
            for (c, (&h, &s)) in half_norm.iter().zip(row_scores).enumerate().skip(1) {
                let cost = h - s;
                // Strict `<`: ties keep the lower centroid id.
                if cost < best_cost {
                    best = c;
                    best_cost = cost;
                }
            }
            out[chunk_i * ASSIGN_BLOCK + local] = best as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random rows without any RNG dependency.
    fn rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n * dim)
            .map(|_| (splitmix64(&mut s) % 10_000) as f32 / 5_000.0 - 1.0)
            .collect()
    }

    #[test]
    fn splitmix_is_reproducible_and_mixes() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert_eq!(xs.iter().collect::<std::collections::HashSet<_>>().len(), 8);
    }

    #[test]
    fn rebuild_is_bit_identical() {
        let data = rows(300, 9, 7);
        let cfg = KmeansConfig { num_clusters: 12, iters: 4, train_sample: 128, seed: 3 };
        let a = cluster_rows(&data, 300, 9, &cfg);
        let b = cluster_rows(&data, 300, 9, &cfg);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.len(), b.centroids.len());
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The tiled score product changes no assignment: the final pass,
    /// redone with the reference per-pair dots over the built centroids,
    /// lands every row in the same cluster.
    #[test]
    fn assignments_match_reference_dot_scores() {
        use crate::ops::matmul::reference::matmul_a_bt_into;
        // 21 centroids and 9 columns: off the 16-column tile and off the
        // 256-row block on both sides.
        let (n, dim) = (700, 9);
        let data = rows(n, dim, 17);
        let cfg = KmeansConfig { num_clusters: 21, iters: 3, train_sample: 200, seed: 5 };
        let got = cluster_rows(&data, n, dim, &cfg);
        let k = got.num_clusters;
        let mut scores = vec![0.0f32; n * k];
        matmul_a_bt_into(&data, &got.centroids, &mut scores, n, dim, k);
        let half_norm: Vec<f32> = got
            .centroids
            .chunks(dim)
            .map(|c| 0.5 * c.iter().fold(0.0f32, |acc, &v| acc + v * v))
            .collect();
        for (row, &assigned) in got.assignments.iter().enumerate() {
            let mut best = (0usize, f32::INFINITY);
            for (c, (&h, &s)) in half_norm.iter().zip(&scores[row * k..(row + 1) * k]).enumerate() {
                if h - s < best.1 {
                    best = (c, h - s);
                }
            }
            assert_eq!(assigned as usize, best.0, "row {row}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = rows(300, 6, 11);
        let a = cluster_rows(&data, 300, 6, &KmeansConfig { seed: 1, ..KmeansConfig::default() });
        let b = cluster_rows(&data, 300, 6, &KmeansConfig { seed: 2, ..KmeansConfig::default() });
        assert_ne!(a.assignments, b.assignments, "seeds must steer the init");
    }

    #[test]
    fn separated_blobs_are_recovered() {
        // Three far-apart blobs; k-means must put each in its own cluster.
        let dim = 4;
        let mut data = Vec::new();
        for blob in 0..3 {
            let center = blob as f32 * 50.0;
            let mut s = 100 + blob as u64;
            for _ in 0..40 {
                for _ in 0..dim {
                    data.push(center + (splitmix64(&mut s) % 100) as f32 / 100.0);
                }
            }
        }
        let got =
            cluster_rows(&data, 120, dim, &KmeansConfig { num_clusters: 3, iters: 8, train_sample: 0, seed: 9 });
        for blob in 0..3 {
            let first = got.assignments[blob * 40];
            for i in 0..40 {
                assert_eq!(got.assignments[blob * 40 + i], first, "blob {blob} split");
            }
        }
        let distinct: std::collections::HashSet<u32> = got.assignments.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn clamps_cluster_count_to_rows() {
        let data = rows(5, 3, 1);
        let got = cluster_rows(&data, 5, 3, &KmeansConfig { num_clusters: 64, ..KmeansConfig::default() });
        assert_eq!(got.num_clusters, 5);
        assert!(got.assignments.iter().all(|&c| (c as usize) < 5));
    }

    #[test]
    fn sampling_still_assigns_every_row() {
        let data = rows(1000, 5, 13);
        let cfg = KmeansConfig { num_clusters: 8, iters: 3, train_sample: 64, seed: 21 };
        let got = cluster_rows(&data, 1000, 5, &cfg);
        assert_eq!(got.assignments.len(), 1000);
        assert!(got.assignments.iter().all(|&c| (c as usize) < got.num_clusters));
    }

    #[test]
    #[should_panic(expected = "n * dim")]
    fn rejects_bad_lengths() {
        cluster_rows(&[0.0; 7], 2, 4, &KmeansConfig::default());
    }
}
