//! Clustered maximum-inner-product retrieval over the prediction head
//! (DESIGN.md §12).
//!
//! The dense `(b, d) × (d, N)` prediction matmul dominates inference as
//! the catalog grows; at N = 10⁶ it *is* the budget. Softmax is
//! rank-monotonic, so serving only needs top-k set fidelity over raw
//! logits — which a two-stage index delivers:
//!
//! 1. **Coarse stage**: score the query against `num_clusters` k-means
//!    centroids ([`vsan_tensor::cluster`]) of the item vectors and pick
//!    the top `nprobe` clusters;
//! 2. **Exact re-rank**: score every item in the probed clusters with the
//!    same ascending-k fold the exact path uses, and select top-k with
//!    the same `(score desc, id asc)` heap
//!    ([`vsan_eval::top_n_excluding_pairs`]).
//!
//! Survivor scores are **bit-identical** to the exact path's logits: in
//! tied mode both are `matmul_a_bt` folds over the same item rows; in
//! untied mode the index stores `[W[:, j] ; b_j]` and augments the query
//! with a trailing `1.0`, so the fold ends with `… + 1.0·b_j`, the same
//! IEEE sequence as the exact path's matmul-then-`add_bias_rows`. With
//! `nprobe = num_clusters` every item is a candidate, so the result
//! equals exact top-k bit-for-bit and in order — the property the
//! differential suite in `tests/retrieval.rs` enforces. Smaller `nprobe`
//! trades recall for speed; the `retrieval_100k` workload of
//! `benchmark/` checks recall@50 ≥ 0.9 against the exact oracle on
//! every run.
//!
//! Exact brute-force scoring stays deployable through configuration:
//! [`Retrieval::Exact`] (the default) builds no index, and
//! [`crate::Vsan::try_recommend_batch`] serves exact whenever no index is
//! built. `Vsan::recommend_batch_exact` is the oracle tests call by name.

use std::collections::HashSet;

use vsan_tensor::cluster::{cluster_rows, KmeansConfig};
use vsan_tensor::ops::matmul_a_bt_into;

/// How [`crate::Vsan::recommend_batch`] retrieves top-k items.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Retrieval {
    /// Brute-force scoring of the full vocabulary — the oracle.
    #[default]
    Exact,
    /// Two-stage clustered MIPS with exact re-rank of survivors.
    Clustered(ClusteredConfig),
}

/// Knobs for the clustered index. `0` means "derive from the catalog
/// size" for the two query-shape knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredConfig {
    /// Centroid count; `0` → `ceil(sqrt(N))`.
    pub num_clusters: usize,
    /// Clusters visited per query; `0` → `max(4, num_clusters / 10)`.
    /// Clamped to `num_clusters`. The query also keeps probing past this
    /// floor until it has at least `k + |exclude|` candidates, so result
    /// *length* always matches the exact path (only ranking fidelity is
    /// approximate).
    pub nprobe: usize,
    /// Lloyd iterations for the centroid build.
    pub kmeans_iters: usize,
    /// Training-sample cap for the centroid build (`0` = all items).
    pub train_sample: usize,
    /// Seed of the deterministic k-means stream.
    pub seed: u64,
}

impl Default for ClusteredConfig {
    fn default() -> Self {
        ClusteredConfig { num_clusters: 0, nprobe: 0, kmeans_iters: 4, train_sample: 65_536, seed: 0x5EED }
    }
}

impl ClusteredConfig {
    fn resolve(&self, indexed: usize) -> (usize, usize) {
        let nc = if self.num_clusters == 0 {
            (indexed as f64).sqrt().ceil() as usize
        } else {
            self.num_clusters
        }
        .clamp(1, indexed.max(1));
        let np = if self.nprobe == 0 { (nc / 10).max(4) } else { self.nprobe }.clamp(1, nc);
        (nc, np)
    }
}

/// The built index: centroids plus item vectors regrouped by cluster for
/// contiguous re-rank scans.
///
/// Item id 0 (the padding slot) is never indexed; row `i` of the input
/// corresponds to item id `i + 1`. Builds are bit-reproducible from the
/// same parameters and config ([`vsan_tensor::cluster`]'s determinism
/// contract), which `tests/retrieval.rs` asserts across rebuilds and
/// checkpoint restores.
pub struct ItemIndex {
    /// Stored vector width: `d`, or `d + 1` with the bias component.
    dim: usize,
    /// `true` when vectors carry a trailing bias and queries get `1.0`.
    augmented: bool,
    num_clusters: usize,
    nprobe: usize,
    /// `(num_clusters, dim)` centroids.
    centroids: Vec<f32>,
    /// Item vectors regrouped by cluster, `(indexed, dim)`.
    vecs: Vec<f32>,
    /// Item id of each regrouped row.
    ids: Vec<u32>,
    /// Cluster row ranges into `vecs`/`ids`, `num_clusters + 1` entries.
    offsets: Vec<usize>,
    /// Cluster per item, indexed by `item_id - 1`.
    assignments: Vec<u32>,
    indexed: usize,
}

impl ItemIndex {
    /// Index a tied prediction head: item vectors are the embedding-table
    /// rows themselves (ids `1..vocab`; the id-0 padding row is skipped).
    pub fn from_tied(table: &[f32], d: usize, vocab: usize, cfg: &ClusteredConfig) -> Self {
        assert!(vocab >= 2, "need at least one real item besides padding");
        assert_eq!(table.len(), vocab * d, "table must be (vocab, d)");
        let vectors = table[d..vocab * d].to_vec();
        Self::build(vectors, d, vocab - 1, false, cfg)
    }

    /// Index an untied prediction head `logits = h·W + b` with `W` of
    /// shape `(d, vocab)` row-major: item `j`'s vector is
    /// `[W[0][j], …, W[d-1][j], b[j]]` and queries append `1.0`, so the
    /// re-rank fold reproduces the exact path's matmul + bias add
    /// bit-for-bit (`1.0·b == b` and the addition order is unchanged).
    pub fn from_untied(w: &[f32], bias: &[f32], d: usize, vocab: usize, cfg: &ClusteredConfig) -> Self {
        assert!(vocab >= 2, "need at least one real item besides padding");
        assert_eq!(w.len(), d * vocab, "W must be (d, vocab)");
        assert_eq!(bias.len(), vocab, "bias must be (vocab,)");
        let dim = d + 1;
        let mut vectors = vec![0.0f32; (vocab - 1) * dim];
        for j in 1..vocab {
            let row = &mut vectors[(j - 1) * dim..j * dim];
            for (k, slot) in row[..d].iter_mut().enumerate() {
                *slot = w[k * vocab + j];
            }
            row[d] = bias[j];
        }
        Self::build(vectors, dim, vocab - 1, true, cfg)
    }

    fn build(vectors: Vec<f32>, dim: usize, indexed: usize, augmented: bool, cfg: &ClusteredConfig) -> Self {
        let (num_clusters, nprobe) = cfg.resolve(indexed);
        let km = KmeansConfig {
            num_clusters,
            iters: cfg.kmeans_iters,
            train_sample: cfg.train_sample,
            seed: cfg.seed,
        };
        let clustering = cluster_rows(&vectors, indexed, dim, &km);
        let num_clusters = clustering.num_clusters;

        // Regroup rows by cluster, ascending item id within each cluster
        // (counting sort over an ascending scan is stable), so the
        // re-rank scan feeds `top_n_excluding_pairs` contiguously.
        let mut counts = vec![0usize; num_clusters];
        for &c in &clustering.assignments {
            counts[c as usize] += 1;
        }
        let mut offsets = vec![0usize; num_clusters + 1];
        for c in 0..num_clusters {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut cursor = offsets[..num_clusters].to_vec();
        let mut vecs = vec![0.0f32; indexed * dim];
        let mut ids = vec![0u32; indexed];
        for (row, &c) in clustering.assignments.iter().enumerate() {
            let slot = cursor[c as usize];
            cursor[c as usize] += 1;
            vecs[slot * dim..(slot + 1) * dim].copy_from_slice(&vectors[row * dim..(row + 1) * dim]);
            ids[slot] = (row + 1) as u32;
        }
        ItemIndex {
            dim,
            augmented,
            num_clusters,
            nprobe: nprobe.min(num_clusters),
            centroids: clustering.centroids,
            vecs,
            ids,
            offsets,
            assignments: clustering.assignments,
            indexed,
        }
    }

    /// Centroid count actually built.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Default clusters visited per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Items in the index (`vocab - 1`; padding is never indexed).
    pub fn indexed_items(&self) -> usize {
        self.indexed
    }

    /// Cluster assignment per item, indexed by `item_id - 1` — exposed so
    /// rebuild-determinism tests can compare builds directly.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Top-`k` item ids for a `(d,)` hidden row at the index's default
    /// `nprobe`, excluding `exclude` (and always the padding id).
    pub fn query(&self, hidden: &[f32], k: usize, exclude: &HashSet<u32>) -> Vec<u32> {
        self.query_with_probe(hidden, k, exclude, self.nprobe)
    }

    /// [`Self::query`] with an explicit probe width. `nprobe >=
    /// num_clusters` visits everything and is therefore bit-identical, in
    /// order, to exact top-k — the oracle anchor of the differential
    /// suite. The probed-cluster list under `(score desc, id asc)` is a
    /// prefix of the list for any larger probe width, so the candidate
    /// set — and hence recall against exact — is monotone in `nprobe`.
    pub fn query_with_probe(
        &self,
        hidden: &[f32],
        k: usize,
        exclude: &HashSet<u32>,
        nprobe: usize,
    ) -> Vec<u32> {
        self.query_with_probe_stats(hidden, k, exclude, nprobe).0
    }

    /// [`Self::query_with_probe`] plus per-query [`QueryStats`] — the
    /// probe telemetry the serving layer records. The stats are derived
    /// from values the query computes anyway (loop trip count, candidate
    /// length) and never influence the result, so the ranked ids are
    /// bit-identical to the stats-free entry points.
    pub fn query_with_probe_stats(
        &self,
        hidden: &[f32],
        k: usize,
        exclude: &HashSet<u32>,
        nprobe: usize,
    ) -> (Vec<u32>, QueryStats) {
        let d = self.dim - usize::from(self.augmented);
        assert_eq!(hidden.len(), d, "query width must match the model dim");
        if k == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let mut q = Vec::with_capacity(self.dim);
        q.extend_from_slice(hidden);
        if self.augmented {
            q.push(1.0);
        }

        // Coarse stage: inner product against every centroid.
        let mut cscores = vec![0.0f32; self.num_clusters];
        matmul_a_bt_into(&q, &self.centroids, &mut cscores, 1, self.dim, self.num_clusters);
        let mut order: Vec<usize> = (0..self.num_clusters).collect();
        order.sort_by(|&a, &b| {
            cscores[b]
                .partial_cmp(&cscores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });

        // Visit clusters until the probe budget is spent AND enough
        // candidates exist to fill k even if every excluded id were among
        // them — so result length always matches the exact path.
        let nprobe = nprobe.clamp(1, self.num_clusters);
        let need = k.saturating_add(exclude.len());
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        let mut scores: Vec<f32> = Vec::new();
        let mut probed = 0usize;
        for (visited, &c) in order.iter().enumerate() {
            if visited >= nprobe && pairs.len() >= need {
                break;
            }
            probed += 1;
            let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
            let cnt = hi - lo;
            if cnt == 0 {
                continue;
            }
            scores.resize(cnt, 0.0);
            matmul_a_bt_into(
                &q,
                &self.vecs[lo * self.dim..hi * self.dim],
                &mut scores[..cnt],
                1,
                self.dim,
                cnt,
            );
            pairs.extend(self.ids[lo..hi].iter().zip(&scores[..cnt]).map(|(&id, &s)| (id, s)));
        }
        let stats = QueryStats { probed_clusters: probed, survivors: pairs.len() };
        (vsan_eval::top_n_excluding_pairs(pairs, k, exclude), stats)
    }
}

/// Per-query probe telemetry from the clustered index: how wide the
/// coarse stage went and how many candidates survived into the exact
/// re-rank. Pure observation — derived from the query's own loop
/// bookkeeping, never fed back into retrieval decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Clusters whose members were considered (includes empty clusters
    /// the probe loop visited; ≥ `nprobe` only when the candidate floor
    /// forced extra probes).
    pub probed_clusters: usize,
    /// Candidate pairs that entered the exact re-rank heap (before
    /// top-k selection and exclusion filtering).
    pub survivors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsan_tensor::cluster::splitmix64;

    fn table(vocab: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        let mut t: Vec<f32> =
            (0..vocab * d).map(|_| (splitmix64(&mut s) % 2000) as f32 / 1000.0 - 1.0).collect();
        t[..d].fill(0.0); // padding row
        t
    }

    fn exact_top_k(table: &[f32], q: &[f32], d: usize, vocab: usize, k: usize) -> Vec<u32> {
        let mut logits = vec![0.0f32; vocab];
        matmul_a_bt_into(q, table, &mut logits, 1, d, vocab);
        vsan_eval::top_n_excluding(&logits, k, &HashSet::new())
    }

    #[test]
    fn full_probe_equals_exact_bitwise() {
        let (vocab, d) = (97, 6);
        let t = table(vocab, d, 5);
        let idx = ItemIndex::from_tied(&t, d, vocab, &ClusteredConfig {
            num_clusters: 9,
            ..ClusteredConfig::default()
        });
        let mut s = 77u64;
        for _ in 0..10 {
            let q: Vec<f32> =
                (0..d).map(|_| (splitmix64(&mut s) % 1000) as f32 / 500.0 - 1.0).collect();
            let exact = exact_top_k(&t, &q, d, vocab, 10);
            let clustered = idx.query_with_probe(&q, 10, &HashSet::new(), idx.num_clusters());
            assert_eq!(clustered, exact);
        }
    }

    #[test]
    fn untied_bias_fold_matches_matmul_plus_bias() {
        let (vocab, d) = (41, 5);
        let mut s = 9u64;
        let w: Vec<f32> =
            (0..d * vocab).map(|_| (splitmix64(&mut s) % 1000) as f32 / 500.0 - 1.0).collect();
        let bias: Vec<f32> =
            (0..vocab).map(|_| (splitmix64(&mut s) % 1000) as f32 / 500.0 - 1.0).collect();
        let idx = ItemIndex::from_untied(&w, &bias, d, vocab, &ClusteredConfig {
            num_clusters: 4,
            ..ClusteredConfig::default()
        });
        let q: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.7).collect();
        // Exact: h·W then += bias, per the fast path's projection.
        let mut logits = vec![0.0f32; vocab];
        vsan_tensor::parallel::matmul_into_parallel(&q, &w, &mut logits, 1, d, vocab, 1);
        for (l, &b) in logits.iter_mut().zip(&bias) {
            *l += b;
        }
        let exact = vsan_eval::top_n_excluding(&logits, 7, &HashSet::new());
        let clustered = idx.query_with_probe(&q, 7, &HashSet::new(), idx.num_clusters());
        assert_eq!(clustered, exact);
    }

    #[test]
    fn result_length_matches_exact_even_with_small_probe() {
        let (vocab, d) = (33, 4);
        let t = table(vocab, d, 3);
        let idx = ItemIndex::from_tied(&t, d, vocab, &ClusteredConfig {
            num_clusters: 8,
            nprobe: 1,
            ..ClusteredConfig::default()
        });
        let q = vec![0.5f32; d];
        // k beyond the catalog: everything comes back.
        let got = idx.query(&q, 100, &HashSet::new());
        assert_eq!(got.len(), vocab - 1);
        // Exclusions don't shrink the answer below what exact returns.
        let exclude: HashSet<u32> = (1..=10).collect();
        assert_eq!(idx.query(&q, 25, &exclude).len(), vocab - 1 - 10);
    }

    #[test]
    fn auto_knobs_scale_with_catalog() {
        let cfg = ClusteredConfig::default();
        assert_eq!(cfg.resolve(10_000), (100, 10));
        let (nc, np) = cfg.resolve(9);
        assert_eq!(nc, 3);
        assert_eq!(np, 3); // max(4, …) clamped to num_clusters
        for indexed in [0, 1, 2, 2_000, 100_000, 1_000_000] {
            let (nc, np) = cfg.resolve(indexed);
            assert!(1 <= np && np <= nc && nc <= indexed.max(1), "{indexed}: ({nc}, {np})");
        }
    }

    #[test]
    fn rebuilds_are_bit_identical() {
        let (vocab, d) = (120, 7);
        let t = table(vocab, d, 21);
        let cfg = ClusteredConfig { num_clusters: 10, ..ClusteredConfig::default() };
        let a = ItemIndex::from_tied(&t, d, vocab, &cfg);
        let b = ItemIndex::from_tied(&t, d, vocab, &cfg);
        assert_eq!(a.assignments(), b.assignments());
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let q = vec![0.1f32; d];
        assert_eq!(a.query(&q, 12, &HashSet::new()), b.query(&q, 12, &HashSet::new()));
    }
}
