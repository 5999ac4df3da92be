//! Clustered maximum-inner-product retrieval over the prediction head
//! (DESIGN.md §12).
//!
//! The dense `(b, d) × (d, N)` prediction matmul dominates inference as
//! the catalog grows; at N = 10⁶ it *is* the budget. Softmax is
//! rank-monotonic, so serving only needs top-k set fidelity over raw
//! logits — which a two-stage index delivers:
//!
//! 1. **Coarse stage**: score the query against `num_clusters` k-means
//!    centroids ([`vsan_tensor::cluster`]), one tiled product over their
//!    k-major panel, and order the clusters by that score with one sort
//!    over `u64` keys (score desc, cluster id asc, NaN last);
//! 2. **Walk**: visit clusters in that order and score every member of a
//!    visited cluster with the same ascending-k fold the exact path uses.
//!    Once `k` finite candidates are held, cluster `c` is skipped when its
//!    bound `q·c + slack·‖q‖·r_c` is below the running k-th score, where
//!    `r_c` is the cluster's radius (`max ‖x − c‖`, rounded up by the
//!    folds' rounding margin). Select top-k with the same
//!    `(score desc, id asc)` heap ([`vsan_eval::top_n_excluding_pairs`]).
//!
//! Survivor scores are **bit-identical** to the exact path's logits:
//! each is one scalar fold over `k` in ascending order, from `+0.0`,
//! without FMA. The exact head folds the query against item rows
//! (`matmul_a_bt_into`); the index stores each cluster as a k-major
//! `(dim, cnt)` panel and scores it with the tiled
//! [`vsan_tensor::ops::matmul::matmul_into`], lanes across items — a
//! lane is a different item, so every item's fold is untouched. In
//! untied mode the index stores `[W[:, j] ; b_j]` and augments the query
//! with a trailing `1.0`, so the fold ends with `… + 1.0·b_j`, the same
//! IEEE sequence as the exact path's matmul-then-`add_bias_rows`.
//!
//! Two settings are exact, bit for bit and in order:
//!
//! * **`nprobe = num_clusters`** in [`ItemIndex::query_with_probe`]
//!   visits every cluster, so every item is a candidate — the anchor the
//!   differential suite in `tests/retrieval.rs` and the `retrieval_100k`
//!   workload of `benchmark/` hold to the exact oracle.
//! * **`slack = 1`**: by Cauchy–Schwarz every member `x` of `c` has
//!   `q·x ≤ q·c + ‖q‖·‖x − c‖`, and the margin folded into `r_c` covers
//!   the rounding of both folds, so a skipped cluster holds no item that
//!   could rank. Every query reports this as [`QueryStats::certified`]:
//!   the slack-1 bound of every skipped cluster is below the final k-th
//!   score. A certified reply equals the exact top-k at any slack.
//!
//! Smaller slack trades recall for speed; the default 0.35 visits ≈ 7 of
//! 317 clusters on `retrieval_100k` at recall@50 ≈ 0.999, and the
//! workload checks recall@50 ≥ 0.9 against the exact oracle on every
//! run. Nothing is skipped before `k` rankable candidates are held, so a
//! reply is never shorter than the exact one, and a cluster holding a
//! non-finite row has a non-finite radius and is always visited.
//!
//! The history is excluded by position, not by a set lookup per
//! candidate: an indexed item sits in exactly one slot (its cluster's
//! ascending `ids`), so dropping those slots before selection leaves the
//! candidate set the set test would have kept, and selection is a pure
//! function of that set.
//!
//! Exact brute-force scoring stays deployable through configuration:
//! [`Retrieval::Exact`] (the default) builds no index, and
//! [`crate::Vsan::try_recommend_batch`] serves exact whenever no index is
//! built. `Vsan::recommend_batch_exact` is the oracle tests call by name.

use std::collections::HashSet;

use vsan_tensor::cluster::{cluster_rows, KmeansConfig};
use vsan_tensor::ops::matmul::{matmul_into, transpose_into};

/// How [`crate::Vsan::try_recommend_batch`] retrieves top-k items.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Retrieval {
    /// Brute-force scoring of the full vocabulary — the oracle.
    #[default]
    Exact,
    /// Two-stage clustered MIPS with exact re-rank of survivors.
    Clustered(ClusteredConfig),
}

/// Knobs for the clustered index.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredConfig {
    /// Centroid count; `0` → `ceil(sqrt(N))`.
    pub num_clusters: usize,
    /// Share `α` of each cluster's radius the walk's bound
    /// `q·c + α·‖q‖·r_c` counts (non-negative). `1` is exact and certifies
    /// every reply; `f32::INFINITY` visits every cluster; smaller values
    /// skip more clusters at some recall. Whatever the value, a query
    /// skips nothing until it holds `k` rankable candidates, so result
    /// *length* always matches the exact path.
    pub slack: f32,
    /// Lloyd iterations for the centroid build.
    pub kmeans_iters: usize,
    /// Training-sample cap for the centroid build (`0` = all items).
    pub train_sample: usize,
    /// Seed of the deterministic k-means stream.
    pub seed: u64,
}

impl Default for ClusteredConfig {
    fn default() -> Self {
        ClusteredConfig { num_clusters: 0, slack: 0.35, kmeans_iters: 4, train_sample: 65_536, seed: 0x5EED }
    }
}

impl ClusteredConfig {
    fn resolve(&self, indexed: usize) -> usize {
        if self.num_clusters == 0 {
            (indexed as f64).sqrt().ceil() as usize
        } else {
            self.num_clusters
        }
        .clamp(1, indexed.max(1))
    }
}

/// The built index: centroids and radii plus item vectors regrouped by
/// cluster, each cluster a contiguous k-major panel for the tiled
/// re-rank.
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
    slack: f32,
    /// Centroids as one k-major `(dim, num_clusters)` panel: component
    /// `t` of centroid `c` at `t * num_clusters + c`.
    centroids: Vec<f32>,
    /// Per cluster, `max ‖x − c‖` over its members rounded up by
    /// `margin`; non-finite when a member or the centroid is.
    radii: Vec<f32>,
    /// Item vectors regrouped by cluster: cluster `c`'s `cnt` members
    /// form a `(dim, cnt)` panel at `offsets[c] * dim`, component `t` of
    /// the member in slot `s` at `t * cnt + s`.
    panels: Vec<f32>,
    /// Item id of each slot, ascending within a cluster.
    ids: Vec<u32>,
    /// Cluster slot ranges into `ids` (and, times `dim`, into `panels`),
    /// `num_clusters + 1` entries.
    offsets: Vec<usize>,
    /// Cluster per item, indexed by `item_id - 1`.
    assignments: Vec<u32>,
}

impl ItemIndex {
    /// Index a tied prediction head: item vectors are the embedding-table
    /// rows themselves (ids `1..vocab`; the id-0 padding row is skipped),
    /// read in place.
    pub fn from_tied(table: &[f32], d: usize, vocab: usize, cfg: &ClusteredConfig) -> Self {
        assert!(vocab >= 2, "need at least one real item besides padding");
        assert_eq!(table.len(), vocab * d, "table must be (vocab, d)");
        Self::build(&table[d..], d, vocab - 1, false, cfg)
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
        Self::build(&vectors, dim, vocab - 1, true, cfg)
    }

    fn build(vectors: &[f32], dim: usize, indexed: usize, augmented: bool, cfg: &ClusteredConfig) -> Self {
        assert!(cfg.slack >= 0.0, "slack must be a non-negative number, got {}", cfg.slack);
        let km = KmeansConfig {
            num_clusters: cfg.resolve(indexed),
            iters: cfg.kmeans_iters,
            train_sample: cfg.train_sample,
            seed: cfg.seed,
        };
        let clustering = cluster_rows(vectors, indexed, dim, &km);
        let num_clusters = clustering.num_clusters;
        let centroid = |c: usize| &clustering.centroids[c * dim..(c + 1) * dim];

        // Regroup rows by cluster, ascending item id within each cluster
        // (counting sort over an ascending scan is stable), each row
        // written straight into its column of the cluster's panel; the
        // same scan takes each cluster's radius.
        let mut counts = vec![0usize; num_clusters];
        for &c in &clustering.assignments {
            counts[c as usize] += 1;
        }
        let mut offsets = vec![0usize; num_clusters + 1];
        for c in 0..num_clusters {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut cursor = offsets[..num_clusters].to_vec();
        let mut panels = vec![0.0f32; indexed * dim];
        let mut ids = vec![0u32; indexed];
        let mut radii = vec![0.0f32; num_clusters];
        for (row, &c) in clustering.assignments.iter().enumerate() {
            let c = c as usize;
            let (lo, cnt) = (offsets[c], counts[c]);
            let slot = cursor[c];
            cursor[c] += 1;
            let x = &vectors[row * dim..(row + 1) * dim];
            let panel = &mut panels[lo * dim..(lo + cnt) * dim];
            for (t, &v) in x.iter().enumerate() {
                panel[t * cnt + slot - lo] = v;
            }
            ids[slot] = (row + 1) as u32;
            radii[c] = radii[c].max(distance(x, centroid(c)));
        }
        for (c, r) in radii.iter_mut().enumerate() {
            *r = margin(*r, norm(centroid(c)), dim);
        }
        let mut centroids = vec![0.0f32; num_clusters * dim];
        transpose_into(&clustering.centroids, &mut centroids, num_clusters, dim);
        ItemIndex {
            dim,
            augmented,
            num_clusters,
            slack: cfg.slack,
            centroids,
            radii,
            panels,
            ids,
            offsets,
            assignments: clustering.assignments,
        }
    }

    /// Centroid count actually built.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Cluster assignment per item, indexed by `item_id - 1` — exposed so
    /// rebuild-determinism tests can compare builds directly.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Top-`k` item ids for a `(d,)` hidden row, walked by the bound at
    /// the index's slack, excluding `exclude` (and always the padding id).
    pub fn query(&self, hidden: &[f32], k: usize, exclude: &HashSet<u32>) -> Vec<u32> {
        self.query_with_probe(hidden, k, exclude, 0)
    }

    /// [`Self::query`] that visits its first `nprobe` clusters in
    /// centroid order unconditionally before the bound may skip any.
    /// `nprobe >= num_clusters` visits everything and is therefore
    /// bit-identical, in order, to exact top-k — the oracle anchor of the
    /// differential suite and the benchmark.
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
    /// from values the walk computes anyway and never influence the
    /// result, so the ranked ids are bit-identical to the stats-free
    /// entry points.
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
            return (Vec::new(), QueryStats { certified: true, ..QueryStats::default() });
        }
        let mut q = Vec::with_capacity(self.dim);
        q.extend_from_slice(hidden);
        if self.augmented {
            q.push(1.0);
        }
        let cscores = self.coarse_scores(&q);
        let q_norm = norm(&q);

        // The history's slots, ascending: an indexed item's cluster is its
        // assignment and its slot a binary search in that cluster's
        // ascending ids. Padding and ids past the catalog have no slot.
        let mut excluded: Vec<usize> = exclude
            .iter()
            .filter_map(|&id| {
                let c = *self.assignments.get((id as usize).checked_sub(1)?)? as usize;
                let lo = self.offsets[c];
                let at = self.ids[lo..self.offsets[c + 1]].binary_search(&id);
                Some(lo + at.expect("an indexed item sits in its cluster's ids"))
            })
            .collect();
        excluded.sort_unstable();

        // The walk. `pairs` holds the visited finite candidates at or
        // above `kth`, the running k-th finite score once `k` are held
        // (−inf before): a pair below it can never rank, so the one
        // selection at the end returns what it would over every visited
        // item. `skipped` is the largest slack-1 bound of a skipped
        // cluster, for the certificate.
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        let (mut kth, mut skipped) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
        let (mut probed, mut survivors) = (0usize, 0usize);
        let (mut scores, mut scratch) = (Vec::new(), Vec::new());
        for (visited, c) in coarse_order(&cscores).into_iter().enumerate() {
            if visited >= nprobe && pairs.len() >= k {
                // A non-finite radius makes the bound +inf or NaN, and
                // neither is below `kth`.
                let reach = q_norm * self.radii[c];
                if cscores[c] + self.slack * reach < kth {
                    skipped = skipped.max(cscores[c] + reach);
                    continue;
                }
            }
            let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
            probed += 1;
            survivors += hi - lo;
            self.score_cluster(&q, c, &mut scores);
            let mut start = lo;
            let in_block = excluded.partition_point(|&s| s < lo)..excluded.partition_point(|&s| s < hi);
            for &end in excluded[in_block].iter().chain([&hi]) {
                let members = self.ids[start..end].iter().zip(&scores[start - lo..end - lo]);
                pairs.extend(members.filter(|p| p.1.is_finite() && *p.1 >= kth).map(|(&id, &s)| (id, s)));
                start = end + 1;
            }
            if pairs.len() >= k {
                scratch.clear();
                scratch.extend(pairs.iter().map(|p| p.1));
                kth = *scratch.select_nth_unstable_by(k - 1, |a: &f32, b| b.total_cmp(a)).1;
                pairs.retain(|p| p.1 >= kth);
            }
        }
        let stats = QueryStats {
            probed_clusters: probed,
            survivors,
            certified: probed == self.num_clusters || skipped < kth,
        };
        (vsan_eval::top_n_excluding_pairs(pairs, k, &HashSet::new()), stats)
    }

    /// Coarse stage: inner product of `q` (the augmented query) with
    /// every centroid — the tiled `(1, dim) × (dim, nc)` product over the
    /// centroid panel, each score one ascending-`k` fold from `+0.0`.
    fn coarse_scores(&self, q: &[f32]) -> Vec<f32> {
        let mut cscores = vec![0.0f32; self.num_clusters];
        matmul_into(q, &self.centroids, &mut cscores, 1, self.dim, self.num_clusters);
        cscores
    }

    /// Clusters in walk order for an (augmented) query `q`.
    #[cfg(test)]
    fn probe_order(&self, q: &[f32]) -> Vec<usize> {
        coarse_order(&self.coarse_scores(q))
    }

    /// Scores of cluster `c`'s members, by slot, into `out` (resized to
    /// the cluster's size): the tiled `(1, dim) × (dim, cnt)` product over
    /// the cluster's panel. The kernel accumulates, so `out` is zeroed
    /// first; each score is then one ascending-`k` fold from `+0.0`, the
    /// exact head's fold for that item.
    fn score_cluster(&self, q: &[f32], c: usize, out: &mut Vec<f32>) {
        let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
        out.clear();
        out.resize(hi - lo, 0.0);
        matmul_into(q, &self.panels[lo * self.dim..hi * self.dim], out, 1, self.dim, hi - lo);
    }
}

/// Cluster ids by descending score, ties to the lower id, NaN last — one
/// `sort_unstable` over `u64` keys: the score's descending total-order
/// image in the high half (−0.0 folded into +0.0, every NaN at
/// `u32::MAX`), the cluster id in the low half. Keys are distinct, so the
/// unstable sort is deterministic.
fn coarse_order(scores: &[f32]) -> Vec<usize> {
    let mut keys: Vec<u64> = scores
        .iter()
        .enumerate()
        .map(|(c, &s)| {
            let bits = if s == 0.0 { 0 } else { s.to_bits() };
            // Ascending image: negatives reversed below the positives.
            let ascending = if bits >> 31 == 1 { !bits } else { bits | 1 << 31 };
            let high = if s.is_nan() { u32::MAX } else { !ascending };
            u64::from(high) << 32 | c as u64
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| key as u32 as usize).collect()
}

/// `sqrt(Σ v²)`, one ascending fold from `+0.0`.
fn norm(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |acc, &x| acc + x * x).sqrt()
}

/// `‖x − c‖`, or `+inf` when it is not finite (NaN included, so that
/// `f32::max` keeps it).
fn distance(x: &[f32], c: &[f32]) -> f32 {
    let d2 = x.iter().zip(c).fold(0.0f32, |acc, (&a, &b)| acc + (a - b) * (a - b));
    if d2.is_finite() {
        d2.sqrt()
    } else {
        f32::INFINITY
    }
}

/// A computed radius `r` rounded up so that `q·c + ‖q‖·margin(r)`,
/// evaluated in f32, bounds every member's computed score: the two dot
/// folds, the norms and the bound's own two operations round by at most
/// `(3·dim + 12)` unit roundoffs of `‖q‖·(‖c‖ + r)`, and this adds
/// `4·(dim + 4)` ulps (twice that) of it. Holds outside the subnormal
/// range.
fn margin(r: f32, centroid_norm: f32, dim: usize) -> f32 {
    r + 4.0 * (dim + 4) as f32 * f32::EPSILON * (centroid_norm + r)
}

/// Per-query probe telemetry from the clustered index: how many clusters
/// the walk visited, how many items it scored, and whether the reply is
/// provably exact. Pure observation — derived from the walk's own
/// bookkeeping, never fed back into retrieval decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Clusters whose members were scored (empty clusters the walk
    /// visited included).
    pub probed_clusters: usize,
    /// Items scored by the exact re-rank: every member of every visited
    /// cluster, history slots included.
    pub survivors: usize,
    /// The slack-1 bound of every skipped cluster is below the final k-th
    /// score, so no skipped item could rank: the reply equals the exact
    /// top-k. Always true at slack ≥ 1, and when every cluster was
    /// visited.
    pub certified: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vsan_tensor::cluster::splitmix64;
    use vsan_tensor::ops::matmul::reference;

    fn table(vocab: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        let mut t: Vec<f32> =
            (0..vocab * d).map(|_| (splitmix64(&mut s) % 2000) as f32 / 1000.0 - 1.0).collect();
        t[..d].fill(0.0); // padding row
        t
    }

    fn exact_top_k(table: &[f32], q: &[f32], d: usize, vocab: usize, k: usize) -> Vec<u32> {
        let mut logits = vec![0.0f32; vocab];
        vsan_tensor::ops::matmul::matmul_a_bt_into(q, table, &mut logits, 1, d, vocab);
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
            slack: 0.0,
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
        assert_eq!(cfg.resolve(10_000), 100);
        assert_eq!(cfg.slack, 0.35);
        assert_eq!(cfg.resolve(9), 3);
        for indexed in [0, 1, 2, 2_000, 100_000, 1_000_000] {
            let nc = cfg.resolve(indexed);
            assert!(1 <= nc && nc <= indexed.max(1), "{indexed}: {nc}");
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
        for (x, y) in a.centroids.iter().chain(&a.radii).zip(b.centroids.iter().chain(&b.radii)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let q = vec![0.1f32; d];
        assert_eq!(a.query(&q, 12, &HashSet::new()), b.query(&q, 12, &HashSet::new()));
    }

    /// The comparator the coarse order replaced: descending score, a NaN
    /// after every number, ties (−0.0 = +0.0 included) to the lower id.
    fn comparator_order(scores: &[f32]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (scores[a], scores[b]);
            sb.partial_cmp(&sa)
                .unwrap_or_else(|| sa.is_nan().cmp(&sb.is_nan()))
                .then_with(|| a.cmp(&b))
        });
        order
    }

    #[test]
    fn coarse_order_keys_match_the_comparator() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ];
        let mut s = 3u64;
        for len in [0, 1, 2, 7, 40, 317] {
            for round in 0..20 {
                let scores: Vec<f32> = (0..len)
                    .map(|_| match splitmix64(&mut s) % 4 {
                        // Exact ties from a small pool, specials, and
                        // arbitrary finite values.
                        0 => (splitmix64(&mut s) % 5) as f32 - 2.0,
                        1 => specials[(splitmix64(&mut s) % specials.len() as u64) as usize],
                        _ if round % 2 == 0 => f32::from_bits(splitmix64(&mut s) as u32),
                        _ => (splitmix64(&mut s) % 2000) as f32 / 1000.0 - 1.0,
                    })
                    .collect();
                assert_eq!(coarse_order(&scores), comparator_order(&scores), "{scores:?}");
            }
        }
    }

    /// `(num_clusters, dim)` row-major centroids, read back off the panel.
    fn row_major_centroids(idx: &ItemIndex) -> Vec<f32> {
        let mut rows = vec![0.0f32; idx.num_clusters * idx.dim];
        transpose_into(&idx.centroids, &mut rows, idx.dim, idx.num_clusters);
        rows
    }

    /// The walk written out against the reference kernels: centroid
    /// scores by `reference::matmul_a_bt_into` over row-major centroids,
    /// the comparator order, radii recomputed from `vectors` (item `id` at
    /// row `id - 1`), members scored row-major by the reference fold,
    /// every visited finite non-history score kept, the running k-th
    /// score taken by a full sort, and the history excluded by the shared
    /// heap's `HashSet` test.
    fn reference_query(
        idx: &ItemIndex,
        vectors: &[f32],
        q: &[f32],
        k: usize,
        exclude: &HashSet<u32>,
        nprobe: usize,
    ) -> (Vec<u32>, QueryStats) {
        let (nc, dim) = (idx.num_clusters, idx.dim);
        let centroids = row_major_centroids(idx);
        let mut cscores = vec![0.0f32; nc];
        reference::matmul_a_bt_into(q, &centroids, &mut cscores, 1, dim, nc);
        let q_norm = q.iter().fold(0.0f32, |acc, &v| acc + v * v).sqrt();
        let row = |id: u32| &vectors[(id as usize - 1) * dim..][..dim];

        let mut kept: Vec<f32> = Vec::new();
        let kth = |kept: &[f32]| {
            let mut sorted = kept.to_vec();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            sorted.get(k - 1).copied()
        };
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        let (mut probed, mut survivors, mut skipped) = (0, 0, Vec::new());
        for (visited, c) in comparator_order(&cscores).into_iter().enumerate() {
            let members = &idx.ids[idx.offsets[c]..idx.offsets[c + 1]];
            let centroid = &centroids[c * dim..(c + 1) * dim];
            let mut r = 0.0f32;
            for &id in members {
                let d2: f32 = row(id).iter().zip(centroid).fold(0.0, |acc, (&x, &y)| acc + (x - y) * (x - y));
                r = r.max(if d2.is_finite() { d2.sqrt() } else { f32::INFINITY });
            }
            let r = margin(r, centroid.iter().fold(0.0f32, |acc, &v| acc + v * v).sqrt(), dim);
            if visited >= nprobe {
                if let Some(t) = kth(&kept) {
                    if cscores[c] + idx.slack * (q_norm * r) < t {
                        skipped.push(cscores[c] + q_norm * r);
                        continue;
                    }
                }
            }
            probed += 1;
            survivors += members.len();
            let rows: Vec<f32> = members.iter().flat_map(|&id| row(id)).copied().collect();
            let mut scores = vec![0.0f32; members.len()];
            reference::matmul_a_bt_into(q, &rows, &mut scores, 1, dim, members.len());
            for (&id, &score) in members.iter().zip(&scores) {
                if !exclude.contains(&id) && score.is_finite() {
                    kept.push(score);
                }
                pairs.push((id, score));
            }
        }
        let t = kth(&kept);
        let certified = skipped.iter().all(|&b| t.is_some_and(|t| b < t));
        let stats = QueryStats { probed_clusters: probed, survivors, certified };
        (vsan_eval::top_n_excluding_pairs(pairs, k, exclude), stats)
    }

    fn uniform(n: usize, s: &mut u64) -> Vec<f32> {
        (0..n).map(|_| (splitmix64(s) % 2000) as f32 / 1000.0 - 1.0).collect()
    }

    /// The walk against its reference, tied and untied: the same ids in
    /// the same order and the same probe telemetry at slack ∈ {0, 0.35,
    /// 1} × `nprobe ∈ {0, nc/3, nc}`, the coarse order equal to the
    /// comparator over reference centroid scores, and every panel score
    /// equal to the row-major reference fold bit for bit. The builds'
    /// cluster sizes cover every `cnt % 16`, so each strip of the tiled
    /// nest's 16/8/4/2/1 cascade scores some cluster's tail.
    #[test]
    fn partial_probes_match_the_row_major_reference_bit_for_bit() {
        let (vocab, d) = (1_201, 7);
        let mut s = 41u64;
        for augmented in [false, true] {
            let mut remainders = BTreeSet::new();
            let mut skipping = 0usize;
            for (num_clusters, seed) in [(40, 1), (60, 2), (25, 3)] {
                let cfg = ClusteredConfig { num_clusters, seed, ..ClusteredConfig::default() };
                let (mut idx, vectors) = if augmented {
                    let w = uniform(d * vocab, &mut s);
                    let bias = uniform(vocab, &mut s);
                    let mut vectors = Vec::with_capacity((vocab - 1) * (d + 1));
                    for j in 1..vocab {
                        vectors.extend((0..d).map(|t| w[t * vocab + j]));
                        vectors.push(bias[j]);
                    }
                    (ItemIndex::from_untied(&w, &bias, d, vocab, &cfg), vectors)
                } else {
                    let t = table(vocab, d, s);
                    s += 1;
                    (ItemIndex::from_tied(&t, d, vocab, &cfg), t[d..].to_vec())
                };
                let nc = idx.num_clusters();
                remainders.extend(idx.offsets.windows(2).map(|w| (w[1] - w[0]) % 16));
                let centroids = row_major_centroids(&idx);

                let mut scores = Vec::new();
                for _ in 0..4 {
                    let hidden = uniform(d, &mut s);
                    let mut q = hidden.clone();
                    if augmented {
                        q.push(1.0);
                    }
                    let mut cscores = vec![0.0f32; nc];
                    reference::matmul_a_bt_into(&q, &centroids, &mut cscores, 1, idx.dim, nc);
                    assert_eq!(idx.probe_order(&q), comparator_order(&cscores));
                    for c in 0..nc {
                        idx.score_cluster(&q, c, &mut scores);
                        for (slot, &got) in (idx.offsets[c]..).zip(&scores) {
                            let row = &vectors[(idx.ids[slot] as usize - 1) * idx.dim..][..idx.dim];
                            let mut want = [0.0f32];
                            reference::matmul_a_bt_into(&q, row, &mut want, 1, idx.dim, 1);
                            assert_eq!(got.to_bits(), want[0].to_bits(), "cluster {c}, slot {slot}");
                        }
                    }
                    let history: HashSet<u32> =
                        (0..30).map(|_| (splitmix64(&mut s) % (vocab as u64 + 4)) as u32).collect();
                    for slack in [0.0, 0.35, 1.0] {
                        idx.slack = slack;
                        for nprobe in [0, nc / 3, nc] {
                            for k in [1, 10, 50] {
                                for exclude in [&HashSet::new(), &history] {
                                    let got = idx.query_with_probe_stats(&hidden, k, exclude, nprobe);
                                    assert_eq!(
                                        got,
                                        reference_query(&idx, &vectors, &q, k, exclude, nprobe),
                                        "augmented {augmented}, {nc} clusters, slack {slack}, \
                                         nprobe {nprobe}, k {k}"
                                    );
                                    skipping += usize::from(got.1.probed_clusters < nc);
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(remainders.len(), 16, "augmented {augmented}: cnt % 16 covered {remainders:?}");
            assert!(skipping > 0, "augmented {augmented}: no query skipped a cluster");
        }
    }

    /// History exclusion by slot over the edge histories, on a tied model
    /// whose table holds one NaN row and one +inf row (their logits never
    /// rank, on either path): padding and duplicate ids, excluded ids only
    /// in unprobed clusters or past the catalog, a probed cluster's first
    /// and last slot, and a history that fills the first cluster so the
    /// walk must go on past it. Full probe and slack 1 equal
    /// `recommend_batch_exact` in order; every probe width returns as many
    /// items as exact — including a `k` that the forced probes hold
    /// exactly, where a non-finite candidate is one short. Both k-means
    /// trainings run: every row (the non-finite rows reach the
    /// centroids) and a 64-row sample.
    #[test]
    fn exclusion_by_slot_matches_exact_over_edge_histories_and_non_finite_rows() {
        use crate::{Vsan, VsanConfig};

        let (vocab, d, nc) = (301, 6, 12);
        let (nan_id, inf_id) = (17usize, 230usize);
        let mut t = table(vocab, d, 8);
        t[nan_id * d..][..d].fill(f32::NAN);
        t[inf_id * d..][..d].fill(f32::INFINITY);
        let mut cfg = VsanConfig::smoke().with_seed(3).with_threads(1);
        cfg.base.dim = d;
        cfg.base.max_seq_len = 6;
        cfg.tie_prediction = true;
        for train_sample in [0, 64] {
            let mut model = Vsan::init(vocab, &cfg);
            let id = model.params_mut().id_of("item_emb").expect("item table");
            model.params_mut().get_mut(id).data_mut().copy_from_slice(&t);
            model.set_retrieval(Retrieval::Clustered(ClusteredConfig {
                num_clusters: nc,
                slack: 1.0,
                kmeans_iters: 4,
                train_sample,
                seed: 5,
            }));

            let histories: Vec<Vec<u32>> = vec![
                vec![0, 0, 5, 5, 7, 0, 5],
                vec![3],
                vec![nan_id as u32, 4],
                vec![9, inf_id as u32],
            ];
            let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();
            assert_eq!(
                model.try_recommend_batch(&refs, 40).expect("clustered path"),
                model.recommend_batch_exact(&refs, 40).expect("exact oracle"),
                "train_sample {train_sample}"
            );

            let idx = model.retrieval_index().expect("index built");
            let size = |c: usize| idx.offsets[c + 1] - idx.offsets[c];
            let members = |c: usize| idx.ids[idx.offsets[c]..idx.offsets[c + 1]].iter().copied();
            for history in [&[2u32, 8, 11][..], &[40, 41]] {
                let hidden = {
                    let mut ws = model.workspace(1);
                    model.try_last_hidden_batch_with(&[history], &mut ws).expect("hidden row")
                };
                let logits = model.try_score_items_batch(&[history]).expect("logits").remove(0);
                // A tied index's query is the hidden row itself.
                let order = idx.probe_order(&hidden);
                let filled: Vec<usize> = order.iter().copied().filter(|&c| size(c) > 0).collect();
                let (first, last) = (filled[0], filled[filled.len() - 1]);
                let (lo, hi) = (idx.offsets[first], idx.offsets[first + 1]);
                let next = filled.get(1).map(|&c| idx.ids[idx.offsets[c]]);
                let floor: HashSet<u32> = members(first).chain(next).collect();
                let edges: HashSet<u32> = [0, idx.ids[lo], idx.ids[hi - 1]].into();
                let unprobed: HashSet<u32> =
                    members(last).chain([vocab as u32, vocab as u32 + 7]).collect();
                let non_finite: HashSet<u32> = [nan_id as u32, inf_id as u32].into();
                // `(nprobe, k)`: the three named widths, `k` past the
                // catalog, and every width with the `k` its planned
                // probes hold exactly.
                let mut cases = vec![(1, 1), (nc / 3, 10), (nc, 25), (1, vocab)];
                let mut held = 0;
                for (p, &c) in order.iter().enumerate() {
                    held += size(c);
                    cases.push((p + 1, held));
                }
                for exclude in [HashSet::new(), edges, unprobed, floor.clone(), non_finite] {
                    for &(nprobe, k) in &cases {
                        let exact = vsan_eval::top_n_excluding(&logits, k, &exclude);
                        let (got, stats) = idx.query_with_probe_stats(&hidden, k, &exclude, nprobe);
                        assert_eq!(
                            got.len(),
                            exact.len(),
                            "train_sample {train_sample}, nprobe {nprobe}, k {k}, exclude {exclude:?}"
                        );
                        if nprobe == nc {
                            assert_eq!(got, exact, "full probe, k {k}, exclude {exclude:?}");
                        }
                        if exclude == floor && nprobe == 1 && k > 0 {
                            assert!(stats.probed_clusters > 1, "the floor must force extra probes");
                        }
                    }
                }
            }
        }
    }
}
