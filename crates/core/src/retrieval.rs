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
//! Survivor scores are **bit-identical** to the exact path's logits:
//! each is one scalar fold over `k` in ascending order, from `+0.0`,
//! without FMA. The exact head folds the query against item rows
//! (`matmul_a_bt_into`); the index stores each cluster as a k-major
//! `(dim, cnt)` panel and scores it with the tiled
//! [`vsan_tensor::ops::matmul::matmul_into`], lanes across items — a
//! lane is a different item, so every item's fold is untouched. In
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
use vsan_tensor::ops::matmul::{matmul_a_bt_into, matmul_into};

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

/// The built index: centroids plus item vectors regrouped by cluster,
/// each cluster a contiguous k-major panel for the tiled re-rank.
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
    indexed: usize,
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
        let (num_clusters, nprobe) = cfg.resolve(indexed);
        let km = KmeansConfig {
            num_clusters,
            iters: cfg.kmeans_iters,
            train_sample: cfg.train_sample,
            seed: cfg.seed,
        };
        let clustering = cluster_rows(vectors, indexed, dim, &km);
        let num_clusters = clustering.num_clusters;

        // Regroup rows by cluster, ascending item id within each cluster
        // (counting sort over an ascending scan is stable), each row
        // written straight into its column of the cluster's panel.
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
        for (row, &c) in clustering.assignments.iter().enumerate() {
            let c = c as usize;
            let (lo, cnt) = (offsets[c], counts[c]);
            let slot = cursor[c];
            cursor[c] += 1;
            let panel = &mut panels[lo * dim..(lo + cnt) * dim];
            for (t, &v) in vectors[row * dim..(row + 1) * dim].iter().enumerate() {
                panel[t * cnt + slot - lo] = v;
            }
            ids[slot] = (row + 1) as u32;
        }
        ItemIndex {
            dim,
            augmented,
            num_clusters,
            nprobe: nprobe.min(num_clusters),
            centroids: clustering.centroids,
            panels,
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

        let order = self.probe_order(&q);

        // Probe list: visit clusters until the probe budget is spent AND
        // enough candidates exist to fill k even if every excluded id
        // were among them. Cluster sizes are in `offsets`, so the list is
        // fixed before anything is scored.
        let nprobe = nprobe.clamp(1, self.num_clusters);
        let need = k.saturating_add(exclude.len());
        let mut probed = 0usize;
        let mut survivors = 0usize;
        for (visited, &c) in order.iter().enumerate() {
            if visited >= nprobe && survivors >= need {
                break;
            }
            probed += 1;
            survivors += self.offsets[c + 1] - self.offsets[c];
        }

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

        // Exact re-rank: one tiled panel product per probed cluster, then
        // every slot but the history's into the candidates.
        let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(survivors);
        let mut scores: Vec<f32> = Vec::new();
        let mut finite = 0usize;
        for (visited, &c) in order.iter().enumerate() {
            // A non-finite score never ranks, on either path: past the
            // planned list, keep probing while fewer than `k` rankable
            // candidates are held. With every score finite the floor
            // already guarantees `k` of them.
            if visited >= probed && finite >= k {
                break;
            }
            let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
            if visited >= probed {
                probed += 1;
                survivors += hi - lo;
            }
            self.score_cluster(&q, c, &mut scores);
            let from = pairs.len();
            let mut start = lo;
            let in_block = excluded.partition_point(|&s| s < lo)..excluded.partition_point(|&s| s < hi);
            for &end in excluded[in_block].iter().chain([&hi]) {
                let members = self.ids[start..end].iter().zip(&scores[start - lo..end - lo]);
                pairs.extend(members.map(|(&id, &s)| (id, s)));
                start = end + 1;
            }
            finite += pairs[from..].iter().filter(|p| p.1.is_finite()).count();
        }
        let stats = QueryStats { probed_clusters: probed, survivors };
        (vsan_eval::top_n_excluding_pairs(pairs, k, &HashSet::new()), stats)
    }

    /// Coarse stage: clusters by descending inner product of `q` (the
    /// augmented query) with their centroid, ties to the lower cluster id.
    /// A NaN score sorts after every number, so the order is total and
    /// the probe list well defined whatever the item vectors hold.
    fn probe_order(&self, q: &[f32]) -> Vec<usize> {
        let mut cscores = vec![0.0f32; self.num_clusters];
        matmul_a_bt_into(q, &self.centroids, &mut cscores, 1, self.dim, self.num_clusters);
        let mut order: Vec<usize> = (0..self.num_clusters).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (cscores[a], cscores[b]);
            sb.partial_cmp(&sa)
                .unwrap_or_else(|| sa.is_nan().cmp(&sb.is_nan()))
                .then_with(|| a.cmp(&b))
        });
        order
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

    /// Clusters in probe order for an (augmented) query `q`: descending
    /// `reference::matmul_a_bt_into` centroid score, ties to the lower id.
    fn reference_order(idx: &ItemIndex, q: &[f32]) -> Vec<usize> {
        let mut cscores = vec![0.0f32; idx.num_clusters];
        reference::matmul_a_bt_into(q, &idx.centroids, &mut cscores, 1, idx.dim, idx.num_clusters);
        let mut order: Vec<usize> = (0..idx.num_clusters).collect();
        order.sort_by(|&a, &b| {
            cscores[b]
                .partial_cmp(&cscores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        order
    }

    /// The query as it ran before the panels: members scored row-major off
    /// `vectors` (item `id` at row `id - 1`) by `reference::matmul_a_bt_into`,
    /// candidates collected whole, the history excluded by the shared
    /// heap's `HashSet` test.
    fn reference_query(
        idx: &ItemIndex,
        vectors: &[f32],
        q: &[f32],
        k: usize,
        exclude: &HashSet<u32>,
        nprobe: usize,
    ) -> (Vec<u32>, QueryStats) {
        let nprobe = nprobe.clamp(1, idx.num_clusters);
        let need = k + exclude.len();
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        let mut probed = 0;
        for (visited, c) in reference_order(idx, q).into_iter().enumerate() {
            if visited >= nprobe && pairs.len() >= need {
                break;
            }
            probed += 1;
            let members = &idx.ids[idx.offsets[c]..idx.offsets[c + 1]];
            let rows: Vec<f32> = members
                .iter()
                .flat_map(|&id| &vectors[(id as usize - 1) * idx.dim..][..idx.dim])
                .copied()
                .collect();
            let mut scores = vec![0.0f32; members.len()];
            reference::matmul_a_bt_into(q, &rows, &mut scores, 1, idx.dim, members.len());
            pairs.extend(members.iter().copied().zip(scores));
        }
        let stats = QueryStats { probed_clusters: probed, survivors: pairs.len() };
        (vsan_eval::top_n_excluding_pairs(pairs, k, exclude), stats)
    }

    fn uniform(n: usize, s: &mut u64) -> Vec<f32> {
        (0..n).map(|_| (splitmix64(s) % 2000) as f32 / 1000.0 - 1.0).collect()
    }

    /// Partial probes against the pre-panel algorithm, tied and untied:
    /// the same ids in the same order and the same probe telemetry at
    /// `nprobe ∈ {1, nc/3, nc}`, and every panel score equal to the
    /// row-major reference fold bit for bit. The builds' cluster sizes
    /// cover every `cnt % 16`, so each strip of the tiled nest's
    /// 16/8/4/2/1 cascade scores some cluster's tail.
    #[test]
    fn partial_probes_match_the_row_major_reference_bit_for_bit() {
        let (vocab, d) = (1_201, 7);
        let mut s = 41u64;
        for augmented in [false, true] {
            let mut remainders = BTreeSet::new();
            for (num_clusters, seed) in [(40, 1), (60, 2), (25, 3)] {
                let cfg = ClusteredConfig { num_clusters, seed, ..ClusteredConfig::default() };
                let (idx, vectors) = if augmented {
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

                let mut scores = Vec::new();
                for _ in 0..4 {
                    let hidden = uniform(d, &mut s);
                    let mut q = hidden.clone();
                    if augmented {
                        q.push(1.0);
                    }
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
                    for nprobe in [1, nc / 3, nc] {
                        for k in [1, 10, 50] {
                            for exclude in [&HashSet::new(), &history] {
                                assert_eq!(
                                    idx.query_with_probe_stats(&hidden, k, exclude, nprobe),
                                    reference_query(&idx, &vectors, &q, k, exclude, nprobe),
                                    "augmented {augmented}, {nc} clusters, nprobe {nprobe}, k {k}"
                                );
                            }
                        }
                    }
                }
            }
            assert_eq!(remainders.len(), 16, "augmented {augmented}: cnt % 16 covered {remainders:?}");
        }
    }

    /// History exclusion by slot over the edge histories, on a tied model
    /// whose table holds one NaN row and one +inf row (their logits never
    /// rank, on either path): padding and duplicate ids, excluded ids only
    /// in unprobed clusters or past the catalog, a probed cluster's first
    /// and last slot, and a history that fills the first cluster so the
    /// `k + |exclude|` floor forces extra probes. Full probe equals
    /// `recommend_batch_exact` in order; every probe width returns as many
    /// items as exact — including a `k` that the planned probes hold
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
                nprobe: nc,
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
