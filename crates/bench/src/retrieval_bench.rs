//! Clustered-retrieval benchmark: the two-stage MIPS index
//! (`vsan_core::retrieval`) against the exact brute-force oracle on
//! synthetic catalogs of N ∈ {12 k, 100 k, 10⁶} items.
//!
//! Per catalog size the run reports end-to-end `recommend_batch`
//! latency on both paths (the clustered side pays the same transformer
//! forward, so the speedup isolates what the index saves on the
//! prediction matmul + top-k), recall@{1, 10, 50} of the clustered
//! top-k against the exact oracle's, and a **full-probe bitwise check**:
//! with `nprobe = num_clusters` the clustered path must reproduce the
//! oracle's ranking bit for bit and in order (the invariant the
//! `crates/core/tests/retrieval.rs` proptest suite enforces on random
//! models; here it is re-checked on the real benchmark catalogs).
//!
//! `scripts/verify.sh` gates the committed `results/BENCH_retrieval.json`
//! on every `"recall_at_50"` ≥ 0.95 and `"min_clustered_speedup"` ≥ 5.
//! The speedup gate is taken over the `gate_speedup` cases only (the
//! million-item shape, where retrieval dominates the request); small-N
//! cases are reported for the latency curve but not speed-gated —
//! at 12 k items the shared forward pass is most of the request and a
//! 5x end-to-end factor is not what the index claims.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_core::{ClusteredConfig, Retrieval, Vsan, VsanConfig};
use vsan_data::synthetic::{generate_catalog, million_item};

use crate::serve_bench::results_dir;

/// One catalog size to measure.
#[derive(Debug, Clone)]
pub struct RetrievalCase {
    /// Label in the report (e.g. `"1m"`).
    pub name: String,
    /// `million_item` preset scale (1.0 = 10⁶ items).
    pub catalog_scale: f64,
    /// Query histories per timed batch.
    pub queries: usize,
    /// Items per query history (Zipf-sampled from the catalog).
    pub history_len: usize,
    /// Top-k requested per query.
    pub k: usize,
    /// Index configuration (0 fields = auto knobs).
    pub cluster: ClusteredConfig,
    /// Whether this case enters the `min_clustered_speedup` gate.
    pub gate_speedup: bool,
}

/// Workload knobs for [`run_retrieval_bench`].
#[derive(Debug, Clone)]
pub struct RetrievalBenchConfig {
    /// Catalog sizes to measure.
    pub cases: Vec<RetrievalCase>,
    /// Timed repetitions per path (after one warmup).
    pub iters: usize,
    /// RNG seed for model weights and query sampling.
    pub seed: u64,
}

impl Default for RetrievalBenchConfig {
    fn default() -> Self {
        let case = |name: &str, scale: f64, gate: bool| RetrievalCase {
            name: name.into(),
            catalog_scale: scale,
            queries: 64,
            history_len: 32,
            k: 50,
            cluster: ClusteredConfig::default(),
            gate_speedup: gate,
        };
        RetrievalBenchConfig {
            cases: vec![
                // Beauty-catalog scale: the paper's own |I| ≈ 12 k.
                case("12k", 0.012, false),
                // Mid-size production catalog.
                case("100k", 0.1, false),
                // The tentpole shape: a million items.
                case("1m", 1.0, true),
            ],
            iters: 2,
            seed: 42,
        }
    }
}

impl RetrievalBenchConfig {
    /// Sub-second configuration for the test suite.
    pub fn smoke() -> Self {
        RetrievalBenchConfig {
            cases: vec![RetrievalCase {
                name: "smoke".into(),
                catalog_scale: 0.002, // 2 000 items
                queries: 8,
                history_len: 8,
                k: 20,
                cluster: ClusteredConfig::default(),
                gate_speedup: false,
            }],
            iters: 1,
            seed: 42,
        }
    }
}

/// One catalog-size measurement.
#[derive(Debug, Clone)]
pub struct RetrievalResult {
    /// Case label.
    pub name: String,
    /// Catalog size (real items).
    pub num_items: usize,
    /// Embedding width.
    pub dim: usize,
    /// Clusters the index resolved to.
    pub num_clusters: usize,
    /// Probed clusters per query.
    pub nprobe: usize,
    /// Seconds to build the index (k-means + regroup).
    pub index_build_seconds: f64,
    /// Mean seconds per exact `recommend_batch_exact` batch.
    pub exact_seconds: f64,
    /// Mean seconds per clustered `try_recommend_batch` batch.
    pub clustered_seconds: f64,
    /// `exact_seconds / clustered_seconds`.
    pub speedup: f64,
    /// Queries per second, exact path.
    pub exact_qps: f64,
    /// Queries per second, clustered path.
    pub clustered_qps: f64,
    /// Mean recall@1 of clustered vs exact top-1.
    pub recall_at_1: f64,
    /// Mean recall@10 vs exact top-10.
    pub recall_at_10: f64,
    /// Mean recall@50 vs exact top-50 (gated ≥ 0.95).
    pub recall_at_50: f64,
    /// Whether `nprobe = num_clusters` reproduced the exact ranking bit
    /// for bit, in order, for every query.
    pub full_probe_bitwise: bool,
    /// Whether the speedup of this case enters the committed gate.
    pub gate_speedup: bool,
}

/// Full report of one benchmark run.
#[derive(Debug, Clone)]
pub struct RetrievalBenchReport {
    /// Per-catalog-size measurements.
    pub results: Vec<RetrievalResult>,
    /// Smallest recall@50 across all cases (gated ≥ 0.95).
    pub min_recall_at_50: f64,
    /// Smallest speedup across `gate_speedup` cases (gated ≥ 5).
    pub min_clustered_speedup: f64,
    /// `true` iff every case passed the full-probe bitwise check.
    pub full_probe_bitwise: bool,
}

/// Time `f` over `iters` calls (one untimed warmup), mean seconds.
fn time_s(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    t0.elapsed().as_secs_f64() / iters.max(1) as f64
}

/// Prefix-set recall of `approx` against the oracle's top-`j`.
fn recall_at(exact: &[u32], approx: &[u32], j: usize) -> f64 {
    let j = j.min(exact.len());
    if j == 0 {
        return 1.0; // nothing to recall
    }
    let oracle: HashSet<u32> = exact[..j].iter().copied().collect();
    let hits = approx.iter().take(j).filter(|item| oracle.contains(item)).count();
    hits as f64 / j as f64
}

/// Measure one catalog size: same tied-prediction model, catalog
/// embeddings written over the item table, exact oracle vs clustered
/// index on identical Zipf query batches.
fn bench_case(case: &RetrievalCase, iters: usize, seed: u64) -> RetrievalResult {
    let catalog = generate_catalog(&million_item(case.catalog_scale));
    let mut cfg = VsanConfig::smoke().with_seed(seed).with_threads(1);
    cfg.base.dim = catalog.dim;
    cfg.base.max_seq_len = case.history_len.max(2);
    // Tied prediction: the head scores against the item table itself, so
    // overwriting the table below makes the catalog geometry the thing
    // both retrieval paths actually rank over.
    cfg.tie_prediction = true;
    let mut model = Vsan::init(catalog.vocab(), &cfg);
    let table_id = model.params_mut().id_of("item_emb").expect("item embedding param");
    model.params_mut().get_mut(table_id).data_mut().copy_from_slice(&catalog.embeddings);

    let t0 = Instant::now();
    model.set_retrieval(Retrieval::Clustered(case.cluster.clone()));
    let index_build_seconds = t0.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let histories: Vec<Vec<u32>> =
        (0..case.queries).map(|_| catalog.sample_history(&mut rng, case.history_len)).collect();
    let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();

    // Correctness before speed: the oracle ranking, the clustered
    // ranking at the configured nprobe, and the full-probe ranking that
    // must equal the oracle bit for bit and in order.
    let exact = model.recommend_batch_exact(&refs, case.k).expect("exact oracle");
    let clustered = model.try_recommend_batch(&refs, case.k).expect("clustered path");
    let index = model.retrieval_index().expect("index built");
    let hidden = {
        let mut ws = model.workspace(case.queries);
        model.try_last_hidden_batch_with(&refs, &mut ws).expect("hidden rows")
    };
    let d = catalog.dim;
    let full_probe_bitwise = refs.iter().enumerate().all(|(i, history)| {
        let seen: HashSet<u32> = history.iter().copied().collect();
        let full =
            index.query_with_probe(&hidden[i * d..(i + 1) * d], case.k, &seen, index.num_clusters());
        full == exact[i]
    });

    let (mut r1, mut r10, mut r50) = (0.0, 0.0, 0.0);
    for (e, c) in exact.iter().zip(&clustered) {
        r1 += recall_at(e, c, 1);
        r10 += recall_at(e, c, 10);
        r50 += recall_at(e, c, 50);
    }
    let q = case.queries.max(1) as f64;

    let exact_seconds = time_s(iters, || {
        std::hint::black_box(model.recommend_batch_exact(&refs, case.k).expect("exact oracle"));
    });
    let clustered_seconds = time_s(iters, || {
        std::hint::black_box(model.try_recommend_batch(&refs, case.k).expect("clustered path"));
    });

    RetrievalResult {
        name: case.name.clone(),
        num_items: catalog.num_items,
        dim: catalog.dim,
        num_clusters: index.num_clusters(),
        nprobe: index.nprobe(),
        index_build_seconds,
        speedup: exact_seconds / clustered_seconds.max(1e-12),
        exact_qps: case.queries as f64 / exact_seconds.max(1e-12),
        clustered_qps: case.queries as f64 / clustered_seconds.max(1e-12),
        exact_seconds,
        clustered_seconds,
        recall_at_1: r1 / q,
        recall_at_10: r10 / q,
        recall_at_50: r50 / q,
        full_probe_bitwise,
        gate_speedup: case.gate_speedup,
    }
}

/// Run every catalog-size measurement in `cfg`.
pub fn run_retrieval_bench(cfg: &RetrievalBenchConfig) -> RetrievalBenchReport {
    let results: Vec<RetrievalResult> =
        cfg.cases.iter().map(|case| bench_case(case, cfg.iters, cfg.seed)).collect();
    let min_recall_at_50 =
        results.iter().map(|r| r.recall_at_50).fold(f64::INFINITY, f64::min).min(f64::MAX);
    let min_clustered_speedup = results
        .iter()
        .filter(|r| r.gate_speedup)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min)
        .min(f64::MAX);
    let full_probe_bitwise = results.iter().all(|r| r.full_probe_bitwise);
    RetrievalBenchReport { results, min_recall_at_50, min_clustered_speedup, full_probe_bitwise }
}

impl RetrievalBenchReport {
    /// Serialize as a JSON object (hand-rolled like the other bench
    /// reports; the workspace has no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\n  \"benchmark\": \"clustered MIPS retrieval vs exact brute-force oracle\",\n",
        );
        out.push_str(&format!("  \"full_probe_bitwise\": {},\n", self.full_probe_bitwise));
        out.push_str(&format!("  \"min_recall_at_50\": {:.4},\n", self.min_recall_at_50));
        out.push_str(&format!(
            "  \"min_clustered_speedup\": {:.3},\n",
            self.min_clustered_speedup
        ));
        out.push_str("  \"catalogs\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"case\": \"{}\", \"num_items\": {}, \"dim\": {}, \
                 \"num_clusters\": {}, \"nprobe\": {}, \"index_build_seconds\": {:.3}, \
                 \"exact_seconds\": {:.6}, \"clustered_seconds\": {:.6}, \"speedup\": {:.3}, \
                 \"exact_qps\": {:.1}, \"clustered_qps\": {:.1}, \"recall_at_1\": {:.4}, \
                 \"recall_at_10\": {:.4}, \"recall_at_50\": {:.4}, \
                 \"full_probe_bitwise\": {}, \"gate_speedup\": {}}}{}\n",
                r.name,
                r.num_items,
                r.dim,
                r.num_clusters,
                r.nprobe,
                r.index_build_seconds,
                r.exact_seconds,
                r.clustered_seconds,
                r.speedup,
                r.exact_qps,
                r.clustered_qps,
                r.recall_at_1,
                r.recall_at_10,
                r.recall_at_50,
                r.full_probe_bitwise,
                r.gate_speedup,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON report into the workspace `results/` directory.
    pub fn write_json(&self, file_name: &str) -> std::io::Result<PathBuf> {
        let path = results_dir().join(file_name);
        std::fs::create_dir_all(results_dir())?;
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke invocation: full probe must reproduce the oracle bit for
    /// bit on a real (small) catalog, and the report must carry the
    /// fields `scripts/verify.sh` gates on. No latency or recall floor
    /// here — tiny catalogs and loaded CI cores make both meaningless;
    /// the committed `results/BENCH_retrieval.json` comes from the
    /// `retrieval_bench` binary at full scale.
    #[test]
    fn smoke_run_full_probe_matches_and_serializes() {
        let report = run_retrieval_bench(&RetrievalBenchConfig::smoke());
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert!(r.full_probe_bitwise, "full probe must equal the oracle: {r:?}");
        assert!(r.num_clusters >= 1 && r.nprobe >= 1 && r.nprobe <= r.num_clusters);
        assert!(r.recall_at_50 > 0.0, "clustered path found none of the oracle's picks");
        assert_eq!(
            report.min_clustered_speedup,
            f64::MAX,
            "smoke has no gated case, so the gate min must be vacuous"
        );
        let json = report.to_json();
        assert!(json.contains("\"full_probe_bitwise\": true"));
        assert!(json.contains("\"recall_at_50\""));
        assert!(json.contains("\"min_clustered_speedup\""));
        let path = report.write_json("BENCH_retrieval_smoke.json").expect("write report");
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.contains("\"catalogs\""));
    }
}
