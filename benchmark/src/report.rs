//! The metric tables and what a run prints. The two tables below are
//! the benchmark's vocabulary: `BENCHMARK.json` lists exactly these
//! names and units (a test holds the two together), an untraced run
//! prints every end-to-end metric and a traced run every per-layer one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`: what a caller of the system sees.
/// Each workload defines its operation (README § Workloads); the names
/// are shared so every workload reports every metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`; the prefix is the crate measured
/// (`client` is the harness's own load generator). A layer that does no
/// work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.peak.fma_gflops", "GFLOP/s"),
    ("tensor.peak.stream_gbps", "GB/s"),
    ("tensor.matmul_head.us", "us"),
    ("tensor.matmul_head.gflops", "GFLOP/s"),
    ("tensor.matmul_head.gbps", "GB/s"),
    ("tensor.matmul_head.pct_of_stream", "%"),
    ("tensor.matmul_proj.us", "us"),
    ("tensor.matmul_proj.gflops", "GFLOP/s"),
    ("tensor.matmul_proj.pct_of_fma", "%"),
    ("tensor.attention.us", "us"),
    ("tensor.attention.gflops", "GFLOP/s"),
    ("tensor.layer_norm.gbps", "GB/s"),
    ("tensor.softmax.gbps", "GB/s"),
    ("tensor.attention_append.us", "us"),
    ("tensor.attention_resume.us", "us"),
    ("tensor.matmul_a_bt.gflops", "GFLOP/s"),
    ("tensor.matmul_at_b.gflops", "GFLOP/s"),
    ("tensor.attention_train_fwd.us", "us"),
    ("tensor.attention_train_bwd.us", "us"),
    ("tensor.kmeans.build_s", "s"),
    ("tensor.kmeans.rows_per_s", "1/s"),
    ("core.hidden_ms_b32", "ms"),
    ("core.hidden_ms_b1", "ms"),
    ("core.head_ms_b32", "ms"),
    ("core.topk_ms_b32", "ms"),
    ("core.head_share", "ratio"),
    ("core.topk_share", "ratio"),
    ("core.busy_share_pct", "%"),
    ("core.retrieval.query_us", "us"),
    ("core.retrieval.probed_clusters", "count"),
    ("core.retrieval.survivors", "count"),
    ("core.retrieval.useful_ratio", "ratio"),
    ("core.retrieval.index_build_s", "s"),
    ("core.retrieval.recall_at_50", "ratio"),
    ("core.session.prepare_ms", "ms"),
    ("core.session.append_us", "us"),
    ("core.train.epoch_wall_ms", "ms"),
    ("core.train.final_loss", "nats"),
    ("core.train.kl", "nats"),
    ("core.train.ce", "nats"),
    ("autograd.attn_fwd_ms", "ms"),
    ("autograd.attn_bwd_ms", "ms"),
    ("autograd.arena_fresh_allocs_per_step", "count"),
    ("autograd.arena_held_mb", "MB"),
    ("autograd.peak_tape_nodes", "count"),
    ("nn.shards_per_epoch", "count"),
    ("nn.steps_per_epoch", "count"),
    ("nn.grad_norm_pre_clip", "norm"),
    ("nn.thread_speedup", "ratio"),
    ("data.generate_s", "s"),
    ("data.preprocess_s", "s"),
    ("data.split_s", "s"),
    ("data.catalog_s", "s"),
    ("eval.score_us_per_user", "us"),
    ("eval.rank_us_per_user", "us"),
    ("eval.metric_us_per_user", "us"),
    ("eval.users_per_s", "1/s"),
    ("eval.ndcg_at_10", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.compute_p50_us", "us"),
    ("serve.compute_p99_us", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.batch_fill_pct", "%"),
    ("serve.flush_full_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.degraded_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.span.admission_us", "us"),
    ("serve.span.pickup_us", "us"),
    ("serve.span.batch_us", "us"),
    ("serve.span.compute_us", "us"),
    ("serve.span.retrieval_us", "us"),
    ("serve.span.complete_us", "us"),
    ("serve.span.cache_hit_us", "us"),
    ("serve.cache.get_hit_ns", "ns"),
    ("serve.cache.insert_evict_ns", "ns"),
    ("serve.queue.push_pop_ns", "ns"),
    ("session.warm_ratio", "ratio"),
    ("session.cold_starts", "count"),
    ("session.resumes", "count"),
    ("session.evictions", "count"),
    ("session.bytes_per_session", "B"),
    ("session.span.resolve_us", "us"),
    ("session.span.apply_us", "us"),
    ("session.span.prepare_us", "us"),
    ("session.span.commit_us", "us"),
    ("session.store.prefix_lookup_ns", "ns"),
    ("obs.recorder.spans_recorded", "count"),
    ("obs.recorder.overwritten_ratio", "ratio"),
    ("obs.histogram.record_ns", "ns"),
    ("client.open_p50_ms.r25", "ms"),
    ("client.open_p50_ms.r50", "ms"),
    ("client.open_p50_ms.r75", "ms"),
    ("client.open_p99_ms.r25", "ms"),
    ("client.open_p99_ms.r50", "ms"),
    ("client.open_p99_ms.r75", "ms"),
    ("client.goodput_rps", "1/s"),
    ("client.sender_lag_p99_ms", "ms"),
    ("client.trace_overhead_pct", "%"),
    ("client.traced_throughput_per_s", "1/s"),
    ("client.ops_attempted", "count"),
    ("client.ops_failed", "count"),
];

/// Unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the benchmark's tables"
        );
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations sent during the measured phases.
    pub attempted: usize,
    /// Operations that errored, came back degraded, or differed from
    /// the oracle.
    pub failed: usize,
    /// What was measured.
    pub metrics: Metrics,
    /// Per-phase `(phase, attempted, succeeded, failed)`.
    pub phases: Vec<(&'static str, usize, usize, usize)>,
    /// Free-form lines for the human-readable report: sample counts,
    /// check results, loss bit patterns.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Add a phase's operation counts to the totals.
    pub fn count_phase(&mut self, phase: &'static str, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
        self.phases
            .push((phase, attempted, attempted - failed, failed));
    }
}

/// A JSON number: every digit of a finite value, and an error for a
/// value that is not a number — a metric that could not be measured
/// must fail the run, not print as zero.
fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is {v}: nothing was measured"))
    }
}

/// The table a run reports: end-to-end when untraced, per-layer when
/// traced. Per-layer metrics a workload did not touch read 0.
pub fn reported(
    result: &RunResult,
    traced: bool,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let table = if traced { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| match result.metrics.get(name) {
            Some(v) => Ok((name, unit, v)),
            None if traced => Ok((name, unit, 0.0)),
            None => Err(format!(
                "workload did not measure the end-to-end metric {name}"
            )),
        })
        .collect()
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn final_line(result: &RunResult, traced: bool) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct,
        result.attempted.max(1),
        result.failed
    );
    for (i, (name, unit, v)) in reported(result, traced)?.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(name, v)?
        )
        .unwrap();
    }
    out.push_str("}}");
    Ok(out)
}

/// The human-readable report: header lines, every metric by name with
/// its unit, the per-phase operation counts and the notes.
pub fn render(
    header: &[(String, String)],
    workload: &str,
    result: &RunResult,
    traced: bool,
) -> Result<String, String> {
    let mut out = String::new();
    writeln!(
        out,
        "# vsan-benchmark · workload {workload} · {}",
        if traced { "traced" } else { "untraced" }
    )
    .unwrap();
    for (k, v) in header {
        writeln!(out, "{k:<18} {v}").unwrap();
    }
    writeln!(out, "\n{:<40} {:>16}  unit", "metric", "value").unwrap();
    for (name, unit, v) in reported(result, traced)? {
        writeln!(out, "{name:<40} {v:>16.4}  {unit}").unwrap();
    }
    writeln!(
        out,
        "\n{:<24} {:>10} {:>10} {:>10}",
        "phase", "attempted", "succeeded", "failed"
    )
    .unwrap();
    for (phase, a, s, f) in &result.phases {
        writeln!(out, "{phase:<24} {a:>10} {s:>10} {f:>10}").unwrap();
    }
    for note in &result.notes {
        writeln!(out, "note: {note}").unwrap();
    }
    writeln!(out, "correct: {}", result.correct).unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = crate::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let column = |array: &str, key: &str| -> Vec<String> {
            let rows = json
                .get(array)
                .unwrap_or_else(|| panic!("no `{array}`"))
                .items();
            rows.iter()
                .map(|o| o.get(key).and_then(|v| v.str()).expect(key).to_string())
                .collect()
        };
        for (array, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = column(array, "name")
                .into_iter()
                .zip(column(array, "unit"))
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed, ours,
                "BENCHMARK.json `{array}` differs from the harness's table"
            );
        }
        assert_eq!(column("workloads", "name"), crate::workloads::NAMES);
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            correct: true,
            ..RunResult::default()
        };
        r.count_phase("p", 10, 0);
        for &(name, _) in END_TO_END {
            r.metrics.set(name, 1.25);
        }
        let line = final_line(&r, false).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        // Traced: every per-layer name, untouched ones reading 0.
        let traced = final_line(&r, true).unwrap();
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        // A missing end-to-end metric or a non-number is an error.
        assert!(final_line(&RunResult::default(), false).is_err());
        r.metrics.set("setup_s", f64::NAN);
        assert!(final_line(&r, false).is_err());
    }
}
