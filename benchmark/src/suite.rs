//! Whole-suite modes. Each runs the workloads as child processes of this
//! same binary — one process per workload run, exactly as the driver
//! does — waits for each to end, and reads the JSON line it printed.
//!
//! * `--smoke`: every workload at toy sizes, untraced and traced, and a
//!   check of the result line's schema.
//! * `--all`: every workload at the contract's run length, untraced
//!   then traced, each child's full report passed through.
//! * `--aa`: the suite twice on the same build; per metric and workload
//!   both values, how much worse the second is, and the bound.
//! * `--spread`: the suite `--runs` times with different seeds; per
//!   metric and workload the quartile spread against a third of the
//!   bound (the steadiness the contract asks for).

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};

/// What the suite modes need from `BENCHMARK.json`.
struct Contract {
    run_seconds: f64,
    workloads: Vec<String>,
    /// `(name, lower is better, bound)`.
    end_to_end: Vec<(String, bool, f64)>,
}

fn contract() -> Result<Contract, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |o: &Json, key: &str| {
        o.get(key)
            .cloned()
            .ok_or(format!("BENCHMARK.json: missing {key}"))
    };
    let mut c = Contract {
        run_seconds: field(&json, "run_seconds")?
            .num()
            .ok_or("run_seconds is not a number")?,
        workloads: Vec::new(),
        end_to_end: Vec::new(),
    };
    for w in field(&json, "workloads")?.items() {
        c.workloads
            .push(field(w, "name")?.str().ok_or("workload name")?.to_string());
    }
    for m in field(&json, "end_to_end")?.items() {
        let name = field(m, "name")?.str().ok_or("metric name")?.to_string();
        let lower = field(m, "better")?.str() == Some("lower");
        c.end_to_end
            .push((name, lower, field(m, "bound")?.num().ok_or("metric bound")?));
    }
    Ok(c)
}

/// The result line of one child run.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
    wall_s: f64,
}

impl Child {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// This binary, set to run one workload once.
fn run_command(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    toy: bool,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if toy {
        cmd.arg("--toy");
    }
    cmd.stdin(Stdio::null());
    Ok(cmd)
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    toy: bool,
) -> Result<Child, String> {
    let mut cmd = run_command(workload, seed, seconds, traced, toy)?;
    let t0 = Instant::now();
    // `output` waits for the child to end and collects its stdout.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}",
            u8::from(traced),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let json = Json::parse(line)
        .map_err(|e| format!("{workload}: last line is not JSON ({e}): {line}"))?;
    let keys: Vec<&str> = json.fields().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{workload}: result keys are {keys:?}"));
    }
    let mut metrics = Vec::new();
    for (name, m) in json.get("metrics").map(Json::fields).unwrap_or_default() {
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["value", "unit"] {
            return Err(format!("{workload}: metric {name} has keys {keys:?}"));
        }
        let value = m
            .get("value")
            .and_then(Json::num)
            .ok_or(format!("{name}: value is not a number"))?;
        let unit = m
            .get("unit")
            .and_then(Json::str)
            .ok_or(format!("{name}: unit is not a string"))?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok(Child {
        correct: json
            .get("correct")
            .and_then(Json::bool)
            .ok_or("correct is not a boolean")?,
        attempted: json
            .get("attempted")
            .and_then(Json::num)
            .ok_or("attempted is not a number")?,
        failed: json
            .get("failed")
            .and_then(Json::num)
            .ok_or("failed is not a number")?,
        metrics,
        wall_s,
    })
}

/// The child's result must list exactly `table`, in order, with its
/// units, and report a correct run with at least one operation and no
/// failures.
fn check_schema(workload: &str, c: &Child, table: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = c
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect();
    if got != table {
        return Err(format!(
            "{workload}: metrics printed differ from the benchmark's table: {got:?}"
        ));
    }
    if !c.correct || c.failed != 0.0 || c.attempted < 1.0 || c.attempted.fract() != 0.0 {
        return Err(format!(
            "{workload}: correct {} attempted {} failed {}",
            c.correct, c.attempted, c.failed
        ));
    }
    Ok(())
}

/// `--smoke`: every workload at toy sizes, both run kinds.
pub fn smoke() -> Result<(), String> {
    let c = contract()?;
    let t0 = Instant::now();
    for w in &c.workloads {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let run = child(w, 1, 1.0, traced, true)?;
            check_schema(w, &run, table)?;
            if !traced
                && END_TO_END
                    .iter()
                    .any(|(n, _)| run.value(n).is_none_or(|v| v <= 0.0))
            {
                return Err(format!("{w}: an end-to-end metric is zero or negative"));
            }
            println!(
                "smoke {w:<16} trace {} ok in {:.1} s ({} ops)",
                u8::from(traced),
                run.wall_s,
                run.attempted
            );
        }
    }
    println!(
        "smoke: {} workloads, schema valid, {:.1} s",
        c.workloads.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `--all`: every workload, untraced then traced, reports passed through.
pub fn all(seed: u64) -> Result<(), String> {
    let c = contract()?;
    for w in &c.workloads {
        for traced in [false, true] {
            let status = run_command(w, seed, c.run_seconds, traced, false)?
                .status()
                .map_err(|e| format!("spawn: {e}"))?;
            if !status.success() {
                let kind = if traced { "traced" } else { "untraced" };
                return Err(format!("{w} ({kind}) exited with {status}"));
            }
        }
    }
    Ok(())
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// `--aa`: the suite twice on the same build.
pub fn aa(seed: u64) -> Result<(), String> {
    let c = contract()?;
    let mut over = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for w in &c.workloads {
        let first = child(w, seed, c.run_seconds, false, false)?;
        let second = child(w, seed, c.run_seconds, false, false)?;
        check_schema(w, &first, END_TO_END)?;
        check_schema(w, &second, END_TO_END)?;
        for (name, lower, bound) in &c.end_to_end {
            let (a, b) = (
                first.value(name).ok_or("missing metric")?,
                second.value(name).ok_or("missing metric")?,
            );
            let worse = worsening(a, b, *lower);
            let flag = if worse > *bound {
                " <-- over bound"
            } else {
                ""
            };
            over += usize::from(worse > *bound);
            println!(
                "{w:<16} {name:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{flag}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if over > 0 {
        return Err(format!(
            "{over} metric(s) moved by more than their bound between two runs of the same build"
        ));
    }
    Ok(())
}

/// `--spread`: `runs` seeds per workload, quartile spread per metric.
pub fn spread(runs: usize) -> Result<(), String> {
    let c = contract()?;
    let mut wide = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>9} {:>7} {:>8} {:>9}",
        "workload", "metric", "median", "spread", "bound", "bound/3", "wall s"
    );
    for w in &c.workloads {
        let mut children = Vec::new();
        for seed in 1..=runs as u64 {
            let run = child(w, seed, c.run_seconds, false, false)?;
            check_schema(w, &run, END_TO_END)?;
            children.push(run);
        }
        let wall = median(&children.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        for (name, _, bound) in &c.end_to_end {
            let values: Vec<f64> = children.iter().filter_map(|c| c.value(name)).collect();
            let spread = quartile_spread(&values).ok_or("spread needs two or more runs")?;
            // The contract exempts setup_s from the spread check.
            let too_wide = name != "setup_s" && spread > bound / 3.0;
            wide += usize::from(too_wide);
            println!(
                "{w:<16} {name:<18} {:>14.4} {:>8.2}% {:>6.0}% {:>7.2}% {wall:>9.1}{}",
                median(&values),
                spread * 100.0,
                bound * 100.0,
                bound / 3.0 * 100.0,
                if too_wide {
                    " <-- wider than a third of its bound"
                } else {
                    ""
                }
            );
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let listed: Vec<String> = sorted.iter().map(|v| format!("{v:.4}")).collect();
            println!("{:<16} {:<18} sorted: {}", "", "", listed.join(" "));
        }
    }
    if wide > 0 {
        return Err(format!(
            "{wide} metric(s) spread wider than a third of their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12); // latency up 10 %: worse
        assert!((worsening(100.0, 90.0, true) + 0.10).abs() < 1e-12); // latency down: better
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12); // throughput down 10 %: worse
        assert!((worsening(100.0, 120.0, false) + 0.20).abs() < 1e-12);
    }

    #[test]
    fn contract_file_is_readable_from_the_repository_root() {
        // `cargo test` runs in the package directory; the file is one up.
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let json = Json::parse(&text).unwrap();
        let keys: Vec<&str> = json.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for m in json.get("end_to_end").unwrap().items() {
            let bound = m.get("bound").and_then(Json::num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(matches!(
                m.get("better").and_then(Json::str),
                Some("lower" | "higher")
            ));
        }
        let seconds = json.get("run_seconds").and_then(Json::num).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
