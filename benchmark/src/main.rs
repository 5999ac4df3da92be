//! `vsan-benchmark` — the repository's benchmark, measured from outside
//! through public functions. One process runs one workload once:
//!
//! ```text
//! vsan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit, checks the outputs, writes
//! `benchmark/out/<workload>.report.txt` (and, traced,
//! `<workload>.trace.jsonl`), and ends with one JSON line. `--smoke`,
//! `--all`, `--aa` and `--spread` run the whole suite as child
//! processes; see `README.md`.

mod client;
mod engine_trace;
mod host;
mod inputs;
mod json;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod surface;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::RunSpec;

/// Where reports and traces go, relative to the checkout root `run.sh`
/// changes into.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> String {
    format!(
        "usage: vsan-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--toy]\n\
         \x20      vsan-benchmark --smoke | --all [--seed <n>] | --aa [--seed <n>] | --spread [--runs <n>]",
        workloads::NAMES.join("|")
    )
}

/// Parsed command line.
enum Command {
    Run(RunSpec),
    Smoke,
    All { seed: u64 },
    Aa { seed: u64 },
    Spread { runs: usize },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut spec = RunSpec {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        toy: false,
    };
    let (mut mode, mut runs) = (None, 10usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => spec.workload = value("a workload name")?.clone(),
            "--seed" => {
                spec.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                spec.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                spec.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--toy" => spec.toy = true,
            "--smoke" | "--all" | "--aa" | "--spread" => mode = Some(flag.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match mode.as_deref() {
        Some("--smoke") => Ok(Command::Smoke),
        Some("--all") => Ok(Command::All { seed: spec.seed }),
        Some("--aa") => Ok(Command::Aa { seed: spec.seed }),
        Some("--spread") => Ok(Command::Spread { runs }),
        _ if spec.workload.is_empty() => Err("no --workload given".into()),
        _ if !(spec.seconds > 0.0 && spec.seconds <= 600.0) => {
            Err("--seconds must be in (0, 600]".into())
        }
        _ => Ok(Command::Run(spec)),
    }
}

/// Run one workload and print its report; the returned line is the
/// run's last line of output.
fn run_once(spec: &RunSpec) -> Result<String, String> {
    for pin in surface::ORACLE_PINS {
        if std::env::var_os(pin).is_some() {
            return Err(format!(
                "{pin} is set: the benchmark measures the fast paths, not the oracles"
            ));
        }
    }
    let mut out = workloads::run(spec)?;
    out.result
        .metrics
        .set("client.ops_attempted", out.result.attempted as f64);
    out.result
        .metrics
        .set("client.ops_failed", out.result.failed as f64);

    let header = host::fingerprint(spec.seed, surface::avx2_in_use(), out.train_threads);
    let mut text = report::render(&header, &spec.workload, &out.result, spec.traced)?;
    if spec.traced {
        text.push_str("\nself time by span name (ms total, spans):\n");
        for (name, ns, count) in spans::self_time_by_name(out.tracer.spans()) {
            text.push_str(&format!(
                "{name:<32} {:>12.3} {count:>8}\n",
                ns as f64 / 1e6
            ));
        }
    }
    print!("{text}");
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!(
        "{}{}",
        spec.workload,
        if spec.traced { ".traced" } else { "" }
    );
    std::fs::write(dir.join(format!("{stem}.report.txt")), &text)
        .map_err(|e| format!("report: {e}"))?;
    if spec.traced {
        let path: PathBuf = dir.join(format!("{}.trace.jsonl", spec.workload));
        spans::write_jsonl(&path, out.tracer.spans())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report::final_line(&out.result, spec.traced)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::Run(spec)) => run_once(&spec).map(|line| println!("{line}")),
        Ok(Command::Smoke) => suite::smoke(),
        Ok(Command::All { seed }) => suite::all(seed),
        Ok(Command::Aa { seed }) => suite::aa(seed),
        Ok(Command::Spread { runs }) => suite::spread(runs),
        Err(e) => Err(format!("{e}\n{}", usage())),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vsan-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
