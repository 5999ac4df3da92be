//! Instrumented end-to-end smoke pass for the observability layer
//! (`scripts/verify.sh` runs this).
//!
//! Trains a tiny VSAN with a JSONL observer attached, serves a small
//! request stream through an instrumented engine, writes both telemetry
//! streams under `results/`, then re-reads and validates them: every
//! line must parse as JSON, the training stream must open with a
//! run-header and carry per-epoch CE/KL/β records, and the serving
//! stream must carry the engine metrics registry and a flight-recorder
//! dump whose trace graph is sound (every span's trace id resolves to
//! an admission root through acyclic parent links). The engine's
//! registry is also scraped once over a live Prometheus
//! text-exposition endpoint and the body must parse. Exits non-zero on
//! any violation.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vsan_core::{Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_obs::{
    expo, parse, EventSink, ExpositionServer, FileSink, JsonlTrainObserver, JsonValue,
    ObserverHandle,
};
use vsan_serve::{Engine, EngineConfig};

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Parse every line of a JSONL file, failing the run on the first
/// malformed record; returns the per-line `"type"` values.
fn validate_jsonl(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let mut types = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let v = parse(line).unwrap_or_else(|e| {
            fail(&format!("{}:{}: malformed record: {e}", path.display(), i + 1))
        });
        let ty = v
            .get("type")
            .and_then(|t| t.as_str())
            .unwrap_or_else(|| fail(&format!("{}:{}: record has no type", path.display(), i + 1)));
        types.push(ty.to_string());
    }
    if types.is_empty() {
        fail(&format!("{}: zero telemetry events", path.display()));
    }
    types
}

/// Validate the trace graph carried by a stream's `flight_record`
/// lines: parent links must be acyclic, never dangle, stay within one
/// trace, and every span must resolve to an `admission` root.
fn validate_trace_graph(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot re-read {}: {e}", path.display())));
    // span_id -> (trace_id, parent_span_id, stage)
    let mut spans: HashMap<String, (String, String, String)> = HashMap::new();
    for line in text.lines() {
        let v = parse(line).unwrap_or_else(|e| fail(&format!("flight record re-parse: {e}")));
        if v.get("type").and_then(JsonValue::as_str) != Some("flight_record") {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| fail(&format!("flight_record missing {k}: {line}")))
                .to_string()
        };
        spans.insert(field("span_id"), (field("trace_id"), field("parent_span_id"), field("stage")));
    }
    if spans.is_empty() {
        fail("serving stream has no flight_record lines");
    }
    const NO_PARENT: &str = "0000000000000000";
    for (span_id, (trace_id, _, _)) in &spans {
        let mut cur = span_id;
        let mut hops = 0;
        loop {
            let (trace, parent, stage) = spans
                .get(cur)
                .unwrap_or_else(|| fail(&format!("span {span_id}: dangling parent {cur}")));
            if trace != trace_id {
                fail(&format!("span {span_id}: parent chain crosses into trace {trace}"));
            }
            if parent == NO_PARENT {
                if stage != "admission" {
                    fail(&format!("span {span_id}: root stage is {stage}, not admission"));
                }
                break;
            }
            cur = parent;
            hops += 1;
            if hops > 32 {
                fail(&format!("span {span_id}: parent chain exceeds 32 hops (cycle?)"));
            }
        }
    }
    eprintln!("obs_smoke: trace graph OK ({} spans, all rooted at admission)", spans.len());
}

fn main() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).unwrap_or_else(|e| fail(&format!("mkdir results: {e}")));
    let train_path = results.join("obs_smoke_train.jsonl");
    let serve_path = results.join("obs_smoke_serve.jsonl");

    // Synthetic workload: random walks over a 40-item catalogue.
    let mut rng = StdRng::seed_from_u64(7);
    let num_items = 40usize;
    let sequences: Vec<Vec<u32>> =
        (0..24).map(|_| (0..12).map(|_| rng.gen_range(1..=num_items as u32)).collect()).collect();
    let ds = Dataset { name: "obs-smoke".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..ds.sequences.len()).collect();

    // --- Instrumented training: JSONL observer. ---
    {
        let sink = Arc::new(
            FileSink::create(&train_path).unwrap_or_else(|e| fail(&format!("train sink: {e}"))),
        );
        let cfg = VsanConfig::smoke()
            .with_observer(ObserverHandle::new(Arc::new(JsonlTrainObserver::new(sink.clone()))));
        let model =
            Vsan::train(&ds, &train_users, &cfg).unwrap_or_else(|e| fail(&format!("train: {e}")));
        sink.flush();

        // --- Instrumented serving: engine registry + flight recorder. ---
        let serve_sink =
            FileSink::create(&serve_path).unwrap_or_else(|e| fail(&format!("serve sink: {e}")));
        let engine = Engine::start(model, EngineConfig::default().with_workers(1));
        let histories: Vec<Vec<u32>> = (0..8)
            .map(|_| (0..6).map(|_| rng.gen_range(1..=num_items as u32)).collect())
            .collect();
        for _ in 0..3 {
            for h in &histories {
                if engine.recommend(h, 5).is_err() {
                    fail("engine rejected a request");
                }
            }
        }
        engine.export_metrics(&serve_sink);
        if engine.dump_flight_recorder(&serve_sink) == 0 {
            fail("flight recorder dumped zero spans after a served stream");
        }

        // Live scrape: bind an ephemeral exposition endpoint on the
        // engine's registry, GET /metrics over TCP, and require the
        // body to parse as Prometheus text exposition.
        let registry = engine.metrics_registry();
        let server = ExpositionServer::bind(Arc::clone(&registry), "127.0.0.1:0")
            .unwrap_or_else(|e| fail(&format!("exposition bind: {e}")));
        let scrape = {
            let mut conn = std::net::TcpStream::connect(server.local_addr())
                .unwrap_or_else(|e| fail(&format!("exposition connect: {e}")));
            conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
                .unwrap_or_else(|e| fail(&format!("exposition request: {e}")));
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut response = String::new();
            conn.read_to_string(&mut response)
                .unwrap_or_else(|e| fail(&format!("exposition read: {e}")));
            if !response.starts_with("HTTP/1.1 200") {
                fail(&format!("exposition scrape status: {}", response.lines().next().unwrap_or("")));
            }
            let body = response
                .split_once("\r\n\r\n")
                .unwrap_or_else(|| fail("exposition response has no body"))
                .1
                .to_string();
            expo::parse(&body)
                .unwrap_or_else(|e| fail(&format!("exposition body does not parse: {e}")))
        };
        if scrape.value("serve_requests").is_none() {
            fail("scrape is missing serve_requests");
        }
        server.shutdown();
        expo::write_to_file(&registry, &results.join("obs_smoke_metrics.prom"))
            .unwrap_or_else(|e| fail(&format!("write .prom: {e}")));

        let stats = engine.shutdown_stats();
        if stats.latency_us.count == 0 {
            fail("engine recorded no latency samples");
        }
        if stats.snapshot.cache_hits == 0 {
            fail("repeat traffic produced no cache hits");
        }
        serve_sink.flush();
    }

    // --- Validate both streams. ---
    let train_types = validate_jsonl(&train_path);
    if train_types.first().map(String::as_str) != Some("run_header") {
        fail("training stream must open with a run_header record");
    }
    let epochs = train_types.iter().filter(|t| *t == "epoch").count();
    if epochs == 0 {
        fail("training stream carries no epoch records");
    }
    if !train_types.iter().any(|t| t == "run_end") {
        fail("training stream has no run_end record");
    }
    let serve_types = validate_jsonl(&serve_path);
    if !serve_types.iter().any(|t| t == "serve_metrics") {
        fail("serving stream has no serve_metrics record");
    }
    if !serve_types.iter().any(|t| t == "flight_dump") {
        fail("serving stream has no flight_dump record");
    }
    validate_trace_graph(&serve_path);

    eprintln!(
        "obs_smoke: OK ({} train events, {} epochs; {} serve events) -> {}, {}",
        train_types.len(),
        epochs,
        serve_types.len(),
        train_path.display(),
        serve_path.display()
    );
}
