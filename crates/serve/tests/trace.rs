//! Request-scoped tracing tests (DESIGN.md §13): the flight recorder's
//! span records must reassemble into the causal tree of each request,
//! tracing must never change served bits, and the engine's metric
//! registry must round-trip through Prometheus text exposition.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use vsan_core::{Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_obs::{expo, parse, JsonValue, MemorySink};
use vsan_serve::{Engine, EngineConfig};

fn serve_cfg() -> VsanConfig {
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;
    cfg
}

fn trained_model() -> Vsan {
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "serve-trace".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    Vsan::train(&ds, &train_users, &serve_cfg()).expect("smoke training")
}

/// A bit-identical twin of `model` via the checkpoint round-trip.
fn twin(model: &Vsan) -> Vsan {
    let mut t = Vsan::init(9, &serve_cfg());
    t.params_mut().load_values(model.params().save()).expect("checkpoint reload");
    t
}

fn histories(n: usize) -> Vec<Vec<u32>> {
    (0..n).map(|u| (0..6).map(|t| ((u + t) % 8 + 1) as u32).collect()).collect()
}

/// One parsed flight record: `(trace, span, parent, stage)`.
struct Rec {
    trace: String,
    span: String,
    parent: String,
    stage: String,
}

/// Parse the `flight_record` lines out of a dump's JSONL.
fn parse_records(lines: &[String]) -> Vec<Rec> {
    let mut out = Vec::new();
    for line in lines {
        let v = parse(line).expect("dump line must be valid JSON");
        if v.get("type").and_then(JsonValue::as_str) != Some("flight_record") {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(JsonValue::as_str).expect("string field").to_string();
        out.push(Rec {
            trace: field("trace_id"),
            span: field("span_id"),
            parent: field("parent_span_id"),
            stage: field("stage"),
        });
    }
    out
}

const NO_PARENT: &str = "0000000000000000";

/// Walk `span`'s parent links to the root; panics on a cycle, a dangling
/// parent, or a root that is not an admission span. Returns the chain of
/// stages, leaf first.
fn chain_to_root(records: &[Rec], span: &str) -> Vec<String> {
    let by_span: HashMap<&str, &Rec> = records.iter().map(|r| (r.span.as_str(), r)).collect();
    let mut chain = Vec::new();
    let mut cur = by_span[span];
    for _ in 0..32 {
        chain.push(cur.stage.clone());
        if cur.parent == NO_PARENT {
            assert_eq!(cur.stage, "admission", "trace root must be an admission span");
            assert_eq!(cur.trace, cur.span, "admission root's span id is the trace id");
            return chain;
        }
        cur = by_span
            .get(cur.parent.as_str())
            .unwrap_or_else(|| panic!("dangling parent {} of span {}", cur.parent, cur.span));
    }
    panic!("parent chain of span {span} did not reach a root within 32 hops (cycle?)");
}

#[test]
fn tracing_on_and_off_serve_identical_rankings() {
    let model = trained_model();
    let shadow = twin(&model);
    let on = Engine::start(model, EngineConfig::default().with_workers(1));
    let off = Engine::start(shadow, EngineConfig::default().with_workers(1).with_flight_recorder(0));
    assert!(on.flight_recorder().is_some(), "tracing defaults to on");
    assert!(off.flight_recorder().is_none(), "capacity 0 must disable the recorder");

    for h in histories(12) {
        let a = on.submit(&h, 5).wait().expect("traced reply");
        let b = off.submit(&h, 5).wait().expect("untraced reply");
        assert_eq!(a.items(), b.items(), "tracing changed served bits for {h:?}");
    }
    // The incremental session path makes the same promise.
    for (user, h) in histories(4).into_iter().enumerate() {
        let a = on.append_event(user as u64, Some(&h), 3, 5).expect("traced append");
        let b = off.append_event(user as u64, Some(&h), 3, 5).expect("untraced append");
        assert_eq!(a.items(), b.items(), "tracing changed session bits for user {user}");
    }
    on.shutdown_stats();
    off.shutdown_stats();
}

#[test]
fn manual_dump_reconstructs_every_request_chain() {
    let engine =
        Engine::start(trained_model(), EngineConfig::default().with_workers(1).with_cache_capacity(0));
    let hs = histories(6);
    for h in &hs {
        engine.submit(h, 5).wait().expect("reply");
    }
    let sink = MemorySink::new();
    let written = engine.dump_flight_recorder(&sink);
    assert!(written > 0, "dump must emit the recorded spans");
    engine.shutdown_stats();

    let lines = sink.lines();
    let header = parse(&lines[0]).expect("header JSON");
    assert_eq!(header.get("type").and_then(JsonValue::as_str), Some("flight_dump"));
    assert_eq!(header.get("fault").and_then(JsonValue::as_str), Some("manual"));

    let records = parse_records(&lines);
    assert_eq!(records.len(), written, "one flight_record line per reported record");

    // Every span resolves to an admission root, and every completed
    // request's chain passed through pickup and compute (the cache is
    // off, so nothing short-circuits).
    for r in &records {
        chain_to_root(&records, &r.span);
    }
    let completes: Vec<&Rec> = records.iter().filter(|r| r.stage == "complete").collect();
    assert_eq!(completes.len(), hs.len(), "one complete span per request");
    for c in completes {
        let chain = chain_to_root(&records, &c.span);
        assert_eq!(
            chain,
            ["complete", "compute", "pickup", "admission"],
            "queued request must chain admission → pickup → compute → complete"
        );
    }
}

#[test]
fn session_appends_record_their_sub_stages() {
    let engine = Engine::start(trained_model(), EngineConfig::default().with_workers(1));
    for step in 0..3u32 {
        engine.append_event(77, None, step % 8 + 1, 5).expect("append");
        // Let the worker's refresh land before the next event (bounded
        // spin), so which thread prepared what is a fact: the first event
        // prepares for itself, every later one finds the worker got
        // there first.
        let due = Instant::now() + Duration::from_secs(20);
        while engine.stats().snapshot.session_refreshes <= u64::from(step) {
            assert!(Instant::now() < due, "refresh {step} never ran");
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let sink = MemorySink::new();
    engine.dump_flight_recorder(&sink);
    engine.shutdown_stats();

    let records = parse_records(&sink.lines());
    // One prepare on the reply path (the cold start) and one per refresh
    // on the worker. The worker's spans hang off the `session` span of
    // the event that asked for them, beside that event's own sub-stages
    // and under a span id of their own.
    let prepares: Vec<&Rec> = records.iter().filter(|r| r.stage == "session_prepare").collect();
    assert_eq!(prepares.len(), 1 + 3);
    for p in &prepares {
        assert_eq!(chain_to_root(&records, &p.span), ["session_prepare", "session", "admission"]);
    }
    let distinct: HashSet<&str> = prepares.iter().map(|p| p.span.as_str()).collect();
    assert_eq!(distinct.len(), prepares.len(), "the worker's prepare span must not reuse the event's id");
    let parents: HashSet<&str> = prepares.iter().map(|p| p.parent.as_str()).collect();
    assert_eq!(parents.len(), 3, "every event's session span parents a prepare");
    for want in ["session", "session_resolve", "session_apply", "session_commit"] {
        assert!(
            records.iter().any(|r| r.stage == want),
            "session append must record a {want} span"
        );
    }
    // Sub-stages hang off the session span, which hangs off admission.
    let resolve = records.iter().find(|r| r.stage == "session_resolve").expect("resolve span");
    let chain = chain_to_root(&records, &resolve.span);
    assert_eq!(chain, ["session_resolve", "session", "admission"]);

    // The one full-recompute mode (`capacity = 0`): every event is one
    // stateless prepare on the reply path, under its own session span.
    let engine = Engine::start(
        trained_model(),
        EngineConfig::default().with_workers(1).with_session_capacity(0),
    );
    for step in 0..3u32 {
        engine.append_event(77, None, step % 8 + 1, 5).expect("append");
    }
    let sink = MemorySink::new();
    engine.dump_flight_recorder(&sink);
    engine.shutdown_stats();
    let records = parse_records(&sink.lines());
    let prepares: Vec<&Rec> = records.iter().filter(|r| r.stage == "session_prepare").collect();
    assert_eq!(prepares.len(), 3);
    for p in &prepares {
        assert_eq!(chain_to_root(&records, &p.span), ["session_prepare", "session", "admission"]);
    }
    assert!(!records.iter().any(|r| r.stage == "session_apply"), "stateless mode has no append pass");
}

#[test]
fn registry_round_trips_through_prometheus_exposition() {
    let engine = Engine::start(trained_model(), EngineConfig::default().with_workers(1));
    for h in histories(5) {
        engine.submit(&h, 5).wait().expect("reply");
    }
    let snap = engine.stats().snapshot;
    let registry = engine.metrics_registry();

    let text = expo::render(&registry);
    let scrape = expo::parse(&text).expect("engine registry must render parseable exposition");
    assert_eq!(
        scrape.value("serve_requests"),
        Some(snap.requests as f64),
        "scraped counter must match the snapshot"
    );
    // The full retrieval-path metrics are registered from startup.
    for name in [
        "serve_retrieval_exact",
        "serve_retrieval_clustered",
        "serve_retrieval_certified",
        "serve_cache_hits",
        "serve_batches",
        "session_refreshes",
        "session_refresh_skipped",
    ] {
        assert!(scrape.value(name).is_some(), "metric {name} missing from exposition");
    }
    assert!(
        scrape
            .buckets("serve_latency_us")
            .last()
            .is_some_and(|(le, n)| le == "+Inf" && *n == snap.requests as f64),
        "latency +Inf bucket must count every request"
    );
    // Determinism satellite: rendering twice with no traffic in between
    // is byte-identical (sorted names, no timestamps).
    engine.shutdown_stats();
    assert_eq!(expo::render(&registry), expo::render(&registry));
}
