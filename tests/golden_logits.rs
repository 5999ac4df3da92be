//! Golden-value regression: eval-mode VSAN logits for a seeded tiny
//! configuration, pinned bit-for-bit in `tests/fixtures/golden_logits.txt`.
//!
//! The serving stack's whole correctness story leans on the eval-mode
//! forward being deterministic (`z = μ_λ`, dropout off, fixed
//! accumulation order). Unit tests prove *internal* consistency (batch
//! == single, threads == serial, served == offline); this fixture pins
//! the values *across commits*: any refactor that changes a single
//! mantissa bit of the forward — kernel reordering, accidental fastmath,
//! an initialization tweak — fails here, loudly, instead of silently
//! shifting every downstream ranking and benchmark.
//!
//! When a change is *supposed* to alter the forward (a new
//! initialization scheme, say), regenerate with:
//!
//! ```text
//! VSAN_REGEN_GOLDEN=1 cargo test --test golden_logits
//! ```
//!
//! and review the fixture diff like any other code change.

use vsan_repro::prelude::*;

/// Fixed histories probed against the model: empty (pure prior), short,
/// exactly-window-length, and longer-than-window (fold-in truncation).
fn probe_histories() -> Vec<Vec<u32>> {
    vec![
        vec![],
        vec![3],
        vec![1, 2, 3],
        vec![5, 2, 7, 1, 6, 3, 8, 4],
        (0..20).map(|t| t % 8 + 1).collect(),
    ]
}

/// The pinned environment: same tiny deterministic dataset shape the
/// serve tests use, single-threaded so the fixture does not even rely
/// on the (separately tested) thread-invariance guarantee.
fn trained_model() -> Vsan {
    let num_items = 8;
    let users = 12;
    let sequences = (0..users)
        .map(|u| (0..10).map(|t| ((u + t) % num_items + 1) as u32).collect())
        .collect();
    let ds = Dataset { name: "golden".into(), num_items, sequences };
    let train_users: Vec<usize> = (0..users).collect();
    let mut cfg = VsanConfig::smoke().with_threads(1);
    cfg.base.epochs = 2;
    Vsan::train(&ds, &train_users, &cfg).expect("smoke training")
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_logits.txt")
}

/// Serialize logit rows exactly: one `history` line (ids, space
/// separated) followed by one `logits` line of f32 *bit patterns* in
/// hex — no decimal round-trip, no tolerance, no ambiguity.
fn render(histories: &[Vec<u32>], rows: &[Vec<f32>]) -> String {
    let mut out = String::from(
        "# Golden eval-mode VSAN logits (f32 bit patterns, hex).\n\
         # Regenerate: VSAN_REGEN_GOLDEN=1 cargo test --test golden_logits\n",
    );
    for (history, row) in histories.iter().zip(rows) {
        out.push_str("history");
        for id in history {
            out.push_str(&format!(" {id}"));
        }
        out.push_str("\nlogits");
        for v in row {
            out.push_str(&format!(" {:08x}", v.to_bits()));
        }
        out.push('\n');
    }
    out
}

fn parse_fixture(text: &str) -> Vec<(Vec<u32>, Vec<f32>)> {
    let mut cases = Vec::new();
    let mut pending: Option<Vec<u32>> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("history") {
            pending = Some(
                rest.split_whitespace().map(|t| t.parse().expect("item id")).collect(),
            );
        } else if let Some(rest) = line.strip_prefix("logits") {
            let history = pending.take().expect("logits line without a history line");
            let row = rest
                .split_whitespace()
                .map(|t| f32::from_bits(u32::from_str_radix(t, 16).expect("hex bits")))
                .collect();
            cases.push((history, row));
        }
    }
    cases
}

#[test]
fn eval_logits_match_the_golden_fixture_bit_for_bit() {
    let model = trained_model();
    let histories = probe_histories();
    let windows: Vec<&[u32]> = histories.iter().map(|h| model.fold_in_window(h)).collect();
    let rows = model.try_score_items_batch(&windows).expect("eval forward");
    let path = fixture_path();

    if std::env::var("VSAN_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&path, render(&histories, &rows)).expect("write fixture");
        eprintln!("golden fixture regenerated at {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with VSAN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let golden = parse_fixture(&text);
    assert_eq!(golden.len(), histories.len(), "fixture covers every probe history");

    for (i, ((gold_history, gold_row), (history, row))) in
        golden.iter().zip(histories.iter().zip(&rows)).enumerate()
    {
        assert_eq!(gold_history, history, "probe history {i} drifted from the fixture");
        assert_eq!(gold_row.len(), row.len(), "logit row {i} length");
        for (j, (gold, got)) in gold_row.iter().zip(row).enumerate() {
            assert_eq!(
                gold.to_bits(),
                got.to_bits(),
                "logit [{i}][{j}] drifted: fixture {gold} ({:08x}), got {got} ({:08x})",
                gold.to_bits(),
                got.to_bits()
            );
        }
    }

    // The graph oracle must match the fixture too: the rows above are the
    // graph-free plan's, so this holds the two forwards to the same bits.
    let graph_rows = model.score_items_batch_graph(&windows).expect("graph path");
    for (i, ((_, gold_row), graph_row)) in golden.iter().zip(&graph_rows).enumerate() {
        assert_eq!(gold_row.len(), graph_row.len(), "graph-path row {i} length");
        for (j, (gold, got)) in gold_row.iter().zip(graph_row).enumerate() {
            assert_eq!(
                gold.to_bits(),
                got.to_bits(),
                "graph-path logit [{i}][{j}] drifted from the fixture"
            );
        }
    }

    // The incremental streaming path must reproduce the fixture too:
    // prepare a session over every prefix of each probe history and fold
    // the final item in with one append pass — the append logits are the
    // pinned logits, bit for bit (slot-aligned prefix determinism,
    // DESIGN.md §11).
    let mut ws = Workspace::new();
    let mut state = SessionState::new();
    for (i, (history, gold_row)) in golden.iter().enumerate() {
        let Some((&last, prefix)) = history.split_last() else { continue };
        model.prepare_session_into(prefix, None, &mut state, &mut ws).expect("prepare");
        let streamed = model.append_session_logits(&state, last, &mut ws).expect("append");
        assert_eq!(streamed.len(), gold_row.len());
        for (j, (gold, got)) in gold_row.iter().zip(&streamed).enumerate() {
            assert_eq!(
                gold.to_bits(),
                got.to_bits(),
                "streamed logit [{i}][{j}] drifted from the fixture"
            );
        }
    }

    // The fixture also pins the serving layer end to end: an engine over
    // the same model must rank exactly as the pinned logits imply — on
    // the batch path and on the streaming `append_event` path alike.
    let engine = Engine::start(model, EngineConfig::default());
    for (user, (history, _)) in golden.iter().enumerate() {
        let served = engine.recommend(history, 5).expect("fault-free serve");
        assert_eq!(served, engine.model().recommend(history, 5).unwrap());
        if let Some((&last, prefix)) = history.split_last() {
            let streamed = engine
                .append_event(user as u64, Some(prefix), last, 5)
                .expect("fault-free append");
            assert_eq!(streamed, engine.model().recommend(history, 5).unwrap());
        }
    }
    engine.shutdown_stats();
}
