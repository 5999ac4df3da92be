//! Differential property suite for incremental session inference
//! (DESIGN.md §11): for **any** interleaving of appends, cold starts,
//! and evictions, `Vsan::append_session_logits` over a prepared
//! [`SessionState`] must produce logits bit-identical to a full
//! recompute of the same history.
//!
//! The oracle on every event is `score_items_batch_graph` — the
//! autograd tape, the only implementation that does not share the
//! `(prefix, tail, keep)` pass with the code under test. Each event is
//! also held against `try_score_items_batch`, the full recompute the
//! session runtime's `capacity = 0` mode serves. Equality is
//! `f32::to_bits`, no tolerance.

use proptest::prelude::*;
use vsan_core::{SessionState, Vsan, VsanConfig, Workspace};

/// Build an untrained model for one sampled point of the config space.
fn build_model(dim: usize, n: usize, vocab: usize, h1: usize, h2: usize, flags: u8, seed: u64) -> Vsan {
    let mut cfg = VsanConfig::smoke().with_blocks(h1, h2).with_seed(seed).with_threads(1);
    cfg.base.dim = dim;
    cfg.base.max_seq_len = n;
    cfg.use_latent = flags & 1 != 0;
    cfg.infer_ffn = flags & 2 != 0;
    cfg.gene_ffn = flags & 4 != 0;
    cfg.tie_prediction = flags & 8 != 0;
    Vsan::init(vocab, &cfg)
}

/// One streaming user: the history seen so far plus the prepared state
/// (`None` ≈ evicted — the next event is a transparent cold start).
struct Session {
    history: Vec<u32>,
    state: Option<SessionState>,
}

/// Drive an op stream `(user, raw item, evict-first)` through the
/// session path and hold every event's logits against the graph oracle
/// and the production recompute. Mirrors what the `vsan-session` runtime
/// does per event: cold-prepare when no state exists, append, then
/// re-prepare for the grown history (the state caches a *window*, so
/// each append re-aligns slots — see DESIGN.md §11).
fn run_stream(model: &Vsan, pad: &SessionState, ops: &[(u8, u32, u8)], vocab: usize) {
    let mut ws = Workspace::new();
    let mut sessions: Vec<Session> =
        (0..4).map(|_| Session { history: Vec::new(), state: None }).collect();
    for &(user, raw, evict) in ops {
        let s = &mut sessions[(user % 4) as usize];
        if evict == 0 {
            // Eviction drops only the cached state; the client-side
            // history survives and the next event cold-starts.
            s.state = None;
        }
        let item = 1 + raw % (vocab as u32 - 1);
        if s.state.is_none() {
            let mut st = SessionState::new();
            model
                .prepare_session_into(&s.history, Some(pad), &mut st, &mut ws)
                .expect("cold prepare");
            s.state = Some(st);
        }
        let got = model
            .append_session_logits(s.state.as_ref().unwrap(), item, &mut ws)
            .expect("append");
        s.history.push(item);
        model
            .prepare_session_into(&s.history, Some(pad), s.state.as_mut().unwrap(), &mut ws)
            .expect("re-prepare");

        let window = model.fold_in_window(&s.history);
        let graph = model.score_items_batch_graph(&[window]).expect("graph oracle").pop().unwrap();
        let recompute = model.try_score_items_batch(&[window]).expect("recompute").pop().unwrap();
        for (name, oracle) in [("graph oracle", &graph), ("recompute", &recompute)] {
            prop_assert_eq!(got.len(), oracle.len());
            for (j, (a, b)) in got.iter().zip(oracle).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "logit [{}] diverged after history {:?}: append {} ({:08x}) vs {} {} ({:08x})",
                    j,
                    s.history,
                    a,
                    a.to_bits(),
                    name,
                    b,
                    b.to_bits()
                );
            }
        }
    }
}

#[test]
fn streaming_appends_match_recompute_across_the_config_grid() {
    // Every block-count shape the model supports × the ablation flags,
    // with three interleaved users, two evictions, and histories that
    // grow past the fold-in window (n = 6, 28 events over 3 users).
    for (h1, h2) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)] {
        for flags in [0b0000u8, 0b0111, 0b1000, 0b1111] {
            let vocab = 13;
            let model = build_model(8, 6, vocab, h1, h2, flags, 7);
            let pad = model.pad_session_state().expect("pad state");
            let ops: Vec<(u8, u32, u8)> = (0..28)
                .map(|i| ((i % 3) as u8, (i * 7 + 1) as u32, u8::from(i != 9 && i != 17)))
                .collect();
            run_stream(&model, &pad, &ops, vocab);
        }
    }
}

#[test]
fn single_slot_window_appends_are_pure_cold_starts() {
    // n = 1 means the prefix window is empty (m = 0): every append is
    // attention over exactly one fresh row. The degenerate end of the
    // slot-aligned-prefix invariant.
    let vocab = 9;
    let model = build_model(4, 1, vocab, 1, 1, 0b0101, 3);
    let pad = model.pad_session_state().expect("pad state");
    let ops: Vec<(u8, u32, u8)> = (0..6).map(|i| (0u8, (i * 5 + 2) as u32, 1u8)).collect();
    run_stream(&model, &pad, &ops, vocab);
}

#[test]
fn prepare_without_donor_matches_donor_assisted_prepare() {
    // The donor only short-circuits the all-padding rows; computing them
    // from scratch must land on the same bits.
    let vocab = 11;
    let model = build_model(6, 8, vocab, 1, 1, 0b0011, 5);
    let pad = model.pad_session_state().expect("pad state");
    let mut ws = Workspace::new();
    let history = [3u32, 7, 1, 4];
    let mut with_donor = SessionState::new();
    let mut without = SessionState::new();
    model.prepare_session_into(&history, Some(&pad), &mut with_donor, &mut ws).unwrap();
    model.prepare_session_into(&history, None, &mut without, &mut ws).unwrap();
    let a = model.append_session_logits(&with_donor, 9, &mut ws).unwrap();
    let b = model.append_session_logits(&without, 9, &mut ws).unwrap();
    let grown: Vec<u32> = history.iter().copied().chain([9]).collect();
    let graph = model.score_items_batch_graph(&[&grown]).unwrap().pop().unwrap();
    assert_eq!(a.len(), graph.len());
    for ((x, y), g) in a.iter().zip(&b).zip(&graph) {
        assert_eq!(x.to_bits(), g.to_bits());
        assert_eq!(y.to_bits(), g.to_bits());
    }
    assert_eq!(with_donor.pad_slots(), 8 - 1 - history.len());
    assert_eq!(with_donor.real_slots(), history.len());
    assert!(with_donor.bytes() > 0);
}

#[test]
fn invalid_session_inputs_error_instead_of_crashing() {
    let vocab = 9;
    let model = build_model(4, 4, vocab, 1, 0, 0b0001, 1);
    let mut ws = Workspace::new();

    // Appending into an unprepared state is a handled error (the serve
    // layer turns it into a cold start, never a panic).
    let unprepared = SessionState::new();
    assert!(model.append_session_logits(&unprepared, 1, &mut ws).is_err());

    let pad = model.pad_session_state().unwrap();
    let mut state = SessionState::new();
    model.prepare_session_into(&[1, 2], Some(&pad), &mut state, &mut ws).unwrap();
    // Out-of-vocabulary ids are rejected at append and at prepare, the
    // same condition `execute` rejects.
    assert!(model.append_session_logits(&state, 500, &mut ws).is_err());
    assert!(model.prepare_session_into(&[500], Some(&pad), &mut state, &mut ws).is_err());
    // A cleared state refuses appends until re-prepared.
    model.prepare_session_into(&[1, 2], Some(&pad), &mut state, &mut ws).unwrap();
    state.clear();
    assert!(!state.is_prepared());
    assert!(model.append_session_logits(&state, 1, &mut ws).is_err());
}

proptest! {
    #[test]
    fn any_interleaving_of_append_cold_evict_matches_recompute(
        dim in 2usize..10,
        n in 1usize..8,
        vocab in 3usize..16,
        h1 in 0usize..3,
        h2 in 0usize..3,
        flags in 0u8..16,
        seed in 0u64..10_000,
        // (user, raw item, evict-first when 0 — a 25% eviction rate)
        ops in collection::vec((0u8..4, 0u32..4096, 0u8..4), 1..24),
    ) {
        let model = build_model(dim, n, vocab, h1, h2, flags, seed);
        let pad = model.pad_session_state().expect("pad state");
        run_stream(&model, &pad, &ops, vocab);
    }
}
