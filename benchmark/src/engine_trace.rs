//! Reading the engine's flight recorder: converting its stage records
//! into the harness's span format and reducing them to one median per
//! stage.
//!
//! The recorder stores *events*, not intervals. Each request's chain is
//! `admission → pickup → compute → (retrieval) → complete`, where
//! `admission`, `compute` and `retrieval` are zero-length entry markers,
//! `pickup` carries the queue wait that ended at the marker, and
//! `complete` carries the whole enqueue-to-reply time. Session appends
//! record `admission → session → {resolve, prepare, apply, commit}` and
//! `complete`. The stage figures below are differences between those
//! markers, which is all the public API exposes; spans inside the crates
//! are a later change.

use std::collections::HashMap;

use crate::spans::Span;
use crate::stats::median;
use crate::surface::EngineSpan;

/// Span name of an engine stage: `serve.<stage>`, or `session.<stage>`
/// for the session sub-stages.
fn span_name(stage: &str) -> &'static str {
    match stage {
        "admission" => "serve.admission",
        "cache_hit" => "serve.cache_hit",
        "pickup" => "serve.pickup",
        "compute" => "serve.compute",
        "retrieval" => "serve.retrieval",
        "complete" => "serve.complete",
        "degraded" => "serve.degraded",
        "shed" => "serve.shed",
        "rejected" => "serve.rejected",
        "deadline_miss" => "serve.deadline_miss",
        "requeued" => "serve.requeued",
        "session" => "session.append",
        "session_resolve" => "session.resolve",
        "session_prepare" => "session.prepare",
        "session_apply" => "session.apply",
        "session_commit" => "session.commit",
        _ => "serve.other",
    }
}

/// Convert recorder spans into harness spans: stage → name, `at_us` →
/// end, `at_us − dur_us` → start, `parent_span_id` → parent, `trace_id`
/// → trace. `offset_ns` is the engine clock's zero on the harness clock;
/// a request's root hangs under `roots[trace]`, the harness span that
/// sent it, when there is one.
pub fn to_spans(records: &[EngineSpan], offset_ns: u64, roots: &HashMap<u64, u64>) -> Vec<Span> {
    records
        .iter()
        .map(|r| Span {
            name: span_name(r.stage),
            start_ns: offset_ns + r.at_us.saturating_sub(r.dur_us) * 1000,
            end_ns: offset_ns + r.at_us * 1000,
            id: r.span,
            parent: if r.parent == 0 {
                roots.get(&r.trace).copied().unwrap_or(0)
            } else {
                r.parent
            },
            trace: r.trace,
        })
        .collect()
}

/// Where the engine clock's zero sits on the harness clock: the oldest
/// recorded admission marker is written at the top of a submit whose
/// harness-side start time is known.
pub fn clock_offset_ns(records: &[EngineSpan], harness_start_ns: &HashMap<u64, u64>) -> u64 {
    records
        .iter()
        .filter(|r| r.stage == "admission")
        .find_map(|r| {
            Some(
                harness_start_ns
                    .get(&r.trace)?
                    .saturating_sub(r.at_us * 1000),
            )
        })
        .unwrap_or(0)
}

/// Median microseconds per stage over the requests whose whole chain is
/// still in the ring. 0 where the stage never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageMedians {
    /// Queue wait: enqueue → picked up by the batcher.
    pub pickup_us: f64,
    /// Batch formation and hand-off: picked up → compute entry.
    pub batch_us: f64,
    /// Compute entry → reply sent (forward, head, top-k or retrieval).
    pub compute_us: f64,
    /// One clustered query: gap between a retrieval marker and the
    /// record written before it (exact with one engine worker, a lower
    /// bound when several interleave).
    pub retrieval_us: f64,
    /// Enqueue → reply, the engine's own view of the request.
    pub complete_us: f64,
    /// A sequence-cache hit: lookup plus ranking.
    pub cache_hit_us: f64,
    /// Session sub-stages of an append.
    pub session_resolve_us: f64,
    /// Re-preparing the state for the grown history (and cold starts).
    pub session_prepare_us: f64,
    /// The append pass itself.
    pub session_apply_us: f64,
    /// Publishing the snapshot and evicting.
    pub session_commit_us: f64,
}

/// Reduce a recorder snapshot (oldest first) to per-stage medians.
pub fn stage_medians(records: &[EngineSpan]) -> StageMedians {
    #[derive(Default, Clone, Copy)]
    struct Chain {
        pickup: Option<(u64, u64)>,
        compute_at: Option<u64>,
        complete: Option<(u64, u64)>,
    }
    let mut chains: HashMap<u64, Chain> = HashMap::new();
    let mut by_stage: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut retrieval = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let chain = chains.entry(r.trace).or_default();
        match r.stage {
            "pickup" => chain.pickup = Some((r.at_us, r.dur_us)),
            "compute" => chain.compute_at = Some(r.at_us),
            "complete" => chain.complete = Some((r.at_us, r.dur_us)),
            "retrieval" if i > 0 => {
                retrieval.push(r.at_us.saturating_sub(records[i - 1].at_us) as f64)
            }
            "cache_hit" | "session_resolve" | "session_prepare" | "session_apply"
            | "session_commit" => {
                by_stage.entry(r.stage).or_default().push(r.dur_us as f64);
            }
            _ => {}
        }
    }
    let (mut pickup, mut batch, mut compute, mut complete) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for c in chains.values() {
        match (c.pickup, c.compute_at, c.complete) {
            (Some((picked_at, wait)), Some(compute_at), Some((done_at, total))) => {
                pickup.push(wait as f64);
                batch.push(compute_at.saturating_sub(picked_at) as f64);
                compute.push(done_at.saturating_sub(compute_at) as f64);
                complete.push(total as f64);
            }
            // An operation answered on the caller's thread (a session
            // append) never queues: its chain is just `complete`.
            (None, None, Some((_, total))) => complete.push(total as f64),
            // A queued request whose chain the ring's wrap-around cut.
            _ => {}
        }
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let stage = |name: &str| by_stage.get(name).map_or(0.0, |v| med(v));
    StageMedians {
        pickup_us: med(&pickup),
        batch_us: med(&batch),
        compute_us: med(&compute),
        retrieval_us: med(&retrieval),
        complete_us: med(&complete),
        cache_hit_us: stage("cache_hit"),
        session_resolve_us: stage("session_resolve"),
        session_prepare_us: stage("session_prepare"),
        session_apply_us: stage("session_apply"),
        session_commit_us: stage("session_commit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        ticket: u64,
        trace: u64,
        span: u64,
        parent: u64,
        stage: &'static str,
        at_us: u64,
        dur_us: u64,
    ) -> EngineSpan {
        EngineSpan {
            ticket,
            trace,
            span,
            parent,
            stage,
            at_us,
            dur_us,
            attr: 0,
        }
    }

    /// Two batched requests and one cache hit, as the engine records
    /// them.
    fn sample() -> Vec<EngineSpan> {
        vec![
            rec(0, 1, 10, 0, "admission", 100, 0),
            rec(1, 2, 20, 0, "admission", 150, 0),
            rec(2, 1, 11, 10, "pickup", 400, 300),
            rec(3, 2, 21, 20, "pickup", 410, 260),
            rec(4, 1, 12, 11, "compute", 2_400, 0),
            rec(5, 2, 22, 21, "compute", 2_401, 0),
            rec(6, 1, 13, 12, "retrieval", 3_000, 0),
            rec(7, 1, 14, 12, "complete", 3_010, 2_910),
            rec(8, 2, 23, 22, "retrieval", 3_500, 0),
            rec(9, 2, 24, 22, "complete", 3_520, 3_370),
            rec(10, 3, 30, 0, "admission", 4_000, 0),
            rec(11, 3, 31, 30, "cache_hit", 4_030, 30),
        ]
    }

    #[test]
    fn stage_medians_are_marker_differences() {
        let m = stage_medians(&sample());
        assert_eq!(m.pickup_us, 280.0); // median(300, 260)
        assert_eq!(m.batch_us, 1_995.5); // median(2000, 1991)
        assert_eq!(m.compute_us, 864.5); // median(610, 1119)
        assert_eq!(m.complete_us, 3_140.0); // median(2910, 3370)
        assert_eq!(m.retrieval_us, 544.5); // median(3000-2401, 3500-3010)
        assert_eq!(m.cache_hit_us, 30.0);
        assert_eq!(m.session_apply_us, 0.0);
    }

    #[test]
    fn an_append_contributes_its_complete_and_session_stages() {
        let records = vec![
            rec(0, 9, 90, 0, "admission", 10, 0),
            rec(1, 9, 91, 90, "session", 10, 0),
            rec(2, 9, 92, 91, "session_resolve", 12, 2),
            rec(3, 9, 93, 91, "session_apply", 2_012, 2_000),
            rec(4, 9, 94, 91, "session_prepare", 4_012, 1_900),
            rec(5, 9, 95, 91, "session_commit", 4_013, 1),
            rec(6, 9, 96, 90, "complete", 4_050, 4_040),
        ];
        let m = stage_medians(&records);
        assert_eq!(
            (m.complete_us, m.pickup_us, m.compute_us),
            (4_040.0, 0.0, 0.0)
        );
        assert_eq!((m.session_resolve_us, m.session_apply_us), (2.0, 2_000.0));
        assert_eq!((m.session_prepare_us, m.session_commit_us), (1_900.0, 1.0));
    }

    #[test]
    fn a_chain_cut_by_the_ring_is_skipped() {
        // Request 1 lost its pickup to the ring's wrap-around.
        let records: Vec<EngineSpan> = sample()
            .into_iter()
            .filter(|r| !(r.trace == 1 && r.stage == "pickup"))
            .collect();
        let m = stage_medians(&records);
        assert_eq!(m.pickup_us, 260.0);
        assert_eq!(m.complete_us, 3_370.0);
    }

    #[test]
    fn conversion_keeps_the_tree_and_hangs_roots_under_the_client() {
        let mut harness_start = HashMap::new();
        harness_start.insert(1u64, 1_000_000u64); // request 1 was sent at 1 ms on the harness clock
        let offset = clock_offset_ns(&sample(), &harness_start);
        assert_eq!(offset, 900_000); // engine zero = 1 ms − 100 µs
        let mut roots = HashMap::new();
        roots.insert(1u64, 77u64);
        let spans = to_spans(&sample(), offset, &roots);
        assert_eq!(spans[0].name, "serve.admission");
        assert_eq!(
            (spans[0].parent, spans[0].start_ns, spans[0].end_ns),
            (77, 1_000_000, 1_000_000)
        );
        assert_eq!(spans[1].parent, 0); // request 2 has no harness span
        let pickup = &spans[2];
        assert_eq!(
            (pickup.name, pickup.parent, pickup.id),
            ("serve.pickup", 10, 11)
        );
        assert_eq!(
            (pickup.start_ns, pickup.end_ns),
            (900_000 + 100_000, 900_000 + 400_000)
        );
        assert_eq!(spans[11].name, "serve.cache_hit");
    }
}
