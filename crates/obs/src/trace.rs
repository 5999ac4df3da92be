//! Request-scoped trace identity: the [`TraceContext`] minted at
//! admission and propagated through every serving stage.
//!
//! It answers "what happened to *this request*": a [`TraceContext`]
//! carries a process-unique `trace_id` (one per request) and a
//! `span_id` per stage, with `parent_span_id` links, so the stage
//! records of one request reassemble into a causal tree:
//! admission → queue pickup → worker compute → retrieval / session /
//! degraded resolution → completion.
//!
//! Ids are derived with splitmix64 from a configured seed and a
//! monotonically increasing admission sequence number — **never** from
//! wall-clock or thread identity — so two runs of the same workload
//! mint the same ids in the same order (DESIGN.md §13). Like every
//! other piece of telemetry (§8), trace ids are write-only: nothing
//! reads them back into control flow, so tracing enabled vs. disabled
//! serves bit-identical rankings.

use crate::json::JsonObj;

/// The splitmix64 mixer (public-domain constants; the same generator
/// `vsan-tensor` seeds k-means with — re-derived here because
/// `vsan-obs` depends on nothing).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Render an id as the fixed-width lowercase hex the JSONL schema uses
/// (`0` pads to 16 digits, so ids sort and diff as strings).
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Which serving stage a trace span records. Codes are the stable wire
/// encoding inside the flight-recorder ring; names are the stable JSONL
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceStage {
    /// Request accepted (or short-circuited) at `submit` /
    /// `append_event`. Every trace has exactly one admission root.
    Admission = 1,
    /// Served from the exact-window sequence cache at admission.
    CacheHit = 2,
    /// Picked out of the admission queue by the micro-batcher.
    Pickup = 3,
    /// Entered a worker's batched forward (recorded *before* the
    /// forward runs, so a panicking batch leaves the span behind).
    Compute = 4,
    /// Clustered MIPS probe + exact re-rank for one request.
    Retrieval = 5,
    /// Terminal resolution (response or typed error) delivered.
    Complete = 6,
    /// Answered by a degraded fallback (approximate cache/popularity).
    Degraded = 7,
    /// Evicted from a full queue under `ShedOldest`.
    Shed = 8,
    /// Refused at admission: the window holds an out-of-vocabulary id.
    Rejected = 9,
    /// Deadline expired (admission, pickup, or completion — the `attr`
    /// carries the stage).
    DeadlineMiss = 10,
    /// Requeued out of a poisoned batch after a worker panic.
    Requeued = 11,
    /// Incremental-session event served (`Engine::append_event`).
    Session = 12,
    /// Session store resolution: own entry / sibling / cold decision.
    SessionResolve = 13,
    /// Full state prepare on the session path: on the reply path when
    /// the event found no fresh state (cold start / resume / reset), on
    /// a pool worker for the refresh after the reply.
    SessionPrepare = 14,
    /// The one-row append pass.
    SessionApply = 15,
    /// Session snapshot committed back to the store (evictions fire
    /// here).
    SessionCommit = 16,
}

impl TraceStage {
    /// Stable numeric wire code (what the flight recorder stores).
    pub fn code(&self) -> u64 {
        *self as u64
    }

    /// Decode a wire code; `None` for anything this build doesn't know.
    pub fn from_code(code: u64) -> Option<TraceStage> {
        Some(match code {
            1 => TraceStage::Admission,
            2 => TraceStage::CacheHit,
            3 => TraceStage::Pickup,
            4 => TraceStage::Compute,
            5 => TraceStage::Retrieval,
            6 => TraceStage::Complete,
            7 => TraceStage::Degraded,
            8 => TraceStage::Shed,
            9 => TraceStage::Rejected,
            10 => TraceStage::DeadlineMiss,
            11 => TraceStage::Requeued,
            12 => TraceStage::Session,
            13 => TraceStage::SessionResolve,
            14 => TraceStage::SessionPrepare,
            15 => TraceStage::SessionApply,
            16 => TraceStage::SessionCommit,
            _ => return None,
        })
    }

    /// Stable wire name, snake_case.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceStage::Admission => "admission",
            TraceStage::CacheHit => "cache_hit",
            TraceStage::Pickup => "pickup",
            TraceStage::Compute => "compute",
            TraceStage::Retrieval => "retrieval",
            TraceStage::Complete => "complete",
            TraceStage::Degraded => "degraded",
            TraceStage::Shed => "shed",
            TraceStage::Rejected => "rejected",
            TraceStage::DeadlineMiss => "deadline_miss",
            TraceStage::Requeued => "requeued",
            TraceStage::Session => "session",
            TraceStage::SessionResolve => "session_resolve",
            TraceStage::SessionPrepare => "session_prepare",
            TraceStage::SessionApply => "session_apply",
            TraceStage::SessionCommit => "session_commit",
        }
    }
}

impl std::fmt::Display for TraceStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Trace identity carried by one request through the serving stack.
///
/// `trace_id` names the request (constant across all of its spans);
/// `span_id` names the current stage; `parent_span_id` links to the
/// stage that caused it (0 = root). Contexts are `Copy` — they ride
/// inside the queued request and cost nothing to propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Request identity, shared by every span of this request.
    pub trace_id: u64,
    /// This stage's span id.
    pub span_id: u64,
    /// The causing stage's span id (0 for the admission root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Mint the admission-root context for admission number `seq` under
    /// `seed`. Deterministic: the same `(seed, seq)` always yields the
    /// same ids, and ids are never 0 (0 is the "no parent" sentinel).
    pub fn root(seed: u64, seq: u64) -> TraceContext {
        let mut s = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let id = splitmix64(&mut s).max(1);
        TraceContext { trace_id: id, span_id: id, parent_span_id: 0 }
    }

    /// Derive the child context for a downstream stage. `salt`
    /// disambiguates siblings (by convention the stage code, plus any
    /// retry counter shifted above it): the same parent and salt always
    /// derive the same child span id.
    pub fn child(&self, salt: u64) -> TraceContext {
        let mut s = self.span_id ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let span = splitmix64(&mut s).max(1);
        TraceContext { trace_id: self.trace_id, span_id: span, parent_span_id: self.span_id }
    }

    /// `true` for an admission root (no parent).
    pub fn is_root(&self) -> bool {
        self.parent_span_id == 0
    }
}

/// One stage event of one request — what the flight recorder stores and
/// what a forensic dump emits, one JSONL line each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Whose span this is and where it hangs in the tree.
    pub ctx: TraceContext,
    /// Which stage fired.
    pub stage: TraceStage,
    /// Microseconds since the engine's origin instant when the stage
    /// fired.
    pub at_us: u64,
    /// Stage duration in microseconds (0 for instantaneous events and
    /// for stage *entries* recorded before the work runs).
    pub dur_us: u64,
    /// Stage-specific attribute (queue depth, batch size, packed
    /// probe/survivor counts, outcome codes — see DESIGN.md §13).
    pub attr: u64,
}

impl TraceSpan {
    /// Render as one `"trace_span"` JSONL record.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("type", "trace_span")
            .str("trace_id", &hex_id(self.ctx.trace_id))
            .str("span_id", &hex_id(self.ctx.span_id))
            .str("parent_span_id", &hex_id(self.ctx.parent_span_id))
            .str("stage", self.stage.as_str())
            .u64("at_us", self.at_us)
            .u64("dur_us", self.dur_us)
            .u64("attr", self.attr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_deterministic_distinct_and_nonzero() {
        let a = TraceContext::root(7, 0);
        let b = TraceContext::root(7, 0);
        let c = TraceContext::root(7, 1);
        let d = TraceContext::root(8, 0);
        assert_eq!(a, b, "same (seed, seq) must mint the same root");
        assert_ne!(a.trace_id, c.trace_id);
        assert_ne!(a.trace_id, d.trace_id);
        assert!(a.is_root());
        assert_ne!(a.trace_id, 0);
        assert_eq!(a.span_id, a.trace_id);
    }

    #[test]
    fn children_link_to_their_parent_and_keep_the_trace_id() {
        let root = TraceContext::root(42, 9);
        let pickup = root.child(TraceStage::Pickup.code());
        let compute = pickup.child(TraceStage::Compute.code());
        assert_eq!(pickup.trace_id, root.trace_id);
        assert_eq!(pickup.parent_span_id, root.span_id);
        assert_eq!(compute.parent_span_id, pickup.span_id);
        assert!(!pickup.is_root());
        // Sibling salts derive distinct spans; equal salts re-derive.
        assert_ne!(root.child(1).span_id, root.child(2).span_id);
        assert_eq!(root.child(1), root.child(1));
    }

    #[test]
    fn stage_codes_round_trip() {
        for code in 0..32u64 {
            if let Some(stage) = TraceStage::from_code(code) {
                assert_eq!(stage.code(), code);
                let name = stage.as_str();
                assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            }
        }
        assert_eq!(TraceStage::from_code(0), None);
        assert_eq!(TraceStage::from_code(999), None);
    }

    #[test]
    fn span_json_is_parseable_and_hex_padded() {
        let span = TraceSpan {
            ctx: TraceContext { trace_id: 0xAB, span_id: 0xCD, parent_span_id: 0 },
            stage: TraceStage::Compute,
            at_us: 12,
            dur_us: 3,
            attr: 4,
        };
        let v = crate::json::parse(&span.to_json()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("trace_span"));
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("00000000000000ab"));
        assert_eq!(v.get("parent_span_id").unwrap().as_str(), Some("0000000000000000"));
        assert_eq!(v.get("stage").unwrap().as_str(), Some("compute"));
        assert_eq!(v.get("attr").unwrap().as_u64(), Some(4));
    }
}
