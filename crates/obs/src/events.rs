//! Structured fault events for the serving layer.
//!
//! One JSONL record type, `"serve_fault"`, shared by every
//! fault-tolerance mechanism in `vsan-serve`: panics, respawns,
//! requeues, deadline misses, backpressure actions, and degraded-mode
//! transitions. Keeping the type here (rather than in `vsan-serve`)
//! keeps the telemetry schema in one crate, next to the sinks and the
//! parser that consume it.
//!
//! Like all telemetry in this workspace (DESIGN.md §8), fault events
//! are write-only: nothing reads them back into control flow.

use crate::json::JsonObj;
use crate::sink::EventSink;

/// What kind of fault (or fault response) an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker panicked and was caught at the batch boundary.
    WorkerPanic,
    /// A replacement worker was spawned after a panic.
    WorkerRespawn,
    /// Untouched requests from a poisoned batch were requeued.
    BatchRequeued,
    /// A whole batch was discarded (the `drop_batch` failpoint).
    BatchDropped,
    /// A request's deadline expired (detail says at which stage).
    DeadlineMiss,
    /// A queued request was evicted at a full queue (`ShedOldest`).
    Shed,
    /// A request was answered by a degraded fallback.
    Degraded,
    /// The engine entered permanent degraded mode (all workers down).
    DegradedMode,
    /// A request found no fallback and errored `Overloaded`.
    Overloaded,
    /// The sequence cache was cleared after a poisoned lock.
    CachePoisoned,
    /// The model forward itself returned an error (the batch was
    /// answered through the degraded path instead of fabricated zeros).
    ModelError,
    /// An incremental session was evicted (LRU capacity);
    /// the next event for that user transparently cold-starts.
    SessionEvicted,
    /// A client history hint contradicted a cached session; the cached
    /// state was discarded and rebuilt from the hint.
    SessionReset,
}

impl FaultKind {
    /// Stable wire name, snake_case.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::WorkerRespawn => "worker_respawn",
            FaultKind::BatchRequeued => "batch_requeued",
            FaultKind::BatchDropped => "batch_dropped",
            FaultKind::DeadlineMiss => "deadline_miss",
            FaultKind::Shed => "shed",
            FaultKind::Degraded => "degraded",
            FaultKind::DegradedMode => "degraded_mode",
            FaultKind::Overloaded => "overloaded",
            FaultKind::CachePoisoned => "cache_poisoned",
            FaultKind::ModelError => "model_error",
            FaultKind::SessionEvicted => "session_evicted",
            FaultKind::SessionReset => "session_reset",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One fault event, ready to serialize as a `"serve_fault"` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// What happened.
    pub kind: FaultKind,
    /// Free-form context: which worker, which stage, how many requests.
    pub detail: String,
}

impl FaultEvent {
    /// Build an event.
    pub fn new(kind: FaultKind, detail: impl Into<String>) -> Self {
        FaultEvent { kind, detail: detail.into() }
    }

    /// One JSONL line: `{"type":"serve_fault","kind":...,"detail":...}`.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("type", "serve_fault")
            .str("kind", self.kind.as_str())
            .str("detail", &self.detail)
            .finish()
    }

    /// Serialize and write to `sink`.
    pub fn emit(&self, sink: &dyn EventSink) {
        sink.emit(&self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::sink::MemorySink;

    #[test]
    fn wire_names_are_snake_case() {
        for kind in [
            FaultKind::WorkerPanic,
            FaultKind::WorkerRespawn,
            FaultKind::BatchRequeued,
            FaultKind::BatchDropped,
            FaultKind::DeadlineMiss,
            FaultKind::Shed,
            FaultKind::Degraded,
            FaultKind::DegradedMode,
            FaultKind::Overloaded,
            FaultKind::CachePoisoned,
            FaultKind::ModelError,
            FaultKind::SessionEvicted,
            FaultKind::SessionReset,
        ] {
            let name = kind.as_str();
            assert!(!name.is_empty());
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{name}");
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn emits_valid_jsonl() {
        let sink = MemorySink::new();
        FaultEvent::new(FaultKind::WorkerPanic, "worker-3").emit(&sink);
        assert_eq!(sink.len(), 1);
        let v = parse(&sink.lines()[0]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("serve_fault"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("worker_panic"));
        assert_eq!(v.get("detail").unwrap().as_str(), Some("worker-3"));
    }
}
