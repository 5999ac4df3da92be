#![warn(missing_docs)]

//! # vsan-session
//!
//! Incremental session inference for VSAN serving (DESIGN.md §11): a
//! per-user, prefix-keyed cache of every attention block's K/V
//! projections over the history's fold-in window, so the reply to a
//! live session's event costs one `O(n·d²)` append pass; the full
//! `O(n²·d)` pass that re-aligns the window for the next event runs off
//! the reply path.
//!
//! * [`SessionStore`] — LRU-bounded map from user id to session
//!   slot, with longest-cached-prefix lookup over lock-free history
//!   snapshots. Eviction is *transparent*: it can cost a cold start,
//!   never an error, and never corrupts an in-flight sibling.
//! * [`SessionRuntime`] — the per-event protocol (`append_event`:
//!   validate → resolve → prepare if stale → append → commit) and the
//!   `refresh` that re-prepares a state after its event was answered,
//!   bit-identical to full recompute under any schedule of the two
//!   (the core differential suite, the runtime schedule proptest and
//!   `scripts/verify.sh`'s one-core run hold this).
//!
//! `vsan-serve` wires this behind `Engine::append_event`, with
//! `session.*` metrics and `session_evicted` / `session_reset` fault
//! events.

pub mod runtime;
pub mod store;

pub use runtime::{AppendResult, SessionOutcome, SessionRuntime, SessionStats, SessionTrace};
pub use store::{Eviction, PrefixHit, SessionConfig, SessionEntry, SessionStore};
