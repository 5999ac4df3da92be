//! Graceful degradation: answer *something* when the engine cannot
//! afford (overload) or is unable (workers down) to run the forward
//! pass.
//!
//! Two fallbacks, tried in order, both deterministic:
//!
//! 1. **Approximate cache** — probe the LRU for the exact fold-in
//!    window and up to four progressively shorter suffixes of it (always
//!    on). A hit means "the
//!    ranking for this user as of a few interactions ago": slightly
//!    stale, bit-reproducible, and far better than an error. Probes
//!    are bounded hash lookups; no forward pass runs.
//! 2. **Popularity scorer** — a static per-item score table supplied at
//!    engine start ([`crate::EngineConfig::with_popularity`], typically
//!    training-set interaction counts). The
//!    classic "most popular, minus what you've seen" answer of last
//!    resort.
//!
//! Every degraded response is tagged with its source
//! ([`crate::ResponseSource`]) so callers and telemetry can tell a real
//! model answer from a fallback, and counted separately in the metrics.

use std::collections::HashSet;
use std::sync::{Mutex, PoisonError};

use vsan_core::Vsan;

use crate::cache::SequenceCache;
use crate::engine::{Response, ResponseSource};

/// Shortened suffixes probed beyond the exact window; each probe drops
/// one more of the oldest items.
const CACHE_PROBES: usize = 4;

/// Try the fallbacks for `history`; `None` means degraded mode has no
/// answer and the caller must produce [`crate::ServeError::Overloaded`].
pub(crate) fn degraded_response(
    model: &Vsan,
    cache: &Mutex<SequenceCache>,
    popularity: Option<&[f32]>,
    history: &[u32],
    k: usize,
) -> Option<Response> {
    let seen: HashSet<u32> = history.iter().copied().collect();
    let window = model.fold_in_window(history);
    {
        // Cache state is structurally consistent even after a worker
        // panic (see engine::lock_cache); recover from poisoning.
        let mut guard = cache.lock().unwrap_or_else(PoisonError::into_inner);
        for cut in 0..=CACHE_PROBES.min(window.len()) {
            if let Some(logits) = guard.get(&window[cut..]) {
                let items = vsan_eval::top_n_excluding(&logits, k, &seen);
                return Some(Response::new(items, ResponseSource::DegradedCache));
            }
        }
    }
    let popularity = popularity?;
    let items = vsan_eval::top_n_excluding(popularity, k, &seen);
    Some(Response::new(items, ResponseSource::DegradedPopularity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vsan_core::VsanConfig;

    fn tiny_model() -> Vsan {
        let mut cfg = VsanConfig::smoke().with_threads(1);
        cfg.base.dim = 6;
        cfg.base.max_seq_len = 8;
        Vsan::init(12, &cfg)
    }

    #[test]
    fn fallbacks_answer_in_order_cache_then_popularity_then_none() {
        let model = tiny_model();
        let vocab = model.vocab();
        let history: Vec<u32> = (1..=8).collect();
        let window = model.fold_in_window(&history).to_vec();
        assert_eq!(window.len(), 8);
        let mut logits = vec![0.0f32; vocab];
        logits[9] = 1.0;
        let popularity: Vec<f32> = (0..vocab).map(|i| i as f32).collect();

        // A hit on the window shortened by up to CACHE_PROBES items
        // answers from the cache…
        for cut in 0..=CACHE_PROBES {
            let mut lru = SequenceCache::new(4);
            lru.insert(window[cut..].to_vec(), Arc::new(logits.clone()));
            let cache = Mutex::new(lru);
            let resp = degraded_response(&model, &cache, Some(&popularity), &history, 1)
                .expect("cache hit");
            assert_eq!(resp.source(), ResponseSource::DegradedCache, "cut {cut}");
            assert_eq!(resp.items(), &[9]);
        }
        // …one shortened by one more is out of reach: popularity answers.
        let mut lru = SequenceCache::new(4);
        lru.insert(window[CACHE_PROBES + 1..].to_vec(), Arc::new(logits));
        let cache = Mutex::new(lru);
        let resp =
            degraded_response(&model, &cache, Some(&popularity), &history, 2).expect("popularity");
        assert_eq!(resp.source(), ResponseSource::DegradedPopularity);
        assert_eq!(resp.items(), &[vocab as u32 - 1, vocab as u32 - 2]);
        // A miss without a popularity table has no answer.
        assert!(degraded_response(&model, &cache, None, &history, 2).is_none());
    }
}
