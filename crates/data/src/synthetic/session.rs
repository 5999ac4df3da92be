//! Synthetic session streams for the steady-state serving benchmarks
//! and the chaos suite (ISSUE 6 satellite).
//!
//! The Markov simulator in the parent module produces *training logs* —
//! whole per-user histories materialized at once. Incremental serving
//! needs the opposite shape: a population of users with warm histories,
//! then a live stream of single-item append events whose **user
//! popularity is Zipf-distributed** (a few hot sessions absorb most of
//! the traffic, the regime where a session cache pays off). This module
//! generates exactly that, deterministically per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for a synthetic session stream.
#[derive(Debug, Clone)]
pub struct SessionStreamConfig {
    /// Number of users holding live sessions.
    pub num_users: usize,
    /// Item catalogue size; generated item ids are `1..=num_items`
    /// (id 0 is reserved for padding, matching the preprocess pipeline).
    pub num_items: usize,
    /// Zipf exponent for per-event user popularity (≈ 1.0 gives the
    /// classic few-hot-sessions regime; 0.0 is uniform).
    pub zipf_exponent: f64,
    /// Number of append events in the stream.
    pub events: usize,
    /// Minimum warm-history length per user (inclusive).
    pub min_history: usize,
    /// Maximum warm-history length per user (inclusive).
    pub max_history: usize,
    /// RNG seed; equal seeds give bitwise-equal streams.
    pub seed: u64,
}

/// One append event: `user` consumed `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEvent {
    /// User id, `0..num_users`.
    pub user: u64,
    /// Item id, `1..=num_items`.
    pub item: u32,
}

/// A generated stream: warm per-user histories plus the event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStream {
    /// `histories[u]` = user `u`'s warm history before the stream starts.
    pub histories: Vec<Vec<u32>>,
    /// Append events in arrival order.
    pub events: Vec<SessionEvent>,
}

impl SessionStream {
    /// Largest item id that appears anywhere (histories or events);
    /// callers size model vocabularies as `max_item() + 1`.
    pub fn max_item(&self) -> u32 {
        let h = self.histories.iter().flatten().copied().max().unwrap_or(0);
        let e = self.events.iter().map(|e| e.item).max().unwrap_or(0);
        h.max(e)
    }
}

/// Generate a stream from a config. Deterministic per seed.
pub fn generate_stream(cfg: &SessionStreamConfig) -> SessionStream {
    assert!(cfg.num_users > 0, "need at least one user");
    assert!(cfg.num_items > 0, "need at least one item");
    assert!(cfg.min_history <= cfg.max_history, "history bounds inverted");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Zipf popularity over users: rank r (0-based) gets weight
    // 1/(r+1)^s; the rank→user mapping is a seeded permutation so user
    // ids carry no popularity information.
    let mut ranked: Vec<u64> = (0..cfg.num_users as u64).collect();
    for i in (1..ranked.len()).rev() {
        let j = rng.gen_range(0..=i);
        ranked.swap(i, j);
    }
    let mut cum = Vec::with_capacity(cfg.num_users);
    let mut acc = 0.0f64;
    for rank in 0..cfg.num_users {
        acc += 1.0 / ((rank + 1) as f64).powf(cfg.zipf_exponent);
        cum.push(acc);
    }
    let total = *cum.last().expect("non-empty user set");

    let sample_item = |rng: &mut StdRng| rng.gen_range(1..=cfg.num_items as u32);

    let histories: Vec<Vec<u32>> = (0..cfg.num_users)
        .map(|_| {
            let len = rng.gen_range(cfg.min_history..=cfg.max_history);
            (0..len).map(|_| sample_item(&mut rng)).collect()
        })
        .collect();

    let events: Vec<SessionEvent> = (0..cfg.events)
        .map(|_| {
            let x = rng.gen::<f64>() * total;
            let rank = cum.partition_point(|&c| c < x).min(cfg.num_users - 1);
            SessionEvent { user: ranked[rank], item: sample_item(&mut rng) }
        })
        .collect();

    SessionStream { histories, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SessionStreamConfig {
        SessionStreamConfig {
            num_users: 12,
            num_items: 30,
            zipf_exponent: 1.1,
            events: 600,
            min_history: 3,
            max_history: 9,
            seed: 42,
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let cfg = tiny_cfg();
        assert_eq!(generate_stream(&cfg), generate_stream(&cfg));
        let other = SessionStreamConfig { seed: 43, ..cfg };
        assert_ne!(generate_stream(&cfg).events, generate_stream(&other).events);
    }

    #[test]
    fn histories_and_items_respect_bounds() {
        let cfg = tiny_cfg();
        let stream = generate_stream(&cfg);
        assert_eq!(stream.histories.len(), cfg.num_users);
        for h in &stream.histories {
            assert!((cfg.min_history..=cfg.max_history).contains(&h.len()));
            assert!(h.iter().all(|&i| (1..=cfg.num_items as u32).contains(&i)));
        }
        assert_eq!(stream.events.len(), cfg.events);
        for e in &stream.events {
            assert!((e.user as usize) < cfg.num_users);
            assert!((1..=cfg.num_items as u32).contains(&e.item));
        }
        assert!(stream.max_item() <= cfg.num_items as u32);
        assert!(stream.max_item() >= 1);
    }

    #[test]
    fn user_popularity_is_zipf_skewed() {
        let mut cfg = tiny_cfg();
        cfg.events = 5000;
        cfg.zipf_exponent = 1.0;
        let stream = generate_stream(&cfg);
        let mut counts = vec![0usize; cfg.num_users];
        for e in &stream.events {
            counts[e.user as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // With s = 1 over 12 users the top user holds ~32 % of the
        // harmonic mass; allow slack but demand clear skew over the
        // uniform 1/12 ≈ 8.3 %.
        let share = counts[0] as f64 / cfg.events as f64;
        assert!(share > 0.2, "hottest user share {share} should be Zipf-skewed");
        assert!(counts[counts.len() - 1] < counts[0], "tail must be colder than head");
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let mut cfg = tiny_cfg();
        cfg.events = 6000;
        cfg.zipf_exponent = 0.0;
        let stream = generate_stream(&cfg);
        let mut counts = vec![0usize; cfg.num_users];
        for e in &stream.events {
            counts[e.user as usize] += 1;
        }
        let expected = cfg.events as f64 / cfg.num_users as f64;
        for c in counts {
            let ratio = c as f64 / expected;
            assert!((0.5..2.0).contains(&ratio), "uniform draw ratio {ratio}");
        }
    }
}
