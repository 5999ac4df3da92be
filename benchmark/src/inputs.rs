//! Workload inputs. Every function here is a pure function of its
//! arguments — the same `--seed` gives the same histories, the same
//! request schedule and the same event stream — and nothing in this file
//! touches the program under test: only what these functions return
//! reaches it.

/// The splitmix64 generator: small, seedable, and good enough for
/// drawing workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a function of `seed` and `stream`,
    /// so each input family of a workload draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// `count` histories of `len` item ids drawn uniformly from
/// `1..=num_items` (id 0 is the padding item). With `len` in the tens
/// and a catalog in the thousands two equal histories do not occur, so
/// no request repeats a sequence-cache key.
pub fn uniform_histories(seed: u64, count: usize, len: usize, num_items: u32) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(seed, 1);
    (0..count)
        .map(|_| {
            (0..len)
                .map(|_| 1 + rng.below(u64::from(num_items)) as u32)
                .collect()
        })
        .collect()
}

/// `len` indices into a set of `keys` entries, drawn Zipf(`exponent`):
/// key `i` has weight `(i + 1)^-exponent`.
pub fn zipf_schedule(seed: u64, keys: usize, exponent: f64, len: usize) -> Vec<u32> {
    let mut cumulative = Vec::with_capacity(keys);
    let mut total = 0.0;
    for i in 0..keys {
        total += ((i + 1) as f64).powf(-exponent);
        cumulative.push(total);
    }
    let mut rng = SplitMix64::new(seed, 2);
    (0..len)
        .map(|_| {
            let x = rng.next_f64() * total;
            cumulative.partition_point(|&c| c <= x).min(keys - 1) as u32
        })
        .collect()
}

/// One session event: which user acted and on which item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// User id in `0..users`.
    pub user: u32,
    /// Item id in `1..=num_items`.
    pub item: u32,
}

/// `len` events over `users` users with cubic-skewed popularity: user
/// `⌊users · u³⌋` for uniform `u`, so an eighth of the users produce
/// half the events and the tail keeps touching evicted sessions.
pub fn event_stream(seed: u64, users: u32, num_items: u32, len: usize) -> Vec<Event> {
    let mut rng = SplitMix64::new(seed, 3);
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            Event {
                user: ((f64::from(users) * u * u * u) as u32).min(users - 1),
                item: 1 + rng.below(u64::from(num_items)) as u32,
            }
        })
        .collect()
}

/// Due times, in nanoseconds from the start of the phase, of a Poisson
/// arrival process of `rate_per_s` over `duration_s`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, 4);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(
            uniform_histories(7, 50, 40, 12_000),
            uniform_histories(7, 50, 40, 12_000)
        );
        assert_ne!(
            uniform_histories(7, 50, 40, 12_000),
            uniform_histories(8, 50, 40, 12_000)
        );
        assert_eq!(
            zipf_schedule(7, 256, 1.1, 1000),
            zipf_schedule(7, 256, 1.1, 1000)
        );
        assert_ne!(
            zipf_schedule(7, 256, 1.1, 1000),
            zipf_schedule(8, 256, 1.1, 1000)
        );
        assert_eq!(
            event_stream(7, 128, 3400, 1000),
            event_stream(7, 128, 3400, 1000)
        );
        assert_ne!(
            event_stream(7, 128, 3400, 1000),
            event_stream(8, 128, 3400, 1000)
        );
        assert_eq!(
            poisson_schedule(7, 400.0, 2.0),
            poisson_schedule(7, 400.0, 2.0)
        );
        assert_ne!(
            poisson_schedule(7, 400.0, 2.0),
            poisson_schedule(8, 400.0, 2.0)
        );
    }

    #[test]
    fn histories_are_distinct_and_in_range() {
        let h = uniform_histories(1, 5_000, 40, 12_000);
        assert!(h.iter().flatten().all(|&i| (1..=12_000).contains(&i)));
        let unique: std::collections::HashSet<&Vec<u32>> = h.iter().collect();
        assert_eq!(unique.len(), h.len());
    }

    #[test]
    fn zipf_prefers_the_head_and_stays_in_range() {
        let s = zipf_schedule(3, 256, 1.1, 20_000);
        assert!(s.iter().all(|&i| i < 256));
        let head = s.iter().filter(|&&i| i < 8).count();
        let tail = s.iter().filter(|&&i| i >= 248).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn event_stream_is_skewed_and_touches_the_tail() {
        let ev = event_stream(5, 128, 3400, 20_000);
        assert!(ev
            .iter()
            .all(|e| e.user < 128 && (1..=3400).contains(&e.item)));
        let hot = ev.iter().filter(|e| e.user < 16).count();
        assert!(
            hot > ev.len() * 45 / 100,
            "an eighth of the users should make about half the events"
        );
        assert!(ev.iter().any(|e| e.user >= 112));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let due = poisson_schedule(11, 500.0, 20.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = due.len() as f64 / 20.0;
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
        assert!(*due.last().unwrap() < 20_000_000_000);
    }
}
