//! Metrics registry: counters, gauges, and log-linear-bucket
//! histograms.
//!
//! Everything on the recording path is a relaxed atomic — metrics are
//! monotonic telemetry, not synchronization, and no value recorded here
//! ever feeds back into control flow (DESIGN.md §8). Snapshots taken
//! while writers are active may be mid-update by a single event, which
//! is the usual (and acceptable) semantics for live counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::escape;

const ORD: Ordering = Ordering::Relaxed;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, ORD);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, ORD);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(ORD)
    }
}

/// A point-in-time signed value (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, ORD);
    }

    /// Overwrite the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, ORD);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(ORD)
    }
}

/// Sub-buckets per power of two: 16 ⇒ every bucket above the exact
/// range spans at most 1/16 of its lower bound, bounding the relative
/// quantile-estimation error at 6.25%.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16

/// Total bucket count: values `0..16` get exact unit buckets; every
/// power of two `2^4 ..= 2^63` gets `SUB` (16) linear sub-buckets.
pub const NUM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index for a recorded value.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let p = 63 - v.leading_zeros(); // v ∈ [2^p, 2^(p+1)), p ≥ 4
        let sub = (v >> (p - SUB_BITS)) & (SUB as u64 - 1);
        SUB + (p as usize - SUB_BITS as usize) * SUB + sub as usize
    }
}

/// Inclusive `(lo, hi)` value range covered by a bucket index.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NUM_BUCKETS, "bucket index {idx} out of range");
    if idx < SUB {
        return (idx as u64, idx as u64);
    }
    let off = idx - SUB;
    let p = SUB_BITS + (off / SUB) as u32;
    let sub = (off % SUB) as u64;
    let width = 1u64 << (p - SUB_BITS);
    let lo = (1u64 << p) + sub * width;
    // `lo - 1 + width` instead of `lo + width - 1`: the top bucket's
    // upper edge is exactly `u64::MAX` and must not overflow.
    (lo, lo - 1 + width)
}

/// A log-linear-bucket histogram over `u64` samples (e.g. microseconds).
///
/// Recording is lock-free; buckets are exact for values below 16 and
/// within 1/16 relative width above, so any quantile estimate taken
/// from a snapshot overshoots the true order statistic by at most
/// 6.25% (see [`HistogramSnapshot::percentile`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    // Exemplar: the trace id of the largest traced sample seen so far,
    // so the summary's outlier is traceable to a concrete request.
    ex_val: AtomicU64,
    ex_trace: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            ex_val: AtomicU64::new(0),
            ex_trace: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, ORD);
        self.count.fetch_add(1, ORD);
        self.sum.fetch_add(v, ORD);
        self.max.fetch_max(v, ORD);
    }

    /// Record one sample carrying a trace id. Identical to [`record`]
    /// for the distribution; additionally keeps the largest traced
    /// sample as the exemplar (`trace_id == 0` records untraced). The
    /// value/trace pair is updated without a lock, so under contention
    /// the exemplar may briefly pair one outlier's value with a
    /// same-magnitude neighbor's trace — acceptable for telemetry,
    /// never read back into control flow.
    ///
    /// [`record`]: Histogram::record
    pub fn record_traced(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id == 0 {
            return;
        }
        let mut cur = self.ex_val.load(ORD);
        while v >= cur {
            match self.ex_val.compare_exchange_weak(cur, v, ORD, ORD) {
                Ok(_) => {
                    self.ex_trace.store(trace_id, ORD);
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(ORD)
    }

    /// Consistent-enough point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(ORD)).collect(),
            count: self.count.load(ORD),
            sum: self.sum.load(ORD),
            max: self.max.load(ORD),
            exemplar_value: self.ex_val.load(ORD),
            exemplar_trace: self.ex_trace.load(ORD),
        }
    }
}

/// Frozen histogram state: bucket counts plus exact count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
    /// Value of the exemplar sample (0 when no traced sample was seen).
    pub exemplar_value: u64,
    /// Trace id of the exemplar sample (0 = none).
    pub exemplar_trace: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            exemplar_value: 0,
            exemplar_trace: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Exact mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`).
    ///
    /// Returns the upper edge of the bucket holding the order statistic
    /// of rank `⌈q · count⌉`, so the estimate never undershoots the true
    /// value and overshoots it by at most a factor of 17/16 (exact below
    /// 16). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (_, hi) = bucket_bounds(idx);
                // The exact max is tracked separately; the top occupied
                // bucket's edge can only overestimate it.
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Lossless merge: bucket-wise sum plus exact count/sum/max.
    /// Associative and commutative, so shard snapshots can be combined
    /// in any grouping without changing the result. Sums wrap on
    /// overflow — the same semantics as the atomic recording path, so
    /// merged shards still equal one combined histogram bit-for-bit.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        // The merged exemplar is the larger of the two sides' — ties
        // keep `self`'s, matching the recording path's ≥ update rule.
        let (ex_val, ex_trace) = if other.exemplar_value > self.exemplar_value {
            (other.exemplar_value, other.exemplar_trace)
        } else {
            (self.exemplar_value, self.exemplar_trace)
        };
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a.wrapping_add(*b))
                .collect(),
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            exemplar_value: ex_val,
            exemplar_trace: ex_trace,
        }
    }

    /// One-line JSON summary: count, sum, mean, p50/p90/p99, max, plus
    /// the exemplar (trace id as 16-digit hex; all zeros = untraced).
    pub fn summary_json(&self) -> String {
        crate::json::JsonObj::new()
            .u64("count", self.count)
            .u64("sum", self.sum)
            .f64("mean", self.mean())
            .u64("p50", self.percentile(0.50))
            .u64("p90", self.percentile(0.90))
            .u64("p99", self.percentile(0.99))
            .u64("max", self.max)
            .u64("exemplar_value", self.exemplar_value)
            .str("exemplar_trace", &crate::trace::hex_id(self.exemplar_trace))
            .finish()
    }
}

/// Named metric registry.
///
/// `counter`/`gauge`/`histogram` get-or-create by name and hand back an
/// `Arc` handle; hot paths grab their handles once at startup and never
/// touch the registry lock again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter with this name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Every counter as `(name, value)`, sorted by name. The registry
    /// maps are `BTreeMap`s, so the order is deterministic across runs
    /// and repeated exports are byte-diffable.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Every gauge as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Every histogram as `(name, snapshot)`, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Render every metric as one nested JSON object (name order is
    /// the sorted registration name — deterministic across runs).
    pub fn snapshot_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), v.get()))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), v.get()))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), v.snapshot().summary_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }

    /// Emit one JSONL record of the full registry state to a sink.
    pub fn emit(&self, sink: &dyn crate::sink::EventSink, record_type: &str) {
        let line = crate::json::JsonObj::new()
            .str("type", record_type)
            .u64("ts_ms", crate::sink::unix_time_ms())
            .raw("metrics", &self.snapshot_json())
            .finish();
        sink.emit(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            let idx = bucket_index(v);
            assert_eq!(bucket_bounds(idx), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Consecutive buckets tile the axis with no gaps or overlaps.
        let mut expected_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "gap/overlap at bucket {idx}");
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            if idx + 1 == NUM_BUCKETS {
                assert_eq!(hi, u64::MAX);
                break;
            }
            expected_lo = hi + 1;
        }
    }

    #[test]
    fn bucket_width_is_within_one_sixteenth() {
        for idx in SUB..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert!(hi - lo <= lo / 16, "bucket {idx}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn percentiles_on_known_data() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        let p50 = s.percentile(0.50);
        let p99 = s.percentile(0.99);
        // True order statistics are 50 and 99; estimates may only
        // overshoot by ≤ 1/16.
        assert!((50..=53).contains(&p50), "p50 = {p50}");
        assert!((99..=100).contains(&p99), "p99 = {p99}");
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
    }

    #[test]
    fn merge_is_lossless_and_associative() {
        let (a, b, c) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0u64, 1, 15, 16, 17, 1000] {
            a.record(v);
        }
        for v in [3u64, 900, u64::MAX] {
            b.record(v);
        }
        c.record(42);
        let (sa, sb, sc) = (a.snapshot(), b.snapshot(), c.snapshot());
        let left = sa.merge(&sb).merge(&sc);
        let right = sa.merge(&sb.merge(&sc));
        assert_eq!(left, right);
        assert_eq!(left.count, 10);
        assert_eq!(left.max, u64::MAX);
        // Lossless vs. recording everything into one histogram.
        let all = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 3, 900, u64::MAX, 42] {
            all.record(v);
        }
        assert_eq!(left, all.snapshot());
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let c = Arc::new(Counter::default());
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.snapshot().count, 80_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn registry_reuses_handles_and_exports_json() {
        let r = Registry::new();
        r.counter("req").inc();
        r.counter("req").inc();
        r.gauge("depth").set(4);
        r.histogram("lat_us").record(250);
        assert_eq!(r.counter("req").get(), 2);
        let parsed = crate::json::parse(&r.snapshot_json()).unwrap();
        let m = parsed.get("counters").unwrap();
        assert_eq!(m.get("req").unwrap().as_u64(), Some(2));
        assert_eq!(
            parsed.get("gauges").unwrap().get("depth").unwrap().as_f64(),
            Some(4.0)
        );
        let lat = parsed.get("histograms").unwrap().get("lat_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(lat.get("max").unwrap().as_u64(), Some(250));
    }

    #[test]
    fn snapshot_json_is_byte_identical_across_repeated_exports() {
        let r = Registry::new();
        // Register in shuffled order; rendering must still be sorted.
        for name in ["zeta.count", "alpha.count", "mid.count"] {
            r.counter(name).inc();
        }
        r.gauge("z.depth").set(1);
        r.gauge("a.depth").set(2);
        r.histogram("m.lat").record_traced(99, 0xBEEF);
        let first = r.snapshot_json();
        let second = r.snapshot_json();
        assert_eq!(first, second, "repeated exports must be byte-diffable");
        let alpha = first.find("alpha.count").unwrap();
        let mid = first.find("mid.count").unwrap();
        let zeta = first.find("zeta.count").unwrap();
        assert!(alpha < mid && mid < zeta, "names must render sorted");
    }

    #[test]
    fn exemplar_tracks_the_largest_traced_sample() {
        let h = Histogram::new();
        h.record_traced(10, 0xA);
        h.record_traced(500, 0xB);
        h.record_traced(20, 0xC);
        h.record(9999); // untraced: distribution only
        let s = h.snapshot();
        assert_eq!(s.exemplar_value, 500);
        assert_eq!(s.exemplar_trace, 0xB);
        assert_eq!(s.max, 9999);
        assert_eq!(s.count, 4);
        let parsed = crate::json::parse(&s.summary_json()).unwrap();
        assert_eq!(parsed.get("exemplar_value").unwrap().as_u64(), Some(500));
        assert_eq!(
            parsed.get("exemplar_trace").unwrap().as_str(),
            Some("000000000000000b")
        );
        // Merge keeps the larger side's exemplar.
        let other = Histogram::new();
        other.record_traced(600, 0xD);
        let merged = s.merge(&other.snapshot());
        assert_eq!(merged.exemplar_value, 600);
        assert_eq!(merged.exemplar_trace, 0xD);
    }
}
