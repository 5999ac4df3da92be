//! Property-based tests for the histogram (bucket boundaries, the
//! quantile-estimation error bound, merge associativity) and the
//! flight recorder (wrap-around at capacity, concurrent-writer record
//! conservation). Case count honors `PROPTEST_CASES` (see
//! `scripts/verify.sh`).

use proptest::prelude::*;
use vsan_obs::metrics::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
use vsan_obs::recorder::FlightRecorder;
use vsan_obs::trace::{TraceContext, TraceSpan, TraceStage};

/// A span whose every field is derived from `tag`, so a torn record
/// (fields from two different writes) is detectable by recomputation.
fn tagged_span(tag: u64) -> TraceSpan {
    TraceSpan {
        ctx: TraceContext {
            trace_id: tag,
            span_id: tag ^ 0x5555_5555_5555_5555,
            parent_span_id: tag.wrapping_mul(3),
        },
        stage: TraceStage::from_code(1 + tag % 16).unwrap(),
        at_us: tag.wrapping_mul(7),
        dur_us: tag.rotate_left(13),
        attr: tag,
    }
}

fn assert_untorn(span: &TraceSpan) {
    let tag = span.attr;
    assert_eq!(span.ctx.trace_id, tag, "torn record");
    assert_eq!(span.ctx.span_id, tag ^ 0x5555_5555_5555_5555, "torn record");
    assert_eq!(span.ctx.parent_span_id, tag.wrapping_mul(3), "torn record");
    assert_eq!(span.stage.code(), 1 + tag % 16, "torn record");
    assert_eq!(span.at_us, tag.wrapping_mul(7), "torn record");
    assert_eq!(span.dur_us, tag.rotate_left(13), "torn record");
}

proptest! {
    #[test]
    fn every_value_lands_inside_its_bucket(v in 0u64..=u64::MAX) {
        let idx = bucket_index(v);
        prop_assert!(idx < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {idx} = [{lo}, {hi}]");
    }

    #[test]
    fn bucket_upper_edge_overshoots_by_at_most_one_sixteenth(v in 0u64..=u64::MAX) {
        // The percentile estimator returns a bucket's upper edge, so
        // this is exactly the histogram's relative error bound.
        let (_, hi) = bucket_bounds(bucket_index(v));
        prop_assert!(hi >= v);
        prop_assert!(hi - v <= v / 16, "edge {hi} vs value {v}");
    }

    #[test]
    fn percentile_error_is_bounded(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        q in 0.01f64..1.0,
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);

        // The true order statistic of rank ⌈q·count⌉.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];

        // Estimate never undershoots and overshoots ≤ 1/16 relative
        // (exact below 16; capped by the tracked max).
        let est = snap.percentile(q);
        prop_assert!(est >= truth, "estimate {est} < true {truth}");
        prop_assert!(est <= truth + truth / 16 + 1, "estimate {est} vs true {truth}");
        prop_assert!(est <= snap.max);
        prop_assert!(est >= snap.percentile(q / 2.0), "percentiles must be monotone in q");
    }

    #[test]
    fn merge_is_associative_commutative_and_lossless(
        a in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        b in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        c in proptest::collection::vec(0u64..=u64::MAX, 0..60),
    ) {
        let snap = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        // Associativity and commutativity of the bucket-wise merge.
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
        // Lossless: merging shards equals recording everything at once.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        let merged = sa.merge(&sb).merge(&sc);
        prop_assert_eq!(&merged, &snap(&all));
        // Identity element.
        prop_assert_eq!(merged.merge(&HistogramSnapshot::default()), merged);
    }

    #[test]
    fn recorder_wraps_to_exactly_the_last_capacity_records(
        capacity in 1usize..200,
        total in 0u64..600,
    ) {
        let rec = FlightRecorder::new(capacity);
        for t in 0..total {
            rec.record(&tagged_span(t));
        }
        prop_assert_eq!(rec.recorded(), total);
        let cap = rec.capacity() as u64;
        let snap = rec.snapshot();
        // Sequential writes: ticket t carried tag t, and the ring must
        // hold exactly the last min(total, capacity) tickets in order.
        let expected: Vec<u64> = (total.saturating_sub(cap)..total).collect();
        let tickets: Vec<u64> = snap.iter().map(|r| r.ticket).collect();
        prop_assert_eq!(tickets, expected);
        for r in &snap {
            prop_assert_eq!(r.span.attr, r.ticket);
            assert_untorn(&r.span);
        }
    }

    #[test]
    fn recorder_conserves_records_under_concurrent_writers(
        capacity in 1usize..64,
        threads in 2usize..5,
        per_thread in 1u64..120,
    ) {
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new(capacity));
        std::thread::scope(|s| {
            for tid in 0..threads {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..per_thread {
                        rec.record(&tagged_span(((tid as u64) << 32) | i));
                    }
                });
            }
        });
        let total = threads as u64 * per_thread;
        prop_assert_eq!(rec.recorded(), total);
        let cap = rec.capacity() as u64;
        let snap = rec.snapshot();
        // Conservation: with all writers quiesced the ring holds one
        // stable record per used slot — exactly the last min(total,
        // capacity) tickets, no duplicates, no gaps, none torn.
        let expected: Vec<u64> = (total.saturating_sub(cap)..total).collect();
        let tickets: Vec<u64> = snap.iter().map(|r| r.ticket).collect();
        prop_assert_eq!(tickets, expected);
        for r in &snap {
            assert_untorn(&r.span);
        }
    }
}
