//! Order statistics the harness reports: percentiles of a sample, the
//! better-half rule over the equal time slices of a phase, and the
//! quartile spread the A/A and ten-seed checks compare against a
//! metric's bound.

/// The `q`-quantile (`q ∈ [0, 1]`) of `values` by the nearest-rank rule
/// on a sorted copy: the smallest sample with at least `q·n` samples at
/// or below it. `NaN` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual mean-of-the-middle-two rule for even counts.
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` by the exclusive method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes — the rule the
/// benchmark contract measures spread with. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis. The segment index is
        // clamped to the sample; the offset is not, so positions past an
        // end extrapolate along the last segment, as Python does.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// contract holds below a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One completed operation of a timed phase: when it completed
/// (nanoseconds since the phase started) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion time, nanoseconds since the phase began.
    pub done_ns: u64,
    /// Operation latency in nanoseconds.
    pub latency_ns: u64,
}

/// What one phase measured: each figure the mean of its better half of
/// per-slice values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Operations completed per second.
    pub per_s: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Slices the phase was cut into.
    pub slices: usize,
    /// Operations that completed inside the phase's windows.
    pub samples: usize,
    /// Fewest operations in one slice (a slice's p99 has a hundredth of
    /// its operations beyond it).
    pub min_slice_samples: usize,
}

/// The mean of the better half of `values`: the largest when higher is
/// better, the smallest otherwise (a `NaN` counts as worst).
///
/// Why the better half: on a shared host another tenant slows this
/// process down for seconds at a time, and only ever *down*. A change in
/// the code slows every slice, so it moves the better half all the same;
/// a neighbour's burst lands in the discarded half.
pub fn better_half_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| {
        if higher_is_better {
            (-a).total_cmp(&-b)
        } else {
            a.total_cmp(b)
        }
    });
    sorted.truncate(values.len().div_ceil(2).max(1));
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// Cut each segment `(samples, length in ns)` of a phase into
/// `slices_per_segment` equal time slices, compute the rate and the
/// latency percentiles of every slice, and report for each figure the
/// [`better_half_mean`] of its per-slice values.
pub fn summarize_slices(segments: &[(&[Sample], u64)], slices_per_segment: usize) -> PhaseSummary {
    let per = slices_per_segment.max(1);
    let (mut rates, mut p50s, mut p99s, mut counts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(samples, segment_ns) in segments {
        let width = (segment_ns / per as u64).max(1);
        let mut cut: Vec<Vec<f64>> = vec![Vec::new(); per];
        for s in samples.iter().filter(|s| s.done_ns < width * per as u64) {
            cut[(s.done_ns / width) as usize].push(s.latency_ns as f64 / 1e6);
        }
        for latencies in &cut {
            rates.push(latencies.len() as f64 / (width as f64 / 1e9));
            p50s.push(percentile(latencies, 0.50));
            p99s.push(percentile(latencies, 0.99));
            counts.push(latencies.len());
        }
    }
    PhaseSummary {
        per_s: better_half_mean(&rates, true),
        p50_ms: better_half_mean(&p50s, false),
        p99_ms: better_half_mean(&p99s, false),
        slices: counts.len(),
        samples: counts.iter().sum(),
        min_slice_samples: counts.iter().copied().min().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: positions
        // outside the sample extrapolate along its only segment.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn better_half_discards_the_disturbed_slices() {
        // Two segments of five 1-second slices. Undisturbed: 100 ops at
        // 1 ms. Four of the ten are disturbed: 40 ops at 3 ms.
        let mut first = Vec::new();
        let mut second = Vec::new();
        for slice in 0..5u64 {
            for (segment, disturbed) in [
                (&mut first, slice == 1 || slice == 2),
                (&mut second, slice >= 3),
            ] {
                let (n, lat) = if disturbed {
                    (40, 3_000_000)
                } else {
                    (100, 1_000_000)
                };
                for i in 0..n {
                    let done_ns = slice * 1_000_000_000 + i * 1_000_000;
                    segment.push(Sample {
                        done_ns,
                        latency_ns: lat,
                    });
                }
            }
        }
        // A straggler past its segment's window is not counted.
        second.push(Sample {
            done_ns: 5_000_000_001,
            latency_ns: 9_000_000_000,
        });
        let s = summarize_slices(&[(&first, 5_000_000_000), (&second, 5_000_000_000)], 5);
        assert_eq!((s.slices, s.samples, s.min_slice_samples), (10, 760, 40));
        assert_eq!(s.per_s, 100.0);
        assert_eq!((s.p50_ms, s.p99_ms), (1.0, 1.0));
        // A slowdown of every slice moves the figures all the same.
        let slower: Vec<Sample> = first
            .iter()
            .map(|x| Sample {
                latency_ns: x.latency_ns * 2,
                ..*x
            })
            .collect();
        assert_eq!(summarize_slices(&[(&slower, 5_000_000_000)], 5).p50_ms, 2.0);
        // An empty slice is the worst slice, not a hole in the arithmetic.
        let sparse = [Sample {
            done_ns: 1,
            latency_ns: 2_000_000,
        }];
        let s = summarize_slices(&[(&sparse, 4_000_000_000)], 4);
        assert!(s.p50_ms.is_nan() && s.min_slice_samples == 0);
    }

    #[test]
    fn better_half_mean_follows_the_direction() {
        assert_eq!(
            better_half_mean(&[300.0, 350.0, 352.0, 348.0, 200.0], true),
            350.0
        );
        assert_eq!(better_half_mean(&[3.0, 1.0, 2.0, 9.0], false), 1.5);
        assert_eq!(better_half_mean(&[10.0, 20.0], true), 20.0);
        assert_eq!(better_half_mean(&[7.0], false), 7.0);
        assert_eq!(better_half_mean(&[f64::NAN, 2.0, 4.0], false), 3.0);
    }
}
