//! Percentiles, window medians and the quartile spread the benchmark's
//! noise checks use.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
/// Exact sample values, unlike the 4 %-bucketed `LatencyHistogram`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns them for chaining.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over fixed-length windows of each window's `p`-th percentile.
/// `samples` are `(time_ns, value)` pairs, bucketed by `time_ns`. One
/// stalled window moves this by one rank, where it would own a whole-run
/// p99 outright.
pub fn window_median_percentile(samples: &[(u64, f64)], window_ns: u64, p: f64) -> Option<f64> {
    assert!(window_ns > 0, "window must be positive");
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        windows.entry(t / window_ns).or_default().push(v);
    }
    let per_window: Vec<f64> = windows
        .into_values()
        .map(|mut w| percentile(sort(&mut w), p))
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the driver's noise
/// check uses that function, so `repeat` must agree with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over a byte stream, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // Five 1-s windows of 100 samples at 10 µs; window 2 stalls and
        // every sample in it reads 10 ms.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..100u64 {
                let v = if w == 2 { 10_000.0 } else { 10.0 };
                samples.push((w * 1_000_000_000 + i, v));
            }
        }
        assert_eq!(
            window_median_percentile(&samples, 1_000_000_000, 90.0),
            Some(10.0)
        );
        // The whole-run p90 is owned by the stall.
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(sort(&mut all), 90.0), 10_000.0);
        assert_eq!(window_median_percentile(&[], 1, 90.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_and_fnv_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Published FNV-1a test vector.
        assert_eq!(fnv1a(FNV_INIT, b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
