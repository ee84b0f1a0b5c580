//! Measurement utilities: latency histograms and time-weighted state
//! trackers.
//!
//! [`LatencyHistogram`] backs Fig. 19 (read-latency CDF and tail
//! percentiles); [`UtilizationTracker`] backs Fig. 18 (channel usage
//! breakdown into IDLE / COR / UNCOR / ECCWAIT).

use crate::time::{SimDuration, SimTime};

/// Log-bucketed latency histogram with percentile queries.
///
/// Buckets grow geometrically from 100 ns, giving <5 % relative error across
/// the 1 µs – 10 ms range the SSD simulator produces — ample for the CDF
/// curves and p99/p99.9/p99.99 tail figures of the paper (Fig. 19).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

const HIST_BASE_NS: f64 = 100.0;
const HIST_GROWTH: f64 = 1.04;
const HIST_BUCKETS: usize = 512;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; HIST_BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let idx = ((ns as f64 / HIST_BASE_NS).ln() / HIST_GROWTH.ln()).floor();
        idx.max(0.0).min((HIST_BUCKETS - 1) as f64) as usize
    }

    fn bucket_upper_ns(idx: usize) -> u64 {
        (HIST_BASE_NS * HIST_GROWTH.powi(idx as i32 + 1)) as u64
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_ns();
        self.buckets[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ns((self.sum_ns / self.total as u128) as u64)
        }
    }

    /// Largest recorded latency (zero if empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ns(self.max_ns)
    }

    /// Smallest recorded latency (zero if empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ns(self.min_ns)
        }
    }

    /// Latency at percentile `p` in `[0, 100]`, or `None` when empty.
    ///
    /// Returns the upper edge of the bucket containing the p-th observation,
    /// so the result is an upper bound with the bucket's relative error.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_ns(
                    Self::bucket_upper_ns(i).min(self.max_ns),
                ));
            }
        }
        Some(SimDuration::from_ns(self.max_ns))
    }

    /// Empirical CDF as `(latency_upper_bound, cumulative_fraction)` pairs
    /// over non-empty buckets; used to print Fig. 19.
    pub fn cdf(&self) -> Vec<(SimDuration, f64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                SimDuration::from_ns(Self::bucket_upper_ns(i).min(self.max_ns)),
                seen as f64 / self.total as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

/// Tracks how long a component spends in each of a fixed set of states.
///
/// The SSD simulator instantiates one per flash channel with the four states
/// of Fig. 18 (IDLE, COR, UNCOR, ECCWAIT). State indices are caller-defined.
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    state: usize,
    since: SimTime,
    accum: Vec<SimDuration>,
}

impl UtilizationTracker {
    /// Creates a tracker over `n_states` states, starting in state 0 at time
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `n_states == 0`.
    pub fn new(n_states: usize) -> Self {
        assert!(n_states > 0, "tracker needs at least one state");
        UtilizationTracker {
            state: 0,
            since: SimTime::ZERO,
            accum: vec![SimDuration::ZERO; n_states],
        }
    }

    /// Current state index.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Switches to `state` at instant `now`, attributing the elapsed span to
    /// the previous state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `now` precedes the last switch.
    pub fn switch(&mut self, now: SimTime, state: usize) {
        assert!(state < self.accum.len(), "state {state} out of range");
        self.accum[self.state] += now.since(self.since);
        self.state = state;
        self.since = now;
    }

    /// Closes accounting at `end` and returns the per-state durations.
    pub fn finish(mut self, end: SimTime) -> Vec<SimDuration> {
        self.accum[self.state] += end.since(self.since);
        self.accum
    }

    /// Per-state fractions of the interval `[0, end]`.
    pub fn fractions(self, end: SimTime) -> Vec<f64> {
        let total = end.as_ns().max(1) as f64;
        self.finish(end)
            .into_iter()
            .map(|d| d.as_ns() as f64 / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_data() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_us(us));
        }
        let p50 = h.percentile(50.0).unwrap().as_us();
        let p99 = h.percentile(99.0).unwrap().as_us();
        assert!((450.0..600.0).contains(&p50), "p50 {p50}");
        assert!((950.0..1050.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(100.0).unwrap(), h.max());
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        let true_val = SimDuration::from_us(777);
        for _ in 0..100 {
            h.record(true_val);
        }
        let p = h.percentile(50.0).unwrap().as_us();
        assert!((p - 777.0).abs() / 777.0 < 0.05, "p {p}");
    }

    #[test]
    fn histogram_empty_and_merge() {
        let mut a = LatencyHistogram::new();
        assert!(a.percentile(99.0).is_none());
        assert_eq!(a.mean(), SimDuration::ZERO);
        let mut b = LatencyHistogram::new();
        b.record(SimDuration::from_us(5));
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert!(a.percentile(50.0).is_some());
    }

    #[test]
    fn histogram_cdf_monotone_and_complete() {
        let mut h = LatencyHistogram::new();
        for us in [10u64, 20, 20, 40, 80, 160] {
            h.record(SimDuration::from_us(us));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut last = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= last);
            last = f;
        }
        assert!((last - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_fractions_sum_to_one() {
        let mut u = UtilizationTracker::new(3);
        u.switch(SimTime::from_us(10), 1); // state 0 for 10us
        u.switch(SimTime::from_us(30), 2); // state 1 for 20us
        u.switch(SimTime::from_us(60), 0); // state 2 for 30us
        let f = u.fractions(SimTime::from_us(100)); // state 0 for 40 more
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!((f[1] - 0.2).abs() < 1e-12);
        assert!((f[2] - 0.3).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_finish_durations() {
        let mut u = UtilizationTracker::new(2);
        u.switch(SimTime::from_us(5), 1);
        let d = u.finish(SimTime::from_us(8));
        assert_eq!(d[0], SimDuration::from_us(5));
        assert_eq!(d[1], SimDuration::from_us(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn utilization_rejects_bad_state() {
        let mut u = UtilizationTracker::new(2);
        u.switch(SimTime::from_us(1), 5);
    }
}
