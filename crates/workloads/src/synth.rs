//! Synthetic block-trace generation.
//!
//! The generator reproduces the workload characteristics the paper's
//! evaluation depends on (Table II): the **read ratio** (fraction of read
//! requests) and the **cold-read ratio** (fraction of reads to pages never
//! updated during the workload — the reads whose long retention age makes
//! read-retry likely, §VI-A).
//!
//! Mechanism: the logical address space is split into a *hot* region —
//! which receives all writes and the non-cold reads, with Zipfian locality
//! — and a *cold* region that is only ever read. Reads target the cold
//! region with probability `cold_read_ratio`, which pins the measured
//! ratio to the configured one by construction.

use rif_events::{SimRng, SimTime, ZipfTable};

use crate::trace::{IoOp, IoRequest, Trace};

/// Address alignment of generated requests: one 16-KiB flash page.
const ALIGN_BYTES: u32 = 16 * 1024;

/// Configuration of the synthetic trace generator.
///
/// # Example
///
/// ```
/// use rif_workloads::SynthConfig;
/// use rif_workloads::stats::TraceStats;
///
/// let cfg = SynthConfig {
///     read_ratio: 0.9,
///     cold_read_ratio: 0.7,
///     ..SynthConfig::default()
/// };
/// let trace = cfg.generate(2000, 42);
/// let stats = TraceStats::compute(&trace);
/// assert!((stats.read_ratio - 0.9).abs() < 0.05);
/// assert!((stats.cold_read_ratio - 0.7).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Fraction of reads that target never-written (cold) pages.
    pub cold_read_ratio: f64,
    /// Size of the hot (written) region in bytes.
    pub hot_region_bytes: u64,
    /// Size of the cold (read-only) region in bytes.
    pub cold_region_bytes: u64,
    /// Zipf exponent for hot-region locality (0 = uniform).
    pub zipf_s: f64,
    /// Request size in bytes (must be a multiple of the 16-KiB page);
    /// the paper's root-cause analysis uses 256-KiB host reads split into
    /// 64-KiB multi-plane commands, and cloud block traces are dominated
    /// by mid-size requests.
    pub request_bytes: u32,
    /// Mean request interarrival time in nanoseconds (Poisson process).
    pub mean_interarrival_ns: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            read_ratio: 0.5,
            cold_read_ratio: 0.7,
            hot_region_bytes: 4 << 30,   // 4 GiB
            cold_region_bytes: 16 << 30, // 16 GiB
            zipf_s: 0.9,
            request_bytes: 64 * 1024,
            // 64-KiB requests every 8 µs ≈ 8 GB/s offered load: enough to
            // saturate the PCIe 4.0 x4 host link of Table I.
            mean_interarrival_ns: 8_000.0,
        }
    }
}

impl SynthConfig {
    /// Generates `n_requests` requests with the configured mix.
    ///
    /// # Panics
    ///
    /// Panics if ratios are outside `[0, 1]`, regions are smaller than one
    /// request, or `request_bytes` is not aligned.
    pub fn generate(&self, n_requests: usize, seed: u64) -> Trace {
        assert!(
            (0.0..=1.0).contains(&self.read_ratio),
            "read ratio {} out of range",
            self.read_ratio
        );
        assert!(
            (0.0..=1.0).contains(&self.cold_read_ratio),
            "cold-read ratio {} out of range",
            self.cold_read_ratio
        );
        assert!(
            self.request_bytes > 0 && self.request_bytes % ALIGN_BYTES == 0,
            "request size must be a positive multiple of the alignment"
        );
        assert!(
            self.hot_region_bytes >= self.request_bytes as u64
                && self.cold_region_bytes >= self.request_bytes as u64,
            "regions must fit at least one request"
        );

        let mut rng = SimRng::seed_from(seed);
        // Hot-region slots, Zipf-ranked for locality.
        let hot_slots = (self.hot_region_bytes / self.request_bytes as u64).max(1) as usize;
        let zipf = ZipfTable::new(hot_slots.min(65_536), self.zipf_s);
        let cold_slots = (self.cold_region_bytes / self.request_bytes as u64).max(1);
        let cold_base = self.hot_region_bytes;
        let hot_slot = |rng: &mut SimRng| -> u64 {
            let rank = rng.zipf(&zipf) as u64;
            // Spread Zipf ranks over the full slot count when the region
            // exceeds the table size.
            let stride = (hot_slots as u64 / zipf.len() as u64).max(1);
            (rank * stride + rng.int_range(0, stride)) % hot_slots as u64
        };

        // First pass: arrivals, op mix, write targets. Hot (non-cold) read
        // targets are resolved in a second pass so they can be drawn from
        // the slots the trace actually writes — a read is only "not cold"
        // if its page is updated somewhere in the workload.
        let mut now_ns = 0.0f64;
        let mut requests = Vec::with_capacity(n_requests);
        let mut pending_hot_reads = Vec::new();
        let mut written_slots = Vec::new();
        let mut written_set = std::collections::HashSet::new();
        for _ in 0..n_requests {
            now_ns += rng.exponential(1.0 / self.mean_interarrival_ns);
            let arrival = SimTime::from_ns(now_ns as u64);
            let is_read = rng.chance(self.read_ratio);
            let offset = if !is_read {
                let slot = hot_slot(&mut rng);
                if written_set.insert(slot) {
                    written_slots.push(slot);
                }
                slot * self.request_bytes as u64
            } else if rng.chance(self.cold_read_ratio) {
                // Cold read: uniform over the read-only region.
                let slot = rng.int_range(0, cold_slots);
                cold_base + slot * self.request_bytes as u64
            } else {
                pending_hot_reads.push(requests.len());
                0 // placeholder, resolved below
            };
            requests.push(IoRequest {
                arrival,
                op: if is_read { IoOp::Read } else { IoOp::Write },
                offset,
                bytes: self.request_bytes,
            });
        }

        // Second pass: point hot reads at written slots. In the degenerate
        // all-reads case there are no written slots; fall back to Zipf over
        // the hot region (every read is then cold by definition).
        for idx in pending_hot_reads {
            let slot = if written_slots.is_empty() {
                hot_slot(&mut rng)
            } else {
                written_slots[rng.index(written_slots.len())]
            };
            requests[idx].offset = slot * self.request_bytes as u64;
        }
        Trace::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn ratios_match_configuration() {
        for &(rr, cr) in &[(0.27, 0.50), (0.96, 0.79), (0.70, 0.82)] {
            let cfg = SynthConfig {
                read_ratio: rr,
                cold_read_ratio: cr,
                ..SynthConfig::default()
            };
            let t = cfg.generate(4000, 7);
            let s = TraceStats::compute(&t);
            assert!(
                (s.read_ratio - rr).abs() < 0.04,
                "read ratio {} vs {rr}",
                s.read_ratio
            );
            assert!(
                (s.cold_read_ratio - cr).abs() < 0.05,
                "cold ratio {} vs {cr}",
                s.cold_read_ratio
            );
        }
    }

    #[test]
    fn offered_load_matches_interarrival() {
        let cfg = SynthConfig::default();
        let t = cfg.generate(5000, 9);
        let span_s = t.span().as_secs();
        let offered = t.total_bytes() as f64 / span_s;
        // 64 KiB / 8 µs = 8.19 GB/s.
        assert!((offered - 8.19e9).abs() / 8.19e9 < 0.1, "offered {offered}");
    }

    #[test]
    fn addresses_are_aligned_and_bounded() {
        let cfg = SynthConfig::default();
        let t = cfg.generate(2000, 11);
        let bound = cfg.hot_region_bytes + cfg.cold_region_bytes;
        for r in &t {
            assert_eq!(r.offset % ALIGN_BYTES as u64, 0);
            assert!(r.end() <= bound, "request beyond footprint: {r:?}");
        }
    }

    #[test]
    fn writes_stay_in_hot_region() {
        let cfg = SynthConfig {
            read_ratio: 0.3,
            ..SynthConfig::default()
        };
        let t = cfg.generate(3000, 13);
        for r in &t {
            if !r.is_read() {
                assert!(r.end() <= cfg.hot_region_bytes, "write outside hot region");
            }
        }
    }

    #[test]
    fn hot_reads_show_locality() {
        // With a strong Zipf exponent, some hot slots are read far more
        // often than the uniform expectation.
        let cfg = SynthConfig {
            read_ratio: 1.0,
            cold_read_ratio: 0.0,
            zipf_s: 1.1,
            ..SynthConfig::default()
        };
        let t = cfg.generate(5000, 17);
        // Regression: peak_offset_frequency replaces an inline
        // max().unwrap() that panicked on empty histograms.
        let max = t.peak_offset_frequency();
        let distinct = t.distinct_offsets();
        assert!(
            max > 5000 / distinct * 10,
            "no hot spot: max {max}, distinct {distinct}"
        );
    }

    #[test]
    fn peak_offset_frequency_of_empty_trace_is_zero() {
        assert_eq!(Trace::default().peak_offset_frequency(), 0);
        assert_eq!(Trace::default().distinct_offsets(), 0);
        let t = SynthConfig::default().generate(100, 1);
        assert!(t.peak_offset_frequency() >= 1);
        assert!(t.distinct_offsets() >= 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SynthConfig::default();
        let a = cfg.generate(100, 3);
        let b = cfg.generate(100, 3);
        assert_eq!(a.requests(), b.requests());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_read_ratio() {
        let cfg = SynthConfig {
            read_ratio: 1.5,
            ..SynthConfig::default()
        };
        let _ = cfg.generate(10, 1);
    }
}
