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

use std::sync::{Arc, Mutex, PoisonError};

use rif_events::{SimRng, SimTime, ZipfTable};

use crate::trace::{IoOp, IoRequest, Trace};

/// Address alignment of generated requests: one 16-KiB flash page.
const ALIGN_BYTES: u32 = 16 * 1024;

/// Most Zipf tables [`shared_zipf`] keeps; the oldest is replaced beyond.
/// The generator's largest table (65 536 ranks) is 768 KiB.
const ZIPF_MEMO_TABLES: usize = 4;

/// Zipf tables by (ranks, exponent bits), oldest first.
type ZipfMemo = Vec<((usize, u64), Arc<ZipfTable>)>;

/// The process-wide memo behind [`shared_zipf`].
static ZIPF_MEMO: Mutex<ZipfMemo> = Mutex::new(Vec::new());

/// `ZipfTable::new(ranks, s)`, built once per process for each of the
/// last [`ZIPF_MEMO_TABLES`] (ranks, exponent) pairs asked for. A cache of
/// a pure function: a table from the memo is the table `new` would build.
/// A poisoned lock is used as is: the memo only ever holds whole tables.
fn shared_zipf(ranks: usize, s: f64) -> Arc<ZipfTable> {
    let key = (ranks, s.to_bits());
    let mut memo = ZIPF_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, table)) = memo.iter().find(|(k, _)| *k == key) {
        return Arc::clone(table);
    }
    let table = Arc::new(ZipfTable::new(ranks, s));
    if memo.len() == ZIPF_MEMO_TABLES {
        memo.remove(0);
    }
    memo.push((key, Arc::clone(&table)));
    table
}

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
    /// Checks the configuration [`generate`](Self::generate) needs: both
    /// ratios in `[0, 1]`, a non-negative Zipf exponent, a request size
    /// that is a positive multiple of the 16-KiB page, regions that each
    /// fit one request, and a mean interarrival time whose reciprocal,
    /// the Poisson arrival rate, is positive. The error names the first
    /// field that fails.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(format!(
                "read ratio {} out of range [0, 1]",
                self.read_ratio
            ));
        }
        if !(0.0..=1.0).contains(&self.cold_read_ratio) {
            return Err(format!(
                "cold-read ratio {} out of range [0, 1]",
                self.cold_read_ratio
            ));
        }
        if self.zipf_s.is_nan() || self.zipf_s < 0.0 {
            return Err(format!(
                "Zipf exponent {} must be non-negative",
                self.zipf_s
            ));
        }
        if self.request_bytes == 0 || !self.request_bytes.is_multiple_of(ALIGN_BYTES) {
            return Err(format!(
                "request size {} B must be a positive multiple of the {ALIGN_BYTES}-B alignment",
                self.request_bytes
            ));
        }
        if self.hot_region_bytes < self.request_bytes as u64
            || self.cold_region_bytes < self.request_bytes as u64
        {
            return Err(format!(
                "regions ({} B hot, {} B cold) must fit at least one {} B request",
                self.hot_region_bytes, self.cold_region_bytes, self.request_bytes
            ));
        }
        let rate = 1.0 / self.mean_interarrival_ns;
        if rate.is_nan() || rate <= 0.0 {
            return Err(format!(
                "mean interarrival {} ns gives no positive arrival rate",
                self.mean_interarrival_ns
            ));
        }
        Ok(())
    }

    /// Generates `n_requests` requests with the configured mix.
    ///
    /// # Panics
    ///
    /// Panics with [`validate`](Self::validate)'s message if the
    /// configuration is invalid.
    pub fn generate(&self, n_requests: usize, seed: u64) -> Trace {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }

        let mut rng = SimRng::seed_from(seed);
        // Hot-region slots, Zipf-ranked for locality.
        let hot_slots = self.hot_region_bytes / self.request_bytes as u64;
        let zipf = shared_zipf(hot_slots.min(65_536) as usize, self.zipf_s);
        // Spread Zipf ranks over the full slot count when the region
        // exceeds the table size. The table has at most `hot_slots` ranks,
        // so `stride` ≥ 1 and `rank · stride + offset` < `hot_slots`.
        let stride = hot_slots / zipf.len() as u64;
        let cold_slots = self.cold_region_bytes / self.request_bytes as u64;
        let cold_base = self.hot_region_bytes;
        let hot_slot = |rng: &mut SimRng| -> u64 {
            let rank = rng.zipf(&zipf) as u64;
            rank * stride + rng.int_range(0, stride)
        };

        // First pass: arrivals, op mix, write targets. Hot (non-cold) read
        // targets are resolved in a second pass so they can be drawn from
        // the slots the trace actually writes — a read is only "not cold"
        // if its page is updated somewhere in the workload.
        let mut now_ns = 0.0f64;
        let mut requests = Vec::with_capacity(n_requests);
        let mut pending_hot_reads = Vec::new();
        // Distinct written slots in first-write order, and a bitmap over
        // the hot region marking them. Zeroed pages of a large, sparsely
        // written bitmap are never touched.
        let mut written_slots = Vec::new();
        let mut written = vec![0u64; hot_slots.div_ceil(64) as usize];
        for _ in 0..n_requests {
            now_ns += rng.exponential(1.0 / self.mean_interarrival_ns);
            let arrival = SimTime::from_ns(now_ns as u64);
            let is_read = rng.chance(self.read_ratio);
            let offset = if !is_read {
                let slot = hot_slot(&mut rng);
                let (word, bit) = ((slot / 64) as usize, 1u64 << (slot % 64));
                if written[word] & bit == 0 {
                    written[word] |= bit;
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
    fn validate_names_the_first_bad_field() {
        let ok = SynthConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = |edit: fn(&mut SynthConfig), says: &str| {
            let mut cfg = ok.clone();
            edit(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(says), "{err}");
        };
        bad(|c| c.read_ratio = 1.5, "read ratio");
        bad(|c| c.read_ratio = f64::NAN, "read ratio");
        bad(|c| c.cold_read_ratio = -0.1, "cold-read ratio");
        bad(|c| c.zipf_s = -1.0, "Zipf exponent");
        bad(|c| c.zipf_s = f64::NAN, "Zipf exponent");
        bad(|c| c.request_bytes = 3 * 1024, "request size");
        bad(|c| c.request_bytes = 0, "request size");
        bad(|c| c.cold_region_bytes = 16 * 1024, "regions");
        bad(|c| c.mean_interarrival_ns = -1.0, "interarrival");
        bad(|c| c.mean_interarrival_ns = f64::INFINITY, "interarrival");
        bad(|c| c.mean_interarrival_ns = f64::NAN, "interarrival");
    }

    #[test]
    #[should_panic(expected = "Zipf exponent -1 must be non-negative")]
    fn generate_panics_with_the_validation_message() {
        let cfg = SynthConfig {
            zipf_s: -1.0,
            ..SynthConfig::default()
        };
        let _ = cfg.generate(10, 1);
    }

    #[test]
    fn zipf_memo_shares_tables_and_stays_bounded() {
        // Exponents no other test uses, so concurrent tests add at most a
        // few other keys.
        let a = shared_zipf(1000, 0.123);
        let b = shared_zipf(1000, 0.123);
        assert!(Arc::ptr_eq(&a, &b), "a second ask builds the table again");
        for s in 0..(2 * ZIPF_MEMO_TABLES) {
            let t = shared_zipf(999, 0.5 + s as f64);
            assert_eq!(t.len(), 999);
        }
        let held = ZIPF_MEMO
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        assert!(held <= ZIPF_MEMO_TABLES, "memo holds {held} tables");
    }

    #[test]
    fn zipf_memo_survives_a_poisoned_lock() {
        let poisoner = std::thread::spawn(|| {
            let _held = ZIPF_MEMO.lock();
            panic!("poisoning the Zipf memo on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(ZIPF_MEMO.is_poisoned());
        let t = shared_zipf(77, 0.321);
        assert_eq!(t.len(), 77);
        assert!(Arc::ptr_eq(&t, &shared_zipf(77, 0.321)));
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
