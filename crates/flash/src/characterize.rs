//! The synthetic device-characterization campaign.
//!
//! Stands in for the paper's study of 160 real 3D TLC NAND chips (§III-A,
//! §V-A1): it samples a population of blocks from the process-variation
//! distribution and sweeps operating conditions, producing
//!
//! * the retention-to-failure distributions of **Fig. 4** (proportion of
//!   blocks whose RBER first exceeds the ECC capability after x days at
//!   y P/E cycles), and
//! * the intra-page chunk RBER similarity of **Fig. 12** (maximum
//!   `(RBERmax − RBERmin)/RBERmax` across fixed-size chunks of a 16-KiB
//!   page).

use rif_events::SimRng;
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::Bsc;

use crate::geometry::FlashGeometry;
use crate::rber::{BlockProfile, ErrorModel};
use crate::vth::OperatingPoint;

/// One cell of the Fig. 4 heat map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionCell {
    /// P/E-cycle count of the row.
    pub pe_cycles: u32,
    /// Retention day of the column.
    pub day: u32,
    /// Proportion of sampled blocks whose RBER first exceeds the ECC
    /// capability on this day.
    pub proportion: f64,
}

/// Distribution of first-failure retention days per P/E count (Fig. 4).
///
/// Blocks that survive the whole `max_day` horizon are not represented in
/// any cell (their proportion is reported via [`RetentionMap::survivors`]).
#[derive(Debug, Clone)]
pub struct RetentionMap {
    cells: Vec<RetentionCell>,
    survivors: Vec<(u32, f64)>,
}

impl RetentionMap {
    /// All non-empty histogram cells.
    pub fn cells(&self) -> &[RetentionCell] {
        &self.cells
    }

    /// Fraction of blocks per P/E count that never crossed the capability
    /// within the horizon.
    pub fn survivors(&self) -> &[(u32, f64)] {
        &self.survivors
    }

    /// First day with non-zero failure proportion at `pe_cycles` (the
    /// earliest retry onset the paper quotes: 17/14/10/8 days).
    pub fn first_failure_day(&self, pe_cycles: u32) -> Option<u32> {
        self.cells
            .iter()
            .filter(|c| c.pe_cycles == pe_cycles && c.proportion > 0.0)
            .map(|c| c.day)
            .min()
    }

    /// Median first-failure day at `pe_cycles`.
    pub fn median_failure_day(&self, pe_cycles: u32) -> Option<f64> {
        let mut acc = 0.0;
        let total: f64 = self
            .cells
            .iter()
            .filter(|c| c.pe_cycles == pe_cycles)
            .map(|c| c.proportion)
            .sum();
        if total <= 0.0 {
            return None;
        }
        for c in self.cells.iter().filter(|c| c.pe_cycles == pe_cycles) {
            acc += c.proportion;
            if acc >= total / 2.0 {
                return Some(c.day as f64);
            }
        }
        None
    }
}

/// Runs the Fig. 4 campaign: samples `blocks_per_pe` block profiles per P/E
/// count and histograms the first retention day at which each block's
/// kind-averaged RBER exceeds `cap`.
///
/// # Panics
///
/// Panics if `blocks_per_pe` is zero or `max_day` is zero.
pub fn retention_failure_map(
    model: &ErrorModel,
    pe_list: &[u32],
    max_day: u32,
    blocks_per_pe: usize,
    cap: f64,
    seed: u64,
) -> RetentionMap {
    assert!(blocks_per_pe > 0, "need at least one block per P/E point");
    assert!(max_day > 0, "horizon must be positive");
    let mut rng = SimRng::seed_from(seed);
    let mut cells = Vec::new();
    let mut survivors = Vec::new();
    for &pe in pe_list {
        let mut hist = vec![0usize; max_day as usize + 1];
        let mut alive = 0usize;
        for _ in 0..blocks_per_pe {
            let block = BlockProfile::sample(&mut rng);
            match model.days_to_exceed(block, pe, cap, max_day as f64) {
                Some(d) => hist[(d.ceil() as usize).min(max_day as usize)] += 1,
                None => alive += 1,
            }
        }
        for (day, &count) in hist.iter().enumerate() {
            if count > 0 {
                cells.push(RetentionCell {
                    pe_cycles: pe,
                    day: day as u32,
                    proportion: count as f64 / blocks_per_pe as f64,
                });
            }
        }
        survivors.push((pe, alive as f64 / blocks_per_pe as f64));
    }
    RetentionMap { cells, survivors }
}

/// One row of the Fig. 12 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkSimilarityRow {
    /// P/E-cycle count.
    pub pe_cycles: u32,
    /// Retention days.
    pub day: u32,
    /// Chunk size in KiB (4, 2 or 1 in the paper).
    pub chunk_kib: usize,
    /// Maximum observed `(RBERmax − RBERmin)/RBERmax` across chunks,
    /// over all sampled pages.
    pub max_ratio: f64,
}

/// Runs the Fig. 12 study: for each (P/E, day, chunk size) it injects
/// errors into `pages` simulated 16-KiB pages at the model RBER and
/// measures how much per-chunk error rates diverge within a page.
///
/// # Panics
///
/// Panics if `pages` is zero or a chunk size does not divide 16 KiB.
pub fn chunk_similarity(
    model: &ErrorModel,
    pe_list: &[u32],
    days: &[u32],
    chunk_kibs: &[usize],
    pages: usize,
    seed: u64,
) -> Vec<ChunkSimilarityRow> {
    assert!(pages > 0, "need at least one page");
    let page_bits = FlashGeometry::paper().page_bytes * 8;
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::new();
    for &pe in pe_list {
        for &day in days {
            for &chunk_kib in chunk_kibs {
                let chunk_bits = chunk_kib * 1024 * 8;
                assert!(
                    page_bits.is_multiple_of(chunk_bits),
                    "chunk size {chunk_kib} KiB does not divide the page"
                );
                let n_chunks = page_bits / chunk_bits;
                let mut max_ratio: f64 = 0.0;
                for _ in 0..pages {
                    let block = BlockProfile::sample(&mut rng);
                    let rber = model.rber_avg_default(block, OperatingPoint::new(pe, day as f64));
                    let page = Bsc::new(rber.min(0.5)).corrupt(&BitVec::zeros(page_bits), &mut rng);
                    let mut rates = Vec::with_capacity(n_chunks);
                    for c in 0..n_chunks {
                        let errs = page.slice(c * chunk_bits, chunk_bits).count_ones();
                        rates.push(errs as f64 / chunk_bits as f64);
                    }
                    let hi = rates.iter().cloned().fold(f64::MIN, f64::max);
                    let lo = rates.iter().cloned().fold(f64::MAX, f64::min);
                    if hi > 0.0 {
                        max_ratio = max_ratio.max((hi - lo) / hi);
                    }
                }
                out.push(ChunkSimilarityRow {
                    pe_cycles: pe,
                    day,
                    chunk_kib,
                    max_ratio,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_map_onset_shrinks_with_pe() {
        let model = ErrorModel::calibrated();
        let map = retention_failure_map(&model, &[0, 1000], 40, 200, 0.0085, 1);
        let d0 = map.median_failure_day(0).unwrap();
        let d1000 = map.median_failure_day(1000).unwrap();
        assert!(d1000 < d0, "1K median {d1000} not earlier than 0K {d0}");
        // Fig. 4 anchors (±3 days of slack for process-variation medians).
        assert!((14.0..21.0).contains(&d0), "0K median {d0}");
        assert!((5.0..12.0).contains(&d1000), "1K median {d1000}");
    }

    #[test]
    fn retention_map_proportions_sum_with_survivors_to_one() {
        let model = ErrorModel::calibrated();
        let map = retention_failure_map(&model, &[500], 40, 150, 0.0085, 2);
        let failing: f64 = map
            .cells()
            .iter()
            .filter(|c| c.pe_cycles == 500)
            .map(|c| c.proportion)
            .sum();
        let surviving = map.survivors().iter().find(|(pe, _)| *pe == 500).unwrap().1;
        assert!((failing + surviving - 1.0).abs() < 1e-9);
    }

    #[test]
    fn first_failure_precedes_median() {
        let model = ErrorModel::calibrated();
        let map = retention_failure_map(&model, &[200], 40, 200, 0.0085, 3);
        let first = map.first_failure_day(200).unwrap() as f64;
        let median = map.median_failure_day(200).unwrap();
        assert!(first <= median);
    }

    #[test]
    fn chunk_ratio_grows_as_chunks_shrink() {
        // Fig. 12's key message: 1-KiB chunks vary more than 4-KiB chunks.
        let model = ErrorModel::calibrated();
        let rows = chunk_similarity(&model, &[1000], &[14], &[4, 1], 30, 4);
        let r4 = rows.iter().find(|r| r.chunk_kib == 4).unwrap().max_ratio;
        let r1 = rows.iter().find(|r| r.chunk_kib == 1).unwrap().max_ratio;
        assert!(r1 > r4, "1-KiB ratio {r1} not above 4-KiB ratio {r4}");
    }

    #[test]
    fn chunk_ratio_is_small_for_4kib_chunks_when_aged() {
        // With RBER near the capability, 4-KiB chunks hold hundreds of
        // errors, so relative spread is modest — the basis for RP's
        // single-chunk approximation (§V-A1).
        let model = ErrorModel::calibrated();
        let rows = chunk_similarity(&model, &[2000], &[21], &[4], 30, 5);
        assert!(rows[0].max_ratio < 0.35, "ratio {}", rows[0].max_ratio);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn chunk_similarity_rejects_bad_chunk() {
        let model = ErrorModel::calibrated();
        let _ = chunk_similarity(&model, &[0], &[1], &[3], 1, 6);
    }
}
