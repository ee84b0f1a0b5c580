//! The calibrated error model and per-block RBER lookup tables.
//!
//! The paper's extended MQSim-E models each block "with a lookup table that
//! contains RBER values at different P/E-cycle counts, retention ages, and
//! block read counts from the device characterization results of a randomly
//! chosen test block" (§VI-A). [`ErrorModel`] plays the role of the
//! 160-chip characterization: it samples per-block process variation and
//! evaluates the physical V_TH model. The event-level simulator calls it
//! directly, so its RBERs are exact at any age, wear and read count. A
//! read group evaluates its block's V_TH state once
//! ([`ErrorModel::state_params`]) and prices everything from it. In
//! oracle mode that is the default and optimal references
//! ([`ErrorModel::rber_default_with`], [`ErrorModel::rber_optimal_with`]).
//! In learned mode it is the learner's references and each
//! re-calibration's ones-count and selected references
//! ([`ErrorModel::rber_at_with`],
//! [`SwiftRead::observe_ones_with`](crate::swift_read::SwiftRead::observe_ones_with)),
//! and the learner's score ([`ErrorModel::optimal_offset_with`]).
//! [`BlockErrorTable`] is the paper-style baked table with linear
//! interpolation between grid days; the simulator does
//! not read it (interpolating would change every simulated result — its
//! only user is a look-up microcell of the benchmark under `perf/`).

use rif_events::SimRng;

use crate::geometry::PageKind;
use crate::vref::ReadVoltages;
use crate::vth::{first_day_above, OperatingPoint, StateParam, TlcModel};

/// Per-block reliability profile drawn from process variation.
///
/// `factor` scales the block's retention degradation: 1.0 is the median
/// block, larger is weaker. Sampled log-normally, matching the
/// block-to-block spread observed in 3D NAND characterization studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockProfile {
    /// Retention-degradation multiplier (≈0.6–2.0, median 1.0).
    pub factor: f64,
}

impl BlockProfile {
    /// The median block.
    pub fn median() -> Self {
        BlockProfile { factor: 1.0 }
    }

    /// Samples a block from the process-variation distribution.
    pub fn sample(rng: &mut SimRng) -> Self {
        // σ = 0.18 in log space gives roughly ±40 % at 2σ, clamped to keep
        // pathological tails out of the timing model.
        let factor = rng.log_normal(0.0, 0.18).clamp(0.55, 2.2);
        BlockProfile { factor }
    }
}

/// The full error model: physics plus calibration plus process variation.
///
/// # Example
///
/// ```
/// use rif_flash::{ErrorModel, PageKind, OperatingPoint};
///
/// let model = ErrorModel::calibrated();
/// let median = rif_flash::BlockProfile::median();
/// let fresh = model.rber_default(median, OperatingPoint::new(0, 0.0), PageKind::Csb);
/// let aged = model.rber_default(median, OperatingPoint::new(2000, 25.0), PageKind::Csb);
/// assert!(fresh < 0.0085 && aged > 0.0085);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorModel {
    tlc: TlcModel,
    default_refs: [f64; 7],
    /// `tlc.state_scaling()`, fixed with the model.
    state_scaling: [f64; 8],
}

impl ErrorModel {
    /// The calibrated model (Fig. 4 anchors; see [`TlcModel::calibrated`]).
    pub fn calibrated() -> Self {
        Self::new(TlcModel::calibrated())
    }

    /// Wraps an arbitrary V_TH model.
    pub fn new(tlc: TlcModel) -> Self {
        let default_refs = tlc.default_refs();
        let state_scaling = tlc.state_scaling();
        ErrorModel {
            tlc,
            default_refs,
            state_scaling,
        }
    }

    /// The underlying V_TH model.
    pub fn tlc(&self) -> &TlcModel {
        &self.tlc
    }

    /// The manufacturer default read references.
    pub fn default_refs(&self) -> ReadVoltages {
        ReadVoltages::new(self.default_refs)
    }

    /// V_TH state distributions of `block` at `op`. One read usually
    /// prices several reference sets against the same distributions:
    /// evaluate them once and hand them to the `*_with` methods.
    pub fn state_params(&self, block: BlockProfile, op: OperatingPoint) -> [StateParam; 8] {
        self.tlc
            .state_params_scaled(&self.state_scaling, op, block.factor)
    }

    /// RBER of a page read at the default references.
    pub fn rber_default(&self, block: BlockProfile, op: OperatingPoint, kind: PageKind) -> f64 {
        self.rber_default_with(&self.state_params(block, op), kind)
    }

    /// [`ErrorModel::rber_default`] from precomputed state distributions.
    pub fn rber_default_with(&self, params: &[StateParam; 8], kind: PageKind) -> f64 {
        self.tlc.rber_with_params(params, &self.default_refs, kind)
    }

    /// RBER of a page re-read at *near-optimal* references (what an ideal
    /// retry achieves). This is the RBER for which tECC ≈ 1 µs in Table I.
    pub fn rber_optimal(&self, block: BlockProfile, op: OperatingPoint, kind: PageKind) -> f64 {
        self.rber_optimal_with(&self.state_params(block, op), kind)
    }

    /// [`ErrorModel::rber_optimal`] from precomputed state distributions.
    pub fn rber_optimal_with(&self, params: &[StateParam; 8], kind: PageKind) -> f64 {
        self.tlc.rber_optimal_with_params(params, kind)
    }

    /// RBER of a page read at arbitrary references.
    pub fn rber_at(
        &self,
        block: BlockProfile,
        op: OperatingPoint,
        refs: ReadVoltages,
        kind: PageKind,
    ) -> f64 {
        self.rber_at_with(&self.state_params(block, op), refs, kind)
    }

    /// [`ErrorModel::rber_at`] from precomputed state distributions.
    pub fn rber_at_with(
        &self,
        params: &[StateParam; 8],
        refs: ReadVoltages,
        kind: PageKind,
    ) -> f64 {
        self.tlc.rber_with_params(params, refs.as_array(), kind)
    }

    /// Kind-averaged RBER at default references.
    pub fn rber_avg_default(&self, block: BlockProfile, op: OperatingPoint) -> f64 {
        self.tlc.rber_avg(op, block.factor, &self.default_refs)
    }

    /// The uniform V_REF offset that near-optimal references apply on
    /// average at this operating point: the mean over R1–R7 of
    /// (optimal − default). This is the scalar ground truth the online
    /// [`crate::learn::ThresholdLearner`] is judged against.
    pub fn optimal_offset(&self, block: BlockProfile, op: OperatingPoint) -> f64 {
        self.optimal_offset_with(&self.state_params(block, op))
    }

    /// [`ErrorModel::optimal_offset`] from precomputed state distributions.
    pub fn optimal_offset_with(&self, params: &[StateParam; 8]) -> f64 {
        let optimal = self.tlc.optimal_refs(*params);
        optimal
            .iter()
            .zip(&self.default_refs)
            .map(|(o, d)| o - d)
            .sum::<f64>()
            / 7.0
    }

    /// First retention day at which this block's kind-averaged RBER at the
    /// default references exceeds `cap`, searched up to `max_days`.
    /// Returns `None` if the block survives the whole horizon.
    pub fn days_to_exceed(
        &self,
        block: BlockProfile,
        pe_cycles: u32,
        cap: f64,
        max_days: f64,
    ) -> Option<f64> {
        first_day_above(cap, max_days, |d| {
            self.rber_avg_default(block, OperatingPoint::new(pe_cycles, d))
        })
    }
}

/// A baked per-block RBER lookup table: retention-day axis at a fixed P/E
/// count, one row per page kind, with linear interpolation — the kind of
/// artifact the extended MQSim-E consults on every simulated page read.
/// This repository's simulator evaluates [`ErrorModel`] instead (see the
/// module documentation).
#[derive(Debug, Clone)]
pub struct BlockErrorTable {
    pe_cycles: u32,
    max_days: f64,
    step_days: f64,
    /// `[kind][day_index]` RBER at default references.
    default: [Vec<f64>; 3],
    /// `[kind][day_index]` RBER at near-optimal references.
    optimal: [Vec<f64>; 3],
}

impl BlockErrorTable {
    /// Bakes a table for `block` at `pe_cycles`, covering retention ages
    /// `0..=max_days` at `step_days` resolution.
    ///
    /// # Panics
    ///
    /// Panics unless `max_days > 0` and `step_days > 0`.
    pub fn build(
        model: &ErrorModel,
        block: BlockProfile,
        pe_cycles: u32,
        max_days: f64,
        step_days: f64,
    ) -> Self {
        assert!(max_days > 0.0 && step_days > 0.0, "invalid table extent");
        let n = (max_days / step_days).ceil() as usize + 1;
        let mut default: [Vec<f64>; 3] = Default::default();
        let mut optimal: [Vec<f64>; 3] = Default::default();
        for (ki, &kind) in PageKind::ALL.iter().enumerate() {
            default[ki] = Vec::with_capacity(n);
            optimal[ki] = Vec::with_capacity(n);
            for i in 0..n {
                let day = (i as f64 * step_days).min(max_days);
                let op = OperatingPoint::new(pe_cycles, day);
                default[ki].push(model.rber_default(block, op, kind));
                optimal[ki].push(model.rber_optimal(block, op, kind));
            }
        }
        BlockErrorTable {
            pe_cycles,
            max_days,
            step_days,
            default,
            optimal,
        }
    }

    /// The P/E count this table was baked at.
    pub fn pe_cycles(&self) -> u32 {
        self.pe_cycles
    }

    fn lookup(&self, rows: &[Vec<f64>; 3], kind: PageKind, days: f64) -> f64 {
        let ki = PageKind::ALL.iter().position(|&k| k == kind).expect("kind");
        let row = &rows[ki];
        let clamped = days.clamp(0.0, self.max_days);
        let pos = clamped / self.step_days;
        let i = (pos.floor() as usize).min(row.len() - 1);
        let j = (i + 1).min(row.len() - 1);
        let frac = pos - i as f64;
        row[i] * (1.0 - frac) + row[j] * frac
    }

    /// Interpolated RBER at default references.
    pub fn rber_default(&self, kind: PageKind, retention_days: f64) -> f64 {
        self.lookup(&self.default, kind, retention_days)
    }

    /// Interpolated RBER at near-optimal references.
    pub fn rber_optimal(&self, kind: PageKind, retention_days: f64) -> f64 {
        self.lookup(&self.optimal, kind, retention_days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_profiles_center_on_median() {
        let mut rng = SimRng::seed_from(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| BlockProfile::sample(&mut rng).factor)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean factor {mean}");
    }

    #[test]
    fn weak_blocks_fail_earlier() {
        let model = ErrorModel::calibrated();
        let strong = BlockProfile { factor: 0.7 };
        let weak = BlockProfile { factor: 1.6 };
        let ds = model.days_to_exceed(strong, 0, 0.0085, 150.0).unwrap();
        let dw = model.days_to_exceed(weak, 0, 0.0085, 150.0).unwrap();
        assert!(dw < ds, "weak {dw} vs strong {ds}");
    }

    #[test]
    fn fig4_median_anchors() {
        // Fig. 4: median crossing ≈17 days at 0 P/E, shrinking to ≈8 days
        // by 1000 P/E. Tolerances are generous — the paper's boxes span
        // several days themselves.
        let model = ErrorModel::calibrated();
        let m = BlockProfile::median();
        let d0 = model.days_to_exceed(m, 0, 0.0085, 60.0).unwrap();
        let d200 = model.days_to_exceed(m, 200, 0.0085, 60.0).unwrap();
        let d500 = model.days_to_exceed(m, 500, 0.0085, 60.0).unwrap();
        let d1000 = model.days_to_exceed(m, 1000, 0.0085, 60.0).unwrap();
        let d2000 = model.days_to_exceed(m, 2000, 0.0085, 60.0).unwrap();
        assert!((15.0..20.0).contains(&d0), "0K crossing {d0}");
        assert!((11.0..16.0).contains(&d200), "200 crossing {d200}");
        assert!((8.0..13.0).contains(&d500), "500 crossing {d500}");
        assert!((6.0..11.0).contains(&d1000), "1K crossing {d1000}");
        assert!(d2000 < d1000, "2K crossing {d2000}");
        assert!(d200 < d0 && d500 < d200 && d1000 < d500);
    }

    #[test]
    fn optimal_rber_much_lower_than_default_when_aged() {
        let model = ErrorModel::calibrated();
        let m = BlockProfile::median();
        let op = OperatingPoint::new(1000, 20.0);
        for kind in PageKind::ALL {
            let d = model.rber_default(m, op, kind);
            let o = model.rber_optimal(m, op, kind);
            assert!(o < d * 0.5, "{kind}: optimal {o} vs default {d}");
        }
    }

    #[test]
    fn table_matches_direct_evaluation_at_grid_points() {
        let model = ErrorModel::calibrated();
        let block = BlockProfile { factor: 1.2 };
        let table = BlockErrorTable::build(&model, block, 500, 30.0, 1.0);
        for day in [0.0, 7.0, 15.0, 30.0] {
            for kind in PageKind::ALL {
                let direct = model.rber_default(block, OperatingPoint::new(500, day), kind);
                let tab = table.rber_default(kind, day);
                assert!(
                    (direct - tab).abs() / direct.max(1e-9) < 1e-6,
                    "day {day} {kind}: {direct} vs {tab}"
                );
            }
        }
    }

    #[test]
    fn table_interpolates_between_grid_points() {
        let model = ErrorModel::calibrated();
        let block = BlockProfile::median();
        let table = BlockErrorTable::build(&model, block, 1000, 30.0, 1.0);
        let lo = table.rber_default(PageKind::Csb, 10.0);
        let mid = table.rber_default(PageKind::Csb, 10.5);
        let hi = table.rber_default(PageKind::Csb, 11.0);
        assert!(
            lo < mid && mid < hi,
            "interpolation not monotone: {lo} {mid} {hi}"
        );
        // Midpoint is the average of the endpoints under linear interpolation.
        assert!((mid - 0.5 * (lo + hi)).abs() < 1e-12);
    }

    #[test]
    fn table_clamps_out_of_range_days() {
        let model = ErrorModel::calibrated();
        let table = BlockErrorTable::build(&model, BlockProfile::median(), 0, 30.0, 1.0);
        assert_eq!(
            table.rber_default(PageKind::Lsb, -5.0),
            table.rber_default(PageKind::Lsb, 0.0)
        );
        assert_eq!(
            table.rber_default(PageKind::Lsb, 99.0),
            table.rber_default(PageKind::Lsb, 30.0)
        );
    }

    #[test]
    fn days_to_exceed_none_for_tiny_cap_horizon() {
        let model = ErrorModel::calibrated();
        let d = model.days_to_exceed(BlockProfile { factor: 0.55 }, 0, 0.5, 10.0);
        assert_eq!(d, None);
    }

    #[test]
    fn days_to_exceed_zero_retention_when_already_over_cap() {
        // A cap below the fresh-data RBER is exceeded at day zero exactly
        // (the early-out path, not a bisection result near zero).
        let model = ErrorModel::calibrated();
        let m = BlockProfile::median();
        let fresh = model.rber_avg_default(m, OperatingPoint::new(2000, 0.0));
        let d = model.days_to_exceed(m, 2000, fresh * 0.5, 60.0);
        assert_eq!(d, Some(0.0));
    }

    #[test]
    fn days_to_exceed_survives_max_pe_cycles() {
        // u32::MAX wear must not overflow or hang the bisection: the
        // block is hopeless immediately.
        let model = ErrorModel::calibrated();
        let d = model.days_to_exceed(BlockProfile::median(), u32::MAX, 0.0085, 60.0);
        assert_eq!(d, Some(0.0));
        // And the RBER itself stays a valid probability.
        let r = model.rber_avg_default(BlockProfile::median(), OperatingPoint::new(u32::MAX, 0.0));
        assert!((0.0..=0.5).contains(&r), "rber {r}");
    }

    #[test]
    fn rber_at_zero_retention_matches_default_refs() {
        let model = ErrorModel::calibrated();
        let m = BlockProfile::median();
        let op = OperatingPoint::new(1000, 0.0);
        for kind in PageKind::ALL {
            let via_at = model.rber_at(m, op, model.default_refs(), kind);
            let direct = model.rber_default(m, op, kind);
            assert_eq!(via_at, direct, "{kind}: rber_at diverged at defaults");
        }
    }

    #[test]
    fn rber_at_extreme_offsets_stays_a_probability() {
        // References anywhere inside the learner's valid window
        // [min_offset, max_offset] = [-0.6, 0.1] must yield finite RBER
        // in [0, 0.5] even on a weak, worn, month-old block — the model
        // guarantee the learner's clamp relies on.
        let model = ErrorModel::calibrated();
        let m = BlockProfile { factor: 2.2 };
        let op = OperatingPoint::new(2000, 30.0);
        for off in [-0.6, -0.3, 0.0, 0.1] {
            let refs = model.default_refs().offset_all(off);
            for kind in PageKind::ALL {
                let r = model.rber_at(m, op, refs, kind);
                assert!(
                    r.is_finite() && (0.0..=0.5).contains(&r),
                    "offset {off} {kind}: rber {r}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_voltages_reject_out_of_range_level_index() {
        // Level indices are 1-based R1..R7; 0 (like 8) is a caller bug.
        let model = ErrorModel::calibrated();
        let _ = model.default_refs().get(0);
    }

    #[test]
    fn block_table_handles_max_pe_and_day_edges() {
        // 3000 P/E is the deepest wear stage any sweep drives; the table
        // must build there (optimal-ref Gaussian intersections included)
        // and clamp day lookups at both ends of the horizon.
        let model = ErrorModel::calibrated();
        let table = BlockErrorTable::build(&model, BlockProfile::median(), 3000, 30.0, 1.0);
        assert_eq!(table.pe_cycles(), 3000);
        for kind in PageKind::ALL {
            let r0 = table.rber_default(kind, 0.0);
            let r_neg = table.rber_default(kind, -1.0);
            let r_over = table.rber_default(kind, 1e9);
            assert_eq!(r0, r_neg, "{kind}: negative days must clamp to day 0");
            assert_eq!(
                r_over,
                table.rber_default(kind, 30.0),
                "{kind}: beyond-horizon days must clamp to max_days"
            );
            assert!(r0.is_finite() && (0.0..=0.5).contains(&r0));
        }
    }
}
