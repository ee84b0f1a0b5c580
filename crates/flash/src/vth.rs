//! Threshold-voltage (V_TH) distribution model for 3D TLC NAND flash.
//!
//! Each TLC cell stores three bits in one of eight V_TH states (paper
//! §II-A1). States are modelled as Gaussians whose means and widths evolve
//! with stress (paper §II-A2):
//!
//! * **P/E cycling** damages the tunnel oxide, accelerating charge leakage —
//!   modelled as a multiplicative wear factor on the retention shift and a
//!   widening of every distribution;
//! * **retention** leaks charge out of the SiN layer, shifting programmed
//!   states down with the characteristic `ln(1 + t)` time dependence, higher
//!   states more strongly;
//! * **read disturb** weakly programs low states upward.
//!
//! RBER for a page is the probability mass each state places in regions
//! where the Gray-coded bit differs from the programmed value, evaluated at
//! the active read-reference voltages — the exact integral, not an
//! adjacent-state approximation, so heavily shifted distributions are
//! handled correctly.
//!
//! Constants are calibrated so a median block crosses the paper's 0.0085
//! correction capability at ≈17 days retention at 0 P/E cycles, ≈14 at
//! 200, ≈10 at 500 and ≈8 at 1000 (Fig. 4 anchors).
//!
//! The stress law (`Aging`), the region walk (`walk_regions`) and the
//! capability-crossing search (`first_day_above`) serve every cell
//! mode: [`crate::mlc`] only places the QLC and SLC states.

use crate::geometry::PageKind;
use rif_ldpc::model::normal_cdf;

/// Mean and standard deviation of one V_TH state under a given stress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateParam {
    /// Distribution mean (normalized volts).
    pub mean: f64,
    /// Distribution standard deviation (normalized volts).
    pub sigma: f64,
}

/// The stress condition of a page at read time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Program/erase cycles experienced by the block.
    pub pe_cycles: u32,
    /// Days since the page was programmed.
    pub retention_days: f64,
    /// Reads issued to the block since programming (read disturb).
    pub reads: u64,
}

impl OperatingPoint {
    /// A freshly programmed page on a fresh block.
    pub fn fresh() -> Self {
        OperatingPoint {
            pe_cycles: 0,
            retention_days: 0.0,
            reads: 0,
        }
    }

    /// Convenience constructor for the common (P/E, retention) sweeps.
    pub fn new(pe_cycles: u32, retention_days: f64) -> Self {
        OperatingPoint {
            pe_cycles,
            retention_days,
            reads: 0,
        }
    }
}

/// Gray code of the eight TLC states as (LSB, CSB, MSB) bits.
///
/// Adjacent states differ in exactly one bit, so each read-reference
/// voltage resolves exactly one page kind: LSB reads use R3/R7, CSB reads
/// use R2/R4/R6, MSB reads use R1/R5 (the 2-3-2 scheme).
const GRAY: [(bool, bool, bool); 8] = [
    (true, true, true),    // P0 (erased)
    (true, true, false),   // P1
    (true, false, false),  // P2
    (false, false, false), // P3
    (false, true, false),  // P4
    (false, true, true),   // P5
    (false, false, true),  // P6
    (true, false, true),   // P7
];

/// The parametric TLC V_TH model.
///
/// # Example
///
/// ```
/// use rif_flash::{TlcModel, PageKind};
/// use rif_flash::vth::OperatingPoint;
///
/// let m = TlcModel::calibrated();
/// let refs = m.default_refs();
/// let fresh = m.rber(OperatingPoint::fresh(), 1.0, &refs, PageKind::Lsb);
/// let aged = m.rber(OperatingPoint::new(1000, 20.0), 1.0, &refs, PageKind::Lsb);
/// assert!(fresh < 1e-3);
/// assert!(aged > fresh * 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TlcModel {
    /// Nominal spacing between adjacent state means (normalized volts).
    pub state_gap: f64,
    /// Mean of the erased state (well below P1, as in real TLC where the
    /// erase-to-P1 window is much wider than programmed-state spacing).
    pub erase_mean: f64,
    /// Fresh standard deviation of programmed states.
    pub sigma_prog: f64,
    /// Fresh standard deviation of the erased state.
    pub sigma_erase: f64,
    /// Retention-shift amplitude `A` (volts per ln-day).
    pub retention_a: f64,
    /// Wear amplitude in `wear(pe) = 1 + wear_amp · (pe/1000)^wear_exp`.
    pub wear_amp: f64,
    /// Wear exponent.
    pub wear_exp: f64,
    /// State-level exponent γ in the `(s/7)^γ` retention scaling.
    pub state_gamma: f64,
    /// Distribution widening per 1000 P/E cycles (fractional).
    pub widen_pe: f64,
    /// Distribution widening per ln-day of retention (fractional).
    pub widen_ret: f64,
    /// Read-disturb upward shift of the erased state per ln(1 + reads/1k).
    pub read_disturb: f64,
}

impl TlcModel {
    /// The calibrated model used throughout the reproduction.
    ///
    /// `retention_a` is tuned so the page-kind-average RBER of a median
    /// block crosses 0.0085 at ≈17 days of retention at 0 P/E cycles; the
    /// wear law places the later crossings near the paper's 14/10/8-day
    /// anchors for 200/500/1000 P/E cycles (Fig. 4).
    pub fn calibrated() -> Self {
        TlcModel {
            state_gap: 1.0,
            erase_mean: -1.0,
            sigma_prog: 0.14,
            sigma_erase: 0.30,
            retention_a: 0.094,
            wear_amp: 0.28,
            wear_exp: 0.65,
            state_gamma: 0.5,
            widen_pe: 0.05,
            widen_ret: 0.02,
            read_disturb: 0.02,
        }
    }

    /// Wear multiplier at `pe` program/erase cycles.
    pub fn wear(&self, pe: u32) -> f64 {
        1.0 + self.wear_amp * (pe as f64 / 1000.0).powf(self.wear_exp)
    }

    /// The state-level retention scaling `(s/7)^γ` of the eight states.
    /// It depends on the model alone, so a caller that evaluates many
    /// operating points computes it once and passes it to
    /// [`TlcModel::state_params_scaled`].
    pub fn state_scaling(&self) -> [f64; 8] {
        std::array::from_fn(|s| self.state_scale(s, 7))
    }

    /// Retention scaling `(s/top)^γ` of state `s` out of `0..=top`: the
    /// top state shifts by the full amplitude whatever the bit count.
    pub(crate) fn state_scale(&self, s: usize, top: usize) -> f64 {
        (s as f64 / top as f64).powf(self.state_gamma)
    }

    /// V_TH distribution parameters of all eight states under the given
    /// stress. `process_factor` scales the retention shift and models
    /// block-to-block process variation (1.0 = median block).
    pub fn state_params(&self, op: OperatingPoint, process_factor: f64) -> [StateParam; 8] {
        self.state_params_scaled(&self.state_scaling(), op, process_factor)
    }

    /// [`TlcModel::state_params`] with this model's
    /// [`TlcModel::state_scaling`] already computed.
    pub fn state_params_scaled(
        &self,
        scaling: &[f64; 8],
        op: OperatingPoint,
        process_factor: f64,
    ) -> [StateParam; 8] {
        self.aging(op.pe_cycles, op.reads, process_factor)
            .at(scaling, op.retention_days)
    }

    /// The age-independent part of the stress law: the wear `powf` and
    /// the read-disturb `ln`, computed once for a caller that sweeps the
    /// retention age or places states of another bit count.
    pub(crate) fn aging(&self, pe_cycles: u32, reads: u64, process_factor: f64) -> Aging<'_> {
        let wear = self.wear(pe_cycles);
        Aging {
            model: self,
            wear,
            pe_widen: 1.0 + self.widen_pe * pe_cycles as f64 / 1000.0,
            retention: self.retention_a * process_factor * wear,
            disturb: self.read_disturb * (1.0 + reads as f64 / 1000.0).ln(),
        }
    }

    /// The bit a cell in `state` contributes to a page of `kind`.
    pub fn bit_of(kind: PageKind, state: usize) -> bool {
        assert!(state < 8, "state {state} out of range");
        let (l, c, m) = GRAY[state];
        match kind {
            PageKind::Lsb => l,
            PageKind::Csb => c,
            PageKind::Msb => m,
        }
    }

    /// The read-reference indices (1–7) a page of `kind` uses: the state
    /// boundaries where its Gray bit flips.
    pub fn refs_of(kind: PageKind) -> Vec<usize> {
        (1..8)
            .filter(|&r| Self::bit_of(kind, r - 1) != Self::bit_of(kind, r))
            .collect()
    }

    /// Read-reference voltages optimal for fresh distributions — the
    /// manufacturer's default V_REF set.
    pub fn default_refs(&self) -> [f64; 7] {
        self.optimal_refs(self.state_params(OperatingPoint::fresh(), 1.0))
    }

    /// Numerically optimal read-reference voltages for the given state
    /// distributions: each reference sits at the equal-density intersection
    /// of its adjacent states.
    pub fn optimal_refs(&self, params: [StateParam; 8]) -> [f64; 7] {
        let mut refs = [0.0; 7];
        for r in 1..8 {
            refs[r - 1] = gaussian_intersection(params[r - 1], params[r]);
        }
        refs
    }

    /// RBER of a page of `kind` read at [`TlcModel::optimal_refs`]. Only
    /// the kind's own two or three boundaries are intersected: the region
    /// walk reads no other reference.
    pub fn rber_optimal_with_params(&self, params: &[StateParam; 8], kind: PageKind) -> f64 {
        let mut refs = [0.0; 7];
        for r in 1..8 {
            if Self::bit_of(kind, r - 1) != Self::bit_of(kind, r) {
                refs[r - 1] = gaussian_intersection(params[r - 1], params[r]);
            }
        }
        self.rber_with_params(params, &refs, kind)
    }

    /// RBER of a page of `kind` read at the given reference voltages.
    ///
    /// For each state the model integrates the probability mass falling in
    /// voltage regions whose decoded bit differs from the programmed bit,
    /// then averages over the eight equiprobable states (data randomization
    /// makes states uniform — paper §V-A1).
    pub fn rber(
        &self,
        op: OperatingPoint,
        process_factor: f64,
        refs: &[f64; 7],
        kind: PageKind,
    ) -> f64 {
        let params = self.state_params(op, process_factor);
        self.rber_with_params(&params, refs, kind)
    }

    /// Region boundaries of a `kind` page in ascending voltage order —
    /// the references where its Gray bit flips (two for LSB and MSB,
    /// three for CSB) — and how many of the three slots are in use.
    fn kind_bounds(kind: PageKind, refs: &[f64; 7]) -> ([f64; 3], usize) {
        let mut bounds = [0.0; 3];
        let mut n = 0;
        for r in 1..8 {
            if Self::bit_of(kind, r - 1) != Self::bit_of(kind, r) {
                bounds[n] = refs[r - 1];
                n += 1;
            }
        }
        (bounds, n)
    }

    /// RBER from precomputed state parameters (see [`TlcModel::rber`]).
    pub fn rber_with_params(
        &self,
        params: &[StateParam; 8],
        refs: &[f64; 7],
        kind: PageKind,
    ) -> f64 {
        let (bounds, n) = Self::kind_bounds(kind, refs);
        let low_bit = Self::bit_of(kind, 0);
        let mut err = 0.0;
        for (s, p) in params.iter().enumerate() {
            let wrong = !Self::bit_of(kind, s);
            let mut wrong_mass = 0.0;
            walk_regions(p, &bounds[..n], low_bit, wrong, |m| wrong_mass += m);
            err += wrong_mass / 8.0;
        }
        err
    }

    /// Average RBER over the three page kinds — the per-wordline figure the
    /// characterization campaign reports.
    pub fn rber_avg(&self, op: OperatingPoint, process_factor: f64, refs: &[f64; 7]) -> f64 {
        PageKind::ALL
            .iter()
            .map(|&k| self.rber(op, process_factor, refs, k))
            .sum::<f64>()
            / 3.0
    }

    /// Expected fraction of cells of a `kind` page that read as 1 at the
    /// given references — what a Swift-Read ones-count measures.
    pub fn ones_fraction(&self, params: &[StateParam; 8], refs: &[f64; 7], kind: PageKind) -> f64 {
        let (bounds, n) = Self::kind_bounds(kind, refs);
        let low_bit = Self::bit_of(kind, 0);
        let mut ones = 0.0;
        for p in params.iter() {
            walk_regions(p, &bounds[..n], low_bit, true, |m| ones += m / 8.0);
        }
        ones
    }
}

/// One block's V_TH states as a function of retention age alone (see
/// [`TlcModel::aging`]). It holds the stress law, written once in
/// [`Aging::state`]: [`Aging::at`] places the eight TLC states with it,
/// exactly as [`TlcModel::state_params_scaled`] returns them, and
/// [`Aging::placed`] the states of any other bit count.
pub(crate) struct Aging<'a> {
    model: &'a TlcModel,
    wear: f64,
    /// `1 + widen_pe · pe/1000`.
    pe_widen: f64,
    /// `retention_a · process_factor · wear`.
    retention: f64,
    /// Upward shift of the erased state from read disturb.
    disturb: f64,
}

impl Aging<'_> {
    /// `ln(1 + t)` and the distribution widening after `retention_days`.
    fn age(&self, retention_days: f64) -> (f64, f64) {
        let ln_t = (1.0 + retention_days.max(0.0)).ln();
        let widen = self.pe_widen + self.model.widen_ret * ln_t * self.wear;
        (ln_t, widen)
    }

    /// The stress law: state `s`, programmed to `fresh`, after an
    /// [`Aging::age`] of `(ln_t, widen)`. Its retention shift scales by
    /// `scale`; read disturb weakly programs the erased state (`s = 0`)
    /// upward.
    #[inline]
    fn state(&self, s: usize, fresh: StateParam, scale: f64, age: (f64, f64)) -> StateParam {
        let (ln_t, widen) = age;
        let shift = self.retention * ln_t * scale;
        let disturb = if s == 0 { self.disturb } else { 0.0 };
        StateParam {
            mean: fresh.mean - shift + disturb,
            sigma: fresh.sigma * widen,
        }
    }

    /// The eight TLC states after `retention_days` of retention;
    /// `scaling` is the model's [`TlcModel::state_scaling`].
    pub(crate) fn at(&self, scaling: &[f64; 8], retention_days: f64) -> [StateParam; 8] {
        let m = self.model;
        let age = self.age(retention_days);
        let mut out = [StateParam {
            mean: 0.0,
            sigma: 0.0,
        }; 8];
        for (s, slot) in out.iter_mut().enumerate() {
            let (mean, sigma) = if s == 0 {
                (m.erase_mean, m.sigma_erase)
            } else {
                (s as f64 * m.state_gap, m.sigma_prog)
            };
            *slot = self.state(s, StateParam { mean, sigma }, scaling[s], age);
        }
        out
    }

    /// States programmed to `fresh` (erased first, then ascending) after
    /// `retention_days`: the same law for any number of states.
    pub(crate) fn placed(&self, fresh: &[StateParam], retention_days: f64) -> Vec<StateParam> {
        let age = self.age(retention_days);
        let top = fresh.len() - 1;
        fresh
            .iter()
            .enumerate()
            .map(|(s, &p)| self.state(s, p, self.model.state_scale(s, top), age))
            .collect()
    }
}

/// The one region walk: visits the read regions a page's ascending
/// reference `bounds` cut, lowest first — the lowest decodes `low_bit`,
/// and crossing a bound flips the decoded bit — and hands `add` the
/// mass `p` places in each region that decodes `bit`, in that order.
#[inline]
pub(crate) fn walk_regions(
    p: &StateParam,
    bounds: &[f64],
    low_bit: bool,
    bit: bool,
    mut add: impl FnMut(f64),
) {
    let mut region_bit = low_bit;
    let mut lo = f64::NEG_INFINITY;
    for &b in bounds {
        if region_bit == bit {
            add(gauss_mass(p, lo, b));
        }
        lo = b;
        region_bit = !region_bit;
    }
    if region_bit == bit {
        add(gauss_mass(p, lo, f64::INFINITY));
    }
}

/// The one crossing search: the first retention day at which `rber`
/// exceeds `cap`, searched up to `max_days` by 40 bisection steps;
/// `None` if it never does within the horizon.
pub(crate) fn first_day_above(cap: f64, max_days: f64, rber: impl Fn(f64) -> f64) -> Option<f64> {
    if rber(0.0) > cap {
        return Some(0.0);
    }
    if rber(max_days) <= cap {
        return None;
    }
    // Negated rather than `<=`: a NaN RBER must move `lo`.
    let (lo, hi) = bisect(0.0, max_days, 40, |mid| !(rber(mid) > cap));
    Some(0.5 * (lo + hi))
}

/// Distance from the mean, in standard deviations, from which a state's
/// CDF is a saturated 0 or 1: the quotient then exceeds 8.5·(1 − 2⁻⁵²)
/// > 6√2 ≈ 8.485, where [`normal_cdf`] returns the constant itself.
const CDF_SATURATES_AT_SIGMAS: f64 = 8.5;

/// Probability mass the Gaussian `p` (σ > 0, as every state the model
/// builds) places in `(lo, hi)`; either end may be infinite. A bound
/// [`CDF_SATURATES_AT_SIGMAS`] or more from the mean skips the division
/// and returns what `normal_cdf` would, bit for bit (tested).
pub(crate) fn gauss_mass(p: &StateParam, lo: f64, hi: f64) -> f64 {
    let reach = CDF_SATURATES_AT_SIGMAS * p.sigma;
    let cdf = |x: f64| {
        let d = x - p.mean;
        if d >= reach {
            1.0
        } else if d <= -reach {
            0.0
        } else {
            normal_cdf(d / p.sigma)
        }
    };
    (cdf(hi) - cdf(lo)).max(0.0)
}

/// The equal-density crossing point of two Gaussians, constrained to lie
/// between the two means (the decision-optimal read reference for
/// equiprobable states).
pub(crate) fn gaussian_intersection(a: StateParam, b: StateParam) -> f64 {
    debug_assert!(a.mean < b.mean, "states must be ordered");
    if (a.sigma - b.sigma).abs() < 1e-12 {
        return 0.5 * (a.mean + b.mean);
    }
    // Solve (v-m1)²/s1² + 2 ln s1 = (v-m2)²/s2² + 2 ln s2.
    let (m1, s1, m2, s2) = (a.mean, a.sigma, b.mean, b.sigma);
    let qa = 1.0 / (s1 * s1) - 1.0 / (s2 * s2);
    let qb = -2.0 * (m1 / (s1 * s1) - m2 / (s2 * s2));
    let qc = m1 * m1 / (s1 * s1) - m2 * m2 / (s2 * s2) + 2.0 * (s1 / s2).ln();
    let disc = (qb * qb - 4.0 * qa * qc).max(0.0).sqrt();
    let r1 = (-qb + disc) / (2.0 * qa);
    let r2 = (-qb - disc) / (2.0 * qa);
    // Prefer the root between the means; fall back to the midpoint.
    for r in [r1, r2] {
        if r > m1 && r < m2 {
            return r;
        }
    }
    0.5 * (m1 + m2)
}

/// `steps` bisection steps on `[lo, hi]`; `left(mid)` says whether the
/// crossing lies above `mid`. Returns the final bracket.
pub(crate) fn bisect(
    mut lo: f64,
    mut hi: f64,
    steps: u32,
    mut left: impl FnMut(f64) -> bool,
) -> (f64, f64) {
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        if left(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_adjacent_states_differ_by_one_bit() {
        for s in 0..7 {
            let diff = [PageKind::Lsb, PageKind::Csb, PageKind::Msb]
                .iter()
                .filter(|&&k| TlcModel::bit_of(k, s) != TlcModel::bit_of(k, s + 1))
                .count();
            assert_eq!(diff, 1, "states {s} and {} differ in {diff} bits", s + 1);
        }
    }

    #[test]
    fn ref_counts_follow_two_three_two() {
        assert_eq!(TlcModel::refs_of(PageKind::Lsb).len(), 2);
        assert_eq!(TlcModel::refs_of(PageKind::Csb).len(), 3);
        assert_eq!(TlcModel::refs_of(PageKind::Msb).len(), 2);
        // The seven references are partitioned among the kinds.
        let mut all: Vec<usize> = PageKind::ALL
            .iter()
            .flat_map(|&k| TlcModel::refs_of(k))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    /// [`TlcModel::rber_with_params`] as it was before the region bounds
    /// moved to the stack: `refs_of` and a collected `Vec` per call.
    fn rber_with_params_vec(params: &[StateParam; 8], refs: &[f64; 7], kind: PageKind) -> f64 {
        let bounds: Vec<f64> = TlcModel::refs_of(kind)
            .iter()
            .map(|&r| refs[r - 1])
            .collect();
        let mut err = 0.0;
        for (s, p) in params.iter().enumerate() {
            let want = TlcModel::bit_of(kind, s);
            let mut region_bit = TlcModel::bit_of(kind, 0);
            let mut lo = f64::NEG_INFINITY;
            let mut wrong_mass = 0.0;
            for &b in &bounds {
                if region_bit != want {
                    wrong_mass += gauss_mass(p, lo, b);
                }
                lo = b;
                region_bit = !region_bit;
            }
            if region_bit != want {
                wrong_mass += gauss_mass(p, lo, f64::INFINITY);
            }
            err += wrong_mass / 8.0;
        }
        err
    }

    /// [`TlcModel::ones_fraction`] as it was, likewise.
    fn ones_fraction_vec(params: &[StateParam; 8], refs: &[f64; 7], kind: PageKind) -> f64 {
        let bounds: Vec<f64> = TlcModel::refs_of(kind)
            .iter()
            .map(|&r| refs[r - 1])
            .collect();
        let mut ones = 0.0;
        for p in params.iter() {
            let mut region_bit = TlcModel::bit_of(kind, 0);
            let mut lo = f64::NEG_INFINITY;
            for &b in &bounds {
                if region_bit {
                    ones += gauss_mass(p, lo, b) / 8.0;
                }
                lo = b;
                region_bit = !region_bit;
            }
            if region_bit {
                ones += gauss_mass(p, lo, f64::INFINITY) / 8.0;
            }
        }
        ones
    }

    #[test]
    fn stack_bounds_match_the_vec_path_bit_for_bit() {
        // Every (P/E, days) point the tests of this module read, each
        // page kind, a strong, median and weak block, at the default
        // references and at the point's own optimal ones.
        let m = TlcModel::calibrated();
        let default = m.default_refs();
        for pe in [0u32, 200, 500, 1000, 2000] {
            for days in [
                0.0, 2.0, 5.0, 8.0, 10.0, 12.0, 15.0, 16.0, 19.0, 20.0, 25.0, 30.0,
            ] {
                for factor in [0.7, 1.0, 1.5] {
                    let params = m.state_params(OperatingPoint::new(pe, days), factor);
                    for refs in [default, m.optimal_refs(params)] {
                        for kind in PageKind::ALL {
                            let at = format!("pe={pe} days={days} factor={factor} {kind}");
                            assert_eq!(
                                m.rber_with_params(&params, &refs, kind).to_bits(),
                                rber_with_params_vec(&params, &refs, kind).to_bits(),
                                "rber_with_params at {at}"
                            );
                            assert_eq!(
                                m.ones_fraction(&params, &refs, kind).to_bits(),
                                ones_fraction_vec(&params, &refs, kind).to_bits(),
                                "ones_fraction at {at}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The region walk's two accumulation orders, which the simulator's
    /// pins depend on: `rber_with_params` sums a state's wrong regions
    /// before scaling by 1/8, `ones_fraction` scales and adds region by
    /// region. At the calibrated points above nearly all of a state's
    /// mass lies in one region, where the orders agree; wide states that
    /// straddle every reference tell them apart.
    #[test]
    fn region_walk_keeps_its_accumulation_order() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let (mut rber_told, mut ones_told) = (0, 0);
        for k in 0..64 {
            let mut params = [StateParam {
                mean: 0.0,
                sigma: 0.5 + 0.05 * k as f64,
            }; 8];
            for (s, p) in params.iter_mut().enumerate() {
                p.mean = s as f64 - 1.0 + 0.013 * k as f64;
            }
            for kind in PageKind::ALL {
                let rber = rber_with_params_vec(&params, &refs, kind);
                let ones = ones_fraction_vec(&params, &refs, kind);
                let at = format!("k={k} {kind}");
                assert_eq!(
                    m.rber_with_params(&params, &refs, kind).to_bits(),
                    rber.to_bits(),
                    "rber_with_params at {at}"
                );
                assert_eq!(
                    m.ones_fraction(&params, &refs, kind).to_bits(),
                    ones.to_bits(),
                    "ones_fraction at {at}"
                );
                // Each sum in the other order, on the same inputs.
                let (bounds, n) = TlcModel::kind_bounds(kind, &refs);
                let low_bit = TlcModel::bit_of(kind, 0);
                let (mut per_region, mut per_state) = (0.0, 0.0);
                for (s, p) in params.iter().enumerate() {
                    let wrong = !TlcModel::bit_of(kind, s);
                    walk_regions(p, &bounds[..n], low_bit, wrong, |x| per_region += x / 8.0);
                    let mut state_ones = 0.0;
                    walk_regions(p, &bounds[..n], low_bit, true, |x| state_ones += x);
                    per_state += state_ones / 8.0;
                }
                rber_told += usize::from(per_region.to_bits() != rber.to_bits());
                ones_told += usize::from(per_state.to_bits() != ones.to_bits());
            }
        }
        // At least a quarter of the 192 cases tell each order apart.
        assert!(
            rber_told >= 48 && ones_told >= 48,
            "{rber_told} {ones_told}"
        );
    }

    /// [`TlcModel::state_params_scaled`] as it was before its
    /// age-independent terms moved to [`Aging`]: one expression per state.
    fn state_params_unhoisted(
        m: &TlcModel,
        scaling: &[f64; 8],
        op: OperatingPoint,
        process_factor: f64,
    ) -> [StateParam; 8] {
        let wear = m.wear(op.pe_cycles);
        let ln_t = (1.0 + op.retention_days.max(0.0)).ln();
        let widen = 1.0 + m.widen_pe * op.pe_cycles as f64 / 1000.0 + m.widen_ret * ln_t * wear;
        let rd = m.read_disturb * (1.0 + op.reads as f64 / 1000.0).ln();
        std::array::from_fn(|s| {
            let (base_mean, base_sigma) = if s == 0 {
                (m.erase_mean, m.sigma_erase)
            } else {
                (s as f64 * m.state_gap, m.sigma_prog)
            };
            let shift = m.retention_a * process_factor * wear * ln_t * scaling[s];
            let disturb = if s == 0 { rd } else { 0.0 };
            StateParam {
                mean: base_mean - shift + disturb,
                sigma: base_sigma * widen,
            }
        })
    }

    #[test]
    fn hoisted_state_params_match_the_unhoisted_formula_bit_for_bit() {
        let altered = TlcModel {
            retention_a: 0.13,
            read_disturb: 0.05,
            ..TlcModel::calibrated()
        };
        for m in [TlcModel::calibrated(), altered] {
            let scaling = m.state_scaling();
            for pe in [0u32, 1, 200, 999, 2000, 4500, 12_000] {
                for days in [-1.0, 0.0, 1e-9, 0.234_375, 3.7, 17.0, 59.99, 60.0, 365.0] {
                    for reads in [0u64, 1, 999, 500_000] {
                        for factor in [0.55, 1.0, 2.2] {
                            let op = OperatingPoint {
                                pe_cycles: pe,
                                retention_days: days,
                                reads,
                            };
                            let got = m.state_params_scaled(&scaling, op, factor);
                            let want = state_params_unhoisted(&m, &scaling, op, factor);
                            for (g, w) in got.iter().zip(&want) {
                                assert_eq!(
                                    (g.mean.to_bits(), g.sigma.to_bits()),
                                    (w.mean.to_bits(), w.sigma.to_bits()),
                                    "pe={pe} days={days} reads={reads} factor={factor}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`gauss_mass`] without the saturation cut: every finite bound is
    /// divided and handed to `normal_cdf`, which saturates it.
    fn gauss_mass_divided(p: &StateParam, lo: f64, hi: f64) -> f64 {
        let cdf = |x: f64| {
            if x == f64::INFINITY {
                1.0
            } else if x == f64::NEG_INFINITY {
                0.0
            } else {
                normal_cdf((x - p.mean) / p.sigma)
            }
        };
        (cdf(hi) - cdf(lo)).max(0.0)
    }

    #[test]
    fn gauss_mass_saturation_cut_is_bit_exact() {
        let states = [
            (-1.0, 0.3),
            (-0.93, 0.41),
            (3.0, 0.14),
            (6.2, 0.213),
            (0.0, 1e-3),
        ];
        let mut rng = rif_events::SimRng::seed_from(0x8_5);
        for (mean, sigma) in states {
            let p = StateParam { mean, sigma };
            let same = |x: f64| {
                for (lo, hi) in [
                    (f64::NEG_INFINITY, x),
                    (x, f64::INFINITY),
                    (x, x + sigma),
                    (x - sigma, x),
                ] {
                    let (got, want) = (gauss_mass(&p, lo, hi), gauss_mass_divided(&p, lo, hi));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "N({mean}, {sigma}) on ({lo:e}, {hi:e}): {got:e} vs {want:e}"
                    );
                }
            };
            for side in [1.0, -1.0] {
                // Every representable bound for 20k steps either side of
                // the cut at mean ± 8.5σ, then a dense grid over 8–9σ.
                let cut: f64 = mean + side * CDF_SATURATES_AT_SIGMAS * sigma;
                for i in 0..20_000u64 {
                    same(f64::from_bits(cut.to_bits() + i));
                    same(f64::from_bits(cut.to_bits() - i));
                }
                let steps = 100_000;
                for i in 0..=steps {
                    same(mean + side * (8.0 + f64::from(i) / f64::from(steps)) * sigma);
                }
            }
            // Seeded random bounds over ±12σ, then the edge values.
            for _ in 0..100_000 {
                same(mean + rng.uniform_range(-12.0, 12.0) * sigma);
            }
            for x in [
                mean,
                f64::MAX,
                f64::MIN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ] {
                same(x);
            }
        }
    }

    #[test]
    fn fresh_rber_is_small() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        for k in PageKind::ALL {
            let r = m.rber(OperatingPoint::fresh(), 1.0, &refs, k);
            assert!(r < 2e-3, "{k} fresh RBER {r}");
        }
    }

    #[test]
    fn rber_monotone_in_retention() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let mut last = 0.0;
        for days in [0.0, 2.0, 8.0, 16.0, 30.0] {
            let r = m.rber_avg(OperatingPoint::new(0, days), 1.0, &refs);
            assert!(r >= last, "RBER decreased at {days} days");
            last = r;
        }
    }

    #[test]
    fn rber_monotone_in_pe() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let mut last = 0.0;
        for pe in [0u32, 200, 500, 1000, 2000] {
            let r = m.rber_avg(OperatingPoint::new(pe, 10.0), 1.0, &refs);
            assert!(r >= last, "RBER decreased at {pe} P/E");
            last = r;
        }
    }

    #[test]
    fn calibration_anchor_at_17_days() {
        // Fig. 4: at 0 P/E cycles a median page crosses the 0.0085
        // capability at ≈17 days of retention.
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let before = m.rber_avg(OperatingPoint::new(0, 15.0), 1.0, &refs);
        let after = m.rber_avg(OperatingPoint::new(0, 19.0), 1.0, &refs);
        assert!(
            before < 0.0085,
            "RBER {before} already above cap at 15 days"
        );
        assert!(after > 0.0085, "RBER {after} still below cap at 19 days");
    }

    #[test]
    fn optimal_refs_lower_rber_after_stress() {
        let m = TlcModel::calibrated();
        let op = OperatingPoint::new(1000, 20.0);
        let default = m.default_refs();
        let params = m.state_params(op, 1.0);
        let optimal = m.optimal_refs(params);
        for k in PageKind::ALL {
            let rd = m.rber(op, 1.0, &default, k);
            let ro = m.rber(op, 1.0, &optimal, k);
            assert!(ro < rd * 0.5, "{k}: optimal {ro} vs default {rd}");
        }
    }

    #[test]
    fn optimal_rber_prices_only_the_kinds_boundaries_bit_exactly() {
        // Intersecting only the references a kind reads must give the
        // RBER at the full optimal set, to the bit.
        let m = TlcModel::calibrated();
        for pe in [0u32, 1000, 2000, 5000] {
            for days in [0.0, 3.0, 30.0, 365.0] {
                for factor in [0.55, 1.0, 1.7] {
                    let params = m.state_params(OperatingPoint::new(pe, days), factor);
                    let optimal = m.optimal_refs(params);
                    for k in PageKind::ALL {
                        let full = m.rber_with_params(&params, &optimal, k);
                        let own = m.rber_optimal_with_params(&params, k);
                        assert_eq!(own.to_bits(), full.to_bits(), "{k} pe {pe} days {days}");
                    }
                }
            }
        }
    }

    #[test]
    fn optimal_rber_stays_below_capability_within_a_month() {
        // §IV-B: a re-read with adjusted V_REF is virtually always
        // decodable; the RBER at near-optimal references stays well under
        // the 0.0085 capability for the 1-month refresh horizon.
        let m = TlcModel::calibrated();
        for pe in [0u32, 1000, 2000] {
            let op = OperatingPoint::new(pe, 30.0);
            let params = m.state_params(op, 1.0);
            let optimal = m.optimal_refs(params);
            let r = m.rber_avg(op, 1.0, &optimal);
            assert!(r < 0.0085 * 0.7, "pe={pe}: optimal RBER {r}");
        }
    }

    #[test]
    fn gaussian_intersection_midpoint_for_equal_sigmas() {
        let a = StateParam {
            mean: 1.0,
            sigma: 0.1,
        };
        let b = StateParam {
            mean: 2.0,
            sigma: 0.1,
        };
        assert!((gaussian_intersection(a, b) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn gaussian_intersection_biased_toward_narrow_state() {
        // With a wide left state, the equal-density point moves right,
        // toward the narrow distribution.
        let a = StateParam {
            mean: 0.0,
            sigma: 0.3,
        };
        let b = StateParam {
            mean: 1.0,
            sigma: 0.1,
        };
        let v = gaussian_intersection(a, b);
        assert!(v > 0.5 && v < 1.0, "got {v}");
    }

    #[test]
    fn process_factor_scales_degradation() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let op = OperatingPoint::new(500, 12.0);
        let weak = m.rber_avg(op, 1.5, &refs);
        let strong = m.rber_avg(op, 0.7, &refs);
        assert!(weak > strong);
    }

    #[test]
    fn read_disturb_raises_msb_errors() {
        // MSB pages use R1, adjacent to the erased state that read disturb
        // pushes upward.
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let quiet = m.rber(
            OperatingPoint {
                pe_cycles: 0,
                retention_days: 5.0,
                reads: 0,
            },
            1.0,
            &refs,
            PageKind::Msb,
        );
        let noisy = m.rber(
            OperatingPoint {
                pe_cycles: 0,
                retention_days: 5.0,
                reads: 500_000,
            },
            1.0,
            &refs,
            PageKind::Msb,
        );
        assert!(
            noisy > quiet,
            "read disturb had no effect: {quiet} vs {noisy}"
        );
    }

    #[test]
    fn ones_fraction_near_half_when_fresh() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let params = m.state_params(OperatingPoint::fresh(), 1.0);
        for k in PageKind::ALL {
            let f = m.ones_fraction(&params, &refs, k);
            // Gray coding puts 4 of 8 states at bit 1 for LSB/MSB; CSB also 4.
            assert!((f - 0.5).abs() < 0.05, "{k}: ones fraction {f}");
        }
    }

    #[test]
    fn ones_fraction_drifts_with_retention() {
        let m = TlcModel::calibrated();
        let refs = m.default_refs();
        let fresh = m.state_params(OperatingPoint::fresh(), 1.0);
        let aged = m.state_params(OperatingPoint::new(1000, 25.0), 1.0);
        for k in PageKind::ALL {
            let a = m.ones_fraction(&fresh, &refs, k);
            let b = m.ones_fraction(&aged, &refs, k);
            assert!((a - b).abs() > 1e-4, "{k}: no drift ({a} vs {b})");
        }
    }
}
