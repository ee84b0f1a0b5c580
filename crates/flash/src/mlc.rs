//! Generalized multi-level-cell V_TH model: TLC, QLC and beyond.
//!
//! The paper evaluates TLC, but its motivation explicitly extends to
//! denser cells ("3D TLC and QLC NAND flash memory", §VII) — Swift-Read
//! itself is a 4-bit/cell chip. [`MlcModel`] generalizes the TLC model of
//! [`crate::vth`] to `b` bits per cell: `2^b` Gaussian states share the
//! same physical V_TH window, so state spacing shrinks as `b` grows and
//! the same retention shift crosses the ECC capability far sooner — the
//! quantitative reason read-retry (and hence RiF) matters even more for
//! QLC.
//!
//! Pages are addressed by bit index (page `i` stores bit `i` of every
//! cell); a *balanced Gray code* distributes the `2^b − 1` read
//! references as evenly as possible across the pages, mirroring the
//! 2-3-2 TLC and 4-4-4-3 QLC schemes of real devices.
//!
//! The stress law is [`TlcModel::calibrated`]'s, read from it rather than
//! restated: only the state placement and the programmed-state width
//! depend on the bit count.

use crate::vth::{bisect, gauss_mass, gaussian_intersection, OperatingPoint, StateParam, TlcModel};

/// A `b`-bit-per-cell V_TH model.
///
/// # Example
///
/// ```
/// use rif_flash::mlc::MlcModel;
/// use rif_flash::OperatingPoint;
///
/// let tlc = MlcModel::tlc();
/// let qlc = MlcModel::qlc();
/// // Same stress, same window: QLC's tighter states err far more.
/// let op = OperatingPoint::new(500, 5.0);
/// assert!(qlc.rber_avg(op, 1.0) > tlc.rber_avg(op, 1.0) * 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlcModel {
    bits: usize,
    gray: Vec<u16>,
    /// Mean V_TH of each programmed state (state 0 is erased).
    means: Vec<f64>,
    sigma_prog: f64,
    /// The calibrated TLC model whose stress law every instance shares.
    law: TlcModel,
}

impl MlcModel {
    /// The TLC instance: its state distributions equal
    /// [`TlcModel::calibrated`]'s at every unread operating point
    /// (tested).
    pub fn tlc() -> Self {
        Self::with_bits(3, TlcModel::calibrated().sigma_prog)
    }

    /// The QLC instance: 16 states in the same V_TH window (state gap
    /// 3/7 of TLC's) with the tighter programming distributions
    /// (σ = 0.075) reported for 4-bit/cell devices.
    pub fn qlc() -> Self {
        Self::with_bits(4, 0.075)
    }

    /// An SLC-mode instance for hybrid-flash cache regions: TLC/QLC
    /// blocks programmed with 1 bit/cell. The single programmed state
    /// sits at the top of the shared V_TH window, so the erased/programmed
    /// gap is the full window and the RBER stays orders of magnitude
    /// below any multi-bit mode under the same stress laws.
    ///
    /// Built directly rather than via [`MlcModel::with_bits`]: the even
    /// spread formula needs ≥ 2 programmed states, and 1-bit cells stay
    /// rejected there by design.
    pub fn slc_like() -> Self {
        let law = TlcModel::calibrated();
        MlcModel {
            bits: 1,
            gray: vec![0, 1],
            means: vec![law.erase_mean, 7.0],
            sigma_prog: law.sigma_prog,
            law,
        }
    }

    /// Builds a `bits`-per-cell model sharing the calibrated TLC stress
    /// laws, with programmed states evenly spread over the TLC window
    /// `[1.0, 7.0]`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 8`.
    pub fn with_bits(bits: usize, sigma_prog: f64) -> Self {
        assert!((2..=8).contains(&bits), "bits per cell {bits} unsupported");
        let law = TlcModel::calibrated();
        let n_states = 1usize << bits;
        // Erased state at the TLC erase mean; programmed states 1..n-1
        // evenly over [1.0, 7.0] (the TLC placement falls out exactly for
        // b = 3).
        let mut means = vec![law.erase_mean];
        let programmed = n_states - 1;
        for s in 1..=programmed {
            means.push(1.0 + 6.0 * (s as f64 - 1.0) / (programmed as f64 - 1.0));
        }
        MlcModel {
            bits,
            gray: balanced_gray(bits),
            means,
            sigma_prog,
            law,
        }
    }

    /// Bits per cell.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of V_TH states.
    pub fn n_states(&self) -> usize {
        1 << self.bits
    }

    /// The bit page `page` stores for a cell in `state`.
    ///
    /// # Panics
    ///
    /// Panics when `page` or `state` is out of range.
    pub fn bit_of(&self, page: usize, state: usize) -> bool {
        assert!(page < self.bits, "page {page} out of range");
        (self.gray[state] >> page) & 1 == 1
    }

    /// The read-reference indices (1-based) page `page` uses: the state
    /// boundaries where its bit flips.
    pub fn refs_of(&self, page: usize) -> Vec<usize> {
        (1..self.n_states())
            .filter(|&s| self.bit_of(page, s - 1) != self.bit_of(page, s))
            .collect()
    }

    /// State distributions under stress: the TLC model's law, evaluated
    /// in the same operation order (so the TLC instance matches it bit
    /// for bit). Read disturb is not modelled here.
    pub fn state_params(&self, op: OperatingPoint, process_factor: f64) -> Vec<StateParam> {
        let law = &self.law;
        let wear = law.wear(op.pe_cycles);
        let ln_t = (1.0 + op.retention_days.max(0.0)).ln();
        let widen = 1.0 + law.widen_pe * op.pe_cycles as f64 / 1000.0 + law.widen_ret * ln_t * wear;
        let top = (self.n_states() - 1) as f64;
        self.means
            .iter()
            .enumerate()
            .map(|(s, &mean)| {
                let shift = law.retention_a
                    * process_factor
                    * wear
                    * ln_t
                    * (s as f64 / top).powf(law.state_gamma);
                let sigma = if s == 0 {
                    law.sigma_erase
                } else {
                    self.sigma_prog
                };
                StateParam {
                    mean: mean - shift,
                    sigma: sigma * widen,
                }
            })
            .collect()
    }

    /// Default read references: the fresh equal-density boundaries.
    pub fn default_refs(&self) -> Vec<f64> {
        let params = self.state_params(OperatingPoint::fresh(), 1.0);
        (1..self.n_states())
            .map(|r| gaussian_intersection(params[r - 1], params[r]))
            .collect()
    }

    /// RBER of page `page` at reference voltages `refs`.
    ///
    /// # Panics
    ///
    /// Panics unless `refs` has `2^b − 1` entries.
    pub fn rber(&self, op: OperatingPoint, process_factor: f64, refs: &[f64], page: usize) -> f64 {
        assert_eq!(refs.len(), self.n_states() - 1, "reference count mismatch");
        let params = self.state_params(op, process_factor);
        let mut err = 0.0;
        let inv_states = 1.0 / self.n_states() as f64;
        for (s, p) in params.iter().enumerate() {
            let want = self.bit_of(page, s);
            let mut region_bit = self.bit_of(page, 0);
            let mut lo = f64::NEG_INFINITY;
            // Region boundaries in ascending voltage order: the references
            // where this page's bit flips.
            let bounds = (1..self.n_states())
                .filter(|&r| self.bit_of(page, r - 1) != self.bit_of(page, r))
                .map(|r| refs[r - 1]);
            for b in bounds {
                if region_bit != want {
                    err += gauss_mass(p, lo, b) * inv_states;
                }
                lo = b;
                region_bit = !region_bit;
            }
            if region_bit != want {
                err += gauss_mass(p, lo, f64::INFINITY) * inv_states;
            }
        }
        err
    }

    /// Page-averaged RBER at the default references.
    pub fn rber_avg(&self, op: OperatingPoint, process_factor: f64) -> f64 {
        let refs = self.default_refs();
        (0..self.bits)
            .map(|p| self.rber(op, process_factor, &refs, p))
            .sum::<f64>()
            / self.bits as f64
    }

    /// First retention day where the page-averaged RBER exceeds `cap`,
    /// up to `max_days`.
    pub fn days_to_exceed(&self, pe_cycles: u32, cap: f64, max_days: f64) -> Option<f64> {
        let rber = |d: f64| self.rber_avg(OperatingPoint::new(pe_cycles, d), 1.0);
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
}

/// Builds a (near-)balanced non-cyclic Gray code on `bits` bits via
/// backtracking: adjacent codes differ in one bit and no bit carries more
/// than `ceil((2^b − 1)/b)` transitions — the 2-3-2 scheme for TLC and a
/// 4-4-4-3 scheme for QLC.
fn balanced_gray(bits: usize) -> Vec<u16> {
    let n = 1usize << bits;
    let budget = (n - 1).div_ceil(bits);
    let mut seq = vec![0u16];
    let mut used = vec![false; n];
    used[0] = true;
    let mut counts = vec![0usize; bits];
    fn go(
        seq: &mut Vec<u16>,
        used: &mut [bool],
        counts: &mut [usize],
        bits: usize,
        budget: usize,
    ) -> bool {
        if seq.len() == used.len() {
            return true;
        }
        let cur = *seq.last().expect("non-empty");
        // Prefer the least-used bit to keep the distribution balanced.
        let mut order: Vec<usize> = (0..bits).collect();
        order.sort_by_key(|&b| counts[b]);
        for b in order {
            if counts[b] >= budget {
                continue;
            }
            let next = cur ^ (1 << b);
            if used[next as usize] {
                continue;
            }
            used[next as usize] = true;
            counts[b] += 1;
            seq.push(next);
            if go(seq, used, counts, bits, budget) {
                return true;
            }
            seq.pop();
            counts[b] -= 1;
            used[next as usize] = false;
        }
        false
    }
    let ok = go(&mut seq, &mut used, &mut counts, bits, budget);
    assert!(ok, "no balanced Gray code found for {bits} bits");
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_codes_are_gray_and_balanced() {
        for bits in 2..=5 {
            let g = balanced_gray(bits);
            assert_eq!(g.len(), 1 << bits);
            let mut seen = std::collections::HashSet::new();
            let mut counts = vec![0usize; bits];
            for w in g.windows(2) {
                let diff = w[0] ^ w[1];
                assert_eq!(diff.count_ones(), 1, "bits={bits}: non-Gray step");
                counts[diff.trailing_zeros() as usize] += 1;
            }
            for &c in &g {
                assert!(seen.insert(c), "bits={bits}: duplicate code");
            }
            let budget = ((1usize << bits) - 1).div_ceil(bits);
            for (b, &c) in counts.iter().enumerate() {
                assert!(c <= budget, "bits={bits}: bit {b} has {c} transitions");
            }
        }
    }

    #[test]
    fn tlc_ref_distribution_matches_232() {
        let m = MlcModel::tlc();
        let mut counts: Vec<usize> = (0..3).map(|p| m.refs_of(p).len()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![2, 2, 3]);
    }

    #[test]
    fn qlc_ref_distribution_is_4443() {
        let m = MlcModel::qlc();
        let mut counts: Vec<usize> = (0..4).map(|p| m.refs_of(p).len()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![3, 4, 4, 4]);
    }

    #[test]
    fn tlc_instance_cross_validates_against_vth_model() {
        // The generic model with b = 3 evaluates the dedicated TLC
        // model's stress law. Without reads (read disturb is not
        // modelled in the generic version) every state distribution,
        // and so every default reference, is equal bit for bit.
        let generic = MlcModel::tlc();
        let dedicated = TlcModel::calibrated();
        assert_eq!(generic.default_refs(), dedicated.default_refs().to_vec());
        for &(pe, days) in &[
            (0u32, 0.0),
            (0, 5.0),
            (500, 10.0),
            (2000, 15.0),
            (3000, 45.5),
        ] {
            for factor in [0.7, 1.0, 1.6] {
                let op = OperatingPoint::new(pe, days);
                assert_eq!(
                    generic.state_params(op, factor),
                    dedicated.state_params(op, factor).to_vec(),
                    "pe={pe} d={days} factor={factor}"
                );
            }
        }
    }

    #[test]
    fn qlc_crosses_capability_much_earlier_than_tlc() {
        // The §VII claim quantified: at the same wear, QLC's tighter
        // states cross the same ECC capability many times sooner.
        let tlc = MlcModel::tlc();
        let qlc = MlcModel::qlc();
        for pe in [0u32, 1000] {
            let dt = tlc.days_to_exceed(pe, 0.0085, 120.0).expect("TLC crossing");
            let dq = qlc.days_to_exceed(pe, 0.0085, 120.0).expect("QLC crossing");
            assert!(dq < dt / 2.5, "pe={pe}: QLC crossing {dq} not ≪ TLC {dt}");
        }
    }

    #[test]
    fn fresh_qlc_is_still_usable() {
        let qlc = MlcModel::qlc();
        let r = qlc.rber_avg(OperatingPoint::fresh(), 1.0);
        assert!(r < 0.0085, "fresh QLC RBER {r} already past the capability");
    }

    #[test]
    fn rber_monotone_in_stress_for_qlc() {
        let qlc = MlcModel::qlc();
        let mut last = 0.0;
        for days in [0.0, 1.0, 2.0, 4.0, 8.0] {
            let r = qlc.rber_avg(OperatingPoint::new(500, days), 1.0);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn rejects_single_bit_cells() {
        let _ = MlcModel::with_bits(1, 0.1);
    }

    #[test]
    fn slc_like_is_orders_of_magnitude_more_reliable() {
        let slc = MlcModel::slc_like();
        let tlc = MlcModel::tlc();
        assert_eq!(slc.bits(), 1);
        assert_eq!(slc.refs_of(0), vec![1]);
        for &(pe, days) in &[(500u32, 10.0), (2000, 30.0)] {
            let op = OperatingPoint::new(pe, days);
            let rs = slc.rber_avg(op, 1.0);
            let rt = tlc.rber_avg(op, 1.0);
            assert!(
                rs < rt / 100.0,
                "pe={pe} d={days}: SLC RBER {rs} not ≪ TLC {rt}"
            );
        }
    }

    #[test]
    fn slc_like_never_crosses_capability_in_device_lifetime() {
        let slc = MlcModel::slc_like();
        assert_eq!(slc.days_to_exceed(3000, 0.0085, 365.0), None);
    }
}
