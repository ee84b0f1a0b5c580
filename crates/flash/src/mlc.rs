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
//! The stress law, the region walk and the crossing search are
//! [`crate::vth`]'s, evaluated through [`TlcModel::calibrated`]: only the
//! state placement (each state's fresh mean and width) and the Gray code
//! depend on the bit count, and they are all this module defines.

use crate::vth::{
    first_day_above, gaussian_intersection, walk_regions, OperatingPoint, StateParam, TlcModel,
};

/// A `b`-bit-per-cell V_TH model.
///
/// # Example
///
/// ```
/// use rif_flash::mlc::MlcModel;
/// use rif_flash::{OperatingPoint, TlcModel};
///
/// let tlc = TlcModel::calibrated();
/// let qlc = MlcModel::qlc();
/// // Same stress, same window: QLC's tighter states err far more.
/// let op = OperatingPoint::new(500, 5.0);
/// assert!(qlc.rber_avg(op, 1.0) > tlc.rber_avg(op, 1.0, &tlc.default_refs()) * 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlcModel {
    bits: usize,
    gray: Vec<u16>,
    /// Fresh distribution of each state, erased first, in ascending
    /// voltage order.
    fresh: Vec<StateParam>,
    /// The calibrated TLC model whose stress law every instance shares.
    law: TlcModel,
}

impl MlcModel {
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
    /// Built directly rather than via `with_bits`: the even
    /// spread formula needs ≥ 2 programmed states, and 1-bit cells stay
    /// rejected there by design.
    pub fn slc_like() -> Self {
        let law = TlcModel::calibrated();
        MlcModel {
            bits: 1,
            gray: vec![0, 1],
            fresh: vec![
                StateParam {
                    mean: law.erase_mean,
                    sigma: law.sigma_erase,
                },
                StateParam {
                    mean: 7.0,
                    sigma: law.sigma_prog,
                },
            ],
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
    fn with_bits(bits: usize, sigma_prog: f64) -> Self {
        assert!((2..=8).contains(&bits), "bits per cell {bits} unsupported");
        let law = TlcModel::calibrated();
        let n_states = 1usize << bits;
        // Erased state at the TLC erase mean; programmed states 1..n-1
        // evenly over [1.0, 7.0] (the TLC placement falls out exactly for
        // b = 3).
        let mut fresh = vec![StateParam {
            mean: law.erase_mean,
            sigma: law.sigma_erase,
        }];
        let programmed = n_states - 1;
        for s in 1..=programmed {
            fresh.push(StateParam {
                mean: 1.0 + 6.0 * (s as f64 - 1.0) / (programmed as f64 - 1.0),
                sigma: sigma_prog,
            });
        }
        MlcModel {
            bits,
            gray: balanced_gray(bits),
            fresh,
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

    /// State distributions under stress: the TLC model's law, read
    /// disturb included, applied to this model's placement.
    pub fn state_params(&self, op: OperatingPoint, process_factor: f64) -> Vec<StateParam> {
        self.law
            .aging(op.pe_cycles, op.reads, process_factor)
            .placed(&self.fresh, op.retention_days)
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
        let bounds: Vec<f64> = self.refs_of(page).iter().map(|&r| refs[r - 1]).collect();
        let low_bit = self.bit_of(page, 0);
        let inv_states = 1.0 / self.n_states() as f64;
        let mut err = 0.0;
        for (s, p) in self.state_params(op, process_factor).iter().enumerate() {
            let wrong = !self.bit_of(page, s);
            walk_regions(p, &bounds, low_bit, wrong, |m| err += m * inv_states);
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
        first_day_above(cap, max_days, |d| {
            self.rber_avg(OperatingPoint::new(pe_cycles, d), 1.0)
        })
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
    use crate::geometry::PageKind;
    use crate::rber::{BlockProfile, ErrorModel};

    /// [`digest`]s of the V_TH models' outputs (see
    /// `model_outputs_match_their_pinned_bits`).
    const PIN_TLC: u64 = 0x78c5_cebf_54da_a0e7;
    const PIN_QLC: u64 = 0xcd50_65f4_53bb_53a0;
    const PIN_SLC: u64 = 0x1939_3f11_a1c6_b40f;

    /// FNV-1a over the bit patterns of `values`.
    fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    #[test]
    fn model_outputs_match_their_pinned_bits() {
        // Digests of every default reference, state, RBER and ones
        // fraction the V_TH models produce at five `(pe, days, reads,
        // process factor)` points, taken before the stress law, the
        // region walk and the crossing search had one body each. QLC and
        // SLC ignored reads until then (see
        // `one_stress_law_moves_every_mode_alike`), so the read-disturb
        // point is pinned for TLC alone. At the two middle points a
        // per-state partial sum in `MlcModel::rber` moves a page's RBER
        // by an ulp, so the digests also hold each accumulation order.
        let points = [
            (0u32, 0.0, 0u64, 1.0),
            (500, 5.0, 0, 0.7),
            (1000, 10.0, 0, 1.6),
            (3000, 20.0, 0, 1.0),
            (200, 10.0, 500_000, 1.0),
        ];
        let tlc = TlcModel::calibrated();
        let default = tlc.default_refs();
        let mut got = default.to_vec();
        for (pe_cycles, retention_days, reads, factor) in points {
            let op = OperatingPoint {
                pe_cycles,
                retention_days,
                reads,
            };
            let params = tlc.state_params(op, factor);
            got.extend(params.iter().flat_map(|p| [p.mean, p.sigma]));
            for refs in [default, tlc.optimal_refs(params)] {
                for kind in PageKind::ALL {
                    got.push(tlc.rber_with_params(&params, &refs, kind));
                    got.push(tlc.ones_fraction(&params, &refs, kind));
                }
            }
        }
        assert_eq!(digest(got), PIN_TLC, "TLC");

        for (model, pin) in [(MlcModel::qlc(), PIN_QLC), (MlcModel::slc_like(), PIN_SLC)] {
            let refs = model.default_refs();
            let mut got = refs.clone();
            for (pe, days, _, factor) in points.into_iter().filter(|p| p.2 == 0) {
                let op = OperatingPoint::new(pe, days);
                let params = model.state_params(op, factor);
                got.extend(params.iter().flat_map(|p| [p.mean, p.sigma]));
                got.extend((0..model.bits()).map(|page| model.rber(op, factor, &refs, page)));
            }
            assert_eq!(digest(got), pin, "{} bits per cell", model.bits());
        }
    }

    #[test]
    fn one_stress_law_moves_every_mode_alike() {
        // The erased state and the top state sit where TLC's do in every
        // mode, so one stress law — read disturb included — must move
        // them exactly as it moves TLC's.
        let tlc = TlcModel::calibrated();
        for (pe, days, reads) in [(0u32, 0.0, 1u64), (500, 5.0, 10_000), (2000, 30.0, 500_000)] {
            for factor in [0.7, 1.0, 1.6] {
                let op = OperatingPoint {
                    pe_cycles: pe,
                    retention_days: days,
                    reads,
                };
                let want = tlc.state_params(op, factor);
                for model in [MlcModel::qlc(), MlcModel::slc_like()] {
                    let got = model.state_params(op, factor);
                    let (erased, top) = (got[0].mean, got[got.len() - 1].mean);
                    assert_eq!(
                        [erased, top].map(f64::to_bits),
                        [want[0].mean, want[7].mean].map(f64::to_bits),
                        "erased and top means, {} bits at {op:?} factor {factor}",
                        model.bits()
                    );
                }
            }
        }
    }

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
        let mut counts: Vec<usize> = PageKind::ALL
            .iter()
            .map(|&k| TlcModel::refs_of(k).len())
            .collect();
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
    fn qlc_crosses_capability_much_earlier_than_tlc() {
        // The §VII claim quantified: at the same wear, QLC's tighter
        // states cross the same ECC capability many times sooner.
        let tlc = ErrorModel::calibrated();
        let qlc = MlcModel::qlc();
        for pe in [0u32, 1000] {
            let dt = tlc
                .days_to_exceed(BlockProfile::median(), pe, 0.0085, 120.0)
                .expect("TLC crossing");
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
        let tlc = TlcModel::calibrated();
        let tlc_refs = tlc.default_refs();
        assert_eq!(slc.bits(), 1);
        assert_eq!(slc.refs_of(0), vec![1]);
        for &(pe, days) in &[(500u32, 10.0), (2000, 30.0)] {
            let op = OperatingPoint::new(pe, days);
            let rs = slc.rber_avg(op, 1.0);
            let rt = tlc.rber_avg(op, 1.0, &tlc_refs);
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
