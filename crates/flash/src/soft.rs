//! Soft sensing: multi-level re-reads that turn a page into per-bit
//! reliabilities.
//!
//! When even a V_REF-adjusted hard read cannot be decoded, modern SSDs
//! fall back to *soft sensing*: the page is re-sensed at `L` reference
//! offsets around each decision boundary, binning every cell by how far
//! its V_TH sits from the boundary. The bins map onto log-likelihood
//! ratios that the LDPC engine decodes far beyond its hard-decision
//! capability (this tier sits below the read-retry flow the paper
//! optimizes — RiF makes it nearly unreachable, but a complete SSD model
//! needs it).
//!
//! [`SoftSense`] bridges the physical V_TH model to the
//! [`rif_ldpc::SoftChannel`] abstraction: it computes the equivalent
//! binary-AWGN separation for a page under stress, discounted by a
//! quantization efficiency that grows with the number of sensing levels,
//! and prices the extra senses in die time.

use rif_events::SimDuration;
use rif_ldpc::model::normal_quantile;
use rif_ldpc::SoftChannel;

use crate::chip::FlashTiming;
use crate::geometry::PageKind;
use crate::vth::{OperatingPoint, TlcModel};

/// Soft-sensing model over a V_TH model.
///
/// # Example
///
/// ```
/// use rif_flash::soft::SoftSense;
/// use rif_flash::{TlcModel, PageKind, OperatingPoint, FlashTiming};
///
/// let ss = SoftSense::new(TlcModel::calibrated());
/// // A page just past the hard capability (1K P/E, 12 days retention)...
/// let op = OperatingPoint::new(1000, 12.0);
/// // ...costs seven senses to read softly...
/// assert_eq!(ss.sense_latency(7, &FlashTiming::paper()).as_us(), 280.0);
/// // ...and yields a channel whose effective error rate stays moderate.
/// let ch = ss.soft_channel(op, 1.0, PageKind::Csb, 7);
/// assert!(ch.hard_error_rate() < 0.03);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftSense {
    model: TlcModel,
    default_refs: [f64; 7],
}

impl SoftSense {
    /// Builds a soft-sensing model.
    pub fn new(model: TlcModel) -> Self {
        let default_refs = model.default_refs();
        SoftSense {
            model,
            default_refs,
        }
    }

    /// Quantization efficiency of `levels`-level sensing on the
    /// equivalent-AWGN separation: 1 level (a hard read) recovers half of
    /// the full-soft separation, and each added level closes most of the
    /// remaining gap — the standard diminishing-returns shape of soft-read
    /// ladders.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn quantization_efficiency(levels: usize) -> f64 {
        assert!(levels > 0, "need at least one sensing level");
        1.0 - 0.5 / levels as f64
    }

    /// The equivalent soft channel for a page of `kind` under stress `op`,
    /// sensed at `levels` reference offsets.
    ///
    /// The page's hard RBER `r` corresponds to a full-soft separation
    /// `μ = −Φ⁻¹(r)`; quantization discounts it, and the result is
    /// re-expressed as a [`SoftChannel`] (whose constructor takes the
    /// equivalent hard error rate `Φ(−ημ)`).
    pub fn soft_channel(
        &self,
        op: OperatingPoint,
        process_factor: f64,
        kind: PageKind,
        levels: usize,
    ) -> SoftChannel {
        self.soft_channel_at(op, process_factor, &self.default_refs, kind, levels)
    }

    /// Like [`SoftSense::soft_channel`] but sensing around arbitrary
    /// center references — in a real recovery ladder soft sensing runs at
    /// the best references found by the retry tier, not the defaults.
    pub fn soft_channel_at(
        &self,
        op: OperatingPoint,
        process_factor: f64,
        refs: &[f64; 7],
        kind: PageKind,
        levels: usize,
    ) -> SoftChannel {
        let rber = self
            .model
            .rber(op, process_factor, refs, kind)
            .clamp(1e-9, 0.4999);
        let mu_full = -normal_quantile(rber);
        let mu_eff = mu_full * Self::quantization_efficiency(levels);
        let eff_rber = rif_ldpc::model::normal_cdf(-mu_eff).clamp(1e-12, 0.4999);
        SoftChannel::new(eff_rber)
    }

    /// Die occupancy of `levels`-level soft sensing: one tR per level.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn sense_latency(&self, levels: usize, timing: &FlashTiming) -> SimDuration {
        assert!(levels > 0, "need at least one sensing level");
        timing.t_r * levels as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_events::SimRng;
    use rif_ldpc::bits::BitVec;
    use rif_ldpc::decoder::MinSumDecoder;
    use rif_ldpc::QcLdpcCode;

    #[test]
    fn efficiency_monotone_and_bounded() {
        let mut last = 0.0;
        for l in 1..=16 {
            let e = SoftSense::quantization_efficiency(l);
            assert!(e > last && e < 1.0, "level {l}: {e}");
            last = e;
        }
        assert_eq!(SoftSense::quantization_efficiency(1), 0.5);
    }

    #[test]
    fn more_levels_better_channel() {
        let ss = SoftSense::new(TlcModel::calibrated());
        let op = OperatingPoint::new(2000, 28.0);
        let e3 = ss.soft_channel(op, 1.0, PageKind::Csb, 3).hard_error_rate();
        let e7 = ss.soft_channel(op, 1.0, PageKind::Csb, 7).hard_error_rate();
        assert!(e7 < e3, "7-level {e7} not better than 3-level {e3}");
    }

    #[test]
    fn latency_linear_in_levels() {
        let ss = SoftSense::new(TlcModel::calibrated());
        let t = FlashTiming::paper();
        assert_eq!(ss.sense_latency(1, &t).as_us(), 40.0);
        assert_eq!(ss.sense_latency(3, &t).as_us(), 120.0);
    }

    #[test]
    fn soft_path_rescues_pages_beyond_hard_retry() {
        // End to end: a page whose *hard* RBER sits past the hard-decision
        // capability (so hard decoding mostly fails) still decodes through
        // 7-level soft sensing. For a rate-8/9 code the soft gain is about
        // 2× in RBER — the test targets the window between the two
        // waterfalls (small_test's hard capability ≈ 0.011).
        let model = TlcModel::calibrated();
        let ss = SoftSense::new(model.clone());
        let code = QcLdpcCode::small_test();
        let dec = MinSumDecoder::new(&code);
        let mut rng = SimRng::seed_from(11);

        // Find the block-variation factor putting the hard RBER at ~0.0125.
        let op = OperatingPoint::new(2000, 28.0);
        let refs = model.default_refs();
        let (lo, hi) = crate::vth::bisect(0.5, 2.0, 40, |mid| {
            model.rber(op, mid, &refs, PageKind::Csb) < 0.0125
        });
        let factor = 0.5 * (lo + hi);
        let hard_rber = model.rber(op, factor, &refs, PageKind::Csb);
        assert!(
            (0.012..0.014).contains(&hard_rber),
            "premise: hard RBER {hard_rber}"
        );

        let ch = ss.soft_channel(op, factor, PageKind::Csb, 7);
        let trials = 12;
        let mut hard_ok = 0;
        let mut soft_ok = 0;
        for _ in 0..trials {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = rif_ldpc::Bsc::new(hard_rber).corrupt(&cw, &mut rng);
            if dec.decode(&noisy).success {
                hard_ok += 1;
            }
            let out = dec.decode_llr(&ch.transmit(&cw, &mut rng));
            if out.success && out.decoded == cw {
                soft_ok += 1;
            }
        }
        assert!(
            hard_ok <= trials / 2,
            "hard decoding too strong: {hard_ok}/{trials}"
        );
        assert!(
            soft_ok >= trials * 2 / 3,
            "soft rescue too weak: {soft_ok}/{trials}"
        );
        assert!(
            soft_ok > hard_ok,
            "soft ({soft_ok}) did not beat hard ({hard_ok})"
        );
    }
}
