//! The full ODEAR engine: the die-level read flow of Fig. 9.
//!
//! `OdearEngine` stitches RP and RVS into the read path of a RiF-enabled
//! die, operating on real codewords:
//!
//! 1. a read command senses the page into the page buffer (errors at the
//!    current RBER);
//! 2. RP computes the approximate syndrome weight of the first 4-KiB chunk
//!    and compares it to ρs;
//! 3. *correctable* → ready flag is set, the page transfers off-chip;
//! 4. *uncorrectable* → RVS selects near-optimal references from the
//!    sensed data's ones-count, the die re-reads the page with them, and
//!    only then raises the ready flag. The re-read page bypasses RP.

use rif_events::{SimDuration, SimRng};
use rif_flash::chip::FlashTiming;
use rif_flash::geometry::PageKind;
use rif_flash::rber::{BlockProfile, ErrorModel};
use rif_flash::vth::OperatingPoint;
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::Bsc;
use rif_ldpc::{QcLdpcCode, PAPER_CORRECTION_CAPABILITY};

use crate::rp::{Prediction, ReadRetryPredictor};
use crate::rvs::ReadVoltageSelector;

/// Outcome of a die-level RiF read.
#[derive(Debug, Clone)]
pub struct OdearReadResult {
    /// The chunks handed to the channel, in rearranged (on-flash) layout.
    pub transferred: Vec<BitVec>,
    /// RP's verdict on the first sense.
    pub prediction: Prediction,
    /// True when the engine performed an in-die retry.
    pub retried: bool,
    /// Total die occupancy (tR + tPRED [+ tR]).
    pub die_time: SimDuration,
    /// The RBER at which the transferred data was sensed.
    pub transferred_rber: f64,
}

/// A bit-accurate ODEAR engine bound to a QC-LDPC code and an error model.
///
/// # Example
///
/// ```
/// use rif_odear::OdearEngine;
/// use rif_ldpc::{QcLdpcCode, bits::BitVec};
/// use rif_flash::{ErrorModel, OperatingPoint, PageKind, BlockProfile};
/// use rif_events::SimRng;
///
/// let engine = OdearEngine::new(QcLdpcCode::small_test(), ErrorModel::calibrated());
/// let mut rng = SimRng::seed_from(6);
/// let page: Vec<BitVec> = (0..4)
///     .map(|_| engine.code().encode(&BitVec::random(engine.code().data_bits(), &mut rng)))
///     .collect();
/// // An aged page: the engine retries in-die and the transferred data is
/// // sensed at a far lower RBER.
/// let out = engine.read_page(
///     &page,
///     OperatingPoint::new(2000, 20.0),
///     BlockProfile::median(),
///     PageKind::Csb,
///     &mut rng,
/// );
/// assert!(out.retried);
/// assert!(out.transferred_rber < 0.0085);
/// ```
#[derive(Debug, Clone)]
pub struct OdearEngine {
    code: QcLdpcCode,
    model: ErrorModel,
    rp: ReadRetryPredictor,
    rvs: ReadVoltageSelector,
    timing: FlashTiming,
}

impl OdearEngine {
    /// Builds an engine with ρs calibrated at the paper's correction
    /// capability ([`PAPER_CORRECTION_CAPABILITY`]) and Table I timing.
    pub fn new(code: QcLdpcCode, model: ErrorModel) -> Self {
        let rp = ReadRetryPredictor::for_capability(&code, PAPER_CORRECTION_CAPABILITY);
        let rvs = ReadVoltageSelector::new(model.tlc().clone());
        OdearEngine {
            code,
            model,
            rp,
            rvs,
            timing: FlashTiming::paper(),
        }
    }

    /// The protected code.
    pub fn code(&self) -> &QcLdpcCode {
        &self.code
    }

    /// The RP module.
    pub fn rp(&self) -> &ReadRetryPredictor {
        &self.rp
    }

    /// Reads a programmed page (its clean codewords in *original* layout),
    /// simulating sensing noise, prediction and the optional in-die retry.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or any chunk has the wrong length.
    pub fn read_page(
        &self,
        page: &[BitVec],
        op: OperatingPoint,
        block: BlockProfile,
        kind: PageKind,
        rng: &mut SimRng,
    ) -> OdearReadResult {
        assert!(!page.is_empty(), "page must contain at least one chunk");
        // Sense at the default references: the stored (rearranged) data
        // picks up errors at the page's current default-reference RBER.
        let rber_default = self.model.rber_default(block, op, kind);
        let sense = |rber: f64, rng: &mut SimRng| -> Vec<BitVec> {
            let bsc = Bsc::new(rber.min(0.5));
            page.iter()
                .map(|cw| bsc.corrupt(&self.code.rearrange(cw), rng))
                .collect()
        };
        let first = sense(rber_default, rng);
        let prediction = self.rp.predict_page(&first);

        if !prediction.retry_needed {
            return OdearReadResult {
                transferred: first,
                prediction,
                retried: false,
                die_time: self.timing.sense(1, true),
                transferred_rber: rber_default,
            };
        }

        // RVS: select near-optimal references from the sensed ones-count,
        // then re-sense. The re-read bypasses RP (footnote 4).
        let refs = self.rvs.select(op, block.factor, kind, rng);
        let rber_retry = self.model.rber_at(block, op, refs, kind);
        let second = sense(rber_retry, rng);
        OdearReadResult {
            transferred: second,
            prediction,
            retried: true,
            die_time: self.timing.sense(2, true),
            transferred_rber: rber_retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_ldpc::decoder::MinSumDecoder;

    fn engine() -> OdearEngine {
        OdearEngine::new(QcLdpcCode::small_test(), ErrorModel::calibrated())
    }

    fn random_page(code: &QcLdpcCode, rng: &mut SimRng) -> Vec<BitVec> {
        (0..4)
            .map(|_| code.encode(&BitVec::random(code.data_bits(), rng)))
            .collect()
    }

    #[test]
    fn fresh_pages_transfer_without_retry() {
        let e = engine();
        let mut rng = SimRng::seed_from(11);
        let page = random_page(e.code(), &mut rng);
        let out = e.read_page(
            &page,
            OperatingPoint::fresh(),
            BlockProfile::median(),
            PageKind::Lsb,
            &mut rng,
        );
        assert!(!out.retried);
        assert_eq!(out.die_time.as_us(), 42.5); // tR + tPRED
        assert_eq!(out.transferred.len(), 4);
    }

    #[test]
    fn aged_pages_retry_in_die_and_become_decodable() {
        let e = engine();
        let mut rng = SimRng::seed_from(12);
        let page = random_page(e.code(), &mut rng);
        let op = OperatingPoint::new(2000, 22.0);
        let out = e.read_page(&page, op, BlockProfile::median(), PageKind::Csb, &mut rng);
        assert!(out.retried);
        assert_eq!(out.die_time.as_us(), 82.5); // tR + tPRED + tR
                                                // The transferred data, restored to decoder layout, decodes.
        let dec = MinSumDecoder::new(e.code());
        for (chunk, clean) in out.transferred.iter().zip(&page) {
            let restored = e.code().restore(chunk);
            let res = dec.decode(&restored);
            assert!(res.success, "retried chunk failed to decode");
            assert_eq!(&res.decoded, clean);
        }
    }

    #[test]
    fn retry_lowers_transferred_rber() {
        let e = engine();
        let mut rng = SimRng::seed_from(13);
        let page = random_page(e.code(), &mut rng);
        let op = OperatingPoint::new(1000, 25.0);
        let block = BlockProfile::median();
        let out = e.read_page(&page, op, block, PageKind::Msb, &mut rng);
        assert!(out.retried);
        let default_rber = e.model.rber_default(block, op, PageKind::Msb);
        assert!(out.transferred_rber < default_rber * 0.5);
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let e = engine();
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let page = random_page(e.code(), &mut rng);
            let out = e.read_page(
                &page,
                OperatingPoint::new(1000, 15.0),
                BlockProfile::median(),
                PageKind::Lsb,
                &mut rng,
            );
            (out.retried, out.prediction.syndrome_weight)
        };
        assert_eq!(run(99), run(99));
    }
}
