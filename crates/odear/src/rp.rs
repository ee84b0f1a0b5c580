//! The read-retry predictor (RP) module.
//!
//! RP estimates whether a sensed page is correctable by the *off-chip*
//! LDPC decoder without decoding it, by thresholding the syndrome weight
//! (paper §IV-B). Three hardware optimizations make the computation cheap
//! (§V): only one codeword-sized chunk of the page is inspected, only the
//! first block row of syndromes is computed (pruning), and the codeword is
//! stored in rearranged layout so the computation is a straight
//! XOR-of-segments + popcount over the page buffer's 128-bit words
//! (Fig. 16).

use rif_ldpc::analysis::rho_s;
use rif_ldpc::bits::BitVec;
use rif_ldpc::QcLdpcCode;

/// RP's verdict on a sensed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// True when RP predicts the off-chip decoder would fail, so the die
    /// should retry in place instead of transferring.
    pub retry_needed: bool,
    /// The approximate (pruned) syndrome weight RP computed.
    pub syndrome_weight: usize,
}

/// The bit-accurate RP module over a concrete QC-LDPC code.
///
/// # Example
///
/// ```
/// use rif_ldpc::{QcLdpcCode, Bsc, bits::BitVec};
/// use rif_odear::rp::ReadRetryPredictor;
/// use rif_events::SimRng;
///
/// let code = QcLdpcCode::small_test();
/// let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
/// let mut rng = SimRng::seed_from(2);
/// let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
/// // Heavy corruption far above the capability: RP flags a retry.
/// let hopeless = Bsc::new(0.05).corrupt(&code.rearrange(&cw), &mut rng);
/// assert!(rp.predict(&hopeless).retry_needed);
/// ```
#[derive(Debug, Clone)]
pub struct ReadRetryPredictor {
    code: QcLdpcCode,
    rho_s: usize,
}

impl ReadRetryPredictor {
    /// Builds an RP with an explicit correctability threshold ρs.
    pub fn new(code: QcLdpcCode, rho_s: usize) -> Self {
        ReadRetryPredictor { code, rho_s }
    }

    /// Builds an RP whose ρs is the expected pruned syndrome weight at the
    /// ECC correction capability — the calibration rule of §IV-B / Fig. 10.
    pub fn for_capability(code: &QcLdpcCode, capability_rber: f64) -> Self {
        let rho = rho_s(code, capability_rber);
        ReadRetryPredictor::new(code.clone(), rho)
    }

    /// The correctability threshold ρs.
    pub fn rho_s(&self) -> usize {
        self.rho_s
    }

    /// The code this RP is built for.
    pub fn code(&self) -> &QcLdpcCode {
        &self.code
    }

    /// Predicts from a sensed chunk in *rearranged* (on-flash) layout:
    /// the hardware datapath — XOR the first-block-row segments, popcount,
    /// compare against ρs.
    ///
    /// # Panics
    ///
    /// Panics if `sensed` is not one codeword long.
    pub fn predict(&self, sensed: &BitVec) -> Prediction {
        let weight = self.code.pruned_weight_rearranged(sensed);
        Prediction {
            retry_needed: weight > self.rho_s,
            syndrome_weight: weight,
        }
    }

    /// Predicts from a chunk in original (decoder) layout — used by the
    /// RPSSD baseline, where the predictor lives in the controller and the
    /// data arrives restored.
    pub fn predict_original_layout(&self, chunk: &BitVec) -> Prediction {
        let weight = self.code.pruned_syndrome_weight(chunk);
        Prediction {
            retry_needed: weight > self.rho_s,
            syndrome_weight: weight,
        }
    }

    /// Predicts correctability of a 16-KiB page from its first chunk only
    /// (chunk-based prediction, §V-A1). `page` holds the page's codewords
    /// in rearranged layout.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty.
    pub fn predict_page(&self, page: &[BitVec]) -> Prediction {
        assert!(!page.is_empty(), "page must contain at least one chunk");
        self.predict(&page[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_events::SimRng;
    use rif_ldpc::channel::Bsc;
    use rif_ldpc::decoder::MinSumDecoder;

    fn fixture() -> (QcLdpcCode, ReadRetryPredictor, SimRng) {
        let code = QcLdpcCode::small_test();
        let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
        (code, rp, SimRng::seed_from(3))
    }

    #[test]
    fn clean_pages_never_retry() {
        let (code, rp, mut rng) = fixture();
        for _ in 0..20 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let p = rp.predict(&code.rearrange(&cw));
            assert!(!p.retry_needed);
            assert_eq!(p.syndrome_weight, 0);
        }
    }

    #[test]
    fn hopeless_pages_always_retry() {
        let (code, rp, mut rng) = fixture();
        for _ in 0..20 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = Bsc::new(0.05).corrupt(&code.rearrange(&cw), &mut rng);
            assert!(rp.predict(&noisy).retry_needed);
        }
    }

    #[test]
    fn rearranged_and_original_layouts_agree() {
        let (code, rp, mut rng) = fixture();
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let noisy = Bsc::new(0.01).corrupt(&cw, &mut rng);
        let original = rp.predict_original_layout(&noisy);
        let rearranged = rp.predict(&code.rearrange(&noisy));
        assert_eq!(original.syndrome_weight, rearranged.syndrome_weight);
        assert_eq!(original.retry_needed, rearranged.retry_needed);
    }

    #[test]
    fn prediction_mostly_matches_decoder_above_capability() {
        // The heart of Fig. 11: well above the capability RP catches the
        // overwhelming majority of uncorrectable pages.
        let (code, rp, _) = fixture();
        let mut rng = SimRng::seed_from(7);
        let dec = MinSumDecoder::new(&code);
        let mut agree = 0;
        let trials = 60;
        for _ in 0..trials {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = Bsc::new(0.014).corrupt(&cw, &mut rng);
            let predicted_fail = rp.predict(&code.rearrange(&noisy)).retry_needed;
            let actual_fail = !dec.decode(&noisy).success;
            if predicted_fail == actual_fail {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / trials as f64 > 0.85,
            "agreement {agree}/{trials}"
        );
    }

    #[test]
    fn prediction_mostly_matches_decoder_below_capability() {
        let (code, rp, mut rng) = fixture();
        let dec = MinSumDecoder::new(&code);
        let mut agree = 0;
        let trials = 60;
        for _ in 0..trials {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = Bsc::new(0.003).corrupt(&cw, &mut rng);
            let predicted_fail = rp.predict(&code.rearrange(&noisy)).retry_needed;
            let actual_fail = !dec.decode(&noisy).success;
            if predicted_fail == actual_fail {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / trials as f64 > 0.85,
            "agreement {agree}/{trials}"
        );
    }

    #[test]
    fn page_prediction_uses_first_chunk() {
        let (code, rp, mut rng) = fixture();
        let clean = code.rearrange(&code.encode(&BitVec::random(code.data_bits(), &mut rng)));
        let dirty = Bsc::new(0.05).corrupt(
            &code.rearrange(&code.encode(&BitVec::random(code.data_bits(), &mut rng))),
            &mut rng,
        );
        // Dirty chunk first: retry. Clean chunk first: no retry, even though
        // a later chunk is dirty — that is the approximation's trade-off.
        assert!(
            rp.predict_page(&[dirty.clone(), clean.clone()])
                .retry_needed
        );
        assert!(!rp.predict_page(&[clean, dirty]).retry_needed);
    }

    #[test]
    fn rho_s_threshold_behaves_as_boundary() {
        let (code, _, mut rng) = fixture();
        let rp = ReadRetryPredictor::new(code.clone(), 10);
        // Build a word with known pruned weight by flipping bits in a
        // parity-staircase segment observed only by block rows k-1, k.
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let mut sensed = code.rearrange(&cw);
        let t = code.matrix().t();
        // Segment 33 (first staircase column) participates in block row 0;
        // in rearranged layout each flipped bit adds exactly 1 to the
        // pruned weight.
        for k in 0..10 {
            sensed.flip(33 * t + k);
        }
        let p = rp.predict(&sensed);
        assert_eq!(p.syndrome_weight, 10);
        assert!(!p.retry_needed, "weight == rho_s must not retry");
        sensed.flip(33 * t + 10);
        assert!(
            rp.predict(&sensed).retry_needed,
            "weight > rho_s must retry"
        );
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn empty_page_rejected() {
        let (_, rp, _) = fixture();
        let _ = rp.predict_page(&[]);
    }
}
