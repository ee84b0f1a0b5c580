//! Codeword rearrangement for hardware-friendly on-die syndrome
//! computation (paper §V-B, Fig. 15).
//!
//! The bits feeding each pruned syndrome are scattered across the codeword
//! by the circulant shifts `C(1,j)`. Rotating segment `j` left by `C(1,j)`
//! turns every first-block-row circulant into the identity, reducing the
//! syndrome computation to a straight XOR of segments followed by a
//! popcount — exactly what the RP module's 128-bit datapath does (Fig. 16).
//!
//! The flash controller applies [`QcLdpcCode::rearrange`] *after* ECC
//! encoding (before programming) and [`QcLdpcCode::restore`] *before* ECC
//! decoding (after reading), so the off-chip LDPC engine always sees the
//! original layout.

use crate::bits::BitVec;
use crate::circulant::{row_circulants, xor_block_row, xor_rotated};
use crate::code::QcLdpcCode;

impl QcLdpcCode {
    /// Rotates every segment that participates in the first block row left
    /// by its shift coefficient, producing the on-flash layout.
    ///
    /// # Panics
    ///
    /// Panics if `cw` is not [`QcLdpcCode::n`] bits long.
    pub fn rearrange(&self, cw: &BitVec) -> BitVec {
        self.rotate_segments(cw, |shift| shift)
    }

    /// Inverse of [`QcLdpcCode::rearrange`]: recovers the original codeword
    /// layout from the on-flash layout.
    pub fn restore(&self, rearranged: &BitVec) -> BitVec {
        let t = self.matrix().t();
        self.rotate_segments(rearranged, |shift| (t - shift) % t)
    }

    /// `cw` with every segment `j` of the first block row rotated left by
    /// `left(C(0,j) mod t)`; the other segments are copied.
    fn rotate_segments(&self, cw: &BitVec, left: impl Fn(usize) -> usize) -> BitVec {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        let h = self.matrix();
        let t = h.t();
        let mut out = vec![0u64; self.n() / 64];
        let segments = out
            .chunks_exact_mut(t / 64)
            .zip(cw.as_words().chunks_exact(t / 64));
        for (j, (dst, src)) in segments.enumerate() {
            xor_rotated(dst, src, h.coeff(0, j).map_or(0, |s| left(s % t)));
        }
        BitVec::from_words(out, self.n())
    }

    /// Pruned syndrome weight computed directly on the *rearranged* layout:
    /// XOR of all first-block-row segments (now identity circulants), then
    /// a popcount. This is the operation the RP hardware performs.
    pub fn pruned_weight_rearranged(&self, rearranged: &BitVec) -> usize {
        assert_eq!(rearranged.len(), self.n(), "codeword length mismatch");
        let h = self.matrix();
        let mut acc = vec![0u64; h.t() / 64];
        let identities = row_circulants(h, 0).map(|(col, _)| (col, 0));
        xor_block_row(&mut acc, rearranged.as_words(), identities);
        BitVec::from_words(acc, h.t()).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Bsc;
    use rif_events::SimRng;

    #[test]
    fn rearrange_restore_roundtrip() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(31);
        for _ in 0..10 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            assert_eq!(code.restore(&code.rearrange(&cw)), cw);
        }
    }

    #[test]
    fn rearranged_weight_equals_conventional_pruned_weight() {
        // The crux of §V-B: the simplified XOR-of-segments computation on
        // the rearranged layout must equal the true first-block-row
        // syndrome weight of the original layout.
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(32);
        for &p in &[0.0, 0.001, 0.01, 0.05] {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
            let expected = code.pruned_syndrome_weight(&noisy);
            let got = code.pruned_weight_rearranged(&code.rearrange(&noisy));
            assert_eq!(got, expected, "p={p}");
        }
    }

    #[test]
    fn errors_commute_with_rearrangement() {
        // Flipping bits on the flash array (rearranged layout) and restoring
        // is the same as restoring and flipping the corresponding bits:
        // rotation is a permutation, so error *counts* are preserved.
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(33);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let stored = code.rearrange(&cw);
        let noisy_stored = Bsc::new(0.01).corrupt(&stored, &mut rng);
        let restored = code.restore(&noisy_stored);
        assert_eq!(
            stored.hamming_distance(&noisy_stored),
            cw.hamming_distance(&restored)
        );
    }

    #[test]
    fn clean_rearranged_codeword_has_zero_pruned_weight() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(34);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        assert_eq!(code.pruned_weight_rearranged(&code.rearrange(&cw)), 0);
    }

    #[test]
    fn rearrange_only_permutes_within_segments() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(35);
        let cw = BitVec::random(code.n(), &mut rng);
        let re = code.rearrange(&cw);
        let t = code.matrix().t();
        for j in 0..code.matrix().cols_b() {
            let orig = cw.slice(j * t, t);
            let moved = re.slice(j * t, t);
            assert_eq!(orig.count_ones(), moved.count_ones(), "segment {j}");
        }
    }
}
