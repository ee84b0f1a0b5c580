//! The QC-LDPC code: geometry, systematic encoding and membership checks.

use crate::bits::BitVec;
use crate::circulant::{row_circulants, rows_clear};
use crate::matrix::QcMatrix;

/// A systematic QC-LDPC code over a [`QcMatrix`].
///
/// The codeword is laid out as `c` segments of `t` bits; the first
/// `c − r` segments carry data and the rest carry parity. [`QcLdpcCode::paper`]
/// instantiates the exact geometry of the paper (footnote 6): 4 × 36 blocks
/// of 1024 × 1024 circulants — a 36 864-bit codeword protecting 4 KiB of
/// data with 4 096 parity checks.
///
/// # Example
///
/// ```
/// use rif_ldpc::{QcLdpcCode, bits::BitVec};
/// use rif_events::SimRng;
///
/// let code = QcLdpcCode::small_test();
/// let mut rng = SimRng::seed_from(3);
/// let data = BitVec::random(code.data_bits(), &mut rng);
/// let cw = code.encode(&data);
/// assert!(code.check(&cw));
/// assert_eq!(code.extract_data(&cw), data);
/// ```
#[derive(Debug, Clone)]
pub struct QcLdpcCode {
    h: QcMatrix,
}

/// Default RBER the paper quotes as the correction capability of the 4-KiB
/// QC-LDPC engine (§II-B1: failure probability exceeds 10⁻¹ beyond 0.0085).
pub const PAPER_CORRECTION_CAPABILITY: f64 = 0.0085;

/// Circulant size `t` of the paper's code (footnote 6): every block is a
/// 1024 × 1024 circulant, so a block row holds 1024 parity checks.
pub const PAPER_CIRCULANT_SIZE: usize = 1024;

/// Weight of the paper code's first block row: its 32 data blocks plus
/// the 2 parity blocks the dual diagonal places there. The pruned
/// syndrome RP computes on die sums this many bits per check.
pub const PAPER_ROW_WEIGHT: usize = 34;

impl QcLdpcCode {
    /// Wraps an existing parity-check matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than three block rows (the
    /// dual-diagonal encoder needs a distinct middle row).
    pub fn new(h: QcMatrix) -> Self {
        assert!(h.rows_b() >= 3, "encoder requires at least 3 block rows");
        QcLdpcCode { h }
    }

    /// The paper's full-size code: 4 × 36 blocks of 1024 × 1024 circulants.
    pub fn paper() -> Self {
        QcLdpcCode::new(QcMatrix::paper_structure(
            4,
            36,
            PAPER_CIRCULANT_SIZE,
            0x51F0_0D1E,
        ))
    }

    /// Same block structure with 64-bit circulants (2 304-bit codewords);
    /// keeps unit tests and property tests fast while exercising every code
    /// path.
    pub fn small_test() -> Self {
        QcLdpcCode::new(QcMatrix::paper_structure(4, 36, 64, 0x51F0_0D1E))
    }

    /// A mid-size code (256-bit circulants, 9 216-bit codewords) for
    /// integration tests that need realistic error-rate behaviour without
    /// full-size cost.
    pub fn medium() -> Self {
        QcLdpcCode::new(QcMatrix::paper_structure(4, 36, 256, 0x51F0_0D1E))
    }

    /// The parity-check matrix.
    pub fn matrix(&self) -> &QcMatrix {
        &self.h
    }

    /// Codeword length in bits.
    pub fn n(&self) -> usize {
        self.h.n()
    }

    /// Number of data bits per codeword.
    pub fn data_bits(&self) -> usize {
        self.h.data_cols_b() * self.h.t()
    }

    /// Code rate (data bits / codeword bits).
    pub fn rate(&self) -> f64 {
        self.data_bits() as f64 / self.n() as f64
    }

    /// Segment (block column) `j` of a codeword, as a fresh `t`-bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `cw` has the wrong length.
    pub fn segment(&self, cw: &BitVec, j: usize) -> BitVec {
        assert!(j < self.h.cols_b(), "segment {j} out of range");
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        cw.slice(j * self.h.t(), self.h.t())
    }

    /// Encodes `data` into a codeword using dual-diagonal back-substitution.
    ///
    /// With parity segments `p0..p_{r-1}` and data partial sums
    /// `s_i = Σ_j Q(C(i,j)) d_j`, summing all block rows cancels the
    /// staircase and yields `p0 = Σ_i s_i`; the staircase then gives
    /// `p_{i+1} = s_i ⊕ p_i ⊕ [i ∈ rows(p0)] p0`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`QcLdpcCode::data_bits`] long.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.data_bits(), "data length mismatch");
        let t = self.h.t();
        let r = self.h.rows_b();
        let dc = self.h.data_cols_b();
        let mid = r / 2;

        // Partial sums of the data part, one t-bit vector per block row.
        let mut s: Vec<BitVec> = (0..r).map(|_| BitVec::zeros(t)).collect();
        for j in 0..dc {
            let seg = data.slice(j * t, t);
            for i in 0..r {
                if let Some(shift) = self.h.coeff(i, j) {
                    s[i].xor_assign(&seg.rotate_left(shift));
                }
            }
        }

        // p0 = XOR of all partial sums (the three identity blocks of the
        // weight-3 column collapse to a single p0 term).
        let mut p0 = BitVec::zeros(t);
        for si in &s {
            p0.xor_assign(si);
        }

        // Staircase back-substitution.
        let mut parity: Vec<BitVec> = Vec::with_capacity(r);
        parity.push(p0.clone());
        // Row 0: s_0 + Q(1) p0 + p1 = 0 (the weight-3 column's first entry
        // carries shift 1).
        let mut p = s[0].clone();
        p.xor_assign(&p0.rotate_left(1));
        parity.push(p);
        for i in 1..r - 1 {
            // Row i: s_i + [i == mid] p0 + p_i + p_{i+1} = 0.
            let mut next = s[i].clone();
            next.xor_assign(&parity[i]);
            if i == mid {
                next.xor_assign(&p0);
            }
            parity.push(next);
        }

        let mut cw = BitVec::zeros(self.n());
        cw.copy_from(0, data);
        for (k, pk) in parity.iter().enumerate() {
            cw.copy_from((dc + k) * t, pk);
        }
        debug_assert!(self.check(&cw), "encoder produced an invalid codeword");
        cw
    }

    /// True when `cw` satisfies every parity check. Block rows are tested
    /// in order, stopping at the first unsatisfied one.
    ///
    /// # Panics
    ///
    /// Panics if `cw` is not [`QcLdpcCode::n`] bits long.
    pub fn check(&self, cw: &BitVec) -> bool {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        let h = &self.h;
        let mut acc = vec![0u64; h.t() / 64];
        let rows = (0..h.rows_b()).map(|i| row_circulants(h, i));
        rows_clear(&mut acc, cw.as_words(), rows)
    }

    /// Extracts the systematic data bits of a codeword.
    pub fn extract_data(&self, cw: &BitVec) -> BitVec {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        cw.slice(0, self.data_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_events::SimRng;

    #[test]
    fn paper_geometry() {
        let code = QcLdpcCode::paper();
        assert_eq!(code.n(), 36_864);
        assert_eq!(code.data_bits(), 32_768); // 4 KiB
        assert_eq!(code.n() - code.data_bits(), 4_096);
        assert!((code.rate() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn paper_constants_match_the_paper_code() {
        let code = QcLdpcCode::paper();
        assert_eq!(code.matrix().t(), PAPER_CIRCULANT_SIZE);
        assert_eq!(code.matrix().row_weight(0), PAPER_ROW_WEIGHT);
    }

    #[test]
    fn encode_produces_valid_codewords() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..20 {
            let data = BitVec::random(code.data_bits(), &mut rng);
            let cw = code.encode(&data);
            assert!(code.check(&cw));
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn all_zero_data_encodes_to_all_zero_codeword() {
        let code = QcLdpcCode::small_test();
        let cw = code.encode(&BitVec::zeros(code.data_bits()));
        assert!(cw.is_zero());
        assert!(code.check(&cw));
    }

    #[test]
    fn code_is_linear() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(4);
        let a = BitVec::random(code.data_bits(), &mut rng);
        let b = BitVec::random(code.data_bits(), &mut rng);
        let mut ab = a.clone();
        ab.xor_assign(&b);
        let mut sum = code.encode(&a);
        sum.xor_assign(&code.encode(&b));
        assert_eq!(sum, code.encode(&ab));
    }

    #[test]
    fn single_bit_error_breaks_check() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(6);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        for i in [0usize, 100, code.n() - 1] {
            let mut bad = cw.clone();
            bad.flip(i);
            assert!(!code.check(&bad), "flip at {i} went undetected");
        }
    }

    #[test]
    fn segments_tile_the_codeword() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(8);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let t = code.matrix().t();
        for j in 0..code.matrix().cols_b() {
            let seg = code.segment(&cw, j);
            for k in 0..t {
                assert_eq!(seg.get(k), cw.get(j * t + k));
            }
        }
    }

    #[test]
    fn paper_encoder_roundtrip_fullsize() {
        let code = QcLdpcCode::paper();
        let mut rng = SimRng::seed_from(10);
        let data = BitVec::random(code.data_bits(), &mut rng);
        let cw = code.encode(&data);
        assert!(code.check(&cw));
        assert_eq!(code.extract_data(&cw), data);
    }
}
