//! Syndrome computation and the RP module's approximations.
//!
//! The syndrome of a sensed page is the quantity the ODEAR engine's RP
//! module thresholds (paper §IV-B): `S = H·x`, whose Hamming weight grows
//! monotonically with the page's RBER (Fig. 10). Two approximations make
//! on-die computation cheap (§V-A):
//!
//! * **chunk-based prediction** — only one 4-KiB codeword of a 16-KiB page
//!   is inspected (errors are uniform within a page, Fig. 12), and
//! * **syndrome pruning** — only the first `t` syndromes (the first block
//!   row of `H`) are computed; the remaining block rows merely recombine the
//!   same bits (§V-A2).

use crate::bits::BitVec;
use crate::circulant::{row_circulants, xor_block_row};
use crate::code::QcLdpcCode;

impl QcLdpcCode {
    /// Full syndrome `H·x` of a (possibly corrupted) codeword: one bit per
    /// parity check, block row `i` occupying bits `[i·t, (i+1)·t)`.
    ///
    /// Computed segment-at-a-time: the circulant `Q(s)` applied to segment
    /// `d` is `rotate_left(d, s)`, so each block contributes one rotated
    /// XOR of packed words into the result — no per-edge work and no
    /// per-block allocation.
    ///
    /// # Panics
    ///
    /// Panics if `cw` is not [`QcLdpcCode::n`] bits long.
    pub fn syndrome(&self, cw: &BitVec) -> BitVec {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        let h = self.matrix();
        let mut syn = vec![0u64; h.m() / 64];
        for (i, acc) in syn.chunks_exact_mut(h.t() / 64).enumerate() {
            xor_block_row(acc, cw.as_words(), row_circulants(h, i));
        }
        BitVec::from_words(syn, h.m())
    }

    /// Syndrome bits of one block row (a `t`-bit vector).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `cw` has the wrong length.
    pub fn block_row_syndrome(&self, cw: &BitVec, i: usize) -> BitVec {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        let h = self.matrix();
        let mut acc = vec![0u64; h.t() / 64];
        xor_block_row(&mut acc, cw.as_words(), row_circulants(h, i));
        BitVec::from_words(acc, h.t())
    }

    /// Hamming weight of the full syndrome (`Σ s_k` over all `r·t` checks).
    pub fn syndrome_weight(&self, cw: &BitVec) -> usize {
        self.syndrome(cw).count_ones()
    }

    /// Hamming weight of the *pruned* syndrome: only the first block row's
    /// `t` checks, as computed by the RP module (paper §V-A2, footnote 6:
    /// 1 024 of 4 096 syndromes).
    pub fn pruned_syndrome_weight(&self, cw: &BitVec) -> usize {
        self.block_row_syndrome(cw, 0).count_ones()
    }

    /// Expected per-check syndrome probability at raw bit-error rate `p`
    /// for a check of degree `d`: `(1 − (1−2p)^d) / 2`.
    ///
    /// An even number of errors among the `d` participating bits leaves the
    /// check satisfied; this is the standard parity-of-binomial identity
    /// and underlies the RBER ↔ syndrome-weight correlation of Fig. 10.
    pub fn syndrome_probability(degree: usize, p: f64) -> f64 {
        (1.0 - (1.0 - 2.0 * p).powi(degree as i32)) / 2.0
    }

    /// Analytic expectation of the pruned syndrome weight at RBER `p`:
    /// `t · (1 − (1−2p)^w0) / 2` with `w0` the first block row's weight.
    pub fn expected_pruned_weight(&self, p: f64) -> f64 {
        let h = self.matrix();
        h.t() as f64 * Self::syndrome_probability(h.row_weight(0), p)
    }

    /// Analytic expectation of the full syndrome weight at RBER `p`.
    pub fn expected_full_weight(&self, p: f64) -> f64 {
        let h = self.matrix();
        (0..h.rows_b())
            .map(|i| h.t() as f64 * Self::syndrome_probability(h.row_weight(i), p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Bsc;
    use rif_events::SimRng;

    #[test]
    fn syndrome_zero_for_codewords() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(1);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        assert!(code.syndrome(&cw).is_zero());
        assert_eq!(code.syndrome_weight(&cw), 0);
        assert_eq!(code.pruned_syndrome_weight(&cw), 0);
    }

    #[test]
    fn syndrome_matches_per_edge_definition() {
        // Cross-check the fast rotated-XOR syndrome against a naive
        // bit-by-bit evaluation of H·x.
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(2);
        let mut cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        for _ in 0..30 {
            cw.flip(rng.index(code.n()));
        }
        let h = code.matrix();
        let t = h.t();
        let fast = code.syndrome(&cw);
        for i in 0..h.rows_b() {
            for k in 0..t {
                let mut bit = false;
                for b in h.row_blocks(i) {
                    bit ^= cw.get(h.var_of(b, k));
                }
                assert_eq!(fast.get(i * t + k), bit, "check ({i},{k})");
            }
        }
    }

    #[test]
    fn single_error_hits_column_weight_checks() {
        let code = QcLdpcCode::small_test();
        let cw = BitVec::zeros(code.n());
        for j in [0usize, 5, 33] {
            let mut bad = cw.clone();
            bad.flip(j * code.matrix().t() + 3);
            assert_eq!(
                code.syndrome_weight(&bad),
                code.matrix().column_weight(j),
                "segment {j}"
            );
        }
    }

    #[test]
    fn weight_grows_with_rber() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(3);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let mut prev = 0.0;
        for &p in &[0.001, 0.004, 0.008, 0.016] {
            let mut acc = 0usize;
            let trials = 20;
            for _ in 0..trials {
                let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
                acc += code.syndrome_weight(&noisy);
            }
            let avg = acc as f64 / trials as f64;
            assert!(avg > prev, "avg weight not increasing at p={p}");
            prev = avg;
        }
    }

    #[test]
    fn analytic_expectation_matches_monte_carlo() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(4);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let p = 0.006;
        let trials = 400;
        let mut pruned = 0usize;
        let mut full = 0usize;
        for _ in 0..trials {
            let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
            pruned += code.pruned_syndrome_weight(&noisy);
            full += code.syndrome_weight(&noisy);
        }
        let mc_pruned = pruned as f64 / trials as f64;
        let mc_full = full as f64 / trials as f64;
        let an_pruned = code.expected_pruned_weight(p);
        let an_full = code.expected_full_weight(p);
        assert!(
            (mc_pruned - an_pruned).abs() / an_pruned < 0.10,
            "pruned MC {mc_pruned} vs analytic {an_pruned}"
        );
        assert!(
            (mc_full - an_full).abs() / an_full < 0.10,
            "full MC {mc_full} vs analytic {an_full}"
        );
    }

    #[test]
    fn syndrome_probability_limits() {
        assert_eq!(QcLdpcCode::syndrome_probability(36, 0.0), 0.0);
        let half = QcLdpcCode::syndrome_probability(36, 0.5);
        assert!((half - 0.5).abs() < 1e-12);
        let p = QcLdpcCode::syndrome_probability(36, 0.0085);
        assert!(p > 0.2 && p < 0.3, "got {p}");
    }

    #[test]
    fn pruned_weight_equals_first_block_row_of_full() {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(5);
        let mut cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        for _ in 0..10 {
            cw.flip(rng.index(code.n()));
        }
        let t = code.matrix().t();
        let full = code.syndrome(&cw);
        let first_row_ones = (0..t).filter(|&k| full.get(k)).count();
        assert_eq!(code.pruned_syndrome_weight(&cw), first_row_ones);
    }
}
