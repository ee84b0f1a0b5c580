//! Circulant products on word-packed segments.
//!
//! A `t`-bit segment is `t/64` packed words (bit `k` is bit `k % 64` of
//! word `k / 64`). The circulant `Q(s)` applied to a segment is the
//! segment rotated left by `s`: output bit `k` is input bit `(k + s) mod t`.
//! Every syndrome, the codeword rearrangement and its inverse, and the
//! decoder's convergence test are XORs of such rotations, computed here a
//! word at a time into the caller's buffer — no per-circulant allocation.

use crate::matrix::QcMatrix;

/// Applies `op` to each word of `out` and the same word of `seg` rotated
/// left by `shift < t` bits (both `t/64` words): output bit `k` of the
/// rotation is input bit `(k + shift) mod t`. The rotation is two
/// contiguous runs, `seg[q..]` into `out`'s head and `seg[..q]` into its
/// tail (`q = shift / 64`), each closed by the one word that straddles
/// its seam, so no word pays a wrap test.
#[inline(always)]
fn rotated_with(out: &mut [u64], seg: &[u64], shift: usize, op: impl Fn(&mut u64, u64)) {
    let nw = seg.len();
    assert!(out.len() == nw && shift < nw * 64);
    let (q, bs) = (shift / 64, shift % 64);
    let (head, tail) = out.split_at_mut(nw - q);
    if bs == 0 {
        head.iter_mut().zip(&seg[q..]).for_each(|(a, &w)| op(a, w));
        tail.iter_mut().zip(&seg[..q]).for_each(|(a, &w)| op(a, w));
        return;
    }
    let join = |lo: u64, hi: u64| (lo >> bs) | (hi << (64 - bs));
    for (a, (&lo, &hi)) in head.iter_mut().zip(seg[q..].iter().zip(&seg[q + 1..])) {
        op(a, join(lo, hi));
    }
    op(&mut head[nw - q - 1], join(seg[nw - 1], seg[0]));
    if q > 0 {
        for (a, (&lo, &hi)) in tail.iter_mut().zip(seg.iter().zip(&seg[1..q])) {
            op(a, join(lo, hi));
        }
        op(&mut tail[q - 1], join(seg[q - 1], seg[q]));
    }
}

/// XORs `seg` rotated left by `shift < t` bits into `acc` (both `t/64`
/// words). Output bit `k` of the rotation is input bit `(k + shift) mod t`.
#[inline]
pub(crate) fn xor_rotated(acc: &mut [u64], seg: &[u64], shift: usize) {
    rotated_with(acc, seg, shift, |a, w| *a ^= w);
}

/// Writes `seg` rotated left by `shift < t` bits into `out` (both `t/64`
/// words).
#[inline]
pub(crate) fn rotate_into(out: &mut [u64], seg: &[u64], shift: usize) {
    rotated_with(out, seg, shift, |a, w| *a = w);
}

/// XORs one block row's product with the word-packed codeword `words`
/// into `acc` (`t/64` words): `Σ Q(shift) · segment(col)` over the row's
/// `(col, shift)` blocks, every `shift < t`.
#[inline]
pub(crate) fn xor_block_row(
    acc: &mut [u64],
    words: &[u64],
    blocks: impl IntoIterator<Item = (usize, usize)>,
) {
    let tw = acc.len();
    for (col, shift) in blocks {
        xor_rotated(acc, &words[col * tw..(col + 1) * tw], shift);
    }
}

/// True when every block row's product with `words` is zero. Rows are
/// tested in order and the first nonzero syndrome word ends the test;
/// `acc` is `t/64` words of scratch.
#[inline]
pub(crate) fn rows_clear<R: IntoIterator<Item = (usize, usize)>>(
    acc: &mut [u64],
    words: &[u64],
    rows: impl IntoIterator<Item = R>,
) -> bool {
    rows.into_iter().all(|row| {
        acc.fill(0);
        xor_block_row(acc, words, row);
        acc.iter().all(|&w| w == 0)
    })
}

/// `(col, shift mod t)` of every circulant in block row `i` of `h`.
pub(crate) fn row_circulants(h: &QcMatrix, i: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let t = h.t();
    h.row_blocks(i).map(move |b| (b.col, b.shift % t))
}

/// The `BitVec` slice-and-rotate bodies the word-packed code replaced,
/// kept as references, and the tests holding the two equal.
#[cfg(test)]
mod tests {
    use crate::bits::BitVec;
    use crate::code::QcLdpcCode;
    use crate::matrix::QcMatrix;
    use rif_events::SimRng;

    fn block_row_syndrome(code: &QcLdpcCode, cw: &BitVec, i: usize) -> BitVec {
        let h = code.matrix();
        let t = h.t();
        let mut acc = BitVec::zeros(t);
        for b in h.row_blocks(i) {
            let seg = cw.slice(b.col * t, t);
            acc.xor_assign(&seg.rotate_left(b.shift));
        }
        acc
    }

    fn syndrome(code: &QcLdpcCode, cw: &BitVec) -> BitVec {
        let h = code.matrix();
        let t = h.t();
        let mut syn = BitVec::zeros(h.m());
        for i in 0..h.rows_b() {
            syn.copy_from(i * t, &block_row_syndrome(code, cw, i));
        }
        syn
    }

    fn check(code: &QcLdpcCode, cw: &BitVec) -> bool {
        syndrome(code, cw).is_zero()
    }

    fn pruned_syndrome_weight(code: &QcLdpcCode, cw: &BitVec) -> usize {
        block_row_syndrome(code, cw, 0).count_ones()
    }

    fn rotate_segments(code: &QcLdpcCode, cw: &BitVec, left: bool) -> BitVec {
        let h = code.matrix();
        let t = h.t();
        let mut out = BitVec::zeros(code.n());
        for j in 0..h.cols_b() {
            let seg = cw.slice(j * t, t);
            let placed = match h.coeff(0, j) {
                Some(shift) if left => seg.rotate_left(shift),
                Some(shift) => seg.rotate_right(shift),
                None => seg,
            };
            out.copy_from(j * t, &placed);
        }
        out
    }

    fn pruned_weight_rearranged(code: &QcLdpcCode, rearranged: &BitVec) -> usize {
        let h = code.matrix();
        let t = h.t();
        let mut acc = BitVec::zeros(t);
        for j in 0..h.cols_b() {
            if h.coeff(0, j).is_some() {
                acc.xor_assign(&rearranged.slice(j * t, t));
            }
        }
        acc.count_ones()
    }

    /// Every word-packed method against its reference on `cw`.
    fn assert_matches_reference(code: &QcLdpcCode, cw: &BitVec, what: &str) {
        assert_eq!(code.syndrome(cw), syndrome(code, cw), "syndrome: {what}");
        assert_eq!(code.check(cw), check(code, cw), "check: {what}");
        for i in 0..code.matrix().rows_b() {
            assert_eq!(
                code.block_row_syndrome(cw, i),
                block_row_syndrome(code, cw, i),
                "block row {i}: {what}"
            );
        }
        assert_eq!(
            code.pruned_syndrome_weight(cw),
            pruned_syndrome_weight(code, cw),
            "pruned weight: {what}"
        );
        let rearranged = code.rearrange(cw);
        assert_eq!(
            rearranged,
            rotate_segments(code, cw, true),
            "rearrange: {what}"
        );
        assert_eq!(
            code.restore(cw),
            rotate_segments(code, cw, false),
            "restore: {what}"
        );
        assert_eq!(
            code.pruned_weight_rearranged(&rearranged),
            pruned_weight_rearranged(code, &rearranged),
            "pruned weight rearranged: {what}"
        );
    }

    /// A word whose syndrome is the single check `k` of the last block
    /// row: data zero, parity solved by the encoder's staircase against
    /// that syndrome instead of against the data's partial sums.
    fn last_row_only(code: &QcLdpcCode, k: usize) -> BitVec {
        let h = code.matrix();
        let (t, r) = (h.t(), h.rows_b());
        let mut p0 = BitVec::zeros(t);
        p0.set(k, true);
        let mut parity = vec![p0.clone(), p0.rotate_left(1)];
        for i in 1..r - 1 {
            let mut next = parity[i].clone();
            if i == r / 2 {
                next.xor_assign(&p0);
            }
            parity.push(next);
        }
        let mut word = BitVec::zeros(code.n());
        for (i, p) in parity.iter().enumerate() {
            word.copy_from((h.data_cols_b() + i) * t, p);
        }
        word
    }

    #[test]
    fn word_packed_helpers_match_the_bitvec_bodies() {
        let codes = [
            ("small_test", QcLdpcCode::small_test()),
            ("medium", QcLdpcCode::medium()),
            ("paper", QcLdpcCode::paper()),
        ];
        let mut rng = SimRng::seed_from(0xC1C);
        for (name, code) in &codes {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            assert_matches_reference(code, &cw, &format!("{name} codeword"));
            let mut one_flip = cw.clone();
            one_flip.flip(rng.index(code.n()));
            assert_matches_reference(code, &one_flip, &format!("{name} one flip"));
            let random = BitVec::random(code.n(), &mut rng);
            assert_matches_reference(code, &random, &format!("{name} random"));

            let t = code.matrix().t();
            let rows = code.matrix().rows_b();
            for k in [0, 1, t - 1] {
                let word = last_row_only(code, k);
                let mut expected = BitVec::zeros(code.matrix().m());
                expected.set((rows - 1) * t + k, true);
                assert_eq!(syndrome(code, &word), expected, "{name}: k={k}");
                assert!(!code.check(&word), "{name}: last-row check {k} missed");
                assert_matches_reference(code, &word, &format!("{name} last row k={k}"));
            }
        }
    }

    #[test]
    fn word_packed_helpers_match_at_edge_shifts() {
        // Shifts on word boundaries, one bit either side of them, the last
        // bit, and (for t = 64) a shift of t itself, which is Q(0).
        for t in [64usize, 192] {
            let shifts = [0, 1, 63, 64, t - 1];
            let coeffs = (0..3)
                .flat_map(|i| (0..6).map(move |j| (i + j) % 6))
                .map(|k| (k < 5).then(|| shifts[k]))
                .collect();
            let code = QcLdpcCode::new(QcMatrix::from_coeffs(3, t, coeffs));
            let mut rng = SimRng::seed_from(t as u64);
            for round in 0..4 {
                let word = BitVec::random(code.n(), &mut rng);
                assert_matches_reference(&code, &word, &format!("t={t} round {round}"));
            }
            // A codeword of any linear code, and one bit off it.
            let zeros = BitVec::zeros(code.n());
            assert!(code.check(&zeros));
            assert_matches_reference(&code, &zeros, &format!("t={t} zeros"));
            let mut one = zeros.clone();
            one.flip(code.n() - 1);
            assert_matches_reference(&code, &one, &format!("t={t} last bit"));
        }
    }
}
