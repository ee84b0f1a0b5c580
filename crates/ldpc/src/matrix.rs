//! Quasi-cyclic parity-check matrices.
//!
//! The paper's code (§II-B1, Fig. 13, footnote 6) uses an `r × c` block
//! matrix of `t × t` circulants — concretely 4 × 36 blocks of 1024 × 1024 —
//! where each circulant `Q(C(i,j))` is the identity cyclically shifted right
//! by `C(i,j)`. The data part of our matrix is fully dense with random
//! shifts (4-cycle-free by construction), and the parity part uses the
//! standard encodable dual-diagonal structure (one weight-3 column followed
//! by an identity staircase), as in IEEE 802.11n QC-LDPC codes.

use rif_events::SimRng;

/// Placement of one circulant block inside the parity-check matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Block-row index in `[0, rows_b)`.
    pub row: usize,
    /// Block-column index in `[0, cols_b)`.
    pub col: usize,
    /// Right cyclic shift of the identity (the coefficient `C(i,j)`).
    pub shift: usize,
}

/// A quasi-cyclic parity-check matrix in coefficient form.
///
/// Entry `(i, j)` is `None` for an all-zero block or `Some(shift)` for the
/// circulant `Q(shift)`.
///
/// # Example
///
/// ```
/// use rif_ldpc::QcMatrix;
///
/// let h = QcMatrix::paper_structure(4, 36, 64, 7);
/// assert_eq!(h.n(), 36 * 64);
/// assert_eq!(h.m(), 4 * 64);
/// // The data part is fully dense: every data column has weight rows_b.
/// assert!((0..32).all(|j| h.column_weight(j) == 4));
/// ```
#[derive(Debug, Clone)]
pub struct QcMatrix {
    rows_b: usize,
    cols_b: usize,
    t: usize,
    coeffs: Vec<Option<usize>>, // row-major rows_b x cols_b
}

impl QcMatrix {
    /// Builds a matrix with the paper's structure: `rows_b × cols_b` blocks
    /// of `t × t` circulants, with a fully dense random data part (the first
    /// `cols_b - rows_b` block columns) and an encodable dual-diagonal
    /// parity part (the last `rows_b` block columns).
    ///
    /// The random data shifts are drawn from `seed` and re-drawn per column
    /// until the column introduces no 4-cycle (girth ≥ 6 within the data
    /// part), which keeps min-sum decoding healthy.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is a multiple of 64, `rows_b >= 2`, and
    /// `cols_b > rows_b`.
    pub fn paper_structure(rows_b: usize, cols_b: usize, t: usize, seed: u64) -> Self {
        assert!(
            t % 64 == 0,
            "circulant size must be a multiple of 64, got {t}"
        );
        assert!(rows_b >= 2, "need at least two block rows");
        assert!(cols_b > rows_b, "need at least one data column");
        let mut rng = SimRng::seed_from(seed);
        let data_cols = cols_b - rows_b;
        let mut coeffs: Vec<Option<usize>> = vec![None; rows_b * cols_b];

        // Parity part first: the first parity column has weight 3 (rows 0,
        // mid, rows_b-1) with shifts (1, 0, 1) as in IEEE 802.11n — the two
        // shift-1 entries cancel when all block rows are summed, so
        // p0 = Σ sᵢ still holds, while the non-zero shifts break 4-cycles
        // against the shift-0 staircase. The remaining parity columns form
        // the identity staircase: column k has identities at rows k-1, k.
        let p0 = data_cols;
        let mid = rows_b / 2;
        coeffs[p0] = Some(1);
        coeffs[mid * cols_b + p0] = Some(0);
        coeffs[(rows_b - 1) * cols_b + p0] = Some(1);
        for k in 1..rows_b {
            coeffs[(k - 1) * cols_b + (p0 + k)] = Some(0);
            coeffs[k * cols_b + (p0 + k)] = Some(0);
        }

        // Fully dense random data part, avoiding 4-cycles against *all*
        // previously placed columns (data and parity): two columns j, j'
        // sharing rows i1 != i2 create a 4-cycle iff
        // (C(i1,j) - C(i2,j)) ≡ (C(i1,j') - C(i2,j')) (mod t).
        let mut accepted: Vec<Vec<(usize, usize)>> = (data_cols..cols_b)
            .map(|j| {
                (0..rows_b)
                    .filter_map(|i| coeffs[i * cols_b + j].map(|s| (i, s)))
                    .collect()
            })
            .collect();
        for j in 0..data_cols {
            'retry: loop {
                let cand: Vec<(usize, usize)> = (0..rows_b).map(|i| (i, rng.index(t))).collect();
                for prev in &accepted {
                    for &(i1, s1_new) in &cand {
                        for &(i2, s2_new) in &cand {
                            if i2 <= i1 {
                                continue;
                            }
                            let (Some(&(_, s1_old)), Some(&(_, s2_old))) = (
                                prev.iter().find(|(i, _)| *i == i1),
                                prev.iter().find(|(i, _)| *i == i2),
                            ) else {
                                continue;
                            };
                            let d_new = (s1_new + t - s2_new) % t;
                            let d_old = (s1_old + t - s2_old) % t;
                            if d_new == d_old {
                                continue 'retry;
                            }
                        }
                    }
                }
                for &(i, s) in &cand {
                    coeffs[i * cols_b + j] = Some(s);
                }
                accepted.push(cand);
                break;
            }
        }

        QcMatrix {
            rows_b,
            cols_b,
            t,
            coeffs,
        }
    }

    /// A matrix with exactly the given coefficients (row-major), for tests
    /// that need particular shifts; no structure is checked.
    #[cfg(test)]
    pub(crate) fn from_coeffs(rows_b: usize, t: usize, coeffs: Vec<Option<usize>>) -> Self {
        assert!(t.is_multiple_of(64) && coeffs.len().is_multiple_of(rows_b));
        QcMatrix {
            rows_b,
            cols_b: coeffs.len() / rows_b,
            t,
            coeffs,
        }
    }

    /// Number of block rows `r`.
    pub fn rows_b(&self) -> usize {
        self.rows_b
    }

    /// Number of block columns `c`.
    pub fn cols_b(&self) -> usize {
        self.cols_b
    }

    /// Circulant size `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Codeword length in bits (`c · t`).
    pub fn n(&self) -> usize {
        self.cols_b * self.t
    }

    /// Number of parity checks (`r · t`).
    pub fn m(&self) -> usize {
        self.rows_b * self.t
    }

    /// Number of data block columns (`c − r`).
    pub fn data_cols_b(&self) -> usize {
        self.cols_b - self.rows_b
    }

    /// Shift coefficient at block `(i, j)`, or `None` for a zero block.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn coeff(&self, i: usize, j: usize) -> Option<usize> {
        assert!(
            i < self.rows_b && j < self.cols_b,
            "block ({i},{j}) out of range"
        );
        self.coeffs[i * self.cols_b + j]
    }

    /// Non-zero blocks in row-major order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        self.coeffs.iter().enumerate().filter_map(move |(k, c)| {
            c.map(|shift| Block {
                row: k / self.cols_b,
                col: k % self.cols_b,
                shift,
            })
        })
    }

    /// Non-zero blocks of one block row.
    pub fn row_blocks(&self, i: usize) -> impl Iterator<Item = Block> + '_ {
        assert!(i < self.rows_b, "block row {i} out of range");
        (0..self.cols_b).filter_map(move |j| {
            self.coeff(i, j).map(|shift| Block {
                row: i,
                col: j,
                shift,
            })
        })
    }

    /// Number of non-zero blocks in block column `j` (the variable-node
    /// degree of every bit in that segment).
    pub fn column_weight(&self, j: usize) -> usize {
        (0..self.rows_b)
            .filter(|&i| self.coeff(i, j).is_some())
            .count()
    }

    /// Number of non-zero blocks in block row `i` (the check-node degree of
    /// every check in that block row).
    pub fn row_weight(&self, i: usize) -> usize {
        (0..self.cols_b)
            .filter(|&j| self.coeff(i, j).is_some())
            .count()
    }

    /// Total number of edges in the Tanner graph.
    pub fn edge_count(&self) -> usize {
        self.coeffs.iter().filter(|c| c.is_some()).count() * self.t
    }

    /// For check `m = i·t + k`, the variable connected through block
    /// `(i, j)` with shift `s` is `j·t + ((k + s) mod t)`: row `k` of the
    /// right-shifted identity `Q(s)` has its 1 at column `(k + s) mod t`.
    pub fn var_of(&self, block: Block, k: usize) -> usize {
        debug_assert!(k < self.t);
        block.col * self.t + (k + block.shift) % self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_paper_footnote6() {
        // Footnote 6: H is 4 x 36 blocks of 1024 x 1024 submatrices,
        // i.e. 4096 syndromes of which only the first 1024 are used by RP.
        let h = QcMatrix::paper_structure(4, 36, 1024, 42);
        assert_eq!(h.n(), 36_864);
        assert_eq!(h.m(), 4_096);
        assert_eq!(h.data_cols_b(), 32);
        assert_eq!(h.data_cols_b() * h.t(), 32_768); // exactly 4 KiB of data
    }

    #[test]
    fn data_part_is_fully_dense() {
        let h = QcMatrix::paper_structure(4, 36, 64, 1);
        for j in 0..h.data_cols_b() {
            assert_eq!(h.column_weight(j), 4, "data column {j}");
        }
    }

    #[test]
    fn parity_part_is_dual_diagonal() {
        let h = QcMatrix::paper_structure(4, 36, 64, 1);
        let p0 = h.data_cols_b();
        assert_eq!(h.column_weight(p0), 3);
        for k in 1..4 {
            assert_eq!(h.column_weight(p0 + k), 2, "staircase column {k}");
            assert_eq!(h.coeff(k - 1, p0 + k), Some(0));
            assert_eq!(h.coeff(k, p0 + k), Some(0));
        }
        // Staircase columns are zero elsewhere.
        assert_eq!(h.coeff(3, p0 + 1), None);
        assert_eq!(h.coeff(0, p0 + 3), None);
    }

    #[test]
    fn first_block_row_covers_data_and_leading_parity() {
        let h = QcMatrix::paper_structure(4, 36, 64, 1);
        let cols: Vec<usize> = h.row_blocks(0).map(|b| b.col).collect();
        // Row 0: all 32 data columns + p0 + first staircase column.
        assert_eq!(cols.len(), 34);
        assert!(cols.contains(&32) && cols.contains(&33));
    }

    #[test]
    fn no_four_cycles_in_data_part() {
        let h = QcMatrix::paper_structure(4, 12, 64, 3);
        let t = h.t();
        let dc = h.data_cols_b();
        for j1 in 0..dc {
            for j2 in (j1 + 1)..dc {
                for i1 in 0..4 {
                    for i2 in (i1 + 1)..4 {
                        let a = (h.coeff(i1, j1).unwrap() + t - h.coeff(i2, j1).unwrap()) % t;
                        let b = (h.coeff(i1, j2).unwrap() + t - h.coeff(i2, j2).unwrap()) % t;
                        assert_ne!(a, b, "4-cycle between columns {j1} and {j2}");
                    }
                }
            }
        }
    }

    #[test]
    fn var_of_is_in_segment() {
        let h = QcMatrix::paper_structure(4, 36, 64, 5);
        for b in h.blocks() {
            for k in [0, 1, h.t() - 1] {
                let v = h.var_of(b, k);
                assert!(v >= b.col * h.t() && v < (b.col + 1) * h.t());
            }
        }
    }

    #[test]
    fn edge_count_consistent_with_weights() {
        let h = QcMatrix::paper_structure(4, 36, 64, 5);
        let from_rows: usize = (0..4).map(|i| h.row_weight(i)).sum::<usize>() * h.t();
        let from_cols: usize = (0..36).map(|j| h.column_weight(j)).sum::<usize>() * h.t();
        assert_eq!(h.edge_count(), from_rows);
        assert_eq!(h.edge_count(), from_cols);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = QcMatrix::paper_structure(4, 36, 64, 77);
        let b = QcMatrix::paper_structure(4, 36, 64, 77);
        for i in 0..4 {
            for j in 0..36 {
                assert_eq!(a.coeff(i, j), b.coeff(i, j));
            }
        }
    }
}
