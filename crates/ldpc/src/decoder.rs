//! LDPC decoder: normalized min-sum (the channel-level ECC engine of the
//! paper).
//!
//! The decoding-failure probability and iteration count of
//! [`MinSumDecoder`] as functions of RBER are exactly the curves of
//! Fig. 3; the iteration count maps onto the 1–20 µs tECC range of Table I.
//!
//! Decoding runs a fast path built on the quasi-cyclic structure: the
//! per-iteration syndrome check is a rotate-XOR over 64-bit-packed
//! segments (each circulant `Q(s)` applied to a packed segment is a
//! rotation, here of a segment stored twice in a row so that it is one
//! contiguous run) instead of a walk over the `m × row_weight` edges one
//! bit at a time, and the min-sum message passing is one fused kernel per
//! block row, written once over a lane vector type of which the widest
//! the CPU has runs: 16 lanes of AVX-512F, 8 of AVX2, or a portable
//! 8-float array (see [`MinSumDecoder::decode_llr`]). A hard-decision read
//! ([`MinSumDecoder::decode`]) runs iterations 1 and 2 on the packed word
//! instead: on ±1 LLRs every first message is `±α`, so iteration 1 is a
//! count of unsatisfied checks per bit, and every second `v2c` is one of a
//! few magnitudes fixed by that count, so iteration 2 is a minimum over
//! bit-sliced magnitude classes. The float kernel starts at iteration 3
//! from the exact messages and totals the float iteration 2 would have
//! left. The straightforward per-edge implementation is kept as
//! [`MinSumDecoder::decode_llr_reference`]; the fast path is bit-identical
//! to it (see the golden-equivalence suite in `tests/`).

use std::cell::Cell;

use crate::bits::BitVec;
use crate::circulant::{
    double_segments, doubled_stride, row_circulants, single_segments, xor_rotated_doubled, GROUP,
};
use crate::code::QcLdpcCode;
use crate::lanes::{LaneKind, Lanes, Portable, MAX_WIDTH};

/// Result of a decoding attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// True when the decoder converged to a valid codeword.
    pub success: bool,
    /// Number of message-passing (or bit-flipping) rounds executed.
    /// Zero when the input was already a codeword.
    pub iterations: u32,
    /// The decoder's final word (a codeword when `success`).
    pub decoded: BitVec,
}

/// Checks of the widest kernel chunk. A chunk is two lane vectors, so two
/// independent min/max dependency chains are in flight per circulant: 32
/// checks under AVX-512, 16 under AVX2 and the portable lanes.
const MAX_CHUNK: usize = 2 * MAX_WIDTH;

/// Floats of padding after each `t`-float message slab and totals segment
/// in the kernel's arrays (one 64-byte cache line). With `t = 1024` the
/// un-padded slabs and segments sit exactly 4 KiB apart, so the ~105
/// streams a chunk touches (a row's message slabs plus its current and
/// next totals segments) all map to one L1d set and evict each other;
/// one line of padding walks them across the sets instead.
const PAD: usize = 16;

/// The quasi-cyclic block structure of the Tanner graph: all that the
/// word-packed syndrome check, the packed iterations and the fused
/// min-sum kernel read. The per-edge adjacency only the reference walks
/// is not kept here: [`MinSumDecoder::decode_llr_reference`] builds it
/// ([`Csr::build`]) on each call.
#[derive(Debug, Clone)]
struct Graph {
    /// `(col, shift)` of each block, grouped by block row — the circulant
    /// structure backing the rotate-XOR syndrome.
    block_rows: Vec<Vec<(usize, usize)>>,
    /// The kernel's blocks, grouped by block row.
    plan_rows: Vec<Vec<PlanBlock>>,
    /// `(row, shift, block)` of each block, grouped by block column, rows
    /// ascending; `block` is the block's index in row-major order (that
    /// of its message slab). A column's block count is the degree of each
    /// of its variables.
    block_cols: Vec<Vec<(usize, usize, usize)>>,
    /// Words from one doubled segment to the next (`doubled_stride`).
    ds: usize,
    /// Circulant size (a multiple of 64).
    t: usize,
    n: usize,
}

impl Graph {
    fn build(code: &QcLdpcCode) -> Graph {
        let h = code.matrix();
        let t = h.t();
        let block_rows: Vec<Vec<(usize, usize)>> = (0..h.rows_b())
            .map(|i| row_circulants(h, i).collect())
            .collect();

        // Kernel plan: one padded message slab per block, in row-major
        // block order; rows run in ascending order, so a column's first
        // block is the one that meets it in the lowest row.
        let stride = t + PAD;
        let mut msg_offsets = (0..).step_by(stride);
        let mut met = vec![false; h.cols_b()];
        let plan_rows = block_rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&mut msg_offsets)
                    .map(|(&(col, shift), msg)| PlanBlock {
                        col_base: col * stride,
                        shift,
                        msg,
                        first: !std::mem::replace(&mut met[col], true),
                    })
                    .collect()
            })
            .collect();
        // Pass 2 of the kernel writes every variable's new total through
        // its column's first block; a column no row meets would keep a
        // stale one.
        assert!(
            met.iter().all(|&m| m),
            "every block column must meet some block row"
        );
        // A check of degree 1 has no second minimum: its message would be
        // α·∞ and the totals NaN, and the packed iterations assume every
        // first message is ±α.
        assert!(
            block_rows.iter().all(|row| row.len() >= 2),
            "every check must meet at least two variables"
        );
        let mut block_cols = vec![Vec::new(); h.cols_b()];
        let mut block = 0..;
        for (row, blocks) in block_rows.iter().enumerate() {
            for (&(col, shift), b) in blocks.iter().zip(&mut block) {
                block_cols[col].push((row, shift, b));
            }
        }
        let max_degree = block_cols.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            max_degree <= MAX_DEGREE,
            "column degree {max_degree} is too high: the packed iterations take up to {MAX_DEGREE}"
        );

        Graph {
            block_rows,
            plan_rows,
            block_cols,
            ds: doubled_stride(t / 64),
            t,
            n: h.n(),
        }
    }

    /// Word-packed equivalent of [`Csr::syndrome_clear`] on a doubled
    /// word (each segment's `t/64` words twice in a row, `ds` words from
    /// one segment to the next): per block row,
    /// XOR the rotated segments (circulant `Q(s)` ≡ rotate left by `s`)
    /// into the caller's `t/64`-word accumulator and bail out on the first
    /// nonzero syndrome word.
    fn syndrome_clear_words(&self, word2: &[u64], acc: &mut [u64]) -> bool {
        let ds = self.ds;
        debug_assert_eq!(word2.len() / ds * self.t, self.n);
        debug_assert_eq!(acc.len(), self.t / 64);
        self.block_rows.iter().all(|row| {
            acc.fill(0);
            for &(col, shift) in row {
                xor_rotated_doubled(acc, &word2[col * ds..][..ds], shift);
            }
            acc.iter().all(|&w| w == 0)
        })
    }
}

/// The Tanner graph's per-edge adjacency in CSR form, which only the
/// reference decoder walks, built from the block rows on each reference
/// call so that a decoder keeps only its kernel's plan (≈1.3 MB less on
/// the paper code).
struct Csr {
    /// For each check, the index range into `chk_vars`.
    chk_ptr: Vec<u32>,
    /// Variable index of each edge, grouped by check.
    chk_vars: Vec<u32>,
    /// For each variable, the index range into `var_edges`.
    var_ptr: Vec<u32>,
    /// Edge indices (positions in `chk_vars`) grouped by variable,
    /// ascending.
    var_edges: Vec<u32>,
}

impl Csr {
    /// Check `i·t + k` meets variable `col·t + (k + shift) mod t` through
    /// each block `(col, shift)` of block row `i`, in the row's block
    /// order (that of `QcMatrix::row_blocks`, read through `var_of`).
    /// Edges are numbered check-major, and each variable's edges ascend,
    /// so the reference sums a variable's messages in block-row order,
    /// as the fused kernel does.
    fn build(g: &Graph) -> Csr {
        let t = g.t;
        let edges: usize = g.block_rows.iter().map(|row| row.len() * t).sum();
        let mut chk_ptr = Vec::with_capacity(g.block_rows.len() * t + 1);
        let mut chk_vars = Vec::with_capacity(edges);
        chk_ptr.push(0);
        for row in &g.block_rows {
            for k in 0..t {
                chk_vars.extend(
                    row.iter()
                        .map(|&(col, shift)| (col * t + (k + shift) % t) as u32),
                );
                chk_ptr.push(chk_vars.len() as u32);
            }
        }

        // Invert to per-variable edge lists.
        let mut var_ptr = vec![0u32; g.n + 1];
        for &v in &chk_vars {
            var_ptr[v as usize + 1] += 1;
        }
        for v in 0..g.n {
            var_ptr[v + 1] += var_ptr[v];
        }
        let mut cursor = var_ptr.clone();
        let mut var_edges = vec![0u32; edges];
        for (e, &v) in chk_vars.iter().enumerate() {
            var_edges[cursor[v as usize] as usize] = e as u32;
            cursor[v as usize] += 1;
        }
        Csr {
            chk_ptr,
            chk_vars,
            var_ptr,
            var_edges,
        }
    }

    /// True when `hard` (bit n set ⇒ bit value 1) satisfies every check:
    /// one `BitVec::get` per edge.
    fn syndrome_clear(&self, hard: &BitVec) -> bool {
        self.chk_ptr.windows(2).all(|c| {
            let edges = &self.chk_vars[c[0] as usize..c[1] as usize];
            !edges.iter().fold(false, |p, &v| p ^ hard.get(v as usize))
        })
    }
}

/// One block of the kernel plan.
#[derive(Debug, Clone, Copy)]
struct PlanBlock {
    /// Where the block's column segment starts in a padded totals array
    /// (stride `t + PAD` floats).
    col_base: usize,
    /// The circulant's shift, below `t`.
    shift: usize,
    /// Where the block's message slab starts in the padded message array
    /// (stride `t + PAD` floats).
    msg: usize,
    /// The block is its column's first (lowest block row): its pass 2
    /// starts the column's next totals from the channel LLRs.
    first: bool,
}

/// The normalization factor α of every check update: 3/4, the standard
/// choice for near-sum-product performance at hardware cost. Being
/// dyadic, it makes every iteration-1 and iteration-2 message and total
/// of a hard-decision decode a small multiple of 1/16, which the packed
/// iterations rely on.
const ALPHA: f32 = 0.75;

/// The largest column degree the packed iterations take, the paper
/// code's. An edge of a degree-`d` column carries the iteration-2 `v2c`
/// `±(1 + α·k)` with `k = d − 1 − 2q ∈ [1 − d, d − 1]` (see
/// [`MinSumDecoder::packed_iteration_2`]), so `|k| ≤ 3`.
const MAX_DEGREE: usize = 4;

/// Magnitude classes of an iteration-2 `v2c`: the `|1 + α·k|` of
/// `k = −3..=3`, all distinct and none zero.
const CLASSES: usize = 7;

/// Bit planes of an iteration-2 magnitude class: plane `i` is set where
/// the class is at most `i`, so a minimum over edges is an OR; the top
/// class needs no plane.
const PLANES: usize = CLASSES - 1;

/// The class magnitudes, ascending: `{1, 2, 4, 5, 7, 10, 13}/4`.
const MAGNITUDES: [f32; CLASSES] = [0.25, 0.5, 1.0, 1.25, 1.75, 2.5, 3.25];

/// The class of `|1 + α·k|`, at index `k + 3`.
const CLASS_OF: [usize; CLASSES] = [3, 1, 0, 2, 4, 5, 6];

/// Iteration 2 counts its messages in units of `α/4 = 3/16`: class `i`
/// sends `QUARTERS[i]` of them, its magnitude in quarters.
const QUARTERS: [u32; CLASSES] = [1, 2, 4, 5, 7, 10, 13];

/// Bits of an iteration-2 message in units of `α/4`.
const VALUE_BITS: usize = 4;

/// Two's-complement bits of an iteration-2 running sum: its start plus at
/// most four messages of at most 13 units, `|sum| ≤ 58 < 64`.
const SUM_BITS: usize = 7;

/// Where a variable's iteration-2 running sum starts, for a received 0
/// and a 1. The ±1 LLR is `±16/3` units, not a whole number; the total
/// `±1 + (3/16)·m` (`m` the messages' sum in units) is negative exactly
/// when `START[r] + m` is: for a 0 where `3m < −16`, i.e. `m ≤ −6`; for a
/// 1 where `3m < 16`, i.e. `m ≤ 5`. The total is then
/// `(3·sum + 1 + r) / 16`: never zero, and exact in `f32`.
const START: [i32; 2] = [5, -6];

/// The float value of each bit of a running sum (two's complement,
/// [`SUM_BITS`]): `3 · 2^j / 16`, the sign bit's negative. A total is the
/// weights of its sum's bits set plus `(1 + r) / 16`.
const WEIGHTS: [f32; SUM_BITS] = {
    let mut weights = [0.0; SUM_BITS];
    let mut j = 0;
    while j < SUM_BITS {
        weights[j] = (3 << j) as f32 / 16.0;
        j += 1;
    }
    weights[SUM_BITS - 1] = -weights[SUM_BITS - 1];
    weights
};

/// Normalized min-sum decoder.
///
/// Messages are initialized from hard-channel LLRs (the magnitude is
/// irrelevant to min-sum up to scaling, so ±1 is used) and check updates are
/// damped by a normalization factor α = 0.75, the standard choice for
/// near-sum-product performance at hardware cost.
///
/// # Example
///
/// ```
/// use rif_ldpc::{QcLdpcCode, decoder::MinSumDecoder, channel::Bsc, bits::BitVec};
/// use rif_events::SimRng;
///
/// let code = QcLdpcCode::small_test();
/// let mut rng = SimRng::seed_from(4);
/// let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
/// let noisy = Bsc::new(0.003).corrupt(&cw, &mut rng);
/// let out = MinSumDecoder::new(&code).decode(&noisy);
/// assert!(out.success);
/// assert_eq!(out.decoded, cw);
/// ```
#[derive(Debug, Clone)]
pub struct MinSumDecoder {
    graph: Graph,
    max_iterations: u32,
    alpha: f32,
}

/// The paper's decoder iteration cap (§II-B1: "a preset maximum number of
/// iterations (e.g., 20)").
pub const PAPER_MAX_ITERATIONS: u32 = 20;

impl MinSumDecoder {
    /// Builds a decoder for `code` with the paper's 20-iteration cap.
    pub fn new(code: &QcLdpcCode) -> Self {
        Self::with_max_iterations(code, PAPER_MAX_ITERATIONS)
    }

    /// Builds a decoder with a custom iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero.
    pub fn with_max_iterations(code: &QcLdpcCode, max_iterations: u32) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        MinSumDecoder {
            graph: Graph::build(code),
            max_iterations,
            alpha: ALPHA,
        }
    }

    /// The iteration cap.
    pub fn max_iterations(&self) -> u32 {
        self.max_iterations
    }

    /// Decodes a received hard-decision word.
    ///
    /// Iterations 1 and 2 run on the packed word (see
    /// `MinSumDecoder::bit_iteration` and
    /// `MinSumDecoder::packed_iteration_2`); the float kernel of
    /// [`MinSumDecoder::decode_llr`] takes over at iteration 3, from the
    /// messages and totals the float iteration 2 would have left, so the
    /// outcome is bit-identical to [`MinSumDecoder::decode_reference`].
    pub fn decode(&self, received: &BitVec) -> DecodeOutcome {
        self.decode_on(LaneKind::detect(), received)
    }

    /// [`MinSumDecoder::decode`] on a chosen lane implementation (one the
    /// CPU has), so tests can run every lane type the host supports.
    fn decode_on(&self, lanes: LaneKind, received: &BitVec) -> DecodeOutcome {
        assert_eq!(
            received.len(),
            self.graph.n,
            "received word length mismatch"
        );
        self.decode_in_scratch(lanes, received.as_words().to_vec(), None)
    }

    /// Reference-path twin of [`MinSumDecoder::decode`].
    pub fn decode_reference(&self, received: &BitVec) -> DecodeOutcome {
        let g = &self.graph;
        assert_eq!(received.len(), g.n, "received word length mismatch");
        let mut llr = vec![0.0f32; g.n];
        expand_hard_llr(received.as_words(), g.t, g.t, &mut llr);
        self.decode_llr_reference(&llr)
    }

    /// Decodes from per-bit channel log-likelihood ratios (positive =
    /// leaning 0). This is the soft-decision entry point used when the
    /// flash senses a page at several reference offsets to refine each
    /// bit's reliability; soft inputs decode well beyond the
    /// hard-decision capability.
    ///
    /// Fast path: flooding min-sum as one fused kernel per block row,
    /// written over the quasi-cyclic structure instead of CSR edge lists.
    ///
    /// * A block row's `t` checks are walked in chunks of two lane vectors
    ///   (32 checks under AVX-512, 16 otherwise). A chunk's sign product
    ///   and two smallest magnitudes stay in registers while pass 1
    ///   streams over the row's circulants (`v2c = total − c2v`, kept in a
    ///   small buffer) and pass 2 writes every new `c2v` from them. The
    ///   argmin is not tracked: the edge whose `|v2c|` equals `min1` takes
    ///   `min2`, and where two edges tie `min2 == min1`, so either choice
    ///   is the reference's value.
    /// * Pass 2 also adds each new `c2v` straight into the *next*
    ///   iteration's totals: a column's first block row writes `llr + c2v`,
    ///   every later one adds to that. Block rows run in ascending order
    ///   and a column meets each row once, so a variable's total is
    ///   `llr + row0 + row1 + …` — the reference's operand order — and
    ///   neither a separate variable-node pass nor a per-iteration copy of
    ///   the LLRs exists.
    /// * Circulant `Q(s)` makes check `k` read variable `(k + s) mod t` of
    ///   its column segment: a contiguous run per lane vector, except the
    ///   one chunk per circulant that straddles the wrap, whose lane
    ///   vectors are each two masked loads (and stores).
    /// * Message slabs and totals segments are padded apart (see `PAD`)
    ///   and live in a per-thread scratch of cache-line-aligned floats
    ///   reused across calls. A soft decode clears the message slabs and
    ///   runs iteration 1 on the LLRs through the same sweep as every
    ///   later iteration (`x − 0.0 == x` for finite `x`, `−0.0` included).
    /// * The kernel body is generic over a lane vector type: 16 lanes of
    ///   AVX-512 where the CPU has AVX-512F, else 8 of AVX2, else a
    ///   portable 8-float array; all lane operations are exact per-lane
    ///   IEEE operations.
    /// * The convergence test is the word-packed rotate-XOR syndrome on
    ///   hard decisions packed a lane vector at a time.
    ///
    /// Every float is produced by the same operands in the same order as
    /// [`MinSumDecoder::decode_llr_reference`], so outcomes are
    /// bit-identical (golden suite in `tests/`).
    ///
    /// # Panics
    ///
    /// Panics if `llr` is not codeword-length or holds a non-finite value
    /// (an infinity, or a NaN, has no min-sum meaning, and vector min/max
    /// order NaNs differently from the reference's scalar compares).
    pub fn decode_llr(&self, llr: &[f32]) -> DecodeOutcome {
        self.decode_llr_on(LaneKind::detect(), llr)
    }

    /// [`MinSumDecoder::decode_llr`] on a chosen lane implementation (one
    /// the CPU has), so tests can run every lane type the host supports.
    fn decode_llr_on(&self, lanes: LaneKind, llr: &[f32]) -> DecodeOutcome {
        assert_llrs(llr, self.graph.n);
        let hard = llr
            .chunks_exact(64)
            .map(|run| {
                let bits = run.iter().enumerate();
                bits.fold(0, |word, (b, &l)| word | u64::from(l < 0.0) << b)
            })
            .collect();
        self.decode_in_scratch(lanes, hard, Some(llr))
    }

    /// Runs the decode in this thread's scratch. `hard` is the input's
    /// hard decision: with `soft` the LLRs it was taken from, without it
    /// the whole input (a hard-decision read), whose iterations 1 and 2
    /// then run on packed words.
    fn decode_in_scratch(
        &self,
        lanes: LaneKind,
        hard: Vec<u64>,
        soft: Option<&[f32]>,
    ) -> DecodeOutcome {
        let g = &self.graph;
        assert!(lanes.available(), "{lanes:?} lanes on a CPU without them");
        // Taken out of the cell rather than borrowed inside
        // `LocalKey::with`: a closure is not compiled with the caller's
        // target features, so the kernel would lose AVX there. A panic
        // below drops the buffers and the next call allocates new ones.
        let mut scratch = SCRATCH.take();
        scratch.fit(g);
        let s = &mut scratch;
        // SAFETY (every arm): the CPU has the lanes' instruction set,
        // asserted on entry.
        let outcome = match lanes {
            #[cfg(target_arch = "x86_64")]
            LaneKind::Avx512 => unsafe { self.iterate_avx512(s, &hard, soft) },
            #[cfg(target_arch = "x86_64")]
            LaneKind::Avx2 => unsafe { self.iterate_avx2(s, &hard, soft) },
            _ => unsafe { self.iterate::<Portable>(s, &hard, soft) },
        };
        SCRATCH.set(scratch);
        outcome
    }

    /// The outcome of a decode whose final word is the doubled `word2`.
    fn outcome(&self, success: bool, iterations: u32, word2: &[u64]) -> DecodeOutcome {
        let g = &self.graph;
        DecodeOutcome {
            success,
            iterations,
            decoded: BitVec::from_words(single_segments(word2, g.t / 64), g.n),
        }
    }

    /// The decode's prologue. Returns the outcome when the input is a
    /// codeword or, for a received word (no `soft` LLRs), when one of the
    /// packed iterations ([`MinSumDecoder::bit_iteration`],
    /// [`MinSumDecoder::packed_iteration_2`]) ends the decode. Otherwise
    /// leaves the channel LLRs in the padded totals layout (±1 for a
    /// received word) and the state the sweeps start from: iteration 2's
    /// messages and totals for a received word (the sweeps start at
    /// iteration 3), zero messages for soft input (they start at
    /// iteration 1, whose totals are the LLRs).
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set `L` is built on.
    #[inline(always)]
    unsafe fn start<L: Lanes>(
        &self,
        scratch: &mut Scratch,
        hard: &[u64],
        soft: Option<&[f32]>,
    ) -> Option<DecodeOutcome> {
        let g = &self.graph;
        let (t, tw) = (g.t, g.t / 64);
        let Some(soft) = soft else {
            double_segments(hard, tw, &mut scratch.received);
            // SAFETY (both calls): `L`'s instruction set is this
            // function's own precondition.
            if let Some(outcome) = unsafe { self.bit_iteration::<L>(scratch) } {
                return Some(outcome);
            }
            return unsafe { self.packed_iteration_2::<L>(scratch) };
        };
        double_segments(hard, tw, &mut scratch.word);
        if g.syndrome_clear_words(&scratch.word, &mut scratch.syn) {
            return Some(self.outcome(true, 0, &scratch.word));
        }
        let segments = scratch.llr.as_mut_slice().chunks_exact_mut(t + PAD);
        for (j, segment) in segments.enumerate() {
            segment[..t].copy_from_slice(&soft[j * t..][..t]);
        }
        scratch.c2v.as_mut_slice().fill(0.0);
        None
    }

    /// Iteration 1 of a hard-decision decode, on packed words.
    ///
    /// With ±1 channel LLRs and zero messages every `v2c` is ±1, so in a
    /// check of degree ≥ 2 (see `Graph::build`) both minima are 1 and
    /// every message is `±α`, its sign bit the check's syndrome bit XOR
    /// the bit it goes to. A variable of degree `d` with `u` unsatisfied
    /// checks then totals `(−1)^r · (1 + α·(d − 2u))`: every partial sum
    /// is a small multiple of 1/4 (α = 0.75), exact in `f32` in any order
    /// and never zero, and the bit flips where `u ≥ ⌈d/2⌉ + 1`.
    ///
    /// Computes, `L`'s width of bits at a time, the block rows' syndromes
    /// `s_r`, the unsatisfied counts (as thermometer planes `[u ≥ j]`,
    /// `j = 1..=d`: row `r`'s check meeting variable `v` through `Q(s)` is
    /// check `(v − s) mod t`, so the column's indicator is `s_r` rotated
    /// right by `s`) and the new hard word. Returns the outcome when the
    /// decode ends here: `received` is a codeword (zero iterations),
    /// iteration 1 converges, or the cap is 1. Otherwise leaves `s_r` in
    /// `scratch.rows` and the counts in `scratch.counts`, both doubled,
    /// for [`MinSumDecoder::packed_iteration_2`].
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set `L` is built on.
    #[inline(always)]
    unsafe fn bit_iteration<L: Lanes>(&self, scratch: &mut Scratch) -> Option<DecodeOutcome> {
        let g = &self.graph;
        let (t, tw, ds) = (g.t, g.t / 64, g.ds);
        let (pw, step) = (ds - tw, L::WIDTH / 2);
        scratch.check_planes(g, step);
        let Scratch {
            received,
            word,
            rows,
            counts,
            syn,
            ..
        } = scratch;
        let (received_at, rows_at) = (Planes::of(received), Planes::of(rows));
        let (word_at, counts_at) = (Planes::of(word), Planes::of(counts));
        // SAFETY: lane operations need `L`'s instruction set, this
        // function's own precondition; every plane addressed lies inside
        // its buffer (`Scratch::check_planes`).
        unsafe {
            for (r, row) in g.block_rows.iter().enumerate() {
                let s = rows_at.at(r * ds);
                for w in (0..pw).step_by(step) {
                    let mut syndrome = L::splat(0.0);
                    for &(col, shift) in row {
                        syndrome = syndrome.xor(received_at.at(col * ds).rotated(shift, w));
                    }
                    s.put(w, syndrome);
                }
                s.double(tw);
            }
            let clear = |r: usize| (0..tw).all(|w| rows_at.at(r * ds).word(w) == 0);
            if (0..g.block_rows.len()).all(clear) {
                return Some(self.outcome(true, 0, received));
            }

            for (j, blocks) in g.block_cols.iter().enumerate() {
                let d = blocks.len();
                let (planes, hard) = (counts_at.at(j * MAX_DEGREE * ds), word_at.at(j * ds));
                let flip_at = d.div_ceil(2) + 1;
                for w in (0..pw).step_by(step) {
                    // `at_least[p]` = `[u ≥ p + 1]`.
                    let mut at_least = [L::splat(0.0); MAX_DEGREE];
                    for (b, &(r, shift, _)) in blocks.iter().enumerate() {
                        let x = rows_at.at(r * ds).rotated(back(shift, t), w);
                        // One more unsatisfied check moves each count up a
                        // plane: `[u ≥ p + 1] |= [u ≥ p] & x`, top first.
                        for p in (1..MAX_DEGREE).rev() {
                            if p <= b {
                                at_least[p] = at_least[p].or(at_least[p - 1].and(x));
                            }
                        }
                        at_least[0] = at_least[0].or(x);
                    }
                    let mut bits: L = received_at.at(j * ds).get(w);
                    for (p, &plane) in at_least.iter().enumerate() {
                        if p < d {
                            planes.at(p * ds).put(w, plane);
                        }
                        if p + 1 == flip_at {
                            bits = bits.xor(plane);
                        }
                    }
                    hard.put(w, bits);
                }
                for p in 0..d {
                    planes.at(p * ds).double(tw);
                }
                hard.double(tw);
            }
        }
        let success = g.syndrome_clear_words(word, syn);
        (success || self.max_iterations == 1).then(|| self.outcome(success, 1, word))
    }

    /// Iteration 2 of a hard-decision decode, on packed words, from the
    /// row syndromes `s_r` and unsatisfied counts `u` that
    /// [`MinSumDecoder::bit_iteration`] left.
    ///
    /// Iteration 1 left variable `v` (degree `d`, received bit `r`) the
    /// total `(−1)^r · (1 + α(d − 2u))` and check `c` the message
    /// `α·(−1)^(s_c ⊕ r)`, so its iteration-2 `v2c` is `(−1)^r · (1 + α·k)`
    /// with `k = d − 1 − 2q` and `q = u − s_c`: a magnitude class fixed by
    /// `(d, q)` ([`CLASS_OF`]), a sign `r ⊕ [1 + α·k < 0]`. Everything
    /// below is bit-sliced, `L`'s width of checks or variables at a time.
    ///
    /// * Per block row, pass 1 rotates each block's count planes and
    ///   received bits into check order ([`edge_classes`]) and keeps each
    ///   check's sign parity and the classes of its two smallest
    ///   magnitudes (min1: at most class `i` where any edge is; min2:
    ///   where two edges are), then turns min1 and min2 into message
    ///   values in units of `α/4` ([`QUARTERS`]).
    /// * Pass 2 picks each edge's output the way the float sweep's
    ///   `pick_eq` does: the edge at min1 takes min2 (its `second` bit),
    ///   every other one min1 — exact, a class being one magnitude — with
    ///   the sign of the parity XOR the edge's own (its `neg` bit), and
    ///   keeps the signed value's planes per block.
    /// * Per block column, each variable's running sum starts at
    ///   [`START`] and gets its blocks' values rotated into variable order
    ///   added, two's complement, in registers. Its sign is the sign of the
    ///   float total `(3·sum + 1 + r) / 16`: the float iteration's hard
    ///   decision.
    ///
    /// Returns the outcome when the decode ends here (iteration 2
    /// converges, or the cap is 2). Otherwise writes the float state the
    /// sweep starts iteration 3 from — the ±1 LLRs, the totals (exact, see
    /// [`expand_total`]) and the messages ([`seed_iteration_3`]) — and
    /// returns `None`.
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set `L` is built on.
    #[inline(always)]
    unsafe fn packed_iteration_2<L: Lanes>(&self, scratch: &mut Scratch) -> Option<DecodeOutcome> {
        let g = &self.graph;
        let (t, tw, ds) = (g.t, g.t / 64, g.ds);
        let (pw, step) = (ds - tw, L::WIDTH / 2);
        scratch.check_planes(g, step);
        let Scratch {
            llr,
            totals: [cur, _],
            c2v,
            syn,
            received,
            word,
            rows,
            counts,
            edges,
            mins,
            messages,
            picks,
            sums,
            outs,
            ..
        } = scratch;
        let (received_at, rows_at, counts_at) =
            (Planes::of(received), Planes::of(rows), Planes::of(counts));
        let (edges_at, mins_at, messages_at) =
            (Planes::of(edges), Planes::of(mins), Planes::of(messages));
        let (picks_at, sums_at, word_at) = (Planes::of(picks), Planes::of(sums), Planes::of(word));
        let message_words = (VALUE_BITS + 1) * ds;
        // SAFETY: lane operations need `L`'s instruction set, this
        // function's own precondition; every plane addressed lies inside
        // its buffer (`Scratch::check_planes`).
        unsafe {
            let (zero, all) = (L::splat(0.0), L::splat(f32::from_bits(!0)));
            let mut first_block = 0;
            for (r, row) in g.block_rows.iter().enumerate() {
                let (s, row_mins) = (rows_at.at(r * ds), mins_at.at(r * 2 * PLANES * pw));
                let (row_picks, row_messages) = (
                    picks_at.at(first_block * 2 * pw),
                    messages_at.at(first_block * message_words),
                );
                first_block += row.len();
                for w in (0..pw).step_by(step) {
                    let s: L = s.get(w);
                    let (mut ones, mut twos, mut parity) = ([zero; PLANES], [zero; PLANES], zero);

                    // Pass 1: each edge's class planes and sign; the class
                    // planes of min1 (`ones`) and min2 (`twos`) and the sign
                    // parity of every check.
                    for (b, &(col, shift)) in row.iter().enumerate() {
                        let at = (counts_at.at(col * MAX_DEGREE * ds), ds, shift, w, s);
                        let (at_most, flips) = match g.block_cols[col].len() {
                            1 => edge_classes::<L, 1>(at),
                            2 => edge_classes::<L, 2>(at),
                            3 => edge_classes::<L, 3>(at),
                            _ => edge_classes::<L, 4>(at),
                        };
                        let edge = edges_at.at(b * (PLANES + 1) * pw);
                        for (i, &l) in at_most.iter().enumerate() {
                            twos[i] = twos[i].or(ones[i].and(l));
                            ones[i] = ones[i].or(l);
                            edge.at(i * pw).put(w, l);
                        }
                        let sign = received_at.at(col * ds).rotated::<L>(shift, w).xor(flips);
                        edge.at(PLANES * pw).put(w, sign);
                        parity = parity.xor(sign);
                    }
                    for (i, (&one, &two)) in ones.iter().zip(&twos).enumerate() {
                        row_mins.at(i * pw).put(w, one);
                        row_mins.at((PLANES + i) * pw).put(w, two);
                    }
                    let (min1, min2) = (values(&ones, zero, all), values(&twos, zero, all));

                    // Pass 2: the edge takes min2 unless its magnitude is
                    // above min1's, i.e. above some class min1 is at most.
                    for b in 0..row.len() {
                        let edge = edges_at.at(b * (PLANES + 1) * pw);
                        let mut takes = all;
                        for (i, &one) in ones.iter().enumerate() {
                            takes = takes.and(edge.at(i * pw).get::<L>(w).or(one.xor(all)));
                        }
                        let neg = edge.at(PLANES * pw).get::<L>(w).xor(parity);
                        let pick = row_picks.at(b * 2 * pw);
                        pick.put(w, takes);
                        pick.at(pw).put(w, neg);
                        // The message's value bits, then its sign.
                        let message = row_messages.at(b * message_words);
                        for (j, (&one, &two)) in min1.iter().zip(&min2).enumerate() {
                            message
                                .at(j * ds)
                                .put(w, one.and_not(takes).or(two.and(takes)));
                        }
                        message.at(VALUE_BITS * ds).put(w, neg);
                    }
                }
                for b in 0..row.len() {
                    for j in 0..=VALUE_BITS {
                        row_messages.at(b * message_words + j * ds).double(tw);
                    }
                }
            }

            // Per block column, the running sums: from `START`, each block's
            // values in variable order added as `(value ⊕ sign) + sign`.
            let start =
                START.map(|start| std::array::from_fn::<_, SUM_BITS, _>(|j| start >> j & 1 == 1));
            for (j, blocks) in g.block_cols.iter().enumerate() {
                let (hard, sum_planes) = (word_at.at(j * ds), sums_at.at(j * SUM_BITS * pw));
                for w in (0..pw).step_by(step) {
                    let r: L = received_at.at(j * ds).get(w);
                    let mut sum = [zero; SUM_BITS];
                    for (bit, sum) in sum.iter_mut().enumerate() {
                        *sum = match (start[0][bit], start[1][bit]) {
                            (true, true) => all,
                            (true, false) => r.xor(all),
                            (false, true) => r,
                            (false, false) => zero,
                        };
                    }
                    for &(_, shift, block) in blocks {
                        let (message, back) =
                            (messages_at.at(block * message_words), back(shift, t));
                        let sign = message.at(VALUE_BITS * ds).rotated::<L>(back, w);
                        let mut carry = sign;
                        for (bit, a) in sum.iter_mut().enumerate() {
                            let x = if bit < VALUE_BITS {
                                message.at(bit * ds).rotated::<L>(back, w).xor(sign)
                            } else {
                                sign
                            };
                            let old = *a;
                            *a = old.xor(x).xor(carry);
                            carry = old.and(x).or(carry.and(old.or(x)));
                        }
                    }
                    for (bit, &plane) in sum.iter().enumerate() {
                        sum_planes.at(bit * pw).put(w, plane);
                    }
                    hard.put(w, sum[SUM_BITS - 1]);
                }
                hard.double(tw);
            }
        }
        let success = g.syndrome_clear_words(word, syn);
        if success || self.max_iterations == 2 {
            return Some(self.outcome(success, 2, word));
        }
        // SAFETY: `L`'s instruction set is this function's own
        // precondition.
        unsafe {
            let segments = llr.as_mut_slice().chunks_exact_mut(t + PAD);
            for (segment, received) in segments.zip(received.chunks_exact(ds)) {
                write_signs::<L>(&received[..tw], 1.0, &mut segment[..t]);
            }
            let segments = cur.as_mut_slice().chunks_exact_mut(t + PAD);
            let columns = sums
                .chunks_exact(SUM_BITS * pw)
                .zip(received.chunks_exact(ds));
            for (segment, (column, received)) in segments.zip(columns) {
                expand_total::<L>(column, received, &mut segment[..t]);
            }
            seed_iteration_3::<L>(g, mins, picks, outs.as_mut_slice(), c2v.as_mut_slice());
        }
        None
    }

    /// [`MinSumDecoder::iterate`] on AVX-512 lanes, compiled with
    /// AVX-512F.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn iterate_avx512(
        &self,
        scratch: &mut Scratch,
        hard: &[u64],
        soft: Option<&[f32]>,
    ) -> DecodeOutcome {
        // SAFETY: AVX-512F is the caller's guarantee.
        unsafe { self.iterate::<crate::lanes::Avx512>(scratch, hard, soft) }
    }

    /// [`MinSumDecoder::iterate`] on AVX2 lanes, compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn iterate_avx2(
        &self,
        scratch: &mut Scratch,
        hard: &[u64],
        soft: Option<&[f32]>,
    ) -> DecodeOutcome {
        // SAFETY: AVX2 is the caller's guarantee.
        unsafe { self.iterate::<crate::lanes::Avx2>(scratch, hard, soft) }
    }

    /// The decode in a fitted scratch: [`MinSumDecoder::start`], then
    /// flooding iterations from the first float one, until the hard
    /// decision is a codeword or the cap is reached.
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set `L` is built on.
    #[inline(always)]
    unsafe fn iterate<L: Lanes>(
        &self,
        scratch: &mut Scratch,
        hard: &[u64],
        soft: Option<&[f32]>,
    ) -> DecodeOutcome {
        let g = &self.graph;
        // SAFETY: `L`'s instruction set is this function's own
        // precondition.
        if let Some(outcome) = unsafe { self.start::<L>(scratch, hard, soft) } {
            return outcome;
        }
        let first = if soft.is_some() { 1 } else { 3 };
        let Scratch {
            llr,
            totals: [cur, next],
            c2v,
            v2c,
            syn,
            word,
            ..
        } = scratch;
        let (llr, c2v, v2c) = (llr.as_slice(), c2v.as_mut_slice(), v2c.as_mut_slice());
        let (mut cur, mut next) = (cur.as_mut_slice(), next.as_mut_slice());

        for iter in first..=self.max_iterations {
            // The first totals are the channel LLRs themselves.
            let totals = if iter == 1 { llr } else { &*cur };
            // SAFETY (both calls): `L`'s instruction set is this
            // function's own precondition.
            unsafe {
                sweep::<L>(g, self.alpha, llr, totals, next, c2v, v2c);
                pack_signs::<L>(next, g.t, g.t + PAD, word);
            }
            if g.syndrome_clear_words(word, syn) {
                return self.outcome(true, iter, word);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        self.outcome(false, self.max_iterations, word)
    }

    /// Straightforward per-edge implementation kept as the correctness
    /// reference for [`MinSumDecoder::decode_llr`]: it builds the graph's
    /// per-edge lists for the call, each `v2c` message is recomputed in
    /// the output scan and the convergence test walks the edges one
    /// `BitVec::get` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `llr` is not codeword-length or holds a non-finite value,
    /// as [`MinSumDecoder::decode_llr`] does.
    pub fn decode_llr_reference(&self, llr: &[f32]) -> DecodeOutcome {
        let n = self.graph.n;
        assert_llrs(llr, n);
        let csr = Csr::build(&self.graph);

        let mut hard = BitVec::zeros(n);
        for (v, &l) in llr.iter().enumerate() {
            hard.set(v, l < 0.0);
        }
        if csr.syndrome_clear(&hard) {
            return DecodeOutcome {
                success: true,
                iterations: 0,
                decoded: hard,
            };
        }

        let edges = csr.chk_vars.len();
        let mut c2v = vec![0.0f32; edges];
        let mut total = llr.to_vec();

        for iter in 1..=self.max_iterations {
            // Check-node update using the two-minimum trick.
            for c in csr.chk_ptr.windows(2) {
                let (lo, hi) = (c[0] as usize, c[1] as usize);
                let mut sign_prod = 1.0f32;
                let mut min1 = f32::INFINITY;
                let mut min2 = f32::INFINITY;
                let mut min1_edge = lo;
                for e in lo..hi {
                    let v2c = total[csr.chk_vars[e] as usize] - c2v[e];
                    let mag = v2c.abs();
                    if v2c < 0.0 {
                        sign_prod = -sign_prod;
                    }
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min1_edge = e;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for e in lo..hi {
                    let v2c = total[csr.chk_vars[e] as usize] - c2v[e];
                    let sign_self = if v2c < 0.0 { -1.0 } else { 1.0 };
                    let mag = if e == min1_edge { min2 } else { min1 };
                    c2v[e] = self.alpha * sign_prod * sign_self * mag;
                }
            }

            // Variable-node totals and hard decision.
            for v in 0..n {
                let mut sum = llr[v];
                for idx in csr.var_ptr[v]..csr.var_ptr[v + 1] {
                    sum += c2v[csr.var_edges[idx as usize] as usize];
                }
                total[v] = sum;
                hard.set(v, sum < 0.0);
            }

            if csr.syndrome_clear(&hard) {
                return DecodeOutcome {
                    success: true,
                    iterations: iter,
                    decoded: hard,
                };
            }
        }

        DecodeOutcome {
            success: false,
            iterations: self.max_iterations,
            decoded: hard,
        }
    }
}

/// The soft-input entry points' precondition: `n` finite LLRs.
fn assert_llrs(llr: &[f32], n: usize) {
    assert_eq!(llr.len(), n, "LLR vector length mismatch");
    assert!(llr.iter().all(|l| l.is_finite()), "LLRs must be finite");
}

/// Buffers of the fused kernel, kept per thread and reused across decodes
/// (allocating them per codeword cost a page fault per 4 KiB touched).
/// Nothing in them carries over from one decode to the next. Word-packed
/// segments marked doubled hold each segment's `t/64` words twice in a
/// row, so that any rotation of one is a contiguous run.
#[derive(Default)]
struct Scratch {
    /// Channel LLRs in the padded totals layout.
    llr: Lines,
    /// Variable totals of the previous and of the running iteration.
    totals: [Lines; 2],
    /// Check-to-variable messages, one padded slab per block.
    c2v: Lines,
    /// One chunk of `v2c` per block of the widest block row (sized for
    /// the widest chunk).
    v2c: Lines,
    /// Accumulator of the rotate-XOR syndrome check.
    syn: Vec<u64>,
    /// A received word, doubled.
    received: Vec<u64>,
    /// The running hard decision, doubled.
    word: Vec<u64>,
    /// The block rows' syndromes of a received word, doubled.
    rows: Vec<u64>,
    /// Every variable's unsatisfied-check count as thermometer planes:
    /// per block column, `MAX_DEGREE` doubled planes, plane `p` holding
    /// `[u ≥ p + 1]` (the first `d` meaningful for a column of degree `d`).
    counts: Vec<u64>,
    /// Per block of the widest block row, iteration 2's class planes and
    /// `v2c` sign of every edge. Planes not doubled are `ds − t/64` words:
    /// `t/64` padded to whole groups.
    edges: Vec<u64>,
    /// Per block row, iteration 2's class planes of min1, then of min2.
    mins: Vec<u64>,
    /// Per block, iteration 2's message value bit planes, then the
    /// sign's, each doubled.
    messages: Vec<u64>,
    /// Per block, iteration 2's `second` (takes min2) and `neg` (negative
    /// message) planes.
    picks: Vec<u64>,
    /// Per block column, iteration 2's running sums ([`START`]), two's
    /// complement, sign plane last.
    sums: Vec<u64>,
    /// One block row's `α·min1` and `α·min2` of every check (`2t` floats),
    /// for seeding iteration 3.
    outs: Lines,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

impl Scratch {
    /// Checks, once per decode, that every bit plane the packed iterations
    /// address through [`Planes`] lies inside its buffer: `step`-word
    /// lane vectors tile a padded plane, a rotation's run of `step + 1`
    /// words from word `shift / 64 + w` stays inside its doubled segment,
    /// and each buffer holds what `fit` sized it for.
    fn check_planes(&self, g: &Graph, step: usize) {
        let (t, tw, ds) = (g.t, g.t / 64, g.ds);
        let pw = ds - tw;
        let segments = g.n / t;
        let blocks: usize = g.block_rows.iter().map(Vec::len).sum();
        let widest = g.block_rows.iter().map(Vec::len).max().unwrap_or(0);
        assert!(pw.is_multiple_of(step) && pw >= tw && ds == doubled_stride(tw));
        assert!(g
            .block_rows
            .iter()
            .flatten()
            .all(|&(col, shift)| col < segments && shift < t));
        assert!(
            self.received.len() >= segments * ds
                && self.word.len() >= segments * ds
                && self.rows.len() >= g.block_rows.len() * ds
                && self.counts.len() >= segments * MAX_DEGREE * ds
                && self.edges.len() >= widest * (PLANES + 1) * pw
                && self.mins.len() >= g.block_rows.len() * 2 * PLANES * pw
                && self.messages.len() >= blocks * (VALUE_BITS + 1) * ds
                && self.picks.len() >= blocks * 2 * pw
                && self.sums.len() >= segments * SUM_BITS * pw
        );
    }

    /// Sizes every buffer for `g`; a no-op while one thread keeps decoding
    /// the same code, a resize when decoders of different codes interleave.
    fn fit(&mut self, g: &Graph) {
        let (t, tw) = (g.t, g.t / 64);
        let stride = t + PAD;
        let blocks: usize = g.plan_rows.iter().map(Vec::len).sum();
        let widest = g.plan_rows.iter().map(Vec::len).max().unwrap_or(0);
        let segments = g.n / t;
        self.llr.resize(segments * stride);
        for totals in &mut self.totals {
            totals.resize(segments * stride);
        }
        self.c2v.resize(blocks * stride);
        self.v2c.resize(widest * MAX_CHUNK);
        self.syn.resize(tw, 0);
        let (ds, pw) = (g.ds, g.ds - tw);
        self.received.resize(segments * ds, 0);
        self.word.resize(segments * ds, 0);
        self.rows.resize(g.block_rows.len() * ds, 0);
        self.counts.resize(segments * MAX_DEGREE * ds, 0);
        self.edges.resize(widest * (PLANES + 1) * pw, 0);
        self.mins.resize(g.block_rows.len() * 2 * PLANES * pw, 0);
        self.messages.resize(blocks * (VALUE_BITS + 1) * ds, 0);
        self.picks.resize(blocks * 2 * pw, 0);
        self.sums.resize(segments * SUM_BITS * pw, 0);
        self.outs.resize(2 * t);
    }
}

/// A float buffer of whole cache lines starting on a line boundary, so
/// that a message or `v2c` chunk (which starts a multiple of 16 floats
/// in) never splits a line: one AVX-512 load is one line.
#[derive(Default)]
struct Lines(Vec<Line>);

#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
struct Line([f32; 16]);

impl Lines {
    /// Resizes to `len` floats, a multiple of 16.
    fn resize(&mut self, len: usize) {
        assert!(len.is_multiple_of(16));
        self.0.resize(len / 16, Line::default());
    }

    fn as_slice(&self) -> &[f32] {
        // SAFETY: a `Line` is 16 floats with no padding.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), self.0.len() * 16) }
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`, through a unique borrow.
        unsafe { std::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), self.0.len() * 16) }
    }
}

/// Pointer to `s[at]`, the start of a run of `len` floats.
///
/// # Safety
///
/// `at + len <= s.len()`; the bound is checked in debug builds only.
#[inline(always)]
unsafe fn run_at(s: &[f32], at: usize, len: usize) -> *const f32 {
    debug_assert!(at + len <= s.len());
    // SAFETY: in bounds by the caller's guarantee.
    unsafe { s.as_ptr().add(at) }
}

/// Mutable twin of [`run_at`].
///
/// # Safety
///
/// `at + len <= s.len()`.
#[inline(always)]
unsafe fn run_at_mut(s: &mut [f32], at: usize, len: usize) -> *mut f32 {
    debug_assert!(at + len <= s.len());
    // SAFETY: as in `run_at`, through a unique borrow.
    unsafe { s.as_mut_ptr().add(at) }
}

/// The left rotation undoing one by `shift < t`: `(t − shift) mod t`
/// (circulant `Q(s)` read backwards, from variables to checks).
#[inline(always)]
fn back(shift: usize, t: usize) -> usize {
    if shift == 0 {
        0
    } else {
        t - shift
    }
}

/// Position in its column segment of the variable check `k` reaches
/// through circulant `Q(shift)`: `(k + shift) mod t`, both below `t`.
#[inline(always)]
fn rotated(k: usize, shift: usize, t: usize) -> usize {
    let at = k + shift;
    if at >= t {
        at - t
    } else {
        at
    }
}

/// The lane masks of a lane vector at position `p` of a cyclic segment of
/// `t ≥ WIDTH` floats (`p < t + WIDTH`): the lanes before the segment's
/// end, and those past it, which read from its start.
#[inline(always)]
fn cyclic_masks<L: Lanes>(t: usize, p: usize) -> (u32, u32) {
    let all = (1u32 << L::WIDTH) - 1;
    let head = (1u32 << t.saturating_sub(p).min(L::WIDTH)) - 1;
    (head, all & !head)
}

/// Lanes `p, p + 1, …` of the cyclic segment of `t` floats at `seg`
/// (`p < t + WIDTH`): lane `i` is `seg[(p + i) mod t]`. Two masked loads,
/// the run before the segment's end and the run from its start.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set, and `seg` must point to
/// `t ≥ WIDTH` readable floats.
#[inline(always)]
unsafe fn load_cyclic<L: Lanes>(seg: *const f32, t: usize, p: usize) -> L {
    let (head, tail) = cyclic_masks::<L>(t, p);
    let at = seg.wrapping_add(p);
    // SAFETY: the selected lanes of either load are inside the segment;
    // the unselected ones read as `+0.0`, the XOR identity.
    unsafe { L::load_masked(at, head).xor(L::load_masked(at.wrapping_sub(t), tail)) }
}

/// Writes `x` to lanes `p, p + 1, …` of the cyclic segment of `t` floats
/// at `seg` as [`load_cyclic`] reads them: two masked stores.
///
/// # Safety
///
/// As for [`load_cyclic`], with the floats writable.
#[inline(always)]
unsafe fn store_cyclic<L: Lanes>(x: L, seg: *mut f32, t: usize, p: usize) {
    let (head, tail) = cyclic_masks::<L>(t, p);
    let at = seg.wrapping_add(p);
    // SAFETY: the selected lanes of either store are inside the segment.
    unsafe {
        x.store_masked(at, head);
        x.store_masked(at.wrapping_sub(t), tail);
    }
}

/// Word-packed bit planes inside a scratch buffer, read and written
/// `L`'s width (`WIDTH / 2` words) at a time without bounds checks: every
/// caller checks, once per decode, that the planes it addresses lie inside
/// their buffers (`Scratch::check_planes`), as the float sweep does.
#[derive(Clone, Copy)]
struct Planes(*mut u64);

impl Planes {
    fn of(buffer: &mut [u64]) -> Planes {
        Planes(buffer.as_mut_ptr())
    }

    /// The plane `words` words further on.
    ///
    /// # Safety
    ///
    /// Inside the buffer.
    #[inline(always)]
    unsafe fn at(self, words: usize) -> Planes {
        // SAFETY: the caller's guarantee.
        Planes(unsafe { self.0.add(words) })
    }

    /// Word `w`.
    ///
    /// # Safety
    ///
    /// Inside the buffer.
    #[inline(always)]
    unsafe fn word(self, w: usize) -> u64 {
        // SAFETY: the caller's guarantee.
        unsafe { self.0.add(w).read() }
    }

    /// Words `w..w + WIDTH/2` as lanes.
    ///
    /// # Safety
    ///
    /// Inside the buffer; the CPU must support `L`'s instruction set.
    #[inline(always)]
    unsafe fn get<L: Lanes>(self, w: usize) -> L {
        // SAFETY: the caller's guarantee.
        unsafe { L::load(self.0.add(w).cast()) }
    }

    /// Writes `x` over words `w..w + WIDTH/2`.
    ///
    /// # Safety
    ///
    /// As for [`Planes::get`].
    #[inline(always)]
    unsafe fn put<L: Lanes>(self, w: usize, x: L) {
        // SAFETY: the caller's guarantee.
        unsafe { x.store(self.0.add(w).cast()) }
    }

    /// Words `w..w + WIDTH/2` of the segment rotated left by `shift < t`
    /// bits, this plane being the segment doubled: one contiguous run of
    /// `WIDTH/2 + 1` words from word `shift / 64 + w`, shifted.
    ///
    /// # Safety
    ///
    /// As for [`Planes::get`], for the run.
    #[inline(always)]
    unsafe fn rotated<L: Lanes>(self, shift: usize, w: usize) -> L {
        // SAFETY: the caller's guarantee.
        unsafe { L::load_shifted(self.0.add(shift / 64 + w), (shift % 64) as u32) }
    }

    /// Completes a doubled segment whose first `tw` words are written:
    /// copies them, [`GROUP`] words at a time, to follow themselves. The
    /// last group's words past `tw` land past `2·tw`, in the padding.
    ///
    /// # Safety
    ///
    /// The segment's [`doubled_stride`] words are inside the buffer.
    #[inline(always)]
    unsafe fn double(self, tw: usize) {
        for k in (0..tw).step_by(GROUP) {
            // SAFETY: `k + GROUP ≤ tw + GROUP ≤ doubled_stride(tw)` and
            // `tw + k + GROUP ≤ doubled_stride(tw)`.
            unsafe {
                let group = self.0.add(k).cast::<[u64; GROUP]>().read_unaligned();
                self.0
                    .add(tw + k)
                    .cast::<[u64; GROUP]>()
                    .write_unaligned(group);
            }
        }
    }
}

/// Iteration 2's class planes ("at most class `i`") and `v2c` sign flips
/// of the edges from a degree-`D` block column into `L`'s width of
/// checks, at word `w`: from the column's count planes (`[u ≥ j + 1]`,
/// doubled, `ds` words apart) rotated by the block's `shift` into check
/// order, and the checks' syndrome bits `s`. The edge carrying `q = u − s`
/// other unsatisfied checks has `k = D − 1 − 2q`, class `CLASS_OF[k + 3]`,
/// and a flipped sign where `1 + α·k < 0`, i.e. `k ≤ −2`. With `D` a
/// constant the class tests fold away, leaving a few bitwise operations.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set, and the `D` doubled count
/// planes must lie inside their buffer.
#[inline(always)]
unsafe fn edge_classes<L: Lanes, const D: usize>(
    (counts, ds, shift, w, s): (Planes, usize, usize, usize, L),
) -> ([L; PLANES], L) {
    // SAFETY: lane operations need `L`'s instruction set, and the planes
    // lie inside their buffer: the caller's guarantees.
    unsafe {
        let zero = L::splat(0.0);
        // `at_least[j]` = `[u − s ≥ j]`: `[u ≥ j]` where `s` is clear,
        // `[u ≥ j + 1]` where it is set; `[u − s ≥ D]` is empty.
        let mut at_least = [zero; MAX_DEGREE + 1];
        at_least[0] = L::splat(f32::from_bits(!0));
        let mut below = counts.rotated::<L>(shift, w);
        // An index loop: the iterator chain clippy suggests is compiled as
        // an out-of-line call, with every lane register spilled around it.
        #[allow(clippy::needless_range_loop)]
        for j in 1..D {
            let above = counts.at(j * ds).rotated::<L>(shift, w);
            at_least[j] = below.and_not(s).or(above.and(s));
            below = above;
        }
        let (mut at_most, mut flips) = ([zero; PLANES], zero);
        for q in 0..D {
            let exactly = at_least[q].and_not(at_least[q + 1]);
            let k = D + 2 - 2 * q;
            for (class, plane) in at_most.iter_mut().enumerate() {
                if CLASS_OF[k] <= class {
                    *plane = plane.or(exactly);
                }
            }
            if k <= 1 {
                flips = flips.or(exactly);
            }
        }
        (at_most, flips)
    }
}

/// The message values (in units of `α/4`, [`VALUE_BITS`] planes) of
/// checks whose magnitude's class planes are `at_most`: from the largest
/// class down, each class plane set overrides, so the least class a check
/// is at most wins.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn values<L: Lanes>(at_most: &[L; PLANES], zero: L, all: L) -> [L; VALUE_BITS] {
    let bit = |unit: u32, j: usize| if unit >> j & 1 == 1 { all } else { zero };
    let mut value = [zero; VALUE_BITS];
    for (j, v) in value.iter_mut().enumerate() {
        *v = bit(QUARTERS[PLANES], j);
    }
    for (&l, &unit) in at_most.iter().zip(&QUARTERS).rev() {
        for (j, v) in value.iter_mut().enumerate() {
            // SAFETY: lane operations need `L`'s instruction set, the
            // caller's guarantee.
            *v = unsafe { v.and_not(l).or(l.and(bit(unit, j))) };
        }
    }
    value
}

/// Writes the 64 floats of one word of bits, a lane vector at a time:
/// `lanes(bits)` gives the vector for bit lanes `bits` (the word shifted
/// down to the vector's first lane).
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn write_word<L: Lanes>(out: &mut [f32], lanes: impl Fn(usize) -> L) {
    for (h, run) in out[..64].chunks_exact_mut(L::WIDTH).enumerate() {
        // SAFETY: `run` holds `WIDTH` floats; the instruction set is the
        // caller's guarantee.
        unsafe { lanes(h * L::WIDTH).store(run.as_mut_ptr()) };
    }
}

/// Writes every check's message magnitude `α·MAGNITUDES[class]` (the
/// float sweep's `α·min`, the same `f32` product) into `out` (`t` floats)
/// from its class planes (`pw` words apart). From the largest class down,
/// each plane set overrides, so the least class a check is at most wins.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn expand_classes<L: Lanes>(at_most: &[u64], pw: usize, out: &mut [f32]) {
    for (w, out) in out.chunks_exact_mut(64).enumerate() {
        let planes: [u64; PLANES] = std::array::from_fn(|class| at_most[class * pw + w]);
        // SAFETY: lane operations need `L`'s instruction set, the caller's
        // guarantee.
        unsafe {
            write_word::<L>(out, |lane| {
                let mut mag = L::splat(ALPHA * MAGNITUDES[PLANES]);
                for (&plane, &m) in planes.iter().zip(&MAGNITUDES).rev() {
                    mag = L::select((plane >> lane) as u32, L::splat(ALPHA * m), mag);
                }
                mag
            });
        }
    }
}

/// Writes the iteration-2 totals of one block column as floats into `out`
/// (`t` floats), from its running sums (bit-sliced, [`SUM_BITS`] planes
/// `pw` words apart) and received bits: the [`WEIGHTS`] of each sum's bits
/// set plus `(1 + r) / 16`. Every partial sum is a multiple of 1/16 far
/// below 2^24, so each float is the total exactly.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn expand_total<L: Lanes>(column: &[u64], received: &[u64], out: &mut [f32]) {
    let pw = column.len() / SUM_BITS;
    for (w, out) in out.chunks_exact_mut(64).enumerate() {
        let bits: [u64; SUM_BITS] = std::array::from_fn(|j| column[j * pw + w]);
        let r = received[w];
        // SAFETY: lane operations need `L`'s instruction set, the caller's
        // guarantee.
        unsafe {
            write_word::<L>(out, |lane| {
                let (one, two, zero) = (L::splat(1.0 / 16.0), L::splat(2.0 / 16.0), L::splat(0.0));
                let mut total = L::select((r >> lane) as u32, two, one);
                for (&bits, &weight) in bits.iter().zip(&WEIGHTS) {
                    total = total.add(L::select((bits >> lane) as u32, L::splat(weight), zero));
                }
                total
            });
        }
    }
}

/// Writes iteration 2 of a hard-decision decode, run on packed words by
/// [`MinSumDecoder::packed_iteration_2`], into the float kernel's message
/// slabs: the message of check `c` through a block is its row's `α·min2`
/// or `α·min1` by the block's `second` bit, negative by its `neg` bit,
/// the float sweep's value bit for bit. `mins` holds each
/// block row's class planes of min1 and of min2, `picks` each block's two
/// planes (all planes `pw` words); `outs` is `2t` floats of scratch.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn seed_iteration_3<L: Lanes>(
    g: &Graph,
    mins: &[u64],
    picks: &[u64],
    outs: &mut [f32],
    c2v: &mut [f32],
) {
    let t = g.t;
    let pw = g.ds - t / 64;
    let (out1, out2) = outs.split_at_mut(t);
    // SAFETY: lane operations need `L`'s instruction set, the caller's
    // guarantee.
    let minus = unsafe { L::splat(-0.0) };
    let mut block_picks = picks.chunks_exact(2 * pw);
    for (plan, row_mins) in g.plan_rows.iter().zip(mins.chunks_exact(2 * PLANES * pw)) {
        let (min1, min2) = row_mins.split_at(PLANES * pw);
        // SAFETY (every call): `L`'s instruction set is the caller's
        // guarantee; every store goes to a `WIDTH`-float chunk.
        unsafe {
            expand_classes::<L>(min1, pw, out1);
            expand_classes::<L>(min2, pw, out2);
        }
        for (block, pick) in plan.iter().zip(&mut block_picks) {
            let (second, neg) = pick.split_at(pw);
            let slab = c2v[block.msg..][..t].chunks_exact_mut(64);
            let runs = out1.chunks_exact(64).zip(out2.chunks_exact(64));
            for (w, (slab, (out1, out2))) in slab.zip(runs).enumerate() {
                let (second, neg) = (second[w], neg[w]);
                // SAFETY: as above; `lane + WIDTH ≤ 64` floats of each run.
                unsafe {
                    write_word::<L>(slab, |lane| {
                        let min1 = L::load(out1[lane..][..L::WIDTH].as_ptr());
                        let min2 = L::load(out2[lane..][..L::WIDTH].as_ptr());
                        let m = L::select((second >> lane) as u32, min2, min1);
                        L::select((neg >> lane) as u32, m.xor(minus), m)
                    });
                }
            }
        }
    }
}

/// The check-node update of one flooding iteration, fused with the
/// variable-node accumulation: reads the totals `cur` and the messages
/// `c2v`, writes every new message and the next totals `next` — `llr`
/// plus the column's messages in row order. `v2c` holds one chunk per
/// block of a row between the two passes.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn sweep<L: Lanes>(
    g: &Graph,
    alpha: f32,
    llr: &[f32],
    cur: &[f32],
    next: &mut [f32],
    c2v: &mut [f32],
    v2c: &mut [f32],
) {
    let t = g.t;
    let width = L::WIDTH;
    let chunk = 2 * width;
    // Chunk accesses in the loops are unchecked (bounds-checked they read
    // 101 µs per iteration on the paper code against 91); every index is
    // covered here, once per sweep. Chunk starts are `k0 ≤ t − chunk`, so:
    // a message chunk ends by `msg + t`; a totals chunk taken when
    // `at + chunk ≤ t` ends by `col_base + t`, and a wrapped one reads
    // only inside `col_base..col_base + t`; block `b` of a row owns
    // `v2c[b * chunk..][..chunk]`.
    assert!(
        t.is_multiple_of(chunk) && chunk <= MAX_CHUNK,
        "circulant size must be whole chunks"
    );
    for row in &g.plan_rows {
        assert!(row.len() * chunk <= v2c.len());
        for b in row {
            assert!(b.shift < t && b.msg + t <= c2v.len());
            let end = b.col_base + t;
            assert!(end <= cur.len() && end <= next.len() && end <= llr.len());
        }
    }
    // SAFETY: lane operations need `L`'s instruction set, the caller's
    // guarantee; `run_at`/`run_at_mut` ranges are in bounds by the
    // assertions above, and so are the segments the cyclic loads and
    // stores stay inside.
    unsafe {
        let alpha = L::splat(alpha);
        let no_sign = L::splat(0.0);
        let inf = L::splat(f32::INFINITY);
        for row in &g.plan_rows {
            for k0 in (0..t).step_by(chunk) {
                // Pass 1: v2c, and the chunk's sign product and two minima.
                let mut sign = [no_sign; 2];
                let mut min1 = [inf; 2];
                let mut min2 = [inf; 2];
                for (b, block) in row.iter().enumerate() {
                    let at = rotated(k0, block.shift, t);
                    let totals = if at + chunk <= t {
                        let run = run_at(cur, block.col_base + at, chunk);
                        [L::load(run), L::load(run.add(width))]
                    } else {
                        let seg = run_at(cur, block.col_base, t);
                        [load_cyclic(seg, t, at), load_cyclic(seg, t, at + width)]
                    };
                    let msgs = run_at(c2v, block.msg + k0, chunk);
                    let buf = run_at_mut(v2c, b * chunk, chunk);
                    for (h, &total) in totals.iter().enumerate() {
                        let v = total.sub(L::load(msgs.add(h * width)));
                        v.store(buf.add(h * width));
                        let mag = v.abs();
                        sign[h] = sign[h].xor(v.sign_if_negative());
                        min2[h] = min2[h].min(min1[h].max(mag));
                        min1[h] = min1[h].min(mag);
                    }
                }
                // Pass 2: new c2v, added into the next totals — to the
                // LLRs for a column's first block, to the running sum
                // for every later one.
                let out1 = [alpha.mul(min1[0]), alpha.mul(min1[1])];
                let out2 = [alpha.mul(min2[0]), alpha.mul(min2[1])];
                for (b, block) in row.iter().enumerate() {
                    let buf = run_at(v2c, b * chunk, chunk);
                    let msgs = run_at_mut(c2v, block.msg + k0, chunk);
                    let mut out = [no_sign; 2];
                    for h in 0..2 {
                        let v = L::load(buf.add(h * width));
                        out[h] = v
                            .abs()
                            .pick_eq(min1[h], out2[h], out1[h])
                            .xor(sign[h])
                            .xor(v.sign_if_negative());
                        out[h].store(msgs.add(h * width));
                    }
                    let at = rotated(k0, block.shift, t);
                    if at + chunk <= t {
                        let sums = run_at_mut(next, block.col_base + at, chunk);
                        let base = if block.first {
                            run_at(llr, block.col_base + at, chunk)
                        } else {
                            sums
                        };
                        for (h, &out) in out.iter().enumerate() {
                            let sum = L::load(base.add(h * width)).add(out);
                            sum.store(sums.add(h * width));
                        }
                    } else {
                        let sums = run_at_mut(next, block.col_base, t);
                        let base = if block.first {
                            run_at(llr, block.col_base, t)
                        } else {
                            sums
                        };
                        for (h, &out) in out.iter().enumerate() {
                            let p = at + h * width;
                            store_cyclic(load_cyclic::<L>(base, t, p).add(out), sums, t, p);
                        }
                    }
                }
            }
        }
    }
}

/// Packs the signs of `values` into the doubled word `word2` (bit set ⇔
/// value < 0 ⇔ bit 1), a lane vector at a time; segment `j` (`t` floats)
/// starts at `values[j * stride]`, and its `t/64` words are written twice
/// ([`doubled_stride`] words per segment).
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn pack_signs<L: Lanes>(values: &[f32], t: usize, stride: usize, word2: &mut [u64]) {
    let tw = t / 64;
    for (seg, seg2) in values
        .chunks(stride)
        .zip(word2.chunks_exact_mut(doubled_stride(tw)))
    {
        let (words, again) = seg2.split_at_mut(tw);
        for ((word, again), run) in words.iter_mut().zip(again).zip(seg.chunks_exact(64)) {
            *word = 0;
            for (i, lanes) in run.chunks_exact(L::WIDTH).enumerate() {
                // SAFETY: `L`'s instruction set is the caller's guarantee;
                // `lanes` holds `WIDTH` floats.
                let mask = unsafe { L::load(lanes.as_ptr()).negative_mask() };
                *word |= u64::from(mask) << (i * L::WIDTH);
            }
            *again = *word;
        }
    }
}

/// Writes `±magnitude` for each bit of `words` into `out`, negative
/// where the bit is set, a lane vector at a time.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn write_signs<L: Lanes>(words: &[u64], magnitude: f32, out: &mut [f32]) {
    // SAFETY: `L`'s instruction set is the caller's guarantee; every
    // store goes to a `WIDTH`-float chunk of `out`.
    unsafe {
        let (plus, minus) = (L::splat(magnitude), L::splat(-magnitude));
        for (&word, run) in words.iter().zip(out.chunks_exact_mut(64)) {
            for (i, lanes) in run.chunks_exact_mut(L::WIDTH).enumerate() {
                let bits = (word >> (i * L::WIDTH)) as u32;
                L::select(bits, minus, plus).store(lanes.as_mut_ptr());
            }
        }
    }
}

/// Channel LLRs of a hard-decision word, +1 for a received 0 and −1 for
/// a 1, a packed word at a time; segment `j` (`t` bits) lands at
/// `out[j * stride..]`. The bit goes straight into the float's sign.
fn expand_hard_llr(words: &[u64], t: usize, stride: usize, out: &mut [f32]) {
    const ONE: u32 = 0x3f80_0000;
    let segments = out.chunks_mut(stride).zip(words.chunks_exact(t / 64));
    for (dst, seg_words) in segments {
        for (run, &word) in dst.chunks_exact_mut(64).zip(seg_words) {
            for (b, o) in run.iter_mut().enumerate() {
                *o = f32::from_bits(ONE | ((word >> b) as u32 & 1) << 31);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Bsc, SoftChannel};
    use rif_events::SimRng;

    fn setup() -> (QcLdpcCode, BitVec, SimRng) {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(21);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        (code, cw, rng)
    }

    #[test]
    fn clean_input_decodes_in_zero_iterations() {
        let (code, cw, _) = setup();
        let out = MinSumDecoder::new(&code).decode(&cw);
        assert!(out.success);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.decoded, cw);
    }

    #[test]
    fn minsum_corrects_scattered_errors() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        // small_test has n = 2304; 0.3% RBER ≈ 7 errors.
        for _ in 0..10 {
            let noisy = Bsc::new(0.003).corrupt(&cw, &mut rng);
            let out = dec.decode(&noisy);
            assert!(
                out.success,
                "failed to decode {} errors",
                cw.hamming_distance(&noisy)
            );
            assert_eq!(out.decoded, cw);
            assert!(out.iterations >= 1);
        }
    }

    #[test]
    fn minsum_fails_on_hopeless_input() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let noisy = Bsc::new(0.08).corrupt(&cw, &mut rng);
        let out = dec.decode(&noisy);
        assert!(!out.success);
        assert_eq!(out.iterations, dec.max_iterations());
    }

    #[test]
    fn iterations_grow_with_error_count() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let avg_iters = |p: f64, rng: &mut SimRng| -> f64 {
            let mut total = 0u32;
            let trials = 20;
            for _ in 0..trials {
                let noisy = Bsc::new(p).corrupt(&cw, rng);
                total += dec.decode(&noisy).iterations;
            }
            total as f64 / trials as f64
        };
        let low = avg_iters(0.001, &mut rng);
        let high = avg_iters(0.006, &mut rng);
        assert!(high > low, "iterations did not grow: {low} vs {high}");
    }

    #[test]
    fn fast_path_matches_reference_across_rbers() {
        let (code, cw, mut rng) = setup();
        let ms = MinSumDecoder::new(&code);
        for &p in &[0.001, 0.004, 0.008, 0.02] {
            for _ in 0..5 {
                let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
                assert_eq!(
                    ms.decode(&noisy),
                    ms.decode_reference(&noisy),
                    "min-sum at p={p}"
                );
            }
        }
    }

    /// Every lane implementation the host has against the reference on
    /// `llr`.
    fn assert_all_lanes_match_reference(dec: &MinSumDecoder, llr: &[f32], what: &str) {
        let reference = dec.decode_llr_reference(llr);
        for lanes in LaneKind::ALL.into_iter().filter(|l| l.available()) {
            assert_eq!(
                dec.decode_llr_on(lanes, llr),
                reference,
                "{lanes:?}: {what}"
            );
        }
    }

    #[test]
    fn the_widest_lanes_the_host_reports_are_the_ones_decoding() {
        #[cfg(target_arch = "x86_64")]
        {
            let expected = if std::arch::is_x86_feature_detected!("avx512f") {
                LaneKind::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                LaneKind::Avx2
            } else {
                LaneKind::Portable
            };
            assert_eq!(LaneKind::detect(), expected);
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(LaneKind::detect(), LaneKind::Portable);
        assert!(LaneKind::detect().available() && LaneKind::Portable.available());
    }

    /// A received word decoded by every lane implementation the host has,
    /// each against the reference and against the soft path on the word's
    /// ±1 LLRs (the packed iterations against the float ones); returns
    /// the reference's outcome.
    fn assert_hard_decodes_match(dec: &MinSumDecoder, word: &BitVec, what: &str) -> DecodeOutcome {
        let reference = dec.decode_reference(word);
        let mut llr = vec![0.0; word.len()];
        expand_hard_llr(word.as_words(), dec.graph.t, dec.graph.t, &mut llr);
        for lanes in LaneKind::ALL.into_iter().filter(|l| l.available()) {
            let fast = dec.decode_on(lanes, word);
            assert_eq!(fast, reference, "{lanes:?}: {what}");
            assert_eq!(
                fast,
                dec.decode_llr_on(lanes, &llr),
                "{lanes:?} hard vs soft: {what}"
            );
        }
        reference
    }

    #[test]
    fn packed_iteration_1_matches_reference_at_every_cap() {
        let codes = [
            QcLdpcCode::small_test(),
            QcLdpcCode::medium(),
            QcLdpcCode::new(crate::QcMatrix::paper_structure(4, 36, 192, 9)),
        ];
        // Error counts per word: none, a few (iteration 1 corrects them),
        // then RBERs from well below the capability to hopeless.
        let rbers = [0.001, 0.003, 0.006, 0.0085, 0.012, 0.03];
        for code in &codes {
            let n = code.n();
            let errors = [0, 1, 2, 3]
                .into_iter()
                .chain(rbers.map(|p| (p * n as f64) as usize));
            let errors: Vec<usize> = errors.collect();
            // Clean, converged in iteration 1, converged in iteration 2,
            // failed: every class must occur.
            let mut seen = [false; 4];
            for cap in [1, 2, 20] {
                let dec = MinSumDecoder::with_max_iterations(code, cap);
                let mut rng = SimRng::seed_from(0xB17 ^ cap as u64);
                for &k in &errors {
                    for round in 0..2 {
                        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
                        let noisy = Bsc::corrupt_exact(&cw, k, &mut rng);
                        let what = format!("n={n} cap={cap} errors={k} round {round}");
                        let out = assert_hard_decodes_match(&dec, &noisy, &what);
                        match (out.success, out.iterations) {
                            (true, 0) => seen[0] = true,
                            (true, 1) => seen[1] = true,
                            (true, 2) => seen[2] = true,
                            (false, _) => seen[3] = true,
                            _ => {}
                        }
                    }
                }
            }
            assert_eq!(seen, [true; 4], "n={n}: clean / at 1 / at 2 / failed");
        }
    }

    #[test]
    fn packed_iteration_2_matches_reference_at_every_cap() {
        let codes = [QcLdpcCode::small_test(), QcLdpcCode::paper()];
        for code in &codes {
            let (n, t) = (code.n(), code.matrix().t());
            let data = code.matrix().data_cols_b();
            // A column of each degree: data (4), first parity (3) and a
            // staircase column (2).
            let columns = [0, data, data + 1];
            // Converged at 2 / converged at 3 or later / failed at the cap:
            // every class must occur.
            let mut seen = [false; 3];
            for cap in [1, 2, 3, 20] {
                let dec = MinSumDecoder::with_max_iterations(code, cap);
                let degrees = columns.map(|j| dec.graph.block_cols[j].len());
                assert_eq!(degrees, [4, 3, 2], "n={n}");
                let mut rng = SimRng::seed_from(0x2B17 ^ cap as u64);
                for p in [0.001, 0.003, 0.005, 0.0085, 0.03] {
                    let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
                    let mut noisy = Bsc::corrupt_exact(&cw, (p * n as f64) as usize, &mut rng);
                    // At least one error on a column of each degree.
                    for j in columns {
                        let v = j * t + rng.index(t);
                        if noisy.get(v) == cw.get(v) {
                            noisy.flip(v);
                        }
                    }
                    let what = format!("n={n} cap={cap} p={p}");
                    let out = assert_hard_decodes_match(&dec, &noisy, &what);
                    match (out.success, out.iterations) {
                        (true, 2) => seen[0] = true,
                        (true, 3..) => seen[1] = true,
                        (false, _) => seen[2] = true,
                        _ => {}
                    }
                }
            }
            assert_eq!(seen, [true; 3], "n={n}: at 2 / at 3 or later / failed");
        }
    }

    #[test]
    fn iteration_2_class_tables_follow_from_alpha() {
        // The classes: every |1 + α·k|, |k| ≤ 3, ascending and distinct.
        let v2c = |k: i32| (1.0 + ALPHA * k as f32).abs();
        let mut mags: Vec<f32> = (-3..=3).map(v2c).collect();
        mags.sort_by(f32::total_cmp);
        mags.dedup();
        assert!(mags[0] > 0.0);
        assert_eq!(mags, MAGNITUDES);
        for k in -3..=3 {
            assert_eq!(MAGNITUDES[CLASS_OF[(k + 3) as usize]], v2c(k), "k={k}");
        }
        // The messages in units of α/4, exactly, and the bit widths.
        for (&m, &quarters) in MAGNITUDES.iter().zip(&QUARTERS) {
            assert_eq!(m * 4.0, quarters as f32);
            assert!(quarters < 1 << VALUE_BITS);
        }
        // Every running sum fits, its sign is the total's, and the total is
        // what `expand_total` makes of it, exactly.
        let most = MAX_DEGREE as i32 * QUARTERS[PLANES] as i32;
        for (r, &start) in START.iter().enumerate() {
            let llr = if r == 0 { 1.0 } else { -1.0 };
            for m in -most..=most {
                let sum = start + m;
                assert!((-(1 << (SUM_BITS - 1))..1 << (SUM_BITS - 1)).contains(&sum));
                let total = llr + ALPHA / 4.0 * m as f32;
                assert_eq!(total < 0.0, sum < 0, "r={r} m={m}");
                let bits = (0..SUM_BITS).filter(|j| (sum >> j) & 1 == 1);
                let weights: f32 = bits.map(|j| WEIGHTS[j]).sum();
                assert_eq!(weights + (1 + r) as f32 / 16.0, total, "r={r} m={m}");
            }
        }
    }

    /// Words `0..tw` of a segment rotated left by `shift`, read from its
    /// doubled copy `seg2` through `Planes::rotated` on lanes `L`.
    ///
    /// # Safety
    ///
    /// The CPU must support `L`'s instruction set.
    #[inline(always)]
    unsafe fn rotated_on<L: Lanes>(seg2: &mut [u64], tw: usize, shift: usize) -> Vec<u64> {
        let pw = doubled_stride(tw) - tw;
        let mut out = vec![0; pw];
        let (src, dst) = (Planes::of(seg2), Planes::of(&mut out));
        for w in (0..pw).step_by(L::WIDTH / 2) {
            // SAFETY: the run read lies inside the doubled segment, the
            // store inside `out`; the instruction set is the caller's.
            unsafe { dst.put(w, src.rotated::<L>(shift, w)) };
        }
        out.truncate(tw);
        out
    }

    /// [`rotated_on`] on AVX-512 lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn rotated_on_avx512(seg2: &mut [u64], tw: usize, shift: usize) -> Vec<u64> {
        // SAFETY: the caller's guarantee.
        unsafe { rotated_on::<crate::lanes::Avx512>(seg2, tw, shift) }
    }

    /// [`rotated_on`] on AVX2 lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn rotated_on_avx2(seg2: &mut [u64], tw: usize, shift: usize) -> Vec<u64> {
        // SAFETY: the caller's guarantee.
        unsafe { rotated_on::<crate::lanes::Avx2>(seg2, tw, shift) }
    }

    #[test]
    fn lane_rotations_match_the_two_run_rotation_at_every_shift() {
        let mut rng = SimRng::seed_from(0xB175);
        for t in [64usize, 1024] {
            let tw = t / 64;
            let seg: Vec<u64> = (0..tw).map(|_| rng.next_u64()).collect();
            let mut seg2 = vec![!0; doubled_stride(tw)];
            double_segments(&seg, tw, &mut seg2);
            for shift in 0..t {
                let mut expected = vec![0; tw];
                crate::circulant::xor_rotated(&mut expected, &seg, shift);
                for lanes in LaneKind::ALL.into_iter().filter(|l| l.available()) {
                    // SAFETY (every arm): the host has the lanes.
                    let got = match lanes {
                        #[cfg(target_arch = "x86_64")]
                        LaneKind::Avx512 => unsafe { rotated_on_avx512(&mut seg2, tw, shift) },
                        #[cfg(target_arch = "x86_64")]
                        LaneKind::Avx2 => unsafe { rotated_on_avx2(&mut seg2, tw, shift) },
                        _ => unsafe { rotated_on::<Portable>(&mut seg2, tw, shift) },
                    };
                    assert_eq!(got, expected, "{lanes:?}: t={t} shift={shift}");
                }
            }
        }
    }

    /// The reference sums each variable's messages in its edge order, so
    /// the lists it builds pin its float results: they must be the
    /// matrix's adjacency, check-major, each variable's edges ascending.
    #[test]
    fn the_reference_csr_is_the_matrix_adjacency() {
        for code in [
            QcLdpcCode::small_test(),
            QcLdpcCode::medium(),
            QcLdpcCode::paper(),
        ] {
            let h = code.matrix();
            let mut chk_ptr = vec![0];
            let mut chk_vars = Vec::new();
            let mut by_var = vec![Vec::new(); h.n()];
            for i in 0..h.rows_b() {
                let blocks: Vec<_> = h.row_blocks(i).collect();
                for k in 0..h.t() {
                    for &b in &blocks {
                        let v = h.var_of(b, k);
                        by_var[v].push(chk_vars.len() as u32);
                        chk_vars.push(v as u32);
                    }
                    chk_ptr.push(chk_vars.len() as u32);
                }
            }
            let var_ptr: Vec<u32> = std::iter::once(0)
                .chain(by_var.iter().scan(0, |end, edges| {
                    *end += edges.len() as u32;
                    Some(*end)
                }))
                .collect();

            let csr = Csr::build(&Graph::build(&code));
            let n = h.n();
            assert_eq!(csr.chk_ptr, chk_ptr, "n={n}: check ranges");
            assert_eq!(csr.chk_vars, chk_vars, "n={n}: check edges");
            assert_eq!(csr.var_ptr, var_ptr, "n={n}: variable ranges");
            assert_eq!(csr.var_edges, by_var.concat(), "n={n}: variable edges");
        }
    }

    #[test]
    #[should_panic(expected = "column degree 5 is too high")]
    fn a_column_of_degree_five_is_rejected() {
        // Five block rows over a dense data part: data columns of degree 5.
        let code = QcLdpcCode::new(crate::QcMatrix::paper_structure(5, 10, 64, 3));
        let _ = MinSumDecoder::new(&code);
    }

    #[test]
    fn the_normalization_factor_is_three_quarters() {
        // The packed iterations are exact because α is dyadic: every
        // partial total of iterations 1 and 2 is a small multiple of 1/16,
        // which f32 sums exactly in any order. Another α needs that
        // argument (`MinSumDecoder::bit_iteration`,
        // `MinSumDecoder::packed_iteration_2`) and the class tables redone.
        assert_eq!(MinSumDecoder::new(&QcLdpcCode::small_test()).alpha, 0.75);
    }

    #[test]
    fn portable_lanes_match_reference_on_any_host() {
        let codes = [
            QcLdpcCode::small_test(),
            QcLdpcCode::medium(),
            QcLdpcCode::new(crate::QcMatrix::paper_structure(4, 36, 192, 9)),
        ];
        let mut rng = SimRng::seed_from(0x9047);
        for code in &codes {
            let dec = MinSumDecoder::new(code);
            for &p in &[0.002, 0.006, 0.0085, 0.0095, 0.015] {
                let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
                let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
                let what = format!("t={} p={p}", code.matrix().t());
                let mut hard = vec![0.0; code.n()];
                expand_hard_llr(noisy.as_words(), dec.graph.t, dec.graph.t, &mut hard);
                assert_all_lanes_match_reference(&dec, &hard, &what);
                let soft = SoftChannel::new(p).transmit(&cw, &mut rng);
                assert_all_lanes_match_reference(&dec, &soft, &what);
            }
        }
    }

    #[test]
    fn shifts_that_wrap_inside_a_chunk_match_reference() {
        // Shift 0 never wraps; t − 16 and t − 32 wrap exactly between two
        // 16- or 32-float chunks; the others put the wrap at the first,
        // second-to-last and last lane of a chunk of either size, from
        // either end of the segment.
        for t in [64usize, 192] {
            let shifts = [0, 1, 15, 31, t - 32, t - 31, t - 16, t - 15, t - 1];
            // Three block rows over nine columns, each column meeting
            // three different shifts; no zero blocks.
            let coeffs = (0..3)
                .flat_map(|i| (0..9).map(move |j| Some(shifts[(3 * i + j) % 9])))
                .collect();
            let code = QcLdpcCode::new(crate::QcMatrix::from_coeffs(3, t, coeffs));
            let dec = MinSumDecoder::new(&code);
            let mut rng = SimRng::seed_from(t as u64);
            // The all-zero word is a codeword of any linear code: read
            // through a clean channel it converges, through a bad one it
            // runs all 20 iterations.
            let zeros = BitVec::zeros(code.n());
            let mut converged = 0;
            for &p in &[0.003, 0.01, 0.2] {
                for _ in 0..4 {
                    let llr = SoftChannel::new(p).transmit(&zeros, &mut rng);
                    assert_all_lanes_match_reference(&dec, &llr, &format!("t={t} p={p}"));
                    converged += u32::from(dec.decode_llr(&llr).success);
                }
            }
            assert!(
                (1..12).contains(&converged),
                "t={t}: {converged}/12 converged"
            );
        }
    }

    #[test]
    fn scratch_follows_the_code_when_decoders_interleave() {
        let small = QcLdpcCode::small_test();
        let medium = QcLdpcCode::medium();
        let decoders = [MinSumDecoder::new(&small), MinSumDecoder::new(&medium)];
        let mut rng = SimRng::seed_from(0x51DE);
        for round in 0..6 {
            let (code, dec) = [(&small, &decoders[0]), (&medium, &decoders[1])][round % 2];
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = Bsc::new(0.006).corrupt(&cw, &mut rng);
            assert_eq!(
                dec.decode(&noisy),
                dec.decode_reference(&noisy),
                "round {round}"
            );
        }
    }

    #[test]
    fn a_panic_mid_decode_leaves_the_next_decode_working() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let noisy = Bsc::new(0.004).corrupt(&cw, &mut rng);
        // Warm the scratch, then die between taking it and putting it back.
        assert!(dec.decode(&noisy).success);
        let died = std::panic::catch_unwind(|| {
            // Soft LLRs too short for the word: copying them into the
            // scratch's padded layout panics.
            dec.decode_in_scratch(LaneKind::Portable, noisy.as_words().to_vec(), Some(&[]))
        });
        assert!(died.is_err());
        assert_eq!(dec.decode(&noisy), dec.decode_reference(&noisy));
    }

    #[test]
    fn minsum_corrects_a_dozen_errors() {
        let (code, cw, mut rng) = setup();
        let ms = MinSumDecoder::new(&code);
        let k = 12; // beyond hard-decision bit flipping, fine for min-sum
        let mut ms_wins = 0;
        for _ in 0..20 {
            let noisy = Bsc::corrupt_exact(&cw, k, &mut rng);
            if ms.decode(&noisy).success {
                ms_wins += 1;
            }
        }
        assert!(ms_wins >= 15, "min-sum too weak: {ms_wins}/20");
    }

    #[test]
    fn decode_is_deterministic() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let noisy = Bsc::new(0.005).corrupt(&cw, &mut rng);
        let a = dec.decode(&noisy);
        let b = dec.decode(&noisy);
        assert_eq!(a, b);
    }

    /// A soft word of the small code with one infinite LLR.
    fn llrs_with_an_infinity() -> (MinSumDecoder, Vec<f32>) {
        let (code, cw, mut rng) = setup();
        let mut llr = SoftChannel::new(0.004).transmit(&cw, &mut rng);
        llr[17] = f32::INFINITY;
        (MinSumDecoder::new(&code), llr)
    }

    #[test]
    #[should_panic(expected = "LLRs must be finite")]
    fn fast_path_rejects_an_infinite_llr() {
        let (dec, llr) = llrs_with_an_infinity();
        dec.decode_llr(&llr);
    }

    #[test]
    #[should_panic(expected = "LLRs must be finite")]
    fn reference_rejects_an_infinite_llr() {
        let (dec, llr) = llrs_with_an_infinity();
        dec.decode_llr_reference(&llr);
    }

    #[test]
    #[should_panic(expected = "every check must meet at least two variables")]
    fn a_check_of_degree_one_is_rejected() {
        // The last block row has one block: its checks' second minimum
        // would be infinite.
        let coeffs = vec![
            Some(0),
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            None,
            None,
            None,
            Some(5),
        ];
        let code = QcLdpcCode::new(crate::QcMatrix::from_coeffs(3, 64, coeffs));
        let _ = MinSumDecoder::new(&code);
    }

    #[test]
    #[should_panic(expected = "every block column must meet some block row")]
    fn a_column_no_row_meets_is_rejected() {
        let coeffs = vec![
            Some(0),
            Some(1),
            None,
            Some(2),
            Some(3),
            None,
            Some(4),
            Some(5),
            None,
        ];
        let code = QcLdpcCode::new(crate::QcMatrix::from_coeffs(3, 64, coeffs));
        let _ = MinSumDecoder::new(&code);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_cap_rejected() {
        let code = QcLdpcCode::small_test();
        let _ = MinSumDecoder::with_max_iterations(&code, 0);
    }
}
