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
//! rotation; the crate's one implementation of it also backs
//! [`QcLdpcCode::check`] and [`QcLdpcCode::syndrome`]) instead of a walk
//! over the `m × row_weight` edges one bit at a time, and the min-sum
//! message passing is one fused kernel per block row, written once over
//! a lane vector type of which the widest the CPU has runs: 16 lanes of
//! AVX-512F, 8 of AVX2, or a portable 8-float array (see
//! [`MinSumDecoder::decode_llr`]). A hard-decision read
//! ([`MinSumDecoder::decode`]) runs iteration 1 on the packed word
//! instead: on ±1 LLRs every first message is `±α`, so the iteration is
//! a count of unsatisfied checks per bit, and the float kernel starts at
//! iteration 2 from the exact messages and totals the float iteration 1
//! would have left. The straightforward per-edge implementation is kept
//! as [`MinSumDecoder::decode_llr_reference`]; the fast path is
//! bit-identical to it (see the golden-equivalence suite in `tests/`).

use std::cell::Cell;

use crate::bits::BitVec;
use crate::circulant::{rotate_into, row_circulants, rows_clear, xor_block_row, xor_rotated};
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

/// Bit planes of the packed iteration 1's unsatisfied-check counts at
/// most: columns of degree up to 254.
const MAX_PLANES: usize = 8;

/// Floats of padding after each `t`-float message slab and totals segment
/// in the kernel's arrays (one 64-byte cache line). With `t = 1024` the
/// un-padded slabs and segments sit exactly 4 KiB apart, so the ~105
/// streams a chunk touches (a row's message slabs plus its current and
/// next totals segments) all map to one L1d set and evict each other;
/// one line of padding walks them across the sets instead.
const PAD: usize = 16;

/// Tanner-graph adjacency in CSR form, shared by both decoders, plus the
/// quasi-cyclic block structure used by the word-packed syndrome check
/// and the fused min-sum kernel.
#[derive(Debug, Clone)]
struct Graph {
    /// For each check, the index range into `chk_vars`.
    chk_ptr: Vec<u32>,
    /// Variable index of each edge, grouped by check.
    chk_vars: Vec<u32>,
    /// For each variable, the index range into `var_edges`.
    var_ptr: Vec<u32>,
    /// Edge indices (positions in `chk_vars`) grouped by variable.
    var_edges: Vec<u32>,
    /// `(col, shift)` of each block, grouped by block row — the circulant
    /// structure backing the rotate-XOR syndrome.
    block_rows: Vec<Vec<(usize, usize)>>,
    /// The kernel's blocks, grouped by block row.
    plan_rows: Vec<Vec<PlanBlock>>,
    /// `(row, shift)` of each block, grouped by block column; a column's
    /// block count is the degree of each of its variables.
    block_cols: Vec<Vec<(usize, usize)>>,
    /// Bit planes of a variable's unsatisfied-check count (enough to hold
    /// the largest degree plus one).
    count_planes: usize,
    /// Circulant size (a multiple of 64).
    t: usize,
    n: usize,
    m: usize,
}

impl Graph {
    fn build(code: &QcLdpcCode) -> Graph {
        let h = code.matrix();
        let t = h.t();
        let m = h.m();
        let n = h.n();

        let mut chk_ptr = Vec::with_capacity(m + 1);
        let mut chk_vars: Vec<u32> = Vec::with_capacity(h.edge_count());
        let row_blocks: Vec<Vec<_>> = (0..h.rows_b()).map(|i| h.row_blocks(i).collect()).collect();
        chk_ptr.push(0);
        for i in 0..h.rows_b() {
            for k in 0..t {
                for b in &row_blocks[i] {
                    chk_vars.push(h.var_of(*b, k) as u32);
                }
                chk_ptr.push(chk_vars.len() as u32);
            }
        }

        // Invert to per-variable edge lists.
        let mut var_deg = vec![0u32; n];
        for &v in &chk_vars {
            var_deg[v as usize] += 1;
        }
        let mut var_ptr = vec![0u32; n + 1];
        for v in 0..n {
            var_ptr[v + 1] = var_ptr[v] + var_deg[v];
        }
        let mut cursor = var_ptr.clone();
        let mut var_edges = vec![0u32; chk_vars.len()];
        for (e, &v) in chk_vars.iter().enumerate() {
            var_edges[cursor[v as usize] as usize] = e as u32;
            cursor[v as usize] += 1;
        }

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
        // α·∞ and the totals NaN, and the packed iteration 1 assumes every
        // message is ±α.
        assert!(
            block_rows.iter().all(|row| row.len() >= 2),
            "every check must meet at least two variables"
        );
        let mut block_cols = vec![Vec::new(); h.cols_b()];
        for (row, blocks) in block_rows.iter().enumerate() {
            for &(col, shift) in blocks {
                block_cols[col].push((row, shift));
            }
        }
        let max_degree = block_cols.iter().map(Vec::len).max().unwrap_or(0);
        let count_planes = (usize::BITS - (max_degree + 1).leading_zeros()) as usize;
        assert!(
            count_planes <= MAX_PLANES,
            "column degree {max_degree} is too high"
        );

        Graph {
            chk_ptr,
            chk_vars,
            var_ptr,
            var_edges,
            block_rows,
            plan_rows,
            block_cols,
            count_planes,
            t,
            n,
            m,
        }
    }

    /// True when `hard` (bit n set ⇒ bit value 1) satisfies every check.
    /// Reference implementation: one `BitVec::get` per edge.
    fn syndrome_clear(&self, hard: &BitVec) -> bool {
        for c in 0..self.m {
            let mut parity = false;
            for e in self.chk_ptr[c]..self.chk_ptr[c + 1] {
                parity ^= hard.get(self.chk_vars[e as usize] as usize);
            }
            if parity {
                return false;
            }
        }
        true
    }

    /// Word-packed equivalent of [`Graph::syndrome_clear`]: per block row,
    /// XOR the rotated word-packed segments (circulant `Q(s)` ≡ rotate
    /// left by `s`) into the caller's `t/64`-word accumulator and bail
    /// out on the first nonzero syndrome word.
    fn syndrome_clear_words(&self, hard: &[u64], acc: &mut [u64]) -> bool {
        debug_assert_eq!(hard.len() * 64, self.n);
        debug_assert_eq!(acc.len(), self.t / 64);
        rows_clear(
            acc,
            hard,
            self.block_rows.iter().map(|row| row.iter().copied()),
        )
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
            alpha: 0.75,
        }
    }

    /// The iteration cap.
    pub fn max_iterations(&self) -> u32 {
        self.max_iterations
    }

    /// Decodes a received hard-decision word.
    ///
    /// Iteration 1 runs on the packed word (see
    /// [`MinSumDecoder::bit_iteration`]); the float kernel of
    /// [`MinSumDecoder::decode_llr`] takes over at iteration 2, from the
    /// messages and totals the float iteration 1 would have left, so the
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
    ///   one vector per circulant that straddles the wrap, copied as two
    ///   runs.
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
        let g = &self.graph;
        assert_llrs(llr, g.n);
        let mut hard = vec![0u64; g.n / 64];
        // SAFETY: the portable lanes need no CPU feature.
        unsafe { pack_signs::<Portable>(llr, g.t, g.t, &mut hard) };
        self.decode_in_scratch(lanes, hard, Some(llr))
    }

    /// Runs the decode in this thread's scratch. `hard` is the input's
    /// hard decision: with `soft` the LLRs it was taken from, without it
    /// the whole input (a hard-decision read), whose iteration 1 then
    /// runs on packed words.
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
            LaneKind::Avx512 => unsafe { self.iterate_avx512(s, hard, soft) },
            #[cfg(target_arch = "x86_64")]
            LaneKind::Avx2 => unsafe { self.iterate_avx2(s, hard, soft) },
            _ => unsafe { self.iterate::<Portable>(s, hard, soft) },
        };
        SCRATCH.set(scratch);
        outcome
    }

    /// The decode's prologue. Returns the outcome when the input is a
    /// codeword or, for a received word (no `soft` LLRs), when the packed
    /// iteration 1 ([`MinSumDecoder::bit_iteration`]) ends the decode.
    /// Otherwise fills the channel LLRs in the padded totals layout (±1
    /// for a received word) and the state the sweeps start from:
    /// iteration 1's messages and totals for a received word (the sweeps
    /// start at iteration 2), zero messages for soft input (they start at
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
        let t = g.t;
        let settled = match soft {
            None => self.bit_iteration(scratch, hard),
            Some(_) => g
                .syndrome_clear_words(hard, &mut scratch.syn)
                .then(|| DecodeOutcome {
                    success: true,
                    iterations: 0,
                    decoded: BitVec::from_words(hard.to_vec(), g.n),
                }),
        };
        if settled.is_some() {
            return settled;
        }
        let Scratch {
            llr,
            totals: [cur, _],
            c2v,
            rows,
            counts,
            words,
            ..
        } = scratch;
        let (llr, c2v) = (llr.as_mut_slice(), c2v.as_mut_slice());
        match soft {
            None => {
                let signs = &mut words[..t / 64];
                let cur = cur.as_mut_slice();
                // SAFETY (both calls): `L`'s instruction set is this
                // function's own precondition.
                unsafe {
                    let segments = llr.chunks_exact_mut(t + PAD).zip(hard.chunks_exact(t / 64));
                    for (segment, words) in segments {
                        write_signs::<L>(words, 1.0, &mut segment[..t]);
                    }
                    seed_iteration_1::<L>(g, self.alpha, hard, rows, counts, signs, c2v, cur);
                }
            }
            Some(soft) => {
                for (j, segment) in llr.chunks_exact_mut(t + PAD).enumerate() {
                    segment[..t].copy_from_slice(&soft[j * t..][..t]);
                }
                c2v.fill(0.0);
            }
        }
        None
    }

    /// Iteration 1 of a hard-decision decode, on packed words.
    ///
    /// With ±1 channel LLRs and zero messages every `v2c` is ±1, so in a
    /// check of degree ≥ 2 (see `Graph::build`) both minima are 1 and
    /// every message is `±α`, its sign bit the check's syndrome bit XOR
    /// the bit it goes to. A variable of degree `d` with `u` unsatisfied
    /// checks then totals `(−1)^h · (1 + α·(d − 2u))`: every partial sum
    /// is a small multiple of 1/4 (α = 0.75), exact in `f32` in any order
    /// and never zero, and the bit flips where `u ≥ ⌈d/2⌉ + 1`.
    ///
    /// Computes the block rows' syndromes `s_r`, the unsatisfied counts
    /// (bit-sliced: row `r`'s check meeting variable `v` through `Q(s)` is
    /// check `(v − s) mod t`, so the column's indicator is `s_r` rotated
    /// right by `s`) and the new hard word. Returns the outcome when the
    /// decode ends here: `received` is a codeword (zero iterations),
    /// iteration 1 converges, or the cap is 1. Otherwise leaves `s_r` in
    /// `scratch.rows` and the counts in `scratch.counts` for
    /// [`seed_iteration_1`].
    #[inline(always)]
    fn bit_iteration(&self, scratch: &mut Scratch, received: &[u64]) -> Option<DecodeOutcome> {
        let g = &self.graph;
        let tw = g.t / 64;
        let Scratch {
            rows,
            counts,
            words,
            syn,
            ..
        } = scratch;
        for (row, s) in g.block_rows.iter().zip(rows.chunks_exact_mut(tw)) {
            s.fill(0);
            xor_block_row(s, received, row.iter().copied());
        }
        if rows.iter().all(|&w| w == 0) {
            return Some(DecodeOutcome {
                success: true,
                iterations: 0,
                decoded: BitVec::from_words(received.to_vec(), g.n),
            });
        }

        let nw = received.len();
        let mut hard = received.to_vec();
        let (unsatisfied, above) = words.split_at_mut(tw);
        for (j, blocks) in g.block_cols.iter().enumerate() {
            let column = j * tw..(j + 1) * tw;
            for plane in counts.chunks_exact_mut(nw) {
                plane[column.clone()].fill(0);
            }
            for &(r, shift) in blocks {
                rotate_into(unsatisfied, &rows[r * tw..][..tw], (g.t - shift) % g.t);
                // Ripple-carry add of one bit per variable; `unsatisfied`
                // ends as the carries out of the top plane (none).
                for plane in counts.chunks_exact_mut(nw) {
                    let bits = plane[column.clone()].iter_mut();
                    for (bit, carry) in bits.zip(unsatisfied.iter_mut()) {
                        let next = *bit & *carry;
                        *bit ^= *carry;
                        *carry = next;
                    }
                }
            }
            // The bits where `u ≥ ⌈d/2⌉ + 1`, compared from the top plane
            // down: `above` once the count's bits exceed the bound's,
            // `equal` (in `unsatisfied`'s words) while they match.
            let flip_at = blocks.len().div_ceil(2) + 1;
            let equal = &mut unsatisfied[..];
            above.fill(0);
            equal.fill(!0);
            for (p, plane) in counts.chunks_exact(nw).enumerate().rev() {
                let bits = &plane[column.clone()];
                for ((a, e), &bit) in above.iter_mut().zip(equal.iter_mut()).zip(bits) {
                    if flip_at >> p & 1 == 0 {
                        *a |= *e & bit;
                        *e &= !bit;
                    } else {
                        *e &= bit;
                    }
                }
            }
            for ((h, &a), &e) in hard[column].iter_mut().zip(&*above).zip(&*equal) {
                *h ^= a | e;
            }
        }
        let success = g.syndrome_clear_words(&hard, syn);
        (success || self.max_iterations == 1).then(|| DecodeOutcome {
            success,
            iterations: 1,
            decoded: BitVec::from_words(hard, g.n),
        })
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
        hard: Vec<u64>,
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
        hard: Vec<u64>,
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
        mut hard: Vec<u64>,
        soft: Option<&[f32]>,
    ) -> DecodeOutcome {
        let g = &self.graph;
        // SAFETY: `L`'s instruction set is this function's own
        // precondition.
        if let Some(outcome) = unsafe { self.start::<L>(scratch, &hard, soft) } {
            return outcome;
        }
        let first = if soft.is_some() { 1 } else { 2 };
        let Scratch {
            llr,
            totals: [cur, next],
            c2v,
            v2c,
            syn,
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
                pack_signs::<L>(next, g.t, g.t + PAD, &mut hard);
            }
            if g.syndrome_clear_words(&hard, syn) {
                return DecodeOutcome {
                    success: true,
                    iterations: iter,
                    decoded: BitVec::from_words(hard, g.n),
                };
            }
            std::mem::swap(&mut cur, &mut next);
        }

        DecodeOutcome {
            success: false,
            iterations: self.max_iterations,
            decoded: BitVec::from_words(hard, g.n),
        }
    }

    /// Straightforward per-edge implementation kept as the correctness
    /// reference for [`MinSumDecoder::decode_llr`]: each `v2c` message is
    /// recomputed in the output scan and the convergence test walks the
    /// edges one `BitVec::get` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `llr` is not codeword-length or holds a non-finite value,
    /// as [`MinSumDecoder::decode_llr`] does.
    pub fn decode_llr_reference(&self, llr: &[f32]) -> DecodeOutcome {
        let g = &self.graph;
        assert_llrs(llr, g.n);

        let mut hard = BitVec::zeros(g.n);
        for (v, &l) in llr.iter().enumerate() {
            hard.set(v, l < 0.0);
        }
        if g.syndrome_clear(&hard) {
            return DecodeOutcome {
                success: true,
                iterations: 0,
                decoded: hard,
            };
        }

        let edges = g.chk_vars.len();
        let mut c2v = vec![0.0f32; edges];
        let mut total = llr.to_vec();

        for iter in 1..=self.max_iterations {
            // Check-node update using the two-minimum trick.
            for c in 0..g.m {
                let lo = g.chk_ptr[c] as usize;
                let hi = g.chk_ptr[c + 1] as usize;
                let mut sign_prod = 1.0f32;
                let mut min1 = f32::INFINITY;
                let mut min2 = f32::INFINITY;
                let mut min1_edge = lo;
                for e in lo..hi {
                    let v2c = total[g.chk_vars[e] as usize] - c2v[e];
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
                    let v2c = total[g.chk_vars[e] as usize] - c2v[e];
                    let sign_self = if v2c < 0.0 { -1.0 } else { 1.0 };
                    let mag = if e == min1_edge { min2 } else { min1 };
                    c2v[e] = self.alpha * sign_prod * sign_self * mag;
                }
            }

            // Variable-node totals and hard decision.
            for v in 0..g.n {
                let mut sum = llr[v];
                for idx in g.var_ptr[v]..g.var_ptr[v + 1] {
                    sum += c2v[g.var_edges[idx as usize] as usize];
                }
                total[v] = sum;
                hard.set(v, sum < 0.0);
            }

            if g.syndrome_clear(&hard) {
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
/// Nothing in them carries over from one decode to the next.
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
    /// The block rows' syndromes of a received word, `t/64` words each.
    rows: Vec<u64>,
    /// Every variable's unsatisfied-check count, bit-sliced: plane `p`
    /// (`n/64` words, lowest plane first) holds bit `p` of each count.
    counts: Vec<u64>,
    /// Two segments of scratch for the packed iteration 1.
    words: Vec<u64>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

impl Scratch {
    /// Sizes every buffer for `g`; a no-op while one thread keeps decoding
    /// the same code, a resize when decoders of different codes interleave.
    fn fit(&mut self, g: &Graph) {
        let stride = g.t + PAD;
        let blocks: usize = g.plan_rows.iter().map(Vec::len).sum();
        let widest = g.plan_rows.iter().map(Vec::len).max().unwrap_or(0);
        let segments = g.n / g.t;
        self.llr.resize(segments * stride);
        for totals in &mut self.totals {
            totals.resize(segments * stride);
        }
        self.c2v.resize(blocks * stride);
        self.v2c.resize(widest * MAX_CHUNK);
        self.syn.resize(g.t / 64, 0);
        self.rows.resize(g.block_rows.len() * g.t / 64, 0);
        self.counts.resize(g.n / 64 * g.count_planes, 0);
        self.words.resize(2 * g.t / 64, 0);
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

/// Fills `chunk` from the cyclic segment `seg`, starting at `at` and
/// running over the segment's end (one chunk per circulant at most): the
/// run `seg[at..]`, then the run from `seg`'s start.
#[cold]
#[inline(never)]
fn gather_wrapped(seg: &[f32], at: usize, chunk: &mut [f32]) {
    let (head, tail) = chunk.split_at_mut(seg.len() - at);
    head.copy_from_slice(&seg[at..]);
    tail.copy_from_slice(&seg[..tail.len()]);
}

/// Adds `chunk` into the cyclic segment `seg` from `at` on, over its end,
/// as two runs like [`gather_wrapped`]: to `seg`'s own values, or to
/// `base`'s where given (a column's first block row, whose totals start
/// from the channel LLRs).
#[cold]
#[inline(never)]
fn scatter_add_wrapped(seg: &mut [f32], base: Option<&[f32]>, at: usize, chunk: &[f32]) {
    let (head, tail) = chunk.split_at(seg.len() - at);
    for (range, run) in [(at..seg.len(), head), (0..tail.len(), tail)] {
        let dst = &mut seg[range.clone()];
        match base {
            Some(base) => {
                for ((d, &b), &x) in dst.iter_mut().zip(&base[range]).zip(run) {
                    *d = b + x;
                }
            }
            None => {
                for (d, &x) in dst.iter_mut().zip(run) {
                    *d += x;
                }
            }
        }
    }
}

/// Writes iteration 1 of a hard-decision decode, run on packed words by
/// [`MinSumDecoder::bit_iteration`], into the float kernel's arrays: the
/// message of check `k` through block `(col, shift)` of row `r` is `±α`
/// with sign bit `s_r[k] ⊕ received[col][(k + shift) mod t]`, and
/// variable `v`'s total is `(−1)^h · (1 + α·(d − 2u))`. Both are the
/// float iteration's values bit for bit (see `bit_iteration`). `signs`
/// is one segment of scratch.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn seed_iteration_1<L: Lanes>(
    g: &Graph,
    alpha: f32,
    received: &[u64],
    rows: &[u64],
    counts: &[u64],
    signs: &mut [u64],
    c2v: &mut [f32],
    totals: &mut [f32],
) {
    let (t, tw, width) = (g.t, g.t / 64, L::WIDTH);
    let (nw, planes) = (received.len(), g.count_planes);
    // SAFETY: lane operations need `L`'s instruction set, the caller's
    // guarantee; every store goes to a `width`-float chunk of a slice.
    unsafe {
        let zero = L::splat(0.0);
        let sign = L::splat(-0.0);
        let rows = g
            .block_rows
            .iter()
            .zip(&g.plan_rows)
            .zip(rows.chunks_exact(tw));
        for ((row, plan), s) in rows {
            for (&(col, shift), block) in row.iter().zip(plan) {
                signs.copy_from_slice(s);
                xor_rotated(signs, &received[col * tw..][..tw], shift);
                write_signs::<L>(signs, alpha, &mut c2v[block.msg..][..t]);
            }
        }

        // `2α · 2^p` per count plane.
        let mut steps = [zero; MAX_PLANES];
        for (p, step) in steps[..planes].iter_mut().enumerate() {
            *step = L::splat(2.0 * alpha * (1u32 << p) as f32);
        }
        for (j, blocks) in g.block_cols.iter().enumerate() {
            let most = L::splat(1.0 + alpha * blocks.len() as f32);
            let segment = totals[j * (t + PAD)..][..t].chunks_exact_mut(64);
            for (w, run) in (j * tw..).zip(segment) {
                let mut count = [0u64; MAX_PLANES];
                for (bits, plane) in count[..planes].iter_mut().zip(counts.chunks_exact(nw)) {
                    *bits = plane[w];
                }
                for (i, lanes) in run.chunks_exact_mut(width).enumerate() {
                    let mut mag = most;
                    for (&bits, &step) in count[..planes].iter().zip(&steps) {
                        mag = mag.sub(L::select((bits >> (i * width)) as u32, step, zero));
                    }
                    let flip = (received[w] >> (i * width)) as u32;
                    L::select(flip, mag.xor(sign), mag).store(lanes.as_mut_ptr());
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
    // `at + chunk ≤ t` ends by `col_base + t`; block `b` of a row owns
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
    // guarantee; `run_at`/`run_at_mut` ranges (and the message chunk
    // re-borrowed as a slice) are in bounds by the assertions above, and
    // `wrapped` holds `MAX_CHUNK ≥ chunk` floats.
    unsafe {
        let alpha = L::splat(alpha);
        let no_sign = L::splat(0.0);
        let inf = L::splat(f32::INFINITY);
        let mut wrapped = [0.0f32; MAX_CHUNK];
        for row in &g.plan_rows {
            for k0 in (0..t).step_by(chunk) {
                // Pass 1: v2c, and the chunk's sign product and two minima.
                let mut sign = [no_sign; 2];
                let mut min1 = [inf; 2];
                let mut min2 = [inf; 2];
                for (b, block) in row.iter().enumerate() {
                    let at = rotated(k0, block.shift, t);
                    let totals = if at + chunk <= t {
                        run_at(cur, block.col_base + at, chunk)
                    } else {
                        let seg = &cur[block.col_base..block.col_base + t];
                        gather_wrapped(seg, at, &mut wrapped[..chunk]);
                        wrapped.as_ptr()
                    };
                    let msgs = run_at(c2v, block.msg + k0, chunk);
                    let buf = run_at_mut(v2c, b * chunk, chunk);
                    for h in 0..2 {
                        let total = L::load(totals.add(h * width));
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
                        let range = block.col_base..block.col_base + t;
                        let base = block.first.then(|| &llr[range.clone()]);
                        let msgs = std::slice::from_raw_parts(msgs, chunk);
                        scatter_add_wrapped(&mut next[range], base, at, msgs);
                    }
                }
            }
        }
    }
}

/// Packs the signs of `values` into `hard` (bit set ⇔ value < 0 ⇔ bit 1),
/// a lane vector at a time; segment `j` (`t` floats) starts at
/// `values[j * stride]`.
///
/// # Safety
///
/// The CPU must support `L`'s instruction set.
#[inline(always)]
unsafe fn pack_signs<L: Lanes>(values: &[f32], t: usize, stride: usize, hard: &mut [u64]) {
    let segments = values.chunks(stride);
    for (seg, words) in segments.zip(hard.chunks_exact_mut(t / 64)) {
        for (word, run) in words.iter_mut().zip(seg.chunks_exact(64)) {
            *word = 0;
            for (i, lanes) in run.chunks_exact(L::WIDTH).enumerate() {
                // SAFETY: `L`'s instruction set is the caller's guarantee;
                // `lanes` holds `WIDTH` floats.
                let mask = unsafe { L::load(lanes.as_ptr()).negative_mask() };
                *word |= u64::from(mask) << (i * L::WIDTH);
            }
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
    /// ±1 LLRs (the packed iteration 1 against the float one); returns
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
    fn the_normalization_factor_is_three_quarters() {
        // The packed iteration 1 is exact because α is dyadic: every
        // partial total of iteration 1 is a small multiple of 1/4, which
        // f32 sums exactly in any order. Another α needs that argument
        // (`MinSumDecoder::bit_iteration`) redone.
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
