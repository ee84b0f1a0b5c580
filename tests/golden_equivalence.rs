//! Golden equivalence suite: the optimized kernels must be *bit-identical*
//! to their scalar references, and the parallel Monte-Carlo harness must be
//! thread-count invariant.
//!
//! The fast min-sum path is one fused kernel per block row over lane
//! vectors — 16 lanes of AVX-512 where the CPU has AVX-512F, else 8 of
//! AVX2, else a portable 8-float array; the widest the host has is the one
//! these tests run — in a per-thread scratch. It is a pure reordering of exact float operations, so
//! `DecodeOutcome`s — success flag, iteration count and decoded word —
//! must match the references on every input, not just statistically.

use rif_events::SimRng;
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::Bsc;
use rif_ldpc::decoder::MinSumDecoder;
use rif_ldpc::{QcLdpcCode, QcMatrix};
use rif_odear::rp::ReadRetryPredictor;

/// RBERs spanning clean, waterfall-edge and mostly-uncorrectable inputs.
const RBERS: [f64; 4] = [0.002, 0.006, 0.0085, 0.015];

fn corpus(code: &QcLdpcCode, seed: u64) -> Vec<BitVec> {
    // 4 RBERs x 14 trials = 56 noisy codewords (>= 50 per the golden bar).
    let mut rng = SimRng::seed_from(seed);
    let mut words = Vec::new();
    for &rber in &RBERS {
        let channel = Bsc::new(rber);
        for _ in 0..14 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            words.push(channel.corrupt(&cw, &mut rng));
        }
    }
    words
}

#[test]
fn min_sum_fast_path_is_bit_identical_to_reference() {
    let code = QcLdpcCode::small_test();
    let dec = MinSumDecoder::new(&code);
    for (i, noisy) in corpus(&code, 0xC0DE).iter().enumerate() {
        let fast = dec.decode(noisy);
        let reference = dec.decode_reference(noisy);
        assert_eq!(fast, reference, "min-sum outcome diverged on word {i}");
    }
}

/// RBERs for the larger codes: clean, below, at and just past the 0.0085
/// capability (where iteration counts spread over 1..=20), and failing.
const WIDE_RBERS: [f64; 5] = [0.002, 0.006, 0.0085, 0.0095, 0.015];

/// Soft-sensing style LLRs for `noisy`: the hard decision's sign at one
/// of a few reliabilities, plus both zeros (neither counts as negative).
fn soft_llrs(noisy: &BitVec, rng: &mut SimRng) -> Vec<f32> {
    const MAGNITUDES: [f32; 6] = [0.0, -0.0, 0.5, 1.0, 2.25, 6.0];
    (0..noisy.len())
        .map(|v| {
            // Zeros are rare so that the word still leans the right way.
            let pick = if rng.index(64) == 0 {
                rng.index(2)
            } else {
                2 + rng.index(4)
            };
            let mag = MAGNITUDES[pick];
            if noisy.get(v) && mag != 0.0 {
                -mag
            } else {
                mag
            }
        })
        .collect()
}

#[test]
fn min_sum_fast_path_is_bit_identical_on_the_larger_codes() {
    // The paper's 1024-bit circulants (whole chunks, padded layout), the
    // 256-bit ones, and a circulant size that is not a power of two.
    let codes = [
        ("paper", QcLdpcCode::paper(), 1),
        ("medium", QcLdpcCode::medium(), 3),
        (
            "t192",
            QcLdpcCode::new(QcMatrix::paper_structure(4, 36, 192, 0x192)),
            3,
        ),
    ];
    for (name, code, words) in &codes {
        let dec = MinSumDecoder::new(code);
        let mut rng = SimRng::seed_from(0xFA57);
        let mut iteration_counts = std::collections::BTreeSet::new();
        for &rber in &WIDE_RBERS {
            for _ in 0..*words {
                let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
                let noisy = Bsc::new(rber).corrupt(&cw, &mut rng);
                let hard = dec.decode(&noisy);
                assert_eq!(
                    hard,
                    dec.decode_reference(&noisy),
                    "{name}: hard input diverged at rber {rber}"
                );
                iteration_counts.insert(hard.iterations);
                let llr = soft_llrs(&noisy, &mut rng);
                assert_eq!(
                    dec.decode_llr(&llr),
                    dec.decode_llr_reference(&llr),
                    "{name}: soft input diverged at rber {rber}"
                );
            }
        }
        // The sweep must reach quick, slow and failed decodes alike.
        assert!(
            iteration_counts.len() >= 3 && iteration_counts.contains(&20),
            "{name}: iteration counts {iteration_counts:?}"
        );
    }
}

#[test]
fn eight_threads_interleaving_two_codes_match_single_thread_outcomes() {
    // Each thread has its own kernel scratch, resized whenever the code
    // changes under it: alternate the smallest and the largest code on
    // every thread at once and compare with one thread doing the same.
    let small = QcLdpcCode::small_test();
    let paper = QcLdpcCode::paper();
    let decoders = [MinSumDecoder::new(&small), MinSumDecoder::new(&paper)];
    let mut rng = SimRng::seed_from(0x7EAD);
    let words: Vec<(usize, BitVec)> = (0..6)
        .map(|i| {
            let which = i % 2;
            let code = [&small, &paper][which];
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let rber = [0.004, 0.0085, 0.012][i % 3];
            (which, Bsc::new(rber).corrupt(&cw, &mut rng))
        })
        .collect();
    let expected: Vec<_> = words
        .iter()
        .map(|(which, w)| decoders[*which].decode(w))
        .collect();

    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|thread| {
                let (words, decoders, expected, start) = (&words, &decoders, &expected, &start);
                scope.spawn(move || {
                    start.wait();
                    // Every thread starts at a different word, so small
                    // and paper decodes overlap across threads.
                    for step in 0..words.len() {
                        let i = (step + thread) % words.len();
                        let (which, word) = &words[i];
                        assert_eq!(
                            decoders[*which].decode(word),
                            expected[i],
                            "thread {thread} diverged on word {i}"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("decode thread panicked");
        }
    });
}

#[test]
fn rp_rearranged_prediction_matches_original_layout() {
    // The RP hardware sees the rearranged layout; prediction must agree
    // with the original-layout path once the chunk is restored.
    let code = QcLdpcCode::small_test();
    let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
    let mut rng = SimRng::seed_from(0x5EED);
    for &rber in &RBERS {
        let channel = Bsc::new(rber);
        for _ in 0..8 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = channel.corrupt(&cw, &mut rng);
            let sensed = code.rearrange(&noisy);
            let on_die = rp.predict(&sensed);
            let restored = code.restore(&sensed);
            assert_eq!(restored, noisy, "restore must invert rearrange");
            let off_die = rp.predict_original_layout(&restored);
            assert_eq!(on_die.syndrome_weight, off_die.syndrome_weight);
            assert_eq!(on_die.retry_needed, off_die.retry_needed);
        }
    }
}

#[test]
fn monte_carlo_sweeps_are_thread_count_invariant() {
    // Trial k of point i always draws from SimRng::stream(seed, i*trials+k)
    // regardless of which worker runs it, so --threads must not change a
    // single number.
    let code = QcLdpcCode::small_test();
    let rbers = [0.004, 0.0085, 0.012];
    let one = rif_ldpc::analysis::capability_sweep(&code, &rbers, 8, 99, 1);
    let eight = rif_ldpc::analysis::capability_sweep(&code, &rbers, 8, 99, 8);
    assert_eq!(one, eight);

    let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
    let rp_path = |noisy: &BitVec| rp.predict(&code.rearrange(noisy)).retry_needed;
    let one = rif_odear::accuracy::measure_accuracy(&code, [&rp_path], &rbers, 10, 7, 1);
    let eight = rif_odear::accuracy::measure_accuracy(&code, [&rp_path], &rbers, 10, 7, 8);
    assert_eq!(one, eight);
}
