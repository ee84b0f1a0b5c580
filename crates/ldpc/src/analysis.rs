//! The one Monte-Carlo page loop over the real code, [`page_trials`], and
//! the sweeps over it behind Fig. 3 (decoding capability) and Fig. 10
//! (RBER ↔ syndrome-weight correlation); `rif_odear::accuracy` scores RP
//! on it (Figs. 11 and 14).
//!
//! Trials fan out over a `threads`-wide worker pool with one RNG stream
//! per trial (`SimRng::stream`), so every sweep returns the same points
//! for any thread count — `threads` is purely a wall-clock knob.

use rif_events::{parallel_trials, SimRng};

use crate::bits::BitVec;
use crate::channel::Bsc;
use crate::code::QcLdpcCode;
use crate::decoder::MinSumDecoder;

/// One point of a decoding-capability sweep (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CapabilityPoint {
    /// Raw bit-error rate injected.
    pub rber: f64,
    /// Fraction of trials in which min-sum decoding failed.
    pub failure_probability: f64,
    /// Mean number of decoder iterations across trials.
    pub avg_iterations: f64,
    /// Number of Monte-Carlo trials behind this point.
    pub trials: usize,
}

/// One point of a syndrome-weight sweep (Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct SyndromePoint {
    /// Raw bit-error rate injected.
    pub rber: f64,
    /// Mean full syndrome weight (all `r·t` checks).
    pub avg_full_weight: f64,
    /// Mean pruned syndrome weight (first block row only, as RP computes).
    pub avg_pruned_weight: f64,
    /// Number of Monte-Carlo trials behind this point.
    pub trials: usize,
}

/// Builds `trials` noisy pages per RBER point and hands each, in original
/// layout, to `per_page`; returns the results grouped by point, in trial
/// order. Trial `k` of point `i` encodes random data and corrupts it at
/// `rbers[i]`, all drawn from `SimRng::stream(seed, i·trials + k)`. All
/// `rbers.len() × trials` pages fan out over `threads` workers in one
/// pool, so the result is independent of `threads`.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn page_trials<T, F>(
    code: &QcLdpcCode,
    rbers: &[f64],
    trials: usize,
    seed: u64,
    threads: usize,
    per_page: F,
) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(&BitVec) -> T + Sync,
{
    assert!(trials > 0, "need at least one trial");
    let channels: Vec<Bsc> = rbers.iter().map(|&rber| Bsc::new(rber)).collect();
    let mut pages = parallel_trials(threads, rbers.len() * trials, |j| {
        let mut rng = SimRng::stream(seed, j as u64);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        per_page(&channels[j / trials].corrupt(&cw, &mut rng))
    })
    .into_iter();
    channels
        .iter()
        .map(|_| pages.by_ref().take(trials).collect())
        .collect()
}

/// Decodes `trials` pages per RBER point ([`page_trials`]) with min-sum.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn capability_sweep(
    code: &QcLdpcCode,
    rbers: &[f64],
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<CapabilityPoint> {
    let decoder = MinSumDecoder::new(code);
    let per_point = page_trials(code, rbers, trials, seed, threads, |noisy| {
        let res = decoder.decode(noisy);
        (res.success, res.iterations)
    });
    rbers
        .iter()
        .zip(per_point)
        .map(|(&rber, results)| {
            let failures = results.iter().filter(|(success, _)| !success).count();
            let iters: u64 = results.iter().map(|&(_, it)| u64::from(it)).sum();
            CapabilityPoint {
                rber,
                failure_probability: failures as f64 / trials as f64,
                avg_iterations: iters as f64 / trials as f64,
                trials,
            }
        })
        .collect()
}

/// Averages the full and pruned syndrome weights of `trials` pages per
/// RBER point ([`page_trials`]: the same pages [`capability_sweep`]
/// decodes).
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn syndrome_sweep(
    code: &QcLdpcCode,
    rbers: &[f64],
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<SyndromePoint> {
    let per_point = page_trials(code, rbers, trials, seed, threads, |noisy| {
        (
            code.syndrome_weight(noisy) as u64,
            code.pruned_syndrome_weight(noisy) as u64,
        )
    });
    rbers
        .iter()
        .zip(per_point)
        .map(|(&rber, results)| {
            let full: u64 = results.iter().map(|&(f, _)| f).sum();
            let pruned: u64 = results.iter().map(|&(_, p)| p).sum();
            SyndromePoint {
                rber,
                avg_full_weight: full as f64 / trials as f64,
                avg_pruned_weight: pruned as f64 / trials as f64,
                trials,
            }
        })
        .collect()
}

/// The RP correctability threshold ρs for `code`: the expected pruned
/// syndrome weight at the correction-capability RBER (paper §IV-B sets
/// ρs to the syndrome weight corresponding to RBER = 0.0085).
pub fn rho_s(code: &QcLdpcCode, capability_rber: f64) -> usize {
    code.expected_pruned_weight(capability_rber).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_sweep_shows_waterfall() {
        let code = QcLdpcCode::small_test();
        let points = capability_sweep(&code, &[0.001, 0.02], 30, 99, 1);
        assert!(
            points[0].failure_probability < 0.2,
            "low RBER should mostly decode"
        );
        assert!(
            points[1].failure_probability > 0.8,
            "high RBER should mostly fail"
        );
        assert!(points[1].avg_iterations > points[0].avg_iterations);
    }

    #[test]
    fn page_trials_hands_trial_k_of_point_i_its_own_stream() {
        let code = QcLdpcCode::small_test();
        let rbers = [0.003, 0.01, 0.02];
        let by_hand = |i: usize, k: usize| {
            let mut rng = SimRng::stream(11, (i * 5 + k) as u64);
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            Bsc::new(rbers[i]).corrupt(&cw, &mut rng)
        };
        let expect: Vec<Vec<BitVec>> = (0..3)
            .map(|i| (0..5).map(|k| by_hand(i, k)).collect())
            .collect();
        for threads in [1, 8] {
            let pages = page_trials(&code, &rbers, 5, 11, threads, BitVec::clone);
            assert!(pages == expect, "{threads} threads");
        }
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let code = QcLdpcCode::small_test();
        let rbers = [0.002, 0.009];
        assert_eq!(
            capability_sweep(&code, &rbers, 12, 5, 1),
            capability_sweep(&code, &rbers, 12, 5, 8),
        );
        assert_eq!(
            syndrome_sweep(&code, &rbers, 12, 5, 1),
            syndrome_sweep(&code, &rbers, 12, 5, 8),
        );
    }

    #[test]
    fn syndrome_sweep_monotone_in_rber() {
        let code = QcLdpcCode::small_test();
        let points = syndrome_sweep(&code, &[0.001, 0.004, 0.012], 50, 7, 1);
        assert!(points[0].avg_full_weight < points[1].avg_full_weight);
        assert!(points[1].avg_full_weight < points[2].avg_full_weight);
        assert!(points[0].avg_pruned_weight < points[2].avg_pruned_weight);
        // Pruned weight is always a subset of the full weight.
        for p in &points {
            assert!(p.avg_pruned_weight <= p.avg_full_weight);
        }
    }

    #[test]
    fn rho_s_is_positive_and_below_t() {
        let code = QcLdpcCode::small_test();
        let rho = rho_s(&code, 0.0085);
        assert!(rho > 0);
        assert!(rho < code.matrix().t());
    }

    #[test]
    fn rho_s_scales_with_circulant_size() {
        let small = rho_s(&QcLdpcCode::small_test(), 0.0085);
        let medium = rho_s(&QcLdpcCode::medium(), 0.0085);
        // Same expected per-check probability, 4x the checks.
        let ratio = medium as f64 / small as f64;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn sweep_rejects_zero_trials() {
        let code = QcLdpcCode::small_test();
        let _ = capability_sweep(&code, &[0.01], 0, 1, 1);
    }
}
