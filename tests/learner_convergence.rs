//! Property suite pinning the online threshold learner (`rif_flash::learn`).
//!
//! Four guarantees the lifetime-sweep results rest on:
//!
//! 1. **Convergence** — under a stationary optimum with unbiased noisy
//!    re-calibration observations, the per-block estimate settles within
//!    tolerance of the optimum.
//! 2. **Window safety** — no outcome stream, however adversarial, can
//!    push an estimate (and hence the issued read references) outside
//!    the configured offset window (`LearnerConfig::offset_window`).
//! 3. **Purity** — the learner is a pure function of its outcome
//!    stream: replaying a stream reproduces every estimate bit-for-bit
//!    (`f64::to_bits`) and every counter.
//! 4. **Thread identity** — learned-mode simulator reports are
//!    byte-identical whether runs execute on one thread or race on
//!    eight, so CI's thread-determinism gate extends to learned mode.
//!
//! A plain integration test on the vendored proptest shim, run under
//! `cargo test` like the other property suites.

use proptest::prelude::*;
use rif::flash::learn::{LearnerConfig, ReadOutcome, ThresholdLearner};
use rif::prelude::*;
use rif::ssd::{DriftClock, LearningMode};

/// Decode a raw generated tuple into one of the learner's outcome
/// shapes: clean pass, failure, high-syndrome pass, re-calibration, or
/// a re-calibration carrying a non-finite target (must be ignored).
fn outcome(kind: u8, retries: u32, frac: f64, target: f64) -> ReadOutcome {
    match kind % 5 {
        0 => ReadOutcome::clean_pass(),
        1 => ReadOutcome {
            failed: true,
            retries,
            syndrome_frac: frac,
            recalibrated_offset: None,
        },
        2 => ReadOutcome {
            failed: false,
            retries: 0,
            syndrome_frac: frac,
            recalibrated_offset: None,
        },
        3 => ReadOutcome {
            failed: retries > 0,
            retries,
            syndrome_frac: frac,
            recalibrated_offset: Some(target),
        },
        _ => ReadOutcome {
            failed: false,
            retries,
            syndrome_frac: frac,
            recalibrated_offset: Some(f64::NAN),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn converges_to_stationary_optimum(
        seed in any::<u64>(),
        true_off in -0.55f64..0.05,
        noise in 0.0f64..0.03,
    ) {
        let mut l = ThresholdLearner::new(LearnerConfig::default_paper());
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..400 {
            // Unbiased noisy observation of the stationary optimum, the
            // shape the simulator's ones-count re-calibration produces.
            let obs = true_off + rng.gaussian_with(0.0, noise);
            l.observe(9, &ReadOutcome {
                failed: false,
                retries: 1,
                syndrome_frac: 0.0,
                recalibrated_offset: Some(obs),
            });
        }
        let est = l.offset(9);
        let err = (est - true_off).abs();
        // EMA steady-state std is noise·√(g/(2−g)) ≈ 0.46·noise for the
        // paper gain; 0.02 + 2·noise gives comfortable headroom.
        prop_assert!(err < 0.02 + 2.0 * noise,
            "estimate {est} vs optimum {true_off} (err {err}, noise {noise})");
        prop_assert!(l.stats().recalibrations == 400);
    }

    #[test]
    fn estimates_never_leave_window(
        stream in prop::collection::vec(
            (any::<u8>(), 0u32..5, 0.0f64..1.0, -2.0f64..2.0, 0u64..4), 1..250),
    ) {
        let cfg = LearnerConfig::default_paper();
        let mut l = ThresholdLearner::new(cfg);
        let defaults = ErrorModel::calibrated().default_refs();
        for (k, retries, frac, target, block) in stream {
            l.observe(block, &outcome(k, retries, frac, target));
            for (b, est) in l.estimates() {
                prop_assert!(
                    est.is_finite() && cfg.offset_window().contains(&est),
                    "block {b}: estimate {est} escaped the window");
            }
            // The refs actually issued stay finite and ordered (new()
            // inside refs_for asserts strict ordering).
            let refs = l.refs_for(block, defaults);
            for r in 1..=7 {
                prop_assert!(refs.get(r).is_finite());
            }
        }
    }

    #[test]
    fn replay_is_byte_identical(
        stream in prop::collection::vec(
            (any::<u8>(), 0u32..5, 0.0f64..1.0, -1.0f64..0.5, 0u64..8), 1..200),
    ) {
        let run = || {
            let mut l = ThresholdLearner::new(LearnerConfig::default_paper());
            for &(k, retries, frac, target, block) in &stream {
                l.observe(block, &outcome(k, retries, frac, target));
            }
            let bits: Vec<(u64, u64)> =
                l.estimates().map(|(b, e)| (b, e.to_bits())).collect();
            (bits, l.stats())
        };
        prop_assert_eq!(run(), run());
    }
}

/// Learned-mode simulation is deterministic under thread contention:
/// eight threads each replay the same four seeded runs and every report
/// must match the single-threaded reference byte for byte.
#[test]
fn learned_sim_reports_identical_across_threads() {
    fn run(seed: u64) -> String {
        let trace = SynthConfig {
            read_ratio: 0.9,
            cold_read_ratio: 0.6,
            ..SynthConfig::default()
        }
        .generate(300, seed);
        let mut cfg = SsdConfig::small(RetryKind::Rif, 1000);
        cfg.seed = seed;
        cfg.queue_depth = 16;
        cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
        cfg.drift = DriftClock {
            days_per_sec: 400.0,
            pe_per_sec: 0.0,
        };
        Simulator::new(cfg).run(&trace).to_json()
    }
    let reference: Vec<String> = (0..4).map(|i| run(40 + i)).collect();
    let handles: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(|| (0..4).map(|i| run(40 + i)).collect::<Vec<String>>()))
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), reference, "thread run diverged");
    }
}
