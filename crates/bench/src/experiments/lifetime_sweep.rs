//! Lifetime sweep — the seven-scheme retry comparison re-run as the
//! device ages *while serving*, with the controller's read thresholds
//! either taken from the oracle characterization tables or learned
//! online from decode feedback.
//!
//! Each lifetime stage pairs a P/E wear level with a drift-clock rate:
//! within a stage the drift clock converts simulated serving time into
//! extra retention days, so later reads in the same run see older data
//! than earlier ones — the threshold drift the learner has to chase.
//! Every (stage, scheme) cell runs twice, `oracle` vs `learned`, and the
//! learned runs also report the learner's mean absolute V_REF estimate
//! error against the oracle's optimal offset.
//!
//! ```text
//! rif-bench run lifetime_sweep [--quick] [--csv] [--seed N]
//! ```
//!
//! Runs are deterministic for a fixed seed; `rif-bench check` pins every
//! cell of the full-size run against `results/lifetime_sweep.txt`.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_observed, HarnessOpts, TableWriter};
use rif_ssd::{DriftClock, LearnerConfig, LearningMode, RetryKind, SsdConfig};
use rif_workloads::SynthConfig;

/// One lifetime stage: wear level plus in-run drift acceleration.
struct Stage {
    pe_cycles: u32,
    days_per_sec: f64,
}

const STAGES: [Stage; 3] = [
    Stage {
        pe_cycles: 0,
        days_per_sec: 0.0,
    },
    Stage {
        pe_cycles: 1000,
        days_per_sec: 800.0,
    },
    Stage {
        pe_cycles: 2000,
        days_per_sec: 1600.0,
    },
];

struct CellResult {
    stage: String,
    scheme: &'static str,
    mode: &'static str,
    bandwidth_mbps: f64,
    decode_failures: u64,
    in_die_retries: u64,
    learner_err: Option<f64>,
    learner_updates: u64,
}

fn run_cell(
    opts: &HarnessOpts,
    out: &mut dyn Write,
    stage: &Stage,
    scheme: RetryKind,
    learned: bool,
    n_requests: usize,
) -> io::Result<CellResult> {
    let seed = opts.seed;
    let trace = SynthConfig {
        read_ratio: 0.9,
        cold_read_ratio: 0.6,
        ..SynthConfig::default()
    }
    .generate(n_requests, seed);
    let mut cfg = SsdConfig::small(scheme, stage.pe_cycles);
    cfg.seed = seed;
    cfg.queue_depth = 16;
    cfg.drift = DriftClock {
        days_per_sec: stage.days_per_sec,
        pe_per_sec: 0.0,
    };
    if learned {
        cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
    }
    let mode = if learned { "learned" } else { "oracle" };
    let label = format!("{}-{}-{mode}", stage_label(stage), scheme.label());
    let report = run_observed(opts, out, &label, cfg, &trace)?;
    Ok(CellResult {
        stage: stage_label(stage),
        scheme: scheme.label(),
        mode,
        bandwidth_mbps: report.io_bandwidth_mbps(),
        decode_failures: report.decode_failures,
        in_die_retries: report.in_die_retries,
        learner_err: report.learner.map(|l| l.mean_abs_error),
        learner_updates: report.learner.map(|l| l.updates).unwrap_or(0),
    })
}

fn stage_label(stage: &Stage) -> String {
    format!("pe{}-d{}", stage.pe_cycles, stage.days_per_sec as u64)
}

/// The registry entry: every scheme at every stage, oracle and learned.
pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(2_000, 250);
    let t = TableWriter::new(opts.csv, &[12, 8, 8, 10, 8, 8, 10, 8]);
    t.heading(
        out,
        "Lifetime sweep: oracle vs learned thresholds as drift advances",
    )?;
    t.row(
        out,
        &[
            "stage".into(),
            "scheme".into(),
            "mode".into(),
            "bw_mbps".into(),
            "dec_fail".into(),
            "in_die".into(),
            "learn_err".into(),
            "updates".into(),
        ],
    )?;
    for stage in &STAGES {
        for scheme in RetryKind::ALL {
            for learned in [false, true] {
                let r = run_cell(opts, out, stage, scheme, learned, n_requests)?;
                t.row(
                    out,
                    &[
                        r.stage.clone(),
                        r.scheme.to_string(),
                        r.mode.to_string(),
                        format!("{:.1}", r.bandwidth_mbps),
                        r.decode_failures.to_string(),
                        r.in_die_retries.to_string(),
                        r.learner_err
                            .map(|e| format!("{e:.4}"))
                            .unwrap_or_else(|| "-".into()),
                        r.learner_updates.to_string(),
                    ],
                )?;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}
