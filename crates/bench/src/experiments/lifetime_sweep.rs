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
//! rif-bench run lifetime_sweep [--quick] [--csv] [--seed N] [--schemes all|ci]
//!                              [--check-envelope FILE] [--write-envelope FILE]
//! ```
//!
//! `--check-envelope` compares learned-mode retry activity against a
//! checked-in min/max envelope (see `results/lifetime_envelope.csv`) and
//! exits 1 on any excursion; `--write-envelope` regenerates that file
//! (review the diff before committing it). Runs are deterministic for a
//! fixed seed, so CI uses the envelope as a cheap behavioural pin.

use std::io::{self, Write};
use std::process::ExitCode;

use std::fmt::Write as _;

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

/// The two-scheme subset the CI smoke gate sweeps.
const CI_SCHEMES: [RetryKind; 2] = [RetryKind::SwiftReadPlus, RetryKind::Rif];

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

/// Envelope line: `stage,scheme,metric,min,max`.
fn envelope_rows(results: &[CellResult]) -> String {
    let mut s = String::from("# stage,scheme,metric,min,max (learned-mode retry activity)\n");
    for r in results.iter().filter(|r| r.mode == "learned") {
        for (metric, v) in [
            ("decode_failures", r.decode_failures),
            ("in_die_retries", r.in_die_retries),
        ] {
            // ±40 % plus a small absolute slack on both sides: wide
            // enough to absorb intentional tuning of the learner
            // constants (including runs that do strictly better, down
            // to zero), tight enough to catch a broken learned read
            // path (e.g. 10× retries).
            let lo = ((v as f64 * 0.6).floor() as u64).saturating_sub(8);
            let hi = (v as f64 * 1.4).ceil() as u64 + 8;
            let _ = writeln!(s, "{},{},{metric},{lo},{hi}", r.stage, r.scheme);
        }
    }
    s
}

/// The number of envelope bounds checked, all of which hold.
fn check_envelope(path: &str, results: &[CellResult]) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut checked = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("{path}:{}: expected 5 fields", ln + 1));
        }
        let (stage, scheme, metric) = (fields[0], fields[1], fields[2]);
        let lo: u64 = fields[3]
            .parse()
            .map_err(|_| format!("{path}:{}: bad min", ln + 1))?;
        let hi: u64 = fields[4]
            .parse()
            .map_err(|_| format!("{path}:{}: bad max", ln + 1))?;
        let Some(r) = results
            .iter()
            .find(|r| r.mode == "learned" && r.stage == stage && r.scheme == scheme)
        else {
            // Envelope rows for stages/schemes outside this run's subset
            // are ignored, so one checked-in file covers quick and full.
            continue;
        };
        let v = match metric {
            "decode_failures" => r.decode_failures,
            "in_die_retries" => r.in_die_retries,
            other => return Err(format!("{path}:{}: unknown metric {other}", ln + 1)),
        };
        if !(lo..=hi).contains(&v) {
            return Err(format!(
                "{stage}/{scheme}/{metric} = {v} outside envelope [{lo}, {hi}]"
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("{path}: no envelope rows matched this run"));
    }
    Ok(checked)
}

/// The sweep's own flags, accepted by `rif-bench run lifetime_sweep` only.
#[derive(Debug, Default)]
pub struct SweepFlags {
    check_envelope: Option<String>,
    write_envelope: Option<String>,
    ci_schemes: bool,
}

/// Usage text of [`SweepFlags`].
pub const FLAGS_USAGE: &str = "[--schemes all|ci] [--check-envelope FILE] [--write-envelope FILE]";

impl SweepFlags {
    /// Splits the sweep-specific flags off `args`; the rest are for the
    /// shared harness parser.
    pub fn split<I>(args: I) -> Result<(SweepFlags, Vec<String>), String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut flags = SweepFlags::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--check-envelope" => {
                    flags.check_envelope = Some(args.next().ok_or("--check-envelope needs a file")?)
                }
                "--write-envelope" => {
                    flags.write_envelope = Some(args.next().ok_or("--write-envelope needs a file")?)
                }
                "--schemes" => match args.next().as_deref() {
                    Some("all") => flags.ci_schemes = false,
                    Some("ci") => flags.ci_schemes = true,
                    _ => return Err("--schemes needs all|ci".into()),
                },
                _ => rest.push(a),
            }
        }
        Ok((flags, rest))
    }
}

/// The registry entry: all schemes, no envelope file.
pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    run_with(opts, &SweepFlags::default(), out)
}

pub fn run_with(
    opts: &HarnessOpts,
    flags: &SweepFlags,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    let n_requests = opts.pick(2_000, 250);
    let schemes: &[RetryKind] = if flags.ci_schemes {
        &CI_SCHEMES
    } else {
        &RetryKind::ALL
    };

    let mut results = Vec::new();
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
        for &scheme in schemes {
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
                results.push(r);
            }
        }
    }

    if let Some(path) = &flags.write_envelope {
        let rows = envelope_rows(&results);
        if let Err(e) = std::fs::write(path, rows) {
            eprintln!("cannot write envelope {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        writeln!(out, "wrote envelope to {path}")?;
    }
    if let Some(path) = &flags.check_envelope {
        match check_envelope(path, &results) {
            Ok(checked) => writeln!(out, "envelope ok: {checked} learned-mode bounds hold")?,
            Err(e) => {
                eprintln!("lifetime_sweep: envelope check failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}
