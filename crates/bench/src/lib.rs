//! The figure/table reproduction harness: one binary, `rif-bench`, over a
//! registry of experiments ([`EXPERIMENTS`]).
//!
//! ```text
//! rif-bench run <name>|--all [flags]   print what the experiment measures
//! rif-bench check [<name>...]          regenerate at full size and compare
//!                                      byte-for-byte with results/<name>.txt
//! rif-bench list                       the registry's names
//! rif-bench trace-check FILES...       replay JSONL traces through the
//!                                      invariant checker
//! ```
//!
//! `run` accepts:
//!
//! * `--quick` — a reduced-cost run (smaller codes / fewer trials /
//!   shorter traces) for smoke testing;
//! * `--csv`   — machine-readable output instead of aligned text tables;
//! * `--seed N` — override the default seed;
//! * `--threads N` — worker threads for the Monte-Carlo sweeps. Trials
//!   use one RNG stream each, so the output is byte-identical for every
//!   thread count;
//! * `--trace-out PREFIX` — each simulated run writes its JSONL trace to
//!   `PREFIX-<label>.jsonl` (`PREFIX-<name>-<label>.jsonl` under
//!   `--all`), then replays it through the [`TraceChecker`]; any
//!   violated invariant ends the run with status 1, so a traced run is
//!   also a correctness check;
//! * `--metrics` — each simulated run collects a
//!   [`rif_events::MetricsRegistry`] and prints its contents as
//!   `# metric <label> <line>` rows.

#![forbid(unsafe_code)]

pub mod experiments;

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use rif_events::trace::JsonlSink;
use rif_ssd::tracecheck::TraceChecker;
use rif_ssd::{RetryKind, SimReport, Simulator, SsdConfig};
use rif_workloads::{Trace, WorkloadProfile};

pub use experiments::EXPERIMENTS;

/// An experiment's entry point: writes what it measures to `out`; the
/// exit code is non-success when the experiment gates on its own result.
pub type RunFn = fn(&HarnessOpts, &mut dyn Write) -> io::Result<ExitCode>;

/// Where the captured full-size outputs live (`results/<name>.txt`).
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Parsed command-line options common to all experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Reduced-cost run.
    pub quick: bool,
    /// Emit CSV instead of a text table.
    pub csv: bool,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Worker threads for trial fan-out (≥ 1; does not affect results).
    pub threads: usize,
    /// Trace-file prefix: each run writes `<prefix>-<label>.jsonl` and is
    /// checked against the engine invariants.
    pub trace_out: Option<String>,
    /// Collect and print per-run metrics.
    pub metrics: bool,
}

/// Why [`HarnessOpts::parse_from`] rejected an argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help`/`-h` was given: print usage and exit successfully.
    Help,
    /// A flag was unknown or malformed.
    Invalid(String),
}

/// The flags [`HarnessOpts::parse_from`] accepts.
pub const FLAGS_USAGE: &str =
    "[--quick] [--csv] [--seed N] [--threads N] [--trace-out PREFIX] [--metrics]";

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            quick: false,
            csv: false,
            seed: 42,
            threads: 1,
            trace_out: None,
            metrics: false,
        }
    }
}

impl HarnessOpts {
    /// Parses the flags after `rif-bench run <name>`.
    pub fn parse_from<I>(args: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = HarnessOpts::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--csv" => opts.csv = true,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ParseError::Invalid("--seed needs an integer".into()))?;
                }
                "--threads" => {
                    opts.threads = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| {
                            ParseError::Invalid("--threads needs an integer ≥ 1".into())
                        })?;
                }
                "--trace-out" => {
                    opts.trace_out =
                        Some(args.next().filter(|s| !s.is_empty()).ok_or_else(|| {
                            ParseError::Invalid("--trace-out needs a path prefix".into())
                        })?);
                }
                "--metrics" => opts.metrics = true,
                "--help" | "-h" => return Err(ParseError::Help),
                other => return Err(ParseError::Invalid(format!("unknown flag {other}"))),
            }
        }
        Ok(opts)
    }

    /// Picks between a full-scale and quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// A simple aligned-text / CSV table writer.
#[derive(Debug)]
pub struct TableWriter {
    csv: bool,
    widths: Vec<usize>,
}

impl TableWriter {
    /// Creates a writer; `widths` are the per-column widths in text mode.
    pub fn new(csv: bool, widths: &[usize]) -> Self {
        TableWriter {
            csv,
            widths: widths.to_vec(),
        }
    }

    /// Prints one row of cells.
    pub fn row(&self, out: &mut dyn Write, cells: &[String]) -> io::Result<()> {
        if self.csv {
            writeln!(out, "{}", cells.join(","))
        } else {
            let line: Vec<String> = cells
                .iter()
                .zip(self.widths.iter().chain(std::iter::repeat(&12)))
                .map(|(c, w)| format!("{c:>w$}", w = *w))
                .collect();
            writeln!(out, "{}", line.join(" "))
        }
    }

    /// Prints a section heading (suppressed in CSV mode).
    pub fn heading(&self, out: &mut dyn Write, text: &str) -> io::Result<()> {
        if !self.csv {
            writeln!(out, "\n== {text} ==")?;
        }
        Ok(())
    }
}

/// The three wear stages of the evaluation.
pub const PE_STAGES: [u32; 3] = [0, 1000, 2000];

/// Generates a device-saturating variant of a named workload: the paper
/// measures SSD I/O bandwidth, so the offered load must exceed the host
/// link.
pub fn saturating_trace(profile: &WorkloadProfile, n_requests: usize, seed: u64) -> Trace {
    let mut cfg = profile.config();
    cfg.mean_interarrival_ns = 3_000.0; // ≈21 GB/s offered
    cfg.generate(n_requests, seed)
}

/// The trace file a labeled run writes under `--trace-out PREFIX`.
pub fn trace_file(prefix: &str, label: &str) -> String {
    format!("{prefix}-{label}.jsonl")
}

/// Runs one paper-geometry simulation honouring the harness's
/// observability flags (see [`run_observed`]).
pub fn run_paper_sim_observed(
    opts: &HarnessOpts,
    out: &mut dyn Write,
    label: &str,
    retry: RetryKind,
    pe: u32,
    trace: &Trace,
) -> io::Result<SimReport> {
    let mut cfg = SsdConfig::paper(retry, pe);
    cfg.seed = opts.seed;
    run_observed(opts, out, label, cfg, trace)
}

/// Runs one simulation with the harness's observability flags applied
/// ([`run_traced`]); with `--metrics`, the run's
/// [`rif_events::MetricsRegistry`] is then printed to `out`
/// ([`write_metrics`]).
pub fn run_observed(
    opts: &HarnessOpts,
    out: &mut dyn Write,
    label: &str,
    cfg: SsdConfig,
    trace: &Trace,
) -> io::Result<SimReport> {
    let report = run_traced(opts, label, cfg, trace)?;
    write_metrics(out, label, &report)?;
    Ok(report)
}

/// The part of [`run_observed`] that prints nothing, so a sweep can fan
/// it out over worker threads: with `--trace-out PREFIX` the run streams
/// its JSONL trace to `PREFIX-<label>.jsonl`, re-reads the file and
/// replays it through the [`TraceChecker`] — any violation is the
/// returned error; with `--metrics` the report carries the registry.
pub fn run_traced(
    opts: &HarnessOpts,
    label: &str,
    cfg: SsdConfig,
    trace: &Trace,
) -> io::Result<SimReport> {
    let mut sim = Simulator::new(cfg);
    if opts.metrics {
        sim = sim.with_metrics();
    }
    let path = opts.trace_out.as_deref().map(|p| trace_file(p, label));
    if let Some(path) = &path {
        let f = File::create(path).map_err(|e| named(path, e))?;
        sim = sim.with_tracer(Box::new(JsonlSink::new(BufWriter::new(f))));
    }
    let report = sim.run(trace);
    if let Some(path) = &path {
        let text = std::fs::read_to_string(path).map_err(|e| named(path, e))?;
        check_trace_text(path, &text)?;
    }
    Ok(report)
}

/// Prints a report's metrics, if it collected any, as
/// `# metric <label> <line>` rows.
pub fn write_metrics(out: &mut dyn Write, label: &str, report: &SimReport) -> io::Result<()> {
    if let Some(m) = &report.metrics {
        for line in m.lines() {
            writeln!(out, "# metric {label} {line}")?;
        }
    }
    Ok(())
}

/// Prefixes an I/O error with the file it concerns.
pub(crate) fn named(path: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{path}: {e}"))
}

/// Parses a JSONL trace and replays it through the [`TraceChecker`];
/// malformed input or any violated invariant is the error, named `what`.
pub fn check_trace_text(what: &str, text: &str) -> io::Result<()> {
    let violations = TraceChecker::check_jsonl(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {e}")))?;
    violations_error(what, &violations)
}

/// `Err` listing the violations of the trace named `what`, if any.
pub fn violations_error<V: std::fmt::Display>(what: &str, violations: &[V]) -> io::Result<()> {
    if violations.is_empty() {
        return Ok(());
    }
    let mut msg = format!("{what}: {} invariant violation(s):", violations.len());
    for v in violations {
        msg.push_str(&format!("\n  {v}"));
    }
    Err(io::Error::other(msg))
}

/// `rif-bench trace-check`: validates JSONL trace files emitted under
/// `--trace-out`; success when every file parses and satisfies all
/// engine invariants.
pub fn trace_check(files: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let mut failed = 0usize;
    for path in files {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| named(path, e))
            .and_then(|text| check_trace_text(path, &text).map(|()| text.lines().count()));
        match checked {
            Ok(lines) => writeln!(out, "{path}: ok ({lines} lines)")?,
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
    }
    Ok(tally(failed, files.len(), "file(s)"))
}

/// The exit code of a pass over `total` items of which `failed` failed.
fn tally(failed: usize, total: usize, what: &str) -> ExitCode {
    if failed == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("{failed} of {total} {what} failed");
    ExitCode::FAILURE
}

/// Looks a registry entry up by name.
pub fn experiment(name: &str) -> Option<&'static (&'static str, RunFn)> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name)
}

/// `Err` naming `file` and the first line where a regenerated output
/// departs from its capture.
pub fn compare_capture(file: &str, captured: &str, regenerated: &str) -> Result<(), String> {
    if captured == regenerated {
        return Ok(());
    }
    // `split`, not `lines`: a missing final newline is a difference too.
    let (mut a, mut b) = (captured.split('\n'), regenerated.split('\n'));
    let mut line = 1;
    loop {
        match (a.next(), b.next()) {
            (x, y) if x == y => line += 1,
            (x, y) => {
                return Err(format!(
                    "{file}:{line}: capture and regenerated output differ\n  captured:    {}\n  regenerated: {}",
                    x.unwrap_or("<end of file>"),
                    y.unwrap_or("<end of output>")
                ))
            }
        }
    }
}

/// `rif-bench check`: regenerates each given experiment at full size
/// with the default options and compares the bytes with
/// `results/<name>.txt`.
pub fn check(entries: &[(&str, RunFn)], out: &mut dyn Write) -> io::Result<ExitCode> {
    let mut failed = 0usize;
    for (name, run) in entries {
        let mut buf = Vec::new();
        let code = run(&HarnessOpts::default(), &mut buf)?;
        let file = format!("results/{name}.txt");
        let captured = std::fs::read_to_string(format!("{RESULTS_DIR}/{name}.txt"))
            .map_err(|e| named(&file, e))?;
        let verdict = if code != ExitCode::SUCCESS {
            Err(format!("{name}: the experiment's own gate failed"))
        } else {
            compare_capture(&file, &captured, &String::from_utf8_lossy(&buf))
        };
        match verdict {
            Ok(()) => writeln!(out, "{name}: ok")?,
            Err(msg) => {
                eprintln!("{msg}");
                failed += 1;
            }
        }
    }
    Ok(tally(failed, entries.len(), "capture(s)"))
}

/// Geometric mean helper (Fig. 17's summary column).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pick_switches_on_quick() {
        let q = HarnessOpts {
            quick: true,
            ..HarnessOpts::default()
        };
        let f = HarnessOpts::default();
        assert_eq!(q.pick(10, 2), 2);
        assert_eq!(f.pick(10, 2), 10);
    }

    fn parse(args: &[&str]) -> Result<HarnessOpts, ParseError> {
        HarnessOpts::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_from_accepts_all_flags() {
        let opts = parse(&["--quick", "--csv", "--seed", "7", "--threads", "4"]).unwrap();
        assert!(opts.quick && opts.csv);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 4);
    }

    #[test]
    fn parse_from_defaults() {
        assert_eq!(parse(&[]).unwrap(), HarnessOpts::default());
    }

    #[test]
    fn parse_from_rejects_unknown_flag() {
        match parse(&["--bogus"]) {
            Err(ParseError::Invalid(msg)) => assert!(msg.contains("--bogus"), "msg {msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn parse_from_help_is_not_an_error_exit() {
        assert_eq!(parse(&["--help"]), Err(ParseError::Help));
        assert_eq!(parse(&["-h"]), Err(ParseError::Help));
    }

    #[test]
    fn parse_from_validates_values() {
        assert!(matches!(parse(&["--seed"]), Err(ParseError::Invalid(_))));
        assert!(matches!(
            parse(&["--seed", "x"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(parse(&["--threads"]), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn parse_from_observability_flags() {
        let opts = parse(&["--trace-out", "/tmp/run", "--metrics"]).unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/run"));
        assert!(opts.metrics);
        assert!(matches!(
            parse(&["--trace-out"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(&["--trace-out", ""]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn trace_file_joins_prefix_and_label() {
        assert_eq!(
            trace_file("out/fig19", "Ali124-RiFSSD-2000"),
            "out/fig19-Ali124-RiFSSD-2000.jsonl"
        );
    }

    #[test]
    fn saturating_trace_overdrives() {
        let p = WorkloadProfile::by_name("Sys0").unwrap();
        let t = saturating_trace(&p, 500, 1);
        let offered = t.total_bytes() as f64 / t.span().as_secs();
        assert!(offered > 12e9, "offered {offered}");
    }
}
