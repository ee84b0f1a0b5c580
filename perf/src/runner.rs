//! The command line: one workload in this process, the suite with each
//! workload in a child process of its own, and the repeatability check.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use crate::host::{self, Fingerprint};
use crate::json::{self, Value};
use crate::spec::{MetricSpec, Spec};
use crate::stats;
use crate::workloads::{self, Ctx, Report};

const USAGE: &str = "\
usage: rif-perf run    [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
       rif-perf trace  [--workload W] [--seed S] [--seconds N] [--quick]
       rif-perf repeat N [--workload W] [--seed S] [--seconds N] [--quick]

run     every end-to-end metric, tracing off; without --workload each
        workload runs in a child process of its own
trace   the same with spans on: per-layer metrics, span files in perf/out/
repeat  the suite N times on seeds S..S+N; fails if a metric's spread
        (interquartile distance over median) exceeds its bound";

/// Where span files go: `perf/out/`, beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    Run,
    Repeat(usize),
}

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    cmd: Cmd,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let mut opts = Opts {
        cmd: Cmd::Run,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    match it.next().map(String::as_str) {
        Some("run") => {}
        Some("trace") => opts.trace = true,
        Some("repeat") => {
            let n = it
                .next()
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 2)
                .ok_or("repeat needs a count of at least 2")?;
            opts.cmd = Cmd::Repeat(n);
        }
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("missing command".into()),
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

impl Opts {
    /// Length of the timed section: `--seconds`, else a second under
    /// `--quick`, else the contract's `run_seconds`.
    fn seconds(&self, spec: &Spec) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 1.0 } else { spec.run_seconds })
    }

    fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    fn calib_iters(&self, full: u64) -> u64 {
        if self.quick {
            full / 10
        } else {
            full
        }
    }
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rif-perf: {e}\n{USAGE}");
            return 2;
        }
    };
    let spec = Spec::load();
    if let Some(w) = &opts.workload {
        if !spec.workloads.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
            eprintln!(
                "rif-perf: unknown workload {w:?} (one of {})",
                names.join(", ")
            );
            return 2;
        }
    }
    match (&opts.cmd, &opts.workload) {
        (Cmd::Run, Some(name)) => run_one(&opts, &spec, name),
        (Cmd::Run, None) => run_suite(&opts, &spec),
        (Cmd::Repeat(n), _) => repeat(&opts, &spec, *n),
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every end-to-end one (tracing off) or
/// every per-layer one (tracing on). A per-layer metric the workload
/// does not exercise reads 0.
pub fn result_line(spec: &Spec, trace: bool, report: &Report) -> String {
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in wanted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::push_str(&mut s, &m.name);
        s.push_str(":{\"value\":");
        json::push_num(&mut s, report.metrics.get(&m.name).copied().unwrap_or(0.0));
        s.push_str(",\"unit\":");
        json::push_str(&mut s, &m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// A child's (or this process's) parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line)?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let whole = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Value::as_f64)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or(format!("{key} is not a whole number"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit, m.as_object().map(<[_]>::len)) {
                (Some(v), Some(u), Some(2)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name} is not {{value, unit}}")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        correct: doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("correct is not a boolean")?,
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics,
    })
}

fn describe(m: &MetricSpec, value: f64) -> String {
    let bound = m.bound.map_or(String::new(), |b| {
        format!("  may worsen by {:.1}%", b * 100.0)
    });
    format!(
        "  {:<44} {:>16.6} {:<8} {} is better{bound}",
        m.name,
        value,
        m.unit,
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    )
}

/// One workload, in this process.
fn run_one(opts: &Opts, spec: &Spec, name: &str) -> i32 {
    let seconds = opts.seconds(spec);
    let fp = Fingerprint::collect();
    let calib_before = host::calib_mops(opts.calib_iters(host::CALIB_ITERS_RUN));

    // Tracing on: an untraced pass first, so the cost of the spans
    // themselves is known and reported.
    let untraced_rate = opts.trace.then(|| {
        let mut ctx = Ctx::new(opts.seed, seconds, false, 1);
        let report = workloads::run(name, &mut ctx).expect("workload name was checked");
        report.metrics.get("work_per_s").copied().unwrap_or(0.0)
    });
    let mut ctx = Ctx::new(opts.seed, seconds, opts.trace, opts.setups());
    let mut report = workloads::run(name, &mut ctx).expect("workload name was checked");
    let mut span_lines = Vec::new();
    if let Some(untraced) = untraced_rate {
        let traced = report.metrics.get("work_per_s").copied().unwrap_or(0.0);
        let overhead = if traced > 0.0 {
            (untraced / traced - 1.0) * 100.0
        } else {
            0.0
        };
        report.set("trace.overhead_pct", overhead);
        let path = out_dir().join(format!("{name}.spans.jsonl"));
        match ctx.spans.write_jsonl(&path) {
            Ok(()) => span_lines.push(format!(
                "# {} spans written to {}",
                ctx.spans.len(),
                path.display()
            )),
            Err(e) => report.check(false, || format!("cannot write {}: {e}", path.display())),
        }
        span_lines.push("# span totals: name calls total_ms self_ms".into());
        for (span, t) in ctx.spans.totals() {
            span_lines.push(format!(
                "#   {span:<24} {:>9} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    let calib_after = host::calib_mops(opts.calib_iters(host::CALIB_ITERS_RUN));
    report.set("host.calib_mops", calib_before);

    println!(
        "{{\"host\":{{{},\"workload\":\"{name}\",\"seed\":{},\"seconds\":{seconds},\"scale\":{},\
         \"trace\":{},\"calib_mops_before\":{calib_before},\"calib_mops_after\":{calib_after},\"noisy\":{}}}}}",
        fp.json_fields(),
        opts.seed,
        seconds / spec.run_seconds,
        opts.trace,
        host::noisy(calib_before, calib_after)
    );
    for line in span_lines {
        println!("{line}");
    }
    println!(
        "{name}: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        if let Some(&v) = report.metrics.get(&m.name) {
            println!("{}", describe(m, v));
        }
    }
    for m in &spec.end_to_end {
        let present = report.metrics.contains_key(&m.name);
        report.check(present, || {
            format!("end-to-end metric {} was not measured", m.name)
        });
    }
    for v in &report.violations {
        eprintln!("rif-perf: {name}: VIOLATION: {v}");
    }
    println!("{}", result_line(spec, opts.trace, &report));
    if report.correct() {
        0
    } else {
        1
    }
}

/// Runs one workload in a child process and parses its last line.
fn child(opts: &Opts, seconds: f64, name: &str, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    let result = parse_result_line(last).map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    Ok(result)
}

/// The whole suite, each workload in its own child so `peak_rss_mb` and
/// the process's warm state belong to that workload alone.
fn run_suite(opts: &Opts, spec: &Spec) -> i32 {
    let seconds = opts.seconds(spec);
    let fp = Fingerprint::collect();
    let calib_before = host::calib_mops(opts.calib_iters(host::CALIB_ITERS_SUITE));
    let wanted = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut ok = true;
    for (name, why) in &spec.workloads {
        println!("== {name} — {why}");
        match child(opts, seconds, name, opts.seed) {
            Err(e) => {
                eprintln!("rif-perf: {e}");
                ok = false;
            }
            Ok(res) => {
                ok &= res.correct && res.failed == 0;
                println!(
                    "  correct {}  attempted {}  failed {}",
                    res.correct, res.attempted, res.failed
                );
                for (metric, value, _) in &res.metrics {
                    if let Some(m) = wanted.iter().find(|m| &m.name == metric) {
                        // Zero: a layer this workload does not exercise.
                        if !opts.trace || *value != 0.0 {
                            println!("{}", describe(m, *value));
                        }
                    }
                }
            }
        }
    }
    let calib_after = host::calib_mops(opts.calib_iters(host::CALIB_ITERS_SUITE));
    let noisy = host::noisy(calib_before, calib_after);
    println!(
        "{{\"host\":{{{},\"seed\":{},\"seconds\":{seconds},\"scale\":{},\"trace\":{},\
         \"host.calib_mops\":[{calib_before},{calib_after}],\"noisy\":{noisy}}}}}",
        fp.json_fields(),
        opts.seed,
        seconds / spec.run_seconds,
        opts.trace
    );
    if noisy {
        eprintln!(
            "rif-perf: NOISY: the host's speed changed by more than a tenth during the suite"
        );
    }
    exit_code(opts, ok, noisy)
}

/// A noisy host fails a measurement; it does not fail the `--quick`
/// smoke, whose tenth-of-a-second canary any hiccup moves.
fn exit_code(opts: &Opts, ok: bool, noisy: bool) -> i32 {
    if ok && (opts.quick || !noisy) {
        0
    } else {
        1
    }
}

/// The suite `n` times on consecutive seeds; min / median / max / spread
/// of every end-to-end metric per workload, as the driver computes them.
fn repeat(opts: &Opts, spec: &Spec, n: usize) -> i32 {
    let seconds = opts.seconds(spec);
    let opts = Opts {
        trace: false,
        ..opts.clone()
    };
    let calib_before = host::calib_mops(opts.calib_iters(host::CALIB_ITERS_SUITE));
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    let names: Vec<&String> = spec
        .workloads
        .iter()
        .map(|(name, _)| name)
        .filter(|name| opts.workload.as_ref().is_none_or(|w| w == *name))
        .collect();
    for i in 0..n {
        for name in &names {
            match child(&opts, seconds, name, opts.seed + i as u64) {
                Err(e) => {
                    eprintln!("rif-perf: run {i}: {e}");
                    ok = false;
                }
                Ok(res) => {
                    ok &= res.correct && res.failed == 0;
                    for (metric, value, _) in res.metrics {
                        values
                            .entry(((*name).clone(), metric))
                            .or_default()
                            .push(value);
                    }
                }
            }
        }
        eprintln!("rif-perf: repeat {}/{n} done", i + 1);
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for name in &names {
        for m in &spec.end_to_end {
            let Some(v) = values
                .get(&((*name).clone(), m.name.clone()))
                .filter(|v| v.len() >= 2)
            else {
                continue;
            };
            let spread = stats::spread(v);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            // The driver does not bound the spread of setup_s either: only
            // its median is compared between commits.
            let over = spread > bound && m.name != "setup_s";
            ok &= !over;
            let sorted = {
                let mut s = v.clone();
                stats::sort(&mut s);
                s
            };
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}%{}",
                name,
                m.name,
                sorted[0],
                stats::median(v),
                sorted[sorted.len() - 1],
                spread * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
    }
    let calib_after = host::calib_mops(opts.calib_iters(host::CALIB_ITERS_SUITE));
    let noisy = host::noisy(calib_before, calib_after);
    println!(
        "host.calib_mops {calib_before:.1} -> {calib_after:.1}{}",
        if noisy { "  NOISY" } else { "" }
    );
    exit_code(&opts, ok, noisy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args(
            "run --workload serve_node --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve_node"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, Some(10.0), true, false)
        );
        assert!(parse_args(&args("trace --quick")).unwrap().trace);
        assert_eq!(parse_args(&args("repeat 5")).unwrap().cmd, Cmd::Repeat(5));
        for bad in [
            "",
            "frobnicate",
            "repeat",
            "repeat 1",
            "run --seed",
            "run --trace 2",
            "run --seconds 0",
            "run --bogus",
        ] {
            assert!(
                parse_args(&args(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let spec = Spec::load();
        let mut report = Report {
            attempted: 1000,
            ..Report::default()
        };
        for m in &spec.end_to_end {
            report.set(m.name.clone(), 1.25);
        }
        report.set("ssd.page_senses", 42.0);
        for trace in [false, true] {
            let line = result_line(&spec, trace, &report);
            assert!(!line.contains('\n'));
            let parsed = parse_result_line(&line).unwrap();
            assert!(parsed.correct);
            assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
            let wanted = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let names: Vec<&str> = parsed.metrics.iter().map(|m| m.0.as_str()).collect();
            let expect: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, expect);
            for ((_, value, unit), m) in parsed.metrics.iter().zip(wanted) {
                assert!(value.is_finite());
                assert_eq!(unit, &m.unit);
            }
        }
        // A layer the workload does not exercise reads 0, not missing.
        let traced = parse_result_line(&result_line(&spec, true, &report)).unwrap();
        assert!(traced
            .metrics
            .iter()
            .any(|m| m.0 == "ssd.page_senses" && m.1 == 42.0));
        assert!(traced
            .metrics
            .iter()
            .any(|m| m.0 == "cluster.repl.shipped" && m.1 == 0.0));
    }

    #[test]
    fn a_violation_makes_the_line_incorrect() {
        let spec = Spec::load();
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.check(false, || "ledger gap".into());
        let parsed = parse_result_line(&result_line(&spec, false, &report)).unwrap();
        assert!(!parsed.correct);
        assert_eq!(parsed.failed, 1);
        assert!(parse_result_line("{\"correct\":true}").is_err());
    }
}
