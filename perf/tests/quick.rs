//! The `--quick` smoke: all five workloads in well under ten seconds,
//! every named metric present and finite, and the driver's command line
//! answered with a well-formed last line.

use std::collections::BTreeSet;
use std::process::Command;

use rif_perf::runner::parse_result_line;
use rif_perf::spec::Spec;
use rif_perf::workloads::{self, Ctx};

#[test]
fn every_workload_reports_every_named_metric() {
    let spec = Spec::load();
    let mut seen = BTreeSet::new();
    for (name, _) in &spec.workloads {
        // The traced pass measures everything the untraced one does,
        // plus the microcells.
        let mut ctx = Ctx::new(11, 0.5, true, 1);
        let report = workloads::run(name, &mut ctx).expect("a workload of the contract");
        assert!(report.correct(), "{name}: {:?}", report.violations);
        assert!(report.attempted > 0 && report.failed == 0, "{name}");
        for m in &spec.end_to_end {
            let v = *report
                .metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{name} did not measure {}", m.name));
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", m.name);
        }
        for (metric, v) in &report.metrics {
            assert!(v.is_finite(), "{name}: {metric} = {v}");
            seen.insert(metric.clone());
        }
        assert!(!ctx.spans.is_empty(), "{name} recorded no spans");
    }
    // Set by the runner around the workload, not by the workload.
    seen.extend([
        "trace.overhead_pct".to_string(),
        "host.calib_mops".to_string(),
    ]);
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(seen.contains(&m.name), "no workload measures {}", m.name);
    }
    // And nothing is measured that the contract does not name.
    let named: BTreeSet<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    for metric in &seen {
        assert!(
            named.contains(metric.as_str()),
            "{metric} is measured but not in BENCHMARK.json"
        );
    }
}

fn rif_perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rif-perf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn the_drivers_command_line_gets_a_contract_result_line() {
    let spec = Spec::load();
    for (trace, wanted) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let (ok, stdout) = rif_perf(&[
            "run",
            "--workload",
            "sim_write_bg",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(ok, "{stdout}");
        assert!(stdout
            .lines()
            .next()
            .is_some_and(|l| l.starts_with("{\"host\":")));
        let result =
            parse_result_line(stdout.lines().last().expect("output")).expect("well-formed");
        assert!(result.correct && result.failed == 0 && result.attempted >= 1);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
        let expect: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, expect);
        assert!(result.metrics.iter().all(|m| m.1.is_finite()));
    }
    assert!(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/sim_write_bg.spans.jsonl"
    ))
    .exists());
}

#[test]
fn the_same_seed_gives_the_same_simulated_numbers() {
    let hash = |seed: &str| {
        let (ok, stdout) = rif_perf(&[
            "run",
            "--workload",
            "sim_read_retry",
            "--seed",
            seed,
            "--seconds",
            "0.3",
            "--trace",
            "1",
            "--quick",
        ]);
        assert!(ok, "{stdout}");
        let result =
            parse_result_line(stdout.lines().last().expect("output")).expect("well-formed");
        let get = |name: &str| result.metrics.iter().find(|m| m.0 == name).expect(name).1;
        (
            get("ssd.report_fnv"),
            get("sim_rif_read_p99_us"),
            get("ssd.page_senses"),
        )
    };
    assert_eq!(hash("3"), hash("3"));
    assert_ne!(hash("3").0, hash("4").0);
}

#[test]
fn bad_command_lines_exit_with_usage() {
    for args in [
        &["frobnicate"][..],
        &["run", "--workload", "nope"],
        &["run", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rif-perf"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
