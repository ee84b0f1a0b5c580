//! The registry as tier-1 sees it: every experiment has a capture and a
//! documented row, runs at smoke size, and `check`'s comparison catches a
//! single changed byte.

use std::collections::BTreeSet;
use std::process::ExitCode;

use rif_bench::{compare_capture, experiment, HarnessOpts, EXPERIMENTS, RESULTS_DIR};

/// Runs one experiment into a buffer.
fn capture(name: &str, opts: &HarnessOpts) -> (ExitCode, String) {
    let (_, run) = experiment(name).expect("registered");
    let mut buf = Vec::new();
    let code = run(opts, &mut buf).expect("writes to a Vec cannot fail");
    (
        code,
        String::from_utf8(buf).expect("experiments print UTF-8"),
    )
}

fn quick() -> HarnessOpts {
    HarnessOpts {
        quick: true,
        ..HarnessOpts::default()
    }
}

#[test]
fn every_experiment_has_a_capture_and_a_documented_row() {
    let names: BTreeSet<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry name");

    let captures: BTreeSet<String> = std::fs::read_dir(RESULTS_DIR)
        .expect("results/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, captures, "registry vs results/*.txt");

    let doc = std::fs::read_to_string(format!("{RESULTS_DIR}/../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists");
    for name in &names {
        assert!(
            doc.contains(&format!("`{name}`")),
            "EXPERIMENTS.md never mentions `{name}`"
        );
    }
}

#[test]
fn every_experiment_runs_at_smoke_size() {
    // The decode-bound fig03/fig11 included: rif-ldpc builds at opt-level
    // 3 in the dev profile, so each experiment takes ≤ 2.2 s in a dev
    // build (fig17_bandwidth's grid the longest).
    for (name, _) in EXPERIMENTS {
        let (code, text) = capture(name, &quick());
        assert_eq!(code, ExitCode::SUCCESS, "{name} failed its own gate");
        assert!(text.contains("== "), "{name} printed no heading: {text:?}");
    }
}

#[test]
fn compare_capture_names_the_file_and_the_line_of_one_changed_byte() {
    let captured = "== t ==\n  a 1.00\n  b 2.00\n";
    assert_eq!(compare_capture("results/x.txt", captured, captured), Ok(()));

    let perturbed = captured.replace("2.00", "2.01");
    let msg = compare_capture("results/x.txt", captured, &perturbed).unwrap_err();
    assert!(msg.starts_with("results/x.txt:3:"), "{msg}");
    assert!(
        msg.contains("  b 2.00") && msg.contains("  b 2.01"),
        "{msg}"
    );

    // A lost final newline or a truncated output is a difference too.
    let msg = compare_capture("f", captured, captured.trim_end()).unwrap_err();
    assert!(msg.starts_with("f:4:"), "{msg}");
    let msg = compare_capture("f", captured, "== t ==\n").unwrap_err();
    assert!(msg.starts_with("f:2:"), "{msg}");
}

#[test]
fn thread_count_changes_no_byte() {
    // One Monte-Carlo sweep and the two simulated sweeps that fan out.
    for name in [
        "fig10_syndrome_correlation",
        "ablation_rho_sweep",
        "fig17_bandwidth",
    ] {
        let with = |threads| {
            let opts = HarnessOpts {
                csv: true,
                threads,
                ..quick()
            };
            capture(name, &opts).1
        };
        assert_eq!(with(1), with(3), "{name}: --threads changed the output");
    }
}
