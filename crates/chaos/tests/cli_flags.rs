//! `rif-chaos` refuses a bad command line with its usage text and exit
//! status 2 before it starts a scenario: a flag its subcommand does not
//! know, a zero `--depth`, and a `--nodes` or `--replicas` outside what
//! the cluster scenario can build. Each scenario is 50 requests, so one
//! that got past its flags would finish (or, with a zero window, spin)
//! instead.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Runs `rif-chaos` with `args` and returns its exit code and stderr. A
/// run still going after five seconds is killed and reads as no exit
/// code.
fn run_briefly(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rif-chaos"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rif-chaos starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    let code = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status.code();
        }
        if Instant::now() >= deadline {
            child.kill().expect("kill");
            child.wait().expect("reap");
            break None;
        }
        thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    (code, stderr)
}

fn assert_refused(args: &[&str], says: &str) {
    let (code, stderr) = run_briefly(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(says), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: rif-chaos"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flags_print_usage_and_exit_2() {
    assert_refused(
        &["run", "--requests", "50", "--bogus-flag", "7"],
        "--bogus-flag",
    );
    assert_refused(
        &["cluster", "--requests", "50", "--shards", "2"],
        "--shards",
    );
    assert_refused(
        &["schedule", "--frames", "8", "--requests", "50"],
        "--requests",
    );
    assert_refused(
        &["proxy", "--upstream", "127.0.0.1:9", "--nodes", "2"],
        "--nodes",
    );
}

#[test]
fn a_zero_window_prints_usage_and_exits_2() {
    assert_refused(&["run", "--requests", "50", "--depth", "0"], "--depth");
    assert_refused(&["cluster", "--requests", "50", "--depth", "0"], "--depth");
}

#[test]
fn out_of_range_cluster_sizes_print_usage_and_exit_2() {
    assert_refused(&["cluster", "--requests", "50", "--nodes", "0"], "--nodes");
    assert_refused(&["cluster", "--requests", "50", "--nodes", "27"], "--nodes");
    assert_refused(
        &["cluster", "--requests", "50", "--replicas", "0"],
        "--replicas",
    );
    assert_refused(
        &[
            "cluster",
            "--requests",
            "50",
            "--nodes",
            "2",
            "--replicas",
            "3",
        ],
        "--replicas",
    );
}
