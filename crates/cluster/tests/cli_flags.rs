//! `rif-cluster` refuses a bad command line with its usage text and exit
//! status 2, before it binds or connects: a `--capacity-gib` that
//! overflows once scaled to bytes, a zero `--depth`, and a flag its
//! subcommand does not know. The addresses point at the discard port,
//! where nothing listens: a command that got past its flags would fail to
//! connect and exit 1 instead.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Runs `rif-cluster` with `args` and returns its exit code and stderr.
/// A directory still running after five seconds accepted its flags and
/// is serving: it is killed and reads as no exit code.
fn run_briefly(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rif-cluster"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rif-cluster starts");
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

#[test]
fn oversized_capacity_prints_usage_and_exits_2() {
    // 2^34 + 1 GiB is 2^64 + 2^30 bytes: a shift keeps only the 1 GiB.
    let (code, stderr) = run_briefly(&[
        "directory",
        "--node",
        "a=127.0.0.1:9",
        "--port",
        "0",
        "--capacity-gib",
        "17179869185",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--capacity-gib"), "{stderr}");
    assert!(stderr.contains("usage: rif-cluster"), "{stderr}");
}

#[test]
fn a_zero_window_or_an_unknown_flag_prints_usage_and_exits_2() {
    for (args, says) in [
        (
            &["load", "--directory", "127.0.0.1:9", "--depth", "0"][..],
            "--depth",
        ),
        (
            &["stats", "--directory", "127.0.0.1:9", "--bogus", "1"],
            "--bogus",
        ),
        (
            &["map", "--directory", "127.0.0.1:9", "--range", "0"],
            "--range",
        ),
        (
            &["load", "--directory", "127.0.0.1:9", "--nodes", "2"],
            "--nodes",
        ),
        (
            &["directory", "--node", "a=127.0.0.1:9", "--depth", "4"],
            "--depth",
        ),
    ] {
        let (code, stderr) = run_briefly(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: rif-cluster"), "{args:?}: {stderr}");
    }
}
