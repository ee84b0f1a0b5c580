//! `rif-client` refuses an out-of-range workload flag, a zero send
//! window, connection count or worker count, a value it cannot read and
//! a flag it does not know with its usage text and exit status 2, before
//! it opens a socket. The address points at the discard port, where
//! nothing listens: a client that got past its flags would fail to
//! connect and exit 1 instead. `rif-server` refuses a size flag that
//! overflows once scaled to bytes, a value it cannot read, a flag it does
//! not know and a stray word the same way, before it binds.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn out_of_range_workload_flags_print_usage_and_exit_2() {
    for (flag, value) in [
        ("--zipf", "-1"),
        ("--read-ratio", "1.5"),
        ("--request-kib", "3"),
        ("--depth", "0"),
        ("--connections", "0"),
        ("--threads", "0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rif-client"))
            .args(["--addr", "127.0.0.1:9", "--requests", "10", flag, value])
            .output()
            .expect("rif-client runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains("usage: rif-client"),
            "{flag} {value}: {stderr}"
        );
    }
}

#[test]
fn an_unreadable_value_or_an_unknown_flag_is_named_before_the_usage_text() {
    for (flag, value) in [
        ("--requests", "abc"),
        ("--threads", "-1"),
        ("--zipf", "x"),
        ("--scheme", "NOPE"),
        ("--bogus", "1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rif-client"))
            .args(["--addr", "127.0.0.1:9", flag, value])
            .output()
            .expect("rif-client runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        let named = match flag {
            "--bogus" => format!("unknown flag `{flag}`"),
            _ => format!("bad value for {flag}: `{value}`"),
        };
        let (says, usage) = (stderr.find(&named), stderr.find("usage: rif-client"));
        assert!(says.is_some() && says < usage, "{flag} {value}: {stderr}");
    }
}

/// Runs `bin` with `args` and returns its exit code and stderr. A binary
/// still running after five seconds accepted its flags and is serving: it
/// is killed and reads as no exit code.
fn run_briefly(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
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
fn oversized_size_flags_print_usage_and_exit_2() {
    // 2^34 + 1 GiB is 2^64 + 2^30 bytes: a shift keeps only the 1 GiB.
    // 2^54 KiB is 2^64 bytes.
    for (flag, value) in [
        ("--capacity-gib", "17179869185"),
        ("--write-queue-kib", "18014398509481984"),
    ] {
        let (code, stderr) = run_briefly(
            env!("CARGO_BIN_EXE_rif-server"),
            &["--port", "0", flag, value],
        );
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains("usage: rif-server"),
            "{flag} {value}: {stderr}"
        );
    }
}

#[test]
fn rif_server_names_a_bad_value_an_unknown_flag_or_a_stray_word_before_the_usage_text() {
    for (args, named) in [
        (&["--shards", "abc"][..], "bad value for --shards: `abc`"),
        (&["--port", "x"], "bad value for --port: `x`"),
        (&["--scheme", "NOPE"], "bad value for --scheme: `NOPE`"),
        (&["--port", "0", "--bogus", "1"], "unknown flag `--bogus`"),
        (&["--port", "0", "serve"], "unknown flag `serve`"),
        (&["--port", "0", "--learn", "1"], "unknown flag `1`"),
        (&["--port", "0", "--seed"], "--seed needs a value"),
    ] {
        let (code, stderr) = run_briefly(env!("CARGO_BIN_EXE_rif-server"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let (says, usage) = (stderr.find(named), stderr.find("usage: rif-server"));
        assert!(says.is_some() && says < usage, "{args:?}: {stderr}");
    }
}
