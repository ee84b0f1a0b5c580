//! `rif-cluster directory` refuses a `--capacity-gib` that overflows once
//! scaled to bytes with its usage text and exit status 2, before it binds.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn oversized_capacity_prints_usage_and_exits_2() {
    // 2^34 + 1 GiB is 2^64 + 2^30 bytes: a shift keeps only the 1 GiB.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rif-cluster"))
        .args(["directory", "--node", "a=127.0.0.1:9", "--port", "0"])
        .args(["--capacity-gib", "17179869185"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rif-cluster starts");
    // A directory that accepted the flag serves until killed.
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
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--capacity-gib"), "{stderr}");
    assert!(stderr.contains("usage: rif-cluster"), "{stderr}");
}
