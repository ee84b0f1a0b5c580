//! `rif-client` refuses an out-of-range workload flag with its usage text
//! and exit status 2, before it opens a socket. The address points at the
//! discard port, where nothing listens: a client that got past its flags
//! would fail to connect and exit 1 instead.

use std::process::Command;

#[test]
fn out_of_range_workload_flags_print_usage_and_exit_2() {
    for (flag, value) in [
        ("--zipf", "-1"),
        ("--read-ratio", "1.5"),
        ("--request-kib", "3"),
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
