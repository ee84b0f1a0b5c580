//! The closed-loop load generator / control client for `rif-server`.
//!
//! Load mode (default) prints one JSON report to stdout:
//!
//! ```text
//! rif-client --addr 127.0.0.1:PORT [--requests N] [--connections N]
//!            [--depth N] [--read-ratio X] [--zipf X] [--request-kib N]
//!            [--tenant N] [--seed N] [--max-busy-retries N] [--batch N]
//!            [--deadline-ms N] [--threads N]
//! ```
//!
//! `--batch N` packs up to N requests per BATCH frame. `--threads N`
//! deals the connections onto N worker threads instead of one thread
//! per connection, making ≥10k concurrent connections practical; the
//! engine under them is the same.
//!
//! Replay modes:
//!
//! ```text
//! rif-client --addr ADDR --replay FILE [--speed X] [--batch N]
//!     # drive a captured trace back through the live server at recorded
//!     # (or X-scaled) pacing; prints the load report and the
//!     # capture-vs-journal diff, exits 1 unless the diff passes
//! rif-client --replay-offline FILE [--scheme LABEL] [--pe-cycles N]
//!     # replay a capture through the offline simulator (no server);
//!     # prints the deterministic SimReport JSON
//! ```
//!
//! Control modes:
//!
//! ```text
//! rif-client --addr ADDR --stats      # print the server's metrics lines
//! rif-client --addr ADDR --flush     # drain all shards, then return
//! rif-client --addr ADDR --shutdown  # stop the server
//! ```

use std::str::FromStr;

use rif_server::client::{fetch_stats, flush, run_load, run_mux_load, send_shutdown, LoadConfig};
use rif_server::replay::{diff_against_capture, run_replay_journaled, ReplayConfig};
use rif_ssd::{RetryKind, Simulator, SsdConfig};
use rif_workloads::Capture;

fn usage() -> ! {
    eprintln!(
        "usage: rif-client --addr HOST:PORT [--stats|--flush|--shutdown]\n\
         \x20                 [--requests N] [--connections N] [--depth N]\n\
         \x20                 [--read-ratio X] [--zipf X] [--request-kib N]\n\
         \x20                 [--tenant N] [--seed N] [--max-busy-retries N]\n\
         \x20                 [--batch N] [--deadline-ms N] [--replay FILE] [--speed X]\n\
         \x20                 [--threads N]\n\
         \x20      rif-client --replay-offline FILE [--scheme LABEL] [--pe-cycles N]"
    );
    std::process::exit(2);
}

/// `value` parsed as a `T`; otherwise the usage text, after naming `flag`
/// and the value it could not read.
fn parse<T: FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: `{value}`");
        usage()
    })
}

/// Exits with the usage text after `flag`'s complaint unless `n` is
/// positive.
fn positive(flag: &str, n: usize) -> usize {
    if n == 0 {
        eprintln!("{flag} must be positive");
        usage();
    }
    n
}

/// Exits with the usage text when `flag` has made the synthetic workload
/// invalid. The other workload fields are defaults or were checked when
/// their own flags were read, so the fault is `flag`'s.
fn check_workload(cfg: &LoadConfig, flag: &str) {
    if let Err(e) = cfg.synth().validate() {
        eprintln!("rif-client: {flag}: {e}");
        usage();
    }
}

enum Mode {
    Load,
    Stats,
    Flush,
    Shutdown,
    Replay(String),
    ReplayOffline(String),
}

fn load_capture(path: &str) -> Capture {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("rif-client: cannot read capture {path}: {e}");
        std::process::exit(1);
    });
    Capture::parse_csv(&text).unwrap_or_else(|e| {
        eprintln!("rif-client: malformed capture {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let mut cfg = LoadConfig::default();
    let mut mode = Mode::Load;
    let mut threads: Option<usize> = None;
    let mut speed = 1.0f64;
    let mut scheme = RetryKind::Rif;
    let mut pe_cycles = 3000u32;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = val("--addr"),
            "--threads" => {
                threads = Some(positive("--threads", parse("--threads", &val("--threads"))))
            }
            "--stats" => mode = Mode::Stats,
            "--flush" => mode = Mode::Flush,
            "--shutdown" => mode = Mode::Shutdown,
            "--requests" => cfg.requests = parse("--requests", &val("--requests")),
            "--connections" => {
                cfg.connections = positive(
                    "--connections",
                    parse("--connections", &val("--connections")),
                )
            }
            "--depth" => cfg.depth = positive("--depth", parse("--depth", &val("--depth"))),
            "--read-ratio" => {
                cfg.read_ratio = parse("--read-ratio", &val("--read-ratio"));
                check_workload(&cfg, "--read-ratio");
            }
            "--zipf" => {
                cfg.zipf_s = parse("--zipf", &val("--zipf"));
                check_workload(&cfg, "--zipf");
            }
            "--request-kib" => {
                let kib: u32 = parse("--request-kib", &val("--request-kib"));
                cfg.request_bytes = kib.checked_mul(1024).unwrap_or_else(|| {
                    eprintln!("--request-kib {kib} overflows");
                    usage()
                });
                check_workload(&cfg, "--request-kib");
            }
            "--tenant" => cfg.tenant = parse("--tenant", &val("--tenant")),
            "--seed" => cfg.seed = parse("--seed", &val("--seed")),
            "--max-busy-retries" => {
                cfg.max_busy_retries = parse("--max-busy-retries", &val("--max-busy-retries"))
            }
            "--deadline-ms" => {
                let ms: u64 = parse("--deadline-ms", &val("--deadline-ms"));
                cfg.request_deadline = std::time::Duration::from_millis(ms);
            }
            "--batch" => cfg.batch = parse("--batch", &val("--batch")),
            "--speed" => speed = parse("--speed", &val("--speed")),
            "--replay" => mode = Mode::Replay(val("--replay")),
            "--replay-offline" => mode = Mode::ReplayOffline(val("--replay-offline")),
            "--scheme" => {
                let label = val("--scheme");
                scheme = RetryKind::by_label(&label).unwrap_or_else(|| {
                    eprintln!("bad value for --scheme: `{label}`");
                    usage()
                })
            }
            "--pe-cycles" => pe_cycles = parse("--pe-cycles", &val("--pe-cycles")),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if speed <= 0.0 {
        eprintln!("--speed must be positive");
        usage();
    }
    if cfg.addr.is_empty() && !matches!(mode, Mode::ReplayOffline(_)) {
        eprintln!("--addr is required");
        usage();
    }

    let result = match mode {
        Mode::Stats => fetch_stats(&cfg.addr).map(|text| println!("{text}")),
        Mode::Flush => flush(&cfg.addr).map(|()| println!("flushed")),
        Mode::Shutdown => send_shutdown(&cfg.addr).map(|()| println!("shutdown acknowledged")),
        Mode::Load => match threads {
            Some(n) => run_mux_load(&cfg, n),
            None => run_load(&cfg),
        }
        .map(|report| println!("{}", report.to_json())),
        Mode::Replay(path) => {
            let cap = load_capture(&path);
            let rcfg = ReplayConfig {
                speed,
                base: cfg.clone(),
            };
            run_replay_journaled(&rcfg, &cap).map(|(report, journal)| {
                println!("{}", report.to_json());
                let diff = diff_against_capture(&journal, &cap);
                println!("{}", diff.to_json());
                if !diff.pass() {
                    std::process::exit(1);
                }
            })
        }
        Mode::ReplayOffline(path) => {
            let cap = load_capture(&path);
            let report = Simulator::new(SsdConfig::small(scheme, pe_cycles)).run(&cap.to_trace());
            println!("{}", report.to_json());
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("rif-client: {e}");
        std::process::exit(1);
    }
}
