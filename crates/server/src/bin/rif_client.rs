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
            "--threads" => threads = Some(val("--threads").parse().unwrap_or_else(|_| usage())),
            "--stats" => mode = Mode::Stats,
            "--flush" => mode = Mode::Flush,
            "--shutdown" => mode = Mode::Shutdown,
            "--requests" => cfg.requests = val("--requests").parse().unwrap_or_else(|_| usage()),
            "--connections" => {
                cfg.connections = val("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--depth" => {
                cfg.depth = val("--depth").parse().unwrap_or_else(|_| usage());
                if cfg.depth == 0 {
                    eprintln!("--depth must be positive");
                    usage();
                }
            }
            "--read-ratio" => {
                cfg.read_ratio = val("--read-ratio").parse().unwrap_or_else(|_| usage());
                check_workload(&cfg, "--read-ratio");
            }
            "--zipf" => {
                cfg.zipf_s = val("--zipf").parse().unwrap_or_else(|_| usage());
                check_workload(&cfg, "--zipf");
            }
            "--request-kib" => {
                let kib: u32 = val("--request-kib").parse().unwrap_or_else(|_| usage());
                cfg.request_bytes = kib.checked_mul(1024).unwrap_or_else(|| {
                    eprintln!("--request-kib {kib} overflows");
                    usage()
                });
                check_workload(&cfg, "--request-kib");
            }
            "--tenant" => cfg.tenant = val("--tenant").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--max-busy-retries" => {
                cfg.max_busy_retries = val("--max-busy-retries")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--deadline-ms" => {
                let ms: u64 = val("--deadline-ms").parse().unwrap_or_else(|_| usage());
                cfg.request_deadline = std::time::Duration::from_millis(ms);
            }
            "--batch" => cfg.batch = val("--batch").parse().unwrap_or_else(|_| usage()),
            "--speed" => speed = val("--speed").parse().unwrap_or_else(|_| usage()),
            "--replay" => mode = Mode::Replay(val("--replay")),
            "--replay-offline" => mode = Mode::ReplayOffline(val("--replay-offline")),
            "--scheme" => scheme = RetryKind::by_label(&val("--scheme")).unwrap_or_else(|| usage()),
            "--pe-cycles" => pe_cycles = val("--pe-cycles").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
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
