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

use std::time::Duration;

use rif_server::cli::Flags;
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
/// invalid. The workload fields are checked in the order they are set,
/// so the fault is `flag`'s.
fn check_workload(flags: &Flags, cfg: &LoadConfig, flag: &str) {
    if let Err(e) = cfg.synth().validate() {
        flags.refuse(format_args!("rif-client: {flag}: {e}"));
    }
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

/// The load flags over [`LoadConfig::default`].
fn load_config(flags: &Flags) -> LoadConfig {
    let mut cfg = LoadConfig {
        addr: flags.get("--addr").unwrap_or_default().to_string(),
        ..LoadConfig::default()
    };
    cfg.requests = flags.parsed("--requests").unwrap_or(cfg.requests);
    cfg.connections = (flags.parsed_in("--connections", 1..)).unwrap_or(cfg.connections);
    cfg.depth = flags.parsed_in("--depth", 1..).unwrap_or(cfg.depth);
    if let Some(v) = flags.parsed("--read-ratio") {
        cfg.read_ratio = v;
        check_workload(flags, &cfg, "--read-ratio");
    }
    if let Some(v) = flags.parsed("--zipf") {
        cfg.zipf_s = v;
        check_workload(flags, &cfg, "--zipf");
    }
    if let Some(kib) = flags.parsed::<u32>("--request-kib") {
        cfg.request_bytes = kib
            .checked_mul(1024)
            .unwrap_or_else(|| flags.refuse(format_args!("--request-kib {kib} overflows")));
        check_workload(flags, &cfg, "--request-kib");
    }
    cfg.tenant = flags.parsed("--tenant").unwrap_or(cfg.tenant);
    cfg.seed = flags.parsed("--seed").unwrap_or(cfg.seed);
    cfg.max_busy_retries = (flags.parsed("--max-busy-retries")).unwrap_or(cfg.max_busy_retries);
    cfg.request_deadline =
        (flags.parsed("--deadline-ms").map(Duration::from_millis)).unwrap_or(cfg.request_deadline);
    cfg.batch = flags.parsed("--batch").unwrap_or(cfg.batch);
    cfg
}

fn main() {
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(
        &rest,
        &[
            "--addr",
            "--threads",
            "--requests",
            "--connections",
            "--depth",
            "--read-ratio",
            "--zipf",
            "--request-kib",
            "--tenant",
            "--seed",
            "--max-busy-retries",
            "--deadline-ms",
            "--batch",
            "--speed",
            "--replay",
            "--replay-offline",
            "--scheme",
            "--pe-cycles",
        ],
        &["--stats", "--flush", "--shutdown"],
        usage,
    );
    let cfg = load_config(&flags);
    let threads: Option<usize> = flags.parsed_in("--threads", 1..);
    let speed: f64 = flags.parsed("--speed").unwrap_or(1.0);
    if speed <= 0.0 {
        flags.refuse("--speed must be positive");
    }
    let scheme = (flags.mapped("--scheme", RetryKind::by_label)).unwrap_or(RetryKind::Rif);
    let pe_cycles: u32 = flags.parsed("--pe-cycles").unwrap_or(3000);

    let offline = flags.get("--replay-offline");
    if cfg.addr.is_empty() && offline.is_none() {
        flags.refuse("--addr is required");
    }
    let result = if let Some(path) = offline {
        let cap = load_capture(path);
        let report = Simulator::new(SsdConfig::small(scheme, pe_cycles)).run(&cap.to_trace());
        println!("{}", report.to_json());
        Ok(())
    } else if let Some(path) = flags.get("--replay") {
        let cap = load_capture(path);
        let rcfg = ReplayConfig { speed, base: cfg };
        run_replay_journaled(&rcfg, &cap).map(|(report, journal)| {
            println!("{}", report.to_json());
            let diff = diff_against_capture(&journal, &cap);
            println!("{}", diff.to_json());
            if !diff.pass() {
                std::process::exit(1);
            }
        })
    } else if flags.has("--stats") {
        fetch_stats(&cfg.addr).map(|text| println!("{text}"))
    } else if flags.has("--flush") {
        flush(&cfg.addr).map(|()| println!("flushed"))
    } else if flags.has("--shutdown") {
        send_shutdown(&cfg.addr).map(|()| println!("shutdown acknowledged"))
    } else {
        match threads {
            Some(n) => run_mux_load(&cfg, n),
            None => run_load(&cfg),
        }
        .map(|report| println!("{}", report.to_json()))
    };
    if let Err(e) = result {
        eprintln!("rif-client: {e}");
        std::process::exit(1);
    }
}
