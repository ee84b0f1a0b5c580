//! The storage-service daemon: serves the simulated SSD over loopback TCP.
//!
//! Usage:
//!
//! ```text
//! rif-server [--port N] [--shards N] [--scheme LABEL] [--pe-cycles N]
//!            [--inflight-limit N] [--rate N] [--burst N]
//!            [--time-scale X] [--capacity-gib N] [--queue-depth N]
//!            [--seed N] [--capture FILE] [--max-connections N]
//!            [--write-queue-kib N]
//!            [--learn] [--drift-days-per-sec X] [--hybrid] [--cluster]
//! ```
//!
//! Every connection is served from one readiness-driven event-loop
//! thread. `--max-connections 0` lifts the accept limit; over-limit
//! connects get one `ERROR(conn_limit)` frame and a close. `--write-queue-kib` bounds each connection's response queue
//! (shed `BUSY` past the limit, stop reading past twice it; 0 =
//! unbounded).
//!
//! Prints `rif-server listening on ADDR` once ready, then runs until a
//! SHUTDOWN frame arrives. `--rate 0` (default) disables rate limiting;
//! `--time-scale 20` (default) plays simulated time 20× faster than wall
//! time. With `--capture FILE` every admitted request is journaled and,
//! once the event loop has exited, written as a captured-trace CSV,
//! replayable offline
//! (`rif-client --replay-offline FILE`) or live (`--replay FILE`).
//! `--learn` switches the shard simulators from the oracle threshold
//! tables to online per-block threshold learning (progress appears under
//! `server.learner.*` in STATS); `--drift-days-per-sec` ages the flash
//! while serving. `--hybrid` runs each shard as a hybrid SLC/QLC device:
//! writes land in the SLC cache and destage to QLC capacity through the
//! background scheduler, whose live counters appear under `server.bg.*`
//! in STATS. `--cluster` runs the server as one node of a
//! multi-node cluster: it starts owning no LBA ranges (everything
//! bounces with `WRONG_SHARD` until the `rif-cluster` directory's first
//! MAP_PUSH) and `--shards` becomes the cluster's total range count.

use rif_server::cli::Flags;
use rif_server::server::{Server, ServerConfig};
use rif_ssd::RetryKind;

fn usage() -> ! {
    eprintln!(
        "usage: rif-server [--port N] [--shards N] [--scheme LABEL] [--pe-cycles N]\n\
         \x20                 [--inflight-limit N] [--rate N] [--burst N] [--time-scale X]\n\
         \x20                 [--capacity-gib N] [--queue-depth N] [--seed N] [--capture FILE]\n\
         \x20                 [--max-connections N] [--write-queue-kib N]\n\
         \x20                 [--learn] [--drift-days-per-sec X] [--hybrid] [--cluster]\n\
         schemes: SENC SWR SWR+ RPSSD RiFSSD SSDone SSDzero"
    );
    std::process::exit(2);
}

fn main() {
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(
        &rest,
        &[
            "--port",
            "--shards",
            "--scheme",
            "--pe-cycles",
            "--inflight-limit",
            "--rate",
            "--burst",
            "--time-scale",
            "--capacity-gib",
            "--queue-depth",
            "--seed",
            "--capture",
            "--max-connections",
            "--write-queue-kib",
            "--drift-days-per-sec",
        ],
        &["--learn", "--hybrid", "--cluster"],
        usage,
    );
    let too_large = |flag: &str| -> ! { flags.refuse(format_args!("{flag}: value too large")) };
    let d = ServerConfig::default();
    let capture_path = flags.get("--capture");
    let cfg = ServerConfig {
        shards: flags.parsed("--shards").unwrap_or(d.shards),
        retry: flags
            .mapped("--scheme", RetryKind::by_label)
            .unwrap_or(d.retry),
        pe_cycles: flags.parsed("--pe-cycles").unwrap_or(d.pe_cycles),
        inflight_limit: flags.parsed("--inflight-limit").unwrap_or(d.inflight_limit),
        rate_per_sec: flags.parsed("--rate").unwrap_or(d.rate_per_sec),
        burst: flags.parsed("--burst").unwrap_or(d.burst),
        time_scale: flags.parsed("--time-scale").unwrap_or(d.time_scale),
        capacity_bytes: flags
            .parsed::<u64>("--capacity-gib")
            .map_or(d.capacity_bytes, |gib| {
                gib.checked_mul(1 << 30)
                    .unwrap_or_else(|| too_large("--capacity-gib"))
            }),
        queue_depth: flags.parsed("--queue-depth").unwrap_or(d.queue_depth),
        seed: flags.parsed("--seed").unwrap_or(d.seed),
        capture: capture_path.is_some(),
        max_connections: flags
            .parsed("--max-connections")
            .unwrap_or(d.max_connections),
        write_queue_limit: (flags.parsed::<usize>("--write-queue-kib")).map_or(
            d.write_queue_limit,
            |kib| {
                kib.checked_mul(1024)
                    .unwrap_or_else(|| too_large("--write-queue-kib"))
            },
        ),
        learn: flags.has("--learn"),
        hybrid: flags.has("--hybrid"),
        cluster: flags.has("--cluster"),
        drift_days_per_sec: flags
            .parsed("--drift-days-per-sec")
            .unwrap_or(d.drift_days_per_sec),
    };
    let port: u16 = flags.parsed("--port").unwrap_or(0);

    let server = match Server::start(cfg, port) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rif-server: cannot start: {e}");
            std::process::exit(1);
        }
    };
    // The sentinel line CI and scripts wait for; flushed immediately.
    println!("rif-server listening on {}", server.local_addr());
    server.wait_for_shutdown();
    if let Some(path) = capture_path {
        // The loop has exited, every admission resolved: outcomes are final.
        let cap = server.capture();
        match std::fs::write(path, cap.to_csv()) {
            Ok(()) => println!("rif-server: captured {} requests to {path}", cap.len()),
            Err(e) => {
                eprintln!("rif-server: cannot write capture {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    server.stop();
    println!("rif-server: shut down cleanly");
}
