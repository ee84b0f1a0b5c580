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

/// Refuses a size flag whose value overflows once scaled to bytes.
fn too_large(flag: &str) -> ! {
    eprintln!("{flag}: value too large");
    usage()
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut port = 0u16;
    let mut capture_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--port" => port = val("--port").parse().unwrap_or_else(|_| usage()),
            "--shards" => cfg.shards = val("--shards").parse().unwrap_or_else(|_| usage()),
            "--scheme" => {
                cfg.retry = RetryKind::by_label(&val("--scheme")).unwrap_or_else(|| usage())
            }
            "--pe-cycles" => cfg.pe_cycles = val("--pe-cycles").parse().unwrap_or_else(|_| usage()),
            "--inflight-limit" => {
                cfg.inflight_limit = val("--inflight-limit").parse().unwrap_or_else(|_| usage())
            }
            "--rate" => cfg.rate_per_sec = val("--rate").parse().unwrap_or_else(|_| usage()),
            "--burst" => cfg.burst = val("--burst").parse().unwrap_or_else(|_| usage()),
            "--time-scale" => {
                cfg.time_scale = val("--time-scale").parse().unwrap_or_else(|_| usage())
            }
            "--capacity-gib" => {
                let gib: u64 = val("--capacity-gib").parse().unwrap_or_else(|_| usage());
                cfg.capacity_bytes = gib
                    .checked_mul(1 << 30)
                    .unwrap_or_else(|| too_large("--capacity-gib"));
            }
            "--queue-depth" => {
                cfg.queue_depth = val("--queue-depth").parse().unwrap_or_else(|_| usage())
            }
            "--seed" => cfg.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--capture" => {
                capture_path = Some(val("--capture"));
                cfg.capture = true;
            }
            "--max-connections" => {
                cfg.max_connections = val("--max-connections").parse().unwrap_or_else(|_| usage())
            }
            "--write-queue-kib" => {
                let kib: usize = val("--write-queue-kib").parse().unwrap_or_else(|_| usage());
                cfg.write_queue_limit = kib
                    .checked_mul(1024)
                    .unwrap_or_else(|| too_large("--write-queue-kib"));
            }
            "--learn" => cfg.learn = true,
            "--hybrid" => cfg.hybrid = true,
            "--cluster" => cfg.cluster = true,
            "--drift-days-per-sec" => {
                cfg.drift_days_per_sec = val("--drift-days-per-sec")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }

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
        match std::fs::write(&path, cap.to_csv()) {
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
