//! Cluster driver for the RiF serving layer.
//!
//! Usage:
//!
//! ```text
//! rif-cluster directory --node ID=ADDR [--node ID=ADDR ...]
//!                       [--port N] [--capacity-gib N] [--ranges N]
//!                       [--replicas N] [--persist PATH]
//! rif-cluster map --directory ADDR
//! rif-cluster migrate --directory ADDR --range N --node ID
//! rif-cluster stats --directory ADDR
//! rif-cluster load --directory ADDR [--requests N] [--depth N]
//!                  [--read-ratio X] [--seed N] [--request-kib N]
//! ```
//!
//! `directory` starts the shard directory over the listed nodes (each a
//! running `rif-server --cluster`), pushes the initial map to them, and
//! serves until a wire `SHUTDOWN`. It prints the sentinel line
//! `rif-cluster directory listening on ADDR` once ready. `--replicas 2`
//! builds a replicated map (each range a primary plus rendezvous-ranked
//! followers); `--persist PATH` makes the map durable — a restarted
//! directory resumes from the persisted epoch, ignoring the argument
//! map, and refuses a corrupt file instead of silently starting over.
//!
//! `map`, `migrate`, and `stats` are one-shot admin RPCs against a
//! running directory. `load` runs the routed closed-loop client and
//! prints its JSON report.
//!
//! A flag the subcommand does not list, a bad value or `--depth 0`
//! prints the usage text and exits 2.

use rif_cluster::cli::Flags;
use rif_cluster::directory::{fetch_cluster_stats, fetch_map_text, request_migrate};
use rif_cluster::{run_routed, Directory, NodeInfo, RouterConfig, ShardMap};

fn usage() -> ! {
    eprintln!(
        "usage: rif-cluster directory --node ID=ADDR [--node ID=ADDR ...]\n\
         \x20                          [--port N] [--capacity-gib N] [--ranges N]\n\
         \x20                          [--replicas N] [--persist PATH]\n\
         \x20      rif-cluster map --directory ADDR\n\
         \x20      rif-cluster migrate --directory ADDR --range N --node ID\n\
         \x20      rif-cluster stats --directory ADDR\n\
         \x20      rif-cluster load --directory ADDR [--requests N] [--depth N]\n\
         \x20                       [--read-ratio X] [--seed N] [--request-kib N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());
    let rest: Vec<String> = args.collect();
    match mode.as_str() {
        "directory" => directory_cmd(&rest),
        "map" => map_cmd(&rest),
        "migrate" => migrate_cmd(&rest),
        "stats" => stats_cmd(&rest),
        "load" => load_cmd(&rest),
        _ => usage(),
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("rif-cluster: {e}");
    std::process::exit(1);
}

fn directory_cmd(rest: &[String]) {
    let flags = Flags::parse(
        rest,
        &[
            "--node",
            "--port",
            "--capacity-gib",
            "--ranges",
            "--replicas",
            "--persist",
        ],
        usage,
    );
    let nodes: Vec<NodeInfo> = flags
        .all("--node")
        .map(|v| match v.split_once('=') {
            Some((id, addr)) if !id.is_empty() && !addr.is_empty() => NodeInfo {
                id: id.to_string(),
                addr: addr.to_string(),
            },
            _ => flags.refuse(format_args!("bad --node `{v}` (want ID=ADDR)")),
        })
        .collect();
    if nodes.is_empty() {
        flags.refuse("--node is required at least once");
    }
    let port: u16 = flags.parsed("--port").unwrap_or(0);
    let capacity = flags
        .parsed::<u64>("--capacity-gib")
        .map_or(8 << 30, |gib| {
            gib.checked_mul(1 << 30).unwrap_or_else(|| {
                flags.refuse(format_args!("bad value for --capacity-gib: `{gib}`"))
            })
        });
    let ranges: u32 = flags.parsed("--ranges").unwrap_or(4);
    let replicas: u32 = flags.parsed("--replicas").unwrap_or(1);

    let map = if replicas > 1 {
        ShardMap::replicated(1, capacity, ranges, nodes, replicas).unwrap_or_else(|e| fail(e))
    } else {
        ShardMap::rebalanced(1, capacity, ranges, nodes).unwrap_or_else(|e| fail(e))
    };
    let dir = match flags.get("--persist") {
        Some(path) => Directory::start_persistent(map, port, path).unwrap_or_else(|e| fail(e)),
        None => Directory::start(map, port).unwrap_or_else(|e| fail(e)),
    };
    // The sentinel line scripts wait for.
    println!("rif-cluster directory listening on {}", dir.addr());
    dir.join();
}

fn map_cmd(rest: &[String]) {
    let flags = Flags::parse(rest, &["--directory"], usage);
    let (epoch, text) = fetch_map_text(flags.require("--directory")).unwrap_or_else(|e| fail(e));
    eprintln!("epoch {epoch}");
    print!("{text}");
}

fn migrate_cmd(rest: &[String]) {
    let flags = Flags::parse(rest, &["--directory", "--range", "--node"], usage);
    let range: u32 = flags
        .parsed("--range")
        .unwrap_or_else(|| flags.refuse("--range is required"));
    let node = flags.require("--node");
    let (epoch, text) =
        request_migrate(flags.require("--directory"), range, node).unwrap_or_else(|e| fail(e));
    eprintln!("epoch {epoch}");
    print!("{text}");
}

fn stats_cmd(rest: &[String]) {
    let flags = Flags::parse(rest, &["--directory"], usage);
    let text = fetch_cluster_stats(flags.require("--directory")).unwrap_or_else(|e| fail(e));
    print!("{text}");
}

/// Exits with the usage text when `flag` has made the routed load's
/// synthetic workload invalid.
fn check_workload(flags: &Flags, cfg: &RouterConfig, flag: &str) {
    if let Err(e) = cfg.synth().validate() {
        flags.refuse(format_args!("rif-cluster: {flag}: {e}"));
    }
}

fn load_cmd(rest: &[String]) {
    let flags = Flags::parse(
        rest,
        &[
            "--directory",
            "--requests",
            "--depth",
            "--read-ratio",
            "--seed",
            "--request-kib",
        ],
        usage,
    );
    let mut cfg = RouterConfig {
        directory: flags.require("--directory").to_string(),
        ..RouterConfig::default()
    };
    cfg.requests = flags.parsed("--requests").unwrap_or(cfg.requests);
    cfg.depth = flags.parsed_in("--depth", 1..).unwrap_or(cfg.depth);
    if let Some(v) = flags.parsed("--read-ratio") {
        cfg.read_ratio = v;
        check_workload(&flags, &cfg, "--read-ratio");
    }
    cfg.seed = flags.parsed("--seed").unwrap_or(cfg.seed);
    if let Some(kib) = flags.parsed::<u32>("--request-kib") {
        cfg.request_bytes = kib
            .checked_mul(1024)
            .unwrap_or_else(|| flags.refuse(format_args!("bad value for --request-kib: `{kib}`")));
        check_workload(&flags, &cfg, "--request-kib");
    }
    let (report, _journal) = run_routed(&cfg).unwrap_or_else(|e| fail(e));
    println!("{}", report.to_json());
}
