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

/// Pulls `--flag value` pairs out of `rest` (flags may repeat).
fn flag_map(rest: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            usage();
        }
        let value = it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        });
        out.push((flag.clone(), value.clone()));
    }
    out
}

fn get<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(f, _)| f == name)
        .map(|(_, v)| v.as_str())
}

fn parse_or_usage<T: std::str::FromStr>(v: &str, name: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {name}: `{v}`");
        usage()
    })
}

fn require<'a>(flags: &'a [(String, String)], name: &str) -> &'a str {
    get(flags, name).unwrap_or_else(|| {
        eprintln!("{name} is required");
        usage()
    })
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("rif-cluster: {e}");
    std::process::exit(1);
}

fn directory_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let nodes: Vec<NodeInfo> = flags
        .iter()
        .filter(|(f, _)| f == "--node")
        .map(|(_, v)| match v.split_once('=') {
            Some((id, addr)) if !id.is_empty() && !addr.is_empty() => NodeInfo {
                id: id.to_string(),
                addr: addr.to_string(),
            },
            _ => {
                eprintln!("bad --node `{v}` (want ID=ADDR)");
                usage()
            }
        })
        .collect();
    if nodes.is_empty() {
        eprintln!("--node is required at least once");
        usage();
    }
    let port: u16 = get(&flags, "--port")
        .map(|v| parse_or_usage(v, "--port"))
        .unwrap_or(0);
    let capacity: u64 = get(&flags, "--capacity-gib").map_or(8 << 30, |v| {
        parse_or_usage::<u64>(v, "--capacity-gib")
            .checked_mul(1 << 30)
            .unwrap_or_else(|| {
                eprintln!("bad value for --capacity-gib: `{v}`");
                usage()
            })
    });
    let ranges: u32 = get(&flags, "--ranges")
        .map(|v| parse_or_usage(v, "--ranges"))
        .unwrap_or(4);
    let replicas: u32 = get(&flags, "--replicas")
        .map(|v| parse_or_usage(v, "--replicas"))
        .unwrap_or(1);

    let map = if replicas > 1 {
        ShardMap::replicated(1, capacity, ranges, nodes, replicas).unwrap_or_else(|e| fail(e))
    } else {
        ShardMap::rebalanced(1, capacity, ranges, nodes).unwrap_or_else(|e| fail(e))
    };
    let dir = match get(&flags, "--persist") {
        Some(path) => Directory::start_persistent(map, port, path).unwrap_or_else(|e| fail(e)),
        None => Directory::start(map, port).unwrap_or_else(|e| fail(e)),
    };
    // The sentinel line scripts wait for.
    println!("rif-cluster directory listening on {}", dir.addr());
    dir.join();
}

fn map_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let (epoch, text) = fetch_map_text(require(&flags, "--directory")).unwrap_or_else(|e| fail(e));
    eprintln!("epoch {epoch}");
    print!("{text}");
}

fn migrate_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let range: u32 = parse_or_usage(require(&flags, "--range"), "--range");
    let node = require(&flags, "--node");
    let (epoch, text) =
        request_migrate(require(&flags, "--directory"), range, node).unwrap_or_else(|e| fail(e));
    eprintln!("epoch {epoch}");
    print!("{text}");
}

fn stats_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let text = fetch_cluster_stats(require(&flags, "--directory")).unwrap_or_else(|e| fail(e));
    print!("{text}");
}

/// Exits with the usage text when `flag` has made the routed load's
/// synthetic workload invalid.
fn check_workload(cfg: &RouterConfig, flag: &str) {
    if let Err(e) = cfg.synth().validate() {
        eprintln!("rif-cluster: {flag}: {e}");
        usage();
    }
}

fn load_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let mut cfg = RouterConfig {
        directory: require(&flags, "--directory").to_string(),
        ..RouterConfig::default()
    };
    if let Some(v) = get(&flags, "--requests") {
        cfg.requests = parse_or_usage(v, "--requests");
    }
    if let Some(v) = get(&flags, "--depth") {
        cfg.depth = parse_or_usage(v, "--depth");
    }
    if let Some(v) = get(&flags, "--read-ratio") {
        cfg.read_ratio = parse_or_usage(v, "--read-ratio");
        check_workload(&cfg, "--read-ratio");
    }
    if let Some(v) = get(&flags, "--seed") {
        cfg.seed = parse_or_usage(v, "--seed");
    }
    if let Some(v) = get(&flags, "--request-kib") {
        cfg.request_bytes = parse_or_usage::<u32>(v, "--request-kib")
            .checked_mul(1024)
            .unwrap_or_else(|| {
                eprintln!("bad value for --request-kib: `{v}`");
                usage()
            });
        check_workload(&cfg, "--request-kib");
    }
    let (report, _journal) = run_routed(&cfg).unwrap_or_else(|e| fail(e));
    println!("{}", report.to_json());
}
