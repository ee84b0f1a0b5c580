//! Chaos driver for the RiF serving layer.
//!
//! Usage:
//!
//! ```text
//! rif-chaos run [--seed N] [--plan SPEC] [--requests N] [--connections N]
//!               [--depth N] [--shards N] [--time-scale X] [--deadline-ms N]
//!               [--read-ratio X] [--workload-seed N]
//! rif-chaos proxy --upstream ADDR [--port N] [--seed N] [--plan SPEC]
//! rif-chaos schedule [--seed N] [--plan SPEC] [--conns N] [--frames N]
//! rif-chaos cluster [--requests N] [--depth N] [--ranges N] [--seed N]
//!                   [--read-ratio X] [--kill-after-ms N] [--rebalance-after-ms N]
//!                   [--nodes N] [--replicas N] [--proxied 1] [--plan SPEC]
//!                   [--deadline-ms N] [--migrate-after-ms N] [--dir-restart-ms N]
//! ```
//!
//! `run` executes a full in-process scenario (server + fault proxy +
//! journaled client + worker kills) and prints three JSON lines:
//! `report`, `faults`, and the contract `verdict`. The process exits 0
//! only on a PASS verdict.
//!
//! `proxy` runs the standalone fault-injecting proxy between an existing
//! `rif-client` and `rif-server` (`rif-chaos proxy --upstream 127.0.0.1:7878
//! --seed 42 --plan up.drop=0.1`), printing its listen address once ready.
//!
//! `schedule` prints the deterministic fault schedule for a plan — the
//! reproducibility artifact: same seed, same bytes.
//!
//! `cluster` runs the cluster chaos scenario: `--nodes` cluster nodes
//! behind a shard directory, optionally replicated (`--replicas 2`) and
//! proxied through the fault plane (`--proxied 1`, implied by any rates
//! or `part=` windows in `--plan`), with node kills (`nodekill=` in the
//! plan, or the legacy hottest-node kill at `--kill-after-ms`),
//! asymmetric partitions, an optional migration in flight, and an
//! optional directory restart from its persisted map. Prints `report`,
//! `cluster`, optional `faults`, and `verdict` JSON lines; exits 0 only
//! on PASS (and, when replicated, zero failed replicated reads).
//!
//! A `--seed` flag overrides any `seed=` inside `--plan`.

use std::time::Duration;

use rif_chaos::plan::{schedule_json, FaultPlan};
use rif_chaos::proxy::ChaosProxy;
use rif_chaos::scenario::{run_scenario, ScenarioConfig};
use rif_workloads::SynthConfig;

fn usage() -> ! {
    eprintln!(
        "usage: rif-chaos run [--seed N] [--plan SPEC] [--requests N] [--connections N]\n\
         \x20                    [--depth N] [--shards N] [--time-scale X] [--deadline-ms N]\n\
         \x20                    [--read-ratio X] [--workload-seed N]\n\
         \x20      rif-chaos proxy --upstream ADDR [--port N] [--seed N] [--plan SPEC]\n\
         \x20      rif-chaos schedule [--seed N] [--plan SPEC] [--conns N] [--frames N]\n\
         \x20      rif-chaos cluster [--requests N] [--depth N] [--ranges N] [--seed N]\n\
         \x20                        [--read-ratio X] [--kill-after-ms N] [--rebalance-after-ms N]\n\
         \x20                        [--nodes N] [--replicas N] [--proxied 1] [--plan SPEC]\n\
         \x20                        [--deadline-ms N] [--migrate-after-ms N] [--dir-restart-ms N]\n\
         plan spec: key=value[,key=value...] with keys seed, up.drop, up.delay,\n\
         up.delay_us, up.dup, up.corrupt, up.trunc, up.reset (same for down.*),\n\
         kill=<shard>@<frames>+<restart_ms>, nodekill=<node>@<after_ms>, and\n\
         part=<node>:<up|down>@<after_ms>+<dur_ms> (all repeatable)"
    );
    std::process::exit(2);
}

fn parse_plan(spec: &str, seed_override: Option<u64>) -> FaultPlan {
    let mut plan = FaultPlan::parse(spec).unwrap_or_else(|e| {
        eprintln!("rif-chaos: {e}");
        usage()
    });
    if let Some(seed) = seed_override {
        plan.seed = seed;
    }
    plan
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());
    let rest: Vec<String> = args.collect();
    match mode.as_str() {
        "run" => run_cmd(&rest),
        "proxy" => proxy_cmd(&rest),
        "schedule" => schedule_cmd(&rest),
        "cluster" => cluster_cmd(&rest),
        _ => usage(),
    }
}

/// Pulls `--flag value` pairs out of `rest`; returns (flags, leftovers).
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

/// Parses `--read-ratio`, exiting with the usage text unless the
/// workload generator accepts it (both scenarios keep its other fields
/// valid).
fn parse_read_ratio(v: &str) -> f64 {
    let read_ratio = parse_or_usage(v, "--read-ratio");
    let synth = SynthConfig {
        read_ratio,
        ..SynthConfig::default()
    };
    if let Err(e) = synth.validate() {
        eprintln!("rif-chaos: --read-ratio: {e}");
        usage();
    }
    read_ratio
}

fn run_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let seed = get(&flags, "--seed").map(|v| parse_or_usage(v, "--seed"));
    let plan = parse_plan(get(&flags, "--plan").unwrap_or(""), seed);
    let mut cfg = ScenarioConfig {
        plan,
        ..ScenarioConfig::default()
    };
    if let Some(v) = get(&flags, "--requests") {
        cfg.requests = parse_or_usage(v, "--requests");
    }
    if let Some(v) = get(&flags, "--connections") {
        cfg.connections = parse_or_usage(v, "--connections");
    }
    if let Some(v) = get(&flags, "--depth") {
        cfg.depth = parse_or_usage(v, "--depth");
    }
    if let Some(v) = get(&flags, "--shards") {
        cfg.shards = parse_or_usage(v, "--shards");
    }
    if let Some(v) = get(&flags, "--time-scale") {
        cfg.time_scale = parse_or_usage(v, "--time-scale");
    }
    if let Some(v) = get(&flags, "--deadline-ms") {
        cfg.request_deadline = Duration::from_millis(parse_or_usage(v, "--deadline-ms"));
    }
    if let Some(v) = get(&flags, "--read-ratio") {
        cfg.read_ratio = parse_read_ratio(v);
    }
    if let Some(v) = get(&flags, "--workload-seed") {
        cfg.workload_seed = parse_or_usage(v, "--workload-seed");
    }

    match run_scenario(&cfg) {
        Ok(outcome) => {
            println!("{{\"report\":{}}}", outcome.report.to_json());
            println!(
                "{{\"faults\":{},\"kills_fired\":{}}}",
                outcome.faults.to_json(),
                outcome.kills_fired
            );
            println!("{}", outcome.verdict.to_json());
            std::process::exit(if outcome.verdict.pass { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("rif-chaos: scenario failed: {e}");
            std::process::exit(1);
        }
    }
}

fn proxy_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let upstream = get(&flags, "--upstream").unwrap_or_else(|| usage());
    let upstream = upstream.parse().unwrap_or_else(|_| {
        eprintln!("bad --upstream address `{upstream}`");
        usage()
    });
    let port: u16 = get(&flags, "--port")
        .map(|v| parse_or_usage(v, "--port"))
        .unwrap_or(0);
    let seed = get(&flags, "--seed").map(|v| parse_or_usage(v, "--seed"));
    let plan = parse_plan(get(&flags, "--plan").unwrap_or(""), seed);

    let proxy = match ChaosProxy::start(port, upstream, plan) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rif-chaos: cannot start proxy: {e}");
            std::process::exit(1);
        }
    };
    // The sentinel line scripts wait for.
    println!("rif-chaos proxying on {} -> {upstream}", proxy.local_addr());
    // Standalone mode runs until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cluster_cmd(rest: &[String]) {
    use rif_chaos::cluster::{run_cluster_scenario, ClusterScenarioConfig};
    let flags = flag_map(rest);
    let mut cfg = ClusterScenarioConfig::default();
    if let Some(v) = get(&flags, "--requests") {
        cfg.requests = parse_or_usage(v, "--requests");
    }
    if let Some(v) = get(&flags, "--depth") {
        cfg.depth = parse_or_usage(v, "--depth");
    }
    if let Some(v) = get(&flags, "--ranges") {
        cfg.ranges = parse_or_usage(v, "--ranges");
    }
    if let Some(v) = get(&flags, "--seed") {
        cfg.seed = parse_or_usage(v, "--seed");
    }
    if let Some(v) = get(&flags, "--read-ratio") {
        cfg.read_ratio = parse_read_ratio(v);
    }
    if let Some(v) = get(&flags, "--kill-after-ms") {
        cfg.kill_after = Duration::from_millis(parse_or_usage(v, "--kill-after-ms"));
    }
    if let Some(v) = get(&flags, "--rebalance-after-ms") {
        cfg.rebalance_after = Duration::from_millis(parse_or_usage(v, "--rebalance-after-ms"));
    }
    if let Some(v) = get(&flags, "--nodes") {
        cfg.nodes = parse_or_usage(v, "--nodes");
    }
    if let Some(v) = get(&flags, "--replicas") {
        cfg.replicas = parse_or_usage(v, "--replicas");
    }
    if let Some(v) = get(&flags, "--proxied") {
        cfg.proxied = parse_or_usage::<u32>(v, "--proxied") != 0;
    }
    if let Some(v) = get(&flags, "--deadline-ms") {
        cfg.request_deadline = Duration::from_millis(parse_or_usage(v, "--deadline-ms"));
    }
    if let Some(v) = get(&flags, "--migrate-after-ms") {
        cfg.migrate_after = Some(Duration::from_millis(parse_or_usage(
            v,
            "--migrate-after-ms",
        )));
    }
    if let Some(v) = get(&flags, "--dir-restart-ms") {
        cfg.dir_restart_after = Some(Duration::from_millis(parse_or_usage(v, "--dir-restart-ms")));
    }
    let seed = get(&flags, "--seed").map(|v| parse_or_usage(v, "--seed"));
    cfg.plan = parse_plan(get(&flags, "--plan").unwrap_or(""), seed.or(Some(cfg.seed)));

    match run_cluster_scenario(&cfg) {
        Ok(outcome) => {
            println!("{{\"report\":{}}}", outcome.report.to_json());
            println!(
                "{{\"cluster\":{{\"killed\":\"{}\",\"final_epoch\":{},\"ranges_moved\":{},\
                 \"conn_losses\":{},\"kills_fired\":{},\"partitions_fired\":{},\
                 \"failed_replicated_reads\":{},\"dir_restart_identical\":{}}}}}",
                outcome.killed,
                outcome.final_epoch,
                outcome.ranges_moved,
                outcome.journal.conn_losses,
                outcome.kills_fired,
                outcome.partitions_fired,
                outcome.failed_replicated_reads,
                match outcome.dir_restart_identical {
                    Some(b) => b.to_string(),
                    None => "null".into(),
                },
            );
            if let Some(f) = outcome.faults {
                println!("{{\"faults\":{}}}", f.to_json());
            }
            println!("{}", outcome.verdict.to_json());
            let reads_ok = cfg.replicas < 2 || outcome.failed_replicated_reads == 0;
            std::process::exit(if outcome.verdict.pass && reads_ok {
                0
            } else {
                1
            });
        }
        Err(e) => {
            eprintln!("rif-chaos: cluster scenario failed: {e}");
            std::process::exit(1);
        }
    }
}

fn schedule_cmd(rest: &[String]) {
    let flags = flag_map(rest);
    let seed = get(&flags, "--seed").map(|v| parse_or_usage(v, "--seed"));
    let plan = parse_plan(get(&flags, "--plan").unwrap_or(""), seed);
    let conns: u64 = get(&flags, "--conns")
        .map(|v| parse_or_usage(v, "--conns"))
        .unwrap_or(2);
    let frames: u64 = get(&flags, "--frames")
        .map(|v| parse_or_usage(v, "--frames"))
        .unwrap_or(256);
    println!("{}", schedule_json(&plan, conns, frames));
}
