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
//! A `--seed` flag overrides any `seed=` inside `--plan`. A flag the
//! subcommand does not list, a bad value, `--depth 0`, or a `cluster`
//! `--nodes` outside 1..=26 or `--replicas` outside 1..=nodes prints the
//! usage text and exits 2.

use std::time::Duration;

use rif_chaos::plan::{schedule_json, FaultPlan};
use rif_chaos::proxy::ChaosProxy;
use rif_chaos::scenario::{run_scenario, ScenarioConfig};
use rif_server::cli::Flags;
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

/// The `--plan` fault plan, its seed overridden by `seed_override`.
fn parse_plan(flags: &Flags, seed_override: Option<u64>) -> FaultPlan {
    let spec = flags.get("--plan").unwrap_or("");
    let mut plan =
        FaultPlan::parse(spec).unwrap_or_else(|e| flags.refuse(format_args!("rif-chaos: {e}")));
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

/// `--read-ratio`, if given, exiting with the usage text unless the
/// workload generator accepts it (both scenarios keep its other fields
/// valid).
fn read_ratio(flags: &Flags) -> Option<f64> {
    let read_ratio = flags.parsed("--read-ratio")?;
    let synth = SynthConfig {
        read_ratio,
        ..SynthConfig::default()
    };
    if let Err(e) = synth.validate() {
        flags.refuse(format_args!("rif-chaos: --read-ratio: {e}"));
    }
    Some(read_ratio)
}

fn run_cmd(rest: &[String]) {
    let flags = Flags::parse(
        rest,
        &[
            "--seed",
            "--plan",
            "--requests",
            "--connections",
            "--depth",
            "--shards",
            "--time-scale",
            "--deadline-ms",
            "--read-ratio",
            "--workload-seed",
        ],
        &[],
        usage,
    );
    let mut cfg = ScenarioConfig {
        plan: parse_plan(&flags, flags.parsed("--seed")),
        ..ScenarioConfig::default()
    };
    cfg.requests = flags.parsed("--requests").unwrap_or(cfg.requests);
    cfg.connections = flags
        .parsed_in("--connections", 1..)
        .unwrap_or(cfg.connections);
    cfg.depth = flags.parsed_in("--depth", 1..).unwrap_or(cfg.depth);
    cfg.shards = flags.parsed("--shards").unwrap_or(cfg.shards);
    cfg.time_scale = flags.parsed("--time-scale").unwrap_or(cfg.time_scale);
    cfg.request_deadline =
        (flags.parsed("--deadline-ms").map(Duration::from_millis)).unwrap_or(cfg.request_deadline);
    cfg.read_ratio = read_ratio(&flags).unwrap_or(cfg.read_ratio);
    cfg.workload_seed = flags.parsed("--workload-seed").unwrap_or(cfg.workload_seed);

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
    let flags = Flags::parse(
        rest,
        &["--upstream", "--port", "--seed", "--plan"],
        &[],
        usage,
    );
    let upstream = flags.require("--upstream");
    let upstream = upstream
        .parse()
        .unwrap_or_else(|_| flags.refuse(format_args!("bad --upstream address `{upstream}`")));
    let port: u16 = flags.parsed("--port").unwrap_or(0);
    let plan = parse_plan(&flags, flags.parsed("--seed"));

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
    let flags = Flags::parse(
        rest,
        &[
            "--requests",
            "--depth",
            "--ranges",
            "--seed",
            "--read-ratio",
            "--kill-after-ms",
            "--rebalance-after-ms",
            "--nodes",
            "--replicas",
            "--proxied",
            "--plan",
            "--deadline-ms",
            "--migrate-after-ms",
            "--dir-restart-ms",
        ],
        &[],
        usage,
    );
    let ms = |name: &str| flags.parsed(name).map(Duration::from_millis);
    let mut cfg = ClusterScenarioConfig::default();
    cfg.requests = flags.parsed("--requests").unwrap_or(cfg.requests);
    cfg.depth = flags.parsed_in("--depth", 1..).unwrap_or(cfg.depth);
    cfg.ranges = flags.parsed("--ranges").unwrap_or(cfg.ranges);
    cfg.seed = flags.parsed("--seed").unwrap_or(cfg.seed);
    cfg.read_ratio = read_ratio(&flags).unwrap_or(cfg.read_ratio);
    cfg.kill_after = ms("--kill-after-ms").unwrap_or(cfg.kill_after);
    cfg.rebalance_after = ms("--rebalance-after-ms").unwrap_or(cfg.rebalance_after);
    // Node ids are the letters a..=z.
    cfg.nodes = flags.parsed_in("--nodes", 1..=26).unwrap_or(cfg.nodes);
    cfg.replicas = flags
        .parsed_in("--replicas", 1..=cfg.nodes as u32)
        .unwrap_or(cfg.replicas);
    if let Some(v) = flags.parsed::<u32>("--proxied") {
        cfg.proxied = v != 0;
    }
    cfg.request_deadline = ms("--deadline-ms").unwrap_or(cfg.request_deadline);
    cfg.migrate_after = ms("--migrate-after-ms");
    cfg.dir_restart_after = ms("--dir-restart-ms");
    cfg.plan = parse_plan(&flags, Some(cfg.seed));

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
    let flags = Flags::parse(
        rest,
        &["--seed", "--plan", "--conns", "--frames"],
        &[],
        usage,
    );
    let plan = parse_plan(&flags, flags.parsed("--seed"));
    let conns: u64 = flags.parsed("--conns").unwrap_or(2);
    let frames: u64 = flags.parsed("--frames").unwrap_or(256);
    println!("{}", schedule_json(&plan, conns, frames));
}
