//! The cluster chaos harness: kills, partitions, and migrations under
//! routed load, audited by the contract checker.
//!
//! `N` cluster nodes serve a shared LBA space behind a shard directory,
//! optionally with per-range replication (`replicas >= 2`: each range
//! has a primary plus rendezvous-chosen followers) and optionally with a
//! fault-injecting [`ChaosProxy`] between the router and every node. A
//! routed closed-loop client drives mixed READ/WRITE traffic while a
//! timeline thread executes the scheduled chaos:
//!
//! - **node kills** — hard-kills ([`Server::kill`]) from the plan's
//!   `nodekill=` schedule (or the legacy hottest-node single kill), each
//!   followed after an outage window by [`rebalance_away`], which on a
//!   replicated map *promotes* surviving followers so the kill loses
//!   capacity but not placement;
//! - **asymmetric partitions** — the plan's `part=` schedule blackholes
//!   one proxy direction only: requests that vanish en route, or
//!   responses that never come back, while the other direction flows;
//! - **migration in flight** — an admin-triggered range migration racing
//!   the faults;
//! - **directory restart** — the directory process stops mid-run and
//!   restarts from its persisted map file, which must restore the epoch
//!   and map byte-identically.
//!
//! The run ends with the same [`ContractChecker`] audit the single-node
//! chaos gate uses, applied to the *whole cluster journal*: every tag
//! the router ever put on the wire resolves exactly once, and
//! `completed + failed + busy_dropped` accounts for every planned
//! request. On a replicated map the outcome additionally counts
//! journal-visible read chains that ended in anything but DONE —
//! [`failed_replicated_reads`], the availability headline: a kill or a
//! one-way partition may cost latency and retries, never the read.
//!
//! [`rebalance_away`]: rif_cluster::Directory::rebalance_away
//! [`failed_replicated_reads`]: ClusterOutcome::failed_replicated_reads

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rif_cluster::{Directory, NodeInfo, RouterConfig, ShardMap};
use rif_server::client::{Journal, LoadReport, Outcome};
use rif_server::server::{Server, ServerConfig};
use rif_workloads::IoOp;

use crate::contract::{ContractChecker, ContractVerdict};
use crate::plan::{Direction, FaultPlan, NodeKillSpec};
use crate::proxy::{ChaosProxy, FaultStatsSnapshot};

/// Knobs for one cluster chaos run.
#[derive(Debug, Clone)]
pub struct ClusterScenarioConfig {
    /// Total requests through the router.
    pub requests: u64,
    /// Router's global in-flight window.
    pub depth: usize,
    /// LBA ranges in the map (each node runs this many shard workers).
    pub ranges: u32,
    /// Fraction of reads in the workload.
    pub read_ratio: f64,
    /// Workload seed.
    pub seed: u64,
    /// Virtual-time acceleration of the simulated devices.
    pub time_scale: f64,
    /// Cluster size.
    pub nodes: usize,
    /// Replication factor (1 = no replication; clamped to `nodes`).
    pub replicas: u32,
    /// Wire a [`ChaosProxy`] between the router and every node even if
    /// the plan carries no rates or partitions.
    pub proxied: bool,
    /// Fault plan: per-direction rates for the proxies, plus the
    /// `nodekill=` and `part=` schedules.
    pub plan: FaultPlan,
    /// Legacy single-kill trigger, used only when the plan has no
    /// `nodekill=` entries: the node owning the most ranges is killed
    /// this far into the load. Zero disables the kill.
    pub kill_after: Duration,
    /// Outage window between each kill and its directory rebalance.
    pub rebalance_after: Duration,
    /// Router's per-request deadline (drives read-failover latency).
    pub request_deadline: Duration,
    /// Kick one admin range migration this far into the load.
    pub migrate_after: Option<Duration>,
    /// Stop the directory this far into the load and restart it from
    /// its persisted map file.
    pub dir_restart_after: Option<Duration>,
}

impl Default for ClusterScenarioConfig {
    fn default() -> Self {
        // Sized so the fault-free load lasts twice the kill + rebalance
        // (250 ms) at the router's measured speed at depth 32 in a release
        // build, 150k rps: the outage must land mid-run, not after the
        // last request settled. (A debug build routes 34k rps; the tests
        // size themselves.)
        ClusterScenarioConfig {
            requests: 80_000,
            depth: 32,
            ranges: 4,
            read_ratio: 0.9,
            seed: 1,
            time_scale: 200.0,
            nodes: 2,
            replicas: 1,
            proxied: false,
            plan: FaultPlan::default(),
            kill_after: Duration::from_millis(150),
            rebalance_after: Duration::from_millis(100),
            request_deadline: Duration::from_secs(2),
            migrate_after: None,
            dir_restart_after: None,
        }
    }
}

/// The artifacts of one cluster chaos run.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The router's aggregate report.
    pub report: LoadReport,
    /// The full cluster-wide request journal.
    pub journal: Journal,
    /// The contract audit over that journal.
    pub verdict: ContractVerdict,
    /// Comma-joined ids of the nodes the scenario killed.
    pub killed: String,
    /// Map epoch after the run (initial map is epoch 1).
    pub final_epoch: u64,
    /// Ranges the first kill's rebalance moved off the dead node.
    pub ranges_moved: usize,
    /// Node kills that actually fired.
    pub kills_fired: usize,
    /// Partition windows that actually opened.
    pub partitions_fired: usize,
    /// Journal-visible read chains that ended in anything but DONE, on a
    /// replicated map (always 0 when `replicas < 2` — the claim only
    /// exists under replication).
    pub failed_replicated_reads: u64,
    /// Fault counters summed across all proxies, when proxied.
    pub faults: Option<FaultStatsSnapshot>,
    /// Whether the restarted directory restored its map byte-identically
    /// (set only when the restart event ran).
    pub dir_restart_identical: Option<bool>,
}

/// One scheduled chaos action on the run's timeline.
enum Event {
    Kill(usize),
    Rebalance(usize),
    PartitionOn(usize, Direction),
    PartitionOff(usize, Direction),
    Migrate,
    DirRestart,
}

/// Runs the cluster chaos scenario and audits the journal.
pub fn run_cluster_scenario(cfg: &ClusterScenarioConfig) -> io::Result<ClusterOutcome> {
    let nodes = cfg.nodes.max(1).min(26);
    let replicas = cfg.replicas.clamp(1, nodes as u32);
    let capacity: u64 = 8 << 30;
    let ids: Vec<String> = (0..nodes)
        .map(|i| ((b'a' + i as u8) as char).to_string())
        .collect();

    let mut servers: Vec<Option<Server>> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        servers.push(Some(Server::start(
            ServerConfig {
                shards: cfg.ranges as usize,
                capacity_bytes: capacity,
                cluster: true,
                time_scale: cfg.time_scale,
                seed: cfg.seed + i as u64,
                ..ServerConfig::default()
            },
            0,
        )?));
    }
    let node_addrs: Vec<String> = servers
        .iter()
        .map(|s| s.as_ref().expect("just started").local_addr().to_string())
        .collect();

    // One proxy per node when faults need a wire to live on. The map
    // then advertises the *proxy* addresses, so router traffic, MAP_PUSH,
    // and primary→follower replication all flow through the fault plane.
    let proxied =
        cfg.proxied || !cfg.plan.partitions.is_empty() || cfg.plan.up.any() || cfg.plan.down.any();
    let mut proxies: Vec<ChaosProxy> = Vec::new();
    if proxied {
        for (i, addr) in node_addrs.iter().enumerate() {
            let upstream = addr
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad node addr"))?;
            // Per-node seed split: same plan, independent schedules.
            let plan = FaultPlan {
                seed: cfg
                    .plan
                    .seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                up: cfg.plan.up,
                down: cfg.plan.down,
                kills: Vec::new(),
                node_kills: Vec::new(),
                partitions: Vec::new(),
            };
            proxies.push(ChaosProxy::start(0, upstream, plan)?);
        }
    }
    let served_addrs: Vec<String> = if proxied {
        proxies.iter().map(|p| p.local_addr().to_string()).collect()
    } else {
        node_addrs.clone()
    };

    let infos: Vec<NodeInfo> = ids
        .iter()
        .zip(&served_addrs)
        .map(|(id, addr)| NodeInfo {
            id: id.clone(),
            addr: addr.clone(),
        })
        .collect();
    let map = ShardMap::replicated(1, capacity, cfg.ranges, infos, replicas)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

    // Kill schedule: the plan's, or the legacy hottest-node single kill.
    let kills: Vec<NodeKillSpec> = if !cfg.plan.node_kills.is_empty() {
        cfg.plan
            .node_kills
            .iter()
            .map(|k| NodeKillSpec {
                node: k.node % nodes,
                after_ms: k.after_ms,
            })
            .collect()
    } else if cfg.kill_after > Duration::ZERO && nodes > 1 {
        let hottest = (0..nodes)
            .max_by_key(|&i| (map.owned_ranges(&ids[i]).len(), nodes - i))
            .expect("at least one node");
        vec![NodeKillSpec {
            node: hottest,
            after_ms: cfg.kill_after.as_millis() as u64,
        }]
    } else {
        Vec::new()
    };
    let ranges_moved = kills
        .first()
        .map(|k| map.owned_ranges(&ids[k.node]).len())
        .unwrap_or(0);

    // Unique per invocation, not per seed: scenarios with equal seeds run
    // concurrently inside one test binary and must not share a file.
    static DIR_PATH_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir_path: Option<PathBuf> = cfg.dir_restart_after.map(|_| {
        std::env::temp_dir().join(format!(
            "rif-dirmap-{}-{}.txt",
            std::process::id(),
            DIR_PATH_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    });
    let dir = match &dir_path {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            Directory::start_persistent(map.clone(), 0, path)?
        }
        None => Directory::start(map.clone(), 0)?,
    };

    let router_cfg = RouterConfig {
        directory: dir.addr().to_string(),
        requests: cfg.requests,
        depth: cfg.depth,
        read_ratio: cfg.read_ratio,
        seed: cfg.seed,
        request_bytes: 16 * 1024,
        // Budget rides out the whole outage window: a dead or partitioned
        // node's ranges bounce on refusals until failover or the
        // rebalance lands.
        max_busy_retries: 500,
        busy_backoff: Duration::from_millis(1),
        request_deadline: cfg.request_deadline,
        ..RouterConfig::default()
    };

    // Assemble the timeline.
    let mut events: Vec<(Duration, Event)> = Vec::new();
    for k in &kills {
        let at = Duration::from_millis(k.after_ms);
        events.push((at, Event::Kill(k.node)));
        events.push((at + cfg.rebalance_after, Event::Rebalance(k.node)));
    }
    if proxied {
        for p in &cfg.plan.partitions {
            let node = p.node % nodes;
            events.push((
                Duration::from_millis(p.after_ms),
                Event::PartitionOn(node, p.dir),
            ));
            events.push((
                Duration::from_millis(p.after_ms + p.dur_ms),
                Event::PartitionOff(node, p.dir),
            ));
        }
    }
    if let Some(at) = cfg.migrate_after {
        events.push((at, Event::Migrate));
    }
    if let Some(at) = cfg.dir_restart_after {
        events.push((at, Event::DirRestart));
    }
    events.sort_by_key(|(at, _)| *at);

    let mut dir = Some(dir);
    let mut killed_ids: Vec<String> = Vec::new();
    let mut kills_fired = 0usize;
    let mut partitions_fired = 0usize;
    let mut dir_restart_identical: Option<bool> = None;
    let started = Instant::now();
    let loaded = thread::scope(|s| {
        let loader = s.spawn(|| rif_cluster::run_routed(&router_cfg));
        for (at, ev) in events {
            let elapsed = started.elapsed();
            if at > elapsed {
                thread::sleep(at - elapsed);
            }
            match ev {
                Event::Kill(n) => {
                    if let Some(node) = servers[n].take() {
                        node.kill();
                        kills_fired += 1;
                        killed_ids.push(ids[n].clone());
                    }
                }
                Event::Rebalance(n) => {
                    if let Some(d) = &dir {
                        d.rebalance_away(&ids[n]).ok();
                    }
                }
                Event::PartitionOn(n, pdir) => {
                    proxies[n].set_partition(pdir, true);
                    partitions_fired += 1;
                }
                Event::PartitionOff(n, pdir) => {
                    proxies[n].set_partition(pdir, false);
                }
                Event::Migrate => {
                    // Move the lowest range owned by a live node onto a
                    // different live node: a handoff racing the faults.
                    if let Some(d) = &dir {
                        let m = d.map();
                        let live = |id: &str| {
                            servers
                                .iter()
                                .zip(&ids)
                                .any(|(srv, sid)| srv.is_some() && sid == id)
                        };
                        let pick = (0..m.ranges).find_map(|r| {
                            let owner = m.node_of(r).id.clone();
                            if !live(&owner) {
                                return None;
                            }
                            ids.iter()
                                .find(|id| **id != owner && live(id))
                                .map(|to| (r, to.clone()))
                        });
                        if let Some((r, to)) = pick {
                            d.migrate(r, &to).ok();
                        }
                    }
                }
                Event::DirRestart => {
                    if let (Some(d), Some(path)) = (dir.take(), &dir_path) {
                        let before = d.map().to_text();
                        d.stop();
                        match Directory::start_persistent(map.clone(), 0, path) {
                            Ok(fresh) => {
                                dir_restart_identical = Some(fresh.map().to_text() == before);
                                dir = Some(fresh);
                            }
                            Err(_) => dir_restart_identical = Some(false),
                        }
                    }
                }
            }
        }
        loader.join().expect("router thread")
    });

    let final_epoch = dir.as_ref().map(|d| d.map().epoch).unwrap_or(0);
    if let Some(d) = dir.take() {
        d.stop();
    }
    for node in servers.into_iter().flatten() {
        node.stop();
    }
    let faults = if proxied {
        let mut sum = FaultStatsSnapshot::default();
        for p in &proxies {
            let s = p.stats();
            sum.conns += s.conns;
            sum.frames_up += s.frames_up;
            sum.frames_down += s.frames_down;
            sum.forwarded += s.forwarded;
            sum.dropped += s.dropped;
            sum.delayed += s.delayed;
            sum.duplicated += s.duplicated;
            sum.corrupted += s.corrupted;
            sum.truncated += s.truncated;
            sum.resets += s.resets;
            sum.partitioned += s.partitioned;
        }
        Some(sum)
    } else {
        None
    };
    for p in proxies {
        p.stop();
    }
    if let Some(path) = &dir_path {
        let _ = std::fs::remove_file(path);
    }

    let (report, journal) = loaded?;
    let verdict = ContractChecker::for_plan(&cfg.plan).check(&journal, &report, cfg.requests);
    let failed_replicated_reads = if replicas >= 2 {
        failed_read_chains(&journal)
    } else {
        0
    };
    Ok(ClusterOutcome {
        report,
        journal,
        verdict,
        killed: killed_ids.join(","),
        final_epoch,
        ranges_moved,
        kills_fired,
        partitions_fired,
        failed_replicated_reads,
        faults,
        dir_restart_identical,
    })
}

/// Counts logical read chains that never resolved DONE. A chain is a
/// root submission plus every re-issue linked to it through `retry_of`
/// (links always carry the chain's root tag); the chain succeeded iff
/// any member completed. Reads the router dropped before ever
/// journaling a submission (budget exhausted on refused connects) are
/// invisible here — they surface as `busy_dropped` in the report
/// instead.
fn failed_read_chains(journal: &Journal) -> u64 {
    let mut chains: HashMap<u64, bool> = HashMap::new();
    for r in journal.records.iter().filter(|r| r.op == IoOp::Read) {
        let root = r.retry_of.unwrap_or(r.tag);
        let done = chains.entry(root).or_insert(false);
        *done |= r.outcome == Some(Outcome::Done);
    }
    chains.values().filter(|&&done| !done).count() as u64
}
