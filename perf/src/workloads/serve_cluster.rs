//! `serve_cluster` — the routed cluster: a directory plus two in-process
//! `--cluster` nodes (two ranges, RF = 2, so every write also ships a
//! `REPLICATE`), closed loop through `rif_cluster::run_routed` at depth
//! 16, 70 % reads, `time_scale` 1.0.
//!
//! Over `serve_node` the extra work is `rif-cluster`'s router, map and
//! directory and `rif-server`'s replication; a router or engine change
//! shows here and must not move `serve_node`.

use std::io;
use std::time::{Duration, Instant};

use rif_cluster::directory::fetch_map_text;
use rif_cluster::{run_routed, Directory, NodeInfo, RouterConfig, ShardMap};
use rif_events::MetricsRegistry;
use rif_server::client::{run_load, LoadConfig};
use rif_server::server::{Server, ServerConfig};

use super::serve_node::{server_config, REQUEST_BYTES};
use super::{repeat_setup, Ctx, Report};
use crate::{micro, stats};

/// Routed requests per second of timed section, frozen on the reference
/// box.
const REQS_PER_SEC: f64 = 12_000.0;
const RANGES: u32 = 2;
const CAPACITY: u64 = 8 << 30;
const DEPTH: usize = 16;
const READ_RATIO: f64 = 0.7;

struct Cluster {
    nodes: Vec<Server>,
    directory: Directory,
}

impl Cluster {
    fn start(seed: u64) -> io::Result<Cluster> {
        let nodes = (0..2)
            .map(|i| {
                Server::start(
                    ServerConfig {
                        shards: RANGES as usize,
                        capacity_bytes: CAPACITY,
                        cluster: true,
                        ..server_config(seed + 16 * i)
                    },
                    0,
                )
            })
            .collect::<io::Result<Vec<Server>>>()?;
        let infos = nodes
            .iter()
            .zip(["a", "b"])
            .map(|(n, id)| NodeInfo {
                id: id.into(),
                addr: n.local_addr().to_string(),
            })
            .collect();
        let map = ShardMap::replicated(1, CAPACITY, RANGES, infos, 2)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        Ok(Cluster {
            directory: Directory::start(map, 0)?,
            nodes,
        })
    }

    fn router(&self, requests: usize, seed: u64) -> RouterConfig {
        RouterConfig {
            directory: self.directory.addr().to_string(),
            requests: requests as u64,
            depth: DEPTH,
            read_ratio: READ_RATIO,
            zipf_s: 0.9,
            request_bytes: REQUEST_BYTES,
            seed,
            ..RouterConfig::default()
        }
    }

    /// Both nodes' registries merged (counters add, gauges max).
    fn metrics(&self) -> MetricsRegistry {
        let mut total = MetricsRegistry::new();
        for n in &self.nodes {
            total.merge(&n.metrics_snapshot());
        }
        total
    }

    fn stop(self) {
        self.directory.stop();
        for n in self.nodes {
            n.stop();
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut r = Report::default();
    let seed = ctx.seed;
    let requests = ctx.scaled(REQS_PER_SEC);

    let setup_span = ctx.spans.begin("setup", 0);
    let (cluster, setup_s) = repeat_setup(
        ctx.setups,
        &mut ctx.speed,
        || {
            let cluster = Cluster::start(seed)?;
            // Warm-up: 5 % of the run's requests, untimed.
            run_routed(&cluster.router((requests / 20).max(DEPTH), seed ^ 0x3A93))?;
            Ok(cluster)
        },
        |old: io::Result<Cluster>| {
            if let Ok(old) = old {
                old.stop();
            }
        },
    );
    ctx.spans.end(setup_span);
    let cluster = match cluster {
        Ok(c) => c,
        Err(e) => {
            r.attempted = 1;
            r.check(false, || format!("set-up failed: {e}"));
            r.finish(setup_s);
            return r;
        }
    };
    let before = cluster.metrics();

    let cfg = cluster.router(requests, seed);
    let routed = ctx.spans.time("cluster.run_routed", 0, || run_routed(&cfg));
    r.attempted = requests as u64;
    match &routed {
        Err(e) => {
            r.failed = requests as u64;
            r.check(false, || format!("run_routed failed: {e}"));
        }
        Ok((report, journal)) => {
            r.failed = requests as u64 - report.completed.min(requests as u64);
            r.check(
                report.completed + report.failed + report.busy_dropped == requests as u64,
                || format!("ledger gap: {report:?}"),
            );
            r.check(
                journal.unknown_receipts == 0 && report.dup_receipts == 0,
                || {
                    format!(
                        "{} unknown and {} duplicate receipts",
                        journal.unknown_receipts, report.dup_receipts
                    )
                },
            );
            r.set("work_per_s", report.throughput_rps);
            r.set("peak_rps", report.throughput_rps);
            // The mean, not `p50_us`: the report's percentiles come from a
            // histogram with 4 % buckets and read identically run after
            // run. Neither is scaled by host speed — a millisecond of
            // this latency is the router's fixed poll tick.
            r.set("lat_us", report.mean_us);
            r.set("closed_p50_us", report.p50_us);
            r.set("cluster.wrong_shard", report.wrong_shard as f64);
        }
    }

    // The nodes' own view of the timed run. Replication is asynchronous:
    // give the last shipments a moment to be acknowledged.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut after = cluster.metrics();
    while after.counter("server.repl.acked") < after.counter("server.repl.shipped")
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
        after = cluster.metrics();
    }
    let delta = |key: &str| after.counter(key).saturating_sub(before.counter(key)) as f64;
    let shipped = delta("server.repl.shipped");
    r.set("cluster.repl.shipped", shipped);
    r.set(
        "cluster.repl.acked_share",
        if shipped > 0.0 {
            delta("server.repl.acked") / shipped
        } else {
            0.0
        },
    );
    r.set(
        "cluster.follower_reads",
        delta("server.repl.follower_reads"),
    );
    r.check(shipped > 0.0, || {
        "no write was replicated although RF = 2".into()
    });
    // Writes shipped but not yet acknowledged by every follower, worst
    // range: shipped sequence numbers run ahead of the watermark.
    let lag = cluster
        .nodes
        .iter()
        .map(|n| {
            let m = n.metrics_snapshot();
            let marks: f64 = (0..RANGES)
                .filter_map(|range| m.gauge(&format!("server.repl.watermark.range{range}")))
                .sum();
            (m.counter("server.repl.shipped") as f64 - marks).max(0.0)
        })
        .fold(0.0, f64::max);
    r.set("cluster.repl.watermark_lag_max", lag);
    // Simulated device latency over everything the nodes completed.
    let device = after.histogram("server.latency.virtual");
    r.set("sim_lat_us", device.map_or(0.0, |h| h.mean().as_us()));

    if ctx.trace {
        let dir_addr = cluster.directory.addr().to_string();
        let mut map_get_us = Vec::new();
        for _ in 0..32 {
            let t = Instant::now();
            if fetch_map_text(&dir_addr).is_ok() {
                map_get_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        r.set(
            "cluster.directory.map_get_us",
            if map_get_us.is_empty() {
                0.0
            } else {
                stats::median(&map_get_us)
            },
        );

        // The same mix straight at one stand-alone node, same depth: what
        // routing and replication add to the median.
        let direct = Server::start(server_config(seed), 0).and_then(|node| {
            let report = run_load(&LoadConfig {
                addr: node.local_addr().to_string(),
                connections: 1,
                depth: DEPTH,
                requests: (requests / 3).max(DEPTH),
                read_ratio: READ_RATIO,
                zipf_s: 0.9,
                request_bytes: REQUEST_BYTES,
                seed,
                ..LoadConfig::default()
            });
            node.stop();
            report
        });
        let routed_p50 = routed.as_ref().map_or(0.0, |(report, _)| report.p50_us);
        r.set(
            "cluster.router.overhead_p50_us",
            direct.map_or(0.0, |d| routed_p50 - d.p50_us),
        );

        let stats_text = cluster.nodes[0].metrics_snapshot().lines().join("\n");
        micro::cluster(&mut r, ctx.micro_window(), &stats_text);
        micro::server_codec(&mut r, ctx.micro_window());
    }

    ctx.spans.time("cluster.stop", 0, || cluster.stop());
    r.finish(setup_s);
    r
}
