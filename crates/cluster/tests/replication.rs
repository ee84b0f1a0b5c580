//! Loopback replication integration: two cluster nodes under a
//! replicated (`R = 2`) map, a routed mixed load, and direct probes of
//! the follower role.
//!
//! Asserted end-to-end:
//!
//! * the primary ships admitted writes to its followers and the
//!   per-range replication watermark advances (shipped/acked counters
//!   move, the follower's `server.repl.applied` counter moves);
//! * a follower serves client *reads* for ranges it follows (the
//!   router's failover target) and counts them;
//! * a follower still bounces client *writes* with WRONG_SHARD — only
//!   the primary admits writes, which is what keeps the Journal
//!   exactly-once story intact;
//! * a write burst leaves a backlog queued at the primary
//!   (`server.repl.queued`) that drains to zero, and a primary stopped
//!   with a backlog stops at once: it ships nothing more and counts the
//!   backlog as skipped.

use std::time::{Duration, Instant};

use rif_cluster::stats::NodeStats;
use rif_cluster::{Directory, NodeInfo, RouterConfig, ShardMap};
use rif_server::client::{run_load, Conn, LoadConfig, LoadReport};
use rif_server::protocol::{Request, Response};
use rif_server::server::{Server, ServerConfig};

const RANGES: u32 = 4;
const CAPACITY: u64 = 8 << 30;

fn start_node(seed: u64) -> Server {
    Server::start(
        ServerConfig {
            shards: RANGES as usize,
            capacity_bytes: CAPACITY,
            cluster: true,
            time_scale: 200.0,
            seed,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("node starts")
}

fn node_stats(addr: &str) -> NodeStats {
    let mut conn = Conn::connect(addr).expect("connect for stats");
    match conn.call(&Request::Stats { tag: 42 }, Duration::from_secs(5)) {
        Ok(Response::Stats { text, .. }) => {
            NodeStats::parse_text(&text).expect("stats text parses")
        }
        other => panic!("unexpected STATS reply: {other:?}"),
    }
}

fn counter(stats: &NodeStats, name: &str) -> u64 {
    stats.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn writes_replicate_and_followers_serve_reads_but_bounce_writes() {
    let node_a = start_node(31);
    let node_b = start_node(32);
    let map = ShardMap::replicated(
        1,
        CAPACITY,
        RANGES,
        vec![
            NodeInfo {
                id: "a".into(),
                addr: node_a.local_addr().to_string(),
            },
            NodeInfo {
                id: "b".into(),
                addr: node_b.local_addr().to_string(),
            },
        ],
        2,
    )
    .expect("valid replicated map");
    // With two nodes and R = 2, every range's follower set is exactly
    // "the other node".
    let (hot_range, primary) = map.route(0);
    let primary_addr = primary.addr.clone();
    let follower = map.followers_of(hot_range)[0].clone();
    let dir = Directory::start(map, 0).expect("directory starts");

    // A write-heavy routed load gives the shipper plenty to do.
    let requests: u64 = 4_000;
    let cfg = RouterConfig {
        directory: dir.addr().to_string(),
        requests,
        depth: 16,
        read_ratio: 0.2,
        request_bytes: 16 * 1024,
        seed: 13,
        ..RouterConfig::default()
    };
    let (report, journal) = rif_cluster::run_routed(&cfg).expect("routed load");
    assert_eq!(
        report.completed + report.failed + report.busy_dropped,
        requests,
        "ledger gap: {report:?}"
    );
    assert_eq!(journal.unknown_receipts, 0);

    // Replication really flowed: the primary shipped and got acks, the
    // follower applied. Shipping is asynchronous, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (mut shipped, mut acked, mut applied) = (0, 0, 0);
    while Instant::now() < deadline {
        let p = node_stats(&primary_addr);
        let f = node_stats(&follower.addr);
        shipped = counter(&p, "server.repl.shipped");
        acked = counter(&p, "server.repl.acked");
        applied = counter(&f, "server.repl.applied");
        if shipped > 0 && acked > 0 && applied > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(shipped > 0, "primary never shipped a replica write");
    assert!(acked > 0, "no follower ack ever arrived");
    assert!(applied > 0, "follower never applied a replicated write");
    // The watermark gauge for the hot range advanced past zero.
    let p = node_stats(&primary_addr);
    let watermark = p
        .gauges
        .get(&format!("server.repl.watermark.range{hot_range}"))
        .copied()
        .unwrap_or(0.0);
    assert!(
        watermark > 0.0,
        "replication watermark for range {hot_range} never advanced"
    );

    // Follower role probes, straight at the wire.
    let mut conn = Conn::connect(&follower.addr).expect("connect follower");
    let read = Request::Read {
        tenant: 0,
        tag: 1,
        offset: 0,
        bytes: 16 * 1024,
    };
    let resp = conn
        .call(&read, Duration::from_secs(5))
        .expect("read reply");
    assert!(
        matches!(resp, Response::Done { .. }),
        "follower must serve reads for followed ranges, got {resp:?}"
    );
    let write = Request::Write {
        tenant: 0,
        tag: 2,
        offset: 0,
        bytes: 16 * 1024,
    };
    let resp = conn
        .call(&write, Duration::from_secs(5))
        .expect("write reply");
    assert!(
        matches!(resp, Response::WrongShard { .. }),
        "follower must bounce client writes, got {resp:?}"
    );
    let f = node_stats(&follower.addr);
    assert!(
        counter(&f, "server.repl.follower_reads") >= 1,
        "follower read was not counted"
    );

    dir.stop();
    node_a.stop();
    node_b.stop();
}

/// Two real-time one-range nodes under an RF = 2 map, and a burst of
/// `writes` straight at the primary: `(primary, follower, directory,
/// report)`. The follower applies one shipment at a time, each at least
/// a simulated program long, so the primary takes the burst far faster
/// than it can ship it.
fn burst_at_a_primary(writes: usize) -> (Server, Server, Directory, LoadReport) {
    let start = |seed| {
        Server::start(
            ServerConfig {
                shards: 1,
                capacity_bytes: CAPACITY,
                cluster: true,
                time_scale: 1.0,
                seed,
                ..ServerConfig::default()
            },
            0,
        )
        .expect("node starts")
    };
    let nodes = [start(61), start(62)];
    let infos = (nodes.iter().zip(["a", "b"]))
        .map(|(n, id)| NodeInfo {
            id: id.into(),
            addr: n.local_addr().to_string(),
        })
        .collect();
    let map = ShardMap::replicated(1, CAPACITY, 1, infos, 2).expect("valid replicated map");
    let primary_id = map.route(0).1.id.clone();
    let dir = Directory::start(map, 0).expect("directory starts");
    let [a, b] = nodes;
    let (primary, follower) = if primary_id == "a" { (a, b) } else { (b, a) };
    let report = run_load(&LoadConfig {
        addr: primary.local_addr().to_string(),
        connections: 4,
        depth: 16,
        requests: writes,
        read_ratio: 0.0,
        request_bytes: 16 * 1024,
        seed: 5,
        ..LoadConfig::default()
    })
    .expect("write burst");
    assert_eq!(report.completed, writes as u64, "{}", report.to_json());
    (primary, follower, dir, report)
}

#[test]
fn a_write_burst_queues_at_the_primary_until_shipped() {
    let (primary, follower, dir, report) = burst_at_a_primary(2_000);
    let queued = |m: &rif_events::MetricsRegistry| m.gauge("server.repl.queued").unwrap_or(-1.0);
    let m = primary.metrics_snapshot();
    assert!(queued(&m) > 0.0, "no backlog right after the burst");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut m = m;
    while queued(&m) > 0.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        m = primary.metrics_snapshot();
    }
    assert_eq!(queued(&m), 0.0, "the backlog never drained");
    assert_eq!(m.counter("server.repl.shipped"), report.completed);
    assert_eq!(m.counter("server.repl.acked"), report.completed);
    dir.stop();
    primary.stop();
    follower.stop();
}

#[test]
fn a_stopped_primary_stops_at_once_and_ships_nothing_more() {
    let (primary, follower, dir, report) = burst_at_a_primary(4_000);
    let stopping = Instant::now();
    let last = primary.stop();
    let took = stopping.elapsed();
    assert!(took < Duration::from_millis(300), "stop took {took:?}");
    let (shipped, skipped) = (
        last.counter("server.repl.shipped"),
        last.counter("server.repl.skipped"),
    );
    assert!(skipped > 0, "no backlog was left to skip");
    assert_eq!(
        shipped + skipped,
        report.completed,
        "an offered write went uncounted"
    );
    assert_eq!(last.gauge("server.repl.queued"), Some(0.0));
    // The shipment in flight when the primary stopped may still land.
    std::thread::sleep(Duration::from_millis(50));
    let applied = follower.metrics_snapshot().counter("server.repl.applied");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        follower.metrics_snapshot().counter("server.repl.applied"),
        applied,
        "the follower kept applying after the primary stopped"
    );
    assert!(
        applied <= shipped + 1,
        "applied {applied}, shipped {shipped}"
    );
    dir.stop();
    follower.stop();
}
