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
//!   exactly-once story intact.

use std::time::{Duration, Instant};

use rif_cluster::stats::NodeStats;
use rif_cluster::{Directory, NodeInfo, RouterConfig, ShardMap};
use rif_server::client::Conn;
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
    conn.send(&Request::Stats { tag: 42 }).expect("send STATS");
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Ok(Some(payload)) = conn.next_frame() {
            match rif_server::protocol::decode_response(payload) {
                Ok(Response::Stats { text, .. }) => {
                    return NodeStats::parse_text(&text).expect("stats text parses")
                }
                Ok(other) => panic!("unexpected STATS reply: {other:?}"),
                Err(e) => panic!("undecodable STATS reply: {e}"),
            }
        }
        conn.pump().expect("stats conn alive");
    }
    panic!("STATS timed out");
}

fn counter(stats: &NodeStats, name: &str) -> u64 {
    stats.counters.get(name).copied().unwrap_or(0)
}

fn wait_response(conn: &mut Conn) -> Response {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Ok(Some(payload)) = conn.next_frame() {
            return rif_server::protocol::decode_response(payload).expect("decodable");
        }
        conn.pump().expect("conn alive");
    }
    panic!("no response before deadline");
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

    // A write-heavy routed load gives the ship thread plenty to do.
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
    conn.send(&Request::Read {
        tenant: 0,
        tag: 1,
        offset: 0,
        bytes: 16 * 1024,
    })
    .expect("send read");
    let resp = wait_response(&mut conn);
    assert!(
        matches!(resp, Response::Done { .. }),
        "follower must serve reads for followed ranges, got {resp:?}"
    );
    conn.send(&Request::Write {
        tenant: 0,
        tag: 2,
        offset: 0,
        bytes: 16 * 1024,
    })
    .expect("send write");
    let resp = wait_response(&mut conn);
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
