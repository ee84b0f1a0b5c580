//! Loopback cluster integration: a directory and two in-process cluster
//! nodes on ephemeral ports, with one **live shard migration** under a
//! 20k-request mixed READ/WRITE load through the router.
//!
//! Asserted end-to-end:
//!
//! * exactly-one-outcome — every journal record resolves exactly once,
//!   no conflicting receipts, no unknown tags, and the report ledger
//!   accounts for every planned request (the ContractChecker clauses,
//!   checked directly to keep the dependency arrow chaos → cluster);
//! * learner continuity — the migrated range's ThresholdLearner arrives
//!   on the target with its update counter intact (the target's
//!   `server.learner.shard<r>.updates` gauge resumes from at least the
//!   source's pre-migration value instead of restarting at zero);
//! * the cluster STATS plane sees both nodes and sums their counters.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rif_cluster::stats::NodeStats;
use rif_cluster::{Directory, NodeInfo, RouterConfig, ShardMap};
use rif_server::client::Conn;
use rif_server::protocol::{
    decode_response, encode_request, write_frame, ErrorCode, FrameBuffer, Request, Response,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use rif_server::server::{Server, ServerConfig};

const RANGES: u32 = 4;
const CAPACITY: u64 = 8 << 30;

fn start_node(seed: u64) -> Server {
    Server::start(
        ServerConfig {
            shards: RANGES as usize,
            capacity_bytes: CAPACITY,
            cluster: true,
            learn: true,
            time_scale: 200.0,
            seed,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("node starts")
}

/// One STATS round-trip against a node.
fn node_stats(addr: &str) -> NodeStats {
    let mut conn = Conn::connect(addr).expect("connect for stats");
    match conn.call(&Request::Stats { tag: 42 }, Duration::from_secs(5)) {
        Ok(Response::Stats { text, .. }) => {
            NodeStats::parse_text(&text).expect("stats text parses")
        }
        other => panic!("unexpected STATS reply: {other:?}"),
    }
}

fn learner_updates(stats: &NodeStats, range: u32) -> f64 {
    stats
        .gauges
        .get(&format!("server.learner.shard{range}.updates"))
        .copied()
        .unwrap_or(0.0)
}

#[test]
fn live_migration_under_load_is_exactly_once_with_learner_continuity() {
    let node_a = start_node(11);
    let node_b = start_node(22);
    let map = ShardMap::rebalanced(
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
    )
    .expect("valid map");
    let dir = Directory::start(map.clone(), 0).expect("directory starts");

    // Migrate the hottest range (the one holding offset 0 — the zipf
    // head) so both sides of the handoff definitely see traffic.
    let (hot_range, source) = map.route(0);
    let source_id = source.id.clone();
    let source_addr = source.addr.clone();
    let (target_id, target_addr) = if source_id == "a" {
        ("b", node_b.local_addr().to_string())
    } else {
        ("a", node_a.local_addr().to_string())
    };

    // The migration starts once the source has admitted an eighth of the
    // load as reads (about a third of the load, by the zipf head's share)
    // and must end while the load still runs: a position in the request
    // count, not a wall-clock delay, so it lands mid-load in any build
    // profile. The WRONG_SHARD/BUSY(moving) assertions below need that.
    let requests: u64 = 25_000;
    let cfg = RouterConfig {
        directory: dir.addr().to_string(),
        requests,
        depth: 32,
        read_ratio: 0.7,
        request_bytes: 16 * 1024,
        seed: 7,
        ..RouterConfig::default()
    };
    let loader = std::thread::spawn(move || rif_cluster::run_routed(&cfg).expect("routed load"));

    // Let the source learn on live traffic, snapshot its progress, then
    // migrate mid-load.
    let before = loop {
        let stats = node_stats(&source_addr);
        let reads = stats.counters.get("server.requests.read").copied();
        if reads.unwrap_or(0) >= requests / 8 {
            break learner_updates(&stats, hot_range);
        }
        assert!(
            !loader.is_finished(),
            "the load ended before the source saw an eighth of it"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        before > 0.0,
        "source learner never updated before the migration (gauge missing?)"
    );
    let epoch = dir
        .migrate(hot_range, target_id)
        .expect("migration succeeds");
    assert!(
        !loader.is_finished(),
        "the load ended before the migration did: nothing tested the handoff"
    );
    assert_eq!(epoch, 2, "one migration bumps epoch 1 -> 2");

    let (report, journal) = loader.join().expect("router thread");

    // --- exactly-one-outcome, straight from the journal -----------------
    let unresolved = journal
        .records
        .iter()
        .filter(|r| r.outcome.is_none())
        .count();
    assert_eq!(unresolved, 0, "silent tags: {unresolved}");
    let conflicting: u32 = journal.records.iter().map(|r| r.conflicting_receipts).sum();
    assert_eq!(conflicting, 0, "conflicting receipts");
    assert_eq!(journal.unknown_receipts, 0, "unknown-tag receipts");
    assert_eq!(
        report.completed + report.failed + report.busy_dropped,
        requests,
        "ledger gap: {report:?}"
    );
    assert!(
        report.completed > requests / 2,
        "most requests should complete through the migration: {report:?}"
    );

    // The handoff was observable from the client side: the stale map
    // produced WRONG_SHARD or BUSY(moving) refusals that were retried.
    assert!(
        report.wrong_shard + report.busy_unavailable > 0,
        "migration left no client-visible trace: {report:?}"
    );

    // --- learner continuity across the handoff --------------------------
    let after = learner_updates(&node_stats(&target_addr), hot_range);
    assert!(
        after >= before,
        "target learner restarted: {after} updates on the target vs {before} \
         on the source before handoff"
    );

    // --- cluster STATS plane --------------------------------------------
    let report_text =
        rif_cluster::directory::fetch_cluster_stats(&dir.addr().to_string()).expect("fanout");
    assert!(report_text.starts_with("# rif-cluster-stats v1 nodes=2\n"));
    assert!(report_text.contains("\nnode a counter server.requests.read "));
    assert!(report_text.contains("\nnode b counter server.requests.read "));
    let a_accepted = node_stats(&node_a.local_addr().to_string())
        .counters
        .get("server.requests.read")
        .copied()
        .unwrap_or(0);
    assert!(
        report_text.contains("cluster counter server.requests.read"),
        "aggregate line missing"
    );
    assert!(a_accepted > 0, "node a served nothing");

    dir.stop();
    node_a.stop();
    node_b.stop();
}

#[test]
fn map_push_flips_a_cold_node_from_bouncing_to_serving() {
    // A cluster node owns nothing at boot: every request bounces. After
    // the directory's first push it serves exactly its owned ranges.
    let node = start_node(5);
    let addr = node.local_addr().to_string();

    let mut conn = Conn::connect(&addr).expect("connect");
    assert_eq!(conn.version(), PROTOCOL_VERSION);
    let probe = Request::Read {
        tenant: 0,
        tag: 1,
        offset: 0,
        bytes: 16 * 1024,
    };
    let resp = conn
        .call(&probe, Duration::from_secs(5))
        .expect("probe reply");
    assert!(
        matches!(resp, Response::WrongShard { epoch: 0, .. }),
        "cold node must refuse with WRONG_SHARD(0), got {resp:?}"
    );
    // The refusal vocabulary does not depend on a handshake: the same
    // probe on a socket that never said HELLO is WRONG_SHARD too.
    let replies = raw_exchange(&addr, &[probe.clone()]);
    assert!(
        matches!(replies[..], [Response::WrongShard { epoch: 0, .. }]),
        "HELLO-less probe must refuse with WRONG_SHARD(0), got {replies:?}"
    );

    let map = ShardMap::rebalanced(
        1,
        CAPACITY,
        RANGES,
        vec![NodeInfo {
            id: "solo".into(),
            addr: addr.clone(),
        }],
    )
    .expect("valid map");
    let dir = Directory::start(map, 0).expect("directory starts");

    let resp = conn
        .call(&probe, Duration::from_secs(5))
        .expect("second probe reply");
    assert!(
        matches!(resp, Response::Done { .. }),
        "owned range must serve after MAP_PUSH, got {resp:?}"
    );

    dir.stop();
    node.stop();
}

/// Writes `reqs` back to back on a fresh socket (no HELLO unless it is
/// one of them), half-closes it, and collects every frame the peer
/// answers before it closes.
fn raw_exchange(addr: &str, reqs: &[Request]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for req in reqs {
        write_frame(&mut stream, &encode_request(req)).expect("write frame");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut frames = FrameBuffer::new();
    let mut replies = Vec::new();
    while frames.read_from(&mut stream).expect("read") > 0 {
        while let Some(payload) = frames.next_frame().expect("frame sync") {
            replies.push(decode_response(payload).expect("decodable"));
        }
    }
    assert_eq!(frames.buffered(), 0, "the peer closed mid-frame");
    replies
}

/// A directory over one node nobody listens on: enough to exercise its
/// own listener.
fn lone_directory() -> Directory {
    let node = NodeInfo {
        id: "a".into(),
        addr: "127.0.0.1:1".into(),
    };
    let map = ShardMap::rebalanced(1, CAPACITY, RANGES, vec![node]).expect("valid map");
    Directory::start(map, 0).expect("directory starts")
}

#[test]
fn directory_refuses_a_hello_for_another_version_and_closes() {
    let dir = lone_directory();
    let addr = dir.addr().to_string();
    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        // The MAP_GET pipelined behind the HELLO must never be answered:
        // one refusal, then the close.
        let replies = raw_exchange(
            &addr,
            &[
                Request::Hello { tag: 9, version },
                Request::MapGet { tag: 10 },
            ],
        );
        assert_eq!(
            replies,
            [Response::Error {
                tag: 9,
                code: ErrorCode::BadRequest
            }],
            "HELLO({version})"
        );
    }
    assert!(
        Conn::connect(&addr).is_ok(),
        "the matching version connects"
    );
    dir.stop();
}

#[test]
fn directory_closes_a_peer_that_sends_an_oversized_length_prefix() {
    let dir = lone_directory();
    let mut stream = TcpStream::connect(dir.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    // A header announcing one byte more than any frame may carry: frame
    // sync is gone for good, so the directory hangs up instead of
    // buffering whatever the peer sends next.
    stream
        .write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
        .expect("write header");
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        other => panic!("expected EOF within 1 s, got {other:?}"),
    }
    dir.stop();
}
