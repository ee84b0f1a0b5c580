//! Partition contract tests (satellite of the cluster-hardening PR).
//!
//! Two layers:
//!
//! * a raw wire probe of the [`PartitionSwitch`] itself — one-way
//!   blackholes eat frames in exactly one direction, connections stay
//!   up, and the proxy heals cleanly when the switch flips back;
//! * a cluster scenario combining a one-way router→node partition with
//!   a node hard-kill under a replicated map: the partition surfaces
//!   only as timeouts that fail over to a follower — the strict
//!   accounting contract PASSES, connections were really severed
//!   (`conn_losses > 0`), and no write is duplicated or lost.

use std::io;
use std::time::Duration;

use rif_chaos::cluster::{run_cluster_scenario, ClusterScenarioConfig};
use rif_chaos::plan::{Direction, FaultPlan};
use rif_chaos::proxy::ChaosProxy;
use rif_server::client::Conn;
use rif_server::protocol::{Request, Response};
use rif_server::server::{Server, ServerConfig};

/// Sends `req` and waits up to `window` for a reply; `None` is silence.
fn try_call(conn: &mut Conn, req: &Request, window: Duration) -> Option<Response> {
    match conn.call(req, window) {
        Err(e) if e.kind() == io::ErrorKind::TimedOut => None,
        reply => Some(reply.expect("conn alive")),
    }
}

#[test]
fn one_way_partition_blackholes_one_direction_and_heals() {
    let server = Server::start(
        ServerConfig {
            shards: 2,
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind server");
    // A fault-free plan: the only hostility is the partition switch.
    let proxy = ChaosProxy::start(0, server.local_addr(), FaultPlan::default()).expect("proxy");
    let mut conn = Conn::connect(&proxy.local_addr().to_string()).expect("connect via proxy");

    let read = |tag: u64| Request::Read {
        tenant: 0,
        tag,
        offset: 4096 * tag,
        bytes: 4096,
    };

    // Healthy path first.
    match try_call(&mut conn, &read(1), Duration::from_secs(5)) {
        Some(Response::Done { tag, .. }) => assert_eq!(tag, 1),
        other => panic!("healthy read failed: {other:?}"),
    }

    // Partition the *down* direction: requests still reach the server,
    // but its replies vanish mid-path. The TCP connection stays up —
    // this is a blackhole, not a reset.
    proxy.set_partition(Direction::Down, true);
    assert!(
        try_call(&mut conn, &read(2), Duration::from_millis(300)).is_none(),
        "a down-partitioned proxy must not deliver replies"
    );

    // Heal. The eaten reply is gone forever (tag 2 was consumed while
    // the blackhole was up), but new traffic flows again on the SAME
    // connection.
    proxy.set_partition(Direction::Down, false);
    match try_call(&mut conn, &read(3), Duration::from_secs(5)) {
        Some(Response::Done { tag, .. }) => assert_eq!(tag, 3),
        other => panic!("healed read failed: {other:?}"),
    }

    let stats = proxy.stats();
    assert!(
        stats.partitioned >= 1,
        "partition never ate a frame: {stats:?}"
    );
    proxy.stop();
    server.stop();
}

#[test]
fn partition_plus_kill_keeps_the_contract_and_replicated_reads() {
    // One-way router→node partition on node 1 while the legacy kill
    // takes down the hottest node: reads must ride the replica set
    // through both faults. Three nodes keep a live unpartitioned
    // replica for every range — with R = 2 the claim "replicated reads
    // never fail" only holds when the fault set doesn't cover an entire
    // replica set, and that is exactly the grid this test pins.
    let plan = FaultPlan::parse("seed=9,part=1:up@120+250").expect("valid plan");
    let cfg = ClusterScenarioConfig {
        // Twice the partition's healing instant (370 ms) at the 26k rps
        // the router measures fault-free through three proxied nodes in
        // this (debug) profile.
        requests: 20_000,
        nodes: 3,
        replicas: 2,
        seed: 11,
        plan,
        kill_after: Duration::from_millis(150),
        rebalance_after: Duration::from_millis(100),
        request_deadline: Duration::from_millis(300),
        ..ClusterScenarioConfig::default()
    };
    let out = run_cluster_scenario(&cfg).expect("scenario runs");

    // The faults actually happened…
    assert_eq!(out.kills_fired, 1, "kill never fired: {:?}", out.report);
    assert!(out.partitions_fired >= 1, "partition never opened");
    assert!(!out.killed.is_empty());
    assert!(
        out.journal.conn_losses > 0,
        "a hard kill must sever connections: {:?}",
        out.report
    );
    let faults = out
        .faults
        .as_ref()
        .expect("proxied run reports fault stats");
    assert!(
        faults.partitioned > 0,
        "partition never ate a frame: {faults:?}"
    );

    // …and the contract held anyway: every request resolved exactly
    // once (no duplicate receipts, no unknown receipts, zero accounting
    // gap) and every read chain on the replicated map ended in DONE.
    assert!(out.verdict.pass, "{}", out.verdict.to_json());
    assert_eq!(
        out.failed_replicated_reads, 0,
        "replicated reads failed: {:?}",
        out.report
    );
    // Writes are never duplicated by failover: duplicate receipts only
    // ever come from tombstoned timeouts, which the checker audits, and
    // the journal shows real progress despite the outage.
    assert!(out.report.completed > out.report.busy_dropped);
}
