//! Failover × capture regression (satellite of the cluster-hardening
//! PR): when the router re-issues a read after losing a connection,
//! the re-issue must link `retry_of` on the wire so the server-side
//! TraceRecorder dedups it — the capture journals each *logical*
//! request at most once, no matter how many times the router retried
//! it. Without the link every re-issue would admit as a fresh logical
//! request and replay would inflate the workload.
//!
//! A reset-only plan keeps the audit strict (resets can't mangle or
//! duplicate frames), so the same run also proves the failover path
//! preserves exactly-once accounting end to end.

use std::time::Duration;

use rif_chaos::contract::ContractChecker;
use rif_chaos::plan::FaultPlan;
use rif_chaos::proxy::ChaosProxy;
use rif_cluster::{Directory, NodeInfo, RouterConfig, ShardMap};
use rif_server::server::{Server, ServerConfig};
use rif_workloads::Capture;

const RANGES: u32 = 4;
const CAPACITY: u64 = 8 << 30;

#[test]
fn router_failover_retries_dedup_in_the_capture() {
    let requests: u64 = 6_000;
    // Resets only: connections die mid-flight, replies get lost, and
    // the router re-issues the orphaned reads with `retry_of` links.
    let plan = FaultPlan::parse("seed=23,up.reset=0.002,down.reset=0.002").expect("valid plan");

    let server = Server::start(
        ServerConfig {
            shards: RANGES as usize,
            capacity_bytes: CAPACITY,
            cluster: true,
            capture: true,
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind server");
    let proxy = ChaosProxy::start(0, server.local_addr(), plan.clone()).expect("bind proxy");
    let map = ShardMap::rebalanced(
        1,
        CAPACITY,
        RANGES,
        vec![NodeInfo {
            id: "a".into(),
            addr: proxy.local_addr().to_string(),
        }],
    )
    .expect("valid map");
    let dir = Directory::start(map, 0).expect("directory starts");

    let (report, journal) = rif_cluster::run_routed(&RouterConfig {
        directory: dir.addr().to_string(),
        requests,
        depth: 16,
        read_ratio: 1.0,
        seed: 29,
        request_deadline: Duration::from_millis(250),
        ..RouterConfig::default()
    })
    .expect("routed load");

    let faults = proxy.stats();
    let cap = server.capture();
    dir.stop();
    proxy.stop();
    server.stop();

    // The link really flapped and the router really retried.
    assert!(faults.resets > 0, "plan was supposed to reset: {faults:?}");
    assert!(journal.conn_losses > 0, "resets were not client-visible");
    let retries = journal
        .records
        .iter()
        .filter(|r| r.retry_of.is_some())
        .count();
    assert!(retries > 0, "failover path never re-issued a request");

    // Exactly-once held through the failovers (reset-only plans audit
    // strictly — nothing in this plan may duplicate or mangle).
    let verdict = ContractChecker::for_plan(&plan).check(&journal, &report, requests);
    assert!(verdict.pass, "{}", verdict.to_json());

    // THE regression: the capture holds at most one admission per
    // *logical* request (journal roots), not per wire submission. A
    // router that forgot the `retry_of` link would blow past this.
    let roots = journal
        .records
        .iter()
        .filter(|r| r.retry_of.is_none())
        .count();
    assert!(!cap.is_empty(), "a served load must journal something");
    assert!(
        cap.len() <= roots,
        "capture admitted retries as fresh requests: {} admissions > {} logical requests \
         ({} wire submissions)",
        cap.len(),
        roots,
        journal.records.len()
    );

    // And the capture still round-trips byte-identically.
    let csv = cap.to_csv();
    let parsed = Capture::parse_csv(&csv).expect("capture parses");
    assert_eq!(parsed.to_csv(), csv, "CSV round trip is byte-identical");
}
