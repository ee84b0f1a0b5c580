//! Chaos gate for the capture→replay cycle: a server journaling its
//! load behind a lossy, duplicating proxy must still (a) satisfy the
//! client contract and (b) emit a capture that round-trips and replays
//! deterministically offline. Faults mangle *wire traffic*; the journal
//! records *admissions* — chaos on the path must never corrupt it.

use std::time::Duration;

use rif_chaos::contract::ContractChecker;
use rif_chaos::plan::FaultPlan;
use rif_chaos::proxy::ChaosProxy;
use rif_server::client::{run_load_journaled, LoadConfig};
use rif_server::server::{Server, ServerConfig};
use rif_ssd::{RetryKind, Simulator, SsdConfig};
use rif_workloads::Capture;

#[test]
fn capture_survives_drops_and_dups() {
    let requests = 2_000;
    let plan =
        FaultPlan::parse("seed=77,up.drop=0.05,down.drop=0.05,up.dup=0.02,down.dup=0.02").unwrap();

    let server = Server::start(
        ServerConfig {
            shards: 2,
            time_scale: 200.0,
            capture: true,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind server");
    let proxy = ChaosProxy::start(0, server.local_addr(), plan.clone()).expect("bind proxy");

    let (report, journal) = run_load_journaled(&LoadConfig {
        addr: proxy.local_addr().to_string(),
        connections: 2,
        depth: 8,
        requests,
        read_ratio: 0.9,
        seed: 19,
        request_deadline: Duration::from_millis(250),
        ..LoadConfig::default()
    })
    .expect("load run");

    let faults = proxy.stats();
    let cap = server.capture();
    proxy.stop();
    server.stop();

    // The proxy really was hostile…
    assert!(faults.dropped > 0, "{faults:?}");
    assert!(faults.duplicated > 0, "{faults:?}");

    // …yet the client contract held: every op resolved exactly once.
    let verdict = ContractChecker::for_plan(&plan).check(&journal, &report, requests as u64);
    assert!(verdict.pass, "{}", verdict.to_json());

    // The capture is well-formed: it round-trips through its own CSV…
    assert!(!cap.is_empty(), "a served load must journal something");
    let csv = cap.to_csv();
    let parsed = Capture::parse_csv(&csv).expect("chaos capture parses");
    assert_eq!(parsed.to_csv(), csv, "CSV round trip is byte-identical");

    // …and replays cleanly offline, bit-for-bit across repeat runs.
    let replay = |c: &Capture| {
        Simulator::new(SsdConfig::small(RetryKind::Rif, 3000))
            .run(&c.to_trace())
            .to_json()
    };
    let first = replay(&parsed);
    assert_eq!(first, replay(&parsed), "offline replay must be bit-exact");
    assert!(first.contains("\"completed_requests\""));

    // Chaos mangles frames, not the journal: the recorder never records
    // more admissions than the client made wire submissions.
    assert!(
        cap.len() as u64 <= journal.records.len() as u64,
        "capture {} > submissions {}",
        cap.len(),
        journal.records.len()
    );
}
