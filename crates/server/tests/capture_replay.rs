//! Capture → replay end to end: a live server journals the load it
//! serves, and the capture replays bit-for-bit through the offline
//! simulator, identically across repeat runs and thread counts. This is
//! the determinism contract the recorder exists for. The capture is
//! taken from the event loop, also once it has exited (the
//! `rif-server --capture` path).

use std::time::Duration;

use rif_events::parallel_trials;
use rif_server::client::{run_load, run_load_journaled, LoadConfig};
use rif_server::replay::{diff_against_capture, run_replay_journaled, ReplayConfig};
use rif_server::server::{Server, ServerConfig};
use rif_ssd::{RetryKind, Simulator, SsdConfig};
use rif_workloads::{Capture, CaptureOutcome};

fn capture_server(mut cfg: ServerConfig) -> Server {
    cfg.capture = true;
    cfg.time_scale = 200.0;
    Server::start(cfg, 0).expect("bind loopback")
}

/// One offline replay of a capture: the deterministic SimReport JSON.
fn offline_replay(cap: &Capture) -> String {
    let sim = Simulator::new(SsdConfig::small(RetryKind::Rif, 3000));
    sim.run(&cap.to_trace()).to_json()
}

#[test]
fn golden_capture_replays_bit_exact_offline() {
    // Serve a 10k-request synthetic load with capture enabled…
    let requests = 10_000;
    let server = capture_server(ServerConfig {
        shards: 2,
        inflight_limit: 256,
        ..ServerConfig::default()
    });
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        connections: 4,
        depth: 16,
        requests,
        read_ratio: 0.9,
        seed: 11,
        ..LoadConfig::default()
    })
    .expect("load run");
    assert_eq!(report.completed, requests as u64, "{}", report.to_json());

    let cap = server.capture();
    server.stop();
    assert_eq!(cap.len(), requests, "one journal row per logical request");

    // …survive the CSV round trip the way the `--capture FILE` /
    // `--replay-offline FILE` pair does…
    let csv = cap.to_csv();
    let parsed = Capture::parse_csv(&csv).expect("own capture parses");
    assert_eq!(parsed.to_csv(), csv, "CSV round trip is byte-identical");

    // …and replay deterministically: two offline runs render the exact
    // same report bytes.
    let first = offline_replay(&parsed);
    let second = offline_replay(&parsed);
    assert_eq!(first, second, "offline replay must be bit-exact");
    assert!(
        first.contains("\"completed_requests\": 10000"),
        "replay must complete the full capture: {first}"
    );

    // Thread counts must not leak into the result: every trial on 1
    // worker matches every trial on 8.
    let solo = parallel_trials(1, 2, |_| offline_replay(&parsed));
    let wide = parallel_trials(8, 2, |_| offline_replay(&parsed));
    for r in solo.iter().chain(wide.iter()) {
        assert_eq!(*r, first, "thread-count-dependent replay");
    }
}

#[test]
fn recorder_journals_logical_requests_once_despite_retries() {
    // Crash a shard mid-load: dead-window bounces force BUSY retries and
    // the crash drain forces errors, so the journal holds re-issued
    // submissions (`retry_of` set). The recorder must still journal each
    // *logical* request at most once — resolved requests exactly once.
    let requests = 600;
    let server = capture_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let (report, journal) = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while server.metrics_snapshot().counter("server.completed") < 50 {
                assert!(std::time::Instant::now() < deadline, "load never started");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(server.inject_shard_crash(0, Duration::from_millis(50)));
        });
        let out = run_load_journaled(&LoadConfig {
            addr: addr.clone(),
            connections: 2,
            depth: 8,
            requests,
            seed: 9,
            busy_backoff: Duration::from_millis(2),
            request_deadline: Duration::from_millis(500),
            ..LoadConfig::default()
        })
        .expect("load run");
        killer.join().expect("killer thread");
        out
    });

    let cap = server.capture();
    server.stop();

    assert!(
        journal.records.iter().any(|r| r.retry_of.is_some()),
        "the crash window must have forced at least one re-issue"
    );
    // Every resolved logical request appears exactly once; requests the
    // client abandoned (all admissions bounced) may drop out, so the
    // capture can never exceed the logical count.
    assert!(
        cap.len() as u64 >= report.completed + report.failed,
        "capture lost resolved requests: {} < {} + {}",
        cap.len(),
        report.completed,
        report.failed
    );
    assert!(
        cap.len() <= requests,
        "retry re-issues were journaled as new logical requests: {} > {requests}",
        cap.len()
    );
    // And the capture still replays cleanly offline.
    let parsed = Capture::parse_csv(&cap.to_csv()).expect("capture parses");
    assert_eq!(offline_replay(&parsed), offline_replay(&parsed));
}

#[test]
fn batched_load_is_clean_and_journals_per_entry() {
    // BATCH(8) frames: the run must stay
    // error-free, actually batch, and journal one capture row per
    // request (admission is per entry, not per frame).
    let requests = 800;
    let server = capture_server(ServerConfig {
        shards: 2,
        inflight_limit: 128,
        ..ServerConfig::default()
    });
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        connections: 2,
        depth: 16,
        requests,
        batch: 8,
        seed: 21,
        ..LoadConfig::default()
    })
    .expect("batched load");
    assert_eq!(report.completed, requests as u64, "{}", report.to_json());
    assert_eq!(report.protocol_errors, 0, "{}", report.to_json());
    assert!(
        report.batches_sent > 0,
        "--batch 8 must send BATCH frames: {}",
        report.to_json()
    );
    let m = server.metrics_snapshot();
    assert!(m.counter("server.batches") > 0, "server saw no BATCH frame");

    let cap = server.capture();
    server.stop();
    assert_eq!(cap.len(), requests, "one capture row per batched request");
}

#[test]
fn live_replay_matches_its_capture() {
    // Capture a load, then drive the capture back through a fresh server
    // at 20x recorded pacing — batched — and diff the replay journal
    // against the capture: every captured request back on the wire
    // exactly once.
    let requests = 300;
    let server = capture_server(ServerConfig::default());
    run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        connections: 2,
        depth: 8,
        requests,
        seed: 33,
        ..LoadConfig::default()
    })
    .expect("capture load");
    let cap = server.capture();
    server.stop();
    assert_eq!(cap.len(), requests);

    let target = capture_server(ServerConfig::default());
    let rcfg = ReplayConfig {
        speed: 20.0,
        base: LoadConfig {
            addr: target.local_addr().to_string(),
            connections: 2,
            depth: 8,
            batch: 4,
            ..LoadConfig::default()
        },
    };
    let (report, journal) = run_replay_journaled(&rcfg, &cap).expect("replay run");
    assert_eq!(report.completed, requests as u64, "{}", report.to_json());

    let diff = diff_against_capture(&journal, &cap);
    assert!(diff.pass(), "{}", diff.to_json());
    assert_eq!(diff.matched, requests as u64);

    // The replayed traffic was itself captured — and is the same
    // multiset of requests, so its offline replay costs the same.
    let recap = target.capture();
    target.stop();
    assert_eq!(recap.len(), requests);
}

#[test]
fn the_capture_left_at_shutdown_is_the_one_taken_before_it() {
    // The `rif-server --capture` path: serve a closed load, ask for
    // shutdown, wait for the loop to exit, and only then take the
    // capture.
    let requests = 400;
    let server = capture_server(ServerConfig::default());
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        connections: 2,
        depth: 8,
        requests,
        seed: 21,
        ..LoadConfig::default()
    })
    .expect("load run");
    assert_eq!(report.completed, requests as u64, "{}", report.to_json());
    let before = server.capture();

    server.request_shutdown();
    server.wait_for_shutdown();
    let after = server.capture();
    server.stop();
    assert_eq!(after.len(), requests, "one row per request");
    assert!(after
        .records
        .iter()
        .all(|r| r.outcome == CaptureOutcome::Done));
    assert_eq!(after, before, "the exit drain had nothing left to resolve");
}

#[test]
fn a_server_started_without_capture_captures_nothing() {
    let server = Server::start(
        ServerConfig {
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind loopback");
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        requests: 100,
        seed: 22,
        ..LoadConfig::default()
    })
    .expect("load run");
    assert_eq!(report.completed, 100, "{}", report.to_json());
    assert!(server.capture().is_empty(), "capture off journals nothing");
    server.stop();
}
