//! In-process loopback integration: a real `Server` on an OS-assigned
//! port, driven by the real closed-loop client over TCP. This is the
//! same pairing the CI smoke gate runs out-of-process.

use rif_server::client::{fetch_stats, flush, run_load, send_shutdown, LoadConfig};
use rif_server::server::{Server, ServerConfig};
use rif_ssd::RetryKind;

fn quick_server(mut cfg: ServerConfig) -> Server {
    // Time compression keeps wall time short: simulated microseconds
    // play out 200x faster than real ones.
    cfg.time_scale = 200.0;
    Server::start(cfg, 0).expect("bind loopback")
}

#[test]
fn load_completes_every_request_without_protocol_errors() {
    let server = quick_server(ServerConfig {
        shards: 2,
        inflight_limit: 64,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections: 2,
        depth: 8,
        requests: 400,
        read_ratio: 0.9,
        seed: 7,
        ..LoadConfig::default()
    })
    .expect("load run");

    assert_eq!(report.protocol_errors, 0, "{}", report.to_json());
    assert_eq!(report.busy_dropped, 0, "{}", report.to_json());
    assert_eq!(report.completed, 400, "{}", report.to_json());
    assert!(report.throughput_rps > 0.0);
    assert!(report.p99_us >= report.p50_us);
    assert!(report.p999_us >= report.p99_us);

    // The STATS frame must render the registry: counters present and
    // consistent with what the client saw.
    let stats = fetch_stats(&addr).expect("stats");
    let completed_line = stats
        .lines()
        .find(|l| l.starts_with("counter server.completed "))
        .expect("completed counter in stats");
    let n: u64 = completed_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("numeric counter");
    assert_eq!(n, 400);
    assert!(stats
        .lines()
        .any(|l| l.starts_with("counter server.requests.read ")));
    assert!(stats
        .lines()
        .any(|l| l.starts_with("histogram server.latency.virtual ")));
    assert!(stats
        .lines()
        .any(|l| l.starts_with("gauge server.inflight.shard0 ")));

    server.stop();
}

#[test]
fn over_rate_burst_sees_busy_backpressure() {
    // A 2-token bucket refilled at 50/s against a depth-16 blast: the
    // client must observe BUSY(rate_limit) responses, and retries must
    // still land every request eventually.
    let server = quick_server(ServerConfig {
        shards: 1,
        rate_per_sec: 50.0,
        burst: 2.0,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = run_load(&LoadConfig {
        addr,
        connections: 1,
        depth: 16,
        requests: 30,
        busy_backoff: std::time::Duration::from_millis(5),
        max_busy_retries: 10_000,
        seed: 3,
        ..LoadConfig::default()
    })
    .expect("load run");

    assert!(
        report.busy_ratelimit > 0,
        "over-rate burst must be throttled: {}",
        report.to_json()
    );
    assert_eq!(report.completed, 30, "{}", report.to_json());
    assert_eq!(report.protocol_errors, 0);
    server.stop();
}

#[test]
fn tiny_inflight_window_sees_queue_busy() {
    let server = quick_server(ServerConfig {
        shards: 1,
        inflight_limit: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = run_load(&LoadConfig {
        addr,
        connections: 1,
        depth: 16,
        requests: 60,
        busy_backoff: std::time::Duration::from_micros(300),
        max_busy_retries: 100_000,
        seed: 5,
        ..LoadConfig::default()
    })
    .expect("load run");
    assert!(
        report.busy_queue > 0,
        "a depth-16 window against a 2-slot shard must hit queue BUSY: {}",
        report.to_json()
    );
    assert_eq!(report.completed, 60, "{}", report.to_json());
    server.stop();
}

#[test]
fn wrong_shard_refusals_survive_the_report_merge() {
    // A cluster node owns no range until a directory pushes it a map:
    // every request is refused WRONG_SHARD, on both connections, and the
    // merged report must say so.
    let server = quick_server(ServerConfig {
        cluster: true,
        ..ServerConfig::default()
    });
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        connections: 2,
        depth: 2,
        requests: 8,
        busy_backoff: std::time::Duration::from_micros(100),
        max_busy_retries: 2,
        ..LoadConfig::default()
    })
    .expect("load run");
    assert_eq!(report.wrong_shard, 8 * 3, "{}", report.to_json());
    assert_eq!(report.busy_dropped, 8, "{}", report.to_json());
    assert_eq!(report.completed, 0);
    server.stop();
}

#[test]
fn flush_then_stats_shows_nothing_in_flight() {
    let server = quick_server(ServerConfig::default());
    let addr = server.local_addr().to_string();
    run_load(&LoadConfig {
        addr: addr.clone(),
        requests: 50,
        ..LoadConfig::default()
    })
    .expect("load");
    flush(&addr).expect("flush");
    let m = server.metrics_snapshot();
    assert_eq!(m.counter("server.completed"), 50);
    server.stop();
}

#[test]
fn worker_crash_mid_load_never_hangs_and_other_shards_keep_serving() {
    let server = quick_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let requests = 600;

    // Crash shard 0 shortly after the load starts; it stays dead 50 ms.
    let outcome = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            // Wait until real traffic is flowing, then pull the rug.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while server.metrics_snapshot().counter("server.completed") < 50 {
                assert!(std::time::Instant::now() < deadline, "load never started");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(server.inject_shard_crash(0, std::time::Duration::from_millis(50)));
        });
        let report = rif_server::client::run_load_journaled(&LoadConfig {
            addr: addr.clone(),
            connections: 2,
            depth: 8,
            requests,
            seed: 9,
            request_deadline: std::time::Duration::from_millis(500),
            ..LoadConfig::default()
        })
        .expect("load run");
        killer.join().expect("killer thread");
        report
    });
    let (report, journal) = outcome;

    // Nothing hangs: every planned op lands in exactly one bucket…
    assert_eq!(
        report.completed + report.failed + report.busy_dropped,
        requests as u64,
        "{}",
        report.to_json()
    );
    // …no submitted tag is left unresolved…
    assert!(
        journal.records.iter().all(|r| r.outcome.is_some()),
        "silent tags after worker crash"
    );
    // …and the healthy shard plus the restarted one still complete the
    // bulk of the run.
    assert!(
        report.completed > (requests as u64) / 2,
        "{}",
        report.to_json()
    );
    // The crash actually happened and was observed by the server.
    let m = server.metrics_snapshot();
    assert_eq!(m.counter("server.shard_crashes"), 1);

    server.stop();
}

#[test]
fn shutdown_frame_stops_the_server() {
    let server = quick_server(ServerConfig {
        retry: RetryKind::Sentinel,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    assert!(!server.shutdown_requested());
    send_shutdown(&addr).expect("shutdown handshake");
    // The flag is set by the connection thread right after GOODBYE.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !server.shutdown_requested() {
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown flag never set"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.stop();
}
