//! Event-loop core integration: connection limits, idle wakeups,
//! all-or-nothing batch admission, the strict HELLO check, and the
//! multiplexed high-concurrency client — all over real loopback TCP.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rif_server::client::{run_load, Conn, LoadConfig, HELLO_TIMEOUT};
use rif_server::mux::run_mux_load;
use rif_server::protocol::{
    decode_response, encode_request, encode_response, read_frame, write_frame, BatchEntry,
    BusyReason, ErrorCode, Request, Response, PROTOCOL_VERSION,
};
use rif_server::server::{Server, ServerConfig};
use rif_workloads::IoOp;

/// A raw blocking protocol connection for surgical frame-level tests.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Raw {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.writer, &encode_request(req)).expect("write frame");
    }

    fn recv(&mut self) -> Response {
        let payload = read_frame(&mut self.reader)
            .expect("read frame")
            .expect("peer closed before responding");
        decode_response(&payload).expect("decodable response")
    }

    /// Reads one frame, allowing EOF (`None`).
    fn recv_or_eof(&mut self) -> Option<Response> {
        read_frame(&mut self.reader)
            .expect("read frame")
            .map(|p| decode_response(&p).expect("decodable response"))
    }

    fn hello(&mut self) -> u32 {
        self.send(&Request::Hello {
            tag: 1,
            version: PROTOCOL_VERSION,
        });
        match self.recv() {
            Response::HelloAck { version, .. } => version,
            other => panic!("expected HELLO_ACK, got {other:?}"),
        }
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn connection_limit_refuses_with_conn_limit_error_then_recovers() {
    let server = Server::start(
        ServerConfig {
            max_connections: 2,
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Two connections fit; prove both are live with a STATS round-trip.
    let mut a = Raw::connect(&addr);
    let mut b = Raw::connect(&addr);
    a.send(&Request::Stats { tag: 5 });
    assert!(matches!(a.recv(), Response::Stats { tag: 5, .. }));
    b.send(&Request::Stats { tag: 6 });
    assert!(matches!(b.recv(), Response::Stats { tag: 6, .. }));

    // The third gets a clean ERROR(conn_limit) frame, then EOF.
    let mut c = Raw::connect(&addr);
    match c.recv_or_eof() {
        Some(Response::Error { tag, code }) => {
            assert_eq!(tag, 0);
            assert_eq!(code, ErrorCode::ConnLimit);
        }
        other => panic!("expected ERROR(conn_limit), got {other:?}"),
    }
    assert!(c.recv_or_eof().is_none(), "refused socket must close");

    let m = server.metrics_snapshot();
    assert_eq!(m.counter("server.conn_limit_rejected"), 1);
    assert_eq!(m.gauge("server.connections_open"), Some(2.0));

    // Closing one admits the next.
    drop(a);
    wait_until("closed connection to be reaped", || {
        server.metrics_snapshot().gauge("server.connections_open") == Some(1.0)
    });
    let mut d = Raw::connect(&addr);
    d.send(&Request::Stats { tag: 7 });
    assert!(matches!(d.recv(), Response::Stats { tag: 7, .. }));

    server.stop();
}

#[test]
fn idle_event_loop_produces_near_zero_wakeups() {
    let server = Server::start(ServerConfig::default(), 0).expect("bind");
    let addr = server.local_addr().to_string();

    // One idle connection registered, then nothing happens. A readiness
    // loop blocks; an acceptor polling on a WouldBlock sleep would clock
    // hundreds of wakeups here.
    let mut idle = Raw::connect(&addr);
    idle.send(&Request::Stats { tag: 1 });
    let _ = idle.recv();
    std::thread::sleep(Duration::from_millis(200));

    let before = server.metrics_snapshot().counter("server.epoll_wakeups");
    std::thread::sleep(Duration::from_millis(500));
    let after = server.metrics_snapshot().counter("server.epoll_wakeups");
    assert!(
        after - before <= 2,
        "idle half-second cost {} wakeups (want ~0)",
        after - before
    );

    server.stop();
}

/// Entries for a batch of `n` reads tagged `base..base+n`.
fn batch_of(n: usize, base: u64) -> Vec<BatchEntry> {
    (0..n)
        .map(|i| BatchEntry {
            op: IoOp::Read,
            tenant: 0,
            tag: base + i as u64,
            offset: (i as u64) << 16,
            bytes: 4096,
            retry_of: 0,
        })
        .collect()
}

#[test]
fn batch_admission_is_all_or_nothing_against_the_inflight_cap() {
    // One shard, four in-flight slots, and a nearly frozen simulator
    // clock: admitted requests stay in flight for the whole test.
    let server = Server::start(
        ServerConfig {
            shards: 1,
            inflight_limit: 4,
            time_scale: 0.001,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    let mut conn = Raw::connect(&addr);
    assert_eq!(conn.hello(), PROTOCOL_VERSION);

    // Occupy two of the four slots with singles that cannot complete.
    for tag in [100u64, 101] {
        conn.send(&Request::Read {
            tenant: 0,
            tag,
            offset: tag << 20,
            bytes: 4096,
        });
    }
    wait_until("singles to occupy the window", || {
        server.metrics_snapshot().gauge("server.inflight.shard0") == Some(2.0)
    });

    // A 3-entry batch against 2 free slots: all-or-nothing means every
    // entry bounces BUSY(queue) and the window must NOT grow — a
    // partial admission would leave it at 4.
    conn.send(&Request::Batch(batch_of(3, 200)));
    for _ in 0..3 {
        match conn.recv() {
            Response::Busy { tag, reason } => {
                assert!((200..203).contains(&tag), "unexpected tag {tag}");
                assert_eq!(reason, BusyReason::Queue);
            }
            other => panic!("expected BUSY(queue), got {other:?}"),
        }
    }
    let m = server.metrics_snapshot();
    assert_eq!(
        m.gauge("server.inflight.shard0"),
        Some(2.0),
        "a refused batch must reserve nothing"
    );
    assert_eq!(m.counter("server.busy.queue"), 3);

    // A 2-entry batch fits exactly: both admitted, window full.
    conn.send(&Request::Batch(batch_of(2, 300)));
    wait_until("fitting batch to be admitted", || {
        server.metrics_snapshot().gauge("server.inflight.shard0") == Some(4.0)
    });
    assert_eq!(server.metrics_snapshot().counter("server.batches"), 2);

    server.stop();
}

#[test]
fn closed_loop_batched_load_completes_cleanly() {
    let server = Server::start(
        ServerConfig {
            shards: 2,
            inflight_limit: 64,
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        connections: 2,
        depth: 8,
        requests: 200,
        seed: 11,
        batch: 8,
        ..LoadConfig::default()
    })
    .expect("load");
    assert_eq!(report.completed, 200, "{}", report.to_json());
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.failed, 0);
    server.stop();
}

#[test]
fn mux_client_completes_a_many_connection_load() {
    let server = Server::start(
        ServerConfig {
            shards: 2,
            inflight_limit: 256,
            time_scale: 500.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let report = run_mux_load(
        &LoadConfig {
            addr: server.local_addr().to_string(),
            connections: 64,
            depth: 2,
            requests: 1000,
            seed: 21,
            max_busy_retries: 10_000,
            ..LoadConfig::default()
        },
        2,
    )
    .expect("mux load");
    assert_eq!(report.completed, 1000, "{}", report.to_json());
    assert_eq!(report.conn_errors, 0, "{}", report.to_json());
    assert_eq!(report.protocol_errors, 0, "{}", report.to_json());
    assert_eq!(report.failed, 0, "{}", report.to_json());

    let m = server.metrics_snapshot();
    assert!(m.counter("server.connections_accepted") >= 64);
    server.stop();
}

#[test]
fn batch_without_hello_is_admitted_entry_by_entry() {
    let server = Server::start(
        ServerConfig {
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let mut conn = Raw::connect(&server.local_addr().to_string());
    // No HELLO: the check is optional, BATCH is served like any opcode.
    // The middle entry is malformed and answers alone; its neighbours
    // are admitted and complete.
    let mut entries = batch_of(3, 400);
    entries[1].bytes = 0;
    conn.send(&Request::Batch(entries));
    let mut done = Vec::new();
    for _ in 0..3 {
        match conn.recv() {
            Response::Done { tag, .. } => done.push(tag),
            Response::Error { tag, code } => {
                assert_eq!((tag, code), (401, ErrorCode::BadLength));
            }
            other => panic!("expected DONE or ERROR(bad_length), got {other:?}"),
        }
    }
    done.sort_unstable();
    assert_eq!(done, [400, 402]);
    assert_eq!(server.metrics_snapshot().counter("server.batches"), 1);

    // HELLO is acked inline wherever it appears in the stream, and as
    // often as it is sent.
    assert_eq!(conn.hello(), PROTOCOL_VERSION);
    assert_eq!(conn.hello(), PROTOCOL_VERSION);
    server.stop();
}

#[test]
fn hello_with_another_version_is_refused_and_closed() {
    let server = Server::start(ServerConfig::default(), 0).expect("bind");
    let addr = server.local_addr().to_string();
    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut conn = Raw::connect(&addr);
        conn.send(&Request::Hello { tag: 9, version });
        match conn.recv() {
            Response::Error { tag, code } => {
                assert_eq!((tag, code), (9, ErrorCode::BadRequest), "HELLO({version})");
            }
            other => panic!("HELLO({version}): expected ERROR(bad_request), got {other:?}"),
        }
        assert!(
            conn.recv_or_eof().is_none(),
            "HELLO({version}): refused socket must close"
        );
    }
    Conn::connect(&addr).expect("the matching version connects");
    server.stop();
}

/// A one-connection fake peer: accepts, reads the client's HELLO, and
/// hands the socket to `answer`.
fn fake_peer(answer: impl FnOnce(TcpStream) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        read_frame(&mut reader).expect("HELLO arrives");
        answer(stream);
    });
    addr
}

#[test]
fn connect_fails_unless_the_peer_acks_the_matching_version() {
    let reply = |resp: Response| {
        move |mut s: TcpStream| write_frame(&mut s, &encode_response(&resp)).expect("reply")
    };
    let refusing = fake_peer(reply(Response::Error {
        tag: u64::MAX,
        code: ErrorCode::BadRequest,
    }));
    assert!(Conn::connect(&refusing).is_err(), "ERROR is not an ack");
    let other = fake_peer(reply(Response::HelloAck {
        tag: u64::MAX,
        version: PROTOCOL_VERSION + 1,
    }));
    assert!(
        Conn::connect(&other).is_err(),
        "another version is not an ack"
    );
    let closing = fake_peer(drop);
    assert!(Conn::connect(&closing).is_err(), "EOF is not an ack");

    // Silence: the kernel completes the TCP handshake from the backlog,
    // nobody ever answers. The connect must fail, not hand back a link,
    // and must do so at the HELLO timeout (one poll tick of overshoot,
    // plus scheduler slack under a parallel test run).
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let started = Instant::now();
    let result = Conn::connect(&silent.local_addr().unwrap().to_string());
    let took = started.elapsed();
    assert!(result.is_err(), "silence is not an ack");
    assert!(took >= HELLO_TIMEOUT, "gave up early: {took:?}");
    assert!(took < 2 * HELLO_TIMEOUT, "outlived the timeout: {took:?}");
}
