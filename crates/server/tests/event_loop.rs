//! Event-loop core integration: connection limits, idle wakeups,
//! all-or-nothing batch admission, the strict HELLO check, the control
//! path from other threads (snapshots and crash orders, before and after
//! the loop exits, and how soon `wait_for_shutdown` sees it exit),
//! configurations refused at start, the
//! many-connections-per-thread client grouping, and the client engine's
//! per-link behaviour against a scripted peer — all over real loopback
//! TCP.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rif_server::client::{
    fetch_stats, run_load, run_plans, Conn, LoadConfig, Outcome, PlannedIo, HELLO_TIMEOUT,
};
use rif_server::mux::run_mux_load;
use rif_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, encode_response_frame_into,
    write_frame, BatchEntry, BusyReason, ErrorCode, FrameBuffer, Request, Response,
    PROTOCOL_VERSION,
};
use rif_server::server::{Server, ServerConfig};
use rif_workloads::IoOp;

/// The next frame payload from a blocking `stream`, read through
/// `frames`, or `None` on EOF.
fn next_payload(mut stream: &TcpStream, frames: &mut FrameBuffer) -> Option<Vec<u8>> {
    loop {
        if let Some(p) = frames.next_frame().expect("frame sync") {
            return Some(p.to_vec());
        }
        if frames.read_from(&mut stream).expect("read") == 0 {
            return None;
        }
    }
}

/// A raw blocking protocol connection for surgical frame-level tests.
struct Raw {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Raw {
            stream,
            frames: FrameBuffer::new(),
        }
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.stream, &encode_request(req)).expect("write frame");
    }

    fn recv(&mut self) -> Response {
        self.recv_or_eof().expect("peer closed before responding")
    }

    /// Reads one frame, allowing EOF (`None`).
    fn recv_or_eof(&mut self) -> Option<Response> {
        next_payload(&self.stream, &mut self.frames)
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

#[test]
fn a_config_the_node_cannot_run_fails_start_with_invalid_input() {
    let cases: [(&str, ServerConfig); 7] = [
        (
            "no shards",
            ServerConfig {
                shards: 0,
                ..ServerConfig::default()
            },
        ),
        (
            "no in-flight slots",
            ServerConfig {
                inflight_limit: 0,
                ..ServerConfig::default()
            },
        ),
        (
            "queue depth 0",
            ServerConfig {
                queue_depth: 0,
                ..ServerConfig::default()
            },
        ),
        (
            "capacity below shards",
            ServerConfig {
                capacity_bytes: 1,
                ..ServerConfig::default()
            },
        ),
        (
            "time scale 0",
            ServerConfig {
                time_scale: 0.0,
                ..ServerConfig::default()
            },
        ),
        (
            "time scale NaN",
            ServerConfig {
                time_scale: f64::NAN,
                ..ServerConfig::default()
            },
        ),
        (
            "rate without burst",
            ServerConfig {
                rate_per_sec: 100.0,
                burst: 0.5,
                ..ServerConfig::default()
            },
        ),
    ];
    for (what, cfg) in cases {
        match Server::start(cfg, 0) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{what}: {e}"),
            Ok(server) => {
                server.stop();
                panic!("{what}: started");
            }
        }
    }
}

#[test]
fn after_a_shutdown_frame_the_exited_loop_answers_snapshots_and_refuses_crashes() {
    let server = Server::start(
        ServerConfig {
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let mut conn = Raw::connect(&server.local_addr().to_string());
    assert_eq!(conn.hello(), PROTOCOL_VERSION);
    const READS: u64 = 20;
    for tag in 10..10 + READS {
        conn.send(&Request::Read {
            tenant: 0,
            tag,
            offset: tag << 16,
            bytes: 4096,
        });
    }
    let mut done = 0;
    for _ in 0..READS {
        if let Response::Done { .. } = conn.recv() {
            done += 1;
        }
    }
    conn.send(&Request::Shutdown { tag: 99 });
    assert!(matches!(conn.recv(), Response::Goodbye { tag: 99 }));
    // The loop closes the last connection, then exits.
    assert!(
        conn.recv_or_eof().is_none(),
        "the goodbye closes the socket"
    );

    let asked = Instant::now();
    let m = server.metrics_snapshot();
    let took = asked.elapsed();
    assert!(took < Duration::from_millis(100), "snapshot took {took:?}");
    assert_eq!(m.counter("server.completed"), done);
    assert!(
        !server.inject_shard_crash(0, Duration::from_millis(10)),
        "an exited loop takes no crash order"
    );
    assert!(server.shutdown_requested());
    server.stop();
}

#[test]
fn wait_for_shutdown_returns_within_milliseconds_of_the_goodbye() {
    // Twenty fresh servers: the only client sends SHUTDOWN and reads
    // GOODBYE while another thread waits for the loop to exit.
    const RUNS: usize = 20;
    let mut waits = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let server = Server::start(ServerConfig::default(), 0).expect("bind");
        let mut conn = Raw::connect(&server.local_addr().to_string());
        let returned = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                server.wait_for_shutdown();
                Instant::now()
            });
            conn.send(&Request::Shutdown { tag: 9 });
            assert!(matches!(conn.recv(), Response::Goodbye { tag: 9 }));
            let goodbye = Instant::now();
            waiter
                .join()
                .expect("waiter")
                .saturating_duration_since(goodbye)
        });
        waits.push(returned);
        assert!(server.shutdown_requested());
        server.stop();
    }
    waits.sort_unstable();
    let median = waits[RUNS / 2];
    assert!(
        median < Duration::from_millis(5),
        "median {median:?} from GOODBYE to wait_for_shutdown returning: {waits:?}"
    );
}

#[test]
fn a_snapshot_shows_the_counters_and_histograms_a_wire_stats_shows() {
    let server = Server::start(
        ServerConfig {
            time_scale: 200.0,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections: 2,
        depth: 4,
        requests: 200,
        seed: 3,
        ..LoadConfig::default()
    })
    .expect("load");
    assert_eq!(report.completed, 200, "{}", report.to_json());

    // Quiescent: every request is answered. Only the wake-up counter
    // moves between the two reads (each read wakes the loop).
    let wire = fetch_stats(&addr).expect("STATS");
    let snapshot = server.metrics_snapshot().lines();
    let pick = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .filter(|l| l.starts_with("counter ") || l.starts_with("histogram "))
            .filter(|l| !l.starts_with("counter server.epoll_wakeups "))
            .collect()
    };
    let wire = pick(wire.lines().map(str::to_string).collect());
    assert!(
        wire.iter().any(|l| l == "counter server.completed 200"),
        "{wire:?}"
    );
    assert!(wire
        .iter()
        .any(|l| l.starts_with("histogram server.latency.virtual ")));
    assert_eq!(pick(snapshot), wire);
    server.stop();
}

/// A one-connection fake peer: accepts, reads the client's HELLO, and
/// hands the socket to `answer`.
fn fake_peer(answer: impl FnOnce(TcpStream) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        next_payload(&stream, &mut FrameBuffer::new()).expect("HELLO arrives");
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

// ----- the client engine against a scripted peer -------------------------
//
// Cases the real server cannot be made to produce on demand: a socket
// that stops taking bytes mid-frame, an answer that arrives after its
// deadline, a close with a full window in flight, a BUSY whose back-off
// can be timed from the other end.

/// The server side of one engine link, scripted by a test: a blocking
/// socket that has already acked the link's HELLO.
struct PeerLink {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl PeerLink {
    /// Accepts the next connection and acks the HELLO it opens with.
    fn accept(listener: &TcpListener) -> PeerLink {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).ok();
        let mut link = PeerLink {
            stream,
            frames: FrameBuffer::new(),
        };
        let hello = next_payload(&link.stream, &mut link.frames).expect("HELLO before EOF");
        match decode_request(&hello) {
            Ok(Request::Hello { tag, version }) => link.reply(&Response::HelloAck { tag, version }),
            other => panic!("a link must open with HELLO, got {other:?}"),
        }
        link
    }

    /// The entries of the next request frame — a BATCH as sent, a single
    /// READ/WRITE as one entry with no `retry_of` — or `None` on EOF.
    fn recv(&mut self) -> Option<Vec<BatchEntry>> {
        let payload = next_payload(&self.stream, &mut self.frames)?;
        Some(match decode_request(&payload).expect("decodable request") {
            Request::Batch(entries) => entries,
            Request::Read {
                tenant,
                tag,
                offset,
                bytes,
            } => vec![entry(IoOp::Read, tenant, tag, offset, bytes)],
            Request::Write {
                tenant,
                tag,
                offset,
                bytes,
            } => vec![entry(IoOp::Write, tenant, tag, offset, bytes)],
            other => panic!("the load loop sends only READ/WRITE/BATCH, got {other:?}"),
        })
    }

    fn reply(&mut self, resp: &Response) {
        write_frame(&mut self.stream, &encode_response(resp)).expect("reply");
    }

    fn done(&mut self, tag: u64) {
        self.reply(&Response::Done {
            tag,
            latency_ns: 1_000,
        });
    }
}

fn entry(op: IoOp, tenant: u32, tag: u64, offset: u64, bytes: u32) -> BatchEntry {
    BatchEntry {
        op,
        tenant,
        tag,
        offset,
        bytes,
        retry_of: 0,
    }
}

fn planned(op: IoOp, offset: u64) -> PlannedIo {
    PlannedIo {
        op,
        offset,
        bytes: 4096,
        tenant: 0,
        due_us: None,
    }
}

/// Binds a loopback listener for a scripted peer.
fn peer_listener() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

/// How many bytes loopback TCP swallows from a non-blocking writer
/// whose peer reads nothing (send buffer + receive buffer, as this
/// kernel autotunes them — megabytes, and not settable from here).
fn loopback_capacity() -> usize {
    let (listener, addr) = peer_listener();
    let mut writer = TcpStream::connect(addr).expect("connect");
    let _silent = listener.accept().expect("accept");
    writer.set_nonblocking(true).unwrap();
    let chunk = [0u8; 16 * 1024];
    let mut total = 0;
    loop {
        match writer.write(&chunk) {
            Ok(n) => total += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return total,
            Err(e) => panic!("probe write: {e}"),
        }
    }
}

#[test]
fn a_batch_frame_cut_short_by_a_full_socket_resumes_where_it_stopped() {
    // Queue a quarter more BATCH(512) bytes than loopback can swallow, at
    // a peer that reads nothing at first: the link's write must stop
    // mid-frame on WouldBlock. The peer then lets bytes through 1 KiB
    // per 5 ms — every writable event resumes the torn frame for about
    // that much — and finally drains. (Reading 1 KiB per 5 ms throughout
    // would take minutes for the megabytes it takes to fill the socket.)
    const BATCH: usize = 512;
    let frame_bytes = 4 + 3 + BATCH * 34; // prefix + header + entries
    let frames = (loopback_capacity() * 5 / 4).div_ceil(frame_bytes);
    let requests = frames * BATCH;

    let (listener, addr) = peer_listener();
    let peer = std::thread::spawn(move || {
        let mut link = PeerLink::accept(&listener);
        std::thread::sleep(Duration::from_millis(100));
        // The link's receive buffer is empty past the HELLO: the client
        // sends nothing before the ack. Trickle straight off the socket,
        // then hand the trickled head of the stream to the buffer.
        let mut trickle = [0u8; 1024];
        for _ in 0..40 {
            link.stream.read_exact(&mut trickle).expect("trickle read");
            link.frames.feed(&trickle);
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut tags = Vec::with_capacity(requests);
        while tags.len() < requests {
            let payload = next_payload(&link.stream, &mut link.frames).expect("frames before EOF");
            match decode_request(&payload).expect("every frame decodes") {
                Request::Batch(entries) => tags.extend(entries.iter().map(|e| e.tag)),
                other => panic!("expected BATCH, got {other:?}"),
            }
        }
        let mut out = Vec::new();
        for tag in tags {
            let done = Response::Done {
                tag,
                latency_ns: 1_000,
            };
            encode_response_frame_into(&done, &mut out);
        }
        link.stream.write_all(&out).expect("answer everything");
    });

    let plan: Vec<PlannedIo> = (0..requests)
        .map(|i| planned(IoOp::Read, (i as u64) << 12))
        .collect();
    let (report, journal) = run_plans(
        &LoadConfig {
            addr,
            depth: requests,
            batch: BATCH,
            request_deadline: Duration::from_secs(60),
            ..LoadConfig::default()
        },
        vec![plan],
    )
    .expect("load");
    peer.join().expect("peer");

    assert_eq!(report.completed, requests as u64, "{}", report.to_json());
    assert_eq!(report.batches_sent, frames as u64);
    assert_eq!(journal.conn_losses, 0, "back-pressure is not a loss");
    assert_eq!(journal.records.len(), requests, "nothing was re-issued");
    assert!(journal
        .records
        .iter()
        .all(|r| r.outcome == Some(Outcome::Done)));
}

#[test]
fn an_answer_after_the_deadline_is_a_duplicate_receipt_not_an_unknown_one() {
    let (listener, addr) = peer_listener();
    let peer = std::thread::spawn(move || {
        let mut link = PeerLink::accept(&listener);
        let first = link.recv().expect("the submission")[0].tag;
        // Sit on it. The next frame can only be the re-issue the
        // deadline sweep queued: answer the expired tag first.
        let again = link.recv().expect("the re-issue");
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].retry_of, first, "re-issue links its ROOT");
        link.done(first);
        link.done(again[0].tag);
        first
    });
    let (report, journal) = run_plans(
        &LoadConfig {
            addr,
            depth: 1,
            request_deadline: Duration::from_millis(200),
            ..LoadConfig::default()
        },
        vec![vec![planned(IoOp::Read, 0)]],
    )
    .expect("load");
    let first = peer.join().expect("peer");

    let [expired, reissue] = &journal.records[..] else {
        panic!("expected two submissions, got {:?}", journal.records);
    };
    assert_eq!(expired.tag, first);
    assert_eq!(expired.outcome, Some(Outcome::TimedOut));
    assert_eq!(
        (expired.duplicate_receipts, expired.conflicting_receipts),
        (1, 0),
        "the straggler lands on the record that expired"
    );
    assert_eq!(reissue.outcome, Some(Outcome::Done));
    assert_eq!(reissue.retry_of, Some(first));
    assert_eq!(journal.unknown_receipts, 0);
    assert_eq!(
        (report.completed, report.timed_out, report.dup_receipts),
        (1, 1, 1),
        "{}",
        report.to_json()
    );
}

#[test]
fn a_close_with_a_full_window_resolves_every_tag_once_and_reissues_only_reads() {
    const READS: usize = 5;
    const WRITES: usize = 3;
    let (listener, addr) = peer_listener();
    let peer = std::thread::spawn(move || {
        // Twice: take the whole window, then hang up on it.
        let mut first = PeerLink::accept(&listener);
        let mut window = Vec::new();
        while window.len() < READS + WRITES {
            window.extend(first.recv().expect("window"));
        }
        drop(first);
        let mut second = PeerLink::accept(&listener);
        let mut again = Vec::new();
        while again.len() < READS {
            again.extend(second.recv().expect("re-issued reads"));
        }
        drop(second);
        // Third time lucky. The chain is two hops long now; the link
        // must still name the ROOT, not the hop in between.
        let mut third = PeerLink::accept(&listener);
        let mut last = Vec::new();
        while last.len() < READS {
            let entries = third.recv().expect("re-issued reads, again");
            for e in &entries {
                third.done(e.tag);
            }
            last.extend(entries);
        }
        (window, again, last)
    });
    let plan: Vec<PlannedIo> = (0..READS + WRITES)
        .map(|i| {
            let op = if i < READS { IoOp::Read } else { IoOp::Write };
            planned(op, (i as u64) << 20)
        })
        .collect();
    let (report, journal) = run_plans(
        &LoadConfig {
            addr,
            depth: READS + WRITES,
            ..LoadConfig::default()
        },
        vec![plan],
    )
    .expect("load");
    let (window, again, last) = peer.join().expect("peer");

    // The ROOT of an offset is the tag its first submission went out under.
    let root_of = |offset: u64| window.iter().find(|e| e.offset == offset).unwrap().tag;
    for e in again.iter().chain(&last) {
        assert_eq!(e.op, IoOp::Read, "a write of unknown fate is never resent");
        assert_eq!(e.retry_of, root_of(e.offset), "wire link is the ROOT");
    }
    assert_eq!(journal.records.len(), READS + WRITES + 2 * READS);
    for rec in &journal.records {
        let first_submission = window.iter().any(|e| e.tag == rec.tag);
        assert_eq!(rec.retry_of.is_none(), first_submission);
        if let Some(root) = rec.retry_of {
            assert_eq!(root, root_of(rec.offset), "journal link is the ROOT");
        }
    }
    let count = |o: Outcome| {
        journal
            .records
            .iter()
            .filter(|r| r.outcome == Some(o))
            .count()
    };
    assert_eq!(count(Outcome::ConnError), READS + WRITES + READS);
    assert_eq!(count(Outcome::Done), READS);
    assert_eq!((journal.conn_losses, journal.reconnects), (2, 2));
    assert_eq!(report.conn_errors as usize, READS + WRITES + READS);
    assert_eq!(
        (report.completed as usize, report.failed as usize),
        (READS, WRITES),
        "{}",
        report.to_json()
    );
    assert_eq!(report.busy_dropped, 0, "the ledger closes on 8");
}

#[test]
fn busy_backs_off_its_own_link_while_a_sibling_on_the_same_worker_completes() {
    const PER_LINK: usize = 10;
    const REFUSALS: usize = 4;
    let backoff = Duration::from_millis(100);
    let (listener, addr) = peer_listener();
    let peer = std::thread::spawn(move || {
        // One worker opens its links one after the other, so the HELLOs
        // can be acked in accept order.
        let links = [PeerLink::accept(&listener), PeerLink::accept(&listener)];
        let serve = |mut link: PeerLink| {
            std::thread::spawn(move || {
                // Arrival time of every request frame; depth is 1.
                let mut arrivals: Vec<(u64, Instant)> = Vec::new();
                while let Some(entries) = link.recv() {
                    let tag = entries[0].tag;
                    arrivals.push((tag, Instant::now()));
                    // Connection 0 is refused its first few submissions.
                    if tag >> 32 == 0 && arrivals.len() <= REFUSALS {
                        link.reply(&Response::Busy {
                            tag,
                            reason: BusyReason::Queue,
                        });
                    } else {
                        link.done(tag);
                    }
                }
                arrivals
            })
        };
        links.map(serve).map(|h| h.join().expect("peer link"))
    });
    let report = run_mux_load(
        &LoadConfig {
            addr,
            connections: 2,
            depth: 1,
            requests: 2 * PER_LINK,
            busy_backoff: backoff,
            ..LoadConfig::default()
        },
        1,
    )
    .expect("load");
    let mut arrivals = peer.join().expect("peer");
    arrivals.sort_by_key(|a| a[0].0 >> 32);
    let [refused, sibling] = arrivals;

    assert_eq!(
        report.completed as usize,
        2 * PER_LINK,
        "{}",
        report.to_json()
    );
    assert_eq!(report.busy_queue as usize, REFUSALS);
    assert_eq!(refused.len(), PER_LINK + REFUSALS);
    // Each refusal costs the refused link one back-off of not sending…
    for pair in refused[..=REFUSALS].windows(2) {
        let gap = pair[1].1 - pair[0].1;
        assert!(gap >= backoff, "re-sent {gap:?} after a BUSY");
        assert_ne!(pair[1].0, pair[0].0, "a re-issue takes a fresh tag");
    }
    // …and costs the sibling nothing: it is through its whole plan
    // before the refused link has sat out its refusals.
    assert_eq!(sibling.len(), PER_LINK);
    let sibling_done = sibling.last().unwrap().1;
    assert!(
        sibling_done < refused[REFUSALS].1,
        "the sibling link stalled behind its neighbour's back-off"
    );
}
