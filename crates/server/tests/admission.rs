//! The admission table, driven over a real socket.
//!
//! For every refusal the admission gate answers, and for each request
//! form that can reach it — a single READ, a single WRITE, a BATCH of
//! one, a BATCH of [`N`] and, on a cluster node after its MAP_PUSH, a
//! REPLICATE shipment — the table pins two things: the responses a
//! client sees, and the deltas of the STATS counters in [`COUNTERS`].
//! A BATCH of one must answer and count exactly like the single frame it
//! wraps, except for `server.batches`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use rif_server::protocol::{
    decode_response, encode_request, write_frame, BatchEntry, BusyReason, ErrorCode, FrameBuffer,
    Request, Response,
};
use rif_server::server::{Server, ServerConfig, MAX_IO_BYTES};
use rif_workloads::IoOp;

/// Entries in the multi-entry BATCH form.
const N: usize = 3;

/// Span of one cluster range: a cluster node here serves four.
const RANGE: u64 = 2 << 30;

/// The counters the table pins.
const COUNTERS: [&str; 12] = [
    "server.batches",
    "server.busy.moving",
    "server.busy.queue",
    "server.busy.ratelimit",
    "server.busy.unavailable",
    "server.busy.writeq",
    "server.protocol_errors",
    "server.repl.applied",
    "server.repl.follower_reads",
    "server.requests.read",
    "server.requests.write",
    "server.wrong_shard",
];

/// Tags of the harness's own requests, outside every tag a row uses.
const STATS_TAG: u64 = u64::MAX - 1;
const FLUSH_TAG: u64 = u64::MAX - 2;

/// How a READ or WRITE reaches the server.
#[derive(Debug, Clone, Copy)]
enum Form {
    Single,
    Batch1,
    BatchN,
}

const FORMS: [Form; 3] = [Form::Single, Form::Batch1, Form::BatchN];

impl Form {
    fn entries(self) -> u64 {
        match self {
            Form::Single | Form::Batch1 => 1,
            Form::BatchN => N as u64,
        }
    }
}

/// `form` of `op` for `tenant`, tagged `tag..`; entry `i` goes to
/// `offset + i * 64 KiB`.
fn io_request(form: Form, op: IoOp, tenant: u32, tag: u64, offset: u64, bytes: u32) -> Request {
    let entry = |i: u64| BatchEntry {
        op,
        tenant,
        tag: tag + i,
        offset: offset + (i << 16),
        bytes,
        retry_of: 0,
    };
    match (form, op) {
        (Form::Single, IoOp::Read) => Request::Read {
            tenant,
            tag,
            offset,
            bytes,
        },
        (Form::Single, IoOp::Write) => Request::Write {
            tenant,
            tag,
            offset,
            bytes,
        },
        _ => Request::Batch((0..form.entries()).map(entry).collect()),
    }
}

/// A BATCH of 4-KiB reads, entry `i` for `tenants[i]`, tagged `tag..`.
fn tenant_batch(tag: u64, tenants: &[u32]) -> Request {
    Request::Batch(
        (0..)
            .zip(tenants)
            .map(|(i, &tenant)| BatchEntry {
                op: IoOp::Read,
                tenant,
                tag: tag + i,
                offset: i << 16,
                bytes: 4096,
                retry_of: 0,
            })
            .collect(),
    )
}

/// A primary's shipment of one write into `range`, under `epoch`.
fn replicate_request(tag: u64, range: u32, epoch: u64, bytes: u32) -> Request {
    Request::Replicate {
        tag,
        range,
        epoch,
        seq: tag,
        tenant: 0,
        offset: u64::from(range) * RANGE + 4096,
        bytes,
    }
}

/// What one exchange produced: the answers, sorted by tag with DONE
/// latencies zeroed, and the nonzero deltas of [`COUNTERS`].
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    answers: Vec<Response>,
    deltas: BTreeMap<&'static str, u64>,
}

impl Outcome {
    fn new(mut answers: Vec<Response>, before: &Stats, after: &Stats) -> Outcome {
        for a in &mut answers {
            if let Response::Done { latency_ns, .. } = a {
                *latency_ns = 0;
            }
        }
        answers.sort_by_key(Response::tag);
        let deltas = COUNTERS
            .iter()
            .map(|&k| (k, (after.get(k) - before.get(k)) as u64))
            .filter(|&(_, d)| d > 0)
            .collect();
        Outcome { answers, deltas }
    }

    /// Drops the answer to `tag` and the counters it booked.
    fn without(mut self, tag: u64, booked: &[&'static str]) -> Outcome {
        self.answers.retain(|r| r.tag() != tag);
        for k in booked {
            *self.deltas.get_mut(k).expect("booked counter") -= 1;
        }
        self.deltas.retain(|_, d| *d > 0);
        self
    }
}

/// The expected outcome when every entry of `req` answers `answer(tag)`
/// and books `per_entry` once per entry (plus one `server.batches` for a
/// BATCH).
fn expect(
    req: &Request,
    answer: impl Fn(u64) -> Response,
    per_entry: &[(&'static str, u64)],
) -> Outcome {
    let tags: Vec<u64> = match req {
        Request::Batch(entries) => entries.iter().map(|e| e.tag).collect(),
        other => vec![other.tag()],
    };
    let mut deltas = BTreeMap::new();
    for &(k, d) in per_entry {
        *deltas.entry(k).or_insert(0) += d * tags.len() as u64;
    }
    if matches!(req, Request::Batch(_)) {
        deltas.insert("server.batches", 1);
    }
    Outcome {
        answers: tags.into_iter().map(answer).collect(),
        deltas,
    }
}

/// `r` with its tag zeroed, to compare answers across exchanges.
fn untagged(r: &Response) -> Response {
    let mut r = r.clone();
    match &mut r {
        Response::Done { tag, .. }
        | Response::Busy { tag, .. }
        | Response::Error { tag, .. }
        | Response::WrongShard { tag, .. }
        | Response::ReplAck { tag, .. } => *tag = 0,
        other => panic!("not an admission answer: {other:?}"),
    }
    r
}

/// The single frame and the BATCH of one answer and count alike, but
/// for the BATCH's one `server.batches`.
fn assert_single_is_batch_of_one(what: &str, single: &Outcome, batch1: &Outcome) {
    assert_eq!(single.deltas.get("server.batches"), None, "{what}");
    assert_eq!(batch1.deltas.get("server.batches"), Some(&1), "{what}");
    let mut deltas = batch1.deltas.clone();
    deltas.remove("server.batches");
    assert_eq!(single.deltas, deltas, "{what}: single vs BATCH(1) counters");
    let answers = |o: &Outcome| o.answers.iter().map(untagged).collect::<Vec<_>>();
    assert_eq!(
        answers(single),
        answers(batch1),
        "{what}: single vs BATCH(1) answers"
    );
}

fn done(tag: u64) -> Response {
    Response::Done { tag, latency_ns: 0 }
}

fn error(code: ErrorCode) -> impl Fn(u64) -> Response {
    move |tag| Response::Error { tag, code }
}

fn busy(reason: BusyReason) -> impl Fn(u64) -> Response {
    move |tag| Response::Busy { tag, reason }
}

fn wrong_shard(epoch: u64) -> impl Fn(u64) -> Response {
    move |tag| Response::WrongShard { tag, epoch }
}

fn requests(op: IoOp) -> &'static str {
    match op {
        IoOp::Read => "server.requests.read",
        IoOp::Write => "server.requests.write",
    }
}

/// Every `counter` and `gauge` line of a STATS text.
struct Stats(BTreeMap<String, f64>);

impl Stats {
    fn parse(text: &str) -> Stats {
        Stats(
            text.lines()
                .filter_map(|line| {
                    let mut w = line.split(' ');
                    match (w.next(), w.next(), w.next()) {
                        (Some("counter" | "gauge"), Some(k), Some(v)) => {
                            Some((k.to_string(), v.parse().expect("numeric metric")))
                        }
                        _ => None,
                    }
                })
                .collect(),
        )
    }

    /// The same view, in process: for a server no longer answering STATS.
    fn of(server: &Server) -> Stats {
        Stats::parse(&server.metrics_snapshot().lines().join("\n"))
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// A blocking client socket read through the one receive buffer.
struct Peer {
    stream: TcpStream,
    frames: FrameBuffer,
    next_tag: u64,
}

impl Peer {
    fn connect(server: &Server) -> Peer {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Peer {
            stream,
            frames: FrameBuffer::new(),
            next_tag: 1,
        }
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_request(req))
    }

    /// The next response, or `None` once the server closed the socket.
    fn recv(&mut self) -> Option<Response> {
        loop {
            if let Some(p) = self.frames.next_frame().expect("frame sync") {
                return Some(decode_response(p).expect("decodable response"));
            }
            match self.frames.read_from(&mut self.stream) {
                Ok(0) => return None,
                Ok(_) => {}
                // A close with our frame unread in its buffer resets.
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn call(&mut self, req: &Request) -> Response {
        self.send(req).expect("send");
        self.recv().expect("answer")
    }

    fn stats(&mut self) -> Stats {
        match self.call(&Request::Stats { tag: STATS_TAG }) {
            Response::Stats { text, .. } => Stats::parse(&text),
            other => panic!("expected STATS, got {other:?}"),
        }
    }

    /// The first of `count` fresh tags.
    fn tags(&mut self, count: u64) -> u64 {
        let first = self.next_tag;
        self.next_tag += count;
        first
    }

    fn io(&mut self, form: Form, op: IoOp, offset: u64, bytes: u32) -> Request {
        let tag = self.tags(form.entries());
        io_request(form, op, 0, tag, offset, bytes)
    }

    /// Sends `reqs` and a FLUSH behind them, and returns every answer to
    /// `reqs` (admitted entries included: the FLUSH waits them out) with
    /// the counter deltas they booked.
    fn exchange(&mut self, reqs: &[Request]) -> Outcome {
        let before = self.stats();
        for req in reqs {
            self.send(req).expect("send");
        }
        self.send(&Request::Flush { tag: FLUSH_TAG }).expect("send");
        let mut answers = Vec::new();
        loop {
            match self.recv().expect("answers before FLUSHED") {
                Response::Flushed { tag: FLUSH_TAG } => break,
                r => answers.push(r),
            }
        }
        let after = self.stats();
        Outcome::new(answers, &before, &after)
    }

    /// A cluster node's MAP_PUSH: epoch 1 over four ranges.
    fn map_push(&mut self, owned: Vec<u32>, followed: Vec<u32>) {
        let tag = self.tags(1);
        let resp = self.call(&Request::MapPush {
            tag,
            epoch: 1,
            capacity_bytes: 4 * RANGE,
            ranges: 4,
            owned,
            followed,
            replicas: Vec::new(),
            map_text: String::new(),
        });
        assert!(
            matches!(resp, Response::MapResp { epoch: 1, .. }),
            "{resp:?}"
        );
    }

    /// One row of the table: each form of `op` answers every entry
    /// `answer(tag)` and books `per_entry` per entry, and the single
    /// frame is a BATCH of one.
    fn row(
        &mut self,
        what: &str,
        (op, offset, bytes): (IoOp, u64, u32),
        answer: impl Fn(u64) -> Response,
        per_entry: &[(&'static str, u64)],
    ) {
        let outcomes: Vec<Outcome> = FORMS
            .iter()
            .map(|&form| {
                let req = self.io(form, op, offset, bytes);
                let got = self.exchange(std::slice::from_ref(&req));
                assert_eq!(
                    got,
                    expect(&req, &answer, per_entry),
                    "{what}: {form:?} {op:?}"
                );
                got
            })
            .collect();
        assert_single_is_batch_of_one(what, &outcomes[0], &outcomes[1]);
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        // Slow enough that an admitted request is still in flight when
        // the next frame arrives; every exchange FLUSHes its answers out.
        time_scale: 0.001,
        ..ServerConfig::default()
    }
}

fn cluster_config() -> ServerConfig {
    ServerConfig {
        shards: 4,
        capacity_bytes: 4 * RANGE,
        cluster: true,
        ..config()
    }
}

#[test]
fn admitted_and_bad_length_rows() {
    let server = Server::start(config(), 0).expect("bind");
    let mut peer = Peer::connect(&server);
    for op in [IoOp::Read, IoOp::Write] {
        peer.row("admitted", (op, 1 << 20, 4096), done, &[(requests(op), 1)]);
        for bytes in [0, MAX_IO_BYTES + 1] {
            peer.row(
                &format!("{bytes} bytes"),
                (op, 1 << 20, bytes),
                error(ErrorCode::BadLength),
                &[("server.protocol_errors", 1)],
            );
        }
    }
    server.stop();
}

#[test]
fn cluster_rows() {
    let server = Server::start(cluster_config(), 0).expect("bind");
    let mut peer = Peer::connect(&server);
    // Range 0 owned, 1 followed, 2 another node's, 3 sealed for a move.
    peer.map_push(vec![0, 3], vec![1]);
    let tag = peer.tags(1);
    let sealed = peer.call(&Request::MigrateOut { tag, range: 3 });
    assert!(
        matches!(sealed, Response::Migrated { range: 3, .. }),
        "{sealed:?}"
    );

    for op in [IoOp::Read, IoOp::Write] {
        peer.row("owned", (op, 4096, 4096), done, &[(requests(op), 1)]);
        let wrong = [("server.wrong_shard", 1)];
        peer.row("not owned", (op, 2 * RANGE, 4096), wrong_shard(1), &wrong);
        let moving = [("server.busy.moving", 1)];
        peer.row(
            "moving",
            (op, 3 * RANGE, 4096),
            busy(BusyReason::Moving),
            &moving,
        );
    }
    peer.row(
        "follower read",
        (IoOp::Read, RANGE, 4096),
        done,
        &[
            ("server.requests.read", 1),
            ("server.repl.follower_reads", 1),
        ],
    );
    peer.row(
        "follower write",
        (IoOp::Write, RANGE, 4096),
        wrong_shard(1),
        &[("server.wrong_shard", 1)],
    );

    // REPLICATE: a primary at an epoch no older than ours may write a
    // followed or owned range here, and nothing else.
    for (what, range, epoch) in [("followed", 1, 1), ("owned", 0, 1), ("primary ahead", 1, 2)] {
        let tag = peer.tags(1);
        let req = replicate_request(tag, range, epoch, 4096);
        let got = peer.exchange(std::slice::from_ref(&req));
        let ack = |tag| Response::ReplAck {
            tag,
            range,
            seq: tag,
        };
        let want = expect(&req, ack, &[("server.repl.applied", 1)]);
        assert_eq!(got, want, "REPLICATE {what}");
    }
    type Answer = Box<dyn Fn(u64) -> Response>;
    let refusals: [(&str, u32, u64, u32, Answer, &str); 5] = [
        (
            "stale epoch",
            1,
            0,
            4096,
            Box::new(wrong_shard(1)),
            "server.wrong_shard",
        ),
        (
            "not owned",
            2,
            1,
            4096,
            Box::new(wrong_shard(1)),
            "server.wrong_shard",
        ),
        (
            "moving",
            3,
            1,
            4096,
            Box::new(busy(BusyReason::Moving)),
            "server.busy.moving",
        ),
        (
            "0 bytes",
            1,
            1,
            0,
            Box::new(error(ErrorCode::BadLength)),
            "server.protocol_errors",
        ),
        (
            "oversized",
            1,
            1,
            MAX_IO_BYTES + 1,
            Box::new(error(ErrorCode::BadLength)),
            "server.protocol_errors",
        ),
    ];
    for (what, range, epoch, bytes, answer, counter) in refusals {
        let tag = peer.tags(1);
        let req = replicate_request(tag, range, epoch, bytes);
        let got = peer.exchange(std::slice::from_ref(&req));
        assert_eq!(
            got,
            expect(&req, answer, &[(counter, 1)]),
            "REPLICATE {what}"
        );
    }
    server.stop();
}

#[test]
fn rate_limit_rows() {
    let server = Server::start(
        ServerConfig {
            // Two tokens per tenant, and no refill within the test.
            rate_per_sec: 0.001,
            burst: 2.0,
            ..config()
        },
        0,
    )
    .expect("bind");
    let mut peer = Peer::connect(&server);
    let limited = [("server.requests.read", 1), ("server.busy.ratelimit", 1)];

    // A dry tenant: every entry of every form bounces.
    let mut outcomes = Vec::new();
    for (tenant, form) in (1..).zip(FORMS) {
        let tag = peer.tags(2);
        let drain = peer.exchange(&[tenant_batch(tag, &[tenant, tenant])]);
        assert_eq!(drain.answers, [done(tag), done(tag + 1)], "burst admitted");
        let tag = peer.tags(form.entries());
        let req = io_request(form, IoOp::Read, tenant, tag, 0, 4096);
        let got = peer.exchange(std::slice::from_ref(&req));
        let want = expect(&req, busy(BusyReason::RateLimit), &limited);
        assert_eq!(got, want, "dry tenant: {form:?}");
        outcomes.push(got);
    }
    assert_single_is_batch_of_one("dry tenant", &outcomes[0], &outcomes[1]);

    // Two tenants in one batch, the second short: every entry bounces,
    // and the first tenant, charged before the second came up short,
    // gets its whole burst back — two singles pass, the third bounces.
    let (first, second) = (10, 11);
    let tag = peer.tags(5);
    let req = tenant_batch(tag, &[first, first, second, second, second]);
    let got = peer.exchange(std::slice::from_ref(&req));
    let want = expect(&req, busy(BusyReason::RateLimit), &limited);
    assert_eq!(got, want, "two-tenant batch, second short");
    for admitted in [true, true, false] {
        let tag = peer.tags(1);
        let req = Request::Read {
            tenant: first,
            tag,
            offset: 0,
            bytes: 4096,
        };
        let got = peer.exchange(&[req]);
        let want = if admitted {
            done(tag)
        } else {
            busy(BusyReason::RateLimit)(tag)
        };
        assert_eq!(got.answers, [want], "refunded tenant");
    }
    server.stop();
}

#[test]
fn full_window_rows() {
    let server = Server::start(
        ServerConfig {
            shards: 1,
            inflight_limit: 1,
            ..config()
        },
        0,
    )
    .expect("bind");
    let mut peer = Peer::connect(&server);
    let occupant_books = ["server.requests.read"];
    for op in [IoOp::Read, IoOp::Write] {
        let mut outcomes = Vec::new();
        for form in FORMS {
            // One read fills the window; the form behind it bounces whole
            // and reserves nothing.
            let occupant = peer.io(Form::Single, IoOp::Read, 0, 4096);
            let req = peer.io(form, op, 1 << 20, 4096);
            let got = peer.exchange(&[occupant.clone(), req.clone()]);
            assert_eq!(got.answers[0], done(occupant.tag()), "occupant served");
            assert_eq!(peer.stats().get("server.inflight.shard0"), 0.0);
            let bounced = got.without(occupant.tag(), &occupant_books);
            let queue = [(requests(op), 1), ("server.busy.queue", 1)];
            let want = expect(&req, busy(BusyReason::Queue), &queue);
            assert_eq!(bounced, want, "full window: {form:?} {op:?}");
            outcomes.push(bounced);
        }
        assert_single_is_batch_of_one("full window", &outcomes[0], &outcomes[1]);
    }
    server.stop();

    // A REPLICATE shipment behind a follower read that fills the window.
    let server = Server::start(
        ServerConfig {
            inflight_limit: 1,
            ..cluster_config()
        },
        0,
    )
    .expect("bind");
    let mut peer = Peer::connect(&server);
    peer.map_push(vec![0], vec![1]);
    let occupant = peer.io(Form::Single, IoOp::Read, RANGE, 4096);
    let tag = peer.tags(1);
    let req = replicate_request(tag, 1, 1, 4096);
    let got = peer.exchange(&[occupant.clone(), req.clone()]);
    assert_eq!(got.answers[0], done(occupant.tag()), "occupant served");
    assert_eq!(peer.stats().get("server.inflight.shard1"), 0.0);
    let bounced = got.without(
        occupant.tag(),
        &["server.requests.read", "server.repl.follower_reads"],
    );
    let want = expect(&req, busy(BusyReason::Queue), &[("server.busy.queue", 1)]);
    assert_eq!(bounced, want, "full window: REPLICATE");
    server.stop();
}

/// Starts a server (`setup` runs first on the connection that will send
/// `req`), shuts it down from a second connection, and sends `req` right
/// behind the SHUTDOWN. The shutdown refusal is met only by a frame the
/// event loop reads in the same pass as the SHUTDOWN — after that pass
/// the drain reads nothing — so a third connection first keeps the loop
/// busy rendering STATS while the two frames land together. Should the
/// request still miss that pass, it is never read and the attempt is
/// repeated.
fn shutdown_exchange(cfg: &ServerConfig, setup: impl Fn(&mut Peer), req: &Request) -> Outcome {
    let mut flood = Vec::new();
    for _ in 0..1000 {
        write_frame(
            &mut flood,
            &encode_request(&Request::Stats { tag: STATS_TAG }),
        )
        .unwrap();
    }
    for _ in 0..10 {
        let server = Server::start(cfg.clone(), 0).expect("bind");
        let mut staller = Peer::connect(&server);
        let mut stopper = Peer::connect(&server);
        let mut peer = Peer::connect(&server);
        setup(&mut peer);
        // Every connection is registered with the loop before the race.
        for p in [&mut staller, &mut stopper, &mut peer] {
            p.stats();
        }
        let before = Stats::of(&server);
        staller.stream.write_all(&flood).expect("flood");
        std::thread::sleep(Duration::from_millis(2));
        stopper.send(&Request::Shutdown { tag: 1 }).expect("send");
        let _ = peer.send(req);
        let mut answers = Vec::new();
        while let Some(r) = peer.recv() {
            answers.push(r);
        }
        let after = Stats::of(&server);
        drop(staller);
        server.stop();
        if !answers.is_empty() {
            return Outcome::new(answers, &before, &after);
        }
    }
    panic!("no request ever met the shutdown refusal");
}

#[test]
fn shutdown_rows() {
    let refused = error(ErrorCode::ShuttingDown);
    for op in [IoOp::Read, IoOp::Write] {
        let outcomes: Vec<Outcome> = FORMS
            .iter()
            .map(|&form| {
                let req = io_request(form, op, 0, 100, 1 << 20, 4096);
                let got = shutdown_exchange(&config(), |_| {}, &req);
                assert_eq!(
                    got,
                    expect(&req, &refused, &[]),
                    "shutdown: {form:?} {op:?}"
                );
                got
            })
            .collect();
        assert_single_is_batch_of_one("shutdown", &outcomes[0], &outcomes[1]);
    }
    let req = replicate_request(100, 1, 1, 4096);
    let got = shutdown_exchange(&cluster_config(), |p| p.map_push(vec![0], vec![1]), &req);
    assert_eq!(got, expect(&req, &refused, &[]), "shutdown: REPLICATE");
}
