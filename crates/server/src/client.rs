//! The load generator: one readiness-driven connection engine, hardened
//! for lossy transports, and the closed-loop driver on top of it.
//!
//! The engine is two types. A [`Wire`] is the transport to one endpoint:
//! a non-blocking socket (opened through [`Conn::connect`], so
//! HELLO-checked), an incremental frame decoder, the bytes the socket
//! has not accepted yet, and a reconnect back-off. A [`Ledger`] is the
//! request bookkeeping over any number of wires: tag issue, the
//! [`Journal`], request framing, the in-flight table with a deadline per
//! submission, the receipt table, the BUSY and error counters, the
//! latency histogram. Two drivers run on it, and what each adds is
//! *policy* — what is sent where and when, and what becomes of an
//! operation whose submission did not end in DONE. The cluster router
//! (`rif_cluster::router`) keeps one ledger over a wire per node, with a
//! global queue and window, routing by shard map, a back-off per refused
//! operation and replica failover for reads. The closed loop in this
//! module makes every *link* a ledger, a wire and a queue of its own
//! with a fixed window (`depth` in flight, then wait for responses),
//! BATCH accumulation, a refusal back-off that pauses the whole link and
//! a bounded reconnect budget. Offsets and the read/write mix come from
//! the same [`SynthConfig`] generator the offline experiments use, so a
//! served workload is directly comparable to a batch-simulated one.
//!
//! The closed loop's entry points differ only in how links are grouped
//! onto worker threads: [`run_load`], [`run_plans`] and the replay
//! driver give every link a worker of its own; [`run_mux_load`] deals
//! the same links round-robin onto a few workers, which is what makes
//! ≥10k concurrent connections practical from one process.
//!
//! Nothing in the request path sleeps. Every wait is a due-time — a
//! refusal back-off, the reconnect back-off, a replayed request's
//! recorded arrival, the batch flush deadline, the earliest request
//! deadline — and a driver blocks in the [`Poller`] until a socket is
//! ready or the nearest due-time arrives, at most one `POLL_TICK`
//! ([`wait_for_work`]).
//!
//! The engine is built to survive a fault-injecting path (see the
//! `rif-chaos` crate) without ever losing track of a request:
//!
//! - **Per-request deadlines** — every submission carries a deadline;
//!   a response that never arrives (dropped frame, wedged server)
//!   resolves the tag as `TimedOut` instead of hanging the loop.
//! - **Reconnect with memory** — a broken connection is re-established
//!   with exponential backoff plus seeded jitter (the closed loop bounds
//!   the attempts, the router does not); in-flight tags resolve as
//!   `ConnError`. Sibling wires keep running through the back-off.
//! - **Idempotent retry only** — reads (and refused requests of either
//!   kind, which were never admitted) are re-issued under a fresh tag
//!   against the driver's budget; a write whose fate is unknown (worker
//!   crash, timeout, connection loss) is *failed* upward, never blindly
//!   retried ([`Op::reissuable`]).
//! - **Request journal** — every submission and its single terminal
//!   outcome are recorded in a [`Journal`], which the `rif-chaos`
//!   ContractChecker audits for the service contract: every tag resolves
//!   to exactly one of DONE/BUSY/ERROR, a timeout, or a clean connection
//!   error — never silence, never two outcomes. Resolved tags stay in a
//!   receipt table with the fingerprint of the resolving payload, so a
//!   late or duplicated response is told apart from a conflicting one
//!   and from one for a tag never submitted.
//!
//! Wall latency is measured per submission from the moment its frame is
//! queued for the socket to the moment its `DONE` is decoded, and
//! aggregated in a log-bucketed histogram for p50/p99/p99.9.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use rif_events::stats::LatencyHistogram;
use rif_events::{SimDuration, SimRng};
use rif_workloads::{IoOp, SynthConfig};

use crate::poller::{best_poller, Interest, PollEvent, Poller};
use crate::protocol::{
    decode_response, encode_request, write_frame, BatchEntry, BusyReason, ErrorCode, FrameBuffer,
    Request, Response, WireError, MAX_BATCH_ENTRIES, PROTOCOL_VERSION,
};
use crate::ring::READ_CHUNK;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Parallel connections.
    pub connections: usize,
    /// Outstanding requests per connection (the closed-loop window).
    pub depth: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Fraction of reads.
    pub read_ratio: f64,
    /// Zipf exponent for hot-region locality.
    pub zipf_s: f64,
    /// Transfer size per request.
    pub request_bytes: u32,
    /// Tenant id stamped on every request.
    pub tenant: u32,
    /// Workload seed; connection `i` uses `seed + i`.
    pub seed: u64,
    /// Backoff before retrying a BUSY response.
    pub busy_backoff: Duration,
    /// Give up on a request after this many BUSY retries (0 = drop on
    /// first BUSY). Exhausted requests count as `busy_dropped`.
    pub max_busy_retries: u32,
    /// A request with no response after this long resolves as timed out.
    pub request_deadline: Duration,
    /// Requests per BATCH frame (`<= 1` disables batching: every request
    /// rides its own single-request frame).
    pub batch: usize,
}

impl LoadConfig {
    /// The trace generator behind the synthetic load: the default mix
    /// with this load's read ratio, Zipf exponent and request size.
    pub fn synth(&self) -> SynthConfig {
        SynthConfig {
            read_ratio: self.read_ratio,
            zipf_s: self.zipf_s,
            request_bytes: self.request_bytes,
            ..SynthConfig::default()
        }
    }
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            connections: 2,
            depth: 8,
            requests: 1000,
            read_ratio: 0.9,
            zipf_s: 0.9,
            request_bytes: 64 * 1024,
            tenant: 0,
            seed: 1,
            busy_backoff: Duration::from_micros(200),
            max_busy_retries: 50,
            request_deadline: Duration::from_secs(2),
            batch: 1,
        }
    }
}

/// How a submitted tag resolved. Exactly one outcome per tag — the
/// client guarantees it by construction and the chaos ContractChecker
/// audits it from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The server answered DONE.
    Done,
    /// The server refused admission (queue, rate limit, or dead shard).
    Busy,
    /// The server answered ERROR.
    Error,
    /// No response within the request deadline.
    TimedOut,
    /// The connection died with the request in flight.
    ConnError,
}

/// One submission's journal entry.
#[derive(Debug, Clone)]
pub struct TagRecord {
    /// Connection index that issued the tag.
    pub conn: u32,
    /// The wire tag (unique across the whole run).
    pub tag: u64,
    /// Read or write.
    pub op: IoOp,
    /// Logical byte offset of the submission.
    pub offset: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// The prior tag this submission re-issues, if any.
    pub retry_of: Option<u64>,
    /// Terminal outcome; `None` only while still in flight.
    pub outcome: Option<Outcome>,
    /// Responses received after resolution whose payload matched the
    /// resolving one (e.g. a duplicated frame, or a late reply to a tag
    /// that already timed out).
    pub duplicate_receipts: u32,
    /// Responses received after resolution whose payload *differed* from
    /// the resolving one — a contract violation unless the fault plan
    /// injects duplication or corruption.
    pub conflicting_receipts: u32,
}

/// The client-side request journal for one load run.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// One record per wire submission, in per-connection send order.
    pub records: Vec<TagRecord>,
    /// Decodable responses whose tag matches no submission this client
    /// ever made (corrupted tag bits, or the server's tag-0 error reply
    /// to an undecodable request frame).
    pub unknown_receipts: u64,
    /// Frames that failed to decode as any response.
    pub undecodable_frames: u64,
    /// Connections lost mid-run.
    pub conn_losses: u64,
    /// Successful reconnects.
    pub reconnects: u64,
}

impl Journal {
    /// Folds another connection's journal into this one.
    pub fn merge(&mut self, other: Journal) {
        self.records.extend(other.records);
        self.unknown_receipts += other.unknown_receipts;
        self.undecodable_frames += other.undecodable_frames;
        self.conn_losses += other.conn_losses;
        self.reconnects += other.reconnects;
    }
}

/// Aggregated result of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests that completed with DONE.
    pub completed: u64,
    /// BUSY responses observed (each retry counts once).
    pub busy_queue: u64,
    /// BUSY(rate_limit) responses observed.
    pub busy_ratelimit: u64,
    /// BUSY(unavailable) responses observed (dead shard window).
    pub busy_unavailable: u64,
    /// Requests dropped after exhausting BUSY retries.
    pub busy_dropped: u64,
    /// Protocol errors: undecodable frames, unsolicited response kinds,
    /// and ERROR(BadRequest/BadLength) replies.
    pub protocol_errors: u64,
    /// ERROR(Internal) replies (shard crashed with the request in
    /// flight).
    pub internal_errors: u64,
    /// Tags that resolved by deadline expiry.
    pub timed_out: u64,
    /// Tags that resolved by connection loss.
    pub conn_errors: u64,
    /// Successful reconnects across all connections.
    pub reconnects: u64,
    /// BATCH frames sent (zero when batching is disabled).
    pub batches_sent: u64,
    /// Operations abandoned without completion (write fate unknown, or
    /// retry budget exhausted). `completed + failed + busy_dropped`
    /// accounts for every planned request.
    pub failed: u64,
    /// Post-resolution receipts with matching payloads (duplicated or
    /// late frames).
    pub dup_receipts: u64,
    /// Decodable responses for tags never submitted.
    pub unknown_receipts: u64,
    /// `WRONG_SHARD` refusals observed (cluster mode: the request hit a
    /// node that does not own its LBA range). Never admitted, so each
    /// one is retried like a BUSY — a cluster router refreshes its map
    /// before the re-issue.
    pub wrong_shard: u64,
    /// Wall-clock seconds from first send to last response.
    pub wall_secs: f64,
    /// Wall-latency percentiles, microseconds.
    pub p50_us: f64,
    /// 99th percentile wall latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile wall latency, microseconds.
    pub p999_us: f64,
    /// Mean wall latency, microseconds.
    pub mean_us: f64,
    /// Completed requests per wall second.
    pub throughput_rps: f64,
}

impl LoadReport {
    /// Canonical JSON rendering (stable key order, no external deps).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"completed\":{},\"busy_queue\":{},\"busy_ratelimit\":{},",
                "\"busy_unavailable\":{},\"busy_dropped\":{},\"protocol_errors\":{},",
                "\"internal_errors\":{},\"timed_out\":{},\"conn_errors\":{},",
                "\"reconnects\":{},\"batches_sent\":{},\"failed\":{},\"dup_receipts\":{},",
                "\"unknown_receipts\":{},\"wrong_shard\":{},\"wall_secs\":{:.6},",
                "\"throughput_rps\":{:.1},\"latency_us\":{{\"mean\":{:.1},",
                "\"p50\":{:.1},\"p99\":{:.1},\"p999\":{:.1}}}}}"
            ),
            self.completed,
            self.busy_queue,
            self.busy_ratelimit,
            self.busy_unavailable,
            self.busy_dropped,
            self.protocol_errors,
            self.internal_errors,
            self.timed_out,
            self.conn_errors,
            self.reconnects,
            self.batches_sent,
            self.failed,
            self.dup_receipts,
            self.unknown_receipts,
            self.wrong_shard,
            self.wall_secs,
            self.throughput_rps,
            self.mean_us,
            self.p50_us,
            self.p99_us,
            self.p999_us,
        )
    }

    /// Adds `other`'s counters to this report. The derived fields (wall
    /// time, percentiles, throughput) do not add; [`finish`](Self::finish)
    /// computes them once every part is merged.
    pub fn merge(&mut self, other: &LoadReport) {
        // Exhaustive on purpose (no `..`): a counter added to the struct
        // and forgotten here is a compile error, not a silent zero.
        let LoadReport {
            completed,
            busy_queue,
            busy_ratelimit,
            busy_unavailable,
            busy_dropped,
            protocol_errors,
            internal_errors,
            timed_out,
            conn_errors,
            reconnects,
            batches_sent,
            failed,
            dup_receipts,
            unknown_receipts,
            wrong_shard,
            wall_secs: _,
            p50_us: _,
            p99_us: _,
            p999_us: _,
            mean_us: _,
            throughput_rps: _,
        } = other;
        self.completed += completed;
        self.busy_queue += busy_queue;
        self.busy_ratelimit += busy_ratelimit;
        self.busy_unavailable += busy_unavailable;
        self.busy_dropped += busy_dropped;
        self.protocol_errors += protocol_errors;
        self.internal_errors += internal_errors;
        self.timed_out += timed_out;
        self.conn_errors += conn_errors;
        self.reconnects += reconnects;
        self.batches_sent += batches_sent;
        self.failed += failed;
        self.dup_receipts += dup_receipts;
        self.unknown_receipts += unknown_receipts;
        self.wrong_shard += wrong_shard;
    }

    /// Fills in the derived fields from the run's latency histogram and
    /// its wall time.
    pub fn finish(&mut self, hist: &LatencyHistogram, wall: Duration) {
        self.wall_secs = wall.as_secs_f64();
        self.mean_us = hist.mean().as_us();
        self.p50_us = hist.percentile(50.0).map_or(0.0, |d| d.as_us());
        self.p99_us = hist.percentile(99.0).map_or(0.0, |d| d.as_us());
        self.p999_us = hist.percentile(99.9).map_or(0.0, |d| d.as_us());
        self.throughput_rps = if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        };
    }
}

/// One pre-generated request before it goes on the wire.
#[derive(Debug, Clone, Copy)]
pub struct PlannedIo {
    /// Read or write.
    pub op: IoOp,
    /// Logical byte offset.
    pub offset: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Tenant the request is stamped with.
    pub tenant: u32,
    /// Earliest wall time (µs after the run starts) this request may be
    /// sent. `None` = closed-loop pacing (send as soon as the window has
    /// room); `Some` = open-loop replay pacing at recorded arrivals.
    pub due_us: Option<u64>,
}

/// Runs the closed loop, one worker thread per connection, and
/// aggregates all connections' results.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    run_load_journaled(cfg).map(|(report, _journal)| report)
}

/// Like [`run_load`] but also returns the request [`Journal`] for
/// contract checking.
pub fn run_load_journaled(cfg: &LoadConfig) -> io::Result<(LoadReport, Journal)> {
    run_plans(cfg, plans(cfg))
}

/// Runs the same closed loop as [`run_load`] with the connections dealt
/// round-robin onto `threads` workers instead of one worker each, so
/// concurrent connections cost sockets, not threads.
pub fn run_mux_load(cfg: &LoadConfig, threads: usize) -> io::Result<LoadReport> {
    run_grouped(cfg, plans(cfg), threads).map(|(report, _journal)| report)
}

/// Drives one pre-built request plan per connection through the server,
/// one worker thread per plan. This is the entry under
/// [`run_load_journaled`] (synthetic closed-loop plans) and
/// [`crate::replay::run_replay_journaled`] (captured open-loop plans
/// with recorded due times).
pub fn run_plans(
    cfg: &LoadConfig,
    plans: Vec<Vec<PlannedIo>>,
) -> io::Result<(LoadReport, Journal)> {
    let workers = plans.len();
    run_grouped(cfg, plans, workers)
}

/// The one engine entry: plan `i` becomes link `i`, links are dealt
/// round-robin onto `workers` threads, and the parts merge into one
/// report and journal.
fn run_grouped(
    cfg: &LoadConfig,
    plans: Vec<Vec<PlannedIo>>,
    workers: usize,
) -> io::Result<(LoadReport, Journal)> {
    if cfg.depth == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need a send window: depth must be positive",
        ));
    }
    let workers = workers.clamp(1, plans.len().max(1));
    let mut groups: Vec<Vec<(usize, Vec<PlannedIo>)>> = vec![Vec::new(); workers];
    for (conn, plan) in plans.into_iter().enumerate() {
        if !plan.is_empty() {
            groups[conn % workers].push((conn, plan));
        }
    }
    let started = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .filter(|group| !group.is_empty())
            .map(|group| s.spawn(move || drive_links(cfg, group)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("load worker thread panicked"))?
            })
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok(conclude(parts, started.elapsed()))
}

/// The synthetic closed-loop plans: `cfg.requests` dealt evenly over
/// `cfg.connections` (the first `requests % connections` get one more).
fn plans(cfg: &LoadConfig) -> Vec<Vec<PlannedIo>> {
    let conns = cfg.connections.max(1);
    (0..conns)
        .map(|conn| {
            let n = cfg.requests / conns + usize::from(conn < cfg.requests % conns);
            plan(cfg, conn, n)
        })
        .collect()
}

fn plan(cfg: &LoadConfig, conn: usize, n: usize) -> Vec<PlannedIo> {
    // Arrivals are discarded: a closed loop paces itself by completions.
    cfg.synth()
        .generate(n, cfg.seed + conn as u64)
        .iter()
        .map(|r| PlannedIo {
            op: r.op,
            offset: r.offset,
            bytes: r.bytes,
            tenant: cfg.tenant,
            due_us: None,
        })
        .collect()
}

/// The longest a worker blocks in the poller before it looks at its
/// links' due-times again; also the read timeout of a blocking [`Conn`].
const POLL_TICK: Duration = Duration::from_millis(1);

/// Cap on the exponential reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Salt for the per-connection jitter RNG stream.
const JITTER_SALT: u64 = 0xC4A0_5C4A_05C4_A05C;

/// FNV-1a over a response payload: the fingerprint duplicate detection
/// compares post-resolution receipts against.
fn fingerprint(payload: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One client connection past its HELLO check: a nodelay TCP stream, its
/// buffered writer, and an incremental frame decoder — the blocking
/// one-at-a-time RPC connection of the directory and the admin clients,
/// and what [`Wire::ensure_up`] takes its socket from.
pub struct Conn {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    frames: FrameBuffer,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(POLL_TICK))?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            writer,
            frames: FrameBuffer::new(),
        })
    }

    /// Connects to `addr` and runs the HELLO version check. Anything but
    /// `HELLO_ACK(PROTOCOL_VERSION)` inside [`HELLO_TIMEOUT`] — an ERROR,
    /// another version, silence, EOF — is a failed connect, which callers
    /// retry through their bounded reconnect/backoff path.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let mut c = Conn::open(addr)?;
        check_hello(&mut c)?;
        Ok(c)
    }

    /// The protocol version this connection speaks: a live `Conn` has
    /// passed the HELLO check, so always [`PROTOCOL_VERSION`].
    pub fn version(&self) -> u32 {
        PROTOCOL_VERSION
    }

    /// Switches the socket to non-blocking mode: [`pump`](Conn::pump)
    /// then returns `Ok(false)` at once when no bytes are queued, and
    /// the caller paces its own waiting.
    pub fn set_nonblocking(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(true)
    }

    /// Writes one request frame and flushes it to the socket.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, &encode_request(req))
    }

    /// Sends `req` and waits up to `timeout` for the next response: the
    /// one-at-a-time RPC of the HELLO check, the directory and the admin
    /// one-shots. EOF, a transport error, an
    /// undecodable frame and silence are all `Err`; a `timeout` past any
    /// representable instant (`Duration::MAX`) waits as long as it takes.
    pub fn call(&mut self, req: &Request, timeout: Duration) -> io::Result<Response> {
        self.send(req)?;
        let deadline = Instant::now().checked_add(timeout);
        let invalid = |e: WireError| io::Error::new(io::ErrorKind::InvalidData, e);
        while deadline.is_none_or(|d| Instant::now() < d) {
            if let Some(payload) = self.next_frame().map_err(invalid)? {
                return decode_response(payload).map_err(invalid);
            }
            self.pump()?;
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "no response"))
    }

    /// The next complete response payload already buffered, if any, as
    /// a borrow of the receive buffer. An `Err` means frame sync is
    /// unrecoverable (oversized prefix).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        self.frames.next_frame()
    }

    /// Pulls whatever bytes are available (bounded by the read timeout)
    /// into the frame buffer. `Ok(true)` if bytes arrived, `Ok(false)`
    /// on a timeout tick, `Err` on EOF or a transport error.
    pub fn pump(&mut self) -> io::Result<bool> {
        match self.frames.read_from(&mut self.stream) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => Ok(true),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Correlation tag reserved for the HELLO handshake. Load tags are
/// `(conn << 32) | counter`, so `u64::MAX` can never collide.
pub(crate) const HELLO_TAG: u64 = u64::MAX;

/// How long the handshake waits for HELLO_ACK before the connect fails
/// (a peer that is not serving, or a transport that ate the ack).
pub const HELLO_TIMEOUT: Duration = Duration::from_millis(250);

/// Blocking HELLO handshake: `Ok` only on `HELLO_ACK(PROTOCOL_VERSION)`.
fn check_hello(c: &mut Conn) -> io::Result<()> {
    let hello = Request::Hello {
        tag: HELLO_TAG,
        version: PROTOCOL_VERSION,
    };
    match c.call(&hello, HELLO_TIMEOUT)? {
        Response::HelloAck { version, .. } if version == PROTOCOL_VERSION => Ok(()),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("HELLO refused: {other:?}"),
        )),
    }
}

/// One planned operation moving through a driver's retry machinery.
pub struct Op<T> {
    /// The request itself.
    pub io: PlannedIo,
    /// What the driver's policy tracks per operation (retry budgets,
    /// replica preference). The engine carries it and never reads it.
    pub policy: T,
    /// The ROOT of the retry chain: the tag of the first submission,
    /// known once that submission has resolved.
    root: Option<u64>,
}

impl<T> Op<T> {
    /// An operation no submission has been made for yet.
    pub fn new(io: PlannedIo, policy: T) -> Op<T> {
        Op {
            io,
            policy,
            root: None,
        }
    }

    /// The write-safety rule: whether re-issuing the operation, its
    /// latest submission resolved `how`, can never execute it twice. A
    /// refusal provably preceded admission, so either kind may go again;
    /// after anything else the request may have been admitted (answer
    /// lost, shard crashed mid-flight), so only a read — idempotent —
    /// may, and a write's unknown fate is failed upward.
    pub fn reissuable(&self, how: How) -> bool {
        matches!(how, How::Busy(_) | How::WrongShard) || self.io.op == IoOp::Read
    }
}

/// A submission the [`Ledger`] just resolved: the operation, its chain's
/// ROOT linked, and how it ended, for the driver's policy to decide on.
pub type Settled<T> = (Op<T>, How);

/// How a tag resolved, in the detail a driver's policy decides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// The server answered DONE.
    Done,
    /// The server answered BUSY: refused before admission.
    Busy(BusyReason),
    /// The server answered WRONG_SHARD: refused before admission.
    WrongShard,
    /// The server answered ERROR.
    Error(ErrorCode),
    /// The server answered with a kind READ/WRITE never solicit.
    Unsolicited,
    /// The deadline passed with no answer.
    TimedOut,
    /// The connection died with the request in flight.
    ConnError,
}

/// The request ledger: tag issue, the [`Journal`], the in-flight table
/// with one deadline per submission, and the table of resolved tags
/// that classifies every later receipt. The closed-loop client keeps
/// one per link, the cluster router one for all its endpoints.
pub struct Ledger<T> {
    /// tag -> (op, sent)
    inflight: HashMap<u64, (Op<T>, Instant)>,
    /// Tags are issued in sequence and journaled in that order, so tag
    /// `first_tag + i` is `journal.records[i]`.
    first_tag: u64,
    /// The receipt table: a record no longer in flight is a resolved tag,
    /// and this holds, per record, the fingerprint of the resolving
    /// payload if it was a wire response.
    receipts: Vec<Option<u64>>,
    request_deadline: Duration,
    /// No in-flight deadline expires before this (the deadline of the
    /// oldest submission when it was sent; early at worst, never late).
    sweep_at: Instant,
    /// The run's counters; the driver adds the ones its policy owns
    /// (`failed`, `busy_dropped`, `batches_sent`).
    pub report: LoadReport,
    /// Every submission and its single outcome.
    pub journal: Journal,
}

impl<T> Ledger<T> {
    /// A ledger issuing tags from `first_tag` up. Tag 0 is reserved: the
    /// server answers undecodable frames with it, which must never
    /// collide with a real submission.
    pub fn new(first_tag: u64, request_deadline: Duration) -> Ledger<T> {
        assert!(first_tag != 0, "tag 0 is the server's");
        Ledger {
            inflight: HashMap::new(),
            receipts: Vec::new(),
            first_tag,
            request_deadline,
            sweep_at: Instant::now(),
            report: LoadReport::default(),
            journal: Journal::default(),
        }
    }

    /// Submissions awaiting their answer — what a send window counts.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The earliest instant [`sweep`](Ledger::sweep) has work to do.
    pub fn next_sweep(&self) -> Option<Instant> {
        (!self.inflight.is_empty()).then_some(self.sweep_at)
    }

    /// Records one submission of `op` on connection `conn` under a fresh
    /// tag — journal, in-flight table, deadline — and returns the entry to
    /// put on the wire, `retry_of` naming the chain's ROOT on a re-issue.
    pub fn submit(&mut self, conn: u32, op: Op<T>) -> BatchEntry {
        let io = op.io;
        let rec = self.journal.records.len();
        let tag = self.first_tag + rec as u64;
        self.journal.records.push(TagRecord {
            conn,
            tag,
            op: io.op,
            offset: io.offset,
            bytes: io.bytes,
            retry_of: op.root,
            outcome: None,
            duplicate_receipts: 0,
            conflicting_receipts: 0,
        });
        self.receipts.push(None);
        let retry_of = op.root.unwrap_or(0);
        let sent = Instant::now();
        if self.inflight.is_empty() {
            self.sweep_at = sent + self.request_deadline;
        }
        self.inflight.insert(tag, (op, sent));
        BatchEntry {
            op: io.op,
            tenant: io.tenant,
            tag,
            offset: io.offset,
            bytes: io.bytes,
            retry_of,
        }
    }

    /// Resolves `tag` exactly once. The op comes back linked to its
    /// chain's ROOT (its first submission): the server-side recorder
    /// resolves the link among admitted tags, and only the root survives
    /// intermediate attempts that never got admitted.
    fn resolve(&mut self, tag: u64, how: How, fp: Option<u64>) -> Option<Settled<T>> {
        let (mut op, _sent) = self.inflight.remove(&tag)?;
        let rec = (tag - self.first_tag) as usize;
        self.journal.records[rec].outcome = Some(match how {
            How::Done => Outcome::Done,
            How::Busy(_) | How::WrongShard => Outcome::Busy,
            How::Error(_) | How::Unsolicited => Outcome::Error,
            How::TimedOut => Outcome::TimedOut,
            How::ConnError => Outcome::ConnError,
        });
        self.receipts[rec] = fp;
        op.root = op.root.or(Some(tag));
        Some((op, how))
    }

    /// One poller event for connection `conn`: books what arrived into
    /// `settled` and resumes a stuck write. `false` means the connection
    /// was lost, and [`lose`](Ledger::lose) has dealt with it.
    pub fn on_event(
        &mut self,
        conn: u32,
        wire: &mut Wire,
        poller: &mut dyn Poller,
        ev: &PollEvent,
        hist: &mut LatencyHistogram,
        settled: &mut Vec<Settled<T>>,
    ) -> bool {
        let mut alive = true;
        if ev.readable || ev.error {
            alive = self.pump(wire, hist, settled);
        }
        if alive && ev.writable {
            alive = wire.flush(poller, true).is_ok();
        }
        if !alive {
            self.lose(conn, wire, poller, settled);
        }
        alive
    }

    /// Reads what `wire`'s socket holds and books every complete frame.
    /// `false` means the connection is lost.
    fn pump(
        &mut self,
        wire: &mut Wire,
        hist: &mut LatencyHistogram,
        settled: &mut Vec<Settled<T>>,
    ) -> bool {
        let read = wire.recv_frames(|payload| settled.extend(self.receive(payload, hist)));
        match read {
            Ok(()) => true,
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    // Oversized prefix: framing is unrecoverable.
                    self.journal.undecodable_frames += 1;
                    self.report.protocol_errors += 1;
                }
                false
            }
        }
    }

    /// Books one decoded (or undecodable) response frame.
    fn receive(&mut self, payload: &[u8], hist: &mut LatencyHistogram) -> Option<Settled<T>> {
        let resp = match decode_response(payload) {
            Ok(r) => r,
            Err(_) => {
                self.journal.undecodable_frames += 1;
                self.report.protocol_errors += 1;
                return None;
            }
        };
        if matches!(resp, Response::HelloAck { .. }) {
            // A late or transport-duplicated handshake ack: harmless, and it
            // must not count against the journal's receipt accounting.
            return None;
        }
        let fp = Some(fingerprint(payload));
        let tag = resp.tag();

        // A tag this ledger never issued.
        let rec = usize::try_from(tag.wrapping_sub(self.first_tag)).unwrap_or(usize::MAX);
        let Some(record) = self.journal.records.get_mut(rec) else {
            self.journal.unknown_receipts += 1;
            return None;
        };
        // A response for an already-resolved tag is a post-resolution
        // receipt: a duplicated/late frame (same payload) or a conflicting
        // one (different payload). Either way the tag stays resolved.
        let Some(&(_, sent)) = self.inflight.get(&tag) else {
            if self.receipts[rec].is_some() && self.receipts[rec] != fp {
                record.conflicting_receipts += 1;
            } else {
                record.duplicate_receipts += 1;
            }
            return None;
        };

        let how = match resp {
            Response::Done { .. } => {
                self.report.completed += 1;
                hist.record(SimDuration::from_ns(sent.elapsed().as_nanos() as u64));
                How::Done
            }
            Response::Busy { reason, .. } => {
                match reason {
                    BusyReason::Queue => self.report.busy_queue += 1,
                    BusyReason::RateLimit => self.report.busy_ratelimit += 1,
                    // A migrating range is momentarily unavailable here; the
                    // refusal semantics (never admitted, safe to retry) are
                    // identical.
                    BusyReason::Unavailable | BusyReason::Moving => {
                        self.report.busy_unavailable += 1
                    }
                }
                How::Busy(reason)
            }
            Response::WrongShard { .. } => {
                self.report.wrong_shard += 1;
                How::WrongShard
            }
            Response::Error { code, .. } => {
                match code {
                    ErrorCode::Internal => self.report.internal_errors += 1,
                    ErrorCode::BadRequest | ErrorCode::BadLength => {
                        self.report.protocol_errors += 1
                    }
                    // ConnLimit never arrives tagged mid-stream (it is a
                    // pre-HELLO refusal); neither is the client's doing.
                    ErrorCode::ShuttingDown | ErrorCode::ConnLimit => {}
                }
                How::Error(code)
            }
            Response::Stats { .. }
            | Response::Flushed { .. }
            | Response::Goodbye { .. }
            | Response::MapResp { .. }
            | Response::Migrated { .. }
            | Response::ReplAck { .. }
            | Response::HelloAck { .. } => {
                // Never solicited by a load (HelloAck returned early
                // above): the tag resolves so it is not left dangling,
                // and the anomaly is counted.
                self.report.protocol_errors += 1;
                How::Unsolicited
            }
        };
        self.resolve(tag, how, fp)
    }

    /// Resolves every tag whose deadline has passed as `TimedOut`.
    pub fn sweep(&mut self, now: Instant, settled: &mut Vec<Settled<T>>) {
        if now < self.sweep_at {
            return;
        }
        let expired: Vec<u64> = (self.inflight.iter())
            .filter(|(_, (_, sent))| now >= *sent + self.request_deadline)
            .map(|(tag, _)| *tag)
            .collect();
        for tag in expired {
            self.report.timed_out += 1;
            settled.extend(self.resolve(tag, How::TimedOut, None));
        }
        if let Some(oldest) = self.inflight.values().map(|&(_, sent)| sent).min() {
            self.sweep_at = oldest + self.request_deadline;
        }
    }

    /// Connection `conn` is gone: every tag in flight on it resolves as
    /// a clean connection error (exactly once), and `wire` goes down
    /// until its reconnect back-off passes.
    pub fn lose(
        &mut self,
        conn: u32,
        wire: &mut Wire,
        poller: &mut dyn Poller,
        settled: &mut Vec<Settled<T>>,
    ) {
        // Unsent bytes die with the connection; their tags are in flight
        // and resolve just below.
        wire.fail(poller);
        self.journal.conn_losses += 1;
        let (records, first) = (&self.journal.records, self.first_tag);
        let tags: Vec<u64> = (self.inflight.keys().copied())
            .filter(|tag| records[(tag - first) as usize].conn == conn)
            .collect();
        for tag in tags {
            self.report.conn_errors += 1;
            settled.extend(self.resolve(tag, How::ConnError, None));
        }
    }
}

/// The transport under a [`Ledger`]: one endpoint's non-blocking socket
/// — what is left of a [`Conn`] once its HELLO check passed — with its
/// frame decoder, the bytes the socket has not accepted yet, and the
/// reconnect back-off that outlives any one connection. No per-wire
/// `BufWriter`: ten thousand wires must cost what they have queued, not
/// a fixed buffer each.
pub struct Wire {
    addr: String,
    /// The poller token the socket is registered under.
    token: usize,
    /// `None` while the wire is down.
    sock: Option<(TcpStream, FrameBuffer)>,
    /// Encoded frames the socket has not accepted yet.
    out: Vec<u8>,
    /// Whether WRITE interest is registered (only while `out` is stuck).
    write_interest: bool,
    /// Reconnect back-off: no connect attempt before this.
    down_until: Instant,
    backoff: ReconnectBackoff,
    backoff_base: Duration,
    jitter: SimRng,
    /// Whether the wire has ever been open.
    ever_up: bool,
}

impl Wire {
    /// A wire to `addr`, down until [`ensure_up`](Wire::ensure_up)
    /// opens it. Failed connect `k` in a row backs off
    /// `backoff_base * 2^k` (capped) plus jitter from `jitter`.
    pub fn new(addr: String, token: usize, backoff_base: Duration, jitter: SimRng) -> Wire {
        Wire {
            addr,
            token,
            sock: None,
            out: Vec::new(),
            write_interest: false,
            down_until: Instant::now(),
            backoff: ReconnectBackoff::new(),
            backoff_base,
            jitter,
            ever_up: false,
        }
    }

    /// The address this wire dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Makes sure a socket is open. `Ok(true)`: one is, or the reconnect
    /// back-off had passed and a connect (blocking, bounded by
    /// [`HELLO_TIMEOUT`]) succeeded — the socket is registered with
    /// `poller`, a re-connect counted in `journal`. `Ok(false)`: still
    /// backing off. `Err`: the connect failed and the back-off is armed
    /// again; how many attempts there are is the driver's policy.
    pub fn ensure_up(
        &mut self,
        poller: &mut dyn Poller,
        journal: &mut Journal,
    ) -> io::Result<bool> {
        if self.sock.is_some() || Instant::now() < self.down_until {
            return Ok(self.sock.is_some());
        }
        let opened = Conn::connect(&self.addr)
            .and_then(|Conn { stream, frames, .. }| self.adopt(stream, frames, poller));
        opened.inspect_err(|_| self.back_off())?;
        // The first connect is not a *re*connect.
        journal.reconnects += u64::from(self.ever_up);
        self.ever_up = true;
        Ok(true)
    }

    /// Takes `stream`, already connected to this wire's address, as its
    /// socket, with `frames` holding what was read from it so far: made
    /// non-blocking and registered read-only under the wire's token. The
    /// HELLO is the caller's: [`ensure_up`](Wire::ensure_up) checks it
    /// first, the replication shipper queues it ahead of its first frame.
    pub(crate) fn adopt(
        &mut self,
        stream: TcpStream,
        frames: FrameBuffer,
        poller: &mut dyn Poller,
    ) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), self.token, Interest::READ)?;
        self.sock = Some((stream, frames));
        self.backoff.note_success();
        Ok(())
    }

    /// Whether a socket is open.
    pub(crate) fn is_up(&self) -> bool {
        self.sock.is_some()
    }

    /// Whether the wire is down and its reconnect back-off has not passed.
    pub(crate) fn backing_off(&self, now: Instant) -> bool {
        self.sock.is_none() && now < self.down_until
    }

    /// Arms the reconnect back-off (one more strike).
    fn back_off(&mut self) {
        self.down_until =
            Instant::now() + self.backoff.next_delay(self.backoff_base, &mut self.jitter);
    }

    /// Deregisters and drops the socket, if there is one.
    fn close(&mut self, poller: &mut dyn Poller) {
        if let Some((stream, _)) = self.sock.take() {
            poller.deregister(stream.as_raw_fd()).ok();
            self.write_interest = false;
        }
    }

    /// The connection is lost: the socket goes, the bytes it never took
    /// die with it, and the reconnect back-off is armed.
    pub(crate) fn fail(&mut self, poller: &mut dyn Poller) {
        self.close(poller);
        self.out.clear();
        self.back_off();
    }

    /// Reads what the socket holds and hands every complete frame to
    /// `each`. An error means the connection is lost: EOF, a transport
    /// error, or an oversized length prefix (`InvalidData`: frame sync is
    /// gone for good).
    pub(crate) fn recv_frames(&mut self, mut each: impl FnMut(&[u8])) -> io::Result<()> {
        let Some((stream, frames)) = self.sock.as_mut() else {
            return Ok(());
        };
        loop {
            let n = match frames.read_from(stream) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let invalid = |e: WireError| io::Error::new(io::ErrorKind::InvalidData, e);
            while let Some(payload) = frames.next_frame().map_err(invalid)? {
                each(payload);
            }
            // A short read drained the socket; the poller is
            // level-triggered, so anything newer fires again.
            if n < READ_CHUNK {
                return Ok(());
            }
        }
    }

    /// Queues one submission as a frame of its own: READ or WRITE, or
    /// for a re-issue a one-entry BATCH — the only frame kind that
    /// carries `retry_of`, so the server's recorder can alias it onto the
    /// original instead of journaling a second logical request.
    pub fn send(&mut self, e: BatchEntry) {
        self.enqueue(&match (e.retry_of, e.op) {
            (0, IoOp::Read) => Request::Read {
                tenant: e.tenant,
                tag: e.tag,
                offset: e.offset,
                bytes: e.bytes,
            },
            (0, IoOp::Write) => Request::Write {
                tenant: e.tenant,
                tag: e.tag,
                offset: e.offset,
                bytes: e.bytes,
            },
            _ => Request::Batch(vec![e]),
        });
    }

    /// Appends one length-prefixed request frame to the unsent bytes.
    pub(crate) fn enqueue(&mut self, req: &Request) {
        write_frame(&mut self.out, &encode_request(req)).expect("a Vec takes every byte");
    }

    /// Writes unsent bytes until they are gone or the socket pushes back,
    /// and keeps WRITE interest registered exactly while some are stuck:
    /// a frame cut short by `WouldBlock` resumes where it stopped. Every
    /// turn calls it with `writable` false (a stuck socket is left alone,
    /// new frames queue behind the stuck ones), the poller's writable
    /// event with `true`. An error means the connection is lost.
    pub fn flush(&mut self, poller: &mut dyn Poller, writable: bool) -> io::Result<()> {
        let Some((stream, _)) = &self.sock else {
            return Ok(());
        };
        if self.write_interest && !writable {
            return Ok(());
        }
        let mut stream: &TcpStream = stream;
        let mut written = 0;
        while written < self.out.len() {
            match stream.write(&self.out[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..written);
        let stuck = !self.out.is_empty();
        if stuck != self.write_interest {
            let interest = Interest {
                readable: true,
                writable: stuck,
            };
            poller.reregister(stream.as_raw_fd(), self.token, interest)?;
            self.write_interest = stuck;
        }
        Ok(())
    }
}

/// Blocks in `poller` until a socket is ready or `due` — a driver's
/// nearest due-time — arrives, at most one [`POLL_TICK`]. The only wait
/// in either driver.
pub fn wait_for_work(
    poller: &mut dyn Poller,
    events: &mut Vec<PollEvent>,
    due: Option<Instant>,
) -> io::Result<()> {
    let wait = due.map_or(POLL_TICK, |due| {
        due.saturating_duration_since(Instant::now()).min(POLL_TICK)
    });
    events.clear();
    poller.wait(events, Some(wait)).map(drop)
}

/// The epilogue of a run: merges the workers' parts, restates the
/// counters the journal owns (reconnects and receipts) in the report,
/// and fills in its derived fields.
pub fn conclude(
    parts: Vec<(LoadReport, LatencyHistogram, Journal)>,
    wall: Duration,
) -> (LoadReport, Journal) {
    // The first part is taken as it is: a journal is the largest thing a
    // run holds, and merging a lone one into an empty one would copy it.
    let mut parts = parts.into_iter();
    let (mut total, mut hist, mut journal) = parts.next().unwrap_or_default();
    for (part, part_hist, part_journal) in parts {
        total.merge(&part);
        hist.merge(&part_hist);
        journal.merge(part_journal);
    }
    total.reconnects = journal.reconnects;
    total.unknown_receipts = journal.unknown_receipts;
    total.dup_receipts = journal
        .records
        .iter()
        .map(|r| (r.duplicate_receipts + r.conflicting_receipts) as u64)
        .sum();
    total.finish(&hist, wall);
    (total, journal)
}

/// The closed-loop client's per-operation policy state: its two retry
/// budgets.
#[derive(Default)]
struct Budgets {
    busy_retries: u32,
    resends: u32,
}

/// Re-issue budget per operation for non-BUSY recoveries (timeouts,
/// shard crashes, connection loss). Only safely-retryable work is
/// re-issued: reads, plus anything that provably never reached a
/// simulator.
const MAX_RESENDS: u32 = 16;
/// Reconnect attempts per link before giving up on it.
const MAX_RECONNECTS: u32 = 8;
/// Base reconnect backoff; attempt `k` waits `base * 2^k` (capped) plus
/// seeded jitter in `[0, base)`.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(10);
/// Longest a partially-filled batch waits for more requests before
/// being flushed anyway.
const BATCH_DEADLINE: Duration = Duration::from_millis(2);

/// One link of the closed-loop driver: a [`Ledger`] over a [`Wire`],
/// plus this driver's policy — a queue and window of its own, BATCH
/// accumulation, a link-wide refusal back-off and a bounded reconnect
/// budget.
struct Link {
    conn: u32,
    queue: VecDeque<Op<Budgets>>,
    ledger: Ledger<Budgets>,
    wire: Wire,
    /// Journaled-but-unsent entries accumulating toward one BATCH frame.
    pending_batch: Vec<BatchEntry>,
    /// When the oldest pending entry was journaled (deadline flush).
    batch_started: Option<Instant>,
    /// BUSY / WRONG_SHARD back-off: the link sends nothing before this.
    paused_until: Instant,
    reconnects_used: u32,
}

impl Link {
    fn new(cfg: &LoadConfig, token: usize, conn: usize, plan: Vec<PlannedIo>) -> Link {
        let jitter = SimRng::stream(cfg.seed ^ JITTER_SALT, conn as u64);
        Link {
            conn: conn as u32,
            queue: plan
                .into_iter()
                .map(|io| Op::new(io, Budgets::default()))
                .collect(),
            ledger: Ledger::new(((conn as u64) << 32) | 1, cfg.request_deadline),
            wire: Wire::new(cfg.addr.clone(), token, RECONNECT_BACKOFF, jitter),
            pending_batch: Vec::new(),
            batch_started: None,
            paused_until: Instant::now(),
            reconnects_used: 0,
        }
    }

    /// True when every planned request has settled.
    fn finished(&self) -> bool {
        self.queue.is_empty() && self.ledger.in_flight() == 0
    }

    /// Makes sure the wire is open ([`Wire::ensure_up`]). A failed
    /// connect draws on the same bounded budget as a mid-run loss; `Err`
    /// only when the link could never be opened at all, which fails the
    /// run instead of being counted `failed`.
    fn ensure_up(&mut self, poller: &mut dyn Poller) -> io::Result<bool> {
        let up = self.wire.ensure_up(poller, &mut self.ledger.journal);
        up.or_else(|e| {
            let forgiven = self.spend_reconnect() || self.wire.ever_up;
            forgiven.then_some(false).ok_or(e)
        })
    }

    /// Draws one attempt from the reconnect budget and returns true, or —
    /// budget spent — gives the link up and returns false: everything
    /// left in the queue was never submitted; fail it.
    fn spend_reconnect(&mut self) -> bool {
        let armed = self.reconnects_used < MAX_RECONNECTS;
        if armed {
            self.reconnects_used += 1;
        } else {
            self.ledger.report.failed += self.queue.len() as u64;
            self.queue.clear();
        }
        armed
    }

    /// The ledger has resolved what was in flight on a lost connection:
    /// the policy re-queues what may go again, then draws a reconnect.
    fn lost(&mut self, cfg: &LoadConfig, settled: &mut Vec<Settled<Budgets>>) {
        // Unsent batch entries died with the connection; their tags were
        // in flight and resolved as ConnError.
        self.pending_batch.clear();
        self.batch_started = None;
        self.apply(cfg, settled);
        self.spend_reconnect();
    }

    /// One turn of everything time-driven: reopen if the back-off has
    /// passed, fill the window, push queued bytes at the socket, expire
    /// deadlines.
    fn service(
        &mut self,
        cfg: &LoadConfig,
        poller: &mut dyn Poller,
        started: Instant,
        now: Instant,
        settled: &mut Vec<Settled<Budgets>>,
    ) -> io::Result<()> {
        if !self.ensure_up(poller)? {
            return Ok(());
        }
        if now >= self.paused_until {
            self.fill(cfg, started, now);
        }
        if self.wire.flush(poller, false).is_err() {
            self.ledger.lose(self.conn, &mut self.wire, poller, settled);
            self.lost(cfg, settled);
            return Ok(());
        }
        self.ledger.sweep(now, settled);
        self.apply(cfg, settled);
        Ok(())
    }

    /// The earliest instant the link needs a turn even if its socket
    /// stays silent.
    fn next_due(&self, cfg: &LoadConfig, started: Instant) -> Option<Instant> {
        if self.wire.sock.is_none() {
            return Some(self.wire.down_until);
        }
        let batch = self.batch_started.map(|t| t + BATCH_DEADLINE);
        let head = self
            .queue
            .front()
            .filter(|_| self.ledger.in_flight() < cfg.depth)
            .map(|op| started + Duration::from_micros(op.io.due_us.unwrap_or(0)));
        let send = batch
            .into_iter()
            .chain(head)
            .min()
            .map(|t| t.max(self.paused_until));
        self.ledger.next_sweep().into_iter().chain(send).min()
    }

    /// Fills the window from the queue and decides what goes on the wire.
    fn fill(&mut self, cfg: &LoadConfig, started: Instant, now: Instant) {
        while self.ledger.in_flight() < cfg.depth {
            // Replay pacing: hold the next request until its recorded
            // due time. The queue keeps plan order, so the head gates
            // everything behind it.
            if let Some(due) = self.queue.front().and_then(|op| op.io.due_us) {
                if now < started + Duration::from_micros(due) {
                    break;
                }
            }
            let Some(op) = self.queue.pop_front() else {
                break;
            };
            let entry = self.ledger.submit(self.conn, op);
            if cfg.batch > 1 {
                self.pending_batch.push(entry);
                self.batch_started.get_or_insert(now);
                if self.pending_batch.len() >= cfg.batch.min(MAX_BATCH_ENTRIES as usize) {
                    self.flush_batch();
                }
            } else {
                self.wire.send(entry);
            }
        }
        // A straggler batch flushes when no more work can join it or its
        // deadline passes — partial frames must not wait forever.
        let expired = self
            .batch_started
            .is_some_and(|t| now >= t + BATCH_DEADLINE);
        if expired || self.queue.is_empty() || self.ledger.in_flight() >= cfg.depth {
            self.flush_batch();
        }
    }

    /// Queues the accumulated BATCH frame, if any.
    fn flush_batch(&mut self) {
        if self.pending_batch.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.pending_batch);
        self.batch_started = None;
        self.ledger.report.batches_sent += 1;
        self.wire.enqueue(&Request::Batch(entries));
    }

    /// The closed loop's retry policy over what the ledger resolved.
    fn apply(&mut self, cfg: &LoadConfig, settled: &mut Vec<Settled<Budgets>>) {
        for (mut op, how) in settled.drain(..) {
            match how {
                How::Done => {}
                // A refusal (WRONG_SHARD never fires against a single
                // server): retry on the BUSY budget and back the whole
                // link off so a saturated server is not hammered. The
                // back-off is the link's, not the op's, and refusals add
                // up: each costs the link one `busy_backoff` of not
                // sending, which is what the retry budgets are sized on.
                How::Busy(_) | How::WrongShard => {
                    if op.policy.busy_retries < cfg.max_busy_retries {
                        op.policy.busy_retries += 1;
                        self.queue.push_back(op);
                    } else {
                        self.ledger.report.busy_dropped += 1;
                    }
                    self.paused_until = self.paused_until.max(Instant::now()) + cfg.busy_backoff;
                }
                // A lost answer, a lost connection, a shard crash
                // mid-flight: the I/O may have run.
                How::TimedOut | How::ConnError | How::Error(ErrorCode::Internal)
                    if op.reissuable(how) && op.policy.resends < MAX_RESENDS =>
                {
                    op.policy.resends += 1;
                    self.queue.push_back(op);
                }
                // Out of road: account for it.
                _ => self.ledger.report.failed += 1,
            }
        }
    }
}

/// One engine thread: drives its links until every one has settled and
/// returns their merged ledger.
fn drive_links(
    cfg: &LoadConfig,
    plans: Vec<(usize, Vec<PlannedIo>)>,
) -> io::Result<(LoadReport, LatencyHistogram, Journal)> {
    let mut poller = best_poller()?;
    let mut links: Vec<Link> = plans
        .into_iter()
        .enumerate()
        .map(|(token, (conn, plan))| Link::new(cfg, token, conn, plan))
        .collect();
    let mut hist = LatencyHistogram::new();
    let mut events = Vec::new();
    let mut settled = Vec::new();

    // Open every link before the clock starts, so replay due-times and
    // first-request latencies do not include a sibling's handshake.
    for link in links.iter_mut() {
        link.ensure_up(&mut *poller)?;
    }
    let started = Instant::now();

    loop {
        let now = Instant::now();
        let mut due = None;
        let mut live = false;
        for link in links.iter_mut() {
            if !link.finished() {
                link.service(cfg, &mut *poller, started, now, &mut settled)?;
            }
            if link.finished() {
                link.wire.close(&mut *poller);
                continue;
            }
            live = true;
            due = due.into_iter().chain(link.next_due(cfg, started)).min();
        }
        if !live {
            break;
        }

        wait_for_work(&mut *poller, &mut events, due)?;
        for ev in &events {
            let link = &mut links[ev.token];
            let (conn, poller) = (link.conn, &mut *poller);
            if (link.ledger).on_event(conn, &mut link.wire, poller, ev, &mut hist, &mut settled) {
                link.apply(cfg, &mut settled);
            } else {
                link.lost(cfg, &mut settled);
            }
        }
    }

    let mut report = LoadReport::default();
    let mut journal = Journal::default();
    for link in links {
        report.merge(&link.ledger.report);
        journal.merge(link.ledger.journal);
    }
    Ok((report, hist, journal))
}

/// Exponential reconnect backoff whose memory outlives any single
/// reconnect bout. A success *decays* the strike count by one instead
/// of resetting it, so a flapping endpoint — connect, serve one
/// request, die, repeat — keeps paying near-full backoff rather than
/// restarting from the base delay and hammering the node. Held per
/// [`Wire`].
#[derive(Debug, Clone, Default)]
pub struct ReconnectBackoff {
    strikes: u32,
}

impl ReconnectBackoff {
    /// A fresh history: the first failed connect waits the base delay.
    pub fn new() -> ReconnectBackoff {
        ReconnectBackoff::default()
    }

    /// The delay to wait before the next connect attempt: `base * 2^s`
    /// capped at [`MAX_BACKOFF`], plus seeded jitter in `[0, base]`.
    /// Counts the attempt (call once per attempt, before waiting).
    pub fn next_delay(&mut self, base: Duration, jitter: &mut SimRng) -> Duration {
        let base_ns = base.as_nanos().max(1) as u64;
        let exp = base_ns.saturating_mul(1u64 << self.strikes.min(20));
        self.strikes = self.strikes.saturating_add(1);
        Duration::from_nanos(exp).min(MAX_BACKOFF)
            + Duration::from_nanos(jitter.int_range(0, base_ns + 1))
    }

    /// Records a successful (re)connect: one strike is forgiven. Only a
    /// run of successes walks the delay back down to the base.
    pub fn note_success(&mut self) {
        self.strikes = self.strikes.saturating_sub(1);
    }

    /// Current strike count (attempts not yet forgiven by successes).
    pub fn strikes(&self) -> u32 {
        self.strikes
    }
}

/// Requests a STATS snapshot on a fresh connection.
pub fn fetch_stats(addr: &str) -> io::Result<String> {
    match Conn::connect(addr)?.call(&Request::Stats { tag: 1 }, Duration::MAX)? {
        Response::Stats { text, .. } => Ok(text),
        other => Err(bad_reply("STATS", &other)),
    }
}

/// Asks every shard to drain, blocking for as long as the drain takes.
pub fn flush(addr: &str) -> io::Result<()> {
    match Conn::connect(addr)?.call(&Request::Flush { tag: 2 }, Duration::MAX)? {
        Response::Flushed { .. } => Ok(()),
        other => Err(bad_reply("FLUSH", &other)),
    }
}

/// Sends SHUTDOWN and waits for the GOODBYE ack.
pub fn send_shutdown(addr: &str) -> io::Result<()> {
    match Conn::connect(addr)?.call(&Request::Shutdown { tag: 3 }, Duration::MAX)? {
        Response::Goodbye { .. } => Ok(()),
        other => Err(bad_reply("SHUTDOWN", &other)),
    }
}

fn bad_reply(what: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply to {what}: {got:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed_and_stable() {
        let r = LoadReport {
            completed: 10,
            busy_queue: 1,
            busy_ratelimit: 2,
            busy_dropped: 0,
            protocol_errors: 0,
            wall_secs: 1.5,
            p50_us: 100.0,
            p99_us: 900.0,
            p999_us: 1500.0,
            mean_us: 200.0,
            throughput_rps: 6.7,
            wrong_shard: 3,
            ..LoadReport::default()
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"completed\":10"));
        assert!(j.contains("\"p99\":900.0"));
        assert!(j.contains("\"timed_out\":0"));
        assert!(j.contains("\"failed\":0"));
        assert!(j.contains("\"wrong_shard\":3"));
        assert_eq!(j, r.clone().to_json(), "rendering must be deterministic");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn merge_sums_every_counter() {
        let ones = LoadReport {
            completed: 1,
            busy_queue: 1,
            busy_ratelimit: 1,
            busy_unavailable: 1,
            busy_dropped: 1,
            protocol_errors: 1,
            internal_errors: 1,
            timed_out: 1,
            conn_errors: 1,
            reconnects: 1,
            batches_sent: 1,
            failed: 1,
            dup_receipts: 1,
            unknown_receipts: 1,
            wrong_shard: 1,
            ..LoadReport::default()
        };
        let mut total = ones.clone();
        total.merge(&ones);
        let json = total.to_json();
        let counters = json.split(",\"wall_secs\"").next().unwrap();
        assert_eq!(counters.matches(":2").count(), 15, "{json}");
        assert_eq!(counters.matches(':').count(), 15, "{json}");
    }

    /// The `(conn, op, offset, bytes)` multiset a journal holds.
    fn submissions(journal: &Journal) -> Vec<(u32, bool, u64, u32)> {
        let mut v: Vec<_> = journal
            .records
            .iter()
            .map(|r| (r.conn, r.op == IoOp::Read, r.offset, r.bytes))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn grouping_links_onto_workers_changes_nothing_but_the_threads() {
        use crate::server::{Server, ServerConfig};
        let server = Server::start(
            ServerConfig {
                shards: 2,
                inflight_limit: 4096,
                time_scale: 500.0,
                ..ServerConfig::default()
            },
            0,
        )
        .expect("bind");
        let cfg = LoadConfig {
            addr: server.local_addr().to_string(),
            connections: 7,
            depth: 4,
            requests: 500,
            seed: 31,
            ..LoadConfig::default()
        };
        let runs = [1, 3, cfg.connections].map(|workers| {
            let (report, journal) = run_grouped(&cfg, plans(&cfg), workers).expect("load");
            // The clauses of `rif_chaos::ContractChecker::strict()`, which
            // depends on this crate and so cannot be called from here:
            // no silent tag, no conflicting or unknown receipt, and every
            // planned op in exactly one ledger bucket.
            assert!(journal.records.iter().all(|r| r.outcome.is_some()));
            assert!(journal.records.iter().all(|r| r.conflicting_receipts == 0));
            assert_eq!(journal.unknown_receipts, 0);
            assert_eq!(
                report.completed + report.failed + report.busy_dropped,
                cfg.requests as u64,
                "{workers} workers: {}",
                report.to_json()
            );
            assert_eq!(report.completed, cfg.requests as u64, "fault-free run");
            // Tag 0 is the server's; every other tag is used once.
            let mut tags: Vec<u64> = journal.records.iter().map(|r| r.tag).collect();
            tags.sort_unstable();
            assert!(tags[0] != 0 && tags.windows(2).all(|w| w[0] != w[1]));
            submissions(&journal)
        });
        assert_eq!(runs[0].len(), cfg.requests);
        assert_eq!(runs[0], runs[1], "1 worker vs 3");
        assert_eq!(runs[0], runs[2], "1 worker vs one per connection");
        server.stop();
    }

    #[test]
    fn reconnect_backoff_survives_a_single_success() {
        let mut b = ReconnectBackoff::new();
        let mut rng = SimRng::stream(7, 0);
        let base = Duration::from_millis(10);
        // Straight failures escalate: each delay's floor doubles.
        let delays: Vec<Duration> = (0..5).map(|_| b.next_delay(base, &mut rng)).collect();
        for (i, d) in delays.iter().enumerate() {
            assert!(
                *d >= base * (1 << i),
                "attempt {i} delay {d:?} below its floor"
            );
        }
        assert_eq!(b.strikes(), 5);

        // THE regression this type exists for: one success must NOT
        // reset the history. A flapping node (connect, die, reconnect)
        // keeps paying near-full backoff.
        b.note_success();
        assert_eq!(b.strikes(), 4);
        let after_success = b.next_delay(base, &mut rng);
        assert!(
            after_success >= base * 16,
            "one success dropped the backoff to {after_success:?} — flapping endpoint hammered"
        );

        // Only a run of successes walks the delay back to the base.
        for _ in 0..8 {
            b.note_success();
        }
        assert_eq!(b.strikes(), 0);
        let recovered = b.next_delay(base, &mut rng);
        assert!(recovered <= base * 2, "recovered delay {recovered:?}");
    }

    #[test]
    fn plan_respects_mix_and_size() {
        let cfg = LoadConfig {
            read_ratio: 1.0,
            requests: 64,
            request_bytes: 16 * 1024,
            ..LoadConfig::default()
        };
        let p = plan(&cfg, 0, 64);
        assert_eq!(p.len(), 64);
        assert!(p.iter().all(|x| x.op == IoOp::Read));
        assert!(p.iter().all(|x| x.bytes == 16 * 1024));
    }

    #[test]
    fn journal_merge_accumulates() {
        let mut a = Journal {
            unknown_receipts: 1,
            ..Journal::default()
        };
        let b = Journal {
            unknown_receipts: 2,
            undecodable_frames: 3,
            conn_losses: 1,
            reconnects: 1,
            records: vec![TagRecord {
                conn: 0,
                tag: 1,
                op: IoOp::Read,
                offset: 4096,
                bytes: 65536,
                retry_of: None,
                outcome: Some(Outcome::Done),
                duplicate_receipts: 0,
                conflicting_receipts: 0,
            }],
        };
        a.merge(b);
        assert_eq!(a.unknown_receipts, 3);
        assert_eq!(a.undecodable_frames, 3);
        assert_eq!(a.records.len(), 1);
    }

    #[test]
    fn fingerprint_distinguishes_payloads() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }

    #[test]
    fn a_zero_send_window_is_refused_before_connecting() {
        // Nothing listens on the discard port: an engine that got past
        // its window check would fail to connect instead.
        let cfg = LoadConfig {
            addr: "127.0.0.1:9".into(),
            depth: 0,
            ..LoadConfig::default()
        };
        let err = run_load(&cfg).expect_err("a zero window cannot run");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }
}
