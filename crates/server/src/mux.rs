//! Poller-multiplexed high-concurrency load generator.
//!
//! The closed-loop client ([`crate::client`]) spends one OS thread per
//! connection, which tops out around the low thousands of
//! sockets. This module drives *many* connections per thread off the
//! same [`Poller`](crate::poller::Poller) the server core uses: each
//! worker thread owns `connections / threads` nonblocking sockets, a
//! per-connection [`RecvBuffer`] for zero-copy frame extraction, and a
//! pending-write buffer flushed on writability. That makes ≥10k
//! concurrent connections practical from a single process, which is
//! what the event-loop server bench needs.
//!
//! The mux client sends single READ/WRITE frames only (no HELLO, no
//! BATCH): the bench it exists for measures per-frame server overheads,
//! and batching would hide exactly the cost being measured. Use the
//! closed-loop client for batch experiments.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use rif_events::stats::LatencyHistogram;
use rif_events::SimDuration;
use rif_workloads::SynthConfig;

use crate::client::{LoadConfig, LoadReport, PlannedIo};
use crate::poller::{best_poller, Interest, PollEvent};
use crate::protocol::{decode_response, encode_request, ErrorCode, Request, Response};
use crate::ring::RecvBuffer;

/// Poll tick while waiting for readiness (bounds the deadline sweep).
const POLL_TICK: Duration = Duration::from_millis(10);

/// Connect retry budget per connection (the listener backlog can lag a
/// 10k-connection stampede).
const CONNECT_RETRIES: u32 = 20;

/// One in-flight request.
struct Pending {
    tag: u64,
    io: PlannedIo,
    sent: Instant,
    busy_retries: u32,
}

/// One multiplexed connection.
struct MuxConn {
    stream: TcpStream,
    ring: RecvBuffer,
    /// Encoded frames not yet accepted by the socket.
    out: Vec<u8>,
    /// Bytes of `out` already written.
    out_off: usize,
    /// Requests on the wire awaiting a response (≤ `depth`).
    pending: Vec<Pending>,
    /// Requests not yet sent, front first.
    plan: VecDeque<PlannedIo>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Tags are `(global_conn_index << 32) | counter`.
    next_tag: u64,
    done: bool,
}

impl MuxConn {
    /// True when every planned request has resolved.
    fn finished(&self) -> bool {
        self.plan.is_empty() && self.pending.is_empty()
    }

    fn queued(&self) -> usize {
        self.out.len() - self.out_off
    }

    /// Queues one encoded request frame (length prefix + payload).
    fn enqueue(&mut self, req: &Request) {
        push_frame(&mut self.out, req);
    }

    /// Sends the next planned request if the window has room.
    fn pump_plan(&mut self, depth: usize, tenant: u32) {
        while self.pending.len() < depth {
            let Some(io) = self.plan.pop_front() else {
                return;
            };
            let tag = self.next_tag;
            self.next_tag += 1;
            let req = match io.op {
                rif_workloads::IoOp::Read => Request::Read {
                    tenant,
                    tag,
                    offset: io.offset,
                    bytes: io.bytes,
                },
                rif_workloads::IoOp::Write => Request::Write {
                    tenant,
                    tag,
                    offset: io.offset,
                    bytes: io.bytes,
                },
            };
            self.enqueue(&req);
            self.pending.push(Pending {
                tag,
                io,
                sent: Instant::now(),
                busy_retries: 0,
            });
        }
    }

    /// Writes queued bytes until drained or the socket pushes back.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_off < self.out.len() {
            match (&self.stream).write(&self.out[self.out_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_off = 0;
        Ok(())
    }
}

/// Appends one length-prefixed request frame to an output buffer.
fn push_frame(out: &mut Vec<u8>, req: &Request) {
    let payload = encode_request(req);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Rebuilds the wire request for a pending entry (same tag, so the
/// retry resolves the same slot).
fn request_of(p: &Pending) -> Request {
    match p.io.op {
        rif_workloads::IoOp::Read => Request::Read {
            tenant: p.io.tenant,
            tag: p.tag,
            offset: p.io.offset,
            bytes: p.io.bytes,
        },
        rif_workloads::IoOp::Write => Request::Write {
            tenant: p.io.tenant,
            tag: p.tag,
            offset: p.io.offset,
            bytes: p.io.bytes,
        },
    }
}

/// Per-thread tallies merged into the final [`LoadReport`].
struct Tally {
    report: LoadReport,
    hist: LatencyHistogram,
}

/// Runs a closed-loop load with `threads` poller-driven worker threads
/// sharing `cfg.connections` connections. Counters land in the same
/// [`LoadReport`] shape as [`crate::client::run_load`]; connection
/// losses resolve the affected requests as `conn_errors` without
/// reconnecting (the bench wants steady sockets, not recovery drama).
pub fn run_mux_load(cfg: &LoadConfig, threads: usize) -> io::Result<LoadReport> {
    assert!(cfg.depth > 0, "need a send window");
    let threads = threads.max(1).min(cfg.connections.max(1));
    let per_conn = cfg.requests.div_ceil(cfg.connections.max(1));

    // Deal connections round-robin so thread loads stay even.
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for conn in 0..cfg.connections {
        assignments[conn % threads].push(conn);
    }

    let started = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for conns in assignments {
        if conns.is_empty() {
            continue;
        }
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            run_worker(&cfg, &conns, per_conn)
        }));
    }

    let mut total = LoadReport::default();
    let mut hist = LatencyHistogram::new();
    for h in handles {
        let tally = h
            .join()
            .map_err(|_| io::Error::other("mux worker thread panicked"))??;
        let p = tally.report;
        total.completed += p.completed;
        total.busy_queue += p.busy_queue;
        total.busy_ratelimit += p.busy_ratelimit;
        total.busy_unavailable += p.busy_unavailable;
        total.busy_dropped += p.busy_dropped;
        total.protocol_errors += p.protocol_errors;
        total.internal_errors += p.internal_errors;
        total.timed_out += p.timed_out;
        total.conn_errors += p.conn_errors;
        total.failed += p.failed;
        total.unknown_receipts += p.unknown_receipts;
        hist.merge(&tally.hist);
    }
    total.wall_secs = started.elapsed().as_secs_f64();
    total.mean_us = hist.mean().as_us();
    total.p50_us = hist.percentile(50.0).map_or(0.0, |d| d.as_us());
    total.p99_us = hist.percentile(99.0).map_or(0.0, |d| d.as_us());
    total.p999_us = hist.percentile(99.9).map_or(0.0, |d| d.as_us());
    total.throughput_rps = if total.wall_secs > 0.0 {
        total.completed as f64 / total.wall_secs
    } else {
        0.0
    };
    Ok(total)
}

/// Opens one connection with backlog-stampede retries.
fn connect(addr: &str, attempt_seed: u64) -> io::Result<TcpStream> {
    let mut delay = Duration::from_millis(1 + (attempt_seed % 3));
    let mut last = None;
    for _ in 0..CONNECT_RETRIES {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                s.set_nonblocking(true)?;
                return Ok(s);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
}

fn run_worker(cfg: &LoadConfig, conns: &[usize], per_conn: usize) -> io::Result<Tally> {
    let mut poller = best_poller()?;
    let mut tally = Tally {
        report: LoadReport::default(),
        hist: LatencyHistogram::new(),
    };
    let synth = SynthConfig {
        read_ratio: cfg.read_ratio,
        zipf_s: cfg.zipf_s,
        request_bytes: cfg.request_bytes,
        ..SynthConfig::default()
    };

    let mut slots: Vec<MuxConn> = Vec::with_capacity(conns.len());
    for (slot, &global) in conns.iter().enumerate() {
        let n = per_conn.min(cfg.requests.saturating_sub(global * per_conn));
        let plan: VecDeque<PlannedIo> = synth
            .generate(n, cfg.seed + global as u64)
            .iter()
            .map(|r| PlannedIo {
                op: r.op,
                offset: r.offset,
                bytes: r.bytes,
                tenant: cfg.tenant,
                due_us: None,
            })
            .collect();
        let stream = connect(&cfg.addr, global as u64)?;
        poller.register(stream.as_raw_fd(), slot, Interest::READ)?;
        let mut conn = MuxConn {
            stream,
            ring: RecvBuffer::new(),
            out: Vec::new(),
            out_off: 0,
            pending: Vec::new(),
            plan,
            interest: Interest::READ,
            next_tag: (global as u64) << 32,
            done: false,
        };
        // Prime the first window; readiness takes over from here.
        conn.pump_plan(cfg.depth, cfg.tenant);
        conn.flush().ok();
        slots.push(conn);
    }

    let mut live = slots.iter().filter(|c| !c.finished()).count();
    // Retire connections that had an empty plan from the start.
    for slot in 0..slots.len() {
        if slots[slot].finished() && !slots[slot].done {
            retire(&mut poller, &mut slots[slot])?;
        }
    }

    let mut events: Vec<PollEvent> = Vec::new();
    while live > 0 {
        events.clear();
        poller.wait(&mut events, Some(POLL_TICK))?;

        for i in 0..events.len() {
            let ev = events[i];
            let conn = &mut slots[ev.token];
            if conn.done {
                continue;
            }
            let mut dead = ev.error;
            if !dead && ev.readable {
                dead = pump_read(cfg, conn, &mut tally);
            }
            if !dead && ev.writable {
                dead = conn.flush().is_err();
            }
            if dead {
                fail_conn(conn, &mut tally);
            }
            if conn.done || conn.finished() {
                retire(&mut poller, conn)?;
                live -= 1;
                continue;
            }
            let desired = Interest {
                readable: true,
                writable: conn.queued() > 0,
            };
            if desired != conn.interest {
                poller.reregister(conn.stream.as_raw_fd(), ev.token, desired)?;
                conn.interest = desired;
            }
        }

        // Deadline sweep: expired requests resolve as timeouts so a
        // wedged server cannot hang the bench.
        for slot in 0..slots.len() {
            let conn = &mut slots[slot];
            if conn.done {
                continue;
            }
            let before = conn.pending.len();
            conn.pending.retain(|p| {
                if p.sent.elapsed() < cfg.request_deadline {
                    true
                } else {
                    tally.report.timed_out += 1;
                    tally.report.failed += 1;
                    false
                }
            });
            if conn.pending.len() != before {
                conn.pump_plan(cfg.depth, cfg.tenant);
                if conn.flush().is_err() {
                    fail_conn(conn, &mut tally);
                }
                if conn.done || conn.finished() {
                    retire(&mut poller, conn)?;
                    live -= 1;
                    continue;
                }
                let desired = Interest {
                    readable: true,
                    writable: conn.queued() > 0,
                };
                if desired != conn.interest {
                    poller.reregister(conn.stream.as_raw_fd(), slot, desired)?;
                    conn.interest = desired;
                }
            }
        }
    }
    Ok(tally)
}

/// Deregisters and closes a finished connection exactly once.
fn retire(poller: &mut Box<dyn crate::poller::Poller>, conn: &mut MuxConn) -> io::Result<()> {
    if !conn.done {
        conn.done = true;
    }
    poller.deregister(conn.stream.as_raw_fd()).ok();
    conn.stream.shutdown(std::net::Shutdown::Both).ok();
    Ok(())
}

/// Resolves everything outstanding on a dead connection.
fn fail_conn(conn: &mut MuxConn, tally: &mut Tally) {
    tally.report.conn_errors += conn.pending.len() as u64;
    tally.report.failed += (conn.pending.len() + conn.plan.len()) as u64;
    conn.pending.clear();
    conn.plan.clear();
    conn.done = true;
}

/// Reads until the socket would block, handling every complete frame.
/// Returns true when the connection is dead.
fn pump_read(cfg: &LoadConfig, conn: &mut MuxConn, tally: &mut Tally) -> bool {
    loop {
        let mut src = &conn.stream;
        match conn.ring.read_from(&mut src) {
            Ok(0) => return true, // EOF with requests outstanding
            Ok(_) => {
                loop {
                    let payload = match conn.ring.next_frame() {
                        Ok(Some(p)) => p,
                        Ok(None) => break,
                        Err(_) => {
                            tally.report.protocol_errors += 1;
                            return true;
                        }
                    };
                    match decode_response(payload) {
                        Ok(resp) => {
                            handle_response(cfg, &resp, &mut conn.pending, &mut conn.out, tally)
                        }
                        Err(_) => tally.report.protocol_errors += 1,
                    }
                }
                conn.pump_plan(cfg.depth, cfg.tenant);
                if conn.flush().is_err() {
                    return true;
                }
                if conn.finished() {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Applies one decoded response to the pending window. BUSY retries
/// re-encode onto `out` with the same tag.
fn handle_response(
    cfg: &LoadConfig,
    resp: &Response,
    pending: &mut Vec<Pending>,
    out: &mut Vec<u8>,
    tally: &mut Tally,
) {
    let tag = match resp {
        Response::Done { tag, .. }
        | Response::Busy { tag, .. }
        | Response::Error { tag, .. }
        | Response::Stats { tag, .. }
        | Response::Flushed { tag }
        | Response::Goodbye { tag }
        | Response::HelloAck { tag, .. }
        | Response::MapResp { tag, .. }
        | Response::WrongShard { tag, .. }
        | Response::Migrated { tag, .. }
        | Response::ReplAck { tag, .. } => *tag,
    };
    let Some(idx) = pending.iter().position(|p| p.tag == tag) else {
        tally.report.unknown_receipts += 1;
        return;
    };
    match resp {
        Response::Done { .. } => {
            let p = pending.swap_remove(idx);
            tally.report.completed += 1;
            tally
                .hist
                .record(SimDuration::from_ns(p.sent.elapsed().as_nanos() as u64));
        }
        Response::Busy { reason, .. } => {
            use crate::protocol::BusyReason;
            match reason {
                BusyReason::Queue => tally.report.busy_queue += 1,
                BusyReason::RateLimit => tally.report.busy_ratelimit += 1,
                BusyReason::Unavailable | BusyReason::Moving => tally.report.busy_unavailable += 1,
            }
            let p = &mut pending[idx];
            if p.busy_retries >= cfg.max_busy_retries {
                pending.swap_remove(idx);
                tally.report.busy_dropped += 1;
            } else {
                p.busy_retries += 1;
                p.sent = Instant::now();
                push_frame(out, &request_of(p));
            }
        }
        Response::Error { code, .. } => {
            pending.swap_remove(idx);
            if *code == ErrorCode::Internal {
                tally.report.internal_errors += 1;
            } else {
                tally.report.protocol_errors += 1;
            }
            tally.report.failed += 1;
        }
        _ => {
            pending.swap_remove(idx);
            tally.report.unknown_receipts += 1;
            tally.report.failed += 1;
        }
    }
}
