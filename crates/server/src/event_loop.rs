//! The readiness-based single-thread server core, and the single place
//! a request frame is dispatched ([`drain_frames`]).
//!
//! One thread owns every connection socket plus the listener: a
//! [`Poller`](crate::poller::Poller) (epoll on Linux, `poll(2)`
//! elsewhere) reports readiness, nonblocking reads land in each
//! connection's [`FrameBuffer`], frames decode in place via
//! [`decode_request_view`] (no per-frame allocation), and responses
//! queue in per-connection [`WriteQueue`]s flushed with vectored
//! writes. Writable interest is registered only while a queue holds
//! unflushed bytes, so an idle server produces near-zero wakeups.
//!
//! Every response — synchronous (HELLO ack, STATS, admission refusals)
//! and asynchronous (shard completions) — travels the same path: a
//! `(key, Response)` completion channel plus a [`Waker`]. The key packs
//! `slot | generation << 32`; a completion that outlives its connection
//! (the slot was closed and recycled) fails the generation check and is
//! dropped instead of landing on a stranger's socket.
//!
//! Backpressure is layered per connection: once the write queue exceeds
//! [`ServerConfig::write_queue_limit`](crate::server::ServerConfig),
//! new IO requests are shed with `BUSY(queue)` instead of admitted, and
//! past twice the limit the loop stops reading from the socket entirely
//! until the peer drains what it already owes.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poller::{best_poller, Interest, PollEvent, Poller, Waker};
use crate::protocol::{BatchEntry, BusyReason, ErrorCode, Response, PROTOCOL_VERSION};
use crate::ring::{decode_request_view, FrameBuffer, RequestView, WriteQueue};
use crate::server::{
    admit, at_conn_limit, bad_request, handle_map_push, handle_migrate_in, handle_migrate_out,
    handle_replicate, refuse_busy, refuse_over_limit, render_stats, RangeStatus, Shared,
};
use crate::shard::{ReplyTo, ShardMsg};
use rif_workloads::IoOp;

/// Poller token of the listening socket.
const TOK_LISTENER: usize = 0;
/// Poller token of the waker pipe's read end.
const TOK_WAKER: usize = 1;
/// First token available for connections (`token = slot + TOK_CONN0`).
const TOK_CONN0: usize = 2;

/// How long the drain phase waits for queued responses (the GOODBYE
/// among them) to reach their sockets before tearing down anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);
/// Poll granularity while draining (the only time the loop uses a
/// timeout at all — steady state blocks indefinitely).
const DRAIN_TICK: Duration = Duration::from_millis(20);

/// Per-connection state, owned exclusively by the loop thread.
struct Conn {
    stream: TcpStream,
    ring: FrameBuffer,
    wq: WriteQueue,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// `wq.len()` as last accounted into the aggregate gauge.
    last_wq: usize,
    /// Close once the write queue drains (EOF seen or GOODBYE queued).
    close_after_flush: bool,
    /// Close in the next sweep regardless of queued bytes.
    close_now: bool,
    /// Already on this iteration's touched list.
    dirty: bool,
}

/// Connection slab: slot indices are stable for a connection's life and
/// become poller tokens; `gens[slot]` bumps on every reuse so stale
/// completion keys can be told apart from the slot's new tenant.
struct Slab {
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
                self.conns.len() - 1
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.conns.get_mut(slot).and_then(Option::as_mut)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(slot)?.take();
        if conn.is_some() {
            // Recycled slots get a new generation so in-flight
            // completions keyed to the old tenant miss.
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
        }
        conn
    }

    fn open(&self) -> usize {
        self.conns.len() - self.free.len()
    }
}

/// Packs a completion key for `slot` at generation `generation`.
fn comp_key(slot: usize, generation: u32) -> u64 {
    (slot as u64) | (u64::from(generation) << 32)
}

/// Builds the reply route for `slot`: completions land on the channel
/// and the waker kicks the loop out of its blocking wait.
fn reply_for(comp_tx: &Sender<(u64, Response)>, waker: &Waker, slot: usize, gen: u32) -> ReplyTo {
    ReplyTo::Event {
        tx: comp_tx.clone(),
        key: comp_key(slot, gen),
        waker: waker.clone(),
    }
}

/// Entry point spawned by [`Server::start`](crate::server::Server):
/// runs until shutdown, logging (not panicking) on a fatal loop error
/// so the owning process can still drain shards and exit.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, waker: Waker, waker_rx: UnixStream) {
    if let Err(e) = run_inner(&listener, &shared, &waker, &waker_rx) {
        eprintln!("rif-server: event loop failed: {e}");
        shared.shutdown.store(true, Ordering::Release);
    }
}

fn run_inner(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    waker: &Waker,
    waker_rx: &UnixStream,
) -> io::Result<()> {
    let mut poller = best_poller()?;
    poller.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    poller.register(waker_rx.as_raw_fd(), TOK_WAKER, Interest::READ)?;
    shared.metrics().set_gauge(
        "server.poller_is_epoll",
        f64::from(u8::from(poller.name() == "epoll")),
    );

    // Every response funnels through here; the waker kicks the loop out
    // of `wait` when a completion arrives from a shard thread.
    let (comp_tx, comp_rx) = mpsc::channel::<(u64, Response)>();

    let mut slab = Slab::new();
    let mut events: Vec<PollEvent> = Vec::new();
    // Slots touched this iteration (new bytes, new responses, state
    // flags) that the sweep phase must flush / re-register / close.
    let mut touched: Vec<usize> = Vec::new();
    let mut draining: Option<Instant> = None;

    loop {
        events.clear();
        let timeout = draining.map(|_| DRAIN_TICK);
        poller.wait(&mut events, timeout)?;
        shared
            .front_door
            .epoll_wakeups
            .fetch_add(1, Ordering::Relaxed);

        for i in 0..events.len() {
            let ev = events[i];
            match ev.token {
                TOK_LISTENER => {
                    if draining.is_none() {
                        accept_ready(
                            listener,
                            shared,
                            poller.as_mut(),
                            &mut slab,
                            &mut touched,
                            &comp_tx,
                            waker,
                        )?;
                    }
                }
                TOK_WAKER => {} // drained below, every iteration
                tok => {
                    let slot = tok - TOK_CONN0;
                    let gen = slab.gens[slot];
                    let Some(conn) = slab.get_mut(slot) else {
                        continue; // closed earlier this iteration
                    };
                    touch(conn, slot, &mut touched);
                    if ev.error {
                        conn.close_now = true;
                        continue;
                    }
                    if ev.readable && !conn.close_now && !conn.close_after_flush {
                        let reply = reply_for(&comp_tx, waker, slot, gen);
                        read_ready(conn, shared, &reply);
                    }
                    // Writability is consumed by the sweep's flush.
                }
            }
        }

        // Drain the waker *before* the completion queue: a completion
        // racing this drain either lands in the queue we are about to
        // empty or re-arms the pipe for the next `wait`.
        waker.drain(waker_rx);
        while let Ok((key, resp)) = comp_rx.try_recv() {
            let slot = (key & u64::from(u32::MAX)) as usize;
            let gen = (key >> 32) as u32;
            if slab.gens.get(slot).copied() != Some(gen) {
                continue; // late completion for a recycled slot: drop
            }
            if let Some(conn) = slab.get_mut(slot) {
                conn.wq.push_response(&resp);
                shared
                    .front_door
                    .write_queue_max_bytes
                    .fetch_max(conn.wq.len(), Ordering::Relaxed);
                touch(conn, slot, &mut touched);
            }
        }

        // A SHUTDOWN frame (or an external `request_shutdown`) starts
        // the drain: stop accepting, flush what every socket is owed,
        // close as queues empty, and give up at the deadline.
        if draining.is_none() && shared.shutdown.load(Ordering::Acquire) {
            draining = Some(Instant::now());
            poller.deregister(listener.as_raw_fd())?;
            for slot in 0..slab.conns.len() {
                if let Some(conn) = slab.conns[slot].as_mut() {
                    conn.close_after_flush = true;
                    touch(conn, slot, &mut touched);
                }
            }
        }

        // Sweep: flush touched queues, close finished connections, and
        // reconcile poller interest with what each connection now needs.
        for slot in touched.drain(..) {
            let Some(conn) = slab.get_mut(slot) else {
                continue;
            };
            conn.dirty = false;
            if !conn.close_now && !conn.wq.is_empty() {
                let mut dst = &conn.stream;
                if conn.wq.flush(&mut dst).is_err() {
                    conn.close_now = true;
                }
            }
            account_wq(shared, conn);
            if conn.close_now || (conn.close_after_flush && conn.wq.is_empty()) {
                let fd = conn.stream.as_raw_fd();
                poller.deregister(fd)?;
                let gone = slab.remove(slot).expect("slot occupied");
                // Gauge bookkeeping before the socket drops.
                shared
                    .front_door
                    .write_queue_bytes
                    .fetch_sub(gone.last_wq, Ordering::AcqRel);
                shared
                    .front_door
                    .connections_open
                    .fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            let desired = desired_interest(shared, conn);
            if desired != conn.interest {
                poller.reregister(conn.stream.as_raw_fd(), TOK_CONN0 + slot, desired)?;
                conn.interest = desired;
            }
        }

        if let Some(started) = draining {
            if slab.open() == 0 || started.elapsed() >= DRAIN_DEADLINE {
                return Ok(());
            }
        }
    }
}

/// Marks `conn` for the sweep phase, once per iteration.
fn touch(conn: &mut Conn, slot: usize, touched: &mut Vec<usize>) {
    if !conn.dirty {
        conn.dirty = true;
        touched.push(slot);
    }
}

/// Folds a connection's write-queue delta into the aggregate gauge.
fn account_wq(shared: &Shared, conn: &mut Conn) {
    let now = conn.wq.len();
    if now != conn.last_wq {
        let gauge = &shared.front_door.write_queue_bytes;
        if now > conn.last_wq {
            gauge.fetch_add(now - conn.last_wq, Ordering::AcqRel);
        } else {
            gauge.fetch_sub(conn.last_wq - now, Ordering::AcqRel);
        }
        conn.last_wq = now;
    }
}

/// The interest a connection should be registered with right now:
/// writable only while bytes are queued, readable unless the peer owes
/// us a drain (queue past twice the shed limit) or the connection is on
/// its way out.
fn desired_interest(shared: &Shared, conn: &Conn) -> Interest {
    let limit = shared.cfg.write_queue_limit;
    let read_paused = limit > 0 && conn.wq.len() >= limit.saturating_mul(2);
    Interest {
        readable: !conn.close_after_flush && !read_paused,
        writable: !conn.wq.is_empty(),
    }
}

/// Accepts until the listener would block, enforcing the connection
/// limit and registering each new socket read-only. Bytes that arrived
/// with the connection are served immediately instead of waiting for
/// the next readiness round.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    poller: &mut dyn Poller,
    slab: &mut Slab,
    touched: &mut Vec<usize>,
    comp_tx: &Sender<(u64, Response)>,
    waker: &Waker,
) -> io::Result<()> {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection failures (ConnectionAborted, fd
            // exhaustion, ...) must not kill the loop.
            Err(_) => return Ok(()),
        };
        if at_conn_limit(shared) {
            refuse_over_limit(stream, shared);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        shared
            .front_door
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared
            .front_door
            .connections_open
            .fetch_add(1, Ordering::AcqRel);
        let slot = slab.insert(Conn {
            stream,
            ring: FrameBuffer::new(),
            wq: WriteQueue::new(),
            interest: Interest::READ,
            last_wq: 0,
            close_after_flush: false,
            close_now: false,
            dirty: false,
        });
        let gen = slab.gens[slot];
        let conn = slab.get_mut(slot).expect("just inserted");
        if let Err(e) = poller.register(conn.stream.as_raw_fd(), TOK_CONN0 + slot, Interest::READ) {
            slab.remove(slot);
            shared
                .front_door
                .connections_open
                .fetch_sub(1, Ordering::AcqRel);
            return Err(e);
        }
        touch(conn, slot, touched);
        let reply = reply_for(comp_tx, waker, slot, gen);
        read_ready(conn, shared, &reply);
    }
}

/// Reads until the socket would block (or EOF), decoding and
/// dispatching every complete frame in the ring.
fn read_ready(conn: &mut Conn, shared: &Arc<Shared>, reply: &ReplyTo) {
    loop {
        let mut src = &conn.stream;
        match conn.ring.read_from(&mut src) {
            Ok(0) => {
                // EOF: serve what is buffered, flush what is owed, then
                // close. No more bytes will ever arrive.
                drain_frames(conn, shared, reply);
                conn.close_after_flush = true;
                return;
            }
            Ok(_) => {
                if !drain_frames(conn, shared, reply) {
                    return; // poisoned or closing: stop reading
                }
                // Stop pulling once the peer has pushed us past the
                // hard backpressure line; readable interest drops in
                // the sweep and resumes after the queue drains.
                let limit = shared.cfg.write_queue_limit;
                if limit > 0 && conn.wq.len() >= limit.saturating_mul(2) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.close_now = true;
                return;
            }
        }
    }
}

/// Decodes and dispatches every complete frame currently buffered.
/// Returns false when the connection should not be read further (the
/// ring is poisoned, a HELLO named another protocol version, or SHUTDOWN
/// started the goodbye handshake).
fn drain_frames(conn: &mut Conn, shared: &Arc<Shared>, reply: &ReplyTo) -> bool {
    loop {
        let payload = match conn.ring.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => return true,
            Err(_) => {
                // The length prefix lied: frame sync is gone for good.
                shared.metrics().inc("server.protocol_errors", 1);
                conn.close_now = true;
                return false;
            }
        };
        let view = match decode_request_view(payload) {
            Ok(view) => view,
            Err(_) => {
                shared.metrics().inc("server.protocol_errors", 1);
                // Frame boundaries survived; the stream stays usable.
                reply.send(Response::Error {
                    tag: 0,
                    code: ErrorCode::BadRequest,
                });
                continue;
            }
        };

        match view {
            RequestView::Read { .. } | RequestView::Write { .. } | RequestView::Batch(_) => {
                if let RequestView::Batch(_) = view {
                    shared.metrics().inc("server.batches", 1);
                }
                // Shed I/O once the peer's write queue is past the limit:
                // a small BUSY beats queueing an admission it will not
                // drain.
                let limit = shared.cfg.write_queue_limit;
                if limit > 0 && conn.wq.len() >= limit {
                    let tags = io_entries(view).map(|e| e.tag);
                    refuse_busy(shared, reply, tags, "server.busy.writeq", BusyReason::Queue);
                } else {
                    admit(shared, reply, io_entries(view));
                }
            }
            RequestView::MapGet { tag } => {
                let (epoch, text) = match &shared.cluster {
                    Some(_) => {
                        let cl = shared.cluster_state();
                        (cl.epoch, cl.map_text.clone())
                    }
                    None => (0, String::new()),
                };
                reply.send(Response::MapResp { tag, epoch, text });
            }
            RequestView::MapPush {
                tag,
                epoch,
                capacity_bytes,
                ranges,
                owned,
                followed,
                replicas,
                map_text,
            } => {
                let owned: Vec<u32> = owned.iter().collect();
                let followed: Vec<u32> = followed.iter().collect();
                let replicas: Vec<(u32, String)> =
                    replicas.iter().map(|(r, a)| (r, a.to_string())).collect();
                handle_map_push(
                    shared,
                    reply,
                    tag,
                    epoch,
                    capacity_bytes,
                    ranges,
                    &owned,
                    &followed,
                    &replicas,
                    map_text.to_string(),
                );
            }
            RequestView::MigrateOut { tag, range } => {
                migrate_out_async(shared, reply, tag, range);
            }
            RequestView::MigrateIn { tag, range, state } => {
                handle_migrate_in(shared, reply, tag, range, state.to_string());
            }
            // Directory-only operation; a node refuses it.
            RequestView::Migrate { tag, .. } => bad_request(shared, reply, tag),
            RequestView::Replicate {
                tag,
                range,
                epoch,
                seq,
                offset,
                bytes,
                ..
            } => {
                // Internal primary→follower traffic: never shed (the
                // primary's watermark would stall on a transient queue);
                // its own ownership check, then the gate's shared tail.
                handle_replicate(shared, reply, tag, range, epoch, seq, offset, bytes);
            }
            RequestView::Hello { tag, version } => {
                if version != PROTOCOL_VERSION {
                    // One wire version: a peer built against another is
                    // told so and dropped instead of being half-served.
                    shared.metrics().inc("server.protocol_errors", 1);
                    reply.send(Response::Error {
                        tag,
                        code: ErrorCode::BadRequest,
                    });
                    conn.close_after_flush = true;
                    return false;
                }
                reply.send(Response::HelloAck { tag, version });
            }
            RequestView::Stats { tag } => {
                let text = render_stats(shared);
                reply.send(Response::Stats { tag, text });
            }
            // FLUSH answers once every shard has acked its drain.
            RequestView::Flush { tag } => off_loop(shared, reply, "rif-flush", move |sh, r| {
                wait_shards_flushed(sh);
                r.send(Response::Flushed { tag });
            }),
            RequestView::Shutdown { tag } => {
                reply.send(Response::Goodbye { tag });
                conn.close_after_flush = true;
                shared.shutdown.store(true, Ordering::Release);
                // Anything pipelined behind SHUTDOWN is intentionally
                // not served.
                return false;
            }
        }
    }
}

/// The I/O entries of a READ, WRITE or BATCH frame, in order: a single
/// frame is a one-entry group with no `retry_of`. Any other request has
/// none.
fn io_entries(view: RequestView<'_>) -> impl Iterator<Item = BatchEntry> + '_ {
    let single = |op, tenant, tag, offset, bytes| BatchEntry {
        op,
        tenant,
        tag,
        offset,
        bytes,
        retry_of: 0,
    };
    let (one, batch) = match view {
        RequestView::Read {
            tenant,
            tag,
            offset,
            bytes,
        } => (Some(single(IoOp::Read, tenant, tag, offset, bytes)), None),
        RequestView::Write {
            tenant,
            tag,
            offset,
            bytes,
        } => (Some(single(IoOp::Write, tenant, tag, offset, bytes)), None),
        RequestView::Batch(b) => (None, Some(b)),
        _ => (None, None),
    };
    one.into_iter()
        .chain(batch.into_iter().flat_map(|b| b.iter()))
}

/// Runs `job` on an ephemeral thread so the loop never waits out a shard
/// drain; its reply travels the completion channel like any other. If
/// the OS refuses the thread, `job` runs inline: slow, but the semantics
/// hold.
fn off_loop(
    shared: &Arc<Shared>,
    reply: &ReplyTo,
    name: &str,
    job: impl Fn(&Shared, &ReplyTo) + Copy + Send + 'static,
) {
    let (sh, thread_reply) = (Arc::clone(shared), reply.clone());
    let spawned = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || job(&sh, &thread_reply));
    if let Err(e) = spawned {
        eprintln!("rif-server: {name} thread spawn failed ({e}); running inline");
        job(shared, reply);
    }
}

/// MIGRATE_OUT: the range is checked and sealed inline, so the bounce
/// takes effect before the next frame is read and no request pipelined
/// behind the MIGRATE_OUT can slip into the shard after the drain
/// starts; the drain and the `Migrated` reply run off the loop.
fn migrate_out_async(shared: &Arc<Shared>, reply: &ReplyTo, tag: u64, range: u32) {
    if shared.cluster.is_none() || range as usize >= shared.cfg.shards {
        bad_request(shared, reply, tag);
        return;
    }
    shared.cluster_state().status[range as usize] = RangeStatus::Moving;
    off_loop(shared, reply, "rif-migrate", move |sh, r| {
        handle_migrate_out(sh, r, tag, range);
    });
}

fn wait_shards_flushed(shared: &Shared) {
    let (done_tx, done_rx) = mpsc::channel();
    for s in &shared.shards {
        let _ = s.tx.send(ShardMsg::Flush(done_tx.clone()));
    }
    drop(done_tx);
    // Workers ack after force-draining; an exited worker's inbox hands
    // the Flush back and drops its sender, which also ends the wait.
    while done_rx.recv().is_ok() {}
}
