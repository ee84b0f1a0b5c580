//! The node's one thread: the readiness-based server core, the single
//! place a request frame is dispatched ([`drain_frames`]), and the
//! stepper of every shard.
//!
//! One thread owns every connection socket, the listener and the shards
//! ([`Node`]): a [`Poller`](crate::poller::Poller) (epoll on Linux,
//! `poll(2)` elsewhere) reports readiness, nonblocking reads land in each
//! connection's [`FrameBuffer`], frames decode in place via
//! [`decode_request_view`] (no per-frame allocation), and responses
//! queue in per-connection [`WriteQueue`]s flushed with vectored writes.
//! Writable interest is registered only while a queue holds unflushed
//! bytes, so an idle server produces near-zero wakeups.
//!
//! Each wake-up reads the virtual clock once and stamps every request
//! it admits with that instant; then it advances every shard to the
//! virtual now and pushes each completion straight onto its connection's
//! write queue. A completion names its connection by a key packing
//! `slot | generation << 32`: one that outlives its connection (the slot
//! was closed and recycled) fails the generation check and is dropped
//! instead of landing on a stranger's socket. The loop then sleeps until
//! a socket is ready or the earliest shard has something due, mapped to
//! wall time, with 1-ns timer slack so that the sleep ends on time, but
//! never for less than [`MIN_SLEEP`] (DESIGN §8.3). Other threads reach
//! it only through the [`Waker`]: for shutdown and for the crash orders
//! queued in [`Shared::crashes`].
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poller::{best_poller, Interest, PollEvent, Poller, Waker};
use crate::protocol::{BatchEntry, BusyReason, ErrorCode, Response, PROTOCOL_VERSION};
use crate::ring::{decode_request_view, FrameBuffer, RequestView, WriteQueue, READ_CHUNK};
use crate::server::{
    admit, at_conn_limit, bad_request, handle_map_push, handle_migrate_in, handle_replicate,
    refuse_busy, refuse_over_limit, render_stats, seal_for_migration, Node, Reply, Shared,
};
use crate::shard::Shard;
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
/// The longest poll wait while draining.
const DRAIN_TICK: Duration = Duration::from_millis(20);
/// The shortest timed sleep the loop takes. Arming a timer, switching
/// away and being switched back costs a few microseconds of CPU, more
/// than a sleep this short saves; so an event due sooner is answered up
/// to this late. An event already due is answered at once.
const MIN_SLEEP: Duration = Duration::from_micros(5);

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

/// A frame whose answer waits on the shards: run after this wake-up's
/// reads, once every connection can take the answers it releases.
enum Drain {
    /// FLUSH: every shard fast-forwards, then `FLUSHED`.
    Flush { key: u64, tag: u64 },
    /// MIGRATE_OUT on a range already sealed: its shard fast-forwards,
    /// then `MIGRATED` carries the learner snapshot.
    Migrate { key: u64, tag: u64, range: u32 },
}

/// Schedules the calling thread the way the loop needs it (Linux;
/// elsewhere a no-op). Both settings are fixed behaviour:
///
/// - 1-ns timer slack. Linux lets a timed sleep overrun by the thread's
///   slack (50 µs by default) so that wake-ups batch; a loop sleeping
///   until its next simulated event would then run that event up to
///   50 µs late.
/// - `SCHED_BATCH`. A wake-up (a readable socket, an expired timer) then
///   does not preempt the thread running on the loop's CPU; the loop runs
///   once that thread blocks, yields or ends its slice. On a CPU of its
///   own nothing changes. On a CPU it shares with a client, a client that
///   sends k frames in a row keeps the CPU for all k, and the loop reads
///   and answers them in one wake-up instead of k (DESIGN §8.3).
#[cfg(target_os = "linux")]
fn tune_loop_thread() {
    const PR_SET_TIMERSLACK: i32 = 29;
    const SCHED_BATCH: i32 = 3;
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, whose policy SCHED_BATCH
    // (priority 0, no privilege needed) replaces, and PR_SET_TIMERSLACK
    // reads one unsigned long; both change only this thread, and a
    // failure leaves its default in place. The slack goes last, so a
    // thread reading 1 ns has both.
    unsafe {
        sched_setscheduler(0, SCHED_BATCH, &param);
        prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tune_loop_thread() {}

/// Entry point spawned by [`Server::start`](crate::server::Server):
/// runs until shutdown, logging (not panicking) on a fatal loop error.
/// Either way it then takes the crash orders still queued and drains
/// every shard, so the journal and the counters see every admitted
/// request resolved.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, waker: Waker, waker_rx: UnixStream) {
    tune_loop_thread();
    let mut node = Node::new(&shared);
    if let Err(e) = run_inner(&listener, &shared, &mut node, &waker, &waker_rx) {
        eprintln!("rif-server: event loop failed: {e}");
        shared.shutdown.store(true, Ordering::Release);
    }
    let orders = shared.crashes().take().unwrap_or_default();
    let now = shared.clock.now();
    let mut gone = |_, _| {};
    for (i, restart_after) in orders {
        let deadline = shared.clock.after(restart_after);
        node.shards[i].crash(&shared, deadline, &mut gone);
    }
    for shard in &mut node.shards {
        shard.fast_forward(&shared, now, &mut gone);
    }
    node.publish(&shared);
}

fn run_inner(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    node: &mut Node,
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

    let mut slab = Slab::new();
    let mut events: Vec<PollEvent> = Vec::new();
    // Slots touched this iteration (new bytes, new responses, state
    // flags) that the sweep phase must flush / re-register / close.
    let mut touched: Vec<usize> = Vec::new();
    let mut drains: Vec<Drain> = Vec::new();
    let mut draining: Option<Instant> = None;
    let mut timeout = None;

    loop {
        events.clear();
        poller.wait(&mut events, timeout)?;
        shared
            .front_door
            .epoll_wakeups
            .fetch_add(1, Ordering::Relaxed);
        node.now = shared.clock.now();

        let mut woken = false;
        for i in 0..events.len() {
            let ev = events[i];
            match ev.token {
                TOK_LISTENER => {
                    if draining.is_none() {
                        accept_ready(
                            listener,
                            shared,
                            node,
                            poller.as_mut(),
                            &mut slab,
                            &mut touched,
                            &mut drains,
                        )?;
                    }
                }
                TOK_WAKER => woken = true,
                tok => {
                    let slot = tok - TOK_CONN0;
                    let key = comp_key(slot, slab.gens[slot]);
                    let Some(conn) = slab.get_mut(slot) else {
                        continue; // closed earlier this iteration
                    };
                    touch(conn, slot, &mut touched);
                    if ev.error {
                        conn.close_now = true;
                        continue;
                    }
                    if ev.readable && !conn.close_now && !conn.close_after_flush {
                        read_ready(conn, key, shared, node, &mut drains);
                    }
                    // Writability is consumed by the sweep's flush.
                }
            }
        }

        let mut out = |key: u64, resp: Response| deliver(&mut slab, &mut touched, key, &resp);
        // Drain the waker *before* taking the crash orders: an order
        // racing this drain either is in the queue taken next or re-arms
        // the pipe for the next `wait`.
        if woken {
            waker.drain(waker_rx);
            let orders = shared.crashes().as_mut().map(std::mem::take);
            for (i, restart_after) in orders.into_iter().flatten() {
                let deadline = shared.clock.after(restart_after);
                node.shards[i].crash(shared, deadline, &mut out);
            }
        }
        for drain in drains.drain(..) {
            match drain {
                Drain::Flush { key, tag } => {
                    for shard in &mut node.shards {
                        shard.fast_forward(shared, node.now, &mut out);
                    }
                    out(key, Response::Flushed { tag });
                }
                Drain::Migrate { key, tag, range } => {
                    let shard = &mut node.shards[range as usize];
                    shard.fast_forward(shared, node.now, &mut out);
                    let state = shard.learner_snapshot();
                    out(key, Response::Migrated { tag, range, state });
                }
            }
        }
        // Every shard to the virtual now: what completed by then is
        // answered in this iteration's sweep.
        let horizon = shared.clock.now();
        for shard in &mut node.shards {
            shard.advance(shared, horizon, &mut out);
        }
        node.publish(shared);

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
                shared
                    .front_door
                    .write_queue_max_bytes
                    .fetch_max(conn.wq.len(), Ordering::Relaxed);
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
        // Sleep until a socket is ready or the earliest shard has
        // something due.
        let due = node.shards.iter().filter_map(Shard::next_wake).min();
        timeout = due.map(|t| match shared.clock.wall_until(t) {
            nap if nap.is_zero() => nap,
            nap => nap.max(MIN_SLEEP),
        });
        if draining.is_some() {
            timeout = Some(timeout.map_or(DRAIN_TICK, |t| t.min(DRAIN_TICK)));
        }
    }
}

/// Pushes `resp` onto the write queue of the connection `key` names,
/// unless that connection has closed: its slot may hold another by now,
/// and the generation says so.
fn deliver(slab: &mut Slab, touched: &mut Vec<usize>, key: u64, resp: &Response) {
    let slot = (key & u64::from(u32::MAX)) as usize;
    if slab.gens.get(slot).copied() != Some((key >> 32) as u32) {
        return;
    }
    if let Some(conn) = slab.get_mut(slot) {
        conn.wq.push_response(resp);
        touch(conn, slot, touched);
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
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    node: &mut Node,
    poller: &mut dyn Poller,
    slab: &mut Slab,
    touched: &mut Vec<usize>,
    drains: &mut Vec<Drain>,
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
        let key = comp_key(slot, slab.gens[slot]);
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
        read_ready(conn, key, shared, node, drains);
    }
}

/// Reads until the socket would block (or EOF), decoding and
/// dispatching every complete frame in the ring.
fn read_ready(
    conn: &mut Conn,
    key: u64,
    shared: &Arc<Shared>,
    node: &mut Node,
    drains: &mut Vec<Drain>,
) {
    loop {
        let mut src = &conn.stream;
        match conn.ring.read_from(&mut src) {
            Ok(0) => {
                // EOF: serve what is buffered, flush what is owed, then
                // close. No more bytes will ever arrive.
                drain_frames(conn, key, shared, node, drains);
                conn.close_after_flush = true;
                return;
            }
            Ok(n) => {
                if !drain_frames(conn, key, shared, node, drains) {
                    return; // poisoned or closing: stop reading
                }
                // A short read emptied the socket: the read that would
                // say `WouldBlock` is skipped, and bytes arriving later
                // make the socket readable for the next wait.
                if n < READ_CHUNK {
                    return;
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

/// Decodes and dispatches every complete frame currently buffered,
/// answering inline onto the connection's write queue. Returns false
/// when the connection should not be read further (the ring is
/// poisoned, a HELLO named another protocol version, or SHUTDOWN
/// started the goodbye handshake).
fn drain_frames(
    conn: &mut Conn,
    key: u64,
    shared: &Arc<Shared>,
    node: &mut Node,
    drains: &mut Vec<Drain>,
) -> bool {
    let Conn {
        ring,
        wq,
        close_after_flush,
        close_now,
        ..
    } = conn;
    let reply = &mut Reply { key, wq };
    loop {
        let payload = match ring.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => return true,
            Err(_) => {
                // The length prefix lied: frame sync is gone for good.
                shared.metrics().inc("server.protocol_errors", 1);
                *close_now = true;
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
                if limit > 0 && reply.wq.len() >= limit {
                    let tags = io_entries(view).map(|e| e.tag);
                    refuse_busy(shared, reply, tags, "server.busy.writeq", BusyReason::Queue);
                } else {
                    admit(shared, node, reply, io_entries(view));
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
            // Sealed here, so that no request behind it in this read can
            // slip into the shard; drained once the reads are done.
            RequestView::MigrateOut { tag, range } => {
                if seal_for_migration(shared, reply, tag, range) {
                    drains.push(Drain::Migrate { key, tag, range });
                }
            }
            RequestView::MigrateIn { tag, range, state } => {
                handle_migrate_in(shared, node, reply, tag, range, state);
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
                handle_replicate(shared, node, reply, tag, range, epoch, seq, offset, bytes);
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
                    *close_after_flush = true;
                    return false;
                }
                reply.send(Response::HelloAck { tag, version });
            }
            RequestView::Stats { tag } => {
                node.publish(shared);
                let text = render_stats(shared);
                reply.send(Response::Stats { tag, text });
            }
            // FLUSH answers once every shard has drained.
            RequestView::Flush { tag } => drains.push(Drain::Flush { key, tag }),
            RequestView::Shutdown { tag } => {
                reply.send(Response::Goodbye { tag });
                *close_after_flush = true;
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
