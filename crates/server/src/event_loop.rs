//! The node's one thread: the readiness-based server core, the single
//! place a request frame is dispatched ([`drain_frames`]), and the
//! stepper of every shard.
//!
//! One thread owns every connection socket, the listener and the shards
//! ([`Node`]): a [`Poller`](crate::poller::Poller) (epoll on Linux,
//! `poll(2)` elsewhere) reports readiness, nonblocking reads land in each
//! connection's [`FrameBuffer`], each borrowed frame decodes once into
//! an owned [`Request`], and responses queue in per-connection
//! [`WriteQueue`]s flushed with vectored writes.
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
//! it only through the control queue ([`Shared::control`]) and its
//! waker: for shutdown, crash orders, and snapshot and capture requests.
//!
//! In cluster mode the loop also drives the node's replication shipper
//! (`replicate::Shipper`, DESIGN §15.2): its follower links are polled
//! under tokens of their own, each wake-up ships what admission offered,
//! and the shipper's due-times (a `BUSY` re-send, an ack deadline) bound
//! the sleep next to the shards'.
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poller::{best_poller, Interest, PollEvent, Poller};
use crate::protocol::{
    decode_request, BatchEntry, BusyReason, Request, Response, PROTOCOL_VERSION,
};
use crate::recorder::capture_of;
use crate::replicate::TOK_LINK0;
use crate::ring::{FrameBuffer, WriteQueue, READ_CHUNK};
use crate::server::{
    admit, bad_request, fold_runtime_gauges, handle_map_get, handle_map_push, handle_migrate_in,
    handle_replicate, refuse_busy, refuse_over_limit, seal_for_migration, Node, Reply, Shared,
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
#[derive(Default)]
struct Slab {
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
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

    /// Unflushed response bytes across the connections in the slab.
    fn queued_bytes(&self) -> usize {
        self.conns.iter().flatten().map(|c| c.wq.len()).sum()
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

/// Closes the control queue when the loop thread leaves [`run`], by
/// return or by panic, so that no caller waits on a loop that is gone.
struct OnExit<'a>(&'a Shared);

impl Drop for OnExit<'_> {
    fn drop(&mut self) {
        self.0.control.exit(|_| Default::default());
    }
}

/// Entry point spawned by [`Server::start`](crate::server::Server):
/// runs until shutdown, logging (not panicking) on a fatal loop error.
/// Either way it then closes the control queue, applies the crash orders
/// still queued and drains every shard, so the journal and the counters
/// see every admitted request resolved, counts the replication jobs left
/// unshipped as skipped, and leaves the registry and the capture for
/// later requests.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, waker_rx: UnixStream) {
    let _exit = OnExit(&shared);
    tune_loop_thread();
    let mut node = Node::new(&shared.cfg);
    let mut slab = Slab::default();
    if let Err(e) = run_inner(&listener, &shared, &mut node, &mut slab, &waker_rx) {
        eprintln!("rif-server: event loop failed: {e}");
    }
    shared.control.exit(|orders| {
        let now = shared.clock.now();
        let mut gone = |_, _| {};
        let (shards, metrics, journal) = (&mut node.shards, &mut node.metrics, &mut node.journal);
        for (i, restart_after) in orders {
            let deadline = shared.clock.after(restart_after);
            shards[i].crash(metrics, journal, deadline, &mut gone);
        }
        for shard in shards.iter_mut() {
            shard.fast_forward(metrics, journal, now, &mut gone);
        }
        if let Some(shipper) = node.shipper() {
            shipper.abandon();
        }
        let m = fold_runtime_gauges(&shared, &node, slab.open(), slab.queued_bytes());
        (m, capture_of(node.journal.as_ref()))
    });
}

fn run_inner(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    node: &mut Node,
    slab: &mut Slab,
    waker_rx: &UnixStream,
) -> io::Result<()> {
    let mut poller = best_poller()?;
    poller.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    poller.register(waker_rx.as_raw_fd(), TOK_WAKER, Interest::READ)?;
    node.metrics.set_gauge(
        "server.poller_is_epoll",
        f64::from(u8::from(poller.name() == "epoll")),
    );

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
        node.wakeups += 1;
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
                            slab,
                            &mut touched,
                            &mut drains,
                        )?;
                    }
                }
                TOK_WAKER => woken = true,
                tok if tok >= TOK_LINK0 => {
                    if let Some(shipper) = node.shipper() {
                        shipper.on_event(poller.as_mut(), &ev, Instant::now());
                    }
                }
                tok => {
                    let slot = tok - TOK_CONN0;
                    let Some(conn) = slab.get_mut(slot) else {
                        continue; // closed earlier this iteration
                    };
                    touch(conn, slot, &mut touched);
                    if ev.error {
                        conn.close_now = true;
                        continue;
                    }
                    if ev.readable && !conn.close_now && !conn.close_after_flush {
                        read_ready(slab, slot, shared, node, &mut drains);
                    }
                    // Writability is consumed by the sweep's flush.
                }
            }
        }

        let mut out = |key: u64, resp: Response| deliver(slab, &mut touched, key, &resp);
        let (shards, metrics, journal) = (&mut node.shards, &mut node.metrics, &mut node.journal);
        let now = node.now;
        // Drain the waker *before* taking the control queue: an order or
        // request racing this drain either is in the queue taken next or
        // re-arms the pipe for the next `wait`.
        let mut ask = None;
        if woken {
            shared.control.waker.drain(waker_rx);
            let orders = shared.control.take();
            ask = orders.ask;
            node.shutdown |= orders.shutdown;
            for (i, restart_after) in orders.crashes {
                let deadline = shared.clock.after(restart_after);
                shards[i].crash(metrics, journal, deadline, &mut out);
            }
        }
        for drain in drains.drain(..) {
            match drain {
                Drain::Flush { key, tag } => {
                    for shard in shards.iter_mut() {
                        shard.fast_forward(metrics, journal, now, &mut out);
                    }
                    out(key, Response::Flushed { tag });
                }
                Drain::Migrate { key, tag, range } => {
                    let shard = &mut shards[range as usize];
                    shard.fast_forward(metrics, journal, now, &mut out);
                    let state = shard.learner_snapshot();
                    out(key, Response::Migrated { tag, range, state });
                }
            }
        }
        // Every shard to the virtual now: what completed by then is
        // answered in this iteration's sweep.
        let horizon = shared.clock.now();
        for shard in shards.iter_mut() {
            shard.advance(metrics, journal, horizon, &mut out);
        }
        // Ship what this wake-up admitted, and whatever came due.
        if let Some(shipper) = node.shipper() {
            shipper.service(poller.as_mut(), Instant::now());
        }

        // A SHUTDOWN frame (or an external `request_shutdown`) starts
        // the drain: stop accepting, flush what every socket is owed,
        // close as queues empty, and give up at the deadline.
        if draining.is_none() && node.shutdown {
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
                node.wq_max_bytes = node.wq_max_bytes.max(conn.wq.len());
                let mut dst = &conn.stream;
                if conn.wq.flush(&mut dst).is_err() {
                    conn.close_now = true;
                }
            }
            if conn.close_now || (conn.close_after_flush && conn.wq.is_empty()) {
                poller.deregister(conn.stream.as_raw_fd())?;
                slab.remove(slot);
                continue;
            }
            let desired = desired_interest(shared, conn);
            if desired != conn.interest {
                poller.reregister(conn.stream.as_raw_fd(), TOK_CONN0 + slot, desired)?;
                conn.interest = desired;
            }
        }

        if let Some((ticket, capture)) = ask {
            let m = fold_runtime_gauges(shared, node, slab.open(), slab.queued_bytes());
            let cap = capture.then(|| capture_of(node.journal.as_ref()));
            shared.control.answer(ticket, m, cap);
        }
        if let Some(started) = draining {
            if slab.open() == 0 || started.elapsed() >= DRAIN_DEADLINE {
                return Ok(());
            }
        }
        // Sleep until a socket is ready or the earliest shard, or the
        // shipper, has something due.
        let due = node.shards.iter().filter_map(Shard::next_wake).min();
        timeout = due.map(|t| match shared.clock.wall_until(t) {
            nap if nap.is_zero() => nap,
            nap => nap.max(MIN_SLEEP),
        });
        if let Some(at) = node.shipper().and_then(|s| s.next_due()) {
            let nap = at.saturating_duration_since(Instant::now());
            timeout = Some(timeout.map_or(nap, |t| t.min(nap)));
        }
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
        let limit = shared.cfg.max_connections;
        if limit > 0 && slab.open() >= limit {
            refuse_over_limit(stream, &mut node.metrics);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        node.accepted += 1;
        let slot = slab.insert(Conn {
            stream,
            ring: FrameBuffer::new(),
            wq: WriteQueue::new(),
            interest: Interest::READ,
            close_after_flush: false,
            close_now: false,
            dirty: false,
        });
        let conn = slab.get_mut(slot).expect("just inserted");
        if let Err(e) = poller.register(conn.stream.as_raw_fd(), TOK_CONN0 + slot, Interest::READ) {
            slab.remove(slot);
            return Err(e);
        }
        touch(conn, slot, touched);
        read_ready(slab, slot, shared, node, drains);
    }
}

/// Reads the connection in `slot` until its socket would block (or
/// EOF), decoding and dispatching every complete frame in the ring. The
/// connection is out of the slab meanwhile, so that STATS can count the
/// others.
fn read_ready(
    slab: &mut Slab,
    slot: usize,
    shared: &Arc<Shared>,
    node: &mut Node,
    drains: &mut Vec<Drain>,
) {
    let key = comp_key(slot, slab.gens[slot]);
    let mut conn = slab.conns[slot].take().expect("slot occupied");
    let others = &*slab;
    loop {
        let mut src = &conn.stream;
        match conn.ring.read_from(&mut src) {
            Ok(0) => {
                // EOF: serve what is buffered, flush what is owed, then
                // close. No more bytes will ever arrive.
                drain_frames(&mut conn, key, others, shared, node, drains);
                conn.close_after_flush = true;
                break;
            }
            Ok(n) => {
                if !drain_frames(&mut conn, key, others, shared, node, drains) {
                    break; // poisoned or closing: stop reading
                }
                // A short read emptied the socket: the read that would
                // say `WouldBlock` is skipped, and bytes arriving later
                // make the socket readable for the next wait.
                if n < READ_CHUNK {
                    break;
                }
                // Stop pulling once the peer has pushed us past the
                // hard backpressure line; readable interest drops in
                // the sweep and resumes after the queue drains.
                let limit = shared.cfg.write_queue_limit;
                if limit > 0 && conn.wq.len() >= limit.saturating_mul(2) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.close_now = true;
                break;
            }
        }
    }
    slab.conns[slot] = Some(conn);
}

/// Decodes and dispatches every complete frame currently buffered,
/// answering inline onto the connection's write queue. Returns false
/// when the connection should not be read further (the ring is
/// poisoned, a HELLO named another protocol version, or SHUTDOWN
/// started the goodbye handshake).
fn drain_frames(
    conn: &mut Conn,
    key: u64,
    others: &Slab,
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
                node.metrics.inc("server.protocol_errors", 1);
                *close_now = true;
                return false;
            }
        };
        let req = match decode_request(payload) {
            Ok(req) => req,
            Err(_) => {
                // Frame boundaries survived; the stream stays usable.
                bad_request(&mut node.metrics, reply, 0);
                continue;
            }
        };

        match req {
            Request::Read { .. } | Request::Write { .. } | Request::Batch(_) => {
                if let Request::Batch(_) = req {
                    node.metrics.inc("server.batches", 1);
                }
                // Shed I/O once the peer's write queue is past the limit:
                // a small BUSY beats queueing an admission it will not
                // drain.
                let limit = shared.cfg.write_queue_limit;
                if limit > 0 && reply.wq.len() >= limit {
                    let tags = io_entries(&req).map(|e| e.tag);
                    let m = &mut node.metrics;
                    refuse_busy(m, reply, tags, "server.busy.writeq", BusyReason::Queue);
                } else {
                    admit(shared, node, reply, io_entries(&req));
                }
            }
            Request::MapGet { tag } => handle_map_get(node, reply, tag),
            Request::MapPush {
                tag,
                epoch,
                capacity_bytes,
                ranges,
                owned,
                followed,
                replicas,
                map_text,
            } => handle_map_push(
                shared,
                node,
                reply,
                tag,
                epoch,
                capacity_bytes,
                ranges,
                &owned,
                &followed,
                &replicas,
                map_text,
            ),
            // Sealed here, so that no request behind it in this read can
            // slip into the shard; drained once the reads are done.
            Request::MigrateOut { tag, range } => {
                if seal_for_migration(shared, node, reply, tag, range) {
                    drains.push(Drain::Migrate { key, tag, range });
                }
            }
            Request::MigrateIn { tag, range, state } => {
                handle_migrate_in(shared, node, reply, tag, range, &state);
            }
            // Directory-only operation; a node refuses it.
            Request::Migrate { tag, .. } => bad_request(&mut node.metrics, reply, tag),
            Request::Replicate {
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
            Request::Hello { tag, version } => {
                if version != PROTOCOL_VERSION {
                    // One wire version: a peer built against another is
                    // told so and dropped instead of being half-served.
                    bad_request(&mut node.metrics, reply, tag);
                    *close_after_flush = true;
                    return false;
                }
                reply.send(Response::HelloAck { tag, version });
            }
            Request::Stats { tag } => {
                // This connection is out of the slab: count it back in.
                let queued = others.queued_bytes() + reply.wq.len();
                let m = fold_runtime_gauges(shared, node, others.open(), queued);
                let text = m.lines().join("\n");
                reply.send(Response::Stats { tag, text });
            }
            // FLUSH answers once every shard has drained.
            Request::Flush { tag } => drains.push(Drain::Flush { key, tag }),
            Request::Shutdown { tag } => {
                reply.send(Response::Goodbye { tag });
                *close_after_flush = true;
                node.shutdown = true;
                shared.control.shut_down();
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
fn io_entries(req: &Request) -> impl Iterator<Item = BatchEntry> + '_ {
    let single = |op, tenant, tag, offset, bytes| BatchEntry {
        op,
        tenant,
        tag,
        offset,
        bytes,
        retry_of: 0,
    };
    let (one, batch): (_, &[BatchEntry]) = match *req {
        Request::Read {
            tenant,
            tag,
            offset,
            bytes,
        } => (Some(single(IoOp::Read, tenant, tag, offset, bytes)), &[]),
        Request::Write {
            tenant,
            tag,
            offset,
            bytes,
        } => (Some(single(IoOp::Write, tenant, tag, offset, bytes)), &[]),
        Request::Batch(ref entries) => (None, entries),
        _ => (None, &[]),
    };
    one.into_iter().chain(batch.iter().copied())
}
