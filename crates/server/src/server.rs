//! The loopback TCP storage service.
//!
//! One readiness-driven thread ([`crate::event_loop`]) is the whole node:
//! it owns the listener, every connection socket, every shard and, in
//! cluster mode, the replication shipper ([`Node`]). It decodes frames, runs
//! the admission control below, submits admitted I/O to the shards, steps
//! them to the virtual now and pushes their completions onto the
//! connections' write queues. Responses from different shards interleave
//! freely and may be out of submission order — the tag is the
//! correlation key.
//!
//! Admission happens before a request ever reaches a simulator, at one
//! gate (`admit`) that takes READ, WRITE and BATCH alike — a single
//! frame is a one-entry group — in this order:
//!
//! 1. **Shutdown** — once shutdown began, every entry answers
//!    `ERROR(ShuttingDown)`.
//! 2. **Per entry** — a zero or oversized length answers
//!    `ERROR(BadLength)`; on a cluster node, a range this node may not
//!    serve answers `WRONG_SHARD(epoch)` or `BUSY(moving)`. Such an entry
//!    is answered alone and the rest of the group goes on.
//! 3. **Rate limiting** — a per-tenant token bucket charged for the
//!    whole group or not at all; a short tenant bounces every entry with
//!    `BUSY(rate_limit)`.
//! 4. **Queue backpressure** — a group needs room for its share under
//!    the in-flight cap of every shard it touches, or takes none: a full
//!    window bounces every entry with `BUSY(queue)` instead of queueing
//!    unboundedly.
//!
//! A REPLICATE shipment asks its own ownership question
//! (`handle_replicate`) and then takes the same shutdown, length,
//! room and submission steps.
//!
//! The loop is the only owner of the node's state ([`Node`]), the capture
//! journal included; another thread orders a crash or a shutdown, or asks
//! for a snapshot or the capture, on one queue (`Control`).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rif_events::trace::MetricsRegistry;
use rif_events::SimTime;
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::{Capture, IoOp};

use crate::bucket::TenantBuckets;
use crate::pacing::VirtualClock;
use crate::poller::Waker;
use crate::protocol::{encode_response, write_frame, BatchEntry, BusyReason, ErrorCode, Response};
use crate::recorder::TraceRecorder;
use crate::replicate::Shipper;
use crate::ring::WriteQueue;
use crate::shard::{ReplyTo, Shard, ShardSpec, Submission};

/// Largest single transfer the service accepts: 1 MiB keeps one request
/// from monopolizing a shard's event queue.
pub const MAX_IO_BYTES: u32 = 1 << 20;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (simulators).
    pub shards: usize,
    /// Logical capacity served; request offsets are wrapped into it.
    pub capacity_bytes: u64,
    /// Per-shard in-flight cap before `BUSY(queue)`.
    pub inflight_limit: usize,
    /// Per-tenant admitted requests per second; `0` disables limiting.
    pub rate_per_sec: f64,
    /// Token-bucket burst for the rate limit.
    pub burst: f64,
    /// Virtual nanoseconds per wall nanosecond (see [`VirtualClock`]).
    pub time_scale: f64,
    /// Read-retry scheme the simulated SSDs run.
    pub retry: RetryKind,
    /// Wear stage of the simulated flash.
    pub pe_cycles: u32,
    /// NVMe queue depth of each shard's simulator.
    pub queue_depth: usize,
    /// Base RNG seed; shard `i` uses `seed + i`.
    pub seed: u64,
    /// Journal every admitted request for capture → replay; see
    /// [`Server::capture`].
    pub capture: bool,
    /// Open-connection cap; over-limit accepts are answered with a clean
    /// `ERROR(ConnLimit)` frame and closed instead of exhausting fds.
    /// `0` means unlimited.
    pub max_connections: usize,
    /// Per-connection write-queue bytes before new I/O admission sheds
    /// to `BUSY(queue)`; at twice this the loop stops reading from the
    /// connection until the queue drains. `0` means unbounded.
    pub write_queue_limit: usize,
    /// Run the shard simulators with online threshold learning instead
    /// of the oracle characterization tables; per-shard learner state is
    /// exported under `server.learner.*` in STATS.
    pub learn: bool,
    /// Lifetime drift rate for the shard simulators, in extra retention
    /// days per simulated second. `0` (default) disables drift.
    pub drift_days_per_sec: f64,
    /// Run the shard simulators as hybrid SLC/QLC devices (DESIGN §14):
    /// writes land in each die's SLC cache and destage to QLC capacity
    /// through the background scheduler, whose live counters are
    /// exported under `server.bg.*` in STATS.
    pub hybrid: bool,
    /// Run as one node of a cluster: the server starts owning **no**
    /// LBA ranges (every request bounces until the directory's first
    /// MAP_PUSH arrives) and enforces range ownership on admission —
    /// non-owned ranges answer `WRONG_SHARD(epoch)` and migrating ones
    /// `BUSY(moving)`.
    /// In cluster mode `shards` is the *total* range count of the
    /// cluster map, so range indices and shard indices coincide.
    pub cluster: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            capacity_bytes: 8 << 30,
            inflight_limit: 64,
            rate_per_sec: 0.0,
            burst: 0.0,
            time_scale: 20.0,
            retry: RetryKind::Rif,
            pe_cycles: 2000,
            queue_depth: 16,
            seed: 1,
            capture: false,
            max_connections: 16_384,
            write_queue_limit: 256 << 10,
            learn: false,
            drift_days_per_sec: 0.0,
            hybrid: false,
            cluster: false,
        }
    }
}

/// Ownership of one LBA range on a cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RangeStatus {
    /// This node serves the range.
    Owned,
    /// A handoff is draining: new arrivals bounce with `BUSY(moving)`.
    Moving,
    /// Another node serves the range: arrivals answer `WRONG_SHARD`.
    NotOwned,
    /// This node replicates the range: REPLICATE shipments from the
    /// primary are applied, client *reads* are served (the router's
    /// failover path), and client writes still answer `WRONG_SHARD` —
    /// only the primary may originate writes.
    Following,
}

/// A cluster node's view of the shard map: the directory's last push,
/// plus the per-range ownership the admission gate enforces. The map
/// text is carried verbatim (the node never parses it) so MAP_GET can
/// serve it back to clients without the server depending on the cluster
/// crate's parser.
struct ClusterState {
    epoch: u64,
    map_text: String,
    status: Vec<RangeStatus>,
    /// The replication targets, job queue and follower links.
    shipper: Shipper,
}

/// What threads other than the event loop must reach: the immutable
/// configuration and clocks, and the control queue. Everything else
/// about a node is the loop's own ([`Node`]).
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) clock: VirtualClock,
    pub(crate) started: Instant,
    pub(crate) control: Control,
}

/// The one way into the loop from another thread: crash orders, the
/// shutdown request, and snapshot and capture requests, taken when the
/// loop's waker fires. Once the loop has exited, an order is refused and
/// a request is answered at once with what the loop left (empty after a
/// panic).
pub(crate) struct Control {
    queue: Mutex<Queue>,
    /// Signalled when requests are answered or the loop exits.
    answered: Condvar,
    pub(crate) waker: Waker,
}

#[derive(Default)]
struct Queue {
    /// `(shard, restart_after)`, in arrival order.
    crashes: Vec<(usize, Duration)>,
    /// Set by [`Server::request_shutdown`] or a SHUTDOWN frame.
    shutdown: bool,
    /// Snapshot and capture requests made, and answered, so far, and
    /// whether one not yet taken asks for the capture.
    asked: u64,
    answered: u64,
    capture_asked: bool,
    /// The last answers, or what the loop left.
    snapshot: MetricsRegistry,
    capture: Capture,
    exited: bool,
}

/// What the loop takes from the control queue when its waker fires.
pub(crate) struct Orders {
    /// `(shard, restart_after)`, in arrival order.
    pub(crate) crashes: Vec<(usize, Duration)>,
    pub(crate) shutdown: bool,
    /// The newest request still unanswered, and whether one taken asks
    /// for the capture.
    pub(crate) ask: Option<(u64, bool)>,
}

impl Control {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        // Every update leaves the queue valid, so a poisoned one is whole.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The loop's side: what was queued since it last took.
    pub(crate) fn take(&self) -> Orders {
        let mut q = self.queue();
        Orders {
            crashes: std::mem::take(&mut q.crashes),
            shutdown: q.shutdown,
            ask: (q.asked > q.answered).then(|| (q.asked, std::mem::take(&mut q.capture_asked))),
        }
    }

    /// Records a shutdown request, for [`Server::shutdown_requested`].
    pub(crate) fn shut_down(&self) {
        self.queue().shutdown = true;
    }

    /// Answers the requests up to `ticket` with `m`, and with `cap` when
    /// one of them asked for the capture.
    pub(crate) fn answer(&self, ticket: u64, m: MetricsRegistry, cap: Option<Capture>) {
        let mut q = self.queue();
        q.snapshot = m;
        if let Some(cap) = cap {
            q.capture = cap;
        }
        q.answered = q.answered.max(ticket);
        self.answered.notify_all();
    }

    /// Closes the queue as the loop exits: `last` takes the orders still
    /// queued and gives what later requests get. Only the first call
    /// counts: the loop's own, or its exit guard's after a panic.
    pub(crate) fn exit(
        &self,
        last: impl FnOnce(Vec<(usize, Duration)>) -> (MetricsRegistry, Capture),
    ) {
        let mut q = self.queue();
        if !q.exited {
            (q.snapshot, q.capture) = last(std::mem::take(&mut q.crashes));
            q.exited = true;
            self.answered.notify_all();
        }
    }
}

/// Everything about a node that only its event loop touches, none of it
/// locked: the shards it steps, the admission gate's state, the metrics
/// registry, the front-door counters, the cluster map view, the capture
/// journal and the shutdown flag.
pub(crate) struct Node {
    pub(crate) shards: Vec<Shard>,
    gate: Gate,
    /// Read from the clock once per wake-up: every request admitted in
    /// it enters its simulator at this instant.
    pub(crate) now: SimTime,
    pub(crate) metrics: MetricsRegistry,
    /// Connections accepted, and poll waits returned, since start.
    pub(crate) accepted: u64,
    pub(crate) wakeups: u64,
    /// Largest single connection's unflushed response bytes seen.
    pub(crate) wq_max_bytes: usize,
    /// `Some` iff [`ServerConfig::cluster`] — the node's map view.
    cluster: Option<ClusterState>,
    /// `Some` iff [`ServerConfig::capture`] — the request journal.
    pub(crate) journal: Option<TraceRecorder>,
    /// Set by a SHUTDOWN frame or a shutdown request from the queue.
    pub(crate) shutdown: bool,
}

impl Node {
    /// Builds the shards `cfg` asks for, and in cluster mode a map view
    /// that owns no range yet and ships to no follower yet. A simulator
    /// is not `Send`, so this runs on the loop thread.
    pub(crate) fn new(cfg: &ServerConfig) -> Node {
        Node {
            shards: ShardSpec::partition(cfg.capacity_bytes, cfg.shards)
                .into_iter()
                .map(|spec| Shard::new(spec, shard_config(cfg, spec.index)))
                .collect(),
            gate: Gate {
                buckets: TenantBuckets::new(cfg.rate_per_sec, cfg.burst),
                valid: Vec::new(),
                tenants: Vec::new(),
                per_shard: Vec::new(),
            },
            now: SimTime::ZERO,
            metrics: MetricsRegistry::new(),
            accepted: 0,
            wakeups: 0,
            wq_max_bytes: 0,
            cluster: cfg.cluster.then(|| ClusterState {
                epoch: 0,
                map_text: String::new(),
                status: vec![RangeStatus::NotOwned; cfg.shards],
                shipper: Shipper::new(cfg.shards, cfg.seed),
            }),
            journal: cfg.capture.then(TraceRecorder::new),
            shutdown: false,
        }
    }

    /// The replication shipper, in cluster mode.
    pub(crate) fn shipper(&mut self) -> Option<&mut Shipper> {
        self.cluster.as_mut().map(|cl| &mut cl.shipper)
    }
}

/// The connection a frame came in on: the key its submissions are
/// answered under, and the write queue every inline answer goes onto.
pub(crate) struct Reply<'a> {
    pub(crate) key: u64,
    pub(crate) wq: &'a mut WriteQueue,
}

impl Reply<'_> {
    pub(crate) fn send(&mut self, resp: Response) {
        self.wq.push_response(&resp);
    }
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
}

/// The simulator configuration of shard `index` under `cfg`.
pub(crate) fn shard_config(cfg: &ServerConfig, index: usize) -> SsdConfig {
    let mut sim_cfg = SsdConfig::small(cfg.retry, cfg.pe_cycles);
    sim_cfg.queue_depth = cfg.queue_depth;
    sim_cfg.seed = cfg.seed + index as u64;
    if cfg.learn {
        sim_cfg.learning = rif_ssd::LearningMode::Learned(rif_ssd::LearnerConfig::default_paper());
    }
    if cfg.drift_days_per_sec > 0.0 {
        sim_cfg.drift = rif_ssd::DriftClock {
            days_per_sec: cfg.drift_days_per_sec,
            pe_per_sec: 0.0,
        };
    }
    if cfg.hybrid {
        let mut h = rif_ssd::HybridConfig::slc_qlc();
        // A serving shard destages its SLC cache eagerly (any cached
        // slot starts a drain, like idle-time destaging on real drives).
        // The refresh scan is kept small so drift-driven rewrites stay
        // bounded per tick.
        h.bg.high_watermark = 0.0;
        h.bg.low_watermark = 0.0;
        h.bg.refresh_scan_batch = 8;
        sim_cfg.hybrid = Some(h);
    }
    sim_cfg
}

/// Refuses, as `InvalidInput`, a configuration the loop thread could not
/// build or serve: it would panic there, after `start` had returned.
fn validate(cfg: &ServerConfig) -> io::Result<()> {
    let problem = if cfg.shards == 0 {
        "need at least one shard"
    } else if cfg.inflight_limit == 0 {
        "inflight limit must be positive"
    } else if cfg.queue_depth == 0 {
        "queue depth must be positive"
    } else if cfg.capacity_bytes < cfg.shards as u64 {
        "capacity too small to shard"
    } else if !(cfg.time_scale.is_finite() && cfg.time_scale > 0.0) {
        "time scale must be positive and finite"
    } else if cfg.rate_per_sec > 0.0 && (cfg.burst.is_nan() || cfg.burst < 1.0) {
        "a rate limit needs a burst of at least 1"
    } else {
        return Ok(());
    };
    Err(io::Error::new(io::ErrorKind::InvalidInput, problem))
}

impl Server {
    /// Binds `127.0.0.1:port` (`port = 0` picks a free port) and starts
    /// the event loop, which builds the shards and owns them. A
    /// configuration the node cannot run fails with `InvalidInput`
    /// before anything is bound.
    pub fn start(cfg: ServerConfig, port: u16) -> io::Result<Server> {
        validate(&cfg)?;
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (waker, waker_rx) = Waker::new()?;
        let shared = Arc::new(Shared {
            clock: VirtualClock::start(cfg.time_scale),
            started: Instant::now(),
            control: Control {
                queue: Mutex::default(),
                answered: Condvar::new(),
                waker,
            },
            cfg,
        });
        let loop_shared = Arc::clone(&shared);
        let event_loop = std::thread::Builder::new()
            .name("rif-event-loop".into())
            .spawn(move || crate::event_loop::run(listener, loop_shared, waker_rx))?;

        Ok(Server {
            shared,
            addr,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown was requested, by a SHUTDOWN frame or
    /// [`request_shutdown`](Server::request_shutdown), or the event loop
    /// has exited.
    pub fn shutdown_requested(&self) -> bool {
        let q = self.shared.control.queue();
        q.shutdown || q.exited
    }

    /// Requests shutdown from the owning process (same effect as a
    /// SHUTDOWN frame).
    pub fn request_shutdown(&self) {
        self.shared.control.shut_down();
        self.shared.control.waker.wake();
    }

    /// Blocks until the event loop has exited: after a shutdown request,
    /// once its drain has resolved every admission. A snapshot or capture
    /// taken then is final.
    pub fn wait_for_shutdown(&self) {
        let control = &self.shared.control;
        let mut q = control.queue();
        while !q.exited {
            q = control.answered.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting, drains every shard, joins the event loop and
    /// returns the registry it left: the node's final counters. A
    /// replication backlog is not shipped; it counts as skipped.
    pub fn stop(mut self) -> MetricsRegistry {
        self.request_shutdown();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        std::mem::take(&mut self.shared.control.queue().snapshot)
    }

    /// A snapshot of the metrics registry with the runtime gauges STATS
    /// shows, taken by the event loop (for in-process tests). Once the
    /// loop has exited it is the registry the loop left, returned at
    /// once.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.ask(false, |q| q.snapshot.clone())
    }

    /// The request journal as a normalized [`Capture`] (empty unless
    /// [`ServerConfig::capture`] was set), taken by the event loop. Once
    /// the loop has exited it is the one its exit drain left, at once.
    pub fn capture(&self) -> Capture {
        self.ask(true, |q| q.capture.clone())
    }

    /// Queues a request (for the capture too, if `capture`), waits until
    /// the loop has answered it or exited, and `read`s the answer.
    fn ask<T>(&self, capture: bool, read: impl FnOnce(&Queue) -> T) -> T {
        let control = &self.shared.control;
        let mut q = control.queue();
        q.asked += 1;
        q.capture_asked |= capture;
        let ticket = q.asked;
        control.waker.wake();
        while !q.exited && q.answered < ticket {
            q = control.answered.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        read(&q)
    }

    /// Fault-injection hook: kills shard `index`'s simulator state
    /// mid-load. In-flight requests on that shard resolve to
    /// `ERROR(Internal)`, new submissions bounce with `BUSY(Unavailable)`
    /// for `restart_after`, then the shard restarts with a fresh
    /// simulator. Returns false if the index is out of range or the event
    /// loop has exited.
    pub fn inject_shard_crash(&self, index: usize, restart_after: Duration) -> bool {
        let control = &self.shared.control;
        let mut q = control.queue();
        let queued = index < self.shard_count() && !q.exited;
        if queued {
            q.crashes.push((index, restart_after));
            control.waker.wake();
        }
        queued
    }

    /// Number of shards (for harnesses picking a crash target).
    pub fn shard_count(&self) -> usize {
        self.shared.cfg.shards
    }

    /// Hard-kills the whole node, for cluster fault injection: every
    /// shard crashes (in-flight requests resolve to `ERROR(Internal)`,
    /// nothing hangs), then the node stops serving. The directory
    /// notices via connection failure and rebalances the node's ranges
    /// away.
    pub fn kill(self) {
        for i in 0..self.shard_count() {
            self.inject_shard_crash(i, Duration::from_secs(3600));
        }
        self.stop();
    }
}

/// Answers an over-limit accept: a best-effort `ERROR(ConnLimit)` frame
/// so the peer knows why, then a close.
pub(crate) fn refuse_over_limit(mut stream: TcpStream, m: &mut MetricsRegistry) {
    m.inc("server.conn_limit_rejected", 1);
    stream
        .set_write_timeout(Some(Duration::from_millis(50)))
        .ok();
    let _ = write_frame(
        &mut stream,
        &encode_response(&Response::Error {
            tag: 0,
            code: ErrorCode::ConnLimit,
        }),
    );
}

/// Handles MAP_GET: the map text and epoch of the directory's last push
/// (empty at epoch 0 outside cluster mode).
pub(crate) fn handle_map_get(node: &Node, reply: &mut Reply<'_>, tag: u64) {
    let (epoch, text) = match &node.cluster {
        Some(cl) => (cl.epoch, cl.map_text.clone()),
        None => (0, String::new()),
    };
    reply.send(Response::MapResp { tag, epoch, text });
}

/// Handles MAP_PUSH: installs a newer map's ownership (owned ranges
/// serve, followed ranges apply REPLICATE and serve failover reads) and
/// the replication shipping targets, or acks an equal/older epoch
/// idempotently without touching state (directory retries are harmless).
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_map_push(
    shared: &Shared,
    node: &mut Node,
    reply: &mut Reply<'_>,
    tag: u64,
    epoch: u64,
    capacity_bytes: u64,
    ranges: u32,
    owned: &[u32],
    followed: &[u32],
    replicas: &[(u32, String)],
    map_text: String,
) {
    let shards = shared.cfg.shards;
    let bad = capacity_bytes != shared.cfg.capacity_bytes
        || ranges as usize != shards
        || owned.iter().chain(followed).any(|&r| r as usize >= shards)
        || replicas.iter().any(|&(r, _)| r as usize >= shards);
    let cl = match &mut node.cluster {
        Some(cl) if !bad => cl,
        _ => return bad_request(&mut node.metrics, reply, tag),
    };
    if epoch > cl.epoch {
        cl.epoch = epoch;
        cl.map_text = map_text;
        // A push settles every range: Moving survives only within an
        // epoch, never across one. Owned wins over Following if the
        // directory ever lists a range as both.
        for s in cl.status.iter_mut() {
            *s = RangeStatus::NotOwned;
        }
        for &r in followed {
            cl.status[r as usize] = RangeStatus::Following;
        }
        for &r in owned {
            cl.status[r as usize] = RangeStatus::Owned;
        }
        cl.shipper.update_targets(epoch, replicas);
    }
    node.metrics.inc("server.map_pushes", 1);
    reply.send(Response::MapResp {
        tag,
        epoch: cl.epoch,
        text: cl.map_text.clone(),
    });
}

/// Handles a primary's REPLICATE shipment on a follower. Its own gate
/// asks one question — may a primary at `primary_epoch` write `range`
/// here? — and the rest is the client path's: the shutdown and length
/// refusals, the room check and the submission. The shard's `Done` becomes
/// `REPL_ACK(range, seq)` via [`ReplyTo::shipment`]. Shipments skip the
/// rate limiter and are never journaled: they mirror a write the primary
/// already admitted, charged and journaled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_replicate(
    shared: &Shared,
    node: &mut Node,
    reply: &mut Reply<'_>,
    tag: u64,
    range: u32,
    primary_epoch: u64,
    seq: u64,
    offset: u64,
    bytes: u32,
) {
    if refuse_shutdown(node.shutdown, reply, [tag]) {
        return;
    }
    let m = &mut node.metrics;
    let cl = match &node.cluster {
        Some(cl) if (range as usize) < shared.cfg.shards => cl,
        _ => return bad_request(m, reply, tag),
    };
    if refuse_bad_length(m, reply, tag, bytes) {
        return;
    }
    let (wrapped, idx) = route(shared, offset);
    if idx != range as usize {
        return bad_request(m, reply, tag);
    }
    let (status, epoch) = (cl.status[idx], cl.epoch);
    // A stale primary (shipping under an epoch this node has already
    // moved past) is told to refetch; a primary *ahead* of us is fine —
    // its directory push is merely still in flight to this node.
    let stale = primary_epoch < epoch;
    match status {
        RangeStatus::Following | RangeStatus::Owned if !stale => {}
        RangeStatus::Moving if !stale => {
            return refuse_busy(m, reply, [tag], "server.busy.moving", BusyReason::Moving);
        }
        _ => {
            m.inc("server.wrong_shard", 1);
            return reply.send(Response::WrongShard { tag, epoch });
        }
    }
    let shard = &mut node.shards[idx];
    if !has_room(shared, shard, 1) {
        return refuse_busy(m, reply, [tag], "server.busy.queue", BusyReason::Queue);
    }
    m.inc("server.repl.applied", 1);
    let shipment = Submission {
        tag,
        op: IoOp::Write,
        offset: wrapped - shard.spec().base_offset,
        bytes,
        reply: ReplyTo {
            key: reply.key,
            shipment: Some((range, seq)),
        },
    };
    shard.submit(m, &mut node.journal, node.now, shipment, &mut |_, resp| {
        reply.send(resp)
    });
}

/// Handles MIGRATE_OUT's first half: checks the range and seals it, so
/// that from the next frame on its arrivals bounce with `BUSY(moving)`.
/// Returns false, having answered, when there is nothing to seal; the
/// loop then drains the shard and answers with its learner snapshot.
pub(crate) fn seal_for_migration(
    shared: &Shared,
    node: &mut Node,
    reply: &mut Reply<'_>,
    tag: u64,
    range: u32,
) -> bool {
    let Some(cl) = node
        .cluster
        .as_mut()
        .filter(|_| (range as usize) < shared.cfg.shards)
    else {
        bad_request(&mut node.metrics, reply, tag);
        return false;
    };
    cl.status[range as usize] = RangeStatus::Moving;
    node.metrics.inc("server.migrations.out", 1);
    true
}

/// Handles MIGRATE_IN: seeds the range's learner from the transferred
/// snapshot and acks. Ownership itself arrives with the directory's
/// subsequent MAP_PUSH, never here.
pub(crate) fn handle_migrate_in(
    shared: &Shared,
    node: &mut Node,
    reply: &mut Reply<'_>,
    tag: u64,
    range: u32,
    state: &str,
) {
    if node.cluster.is_none() || range as usize >= shared.cfg.shards {
        bad_request(&mut node.metrics, reply, tag);
        return;
    }
    node.metrics.inc("server.migrations.in", 1);
    node.shards[range as usize].adopt(state);
    reply.send(Response::Migrated {
        tag,
        range,
        state: String::new(),
    });
}

/// Answers a request this node cannot act on with `ERROR(BadRequest)`,
/// charged to `server.protocol_errors`.
pub(crate) fn bad_request(m: &mut MetricsRegistry, reply: &mut Reply<'_>, tag: u64) {
    m.inc("server.protocol_errors", 1);
    reply.send(Response::Error {
        tag,
        code: ErrorCode::BadRequest,
    });
}

/// Answers every tag `BUSY(reason)`, charging `counter` once per tag.
pub(crate) fn refuse_busy(
    m: &mut MetricsRegistry,
    reply: &mut Reply<'_>,
    tags: impl IntoIterator<Item = u64>,
    counter: &str,
    reason: BusyReason,
) {
    let mut n = 0;
    for tag in tags {
        reply.send(Response::Busy { tag, reason });
        n += 1;
    }
    m.inc(counter, n);
}

/// Once shutdown began, answers every tag `ERROR(ShuttingDown)` and
/// returns true.
fn refuse_shutdown(
    shutdown: bool,
    reply: &mut Reply<'_>,
    tags: impl IntoIterator<Item = u64>,
) -> bool {
    if !shutdown {
        return false;
    }
    for tag in tags {
        reply.send(Response::Error {
            tag,
            code: ErrorCode::ShuttingDown,
        });
    }
    true
}

/// Answers a transfer no shard can take — zero bytes or more than
/// [`MAX_IO_BYTES`] — with `ERROR(BadLength)` and returns true.
fn refuse_bad_length(m: &mut MetricsRegistry, reply: &mut Reply<'_>, tag: u64, bytes: u32) -> bool {
    if bytes > 0 && bytes <= MAX_IO_BYTES {
        return false;
    }
    m.inc("server.protocol_errors", 1);
    reply.send(Response::Error {
        tag,
        code: ErrorCode::BadLength,
    });
    true
}

/// Wraps `offset` into capacity and picks the shard that owns it:
/// `(wrapped, shard)`.
fn route(shared: &Shared, offset: u64) -> (u64, usize) {
    let wrapped = offset % shared.cfg.capacity_bytes;
    let idx = ShardSpec::route(shared.cfg.capacity_bytes, shared.cfg.shards, wrapped);
    (wrapped, idx)
}

/// Whether `shard` can take `k` more requests within `inflight_limit`:
/// the one slot check. Nothing runs on the loop between it and the
/// submissions that fill the slots.
fn has_room(shared: &Shared, shard: &Shard, k: usize) -> bool {
    shard.inflight() + k <= shared.cfg.inflight_limit
}

/// Cluster admission gate: answers `true` when this node currently owns
/// shard `idx`'s range (or when not in cluster mode). A non-owned range
/// refuses with `WRONG_SHARD(epoch)` so the client refetches the map; a
/// migrating range refuses with `BUSY(moving)`. A *followed* range
/// admits reads (the router's failover path reads from replicas) but
/// bounces writes — only the primary may originate a write, or
/// exactly-once and the replication stream fall apart.
fn cluster_admits(
    cluster: Option<&ClusterState>,
    m: &mut MetricsRegistry,
    reply: &mut Reply<'_>,
    tag: u64,
    idx: usize,
    op: IoOp,
) -> bool {
    let Some(cl) = cluster else {
        return true;
    };
    let epoch = cl.epoch;
    match cl.status[idx] {
        RangeStatus::Owned => true,
        RangeStatus::Following if op == IoOp::Read => {
            m.inc("server.repl.follower_reads", 1);
            true
        }
        RangeStatus::Moving => {
            refuse_busy(m, reply, [tag], "server.busy.moving", BusyReason::Moving);
            false
        }
        RangeStatus::NotOwned | RangeStatus::Following => {
            m.inc("server.wrong_shard", 1);
            reply.send(Response::WrongShard { tag, epoch });
            false
        }
    }
}

/// The admission gate's state: the tenant buckets, plus three tables
/// reused from call to call, so that admitting a group allocates
/// nothing.
struct Gate {
    buckets: TenantBuckets,
    /// Each entry past the per-entry checks, its offset wrapped into
    /// capacity, with its shard.
    valid: Vec<(BatchEntry, usize)>,
    /// `(tenant, entries)`, in first-seen order.
    tenants: Vec<(u32, usize)>,
    /// `(shard, entries)`, in first-seen order.
    per_shard: Vec<(usize, usize)>,
}

/// Counts one more entry for `key` in a first-seen-order table (a group
/// rarely spans many tenants or shards, so a small vec beats a map).
fn tally<K: PartialEq>(table: &mut Vec<(K, usize)>, key: K) {
    match table.iter_mut().find(|(k, _)| *k == key) {
        Some((_, n)) => *n += 1,
        None => table.push((key, 1)),
    }
}

/// The admission gate for READ, WRITE and BATCH: `entries` is one group,
/// a single frame being a group of one, so a BATCH of one is admitted
/// exactly as the frame it wraps. Every check that spans the group is
/// all-or-nothing:
///
/// - each tenant's token bucket is charged once for all of its entries
///   (`admit_n`); if any tenant comes up short, tenants already charged
///   are refunded and every entry answers `BUSY(rate_limit)`;
/// - every shard the group touches needs room for its share under the
///   in-flight cap; if any has not, every entry answers `BUSY(queue)`
///   (rate-limit tokens stay spent, exactly as a refused single
///   request's token does);
/// - admitted entries enter their shards in order, stamped
///   [`Node::now`].
///
/// An entry with a bad length or for a range this node may not serve
/// is answered alone and does not count against the group: it could
/// never be admitted, so it cannot hold the rest hostage.
pub(crate) fn admit(
    shared: &Shared,
    node: &mut Node,
    reply: &mut Reply<'_>,
    entries: impl IntoIterator<Item = BatchEntry>,
) {
    let mut entries = entries.into_iter();
    if refuse_shutdown(node.shutdown, reply, entries.by_ref().map(|e| e.tag)) {
        return;
    }
    let Node {
        shards,
        gate,
        now,
        metrics,
        cluster,
        journal,
        ..
    } = node;
    let Gate {
        buckets,
        valid,
        tenants,
        per_shard,
    } = gate;
    valid.clear();
    tenants.clear();
    per_shard.clear();
    let (mut reads, mut writes) = (0, 0);
    for mut e in entries {
        if refuse_bad_length(metrics, reply, e.tag, e.bytes) {
            continue;
        }
        let (wrapped, idx) = route(shared, e.offset);
        if !cluster_admits(cluster.as_ref(), metrics, reply, e.tag, idx, e.op) {
            continue;
        }
        match e.op {
            IoOp::Read => reads += 1,
            IoOp::Write => writes += 1,
        }
        e.offset = wrapped;
        if !buckets.unlimited() {
            tally(tenants, e.tenant);
        }
        tally(per_shard, idx);
        valid.push((e, idx));
    }
    if valid.is_empty() {
        return;
    }
    if reads > 0 {
        metrics.inc("server.requests.read", reads);
    }
    if writes > 0 {
        metrics.inc("server.requests.write", writes);
    }
    let tags = || valid.iter().map(|(e, _)| e.tag);

    // Rate limit first (no tenant is tallied while limiting is off), so
    // a refused group consumes no queue budget. `position` stops at the
    // first short tenant; the ones before it were charged and are
    // refunded at the same `now`, so exactly.
    let wall_now = shared.started.elapsed().as_secs_f64();
    if let Some(short) = tenants
        .iter()
        .position(|&(t, n)| !buckets.admit_n(t, wall_now, n as u32))
    {
        for &(t, n) in &tenants[..short] {
            buckets.refund(t, n as u32);
        }
        refuse_busy(
            metrics,
            reply,
            tags(),
            "server.busy.ratelimit",
            BusyReason::RateLimit,
        );
        return;
    }
    if !per_shard
        .iter()
        .all(|&(idx, k)| has_room(shared, &shards[idx], k))
    {
        refuse_busy(
            metrics,
            reply,
            tags(),
            "server.busy.queue",
            BusyReason::Queue,
        );
        return;
    }

    // Admitted. Journal every entry with its wrapped offset (a replay
    // through a same-shaped server routes it identically) before its
    // shard answers it.
    if let Some(j) = journal {
        for (e, idx) in valid.iter() {
            let shard = *idx as u32;
            j.admit(e.tag, e.retry_of, e.op, e.offset, e.bytes, e.tenant, shard);
        }
    }
    for &(e, idx) in valid.iter() {
        let shard = &mut shards[idx];
        let s = Submission {
            tag: e.tag,
            op: e.op,
            offset: e.offset - shard.spec().base_offset,
            bytes: e.bytes,
            reply: ReplyTo {
                key: reply.key,
                shipment: None,
            },
        };
        let taken = shard.submit(metrics, journal, *now, s, &mut |_, resp| reply.send(resp));
        // Only writes a shard took are offered to the replication
        // shipper (a no-op unless this node is the range's primary and
        // has followers).
        if let (true, IoOp::Write, Some(cl)) = (taken, e.op, cluster.as_mut()) {
            cl.shipper.offer(idx as u32, e.tenant, e.offset, e.bytes);
        }
    }
}

/// The loop's registry with shard windows, front-door figures
/// (`conns_open` and `queued_bytes` counted off the connection slab),
/// clocks and replication folded in: what STATS renders and
/// [`Server::metrics_snapshot`] returns.
pub(crate) fn fold_runtime_gauges(
    shared: &Shared,
    node: &Node,
    conns_open: usize,
    queued_bytes: usize,
) -> MetricsRegistry {
    let mut m = node.metrics.clone();
    for (i, shard) in node.shards.iter().enumerate() {
        let key = format!("server.inflight.shard{i}");
        m.set_gauge(&key, shard.inflight() as f64);
    }
    m.set_gauge("server.connections_open", conns_open as f64);
    m.inc("server.connections_accepted", node.accepted);
    m.inc("server.epoll_wakeups", node.wakeups);
    m.set_gauge("server.write_queue.total_bytes", queued_bytes as f64);
    m.set_gauge("server.write_queue.max_bytes", node.wq_max_bytes as f64);
    m.set_gauge("server.uptime_secs", shared.started.elapsed().as_secs_f64());
    m.set_gauge("server.virtual_now_us", shared.clock.now().as_us());
    if let Some(cl) = &node.cluster {
        cl.shipper.fold_into(&mut m);
    }
    m
}
