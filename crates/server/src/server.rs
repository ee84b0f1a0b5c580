//! The loopback TCP storage service.
//!
//! One readiness-driven thread ([`crate::event_loop`]) owns the listener
//! and every connection socket: it decodes frames, runs the admission
//! control below, and routes admitted I/O to the shards. Shard workers
//! answer completions onto the loop's completion queue, so responses
//! from different shards interleave freely and may be out of submission
//! order — the tag is the correlation key.
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
//! 4. **Queue backpressure** — each shard exposes an atomic in-flight
//!    count; the group reserves its slots on every shard it touches or
//!    none, and a full window bounces every entry with `BUSY(queue)`
//!    instead of queueing unboundedly.
//!
//! A REPLICATE shipment asks its own ownership question
//! (`handle_replicate`) and then takes the same shutdown, length,
//! reservation and dispatch steps.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rif_events::trace::MetricsRegistry;
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::IoOp;

use crate::bucket::TenantBuckets;
use crate::pacing::VirtualClock;
use crate::poller::Waker;
use crate::protocol::{encode_response, write_frame, BatchEntry, BusyReason, ErrorCode, Response};
use crate::recorder::TraceRecorder;
use crate::replicate::Replicator;
use crate::shard::{spawn_shard, ReplyTo, ShardHandle, ShardMsg, ShardSpec, ShardTx, Submission};

/// Largest single transfer the service accepts: 1 MiB keeps one request
/// from monopolizing a shard's event queue.
pub const MAX_IO_BYTES: u32 = 1 << 20;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shard workers (simulators).
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
    /// Journal every admitted request in the [`TraceRecorder`] for
    /// capture → replay.
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
pub(crate) struct ClusterState {
    pub(crate) epoch: u64,
    pub(crate) map_text: String,
    pub(crate) status: Vec<RangeStatus>,
}

/// Front-door saturation counters, surfaced in STATS. Plain atomics
/// (not the metrics registry) because the event loop bumps some of them
/// on every wakeup.
#[derive(Debug, Default)]
pub(crate) struct FrontDoor {
    /// Currently open connections (gauge).
    pub(crate) connections_open: AtomicUsize,
    /// Connections accepted since start (counter).
    pub(crate) connections_accepted: AtomicU64,
    /// Accepts refused by the connection limit (counter).
    pub(crate) conn_limit_rejected: AtomicU64,
    /// Times the event loop's poll wait returned (counter).
    pub(crate) epoll_wakeups: AtomicU64,
    /// Total unflushed response bytes across all connections (gauge).
    pub(crate) write_queue_bytes: AtomicUsize,
    /// Largest single connection's unflushed response bytes (gauge).
    pub(crate) write_queue_max_bytes: AtomicUsize,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) clock: VirtualClock,
    pub(crate) metrics: Arc<Mutex<MetricsRegistry>>,
    gate: Mutex<Gate>,
    pub(crate) shards: Vec<ShardTarget>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
    pub(crate) recorder: Arc<TraceRecorder>,
    pub(crate) front_door: FrontDoor,
    /// `Some` iff [`ServerConfig::cluster`] — the node's map view.
    pub(crate) cluster: Option<Mutex<ClusterState>>,
    /// `Some` iff [`ServerConfig::cluster`] — the primary-side
    /// replication shipper (DESIGN §15).
    pub(crate) repl: Option<Arc<Replicator>>,
}

impl Shared {
    /// Locks the metrics registry, recovering from poisoning: a panic in
    /// some other holder (e.g. an injected worker fault) must not wedge
    /// STATS or admission for everyone else. Counters are monotonic
    /// u64s, so a partially-applied update cannot corrupt the registry.
    pub(crate) fn metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks the admission gate with the same poisoned-lock recovery.
    fn gate(&self) -> std::sync::MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks the cluster state (must only be called in cluster mode),
    /// with the same poisoned-lock recovery.
    pub(crate) fn cluster_state(&self) -> std::sync::MutexGuard<'_, ClusterState> {
        self.cluster
            .as_ref()
            .expect("cluster state accessed outside cluster mode")
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

/// The parts of a shard a connection needs: inbox + admission counter.
pub(crate) struct ShardTarget {
    pub(crate) spec: ShardSpec,
    pub(crate) tx: ShardTx,
    pub(crate) inflight: Arc<AtomicUsize>,
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    shard_handles: Vec<ShardHandle>,
    /// Wakes the event loop out of a blocking poll wait on shutdown.
    loop_waker: Waker,
}

impl Server {
    /// Binds `127.0.0.1:port` (`port = 0` picks a free port) and starts
    /// the shard workers and the event loop.
    pub fn start(cfg: ServerConfig, port: u16) -> io::Result<Server> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.inflight_limit > 0, "inflight limit must be positive");
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let clock = VirtualClock::start(cfg.time_scale);
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        let recorder = Arc::new(TraceRecorder::new(cfg.capture));
        let specs = ShardSpec::partition(cfg.capacity_bytes, cfg.shards);
        let mut shard_handles = Vec::with_capacity(cfg.shards);
        let mut targets = Vec::with_capacity(cfg.shards);
        for spec in specs {
            let mut sim_cfg = SsdConfig::small(cfg.retry, cfg.pe_cycles);
            sim_cfg.queue_depth = cfg.queue_depth;
            sim_cfg.seed = cfg.seed + spec.index as u64;
            if cfg.learn {
                sim_cfg.learning =
                    rif_ssd::LearningMode::Learned(rif_ssd::LearnerConfig::default_paper());
            }
            if cfg.drift_days_per_sec > 0.0 {
                sim_cfg.drift = rif_ssd::DriftClock {
                    days_per_sec: cfg.drift_days_per_sec,
                    pe_per_sec: 0.0,
                };
            }
            if cfg.hybrid {
                let mut h = rif_ssd::HybridConfig::slc_qlc();
                // A serving shard destages its SLC cache eagerly (any
                // cached slot starts a drain, like idle-time destaging on
                // real drives) and unconditionally: the reliability gate
                // evaluates worst-case QLC residency, which would defer
                // every migration at high drift rates and leave the cache
                // to fill until forced eviction. The refresh scan is kept
                // small so drift-driven rewrites stay bounded per tick.
                h.migration = rif_ssd::MigrationPolicy::Fifo;
                h.bg.high_watermark = 0.0;
                h.bg.low_watermark = 0.0;
                h.bg.refresh_scan_batch = 8;
                sim_cfg.hybrid = Some(h);
            }
            let handle = spawn_shard(
                spec,
                sim_cfg,
                clock.clone(),
                Arc::clone(&metrics),
                Arc::clone(&recorder),
            )?;
            targets.push(ShardTarget {
                spec,
                tx: handle.tx.clone(),
                inflight: Arc::clone(&handle.inflight),
            });
            shard_handles.push(handle);
        }

        let cluster = cfg.cluster.then(|| {
            Mutex::new(ClusterState {
                epoch: 0,
                map_text: String::new(),
                status: vec![RangeStatus::NotOwned; cfg.shards],
            })
        });
        let repl = if cfg.cluster {
            Some(Replicator::start(cfg.shards)?)
        } else {
            None
        };
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                buckets: TenantBuckets::new(cfg.rate_per_sec, cfg.burst),
                valid: Vec::new(),
                tenants: Vec::new(),
                shards: Vec::new(),
            }),
            cfg,
            clock,
            metrics,
            shards: targets,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            recorder,
            front_door: FrontDoor::default(),
            cluster,
            repl,
        });

        let accept_shared = Arc::clone(&shared);
        let (waker, waker_rx) = Waker::new()?;
        let loop_waker = waker.clone();
        let acceptor = std::thread::Builder::new()
            .name("rif-event-loop".into())
            .spawn(move || crate::event_loop::run(listener, accept_shared, waker, waker_rx))?;

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            shard_handles,
            loop_waker,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a SHUTDOWN frame has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown from the owning process (same effect as a
    /// SHUTDOWN frame).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.loop_waker.wake();
    }

    /// Blocks until shutdown is requested, polling every few ms.
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops accepting, drains every shard, and joins all service
    /// threads.
    pub fn stop(mut self) {
        self.request_shutdown();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(repl) = &self.shared.repl {
            repl.stop();
        }
        for h in self.shard_handles.drain(..) {
            h.stop();
        }
    }

    /// A snapshot of the metrics registry (for in-process tests).
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut m = self.shared.metrics().clone();
        fold_runtime_gauges(&self.shared, &mut m);
        m
    }

    /// Fault-injection hook: kills shard `index`'s worker state mid-load.
    /// In-flight requests on that shard resolve to `ERROR(Internal)`, new
    /// submissions bounce with `BUSY(Unavailable)` for `restart_after`,
    /// then the worker restarts with a fresh simulator. Returns false if
    /// the index is out of range or the worker is already gone.
    pub fn inject_shard_crash(&self, index: usize, restart_after: Duration) -> bool {
        match self.shared.shards.get(index) {
            Some(target) => target.tx.send(ShardMsg::Crash { restart_after }).is_ok(),
            None => false,
        }
    }

    /// Number of shard workers (for harnesses picking a crash target).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Hard-kills the whole node, for cluster fault injection: every
    /// shard worker crashes (in-flight requests resolve to
    /// `ERROR(Internal)`, nothing hangs), then the node stops serving.
    /// The directory notices via connection failure and rebalances the
    /// node's ranges away.
    pub fn kill(self) {
        for i in 0..self.shard_count() {
            self.inject_shard_crash(i, Duration::from_secs(3600));
        }
        self.stop();
    }

    /// The request journal (empty unless [`ServerConfig::capture`] was
    /// set). Clone the `Arc` before `stop()` to snapshot the capture
    /// after drain.
    pub fn recorder(&self) -> Arc<TraceRecorder> {
        Arc::clone(&self.shared.recorder)
    }
}

/// Answers an over-limit accept: a best-effort `ERROR(ConnLimit)` frame
/// so the peer knows why, then a close.
pub(crate) fn refuse_over_limit(mut stream: TcpStream, shared: &Shared) {
    shared
        .front_door
        .conn_limit_rejected
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics().inc("server.conn_limit_rejected", 1);
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

/// True when accepting one more connection would exceed the limit.
pub(crate) fn at_conn_limit(shared: &Shared) -> bool {
    let limit = shared.cfg.max_connections;
    limit > 0 && shared.front_door.connections_open.load(Ordering::Acquire) >= limit
}

/// Handles MAP_PUSH: installs a newer map's ownership (owned ranges
/// serve, followed ranges apply REPLICATE and serve failover reads) and
/// the replication shipping targets, or acks an equal/older epoch
/// idempotently without touching state (directory retries are harmless).
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_map_push(
    shared: &Shared,
    reply: &ReplyTo,
    tag: u64,
    epoch: u64,
    capacity_bytes: u64,
    ranges: u32,
    owned: &[u32],
    followed: &[u32],
    replicas: &[(u32, String)],
    map_text: String,
) {
    let bad = shared.cluster.is_none()
        || capacity_bytes != shared.cfg.capacity_bytes
        || ranges as usize != shared.cfg.shards
        || owned.iter().any(|&r| r as usize >= shared.cfg.shards)
        || followed.iter().any(|&r| r as usize >= shared.cfg.shards)
        || replicas
            .iter()
            .any(|&(r, _)| r as usize >= shared.cfg.shards);
    if bad {
        bad_request(shared, reply, tag);
        return;
    }
    let (cur_epoch, text) = {
        let mut cl = shared.cluster_state();
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
            if let Some(repl) = &shared.repl {
                repl.update_targets(epoch, replicas);
            }
        }
        (cl.epoch, cl.map_text.clone())
    };
    shared.metrics().inc("server.map_pushes", 1);
    reply.send(Response::MapResp {
        tag,
        epoch: cur_epoch,
        text,
    });
}

/// Handles a primary's REPLICATE shipment on a follower. Its own gate
/// asks one question — may a primary at `epoch` write `range` here? —
/// and the rest is the client path's: the shutdown and length refusals,
/// the slot reservation and the dispatch. The shard's `Done` becomes
/// `REPL_ACK(range, seq)` via the [`ReplyTo::Replication`] wrapper.
/// Shipments skip the rate limiter and are never journaled: they mirror
/// a write the primary already admitted, charged and journaled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_replicate(
    shared: &Shared,
    reply: &ReplyTo,
    tag: u64,
    range: u32,
    epoch: u64,
    seq: u64,
    offset: u64,
    bytes: u32,
) {
    if refuse_shutdown(shared, reply, [tag]) {
        return;
    }
    if shared.cluster.is_none() || range as usize >= shared.cfg.shards {
        bad_request(shared, reply, tag);
        return;
    }
    if refuse_bad_length(shared, reply, tag, bytes) {
        return;
    }
    let (wrapped, idx) = route(shared, offset);
    if idx != range as usize {
        bad_request(shared, reply, tag);
        return;
    }
    let (status, cur_epoch) = {
        let cl = shared.cluster_state();
        (cl.status[idx], cl.epoch)
    };
    // A stale primary (shipping under an epoch this node has already
    // moved past) is told to refetch; a primary *ahead* of us is fine —
    // its directory push is merely still in flight to this node.
    let stale = epoch < cur_epoch;
    match status {
        RangeStatus::Following | RangeStatus::Owned if !stale => {}
        RangeStatus::Moving if !stale => {
            refuse_busy(
                shared,
                reply,
                [tag],
                "server.busy.moving",
                BusyReason::Moving,
            );
            return;
        }
        _ => {
            shared.metrics().inc("server.wrong_shard", 1);
            reply.send(Response::WrongShard {
                tag,
                epoch: cur_epoch,
            });
            return;
        }
    }
    if !reserve(shared, idx, 1) {
        refuse_busy(shared, reply, [tag], "server.busy.queue", BusyReason::Queue);
        return;
    }
    shared.metrics().inc("server.repl.applied", 1);
    let reply = ReplyTo::Replication {
        inner: Box::new(reply.clone()),
        range,
        seq,
    };
    let shipment = Submission {
        tag,
        op: IoOp::Write,
        offset: wrapped - shared.shards[idx].spec.base_offset,
        bytes,
        reply,
    };
    dispatch(shared, idx, shipment, Vec::new());
}

/// Handles MIGRATE_OUT on a range the event loop has already checked
/// and sealed (new arrivals bounce with `BUSY(moving)` from then on):
/// drains the shard and replies with the learner snapshot. Blocks until
/// the drain completes, so the loop runs it on an ephemeral thread.
pub(crate) fn handle_migrate_out(shared: &Shared, reply: &ReplyTo, tag: u64, range: u32) {
    shared.metrics().inc("server.migrations.out", 1);
    let (state_tx, state_rx) = mpsc::channel();
    let sent = shared.shards[range as usize]
        .tx
        .send(ShardMsg::Yield(state_tx));
    let state = match sent {
        Ok(()) => state_rx.recv().unwrap_or_default(),
        // Worker gone (stopping node): hand off without a snapshot —
        // the learner state is a performance hint, the seal is what
        // correctness needs.
        Err(_) => String::new(),
    };
    reply.send(Response::Migrated { tag, range, state });
}

/// Handles MIGRATE_IN: seeds the range's learner from the transferred
/// snapshot and acks. Ownership itself arrives with the directory's
/// subsequent MAP_PUSH, never here.
pub(crate) fn handle_migrate_in(
    shared: &Shared,
    reply: &ReplyTo,
    tag: u64,
    range: u32,
    state: String,
) {
    if shared.cluster.is_none() || range as usize >= shared.cfg.shards {
        bad_request(shared, reply, tag);
        return;
    }
    shared.metrics().inc("server.migrations.in", 1);
    let (ack_tx, ack_rx) = mpsc::channel();
    let sent = shared.shards[range as usize]
        .tx
        .send(ShardMsg::Adopt { state, ack: ack_tx });
    if sent.is_ok() {
        let _ = ack_rx.recv();
    }
    reply.send(Response::Migrated {
        tag,
        range,
        state: String::new(),
    });
}

/// Answers a request this node cannot act on with `ERROR(BadRequest)`,
/// charged to `server.protocol_errors`.
pub(crate) fn bad_request(shared: &Shared, reply: &ReplyTo, tag: u64) {
    shared.metrics().inc("server.protocol_errors", 1);
    reply.send(Response::Error {
        tag,
        code: ErrorCode::BadRequest,
    });
}

/// Answers every tag `BUSY(reason)`, charging `counter` once per tag.
pub(crate) fn refuse_busy(
    shared: &Shared,
    reply: &ReplyTo,
    tags: impl IntoIterator<Item = u64>,
    counter: &str,
    reason: BusyReason,
) {
    let mut n = 0;
    for tag in tags {
        reply.send(Response::Busy { tag, reason });
        n += 1;
    }
    shared.metrics().inc(counter, n);
}

/// Once shutdown began, answers every tag `ERROR(ShuttingDown)` and
/// returns true.
fn refuse_shutdown(shared: &Shared, reply: &ReplyTo, tags: impl IntoIterator<Item = u64>) -> bool {
    if !shared.shutdown.load(Ordering::Acquire) {
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
fn refuse_bad_length(shared: &Shared, reply: &ReplyTo, tag: u64, bytes: u32) -> bool {
    if bytes > 0 && bytes <= MAX_IO_BYTES {
        return false;
    }
    shared.metrics().inc("server.protocol_errors", 1);
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

/// Reserves `k` in-flight slots on shard `idx` as one atomic step, or
/// none when they would overrun `inflight_limit`.
fn reserve(shared: &Shared, idx: usize, k: usize) -> bool {
    shared.shards[idx]
        .inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n + k <= shared.cfg.inflight_limit).then_some(n + k)
        })
        .is_ok()
}

/// The one submission to a shard: hands shard `idx` a group (`first`,
/// then `rest`) whose slots are reserved, and returns true when the
/// worker took it. A worker that is gone never saw the group: its slots
/// are released, its journaled admissions retracted, and every entry
/// answered — `ERROR(ShuttingDown)` during shutdown, else
/// `BUSY(unavailable)`, which is retryable since nothing was admitted.
fn dispatch(shared: &Shared, idx: usize, first: Submission, rest: Vec<Submission>) -> bool {
    let target = &shared.shards[idx];
    let Err((first, rest)) = target.tx.submit(first, rest) else {
        return true;
    };
    let k = 1 + rest.len();
    target.inflight.fetch_sub(k, Ordering::AcqRel);
    let shutting = shared.shutdown.load(Ordering::Acquire);
    if !shutting {
        shared.metrics().inc("server.busy.unavailable", k as u64);
    }
    for s in std::iter::once(first).chain(rest) {
        if s.reply.journaled() {
            shared.recorder.reject(s.tag);
        }
        s.reply.send(if shutting {
            Response::Error {
                tag: s.tag,
                code: ErrorCode::ShuttingDown,
            }
        } else {
            Response::Busy {
                tag: s.tag,
                reason: BusyReason::Unavailable,
            }
        });
    }
    false
}

/// Cluster admission gate: answers `true` when this node currently owns
/// shard `idx`'s range (or when not in cluster mode). A non-owned range
/// refuses with `WRONG_SHARD(epoch)` so the client refetches the map; a
/// migrating range refuses with `BUSY(moving)`. A *followed* range
/// admits reads (the router's failover path reads from replicas) but
/// bounces writes — only the primary may originate a write, or
/// exactly-once and the replication stream fall apart.
fn cluster_admits(shared: &Shared, reply: &ReplyTo, tag: u64, idx: usize, op: IoOp) -> bool {
    if shared.cluster.is_none() {
        return true;
    }
    let (status, epoch) = {
        let cl = shared.cluster_state();
        (cl.status[idx], cl.epoch)
    };
    match status {
        RangeStatus::Owned => true,
        RangeStatus::Following if op == IoOp::Read => {
            shared.metrics().inc("server.repl.follower_reads", 1);
            true
        }
        RangeStatus::Moving => {
            refuse_busy(
                shared,
                reply,
                [tag],
                "server.busy.moving",
                BusyReason::Moving,
            );
            false
        }
        RangeStatus::NotOwned | RangeStatus::Following => {
            shared.metrics().inc("server.wrong_shard", 1);
            reply.send(Response::WrongShard { tag, epoch });
            false
        }
    }
}

/// The admission gate's state: the tenant buckets, plus three tables
/// reused from call to call, so that admitting a group allocates only
/// the `Vec` its shard message carries past the first entry — nothing
/// for a group of one. Only the event loop admits, so the lock is never
/// contended.
pub(crate) struct Gate {
    buckets: TenantBuckets,
    /// Each entry past the per-entry checks, its offset wrapped into
    /// capacity, with its shard.
    valid: Vec<(BatchEntry, usize)>,
    /// `(tenant, entries)`, in first-seen order.
    tenants: Vec<(u32, usize)>,
    /// `(shard, entries)`, in first-seen order.
    shards: Vec<(usize, usize)>,
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
/// - the in-flight cap is reserved per shard for the group's share; if
///   any shard cannot take its share, the reservations made so far are
///   released and every entry answers `BUSY(queue)` (rate-limit tokens
///   stay spent, exactly as a refused single request's token does);
/// - admitted entries go to each shard as one [`ShardTx::submit`].
///
/// An entry with a bad length or for a range this node may not serve
/// is answered alone and does not count against the group: it could
/// never be admitted, so it cannot hold the rest hostage.
pub(crate) fn admit(
    shared: &Shared,
    reply: &ReplyTo,
    entries: impl IntoIterator<Item = BatchEntry>,
) {
    let mut entries = entries.into_iter();
    if refuse_shutdown(shared, reply, entries.by_ref().map(|e| e.tag)) {
        return;
    }
    let mut gate = shared.gate();
    let Gate {
        buckets,
        valid,
        tenants,
        shards,
    } = &mut *gate;
    valid.clear();
    tenants.clear();
    shards.clear();
    let (mut reads, mut writes) = (0, 0);
    for mut e in entries {
        if refuse_bad_length(shared, reply, e.tag, e.bytes) {
            continue;
        }
        let (wrapped, idx) = route(shared, e.offset);
        if !cluster_admits(shared, reply, e.tag, idx, e.op) {
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
        tally(shards, idx);
        valid.push((e, idx));
    }
    if valid.is_empty() {
        return;
    }
    {
        let mut m = shared.metrics();
        if reads > 0 {
            m.inc("server.requests.read", reads);
        }
        if writes > 0 {
            m.inc("server.requests.write", writes);
        }
    }
    let tags = || valid.iter().map(|(e, _)| e.tag);

    // Rate limit first (no tenant is tallied while limiting is off), so
    // a refused group consumes no queue budget. `position` stops at the
    // first short tenant; the ones before it were charged and are
    // refunded at the same `now`, so exactly.
    let now = shared.started.elapsed().as_secs_f64();
    if let Some(short) = tenants
        .iter()
        .position(|&(t, n)| !buckets.admit_n(t, now, n as u32))
    {
        for &(t, n) in &tenants[..short] {
            buckets.refund(t, n as u32);
        }
        refuse_busy(
            shared,
            reply,
            tags(),
            "server.busy.ratelimit",
            BusyReason::RateLimit,
        );
        return;
    }
    if let Some(short) = shards.iter().position(|&(idx, k)| !reserve(shared, idx, k)) {
        for &(idx, k) in &shards[..short] {
            shared.shards[idx].inflight.fetch_sub(k, Ordering::AcqRel);
        }
        refuse_busy(
            shared,
            reply,
            tags(),
            "server.busy.queue",
            BusyReason::Queue,
        );
        return;
    }

    // Admitted. Journal every entry with its wrapped offset (a replay
    // through a same-shaped server routes it identically) strictly
    // before its worker can see it, or the worker's reject/complete
    // could race ahead of the admission and leave the record
    // half-written.
    for (e, idx) in valid.iter() {
        let shard = *idx as u32;
        let recorder = &shared.recorder;
        recorder.admit(e.tag, e.retry_of, e.op, e.offset, e.bytes, e.tenant, shard);
    }
    for &(idx, k) in shards.iter() {
        let share = || valid.iter().filter(move |(_, i)| *i == idx).map(|(e, _)| e);
        let base = shared.shards[idx].spec.base_offset;
        let mut group = share().map(|e| Submission {
            tag: e.tag,
            op: e.op,
            offset: e.offset - base,
            bytes: e.bytes,
            reply: reply.clone(),
        });
        let first = group.next().expect("a tallied shard has an entry");
        let mut rest = Vec::with_capacity(k - 1);
        rest.extend(group);
        // Only writes a shard took are offered to the replication
        // shipper (a no-op unless this node is the range's primary and
        // has followers).
        if dispatch(shared, idx, first, rest) {
            if let Some(repl) = &shared.repl {
                for e in share().filter(|e| e.op == IoOp::Write) {
                    repl.offer(idx as u32, e.tenant, e.offset, e.bytes);
                }
            }
        }
    }
}

/// Folds live runtime state (shard windows, front-door saturation,
/// clocks) into a registry snapshot. Shared by the STATS renderer and
/// [`Server::metrics_snapshot`] so in-process tests see the same view a
/// wire client does.
pub(crate) fn fold_runtime_gauges(shared: &Shared, m: &mut MetricsRegistry) {
    for s in &shared.shards {
        m.set_gauge(
            &format!("server.inflight.shard{}", s.spec.index),
            s.inflight.load(Ordering::Acquire) as f64,
        );
    }
    let fd = &shared.front_door;
    m.set_gauge(
        "server.connections_open",
        fd.connections_open.load(Ordering::Acquire) as f64,
    );
    m.inc(
        "server.connections_accepted",
        fd.connections_accepted.load(Ordering::Relaxed),
    );
    m.inc(
        "server.epoll_wakeups",
        fd.epoll_wakeups.load(Ordering::Relaxed),
    );
    m.set_gauge(
        "server.write_queue.total_bytes",
        fd.write_queue_bytes.load(Ordering::Acquire) as f64,
    );
    m.set_gauge(
        "server.write_queue.max_bytes",
        fd.write_queue_max_bytes.load(Ordering::Acquire) as f64,
    );
    m.set_gauge("server.uptime_secs", shared.started.elapsed().as_secs_f64());
    m.set_gauge("server.virtual_now_us", shared.clock.now().as_us());
    if let Some(repl) = &shared.repl {
        let c = &repl.counters;
        m.inc("server.repl.shipped", c.shipped.load(Ordering::Relaxed));
        m.inc("server.repl.acked", c.acked.load(Ordering::Relaxed));
        m.inc("server.repl.skipped", c.skipped.load(Ordering::Relaxed));
        m.inc("server.repl.failed", c.failed.load(Ordering::Relaxed));
        for r in 0..repl.shards() {
            m.set_gauge(
                &format!("server.repl.watermark.range{r}"),
                repl.watermark(r) as f64,
            );
        }
    }
}

pub(crate) fn render_stats(shared: &Shared) -> String {
    let mut m = shared.metrics().clone();
    fold_runtime_gauges(shared, &mut m);
    m.lines().join("\n")
}
