//! Shard workers: one simulator per LBA range, each on its own thread.
//!
//! The server partitions the logical address space into `n` equal spans;
//! shard `i` owns `[i * span, (i + 1) * span)` and runs a private
//! [`Simulator`] for it. The worker repeatedly advances its simulator up
//! to the [`VirtualClock`]'s *now* — which is what turns the
//! discrete-event core into a live, wall-clock-paced service — and
//! answers each completion to the request's originating connection
//! through the [`ReplyTo`] carried in the [`Submission`].
//!
//! # The inbox
//!
//! A worker's inbox is one lock over its queued messages and the virtual
//! instant it next wakes by itself (`wake_at`), plus its thread to
//! unpark. The event loop pushes under that lock and stamps each group
//! it submits with the virtual now; the worker takes everything queued
//! and reads the horizon it advances to under the same lock. So every
//! request the worker takes was stamped at or after its previous horizon
//! and at or before this one: it enters the simulator at the instant it
//! was admitted, never behind the simulator clock.
//!
//! The worker sleeps until its next simulated event is due, or until
//! unparked when it has nothing scheduled, with 1-ns timer slack on
//! Linux so that a timed sleep ends on time. A submission unparks it only
//! if it would otherwise sleep past `arrival + min_service`, the soonest
//! the new request could complete ([`SsdConfig::min_service`]). A worker
//! left asleep wakes before then and submits the request at its stamped
//! instant, so nothing observable is processed late. Control messages
//! always wake it.
//!
//! # Crash injection
//!
//! A worker can be *killed* mid-load through [`ShardMsg::Crash`] (the
//! hook the `rif-chaos` fault-injection harness drives). A crash models
//! the abrupt death of the worker's simulator state:
//!
//! - every in-flight request is answered `ERROR(Internal)` — the I/O may
//!   or may not have executed, so the client must decide whether a retry
//!   is safe (reads: yes, writes: no);
//! - for the configured restart window the shard is *dead*: submissions
//!   stamped inside it are bounced with `BUSY(Unavailable)` (never
//!   admitted, always safe to retry) instead of hanging;
//! - after the window the worker builds a fresh simulator (seed salted
//!   by the crash generation so replays stay deterministic) and resumes.
//!
//! The worker thread itself never exits on a crash — that keeps the
//! inbox open, so the server's routing table needs no swap and no
//! request can race into a closed inbox during the restart.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use rif_events::trace::MetricsRegistry;
use rif_events::{SimDuration, SimTime};
use rif_ssd::{Simulator, SsdConfig};
use rif_workloads::{IoOp, IoRequest};

use crate::pacing::VirtualClock;
use crate::poller::Waker;
use crate::protocol::{BusyReason, ErrorCode, Response};
use crate::recorder::TraceRecorder;

/// Where a completion goes: the event loop funnels every completion
/// through one queue and is pulled out of its poll wait to flush it.
#[derive(Clone)]
pub enum ReplyTo {
    /// The event loop's shared completion queue.
    Event {
        /// The loop's single completion queue.
        tx: Sender<(u64, Response)>,
        /// Generation-tagged connection key the loop routes by; a late
        /// completion for a recycled slot is dropped by the generation
        /// check.
        key: u64,
        /// Wakes the loop out of a blocking poll wait.
        waker: Waker,
    },
    /// A follower applying a REPLICATE shipment: the shard's `Done`
    /// becomes the `REPL_ACK` the primary's watermark waits on, while
    /// refusals (`Busy`, `Error`) pass through unchanged so the primary
    /// sees the shipment did not land.
    Replication {
        /// The underlying destination (the loop queue).
        inner: Box<ReplyTo>,
        /// The range the shipment belongs to, echoed in the ack.
        range: u32,
        /// The primary's per-range sequence number, echoed in the ack.
        seq: u64,
    },
}

impl ReplyTo {
    /// False for a replicated write's reply: the recorder journals client
    /// admissions only, and a shipment's tag is the primary's, free to
    /// equal an unrelated client's.
    pub(crate) fn journaled(&self) -> bool {
        !matches!(self, ReplyTo::Replication { .. })
    }

    /// Delivers `resp`. A closed receiver means the whole loop is gone;
    /// the response is dropped.
    pub fn send(&self, resp: Response) {
        match self {
            ReplyTo::Event { tx, key, waker } => {
                if tx.send((*key, resp)).is_ok() {
                    waker.wake();
                }
            }
            ReplyTo::Replication { inner, range, seq } => {
                let resp = match resp {
                    Response::Done { tag, .. } => Response::ReplAck {
                        tag,
                        range: *range,
                        seq: *seq,
                    },
                    other => other,
                };
                inner.send(resp);
            }
        }
    }
}

/// The LBA range a shard owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index in `[0, n)`.
    pub index: usize,
    /// First logical byte owned by this shard.
    pub base_offset: u64,
    /// Bytes in the shard's span.
    pub span_bytes: u64,
}

impl ShardSpec {
    /// Splits `capacity_bytes` into `n` equal spans (the last shard
    /// absorbs the remainder).
    pub fn partition(capacity_bytes: u64, n: usize) -> Vec<ShardSpec> {
        assert!(n > 0, "at least one shard");
        assert!(capacity_bytes >= n as u64, "capacity too small to shard");
        let span = capacity_bytes / n as u64;
        (0..n)
            .map(|i| ShardSpec {
                index: i,
                base_offset: i as u64 * span,
                span_bytes: if i == n - 1 {
                    capacity_bytes - i as u64 * span
                } else {
                    span
                },
            })
            .collect()
    }

    /// The shard index owning `offset` (already wrapped into capacity).
    pub fn route(capacity_bytes: u64, n: usize, offset: u64) -> usize {
        let span = capacity_bytes / n as u64;
        ((offset / span) as usize).min(n - 1)
    }
}

/// One admitted I/O on its way to a shard.
pub struct Submission {
    /// Client correlation tag, echoed in the response.
    pub tag: u64,
    /// Read or write.
    pub op: IoOp,
    /// Offset *rebased* into the shard's local dense LBA space.
    pub offset: u64,
    /// Transfer size.
    pub bytes: u32,
    /// Where the completion goes (the originating connection's slot).
    pub reply: ReplyTo,
}

/// Control messages a shard worker consumes; I/O enters through
/// [`ShardTx::submit`].
pub enum ShardMsg {
    /// Fast-forward the simulator until nothing is in flight, then ack.
    Flush(Sender<()>),
    /// Kill the worker's simulator state: fail everything in flight with
    /// `ERROR(Internal)`, bounce submissions with `BUSY(Unavailable)` for
    /// the given window, then restart with a fresh simulator.
    Crash {
        /// How long the shard stays dead before restarting.
        restart_after: Duration,
    },
    /// Drain everything in flight, then reply with the shard's
    /// serialized [`rif_ssd::LearnerState`] text (empty in oracle mode).
    /// The worker stays alive and keeps serving afterwards — the cluster
    /// layer uses this to snapshot a migrating shard without killing it.
    Yield(Sender<String>),
    /// Preseed the shard's threshold learner from serialized state
    /// received during a migration, then ack. Malformed or empty state
    /// is ignored (the learner is a performance hint, not correctness).
    Adopt {
        /// Serialized learner state, as produced by [`ShardMsg::Yield`].
        state: String,
        /// Acked once the state is installed.
        ack: Sender<()>,
    },
    /// Drain and exit.
    Stop,
}

/// What an inbox queues.
enum Msg {
    /// A group admitted as one unit (a single frame, one BATCH's share of
    /// this shard, or a REPLICATE shipment), each entry with its slot
    /// already reserved. The entries enter the simulator in order at
    /// `arrival`, which the push stamps. The first travels inline and the
    /// rest in the `Vec`, so a group of one — every READ, WRITE and
    /// REPLICATE frame — needs no `Vec`.
    Submit {
        arrival: SimTime,
        first: Submission,
        rest: Vec<Submission>,
    },
    Control(ShardMsg),
}

/// The part of an inbox both sides touch, under one lock.
struct InboxState {
    /// Pushed and not yet taken, in push order.
    msgs: Vec<Msg>,
    /// The virtual instant the worker wakes by itself: its next event,
    /// or its restart deadline while dead; `SimTime::MAX` while it has
    /// nothing scheduled, and `SimTime::ZERO` while it is awake and bound
    /// to look at `msgs` before it sleeps again.
    wake_at: SimTime,
    /// The worker has exited: a push hands its message back.
    closed: bool,
}

/// A shard worker's inbox.
struct Inbox {
    state: Mutex<InboxState>,
    /// The worker's thread, set once it is spawned.
    worker: OnceLock<Thread>,
    clock: VirtualClock,
    /// The soonest any request completes after it arrives.
    min_service: SimDuration,
    /// Live [`ShardTx`] handles; dropping the last one stops the worker.
    senders: AtomicUsize,
}

impl Inbox {
    fn new(clock: VirtualClock, min_service: SimDuration) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                msgs: Vec::new(),
                wake_at: SimTime::ZERO,
                closed: false,
            }),
            worker: OnceLock::new(),
            clock,
            min_service,
            senders: AtomicUsize::new(1),
        }
    }

    /// Locks the state, recovering from poisoning like every other
    /// serving-plane lock.
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `msg`, stamping a submission with the virtual now, and
    /// unparks the worker unless it wakes by itself before the stamped
    /// submission could complete. Hands `msg` back once the worker has
    /// exited.
    fn push(&self, mut msg: Msg) -> Result<(), Msg> {
        let mut st = self.lock();
        if st.closed {
            return Err(msg);
        }
        let due = match &mut msg {
            Msg::Submit { arrival, .. } => {
                *arrival = self.clock.now();
                *arrival + self.min_service
            }
            Msg::Control(_) => SimTime::ZERO,
        };
        st.msgs.push(msg);
        let unpark = st.wake_at > due;
        if unpark {
            // Awake from here on until it has looked at the inbox: later
            // pushes need not unpark it again.
            st.wake_at = SimTime::ZERO;
        }
        drop(st);
        if unpark {
            if let Some(worker) = self.worker.get() {
                worker.unpark();
            }
        }
        Ok(())
    }

    /// Swaps everything queued into `into` (empty) and returns the
    /// horizon the worker may advance to: the virtual now, read under the
    /// lock every push stamps under.
    fn take(&self, into: &mut Vec<Msg>) -> SimTime {
        let mut st = self.lock();
        std::mem::swap(&mut st.msgs, into);
        st.wake_at = SimTime::ZERO;
        self.clock.now()
    }

    /// Publishes `wake_at` and sleeps until virtual time `wake_at`
    /// (`SimTime::MAX`: until unparked), unless a message is already
    /// queued. May return early; the caller loops.
    fn park_until(&self, wake_at: SimTime) {
        {
            let mut st = self.lock();
            if !st.msgs.is_empty() {
                return;
            }
            st.wake_at = wake_at;
        }
        if wake_at == SimTime::MAX {
            std::thread::park();
        } else {
            let nap = self.clock.wall_until(wake_at);
            if !nap.is_zero() {
                std::thread::park_timeout(nap);
            }
        }
    }

    /// Closes the inbox if nothing is queued, and says whether it did.
    fn close_if_empty(&self) -> bool {
        let mut st = self.lock();
        st.closed = st.msgs.is_empty();
        st.closed
    }
}

/// A sending handle to a shard worker's inbox. The worker stops once
/// every handle is gone.
pub struct ShardTx {
    inbox: Arc<Inbox>,
}

impl ShardTx {
    /// Queues a group admitted as one unit, each entry's slot already
    /// reserved, to enter the simulator in order at the virtual now.
    /// Hands the group back if the worker has exited.
    pub fn submit(
        &self,
        first: Submission,
        rest: Vec<Submission>,
    ) -> Result<(), (Submission, Vec<Submission>)> {
        let arrival = SimTime::ZERO; // stamped by the push
        match self.inbox.push(Msg::Submit {
            arrival,
            first,
            rest,
        }) {
            Ok(()) => Ok(()),
            Err(Msg::Submit { first, rest, .. }) => Err((first, rest)),
            Err(Msg::Control(_)) => unreachable!("push hands back the message it took"),
        }
    }

    /// Queues a control message and wakes the worker. Hands the message
    /// back if the worker has exited.
    pub fn send(&self, msg: ShardMsg) -> Result<(), ShardMsg> {
        match self.inbox.push(Msg::Control(msg)) {
            Ok(()) => Ok(()),
            Err(Msg::Control(msg)) => Err(msg),
            Err(Msg::Submit { .. }) => unreachable!("push hands back the message it took"),
        }
    }
}

impl Clone for ShardTx {
    fn clone(&self) -> ShardTx {
        // Relaxed as in `Arc::clone`: a handle is cloned from a live one,
        // so the count cannot reach zero meanwhile. The decrement that
        // may reach zero is AcqRel.
        self.inbox.senders.fetch_add(1, Ordering::Relaxed);
        ShardTx {
            inbox: Arc::clone(&self.inbox),
        }
    }
}

impl Drop for ShardTx {
    fn drop(&mut self) {
        if self.inbox.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = self.inbox.push(Msg::Control(ShardMsg::Stop));
        }
    }
}

/// Handle to a running shard worker.
pub struct ShardHandle {
    /// The worker's inbox.
    pub tx: ShardTx,
    /// In-flight count, shared with the admission check in the server.
    pub inflight: Arc<AtomicUsize>,
    join: JoinHandle<()>,
}

impl ShardHandle {
    /// Asks the worker to drain and exit, then joins it.
    pub fn stop(self) {
        let _ = self.tx.send(ShardMsg::Stop);
        let _ = self.join.join();
    }
}

/// Salt mixed into the simulator seed on each crash generation, so a
/// restarted shard gets a fresh but still seed-deterministic stream.
const GENERATION_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Spawns the worker thread for one shard. Fails if the OS refuses the
/// thread — the caller propagates the error instead of panicking.
pub fn spawn_shard(
    spec: ShardSpec,
    cfg: SsdConfig,
    clock: VirtualClock,
    metrics: Arc<Mutex<MetricsRegistry>>,
    recorder: Arc<TraceRecorder>,
) -> io::Result<ShardHandle> {
    let inbox = Arc::new(Inbox::new(clock, cfg.min_service()));
    let inflight = Arc::new(AtomicUsize::new(0));
    let (worker_inbox, worker_inflight) = (Arc::clone(&inbox), Arc::clone(&inflight));
    let join = std::thread::Builder::new()
        .name(format!("rif-shard-{}", spec.index))
        .spawn(move || {
            run_worker(Worker::new(
                spec,
                cfg,
                worker_inbox,
                worker_inflight,
                metrics,
                recorder,
            ))
        })?;
    // Nothing can push before the handle exists, and the worker looks at
    // its inbox before it first sleeps.
    let _ = inbox.worker.set(join.thread().clone());
    Ok(ShardHandle {
        tx: ShardTx { inbox },
        inflight,
        join,
    })
}

/// A shard's metric names, built once when its worker starts.
struct Keys {
    /// `server.completed.shard<i>`.
    completed: String,
    /// `server.shard_crashes.shard<i>`.
    crashes: String,
    /// `server.learner.shard<i>.{updates, recalibrations, blocks_tracked,
    /// mean_abs_error}`.
    learner: [String; 4],
    /// `server.bg.shard<i>.{cache_occupancy, migrated_slots,
    /// refreshed_slots, bg_ops}`.
    bg: [String; 4],
}

impl Keys {
    fn new(index: usize) -> Keys {
        let label = format!("shard{index}");
        let names = |group: &str, fields: [&str; 4]| {
            fields.map(|field| format!("server.{group}.{label}.{field}"))
        };
        Keys {
            completed: format!("server.completed.{label}"),
            crashes: format!("server.shard_crashes.{label}"),
            learner: names(
                "learner",
                [
                    "updates",
                    "recalibrations",
                    "blocks_tracked",
                    "mean_abs_error",
                ],
            ),
            bg: names(
                "bg",
                [
                    "cache_occupancy",
                    "migrated_slots",
                    "refreshed_slots",
                    "bg_ops",
                ],
            ),
        }
    }
}

/// The worker's mutable state, factored out so message handling and the
/// main loop can share it without borrow gymnastics.
struct Worker {
    cfg: SsdConfig,
    inbox: Arc<Inbox>,
    inflight: Arc<AtomicUsize>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    recorder: Arc<TraceRecorder>,
    sim: Simulator,
    /// sim request id -> (client tag, reply destination)
    pending: HashMap<u64, (u64, ReplyTo)>,
    flush_waiters: Vec<Sender<()>>,
    /// Migration snapshots waiting for the in-flight set to drain.
    yield_waiters: Vec<Sender<String>>,
    stopping: bool,
    /// `Some(t)` while the shard is dead: submissions stamped before
    /// virtual time `t` bounce, and it restarts once its horizon reaches `t`.
    dead_until: Option<SimTime>,
    /// Crash count; salts the restarted simulator's seed.
    generation: u64,
    /// The simulator clock may be ahead of the virtual clock: set by a
    /// fast-forward, cleared once the virtual clock catches up. Only
    /// then can an arrival land behind it (the simulator clamps it).
    ahead: bool,
    keys: Keys,
}

impl Worker {
    fn new(
        spec: ShardSpec,
        cfg: SsdConfig,
        inbox: Arc<Inbox>,
        inflight: Arc<AtomicUsize>,
        metrics: Arc<Mutex<MetricsRegistry>>,
        recorder: Arc<TraceRecorder>,
    ) -> Worker {
        Worker {
            keys: Keys::new(spec.index),
            sim: Worker::sim_for_generation(&cfg, 0),
            cfg,
            inbox,
            inflight,
            metrics,
            recorder,
            pending: HashMap::new(),
            flush_waiters: Vec::new(),
            yield_waiters: Vec::new(),
            stopping: false,
            dead_until: None,
            generation: 0,
            ahead: false,
        }
    }

    fn sim_for_generation(cfg: &SsdConfig, generation: u64) -> Simulator {
        let mut c = cfg.clone();
        c.seed = c
            .seed
            .wrapping_add(generation.wrapping_mul(GENERATION_SALT));
        Simulator::new(c)
    }

    fn metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        // A panicking holder must not wedge the worker: recover the data.
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn submit_one(&mut self, s: Submission, arrival: SimTime) {
        if self.dead_until.is_some_and(|t| arrival < t) {
            // Dead shard: never admit, never hang. The slot the
            // server reserved is released here, and the recorder
            // retracts the admission — this I/O never ran.
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            if s.reply.journaled() {
                self.recorder.reject(s.tag);
            }
            self.metrics().inc("server.busy.unavailable", 1);
            s.reply.send(Response::Busy {
                tag: s.tag,
                reason: BusyReason::Unavailable,
            });
            return;
        }
        debug_assert!(
            self.ahead || arrival >= self.sim.now(),
            "arrival {arrival:?} stamped behind the simulator clock {:?}",
            self.sim.now()
        );
        let id = self.sim.submit(IoRequest {
            arrival,
            op: s.op,
            offset: s.offset,
            bytes: s.bytes,
        });
        self.pending.insert(id, (s.tag, s.reply));
    }

    fn handle(&mut self, msg: Msg) {
        let msg = match msg {
            Msg::Submit {
                arrival,
                first,
                rest,
            } => {
                for s in std::iter::once(first).chain(rest) {
                    self.submit_one(s, arrival);
                }
                return;
            }
            Msg::Control(msg) => msg,
        };
        match msg {
            ShardMsg::Flush(done) => self.flush_waiters.push(done),
            ShardMsg::Yield(out) => self.yield_waiters.push(out),
            ShardMsg::Adopt { state, ack } => {
                if let Ok(s) = rif_ssd::LearnerState::parse_text(&state) {
                    self.sim.preseed_learner(&s);
                }
                let _ = ack.send(());
            }
            ShardMsg::Crash { restart_after } => self.crash(restart_after),
            ShardMsg::Stop => self.stopping = true,
        }
    }

    /// The learner snapshot handed over during a migration, bounded so
    /// it always fits in one wire frame (lowest-numbered blocks win).
    fn learner_snapshot_text(&self) -> String {
        let cap = crate::protocol::MAX_FRAME_BYTES as usize - 64;
        self.sim
            .learner_state()
            .map(|s| s.to_text_capped(cap))
            .unwrap_or_default()
    }

    /// Kills the simulator state: fails every pending request and enters
    /// the dead window.
    fn crash(&mut self, restart_after: Duration) {
        {
            let mut m = self.metrics();
            m.inc("server.shard_crashes", 1);
            m.inc(&self.keys.crashes, 1);
        }
        for (_, (tag, reply)) in self.pending.drain() {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            if reply.journaled() {
                self.recorder.complete(tag, false);
            }
            reply.send(Response::Error {
                tag,
                code: ErrorCode::Internal,
            });
        }
        // Replace the simulator now so crashed state is gone immediately;
        // the restarted shard serves from this fresh one.
        self.generation += 1;
        self.sim = Self::sim_for_generation(&self.cfg, self.generation);
        self.ahead = false;
        let deadline = self.inbox.clock.after(restart_after);
        // A crash during the dead window extends it.
        self.dead_until = Some(match self.dead_until {
            Some(t) => t.max(deadline),
            None => deadline,
        });
    }

    /// Leaves the dead window once `horizon` has reached its deadline.
    fn maybe_restart(&mut self, horizon: SimTime) {
        if self.dead_until.is_some_and(|t| horizon >= t) {
            self.dead_until = None;
            self.metrics().inc("server.shard_restarts", 1);
        }
    }

    /// Advances the simulator to `horizon` and answers completions.
    fn advance_and_complete(&mut self, horizon: SimTime) {
        // Flush and shutdown fast-forward past wall-clock pacing: the
        // simulator is advanced until nothing is left in flight. Later
        // submissions clamp their arrival to the simulator clock until
        // the virtual clock catches up, so time stays monotonic.
        let fast_forward =
            self.stopping || !self.flush_waiters.is_empty() || !self.yield_waiters.is_empty();
        let horizon = if fast_forward { SimTime::MAX } else { horizon };
        self.sim.advance_until(horizon);
        self.ahead = fast_forward || (self.ahead && self.sim.now() > horizon);

        let done = self.sim.drain_completions();
        if done.is_empty() {
            return;
        }
        let learner = self.sim.learner_summary();
        let bg = self.sim.bg_summary();
        let now = self.inbox.clock.now();
        {
            let mut m = self.metrics();
            m.inc("server.completed", done.len() as u64);
            m.inc(&self.keys.completed, done.len() as u64);
            for c in &done {
                m.observe("server.latency.virtual", c.latency());
                // How late the worker answers what the simulator already
                // finished: its wake-up latency, plus any fast-forward
                // (which answers early, and counts as zero).
                m.observe("server.pacing.lag", now.saturating_since(c.finished));
            }
            // Learned mode: export the shard's live learner state so STATS
            // shows threshold-learning progress while the server runs.
            if let Some(l) = learner {
                let [updates, recalibrations, blocks, error] = &self.keys.learner;
                m.set_gauge(updates, l.updates as f64);
                m.set_gauge(recalibrations, l.recalibrations as f64);
                m.set_gauge(blocks, l.blocks_tracked as f64);
                m.set_gauge(error, l.mean_abs_error);
            }
            // Hybrid mode: export the shard's live background-traffic
            // state so STATS shows cache destaging and refresh progress
            // while the server runs.
            if let Some(h) = bg {
                let [occupancy, migrated, refreshed, ops] = &self.keys.bg;
                m.set_gauge(occupancy, h.cache_occupancy);
                m.set_gauge(migrated, h.migrated_slots as f64);
                m.set_gauge(refreshed, h.refreshed_slots as f64);
                m.set_gauge(ops, h.bg_ops as f64);
            }
        }
        for c in done {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            if let Some((tag, reply)) = self.pending.remove(&c.id) {
                if reply.journaled() {
                    self.recorder.complete(tag, true);
                }
                // A dead connection just drops its completions.
                reply.send(Response::Done {
                    tag,
                    latency_ns: c.latency().as_ns(),
                });
            }
        }
    }
}

/// Sets the calling thread's timer slack to 1 ns. Linux lets a timed
/// sleep overrun by the thread's slack (50 µs by default) so that
/// wake-ups batch; a worker sleeping until its next simulated event
/// would then run that event up to 50 µs late.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and changes only
    // the calling thread's slack; a failure leaves the default in place.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong) };
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn run_worker(mut w: Worker) {
    tighten_timer_slack();
    let mut msgs = Vec::new();
    loop {
        let horizon = w.inbox.take(&mut msgs);
        for msg in msgs.drain(..) {
            w.handle(msg);
        }

        w.maybe_restart(horizon);
        if w.dead_until.is_none() {
            w.advance_and_complete(horizon);
        }

        // A crash clears `pending`, so flushes ack immediately while dead.
        if w.pending.is_empty() && !w.flush_waiters.is_empty() {
            for waiter in w.flush_waiters.drain(..) {
                let _ = waiter.send(());
            }
        }
        // Same drain condition for migration snapshots: everything that
        // was admitted before the Yield has completed, so the learner
        // state captures all of it.
        if w.pending.is_empty() && !w.yield_waiters.is_empty() {
            let snapshot = w.learner_snapshot_text();
            for waiter in w.yield_waiters.drain(..) {
                let _ = waiter.send(snapshot.clone());
            }
        }
        // Whatever was pushed before the close is still served.
        if w.stopping && w.pending.is_empty() && w.inbox.close_if_empty() {
            return;
        }

        // Sleep until the next simulated event is due on the wall clock,
        // or, dead, until the restart deadline; a message that cannot
        // wait unparks it sooner.
        let wake_at = match w.dead_until {
            Some(t) => t,
            None => w.sim.next_event_time().unwrap_or(SimTime::MAX),
        };
        w.inbox.park_until(wake_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_ssd::RetryKind;
    use std::sync::mpsc::{self, Receiver, TryRecvError};
    use std::time::Instant;

    /// The event loop's reply route, for driving a worker directly:
    /// completions arrive on the receiver as `(key, response)`.
    fn event_reply() -> (ReplyTo, Receiver<(u64, Response)>) {
        let (tx, rx) = mpsc::channel();
        let (waker, _read_end) = Waker::new().expect("waker");
        (ReplyTo::Event { tx, key: 7, waker }, rx)
    }

    /// Starts shard `index`, spanning 1 GiB from offset 0, with its own
    /// metrics registry.
    fn spawn(
        index: usize,
        cfg: SsdConfig,
        clock: VirtualClock,
        recorder: Arc<TraceRecorder>,
    ) -> (ShardHandle, Arc<Mutex<MetricsRegistry>>) {
        let spec = ShardSpec {
            index,
            base_offset: 0,
            span_bytes: 1 << 30,
        };
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        let handle =
            spawn_shard(spec, cfg, clock, Arc::clone(&metrics), recorder).expect("spawn shard");
        (handle, metrics)
    }

    /// Reserves a slot, as admission does, and submits one I/O.
    fn submit(shard: &ShardHandle, tag: u64, op: IoOp, offset: u64, bytes: u32, reply: &ReplyTo) {
        shard.inflight.fetch_add(1, Ordering::AcqRel);
        let s = Submission {
            tag,
            op,
            offset,
            bytes,
            reply: reply.clone(),
        };
        assert!(shard.tx.submit(s, Vec::new()).is_ok(), "worker gone");
    }

    /// The next value on `rx`, failing the test after 10 s rather than
    /// hanging it on a wedged worker.
    fn within<T>(rx: &Receiver<T>, what: &str) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match rx.try_recv() {
                Ok(v) => return v,
                Err(TryRecvError::Empty) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("{what}: {e}"),
            }
        }
    }

    fn next(rx: &Receiver<(u64, Response)>, what: &str) -> Response {
        within(rx, what).1
    }

    fn learned() -> SsdConfig {
        let mut cfg = SsdConfig::small(RetryKind::Rif, 2000);
        cfg.learning = rif_ssd::LearningMode::Learned(rif_ssd::LearnerConfig::default_paper());
        cfg
    }

    #[test]
    fn partition_covers_capacity_exactly() {
        let shards = ShardSpec::partition(1000, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].base_offset, 0);
        assert_eq!(shards[1].base_offset, 333);
        assert_eq!(shards[2].base_offset, 666);
        let total: u64 = shards.iter().map(|s| s.span_bytes).sum();
        assert_eq!(total, 1000, "last shard absorbs the remainder");
        assert_eq!(shards[2].span_bytes, 334);
    }

    #[test]
    fn routing_matches_partition() {
        let cap = 1 << 30;
        let n = 4;
        let shards = ShardSpec::partition(cap, n);
        for offset in [0u64, 1, (cap / 4) - 1, cap / 4, cap / 2, cap - 1] {
            let idx = ShardSpec::route(cap, n, offset);
            let s = shards[idx];
            assert!(
                offset >= s.base_offset && offset < s.base_offset + s.span_bytes,
                "offset {offset} routed to shard {idx} [{}, {})",
                s.base_offset,
                s.base_offset + s.span_bytes
            );
        }
    }

    #[test]
    fn top_offset_routes_to_last_shard() {
        // span division truncates, so the highest offsets must clamp to
        // the last shard instead of indexing out of bounds.
        assert_eq!(ShardSpec::route(1000, 3, 999), 2);
    }

    #[test]
    fn crashed_worker_fails_pending_and_bounces_then_restarts() {
        let (handle, metrics) = spawn(
            0,
            SsdConfig::small(RetryKind::Rif, 2000),
            VirtualClock::start(1000.0),
            Arc::new(TraceRecorder::new(false)),
        );
        let (reply, reply_rx) = event_reply();
        // Submit one request, then crash before it can complete. The
        // reserved in-flight slot is what the worker must release.
        submit(&handle, 7, IoOp::Read, 0, 4096, &reply);
        let crash = ShardMsg::Crash {
            restart_after: Duration::from_millis(30),
        };
        assert!(handle.tx.send(crash).is_ok());

        let first = next(&reply_rx, "crash must resolve the in-flight request");
        // Either the request completed before the crash landed (DONE) or
        // the crash failed it (ERROR Internal) — silence is the only
        // forbidden outcome.
        assert!(
            matches!(
                first,
                Response::Done { tag: 7, .. }
                    | Response::Error {
                        tag: 7,
                        code: ErrorCode::Internal
                    }
            ),
            "unexpected: {first:?}"
        );
        assert_eq!(handle.inflight.load(Ordering::Acquire), 0);

        // While dead, submissions bounce with BUSY(Unavailable).
        submit(&handle, 8, IoOp::Read, 0, 4096, &reply);
        let bounced = next(&reply_rx, "dead shard must answer, not hang");
        assert_eq!(
            bounced,
            Response::Busy {
                tag: 8,
                reason: BusyReason::Unavailable
            }
        );
        assert_eq!(handle.inflight.load(Ordering::Acquire), 0);

        // After the restart window the shard serves again.
        std::thread::sleep(Duration::from_millis(60));
        submit(&handle, 9, IoOp::Write, 4096, 4096, &reply);
        let served = next(&reply_rx, "restarted shard must serve");
        assert!(
            matches!(served, Response::Done { tag: 9, .. }),
            "unexpected: {served:?}"
        );

        let m = metrics.lock().unwrap().clone();
        assert_eq!(m.counter("server.shard_crashes"), 1);
        handle.stop();
    }

    #[test]
    fn a_replicated_write_leaves_the_capture_journal_alone() {
        use rif_workloads::CaptureOutcome;

        let recorder = Arc::new(TraceRecorder::new(true));
        let (handle, _) = spawn(
            0,
            SsdConfig::small(RetryKind::Rif, 2000),
            VirtualClock::start(1000.0),
            Arc::clone(&recorder),
        );
        // A client request journaled under tag 5, not yet answered…
        recorder.admit(5, 0, IoOp::Read, 0, 4096, 0, 0);
        // …and a primary's shipment that happens to carry tag 5 too:
        // shipper tags count from 1 just as client tags do.
        let (inner, reply_rx) = event_reply();
        let shipment = ReplyTo::Replication {
            inner: Box::new(inner),
            range: 0,
            seq: 1,
        };
        submit(&handle, 5, IoOp::Write, 4096, 4096, &shipment);
        let ack = next(&reply_rx, "shipment acked");
        assert_eq!(
            ack,
            Response::ReplAck {
                tag: 5,
                range: 0,
                seq: 1
            }
        );
        // The shipment's DONE resolved nothing: the client's record is
        // still open, which a capture renders as an error.
        let capture = recorder.capture();
        assert_eq!(capture.len(), 1);
        assert_eq!(capture.records[0].outcome, CaptureOutcome::Error);
        handle.stop();
    }

    #[test]
    fn learned_shard_exports_learner_gauges() {
        let (handle, metrics) = spawn(
            0,
            learned(),
            VirtualClock::start(10_000.0),
            Arc::new(TraceRecorder::new(false)),
        );
        let (reply, reply_rx) = event_reply();
        for i in 0..8u64 {
            submit(&handle, i, IoOp::Read, i * 65536, 65536, &reply);
        }
        for _ in 0..8 {
            let r = next(&reply_rx, "learned shard must serve");
            assert!(matches!(r, Response::Done { .. }), "unexpected: {r:?}");
        }
        let m = metrics.lock().unwrap().clone();
        assert!(
            m.gauge("server.learner.shard0.updates").unwrap_or(0.0) > 0.0,
            "learner update gauge missing from STATS metrics"
        );
        let err = m
            .gauge("server.learner.shard0.mean_abs_error")
            .expect("error gauge present");
        assert!(err.is_finite() && err >= 0.0);
        assert_eq!(m.counter("server.completed.shard0"), 8);
        let lag = m
            .histogram("server.pacing.lag")
            .expect("pacing lag recorded");
        assert_eq!(lag.count(), 8, "one pacing-lag sample per completion");
        handle.stop();
    }

    #[test]
    fn hybrid_shard_exports_bg_gauges() {
        use rif_ssd::{HybridConfig, MigrationPolicy};

        let mut cfg = SsdConfig::small(RetryKind::Rif, 2000);
        // The server's --hybrid wiring: eager unconditional destage.
        let mut h = HybridConfig::slc_qlc();
        h.migration = MigrationPolicy::Fifo;
        h.bg.high_watermark = 0.0;
        h.bg.low_watermark = 0.0;
        h.bg.refresh_scan_batch = 8;
        cfg.hybrid = Some(h);
        let (handle, metrics) = spawn(
            0,
            cfg,
            VirtualClock::start(10_000.0),
            Arc::new(TraceRecorder::new(false)),
        );
        let (reply, reply_rx) = event_reply();
        // Writes land in the SLC cache; the eager drain migrates them as
        // soon as the scheduler ticks.
        for i in 0..8u64 {
            submit(&handle, i, IoOp::Write, i * 65536, 65536, &reply);
        }
        for _ in 0..8 {
            let r = next(&reply_rx, "hybrid shard must serve writes");
            assert!(matches!(r, Response::Done { .. }), "unexpected: {r:?}");
        }
        // Give the virtual clock room for several scheduler ticks, then
        // read: the completion drain re-exports the bg gauges.
        std::thread::sleep(Duration::from_millis(20));
        for i in 8..16u64 {
            submit(&handle, i, IoOp::Read, i * 65536, 65536, &reply);
        }
        for _ in 0..8 {
            let r = next(&reply_rx, "hybrid shard must serve reads");
            assert!(matches!(r, Response::Done { .. }), "unexpected: {r:?}");
        }
        let m = metrics.lock().unwrap().clone();
        assert!(
            m.gauge("server.bg.shard0.migrated_slots").unwrap_or(0.0) > 0.0,
            "eager destage must have migrated the cached writes"
        );
        assert!(m.gauge("server.bg.shard0.bg_ops").unwrap_or(0.0) > 0.0);
        let occ = m
            .gauge("server.bg.shard0.cache_occupancy")
            .expect("occupancy gauge present");
        assert!((0.0..=1.0).contains(&occ));
        handle.stop();
    }

    #[test]
    fn yield_then_adopt_carries_learner_state_across_workers() {
        use rif_ssd::LearnerState;

        let clock = VirtualClock::start(10_000.0);
        let start = |index| {
            spawn(
                index,
                learned(),
                clock.clone(),
                Arc::new(TraceRecorder::new(false)),
            )
            .0
        };
        let (src, dst) = (start(0), start(1));

        // Warm the source learner, with the last submission still in
        // flight when the Yield lands — the drain must cover it.
        let (reply, reply_rx) = event_reply();
        for i in 0..8u64 {
            submit(&src, i, IoOp::Read, i * 65536, 65536, &reply);
        }
        let (yield_tx, yield_rx) = mpsc::channel();
        assert!(src.tx.send(ShardMsg::Yield(yield_tx)).is_ok());
        let state_text = within(&yield_rx, "yield must answer");
        // All 8 submissions preceded the Yield in the inbox, so the
        // snapshot reflects every one of them.
        for _ in 0..8 {
            let r = next(&reply_rx, "yield must not drop in-flight requests");
            assert!(matches!(r, Response::Done { .. }), "unexpected: {r:?}");
        }
        let state = LearnerState::parse_text(&state_text).expect("learned mode exports state");
        assert!(state.stats.updates >= 8, "updates {}", state.stats.updates);

        // Adopt on the target: its learner resumes the source's counters.
        let (ack_tx, ack_rx) = mpsc::channel();
        let adopt = ShardMsg::Adopt {
            state: state_text,
            ack: ack_tx,
        };
        assert!(dst.tx.send(adopt).is_ok());
        within(&ack_rx, "adopt must ack");
        let (y2_tx, y2_rx) = mpsc::channel();
        assert!(dst.tx.send(ShardMsg::Yield(y2_tx)).is_ok());
        let adopted = LearnerState::parse_text(&within(&y2_rx, "second yield answers"))
            .expect("adopted state parses");
        assert_eq!(adopted, state, "state must survive the handoff intact");

        // The source keeps serving after a Yield — no dead window.
        submit(&src, 99, IoOp::Read, 0, 4096, &reply);
        let r = next(&reply_rx, "source keeps serving after yield");
        assert!(
            matches!(r, Response::Done { tag: 99, .. }),
            "unexpected: {r:?}"
        );

        src.stop();
        dst.stop();
    }

    #[test]
    fn a_worker_whose_senders_are_all_gone_stops() {
        let (handle, _) = spawn(
            0,
            SsdConfig::small(RetryKind::Rif, 2000),
            VirtualClock::start(1000.0),
            Arc::new(TraceRecorder::new(false)),
        );
        let ShardHandle { tx, join, .. } = handle;
        let second = tx.clone();
        drop(tx);
        drop(second);
        join.join()
            .expect("worker exits once its last sender is dropped");
    }

    #[test]
    fn drained_arrivals_lie_between_consecutive_horizons() {
        // A pusher stamps and pushes with random gaps while this thread
        // drains as a worker does, sleeping in between until unparked or
        // until a deadline of its own. Every group it takes must carry
        // an arrival in [previous horizon, this horizon]: stamps and
        // horizons are read under one lock, so the inbox is linearizable
        // and nothing a worker takes is stamped behind its clock.
        const GROUPS: usize = 2000;
        let min_service = SimDuration::from_us(40);
        let inbox = Arc::new(Inbox::new(VirtualClock::start(1.0), min_service));
        let _ = inbox.worker.set(std::thread::current());
        let (reply, _replies) = event_reply();
        let pusher = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                let mut rng = rif_events::SimRng::seed_from(29);
                for tag in 0..GROUPS as u64 {
                    let first = Submission {
                        tag,
                        op: IoOp::Read,
                        offset: 0,
                        bytes: 4096,
                        reply: reply.clone(),
                    };
                    let msg = Msg::Submit {
                        arrival: SimTime::ZERO,
                        first,
                        rest: Vec::new(),
                    };
                    assert!(inbox.push(msg).is_ok());
                    match rng.next_u64() % 4 {
                        0 => {}
                        1 => std::thread::yield_now(),
                        _ => std::thread::sleep(Duration::from_micros(rng.next_u64() % 60)),
                    }
                }
            })
        };
        let mut msgs = Vec::new();
        let mut previous = SimTime::ZERO;
        let mut taken = 0;
        for round in 0u64.. {
            let horizon = inbox.take(&mut msgs);
            assert!(horizon >= previous, "horizons went backwards");
            for msg in msgs.drain(..) {
                let Msg::Submit { arrival, first, .. } = msg else {
                    panic!("only submissions were pushed");
                };
                assert!(
                    (previous..=horizon).contains(&arrival),
                    "group {} stamped {arrival:?} outside [{previous:?}, {horizon:?}]",
                    first.tag
                );
                taken += 1;
            }
            previous = horizon;
            if taken == GROUPS {
                break;
            }
            // Alternate an open-ended sleep (every push unparks) with a
            // deadline inside the next push's service time (no push
            // unparks; the timeout must end the sleep).
            let wake_at = if round % 2 == 0 {
                SimTime::MAX
            } else {
                horizon + SimDuration::from_us(20)
            };
            inbox.park_until(wake_at);
        }
        pusher.join().unwrap();
    }
}
