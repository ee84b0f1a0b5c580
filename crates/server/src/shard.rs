//! Shard workers: one simulator per LBA range, each on its own thread.
//!
//! The server partitions the logical address space into `n` equal spans;
//! shard `i` owns `[i * span, (i + 1) * span)` and runs a private
//! [`Simulator`] for it. Requests arrive over an mpsc channel, are
//! submitted at the current virtual time, and the worker repeatedly
//! advances its simulator up to the [`VirtualClock`]'s *now* — which is
//! what turns the discrete-event core into a live, wall-clock-paced
//! service. Completions are answered to each request's originating
//! connection through the [`ReplyTo`] carried in the [`Submission`].
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
//!   are bounced immediately with `BUSY(Unavailable)` (never admitted,
//!   always safe to retry) instead of hanging;
//! - after the window the worker builds a fresh simulator (seed salted
//!   by the crash generation so replays stay deterministic) and resumes.
//!
//! The worker thread itself never exits on a crash — that keeps the mpsc
//! channel alive, so the server's routing table needs no swap and no
//! request can race into a closed channel during the restart.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rif_events::trace::MetricsRegistry;
use rif_events::SimTime;
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

/// Messages a shard worker consumes.
pub enum ShardMsg {
    /// Simulate a group of I/Os admitted as one unit (a single frame,
    /// one BATCH's share of this shard, or a REPLICATE shipment), each
    /// with its slot already reserved; they enter the simulator in order.
    /// The first travels inline and the rest in the `Vec`, so a group of
    /// one — every READ, WRITE and REPLICATE frame — needs no `Vec`.
    Submit(Submission, Vec<Submission>),
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

/// Handle to a running shard worker.
pub struct ShardHandle {
    /// The worker's inbox.
    pub tx: Sender<ShardMsg>,
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

/// Longest the worker sleeps between polls even with nothing scheduled,
/// so Stop/Flush messages are always picked up promptly.
const IDLE_POLL: Duration = Duration::from_micros(500);

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
    rx: Receiver<ShardMsg>,
    tx: Sender<ShardMsg>,
) -> io::Result<ShardHandle> {
    let inflight = Arc::new(AtomicUsize::new(0));
    let inflight_worker = Arc::clone(&inflight);
    let join = std::thread::Builder::new()
        .name(format!("rif-shard-{}", spec.index))
        .spawn(move || run_worker(spec, cfg, clock, inflight_worker, metrics, recorder, rx))?;
    Ok(ShardHandle { tx, inflight, join })
}

/// The worker's mutable state, factored out so message handling and the
/// main loop can share it without borrow gymnastics.
struct Worker {
    cfg: SsdConfig,
    clock: VirtualClock,
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
    /// `Some(t)` while the shard is dead; it restarts once `Instant::now() >= t`.
    dead_until: Option<Instant>,
    /// Crash count; salts the restarted simulator's seed.
    generation: u64,
    shard_label: String,
}

impl Worker {
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

    fn submit_one(&mut self, s: Submission) {
        if self.dead_until.is_some() {
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
        let id = self.sim.submit(IoRequest {
            arrival: self.clock.now(),
            op: s.op,
            offset: s.offset,
            bytes: s.bytes,
        });
        self.pending.insert(id, (s.tag, s.reply));
    }

    fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Submit(first, rest) => {
                for s in std::iter::once(first).chain(rest) {
                    self.submit_one(s);
                }
            }
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
            m.inc(&format!("server.shard_crashes.{}", self.shard_label), 1);
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
        // it is rebuilt again (fresh) at restart anyway.
        self.generation += 1;
        self.sim = Self::sim_for_generation(&self.cfg, self.generation);
        let deadline = Instant::now() + restart_after;
        // A crash during the dead window extends it.
        self.dead_until = Some(match self.dead_until {
            Some(t) => t.max(deadline),
            None => deadline,
        });
    }

    /// Leaves the dead window if its deadline has passed.
    fn maybe_restart(&mut self) {
        if let Some(t) = self.dead_until {
            if Instant::now() >= t {
                self.dead_until = None;
                self.metrics().inc("server.shard_restarts", 1);
            }
        }
    }

    /// Advances the simulator and answers completions.
    fn advance_and_complete(&mut self) {
        // Flush and shutdown fast-forward past wall-clock pacing: the
        // simulator is advanced until nothing is left in flight. Later
        // submissions clamp their arrival to the simulator clock, so time
        // stays monotonic.
        let horizon =
            if self.stopping || !self.flush_waiters.is_empty() || !self.yield_waiters.is_empty() {
                SimTime::MAX
            } else {
                self.clock.now()
            };
        self.sim.advance_until(horizon);

        let done = self.sim.drain_completions();
        if !done.is_empty() {
            let learner = self.sim.learner_summary();
            let bg = self.sim.bg_summary();
            let mut m = self.metrics();
            for c in &done {
                m.inc("server.completed", 1);
                m.inc(&format!("server.completed.{}", self.shard_label), 1);
                m.observe("server.latency.virtual", c.latency());
            }
            // Learned mode: export the shard's live learner state so STATS
            // shows threshold-learning progress while the server runs.
            if let Some(l) = learner {
                let tag = &self.shard_label;
                m.set_gauge(&format!("server.learner.{tag}.updates"), l.updates as f64);
                m.set_gauge(
                    &format!("server.learner.{tag}.recalibrations"),
                    l.recalibrations as f64,
                );
                m.set_gauge(
                    &format!("server.learner.{tag}.blocks_tracked"),
                    l.blocks_tracked as f64,
                );
                m.set_gauge(
                    &format!("server.learner.{tag}.mean_abs_error"),
                    l.mean_abs_error,
                );
            }
            // Hybrid mode: export the shard's live background-traffic
            // state so STATS shows cache destaging and refresh progress
            // while the server runs.
            if let Some(h) = bg {
                let tag = &self.shard_label;
                m.set_gauge(
                    &format!("server.bg.{tag}.cache_occupancy"),
                    h.cache_occupancy,
                );
                m.set_gauge(
                    &format!("server.bg.{tag}.migrated_slots"),
                    h.migrated_slots as f64,
                );
                m.set_gauge(
                    &format!("server.bg.{tag}.refreshed_slots"),
                    h.refreshed_slots as f64,
                );
                m.set_gauge(&format!("server.bg.{tag}.bg_ops"), h.bg_ops as f64);
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

fn run_worker(
    spec: ShardSpec,
    cfg: SsdConfig,
    clock: VirtualClock,
    inflight: Arc<AtomicUsize>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    recorder: Arc<TraceRecorder>,
    rx: Receiver<ShardMsg>,
) {
    let mut w = Worker {
        shard_label: format!("shard{}", spec.index),
        sim: Worker::sim_for_generation(&cfg, 0),
        cfg,
        clock,
        inflight,
        metrics,
        recorder,
        pending: HashMap::new(),
        flush_waiters: Vec::new(),
        yield_waiters: Vec::new(),
        stopping: false,
        dead_until: None,
        generation: 0,
    };

    loop {
        // Ingest everything queued without blocking.
        while let Ok(msg) = rx.try_recv() {
            w.handle(msg);
        }

        w.maybe_restart();
        if w.dead_until.is_none() {
            w.advance_and_complete();
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
        if w.stopping && w.pending.is_empty() {
            return;
        }

        // Sleep until the next simulated event is due on the wall clock,
        // waking early for new messages. A dead shard just polls its
        // inbox until the restart deadline.
        let nap = if w.dead_until.is_some() {
            IDLE_POLL
        } else {
            match w.sim.next_event_time() {
                Some(t) => w.clock.wall_until(t).min(IDLE_POLL),
                None => IDLE_POLL,
            }
        };
        match rx.recv_timeout(nap) {
            Ok(msg) => w.handle(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => w.stopping = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_ssd::RetryKind;
    use std::sync::mpsc;

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
        let (tx, rx) = mpsc::channel();
        let spec = ShardSpec {
            index,
            base_offset: 0,
            span_bytes: 1 << 30,
        };
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        let handle = spawn_shard(spec, cfg, clock, Arc::clone(&metrics), recorder, rx, tx)
            .expect("spawn shard");
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
        shard.tx.send(ShardMsg::Submit(s, Vec::new())).unwrap();
    }

    fn next(rx: &Receiver<(u64, Response)>, what: &str) -> Response {
        rx.recv_timeout(Duration::from_secs(10)).expect(what).1
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
        handle
            .tx
            .send(ShardMsg::Crash {
                restart_after: Duration::from_millis(30),
            })
            .unwrap();

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
        src.tx.send(ShardMsg::Yield(yield_tx)).unwrap();
        let state_text = yield_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("yield must answer");
        // All 8 submissions preceded the Yield in the channel, so the
        // snapshot reflects every one of them.
        for _ in 0..8 {
            let r = next(&reply_rx, "yield must not drop in-flight requests");
            assert!(matches!(r, Response::Done { .. }), "unexpected: {r:?}");
        }
        let state = LearnerState::parse_text(&state_text).expect("learned mode exports state");
        assert!(state.stats.updates >= 8, "updates {}", state.stats.updates);

        // Adopt on the target: its learner resumes the source's counters.
        let (ack_tx, ack_rx) = mpsc::channel();
        dst.tx
            .send(ShardMsg::Adopt {
                state: state_text,
                ack: ack_tx,
            })
            .unwrap();
        ack_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("adopt must ack");
        let (y2_tx, y2_rx) = mpsc::channel();
        dst.tx.send(ShardMsg::Yield(y2_tx)).unwrap();
        let adopted = LearnerState::parse_text(
            &y2_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("second yield answers"),
        )
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
}
