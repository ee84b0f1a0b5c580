//! Shards: one simulator per LBA range, stepped by the event loop.
//!
//! The server partitions the logical address space into `n` equal spans;
//! shard `i` owns `[i * span, (i + 1) * span)` and runs a private
//! [`Simulator`] for it. A [`Shard`] is a plain value the event loop owns
//! and steps on its own thread: it submits each admitted request at the
//! virtual instant the loop stamped it with, advances the simulator to
//! the loop's virtual now — which is what turns the discrete-event core
//! into a live, wall-clock-paced service — and hands every answer back
//! with the key of the connection it goes to (DESIGN §8.3). Nothing here
//! blocks: the loop sleeps until the earliest [`Shard::next_wake`].
//!
//! # Crash injection
//!
//! A shard can be *killed* mid-load through [`Shard::crash`] (the hook
//! the `rif-chaos` fault-injection harness drives). A crash models the
//! abrupt death of the shard's simulator state:
//!
//! - every in-flight request is answered `ERROR(Internal)` — the I/O may
//!   or may not have executed, so the client must decide whether a retry
//!   is safe (reads: yes, writes: no);
//! - until the restart deadline the shard is *dead*: submissions stamped
//!   before it are bounced with `BUSY(Unavailable)` (never admitted,
//!   always safe to retry) instead of hanging;
//! - from the deadline on the shard serves from a fresh simulator (seed
//!   salted by the crash generation so replays stay deterministic).

use std::collections::HashMap;

use rif_events::trace::MetricsRegistry;
use rif_events::SimTime;
use rif_ssd::{Simulator, SsdConfig};
use rif_workloads::{IoOp, IoRequest};

use crate::protocol::{BusyReason, ErrorCode, Response};
use crate::recorder::TraceRecorder;

/// Where an answer goes: the event loop's generation-tagged key of the
/// connection the request came in on, plus, for a follower applying a
/// REPLICATE shipment, the `(range, seq)` its DONE is acked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplyTo {
    /// `slot | generation << 32`; a late answer for a recycled slot
    /// fails the generation check and is dropped.
    pub(crate) key: u64,
    /// `Some((range, seq))` for a replicated write: the shard's `Done`
    /// becomes the `REPL_ACK` the primary's watermark waits on.
    pub(crate) shipment: Option<(u32, u64)>,
}

impl ReplyTo {
    /// The journal this reply's request is recorded in: none when capture
    /// is off, nor for a replicated write, whose tag is the primary's,
    /// free to equal an unrelated client's.
    fn journal<'j>(&self, journal: &'j mut Option<TraceRecorder>) -> Option<&'j mut TraceRecorder> {
        journal.as_mut().filter(|_| self.shipment.is_none())
    }

    /// `resp` as the connection is owed it. Refusals (`Busy`, `Error`)
    /// pass through a shipment unchanged, so the primary sees it did not
    /// land.
    fn wrap(&self, resp: Response) -> Response {
        match (self.shipment, resp) {
            (Some((range, seq)), Response::Done { tag, .. }) => {
                Response::ReplAck { tag, range, seq }
            }
            (_, resp) => resp,
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

/// One admitted I/O on its way into a shard.
pub(crate) struct Submission {
    /// Client correlation tag, echoed in the response.
    pub(crate) tag: u64,
    /// Read or write.
    pub(crate) op: IoOp,
    /// Offset *rebased* into the shard's local dense LBA space.
    pub(crate) offset: u64,
    /// Transfer size.
    pub(crate) bytes: u32,
    /// Where the answer goes.
    pub(crate) reply: ReplyTo,
}

/// Salt mixed into the simulator seed on each crash generation, so a
/// restarted shard gets a fresh but still seed-deterministic stream.
const GENERATION_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A shard's metric names, built once with the shard.
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

/// One LBA range's simulator and the requests in flight in it. Every
/// method that answers a request hands the answer to `out` as
/// `(connection key, response)` and journals it if capture is on.
pub(crate) struct Shard {
    spec: ShardSpec,
    cfg: SsdConfig,
    keys: Keys,
    sim: Simulator,
    /// sim request id -> (client tag, where the answer goes)
    pending: HashMap<u64, (u64, ReplyTo)>,
    /// `Some(t)` while the shard is dead: submissions stamped before
    /// virtual time `t` bounce, and it restarts once time reaches `t`.
    dead_until: Option<SimTime>,
    /// Crash count; salts the restarted simulator's seed.
    generation: u64,
    /// The simulator clock may be ahead of the virtual clock: set by a
    /// fast-forward, cleared once the virtual clock catches up. Only
    /// then can an arrival land behind it (the simulator clamps it).
    ahead: bool,
}

impl Shard {
    pub(crate) fn new(spec: ShardSpec, cfg: SsdConfig) -> Shard {
        Shard {
            keys: Keys::new(spec.index),
            sim: Shard::sim_for_generation(&cfg, 0),
            spec,
            cfg,
            pending: HashMap::new(),
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

    /// The range this shard owns.
    pub(crate) fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Requests submitted and not yet answered: what the admission gate
    /// holds against `inflight_limit`.
    pub(crate) fn inflight(&self) -> usize {
        self.pending.len()
    }

    /// The virtual instant the shard next has something to do: its next
    /// simulated event, or its restart deadline while dead. `None` when
    /// it is idle.
    pub(crate) fn next_wake(&self) -> Option<SimTime> {
        self.dead_until.or_else(|| self.sim.next_event_time())
    }

    /// Leaves the dead window once `now` has reached its deadline, and
    /// says whether the shard is still dead.
    fn dead_at(&mut self, m: &mut MetricsRegistry, now: SimTime) -> bool {
        match self.dead_until {
            Some(t) if now >= t => {
                self.dead_until = None;
                m.inc("server.shard_restarts", 1);
                false
            }
            dead => dead.is_some(),
        }
    }

    /// Submits `s` to enter the simulator at `arrival`, and returns true;
    /// a dead shard instead answers `BUSY(Unavailable)` and returns false.
    pub(crate) fn submit(
        &mut self,
        m: &mut MetricsRegistry,
        journal: &mut Option<TraceRecorder>,
        arrival: SimTime,
        s: Submission,
        out: &mut impl FnMut(u64, Response),
    ) -> bool {
        if self.dead_at(m, arrival) {
            // Dead shard: never admit, never hang. The recorder retracts
            // the admission — this I/O never ran.
            if let Some(j) = s.reply.journal(journal) {
                j.reject(s.tag);
            }
            m.inc("server.busy.unavailable", 1);
            let busy = Response::Busy {
                tag: s.tag,
                reason: BusyReason::Unavailable,
            };
            out(s.reply.key, busy);
            return false;
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
        true
    }

    /// Advances the simulator to `horizon` (restarting a dead shard whose
    /// deadline it reaches) and answers what completed.
    pub(crate) fn advance(
        &mut self,
        m: &mut MetricsRegistry,
        journal: &mut Option<TraceRecorder>,
        horizon: SimTime,
        out: &mut impl FnMut(u64, Response),
    ) {
        if self.dead_at(m, horizon) {
            return;
        }
        self.sim.advance_until(horizon);
        self.ahead = self.ahead && self.sim.now() > horizon;
        self.answer(m, journal, horizon, out);
    }

    /// FLUSH, a migration's drain and shutdown: advances past wall-clock
    /// pacing until nothing is in flight, answering everything. Later
    /// submissions clamp their arrival to the simulator clock until the
    /// virtual clock (`now`) catches up, so time stays monotonic. A dead
    /// shard has nothing in flight: its crash answered it all.
    pub(crate) fn fast_forward(
        &mut self,
        m: &mut MetricsRegistry,
        journal: &mut Option<TraceRecorder>,
        now: SimTime,
        out: &mut impl FnMut(u64, Response),
    ) {
        if self.dead_at(m, now) {
            return;
        }
        self.sim.advance_until(SimTime::MAX);
        self.ahead = true;
        self.answer(m, journal, now, out);
    }

    /// Answers the simulator's completions, `now` being the virtual
    /// instant they are answered at.
    fn answer(
        &mut self,
        m: &mut MetricsRegistry,
        journal: &mut Option<TraceRecorder>,
        now: SimTime,
        out: &mut impl FnMut(u64, Response),
    ) {
        let done = self.sim.drain_completions();
        if done.is_empty() {
            return;
        }
        let learner = self.sim.learner_summary();
        let bg = self.sim.bg_summary();
        m.inc("server.completed", done.len() as u64);
        m.inc(&self.keys.completed, done.len() as u64);
        for c in &done {
            m.observe("server.latency.virtual", c.latency());
            // How late the loop answers what the simulator already
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
        for c in done {
            if let Some((tag, reply)) = self.pending.remove(&c.id) {
                if let Some(j) = reply.journal(journal) {
                    j.complete(tag, true);
                }
                let latency_ns = c.latency().as_ns();
                out(reply.key, reply.wrap(Response::Done { tag, latency_ns }));
            }
        }
    }

    /// The learner snapshot handed over during a migration (empty in
    /// oracle mode), bounded so it always fits in one wire frame
    /// (lowest-numbered blocks win). Fast-forward first, so that it
    /// covers everything admitted before it.
    pub(crate) fn learner_snapshot(&self) -> String {
        let cap = crate::protocol::MAX_FRAME_BYTES as usize - 64;
        self.sim
            .learner_state()
            .map(|s| s.to_text_capped(cap))
            .unwrap_or_default()
    }

    /// Preseeds the threshold learner from serialized state received
    /// during a migration. Malformed or empty state is ignored (the
    /// learner is a performance hint, not correctness).
    pub(crate) fn adopt(&mut self, state: &str) {
        if let Ok(s) = rif_ssd::LearnerState::parse_text(state) {
            self.sim.preseed_learner(&s);
        }
    }

    /// Kills the simulator state: fails every pending request with
    /// `ERROR(Internal)` and stays dead until virtual time `deadline`
    /// (a crash inside the window extends it).
    pub(crate) fn crash(
        &mut self,
        m: &mut MetricsRegistry,
        journal: &mut Option<TraceRecorder>,
        deadline: SimTime,
        out: &mut impl FnMut(u64, Response),
    ) {
        m.inc("server.shard_crashes", 1);
        m.inc(&self.keys.crashes, 1);
        for (_, (tag, reply)) in self.pending.drain() {
            if let Some(j) = reply.journal(journal) {
                j.complete(tag, false);
            }
            let code = ErrorCode::Internal;
            out(reply.key, reply.wrap(Response::Error { tag, code }));
        }
        // Replace the simulator now so crashed state is gone immediately;
        // the restarted shard serves from this fresh one.
        self.generation += 1;
        self.sim = Self::sim_for_generation(&self.cfg, self.generation);
        self.ahead = false;
        self.dead_until = Some(self.dead_until.map_or(deadline, |t| t.max(deadline)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_events::SimDuration;
    use rif_ssd::RetryKind;

    /// The connection every test request comes from.
    const KEY: u64 = 7;

    /// Shard `index`, spanning 1 GiB from offset 0.
    fn shard(index: usize, cfg: SsdConfig) -> Shard {
        let spec = ShardSpec {
            index,
            base_offset: 0,
            span_bytes: 1 << 30,
        };
        Shard::new(spec, cfg)
    }

    fn io(tag: u64, op: IoOp, offset: u64, bytes: u32) -> Submission {
        Submission {
            tag,
            op,
            offset,
            bytes,
            reply: ReplyTo {
                key: KEY,
                shipment: None,
            },
        }
    }

    /// Submits `io` at `arrival` with capture off, its answer dropped:
    /// true if the shard took it.
    fn take(s: &mut Shard, m: &mut MetricsRegistry, arrival: SimTime, io: Submission) -> bool {
        s.submit(m, &mut None, arrival, io, &mut |_, _| {})
    }

    /// Answers as the loop would see them: `(connection key, response)`.
    type Answers = Vec<(u64, Response)>;

    fn collect(answers: &mut Answers) -> impl FnMut(u64, Response) + '_ {
        |key, resp| answers.push((key, resp))
    }

    /// Steps `shard` event by event, as the loop does when it sleeps until
    /// `next_wake`, until `n` answers are out or nothing is left to do.
    fn step_until(
        s: &mut Shard,
        m: &mut MetricsRegistry,
        r: &mut Option<TraceRecorder>,
        n: usize,
    ) -> Answers {
        let mut answers = Vec::new();
        while answers.len() < n {
            let Some(t) = s.next_wake() else { break };
            s.advance(m, r, t, &mut collect(&mut answers));
        }
        answers
    }

    fn small() -> SsdConfig {
        SsdConfig::small(RetryKind::Rif, 2000)
    }

    fn learned() -> SsdConfig {
        let mut cfg = small();
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
    fn completions_are_answered_at_their_due_instants() {
        let (mut m, mut rec) = (MetricsRegistry::new(), None);
        let mut s = shard(0, small());
        let arrival = SimTime::from_us(10);
        for (tag, op) in [(1, IoOp::Read), (2, IoOp::Write)] {
            assert!(take(&mut s, &mut m, arrival, io(tag, op, tag << 20, 4096)));
        }
        assert_eq!(s.inflight(), 2);
        let mut answered = Vec::new();
        while let Some(t) = s.next_wake() {
            // Nothing is answered a nanosecond before an event is due…
            let mut early = Vec::new();
            s.advance(
                &mut m,
                &mut rec,
                t - SimDuration::from_ns(1),
                &mut collect(&mut early),
            );
            assert!(early.is_empty(), "answered ahead of its event: {early:?}");
            // …and what that event completes is answered at it.
            let mut at_t = Vec::new();
            s.advance(&mut m, &mut rec, t, &mut collect(&mut at_t));
            for (key, resp) in at_t {
                assert_eq!(key, KEY);
                let Response::Done { tag, latency_ns } = resp else {
                    panic!("expected DONE, got {resp:?}");
                };
                assert_eq!(arrival.as_ns() + latency_ns, t.as_ns(), "tag {tag}");
                answered.push(tag);
            }
        }
        answered.sort_unstable();
        assert_eq!(answered, [1, 2]);
        assert_eq!(s.inflight(), 0);
        assert_eq!(m.counter("server.completed"), 2);
        assert_eq!(m.counter("server.completed.shard0"), 2);
        let lag = m.histogram("server.pacing.lag").expect("pacing lag");
        assert_eq!(lag.count(), 2, "one pacing-lag sample per completion");
        assert_eq!(lag.max(), SimDuration::ZERO, "answered at the due instant");
    }

    #[test]
    fn crashed_worker_fails_pending_and_bounces_then_restarts() {
        let (mut m, mut rec) = (MetricsRegistry::new(), None);
        let mut s = shard(0, small());
        assert!(take(
            &mut s,
            &mut m,
            SimTime::ZERO,
            io(7, IoOp::Read, 0, 4096)
        ));
        // Crash before the read can complete: it fails, fate unknown.
        let deadline = SimTime::from_ms(30);
        let mut answers = Vec::new();
        s.crash(&mut m, &mut rec, deadline, &mut collect(&mut answers));
        let internal = Response::Error {
            tag: 7,
            code: ErrorCode::Internal,
        };
        assert_eq!(answers, [(KEY, internal)]);
        assert_eq!(s.inflight(), 0);
        assert_eq!(s.next_wake(), Some(deadline), "dead: wake at the restart");

        // Stamped before the deadline: bounced at once, never admitted.
        let mut answers = Vec::new();
        let early = deadline - SimDuration::from_ns(1);
        assert!(!s.submit(
            &mut m,
            &mut rec,
            early,
            io(8, IoOp::Read, 0, 4096),
            &mut collect(&mut answers)
        ));
        let unavailable = Response::Busy {
            tag: 8,
            reason: BusyReason::Unavailable,
        };
        assert_eq!(answers, [(KEY, unavailable)]);
        assert_eq!(s.inflight(), 0);

        // Still dead short of the deadline; restarted at it.
        s.advance(&mut m, &mut rec, early, &mut |_, _| {
            panic!("a dead shard answers nothing")
        });
        assert_eq!(m.counter("server.shard_restarts"), 0);
        s.advance(&mut m, &mut rec, deadline, &mut |_, _| {
            panic!("nothing is in flight")
        });
        assert_eq!(m.counter("server.shard_restarts"), 1);
        assert!(take(
            &mut s,
            &mut m,
            deadline,
            io(9, IoOp::Write, 4096, 4096)
        ));
        let served = step_until(&mut s, &mut m, &mut rec, 1);
        assert!(
            matches!(served[..], [(KEY, Response::Done { tag: 9, .. })]),
            "restarted shard must serve: {served:?}"
        );

        assert_eq!(m.counter("server.shard_crashes"), 1);
        assert_eq!(m.counter("server.shard_crashes.shard0"), 1);
        assert_eq!(m.counter("server.busy.unavailable"), 1);
    }

    #[test]
    fn a_replicated_write_leaves_the_capture_journal_alone() {
        use rif_workloads::CaptureOutcome;

        let (mut m, mut journal) = (MetricsRegistry::new(), TraceRecorder::new());
        let mut s = shard(0, small());
        // A client request journaled under tag 5, not yet answered…
        journal.admit(5, 0, IoOp::Read, 0, 4096, 0, 0);
        let mut rec = Some(journal);
        // …and a primary's shipment that happens to carry tag 5 too:
        // shipper tags count from 1 just as client tags do.
        let mut shipment = io(5, IoOp::Write, 4096, 4096);
        shipment.reply.shipment = Some((0, 1));
        assert!(s.submit(&mut m, &mut rec, SimTime::ZERO, shipment, &mut |_, _| {}));
        let ack = step_until(&mut s, &mut m, &mut rec, 1);
        let want = Response::ReplAck {
            tag: 5,
            range: 0,
            seq: 1,
        };
        assert_eq!(ack, [(KEY, want)]);
        // The shipment's DONE resolved nothing: the client's record is
        // still open, which a capture renders as an error.
        let capture = rec.expect("capture on").capture();
        assert_eq!(capture.len(), 1);
        assert_eq!(capture.records[0].outcome, CaptureOutcome::Error);
    }

    #[test]
    fn learned_shard_exports_learner_gauges() {
        let (mut m, mut rec) = (MetricsRegistry::new(), None);
        let mut s = shard(0, learned());
        for i in 0..8u64 {
            assert!(take(
                &mut s,
                &mut m,
                SimTime::ZERO,
                io(i, IoOp::Read, i * 65536, 65536)
            ));
        }
        let answers = step_until(&mut s, &mut m, &mut rec, 8);
        assert_eq!(answers.len(), 8);
        assert!(answers
            .iter()
            .all(|(_, r)| matches!(r, Response::Done { .. })));
        assert!(
            m.gauge("server.learner.shard0.updates").unwrap_or(0.0) > 0.0,
            "learner update gauge missing from STATS metrics"
        );
        let err = m
            .gauge("server.learner.shard0.mean_abs_error")
            .expect("error gauge present");
        assert!(err.is_finite() && err >= 0.0);
        assert_eq!(m.counter("server.completed.shard0"), 8);
    }

    #[test]
    fn hybrid_shard_exports_bg_gauges() {
        use crate::server::{shard_config, ServerConfig};

        // The server's --hybrid device (eager destage) on this suite's
        // geometry.
        let serving = ServerConfig {
            hybrid: true,
            ..ServerConfig::default()
        };
        let cfg = SsdConfig {
            hybrid: shard_config(&serving, 0).hybrid,
            ..small()
        };
        let (mut m, mut rec) = (MetricsRegistry::new(), None);
        let mut s = shard(0, cfg);
        // Writes land in the SLC cache; the eager drain migrates them as
        // soon as the scheduler ticks.
        for i in 0..8u64 {
            assert!(take(
                &mut s,
                &mut m,
                SimTime::ZERO,
                io(i, IoOp::Write, i * 65536, 65536)
            ));
        }
        assert_eq!(step_until(&mut s, &mut m, &mut rec, 8).len(), 8);
        // Leave room for several scheduler ticks, then read: the
        // completion drain re-exports the bg gauges.
        let later = s.sim.now() + SimDuration::from_ms(20);
        s.advance(&mut m, &mut rec, later, &mut |_, _| {});
        for i in 8..16u64 {
            assert!(take(
                &mut s,
                &mut m,
                later,
                io(i, IoOp::Read, i * 65536, 65536)
            ));
        }
        assert_eq!(step_until(&mut s, &mut m, &mut rec, 8).len(), 8);
        assert!(
            m.gauge("server.bg.shard0.migrated_slots").unwrap_or(0.0) > 0.0,
            "eager destage must have migrated the cached writes"
        );
        assert!(m.gauge("server.bg.shard0.bg_ops").unwrap_or(0.0) > 0.0);
        let occ = m
            .gauge("server.bg.shard0.cache_occupancy")
            .expect("occupancy gauge present");
        assert!((0.0..=1.0).contains(&occ));
    }

    #[test]
    fn yield_then_adopt_carries_learner_state_across_workers() {
        use rif_ssd::LearnerState;

        let (mut m, mut rec) = (MetricsRegistry::new(), None);
        let (mut src, mut dst) = (shard(0, learned()), shard(1, learned()));

        // Warm the source learner with everything still in flight when
        // the drain starts: the fast-forward must cover all of it.
        for i in 0..8u64 {
            assert!(take(
                &mut src,
                &mut m,
                SimTime::ZERO,
                io(i, IoOp::Read, i * 65536, 65536)
            ));
        }
        let mut answers = Vec::new();
        src.fast_forward(&mut m, &mut rec, SimTime::ZERO, &mut collect(&mut answers));
        assert_eq!(answers.len(), 8, "the drain answers every request");
        assert_eq!(src.inflight(), 0);
        let state_text = src.learner_snapshot();
        let state = LearnerState::parse_text(&state_text).expect("learned mode exports state");
        assert!(state.stats.updates >= 8, "updates {}", state.stats.updates);

        // Adopt on the target: its learner resumes the source's counters.
        dst.adopt(&state_text);
        let adopted = LearnerState::parse_text(&dst.learner_snapshot()).expect("adopted parses");
        assert_eq!(adopted, state, "state must survive the handoff intact");

        // The source keeps serving after a drain — no dead window. Its
        // simulator clock ran ahead; the arrival clamps to it.
        assert!(take(
            &mut src,
            &mut m,
            SimTime::from_us(1),
            io(99, IoOp::Read, 0, 4096)
        ));
        let served = step_until(&mut src, &mut m, &mut rec, 1);
        assert!(
            matches!(served[..], [(KEY, Response::Done { tag: 99, .. })]),
            "source keeps serving after a drain: {served:?}"
        );
    }
}
