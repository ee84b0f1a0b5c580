//! The discrete-event SSD engine.
//!
//! Resources and their interactions mirror the target SSD of Fig. 5:
//!
//! * **dies** execute sense / program / erase commands, one at a time, all
//!   planes in lockstep (multi-plane operation);
//! * **channels** serialize page DMA transfers (tDMA per 16-KiB page); a
//!   read transfer may only start when the channel's ECC engine has buffer
//!   space — otherwise the channel sits in ECCWAIT (§III-B3);
//! * **channel-level ECC engines** decode one page at a time with an
//!   RBER-dependent latency (1–20 µs), holding buffered pages until done;
//! * the **host link** serializes completed read data and incoming write
//!   data at 8 GB/s.
//!
//! Host requests are admitted up to the queue depth; each read request
//! splits into per-die *slot groups* (up to 4 pages sensed by one
//! multi-plane command) that flow through sense → transfer → decode, with
//! scheme-specific retry behaviour on decode failure.

use std::collections::VecDeque;

use rif_events::hash::IntBuildHasher;
use rif_events::trace::{labeled, MetricsRegistry, TraceSink, Tracer};
use rif_events::{EventQueue, LatencyHistogram, SimDuration, SimRng, SimTime, UtilizationTracker};
use rif_flash::chip::FlashTiming;
use rif_flash::geometry::PageKind;
use rif_flash::learn::{ReadOutcome, ThresholdLearner};
use rif_flash::rber::BlockProfile;
use rif_flash::swift_read::SwiftRead;
use rif_flash::vth::OperatingPoint;
use rif_workloads::{IoOp, IoRequest, Trace};

use crate::config::SsdConfig;
use crate::ftl::{Ftl, GcWork, SlotLocation};
use crate::hybrid::{
    AmpTable, BgKind, HybridConfig, MigrationPolicy, AMPLIFIED_RBER_CAP, AMPLIFIED_RBER_FLOOR,
};
use crate::refresh::RefreshPolicy;
use crate::report::{ChannelUsage, HybridSummary, LearnerSummary, SimReport};
use crate::retention::RetentionTracker;
use crate::retry::RetryKind;

const ST_IDLE: usize = 0;
const ST_COR: usize = 1;
const ST_UNCOR: usize = 2;
const ST_ECCWAIT: usize = 3;

/// Trace names for the four channel states, indexed by `ST_*`.
const ST_NAMES: [&str; 4] = ["IDLE", "COR", "UNCOR", "ECCWAIT"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive(usize),
    DieDone(usize, u32),
    ChanDone(usize),
    EccDone(usize),
    HostDone,
    /// Periodic background-scheduler tick (hybrid mode only). Disarms
    /// itself when no requests are left, so `run()` still terminates.
    BgTick,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupPhase {
    /// First sense + transfer + decode.
    Initial,
    /// SENC only: transferring sentinel cells before the corrective read.
    SentinelRead,
    /// Corrective re-read after a decode failure.
    Retry,
}

#[derive(Debug)]
struct ReadGroup {
    req: usize,
    slot: u64,
    loc: SlotLocation,
    n_pages: usize,
    kind: PageKind,
    /// Operating point the group is read at (drift-adjusted when the
    /// drift clock runs).
    op: OperatingPoint,
    /// Process-variation profile of the block holding the slot.
    block: BlockProfile,
    /// Global block id — the learner's key.
    block_id: u64,
    rber_optimal: f64,
    /// RBER of the currently sensed data.
    cur_rber: f64,
    /// RBER the first decode attempt saw (the syndrome-weight signal the
    /// learned controller observes).
    first_rber: f64,
    /// Uniform V_REF offset the latest ones-count re-calibration settled
    /// on (learned mode only).
    recal_offset: Option<f64>,
    /// Whether every page of the current phase fails its decode.
    decode_fails: bool,
    /// Per-page latency the ECC engine spends in the current phase.
    decode_duration: SimDuration,
    /// Pages still owed a decode (or sentinel transfer) in the current
    /// phase.
    pages_remaining: usize,
    phase: GroupPhase,
    attempt: u32,
    /// RiF: whether the ODEAR engine retried before the transfer.
    rif_retried_in_die: bool,
    /// RBER amplification of the cell mode holding the slot (1 for TLC;
    /// set from the [`AmpTable`] in hybrid mode).
    amp: f64,
    /// Trace span covering the group's life (0 when tracing is off).
    span: u64,
}

#[derive(Debug)]
enum DieCmd {
    Sense {
        group: usize,
        duration: SimDuration,
    },
    Program {
        req: usize,
        duration: SimDuration,
        suspensions: u8,
    },
    /// Background work occupying the die: GC relocation+erase, SLC→QLC
    /// migration copyback, or a refresh rewrite.
    Bg {
        kind: BgKind,
        duration: SimDuration,
        suspensions: u8,
    },
}

#[derive(Debug, Default)]
struct Die {
    busy: bool,
    current: Option<DieCmd>,
    queue: VecDeque<DieCmd>,
    /// Invalidates in-flight DieDone events after a suspension.
    epoch: u32,
    /// When the current command will finish (valid while busy).
    busy_until: SimTime,
    /// Trace span of the in-flight command (0 when tracing is off).
    current_span: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XferKind {
    /// Read page headed for the ECC engine.
    ReadPage { group: usize },
    /// SENC sentinel-cell read (overhead; bypasses the ECC buffer).
    Sentinel { group: usize },
    /// Write data headed for a die program.
    WritePage { job: usize },
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    kind: XferKind,
    uncor: bool,
}

#[derive(Debug)]
struct Channel {
    busy: bool,
    current: Option<Transfer>,
    queue: VecDeque<Transfer>,
    tracker: UtilizationTracker,
    /// Trace span of the in-flight transfer (0 when tracing is off).
    current_span: u64,
}

#[derive(Debug, Default)]
struct EccEngine {
    busy: bool,
    current: Option<usize>, // group id
    queue: VecDeque<usize>,
    /// Pages occupying the input buffer (reserved at transfer start).
    pending: usize,
    /// Trace span of the in-flight decode (0 when tracing is off).
    current_span: u64,
    /// Start of the in-flight decode (valid while busy).
    busy_since: SimTime,
    /// Accumulated decoding time, for the utilization metric.
    busy_total: SimDuration,
}

#[derive(Debug)]
struct Request {
    arrival: SimTime,
    op: IoOp,
    offset: u64,
    bytes: u32,
    remaining: usize,
    done: bool,
    /// Trace span from admission to completion (0 when tracing is off).
    span: u64,
}

/// A finished host request, as surfaced by
/// [`Simulator::drain_completions`].
///
/// The service layer built on the stepper API uses these to answer the
/// wire requests it injected with [`Simulator::submit`]; batch callers
/// can ignore them (the [`SimReport`] aggregates the same data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id returned by the [`Simulator::submit`] call that started
    /// this request (its position in submission order).
    pub id: u64,
    /// Read or write.
    pub op: IoOp,
    /// Starting logical byte address.
    pub offset: u64,
    /// Request length in bytes.
    pub bytes: u32,
    /// When the request arrived (after any clamping to the clock).
    pub arrival: SimTime,
    /// When the last byte reached the host (reads) or the program
    /// finished (writes).
    pub finished: SimTime,
}

impl Completion {
    /// End-to-end latency on the simulation clock.
    pub fn latency(&self) -> SimDuration {
        self.finished.since(self.arrival)
    }
}

#[derive(Debug)]
struct WriteJob {
    req: usize,
    die_linear: usize,
    remaining_transfers: usize,
    program_duration: SimDuration,
    gc_duration: SimDuration,
}

#[derive(Debug, Clone, Copy)]
enum HostJob {
    ReadCompletion { req: usize },
    WriteIngress { req: usize },
}

/// Die time of a garbage collection: one copyback per relocated slot
/// plus the block erase.
fn gc_duration(t: &FlashTiming, work: &Option<GcWork>) -> SimDuration {
    work.as_ref().map_or(SimDuration::ZERO, |w| {
        (t.t_r + t.t_prog) * w.relocated as u64 + t.t_bers
    })
}

/// Live state of the hybrid subsystem (DESIGN §14): the precomputed
/// cell-mode RBER amplification table and the background scheduler's
/// bookkeeping. The mapping itself is always `Simulator::ftl`.
struct HybridState {
    amp: AmpTable,
    conf: HybridConfig,
    /// Whether a `BgTick` event is pending in the queue.
    tick_armed: bool,
    /// Next position in the FTL's touched-slot list the refresh scan
    /// examines (wraps).
    refresh_cursor: usize,
    migrated_slots: u64,
    refreshed_slots: u64,
    forced_evictions: u64,
    bg_ops: u64,
}

/// The simulator: owns the configuration, consumes a trace, produces a
/// [`SimReport`].
///
/// # Example
///
/// ```no_run
/// use rif_ssd::{Simulator, SsdConfig, RetryKind};
/// use rif_workloads::WorkloadProfile;
///
/// let trace = WorkloadProfile::by_name("Ali124").unwrap().generate(5_000, 1);
/// let report = Simulator::new(SsdConfig::paper(RetryKind::Rif, 1000)).run(&trace);
/// println!("{:.0} MB/s", report.io_bandwidth_mbps());
/// ```
pub struct Simulator {
    cfg: SsdConfig,
    rng: SimRng,
    events: EventQueue<Ev>,
    /// The one mapping layer; it has an SLC cache region only when the
    /// hybrid configuration asks for one.
    ftl: Ftl,
    /// Hybrid SLC/QLC subsystem: cell-mode amplification and the
    /// background scheduler. `None` is the pure-TLC device.
    hybrid: Option<HybridState>,
    retention: RetentionTracker,
    dies: Vec<Die>,
    channels: Vec<Channel>,
    ecc: Vec<EccEngine>,
    host_busy: bool,
    host_queue: VecDeque<HostJob>,
    host_current: Option<HostJob>,
    requests: Vec<Request>,
    groups: Vec<ReadGroup>,
    /// Slots of `groups` whose group finished, reused before the table
    /// grows. A group id is only an index into the table, so the table
    /// stays the size of what is in flight instead of the whole run.
    free_groups: Vec<usize>,
    write_jobs: Vec<WriteJob>,
    backlog: VecDeque<usize>,
    outstanding: usize,
    completions: Vec<Completion>,
    // Online threshold learning (oracle mode leaves all three inert).
    learner: Option<ThresholdLearner>,
    swift: Option<SwiftRead>,
    learn_err_sum: f64,
    learn_err_samples: u64,
    // Observability (both off by default and free when off).
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
    /// Trace span of the in-flight host-link job.
    host_span: u64,
    // Statistics.
    read_latency: LatencyHistogram,
    completed_requests: u64,
    completed_bytes: u64,
    read_bytes: u64,
    decode_failures: u64,
    in_die_retries: u64,
    uncor_page_transfers: u64,
    page_senses: u64,
    last_completion: SimTime,
}

impl Simulator {
    /// Builds a simulator from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`SsdConfig::validate`]).
    pub fn new(cfg: SsdConfig) -> Self {
        Self::with_hasher(cfg, IntBuildHasher::default())
    }

    /// [`Simulator::new`] with the hasher of the FTL's and the retention
    /// tracker's maps given. No report depends on it; the test that
    /// proves so runs under two seeds.
    fn with_hasher(cfg: SsdConfig, hasher: IntBuildHasher) -> Self {
        cfg.validate();
        let n_dies = cfg.geometry.channels * cfg.geometry.dies_per_channel;
        let channels = (0..cfg.geometry.channels)
            .map(|_| Channel {
                busy: false,
                current: None,
                queue: VecDeque::new(),
                tracker: UtilizationTracker::new(4),
                current_span: 0,
            })
            .collect();
        let learner = cfg
            .learning
            .learner_config()
            .map(|c| ThresholdLearner::new(*c));
        let swift = learner
            .as_ref()
            .map(|_| SwiftRead::new(cfg.error_model.tlc().clone()));
        let cache_fraction = cfg.hybrid.as_ref().map_or(0.0, |h| h.cache_fraction);
        let hybrid = cfg.hybrid.clone().map(|conf| HybridState {
            // The table covers ages up to twice the refresh horizon;
            // clamped lookups handle deeper drift.
            amp: AmpTable::build(cfg.pe_cycles, cfg.refresh_days * 2.0),
            conf,
            tick_armed: false,
            refresh_cursor: 0,
            migrated_slots: 0,
            refreshed_slots: 0,
            forced_evictions: 0,
            bg_ops: 0,
        });
        Simulator {
            rng: SimRng::seed_from(cfg.seed),
            ftl: Ftl::with_hasher(cfg.geometry, cache_fraction, hasher),
            hybrid,
            learner,
            swift,
            learn_err_sum: 0.0,
            learn_err_samples: 0,
            retention: RetentionTracker::with_hasher(cfg.refresh_days, cfg.seed ^ 0xA5E, hasher),
            dies: (0..n_dies).map(|_| Die::default()).collect(),
            channels,
            ecc: (0..cfg.geometry.channels)
                .map(|_| EccEngine::default())
                .collect(),
            host_busy: false,
            host_queue: VecDeque::new(),
            host_current: None,
            events: EventQueue::new(),
            requests: Vec::new(),
            groups: Vec::new(),
            free_groups: Vec::new(),
            write_jobs: Vec::new(),
            backlog: VecDeque::new(),
            outstanding: 0,
            completions: Vec::new(),
            tracer: Tracer::disabled(),
            metrics: None,
            host_span: 0,
            read_latency: LatencyHistogram::new(),
            completed_requests: 0,
            completed_bytes: 0,
            read_bytes: 0,
            decode_failures: 0,
            in_die_retries: 0,
            uncor_page_transfers: 0,
            page_senses: 0,
            last_completion: SimTime::ZERO,
            cfg,
        }
    }

    /// Attaches a trace sink: the run emits the request-lifecycle span
    /// tree, engine counters, and channel-state records described in the
    /// [`rif_events::trace`] schema. Without a sink every trace callsite
    /// is a single predictable branch.
    pub fn with_tracer(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.tracer = Tracer::to_sink(sink);
        self
    }

    /// Enables the in-run [`MetricsRegistry`]; the populated registry is
    /// returned in [`SimReport::metrics`].
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsRegistry::new());
        self
    }

    /// True when any observability output is being collected.
    #[inline]
    fn observing(&self) -> bool {
        self.tracer.enabled() || self.metrics.is_some()
    }

    /// Emits a counter increment to the trace and the metrics registry.
    fn count(&mut self, now: SimTime, key: &str, delta: u64) {
        self.tracer.counter(now, key, delta);
        if let Some(m) = &mut self.metrics {
            m.inc(key, delta);
        }
    }

    /// Switches a channel's utilization state, mirroring real state
    /// changes into the trace.
    fn switch_chan(&mut self, now: SimTime, ch: usize, state: usize) {
        if self.tracer.enabled() && self.channels[ch].tracker.state() != state {
            self.tracer
                .state(now, &format!("chan:{ch}"), ST_NAMES[state]);
        }
        self.channels[ch].tracker.switch(now, state);
    }

    /// Records a die's queue depth after it changed.
    fn note_die_queue(&mut self, now: SimTime, die: usize) {
        if !self.observing() {
            return;
        }
        let depth = self.dies[die].queue.len();
        if self.tracer.enabled() {
            self.tracer
                .gauge(now, &format!("die.{die}.qdepth"), depth as f64);
        }
        if let Some(m) = &mut self.metrics {
            m.max_gauge("die.max_qdepth", depth as f64);
        }
    }

    /// Runs the trace to completion and returns the report.
    ///
    /// This is a thin wrapper over the incremental stepper API: every
    /// request is [`submitted`](Simulator::submit) up-front, the event
    /// loop is advanced past the last event, and the accumulated state is
    /// [`finished`](Simulator::finish) into a report. Driving the stepper
    /// by hand with the same trace yields a byte-identical canonical
    /// report (see the `sim_determinism_golden` suite).
    pub fn run(mut self, trace: &Trace) -> SimReport {
        for r in trace.iter() {
            self.submit(*r);
        }
        self.advance_until(SimTime::MAX);
        self.finish()
    }

    // ----- stepper API ---------------------------------------------------

    /// Injects one host request into the live event loop and returns its
    /// id (submission order, also the [`Completion::id`] it completes
    /// under).
    ///
    /// An arrival earlier than the simulation clock is clamped to the
    /// clock: the request arrives "now". This is what lets a service
    /// layer feed wall-clock-paced arrivals into a running simulation
    /// without ever scheduling into the past.
    pub fn submit(&mut self, r: IoRequest) -> u64 {
        let id = self.requests.len();
        let arrival = r.arrival.max(self.events.now());
        self.requests.push(Request {
            arrival,
            op: r.op,
            offset: r.offset,
            bytes: r.bytes,
            remaining: 0,
            done: false,
            span: 0,
        });
        self.events.schedule(arrival, Ev::Arrive(id));
        self.arm_bg_tick();
        id as u64
    }

    /// Schedules the next background-scheduler tick if hybrid mode is on
    /// and none is pending.
    fn arm_bg_tick(&mut self) {
        let tick = match self.hybrid.as_mut() {
            Some(h) if !h.tick_armed => {
                h.tick_armed = true;
                h.conf.bg.tick
            }
            _ => return,
        };
        let at = self.events.now() + tick;
        self.events.schedule(at, Ev::BgTick);
    }

    /// Processes every pending event with a timestamp at or before
    /// `limit`, returning the number of events handled. The clock never
    /// moves past the last handled event, so a later [`Simulator::submit`]
    /// may still arrive anywhere in `(clock, limit]`.
    pub fn advance_until(&mut self, limit: SimTime) -> usize {
        let mut handled = 0;
        while let Some(at) = self.events.peek_time() {
            if at > limit {
                break;
            }
            let (now, ev) = self.events.pop().expect("peeked event exists");
            match ev {
                Ev::Arrive(i) => self.on_arrive(now, i),
                Ev::DieDone(d, epoch) => self.on_die_done(now, d, epoch),
                Ev::ChanDone(c) => self.on_chan_done(now, c),
                Ev::EccDone(c) => self.on_ecc_done(now, c),
                Ev::HostDone => self.on_host_done(now),
                Ev::BgTick => self.on_bg_tick(now),
            }
            handled += 1;
        }
        handled
    }

    /// Takes the requests completed since the last drain, in completion
    /// order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// The simulation clock (timestamp of the last handled event).
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Number of pending events in the queue.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Submitted requests that have not completed yet (in flight or
    /// backlogged behind the queue depth).
    pub fn unfinished_requests(&self) -> usize {
        self.requests.len() - self.completed_requests as usize
    }

    /// Snapshot of the threshold learner's state (`None` in oracle mode).
    /// Live during a stepper-driven run, so a serving layer can export
    /// the learner's progress while requests are still in flight.
    pub fn learner_summary(&self) -> Option<LearnerSummary> {
        self.learner.as_ref().map(|l| {
            let s = l.stats();
            LearnerSummary {
                updates: s.updates,
                recalibrations: s.recalibrations,
                clamps: s.clamps,
                blocks_tracked: l.blocks_tracked() as u64,
                mean_abs_error: if self.learn_err_samples == 0 {
                    0.0
                } else {
                    self.learn_err_sum / self.learn_err_samples as f64
                },
            }
        })
    }

    /// Exports the threshold learner's full transferable state (`None`
    /// in oracle mode). The cluster layer serializes this to hand a
    /// migrating shard's learned offsets to the target node.
    pub fn learner_state(&self) -> Option<rif_flash::learn::LearnerState> {
        self.learner.as_ref().map(|l| l.export_state())
    }

    /// Preseeds the threshold learner from a transferred snapshot,
    /// replacing any estimates and counters accumulated so far. A no-op
    /// in oracle mode (there is no learner to seed).
    pub fn preseed_learner(&mut self, state: &rif_flash::learn::LearnerState) {
        if let Some(cfg) = self.cfg.learning.learner_config() {
            self.learner = Some(ThresholdLearner::restore(*cfg, state));
        }
    }

    /// Consumes the simulator and produces the aggregate report for
    /// everything simulated so far.
    pub fn finish(mut self) -> SimReport {
        let end = self.last_completion;
        let learner_summary = self.learner_summary();
        let hybrid_summary = self.bg_summary();
        self.tracer.flush();
        let per_channel_usage: Vec<ChannelUsage> = std::mem::take(&mut self.channels)
            .into_iter()
            .map(|c| ChannelUsage::from_fractions(&c.tracker.fractions(end)))
            .collect();
        let metrics = self.metrics.take().map(|mut m| {
            // End-of-run gauges: channel/ECC utilization and the
            // scheme-labeled retry totals of this run.
            let scheme = self.cfg.retry.label();
            let span_ns = end.as_ns();
            for (i, u) in per_channel_usage.iter().enumerate() {
                m.set_gauge(&format!("chan.{i}.cor_frac"), u.cor);
                m.set_gauge(&format!("chan.{i}.uncor_frac"), u.uncor);
                m.set_gauge(&format!("chan.{i}.eccwait_frac"), u.eccwait);
            }
            let mean = ChannelUsage::mean(&per_channel_usage);
            m.set_gauge("chan.mean.eccwait_frac", mean.eccwait);
            m.set_gauge("chan.mean.wasted_frac", mean.wasted());
            for (i, e) in self.ecc.iter().enumerate() {
                let util = if span_ns == 0 {
                    0.0
                } else {
                    e.busy_total.as_ns() as f64 / span_ns as f64
                };
                m.set_gauge(&format!("ecc.{i}.util"), util);
            }
            m.inc(&labeled("retries.in_die", scheme), self.in_die_retries);
            m.inc(&labeled("decode.failures", scheme), self.decode_failures);
            if let Some(ls) = &learner_summary {
                m.set_gauge("learner.blocks_tracked", ls.blocks_tracked as f64);
                m.set_gauge("learner.mean_abs_error", ls.mean_abs_error);
            }
            if let Some(hs) = &hybrid_summary {
                m.set_gauge("bg.cache_occupancy", hs.cache_occupancy);
                m.set_gauge("bg.migrated_slots", hs.migrated_slots as f64);
                m.set_gauge("bg.refreshed_slots", hs.refreshed_slots as f64);
            }
            m.set_gauge("makespan_us", end.as_us());
            m
        });
        SimReport {
            metrics,
            learner: learner_summary,
            scheme: self.cfg.retry,
            pe_cycles: self.cfg.pe_cycles,
            completed_requests: self.completed_requests,
            completed_bytes: self.completed_bytes,
            read_bytes: self.read_bytes,
            makespan: end.since(SimTime::ZERO),
            read_latency: self.read_latency,
            per_channel_usage,
            decode_failures: self.decode_failures,
            in_die_retries: self.in_die_retries,
            uncor_page_transfers: self.uncor_page_transfers,
            page_senses: self.page_senses,
            gc_relocations: self.ftl.relocations(),
            hybrid: hybrid_summary,
        }
    }

    /// Snapshot of the hybrid subsystem's background-traffic state
    /// (`None` on a pure-TLC device). Live during a stepper-driven run,
    /// so the serving layer can export `bg.*` gauges while requests are
    /// in flight.
    pub fn bg_summary(&self) -> Option<HybridSummary> {
        self.hybrid.as_ref().map(|h| HybridSummary {
            cache_occupancy: self.ftl.cache_occupancy(),
            migrated_slots: h.migrated_slots,
            forced_evictions: h.forced_evictions,
            refreshed_slots: h.refreshed_slots,
            bg_ops: h.bg_ops,
        })
    }

    // ----- admission -----------------------------------------------------

    fn on_arrive(&mut self, now: SimTime, req: usize) {
        if self.outstanding < self.cfg.queue_depth {
            self.admit(now, req);
        } else {
            self.backlog.push_back(req);
        }
    }

    fn admit(&mut self, now: SimTime, req: usize) {
        self.outstanding += 1;
        if self.observing() {
            let (op, bytes) = (self.requests[req].op, self.requests[req].bytes as u64);
            let name = match op {
                IoOp::Read => "request_read",
                IoOp::Write => "request_write",
            };
            let span = self
                .tracer
                .span_begin(now, name, None, None, Some(req as u64), Some(bytes));
            self.requests[req].span = span;
            self.count(now, "requests.admitted", 1);
            if let Some(m) = &mut self.metrics {
                m.observe(
                    "queueing.admission_wait",
                    now.since(self.requests[req].arrival),
                );
            }
        }
        match self.requests[req].op {
            IoOp::Read => self.admit_read(now, req),
            // Write data first crosses the host link into the controller.
            IoOp::Write => self.host_enqueue(now, HostJob::WriteIngress { req }),
        }
    }

    /// The byte size of one slot (a multi-plane page group).
    fn slot_bytes(&self) -> u64 {
        (self.cfg.geometry.page_bytes * self.cfg.geometry.planes_per_die) as u64
    }

    /// Slot ranges `(slot, pages_in_slot)` covered by a request, in slot
    /// order. The iterator owns what it needs, so the caller may mutate
    /// the simulator while walking it.
    fn slots_of(&self, req: usize) -> impl ExactSizeIterator<Item = (u64, usize)> {
        let r = &self.requests[req];
        let sb = self.slot_bytes();
        let pb = self.cfg.geometry.page_bytes as u64;
        let (offset, end) = (r.offset, r.offset + r.bytes as u64);
        let (first, last) = (offset / sb, (end - 1) / sb);
        (0..(last - first + 1) as usize).map(move |i| {
            let slot = first + i as u64;
            let lo = offset.max(slot * sb);
            let hi = end.min((slot + 1) * sb);
            let pages = ((hi - lo).div_ceil(pb)) as usize;
            (slot, pages.max(1))
        })
    }

    fn admit_read(&mut self, now: SimTime, req: usize) {
        let slots = self.slots_of(req);
        self.requests[req].remaining = slots.len();
        for (slot, pages) in slots {
            let gid = self.new_read_group(now, req, slot, pages);
            let duration = self.initial_sense_duration(gid);
            let die = self.groups[gid].loc.die_linear;
            self.enqueue_read_sense(
                now,
                die,
                DieCmd::Sense {
                    group: gid,
                    duration,
                },
            );
        }
    }

    fn new_read_group(&mut self, now: SimTime, req: usize, slot: u64, n_pages: usize) -> usize {
        let loc = self.ftl.locate_read(slot);
        let reads = self.ftl.note_read(loc);
        let age = self.retention.age_days(slot, now);
        let mut op = OperatingPoint {
            pe_cycles: self.cfg.pe_cycles,
            retention_days: age,
            reads,
        };
        if self.cfg.drift.enabled() {
            // Long serving runs age while serving: the drift clock turns
            // elapsed simulated time into extra retention and wear.
            let secs = now.since(SimTime::ZERO).as_ns() as f64 / 1e9;
            op.retention_days += self.cfg.drift.extra_days(secs);
            op.pe_cycles = op.pe_cycles.saturating_add(self.cfg.drift.extra_pe(secs));
        }
        let block = self.block_profile(loc);
        let block_id = loc.global_block(&self.cfg.geometry);
        let kind = loc.kind();
        // Hybrid mode reads the TLC-calibrated error model through the
        // cell mode's amplification factor: SLC-cache reads are
        // effectively error-free, QLC capacity reads far noisier.
        let amp = match self.hybrid.as_ref() {
            Some(h) => h.amp.factor(
                self.ftl.mode_of(loc, h.conf.capacity_mode),
                op.retention_days,
            ),
            None => 1.0,
        };
        let amplify = |r: f64| (r * amp).clamp(AMPLIFIED_RBER_FLOOR, AMPLIFIED_RBER_CAP);
        // One evaluation of the block's V_TH distributions prices every
        // reference set this read is tried at.
        let model = &self.cfg.error_model;
        let params = model.state_params(block, op);
        let rber_default = amplify(model.rber_default_with(&params, kind));
        let rber_optimal = amplify(model.rber_optimal_with(&params, kind));
        let initial = match &self.learner {
            // Learned mode: every scheme starts from the controller's
            // current per-block V_REF estimate, not the oracle tables.
            Some(l) => {
                let refs = l.refs_for(block_id, model.default_refs());
                amplify(model.rber_at_with(&params, refs, kind))
            }
            None => self.cfg.retry.initial_rber(rber_default, rber_optimal),
        };
        let group = ReadGroup {
            req,
            slot,
            loc,
            n_pages,
            kind,
            op,
            block,
            block_id,
            rber_optimal,
            cur_rber: initial,
            first_rber: initial,
            recal_offset: None,
            decode_fails: false,
            decode_duration: SimDuration::ZERO,
            pages_remaining: 0,
            phase: GroupPhase::Initial,
            attempt: 0,
            rif_retried_in_die: false,
            amp,
            span: 0,
        };
        let gid = match self.free_groups.pop() {
            Some(gid) => {
                self.groups[gid] = group;
                gid
            }
            None => {
                self.groups.push(group);
                self.groups.len() - 1
            }
        };
        self.setup_initial_phase(gid);
        if self.observing() {
            let parent = self.requests[req].span;
            self.groups[gid].span =
                self.tracer
                    .span_begin(now, "group", Some(parent), None, Some(req as u64), None);
            if self.groups[gid].rif_retried_in_die {
                self.count(now, "retries.in_die", 1);
                if self.groups[gid].recal_offset.is_some() {
                    self.emit_recal_marker(now, gid);
                }
            }
        }
        gid
    }

    /// Deterministic per-block process variation.
    fn block_profile(&self, loc: SlotLocation) -> BlockProfile {
        let id = loc.global_block(&self.cfg.geometry);
        let mut rng = SimRng::seed_from(id.wrapping_mul(0x517C_C1B7_2722_0A95) ^ self.cfg.seed);
        BlockProfile::sample(&mut rng)
    }

    fn forced_fail(&self, slot: u64) -> Option<bool> {
        self.cfg
            .forced_failure_slots
            .as_ref()
            .map(|f| f.contains(&slot))
    }

    /// Decides the initial-phase outcome: whether the sensed data will
    /// fail its off-chip decode, and (for RiF) whether the ODEAR engine
    /// retries in-die before transferring.
    fn setup_initial_phase(&mut self, gid: usize) {
        let initial = self.groups[gid].cur_rber;
        let optimal = self.groups[gid].rber_optimal;
        let forced = self.forced_fail(self.groups[gid].slot);
        let (cur, fails, in_die_retry, recal) = match self.cfg.retry {
            RetryKind::Zero => (initial, false, false, None),
            RetryKind::Rif => {
                let rp_retry = match forced {
                    Some(f) => f,
                    None => self.cfg.rp.sample_retry(initial, &mut self.rng),
                };
                if rp_retry {
                    // In-die retry: data re-sensed before any transfer.
                    // The oracle re-senses at near-optimal refs; the
                    // learned RVS runs its ones-count calibration and
                    // surfaces the offset it settled on.
                    let (rber, recal) = if self.learner.is_some() {
                        let (r, o) = self.recalibrate_rber(gid);
                        (r, Some(o))
                    } else {
                        (optimal, None)
                    };
                    let fails = match forced {
                        Some(_) => false,
                        None => self.cfg.ecc.sample_failure(rber, &mut self.rng),
                    };
                    (rber, fails, true, recal)
                } else {
                    // Transferred as-is; a missed prediction still fails
                    // at the off-chip decoder.
                    let fails = match forced {
                        Some(f) => f,
                        None => self.cfg.ecc.sample_failure(initial, &mut self.rng),
                    };
                    (initial, fails, false, None)
                }
            }
            _ => {
                let fails = match forced {
                    Some(f) => f,
                    None => self.cfg.ecc.sample_failure(initial, &mut self.rng),
                };
                (initial, fails, false, None)
            }
        };
        if in_die_retry {
            self.in_die_retries += 1;
        }
        let (dur, fail_out) = self.decode_profile(cur, fails, forced.is_some());
        let g = &mut self.groups[gid];
        g.cur_rber = cur;
        g.first_rber = cur;
        g.recal_offset = recal;
        g.decode_fails = fail_out;
        g.decode_duration = dur;
        g.attempt = 1;
        g.rif_retried_in_die = in_die_retry;
    }

    /// Runs the ones-count re-calibration (the Swift-Read / RVS flow) for
    /// a group's block and returns the RBER at the selected references
    /// plus the uniform offset they apply relative to the defaults — the
    /// noisy drift observation the learner consumes.
    fn recalibrate_rber(&mut self, gid: usize) -> (f64, f64) {
        let (op, block, kind) = {
            let g = &self.groups[gid];
            (g.op, g.block, g.kind)
        };
        let n_cells = self.cfg.geometry.page_bytes * 8;
        let sw = self.swift.as_ref().expect("learned mode has an estimator");
        let observed = sw.observe_ones(op, block.factor, kind, n_cells, &mut self.rng);
        let refs = sw.refs_from_observation(op.pe_cycles, kind, observed);
        let defaults = self.cfg.error_model.default_refs();
        let offset = refs
            .as_array()
            .iter()
            .zip(defaults.as_array())
            .map(|(r, d)| r - d)
            .sum::<f64>()
            / 7.0;
        let amp = self.groups[gid].amp;
        let rber = (self.cfg.error_model.rber_at(block, op, refs, kind) * amp)
            .clamp(AMPLIFIED_RBER_FLOOR, AMPLIFIED_RBER_CAP);
        (rber, offset)
    }

    /// Marks a learned re-calibration in the trace: a zero-length `retry`
    /// span with a nested zero-length `recal` child under the group span
    /// (the invariant the trace checker's learner rule pins).
    fn emit_recal_marker(&mut self, now: SimTime, gid: usize) {
        if !self.tracer.enabled() {
            return;
        }
        let parent = self.groups[gid].span;
        if parent == 0 {
            return;
        }
        let req = Some(self.groups[gid].req as u64);
        let retry = self
            .tracer
            .span_begin(now, "retry", Some(parent), None, req, None);
        let recal = self
            .tracer
            .span_begin(now, "recal", Some(retry), None, req, None);
        self.tracer.span_end(now, recal);
        self.tracer.span_end(now, retry);
    }

    /// Per-page ECC-engine occupancy and final outcome for a page of the
    /// given RBER whose raw decode `fails`. In forced-failure mode
    /// (`deterministic`) predictor verdicts follow the forced outcome.
    fn decode_profile(
        &mut self,
        rber: f64,
        fails: bool,
        deterministic: bool,
    ) -> (SimDuration, bool) {
        match self.cfg.retry {
            // SSDzero's decodes always succeed quickly.
            RetryKind::Zero => (self.cfg.ecc.t_ecc(rber.min(0.004)), false),
            RetryKind::RpSsd => {
                // Controller-side RP precedes decoding.
                let rp_says_retry = if deterministic {
                    fails
                } else {
                    self.cfg.rp.sample_retry(rber, &mut self.rng)
                };
                if rp_says_retry {
                    // Early termination: a 2.5-µs syndrome check replaces
                    // the long decode; the page goes to retry (even when
                    // actually correctable — a false positive).
                    (self.cfg.timing.t_pred, true)
                } else if fails {
                    // Missed: the hopeless decode burns the full budget.
                    (self.cfg.ecc.t_ecc_failure(), true)
                } else {
                    (self.cfg.ecc.t_ecc(rber), false)
                }
            }
            _ => {
                if fails {
                    (self.cfg.ecc.t_ecc_failure(), true)
                } else {
                    (self.cfg.ecc.t_ecc(rber), false)
                }
            }
        }
    }

    fn initial_sense_duration(&self, gid: usize) -> SimDuration {
        let t = self.cfg.timing;
        match self.cfg.retry {
            RetryKind::Rif => {
                if self.groups[gid].rif_retried_in_die {
                    t.t_r + t.t_pred + t.t_r
                } else {
                    t.t_r + t.t_pred
                }
            }
            _ => t.t_r,
        }
    }

    // ----- dies ------------------------------------------------------------

    fn die_try_start(&mut self, now: SimTime, die: usize) {
        if self.dies[die].busy {
            return;
        }
        let Some(cmd) = self.dies[die].queue.pop_front() else {
            return;
        };
        let duration = match &cmd {
            DieCmd::Sense { duration, .. } => *duration,
            DieCmd::Program { duration, .. } => *duration,
            DieCmd::Bg { duration, .. } => *duration,
        };
        let span = if self.tracer.enabled() {
            let (name, parent, req) = match &cmd {
                DieCmd::Sense { group, .. } => (
                    "sense",
                    self.groups[*group].span,
                    Some(self.groups[*group].req as u64),
                ),
                DieCmd::Program { req, .. } => {
                    ("program", self.requests[*req].span, Some(*req as u64))
                }
                // Background work gets root spans (no owning request) on
                // the die resource, so the trace checker's exclusivity
                // rule covers them automatically.
                DieCmd::Bg { kind, .. } => (kind.span_name(), 0, None),
            };
            self.tracer.span_begin(
                now,
                name,
                Some(parent),
                Some(&format!("die:{die}")),
                req,
                None,
            )
        } else {
            0
        };
        let d = &mut self.dies[die];
        d.busy = true;
        d.busy_until = now + duration;
        d.current = Some(cmd);
        d.current_span = span;
        let epoch = d.epoch;
        self.events
            .schedule(now + duration, Ev::DieDone(die, epoch));
    }

    /// Queues background work on `die` and starts it if the die is idle.
    fn push_bg(&mut self, now: SimTime, die: usize, kind: BgKind, duration: SimDuration) {
        self.dies[die].queue.push_back(DieCmd::Bg {
            kind,
            duration,
            suspensions: 0,
        });
        self.note_die_queue(now, die);
        self.die_try_start(now, die);
    }

    /// Queues a read sense, preempting an in-flight program/erase when
    /// read suspend-resume is enabled: the remainder of the suspended
    /// command (plus the resume overhead) re-queues behind the read.
    fn enqueue_read_sense(&mut self, now: SimTime, die: usize, cmd: DieCmd) {
        let can_suspend = self.cfg.read_suspend
            && self.dies[die].busy
            && match &self.dies[die].current {
                Some(DieCmd::Program { suspensions, .. })
                | Some(DieCmd::Bg { suspensions, .. }) => *suspensions < 2,
                _ => false,
            }
            && self.dies[die].busy_until.saturating_since(now) > SimDuration::from_us(5);
        if can_suspend {
            if self.observing() {
                // The suspended command's span ends here; its resumed
                // remainder opens a fresh span when it restarts.
                let span = self.dies[die].current_span;
                if span != 0 {
                    self.tracer.span_end(now, span);
                    self.dies[die].current_span = 0;
                }
                self.count(now, "die.suspensions", 1);
            }
            let d = &mut self.dies[die];
            let remaining = d.busy_until.since(now) + self.cfg.suspend_overhead;
            let resumed = match d.current.take().expect("busy die has a command") {
                DieCmd::Program {
                    req, suspensions, ..
                } => DieCmd::Program {
                    req,
                    duration: remaining,
                    suspensions: suspensions + 1,
                },
                DieCmd::Bg {
                    kind, suspensions, ..
                } => DieCmd::Bg {
                    kind,
                    duration: remaining,
                    suspensions: suspensions + 1,
                },
                other => other,
            };
            d.epoch += 1; // invalidate the scheduled completion
            d.busy = false;
            d.queue.push_front(resumed);
            d.queue.push_front(cmd);
        } else if self.hybrid.as_ref().is_some_and(|h| h.conf.bg.fg_priority) {
            // Foreground-preempts policy: the read sense jumps ahead of
            // queued background work (never ahead of other foreground
            // commands, preserving read/program ordering).
            let q = &mut self.dies[die].queue;
            let at = q
                .iter()
                .position(|c| matches!(c, DieCmd::Bg { .. }))
                .unwrap_or(q.len());
            q.insert(at, cmd);
        } else {
            self.dies[die].queue.push_back(cmd);
        }
        self.note_die_queue(now, die);
        self.die_try_start(now, die);
    }

    fn on_die_done(&mut self, now: SimTime, die: usize, epoch: u32) {
        if epoch != self.dies[die].epoch {
            return; // completion of a command that was suspended
        }
        let cmd = self.dies[die].current.take().expect("die had no command");
        self.dies[die].busy = false;
        if self.dies[die].current_span != 0 {
            self.tracer.span_end(now, self.dies[die].current_span);
            self.dies[die].current_span = 0;
        }
        match cmd {
            DieCmd::Sense { group, .. } => {
                self.page_senses += self.groups[group].n_pages as u64;
                if self.observing() {
                    self.count(now, "pages.sensed", self.groups[group].n_pages as u64);
                }
                let uncor = match self.groups[group].phase {
                    // Sentinel-cell data is pure retry overhead.
                    GroupPhase::SentinelRead => true,
                    _ => self.groups[group].decode_fails,
                };
                self.enqueue_group_transfers(now, group, uncor);
            }
            DieCmd::Program { req, .. } => {
                self.requests[req].remaining -= 1;
                if self.requests[req].remaining == 0 {
                    self.complete_request(now, req);
                }
            }
            DieCmd::Bg { .. } => {}
        }
        self.die_try_start(now, die);
    }

    // ----- channels ----------------------------------------------------------

    fn enqueue_group_transfers(&mut self, now: SimTime, gid: usize, uncor: bool) {
        let ch = self.groups[gid].loc.channel(&self.cfg.geometry);
        let n = self.groups[gid].n_pages;
        let kind = if self.groups[gid].phase == GroupPhase::SentinelRead {
            XferKind::Sentinel { group: gid }
        } else {
            XferKind::ReadPage { group: gid }
        };
        self.groups[gid].pages_remaining = n;
        for _ in 0..n {
            self.channels[ch].queue.push_back(Transfer { kind, uncor });
        }
        self.chan_try_start(now, ch);
    }

    fn chan_try_start(&mut self, now: SimTime, ch: usize) {
        if self.channels[ch].busy {
            return;
        }
        // First startable transfer: read pages need ECC buffer space.
        let mut pick = None;
        for (i, t) in self.channels[ch].queue.iter().enumerate() {
            let needs_ecc = matches!(t.kind, XferKind::ReadPage { .. });
            if !needs_ecc || self.ecc[ch].pending < self.cfg.ecc_buffer_pages {
                pick = Some(i);
                break;
            }
        }
        match pick {
            Some(i) => {
                let t = self.channels[ch].queue.remove(i).expect("index valid");
                if matches!(t.kind, XferKind::ReadPage { .. }) {
                    self.ecc[ch].pending += 1;
                }
                if t.uncor {
                    self.uncor_page_transfers += 1;
                }
                let state = if t.uncor { ST_UNCOR } else { ST_COR };
                self.switch_chan(now, ch, state);
                if self.observing() {
                    let (name, parent, req) = match t.kind {
                        XferKind::ReadPage { group } => (
                            if t.uncor { "xfer_uncor" } else { "xfer" },
                            self.groups[group].span,
                            Some(self.groups[group].req as u64),
                        ),
                        XferKind::Sentinel { group } => (
                            "xfer_sentinel",
                            self.groups[group].span,
                            Some(self.groups[group].req as u64),
                        ),
                        XferKind::WritePage { job } => {
                            let req = self.write_jobs[job].req;
                            ("xfer_write", self.requests[req].span, Some(req as u64))
                        }
                    };
                    self.channels[ch].current_span = self.tracer.span_begin(
                        now,
                        name,
                        Some(parent),
                        Some(&format!("chan:{ch}")),
                        req,
                        Some(self.cfg.geometry.page_bytes as u64),
                    );
                    self.count(now, "pages.transferred", 1);
                    if t.uncor {
                        self.count(now, "pages.transferred_uncor", 1);
                    }
                }
                self.channels[ch].busy = true;
                self.channels[ch].current = Some(t);
                self.events
                    .schedule(now + self.cfg.t_dma(), Ev::ChanDone(ch));
            }
            None => {
                let state = if self.channels[ch].queue.is_empty() {
                    ST_IDLE
                } else {
                    ST_ECCWAIT
                };
                self.switch_chan(now, ch, state);
            }
        }
    }

    fn on_chan_done(&mut self, now: SimTime, ch: usize) {
        let t = self.channels[ch]
            .current
            .take()
            .expect("channel had no transfer");
        self.channels[ch].busy = false;
        if self.channels[ch].current_span != 0 {
            self.tracer.span_end(now, self.channels[ch].current_span);
            self.channels[ch].current_span = 0;
        }
        match t.kind {
            XferKind::ReadPage { group } => {
                self.ecc[ch].queue.push_back(group);
                self.ecc_try_start(now, ch);
            }
            XferKind::Sentinel { group } => {
                self.groups[group].pages_remaining -= 1;
                if self.groups[group].pages_remaining == 0 {
                    // Sentinel data delivered: launch the corrective read.
                    self.schedule_retry_sense(now, group);
                }
            }
            XferKind::WritePage { job } => {
                self.write_jobs[job].remaining_transfers -= 1;
                if self.write_jobs[job].remaining_transfers == 0 {
                    let die = self.write_jobs[job].die_linear;
                    let gc = self.write_jobs[job].gc_duration;
                    if !gc.is_zero() {
                        self.dies[die].queue.push_back(DieCmd::Bg {
                            kind: BgKind::Gc,
                            duration: gc,
                            suspensions: 0,
                        });
                        if let Some(h) = self.hybrid.as_mut() {
                            h.bg_ops += 1;
                        }
                        if self.observing() && self.hybrid.is_some() {
                            self.count(now, "bg.ops", 1);
                        }
                    }
                    self.dies[die].queue.push_back(DieCmd::Program {
                        req: self.write_jobs[job].req,
                        duration: self.write_jobs[job].program_duration,
                        suspensions: 0,
                    });
                    self.note_die_queue(now, die);
                    self.die_try_start(now, die);
                }
            }
        }
        self.chan_try_start(now, ch);
    }

    // ----- ECC engines ---------------------------------------------------------

    fn ecc_try_start(&mut self, now: SimTime, ch: usize) {
        if self.ecc[ch].busy {
            return;
        }
        if let Some(group) = self.ecc[ch].queue.pop_front() {
            let dur = self.groups[group].decode_duration;
            if self.observing() {
                self.ecc[ch].current_span = self.tracer.span_begin(
                    now,
                    "decode",
                    Some(self.groups[group].span),
                    Some(&format!("ecc:{ch}")),
                    Some(self.groups[group].req as u64),
                    None,
                );
            }
            let e = &mut self.ecc[ch];
            e.busy = true;
            e.current = Some(group);
            e.busy_since = now;
            self.events.schedule(now + dur, Ev::EccDone(ch));
        }
    }

    fn on_ecc_done(&mut self, now: SimTime, ch: usize) {
        let group = self.ecc[ch].current.take().expect("ECC had no page");
        self.ecc[ch].busy = false;
        self.ecc[ch].pending -= 1;
        self.ecc[ch].busy_total = self.ecc[ch].busy_total + now.since(self.ecc[ch].busy_since);
        if self.ecc[ch].current_span != 0 {
            self.tracer.span_end(now, self.ecc[ch].current_span);
            self.ecc[ch].current_span = 0;
        }
        self.groups[group].pages_remaining -= 1;
        if self.groups[group].pages_remaining == 0 {
            if self.groups[group].decode_fails {
                self.decode_failures += self.groups[group].n_pages as u64;
                if self.observing() {
                    self.count(now, "decode.failures", self.groups[group].n_pages as u64);
                }
                self.begin_retry(now, group);
            } else {
                self.group_done(now, group);
            }
        }
        self.ecc_try_start(now, ch);
        // A freed buffer slot may unblock a waiting transfer.
        self.chan_try_start(now, ch);
    }

    // ----- retry paths -----------------------------------------------------------

    fn begin_retry(&mut self, now: SimTime, gid: usize) {
        let kind = self.groups[gid].kind;
        if self.groups[gid].phase == GroupPhase::Initial && self.cfg.retry.sentinel_extra_read(kind)
        {
            // SENC: read and transfer the sentinel cells before the
            // corrective re-read.
            self.groups[gid].phase = GroupPhase::SentinelRead;
            if self.observing() {
                self.count(now, "retry.sentinel_reads", 1);
            }
            let die = self.groups[gid].loc.die_linear;
            let t_r = self.cfg.timing.t_r;
            self.enqueue_read_sense(
                now,
                die,
                DieCmd::Sense {
                    group: gid,
                    duration: t_r,
                },
            );
        } else {
            self.schedule_retry_sense(now, gid);
        }
    }

    fn schedule_retry_sense(&mut self, now: SimTime, gid: usize) {
        if self.observing() {
            self.count(now, "retry.rounds", 1);
        }
        let t = self.cfg.timing;
        let duration = match self.cfg.retry {
            // Swift-Read's retry command performs two senses in-die.
            RetryKind::SwiftRead | RetryKind::SwiftReadPlus => t.t_r * 2,
            // A RiF die re-runs its normal predicted read path.
            RetryKind::Rif => t.t_r + t.t_pred,
            _ => t.t_r,
        };
        let slot = self.groups[gid].slot;
        let attempt = self.groups[gid].attempt + 1;
        let rber_optimal = self.groups[gid].rber_optimal;
        // The corrective read senses at near-optimal references (oracle)
        // or at the references the ones-count re-calibration picks
        // (learned); after four attempts assume the vendor sequence
        // exhausted and force success (never observed — retry RBER sits
        // far below the capability).
        let (retry_rber, recal) = if self.learner.is_some() {
            let (r, o) = self.recalibrate_rber(gid);
            self.emit_recal_marker(now, gid);
            (r, Some(o))
        } else {
            (rber_optimal, None)
        };
        let fails = if self.forced_fail(slot).is_some() || attempt > 4 {
            false
        } else {
            self.cfg.ecc.sample_failure(retry_rber, &mut self.rng)
        };
        let (dur, fail_out) = if fails {
            (self.cfg.ecc.t_ecc_failure(), true)
        } else {
            (self.cfg.ecc.t_ecc(retry_rber), false)
        };
        let g = &mut self.groups[gid];
        g.phase = GroupPhase::Retry;
        g.attempt = attempt;
        g.cur_rber = retry_rber;
        if recal.is_some() {
            g.recal_offset = recal;
        }
        g.decode_fails = fail_out;
        g.decode_duration = dur;
        let die = g.loc.die_linear;
        self.enqueue_read_sense(
            now,
            die,
            DieCmd::Sense {
                group: gid,
                duration,
            },
        );
    }

    fn group_done(&mut self, now: SimTime, gid: usize) {
        if self.learner.is_some() {
            self.learner_update(now, gid);
        }
        let req = self.groups[gid].req;
        if self.groups[gid].span != 0 {
            self.tracer.span_end(now, self.groups[gid].span);
            self.groups[gid].span = 0;
        }
        // Every page of the group has been transferred and decoded:
        // nothing queued names it any more.
        self.free_groups.push(gid);
        self.requests[req].remaining -= 1;
        if self.requests[req].remaining == 0 {
            self.host_enqueue(now, HostJob::ReadCompletion { req });
        }
    }

    /// Folds a finished group's outcome into the threshold learner and
    /// scores the updated estimate against the oracle's optimal offset.
    fn learner_update(&mut self, now: SimTime, gid: usize) {
        let (block_id, op, block, outcome) = {
            let g = &self.groups[gid];
            let failed = g.attempt > 1 || g.rif_retried_in_die;
            let retries = g.attempt.saturating_sub(1) + u32::from(g.rif_retried_in_die);
            // Only schemes with syndrome-weight visibility (a predictor,
            // or SWR+'s tracking hardware) feed the weight signal.
            let syndrome_frac =
                if self.cfg.retry.has_predictor() || self.cfg.retry == RetryKind::SwiftReadPlus {
                    self.cfg.rp.expected_weight_fraction(g.first_rber)
                } else {
                    0.0
                };
            let outcome = ReadOutcome {
                failed,
                retries,
                syndrome_frac,
                recalibrated_offset: g.recal_offset,
            };
            (g.block_id, g.op, g.block, outcome)
        };
        let learner = self.learner.as_mut().expect("learner checked by caller");
        learner.observe(block_id, &outcome);
        let est = learner.offset(block_id);
        let truth = self.cfg.error_model.optimal_offset(block, op);
        let err = (est - truth).abs();
        self.learn_err_sum += err;
        self.learn_err_samples += 1;
        if self.observing() {
            self.count(now, "learner.updates", 1);
            if outcome.recalibrated_offset.is_some() {
                self.count(now, "learner.recalibrations", 1);
            }
            self.tracer.gauge(now, "learner.estimate_error", err);
        }
    }

    // ----- host link ----------------------------------------------------------------

    fn host_enqueue(&mut self, now: SimTime, job: HostJob) {
        self.host_queue.push_back(job);
        self.host_try_start(now);
    }

    fn host_try_start(&mut self, now: SimTime) {
        if self.host_busy {
            return;
        }
        if let Some(job) = self.host_queue.pop_front() {
            let (bytes, name, req) = match job {
                HostJob::ReadCompletion { req } => {
                    (self.requests[req].bytes as u64, "host_read", req)
                }
                HostJob::WriteIngress { req } => {
                    (self.requests[req].bytes as u64, "host_write_ingress", req)
                }
            };
            if self.observing() {
                self.host_span = self.tracer.span_begin(
                    now,
                    name,
                    Some(self.requests[req].span),
                    Some("host"),
                    Some(req as u64),
                    Some(bytes),
                );
            }
            self.host_busy = true;
            self.host_current = Some(job);
            self.events
                .schedule(now + self.cfg.host_transfer(bytes), Ev::HostDone);
        }
    }

    fn on_host_done(&mut self, now: SimTime) {
        let job = self.host_current.take().expect("host link had no job");
        self.host_busy = false;
        if self.host_span != 0 {
            self.tracer.span_end(now, self.host_span);
            self.host_span = 0;
        }
        match job {
            HostJob::ReadCompletion { req } => self.complete_request(now, req),
            HostJob::WriteIngress { req } => self.launch_write(now, req),
        }
        self.host_try_start(now);
    }

    fn launch_write(&mut self, now: SimTime, req: usize) {
        let slots = self.slots_of(req);
        self.requests[req].remaining = slots.len();
        let t = self.cfg.timing;
        for (slot, pages) in slots {
            self.retention.record_write(slot, now);
            let out = self.ftl.write(slot);
            // Cache-overflow evictions (none on a device without a cache)
            // become immediate migrate work on their dies, ahead of this
            // write's program.
            let forced = out.evicted.len() as u64;
            for w in out.evicted {
                self.retention.record_write(w.slot, now);
                let dur = t.t_r + t.t_prog + gc_duration(&t, &w.gc);
                self.push_bg(now, w.die_linear, BgKind::Migrate, dur);
            }
            if forced > 0 {
                let h = self.hybrid.as_mut().expect("evictions imply a cache");
                h.forced_evictions += forced;
                h.migrated_slots += forced;
                h.bg_ops += forced;
                if self.observing() {
                    self.count(now, "bg.forced_evictions", forced);
                    self.count(now, "bg.migrated_slots", forced);
                    self.count(now, "bg.ops", forced);
                }
            }
            let job = self.write_jobs.len();
            self.write_jobs.push(WriteJob {
                req,
                die_linear: out.loc.die_linear,
                remaining_transfers: pages,
                program_duration: t.t_prog,
                gc_duration: gc_duration(&t, &out.gc),
            });
            let ch = out.loc.channel(&self.cfg.geometry);
            for _ in 0..pages {
                self.channels[ch].queue.push_back(Transfer {
                    kind: XferKind::WritePage { job },
                    uncor: false,
                });
            }
            self.chan_try_start(now, ch);
        }
    }

    // ----- background scheduler (hybrid mode) -----------------------------

    /// One background-scheduler tick: drains the SLC cache toward the low
    /// watermark (subject to the migration policy's destination-RBER
    /// gate), turns due refresh rewrites into die work, and re-arms
    /// itself while foreground requests remain.
    fn on_bg_tick(&mut self, now: SimTime) {
        let Some(mut h) = self.hybrid.take() else {
            return;
        };
        h.tick_armed = false;
        let t = self.cfg.timing;
        let drift_secs = now.since(SimTime::ZERO).as_ns() as f64 / 1e9;
        let drift_days = if self.cfg.drift.enabled() {
            self.cfg.drift.extra_days(drift_secs)
        } else {
            0.0
        };

        // --- SLC→QLC cache drain ---------------------------------------
        let mut migrated = 0u64;
        if self.ftl.cache_occupancy() > h.conf.bg.high_watermark {
            let allow = match h.conf.migration {
                MigrationPolicy::Fifo => true,
                MigrationPolicy::ReliabilityAware { dest_rber_margin } => {
                    // RARO gate: defer the background drain while data
                    // migrated now would exceed the RBER budget midway
                    // through its expected QLC residence (half the
                    // refresh interval). Forced evictions on the write
                    // path bypass this — the cache must not overflow.
                    let residence = if h.conf.bg.refresh_interval_days > 0.0 {
                        h.conf.bg.refresh_interval_days
                    } else {
                        self.cfg.refresh_days
                    } * 0.5;
                    let mut pe = self.cfg.pe_cycles;
                    if self.cfg.drift.enabled() {
                        pe = pe.saturating_add(self.cfg.drift.extra_pe(drift_secs));
                    }
                    let op = OperatingPoint {
                        pe_cycles: pe,
                        retention_days: residence,
                        reads: 0,
                    };
                    let dest_rber = h.conf.capacity_mode.model().rber_avg(op, 1.0);
                    dest_rber <= dest_rber_margin * self.cfg.ecc.correction_capability()
                }
            };
            if allow {
                for slot in self.ftl.migration_candidates(h.conf.bg.migrate_batch) {
                    if self.ftl.cache_occupancy() <= h.conf.bg.low_watermark {
                        break;
                    }
                    let Some(w) = self.ftl.migrate(slot) else {
                        continue;
                    };
                    // The copyback physically reprograms the data: its
                    // retention age restarts.
                    self.retention.record_write(slot, now);
                    let dur = t.t_r + t.t_prog + gc_duration(&t, &w.gc);
                    self.push_bg(now, w.die_linear, BgKind::Migrate, dur);
                    migrated += 1;
                }
            } else if self.observing() {
                self.count(now, "bg.migration_gated_ticks", 1);
            }
        }

        // --- retention refresh ------------------------------------------
        let mut refreshed = 0u64;
        if h.conf.bg.refresh_interval_days > 0.0 && !self.ftl.touched().is_empty() {
            let policy = RefreshPolicy::new(h.conf.bg.refresh_interval_days);
            let n = self.ftl.touched().len();
            let batch = h.conf.bg.refresh_scan_batch.min(n);
            let window: Vec<(u64, f64)> = (0..batch)
                .map(|k| {
                    let slot = self.ftl.touched()[(h.refresh_cursor + k) % n];
                    (slot, self.retention.age_days(slot, now) + drift_days)
                })
                .collect();
            h.refresh_cursor = (h.refresh_cursor + batch) % n;
            for slot in policy.refresh_due(window) {
                // The rewrite resets the slot's age in place; the die
                // pays a read + program.
                self.retention.record_write(slot, now);
                let loc = self.ftl.locate_read(slot);
                self.push_bg(now, loc.die_linear, BgKind::Refresh, t.t_r + t.t_prog);
                refreshed += 1;
            }
        }

        h.migrated_slots += migrated;
        h.refreshed_slots += refreshed;
        h.bg_ops += migrated + refreshed;
        // Re-arm only while foreground work remains, so `run()`'s
        // advance-to-MAX still terminates. An idle tick (nothing moved)
        // fast-forwards to the next pending event rather than grinding
        // through dead time one period at a time: a submission landing
        // after a long virtual-time idle gap would otherwise make the
        // scheduler replay every elapsed period before serving it.
        if self.unfinished_requests() > 0 {
            h.tick_armed = true;
            let mut at = now + h.conf.bg.tick;
            if migrated + refreshed == 0 {
                if let Some(next) = self.events.peek_time() {
                    at = at.max(next);
                }
            }
            self.events.schedule(at, Ev::BgTick);
        }
        self.hybrid = Some(h);
        if self.observing() {
            if migrated > 0 {
                self.count(now, "bg.migrated_slots", migrated);
            }
            if refreshed > 0 {
                self.count(now, "bg.refreshed_slots", refreshed);
            }
            if migrated + refreshed > 0 {
                self.count(now, "bg.ops", migrated + refreshed);
            }
        }
    }

    fn complete_request(&mut self, now: SimTime, req: usize) {
        debug_assert!(!self.requests[req].done, "request {req} completed twice");
        self.requests[req].done = true;
        let (op, bytes, span, arrival) = {
            let r = &self.requests[req];
            (r.op, r.bytes as u64, r.span, r.arrival)
        };
        self.completed_requests += 1;
        self.completed_bytes += bytes;
        if op == IoOp::Read {
            self.read_bytes += bytes;
            self.read_latency.record(now.since(arrival));
        }
        if self.observing() {
            if span != 0 {
                self.tracer.span_end(now, span);
                self.requests[req].span = 0;
            }
            self.count(now, "requests.completed", 1);
            self.count(now, "bytes.completed", bytes);
            if op == IoOp::Read {
                if let Some(m) = &mut self.metrics {
                    m.observe("latency.read", now.since(arrival));
                }
            }
        }
        self.last_completion = now;
        self.completions.push(Completion {
            id: req as u64,
            op,
            offset: self.requests[req].offset,
            bytes: self.requests[req].bytes,
            arrival,
            finished: now,
        });
        self.outstanding -= 1;
        if let Some(next) = self.backlog.pop_front() {
            self.admit(now, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_workloads::{IoRequest, SynthConfig, WorkloadProfile};

    fn read_req(us: u64, offset: u64, bytes: u32) -> IoRequest {
        IoRequest {
            arrival: SimTime::from_us(us),
            op: IoOp::Read,
            offset,
            bytes,
        }
    }

    fn write_req(us: u64, offset: u64, bytes: u32) -> IoRequest {
        IoRequest {
            arrival: SimTime::from_us(us),
            op: IoOp::Write,
            offset,
            bytes,
        }
    }

    #[test]
    fn single_clean_read_latency_breakdown() {
        // One 64-KiB read, no failures: tR + 4·tDMA + tECC + host transfer.
        let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
        cfg.forced_failure_slots = Some(vec![]); // nothing fails
        let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
        assert_eq!(report.completed_requests, 1);
        let lat = report.read_latency.max().as_us();
        // 40 (sense) + 4x13 (DMA) + ~1-3 (last ECC) + 8.2 (host) ≈ 102.
        assert!((95.0..115.0).contains(&lat), "latency {lat}");
        assert_eq!(report.decode_failures, 0);
        assert_eq!(report.page_senses, 4);
    }

    #[test]
    fn forced_failure_adds_one_retry_round() {
        let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
        cfg.forced_failure_slots = Some(vec![0]);
        let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
        assert_eq!(report.decode_failures, 4);
        // Failed round: 40 + 52 + 4 decodes of 20 = wasted; then retry.
        assert_eq!(report.uncor_page_transfers, 4);
        assert_eq!(report.page_senses, 8);
        let lat = report.read_latency.max().as_us();
        assert!(lat > 200.0, "latency {lat} too small for a retry round");
    }

    #[test]
    fn rif_retries_in_die_without_channel_waste() {
        let mut cfg = SsdConfig::small(RetryKind::Rif, 0);
        cfg.forced_failure_slots = Some(vec![0]);
        let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
        assert_eq!(report.in_die_retries, 1);
        assert_eq!(report.decode_failures, 0);
        assert_eq!(report.uncor_page_transfers, 0);
        // 82.5 (sense+pred+resense) + 52 + ecc + host ≈ 145.
        let lat = report.read_latency.max().as_us();
        assert!((135.0..160.0).contains(&lat), "latency {lat}");
    }

    #[test]
    fn sentinel_pays_extra_transfer_for_csb_pages() {
        // Cold mapping is assigned in touch order: the second slot read on
        // a die lands on page 1 — a CSB page, which needs the sentinel
        // extra read. Touch slot 8 (page 0) then fail slot 40 (page 1),
        // both on die 8 of the 32-die array.
        let mut cfg = SsdConfig::small(RetryKind::Sentinel, 0);
        cfg.forced_failure_slots = Some(vec![40]);
        let sb = 64 * 1024;
        let trace = Trace::new(vec![
            read_req(0, 8 * sb, 65536),
            read_req(1, 40 * sb, 65536),
        ]);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.decode_failures, 4);
        // 4 failed-page transfers + 4 sentinel transfers are overhead.
        assert_eq!(report.uncor_page_transfers, 8);
        // slot 8: 4 senses; slot 40: initial + sentinel + retry = 12.
        assert_eq!(report.page_senses, 16);
    }

    #[test]
    fn zero_scheme_never_fails_even_when_forced() {
        let mut cfg = SsdConfig::small(RetryKind::Zero, 2000);
        cfg.forced_failure_slots = Some(vec![0]);
        let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
        assert_eq!(report.decode_failures, 0);
        assert_eq!(report.page_senses, 4);
    }

    #[test]
    fn writes_complete_and_reset_retention() {
        let cfg = SsdConfig::small(RetryKind::IdealOne, 0);
        let trace = Trace::new(vec![
            write_req(0, 0, 65536),
            read_req(1000, 0, 65536), // re-read the freshly written slot
        ]);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.completed_requests, 2);
        // A just-written page never needs a retry.
        assert_eq!(report.decode_failures, 0);
        assert_eq!(report.completed_bytes, 2 * 65536);
    }

    #[test]
    fn channel_usage_fractions_sum_to_one() {
        let cfg = SsdConfig::small(RetryKind::SwiftRead, 1000);
        let trace = SynthConfig {
            read_ratio: 0.8,
            cold_read_ratio: 0.8,
            hot_region_bytes: 64 << 20,
            cold_region_bytes: 256 << 20,
            ..SynthConfig::default()
        }
        .generate(300, 3);
        let report = Simulator::new(cfg).run(&trace);
        for u in &report.per_channel_usage {
            let sum = u.idle + u.cor + u.uncor + u.eccwait;
            assert!((sum - 1.0).abs() < 1e-9, "usage sums to {sum}");
        }
        assert_eq!(report.completed_requests, 300);
    }

    #[test]
    fn rif_beats_senc_under_heavy_retries() {
        // At 2K P/E with cold-heavy reads, RiF must deliver clearly more
        // bandwidth than Sentinel — the core claim of the paper. The trace
        // over-drives the device (2 µs interarrival ≈ 32 GB/s offered) so
        // the measured bandwidth is the SSD's, not the workload's.
        let mut wl = WorkloadProfile::by_name("Ali124").unwrap().config();
        wl.mean_interarrival_ns = 2_000.0;
        let trace = wl.generate(800, 12);
        let run = |retry| {
            let mut cfg = SsdConfig::small(retry, 2000);
            cfg.seed = 99;
            Simulator::new(cfg).run(&trace)
        };
        let senc = run(RetryKind::Sentinel);
        let rif = run(RetryKind::Rif);
        let zero = run(RetryKind::Zero);
        assert!(
            rif.io_bandwidth_mbps() > senc.io_bandwidth_mbps() * 1.1,
            "RiF {} vs SENC {}",
            rif.io_bandwidth_mbps(),
            senc.io_bandwidth_mbps()
        );
        assert!(rif.io_bandwidth_mbps() <= zero.io_bandwidth_mbps() * 1.02);
        // And the channel waste ordering matches Fig. 18.
        assert!(rif.channel_usage().wasted() < senc.channel_usage().wasted());
    }

    #[test]
    fn queue_depth_backpressure_holds() {
        let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
        cfg.queue_depth = 1;
        cfg.forced_failure_slots = Some(vec![]);
        // Two reads arriving together: the second must wait for the first.
        let trace = Trace::new(vec![read_req(0, 0, 65536), read_req(0, 65536, 65536)]);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.completed_requests, 2);
        let p100 = report.read_latency.max().as_us();
        let p1 = report.read_latency.min().as_us();
        assert!(p100 > p1 * 1.5, "no queueing visible: {p1} vs {p100}");
    }

    #[test]
    fn swift_read_retry_occupies_die_for_two_senses() {
        // SWR's corrective command is two in-die senses: the retried
        // read's latency must exceed SSDone's by ~tR.
        let lat = |retry| {
            let mut cfg = SsdConfig::small(retry, 0);
            cfg.forced_failure_slots = Some(vec![0]);
            let r = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
            r.read_latency.max().as_us()
        };
        let one = lat(RetryKind::IdealOne);
        let swr = lat(RetryKind::SwiftRead);
        let diff = swr - one;
        assert!((30.0..55.0).contains(&diff), "SWR - SSDone = {diff} µs");
    }

    #[test]
    fn rpssd_terminates_hopeless_decodes_early() {
        // With a forced failure, RPSSD's ECC occupancy for the failed
        // pages is tPRED (2.5 µs) instead of 20 µs, so its end-to-end
        // latency beats SSDone's despite the same transfer waste.
        let lat = |retry| {
            let mut cfg = SsdConfig::small(retry, 0);
            cfg.forced_failure_slots = Some(vec![0]);
            let r = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
            (r.read_latency.max().as_us(), r.uncor_page_transfers)
        };
        let (one, one_uncor) = lat(RetryKind::IdealOne);
        let (rpssd, rpssd_uncor) = lat(RetryKind::RpSsd);
        assert!(rpssd < one, "RPSSD {rpssd} vs SSDone {one}");
        assert_eq!(
            one_uncor, rpssd_uncor,
            "RPSSD must still ship the failed pages"
        );
    }

    #[test]
    fn host_link_serializes_write_ingress() {
        // Two simultaneous 1-MiB writes: ingress at 8 GB/s costs 131 µs
        // each and is serialized, so the later write's data reaches the
        // dies measurably later.
        let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
        cfg.queue_depth = 8;
        let trace = Trace::new(vec![
            write_req(0, 0, 1 << 20),
            write_req(0, 1 << 20, 1 << 20),
        ]);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.completed_requests, 2);
        // Makespan must cover at least both ingress transfers plus one
        // program: 2 x 131 + 400 > 650 µs.
        assert!(
            report.makespan.as_us() > 650.0,
            "makespan {}",
            report.makespan.as_us()
        );
    }

    #[test]
    fn gc_work_is_charged_to_dies() {
        // A tiny write region forces GC; total simulated time must grow
        // well beyond the no-GC bound because erases (3.5 ms) serialize
        // behind programs on the victim dies.
        let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
        cfg.geometry = rif_flash::FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        };
        cfg.queue_depth = 2;
        // Overwrite a 4-slot working set far beyond the 16-slot write
        // region capacity of the single die.
        let reqs: Vec<IoRequest> = (0..120)
            .map(|i| write_req(i, (i % 4) * 65536, 65536))
            .collect();
        let report = Simulator::new(cfg).run(&Trace::new(reqs));
        assert_eq!(report.completed_requests, 120);
        assert!(report.gc_relocations > 0 || report.makespan.as_us() > 120.0 * 400.0);
    }

    #[test]
    fn sub_page_reads_sense_single_pages() {
        let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
        cfg.forced_failure_slots = Some(vec![]);
        let trace = Trace::new(vec![read_req(0, 0, 16 * 1024)]);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.page_senses, 1);
        assert_eq!(report.completed_bytes, 16 * 1024);
    }

    #[test]
    fn requests_spanning_slots_fan_out_to_multiple_dies() {
        let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
        cfg.forced_failure_slots = Some(vec![]);
        // 256 KiB = 4 slots = 16 pages on 4 different dies.
        let trace = Trace::new(vec![read_req(0, 0, 256 * 1024)]);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.page_senses, 16);
        // Four dies sense in parallel; four channels transfer in
        // parallel: far faster than a serial 16-page read.
        let lat = report.read_latency.max().as_us();
        assert!(lat < 40.0 + 4.0 * 13.0 + 40.0, "latency {lat}");
    }

    #[test]
    fn suspend_resume_cuts_read_latency_behind_programs() {
        // One long program monopolizes a die; a read arrives right after.
        // Without suspend the read waits out the 400-µs program; with it,
        // the read preempts and the program resumes afterwards.
        let build = |suspend: bool| {
            let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
            cfg.read_suspend = suspend;
            cfg.queue_depth = 4;
            cfg
        };
        // Write slot 0 (die 0), then read slot 0 shortly after the program
        // starts (write path: ingress ~8 µs + 4 transfers ~52 µs).
        let trace = Trace::new(vec![write_req(0, 0, 65536), read_req(100, 0, 65536)]);
        let plain = Simulator::new(build(false)).run(&trace);
        let susp = Simulator::new(build(true)).run(&trace);
        assert_eq!(plain.completed_requests, 2);
        assert_eq!(susp.completed_requests, 2);
        let lat_plain = plain.read_latency.max().as_us();
        let lat_susp = susp.read_latency.max().as_us();
        assert!(
            lat_susp + 150.0 < lat_plain,
            "suspend: {lat_susp} vs plain: {lat_plain}"
        );
        // The write still completes: the suspended program resumed.
        assert_eq!(susp.completed_bytes, 2 * 65536);
    }

    #[test]
    fn suspension_is_bounded_per_command() {
        // A stream of reads cannot starve a program forever: after two
        // suspensions the program runs to completion.
        let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
        cfg.read_suspend = true;
        cfg.queue_depth = 16;
        let mut reqs = vec![write_req(0, 0, 65536)];
        for i in 0..20 {
            reqs.push(read_req(100 + i * 30, 0, 65536));
        }
        let report = Simulator::new(cfg).run(&Trace::new(reqs));
        assert_eq!(report.completed_requests, 21);
        // The write must finish within a bounded window: program 400 µs +
        // 2 suspensions x (sense 40 + overhead 20) + queued reads ahead.
        assert!(
            report.makespan.as_us() < 5_000.0,
            "makespan {}",
            report.makespan.as_us()
        );
    }

    #[test]
    fn suspend_disabled_matches_baseline_results() {
        // With the feature off (the paper's configuration), results are
        // bit-identical to the pre-feature behaviour.
        let trace = WorkloadProfile::by_name("Ali2").unwrap().generate(200, 3);
        let run = |suspend| {
            let mut cfg = SsdConfig::small(RetryKind::Rif, 1000);
            cfg.read_suspend = suspend;
            Simulator::new(cfg).run(&trace)
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a.makespan, b.makespan);
        // And enabling it on a write-heavy trace changes read latency.
        let c = run(true);
        assert!(c.completed_requests == a.completed_requests);
    }

    #[test]
    fn stepper_drains_completions_in_order() {
        let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
        cfg.forced_failure_slots = Some(vec![]);
        let mut sim = Simulator::new(cfg);
        let a = sim.submit(read_req(0, 0, 65536));
        let b = sim.submit(read_req(10, 65536, 65536));
        assert_eq!((a, b), (0, 1));
        // Nothing before the first sense finishes.
        sim.advance_until(SimTime::from_us(30));
        assert!(sim.drain_completions().is_empty());
        assert_eq!(sim.unfinished_requests(), 2);
        sim.advance_until(SimTime::MAX);
        let done = sim.drain_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, 0);
        assert_eq!(done[1].id, 1);
        assert!(done[0].finished <= done[1].finished);
        assert!(done[0].latency() > SimDuration::from_us(50));
        assert_eq!(sim.unfinished_requests(), 0);
        // A second drain is empty; finish() still reports both requests.
        assert!(sim.drain_completions().is_empty());
        let report = sim.finish();
        assert_eq!(report.completed_requests, 2);
    }

    #[test]
    fn stepper_accepts_live_injection_mid_run() {
        // Submit while the event loop has already advanced: the late
        // request's stale arrival is clamped to the clock instead of
        // panicking the event queue.
        let mut cfg = SsdConfig::small(RetryKind::Rif, 1000);
        cfg.forced_failure_slots = Some(vec![]);
        let mut sim = Simulator::new(cfg);
        sim.submit(read_req(0, 0, 65536));
        sim.advance_until(SimTime::from_us(60)); // sense done, transfers going
        let clock = sim.now();
        assert!(clock > SimTime::ZERO);
        let id = sim.submit(read_req(0, 65536, 65536)); // arrival 0 is in the past
        sim.advance_until(SimTime::MAX);
        let done = sim.drain_completions();
        assert_eq!(done.len(), 2);
        let late = done.iter().find(|c| c.id == id).unwrap();
        assert_eq!(late.arrival, clock, "stale arrival clamps to the clock");
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.next_event_time(), None);
    }

    #[test]
    fn stepper_advance_is_chunking_invariant() {
        // Advancing in many small windows handles exactly the same events
        // as one big advance: reports are byte-identical.
        let trace = WorkloadProfile::by_name("Ali124").unwrap().generate(150, 9);
        let batch = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000)).run(&trace);
        let mut sim = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000));
        for r in &trace {
            sim.submit(*r);
        }
        let mut t = SimTime::ZERO;
        while sim.pending_events() > 0 {
            t = t + SimDuration::from_us(100);
            sim.advance_until(t);
        }
        let stepped = sim.finish();
        assert_eq!(batch.to_json(), stepped.to_json());
    }

    #[test]
    fn out_of_order_submission_matches_sorted_submission() {
        // The stepper takes an arrival earlier than one still pending:
        // the event queue parks it on its heap lane, in front of the
        // sorted run. Same requests, same instants, so the same report
        // and the same completions as the sorted trace gives — on the
        // plain device and with the background tick in the queue.
        let mut sorted: Vec<IoRequest> = mixed_trace(240, 31).iter().copied().collect();
        sorted.dedup_by_key(|r| r.arrival); // equal instants would tie on submission order
        let cut = sorted.len() / 3;
        // A third up front, the clock run to its last arrival, the rest
        // injected mid-run: every arrival is still ahead of the clock.
        let outcome = |cfg: SsdConfig, head: &[usize], tail: &[usize]| {
            let mut sim = Simulator::new(cfg);
            for &i in head {
                sim.submit(sorted[i]);
            }
            sim.advance_until(sorted[cut - 1].arrival);
            for &i in tail {
                sim.submit(sorted[i]);
            }
            sim.advance_until(SimTime::MAX);
            let mut done: Vec<(u64, SimTime, SimTime)> = sim
                .drain_completions()
                .iter()
                .map(|c| (c.offset, c.arrival, c.finished))
                .collect();
            done.sort_unstable();
            (sim.finish().to_json(), done)
        };
        // The latest arrival first (it parks at the run's back and sends
        // all that follow to the heap), then neighbours swapped.
        let shuffle = |range: std::ops::Range<usize>| {
            let mut order: Vec<usize> = range.collect();
            order.chunks_mut(2).for_each(|pair| pair.reverse());
            order.rotate_right(1);
            order
        };
        let in_order = |range: std::ops::Range<usize>| range.collect::<Vec<usize>>();
        for cfg in [
            SsdConfig::small(RetryKind::Rif, 1500),
            hybrid_cfg(RetryKind::Rif, 1500),
        ] {
            let n = sorted.len();
            let want = outcome(cfg.clone(), &in_order(0..cut), &in_order(cut..n));
            let got = outcome(cfg, &shuffle(0..cut), &shuffle(cut..n));
            assert_eq!(want.0, got.0, "report differs");
            assert_eq!(want.1, got.1, "completions differ");
        }
    }

    #[test]
    fn report_does_not_depend_on_the_map_hasher() {
        // The FTL's and the retention tracker's maps hash with a fixed
        // seed, so a result that leaked their iteration order would
        // repeat run after run and be baked into the goldens unseen.
        // Two different seeds walk the maps differently; a hybrid run
        // (GC, cache migration, the refresh scan, drift) must not care.
        let trace = mixed_trace(400, 33);
        let run = |seed: u64| {
            let mut cfg = hybrid_cfg(RetryKind::Rif, 1500);
            cfg.drift = rif_flash::learn::DriftClock {
                days_per_sec: 1e6,
                pe_per_sec: 0.0,
            };
            let h = cfg.hybrid.as_mut().unwrap();
            h.migration = crate::hybrid::MigrationPolicy::Fifo;
            h.bg.high_watermark = 0.001;
            h.bg.low_watermark = 0.0;
            // A drain that takes two residents a tick: which two, and
            // so every later location, hangs on the candidate order.
            h.bg.migrate_batch = 2;
            let report = Simulator::with_hasher(cfg, IntBuildHasher::with_seed(seed))
                .with_metrics()
                .run(&trace);
            let h = report.hybrid.expect("hybrid run must summarize");
            assert!(h.migrated_slots > 0 && h.refreshed_slots > 0, "{h:?}");
            report.to_json()
        };
        assert_eq!(run(0x5EED_0001), run(0x5EED_0002));
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = WorkloadProfile::by_name("Sys0").unwrap().generate(200, 5);
        let run = || {
            let cfg = SsdConfig::small(RetryKind::SwiftReadPlus, 1000);
            Simulator::new(cfg).run(&trace)
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed_bytes, b.completed_bytes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.decode_failures, b.decode_failures);
    }

    fn learned_cfg(retry: RetryKind, pe: u32) -> SsdConfig {
        let mut cfg = SsdConfig::small(retry, pe);
        cfg.learning =
            crate::config::LearningMode::Learned(rif_flash::learn::LearnerConfig::default_paper());
        cfg
    }

    fn aged_trace(n: usize, seed: u64) -> Trace {
        SynthConfig {
            read_ratio: 0.9,
            cold_read_ratio: 0.7,
            ..SynthConfig::default()
        }
        .generate(n, seed)
    }

    #[test]
    fn learned_mode_populates_summary_oracle_does_not() {
        let trace = aged_trace(150, 9);
        let oracle = Simulator::new(SsdConfig::small(RetryKind::Rif, 2000)).run(&trace);
        assert!(oracle.learner.is_none());
        assert!(!oracle.to_json().contains("\"learner\""));
        let learned = Simulator::new(learned_cfg(RetryKind::Rif, 2000)).run(&trace);
        let l = learned.learner.expect("learned run must summarize");
        assert!(l.updates > 0, "no learner updates");
        assert!(l.blocks_tracked > 0);
        assert!(l.mean_abs_error.is_finite() && l.mean_abs_error >= 0.0);
        assert!(learned.to_json().contains("\"learner\""));
    }

    #[test]
    fn learned_runs_are_deterministic() {
        let trace = aged_trace(120, 11);
        let run = || {
            Simulator::new(learned_cfg(RetryKind::SwiftReadPlus, 2000))
                .with_metrics()
                .run(&trace)
                .to_json()
        };
        assert_eq!(run(), run(), "learned mode must stay reproducible");
    }

    #[test]
    fn rif_learned_recalibrations_feed_the_learner() {
        // At heavy wear the RP fires often, so the RVS re-calibration
        // path must dominate the learner's observations.
        let trace = aged_trace(200, 13);
        let report = Simulator::new(learned_cfg(RetryKind::Rif, 2000)).run(&trace);
        let l = report.learner.unwrap();
        assert!(
            l.recalibrations > 0,
            "in-die retries produced no re-calibration observations"
        );
        assert!(l.recalibrations <= l.updates);
    }

    #[test]
    fn drift_clock_ages_groups_mid_run() {
        // An extreme drift rate must change learned-mode behaviour versus
        // the same run without drift; with the clock disabled the two
        // configurations are identical.
        let trace = aged_trace(150, 17);
        let still = Simulator::new(learned_cfg(RetryKind::SwiftRead, 1000)).run(&trace);
        let mut cfg = learned_cfg(RetryKind::SwiftRead, 1000);
        cfg.drift = rif_flash::learn::DriftClock {
            days_per_sec: 2000.0,
            pe_per_sec: 100_000.0,
        };
        let drifted = Simulator::new(cfg).run(&trace);
        assert_ne!(
            still.to_json(),
            drifted.to_json(),
            "drift clock had no observable effect"
        );
    }

    fn hybrid_cfg(retry: RetryKind, pe: u32) -> SsdConfig {
        let mut cfg = SsdConfig::small(retry, pe);
        cfg.hybrid = Some(crate::hybrid::HybridConfig::slc_qlc());
        cfg
    }

    fn mixed_trace(n: usize, seed: u64) -> Trace {
        SynthConfig {
            read_ratio: 0.5,
            cold_read_ratio: 0.5,
            hot_region_bytes: 4 << 20,
            cold_region_bytes: 64 << 20,
            ..SynthConfig::default()
        }
        .generate(n, seed)
    }

    #[test]
    fn hybrid_run_completes_and_summarizes() {
        let trace = mixed_trace(300, 21);
        let plain = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000)).run(&trace);
        assert!(plain.hybrid.is_none());
        assert!(!plain.to_json().contains("\"hybrid\""));
        let report = Simulator::new(hybrid_cfg(RetryKind::Rif, 1000)).run(&trace);
        assert_eq!(report.completed_requests, 300);
        let h = report.hybrid.expect("hybrid run must summarize");
        assert!(report.to_json().contains("\"hybrid\""));
        assert!((0.0..=1.0).contains(&h.cache_occupancy));
        assert!(h.bg_ops >= h.migrated_slots + h.refreshed_slots);
    }

    #[test]
    fn hybrid_cache_drains_under_write_pressure() {
        // A write-heavy trace pushes the cache past the high watermark:
        // the scheduler must migrate, and occupancy must end at or below
        // the point where draining stops making progress.
        let mut cfg = hybrid_cfg(RetryKind::Rif, 1000);
        // FIFO drain: no reliability gate, so migration always runs, and
        // near-zero watermarks so this short trace reaches them.
        let h = cfg.hybrid.as_mut().unwrap();
        h.migration = crate::hybrid::MigrationPolicy::Fifo;
        h.bg.high_watermark = 0.001;
        h.bg.low_watermark = 0.0;
        let trace = SynthConfig {
            read_ratio: 0.1,
            cold_read_ratio: 0.2,
            hot_region_bytes: 16 << 20,
            cold_region_bytes: 64 << 20,
            ..SynthConfig::default()
        }
        .generate(500, 23);
        let report = Simulator::new(cfg).run(&trace);
        assert_eq!(report.completed_requests, 500);
        let h = report.hybrid.unwrap();
        assert!(h.migrated_slots > 0, "cache never drained: {h:?}");
    }

    #[test]
    fn hybrid_qlc_reads_retry_more_than_tlc() {
        // Same trace, same seed: pure-QLC capacity reads see amplified
        // RBER, so decode failures + in-die retries must exceed TLC's.
        let trace = SynthConfig {
            read_ratio: 0.95,
            cold_read_ratio: 0.8,
            ..SynthConfig::default()
        }
        .generate(400, 25);
        let tlc = Simulator::new(SsdConfig::small(RetryKind::IdealOne, 1000)).run(&trace);
        let mut qcfg = SsdConfig::small(RetryKind::IdealOne, 1000);
        qcfg.hybrid = Some(crate::hybrid::HybridConfig::qlc());
        let qlc = Simulator::new(qcfg).run(&trace);
        assert!(
            qlc.decode_failures > tlc.decode_failures,
            "QLC {} vs TLC {} decode failures",
            qlc.decode_failures,
            tlc.decode_failures
        );
        assert!(qlc.read_latency.mean() >= tlc.read_latency.mean());
    }

    #[test]
    fn hybrid_refresh_fires_under_drift() {
        let mut cfg = hybrid_cfg(RetryKind::Rif, 1000);
        // Extreme drift: simulated microseconds become retention days, so
        // written slots age past the refresh interval mid-run.
        cfg.drift = rif_flash::learn::DriftClock {
            days_per_sec: 5e6,
            pe_per_sec: 0.0,
        };
        let trace = mixed_trace(400, 27);
        let report = Simulator::new(cfg).run(&trace);
        let h = report.hybrid.unwrap();
        assert!(
            h.refreshed_slots > 0,
            "drift never triggered refresh: {h:?}"
        );
    }

    #[test]
    fn hybrid_runs_are_deterministic() {
        let trace = mixed_trace(250, 29);
        let run = || {
            let mut cfg = hybrid_cfg(RetryKind::Rif, 1500);
            cfg.drift = rif_flash::learn::DriftClock {
                days_per_sec: 1e6,
                pe_per_sec: 0.0,
            };
            Simulator::new(cfg).with_metrics().run(&trace).to_json()
        };
        assert_eq!(run(), run(), "hybrid mode must stay reproducible");
    }

    #[test]
    fn hybrid_stepper_terminates_without_foreground_work() {
        // The BgTick must disarm once the last request completes, or
        // advance_until(MAX) would spin forever.
        let mut sim = Simulator::new(hybrid_cfg(RetryKind::Rif, 1000));
        sim.submit(write_req(0, 0, 65536));
        sim.submit(read_req(10, 0, 65536));
        sim.advance_until(SimTime::MAX);
        assert_eq!(sim.pending_events(), 0, "BgTick failed to disarm");
        assert_eq!(sim.unfinished_requests(), 0);
        assert!(sim.bg_summary().is_some());
        // Resubmitting re-arms the scheduler.
        sim.submit(write_req(0, 65536, 65536));
        sim.advance_until(SimTime::MAX);
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.unfinished_requests(), 0);
    }

    #[test]
    fn oracle_mode_draws_no_learner_randomness() {
        // The learned path must not perturb the oracle path's RNG stream:
        // an oracle run constructed after the learned types existed still
        // matches a fresh oracle run bit-for-bit (the full cross-version
        // pin lives in tests/golden/oracle_seed_reports.json).
        let trace = aged_trace(100, 19);
        let a = Simulator::new(SsdConfig::small(RetryKind::Rif, 2000)).run(&trace);
        let b = Simulator::new(SsdConfig::small(RetryKind::Rif, 2000)).run(&trace);
        assert_eq!(a.to_json(), b.to_json());
    }
}
