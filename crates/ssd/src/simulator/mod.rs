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
//!
//! One module per resource, each a `Station` plus the rule that picks
//! its next job: `die`, `channel`, `ecc`, `host` (admission, the link,
//! the write launch behind it, completion). `read_path` walks an admitted
//! read through its groups, the scheme's outcome (asked of the
//! [`crate::retry`] row, never of a scheme by name), retries and the
//! learner; `background` is the hybrid device's scheduler. This file
//! holds what they share: the event type, the station, the request tables,
//! the stepper API and the report. Small helpers called across modules are
//! `#[inline]`: codegen units follow modules, and without it the split
//! cost `sim_read_retry` about 4 %.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use rif_events::trace::{labeled, MetricsRegistry, TraceSink, Tracer};
use rif_events::{EventQueue, LatencyHistogram, SimDuration, SimRng, SimTime, UtilizationTracker};
use rif_flash::chip::FlashTiming;
use rif_flash::learn::{ReadOutcome, ThresholdLearner};
use rif_flash::rber::{BlockProfile, ErrorModel};
use rif_flash::swift_read::SwiftRead;
use rif_flash::vth::OperatingPoint;
use rif_workloads::trace::{MAX_ARRIVAL, MAX_END_BYTES};
use rif_workloads::{IoOp, IoRequest, Trace};

use crate::config::SsdConfig;
use crate::ftl::{Ftl, GcWork, SlotLocation};
use crate::hybrid::{
    AmpTable, BgKind, HybridConfig, MigrationPolicy, AMPLIFIED_RBER_CAP, AMPLIFIED_RBER_FLOOR,
};
use crate::refresh::RefreshPolicy;
use crate::report::{ChannelUsage, HybridSummary, LearnerSummary, SimReport};
use crate::retention::RetentionTracker;
use crate::retry::Predictor;

mod background;
mod channel;
mod die;
mod ecc;
mod host;
mod read_path;
#[cfg(test)]
mod tests;

use background::HybridState;
use channel::{Channel, Transfer, XferKind};
use die::{gc_duration, Die, DieCmd, DieWork};
use ecc::EccEngine;
pub use host::Completion;
use host::{HostJob, Request, WriteJob};
use read_path::{GroupPhase, ReadGroup};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Arrival of the request in this slot of the request table.
    Arrive(usize),
    DieDone(usize, u32),
    ChanDone(usize),
    EccDone(usize),
    HostDone,
    /// Periodic background-scheduler tick (hybrid mode only). Disarms
    /// itself when no requests are left, so `run()` still terminates.
    BgTick,
}

/// What a resource span says besides its resource: name, parent span,
/// owning request's id and byte count.
type SpanDesc = (&'static str, u64, Option<u64>, Option<u64>);

/// A resource that serves one job at a time: the job in service with its
/// trace span, and the jobs waiting. Which waiting job starts next is
/// the one thing that differs between resources and stays with each.
#[derive(Debug)]
struct Station<J> {
    /// The resource's name in trace records (`die:3`).
    label: String,
    /// The job in service and its span (0 when tracing is off).
    current: Option<(J, u64)>,
    queue: VecDeque<J>,
}

impl<J> Station<J> {
    fn new(label: String) -> Self {
        Station {
            label,
            current: None,
            queue: VecDeque::new(),
        }
    }

    fn idle(&self) -> bool {
        self.current.is_none()
    }

    /// Puts `job` in service, under a span on this resource when the
    /// caller describes one.
    fn begin(&mut self, now: SimTime, tracer: &mut Tracer, job: J, span: Option<SpanDesc>) {
        debug_assert!(self.idle(), "{} is busy", self.label);
        let span = span.map_or(0, |(name, parent, req, bytes)| {
            tracer.span_begin(now, name, Some(parent), Some(&self.label), req, bytes)
        });
        self.current = Some((job, span));
    }

    /// Takes the job in service and closes its span: the one place a
    /// resource span ends, whether the job completed or was suspended.
    fn finish(&mut self, now: SimTime, tracer: &mut Tracer) -> J {
        let (job, span) = self.current.take().expect("station had no job");
        tracer.span_end(now, span);
        job
    }
}

/// A table of in-flight records addressed by slot. A released slot is
/// reused before the table grows, so the table stays the size of what is
/// in flight, not of the whole run.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<T>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> usize {
        if let Some(slot) = self.free.pop() {
            self.slots[slot] = value;
            return slot;
        }
        self.slots.push(value);
        self.slots.len() - 1
    }

    /// Gives `slot` back; nothing queued may name it any more.
    fn release(&mut self, slot: usize) {
        self.free.push(slot);
    }
}

impl<T> Index<usize> for Slab<T> {
    type Output = T;
    fn index(&self, slot: usize) -> &T {
        &self.slots[slot]
    }
}

impl<T> IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot]
    }
}

/// The simulator: owns the configuration, consumes a trace, produces a
/// [`SimReport`]. The [crate documentation](crate) has a usage example.
pub struct Simulator {
    cfg: SsdConfig,
    /// The NAND error model (RBER vs stress): always the calibrated one.
    error_model: ErrorModel,
    rng: SimRng,
    events: EventQueue<Ev>,
    /// The one mapping layer; it has an SLC cache region only when the
    /// hybrid configuration asks for one.
    ftl: Ftl,
    /// Hybrid SLC/QLC subsystem: cell-mode amplification and the
    /// background scheduler. `None` is the pure-TLC device.
    hybrid: Option<HybridState>,
    retention: RetentionTracker,
    /// Process-variation factor per global block id, drawn on the
    /// block's first read (0 until then: a drawn factor is at least
    /// 0.55); sized on the first read.
    block_factors: Vec<f64>,
    dies: Vec<Die>,
    channels: Vec<Channel>,
    ecc: Vec<EccEngine>,
    host: Station<HostJob>,
    // What is in flight or backlogged, by slot: never the whole history,
    // however long a stepper-driven simulator lives.
    requests: Slab<Request>,
    groups: Slab<ReadGroup>,
    write_jobs: Slab<WriteJob>,
    /// Requests ever submitted; the next request's id.
    submitted: u64,
    backlog: VecDeque<usize>,
    outstanding: usize,
    completions: Vec<Completion>,
    /// Whether finished requests are kept for
    /// [`Simulator::drain_completions`]; [`Simulator::run`], whose
    /// caller never drains, turns it off.
    keep_completions: bool,
    // Online threshold learning (oracle mode leaves all three inert).
    learner: Option<ThresholdLearner>,
    swift: Option<SwiftRead>,
    learn_err_sum: f64,
    learn_err_samples: u64,
    // Observability (both off by default and free when off).
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
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
        cfg.validate();
        let n_channels = cfg.geometry.channels;
        let learner = cfg
            .learning
            .learner_config()
            .map(|c| ThresholdLearner::new(*c));
        let error_model = ErrorModel::calibrated();
        let swift = learner
            .as_ref()
            .map(|_| SwiftRead::new(error_model.tlc().clone()));
        let cache_fraction = cfg.hybrid.as_ref().map_or(0.0, |h| h.cache_fraction);
        Simulator {
            error_model,
            rng: SimRng::seed_from(cfg.seed),
            ftl: Ftl::with_cache(cfg.geometry, cache_fraction),
            hybrid: HybridState::new(&cfg),
            learner,
            swift,
            learn_err_sum: 0.0,
            learn_err_samples: 0,
            retention: RetentionTracker::new(cfg.refresh_days, cfg.seed ^ 0xA5E),
            block_factors: Vec::new(),
            dies: (0..n_channels * cfg.geometry.dies_per_channel)
                .map(Die::new)
                .collect(),
            channels: (0..n_channels).map(Channel::new).collect(),
            ecc: (0..n_channels).map(EccEngine::new).collect(),
            host: Station::new("host".to_string()),
            events: EventQueue::new(),
            requests: Slab::new(),
            groups: Slab::new(),
            write_jobs: Slab::new(),
            submitted: 0,
            backlog: VecDeque::new(),
            outstanding: 0,
            completions: Vec::new(),
            keep_completions: true,
            tracer: Tracer::disabled(),
            metrics: None,
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
    /// is a predictable branch or two.
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

    /// Emits a counter increment to the trace and the metrics registry
    /// (to neither when nothing is observing).
    #[inline]
    fn count(&mut self, now: SimTime, key: &str, delta: u64) {
        self.tracer.counter(now, key, delta);
        if let Some(m) = &mut self.metrics {
            m.inc(key, delta);
        }
    }

    /// Records one fact in both places that keep it: the report
    /// statistic `stat` picks, and the counter `key` of the trace and the
    /// metrics registry.
    #[inline]
    fn tally(&mut self, now: SimTime, stat: fn(&mut Self) -> &mut u64, key: &str, n: u64) {
        *stat(self) += n;
        self.count(now, key, n);
    }

    /// Runs the trace to completion and returns the report.
    ///
    /// This is a thin wrapper over the incremental stepper API: every
    /// request is [`submitted`](Simulator::submit) up-front, the event
    /// loop is advanced past the last event, and the accumulated state is
    /// [`finished`](Simulator::finish) into a report. Driving the stepper
    /// by hand with the same trace yields a byte-identical canonical
    /// report (see the `sim_determinism_golden` suite). The only
    /// difference is that no [`Completion`] is kept: nothing could drain
    /// it.
    pub fn run(mut self, trace: &Trace) -> SimReport {
        self.keep_completions = false;
        self.events.reserve(trace.len());
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
    ///
    /// # Panics
    ///
    /// Panics unless the request ends at or below byte 2^48 (256 TiB,
    /// the trace model's [`MAX_END_BYTES`]) without overflowing `u64`,
    /// the bound of the simulator's slot tables, and arrives at or before
    /// 2^62 ns ([`MAX_ARRIVAL`]), which leaves the clock headroom for its
    /// service time.
    pub fn submit(&mut self, r: IoRequest) -> u64 {
        let end = r.offset.saturating_add(u64::from(r.bytes));
        assert!(end <= MAX_END_BYTES, "request {r:?} ends past byte 2^48");
        assert!(
            r.arrival <= MAX_ARRIVAL,
            "request {r:?} arrives past 2^62 ns"
        );
        let id = self.submitted;
        self.submitted += 1;
        let arrival = r.arrival.max(self.events.now());
        let slot = self.requests.insert(Request {
            id,
            arrival,
            op: r.op,
            offset: r.offset,
            bytes: r.bytes,
            remaining: 0,
            span: 0,
        });
        self.events.schedule(arrival, Ev::Arrive(slot));
        self.arm_bg_tick();
        id
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
                Ev::Arrive(slot) => self.on_arrive(now, slot),
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
        (self.submitted - self.completed_requests) as usize
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
}
