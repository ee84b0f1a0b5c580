//! `sim_write_bg` — the same simulator used differently: writes beside
//! reads, through the stepper API the server uses.
//!
//! A write-heavy `Ali2`-shaped trace (27 % reads) on the small geometry
//! as a hybrid SLC/QLC device with the background scheduler on, learned
//! thresholds and a drift clock, offered below saturation and fed in
//! 64k-request chunks (`submit` / `advance_until` / `drain_completions`)
//! for RiFSSD and SENC. FTL, GC, refresh, the learner and the stepper
//! path all work here; a read-path speed-up that costs them shows.

use std::time::Instant;

use rif_events::SimTime;
use rif_ssd::{
    DriftClock, HybridConfig, LearnerConfig, LearningMode, RetryKind, SimReport, Simulator,
    SsdConfig,
};
use rif_workloads::{SynthConfig, Trace};

use super::sim_read_retry::{report_steps, scheme_key};
use super::simtrace::StepSink;
use super::{repeat_setup, Ctx, Report};
use crate::{micro, stats};

/// Simulated host requests per second of timed section, both schemes
/// together, frozen on the reference box.
const REQS_PER_SEC: f64 = 190_000.0;
const SCHEMES: [RetryKind; 2] = [RetryKind::Rif, RetryKind::Sentinel];
const PE_CYCLES: u32 = 2000;
const CHUNK: usize = 64 * 1024;
/// 40 µs between 64-KiB requests (1.6 GB/s offered) is the fastest this
/// device sustains with GC running: the makespan stays within 5 % of the
/// last arrival.
const INTERARRIVAL_NS: f64 = 40_000.0;
/// Retention days the drift clock adds over the whole run, whatever its
/// length. Kept well under the 30-day refresh interval: a clock that
/// crosses it mid-run ages every cold slot at once, and the refresh
/// scan's backlog then grows without bound (observed: 12 GB resident at
/// 1 day per simulated second over a 32-s trace).
const DRIFT_DAYS: f64 = 6.4;

fn trace(n: usize, seed: u64) -> Trace {
    SynthConfig {
        read_ratio: 0.27,
        cold_read_ratio: 0.50,
        // Small enough that the run overwrites the hot region many
        // times, so GC reaches its steady state inside the run.
        hot_region_bytes: 512 << 20,
        cold_region_bytes: 2 << 30,
        mean_interarrival_ns: INTERARRIVAL_NS,
        ..SynthConfig::default()
    }
    .generate(n, seed)
}

fn config(kind: RetryKind, n: usize, seed: u64) -> SsdConfig {
    let mut cfg = SsdConfig::small(kind, PE_CYCLES);
    cfg.seed = seed;
    cfg.hybrid = Some(HybridConfig::slc_qlc());
    cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
    cfg.drift = DriftClock {
        days_per_sec: DRIFT_DAYS / (n as f64 * INTERARRIVAL_NS / 1e9),
        pe_per_sec: 0.0,
    };
    cfg
}

/// Host seconds spent inside each stepper call, and per-chunk cost.
#[derive(Default)]
struct StepperTime {
    submit: f64,
    advance: f64,
    drain: f64,
    finish: f64,
    /// `(start_ns, end_ns, host seconds, requests)` per timed unit: every
    /// chunk, and the final advance + drain + finish of each scheme.
    units: Vec<(u64, u64, f64, usize)>,
}

/// Drives one trace through the stepper, checking the completion ledger.
fn drive(
    ctx: &mut Ctx,
    r: &mut Report,
    mut sim: Simulator,
    trace: &Trace,
    cell: u64,
    t: &mut StepperTime,
) -> SimReport {
    let mut seen = vec![false; trace.len()];
    let mut completed = 0usize;
    let mut duplicates = 0u64;
    let mut note = |done: Vec<rif_ssd::Completion>| {
        for c in done {
            match seen.get_mut(c.id as usize) {
                Some(slot) if !*slot => {
                    *slot = true;
                    completed += 1;
                }
                _ => duplicates += 1,
            }
        }
    };
    let cell_span = ctx.spans.begin("ssd.stepper", cell);
    for (i, chunk) in trace.requests().chunks(CHUNK).enumerate() {
        ctx.speed.sample();
        let (start_ns, chunk_start) = (ctx.speed.now_ns(), Instant::now());
        let span = ctx.spans.begin("ssd.submit", i as u64);
        for req in chunk {
            sim.submit(*req);
        }
        ctx.spans.end(span);
        let submitted = chunk_start.elapsed().as_secs_f64();

        let limit = chunk.last().expect("chunks are non-empty").arrival;
        let span = ctx.spans.begin("ssd.advance", i as u64);
        sim.advance_until(limit);
        ctx.spans.end(span);
        let advanced = chunk_start.elapsed().as_secs_f64();

        let span = ctx.spans.begin("ssd.drain", i as u64);
        let done = sim.drain_completions();
        ctx.spans.end(span);
        let drained = chunk_start.elapsed().as_secs_f64();
        note(done);

        t.submit += submitted;
        t.advance += advanced - submitted;
        t.drain += drained - advanced;
        t.units
            .push((start_ns, ctx.speed.now_ns(), drained, chunk.len()));
    }
    ctx.speed.sample();
    let (tail_ns, tail) = (ctx.speed.now_ns(), Instant::now());
    let start = Instant::now();
    ctx.spans
        .time("ssd.advance", u64::MAX, || sim.advance_until(SimTime::MAX));
    t.advance += start.elapsed().as_secs_f64();
    let start = Instant::now();
    let done = ctx
        .spans
        .time("ssd.drain", u64::MAX, || sim.drain_completions());
    t.drain += start.elapsed().as_secs_f64();
    note(done);
    let start = Instant::now();
    let report = ctx.spans.time("ssd.finish", cell, || sim.finish());
    t.finish += start.elapsed().as_secs_f64();
    t.units
        .push((tail_ns, ctx.speed.now_ns(), tail.elapsed().as_secs_f64(), 0));
    ctx.speed.sample();
    ctx.spans.end(cell_span);

    let n = trace.len();
    r.failed += (n - completed) as u64 + duplicates;
    r.check(completed == n && duplicates == 0, || {
        format!(
            "stepper ledger: {completed} of {n} completed once, {duplicates} duplicate completions"
        )
    });
    r.check(report.completed_requests == n as u64, || {
        format!(
            "report counts {} of {n} submitted",
            report.completed_requests
        )
    });
    report
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut r = Report::default();
    let n = ctx.scaled(REQS_PER_SEC / SCHEMES.len() as f64);
    let seed = ctx.seed;
    let setup_span = ctx.spans.begin("setup", 0);
    let (ready, setup_s) = repeat_setup(
        ctx.setups,
        &mut ctx.speed,
        || {
            let trace = trace(n, seed);
            // Warm-up: the first 5 % of the trace through one untimed run.
            let warm = Trace::new(trace.requests()[..(n / 20).max(1)].to_vec());
            std::hint::black_box(Simulator::new(config(RetryKind::Rif, n, seed)).run(&warm));
            let sims: Vec<Simulator> = SCHEMES
                .iter()
                .map(|&k| Simulator::new(config(k, n, seed)))
                .collect();
            (trace, sims)
        },
        drop,
    );
    ctx.spans.end(setup_span);
    let (trace, sims) = ready;

    let start = Instant::now();
    std::hint::black_box(Simulator::new(config(RetryKind::Rif, n, seed)));
    r.set("ssd.new.ms", start.elapsed().as_secs_f64() * 1e3);

    let mut t = StepperTime::default();
    let timed = ctx.spans.begin("timed", 0);
    let reports: Vec<SimReport> = sims
        .into_iter()
        .enumerate()
        .map(|(i, sim)| drive(ctx, &mut r, sim, &trace, i as u64, &mut t))
        .collect();
    ctx.spans.end(timed);

    let total = (n * SCHEMES.len()) as f64;
    r.attempted = total as u64;
    let host_secs = t.submit + t.advance + t.drain + t.finish;
    // Each unit's time as it would have been at reference host speed.
    let ref_secs: Vec<f64> = t
        .units
        .iter()
        .map(|u| u.2 * ctx.speed.factor(u.0, u.1))
        .collect();
    r.set("work_per_s", total / ref_secs.iter().sum::<f64>());
    r.set("sim_kreq_per_s", total / host_secs / 1e3);
    let chunk_us_per_req: Vec<f64> = t
        .units
        .iter()
        .zip(&ref_secs)
        .filter(|(u, _)| u.3 > 0)
        .map(|(u, secs)| secs * 1e6 / u.3 as f64)
        .collect();
    r.set("lat_us", stats::median(&chunk_us_per_req));
    r.set("ssd.submit.ns_per_req", t.submit * 1e9 / total);
    r.set("ssd.advance.ns_per_req", t.advance * 1e9 / total);
    r.set("ssd.drain.ns_per_req", t.drain * 1e9 / total);
    r.set("ssd.finish.ms", t.finish * 1e3 / SCHEMES.len() as f64);

    let rif = &reports[0];
    r.set("sim_lat_us", rif.read_latency.mean().as_us());
    r.set(
        "sim_rif_read_p99_us",
        rif.read_latency.percentile(99.0).map_or(0.0, |d| d.as_us()),
    );
    let mut fnv = stats::FNV_INIT;
    let last_arrival = trace.span().as_ns() as f64;
    for (kind, report) in SCHEMES.iter().zip(&reports) {
        fnv = stats::fnv1a(fnv, report.to_json().as_bytes());
        let over = report.makespan.as_ns() as f64 / last_arrival;
        r.check(over <= 1.05, || {
            format!(
                "{}: makespan {over:.3}x the last arrival — the load saturates",
                kind.label()
            )
        });
        let bg = report.hybrid.map_or(0, |h| h.bg_ops);
        let updates = report.learner.map_or(0, |l| l.updates);
        r.check(report.gc_relocations > 0 && bg > 0 && updates > 0, || {
            format!(
                "{}: gc_relocations {}, bg_ops {bg}, learner updates {updates} — all must be non-zero",
                kind.label(),
                report.gc_relocations
            )
        });
    }
    r.set("ssd.report_fnv", (fnv & 0xFFFF_FFFF_FFFF) as f64);
    let sum = |f: fn(&SimReport) -> u64| -> f64 { reports.iter().map(f).sum::<u64>() as f64 };
    let senses = sum(|s| s.page_senses);
    r.set("ssd.page_senses", senses);
    r.set("ssd.decode_failures", sum(|s| s.decode_failures));
    r.set("ssd.in_die_retries", sum(|s| s.in_die_retries));
    r.set("ssd.uncor_page_transfers", sum(|s| s.uncor_page_transfers));
    r.set("ssd.gc_relocations", sum(|s| s.gc_relocations));
    r.set("ssd.bg_ops", sum(|s| s.hybrid.map_or(0, |h| h.bg_ops)));
    r.set(
        "ssd.learner_updates",
        sum(|s| s.learner.map_or(0, |l| l.updates)),
    );
    r.set("ssd.host_ns_per_sense", host_secs * 1e9 / senses.max(1.0));

    // Determinism: the first tenth of the trace, batch run twice.
    let head = Trace::new(trace.requests()[..(n / 10).max(1)].to_vec());
    let once = Simulator::new(config(RetryKind::Rif, n, seed))
        .run(&head)
        .to_json();
    let twice = Simulator::new(config(RetryKind::Rif, n, seed))
        .run(&head)
        .to_json();
    r.check(once == twice, || {
        "two runs of one cell gave different reports".into()
    });

    if ctx.trace {
        let geometry = SsdConfig::small(RetryKind::Rif, PE_CYCLES).geometry;
        let n_dies = geometry.channels * geometry.dies_per_channel;
        for kind in SCHEMES {
            let (sink, totals) = StepSink::new();
            let sim = Simulator::new(config(kind, n, seed)).with_tracer(Box::new(sink));
            let report = ctx.spans.time("ssd.run.traced", 0, || sim.run(&head));
            report_steps(&mut r, scheme_key(kind), &totals.borrow(), &report, n_dies);
        }
        let window = ctx.micro_window();
        micro::flash(&mut r, window, true);
        micro::events(&mut r, window, seed);
        micro::workloads(&mut r, window, seed);
    }
    r.finish(setup_s);
    r
}
