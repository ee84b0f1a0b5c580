//! `sim_read_retry` — the paper's Fig. 17 cell, offline.
//!
//! The eight Table II profiles at a saturating 3-µs inter-arrival, times
//! all seven retry schemes, on paper geometry at 2K P/E, each through
//! one `Simulator::run`. `rif-ssd`, `rif-events` and `rif-flash` look-ups
//! do all the work; the LDPC kernels and the serving stack do none.

use std::time::Instant;

use rif_events::trace::JsonlSink;
use rif_ssd::{RetryKind, SimReport, Simulator, SsdConfig};
use rif_workloads::profiles::PAPER_WORKLOADS;
use rif_workloads::{IoOp, IoRequest, Trace};

use super::simtrace::{StepSink, StepTotals};
use super::{repeat_setup, Ctx, Report};
use crate::{micro, stats};

/// Simulated host requests per second of timed section the request count
/// is sized for (all 56 cells together), frozen on the reference box.
const REQS_PER_SEC: f64 = 450_000.0;
const PE_CYCLES: u32 = 2000;
/// Paper anchors at 2K P/E (Fig. 17): RiF over SENC, and RiF's shortfall
/// to SSDzero.
const PAPER_GAIN_PCT: f64 = 72.1;
const PAPER_GAP_PCT: f64 = 1.8;

/// A metric-name-safe scheme label (`SWR+` carries a character names
/// may not).
pub fn scheme_key(kind: RetryKind) -> &'static str {
    match kind {
        RetryKind::SwiftReadPlus => "SWRplus",
        other => other.label(),
    }
}

fn cell_config(kind: RetryKind, seed: u64) -> SsdConfig {
    let mut cfg = SsdConfig::paper(kind, PE_CYCLES);
    cfg.seed = seed;
    cfg
}

/// The device-saturating variant of a Table II profile (≈21 GB/s
/// offered against an 8 GB/s host link), as the Fig. 17 harness uses.
fn saturating_trace(profile: usize, n: usize, seed: u64) -> Trace {
    let mut cfg = PAPER_WORKLOADS[profile].config();
    cfg.mean_interarrival_ns = 3_000.0;
    cfg.generate(n, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ profile as u64)
}

struct Cell {
    profile: usize,
    kind: RetryKind,
    sim: Simulator,
}

struct Ready {
    traces: Vec<Trace>,
    cells: Vec<Cell>,
}

/// One cell after its timed run.
struct Ran {
    profile: usize,
    kind: RetryKind,
    report: SimReport,
    /// Host seconds inside `Simulator::run`.
    secs: f64,
    /// When it ran, on the host-speed probe's clock.
    window: (u64, u64),
}

fn setup(n: usize, seed: u64) -> Ready {
    let traces: Vec<Trace> = (0..PAPER_WORKLOADS.len())
        .map(|p| saturating_trace(p, n, seed))
        .collect();
    // Warm-up: 5 % of one cell's requests through one untimed run.
    let warm = saturating_trace(0, (n / 20).max(1), seed ^ 0x5EED);
    std::hint::black_box(Simulator::new(cell_config(RetryKind::Rif, seed)).run(&warm));
    let cells = (0..PAPER_WORKLOADS.len())
        .flat_map(|profile| {
            RetryKind::ALL.into_iter().map(move |kind| Cell {
                profile,
                kind,
                sim: Simulator::new(cell_config(kind, seed)),
            })
        })
        .collect();
    Ready { traces, cells }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut r = Report::default();
    let n_cells = PAPER_WORKLOADS.len() * RetryKind::ALL.len();
    let n = ctx.scaled(REQS_PER_SEC / n_cells as f64);
    let seed = ctx.seed;
    let setup_span = ctx.spans.begin("setup", 0);
    let (ready, setup_s) = repeat_setup(ctx.setups, &mut ctx.speed, || setup(n, seed), drop);
    ctx.spans.end(setup_span);
    r.set("ssd.new.ms", new_ms(seed));

    // Timed section: every cell once, in a fixed order, a host-speed
    // slice between cells.
    let timed = ctx.spans.begin("timed", 0);
    let mut ran: Vec<Ran> = Vec::with_capacity(n_cells);
    for (i, cell) in ready.cells.into_iter().enumerate() {
        let trace = &ready.traces[cell.profile];
        ctx.speed.sample();
        let span = ctx.spans.begin("ssd.run", i as u64);
        let (start_ns, start) = (ctx.speed.now_ns(), Instant::now());
        let report = cell.sim.run(trace);
        let secs = start.elapsed().as_secs_f64();
        let window = (start_ns, ctx.speed.now_ns());
        ctx.spans.end(span);
        let (profile, kind) = (cell.profile, cell.kind);
        ran.push(Ran {
            profile,
            kind,
            report,
            secs,
            window,
        });
    }
    ctx.speed.sample();
    ctx.spans.end(timed);
    // A cell's time as it would have been at reference host speed.
    let ref_secs = |c: &Ran| c.secs * ctx.speed.factor(c.window.0, c.window.1);

    let total_reqs = (n * n_cells) as f64;
    r.attempted = total_reqs as u64;
    let mut fnv = stats::FNV_INIT;
    for c in &ran {
        let done = c.report.completed_requests;
        r.failed += n as u64 - done.min(n as u64);
        r.check(done == n as u64, || {
            let profile = PAPER_WORKLOADS[c.profile].name;
            format!(
                "{profile}/{}: completed {done} of {n} submitted",
                c.kind.label()
            )
        });
        fnv = stats::fnv1a(fnv, c.report.to_json().as_bytes());
    }
    let host_secs: f64 = ran.iter().map(|c| c.secs).sum();
    // Host µs per simulated request on the eight RiFSSD cells. Over all
    // 56 cells the median would sit between the fast schemes' cluster and
    // the slow ones' and jump from one to the other.
    let rif_us_per_req: Vec<f64> = ran
        .iter()
        .filter(|c| c.kind == RetryKind::Rif)
        .map(|c| ref_secs(c) * 1e6 / n as f64)
        .collect();
    r.set(
        "work_per_s",
        total_reqs / ran.iter().map(ref_secs).sum::<f64>(),
    );
    r.set("sim_kreq_per_s", total_reqs / host_secs / 1e3);
    r.set("lat_us", stats::median(&rif_us_per_req));
    // 48 bits of the hash survive a JSON double exactly.
    r.set("ssd.report_fnv", (fnv & 0xFFFF_FFFF_FFFF) as f64);

    let cell = |profile: usize, kind: RetryKind| -> &SimReport {
        let found = ran.iter().find(|c| c.profile == profile && c.kind == kind);
        &found.expect("every cell ran").report
    };
    let bw = |profile: usize, kind: RetryKind| cell(profile, kind).io_bandwidth_mbps();
    let over = |num: RetryKind, den: RetryKind| -> f64 {
        let ratios: Vec<f64> = (0..PAPER_WORKLOADS.len())
            .map(|p| bw(p, num) / bw(p, den))
            .collect();
        stats::geomean(&ratios)
    };
    let gain_pct = (over(RetryKind::Rif, RetryKind::Sentinel) - 1.0) * 100.0;
    let gap_pct = (1.0 - over(RetryKind::Rif, RetryKind::Zero)) * 100.0;
    r.set("paper_err_gain_pp", (gain_pct - PAPER_GAIN_PCT).abs());
    r.set("paper_err_gap_pp", (gap_pct - PAPER_GAP_PCT).abs());

    let ali124 = PAPER_WORKLOADS
        .iter()
        .position(|w| w.name == "Ali124")
        .expect("table entry");
    let rif_ali124 = cell(ali124, RetryKind::Rif);
    r.set("sim_lat_us", rif_ali124.read_latency.mean().as_us());
    r.set(
        "sim_rif_read_p99_us",
        rif_ali124
            .read_latency
            .percentile(99.0)
            .map_or(0.0, |d| d.as_us()),
    );

    // Per-scheme simulator speed and device counters, at no extra cost.
    for kind in RetryKind::ALL {
        let secs: f64 = ran.iter().filter(|c| c.kind == kind).map(|c| c.secs).sum();
        let reqs = (n * PAPER_WORKLOADS.len()) as f64;
        r.set(
            format!("ssd.run.kreq_per_s.{}", scheme_key(kind)),
            reqs / secs / 1e3,
        );
    }
    let sum = |f: fn(&SimReport) -> u64| ran.iter().map(|c| f(&c.report)).sum::<u64>() as f64;
    let senses = sum(|s| s.page_senses);
    r.set("ssd.page_senses", senses);
    r.set("ssd.decode_failures", sum(|s| s.decode_failures));
    r.set("ssd.in_die_retries", sum(|s| s.in_die_retries));
    r.set("ssd.uncor_page_transfers", sum(|s| s.uncor_page_transfers));
    r.set("ssd.gc_relocations", sum(|s| s.gc_relocations));
    r.set("ssd.host_ns_per_sense", host_secs * 1e9 / senses.max(1.0));

    // Determinism: the Ali124/RiF cell again must hash the same.
    let again = Simulator::new(cell_config(RetryKind::Rif, seed)).run(&ready.traces[ali124]);
    r.check(again.to_json() == rif_ali124.to_json(), || {
        "two runs of the Ali124/RiFSSD cell gave different reports".into()
    });

    if ctx.trace {
        traced_cells(ctx, &mut r, &ready.traces[ali124], rif_ali124);
        forced_retry_cell(ctx, &mut r);
        let window = ctx.micro_window();
        micro::flash(&mut r, window, false);
        micro::events(&mut r, window, seed);
        micro::workloads(&mut r, window, seed);
    }
    r.finish(setup_s);
    r
}

/// Mean host milliseconds of one paper-geometry `Simulator::new`.
fn new_ms(seed: u64) -> f64 {
    const N: usize = 16;
    let start = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Simulator::new(cell_config(RetryKind::Rif, seed)));
    }
    start.elapsed().as_secs_f64() * 1e3 / N as f64
}

/// Reports the Park et al. step accounting of one traced run under
/// `ssd.sim.*.<scheme>`.
pub fn report_steps(
    r: &mut Report,
    scheme: &str,
    t: &StepTotals,
    report: &SimReport,
    n_dies: usize,
) {
    let reads = t.reads.max(1) as f64;
    r.set(
        format!("ssd.sim.sense_us_per_read.{scheme}"),
        t.sense_ns as f64 / 1e3 / reads,
    );
    r.set(
        format!("ssd.sim.xfer_us_per_read.{scheme}"),
        t.xfer_ns as f64 / 1e3 / reads,
    );
    r.set(
        format!("ssd.sim.xfer_uncor_us_per_read.{scheme}"),
        t.xfer_uncor_ns as f64 / 1e3 / reads,
    );
    r.set(
        format!("ssd.sim.decode_us_per_read.{scheme}"),
        t.decode_ns as f64 / 1e3 / reads,
    );
    let usage = report.channel_usage();
    r.set(format!("ssd.sim.eccwait_share.{scheme}"), usage.eccwait);
    r.set(format!("ssd.sim.chan_uncor_share.{scheme}"), usage.uncor);
    let die_ns = report.makespan.as_ns() as f64 * n_dies as f64;
    r.set(
        format!("ssd.sim.die_busy_share.{scheme}"),
        if die_ns > 0.0 {
            t.die_busy_ns as f64 / die_ns
        } else {
            0.0
        },
    );
}

/// The Ali124 cell again with the simulator's own observability on: the
/// per-step accounting for RiFSSD and SENC, and what tracing costs.
fn traced_cells(ctx: &mut Ctx, r: &mut Report, trace: &Trace, untraced: &SimReport) {
    let seed = ctx.seed;
    let geometry = SsdConfig::paper(RetryKind::Rif, PE_CYCLES).geometry;
    let n_dies = geometry.channels * geometry.dies_per_channel;
    for kind in [RetryKind::Rif, RetryKind::Sentinel] {
        let (sink, totals) = StepSink::new();
        let sim = Simulator::new(cell_config(kind, seed)).with_tracer(Box::new(sink));
        let report = ctx.spans.time("ssd.run.traced", 0, || sim.run(trace));
        report_steps(r, scheme_key(kind), &totals.borrow(), &report, n_dies);
        if kind == RetryKind::Rif {
            // Observation must not change what is observed.
            r.check(
                report.read_latency.mean() == untraced.read_latency.mean()
                    && report.page_senses == untraced.page_senses,
                || "tracing changed the simulated result".into(),
            );
        }
    }

    let time = |sim: Simulator| {
        let start = Instant::now();
        std::hint::black_box(sim.run(trace));
        start.elapsed().as_secs_f64()
    };
    let plain = time(Simulator::new(cell_config(RetryKind::Rif, seed)));
    let jsonl = time(
        Simulator::new(cell_config(RetryKind::Rif, seed))
            .with_tracer(Box::new(JsonlSink::new(std::io::sink()))),
    );
    let metrics = time(Simulator::new(cell_config(RetryKind::Rif, seed)).with_metrics());
    r.set("ssd.trace_overhead_pct", (jsonl / plain - 1.0) * 100.0);
    r.set("ssd.metrics_overhead_pct", (metrics / plain - 1.0) * 100.0);
}

/// Measurement-validity cell: force the first decode to fail on a fixed
/// share of slots under SENC and require read bandwidth to fall
/// strictly. Retry cost that lived only in a counter, not in the event
/// timeline, would leave bandwidth flat.
fn forced_retry_cell(ctx: &mut Ctx, r: &mut Report) {
    const SLOTS: u64 = 512;
    const SLOT_BYTES: u64 = 64 * 1024;
    let n = ctx.scaled(400.0).max(SLOTS as usize * 2);
    // Saturating sequential sweeps over the slot set, so every slot is
    // read equally often whatever the forced share.
    let trace = Trace::new(
        (0..n as u64)
            .map(|i| IoRequest {
                arrival: rif_events::SimTime::from_ns(i * 3_000),
                op: IoOp::Read,
                offset: (i % SLOTS) * SLOT_BYTES,
                bytes: SLOT_BYTES as u32,
            })
            .collect(),
    );
    let mut last = f64::INFINITY;
    for (label, pct) in [("f000", 0u64), ("f025", 25), ("f050", 50), ("f100", 100)] {
        let mut cfg = SsdConfig::small(RetryKind::Sentinel, PE_CYCLES);
        cfg.seed = ctx.seed;
        // A slot fails iff its hash falls under the share: the sets are
        // nested as the share grows, and scattered over the dies (every
        // fourth slot would put all of 25 % on a quarter of the dies,
        // which then bound the makespan exactly as at 100 %).
        cfg.forced_failure_slots = Some(
            (0..SLOTS)
                .filter(|s| (s.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100 < pct)
                .collect(),
        );
        let report = ctx
            .spans
            .time("ssd.run.forced", pct, || Simulator::new(cfg).run(&trace));
        let bw = report.read_bandwidth_mbps();
        r.set(format!("ssd.forced_retry.bw_mbps.{label}"), bw);
        r.check(bw < last, || {
            format!(
                "forced-retry share {pct} %: read bandwidth {bw} MB/s did not fall below {last}"
            )
        });
        last = bw;
    }
}
