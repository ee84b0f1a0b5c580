//! `serve_node` — what a live client feels: one in-process `rif-server`
//! (epoll core, two shards, RiF at 2K P/E, `time_scale` 1.0) driven by
//! the benchmark's own generator over two non-blocking `Conn`s.
//!
//! Three phases of 16-KiB requests, 90 % reads, zipf 0.9: open loop at
//! 8k rps (`lo`), open loop at 24k rps (`hi`), then closed loop at 2 ×
//! depth 16. Simulated device time plus serving-plane overhead:
//! protocol, ring, event loop, shard, pacing and the stepper underneath;
//! the cluster layer and the decode kernels are bypassed.

use std::io;
use std::time::{Duration, Instant};

use rif_events::SimRng;
use rif_server::client::{run_load, Conn, LoadConfig};
use rif_server::mux::run_mux_load;
use rif_server::protocol::{decode_response, Request, Response};
use rif_server::server::{Server, ServerConfig};
use rif_ssd::RetryKind;
use rif_workloads::{IoOp, SynthConfig};

use super::{repeat_setup, Ctx, Report};
use crate::loadgen::{drive, Clock, Ledger, Pacing, PlannedOp, Receipt, SlotState, Wire};
use crate::{host, micro, stats};

pub const REQUEST_BYTES: u32 = 16 * 1024;
const LO_RPS: f64 = 8_000.0;
const HI_RPS: f64 = 24_000.0;
/// Share of the timed section each open-loop phase runs for.
const OPEN_PHASE_SHARE: f64 = 0.3;
/// Closed-loop requests per second of timed section (≈ 0.3 of it at the
/// reference box's ≈ 49k rps).
const CLOSED_REQS_PER_SEC: f64 = 14_000.0;
const CLOSED_DEPTH: usize = 16;
const CONNECTIONS: usize = 2;
/// p90 windows. The issue's 1-s windows assumed 10-s phases; at 3 s a
/// phase would hold three of them, so the windows shrink with it
/// (a window still holds 2 000 requests at 8k rps).
const WINDOW_NS: u64 = 250_000_000;
/// The generator gives up on a phase after this long without progress.
const STALL_NS: u64 = 5_000_000_000;

/// Tag of the generator's nudge frames; request tags never reach it.
const NUDGE_TAG: u64 = u64::MAX - 1;

/// The generator's clock, on the span recorder's epoch.
pub struct RealClock(pub Instant);

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Spins, giving the core away each turn: the two cores are shared
    /// with the server under test, and a sleep's wake-up jitter (≈ 60 µs)
    /// would be charged to every request. Long gaps do sleep.
    fn idle(&self, next_due_ns: Option<u64>) {
        match next_due_ns.map(|due| due.saturating_sub(self.now_ns())) {
            Some(gap) if gap > 2_000_000 => {
                std::thread::sleep(Duration::from_nanos(gap - 1_000_000))
            }
            _ => std::thread::yield_now(),
        }
    }
}

/// A `Conn` as the generator's wire.
pub struct ConnWire(pub Conn);

impl ConnWire {
    /// Connects, negotiates HELLO, and switches to non-blocking reads.
    pub fn open(addr: &str) -> io::Result<ConnWire> {
        let mut conn = Conn::connect(addr)?;
        conn.set_nonblocking()?;
        Ok(ConnWire(conn))
    }
}

impl Wire for ConnWire {
    fn send(&mut self, tag: u64, op: &PlannedOp) -> io::Result<()> {
        let (tenant, offset, bytes) = (0, op.offset, op.bytes);
        self.0.send(&match op.op {
            IoOp::Read => Request::Read {
                tenant,
                tag,
                offset,
                bytes,
            },
            IoOp::Write => Request::Write {
                tenant,
                tag,
                offset,
                bytes,
            },
        })
    }

    /// A second HELLO: the event loop answers it inline and, having woken
    /// for it, flushes whatever completions it was sitting on.
    fn nudge(&mut self) -> io::Result<()> {
        self.0.send(&Request::Hello {
            tag: NUDGE_TAG,
            version: self.0.version(),
        })
    }

    fn poll(&mut self, out: &mut Vec<Receipt>) -> io::Result<()> {
        self.0.pump()?;
        loop {
            match self.0.next_frame() {
                Ok(Some(payload)) => out.push(match decode_response(&payload) {
                    Ok(Response::Done { tag, latency_ns }) => Receipt::Done {
                        tag,
                        virtual_ns: latency_ns,
                    },
                    Ok(Response::Busy { tag, .. })
                    | Ok(Response::Error { tag, .. })
                    | Ok(Response::WrongShard { tag, .. }) => Receipt::Refused { tag },
                    Ok(Response::HelloAck { tag: NUDGE_TAG, .. }) => Receipt::Nudged,
                    _ => Receipt::Garbage,
                }),
                Ok(None) => return Ok(()),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
        }
    }
}

/// The request mix of both serving workloads.
pub fn plan(n: usize, read_ratio: f64, seed: u64) -> Vec<PlannedOp> {
    SynthConfig {
        read_ratio,
        zipf_s: 0.9,
        request_bytes: REQUEST_BYTES,
        ..SynthConfig::default()
    }
    .generate(n, seed)
    .iter()
    .map(|r| PlannedOp {
        op: r.op,
        offset: r.offset,
        bytes: r.bytes,
    })
    .collect()
}

/// Poisson arrivals at `rps` for `n` requests: independent users.
fn poisson_due_ns(n: usize, rps: f64, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += rng.exponential(rps / 1e9);
            t as u64
        })
        .collect()
}

pub fn server_config(seed: u64) -> ServerConfig {
    ServerConfig {
        shards: 2,
        retry: RetryKind::Rif,
        pe_cycles: 2000,
        time_scale: 1.0,
        inflight_limit: 4096,
        seed,
        ..ServerConfig::default()
    }
}

struct Ready {
    server: Server,
    wires: Vec<ConnWire>,
    start_ms: f64,
    connect_hello_us: f64,
    /// DONEs the warm-up saw, for the server-side ledger check.
    warm_done: u64,
}

fn setup(clock: &RealClock, warm: &[PlannedOp], seed: u64) -> io::Result<Ready> {
    let t = Instant::now();
    let server = Server::start(server_config(seed), 0)?;
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let addr = server.local_addr().to_string();
    let t = Instant::now();
    let mut wires = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        wires.push(ConnWire::open(&addr)?);
    }
    let connect_hello_us = t.elapsed().as_secs_f64() * 1e6 / CONNECTIONS as f64;
    // Warm-up: 5 % of the run's requests, closed loop, untimed.
    let ledger = drive(
        clock,
        &mut wires,
        warm,
        &Pacing::Closed {
            depth: CLOSED_DEPTH,
        },
        1 << 40,
        STALL_NS,
        &mut crate::span::Spans::new(false),
    );
    Ok(Ready {
        server,
        wires,
        start_ms,
        connect_hello_us,
        warm_done: ledger.count(SlotState::Done),
    })
}

/// One served request: when it was due within its phase, how long the
/// client waited from then, and how long the simulated device took.
struct Served {
    at_ns: u64,
    wall_us: f64,
    device_us: f64,
}

fn served(ledger: &Ledger, ops: &[PlannedOp], keep: fn(&PlannedOp) -> bool) -> Vec<Served> {
    ledger
        .slots
        .iter()
        .zip(ops)
        .filter(|(s, op)| s.state == SlotState::Done && keep(op))
        .map(|(s, _)| Served {
            at_ns: s.due_ns - ledger.started_ns,
            wall_us: (s.done_ns - s.due_ns) as f64 / 1e3,
            device_us: s.virtual_ns as f64 / 1e3,
        })
        .collect()
}

fn is_read(op: &PlannedOp) -> bool {
    op.op == IoOp::Read
}

/// The `p`-th percentile of `value` over `served` (0 if none).
fn percentile_of(served: &[Served], value: fn(&Served) -> f64, p: f64) -> f64 {
    if served.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = served.iter().map(value).collect();
    stats::percentile(stats::sort(&mut v), p)
}

/// Median over `WINDOW_NS` windows of each window's p90 of `value`.
fn windowed_p90(served: &[Served], value: fn(&Served) -> f64) -> f64 {
    let samples: Vec<(u64, f64)> = served.iter().map(|s| (s.at_ns, value(s))).collect();
    stats::window_median_percentile(&samples, WINDOW_NS, 90.0).unwrap_or(0.0)
}

/// Folds one phase's ledger into the report's failure counts.
fn account(r: &mut Report, phase: &str, ledger: &Ledger) {
    r.attempted += ledger.slots.len() as u64;
    r.failed += ledger.failed();
    for v in ledger.violations() {
        r.check(false, || format!("{phase}: {v}"));
    }
}

/// Reports one open-loop phase's reads under the `.lo` / `_lo` style
/// names.
fn report_open(r: &mut Report, tag: &str, ledger: &Ledger, reads: &[Served]) {
    let wall = |s: &Served| s.wall_us;
    // Wall minus the server's own simulated latency, per request.
    let overhead = |s: &Served| s.wall_us - s.device_us;
    r.set(
        format!("lat_p50_us_{tag}"),
        percentile_of(reads, wall, 50.0),
    );
    r.set(format!("lat_p90w_us_{tag}"), windowed_p90(reads, wall));
    r.set(
        format!("server.lat_p99_us.{tag}"),
        percentile_of(reads, wall, 99.0),
    );
    r.set(
        format!("server.overhead_p50_us.{tag}"),
        percentile_of(reads, overhead, 50.0),
    );
    r.set(
        format!("server.overhead_p90w_us.{tag}"),
        windowed_p90(reads, overhead),
    );
    r.set(
        format!("gen.max_late_us.{tag}"),
        ledger.max_late_ns() as f64 / 1e3,
    );
}

pub fn run(ctx: &mut Ctx) -> Report {
    // Generator and server on one CPU: see `PinGuard`. Every server
    // thread is spawned, and stopped, while the guard lives.
    let _one_cpu = host::PinGuard::pin_to_one_cpu();
    let mut r = Report::default();
    let seed = ctx.seed;
    let clock = RealClock(ctx.spans.epoch());
    let n_lo = ctx.scaled(LO_RPS * OPEN_PHASE_SHARE);
    let n_hi = ctx.scaled(HI_RPS * OPEN_PHASE_SHARE);
    let n_closed = ctx.scaled(CLOSED_REQS_PER_SEC);
    let n_warm = (n_lo + n_hi + n_closed) / 20;

    let setup_span = ctx.spans.begin("setup", 0);
    let (ready, setup_s) = repeat_setup(
        ctx.setups,
        &mut ctx.speed,
        || {
            let warm = plan(n_warm, 0.9, seed ^ 0x3A93);
            let phases = [
                (
                    plan(n_lo, 0.9, seed),
                    Pacing::Open {
                        due_ns: poisson_due_ns(n_lo, LO_RPS, seed ^ 1),
                    },
                ),
                (
                    plan(n_hi, 0.9, seed ^ 2),
                    Pacing::Open {
                        due_ns: poisson_due_ns(n_hi, HI_RPS, seed ^ 3),
                    },
                ),
                (
                    plan(n_closed, 0.9, seed ^ 4),
                    Pacing::Closed {
                        depth: CLOSED_DEPTH,
                    },
                ),
            ];
            (setup(&clock, &warm, seed), phases)
        },
        |(old, _)| {
            if let Ok(Ready { server, wires, .. }) = old {
                drop(wires);
                server.stop();
            }
        },
    );
    ctx.spans.end(setup_span);
    let (ready, phases) = ready;
    let mut ready = match ready {
        Ok(ready) => ready,
        Err(e) => {
            r.attempted = 1;
            r.check(false, || format!("set-up failed: {e}"));
            r.finish(setup_s);
            return r;
        }
    };
    r.set("server.start_ms", ready.start_ms);
    r.set("server.connect_hello_us", ready.connect_hello_us);

    let cpu_before = host::live_threads_cpu_secs();
    let timed = ctx.spans.begin("timed", 0);
    let mut ledgers = Vec::with_capacity(phases.len());
    let mut phase_cpu_secs = Vec::with_capacity(phases.len());
    for (i, (name, (ops, pacing))) in ["phase.lo", "phase.hi", "phase.closed"]
        .into_iter()
        .zip(&phases)
        .enumerate()
    {
        let span = ctx.spans.begin(name, i as u64);
        let tag_base = (i as u64 + 1) << 32;
        // The server's CPU: every thread's but the generator's (this one).
        let server_cpu = || host::live_threads_cpu_secs() - host::thread_cpu_secs();
        let cpu = server_cpu();
        ledgers.push(drive(
            &clock,
            &mut ready.wires,
            ops,
            pacing,
            tag_base,
            STALL_NS,
            &mut ctx.spans,
        ));
        phase_cpu_secs.push(server_cpu() - cpu);
        ctx.spans.end(span);
        account(&mut r, name, &ledgers[i]);
    }
    ctx.spans.end(timed);
    let cpu_secs = host::live_threads_cpu_secs() - cpu_before;

    let (lo, hi, closed) = (&ledgers[0], &ledgers[1], &ledgers[2]);
    r.set(
        "gen.tail_nudges",
        ledgers.iter().map(|l| l.nudges).sum::<u64>() as f64,
    );
    let lo_reads = served(lo, &phases[0].0, is_read);
    let hi_reads = served(hi, &phases[1].0, is_read);
    report_open(&mut r, "lo", lo, &lo_reads);
    report_open(&mut r, "hi", hi, &hi_reads);
    r.set(
        "server.lat_p999_us.hi",
        percentile_of(&hi_reads, |s| s.wall_us, 99.9),
    );
    r.set(
        "server.virtual_p50_us",
        percentile_of(&hi_reads, |s| s.device_us, 50.0),
    );

    let closed_secs = (closed.ended_ns - closed.started_ns) as f64 / 1e9;
    let closed_done = closed.count(SlotState::Done) as f64;
    r.set("peak_rps", closed_done / closed_secs);
    let closed_all = served(closed, &phases[2].0, |_| true);
    r.set(
        "closed_p50_us",
        percentile_of(&closed_all, |s| s.wall_us, 50.0),
    );
    for (tag, i) in [("lo", 0), ("hi", 1), ("closed", 2)] {
        let done = ledgers[i].count(SlotState::Done).max(1) as f64;
        r.set(
            format!("server.cpu_us_per_req.{tag}"),
            phase_cpu_secs[i] * 1e6 / done,
        );
    }

    // The three bounded numbers come from where this box is steadiest.
    // Closed-loop completions per wall second and the 24k-rps median move
    // by a tenth and more from run to run even on one CPU. None of the
    // three is scaled by the host-speed probe: it could only sample
    // between phases here, and a blip at that moment would skew a whole
    // phase.
    //
    // Throughput: closed-loop completions per second of CPU the
    // *server's* threads used — what one core's worth of server sustains.
    r.set("work_per_s", closed_done / phase_cpu_secs[2].max(1e-3));
    // Latency: the 8k-rps median, from due time.
    r.set("lat_us", percentile_of(&lo_reads, |s| s.wall_us, 50.0));
    // The device's own (simulated) read latency at 8k rps; at time_scale
    // 1.0 virtual and wall nanoseconds are the same size.
    let device_sum: f64 = lo_reads.iter().map(|s| s.device_us).sum();
    r.set("sim_lat_us", device_sum / lo_reads.len().max(1) as f64);

    // Server-side ledger: it completed exactly the DONEs this client saw.
    let done_seen: u64 = ready.warm_done
        + ledgers
            .iter()
            .map(|l| l.count(SlotState::Done))
            .sum::<u64>();
    let snapshot = ready.server.metrics_snapshot();
    let completed = snapshot.counter("server.completed");
    r.check(completed == done_seen, || {
        format!("server.completed {completed} != {done_seen} DONEs seen by the generator")
    });
    r.set(
        "server.wakeups_per_req",
        snapshot.counter("server.epoll_wakeups") as f64 / completed.max(1) as f64,
    );
    r.set(
        "server.busy_queue",
        snapshot.counter("server.busy.queue") as f64,
    );
    r.set(
        "server.write_queue.max_bytes",
        snapshot
            .gauge("server.write_queue.max_bytes")
            .unwrap_or(0.0),
    );
    let timed_reqs: usize = ledgers.iter().map(|l| l.slots.len()).sum();
    r.set(
        "proc.cpu_us_per_req",
        cpu_secs * 1e6 / timed_reqs.max(1) as f64,
    );

    if ctx.trace {
        // The repo's own client engines against the same node, to split
        // peak_rps between the server and the engine that drives it.
        let addr = ready.server.local_addr().to_string();
        let load = LoadConfig {
            addr,
            connections: CONNECTIONS,
            depth: CLOSED_DEPTH,
            requests: (n_closed / 3).max(CONNECTIONS * CLOSED_DEPTH),
            read_ratio: 0.9,
            zipf_s: 0.9,
            request_bytes: REQUEST_BYTES,
            seed,
            ..LoadConfig::default()
        };
        let closed_rps = ctx
            .spans
            .time("client.run_load", 0, || run_load(&load))
            .map_or(0.0, |l| l.throughput_rps);
        let mux_rps = ctx
            .spans
            .time("client.run_mux_load", 0, || run_mux_load(&load, 1))
            .map_or(0.0, |l| l.throughput_rps);
        r.set("client.closed.rps", closed_rps);
        r.set("client.mux.rps", mux_rps);
        micro::server_codec(&mut r, ctx.micro_window());
    }

    drop(ready.wires);
    let t = Instant::now();
    ctx.spans.time("server.stop", 0, || ready.server.stop());
    r.set("server.stop_ms", t.elapsed().as_secs_f64() * 1e3);
    r.finish(setup_s);
    r
}
