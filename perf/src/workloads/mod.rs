//! The five workloads and what they share: the run context, the report
//! each produces, and the set-up and microcell timing helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host::SpeedProbe;
use crate::span::Spans;
use crate::stats;

pub mod ecc_bit_true;
pub mod serve_cluster;
pub mod serve_node;
pub mod sim_read_retry;
pub mod sim_write_bg;
pub mod simtrace;

/// What one workload run is given.
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed section the fixed request counts are sized
    /// for, on the reference box.
    pub seconds: f64,
    /// Traced pass: spans on, microcells run, per-layer metrics filled.
    pub trace: bool,
    /// How often set-up runs; `setup_s` is the median.
    pub setups: usize,
    pub spans: Spans,
    /// Host-speed slices, on the span recorder's clock.
    pub speed: SpeedProbe,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, setups: usize) -> Ctx {
        let spans = Spans::new(trace);
        Ctx {
            seed,
            seconds,
            trace,
            setups: setups.max(1),
            speed: SpeedProbe::new(spans.epoch()),
            spans,
        }
    }

    /// A fixed request count sized for `seconds`: `per_second` is the
    /// workload's frozen rate on the reference box.
    pub fn scaled(&self, per_second: f64) -> usize {
        ((per_second * self.seconds).round() as usize).max(1)
    }

    /// Timing window of one microcell in the traced pass.
    pub fn micro_window(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.012).clamp(0.01, 0.12))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Operations not completed correctly.
    pub failed: u64,
    /// Broken output checks; any entry fails the run.
    pub violations: Vec<String>,
    /// Every metric this pass measured, by contract name.
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records an output check. A violation also counts as one failed
    /// operation, so it shows in `failed_share`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Fills the metrics every workload reports the same way.
    pub fn finish(&mut self, setup_s: f64) {
        self.set("setup_s", setup_s);
        self.set("peak_rss_mb", crate::host::peak_rss_mb());
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_share", share);
    }
}

/// Runs `setup` `n` times, tearing every state but the last down with
/// `discard`, and returns the last state with the median set-up time in
/// seconds at reference host speed. Repeating it is what makes `setup_s`
/// steady enough to bound.
pub fn repeat_setup<T>(
    n: usize,
    speed: &mut SpeedProbe,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut reps = Vec::with_capacity(n);
    let mut last = None;
    speed.sample();
    for _ in 0..n.max(1) {
        if let Some(old) = last.take() {
            discard(old);
        }
        let (start_ns, start) = (speed.now_ns(), Instant::now());
        last = Some(setup());
        reps.push((start_ns, speed.now_ns(), start.elapsed().as_secs_f64()));
        speed.sample();
    }
    let times: Vec<f64> = reps
        .iter()
        .map(|&(start_ns, end_ns, secs)| secs * speed.factor(start_ns, end_ns))
        .collect();
    (
        last.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

/// Operations per second of `batch`, which returns how many operations
/// it did: one untimed pass to fill caches, then whole batches until
/// `window` has passed.
pub fn rate(window: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let start = Instant::now();
    let mut ops = 0;
    loop {
        ops += batch();
        let elapsed = start.elapsed();
        if elapsed >= window {
            return ops as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<Report> {
    Some(match name {
        "sim_read_retry" => sim_read_retry::run(ctx),
        "sim_write_bg" => sim_write_bg::run(ctx),
        "ecc_bit_true" => ecc_bit_true::run(ctx),
        "serve_node" => serve_node::run(ctx),
        "serve_cluster" => serve_cluster::run(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_setup_keeps_the_last_state_and_discards_the_rest() {
        let mut built = 0;
        let mut dropped = Vec::new();
        let mut speed = SpeedProbe::new(Instant::now());
        let (state, secs) = repeat_setup(
            3,
            &mut speed,
            || {
                built += 1;
                built
            },
            |old| dropped.push(old),
        );
        assert_eq!(state, 3);
        assert_eq!(dropped, [1, 2]);
        assert!(secs >= 0.0);
    }

    #[test]
    fn violations_count_as_failures() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "ledger gap".into());
        assert!(!r.correct());
        r.finish(0.5);
        assert_eq!(r.metrics["failed_share"], 0.1);
        assert_eq!(r.metrics["setup_s"], 0.5);
    }

    #[test]
    fn rate_counts_whole_batches() {
        let r = rate(Duration::from_millis(5), || {
            std::hint::black_box((0..1000u64).sum::<u64>());
            1000
        });
        assert!(r > 0.0);
    }
}
