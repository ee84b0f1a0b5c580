//! Golden determinism: the same seed and trace must yield byte-identical
//! canonical reports AND byte-identical trace logs, no matter how many
//! harness threads execute the trials. This is what makes the JSONL
//! traces usable as golden files and keeps every `--threads N` figure
//! run reproducible.

use rif_events::parallel_trials;
use rif_events::trace::{JsonlSink, SharedBuf};
use rif_events::{SimDuration, SimTime};
use rif_ssd::{
    BgConfig, CellMode, DriftClock, HybridConfig, LearnerConfig, LearningMode, RetryKind,
    Simulator, SsdConfig,
};
use rif_workloads::{SynthConfig, Trace};

/// One fully-observed run: returns the canonical report JSON and the
/// raw JSONL trace log.
fn golden_run(retry: RetryKind, seed: u64) -> (String, String) {
    let trace = SynthConfig {
        read_ratio: 0.8,
        cold_read_ratio: 0.5,
        ..SynthConfig::default()
    }
    .generate(120, seed);
    let mut cfg = SsdConfig::small(retry, 2000);
    cfg.queue_depth = 16;
    cfg.seed = seed;
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .with_metrics()
        .run(&trace);
    (report.to_json(), buf.contents())
}

/// Trial `i` exercises a distinct (scheme, seed) pair so the comparison
/// covers every retry engine, not just one code path.
fn trial(i: usize) -> (String, String) {
    let retry = RetryKind::ALL[i % RetryKind::ALL.len()];
    golden_run(retry, 100 + i as u64)
}

#[test]
fn reports_and_traces_are_identical_across_thread_counts() {
    let n = RetryKind::ALL.len();
    let serial = parallel_trials(1, n, trial);
    let threaded = parallel_trials(8, n, trial);
    assert_eq!(serial.len(), threaded.len());
    for (i, (s, t)) in serial.iter().zip(threaded.iter()).enumerate() {
        let retry = RetryKind::ALL[i % n];
        assert!(!s.1.is_empty(), "trial {i} ({retry}) produced no trace");
        assert_eq!(s.0, t.0, "trial {i} ({retry}): report JSON diverged");
        assert_eq!(s.1, t.1, "trial {i} ({retry}): trace log diverged");
    }
}

#[test]
fn repeated_threaded_runs_are_stable() {
    let n = RetryKind::ALL.len();
    let first = parallel_trials(8, n, trial);
    let second = parallel_trials(8, n, trial);
    assert_eq!(first, second, "back-to-back threaded runs must agree");
}

/// The trace and configuration shared by the stepper-equivalence trials.
fn equivalence_inputs(retry: RetryKind, seed: u64) -> (SsdConfig, Trace) {
    let trace = SynthConfig {
        read_ratio: 0.85,
        cold_read_ratio: 0.6,
        ..SynthConfig::default()
    }
    .generate(150, seed);
    let mut cfg = SsdConfig::small(retry, 2000);
    cfg.queue_depth = 16;
    cfg.seed = seed;
    (cfg, trace)
}

#[test]
fn stepper_replay_matches_batch_run_byte_for_byte() {
    // Driving the stepper API with a whole trace up-front — submitted
    // once, then advanced in small fixed windows — must produce a
    // canonical report byte-identical to the legacy one-shot run() for
    // every (scheme, seed) pair tried. run() is a wrapper over the same
    // core, but this pins the stronger property: chunked advancement
    // cannot change a single event outcome.
    for retry in [RetryKind::Rif, RetryKind::Sentinel, RetryKind::RpSsd] {
        for seed in [11u64, 12, 13] {
            let (cfg, trace) = equivalence_inputs(retry, seed);
            let batch = Simulator::new(cfg.clone()).run(&trace).to_json();

            let mut sim = Simulator::new(cfg);
            for r in &trace {
                sim.submit(*r);
            }
            let mut horizon = SimTime::ZERO;
            let mut steps = 0usize;
            while sim.pending_events() > 0 {
                horizon = horizon + SimDuration::from_us(50);
                sim.advance_until(horizon);
                steps += 1;
            }
            assert!(
                steps > 10,
                "{retry:?}/{seed}: trace finished too fast to chunk"
            );
            let stepped = sim.finish().to_json();
            assert_eq!(batch, stepped, "{retry:?} seed {seed}: stepper diverged");
        }
    }
}

#[test]
fn stepper_completions_account_for_every_request() {
    let (cfg, trace) = equivalence_inputs(RetryKind::Rif, 21);
    let mut sim = Simulator::new(cfg);
    for r in &trace {
        sim.submit(*r);
    }
    // Drain in mid-flight chunks; the union must cover each id exactly
    // once, in non-decreasing completion time.
    let mut seen = vec![false; trace.len()];
    let mut last = SimTime::ZERO;
    let mut horizon = SimTime::ZERO;
    while sim.pending_events() > 0 {
        horizon = horizon + SimDuration::from_ms(1);
        sim.advance_until(horizon);
        for c in sim.drain_completions() {
            assert!(!seen[c.id as usize], "id {} completed twice", c.id);
            seen[c.id as usize] = true;
            assert!(c.finished >= last, "completions out of order");
            last = c.finished;
        }
    }
    assert!(seen.iter().all(|&s| s), "some requests never completed");
    assert_eq!(sim.unfinished_requests(), 0);
}

/// Simulator outputs are pinned to a checked-in golden file: the seven
/// schemes' oracle-mode runs, one learned + drift run and one hybrid
/// run, each as its canonical report followed by a 64-bit FNV-1a of its
/// JSONL trace. Any byte drift — from refactors of the simulator, the
/// retry engines, the tracer or the serializer — fails here until the
/// dump is intentionally regenerated and the diff reviewed:
///
/// ```sh
/// cargo run --release --example dump_oracle_golden > tests/golden/oracle_seed_reports.json
/// ```
#[test]
fn oracle_reports_match_pinned_golden() {
    let mut runs = Vec::new();
    for (i, retry) in RetryKind::ALL.into_iter().enumerate() {
        let seed = 100 + i as u64;
        runs.push((
            format!("{} seed {seed}", retry.label()),
            golden_run(retry, seed),
        ));
    }
    runs.push((
        "learned RiFSSD drift 400 seed 301".to_string(),
        learned_run(RetryKind::Rif, 400.0, 301),
    ));
    runs.push(("hybrid RiFSSD seed 500".to_string(), hybrid_run(500)));
    let mut dump = String::new();
    for (header, (json, trace)) in runs {
        assert!(!trace.is_empty(), "{header}: traced run produced no log");
        let fnv = fnv1a64(&trace);
        dump.push_str(&format!(
            "=== {header} ===\n{json}trace_fnv1a64 {fnv:016x}\n"
        ));
    }
    let pinned = include_str!("golden/oracle_seed_reports.json");
    assert!(
        dump == pinned,
        "reports or traces drifted from tests/golden/oracle_seed_reports.json; \
         if the change is intentional, regenerate the dump and review the diff"
    );
}

/// 64-bit FNV-1a of `text`'s bytes.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fully-observed *learned-mode* run: online threshold learning on,
/// the drift clock ageing data mid-run at `days_per_sec`.
fn learned_run(retry: RetryKind, days_per_sec: f64, seed: u64) -> (String, String) {
    let trace = SynthConfig {
        read_ratio: 0.9,
        cold_read_ratio: 0.6,
        ..SynthConfig::default()
    }
    .generate(120, seed);
    let mut cfg = SsdConfig::small(retry, 2000);
    cfg.queue_depth = 16;
    cfg.seed = seed;
    cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
    cfg.drift = DriftClock {
        days_per_sec,
        pe_per_sec: 0.0,
    };
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .with_metrics()
        .run(&trace);
    (report.to_json(), buf.contents())
}

/// The learned-mode grid: three schemes spanning the learner's code
/// paths (in-die recal, predictor feedback, plain retries) × two drift
/// schedules (static and fast-ageing).
const LEARNED_GRID: [(RetryKind, f64); 6] = [
    (RetryKind::Rif, 0.0),
    (RetryKind::Rif, 400.0),
    (RetryKind::SwiftReadPlus, 0.0),
    (RetryKind::SwiftReadPlus, 400.0),
    (RetryKind::IdealOne, 0.0),
    (RetryKind::IdealOne, 400.0),
];

fn learned_trial(i: usize) -> (String, String) {
    let (retry, dps) = LEARNED_GRID[i % LEARNED_GRID.len()];
    learned_run(retry, dps, 300 + i as u64)
}

#[test]
fn learned_reports_identical_across_thread_counts_and_reruns() {
    let n = LEARNED_GRID.len();
    let serial = parallel_trials(1, n, learned_trial);
    let threaded = parallel_trials(8, n, learned_trial);
    let again = parallel_trials(8, n, learned_trial);
    for (i, (s, t)) in serial.iter().zip(threaded.iter()).enumerate() {
        let (retry, dps) = LEARNED_GRID[i];
        assert!(
            s.0.contains("\"learner\""),
            "{retry}/d{dps}: learned report missing learner summary"
        );
        assert!(!s.1.is_empty(), "{retry}/d{dps}: no trace log");
        assert_eq!(s.0, t.0, "{retry}/d{dps}: report JSON diverged");
        assert_eq!(s.1, t.1, "{retry}/d{dps}: trace log diverged");
    }
    assert_eq!(threaded, again, "back-to-back learned runs must agree");
}

#[test]
fn drift_schedule_actually_changes_learned_runs() {
    // Guard against the drift clock silently becoming a no-op, which
    // would let the grid above pass while testing half its intent.
    let (static_json, _) = learned_run(RetryKind::Rif, 0.0, 300);
    let (drifted_json, _) = learned_run(RetryKind::Rif, 400.0, 300);
    assert_ne!(static_json, drifted_json);
}

/// One fully-observed *hybrid-mode* run: SLC cache over QLC capacity,
/// background migrations draining under a write-heavy mix, and the drift
/// clock ageing data fast enough that refresh rewrites fire mid-run.
fn hybrid_run(seed: u64) -> (String, String) {
    let trace = SynthConfig {
        read_ratio: 0.4,
        cold_read_ratio: 0.5,
        hot_region_bytes: 4 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    }
    .generate(150, seed);
    let mut cfg = SsdConfig::small(RetryKind::Rif, 1500);
    cfg.queue_depth = 16;
    cfg.seed = seed;
    let mut hybrid = HybridConfig::slc_qlc();
    hybrid.bg.high_watermark = 0.001;
    hybrid.bg.low_watermark = 0.0;
    // At this drift rate every slot is perpetually due; cap the scan
    // batch so the refresh stream stays below the dies' drain rate.
    hybrid.bg.refresh_scan_batch = 4;
    cfg.hybrid = Some(hybrid);
    cfg.drift = DriftClock {
        days_per_sec: 5e6,
        pe_per_sec: 0.0,
    };
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .with_metrics()
        .run(&trace);
    (report.to_json(), buf.contents())
}

const HYBRID_SEEDS: [u64; 3] = [500, 501, 502];

fn hybrid_trial(i: usize) -> (String, String) {
    hybrid_run(HYBRID_SEEDS[i % HYBRID_SEEDS.len()])
}

#[test]
fn hybrid_reports_identical_across_thread_counts_and_reruns() {
    let n = HYBRID_SEEDS.len();
    let serial = parallel_trials(1, n, hybrid_trial);
    let threaded = parallel_trials(8, n, hybrid_trial);
    let again = parallel_trials(8, n, hybrid_trial);
    for (i, (s, t)) in serial.iter().zip(threaded.iter()).enumerate() {
        let seed = HYBRID_SEEDS[i];
        assert!(
            s.0.contains("\"hybrid\""),
            "seed {seed}: hybrid report missing hybrid summary"
        );
        assert!(!s.1.is_empty(), "seed {seed}: no trace log");
        assert_eq!(s.0, t.0, "seed {seed}: report JSON diverged");
        assert_eq!(s.1, t.1, "seed {seed}: trace log diverged");
    }
    assert_eq!(threaded, again, "back-to-back hybrid runs must agree");
    // The grid must actually exercise background traffic, or the
    // byte-equality above tests an idle scheduler.
    let (json, _) = serial[0].clone();
    assert!(
        !json.contains("\"migrated_slots\": 0,"),
        "seed {}: no migrations ran:\n{json}",
        HYBRID_SEEDS[0]
    );
}

/// A long write-heavy hybrid run, pinned by its report's FNV-1a: a hot
/// set twice the SLC cache rewritten over 60k requests, a drain that
/// starts at 90 % occupancy, and forced evictions whenever a die's cache
/// fills first. Every die's cache fifo fills with stale entries and is
/// compacted several times over while both of its readers run (the
/// drain's candidates and the write path's eviction victims), so a
/// compaction that lost or reordered a resident would move the report.
/// The hash was taken before the fifo was compacted at all.
#[test]
fn long_hybrid_rewrite_run_matches_its_pinned_report() {
    let trace = SynthConfig {
        read_ratio: 0.1,
        cold_read_ratio: 0.5,
        hot_region_bytes: 512 << 20,
        cold_region_bytes: 256 << 20,
        ..SynthConfig::default()
    }
    .generate(60_000, 600);
    let mut cfg = SsdConfig::small(RetryKind::Rif, 2000);
    cfg.queue_depth = 16;
    cfg.seed = 600;
    let mut hybrid = HybridConfig::slc_qlc();
    // 128 cache slots per die, so the 8192-slot hot set overflows it.
    hybrid.cache_fraction = 0.05;
    hybrid.bg.high_watermark = 0.9;
    hybrid.bg.low_watermark = 0.8;
    cfg.hybrid = Some(hybrid);
    let report = Simulator::new(cfg).run(&trace);
    let bg = report.hybrid.clone().expect("hybrid run summarizes");
    assert!(
        bg.forced_evictions > 0 && bg.migrated_slots > bg.forced_evictions,
        "both fifo readers must run: {bg:?}"
    );
    let fnv = fnv1a64(&report.to_json());
    assert_eq!(
        fnv, 0x3876_71b5_170a_b8fe,
        "report drifted: FNV-1a {fnv:#018x}"
    );
}

/// A `sim_write_bg`-shaped learned device, pinned by each report's
/// FNV-1a: the small geometry as the default hybrid SLC/QLC device,
/// learned thresholds, a drift clock adding 6.4 days over the run, and a
/// write-heavy trace at 27 % reads. RiFSSD re-calibrates in the die
/// before the transfer, SENC reactively after a failed decode, and QLC's
/// amplification makes both frequent. The hashes were taken before a
/// read group held its V_TH state and before the inversion's replay
/// window was narrowed.
#[test]
fn learned_hybrid_drift_runs_match_their_pinned_reports() {
    const N: usize = 20_000;
    const INTERARRIVAL_NS: f64 = 40_000.0;
    let trace = SynthConfig {
        read_ratio: 0.27,
        cold_read_ratio: 0.50,
        hot_region_bytes: 512 << 20,
        cold_region_bytes: 2 << 30,
        mean_interarrival_ns: INTERARRIVAL_NS,
        ..SynthConfig::default()
    }
    .generate(N, 700);
    for (retry, pinned) in [
        (RetryKind::Rif, 0xab2a_1931_da8f_031d),
        (RetryKind::Sentinel, 0x9e83_daea_a907_fe85),
    ] {
        let mut cfg = SsdConfig::small(retry, 2000);
        cfg.seed = 700;
        cfg.hybrid = Some(HybridConfig::slc_qlc());
        cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
        cfg.drift = DriftClock {
            days_per_sec: 6.4 / (N as f64 * INTERARRIVAL_NS / 1e9),
            pe_per_sec: 0.0,
        };
        let report = Simulator::new(cfg).run(&trace);
        let learner = report.learner.clone().expect("learned run summarizes");
        assert!(
            learner.recalibrations > 100,
            "{retry}: the learned paths must run: {learner:?}"
        );
        let fnv = fnv1a64(&report.to_json());
        assert_eq!(fnv, pinned, "{retry}: report drifted: FNV-1a {fnv:#018x}");
    }
}

#[test]
fn report_json_is_byte_stable_for_a_fixed_run() {
    // Same (scheme, seed) twice in the same thread: the canonical
    // serializer has no ambient state (maps, pointers, time) to leak.
    let (a_json, a_trace) = golden_run(RetryKind::Rif, 7);
    let (b_json, b_trace) = golden_run(RetryKind::Rif, 7);
    assert_eq!(a_json, b_json);
    assert_eq!(a_trace, b_trace);
    // And a different seed genuinely changes the output, so the equality
    // checks above cannot pass vacuously.
    let (c_json, _) = golden_run(RetryKind::Rif, 8);
    assert_ne!(a_json, c_json);
}

/// `SsdConfig.hybrid` selects cell modes and the background scheduler,
/// never a mapping layer: a hybrid device with nothing to select — TLC
/// capacity, no cache, no data old enough to refresh and no GC on a
/// trace this short, so no background work for a read to jump —
/// reports exactly what the plain device does on a half-write trace.
#[test]
fn inert_hybrid_config_reports_what_the_plain_device_does() {
    let inert = HybridConfig {
        cache_fraction: 0.0,
        capacity_mode: CellMode::Tlc,
        bg: BgConfig::default(),
    };
    for retry in [
        RetryKind::Sentinel,
        RetryKind::SwiftReadPlus,
        RetryKind::Rif,
    ] {
        for seed in [31u64, 32] {
            let trace = SynthConfig {
                read_ratio: 0.5,
                cold_read_ratio: 0.5,
                ..SynthConfig::default()
            }
            .generate(200, seed);
            let mut cfg = SsdConfig::small(retry, 2000);
            cfg.queue_depth = 16;
            cfg.seed = seed;
            let plain = Simulator::new(cfg.clone()).run(&trace);
            cfg.hybrid = Some(inert.clone());
            let mut hybrid = Simulator::new(cfg).run(&trace);
            let summary = hybrid.hybrid.take().expect("hybrid run summarizes");
            assert_eq!(summary.bg_ops, 0, "{summary:?}");
            assert_eq!(
                format!("{hybrid:?}"),
                format!("{plain:?}"),
                "{retry} seed {seed}: the hybrid option changed the device"
            );
        }
    }
}
