//! Regenerates the pinned golden used by
//! `tests/sim_determinism_golden.rs::oracle_reports_match_pinned_golden`:
//! per run the canonical report and a 64-bit FNV-1a of its JSONL trace.
//!
//! The dump must only be refreshed when an intentional behaviour change
//! to the simulator lands (and the diff reviewed); the test exists to
//! catch *unintentional* byte drift from refactors:
//!
//! ```sh
//! cargo run --release --example dump_oracle_golden > tests/golden/oracle_seed_reports.json
//! ```
//!
//! The configurations mirror `golden_run` (one (scheme, seed) pair per
//! retry engine), `learned_run` (RiFSSD, learner on, drift 400 days/s)
//! and `hybrid_run` (seed 500) in the determinism suite: the small
//! geometry, queue depth 16, tracing and metrics enabled. `scripts/ci.sh`
//! diffs this program's output against the checked-in file, so the two
//! statements of those configurations cannot drift apart.

use rif_events::trace::{JsonlSink, SharedBuf};
use rif_ssd::{
    DriftClock, HybridConfig, LearnerConfig, LearningMode, RetryKind, Simulator, SsdConfig,
};
use rif_workloads::SynthConfig;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fully-observed run, printed as the golden's entry for it.
fn dump(header: &str, mut cfg: SsdConfig, synth: SynthConfig, requests: usize, seed: u64) {
    cfg.queue_depth = 16;
    cfg.seed = seed;
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .with_metrics()
        .run(&synth.generate(requests, seed));
    println!("=== {header} seed {seed} ===");
    print!("{}", report.to_json());
    println!("trace_fnv1a64 {:016x}", fnv1a64(buf.contents().as_bytes()));
}

fn main() {
    for (i, retry) in RetryKind::ALL.into_iter().enumerate() {
        let synth = SynthConfig {
            read_ratio: 0.8,
            cold_read_ratio: 0.5,
            ..SynthConfig::default()
        };
        let cfg = SsdConfig::small(retry, 2000);
        dump(retry.label(), cfg, synth, 120, 100 + i as u64);
    }

    let mut cfg = SsdConfig::small(RetryKind::Rif, 2000);
    cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
    cfg.drift = DriftClock {
        days_per_sec: 400.0,
        pe_per_sec: 0.0,
    };
    let synth = SynthConfig {
        read_ratio: 0.9,
        cold_read_ratio: 0.6,
        ..SynthConfig::default()
    };
    dump("learned RiFSSD drift 400", cfg, synth, 120, 301);

    let mut cfg = SsdConfig::small(RetryKind::Rif, 1500);
    let mut hybrid = HybridConfig::slc_qlc();
    hybrid.bg.high_watermark = 0.001;
    hybrid.bg.low_watermark = 0.0;
    hybrid.bg.refresh_scan_batch = 4;
    cfg.hybrid = Some(hybrid);
    cfg.drift = DriftClock {
        days_per_sec: 5e6,
        pe_per_sec: 0.0,
    };
    let synth = SynthConfig {
        read_ratio: 0.4,
        cold_read_ratio: 0.5,
        hot_region_bytes: 4 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    };
    dump("hybrid RiFSSD", cfg, synth, 150, 500);
}
