//! The trace checker applied to real simulator runs: three synthetic
//! workloads (read-heavy, write-heavy, mixed at QD32) under every retry
//! scheme must produce traces that satisfy all conservation invariants.

use rif_events::trace::{JsonlSink, SharedBuf, TraceRecord};
use rif_ldpc::EccModel;
use rif_ssd::tracecheck::TraceChecker;
use rif_ssd::{DriftClock, LearnerConfig, LearningMode, RetryKind, Simulator, SsdConfig};
use rif_workloads::{SynthConfig, Trace};

/// Runs one traced simulation and returns (parsed records, completed
/// request count).
fn traced_run(retry: RetryKind, pe: u32, qd: usize, trace: &Trace) -> (Vec<TraceRecord>, u64) {
    let mut cfg = SsdConfig::small(retry, pe);
    cfg.queue_depth = qd;
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .with_metrics()
        .run(trace);
    let records = TraceRecord::parse_jsonl(&buf.contents()).expect("emitted trace parses");
    (records, report.completed_requests)
}

fn read_heavy() -> Trace {
    SynthConfig {
        read_ratio: 1.0,
        cold_read_ratio: 0.6,
        ..SynthConfig::default()
    }
    .generate(150, 11)
}

fn write_heavy() -> Trace {
    SynthConfig {
        read_ratio: 0.1,
        ..SynthConfig::default()
    }
    .generate(150, 12)
}

fn mixed() -> Trace {
    SynthConfig {
        read_ratio: 0.7,
        cold_read_ratio: 0.5,
        ..SynthConfig::default()
    }
    .generate(200, 13)
}

fn assert_clean(label: &str, retry: RetryKind, pe: u32, qd: usize, trace: &Trace) {
    let (records, completed) = traced_run(retry, pe, qd, trace);
    assert_eq!(completed, trace.len() as u64, "{label}/{retry}: drain");
    assert!(!records.is_empty(), "{label}/{retry}: trace is empty");
    let violations = TraceChecker::check(&records);
    assert!(
        violations.is_empty(),
        "{label}/{retry} at {pe} P/E violated invariants:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn read_heavy_trace_clean_under_all_schemes() {
    let trace = read_heavy();
    for retry in RetryKind::ALL {
        assert_clean("read-heavy", retry, 2000, 16, &trace);
    }
}

#[test]
fn write_heavy_trace_clean_under_all_schemes() {
    let trace = write_heavy();
    for retry in RetryKind::ALL {
        assert_clean("write-heavy", retry, 1000, 16, &trace);
    }
}

#[test]
fn mixed_qd32_trace_clean_under_all_schemes() {
    let trace = mixed();
    for retry in RetryKind::ALL {
        assert_clean("mixed-qd32", retry, 2000, 32, &trace);
    }
}

#[test]
fn forced_retry_paths_stay_clean() {
    // Force decode failures so every scheme walks its full retry path
    // (sentinel reads, in-die retries, corrective re-reads) under the
    // checker's eye.
    use rif_events::SimTime;
    use rif_workloads::{IoOp, IoRequest};
    let sb = 64 * 1024;
    let trace = Trace::new(vec![
        IoRequest {
            arrival: SimTime::ZERO,
            op: IoOp::Read,
            offset: 8 * sb,
            bytes: 65536,
        },
        IoRequest {
            arrival: SimTime::from_us(1),
            op: IoOp::Read,
            offset: 40 * sb,
            bytes: 65536,
        },
    ]);
    for retry in RetryKind::ALL {
        let mut cfg = SsdConfig::small(retry, 1000);
        cfg.forced_failure_slots = Some(vec![8, 40]);
        let buf = SharedBuf::new();
        Simulator::new(cfg)
            .with_tracer(Box::new(JsonlSink::new(buf.clone())))
            .run(&trace);
        let violations = TraceChecker::check_jsonl(&buf.contents()).expect("parses");
        assert!(
            violations.is_empty(),
            "forced-retry/{retry} violated invariants: {violations:?}"
        );
    }
}

#[test]
fn learned_mode_traces_clean_with_recal_markers() {
    // Learned-mode runs add retry/recal marker spans and learner gauges
    // to the trace; all seven invariants — including the learner rule,
    // which pins recal-inside-retry nesting and finite estimate-error
    // gauges — must hold, and the markers must actually appear for a
    // scheme that recalibrates (otherwise the learner rule passes
    // vacuously).
    let trace = SynthConfig {
        read_ratio: 0.9,
        cold_read_ratio: 0.7,
        ..SynthConfig::default()
    }
    .generate(200, 17);
    for retry in [
        RetryKind::Rif,
        RetryKind::SwiftReadPlus,
        RetryKind::IdealOne,
    ] {
        let mut cfg = SsdConfig::small(retry, 2000);
        cfg.queue_depth = 16;
        cfg.learning = LearningMode::Learned(LearnerConfig::default_paper());
        cfg.drift = DriftClock {
            days_per_sec: 400.0,
            pe_per_sec: 0.0,
        };
        let buf = SharedBuf::new();
        Simulator::new(cfg)
            .with_tracer(Box::new(JsonlSink::new(buf.clone())))
            .with_metrics()
            .run(&trace);
        let records = TraceRecord::parse_jsonl(&buf.contents()).expect("emitted trace parses");
        let violations = TraceChecker::check(&records);
        assert!(
            violations.is_empty(),
            "learned/{retry} violated invariants:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        let recals = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::SpanBegin { name, .. } if name == "recal"))
            .count();
        let gauges = records
            .iter()
            .filter(
                |r| matches!(r, TraceRecord::Gauge { key, .. } if key == "learner.estimate_error"),
            )
            .count();
        assert!(
            recals > 0,
            "learned/{retry}: no recal markers in an ageing run"
        );
        assert!(gauges > 0, "learned/{retry}: no estimate-error gauges");
    }
}

#[test]
fn hybrid_background_traffic_traces_clean() {
    // A hybrid run with background traffic enabled: SLC→QLC migrations
    // drain under write pressure while drift-driven refresh rewrites
    // fire, all contending with foreground reads on the same dies. Every
    // invariant — including per-die resource exclusivity, which now
    // covers gc/migrate/refresh spans — must hold, and the bg spans must
    // actually appear (otherwise exclusivity passes vacuously).
    use rif_ssd::HybridConfig;
    let trace = SynthConfig {
        read_ratio: 0.4,
        cold_read_ratio: 0.5,
        hot_region_bytes: 4 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    }
    .generate(250, 19);
    for retry in [RetryKind::Rif, RetryKind::RpSsd] {
        let mut cfg = SsdConfig::small(retry, 1500);
        cfg.queue_depth = 16;
        let mut hybrid = HybridConfig::slc_qlc();
        hybrid.bg.high_watermark = 0.001;
        hybrid.bg.low_watermark = 0.0;
        // At this drift rate every slot is perpetually due; cap the scan
        // batch so the refresh stream stays below the dies' drain rate
        // (otherwise queued bg work grows faster than simulated time).
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
        assert_eq!(report.completed_requests, trace.len() as u64);
        let records = TraceRecord::parse_jsonl(&buf.contents()).expect("emitted trace parses");
        let violations = TraceChecker::check(&records);
        assert!(
            violations.is_empty(),
            "hybrid-bg/{retry} violated invariants:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        let spans = |wanted: &str| {
            records
                .iter()
                .filter(|r| matches!(r, TraceRecord::SpanBegin { name, .. } if name == wanted))
                .count()
        };
        assert!(spans("migrate") > 0, "hybrid-bg/{retry}: no migrate spans");
        assert!(spans("refresh") > 0, "hybrid-bg/{retry}: no refresh spans");
        let h = report.hybrid.expect("hybrid summary");
        assert!(h.migrated_slots > 0 && h.refreshed_slots > 0 && h.bg_ops > 0);
    }
}

#[test]
fn forced_retry_success_is_counted_and_zero_on_tlc_workloads() {
    // The retry ladder forces success after four attempts. With the
    // default ECC model none of the three TLC workloads above gets there,
    // under any scheme.
    let runs = [
        (read_heavy(), 2000, 16),
        (write_heavy(), 1000, 16),
        (mixed(), 2000, 32),
    ];
    let forced = |cfg: SsdConfig, trace: &Trace| {
        let report = Simulator::new(cfg).with_metrics().run(trace);
        let m = report.metrics.expect("metrics enabled");
        m.counter("retry.forced_success")
    };
    for retry in RetryKind::ALL {
        for (trace, pe, qd) in &runs {
            let mut cfg = SsdConfig::small(retry, *pe);
            cfg.queue_depth = *qd;
            assert_eq!(forced(cfg, trace), 0, "{retry} at {pe} P/E forced a retry");
        }
    }
    // A decoder whose capability sits far below every retry RBER fails
    // each attempt, so every scheme that can fail ends its ladder forced.
    let hopeless = EccModel::with_parameters(1e-5, 1e-6, 0.007, 0.000_8, 20, 1.0);
    let trace = read_heavy();
    for retry in RetryKind::ALL {
        let mut cfg = SsdConfig::small(retry, 2000);
        cfg.ecc = hopeless.clone();
        let n = forced(cfg, &trace);
        if retry == RetryKind::Zero {
            assert_eq!(n, 0, "the ideal device never retries");
        } else {
            assert!(n > 0, "{retry}: a hopeless decoder forced no success");
        }
    }
}

#[test]
fn metrics_registry_accounts_for_the_run() {
    let trace = mixed();
    let mut cfg = SsdConfig::small(RetryKind::Rif, 2000);
    cfg.queue_depth = 32;
    let report = Simulator::new(cfg).with_metrics().run(&trace);
    let m = report.metrics.as_ref().expect("metrics enabled");
    assert_eq!(m.counter("requests.admitted"), trace.len() as u64);
    assert_eq!(m.counter("requests.completed"), trace.len() as u64);
    assert_eq!(m.counter("bytes.completed"), trace.total_bytes());
    assert_eq!(m.counter("pages.sensed"), report.page_senses);
    assert!(m.gauge("makespan_us").unwrap() > 0.0);
    assert!(m.histogram("latency.read").is_some());
}
