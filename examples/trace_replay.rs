//! Replay a block trace — synthetic or from a capture file — through
//! every retry scheme and print a bandwidth/latency comparison table.
//!
//! ```sh
//! # All eight Table II workloads at 1K P/E:
//! cargo run --release --example trace_replay
//! # A capture (what `rif-server --capture` writes; any other block
//! # trace is converted to this format first), at 2K P/E:
//! cargo run --release --example trace_replay -- load.csv 2000
//! ```

use rif::prelude::*;
use rif::workloads::Capture;

fn replay(name: &str, trace: &Trace, pe: u32) {
    let stats = TraceStats::compute(trace);
    println!(
        "\n== {name} @ {pe} P/E — {} reqs, read ratio {:.2}, cold {:.2} ==",
        stats.requests, stats.read_ratio, stats.cold_read_ratio
    );
    println!(
        "{:8} {:>9} {:>10} {:>10} {:>8} {:>8}",
        "scheme", "MB/s", "p50 µs", "p99.9 µs", "fails", "in-die"
    );
    for retry in RetryKind::ALL {
        let report = Simulator::new(SsdConfig::paper(retry, pe)).run(trace);
        println!(
            "{:8} {:>9.0} {:>10.1} {:>10.1} {:>8} {:>8}",
            retry.label(),
            report.io_bandwidth_mbps(),
            report
                .read_latency
                .percentile(50.0)
                .map(|d| d.as_us())
                .unwrap_or(0.0),
            report
                .read_latency
                .percentile(99.9)
                .map(|d| d.as_us())
                .unwrap_or(0.0),
            report.decode_failures,
            report.in_die_retries,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = args.first() {
        let pe: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let capture = Capture::parse_csv(&text).unwrap_or_else(|e| {
            eprintln!("malformed capture {path}: {e}");
            std::process::exit(1);
        });
        replay(path, &capture.to_trace(), pe);
        return;
    }

    for profile in rif::workloads::profiles::PAPER_WORKLOADS {
        let mut cfg = profile.config();
        cfg.mean_interarrival_ns = 3_000.0; // saturate the device
        let trace = cfg.generate(2_000, 7);
        replay(profile.name, &trace, 1000);
    }
}
