//! Replay a capture file through every retry scheme and print a
//! bandwidth/latency comparison table.
//!
//! ```sh
//! # A capture (what `rif-server --capture` writes; any other block
//! # trace is converted to this format first), at 2K P/E (default 1K):
//! cargo run --release --example trace_replay -- load.csv 2000
//! ```
//!
//! The eight Table II workloads through every scheme are Fig. 17:
//! `rif-bench run fig17_bandwidth`.

use rif::prelude::*;
use rif::workloads::Capture;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: trace_replay FILE [P/E]");
        std::process::exit(2);
    };
    let pe: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let trace = Capture::parse_csv(&text)
        .unwrap_or_else(|e| {
            eprintln!("malformed capture {path}: {e}");
            std::process::exit(1);
        })
        .to_trace();

    let stats = TraceStats::compute(&trace);
    println!(
        "\n== {path} @ {pe} P/E — {} reqs, read ratio {:.2}, cold {:.2} ==",
        stats.requests, stats.read_ratio, stats.cold_read_ratio
    );
    println!(
        "{:8} {:>9} {:>10} {:>10} {:>8} {:>8}",
        "scheme", "MB/s", "p50 µs", "p99.9 µs", "fails", "in-die"
    );
    for retry in RetryKind::ALL {
        let report = Simulator::new(SsdConfig::paper(retry, pe)).run(&trace);
        let p = |q| {
            report
                .read_latency
                .percentile(q)
                .map(|d| d.as_us())
                .unwrap_or(0.0)
        };
        println!(
            "{:8} {:>9.0} {:>10.1} {:>10.1} {:>8} {:>8}",
            retry.label(),
            report.io_bandwidth_mbps(),
            p(50.0),
            p(99.9),
            report.decode_failures,
            report.in_die_retries,
        );
    }
}
