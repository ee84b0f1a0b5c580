//! Extension — program/erase suspend-resume.
//!
//! On mixed workloads, reads queue behind 400-µs programs (and
//! 3.5-ms erases); enterprise SSDs let reads *suspend* the long
//! operation. This sweep shows the feature is orthogonal to RiF: suspend
//! fixes die-level queueing for write-heavy traces, RiF fixes
//! channel/ECC waste for read-heavy ones — and the combination stacks.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_observed, HarnessOpts, TableWriter};
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(4_000, 500);

    let t = TableWriter::new(opts.csv, &[8, 9, 9, 12, 12, 12]);
    t.heading(out, "Extension: read suspend-resume (@1K P/E)")?;
    t.row(
        out,
        &[
            "trace".into(),
            "scheme".into(),
            "suspend".into(),
            "bandwidth".into(),
            "p99_us".into(),
            "p99.9_us".into(),
        ],
    )?;
    for name in ["Ali2", "Ali124"] {
        // Sub-saturation load: read latency then reflects device waits
        // (programs ahead of reads on a die), not backlog queueing.
        let wl = WorkloadProfile::by_name(name).expect("table workload");
        let mut cfg_wl = wl.config();
        cfg_wl.mean_interarrival_ns = 20_000.0;
        let trace = cfg_wl.generate(n_requests, opts.seed);
        for scheme in [RetryKind::Sentinel, RetryKind::Rif] {
            for suspend in [false, true] {
                let mut cfg = SsdConfig::paper(scheme, 1000);
                cfg.read_suspend = suspend;
                cfg.seed = opts.seed;
                let label = format!(
                    "{name}-{}-{}",
                    scheme.label(),
                    if suspend { "on" } else { "off" }
                );
                let report = run_observed(opts, out, &label, cfg, &trace)?;
                let p = |q: f64| {
                    report
                        .read_latency
                        .percentile(q)
                        .map(|d| d.as_us())
                        .unwrap_or(0.0)
                };
                t.row(
                    out,
                    &[
                        name.into(),
                        scheme.label().into(),
                        if suspend { "on" } else { "off" }.into(),
                        format!("{:.0}", report.io_bandwidth_mbps()),
                        format!("{:.0}", p(99.0)),
                        format!("{:.0}", p(99.9)),
                    ],
                )?;
            }
        }
    }
    if !opts.csv {
        writeln!(
            out,
            "\nSuspend helps the write-heavy trace's read tail; RiF helps the"
        )?;
        writeln!(out, "read-heavy trace's bandwidth. The mechanisms compose.")?;
    }
    Ok(ExitCode::SUCCESS)
}
