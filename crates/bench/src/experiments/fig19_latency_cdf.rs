//! Fig. 19 — cumulative distribution of SSD-level read latencies for
//! Ali124 across schemes and wear stages, plus tail percentiles.
//!
//! Paper anchors: at 2K P/E, RiFSSD cuts the 99.99-th percentile tail by
//! 91.8 % / 82.6 % / 56.3 % vs SENC / SWR / SWR+.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_paper_sim_observed, HarnessOpts, TableWriter, PE_STAGES};
use rif_ssd::RetryKind;
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(8_000, 800);
    // Latency is measured at a high-but-sustainable load so tails show
    // device behaviour, not unbounded backlog growth (the paper replays
    // its traces at recorded intensity).
    let mut wl = WorkloadProfile::by_name("Ali124")
        .expect("table workload")
        .config();
    wl.mean_interarrival_ns = 20_000.0;
    let trace = wl.generate(n_requests, opts.seed);
    let schemes = [
        RetryKind::Sentinel,
        RetryKind::SwiftRead,
        RetryKind::SwiftReadPlus,
        RetryKind::RpSsd,
        RetryKind::Rif,
    ];

    for pe in PE_STAGES {
        let t = TableWriter::new(opts.csv, &[8, 10, 10, 10, 10, 10]);
        t.heading(
            out,
            &format!("Fig. 19 @ {pe} P/E: Ali124 read-latency percentiles (µs)"),
        )?;
        t.row(
            out,
            &[
                "scheme".into(),
                "p50".into(),
                "p90".into(),
                "p99".into(),
                "p99.9".into(),
                "p99.99".into(),
            ],
        )?;
        let mut senc_tail = 0.0;
        let mut rif_tail = 0.0;
        for scheme in schemes {
            let label = format!("Ali124-{}-{pe}", scheme.label());
            let report = run_paper_sim_observed(opts, out, &label, scheme, pe, &trace)?;
            let p = |q: f64| {
                report
                    .read_latency
                    .percentile(q)
                    .map(|d| d.as_us())
                    .unwrap_or(0.0)
            };
            if scheme == RetryKind::Sentinel {
                senc_tail = p(99.99);
            }
            if scheme == RetryKind::Rif {
                rif_tail = p(99.99);
            }
            t.row(
                out,
                &[
                    scheme.label().into(),
                    format!("{:.1}", p(50.0)),
                    format!("{:.1}", p(90.0)),
                    format!("{:.1}", p(99.0)),
                    format!("{:.1}", p(99.9)),
                    format!("{:.1}", p(99.99)),
                ],
            )?;
            if opts.csv {
                // Also emit the CDF curve rows for plotting.
                for (lat, frac) in report.read_latency.cdf() {
                    writeln!(
                        out,
                        "cdf,{pe},{},{:.3},{:.6}",
                        scheme.label(),
                        lat.as_us(),
                        frac
                    )?;
                }
            }
        }
        if !opts.csv && senc_tail > 0.0 {
            writeln!(
                out,
                "  -> RiF p99.99 tail {:.1}% below SENC (paper at 2K: 91.8%)",
                (1.0 - rif_tail / senc_tail) * 100.0
            )?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
