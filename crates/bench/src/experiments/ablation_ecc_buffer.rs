//! Ablation — channel-level ECC buffer capacity (§III-B3's third root
//! cause).
//!
//! The ECCWAIT pathology exists because the ECC engine's input buffer is
//! finite: while an uncorrectable page grinds through a 20-µs failed
//! decode, buffered pages pile up and the channel must stall. A larger
//! buffer hides more decode latency for the reactive schemes — RiF barely
//! cares, because its decodes are all short.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_observed, saturating_trace, HarnessOpts, TableWriter};
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let wl = WorkloadProfile::by_name("Ali124").expect("table workload");
    let trace = saturating_trace(&wl, opts.pick(4_000, 500), opts.seed);

    let t = TableWriter::new(opts.csv, &[8, 8, 12, 10, 10]);
    t.heading(
        out,
        "Ablation: ECC buffer pages (SWR and RiFSSD @ 2K P/E, Ali124)",
    )?;
    t.row(
        out,
        &[
            "scheme".into(),
            "buffer".into(),
            "bandwidth".into(),
            "eccwait".into(),
            "uncor".into(),
        ],
    )?;
    for scheme in [RetryKind::SwiftRead, RetryKind::Rif] {
        for buffer in [1usize, 2, 4, 8, 16] {
            let mut cfg = SsdConfig::paper(scheme, 2000);
            cfg.ecc_buffer_pages = buffer;
            cfg.seed = opts.seed;
            let label = format!("{}-buf{buffer}", scheme.label());
            let report = run_observed(opts, out, &label, cfg, &trace)?;
            let u = report.channel_usage();
            t.row(
                out,
                &[
                    scheme.label().into(),
                    buffer.to_string(),
                    format!("{:.0}", report.io_bandwidth_mbps()),
                    format!("{:.3}", u.eccwait),
                    format!("{:.3}", u.uncor),
                ],
            )?;
        }
    }
    if !opts.csv {
        writeln!(
            out,
            "\nBuffering trades silicon for ECCWAIT but cannot recover the UNCOR"
        )?;
        writeln!(
            out,
            "share — only deciding retries before the transfer (RiF) removes both."
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
