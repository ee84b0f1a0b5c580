//! Fig. 6 — I/O bandwidth of SSDone (ideal reactive retry) vs SSDzero
//! (no retries) across four workloads and three wear stages.
//!
//! Paper anchors: SSDone degrades by 19.4 % / 34.9 % / 50.4 % on average
//! at 0K / 1K / 2K P/E cycles; Ali124 at 2K is capped near 2831 MB/s
//! while SSDzero sustains ≈6026 MB/s.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_paper_sim_observed, saturating_trace, HarnessOpts, TableWriter, PE_STAGES};
use rif_ssd::RetryKind;
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(6_000, 800);
    let workloads = WorkloadProfile::motivation_set();

    let t = TableWriter::new(opts.csv, &[6, 8, 12, 12, 12]);
    t.heading(out, "Fig. 6: SSDone vs SSDzero I/O bandwidth (MB/s)")?;
    t.row(
        out,
        &[
            "pe".into(),
            "trace".into(),
            "SSDone".into(),
            "SSDzero".into(),
            "degradation".into(),
        ],
    )?;

    for pe in PE_STAGES {
        let mut degradations = Vec::new();
        for wl in &workloads {
            let trace = saturating_trace(wl, n_requests, opts.seed);
            let mut sim = |retry: RetryKind| {
                let label = format!("{}-{}-{pe}", wl.name, retry.label());
                run_paper_sim_observed(opts, out, &label, retry, pe, &trace)
            };
            let one = sim(RetryKind::IdealOne)?;
            let zero = sim(RetryKind::Zero)?;
            let degradation = 1.0 - one.io_bandwidth_mbps() / zero.io_bandwidth_mbps();
            degradations.push(degradation);
            t.row(
                out,
                &[
                    pe.to_string(),
                    wl.name.into(),
                    format!("{:.0}", one.io_bandwidth_mbps()),
                    format!("{:.0}", zero.io_bandwidth_mbps()),
                    format!("{:.1}%", degradation * 100.0),
                ],
            )?;
        }
        if !opts.csv {
            let avg = degradations.iter().sum::<f64>() / degradations.len() as f64;
            writeln!(
                out,
                "  -> average degradation at {pe} P/E: {:.1}%  (paper: {})",
                avg * 100.0,
                match pe {
                    0 => "19.4%",
                    1000 => "34.9%",
                    _ => "50.4%",
                }
            )?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
