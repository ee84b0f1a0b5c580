//! Fig. 18 — flash-channel usage breakdown (IDLE / COR / UNCOR /
//! ECCWAIT) for the two most read-intensive workloads across schemes and
//! wear stages.
//!
//! Paper anchors: at 2K P/E on Ali124, SWR wastes 54.4 % of channel time
//! in UNCOR+ECCWAIT; RiFSSD wastes ≈1.8 % (Ali121) while RPSSD still
//! loses ≈19.9 % to UNCOR transfers.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_paper_sim_observed, saturating_trace, HarnessOpts, TableWriter, PE_STAGES};
use rif_ssd::RetryKind;
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(6_000, 600);
    let schemes = [
        RetryKind::Sentinel,
        RetryKind::SwiftRead,
        RetryKind::SwiftReadPlus,
        RetryKind::RpSsd,
        RetryKind::Rif,
    ];

    let t = TableWriter::new(opts.csv, &[8, 6, 8, 8, 8, 8, 8, 9]);
    t.heading(out, "Fig. 18: channel usage breakdown")?;
    t.row(
        out,
        &[
            "trace".into(),
            "pe".into(),
            "scheme".into(),
            "idle".into(),
            "cor".into(),
            "uncor".into(),
            "eccwait".into(),
            "wasted".into(),
        ],
    )?;
    for name in ["Ali121", "Ali124"] {
        let wl = WorkloadProfile::by_name(name).expect("table workload");
        for pe in PE_STAGES {
            let trace = saturating_trace(&wl, n_requests, opts.seed);
            for scheme in schemes {
                let label = format!("{name}-{}-{pe}", scheme.label());
                let report = run_paper_sim_observed(opts, out, &label, scheme, pe, &trace)?;
                let u = report.channel_usage();
                t.row(
                    out,
                    &[
                        name.into(),
                        pe.to_string(),
                        scheme.label().into(),
                        format!("{:.3}", u.idle),
                        format!("{:.3}", u.cor),
                        format!("{:.3}", u.uncor),
                        format!("{:.3}", u.eccwait),
                        format!("{:.1}%", u.wasted() * 100.0),
                    ],
                )?;
            }
        }
    }
    if !opts.csv {
        writeln!(
            out,
            "\nRiF consumes the channel almost exclusively for correctable (COR)"
        )?;
        writeln!(
            out,
            "transfers; the reactive schemes burn large UNCOR + ECCWAIT shares."
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
