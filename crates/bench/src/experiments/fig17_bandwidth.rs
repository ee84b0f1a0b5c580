//! Fig. 17 — I/O bandwidth of every retry configuration over the eight
//! Table II workloads at 0K/1K/2K P/E cycles, normalized to SENC.
//!
//! Paper anchors (averages over the eight workloads): RiFSSD outperforms
//! SENC by 23.8 % / 47.4 % / 72.1 % at 0K / 1K / 2K, beats SWR by 61.2 %
//! and SWR+ by 50.0 % at 2K, and lands within 1.8 % of SSDzero.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{
    geomean, run_paper_sim_observed, saturating_trace, HarnessOpts, TableWriter, PE_STAGES,
};
use rif_ssd::RetryKind;
use rif_workloads::profiles::PAPER_WORKLOADS;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(6_000, 600);
    let schemes = RetryKind::ALL;

    for pe in PE_STAGES {
        let t = TableWriter::new(opts.csv, &[8, 9, 9, 9, 9, 9, 9, 9]);
        t.heading(
            out,
            &format!("Fig. 17 @ {pe} P/E: bandwidth normalized to SENC"),
        )?;
        let mut header = vec!["trace".to_string()];
        header.extend(schemes.iter().map(|s| s.label().to_string()));
        t.row(out, &header)?;

        let mut norm: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
        for wl in PAPER_WORKLOADS {
            let trace = saturating_trace(&wl, n_requests, opts.seed);
            let bws: Vec<f64> = schemes
                .iter()
                .map(|&s| {
                    let label = format!("{}-{}-{pe}", wl.name, s.label());
                    run_paper_sim_observed(opts, out, &label, s, pe, &trace)
                        .map(|r| r.io_bandwidth_mbps())
                })
                .collect::<io::Result<_>>()?;
            let senc = bws[0];
            let mut row = vec![wl.name.to_string()];
            for (i, bw) in bws.iter().enumerate() {
                norm[i].push(bw / senc);
                row.push(format!("{:.2}", bw / senc));
            }
            t.row(out, &row)?;
        }
        let mut summary = vec!["geomean".to_string()];
        for series in &norm {
            summary.push(format!("{:.2}", geomean(series)));
        }
        t.row(out, &summary)?;
        if !opts.csv {
            let rif_idx = schemes
                .iter()
                .position(|s| *s == RetryKind::Rif)
                .expect("rif");
            let zero_idx = schemes
                .iter()
                .position(|s| *s == RetryKind::Zero)
                .expect("zero");
            let rif = geomean(&norm[rif_idx]);
            let zero = geomean(&norm[zero_idx]);
            writeln!(
                out,
                "  -> RiFSSD over SENC: +{:.1}%  (paper: {});  gap to SSDzero: {:.1}%",
                (rif - 1.0) * 100.0,
                match pe {
                    0 => "+23.8%",
                    1000 => "+47.4%",
                    _ => "+72.1%",
                },
                (1.0 - rif / zero) * 100.0
            )?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
