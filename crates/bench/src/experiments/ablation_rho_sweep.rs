//! Ablation — the correctability threshold ρs (§IV-B).
//!
//! ρs trades the two misprediction costs: a *low* threshold triggers
//! unnecessary in-die retries (one extra tR each, cheap); a *high* one
//! lets uncorrectable pages ship off-chip (wasted transfer + 20-µs
//! decode + conventional retry, expensive). The paper pins ρs at the
//! expected weight at the capability; this sweep shows how forgiving
//! that choice is.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_traced, saturating_trace, write_metrics, HarnessOpts, TableWriter};
use rif_events::parallel_trials;
use rif_ldpc::{PAPER_CIRCULANT_SIZE, PAPER_ROW_WEIGHT};
use rif_odear::RpBehavior;
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let wl = WorkloadProfile::by_name("Ali124").expect("table workload");
    let trace = saturating_trace(&wl, opts.pick(4_000, 500), opts.seed);
    let calibrated = RpBehavior::paper_default().rho_s();

    let t = TableWriter::new(opts.csv, &[8, 8, 12, 12, 12, 12]);
    t.heading(
        out,
        &format!("Ablation: rho_s sweep (calibrated = {calibrated}; RiFSSD @ 2K P/E, Ali124)"),
    )?;
    t.row(
        out,
        &[
            "mult".into(),
            "rho_s".into(),
            "bandwidth".into(),
            "in_die".into(),
            "uncor_xfers".into(),
            "misses".into(),
        ],
    )?;
    // Each ρs point is an independent deterministic simulation, so the
    // sweep fans the points out across the worker pool; rows are printed
    // in multiplier order regardless of completion order or --threads.
    let mults = [0.5f64, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0];
    let reports = parallel_trials(opts.threads, mults.len(), |i| {
        let rho = (calibrated as f64 * mults[i]).round() as usize;
        let mut cfg = SsdConfig::paper(RetryKind::Rif, 2000);
        cfg.rp = RpBehavior::with_rho(PAPER_CIRCULANT_SIZE, PAPER_ROW_WEIGHT, rho);
        cfg.seed = opts.seed;
        run_traced(opts, &format!("rho{rho}"), cfg, &trace).map(|report| (rho, report))
    });
    for (mult, cell) in mults.iter().zip(reports) {
        let (rho, report) = cell?;
        write_metrics(out, &format!("rho{rho}"), &report)?;
        t.row(
            out,
            &[
                format!("{mult:.2}"),
                rho.to_string(),
                format!("{:.0}", report.io_bandwidth_mbps()),
                report.in_die_retries.to_string(),
                report.uncor_page_transfers.to_string(),
                report.decode_failures.to_string(),
            ],
        )?;
    }
    if !opts.csv {
        writeln!(
            out,
            "\nBelow ~1.0 the extra in-die retries are nearly free; far above,"
        )?;
        writeln!(
            out,
            "missed predictions reintroduce the off-chip waste RiF exists to remove."
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
