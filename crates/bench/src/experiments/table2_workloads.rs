//! Table II — key I/O characteristics of the eight evaluation traces,
//! recomputed from the synthetic generators and compared against the
//! paper's published values.
//!
//! With `--trace-out` / `--metrics` each workload is additionally
//! replayed through the paper-geometry simulator (RiF at 1K P/E) so its
//! trace passes the invariant checker and its engine metrics are shown.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_paper_sim_observed, HarnessOpts, TableWriter};
use rif_ssd::RetryKind;
use rif_workloads::profiles::PAPER_WORKLOADS;
use rif_workloads::TraceStats;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(20_000, 2_000);

    let t = TableWriter::new(opts.csv, &[8, 12, 12, 12, 12, 12]);
    t.heading(
        out,
        &format!("Table II: workload characteristics ({n_requests} requests each)"),
    )?;
    t.row(
        out,
        &[
            "trace".into(),
            "read(paper)".into(),
            "read(ours)".into(),
            "cold(paper)".into(),
            "cold(ours)".into(),
            "GB moved".into(),
        ],
    )?;
    for wl in PAPER_WORKLOADS {
        let trace = wl.generate(n_requests, opts.seed);
        let s = TraceStats::compute(&trace);
        t.row(
            out,
            &[
                wl.name.into(),
                format!("{:.2}", wl.read_ratio),
                format!("{:.2}", s.read_ratio),
                format!("{:.2}", wl.cold_read_ratio),
                format!("{:.2}", s.cold_read_ratio),
                format!("{:.2}", s.total_bytes as f64 / 1e9),
            ],
        )?;
    }

    if opts.trace_out.is_some() || opts.metrics {
        // Validation replay: each workload through the simulator under
        // the trace checker (and/or with metrics collection).
        let sim_requests = opts.pick(2_000, 200);
        for wl in PAPER_WORKLOADS {
            let trace = wl.generate(sim_requests, opts.seed);
            run_paper_sim_observed(opts, out, wl.name, RetryKind::Rif, 1000, &trace)?;
        }
        if !opts.csv && opts.trace_out.is_some() {
            writeln!(
                out,
                "\nall {} workload replays passed the trace checker",
                PAPER_WORKLOADS.len()
            )?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
