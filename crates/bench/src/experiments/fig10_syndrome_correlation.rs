//! Fig. 10 — correlation between RBER and syndrome weight, and the
//! derivation of the RP correctability threshold ρs.
//!
//! Paper anchor: the syndrome weight grows monotonically with RBER; ρs is
//! set to the weight at the correction-capability RBER (0.0085).

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{HarnessOpts, TableWriter};
use rif_ldpc::analysis::{rho_s, syndrome_sweep};
use rif_ldpc::{QcLdpcCode, PAPER_CORRECTION_CAPABILITY};

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let code = if opts.quick {
        QcLdpcCode::medium()
    } else {
        QcLdpcCode::paper()
    };
    let trials = opts.pick(100, 25);
    let rbers: Vec<f64> = (1..=16).map(|i| i as f64 * 0.001).collect();

    let t = TableWriter::new(opts.csv, &[10, 14, 14, 14, 14]);
    t.heading(
        out,
        &format!(
            "Fig. 10: RBER vs syndrome weight (t = {}, {} trials/point)",
            code.matrix().t(),
            trials
        ),
    )?;
    t.row(
        out,
        &[
            "rber".into(),
            "full_weight".into(),
            "pruned_wt".into(),
            "analytic_full".into(),
            "analytic_pruned".into(),
        ],
    )?;
    for p in syndrome_sweep(&code, &rbers, trials, opts.seed, opts.threads) {
        t.row(
            out,
            &[
                format!("{:.3}", p.rber),
                format!("{:.1}", p.avg_full_weight),
                format!("{:.1}", p.avg_pruned_weight),
                format!("{:.1}", code.expected_full_weight(p.rber)),
                format!("{:.1}", code.expected_pruned_weight(p.rber)),
            ],
        )?;
    }
    if !opts.csv {
        let cap = PAPER_CORRECTION_CAPABILITY;
        writeln!(
            out,
            "\nrho_s (pruned weight at the {cap} capability): {}",
            rho_s(&code, cap)
        )?;
        writeln!(
            out,
            "full-syndrome equivalent: {:.0}  (the paper reports 3830 for its \
             undisclosed syndrome accounting; the calibration rule is identical)",
            code.expected_full_weight(cap)
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
