//! Fig. 11 — validation of RP against the real LDPC decoder *without*
//! the hardware approximations: the predictor thresholds the full
//! syndrome weight of each page.
//!
//! Paper anchors: ≈99.1 % prediction accuracy for RBERs above the
//! correction capability, dropping to ≈50 % exactly at the capability.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{HarnessOpts, TableWriter};
use rif_ldpc::{QcLdpcCode, PAPER_CORRECTION_CAPABILITY};
use rif_odear::accuracy::{mean_accuracy_above, measure_accuracy_with};

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let code = if opts.quick {
        QcLdpcCode::medium()
    } else {
        QcLdpcCode::paper()
    };
    let trials = opts.pick(200, 40);
    // The capability of *this* code, so the boundary effect shows at the
    // right abscissa (the paper grid spans 0.003–0.033).
    let capability = PAPER_CORRECTION_CAPABILITY;
    let rho_full = code.expected_full_weight(capability).round() as usize;
    let rbers: Vec<f64> = (3..=33).step_by(2).map(|i| i as f64 * 0.001).collect();

    let t = TableWriter::new(opts.csv, &[10, 12, 14, 14]);
    t.heading(
        out,
        &format!(
            "Fig. 11: RP accuracy, full syndrome weight (rho = {rho_full}, {trials} trials/point)"
        ),
    )?;
    t.row(
        out,
        &[
            "rber".into(),
            "accuracy".into(),
            "false_retry".into(),
            "missed_retry".into(),
        ],
    )?;
    let points = measure_accuracy_with(
        &code,
        |c, noisy| c.syndrome_weight(noisy) > rho_full,
        &rbers,
        trials,
        opts.seed,
        opts.threads,
    );
    for p in &points {
        t.row(
            out,
            &[
                format!("{:.3}", p.rber),
                format!("{:.3}", p.accuracy),
                format!("{:.3}", p.false_retry_rate),
                format!("{:.3}", p.missed_retry_rate),
            ],
        )?;
    }
    if !opts.csv {
        writeln!(
            out,
            "\nmean accuracy above the capability: {:.1}%  (paper: 99.1%)",
            mean_accuracy_above(&points, capability) * 100.0
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
