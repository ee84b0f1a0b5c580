//! Figs. 11 and 14 — validation of RP against the real LDPC decoder. Each
//! page is decoded once and scored by the full-syndrome predictor (Fig. 11,
//! and Fig. 14's "without") and by the RP hardware path, the pruned
//! syndrome of one rearranged chunk (Fig. 14's "with_approx"), so the cost
//! of the approximations is a paired difference.
//!
//! Paper anchors: ≈99.1 % prediction accuracy for RBERs above the
//! correction capability, dropping to ≈50 % exactly at the capability;
//! the approximations cost ≈0.4 points (99.1 % → 98.7 %).

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{HarnessOpts, TableWriter};
use rif_ldpc::bits::BitVec;
use rif_ldpc::{QcLdpcCode, PAPER_CORRECTION_CAPABILITY};
use rif_odear::accuracy::{mean_accuracy_above, measure_accuracy};
use rif_odear::rp::ReadRetryPredictor;

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
    let rp = ReadRetryPredictor::for_capability(&code, capability);
    let rbers: Vec<f64> = (3..=33).step_by(2).map(|i| i as f64 * 0.001).collect();

    let full = |noisy: &BitVec| code.syndrome_weight(noisy) > rho_full;
    let rp_path = |noisy: &BitVec| rp.predict(&code.rearrange(noisy)).retry_needed;
    let [exact, approx] = measure_accuracy(
        &code,
        [&full, &rp_path],
        &rbers,
        trials,
        opts.seed,
        opts.threads,
    );

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
    for p in &exact {
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
            mean_accuracy_above(&exact, capability) * 100.0
        )?;
    }

    let t = TableWriter::new(opts.csv, &[10, 16, 16]);
    t.heading(
        out,
        &format!(
            "Fig. 14: RP accuracy with vs without approximations (rho_s = {}, {} trials/point)",
            rp.rho_s(),
            trials
        ),
    )?;
    t.row(
        out,
        &["rber".into(), "with_approx".into(), "without".into()],
    )?;
    for (a, e) in approx.iter().zip(&exact) {
        t.row(
            out,
            &[
                format!("{:.3}", a.rber),
                format!("{:.3}", a.accuracy),
                format!("{:.3}", e.accuracy),
            ],
        )?;
    }
    if !opts.csv {
        writeln!(
            out,
            "\nmean accuracy above capability: with approximations {:.1}% (paper 98.7%), \
             without {:.1}% (paper 99.1%)",
            mean_accuracy_above(&approx, capability) * 100.0,
            mean_accuracy_above(&exact, capability) * 100.0
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
