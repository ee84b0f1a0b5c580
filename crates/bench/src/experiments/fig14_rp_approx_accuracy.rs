//! Fig. 14 — RP accuracy with the two hardware approximations
//! (chunk-based prediction + syndrome pruning), against the exact
//! full-syndrome predictor of Fig. 11.
//!
//! Paper anchor: the approximations cost ≈0.4 points of accuracy
//! (99.1 % → 98.7 % above the capability).

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{HarnessOpts, TableWriter};
use rif_ldpc::{QcLdpcCode, PAPER_CORRECTION_CAPABILITY};
use rif_odear::accuracy::{mean_accuracy_above, measure_accuracy, measure_accuracy_with};
use rif_odear::rp::ReadRetryPredictor;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let code = if opts.quick {
        QcLdpcCode::medium()
    } else {
        QcLdpcCode::paper()
    };
    let trials = opts.pick(200, 40);
    let capability = PAPER_CORRECTION_CAPABILITY;
    let rbers: Vec<f64> = (3..=33).step_by(2).map(|i| i as f64 * 0.001).collect();

    // With approximations: the RP hardware path — pruned syndrome on the
    // rearranged layout of a single chunk.
    let rp = ReadRetryPredictor::for_capability(&code, capability);
    let approx = measure_accuracy(&code, &rp, &rbers, trials, opts.seed, opts.threads);

    // Without: full syndrome weight of the page.
    let rho_full = code.expected_full_weight(capability).round() as usize;
    let exact = measure_accuracy_with(
        &code,
        |c, noisy| c.syndrome_weight(noisy) > rho_full,
        &rbers,
        trials,
        opts.seed + 1,
        opts.threads,
    );

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
