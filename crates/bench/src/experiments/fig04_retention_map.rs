//! Fig. 4 — distribution of the retention time after which a page's RBER
//! exceeds the ECC correction capability, across P/E-cycle stages.
//!
//! Paper anchors: first failures at ≈17 / 14 / 10 / 8 days for
//! 0 / 200 / 500 / 1000 P/E cycles; at 1–2 K P/E most of the population
//! fails within the 30-day refresh horizon.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{HarnessOpts, TableWriter};
use rif_flash::characterize::retention_failure_map;
use rif_flash::rber::ErrorModel;
use rif_ldpc::PAPER_CORRECTION_CAPABILITY;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let model = ErrorModel::calibrated();
    let pe_list = [0u32, 100, 200, 300, 500, 1000, 2000];
    let blocks = opts.pick(2_000, 200);
    let max_day = 30;

    let cap = PAPER_CORRECTION_CAPABILITY;
    let map = retention_failure_map(&model, &pe_list, max_day, blocks, cap, opts.seed);

    let t = TableWriter::new(opts.csv, &[8, 6, 12]);
    t.heading(
        out,
        &format!("Fig. 4: retention days until RBER exceeds {cap} ({blocks} blocks/stage)"),
    )?;
    if opts.csv {
        t.row(out, &["pe".into(), "day".into(), "proportion".into()])?;
        for c in map.cells() {
            t.row(
                out,
                &[
                    c.pe_cycles.to_string(),
                    c.day.to_string(),
                    format!("{:.4}", c.proportion),
                ],
            )?;
        }
    } else {
        // Heat-map style rows, like the figure.
        write!(out, "{:>6} |", "P/E")?;
        for d in 0..=max_day {
            write!(
                out,
                "{}",
                if d % 5 == 0 {
                    format!("{d:>3}")
                } else {
                    "   ".into()
                }
            )?;
        }
        writeln!(out)?;
        for &pe in &pe_list {
            write!(out, "{pe:>6} |")?;
            for day in 0..=max_day {
                let p = map
                    .cells()
                    .iter()
                    .find(|c| c.pe_cycles == pe && c.day == day)
                    .map(|c| c.proportion)
                    .unwrap_or(0.0);
                let glyph = match p {
                    p if p == 0.0 => "  .",
                    p if p < 0.02 => "  -",
                    p if p < 0.05 => "  +",
                    p if p < 0.10 => "  *",
                    _ => "  #",
                };
                write!(out, "{glyph}")?;
            }
            writeln!(out)?;
        }
        writeln!(out, "\nonset and median of the failure-day distribution:")?;
        writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>10}",
            "P/E", "first", "median", "survive"
        )?;
        for &pe in &pe_list {
            let first = map
                .first_failure_day(pe)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into());
            let median = map
                .median_failure_day(pe)
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "-".into());
            let surv = map
                .survivors()
                .iter()
                .find(|(p, _)| *p == pe)
                .map(|(_, s)| format!("{:.2}", s))
                .unwrap_or_default();
            writeln!(out, "{pe:>6} {first:>10} {median:>10} {surv:>10}")?;
        }
        writeln!(
            out,
            "\npaper anchors: first failures ≈17/14/10/8 days at 0/200/500/1000 P/E;"
        )?;
        writeln!(
            out,
            "with a 30-day refresh horizon, read-retry is the common case at ≥1K P/E."
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
