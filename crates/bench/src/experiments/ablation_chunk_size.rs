//! Ablation — RP chunk size (§V-A1).
//!
//! The paper picks a 4-KiB chunk: smaller chunks shrink tPRED but compute
//! fewer syndromes, widening the prediction's uncertainty band around the
//! capability; a full-page check quadruples the latency for little
//! accuracy. This sweep quantifies the trade-off on the boundary width
//! and on end-to-end RiFSSD bandwidth.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_observed, saturating_trace, HarnessOpts, TableWriter};
use rif_ldpc::{PAPER_CIRCULANT_SIZE, PAPER_CORRECTION_CAPABILITY, PAPER_ROW_WEIGHT};
use rif_odear::RpBehavior;
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::WorkloadProfile;

/// RBER where the retry probability crosses `target`.
fn crossing(rp: &RpBehavior, target: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 0.05f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if rp.retry_probability(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let wl = WorkloadProfile::by_name("Ali124").expect("table workload");
    let trace = saturating_trace(&wl, opts.pick(4_000, 500), opts.seed);

    let t = TableWriter::new(opts.csv, &[10, 10, 8, 12, 12, 10]);
    t.heading(out, "Ablation: RP chunk size (RiFSSD @ 1K P/E, Ali124)")?;
    t.row(
        out,
        &[
            "chunk_kib".into(),
            "syndromes".into(),
            "tpred_us".into(),
            "band_width".into(),
            "bandwidth".into(),
            "misses".into(),
        ],
    )?;
    for chunk_kib in [1usize, 2, 4, 16] {
        // A k-KiB chunk reads k/4 of each segment: t·k/4 complete
        // syndromes (256 per KiB for the paper's t = 1024 code).
        let syndromes = PAPER_CIRCULANT_SIZE * chunk_kib / 4;
        let rp = RpBehavior::calibrated(syndromes, PAPER_ROW_WEIGHT, PAPER_CORRECTION_CAPABILITY);
        // Uncertainty band: RBER span where the verdict is a coin flip.
        let band = crossing(&rp, 0.9) - crossing(&rp, 0.1);

        let mut cfg = SsdConfig::paper(RetryKind::Rif, 1000);
        cfg.rp = rp;
        // The RP pipeline is fetch-bound: tPRED is the chunk's readout.
        let tpred = cfg.timing.chunk_readout(chunk_kib * 1024 * 8);
        cfg.timing.t_pred = tpred;
        cfg.seed = opts.seed;
        let report = run_observed(opts, out, &format!("chunk{chunk_kib}k"), cfg, &trace)?;
        t.row(
            out,
            &[
                chunk_kib.to_string(),
                syndromes.to_string(),
                format!("{:.2}", tpred.as_us()),
                format!("{:.5}", band),
                format!("{:.0}", report.io_bandwidth_mbps()),
                report.decode_failures.to_string(),
            ],
        )?;
    }
    if !opts.csv {
        writeln!(
            out,
            "\n(band_width = RBER span where RP's verdict is uncertain; misses ="
        )?;
        writeln!(
            out,
            " pages that reached the off-chip decoder and failed there)"
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
