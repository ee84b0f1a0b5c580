//! §VI-C — power / area / energy overheads of the RP module, tied to the
//! retry rates an actual simulation produces.
//!
//! Paper anchors: 0.012 mm² and 1.28 mW at 130 nm / 100 MHz; 3.2 nJ per
//! prediction vs 907 nJ saved per avoided unrecoverable-page transfer.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_paper_sim_observed, saturating_trace, HarnessOpts, PE_STAGES};
use rif_odear::PpaModel;
use rif_ssd::RetryKind;
use rif_workloads::WorkloadProfile;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let ppa = PpaModel::paper();
    writeln!(out, "== §VI-C: RP module PPA ==")?;
    writeln!(
        out,
        "area: {:.3} mm²  ({:.4}% of a {:.0} mm² die)",
        ppa.rp_area_mm2,
        ppa.area_overhead_fraction() * 100.0,
        ppa.die_area_mm2
    )?;
    writeln!(out, "power: {:.2} mW @ 130 nm, 100 MHz", ppa.rp_power_mw)?;
    writeln!(
        out,
        "energy: {:.1} nJ/prediction vs {:.0} nJ/avoided transfer",
        ppa.prediction_energy_nj, ppa.transfer_energy_nj
    )?;
    writeln!(
        out,
        "break-even uncorrectable-read rate: {:.3}%",
        ppa.break_even_retry_rate() * 100.0
    )?;
    writeln!(out, "\nchunk-size scaling of prediction energy:")?;
    for kib in [1usize, 2, 4, 16] {
        writeln!(
            out,
            "  {kib:>2}-KiB chunk: {:.1} nJ",
            ppa.prediction_energy_for_chunk(kib)
        )?;
    }

    // Tie to the simulator: the uncorrectable-transfer rate SSDone
    // exhibits is the rate at which RiF's RP refunds transfers.
    let wl = WorkloadProfile::by_name("Ali124").expect("table workload");
    let n_requests = opts.pick(4_000, 500);
    let trace = saturating_trace(&wl, n_requests, opts.seed);
    writeln!(
        out,
        "\nnet energy over the Ali124 run (per simulated page read):"
    )?;
    for pe in PE_STAGES {
        let label = format!("Ali124-{}-{pe}", RetryKind::IdealOne.label());
        let r = run_paper_sim_observed(opts, out, &label, RetryKind::IdealOne, pe, &trace)?;
        let rate = r.uncor_page_transfers as f64 / r.page_senses.max(1) as f64;
        let net = ppa.net_energy_nj(r.page_senses, rate) / r.page_senses.max(1) as f64;
        writeln!(
            out,
            "  {pe:>4} P/E: uncorrectable rate {:>5.1}% -> net {:+.1} nJ/read ({})",
            rate * 100.0,
            net,
            if net < 0.0 {
                "RiF saves energy"
            } else {
                "RiF costs energy"
            }
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
