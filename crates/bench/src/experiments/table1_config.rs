//! Table I — the evaluated SSD configuration, printed from the live
//! `SsdConfig` so any drift between documentation and simulator is
//! impossible.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::HarnessOpts;
use rif_ssd::{RetryKind, SsdConfig};

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let c = SsdConfig::paper(RetryKind::Rif, 0);
    let g = c.geometry;
    let t = c.timing;
    let rows: Vec<(&str, String)> = vec![
        (
            "configuration",
            format!(
                "{:.1}-TiB total; {} channels; {} dies/channel; {} planes/die; {} blocks/plane; {} pages/block",
                g.capacity_bytes() as f64 / (1u64 << 40) as f64,
                g.channels,
                g.dies_per_channel,
                g.planes_per_die,
                g.blocks_per_plane,
                g.pages_per_block
            ),
        ),
        (
            "latencies (us)",
            format!(
                "tR = {:.0}; tPROG = {:.0}; tBERS = {:.0}; tDMA = {:.0}; tECC = {:.0} to {:.0}; tPRED = {:.1}",
                t.t_r.as_us(),
                t.t_prog.as_us(),
                t.t_bers.as_us(),
                t.t_dma_page.as_us(),
                c.ecc.t_ecc(0.0).as_us(),
                c.ecc.t_ecc_failure().as_us(),
                t.t_pred.as_us()
            ),
        ),
        (
            "bandwidth",
            format!(
                "{:.1} GB/s external I/O (PCIe 4.0, 4-lane); {:.1} GB/s channel I/O",
                c.host_bw_bytes_per_sec as f64 / 1e9,
                16.0 * 1024.0 / t.t_dma_page.as_us() / 1e3
            ),
        ),
        (
            "ECC engine",
            format!(
                "4-KiB LDPC with {:.4} correction capability; {}-page channel buffer",
                c.ecc.correction_capability(),
                c.ecc_buffer_pages
            ),
        ),
        (
            "RP module",
            format!(
                "rho_s = {}; prediction over one 4-KiB chunk in {:.1} us",
                c.rp.rho_s(),
                t.t_pred.as_us()
            ),
        ),
    ];
    if opts.csv {
        for (k, v) in rows {
            writeln!(out, "{k},{}", v.replace(',', ";"))?;
        }
    } else {
        writeln!(out, "== Table I: evaluated SSD configuration ==")?;
        for (k, v) in rows {
            writeln!(out, "{k:>16} | {v}")?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
