//! Hybrid-flash sweep — all seven retry schemes on TLC, on QLC and on
//! the hybrid (SLC cache over QLC capacity) with its cache drain running.
//!
//! The tentpole claim of DESIGN §14: RiF's early-retry win grows where
//! retries are costlier (denser cells) and the die is busier (background
//! GC / migration traffic). Each row runs the same foreground load
//! through `SsdConfig.hybrid`; the hybrid row drains the SLC cache
//! aggressively, so SLC→QLC migrations contend with the same foreground
//! reads. There is no undrained hybrid row: the reads that hit its SLC
//! cache read data written moments before, at age 0, where an SLC and a
//! QLC page cost the same, so it would repeat the QLC row bit for bit.
//! No row refreshes: cold data is younger than the refresh interval
//! (`SsdConfig::refresh_days`) and a run this short ages nothing past it,
//! so a drained TLC or QLC row would repeat its row bit for bit.
//!
//! The `tlc` and `qlc` rows are the simulated TLC-against-QLC comparison
//! of paper §VII; its analytic half (crossing days, RBER amplification)
//! is the per-mode table at the end of `fig04_retention_map`.
//!
//! Prints the table and RiF's relative win per row on stdout
//! (`results/hybrid_sweep.txt` is a redirect of the full-size run) and
//! writes no file. Exits non-zero unless the win on QLC is strictly
//! larger than on TLC — the acceptance gate CI runs in `--quick` mode.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{geomean, run_observed, HarnessOpts};
use rif_ssd::hybrid::HybridConfig;
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::{SynthConfig, Trace};

const PE: u32 = 1500;

/// The devices swept: pure TLC, all-QLC, and the SLC/QLC hybrid with
/// its cache drain running.
const ROWS: [&str; 3] = ["tlc", "qlc", "hybrid"];

/// RiF's win is measured against the realistic baselines (the ideal
/// schemes bound it from above by construction).
const BASELINES: [RetryKind; 4] = [
    RetryKind::Sentinel,
    RetryKind::SwiftRead,
    RetryKind::SwiftReadPlus,
    RetryKind::RpSsd,
];

fn device(mode: &str) -> Option<HybridConfig> {
    match mode {
        "tlc" => None,
        "qlc" => Some(HybridConfig::qlc()),
        "hybrid" => {
            // Surface the cache drain inside a short run: near-zero
            // watermarks. The small geometry's SLC cache holds 64Ki
            // slots; a read-heavy 1.5k-request trace writes only a few
            // dozen, so the watermark must sit below that to see any
            // migration at all.
            let mut h = HybridConfig::slc_qlc();
            h.bg.high_watermark = 0.0001;
            h.bg.low_watermark = 0.0;
            Some(h)
        }
        other => panic!("unknown mode {other}"),
    }
}

/// One foreground load for every cell — read-dominant (the latency story
/// is about foreground reads) with just enough writes to fill the SLC
/// cache and feed GC. Keeping the trace identical across the rows makes
/// their differences a pure device effect rather than a workload change.
fn foreground(n: usize, seed: u64) -> Trace {
    SynthConfig {
        read_ratio: 0.96,
        cold_read_ratio: 0.6,
        hot_region_bytes: 4 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    }
    .generate(n, seed)
}

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n = opts.pick(1500, 250);

    writeln!(
        out,
        "== Hybrid sweep: mean read latency (µs) at {PE} P/E, {n} requests =="
    )?;
    writeln!(
        out,
        "{:>8} | {}",
        "device",
        RetryKind::ALL
            .iter()
            .map(|r| format!("{:>9}", r.label()))
            .collect::<Vec<_>>()
            .join(" ")
    )?;

    // A row's win = geomean over baselines of baseline/RiF mean latency.
    let mut wins: Vec<(&str, f64)> = Vec::new();
    let trace = foreground(n, opts.seed);
    for mode in ROWS {
        let mut means = Vec::new();
        for retry in RetryKind::ALL {
            let mut cfg = SsdConfig::small(retry, PE);
            cfg.seed = opts.seed;
            cfg.hybrid = device(mode);
            let label = format!("{mode}-{}", retry.label());
            let report = run_observed(opts, out, &label, cfg, &trace)?;
            means.push((retry, report.read_latency.mean().as_ns() as f64 / 1e3));
        }
        let rif = means
            .iter()
            .find(|(r, _)| *r == RetryKind::Rif)
            .expect("RiF in ALL")
            .1;
        let ratios: Vec<f64> = BASELINES
            .iter()
            .map(|b| means.iter().find(|(r, _)| r == b).expect("baseline").1 / rif)
            .collect();
        wins.push((mode, geomean(&ratios)));
        writeln!(
            out,
            "{:>8} | {}",
            mode,
            means
                .iter()
                .map(|(_, us)| format!("{us:>9.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "RiF win (geomean of baseline/RiF mean latency over SENC, SWR, SWR+, RPSSD):"
    )?;
    for (key, w) in &wins {
        writeln!(out, "  {key:>6}: {w:.3}x")?;
    }

    let win_of = |key: &str| wins.iter().find(|(k, _)| *k == key).expect("win key").1;
    let tlc = win_of("tlc");
    let qlc = win_of("qlc");
    let widens = qlc > tlc;
    writeln!(
        out,
        "\nRiF's relative win on QLC ({qlc:.3}x) vs TLC ({tlc:.3}x): {}",
        if widens { "WIDENS" } else { "DOES NOT WIDEN" }
    )?;

    if !widens {
        eprintln!("FAIL: RiF's QLC win ({qlc:.3}x) does not exceed its TLC win ({tlc:.3}x)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
