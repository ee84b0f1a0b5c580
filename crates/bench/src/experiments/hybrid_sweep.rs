//! Hybrid-flash sweep — all seven retry schemes on TLC vs QLC vs hybrid
//! (SLC cache over QLC capacity), with background traffic off and on.
//!
//! The tentpole claim of DESIGN §14: RiF's early-retry win grows where
//! retries are costlier (denser cells) and the die is busier (background
//! GC / migration / refresh traffic). Each cell runs the same foreground
//! load through `SsdConfig.hybrid`; "bg on" cells enable the background
//! scheduler with a refresh interval below the cold-age horizon, so
//! SLC→QLC migrations and refresh rewrites contend with the same
//! foreground reads.
//!
//! Prints the table and RiF's relative win per device config on stdout
//! (`results/hybrid_sweep.txt` is a redirect of the full-size run) and
//! writes no file. Exits non-zero unless the win under QLC+background is
//! strictly larger than under TLC-only — the acceptance gate CI runs in
//! `--quick` mode.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{geomean, run_observed, HarnessOpts};
use rif_ssd::hybrid::{CellMode, HybridConfig, MigrationPolicy};
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::{SynthConfig, Trace};

const PE: u32 = 1500;

/// The device configs swept: pure TLC, all-QLC, and the SLC/QLC hybrid.
const MODES: [&str; 3] = ["tlc", "qlc", "hybrid"];

/// RiF's win is measured against the realistic baselines (the ideal
/// schemes bound it from above by construction).
const BASELINES: [RetryKind; 4] = [
    RetryKind::Sentinel,
    RetryKind::SwiftRead,
    RetryKind::SwiftReadPlus,
    RetryKind::RpSsd,
];

fn device(mode: &str, bg: bool) -> Option<HybridConfig> {
    let mut h = match mode {
        "tlc" if !bg => return None,
        // TLC with background traffic: no cache, so no migrations, but
        // the scheduler's refresh rewrites run.
        "tlc" => HybridConfig {
            capacity_mode: CellMode::Tlc,
            ..HybridConfig::qlc()
        },
        "qlc" => HybridConfig::qlc(),
        "hybrid" => HybridConfig::slc_qlc(),
        other => panic!("unknown mode {other}"),
    };
    if bg {
        // Surface the background machinery inside a short run: drain
        // migrations aggressively (Fifo at these watermarks) and put the
        // refresh interval just below the cold-age horizon (30 days) so
        // the oldest touched cold slots come due for a rewrite — a
        // finite refresh stream, bounded per tick well below the dies'
        // drain rate. (Much shorter intervals turn the sweep into a
        // refresh benchmark: the rewrites reset so many cold slots that
        // the retry-heavy baselines gain more from the error reduction
        // than they lose to die contention.)
        h.migration = MigrationPolicy::Fifo;
        // The small geometry's SLC cache holds 64Ki slots; a read-heavy
        // 1.5k-request trace writes only a few dozen, so the watermark
        // must sit below that to see any migration at all.
        h.bg.high_watermark = 0.0001;
        h.bg.low_watermark = 0.0;
        h.bg.refresh_interval_days = 25.0;
        h.bg.refresh_scan_batch = 8;
    }
    Some(h)
}

/// One foreground load for every cell — read-dominant (the latency story
/// is about foreground reads) with just enough writes to fill the SLC
/// cache and feed GC. Keeping the trace identical across the bg on/off
/// cells makes the bg columns a pure machinery effect rather than a
/// workload change.
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
        "{:>8} {:>6} | {}",
        "device",
        "bg",
        RetryKind::ALL
            .iter()
            .map(|r| format!("{:>9}", r.label()))
            .collect::<Vec<_>>()
            .join(" ")
    )?;

    // win[mode][bg] = geomean over baselines of baseline/RiF mean latency.
    let mut wins: Vec<(String, f64)> = Vec::new();
    for mode in MODES {
        for bg in [false, true] {
            let trace = foreground(n, opts.seed);
            let mut means = Vec::new();
            for retry in RetryKind::ALL {
                let mut cfg = SsdConfig::small(retry, PE);
                cfg.seed = opts.seed;
                cfg.hybrid = device(mode, bg);
                let label = format!(
                    "{mode}-{}-{}",
                    if bg { "bgon" } else { "bgoff" },
                    retry.label()
                );
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
            wins.push((
                format!("{mode}_{}", if bg { "on" } else { "off" }),
                geomean(&ratios),
            ));
            writeln!(
                out,
                "{:>8} {:>6} | {}",
                mode,
                if bg { "on" } else { "off" },
                means
                    .iter()
                    .map(|(_, us)| format!("{us:>9.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )?;
        }
    }

    writeln!(out)?;
    writeln!(
        out,
        "RiF win (geomean of baseline/RiF mean latency over SENC, SWR, SWR+, RPSSD):"
    )?;
    for (key, w) in &wins {
        writeln!(out, "  {key:>10}: {w:.3}x")?;
    }

    let win_of = |key: &str| wins.iter().find(|(k, _)| k == key).expect("win key").1;
    let tlc_off = win_of("tlc_off");
    let qlc_on = win_of("qlc_on");
    let widens = qlc_on > tlc_off;
    writeln!(
        out,
        "\nRiF's relative win under QLC+background ({qlc_on:.3}x) vs TLC-only \
         ({tlc_off:.3}x): {}",
        if widens { "WIDENS" } else { "DOES NOT WIDEN" }
    )?;

    if !widens {
        eprintln!(
            "FAIL: RiF's QLC+background win ({qlc_on:.3}x) does not exceed its TLC-only \
             win ({tlc_off:.3}x)"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
