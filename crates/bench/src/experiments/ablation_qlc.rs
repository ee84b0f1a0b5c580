//! Extension — TLC vs QLC retry pressure (paper §VII).
//!
//! The paper argues read-retry optimization matters even more for denser
//! cells. This harness quantifies it in two ways, both sourced from the
//! hybrid subsystem's [`CellMode`] models (DESIGN §14) so there is a
//! single definition of "QLC" in the tree:
//!
//! 1. analytically, with the generalized MLC model: QLC's sixteen states
//!    share the TLC V_TH window, so the same retention drift crosses the
//!    ECC capability in a fraction of the time — compressing the usable
//!    refresh interval and multiplying the retry rate RiF eliminates;
//! 2. by simulation, running the same trace through a TLC device and a
//!    QLC one configured via `SsdConfig.hybrid = HybridConfig::qlc()` —
//!    the config path the hybrid_sweep harness and `rif-server --hybrid`
//!    use.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_observed, HarnessOpts, TableWriter};
use rif_flash::vth::OperatingPoint;
use rif_ldpc::PAPER_CORRECTION_CAPABILITY;
use rif_ssd::hybrid::{CellMode, HybridConfig};
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::SynthConfig;

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let tlc = CellMode::Tlc.model();
    let qlc = CellMode::Qlc.model();

    let t = TableWriter::new(opts.csv, &[6, 14, 14, 16, 16]);
    t.heading(
        out,
        "Extension: TLC vs QLC capability-crossing days and retry pressure",
    )?;
    t.row(
        out,
        &[
            "pe".into(),
            "tlc_days".into(),
            "qlc_days".into(),
            "tlc_retry_30d".into(),
            "qlc_retry_30d".into(),
        ],
    )?;
    for pe in [0u32, 200, 500, 1000, 2000] {
        let dt = tlc.days_to_exceed(pe, PAPER_CORRECTION_CAPABILITY, 120.0);
        let dq = qlc.days_to_exceed(pe, PAPER_CORRECTION_CAPABILITY, 120.0);
        // Cold-read retry fraction under a 30-day refresh horizon.
        let frac = |d: Option<f64>| match d {
            Some(day) => format!("{:.2}", (1.0 - day / 30.0).clamp(0.0, 1.0)),
            None => "0.00".into(),
        };
        let fmt = |d: Option<f64>| match d {
            Some(day) => format!("{day:.1}"),
            None => ">120".into(),
        };
        t.row(out, &[pe.to_string(), fmt(dt), fmt(dq), frac(dt), frac(dq)])?;
    }

    if !opts.csv {
        // RBER amplification at matched stress.
        writeln!(out, "\nRBER amplification (QLC / TLC) at matched stress:")?;
        for &(pe, days) in &[(0u32, 5.0), (500, 5.0), (1000, 3.0)] {
            let op = OperatingPoint::new(pe, days);
            let ratio = qlc.rber_avg(op, 1.0) / tlc.rber_avg(op, 1.0).max(1e-12);
            writeln!(out, "  {pe:>4} P/E, {days:>3.0} days: {ratio:.0}x")?;
        }
    }

    // Simulated confirmation through the hybrid config path: the same
    // trace on a TLC device (hybrid: None) and an all-QLC one.
    let n_requests = opts.pick(1200, 300);
    let trace = SynthConfig {
        read_ratio: 0.8,
        cold_read_ratio: 0.5,
        hot_region_bytes: 4 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    }
    .generate(n_requests, opts.seed);

    let t = TableWriter::new(opts.csv, &[10, 12, 12, 12, 12]);
    t.heading(
        out,
        "Simulated mean read latency (µs) and retries, TLC vs QLC (hybrid config path)",
    )?;
    t.row(
        out,
        &[
            "scheme".into(),
            "tlc_us".into(),
            "qlc_us".into(),
            "tlc_retry".into(),
            "qlc_retry".into(),
        ],
    )?;
    for &retry in &[
        RetryKind::Zero,
        RetryKind::SwiftRead,
        RetryKind::RpSsd,
        RetryKind::Rif,
    ] {
        let mut run = |cells: &str, hybrid: Option<HybridConfig>| {
            let mut cfg = SsdConfig::small(retry, 1000);
            cfg.seed = opts.seed;
            cfg.hybrid = hybrid;
            run_observed(opts, out, &format!("{retry:?}-{cells}"), cfg, &trace)
        };
        let rt = run("tlc", None)?;
        let rq = run("qlc", Some(HybridConfig::qlc()))?;
        t.row(
            out,
            &[
                format!("{retry:?}"),
                format!("{:.1}", rt.read_latency.mean().as_ns() as f64 / 1e3),
                format!("{:.1}", rq.read_latency.mean().as_ns() as f64 / 1e3),
                (rt.decode_failures + rt.in_die_retries).to_string(),
                (rq.decode_failures + rq.in_die_retries).to_string(),
            ],
        )?;
    }

    if !opts.csv {
        writeln!(
            out,
            "\nWith QLC, nearly every cold read needs a retry within days of"
        )?;
        writeln!(
            out,
            "programming — deciding retries on-die stops being an optimization"
        )?;
        writeln!(out, "and becomes the only way to keep the channel usable.")?;
    }
    Ok(ExitCode::SUCCESS)
}
