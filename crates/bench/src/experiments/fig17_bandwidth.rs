//! Figs. 6, 17 and 18 — one grid of device-saturating paper-SSD runs (the
//! eight Table II workloads × the seven retry configurations × 0K/1K/2K
//! P/E cycles), printed as SSDone vs SSDzero bandwidth (Fig. 6), every
//! scheme's bandwidth over SENC's (Fig. 17) and channel usage (Fig. 18).
//! Exits non-zero, naming each broken rule on stderr, unless the grid
//! keeps the paper's orderings (`broken_rules`).

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{run_traced, saturating_trace, write_metrics, HarnessOpts, TableWriter, PE_STAGES};
use rif_events::parallel_trials;
use rif_ssd::RetryKind::{self, IdealOne, Rif, RpSsd, Sentinel, SwiftRead, SwiftReadPlus, Zero};
use rif_ssd::{ChannelUsage, SsdConfig};
use rif_workloads::profiles::PAPER_WORKLOADS;

/// The workloads of Figs. 6 and 18, and Fig. 18's schemes (RiFSSD last).
const FIG06_WORKLOADS: [&str; 4] = ["Ali121", "Ali124", "Sys0", "Sys1"];
const FIG18_WORKLOADS: [&str; 2] = ["Ali121", "Ali124"];
const FIG18_SCHEMES: [RetryKind; 5] = [Sentinel, SwiftRead, SwiftReadPlus, RpSsd, Rif];
const W: usize = PAPER_WORKLOADS.len();
const S: usize = RetryKind::ALL.len();

/// What the figures read of one run: bandwidth (MB/s) and channel usage.
struct Cell {
    bw: f64,
    usage: ChannelUsage,
}

/// Every cell, by wear stage, then workload, then scheme (`index`), and
/// the requests each cell's trace holds.
struct Grid {
    cells: Vec<Cell>,
    requests: usize,
}

/// The smallest grid, in requests per cell, whose RiFSSD-to-SSDzero gap
/// is read as a claim: the full-size 6 000-request grid reads 1.0–1.8 %,
/// the 600-request `--quick` grid up to 2.5 % from sampling noise alone.
const GAP_RULE_REQUESTS: usize = 6_000;

/// Where workload `wl` under scheme `s` at wear stage `p` sits (Table II, `RetryKind::ALL` order).
fn index(p: usize, wl: &str, s: RetryKind) -> usize {
    let w = PAPER_WORKLOADS.iter().position(|w| w.name == wl);
    let s = RetryKind::ALL.iter().position(|&k| k == s);
    (p * W + w.expect("table workload")) * S + s.expect("scheme")
}

impl Grid {
    fn bw(&self, p: usize, wl: &str, s: RetryKind) -> f64 {
        self.cells[index(p, wl, s)].bw
    }

    /// A Fig. 17 cell: scheme `s` over SENC on workload `wl`.
    fn norm(&self, p: usize, wl: &str, s: RetryKind) -> f64 {
        self.bw(p, wl, s) / self.bw(p, wl, Sentinel)
    }

    /// Fig. 17's summary row.
    fn geomean(&self, p: usize, s: RetryKind) -> f64 {
        crate::geomean(&PAPER_WORKLOADS.map(|wl| self.norm(p, wl.name, s)))
    }

    /// A Fig. 6 cell: SSDone's bandwidth loss against SSDzero.
    fn degradation(&self, p: usize, wl: &str) -> f64 {
        1.0 - self.bw(p, wl, IdealOne) / self.bw(p, wl, Zero)
    }

    /// Fig. 6's average over its four workloads.
    fn mean_degradation(&self, p: usize) -> f64 {
        let each = FIG06_WORKLOADS.map(|wl| self.degradation(p, wl));
        each.iter().sum::<f64>() / each.len() as f64
    }
}

/// The paper's orderings the grid must keep; returns those it breaks.
/// "RiFSSD within 2 % of SSDzero" is kept only by a full-size grid
/// ([`GAP_RULE_REQUESTS`]); EXPERIMENTS.md says why "RPSSD above SWR+"
/// is not among them.
fn broken_rules(grid: &Grid) -> Vec<String> {
    let mut broken = Vec::new();
    let mut rule = |holds: bool, name: String| broken.extend((!holds).then_some(name));
    for (p, pe) in PE_STAGES.iter().enumerate() {
        let g = |s| grid.geomean(p, s);
        let rising = |ss: &[RetryKind]| ss.windows(2).all(|s| g(s[0]) < g(s[1]));
        let name = format!("geomean SENC < SWR < SWR+ < RiFSSD at {pe} P/E");
        rule(rising(&[Sentinel, SwiftRead, SwiftReadPlus, Rif]), name);
        let name = format!("geomean RPSSD < RiFSSD <= SSDzero at {pe} P/E");
        rule(rising(&[RpSsd, Rif]) && g(Rif) <= g(Zero), name);
        if grid.requests >= GAP_RULE_REQUESTS {
            let name = format!("geomean RiFSSD within 2 % of SSDzero at {pe} P/E");
            rule(1.0 - g(Rif) / g(Zero) < 0.02, name);
        }
        for wl in FIG18_WORKLOADS {
            let wasted = |s| grid.cells[index(p, wl, s)].usage.wasted();
            let least = FIG18_SCHEMES[..4].iter().all(|&s| wasted(Rif) < wasted(s));
            let name = format!("RiFSSD wastes the least channel, under 2 %, on {wl} at {pe} P/E");
            rule(least && wasted(Rif) < 0.02, name);
        }
    }
    let grows = |f: &dyn Fn(usize) -> f64| (1..PE_STAGES.len()).all(|p| f(p - 1) < f(p));
    let name = "RiFSSD's geomean gain over SENC grows with P/E";
    rule(grows(&|p| grid.geomean(p, Rif)), name.into());
    let name = "Fig. 6's mean SSDone degradation grows with P/E";
    rule(grows(&|p| grid.mean_degradation(p)), name.into());
    broken
}

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let n_requests = opts.pick(6_000, 600);
    let traces = PAPER_WORKLOADS.map(|wl| saturating_trace(&wl, n_requests, opts.seed));
    let cells: Vec<_> = (0..PE_STAGES.len())
        .flat_map(|p| (0..W).flat_map(move |w| RetryKind::ALL.map(|s| (p, w, s))))
        .collect();
    // Each cell is an independent deterministic run: the cells fan out
    // over the worker pool and come back in grid order.
    let reports = parallel_trials(opts.threads, cells.len(), |i| {
        let (p, w, s) = cells[i];
        let label = format!("{}-{}-{}", PAPER_WORKLOADS[w].name, s.label(), PE_STAGES[p]);
        let mut cfg = SsdConfig::paper(s, PE_STAGES[p]);
        cfg.seed = opts.seed;
        run_traced(opts, &label, cfg, &traces[w]).map(|report| (label, report))
    });
    let mut grid = Grid {
        cells: Vec::with_capacity(cells.len()),
        requests: n_requests,
    };
    for cell in reports {
        let (label, report) = cell?;
        write_metrics(out, &label, &report)?;
        let (bw, usage) = (report.io_bandwidth_mbps(), report.channel_usage());
        grid.cells.push(Cell { bw, usage });
    }

    print(opts, out, &grid)?;
    let broken = broken_rules(&grid);
    if broken.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    for rule in &broken {
        eprintln!("FAIL: the grid breaks the paper's ordering: {rule}");
    }
    Ok(ExitCode::FAILURE)
}

fn print(opts: &HarnessOpts, out: &mut dyn Write, grid: &Grid) -> io::Result<()> {
    let t = TableWriter::new(opts.csv, &[6, 8, 12, 12, 12]);
    t.heading(out, "Fig. 6: SSDone vs SSDzero I/O bandwidth (MB/s)")?;
    let header = ["pe", "trace", "SSDone", "SSDzero", "degradation"];
    t.row(out, &header.map(String::from))?;
    for (p, pe) in PE_STAGES.iter().enumerate() {
        for wl in FIG06_WORKLOADS {
            let mut row = vec![pe.to_string(), wl.into()];
            row.extend([IdealOne, Zero].map(|s| format!("{:.0}", grid.bw(p, wl, s))));
            row.push(format!("{:.1}%", grid.degradation(p, wl) * 100.0));
            t.row(out, &row)?;
        }
        if !opts.csv {
            let avg = grid.mean_degradation(p) * 100.0;
            let paper = ["19.4%", "34.9%", "50.4%"][p];
            let line = format!("average degradation at {pe} P/E: {avg:.1}%  (paper: {paper})");
            writeln!(out, "  -> {line}")?;
        }
    }

    let line = |first: &str, rest: [String; S]| [vec![first.to_string()], rest.to_vec()].concat();
    for (p, pe) in PE_STAGES.iter().enumerate() {
        let t = TableWriter::new(opts.csv, &[8, 9, 9, 9, 9, 9, 9, 9]);
        let heading = format!("Fig. 17 @ {pe} P/E: bandwidth normalized to SENC");
        t.heading(out, &heading)?;
        let labels = RetryKind::ALL.map(|s| s.label().into());
        t.row(out, &line("trace", labels))?;
        for wl in PAPER_WORKLOADS {
            let norm = RetryKind::ALL.map(|s| format!("{:.2}", grid.norm(p, wl.name, s)));
            t.row(out, &line(wl.name, norm))?;
        }
        let geomeans = RetryKind::ALL.map(|s| format!("{:.2}", grid.geomean(p, s)));
        t.row(out, &line("geomean", geomeans))?;
        if !opts.csv {
            let (rif, zero) = (grid.geomean(p, Rif), grid.geomean(p, Zero));
            writeln!(
                out,
                "  -> RiFSSD over SENC: +{:.1}%  (paper: {});  gap to SSDzero: {:.1}%",
                (rif - 1.0) * 100.0,
                ["+23.8%", "+47.4%", "+72.1%"][p],
                (1.0 - rif / zero) * 100.0
            )?;
        }
    }

    let t = TableWriter::new(opts.csv, &[8, 6, 8, 8, 8, 8, 8, 9]);
    t.heading(out, "Fig. 18: channel usage breakdown")?;
    let header = [
        "trace", "pe", "scheme", "idle", "cor", "uncor", "eccwait", "wasted",
    ];
    t.row(out, &header.map(String::from))?;
    for wl in FIG18_WORKLOADS {
        for (p, pe) in PE_STAGES.iter().enumerate() {
            for s in FIG18_SCHEMES {
                let u = grid.cells[index(p, wl, s)].usage;
                let mut row = vec![wl.into(), pe.to_string(), s.label().into()];
                row.extend([u.idle, u.cor, u.uncor, u.eccwait].map(|x| format!("{x:.3}")));
                row.push(format!("{:.1}%", u.wasted() * 100.0));
                t.row(out, &row)?;
            }
        }
    }
    if !opts.csv {
        writeln!(
            out,
            "\nRiF consumes the channel almost exclusively for correctable (COR)\n\
             transfers; the reactive schemes burn large UNCOR + ECCWAIT shares."
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps every rule at full size: RiFSSD and SSDzero gain with wear,
    /// RiFSSD trails SSDzero by under 1 % and wastes 1 %.
    fn keeping() -> Grid {
        let cell = |i: usize| {
            let (p, s) = ((i / (W * S)) as f64, RetryKind::ALL[i % S]);
            #[rustfmt::skip]
            let bw = [100.0, 105.0, 110.0, 108.0, 120.0 + 10.0 * p, 101.0, 121.0 + 10.0 * p][i % S];
            let uncor = if s == Rif { 0.01 } else { 0.1 };
            let usage = ChannelUsage::from_fractions(&[0.0, 0.0, uncor, 0.0]);
            Cell { bw, usage }
        };
        Grid {
            cells: (0..PE_STAGES.len() * W * S).map(cell).collect(),
            requests: GAP_RULE_REQUESTS,
        }
    }

    #[test]
    fn one_perturbed_cell_names_the_rule_it_breaks() {
        assert_eq!(broken_rules(&keeping()), Vec::<String>::new());
        // (wear stage, workload, scheme, its bandwidth and UNCOR share, the rule)
        #[rustfmt::skip]
        let cases = [
            (1, "Ali2", SwiftRead, 1000.0, 0.1, "SENC < SWR < SWR+ < RiFSSD at 1000 P/E"),
            (0, "Sys0", Rif, 1000.0, 0.01, "RPSSD < RiFSSD <= SSDzero at 0 P/E"),
            (2, "Ali121", IdealOne, 200.0, 0.1, "mean SSDone degradation grows"),
            (2, "Ali124", Rif, 140.0, 0.02, "under 2 %, on Ali124 at 2000 P/E"),
            (0, "Ali121", RpSsd, 108.0, 0.005, "under 2 %, on Ali121 at 0 P/E"),
            (1, "Ali46", Zero, 300.0, 0.1, "RiFSSD within 2 % of SSDzero at 1000 P/E"),
        ];
        for (p, wl, s, bw, uncor, rule) in cases {
            let mut grid = keeping();
            let cell = &mut grid.cells[index(p, wl, s)];
            (cell.bw, cell.usage.uncor) = (bw, uncor);
            let broken = broken_rules(&grid);
            let named = broken.iter().any(|b| b.contains(rule));
            assert!(named, "{rule}: {broken:?}");
        }
        // A grid below full size is not held to the gap.
        let mut grid = keeping();
        grid.requests = GAP_RULE_REQUESTS - 1;
        grid.cells[index(1, "Ali46", Zero)].bw = 300.0;
        assert_eq!(broken_rules(&grid), Vec::<String>::new());
    }
}
