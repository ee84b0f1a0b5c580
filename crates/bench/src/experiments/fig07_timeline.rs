//! Figs. 7 & 8(c) — the 256-KiB worked example: one sequential host read
//! split into four 64-KiB multi-plane commands A–D on a 2-die channel,
//! with A and B requiring a read-retry.
//!
//! The timeline printed per scheme is reconstructed from the run's real
//! trace: each resource row (die, channel, ECC engine) lists the spans
//! the engine actually emitted, and the trace is validated against the
//! engine invariants before being displayed.
//!
//! Paper anchors: SSDzero 252 µs, SSDone 418 µs (+166), RiF 292 µs.

use std::io::{self, Write};
use std::process::ExitCode;

use crate::{named, trace_file, violations_error, write_metrics, HarnessOpts, TableWriter};
use rif_events::trace::{JsonlSink, SharedBuf, TraceRecord};
use rif_events::SimTime;
use rif_ssd::timeline::example_256k_setup;
use rif_ssd::tracecheck::TraceChecker;
use rif_ssd::{RetryKind, Simulator};

/// One completed span on an exclusive resource.
struct ResSpan {
    res: String,
    name: String,
    begin: SimTime,
    end: SimTime,
}

/// Extracts the resource-occupying spans of a parsed trace, in begin
/// order per resource.
fn resource_spans(records: &[TraceRecord]) -> Vec<ResSpan> {
    let mut open: std::collections::BTreeMap<u64, (String, String, SimTime)> = Default::default();
    let mut out = Vec::new();
    for r in records {
        match r {
            TraceRecord::SpanBegin {
                t,
                name,
                id,
                res: Some(res),
                ..
            } => {
                open.insert(*id, (res.clone(), name.clone(), *t));
            }
            TraceRecord::SpanEnd { t, id } => {
                if let Some((res, name, begin)) = open.remove(id) {
                    out.push(ResSpan {
                        res,
                        name,
                        begin,
                        end: *t,
                    });
                }
            }
            _ => {}
        }
    }
    out.sort_by(|a, b| (a.res.as_str(), a.begin).cmp(&(b.res.as_str(), b.begin)));
    out
}

/// Prints the per-resource timeline rebuilt from the trace.
fn print_timeline(out: &mut dyn Write, scheme: RetryKind, spans: &[ResSpan]) -> io::Result<()> {
    writeln!(
        out,
        "\n-- {} timeline (µs, from the run's trace) --",
        scheme.label()
    )?;
    let mut cur = "";
    let mut line = String::new();
    for s in spans {
        if s.res == "host" {
            continue; // negligible in this scenario (see example_256k_setup)
        }
        if s.res != cur {
            if !line.is_empty() {
                writeln!(out, "{line}")?;
            }
            cur = &s.res;
            line = format!("  {:<7}", s.res);
        }
        line.push_str(&format!(
            " {}[{:.1}-{:.1}]",
            s.name,
            s.begin.as_us(),
            s.end.as_us()
        ));
    }
    if !line.is_empty() {
        writeln!(out, "{line}")?;
    }
    Ok(())
}

pub fn run(opts: &HarnessOpts, out: &mut dyn Write) -> io::Result<ExitCode> {
    let t = TableWriter::new(opts.csv, &[8, 12, 12, 12, 14]);
    t.heading(
        out,
        "Figs. 7/8: 256-KiB read on a 2-die channel, A and B need a retry",
    )?;
    t.row(
        out,
        &[
            "scheme".into(),
            "total_us".into(),
            "paper_us".into(),
            "uncor_pgs".into(),
            "in_die_retry".into(),
        ],
    )?;
    for (scheme, paper) in [
        (RetryKind::Zero, 252.0),
        (RetryKind::IdealOne, 418.0),
        (RetryKind::Rif, 292.0),
    ] {
        let (cfg, trace) = example_256k_setup(scheme);
        let buf = SharedBuf::new();
        let mut sim = Simulator::new(cfg).with_tracer(Box::new(JsonlSink::new(buf.clone())));
        if opts.metrics {
            sim = sim.with_metrics();
        }
        let report = sim.run(&trace);
        let text = buf.contents();
        if let Some(prefix) = &opts.trace_out {
            let path = trace_file(prefix, scheme.label());
            std::fs::write(&path, &text).map_err(|e| named(&path, e))?;
        }
        let records = TraceRecord::parse_jsonl(&text).expect("emitted trace parses");
        violations_error(scheme.label(), &TraceChecker::check(&records))?;
        t.row(
            out,
            &[
                scheme.label().into(),
                format!("{:.1}", report.makespan.as_us()),
                format!("{paper:.0}"),
                report.uncor_page_transfers.to_string(),
                report.in_die_retries.to_string(),
            ],
        )?;
        if !opts.csv {
            print_timeline(out, scheme, &resource_spans(&records))?;
        }
        write_metrics(out, scheme.label(), &report)?;
    }
    if !opts.csv {
        writeln!(
            out,
            "\nSSDone pays the failed transfers and their 20-µs hopeless decodes;"
        )?;
        writeln!(
            out,
            "RiF converts both retries into one extra tR inside each die."
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
