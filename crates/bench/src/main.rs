//! `rif-bench`: every figure, table, ablation and sweep of the
//! reproduction behind one entry point (see the crate docs for the
//! subcommands and flags).

use std::io::{self, Write};
use std::process::ExitCode;

use rif_bench::{
    check, experiment, trace_check, HarnessOpts, ParseError, EXPERIMENTS, FLAGS_USAGE,
};

fn usage() -> String {
    format!(
        "usage: rif-bench run <name>|--all {FLAGS_USAGE}\n\
         \x20      rif-bench check [<name>...]\n\
         \x20      rif-bench list\n\
         \x20      rif-bench trace-check FILES..."
    )
}

/// A command-line mistake: message, usage, status 2.
fn usage_error(msg: &str) -> io::Result<ExitCode> {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    Ok(ExitCode::from(2))
}

fn unknown(name: &str) -> io::Result<ExitCode> {
    usage_error(&format!("unknown experiment {name} (see `rif-bench list`)"))
}

/// `run <name>|--all [flags]`.
fn run(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let Some((target, flags)) = args.split_first() else {
        return usage_error("run needs an experiment name or --all");
    };
    let opts = match HarnessOpts::parse_from(flags.to_vec()) {
        Ok(opts) => opts,
        Err(ParseError::Help) => {
            writeln!(out, "{}", usage())?;
            return Ok(ExitCode::SUCCESS);
        }
        Err(ParseError::Invalid(msg)) => return usage_error(&msg),
    };
    if target != "--all" {
        return match experiment(target) {
            Some((_, run)) => run(&opts, out),
            None => unknown(target),
        };
    }
    let mut worst = ExitCode::SUCCESS;
    for (name, run) in EXPERIMENTS {
        // Labels repeat across experiments (Fig. 17–19 share cells), so
        // each experiment's trace files carry its name.
        let opts = HarnessOpts {
            trace_out: opts.trace_out.as_ref().map(|p| format!("{p}-{name}")),
            ..opts.clone()
        };
        if run(&opts, out)? != ExitCode::SUCCESS {
            eprintln!("{name}: exited with failure");
            worst = ExitCode::FAILURE;
        }
    }
    Ok(worst)
}

fn dispatch(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let Some((cmd, rest)) = args.split_first() else {
        return usage_error("no subcommand");
    };
    match cmd.as_str() {
        "run" => run(rest, out),
        "check" => {
            let mut named = Vec::new();
            for name in rest {
                match experiment(name) {
                    Some(entry) => named.push(*entry),
                    None => return unknown(name),
                }
            }
            check(
                if named.is_empty() {
                    EXPERIMENTS
                } else {
                    &named
                },
                out,
            )
        }
        "list" => {
            for (name, _) in EXPERIMENTS {
                writeln!(out, "{name}")?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "trace-check" if rest.is_empty() => usage_error("trace-check needs at least one file"),
        "trace-check" => trace_check(rest, out),
        "--help" | "-h" => {
            writeln!(out, "{}", usage())?;
            Ok(ExitCode::SUCCESS)
        }
        other => usage_error(&format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, &mut io::stdout().lock()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rif-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
