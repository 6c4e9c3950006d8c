//! `pstack_trace` — render, summarize, and diff framework trace files.
//!
//! ```text
//! pstack_trace render  <trace-file>            # span tree with durations
//! pstack_trace summary <trace-file>            # per-stage profile table
//! pstack_trace diff    <trace-a> <trace-b>     # profile delta a -> b
//! ```
//!
//! Reads the Chrome `trace_event` JSON the framework writes (`to_chrome`,
//! the `results/trace_*.json` artifacts). Exits non-zero with a one-line
//! error on unreadable or foreign files.

use pstack_trace::{from_chrome, render_tree, ProfileSummary, Trace};
use std::process::ExitCode;

const USAGE: &str = "usage: pstack_trace <render|summary|diff> <trace-file> [trace-file-b]\n\
  render   print the span tree of a trace file\n\
  summary  print the per-stage profile of a trace file\n\
  diff     print the profile delta between two trace files";

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    from_chrome(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [cmd, path] if cmd == "render" => Ok(render_tree(&load(path)?)),
        [cmd, path] if cmd == "summary" => {
            let trace = load(path)?;
            let mut out = format!("{path}: {} spans, {} dropped\n", trace.len(), trace.dropped);
            out.push_str(&ProfileSummary::from_trace(&trace).render());
            Ok(out)
        }
        [cmd, a, b] if cmd == "diff" => {
            let pa = ProfileSummary::from_trace(&load(a)?);
            let pb = ProfileSummary::from_trace(&load(b)?);
            Ok(format!("{a} -> {b}\n{}", pa.diff(&pb)))
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pstack_trace: {e}");
            ExitCode::FAILURE
        }
    }
}
