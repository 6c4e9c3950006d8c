//! # pstack-bench — the paper-artifact regeneration harness
//!
//! One binary per table/figure/use case (see `src/bin/`), each running the
//! corresponding `powerstack_core::experiments` module at full scale,
//! printing the rendered table/series, and writing both the text and a JSON
//! dump under `results/`. The `regenerate_all` binary runs everything —
//! its output is the source of EXPERIMENTS.md.
//!
//! The `bench_*` binaries time the simulator's own fast paths and
//! `bench_diff` gates their artifacts; host-speed measurement of record is
//! the standalone `perfbench/` package.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod diff;
pub mod evalthroughput;
pub mod lockorder;

use pstack_trace::{SpanGuard, Trace, TraceCollector};
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Directory experiment outputs are written to (repo-relative).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("POWERSTACK_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Print `rendered` and persist it (plus a JSON dump of `data`) under
/// `results/<name>.{txt,json}`.
pub fn emit<T: Serialize>(name: &str, rendered: &str, data: &T) {
    emit_in(&results_dir(), name, rendered, data);
}

/// [`emit`] into `dir`.
fn emit_in<T: Serialize>(dir: &Path, name: &str, rendered: &str, data: &T) {
    println!("{rendered}");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let txt = dir.join(format!("{name}.txt"));
    let json = dir.join(format!("{name}.json"));
    if let Err(e) = fs::write(&txt, rendered) {
        eprintln!("warning: cannot write {}: {e}", txt.display());
    }
    match serde_json::to_string_pretty(data) {
        Ok(s) => {
            if let Err(e) = fs::write(&json, s) {
                eprintln!("warning: cannot write {}: {e}", json.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Persist `trace` as `results/trace_<name>.json` in Chrome `trace_event`
/// format — open the file in `chrome://tracing` or Perfetto. This is the
/// trace exporter PSA014 requires of every JSON-writing bench bin.
pub fn emit_trace(name: &str, trace: &Trace) {
    emit_trace_in(&results_dir(), name, trace);
}

/// [`emit_trace`] into `dir`.
fn emit_trace_in(dir: &Path, name: &str, trace: &Trace) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("trace_{name}.json"));
    match fs::write(&path, pstack_trace::to_chrome(trace)) {
        Ok(()) => eprintln!(
            "[trace: {} spans ({} dropped) -> {}]",
            trace.len(),
            trace.dropped,
            path.display()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Run `f` against a fresh trace collector (wrapped in a root span named
/// `name`), then export everything collected via [`emit_trace`].
///
/// The collector arrives as an `&Arc` so the closure can hand clones to
/// [`pstack_autotune::Tuner::with_trace`]-style sinks; plain
/// `&TraceCollector` consumers (e.g. `Scenario::run_traced`) take it by
/// deref coercion.
pub fn traced<T>(name: &str, f: impl FnOnce(&Arc<TraceCollector>) -> T) -> T {
    traced_in(&results_dir(), name, |tc, _root| f(tc))
}

/// [`traced`] for work that opens its spans as children of the root span
/// (see [`SpanGuard::child`]).
pub fn traced_under<T>(name: &str, f: impl FnOnce(&SpanGuard<'_>) -> T) -> T {
    traced_in(&results_dir(), name, |_tc, root| f(root))
}

/// Run `f` under a root span named `name` on a fresh collector, exporting
/// the trace into `dir`.
fn traced_in<T>(
    dir: &Path,
    name: &str,
    f: impl FnOnce(&Arc<TraceCollector>, &SpanGuard<'_>) -> T,
) -> T {
    let collector = Arc::new(TraceCollector::new());
    let out = {
        let root = collector.span(name);
        f(&collector, &root)
    };
    emit_trace_in(dir, name, &collector.snapshot());
    out
}

/// Unwrap an experiment result; on error, render the diagnostic to stderr
/// and exit with status 1.
///
/// Bench bins must never exit 0 without writing their artifact: a tuning
/// failure (e.g. [`TuneError::NoEvaluations`](pstack_autotune::TuneError))
/// that merely prints and falls off `main` reads as a successful
/// regeneration to CI and to `regenerate_all`'s callers.
pub fn run_or_exit<T, E: std::fmt::Display>(label: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {label}: {e}");
            eprintln!("error: {label}: no artifact written; exiting nonzero");
            std::process::exit(1);
        }
    }
}

/// Wall-clock a closure, printing the elapsed time to stderr.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_emits_a_round_trippable_chrome_trace() {
        let tmp = std::env::temp_dir().join("pstack-bench-trace-test");
        let out = traced_in(&tmp, "unit_test_trace", |tc, _root| {
            let mut span = tc.span("work");
            span.attr("step", 1i64);
            42
        });
        assert_eq!(out, 42);
        let path = tmp.join("trace_unit_test_trace.json");
        let raw = std::fs::read_to_string(&path).expect("trace artifact written");
        let back = pstack_trace::from_chrome(&raw).expect("valid Chrome trace");
        assert!(back.by_name("unit_test_trace").next().is_some());
        assert!(back.by_name("work").next().is_some());
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn emit_writes_files() {
        let tmp = std::env::temp_dir().join("pstack-bench-test");
        emit_in(&tmp, "unit_test_artifact", "hello table", &vec![1, 2, 3]);
        assert!(tmp.join("unit_test_artifact.txt").exists());
        assert!(tmp.join("unit_test_artifact.json").exists());
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
