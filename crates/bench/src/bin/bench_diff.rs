//! Perf-regression gate: fresh artifacts vs committed `results/`.
//!
//! Usage: `bench_diff [COMMITTED_DIR] [FRESH_DIR] [--require NAME ...]`
//!
//! Defaults: committed `results/`, fresh `$POWERSTACK_RESULTS_DIR` (the
//! directory `regenerate_all` was pointed at). Compares every
//! artifact covered by [`pstack_bench::diff::shipped_rules`] that exists in
//! the fresh directory, prints the perfgate table, and exits nonzero on any
//! tolerance violation or missing required artifact. The CI `perfgate` job
//! regenerates a fast subset into a scratch dir and runs this binary with
//! that subset `--require`d. It writes no artifact of its own.

use pstack_bench::diff;
use std::path::PathBuf;

fn main() {
    let mut committed = PathBuf::from("results");
    let mut fresh = PathBuf::from(
        std::env::var("POWERSTACK_RESULTS_DIR").unwrap_or_else(|_| "target/perfgate".to_string()),
    );
    let mut require: Vec<String> = Vec::new();
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require" => {
                let name = args.next().unwrap_or_else(|| {
                    eprintln!("error: --require needs an artifact name");
                    std::process::exit(2);
                });
                require.push(name);
            }
            _ => {
                match positional {
                    0 => committed = PathBuf::from(&arg),
                    1 => fresh = PathBuf::from(&arg),
                    _ => {
                        eprintln!("error: unexpected argument {arg:?}");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
        }
    }

    let report = match diff::diff_dirs(&committed, &fresh, &require) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: bench_diff: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", diff::render(&report));
    if report.failures > 0 {
        eprintln!(
            "error: bench_diff: {} gated metric(s) regressed",
            report.failures
        );
        std::process::exit(1);
    }
}
