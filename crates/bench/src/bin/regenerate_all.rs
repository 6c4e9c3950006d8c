//! Regenerate `results/` artifacts: every entry of [`pstack_bench::TABLE`],
//! or only the ones named on the command line.
//!
//! ```text
//! cargo run --release -p pstack-bench --bin regenerate_all [NAME ...]
//! ```
//!
//! Each artifact lands as `<name>.{txt,json}` plus `trace_<name>.json` under
//! `$POWERSTACK_RESULTS_DIR` (default `results/`). Exits 1 if any
//! experiment fails or any acceptance check does not hold — after writing
//! every artifact it could — and 2 on an unknown name.

use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| pstack_bench::artifact(n).is_none()) {
        let known: Vec<&str> = pstack_bench::TABLE.iter().map(|a| a.name).collect();
        eprintln!(
            "error: unknown artifact {unknown:?} (known: {})",
            known.join(", ")
        );
        return ExitCode::from(2);
    }
    let dir = pstack_bench::results_dir();
    let mut failed = Vec::new();
    for artifact in pstack_bench::TABLE
        .iter()
        .filter(|a| names.is_empty() || names.iter().any(|n| n == a.name))
    {
        if let Err(e) = pstack_bench::write(&dir, artifact) {
            eprintln!("error: {}: {e}", artifact.name);
            failed.push(artifact.name);
        }
    }
    if failed.is_empty() {
        eprintln!("artifacts written to {}/", dir.display());
        ExitCode::SUCCESS
    } else {
        eprintln!("error: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
