//! `pstack_lint` — run the cross-layer static analysis over the shipped
//! framework configuration and report diagnostics.
//!
//! ```text
//! usage: pstack_lint [--json] [--quiet] [--list-rules]
//!
//!   --json          emit the machine-readable JSON report instead of text
//!   --quiet         suppress output; only the exit code speaks
//!   --list-rules    print the rule table (ID, name, description) and exit
//! ```
//!
//! Exit code is 1 when any error-severity diagnostic is present, 2 on usage
//! errors, else 0.

#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut quiet = false;
    let mut list_rules = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--quiet" | "-q" => quiet = true,
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!("usage: pstack_lint [--json] [--quiet] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pstack_lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        println!("{:<8} {:<26} description", "rule", "name");
        for rule in pstack_analyze::registry() {
            println!(
                "{:<8} {:<26} {}",
                rule.id(),
                rule.name(),
                rule.description()
            );
        }
        return ExitCode::SUCCESS;
    }

    let report = pstack_analyze::analyze_shipped();
    if !quiet {
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render_text());
        }
    }

    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
