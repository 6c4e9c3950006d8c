//! # pstack-analyze — cross-layer static analysis for the PowerStack
//!
//! The paper's §3.2 interaction hazards (two actors writing one knob, a cap
//! outside what the silicon can honour, a tuner aimed at an unsatisfiable
//! space) are all detectable *before* a single simulation tick runs. This
//! crate is that detector: the [`Lint`] rules tabled below, run over a
//! [`FrameworkModel`] snapshot of everything the stack declares about
//! itself, producing a [`Report`] of [`Diagnostic`]s with stable rule IDs,
//! severities, and source locations. The table lists [`registry`] in order
//! (a unit test holds it to that); PSA018 is retired and its ID unused.
//!
//! | rule | name | enforces |
//! |--------|------------------------|----------|
//! | PSA001 | knob-bound-containment | search knob values inside hwmodel envelopes |
//! | PSA002 | knob-ownership-conflicts | no unarbitrated multi-writer controls |
//! | PSA003 | unit-consistency       | W/J/GHz vocabulary, no stray milliwatts |
//! | PSA004 | space-well-formed      | non-empty, duplicate-free, reachable spaces |
//! | PSA005 | power-model-sanity     | monotone P(f), leakage >= 0, sane envelope |
//! | PSA006 | search-feasibility     | budgets/batches/priors fit the space |
//! | PSA007 | catalog-integrity      | Table 2 analogs resolve to workspace crates |
//! | PSA008 | experiment-integrity   | manifest unique + covers the DESIGN index |
//! | PSA009 | translator-sanity      | budget translation conserves watts, monotone |
//! | PSA010 | registry-well-formed   | Table 1 unique, resolvable, actor-coherent |
//! | PSA011 | layer-invariants       | every layer's `invariants()` provider holds |
//! | PSA012 | fault-plan-sanity      | chaos fault plans have coherent rates, unique names |
//! | PSA013 | retry-budget-feasible  | the resilient loop's retry policy terminates in budget |
//! | PSA014 | trace-exporter-coverage | every JSON-writing bench bin registers a trace exporter |
//! | PSA015 | checkpoint-schema      | shipped algorithms honour the checkpoint-schema versioning contract |
//! | PSA016 | scalar-equivalence-coverage | every batch-evaluator bench bin declares a scalar-equivalence check |
//! | PSA017 | lock-hierarchy-coverage | declared lock hierarchy covers every pstack-sync site, acyclic + rank-consistent |
//! | PSA019 | history-key-sanity     | shared-history shard bounds, canonical key fingerprints, no key collisions |
//! | PSA020 | event-schedule-sanity  | event cursor monotone, same-instant events in rank order, enclave shards sum to the site budget |
//! | PSA021 | fleet-fault-plan-sanity | fleet fault plans coherent, requeue budgets where job failures are on, control + mixed plans kept |
//!
//! Entry points:
//!
//! - [`analyze`] runs every rule over a model and returns the report;
//! - [`analyze_shipped`] does the same over [`FrameworkModel::shipped`];
//! - [`startup_gate`] is what binaries call first: it denies startup
//!   (panics with the rendered report) on any error-severity finding unless
//!   `PSTACK_LINT_SKIP=1` opts out;
//! - the `pstack_lint` binary renders the report as human text or JSON
//!   (`--json`) and exits nonzero when errors are present.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod model;
pub mod rules;

pub use model::{
    AlgorithmSchema, FrameworkModel, HistoryKeyDecl, HistorySpec, LockSiteDecl, SearchSpec,
};
pub use pstack_diag::{Diagnostic, InvariantCheck, Report, Severity, Summary};
pub use rules::{control_resource, registry, Lint};

/// Environment variable that downgrades the startup gate to report-only.
pub const SKIP_ENV: &str = "PSTACK_LINT_SKIP";

/// Run every rule in [`registry`] order over `model`.
pub fn analyze(model: &FrameworkModel) -> Report {
    let mut report = Report::new();
    for rule in registry() {
        report.extend(rule.check(model));
    }
    report
}

/// Run every rule over the shipped framework snapshot.
pub fn analyze_shipped() -> Report {
    analyze(&FrameworkModel::shipped())
}

/// Whether `PSTACK_LINT_SKIP=1` is set.
fn skip_requested() -> bool {
    std::env::var(SKIP_ENV).map(|v| v == "1").unwrap_or(false)
}

/// The deny-errors construction gate.
///
/// Binaries call this before building a framework: it analyzes the shipped
/// snapshot and panics with the rendered report if any rule produced an
/// error-severity diagnostic. Setting `PSTACK_LINT_SKIP=1` downgrades the
/// gate to report-only (the report is still returned for logging).
///
/// # Panics
/// Panics when the shipped snapshot has error-severity findings and the
/// skip variable is not set.
pub fn startup_gate() -> Report {
    let report = analyze_shipped();
    if report.has_errors() && !skip_requested() {
        panic!(
            "pstack-analyze denied startup ({} error(s)); set {SKIP_ENV}=1 to override\n{}",
            report.summary().errors,
            report.render_text()
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_snapshot_has_no_errors() {
        let report = analyze_shipped();
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "shipped config must lint clean: {errors:#?}"
        );
    }

    #[test]
    fn shipped_snapshot_flags_known_overlaps() {
        // The registry intentionally has multiple writers of the arbitrated
        // controls (that is the paper's point); the analyzer must surface
        // them as warnings, not stay silent and not error.
        let report = analyze_shipped();
        assert!(
            report.by_rule("PSA002").count() >= 3,
            "expected arbitrated-overlap warnings:\n{}",
            report.render_text()
        );
        assert!(report
            .by_rule("PSA002")
            .all(|d| d.severity == Severity::Warn));
    }

    #[test]
    fn startup_gate_passes_on_shipped_config() {
        let report = startup_gate();
        assert!(!report.has_errors());
    }

    #[test]
    fn rule_table_lists_the_registry_in_order() {
        let table = |doc: &'static str, prefix: &'static str| -> Vec<(&str, &str)> {
            doc.lines()
                .filter_map(|l| l.strip_prefix(prefix))
                .map(|row| row.split('|').map(str::trim).collect::<Vec<_>>())
                .filter(|cells| cells[0].starts_with("PSA"))
                .map(|cells| (cells[0], cells[1]))
                .collect()
        };
        let registered: Vec<(&str, &str)> = registry().iter().map(|r| (r.id(), r.name())).collect();
        let crate_doc = table(include_str!("lib.rs"), "//! |");
        assert_eq!(crate_doc, registered, "crate-doc rule table vs registry()");
        let design = table(include_str!("../../../DESIGN.md"), "|");
        assert_eq!(design, registered, "DESIGN.md rule table vs registry()");
    }

    #[test]
    fn lock_table_lists_the_shipped_hierarchy_in_order() {
        // DESIGN.md's table: site, kind, rank and may-acquire columns.
        let design: Vec<Vec<&str>> = include_str!("../../../DESIGN.md")
            .lines()
            .skip_while(|l| !l.starts_with("| site | kind | rank | may acquire |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|row| row.split('|').map(str::trim).skip(1).take(4).collect())
            .collect();
        let shipped: Vec<Vec<String>> = FrameworkModel::shipped_lock_hierarchy()
            .iter()
            .map(|d| {
                let site = pstack_sync::sites::all()
                    .iter()
                    .find(|s| s.label == d.site)
                    .expect("every hierarchy row names a declared site");
                let may_acquire = if d.may_acquire.is_empty() {
                    "—".to_string()
                } else {
                    let sites: Vec<String> =
                        d.may_acquire.iter().map(|s| format!("`{s}`")).collect();
                    sites.join(", ")
                };
                vec![
                    format!("`{}`", d.site),
                    format!("{:?}", site.kind).to_lowercase(),
                    d.rank.to_string(),
                    may_acquire,
                ]
            })
            .collect();
        assert_eq!(
            design, shipped,
            "DESIGN.md lock table vs shipped_lock_hierarchy() and sites::all()"
        );
    }

    #[test]
    fn report_is_deterministic() {
        let a = analyze_shipped();
        let b = analyze_shipped();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
    }
}
