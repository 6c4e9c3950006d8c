//! # pstack-analyze — cross-layer static analysis for the PowerStack
//!
//! The paper's §3.2 interaction hazards (two actors writing one knob, a cap
//! outside what the silicon can honour, a tuner aimed at an unsatisfiable
//! space) are all detectable *before* a single simulation tick runs. This
//! crate is that detector: the [`Lint`] rules tabled below, run over a
//! [`FrameworkModel`] snapshot of everything the stack declares about
//! itself, producing a [`Report`] of [`Diagnostic`]s with stable rule IDs,
//! severities, and source locations. The table lists [`registry`] in order
//! (a unit test holds it to that); PSA014, PSA016 and PSA018 are retired
//! and their IDs unused.
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
//! | PSA015 | checkpoint-schema      | shipped algorithms honour the checkpoint-schema versioning contract |
//! | PSA017 | lock-hierarchy-coverage | the pstack-sync site registry's ranks and may-acquire lists form an acyclic, rank-consistent DAG |
//! | PSA019 | history-key-sanity     | shared-history shard bounds, canonical key fingerprints, no key collisions |
//! | PSA020 | event-schedule-sanity  | event cursor monotone, same-instant events in rank order, enclave shards sum to the site budget |
//! | PSA021 | fleet-fault-plan-sanity | fleet fault plans coherent, requeue budgets where job failures are on, control + mixed plans kept |
//!
//! Entry points:
//!
//! - [`analyze`] runs every rule over a model and returns the report;
//! - [`analyze_shipped`] does the same over [`FrameworkModel::shipped`];
//! - the `pstack_lint` binary renders the report as human text or JSON
//!   (`--json`) and exits nonzero when errors are present.
//!
//! The shipped model is built from compile-time declarations, so it is
//! checked where it can change — by the workspace test
//! `shipped_snapshot_has_no_errors` (`tests/invariants.rs`), by
//! `verify.sh lint` and by the `lint_report` artifact — not at every
//! process start.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod model;
pub mod rules;

pub use model::{AlgorithmSchema, FrameworkModel, HistoryKeyDecl, HistorySpec, SearchSpec};
pub use pstack_diag::{Diagnostic, InvariantCheck, Report, Severity, Summary};
pub use rules::{control_resource, registry, Lint};

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

#[cfg(test)]
mod tests {
    use super::*;

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
        let shipped: Vec<Vec<String>> = pstack_sync::sites::all()
            .iter()
            .map(|site| {
                let may_acquire = if site.may_acquire.is_empty() {
                    "—".to_string()
                } else {
                    let sites: Vec<String> =
                        site.may_acquire.iter().map(|s| format!("`{s}`")).collect();
                    sites.join(", ")
                };
                vec![
                    format!("`{}`", site.label),
                    format!("{:?}", site.kind).to_lowercase(),
                    site.rank.to_string(),
                    may_acquire,
                ]
            })
            .collect();
        assert_eq!(design, shipped, "DESIGN.md lock table vs sites::all()");
    }

    #[test]
    fn report_is_deterministic() {
        let a = analyze_shipped();
        let b = analyze_shipped();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
    }
}
