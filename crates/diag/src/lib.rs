//! # pstack-diag — the shared diagnostics vocabulary
//!
//! Every layer of the stack can describe what is wrong with a configuration
//! before any simulation tick runs. This crate is the *leaf* that makes that
//! possible without dependency cycles: it defines the [`Diagnostic`] record
//! (stable rule ID, severity, source location), the [`Report`] container with
//! human-text and JSON rendering, and the [`InvariantCheck`] provider type
//! each layer crate uses to contribute rules where the knowledge lives
//! (`pstack_hwmodel::invariants()`, `pstack_rm::invariants()`, ...).
//!
//! The full cross-layer rule engine lives in `pstack-analyze`; the
//! `Framework`-construction gate in `powerstack-core` runs the layer
//! invariants directly. Both speak the types defined here.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
///
/// Ordering: `Info < Warn < Error`, so `max()` over a report yields the
/// worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Observation; never fails a gate.
    Info,
    /// Suspicious but allowed; fails gates run with deny-warnings.
    Warn,
    /// Broken; fails every gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a stable rule ID, a severity, a source location inside the
/// framework graph (layer plus knob/param path), and a message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `"PSA004"` or `"INV-HW-002"`.
    pub rule: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// PowerStack layer the finding belongs to (`"system"`, `"job-runtime"`,
    /// `"application"`, `"node"`, or `"cross-layer"`).
    pub layer: String,
    /// Path of the offending object, e.g. `"cotune.kernel/node_cap_w"` or
    /// `"hwmodel::PStateTable::server_default"`.
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with the given severity.
    pub fn new(
        rule: impl Into<String>,
        severity: Severity,
        layer: impl Into<String>,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule: rule.into(),
            severity,
            layer: layer.into(),
            path: path.into(),
            message: message.into(),
        }
    }

    /// Error-severity shorthand.
    pub fn error(
        rule: impl Into<String>,
        layer: impl Into<String>,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic::new(rule, Severity::Error, layer, path, message)
    }

    /// Warn-severity shorthand.
    pub fn warn(
        rule: impl Into<String>,
        layer: impl Into<String>,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic::new(rule, Severity::Warn, layer, path, message)
    }

    /// Info-severity shorthand.
    pub fn info(
        rule: impl Into<String>,
        layer: impl Into<String>,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic::new(rule, Severity::Info, layer, path, message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} ({}): {}",
            self.severity, self.rule, self.path, self.layer, self.message
        )
    }
}

/// Severity tallies of a report (the JSON `summary` object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Error-severity findings.
    pub errors: usize,
    /// Warn-severity findings.
    pub warnings: usize,
    /// Info-severity findings.
    pub infos: usize,
}

/// An ordered collection of diagnostics.
///
/// Order is deterministic: diagnostics keep insertion order (rules run in a
/// fixed sequence), so two runs over the same inputs render byte-identical
/// text and JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The findings, in rule execution order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Add one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Add many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Count of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Severity tallies.
    pub fn summary(&self) -> Summary {
        Summary {
            errors: self.count(Severity::Error),
            warnings: self.count(Severity::Warn),
            infos: self.count(Severity::Info),
        }
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The findings attributed to `rule`.
    pub fn by_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Human-readable rendering: one line per finding, worst first, plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        // Stable sort: severity descending, rule ascending; ties keep
        // insertion order.
        sorted.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.rule.cmp(&b.rule)));
        let mut out = String::new();
        for d in sorted {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let s = self.summary();
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)\n",
            s.errors, s.warnings, s.infos
        ));
        out
    }

    /// JSON rendering (pretty-printed, stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

type CheckFn = Box<dyn Fn() -> Vec<Diagnostic> + Send + Sync>;

/// A named invariant a layer crate contributes: an ID, a description of what
/// must hold, and a check producing diagnostics when it does not.
///
/// Layer crates expose `pub fn invariants() -> Vec<InvariantCheck>` over
/// their shipped defaults; the analyzer and the core startup gate run them
/// all. The parameterized check functions the providers are built from stay
/// public in each layer crate so tests can feed deliberately-broken inputs.
pub struct InvariantCheck {
    /// Stable ID, e.g. `"INV-HW-001"`.
    pub id: &'static str,
    /// Owning layer (`"system"`, `"job-runtime"`, `"application"`, `"node"`).
    pub layer: &'static str,
    /// Path of the checked object.
    pub path: String,
    /// What must hold.
    pub description: &'static str,
    check: CheckFn,
}

impl InvariantCheck {
    /// Build an invariant from its check closure.
    pub fn new(
        id: &'static str,
        layer: &'static str,
        path: impl Into<String>,
        description: &'static str,
        check: impl Fn() -> Vec<Diagnostic> + Send + Sync + 'static,
    ) -> Self {
        InvariantCheck {
            id,
            layer,
            path: path.into(),
            description,
            check: Box::new(check),
        }
    }

    /// Run the check; empty output means the invariant holds.
    pub fn run(&self) -> Vec<Diagnostic> {
        (self.check)()
    }
}

impl fmt::Debug for InvariantCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvariantCheck")
            .field("id", &self.id)
            .field("layer", &self.layer)
            .field("path", &self.path)
            .field("description", &self.description)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::info("PSA001", "node", "a", "fyi"));
        r.push(Diagnostic::error("PSA002", "system", "b", "broken"));
        r.push(Diagnostic::warn("PSA001", "node", "c", "odd"));
        r
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn summary_counts() {
        let r = sample();
        assert_eq!(
            r.summary(),
            Summary {
                errors: 1,
                warnings: 1,
                infos: 1
            }
        );
        assert!(r.has_errors());
        assert_eq!(r.by_rule("PSA001").count(), 2);
    }

    #[test]
    fn text_renders_worst_first() {
        let txt = sample().render_text();
        let err_pos = txt.find("error[PSA002]").unwrap();
        let warn_pos = txt.find("warning[PSA001]").unwrap();
        let info_pos = txt.find("info[PSA001]").unwrap();
        assert!(err_pos < warn_pos && warn_pos < info_pos, "{txt}");
        assert!(txt.contains("1 error(s), 1 warning(s), 1 info(s)"));
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(json.contains("\"rule\""));
        assert!(json.contains("PSA002"));
    }

    #[test]
    fn deterministic_rendering() {
        assert_eq!(sample().render_text(), sample().render_text());
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn invariant_runs_closure() {
        let inv = InvariantCheck::new("INV-X-001", "node", "p", "x must hold", || {
            vec![Diagnostic::error(
                "INV-X-001",
                "node",
                "p",
                "x does not hold",
            )]
        });
        assert_eq!(inv.run().len(), 1);
        assert_eq!(inv.id, "INV-X-001");
        let ok = InvariantCheck::new("INV-X-002", "node", "p", "fine", Vec::new);
        assert!(ok.run().is_empty());
    }
}
