//! Golden regression suite for the paper artifacts.
//!
//! Every figure / use-case / extension artifact is re-run in-process
//! through its `pstack_bench::TABLE` entry, with its shipped seeds, and the
//! JSON it produces is compared against the committed
//! `results/<name>.json`. Numeric leaves are compared with a relative
//! tolerance band (default 2%) so that benign float churn — e.g. a
//! different but equivalent summation order — does not fail the suite,
//! while real drift in the experiment outcomes does.
//!
//! The committed artifact is the one reference copy: to re-bless after an
//! intentional change, regenerate it
//! (`cargo run --release -p pstack-bench --bin regenerate_all <name>`) and
//! commit it alongside the change that caused it.
//!
//! Both documents parse into the vendored `serde::Value`. The workspace keeps
//! one other JSON value model, `pstack_trace::json::Json`: `pstack-trace` is
//! in perfbench's locked dependency graph, so it cannot take a serde
//! dependency.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use serde::Value;
use std::path::PathBuf;

/// Relative tolerance for numeric leaves. 2% absorbs benign float churn;
/// anything larger is a real behavioural change that should regenerate the
/// artifact.
const REL_TOL: f64 = 0.02;
/// Absolute floor so values near zero don't demand impossible precision.
const ABS_TOL: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Tolerance-aware structural diff.
// ---------------------------------------------------------------------------

fn numbers_close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= ABS_TOL.max(REL_TOL * scale)
}

/// A numeric leaf as `f64`, whatever its JSON spelling (`2` or `2.0`), as
/// `pstack_bench::diff` compares them.
fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// Collect every mismatch between `got` and `want` into `diffs`, tracking the
/// JSON path so failures point at the exact drifted leaf.
fn diff(path: &str, got: &Value, want: &Value, diffs: &mut Vec<String>) {
    if let (Some(a), Some(b)) = (number(got), number(want)) {
        if !numbers_close(a, b) {
            diffs.push(format!("{path}: {a} vs committed {b}"));
        }
        return;
    }
    match (got, want) {
        (Value::Map(a), Value::Map(b)) => {
            for (key, wv) in b {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, gv)) => diff(&format!("{path}.{key}"), gv, wv, diffs),
                    None => diffs.push(format!("{path}.{key}: missing from output")),
                }
            }
            for (key, _) in a {
                if !b.iter().any(|(k, _)| k == key) {
                    diffs.push(format!(
                        "{path}.{key}: not in the committed artifact (new field — regenerate?)"
                    ));
                }
            }
        }
        (Value::Seq(a), Value::Seq(b)) => {
            if a.len() != b.len() {
                diffs.push(format!(
                    "{path}: length {} vs committed {}",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (gv, wv)) in a.iter().zip(b.iter()).enumerate() {
                diff(&format!("{path}[{i}]"), gv, wv, diffs);
            }
        }
        (g, w) if g == w => {}
        (g, w) => diffs.push(format!("{path}: {g:?} vs committed {w:?}")),
    }
}

fn parse(s: &str) -> Value {
    serde_json::from_str(s).expect("valid JSON document")
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

fn check(name: &str) {
    let artifact = pstack_bench::artifact(name).expect("a TABLE entry");
    let (out, _trace) = artifact.produce();
    let out = out.unwrap_or_else(|e| panic!("{name} failed: {e}"));
    let produced = parse(&serde_json::to_string_pretty(&out.json).unwrap());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.json"));
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {} ({e})", path.display()));
    let mut diffs = Vec::new();
    diff("$", &produced, &parse(&committed), &mut diffs);
    assert!(
        diffs.is_empty(),
        "{name} drifted from results/{name}.json (tolerance {:.0}%):\n  {}\nIf intentional, regenerate the artifact.",
        REL_TOL * 100.0,
        diffs.join("\n  ")
    );
}

#[test]
fn golden_fig1_end_to_end() {
    check("fig1_end_to_end");
}

#[test]
fn golden_fig2_interactions() {
    check("fig2_interactions");
}

#[test]
fn golden_fig3_geopm_policy() {
    check("fig3_geopm_policy");
}

#[test]
fn golden_fig4_ytopt_loop() {
    check("fig4_ytopt_loop");
}

#[test]
fn golden_fig5_feti_regions() {
    check("fig5_feti_regions");
}

#[test]
fn golden_fig6_power_corridor() {
    check("fig6_power_corridor");
}

#[test]
fn golden_uc1_hypre_cotune() {
    check("uc1_hypre_cotune");
}

#[test]
fn golden_uc6_countdown() {
    check("uc6_countdown");
}

#[test]
fn golden_uc7_two_runtimes() {
    check("uc7_two_runtimes");
}

#[test]
fn golden_ext_emergency() {
    check("ext_emergency");
}

#[test]
fn golden_ext_thermal() {
    check("ext_thermal");
}

#[test]
fn golden_ext_faults() {
    check("ext_faults");
}

#[test]
fn golden_ext_resume() {
    check("ext_resume");
}

// -- self-tests for the comparison machinery --------------------------------

#[test]
fn tolerance_band_accepts_small_drift_and_rejects_large() {
    let golden = r#"{"a": 100.0, "b": [1.0, 2.0], "c": "x"}"#;
    let close = r#"{"a": 101.0, "b": [1.001, 2.0], "c": "x"}"#;
    let far = r#"{"a": 110.0, "b": [1.0, 2.0], "c": "x"}"#;
    let mut diffs = Vec::new();
    diff("$", &parse(close), &parse(golden), &mut diffs);
    assert!(diffs.is_empty(), "1% drift must pass: {diffs:?}");
    diff("$", &parse(far), &parse(golden), &mut diffs);
    assert!(!diffs.is_empty(), "10% drift must fail");
}

#[test]
fn structural_changes_are_always_reported() {
    let golden = r#"{"rows": [{"x": 1.0}], "name": "n"}"#;
    let missing_key = r#"{"rows": [{}], "name": "n"}"#;
    let wrong_len = r#"{"rows": [{"x": 1.0}, {"x": 1.0}], "name": "n"}"#;
    let wrong_str = r#"{"rows": [{"x": 1.0}], "name": "m"}"#;
    for bad in [missing_key, wrong_len, wrong_str] {
        let mut diffs = Vec::new();
        diff("$", &parse(bad), &parse(golden), &mut diffs);
        assert!(!diffs.is_empty(), "must flag: {bad}");
    }
}
