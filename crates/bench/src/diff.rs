//! Perf-regression diff: fresh bench artifacts vs the committed `results/`.
//!
//! The `bench_diff` binary (the CI `perfgate` job) regenerates a set of
//! `bench_*` / `ext_*` artifacts into a scratch directory and compares them
//! against the versions committed under `results/`, metric by metric, using
//! the per-metric tolerances declared in [`shipped_rules`]:
//!
//! * [`Tolerance::Exact`] — deterministic simulation outputs (energies,
//!   makespans, objective values, completion counts). The simulator is
//!   seeded end to end, so these must reproduce *exactly*; any drift is a
//!   correctness regression, not noise.
//! * [`Tolerance::MinRatio`] — wall-clock-derived throughputs and speedups,
//!   which vary with host load. The fresh value must stay above a fraction
//!   of the committed one; falling below is a performance regression.
//! * [`Tolerance::RelTol`] — derived floats where a bounded relative error
//!   is acceptable.
//!
//! Metrics not named by a rule are deliberately ungated (timestamps,
//! wall-second columns, trace sizes). A rule whose path no longer resolves
//! in either file is itself a failure: gated metrics cannot silently
//! disappear.

use serde::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// How a fresh metric is allowed to differ from the committed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Values must be identical (floats compared by bits via the JSON
    /// round-trip, which is exact for shortest-repr output).
    Exact,
    /// `|fresh - committed| <= tol * max(|committed|, 1e-12)`.
    RelTol(f64),
    /// `fresh / committed >= ratio` — for higher-is-better metrics derived
    /// from wall time; catches slowdowns while tolerating host noise.
    MinRatio(f64),
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tolerance::Exact => write!(f, "exact"),
            Tolerance::RelTol(t) => write!(f, "rel<={t}"),
            Tolerance::MinRatio(r) => write!(f, "ratio>={r}"),
        }
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl Tolerance {
    /// Check `fresh` against `committed`; `Err` carries the human-readable
    /// reason on violation.
    pub fn check(&self, committed: &Value, fresh: &Value) -> Result<(), String> {
        match self {
            Tolerance::Exact => {
                if committed == fresh {
                    Ok(())
                } else {
                    Err("values differ (exact match required)".to_string())
                }
            }
            Tolerance::RelTol(tol) => {
                let (c, f) = numeric_pair(committed, fresh)?;
                let scale = c.abs().max(1e-12);
                let rel = (f - c).abs() / scale;
                if rel <= *tol {
                    Ok(())
                } else {
                    Err(format!("relative error {rel:.3e} exceeds {tol:.1e}"))
                }
            }
            Tolerance::MinRatio(ratio) => {
                let (c, f) = numeric_pair(committed, fresh)?;
                if c <= 0.0 {
                    // Nothing to regress against; only reject a sign flip.
                    return if f >= c {
                        Ok(())
                    } else {
                        Err(format!("fresh {f} below committed {c}"))
                    };
                }
                let r = f / c;
                if r >= *ratio {
                    Ok(())
                } else {
                    Err(format!("ratio {r:.3} below floor {ratio}"))
                }
            }
        }
    }
}

fn numeric_pair(committed: &Value, fresh: &Value) -> Result<(f64, f64), String> {
    match (as_f64(committed), as_f64(fresh)) {
        (Some(c), Some(f)) => Ok((c, f)),
        _ => Err(format!(
            "non-numeric values (committed: {}, fresh: {})",
            committed.kind(),
            fresh.kind()
        )),
    }
}

/// One gated metric: which artifact, which path inside its JSON, and how
/// much drift is tolerated.
#[derive(Debug, Clone, Copy)]
pub struct MetricRule {
    /// Artifact stem (`bench_history`, `ext_resume`, ... — no extension).
    pub artifact: &'static str,
    /// Dotted path into the JSON value. Segments are map keys, decimal
    /// sequence indices, or `*` (every element of a sequence).
    pub path: &'static str,
    /// Allowed drift.
    pub tolerance: Tolerance,
}

/// Resolve `path` inside `v`, expanding `*` over sequences. Returns the
/// concrete path of every match alongside the value.
pub fn resolve<'a>(v: &'a Value, path: &str) -> Vec<(String, &'a Value)> {
    let mut frontier: Vec<(String, &Value)> = vec![(String::new(), v)];
    for seg in path.split('.') {
        let mut next = Vec::new();
        for (prefix, val) in frontier {
            let join = |s: &str| {
                if prefix.is_empty() {
                    s.to_string()
                } else {
                    format!("{prefix}.{s}")
                }
            };
            match (seg, val) {
                ("*", Value::Seq(items)) => {
                    for (i, item) in items.iter().enumerate() {
                        next.push((join(&i.to_string()), item));
                    }
                }
                (_, Value::Seq(items)) => {
                    if let Ok(i) = seg.parse::<usize>() {
                        if let Some(item) = items.get(i) {
                            next.push((join(seg), item));
                        }
                    }
                }
                (_, Value::Map(_)) => {
                    if let Some(child) = val.get(seg) {
                        next.push((join(seg), child));
                    }
                }
                _ => {}
            }
        }
        frontier = next;
    }
    frontier
}

/// The shipped per-metric gate: every deterministic simulation output must
/// reproduce exactly; wall-clock-derived throughputs must stay above a
/// fraction of the committed value.
pub fn shipped_rules() -> Vec<MetricRule> {
    use Tolerance::{Exact, MinRatio};
    let rule = |artifact, path, tolerance| MetricRule {
        artifact,
        path,
        tolerance,
    };
    vec![
        // Batched-evaluation throughput gate (CI `perf` stage artifact).
        rule("bench_evalthroughput", "fig4_kernel.bit_identical", Exact),
        rule("bench_evalthroughput", "uc3_hypre.bit_identical", Exact),
        rule("bench_evalthroughput", "fig4_kernel.configs", Exact),
        rule("bench_evalthroughput", "uc3_hypre.configs", Exact),
        rule(
            "bench_evalthroughput",
            "fig4_kernel.speedup_coarse",
            MinRatio(0.2),
        ),
        rule(
            "bench_evalthroughput",
            "uc3_hypre.speedup_exact",
            MinRatio(0.2),
        ),
        // Warm-start history gate.
        rule("bench_history", "rows.*.warmed_fewer", Exact),
        rule("bench_history", "rows.*.best_objective", Exact),
        rule("bench_history", "rows.*.priors", Exact),
        // Parallel-tuner gate: simulated results exact, speedup bounded.
        rule("bench_parallel_tuner", "plopper.results_identical", Exact),
        rule(
            "bench_parallel_tuner",
            "compute_only.results_identical",
            Exact,
        ),
        rule("bench_parallel_tuner", "best_objective", Exact),
        rule("bench_parallel_tuner", "evals", Exact),
        rule("bench_parallel_tuner", "plopper.speedup", MinRatio(0.25)),
        // Fleet-scale gate: simulated outcomes exact, wall throughput floored.
        rule("bench_fleet", "arms.*.result.completed", Exact),
        rule("bench_fleet", "arms.*.result.jobs_per_hour", Exact),
        rule("bench_fleet", "arms.*.result.work_per_kj", Exact),
        rule("bench_fleet", "arms.*.result.energy_j", Exact),
        rule("bench_fleet", "arms.*.jobs_h_sim_per_wall_s", MinRatio(0.2)),
        // Chaos-recovery gate: the injected-fault grid is seeded and fully
        // deterministic, so every verdict and counter must reproduce
        // byte-for-byte; only the wall-clock rate is a ratio.
        rule("bench_fleetfaults", "arms.*.result.completed", Exact),
        rule("bench_fleetfaults", "arms.*.result.failed", Exact),
        rule("bench_fleetfaults", "arms.*.result.rejected", Exact),
        rule("bench_fleetfaults", "arms.*.result.conservation_ok", Exact),
        rule("bench_fleetfaults", "arms.*.result.replay_identical", Exact),
        rule(
            "bench_fleetfaults",
            "arms.*.result.down_nodes_at_end",
            Exact,
        ),
        rule("bench_fleetfaults", "arms.*.result.energy_j", Exact),
        rule(
            "bench_fleetfaults",
            "arms.*.sim_hours_per_wall_s",
            MinRatio(0.2),
        ),
        // Extension artifacts: pure simulation, everything deterministic.
        rule("ext_emergency", "rows.*.makespan_s", Exact),
        rule("ext_emergency", "rows.*.violation_w", Exact),
        rule("ext_emergency", "rows.*.energy_j", Exact),
        rule("ext_faults", "rows.*.recovery", Exact),
        rule("ext_faults", "rows.*.job_completed", Exact),
        rule("ext_faults", "rows.*.quarantined", Exact),
        rule("ext_new_runtimes", "*.energy_kj", Exact),
        rule("ext_new_runtimes", "*.saving_pct", Exact),
        rule("ext_thermal", "rows.*.peak_temp_c", Exact),
        rule("ext_thermal", "rows.*.makespan_s", Exact),
        rule("ext_resume", "rows.*.identical", Exact),
        rule("ext_resume", "max_evals", Exact),
        rule("ext_fleetfaults", "rows.*.completed", Exact),
        rule("ext_fleetfaults", "rows.*.failed", Exact),
        rule("ext_fleetfaults", "rows.*.replay_identical", Exact),
        rule("ext_fleetfaults", "supervised.identical", Exact),
        rule("ext_fleetfaults", "all_slo_ok", Exact),
    ]
}

/// Outcome of one gated metric (one concrete path after `*` expansion).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckOutcome {
    /// Artifact stem.
    pub artifact: String,
    /// Concrete metric path.
    pub path: String,
    /// Tolerance applied (display form).
    pub tolerance: String,
    /// Committed value (JSON text).
    pub committed: String,
    /// Fresh value (JSON text).
    pub fresh: String,
    /// Whether the check passed.
    pub pass: bool,
    /// Failure reason (empty when passing).
    pub detail: String,
}

/// Full diff over every artifact [`shipped_rules`] covers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiffReport {
    /// Directory holding the committed baselines.
    pub committed_dir: String,
    /// Directory holding the freshly generated artifacts.
    pub fresh_dir: String,
    /// Artifacts compared (fresh file present).
    pub compared: Vec<String>,
    /// Artifacts with rules but no fresh file (not required — informational).
    pub skipped: Vec<String>,
    /// Every metric check performed.
    pub checks: Vec<CheckOutcome>,
    /// Number of failing checks (plus missing-artifact failures).
    pub failures: usize,
}

fn read_artifact(dir: &Path, name: &str) -> Result<Option<Value>, String> {
    let path = dir.join(format!("{name}.json"));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Ok(Some(v))
}

fn json_text(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("<unserializable: {e}>"))
}

/// Compare fresh artifacts in `fresh_dir` against committed baselines in
/// `committed_dir` under [`shipped_rules`]. Artifacts listed in `require`
/// must be present fresh; others are skipped (not failed) when absent.
pub fn diff_dirs(
    committed_dir: &Path,
    fresh_dir: &Path,
    require: &[String],
) -> Result<DiffReport, String> {
    let rules = shipped_rules();
    let mut artifacts: Vec<&'static str> = rules.iter().map(|r| r.artifact).collect();
    artifacts.dedup();

    let mut report = DiffReport {
        committed_dir: committed_dir.display().to_string(),
        fresh_dir: fresh_dir.display().to_string(),
        compared: Vec::new(),
        skipped: Vec::new(),
        checks: Vec::new(),
        failures: 0,
    };

    for name in artifacts {
        let fresh = read_artifact(fresh_dir, name)?;
        let required = require.iter().any(|r| r == name);
        let fresh = match fresh {
            Some(v) => v,
            None => {
                if required {
                    report.failures += 1;
                    report.checks.push(CheckOutcome {
                        artifact: name.to_string(),
                        path: "<artifact>".to_string(),
                        tolerance: "present".to_string(),
                        committed: "yes".to_string(),
                        fresh: "missing".to_string(),
                        pass: false,
                        detail: "required artifact was not generated".to_string(),
                    });
                } else {
                    report.skipped.push(name.to_string());
                }
                continue;
            }
        };
        let committed = match read_artifact(committed_dir, name)? {
            Some(v) => v,
            None => {
                report.failures += 1;
                report.checks.push(CheckOutcome {
                    artifact: name.to_string(),
                    path: "<artifact>".to_string(),
                    tolerance: "present".to_string(),
                    committed: "missing".to_string(),
                    fresh: "yes".to_string(),
                    pass: false,
                    detail: "fresh artifact has no committed baseline".to_string(),
                });
                continue;
            }
        };
        report.compared.push(name.to_string());

        for rule in rules.iter().filter(|r| r.artifact == name) {
            let c_matches = resolve(&committed, rule.path);
            let f_matches = resolve(&fresh, rule.path);
            if c_matches.is_empty() || c_matches.len() != f_matches.len() {
                report.failures += 1;
                report.checks.push(CheckOutcome {
                    artifact: name.to_string(),
                    path: rule.path.to_string(),
                    tolerance: rule.tolerance.to_string(),
                    committed: format!("{} match(es)", c_matches.len()),
                    fresh: format!("{} match(es)", f_matches.len()),
                    pass: false,
                    detail: "gated metric path missing or cardinality changed".to_string(),
                });
                continue;
            }
            for ((cpath, cval), (_, fval)) in c_matches.iter().zip(f_matches.iter()) {
                let verdict = rule.tolerance.check(cval, fval);
                let pass = verdict.is_ok();
                if !pass {
                    report.failures += 1;
                }
                report.checks.push(CheckOutcome {
                    artifact: name.to_string(),
                    path: cpath.clone(),
                    tolerance: rule.tolerance.to_string(),
                    committed: json_text(cval),
                    fresh: json_text(fval),
                    pass,
                    detail: verdict.err().unwrap_or_default(),
                });
            }
        }
    }

    if report.compared.is_empty() && report.failures == 0 {
        return Err(format!(
            "no fresh artifacts found under {} — nothing to gate",
            fresh_dir.display()
        ));
    }
    Ok(report)
}

/// Render the report as the perfgate table.
pub fn render(report: &DiffReport) -> String {
    let mut out = String::from("PERFGATE: fresh artifacts vs committed results\n");
    out.push_str(&format!(
        "committed: {}\nfresh:     {}\n",
        report.committed_dir, report.fresh_dir
    ));
    out.push_str("artifact             | metric                           | tolerance  | status\n");
    for c in &report.checks {
        let status = if c.pass {
            "ok".to_string()
        } else {
            format!(
                "FAIL ({}; committed {}, fresh {})",
                c.detail, c.committed, c.fresh
            )
        };
        out.push_str(&format!(
            "{:<20} | {:<32} | {:<10} | {status}\n",
            c.artifact, c.path, c.tolerance
        ));
    }
    for s in &report.skipped {
        out.push_str(&format!("{s:<20} | <not regenerated — skipped>\n"));
    }
    out.push_str(&format!(
        "{} checks, {} failures, {} artifact(s) compared, {} skipped\n",
        report.checks.len(),
        report.failures,
        report.compared.len(),
        report.skipped.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_results() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pstack-bench-diff-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn tolerance_semantics() {
        use Tolerance::*;
        let f = |x: f64| Value::Float(x);
        assert!(Exact.check(&f(1.5), &f(1.5)).is_ok());
        assert!(Exact.check(&f(1.5), &f(1.5000001)).is_err());
        assert!(Exact
            .check(&Value::Bool(true), &Value::Bool(false))
            .is_err());
        assert!(RelTol(0.01).check(&f(100.0), &f(100.9)).is_ok());
        assert!(RelTol(0.01).check(&f(100.0), &f(102.0)).is_err());
        assert!(MinRatio(0.5).check(&f(10.0), &f(5.0)).is_ok());
        assert!(MinRatio(0.5).check(&f(10.0), &f(4.9)).is_err());
        // Faster than committed is never a failure.
        assert!(MinRatio(0.5).check(&f(10.0), &f(50.0)).is_ok());
        // Int/float cross-comparison goes through f64.
        assert!(MinRatio(0.5).check(&Value::Int(10), &f(9.0)).is_ok());
    }

    #[test]
    fn resolve_expands_wildcards_and_indices() {
        let v: Value =
            serde_json::from_str(r#"{"rows":[{"x":1,"y":2},{"x":3,"y":4}],"top":{"z":9}}"#)
                .unwrap();
        let xs = resolve(&v, "rows.*.x");
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].0, "rows.0.x");
        assert_eq!(xs[1].1, &Value::Int(3));
        assert_eq!(resolve(&v, "rows.1.y")[0].1, &Value::Int(4));
        assert_eq!(resolve(&v, "top.z").len(), 1);
        assert!(resolve(&v, "top.missing").is_empty());
        assert!(resolve(&v, "rows.7.x").is_empty());
    }

    /// The committed results must pass their own gate: every shipped rule
    /// resolves, and self-comparison is a clean bill.
    #[test]
    fn committed_results_pass_their_own_gate() {
        let results = repo_results();
        let report =
            diff_dirs(&results, &results, &[]).expect("committed results dir must diff cleanly");
        assert!(
            !report.compared.is_empty(),
            "no committed artifacts matched the rule set"
        );
        assert_eq!(
            report.failures,
            0,
            "self-diff must pass: {}",
            render(&report)
        );
        // Every compared artifact's rules resolved to at least one check.
        for name in &report.compared {
            assert!(
                report.checks.iter().any(|c| &c.artifact == name),
                "{name}: rules produced no checks"
            );
        }
    }

    /// Injecting a regression into a fresh copy must fail the gate — both a
    /// deterministic-output drift and a throughput collapse.
    #[test]
    fn injected_regression_fails_the_gate() {
        let results = repo_results();
        let fresh = scratch("inject");
        // Copy one artifact and corrupt a gated deterministic metric.
        let text = std::fs::read_to_string(results.join("ext_resume.json")).unwrap();
        let mut v: Value = serde_json::from_str(&text).unwrap();
        if let Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "rows" {
                    if let Value::Seq(rows) = val {
                        if let Value::Map(row) = &mut rows[0] {
                            for (rk, rv) in row.iter_mut() {
                                if rk == "identical" {
                                    *rv = Value::Int(0);
                                }
                            }
                        }
                    }
                }
            }
        }
        std::fs::write(
            fresh.join("ext_resume.json"),
            serde_json::to_string_pretty(&v).unwrap(),
        )
        .unwrap();
        let report = diff_dirs(&results, &fresh, &[]).expect("diff runs");
        assert!(report.failures > 0, "corrupted metric must fail");
        assert!(report
            .checks
            .iter()
            .any(|c| !c.pass && c.artifact == "ext_resume" && c.path.ends_with("identical")));

        // Throughput collapse: scale a MinRatio-gated metric down 10x.
        let fresh2 = scratch("inject-ratio");
        let text = std::fs::read_to_string(results.join("bench_parallel_tuner.json")).unwrap();
        let mut v: Value = serde_json::from_str(&text).unwrap();
        if let Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "plopper" {
                    if let Value::Map(p) = val {
                        for (pk, pv) in p.iter_mut() {
                            if pk == "speedup" {
                                if let Value::Float(f) = pv {
                                    *f /= 10.0;
                                }
                            }
                        }
                    }
                }
            }
        }
        std::fs::write(
            fresh2.join("bench_parallel_tuner.json"),
            serde_json::to_string_pretty(&v).unwrap(),
        )
        .unwrap();
        let report = diff_dirs(&results, &fresh2, &[]).expect("diff runs");
        assert!(
            report
                .checks
                .iter()
                .any(|c| !c.pass && c.path == "plopper.speedup"),
            "10x slowdown must trip the MinRatio gate: {}",
            render(&report)
        );

        let _ = std::fs::remove_dir_all(&fresh);
        let _ = std::fs::remove_dir_all(&fresh2);
    }

    /// A required artifact missing from the fresh directory is a failure;
    /// an unrequired one is merely skipped.
    #[test]
    fn required_artifacts_must_be_generated() {
        let results = repo_results();
        let fresh = scratch("require");
        std::fs::copy(
            results.join("ext_thermal.json"),
            fresh.join("ext_thermal.json"),
        )
        .unwrap();
        let relaxed = diff_dirs(&results, &fresh, &[]).expect("diff runs");
        assert_eq!(relaxed.failures, 0);
        assert!(relaxed.skipped.iter().any(|s| s == "bench_history"));

        let strict =
            diff_dirs(&results, &fresh, &["bench_history".to_string()]).expect("diff runs");
        assert!(strict.failures > 0, "required artifact missing must fail");
        let _ = std::fs::remove_dir_all(&fresh);
    }
}
