//! Lock-order / schedule-invariance audit artifact.
//!
//! The `lockorder` artifact: drives all four tuning drivers (`run`, `run_parallel`, `run_resilient`,
//! `run_parallel_resilient`) through the deterministic schedule explorer
//! ([`pstack_sync::explore`]) on the standard 16-seed × {1, 2, 4, 8}-worker
//! grid, and reports per driver:
//!
//! - whether every adversarial arm reproduced the unperturbed baseline
//!   report byte-for-byte (`divergences == 0`);
//! - the merged lock-order graph: observed sites, acquisition counts,
//!   held-while-acquiring edges, inversions, smells, and any cycle.
//!
//! The rendered artifact lands in `results/lockorder.{json,txt}`; its check
//! fails unless every driver is clean. This is the runtime
//! complement to the static checks (lint PSA017 and clippy's raw-`std::sync`
//! ban): they pin the declared hierarchy, the explorer pins what actually
//! happens under contention.

use pstack_autotune::{
    Config, Evaluation, ForestSearch, ParamSpace, RandomSearch, Robustness, Tuner,
};
use pstack_faults::{FaultPlan, FaultyEvaluator};
use pstack_sync::{explore, sites, SeedGrid};
use serde::Serialize;
use std::fmt::Write as _;

/// Evaluation budget per arm (small: the grid multiplies it by 64 × 4).
const MAX_EVALS: usize = 16;

/// One driver's exploration outcome, flattened for the artifact.
#[derive(Debug, Serialize)]
pub struct DriverAudit {
    /// Driver name (`run`, `run_parallel`, …).
    pub driver: String,
    /// Arms explored (seeds × worker counts).
    pub arms: usize,
    /// Arms whose serialized report diverged from the baseline.
    pub divergences: usize,
    /// Lock-order inversions observed across the grid.
    pub inversions: usize,
    /// Smells (held-across-wait, long critical sections).
    pub smells: usize,
    /// A cycle through the observed graph, if any.
    pub cycle: Option<String>,
    /// Total instrumented acquisitions recorded.
    pub acquisitions: u64,
    /// Whether the driver passed every check.
    pub clean: bool,
    /// The merged lock-order graph, embedded verbatim.
    pub graph: serde::Value,
}

/// The full audit across every driver.
#[derive(Debug, Serialize)]
pub struct LockOrderReport {
    /// Seeds explored per driver.
    pub seeds: usize,
    /// Worker counts crossed with every seed.
    pub workers: Vec<usize>,
    /// Sites the registry declares (the observed graphs must stay within).
    pub declared_sites: Vec<String>,
    /// Per-driver outcomes.
    pub drivers: Vec<DriverAudit>,
    /// Whether every driver was clean and every observed site is declared.
    pub clean: bool,
}

fn space() -> ParamSpace {
    use pstack_autotune::Param;
    ParamSpace::new()
        .with(Param::ints("tile", [8, 16, 32, 64]))
        .with(Param::ints("unroll", [1, 2, 4, 8]))
        .with(Param::boolean("packing"))
        .with_constraint("unroll<=tile", |s, c| {
            s.value(c, "unroll").as_int() <= s.value(c, "tile").as_int()
        })
}

fn objective(space: &ParamSpace, cfg: &Config) -> Evaluation {
    let tile = space.value(cfg, "tile").as_int() as f64;
    let unroll = space.value(cfg, "unroll").as_int() as f64;
    let packing = space.value(cfg, "packing").as_bool();
    let time = (tile - 32.0).abs() / 8.0 + (unroll - 4.0).abs() + if packing { 0.0 } else { 1.5 };
    (1.0 + time, std::collections::HashMap::new())
}

fn audit(name: &str, grid: &SeedGrid, mut run: impl FnMut(usize) -> String) -> DriverAudit {
    let out = explore(grid, &mut run);
    let undeclared = out.graph.nodes.keys().any(|site| !sites::is_declared(site));
    let clean = out.clean() && !undeclared;
    DriverAudit {
        driver: name.to_string(),
        arms: out.arms,
        divergences: out.divergences.len(),
        inversions: out.graph.inversions.len(),
        smells: out.graph.smells.len(),
        cycle: out.graph.cycle().map(|c| c.join(" -> ")),
        acquisitions: out.graph.acquisitions(),
        clean,
        graph: serde_json::from_str(&out.graph.to_json())
            .unwrap_or_else(|_| serde::Value::Str(out.graph.to_json())),
    }
}

/// Run the audit over `grid` (the binary passes [`SeedGrid::standard`]).
pub fn run(grid: &SeedGrid) -> LockOrderReport {
    let mut drivers = Vec::new();

    drivers.push(audit("run", grid, |_workers| {
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(11)
            .run(&mut RandomSearch::new(), objective)
            .expect("serial run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    drivers.push(audit("run_parallel", grid, |workers| {
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(11)
            .run_parallel(&mut RandomSearch::new(), workers, objective)
            .expect("parallel run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    let plan = FaultPlan::evals_only();
    drivers.push(audit("run_resilient", grid, |_workers| {
        let evaluator = FaultyEvaluator::new(objective, &plan, 0xC0FFEE);
        let mut primary = ForestSearch::new();
        let mut fallback = RandomSearch::new();
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(7)
            .run_resilient(
                &mut primary,
                Some(&mut fallback),
                &Robustness::default(),
                |s, c, a| evaluator.evaluate(s, c, a),
            )
            .expect("resilient run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    drivers.push(audit("run_parallel_resilient", grid, |workers| {
        let evaluator = FaultyEvaluator::new(objective, &plan, 0xC0FFEE);
        let mut primary = ForestSearch::new();
        let mut fallback = RandomSearch::new();
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(7)
            .run_parallel_resilient(
                &mut primary,
                Some(&mut fallback),
                &Robustness::default(),
                workers,
                |s, c, a| evaluator.evaluate(s, c, a),
            )
            .expect("parallel resilient run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    let clean = drivers.iter().all(|d| d.clean);
    LockOrderReport {
        seeds: grid.seeds.len(),
        workers: grid.workers.clone(),
        declared_sites: sites::all().iter().map(|s| s.label.to_string()).collect(),
        drivers,
        clean,
    }
}

/// Render the audit as the text table the artifact and stdout carry.
pub fn render(r: &LockOrderReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Lock-order / schedule-invariance audit ({} seeds x {:?} workers)",
        r.seeds, r.workers
    );
    let _ = writeln!(
        out,
        "{:<24} {:>5} {:>10} {:>10} {:>7} {:>12}  cycle",
        "driver", "arms", "diverged", "inverted", "smells", "acquisitions"
    );
    for d in &r.drivers {
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>10} {:>10} {:>7} {:>12}  {}",
            d.driver,
            d.arms,
            d.divergences,
            d.inversions,
            d.smells,
            d.acquisitions,
            d.cycle.as_deref().unwrap_or("none"),
        );
    }
    let _ = writeln!(
        out,
        "declared sites: {}; verdict: {}",
        r.declared_sites.join(", "),
        if r.clean { "CLEAN" } else { "DIRTY" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_audit_is_clean_and_renders() {
        // The full standard grid runs in the artifact / CI stage; unit tests
        // take the compact grid to stay fast in debug builds.
        let r = run(&SeedGrid::compact(2, 4));
        assert!(r.clean, "{}", render(&r));
        assert_eq!(r.drivers.len(), 4);
        assert!(r.drivers.iter().all(|d| d.arms == 4));
        let text = render(&r);
        assert!(text.contains("run_parallel_resilient"));
        assert!(text.contains("CLEAN"));
    }

    #[test]
    fn committed_artifact_declares_every_registered_site() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/lockorder.json");
        let text = std::fs::read_to_string(&path).expect("committed lockorder artifact");
        let v: serde::Value = serde_json::from_str(&text).expect("artifact parses");
        let committed: Vec<&str> = match v.field("declared_sites") {
            serde::Value::Seq(sites) => sites
                .iter()
                .map(|s| match s {
                    serde::Value::Str(s) => s.as_str(),
                    other => panic!("site label {other:?} is not a string"),
                })
                .collect(),
            other => panic!("declared_sites is {other:?}"),
        };
        let registered: Vec<&str> = sites::all().iter().map(|s| s.label).collect();
        assert_eq!(
            committed, registered,
            "results/lockorder.json is stale: rerun regenerate_all lockorder"
        );
    }
}
