//! Extension E11 — fleet chaos: the recovery-SLO grid, recorded and gated.
//!
//! Runs the shipped chaos grid ({none, node MTBF, mixed} ×
//! {NodeOnly, EndToEnd}) over the E10 small fleet, plus the
//! checkpointed-supervisor equivalence check: a kill-riddled
//! [`FleetSupervisor`](pstack_faults::FleetSupervisor) run must land on the
//! byte-identical fleet fingerprint of an unkilled run. The check fails if
//! any recovery SLO regresses: conservation
//! (`submitted == completed + failed + rejected`), ≥95% completion of
//! non-failed jobs, no sustained power overshoot, byte-identical replay at
//! 1/2/4/8 drain workers, every MTBF-failed node back up at drain end, and
//! the supervised run identical. `perfgate` diffs the JSON against the
//! committed baseline (deterministic counters exactly, wall-clock rates as
//! ratios).
//!
//! `POWERSTACK_CHAOSFLEET_SMOKE=1` shrinks every cell for plumbing checks.
//! `POWERSTACK_FLEETFAULTS_INJECT_REGRESSION=1` synthetically breaks one
//! cell's conservation verdict — CI uses it to prove the gate actually
//! trips (a gate nobody has seen fail is a gate nobody can trust).

use powerstack_core::experiments::fleetfaults::{
    self, ChaosResult, ChaosScenario, SupervisedCheck,
};
use powerstack_core::framework::TuningLevel;
use pstack_faults::FleetFaultPlan;
use pstack_trace::SpanGuard;
use serde::Serialize;
use std::time::Instant;

/// One grid cell's run.
#[derive(Debug, Serialize)]
pub struct ChaosArm {
    /// Wall-clock seconds for the cell's full SLO battery.
    pub wall_s: f64,
    /// Simulated hours advanced per wall second (perfgate MinRatio).
    pub sim_hours_per_wall_s: f64,
    /// The cell verdicts (deterministic; perfgate compares counters
    /// exactly).
    pub result: ChaosResult,
}

/// The grid, the supervised check and the verdict.
#[derive(Debug, Serialize)]
pub struct ChaosGate {
    pub smoke: bool,
    pub injected_regression: bool,
    pub arms: Vec<ChaosArm>,
    /// Kill/restart equivalence on the node-MTBF NodeOnly cell.
    pub supervised: SupervisedCheck,
    /// Every cell's SLOs hold and the supervised run is identical.
    pub all_slo_ok: bool,
    pub violations: Vec<String>,
}

/// Fewer jobs and a shorter horizon, with faults rescaled so every class
/// still fires inside the window.
fn shrink_for_smoke(mut sc: ChaosScenario) -> ChaosScenario {
    sc.fleet.n_jobs = 10;
    sc.fleet.horizon_hours = 6;
    if sc.plan.nodes.mtbf_hours > 0.0 {
        sc.plan.nodes.mtbf_hours = 2.0;
        sc.plan.nodes.mttr_minutes = 10.0;
    }
    for o in &mut sc.plan.outages {
        o.at_s = 3600.0;
        o.duration_s = 900.0;
    }
    sc
}

/// Run the grid (one `chaos_cell` span per cell) and the supervised check
/// (a `supervised` span) under `root`.
pub fn run(root: &SpanGuard<'_>) -> ChaosGate {
    let smoke = std::env::var("POWERSTACK_CHAOSFLEET_SMOKE").is_ok();
    let injected_regression = std::env::var("POWERSTACK_FLEETFAULTS_INJECT_REGRESSION").is_ok();
    let scenario = |tuning, plan| {
        let sc = ChaosScenario::small(tuning, plan);
        if smoke {
            shrink_for_smoke(sc)
        } else {
            sc
        }
    };
    let plans = [
        FleetFaultPlan::none(),
        FleetFaultPlan::node_mtbf_only(),
        FleetFaultPlan::mixed(),
    ];
    let tunings = [TuningLevel::NodeOnly, TuningLevel::EndToEnd];
    let mut arms: Vec<ChaosArm> = plans
        .iter()
        .flat_map(|plan| tunings.iter().map(move |&t| (plan.clone(), t)))
        .map(|(plan, tuning)| {
            let mut span = root.child("chaos_cell");
            span.attr("plan", plan.name.clone());
            span.attr("tuning", format!("{tuning:?}"));
            let sc = scenario(tuning, plan);
            let start = Instant::now();
            let result = sc.run();
            let wall_s = start.elapsed().as_secs_f64().max(1e-9);
            ChaosArm {
                wall_s,
                sim_hours_per_wall_s: sc.fleet.horizon_hours as f64 / wall_s,
                result,
            }
        })
        .collect();
    // Rolling kills with restart-from-checkpoint must not change a byte of
    // the node-MTBF cell's outcome.
    let supervised = {
        let _span = root.child("supervised");
        let cell = scenario(TuningLevel::NodeOnly, FleetFaultPlan::node_mtbf_only());
        fleetfaults::supervised_recovery_check(&cell, 0.3)
    };
    if injected_regression {
        // Break one verdict on purpose so CI can watch the gate trip.
        arms[0].result.conservation_ok = false;
    }
    let mut violations: Vec<String> = arms
        .iter()
        .flat_map(|a| {
            a.result
                .violations()
                .into_iter()
                .map(move |v| format!("[{} {:?}] {v}", a.result.plan, a.result.tuning))
        })
        .collect();
    if !supervised.identical {
        violations.push(format!(
            "[supervised] killed run {} diverged from clean run {}",
            supervised.killed_fingerprint, supervised.clean_fingerprint
        ));
    }
    ChaosGate {
        smoke,
        injected_regression,
        all_slo_ok: violations.is_empty(),
        arms,
        supervised,
        violations,
    }
}

/// The E11 table, the supervised line, each cell's wall time and every
/// violation.
pub fn render(gate: &ChaosGate) -> String {
    let results: Vec<ChaosResult> = gate.arms.iter().map(|a| a.result.clone()).collect();
    let mut rendered = fleetfaults::render(&results);
    rendered.push_str(&format!(
        "\nsupervised: clean {} vs killed {} ({} restarts) -> {}\n",
        gate.supervised.clean_fingerprint,
        gate.supervised.killed_fingerprint,
        gate.supervised.restarts,
        if gate.supervised.identical {
            "identical"
        } else {
            "DIVERGED"
        },
    ));
    rendered.push_str("\nplan           | tuning    | wall_s  | sim_h/wall_s\n");
    for a in &gate.arms {
        rendered.push_str(&format!(
            "{:<14} | {:<9} | {:>7.1} | {:>12.1}\n",
            a.result.plan,
            format!("{:?}", a.result.tuning),
            a.wall_s,
            a.sim_hours_per_wall_s,
        ));
    }
    for v in &gate.violations {
        rendered.push_str(&format!("VIOLATION {v}\n"));
    }
    rendered
}

/// Every recovery SLO holds.
pub fn check(gate: &ChaosGate) -> Result<(), String> {
    crate::ensure(gate.all_slo_ok, || {
        format!(
            "{} recovery SLO violation(s):\n  {}",
            gate.violations.len(),
            gate.violations.join("\n  ")
        )
    })
}
