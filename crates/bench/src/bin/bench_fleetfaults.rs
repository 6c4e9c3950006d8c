//! Chaos-recovery SLO gate: the E11 grid must stay green.
//!
//! Runs the shipped chaos grid ({none, node MTBF, mixed} ×
//! {NodeOnly, EndToEnd}) and exits nonzero if any recovery SLO regresses:
//! conservation (`submitted == completed + failed + rejected`), ≥95%
//! completion of non-failed jobs, no sustained power overshoot, byte-
//! identical replay at 1/2/4/8 drain workers, and every MTBF-failed node
//! back up at drain end. Writes `results/bench_fleetfaults.{json,txt}`;
//! the CI `chaosfleet` stage runs this binary and `perfgate` diffs its
//! JSON against the committed baseline (deterministic counters exactly,
//! wall-clock rates as ratios).
//!
//! `POWERSTACK_CHAOSFLEET_SMOKE=1` shrinks every cell for plumbing checks.
//! `POWERSTACK_FLEETFAULTS_INJECT_REGRESSION=1` synthetically breaks one
//! cell's conservation verdict — CI uses it to prove the gate actually
//! trips (a gate nobody has seen fail is a gate nobody can trust).

use powerstack_core::experiments::fleetfaults::{self, ChaosResult, ChaosScenario};
use powerstack_core::framework::TuningLevel;
use pstack_faults::FleetFaultPlan;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ChaosArm {
    /// Wall-clock seconds for the cell's full SLO battery.
    wall_s: f64,
    /// Simulated hours advanced per wall second (perfgate MinRatio).
    sim_hours_per_wall_s: f64,
    /// The cell verdicts (deterministic; perfgate compares counters
    /// exactly).
    result: ChaosResult,
}

#[derive(Serialize)]
struct ChaosGate {
    smoke: bool,
    injected_regression: bool,
    arms: Vec<ChaosArm>,
    violations: Vec<String>,
}

fn main() {
    pstack_analyze::startup_gate();
    let smoke = std::env::var("POWERSTACK_CHAOSFLEET_SMOKE").is_ok();
    let injected_regression = std::env::var("POWERSTACK_FLEETFAULTS_INJECT_REGRESSION").is_ok();

    let plans = [
        FleetFaultPlan::none(),
        FleetFaultPlan::node_mtbf_only(),
        FleetFaultPlan::mixed(),
    ];
    let tunings = [TuningLevel::NodeOnly, TuningLevel::EndToEnd];

    let mut arms: Vec<ChaosArm> = pstack_bench::traced("bench_fleetfaults", |tc| {
        plans
            .iter()
            .flat_map(|plan| tunings.iter().map(move |&t| (plan.clone(), t)))
            .map(|(plan, tuning)| {
                let mut span = tc.span("chaos_gate_cell");
                span.attr("plan", plan.name.clone());
                span.attr("tuning", format!("{tuning:?}"));
                let mut sc = ChaosScenario::small(tuning, plan);
                if smoke {
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
                }
                let start = Instant::now();
                let result =
                    pstack_bench::timed(&format!("gate {} {tuning:?}", sc.plan.name), || sc.run());
                let wall_s = start.elapsed().as_secs_f64().max(1e-9);
                ChaosArm {
                    wall_s,
                    sim_hours_per_wall_s: sc.fleet.horizon_hours as f64 / wall_s,
                    result,
                }
            })
            .collect()
    });

    if injected_regression {
        // Break one verdict on purpose so CI can watch the gate trip.
        arms[0].result.conservation_ok = false;
    }

    let violations: Vec<String> = arms
        .iter()
        .flat_map(|a| {
            a.result
                .violations()
                .into_iter()
                .map(move |v| format!("[{} {:?}] {v}", a.result.plan, a.result.tuning))
        })
        .collect();

    let gate = ChaosGate {
        smoke,
        injected_regression,
        arms,
        violations,
    };

    let results: Vec<ChaosResult> = gate.arms.iter().map(|a| a.result.clone()).collect();
    let mut rendered = fleetfaults::render(&results);
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
    pstack_bench::emit("bench_fleetfaults", &rendered, &gate);

    if !gate.violations.is_empty() {
        for v in &gate.violations {
            eprintln!("SLO violation: {v}");
        }
        eprintln!(
            "error: bench_fleetfaults: {} recovery SLO violation(s); see {}",
            gate.violations.len(),
            pstack_bench::results_dir()
                .join("bench_fleetfaults.txt")
                .display()
        );
        std::process::exit(1);
    }
}
