//! Regenerate extension E11: fleet chaos — recovery SLOs under injected
//! RM-class faults.
//!
//! Runs the shipped chaos grid ({none, node MTBF, mixed} fault plans ×
//! {NodeOnly, EndToEnd} tuning) over the E10 small fleet, plus the
//! checkpointed-supervisor equivalence check (a kill-riddled
//! [`FleetSupervisor`](pstack_faults::FleetSupervisor) run must land on the
//! byte-identical fleet fingerprint of an unkilled run). Writes
//! `results/ext_fleetfaults.{json,txt}`.
//!
//! `POWERSTACK_CHAOSFLEET_SMOKE=1` shrinks every cell (fewer jobs, shorter
//! horizon) for quick plumbing checks. This binary records the grid;
//! `bench_fleetfaults` is the gate that fails CI on SLO violations.

use powerstack_core::experiments::fleetfaults::{
    self, ChaosResult, ChaosScenario, SupervisedCheck,
};
use powerstack_core::framework::TuningLevel;
use pstack_faults::FleetFaultPlan;
use serde::Serialize;

#[derive(Serialize)]
struct ChaosGrid {
    smoke: bool,
    rows: Vec<ChaosResult>,
    supervised: SupervisedCheck,
    all_slo_ok: bool,
}

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

fn main() {
    pstack_analyze::startup_gate();
    let smoke = std::env::var("POWERSTACK_CHAOSFLEET_SMOKE").is_ok();

    let plans = [
        FleetFaultPlan::none(),
        FleetFaultPlan::node_mtbf_only(),
        FleetFaultPlan::mixed(),
    ];
    let tunings = [TuningLevel::NodeOnly, TuningLevel::EndToEnd];

    let grid = pstack_bench::traced("ext_fleetfaults", |tc| {
        let mut rows = Vec::new();
        for plan in &plans {
            for &tuning in &tunings {
                let mut span = tc.span("chaos_cell");
                span.attr("plan", plan.name.clone());
                span.attr("tuning", format!("{tuning:?}"));
                let mut sc = ChaosScenario::small(tuning, plan.clone());
                if smoke {
                    sc = shrink_for_smoke(sc);
                }
                rows.push(pstack_bench::timed(
                    &format!("E11 {} {tuning:?}", plan.name),
                    || sc.run(),
                ));
            }
        }
        // Supervisor equivalence on the node-MTBF cell: rolling kills with
        // restart-from-checkpoint must not change a byte of the outcome.
        let mut sup_cell =
            ChaosScenario::small(TuningLevel::NodeOnly, FleetFaultPlan::node_mtbf_only());
        if smoke {
            sup_cell = shrink_for_smoke(sup_cell);
        }
        let supervised = pstack_bench::timed("E11 supervised", || {
            fleetfaults::supervised_recovery_check(&sup_cell, 0.3)
        });
        let all_slo_ok = rows.iter().all(ChaosResult::slo_ok) && supervised.identical;
        ChaosGrid {
            smoke,
            rows,
            supervised,
            all_slo_ok,
        }
    });

    let mut rendered = fleetfaults::render(&grid.rows);
    rendered.push_str(&format!(
        "\nsupervised: clean {} vs killed {} ({} restarts) -> {}\n",
        grid.supervised.clean_fingerprint,
        grid.supervised.killed_fingerprint,
        grid.supervised.restarts,
        if grid.supervised.identical {
            "identical"
        } else {
            "DIVERGED"
        },
    ));
    pstack_bench::emit("ext_fleetfaults", &rendered, &grid);

    for r in &grid.rows {
        for v in r.violations() {
            eprintln!("SLO violation [{} {:?}]: {v}", r.plan, r.tuning);
        }
    }
    assert!(
        grid.all_slo_ok,
        "E11 recovery SLOs violated; see {}",
        pstack_bench::results_dir()
            .join("ext_fleetfaults.txt")
            .display()
    );
}
