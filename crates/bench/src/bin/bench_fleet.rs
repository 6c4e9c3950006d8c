//! Fleet-scale simulation gate: 4k nodes / 50k jobs through the
//! event-driven multi-enclave engine.
//!
//! Runs the extension-E10 ladder ([`FleetScenario::full`]: 16 enclaves ×
//! 256 nodes, 50 000 bursty Poisson arrivals, rolling demand-response
//! cuts) once per [`TuningLevel`], writes
//! `results/bench_fleet.{json,txt}`, and enforces three contracts:
//!
//! 1. **Fig 1 ordering at fleet scale** — end-to-end tuning beats no
//!    tuning on work per kilojoule without losing completions.
//! 2. **Fig 3 dynamic-policy win** — the dynamic end-to-end policy beats
//!    the static node-only policy (efficiency or throughput).
//! 3. **Simulator throughput floor** — each arm's `jobs_h_sim_per_wall_s`
//!    (simulated jobs-per-hour delivered per wall-clock second of
//!    simulation) must clear [`FLEET_THROUGHPUT_FLOOR`]; the event engine
//!    regressing to per-tick-like cost trips this. Exits nonzero on any
//!    violation. The CI `fleet` stage runs this binary; `perfgate` diffs
//!    its JSON against the committed baseline.
//!
//! `POWERSTACK_FLEET_SMOKE=1` shrinks the run to the `small()` scenario
//! (and skips the throughput floor) for quick plumbing checks.

use powerstack_core::experiments::fleet::{self, FleetResult, FleetScenario};
use powerstack_core::framework::TuningLevel;
use serde::Serialize;
use std::time::Instant;

/// Minimum simulated jobs-per-hour delivered per wall second, per arm.
///
/// The reference container measures 2.5–6.2 on the arms of the 4k/50k
/// ladder (47–115 s wall per arm, 1 core); the floor sits an order of
/// magnitude below the slowest arm so slower CI hosts pass while a
/// collapse to per-tick-like cost (e.g. losing the event-driven leap over
/// idle stretches) still trips it.
pub const FLEET_THROUGHPUT_FLOOR: f64 = 0.15;

#[derive(Serialize)]
struct FleetArm {
    /// Wall-clock seconds this arm took to simulate.
    wall_s: f64,
    /// Simulated hours advanced per wall second.
    sim_hours_per_wall_s: f64,
    /// Simulated jobs-per-hour delivered per wall second (the gate metric).
    jobs_h_sim_per_wall_s: f64,
    /// The simulated outcome (deterministic; perfgate compares it exactly).
    result: FleetResult,
}

#[derive(Serialize)]
struct FleetBench {
    nodes: usize,
    submitted: usize,
    smoke: bool,
    floor_jobs_h_per_wall_s: f64,
    arms: Vec<FleetArm>,
}

fn find(arms: &[FleetArm], tuning: TuningLevel) -> &FleetResult {
    &arms
        .iter()
        .find(|a| a.result.tuning == tuning)
        .unwrap_or_else(|| panic!("{tuning:?} arm missing"))
        .result
}

fn main() {
    pstack_analyze::startup_gate();

    let smoke = std::env::var("POWERSTACK_FLEET_SMOKE").is_ok();
    let base = if smoke {
        FleetScenario::small(TuningLevel::None, Some(0.55))
    } else {
        FleetScenario::full(TuningLevel::None)
    };

    let arms: Vec<FleetArm> = pstack_bench::traced("bench_fleet", |tc| {
        TuningLevel::ALL
            .iter()
            .map(|&tuning| {
                let mut span = tc.span("fleet_arm");
                span.attr("tuning", format!("{tuning:?}"));
                let start = Instant::now();
                let result = pstack_bench::timed(&format!("fleet {tuning:?}"), || {
                    FleetScenario {
                        tuning,
                        ..base.clone()
                    }
                    .run()
                });
                let wall_s = start.elapsed().as_secs_f64().max(1e-9);
                FleetArm {
                    wall_s,
                    sim_hours_per_wall_s: (result.makespan_s / 3600.0) / wall_s,
                    jobs_h_sim_per_wall_s: result.jobs_per_hour / wall_s,
                    result,
                }
            })
            .collect()
    });

    let bench = FleetBench {
        nodes: arms[0].result.nodes,
        submitted: arms[0].result.submitted,
        smoke,
        floor_jobs_h_per_wall_s: FLEET_THROUGHPUT_FLOOR,
        arms,
    };

    let results: Vec<FleetResult> = bench.arms.iter().map(|a| a.result.clone()).collect();
    let mut rendered = fleet::render(&results);
    rendered.push_str("\ntuning      | wall_s  | sim_h/wall_s | jobs_h_sim/wall_s\n");
    for a in &bench.arms {
        rendered.push_str(&format!(
            "{:<11} | {:>7.1} | {:>12.1} | {:>17.1}\n",
            format!("{:?}", a.result.tuning),
            a.wall_s,
            a.sim_hours_per_wall_s,
            a.jobs_h_sim_per_wall_s,
        ));
    }
    pstack_bench::emit("bench_fleet", &rendered, &bench);

    // Contract 1: Fig 1 ordering at fleet scale.
    let none = find(&bench.arms, TuningLevel::None);
    let e2e = find(&bench.arms, TuningLevel::EndToEnd);
    assert!(
        e2e.completed >= none.completed,
        "end-to-end lost completions: {} vs {}",
        e2e.completed,
        none.completed
    );
    assert!(
        e2e.work_per_kj > none.work_per_kj,
        "Fig 1 ordering failed at fleet scale: end-to-end {:.3} work/kJ vs no-tuning {:.3}",
        e2e.work_per_kj,
        none.work_per_kj
    );

    // Contract 2: Fig 3 dynamic-policy win over the static sitewide cap.
    let node_only = find(&bench.arms, TuningLevel::NodeOnly);
    assert!(
        e2e.work_per_kj > node_only.work_per_kj || e2e.jobs_per_hour > node_only.jobs_per_hour,
        "Fig 3 dynamic win failed: end-to-end ({:.3} work/kJ, {:.1} jobs/h) vs node-only ({:.3}, {:.1})",
        e2e.work_per_kj,
        e2e.jobs_per_hour,
        node_only.work_per_kj,
        node_only.jobs_per_hour
    );

    // Contract 3: simulator throughput floor (full scale only — the smoke
    // scenario is too small for a meaningful rate).
    if !smoke {
        for a in &bench.arms {
            assert!(
                a.jobs_h_sim_per_wall_s >= FLEET_THROUGHPUT_FLOOR,
                "{:?}: {:.2} simulated jobs/h per wall-second is below the {:.1} floor \
                 (wall {:.1}s); see {}",
                a.result.tuning,
                a.jobs_h_sim_per_wall_s,
                FLEET_THROUGHPUT_FLOOR,
                a.wall_s,
                pstack_bench::results_dir()
                    .join("bench_fleet.json")
                    .display()
            );
        }
    }
}
