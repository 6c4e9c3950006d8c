//! Extension E10 at full scale: 4k nodes / 50k jobs through the
//! event-driven multi-enclave engine, timed per tuning level.
//!
//! Runs the E10 ladder ([`FleetScenario::full`]: 16 enclaves × 256 nodes,
//! 50 000 bursty Poisson arrivals, rolling demand-response cuts) once per
//! [`TuningLevel`], and [`check`] holds it to three contracts:
//!
//! 1. **Fig 1 ordering at fleet scale** — end-to-end tuning beats no
//!    tuning on work per kilojoule without losing completions.
//! 2. **Fig 3 dynamic-policy win** — the dynamic end-to-end policy beats
//!    the static node-only policy (efficiency or throughput).
//! 3. **Simulator throughput floor** — each arm's `jobs_h_sim_per_wall_s`
//!    (simulated jobs-per-hour delivered per wall-clock second of
//!    simulation) must clear [`FLEET_THROUGHPUT_FLOOR`]; the event engine
//!    regressing to per-tick-like cost trips this.
//!
//! `POWERSTACK_FLEET_SMOKE=1` shrinks the run to the `small()` scenario
//! (and skips the throughput floor) for quick plumbing checks.

use crate::ensure;
use powerstack_core::experiments::fleet::{self, FleetResult, FleetScenario};
use powerstack_core::framework::TuningLevel;
use pstack_trace::SpanGuard;
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

/// One tuning level's run.
#[derive(Debug, Serialize)]
pub struct FleetArm {
    /// Wall-clock seconds this arm took to simulate.
    pub wall_s: f64,
    /// Simulated hours advanced per wall second.
    pub sim_hours_per_wall_s: f64,
    /// Simulated jobs-per-hour delivered per wall second (the gate metric).
    pub jobs_h_sim_per_wall_s: f64,
    /// The simulated outcome (deterministic; perfgate compares it exactly).
    pub result: FleetResult,
}

/// The whole ladder.
#[derive(Debug, Serialize)]
pub struct FleetBench {
    pub nodes: usize,
    pub submitted: usize,
    pub smoke: bool,
    pub floor_jobs_h_per_wall_s: f64,
    pub arms: Vec<FleetArm>,
}

impl FleetBench {
    fn arm(&self, tuning: TuningLevel) -> Result<&FleetResult, String> {
        self.arms
            .iter()
            .find(|a| a.result.tuning == tuning)
            .map(|a| &a.result)
            .ok_or_else(|| format!("{tuning:?} arm missing"))
    }
}

/// Run every tuning level, one `fleet_arm` span each under `root`.
pub fn run(root: &SpanGuard<'_>) -> FleetBench {
    let smoke = std::env::var("POWERSTACK_FLEET_SMOKE").is_ok();
    let base = if smoke {
        FleetScenario::small(TuningLevel::None, Some(0.55))
    } else {
        FleetScenario::full(TuningLevel::None)
    };
    let arms: Vec<FleetArm> = TuningLevel::ALL
        .iter()
        .map(|&tuning| {
            let mut span = root.child("fleet_arm");
            span.attr("tuning", format!("{tuning:?}"));
            let start = Instant::now();
            let result = FleetScenario {
                tuning,
                ..base.clone()
            }
            .run();
            let wall_s = start.elapsed().as_secs_f64().max(1e-9);
            FleetArm {
                wall_s,
                sim_hours_per_wall_s: (result.makespan_s / 3600.0) / wall_s,
                jobs_h_sim_per_wall_s: result.jobs_per_hour / wall_s,
                result,
            }
        })
        .collect();
    FleetBench {
        nodes: arms[0].result.nodes,
        submitted: arms[0].result.submitted,
        smoke,
        floor_jobs_h_per_wall_s: FLEET_THROUGHPUT_FLOOR,
        arms,
    }
}

/// The E10 table plus each arm's wall time and rates.
pub fn render(bench: &FleetBench) -> String {
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
    rendered
}

/// The three contracts of the module doc.
pub fn check(bench: &FleetBench) -> Result<(), String> {
    // Contract 1: Fig 1 ordering at fleet scale.
    let none = bench.arm(TuningLevel::None)?;
    let e2e = bench.arm(TuningLevel::EndToEnd)?;
    ensure(e2e.completed >= none.completed, || {
        format!(
            "end-to-end lost completions: {} vs {}",
            e2e.completed, none.completed
        )
    })?;
    ensure(e2e.work_per_kj > none.work_per_kj, || {
        format!(
            "Fig 1 ordering failed at fleet scale: end-to-end {:.3} work/kJ vs no-tuning {:.3}",
            e2e.work_per_kj, none.work_per_kj
        )
    })?;
    // Contract 2: Fig 3 dynamic-policy win over the static sitewide cap.
    let node_only = bench.arm(TuningLevel::NodeOnly)?;
    ensure(
        e2e.work_per_kj > node_only.work_per_kj || e2e.jobs_per_hour > node_only.jobs_per_hour,
        || {
            format!(
                "Fig 3 dynamic win failed: end-to-end ({:.3} work/kJ, {:.1} jobs/h) vs node-only ({:.3}, {:.1})",
                e2e.work_per_kj, e2e.jobs_per_hour, node_only.work_per_kj, node_only.jobs_per_hour
            )
        },
    )?;
    // Contract 3: simulator throughput floor (full scale only — the smoke
    // scenario is too small for a meaningful rate).
    for a in bench.arms.iter().filter(|_| !bench.smoke) {
        ensure(a.jobs_h_sim_per_wall_s >= FLEET_THROUGHPUT_FLOOR, || {
            format!(
                "{:?}: {:.2} simulated jobs/h per wall-second is below the {:.1} floor (wall {:.1}s)",
                a.result.tuning, a.jobs_h_sim_per_wall_s, FLEET_THROUGHPUT_FLOOR, a.wall_s
            )
        })?;
    }
    Ok(())
}
