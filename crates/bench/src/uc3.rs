//! Use case 3.2.3's cross-layer extension: the ytopt loop over
//! application + system knobs *under an imposed power cap*.
//!
//! "Under a system power cap, the framework can be used to find the best
//! combination of different parameters for the optimal solution (the
//! smallest runtime, the lowest power, or the lowest energy)."
//!
//! Part A sweeps the imposed node power cap and tunes runtime at each level:
//! the best transformation **changes with the cap** (echoing §3.2.1's moving
//! optimum at the loop-transformation layer). Part B fixes a tight cap and
//! sweeps the objective: each objective lands on a different configuration.

use powerstack_core::cotune::KernelCoTune;
use powerstack_core::Objective;
use pstack_autotune::{ForestSearch, TuneError};
use serde::Serialize;

const SEED: u64 = 20200909;

/// One tuned scenario's best configuration.
#[derive(Debug, Serialize)]
pub struct Row {
    pub label: String,
    pub best_cost: f64,
    pub config: String,
    pub time_s: f64,
    pub energy_j: f64,
    pub power_w: f64,
}

fn tune_at(caps: Vec<f64>, objective: Objective, label: &str) -> Result<Row, TuneError> {
    let mut cotune = KernelCoTune::new(objective);
    cotune.node_caps_w = caps;
    let space = cotune.space();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = cotune.tune_parallel(&mut ForestSearch::new(), 60, SEED, workers)?;
    let best = report
        .db
        .best()
        .expect("a finished campaign has evaluations");
    let aux = |k: &str| best.aux.get(k).copied().unwrap_or(f64::NAN);
    Ok(Row {
        label: label.to_string(),
        best_cost: report.best_objective,
        config: space.describe(&report.best_config),
        time_s: aux("time_s"),
        energy_j: aux("energy_j"),
        power_w: aux("power_w"),
    })
}

/// Part A (min-time at three imposed caps), then Part B (the cap itself
/// becomes a knob under each of the paper's three objectives).
///
/// # Errors
/// Propagates a [`TuneError`] from any campaign.
pub fn run() -> Result<Vec<Row>, TuneError> {
    let all_caps = || vec![0.0, 300.0, 240.0];
    Ok(vec![
        tune_at(vec![0.0], Objective::MinTime, "uncapped/min-time")?,
        tune_at(vec![300.0], Objective::MinTime, "cap300W/min-time")?,
        tune_at(vec![240.0], Objective::MinTime, "cap240W/min-time")?,
        tune_at(all_caps(), Objective::MinTime, "free-cap/min-time")?,
        tune_at(all_caps(), Objective::MinEnergy, "free-cap/min-energy")?,
        tune_at(all_caps(), Objective::MinPower, "free-cap/min-power")?,
    ])
}

/// The scenario table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "USE CASE 3.2.3 / CROSS-LAYER YTOPT UNDER IMPOSED POWER CAPS (60 evals each)\n\
         scenario            | time_s | energy_kJ | power_W | configuration\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<19} | {:>6.1} | {:>9.2} | {:>7.0} | {}\n",
            r.label,
            r.time_s,
            r.energy_j / 1e3,
            r.power_w,
            r.config,
        ));
    }
    out
}
