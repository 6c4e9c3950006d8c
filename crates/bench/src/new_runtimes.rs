//! Extension E3: the additional Table 2 runtimes — uncore power scavenger
//! and adaptive duty-cycle modulation — alone and composed with COUNTDOWN
//! (three disjoint knobs under gated arbitration).

use pstack_apps::synthetic::{Profile, SyntheticApp};
use pstack_apps::workload::AppModel;
use pstack_apps::MpiModel;
use pstack_hwmodel::{NodeConfig, VariationModel};
use pstack_node::NodeManager;
use pstack_runtime::{
    ArbiterMode, Countdown, CountdownMode, DutyCycleAdapter, JobRunner, RuntimeAgent,
    UncoreScavenger,
};
use pstack_sim::{SeedTree, SimTime};
use serde::Serialize;

const SEED: u64 = 20200915;
const VARIANTS: [&str; 5] = ["none", "scavenger", "duty-cycle", "countdown", "all-three"];

/// One runtime mix against the runtime-free baseline.
#[derive(Debug, Serialize)]
pub struct Row {
    pub variant: String,
    pub time_s: f64,
    pub energy_kj: f64,
    pub saving_pct: f64,
    pub slowdown_pct: f64,
}

/// Makespan (s) and energy (J) of one 4-node compute-heavy job under the
/// named runtime mix.
fn job(variant: &str) -> (f64, f64) {
    let app = SyntheticApp::new(Profile::ComputeHeavy, 60.0, 30);
    let n = 4;
    let seeds = SeedTree::new(SEED);
    let mut nodes = NodeManager::fleet(
        n,
        NodeConfig::server_default(),
        &VariationModel::typical(),
        &seeds,
    );
    let mut runner = JobRunner::new(
        &app.workload(n),
        n,
        &MpiModel::typical(),
        &seeds.subtree("job"),
        ArbiterMode::Gated,
    );
    let mut scav = UncoreScavenger::new();
    let mut duty = DutyCycleAdapter::new();
    let mut cd = Countdown::new(CountdownMode::WaitAndCopy);
    let mut agents: Vec<&mut dyn RuntimeAgent> = match variant {
        "scavenger" => vec![&mut scav],
        "duty-cycle" => vec![&mut duty],
        "countdown" => vec![&mut cd],
        "all-three" => vec![&mut cd, &mut scav, &mut duty],
        _ => vec![],
    };
    let r = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents);
    (r.makespan.as_secs_f64(), r.energy_j)
}

/// Every variant, with savings and slowdowns against `none`.
pub fn run() -> Vec<Row> {
    let (t0, e0) = job("none");
    VARIANTS
        .iter()
        .map(|&v| {
            let (t, e) = if v == "none" { (t0, e0) } else { job(v) };
            Row {
                variant: v.to_string(),
                time_s: t,
                energy_kj: e / 1e3,
                saving_pct: 100.0 * (e0 - e) / e0,
                slowdown_pct: 100.0 * (t - t0) / t0,
            }
        })
        .collect()
}

/// The variant table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "EXTENSION E3 / COMPOSED RUNTIMES: scavenger + duty-cycle + COUNTDOWN on disjoint knobs\n\
         variant     | time_s | energy_kJ | saving_pct | slowdown_pct\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} | {:>6.1} | {:>9.2} | {:>+10.1} | {:>+12.2}\n",
            r.variant, r.time_s, r.energy_kj, r.saving_pct, r.slowdown_pct
        ));
    }
    out
}
