//! Conductor-like runtime (§3.2.1).
//!
//! Conductor (Marathe et al., ISC'15) runs power-constrained jobs in two
//! stages: an **exploration** stage that measures candidate configurations
//! on-line, and a **steady** stage that picks the most efficient
//! configuration and thereafter *reallocates power between ranks* — slack
//! ranks donate budget to critical-path ranks. The paper's use case tunes
//! "the granularity and efficiency of its power-balancing algorithm under
//! the assigned job-level power limit"; both are exposed as knobs here.

use crate::agent::{ArbitratedNodes, JobTelemetry, KnobKind, RuntimeAgent};
use pstack_node::Signal;
use pstack_sim::{SimDuration, SimTime};

/// Tunable Conductor parameters (the §3.2.1 runtime-layer knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct ConductorConfig {
    /// Job-level power budget, watts (from the RM).
    pub job_budget_w: f64,
    /// Candidate frequency ceilings explored on-line, GHz.
    pub candidates_ghz: Vec<f64>,
    /// Control ticks spent measuring each candidate.
    pub explore_ticks_per_candidate: usize,
    /// Watts moved per rebalancing step (the "granularity" knob).
    pub shift_step_w: f64,
    /// Control period (the "efficiency" / reaction-time knob).
    pub period: SimDuration,
}

impl ConductorConfig {
    /// Defaults: five candidates, 3 ticks each, 5 W shifts at 500 ms.
    pub fn with_budget(job_budget_w: f64) -> Self {
        ConductorConfig {
            job_budget_w,
            candidates_ghz: vec![1.5, 2.0, 2.5, 3.0, 3.5],
            explore_ticks_per_candidate: 3,
            shift_step_w: 5.0,
            period: SimDuration::from_millis(500),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Exploring { candidate: usize, tick: usize },
    Steady,
}

/// Measurement for one candidate frequency.
#[derive(Debug, Clone, Copy, Default)]
struct Measurement {
    work: f64,
    energy_j: f64,
}

/// The Conductor runtime agent.
#[derive(Debug)]
pub struct Conductor {
    cfg: ConductorConfig,
    stage: Stage,
    measurements: Vec<Measurement>,
    /// Snapshot at the start of the current candidate's window.
    window_start: Option<(Vec<f64>, Vec<f64>)>, // (progress, energy)
    /// Steady-stage per-node caps.
    caps_w: Vec<f64>,
    last_wait_s: Vec<f64>,
    chosen_ghz: Option<f64>,
}

impl Conductor {
    /// Per-node power floor, watts.
    pub const MIN_NODE_CAP_W: f64 = 120.0;

    /// Create with a configuration.
    pub fn new(cfg: ConductorConfig) -> Self {
        assert!(!cfg.candidates_ghz.is_empty(), "need candidates");
        assert!(cfg.job_budget_w > 0.0, "budget must be positive");
        let n_cand = cfg.candidates_ghz.len();
        Conductor {
            cfg,
            stage: Stage::Exploring {
                candidate: 0,
                tick: 0,
            },
            measurements: vec![Measurement::default(); n_cand],
            window_start: None,
            caps_w: Vec::new(),
            last_wait_s: Vec::new(),
            chosen_ghz: None,
        }
    }

    /// The frequency chosen after exploration (None while exploring).
    pub fn chosen_ghz(&self) -> Option<f64> {
        self.chosen_ghz
    }

    fn finish_exploration(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        // Pick the candidate with the best work per joule (power efficiency
        // under the budget is what §3.2.1 optimizes: IPC/watt ≈ work/J here).
        let best = self
            .measurements
            .iter()
            .enumerate()
            .filter(|(_, m)| m.energy_j > 0.0)
            .max_by(|a, b| {
                let ea = a.1.work / a.1.energy_j;
                let eb = b.1.work / b.1.energy_j;
                ea.partial_cmp(&eb).expect("finite")
            })
            .map(|(i, _)| i)
            .unwrap_or(self.cfg.candidates_ghz.len() - 1);
        let ghz = self.cfg.candidates_ghz[best];
        self.chosen_ghz = Some(ghz);
        for i in 0..ctl.n_nodes() {
            ctl.set_freq_limit_ghz(i, ghz);
        }
        // Initialize uniform caps under the budget.
        let per = (self.cfg.job_budget_w / ctl.n_nodes() as f64).max(Self::MIN_NODE_CAP_W);
        self.caps_w = vec![per; ctl.n_nodes()];
        let window = SimDuration::from_millis(10);
        for i in 0..ctl.n_nodes() {
            ctl.set_power_cap(i, per, window);
        }
        self.stage = Stage::Steady;
    }
}

impl RuntimeAgent for Conductor {
    fn name(&self) -> &str {
        "conductor"
    }

    fn knobs(&self) -> Vec<KnobKind> {
        vec![KnobKind::CoreFreq, KnobKind::PowerCap]
    }

    fn control_period(&self) -> SimDuration {
        self.cfg.period
    }

    fn on_job_start(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        self.last_wait_s = vec![0.0; ctl.n_nodes()];
        // Begin exploring the first candidate.
        let ghz = self.cfg.candidates_ghz[0];
        for i in 0..ctl.n_nodes() {
            ctl.set_freq_limit_ghz(i, ghz);
        }
    }

    fn on_control(
        &mut self,
        _now: SimTime,
        telemetry: &JobTelemetry,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        match self.stage {
            Stage::Exploring { candidate, tick } => {
                let progress = telemetry.node_progress.clone();
                let energy = telemetry.node_energy_j.clone();
                if let Some((p0, e0)) = &self.window_start {
                    let dwork: f64 = progress.iter().zip(p0).map(|(a, b)| (a - b).max(0.0)).sum();
                    let denergy: f64 = energy.iter().zip(e0).map(|(a, b)| (a - b).max(0.0)).sum();
                    let m = &mut self.measurements[candidate];
                    m.work += dwork;
                    m.energy_j += denergy;
                }
                self.window_start = Some((progress, energy));

                let next_tick = tick + 1;
                if next_tick >= self.cfg.explore_ticks_per_candidate {
                    let next_cand = candidate + 1;
                    if next_cand >= self.cfg.candidates_ghz.len() {
                        self.finish_exploration(ctl);
                    } else {
                        let ghz = self.cfg.candidates_ghz[next_cand];
                        for i in 0..ctl.n_nodes() {
                            ctl.set_freq_limit_ghz(i, ghz);
                        }
                        self.window_start = None;
                        self.stage = Stage::Exploring {
                            candidate: next_cand,
                            tick: 0,
                        };
                    }
                } else {
                    self.stage = Stage::Exploring {
                        candidate,
                        tick: next_tick,
                    };
                }
            }
            Stage::Steady => {
                // Power reallocation: slackest rank donates to the straggler.
                let deltas: Vec<f64> = telemetry
                    .node_wait_s
                    .iter()
                    .zip(&self.last_wait_s)
                    .map(|(now, last)| (now - last).max(0.0))
                    .collect();
                self.last_wait_s = telemetry.node_wait_s.clone();
                if deltas.iter().cloned().fold(0.0, f64::max) > 1e-6 && deltas.len() > 1 {
                    let straggler = deltas
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        .map(|(i, _)| i)
                        .expect("nodes");
                    let donor = deltas
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        .map(|(i, _)| i)
                        .expect("nodes");
                    if donor != straggler
                        && self.caps_w[donor] - self.cfg.shift_step_w >= Self::MIN_NODE_CAP_W
                    {
                        self.caps_w[donor] -= self.cfg.shift_step_w;
                        self.caps_w[straggler] += self.cfg.shift_step_w;
                        let window = SimDuration::from_millis(10);
                        ctl.set_power_cap(donor, self.caps_w[donor], window);
                        ctl.set_power_cap(straggler, self.caps_w[straggler], window);
                    }
                }
            }
        }
    }

    fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        for i in 0..ctl.n_nodes() {
            ctl.clear_freq_limit(i);
            ctl.clear_power_cap(i);
        }
        let _ = ctl.read(0, Signal::NodeEnergyJoules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterMode;
    use crate::exec::{JobResult, JobRunner};
    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_apps::workload::AppModel;
    use pstack_apps::MpiModel;
    use pstack_hwmodel::{NodeConfig, VariationModel};
    use pstack_node::NodeManager;
    use pstack_sim::{SeedTree, SimTime};

    fn run(with_conductor: bool, budget_w: f64, seed: u64) -> (JobResult, Option<f64>) {
        let app = SyntheticApp::new(Profile::MemoryHeavy, 60.0, 30);
        let n = 4;
        let seeds = SeedTree::new(seed);
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
        if with_conductor {
            let mut c = Conductor::new(ConductorConfig::with_budget(budget_w));
            let r = {
                let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut c];
                runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents)
            };
            (r, c.chosen_ghz())
        } else {
            // Naive budget enforcement: uniform static caps, full frequency.
            let per = budget_w / n as f64;
            for nm in nodes.iter_mut() {
                nm.set_power_limit(SimTime::ZERO, per, pstack_sim::SimDuration::from_millis(10));
            }
            let r = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut []);
            (r, None)
        }
    }

    #[test]
    fn explores_then_chooses() {
        let (_, chosen) = run(true, 4.0 * 300.0, 1);
        let ghz = chosen.expect("exploration finishes");
        assert!((1.5..=3.5).contains(&ghz));
    }

    #[test]
    fn memory_bound_job_prefers_lower_frequency() {
        // Memory-bound work barely speeds up above ~2.4 GHz but burns power:
        // work/J peaks at a low-to-mid frequency.
        let (_, chosen) = run(true, 4.0 * 300.0, 2);
        assert!(
            chosen.unwrap() <= 2.5,
            "efficiency-optimal freq for memory-bound: {:?}",
            chosen
        );
    }

    #[test]
    fn respects_job_budget() {
        let budget = 4.0 * 260.0;
        let (r, _) = run(true, budget, 3);
        assert!(
            r.avg_power_w <= budget * 1.08,
            "avg power {} vs budget {}",
            r.avg_power_w,
            budget
        );
    }

    #[test]
    fn beats_naive_static_caps_on_energy() {
        let budget = 4.0 * 280.0;
        let (cond, _) = run(true, budget, 4);
        let (naive, _) = run(false, budget, 4);
        assert!(
            cond.energy_j < naive.energy_j,
            "conductor {} J vs naive {} J",
            cond.energy_j,
            naive.energy_j
        );
    }
}
