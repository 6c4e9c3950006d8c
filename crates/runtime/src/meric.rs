//! MERIC/READEX-like runtime (§3.2.4, §3.2.7).
//!
//! MERIC "tunes the application based on its instrumentation ... and provides
//! a specific tuned-parameters configuration for each of the instrumented
//! regions". The agent explores hardware configurations per region across
//! successive visits, measures per-visit energy, and locks in the best
//! configuration per region. Two fidelity rules from the paper are enforced:
//!
//! - **Minimum region size**: a region must yield at least 100 power samples
//!   (≥ 100 ms at RAPL granularity) for its measurement to be trusted;
//!   shorter regions are left untuned (§3.2.7).
//! - **Dependency awareness**: candidate configurations come from a fixed
//!   valid grid, mirroring the ATP "list of parameter values" input.

use crate::agent::{ArbitratedNodes, KnobKind, RuntimeAgent, BARRIER_REGION};
use pstack_hwmodel::PhaseMix;
use pstack_node::Signal;
use pstack_sim::SimTime;
use pstack_telemetry::PowerSampler;
use std::collections::HashMap;

/// A hardware configuration candidate for one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionConfig {
    /// Core frequency ceiling, GHz.
    pub freq_ghz: f64,
    /// Uncore frequency index.
    pub uncore_idx: usize,
}

/// Per-region tuning state.
#[derive(Debug, Clone)]
struct RegionState {
    /// Energy measured per candidate (index-aligned with the candidate grid).
    energy: Vec<f64>,
    /// Visit duration accumulated per candidate, seconds.
    duration_s: Vec<f64>,
    /// Visits measured per candidate.
    visits: Vec<usize>,
    /// Candidate currently being measured, or the locked-in best.
    active: usize,
    /// Whether exploration has finished for this region.
    locked: bool,
    /// Whether the region proved too short to measure reliably.
    untunable: bool,
}

/// One in-flight visit measurement (node 0 is the measurement rank).
#[derive(Debug, Clone)]
struct OpenVisit {
    region: String,
    start: SimTime,
    start_energy_j: f64,
    candidate: usize,
}

/// The MERIC runtime agent.
#[derive(Debug)]
pub struct Meric {
    /// The candidate grid (shared by all regions).
    candidates: Vec<RegionConfig>,
    /// Visits to average per candidate before moving on.
    visits_per_candidate: usize,
    regions: HashMap<String, RegionState>,
    open: Option<OpenVisit>,
    sampler: PowerSampler,
    /// The default (un-tuned) configuration to restore.
    default_cfg: RegionConfig,
    /// When set, communication-dominant regions are left to a co-resident
    /// MPI runtime (COUNTDOWN) — the §3.2.7 "communication layer" that keeps
    /// both tools aware of which one is in charge of which regions.
    delegate_comm: bool,
}

impl Meric {
    /// Default candidate grid: 5 frequencies × 2 uncore points, ordered from
    /// the default (fast) end downwards so regions that never finish
    /// exploring — one-shot regions, short runs — sit near default instead
    /// of being parked at the slowest candidate.
    pub fn default_candidates() -> Vec<RegionConfig> {
        let mut out = Vec::new();
        for &f in &[3.5, 3.0, 2.5, 2.0, 1.5] {
            for &u in &[8, 2] {
                out.push(RegionConfig {
                    freq_ghz: f,
                    uncore_idx: u,
                });
            }
        }
        out
    }

    /// Create with the default grid and 2 visits per candidate.
    pub fn new() -> Self {
        Self::with_candidates(Self::default_candidates(), 2)
    }

    /// Create with a custom candidate grid.
    pub fn with_candidates(candidates: Vec<RegionConfig>, visits_per_candidate: usize) -> Self {
        assert!(!candidates.is_empty(), "need candidates");
        assert!(visits_per_candidate >= 1);
        Meric {
            candidates,
            visits_per_candidate,
            regions: HashMap::new(),
            open: None,
            sampler: PowerSampler::rapl(),
            default_cfg: RegionConfig {
                freq_ghz: 3.5,
                uncore_idx: 8,
            },
            delegate_comm: false,
        }
    }

    /// Delegate communication-dominant regions to a co-resident MPI runtime:
    /// MERIC will neither measure nor actuate them.
    pub fn with_comm_delegation(mut self) -> Self {
        self.delegate_comm = true;
        self
    }

    /// Regions that finished exploration, with their chosen configurations.
    pub fn tuned_regions(&self) -> HashMap<String, RegionConfig> {
        self.regions
            .iter()
            .filter(|(_, s)| s.locked && !s.untunable)
            .map(|(name, s)| (name.clone(), self.candidates[s.active]))
            .collect()
    }

    /// Regions rejected as too short for reliable measurement.
    pub fn untunable_regions(&self) -> Vec<String> {
        self.regions
            .iter()
            .filter(|(_, s)| s.untunable)
            .map(|(n, _)| n.clone())
            .collect()
    }

    fn close_open_visit(&mut self, now: SimTime, ctl: &ArbitratedNodes<'_>) {
        let Some(open) = self.open.take() else {
            return;
        };
        let duration = now.since(open.start);
        let energy = ctl.read(0, Signal::NodeEnergyJoules) - open.start_energy_j;
        let state = self.regions.get_mut(&open.region).expect("region known");
        if state.locked || state.untunable {
            return;
        }
        // Minimum-region-size rule: too few power samples → untunable.
        if self.sampler.samples_in(duration) < PowerSampler::MIN_RELIABLE_SAMPLES {
            state.untunable = true;
            return;
        }
        state.energy[open.candidate] += energy;
        state.duration_s[open.candidate] += duration.as_secs_f64();
        state.visits[open.candidate] += 1;
        if state.visits[open.candidate] >= self.visits_per_candidate {
            // Advance to the next candidate, or lock in the best.
            let next = open.candidate + 1;
            if next < self.candidates.len() {
                state.active = next;
            } else {
                // Energy × duration per visit (EDP): a pure energy
                // objective degenerates to crawling on compute-bound regions.
                let score = |i: usize| {
                    let v = state.visits[i].max(1) as f64;
                    (state.energy[i] / v) * (state.duration_s[i] / v)
                };
                let best = (0..state.energy.len())
                    .filter(|&i| state.visits[i] > 0)
                    .min_by(|&a, &b| score(a).partial_cmp(&score(b)).expect("finite"))
                    .unwrap_or(self.candidates.len() - 1);
                state.active = best;
                state.locked = true;
            }
        }
    }

    fn apply(&self, cfg: RegionConfig, ctl: &mut ArbitratedNodes<'_>) {
        for i in 0..ctl.n_nodes() {
            ctl.set_freq_limit_ghz(i, cfg.freq_ghz);
            ctl.set_uncore_idx(i, cfg.uncore_idx);
        }
    }
}

impl Default for Meric {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeAgent for Meric {
    fn name(&self) -> &str {
        "meric"
    }

    fn knobs(&self) -> Vec<KnobKind> {
        vec![KnobKind::CoreFreq, KnobKind::Uncore]
    }

    /// The tick is the trait's no-op: it acts on region entries only.
    fn reads_telemetry(&self) -> bool {
        false
    }

    fn on_region_enter(
        &mut self,
        now: SimTime,
        node: usize,
        region: &str,
        mix: &PhaseMix,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        // Node 0 is the measurement rank; configs apply job-wide since
        // regions are barrier-synchronized.
        if node != 0 {
            return;
        }
        self.close_open_visit(now, ctl);
        if region == BARRIER_REGION {
            return;
        }
        if self.delegate_comm && mix.dominant() == pstack_hwmodel::PhaseKind::CommBound {
            return; // COUNTDOWN's territory
        }
        let n_cand = self.candidates.len();
        let state = self
            .regions
            .entry(region.to_string())
            .or_insert_with(|| RegionState {
                energy: vec![0.0; n_cand],
                duration_s: vec![0.0; n_cand],
                visits: vec![0; n_cand],
                active: 0,
                locked: false,
                untunable: false,
            });
        let cfg = if state.untunable {
            self.default_cfg
        } else {
            self.candidates[state.active]
        };
        if !state.locked && !state.untunable {
            self.open = Some(OpenVisit {
                region: region.to_string(),
                start: now,
                start_energy_j: ctl.read(0, Signal::NodeEnergyJoules),
                candidate: state.active,
            });
        }
        self.apply(cfg, ctl);
    }

    fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        self.apply(self.default_cfg, ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterMode;
    use crate::exec::{JobResult, JobRunner};
    use pstack_apps::workload::{AppModel, Phase, Workload};
    use pstack_apps::MpiModel;
    use pstack_hwmodel::{Node, NodeConfig, NodeId, PhaseKind};
    use pstack_node::NodeManager;
    use pstack_sim::SeedTree;

    /// An app with long, strongly contrasting regions repeated many times.
    struct RegionApp {
        iterations: usize,
    }

    impl AppModel for RegionApp {
        fn name(&self) -> &str {
            "region-app"
        }
        fn workload(&self, _n: usize) -> Workload {
            let body = [
                Phase::new("hot_compute", PhaseMix::new(0.9, 0.1, 0.0, 0.0), 1.0),
                Phase::new("stream", PhaseMix::new(0.1, 0.9, 0.0, 0.0), 1.0),
            ];
            let mut w = Workload::new();
            w.repeat(&body, self.iterations);
            w
        }
    }

    fn run(with_meric: bool, iterations: usize) -> (JobResult, Option<Meric>) {
        let app = RegionApp { iterations };
        let mut nodes = vec![NodeManager::new(Node::nominal(
            NodeId(0),
            NodeConfig::server_default(),
        ))];
        let seeds = SeedTree::new(1);
        let mut runner = JobRunner::new(
            &app.workload(1),
            1,
            &MpiModel::balanced_light(),
            &seeds,
            ArbiterMode::Gated,
        );
        if with_meric {
            let mut meric = Meric::new();
            let r = {
                let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut meric];
                runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents)
            };
            (r, Some(meric))
        } else {
            (
                runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut []),
                None,
            )
        }
    }

    #[test]
    fn explores_and_locks_regions() {
        // 10 candidates × 2 visits = 20 visits needed per region; 60 iterations
        // gives plenty.
        let (_, meric) = run(true, 60);
        let meric = meric.unwrap();
        let tuned = meric.tuned_regions();
        assert!(tuned.contains_key("hot_compute"), "tuned: {tuned:?}");
        assert!(tuned.contains_key("stream"));
    }

    #[test]
    fn per_region_configs_differ_by_boundedness() {
        let (_, meric) = run(true, 60);
        let tuned = meric.unwrap().tuned_regions();
        let hot = tuned["hot_compute"];
        let stream = tuned["stream"];
        // Per-region distinction under the EDP objective: the compute-bound
        // region keeps a high clock (time dominates), the memory-bound
        // region drops the clock it cannot use.
        assert!(
            stream.freq_ghz < hot.freq_ghz,
            "stream {:?} vs hot {:?}",
            stream,
            hot
        );
    }

    #[test]
    fn tuned_run_saves_energy() {
        let (base, _) = run(false, 60);
        let (tuned, _) = run(true, 60);
        assert!(
            tuned.energy_j < base.energy_j,
            "MERIC {} J vs default {} J",
            tuned.energy_j,
            base.energy_j
        );
    }

    #[test]
    fn short_regions_are_rejected() {
        /// Regions far below the 100 ms reliability threshold.
        struct ShortApp;
        impl AppModel for ShortApp {
            fn name(&self) -> &str {
                "short-app"
            }
            fn workload(&self, _n: usize) -> Workload {
                let body = [
                    Phase::new("tiny_a", PhaseMix::pure(PhaseKind::ComputeBound), 0.01),
                    Phase::new("tiny_b", PhaseMix::pure(PhaseKind::MemoryBound), 0.01),
                ];
                let mut w = Workload::new();
                w.repeat(&body, 50);
                w
            }
        }
        let mut nodes = vec![NodeManager::new(Node::nominal(
            NodeId(0),
            NodeConfig::server_default(),
        ))];
        let seeds = SeedTree::new(2);
        let mut runner = JobRunner::new(
            &ShortApp.workload(1),
            1,
            &MpiModel::balanced_light(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut meric = Meric::new();
        {
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut meric];
            runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents);
        }
        let untunable = meric.untunable_regions();
        assert!(
            untunable.contains(&"tiny_a".to_string()) || untunable.contains(&"tiny_b".to_string()),
            "sub-100ms regions must be rejected: {untunable:?}"
        );
        assert!(meric.tuned_regions().is_empty());
    }
}
