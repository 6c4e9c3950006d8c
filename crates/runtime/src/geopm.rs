//! GEOPM-like job runtime (§3.2.2, Figure 3).
//!
//! Models GEOPM's architecture: a tree of per-node controllers aggregating
//! telemetry to a root (here: [`pstack_telemetry::agg::TreeAggregator`] for
//! the topology accounting, with the root logic centralized), a plugin agent
//! selected by policy, and an **endpoint** — "a gateway between a persistent
//! compute node daemon (like SLURM) and an application power-management
//! daemon (like GEOPM root controller)" — over which the resource manager
//! pushes policy updates mid-run.
//!
//! The five prepacked policies the paper lists are implemented:
//! monitor, power governor (static node cap), power balancer (job budget
//! steered toward stragglers), frequency map (static per-region frequency),
//! and energy-efficient (per-region frequency under a performance margin).

use crate::agent::{ArbitratedNodes, JobTelemetry, KnobKind, RuntimeAgent, BARRIER_REGION};
use pstack_hwmodel::{PhaseKind, PhaseMix};
use pstack_sim::{SimDuration, SimTime};
use pstack_telemetry::agg::TreeAggregator;
use std::collections::HashMap;

/// The GEOPM policy, normally chosen by the site/RM (Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub enum GeopmPolicy {
    /// Telemetry only; no actuation.
    Monitor,
    /// Uniform static node power cap, watts per node.
    PowerGovernor {
        /// Cap applied to every node of the job.
        node_cap_w: f64,
    },
    /// Job-level power budget, dynamically balanced toward stragglers.
    PowerBalancer {
        /// Total budget across the job's nodes, watts.
        job_budget_w: f64,
    },
    /// Static frequency per region (from a site profile database).
    FrequencyMap {
        /// Default frequency for unmapped regions, GHz.
        default_ghz: f64,
        /// Region name → frequency, GHz.
        map: HashMap<String, f64>,
    },
    /// Per-region frequency selection under a performance-degradation margin.
    EnergyEfficient {
        /// Tolerated performance loss, e.g. 0.1 = 10%.
        perf_margin: f64,
    },
}

/// A policy update pushed through the endpoint by the resource manager.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyUpdate {
    /// The new policy.
    pub policy: GeopmPolicy,
}

/// The RM-side handle of the endpoint channel.
#[derive(Debug, Clone)]
pub struct Endpoint {
    tx: crossbeam::channel::Sender<PolicyUpdate>,
}

impl Endpoint {
    /// Push a policy update; returns `false` if the job is gone.
    pub fn send(&self, update: PolicyUpdate) -> bool {
        self.tx.send(update).is_ok()
    }
}

/// The GEOPM runtime agent.
#[derive(Debug)]
pub struct Geopm {
    policy: GeopmPolicy,
    rx: crossbeam::channel::Receiver<PolicyUpdate>,
    tx: crossbeam::channel::Sender<PolicyUpdate>,
    /// Balancer state: current per-node caps.
    caps_w: Vec<f64>,
    /// Balancer state: smoothed per-node effective frequency (EMA).
    freq_ema: Vec<f64>,
    /// Telemetry tree topology (for message accounting / reports).
    tree: Option<TreeAggregator>,
    /// Samples aggregated (monitor mode report).
    samples: usize,
    /// Energy-efficient state: per-region chosen frequency.
    region_freq: HashMap<String, f64>,
}

impl Geopm {
    /// Power floor per node the balancer will not go below, watts.
    pub const MIN_NODE_CAP_W: f64 = 120.0;

    /// Create a GEOPM instance with the given launch policy.
    pub fn new(policy: GeopmPolicy) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded();
        Geopm {
            policy,
            rx,
            tx,
            caps_w: Vec::new(),
            freq_ema: Vec::new(),
            tree: None,
            samples: 0,
            region_freq: HashMap::new(),
        }
    }

    /// The endpoint handle the resource manager keeps (§3.2.2 "Interfaces to
    /// system-level agents").
    pub fn endpoint(&self) -> Endpoint {
        Endpoint {
            tx: self.tx.clone(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &GeopmPolicy {
        &self.policy
    }

    /// Telemetry samples aggregated so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The balancer's current per-node power caps (empty for other policies).
    pub fn node_caps_w(&self) -> &[f64] {
        &self.caps_w
    }

    /// Tree levels used for telemetry aggregation (None before job start).
    pub fn tree_levels(&self) -> Option<usize> {
        self.tree.as_ref().map(|t| t.levels())
    }

    fn apply_power_policy(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        let window = SimDuration::from_millis(10);
        match &self.policy {
            GeopmPolicy::PowerGovernor { node_cap_w } => {
                for i in 0..ctl.n_nodes() {
                    ctl.set_power_cap(i, *node_cap_w, window);
                }
                self.caps_w = vec![*node_cap_w; ctl.n_nodes()];
            }
            GeopmPolicy::PowerBalancer { job_budget_w } => {
                let n = ctl.n_nodes() as f64;
                let per = (job_budget_w / n).max(Self::MIN_NODE_CAP_W);
                self.caps_w = vec![per; ctl.n_nodes()];
                for i in 0..ctl.n_nodes() {
                    ctl.set_power_cap(i, per, window);
                }
            }
            _ => {}
        }
    }

    /// Frequency choice for the energy-efficient agent: phase-aware with the
    /// margin trading depth of down-scaling.
    fn efficient_freq(mix: &PhaseMix, perf_margin: f64) -> f64 {
        // Deeper margins permit deeper down-scaling of non-compute phases.
        let depth = perf_margin.clamp(0.0, 0.5);
        match mix.dominant() {
            PhaseKind::ComputeBound => 3.5 - 1.5 * depth,
            PhaseKind::MemoryBound => 2.6 - 2.0 * depth,
            PhaseKind::CommBound => 1.2,
            PhaseKind::IoBound => 1.0,
        }
        .max(1.0)
    }
}

impl RuntimeAgent for Geopm {
    fn name(&self) -> &str {
        "geopm"
    }

    fn knobs(&self) -> Vec<KnobKind> {
        match self.policy {
            GeopmPolicy::Monitor => vec![],
            GeopmPolicy::PowerGovernor { .. } | GeopmPolicy::PowerBalancer { .. } => {
                vec![KnobKind::PowerCap]
            }
            GeopmPolicy::FrequencyMap { .. } | GeopmPolicy::EnergyEfficient { .. } => {
                vec![KnobKind::CoreFreq]
            }
        }
    }

    fn control_period(&self) -> SimDuration {
        // GEOPM's control loop runs at 5–10 ms on real systems; 100 ms keeps
        // the co-simulation tractable while staying far below phase lengths.
        SimDuration::from_millis(100)
    }

    fn on_job_start(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        let n = ctl.n_nodes();
        self.tree = Some(TreeAggregator::new(n, 8));
        self.freq_ema = vec![0.0; n];
        self.apply_power_policy(ctl);
    }

    fn on_region_enter(
        &mut self,
        _now: SimTime,
        node: usize,
        region: &str,
        mix: &PhaseMix,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        match &self.policy {
            GeopmPolicy::FrequencyMap { default_ghz, map } => {
                let f = map.get(region).copied().unwrap_or(*default_ghz);
                ctl.set_freq_limit_ghz(node, f);
            }
            GeopmPolicy::EnergyEfficient { perf_margin } => {
                if region == BARRIER_REGION {
                    ctl.set_freq_limit_ghz(node, 1.2);
                    return;
                }
                // Look up before inserting: a region seen before costs no
                // `String`.
                let f = match self.region_freq.get(region) {
                    Some(&f) => f,
                    None => {
                        let f = Self::efficient_freq(mix, *perf_margin);
                        self.region_freq.insert(region.to_string(), f);
                        f
                    }
                };
                ctl.set_freq_limit_ghz(node, f);
            }
            _ => {}
        }
    }

    fn on_control(
        &mut self,
        _now: SimTime,
        telemetry: &JobTelemetry,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        self.samples += 1;
        // Drain endpoint updates (RM interaction, Figure 3).
        let mut new_policy = None;
        while let Ok(update) = self.rx.try_recv() {
            new_policy = Some(update.policy);
        }
        if let Some(p) = new_policy {
            self.policy = p;
            self.apply_power_policy(ctl);
        }

        if let GeopmPolicy::PowerBalancer { job_budget_w } = &self.policy {
            let n = ctl.n_nodes();
            if self.caps_w.len() != n {
                self.apply_power_policy(ctl);
                return;
            }
            // Steering signal: the cap-clamped effective core frequency.
            // A node whose RAPL controller had to clip deeper than its peers
            // is the persistent critical path — barrier-wait accounting lags
            // a full phase behind and makes the loop chase its own tail.
            let budget = *job_budget_w;
            let alpha = 0.3;
            for i in 0..self.freq_ema.len() {
                self.freq_ema[i] =
                    (1.0 - alpha) * self.freq_ema[i] + alpha * telemetry.node_freq_ghz[i];
            }
            let ema = &self.freq_ema;
            let max_f = ema.iter().cloned().fold(0.0, f64::max);
            let min_f = ema.iter().cloned().fold(f64::INFINITY, f64::min);
            if max_f - min_f > 0.02 {
                let step_w = 4.0;
                // Slowest node receives power; fastest donates.
                let straggler = ema
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("nodes");
                let donor = ema
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("nodes");
                if donor != straggler && self.caps_w[donor] - step_w >= Self::MIN_NODE_CAP_W {
                    self.caps_w[donor] -= step_w;
                    self.caps_w[straggler] += step_w;
                }
            }
            // Renormalize to the budget (guards drift) and apply.
            let sum: f64 = self.caps_w.iter().sum();
            if sum > 0.0 {
                let scale = budget / sum;
                for c in &mut self.caps_w {
                    *c = (*c * scale).max(Self::MIN_NODE_CAP_W);
                }
            }
            let window = SimDuration::from_millis(10);
            for i in 0..n {
                ctl.set_power_cap(i, self.caps_w[i], window);
            }
        }
    }

    fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        match self.policy {
            GeopmPolicy::PowerGovernor { .. } | GeopmPolicy::PowerBalancer { .. } => {
                for i in 0..ctl.n_nodes() {
                    ctl.clear_power_cap(i);
                }
            }
            GeopmPolicy::FrequencyMap { .. } | GeopmPolicy::EnergyEfficient { .. } => {
                for i in 0..ctl.n_nodes() {
                    ctl.clear_freq_limit(i);
                }
            }
            GeopmPolicy::Monitor => {}
        }
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
    use pstack_sim::SeedTree;

    fn varied_fleet(n: usize, seed: u64) -> Vec<NodeManager> {
        let seeds = SeedTree::new(seed);
        NodeManager::fleet(
            n,
            NodeConfig::server_default(),
            &VariationModel::typical(),
            &seeds,
        )
    }

    fn run_policy(policy: GeopmPolicy, seed: u64) -> (JobResult, usize) {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 30.0, 20);
        let n = 8;
        let mut nodes = varied_fleet(n, seed);
        let seeds = SeedTree::new(seed + 1000);
        // No application-side imbalance: the slack the balancer corrects here
        // comes purely from manufacturing variation under the power cap.
        let mut runner = JobRunner::new(
            &app.workload(n),
            n,
            &MpiModel::balanced_light(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut geopm = Geopm::new(policy);
        let result = {
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut geopm];
            runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents)
        };
        (result, geopm.samples())
    }

    #[test]
    fn monitor_collects_without_actuating() {
        let (free, samples) = run_policy(GeopmPolicy::Monitor, 1);
        assert!(samples > 10, "control loop ran: {samples}");
        assert!(free.avg_power_w > 200.0, "no caps applied");
    }

    #[test]
    fn governor_caps_power() {
        let (free, _) = run_policy(GeopmPolicy::Monitor, 2);
        let (capped, _) = run_policy(GeopmPolicy::PowerGovernor { node_cap_w: 280.0 }, 2);
        assert!(
            capped.avg_power_w < 280.0 * 8.0 * 1.05,
            "job power {} under 8×280",
            capped.avg_power_w
        );
        assert!(capped.avg_power_w < free.avg_power_w);
        assert!(capped.makespan > free.makespan, "capping costs time");
    }

    #[test]
    fn balancer_beats_uniform_governor_under_same_budget() {
        // Under manufacturing variation, steering power at stragglers should
        // finish faster than a uniform split of the same budget.
        let budget = 8.0 * 280.0;
        let mut balancer_wins = 0;
        for seed in [3, 4, 5] {
            let (gov, _) = run_policy(GeopmPolicy::PowerGovernor { node_cap_w: 280.0 }, seed);
            let (bal, _) = run_policy(
                GeopmPolicy::PowerBalancer {
                    job_budget_w: budget,
                },
                seed,
            );
            assert!(
                bal.avg_power_w <= budget * 1.05,
                "balancer respects budget: {}",
                bal.avg_power_w
            );
            eprintln!(
                "seed {seed}: gov {:.2}s {:.0}W, bal {:.2}s {:.0}W",
                gov.makespan.as_secs_f64(),
                gov.avg_power_w,
                bal.makespan.as_secs_f64(),
                bal.avg_power_w
            );
            if bal.makespan <= gov.makespan {
                balancer_wins += 1;
            }
        }
        assert!(
            balancer_wins >= 2,
            "balancer won only {balancer_wins}/3 seeds"
        );
    }

    #[test]
    fn frequency_map_applies_per_region() {
        let mut map = HashMap::new();
        map.insert("exchange".to_string(), 1.2);
        let (mapped, _) = run_policy(
            GeopmPolicy::FrequencyMap {
                default_ghz: 3.5,
                map,
            },
            6,
        );
        let (free, _) = run_policy(GeopmPolicy::Monitor, 6);
        assert!(
            mapped.energy_j < free.energy_j,
            "mapping comm low saves energy"
        );
    }

    #[test]
    fn energy_efficient_saves_energy_within_margin() {
        let app = SyntheticApp::new(Profile::MemoryHeavy, 30.0, 20);
        let n = 4;
        let run = |policy: GeopmPolicy| {
            let mut nodes = varied_fleet(n, 9);
            let seeds = SeedTree::new(10);
            let mut runner = JobRunner::new(
                &app.workload(n),
                n,
                &MpiModel::typical(),
                &seeds,
                ArbiterMode::Gated,
            );
            let mut geopm = Geopm::new(policy);
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut geopm];
            runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents)
        };
        let free = run(GeopmPolicy::Monitor);
        let ee = run(GeopmPolicy::EnergyEfficient { perf_margin: 0.10 });
        assert!(
            ee.energy_j < free.energy_j * 0.95,
            "memory-bound app should save >5%: {} vs {}",
            ee.energy_j,
            free.energy_j
        );
        let slowdown = ee.makespan.as_secs_f64() / free.makespan.as_secs_f64();
        assert!(slowdown < 1.15, "margin respected: {slowdown}");
    }

    #[test]
    fn endpoint_policy_update_mid_run() {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 60.0, 40);
        let n = 2;
        let mut nodes = varied_fleet(n, 11);
        let seeds = SeedTree::new(12);
        let mut runner = JobRunner::new(
            &app.workload(n),
            n,
            &MpiModel::typical(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut geopm = Geopm::new(GeopmPolicy::Monitor);
        let endpoint = geopm.endpoint();
        let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut geopm];
        // Run 10 s uncapped, then the "RM" pushes a power governor policy.
        let t = runner.advance(
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut nodes,
            &mut agents,
        );
        assert!(endpoint.send(PolicyUpdate {
            policy: GeopmPolicy::PowerGovernor { node_cap_w: 250.0 },
        }));
        runner.advance(t, SimTime::from_secs(11), &mut nodes, &mut agents);
        drop(agents);
        // The cap must now be installed on the hardware.
        for nm in &nodes {
            assert_eq!(nm.read(pstack_node::Signal::PowerCapWatts), 250.0);
        }
    }

    #[test]
    fn tree_topology_sized_to_job() {
        let mut geopm = Geopm::new(GeopmPolicy::Monitor);
        assert_eq!(geopm.tree_levels(), None);
        let mut nodes = varied_fleet(64, 13);
        let arb = crate::arbiter::Arbiter::new(ArbiterMode::Gated);
        let mut ctl = ArbitratedNodes::new(&mut nodes, &arb, 0, SimTime::ZERO);
        geopm.on_job_start(&mut ctl);
        assert_eq!(geopm.tree_levels(), Some(2)); // 64 leaves, fanout 8
    }
}
