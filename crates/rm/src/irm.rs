//! Invasive resource manager: power-corridor enforcement (§3.2.5, Figure 6).
//!
//! Sites increasingly operate under a **power corridor** — contractual lower
//! *and* upper bounds on site draw within a time window. The paper's IRM
//! use case enforces the corridor proactively by **dynamically redistributing
//! nodes among malleable applications** (EPOP jobs), with power capping and
//! DVFS available as classical fallback strategies to compare against.
//!
//! Redistribution respects EPOP semantics: allocations change only at phase
//! boundaries the application declared safe, and only to node counts the
//! application's constraint allows (e.g. LULESH's cubic rule).

use crate::decision::{Decision, DecisionLog};
use pstack_apps::epop::EpopApp;
use pstack_apps::MpiModel;
use pstack_node::{NodeManager, Signal};
use pstack_runtime::{ArbiterMode, JobRunner};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The corridor-enforcement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorridorStrategy {
    /// Do nothing (baseline: shows native violations).
    None,
    /// Dynamic node redistribution among malleable jobs (the IRM approach).
    NodeRedistribution,
    /// RAPL-style node power caps sized to the upper bound.
    PowerCapping,
    /// Frequency limits stepped down/up against the corridor.
    Dvfs,
}

/// Outcome of an IRM run.
#[derive(Debug, Clone, PartialEq)]
pub struct IrmReport {
    /// Time to complete all jobs.
    pub makespan: SimDuration,
    /// Fraction of samples inside the corridor.
    pub in_corridor_fraction: f64,
    /// Samples above the upper bound.
    pub upper_violations: usize,
    /// Samples below the lower bound.
    pub lower_violations: usize,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Total application work completed.
    pub total_work: f64,
    /// Node-redistribution actions taken.
    pub redistributions: usize,
}

struct IrmJob {
    app: EpopApp,
    block: usize,
    nodes: Vec<NodeManager>,
    runner: Option<JobRunner>,
    total_work: f64,
    done: bool,
    /// Pending allocation change to apply at the next safe boundary.
    pending_resize: Option<usize>,
}

impl IrmJob {
    fn at_boundary(&self) -> bool {
        self.runner.is_none() && !self.done
    }
}

/// The invasive resource manager.
pub struct Irm {
    jobs: Vec<IrmJob>,
    idle: Vec<NodeManager>,
    corridor: (f64, f64),
    strategy: CorridorStrategy,
    now: SimTime,
    seeds: SeedTree,
    mpi: MpiModel,
    log: DecisionLog,
    in_corridor: usize,
    upper_violations: usize,
    lower_violations: usize,
    redistributions: usize,
    samples: usize,
    /// Nodes released mid-quantum, already idle-stepped to the quantum end;
    /// merged into the idle pool after the global idle stepping.
    released_this_step: Vec<NodeManager>,
    /// DVFS strategy state: current frequency limit, GHz.
    dvfs_ghz: f64,
}

impl Irm {
    /// Create an IRM over a fleet with a corridor `[low_w, high_w]`.
    ///
    /// # Panics
    /// Panics on an empty fleet or an inverted corridor.
    pub fn new(
        nodes: Vec<NodeManager>,
        corridor: (f64, f64),
        strategy: CorridorStrategy,
        seeds: SeedTree,
    ) -> Self {
        assert!(!nodes.is_empty(), "fleet required");
        assert!(
            corridor.0 < corridor.1 && corridor.0 >= 0.0,
            "corridor must be ordered"
        );
        Irm {
            jobs: Vec::new(),
            idle: nodes,
            corridor,
            strategy,
            now: SimTime::ZERO,
            seeds,
            mpi: MpiModel::typical(),
            log: DecisionLog::default(),
            in_corridor: 0,
            upper_violations: 0,
            lower_violations: 0,
            redistributions: 0,
            samples: 0,
            released_this_step: Vec::new(),
            dvfs_ghz: 3.5,
        }
    }

    /// Launch an EPOP job on `n_nodes` immediately.
    ///
    /// # Panics
    /// Panics if nodes are unavailable or the count violates the app's rule.
    pub fn launch(&mut self, app: EpopApp, n_nodes: usize) {
        assert!(
            app.node_rule().allows(n_nodes),
            "node count violates the app's constraint"
        );
        assert!(n_nodes <= self.idle.len(), "not enough idle nodes");
        let split = self.idle.len() - n_nodes;
        let nodes = self.idle.split_off(split);
        let launch = Decision::JobLaunch { nodes: n_nodes };
        self.log.record(self.now, launch);
        self.jobs.push(IrmJob {
            app,
            block: 0,
            nodes,
            runner: None,
            total_work: 0.0,
            done: false,
            pending_resize: None,
        });
    }

    /// The decision log: launches, every power sample, redistributions,
    /// caps and frequency limits, in emission order.
    pub fn trace(&self) -> &DecisionLog {
        &self.log
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether all launched jobs completed.
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.done)
    }

    /// Instantaneous system power, watts.
    pub fn system_power_w(&self) -> f64 {
        self.jobs
            .iter()
            .flat_map(|j| j.nodes.iter())
            .chain(self.idle.iter())
            .map(|n| n.read(Signal::NodePowerWatts))
            .sum()
    }

    fn system_energy_j(&self) -> f64 {
        self.jobs
            .iter()
            .flat_map(|j| j.nodes.iter())
            .chain(self.idle.iter())
            .map(|n| n.read(Signal::NodeEnergyJoules))
            .sum()
    }

    /// Advance by `quantum`: run blocks (chaining across block boundaries
    /// within the quantum), sample power, enforce the corridor.
    pub fn step(&mut self, quantum: SimDuration) {
        let end = self.now + quantum;

        for ji in 0..self.jobs.len() {
            let mut t = self.now;
            while t < end {
                if self.jobs[ji].done {
                    break;
                }
                // Apply pending resizes and (re)create the runner if at a
                // boundary (resize intents land here, between blocks).
                self.apply_boundary_actions(ji, t, end);
                let job = &mut self.jobs[ji];
                let Some(runner) = &mut job.runner else {
                    break; // no nodes to run on
                };
                let reached = runner.advance(t, end, &mut job.nodes, &mut []);
                if runner.is_complete() {
                    if let Some(r) = runner.result(&job.nodes) {
                        job.total_work += r.total_work;
                    }
                    job.runner = None;
                    job.block += 1;
                    if job.block >= job.app.n_blocks() {
                        job.done = true;
                    }
                }
                t = if reached > t { reached } else { end };
            }
            // Finished (or node-less) jobs idle out the remainder.
            if t < end {
                for nm in self.jobs[ji].nodes.iter_mut() {
                    nm.step_idle(t, end.since(t));
                }
            }
        }
        for nm in &mut self.idle {
            nm.step_idle(self.now, quantum);
        }
        // Nodes released mid-quantum were idle-stepped to `end` on release.
        self.idle.append(&mut self.released_this_step);
        self.now = end;

        // Release nodes of finished jobs.
        for job in &mut self.jobs {
            if job.done && !job.nodes.is_empty() {
                self.idle.append(&mut job.nodes);
            }
        }

        // Sample power against the corridor and steer.
        let p = self.system_power_w();
        self.log
            .record(self.now, Decision::SystemPower { watts: p });
        self.samples += 1;
        let (lo, hi) = self.corridor;
        if p > hi {
            self.upper_violations += 1;
        } else if p < lo {
            self.lower_violations += 1;
        } else {
            self.in_corridor += 1;
        }
        self.enforce(p);
    }

    fn apply_boundary_actions(&mut self, ji: usize, now: SimTime, quantum_end: SimTime) {
        // Resize if requested and allowed at this boundary.
        let job = &mut self.jobs[ji];
        if job.done {
            return;
        }
        if job.at_boundary() {
            let boundary_ok = job.block == 0 || job.app.can_redistribute_after(job.block - 1);
            if let (Some(target), true) = (job.pending_resize, boundary_ok) {
                let current = job.nodes.len();
                if target > current {
                    let grow = (target - current).min(self.idle.len());
                    if grow == target - current {
                        let split = self.idle.len() - grow;
                        let mut extra = self.idle.split_off(split);
                        // Bring grabbed nodes up to the job's local time.
                        let quantum_start = self.now;
                        for nm in extra.iter_mut() {
                            if now > quantum_start {
                                nm.step_idle(quantum_start, now.since(quantum_start));
                            }
                        }
                        job.nodes.append(&mut extra);
                    }
                } else if target < current {
                    let mut released = job.nodes.split_off(target);
                    // Idle the released nodes to the quantum end; they join
                    // the idle pool afterwards (avoids double stepping).
                    for nm in released.iter_mut() {
                        if quantum_end > now {
                            nm.step_idle(now, quantum_end.since(now));
                        }
                    }
                    self.released_this_step.append(&mut released);
                }
                let (from, to) = (current, job.nodes.len());
                if to != from {
                    self.redistributions += 1;
                    self.log.record(now, Decision::Redistribute { from, to });
                }
                job.pending_resize = None;
            }
            // Create the runner for the next block.
            let n = job.nodes.len();
            if n > 0 {
                let workload = job.app.block_workload(job.block, n);
                let seeds = self
                    .seeds
                    .subtree(&format!("irm-job{}-block{}", ji, job.block));
                job.runner = Some(JobRunner::new(
                    &workload,
                    n,
                    &self.mpi,
                    &seeds,
                    ArbiterMode::Gated,
                ));
            }
        }
    }

    /// Corridor steering for the configured strategy.
    fn enforce(&mut self, p: f64) {
        let (lo, hi) = self.corridor;
        match self.strategy {
            CorridorStrategy::None => {}
            CorridorStrategy::NodeRedistribution => {
                // Request shrink of the largest job when above; grow when below.
                if p > hi {
                    if let Some(job) = self
                        .jobs
                        .iter_mut()
                        .filter(|j| !j.done && j.pending_resize.is_none())
                        .max_by_key(|j| j.nodes.len())
                    {
                        let cur = job.nodes.len();
                        if let Some(smaller) = job
                            .app
                            .node_rule()
                            .largest_at_or_below(cur.saturating_sub(1))
                        {
                            job.pending_resize = Some(smaller);
                        }
                    }
                } else if p < lo {
                    let idle_avail = self.idle.len();
                    if let Some(job) = self
                        .jobs
                        .iter_mut()
                        .filter(|j| !j.done && j.pending_resize.is_none())
                        .min_by_key(|j| j.nodes.len())
                    {
                        let cur = job.nodes.len();
                        if let Some(bigger) = job
                            .app
                            .node_rule()
                            .smallest_at_or_above(cur + 1, cur + idle_avail)
                        {
                            job.pending_resize = Some(bigger);
                        }
                    }
                }
            }
            CorridorStrategy::PowerCapping => {
                if p > hi {
                    let busy: usize = self.jobs.iter().map(|j| j.nodes.len()).sum();
                    if busy > 0 {
                        let idle_draw = 130.0 * self.idle.len() as f64;
                        let per_node = ((hi - idle_draw) / busy as f64).max(140.0);
                        let window = SimDuration::from_millis(10);
                        let now = self.now;
                        for job in &mut self.jobs {
                            for nm in job.nodes.iter_mut() {
                                nm.set_power_limit(now, per_node, window);
                            }
                        }
                        let cap = Decision::PowerCap { node_w: per_node };
                        self.log.record(self.now, cap);
                    }
                }
                // A lower-bound violation cannot be fixed by capping.
            }
            CorridorStrategy::Dvfs => {
                if p > hi {
                    self.dvfs_ghz = (self.dvfs_ghz - 0.2).max(1.0);
                } else if p < lo {
                    self.dvfs_ghz = (self.dvfs_ghz + 0.1).min(3.5);
                } else {
                    return;
                }
                let ghz = self.dvfs_ghz;
                for job in &mut self.jobs {
                    for nm in job.nodes.iter_mut() {
                        nm.set_freq_limit_ghz(ghz);
                    }
                }
                self.log.record(self.now, Decision::Dvfs { ghz });
            }
        }
    }

    /// Run until all jobs complete or `horizon` passes, then report.
    pub fn run(&mut self, quantum: SimDuration, horizon: SimTime) -> IrmReport {
        while !self.all_done() && self.now < horizon {
            self.step(quantum);
        }
        IrmReport {
            makespan: self.now.since(SimTime::ZERO),
            in_corridor_fraction: if self.samples == 0 {
                0.0
            } else {
                self.in_corridor as f64 / self.samples as f64
            },
            upper_violations: self.upper_violations,
            lower_violations: self.lower_violations,
            energy_j: self.system_energy_j(),
            total_work: self.jobs.iter().map(|j| j.total_work).sum(),
            redistributions: self.redistributions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_apps::workload::NodeCountRule;
    use pstack_hwmodel::{NodeConfig, VariationModel};

    fn fleet(n: usize) -> Vec<NodeManager> {
        let seeds = SeedTree::new(7);
        NodeManager::fleet(
            n,
            NodeConfig::server_default(),
            &VariationModel::none(),
            &seeds,
        )
    }

    fn corridor_run(strategy: CorridorStrategy) -> IrmReport {
        // 16 nodes; two malleable jobs. Peak draw ≈ 16×440 ≈ 7 kW;
        // corridor [2.5 kW, 5.5 kW] forces action.
        let mut irm = Irm::new(fleet(16), (2500.0, 5500.0), strategy, SeedTree::new(9));
        irm.launch(EpopApp::uniform("a", 800.0, 20, NodeCountRule::Any), 8);
        irm.launch(EpopApp::uniform("b", 800.0, 20, NodeCountRule::Any), 6);
        irm.run(SimDuration::from_secs(1), SimTime::from_secs(4000))
    }

    #[test]
    fn baseline_violates_upper_bound() {
        let r = corridor_run(CorridorStrategy::None);
        assert!(
            r.upper_violations > 0,
            "14 busy nodes must exceed 5.5 kW sometimes"
        );
        assert_eq!(r.redistributions, 0);
    }

    #[test]
    fn redistribution_restores_corridor() {
        let base = corridor_run(CorridorStrategy::None);
        let redis = corridor_run(CorridorStrategy::NodeRedistribution);
        assert!(redis.redistributions > 0, "must act");
        assert!(
            redis.in_corridor_fraction > base.in_corridor_fraction,
            "{} vs baseline {}",
            redis.in_corridor_fraction,
            base.in_corridor_fraction
        );
        assert!(
            redis.in_corridor_fraction > 0.7,
            "{}",
            redis.in_corridor_fraction
        );
    }

    #[test]
    fn capping_also_enforces_upper_bound() {
        let capped = corridor_run(CorridorStrategy::PowerCapping);
        let base = corridor_run(CorridorStrategy::None);
        assert!(capped.upper_violations < base.upper_violations);
    }

    #[test]
    fn dvfs_reduces_violations() {
        let dvfs = corridor_run(CorridorStrategy::Dvfs);
        let base = corridor_run(CorridorStrategy::None);
        assert!(dvfs.upper_violations < base.upper_violations);
    }

    #[test]
    fn work_is_completed_under_all_strategies() {
        for strat in [
            CorridorStrategy::None,
            CorridorStrategy::NodeRedistribution,
            CorridorStrategy::PowerCapping,
            CorridorStrategy::Dvfs,
        ] {
            let r = corridor_run(strat);
            assert!(
                (r.total_work - 1600.0).abs() / 1600.0 < 0.15,
                "{strat:?}: work {}",
                r.total_work
            );
        }
    }

    #[test]
    fn cubic_constraint_respected_in_redistribution() {
        let mut irm = Irm::new(
            fleet(32),
            (2500.0, 6000.0),
            CorridorStrategy::NodeRedistribution,
            SeedTree::new(11),
        );
        irm.launch(EpopApp::lulesh_like(600.0, 20), 27);
        let r = irm.run(SimDuration::from_secs(1), SimTime::from_secs(4000));
        // Any redistribution must land on cubes: check the trace values.
        for (_, d) in irm.trace().of_kind("redistribute") {
            let n = d.value() as usize;
            assert!(
                NodeCountRule::Cube.allows(n),
                "redistributed to non-cube {n}"
            );
        }
        assert!(r.total_work > 0.0);
    }

    #[test]
    #[should_panic(expected = "not enough idle nodes")]
    fn overallocation_panics() {
        let mut irm = Irm::new(
            fleet(4),
            (100.0, 5000.0),
            CorridorStrategy::None,
            SeedTree::new(1),
        );
        irm.launch(EpopApp::uniform("x", 10.0, 2, NodeCountRule::Any), 8);
    }
}
