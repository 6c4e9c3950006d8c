//! Job execution: co-simulating an application across its nodes.
//!
//! [`JobRunner`] drives a [`Lockstep`] kernel over the job's nodes. The
//! kernel holds the phase program (imbalance-scaled per node) and takes
//! each sub-step with MPI barrier semantics — every rank must finish phase
//! *j* before any enters *j+1*; early finishers spin in communication wait.
//! Around it the runner fires [`RuntimeAgent`] hooks at region entries and
//! control intervals, keeps the agents' telemetry and builds the
//! [`JobResult`].
//!
//! Each sub-step ends at the earliest of (a) the next phase completion on
//! any node, (b) the next agent control tick, or (c) the caller's horizon.
//! This keeps phase accounting exact even when application phases are much
//! shorter than the caller's quantum. The runner caps the sub-step at (b),
//! (c) and its ceiling; the kernel adds (a).
//!
//! ## Node physics on lanes
//!
//! The job's nodes step as one `NodeBatch` lane set (`pstack-hwmodel`).
//! Each [`JobRunner::advance`] / [`JobRunner::advance_boxed`] loads the
//! nodes' state into the runner's lanes, runs the kernel, region hooks and
//! control ticks on them, and stores the state back before it returns, so
//! a caller that touches the nodes only between calls — the RM's power
//! reassignment, idle stepping, reads — sees plain [`NodeManager`]s. During
//! the drive agents write lane knobs and read lane signals through
//! [`ArbitratedNodes`], telemetry refreshes read the lanes, and every
//! node's per-step power sample still lands in its manager's history and
//! last-power reading. The lanes are bit-identical to the scalar
//! `Node::step` path, which stays the reference: the tests below run every
//! shipped agent both ways and compare results, energies, counters and
//! power histories bit for bit.
//!
//! Sub-steps are many (GEOPM's 100 ms control period cuts a 1 s quantum
//! into ten), so each is kept cheap:
//!
//! - the lanes memoize each operating point's model coefficients, and the
//!   kernel computes each busy node's work rate once per sub-step and
//!   reuses it for the node's advance;
//! - the runner owns one [`JobTelemetry`] and refreshes it in place before
//!   each due agent's control tick, still once per agent so a second
//!   co-resident agent sees the first one's knob writes, and not at all
//!   for an agent whose tick ignores it ([`RuntimeAgent::reads_telemetry`]);
//! - region hooks borrow the region name and mixture from the kernel;
//! - [`JobRunner::advance_boxed`] drives the agents the RM owns without a
//!   per-call slice of references.

use crate::agent::{ArbitratedNodes, JobTelemetry, RuntimeAgent, BARRIER_REGION};
use crate::arbiter::{AgentId, Arbiter, ArbiterMode};
use pstack_apps::workload::{Phase, Workload};
use pstack_apps::MpiModel;
use pstack_hwmodel::{NodeBatch, PhaseMix};
use pstack_node::{barrier_mix, idle_mix, Activity, Lockstep, NodeManager, Signal, StepBackend};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use std::borrow::BorrowMut;

/// Summary of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Wall-clock duration from start to completion.
    pub makespan: SimDuration,
    /// Total energy consumed by the job's nodes during the job, joules.
    pub energy_j: f64,
    /// Mean job power (energy / makespan), watts.
    pub avg_power_w: f64,
    /// Total application work completed.
    pub total_work: f64,
    /// Per-node seconds spent in barrier wait (the slack runtimes exploit).
    pub node_wait_s: Vec<f64>,
}

impl JobResult {
    /// Energy-delay product, J·s.
    pub fn edp(&self) -> f64 {
        self.energy_j * self.makespan.as_secs_f64()
    }

    /// Mean barrier-wait fraction across nodes.
    pub fn mean_wait_fraction(&self) -> f64 {
        let span = self.makespan.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.node_wait_s.iter().sum::<f64>() / (span * self.node_wait_s.len() as f64)
    }
}

/// The node engine a drive runs on: the kernel's backend, plus the
/// agents' control surface and signal reads over the same node state.
trait Engine: StepBackend {
    /// The arbitrated control surface for `agent` at `now`.
    fn ctl<'s>(
        &'s mut self,
        arbiter: &'s Arbiter,
        agent: AgentId,
        now: SimTime,
    ) -> ArbitratedNodes<'s>;

    /// Read a signal of node `node`.
    fn read(&self, node: usize, signal: Signal) -> f64;
}

/// The runner's lane set, kept across drives so the lanes' allocations and
/// memoized coefficients carry over.
struct Lanes {
    batch: NodeBatch,
    /// The batch's mixture id of each phase of the job.
    phase_mix: Vec<usize>,
    wait_mix: usize,
    idle_mix: usize,
    /// Cores each node runs (all of them: ranks fill whole nodes).
    cores: usize,
}

impl Lanes {
    /// Lanes for `nodes`, all of one configuration, running `phases`.
    ///
    /// # Panics
    /// Panics if the nodes' configurations differ.
    fn new(nodes: &[NodeManager], phases: &[Phase]) -> Self {
        let cfg = nodes[0].node().config();
        assert!(
            nodes.iter().all(|n| n.node().config() == cfg),
            "a job's nodes must share one configuration"
        );
        let mut batch = NodeBatch::new(cfg.clone());
        let phase_mix = phases.iter().map(|p| batch.register_mix(&p.mix)).collect();
        let wait_mix = batch.register_mix(&barrier_mix());
        let idle_mix = batch.register_mix(&idle_mix());
        Lanes {
            cores: cfg.total_cores(),
            batch,
            phase_mix,
            wait_mix,
            idle_mix,
        }
    }
}

/// The job's nodes with their state loaded into the runner's lanes.
struct LaneNodes<'a> {
    nodes: &'a mut [NodeManager],
    lanes: &'a mut Lanes,
}

impl StepBackend for LaneNodes<'_> {
    fn work_rate(&mut self, node: usize, index: usize, _phase: &Phase) -> f64 {
        let lanes = &mut *self.lanes;
        lanes
            .batch
            .work_rate(node, lanes.phase_mix[index], lanes.cores)
    }

    fn step(&mut self, node: usize, t: SimTime, dt: SimDuration, activity: Activity<'_>) {
        let lanes = &mut *self.lanes;
        let (mix, active) = match activity {
            Activity::Busy { index, .. } => (lanes.phase_mix[index], lanes.cores),
            Activity::Waiting => (lanes.wait_mix, lanes.cores),
            Activity::Idle => (lanes.idle_mix, 0),
        };
        let out = lanes.batch.step(node, t, dt, mix, active);
        self.nodes[node].record_power(t, out.power_w);
    }
}

impl Engine for LaneNodes<'_> {
    fn ctl<'s>(
        &'s mut self,
        arbiter: &'s Arbiter,
        agent: AgentId,
        now: SimTime,
    ) -> ArbitratedNodes<'s> {
        ArbitratedNodes::over_lanes(self.nodes, &mut self.lanes.batch, arbiter, agent, now)
    }

    fn read(&self, node: usize, signal: Signal) -> f64 {
        self.nodes[node].read_loaded(&self.lanes.batch, node, signal)
    }
}

/// The per-job execution driver.
///
/// # Example
///
/// ```
/// use pstack_apps::synthetic::{Profile, SyntheticApp};
/// use pstack_apps::workload::AppModel;
/// use pstack_apps::MpiModel;
/// use pstack_hwmodel::{Node, NodeConfig, NodeId};
/// use pstack_node::NodeManager;
/// use pstack_runtime::{ArbiterMode, JobRunner};
/// use pstack_sim::{SeedTree, SimTime};
///
/// let app = SyntheticApp::new(Profile::ComputeHeavy, 5.0, 5);
/// let mut nodes: Vec<NodeManager> = (0..2)
///     .map(|i| NodeManager::new(Node::nominal(NodeId(i), NodeConfig::server_default())))
///     .collect();
/// let seeds = SeedTree::new(1);
/// let mut runner = JobRunner::new(
///     &app.workload(2), 2, &MpiModel::typical(), &seeds, ArbiterMode::Gated,
/// );
/// let result = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut []);
/// assert!(result.makespan.as_secs_f64() > 0.0);
/// assert!(result.energy_j > 0.0);
/// ```
pub struct JobRunner {
    lockstep: Lockstep,
    /// The lane set, built on the first drive from the nodes' configuration
    /// (boxed: each drive takes it out and puts it back).
    lanes: Option<Box<Lanes>>,
    wait_mix: PhaseMix,
    arbiter: Arbiter,
    started: Option<SimTime>,
    completed_at: Option<SimTime>,
    start_energy: Vec<f64>,
    /// What agents see at control ticks, refreshed in place per tick.
    telemetry: JobTelemetry,
    next_control: Vec<SimTime>,
    /// Upper bound on one micro-step. Keeps the RAPL cap controllers and
    /// thermal integration responsive inside long application phases.
    max_substep: SimDuration,
}

impl JobRunner {
    /// Build a runner for `workload` replicated across `n_nodes` nodes with
    /// per-phase load imbalance drawn from `mpi` under `seeds`.
    ///
    /// Every phase is imbalance-scaled, communication phases included (see
    /// [`Lockstep::reset`]).
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero.
    pub fn new(
        workload: &Workload,
        n_nodes: usize,
        mpi: &MpiModel,
        seeds: &SeedTree,
        arbiter_mode: ArbiterMode,
    ) -> Self {
        JobRunner {
            lockstep: Lockstep::new(workload.clone(), n_nodes, mpi, seeds),
            lanes: None,
            start_energy: vec![0.0; n_nodes],
            telemetry: JobTelemetry {
                now: SimTime::ZERO,
                elapsed: SimDuration::ZERO,
                node_power_w: vec![0.0; n_nodes],
                node_progress: vec![0.0; n_nodes],
                node_wait_s: vec![0.0; n_nodes],
                node_freq_ghz: vec![0.0; n_nodes],
                node_energy_j: vec![0.0; n_nodes],
                current_regions: vec![None; n_nodes],
            },
            next_control: Vec::new(),
            wait_mix: barrier_mix(),
            arbiter: Arbiter::new(arbiter_mode),
            started: None,
            completed_at: None,
            max_substep: SimDuration::from_millis(250),
        }
    }
    /// Number of nodes this job runs on.
    pub fn n_nodes(&self) -> usize {
        self.lockstep.n_nodes()
    }

    /// Override the integration substep ceiling (default 250 ms). Coarser
    /// substeps trade power-model resolution for wall-clock speed at fleet
    /// scale; the choice is part of the simulation's deterministic inputs.
    pub fn set_max_substep(&mut self, substep: SimDuration) {
        assert!(!substep.is_zero(), "substep must be positive");
        self.max_substep = substep;
    }

    /// Whether every phase on every node has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// When the job completed, if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// The knob-ownership arbiter (inspectable for tests).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Total application work completed so far across all nodes.
    pub fn work_done_total(&self) -> f64 {
        self.lockstep.work_done().iter().sum()
    }

    /// Fraction of total work completed so far, in `[0, 1]`.
    pub fn progress_fraction(&self) -> f64 {
        let done = self.work_done_total();
        let remaining: f64 = (0..self.n_nodes())
            .map(|i| self.lockstep.remaining_total(i))
            .sum();
        if done + remaining <= 0.0 {
            1.0
        } else {
            done / (done + remaining)
        }
    }

    fn start<'a, E: Engine, A: BorrowMut<dyn RuntimeAgent + 'a>>(
        &mut self,
        now: SimTime,
        engine: &mut E,
        agents: &mut [A],
    ) {
        self.started = Some(now);
        for (i, e) in self.start_energy.iter_mut().enumerate() {
            *e = engine.read(i, Signal::NodeEnergyJoules);
        }
        self.next_control = agents
            .iter()
            .map(|a| now + a.borrow().control_period())
            .collect();
        for (ai, agent) in agents.iter_mut().enumerate() {
            let agent = agent.borrow_mut();
            for knob in agent.knobs() {
                self.arbiter.claim(ai, knob);
            }
            agent.on_job_start(&mut engine.ctl(&self.arbiter, ai, now));
        }
    }

    /// Bring the runner's telemetry up to `now`, in place. A region name is
    /// copied into its node's existing `String` only when it changed, so a
    /// tick allocates nothing once each node has held its longest name.
    fn refresh_telemetry<E: Engine>(&mut self, now: SimTime, engine: &E) {
        let tel = &mut self.telemetry;
        tel.now = now;
        tel.elapsed = now.since(self.started.expect("started"));
        tel.node_progress.copy_from_slice(self.lockstep.work_done());
        tel.node_wait_s.copy_from_slice(self.lockstep.wait_s());
        for i in 0..self.start_energy.len() {
            tel.node_power_w[i] = engine.read(i, Signal::NodePowerWatts);
            tel.node_freq_ghz[i] = engine.read(i, Signal::CoreFreqGhz);
            tel.node_energy_j[i] = engine.read(i, Signal::NodeEnergyJoules) - self.start_energy[i];
        }
        for (i, slot) in tel.current_regions.iter_mut().enumerate() {
            let region = region_of(self.lockstep.activity(i), &self.wait_mix).map(|(r, _)| r);
            match (slot.as_mut(), region) {
                (Some(held), Some(r)) => {
                    if held != r {
                        held.clear();
                        held.push_str(r);
                    }
                }
                (_, r) => *slot = r.map(str::to_string),
            }
        }
    }

    /// Advance the job from `now` toward `horizon`.
    ///
    /// Returns the simulated time actually reached: `horizon`, or earlier if
    /// the job completed. `nodes` must be the same slice (same order) on
    /// every call; `agents` likewise. The nodes' state is in the runner's
    /// lanes for the call's span and back in `nodes` when it returns.
    ///
    /// # Panics
    /// Panics if `horizon < now`, if the node count mismatches the job's, or
    /// if the nodes' configurations differ.
    pub fn advance(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        nodes: &mut [NodeManager],
        agents: &mut [&mut dyn RuntimeAgent],
    ) -> SimTime {
        self.drive(now, horizon, nodes, agents)
    }

    /// [`JobRunner::advance`] over agents the caller owns (as the RM holds
    /// them), with no slice of references built per call.
    pub fn advance_boxed(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        nodes: &mut [NodeManager],
        agents: &mut [Box<dyn RuntimeAgent>],
    ) -> SimTime {
        self.drive(now, horizon, nodes, agents)
    }

    /// Load the nodes into the lanes, run the sub-step loop on them and
    /// store them back: the body of [`JobRunner::advance`] and
    /// [`JobRunner::advance_boxed`].
    fn drive<'a, A: BorrowMut<dyn RuntimeAgent + 'a>>(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        nodes: &mut [NodeManager],
        agents: &mut [A],
    ) -> SimTime {
        assert!(horizon >= now, "horizon before now");
        assert_eq!(nodes.len(), self.n_nodes(), "node count mismatch");
        if self.is_complete() {
            return now;
        }
        let mut lanes = match self.lanes.take() {
            Some(lanes) => lanes,
            None => Box::new(Lanes::new(nodes, self.lockstep.phases())),
        };
        lanes
            .batch
            .load(nodes.iter_mut().map(NodeManager::node_mut));
        let reached = self.run(
            now,
            horizon,
            &mut LaneNodes {
                nodes,
                lanes: &mut lanes,
            },
            agents,
        );
        lanes
            .batch
            .store(nodes.iter_mut().map(NodeManager::node_mut));
        self.lanes = Some(lanes);
        reached
    }

    /// The sub-step loop, on whichever engine holds the nodes' state.
    fn run<'a, E: Engine, A: BorrowMut<dyn RuntimeAgent + 'a>>(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        engine: &mut E,
        agents: &mut [A],
    ) -> SimTime {
        if self.started.is_none() {
            self.start(now, engine, agents);
        }
        let mut t = now;
        while t < horizon && !self.is_complete() {
            self.fire_region_hooks(t, engine, agents);

            let mut cap = horizon.since(t).min(self.max_substep);
            for &nc in &self.next_control {
                if nc > t {
                    cap = cap.min(nc.since(t));
                }
            }
            let step = self.lockstep.step(t, cap, engine);
            t += step.dt;
            if step.completed {
                self.completed_at = Some(t);
                for (ai, agent) in agents.iter_mut().enumerate() {
                    agent
                        .borrow_mut()
                        .on_job_end(&mut engine.ctl(&self.arbiter, ai, t));
                }
                break;
            }

            // Control ticks, each on telemetry refreshed after the previous
            // agent's knob writes (unless the agent ignores it).
            for (ai, agent) in agents.iter_mut().enumerate() {
                if self.next_control[ai] <= t {
                    let agent = agent.borrow_mut();
                    if agent.reads_telemetry() {
                        self.refresh_telemetry(t, engine);
                        #[cfg(test)]
                        tests::assert_fresh_telemetry(self, t, engine);
                    }
                    agent.on_control(t, &self.telemetry, &mut engine.ctl(&self.arbiter, ai, t));
                    self.next_control[ai] = t + agent.control_period();
                }
            }
        }
        t
    }

    /// Announce each region a node entered since the last sub-step — its
    /// phase, or the barrier wait after it — to every agent.
    fn fire_region_hooks<'a, E: Engine, A: BorrowMut<dyn RuntimeAgent + 'a>>(
        &mut self,
        t: SimTime,
        engine: &mut E,
        agents: &mut [A],
    ) {
        for i in 0..self.n_nodes() {
            let entered = self.lockstep.take_entry(i);
            let Some((region, mix)) = entered.and_then(|a| region_of(a, &self.wait_mix)) else {
                continue;
            };
            for (ai, agent) in agents.iter_mut().enumerate() {
                agent.borrow_mut().on_region_enter(
                    t,
                    i,
                    region,
                    mix,
                    &mut engine.ctl(&self.arbiter, ai, t),
                );
            }
        }
    }

    /// Run the job to completion with no horizon (convenience for tests,
    /// examples, and single-job experiments).
    pub fn run_to_completion(
        &mut self,
        start: SimTime,
        nodes: &mut [NodeManager],
        agents: &mut [&mut dyn RuntimeAgent],
    ) -> JobResult {
        let mut t = start;
        while !self.is_complete() {
            let next = self.advance(t, t + SimDuration::from_secs(60), nodes, agents);
            assert!(
                next > t || self.is_complete(),
                "job made no progress in a 60 s quantum"
            );
            t = next;
        }
        self.result(nodes).expect("complete")
    }

    /// The job's result once complete; `None` while still running.
    pub fn result(&self, nodes: &[NodeManager]) -> Option<JobResult> {
        let end = self.completed_at?;
        let start = self.started?;
        let makespan = end.since(start);
        let energy_j: f64 = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| n.read(Signal::NodeEnergyJoules) - self.start_energy[i])
            .sum();
        let span = makespan.as_secs_f64();
        Some(JobResult {
            makespan,
            energy_j,
            avg_power_w: if span > 0.0 { energy_j / span } else { 0.0 },
            total_work: self.work_done_total(),
            node_wait_s: self.lockstep.wait_s().to_vec(),
        })
    }
}

/// The region a node is in, with its mixture: its phase's, the barrier-wait
/// pseudo-region, or none once the job has completed.
fn region_of<'a>(
    activity: Activity<'a>,
    wait_mix: &'a PhaseMix,
) -> Option<(&'a str, &'a PhaseMix)> {
    match activity {
        Activity::Busy { phase, .. } => Some((phase.region.as_str(), &phase.mix)),
        Activity::Waiting => Some((BARRIER_REGION, wait_mix)),
        Activity::Idle => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Conductor, Countdown, CountdownMode, DutyCycleAdapter, Geopm, GeopmPolicy, Meric,
        UncoreScavenger,
    };
    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_apps::workload::AppModel;
    use pstack_hwmodel::{Node, NodeConfig, NodeId, VariationModel};
    use pstack_node::ScalarNodes;
    use std::cell::Cell;
    use std::collections::HashMap;

    thread_local! {
        /// Telemetry refreshes checked on this thread.
        static TELEMETRY_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    /// The reference engine: the nodes step their own scalar `Node`s and
    /// agents act on the managers directly.
    struct ScalarEngine<'a>(ScalarNodes<'a>);

    impl StepBackend for ScalarEngine<'_> {
        fn work_rate(&mut self, node: usize, index: usize, phase: &Phase) -> f64 {
            self.0.work_rate(node, index, phase)
        }

        fn step(&mut self, node: usize, t: SimTime, dt: SimDuration, activity: Activity<'_>) {
            self.0.step(node, t, dt, activity);
        }
    }

    impl Engine for ScalarEngine<'_> {
        fn ctl<'s>(
            &'s mut self,
            arbiter: &'s Arbiter,
            agent: AgentId,
            now: SimTime,
        ) -> ArbitratedNodes<'s> {
            ArbitratedNodes::new(self.0.nodes_mut(), arbiter, agent, now)
        }

        fn read(&self, node: usize, signal: Signal) -> f64 {
            self.0.nodes()[node].read(signal)
        }
    }

    impl JobRunner {
        /// [`JobRunner::advance_boxed`] on the scalar reference engine.
        fn advance_scalar(
            &mut self,
            now: SimTime,
            horizon: SimTime,
            nodes: &mut [NodeManager],
            agents: &mut [Box<dyn RuntimeAgent>],
        ) -> SimTime {
            assert_eq!(nodes.len(), self.n_nodes(), "node count mismatch");
            if self.is_complete() {
                return now;
            }
            let mut engine = ScalarEngine(ScalarNodes::new(nodes));
            self.run(now, horizon, &mut engine, agents)
        }
    }

    /// A fresh telemetry snapshot built from scratch, as the runner did
    /// before it kept one buffer: the oracle for the in-place refresh.
    fn built_telemetry<E: Engine>(r: &JobRunner, now: SimTime, engine: &E) -> JobTelemetry {
        let nodes = 0..r.n_nodes();
        JobTelemetry {
            now,
            elapsed: now.since(r.started.expect("started")),
            node_power_w: nodes
                .clone()
                .map(|i| engine.read(i, Signal::NodePowerWatts))
                .collect(),
            node_progress: r.lockstep.work_done().to_vec(),
            node_wait_s: r.lockstep.wait_s().to_vec(),
            node_freq_ghz: nodes
                .clone()
                .map(|i| engine.read(i, Signal::CoreFreqGhz))
                .collect(),
            node_energy_j: nodes
                .map(|i| engine.read(i, Signal::NodeEnergyJoules) - r.start_energy[i])
                .collect(),
            current_regions: (0..r.n_nodes())
                .map(|i| match r.lockstep.activity(i) {
                    Activity::Busy { phase, .. } => Some(phase.region.clone()),
                    Activity::Waiting => Some(BARRIER_REGION.to_string()),
                    Activity::Idle => None,
                })
                .collect(),
        }
    }

    /// Every field of `t`, with each float as its bits.
    #[allow(clippy::type_complexity)]
    fn telemetry_bits(
        t: &JobTelemetry,
    ) -> (SimTime, SimDuration, [Vec<u64>; 5], Vec<Option<String>>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            t.now,
            t.elapsed,
            [
                bits(&t.node_power_w),
                bits(&t.node_progress),
                bits(&t.node_wait_s),
                bits(&t.node_freq_ghz),
                bits(&t.node_energy_j),
            ],
            t.current_regions.clone(),
        )
    }

    /// Called by the runner after every telemetry refresh of a test build,
    /// with the telemetry it is about to hand the agent.
    pub(super) fn assert_fresh_telemetry<E: Engine>(r: &JobRunner, now: SimTime, engine: &E) {
        assert_eq!(
            telemetry_bits(&r.telemetry),
            telemetry_bits(&built_telemetry(r, now, engine)),
            "refreshed telemetry differs from a fresh build at {now:?}"
        );
        TELEMETRY_CHECKS.with(|c| c.set(c.get() + 1));
    }

    /// Number of agent kits [`kit`] builds.
    const KITS: usize = 11;

    /// Agent kit `k`: every shipped agent alone (GEOPM under each policy),
    /// then the COUNTDOWN+MERIC pair sharing one arbiter. Agents keep
    /// per-job state, so every job gets a fresh kit.
    fn kit(k: usize) -> (&'static str, Vec<Box<dyn RuntimeAgent>>) {
        let geopm =
            |p: GeopmPolicy| -> Vec<Box<dyn RuntimeAgent>> { vec![Box::new(Geopm::new(p))] };
        match k {
            0 => ("geopm monitor", geopm(GeopmPolicy::Monitor)),
            1 => (
                "geopm governor",
                geopm(GeopmPolicy::PowerGovernor { node_cap_w: 300.0 }),
            ),
            2 => (
                "geopm balancer",
                geopm(GeopmPolicy::PowerBalancer {
                    job_budget_w: 900.0,
                }),
            ),
            3 => (
                "geopm frequency map",
                geopm(GeopmPolicy::FrequencyMap {
                    default_ghz: 2.8,
                    map: HashMap::from([("dgemm_like".to_string(), 2.0)]),
                }),
            ),
            4 => (
                "geopm energy efficient",
                geopm(GeopmPolicy::EnergyEfficient { perf_margin: 0.2 }),
            ),
            5 => (
                "countdown",
                vec![Box::new(Countdown::new(CountdownMode::WaitAndCopy))],
            ),
            6 => ("meric", vec![Box::new(Meric::new())]),
            7 => (
                "conductor",
                vec![Box::new(Conductor::new(
                    crate::conductor::ConductorConfig::with_budget(900.0),
                ))],
            ),
            8 => ("duty cycle", vec![Box::new(DutyCycleAdapter::new())]),
            9 => ("scavenger", vec![Box::new(UncoreScavenger::new())]),
            _ => (
                "countdown+meric",
                vec![
                    Box::new(Countdown::new(CountdownMode::WaitAndCopy)),
                    Box::new(Meric::new().with_comm_delegation()),
                ],
            ),
        }
    }

    fn fleet(n: usize) -> Vec<NodeManager> {
        (0..n)
            .map(|i| NodeManager::new(Node::nominal(NodeId(i), NodeConfig::server_default())))
            .collect()
    }

    fn run_app(app: &dyn AppModel, n_nodes: usize, seed: u64) -> JobResult {
        let mut nodes = fleet(n_nodes);
        let seeds = SeedTree::new(seed);
        let mut runner = JobRunner::new(
            &app.workload(n_nodes),
            n_nodes,
            &MpiModel::typical(),
            &seeds,
            ArbiterMode::Gated,
        );
        runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut [])
    }

    #[test]
    fn single_node_job_completes_with_expected_makespan() {
        // 60 work units of compute at reference speed ≈ 60 s at 2.4 GHz;
        // nodes default to 3.5 GHz so it should be meaningfully faster.
        let app = SyntheticApp::new(Profile::ComputeHeavy, 60.0, 10);
        let r = run_app(&app, 1, 1);
        let secs = r.makespan.as_secs_f64();
        assert!(
            (30.0..60.0).contains(&secs),
            "makespan {secs}s at turbo for 60 ref-seconds of compute"
        );
        assert!(r.energy_j > 0.0);
        assert!(r.avg_power_w > 100.0);
    }

    #[test]
    fn multi_node_job_has_barrier_wait() {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 30.0, 20);
        let r = run_app(&app, 4, 2);
        // Imbalance guarantees nonzero slack on the faster ranks.
        assert!(
            r.mean_wait_fraction() > 0.005,
            "wait fraction {}",
            r.mean_wait_fraction()
        );
        assert!(r.mean_wait_fraction() < 0.5);
    }

    #[test]
    fn work_conservation() {
        let app = SyntheticApp::new(Profile::Mixed, 20.0, 10);
        let n = 2;
        let mut nodes = fleet(n);
        let seeds = SeedTree::new(3);
        let w = app.workload(n);
        let mut runner = JobRunner::new(&w, n, &MpiModel::typical(), &seeds, ArbiterMode::Gated);
        let r = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut []);
        // Total completed work ≈ sum of imbalance-scaled per-node workloads,
        // which is within the imbalance spread of n × per-node work.
        assert!(
            (r.total_work - n as f64 * w.total_work()).abs() / (n as f64 * w.total_work()) < 0.1,
            "work {} vs expected {}",
            r.total_work,
            n as f64 * w.total_work()
        );
        assert!(runner.is_complete());
        assert!((runner.progress_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let app = SyntheticApp::new(Profile::Mixed, 15.0, 8);
        let a = run_app(&app, 3, 7);
        let b = run_app(&app, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_is_respected() {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 600.0, 10);
        let mut nodes = fleet(1);
        let seeds = SeedTree::new(4);
        let mut runner = JobRunner::new(
            &app.workload(1),
            1,
            &MpiModel::typical(),
            &seeds,
            ArbiterMode::Gated,
        );
        let reached = runner.advance(SimTime::ZERO, SimTime::from_secs(10), &mut nodes, &mut []);
        assert_eq!(reached, SimTime::from_secs(10));
        assert!(!runner.is_complete());
        let p = runner.progress_fraction();
        assert!(p > 0.0 && p < 0.2, "progress {p}");
    }

    #[test]
    fn region_hooks_fire_in_order() {
        struct Recorder {
            regions: Vec<String>,
        }
        impl RuntimeAgent for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn knobs(&self) -> Vec<crate::agent::KnobKind> {
                vec![]
            }
            fn on_region_enter(
                &mut self,
                _now: SimTime,
                node: usize,
                region: &str,
                _mix: &PhaseMix,
                _ctl: &mut ArbitratedNodes<'_>,
            ) {
                if node == 0 {
                    self.regions.push(region.to_string());
                }
            }
        }
        let app = SyntheticApp::new(Profile::ComputeHeavy, 4.0, 2);
        let mut nodes = fleet(1);
        let seeds = SeedTree::new(5);
        let mut runner = JobRunner::new(
            &app.workload(1),
            1,
            &MpiModel::typical(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut rec = Recorder { regions: vec![] };
        {
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut rec];
            runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents);
        }
        // 2 iterations × (dgemm_like, exchange); single node barriers release
        // instantly so no barrier regions are observed between phases.
        let non_barrier: Vec<&String> = rec
            .regions
            .iter()
            .filter(|r| r.as_str() != BARRIER_REGION)
            .collect();
        assert_eq!(
            non_barrier
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<&str>>(),
            vec!["dgemm_like", "exchange", "dgemm_like", "exchange"]
        );
    }

    #[test]
    fn control_hook_fires_periodically() {
        struct Counter {
            calls: usize,
        }
        impl RuntimeAgent for Counter {
            fn name(&self) -> &str {
                "counter"
            }
            fn knobs(&self) -> Vec<crate::agent::KnobKind> {
                vec![]
            }
            fn control_period(&self) -> SimDuration {
                SimDuration::from_secs(1)
            }
            fn on_control(
                &mut self,
                _now: SimTime,
                telemetry: &JobTelemetry,
                _ctl: &mut ArbitratedNodes<'_>,
            ) {
                assert!(telemetry.total_power_w() > 0.0);
                self.calls += 1;
            }
        }
        let app = SyntheticApp::new(Profile::ComputeHeavy, 30.0, 5);
        let mut nodes = fleet(1);
        let seeds = SeedTree::new(6);
        let mut runner = JobRunner::new(
            &app.workload(1),
            1,
            &MpiModel::typical(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut counter = Counter { calls: 0 };
        let makespan;
        {
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut counter];
            let r = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents);
            makespan = r.makespan.as_secs_f64();
        }
        let expected = makespan.floor() as usize;
        assert!(
            (counter.calls as i64 - expected as i64).abs() <= 2,
            "{} control calls over {makespan}s",
            counter.calls
        );
    }

    /// Every shipped agent, alone and as the COUNTDOWN+MERIC pair sharing
    /// one arbiter, on varied multi-node jobs: each telemetry refresh
    /// equals a fresh build bit for bit (checked inside the runner), the
    /// runner refreshes before exactly the ticks of agents that read
    /// telemetry, and the regions it reports pass through barriers and
    /// completion.
    #[test]
    fn refreshed_telemetry_matches_a_fresh_build_under_every_agent() {
        /// Forwards every hook and records, per tick, whether the agent
        /// reads telemetry and the regions it saw.
        struct Watch<'a> {
            inner: &'a mut dyn RuntimeAgent,
            ticks: usize,
            seen: Vec<Option<String>>,
        }
        impl RuntimeAgent for Watch<'_> {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn knobs(&self) -> Vec<crate::agent::KnobKind> {
                self.inner.knobs()
            }
            fn control_period(&self) -> SimDuration {
                self.inner.control_period()
            }
            fn on_job_start(&mut self, ctl: &mut ArbitratedNodes<'_>) {
                self.inner.on_job_start(ctl);
            }
            fn on_region_enter(
                &mut self,
                now: SimTime,
                node: usize,
                region: &str,
                mix: &PhaseMix,
                ctl: &mut ArbitratedNodes<'_>,
            ) {
                self.inner.on_region_enter(now, node, region, mix, ctl);
            }
            fn reads_telemetry(&self) -> bool {
                self.inner.reads_telemetry()
            }
            fn on_control(
                &mut self,
                now: SimTime,
                telemetry: &JobTelemetry,
                ctl: &mut ArbitratedNodes<'_>,
            ) {
                self.ticks += 1;
                if self.inner.reads_telemetry() {
                    self.seen.extend(telemetry.current_regions.iter().cloned());
                }
                self.inner.on_control(now, telemetry, ctl);
            }
            fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
                self.inner.on_job_end(ctl);
            }
        }

        for k in 0..KITS {
            for (profile, n, seed) in [(Profile::Mixed, 3, 11), (Profile::CommHeavy, 4, 12)] {
                let (name, mut agents) = kit(k);
                let app = SyntheticApp::new(profile, 12.0, 6);
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
                let mut watches: Vec<Watch<'_>> = agents
                    .iter_mut()
                    .map(|a| Watch {
                        inner: a.as_mut(),
                        ticks: 0,
                        seen: Vec::new(),
                    })
                    .collect();
                let before = TELEMETRY_CHECKS.with(Cell::get);
                {
                    let mut refs: Vec<&mut dyn RuntimeAgent> = watches
                        .iter_mut()
                        .map(|w| w as &mut dyn RuntimeAgent)
                        .collect();
                    let mut t = SimTime::ZERO;
                    // Odd horizons split sub-steps across calls as the RM does.
                    while !runner.is_complete() {
                        t = runner.advance(
                            t,
                            t + SimDuration::from_millis(730),
                            &mut nodes,
                            &mut refs,
                        );
                    }
                }
                let checks = TELEMETRY_CHECKS.with(Cell::get) - before;
                let ticks: usize = watches.iter().map(|w| w.ticks).sum();
                let refreshed: usize = watches.iter().map(|w| w.seen.len() / n).sum();
                assert!(ticks > 10, "{name}: only {ticks} control ticks");
                assert_eq!(checks, refreshed, "{name}: every refresh is checked");
                for w in &watches {
                    let expect = if w.inner.reads_telemetry() {
                        w.ticks
                    } else {
                        0
                    };
                    assert_eq!(
                        w.seen.len() / n,
                        expect,
                        "{name}: refreshes of {}",
                        w.name()
                    );
                }
                if refreshed > 0 {
                    let seen = watches.iter().flat_map(|w| w.seen.iter());
                    let (mut barrier, mut phase) = (0, 0);
                    for r in seen {
                        match r.as_deref() {
                            Some(BARRIER_REGION) => barrier += 1,
                            Some(_) => phase += 1,
                            None => {}
                        }
                    }
                    assert!(
                        barrier > 0 && phase > 0,
                        "{name}: regions {barrier} barrier, {phase} phase"
                    );
                }
                // Every node completes at the final barrier release, so no
                // tick sees a finished node; a refresh after completion
                // clears every region. The nodes hold their state again.
                let end = runner.completed_at().expect("complete");
                let engine = ScalarEngine(ScalarNodes::new(&mut nodes));
                runner.refresh_telemetry(end, &engine);
                assert_fresh_telemetry(&runner, end, &engine);
                assert!(runner.telemetry.current_regions.iter().all(Option::is_none));
            }
        }
    }

    /// Every shipped agent, alone and as the COUNTDOWN+MERIC pair, on
    /// varied fleets — manufacturing variation, inlet gradients up to
    /// 85 °C, capped and uncapped starts, horizons that split sub-steps
    /// across calls: the job stepped on lanes matches the same
    /// job on the scalar reference engine bit for bit. That covers the
    /// result, and every node in full — energy, counters, package state,
    /// cap controllers, frequency bookkeeping and every power-history
    /// sample.
    #[test]
    fn lanes_match_the_scalar_reference_under_every_agent() {
        let shapes = [
            (Profile::Mixed, 3, 21, None, 25.0),
            (Profile::CommHeavy, 4, 22, Some(330.0), 30.0),
            (Profile::ComputeHeavy, 2, 23, None, 85.0),
        ];
        for k in 0..KITS {
            for (profile, n, seed, cap, hot_c) in shapes {
                let app = SyntheticApp::new(profile, 12.0, 6);
                let build = || {
                    let seeds = SeedTree::new(seed);
                    let mut nodes = NodeManager::fleet_with_thermal_gradient(
                        n,
                        NodeConfig::server_default(),
                        &VariationModel::typical(),
                        &seeds,
                        20.0,
                        hot_c,
                    );
                    if let Some(w) = cap {
                        for nm in &mut nodes {
                            nm.set_power_limit(SimTime::ZERO, w, SimDuration::from_millis(10));
                        }
                    }
                    let runner = JobRunner::new(
                        &app.workload(n),
                        n,
                        &MpiModel::typical(),
                        &seeds.subtree("job"),
                        ArbiterMode::Gated,
                    );
                    (nodes, runner, kit(k))
                };
                let (mut lane_nodes, mut lanes, (name, mut lane_agents)) = build();
                let (mut ref_nodes, mut reference, (_, mut ref_agents)) = build();
                let (mut t, mut u) = (SimTime::ZERO, SimTime::ZERO);
                let mut calls = 0;
                while !lanes.is_complete() || !reference.is_complete() {
                    let horizon = t + SimDuration::from_millis(730);
                    t = lanes.advance_boxed(t, horizon, &mut lane_nodes, &mut lane_agents);
                    u = reference.advance_scalar(u, horizon, &mut ref_nodes, &mut ref_agents);
                    assert_eq!(t, u, "{name}: reached times");
                    calls += 1;
                    // Between calls the managers hold the whole state.
                    for (i, (a, b)) in lane_nodes.iter().zip(&ref_nodes).enumerate() {
                        assert_eq!(
                            format!("{a:?}"),
                            format!("{b:?}"),
                            "{name}: node {i} after call {calls}"
                        );
                    }
                }
                assert!(calls > 5, "{name}: {calls} calls");
                let (a, b) = (lanes.result(&lane_nodes), reference.result(&ref_nodes));
                let (a, b) = (a.expect("complete"), b.expect("complete"));
                assert_eq!(a.makespan, b.makespan, "{name}");
                assert_eq!(
                    [a.energy_j, a.avg_power_w, a.total_work].map(f64::to_bits),
                    [b.energy_j, b.avg_power_w, b.total_work].map(f64::to_bits),
                    "{name}: result"
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.node_wait_s), bits(&b.node_wait_s), "{name}: waits");
                for (i, (a, b)) in lane_nodes.iter().zip(&ref_nodes).enumerate() {
                    let samples = |nm: &NodeManager| {
                        nm.power_history()
                            .samples()
                            .iter()
                            .map(|s| (s.time, s.value.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(samples(a), samples(b), "{name}: node {i} power history");
                    assert!(!samples(a).is_empty());
                    for signal in Signal::ALL {
                        assert_eq!(
                            a.read(signal).to_bits(),
                            b.read(signal).to_bits(),
                            "{name}: node {i} {signal:?}"
                        );
                    }
                }
            }
        }
    }
}
