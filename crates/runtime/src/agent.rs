//! The runtime-agent interface and the arbitrated control facade.
//!
//! A [`RuntimeAgent`] is a job-level tuner (GEOPM-, COUNTDOWN-, MERIC-like).
//! It receives hooks from the [`crate::exec::JobRunner`] — job start/end,
//! region entries (PMPI/OMPT-interception-style) and periodic control — and
//! actuates node knobs through [`ArbitratedNodes`], which enforces knob
//! ownership (the §3.2.7 conflict-avoidance layer).

use crate::arbiter::{AgentId, Arbiter};
use pstack_hwmodel::{DutyCycle, NodeBatch, PhaseMix};
use pstack_node::{NodeManager, Signal};
use pstack_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Hardware knob categories subject to arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KnobKind {
    /// Core frequency limit (DVFS).
    CoreFreq,
    /// Temporary MPI-phase frequency override, stacked under [`KnobKind::CoreFreq`]
    /// (effective = min of the two) — the §3.2.7 coexistence slot.
    MpiFreqOverride,
    /// Uncore frequency.
    Uncore,
    /// Duty-cycle (clock) modulation.
    Duty,
    /// Node/package power cap.
    PowerCap,
}

impl KnobKind {
    /// Every knob kind, in declaration order (the [`Arbiter`] table index).
    pub const ALL: [KnobKind; 5] = [
        KnobKind::CoreFreq,
        KnobKind::MpiFreqOverride,
        KnobKind::Uncore,
        KnobKind::Duty,
        KnobKind::PowerCap,
    ];
}

/// Telemetry snapshot handed to agents at control time. All per-node vectors
/// are indexed by the job-local node index; values are cumulative since job
/// start, so agents compute their own window deltas.
#[derive(Debug, Clone)]
pub struct JobTelemetry {
    /// Current simulated time.
    pub now: SimTime,
    /// Time since job start.
    pub elapsed: SimDuration,
    /// Per-node instantaneous power, watts.
    pub node_power_w: Vec<f64>,
    /// Per-node cumulative work completed.
    pub node_progress: Vec<f64>,
    /// Per-node cumulative seconds spent waiting at MPI barriers.
    pub node_wait_s: Vec<f64>,
    /// Per-node effective core frequency, GHz.
    pub node_freq_ghz: Vec<f64>,
    /// Per-node cumulative energy attributable to this job, joules.
    pub node_energy_j: Vec<f64>,
    /// Region each node is currently in (`None` once complete).
    pub current_regions: Vec<Option<String>>,
}

impl JobTelemetry {
    /// Total job power, watts.
    pub fn total_power_w(&self) -> f64 {
        self.node_power_w.iter().sum()
    }

    /// Total job energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.node_energy_j.iter().sum()
    }

    /// Index of the node with the least progress (the straggler).
    pub fn straggler(&self) -> usize {
        self.node_progress
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty job")
    }
}

/// Arbitrated control surface over the job's nodes.
///
/// Every setter returns whether the write was applied; `false` means the
/// arbiter rejected it because another agent owns the knob.
///
/// During a [`JobRunner`](crate::exec::JobRunner) drive the nodes' state
/// sits in the runner's `NodeBatch` lanes: knob writes go to the lanes and
/// signals are read from them. The frequency limit and MPI override stay
/// bookkept in each [`NodeManager`], which computes the frequency the lanes
/// then request.
pub struct ArbitratedNodes<'a> {
    nodes: &'a mut [NodeManager],
    /// The lanes holding the nodes' state, while a drive has them loaded.
    lanes: Option<&'a mut NodeBatch>,
    arbiter: &'a Arbiter,
    agent: AgentId,
    now: SimTime,
}

impl<'a> ArbitratedNodes<'a> {
    /// Build the facade for one agent over nodes that hold their own state.
    pub fn new(
        nodes: &'a mut [NodeManager],
        arbiter: &'a Arbiter,
        agent: AgentId,
        now: SimTime,
    ) -> Self {
        ArbitratedNodes {
            nodes,
            lanes: None,
            arbiter,
            agent,
            now,
        }
    }

    /// Build the facade for one agent over nodes whose state is loaded into
    /// `lanes`, node `i` into lane node `i` (the runner's drive).
    pub(crate) fn over_lanes(
        nodes: &'a mut [NodeManager],
        lanes: &'a mut NodeBatch,
        arbiter: &'a Arbiter,
        agent: AgentId,
        now: SimTime,
    ) -> Self {
        ArbitratedNodes {
            nodes,
            lanes: Some(lanes),
            arbiter,
            agent,
            now,
        }
    }

    /// After a frequency knob write on node `idx`, request its frequency on
    /// the lanes too.
    fn sync_freq(&mut self, idx: usize) {
        if let Some(lanes) = &mut self.lanes {
            lanes.set_freq_ghz(idx, self.nodes[idx].requested_freq_ghz());
        }
    }

    /// Number of nodes in the job.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read a signal from node `idx` (reads are never arbitrated).
    pub fn read(&self, idx: usize, signal: Signal) -> f64 {
        match &self.lanes {
            Some(lanes) => self.nodes[idx].read_loaded(lanes, idx, signal),
            None => self.nodes[idx].read(signal),
        }
    }

    /// Set a core-frequency ceiling on node `idx`.
    pub fn set_freq_limit_ghz(&mut self, idx: usize, ghz: f64) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::CoreFreq) {
            return false;
        }
        self.nodes[idx].set_freq_limit_ghz(ghz);
        self.sync_freq(idx);
        true
    }

    /// Release the core-frequency ceiling on node `idx`.
    pub fn clear_freq_limit(&mut self, idx: usize) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::CoreFreq) {
            return false;
        }
        self.nodes[idx].clear_freq_limit();
        self.sync_freq(idx);
        true
    }

    /// Apply a temporary MPI frequency override on node `idx` (stacked under
    /// the base limit; releasing it never disturbs the base limit).
    pub fn set_mpi_freq_override(&mut self, idx: usize, ghz: f64) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::MpiFreqOverride) {
            return false;
        }
        self.nodes[idx].set_freq_override_ghz(ghz);
        self.sync_freq(idx);
        true
    }

    /// Release the MPI frequency override on node `idx`.
    pub fn clear_mpi_freq_override(&mut self, idx: usize) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::MpiFreqOverride) {
            return false;
        }
        self.nodes[idx].clear_freq_override();
        self.sync_freq(idx);
        true
    }

    /// Set the uncore frequency index on node `idx`.
    pub fn set_uncore_idx(&mut self, idx: usize, uncore: usize) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::Uncore) {
            return false;
        }
        match &mut self.lanes {
            Some(lanes) => lanes.set_uncore_idx(idx, uncore),
            None => self.nodes[idx].set_uncore_idx(uncore),
        }
        true
    }

    /// Set duty-cycle modulation on node `idx`.
    pub fn set_duty(&mut self, idx: usize, duty: DutyCycle) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::Duty) {
            return false;
        }
        match &mut self.lanes {
            Some(lanes) => lanes.set_duty(idx, duty),
            None => self.nodes[idx].set_duty(duty),
        }
        true
    }

    /// Set a node power cap on node `idx`, watts.
    pub fn set_power_cap(&mut self, idx: usize, watts: f64, window: SimDuration) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::PowerCap) {
            return false;
        }
        match &mut self.lanes {
            Some(lanes) => lanes.set_power_cap(idx, self.now, watts, window),
            None => self.nodes[idx].set_power_limit(self.now, watts, window),
        }
        true
    }

    /// Remove the node power cap on node `idx`.
    pub fn clear_power_cap(&mut self, idx: usize) -> bool {
        if !self.arbiter.allows(self.agent, KnobKind::PowerCap) {
            return false;
        }
        match &mut self.lanes {
            Some(lanes) => lanes.clear_power_cap(idx),
            None => self.nodes[idx].clear_power_limit(),
        }
        true
    }
}

/// A job-level runtime system.
///
/// `Send` is a supertrait: agents ride inside running jobs, and fleet-scale
/// drains partition enclaves (with their running jobs) across worker
/// threads ([`EnclaveSet::run_until_drained_parallel`] in `pstack-rm`).
pub trait RuntimeAgent: Send {
    /// Runtime name for traces and reports.
    fn name(&self) -> &str;

    /// The knob kinds this runtime actuates (claimed at job start).
    fn knobs(&self) -> Vec<KnobKind>;

    /// How often [`RuntimeAgent::on_control`] fires.
    fn control_period(&self) -> SimDuration {
        SimDuration::from_millis(500)
    }

    /// Job is starting on `ctl.n_nodes()` nodes.
    fn on_job_start(&mut self, _ctl: &mut ArbitratedNodes<'_>) {}

    /// Node `node` entered region `region` with hardware mixture `mix`.
    /// The pseudo-region `"mpi_barrier_wait"` marks barrier slack.
    fn on_region_enter(
        &mut self,
        _now: SimTime,
        _node: usize,
        _region: &str,
        _mix: &PhaseMix,
        _ctl: &mut ArbitratedNodes<'_>,
    ) {
    }

    /// Whether [`RuntimeAgent::on_control`] reads its telemetry argument.
    /// An agent whose tick ignores it returns `false`, and the runner skips
    /// refreshing the snapshot before that agent's tick (the tick itself
    /// still fires and still ends the runner's sub-step).
    fn reads_telemetry(&self) -> bool {
        true
    }

    /// Periodic control with a fresh telemetry snapshot.
    fn on_control(
        &mut self,
        _now: SimTime,
        _telemetry: &JobTelemetry,
        _ctl: &mut ArbitratedNodes<'_>,
    ) {
    }

    /// Job finished; restore any knobs the runtime changed.
    fn on_job_end(&mut self, _ctl: &mut ArbitratedNodes<'_>) {}
}

/// The pseudo-region name used for MPI barrier slack.
pub const BARRIER_REGION: &str = "mpi_barrier_wait";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterMode;
    use pstack_hwmodel::{Node, NodeConfig, NodeId};

    fn nodes(n: usize) -> Vec<NodeManager> {
        (0..n)
            .map(|i| NodeManager::new(Node::nominal(NodeId(i), NodeConfig::server_default())))
            .collect()
    }

    #[test]
    fn facade_reads_and_writes() {
        let mut ns = nodes(2);
        let arb = Arbiter::new(ArbiterMode::Gated);
        let mut ctl = ArbitratedNodes::new(&mut ns, &arb, 0, SimTime::ZERO);
        assert_eq!(ctl.n_nodes(), 2);
        assert!(ctl.set_freq_limit_ghz(1, 2.0));
        assert_eq!(ns[1].freq_limit_ghz(), Some(2.0));
    }

    #[test]
    fn arbitration_blocks_foreign_writes() {
        let mut ns = nodes(1);
        let mut arb = Arbiter::new(ArbiterMode::Gated);
        arb.claim(0, KnobKind::CoreFreq);
        let mut ctl = ArbitratedNodes::new(&mut ns, &arb, 1, SimTime::ZERO);
        assert!(!ctl.set_freq_limit_ghz(0, 2.0));
        assert!(!ctl.clear_freq_limit(0));
        assert_eq!(ns[0].freq_limit_ghz(), None);
    }

    #[test]
    fn telemetry_helpers() {
        let t = JobTelemetry {
            now: SimTime::ZERO,
            elapsed: SimDuration::ZERO,
            node_power_w: vec![100.0, 200.0],
            node_progress: vec![5.0, 3.0],
            node_wait_s: vec![0.0, 0.0],
            node_freq_ghz: vec![2.4, 2.4],
            node_energy_j: vec![10.0, 20.0],
            current_regions: vec![None, None],
        };
        assert_eq!(t.total_power_w(), 300.0);
        assert_eq!(t.total_energy_j(), 30.0);
        assert_eq!(t.straggler(), 1);
    }
}
