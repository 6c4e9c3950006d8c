//! The lockstep kernel: one job's phases across its nodes, one sub-step at a
//! time.
//!
//! A job runs the same phase sequence on every node, each node's share of a
//! phase scaled by MPI load imbalance. Every rank must finish phase *j*
//! before any enters *j+1*; early finishers spin in communication wait at
//! the barrier. So one job-wide phase index describes every node, and only
//! the work left in the current phase differs per node.
//!
//! [`Lockstep::step`] takes one sub-step. It ends at the earliest of the
//! caller's cap and the next phase completion on any node (1 µs floor),
//! steps every node as busy or waiting at the barrier through a
//! [`StepBackend`], advances each busy node's work at the rate it had when
//! the sub-step was chosen (nothing touches a node in between), and releases
//! the barrier once every node has finished the phase.
//!
//! Three drivers sit on it: `pstack-runtime`'s `JobRunner`, over the job's
//! nodes loaded into `NodeBatch` lanes with runtime agents around it;
//! `powerstack-core`'s `EvalArena`, over fresh `NodeBatch` lanes with
//! none; and `powerstack-core`'s `simulate_app`, the agent-free reference,
//! over the scalar nodes through [`ScalarNodes`].

use crate::NodeManager;
use pstack_apps::workload::{Phase, Workload};
use pstack_apps::MpiModel;
use pstack_hwmodel::{PhaseKind, PhaseMix};
use pstack_sim::{SeedTree, SimDuration, SimTime};

/// A node whose share of the current phase has at most this much work left
/// waits at the barrier.
const BARRIER_EPS: f64 = 1e-12;

/// Relative tolerance that lets a sub-step sized exactly `remaining / rate`
/// complete the phase despite the microsecond rounding of the step.
const COMPLETION_TOL: f64 = 1e-9;

/// What a node does during one sub-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activity<'a> {
    /// Working through phase `index` of the job.
    Busy {
        /// Position of the phase in the job's phase list.
        index: usize,
        /// The phase (region name, mixture, unscaled work).
        phase: &'a Phase,
    },
    /// Done with its share of the current phase, waiting at the barrier.
    Waiting,
    /// The job has no phase left.
    Idle,
}

/// The node physics a [`Lockstep`] drives, one node at a time.
pub trait StepBackend {
    /// Node `node`'s work rate in phase `index` (work units per second).
    fn work_rate(&mut self, node: usize, index: usize, phase: &Phase) -> f64;

    /// Step node `node` over `[t, t + dt)` doing `activity`.
    fn step(&mut self, node: usize, t: SimTime, dt: SimDuration, activity: Activity<'_>);
}

/// What a node runs while it waits at a barrier: communication-bound
/// spinning on the job's cores.
pub fn barrier_mix() -> PhaseMix {
    PhaseMix::pure(PhaseKind::CommBound)
}

/// The reference backend: each node's scalar `Node` steps through its
/// [`NodeManager`], power history included, running every core of the node
/// while busy or waiting and idling on none. The `NodeBatch` lanes the
/// other drivers step on are held to it bit for bit.
pub struct ScalarNodes<'a> {
    nodes: &'a mut [NodeManager],
    cores: usize,
    wait_mix: PhaseMix,
}

impl<'a> ScalarNodes<'a> {
    /// Step `nodes`, each running as many cores as the first node has.
    pub fn new(nodes: &'a mut [NodeManager]) -> Self {
        let cores = nodes.first().map_or(0, |n| n.node().config().total_cores());
        ScalarNodes {
            nodes,
            cores,
            wait_mix: barrier_mix(),
        }
    }

    /// The nodes.
    pub fn nodes(&self) -> &[NodeManager] {
        self.nodes
    }

    /// The nodes, mutably (for knob writes between sub-steps).
    pub fn nodes_mut(&mut self) -> &mut [NodeManager] {
        self.nodes
    }
}

impl StepBackend for ScalarNodes<'_> {
    fn work_rate(&mut self, node: usize, _index: usize, phase: &Phase) -> f64 {
        self.nodes[node].node().work_rate(&phase.mix, self.cores)
    }

    fn step(&mut self, node: usize, t: SimTime, dt: SimDuration, activity: Activity<'_>) {
        let n = &mut self.nodes[node];
        match activity {
            Activity::Busy { phase, .. } => n.step(t, dt, &phase.mix, self.cores),
            Activity::Waiting => n.step(t, dt, &self.wait_mix, self.cores),
            Activity::Idle => n.step_idle(t, dt),
        };
    }
}

/// A job's load-imbalance factors under one MPI model, seed tree and node
/// count (see [`Lockstep::reset`]): each node's persistent factor, and each
/// phase's transient factors, drawn on first use and kept. A driver that
/// reruns jobs under the same seeds and node count keeps one and draws
/// every factor once.
#[derive(Debug, Clone)]
pub struct Imbalance {
    mpi: MpiModel,
    seeds: SeedTree,
    n_nodes: usize,
    persistent: Vec<f64>,
    /// Transient factors of the phases drawn so far, phase-major.
    transient: Vec<f64>,
}

impl Imbalance {
    /// The factors `mpi` draws under `seeds` for `n_nodes` nodes.
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero.
    pub fn new(mpi: &MpiModel, seeds: &SeedTree, n_nodes: usize) -> Self {
        assert!(n_nodes >= 1, "job needs at least one node");
        Imbalance {
            mpi: *mpi,
            seeds: *seeds,
            n_nodes,
            persistent: mpi.persistent_factors(seeds, n_nodes),
            transient: Vec::new(),
        }
    }

    /// The master seed of the seed tree the factors are drawn under.
    pub fn seed(&self) -> u64 {
        self.seeds.master()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Draw the transient factors of every phase before `phases` not drawn
    /// yet (each phase's draw is independent of the others').
    fn draw(&mut self, phases: usize) {
        let n = self.n_nodes;
        for j in self.transient.len() / n..phases {
            let factors = self.mpi.imbalance_factors(&self.seeds, j as u64, n);
            self.transient.extend(factors);
        }
    }
}

/// What one [`Lockstep::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubStep {
    /// The sub-step taken.
    pub dt: SimDuration,
    /// Whether the barrier released: every node had finished the phase.
    pub boundary: bool,
    /// Whether the job has no phase left.
    pub completed: bool,
}

/// One job's phase program across its nodes, stepped in lockstep.
#[derive(Debug, Default)]
pub struct Lockstep {
    /// The job's phase list, shared by every node.
    workload: Workload,
    /// Per-node work program, phase-major: node `i`'s share of phase `j` is
    /// `work[j * n + i]`.
    work: Vec<f64>,
    /// Job-wide index of the current phase (the phase count once complete).
    phase: usize,
    /// Per-node work left in the current phase.
    remaining: Vec<f64>,
    work_done: Vec<f64>,
    wait_s: Vec<f64>,
    /// Each busy node's work rate in the current sub-step.
    rates: Vec<f64>,
    /// Nodes that entered a region (a phase, or the barrier wait after it)
    /// since the caller last took the entry.
    entered: Vec<bool>,
}

impl Lockstep {
    /// The program of `workload` on `n_nodes` nodes, with load imbalance
    /// drawn from `mpi` under `seeds` (see [`Lockstep::reset`]).
    pub fn new(workload: Workload, n_nodes: usize, mpi: &MpiModel, seeds: &SeedTree) -> Self {
        let mut lanes = Lockstep::default();
        lanes.reset(workload, n_nodes, mpi, seeds);
        lanes
    }

    /// Start over on `workload` across `n_nodes` nodes, reusing the
    /// per-node buffers.
    ///
    /// Node `i`'s share of phase `j` is `work * transient[i] * persistent[i]`:
    /// a per-rank decomposition factor fixed for the whole job, drawn first,
    /// composed with per-phase noise. Communication phases are imbalanced
    /// too (message sizes and arrival times differ); early finishers spin in
    /// barrier wait, the slack COUNTDOWN's wait-only mode and the duty-cycle
    /// adapter target.
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero.
    pub fn reset(&mut self, workload: Workload, n_nodes: usize, mpi: &MpiModel, seeds: &SeedTree) {
        self.reset_with(workload, &mut Imbalance::new(mpi, seeds, n_nodes));
    }

    /// [`Lockstep::reset`] with the imbalance factors taken from `factors`
    /// (drawing the phases it lacks), on its node count.
    pub fn reset_with(&mut self, workload: Workload, factors: &mut Imbalance) {
        let n_nodes = factors.n_nodes;
        factors.draw(workload.len());
        self.work.clear();
        for (j, phase) in workload.phases().iter().enumerate() {
            let transient = &factors.transient[j * n_nodes..(j + 1) * n_nodes];
            self.work.extend(
                transient
                    .iter()
                    .zip(&factors.persistent)
                    .map(|(f, p)| phase.work * f * p),
            );
        }
        self.workload = workload;
        self.phase = 0;
        self.remaining.clear();
        match self.work.get(..n_nodes) {
            Some(first) => self.remaining.extend_from_slice(first),
            None => self.remaining.resize(n_nodes, 0.0),
        }
        for v in [&mut self.work_done, &mut self.wait_s, &mut self.rates] {
            v.clear();
            v.resize(n_nodes, 0.0);
        }
        self.entered.clear();
        self.entered.resize(n_nodes, true);
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.remaining.len()
    }

    /// The job's phase list.
    pub fn phases(&self) -> &[Phase] {
        self.workload.phases()
    }

    /// Whether every phase has completed.
    pub fn is_complete(&self) -> bool {
        self.phase >= self.workload.len()
    }

    /// Per-node work completed so far.
    pub fn work_done(&self) -> &[f64] {
        &self.work_done
    }

    /// Per-node seconds spent waiting at barriers.
    pub fn wait_s(&self) -> &[f64] {
        &self.wait_s
    }

    /// Work node `node` has left across all phases.
    pub fn remaining_total(&self, node: usize) -> f64 {
        if self.is_complete() {
            return 0.0;
        }
        let n = self.n_nodes();
        let later: f64 = self
            .work
            .iter()
            .skip((self.phase + 1) * n + node)
            .step_by(n)
            .sum();
        self.remaining[node] + later
    }

    /// What node `node` is doing now.
    pub fn activity(&self, node: usize) -> Activity<'_> {
        match self.workload.phases().get(self.phase) {
            None => Activity::Idle,
            Some(_) if self.remaining[node] <= BARRIER_EPS => Activity::Waiting,
            Some(phase) => Activity::Busy {
                index: self.phase,
                phase,
            },
        }
    }

    /// The region node `node` entered since the last call, if any: its
    /// phase, or the barrier wait after it. Every node's first phase counts
    /// as entered; a completed job enters nothing.
    pub fn take_entry(&mut self, node: usize) -> Option<Activity<'_>> {
        if !self.entered[node] || self.is_complete() {
            return None;
        }
        self.entered[node] = false;
        Some(self.activity(node))
    }

    /// Take one sub-step from `t`, at most `cap` long.
    pub fn step<B: StepBackend + ?Sized>(
        &mut self,
        t: SimTime,
        cap: SimDuration,
        nodes: &mut B,
    ) -> SubStep {
        let n = self.remaining.len();
        let floor = SimDuration::from_micros(1);
        let Some(phase) = self.workload.phases().get(self.phase) else {
            // No phase left (an empty workload): the nodes idle.
            let dt = cap.max(floor);
            for i in 0..n {
                nodes.step(i, t, dt, Activity::Idle);
            }
            return SubStep {
                dt,
                boundary: false,
                completed: true,
            };
        };

        // Choose the sub-step, keeping each busy node's rate for its advance.
        // The microsecond ceiling is monotone, so converting the least
        // completion time once equals the least of the conversions; a
        // non-finite time converts to zero, so it counts as zero.
        let mut first_done = f64::INFINITY;
        for i in 0..n {
            if self.remaining[i] <= BARRIER_EPS {
                continue;
            }
            let rate = nodes.work_rate(i, self.phase, phase);
            self.rates[i] = rate;
            if rate > 0.0 {
                let done = self.remaining[i] / rate;
                first_done = first_done.min(if done.is_finite() { done } else { 0.0 });
            }
        }
        let mut dt = cap;
        if first_done < f64::INFINITY {
            dt = dt.min(SimDuration::from_secs_f64_ceil(first_done));
        }
        let dt = dt.max(floor);
        let dt_s = dt.as_secs_f64();

        let busy = Activity::Busy {
            index: self.phase,
            phase,
        };
        for i in 0..n {
            if self.remaining[i] <= BARRIER_EPS {
                nodes.step(i, t, dt, Activity::Waiting);
                self.wait_s[i] += dt_s;
                continue;
            }
            nodes.step(i, t, dt, busy);
            let rate = self.rates[i];
            let capacity = rate * dt_s;
            if capacity >= self.remaining[i] * (1.0 - COMPLETION_TOL) && rate > 0.0 {
                // The phase ends inside the sub-step: the tail is barrier
                // wait, and the node enters the barrier-wait region.
                let used_s = self.remaining[i] / rate;
                self.work_done[i] += self.remaining[i];
                self.remaining[i] = 0.0;
                self.wait_s[i] += ((dt_s - used_s) / dt_s).clamp(0.0, 1.0) * dt_s;
                self.entered[i] = true;
            } else {
                self.remaining[i] -= capacity;
                self.work_done[i] += capacity;
            }
        }

        let boundary = self.remaining.iter().all(|&r| r <= BARRIER_EPS);
        if boundary {
            self.release_barrier();
        }
        SubStep {
            dt,
            boundary,
            completed: self.is_complete(),
        }
    }

    /// Move every node into the next phase.
    ///
    /// # Panics
    /// Panics if the job is complete or a node has not finished the phase.
    fn release_barrier(&mut self) {
        assert!(!self.is_complete(), "job already complete");
        if let Some(left) = self.remaining.iter().find(|&&r| r > BARRIER_EPS) {
            panic!("current phase not finished: {left} left");
        }
        self.phase += 1;
        let n = self.remaining.len();
        match self.work.get(self.phase * n..(self.phase + 1) * n) {
            Some(next) => self.remaining.copy_from_slice(next),
            None => self.remaining.fill(0.0),
        }
        self.entered.fill(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_hwmodel::{PhaseKind, PhaseMix};

    /// Fixed per-node rates; records what each step asked for.
    struct Rates {
        rates: Vec<f64>,
        /// `(node, busy phase index, waiting)` per node step.
        steps: Vec<(usize, Option<usize>, bool)>,
    }

    impl Rates {
        fn new(rates: &[f64]) -> Self {
            Rates {
                rates: rates.to_vec(),
                steps: Vec::new(),
            }
        }
    }

    impl StepBackend for Rates {
        fn work_rate(&mut self, node: usize, _index: usize, _phase: &Phase) -> f64 {
            self.rates[node]
        }

        fn step(&mut self, node: usize, _t: SimTime, _dt: SimDuration, activity: Activity<'_>) {
            let (index, waiting) = match activity {
                Activity::Busy { index, .. } => (Some(index), false),
                Activity::Waiting => (None, true),
                Activity::Idle => (None, false),
            };
            self.steps.push((node, index, waiting));
        }
    }

    fn program(works: &[f64], n_nodes: usize) -> Lockstep {
        let phases = works
            .iter()
            .enumerate()
            .map(|(j, &w)| Phase::new(format!("p{j}"), PhaseMix::pure(PhaseKind::ComputeBound), w))
            .collect();
        // No imbalance: every node's share is the phase's work.
        Lockstep::new(
            Workload::from_phases(phases),
            n_nodes,
            &MpiModel::balanced_light(),
            &SeedTree::new(1),
        )
    }

    #[test]
    fn stops_at_phase_boundary_with_the_leftover_as_wait() {
        // Sub-steps are whole microseconds, so a quarter-microsecond phase
        // takes one: node 0 finishes a quarter of the way in and waits out
        // the rest.
        let mut lanes = program(&[0.25e-6, 1.0], 2);
        let mut nodes = Rates::new(&[1.0, 1e-3]);
        let s = lanes.step(SimTime::ZERO, SimDuration::from_secs(1), &mut nodes);
        assert_eq!(s.dt, SimDuration::from_micros(1));
        assert!(!s.boundary);
        assert_eq!(lanes.work_done()[0], 0.25e-6, "stops at the boundary");
        assert!((lanes.wait_s()[0] - 0.75e-6).abs() < 1e-18);
        assert_eq!(lanes.wait_s()[1], 0.0);
        assert_eq!(lanes.activity(0), Activity::Waiting);
        assert!(matches!(lanes.activity(1), Activity::Busy { index: 0, .. }));
    }

    #[test]
    fn barrier_releases_once_every_node_is_done() {
        let mut lanes = program(&[2.0, 1.0], 2);
        let mut nodes = Rates::new(&[1.0, 0.5]);
        for i in 0..2 {
            assert!(matches!(
                lanes.take_entry(i),
                Some(Activity::Busy { index: 0, .. })
            ));
            assert_eq!(lanes.take_entry(i), None);
        }
        // The sub-step stops at the first node's phase end.
        let s = lanes.step(SimTime::ZERO, SimDuration::from_secs(60), &mut nodes);
        let mut t = SimTime::ZERO + s.dt;
        assert_eq!(s.dt, SimDuration::from_secs(2));
        assert!(!s.boundary && !s.completed);
        assert_eq!(lanes.work_done(), &[2.0, 1.0]);
        assert_eq!(lanes.remaining_total(0), 1.0);
        assert_eq!(lanes.remaining_total(1), 2.0);
        assert_eq!(lanes.take_entry(0), Some(Activity::Waiting));
        assert_eq!(lanes.take_entry(1), None);

        nodes.steps.clear();
        let s = lanes.step(t, SimDuration::from_secs(60), &mut nodes);
        t += s.dt;
        assert_eq!(s.dt, SimDuration::from_secs(2));
        assert!(s.boundary && !s.completed);
        assert_eq!(nodes.steps, [(0, None, true), (1, Some(0), false)]);
        assert_eq!(lanes.wait_s(), &[2.0, 0.0]);
        for i in 0..2 {
            assert!(matches!(
                lanes.take_entry(i),
                Some(Activity::Busy { index: 1, .. })
            ));
        }

        let s = lanes.step(t, SimDuration::from_secs(60), &mut nodes);
        t += s.dt;
        assert_eq!(s.dt, SimDuration::from_secs(1));
        assert!(!s.boundary);
        let s = lanes.step(t, SimDuration::from_secs(60), &mut nodes);
        assert_eq!(s.dt, SimDuration::from_secs(1), "node 1 at half speed");
        assert!(s.boundary && s.completed && lanes.is_complete());
        assert_eq!(lanes.wait_s(), &[3.0, 0.0]);
        assert_eq!(lanes.work_done(), &[3.0, 3.0]);
        assert_eq!(lanes.remaining_total(1), 0.0);
        assert_eq!(lanes.take_entry(0), None, "a completed job enters nothing");
    }

    #[test]
    fn zero_speed_makes_no_progress() {
        let mut lanes = program(&[2.0, 1.0], 1);
        let mut nodes = Rates::new(&[0.0]);
        let s = lanes.step(SimTime::ZERO, SimDuration::from_secs(10), &mut nodes);
        assert_eq!(s.dt, SimDuration::from_secs(10), "the cap binds");
        assert!(!s.boundary);
        assert_eq!(lanes.work_done(), &[0.0]);
        assert_eq!(lanes.remaining_total(0), 3.0);
    }

    #[test]
    #[should_panic(expected = "not finished")]
    fn entering_the_next_phase_early_panics() {
        let mut lanes = program(&[2.0, 1.0], 1);
        lanes.step(
            SimTime::ZERO,
            SimDuration::from_millis(500),
            &mut Rates::new(&[1.0]),
        );
        lanes.release_barrier();
    }

    #[test]
    fn empty_program_is_inert() {
        let mut lanes = program(&[], 2);
        assert!(lanes.is_complete());
        assert_eq!(lanes.take_entry(0), None);
        let mut nodes = Rates::new(&[1.0, 1.0]);
        let s = lanes.step(SimTime::ZERO, SimDuration::from_millis(250), &mut nodes);
        assert_eq!(
            s,
            SubStep {
                dt: SimDuration::from_millis(250),
                boundary: false,
                completed: true,
            }
        );
        assert_eq!(nodes.steps, [(0, None, false), (1, None, false)]);
        assert_eq!(lanes.activity(1), Activity::Idle);
        assert_eq!(lanes.work_done(), &[0.0, 0.0]);
        assert_eq!(lanes.wait_s(), &[0.0, 0.0]);
        assert_eq!(lanes.remaining_total(0), 0.0);
    }

    #[test]
    fn imbalance_scales_every_node_share() {
        let w = Workload::from_phases(vec![
            Phase::new("a", PhaseMix::pure(PhaseKind::ComputeBound), 2.0),
            Phase::new("b", PhaseMix::pure(PhaseKind::CommBound), 1.0),
        ]);
        let (mpi, seeds) = (MpiModel::typical(), SeedTree::new(9));
        let lanes = Lockstep::new(w.clone(), 3, &mpi, &seeds);
        let persistent = mpi.persistent_factors(&seeds, 3);
        for (j, phase) in w.phases().iter().enumerate() {
            let transient = mpi.imbalance_factors(&seeds, j as u64, 3);
            for i in 0..3 {
                let share = phase.work * transient[i] * persistent[i];
                assert_eq!(lanes.work[j * 3 + i].to_bits(), share.to_bits());
            }
        }
        let total: f64 = (0..3).map(|i| lanes.remaining_total(i)).sum();
        assert!((total - 9.0).abs() < 0.5, "total {total}");
    }
}
