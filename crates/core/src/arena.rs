//! Reusable evaluation arena: the batched fast path for co-tuning evals.
//!
//! [`crate::cotune::simulate_app`] rebuilds the whole scenario for every
//! evaluation: fresh [`pstack_node::NodeManager`]s stepping their scalar
//! nodes, telemetry time-series and performance counters the co-tuning
//! objective never reads, and the job's load-imbalance factors.
//! [`EvalArena`] replays the *same* simulation on [`NodeBatch`] lanes
//! instead: state is reset in place between evaluations, the
//! stepping loop is allocation-free, and the imbalance factors of each
//! `(seed, node count)` are drawn once and kept.
//!
//! ## Equivalence contract
//!
//! The arena is **bit-identical** to `simulate_app` — the scalar path stays
//! the oracle. Both run the job on the same [`Lockstep`] kernel, which
//! builds the per-node work program, chooses every sub-step, advances the
//! work and releases the barriers; the arena is its agent-free driver over
//! lanes. What remains to agree on is:
//!
//! - the caps the driver hands the kernel: `simulate_app`'s 250 ms ceiling
//!   within its 60 s quanta (`JobRunner::run_to_completion`'s, with no
//!   control ticks);
//! - the imbalance factors: they depend only on the MPI model, the seed
//!   tree and the node count, and the kept ones are the draws a fresh
//!   [`Lockstep::reset`] makes;
//! - node stepping: the arena's backend delegates to [`NodeBatch::step`],
//!   which is bit-identical to `Node::step` (see `pstack-hwmodel`'s
//!   `batch_equivalence` suite), and idles nodes on the same I/O-bound
//!   mixture on no cores as `NodeManager::step_idle`. The arena fills its
//!   lanes with [`NodeBatch::reset`], so they keep no counters or package
//!   energy: an evaluation reads neither.
//! - the RAPL controllers: the kernel steps every node once per sub-step,
//!   so the arena closes each sub-step ([`NodeBatch::close_substep`])
//!   right after [`Lockstep::step`] returns. The close averages every
//!   capped lane's power over its window from the batch's shared timeline
//!   and runs its controller, bit for bit what each scalar package's
//!   window and controller do at the end of its step; the kernel reads the
//!   next sub-step's work rates only after it.
//!
//! ## Tick coarsening
//!
//! The RC-thermal update is a closed-form exponential — exact for any step
//! length — so the only time-discretization coupling left is leakage power
//! being sampled at the step-start temperature. Between control and throttle
//! events the temperature trajectory is smooth and monotone per phase, so
//! coarser ticks drift the energy integral only marginally.
//! [`EvalArena::with_coarse_substep`] opts into long ticks between events:
//!
//! - **Uncapped** evaluations coarsen outright — no controller re-plans
//!   mid-phase, and at nominal 25 °C ambient peaks stay ≈ 30 °C below the
//!   throttle point.
//! - **Capped** evaluations run the oracle's 250 ms sub-step (bit-exact) for
//!   a settle window after every re-plan event — eval start, phase boundary,
//!   throttle flip — giving the RAPL controller its full convergence
//!   transient, then coarsen with the controller *held*
//!   ([`NodeBatch::step_held`], acting at the sub-step's close like the
//!   live one): the allowed P-state only moves on an
//!   emergency descent (which is the controller's full response to the slow
//!   leakage drift, so holding continues through it). Holding suppresses the
//!   controller's periodic one-tick probe excursions (≈ 1 in 21 fine ticks),
//!   which bounds the drift at well under the probe duty cycle; held ticks
//!   are additionally clamped so descents land promptly.
//!
//! A phase boundary or throttle flip observed during a coarse tick re-enters
//! the fine settle window. Coarse results are approximate; the default arena
//! (no coarse sub-step) is bit-identical everywhere.

use pstack_apps::workload::{AppModel, Phase};
use pstack_apps::MpiModel;
use pstack_hwmodel::{NodeBatch, NodeConfig};
use pstack_node::{barrier_mix, idle_mix, Activity, Imbalance, Lockstep, StepBackend};
use pstack_sim::{SeedTree, SimDuration, SimTime};

/// Default RAPL window, matching [`crate::cotune::simulate_app`].
const CAP_WINDOW_MS: u64 = 10;

/// The scalar driver's maximum sub-step.
const MAX_SUBSTEP_MS: u64 = 250;

/// The scalar driver's progress quantum.
const QUANTUM_S: u64 = 60;

/// Fine-stepping settle window after a control event under coarse ticks:
/// 32 control intervals at the oracle's 250 ms — comfortably past the RAPL
/// controller's proportional-descent convergence (a handful of intervals).
const SETTLE_S: u64 = 8;

/// Imbalance factor sets kept at most; past this many `(seed, node count)`
/// pairs the arena forgets them all and draws afresh.
const MAX_IMBALANCE_SETS: usize = 16;

/// Ceiling on held-controller ticks under a cap (10 control intervals).
/// Longer held ticks delay emergency descents against the leakage-driven
/// power drift enough to visibly bend the energy integral; at 2.5 s the
/// observed cost drift stays an order of magnitude under the 1% budget.
const HELD_SUBSTEP_MS: u64 = 2500;

/// The kernel's backend over the batch lanes.
#[derive(Debug)]
struct BatchNodes {
    batch: NodeBatch,
    /// The batch's mixture id of each phase of the current job.
    mix_ids: Vec<usize>,
    idle_mix: usize,
    wait_mix: usize,
    cores: usize,
    /// Step with the cap controller held (coarse ticks past the settle
    /// window).
    held: bool,
    /// Per-node throttle state after the last sub-step.
    throttled: Vec<bool>,
    /// Whether a node's throttle state flipped in the current sub-step.
    flipped: bool,
}

impl StepBackend for BatchNodes {
    fn work_rate(&mut self, node: usize, index: usize, _phase: &Phase) -> f64 {
        self.batch.work_rate(node, self.mix_ids[index], self.cores)
    }

    fn step(&mut self, node: usize, t: SimTime, dt: SimDuration, activity: Activity<'_>) {
        let (mix_id, active) = match activity {
            Activity::Busy { index, .. } => (self.mix_ids[index], self.cores),
            Activity::Waiting => (self.wait_mix, self.cores),
            Activity::Idle => (self.idle_mix, 0),
        };
        let out = if self.held {
            // An emergency descent during hold is already the controller's
            // full response — stay coarse at the new (lower) P-state rather
            // than re-settling, which would let the suppressed climb/probe
            // cycle restart.
            self.batch.step_held(node, t, dt, mix_id, active)
        } else {
            self.batch.step(node, t, dt, mix_id, active)
        };
        if out.throttled != self.throttled[node] {
            self.throttled[node] = out.throttled;
            self.flipped = true;
        }
    }
}

/// A reusable, reset-in-place evaluation context over a [`NodeBatch`].
///
/// Construct once, call [`evaluate`](Self::evaluate) per configuration; all
/// per-evaluation state (thermal/throttle/cap lanes, energy accumulators,
/// the phase program and per-node progress) is reused across calls.
#[derive(Debug)]
pub struct EvalArena {
    lockstep: Lockstep,
    nodes: BatchNodes,
    mpi: MpiModel,
    /// The imbalance factors of each `(seed, node count)` evaluated so far
    /// (they depend on nothing else under the arena's MPI model).
    imbalance: Vec<Imbalance>,
    /// Sub-step ceiling for uncapped evaluations (None → oracle's 250 ms).
    coarse_substep: Option<SimDuration>,
    /// Effective sub-step ceiling for the current evaluation.
    max_substep: SimDuration,
    /// Fine-step until this time (coarse mode: the post-event settle window).
    fine_until: SimTime,
    evals: usize,
}

impl EvalArena {
    /// An arena over nominal `server_default` nodes with the typical MPI
    /// model — the exact environment `simulate_app` builds per evaluation.
    pub fn new() -> Self {
        Self::with_config(NodeConfig::server_default(), MpiModel::typical())
    }

    /// An arena over an explicit node configuration and MPI model.
    pub fn with_config(cfg: NodeConfig, mpi: MpiModel) -> Self {
        let mut batch = NodeBatch::new(cfg);
        let idle_mix = batch.register_mix(&idle_mix());
        let wait_mix = batch.register_mix(&barrier_mix());
        EvalArena {
            lockstep: Lockstep::default(),
            nodes: BatchNodes {
                batch,
                mix_ids: Vec::new(),
                idle_mix,
                wait_mix,
                cores: 0,
                held: false,
                throttled: Vec::new(),
                flipped: false,
            },
            mpi,
            imbalance: Vec::new(),
            coarse_substep: None,
            max_substep: SimDuration::from_millis(MAX_SUBSTEP_MS),
            fine_until: SimTime::ZERO,
            evals: 0,
        }
    }

    /// Opt into coarse ticks (up to `substep`) between control/throttle
    /// events. Uncapped evaluations coarsen outright; capped evaluations
    /// fine-step a settle window after every control event and coarsen in
    /// between with the cap controller held. Coarse results are approximate
    /// (see the module docs for the safety argument); leave unset for bit
    /// identity with the scalar path.
    pub fn with_coarse_substep(mut self, substep: SimDuration) -> Self {
        assert!(!substep.is_zero(), "coarse sub-step must be positive");
        self.coarse_substep = Some(substep);
        self
    }

    /// Evaluations completed so far.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// How many resets reused existing lane allocations (fast-path hits).
    pub fn reuse_hits(&self) -> usize {
        self.nodes.batch.reuse_hits()
    }

    /// Simulate `app` on `n_nodes` nominal nodes under an optional node power
    /// cap; returns `(time_s, energy_j, work)` — the `simulate_app` triple,
    /// bit-identical to it unless coarse ticks are enabled (uncapped only).
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero or a cap is below the platform floor
    /// (mirroring the scalar path's asserts).
    pub fn evaluate(
        &mut self,
        app: &dyn AppModel,
        n_nodes: usize,
        node_cap_w: Option<f64>,
        seed: u64,
    ) -> (f64, f64, f64) {
        assert!(n_nodes >= 1, "need at least one node");
        self.reset_for(app, n_nodes, node_cap_w, seed);
        let makespan = self.run_to_completion().since(SimTime::ZERO);
        // Same fold order as `simulate_app`: per-node energy then work,
        // summed in node order.
        let energy_j: f64 = (0..n_nodes).map(|i| self.nodes.batch.energy_j(i)).sum();
        let total_work: f64 = self.lockstep.work_done().iter().sum();
        self.evals += 1;
        (makespan.as_secs_f64(), energy_j, total_work)
    }

    /// Reset all lanes and rebuild the phase program in place.
    fn reset_for(&mut self, app: &dyn AppModel, n_nodes: usize, cap: Option<f64>, seed: u64) {
        let nodes = &mut self.nodes;
        let window = SimDuration::from_millis(CAP_WINDOW_MS);
        nodes.batch.reset(n_nodes, cap, window);
        nodes.cores = nodes.batch.config().total_cores();
        nodes.throttled.clear();
        nodes.throttled.resize(n_nodes, false);
        self.max_substep = match self.coarse_substep {
            Some(s) if cap.is_none() => s,
            Some(s) => s.min(SimDuration::from_millis(HELD_SUBSTEP_MS)),
            None => SimDuration::from_millis(MAX_SUBSTEP_MS),
        };
        // Capped coarse evals settle the controller on fine ticks first;
        // everything else (uncapped coarse, exact) has no settle window.
        self.fine_until = if cap.is_some() && self.coarse_substep.is_some() {
            SimTime::ZERO + SimDuration::from_secs(SETTLE_S)
        } else {
            SimTime::ZERO
        };

        let workload = app.workload(n_nodes);
        nodes.mix_ids.clear();
        for phase in workload.phases() {
            let id = nodes.batch.register_mix(&phase.mix);
            nodes.mix_ids.push(id);
        }
        let kept = self
            .imbalance
            .iter()
            .position(|f| f.seed() == seed && f.n_nodes() == n_nodes);
        let factors = match kept {
            Some(i) => &mut self.imbalance[i],
            None => {
                if self.imbalance.len() >= MAX_IMBALANCE_SETS {
                    self.imbalance.clear();
                }
                let drawn = Imbalance::new(&self.mpi, &SeedTree::new(seed), n_nodes);
                self.imbalance.push(drawn);
                self.imbalance.last_mut().expect("just pushed")
            }
        };
        self.lockstep.reset_with(workload, factors);
    }

    /// Drive the kernel to completion in `simulate_app`'s 60 s quanta,
    /// applying the coarse settle/hold policy per sub-step.
    /// Returns the completion time.
    fn run_to_completion(&mut self) -> SimTime {
        let coarse = self.coarse_substep.is_some();
        let fine = SimDuration::from_millis(MAX_SUBSTEP_MS);
        let mut t = SimTime::ZERO;
        loop {
            let horizon = t + SimDuration::from_secs(QUANTUM_S);
            while t < horizon {
                // Inside the post-event settle window, stick to the oracle's
                // fine sub-step with the live controller; past it, coarsen
                // and hold.
                let settling = t < self.fine_until;
                let ceiling = if settling {
                    self.max_substep.min(fine)
                } else {
                    self.max_substep
                };
                self.nodes.held = coarse && !settling;
                self.nodes.flipped = false;
                let step = self
                    .lockstep
                    .step(t, horizon.since(t).min(ceiling), &mut self.nodes);
                // Every node has stepped: the capped lanes' controllers act.
                self.nodes.batch.close_substep();
                t += step.dt;
                // A phase boundary (mixes change) or a throttle flip is a
                // control event: re-enter fine stepping for a settle window.
                if coarse && (step.boundary || self.nodes.flipped) {
                    self.fine_until = t + SimDuration::from_secs(SETTLE_S);
                }
                if step.completed {
                    return t;
                }
            }
        }
    }
}

impl Default for EvalArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cotune::{simulate_app, HypreCoTune, KernelCoTune};
    use crate::interfaces::Objective;
    use pstack_apps::hypre::HypreApp;
    use pstack_apps::kernelmodel::KernelApp;
    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_apps::workload::Workload;
    use pstack_hwmodel::PhaseMix;

    fn assert_triple_bits(scalar: (f64, f64, f64), batch: (f64, f64, f64), what: &str) {
        assert_eq!(
            scalar.0.to_bits(),
            batch.0.to_bits(),
            "{what}: time diverged ({} vs {})",
            scalar.0,
            batch.0
        );
        assert_eq!(
            scalar.1.to_bits(),
            batch.1.to_bits(),
            "{what}: energy diverged ({} vs {})",
            scalar.1,
            batch.1
        );
        assert_eq!(
            scalar.2.to_bits(),
            batch.2.to_bits(),
            "{what}: work diverged ({} vs {})",
            scalar.2,
            batch.2
        );
    }

    #[test]
    fn kernel_configs_match_simulate_app_bitwise() {
        let ct = KernelCoTune::new(Objective::MinEdp);
        let space = ct.space();
        let mut arena = EvalArena::new();
        // A spread of the fig4-class space: every cap level, varied tiles.
        for cfg in space.enumerate().step_by(997).take(24) {
            let (kc, cap) = ct.decode(&space, &cfg);
            let app = KernelApp {
                model: ct.model,
                config: kc,
            };
            let scalar = simulate_app(&app, 1, cap, ct.seed);
            let fast = arena.evaluate(&app, 1, cap, ct.seed);
            assert_triple_bits(scalar, fast, "kernel");
        }
    }

    #[test]
    fn hypre_multi_node_matches_simulate_app_bitwise() {
        let ct = HypreCoTune::new(Objective::MinEnergy);
        let space = ct.space();
        let mut arena = EvalArena::new();
        // Multi-node evals exercise MPI imbalance factors and barriers.
        // Every node count × cap level, each on a non-AMG solver: their
        // short iterations put the most sub-steps into a RAPL window, so
        // the capped lanes' shared timeline holds its longest windows.
        // The k-th pair takes its k-th non-AMG configuration (mod 9), so
        // the pairs cycle through the solver × preconditioner choices.
        let mut pairs: Vec<(usize, Option<u64>, usize)> = Vec::new();
        for cfg in space.enumerate() {
            if space.value(&cfg, "precond").as_str() == "boomeramg" {
                continue;
            }
            let (hc, n_nodes, cap) = ct.decode(&space, &cfg);
            let key = (n_nodes, cap.map(f64::to_bits));
            let k = match pairs.iter().position(|p| (p.0, p.1) == key) {
                Some(k) => k,
                None => {
                    pairs.push((key.0, key.1, 0));
                    pairs.len() - 1
                }
            };
            let seen = pairs[k].2;
            pairs[k].2 += 1;
            if seen != k % 9 {
                continue;
            }
            let app = HypreApp::new(hc, ct.problem);
            let scalar = simulate_app(&app, n_nodes, cap, ct.seed);
            let fast = arena.evaluate(&app, n_nodes, cap, ct.seed);
            assert_triple_bits(
                scalar,
                fast,
                &format!("hypre {hc:?} on {n_nodes} under {cap:?}"),
            );
        }
        assert_eq!(pairs.len(), 12, "every node count × cap level");
    }

    #[test]
    fn synthetic_phase_sequences_match_bitwise() {
        let mut arena = EvalArena::new();
        for profile in [
            Profile::ComputeHeavy,
            Profile::MemoryHeavy,
            Profile::CommHeavy,
        ] {
            let app = SyntheticApp::new(profile, 10.0, 5);
            for (n_nodes, cap) in [(1, None), (2, None), (4, Some(280.0)), (3, Some(350.0))] {
                let scalar = simulate_app(&app, n_nodes, cap, 1);
                let fast = arena.evaluate(&app, n_nodes, cap, 1);
                assert_triple_bits(scalar, fast, "synthetic");
            }
        }
    }

    /// The same phase list on any node count.
    struct Fixed(Workload);

    impl AppModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn workload(&self, _n_nodes: usize) -> Workload {
            self.0.clone()
        }
    }

    #[test]
    fn empty_and_single_phase_workloads_match_bitwise() {
        let mut arena = EvalArena::new();
        let empty = Fixed(Workload::new());
        let single = Fixed(Workload::from_phases(vec![Phase::new(
            "solve",
            PhaseMix::new(0.6, 0.3, 0.1, 0.0),
            7.5,
        )]));
        for (what, app) in [("empty", &empty), ("single phase", &single)] {
            for (n_nodes, cap) in [(1, None), (3, None), (2, Some(300.0))] {
                let scalar = simulate_app(app, n_nodes, cap, 5);
                let fast = arena.evaluate(app, n_nodes, cap, 5);
                assert_triple_bits(scalar, fast, what);
            }
        }
        // An empty job still takes one idle sub-step before it completes.
        let (time_s, energy_j, work) = arena.evaluate(&empty, 2, None, 5);
        assert_eq!((time_s, work), (0.25, 0.0));
        assert!(energy_j > 0.0);
    }

    #[test]
    fn reset_in_place_reuses_allocations_and_stays_identical() {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 5.0, 3);
        let mut arena = EvalArena::new();
        let first = arena.evaluate(&app, 4, Some(300.0), 7);
        let hits_before = arena.reuse_hits();
        let second = arena.evaluate(&app, 4, Some(300.0), 7);
        assert_triple_bits(first, second, "repeat eval");
        assert!(
            arena.reuse_hits() > hits_before,
            "second eval at same shape must reuse lane allocations"
        );
        assert_eq!(arena.evals(), 2);
    }

    #[test]
    fn coarse_ticks_stay_within_one_percent_uncapped() {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 10.0, 5);
        let exact = simulate_app(&app, 2, None, 1);
        let mut arena = EvalArena::new().with_coarse_substep(SimDuration::from_secs(10));
        let coarse = arena.evaluate(&app, 2, None, 1);
        for (e, c, what) in [
            (exact.0, coarse.0, "time"),
            (exact.1, coarse.1, "energy"),
            (exact.2, coarse.2, "work"),
        ] {
            let rel = (e - c).abs() / e.abs().max(1e-12);
            assert!(
                rel < 0.01,
                "{what}: coarse drift {rel} (exact {e}, coarse {c})"
            );
        }
    }

    #[test]
    fn coarse_ticks_under_a_cap_stay_within_tolerance() {
        let app = SyntheticApp::new(Profile::ComputeHeavy, 10.0, 3);
        let exact = simulate_app(&app, 2, Some(300.0), 1);
        let mut arena = EvalArena::new().with_coarse_substep(SimDuration::from_secs(10));
        let coarse = arena.evaluate(&app, 2, Some(300.0), 1);
        for (e, c, what) in [
            (exact.0, coarse.0, "time"),
            (exact.1, coarse.1, "energy"),
            (exact.2, coarse.2, "work"),
        ] {
            let rel = (e - c).abs() / e.abs().max(1e-12);
            assert!(
                rel < 0.01,
                "{what}: coarse drift {rel} (exact {e}, coarse {c})"
            );
        }
    }

    #[test]
    fn kernel_capped_coarse_ticks_stay_within_tolerance() {
        let ct = KernelCoTune::new(Objective::MinEdp);
        let space = ct.space();
        let mut arena = EvalArena::new().with_coarse_substep(SimDuration::from_secs(10));
        // Same spread as the bit-identity test; 2/3 of these carry a cap.
        for cfg in space.enumerate().step_by(997).take(12) {
            let (kc, cap) = ct.decode(&space, &cfg);
            let app = KernelApp {
                model: ct.model,
                config: kc,
            };
            let exact = simulate_app(&app, 1, cap, ct.seed);
            let coarse = arena.evaluate(&app, 1, cap, ct.seed);
            for (e, c, what) in [
                (exact.0, coarse.0, "time"),
                (exact.1, coarse.1, "energy"),
                (exact.2, coarse.2, "work"),
            ] {
                let rel = (e - c).abs() / e.abs().max(1e-12);
                assert!(
                    rel < 0.01,
                    "{what}: coarse drift {rel} under cap {cap:?} (exact {e}, coarse {c})"
                );
            }
        }
    }
}
