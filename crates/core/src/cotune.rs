//! Cross-layer co-tuning spaces (§3.1, §3.2.1, §3.2.3, §4.4).
//!
//! The co-tuning thesis of the paper: knobs from *different* layers —
//! application algorithm choices, runtime power policies, RM resource
//! sizing, node power caps — interact, so they must be searched **jointly**.
//! This module builds joint [`ParamSpace`]s over those layers and evaluates
//! configurations by running the actual simulated stack, making them
//! directly consumable by every `pstack-autotune` search algorithm.

use crate::arena::EvalArena;
use crate::interfaces::Objective;
use pstack_apps::hypre::{
    CoarsenType, HypreApp, HypreConfig, HypreProblem, Preconditioner, Smoother, SolverKind,
};
use pstack_apps::kernelmodel::{Interchange, KernelApp, KernelConfig, KernelModel};
use pstack_apps::workload::AppModel;
use pstack_apps::MpiModel;
use pstack_autotune::{BatchEvaluator, Config, Param, ParamSpace, TuneError, TuneReport, Tuner};
use pstack_hwmodel::{Node, NodeConfig, NodeId};
use pstack_node::NodeManager;
use pstack_runtime::{ArbiterMode, JobRunner};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use std::collections::HashMap;

/// Simulate `app` on `n_nodes` nominal nodes under an optional node power
/// cap; returns `(time_s, energy_j, work)`.
pub fn simulate_app(
    app: &dyn AppModel,
    n_nodes: usize,
    node_cap_w: Option<f64>,
    seed: u64,
) -> (f64, f64, f64) {
    let mut nodes: Vec<NodeManager> = (0..n_nodes)
        .map(|i| NodeManager::new(Node::nominal(NodeId(i), NodeConfig::server_default())))
        .collect();
    if let Some(cap) = node_cap_w {
        for nm in nodes.iter_mut() {
            nm.set_power_limit(SimTime::ZERO, cap, SimDuration::from_millis(10));
        }
    }
    let seeds = SeedTree::new(seed);
    let mut runner = JobRunner::new(
        &app.workload(n_nodes),
        n_nodes,
        &MpiModel::typical(),
        &seeds,
        ArbiterMode::Gated,
    );
    let r = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut []);
    (r.makespan.as_secs_f64(), r.energy_j, r.total_work)
}

/// §3.2.1 joint space: Hypre application knobs × RM node count × node power
/// cap (the runtime/hardware knob Conductor would manage).
pub struct HypreCoTune {
    /// The problem instance.
    pub problem: HypreProblem,
    /// RM-layer choices: node counts available to the job.
    pub node_counts: Vec<i64>,
    /// Node power caps to consider, watts (`0` encodes "uncapped").
    pub node_caps_w: Vec<f64>,
    /// The objective to minimize.
    pub objective: Objective,
    /// Simulation seed.
    pub seed: u64,
}

impl HypreCoTune {
    /// Defaults matching the use-case narrative.
    pub fn new(objective: Objective) -> Self {
        HypreCoTune {
            problem: HypreProblem::laplacian_27pt(),
            node_counts: vec![2, 4, 8],
            node_caps_w: vec![0.0, 250.0, 300.0, 350.0],
            objective,
            seed: 1,
        }
    }

    /// The joint parameter space with the AMG dependency conditions.
    pub fn space(&self) -> ParamSpace {
        ParamSpace::new()
            .with(Param::strs("solver", ["pcg", "gmres", "bicgstab"]))
            .with(Param::strs(
                "precond",
                ["none", "jacobi", "parasails", "boomeramg"],
            ))
            .with(Param::strs(
                "smoother",
                ["jacobi", "gauss_seidel", "chebyshev"],
            ))
            .with(Param::strs("coarsen", ["falgout", "pmis", "hmis"]))
            .with(Param::floats("strong_threshold", [0.25, 0.5, 0.7]))
            .with(Param::ints("nodes", self.node_counts.clone()))
            .with(Param::floats("node_cap_w", self.node_caps_w.clone()))
            .with_constraint("amg_subknobs_require_amg", |s, c| {
                s.value(c, "precond").as_str() == "boomeramg"
                    || (s.value(c, "smoother").as_str() == "gauss_seidel"
                        && s.value(c, "coarsen").as_str() == "falgout"
                        && (s.value(c, "strong_threshold").as_float() - 0.25).abs() < 1e-9)
            })
    }

    /// Decode a configuration into concrete pieces.
    pub fn decode(&self, space: &ParamSpace, cfg: &Config) -> (HypreConfig, usize, Option<f64>) {
        let solver = match space.value(cfg, "solver").as_str() {
            "pcg" => SolverKind::Pcg,
            "gmres" => SolverKind::Gmres,
            _ => SolverKind::BiCgStab,
        };
        let precond = match space.value(cfg, "precond").as_str() {
            "none" => Preconditioner::None,
            "jacobi" => Preconditioner::Jacobi,
            "parasails" => Preconditioner::ParaSails,
            _ => Preconditioner::BoomerAmg,
        };
        let smoother = match space.value(cfg, "smoother").as_str() {
            "jacobi" => Smoother::Jacobi,
            "chebyshev" => Smoother::Chebyshev,
            _ => Smoother::GaussSeidel,
        };
        let coarsen = match space.value(cfg, "coarsen").as_str() {
            "pmis" => CoarsenType::Pmis,
            "hmis" => CoarsenType::Hmis,
            _ => CoarsenType::Falgout,
        };
        let hypre = HypreConfig {
            solver,
            precond,
            smoother,
            coarsen,
            strong_threshold: space.value(cfg, "strong_threshold").as_float(),
        };
        let nodes = usize::try_from(space.value(cfg, "nodes").as_int())
            .expect("node counts in the space are positive");
        let cap = space.value(cfg, "node_cap_w").as_float();
        (hypre, nodes, if cap > 0.0 { Some(cap) } else { None })
    }

    /// Evaluate one configuration by simulation: `(cost, aux)`.
    pub fn evaluate(&self, space: &ParamSpace, cfg: &Config) -> (f64, HashMap<String, f64>) {
        let (hypre, nodes, cap) = self.decode(space, cfg);
        let app = HypreApp::new(hypre, self.problem);
        let (time_s, energy_j, work) = simulate_app(&app, nodes, cap, self.seed);
        let mut aux = HashMap::new();
        aux.insert("time_s".to_string(), time_s);
        aux.insert("energy_j".to_string(), energy_j);
        aux.insert("work".to_string(), work);
        aux.insert("power_w".to_string(), energy_j / time_s.max(1e-9));
        (self.objective.cost(time_s, energy_j, work), aux)
    }

    /// Evaluate one configuration on a reusable [`EvalArena`] instead of a
    /// freshly built scenario. Bit-identical to [`evaluate`](Self::evaluate)
    /// (the arena replays the scalar driver over the SoA batch), but
    /// amortizes all per-evaluation allocation.
    pub fn evaluate_in(
        &self,
        arena: &mut EvalArena,
        space: &ParamSpace,
        cfg: &Config,
    ) -> (f64, HashMap<String, f64>) {
        let (hypre, nodes, cap) = self.decode(space, cfg);
        let app = HypreApp::new(hypre, self.problem);
        let (time_s, energy_j, work) = arena.evaluate(&app, nodes, cap, self.seed);
        let mut aux = HashMap::new();
        aux.insert("time_s".to_string(), time_s);
        aux.insert("energy_j".to_string(), energy_j);
        aux.insert("work".to_string(), work);
        aux.insert("power_w".to_string(), energy_j / time_s.max(1e-9));
        (self.objective.cost(time_s, energy_j, work), aux)
    }

    /// Run the tuning loop with the given algorithm and budget.
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`] if the algorithm proposes nothing (the
    /// joint space is non-empty, so this only happens with a broken
    /// algorithm).
    pub fn tune(
        &self,
        algorithm: &mut dyn pstack_autotune::SearchAlgorithm,
        max_evals: usize,
        seed: u64,
    ) -> Result<TuneReport, TuneError> {
        Tuner::new(self.space())
            .max_evals(max_evals)
            .seed(seed)
            .run(algorithm, |space, cfg| self.evaluate(space, cfg))
    }

    /// Like [`tune`](Self::tune), but evaluating suggestion batches on
    /// `workers` threads. Each evaluation is an independent full-stack
    /// simulation, so the batch parallelises embarrassingly; results are
    /// identical for any worker count.
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`], as for [`tune`](Self::tune).
    pub fn tune_parallel(
        &self,
        algorithm: &mut dyn pstack_autotune::SearchAlgorithm,
        max_evals: usize,
        seed: u64,
        workers: usize,
    ) -> Result<TuneReport, TuneError> {
        Tuner::new(self.space())
            .max_evals(max_evals)
            .seed(seed)
            .run_parallel(algorithm, workers, |space, cfg| self.evaluate(space, cfg))
    }

    /// A fresh arena-backed [`BatchEvaluator`] over this space, for
    /// [`Tuner::run_parallel_with`].
    pub fn arena_evaluator(&self) -> HypreArenaEvaluator<'_> {
        HypreArenaEvaluator {
            cotune: self,
            arena: EvalArena::new(),
        }
    }

    /// Like [`tune_parallel`](Self::tune_parallel), but through the batched
    /// SoA fast path: one warm [`EvalArena`] evaluates every proposal with
    /// all per-evaluation allocation amortized away. The report is
    /// byte-identical to [`tune_parallel`](Self::tune_parallel) at any
    /// worker count, at a fraction of the wall-clock cost. It matches
    /// [`tune`](Self::tune) only where batched and serial suggestions
    /// coincide (e.g. `RandomSearch`); `ForestSearch` ranks a top-k per
    /// batch, so its serial and batched reports differ.
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`], as for [`tune`](Self::tune).
    pub fn tune_batched(
        &self,
        algorithm: &mut dyn pstack_autotune::SearchAlgorithm,
        max_evals: usize,
        seed: u64,
    ) -> Result<TuneReport, TuneError> {
        Tuner::new(self.space())
            .max_evals(max_evals)
            .seed(seed)
            .run_parallel_with(algorithm, &mut self.arena_evaluator())
    }
}

/// Arena-backed [`BatchEvaluator`] for [`HypreCoTune`]: every evaluation
/// resets the same [`EvalArena`] in place instead of rebuilding the
/// simulated stack, bit-identical to the scalar
/// [`evaluate`](HypreCoTune::evaluate) oracle.
pub struct HypreArenaEvaluator<'a> {
    cotune: &'a HypreCoTune,
    arena: EvalArena,
}

impl BatchEvaluator for HypreArenaEvaluator<'_> {
    fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> (f64, HashMap<String, f64>) {
        self.cotune.evaluate_in(&mut self.arena, space, cfg)
    }

    fn reuse_hits(&self) -> usize {
        self.arena.reuse_hits()
    }
}

/// §3.2.3 joint space: loop-transformation knobs × system parameter
/// (#threads) × node power cap — ytopt extended "to the end-to-end
/// auto-tuning ... under a system power cap".
pub struct KernelCoTune {
    /// The kernel cost model.
    pub model: KernelModel,
    /// Node power caps to consider, watts (`0` = uncapped).
    pub node_caps_w: Vec<f64>,
    /// The objective.
    pub objective: Objective,
    /// Simulation seed.
    pub seed: u64,
}

impl KernelCoTune {
    /// Defaults: PolyBench-large kernel, three cap levels.
    pub fn new(objective: Objective) -> Self {
        KernelCoTune {
            model: KernelModel::polybench_large(),
            node_caps_w: vec![0.0, 250.0, 320.0],
            objective,
            seed: 1,
        }
    }

    /// The joint space with the unroll≤tile_k dependency condition.
    pub fn space(&self) -> ParamSpace {
        let tiles: Vec<i64> = KernelConfig::TILES
            .iter()
            .map(|&t| i64::try_from(t).expect("tile size fits i64"))
            .collect();
        let unrolls: Vec<i64> = KernelConfig::UNROLLS
            .iter()
            .map(|&u| i64::try_from(u).expect("unroll factor fits i64"))
            .collect();
        let threads: Vec<i64> = (0..)
            .map(|i| 1i64 << i)
            .take_while(|&t| {
                t <= i64::try_from(self.model.max_threads).expect("thread count fits i64")
            })
            .collect();
        ParamSpace::new()
            .with(Param::ints("tile_i", tiles.clone()))
            .with(Param::ints("tile_j", tiles.clone()))
            .with(Param::ints("tile_k", tiles))
            .with(Param::strs(
                "interchange",
                ["ijk", "ikj", "jik", "jki", "kij", "kji"],
            ))
            .with(Param::ints("unroll", unrolls))
            .with(Param::boolean("packing"))
            .with(Param::ints("threads", threads))
            .with(Param::floats("node_cap_w", self.node_caps_w.clone()))
            .with_constraint("unroll<=tile_k", |s, c| {
                s.value(c, "unroll").as_int() <= s.value(c, "tile_k").as_int()
            })
    }

    /// Decode to a kernel configuration plus the cap.
    pub fn decode(&self, space: &ParamSpace, cfg: &Config) -> (KernelConfig, Option<f64>) {
        let interchange = match space.value(cfg, "interchange").as_str() {
            "ijk" => Interchange::Ijk,
            "ikj" => Interchange::Ikj,
            "jik" => Interchange::Jik,
            "jki" => Interchange::Jki,
            "kij" => Interchange::Kij,
            _ => Interchange::Kji,
        };
        let dim = |name: &str| {
            usize::try_from(space.value(cfg, name).as_int())
                .expect("kernel space dimensions are positive")
        };
        let kc = KernelConfig {
            tile_i: dim("tile_i"),
            tile_j: dim("tile_j"),
            tile_k: dim("tile_k"),
            interchange,
            unroll: dim("unroll"),
            packing: space.value(cfg, "packing").as_bool(),
            threads: dim("threads"),
        };
        let cap = space.value(cfg, "node_cap_w").as_float();
        (kc, if cap > 0.0 { Some(cap) } else { None })
    }

    /// Evaluate by simulating the kernel on one (optionally capped) node.
    pub fn evaluate(&self, space: &ParamSpace, cfg: &Config) -> (f64, HashMap<String, f64>) {
        let (kc, cap) = self.decode(space, cfg);
        let app = KernelApp {
            model: self.model,
            config: kc,
        };
        let (time_s, energy_j, work) = simulate_app(&app, 1, cap, self.seed);
        let mut aux = HashMap::new();
        aux.insert("time_s".to_string(), time_s);
        aux.insert("energy_j".to_string(), energy_j);
        aux.insert("power_w".to_string(), energy_j / time_s.max(1e-9));
        (self.objective.cost(time_s, energy_j, work), aux)
    }

    /// Evaluate one configuration on a reusable [`EvalArena`]; bit-identical
    /// to [`evaluate`](Self::evaluate) with all per-evaluation allocation
    /// amortized away.
    pub fn evaluate_in(
        &self,
        arena: &mut EvalArena,
        space: &ParamSpace,
        cfg: &Config,
    ) -> (f64, HashMap<String, f64>) {
        let (kc, cap) = self.decode(space, cfg);
        let app = KernelApp {
            model: self.model,
            config: kc,
        };
        let (time_s, energy_j, work) = arena.evaluate(&app, 1, cap, self.seed);
        let mut aux = HashMap::new();
        aux.insert("time_s".to_string(), time_s);
        aux.insert("energy_j".to_string(), energy_j);
        aux.insert("power_w".to_string(), energy_j / time_s.max(1e-9));
        (self.objective.cost(time_s, energy_j, work), aux)
    }

    /// Run the tuning loop.
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`] if the algorithm proposes nothing.
    pub fn tune(
        &self,
        algorithm: &mut dyn pstack_autotune::SearchAlgorithm,
        max_evals: usize,
        seed: u64,
    ) -> Result<TuneReport, TuneError> {
        Tuner::new(self.space())
            .max_evals(max_evals)
            .seed(seed)
            .run(algorithm, |space, cfg| self.evaluate(space, cfg))
    }

    /// Like [`tune`](Self::tune), with batched suggestions evaluated on
    /// `workers` threads (worker count never changes the result).
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`] if the algorithm proposes nothing.
    pub fn tune_parallel(
        &self,
        algorithm: &mut dyn pstack_autotune::SearchAlgorithm,
        max_evals: usize,
        seed: u64,
        workers: usize,
    ) -> Result<TuneReport, TuneError> {
        Tuner::new(self.space())
            .max_evals(max_evals)
            .seed(seed)
            .run_parallel(algorithm, workers, |space, cfg| self.evaluate(space, cfg))
    }

    /// A fresh arena-backed [`BatchEvaluator`] over this space, for
    /// [`Tuner::run_parallel_with`].
    pub fn arena_evaluator(&self) -> KernelArenaEvaluator<'_> {
        KernelArenaEvaluator {
            cotune: self,
            arena: EvalArena::new(),
        }
    }

    /// Like [`tune_parallel`](Self::tune_parallel), but through the batched
    /// SoA fast path: one warm [`EvalArena`] evaluates every proposal with
    /// all per-evaluation allocation amortized away. The report is
    /// byte-identical to [`tune_parallel`](Self::tune_parallel) at any
    /// worker count, at a fraction of the wall-clock cost. It matches
    /// [`tune`](Self::tune) only where batched and serial suggestions
    /// coincide (e.g. `RandomSearch`); `ForestSearch` ranks a top-k per
    /// batch, so its serial and batched reports differ.
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`] if the algorithm proposes nothing.
    pub fn tune_batched(
        &self,
        algorithm: &mut dyn pstack_autotune::SearchAlgorithm,
        max_evals: usize,
        seed: u64,
    ) -> Result<TuneReport, TuneError> {
        Tuner::new(self.space())
            .max_evals(max_evals)
            .seed(seed)
            .run_parallel_with(algorithm, &mut self.arena_evaluator())
    }
}

/// Arena-backed [`BatchEvaluator`] for [`KernelCoTune`]: every evaluation
/// resets the same [`EvalArena`] in place instead of rebuilding the
/// simulated stack, bit-identical to the scalar
/// [`evaluate`](KernelCoTune::evaluate) oracle.
pub struct KernelArenaEvaluator<'a> {
    cotune: &'a KernelCoTune,
    arena: EvalArena,
}

impl BatchEvaluator for KernelArenaEvaluator<'_> {
    fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> (f64, HashMap<String, f64>) {
        self.cotune.evaluate_in(&mut self.arena, space, cfg)
    }

    fn reuse_hits(&self) -> usize {
        self.arena.reuse_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_autotune::RandomSearch;

    #[test]
    fn simulate_app_produces_sane_numbers() {
        let app = pstack_apps::synthetic::SyntheticApp::new(
            pstack_apps::synthetic::Profile::ComputeHeavy,
            10.0,
            5,
        );
        let (t, e, w) = simulate_app(&app, 2, None, 1);
        assert!(t > 1.0 && t < 20.0, "time {t}");
        assert!(e > 100.0, "energy {e}");
        assert!(w > 10.0, "work {w}");
        // Capped run: slower, and average power below the cap.
        let (tc, ec, _) = simulate_app(&app, 2, Some(280.0), 1);
        assert!(tc >= t * 0.99);
        assert!(ec / tc <= 2.0 * 280.0 * 1.10, "power {}", ec / tc);
    }

    #[test]
    fn hypre_space_respects_dependencies() {
        let ct = HypreCoTune::new(Objective::MinTime);
        let space = ct.space();
        // 90 app configs × 3 node counts × 4 caps.
        assert_eq!(space.enumerate().count(), 90 * 3 * 4);
        for cfg in space.enumerate().take(50) {
            let (hc, n, _) = ct.decode(&space, &cfg);
            assert!(hc.is_valid());
            assert!(n >= 2);
        }
    }

    #[test]
    fn hypre_evaluation_runs() {
        let ct = HypreCoTune::new(Objective::MinTime);
        let space = ct.space();
        let cfg = space.enumerate().next().unwrap();
        let (cost, aux) = ct.evaluate(&space, &cfg);
        assert!(cost.is_finite() && cost > 0.0);
        assert!(aux["energy_j"] > 0.0);
    }

    #[test]
    fn kernel_space_and_tune_smoke() {
        let ct = KernelCoTune::new(Objective::MinEnergy);
        let report = ct.tune(&mut RandomSearch::new(), 6, 3).unwrap();
        assert_eq!(report.evals, 6);
        assert!(report.best_objective > 0.0);
        let (kc, _) = ct.decode(&ct.space(), &report.best_config);
        assert!(kc.is_valid(ct.model.max_threads));
    }

    #[test]
    fn arena_evaluators_are_bit_identical_to_scalar() {
        let kt = KernelCoTune::new(Objective::MinEdp);
        let ks = kt.space();
        let ht = HypreCoTune::new(Objective::MinEnergy);
        let hs = ht.space();
        let mut arena = EvalArena::new();
        for cfg in ks.enumerate().step_by(1499).take(6) {
            let (cost, aux) = kt.evaluate(&ks, &cfg);
            let (fcost, faux) = kt.evaluate_in(&mut arena, &ks, &cfg);
            assert_eq!(cost.to_bits(), fcost.to_bits());
            assert_eq!(aux.len(), faux.len());
            for (k, v) in &aux {
                assert_eq!(v.to_bits(), faux[k].to_bits(), "kernel aux {k}");
            }
        }
        for cfg in hs.enumerate().step_by(211).take(4) {
            let (cost, aux) = ht.evaluate(&hs, &cfg);
            let (fcost, faux) = ht.evaluate_in(&mut arena, &hs, &cfg);
            assert_eq!(cost.to_bits(), fcost.to_bits());
            assert_eq!(aux.len(), faux.len());
            for (k, v) in &aux {
                assert_eq!(v.to_bits(), faux[k].to_bits(), "hypre aux {k}");
            }
        }
    }

    #[test]
    fn kernel_parallel_tune_matches_serial() {
        let ct = KernelCoTune::new(Objective::MinEnergy);
        let serial = ct.tune(&mut RandomSearch::new(), 8, 5).unwrap();
        let parallel = ct.tune_parallel(&mut RandomSearch::new(), 8, 5, 4).unwrap();
        assert_eq!(serial.db.observations(), parallel.db.observations());
        assert_eq!(serial.best_config, parallel.best_config);
        assert_eq!(serial.best_objective, parallel.best_objective);
    }

    #[test]
    fn batched_tune_reports_are_byte_identical_to_scalar() {
        let kt = KernelCoTune::new(Objective::MinEdp);
        let scalar = kt.tune_parallel(&mut RandomSearch::new(), 8, 5, 1).unwrap();
        let batched = kt.tune_batched(&mut RandomSearch::new(), 8, 5).unwrap();
        assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&batched).unwrap(),
            "kernel co-tune reports diverge"
        );
        let ht = HypreCoTune::new(Objective::MinEnergy);
        let scalar = ht.tune_parallel(&mut RandomSearch::new(), 6, 2, 2).unwrap();
        let batched = ht.tune_batched(&mut RandomSearch::new(), 6, 2).unwrap();
        assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&batched).unwrap(),
            "hypre co-tune reports diverge"
        );
        // Past the forest's 8-point initial design, over several rounds:
        // the batched report is `tune_parallel`'s, not the serial `tune`'s.
        let scalar = kt
            .tune_parallel(&mut pstack_autotune::ForestSearch::new(), 20, 5, 2)
            .unwrap();
        let batched = kt
            .tune_batched(&mut pstack_autotune::ForestSearch::new(), 20, 5)
            .unwrap();
        assert_eq!(scalar.evals, 20, "the surrogate phase ran");
        assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&batched).unwrap(),
            "kernel forest co-tune reports diverge"
        );
    }
}
