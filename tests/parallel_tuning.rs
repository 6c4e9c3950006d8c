//! End-to-end tests of the parallel batch auto-tuner through the public API:
//! the ask-tell batch driver must produce worker-count-invariant results,
//! memoize duplicate suggestions in the evaluation cache, and surface empty
//! searches as errors rather than panics.

// Integration tests are exempt from the workspace unwrap policy; this one
// also counts evaluator calls with a raw atomic.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use powerstack::autotune::{
    AnnealingSearch, CacheStats, Config, ExhaustiveSearch, ForestSearch, HillClimbSearch, Param,
    ParamSpace, PerfDatabase, RandomSearch, SearchAlgorithm, TuneError, Tuner,
};
use powerstack::prelude::*;
use std::collections::HashMap;

fn kernel_space() -> ParamSpace {
    ParamSpace::new()
        .with(Param::ints("tile", [8, 16, 32, 64]))
        .with(Param::ints("unroll", [1, 2, 4, 8]))
        .with(Param::strs("interchange", ["ijk", "ikj", "kij"]))
        .with(Param::boolean("packing"))
        .with_constraint("unroll<=tile", |s, c| {
            s.value(c, "unroll").as_int() <= s.value(c, "tile").as_int()
        })
}

/// A deterministic stand-in objective with real structure over the space.
fn objective(space: &ParamSpace, cfg: &Config) -> (f64, HashMap<String, f64>) {
    let tile = space.value(cfg, "tile").as_int() as f64;
    let unroll = space.value(cfg, "unroll").as_int() as f64;
    let packing = space.value(cfg, "packing").as_bool();
    let time = (tile - 32.0).abs() / 8.0 + (unroll - 4.0).abs() + if packing { 0.0 } else { 1.5 };
    (1.0 + time, HashMap::new())
}

#[test]
fn serial_and_parallel_random_search_agree_exactly() {
    let tuner = Tuner::new(kernel_space()).max_evals(40).seed(11);
    let serial = tuner.run(&mut RandomSearch::new(), objective).unwrap();
    let one = tuner
        .run_parallel(&mut RandomSearch::new(), 1, objective)
        .unwrap();
    let eight = tuner
        .run_parallel(&mut RandomSearch::new(), 8, objective)
        .unwrap();
    assert_eq!(serial.db.observations(), one.db.observations());
    assert_eq!(one.db.observations(), eight.db.observations());
    assert_eq!(serial.best_objective, eight.best_objective);
    assert_eq!(serial.cache, eight.cache);
}

#[test]
fn every_algorithm_is_worker_count_invariant() {
    type MakeAlgorithm = Box<dyn Fn() -> Box<dyn SearchAlgorithm>>;
    let fresh: Vec<(&str, MakeAlgorithm)> = vec![
        ("random", Box::new(|| Box::new(RandomSearch::new()))),
        ("exhaustive", Box::new(|| Box::new(ExhaustiveSearch::new()))),
        ("hill-climb", Box::new(|| Box::new(HillClimbSearch::new()))),
        (
            "annealing",
            Box::new(|| Box::new(AnnealingSearch::default_schedule())),
        ),
        ("forest", Box::new(|| Box::new(ForestSearch::new()))),
    ];
    let tuner = Tuner::new(kernel_space()).max_evals(24).seed(3);
    for (name, make) in &fresh {
        let a = tuner.run_parallel(make().as_mut(), 1, objective).unwrap();
        let b = tuner.run_parallel(make().as_mut(), 6, objective).unwrap();
        assert_eq!(
            a.db.observations(),
            b.db.observations(),
            "{name}: observations changed with worker count"
        );
        assert_eq!(a.cache, b.cache, "{name}: cache stats changed");
    }
}

#[test]
fn duplicate_suggestions_hit_the_cache_not_the_evaluator() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let calls = AtomicUsize::new(0);
    let space = ParamSpace::new().with(Param::ints("x", [1, 2, 3]));
    let tuner = Tuner::new(space).max_evals(50).seed(7);
    let report = tuner
        .run_parallel(&mut RandomSearch::new(), 4, |space, cfg| {
            calls.fetch_add(1, Ordering::SeqCst);
            objective_1d(space, cfg)
        })
        .unwrap();
    // Three distinct points exist: each is evaluated exactly once, every
    // duplicate suggestion is a cache hit, and the tuner exits early.
    assert_eq!(report.evals, 3);
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert_eq!(report.cache.misses, 3);
    assert!(
        report.cache.hits > 0,
        "exhausting a 3-point space must hit the cache"
    );
}

fn objective_1d(space: &ParamSpace, cfg: &Config) -> (f64, HashMap<String, f64>) {
    (space.value(cfg, "x").as_int() as f64, HashMap::new())
}

#[test]
fn unsatisfiable_space_reports_an_error() {
    let space = ParamSpace::new()
        .with(Param::ints("x", [1, 2, 3]))
        .with_constraint("never", |_, _| false);
    let tuner = Tuner::new(space).max_evals(10).seed(1);
    let err = tuner
        .run_parallel(&mut ExhaustiveSearch::new(), 4, objective_1d)
        .unwrap_err();
    assert!(matches!(err, TuneError::NoEvaluations { .. }));
    assert!(err.to_string().contains("no evaluations"));
}

#[test]
fn cotune_parallel_api_matches_serial() {
    let cotune = KernelCoTune::new(Objective::MinTime);
    let serial = cotune.tune(&mut RandomSearch::new(), 10, 5).unwrap();
    let parallel = cotune
        .tune_parallel(&mut RandomSearch::new(), 10, 5, 4)
        .unwrap();
    assert_eq!(serial.db.observations(), parallel.db.observations());
    assert_eq!(serial.best_objective, parallel.best_objective);
}

#[test]
fn warm_start_prior_seeds_the_cache() {
    // Cover the whole 3-point space, then restart from that prior: every
    // new suggestion is answered from the cache without re-evaluating.
    let space = ParamSpace::new().with(Param::ints("x", [1, 2, 3]));
    let first = Tuner::new(space.clone())
        .max_evals(3)
        .seed(2)
        .run(&mut RandomSearch::new(), objective_1d)
        .unwrap();
    assert_eq!(first.evals, 3);
    let second = Tuner::new(space)
        .max_evals(12)
        .seed(2)
        .warm_start(first.db.clone())
        .run_parallel(&mut RandomSearch::new(), 4, |_, _| {
            panic!("a fully warm cache must never re-evaluate")
        })
        .unwrap();
    assert!(second.cache.hits >= 1);
    assert_eq!(second.cache.misses, 0);
    assert_eq!(second.best_objective, first.best_objective);
    assert_ne!(second.cache, CacheStats::default());
}

/// An adversarial algorithm that over-returns: every `suggest_batch(k)`
/// yields MORE than `k` proposals (in violation of the polite contract,
/// which the tuner must tolerate by truncation, not by counter drift).
struct OverReturning {
    inner: RandomSearch,
    extra: usize,
}

impl powerstack::autotune::SearchState for OverReturning {}

impl SearchAlgorithm for OverReturning {
    fn name(&self) -> &str {
        "over-returning"
    }
    fn suggest(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut rand::rngs::SmallRng,
    ) -> Option<Config> {
        self.inner.suggest(space, db, rng)
    }
    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut rand::rngs::SmallRng,
        k: usize,
    ) -> Vec<Config> {
        self.inner.suggest_batch(space, db, rng, k + self.extra)
    }
}

#[test]
fn over_returning_batches_keep_the_cache_ledger_balanced() {
    // Regression: proposals beyond the remaining budget used to be dropped
    // silently — neither a hit nor a miss — so hits + misses drifted away
    // from the number of accepted suggestions under batch-happy algorithms.
    for workers in [1, 3, 8] {
        let report = Tuner::new(kernel_space())
            .max_evals(17) // deliberately not a multiple of any batch size
            .seed(9)
            .run_parallel(
                &mut OverReturning {
                    inner: RandomSearch::new(),
                    extra: 5,
                },
                workers,
                objective,
            )
            .unwrap();
        assert_eq!(
            report.cache.misses, report.evals,
            "workers={workers}: every eval is a miss"
        );
        assert!(report.evals <= 17, "workers={workers}: budget exceeded");
        assert!(report.best_objective.is_finite());
    }
}

#[test]
fn cache_counters_stable_under_worker_contention() {
    // The same tuning problem at every worker count must produce identical
    // counters: contention in the evaluation pool must never skew the
    // hit/miss ledger (they are tallied in suggestion order, not completion
    // order).
    let baseline = Tuner::new(kernel_space())
        .max_evals(40)
        .seed(13)
        .run_parallel(&mut RandomSearch::new(), 1, objective)
        .unwrap();
    for workers in [2, 4, 8, 16] {
        let report = Tuner::new(kernel_space())
            .max_evals(40)
            .seed(13)
            .run_parallel(&mut RandomSearch::new(), workers, objective)
            .unwrap();
        assert_eq!(report.cache, baseline.cache, "workers={workers}");
        assert_eq!(report.evals, baseline.evals, "workers={workers}");
        assert_eq!(
            report.db.observations(),
            baseline.db.observations(),
            "workers={workers}"
        );
    }
}
