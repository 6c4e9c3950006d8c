//! Concurrency audit: every parallel driver under the deterministic
//! schedule explorer.
//!
//! The explorer ([`powerstack::sync::explore`]) re-runs a workload across a
//! seeded grid of adversarial yield schedules × worker counts, with the
//! instrumented `pstack-sync` layer armed so every lock/atomic acquisition
//! is perturbed and recorded into the global lock-order graph. Contracts
//! asserted here:
//!
//! - **Byte-identical reports.** All four tuning drivers (`run`,
//!   `run_parallel`, `run_resilient`, `run_parallel_resilient`) reproduce
//!   the unperturbed single-worker report byte-for-byte on every arm of the
//!   standard 16-seed × {1, 2, 4, 8}-worker grid.
//! - **Clean lock-order graph.** No inversions, no cycles, no
//!   held-across-wait or long-critical-section smells anywhere on the grid.
//! - **Declared sites only.** Every site the graph observes is declared in
//!   `pstack_sync::sites` (the registry PSA017 audits cannot drift from
//!   runtime reality).
//! - **Ledgers balance under chaos.** Eval-cache misses equal evaluations,
//!   the quarantine ledger replays identically, and the bounded trace ring
//!   accounts every span (retained + dropped == issued) on every schedule.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use powerstack::autotune::{
    Config, Evaluation, ForestSearch, ParamSpace, RandomSearch, Robustness, Tuner,
};
use powerstack::faults::{FaultPlan, FaultyEvaluator};
use powerstack::prelude::*;
use powerstack::sync::{explore, sites, SeedGrid};
use powerstack::trace::TraceCollector;
use std::sync::Arc;

fn space() -> ParamSpace {
    ParamSpace::new()
        .with(Param::ints("tile", [8, 16, 32, 64]))
        .with(Param::ints("unroll", [1, 2, 4, 8]))
        .with(Param::boolean("packing"))
        .with_constraint("unroll<=tile", |s, c| {
            s.value(c, "unroll").as_int() <= s.value(c, "tile").as_int()
        })
}

fn objective(space: &ParamSpace, cfg: &Config) -> Evaluation {
    let tile = space.value(cfg, "tile").as_int() as f64;
    let unroll = space.value(cfg, "unroll").as_int() as f64;
    let packing = space.value(cfg, "packing").as_bool();
    let time = (tile - 32.0).abs() / 8.0 + (unroll - 4.0).abs() + if packing { 0.0 } else { 1.5 };
    (1.0 + time, std::collections::HashMap::new())
}

/// Assert an exploration is fully clean and only touched declared sites.
fn assert_clean(out: &powerstack::sync::Exploration, what: &str) {
    assert!(out.clean(), "{what}: {}", out.summary());
    for site in out.graph.nodes.keys() {
        assert!(
            sites::is_declared(site) || site.starts_with("test."),
            "{what}: observed undeclared site {site}"
        );
    }
}

#[test]
fn serial_driver_is_schedule_invariant() {
    let grid = SeedGrid::standard();
    let out = explore(&grid, |_workers| {
        let report = Tuner::new(space())
            .max_evals(16)
            .seed(11)
            .run(&mut RandomSearch::new(), objective)
            .expect("serial run completes");
        serde_json::to_string(&report).expect("reports serialize")
    });
    assert_eq!(out.arms, 64);
    assert_clean(&out, "run");
}

#[test]
fn parallel_driver_is_schedule_invariant() {
    let grid = SeedGrid::standard();
    let collector = Arc::new(TraceCollector::new());
    let out = explore(&grid, |workers| {
        let report = Tuner::new(space())
            .max_evals(16)
            .seed(11)
            .with_trace(Arc::clone(&collector))
            .run_parallel(&mut RandomSearch::new(), workers, objective)
            .expect("parallel run completes");
        // Ledger invariant on every arm: every eval is a cache miss.
        assert_eq!(report.cache.misses, report.evals, "misses must equal evals");
        serde_json::to_string(&report).expect("reports serialize")
    });
    assert_eq!(out.arms, 64);
    assert_clean(&out, "run_parallel");
    // With tracing attached and chaos armed, the worker pool and the trace
    // layer must both have shown up in the observed graph.
    for expected in [sites::POOL_CURSOR, sites::TRACE_RING, sites::TRACE_SPAN_ID] {
        assert!(
            out.graph.nodes.contains_key(expected),
            "expected site {expected} in observed graph: {}",
            out.summary()
        );
    }
}

#[test]
fn resilient_driver_is_schedule_invariant() {
    let grid = SeedGrid::standard();
    let plan = FaultPlan::evals_only();
    let out = explore(&grid, |_workers| {
        let evaluator = FaultyEvaluator::new(objective, &plan, 0xC0FFEE);
        let mut primary = ForestSearch::new();
        let mut fallback = RandomSearch::new();
        let report = Tuner::new(space())
            .max_evals(16)
            .seed(7)
            .run_resilient(
                &mut primary,
                Some(&mut fallback),
                &Robustness::default(),
                |s, c, a| evaluator.evaluate(s, c, a),
            )
            .expect("resilient run completes");
        assert_eq!(report.cache.misses, report.evals, "misses must equal evals");
        serde_json::to_string(&report).expect("reports serialize")
    });
    assert_eq!(out.arms, 64);
    assert_clean(&out, "run_resilient");
}

#[test]
fn parallel_resilient_driver_is_schedule_invariant() {
    // The quarantine ledger rides inside the serialized report: byte
    // identity across the grid is quarantine invariance under a
    // deterministically faulty evaluator.
    let grid = SeedGrid::standard();
    let plan = FaultPlan::evals_only();
    let out = explore(&grid, |workers| {
        let evaluator = FaultyEvaluator::new(objective, &plan, 0xC0FFEE);
        let mut primary = ForestSearch::new();
        let mut fallback = RandomSearch::new();
        let report = Tuner::new(space())
            .max_evals(16)
            .seed(7)
            .run_parallel_resilient(
                &mut primary,
                Some(&mut fallback),
                &Robustness::default(),
                workers,
                |s, c, a| evaluator.evaluate(s, c, a),
            )
            .expect("parallel resilient run completes");
        assert_eq!(report.cache.misses, report.evals, "misses must equal evals");
        serde_json::to_string(&report).expect("reports serialize")
    });
    assert_eq!(out.arms, 64);
    assert_clean(&out, "run_parallel_resilient");
}

#[test]
fn trace_ring_overflow_accounting_is_schedule_invariant() {
    // A ring smaller than the span load: every schedule must retain exactly
    // `capacity` spans and account every eviction — retained + dropped ==
    // issued, byte-for-byte across the grid.
    const CAPACITY: usize = 32;
    const SPANS_PER_WORKER: usize = 25;
    let grid = SeedGrid::standard();
    let out = explore(&grid, |workers| {
        let collector = TraceCollector::with_capacity(CAPACITY);
        std::thread::scope(|s| {
            for w in 0..workers {
                let collector = &collector;
                s.spawn(move || {
                    for i in 0..SPANS_PER_WORKER {
                        let mut span = collector.span("audit");
                        span.attr("w", w as i64);
                        span.attr("i", i as i64);
                    }
                });
            }
        });
        let trace = collector.snapshot();
        let issued = workers * SPANS_PER_WORKER;
        assert_eq!(
            trace.len() as u64 + trace.dropped,
            issued as u64,
            "workers={workers}: ring lost or double-counted spans"
        );
        // Canonical artifact: the conservation triple, independent of which
        // spans survived (eviction order is schedule-dependent by design —
        // the *accounting* is what must be invariant). Single-worker runs
        // fit partly in the ring; overflow starts beyond capacity.
        format!(
            "retained+dropped={} capacity={} overflowed={}",
            trace.len() as u64 + trace.dropped,
            trace.len().min(CAPACITY),
            trace.dropped > 0,
        )
    });
    // The artifact deliberately varies with worker count (issued spans
    // scale with workers), so compare per-arm invariants instead of
    // baseline identity: the graph must still be clean and the ring site
    // observed.
    assert_eq!(out.arms, 64);
    assert!(
        out.graph.inversions.is_empty() && out.graph.smells.is_empty(),
        "{}",
        out.summary()
    );
    assert!(out.graph.cycle().is_none(), "{}", out.summary());
    assert!(out.graph.nodes.contains_key(sites::TRACE_RING));
}

#[test]
fn observed_graph_edges_respect_the_declared_hierarchy() {
    // Run the richest driver (parallel + tracing) once under a compact
    // grid, then hold every observed edge to the ranks the site registry
    // declares (the hierarchy PSA017 checks): an edge outer → inner is only
    // legal if rank(outer) < rank(inner).
    let grid = SeedGrid::compact(4, 8);
    let collector = Arc::new(TraceCollector::new());
    let out = explore(&grid, |workers| {
        let report = Tuner::new(space())
            .max_evals(16)
            .seed(3)
            .with_trace(Arc::clone(&collector))
            .run_parallel(&mut RandomSearch::new(), workers, objective)
            .expect("parallel run completes");
        serde_json::to_string(&report).expect("reports serialize")
    });
    assert_clean(&out, "hierarchy-audit");
    let rank = |site: &str| {
        sites::all()
            .iter()
            .find(|d| d.label == site)
            .map(|d| d.rank)
            .unwrap_or_else(|| panic!("observed site {site} missing from the registry"))
    };
    for (outer, inner) in out.graph.edges.keys() {
        assert!(
            rank(outer) < rank(inner),
            "observed edge {outer} -> {inner} violates the declared hierarchy"
        );
    }
}
