//! Evaluation-throughput measurement for the batched evaluation fast path.
//!
//! The `bench_evalthroughput` artifact: times the same deterministic sample of co-tune configurations through
//! three evaluators and reports evals/min for each:
//!
//! - `scalar`: the oracle — `simulate_app` rebuilds the full simulated
//!   stack (fresh `NodeManager`s, workload, lockstep kernel) per
//!   evaluation and steps the scalar nodes.
//! - `arena`: the `EvalArena` fast path — reset-in-place state over
//!   `NodeBatch` lanes, **bit-identical** to the scalar oracle (asserted for
//!   every sampled configuration, cost and every aux metric).
//! - `arena_coarse`: the arena with coarse-tick integration enabled —
//!   uncapped spans integrate with the closed-form RC exponential over long
//!   substeps instead of the scalar 250 ms grid, and capped spans settle the
//!   RAPL controller on fine ticks after each control event before advancing
//!   with the controller held. Not bit-identical (the throttle latch and cap
//!   controller are sampled per tick, so leakage sees slightly staler
//!   temperatures); the observed relative error is reported and bounded at
//!   [`COARSE_REL_TOL`].
//!
//! Each lane's `wall_s` is its fastest pass over the sample in
//! [`ROUNDS`] interleaved rounds (scalar, arena, coarse in each round): the
//! coarse lane's pass is well under a millisecond, so a single timed pass
//! read timer and scheduler noise as much as work.
//!
//! The trace holds one span per space under the caller's span, and under
//! each space one span per lane pass (`scalar`, `arena`, `arena_coarse`,
//! with its `round`), so `results/trace_bench_evalthroughput.json` shows
//! where the bench's wall time went.
//!
//! Two spaces are sampled: the fig4-class kernel space (single node,
//! §3.2.3's ytopt loop) and the uc3-class Hypre space (multi-node, §4.4).
//! The headline acceptance check asserts ≥[`FIG4_TARGET_SPEEDUP`]× evals/min
//! over scalar on the fig4-class space (the artifact's check in
//! [`crate::TABLE`], reported here). The scalar-equivalence contract is
//! asserted by [`run`] itself, in every round, and `bench_diff` gates
//! `bit_identical` exactly.

use powerstack_core::cotune::{HypreCoTune, KernelCoTune};
use powerstack_core::interfaces::Objective;
use powerstack_core::EvalArena;
use pstack_autotune::{Config, ParamSpace};
use pstack_sim::SimDuration;
use pstack_trace::SpanGuard;
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

const SEED_NOTE: &str = "configs sampled deterministically via enumerate().step_by()";
/// Coarse-lane substep; capped spans are further clamped by the arena's
/// held-tick ceiling.
pub const COARSE_SUBSTEP_S: u64 = 10;
/// Relative cost-error bound asserted on the coarse lane.
pub const COARSE_REL_TOL: f64 = 0.01;
/// Acceptance floor for the fig4-class exact-or-coarse speedup.
pub const FIG4_TARGET_SPEEDUP: f64 = 10.0;
/// Timed rounds per space; each lane reports its fastest pass.
pub const ROUNDS: usize = 15;

/// What one evaluation returns: `(cost, aux metrics)`.
type EvalOut = (f64, HashMap<String, f64>);
/// Scalar-oracle evaluator over a space.
type ScalarEval<'a> = dyn Fn(&ParamSpace, &Config) -> EvalOut + 'a;
/// Arena-backed evaluator over a space.
type ArenaEval<'a> = dyn FnMut(&mut EvalArena, &ParamSpace, &Config) -> EvalOut + 'a;

/// One evaluator's timing over the sampled configurations: its fastest
/// pass of [`ROUNDS`].
#[derive(Debug, Serialize)]
pub struct Lane {
    pub wall_s: f64,
    pub evals_per_min: f64,
}

fn lane(wall_s: f64, n: usize) -> Lane {
    Lane {
        wall_s,
        evals_per_min: n as f64 / wall_s.max(1e-12) * 60.0,
    }
}

/// Throughput comparison over one co-tune space.
#[derive(Debug, Serialize)]
pub struct SpaceBench {
    pub space: String,
    pub configs: usize,
    pub scalar: Lane,
    pub arena: Lane,
    pub arena_coarse: Lane,
    pub speedup_exact: f64,
    pub speedup_coarse: f64,
    /// Every sampled configuration matched the scalar oracle bit-for-bit
    /// on the exact arena path (cost and all aux metrics).
    pub bit_identical: bool,
    /// Largest relative cost error observed on the coarse-tick path.
    pub coarse_max_rel_err: f64,
}

impl SpaceBench {
    /// Best achieved speedup over the scalar oracle on either arena lane.
    pub fn best_speedup(&self) -> f64 {
        self.speedup_exact.max(self.speedup_coarse)
    }
}

#[derive(Debug, Serialize)]
pub struct EvalThroughputResult {
    pub sampling: String,
    pub coarse_substep_s: u64,
    pub fig4_target_speedup: f64,
    pub fig4_kernel: SpaceBench,
    pub uc3_hypre: SpaceBench,
}

/// Run the three lanes over `configs` with the given evaluate closures,
/// [`ROUNDS`] times each, interleaved, keeping each lane's fastest pass.
/// The space gets a span named `label` under `parent`, and each lane pass a
/// span under it.
/// Panics if the exact arena lane diverges from the scalar oracle by a
/// single bit in any round or the coarse lane drifts past
/// [`COARSE_REL_TOL`] — the speedups this reports are only meaningful under
/// those contracts.
fn bench_space(
    parent: &SpanGuard<'_>,
    label: &str,
    space: &ParamSpace,
    configs: &[Config],
    scalar_eval: &ScalarEval,
    arena_eval: &mut ArenaEval,
) -> SpaceBench {
    let mut space_span = parent.child(label);
    space_span.attr("configs", configs.len() as i64);
    // Each lane pass is timed inside its span, so opening and closing the
    // span stays out of the measurement.
    let pass = |lane: &str, round: usize, f: &mut dyn FnMut() -> Vec<EvalOut>| {
        let mut span = space_span.child(lane);
        span.attr("round", round as i64);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    };
    // One warm-up eval per arena so steady-state reuse is timed.
    let mut arena = EvalArena::new();
    let _ = arena_eval(&mut arena, space, &configs[0]);
    let mut coarse = EvalArena::new().with_coarse_substep(SimDuration::from_secs(COARSE_SUBSTEP_S));
    let _ = arena_eval(&mut coarse, space, &configs[0]);

    let (mut scalar_s, mut arena_s, mut coarse_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut bit_identical = true;
    let mut coarse_max_rel_err = 0.0f64;
    for round in 0..ROUNDS {
        let (scalar_out, s) = pass("scalar", round, &mut || {
            configs.iter().map(|c| scalar_eval(space, c)).collect()
        });
        scalar_s = scalar_s.min(s);
        let (arena_out, s) = pass("arena", round, &mut || {
            configs
                .iter()
                .map(|c| arena_eval(&mut arena, space, c))
                .collect()
        });
        arena_s = arena_s.min(s);
        let (coarse_out, s) = pass("arena_coarse", round, &mut || {
            configs
                .iter()
                .map(|c| arena_eval(&mut coarse, space, c))
                .collect()
        });
        coarse_s = coarse_s.min(s);

        // Scalar-equivalence check: the exact lane is bit-identical, the
        // coarse lane within tolerance.
        for (i, ((s, a), c)) in scalar_out
            .iter()
            .zip(&arena_out)
            .zip(&coarse_out)
            .enumerate()
        {
            let exact_match = s.0.to_bits() == a.0.to_bits()
                && s.1.len() == a.1.len()
                && s.1
                    .iter()
                    .all(|(k, v)| a.1.get(k).map(|w| v.to_bits() == w.to_bits()) == Some(true));
            assert!(
                exact_match,
                "{label}: arena diverged from the scalar oracle on config {i}: \
                 {:?} vs {:?}",
                s, a
            );
            bit_identical &= exact_match;
            let rel = (c.0 - s.0).abs() / s.0.abs().max(f64::MIN_POSITIVE);
            coarse_max_rel_err = coarse_max_rel_err.max(rel);
        }
    }
    assert!(
        coarse_max_rel_err <= COARSE_REL_TOL,
        "{label}: coarse ticks drifted {coarse_max_rel_err:.4} > {COARSE_REL_TOL}"
    );

    SpaceBench {
        space: label.to_string(),
        configs: configs.len(),
        scalar: lane(scalar_s, configs.len()),
        arena: lane(arena_s, configs.len()),
        arena_coarse: lane(coarse_s, configs.len()),
        speedup_exact: scalar_s / arena_s.max(1e-12),
        speedup_coarse: scalar_s / coarse_s.max(1e-12),
        bit_identical,
        coarse_max_rel_err,
    }
}

/// Run the full throughput measurement: both spaces, all three lanes, with
/// per-space and per-lane-pass trace spans under `parent` (the artifact's
/// root span).
pub fn run(parent: &SpanGuard<'_>) -> EvalThroughputResult {
    let kt = KernelCoTune::new(Objective::MinEdp);
    let ks = kt.space();
    let kernel_cfgs: Vec<Config> = ks.enumerate().step_by(331).take(48).collect();

    let ht = HypreCoTune::new(Objective::MinEnergy);
    let hs = ht.space();
    let hypre_cfgs: Vec<Config> = hs.enumerate().step_by(67).take(16).collect();

    let fig4_kernel = bench_space(
        parent,
        "fig4_kernel",
        &ks,
        &kernel_cfgs,
        &|s, c| kt.evaluate(s, c),
        &mut |arena, s, c| kt.evaluate_in(arena, s, c),
    );
    let uc3_hypre = bench_space(
        parent,
        "uc3_hypre",
        &hs,
        &hypre_cfgs,
        &|s, c| ht.evaluate(s, c),
        &mut |arena, s, c| ht.evaluate_in(arena, s, c),
    );

    EvalThroughputResult {
        sampling: SEED_NOTE.to_string(),
        coarse_substep_s: COARSE_SUBSTEP_S,
        fig4_target_speedup: FIG4_TARGET_SPEEDUP,
        fig4_kernel,
        uc3_hypre,
    }
}

/// Text rendering (the `results/bench_evalthroughput.txt` artifact).
pub fn render(r: &EvalThroughputResult) -> String {
    let row = |b: &SpaceBench| {
        format!(
            "{lbl:<12} | {n:>4} | {ss:>8.3} | {as_:>8.3} | {cs:>8.3} | {sx:>6.1}x | {cx:>6.1}x | {sm:>9.0} | {am:>9.0} | {cm:>9.0} | {bit} | {err:.2e}\n",
            lbl = b.space,
            n = b.configs,
            ss = b.scalar.wall_s,
            as_ = b.arena.wall_s,
            cs = b.arena_coarse.wall_s,
            sx = b.speedup_exact,
            cx = b.speedup_coarse,
            sm = b.scalar.evals_per_min,
            am = b.arena.evals_per_min,
            cm = b.arena_coarse.evals_per_min,
            bit = b.bit_identical,
            err = b.coarse_max_rel_err,
        )
    };
    format!(
        "EVAL THROUGHPUT: batched SoA fast path vs scalar oracle ({note}; each lane's fastest of {rounds} interleaved rounds)\n\
         space        |    n | scalar_s |  arena_s | coarse_s |  exact | coarse | scal/min | aren/min | coar/min | bit_identical | coarse_err\n\
         {k}{h}\
         acceptance: fig4-class exact-or-coarse speedup >= {t:.0}x\n",
        note = r.sampling,
        rounds = ROUNDS,
        k = row(&r.fig4_kernel),
        h = row(&r.uc3_hypre),
        t = r.fig4_target_speedup,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_trace::TraceCollector;

    /// A two-config kernel sample records one span for the space under the
    /// caller's span and one per lane pass under the space.
    #[test]
    fn spaces_and_lane_passes_are_traced_under_the_caller() {
        let kt = KernelCoTune::new(Objective::MinEdp);
        let ks = kt.space();
        let cfgs: Vec<Config> = ks.enumerate().step_by(331).take(2).collect();
        let tc = TraceCollector::new();
        let root_id = {
            let root = tc.span("caller");
            let b = bench_space(
                &root,
                "fig4_kernel",
                &ks,
                &cfgs,
                &|s, c| kt.evaluate(s, c),
                &mut |arena, s, c| kt.evaluate_in(arena, s, c),
            );
            assert!(b.bit_identical);
            root.id()
        };
        let trace = tc.snapshot();
        let spaces: Vec<_> = trace.by_name("fig4_kernel").collect();
        assert_eq!(spaces.len(), 1);
        assert_eq!(spaces[0].parent, Some(root_id));
        for lane in ["scalar", "arena", "arena_coarse"] {
            let passes: Vec<_> = trace.by_name(lane).collect();
            assert_eq!(passes.len(), ROUNDS, "{lane}");
            assert!(
                passes.iter().all(|p| p.parent == Some(spaces[0].id)),
                "{lane}"
            );
        }
    }
}
