//! Evaluation-throughput benchmark for the batched SoA fast path.
//!
//! Thin binary over [`pstack_bench::evalthroughput`]: runs the three-lane
//! measurement (scalar oracle / exact arena / coarse-tick arena) over the
//! fig4-class kernel space and the uc3-class Hypre space, writes the
//! `results/bench_evalthroughput.{json,txt}` artifacts, and enforces the
//! acceptance contract — the fig4-class exact-or-coarse speedup must clear
//! [`FIG4_TARGET_SPEEDUP`]× with the exact lane bit-identical to the
//! scalar oracle. The CI `perf` stage runs this binary.
//!
//! [`FIG4_TARGET_SPEEDUP`]: evalthroughput::FIG4_TARGET_SPEEDUP

use pstack_bench::evalthroughput;

fn main() {
    pstack_analyze::startup_gate();

    let r = pstack_bench::traced_under("bench_evalthroughput", evalthroughput::run);
    pstack_bench::emit("bench_evalthroughput", &evalthroughput::render(&r), &r);

    let fig4_best = r.fig4_kernel.best_speedup();
    assert!(
        fig4_best >= evalthroughput::FIG4_TARGET_SPEEDUP,
        "fig4-class speedup {fig4_best:.1}x below the {:.0}x target",
        evalthroughput::FIG4_TARGET_SPEEDUP
    );
    assert!(
        r.fig4_kernel.bit_identical && r.uc3_hypre.bit_identical,
        "exact arena path must match the scalar oracle bit-for-bit"
    );
}
