//! Warm-start acceptance gate for the shared performance history.
//!
//! Thin binary over [`powerstack_core::experiments::history`] (extension
//! E9): runs the donor → cold-vs-warmed comparison on both co-tuning arms,
//! writes the `results/bench_history.{json,txt}` artifacts, and exits
//! nonzero unless the history-warmed campaign reached the
//! within-2%-of-best band in strictly fewer fresh evaluations than the
//! cold campaign on *every* arm. The CI `history` stage runs this binary.

use powerstack_core::experiments::history;

fn main() {
    pstack_analyze::startup_gate();

    let r = pstack_bench::traced("bench_history", |_tc| {
        pstack_bench::timed("E9", history::run_default)
    });
    let r = pstack_bench::run_or_exit("bench_history", r);
    pstack_bench::emit("bench_history", &history::render(&r), &r);

    for row in &r.rows {
        assert!(
            row.warmed_fewer,
            "{}: history-warmed campaign needed {:?} fresh evals to the band \
             vs cold {:?} — no warm-start gain; see {}",
            row.arm,
            row.warmed_evals_to_target,
            row.cold_evals_to_target,
            pstack_bench::results_dir()
                .join("bench_history.json")
                .display()
        );
    }
}
