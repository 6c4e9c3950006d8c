//! Regenerate every paper artifact in one pass (the EXPERIMENTS.md source).
//!
//! Run with: `cargo run -p pstack-bench --bin regenerate_all --release`
//! Outputs land under `results/`.

use powerstack_core::experiments::{
    ablations, emergency, faults, fig1, fig2, fig3, fig4, fig5, fig6, history, resume, thermal,
    uc1, uc6, uc7,
};
use powerstack_core::{catalog, registry, vocab};

fn main() {
    let lint = pstack_analyze::startup_gate();
    println!("================ STATIC ANALYSIS ================\n");
    pstack_bench::emit("lint_report", &lint.render_text(), &lint);

    println!("\n================ TABLES ================\n");
    pstack_bench::emit(
        "table1_registry",
        &registry::render_table1(),
        &registry::knob_registry(),
    );
    pstack_bench::emit(
        "table2_components",
        &catalog::render_table2(),
        &catalog::component_catalog(),
    );
    pstack_bench::emit(
        "table3_vocabulary",
        &vocab::render_table3(),
        &vocab::vocabulary(),
    );

    println!("\n================ FIGURES ================\n");
    // Each figure exports its own Chrome-format trace artifact
    // (results/trace_<name>.json); fig1 and fig4 carry deep span trees
    // (scenario control loops, per-eval tuner spans), the rest a stage root.
    let r = pstack_bench::traced("fig1_end_to_end", |tc| {
        pstack_bench::timed("fig1", || fig1::run_default_traced(tc))
    });
    pstack_bench::emit("fig1_end_to_end", &fig1::render(&r), &r);
    let r = pstack_bench::traced("fig2_interactions", |_tc| {
        pstack_bench::timed("fig2", fig2::run_default)
    });
    pstack_bench::emit("fig2_interactions", &fig2::render(&r), &r);
    let r = pstack_bench::traced("fig3_geopm_policy", |_tc| {
        pstack_bench::timed("fig3", fig3::run_default)
    });
    pstack_bench::emit("fig3_geopm_policy", &fig3::render(&r), &r);
    let r = pstack_bench::traced("fig4_ytopt_loop", |tc| {
        pstack_bench::timed("fig4", || fig4::run_default_parallel_traced(tc))
    });
    pstack_bench::emit("fig4_ytopt_loop", &fig4::render(&r), &r);
    let r = pstack_bench::traced("fig5_feti_regions", |_tc| {
        pstack_bench::timed("fig5", fig5::run_default)
    });
    pstack_bench::emit("fig5_feti_regions", &fig5::render(&r), &r);
    let r = pstack_bench::traced("fig6_power_corridor", |_tc| {
        pstack_bench::timed("fig6", fig6::run_default)
    });
    pstack_bench::emit("fig6_power_corridor", &fig6::render(&r), &r);

    println!("\n================ USE CASES ================\n");
    let r = pstack_bench::traced("uc1_hypre_cotune", |_tc| {
        pstack_bench::timed("uc1", uc1::run_default)
    });
    pstack_bench::emit("uc1_hypre_cotune", &uc1::render(&r), &r);
    let r = pstack_bench::traced("uc6_countdown", |_tc| {
        pstack_bench::timed("uc6", uc6::run_default)
    });
    pstack_bench::emit("uc6_countdown", &uc6::render(&r), &r);
    let r = pstack_bench::traced("uc7_two_runtimes", |_tc| {
        pstack_bench::timed("uc7", uc7::run_default)
    });
    pstack_bench::emit("uc7_two_runtimes", &uc7::render(&r), &r);

    println!("\n================ ABLATIONS ================\n");
    let a1 = pstack_bench::timed("A1", || {
        ablations::malleability(&[2, 5, 10, 20, 40], 16, 600.0, 20200910)
    });
    let a2 = pstack_bench::timed("A2", || {
        ablations::static_variants(&[0.0, 320.0, 260.0, 220.0], 20200911)
    });
    let a3 = pstack_bench::timed("A3", || {
        ablations::overprovisioning(&[4, 6, 8, 10, 12, 16], 4.0 * 450.0, 8, 80.0, 20200912)
    });
    println!("{}", ablations::render(&a1, &a2, &a3));
    let txt = ablations::render(&a1, &a2, &a3);
    std::fs::create_dir_all(pstack_bench::results_dir()).ok();
    std::fs::write(pstack_bench::results_dir().join("ablations.txt"), txt).ok();

    println!("\n================ PERFORMANCE ================\n");
    // Eval-throughput artifact for the batched SoA fast path. The exact
    // arena lane is asserted bit-identical to the scalar oracle and the
    // coarse lane error-bounded inside run(); the ≥10× acceptance gate
    // itself lives in the dedicated bench_evalthroughput binary (CI `perf`
    // stage) so a loaded regeneration box can't fail the whole regen pass
    // on a timing blip.
    let r = pstack_bench::traced_under("bench_evalthroughput", pstack_bench::evalthroughput::run);
    pstack_bench::emit(
        "bench_evalthroughput",
        &pstack_bench::evalthroughput::render(&r),
        &r,
    );

    println!("\n================ CONCURRENCY ================\n");
    // Lock-order / schedule-invariance audit: all four drivers across the
    // standard adversarial-schedule grid. Like the perf stage, the hard
    // exit-nonzero gate lives in the dedicated bench_lockorder binary (CI
    // `conc` stage); regeneration records the audit artifact either way.
    let grid = pstack_sync::SeedGrid::standard();
    let r = pstack_bench::traced("lockorder", |_tc| {
        pstack_bench::timed("lockorder", || pstack_bench::lockorder::run(&grid))
    });
    pstack_bench::emit("lockorder", &pstack_bench::lockorder::render(&r), &r);

    println!("\n================ EXTENSIONS ================\n");
    let r = pstack_bench::traced("ext_emergency", |_tc| {
        pstack_bench::timed("E1", emergency::run_default)
    });
    pstack_bench::emit("ext_emergency", &emergency::render(&r), &r);
    let r = pstack_bench::traced("ext_thermal", |_tc| {
        pstack_bench::timed("E2", thermal::run_default)
    });
    pstack_bench::emit("ext_thermal", &thermal::render(&r), &r);
    let r = pstack_bench::traced("ext_faults", |_tc| {
        pstack_bench::timed("E6", faults::run_default)
    });
    let r = pstack_bench::run_or_exit("ext_faults", r);
    pstack_bench::emit("ext_faults", &faults::render(&r), &r);
    let r = pstack_bench::traced("ext_resume", |_tc| {
        pstack_bench::timed("E7", resume::run_default)
    });
    let r = pstack_bench::run_or_exit("ext_resume", r);
    pstack_bench::emit("ext_resume", &resume::render(&r), &r);
    // The warmed-fewer-evals acceptance gate itself runs in the bench_history
    // binary (CI `history` stage); regeneration records its artifact either way.
    let r = pstack_bench::traced("bench_history", |_tc| {
        pstack_bench::timed("E9", history::run_default)
    });
    let r = pstack_bench::run_or_exit("bench_history", r);
    pstack_bench::emit("bench_history", &history::render(&r), &r);

    println!(
        "\nall artifacts written to {}/",
        pstack_bench::results_dir().display()
    );
}
