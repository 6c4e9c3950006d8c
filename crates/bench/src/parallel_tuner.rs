//! Wall-clock benchmark of the parallel batch tuner: the same 100-eval
//! random search over the Hypre co-tuning space, serially and with 8
//! workers. RandomSearch keeps the observation set identical across drivers
//! (batch-aware sampling replays the serial RNG stream), so the comparison
//! isolates evaluation throughput.
//!
//! Two evaluator variants are timed:
//!
//! - `plopper`: the full-stack Hypre simulation plus a modeled 100 ms launch
//!   round-trip per candidate. In the paper's loop the plopper *compiles and
//!   executes* each candidate — from the tuner's point of view that is a
//!   latency-dominated remote call, which the worker pool overlaps. This is
//!   the headline number.
//! - `compute_only`: the bare simulation, measuring how much of the pure
//!   model computation the host's cores can overlap (≈1x on a single-core
//!   container, near-linear on real multi-core hardware).
//!
//! [`check`] requires both parallel runs to reproduce the serial
//! observations exactly.

use powerstack_core::cotune::HypreCoTune;
use powerstack_core::interfaces::Objective;
use pstack_autotune::{Config, ParamSpace, RandomSearch, TraceCollector, TuneError, Tuner};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_EVALS: usize = 100;
const SEED: u64 = 20200906;
const WORKERS: usize = 8;
const LAUNCH_LATENCY: Duration = Duration::from_millis(100);

/// Serial vs parallel timing of one evaluator variant.
#[derive(Debug, Serialize)]
pub struct Comparison {
    pub serial_s: f64,
    pub parallel_s: f64,
    pub speedup: f64,
    pub results_identical: bool,
}

/// Both variants, with the run's budget and outcome.
#[derive(Debug, Serialize)]
pub struct ParallelBenchResult {
    pub max_evals: usize,
    pub seed: u64,
    pub workers: usize,
    pub host_cores: usize,
    pub launch_latency_ms: u64,
    /// Hypre simulation + modeled plopper launch latency (headline).
    pub plopper: Comparison,
    /// Bare Hypre simulation (bounded by physical cores).
    pub compute_only: Comparison,
    pub evals: usize,
    pub best_objective: f64,
}

/// Time one variant serially and in parallel; the parallel report rides
/// along for the headline numbers.
fn compare(
    cotune: &HypreCoTune,
    launch_latency: Option<Duration>,
    trace: &Arc<TraceCollector>,
) -> Result<(Comparison, pstack_autotune::TuneReport), TuneError> {
    let evaluate = |space: &ParamSpace, cfg: &Config| {
        if let Some(lat) = launch_latency {
            std::thread::sleep(lat);
        }
        cotune.evaluate(space, cfg)
    };
    let tuner = Tuner::new(cotune.space())
        .max_evals(MAX_EVALS)
        .seed(SEED)
        .with_trace(Arc::clone(trace));
    let t0 = Instant::now();
    let serial = tuner.run(&mut RandomSearch::new(), evaluate)?;
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel = tuner.run_parallel(&mut RandomSearch::new(), WORKERS, evaluate)?;
    let parallel_s = t1.elapsed().as_secs_f64();
    let results_identical = serial.db.observations() == parallel.db.observations();
    Ok((
        Comparison {
            serial_s,
            parallel_s,
            speedup: serial_s / parallel_s.max(1e-9),
            results_identical,
        },
        parallel,
    ))
}

/// Run both variants, recording the tuner spans into `trace`.
///
/// # Errors
/// Propagates a [`TuneError`] from either driver.
pub fn run(trace: &Arc<TraceCollector>) -> Result<ParallelBenchResult, TuneError> {
    let cotune = HypreCoTune::new(Objective::MinTime);
    let (compute_only, _) = compare(&cotune, None, trace)?;
    let (plopper, report) = compare(&cotune, Some(LAUNCH_LATENCY), trace)?;
    Ok(ParallelBenchResult {
        max_evals: MAX_EVALS,
        seed: SEED,
        workers: WORKERS,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        launch_latency_ms: u64::try_from(LAUNCH_LATENCY.as_millis())
            .expect("launch latency fits in u64 milliseconds"),
        plopper,
        compute_only,
        evals: report.evals,
        best_objective: report.best_objective,
    })
}

/// The serial-vs-parallel table.
pub fn render(r: &ParallelBenchResult) -> String {
    format!(
        "PARALLEL BATCH TUNER: {evals} evals over the Hypre co-tune space (seed {seed}, {workers} workers, {cores} host core(s))\n\
         evaluator                    |  serial_s | parallel_s | speedup | identical\n\
         plopper (sim + {lat} ms launch) | {ps:>9.2} | {pp:>10.2} | {px:>6.2}x | {pi}\n\
         compute only (bare sim)      | {cs:>9.2} | {cp:>10.2} | {cx:>6.2}x | {ci}\n",
        evals = r.max_evals,
        seed = r.seed,
        workers = r.workers,
        cores = r.host_cores,
        lat = r.launch_latency_ms,
        ps = r.plopper.serial_s,
        pp = r.plopper.parallel_s,
        px = r.plopper.speedup,
        pi = r.plopper.results_identical,
        cs = r.compute_only.serial_s,
        cp = r.compute_only.parallel_s,
        cx = r.compute_only.speedup,
        ci = r.compute_only.results_identical,
    )
}

/// Parallel runs reproduce the serial observations exactly.
pub fn check(r: &ParallelBenchResult) -> Result<(), String> {
    crate::ensure(
        r.plopper.results_identical && r.compute_only.results_identical,
        || "parallel run diverged from serial".to_string(),
    )
}
