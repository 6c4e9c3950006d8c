//! Extension experiment E6 — auto-tuning under injected faults.
//!
//! The paper's loop (§3.2, Figure 4) assumes evaluations return honest
//! numbers and the stack underneath stays up. This experiment measures how
//! much of the fault-free tuning objective the *resilient* loop recovers
//! when it does not: for every plan in the fault catalog it
//!
//! 1. tunes the kernel co-tuning problem through a
//!    [`FaultyEvaluator`](pstack_faults::FaultyEvaluator) with
//!    [`Tuner::run_resilient`](pstack_autotune::Tuner) (forest search
//!    primary, random-search fallback on a poisoned database), then
//!    **cleanly re-evaluates** the configuration it picked — recovery is
//!    `clean_best / clean(picked)` for the cost objective, 1.0 = perfect;
//! 2. runs a whole job through [`run_faulted_job`](pstack_faults) under the
//!    same plan and records whether the stack survived.
//!
//! Expected shape: every plan completes without panic, single-fault plans
//! recover ≥ 90 % of the fault-free objective, and the `FaultLog` accounts
//! for everything injected.

use crate::cotune::KernelCoTune;
use crate::interfaces::Objective;
use pstack_apps::synthetic::{Profile, SyntheticApp};
use pstack_autotune::{ForestSearch, RandomSearch, Robustness, TuneError, TuneReport, Tuner};
use pstack_faults::{run_faulted_job, FaultPlan, FaultyEvaluator};
use serde::{Deserialize, Serialize};

/// One fault plan's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlanRow {
    /// Plan name (from the catalog).
    pub plan: String,
    /// Number of active fault classes (0 = clean baseline).
    pub fault_classes: usize,
    /// Clean cost of the configuration the faulted tuner picked.
    pub picked_clean_cost: f64,
    /// Recovery of the fault-free objective: `clean_best / picked_clean_cost`.
    pub recovery: f64,
    /// Active algorithm at the end (fallback's name when degraded).
    pub algorithm: String,
    /// Evaluations performed (attempts that produced an observation).
    pub evals: usize,
    /// Total faults logged during tuning (includes the loop's own outlier
    /// bookkeeping, which can fire on honest heavy-tailed objectives).
    pub tuning_faults: usize,
    /// Injected evaluation faults the loop absorbed: failures + timeouts +
    /// non-finite objectives.
    pub injected_eval_faults: usize,
    /// Retries spent during tuning.
    pub retries: usize,
    /// Configurations quarantined during tuning.
    pub quarantined: usize,
    /// Whether the search degraded to the fallback.
    pub degraded: bool,
    /// Whether the stack-level job under this plan ran to completion.
    pub job_completed: bool,
    /// Stack-level job duration, seconds.
    pub job_time_s: f64,
    /// Total faults logged during the stack-level job.
    pub job_faults: usize,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsResult {
    /// Evaluation budget per plan.
    pub max_evals: usize,
    /// Root seed.
    pub seed: u64,
    /// Fault-free best cost over the same budget (the recovery denominator's
    /// numerator: every recovery is relative to this).
    pub clean_best_cost: f64,
    /// One row per catalog plan.
    pub rows: Vec<FaultPlanRow>,
}

/// Robustness calibrated for the kernel EDP objective, whose *honest*
/// spread reaches ~55× the median with ~20 % of observations above 8× — the
/// default thresholds (8×, 25 %) would misread the heavy tail as poisoning.
/// Outlier/poison thresholds must sit above the objective's natural spread.
fn robustness() -> Robustness {
    Robustness {
        outlier_factor: 100.0,
        poison_fraction: 0.3,
        ..Robustness::default()
    }
}

fn tune_under(
    ct: &KernelCoTune,
    plan: &FaultPlan,
    max_evals: usize,
    seed: u64,
) -> Result<TuneReport, TuneError> {
    let evaluator = FaultyEvaluator::new(
        |space: &pstack_autotune::ParamSpace, cfg: &pstack_autotune::Config| {
            ct.evaluate(space, cfg)
        },
        plan,
        seed ^ 0xFA11,
    );
    let mut primary = ForestSearch::new();
    let mut fallback = RandomSearch::new();
    Tuner::new(ct.space())
        .max_evals(max_evals)
        .seed(seed)
        .run_resilient(
            &mut primary,
            Some(&mut fallback),
            &robustness(),
            |space, cfg, attempt| evaluator.evaluate(space, cfg, attempt),
        )
}

/// Run the fault-recovery sweep over the whole catalog.
///
/// # Errors
/// Propagates the first [`TuneError`] any arm's resilient run surfaces
/// (e.g. a fault budget hostile enough to abandon the run), so
/// `regenerate_all` can exit nonzero instead of shipping a half-regenerated
/// artifact.
pub fn run(max_evals: usize, seed: u64) -> Result<FaultsResult, TuneError> {
    let ct = KernelCoTune::new(Objective::MinEdp);
    let space = ct.space();

    // Fault-free baseline over the identical budget and seed: the recovery
    // yardstick every faulted run is measured against.
    let clean = tune_under(&ct, &FaultPlan::none(), max_evals, seed)?;
    let clean_best_cost = clean.best_objective;

    let job_app = SyntheticApp::new(Profile::Mixed, 100.0, 8);
    let rows = FaultPlan::catalog()
        .iter()
        .map(|plan| {
            let report = tune_under(&ct, plan, max_evals, seed)?;
            // The tuner saw (possibly inflated) measurements; judge its pick
            // by what that configuration costs on the honest model.
            let (picked_clean_cost, _) = ct.evaluate(&space, &report.best_config);
            let recovery = if picked_clean_cost > 0.0 {
                clean_best_cost / picked_clean_cost
            } else {
                0.0
            };
            let job = run_faulted_job(&job_app, 2, None, seed, plan);
            Ok(FaultPlanRow {
                plan: plan.name.clone(),
                fault_classes: plan.active_classes(),
                picked_clean_cost,
                recovery,
                algorithm: report.algorithm.clone(),
                evals: report.evals,
                tuning_faults: report.faults.counts.total(),
                injected_eval_faults: report.faults.counts.eval_failures
                    + report.faults.counts.eval_timeouts
                    + report.faults.counts.non_finite,
                retries: report.faults.counts.retries,
                quarantined: report.faults.counts.quarantined,
                degraded: report.faults.counts.search_degradations > 0,
                job_completed: job.completed,
                job_time_s: job.time_s,
                job_faults: job.log.counts.total(),
            })
        })
        .collect::<Result<Vec<_>, TuneError>>()?;

    Ok(FaultsResult {
        max_evals,
        seed,
        clean_best_cost,
        rows,
    })
}

/// Default full-scale run.
///
/// # Errors
/// As [`run`].
pub fn run_default() -> Result<FaultsResult, TuneError> {
    run(48, 20200913)
}

/// Render the recovery table.
pub fn render(r: &FaultsResult) -> String {
    let mut out = format!(
        "EXTENSION E6 / TUNING UNDER FAULTS: {} evals/plan, clean best cost {:.4}\n\
         plan           | cls | recovery | algorithm | evals | faults | retries | quar | job\n",
        r.max_evals, r.clean_best_cost
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{:<14} | {:>3} | {:>7.1}% | {:<9} | {:>5} | {:>6} | {:>7} | {:>4} | {}\n",
            row.plan,
            row.fault_classes,
            row.recovery * 100.0,
            row.algorithm,
            row.evals,
            row.tuning_faults,
            row.retries,
            row.quarantined,
            if row.job_completed {
                format!("ok {:.0}s ({} faults)", row.job_time_s, row.job_faults)
            } else {
                "ABANDONED".to_string()
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FaultsResult {
        run(24, 7).expect("small E6 sweep completes")
    }

    #[test]
    fn every_plan_completes_without_panic() {
        let r = small();
        assert_eq!(r.rows.len(), FaultPlan::catalog().len());
        for row in &r.rows {
            assert!(row.evals > 0, "{} made no evaluations", row.plan);
            assert!(
                row.picked_clean_cost.is_finite() && row.picked_clean_cost > 0.0,
                "{} picked a nonsense config",
                row.plan
            );
            assert!(row.job_completed, "{} killed the stack-level job", row.plan);
        }
    }

    #[test]
    fn clean_plan_recovers_everything() {
        let r = small();
        let none = r.rows.iter().find(|x| x.plan == "none").expect("none row");
        assert!(
            (none.recovery - 1.0).abs() < 1e-9,
            "clean plan recovery {} ≠ 1",
            none.recovery
        );
        // No *injected* faults under the clean plan (outlier bookkeeping may
        // still fire on honest heavy-tailed objectives).
        assert_eq!(none.injected_eval_faults, 0);
        assert_eq!(none.retries, 0);
        assert_eq!(none.quarantined, 0);
        assert!(!none.degraded);
    }

    #[test]
    fn single_fault_plans_recover_most_of_the_objective() {
        let r = small();
        for row in r.rows.iter().filter(|x| x.fault_classes == 1) {
            assert!(
                row.recovery >= 0.9,
                "{} recovered only {:.1}%",
                row.plan,
                row.recovery * 100.0
            );
        }
    }

    #[test]
    fn faulted_plans_log_their_faults() {
        let r = small();
        // process_kill_only targets the tuning process itself; inside E6's
        // in-process sweep there is nothing to kill (E7 supervises it), so
        // it behaves like the clean arm here.
        for row in r
            .rows
            .iter()
            .filter(|x| x.fault_classes > 0 && x.plan != "process_kill_only")
        {
            assert!(
                row.tuning_faults + row.job_faults > 0,
                "{} injected nothing",
                row.plan
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = serde_json::to_string(&small()).expect("serialize");
        let b = serde_json::to_string(&small()).expect("serialize");
        assert_eq!(a, b);
    }
}
