//! Extension E9 — shared performance history (crowdtuning warm starts).
//!
//! The paper's autotuning loop (§3.2.3, Figure 4) starts every campaign
//! from zero knowledge, yet §3.2.1's co-tuning spaces are tuned again and
//! again — by other teams, on other days, under other budgets. GPTune's
//! HistoryDB showed that persisting every `(configuration, objective)`
//! observation and warm-starting later campaigns from it converts that
//! repetition into head starts. This experiment measures exactly that
//! conversion on two shipped co-tuning spaces:
//!
//! 1. a **donor** campaign (forest search) tunes the space and appends its
//!    observations to a fresh [`HistoryStore`];
//! 2. a **cold** campaign re-tunes the space from scratch;
//! 3. a **warmed** campaign with the same seed and budget first pulls the
//!    store's `best_k` as a warm-start prior (free — priors are store
//!    reads, not simulations) and then spends the same budget.
//!
//! The reported metric is *fresh evaluations to target*: how many paid
//! simulations each campaign needed before its best-so-far entered the
//! within-2%-of-best band (the best objective any campaign in the arm ever
//! saw). Priors count as zero paid evaluations — that is the entire point
//! of the shared store.
//!
//! Expected shape: on every arm the warmed campaign reaches the band in
//! strictly fewer fresh evaluations than the cold one (`warmed_fewer` on
//! every row); `bench_history` exits nonzero otherwise.

use crate::cotune::{HypreCoTune, KernelCoTune};
use crate::interfaces::Objective;
use pstack_autotune::{
    history_key, record_report, Config, Evaluation, ForestSearch, ParamSpace, TuneError,
    TuneReport, Tuner,
};
use pstack_ckpt::ScratchDir;
use pstack_history::{HistoryError, HistoryStore};
use serde::{Deserialize, Serialize};

/// Best-so-far must come within this factor of the arm's best objective to
/// count as "reached the target band".
pub const TARGET_FACTOR: f64 = 1.02;

/// One co-tuning arm's cold-vs-warmed comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryArmRow {
    /// Arm name: `uc1` (Hypre co-tune) or `uc3` (kernel co-tune).
    pub arm: String,
    /// Application label of the history key.
    pub app: String,
    /// Objective label of the history key.
    pub objective: String,
    /// Canonical space fingerprint the records were filed under.
    pub space_fp: String,
    /// Evaluations the donor campaign contributed to the store.
    pub donor_evals: usize,
    /// Records in the store under the arm's key after the donor ran.
    pub store_records: usize,
    /// Warm-start priors the warmed campaign received (`best_k`, space-valid).
    pub priors: usize,
    /// Best objective seen by any campaign in this arm (the target).
    pub best_objective: f64,
    /// Best objective of the cold campaign.
    pub cold_best: f64,
    /// Best objective of the warmed campaign.
    pub warmed_best: f64,
    /// Fresh (paid) evaluations the cold campaign needed to enter the
    /// within-[`TARGET_FACTOR`] band; `None` if it never did.
    pub cold_evals_to_target: Option<usize>,
    /// Fresh evaluations the warmed campaign needed (0 when the prior
    /// alone already sat inside the band); `None` if it never entered.
    pub warmed_evals_to_target: Option<usize>,
    /// Whether the warmed campaign reached the band in strictly fewer
    /// fresh evaluations than the cold one.
    pub warmed_fewer: bool,
}

/// Full E9 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryResult {
    /// Evaluation budget of the cold and warmed campaigns.
    pub max_evals: usize,
    /// Evaluation budget of the donor campaign.
    pub donor_evals: usize,
    /// `best_k` priors requested for warmed campaigns.
    pub warm_k: usize,
    /// Root seed.
    pub seed: u64,
    /// The within-band factor.
    pub target_factor: f64,
    /// One row per co-tuning arm.
    pub rows: Vec<HistoryArmRow>,
}

fn history_error(e: HistoryError) -> TuneError {
    TuneError::Diagnostic {
        context: "history store".to_string(),
        diagnostics: vec![e.to_string()],
    }
}

/// Fresh (non-prior) evaluations until the report's best-so-far enters the
/// `factor * target` band, walking the database in observation order.
/// Priors reached first yield `Some(0)`; a trajectory that never enters
/// the band yields `None`.
fn fresh_evals_to_target(report: &TuneReport, target: f64, factor: f64) -> Option<usize> {
    let prior_len = report.db.len() - report.evals;
    let band = target * factor;
    let mut best = f64::INFINITY;
    let mut fresh = 0usize;
    for o in report.db.observations() {
        if o.eval >= prior_len {
            fresh += 1;
        }
        if o.objective < best {
            best = o.objective;
        }
        if best <= band {
            return Some(if o.eval < prior_len { 0 } else { fresh });
        }
    }
    None
}

/// Campaign budgets shared by every arm of a run.
#[derive(Debug, Clone, Copy)]
struct ArmBudget {
    max_evals: usize,
    donor_evals: usize,
    warm_k: usize,
    seed: u64,
}

/// Run one arm: donor feeds the store, then cold vs warmed race to the
/// within-band target.
fn arm_row(arm: &Arm, budget: ArmBudget) -> Result<HistoryArmRow, TuneError> {
    let ArmBudget {
        max_evals,
        donor_evals,
        warm_k,
        seed,
    } = budget;
    let Arm {
        name,
        app,
        objective,
        space,
        evaluate,
    } = arm;
    let scratch = ScratchDir::new(&format!("e9-{name}"));
    let store = HistoryStore::open(scratch.path().join("store")).map_err(history_error)?;
    let key = history_key(space, app, objective);

    let donor = Tuner::new(space.clone())
        .max_evals(donor_evals)
        .seed(seed ^ 0xD0)
        .run(&mut ForestSearch::new(), &evaluate)?;
    record_report(&store, &key, "donor", &donor).map_err(history_error)?;
    let store_records = store.records(&key).map_err(history_error)?.len();

    let cold = Tuner::new(space.clone())
        .max_evals(max_evals)
        .seed(seed)
        .run(&mut ForestSearch::new(), &evaluate)?;
    let warmed = Tuner::new(space.clone())
        .max_evals(max_evals)
        .seed(seed)
        .warm_start_from_history(&store, &key, warm_k)?
        .run(&mut ForestSearch::new(), &evaluate)?;

    let priors = warmed.db.len() - warmed.evals;
    let best_objective = donor
        .best_objective
        .min(cold.best_objective)
        .min(warmed.best_objective);
    let cold_to = fresh_evals_to_target(&cold, best_objective, TARGET_FACTOR);
    let warmed_to = fresh_evals_to_target(&warmed, best_objective, TARGET_FACTOR);
    Ok(HistoryArmRow {
        arm: name.to_string(),
        app: app.to_string(),
        objective: objective.to_string(),
        space_fp: key.space.clone(),
        donor_evals: donor.evals,
        store_records,
        priors,
        best_objective,
        cold_best: cold.best_objective,
        warmed_best: warmed.best_objective,
        cold_evals_to_target: cold_to,
        warmed_evals_to_target: warmed_to,
        warmed_fewer: warmed_to.unwrap_or(usize::MAX) < cold_to.unwrap_or(usize::MAX),
    })
}

/// A full-stack evaluator over an arm's space.
pub type ArmEvaluator = dyn Fn(&ParamSpace, &Config) -> Evaluation + Sync;

/// One co-tuning arm: the history key's application and objective labels
/// and the space the campaigns tune, with its evaluator.
pub struct Arm {
    /// Arm name: `uc1` (Hypre co-tune) or `uc3` (kernel co-tune).
    pub name: &'static str,
    /// Application label of the history key.
    pub app: &'static str,
    /// Objective label of the history key.
    pub objective: &'static str,
    /// The co-tuning space.
    pub space: ParamSpace,
    /// The full-stack evaluator over `space`.
    pub evaluate: Box<ArmEvaluator>,
}

/// The arms [`run`] iterates, in order; `pstack-analyze` declares their
/// history keys from this list.
pub fn arms() -> Vec<Arm> {
    let hypre = HypreCoTune::new(Objective::MinEdp);
    let kernel = KernelCoTune::new(Objective::MinEnergy);
    vec![
        Arm {
            name: "uc1",
            app: "hypre",
            objective: "min-edp",
            space: hypre.space(),
            evaluate: Box::new(move |s, c| hypre.evaluate(s, c)),
        },
        Arm {
            name: "uc3",
            app: "kernel",
            objective: "min-energy",
            space: kernel.space(),
            evaluate: Box::new(move |s, c| kernel.evaluate(s, c)),
        },
    ]
}

/// Run every arm of [`arms`].
///
/// # Errors
/// Propagates any [`TuneError`] a campaign surfaces (store failures arrive
/// as [`TuneError::Diagnostic`]).
pub fn run(
    max_evals: usize,
    donor_evals: usize,
    warm_k: usize,
    seed: u64,
) -> Result<HistoryResult, TuneError> {
    let budget = ArmBudget {
        max_evals,
        donor_evals,
        warm_k,
        seed,
    };
    let rows = arms()
        .iter()
        .map(|arm| arm_row(arm, budget))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(HistoryResult {
        max_evals,
        donor_evals,
        warm_k,
        seed,
        target_factor: TARGET_FACTOR,
        rows,
    })
}

/// Default full-scale run.
///
/// # Errors
/// As [`run`].
pub fn run_default() -> Result<HistoryResult, TuneError> {
    run(40, 120, 16, 20200913)
}

/// Render the cold-vs-warmed table.
pub fn render(r: &HistoryResult) -> String {
    let fmt = |v: Option<usize>| match v {
        Some(n) => n.to_string(),
        None => "never".to_string(),
    };
    let mut out = format!(
        "EXTENSION E9 / SHARED HISTORY: {} evals vs donor {}, best_k {}, band x{}, seed {}\n\
         arm | app    | objective  | donor | priors | cold->band | warmed->band | verdict\n",
        r.max_evals, r.donor_evals, r.warm_k, r.target_factor, r.seed
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{:<3} | {:<6} | {:<10} | {:>5} | {:>6} | {:>10} | {:>12} | {}\n",
            row.arm,
            row.app,
            row.objective,
            row.donor_evals,
            row.priors,
            fmt(row.cold_evals_to_target),
            fmt(row.warmed_evals_to_target),
            if row.warmed_fewer {
                "warmed fewer"
            } else {
                "NO GAIN"
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HistoryResult {
        run(12, 40, 8, 11).expect("small E9 run completes")
    }

    #[test]
    fn both_arms_store_and_reuse_history() {
        let r = small();
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert_eq!(row.store_records, row.donor_evals, "{}", row.arm);
            assert!(
                row.priors > 0 && row.priors <= r.warm_k,
                "{}: expected 1..={} priors, got {}",
                row.arm,
                r.warm_k,
                row.priors
            );
            assert_eq!(row.space_fp.len(), 16);
        }
    }

    #[test]
    fn warmed_reaches_band_in_fewer_fresh_evals() {
        let r = small();
        for row in &r.rows {
            assert!(
                row.warmed_fewer,
                "{}: warmed needed {:?} fresh evals vs cold {:?}",
                row.arm, row.warmed_evals_to_target, row.cold_evals_to_target
            );
        }
    }

    #[test]
    fn warmed_never_ends_worse_than_its_prior() {
        let r = small();
        for row in &r.rows {
            assert!(
                row.warmed_best <= row.cold_best * TARGET_FACTOR,
                "{}: warmed best {} far above cold best {}",
                row.arm,
                row.warmed_best,
                row.cold_best
            );
        }
    }

    #[test]
    fn result_is_deterministic() {
        let a = serde_json::to_string(&small()).expect("serialize");
        let b = serde_json::to_string(&small()).expect("serialize");
        assert_eq!(a, b);
    }
}
