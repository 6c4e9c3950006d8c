//! Tuning workloads: back-to-back ForestSearch campaigns on the arena fast
//! path (`tune_fastpath`), and a stream of history-backed ask-tell sessions
//! over one growing on-disk store (`tune_sessions`).
//!
//! Timed passes call the public entry points a user calls
//! (`HypreCoTune::tune_batched`, `HistoryService::run_sessions`). Traced
//! passes make the equivalent public calls with delegating wrappers around
//! the search algorithm and the evaluator, so suggest and evaluate time is
//! counted in aggregate (calls plus total ns) instead of one span per call.

use crate::measure::{geomean, span_ns, Pass, Sim, Workload};
use powerstack_core::cotune::{HypreCoTune, KernelCoTune};
use powerstack_core::Objective;
use pstack_autotune::{
    history_key, record_report, BatchEvaluator, Config, Evaluation, ForestSearch, HistoryService,
    ParamSpace, PerfDatabase, SearchAlgorithm, SearchState, SessionSpec, TuneError, TuneReport,
    Tuner,
};
use pstack_history::{HistoryKey, HistoryStore};
use pstack_sim::SeedTree;
use pstack_trace::{hash64, TraceCollector};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Campaign budgets of `tune_fastpath`, cycled: long campaigns refit larger
/// forests, so the p90 op is a suggest-heavy one.
const CAMPAIGN_BUDGETS: [usize; 4] = [25, 50, 75, 100];
/// Campaigns per `tune_fastpath` pass.
const CAMPAIGNS: usize = 64;
/// Root of the fixed campaign catalogue's tuner seeds. Evaluation cost is
/// heavy-tailed in which configurations a search happens to visit (the
/// slowest 10% of the 1080 Hypre configurations take about 69% of the time
/// of evaluating them all), so campaigns drawn per workload seed made the
/// fast path's throughput differ by up to 2x between seeds. Every seed
/// runs this one catalogue; the workload seed sets the campaign order.
const CATALOGUE_SEED: u64 = 0x5eed_ca7a;
/// Sessions per `tune_sessions` pass; the store grows with every one.
const SESSIONS: usize = 60;
/// Paid evaluations per session.
const SESSION_EVALS: usize = 40;
/// Priors each session asks the store for.
const WARM_K: usize = 16;
/// Evaluations of the donor campaign that seeds the store.
const DONOR_EVALS: usize = 120;

/// Delegating search algorithm that counts asks and their time.
struct TimedSearch<A> {
    inner: A,
    calls: u64,
    ns: u64,
}

impl<A> TimedSearch<A> {
    fn new(inner: A) -> Self {
        TimedSearch {
            inner,
            calls: 0,
            ns: 0,
        }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl<A: SearchState> SearchState for TimedSearch<A> {
    fn schema_version(&self) -> u32 {
        self.inner.schema_version()
    }

    fn save_state(&self) -> serde::Value {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

impl<A: SearchAlgorithm> SearchAlgorithm for TimedSearch<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn suggest(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
    ) -> Option<Config> {
        self.time(|a| a.suggest(space, db, rng))
    }

    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
        k: usize,
    ) -> Vec<Config> {
        self.time(|a| a.suggest_batch(space, db, rng, k))
    }
}

/// Delegating batch evaluator that counts evaluations and their time.
struct TimedEvaluator<E> {
    inner: E,
    calls: u64,
    ns: u64,
}

impl<E: BatchEvaluator> BatchEvaluator for TimedEvaluator<E> {
    fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> Evaluation {
        let t0 = Instant::now();
        let r = self.inner.evaluate(space, cfg);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    fn reuse_hits(&self) -> usize {
        self.inner.reuse_hits()
    }
}

/// Output checks shared by both tuning workloads; returns the best
/// configuration's application runs per kJ.
fn check_report(report: &TuneReport, space: &ParamSpace, violations: &mut Vec<String>) -> f64 {
    let obs = report.db.observations();
    if let Some(o) = obs.iter().find(|o| !o.objective.is_finite()) {
        violations.push(format!("objective {} is not finite", o.objective));
        return f64::NAN;
    }
    if report.cache.misses != report.evals {
        violations.push(format!(
            "{} cache misses but {} paid evaluations",
            report.cache.misses, report.evals
        ));
    }
    if !space.is_valid(&report.best_config) {
        violations.push("best configuration is outside the space".to_string());
    }
    let best = report.db.best().expect("objectives are finite");
    if best.objective.to_bits() != report.best_objective.to_bits() {
        violations.push("best objective disagrees with the database".to_string());
    }
    match best.aux.get("energy_j") {
        Some(&e) if e.is_finite() && e > 0.0 => 1000.0 / e,
        _ => {
            violations.push("best configuration has no positive energy".to_string());
            f64::NAN
        }
    }
}

fn report_json(report: &TuneReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// Modelled outcome of a set of reports.
fn tuning_sim(best: &[f64], runs_per_kj: &[f64]) -> Sim {
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite() && *x > 0.0) && !v.is_empty();
    Sim {
        work_per_kj: if finite(runs_per_kj) {
            geomean(runs_per_kj)
        } else {
            f64::NAN
        },
        mean_wait_s: 0.0,
        over_budget_frac: 0.0,
        best_objective: if finite(best) {
            geomean(best)
        } else {
            f64::NAN
        },
    }
}

/// `tune_fastpath`: §3.2.1 Hypre co-tuning (MinEdp) through
/// `HypreCoTune::tune_batched`: the catalogue's ForestSearch campaigns, one
/// per catalogue seed, in the order the workload seed sets.
pub struct Fastpath {
    pub seed: u64,
}

/// Set-up output of `tune_fastpath`: the co-tune problem and its space.
pub struct FastpathState {
    cotune: HypreCoTune,
    space: ParamSpace,
}

impl Workload for Fastpath {
    type State = FastpathState;

    fn setup(&self, _trace: Option<&TraceCollector>) -> FastpathState {
        let cotune = HypreCoTune::new(Objective::MinEdp);
        let space = cotune.space();
        FastpathState { cotune, space }
    }

    fn drive(&self, state: FastpathState, trace: Option<&TraceCollector>) -> Pass {
        let FastpathState { cotune, space } = state;
        let catalogue = SeedTree::new(CATALOGUE_SEED);
        let mut order: Vec<usize> = (0..CAMPAIGNS).collect();
        order.shuffle(&mut SeedTree::new(self.seed).rng("perfbench-campaign-order"));
        let mut pass = Pass::default();
        let mut fp = String::new();
        let (mut best, mut runs_per_kj) = (Vec::new(), Vec::new());
        let (mut suggest_ns, mut suggest_calls, mut eval_ns, mut eval_calls) = (0, 0, 0, 0);
        let (mut reuse, mut hits, mut asked) = (0usize, 0usize, 0usize);
        let drive_start = Instant::now();
        for c in order {
            let budget = CAMPAIGN_BUDGETS[c % CAMPAIGN_BUDGETS.len()];
            let seed = catalogue.seed_for(&format!("campaign{c}"));
            let t0 = Instant::now();
            let result = match trace {
                None => cotune.tune_batched(&mut ForestSearch::new(), budget, seed),
                Some(collector) => {
                    let _g = collector.span("autotune.campaign");
                    let mut search = TimedSearch::new(ForestSearch::new());
                    let mut eval = TimedEvaluator {
                        inner: cotune.arena_evaluator(),
                        calls: 0,
                        ns: 0,
                    };
                    let r = Tuner::new(space.clone())
                        .max_evals(budget)
                        .seed(seed)
                        .run_parallel_with(&mut search, &mut eval);
                    suggest_ns += search.ns;
                    suggest_calls += search.calls;
                    eval_ns += eval.ns;
                    eval_calls += eval.calls;
                    reuse += eval.reuse_hits();
                    r
                }
            };
            pass.ops_s.push(t0.elapsed().as_secs_f64());
            pass.attempted += 1;
            match result {
                Ok(report) => {
                    if report.db.len() != report.evals {
                        pass.violations
                            .push("a cold campaign's database holds priors".to_string());
                    }
                    runs_per_kj.push(check_report(&report, &space, &mut pass.violations));
                    best.push(report.best_objective);
                    pass.work += report.evals as f64;
                    hits += report.cache.hits;
                    asked += report.cache.hits + report.cache.misses;
                    fp.push_str(&report_json(&report));
                }
                Err(e) => {
                    pass.failed += 1;
                    fp.push_str(&format!("error:{e}"));
                }
            }
        }
        pass.drive_s = drive_start.elapsed().as_secs_f64();
        pass.fingerprint = hash64(fp.as_bytes());
        pass.sim = tuning_sim(&best, &runs_per_kj);
        if let Some(collector) = trace {
            let campaign_ns = span_ns(&collector.snapshot(), "autotune.campaign");
            let l = &mut pass.layers;
            l.insert("autotune.campaign_ns", campaign_ns);
            l.insert("autotune.suggest_ns", suggest_ns as f64);
            l.insert("autotune.suggest_calls", suggest_calls as f64);
            l.insert(
                "autotune.driver_ns",
                campaign_ns - suggest_ns as f64 - eval_ns as f64,
            );
            l.insert("autotune.cache_hit_ratio", hits as f64 / asked as f64);
            l.insert("core.evaluate_ns", eval_ns as f64);
            l.insert("core.evaluate_calls", eval_calls as f64);
            l.insert("core.arena_reuse_ratio", reuse as f64 / eval_calls as f64);
        }
        pass
    }

    fn setups_per_pass(&self) -> usize {
        // Set-up is about a microsecond; a median of many steadies it.
        200
    }
}

/// `tune_sessions`: §3.2.3 kernel co-tuning (MinEnergy) as a stream of
/// one-session `HistoryService::run_sessions` calls over one store.
pub struct Sessions {
    pub seed: u64,
    /// Directory under which each pass creates and removes its store.
    pub work_dir: PathBuf,
}

/// A pass's store directory, removed when dropped.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up output of `tune_sessions`: a store seeded by a donor campaign.
pub struct SessionsState {
    dir: StoreDir,
    store: HistoryStore,
    cotune: KernelCoTune,
    space: ParamSpace,
    key: HistoryKey,
    records: usize,
}

static STORES: AtomicUsize = AtomicUsize::new(0);

impl Sessions {
    fn session_spec(&self, i: usize) -> SessionSpec {
        SessionSpec {
            app: "kernel".to_string(),
            objective: "min-energy".to_string(),
            seed: SeedTree::new(self.seed).seed_for(&format!("session{i}")),
            max_evals: SESSION_EVALS,
            warm_k: WARM_K,
        }
    }
}

fn store_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for Sessions {
    type State = SessionsState;

    fn setup(&self, trace: Option<&TraceCollector>) -> SessionsState {
        let _g = trace.map(|c| c.span("history.seed"));
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let dir = StoreDir(self.work_dir.join(format!("store{n}")));
        let store = HistoryStore::open(&dir.0).expect("the work directory is writable");
        let cotune = KernelCoTune::new(Objective::MinEnergy);
        let space = cotune.space();
        let key = history_key(&space, "kernel", "min-energy");
        let donor = Tuner::new(space.clone())
            .max_evals(DONOR_EVALS)
            .seed(SeedTree::new(self.seed).seed_for("donor"))
            .run(&mut ForestSearch::new(), |s, c| cotune.evaluate(s, c))
            .expect("the donor campaign over a non-empty space completes");
        let records = record_report(&store, &key, "donor", &donor).expect("store append");
        SessionsState {
            dir,
            store,
            cotune,
            space,
            key,
            records,
        }
    }

    fn drive(&self, state: SessionsState, trace: Option<&TraceCollector>) -> Pass {
        let SessionsState {
            dir,
            store,
            cotune,
            space,
            key,
            mut records,
        } = state;
        let mut pass = Pass::default();
        let mut fp = String::new();
        let (mut best, mut runs_per_kj) = (Vec::new(), Vec::new());
        let (mut suggest_ns, mut suggest_calls) = (0u64, 0u64);
        let (eval_ns, eval_calls) = (AtomicU64::new(0), AtomicU64::new(0));
        let (mut hits, mut asked, mut priors) = (0usize, 0usize, 0usize);
        let mut scanned = 0usize;
        let service = HistoryService::new(&store, 1);
        let drive_start = Instant::now();
        for i in 0..SESSIONS {
            let spec = self.session_spec(i);
            let t0 = Instant::now();
            let result: Result<TuneReport, TuneError> = match trace {
                None => service
                    .run_sessions(
                        &space,
                        std::slice::from_ref(&spec),
                        |_| ForestSearch::new(),
                        |s, c| cotune.evaluate(s, c),
                    )
                    .map(|mut reports| reports.pop().expect("one report per session")),
                Some(collector) => {
                    // The three public calls `run_sessions` documents as
                    // equivalent for one session: ask, run, tell.
                    let session = collector.span("autotune.session");
                    let g = session.child("history.ask");
                    let tuner = Tuner::new(space.clone())
                        .max_evals(spec.max_evals)
                        .seed(spec.seed)
                        .warm_start_from_history(&store, &key, spec.warm_k);
                    drop(g);
                    tuner.and_then(|tuner| {
                        let g = session.child("autotune.campaign");
                        let mut search = TimedSearch::new(ForestSearch::new());
                        let report = tuner.run_parallel(&mut search, 1, |s, c| {
                            let t0 = Instant::now();
                            let r = cotune.evaluate(s, c);
                            eval_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            eval_calls.fetch_add(1, Ordering::Relaxed);
                            r
                        });
                        drop(g);
                        suggest_ns += search.ns;
                        suggest_calls += search.calls;
                        let report = report?;
                        let _g = session.child("history.tell");
                        let appended = record_report(&store, &key, &spec.label(), &report)
                            .map_err(|e| TuneError::Diagnostic {
                                context: "history store".to_string(),
                                diagnostics: vec![e.to_string()],
                            })?;
                        if appended != report.evals {
                            pass.violations.push(format!(
                                "session {i} appended {appended} records for {} evaluations",
                                report.evals
                            ));
                        }
                        Ok(report)
                    })
                }
            };
            pass.ops_s.push(t0.elapsed().as_secs_f64());
            pass.attempted += 1;
            // Each ask and each tell decodes the whole shard.
            scanned += 2 * records;
            match result {
                Ok(report) => {
                    runs_per_kj.push(check_report(&report, &space, &mut pass.violations));
                    best.push(report.best_objective);
                    records += report.evals;
                    hits += report.cache.hits;
                    asked += report.cache.hits + report.cache.misses;
                    priors += report.db.len() - report.evals;
                    fp.push_str(&report_json(&report));
                }
                Err(e) => {
                    pass.failed += 1;
                    fp.push_str(&format!("error:{e}"));
                }
            }
        }
        pass.drive_s = drive_start.elapsed().as_secs_f64();
        pass.work = (pass.attempted - pass.failed) as f64;
        let stored = store.all_records().expect("store is readable");
        if stored.len() != records {
            pass.violations.push(format!(
                "store holds {} records, donor plus paid evaluations are {records}",
                stored.len()
            ));
        }
        for (k, r) in &stored {
            fp.push_str(&k.canonical());
            fp.push_str(&serde_json::to_string(r).expect("records serialize"));
        }
        pass.fingerprint = hash64(fp.as_bytes());
        pass.sim = tuning_sim(&best, &runs_per_kj);
        if let Some(collector) = trace {
            let t = collector.snapshot();
            let (eval_ns, eval_calls) = (
                eval_ns.load(Ordering::Relaxed) as f64,
                eval_calls.load(Ordering::Relaxed) as f64,
            );
            let campaign_ns = span_ns(&t, "autotune.campaign");
            let (ask_ns, tell_ns) = (span_ns(&t, "history.ask"), span_ns(&t, "history.tell"));
            let l = &mut pass.layers;
            l.insert("autotune.campaign_ns", campaign_ns);
            l.insert("autotune.session_ns", span_ns(&t, "autotune.session"));
            l.insert("autotune.suggest_ns", suggest_ns as f64);
            l.insert("autotune.suggest_calls", suggest_calls as f64);
            l.insert(
                "autotune.driver_ns",
                campaign_ns - suggest_ns as f64 - eval_ns,
            );
            l.insert("autotune.cache_hit_ratio", hits as f64 / asked as f64);
            l.insert("autotune.priors", priors as f64);
            l.insert("core.evaluate_ns", eval_ns);
            l.insert("core.evaluate_calls", eval_calls);
            l.insert("history.seed_ns", span_ns(&t, "history.seed"));
            l.insert("history.ask_ns", ask_ns);
            l.insert("history.tell_ns", tell_ns);
            l.insert("history.records_end", stored.len() as f64);
            l.insert("history.store_bytes_end", store_bytes(&dir.0) as f64);
            l.insert("history.ns_per_record", (ask_ns + tell_ns) / scanned as f64);
        }
        drop(dir);
        pass
    }

    fn setups_per_pass(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_fastpath_pass_matches_untraced() {
        let w = Fastpath { seed: 3 };
        let plain = w.drive(w.setup(None), None);
        let collector = TraceCollector::new();
        let traced = w.drive(w.setup(Some(&collector)), Some(&collector));
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert_eq!(plain.sim, traced.sim);
        assert_eq!(traced.layers["core.evaluate_calls"], plain.work);
    }
}
