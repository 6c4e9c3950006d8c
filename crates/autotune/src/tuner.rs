//! The autotuning loop (Figure 4).
//!
//! `Tuner` wires a [`SearchAlgorithm`] to an evaluator (the paper's
//! `plopper`: "compiles the code and executes it to get the execution time")
//! and repeats suggest → evaluate → record until the evaluation budget
//! (`--max-evals`, default 100 in ytopt) is spent.
//!
//! Every public driver runs one round-based loop. Each round asks the
//! algorithm for a batch ([`SearchAlgorithm::suggest_batch`]), evaluates the
//! fresh proposals — on a scoped thread pool sharing a `Sync` closure, or
//! through one stateful [`BatchEvaluator`] — and records the outcomes in
//! suggestion order. The serial drivers ([`Tuner::run`],
//! [`Tuner::run_resilient`]) run rounds of one proposal; the parallel ones
//! rounds of [`Tuner::batch_size`]. Batch composition depends only on the
//! seed and round size — never on the worker count — so a seeded run
//! reproduces the identical [`TuneReport`] whether it used one worker or
//! eight. An evaluation cache memoizes `(objective, aux)` per configuration
//! so duplicate suggestions (common in warm-started runs) never
//! re-simulate. The fault-free drivers keep the resilient drivers' fault
//! ledger with a single attempt per configuration and no outlier
//! screening (see [`crate::resilient`]).

use crate::ckpt::{checkpoint_tick, ActiveSession, CheckpointOpts, InterruptFn, LoopState};
use crate::db::PerfDatabase;
use crate::faultlog::{FaultKind, FaultLog};
use crate::resilient::{
    attempt_config, outcome_from_record, record_from_outcome, ConfigOutcome, EvalError,
    RetryPolicy, Robustness,
};
use crate::search::SearchAlgorithm;
use crate::space::{Config, ParamSpace};
use crate::ResilientSnapshot;
use pstack_sync::{sites, Ordering, SyncAtomicUsize, SyncMutex};
use pstack_trace::{AttrValue, ProfileBuilder, ProfileSummary, TraceCollector};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Stable 16-hex-digit fingerprint of a configuration, used as the `config`
/// attribute on trace spans (FNV-1a over the index vector).
pub fn config_fingerprint(cfg: &Config) -> String {
    let mut bytes = Vec::with_capacity(cfg.len() * 8);
    for &v in cfg {
        bytes.extend_from_slice(&(v as u64).to_le_bytes());
    }
    format!("{:016x}", pstack_trace::hash64(&bytes))
}

/// The outcome of evaluating one configuration: the objective being
/// minimized plus named auxiliary metrics (e.g. power, energy).
pub type Evaluation = (f64, HashMap<String, f64>);

/// A stateful batch evaluator — the tuner-side surface of an amortized
/// evaluation fast path.
///
/// Closure evaluators rebuild their scenario state on every call; a
/// `BatchEvaluator` owns reusable state (an arena, pre-sized buffers, a
/// warm simulator) that is *reset in place* between evaluations.
/// [`Tuner::run_parallel_with`] feeds each round's `suggest_batch`
/// proposals through one evaluator. Reports stay byte-identical to
/// [`Tuner::run_parallel`] with an equivalent closure: suggestion order,
/// cache accounting, fault verdicts and WAL records are unchanged — only
/// the per-evaluation setup cost is amortized.
pub trait BatchEvaluator {
    /// Evaluate one configuration, returning `(objective, aux)`.
    fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> Evaluation;

    /// Fallible form used by the resilient drivers; `attempt` counts from
    /// zero per configuration. The default delegates to the infallible
    /// [`evaluate`](Self::evaluate).
    ///
    /// # Errors
    /// Implementations return [`EvalError`] for attempts that should enter
    /// the retry/quarantine machinery; the default never fails.
    fn evaluate_attempt(
        &mut self,
        space: &ParamSpace,
        cfg: &Config,
        attempt: usize,
    ) -> Result<Evaluation, EvalError> {
        let _ = attempt;
        Ok(self.evaluate(space, cfg))
    }

    /// Monotone counter of internal state-reuse hits (e.g. arena resets
    /// that recycled allocations), reported as the `reuse_hits` attribute
    /// on each `evaluate_many` span. Defaults to zero for evaluators
    /// without reusable state.
    fn reuse_hits(&self) -> usize {
        0
    }
}

/// Adapts a serial driver's `FnMut` closure, called as
/// `(space, config, attempt)`, into the one evaluator its rounds feed.
pub(crate) struct Serial<F>(pub(crate) F);

impl<F> BatchEvaluator for Serial<F>
where
    F: FnMut(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError>,
{
    /// The first attempt, with a failure surfacing as a NaN objective.
    fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> Evaluation {
        (self.0)(space, cfg, 0).unwrap_or_else(|_| (f64::NAN, HashMap::new()))
    }

    fn evaluate_attempt(
        &mut self,
        space: &ParamSpace,
        cfg: &Config,
        attempt: usize,
    ) -> Result<Evaluation, EvalError> {
        (self.0)(space, cfg, attempt)
    }
}

/// How the loop evaluates a round's fresh configurations.
pub(crate) enum Evaluators<'a> {
    /// A scoped pool of this many worker threads sharing one closure,
    /// called as `(space, config, attempt)`.
    Pool(
        usize,
        &'a (dyn Fn(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError> + Sync),
    ),
    /// One stateful evaluator, fed the round in suggestion order with no
    /// thread handoff.
    One(&'a mut dyn BatchEvaluator),
}

/// One public driver: its [`SessionMeta::driver`](crate::SessionMeta)
/// string, root span, and round shape.
#[derive(Clone, Copy)]
pub(crate) struct Driver {
    name: &'static str,
    span: &'static str,
    /// Rounds of one proposal, whatever `batch_size` says.
    serial: bool,
    /// Retries, quarantine and degradation under caller-supplied
    /// [`Robustness`].
    resilient: bool,
}

impl Driver {
    pub(crate) const RUN: Driver = Driver {
        name: "run",
        span: "tuner.run",
        serial: true,
        resilient: false,
    };
    pub(crate) const RUN_PARALLEL: Driver = Driver {
        name: "run_parallel",
        span: "tuner.run_parallel",
        serial: false,
        resilient: false,
    };
    pub(crate) const RUN_RESILIENT: Driver = Driver {
        name: "run_resilient",
        span: "tuner.run_resilient",
        serial: true,
        resilient: true,
    };
    pub(crate) const RUN_PARALLEL_RESILIENT: Driver = Driver {
        name: "run_parallel_resilient",
        span: "tuner.run_parallel_resilient",
        serial: false,
        resilient: true,
    };
}

/// Fan `fresh` out over up to `workers` scoped threads (serially for a
/// single worker or item), appending one result per configuration to
/// `outputs` *in suggestion order*. `slots` is reusable scratch owned by
/// the caller: both buffers keep their allocations across rounds, so the
/// steady-state loop allocates nothing per proposal.
fn fan_out<T: Send>(
    fresh: &[Config],
    workers: usize,
    slots: &mut Vec<SyncMutex<Option<T>>>,
    outputs: &mut Vec<T>,
    run_one: impl Fn(&Config, usize) -> T + Sync,
) {
    if workers == 1 || fresh.len() <= 1 {
        outputs.extend(fresh.iter().map(|cfg| run_one(cfg, 0)));
        return;
    }
    slots.clear();
    slots.resize_with(fresh.len(), || SyncMutex::new(sites::POOL_SLOT, None));
    // Relaxed: a pure index dispenser — each index is claimed exactly once
    // by atomicity alone; slot contents are published by the scope join.
    let next = SyncAtomicUsize::new(sites::POOL_CURSOR, 0);
    std::thread::scope(|scope| {
        for worker in 0..workers.min(fresh.len()) {
            let next = &next;
            let slots = &*slots;
            let run_one = &run_one;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = fresh.get(i) else { break };
                let out = run_one(cfg, worker);
                // Poison-tolerant: a panicked sibling must not turn into a
                // cascading poison panic here — the slot value is plain data.
                *slots[i].lock() = Some(out);
            });
        }
    });
    outputs.extend(slots.iter_mut().map(|slot| {
        slot.get_mut()
            .take()
            .expect("every slot was claimed and filled")
    }));
}

/// Hit/miss counters for the evaluation cache.
///
/// A *hit* is a suggested configuration whose result was already known (from
/// an earlier evaluation or a warm-start prior) and therefore cost nothing; a
/// *miss* triggered a real evaluation. `hits + misses` equals the number of
/// suggestions the tuner accepted from the algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Suggestions answered from the cache (no evaluator call).
    pub hits: usize,
    /// Suggestions that ran the evaluator.
    pub misses: usize,
}

/// Why a tuning run could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The algorithm proposed nothing and no warm-start prior exists, so
    /// there is no best configuration to report (e.g. an exhaustive sweep
    /// over a space whose constraints reject every point).
    NoEvaluations {
        /// Name of the algorithm that produced nothing.
        algorithm: String,
    },
    /// Static analysis of the run's inputs failed: the warm-start prior
    /// contains configurations outside the space, or the algorithm
    /// suggested an invalid configuration. Carries one rendered diagnostic
    /// per finding so lint failures propagate through `run`/`run_parallel`
    /// as errors instead of panics.
    Diagnostic {
        /// What was being checked, e.g. `"warm-start prior"`.
        context: String,
        /// One human-readable line per finding.
        diagnostics: Vec<String>,
    },
    /// A crash-injection hook ([`Tuner::interrupt_when`]) aborted the run
    /// after the given ordinal's WAL append. The checkpoint on disk is
    /// consistent; the matching `resume_*` driver continues the session.
    Interrupted {
        /// Ordinal of the last record made durable before the abort.
        at_ordinal: usize,
    },
    /// Checkpoint storage or schema problem: unreadable snapshot, session
    /// metadata that does not match the resume arguments, or a resumed
    /// search that diverged from its write-ahead log.
    Checkpoint {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::NoEvaluations { algorithm } => write!(
                f,
                "tuning with {algorithm} produced no evaluations and no warm-start prior exists"
            ),
            TuneError::Diagnostic {
                context,
                diagnostics,
            } => write!(
                f,
                "tuning rejected by static checks ({context}): {}",
                diagnostics.join("; ")
            ),
            TuneError::Interrupted { at_ordinal } => write!(
                f,
                "tuning session interrupted after ordinal {at_ordinal}; the checkpoint is \
                 consistent and the session can be resumed"
            ),
            TuneError::Checkpoint { detail } => write!(f, "checkpoint error: {detail}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Result of a tuning run.
///
/// Serializes deterministically (the vendored serde sorts map keys), so two
/// identically-seeded runs render byte-identical JSON — the replayability
/// contract the chaos suite asserts.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Algorithm name (the *active* algorithm: the fallback's name when a
    /// resilient run degraded).
    pub algorithm: String,
    /// The full performance database.
    pub db: PerfDatabase,
    /// Best configuration found.
    pub best_config: Config,
    /// Best objective found.
    pub best_objective: f64,
    /// Number of evaluations actually performed.
    pub evals: usize,
    /// Evaluation-cache counters (hits are suggestions that never
    /// re-simulated).
    pub cache: CacheStats,
    /// What was injected and survived: retries, quarantines and
    /// degradation under [`Tuner::run_resilient`] /
    /// [`Tuner::run_parallel_resilient`]. A fault-free driver's log stays
    /// empty unless an objective came back non-finite, which quarantines
    /// that configuration.
    pub faults: FaultLog,
    /// Where the run spent its time: per-stage count/total/mean/p95 plus
    /// cache and retry attribution. Populated by every driver.
    ///
    /// **Not serialized**: timing is a wall-clock measurement, so including
    /// it would break the byte-identical-replay contract (and the golden
    /// artifacts' tolerance). Render it via
    /// [`ProfileSummary::render`]/[`ProfileSummary::to_json`]; a
    /// deserialized report carries an empty summary.
    pub profile: ProfileSummary,
}

// Manual serde impls: exactly the seven canonical fields, in declaration
// order, matching what the derive produced before `profile` existed. The
// vendored serde has no `#[serde(skip)]`, and `profile` must stay out of
// the canonical JSON (see its doc comment).
impl Serialize for TuneReport {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("algorithm".to_string(), self.algorithm.to_value()),
            ("db".to_string(), self.db.to_value()),
            ("best_config".to_string(), self.best_config.to_value()),
            ("best_objective".to_string(), self.best_objective.to_value()),
            ("evals".to_string(), self.evals.to_value()),
            ("cache".to_string(), self.cache.to_value()),
            ("faults".to_string(), self.faults.to_value()),
        ])
    }
}

impl Deserialize for TuneReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| serde::Error::msg(format!("TuneReport missing field `{k}`")))
        };
        Ok(TuneReport {
            algorithm: String::from_value(field("algorithm")?)?,
            db: PerfDatabase::from_value(field("db")?)?,
            best_config: Config::from_value(field("best_config")?)?,
            best_objective: f64::from_value(field("best_objective")?)?,
            evals: usize::from_value(field("evals")?)?,
            cache: CacheStats::from_value(field("cache")?)?,
            faults: FaultLog::from_value(field("faults")?)?,
            profile: ProfileSummary::default(),
        })
    }
}

/// The tuning loop driver.
///
/// # Example
///
/// ```
/// use pstack_autotune::{ForestSearch, Param, ParamSpace, Tuner};
///
/// let space = ParamSpace::new()
///     .with(Param::ints("tile", [8, 16, 32, 64]))
///     .with(Param::ints("unroll", [1, 2, 4]));
/// let report = Tuner::new(space)
///     .max_evals(20)
///     .seed(42)
///     .run(&mut ForestSearch::new(), |space, cfg| {
///         // "plopper": evaluate the candidate (here: an analytic stand-in).
///         let tile = space.value(cfg, "tile").as_int() as f64;
///         let unroll = space.value(cfg, "unroll").as_int() as f64;
///         ((tile - 32.0).abs() + unroll, Default::default())
///     })
///     .expect("space is non-empty");
/// // The 12-point space is exhausted before the budget runs out.
/// assert_eq!(report.evals, 12);
/// assert_eq!(report.best_objective, 1.0); // tile=32, unroll=1
/// ```
#[derive(Clone)]
pub struct Tuner {
    pub(crate) space: ParamSpace,
    pub(crate) max_evals: usize,
    pub(crate) seed: u64,
    pub(crate) warm_start: Option<PerfDatabase>,
    pub(crate) max_consecutive_duplicates: usize,
    pub(crate) batch_size: usize,
    pub(crate) trace: Option<Arc<TraceCollector>>,
    pub(crate) checkpoint: Option<CheckpointOpts>,
    pub(crate) interrupt: Option<Arc<InterruptFn>>,
}

impl Tuner {
    /// ytopt-like default budget of 100 evaluations.
    pub const DEFAULT_MAX_EVALS: usize = 100;

    /// Consecutive duplicate suggestions tolerated before a run is declared
    /// exhausted for its strategy. Every driver counts a round's duplicates
    /// in suggestion order.
    pub const DEFAULT_MAX_CONSECUTIVE_DUPLICATES: usize = 16;

    /// Default number of suggestions asked for per round by the parallel
    /// drivers. Deliberately independent of the worker count so that
    /// changing workers never changes the search trajectory.
    pub const DEFAULT_BATCH_SIZE: usize = 8;

    /// Create a tuner over `space`.
    pub fn new(space: ParamSpace) -> Self {
        Tuner {
            space,
            max_evals: Self::DEFAULT_MAX_EVALS,
            seed: 0,
            warm_start: None,
            max_consecutive_duplicates: Self::DEFAULT_MAX_CONSECUTIVE_DUPLICATES,
            batch_size: Self::DEFAULT_BATCH_SIZE,
            trace: None,
            checkpoint: None,
            interrupt: None,
        }
    }

    /// Attach a trace collector: every driver then records a root span, one
    /// `eval` span per real evaluation (worker id, config fingerprint,
    /// objective, retry/fault attribution), and cache-hit events. Tracing
    /// never changes the search trajectory — an untraced run is merely
    /// unobserved. The [`TuneReport::profile`] summary is populated with or
    /// without a collector.
    pub fn with_trace(mut self, collector: Arc<TraceCollector>) -> Self {
        self.trace = Some(collector);
        self
    }

    /// Seed the run with a prior performance database (transfer from earlier
    /// runs of the same space — the site "historic profile information"
    /// pattern of the paper's §3.2.2 mode 2, and the warm-start used by
    /// transfer-learning tuners). Prior observations inform the surrogate
    /// and are never re-evaluated, but do not count against the budget.
    ///
    /// Prior configurations are validated against the space when the run
    /// starts; invalid ones surface as [`TuneError::Diagnostic`] from
    /// [`Tuner::run`] / [`Tuner::run_parallel`].
    pub fn warm_start(mut self, prior: PerfDatabase) -> Self {
        self.warm_start = Some(prior);
        self
    }

    /// Set the evaluation budget (`--max-evals`).
    ///
    /// # Panics
    /// Panics on a zero budget.
    pub fn max_evals(mut self, n: usize) -> Self {
        assert!(n > 0, "budget must be positive");
        self.max_evals = n;
        self
    }

    /// Set the RNG seed for reproducible runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Tolerance for consecutive duplicate suggestions before the run ends
    /// early (default [`Self::DEFAULT_MAX_CONSECUTIVE_DUPLICATES`]).
    ///
    /// # Panics
    /// Panics on zero (the run could never accept a single duplicate).
    pub fn max_consecutive_duplicates(mut self, n: usize) -> Self {
        assert!(n > 0, "duplicate tolerance must be positive");
        self.max_consecutive_duplicates = n;
        self
    }

    /// Suggestions requested per ask-tell round by the parallel drivers
    /// (default [`Self::DEFAULT_BATCH_SIZE`]); the serial drivers always ask
    /// for one. Larger batches expose more parallelism but give model-based
    /// algorithms staler feedback between fits.
    ///
    /// # Panics
    /// Panics on a zero batch size.
    pub fn batch_size(mut self, k: usize) -> Self {
        assert!(k > 0, "batch size must be positive");
        self.batch_size = k;
        self
    }

    /// Checkpoint this run into `dir`: a write-ahead log of evaluation
    /// outcomes (appended before the search observes each result) plus
    /// periodic full-state snapshots, so a killed run resumes via
    /// [`resume`](Self::resume) / [`resume_parallel`](Self::resume_parallel)
    /// (and the resilient siblings) and reproduces the uninterrupted run's
    /// report byte-for-byte. Starting a `run_*` driver with a checkpoint
    /// directory truncates any previous session in it.
    pub fn checkpoint(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint = Some(CheckpointOpts::new(dir));
        self
    }

    /// Snapshot cadence in records (default
    /// [`CheckpointOpts::DEFAULT_SNAPSHOT_EVERY`]). Parallel drivers
    /// snapshot at the first round boundary at or past the cadence.
    ///
    /// # Panics
    /// Panics on zero, or when called before [`checkpoint`](Self::checkpoint).
    pub fn snapshot_every(mut self, n: usize) -> Self {
        assert!(n > 0, "snapshot cadence must be positive");
        self.checkpoint
            .as_mut()
            .expect("call checkpoint(dir) before snapshot_every")
            .snapshot_every = n;
        self
    }

    /// `fsync` the WAL every `n` appends (default 1: every record durable
    /// before the search sees it). Larger values trade a bounded window of
    /// re-evaluable work for throughput.
    ///
    /// # Panics
    /// Panics on zero, or when called before [`checkpoint`](Self::checkpoint).
    pub fn fsync_every(mut self, n: usize) -> Self {
        assert!(n > 0, "fsync cadence must be positive");
        self.checkpoint
            .as_mut()
            .expect("call checkpoint(dir) before fsync_every")
            .fsync_every = n;
        self
    }

    /// Install a crash-injection hook: `f` is called with each ordinal just
    /// after its WAL append, and returning `true` aborts the run with
    /// [`TuneError::Interrupted`] — simulating the process dying right
    /// after the write hit disk. Only consulted when a checkpoint directory
    /// is configured, and never for replayed records (a resumed run cannot
    /// be re-killed at an ordinal it already survived).
    pub fn interrupt_when(mut self, f: impl Fn(usize) -> bool + Send + Sync + 'static) -> Self {
        self.interrupt = Some(Arc::new(f));
        self
    }

    /// The space being tuned.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Run the loop serially. `evaluate` maps a configuration to
    /// `(objective, aux)`; the objective is minimized.
    ///
    /// Configurations the algorithm re-suggests are answered from the
    /// evaluation cache (a hit in [`TuneReport::cache`]) without consuming
    /// budget, but after [`max_consecutive_duplicates`]
    /// (`Self::max_consecutive_duplicates`) consecutive duplicates the run
    /// ends early — the space is exhausted for this strategy. A
    /// configuration whose objective is not finite is quarantined and
    /// logged in [`TuneReport::faults`] instead of recorded.
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`] when the algorithm proposes nothing (or
    /// every objective is non-finite) and there is no warm-start prior to
    /// fall back on.
    pub fn run(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        mut evaluate: impl FnMut(&ParamSpace, &Config) -> (f64, HashMap<String, f64>),
    ) -> Result<TuneReport, TuneError> {
        let mut serial =
            Serial(|space: &ParamSpace, cfg: &Config, _: usize| Ok(evaluate(space, cfg)));
        self.start(
            Driver::RUN,
            algorithm,
            None,
            None,
            Evaluators::One(&mut serial),
        )
    }

    /// Resume a killed [`run`](Self::run) session from the checkpoint
    /// directory configured with [`checkpoint`](Self::checkpoint).
    ///
    /// The snapshot restores the database, cache, RNG and algorithm state;
    /// the WAL tail then *replays* into the re-driven search, answering
    /// each logged configuration without calling `evaluate`. Session
    /// metadata overrides this tuner's seed/budget settings, so the
    /// resumed run finishes exactly as the uninterrupted one would have —
    /// byte-identical report for any kill point.
    ///
    /// # Errors
    /// [`TuneError::Checkpoint`] when no checkpoint directory is
    /// configured, the session is unreadable, or its metadata (driver,
    /// space fingerprint, algorithm name/schema) does not match; otherwise
    /// as [`run`](Self::run).
    pub fn resume(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        mut evaluate: impl FnMut(&ParamSpace, &Config) -> (f64, HashMap<String, f64>),
    ) -> Result<TuneReport, TuneError> {
        let mut serial =
            Serial(|space: &ParamSpace, cfg: &Config, _: usize| Ok(evaluate(space, cfg)));
        self.resume_as(Driver::RUN, algorithm, None, Evaluators::One(&mut serial))
    }

    /// Run the loop with batched suggestions and a pool of `workers` threads
    /// evaluating each batch concurrently (scoped threads; no evaluation
    /// outlives the call).
    ///
    /// Determinism: batches are composed from the seeded RNG and the batch
    /// size alone, and results are recorded in suggestion order, so for any
    /// algorithm a seeded run returns the identical [`TuneReport`] for 1
    /// worker or 100. For [`RandomSearch`](crate::RandomSearch) the batched
    /// run is additionally equivalent to the serial [`run`](Self::run)
    /// (its batch-aware sampler consumes the same RNG stream).
    ///
    /// `evaluate` must be `Sync`: it is shared by reference across workers.
    ///
    /// # Example
    ///
    /// ```
    /// use pstack_autotune::{Param, ParamSpace, RandomSearch, Tuner};
    ///
    /// let space = ParamSpace::new()
    ///     .with(Param::ints("tile", [8, 16, 32, 64]))
    ///     .with(Param::ints("unroll", [1, 2, 4]));
    /// let tuner = Tuner::new(space).max_evals(10).seed(42);
    /// let parallel = tuner
    ///     .run_parallel(&mut RandomSearch::new(), 4, |space, cfg| {
    ///         let tile = space.value(cfg, "tile").as_int() as f64;
    ///         ((tile - 32.0).abs(), Default::default())
    ///     })
    ///     .expect("space is non-empty");
    /// // Same seed, one worker: identical observations in identical order.
    /// let serial = tuner
    ///     .run_parallel(&mut RandomSearch::new(), 1, |space, cfg| {
    ///         let tile = space.value(cfg, "tile").as_int() as f64;
    ///         ((tile - 32.0).abs(), Default::default())
    ///     })
    ///     .expect("space is non-empty");
    /// assert_eq!(parallel.db.observations(), serial.db.observations());
    /// ```
    ///
    /// # Errors
    /// As [`run`](Self::run).
    ///
    /// # Panics
    /// Panics on zero workers.
    pub fn run_parallel(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        workers: usize,
        evaluate: impl Fn(&ParamSpace, &Config) -> (f64, HashMap<String, f64>) + Sync,
    ) -> Result<TuneReport, TuneError> {
        let attempt = |space: &ParamSpace, cfg: &Config, _: usize| Ok(evaluate(space, cfg));
        self.start(
            Driver::RUN_PARALLEL,
            algorithm,
            None,
            None,
            Evaluators::Pool(workers, &attempt),
        )
    }

    /// Resume a killed [`run_parallel`](Self::run_parallel) session — see
    /// [`resume`](Self::resume) for the contract. The worker count may
    /// differ from the original run's: batch composition never depends on
    /// it, so the resumed report is still byte-identical.
    ///
    /// # Errors
    /// As [`resume`](Self::resume).
    ///
    /// # Panics
    /// Panics on zero workers.
    pub fn resume_parallel(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        workers: usize,
        evaluate: impl Fn(&ParamSpace, &Config) -> (f64, HashMap<String, f64>) + Sync,
    ) -> Result<TuneReport, TuneError> {
        let attempt = |space: &ParamSpace, cfg: &Config, _: usize| Ok(evaluate(space, cfg));
        self.resume_as(
            Driver::RUN_PARALLEL,
            algorithm,
            None,
            Evaluators::Pool(workers, &attempt),
        )
    }

    /// [`run_parallel`](Self::run_parallel) through a stateful
    /// [`BatchEvaluator`]: each round's `suggest_batch` proposals flow
    /// through one amortized `evaluate_many` pass instead of a thread pool
    /// — the fast path when a single warm evaluator outruns N cold ones.
    ///
    /// The report is byte-identical to [`run_parallel`](Self::run_parallel)
    /// with an equivalent closure (any worker count), and a session
    /// checkpointed here resumes via
    /// [`resume_parallel`](Self::resume_parallel): the WAL does not record
    /// how evaluations were dispatched. The trace gains one `evaluate_many`
    /// span per round with live evaluations (`batch` size, evaluator
    /// `reuse_hits`) parenting that round's `eval` spans, and the profile
    /// an `evaluate_many` stage alongside the per-evaluation `evaluate`
    /// samples.
    ///
    /// # Errors
    /// As [`run_parallel`](Self::run_parallel).
    pub fn run_parallel_with(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        evaluator: &mut dyn BatchEvaluator,
    ) -> Result<TuneReport, TuneError> {
        self.start(
            Driver::RUN_PARALLEL,
            algorithm,
            None,
            None,
            Evaluators::One(evaluator),
        )
    }

    /// Open a fresh session (when checkpointing) and run the loop.
    pub(crate) fn start(
        &self,
        driver: Driver,
        algorithm: &mut dyn SearchAlgorithm,
        fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        robustness: Option<&Robustness>,
        evaluators: Evaluators<'_>,
    ) -> Result<TuneReport, TuneError> {
        let session = self.open_session(driver.name, algorithm, fallback.as_deref(), robustness)?;
        let db = self.warm_start.clone().unwrap_or_default();
        // Priors are memoized too: suggesting one is a hit, not a
        // re-simulation.
        let cache = db
            .observations()
            .iter()
            .map(|o| (o.config.clone(), (o.objective, o.aux.clone())))
            .collect();
        let state = LoopState {
            prior_len: db.len(),
            db,
            cache,
            stats: CacheStats::default(),
            rng: SmallRng::seed_from_u64(self.seed),
            consecutive_dups: 0,
            ledger: ResilientSnapshot::clean(0),
        };
        self.drive(
            driver, algorithm, fallback, robustness, evaluators, session, state,
        )
    }

    /// Reload a killed `driver` session and run the loop to completion
    /// under the session's own settings.
    pub(crate) fn resume_as(
        &self,
        driver: Driver,
        algorithm: &mut dyn SearchAlgorithm,
        mut fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        evaluators: Evaluators<'_>,
    ) -> Result<TuneReport, TuneError> {
        let (tuner, session, state) =
            self.load_session(driver.name, algorithm, fallback.as_deref_mut())?;
        let robustness = match session.meta().robustness {
            Some(r) if driver.resilient => Some(r),
            None if driver.resilient => {
                return Err(TuneError::Checkpoint {
                    detail: "session metadata carries no robustness settings".to_string(),
                })
            }
            _ => None,
        };
        tuner.drive(
            driver,
            algorithm,
            fallback,
            robustness.as_ref(),
            evaluators,
            Some(session),
            state,
        )
    }

    /// The tuning loop behind every driver. Each round asks for proposals,
    /// filters quarantined and duplicate ones, answers the leading fresh
    /// ones from the WAL replay queue on resume, evaluates the rest, logs
    /// them, records every outcome in suggestion order, and checkpoints at
    /// the round boundary. Without `robustness` a configuration gets one
    /// attempt and no outlier screening.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        driver: Driver,
        algorithm: &mut dyn SearchAlgorithm,
        mut fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        robustness: Option<&Robustness>,
        mut evaluators: Evaluators<'_>,
        mut session: Option<ActiveSession>,
        mut state: LoopState,
    ) -> Result<TuneReport, TuneError> {
        if let Evaluators::Pool(workers, _) = evaluators {
            assert!(workers > 0, "need at least one worker");
        }
        self.preflight()?;
        let resilient = robustness.is_some();
        let retry = robustness.map_or(
            RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            |r| r.retry,
        );
        let fault_budget = self.max_evals.max(1) * retry.max_attempts.max(1);
        let round = if driver.serial { 1 } else { self.batch_size };
        let mut profile = ProfileBuilder::new();
        let mut root = self.trace.as_deref().map(|t| {
            let mut s = t.span(driver.span);
            s.attr("algorithm", algorithm.name());
            s.attr("seed", self.seed);
            s.attr("max_evals", self.max_evals);
            match &evaluators {
                Evaluators::Pool(workers, _) => s.attr("workers", *workers),
                Evaluators::One(_) if driver.serial => s.attr("workers", 1usize),
                Evaluators::One(_) => s.attr("dispatch", "batched"),
            }
            s.attr("batch_size", round);
            s
        });
        // Fresh sessions snapshot their starting state immediately, so a
        // resume target exists before the first evaluation completes.
        checkpoint_tick(
            &mut session,
            &state,
            &*algorithm,
            fallback.as_deref(),
            resilient,
        )?;
        // Round-reusable buffers: proposals, outcomes and pool slots keep
        // their allocations across rounds (no per-proposal churn).
        let mut fresh: Vec<Config> = Vec::new();
        let mut outcomes: Vec<ConfigOutcome> = Vec::new();
        let mut slots: Vec<SyncMutex<Option<ConfigOutcome>>> = Vec::new();
        while state.db.len() - state.prior_len < self.max_evals {
            let want = round.min(self.max_evals - (state.db.len() - state.prior_len));
            let active: &mut dyn SearchAlgorithm = if state.ledger.degraded {
                fallback
                    .as_deref_mut()
                    .expect("degraded only with fallback")
            } else {
                &mut *algorithm
            };
            let mut proposals = {
                let _span = root.as_ref().map(|r| {
                    let mut s = r.child("suggest_batch");
                    s.attr("want", want);
                    s
                });
                let t_suggest = Instant::now();
                let proposals = active.suggest_batch(&self.space, &state.db, &mut state.rng, want);
                profile.sample("suggest", t_suggest.elapsed().as_secs_f64());
                proposals
            };
            if proposals.is_empty() {
                break; // strategy exhausted (e.g. grid complete)
            }
            // `suggest_batch` contracts to at most `want` proposals; an
            // over-returning algorithm has its tail dropped *before* the
            // duplicate filter so every processed proposal lands in exactly
            // one cache counter (hits + misses == accepted suggestions).
            proposals.truncate(want);
            // Quarantined and duplicate proposals count toward the
            // consecutive-duplicate exit in suggestion order.
            let mut exhausted = false;
            for cfg in proposals {
                if !self.space.is_valid(&cfg) {
                    return Err(TuneError::Diagnostic {
                        context: format!("algorithm {}", active.name()),
                        diagnostics: vec![format!("suggested invalid config {cfg:?}")],
                    });
                }
                let event = if state.ledger.is_quarantined(&cfg) {
                    state.ledger.faults.record(
                        FaultKind::QuarantineSkip,
                        format!("eval {}", state.ledger.fresh_idx),
                        format!("config {cfg:?} re-suggested while quarantined"),
                    );
                    "quarantine_skip"
                } else if state.cache.contains_key(&cfg) || fresh.contains(&cfg) {
                    state.stats.hits += 1;
                    "cache_hit"
                } else {
                    state.consecutive_dups = 0;
                    fresh.push(cfg);
                    continue;
                };
                if let Some(root) = root.as_mut() {
                    root.event_with(
                        event,
                        vec![(
                            "config".to_string(),
                            AttrValue::Str(config_fingerprint(&cfg)),
                        )],
                    );
                }
                state.consecutive_dups += 1;
                if state.consecutive_dups >= self.max_consecutive_duplicates {
                    exhausted = true;
                    break;
                }
            }
            // On resume, the round's leading configurations may already be
            // in the WAL: answer those from the replay queue, evaluate only
            // the remainder live.
            if let Some(s) = session.as_mut() {
                while outcomes.len() < fresh.len() {
                    match s.replay_next(&fresh[outcomes.len()])? {
                        Some(rec) => outcomes.push(outcome_from_record(rec)?),
                        None => break,
                    }
                }
            }
            let replayed = outcomes.len();
            let live = &fresh[replayed..];
            let trace = self.trace.as_deref().zip(root.as_ref().map(|r| r.id()));
            match &mut evaluators {
                // Retry loops run inside each worker's slot; outcomes
                // surface in suggestion order whichever worker finished
                // first.
                Evaluators::Pool(workers, attempt) => {
                    fan_out(live, *workers, &mut slots, &mut outcomes, |cfg, worker| {
                        let mut span = trace.map(|(t, parent)| {
                            let mut s = t.child("eval", parent);
                            s.attr("worker", worker);
                            s.attr("config", config_fingerprint(cfg));
                            s
                        });
                        let out = attempt_config(&self.space, cfg, &retry, &mut |s, c, a| {
                            attempt(s, c, a)
                        });
                        if let Some(s) = span.as_mut() {
                            out.annotate(s);
                        }
                        out
                    });
                }
                Evaluators::One(evaluator) if !live.is_empty() => {
                    let mut span = trace.map(|(t, parent)| {
                        let mut s = t.child("evaluate_many", parent);
                        s.attr("batch", live.len());
                        s
                    });
                    let reuse_before = evaluator.reuse_hits();
                    let t_batch = Instant::now();
                    for cfg in live {
                        let mut eval_span = span.as_ref().map(|s| {
                            let mut e = s.child("eval");
                            e.attr("worker", 0usize);
                            e.attr("config", config_fingerprint(cfg));
                            e
                        });
                        let out = attempt_config(&self.space, cfg, &retry, &mut |s, c, a| {
                            if resilient {
                                evaluator.evaluate_attempt(s, c, a)
                            } else {
                                Ok(evaluator.evaluate(s, c))
                            }
                        });
                        if let Some(e) = eval_span.as_mut() {
                            out.annotate(e);
                        }
                        outcomes.push(out);
                    }
                    profile.sample("evaluate_many", t_batch.elapsed().as_secs_f64());
                    if let Some(s) = span.as_mut() {
                        s.attr(
                            "reuse_hits",
                            evaluator.reuse_hits().saturating_sub(reuse_before),
                        );
                    }
                }
                Evaluators::One(_) => {}
            }
            if let Some(s) = session.as_mut() {
                for (cfg, outcome) in live.iter().zip(&outcomes[replayed..]) {
                    s.log(&record_from_outcome(s.next_ordinal(), cfg, outcome))?;
                }
            }
            for (cfg, outcome) in fresh.drain(..).zip(outcomes.drain(..)) {
                profile.sample("evaluate", outcome.dur_s);
                profile.retries(outcome.retry_count());
                let Some((objective, aux)) = state.ledger.absorb(&cfg, outcome, &retry) else {
                    continue;
                };
                state.stats.misses += 1;
                state.cache.insert(cfg.clone(), (objective, aux.clone()));
                state.db.record(cfg, objective, aux);
                let Some(robustness) = robustness else {
                    continue;
                };
                if state
                    .ledger
                    .screen(robustness, &state.db, objective, fallback.is_some())
                {
                    let to = fallback.as_deref().map_or("?", |f| f.name());
                    state.ledger.degraded = true;
                    state.ledger.faults.record(
                        FaultKind::SearchDegraded,
                        format!("eval {}", state.db.len() - 1),
                        format!("database poisoned; {} -> {to}", algorithm.name()),
                    );
                    if let Some(root) = root.as_mut() {
                        root.event_with(
                            "search_degraded",
                            vec![("fallback".to_string(), AttrValue::Str(to.into()))],
                        );
                    }
                }
            }
            // Round boundary: the only point where a snapshot is consistent
            // (mid-round the RNG has already advanced past suggestions that
            // are not yet recorded).
            checkpoint_tick(
                &mut session,
                &state,
                &*algorithm,
                fallback.as_deref(),
                resilient,
            )?;
            if state.ledger.budget_spent(fault_budget) || exhausted {
                break;
            }
        }
        if let Some(s) = session.as_mut() {
            s.finish()?;
        }
        // The report names the active algorithm: the fallback's once the
        // run degraded.
        let active: &dyn SearchAlgorithm = if state.ledger.degraded {
            fallback.as_deref().expect("degraded only with fallback")
        } else {
            &*algorithm
        };
        let Some(best) = state.db.best().cloned() else {
            return Err(TuneError::NoEvaluations {
                algorithm: active.name().to_string(),
            });
        };
        // Cache attribution mirrors the canonical counters exactly, so the
        // profile agrees with `TuneReport::cache` on every driver.
        profile.cache_hits(state.stats.hits);
        profile.cache_misses(state.stats.misses);
        let report = TuneReport {
            algorithm: active.name().to_string(),
            // Fresh evaluations only; warm-start priors are free.
            evals: state.db.len() - state.prior_len,
            best_config: best.config,
            best_objective: best.objective,
            db: state.db,
            cache: state.stats,
            faults: state.ledger.faults,
            profile: profile.finish(),
        };
        if let Some(root) = root.as_mut() {
            root.attr("evals", report.evals);
            root.attr("best_objective", report.best_objective);
            root.attr("degraded", state.ledger.degraded);
        }
        Ok(report)
    }

    /// Static checks on the run's inputs, before any evaluation happens.
    fn preflight(&self) -> Result<(), TuneError> {
        if self.space.dims() == 0 {
            return Err(TuneError::Diagnostic {
                context: "parameter space".to_string(),
                diagnostics: vec!["space has no parameters; nothing to tune".to_string()],
            });
        }
        if let Some(prior) = &self.warm_start {
            let bad: Vec<String> = prior
                .observations()
                .iter()
                .filter(|o| o.config.len() != self.space.dims() || !self.space.is_valid(&o.config))
                .map(|o| format!("warm-start config {:?} invalid in this space", o.config))
                .collect();
            if !bad.is_empty() {
                return Err(TuneError::Diagnostic {
                    context: "warm-start prior".to_string(),
                    diagnostics: bad,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{ExhaustiveSearch, ForestSearch, RandomSearch};
    use crate::space::Param;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(Param::ints("x", 0..10))
            .with(Param::ints("y", 0..10))
    }

    fn bowl(_s: &ParamSpace, c: &Config) -> (f64, HashMap<String, f64>) {
        let o = (c[0] as f64 - 6.0).powi(2) + (c[1] as f64 - 2.0).powi(2);
        (o, HashMap::new())
    }

    #[test]
    fn exhaustive_finds_exact_optimum() {
        let report = Tuner::new(space())
            .max_evals(1000)
            .run(&mut ExhaustiveSearch::new(), bowl)
            .unwrap();
        assert_eq!(report.best_objective, 0.0);
        assert_eq!(report.best_config, vec![6, 2]);
        assert_eq!(report.evals, 100);
    }

    #[test]
    fn budget_is_respected() {
        let report = Tuner::new(space())
            .max_evals(20)
            .run(&mut RandomSearch::new(), bowl)
            .unwrap();
        assert_eq!(report.evals, 20);
        assert_eq!(report.db.len(), 20);
    }

    #[test]
    fn forest_budget_run_improves_over_initial() {
        let report = Tuner::new(space())
            .max_evals(40)
            .seed(5)
            .run(&mut ForestSearch::new(), bowl)
            .unwrap();
        let traj = report.db.trajectory();
        assert!(traj.last().unwrap() < &traj[7], "surrogate phase improves");
    }

    #[test]
    fn seeded_runs_reproduce() {
        let a = Tuner::new(space())
            .max_evals(15)
            .seed(9)
            .run(&mut RandomSearch::new(), bowl)
            .unwrap();
        let b = Tuner::new(space())
            .max_evals(15)
            .seed(9)
            .run(&mut RandomSearch::new(), bowl)
            .unwrap();
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.db.observations(), b.db.observations());
    }

    #[test]
    fn warm_start_accelerates_surrogate() {
        // A prior database near the optimum should let the surrogate find
        // the basin with a far smaller fresh budget.
        let cold = Tuner::new(space())
            .max_evals(12)
            .seed(3)
            .run(&mut ForestSearch::new().with_init(4), bowl)
            .unwrap();
        let mut prior = crate::db::PerfDatabase::new();
        for cfg in [
            vec![5usize, 2],
            vec![7, 2],
            vec![6, 3],
            vec![6, 1],
            vec![4, 4],
            vec![8, 8],
        ] {
            let (o, _) = bowl(&space(), &cfg);
            prior.record(cfg, o, HashMap::new());
        }
        let warm = Tuner::new(space())
            .max_evals(12)
            .seed(3)
            .warm_start(prior)
            .run(&mut ForestSearch::new().with_init(4), bowl)
            .unwrap();
        assert!(
            warm.best_objective <= cold.best_objective,
            "warm {} vs cold {}",
            warm.best_objective,
            cold.best_objective
        );
        assert!(
            warm.best_objective <= 1.0,
            "basin found: {}",
            warm.best_objective
        );
        // Budget counts only fresh evaluations.
        assert_eq!(warm.db.len(), 6 + warm.evals);
    }

    #[test]
    fn warm_start_validates_configs() {
        let mut prior = crate::db::PerfDatabase::new();
        prior.record(vec![99, 99], 1.0, HashMap::new());
        let err = Tuner::new(space())
            .warm_start(prior)
            .run(&mut RandomSearch::new(), |_, _| (0.0, HashMap::new()))
            .expect_err("invalid prior must be rejected");
        match err {
            TuneError::Diagnostic {
                context,
                diagnostics,
            } => {
                assert_eq!(context, "warm-start prior");
                assert_eq!(diagnostics.len(), 1);
                assert!(diagnostics[0].contains("invalid in this space"));
            }
            other => panic!("expected Diagnostic, got {other:?}"),
        }
        // The error implements std::error::Error with a readable message.
        let err: Box<dyn std::error::Error> = Box::new(TuneError::Diagnostic {
            context: "warm-start prior".into(),
            diagnostics: vec!["x".into()],
        });
        assert!(err.to_string().contains("rejected by static checks"));
    }

    #[test]
    fn small_space_terminates_early() {
        let tiny = ParamSpace::new().with(Param::ints("x", 0..3));
        let report = Tuner::new(tiny)
            .max_evals(100)
            .run(&mut RandomSearch::new(), |_, c| {
                (c[0] as f64, HashMap::new())
            })
            .unwrap();
        assert!(report.evals <= 3 + 16);
        assert_eq!(report.best_objective, 0.0);
    }

    #[test]
    fn small_space_terminates_early_in_parallel() {
        let tiny = ParamSpace::new().with(Param::ints("x", 0..3));
        let report = Tuner::new(tiny)
            .max_evals(100)
            .run_parallel(&mut RandomSearch::new(), 3, |_, c| {
                (c[0] as f64, HashMap::new())
            })
            .unwrap();
        assert_eq!(report.evals, 3, "every point evaluated exactly once");
        assert!(report.cache.hits <= Tuner::DEFAULT_MAX_CONSECUTIVE_DUPLICATES);
        assert_eq!(report.best_objective, 0.0);
    }

    #[test]
    fn parallel_random_matches_serial_run() {
        // The batch-aware random sampler consumes the identical RNG stream
        // as the serial loop, so all three drivers agree observation-for-
        // observation.
        let tuner = Tuner::new(space()).max_evals(30).seed(7);
        let serial = tuner.run(&mut RandomSearch::new(), bowl).unwrap();
        let one = tuner
            .run_parallel(&mut RandomSearch::new(), 1, bowl)
            .unwrap();
        let eight = tuner
            .run_parallel(&mut RandomSearch::new(), 8, bowl)
            .unwrap();
        assert_eq!(serial.db.observations(), one.db.observations());
        assert_eq!(one.db.observations(), eight.db.observations());
        assert_eq!(serial.best_config, eight.best_config);
        assert_eq!(serial.evals, eight.evals);
        assert_eq!(one.cache, eight.cache);
    }

    #[test]
    fn worker_count_never_changes_results() {
        use crate::search::{AnnealingSearch, HillClimbSearch};
        let algorithms: Vec<Box<dyn Fn() -> Box<dyn SearchAlgorithm>>> = vec![
            Box::new(|| Box::new(RandomSearch::new())),
            Box::new(|| Box::new(ExhaustiveSearch::new())),
            Box::new(|| Box::new(ForestSearch::new())),
            Box::new(|| Box::new(HillClimbSearch::new())),
            Box::new(|| Box::new(AnnealingSearch::default_schedule())),
        ];
        for make in algorithms {
            let tuner = Tuner::new(space()).max_evals(25).seed(11);
            let one = tuner.run_parallel(make().as_mut(), 1, bowl).unwrap();
            let eight = tuner.run_parallel(make().as_mut(), 8, bowl).unwrap();
            assert_eq!(
                one.db.observations(),
                eight.db.observations(),
                "algorithm {} diverged across worker counts",
                one.algorithm
            );
            assert_eq!(one.best_config, eight.best_config);
            assert_eq!(one.cache, eight.cache);
        }
    }

    /// An algorithm that proposes the same configuration forever.
    struct Stuck;

    impl crate::search::SearchState for Stuck {}

    impl SearchAlgorithm for Stuck {
        fn name(&self) -> &str {
            "stuck"
        }
        fn suggest(
            &mut self,
            _space: &ParamSpace,
            _db: &PerfDatabase,
            _rng: &mut SmallRng,
        ) -> Option<Config> {
            Some(vec![0, 0])
        }
    }

    #[test]
    fn duplicate_tolerance_is_configurable_serially() {
        let report = Tuner::new(space())
            .max_evals(50)
            .max_consecutive_duplicates(4)
            .run(&mut Stuck, bowl)
            .unwrap();
        assert_eq!(report.evals, 1);
        assert_eq!(report.cache.hits, 4, "stopped at the configured streak");
        assert_eq!(report.cache.misses, 1);
    }

    #[test]
    fn duplicate_tolerance_is_configurable_in_parallel() {
        let report = Tuner::new(space())
            .max_evals(50)
            .max_consecutive_duplicates(4)
            .run_parallel(&mut Stuck, 4, bowl)
            .unwrap();
        assert_eq!(report.evals, 1);
        assert_eq!(report.cache.hits, 4, "in-batch duplicates count too");
        assert_eq!(report.cache.misses, 1);
    }

    #[test]
    fn warm_start_suggestions_hit_the_cache() {
        let tiny = ParamSpace::new().with(Param::ints("x", 0..4));
        let mut prior = PerfDatabase::new();
        prior.record(vec![0], 0.0, HashMap::new());
        prior.record(vec![1], 1.0, HashMap::new());
        let report = Tuner::new(tiny)
            .max_evals(10)
            .warm_start(prior)
            .run(&mut ExhaustiveSearch::new(), |_, c| {
                (c[0] as f64, HashMap::new())
            })
            .unwrap();
        // The sweep re-suggests the two priors (hits) and evaluates the rest.
        assert_eq!(report.cache, CacheStats { hits: 2, misses: 2 });
        assert_eq!(report.evals, 2);
        assert_eq!(report.db.len(), 4);
    }

    #[test]
    fn unsatisfiable_space_is_an_error_not_a_panic() {
        let impossible = ParamSpace::new()
            .with(Param::ints("x", 0..3))
            .with_constraint("nothing allowed", |_, _| false);
        for workers in [None, Some(1), Some(4)] {
            let tuner = Tuner::new(impossible.clone()).max_evals(5);
            let err = match workers {
                None => tuner.run(&mut ExhaustiveSearch::new(), bowl),
                Some(w) => tuner.run_parallel(&mut ExhaustiveSearch::new(), w, bowl),
            }
            .unwrap_err();
            assert_eq!(
                err,
                TuneError::NoEvaluations {
                    algorithm: "exhaustive".into()
                }
            );
            assert!(err.to_string().contains("no evaluations"));
        }
    }

    #[test]
    fn every_fault_free_driver_populates_the_profile() {
        let tuner = Tuner::new(space()).max_evals(15).seed(4);
        let serial = tuner.run(&mut RandomSearch::new(), bowl).unwrap();
        let parallel = tuner
            .run_parallel(&mut RandomSearch::new(), 4, bowl)
            .unwrap();
        for (label, report) in [("run", &serial), ("run_parallel", &parallel)] {
            assert!(!report.profile.is_empty(), "{label}: profile populated");
            assert!(report.profile.wall_s > 0.0, "{label}: wall clock ran");
            assert_eq!(
                report.profile.stages["evaluate"].count, report.cache.misses,
                "{label}: one evaluate sample per real evaluation"
            );
            assert_eq!(report.profile.cache_hits, report.cache.hits, "{label}");
            assert_eq!(report.profile.cache_misses, report.cache.misses, "{label}");
            assert!(report.profile.stages.contains_key("suggest"), "{label}");
        }
    }

    #[test]
    fn profile_stays_out_of_the_canonical_json() {
        let report = Tuner::new(space())
            .max_evals(5)
            .seed(1)
            .run(&mut RandomSearch::new(), bowl)
            .unwrap();
        assert!(!report.profile.is_empty());
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            !json.contains("profile") && !json.contains("wall_s"),
            "profile must not leak into the replay-stable JSON"
        );
        let back: TuneReport = serde_json::from_str(&json).unwrap();
        assert!(back.profile.is_empty(), "deserialized profile is empty");
        assert_eq!(back.cache, report.cache);
        assert_eq!(back.best_config, report.best_config);
    }

    #[test]
    fn attached_collector_records_the_loop() {
        use std::sync::Arc;
        let collector = Arc::new(pstack_trace::TraceCollector::new());
        let report = Tuner::new(space())
            .max_evals(10)
            .seed(3)
            .with_trace(Arc::clone(&collector))
            .run_parallel(&mut RandomSearch::new(), 4, bowl)
            .unwrap();
        let trace = collector.snapshot();
        let root = trace
            .by_name("tuner.run_parallel")
            .next()
            .expect("root span recorded");
        assert_eq!(
            root.attr("algorithm"),
            Some(&AttrValue::Str("random".into()))
        );
        assert_eq!(root.attr("workers"), Some(&AttrValue::Int(4)));
        let evals: Vec<_> = trace.by_name("eval").collect();
        assert_eq!(evals.len(), report.cache.misses, "one span per real eval");
        for eval in &evals {
            assert_eq!(eval.parent, Some(root.id));
            assert!(eval.attr("worker").is_some());
            assert!(eval.attr("config").is_some());
            assert!(eval.attr("objective").is_some());
        }
        assert!(trace.by_name("suggest_batch").next().is_some());
    }

    #[test]
    fn tracing_never_changes_the_search_trajectory() {
        use std::sync::Arc;
        let collector = Arc::new(pstack_trace::TraceCollector::new());
        let untraced = Tuner::new(space())
            .max_evals(20)
            .seed(9)
            .run_parallel(&mut ForestSearch::new(), 4, bowl)
            .unwrap();
        let traced = Tuner::new(space())
            .max_evals(20)
            .seed(9)
            .with_trace(collector)
            .run_parallel(&mut ForestSearch::new(), 4, bowl)
            .unwrap();
        assert_eq!(untraced.db.observations(), traced.db.observations());
        assert_eq!(untraced.cache, traced.cache);
    }

    #[test]
    fn config_fingerprints_are_stable_and_distinct() {
        assert_eq!(
            config_fingerprint(&vec![1, 2]),
            config_fingerprint(&vec![1, 2])
        );
        assert_ne!(
            config_fingerprint(&vec![1, 2]),
            config_fingerprint(&vec![2, 1])
        );
        assert_eq!(config_fingerprint(&vec![1, 2]).len(), 16);
    }

    #[test]
    fn parallel_respects_budget_and_batch_size() {
        // Budget not divisible by batch size: the last round asks for the
        // remainder only.
        let report = Tuner::new(space())
            .max_evals(21)
            .batch_size(4)
            .seed(2)
            .run_parallel(&mut RandomSearch::new(), 8, bowl)
            .unwrap();
        assert_eq!(report.evals, 21);
        assert_eq!(report.db.len(), 21);
    }

    /// NaN on even `x`, +inf on `y == 9`, the bowl elsewhere.
    fn spiky(s: &ParamSpace, c: &Config) -> Evaluation {
        match (c[0] % 2, c[1]) {
            (_, 9) => (f64::INFINITY, HashMap::new()),
            (0, _) => (f64::NAN, HashMap::new()),
            _ => bowl(s, c),
        }
    }

    /// The bowl, raised 1000x on a fifth of the space.
    fn heavy_tailed(s: &ParamSpace, c: &Config) -> Evaluation {
        let (o, aux) = bowl(s, c);
        if (c[0] + c[1]).is_multiple_of(5) {
            (1000.0 * (o + 1.0), aux)
        } else {
            (o, aux)
        }
    }

    /// One result per public `run*` entry point over `f`, the pool drivers
    /// on `workers` threads.
    fn every_entry_point(
        tuner: &Tuner,
        workers: usize,
        f: fn(&ParamSpace, &Config) -> Evaluation,
    ) -> Vec<(&'static str, Result<TuneReport, TuneError>)> {
        struct Fixed(fn(&ParamSpace, &Config) -> Evaluation);
        impl BatchEvaluator for Fixed {
            fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> Evaluation {
                (self.0)(space, cfg)
            }
        }
        let robustness = crate::Robustness::default();
        vec![
            ("run", tuner.run(&mut RandomSearch::new(), f)),
            (
                "run_parallel",
                tuner.run_parallel(&mut RandomSearch::new(), workers, f),
            ),
            (
                "run_parallel_with",
                tuner.run_parallel_with(&mut RandomSearch::new(), &mut Fixed(f)),
            ),
            (
                "run_resilient",
                tuner.run_resilient(&mut RandomSearch::new(), None, &robustness, |s, c, _| {
                    Ok(f(s, c))
                }),
            ),
            (
                "run_parallel_resilient",
                tuner.run_parallel_resilient(
                    &mut RandomSearch::new(),
                    None,
                    &robustness,
                    workers,
                    |s, c, _| Ok(f(s, c)),
                ),
            ),
        ]
    }

    #[test]
    fn non_finite_objectives_are_quarantined_by_every_driver() {
        let tuner = Tuner::new(space()).max_evals(20).seed(13);
        for workers in [1, 4] {
            for (driver, report) in every_entry_point(&tuner, workers, spiky) {
                let report = report.unwrap_or_else(|e| panic!("{driver}/{workers}: {e}"));
                assert_eq!(report.cache.misses, report.evals, "{driver}/{workers}");
                assert!(
                    report
                        .db
                        .observations()
                        .iter()
                        .all(|o| o.objective.is_finite()),
                    "{driver}/{workers}: a non-finite objective was recorded"
                );
                let counts = report.faults.counts;
                assert!(counts.quarantined > 0, "{driver}/{workers}");
                assert!(
                    counts.non_finite >= counts.quarantined,
                    "{driver}/{workers}"
                );
            }
            let nan: fn(&ParamSpace, &Config) -> Evaluation = |_, _| (f64::NAN, HashMap::new());
            for (driver, report) in every_entry_point(&tuner, workers, nan) {
                assert!(
                    matches!(report, Err(TuneError::NoEvaluations { .. })),
                    "{driver}/{workers}: {report:?}"
                );
            }
        }
    }

    #[test]
    fn fault_free_drivers_never_screen_outliers() {
        let tuner = Tuner::new(space()).max_evals(40).seed(21);
        for (driver, report) in every_entry_point(&tuner, 2, heavy_tailed) {
            let report = report.expect("a clean objective completes");
            if driver.contains("resilient") {
                assert!(report.faults.counts.outliers > 0, "{driver} screens");
            } else {
                assert!(report.faults.is_clean(), "{driver}: {:?}", report.faults);
            }
        }
    }

    /// Minimal stateful evaluator for `run_parallel_with`: counts its
    /// evaluations and reports every call after the first as a reuse hit.
    struct BowlEvaluator {
        evals: usize,
    }

    impl BatchEvaluator for BowlEvaluator {
        fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> Evaluation {
            self.evals += 1;
            bowl(space, cfg)
        }

        fn reuse_hits(&self) -> usize {
            self.evals.saturating_sub(1)
        }
    }

    #[test]
    fn run_parallel_with_matches_run_parallel_byte_for_byte() {
        let closure = Tuner::new(space())
            .max_evals(20)
            .seed(11)
            .run_parallel(&mut ForestSearch::new(), 4, bowl)
            .unwrap();
        let mut ev = BowlEvaluator { evals: 0 };
        let batched = Tuner::new(space())
            .max_evals(20)
            .seed(11)
            .run_parallel_with(&mut ForestSearch::new(), &mut ev)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&closure).unwrap(),
            serde_json::to_string(&batched).unwrap()
        );
        // The amortized driver keeps the one-sample-per-miss invariant and
        // adds an `evaluate_many` stage covering each whole-round call.
        assert_eq!(
            batched.profile.stages["evaluate"].count,
            batched.cache.misses
        );
        assert!(batched.profile.stages.contains_key("evaluate_many"));
    }

    #[test]
    fn evaluate_many_spans_cover_batches() {
        use std::sync::Arc;
        let collector = Arc::new(pstack_trace::TraceCollector::new());
        let mut ev = BowlEvaluator { evals: 0 };
        let report = Tuner::new(space())
            .max_evals(10)
            .batch_size(4)
            .seed(3)
            .with_trace(Arc::clone(&collector))
            .run_parallel_with(&mut RandomSearch::new(), &mut ev)
            .unwrap();
        let trace = collector.snapshot();
        let root = trace
            .by_name("tuner.run_parallel")
            .next()
            .expect("root span recorded");
        assert_eq!(
            root.attr("dispatch"),
            Some(&AttrValue::Str("batched".into()))
        );
        let rounds: Vec<_> = trace.by_name("evaluate_many").collect();
        assert!(!rounds.is_empty(), "at least one round span");
        let mut batch_total = 0usize;
        for round in &rounds {
            assert_eq!(round.parent, Some(root.id));
            let Some(&AttrValue::Int(batch)) = round.attr("batch") else {
                panic!("evaluate_many span carries the batch size");
            };
            batch_total += usize::try_from(batch).unwrap();
            assert!(
                round.attr("reuse_hits").is_some(),
                "round reports arena reuse"
            );
        }
        assert_eq!(batch_total, report.cache.misses);
        // Per-evaluation spans parent to their round's evaluate_many span.
        let round_ids: Vec<_> = rounds.iter().map(|r| r.id).collect();
        let evals: Vec<_> = trace.by_name("eval").collect();
        assert_eq!(evals.len(), report.cache.misses, "one span per real eval");
        for eval in &evals {
            assert!(round_ids.contains(&eval.parent.expect("eval spans have parents")));
        }
    }
}
