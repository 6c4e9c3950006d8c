//! # pstack-autotune — the auto-tuning framework (ytopt-like)
//!
//! Implements the paper's §3.2.3 autotuning loop (Figure 4): an autotuner
//! assigns values from a parameter space, an evaluator (the paper's `plopper`)
//! builds and runs the candidate, and the observed objective lands in a
//! performance database the search refines from. The same machinery drives the
//! cross-layer tuning of §3.1 — application knobs, system-software knobs and
//! power knobs are all just parameters.
//!
//! - [`space`]: typed discrete parameter spaces with READEX-ATP-style
//!   dependency constraints ("which combinations of parameters are not
//!   allowed").
//! - [`db`]: the performance database — every observation plus the
//!   best-so-far trajectory that Figure 4-style convergence plots need.
//! - [`search`]: search algorithms — random, grid/exhaustive, hill-climbing
//!   with restarts, simulated annealing, and a random-forest surrogate (the
//!   ytopt default).
//! - [`tuner`]: the loop itself — one round-based ask-tell loop behind
//!   every driver, with a configurable evaluation budget (`--max-evals` in
//!   ytopt terms).
//! - [`resilient`]: fault-tolerant drivers — bounded retry-with-backoff,
//!   quarantine of repeatedly failing configurations, graceful degradation
//!   to a fallback search when the database is poisoned.
//! - [`faultlog`]: the [`FaultLog`] carried by every [`TuneReport`] stating
//!   what was injected and what was survived.
//! - [`ckpt`]: crash-safe sessions — a write-ahead log of every evaluation,
//!   periodic full snapshots, and a `resume*` entry point for each of
//!   `run`, `run_parallel`, `run_resilient` and `run_parallel_resilient`
//!   that replays a killed session to a byte-identical [`TuneReport`].
//! - [`history_service`]: the shared performance-history bridge — warm
//!   starts from and recording to a `pstack-history` store (GPTune
//!   HistoryDB-style crowdtuning), plus the multi-session
//!   [`HistoryService`] ask-tell front-end.
//!
//! Every driver self-profiles into [`TuneReport::profile`] (per-stage
//! count/total/mean/p95, cache and retry attribution), and
//! [`Tuner::with_trace`] attaches a `pstack-trace` collector for full span
//! traces of the loop: one `eval` span per real evaluation (worker id,
//! config fingerprint, retry/fault verdicts) plus cache-hit, quarantine,
//! and degradation events on the root span.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod ckpt;
pub mod db;
pub mod faultlog;
pub mod history_service;
pub mod resilient;
pub mod search;
pub mod space;
pub mod tuner;

pub use ckpt::{
    CheckpointOpts, EvalRecord, ResilientSnapshot, SessionMeta, SessionSnapshot,
    SNAPSHOT_FORMAT_VERSION, WAL_FORMAT_VERSION,
};
pub use db::{Observation, PerfDatabase};
pub use faultlog::{FaultCounts, FaultEvent, FaultKind, FaultLog};
pub use history_service::{
    history_key, prior_from_history, record_report, space_shape, HistoryService, SessionSpec,
};
pub use resilient::{EvalError, RetryPolicy, Robustness};
pub use search::{
    shipped_algorithms, AnnealingSearch, ExhaustiveSearch, ForestSearch, HillClimbSearch,
    RandomSearch, SearchAlgorithm, SearchState,
};
pub use space::{Config, Param, ParamSpace, ParamValue};
pub use tuner::{
    config_fingerprint, BatchEvaluator, CacheStats, Evaluation, TuneError, TuneReport, Tuner,
};

// The tracing vocabulary used in this crate's public API, re-exported so
// downstream crates don't need a direct `pstack-trace` dependency to attach
// a collector or render a profile.
pub use pstack_trace::{ProfileSummary, StageStats, TraceCollector};
