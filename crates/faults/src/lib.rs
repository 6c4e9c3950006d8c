//! # pstack-faults — seeded fault injection across the PowerStack layers
//!
//! The paper's framework (Wu et al., CLUSTER 2020) assumes a cooperative
//! stack: telemetry arrives, knobs actuate, runtimes stay up, evaluations
//! return numbers. Real PowerStack deployments violate every one of those
//! assumptions — sensors glitch, RAPL writes stick, agents segfault, the RM
//! slashes the site budget mid-job (§3.2.5), and auto-tuning evaluations
//! hang or return garbage. This crate makes those violations *injectable,
//! seeded, and deterministic*, so the tuning loop's robustness machinery
//! ([`pstack_autotune::Tuner::run_resilient`] /
//! [`run_parallel_resilient`](pstack_autotune::Tuner::run_parallel_resilient))
//! can be exercised and regression-tested instead of trusted.
//!
//! ## Pieces
//!
//! | Item | Role |
//! |------|------|
//! | [`FaultDice`] | Stateless decision source: every fault outcome is a pure function of `(seed, stream, key, attempt)` |
//! | [`FaultPlan`] | Declarative plan: telemetry, knob, agent, emergency, and evaluation fault rates, with presets and a [`FaultPlan::catalog`] |
//! | [`FaultInjector`] | Read-path (power-sample) and write-path (knob-actuation) injection with envelope clamping |
//! | [`CrashyAgent`] | Wraps any [`RuntimeAgent`](pstack_runtime::RuntimeAgent) with deterministic crash/restart behaviour |
//! | [`FaultyEvaluator`] | Wraps a clean tuning evaluator with failures, timeouts, NaNs, and slowdowns |
//! | [`run_faulted_job`] | Stack-level scenario: a whole job under a plan, with an RM emergency drop state machine |
//! | [`SessionSupervisor`] | Kills the checkpointed tuning process itself (plan `process` class) and restarts it from its write-ahead checkpoint, within a bounded restart budget |
//!
//! Everything a run survives lands in a [`FaultLog`](pstack_autotune::FaultLog)
//! (re-exported here for convenience), which [`TuneReport`](pstack_autotune::TuneReport)
//! carries and `results/ext_faults.*` renders.
//!
//! ## Determinism contract
//!
//! Same `(seed, plan)` ⇒ identical fault sequence, identical outcome, and —
//! through the resilient tuning loop — byte-identical serialized reports on
//! any worker count. The chaos suite (`tests/chaos_tuning.rs`) asserts this.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod dice;
pub mod evaluator;
pub mod fleet;
pub mod inject;
pub mod plan;
pub mod scenario;
pub mod supervise;

pub use dice::FaultDice;
pub use evaluator::FaultyEvaluator;
pub use fleet::{
    fleet_fingerprint, ActuatorFaults, DropoutFaults, EnclaveOutage, FleetCheckpoint,
    FleetFaultPlan, FleetInjector, FleetSuperviseError, FleetSupervisedRun, FleetSupervisor,
    JobFaults, NodeFaults, FLEET_LAYER,
};
pub use inject::{CrashyAgent, FaultInjector, KnobWrite};
pub use plan::{
    AgentFaults, EmergencyFault, EvalFaults, FaultPlan, KnobFaults, ProcessFaults, TelemetryFaults,
    LAYER,
};
pub use scenario::{run_faulted_job, FaultedJobOutcome, MAX_SIM_S};
pub use supervise::{
    RecoveryEvent, RecoveryLog, SessionSupervisor, SuperviseError, SupervisedReport,
    SupervisorConfig,
};

// Re-export the log types that live in pstack-autotune (so TuneReport can
// carry them without a dependency cycle) under the crate users reach for.
pub use pstack_autotune::{
    EvalError, FaultCounts, FaultEvent, FaultKind, FaultLog, RetryPolicy, Robustness,
};
