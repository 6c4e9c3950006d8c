//! # powerstack — an end-to-end auto-tuning framework for the HPC PowerStack
//!
//! A simulation-backed, full-stack reproduction of *"Toward an End-to-End
//! Auto-tuning Framework in HPC PowerStack"* (Wu et al., IEEE CLUSTER 2020):
//! every layer of the PowerStack — simulated node hardware with RAPL-style
//! power management, a SLURM-like power-aware resource manager, GEOPM-,
//! Conductor-, COUNTDOWN- and MERIC-like job runtimes, application models
//! (Hypre-, FETI-, LULESH-like), and a ytopt-like autotuner — wired together
//! by the cross-layer interfaces and co-tuning orchestration the paper
//! proposes.
//!
//! ## Quickstart
//!
//! ```
//! use powerstack::prelude::*;
//!
//! // A compute-heavy job on two simulated nodes under a 300 W/node cap.
//! let app = SyntheticApp::new(Profile::ComputeHeavy, 10.0, 5);
//! let (time_s, energy_j, work) = simulate_app(&app, 2, Some(300.0), 42);
//! assert!(time_s > 0.0 && energy_j > 0.0 && work > 0.0);
//! ```
//!
//! ## Layer map (paper Figure 1 → crates)
//!
//! | Layer | Crate |
//! |---|---|
//! | Site / System (RM) | [`rm`] (`pstack-rm`) |
//! | Job / Runtime | [`runtime`] (`pstack-runtime`) |
//! | Application | [`apps`] (`pstack-apps`) |
//! | Node management | [`node`] (`pstack-node`) |
//! | Hardware | [`hwmodel`] (`pstack-hwmodel`) |
//! | Auto-tuning | [`autotune`] (`pstack-autotune`) |
//! | End-to-end framework | [`core`] (`powerstack-core`) |
//! | Diagnostics model | [`diag`] (`pstack-diag`) |
//! | Static analysis / lint | [`analyze`] (`pstack-analyze`) |
//! | Fault injection / chaos | [`faults`] (`pstack-faults`) |
//! | Framework tracing / self-profiling | [`trace`] (`pstack-trace`) |
//!
//! See `DESIGN.md` for the substitution table (what each simulated substrate
//! stands in for) and `EXPERIMENTS.md` for the paper-vs-measured record.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub use powerstack_core as core;
pub use pstack_analyze as analyze;
pub use pstack_apps as apps;
pub use pstack_autotune as autotune;
pub use pstack_diag as diag;
pub use pstack_faults as faults;
pub use pstack_history as history;
pub use pstack_hwmodel as hwmodel;
pub use pstack_node as node;
pub use pstack_rm as rm;
pub use pstack_runtime as runtime;
pub use pstack_sim as sim;
pub use pstack_sync as sync;
pub use pstack_telemetry as telemetry;
pub use pstack_trace as trace;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::core::cotune::{simulate_app, HypreCoTune, KernelCoTune};
    pub use crate::core::{
        knob_registry, vocabulary, Objective, PowerBudget, Scenario, ScenarioResult, TuningLevel,
    };
    pub use pstack_apps::epop::EpopApp;
    pub use pstack_apps::hypre::{HypreApp, HypreConfig, HypreProblem};
    pub use pstack_apps::kernelmodel::{KernelConfig, KernelModel};
    pub use pstack_apps::synthetic::{random_app, Profile, SyntheticApp};
    pub use pstack_apps::workload::{AppModel, NodeCountRule, Phase, Workload};
    pub use pstack_apps::{Lulesh, MpiModel};
    pub use pstack_autotune::{
        AnnealingSearch, ExhaustiveSearch, FaultLog, ForestSearch, HillClimbSearch, Param,
        ParamSpace, RandomSearch, RetryPolicy, Robustness, Tuner,
    };
    pub use pstack_faults::{run_faulted_job, FaultPlan, FaultyEvaluator};
    pub use pstack_hwmodel::{Node, NodeConfig, NodeId, PhaseKind, PhaseMix, VariationModel};
    pub use pstack_node::{NodeManager, Signal};
    pub use pstack_rm::{
        AgentKind, CorridorStrategy, Irm, JobSpec, PowerAssignment, Scheduler, SystemPowerPolicy,
    };
    pub use pstack_runtime::{
        ArbiterMode, Conductor, Countdown, CountdownMode, Geopm, GeopmPolicy, JobRunner, Meric,
        RuntimeAgent,
    };
    pub use pstack_sim::{SeedTree, SimDuration, SimTime};
    pub use pstack_trace::{ProfileSummary, TraceCollector};
}
