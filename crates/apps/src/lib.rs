//! # pstack-apps — application models
//!
//! Simulated stand-ins for the applications the paper's use cases tune
//! (DESIGN.md substitution table):
//!
//! - [`workload`]: the common representation — an application is a sequence of
//!   named [`workload::Phase`]s, each a [`pstack_hwmodel::PhaseMix`] plus an
//!   amount of work; loops are expressed by repetition.
//! - [`mpi`]: communication scaling and load-imbalance model (α–β style comm
//!   fraction growth, per-rank imbalance) — what COUNTDOWN and GEOPM's power
//!   balancer exploit.
//! - [`hypre`]: a Hypre-like linear-solver configuration space (solver ×
//!   preconditioner × smoother × coarsening) with a convergence model, built
//!   so the best configuration *moves* under a power cap (use case §3.2.1).
//! - [`feti`]: an ESPRESO-FETI-like region-instrumented solver (Figure 5) with
//!   heterogeneous region characteristics for MERIC tuning (§3.2.4, §3.2.7).
//! - [`lulesh`]: a LULESH-like malleable proxy with the cubic-task-count
//!   constraint (§3.2.5).
//! - [`kernelmodel`]: a tiled-loop kernel cost model (tile sizes, interchange,
//!   unroll, threads) for the ytopt autotuning loop (§3.2.3, Figure 4).
//! - [`epop`]: Elastic Phase-Oriented Programming hooks — phase boundaries at
//!   which an app reports progress and accepts resource redistribution.
//! - [`synthetic`]: randomized phase-sequence generators for workload mixes.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod epop;
pub mod feti;
pub mod hypre;
pub mod invariants;
pub mod kernelmodel;
pub mod lulesh;
pub mod mpi;
pub mod synthetic;
pub mod workload;

pub use epop::{EpopApp, PhaseHint};
pub use feti::{FetiConfig, FetiPreconditioner, FetiSolverKind};
pub use hypre::{HypreConfig, HypreProblem, Preconditioner, Smoother, SolverKind};
pub use invariants::invariants;
pub use kernelmodel::{KernelConfig, KernelModel};
pub use lulesh::Lulesh;
pub use mpi::MpiModel;
pub use workload::{AppModel, NodeCountRule, Phase, Workload};
