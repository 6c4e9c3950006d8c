//! # pstack-node — node-level power management
//!
//! The node layer of the PowerStack (paper Table 2: "PlatformIO, Variorum,
//! Libmsr, PowerAPI, x86_adapt, Cpufreq"): a safe, uniform control/telemetry
//! surface over the simulated hardware that upper layers (runtimes, the
//! resource manager) actuate without touching raw model state.
//!
//! - [`signals`]: a Variorum-style typed signal catalog (`read(signal)`).
//! - [`manager`]: [`NodeManager`] — knob setters with bounds/ownership checks,
//!   power-history recording, per-step accounting.
//! - [`lockstep`]: [`Lockstep`] — one job's phase program across its nodes
//!   with MPI barrier semantics, one sub-step at a time, over any
//!   [`StepBackend`]; the kernel under every job driver (a running job's
//!   lanes with runtime agents, the tuning fast path's agent-free lanes,
//!   and the scalar reference nodes of `simulate_app`).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod invariants;
pub mod lockstep;
pub mod manager;
pub mod signals;

pub use invariants::invariants;
pub use lockstep::{barrier_mix, Activity, Imbalance, Lockstep, ScalarNodes, StepBackend, SubStep};
pub use manager::{idle_mix, NodeManager, NodeStepReport};
pub use signals::Signal;
