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
//!   [`StepBackend`]; the kernel under both job drivers (scalar nodes with
//!   runtime agents, and the agent-free SoA lanes of the tuning fast path).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod invariants;
pub mod lockstep;
pub mod manager;
pub mod signals;

pub use invariants::invariants;
pub use lockstep::{Activity, Lockstep, StepBackend, SubStep};
pub use manager::{NodeManager, NodeStepReport};
pub use signals::Signal;
