//! # pstack-runtime — job-level runtime systems
//!
//! The job/runtime layer of the PowerStack (paper Table 2: "GEOPM, READEX,
//! Conductor, Uncore power scavenger, and COUNTDOWN"). This crate provides:
//!
//! - [`exec`]: the execution substrate — [`exec::JobRunner`] co-simulates an
//!   application's phase sequence across the job's nodes on `pstack-node`'s
//!   lockstep kernel (MPI barrier semantics, load imbalance), firing runtime
//!   hooks at region entries and control intervals.
//! - [`agent`]: the [`agent::RuntimeAgent`] trait every runtime implements,
//!   plus the [`agent::ArbitratedNodes`] control facade.
//! - [`arbiter`]: knob-ownership arbitration so two runtimes can co-exist
//!   without conflicting actuation (use case §3.2.7).
//! - [`geopm`]: a GEOPM-like runtime — tree-aggregated telemetry, plugin
//!   agents (monitor, power governor, power balancer, frequency map,
//!   energy-efficient) and an RM endpoint (§3.2.2, Figure 3).
//! - [`conductor`]: a Conductor-like runtime — configuration exploration then
//!   adaptive power reallocation under a job power bound (§3.2.1).
//! - [`countdown`]: a COUNTDOWN-like runtime — frequency reduction inside MPI
//!   phases, performance-neutral by construction (§3.2.6).
//! - [`meric`]: a MERIC/READEX-like runtime — per-region dynamic tuning from
//!   instrumented region boundaries (§3.2.4).
//! - [`scavenger`]: an Uncore-Power-Scavenger-like runtime (Table 2) —
//!   bandwidth-driven uncore frequency reclamation.
//! - [`dutycycle`]: an adaptive clock-modulation runtime (Table 1's duty
//!   cycle knob; Bhalachandra et al.) — early-arriving ranks run at reduced
//!   duty cycle.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod agent;
pub mod arbiter;
pub mod conductor;
pub mod countdown;
pub mod dutycycle;
pub mod exec;
pub mod geopm;
pub mod invariants;
pub mod meric;
pub mod scavenger;

pub use agent::{ArbitratedNodes, JobTelemetry, KnobKind, RuntimeAgent};
pub use arbiter::{Arbiter, ArbiterMode};
pub use conductor::Conductor;
pub use countdown::{Countdown, CountdownMode};
pub use dutycycle::DutyCycleAdapter;
pub use exec::{JobResult, JobRunner};
pub use geopm::{Geopm, GeopmPolicy};
pub use invariants::invariants;
pub use meric::Meric;
pub use scavenger::UncoreScavenger;
