//! # pstack-rm — power-aware resource management
//!
//! The system layer of the PowerStack (paper Table 2: "SLURM, FLUX, PBS,
//! ..."). Two resource managers are provided:
//!
//! - [`scheduler`]: a SLURM-like power-aware batch scheduler — FCFS with EASY
//!   backfill, moldable jobs, a system power budget with per-job power
//!   assignment, job-attached runtime systems, and full accounting (job
//!   records, throughput, utilization, energy).
//! - [`irm`]: an IRM-like *invasive* resource manager (§3.2.5, Figure 6) that
//!   keeps system power inside a corridor by dynamically redistributing
//!   nodes among malleable EPOP applications, with power capping and DVFS as
//!   fallback strategies.
//!
//! Shared pieces: [`spec`] (job specifications and runtime-attachment kinds),
//! [`policy`] (site/system power policies) and [`decision`] (the typed log
//! of what both managers decided).
//!
//! The scheduler drains either per-tick (the reference oracle) or
//! event-driven over [`events::EventHeap`]; [`fleet`] composes independent
//! per-enclave schedulers into a site with budget sharding and a GEOPM-style
//! aggregation tree.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod decision;
pub mod events;
pub mod fleet;
pub mod invariants;
pub mod irm;
pub mod policy;
pub mod scheduler;
pub mod spec;

pub use decision::{Decision, DecisionLog};
pub use events::{EventHeap, EventKind, ScheduledEvent};
pub use fleet::{shard_budgets, Enclave, EnclaveSet, SiteMetrics};
pub use invariants::invariants;
pub use irm::{CorridorStrategy, Irm, IrmReport};
pub use policy::{PowerAssignment, SystemPowerPolicy};
pub use scheduler::{EmergencyResponse, JobRecord, NodeSelection, Scheduler, SchedulerMetrics};
pub use spec::{AgentKind, JobId, JobSpec};
