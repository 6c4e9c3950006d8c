//! # pstack-hwmodel — simulated node hardware
//!
//! First-order models of the hardware controls and telemetry the PowerStack
//! actuates (paper Table 1, node layer). This crate is the substitute for the
//! real RAPL/MSR/NVML substrate (see DESIGN.md substitution table):
//!
//! - [`pstate`]: core P-state (DVFS) and uncore frequency ladders with a V-f
//!   curve, plus clock (duty-cycle) modulation levels.
//! - [`phase`]: application phase kinds (compute-, memory-, comm-, I/O-bound)
//!   and the roofline-style performance-rate model `rate = f(freq, uncore, phase)`.
//! - [`power`]: the CMOS power model `P = P_idle + Σ c·V²·f·activity` plus DRAM
//!   and uncore terms.
//! - [`thermal`]: lumped-RC package thermal model with Tj_max throttling.
//! - [`variation`]: per-package manufacturing variation (power at iso-frequency
//!   varies chip to chip — why variation-aware allocation matters, §3.1.1).
//! - [`cap`]: RAPL-style windowed power-cap controller that clips the P-state
//!   to honour a watts budget over a time window.
//! - [`package`] / [`node`]: composition into sockets and nodes, with exact
//!   energy integration and performance-counter updates per simulation step.
//! - [`batch`]: batched stepping of many nodes over flat package lanes —
//!   the node engine of running jobs and of the evaluation fast path,
//!   bit-identical to the scalar node.
//!
//! All models are deliberately first-order but preserve the monotone trade-offs
//! every surveyed tuner exploits: higher frequency → more power, superlinearly;
//! memory-bound phases gain little from core frequency; communication slack
//! gains nothing; capping power costs performance only once it binds.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod batch;
pub mod cap;
pub mod invariants;
pub mod node;
pub mod package;
pub mod phase;
pub mod power;
pub mod pstate;
pub mod thermal;
pub mod variation;

pub use batch::{NodeBatch, PackageBatch};
pub use cap::{PowerCap, RaplWindow};
pub use invariants::{invariants, power_envelope, PowerEnvelope};
pub use node::{Node, NodeConfig, NodeId, StepOutput};
pub use package::{Package, PackageConfig};
pub use phase::{PhaseKind, PhaseMix, SpeedModel};
pub use power::PowerModel;
pub use pstate::{DutyCycle, FreqLadder, PStateTable};
pub use thermal::ThermalModel;
pub use variation::VariationModel;
