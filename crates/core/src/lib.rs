//! # powerstack-core — the end-to-end auto-tuning framework
//!
//! This crate is the paper's primary contribution realized as code: the
//! layer model, standardized interfaces, knob registry, objective
//! translation, and the co-tuning orchestration that drives every
//! experiment.
//!
//! - [`vocab`] — Table 3's term definitions as a typed, renderable catalog.
//! - [`registry`] — Table 1's per-layer parameters and methods as a live
//!   knob registry, each row backed by an implemented control.
//! - [`catalog`] — Table 2's software components mapped to this workspace's
//!   implemented analogs.
//! - [`interfaces`] — the standardized cross-layer traits the paper calls
//!   for: power budget acceptance, telemetry reporting, objective handling.
//! - [`translate`] — objective translation down the stack (site → system →
//!   job → node), the paper's §3.1.4 worked example.
//! - [`framework`] — the Figure 1 end-to-end wiring: site policy into
//!   resource manager into job runtimes into node controls, packaged as a
//!   configurable experiment scenario.
//! - [`cotune`] — cross-layer parameter-space construction and tuning using
//!   `pstack-autotune` over simulated scenarios (§3.1, §4.4).
//! - [`arena`] — the reusable batched evaluation arena: reset-in-place
//!   scenario state over `pstack-hwmodel`'s batched node lanes,
//!   bit-identical to the scalar `simulate_app` oracle.
//! - [`experiments`] — one module per paper table/figure/use case, each
//!   regenerating the corresponding result (see DESIGN.md's index).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod arena;
pub mod catalog;
pub mod cotune;
pub mod experiments;
pub mod framework;
pub mod interfaces;
pub mod registry;
pub mod translate;
pub mod vocab;

pub use arena::EvalArena;
pub use catalog::{component_catalog, CatalogEntry};
pub use framework::{Scenario, ScenarioResult, TuningLevel};
pub use interfaces::{Objective, PowerBudget};
pub use registry::{knob_registry, Actor, Knob, Layer, Temporal};
pub use translate::ObjectiveTranslator;
pub use vocab::{vocabulary, Term};
