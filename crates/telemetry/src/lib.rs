//! # pstack-telemetry — metrics and telemetry for the PowerStack
//!
//! Implements the measured and derived metrics the paper's §2.2 enumerates:
//! power (W), energy (J), execution time, operating frequency (Hz),
//! performance (FLOPS, IPC, IPS), power efficiency (FLOPS/W, IPC/W), energy
//! efficiency (EDP, ED²P, FLOPS/J, IPC/J) and node utilization — plus the
//! plumbing every layer of the stack uses to collect them:
//!
//! - [`series::TimeSeries`]: time-stamped samples with windowed statistics and
//!   exact step-wise integration (energy = ∫P dt).
//! - [`counters::CounterBank`]: monotone hardware-style performance counters
//!   with delta windows.
//! - [`sampler::PowerSampler`]: RAPL-style periodic power sampling, including
//!   the minimum-sampling-window rule the paper's §3.2.7 cites (≥100 samples
//!   / ≥100 ms regions for reliable energy attribution).
//! - [`derived`]: the derived efficiency metrics.
//! - [`agg`]: scalar and tree-hierarchical aggregation (GEOPM-style).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod agg;
pub mod counters;
pub mod derived;
pub mod metric;
pub mod sampler;
pub mod series;

pub use counters::{CounterBank, CounterDelta, CounterKind, CounterSnapshot};
pub use derived::{
    ed2p, edp, flops_per_joule, flops_per_watt, ipc, ipc_per_watt, EnergyIntegrator,
};
pub use metric::{Metric, MetricKind, Sample};
pub use sampler::{PowerSampler, SampleQuality};
pub use series::TimeSeries;
