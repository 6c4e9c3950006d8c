//! # pstack-sim — simulated time and deterministic seeds
//!
//! Foundation of the PowerStack simulator. Provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-microsecond simulated time, immune to
//!   floating-point drift over long horizons.
//! - [`rng`]: deterministic, component-splittable random number generation so
//!   every experiment is exactly reproducible from a single master seed.
//!
//! The rest of the workspace co-simulates continuous quantities (power, thermal,
//! application progress) by integrating across the intervals between discrete
//! events. The resource manager orders those events on its own heap and logs
//! its decisions in `pstack-rm`.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod rng;
pub mod time;

pub use rng::SeedTree;
pub use time::{SimDuration, SimTime};
