//! `pstack-trace`: structured tracing and self-profiling for the framework.
//!
//! This crate answers "what did the *framework* do and where did it spend
//! its time" — it is deliberately distinct from `pstack-telemetry`, which
//! models the paper's §2.2 *in-world* sensors (power, energy, thermals of
//! the simulated machine). A tuning run both simulates telemetry *and* can
//! be traced; only the former is part of an experiment's result.
//!
//! The pieces:
//!
//! - [`Span`] / [`Event`] — the data model: stable ids, parent links,
//!   monotonic + wall-clock timestamps, typed attributes;
//! - [`TraceCollector`] — a bounded, lock-cheap ring-buffer sink; span
//!   guards accumulate locally and flush with one lock at close;
//! - [`export`] — human-readable tree ([`render_tree`]) and the one file
//!   format, lossless Chrome `trace_event` JSON
//!   ([`to_chrome`]/[`from_chrome`]) that opens in `chrome://tracing` or
//!   Perfetto;
//! - [`ProfileSummary`] / [`ProfileBuilder`] — per-stage count / total /
//!   mean / p95 timing with cache and retry attribution, embedded in
//!   `TuneReport` by `pstack-autotune`;
//! - the `pstack_trace` binary — render, summarize, and diff trace files.
//!
//! Zero dependencies (not even the vendored stand-ins): every crate in the
//! workspace can depend on it without cycles, and the exporters carry their
//! own minimal JSON codec ([`json`]).
//!
//! # Example
//!
//! ```
//! use pstack_trace::{render_tree, to_chrome, TraceCollector};
//!
//! let collector = TraceCollector::new();
//! {
//!     let mut run = collector.span("tuner.run");
//!     run.attr("algorithm", "random");
//!     let mut eval = run.child("eval");
//!     eval.attr("worker", 0usize);
//!     eval.event("cache_hit");
//! }
//! let trace = collector.snapshot();
//! assert_eq!(trace.len(), 2);
//! assert!(render_tree(&trace).contains("tuner.run"));
//! assert!(to_chrome(&trace).starts_with("{\"traceEvents\""));
//! ```

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod collector;
pub mod export;
pub mod json;
pub mod profile;
pub mod span;

pub use collector::{SpanGuard, Trace, TraceCollector};
pub use export::{from_chrome, render_tree, to_chrome};
pub use profile::{ProfileBuilder, ProfileSummary, StageStats};
pub use span::{hash64, AttrValue, Event, Span, SpanId};
