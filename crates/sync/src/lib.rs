//! # pstack-sync — the instrumented synchronization layer
//!
//! The PowerStack's core claim is safe *concurrent* coordination across
//! layers (RM ↔ GEOPM ↔ runtime agents), and this workspace has real
//! shared-state concurrency to match: the `run_parallel*` worker pools and
//! their slot vectors, the eval-cache/quarantine ledgers, the bounded trace
//! ring, WAL appends, and the session supervisor. None of that should rely
//! on raw `std::sync` primitives sprinkled across crates — this crate is
//! the single, auditable home for synchronization in library code
//! (`clippy.toml`'s `disallowed-types` rejects raw primitives anywhere
//! else).
//!
//! Three pieces, in the spirit of loom/TSan but pure-Rust and offline:
//!
//! - [`primitives`]: drop-in [`SyncMutex`]/[`SyncRwLock`]/[`SyncCondvar`]/
//!   [`SyncAtomicUsize`]/[`SyncAtomicU64`] wrappers over `std::sync`. Every
//!   instance carries a static *site label* (see [`sites`]). Locking is
//!   **poison-tolerant** by construction: a panicked worker never cascades
//!   a `PoisonError` panic into an unrelated thread — the guard recovers
//!   the inner value (`PoisonError::into_inner`), matching the workspace
//!   rule that each evaluation's outcome is independent of its neighbours.
//! - [`chaos`]: a process-wide, seed-armed perturbation mode. While armed
//!   (RAII [`ChaosGuard`](chaos::ChaosGuard)), every acquisition records
//!   into a per-thread lock stack and the global lock-order
//!   [`graph`], detects lock-order inversions and
//!   held-across-[`Condvar`](std::sync::Condvar)/long-critical-section
//!   smells, and injects deterministic seeded yields/backoff so different
//!   seeds exercise genuinely different thread interleavings. Disarmed
//!   (the default), the overhead is one relaxed atomic load per operation.
//! - [`explore`]: the deterministic schedule explorer — re-run a driver
//!   across a seeded grid of adversarial yield schedules × worker counts,
//!   assert every arm reproduces the baseline artifact byte-for-byte, and
//!   export the observed lock-order graph (the `results/lockorder.json`
//!   artifact).
//!
//! The declared lock hierarchy lives in [`sites`]: every site carries its
//! rank and the sites it may acquire while held. `pstack-analyze`'s PSA017
//! checks that relation is rank-consistent and acyclic.

// This crate is the one place raw std::sync primitives are allowed in
// library code; the clippy disallowed-types and disallowed-methods entries
// that ban them (and Mutex::lock/RwLock::read/RwLock::write) elsewhere are
// opted out here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod chaos;
pub mod explore;
pub mod graph;
pub mod primitives;
pub mod sites;

pub use chaos::{arm, armed, ChaosGuard};
pub use explore::{explore, Exploration, SeedGrid};
pub use graph::{Inversion, LockOrderGraph, Smell, SmellKind};
pub use primitives::{
    SyncAtomicU64, SyncAtomicUsize, SyncCondvar, SyncMutex, SyncMutexGuard, SyncRwLock,
    SyncRwLockReadGuard, SyncRwLockWriteGuard,
};
pub use sites::{SiteDecl, SiteKind};

// Re-exported so caller crates can name memory orderings without importing
// from `std::sync::atomic`, the home of the banned raw atomics.
pub use std::sync::atomic::Ordering;
