//! Shared performance-history database — crowdtuning storage.
//!
//! Every tuning session in this workspace used to be an island: the
//! `pstack-ckpt` WAL persists *one* session, the E4 warm start needs the
//! caller to carry a prior database by hand, and the eval cache dies with
//! the process. GPTune's HistoryDB names the missing piece: a persistent,
//! shared store of every evaluation ever made, reused across campaigns
//! ("re-using autotuning data", "crowdtuning", "checkpointing and
//! restarting"). This crate is that store:
//!
//! - **Keyed by `(space fingerprint, app, objective)`** ([`HistoryKey`]).
//!   The space fingerprint is *canonical* ([`SpaceShape::fingerprint`]):
//!   invariant under parameter reordering, so two campaigns that declare
//!   the same knobs in a different order still share history.
//! - **Sharded, append-only on-disk layout** ([`HistoryStore`]): records
//!   hash to one of N shard files by key, each shard a `pstack-ckpt`
//!   frame log (checksummed length-prefixed JSON) — a torn or bit-flipped
//!   tail loses at most the damaged suffix, never the store.
//! - **Safe concurrent writers.** In-process appends serialize on a
//!   [`pstack_sync`] mutex (site `history.shard`, declared in the lock
//!   hierarchy); cross-process appends additionally take a per-shard
//!   advisory lock file, so many sessions — even in different processes —
//!   can record into one store directory.
//! - **Queries decode only what is new.** Each handle keeps one decoded
//!   view per shard, shared with its clones (site `history.cache`). Every
//!   query and append walks the shard file again and re-checks every
//!   frame's checksum, so a handle answers exactly as a freshly opened one
//!   would, whatever other handles, processes or torn writes did in
//!   between; only frames after the leading run that is unchanged since
//!   its last walk are JSON-decoded. [`HistoryStore::best_k`] reads a
//!   best-per-configuration index kept in append order.
//! - **Compaction** ([`HistoryStore::compact`]) dedupes by configuration
//!   fingerprint (keeping the best observation per config) and rewrites
//!   shards atomically; it is idempotent and never drops the best-seen
//!   configuration.
//! - **Query API**: [`HistoryStore::best_k`], [`HistoryStore::stats`],
//!   [`HistoryStore::matching_space`] — deterministic regardless of the
//!   interleaving that produced the shards, which is what lets
//!   `pstack-autotune` pre-seed `warm_start`, the surrogate, and the eval
//!   cache from them reproducibly.
//!
//! The schema is linted by `pstack-analyze`'s PSA019 (fingerprint
//! stability, shard-count bounds, no two apps sharing a key).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod key;
pub mod store;

pub use key::{
    canonical_space_fingerprint, config_fingerprint, HistoryKey, SpaceParam, SpaceShape,
    HISTORY_FORMAT_VERSION,
};
pub use store::{CompactionReport, HistoryError, HistoryRecord, HistoryStats, HistoryStore};
