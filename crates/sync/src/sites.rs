//! The canonical registry of synchronization sites.
//!
//! Every [`SyncMutex`](crate::SyncMutex)/atomic in workspace library code
//! is constructed with one of these labels. Each entry also declares its
//! place in the lock hierarchy — a [`SiteDecl::rank`] and the sites it
//! [`SiteDecl::may_acquire`] while held — so a site cannot exist without
//! one. `pstack-analyze`'s PSA017 checks the declared relation is a
//! rank-consistent DAG; at runtime the schedule explorer asserts that every
//! *observed* site is declared here, and the concurrency audit holds every
//! observed edge to the declared ranks, so the registry cannot silently
//! drift from reality.
//!
//! Memory-ordering rationale for atomic sites lives on each
//! [`SiteDecl::ordering`] entry (and as a comment at the construction
//! site); the schedule-explorer grid in `tests/concurrency_audit.rs` is
//! what lets the `Relaxed` choices below claim "proven schedule-invariant"
//! rather than "probably fine".

/// What kind of primitive a site labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A [`SyncMutex`](crate::SyncMutex) (participates in the lock-order
    /// graph and the declared hierarchy).
    Mutex,
    /// A [`SyncRwLock`](crate::SyncRwLock).
    RwLock,
    /// A [`SyncCondvar`](crate::SyncCondvar).
    Condvar,
    /// A [`SyncAtomicUsize`](crate::SyncAtomicUsize) /
    /// [`SyncAtomicU64`](crate::SyncAtomicU64) — never *held*, so it takes
    /// no part in inversion detection, but acquisitions are still counted
    /// and perturbed under chaos.
    Atomic,
}

/// One declared synchronization site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteDecl {
    /// Stable label, e.g. `"trace.ring"`. Dotted: `<crate area>.<object>`.
    pub label: &'static str,
    /// Primitive kind.
    pub kind: SiteKind,
    /// Owning crate (for diagnostics).
    pub owner: &'static str,
    /// Hierarchy rank: a site may only acquire sites of *strictly greater*
    /// rank while held (outer locks rank lower than inner locks).
    pub rank: u32,
    /// Sites this one is permitted to acquire while held.
    pub may_acquire: &'static [&'static str],
    /// For atomics: the memory-ordering choice and why it is sufficient.
    /// For locks: what the critical section protects.
    pub ordering: &'static str,
}

/// The bounded span ring inside `pstack_trace::TraceCollector` — taken once
/// per span close (flush) and on snapshot/drain.
pub const TRACE_RING: &str = "trace.ring";
/// Process-wide small-integer thread-id allocator in `pstack-trace`.
pub const TRACE_TID: &str = "trace.tid";
/// Per-collector span-id allocator in `pstack-trace`.
pub const TRACE_SPAN_ID: &str = "trace.span_id";
/// The work-queue cursor the `fan_out` worker pool claims indices from.
pub const POOL_CURSOR: &str = "autotune.pool.cursor";
/// One result slot per fresh configuration in the `fan_out` worker pool.
pub const POOL_SLOT: &str = "autotune.pool.slot";
/// The scratch-directory uniquifier in `pstack-ckpt`.
pub const CKPT_SCRATCH: &str = "ckpt.scratch_counter";
/// The cross-incarnation kill counter in `pstack_faults::SessionSupervisor`.
pub const FAULTS_KILLS: &str = "faults.supervisor.kills";
/// The slow-evaluation counter in `pstack_faults::FaultyEvaluator`.
pub const FAULTS_SLOWDOWNS: &str = "faults.evaluator.slowdowns";
/// One shard's decoded view in a `pstack_history::HistoryStore` handle.
pub const HISTORY_CACHE: &str = "history.cache";
/// The in-process append/compaction gate in `pstack_history::HistoryStore`.
pub const HISTORY_SHARD: &str = "history.shard";
/// The processed-event counter in `pstack_rm::fleet::EnclaveSet`.
pub const RM_EVENTS: &str = "rm.events";
/// The site aggregation tree in `pstack_rm::fleet::EnclaveSet`.
pub const RM_SITE_TREE: &str = "rm.site_tree";

/// Every declared site, in stable label order. The permitted while-held
/// acquisitions are worker-pool slot → trace ring (a worker may flush a
/// span while publishing its result) and history shard gate → shard view
/// (an append absorbs other writers' frames before writing); every other
/// site is a leaf.
pub fn all() -> &'static [SiteDecl] {
    &[
        SiteDecl {
            label: POOL_CURSOR,
            kind: SiteKind::Atomic,
            owner: "pstack-autotune",
            rank: 10,
            may_acquire: &[],
            ordering: "Relaxed fetch_add: a pure index dispenser. Each index is claimed by \
                       exactly one worker because fetch_add is atomic regardless of ordering; \
                       the claimed slot's *contents* are published by the scoped-thread join, \
                       not by this counter, so no acquire/release pairing is needed.",
        },
        SiteDecl {
            label: POOL_SLOT,
            kind: SiteKind::Mutex,
            owner: "pstack-autotune",
            rank: 20,
            may_acquire: &[TRACE_RING],
            ordering: "Protects one evaluation result. Held only for the final store; the \
                       read side uses get_mut after the scope joins, so contention is \
                       impossible by construction and poisoning is recovered.",
        },
        SiteDecl {
            label: CKPT_SCRATCH,
            kind: SiteKind::Atomic,
            owner: "pstack-ckpt",
            rank: 40,
            may_acquire: &[],
            ordering: "Relaxed fetch_add: a process-unique directory suffix. Uniqueness \
                       needs atomicity only; no other memory is published through it.",
        },
        SiteDecl {
            label: FAULTS_SLOWDOWNS,
            kind: SiteKind::Atomic,
            owner: "pstack-faults",
            rank: 41,
            may_acquire: &[],
            ordering: "Relaxed fetch_add/load: a monotone statistics counter read after \
                       the evaluation pool has joined (the join is the synchronization \
                       point), so no ordering stronger than Relaxed adds anything.",
        },
        SiteDecl {
            label: FAULTS_KILLS,
            kind: SiteKind::Atomic,
            owner: "pstack-faults",
            rank: 42,
            may_acquire: &[],
            ordering: "Relaxed load + fetch_add (downgraded from SeqCst): the interrupt \
                       hook runs only on the driver thread, one incarnation at a time, so \
                       the check-then-increment is single-threaded in practice; the \
                       schedule-explorer grid asserts kill schedules stay byte-identical \
                       across adversarial interleavings.",
        },
        SiteDecl {
            label: HISTORY_CACHE,
            kind: SiteKind::Mutex,
            owner: "pstack-history",
            rank: 46,
            may_acquire: &[],
            ordering: "Protects one shard's decoded view (frame checksums, decoded records, \
                       best-per-config index) shared by a store handle and its clones. Held \
                       for one checksum walk of the shard file plus the query or refresh \
                       that reads it; never across fdatasync or the lock-file wait. Leaf \
                       lock: nothing else is acquired while it is held.",
        },
        SiteDecl {
            label: HISTORY_SHARD,
            kind: SiteKind::Mutex,
            owner: "pstack-history",
            rank: 45,
            may_acquire: &[HISTORY_CACHE],
            ordering: "Serializes every store append/compaction in this process so a shard \
                       log sees one in-process writer at a time. While held it takes the \
                       cross-process advisory lock file, the handle's history.cache view \
                       lock (to absorb other writers' frames and find the tail), declared \
                       ranked above it; no other in-process primitive is acquired under it.",
        },
        SiteDecl {
            label: RM_EVENTS,
            kind: SiteKind::Atomic,
            owner: "pstack-rm",
            rank: 47,
            may_acquire: &[],
            ordering: "Relaxed fetch_add/load: a monotone diagnostics counter of scheduler \
                       events processed across an enclave drain. Enclaves drain one at a \
                       time on the driver thread and readers consult the total only after \
                       the drain returns, so atomicity alone is the whole contract.",
        },
        SiteDecl {
            label: RM_SITE_TREE,
            kind: SiteKind::Mutex,
            owner: "pstack-rm",
            rank: 48,
            may_acquire: &[],
            ordering: "Protects the GEOPM-style site aggregation tree while per-enclave \
                       metrics are folded up to the root. Leaf lock: nothing else is \
                       acquired while it is held.",
        },
        SiteDecl {
            label: TRACE_RING,
            kind: SiteKind::Mutex,
            owner: "pstack-trace",
            rank: 50,
            may_acquire: &[],
            ordering: "Protects the bounded span ring and its drop counter. Leaf lock: \
                       nothing else is ever acquired while it is held.",
        },
        SiteDecl {
            label: TRACE_SPAN_ID,
            kind: SiteKind::Atomic,
            owner: "pstack-trace",
            rank: 51,
            may_acquire: &[],
            ordering: "Relaxed fetch_add: span-id dispenser. Ids must be unique, not \
                       ordered; snapshot ordering is reconstructed from (start_ns, id).",
        },
        SiteDecl {
            label: TRACE_TID,
            kind: SiteKind::Atomic,
            owner: "pstack-trace",
            rank: 52,
            may_acquire: &[],
            ordering: "Relaxed fetch_add: thread-id dispenser, same argument as the \
                       span-id site — uniqueness is the whole contract.",
        },
    ]
}

/// Whether `label` is a declared site.
pub fn is_declared(label: &str) -> bool {
    all().iter().any(|s| s.label == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_labels_unique_and_sorted() {
        let labels: Vec<&str> = all().iter().map(|s| s.label).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(labels, sorted, "site labels must be unique and in order");
    }

    #[test]
    fn every_site_documents_its_ordering() {
        for s in all() {
            assert!(
                s.ordering.len() > 20,
                "site {} must carry a real ordering/critical-section rationale",
                s.label
            );
        }
    }
}
