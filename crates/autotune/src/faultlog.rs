//! The fault log: what was injected and what was survived.
//!
//! Every resilient tuning run ([`crate::Tuner::run_resilient`] /
//! [`crate::Tuner::run_parallel_resilient`]) and every faulted stack
//! scenario (`pstack-faults`) records the faults it saw into a [`FaultLog`],
//! which travels inside [`crate::TuneReport`] so a report always states the
//! conditions it was produced under. The log keeps a bounded event list
//! (first [`FaultLog::MAX_EVENTS`] events verbatim) plus exact counters per
//! [`FaultKind`], so even fault storms serialize compactly and two identical
//! seeded runs render byte-identical logs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kinds of fault and fault-response events a run can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A telemetry sample was perturbed by injected measurement noise.
    TelemetryNoise,
    /// A telemetry sample was dropped entirely.
    DroppedSample,
    /// A knob write (power cap / frequency) silently failed to apply.
    StuckKnob,
    /// A knob write applied late (after the injected lag).
    LaggedKnob,
    /// A runtime agent crashed mid-job.
    AgentCrash,
    /// A crashed runtime agent restarted.
    AgentRestart,
    /// The RM dropped the power budget (§3.2.5 emergency power reduction).
    EmergencyDrop,
    /// An evaluation failed outright.
    EvalFailure,
    /// An evaluation exceeded its (virtual) time allowance.
    EvalTimeout,
    /// An evaluation produced a non-finite objective.
    NonFiniteObjective,
    /// A failed evaluation was retried after backoff.
    Retry,
    /// A recorded observation looked like a measurement outlier.
    Outlier,
    /// A configuration exhausted its retry budget and was quarantined.
    Quarantined,
    /// A quarantined configuration was re-suggested and skipped.
    QuarantineSkip,
    /// The search degraded from its primary algorithm to the fallback.
    SearchDegraded,
    /// The run stopped early because the fault budget was exhausted.
    RunAbandoned,
}

impl FaultKind {
    /// Every kind, in the order counters render.
    pub const ALL: [FaultKind; 16] = [
        FaultKind::TelemetryNoise,
        FaultKind::DroppedSample,
        FaultKind::StuckKnob,
        FaultKind::LaggedKnob,
        FaultKind::AgentCrash,
        FaultKind::AgentRestart,
        FaultKind::EmergencyDrop,
        FaultKind::EvalFailure,
        FaultKind::EvalTimeout,
        FaultKind::NonFiniteObjective,
        FaultKind::Retry,
        FaultKind::Outlier,
        FaultKind::Quarantined,
        FaultKind::QuarantineSkip,
        FaultKind::SearchDegraded,
        FaultKind::RunAbandoned,
    ];

    /// Stable snake_case name (used in rendering and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::TelemetryNoise => "telemetry_noise",
            FaultKind::DroppedSample => "dropped_sample",
            FaultKind::StuckKnob => "stuck_knob",
            FaultKind::LaggedKnob => "lagged_knob",
            FaultKind::AgentCrash => "agent_crash",
            FaultKind::AgentRestart => "agent_restart",
            FaultKind::EmergencyDrop => "emergency_drop",
            FaultKind::EvalFailure => "eval_failure",
            FaultKind::EvalTimeout => "eval_timeout",
            FaultKind::NonFiniteObjective => "non_finite_objective",
            FaultKind::Retry => "retry",
            FaultKind::Outlier => "outlier",
            FaultKind::Quarantined => "quarantined",
            FaultKind::QuarantineSkip => "quarantine_skip",
            FaultKind::SearchDegraded => "search_degraded",
            FaultKind::RunAbandoned => "run_abandoned",
        }
    }

    /// Inverse of [`name`](Self::name), for checkpoint replay.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded fault event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What happened.
    pub kind: FaultKind,
    /// Where/when it happened, e.g. `"eval 12 attempt 1"` or `"t=42s"`.
    pub at: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Exact per-kind tallies (every event counts here, including those beyond
/// the bounded event list).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Telemetry samples perturbed by noise.
    pub telemetry_noise: usize,
    /// Telemetry samples dropped.
    pub dropped_samples: usize,
    /// Knob writes that silently failed.
    pub stuck_knobs: usize,
    /// Knob writes that applied late.
    pub lagged_knobs: usize,
    /// Runtime-agent crashes.
    pub agent_crashes: usize,
    /// Runtime-agent restarts.
    pub agent_restarts: usize,
    /// RM emergency budget drops.
    pub emergency_drops: usize,
    /// Failed evaluations (individual attempts).
    pub eval_failures: usize,
    /// Timed-out evaluations (individual attempts).
    pub eval_timeouts: usize,
    /// Evaluations returning non-finite objectives.
    pub non_finite: usize,
    /// Retries performed (with backoff).
    pub retries: usize,
    /// Observations flagged as outliers.
    pub outliers: usize,
    /// Configurations quarantined after exhausting retries.
    pub quarantined: usize,
    /// Suggestions skipped because the configuration was quarantined.
    pub quarantine_skips: usize,
    /// Search degradations (primary → fallback).
    pub search_degradations: usize,
    /// Runs abandoned on an exhausted fault budget.
    pub abandoned: usize,
}

impl FaultCounts {
    /// Tally for one kind.
    pub fn get(&self, kind: FaultKind) -> usize {
        match kind {
            FaultKind::TelemetryNoise => self.telemetry_noise,
            FaultKind::DroppedSample => self.dropped_samples,
            FaultKind::StuckKnob => self.stuck_knobs,
            FaultKind::LaggedKnob => self.lagged_knobs,
            FaultKind::AgentCrash => self.agent_crashes,
            FaultKind::AgentRestart => self.agent_restarts,
            FaultKind::EmergencyDrop => self.emergency_drops,
            FaultKind::EvalFailure => self.eval_failures,
            FaultKind::EvalTimeout => self.eval_timeouts,
            FaultKind::NonFiniteObjective => self.non_finite,
            FaultKind::Retry => self.retries,
            FaultKind::Outlier => self.outliers,
            FaultKind::Quarantined => self.quarantined,
            FaultKind::QuarantineSkip => self.quarantine_skips,
            FaultKind::SearchDegraded => self.search_degradations,
            FaultKind::RunAbandoned => self.abandoned,
        }
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::TelemetryNoise => self.telemetry_noise += 1,
            FaultKind::DroppedSample => self.dropped_samples += 1,
            FaultKind::StuckKnob => self.stuck_knobs += 1,
            FaultKind::LaggedKnob => self.lagged_knobs += 1,
            FaultKind::AgentCrash => self.agent_crashes += 1,
            FaultKind::AgentRestart => self.agent_restarts += 1,
            FaultKind::EmergencyDrop => self.emergency_drops += 1,
            FaultKind::EvalFailure => self.eval_failures += 1,
            FaultKind::EvalTimeout => self.eval_timeouts += 1,
            FaultKind::NonFiniteObjective => self.non_finite += 1,
            FaultKind::Retry => self.retries += 1,
            FaultKind::Outlier => self.outliers += 1,
            FaultKind::Quarantined => self.quarantined += 1,
            FaultKind::QuarantineSkip => self.quarantine_skips += 1,
            FaultKind::SearchDegraded => self.search_degradations += 1,
            FaultKind::RunAbandoned => self.abandoned += 1,
        }
    }

    /// Sum over every kind.
    pub fn total(&self) -> usize {
        FaultKind::ALL.iter().map(|&k| self.get(k)).sum()
    }
}

/// The log of everything injected into (and survived by) one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    /// The first [`FaultLog::MAX_EVENTS`] events, in occurrence order.
    pub events: Vec<FaultEvent>,
    /// Exact tallies over *all* events, bounded or not.
    pub counts: FaultCounts,
    /// Total virtual backoff time spent on retries, seconds.
    pub total_backoff_s: f64,
}

impl FaultLog {
    /// Events kept verbatim; beyond this only the counters grow.
    pub const MAX_EVENTS: usize = 256;

    /// Empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Record an event (kept verbatim while under the event cap; always
    /// counted).
    pub fn record(&mut self, kind: FaultKind, at: impl Into<String>, detail: impl Into<String>) {
        if self.events.len() < Self::MAX_EVENTS {
            self.events.push(FaultEvent {
                kind,
                at: at.into(),
                detail: detail.into(),
            });
        }
        self.counts.bump(kind);
    }

    /// Count an event without storing it (for high-frequency faults like
    /// per-sample telemetry noise).
    pub fn note(&mut self, kind: FaultKind) {
        self.counts.bump(kind);
    }

    /// Fold another log into this one (events concatenate up to the cap;
    /// counters and backoff add).
    pub fn merge(&mut self, other: &FaultLog) {
        for e in &other.events {
            if self.events.len() >= Self::MAX_EVENTS {
                break;
            }
            self.events.push(e.clone());
        }
        for kind in FaultKind::ALL {
            for _ in 0..other.counts.get(kind) {
                self.counts.bump(kind);
            }
        }
        self.total_backoff_s += other.total_backoff_s;
    }

    /// Whether anything at all was injected or responded to.
    pub fn is_clean(&self) -> bool {
        self.counts.total() == 0
    }

    /// One-line summary: nonzero counters only, in [`FaultKind::ALL`] order.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "no faults injected".to_string();
        }
        let parts: Vec<String> = FaultKind::ALL
            .iter()
            .filter(|&&k| self.counts.get(k) > 0)
            .map(|&k| format!("{}={}", k.name(), self.counts.get(k)))
            .collect();
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_and_stores() {
        let mut log = FaultLog::new();
        log.record(FaultKind::EvalFailure, "eval 0 attempt 0", "injected");
        log.record(FaultKind::Retry, "eval 0 attempt 1", "backoff 0.5s");
        log.note(FaultKind::TelemetryNoise);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.counts.eval_failures, 1);
        assert_eq!(log.counts.retries, 1);
        assert_eq!(log.counts.telemetry_noise, 1);
        assert_eq!(log.counts.total(), 3);
        assert!(!log.is_clean());
    }

    #[test]
    fn event_list_is_bounded_but_counts_are_exact() {
        let mut log = FaultLog::new();
        for i in 0..(FaultLog::MAX_EVENTS + 50) {
            log.record(FaultKind::DroppedSample, format!("sample {i}"), "dropped");
        }
        assert_eq!(log.events.len(), FaultLog::MAX_EVENTS);
        assert_eq!(log.counts.dropped_samples, FaultLog::MAX_EVENTS + 50);
    }

    #[test]
    fn summary_lists_nonzero_kinds_in_order() {
        let mut log = FaultLog::new();
        log.note(FaultKind::StuckKnob);
        log.note(FaultKind::StuckKnob);
        log.note(FaultKind::AgentCrash);
        assert_eq!(log.summary(), "stuck_knob=2 agent_crash=1");
        assert_eq!(FaultLog::new().summary(), "no faults injected");
    }

    #[test]
    fn merge_adds_counts_and_backoff() {
        let mut a = FaultLog::new();
        a.record(FaultKind::EvalTimeout, "eval 1", "slow");
        a.total_backoff_s = 1.0;
        let mut b = FaultLog::new();
        b.record(FaultKind::Quarantined, "cfg [0, 1]", "3 attempts failed");
        b.total_backoff_s = 2.5;
        a.merge(&b);
        assert_eq!(a.counts.eval_timeouts, 1);
        assert_eq!(a.counts.quarantined, 1);
        assert_eq!(a.events.len(), 2);
        assert!((a.total_backoff_s - 3.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips() {
        let mut log = FaultLog::new();
        log.record(FaultKind::SearchDegraded, "eval 20", "forest -> random");
        let json = serde_json::to_string_pretty(&log).unwrap();
        let back: FaultLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn all_kinds_have_unique_names() {
        let mut names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultKind::ALL.len());
    }
}
