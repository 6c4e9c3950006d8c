//! The RM's decision log: one typed, append-only record of what the
//! [`Scheduler`](crate::Scheduler) and the [`Irm`](crate::Irm) decided.
//!
//! Every [`Decision`] payload is `Copy` (ids, node counts, watts, times),
//! so logging a decision never allocates beyond the log's own growth.
//! Readers count or chart rows by [`Decision::kind`], whose strings are
//! stable: perfbench counts `job_start`, `backfill`, `job_pause` and
//! `budget_change` through [`DecisionLog::of_kind`].

use crate::scheduler::EmergencyResponse;
use crate::spec::JobId;
use pstack_sim::SimTime;

/// One RM decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// A job entered the queue.
    JobSubmit {
        job: JobId,
        min_nodes: usize,
        max_nodes: usize,
    },
    /// A job was cancelled, while queued or while `running`.
    JobCancel { job: JobId, running: bool },
    /// A new system power budget (`None` = unlimited) took effect.
    BudgetChange {
        budget_w: Option<f64>,
        response: EmergencyResponse,
    },
    /// A running job was paused by a power emergency.
    JobPause(JobId),
    /// A paused job resumed.
    JobResume(JobId),
    /// A job launched on `nodes` nodes.
    JobStart {
        job: JobId,
        nodes: usize,
        reservation_w: f64,
        budget_w: Option<f64>,
    },
    /// A job can never run under the policy and left the queue.
    JobReject(JobId),
    /// A job jumped the queue by EASY backfill; its `JobStart` follows.
    Backfill(JobId),
    /// Dynamic reassignment gave a running job a new power budget.
    PowerReassign { job: JobId, budget_w: f64 },
    /// A node's cap actuator stuck: cap writes drop until `until`.
    CapStick { node: usize, until: SimTime },
    /// The `count`-th telemetry dropout began; samples stop until `until`.
    TelemetryDropout { count: u64, until: SimTime },
    /// A node failed, killing `job` if one ran on it.
    NodeFail { node: usize, job: Option<JobId> },
    /// A failed node rebooted into the idle pool.
    NodeRecover { node: usize },
    /// A running job on `nodes` nodes was killed; its work is lost.
    JobKill { job: JobId, nodes: usize },
    /// A killed job was requeued for retry number `attempt`.
    JobRequeue { job: JobId, attempt: u32 },
    /// A killed job exhausted its retry budget.
    JobFail(JobId),
    /// A job's physics completed.
    JobEnd(JobId),
    /// The IRM launched a malleable job on `nodes` nodes.
    JobLaunch { nodes: usize },
    /// The IRM sampled system power against its corridor.
    SystemPower { watts: f64 },
    /// The IRM resized a malleable job at a safe boundary.
    Redistribute { from: usize, to: usize },
    /// The IRM capped every busy node at `node_w`.
    PowerCap { node_w: f64 },
    /// The IRM set the fleet's frequency limit.
    Dvfs { ghz: f64 },
}

impl Decision {
    /// Stable kind label, the key of [`DecisionLog::of_kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::JobSubmit { .. } => "job_submit",
            Decision::JobCancel { .. } => "job_cancel",
            Decision::BudgetChange { .. } => "budget_change",
            Decision::JobPause(_) => "job_pause",
            Decision::JobResume(_) => "job_resume",
            Decision::JobStart { .. } => "job_start",
            Decision::JobReject(_) => "job_reject",
            Decision::Backfill(_) => "backfill",
            Decision::PowerReassign { .. } => "power_reassign",
            Decision::CapStick { .. } => "cap_stick",
            Decision::TelemetryDropout { .. } => "telemetry_dropout",
            Decision::NodeFail { .. } => "node_fail",
            Decision::NodeRecover { .. } => "node_recover",
            Decision::JobKill { .. } => "job_kill",
            Decision::JobRequeue { .. } => "job_requeue",
            Decision::JobFail(_) => "job_fail",
            Decision::JobEnd(_) => "job_end",
            Decision::JobLaunch { .. } => "job_launch",
            Decision::SystemPower { .. } => "system_power",
            Decision::Redistribute { .. } => "redistribute",
            Decision::PowerCap { .. } => "power_cap",
            Decision::Dvfs { .. } => "dvfs",
        }
    }

    /// The decision's primary number, the `y` of [`DecisionLog::series`]:
    /// the job or node id it is about, the node count it set, or the watts
    /// or GHz it set or sampled. An unlimited budget is NaN; a telemetry
    /// dropout is its running count.
    pub fn value(&self) -> f64 {
        match *self {
            Decision::JobSubmit { job, .. }
            | Decision::JobCancel { job, .. }
            | Decision::JobPause(job)
            | Decision::JobResume(job)
            | Decision::JobStart { job, .. }
            | Decision::JobReject(job)
            | Decision::Backfill(job)
            | Decision::JobKill { job, .. }
            | Decision::JobRequeue { job, .. }
            | Decision::JobFail(job)
            | Decision::JobEnd(job) => job.0 as f64,
            Decision::CapStick { node, .. }
            | Decision::NodeFail { node, .. }
            | Decision::NodeRecover { node } => node as f64,
            Decision::BudgetChange { budget_w, .. } => budget_w.unwrap_or(f64::NAN),
            Decision::TelemetryDropout { count, .. } => count as f64,
            Decision::JobLaunch { nodes } => nodes as f64,
            Decision::Redistribute { to, .. } => to as f64,
            Decision::PowerReassign { budget_w: w, .. }
            | Decision::SystemPower { watts: w }
            | Decision::PowerCap { node_w: w }
            | Decision::Dvfs { ghz: w } => w,
        }
    }
}

/// Append-only log of `(time, decision)` rows, in emission order.
#[derive(Debug, Default)]
pub struct DecisionLog {
    rows: Vec<(SimTime, Decision)>,
}

impl DecisionLog {
    pub(crate) fn record(&mut self, time: SimTime, decision: Decision) {
        self.rows.push((time, decision));
    }

    /// Every row, in emission order.
    pub fn rows(&self) -> &[(SimTime, Decision)] {
        &self.rows
    }

    /// Rows whose [`Decision::kind`] is `kind`, in emission order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a (SimTime, Decision)> {
        self.rows.iter().filter(move |(_, d)| d.kind() == kind)
    }

    /// `(seconds, value)` series for `kind` — the shape figures are drawn from.
    pub fn series(&self, kind: &str) -> Vec<(f64, f64)> {
        self.of_kind(kind)
            .map(|(t, d)| (t.as_secs_f64(), d.value()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One decision of every kind, with the kind string each must keep.
    fn every_kind() -> Vec<(Decision, &'static str)> {
        let job = JobId(7);
        let until = SimTime::from_secs(9);
        vec![
            (
                Decision::JobSubmit {
                    job,
                    min_nodes: 1,
                    max_nodes: 4,
                },
                "job_submit",
            ),
            (Decision::JobCancel { job, running: true }, "job_cancel"),
            (
                Decision::BudgetChange {
                    budget_w: None,
                    response: EmergencyResponse::PauseJobs,
                },
                "budget_change",
            ),
            (Decision::JobPause(job), "job_pause"),
            (Decision::JobResume(job), "job_resume"),
            (
                Decision::JobStart {
                    job,
                    nodes: 2,
                    reservation_w: 800.0,
                    budget_w: None,
                },
                "job_start",
            ),
            (Decision::JobReject(job), "job_reject"),
            (Decision::Backfill(job), "backfill"),
            (
                Decision::PowerReassign {
                    job,
                    budget_w: 350.0,
                },
                "power_reassign",
            ),
            (Decision::CapStick { node: 3, until }, "cap_stick"),
            (
                Decision::TelemetryDropout { count: 2, until },
                "telemetry_dropout",
            ),
            (Decision::NodeFail { node: 3, job: None }, "node_fail"),
            (Decision::NodeRecover { node: 3 }, "node_recover"),
            (Decision::JobKill { job, nodes: 2 }, "job_kill"),
            (Decision::JobRequeue { job, attempt: 1 }, "job_requeue"),
            (Decision::JobFail(job), "job_fail"),
            (Decision::JobEnd(job), "job_end"),
            (Decision::JobLaunch { nodes: 8 }, "job_launch"),
            (Decision::SystemPower { watts: 2500.0 }, "system_power"),
            (Decision::Redistribute { from: 8, to: 6 }, "redistribute"),
            (Decision::PowerCap { node_w: 140.0 }, "power_cap"),
            (Decision::Dvfs { ghz: 2.4 }, "dvfs"),
        ]
    }

    #[test]
    fn every_kind_keeps_its_string() {
        let all = every_kind();
        assert_eq!(all.len(), 22);
        for (d, kind) in &all {
            assert_eq!(d.kind(), *kind, "{d:?}");
        }
        let mut kinds: Vec<&str> = all.iter().map(|(d, _)| d.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len(), "kind strings must be distinct");
        // perfbench counts these four through `of_kind`.
        for counted in ["job_start", "backfill", "job_pause", "budget_change"] {
            assert!(kinds.contains(&counted), "{counted}");
        }
    }

    #[test]
    fn values_are_the_primary_number() {
        let value = |d: Decision| d.value().to_bits();
        assert_eq!(value(Decision::JobEnd(JobId(7))), 7.0f64.to_bits());
        assert_eq!(value(Decision::NodeRecover { node: 3 }), 3.0f64.to_bits());
        let unlimited = Decision::BudgetChange {
            budget_w: None,
            response: EmergencyResponse::TightenCaps,
        };
        assert!(unlimited.value().is_nan());
        assert_eq!(
            value(Decision::Redistribute { from: 8, to: 6 }),
            6.0f64.to_bits()
        );
        assert_eq!(
            value(Decision::TelemetryDropout {
                count: 2,
                until: SimTime::ZERO
            }),
            2.0f64.to_bits()
        );
    }

    #[test]
    fn filters_and_series_follow_emission_order() {
        let mut log = DecisionLog::default();
        for i in 0..5u64 {
            let watts = 100.0 + i as f64;
            log.record(SimTime::from_secs(i), Decision::SystemPower { watts });
            log.record(SimTime::from_secs(i), Decision::JobEnd(JobId(i)));
        }
        assert_eq!(log.rows().len(), 10);
        assert_eq!(log.of_kind("job_end").count(), 5);
        assert_eq!(log.of_kind("job_start").count(), 0);
        let s = log.series("system_power");
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], (0.0, 100.0));
        assert_eq!(s[4], (4.0, 104.0));
    }
}
