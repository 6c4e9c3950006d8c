//! The Figure 1 end-to-end wiring, packaged as a runnable scenario.
//!
//! A [`Scenario`] is one configuration of the whole stack — fleet size, site
//! power budget, and how much of the stack participates in tuning
//! ([`TuningLevel`]) — over a generated job mix. Running it produces the
//! system-level metrics (throughput, energy, efficiency) that the paper's
//! *opportunity analysis* (§3.1) compares across tuning levels.

use crate::interfaces::Objective;
use pstack_apps::synthetic::{random_app, Profile};
use pstack_hwmodel::{NodeConfig, VariationModel};
use pstack_node::NodeManager;
use pstack_rm::{AgentKind, JobSpec, PowerAssignment, Scheduler, SystemPowerPolicy};
use pstack_runtime::{CountdownMode, GeopmPolicy};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use pstack_trace::{AttrValue, TraceCollector};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How much of the PowerStack participates in tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TuningLevel {
    /// No tuning: peak-power admission, raw execution.
    None,
    /// Node layer only: static uniform node power caps.
    NodeOnly,
    /// Job-runtime layer only: GEOPM power balancer per job under a uniform
    /// job budget; the RM itself stays non-adaptive.
    RuntimeOnly,
    /// End-to-end: fair-share power reassignment at the RM, moldable sizing,
    /// and a profile-matched runtime attached to each job.
    EndToEnd,
}

impl TuningLevel {
    /// All levels, least to most integrated.
    pub const ALL: [TuningLevel; 4] = [
        TuningLevel::None,
        TuningLevel::NodeOnly,
        TuningLevel::RuntimeOnly,
        TuningLevel::EndToEnd,
    ];
}

/// One end-to-end experiment configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Fleet size.
    pub n_nodes: usize,
    /// Site/system power budget, watts (`None` = unlimited).
    pub system_budget_w: Option<f64>,
    /// Tuning level.
    pub tuning: TuningLevel,
    /// Number of jobs in the generated mix.
    pub n_jobs: usize,
    /// Master seed (workload and variation derive from it).
    pub seed: u64,
    /// Mean per-node work per job, reference seconds (scales runtimes).
    pub job_scale: f64,
}

impl Scenario {
    /// A medium default: 16 nodes, 12 jobs.
    pub fn medium(tuning: TuningLevel, system_budget_w: Option<f64>) -> Self {
        Scenario {
            n_nodes: 16,
            system_budget_w,
            tuning,
            n_jobs: 12,
            seed: 20200901,
            job_scale: 1.0,
        }
    }

    pub(crate) fn policy(&self) -> SystemPowerPolicy {
        match (self.tuning, self.system_budget_w) {
            (_, None) => SystemPowerPolicy::unlimited(),
            (TuningLevel::None, Some(b)) => {
                SystemPowerPolicy::budgeted(b, PowerAssignment::Unconstrained)
            }
            (TuningLevel::NodeOnly, Some(b)) | (TuningLevel::RuntimeOnly, Some(b)) => {
                // Static uniform node caps sized to the fleet share.
                let per_node = (b / self.n_nodes as f64).max(150.0);
                SystemPowerPolicy::budgeted(b, PowerAssignment::PerNodeCap(per_node))
            }
            (TuningLevel::EndToEnd, Some(b)) => {
                SystemPowerPolicy::budgeted(b, PowerAssignment::FairShare)
            }
        }
    }

    pub(crate) fn agent_for(&self, profile: Profile) -> AgentKind {
        // Power-budget-consuming agents only make sense when the RM assigns
        // budgets; on an unlimited system they degrade to monitoring.
        let budgeted = self.system_budget_w.is_some();
        match self.tuning {
            TuningLevel::None | TuningLevel::NodeOnly => AgentKind::None,
            TuningLevel::RuntimeOnly => {
                if budgeted {
                    AgentKind::Geopm(GeopmPolicy::PowerBalancer {
                        job_budget_w: 1.0, // overridden by the RM-assigned budget
                    })
                } else {
                    AgentKind::Geopm(GeopmPolicy::Monitor)
                }
            }
            TuningLevel::EndToEnd => match profile {
                Profile::CommHeavy => AgentKind::Countdown(CountdownMode::WaitAndCopy),
                Profile::MemoryHeavy => {
                    AgentKind::Geopm(GeopmPolicy::EnergyEfficient { perf_margin: 0.10 })
                }
                Profile::ComputeHeavy => {
                    if budgeted {
                        AgentKind::Geopm(GeopmPolicy::PowerBalancer { job_budget_w: 1.0 })
                    } else {
                        AgentKind::Geopm(GeopmPolicy::EnergyEfficient { perf_margin: 0.05 })
                    }
                }
                Profile::Mixed => AgentKind::Meric,
            },
        }
    }

    /// Generate the job mix and run the scenario to completion.
    pub fn run(&self) -> ScenarioResult {
        self.run_inner(None)
    }

    /// Like [`Scenario::run`], but records framework spans into `trace`:
    /// a `scenario.run` root (tuning level, fleet, budget, seed), a
    /// `workload_gen` child covering job-mix generation, and a
    /// `scheduler.drain` child covering the control loop with the tick
    /// count and periodic queue-depth progress events.
    ///
    /// Tracing never changes the simulation: the same seeds drive the same
    /// control ticks, so the returned [`ScenarioResult`] is byte-identical
    /// to an untraced run.
    pub fn run_traced(&self, trace: &TraceCollector) -> ScenarioResult {
        self.run_inner(Some(trace))
    }

    fn run_inner(&self, trace: Option<&TraceCollector>) -> ScenarioResult {
        let mut root = trace.map(|t| {
            let mut s = t.span("scenario.run");
            s.attr("tuning", format!("{:?}", self.tuning));
            s.attr("n_nodes", self.n_nodes);
            s.attr("n_jobs", self.n_jobs);
            s.attr("seed", self.seed);
            if let Some(b) = self.system_budget_w {
                s.attr("system_budget_w", b);
            }
            s
        });
        let seeds = SeedTree::new(self.seed);
        let nodes = NodeManager::fleet(
            self.n_nodes,
            NodeConfig::server_default(),
            &VariationModel::typical(),
            &seeds,
        );
        let mut sched = Scheduler::new(nodes, self.policy(), seeds.subtree("sched"));
        {
            let mut gen_span = root.as_ref().map(|r| r.child("workload_gen"));
            let mut rng = seeds.rng("arrivals");
            let mut t = 0u64;
            for i in 0..self.n_jobs {
                let mut app = random_app(&seeds, i as u64);
                app.work_per_node *= self.job_scale * 0.2; // keep experiments tractable
                let profile = app.profile;
                let nodes_wanted = 1usize << rng.gen_range(0..3); // 1, 2 or 4
                                                                  // Every level runs the same rigid sizes: the apps are
                                                                  // weak-scaled, so identical sizes keep completed work identical
                                                                  // across rows and make throughput/energy directly comparable.
                                                                  // (Moldability under power pressure is studied separately in the
                                                                  // §4.3 overprovisioning ablation, where sizing is the subject.)
                let spec =
                    JobSpec::rigid(i as u64, Arc::new(app), nodes_wanted, SimTime::from_secs(t))
                        .with_agent(self.agent_for(profile));
                sched.submit(spec);
                t += rng.gen_range(5..30);
            }
            if let Some(span) = gen_span.as_mut() {
                span.attr("jobs", self.n_jobs);
            }
        }
        let quantum = SimDuration::from_secs(1);
        let horizon = SimTime::from_secs(24 * 3600);
        match root.as_ref() {
            Some(r) => {
                // Drive the control loop tick by tick so the drain span can
                // account for it; `run_until_drained` does exactly this.
                let mut drain = r.child("scheduler.drain");
                let mut ticks: u64 = 0;
                while (sched.queued() > 0 || sched.running() > 0) && sched.now() < horizon {
                    sched.step(quantum);
                    ticks += 1;
                    if ticks.is_multiple_of(4096) {
                        drain.event_with(
                            "progress",
                            vec![
                                ("ticks".to_string(), AttrValue::from(ticks)),
                                ("queued".to_string(), AttrValue::from(sched.queued())),
                                ("running".to_string(), AttrValue::from(sched.running())),
                                (
                                    "sim_s".to_string(),
                                    AttrValue::from(sched.now().as_secs_f64()),
                                ),
                            ],
                        );
                    }
                }
                drain.attr("ticks", ticks);
                drain.attr("sim_end_s", sched.now().as_secs_f64());
            }
            None => sched.run_until_drained(quantum, horizon),
        }
        let m = sched.metrics();
        let makespan_s = sched.now().as_secs_f64();
        let result = ScenarioResult {
            tuning: self.tuning,
            system_budget_w: self.system_budget_w,
            completed: m.completed,
            makespan_s,
            jobs_per_hour: m.jobs_per_hour,
            mean_wait_s: m.mean_wait_s,
            energy_j: m.system_energy_j,
            mean_power_w: m.mean_system_power_w,
            total_work: m.total_work,
            work_per_kj: if m.system_energy_j > 0.0 {
                m.total_work / (m.system_energy_j / 1000.0)
            } else {
                0.0
            },
        };
        if let Some(r) = root.as_mut() {
            r.attr("completed", result.completed);
            r.attr("makespan_s", result.makespan_s);
            r.attr("energy_j", result.energy_j);
        }
        result
    }
}

/// Metrics from one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The tuning level that produced this row.
    pub tuning: TuningLevel,
    /// The system budget it ran under.
    pub system_budget_w: Option<f64>,
    /// Jobs completed.
    pub completed: usize,
    /// Time until the last job finished, seconds.
    pub makespan_s: f64,
    /// Throughput, jobs/hour.
    pub jobs_per_hour: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_s: f64,
    /// Total system energy, joules.
    pub energy_j: f64,
    /// Mean system power, watts.
    pub mean_power_w: f64,
    /// Total application work completed.
    pub total_work: f64,
    /// System-level efficiency: work per kilojoule.
    pub work_per_kj: f64,
}

impl ScenarioResult {
    /// Cost under an objective (smaller is better).
    pub fn cost(&self, objective: Objective) -> f64 {
        objective.cost(self.makespan_s, self.energy_j, self.total_work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(tuning: TuningLevel, budget: Option<f64>) -> Scenario {
        Scenario {
            n_nodes: 4,
            system_budget_w: budget,
            tuning,
            n_jobs: 4,
            seed: 7,
            job_scale: 0.5,
        }
    }

    #[test]
    fn all_levels_complete_all_jobs() {
        // Budget sized so even a 4-node peak-power job passes admission
        // under the Unconstrained (no-tuning) policy.
        for tuning in TuningLevel::ALL {
            let r = tiny(tuning, Some(4.0 * 470.0)).run();
            assert_eq!(r.completed, 4, "{tuning:?} must drain the queue");
            assert!(r.energy_j > 0.0);
            assert!(r.total_work > 0.0);
        }
    }

    #[test]
    fn budget_respected_on_average() {
        let budget = 4.0 * 300.0;
        for tuning in [TuningLevel::NodeOnly, TuningLevel::EndToEnd] {
            let r = tiny(tuning, Some(budget)).run();
            assert!(
                r.mean_power_w <= budget * 1.10,
                "{tuning:?}: {} W vs {budget} W",
                r.mean_power_w
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny(TuningLevel::EndToEnd, Some(1200.0)).run();
        let b = tiny(TuningLevel::EndToEnd, Some(1200.0)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_the_control_loop() {
        let scenario = tiny(TuningLevel::EndToEnd, Some(1200.0));
        let plain = scenario.run();
        let collector = TraceCollector::new();
        let traced = scenario.run_traced(&collector);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let trace = collector.snapshot();
        let root = trace.by_name("scenario.run").next().expect("root span");
        assert_eq!(root.attr("n_nodes"), Some(&AttrValue::Int(4)));
        assert_eq!(
            root.attr("completed"),
            Some(&AttrValue::Int(traced.completed as i64))
        );
        let drain = trace.by_name("scheduler.drain").next().expect("drain span");
        assert_eq!(drain.parent, Some(root.id));
        match drain.attr("ticks") {
            Some(AttrValue::Int(t)) => assert!(*t > 0, "control loop ticked"),
            other => panic!("ticks attr missing or mistyped: {other:?}"),
        }
        assert!(trace.by_name("workload_gen").next().is_some());
    }

    #[test]
    fn unlimited_budget_runs_at_full_power() {
        let r = tiny(TuningLevel::None, None).run();
        // 4 busy-ish nodes at ~440 W peak: mean power must exceed the
        // all-idle floor convincingly while jobs run.
        assert!(r.mean_power_w > 400.0, "{}", r.mean_power_w);
    }
}
