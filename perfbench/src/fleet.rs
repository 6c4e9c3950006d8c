//! Fleet workloads: a seeded site trace replayed window by window through
//! `EnclaveSet::run_until`, with the site power sampled after each window.
//!
//! The benchmark generates its own trace from public constructors only
//! (`random_app`, `NodeManager::fleet`, `Scheduler::new`,
//! `SystemPowerPolicy::budgeted`, `AgentKind`, `JobSpec::rigid`,
//! `EnclaveSet::new`), never through the E10 `FleetScenario`, so a
//! recalibration of E10 cannot change the benchmark's input.

use crate::measure::{span_ns, Pass, Sim, Workload};
use pstack_apps::synthetic::{random_app, Profile, SyntheticApp};
use pstack_hwmodel::{NodeConfig, VariationModel};
use pstack_node::NodeManager;
use pstack_rm::{
    shard_budgets, AgentKind, EmergencyResponse, EnclaveSet, JobSpec, PowerAssignment, Scheduler,
    SystemPowerPolicy,
};
use pstack_runtime::{CountdownMode, GeopmPolicy};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use pstack_trace::{hash64, SpanGuard, TraceCollector};
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Control quantum and runner substep, as in E10.
const QUANTUM: SimDuration = SimDuration::from_secs(1);
/// Admission planning peak per node, watts (the E10 site-peak figure).
const PEAK_W_PER_NODE: f64 = 450.0;
/// A window is over budget when site power exceeds the budget in force by
/// more than this factor (E11's tolerance, §3.2.5).
const OVER_BUDGET_TOLERANCE: f64 = 1.03;
/// Per-node telemetry ring bound, as in E10.
const POWER_HISTORY_SAMPLES: usize = 512;
/// Site budget as a share of the 450 W/node peak, as in E10.
const SITE_BUDGET_FRAC: f64 = 0.65;
/// Static per-node cap of the sparse site, watts.
const STATIC_CAP_W: f64 = 300.0;

/// How the site manages power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Power {
    /// One `FairShare` budget sharded per enclave, the EndToEnd agent mix,
    /// 30 s dynamic power reassignment and rolling demand-response cuts.
    Managed,
    /// Static `PerNodeCap` caps set out of band by the RM; no runtime agents.
    StaticCaps,
}

/// Size and power regime of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub enclaves: usize,
    pub nodes_per_enclave: usize,
    pub jobs: usize,
    /// Simulated seconds one pass covers.
    pub horizon_s: u64,
    /// Simulated seconds one op advances.
    pub window_s: u64,
    /// Arrivals end at this share of the horizon; the rest drains.
    pub arrivals_until: f64,
    /// Multiplier on E10's per-node work distribution.
    pub work_scale: f64,
    pub power: Power,
    /// Demand-response cuts: first cut, period, length (simulated s).
    pub dr: Option<(u64, u64, u64)>,
}

/// `fleet_loaded`: runtime agent ticks, running-job physics and backfill
/// over a deep queue under a binding budget.
pub const LOADED: FleetShape = FleetShape {
    enclaves: 4,
    nodes_per_enclave: 16,
    jobs: 500,
    horizon_s: 9000,
    window_s: 60,
    arrivals_until: 0.6,
    work_scale: 0.55,
    power: Power::Managed,
    dr: Some((1200, 1800, 600)),
};

/// `fleet_sparse`: a large, nearly idle site whose host time goes to
/// deferred idle-node replay and event-heap leaps.
pub const SPARSE: FleetShape = FleetShape {
    enclaves: 4,
    nodes_per_enclave: 256,
    jobs: 200,
    horizon_s: 12_000,
    window_s: 100,
    arrivals_until: 0.75,
    work_scale: 1.2,
    power: Power::StaticCaps,
    dr: None,
};

impl FleetShape {
    fn nodes(&self) -> usize {
        self.enclaves * self.nodes_per_enclave
    }

    fn site_budget_w(&self) -> f64 {
        SITE_BUDGET_FRAC * PEAK_W_PER_NODE * self.nodes() as f64
    }

    fn windows(&self) -> u64 {
        self.horizon_s / self.window_s
    }
}

/// One job of the generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    pub id: u64,
    pub enclave: usize,
    pub nodes: usize,
    pub submit: SimTime,
    pub app: SyntheticApp,
}

/// The generated input of a fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteTrace {
    pub jobs: Vec<PlannedJob>,
    /// Site budget steps `(from, watts)`, the first at time zero.
    pub budget: Vec<(SimTime, f64)>,
}

impl SiteTrace {
    fn budget_at(&self, t: SimTime) -> f64 {
        self.budget
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .map_or(f64::INFINITY, |&(_, w)| w)
    }
}

/// Generate the site trace for `seed`.
///
/// Arrivals follow E10's bursty Poisson shape (a fifth of the gaps at 10×
/// the base rate, the rest at 0.55×), rescaled so the last arrival lands at
/// `arrivals_until` of the horizon. The job mix is one fixed multiset: job
/// `q` of `n` takes quantile `(q + 0.5) / n` of E10's per-node work
/// distribution (60 × 30^u reference seconds), `1 << (q % 3)` nodes and
/// profile `(q / 3) % 4`, its application being the next `random_app` draw
/// of that profile. The seed orders the mix, spreads it over the enclaves in
/// equal shares, and draws the arrivals, iteration counts and node
/// variation; it does not change the offered load or the agent mix, which
/// keeps the spread of host metrics across seeds small.
pub fn generate(shape: &FleetShape, seed: u64) -> SiteTrace {
    let seeds = SeedTree::new(seed);
    let mut rng = seeds.rng("perfbench-fleet-trace");
    let n = shape.jobs;
    let mut cum = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        let rate = if rng.gen_range(0.0..1.0) < 0.2 {
            10.0
        } else {
            0.55
        };
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        cum.push(t);
    }
    let last_s = shape.horizon_s as f64 * shape.arrivals_until;
    let profile_of = |q: usize| Profile::ALL[(q / 3) % Profile::ALL.len()];
    let mut draws = 0..;
    let apps: Vec<SyntheticApp> = (0..n)
        .map(|q| {
            let mut app = draws
                .by_ref()
                .map(|d| random_app(&seeds, d))
                .find(|a| a.profile == profile_of(q))
                .expect("random_app draws every profile");
            let u = (q as f64 + 0.5) / n as f64;
            app.work_per_node = 60.0 * 30f64.powf(u) * shape.work_scale;
            app
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut homes: Vec<usize> = (0..n).map(|i| i % shape.enclaves).collect();
    homes.shuffle(&mut rng);
    let jobs = order
        .iter()
        .enumerate()
        .map(|(i, &q)| PlannedJob {
            id: i as u64,
            enclave: homes[i],
            nodes: 1 << (q % 3),
            submit: SimTime::from_micros((cum[i] / t * last_s * 1e6).round() as u64),
            app: apps[q],
        })
        .collect();
    let site = shape.site_budget_w();
    let mut budget = vec![(SimTime::ZERO, site)];
    if let Some((first, period, len)) = shape.dr {
        // Rolling cuts, each one notch deeper (80/70/60% of the budget),
        // then a restore.
        let mut start = first;
        let mut k = 0;
        while start + len < shape.horizon_s {
            let depth = 0.8 - 0.1 * (k % 3) as f64;
            budget.push((SimTime::from_secs(start), site * depth));
            budget.push((SimTime::from_secs(start + len), site));
            start += period;
            k += 1;
        }
    }
    SiteTrace { jobs, budget }
}

/// The EndToEnd agent mix: COUNTDOWN for comm-heavy jobs, GEOPM
/// energy-efficient for memory-heavy, GEOPM power balancer for
/// compute-heavy, MERIC for mixed.
fn agent_for(power: Power, profile: Profile) -> AgentKind {
    match (power, profile) {
        (Power::StaticCaps, _) => AgentKind::None,
        (Power::Managed, Profile::CommHeavy) => AgentKind::Countdown(CountdownMode::WaitAndCopy),
        (Power::Managed, Profile::MemoryHeavy) => {
            AgentKind::Geopm(GeopmPolicy::EnergyEfficient { perf_margin: 0.10 })
        }
        (Power::Managed, Profile::ComputeHeavy) => {
            // The RM-assigned job budget replaces these watts at launch.
            AgentKind::Geopm(GeopmPolicy::PowerBalancer { job_budget_w: 1.0 })
        }
        (Power::Managed, Profile::Mixed) => AgentKind::Meric,
    }
}

/// Build every enclave's nodes.
pub fn build_nodes(shape: &FleetShape, seed: u64) -> Vec<Vec<NodeManager>> {
    let seeds = SeedTree::new(seed);
    (0..shape.enclaves)
        .map(|e| {
            let mut nodes = NodeManager::fleet(
                shape.nodes_per_enclave,
                NodeConfig::server_default(),
                &VariationModel::typical(),
                &seeds.subtree(&format!("enclave{e}")),
            );
            for nm in &mut nodes {
                nm.bound_power_history(POWER_HISTORY_SAMPLES);
            }
            nodes
        })
        .collect()
}

/// Build the schedulers, submit the trace and schedule the budget steps.
pub fn submit(
    shape: &FleetShape,
    seed: u64,
    trace: &SiteTrace,
    nodes: Vec<Vec<NodeManager>>,
) -> EnclaveSet {
    let seeds = SeedTree::new(seed);
    let shards = shard_budgets(
        shape.site_budget_w(),
        &vec![shape.nodes_per_enclave; shape.enclaves],
    );
    let enclaves = nodes
        .into_iter()
        .zip(&shards)
        .enumerate()
        .map(|(e, (nodes, &shard))| {
            let assignment = match shape.power {
                Power::Managed => PowerAssignment::FairShare,
                Power::StaticCaps => PowerAssignment::PerNodeCap(STATIC_CAP_W),
            };
            let policy = SystemPowerPolicy::budgeted(shard, assignment);
            let name = format!("enclave{e}");
            let mut sched = Scheduler::new(nodes, policy, seeds.subtree(&name).subtree("sched"))
                .with_runner_max_substep(QUANTUM);
            if shape.power == Power::Managed {
                sched = sched.with_dynamic_power_reassignment(SimDuration::from_secs(30));
            }
            (name, sched)
        })
        .collect();
    let mut set = EnclaveSet::new(enclaves, 8);
    for job in &trace.jobs {
        let spec = JobSpec::rigid(job.id, Arc::new(job.app), job.nodes, job.submit)
            .with_agent(agent_for(shape.power, job.app.profile));
        set.enclaves_mut()[job.enclave].scheduler_mut().submit(spec);
    }
    for &(at, watts) in &trace.budget[1..] {
        set.schedule_site_budget_change(at, Some(watts), EmergencyResponse::TightenCaps);
    }
    set
}

/// Summed instantaneous power of every enclave (replays deferred idle-node
/// physics up to each enclave's clock).
pub fn site_power_w(set: &mut EnclaveSet) -> f64 {
    set.enclaves_mut()
        .iter_mut()
        .map(|e| e.scheduler_mut().system_power_w())
        .sum()
}

/// A fleet workload at one seed.
pub struct Fleet {
    pub shape: FleetShape,
    pub seed: u64,
}

/// Set-up output: the site ready to drive, plus the trace it replays.
pub struct Site {
    set: EnclaveSet,
    trace: SiteTrace,
}

fn span<'a>(trace: Option<&'a TraceCollector>, name: &str) -> Option<SpanGuard<'a>> {
    trace.map(|c| c.span(name))
}

impl Workload for Fleet {
    type State = Site;

    fn setup(&self, trace: Option<&TraceCollector>) -> Site {
        let root = span(trace, "fleet.setup");
        let child = |name: &str| root.as_ref().map(|r| r.child(name));
        let g = child("apps.trace_gen");
        let site_trace = generate(&self.shape, self.seed);
        drop(g);
        let g = child("node.fleet_build");
        let nodes = build_nodes(&self.shape, self.seed);
        drop(g);
        let g = child("rm.submit");
        let set = submit(&self.shape, self.seed, &site_trace, nodes);
        drop(g);
        Site {
            set,
            trace: site_trace,
        }
    }

    fn drive(&self, site: Site, trace: Option<&TraceCollector>) -> Pass {
        let Site {
            mut set,
            trace: input,
        } = site;
        let shape = &self.shape;
        let windows = shape.windows();
        let mut ops_s = Vec::with_capacity(windows as usize);
        let mut powers = Vec::with_capacity(windows as usize);
        let mut over = 0u64;
        // Jobs not yet arrived per enclave, for the waiting-queue samples.
        let mut arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); shape.enclaves];
        for j in &input.jobs {
            arrivals[j.enclave].push(j.submit);
        }
        arrivals.iter_mut().for_each(|a| a.sort_unstable());
        let (mut waiting_sum, mut running_sum) = (0usize, 0usize);
        let popped_before: Vec<u64> = set
            .enclaves()
            .iter()
            .map(|e| e.scheduler().events().popped())
            .collect();

        let drive_start = Instant::now();
        for w in 1..=windows {
            let t = SimTime::from_secs(w * shape.window_s);
            let t0 = Instant::now();
            let op = span(trace, "fleet.op");
            let g = op.as_ref().map(|o| o.child("rm.window"));
            set.run_until(QUANTUM, t);
            drop(g);
            let g = op.as_ref().map(|o| o.child("rm.power_sample"));
            let power = site_power_w(&mut set);
            drop(g);
            drop(op);
            ops_s.push(t0.elapsed().as_secs_f64());
            if power > input.budget_at(t) * OVER_BUDGET_TOLERANCE {
                over += 1;
            }
            powers.push(power);
            if trace.is_some() {
                for (e, enc) in set.enclaves().iter().enumerate() {
                    let not_arrived = arrivals[e].len() - arrivals[e].partition_point(|&a| a <= t);
                    waiting_sum += enc.scheduler().queued().saturating_sub(not_arrived);
                    running_sum += enc.scheduler().running();
                }
            }
        }
        let horizon = SimTime::from_secs(shape.horizon_s);
        set.run_until_drained(QUANTUM, horizon);
        let g = span(trace, "rm.site_metrics");
        let m = set.site_metrics();
        drop(g);
        let drive_s = drive_start.elapsed().as_secs_f64();

        // Output checks.
        let mut violations = Vec::new();
        let mut fp = String::new();
        let mut unfinished = 0usize;
        for enc in set.enclaves() {
            let s = enc.scheduler();
            unfinished += s.queued() + s.running();
            for r in s.records() {
                if !(r.submit <= r.start && r.start <= r.end) {
                    violations.push(format!("job {} times out of order: {r:?}", r.id));
                }
                if !(r.energy_j.is_finite() && r.energy_j > 0.0 && r.work.is_finite()) {
                    violations.push(format!("job {} energy or work not finite/positive", r.id));
                }
                let _ = write!(fp, "{r:?};");
            }
            let _ = write!(fp, "rej{:?};fail{:?};", s.rejected(), s.failed());
        }
        if m.submitted != input.jobs.len() {
            violations.push(format!(
                "submitted {} of {} generated jobs",
                m.submitted,
                input.jobs.len()
            ));
        }
        if m.submitted != m.completed + m.failed + m.rejected + unfinished {
            violations.push(format!(
                "conservation: submitted {} != completed {} + failed {} + rejected {} + unfinished {unfinished}",
                m.submitted, m.completed, m.failed, m.rejected
            ));
        }
        if !(m.system_energy_j.is_finite() && m.system_energy_j > 0.0) {
            violations.push(format!(
                "site energy {} not finite/positive",
                m.system_energy_j
            ));
        }
        if powers.iter().any(|p| !(p.is_finite() && *p > 0.0)) {
            violations.push("a site power sample is not finite/positive".to_string());
        }
        let _ = write!(
            fp,
            "energy{:x};events{};powers{:?}",
            m.system_energy_j.to_bits(),
            m.events_processed,
            powers.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );

        let sim = Sim {
            work_per_kj: m.total_work / (m.system_energy_j / 1000.0),
            mean_wait_s: m.mean_wait_s,
            over_budget_frac: over as f64 / windows as f64,
            best_objective: 0.0,
        };
        let mut pass = Pass {
            fingerprint: hash64(fp.as_bytes()),
            attempted: input.jobs.len() as u64,
            failed: (m.failed + m.rejected + unfinished) as u64,
            violations,
            ops_s,
            drive_s,
            work: shape.nodes() as f64 * shape.horizon_s as f64 / 3600.0,
            sim,
            ..Pass::default()
        };

        if let Some(collector) = trace {
            let t = collector.snapshot();
            let events: Vec<u64> = set
                .enclaves()
                .iter()
                .zip(&popped_before)
                .map(|(e, before)| e.scheduler().events().popped() - before)
                .collect();
            let total_events: u64 = events.iter().sum();
            let count = |kind: &str| -> f64 {
                set.enclaves()
                    .iter()
                    .map(|e| e.scheduler().trace().of_kind(kind).count())
                    .sum::<usize>() as f64
            };
            let capacity: f64 = set
                .enclaves()
                .iter()
                .map(|e| e.nodes() as f64 * e.scheduler().now().as_secs_f64())
                .sum();
            let alloc = m.utilization * capacity;
            let window_ns = span_ns(&t, "rm.window");
            let sample_ns = span_ns(&t, "rm.power_sample");
            let l = &mut pass.layers;
            l.insert("apps.trace_gen_ns", span_ns(&t, "apps.trace_gen"));
            l.insert("node.fleet_build_ns", span_ns(&t, "node.fleet_build"));
            l.insert("rm.submit_ns", span_ns(&t, "rm.submit"));
            l.insert("rm.window_ns", window_ns);
            l.insert("rm.windows", windows as f64);
            l.insert("rm.events", total_events as f64);
            l.insert("rm.ns_per_event", window_ns / total_events as f64);
            l.insert(
                "rm.enclave_max_event_share",
                events.iter().copied().max().unwrap_or(0) as f64 / total_events as f64,
            );
            l.insert("rm.launches", count("job_start"));
            l.insert("rm.backfills", count("backfill"));
            l.insert("rm.pauses", count("job_pause"));
            l.insert("rm.budget_changes", count("budget_change"));
            l.insert("rm.rejected", m.rejected as f64);
            l.insert("rm.failed", m.failed as f64);
            l.insert("rm.waiting_jobs_mean", waiting_sum as f64 / windows as f64);
            l.insert("rm.running_jobs_mean", running_sum as f64 / windows as f64);
            l.insert("rm.alloc_node_s", alloc);
            l.insert("rm.ns_per_alloc_node_s", window_ns / alloc);
            l.insert("rm.power_sample_ns", sample_ns);
            l.insert("rm.idle_node_s", capacity - alloc);
            l.insert("rm.ns_per_idle_node_s", sample_ns / (capacity - alloc));
            l.insert("rm.site_metrics_ns", span_ns(&t, "rm.site_metrics"));
            l.insert("rm.utilization", m.utilization);
        }
        pass
    }

    fn setups_per_pass(&self) -> usize {
        // Set-up is about a millisecond; a median of many steadies it.
        25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: FleetShape = FleetShape {
        enclaves: 2,
        nodes_per_enclave: 16,
        jobs: 40,
        horizon_s: 3 * 3600,
        window_s: 300,
        arrivals_until: 0.6,
        work_scale: 0.3,
        power: Power::Managed,
        dr: Some((1800, 3600, 900)),
    };

    #[test]
    fn one_seed_gives_one_trace() {
        for shape in [LOADED, SPARSE] {
            assert_eq!(generate(&shape, 7), generate(&shape, 7));
            assert_ne!(generate(&shape, 7), generate(&shape, 8));
        }
    }

    #[test]
    fn trace_offers_the_same_load_on_every_seed() {
        let mix = |seed| {
            let mut jobs: Vec<(u64, usize, Profile)> = generate(&LOADED, seed)
                .jobs
                .iter()
                .map(|j| (j.app.work_per_node.to_bits(), j.nodes, j.app.profile))
                .collect();
            jobs.sort_by_key(|&(w, n, p)| (w, n, p as u8));
            jobs
        };
        assert_eq!(mix(1), mix(2));
        let t = generate(&LOADED, 3);
        let last = t.jobs.iter().map(|j| j.submit).max().expect("jobs");
        assert_eq!(
            last,
            SimTime::from_secs((LOADED.horizon_s as f64 * LOADED.arrivals_until) as u64)
        );
    }

    /// Everything the drive can observe, in a comparable form.
    fn outcome(set: &mut EnclaveSet) -> (String, u64, u64) {
        let records: String = set
            .enclaves()
            .iter()
            .map(|e| format!("{:?}{:?}", e.records(), e.scheduler().rejected()))
            .collect();
        let m = set.site_metrics();
        (records, m.system_energy_j.to_bits(), m.events_processed)
    }

    fn built(shape: &FleetShape, seed: u64) -> EnclaveSet {
        let trace = generate(shape, seed);
        submit(shape, seed, &trace, build_nodes(shape, seed))
    }

    #[test]
    fn windowed_power_sampled_drive_is_observation_neutral() {
        let sparse = FleetShape {
            enclaves: 2,
            nodes_per_enclave: 64,
            power: Power::StaticCaps,
            dr: None,
            ..SMALL
        };
        for shape in [SMALL, sparse] {
            let horizon = SimTime::from_secs(shape.horizon_s);
            let mut once = built(&shape, 11);
            once.run_until_drained(QUANTUM, horizon);
            let mut windowed = built(&shape, 11);
            for w in 1..=shape.windows() {
                windowed.run_until(QUANTUM, SimTime::from_secs(w * shape.window_s));
                site_power_w(&mut windowed);
            }
            windowed.run_until_drained(QUANTUM, horizon);
            let a = outcome(&mut once);
            assert!(
                a.0.contains("JobRecord"),
                "the small fleet must complete jobs"
            );
            assert_eq!(a, outcome(&mut windowed), "{shape:?}");
        }
    }

    #[test]
    fn traced_pass_matches_untraced_pass() {
        let fleet = Fleet {
            shape: SMALL,
            seed: 5,
        };
        let plain = fleet.drive(fleet.setup(None), None);
        let collector = TraceCollector::new();
        let traced = fleet.drive(fleet.setup(Some(&collector)), Some(&collector));
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert_eq!(plain.failed, 0);
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert_eq!(plain.sim, traced.sim);
        assert!(traced.layers["rm.events"] > 0.0);
        assert_eq!(collector.dropped(), 0);
    }
}
