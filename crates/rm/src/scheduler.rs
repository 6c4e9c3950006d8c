//! Power-aware batch scheduler (SLURM-like).
//!
//! FCFS with EASY backfill over a fleet of managed nodes, extended with the
//! power-awareness the paper's system layer requires:
//!
//! - a **system power budget**: a job is admitted only when its power
//!   reservation fits next to the running jobs' reservations and the idle
//!   fleet's draw;
//! - **per-job power assignment** ([`crate::policy::PowerAssignment`]): the
//!   budget handed to the job's runtime system (§3.1.1 "how much power to
//!   reassign to a running job"), enforced out-of-band with node power caps
//!   when the job carries no power-aware runtime;
//! - **moldability**: node counts chosen at launch within the job's range
//!   and the application's node-count rule;
//! - job-attached runtime systems ([`crate::spec::AgentKind`]).
//!
//! Allocation moves `NodeManager`s out of the idle pool into the running job
//! and back on completion, which keeps borrow-handling trivial and mirrors
//! real exclusive node allocation.
//!
//! # Two drain engines, one tick
//!
//! The scheduler advances with a single physics tick ([`Scheduler::step`]),
//! but offers two drain loops over it:
//!
//! - the **per-tick oracle** ([`Scheduler::run_until_drained_per_tick`])
//!   re-runs the scheduling pass every quantum, like a naive SLURM loop;
//! - the **event-driven engine** ([`Scheduler::run_until_drained`]) keeps a
//!   time-ordered [`EventHeap`] of arrivals, completions, control ticks and
//!   budget changes, re-plans only when an event could change the schedule
//!   head (a dirty flag), defers idle-node physics until observed, and
//!   fast-forwards through stretches where nothing runs.
//!
//! The two engines produce **byte-identical** [`JobRecord`] streams: every
//! quantity the scheduling pass reads (reservations, idle counts,
//! launch-time completion estimates) is *event-stable* — constant between
//! events — so skipping a re-plan can never skip a launch the oracle would
//! have made. `tests/event_equivalence.rs` proves this over a proptest grid
//! of seeds, quanta and arrival patterns, including the fig1/fig3 workloads.

use crate::decision::{Decision, DecisionLog};
use crate::events::{EventHeap, EventKind};
use crate::policy::{PowerAssignment, SystemPowerPolicy};
use crate::spec::{JobId, JobSpec};
use pstack_apps::MpiModel;
use pstack_node::{NodeManager, Signal};
use pstack_runtime::geopm::{Endpoint, PolicyUpdate};
use pstack_runtime::{ArbiterMode, GeopmPolicy, JobRunner, RuntimeAgent};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};

/// Completed-job accounting record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job identifier.
    pub id: JobId,
    /// Submission time.
    pub submit: SimTime,
    /// Launch time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Nodes the job ran on.
    pub nodes: usize,
    /// Power budget assigned at launch, if any.
    pub power_budget_w: Option<f64>,
    /// Energy the job's nodes consumed while allocated, joules.
    pub energy_j: f64,
    /// Total application work completed.
    pub work: f64,
}

impl JobRecord {
    /// Queue wait time.
    pub fn wait(&self) -> SimDuration {
        self.start.since(self.submit)
    }

    /// Execution time.
    pub fn runtime(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Which idle nodes the RM hands to a new job (paper §3.1.1 static
/// interaction: "which nodes (or compute resources) to select for job launch
/// for managing inefficiencies in the system such as thermal hot spots, and
/// processor manufacturing variation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelection {
    /// Whatever happens to be at the end of the idle pool.
    Arbitrary,
    /// Prefer the nodes with the lowest package temperature (thermal-aware).
    CoolestFirst,
    /// Prefer the nodes drawing the least idle power (variation-aware: low
    /// leakage silicon runs cheaper at iso-frequency).
    MostEfficientFirst,
}

/// How the RM sheds load when the system budget drops below what is already
/// committed (paper Table 1, system layer: "canceling running jobs,
/// pausing/restarting jobs" and out-of-band power controls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmergencyResponse {
    /// Suspend the most recently started jobs until the rest fits.
    PauseJobs,
    /// Keep everything running but tighten every job's power cap
    /// proportionally (out-of-band enforcement).
    TightenCaps,
}

/// Aggregate metrics over a scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerMetrics {
    /// Jobs completed.
    pub completed: usize,
    /// Jobs completed per hour of simulated time.
    pub jobs_per_hour: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_s: f64,
    /// Node-seconds allocated / node-seconds available.
    pub utilization: f64,
    /// Total system energy (all nodes, whole horizon), joules.
    pub system_energy_j: f64,
    /// Mean system power over the horizon, watts.
    pub mean_system_power_w: f64,
    /// Total application work completed.
    pub total_work: f64,
}

struct RunningJob {
    spec: JobSpec,
    nodes: Vec<NodeManager>,
    runner: JobRunner,
    agents: Vec<Box<dyn RuntimeAgent>>,
    start: SimTime,
    start_energy_j: f64,
    reservation_w: f64,
    budget_w: Option<f64>,
    /// Paused by a power emergency: execution suspended, nodes idling, the
    /// pre-pause reservation remembered for resume.
    paused: Option<f64>,
    /// GEOPM endpoint for dynamic policy renegotiation, when the job's
    /// runtime provides one.
    endpoint: Option<Endpoint>,
    /// Efficiency tracking for dynamic reassignment: last sampled
    /// (work, energy).
    last_sample: (f64, f64),
    /// Smoothed efficiency, work per joule.
    efficiency_ema: Option<f64>,
    /// Launch-time completion estimate used as the EASY backfill shadow.
    /// Fixed at launch so the estimate is *event-stable*: between events the
    /// backfill relation can only expire, never newly hold, which is what
    /// lets the event-driven engine skip re-planning quiescent ticks.
    predicted_end: SimTime,
}

/// An idle node plus the time its idle physics has been integrated to.
/// The event-driven drain defers idle stepping (nobody reads an idle node
/// mid-stretch); the deferred quanta are replayed before any observation,
/// fast-forwarding from the node's idle fixed point once it settles, so the
/// node state is bit-identical to eager stepping.
struct IdleSlot {
    nm: NodeManager,
    synced_to: SimTime,
}

/// The power-aware scheduler.
///
/// # Example
///
/// ```
/// use pstack_hwmodel::{NodeConfig, VariationModel};
/// use pstack_node::NodeManager;
/// use pstack_rm::{JobSpec, PowerAssignment, Scheduler, SystemPowerPolicy};
/// use pstack_apps::synthetic::{Profile, SyntheticApp};
/// use pstack_sim::{SeedTree, SimDuration, SimTime};
/// use std::sync::Arc;
///
/// let seeds = SeedTree::new(7);
/// let fleet = NodeManager::fleet(
///     4, NodeConfig::server_default(), &VariationModel::typical(), &seeds,
/// );
/// let policy = SystemPowerPolicy::budgeted(4.0 * 320.0, PowerAssignment::FairShare);
/// let mut sched = Scheduler::new(fleet, policy, seeds.subtree("sched"));
/// sched.submit(JobSpec::rigid(
///     1,
///     Arc::new(SyntheticApp::new(Profile::Mixed, 5.0, 5)),
///     2,
///     SimTime::ZERO,
/// ));
/// sched.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(600));
/// assert_eq!(sched.records().len(), 1);
/// ```
pub struct Scheduler {
    now: SimTime,
    idle: Vec<IdleSlot>,
    /// Failed nodes: powered off (no idle physics, no power draw) until a
    /// [`EventKind::NodeRecover`] returns them to the idle pool.
    down: Vec<IdleSlot>,
    total_nodes: usize,
    queue: VecDeque<JobSpec>,
    running: Vec<RunningJob>,
    records: Vec<JobRecord>,
    policy: SystemPowerPolicy,
    mpi: MpiModel,
    seeds: SeedTree,
    log: DecisionLog,
    rejected: Vec<JobId>,
    allocated_node_seconds: f64,
    /// Node power floor for viable FairShare admission, watts per node.
    min_viable_node_w: f64,
    backfill: bool,
    selection: NodeSelection,
    /// Dynamic power reassignment: re-divide the system budget across
    /// endpoint-carrying jobs by measured efficiency, at this period.
    reassign_period: Option<SimDuration>,
    next_reassign: SimTime,
    /// Pending arrivals, budget changes, ticks and completions.
    events: EventHeap,
    /// Whether an event since the last scheduling pass could change the
    /// schedule head. The event-driven engine skips `schedule()` when clear.
    sched_dirty: bool,
    /// Quantum of the most recent tick, used to replay deferred idle physics.
    last_quantum: SimDuration,
    /// Queue positions the backfill pass examines per scheduling pass.
    backfill_depth: usize,
    /// Override for the job runners' integration substep ceiling.
    runner_max_substep: Option<SimDuration>,
    /// Memoized `(job id, node count) → total work` for backfill estimates.
    work_cache: HashMap<(u64, usize), f64>,
    /// Memoized power reservation sum, invalidated on any mutation of the
    /// running set, the idle pool or any reservation.
    reserved_memo: Cell<Option<f64>>,
    /// Memoized allocated-node count, same invalidation discipline.
    busy_memo: Cell<Option<usize>>,
    /// Jobs ever submitted (requeues excluded), for conservation checks.
    submitted: usize,
    /// Kill-and-requeue attempts consumed per job id.
    retries: HashMap<u64, u32>,
    /// Requeue budget per job before it is declared permanently failed.
    max_job_retries: u32,
    /// Jobs that exhausted their retry budget.
    failed: Vec<JobId>,
    /// Stuck power-cap actuators: node id → expiry. RM out-of-band cap
    /// writes to these nodes are dropped until the expiry passes.
    stuck_caps: HashMap<usize, SimTime>,
    /// Count of cap writes dropped on stuck actuators.
    stuck_cap_drops: u64,
    /// Telemetry dropout windows fired so far.
    telemetry_dropouts: u64,
    /// Until when the fleet aggregation tree is dropping our samples.
    telemetry_blackout_until: SimTime,
    /// Deferred idle quanta replayed from a settled node's fixed point.
    idle_fast_forwarded: u64,
}

impl Scheduler {
    /// Create a scheduler over `nodes` with `policy`.
    pub fn new(nodes: Vec<NodeManager>, policy: SystemPowerPolicy, seeds: SeedTree) -> Self {
        assert!(!nodes.is_empty(), "cluster needs nodes");
        let total_nodes = nodes.len();
        Scheduler {
            now: SimTime::ZERO,
            idle: nodes
                .into_iter()
                .map(|nm| IdleSlot {
                    nm,
                    synced_to: SimTime::ZERO,
                })
                .collect(),
            total_nodes,
            queue: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
            policy,
            mpi: MpiModel::typical(),
            seeds,
            log: DecisionLog::default(),
            rejected: Vec::new(),
            allocated_node_seconds: 0.0,
            min_viable_node_w: 180.0,
            backfill: true,
            selection: NodeSelection::Arbitrary,
            reassign_period: None,
            next_reassign: SimTime::ZERO,
            events: EventHeap::new(),
            sched_dirty: true,
            last_quantum: SimDuration::from_secs(1),
            backfill_depth: 256,
            runner_max_substep: None,
            work_cache: HashMap::new(),
            reserved_memo: Cell::new(None),
            busy_memo: Cell::new(None),
            down: Vec::new(),
            submitted: 0,
            retries: HashMap::new(),
            max_job_retries: 3,
            failed: Vec::new(),
            stuck_caps: HashMap::new(),
            stuck_cap_drops: 0,
            telemetry_dropouts: 0,
            telemetry_blackout_until: SimTime::ZERO,
            idle_fast_forwarded: 0,
        }
    }

    /// Enable fully dynamic power reassignment (§3.2.2 mode 3 / §3.1.4): at
    /// each `period`, the RM measures every endpoint-carrying job's power
    /// efficiency (work per joule), re-divides the system budget in
    /// proportion to `nodes × efficiency`, and pushes the new budgets to the
    /// jobs' GEOPM balancers through their endpoints.
    pub fn with_dynamic_power_reassignment(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        self.reassign_period = Some(period);
        self
    }

    /// Choose the node-selection policy for launches.
    pub fn with_node_selection(mut self, selection: NodeSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Disable EASY backfill (pure FCFS), for ablation experiments.
    pub fn without_backfill(mut self) -> Self {
        self.backfill = false;
        self
    }

    /// Override the communication/imbalance model for executed jobs.
    pub fn with_mpi(mut self, mpi: MpiModel) -> Self {
        self.mpi = mpi;
        self
    }

    /// Cap how many queue positions each backfill pass examines. Fleet-scale
    /// queues (tens of thousands of jobs) make a full scan per pass
    /// quadratic; the cap bounds it while leaving small queues exhaustive.
    pub fn with_backfill_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "depth must be positive");
        self.backfill_depth = depth;
        self
    }

    /// Override the job runners' integration substep ceiling (default
    /// 250 ms). Fleet benchmarks coarsen it to trade integration resolution
    /// for wall-clock speed; both drain engines share the override, so
    /// equivalence is unaffected.
    pub fn with_runner_max_substep(mut self, substep: SimDuration) -> Self {
        assert!(!substep.is_zero(), "substep must be positive");
        self.runner_max_substep = Some(substep);
        self
    }

    /// Cap how many kill-and-requeue attempts a job gets before it is
    /// declared permanently failed (default 3).
    pub fn with_max_job_retries(mut self, retries: u32) -> Self {
        self.max_job_retries = retries;
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Nodes in the cluster (idle + allocated).
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Completed-job records.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Jobs rejected as infeasible under the machine size or power policy.
    pub fn rejected(&self) -> &[JobId] {
        &self.rejected
    }

    /// Jobs ever submitted through [`Scheduler::submit`] (requeues of a
    /// killed job do not count twice). With the drain complete,
    /// `submitted == completed + failed + rejected` — the conservation law
    /// the E11 chaos grid asserts.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Jobs that exhausted their retry budget after fault kills.
    pub fn failed(&self) -> &[JobId] {
        &self.failed
    }

    /// Nodes currently failed (powered off, out of the schedulable pool).
    pub fn down_nodes(&self) -> usize {
        self.down.len()
    }

    /// Nodes currently alive (idle or allocated).
    pub fn alive_nodes(&self) -> usize {
        self.total_nodes - self.down.len()
    }

    /// Hardware ids of every node this scheduler owns (idle, allocated and
    /// down), sorted. Fleet fault plans use this to address nodes.
    pub fn node_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .idle
            .iter()
            .map(|s| s.nm.id().0)
            .chain(self.down.iter().map(|s| s.nm.id().0))
            .chain(
                self.running
                    .iter()
                    .flat_map(|j| j.nodes.iter().map(|nm| nm.id().0)),
            )
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Telemetry dropout windows fired so far.
    pub fn telemetry_dropouts(&self) -> u64 {
        self.telemetry_dropouts
    }

    /// Whether the fleet aggregation tree is currently dropping this
    /// scheduler's samples.
    pub fn telemetry_suppressed(&self) -> bool {
        self.now < self.telemetry_blackout_until
    }

    /// RM out-of-band cap writes dropped on stuck actuators so far.
    pub fn stuck_cap_drops(&self) -> u64 {
        self.stuck_cap_drops
    }

    /// Deferred idle quanta replayed so far from a settled node's fixed
    /// point instead of its physics (see [`NodeManager::step_idle_for`]).
    pub fn idle_quanta_fast_forwarded(&self) -> u64 {
        self.idle_fast_forwarded
    }

    /// The decision log: every submit, launch, backfill, pause, budget
    /// change, fault and completion, in emission order.
    pub fn trace(&self) -> &DecisionLog {
        &self.log
    }

    /// The pending event heap (diagnostics, checkpointing).
    pub fn events(&self) -> &EventHeap {
        &self.events
    }

    /// Replace the event heap, e.g. when resuming from a
    /// `pstack-ckpt` snapshot taken mid-drain.
    pub fn restore_events(&mut self, events: EventHeap) {
        self.events = events;
        self.sched_dirty = true;
    }

    /// Package temperatures of the currently idle nodes (diagnostics).
    pub fn idle_temperatures(&mut self) -> Vec<f64> {
        self.sync_idle_nodes();
        self.idle
            .iter()
            .map(|s| s.nm.read(Signal::MaxTemperatureC))
            .collect()
    }

    /// Cancel a job (paper Table 1, system layer: "canceling running
    /// jobs"). Queued jobs are dropped; running jobs are terminated and
    /// their nodes returned. Returns whether the job was found.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
            self.queue.remove(pos);
            let running = false;
            self.log
                .record(self.now, Decision::JobCancel { job: id, running });
            self.sched_dirty = true;
            return true;
        }
        if let Some(pos) = self.running.iter().position(|j| j.spec.id == id) {
            let job = self.running.remove(pos);
            let running = true;
            self.log
                .record(self.now, Decision::JobCancel { job: id, running });
            for mut nm in job.nodes {
                // The runtime never ran its on_job_end: reset everything.
                nm.reset_all_knobs();
                self.idle.push(IdleSlot {
                    nm,
                    synced_to: self.now,
                });
            }
            self.sched_dirty = true;
            self.invalidate_accounting();
            return true;
        }
        false
    }

    /// Submit a job (enqueued in arrival order). Its arrival enters the
    /// event heap so the event-driven drain wakes exactly at submit time.
    pub fn submit(&mut self, spec: JobSpec) {
        let submit = Decision::JobSubmit {
            job: spec.id,
            min_nodes: spec.min_nodes,
            max_nodes: spec.max_nodes,
        };
        self.log.record(self.now.max(spec.submit), submit);
        self.events.push(spec.submit, EventKind::Arrival(spec.id));
        self.sched_dirty = true;
        self.submitted += 1;
        self.queue.push_back(spec);
    }

    /// Schedule a system-budget change to apply at `at` (demand-response /
    /// corridor events known in advance). Both drain engines apply it at the
    /// first tick boundary at or after `at`.
    pub fn schedule_budget_change(
        &mut self,
        at: SimTime,
        budget_w: Option<f64>,
        response: EmergencyResponse,
    ) {
        self.events
            .push(at, EventKind::BudgetChange { budget_w, response });
    }

    /// Schedule a node crash at `at`. An idle node powers off; a node
    /// inside a running job kills it (requeued under the retry budget).
    pub fn schedule_node_fail(&mut self, at: SimTime, node: usize) {
        self.events.push(at, EventKind::NodeFail { node });
    }

    /// Schedule a failed node's reboot at `at`: knobs reset, back to the
    /// idle pool. A no-op if the node is not down when the event fires.
    pub fn schedule_node_recover(&mut self, at: SimTime, node: usize) {
        self.events.push(at, EventKind::NodeRecover { node });
    }

    /// Schedule a software abort of `id` at `at` (a no-op unless the job is
    /// running when the event fires).
    pub fn schedule_job_fail(&mut self, at: SimTime, id: JobId) {
        self.events.push(at, EventKind::JobFail(id));
    }

    /// Schedule a stuck power-cap actuator on `node` from `at` to `until`:
    /// RM out-of-band cap writes to the node are dropped in that window.
    pub fn schedule_cap_stick(&mut self, at: SimTime, node: usize, until: SimTime) {
        self.events.push(at, EventKind::CapStick { node, until });
    }

    /// Schedule a telemetry dropout window from `at` to `until` in the
    /// fleet aggregation tree (observability only; never changes scheduling).
    pub fn schedule_telemetry_dropout(&mut self, at: SimTime, until: SimTime) {
        self.events.push(at, EventKind::TelemetryDropout { until });
    }

    /// Instantaneous system power: running nodes + idle nodes, watts.
    pub fn system_power_w(&mut self) -> f64 {
        self.sync_idle_nodes();
        let running: f64 = self
            .running
            .iter()
            .flat_map(|j| j.nodes.iter())
            .map(|n| n.read(Signal::NodePowerWatts))
            .sum();
        let idle: f64 = self
            .idle
            .iter()
            .map(|s| s.nm.read(Signal::NodePowerWatts))
            .sum();
        running + idle
    }

    /// Total energy consumed by every node so far, joules. Down nodes are
    /// powered off (no draw while down) but keep the energy they consumed
    /// before failing.
    pub fn system_energy_j(&mut self) -> f64 {
        self.sync_idle_nodes();
        self.running
            .iter()
            .flat_map(|j| j.nodes.iter())
            .map(|n| n.read(Signal::NodeEnergyJoules))
            .sum::<f64>()
            + self
                .idle
                .iter()
                .map(|s| s.nm.read(Signal::NodeEnergyJoules))
                .sum::<f64>()
            + self
                .down
                .iter()
                .map(|s| s.nm.read(Signal::NodeEnergyJoules))
                .sum::<f64>()
    }

    /// Replay deferred idle-node physics up to the current time.
    fn sync_idle_nodes(&mut self) {
        let (now, quantum) = (self.now, self.last_quantum);
        for slot in &mut self.idle {
            self.idle_fast_forwarded += Self::catch_up_idle(slot, now, quantum);
        }
    }

    /// Replay one slot's deferred idle physics up to `target`: its whole
    /// quanta through [`NodeManager::step_idle_for`], then any shorter tail
    /// as one step, exactly the steps the eager oracle takes, so the node
    /// state after catch-up is bit-identical. Returns the quanta
    /// fast-forwarded from the node's idle fixed point.
    fn catch_up_idle(slot: &mut IdleSlot, target: SimTime, quantum: SimDuration) -> u64 {
        if slot.synced_to >= target || quantum.is_zero() {
            return 0;
        }
        let whole = target.since(slot.synced_to).as_micros() / quantum.as_micros();
        let skipped = slot.nm.step_idle_for(slot.synced_to, quantum, whole);
        slot.synced_to += quantum * whole;
        if slot.synced_to < target {
            slot.nm
                .step_idle(slot.synced_to, target.since(slot.synced_to));
            slot.synced_to = target;
        }
        skipped
    }

    fn invalidate_accounting(&self) {
        self.reserved_memo.set(None);
        self.busy_memo.set(None);
    }

    /// Power currently reserved (running jobs + idle estimate), watts.
    /// Paused jobs reserve only their nodes' idle draw. Memoized: the fresh
    /// sum is cached until the next mutation, so admission probes are O(1).
    fn reserved_w(&self) -> f64 {
        if let Some(v) = self.reserved_memo.get() {
            return v;
        }
        let jobs: f64 = self
            .running
            .iter()
            .map(|j| {
                if j.paused.is_some() {
                    self.policy.node_idle_estimate_w * j.nodes.len() as f64
                } else {
                    j.reservation_w
                }
            })
            .sum();
        let v = jobs + self.policy.node_idle_estimate_w * self.idle.len() as f64;
        self.reserved_memo.set(Some(v));
        v
    }

    /// Allocated-node count over all running jobs (paused included),
    /// memoized like [`Scheduler::reserved_w`].
    fn busy_nodes(&self) -> usize {
        if let Some(v) = self.busy_memo.get() {
            return v;
        }
        let v = self.running.iter().map(|j| j.nodes.len()).sum();
        self.busy_memo.set(Some(v));
        v
    }

    /// Change the system power budget at runtime (demand-response events,
    /// corridor renegotiation). If the new budget no longer covers committed
    /// reservations, `response` decides how load is shed; a later call with
    /// a looser budget resumes paused jobs and relaxes caps.
    pub fn set_system_budget(&mut self, budget_w: Option<f64>, response: EmergencyResponse) {
        self.policy.system_budget_w = budget_w;
        self.sched_dirty = true;
        self.invalidate_accounting();
        let change = Decision::BudgetChange { budget_w, response };
        self.log.record(self.now, change);
        let Some(budget) = budget_w else {
            self.resume_paused();
            return;
        };
        match response {
            EmergencyResponse::PauseJobs => {
                // Suspend newest-first until the commitment fits.
                while self.reserved_w() > budget {
                    let Some(victim) = self
                        .running
                        .iter_mut()
                        .filter(|j| j.paused.is_none())
                        .max_by_key(|j| j.start)
                    else {
                        break;
                    };
                    victim.paused = Some(victim.reservation_w);
                    let id = victim.spec.id;
                    self.invalidate_accounting();
                    self.log.record(self.now, Decision::JobPause(id));
                }
                self.resume_paused();
            }
            EmergencyResponse::TightenCaps => {
                let idle_w = self.policy.node_idle_estimate_w
                    * (self.idle.len()
                        + self
                            .running
                            .iter()
                            .filter(|j| j.paused.is_some())
                            .map(|j| j.nodes.len())
                            .sum::<usize>()) as f64;
                let busy_nodes: usize = self
                    .running
                    .iter()
                    .filter(|j| j.paused.is_none())
                    .map(|j| j.nodes.len())
                    .sum();
                if busy_nodes == 0 {
                    return;
                }
                let per_node = ((budget - idle_w) / busy_nodes as f64)
                    .max(self.policy.node_idle_estimate_w + 20.0);
                let now = self.now;
                for job in self.running.iter_mut().filter(|j| j.paused.is_none()) {
                    job.reservation_w = per_node * job.nodes.len() as f64;
                    job.budget_w = Some(job.reservation_w);
                    // Degraded-mode clamp propagation: a stuck actuator keeps
                    // its old (looser) cap, so the job's responsive nodes
                    // absorb the difference — the job stays inside its
                    // tightened reservation, and the site inside the
                    // emergency budget, for as long as the stick lasts.
                    let stuck: Vec<bool> = job
                        .nodes
                        .iter()
                        .map(|nm| matches!(self.stuck_caps.get(&nm.id().0), Some(&u) if now < u))
                        .collect();
                    let stuck_w: f64 = job
                        .nodes
                        .iter()
                        .zip(&stuck)
                        .filter(|&(_, &s)| s)
                        .map(|(nm, _)| {
                            let cap = nm.read(Signal::PowerCapWatts);
                            if cap.is_finite() {
                                cap
                            } else {
                                self.policy.node_peak_estimate_w
                            }
                        })
                        .sum();
                    let responsive = stuck.iter().filter(|&&s| !s).count();
                    let comp_w = if responsive > 0 {
                        ((job.reservation_w - stuck_w) / responsive as f64)
                            .max(self.policy.node_idle_estimate_w + 20.0)
                    } else {
                        per_node
                    };
                    for (nm, &is_stuck) in job.nodes.iter_mut().zip(&stuck) {
                        if is_stuck {
                            self.stuck_cap_drops += 1;
                            continue;
                        }
                        nm.set_power_limit(now, comp_w, SimDuration::from_millis(10));
                    }
                    // A budget-consuming runtime would reassert its old caps
                    // at its next control tick; renegotiate through the
                    // endpoint so the tightened budget sticks.
                    if let Some(ep) = &job.endpoint {
                        ep.send(PolicyUpdate {
                            policy: GeopmPolicy::PowerBalancer {
                                job_budget_w: job.reservation_w,
                            },
                        });
                    }
                }
                self.invalidate_accounting();
            }
        }
    }

    /// Resume paused jobs (oldest first) while the budget allows.
    fn resume_paused(&mut self) {
        loop {
            let budget = self.policy.system_budget_w;
            // Find the oldest paused job whose reservation now fits.
            let reserved = self.reserved_w();
            let candidate = self
                .running
                .iter_mut()
                .filter(|j| j.paused.is_some())
                .min_by_key(|j| j.start);
            let Some(job) = candidate else { break };
            let resume_res = job.paused.expect("paused");
            let idle_equiv = self.policy.node_idle_estimate_w * job.nodes.len() as f64;
            let fits = match budget {
                None => true,
                Some(b) => reserved - idle_equiv + resume_res <= b,
            };
            if !fits {
                break;
            }
            job.reservation_w = resume_res;
            job.paused = None;
            let id = job.spec.id;
            self.invalidate_accounting();
            self.log.record(self.now, Decision::JobResume(id));
        }
    }

    /// Try to admit `spec` right now. Returns `(nodes, reservation, budget)`.
    ///
    /// Power-aware moldable sizing: when the preferred (largest) node count
    /// fails power admission, smaller legal counts are tried — the RM trades
    /// width for watts rather than leaving the job queued (§3.1.1: "how many
    /// nodes ... which nodes" are power decisions, not just placement).
    fn try_admit(&mut self, spec: &JobSpec) -> Option<(usize, f64, Option<f64>)> {
        let largest = spec.fit_nodes(self.idle.len())?;
        let rule = spec.app.node_rule();
        let candidates = (spec.min_nodes..=largest).rev().filter(|&n| rule.allows(n));
        for n in candidates {
            if let Some(rb) = self.admit_power_check(n) {
                return Some((n, rb.0, rb.1));
            }
        }
        None
    }

    /// Power admission for a prospective `n`-node launch.
    fn admit_power_check(&self, n: usize) -> Option<(f64, Option<f64>)> {
        // Power admission: nodes move from idle draw to job reservation.
        let headroom = match self.policy.system_budget_w {
            None => f64::INFINITY,
            Some(budget) => {
                budget - self.reserved_w() + self.policy.node_idle_estimate_w * n as f64
            }
        };
        let peak = self.policy.node_peak_estimate_w * n as f64;
        match self.policy.assignment {
            PowerAssignment::Unconstrained => {
                if peak > headroom {
                    return None;
                }
                Some((peak, None))
            }
            PowerAssignment::PerNodeCap(w) => {
                let r = w * n as f64;
                if r > headroom {
                    return None;
                }
                Some((r, Some(r)))
            }
            PowerAssignment::FairShare => {
                // Equal watts per allocated node across the whole system; the
                // admission triggers a re-division over running jobs (§3.1.1
                // dynamic interaction: "how much power to reassign to a
                // running job").
                let budget = self
                    .policy
                    .system_budget_w
                    .expect("FairShare requires a system budget");
                let busy = self.busy_nodes();
                let idle_after = self.idle.len() - n;
                let available = budget - self.policy.node_idle_estimate_w * idle_after as f64;
                let per_node =
                    (available / (busy + n) as f64).min(self.policy.node_peak_estimate_w);
                if per_node < self.min_viable_node_w {
                    return None;
                }
                let r = per_node * n as f64;
                Some((r, Some(r)))
            }
        }
    }

    /// Re-divide the system budget equally per allocated node and push the
    /// new budgets to running jobs (out-of-band caps for agentless jobs).
    fn rebalance_fair_share(&mut self) {
        let Some(budget) = self.policy.system_budget_w else {
            return;
        };
        let busy = self.busy_nodes();
        if busy == 0 {
            return;
        }
        let available = budget - self.policy.node_idle_estimate_w * self.idle.len() as f64;
        let per_node = (available / busy as f64)
            .min(self.policy.node_peak_estimate_w)
            .max(self.min_viable_node_w);
        let now = self.now;
        for job in &mut self.running {
            let n = job.nodes.len();
            job.reservation_w = per_node * n as f64;
            job.budget_w = Some(job.reservation_w);
            if matches!(job.spec.agent, crate::spec::AgentKind::None) {
                for nm in job.nodes.iter_mut() {
                    if matches!(self.stuck_caps.get(&nm.id().0), Some(&u) if now < u) {
                        self.stuck_cap_drops += 1;
                        continue;
                    }
                    nm.set_power_limit(now, per_node, SimDuration::from_millis(10));
                }
            }
        }
        self.invalidate_accounting();
    }

    /// Total work of `spec`'s workload at `n` nodes, memoized — backfill
    /// estimates rebuild identical workloads thousands of times otherwise.
    fn cached_total_work(&mut self, spec: &JobSpec, n: usize) -> f64 {
        let key = (spec.id.0, n);
        if let Some(&w) = self.work_cache.get(&key) {
            return w;
        }
        let w = spec.app.workload(n).total_work();
        self.work_cache.insert(key, w);
        w
    }

    fn launch(&mut self, spec: JobSpec, n: usize, reservation_w: f64, budget_w: Option<f64>) {
        // Node selection: order the idle pool so the preferred nodes sit at
        // the tail (which `split_off` hands to the job). Sorting reads node
        // state, so deferred idle physics must be replayed first; arbitrary
        // selection only needs the selected tail current.
        match self.selection {
            NodeSelection::Arbitrary => {
                let (now, quantum) = (self.now, self.last_quantum);
                let split_at = self.idle.len() - n;
                for slot in &mut self.idle[split_at..] {
                    self.idle_fast_forwarded += Self::catch_up_idle(slot, now, quantum);
                }
            }
            NodeSelection::CoolestFirst => {
                self.sync_idle_nodes();
                self.idle.sort_by(|a, b| {
                    let ta = a.nm.read(Signal::MaxTemperatureC);
                    let tb = b.nm.read(Signal::MaxTemperatureC);
                    tb.partial_cmp(&ta).expect("finite temperatures")
                });
            }
            NodeSelection::MostEfficientFirst => {
                self.sync_idle_nodes();
                self.idle.sort_by(|a, b| {
                    let pa = a.nm.read(Signal::NodePowerWatts);
                    let pb = b.nm.read(Signal::NodePowerWatts);
                    pb.partial_cmp(&pa).expect("finite power")
                });
            }
        }
        let split_at = self.idle.len() - n;
        let mut nodes: Vec<NodeManager> = self
            .idle
            .split_off(split_at)
            .into_iter()
            .map(|s| s.nm)
            .collect();
        let workload = spec.app.workload(n);
        let total_work = workload.total_work();
        let job_seeds = self.seeds.subtree(&format!("job-{}", spec.id.0));
        let mut runner = JobRunner::new(&workload, n, &self.mpi, &job_seeds, ArbiterMode::Gated);
        if let Some(substep) = self.runner_max_substep {
            runner.set_max_substep(substep);
        }
        // Out-of-band enforcement when the job has no power-aware runtime:
        // the RM caps the nodes directly (paper Table 1, system layer:
        // "Out-of-band power and/or energy controls").
        if let (Some(w), crate::spec::AgentKind::None) = (budget_w, &spec.agent) {
            let per_node = w / n as f64;
            let now = self.now;
            for nm in nodes.iter_mut() {
                if matches!(self.stuck_caps.get(&nm.id().0), Some(&u) if now < u) {
                    self.stuck_cap_drops += 1;
                    continue;
                }
                nm.set_power_limit(now, per_node, SimDuration::from_millis(10));
            }
        }
        let (agents, endpoint) = spec.agent.make_agents_with_endpoint(budget_w, n);
        let start_energy_j: f64 = nodes
            .iter()
            .map(|nm| nm.read(Signal::NodeEnergyJoules))
            .sum();
        let start = Decision::JobStart {
            job: spec.id,
            nodes: n,
            reservation_w,
            budget_w,
        };
        self.log.record(self.now, start);
        // Same conservative estimate the backfill pass uses for unstarted
        // jobs: workload at reference speed with 50% margin.
        let predicted_end = self.now + SimDuration::from_secs_f64(total_work * 1.5);
        self.running.push(RunningJob {
            spec,
            nodes,
            runner,
            agents,
            start: self.now,
            start_energy_j,
            reservation_w,
            budget_w,
            paused: None,
            endpoint,
            last_sample: (0.0, start_energy_j),
            efficiency_ema: None,
            predicted_end,
        });
        self.invalidate_accounting();
        if matches!(self.policy.assignment, PowerAssignment::FairShare) {
            self.rebalance_fair_share();
        }
    }

    /// Whether `spec` could ever be admitted, even on a fully idle system
    /// (any legal node count within the mold range counts).
    fn feasible(&self, spec: &JobSpec) -> bool {
        let Some(largest) = spec.fit_nodes(self.total_nodes) else {
            return false;
        };
        let Some(budget) = self.policy.system_budget_w else {
            return true;
        };
        let rule = spec.app.node_rule();
        (spec.min_nodes..=largest)
            .filter(|&n| rule.allows(n))
            .any(|n| {
                let idle_rest = self.policy.node_idle_estimate_w * (self.total_nodes - n) as f64;
                let headroom = budget - idle_rest;
                match self.policy.assignment {
                    PowerAssignment::Unconstrained => {
                        self.policy.node_peak_estimate_w * n as f64 <= headroom
                    }
                    PowerAssignment::PerNodeCap(w) => w * n as f64 <= headroom,
                    PowerAssignment::FairShare => self.min_viable_node_w * n as f64 <= headroom,
                }
            })
    }

    /// Run the scheduling pass: resume paused jobs, FCFS head, then EASY
    /// backfill. Clears the dirty flag: every input the pass reads is
    /// event-stable, so until the next event a re-run cannot launch anything
    /// this run did not.
    fn schedule(&mut self) {
        self.resume_paused();
        // Launch from the head while it fits; reject jobs that can never run
        // (too wide for the machine or power-infeasible under the policy).
        while let Some(head) = self.queue.front() {
            if head.submit > self.now {
                break;
            }
            let head = head.clone();
            if !self.feasible(&head) {
                self.queue.pop_front();
                self.rejected.push(head.id);
                self.log.record(self.now, Decision::JobReject(head.id));
                continue;
            }
            match self.try_admit(&head) {
                Some((n, r, b)) => {
                    self.queue.pop_front();
                    self.launch(head, n, r, b);
                }
                None => break,
            }
        }
        self.sched_dirty = false;
        if !self.backfill || self.queue.is_empty() {
            return;
        }
        // EASY backfill: jobs behind the head may start now if they are
        // projected to finish before the head's earliest possible start.
        let head_ready = self
            .queue
            .front()
            .map(|h| h.submit <= self.now)
            .unwrap_or(false);
        if !head_ready {
            return;
        }
        // Head's earliest start ≈ when enough running jobs have finished,
        // by their launch-time completion estimates.
        let head = self.queue.front().expect("nonempty").clone();
        let mut avail = self.idle.len();
        let mut shadow = SimTime::MAX;
        for job in &self.running {
            if head.fit_nodes(avail).is_some() {
                break;
            }
            avail += job.nodes.len();
            shadow = job.predicted_end;
        }
        if head.fit_nodes(self.idle.len()).is_some() {
            return; // head only blocked on power; skip backfill this pass
        }
        let mut i = 1; // skip the head
        let mut examined = 0usize;
        while i < self.queue.len() && examined < self.backfill_depth {
            let cand = self.queue[i].clone();
            examined += 1;
            if cand.submit > self.now {
                i += 1;
                continue;
            }
            // Conservative completion estimate for an unstarted job: derive
            // from its workload at reference speed with 50% margin.
            let est = {
                let n = cand.fit_nodes(self.idle.len());
                match n {
                    Some(n) => {
                        let w = self.cached_total_work(&cand, n);
                        self.now + SimDuration::from_secs_f64(w * 1.5)
                    }
                    None => SimTime::MAX,
                }
            };
            if est <= shadow {
                if let Some((n, r, b)) = self.try_admit(&cand) {
                    self.queue.remove(i);
                    self.log.record(self.now, Decision::Backfill(cand.id));
                    self.launch(cand, n, r, b);
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Measure per-job efficiency and push renegotiated budgets through the
    /// GEOPM endpoints (the §3.1.4 downward translation, live).
    fn dynamic_reassign(&mut self) {
        let Some(budget) = self.policy.system_budget_w else {
            return;
        };
        // Update efficiency EMAs from (work, energy) deltas.
        for job in self.running.iter_mut().filter(|j| j.paused.is_none()) {
            let work = job.runner.work_done_total();
            let energy: f64 = job
                .nodes
                .iter()
                .map(|nm| nm.read(Signal::NodeEnergyJoules))
                .sum();
            let (w0, e0) = job.last_sample;
            job.last_sample = (work, energy);
            let (dw, de) = (work - w0, energy - e0);
            if de > 1e-6 && dw >= 0.0 {
                let eff = dw / de;
                job.efficiency_ema = Some(match job.efficiency_ema {
                    Some(prev) => 0.6 * prev + 0.4 * eff,
                    None => eff,
                });
            }
        }
        // Re-divide over endpoint-carrying jobs with known efficiency.
        let idle_w = self.policy.node_idle_estimate_w * self.idle.len() as f64;
        let fixed: f64 = self
            .running
            .iter()
            .map(|j| match (&j.endpoint, j.efficiency_ema, j.paused) {
                (Some(_), Some(_), None) => 0.0,
                _ if j.paused.is_some() => self.policy.node_idle_estimate_w * j.nodes.len() as f64,
                _ => j.reservation_w,
            })
            .sum();
        let divisible = budget - idle_w - fixed;
        let weights: Vec<(usize, f64)> = self
            .running
            .iter()
            .enumerate()
            .filter_map(|(i, j)| match (&j.endpoint, j.efficiency_ema, j.paused) {
                (Some(_), Some(eff), None) => Some((i, j.nodes.len() as f64 * eff.max(1e-12))),
                _ => None,
            })
            .collect();
        let total_weight: f64 = weights.iter().map(|(_, w)| w).sum();
        if weights.is_empty() || total_weight <= 0.0 || divisible <= 0.0 {
            return;
        }
        let now = self.now;
        for (i, w) in weights {
            let job = &mut self.running[i];
            let share = (divisible * w / total_weight).max(balancer_floor_w(job.nodes.len()));
            job.reservation_w = share;
            job.budget_w = Some(share);
            let ep = job.endpoint.as_ref().expect("endpoint-carrying");
            ep.send(PolicyUpdate {
                policy: GeopmPolicy::PowerBalancer {
                    job_budget_w: share,
                },
            });
            let reassign = Decision::PowerReassign {
                job: job.spec.id,
                budget_w: share,
            };
            self.log.record(now, reassign);
        }
        // New reservations change admission headroom: re-plan at this tick.
        self.sched_dirty = true;
        self.invalidate_accounting();
    }

    /// Pop and apply every event due at or before the current time, in
    /// (time, kind, insertion) order.
    fn fire_due_events(&mut self) {
        while let Some(ev) = self.events.pop_due(self.now) {
            // The per-tick oracle gives every already-submitted job its
            // launch decision in the *previous* tick's end-of-tick
            // scheduling pass — before an unfired budget change or fault
            // due at or before this instant applies at tick top. The lean
            // engine may have skipped that pass (the arrival had not fired,
            // so the dirty flag was clear), so replay it before applying
            // any state-mutating event or the decision would see the new
            // budget / degraded capacity instead of the old state.
            if matches!(
                ev.kind,
                EventKind::BudgetChange { .. }
                    | EventKind::NodeFail { .. }
                    | EventKind::NodeRecover { .. }
                    | EventKind::JobFail(_)
                    | EventKind::CapStick { .. }
            ) && self.queue.iter().any(|j| j.submit <= self.now)
            {
                self.schedule();
            }
            match ev.kind {
                EventKind::BudgetChange { budget_w, response } => {
                    self.set_system_budget(budget_w, response);
                }
                EventKind::NodeFail { node } => self.fail_node(node),
                EventKind::NodeRecover { node } => self.recover_node(node),
                EventKind::JobFail(id) => self.fail_job(id),
                EventKind::CapStick { node, until } => {
                    self.stuck_caps.insert(node, until);
                    self.log
                        .record(self.now, Decision::CapStick { node, until });
                }
                EventKind::TelemetryDropout { until } => {
                    self.telemetry_dropouts += 1;
                    self.telemetry_blackout_until = self.telemetry_blackout_until.max(until);
                    let count = self.telemetry_dropouts;
                    let dropout = Decision::TelemetryDropout { count, until };
                    self.log.record(self.now, dropout);
                }
                EventKind::Arrival(_) => {
                    self.sched_dirty = true;
                }
                // Bookkeeping markers: their pop advances the heap cursor.
                EventKind::Tick | EventKind::Completion(_) => {}
            }
        }
    }

    /// Apply a node crash: an idle node powers off into the down pool; a
    /// node inside a running job kills the job (requeue under the retry
    /// budget). Unknown or already-down node ids are no-ops, so fault plans
    /// can over-schedule safely.
    fn fail_node(&mut self, node: usize) {
        if self.down.iter().any(|s| s.nm.id().0 == node) {
            return;
        }
        let (now, quantum) = (self.now, self.last_quantum);
        if let Some(pos) = self.idle.iter().position(|s| s.nm.id().0 == node) {
            let mut slot = self.idle.remove(pos);
            // Bring the deferred idle physics current before the power-off:
            // the energy consumed up to the crash instant is real.
            self.idle_fast_forwarded += Self::catch_up_idle(&mut slot, now, quantum);
            self.log.record(now, Decision::NodeFail { node, job: None });
            self.down.push(slot);
            self.sched_dirty = true;
            self.invalidate_accounting();
            return;
        }
        let Some(pos) = self
            .running
            .iter()
            .position(|j| j.nodes.iter().any(|nm| nm.id().0 == node))
        else {
            return;
        };
        let job = self.running.remove(pos);
        let job_id = Some(job.spec.id);
        self.log
            .record(now, Decision::NodeFail { node, job: job_id });
        self.kill_running(job, Some(node));
    }

    /// Reboot a failed node: knobs reset, idle physics restarts at the
    /// current instant (the node drew nothing while down).
    fn recover_node(&mut self, node: usize) {
        let Some(pos) = self.down.iter().position(|s| s.nm.id().0 == node) else {
            return;
        };
        let mut slot = self.down.remove(pos);
        slot.nm.reset_all_knobs();
        slot.synced_to = self.now;
        self.log.record(self.now, Decision::NodeRecover { node });
        self.idle.push(slot);
        self.sched_dirty = true;
        self.invalidate_accounting();
    }

    /// Apply a software abort of a running job (no-op if it is not running).
    fn fail_job(&mut self, id: JobId) {
        let Some(pos) = self.running.iter().position(|j| j.spec.id == id) else {
            return;
        };
        let job = self.running.remove(pos);
        self.kill_running(job, None);
    }

    /// Tear down a killed job: surviving nodes return to the idle pool with
    /// knobs reset, a crashed node (if any) powers off into the down pool,
    /// and the spec is requeued or permanently failed by its retry budget.
    fn kill_running(&mut self, job: RunningJob, crashed: Option<usize>) {
        let id = job.spec.id;
        let nodes = job.nodes.len();
        self.log
            .record(self.now, Decision::JobKill { job: id, nodes });
        for mut nm in job.nodes {
            if Some(nm.id().0) == crashed {
                // Knobs reset at reboot, not here: the node is dead.
                self.down.push(IdleSlot {
                    nm,
                    synced_to: self.now,
                });
            } else {
                // The runtime never ran its on_job_end: reset everything.
                nm.reset_all_knobs();
                self.idle.push(IdleSlot {
                    nm,
                    synced_to: self.now,
                });
            }
        }
        self.sched_dirty = true;
        self.invalidate_accounting();
        self.requeue_or_fail(job.spec);
    }

    /// Requeue a killed job if its retry budget allows, else record it as
    /// permanently failed. Requeues re-enter through the event heap (an
    /// arrival at the current instant) so both drain engines see them
    /// identically.
    fn requeue_or_fail(&mut self, spec: JobSpec) {
        let attempts = self.retries.get(&spec.id.0).copied().unwrap_or(0);
        let id = spec.id;
        if attempts < self.max_job_retries {
            self.retries.insert(id.0, attempts + 1);
            let attempt = attempts + 1;
            self.log
                .record(self.now, Decision::JobRequeue { job: id, attempt });
            self.events.push(self.now, EventKind::Arrival(id));
            self.queue.push_back(spec);
        } else {
            self.failed.push(id);
            self.log.record(self.now, Decision::JobFail(id));
        }
    }

    /// Advance the whole system by `quantum` (the per-tick oracle step).
    pub fn step(&mut self, quantum: SimDuration) {
        self.step_impl(quantum, false);
    }

    /// One physics tick shared by both drain engines. `lean` is the
    /// event-driven mode: the scheduling pass runs only when the dirty flag
    /// is set, idle-node physics is deferred, and a tick marker enters the
    /// event heap. Everything that touches node or job state is identical.
    fn step_impl(&mut self, quantum: SimDuration, lean: bool) {
        self.last_quantum = quantum;
        self.fire_due_events();
        if !lean || self.sched_dirty {
            self.schedule();
        }
        if let Some(period) = self.reassign_period {
            if self.now >= self.next_reassign {
                self.dynamic_reassign();
                self.next_reassign = self.now + period;
            }
        }
        let end = self.now + quantum;
        // Advance running jobs (paused jobs idle their nodes instead).
        for job in &mut self.running {
            if job.paused.is_some() {
                for nm in job.nodes.iter_mut() {
                    nm.step_idle(self.now, quantum);
                }
                continue;
            }
            let mut agent_refs: Vec<&mut dyn RuntimeAgent> = job
                .agents
                .iter_mut()
                .map(|b| b.as_mut() as &mut dyn RuntimeAgent)
                .collect();
            let reached = job
                .runner
                .advance(self.now, end, &mut job.nodes, &mut agent_refs);
            // Nodes idle out the remainder of the quantum after completion.
            if job.runner.is_complete() && reached < end {
                let mut t = reached;
                for nm in job.nodes.iter_mut() {
                    nm.step_idle(t, end.since(t));
                }
                t = end;
                let _ = t;
            }
            self.allocated_node_seconds += job.nodes.len() as f64 * quantum.as_secs_f64();
        }
        if lean {
            // Idle physics deferred until observed; mark the executed tick.
            self.events.push(end, EventKind::Tick);
        } else {
            for slot in &mut self.idle {
                self.idle_fast_forwarded += Self::catch_up_idle(slot, self.now, quantum);
                slot.nm.step_idle(self.now, quantum);
                slot.synced_to = end;
            }
        }
        self.now = end;
        self.collect_completions();
        // Post-completion scheduling so freed nodes are reused promptly.
        if !lean || self.sched_dirty {
            self.schedule();
        }
    }

    /// Move completed jobs from the running set to the records, returning
    /// their nodes to the idle pool.
    fn collect_completions(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].runner.is_complete() {
                let job = self.running.remove(i);
                let energy_now: f64 = job
                    .nodes
                    .iter()
                    .map(|nm| nm.read(Signal::NodeEnergyJoules))
                    .sum();
                let end_time = job.runner.completed_at().expect("complete");
                self.log.record(end_time, Decision::JobEnd(job.spec.id));
                self.events
                    .push(self.now, EventKind::Completion(job.spec.id));
                self.records.push(JobRecord {
                    id: job.spec.id,
                    submit: job.spec.submit,
                    start: job.start,
                    end: end_time,
                    nodes: job.nodes.len(),
                    power_budget_w: job.budget_w,
                    energy_j: energy_now - job.start_energy_j,
                    work: job
                        .runner
                        .result(&job.nodes)
                        .map(|r| r.total_work)
                        .unwrap_or(0.0),
                });
                // Return nodes with all knobs at defaults (agents restored
                // their own, but RM-applied caps and any leftovers must go).
                for mut nm in job.nodes {
                    nm.reset_all_knobs();
                    self.idle.push(IdleSlot {
                        nm,
                        synced_to: self.now,
                    });
                }
                self.sched_dirty = true;
                self.invalidate_accounting();
            } else {
                i += 1;
            }
        }
    }

    /// First tick-grid point at or after `t`, anchored at the current time
    /// (which always sits on the drain's grid).
    fn grid_ceil(&self, t: SimTime, quantum: SimDuration) -> SimTime {
        if t <= self.now {
            return self.now;
        }
        let delta = t.since(self.now).as_micros();
        let q = quantum.as_micros();
        SimTime::from_micros(self.now.as_micros() + delta.div_ceil(q) * q)
    }

    /// Jump the clock to `target` (a grid point) without physics: nothing is
    /// running, idle nodes catch up lazily, and the per-tick reassignment
    /// bookkeeping is replayed arithmetically (a reassignment pass with no
    /// running jobs is a no-op, so only `next_reassign` needs updating).
    fn fast_forward(&mut self, target: SimTime, quantum: SimDuration) {
        debug_assert!(self.running.is_empty());
        if let Some(period) = self.reassign_period {
            loop {
                let due = self.next_reassign.max(self.now);
                let fire = self.grid_ceil(due, quantum);
                if fire >= target {
                    break;
                }
                self.next_reassign = fire + period;
            }
        }
        self.now = target;
    }

    /// Event-driven drain to `horizon` (no horizon grace pass): process
    /// events in time order, tick only while jobs run or a pass is pending,
    /// and leap over empty stretches. Stops once the queue and running set
    /// drain or the clock reaches `horizon`.
    pub fn run_until(&mut self, quantum: SimDuration, horizon: SimTime) {
        assert!(!quantum.is_zero(), "quantum must be positive");
        self.last_quantum = quantum;
        loop {
            if self.queue.is_empty() && self.running.is_empty() {
                break;
            }
            if self.now >= horizon {
                break;
            }
            self.fire_due_events();
            if self.sched_dirty && self.running.is_empty() {
                // The oracle's end-of-tick scheduling pass: decide freshly
                // due arrivals at this instant before committing to a
                // physics tick. When the pass drains the queue without
                // launching (a permanent rejection), the oracle's loop exits
                // here without another tick — so must this one.
                self.schedule();
                if self.queue.is_empty() && self.running.is_empty() {
                    break;
                }
            }
            if self.sched_dirty || !self.running.is_empty() {
                self.step_impl(quantum, true);
                continue;
            }
            // Nothing running and nothing re-plannable: leap to the next
            // event's tick (or tick out the horizon for a stuck head, as the
            // oracle would spin).
            let target = match self.events.peek_time() {
                Some(t) => self
                    .grid_ceil(t, quantum)
                    .min(self.grid_ceil(horizon, quantum)),
                None => self.grid_ceil(horizon, quantum),
            };
            if target <= self.now {
                self.step_impl(quantum, true);
                continue;
            }
            self.fast_forward(target, quantum);
        }
    }

    /// Run until all submitted jobs complete or `horizon` passes
    /// (event-driven; a thin shim over [`Scheduler::run_until`] plus the
    /// horizon grace pass).
    pub fn run_until_drained(&mut self, quantum: SimDuration, horizon: SimTime) {
        self.run_until(quantum, horizon);
        self.horizon_grace();
    }

    /// Replay the pending event schedule of an *idle* scheduler up to (but
    /// excluding) `horizon`.
    ///
    /// The drain loops stop as soon as the last job completes, which can
    /// strand already-scheduled operator events — node reboots, budget
    /// restores, telemetry-dropout expiries — in the heap. A real site
    /// keeps operating after its queue empties; this replays exactly that
    /// tail, jumping the clock event-to-event with no physics in between
    /// (nothing is running, so there is nothing to integrate). The E11
    /// chaos experiment calls this before checking its recovery SLO so a
    /// reboot scheduled after the final completion still lands.
    pub fn flush_events_until(&mut self, horizon: SimTime) {
        debug_assert!(
            self.running.is_empty(),
            "flush_events_until is for drained schedulers"
        );
        while let Some(t) = self.events.peek_time() {
            if t >= horizon {
                break;
            }
            if t > self.now {
                self.now = t;
            }
            self.fire_due_events();
        }
    }

    /// Reference per-tick drain: the naive loop the event-driven engine must
    /// match byte-for-byte. Kept as the equivalence oracle for tests and as
    /// documentation of the baseline cost model.
    pub fn run_until_drained_per_tick(&mut self, quantum: SimDuration, horizon: SimTime) {
        while (!self.queue.is_empty() || !self.running.is_empty()) && self.now < horizon {
            self.step_impl(quantum, false);
        }
        self.horizon_grace();
    }

    /// Record jobs whose physics finishes exactly at the drain horizon.
    ///
    /// The drain loops stop at `now >= horizon`, so a job whose remaining
    /// work rounds to the horizon boundary (the integrator quantizes
    /// substeps to whole microseconds, rounding up) would sit complete-but-
    /// uncollected and its record would be dropped. One microsecond of extra
    /// physics collects exactly that class; jobs genuinely unfinished at the
    /// horizon stay unrecorded, and a drain that finished early is a no-op.
    fn horizon_grace(&mut self) {
        if self.running.is_empty() || self.running.iter().all(|j| j.paused.is_some()) {
            return;
        }
        let eps = SimDuration::from_micros(1);
        let end = self.now + eps;
        for job in &mut self.running {
            if job.paused.is_some() {
                continue;
            }
            let mut agent_refs: Vec<&mut dyn RuntimeAgent> = job
                .agents
                .iter_mut()
                .map(|b| b.as_mut() as &mut dyn RuntimeAgent)
                .collect();
            job.runner
                .advance(self.now, end, &mut job.nodes, &mut agent_refs);
            self.allocated_node_seconds += job.nodes.len() as f64 * eps.as_secs_f64();
        }
        self.now = end;
        self.collect_completions();
    }

    /// Aggregate metrics at the current time.
    pub fn metrics(&mut self) -> SchedulerMetrics {
        let hours = self.now.as_secs_f64() / 3600.0;
        let completed = self.records.len();
        let mean_wait_s = if completed == 0 {
            0.0
        } else {
            self.records
                .iter()
                .map(|r| r.wait().as_secs_f64())
                .sum::<f64>()
                / completed as f64
        };
        let capacity = self.total_nodes as f64 * self.now.as_secs_f64();
        let system_energy_j = self.system_energy_j();
        SchedulerMetrics {
            completed,
            jobs_per_hour: if hours > 0.0 {
                completed as f64 / hours
            } else {
                0.0
            },
            mean_wait_s,
            utilization: if capacity > 0.0 {
                self.allocated_node_seconds / capacity
            } else {
                0.0
            },
            system_energy_j,
            mean_system_power_w: if self.now.as_secs_f64() > 0.0 {
                system_energy_j / self.now.as_secs_f64()
            } else {
                0.0
            },
            total_work: self.records.iter().map(|r| r.work).sum(),
        }
    }
}

/// Per-job power floor for balancer budgets (`Geopm::MIN_NODE_CAP_W` per node).
fn balancer_floor_w(n_nodes: usize) -> f64 {
    pstack_runtime::Geopm::MIN_NODE_CAP_W * n_nodes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_hwmodel::{NodeConfig, VariationModel};
    use std::sync::Arc;

    fn sched(n_nodes: usize, policy: SystemPowerPolicy) -> Scheduler {
        let seeds = SeedTree::new(42);
        let nodes = NodeManager::fleet(
            n_nodes,
            NodeConfig::server_default(),
            &VariationModel::none(),
            &seeds,
        );
        Scheduler::new(nodes, policy, seeds.subtree("sched"))
    }

    fn small_job(id: u64, nodes: usize, submit_s: u64) -> JobSpec {
        JobSpec::rigid(
            id,
            Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 20.0, 10)),
            nodes,
            SimTime::from_secs(submit_s),
        )
    }

    /// Catch-up replays the whole quanta (fast-forwarding once settled) and
    /// then the partial tail, landing where the per-quantum loop does.
    #[test]
    fn catch_up_idle_replays_whole_quanta_then_the_tail() {
        let quantum = SimDuration::from_secs(1);
        let from = SimTime::from_secs(5);
        let target = from + quantum * 2_500 + SimDuration::from_millis(250);
        let nm = sched(1, SystemPowerPolicy::unlimited()).idle.remove(0).nm;
        let mut slot = IdleSlot {
            nm: nm.clone(),
            synced_to: from,
        };
        let skipped = Scheduler::catch_up_idle(&mut slot, target, quantum);
        let mut plain = nm;
        let mut t = from;
        while t < target {
            let dt = quantum.min(target.since(t));
            plain.step_idle(t, dt);
            t += dt;
        }
        assert!(skipped > 1_000, "fast-forwarded only {skipped} quanta");
        assert_eq!(slot.synced_to, target);
        assert_eq!(format!("{:?}", slot.nm), format!("{plain:?}"));
    }

    #[test]
    fn runs_single_job_to_completion() {
        let mut s = sched(4, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 2, 0));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(600));
        assert_eq!(s.records().len(), 1);
        let r = &s.records()[0];
        assert_eq!(r.nodes, 2);
        assert!(r.runtime().as_secs_f64() > 5.0);
        assert!(r.energy_j > 0.0);
        assert_eq!(s.running(), 0);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn fcfs_order_without_contention() {
        let mut s = sched(8, SystemPowerPolicy::unlimited());
        for id in 1..=4 {
            s.submit(small_job(id, 2, 0));
        }
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 4);
        // All fit simultaneously: starts within the first quantum.
        for r in s.records() {
            assert!(r.wait().as_secs_f64() <= 1.0, "{:?}", r);
        }
    }

    #[test]
    fn node_contention_queues_jobs() {
        let mut s = sched(2, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 2, 0));
        s.submit(small_job(2, 2, 0));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 2);
        let r2 = s.records().iter().find(|r| r.id == JobId(2)).unwrap();
        assert!(
            r2.wait().as_secs_f64() > 5.0,
            "second job must wait: {:?}",
            r2
        );
    }

    #[test]
    fn power_budget_limits_concurrency() {
        // 8 nodes available, but power for only ~2 at peak (450 W each):
        // 2×450 + 6×130 idle = 1680.
        let policy = SystemPowerPolicy::budgeted(1700.0, PowerAssignment::Unconstrained);
        let mut s = sched(8, policy);
        for id in 1..=4 {
            s.submit(small_job(id, 1, 0));
        }
        s.step(SimDuration::from_secs(1));
        assert!(
            s.running() <= 2,
            "power admission must throttle: {} running",
            s.running()
        );
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 4);
    }

    #[test]
    fn fair_share_admits_more_jobs_at_lower_power() {
        // Same tight budget, but FairShare capping lets more jobs in.
        let tight = 8.0 * 250.0;
        let uncon = {
            let mut s = sched(
                8,
                SystemPowerPolicy::budgeted(tight, PowerAssignment::Unconstrained),
            );
            for id in 1..=8 {
                s.submit(small_job(id, 1, 0));
            }
            s.step(SimDuration::from_secs(1));
            s.running()
        };
        let fair = {
            let mut s = sched(
                8,
                SystemPowerPolicy::budgeted(tight, PowerAssignment::FairShare),
            );
            for id in 1..=8 {
                s.submit(small_job(id, 1, 0));
            }
            s.step(SimDuration::from_secs(1));
            s.running()
        };
        assert!(fair > uncon, "fair-share admits more: {fair} vs {uncon}");
    }

    #[test]
    fn per_node_cap_is_enforced_out_of_band() {
        let policy = SystemPowerPolicy::budgeted(10_000.0, PowerAssignment::PerNodeCap(280.0));
        let mut s = sched(2, policy);
        s.submit(small_job(1, 2, 0));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        let r = &s.records()[0];
        let mean_node_w = r.energy_j / r.runtime().as_secs_f64() / r.nodes as f64;
        assert!(
            mean_node_w < 280.0 * 1.10,
            "node caps must bind: {mean_node_w} W/node"
        );
    }

    #[test]
    fn backfill_improves_short_job_wait() {
        // Head job needs 4 nodes (never available until the long job ends);
        // a 1-node short job behind it should backfill.
        let long = JobSpec::rigid(
            1,
            Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 120.0, 10)),
            3,
            SimTime::ZERO,
        );
        let wide = JobSpec::rigid(
            2,
            Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 20.0, 10)),
            4,
            SimTime::ZERO,
        );
        let short = JobSpec::rigid(
            3,
            Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 5.0, 5)),
            1,
            SimTime::ZERO,
        );
        let run = |backfill: bool| {
            let mut s = sched(4, SystemPowerPolicy::unlimited());
            if !backfill {
                s = s.without_backfill();
            }
            s.submit(long.clone());
            s.submit(wide.clone());
            s.submit(short.clone());
            s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
            s.records()
                .iter()
                .find(|r| r.id == JobId(3))
                .unwrap()
                .wait()
                .as_secs_f64()
        };
        let with_bf = run(true);
        let without_bf = run(false);
        assert!(
            with_bf < without_bf,
            "backfill should cut the short job's wait: {with_bf} vs {without_bf}"
        );
    }

    #[test]
    fn moldable_job_takes_what_is_free() {
        let mut s = sched(6, SystemPowerPolicy::unlimited());
        let j = JobSpec::moldable(
            1,
            Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 20.0, 10)),
            2,
            16,
            SimTime::ZERO,
        );
        s.submit(j);
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records()[0].nodes, 6);
    }

    #[test]
    fn metrics_accounting() {
        let mut s = sched(4, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 2, 0));
        s.submit(small_job(2, 2, 0));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        let m = s.metrics();
        assert_eq!(m.completed, 2);
        assert!(m.jobs_per_hour > 0.0);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        assert!(m.system_energy_j > 0.0);
        assert!(m.total_work > 0.0);
        // Trace has matching start/end events.
        assert_eq!(s.trace().of_kind("job_start").count(), 2);
        assert_eq!(s.trace().of_kind("job_end").count(), 2);
    }

    #[test]
    fn budget_drop_pauses_and_restores_resumes() {
        // Two 1-node jobs under a loose budget; the budget then collapses so
        // only one job's reservation fits.
        let policy = SystemPowerPolicy::budgeted(2000.0, PowerAssignment::Unconstrained);
        let mut s = sched(2, policy);
        s.submit(small_job(1, 1, 0));
        s.submit(small_job(2, 1, 0));
        s.step(SimDuration::from_secs(1));
        assert_eq!(s.running(), 2);
        // Emergency: 700 W covers one peak job (450) + nothing else at peak.
        s.set_system_budget(Some(700.0), EmergencyResponse::PauseJobs);
        assert_eq!(s.trace().of_kind("job_pause").count(), 1);
        // Paused jobs make no progress: run a while, only one job finishes.
        for _ in 0..120 {
            s.step(SimDuration::from_secs(1));
            if s.records().len() == 1 {
                break;
            }
        }
        assert_eq!(
            s.records().len(),
            1,
            "exactly one job proceeds while paused"
        );
        // Restore the budget: the paused job resumes and completes.
        s.set_system_budget(Some(2000.0), EmergencyResponse::PauseJobs);
        assert!(s.trace().of_kind("job_resume").count() >= 1);
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 2);
    }

    #[test]
    fn budget_drop_with_cap_tightening_keeps_all_running() {
        let policy = SystemPowerPolicy::budgeted(2000.0, PowerAssignment::Unconstrained);
        let mut s = sched(2, policy);
        s.submit(small_job(1, 1, 0));
        s.submit(small_job(2, 1, 0));
        s.step(SimDuration::from_secs(1));
        assert_eq!(s.running(), 2);
        s.set_system_budget(Some(700.0), EmergencyResponse::TightenCaps);
        assert_eq!(s.trace().of_kind("job_pause").count(), 0);
        // Both jobs keep running (slower) and the system respects the budget.
        let e0 = s.system_energy_j();
        let t0 = s.now();
        for _ in 0..30 {
            s.step(SimDuration::from_secs(1));
        }
        let avg = (s.system_energy_j() - e0) / s.now().since(t0).as_secs_f64();
        assert!(avg <= 700.0 * 1.10, "tightened system draws {avg} W");
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(7200));
        assert_eq!(s.records().len(), 2);
    }

    #[test]
    fn coolest_first_selection_picks_cool_nodes() {
        use pstack_hwmodel::VariationModel;
        let seeds = SeedTree::new(31);
        // Gradient 22..40 °C across 6 nodes; a 2-node job should land on the
        // coolest pair (node ids 0 and 1).
        let nodes = NodeManager::fleet_with_thermal_gradient(
            6,
            NodeConfig::server_default(),
            &VariationModel::none(),
            &seeds,
            22.0,
            40.0,
        );
        let mut s = Scheduler::new(nodes, SystemPowerPolicy::unlimited(), seeds.subtree("s"))
            .with_node_selection(NodeSelection::CoolestFirst);
        s.submit(small_job(1, 2, 0));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 1);
        // The remaining idle pool must hold the four hottest nodes.
        let mut idle_temps: Vec<f64> = s.idle_temperatures().into_iter().collect();
        idle_temps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            idle_temps[0] > 24.0,
            "coolest nodes (22.0, 25.6 °C ambient) went to the job: {idle_temps:?}"
        );
    }

    #[test]
    fn dynamic_reassignment_steers_watts_to_efficient_jobs() {
        use crate::spec::AgentKind;
        use pstack_runtime::GeopmPolicy;
        // Two 2-node balancer jobs under a tight budget: one compute-bound
        // (converts watts to work), one memory-bound (saturates).
        let budget = 4.0 * 300.0 + 0.0;
        let policy = SystemPowerPolicy::budgeted(budget, PowerAssignment::FairShare);
        let mut s = sched(4, policy).with_dynamic_power_reassignment(SimDuration::from_secs(5));
        let balancer = AgentKind::Geopm(GeopmPolicy::PowerBalancer { job_budget_w: 1.0 });
        s.submit(
            JobSpec::rigid(
                1,
                Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 60.0, 20)),
                2,
                SimTime::ZERO,
            )
            .with_agent(balancer.clone()),
        );
        s.submit(
            JobSpec::rigid(
                2,
                Arc::new(SyntheticApp::new(Profile::MemoryHeavy, 60.0, 20)),
                2,
                SimTime::ZERO,
            )
            .with_agent(balancer),
        );
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 2);
        // Reassignments happened and eventually favored the compute job.
        let reassigns: Vec<_> = s.trace().of_kind("power_reassign").collect();
        assert!(
            reassigns.len() >= 2,
            "reassignment events: {}",
            reassigns.len()
        );
        let last_budget = |id: u64| {
            reassigns
                .iter()
                .rev()
                .find_map(|(_, d)| match *d {
                    Decision::PowerReassign { job, budget_w } if job == JobId(id) => Some(budget_w),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("job{id} reassigned"))
        };
        let (last_job1, last_job2) = (last_budget(1), last_budget(2));
        assert!(
            last_job1 > last_job2,
            "compute job should end with the larger budget: {last_job1} vs {last_job2}"
        );
    }

    #[test]
    fn cancellation_frees_resources() {
        let mut s = sched(2, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 2, 0));
        s.submit(small_job(2, 2, 0));
        s.step(SimDuration::from_secs(1));
        assert_eq!(s.running(), 1);
        assert_eq!(s.queued(), 1);
        // Cancel the running job: the queued one takes its place.
        assert!(s.cancel(JobId(1)));
        s.step(SimDuration::from_secs(1));
        assert_eq!(s.running(), 1);
        assert_eq!(s.queued(), 0);
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 1, "only job 2 completes");
        assert_eq!(s.records()[0].id, JobId(2));
        // Cancelling an unknown job reports false.
        assert!(!s.cancel(JobId(99)));
        // Cancelling a queued job drops it silently.
        let mut s2 = sched(2, SystemPowerPolicy::unlimited());
        s2.submit(small_job(1, 2, 0));
        s2.submit(small_job(2, 2, 0));
        s2.step(SimDuration::from_secs(1));
        assert!(s2.cancel(JobId(2)));
        s2.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s2.records().len(), 1);
    }

    #[test]
    fn cancelled_job_leaves_no_knob_residue() {
        use crate::spec::AgentKind;
        use pstack_runtime::CountdownMode;
        // A COUNTDOWN job lowers frequency via the MPI override; cancelling
        // mid-run must not leak that state to the next tenant of the nodes.
        let mut s = sched(2, SystemPowerPolicy::unlimited());
        s.submit(
            JobSpec::rigid(
                1,
                Arc::new(SyntheticApp::new(Profile::CommHeavy, 60.0, 30)),
                2,
                SimTime::ZERO,
            )
            .with_agent(AgentKind::Countdown(CountdownMode::WaitAndCopy)),
        );
        for _ in 0..5 {
            s.step(SimDuration::from_secs(1));
        }
        assert!(s.cancel(JobId(1)));
        // Returned nodes: no cap, no freq limit, no override, top uncore,
        // full duty (observable via the signal surface + a probe step).
        s.submit(small_job(2, 2, 0));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        let r = s.records().iter().find(|r| r.id == JobId(2)).unwrap();
        // A residue-free compute job at full tilt draws well above 350 W/node.
        let mean_node_w = r.energy_j / r.runtime().as_secs_f64() / r.nodes as f64;
        assert!(
            mean_node_w > 350.0,
            "knob residue suppressed the next job: {mean_node_w} W/node"
        );
    }

    #[test]
    fn future_submissions_wait_for_their_time() {
        let mut s = sched(4, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 1, 100));
        s.step(SimDuration::from_secs(1));
        assert_eq!(s.running(), 0, "job must not start before submit time");
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert!(s.records()[0].start >= SimTime::from_secs(100));
    }

    #[test]
    fn horizon_boundary_completion_is_recorded() {
        // Find the exact completion time, then re-run with the horizon cut
        // to that boundary: the record must survive in both engines across
        // quanta (the off-by-one class this locks in).
        let full = {
            let mut s = sched(2, SystemPowerPolicy::unlimited());
            s.submit(small_job(1, 2, 0));
            s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
            s.records()[0].end
        };
        for quantum_ms in [250u64, 1000, 3000] {
            let q = SimDuration::from_millis(quantum_ms);
            let mut ev = sched(2, SystemPowerPolicy::unlimited());
            ev.submit(small_job(1, 2, 0));
            ev.run_until_drained(q, full);
            assert_eq!(
                ev.records().len(),
                1,
                "event engine drops a horizon-boundary completion at q={quantum_ms}ms"
            );
            assert!(ev.records()[0].end <= full + SimDuration::from_micros(1));
            let mut pt = sched(2, SystemPowerPolicy::unlimited());
            pt.submit(small_job(1, 2, 0));
            pt.run_until_drained_per_tick(q, full);
            assert_eq!(
                pt.records().len(),
                1,
                "per-tick engine drops a horizon-boundary completion at q={quantum_ms}ms"
            );
        }
    }

    #[test]
    fn scheduled_budget_change_matches_manual_call() {
        // A budget cut scheduled through the event heap must land at the
        // same tick as a manual set_system_budget between steps.
        let policy = || SystemPowerPolicy::budgeted(2000.0, PowerAssignment::Unconstrained);
        let mut manual = sched(2, policy());
        manual.submit(small_job(1, 1, 0));
        manual.submit(small_job(2, 1, 0));
        for _ in 0..5 {
            manual.step(SimDuration::from_secs(1));
        }
        manual.set_system_budget(Some(700.0), EmergencyResponse::PauseJobs);
        manual.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));

        let mut scheduled = sched(2, policy());
        scheduled.submit(small_job(1, 1, 0));
        scheduled.submit(small_job(2, 1, 0));
        scheduled.schedule_budget_change(
            SimTime::from_secs(5),
            Some(700.0),
            EmergencyResponse::PauseJobs,
        );
        scheduled.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));

        assert_eq!(manual.records().len(), scheduled.records().len());
        for (a, b) in manual.records().iter().zip(scheduled.records()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.end, b.end);
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        }
        assert_eq!(
            scheduled.trace().of_kind("job_pause").count(),
            1,
            "scheduled cut must pause exactly as the manual one"
        );
    }

    #[test]
    fn idle_node_fail_and_recover_cycle_capacity() {
        let mut s = sched(4, SystemPowerPolicy::unlimited());
        // Fail two idle nodes before the wide job arrives: it must wait.
        s.schedule_node_fail(SimTime::from_secs(1), 0);
        s.schedule_node_fail(SimTime::from_secs(1), 1);
        s.schedule_node_recover(SimTime::from_secs(120), 0);
        s.schedule_node_recover(SimTime::from_secs(120), 1);
        s.submit(small_job(1, 4, 5));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 1, "job runs once capacity recovers");
        let r = &s.records()[0];
        assert!(
            r.start >= SimTime::from_secs(120),
            "start {:?} must wait for the recovery",
            r.start
        );
        assert_eq!(s.down_nodes(), 0);
        assert_eq!(s.alive_nodes(), 4);
        assert!(s.failed().is_empty());
    }

    #[test]
    fn node_fail_under_job_requeues_within_retry_budget() {
        let mut s = sched(2, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 2, 0));
        // Crash a node mid-run, recover it shortly after.
        s.schedule_node_fail(SimTime::from_secs(3), 0);
        s.schedule_node_recover(SimTime::from_secs(10), 0);
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 1, "killed job must requeue and finish");
        assert!(s.failed().is_empty());
        assert_eq!(s.trace().of_kind("job_kill").count(), 1);
        assert_eq!(s.trace().of_kind("job_requeue").count(), 1);
        let r = &s.records()[0];
        assert_eq!(r.submit, SimTime::ZERO, "requeue keeps the original submit");
        assert!(
            r.start >= SimTime::from_secs(10),
            "restarted after recovery"
        );
        // Conservation: submitted == completed + failed + rejected.
        assert_eq!(
            s.submitted(),
            s.records().len() + s.failed().len() + s.rejected().len()
        );
    }

    #[test]
    fn retry_budget_exhaustion_fails_job_permanently() {
        let mut s = sched(2, SystemPowerPolicy::unlimited()).with_max_job_retries(1);
        s.submit(small_job(1, 2, 0));
        // Two kills against a budget of one retry: the second kill fails it.
        s.schedule_node_fail(SimTime::from_secs(2), 0);
        s.schedule_node_recover(SimTime::from_secs(4), 0);
        s.schedule_node_fail(SimTime::from_secs(8), 1);
        s.schedule_node_recover(SimTime::from_secs(12), 1);
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 0);
        assert_eq!(s.failed(), &[JobId(1)]);
        assert_eq!(s.trace().of_kind("job_fail").count(), 1);
        assert_eq!(
            s.submitted(),
            s.records().len() + s.failed().len() + s.rejected().len()
        );
    }

    #[test]
    fn job_fail_event_aborts_and_requeues() {
        let mut s = sched(2, SystemPowerPolicy::unlimited());
        s.submit(small_job(1, 2, 0));
        s.schedule_job_fail(SimTime::from_secs(3), JobId(1));
        // Failing a job that is not running is a no-op.
        s.schedule_job_fail(SimTime::from_secs(3), JobId(99));
        s.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.trace().of_kind("job_kill").count(), 1);
        assert!(s.failed().is_empty());
    }

    #[test]
    fn stuck_cap_actuator_drops_rm_writes_until_expiry() {
        // Agentless job under a per-node cap: launch writes out-of-band
        // caps. With every node's actuator stuck through the launch window,
        // the writes are dropped and counted.
        let policy = SystemPowerPolicy::budgeted(2.0 * 450.0, PowerAssignment::PerNodeCap(250.0));
        let mut stuck = sched(2, policy);
        stuck.schedule_cap_stick(SimTime::from_secs(0), 0, SimTime::from_secs(3600));
        stuck.schedule_cap_stick(SimTime::from_secs(0), 1, SimTime::from_secs(3600));
        stuck.submit(small_job(1, 2, 1));
        stuck.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert!(stuck.stuck_cap_drops() >= 2, "both launch writes dropped");

        let mut live = sched(2, policy);
        live.submit(small_job(1, 2, 1));
        live.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(live.stuck_cap_drops(), 0);
        // The uncapped (stuck) run must draw at least as much energy.
        assert!(
            stuck.records()[0].energy_j >= live.records()[0].energy_j,
            "stuck actuator must not enforce the cap: {} vs {}",
            stuck.records()[0].energy_j,
            live.records()[0].energy_j
        );
    }

    #[test]
    fn emergency_clamp_compensates_around_stuck_actuator() {
        // Agentless 2-node job launched under a 250 W per-node cap. Node 0's
        // actuator sticks after launch; an emergency then tightens the
        // budget to 440 W. The stuck node keeps its 250 W cap, so the
        // responsive node must absorb the difference (190 W) — total caps
        // stay exactly at the emergency budget, and measured power stays
        // under it for the whole emergency window.
        let policy = SystemPowerPolicy::budgeted(2.0 * 450.0, PowerAssignment::PerNodeCap(250.0));
        let mut s = sched(2, policy);
        s.submit(JobSpec::rigid(
            1,
            Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 400.0, 10)),
            2,
            SimTime::from_secs(0),
        ));
        s.schedule_cap_stick(SimTime::from_secs(5), 0, SimTime::from_secs(600));
        s.schedule_budget_change(
            SimTime::from_secs(10),
            Some(440.0),
            EmergencyResponse::TightenCaps,
        );
        let q = SimDuration::from_secs(1);
        s.run_until(q, SimTime::from_secs(12));
        assert!(s.stuck_cap_drops() >= 1, "the stuck write was dropped");
        for t in (12..60).step_by(4) {
            s.run_until(q, SimTime::from_secs(t));
            let p = s.system_power_w();
            // 2% slack: RAPL-style caps enforce over an averaging window,
            // not instantaneously. Without compensation the caps would sum
            // to 470 W (6.8% over) and the draw would sit near that.
            assert!(
                p <= 440.0 * 1.02,
                "compensated caps must hold the emergency budget: {p:.1} W at t={t}"
            );
        }
        s.run_until_drained(q, SimTime::from_secs(7200));
        assert_eq!(s.records().len(), 1, "the job still completes");
    }

    #[test]
    fn telemetry_dropout_counts_without_changing_schedule() {
        let mut faulty = sched(2, SystemPowerPolicy::unlimited());
        let mut clean = sched(2, SystemPowerPolicy::unlimited());
        for s in [&mut faulty, &mut clean] {
            s.submit(small_job(1, 2, 0));
        }
        faulty.schedule_telemetry_dropout(SimTime::from_secs(2), SimTime::from_secs(30));
        faulty.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        clean.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
        assert_eq!(faulty.telemetry_dropouts(), 1);
        assert_eq!(clean.telemetry_dropouts(), 0);
        assert_eq!(faulty.records().len(), clean.records().len());
        let (a, b) = (&faulty.records()[0], &clean.records()[0]);
        assert_eq!(a.end, b.end, "observability fault must not alter physics");
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }

    #[test]
    fn node_ids_cover_idle_running_and_down() {
        let mut s = sched(4, SystemPowerPolicy::unlimited());
        assert_eq!(s.node_ids(), vec![0, 1, 2, 3]);
        s.submit(small_job(1, 2, 0));
        s.schedule_node_fail(SimTime::from_secs(5), 3);
        for _ in 0..6 {
            s.step(SimDuration::from_secs(1));
        }
        assert_eq!(s.down_nodes(), 1);
        assert_eq!(s.node_ids(), vec![0, 1, 2, 3], "ids stable across pools");
    }
}
