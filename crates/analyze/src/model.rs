//! The static view of the framework the lint rules inspect.
//!
//! [`FrameworkModel`] is a plain-data snapshot of everything the stack
//! declares about itself before a single simulation tick runs: the Table 1
//! knob registry, the component catalog, the vocabulary, the node hardware
//! description, and every search specification (parameter space + tuner
//! budget + warm-start priors) the experiments use. Rules read the model;
//! they never construct framework objects themselves, so tests can hand
//! them deliberately-broken snapshots.

use powerstack_core::cotune::{HypreCoTune, KernelCoTune};
use powerstack_core::experiments::{self, ExperimentInfo};
use powerstack_core::{
    component_catalog, knob_registry, vocabulary, CatalogEntry, Knob, Objective, Term,
};
use pstack_autotune::{
    shipped_algorithms, Config, ParamSpace, RetryPolicy, SNAPSHOT_FORMAT_VERSION,
    WAL_FORMAT_VERSION,
};
use pstack_faults::{FaultPlan, FleetFaultPlan};
use pstack_history::{HistoryStore, SpaceShape, HISTORY_FORMAT_VERSION};
use pstack_hwmodel::NodeConfig;
use pstack_sync::SiteDecl;

/// One search configuration the framework will run: a parameter space plus
/// the tuner budget and warm-start priors aimed at it.
pub struct SearchSpec {
    /// Name used in diagnostic paths, e.g. `"cotune.hypre"`.
    pub name: String,
    /// The space the search runs over.
    pub space: ParamSpace,
    /// Evaluation budget (`Tuner::max_evals`).
    pub max_evals: usize,
    /// Parallel batch size (`Tuner::batch_size`).
    pub batch_size: usize,
    /// Warm-start prior configurations, if any.
    pub warm_start: Vec<Config>,
}

impl SearchSpec {
    /// Build a spec with no warm-start priors.
    pub fn new(
        name: impl Into<String>,
        space: ParamSpace,
        max_evals: usize,
        batch_size: usize,
    ) -> Self {
        SearchSpec {
            name: name.into(),
            space,
            max_evals,
            batch_size,
            warm_start: Vec::new(),
        }
    }
}

/// One `(space, app, objective)` history key the framework files shared
/// performance records under (PSA019 checks fingerprint stability and that
/// no two declarations collide on a key).
pub struct HistoryKeyDecl {
    /// Name used in diagnostic paths, e.g. `"history.hypre"`.
    pub name: String,
    /// Application label of the key, e.g. `"hypre"`.
    pub app: String,
    /// Objective label of the key, e.g. `"min-edp"`.
    pub objective: String,
    /// The space shape whose canonical fingerprint forms the key's space
    /// component.
    pub shape: SpaceShape,
}

impl HistoryKeyDecl {
    /// Build one key declaration.
    pub fn new(
        name: impl Into<String>,
        app: impl Into<String>,
        objective: impl Into<String>,
        shape: SpaceShape,
    ) -> Self {
        HistoryKeyDecl {
            name: name.into(),
            app: app.into(),
            objective: objective.into(),
            shape,
        }
    }
}

/// The shared performance-history configuration as data (PSA019 checks
/// shard-count bounds, format-version agreement, and key sanity).
pub struct HistorySpec {
    /// Shard count new stores are created with.
    pub shard_count: usize,
    /// On-disk format version stores are stamped with.
    pub format_version: u32,
    /// Every history key the shipped campaigns record under.
    pub keys: Vec<HistoryKeyDecl>,
}

/// One shipped search algorithm's checkpoint-schema declaration, as data
/// (PSA015 audits these against the [`SearchState`] versioning contract).
///
/// [`SearchState`]: pstack_autotune::SearchState
pub struct AlgorithmSchema {
    /// Algorithm name as recorded in WAL session headers.
    pub name: String,
    /// Declared `SearchState::schema_version()`.
    pub schema_version: u32,
    /// Whether `save_state()` produces real state (anything but `Null`).
    pub stateful: bool,
    /// Result of feeding a fresh instance its own `save_state()` back
    /// through `load_state` — `Some(msg)` when the round trip failed.
    pub round_trip_error: Option<String>,
}

impl AlgorithmSchema {
    /// Snapshot one algorithm's checkpoint-schema declaration by exercising
    /// the save/load round trip on a fresh instance.
    pub fn of(alg: &mut dyn pstack_autotune::SearchAlgorithm) -> Self {
        let state = alg.save_state();
        AlgorithmSchema {
            name: alg.name().to_string(),
            schema_version: alg.schema_version(),
            stateful: !matches!(state, serde::Value::Null),
            round_trip_error: alg.load_state(&state).err(),
        }
    }
}

/// The event-engine exercise PSA020 lints, captured as data.
///
/// `shipped()` drives the real machinery — a [`pstack_rm::EventHeap`]
/// through a deliberately adversarial push/pop sequence (out-of-order
/// pushes, same-instant events of every kind, a retroactive push mid-drain)
/// and [`pstack_rm::shard_budgets`] over the fleet-experiment enclave
/// layout — and records what happened. The rule then checks the recording:
/// pop times never regress past the cursor, same-instant events fire in
/// rank order (budget change → fault events → arrival → tick →
/// completion), event counts
/// are conserved, and the enclave shards sum to the site budget
/// bit-for-bit. Tests hand the rule deliberately-broken recordings.
pub struct EventModelSpec {
    /// Every event popped during the exercise, in pop order:
    /// (fire time in µs, heap cursor after the pop in µs, kind label).
    pub popped: Vec<(u64, u64, String)>,
    /// Heap cursor after the drain, µs.
    pub final_cursor_us: u64,
    /// Events pushed into the exercise heap.
    pub pushed: usize,
    /// Events popped during the drain (heap lifetime counter).
    pub popped_count: u64,
    /// Events still pending after the drain.
    pub pending_after: usize,
    /// Site budget the sharding exercise distributed, watts.
    pub site_budget_w: f64,
    /// Enclave node capacities the budget was sharded over.
    pub capacities: Vec<usize>,
    /// The resulting per-enclave budget shards, watts.
    pub shards: Vec<f64>,
}

impl EventModelSpec {
    /// Exercise the shipped event heap and enclave sharding.
    pub fn shipped() -> Self {
        use pstack_rm::{EventHeap, EventKind};
        use pstack_sim::SimTime;

        let t = SimTime::from_secs;
        let mut heap = EventHeap::new();
        // Out-of-order pushes, plus a same-instant cluster at t=40 covering
        // all nine kinds pushed in reverse rank order — pop order must
        // restore rank order (budget change → faults → arrival → tick →
        // completion).
        heap.push(t(40), EventKind::Completion(pstack_rm::JobId(7)));
        heap.push(t(40), EventKind::Tick);
        heap.push(t(40), EventKind::Arrival(pstack_rm::JobId(3)));
        heap.push(t(40), EventKind::TelemetryDropout { until: t(100) });
        heap.push(
            t(40),
            EventKind::CapStick {
                node: 2,
                until: t(100),
            },
        );
        heap.push(t(40), EventKind::JobFail(pstack_rm::JobId(5)));
        heap.push(t(40), EventKind::NodeRecover { node: 1 });
        heap.push(t(40), EventKind::NodeFail { node: 1 });
        heap.push(
            t(40),
            EventKind::BudgetChange {
                budget_w: Some(1000.0),
                response: pstack_rm::EmergencyResponse::TightenCaps,
            },
        );
        heap.push(t(10), EventKind::Arrival(pstack_rm::JobId(1)));
        heap.push(t(90), EventKind::Tick);
        heap.push(t(5), EventKind::Arrival(pstack_rm::JobId(0)));
        let mut pushed = 12usize;

        let mut popped = Vec::new();
        let mut retro_done = false;
        while let Some(ev) = heap.pop_due(t(3600)) {
            popped.push((
                ev.time.as_micros(),
                heap.cursor().as_micros(),
                ev.kind.label().to_string(),
            ));
            if !retro_done && ev.time >= t(40) {
                // Retroactive push mid-drain: allowed, fires immediately,
                // but the cursor must not move backwards for it.
                heap.push(t(20), EventKind::Arrival(pstack_rm::JobId(9)));
                pushed += 1;
                retro_done = true;
            }
        }
        // One event scheduled past the drain horizon stays pending.
        heap.push(t(7200), EventKind::Tick);
        pushed += 1;

        // The fleet experiment's enclave layout: 16 × 256 nodes at 65% of
        // site peak (450 W/node).
        let capacities = vec![256usize; 16];
        let site_budget_w = 450.0 * 4096.0 * 0.65;
        let shards = pstack_rm::shard_budgets(site_budget_w, &capacities);

        EventModelSpec {
            popped,
            final_cursor_us: heap.cursor().as_micros(),
            pushed,
            popped_count: heap.popped(),
            pending_after: heap.len(),
            site_budget_w,
            capacities,
            shards,
        }
    }
}

/// Everything the analyzer looks at, as data.
pub struct FrameworkModel {
    /// Hardware description the power/thermal rules check against.
    pub node: NodeConfig,
    /// The Table 1 knob registry.
    pub knobs: Vec<Knob>,
    /// The Table 2 component catalog.
    pub catalog: Vec<CatalogEntry>,
    /// The Table 3 vocabulary.
    pub vocabulary: Vec<Term>,
    /// The experiment manifest.
    pub experiments: Vec<ExperimentInfo>,
    /// Every search configuration the experiments run.
    pub searches: Vec<SearchSpec>,
    /// Control resources that have an arbiter mediating concurrent writers
    /// (the in-job `pstack_runtime::Arbiter` plus the RAPL hardware cap
    /// taking the min of requests). Multiple writers of an arbitrated
    /// resource is a warning; of an unarbitrated one, an error.
    pub arbitrated_controls: Vec<&'static str>,
    /// The system power reserve fraction
    /// (`ObjectiveTranslator::system_reserve_fraction`).
    pub system_reserve_fraction: f64,
    /// Every fault plan the chaos experiments run (PSA012 checks rates and
    /// factors; unique names).
    pub fault_plans: Vec<FaultPlan>,
    /// Every fleet-scale fault plan the E11 chaos grid runs (PSA021 checks
    /// rates, requeue budgets, outage windows, unique names, and that the
    /// catalog keeps both a quiescent control and a genuinely mixed plan).
    pub fleet_fault_plans: Vec<FleetFaultPlan>,
    /// The retry policy the resilient tuning loop runs with (PSA013 checks
    /// its budgets are feasible).
    pub retry: RetryPolicy,
    /// Every shipped search algorithm's checkpoint-schema declaration
    /// (PSA015 holds each to the `SearchState` versioning contract).
    pub algorithms: Vec<AlgorithmSchema>,
    /// The write-ahead-log format version session files are stamped with.
    pub ckpt_wal_version: u32,
    /// The full-snapshot format version.
    pub ckpt_snapshot_version: u32,
    /// The shared performance-history configuration (PSA019 checks shard
    /// bounds, format versions, and key fingerprint sanity).
    pub history: HistorySpec,
    /// A copy of the `pstack_sync::sites` registry, each site with its
    /// rank and may-acquire list (PSA017 checks the relation is a
    /// rank-consistent DAG).
    pub sync_sites: Vec<SiteDecl>,
    /// The event-engine exercise recording (PSA020 checks cursor
    /// monotonicity, same-instant rank order, event conservation, and that
    /// enclave budget shards sum to the site budget exactly).
    pub events: EventModelSpec,
}

impl FrameworkModel {
    /// The model of the shipped framework: everything the experiments in
    /// this workspace actually construct. `pstack_lint`, the `lint_report`
    /// artifact and the workspace's lint test run the rules over this
    /// snapshot.
    pub fn shipped() -> Self {
        let hypre = HypreCoTune::new(Objective::MinEdp);
        let kernel = KernelCoTune::new(Objective::MinEnergy);
        FrameworkModel {
            node: NodeConfig::server_default(),
            knobs: knob_registry(),
            catalog: component_catalog(),
            vocabulary: vocabulary(),
            experiments: experiments::manifest(),
            searches: vec![
                SearchSpec::new("cotune.hypre", hypre.space(), 100, 8),
                SearchSpec::new("cotune.kernel", kernel.space(), 100, 8),
            ],
            arbitrated_controls: vec!["rapl-cap", "core-freq", "uncore-freq", "duty-cycle"],
            system_reserve_fraction: powerstack_core::ObjectiveTranslator::default()
                .system_reserve_fraction,
            fault_plans: FaultPlan::catalog(),
            fleet_fault_plans: FleetFaultPlan::catalog(),
            retry: RetryPolicy::default(),
            algorithms: shipped_algorithms()
                .iter_mut()
                .map(|alg| AlgorithmSchema::of(alg.as_mut()))
                .collect(),
            ckpt_wal_version: WAL_FORMAT_VERSION,
            ckpt_snapshot_version: SNAPSHOT_FORMAT_VERSION,
            history: HistorySpec {
                shard_count: HistoryStore::DEFAULT_SHARDS,
                format_version: HISTORY_FORMAT_VERSION,
                keys: experiments::history::arms()
                    .iter()
                    .map(|arm| {
                        HistoryKeyDecl::new(
                            format!("history.{}", arm.app),
                            arm.app,
                            arm.objective,
                            pstack_autotune::space_shape(&arm.space),
                        )
                    })
                    .collect(),
            },
            sync_sites: pstack_sync::sites::all().to_vec(),
            events: EventModelSpec::shipped(),
        }
    }
}
