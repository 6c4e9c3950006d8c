//! The lint rules.
//!
//! Every rule is a [`Lint`] with a stable ID (`PSA001`..`PSA021`), a
//! one-line description, and a pure `check` over a [`FrameworkModel`].
//! IDs are never reused. Three are retired: PSA018, the old raw-`std::sync`
//! source scan, because `clippy.toml`'s `disallowed-types` and
//! `disallowed-methods` enforce that ban in the compiler; PSA014 (every
//! JSON artifact has a trace), because `pstack_bench::write` writes a trace
//! for every artifact by construction; and PSA016 (the batch-evaluator
//! bench declares a scalar-equivalence check), because
//! `pstack_bench::evalthroughput::run` asserts that equivalence in every
//! round and `bench_diff` gates `bit_identical` exactly.
//! Rules never mutate anything and never read the environment, so the
//! report for a given model is byte-deterministic. [`registry`] returns
//! them in fixed ID order; [`crate::analyze`] runs them all.

use std::collections::BTreeMap;

use powerstack_core::translate::JobShare;
use powerstack_core::{Actor, Knob, Layer, ObjectiveTranslator, PowerBudget, Temporal};
use pstack_autotune::{ParamSpace, ParamValue};
use pstack_diag::Diagnostic;
use pstack_hwmodel::{PhaseKind, PhaseMix};
use pstack_node::Signal;

use crate::model::{FrameworkModel, SearchSpec};

/// One static-analysis rule.
pub trait Lint {
    /// Stable rule ID, e.g. `"PSA004"`.
    fn id(&self) -> &'static str;
    /// Short kebab-case name, e.g. `"space-well-formed"`.
    fn name(&self) -> &'static str;
    /// One-line description of what the rule enforces.
    fn description(&self) -> &'static str;
    /// Run the rule over a model snapshot.
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic>;
}

/// All rules, in fixed ID order. The report order (and therefore the JSON
/// and text renderings) follows this sequence.
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(KnobBoundContainment),
        Box::new(KnobOwnershipConflicts),
        Box::new(UnitConsistency),
        Box::new(SpaceWellFormedness),
        Box::new(PowerModelSanity),
        Box::new(SearchFeasibility),
        Box::new(CatalogIntegrity),
        Box::new(ExperimentIntegrity),
        Box::new(TranslatorSanity),
        Box::new(RegistryWellFormedness),
        Box::new(LayerInvariants),
        Box::new(FaultPlanSanity),
        Box::new(RetryBudgetFeasibility),
        Box::new(CheckpointSchema),
        Box::new(LockHierarchyCoverage),
        Box::new(HistoryKeySanity),
        Box::new(EventScheduleSanity),
        Box::new(FleetFaultPlanSanity),
    ]
}

/// Crates an `implemented_by`/`analog` path may reference.
const KNOWN_CRATES: [&str; 12] = [
    "powerstack_core",
    "pstack_rm",
    "pstack_runtime",
    "pstack_apps",
    "pstack_node",
    "pstack_hwmodel",
    "pstack_autotune",
    "pstack_sim",
    "pstack_telemetry",
    "pstack_bench",
    "pstack_diag",
    "pstack_analyze",
];

/// Enumerating constraints beyond this lattice size is skipped (reported as
/// an Info diagnostic, never silently).
const ENUMERATION_LIMIT: u128 = 1_000_000;

/// Diagnostic layer tag for a registry layer.
fn layer_tag(layer: Layer) -> &'static str {
    match layer {
        Layer::System => "system",
        Layer::JobRuntime => "job-runtime",
        Layer::Application => "application",
        Layer::Node => "node",
    }
}

fn actor_tag(actor: Actor) -> &'static str {
    match actor {
        Actor::ResourceManager => "resource-manager",
        Actor::RuntimeSystem => "runtime-system",
        Actor::Application => "application",
        Actor::NodeManager => "node-manager",
    }
}

/// Numeric view of a parameter value, if it has one.
fn numeric(v: &ParamValue) -> Option<f64> {
    match v {
        ParamValue::Int(i) => Some(*i as f64),
        ParamValue::Float(f) => Some(*f),
        ParamValue::Str(_) | ParamValue::Bool(_) => None,
    }
}

/// Count of valid grid points, or `None` when the lattice is too large to
/// enumerate within [`ENUMERATION_LIMIT`].
fn valid_cardinality(space: &ParamSpace) -> Option<u128> {
    if space.dims() == 0 || space.cardinality() > ENUMERATION_LIMIT {
        return None;
    }
    Some(space.enumerate().count() as u128)
}

// ---------------------------------------------------------------------------
// PSA001 — knob-bound containment
// ---------------------------------------------------------------------------

/// Search-space knob values must sit inside the physical envelopes the
/// hardware model declares (power caps inside `[idle, peak]`, frequencies
/// inside the plausible DVFS band, thread counts inside the core count).
pub struct KnobBoundContainment;

impl Lint for KnobBoundContainment {
    fn id(&self) -> &'static str {
        "PSA001"
    }
    fn name(&self) -> &'static str {
        "knob-bound-containment"
    }
    fn description(&self) -> &'static str {
        "search-space knob values stay inside hwmodel physical envelopes"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let (f_lo, f_hi) = pstack_hwmodel::invariants::FREQ_ENVELOPE_GHZ;
        let total_cores = model.node.total_cores();
        for spec in &model.searches {
            for p in spec.space.params() {
                let path = format!("{}/{}", spec.name, p.name);
                if p.name.ends_with("cap_w") {
                    for v in &p.values {
                        let Some(w) = numeric(v) else { continue };
                        // 0.0 is the "uncapped" sentinel throughout the
                        // co-tuning spaces; only real caps are checked.
                        if w == 0.0 {
                            continue;
                        }
                        out.extend(pstack_hwmodel::invariants::check_cap_in_envelope(
                            self.id(),
                            w,
                            &model.node,
                            &path,
                        ));
                    }
                } else if p.name.contains("freq") || p.name.ends_with("_ghz") {
                    for v in &p.values {
                        let Some(f) = numeric(v) else { continue };
                        if !(f_lo..=f_hi).contains(&f) {
                            out.push(Diagnostic::error(
                                self.id(),
                                "cross-layer",
                                &path,
                                format!(
                                    "frequency {f} GHz outside the plausible DVFS envelope \
                                     [{f_lo}, {f_hi}] GHz"
                                ),
                            ));
                        }
                    }
                } else if p.name == "threads" {
                    for v in &p.values {
                        let Some(t) = numeric(v) else { continue };
                        if t < 1.0 || t > total_cores as f64 {
                            out.push(Diagnostic::error(
                                self.id(),
                                "cross-layer",
                                &path,
                                format!(
                                    "thread count {t} outside [1, {total_cores}] \
                                     (node has {total_cores} cores)"
                                ),
                            ));
                        }
                    }
                } else if p.name == "nodes" {
                    for v in &p.values {
                        let Some(n) = numeric(v) else { continue };
                        if n < 1.0 {
                            out.push(Diagnostic::error(
                                self.id(),
                                "cross-layer",
                                &path,
                                format!("node count {n} must be at least 1"),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA002 — cross-layer knob ownership conflicts
// ---------------------------------------------------------------------------

/// The control resource a registry knob actuates, when it is unambiguous.
///
/// This is the mapping the ownership-conflict rule (the paper's §3.2
/// hazard) runs on: two distinct (layer, actor) pairs writing the same
/// resource is a conflict. Knobs whose target is ambiguous (e.g. MERIC's
/// whole-configuration control) map to `None` and are exempt.
pub fn control_resource(knob: &Knob) -> Option<&'static str> {
    let ib = knob.implemented_by;
    let name = knob.name;
    if ib.contains("set_power_limit")
        || ib.contains("::cap::")
        || knob.method.contains("power balancing")
    {
        Some("rapl-cap")
    } else if ib.contains("set_freq") || ib.contains("countdown") || name.contains("DVFS") {
        Some("core-freq")
    } else if ib.contains("set_uncore") || ib.contains("scavenger") || name.contains("uncore") {
        Some("uncore-freq")
    } else if ib.contains("dutycycle")
        || ib.contains("DutyCycle")
        || name.contains("clock modulation")
    {
        Some("duty-cycle")
    } else if ib.contains("fit_nodes") || ib.contains("irm") {
        Some("node-assignment")
    } else {
        None
    }
}

/// Two distinct (layer, actor) pairs writing the same control is the §3.2
/// interaction hazard. If the stack declares an arbiter for the resource
/// the overlap is a warning (arbitration is exactly what makes co-residency
/// legal); without one it is an error.
pub struct KnobOwnershipConflicts;

impl Lint for KnobOwnershipConflicts {
    fn id(&self) -> &'static str {
        "PSA002"
    }
    fn name(&self) -> &'static str {
        "knob-ownership-conflicts"
    }
    fn description(&self) -> &'static str {
        "no two (layer, actor) pairs write the same control without an arbiter"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut writers: BTreeMap<&'static str, Vec<&Knob>> = BTreeMap::new();
        for k in &model.knobs {
            if let Some(res) = control_resource(k) {
                writers.entry(res).or_default().push(k);
            }
        }
        let mut out = Vec::new();
        for (resource, knobs) in writers {
            let mut pairs: Vec<(Layer, Actor)> = knobs.iter().map(|k| (k.layer, k.actor)).collect();
            pairs.sort_by_key(|(l, a)| (layer_tag(*l), actor_tag(*a)));
            pairs.dedup();
            if pairs.len() <= 1 {
                continue;
            }
            let who: Vec<String> = knobs
                .iter()
                .map(|k| format!("{}/{} ({})", layer_tag(k.layer), actor_tag(k.actor), k.name))
                .collect();
            let arbitrated = model.arbitrated_controls.contains(&resource);
            let msg = format!(
                "{} distinct (layer, actor) pairs write `{resource}`: {}",
                pairs.len(),
                who.join("; ")
            );
            let path = format!("registry/{resource}");
            if arbitrated {
                out.push(Diagnostic::warn(
                    self.id(),
                    "cross-layer",
                    path,
                    format!("{msg} — arbitrated, first claim wins at runtime"),
                ));
            } else {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    path,
                    format!("{msg} — no arbiter declared for this control"),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA003 — unit consistency
// ---------------------------------------------------------------------------

/// The stack speaks watts, joules, and gigahertz — never milliwatts. Every
/// telemetry signal must use a vocabulary unit, and power-valued search
/// parameters must be plausible watt quantities.
pub struct UnitConsistency;

impl Lint for UnitConsistency {
    fn id(&self) -> &'static str {
        "PSA003"
    }
    fn name(&self) -> &'static str {
        "unit-consistency"
    }
    fn description(&self) -> &'static str {
        "signals and power parameters use the shared unit vocabulary (W, not mW)"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out =
            pstack_node::invariants::check_signal_units(self.id(), &Signal::ALL, "node::signals");
        for spec in &model.searches {
            for p in spec.space.params() {
                let path = format!("{}/{}", spec.name, p.name);
                if p.name.ends_with("_mw") || p.name.ends_with("_uw") {
                    out.push(Diagnostic::error(
                        self.id(),
                        "cross-layer",
                        &path,
                        "parameter is named in milliwatts/microwatts; the stack's power \
                         unit is watts everywhere (vocab `power bound`)",
                    ));
                }
                if p.name.ends_with("cap_w") || p.name.ends_with("power_w") {
                    for v in &p.values {
                        let Some(w) = numeric(v) else { continue };
                        if w < 0.0 {
                            out.push(Diagnostic::error(
                                self.id(),
                                "cross-layer",
                                &path,
                                format!("negative power value {w} W"),
                            ));
                        } else if w >= 10_000.0 {
                            out.push(Diagnostic::error(
                                self.id(),
                                "cross-layer",
                                &path,
                                format!(
                                    "power value {w} is implausible for a node-level watt \
                                     quantity; looks like a milliwatt value leaked in"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA004 — parameter-space well-formedness
// ---------------------------------------------------------------------------

/// A search space must have at least one parameter, no duplicate or
/// non-finite values inside a parameter, and constraints that leave the
/// grid reachable.
pub struct SpaceWellFormedness;

impl SpaceWellFormedness {
    /// The full check over one named space, shared with the proptest suite.
    pub fn check_space(rule: &str, name: &str, space: &ParamSpace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if space.dims() == 0 {
            out.push(Diagnostic::error(
                rule,
                "cross-layer",
                name,
                "parameter space has no parameters; nothing to tune",
            ));
            return out;
        }
        for p in space.params() {
            let path = format!("{name}/{}", p.name);
            if p.values.len() == 1 {
                out.push(Diagnostic::info(
                    rule,
                    "cross-layer",
                    &path,
                    "degenerate parameter with a single value; consider folding it \
                     into the objective",
                ));
            }
            for (i, v) in p.values.iter().enumerate() {
                if let ParamValue::Float(f) = v {
                    if !f.is_finite() {
                        out.push(Diagnostic::error(
                            rule,
                            "cross-layer",
                            &path,
                            format!("non-finite value {f} at index {i}"),
                        ));
                    }
                }
                if p.values[..i].contains(v) {
                    out.push(Diagnostic::error(
                        rule,
                        "cross-layer",
                        &path,
                        format!("duplicate value {v} at index {i}; grid points alias"),
                    ));
                }
            }
        }
        match valid_cardinality(space) {
            None => out.push(Diagnostic::info(
                rule,
                "cross-layer",
                name,
                format!(
                    "lattice cardinality {} exceeds the enumeration limit; constraint \
                     reachability not checked",
                    space.cardinality()
                ),
            )),
            Some(0) => out.push(Diagnostic::error(
                rule,
                "cross-layer",
                name,
                "constraints reject every grid point; the space is unsatisfiable",
            )),
            Some(valid) => {
                let lattice = space.cardinality();
                if (valid as f64) < 0.10 * lattice as f64 {
                    out.push(Diagnostic::warn(
                        rule,
                        "cross-layer",
                        name,
                        format!(
                            "only {valid} of {lattice} grid points satisfy the \
                             constraints; random sampling will mostly reject"
                        ),
                    ));
                }
            }
        }
        out
    }
}

impl Lint for SpaceWellFormedness {
    fn id(&self) -> &'static str {
        "PSA004"
    }
    fn name(&self) -> &'static str {
        "space-well-formed"
    }
    fn description(&self) -> &'static str {
        "param spaces are non-empty, duplicate-free, and constraint-reachable"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for spec in &model.searches {
            out.extend(Self::check_space(self.id(), &spec.name, &spec.space));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA005 — power-model sanity
// ---------------------------------------------------------------------------

/// The node power model must be physically plausible: monotone P(f) at a
/// fixed phase mix, non-negative leakage, a well-ordered idle/peak
/// envelope, and a monotone P-state table.
pub struct PowerModelSanity;

impl Lint for PowerModelSanity {
    fn id(&self) -> &'static str {
        "PSA005"
    }
    fn name(&self) -> &'static str {
        "power-model-sanity"
    }
    fn description(&self) -> &'static str {
        "power model is monotone in f, leakage >= 0, envelope well-ordered"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let pkg = &model.node.package;
        let mut out =
            pstack_hwmodel::invariants::check_pstate_table(self.id(), &pkg.pstates, "node.pstates");
        out.extend(pstack_hwmodel::invariants::check_freq_ladder(
            self.id(),
            &pkg.uncore,
            "node.uncore",
        ));
        out.extend(pstack_hwmodel::invariants::check_power_model(
            self.id(),
            &pkg.power,
            &pkg.pstates,
            "node.power_model",
        ));
        let env = pstack_hwmodel::power_envelope(&model.node);
        if !(env.idle_w.is_finite() && env.peak_w.is_finite() && env.idle_w < env.peak_w) {
            out.push(Diagnostic::error(
                self.id(),
                "node",
                "node.envelope",
                format!(
                    "power envelope is not well-ordered: idle {:.1} W, peak {:.1} W",
                    env.idle_w, env.peak_w
                ),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA006 — search-config feasibility
// ---------------------------------------------------------------------------

/// Tuner budgets must make sense against the space they aim at: nonzero
/// budget and batch, batch no larger than the reachable space, and
/// warm-start priors that are actually inside the space.
pub struct SearchFeasibility;

impl SearchFeasibility {
    /// The full check over one spec, shared with fixture tests.
    pub fn check_spec(rule: &str, spec: &SearchSpec) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if spec.max_evals == 0 {
            out.push(Diagnostic::error(
                rule,
                "cross-layer",
                &spec.name,
                "max_evals is 0; the search can never evaluate anything",
            ));
        }
        if spec.batch_size == 0 {
            out.push(Diagnostic::error(
                rule,
                "cross-layer",
                &spec.name,
                "batch_size is 0; the parallel evaluator would deadlock",
            ));
        }
        let reachable = valid_cardinality(&spec.space);
        if let Some(valid) = reachable {
            if spec.batch_size as u128 > valid {
                out.push(Diagnostic::warn(
                    rule,
                    "cross-layer",
                    &spec.name,
                    format!(
                        "batch_size {} exceeds the {valid} reachable grid points; \
                         batches will be padded with duplicates",
                        spec.batch_size
                    ),
                ));
            }
            if spec.max_evals as u128 > valid {
                out.push(Diagnostic::info(
                    rule,
                    "cross-layer",
                    &spec.name,
                    format!(
                        "max_evals {} exceeds the {valid} reachable grid points; an \
                         exhaustive sweep is cheaper than search",
                        spec.max_evals
                    ),
                ));
            }
        }
        for (i, cfg) in spec.warm_start.iter().enumerate() {
            let ok = cfg.len() == spec.space.dims()
                && cfg
                    .iter()
                    .zip(spec.space.params())
                    .all(|(&idx, p)| idx < p.values.len())
                && spec.space.is_valid(cfg);
            if !ok {
                out.push(Diagnostic::error(
                    rule,
                    "cross-layer",
                    format!("{}/warm_start[{i}]", spec.name),
                    format!(
                        "warm-start prior {cfg:?} is not a valid configuration of this \
                         {}-dimensional space",
                        spec.space.dims()
                    ),
                ));
            }
        }
        out
    }
}

impl Lint for SearchFeasibility {
    fn id(&self) -> &'static str {
        "PSA006"
    }
    fn name(&self) -> &'static str {
        "search-feasibility"
    }
    fn description(&self) -> &'static str {
        "tuner budgets and warm-start priors are feasible for their spaces"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for spec in &model.searches {
            out.extend(Self::check_spec(self.id(), spec));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA007 — catalog referential integrity
// ---------------------------------------------------------------------------

/// Every Table 2 catalog entry must point at crates that exist in this
/// workspace, and every layer must be covered by at least one entry.
pub struct CatalogIntegrity;

impl Lint for CatalogIntegrity {
    fn id(&self) -> &'static str {
        "PSA007"
    }
    fn name(&self) -> &'static str {
        "catalog-integrity"
    }
    fn description(&self) -> &'static str {
        "catalog analogs resolve to workspace crates; every layer covered"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for entry in &model.catalog {
            let path = format!("catalog/{}", entry.paper_component);
            if entry.paper_component.is_empty() {
                out.push(Diagnostic::error(
                    self.id(),
                    layer_tag(entry.layer),
                    "catalog",
                    "catalog entry with an empty paper_component name",
                ));
            }
            for analog in entry.analog.split(',') {
                let analog = analog.trim();
                if analog.is_empty() {
                    continue;
                }
                let krate = analog.split("::").next().unwrap_or(analog);
                if !KNOWN_CRATES.contains(&krate) {
                    out.push(Diagnostic::error(
                        self.id(),
                        layer_tag(entry.layer),
                        &path,
                        format!("analog `{analog}` references unknown crate `{krate}`"),
                    ));
                }
            }
        }
        for layer in Layer::ALL {
            if !model.catalog.iter().any(|e| e.layer == layer) {
                out.push(Diagnostic::warn(
                    self.id(),
                    layer_tag(layer),
                    "catalog",
                    format!("no catalog entry covers the {} layer", layer_tag(layer)),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA008 — experiment referential integrity
// ---------------------------------------------------------------------------

/// The experiment manifest must have unique, non-empty names and cover the
/// artifacts DESIGN.md promises (all six figures plus the three use cases).
pub struct ExperimentIntegrity;

/// Artifacts the manifest must cover (the DESIGN.md §3 index).
const REQUIRED_EXPERIMENTS: [&str; 9] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "uc1", "uc6", "uc7",
];

impl Lint for ExperimentIntegrity {
    fn id(&self) -> &'static str {
        "PSA008"
    }
    fn name(&self) -> &'static str {
        "experiment-integrity"
    }
    fn description(&self) -> &'static str {
        "experiment manifest is unique, complete, and fully described"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, e) in model.experiments.iter().enumerate() {
            let path = format!("experiments/{}", e.name);
            if e.name.is_empty() {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    format!("experiments[{i}]"),
                    "experiment with an empty name",
                ));
            }
            if e.artifact.is_empty() {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    &path,
                    "experiment does not say which paper artifact it regenerates",
                ));
            }
            if model.experiments[..i].iter().any(|p| p.name == e.name) {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    &path,
                    "duplicate experiment name in the manifest",
                ));
            }
        }
        for required in REQUIRED_EXPERIMENTS {
            if !model.experiments.iter().any(|e| e.name == required) {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    format!("experiments/{required}"),
                    "required experiment missing from the manifest (DESIGN.md §3 index)",
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA009 — objective-translator sanity
// ---------------------------------------------------------------------------

/// Top-down budget translation must conserve watts (usable = budget minus
/// the reserve, nothing created), keep the reserve fraction sane, and map
/// larger node budgets to frequencies that never decrease.
pub struct TranslatorSanity;

impl Lint for TranslatorSanity {
    fn id(&self) -> &'static str {
        "PSA009"
    }
    fn name(&self) -> &'static str {
        "translator-sanity"
    }
    fn description(&self) -> &'static str {
        "budget translation conserves watts and is monotone in budget"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let reserve = model.system_reserve_fraction;
        if !(0.0..0.5).contains(&reserve) {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "translator.system_reserve_fraction",
                format!(
                    "reserve fraction {reserve} outside [0, 0.5); the system would \
                     withhold most of its own budget"
                ),
            ));
            return out;
        }
        let mut tr = ObjectiveTranslator::default();
        tr.system_reserve_fraction = reserve;
        let budget = PowerBudget {
            watts: 10_000.0,
            window_us: 1_000_000,
        };
        let jobs = [
            JobShare {
                nodes: 3,
                efficiency: None,
            },
            JobShare {
                nodes: 1,
                efficiency: None,
            },
        ];
        let shares = tr.system_to_jobs(budget, &jobs);
        let granted: f64 = shares.iter().map(|b| b.watts).sum();
        let usable = budget.watts * (1.0 - reserve);
        if granted > usable + 1e-6 {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "translator.system_to_jobs",
                format!(
                    "translation grants {granted:.3} W from a usable budget of \
                     {usable:.3} W; watts are being created"
                ),
            ));
        }
        if (granted - usable).abs() > 1e-6 {
            out.push(Diagnostic::warn(
                self.id(),
                "system",
                "translator.system_to_jobs",
                format!(
                    "translation strands {:.3} W of the usable budget",
                    usable - granted
                ),
            ));
        }
        let mix = PhaseMix::pure(PhaseKind::ComputeBound);
        let mut prev = f64::NEG_INFINITY;
        for budget_w in [150.0, 200.0, 250.0, 300.0, 400.0, 500.0] {
            let f = tr.node_budget_to_freq(
                budget_w,
                &mix,
                model.node.package.n_cores,
                model.node.n_packages,
                model.node.misc_power_w,
            );
            if f < prev {
                out.push(Diagnostic::error(
                    self.id(),
                    "system",
                    "translator.node_budget_to_freq",
                    format!(
                        "advisory frequency decreases ({prev} -> {f} GHz) as the node \
                         budget grows to {budget_w} W"
                    ),
                ));
                break;
            }
            prev = f;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA010 — knob-registry well-formedness
// ---------------------------------------------------------------------------

/// Table 1 must be internally coherent: unique (layer, name) rows,
/// `implemented_by` paths that resolve to workspace crates, every layer
/// represented, and actors that match their layer.
pub struct RegistryWellFormedness;

impl Lint for RegistryWellFormedness {
    fn id(&self) -> &'static str {
        "PSA010"
    }
    fn name(&self) -> &'static str {
        "registry-well-formed"
    }
    fn description(&self) -> &'static str {
        "knob registry rows are unique, resolvable, and actor-coherent"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, k) in model.knobs.iter().enumerate() {
            let path = format!("registry/{}/{}", layer_tag(k.layer), k.name);
            if model.knobs[..i]
                .iter()
                .any(|p| p.layer == k.layer && p.name == k.name)
            {
                out.push(Diagnostic::error(
                    self.id(),
                    layer_tag(k.layer),
                    &path,
                    "duplicate (layer, name) row in the knob registry",
                ));
            }
            let krate = k.implemented_by.split("::").next().unwrap_or("");
            if !k.implemented_by.contains("::") || !KNOWN_CRATES.contains(&krate) {
                out.push(Diagnostic::error(
                    self.id(),
                    layer_tag(k.layer),
                    &path,
                    format!(
                        "implemented_by `{}` does not resolve to a workspace crate",
                        k.implemented_by
                    ),
                ));
            }
            let expected = match k.layer {
                Layer::System => Actor::ResourceManager,
                Layer::JobRuntime => Actor::RuntimeSystem,
                Layer::Application => Actor::Application,
                Layer::Node => Actor::NodeManager,
            };
            if k.actor != expected {
                out.push(Diagnostic::warn(
                    self.id(),
                    layer_tag(k.layer),
                    &path,
                    format!(
                        "actor {} is unusual for the {} layer",
                        actor_tag(k.actor),
                        layer_tag(k.layer)
                    ),
                ));
            }
        }
        for layer in Layer::ALL {
            if !model.knobs.iter().any(|k| k.layer == layer) {
                out.push(Diagnostic::error(
                    self.id(),
                    layer_tag(layer),
                    "registry",
                    format!("no knob registered for the {} layer", layer_tag(layer)),
                ));
            }
        }
        for temporal in [Temporal::LaunchTime, Temporal::Runtime] {
            if !model.knobs.iter().any(|k| k.temporal == temporal) {
                out.push(Diagnostic::warn(
                    self.id(),
                    "cross-layer",
                    "registry",
                    format!("no knob with {temporal:?} temporality; Table 1 covers both"),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA011 — layer-provided invariants
// ---------------------------------------------------------------------------

/// Runs every `invariants()` provider the layer crates export. The emitted
/// diagnostics keep their provider rule IDs (`INV-HW-001`, ...), so a
/// failure names the layer that owns the broken invariant.
pub struct LayerInvariants;

impl LayerInvariants {
    /// All layer invariant checks, in layer order.
    pub fn providers() -> Vec<pstack_diag::InvariantCheck> {
        let mut all = pstack_hwmodel::invariants();
        all.extend(pstack_rm::invariants());
        all.extend(pstack_runtime::invariants());
        all.extend(pstack_node::invariants());
        all.extend(pstack_apps::invariants());
        all
    }
}

impl Lint for LayerInvariants {
    fn id(&self) -> &'static str {
        "PSA011"
    }
    fn name(&self) -> &'static str {
        "layer-invariants"
    }
    fn description(&self) -> &'static str {
        "every layer's declared invariants hold over its shipped defaults"
    }
    fn check(&self, _model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for inv in Self::providers() {
            out.extend(inv.run());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA012 — fault-plan sanity
// ---------------------------------------------------------------------------

/// Every fault plan the chaos experiments run must be internally coherent:
/// probabilities in `[0, 1]`, amplification factors ≥ 1, lag and restart
/// windows positive, emergencies inside `(0, 1]` of budget — plus unique
/// plan names across the model (duplicate names make fault logs and result
/// rows ambiguous). The per-plan substance lives in
/// [`pstack_faults::FaultPlan::check`]; this rule runs it over the model and
/// adds the cross-plan checks.
pub struct FaultPlanSanity;

impl Lint for FaultPlanSanity {
    fn id(&self) -> &'static str {
        "PSA012"
    }
    fn name(&self) -> &'static str {
        "fault-plan-sanity"
    }
    fn description(&self) -> &'static str {
        "every fault plan has coherent rates/factors and a unique name"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for plan in &model.fault_plans {
            let path = format!("faults.plan.{}", plan.name);
            out.extend(plan.check(self.id(), &path));
            *seen.entry(plan.name.as_str()).or_insert(0) += 1;
        }
        for (name, n) in seen {
            if n > 1 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    format!("faults.plan.{name}"),
                    format!("fault plan name {name:?} appears {n} times; names must be unique"),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA013 — retry-budget feasibility
// ---------------------------------------------------------------------------

/// The resilient loop's retry policy must be able to terminate and its own
/// budgets must be mutually consistent: at least one attempt, finite
/// non-negative backoffs, a schedule that respects the total-backoff cap,
/// and — against each plan's evaluation timeout — a worst-case
/// per-configuration stall that stays bounded.
pub struct RetryBudgetFeasibility;

impl Lint for RetryBudgetFeasibility {
    fn id(&self) -> &'static str {
        "PSA013"
    }
    fn name(&self) -> &'static str {
        "retry-budget-feasible"
    }
    fn description(&self) -> &'static str {
        "the retry policy terminates and respects its own backoff budgets"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let r = &model.retry;
        let path = "autotune.retry";
        if r.max_attempts == 0 {
            out.push(Diagnostic::error(
                self.id(),
                "cross-layer",
                path,
                "max_attempts = 0: the loop could never evaluate anything",
            ));
        }
        for (what, v) in [
            ("backoff_base_s", r.backoff_base_s),
            ("backoff_factor", r.backoff_factor),
            ("max_total_backoff_s", r.max_total_backoff_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    path,
                    format!("{what} = {v} must be finite and non-negative"),
                ));
            }
        }
        if r.backoff_factor < 1.0 && r.backoff_factor.is_finite() && r.backoff_factor >= 0.0 {
            out.push(Diagnostic::warn(
                self.id(),
                "cross-layer",
                path,
                format!(
                    "backoff_factor = {} < 1: backoffs shrink instead of growing",
                    r.backoff_factor
                ),
            ));
        }
        // The schedule must honour its own contract (the proptest target,
        // re-checked statically over the shipped policy).
        if r.max_attempts >= 1 && r.max_total_backoff_s.is_finite() && r.max_total_backoff_s >= 0.0
        {
            let schedule = r.schedule();
            if schedule.len() != r.max_attempts - 1 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    path,
                    format!(
                        "schedule has {} backoffs for {} attempts (want {})",
                        schedule.len(),
                        r.max_attempts,
                        r.max_attempts - 1
                    ),
                ));
            }
            let total: f64 = schedule.iter().sum();
            if total > r.max_total_backoff_s + 1e-9 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    path,
                    format!(
                        "summed backoff {total:.1}s exceeds max_total_backoff_s {:.1}s",
                        r.max_total_backoff_s
                    ),
                ));
            }
            // Worst-case stall per configuration against each plan's
            // evaluation timeout: attempts × timeout + summed backoff. An
            // unbounded stall starves the whole tuning run.
            for plan in &model.fault_plans {
                if plan.evals.timeout_prob > 0.0 {
                    let stall = r.max_attempts as f64 * plan.evals.timeout_s + total;
                    if !stall.is_finite() || stall > 3600.0 {
                        out.push(Diagnostic::warn(
                            self.id(),
                            "cross-layer",
                            format!("faults.plan.{}", plan.name),
                            format!(
                                "worst-case per-config stall {stall:.0}s under plan {:?} \
                                 exceeds an hour",
                                plan.name
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA015 — checkpoint-schema compatibility
// ---------------------------------------------------------------------------

/// Crash-safe resume stakes everything on the checkpoint-schema contract:
/// WAL session headers record `(algorithm name, schema_version)` and the
/// resume guard refuses a session whose recorded pair disagrees with the
/// resuming binary. This rule audits the shipped declarations statically —
/// every algorithm must declare a version ≥ 1 (0 is the no-fallback
/// sentinel in session metadata), carry a unique name (the header's lookup
/// key), and survive a `save_state` → `load_state` round trip on a fresh
/// instance; the WAL and snapshot format versions must themselves be ≥ 1.
pub struct CheckpointSchema;

impl Lint for CheckpointSchema {
    fn id(&self) -> &'static str {
        "PSA015"
    }
    fn name(&self) -> &'static str {
        "checkpoint-schema"
    }
    fn description(&self) -> &'static str {
        "every shipped algorithm honours the checkpoint-schema versioning contract"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (what, v) in [
            ("WAL format version", model.ckpt_wal_version),
            ("snapshot format version", model.ckpt_snapshot_version),
        ] {
            if v == 0 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    "autotune.ckpt",
                    format!("{what} is 0; session files could never be version-checked"),
                ));
            }
        }
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for alg in &model.algorithms {
            let path = format!("autotune.search.{}", alg.name);
            *seen.entry(alg.name.as_str()).or_insert(0) += 1;
            if alg.schema_version == 0 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    &path,
                    format!(
                        "algorithm {:?} declares checkpoint schema_version 0; versions start \
                         at 1 (0 is the no-fallback sentinel in session metadata)",
                        alg.name
                    ),
                ));
            }
            if let Some(err) = &alg.round_trip_error {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    &path,
                    format!(
                        "algorithm {:?} rejects its own save_state on load_state: {err}",
                        alg.name
                    ),
                ));
            }
        }
        for (name, n) in seen {
            if n > 1 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    format!("autotune.search.{name}"),
                    format!(
                        "algorithm name {name:?} shipped {n} times; WAL headers key resume \
                         compatibility on the name, so it must be unique"
                    ),
                ));
            }
        }
        if model.algorithms.is_empty() {
            out.push(Diagnostic::warn(
                self.id(),
                "cross-layer",
                "autotune.search",
                "no shipped algorithms declared; the checkpoint-schema audit is vacuous",
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA017 — lock-hierarchy coverage
// ---------------------------------------------------------------------------

/// The lock hierarchy the `pstack-sync` site registry declares must be a
/// rank-consistent DAG: a site may only permit acquisition of sites with a
/// strictly greater rank, no label may be declared twice, and no
/// `may_acquire` entry may name an undeclared site. A cycle in the declared
/// relation is the static shadow of an ABBA deadlock. Every site carries
/// its rank in the registry itself, so none can go without one.
pub struct LockHierarchyCoverage;

impl Lint for LockHierarchyCoverage {
    fn id(&self) -> &'static str {
        "PSA017"
    }
    fn name(&self) -> &'static str {
        "lock-hierarchy-coverage"
    }
    fn description(&self) -> &'static str {
        "the pstack-sync site registry's lock hierarchy is an acyclic, rank-consistent DAG"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let sites = &model.sync_sites;
        let ranks: BTreeMap<&str, u32> = sites.iter().map(|d| (d.label, d.rank)).collect();

        // Duplicate declarations collapse in the rank map; catch them first.
        let mut seen = std::collections::BTreeSet::new();
        for d in sites {
            if !seen.insert(d.label) {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    format!("sync.hierarchy.{}", d.label),
                    format!("site {} is declared twice in the site registry", d.label),
                ));
            }
        }

        // Edge sanity: targets declared, ranks strictly increasing inward.
        for d in sites {
            for &target in d.may_acquire {
                match ranks.get(target) {
                    None => out.push(Diagnostic::error(
                        self.id(),
                        "cross-layer",
                        format!("sync.hierarchy.{}", d.label),
                        format!(
                            "{} may_acquire {}, which is not a declared site",
                            d.label, target
                        ),
                    )),
                    Some(&inner) if inner <= d.rank => out.push(Diagnostic::error(
                        self.id(),
                        "cross-layer",
                        format!("sync.hierarchy.{}", d.label),
                        format!(
                            "{} (rank {}) may_acquire {} (rank {}): inner locks must \
                             rank strictly above the locks held while taking them",
                            d.label, d.rank, target, inner
                        ),
                    )),
                    Some(_) => {}
                }
            }
        }

        // Cycle check over the declared relation (rank consistency already
        // implies acyclicity when it holds, but a model can be wrong in
        // both ways at once — report the cycle explicitly).
        if let Some(cycle) = declared_cycle(sites) {
            out.push(Diagnostic::error(
                self.id(),
                "cross-layer",
                "sync.hierarchy",
                format!(
                    "declared may_acquire relation has a cycle: {}",
                    cycle.join(" -> ")
                ),
            ));
        }
        out
    }
}

/// First cycle in the declared `may_acquire` relation, as a closed path.
fn declared_cycle(sites: &[pstack_sync::SiteDecl]) -> Option<Vec<String>> {
    let edges: BTreeMap<&str, &[&str]> = sites.iter().map(|d| (d.label, d.may_acquire)).collect();
    // Iterative DFS, white/grey/black: a grey re-entry closes a cycle.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    for start in edges.keys() {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succ: &[&str] = edges.get(node).copied().unwrap_or(&[]);
            if *next < succ.len() {
                let target = succ[*next];
                *next += 1;
                match color.get(target).copied().unwrap_or(0) {
                    1 => {
                        let from = path.iter().position(|&n| n == target).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[from..].iter().map(|s| s.to_string()).collect();
                        cycle.push(target.to_string());
                        return Some(cycle);
                    }
                    0 => {
                        color.insert(target, 1);
                        stack.push((target, 0));
                        path.push(target);
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// PSA019 — history-key-sanity
// ---------------------------------------------------------------------------

/// PSA019: the shared performance-history configuration is coherent — the
/// shard count is inside store bounds, the declared format version matches
/// the storage crate's, every key fingerprint is canonical (16 lowercase
/// hex) and invariant under parameter reordering, and no two declarations
/// collide on one `(space, app, objective)` key (records from different
/// workloads must never mix).
pub struct HistoryKeySanity;

impl Lint for HistoryKeySanity {
    fn id(&self) -> &'static str {
        "PSA019"
    }
    fn name(&self) -> &'static str {
        "history-key-sanity"
    }
    fn description(&self) -> &'static str {
        "history store shard count in bounds, key fingerprints canonical and stable, no key collisions"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        use pstack_history::{HistoryStore, HISTORY_FORMAT_VERSION};
        let mut out = Vec::new();
        let spec = &model.history;
        if spec.shard_count == 0 || spec.shard_count > HistoryStore::MAX_SHARDS {
            out.push(Diagnostic::error(
                self.id(),
                "cross-layer",
                "history.shards",
                format!(
                    "history shard count {} outside the store's accepted range 1..={}",
                    spec.shard_count,
                    HistoryStore::MAX_SHARDS
                ),
            ));
        }
        if spec.format_version != HISTORY_FORMAT_VERSION {
            out.push(Diagnostic::error(
                self.id(),
                "cross-layer",
                "history.format",
                format!(
                    "declared history format version {} != pstack-history's {} — stores \
                     written by one side would be rejected by the other",
                    spec.format_version, HISTORY_FORMAT_VERSION
                ),
            ));
        }
        let mut seen_names: BTreeMap<&str, usize> = BTreeMap::new();
        let mut seen_keys: BTreeMap<(String, String, String), &str> = BTreeMap::new();
        for decl in &spec.keys {
            *seen_names.entry(decl.name.as_str()).or_insert(0) += 1;
            if decl.app.is_empty() || decl.objective.is_empty() {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    decl.name.clone(),
                    format!(
                        "history key '{}' has an empty app or objective label; records \
                         filed under it would be unqueryable",
                        decl.name
                    ),
                ));
            }
            if decl.shape.params.is_empty() {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    decl.name.clone(),
                    format!(
                        "history key '{}' declares an empty parameter space; there is \
                         nothing to record under it",
                        decl.name
                    ),
                ));
            }
            let fp = decl.shape.fingerprint();
            if fp.len() != 16
                || !fp
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
            {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    decl.name.clone(),
                    format!(
                        "history key '{}' fingerprint '{fp}' is not 16 lowercase hex digits",
                        decl.name
                    ),
                ));
            }
            // Stability: the canonical fingerprint must not depend on the
            // order the code happened to declare parameters/constraints in,
            // or two sessions of the same campaign would shard apart.
            let mut reordered = decl.shape.clone();
            reordered.params.reverse();
            reordered.constraints.reverse();
            if reordered.fingerprint() != fp {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    decl.name.clone(),
                    format!(
                        "history key '{}' fingerprint changes under parameter reordering \
                         — the canonical space fingerprint is not canonical",
                        decl.name
                    ),
                ));
            }
            let triple = (fp, decl.app.clone(), decl.objective.clone());
            if let Some(prev) = seen_keys.insert(triple, decl.name.as_str()) {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    decl.name.clone(),
                    format!(
                        "history key '{}' collides with '{prev}': same space fingerprint, \
                         app, and objective — their records would silently mix",
                        decl.name
                    ),
                ));
            }
        }
        for (name, count) in seen_names {
            if count > 1 {
                out.push(Diagnostic::error(
                    self.id(),
                    "cross-layer",
                    name.to_string(),
                    format!("history key declaration name '{name}' appears {count} times"),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA020 — event-schedule sanity
// ---------------------------------------------------------------------------

/// PSA020: the event-driven scheduler's ordering contract holds on the
/// model's recorded [`EventModelSpec`](crate::model::EventModelSpec)
/// exercise — the heap cursor never regresses (a retroactive push may fire
/// late, but can never pull processed time backwards), same-instant events
/// pop in rank order (budget change → fault events → arrival → tick →
/// completion), every
/// pushed event is either popped or still pending (none lost), and the
/// per-enclave power-budget shards are finite, nonnegative, and sum to the
/// site budget *bit-for-bit* (hierarchical aggregation must conserve the
/// budget exactly).
pub struct EventScheduleSanity;

impl EventScheduleSanity {
    fn kind_rank(label: &str) -> Option<u32> {
        // Mirrors `EventKind::rank` in pstack-rm: budget changes gate
        // everything at an instant, fault events (node crash/reboot, job
        // kill, stuck actuator, telemetry dropout) apply before the
        // arrivals they degrade, arrivals precede the tick that schedules
        // them, completions come last.
        match label {
            "budget_change" => Some(0),
            "node_fail" => Some(1),
            "node_recover" => Some(2),
            "job_fail" => Some(3),
            "cap_stick" => Some(4),
            "telemetry_dropout" => Some(5),
            "arrival" => Some(6),
            "tick" => Some(7),
            "completion" => Some(8),
            _ => None,
        }
    }
}

impl Lint for EventScheduleSanity {
    fn id(&self) -> &'static str {
        "PSA020"
    }
    fn name(&self) -> &'static str {
        "event-schedule-sanity"
    }
    fn description(&self) -> &'static str {
        "event cursor monotone, same-instant events in rank order, events conserved, enclave shards sum to site budget"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let ev = &model.events;

        // Cursor monotonicity and tracking: the cursor after each pop must
        // never decrease, and must equal max(previous cursor, fire time).
        let mut prev_cursor = 0u64;
        for (i, (time, cursor, label)) in ev.popped.iter().enumerate() {
            if *cursor < prev_cursor {
                out.push(Diagnostic::error(
                    self.id(),
                    "system",
                    format!("events.popped[{i}]"),
                    format!(
                        "event cursor regressed from {prev_cursor}us to {cursor}us on a \
                         '{label}' pop — processed time must never move backwards"
                    ),
                ));
            }
            let expect = prev_cursor.max(*time);
            if *cursor != expect {
                out.push(Diagnostic::error(
                    self.id(),
                    "system",
                    format!("events.popped[{i}]"),
                    format!(
                        "cursor {cursor}us does not track pops: expected \
                         max(prev {prev_cursor}us, fire {time}us) = {expect}us"
                    ),
                ));
            }
            if Self::kind_rank(label).is_none() {
                out.push(Diagnostic::error(
                    self.id(),
                    "system",
                    format!("events.popped[{i}]"),
                    format!("unknown event kind label '{label}'"),
                ));
            }
            prev_cursor = *cursor;
        }
        if ev.final_cursor_us != prev_cursor {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "events.cursor",
                format!(
                    "final cursor {}us disagrees with the last pop's cursor {}us",
                    ev.final_cursor_us, prev_cursor
                ),
            ));
        }

        // Same-instant rank order: adjacent pops at one fire time must go
        // budget change → fault events → arrival → tick → completion.
        for (i, pair) in ev.popped.windows(2).enumerate() {
            let (ta, _, la) = &pair[0];
            let (tb, _, lb) = &pair[1];
            if ta == tb {
                if let (Some(ra), Some(rb)) = (Self::kind_rank(la), Self::kind_rank(lb)) {
                    if ra > rb {
                        out.push(Diagnostic::error(
                            self.id(),
                            "system",
                            format!("events.popped[{}]", i + 1),
                            format!(
                                "same-instant events at {ta}us popped out of rank order: \
                                 '{la}' before '{lb}' — a budget change must gate the \
                                 arrivals it applies to, arrivals precede the tick that \
                                 schedules them"
                            ),
                        ));
                    }
                }
            }
        }

        // Conservation: every pushed event was either popped or is pending.
        let accounted = ev.popped_count + ev.pending_after as u64;
        if accounted != ev.pushed as u64 {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "events.conservation",
                format!(
                    "{} events pushed but {} popped + {} pending = {accounted} — events \
                     were lost or duplicated",
                    ev.pushed, ev.popped_count, ev.pending_after
                ),
            ));
        }
        if ev.popped_count != ev.popped.len() as u64 {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "events.conservation",
                format!(
                    "heap lifetime counter says {} pops but the recording has {}",
                    ev.popped_count,
                    ev.popped.len()
                ),
            ));
        }

        // Budget sharding: per-enclave shards are finite, nonnegative, one
        // per enclave, and sum to the site budget bit-for-bit.
        if ev.shards.len() != ev.capacities.len() {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "events.shards",
                format!(
                    "{} budget shards for {} enclaves",
                    ev.shards.len(),
                    ev.capacities.len()
                ),
            ));
        }
        for (i, s) in ev.shards.iter().enumerate() {
            if !s.is_finite() || *s < 0.0 {
                out.push(Diagnostic::error(
                    self.id(),
                    "system",
                    format!("events.shards[{i}]"),
                    format!("budget shard {s} W is negative or non-finite"),
                ));
            }
        }
        let sum: f64 = ev.shards.iter().sum();
        if sum.to_bits() != ev.site_budget_w.to_bits() {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "events.shards",
                format!(
                    "enclave shards sum to {sum} W, site budget is {} W — hierarchical \
                     aggregation must conserve the budget exactly (last shard absorbs \
                     the floating-point residue)",
                    ev.site_budget_w
                ),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PSA021 — fleet-fault-plan sanity
// ---------------------------------------------------------------------------

/// PSA021: every fleet-scale fault plan the E11 chaos grid injects must be
/// internally coherent — probabilities in `[0, 1]`, MTBF/MTTR and outage
/// windows positive, and a requeue budget (`max_retries ≥ 1`) wherever job
/// failures are enabled, since a zero-retry plan silently turns every
/// injected job failure into a permanent loss and the conservation SLO can
/// no longer distinguish a scheduler bug from the plan's own bookkeeping.
/// The per-plan substance lives in
/// [`pstack_faults::FleetFaultPlan::check`]; this rule runs it over the
/// model and adds cross-plan checks: unique names, a quiescent control plan
/// (no active fault classes — the grid's fault-free baseline), and at least
/// one genuinely mixed plan (≥ 4 classes) so the chaos grid exercises fault
/// interactions, not just isolated classes.
pub struct FleetFaultPlanSanity;

impl Lint for FleetFaultPlanSanity {
    fn id(&self) -> &'static str {
        "PSA021"
    }
    fn name(&self) -> &'static str {
        "fleet-fault-plan-sanity"
    }
    fn description(&self) -> &'static str {
        "fleet fault plans have coherent rates, requeue budgets where job failures are on, unique names, and the catalog keeps a control plan and a mixed plan"
    }
    fn check(&self, model: &FrameworkModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for plan in &model.fleet_fault_plans {
            let path = format!("faults.fleet.{}", plan.name);
            out.extend(plan.check(self.id(), &path));
            *seen.entry(plan.name.as_str()).or_insert(0) += 1;
        }
        for (name, n) in seen {
            if n > 1 {
                out.push(Diagnostic::error(
                    self.id(),
                    "system",
                    format!("faults.fleet.{name}"),
                    format!(
                        "fleet fault plan name {name:?} appears {n} times; names must be unique"
                    ),
                ));
            }
        }
        if !model
            .fleet_fault_plans
            .iter()
            .any(|p| p.active_classes() == 0)
        {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "faults.fleet",
                "no quiescent control plan: the chaos grid needs a fault-free baseline \
                 to attribute SLO regressions to injected faults"
                    .to_string(),
            ));
        }
        if !model
            .fleet_fault_plans
            .iter()
            .any(|p| p.active_classes() >= 4)
        {
            out.push(Diagnostic::error(
                self.id(),
                "system",
                "faults.fleet",
                "no mixed plan with >= 4 active fault classes: the chaos grid must \
                 exercise fault interactions, not just isolated classes"
                    .to_string(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let rules = registry();
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "rule IDs must be unique and in order");
        assert_eq!(ids.len(), 18);
        for retired in ["PSA014", "PSA016", "PSA018"] {
            assert!(
                !ids.contains(&retired),
                "{retired} is retired, never reused"
            );
        }
        for r in &rules {
            assert!(!r.name().is_empty() && !r.description().is_empty());
        }
    }

    #[test]
    fn history_key_sanity_passes_shipped_and_flags_broken() {
        use crate::model::HistoryKeyDecl;
        let rule = HistoryKeySanity;
        let mut model = FrameworkModel::shipped();
        assert!(
            rule.check(&model).is_empty(),
            "shipped history spec must be clean: {:#?}",
            rule.check(&model)
        );

        // Out-of-bounds shard count and version skew are errors.
        model.history.shard_count = 0;
        model.history.format_version += 1;
        let diags = rule.check(&model);
        assert!(diags.iter().any(|d| d.path == "history.shards"));
        assert!(diags.iter().any(|d| d.path == "history.format"));

        // A second declaration colliding on (space, app, objective) is an
        // error — records from distinct campaigns must never mix.
        let mut model = FrameworkModel::shipped();
        let clone = HistoryKeyDecl::new(
            "history.hypre2",
            model.history.keys[0].app.clone(),
            model.history.keys[0].objective.clone(),
            model.history.keys[0].shape.clone(),
        );
        model.history.keys.push(clone);
        let diags = rule.check(&model);
        assert!(
            diags.iter().any(|d| d.message.contains("collides")),
            "expected a key-collision error: {diags:#?}"
        );

        // Empty app labels and empty spaces are errors.
        let mut model = FrameworkModel::shipped();
        model.history.keys[0].app.clear();
        model.history.keys[1].shape.params.clear();
        let diags = rule.check(&model);
        assert!(diags.iter().any(|d| d.message.contains("empty app")));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("empty parameter space")));
    }

    #[test]
    fn fleet_fault_plan_sanity_passes_shipped_and_flags_broken() {
        use pstack_faults::FleetFaultPlan;

        let rule = FleetFaultPlanSanity;
        let model = FrameworkModel::shipped();
        assert!(
            rule.check(&model).is_empty(),
            "shipped fleet fault plans must be clean: {:#?}",
            rule.check(&model)
        );

        // A zero-retry plan with job failures on loses the requeue budget.
        let mut broken = FrameworkModel::shipped();
        let mut bad = FleetFaultPlan::mixed();
        bad.name = "zero_retry".into();
        bad.jobs.max_retries = 0;
        broken.fleet_fault_plans.push(bad);
        let diags = rule.check(&broken);
        assert!(
            diags.iter().any(|d| d.message.contains("max_retries")),
            "expected a requeue-budget error: {diags:#?}"
        );

        // Duplicate names are ambiguous.
        let mut broken = FrameworkModel::shipped();
        broken.fleet_fault_plans.push(FleetFaultPlan::mixed());
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("must be unique")));

        // Dropping the quiescent control plan loses the baseline.
        let mut broken = FrameworkModel::shipped();
        broken.fleet_fault_plans.retain(|p| p.active_classes() > 0);
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("control plan")));

        // Dropping the mixed plan loses interaction coverage.
        let mut broken = FrameworkModel::shipped();
        broken.fleet_fault_plans.retain(|p| p.active_classes() < 4);
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("mixed plan")));

        // An out-of-range probability is caught by the per-plan substance.
        let mut broken = FrameworkModel::shipped();
        let mut bad = FleetFaultPlan::mixed();
        bad.name = "hot_actuators".into();
        bad.actuators.stick_prob = 1.5;
        broken.fleet_fault_plans.push(bad);
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("stick_prob")));
    }

    #[test]
    fn event_schedule_sanity_passes_shipped_and_flags_broken() {
        let rule = EventScheduleSanity;
        let model = FrameworkModel::shipped();
        assert!(
            rule.check(&model).is_empty(),
            "shipped event model must be clean: {:#?}",
            rule.check(&model)
        );
        // The shipped exercise must actually cover the interesting cases:
        // a retroactive pop (fire time below the cursor) and a same-instant
        // cluster of all four kinds.
        assert!(
            model.events.popped.iter().any(|(t, c, _)| t < c),
            "exercise must include a retroactive event firing behind the cursor"
        );
        let first_time = model
            .events
            .popped
            .iter()
            .find(|(t, _, _)| {
                model
                    .events
                    .popped
                    .iter()
                    .filter(|(t2, _, _)| t2 == t)
                    .count()
                    >= 4
            })
            .map(|(t, _, _)| *t)
            .expect("exercise must include a 4-kind same-instant cluster");
        assert!(first_time > 0);

        // A cursor regression is an error.
        let mut broken = FrameworkModel::shipped();
        let last = broken.events.popped.len() - 1;
        broken.events.popped[last].1 = 0;
        let diags = rule.check(&broken);
        assert!(
            diags.iter().any(|d| d.message.contains("cursor regressed")),
            "expected a cursor-regression error: {diags:#?}"
        );

        // Reordering a same-instant pair against kind rank (tick before the
        // arrival it would schedule) is an error.
        let mut broken = FrameworkModel::shipped();
        let i = broken
            .events
            .popped
            .windows(2)
            .position(|w| w[0].0 == w[1].0 && w[0].2 == "arrival" && w[1].2 == "tick")
            .expect("exercise includes an adjacent same-instant arrival/tick pair");
        broken.events.popped[i].2 = "tick".to_string();
        broken.events.popped[i + 1].2 = "arrival".to_string();
        let diags = rule.check(&broken);
        assert!(
            diags.iter().any(|d| d.message.contains("rank order")),
            "expected a rank-order error: {diags:#?}"
        );

        // Losing an event breaks conservation.
        let mut broken = FrameworkModel::shipped();
        broken.events.pushed += 1;
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("lost or duplicated")));

        // Shards that no longer sum to the site budget are an error, as is
        // a negative shard.
        let mut broken = FrameworkModel::shipped();
        broken.events.shards[0] += 1e-9;
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("conserve the budget")));
        let mut broken = FrameworkModel::shipped();
        broken.events.shards[0] = -1.0;
        assert!(rule
            .check(&broken)
            .iter()
            .any(|d| d.message.contains("negative or non-finite")));
    }

    #[test]
    fn control_resource_maps_shipped_registry() {
        let knobs = powerstack_core::knob_registry();
        let mapped = knobs.iter().filter_map(control_resource).count();
        // The shipped Table 1 has writers for all five control resources.
        assert!(mapped >= 8, "expected >= 8 mapped knobs, got {mapped}");
        let resources: std::collections::BTreeSet<_> =
            knobs.iter().filter_map(control_resource).collect();
        for r in [
            "rapl-cap",
            "core-freq",
            "uncore-freq",
            "duty-cycle",
            "node-assignment",
        ] {
            assert!(resources.contains(r), "missing resource {r}");
        }
    }
}
