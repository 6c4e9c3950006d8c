//! Per-rule fixture tests: every rule class must flag its deliberately
//! broken fixture (negative case) and stay silent on the shipped
//! configuration (positive case).

#![allow(clippy::disallowed_methods)]

use powerstack_core::experiments::ExperimentInfo;
use powerstack_core::registry::{Actor, Knob, Layer, Temporal};
use pstack_analyze::rules::{SearchFeasibility, SpaceWellFormedness};
use pstack_analyze::{analyze, AlgorithmSchema, FrameworkModel, SearchSpec, Severity};
use pstack_autotune::{Param, ParamSpace};

fn shipped() -> FrameworkModel {
    FrameworkModel::shipped()
}

fn errors_of(model: &FrameworkModel, rule: &str) -> Vec<String> {
    analyze(model)
        .by_rule(rule)
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{d}"))
        .collect()
}

// --- PSA001: knob-bound containment ---------------------------------------

#[test]
fn psa001_passes_on_shipped_spaces() {
    assert!(errors_of(&shipped(), "PSA001").is_empty());
}

#[test]
fn psa001_flags_cap_below_idle_floor() {
    let mut m = shipped();
    // 50 W is far below the ~130 W idle floor; such a cap can never be met.
    m.searches.push(SearchSpec::new(
        "fixture.low_cap",
        ParamSpace::new().with(Param::floats("node_cap_w", [50.0])),
        10,
        1,
    ));
    let errs = errors_of(&m, "PSA001");
    assert!(
        errs.iter().any(|e| e.contains("fixture.low_cap")),
        "{errs:?}"
    );
}

#[test]
fn psa001_flags_cap_above_peak() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.mw_cap",
        ParamSpace::new().with(Param::floats("node_cap_w", [250_000.0])),
        10,
        1,
    ));
    assert!(!errors_of(&m, "PSA001").is_empty());
}

#[test]
fn psa001_flags_frequency_outside_envelope() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.freq",
        ParamSpace::new().with(Param::floats("core_freq_ghz", [9.5])),
        10,
        1,
    ));
    let errs = errors_of(&m, "PSA001");
    assert!(errs.iter().any(|e| e.contains("DVFS envelope")), "{errs:?}");
}

#[test]
fn psa001_flags_thread_count_beyond_cores() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.threads",
        ParamSpace::new().with(Param::ints("threads", [1, 4096])),
        10,
        1,
    ));
    assert!(!errors_of(&m, "PSA001").is_empty());
}

#[test]
fn psa001_accepts_uncapped_sentinel() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.sentinel",
        ParamSpace::new().with(Param::floats("node_cap_w", [0.0, 300.0])),
        10,
        1,
    ));
    assert!(errors_of(&m, "PSA001").is_empty());
}

// --- PSA002: knob-ownership conflicts -------------------------------------

#[test]
fn psa002_shipped_overlaps_are_warnings_only() {
    let report = analyze(&shipped());
    let diags: Vec<_> = report.by_rule("PSA002").collect();
    assert!(diags.len() >= 3, "expected overlap warnings");
    assert!(diags.iter().all(|d| d.severity == Severity::Warn));
}

#[test]
fn psa002_unarbitrated_overlap_is_an_error() {
    let mut m = shipped();
    // Remove the arbiter declarations: the same overlaps become the §3.2
    // hazard proper.
    m.arbitrated_controls.clear();
    let errs = errors_of(&m, "PSA002");
    assert!(
        errs.iter().any(|e| e.contains("no arbiter declared")),
        "{errs:?}"
    );
}

#[test]
fn psa002_two_layer_writers_of_one_control() {
    let mut m = shipped();
    m.arbitrated_controls.clear();
    m.knobs = vec![
        Knob {
            layer: Layer::System,
            name: "node power cap",
            method: "RAPL via msr",
            actor: Actor::ResourceManager,
            temporal: Temporal::Runtime,
            implemented_by: "pstack_rm::rm::set_power_limit",
        },
        Knob {
            layer: Layer::Node,
            name: "package power limit",
            method: "RAPL",
            actor: Actor::NodeManager,
            temporal: Temporal::Runtime,
            implemented_by: "pstack_hwmodel::cap::PowerCap",
        },
    ];
    let errs = errors_of(&m, "PSA002");
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(errs[0].contains("rapl-cap"));
}

// --- PSA003: unit consistency ----------------------------------------------

#[test]
fn psa003_passes_on_shipped_model() {
    assert!(errors_of(&shipped(), "PSA003").is_empty());
}

#[test]
fn psa003_flags_milliwatt_named_parameter() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.units",
        ParamSpace::new().with(Param::ints("node_cap_mw", [250_000])),
        10,
        1,
    ));
    let errs = errors_of(&m, "PSA003");
    assert!(errs.iter().any(|e| e.contains("watts")), "{errs:?}");
}

#[test]
fn psa003_flags_milliwatt_scale_value() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.units2",
        ParamSpace::new().with(Param::floats("node_cap_w", [300_000.0])),
        10,
        1,
    ));
    let errs = errors_of(&m, "PSA003");
    assert!(errs.iter().any(|e| e.contains("milliwatt")), "{errs:?}");
}

#[test]
fn psa003_flags_negative_power() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.units3",
        ParamSpace::new().with(Param::floats("node_power_w", [-5.0])),
        10,
        1,
    ));
    assert!(!errors_of(&m, "PSA003").is_empty());
}

// --- PSA004: space well-formedness -----------------------------------------

#[test]
fn psa004_passes_on_shipped_spaces() {
    assert!(errors_of(&shipped(), "PSA004").is_empty());
}

#[test]
fn psa004_flags_empty_space() {
    let ds = SpaceWellFormedness::check_space("PSA004", "fixture.empty", &ParamSpace::new());
    assert!(ds
        .iter()
        .any(|d| d.severity == Severity::Error && d.message.contains("no parameters")));
}

#[test]
fn psa004_flags_duplicate_values() {
    let space = ParamSpace::new().with(Param::ints("tile", [8, 16, 8]));
    let ds = SpaceWellFormedness::check_space("PSA004", "fixture.dup", &space);
    assert!(ds
        .iter()
        .any(|d| d.severity == Severity::Error && d.message.contains("duplicate")));
}

#[test]
fn psa004_flags_non_finite_values() {
    let space = ParamSpace::new().with(Param::floats("cap", [250.0, f64::NAN]));
    let ds = SpaceWellFormedness::check_space("PSA004", "fixture.nan", &space);
    assert!(ds
        .iter()
        .any(|d| d.severity == Severity::Error && d.message.contains("non-finite")));
}

#[test]
fn psa004_flags_unsatisfiable_constraints() {
    let space = ParamSpace::new()
        .with(Param::ints("x", [1, 2, 3]))
        .with_constraint("never", |_, _| false);
    let ds = SpaceWellFormedness::check_space("PSA004", "fixture.unsat", &space);
    assert!(ds
        .iter()
        .any(|d| d.severity == Severity::Error && d.message.contains("unsatisfiable")));
}

#[test]
fn psa004_notes_degenerate_parameter() {
    let space = ParamSpace::new()
        .with(Param::ints("x", [1, 2]))
        .with(Param::ints("fixed", [7]));
    let ds = SpaceWellFormedness::check_space("PSA004", "fixture.degenerate", &space);
    assert!(ds
        .iter()
        .any(|d| d.severity == Severity::Info && d.message.contains("degenerate")));
}

// --- PSA005: power-model sanity ---------------------------------------------

#[test]
fn psa005_passes_on_shipped_hardware() {
    assert!(errors_of(&shipped(), "PSA005").is_empty());
}

#[test]
fn psa005_flags_non_monotone_power_model() {
    let mut m = shipped();
    m.node.package.power.c_dyn = -1.0;
    let errs = errors_of(&m, "PSA005");
    assert!(!errs.is_empty(), "negative c_dyn must be flagged");
}

#[test]
fn psa005_flags_negative_uncore_coefficient() {
    let mut m = shipped();
    m.node.package.power.uncore_w_per_ghz = -2.0;
    assert!(!errors_of(&m, "PSA005").is_empty());
}

// --- PSA006: search feasibility ---------------------------------------------

#[test]
fn psa006_passes_on_shipped_searches() {
    assert!(errors_of(&shipped(), "PSA006").is_empty());
}

#[test]
fn psa006_flags_zero_budget_and_batch() {
    let spec = SearchSpec::new(
        "fixture.zero",
        ParamSpace::new().with(Param::ints("x", [1, 2])),
        0,
        0,
    );
    let ds = SearchFeasibility::check_spec("PSA006", &spec);
    let errs: Vec<_> = ds
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errs.len(), 2, "{ds:?}");
}

#[test]
fn psa006_warns_on_batch_larger_than_space() {
    let spec = SearchSpec::new(
        "fixture.batch",
        ParamSpace::new().with(Param::ints("x", [1, 2, 3])),
        10,
        64,
    );
    let ds = SearchFeasibility::check_spec("PSA006", &spec);
    assert!(ds
        .iter()
        .any(|d| d.severity == Severity::Warn && d.message.contains("batch_size")));
}

#[test]
fn psa006_flags_invalid_warm_start_prior() {
    let mut spec = SearchSpec::new(
        "fixture.warm",
        ParamSpace::new()
            .with(Param::ints("x", [1, 2]))
            .with(Param::ints("y", [1, 2])),
        10,
        2,
    );
    spec.warm_start.push(vec![0, 7]); // index 7 out of range
    spec.warm_start.push(vec![0]); // wrong dimensionality
    let ds = SearchFeasibility::check_spec("PSA006", &spec);
    let errs: Vec<_> = ds
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errs.len(), 2, "{ds:?}");
}

// --- PSA007: catalog integrity ----------------------------------------------

#[test]
fn psa007_passes_on_shipped_catalog() {
    assert!(errors_of(&shipped(), "PSA007").is_empty());
}

#[test]
fn psa007_flags_unknown_crate_reference() {
    let mut m = shipped();
    let mut broken = m.catalog[0].clone();
    broken.analog = "pstack_nonexistent::Widget";
    m.catalog.push(broken);
    let errs = errors_of(&m, "PSA007");
    assert!(
        errs.iter().any(|e| e.contains("pstack_nonexistent")),
        "{errs:?}"
    );
}

// --- PSA008: experiment integrity --------------------------------------------

#[test]
fn psa008_passes_on_shipped_manifest() {
    assert!(errors_of(&shipped(), "PSA008").is_empty());
}

#[test]
fn psa008_flags_duplicate_experiment() {
    let mut m = shipped();
    m.experiments.push(ExperimentInfo {
        name: "fig1",
        artifact: "a second fig1",
    });
    let errs = errors_of(&m, "PSA008");
    assert!(errs.iter().any(|e| e.contains("duplicate")), "{errs:?}");
}

#[test]
fn psa008_flags_missing_required_experiment() {
    let mut m = shipped();
    m.experiments.retain(|e| e.name != "fig3");
    let errs = errors_of(&m, "PSA008");
    assert!(errs.iter().any(|e| e.contains("fig3")), "{errs:?}");
}

// --- PSA009: translator sanity ------------------------------------------------

#[test]
fn psa009_passes_on_shipped_reserve() {
    assert!(errors_of(&shipped(), "PSA009").is_empty());
}

#[test]
fn psa009_flags_absurd_reserve_fraction() {
    let mut m = shipped();
    m.system_reserve_fraction = 0.9;
    let errs = errors_of(&m, "PSA009");
    assert!(errs.iter().any(|e| e.contains("reserve")), "{errs:?}");
}

#[test]
fn psa009_flags_negative_reserve() {
    let mut m = shipped();
    m.system_reserve_fraction = -0.1;
    assert!(!errors_of(&m, "PSA009").is_empty());
}

// --- PSA010: registry well-formedness -----------------------------------------

#[test]
fn psa010_passes_on_shipped_registry() {
    assert!(errors_of(&shipped(), "PSA010").is_empty());
}

#[test]
fn psa010_flags_duplicate_row() {
    let mut m = shipped();
    let dup = m.knobs[0].clone();
    m.knobs.push(dup);
    let errs = errors_of(&m, "PSA010");
    assert!(errs.iter().any(|e| e.contains("duplicate")), "{errs:?}");
}

#[test]
fn psa010_flags_unresolvable_implemented_by() {
    let mut m = shipped();
    m.knobs.push(Knob {
        layer: Layer::System,
        name: "phantom knob",
        method: "none",
        actor: Actor::ResourceManager,
        temporal: Temporal::Runtime,
        implemented_by: "not_a_crate::Thing",
    });
    let errs = errors_of(&m, "PSA010");
    assert!(errs.iter().any(|e| e.contains("not_a_crate")), "{errs:?}");
}

#[test]
fn psa010_flags_empty_layer() {
    let mut m = shipped();
    m.knobs.retain(|k| k.layer != Layer::Application);
    let errs = errors_of(&m, "PSA010");
    assert!(errs.iter().any(|e| e.contains("application")), "{errs:?}");
}

// --- PSA011: layer invariants --------------------------------------------------

#[test]
fn psa011_all_layer_providers_hold() {
    let report = analyze(&shipped());
    assert_eq!(report.by_rule("PSA011").count(), 0);
    // Every layer contributes at least one provider, and the provider IDs
    // are the stable INV-* family.
    let providers = pstack_analyze::rules::LayerInvariants::providers();
    assert!(providers.len() >= 10, "got {}", providers.len());
    for prefix in ["INV-HW-", "INV-RM-", "INV-RT-", "INV-ND-", "INV-AP-"] {
        assert!(
            providers.iter().any(|p| p.id.starts_with(prefix)),
            "no provider with prefix {prefix}"
        );
    }
}

#[test]
fn psa011_broken_layer_input_is_flagged_through_the_same_checks() {
    // The providers wrap the parameterized check functions; feeding one a
    // broken input must produce error diagnostics with the layer's rule ID.
    let mut pm = pstack_hwmodel::PowerModel::server_default();
    pm.c_dyn = -1.0;
    let ds = pstack_hwmodel::invariants::check_power_model(
        "INV-HW-003",
        &pm,
        &pstack_hwmodel::PStateTable::server_default(),
        "fixture.power_model",
    );
    assert!(ds.iter().any(|d| d.severity == Severity::Error));
}

// --- report plumbing ------------------------------------------------------------

#[test]
fn json_report_has_stable_rule_ids() {
    let mut m = shipped();
    m.searches.push(SearchSpec::new(
        "fixture.low_cap",
        ParamSpace::new().with(Param::floats("node_cap_w", [50.0])),
        10,
        1,
    ));
    let report = analyze(&m);
    let json = report.to_json();
    // The JSON must parse back into the exact same report (field names are
    // the machine interface), and every rule ID must be from the stable
    // PSA/INV families.
    let parsed: pstack_analyze::Report = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed, report);
    assert!(!parsed.diagnostics.is_empty());
    for key in [
        "\"rule\"",
        "\"severity\"",
        "\"layer\"",
        "\"path\"",
        "\"message\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}");
    }
    for d in &parsed.diagnostics {
        assert!(
            d.rule.starts_with("PSA") || d.rule.starts_with("INV-"),
            "unstable rule id {}",
            d.rule
        );
    }
}

// --- PSA012: fault-plan sanity ---------------------------------------------

#[test]
fn psa012_passes_on_shipped_catalog() {
    assert!(errors_of(&shipped(), "PSA012").is_empty());
}

#[test]
fn psa012_flags_out_of_range_probability() {
    let mut m = shipped();
    let mut bad = pstack_faults::FaultPlan::default_rates();
    bad.name = "broken".to_string();
    bad.telemetry.drop_prob = 1.5;
    m.fault_plans.push(bad);
    let errs = errors_of(&m, "PSA012");
    assert!(
        errs.iter().any(|e| e.contains("drop_prob")),
        "out-of-range probability not flagged: {errs:?}"
    );
}

#[test]
fn psa012_flags_duplicate_plan_names() {
    let mut m = shipped();
    m.fault_plans
        .push(pstack_faults::FaultPlan::default_rates());
    let errs = errors_of(&m, "PSA012");
    assert!(
        errs.iter().any(|e| e.contains("unique")),
        "duplicate plan name not flagged: {errs:?}"
    );
}

// --- PSA013: retry-budget feasibility --------------------------------------

#[test]
fn psa013_passes_on_shipped_policy() {
    assert!(errors_of(&shipped(), "PSA013").is_empty());
}

#[test]
fn psa013_flags_zero_attempts() {
    let mut m = shipped();
    m.retry.max_attempts = 0;
    let errs = errors_of(&m, "PSA013");
    assert!(
        errs.iter().any(|e| e.contains("max_attempts")),
        "zero attempts not flagged: {errs:?}"
    );
}

#[test]
fn psa013_flags_negative_backoff() {
    let mut m = shipped();
    m.retry.backoff_base_s = -1.0;
    let errs = errors_of(&m, "PSA013");
    assert!(
        errs.iter().any(|e| e.contains("backoff_base_s")),
        "negative backoff not flagged: {errs:?}"
    );
}

#[test]
fn psa013_warns_on_shrinking_backoff() {
    let mut m = shipped();
    m.retry.backoff_factor = 0.5;
    let warns: Vec<String> = analyze(&m)
        .by_rule("PSA013")
        .filter(|d| d.severity == Severity::Warn)
        .map(|d| format!("{d}"))
        .collect();
    assert!(
        warns.iter().any(|w| w.contains("backoff_factor")),
        "shrinking backoff not warned: {warns:?}"
    );
}

// --- PSA015: checkpoint-schema compatibility -------------------------------

#[test]
fn psa015_passes_on_shipped_algorithms() {
    assert!(errors_of(&shipped(), "PSA015").is_empty());
}

#[test]
fn psa015_covers_every_shipped_algorithm() {
    // The audit is only as strong as the list it runs over: every algorithm
    // `shipped_algorithms` returns must appear in the model.
    let m = shipped();
    assert_eq!(
        m.algorithms.len(),
        pstack_autotune::shipped_algorithms().len()
    );
    for alg in pstack_autotune::shipped_algorithms() {
        assert!(
            m.algorithms.iter().any(|a| a.name == alg.name()),
            "algorithm {:?} missing from the model",
            alg.name()
        );
    }
}

#[test]
fn psa015_flags_zero_schema_version() {
    let mut m = shipped();
    m.algorithms.push(AlgorithmSchema {
        name: "fixture-unversioned".to_string(),
        schema_version: 0,
        stateful: true,
        round_trip_error: None,
    });
    let errs = errors_of(&m, "PSA015");
    assert!(
        errs.iter()
            .any(|e| e.contains("fixture-unversioned") && e.contains("schema_version 0")),
        "zero schema version not flagged: {errs:?}"
    );
}

#[test]
fn psa015_flags_round_trip_failure() {
    let mut m = shipped();
    m.algorithms.push(AlgorithmSchema {
        name: "fixture-amnesiac".to_string(),
        schema_version: 2,
        stateful: true,
        round_trip_error: Some("expected map, got Null".to_string()),
    });
    let errs = errors_of(&m, "PSA015");
    assert!(
        errs.iter()
            .any(|e| e.contains("fixture-amnesiac") && e.contains("save_state")),
        "round-trip failure not flagged: {errs:?}"
    );
}

#[test]
fn psa015_flags_duplicate_algorithm_names() {
    let mut m = shipped();
    let dup = AlgorithmSchema {
        name: m.algorithms[0].name.clone(),
        schema_version: m.algorithms[0].schema_version,
        stateful: m.algorithms[0].stateful,
        round_trip_error: None,
    };
    m.algorithms.push(dup);
    let errs = errors_of(&m, "PSA015");
    assert!(
        errs.iter().any(|e| e.contains("must be unique")),
        "duplicate algorithm name not flagged: {errs:?}"
    );
}

#[test]
fn psa015_flags_zero_format_versions() {
    let mut m = shipped();
    m.ckpt_wal_version = 0;
    m.ckpt_snapshot_version = 0;
    let errs = errors_of(&m, "PSA015");
    assert!(
        errs.iter().any(|e| e.contains("WAL format version")),
        "zero WAL version not flagged: {errs:?}"
    );
    assert!(
        errs.iter().any(|e| e.contains("snapshot format version")),
        "zero snapshot version not flagged: {errs:?}"
    );
}

#[test]
fn psa015_warns_on_empty_algorithm_list() {
    let mut m = shipped();
    m.algorithms.clear();
    let warns: Vec<String> = analyze(&m)
        .by_rule("PSA015")
        .filter(|d| d.severity == Severity::Warn)
        .map(|d| format!("{d}"))
        .collect();
    assert!(
        warns.iter().any(|w| w.contains("vacuous")),
        "empty algorithm list not warned: {warns:?}"
    );
}

// --- PSA017: lock-hierarchy coverage ---------------------------------------

/// The model's copy of the site registry entry labelled `label`.
fn site<'m>(m: &'m mut FrameworkModel, label: &str) -> &'m mut pstack_sync::SiteDecl {
    m.sync_sites
        .iter_mut()
        .find(|d| d.label == label)
        .expect("shipped site")
}

#[test]
fn psa017_passes_on_shipped_hierarchy() {
    assert!(errors_of(&shipped(), "PSA017").is_empty());
}

#[test]
fn psa017_flags_injected_cycle() {
    let mut m = shipped();
    // Close a loop: trace.ring → autotune.pool.slot, while the shipped
    // hierarchy already has autotune.pool.slot → trace.ring.
    site(&mut m, "trace.ring").may_acquire = &["autotune.pool.slot"];
    let errs = errors_of(&m, "PSA017");
    assert!(errs.iter().any(|e| e.contains("cycle")), "{errs:?}");
}

#[test]
fn psa017_flags_rank_inversion() {
    let mut m = shipped();
    // Permit an inner lock to acquire an outer one: the ranks contradict.
    site(&mut m, "trace.span_id").may_acquire = &["autotune.pool.cursor"];
    let errs = errors_of(&m, "PSA017");
    assert!(
        errs.iter().any(|e| e.contains("rank strictly above")),
        "{errs:?}"
    );
}

#[test]
fn psa017_flags_undeclared_may_acquire_target() {
    let mut m = shipped();
    site(&mut m, "trace.ring").may_acquire = &["sync.nonexistent"];
    let errs = errors_of(&m, "PSA017");
    assert!(
        errs.iter().any(|e| e.contains("sync.nonexistent")),
        "{errs:?}"
    );
}

#[test]
fn psa017_flags_duplicate_declaration() {
    let mut m = shipped();
    let dup = *site(&mut m, "trace.ring");
    m.sync_sites.push(dup);
    let errs = errors_of(&m, "PSA017");
    assert!(
        errs.iter().any(|e| e.contains("declared twice")),
        "{errs:?}"
    );
}
