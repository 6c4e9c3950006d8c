//! Additional property tests: windowed capping, arbitration, imbalance
//! statistics, objective-translation conservation, and failure handling;
//! plus the static analysis of the shipped framework model, which lints
//! clean.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use powerstack::hwmodel::{PowerCap, RaplWindow};
use powerstack::prelude::*;
use powerstack::runtime::KnobKind;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The RAPL window average always lies within [min, max] of the recorded
    /// power levels (zero counts before the first record).
    #[test]
    fn rapl_window_average_bounded(
        levels in prop::collection::vec((1u64..500, 0.0f64..600.0), 1..40),
        window_ms in 5u64..500,
    ) {
        let mut win = RaplWindow::new(SimDuration::from_millis(window_ms));
        let mut t = SimTime::ZERO;
        let mut lo = 0.0f64; // pre-history zero is in range
        let mut hi = 0.0f64;
        for (dt_ms, p) in levels {
            win.record(t, p);
            lo = lo.min(p);
            hi = hi.max(p);
            t += SimDuration::from_millis(dt_ms);
        }
        let avg = win.average_w(t);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} outside [{lo}, {hi}]");
    }

    /// The cap controller's allowed index never leaves the ladder and always
    /// converges to a sustainable rung against any monotone plant.
    #[test]
    fn cap_controller_converges_on_any_monotone_plant(
        base in 20.0f64..200.0,
        slope in 1.0f64..20.0,
        cap_w in 50.0f64..500.0,
        top in 5usize..40,
    ) {
        prop_assume!(cap_w > base); // otherwise no rung is sustainable
        let mut cap = PowerCap::new(cap_w, SimDuration::from_millis(10), top);
        let mut idx = top;
        let mut trailing = Vec::new();
        for step in 0..200 {
            let p = base + slope * idx as f64;
            cap.control(p, top);
            idx = cap.allowed_idx();
            prop_assert!(idx <= top);
            if step >= 150 {
                trailing.push(base + slope * idx as f64);
            }
        }
        // RAPL's guarantee is the *average*: the trailing mean must respect
        // the cap (probing transients allowed), or the ladder bottomed out.
        let mean: f64 = trailing.iter().sum::<f64>() / trailing.len() as f64;
        prop_assert!(mean <= cap_w * 1.02 || idx == 0, "trailing mean {mean} vs cap {cap_w}");
        // Not pathologically conservative: one rung above the trailing mean
        // operating point would violate.
        if idx < top {
            let up = base + slope * (idx + 2).min(top) as f64;
            prop_assert!(up > cap_w * 0.9, "left headroom: {up} vs {cap_w}");
        }
    }

    /// Gated arbitration: for any claim sequence, each knob has at most one
    /// owner, the first claimant, and only the owner may write.
    #[test]
    fn arbitration_single_owner(claims in prop::collection::vec((0usize..5, 0usize..5), 1..30)) {
        use powerstack::runtime::{Arbiter, ArbiterMode};
        let knobs = [
            KnobKind::CoreFreq,
            KnobKind::MpiFreqOverride,
            KnobKind::Uncore,
            KnobKind::Duty,
            KnobKind::PowerCap,
        ];
        let mut arb = Arbiter::new(ArbiterMode::Gated);
        let mut first: std::collections::HashMap<usize, usize> = Default::default();
        for (agent, ki) in claims {
            let granted = arb.claim(agent, knobs[ki]);
            let expected_owner = *first.entry(ki).or_insert(agent);
            prop_assert_eq!(granted, agent == expected_owner);
            prop_assert_eq!(arb.owner(knobs[ki]), Some(expected_owner));
            for other in 0..5 {
                prop_assert_eq!(arb.allows(other, knobs[ki]), other == expected_owner);
            }
        }
    }

    /// Imbalance factors: mean ≈ 1, all positive, deterministic, and the
    /// persistent component is constant across phases.
    #[test]
    fn imbalance_statistics(seed in 0u64..500, sigma in 0.0f64..0.2) {
        let model = MpiModel {
            imbalance_sigma: sigma,
            persistent_sigma: sigma,
            ..MpiModel::typical()
        };
        let seeds = SeedTree::new(seed);
        let f = model.persistent_factors(&seeds, 64);
        prop_assert!(f.iter().all(|&x| x > 0.0));
        let mean: f64 = f.iter().sum::<f64>() / f.len() as f64;
        prop_assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        prop_assert_eq!(&f, &model.persistent_factors(&seeds, 64));
    }

    /// Objective translation conserves watts through the whole chain
    /// (site → jobs → nodes), minus only the declared reserve.
    #[test]
    fn translation_chain_conserves(
        system_w in 1000.0f64..100_000.0,
        job_nodes in prop::collection::vec(1usize..32, 1..10),
    ) {
        use powerstack::core::translate::{JobShare, ObjectiveTranslator};
        let t = ObjectiveTranslator::default();
        let shares: Vec<JobShare> = job_nodes
            .iter()
            .map(|&n| JobShare { nodes: n, efficiency: None })
            .collect();
        let budget = PowerBudget::new(system_w, SimDuration::from_millis(10));
        let jobs = t.system_to_jobs(budget, &shares);
        let total: f64 = jobs
            .iter()
            .zip(&job_nodes)
            .map(|(jb, &n)| t.job_to_nodes(*jb, n).watts * n as f64)
            .sum();
        let expected = system_w * (1.0 - t.system_reserve_fraction);
        prop_assert!((total - expected).abs() < 1e-6 * system_w);
    }

    /// Thermal model: temperature always between ambient and the steady
    /// state of the max applied power; never NaN.
    #[test]
    fn thermal_stays_physical(
        powers in prop::collection::vec((0.0f64..400.0, 0.1f64..60.0), 1..50),
    ) {
        let mut th = powerstack::hwmodel::ThermalModel::server_default();
        let mut p_max = 0.0f64;
        for (p, dt) in powers {
            th.advance(p, dt);
            p_max = p_max.max(p);
            let t = th.temperature_c();
            prop_assert!(t.is_finite());
            prop_assert!(t >= 25.0 - 1e-9, "below ambient: {t}");
            prop_assert!(t <= th.steady_state_c(p_max) + 1e-6, "above hottest steady state: {t}");
        }
    }
}

/// Failure handling: a mid-run cancellation never corrupts accounting.
#[test]
fn cancellation_mid_run_keeps_accounting_consistent() {
    use std::sync::Arc;
    let seeds = SeedTree::new(404);
    let fleet = NodeManager::fleet(
        4,
        NodeConfig::server_default(),
        &VariationModel::none(),
        &seeds,
    );
    let mut sched = Scheduler::new(fleet, SystemPowerPolicy::unlimited(), seeds.subtree("s"));
    for i in 0..4 {
        sched.submit(JobSpec::rigid(
            i,
            Arc::new(SyntheticApp::new(Profile::Mixed, 20.0, 10)),
            1,
            SimTime::ZERO,
        ));
    }
    for _ in 0..3 {
        sched.step(SimDuration::from_secs(1));
    }
    assert!(sched.cancel(powerstack::rm::JobId(2)));
    sched.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(3600));
    assert_eq!(sched.records().len(), 3);
    let m = sched.metrics();
    assert!(m.utilization > 0.0 && m.utilization <= 1.0);
    assert!(m.system_energy_j > 0.0);
    // All 4 nodes are back in the idle pool.
    assert_eq!(sched.idle_temperatures().len(), 4);
}

/// The facade prelude exposes a coherent API surface (compile-time check
/// that the documented entry points exist).
#[test]
fn prelude_surface_complete() {
    let _ = HypreConfig::space();
    let _ = KernelModel::polybench_large();
    let _ = Lulesh::medium();
    let _ = EpopApp::lulesh_like(10.0, 2);
    let _ = SystemPowerPolicy::unlimited();
    let _ = Objective::MinEdp.cost(1.0, 1.0, 1.0);
    let _ = powerstack::core::knob_registry();
    let _ = powerstack::core::component_catalog();
    let _ = powerstack::core::vocabulary();
}

#[test]
fn shipped_snapshot_has_no_errors() {
    // Every rule, the layer invariants (PSA011) included, over the model
    // the workspace ships.
    let report = powerstack::analyze::analyze_shipped();
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == powerstack::analyze::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "shipped config must lint clean: {errors:#?}"
    );
}
