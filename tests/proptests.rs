//! Property-based tests on the core invariants of the stack.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use powerstack::autotune::PerfDatabase;
use powerstack::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Energy equals ∫ P dt for any sequence of steps and knob settings.
    #[test]
    fn energy_is_integral_of_power(
        steps in prop::collection::vec((50u64..2000, 0usize..4, 1usize..49), 1..30),
        seed in 0u64..1000,
    ) {
        let seeds = SeedTree::new(seed);
        let mut node = Node::new(NodeId(0), NodeConfig::server_default(),
                                 &VariationModel::typical(), &seeds);
        let mixes = [
            PhaseMix::pure(PhaseKind::ComputeBound),
            PhaseMix::pure(PhaseKind::MemoryBound),
            PhaseMix::pure(PhaseKind::CommBound),
            PhaseMix::pure(PhaseKind::IoBound),
        ];
        let mut t = SimTime::ZERO;
        let mut integral = 0.0;
        for (ms, mix_idx, cores) in steps {
            let dt = SimDuration::from_millis(ms);
            let out = node.step(t, dt, &mixes[mix_idx], cores);
            integral += out.power_w * dt.as_secs_f64();
            t += dt;
        }
        prop_assert!((node.energy_j() - integral).abs() <= 1e-6 * integral.max(1.0));
    }

    /// A RAPL cap is honoured in steady state for every cap level and mix.
    #[test]
    fn power_cap_always_honoured(
        cap_w in 150.0f64..420.0,
        mix_idx in 0usize..3,
        seed in 0u64..100,
    ) {
        let seeds = SeedTree::new(seed);
        let mut node = Node::new(NodeId(0), NodeConfig::server_default(),
                                 &VariationModel::typical(), &seeds);
        let mixes = [
            PhaseMix::pure(PhaseKind::ComputeBound),
            PhaseMix::pure(PhaseKind::MemoryBound),
            PhaseMix::new(1.0, 1.0, 0.3, 0.1),
        ];
        node.set_power_cap(SimTime::ZERO, cap_w, SimDuration::from_millis(10));
        let dt = SimDuration::from_millis(10);
        let mut t = SimTime::ZERO;
        // Settle.
        for _ in 0..150 {
            node.step(t, dt, &mixes[mix_idx], 48);
            t += dt;
        }
        // Measure.
        let e0 = node.energy_j();
        let t0 = t;
        for _ in 0..200 {
            node.step(t, dt, &mixes[mix_idx], 48);
            t += dt;
        }
        let avg = (node.energy_j() - e0) / t.since(t0).as_secs_f64();
        // Caps below the idle floor cannot be met; only check binding caps
        // above the uncapped-idle baseline.
        let floor = {
            let mut idle = Node::new(NodeId(1), NodeConfig::server_default(),
                                     &VariationModel::typical(), &seeds);
            idle.set_freq_ghz(1.0);
            idle.power_w(&mixes[mix_idx], 48)
        };
        if cap_w >= floor {
            prop_assert!(avg <= cap_w * 1.08, "avg {avg} vs cap {cap_w}");
        }
    }

    /// The lockstep kernel conserves work exactly for any pattern of
    /// sub-step caps and node speeds.
    #[test]
    fn cursor_conserves_work(
        phase_works in prop::collection::vec(0.01f64..5.0, 1..12),
        slices in prop::collection::vec((0.1f64..3.0, 0.01f64..1.0), 1..200),
    ) {
        use powerstack::node::{Activity, Lockstep, StepBackend};
        struct Speed(f64);
        impl StepBackend for Speed {
            fn work_rate(&mut self, _node: usize, _index: usize, _phase: &Phase) -> f64 {
                self.0
            }
            fn step(&mut self, _node: usize, _t: SimTime, _dt: SimDuration, _a: Activity<'_>) {}
        }
        let phases: Vec<Phase> = phase_works
            .iter()
            .enumerate()
            .map(|(i, &w)| Phase::new(format!("p{i}"), PhaseMix::pure(PhaseKind::ComputeBound), w))
            .collect();
        let total: f64 = phase_works.iter().sum();
        // One node: no imbalance, so its program is the phase list itself.
        let mut lanes = Lockstep::new(
            Workload::from_phases(phases), 1, &MpiModel::typical(), &SeedTree::new(0),
        );
        let mut t = SimTime::ZERO;
        for (speed, dt) in slices {
            if lanes.is_complete() {
                break;
            }
            t += lanes.step(t, SimDuration::from_secs_f64(dt), &mut Speed(speed)).dt;
        }
        let done = lanes.work_done()[0];
        prop_assert!(done <= total * (1.0 + 1e-9));
        prop_assert!((done + lanes.remaining_total(0) - total).abs() <= 1e-6 * total);
    }

    /// Power-budget splitting conserves watts for any weights.
    #[test]
    fn budget_split_conserves_watts(
        total in 100.0f64..100_000.0,
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        let b = PowerBudget::new(total, SimDuration::from_millis(10));
        let parts = b.split_weighted(&weights);
        let sum: f64 = parts.iter().map(|p| p.watts).sum();
        prop_assert!((sum - total).abs() < 1e-6 * total);
    }

    /// Parameter-space sampling never yields an invalid configuration, and
    /// encode() stays within the unit cube.
    #[test]
    fn space_sampling_valid(seed in 0u64..500) {
        let space = ParamSpace::new()
            .with(Param::ints("a", 0..7))
            .with(Param::ints("b", 0..5))
            .with(Param::floats("c", [0.1, 0.2, 0.7]))
            .with_constraint("a>=b", |s, c| {
                s.value(c, "a").as_int() >= s.value(c, "b").as_int()
            });
        let mut rng = SeedTree::new(seed).rng("sample");
        for _ in 0..20 {
            let cfg = space.sample(&mut rng);
            prop_assert!(space.is_valid(&cfg));
            for v in space.encode(&cfg) {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    /// The speed model is monotone in frequency for every mixture.
    #[test]
    fn speed_monotone_in_frequency(
        w_comp in 0.0f64..1.0,
        w_mem in 0.0f64..1.0,
        w_comm in 0.0f64..1.0,
        uncore in 1.2f64..2.8,
    ) {
        prop_assume!(w_comp + w_mem + w_comm > 0.01);
        let mix = PhaseMix::new(w_comp, w_mem, w_comm, 0.05);
        let sm = powerstack::hwmodel::SpeedModel::server_default();
        let mut prev = 0.0;
        for i in 0..12 {
            let f = 1.0 + 0.22 * i as f64;
            let s = sm.speed(&mix, f, uncore, powerstack::hwmodel::DutyCycle::FULL);
            prop_assert!(s >= prev);
            prev = s;
        }
    }

    /// Node power is monotone in the P-state for any active core count.
    #[test]
    fn power_monotone_in_pstate(cores in 1usize..49, mix_idx in 0usize..2) {
        let mixes = [
            PhaseMix::pure(PhaseKind::ComputeBound),
            PhaseMix::pure(PhaseKind::MemoryBound),
        ];
        let mut node = Node::nominal(NodeId(0), NodeConfig::server_default());
        let mut prev = 0.0;
        for f in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5] {
            node.set_freq_ghz(f);
            let p = node.power_w(&mixes[mix_idx], cores);
            prop_assert!(p >= prev, "power dropped raising freq to {f}");
            prev = p;
        }
    }

    /// Scheduler safety: whatever the job mix, nodes are never oversubscribed
    /// and every completed job ran within the fleet.
    #[test]
    fn scheduler_never_oversubscribes(
        job_sizes in prop::collection::vec(1usize..5, 1..8),
        seed in 0u64..50,
    ) {
        use std::sync::Arc;
        let seeds = SeedTree::new(seed);
        let fleet_size = 6;
        let fleet = NodeManager::fleet(
            fleet_size,
            NodeConfig::server_default(),
            &VariationModel::none(),
            &seeds,
        );
        let mut sched = Scheduler::new(
            fleet,
            SystemPowerPolicy::unlimited(),
            seeds.subtree("sched"),
        );
        for (i, &n) in job_sizes.iter().enumerate() {
            sched.submit(JobSpec::rigid(
                i as u64,
                Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 3.0, 3)),
                n,
                SimTime::ZERO,
            ));
        }
        sched.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(7200));
        prop_assert_eq!(sched.records().len(), job_sizes.len());
        for r in sched.records() {
            prop_assert!(r.nodes <= fleet_size);
            prop_assert!(r.end > r.start);
            prop_assert!(r.energy_j > 0.0);
        }
    }

    /// Recording any permutation of the same evaluation batch into the
    /// performance database yields the same `best()` and the same
    /// best-so-far trajectory tail — the invariant the parallel batch tuner
    /// relies on when it fans a suggestion batch over worker threads.
    #[test]
    fn db_is_permutation_stable_over_a_batch(
        raw in prop::collection::vec((0usize..40, 0u64..1000), 1..40),
        rotation in 0usize..40,
        swaps in prop::collection::vec((0usize..40, 0usize..40), 0..40),
    ) {
        // Perturb each objective by its batch index so all objectives are
        // distinct: ties in `best()` break by arrival order, which a
        // permutation legitimately changes. The (config, objective) pairs
        // themselves travel together, so both databases see one multiset.
        let batch: Vec<(Vec<usize>, f64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(c, o))| (vec![c, i % 7], o as f64 + i as f64 * 1e-9))
            .collect();

        // Rotation plus transpositions reaches every permutation.
        let mut permuted = batch.clone();
        let n = permuted.len();
        permuted.rotate_left(rotation % n);
        for &(a, b) in &swaps {
            permuted.swap(a % n, b % n);
        }

        let mut in_order = PerfDatabase::new();
        let mut shuffled = PerfDatabase::new();
        for (cfg, obj) in batch {
            in_order.record(cfg, obj, Default::default());
        }
        for (cfg, obj) in permuted {
            shuffled.record(cfg, obj, Default::default());
        }

        prop_assert_eq!(in_order.len(), shuffled.len());
        let (a, b) = (in_order.best().unwrap(), shuffled.best().unwrap());
        prop_assert_eq!(&a.config, &b.config);
        prop_assert_eq!(a.objective, b.objective);
        prop_assert_eq!(
            in_order.trajectory().last().copied(),
            shuffled.trajectory().last().copied()
        );
    }
}
