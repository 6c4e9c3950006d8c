//! Equivalence proof for the event-driven scheduler engine.
//!
//! The event-driven drain ([`Scheduler::run_until`]) must produce **byte
//! identical** results to the retired per-tick loop (kept as
//! [`Scheduler::run_until_drained_per_tick`], the oracle): same `JobRecord`
//! stream, same energy accounting to the last mantissa bit, same metrics.
//! A proptest grid sweeps (seed × quantum × arrival pattern × power policy ×
//! budget-change script); deterministic tests pin the fig1/fig3 workload
//! shapes with their published seeds; a long-idle case pins the deferred
//! idle replay's fixed-point fast-forward against per-tick idle stepping;
//! and a kill-at-decile test proves the event heap round-trips through
//! `pstack-ckpt` snapshots mid-drain.

use proptest::prelude::*;
use pstack_apps::synthetic::random_app;
use pstack_ckpt::{read_snapshot, write_snapshot, ScratchDir};
use pstack_hwmodel::{NodeConfig, VariationModel};
use pstack_node::NodeManager;
use pstack_rm::policy::{PowerAssignment, SystemPowerPolicy};
use pstack_rm::scheduler::{EmergencyResponse, JobRecord, NodeSelection, Scheduler};
use pstack_rm::spec::{AgentKind, JobSpec};
use pstack_rm::EventHeap;
use pstack_runtime::GeopmPolicy;
use pstack_sim::{SeedTree, SimDuration, SimTime};
use rand::Rng;
use serde::Deserialize;
use std::sync::Arc;

/// Scenario knobs the property grid sweeps.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    n_nodes: usize,
    n_jobs: usize,
    quantum_ms: u64,
    arrival_pattern: u8,
    policy_kind: u8,
    budget_script: bool,
    fault_script: bool,
}

fn build_scheduler(sc: &Scenario) -> Scheduler {
    let seeds = SeedTree::new(sc.seed);
    let nodes = NodeManager::fleet(
        sc.n_nodes,
        NodeConfig::server_default(),
        &VariationModel::typical(),
        &seeds,
    );
    let policy = match sc.policy_kind {
        0 => SystemPowerPolicy::unlimited(),
        1 => SystemPowerPolicy::budgeted(
            450.0 * sc.n_nodes as f64 * 0.6,
            PowerAssignment::Unconstrained,
        ),
        _ => {
            SystemPowerPolicy::budgeted(400.0 * sc.n_nodes as f64 * 0.7, PowerAssignment::FairShare)
        }
    };
    let mut sched = Scheduler::new(nodes, policy, seeds.subtree("sched"));
    if sc.policy_kind == 2 {
        sched = sched.with_dynamic_power_reassignment(SimDuration::from_secs(10));
    }
    let mut rng = seeds.rng("arrivals");
    let mut t = 0u64;
    for i in 0..sc.n_jobs {
        let mut app = random_app(&seeds, i as u64);
        // Shrink to seconds-scale jobs so the per-tick oracle stays cheap.
        app.work_per_node *= 0.02;
        let nodes_wanted = 1usize << rng.gen_range(0..3);
        let agent = match rng.gen_range(0..3) {
            0 => AgentKind::None,
            1 => AgentKind::Geopm(GeopmPolicy::PowerGovernor { node_cap_w: 350.0 }),
            _ => AgentKind::Geopm(GeopmPolicy::PowerBalancer { job_budget_w: 1.0 }),
        };
        sched.submit(
            JobSpec::rigid(i as u64, Arc::new(app), nodes_wanted, SimTime::from_secs(t))
                .with_agent(agent),
        );
        t += match sc.arrival_pattern {
            // Everything at t = 0: a pure backlog drain.
            0 => 0,
            // Steady trickle (the fig3 idiom).
            1 => rng.gen_range(5..30),
            // Bursty: clumps separated by long silences — exercises the
            // event engine's fast-forward leaps over empty stretches.
            2 => {
                if i % 4 == 3 {
                    rng.gen_range(300..900)
                } else {
                    0
                }
            }
            // Front load then a dead gap before a late straggler.
            _ => {
                if i == sc.n_jobs - 2 {
                    3600
                } else {
                    rng.gen_range(0..10)
                }
            }
        };
    }
    if sc.budget_script {
        // A rolling demand-response script: cut hard mid-drain, then restore.
        let site = 450.0 * sc.n_nodes as f64;
        sched.schedule_budget_change(
            SimTime::from_secs(40),
            Some(site * 0.35),
            EmergencyResponse::PauseJobs,
        );
        sched.schedule_budget_change(
            SimTime::from_secs(90),
            Some(site * 0.5),
            EmergencyResponse::TightenCaps,
        );
        // FairShare admission requires a finite budget, so "restore" means
        // back to the full site budget there; otherwise lift the cap.
        let restore = if sc.policy_kind == 2 {
            Some(site)
        } else {
            None
        };
        sched.schedule_budget_change(
            SimTime::from_secs(200),
            restore,
            EmergencyResponse::PauseJobs,
        );
    }
    if sc.fault_script {
        // RM-class fault script through the event heap: two crash/recover
        // cycles (one likely under a running job), a software abort, a
        // stuck cap actuator and a telemetry dropout window.
        sched.schedule_node_fail(SimTime::from_secs(25), 0);
        sched.schedule_node_recover(SimTime::from_secs(180), 0);
        sched.schedule_node_fail(SimTime::from_secs(70), sc.n_nodes - 1);
        sched.schedule_node_recover(SimTime::from_secs(400), sc.n_nodes - 1);
        sched.schedule_job_fail(SimTime::from_secs(55), pstack_rm::spec::JobId(1));
        sched.schedule_cap_stick(SimTime::from_secs(10), 1, SimTime::from_secs(300));
        sched.schedule_telemetry_dropout(SimTime::from_secs(15), SimTime::from_secs(120));
    }
    sched
}

/// Bitwise comparison of two record streams: every field, with floats
/// compared by `to_bits` so "close" can never pass for "equal".
fn assert_records_identical(event: &[JobRecord], tick: &[JobRecord]) {
    assert_eq!(event.len(), tick.len(), "record counts differ");
    for (a, b) in event.iter().zip(tick.iter()) {
        assert_eq!(a.id, b.id, "record order/id");
        assert_eq!(a.submit, b.submit, "{}: submit", a.id);
        assert_eq!(a.start, b.start, "{}: start", a.id);
        assert_eq!(a.end, b.end, "{}: end", a.id);
        assert_eq!(a.nodes, b.nodes, "{}: nodes", a.id);
        assert_eq!(
            a.power_budget_w.map(f64::to_bits),
            b.power_budget_w.map(f64::to_bits),
            "{}: power budget bits",
            a.id
        );
        assert_eq!(
            a.energy_j.to_bits(),
            b.energy_j.to_bits(),
            "{}: energy bits ({} vs {})",
            a.id,
            a.energy_j,
            b.energy_j
        );
        assert_eq!(a.work.to_bits(), b.work.to_bits(), "{}: work bits", a.id);
    }
}

fn assert_engines_agree(sc: &Scenario, horizon_s: u64) {
    let quantum = SimDuration::from_millis(sc.quantum_ms);
    let horizon = SimTime::from_secs(horizon_s);

    let mut event = build_scheduler(sc);
    let mut tick = build_scheduler(sc);
    event.run_until_drained(quantum, horizon);
    tick.run_until_drained_per_tick(quantum, horizon);

    assert_records_identical(event.records(), tick.records());
    assert_eq!(event.rejected(), tick.rejected(), "rejected sets");
    assert_eq!(event.failed(), tick.failed(), "permanently failed sets");
    assert_eq!(event.down_nodes(), tick.down_nodes(), "down pools");
    assert_eq!(
        event.telemetry_dropouts(),
        tick.telemetry_dropouts(),
        "dropout counters"
    );
    assert_eq!(
        event.stuck_cap_drops(),
        tick.stuck_cap_drops(),
        "stuck-cap drop counters"
    );
    assert_eq!(event.now(), tick.now(), "final clocks");
    assert_eq!(
        event.system_energy_j().to_bits(),
        tick.system_energy_j().to_bits(),
        "site energy accounting bits"
    );
    assert_eq!(event.metrics(), tick.metrics(), "aggregate metrics");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The grid the tentpole promises: over random seeds, quanta, arrival
    /// patterns, policies and budget-change scripts, the event engine's
    /// record stream and energy accounting are byte-identical to the
    /// per-tick oracle's.
    #[test]
    fn event_engine_matches_per_tick_oracle(
        seed in 1u64..10_000,
        quantum_pick in 0u8..3,
        arrival_pattern in 0u8..4,
        policy_kind in 0u8..3,
        budget_pick in 0u8..2,
        fault_pick in 0u8..2,
    ) {
        let sc = Scenario {
            seed,
            n_nodes: 8,
            n_jobs: 10,
            quantum_ms: [250, 1_000, 3_000][quantum_pick as usize],
            arrival_pattern,
            policy_kind,
            budget_script: budget_pick == 1,
            fault_script: fault_pick == 1,
        };
        eprintln!("case: {sc:?}");
        assert_engines_agree(&sc, 4 * 3600);
    }
}

/// The fig3 workload shape at its published seed (20200902, the trace-replay
/// anchor used across the experiments) under the fully-dynamic policy — the
/// configuration with the most moving parts: fair-share budgets, dynamic
/// reassignment, balancer agents.
#[test]
fn fig3_workload_seed_byte_identity() {
    let sc = Scenario {
        seed: 20200902,
        n_nodes: 16,
        n_jobs: 24,
        quantum_ms: 1_000,
        arrival_pattern: 1,
        policy_kind: 2,
        budget_script: false,
        fault_script: false,
    };
    assert_engines_agree(&sc, 24 * 3600);
}

/// The fig1 workload shape: unconstrained power, heterogeneous agents, a
/// backlogged queue — the pure scheduling/backfill path.
#[test]
fn fig1_workload_seed_byte_identity() {
    let sc = Scenario {
        seed: 20200902,
        n_nodes: 8,
        n_jobs: 16,
        quantum_ms: 1_000,
        arrival_pattern: 0,
        policy_kind: 0,
        budget_script: false,
        fault_script: false,
    };
    assert_engines_agree(&sc, 24 * 3600);
}

/// Demand-response scripts land identically through the event heap.
#[test]
fn budget_script_byte_identity_across_quanta() {
    for &q in &[250u64, 1_000, 3_000] {
        let sc = Scenario {
            seed: 7,
            n_nodes: 8,
            n_jobs: 12,
            quantum_ms: q,
            arrival_pattern: 2,
            policy_kind: 1,
            budget_script: true,
            fault_script: false,
        };
        assert_engines_agree(&sc, 8 * 3600);
    }
}

/// RM-class fault events (node crash/recover, job abort, stuck actuator,
/// telemetry dropout) land identically through the event heap in both
/// engines, across quanta — the chaos-replay foundation E11 builds on.
#[test]
fn fault_script_byte_identity_across_quanta() {
    for &q in &[250u64, 1_000, 3_000] {
        for policy_kind in 0..3u8 {
            let sc = Scenario {
                seed: 99,
                n_nodes: 8,
                n_jobs: 12,
                quantum_ms: q,
                arrival_pattern: 1,
                policy_kind,
                budget_script: false,
                fault_script: true,
            };
            assert_engines_agree(&sc, 8 * 3600);
        }
    }
}

/// Satellite: horizon-boundary semantics. An event scheduled *exactly* at
/// the horizon never fires — both `run_until` and `run_until_drained` stop
/// at `now >= horizon` before the tick that would pop it (the grace pass
/// adds physics, not event processing) — and it stays pending so a resumed
/// drain with a later horizon applies it exactly once.
#[test]
fn budget_change_exactly_at_horizon_stays_pending() {
    let sc = Scenario {
        seed: 5,
        n_nodes: 8,
        n_jobs: 8,
        quantum_ms: 1_000,
        arrival_pattern: 0,
        policy_kind: 1,
        budget_script: false,
        fault_script: false,
    };
    let quantum = SimDuration::from_secs(1);
    let horizon = SimTime::from_secs(40);
    let cut = Some(450.0 * 8.0 * 0.2);

    let mut bare = build_scheduler(&sc);
    let mut graced = build_scheduler(&sc);
    for s in [&mut bare, &mut graced] {
        s.schedule_budget_change(horizon, cut, EmergencyResponse::PauseJobs);
    }
    bare.run_until(quantum, horizon);
    graced.run_until_drained(quantum, horizon);

    for (name, s) in [("run_until", &bare), ("run_until_drained", &graced)] {
        assert_eq!(
            s.trace().of_kind("budget_change").count(),
            0,
            "{name}: a change exactly at the horizon must not fire"
        );
        assert!(!s.events().is_empty(), "{name}: the change stays pending");
        assert!(
            s.events().cursor() <= horizon,
            "{name}: cursor never passes the horizon"
        );
    }
    // Resuming past the boundary fires it exactly once in both.
    let later = SimTime::from_secs(120);
    bare.run_until(quantum, later);
    graced.run_until_drained(quantum, later);
    for (name, s) in [("run_until", &bare), ("run_until_drained", &graced)] {
        assert_eq!(
            s.trace().of_kind("budget_change").count(),
            1,
            "{name}: resumed drain applies the pending change once"
        );
    }
}

/// Satellite: a retroactive `schedule_budget_change` (fire time already
/// behind the clock mid-drain) fires at the next event pop in both engines
/// without regressing the heap cursor, and the remainder of the drain stays
/// byte-identical.
#[test]
fn retroactive_budget_change_mid_drain_agrees_across_engines() {
    let sc = Scenario {
        seed: 11,
        n_nodes: 8,
        n_jobs: 10,
        quantum_ms: 1_000,
        arrival_pattern: 1,
        policy_kind: 1,
        budget_script: false,
        fault_script: false,
    };
    let quantum = SimDuration::from_secs(1);
    let mut event = build_scheduler(&sc);
    let mut tick = build_scheduler(&sc);

    // Drive both engines to t=30 in lockstep, then push a change dated
    // t=10 — twenty simulated seconds in the past.
    for _ in 0..30 {
        event.step(quantum);
        tick.step(quantum);
    }
    let cursor_before = event.events().cursor();
    let cut = Some(450.0 * 8.0 * 0.3);
    for s in [&mut event, &mut tick] {
        s.schedule_budget_change(SimTime::from_secs(10), cut, EmergencyResponse::TightenCaps);
    }
    let horizon = SimTime::from_secs(8 * 3600);
    event.run_until_drained(quantum, horizon);
    tick.run_until_drained_per_tick(quantum, horizon);

    assert_records_identical(event.records(), tick.records());
    assert_eq!(
        event.system_energy_j().to_bits(),
        tick.system_energy_j().to_bits(),
        "energy bits after a retroactive change"
    );
    assert_eq!(event.trace().of_kind("budget_change").count(), 1);
    assert_eq!(tick.trace().of_kind("budget_change").count(), 1);
    assert!(
        event.events().cursor() >= cursor_before,
        "retroactive pop must not regress the cursor"
    );
}

/// Idle stretches longer than the ~1,100 quanta an idle node needs to reach
/// its fixed point: jobs arrive in pairs separated by 1,150–1,600 quanta of
/// silence, and `CoolestFirst` selection replays the whole idle pool at
/// every launch. Windowed `system_power_w` samples observe the pool between
/// launches. The event engine's replay fast-forwards settled nodes; the
/// per-tick oracle steps every idle node every tick. Records, rejections,
/// clock, site energy and every sampled power must agree bit for bit.
#[test]
fn long_idle_fast_forward_matches_per_tick_oracle() {
    for quantum_ms in [1_000u64, 3_000] {
        let quantum = SimDuration::from_millis(quantum_ms);
        let build = || {
            let seeds = SeedTree::new(2024 + quantum_ms);
            let nodes = NodeManager::fleet(
                8,
                NodeConfig::server_default(),
                &VariationModel::typical(),
                &seeds,
            );
            let policy = SystemPowerPolicy::budgeted(450.0 * 8.0 * 0.7, PowerAssignment::FairShare);
            let mut sched = Scheduler::new(nodes, policy, seeds.subtree("sched"))
                .with_node_selection(NodeSelection::CoolestFirst);
            let mut rng = seeds.rng("long-idle-arrivals");
            let mut t = SimTime::ZERO;
            for i in 0..10u64 {
                let mut app = random_app(&seeds, i);
                app.work_per_node *= 0.02;
                let nodes_wanted = 1usize << rng.gen_range(0..3);
                sched.submit(JobSpec::rigid(i, Arc::new(app), nodes_wanted, t));
                if i % 2 == 1 {
                    t += quantum * rng.gen_range(1_150..1_600);
                }
            }
            sched
        };
        let window = quantum * 200;
        let horizon = SimTime::from_secs(12 * 3600);

        let mut event = build();
        let mut tick = build();
        let (mut event_powers, mut tick_powers) = (Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        while event.queued() + event.running() > 0 && t < horizon {
            t += window;
            event.run_until(quantum, t);
            event_powers.push(event.system_power_w().to_bits());
            while tick.queued() + tick.running() > 0 && tick.now() < t {
                tick.step(quantum);
            }
            tick_powers.push(tick.system_power_w().to_bits());
        }
        event.run_until_drained(quantum, horizon);
        tick.run_until_drained_per_tick(quantum, horizon);

        let what = format!("quantum {quantum}");
        assert_records_identical(event.records(), tick.records());
        assert_eq!(event.records().len(), 10, "{what}: every job completes");
        assert_eq!(event.rejected(), tick.rejected(), "{what}: rejected sets");
        assert_eq!(event.now(), tick.now(), "{what}: final clocks");
        assert_eq!(
            event.system_energy_j().to_bits(),
            tick.system_energy_j().to_bits(),
            "{what}: site energy bits"
        );
        assert_eq!(event_powers, tick_powers, "{what}: sampled power bits");
        assert!(event_powers.len() > 20, "{what}: windows observed");
        assert!(
            event.idle_quanta_fast_forwarded() > 8 * 1_000,
            "{what}: the fast path barely ran ({} quanta)",
            event.idle_quanta_fast_forwarded()
        );
        assert_eq!(
            tick.idle_quanta_fast_forwarded(),
            0,
            "{what}: the oracle must step idle nodes plainly"
        );
    }
}

/// Kill-at-decile resume: drive the event engine in ten horizon slices, and
/// at every slice boundary round-trip the event heap through a `pstack-ckpt`
/// snapshot (serialize → write → read → deserialize → restore). The final
/// record stream must be byte-identical to an uninterrupted drain — i.e. the
/// heap's wire form carries everything the engine needs to resume.
#[test]
fn kill_at_decile_resume_round_trips_event_heap() {
    let sc = Scenario {
        seed: 1234,
        n_nodes: 8,
        n_jobs: 12,
        quantum_ms: 1_000,
        arrival_pattern: 2,
        policy_kind: 2,
        budget_script: true,
        fault_script: false,
    };
    let quantum = SimDuration::from_millis(sc.quantum_ms);
    let horizon_s = 8 * 3600u64;
    let horizon = SimTime::from_secs(horizon_s);

    let mut reference = build_scheduler(&sc);
    reference.run_until_drained(quantum, horizon);

    let scratch = ScratchDir::new("event-heap-deciles");
    let mut segmented = build_scheduler(&sc);
    for decile in 1..=10u64 {
        segmented.run_until(quantum, SimTime::from_secs(horizon_s * decile / 10));
        let path = scratch.path().join(format!("heap-{decile}.snap"));
        write_snapshot(&path, segmented.events()).expect("snapshot heap");
        let value = read_snapshot(&path).expect("read heap snapshot");
        let restored = EventHeap::from_value(&value).expect("decode heap");
        assert_eq!(
            &restored,
            segmented.events(),
            "decile {decile}: heap wire round-trip"
        );
        segmented.restore_events(restored);
    }
    segmented.run_until_drained(quantum, horizon);

    assert_records_identical(segmented.records(), reference.records());
    assert_eq!(
        segmented.system_energy_j().to_bits(),
        reference.system_energy_j().to_bits(),
        "energy accounting after resume"
    );
}
