//! Scalar-oracle equivalence for the batched node lanes.
//!
//! `NodeBatch` claims *bit* identity with `Node::step` / `Node::work_rate`
//! and the node's readings. These property tests drive both
//! implementations through identical random sequences of phase mixes, active
//! core counts, tick lengths and knob writes — including sequences hot
//! enough to cross the 95 °C throttle threshold and cool back through the
//! 90 °C hysteresis release — and compare every output with `f64::to_bits`:
//! on one fresh nominal node (the evaluation arena's lanes, filled by
//! `reset`), and on fleet nodes with manufacturing variation and a thermal
//! gradient loaded into lanes (a running job's lanes, filled by `load`),
//! whose counters, package energy and cap controllers must match too.

#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use pstack_hwmodel::{
    DutyCycle, Node, NodeBatch, NodeConfig, NodeId, PhaseKind, PhaseMix, ThermalModel,
    VariationModel,
};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use pstack_telemetry::counters::ALL_COUNTERS;

/// One scripted action applied identically to both implementations.
#[derive(Debug, Clone)]
enum Action {
    /// Advance by `dt_us` running `mix` on `active` cores.
    Step {
        mix: PhaseMix,
        active: usize,
        dt_us: u64,
    },
    /// Request a P-state on every package.
    SetPstate(usize),
    /// Apply a node power cap (watts) over a 10 ms window.
    SetCap(f64),
}

/// A random step: a phase mix, an active core count and a tick length.
fn random_step(rng: &mut proptest::TestRng) -> (PhaseMix, usize, u64) {
    use rand::Rng;
    let mix = match rng.gen_range(0u32..5) {
        0 => PhaseMix::pure(PhaseKind::ComputeBound),
        1 => PhaseMix::pure(PhaseKind::MemoryBound),
        2 => PhaseMix::pure(PhaseKind::CommBound),
        3 => PhaseMix::pure(PhaseKind::IoBound),
        _ => PhaseMix::new(
            rng.gen_range(1u32..9) as f64,
            rng.gen_range(1u32..9) as f64,
            rng.gen_range(1u32..9) as f64,
            rng.gen_range(1u32..9) as f64,
        ),
    };
    let active = [0usize, 1, 6, 24, 30, 48, 64][rng.gen_range(0usize..7)];
    // 1 µs .. 60 s spans the driver's substep range and beyond.
    let dt_us = match rng.gen_range(0u32..3) {
        0 => rng.gen_range(1u64..250_001),
        1 => 250_000,
        _ => rng.gen_range(250_000u64..60_000_001),
    };
    (mix, active, dt_us)
}

/// Custom strategy (the vendored proptest stand-in has no `prop_oneof` /
/// `prop_map`): mostly steps, with occasional P-state requests and cap
/// applications mixed in.
struct ActionStrategy;

impl Strategy for ActionStrategy {
    type Value = Action;

    fn generate(&self, rng: &mut proptest::TestRng) -> Action {
        use rand::Rng;
        match rng.gen_range(0u32..10) {
            0 => Action::SetPstate(rng.gen_range(0usize..31)),
            1 => Action::SetCap(rng.gen_range(100.0f64..440.0)),
            _ => {
                let (mix, active, dt_us) = random_step(rng);
                Action::Step { mix, active, dt_us }
            }
        }
    }
}

/// Run the same script through the scalar node and the batch, asserting
/// bitwise-equal outputs at every step.
fn check_equivalence(initial_cap: Option<f64>, script: Vec<Action>) {
    let cfg = NodeConfig::server_default();
    let window = SimDuration::from_millis(10);
    let mut node = Node::nominal(NodeId(0), cfg.clone());
    let mut batch = NodeBatch::new(cfg);
    batch.reset(1, initial_cap, window);
    if let Some(cap) = initial_cap {
        node.set_power_cap(SimTime::ZERO, cap, window);
    }
    let mut t = SimTime::ZERO;
    for (i, action) in script.into_iter().enumerate() {
        match action {
            Action::Step { mix, active, dt_us } => {
                let dt = SimDuration::from_micros(dt_us);
                let mix_id = batch.register_mix(&mix);
                let rate_scalar = node.work_rate(&mix, active);
                let rate_batch = batch.work_rate(0, mix_id, active);
                assert_eq!(
                    rate_scalar.to_bits(),
                    rate_batch.to_bits(),
                    "work_rate diverged at action {i}: {rate_scalar} vs {rate_batch}"
                );
                let s = node.step(t, dt, &mix, active);
                let b = batch.step(0, t, dt, mix_id, active);
                batch.close_substep();
                assert_eq!(
                    s.power_w.to_bits(),
                    b.power_w.to_bits(),
                    "power diverged at action {i}: {} vs {}",
                    s.power_w,
                    b.power_w
                );
                assert_eq!(
                    s.work.to_bits(),
                    b.work.to_bits(),
                    "work diverged at action {i}"
                );
                assert_eq!(
                    s.effective_freq_ghz.to_bits(),
                    b.effective_freq_ghz.to_bits(),
                    "frequency diverged at action {i}"
                );
                assert_eq!(s.throttled, b.throttled, "throttle diverged at action {i}");
                assert_eq!(
                    node.energy_j().to_bits(),
                    batch.energy_j(0).to_bits(),
                    "energy diverged at action {i}"
                );
                assert_eq!(
                    node.max_temperature_c().to_bits(),
                    batch.max_temperature_c(0).to_bits(),
                    "temperature diverged at action {i}"
                );
                t += dt;
            }
            Action::SetPstate(idx) => {
                for p in node.packages_mut() {
                    p.set_pstate(idx);
                }
                batch.set_pstate(0, idx);
            }
            Action::SetCap(cap_w) => {
                node.set_power_cap(t, cap_w, window);
                batch.set_power_cap(0, t, cap_w, window);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uncapped random sequences: thermals, throttling and work accounting.
    #[test]
    fn batch_matches_scalar_uncapped(script in prop::collection::vec(ActionStrategy, 1..40)) {
        check_equivalence(None, script);
    }

    /// Capped from t = 0: the RAPL controller trajectory must match too.
    #[test]
    fn batch_matches_scalar_capped(
        cap in 150.0f64..440.0,
        script in prop::collection::vec(ActionStrategy, 1..40),
    ) {
        check_equivalence(Some(cap), script);
    }

    /// The decay expression the lanes use reproduces the scalar
    /// `ThermalModel` exactly for arbitrary power/tick sequences.
    #[test]
    fn thermal_memo_is_exact(
        seq in prop::collection::vec((0.0f64..500.0, 1u64..120_000_001), 1..64),
    ) {
        let cfg = NodeConfig::server_default();
        let mut scalar = ThermalModel::server_default();
        let mut batch = NodeBatch::new(cfg);
        batch.reset(1, None, SimDuration::from_millis(10));
        // Drive the batch's lane 0 thermal state indirectly is not possible
        // at arbitrary powers, so check the decay factor against a scalar
        // model advanced with the same dt: temperatures stay bit-equal when
        // power comes from the same step computation (covered above); here we
        // pin the standalone exponential path.
        for (p_w, dt_us) in seq {
            let dt_s = SimDuration::from_micros(dt_us).as_secs_f64();
            let before = scalar.temperature_c();
            scalar.advance(p_w, dt_s);
            let tau = scalar.r_th * scalar.c_th;
            let decay = (-dt_s / tau).exp();
            let t_inf = scalar.t_ambient + p_w * scalar.r_th;
            let expect = t_inf + (before - t_inf) * decay;
            prop_assert_eq!(scalar.temperature_c().to_bits(), expect.to_bits());
        }
    }
}

/// Deterministic regression: with a hot inlet, a sustained compute sequence
/// must cross the 95 °C throttle on both paths at the same step, hold through
/// hysteresis, and release at the same step after idling down.
#[test]
fn throttle_hysteresis_crossing_matches() {
    let cfg = NodeConfig::server_default();
    let mut node = Node::nominal(NodeId(0), cfg.clone());
    let mut batch = NodeBatch::new(cfg);
    batch.reset(1, None, SimDuration::from_millis(10));
    // Hot inlet so the compute mix can actually reach 95 °C (steady state
    // ≈ 70 + 155·0.25 ≈ 109 °C per package).
    node.set_ambient_c(70.0);
    batch.set_ambient_c(0, 70.0);
    let mix = PhaseMix::pure(PhaseKind::ComputeBound);
    let mix_id = batch.register_mix(&mix);
    let dt = SimDuration::from_millis(250);
    let mut t = SimTime::ZERO;
    let mut saw_throttle = false;
    for i in 0..2000 {
        let s = node.step(t, dt, &mix, 48);
        let b = batch.step(0, t, dt, mix_id, 48);
        batch.close_substep();
        assert_eq!(s.throttled, b.throttled, "latch diverged at heat step {i}");
        assert_eq!(s.power_w.to_bits(), b.power_w.to_bits());
        assert_eq!(s.work.to_bits(), b.work.to_bits());
        saw_throttle |= s.throttled;
        t += dt;
    }
    assert!(saw_throttle, "test must actually engage the throttle");
    // Cool down: idle mix, zero active cores — the hysteresis release below
    // 90 °C must happen on the same step for both paths.
    let idle = PhaseMix::pure(PhaseKind::IoBound);
    let idle_id = batch.register_mix(&idle);
    let mut released = false;
    for i in 0..2000 {
        let s = node.step(t, dt, &idle, 0);
        let b = batch.step(0, t, dt, idle_id, 0);
        batch.close_substep();
        assert_eq!(s.throttled, b.throttled, "latch diverged at cool step {i}");
        assert_eq!(s.power_w.to_bits(), b.power_w.to_bits());
        released |= !s.throttled;
        t += dt;
    }
    assert!(released, "test must actually release the throttle");
    assert_eq!(
        node.energy_j().to_bits(),
        batch.energy_j(0).to_bits(),
        "energy must agree across the full throttle cycle"
    );
}

/// One scripted action on a fleet: a step of every node, or a knob write
/// to one node.
#[derive(Debug, Clone)]
enum FleetAction {
    /// Advance every node by `dt_us` running `mix` on `active` cores.
    Step {
        mix: PhaseMix,
        active: usize,
        dt_us: u64,
    },
    /// Set (`Some`) or release (`None`) a node's frequency limit, GHz.
    FreqLimit(usize, Option<f64>),
    /// Set or release a node's MPI frequency override, GHz.
    MpiOverride(usize, Option<f64>),
    /// Set a node's uncore index (out-of-range indices clamp).
    Uncore(usize, usize),
    /// Set a node's duty cycle, sixteenths.
    Duty(usize, u8),
    /// Set a node power cap (watts) over a window (ms): a new cap, or a
    /// retarget of one with the same window.
    Cap(usize, f64, u64),
    /// Clear a node's power cap.
    ClearCap(usize),
}

/// Fleet scripts over `n` nodes: mostly steps, with knob writes of every
/// kind to random nodes.
struct FleetStrategy(usize);

impl Strategy for FleetStrategy {
    type Value = FleetAction;

    fn generate(&self, rng: &mut proptest::TestRng) -> FleetAction {
        use rand::Rng;
        let node = rng.gen_range(0..self.0);
        let ghz = |rng: &mut proptest::TestRng| {
            rng.gen_bool(0.7)
                .then(|| [0.8, 1.2, 1.55, 2.0, 2.4, 2.85, 3.5, 4.0][rng.gen_range(0usize..8)])
        };
        match rng.gen_range(0u32..14) {
            0 => FleetAction::FreqLimit(node, ghz(rng)),
            1 => FleetAction::MpiOverride(node, ghz(rng)),
            2 => FleetAction::Uncore(node, rng.gen_range(0usize..12)),
            3 => FleetAction::Duty(node, rng.gen_range(1u8..17)),
            4 | 5 => FleetAction::Cap(
                node,
                rng.gen_range(100.0f64..440.0),
                [1u64, 10, 10, 100][rng.gen_range(0usize..4)],
            ),
            6 => FleetAction::ClearCap(node),
            _ => {
                let (mix, active, dt_us) = random_step(rng);
                FleetAction::Step { mix, active, dt_us }
            }
        }
    }
}

/// Every reading of a node's state, each float as its bits.
fn readings(energy: f64, temp: f64, freq: f64, cap: Option<f64>, counters: [f64; 8]) -> Vec<u64> {
    let mut v = vec![
        energy.to_bits(),
        temp.to_bits(),
        freq.to_bits(),
        cap.map_or(u64::MAX, f64::to_bits),
    ];
    v.extend(counters.iter().map(|c| c.to_bits()));
    v
}

/// Run a script over a fleet of `n` nodes with manufacturing variation and
/// an inlet gradient from 25 to 72 °C, once on scalar nodes and once on a
/// copy loaded into lanes. Every step's outputs and work rates, and every
/// node reading after it, must agree bit for bit; every few actions the
/// lanes are stored back and the whole node — package temperatures,
/// throttle latches, knobs, counters, package energy, cap controllers and
/// RAPL windows — must equal its scalar twin, then they are loaded again.
/// Returns the throttle flag of every node step, in order.
fn check_fleet(seed: u64, n: usize, script: Vec<FleetAction>) -> Vec<bool> {
    let cfg = NodeConfig::server_default();
    let seeds = SeedTree::new(seed);
    let mut scalar: Vec<Node> = (0..n)
        .map(|i| {
            let mut node = Node::new(NodeId(i), cfg.clone(), &VariationModel::typical(), &seeds);
            node.set_ambient_c(25.0 + 47.0 * i as f64 / (n - 1).max(1) as f64);
            node
        })
        .collect();
    let mut laned = scalar.clone();
    let mut batch = NodeBatch::new(cfg.clone());
    batch.load(laned.iter_mut());
    // The frequency bookkeeping `NodeManager` keeps: a governor limit and
    // an MPI override, applied as the lower of the two.
    let mut freq_knobs = vec![(None::<f64>, None::<f64>); n];
    let top_ghz = cfg.package.pstates.ladder().max();
    let mut throttled = Vec::new();
    let mut t = SimTime::ZERO;
    for (k, action) in script.into_iter().enumerate() {
        match action {
            FleetAction::Step { mix, active, dt_us } => {
                let dt = SimDuration::from_micros(dt_us);
                let mix_id = batch.register_mix(&mix);
                for (i, node) in scalar.iter_mut().enumerate() {
                    let rate = (
                        node.work_rate(&mix, active),
                        batch.work_rate(i, mix_id, active),
                    );
                    assert_eq!(
                        rate.0.to_bits(),
                        rate.1.to_bits(),
                        "rate, action {k} node {i}"
                    );
                    let s = node.step(t, dt, &mix, active);
                    let b = batch.step(i, t, dt, mix_id, active);
                    assert_eq!(
                        [s.work, s.power_w, s.effective_freq_ghz].map(f64::to_bits),
                        [b.work, b.power_w, b.effective_freq_ghz].map(f64::to_bits),
                        "step output, action {k} node {i}"
                    );
                    assert_eq!(s.throttled, b.throttled, "throttle, action {k} node {i}");
                    throttled.push(s.throttled);
                    assert_eq!(
                        readings(
                            node.energy_j(),
                            node.max_temperature_c(),
                            node.effective_freq_ghz(),
                            node.power_cap_w(),
                            ALL_COUNTERS.map(|c| node.counter(c)),
                        ),
                        readings(
                            batch.energy_j(i),
                            batch.max_temperature_c(i),
                            batch.effective_freq_ghz(i),
                            batch.power_cap_w(i),
                            ALL_COUNTERS.map(|c| batch.counter(i, c)),
                        ),
                        "readings, action {k} node {i}"
                    );
                }
                t += dt;
            }
            FleetAction::FreqLimit(i, ghz) | FleetAction::MpiOverride(i, ghz) => {
                match action {
                    FleetAction::FreqLimit(..) => freq_knobs[i].0 = ghz,
                    _ => freq_knobs[i].1 = ghz,
                }
                let (limit, over) = freq_knobs[i];
                let base = limit.unwrap_or(top_ghz);
                let eff = over.map_or(base, |ov| base.min(ov));
                scalar[i].set_freq_ghz(eff);
                batch.set_freq_ghz(i, eff);
            }
            FleetAction::Uncore(i, idx) => {
                scalar[i].set_uncore_idx(idx);
                batch.set_uncore_idx(i, idx);
            }
            FleetAction::Duty(i, level) => {
                scalar[i].set_duty(DutyCycle::new(level));
                batch.set_duty(i, DutyCycle::new(level));
            }
            FleetAction::Cap(i, cap_w, window_ms) => {
                let window = SimDuration::from_millis(window_ms);
                scalar[i].set_power_cap(t, cap_w, window);
                batch.set_power_cap(i, t, cap_w, window);
            }
            FleetAction::ClearCap(i) => {
                scalar[i].clear_power_cap();
                batch.clear_power_cap(i);
            }
        }
        if k % 5 == 4 {
            batch.store(laned.iter_mut());
            for (i, (s, l)) in scalar.iter().zip(&laned).enumerate() {
                assert_eq!(
                    format!("{s:?}"),
                    format!("{l:?}"),
                    "stored node {i}, action {k}"
                );
            }
            batch.load(laned.iter_mut());
        }
    }
    batch.store(laned.iter_mut());
    for (i, (s, l)) in scalar.iter().zip(&laned).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{l:?}"),
            "stored node {i} at the end"
        );
    }
    throttled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fleet nodes loaded into lanes track their scalar twins through
    /// random steps and every knob, counters and cap controllers included.
    #[test]
    fn fleet_lanes_match_scalar_nodes(
        seed in 0u64..1_000_000,
        script in prop::collection::vec(FleetStrategy(3), 1..60),
    ) {
        check_fleet(seed, 3, script);
    }
}

/// A deterministic hot fleet: sustained compute on the hot end of the
/// gradient crosses the throttle point and releases it under every knob,
/// and the lanes follow the scalar nodes through it.
#[test]
fn fleet_lanes_follow_a_throttle_cycle_under_knobs() {
    let compute = PhaseMix::pure(PhaseKind::ComputeBound);
    let idle = PhaseMix::pure(PhaseKind::IoBound);
    let step = |mix: &PhaseMix, active, dt_us| FleetAction::Step {
        mix: mix.clone(),
        active,
        dt_us,
    };
    let mut script = vec![
        FleetAction::Uncore(1, 4),
        FleetAction::Duty(0, 12),
        FleetAction::Cap(0, 300.0, 10),
        FleetAction::FreqLimit(1, Some(2.4)),
        FleetAction::MpiOverride(1, Some(1.2)),
    ];
    script.extend((0..400).map(|_| step(&compute, 48, 250_000)));
    script.push(FleetAction::Cap(0, 280.0, 10));
    script.push(FleetAction::MpiOverride(1, None));
    script.extend((0..400).map(|_| step(&compute, 48, 250_000)));
    script.push(FleetAction::ClearCap(0));
    script.extend((0..400).map(|_| step(&idle, 0, 250_000)));
    let throttled = check_fleet(5, 3, script);
    assert!(throttled.iter().any(|&t| t), "the hot node must throttle");
    assert!(
        !throttled[throttled.len() - 3..].iter().any(|&t| t),
        "and release"
    );
}

/// The nodes of a lockstep script.
const LOCKSTEP_NODES: usize = 3;

/// One action of a lockstep script over [`LOCKSTEP_NODES`] reset lanes.
#[derive(Debug, Clone)]
enum SubStepAction {
    /// `count` sub-steps of `dt_us` each, node `i` running `mixes[i]` on
    /// `active` cores, with the cap controllers live or held.
    Burst {
        count: usize,
        dt_us: u64,
        held: bool,
        mixes: [PhaseMix; LOCKSTEP_NODES],
        active: usize,
    },
    /// Set a node power cap (watts) over a window (ms): a new cap, or a
    /// retarget of one with the same window.
    Cap(usize, f64, u64),
    /// Clear a node's power cap.
    ClearCap(usize),
}

/// Lockstep scripts: mostly bursts whose sub-steps run from 1 µs to
/// 250 ms (log-uniform), so a 10 ms window holds from one to hundreds of
/// recorded steps, with caps set, retargeted and cleared between them.
struct SubStepStrategy;

impl Strategy for SubStepStrategy {
    type Value = SubStepAction;

    fn generate(&self, rng: &mut proptest::TestRng) -> SubStepAction {
        use rand::Rng;
        let node = rng.gen_range(0..LOCKSTEP_NODES);
        match rng.gen_range(0u32..10) {
            0 | 1 => SubStepAction::Cap(
                node,
                rng.gen_range(100.0f64..440.0),
                [10u64, 10, 10, 1, 100][rng.gen_range(0usize..5)],
            ),
            2 => SubStepAction::ClearCap(node),
            _ => {
                let mut mix = || random_step(rng).0;
                let mixes = [mix(), mix(), mix()];
                SubStepAction::Burst {
                    count: rng.gen_range(1usize..48),
                    dt_us: 10f64.powf(rng.gen_range(0.0f64..5.4)).round().max(1.0) as u64,
                    held: rng.gen_bool(0.5),
                    mixes,
                    active: [1usize, 24, 30, 48][rng.gen_range(0usize..4)],
                }
            }
        }
    }
}

/// Run a lockstep script on reset lanes, closing every sub-step, and
/// compare after every sub-step against the per-step controllers: loaded
/// lanes of nominal nodes (each capped lane its own `RaplWindow`, acting
/// at each step, held with `step_held`) always, and scalar nodes while no
/// sub-step has been held. Every step output, node energy, temperature,
/// throttle latch and each package's effective P-state (its allowed
/// P-state: the script never lowers the requested one) must agree bit for
/// bit. Returns the most sub-step starts any 10 ms window ending at a
/// sub-step's end held.
fn check_lockstep(initial_cap: Option<f64>, script: &[SubStepAction]) -> usize {
    let cfg = NodeConfig::server_default();
    let window = SimDuration::from_millis(10);
    let nominal = || -> Vec<Node> {
        (0..LOCKSTEP_NODES)
            .map(|i| Node::nominal(NodeId(i), cfg.clone()))
            .collect()
    };
    let mut scalar = nominal();
    let mut parked = nominal();
    let mut loaded = NodeBatch::new(cfg.clone());
    let mut reset = NodeBatch::new(cfg.clone());
    reset.reset(LOCKSTEP_NODES, initial_cap, window);
    if let Some(cap) = initial_cap {
        for node in scalar.iter_mut().chain(parked.iter_mut()) {
            node.set_power_cap(SimTime::ZERO, cap, window);
        }
    }
    loaded.load(parked.iter_mut());
    let mut live_only = true;
    let mut starts: Vec<SimTime> = Vec::new();
    let mut most_in_window = 0;
    let mut t = SimTime::ZERO;
    for (k, action) in script.iter().enumerate() {
        match action {
            SubStepAction::Burst {
                count,
                dt_us,
                held,
                mixes,
                active,
            } => {
                let dt = SimDuration::from_micros(*dt_us);
                live_only &= !held;
                let ids: Vec<usize> = mixes.iter().map(|m| reset.register_mix(m)).collect();
                for m in mixes {
                    loaded.register_mix(m);
                }
                for j in 0..*count {
                    let mut outs = Vec::new();
                    for (i, id) in ids.iter().enumerate() {
                        let (r, l) = if *held {
                            (
                                reset.step_held(i, t, dt, *id, *active),
                                loaded.step_held(i, t, dt, *id, *active),
                            )
                        } else {
                            (
                                reset.step(i, t, dt, *id, *active),
                                loaded.step(i, t, dt, *id, *active),
                            )
                        };
                        let s = live_only.then(|| scalar[i].step(t, dt, &mixes[i], *active));
                        outs.push((r, l, s));
                    }
                    reset.close_substep();
                    starts.push(t);
                    t += dt;
                    let from = SimTime(t.0.saturating_sub(window.0));
                    most_in_window =
                        most_in_window.max(starts.iter().filter(|&&s| s >= from).count());
                    let at = format!("action {k} sub-step {j}");
                    for (i, (r, l, s)) in outs.into_iter().enumerate() {
                        let out = |o: pstack_hwmodel::StepOutput| {
                            (
                                [o.work, o.power_w, o.effective_freq_ghz].map(f64::to_bits),
                                o.throttled,
                            )
                        };
                        let state = |b: &NodeBatch| {
                            (
                                b.energy_j(i).to_bits(),
                                b.max_temperature_c(i).to_bits(),
                                [b.package_pstate(i, 0), b.package_pstate(i, 1)],
                            )
                        };
                        assert_eq!(out(r), out(l), "output vs loaded lanes, {at} node {i}");
                        assert_eq!(
                            state(&reset),
                            state(&loaded),
                            "state vs loaded lanes, {at} node {i}"
                        );
                        if let Some(s) = s {
                            let node = &scalar[i];
                            let p = node.packages();
                            assert_eq!(out(r), out(s), "output vs scalar node, {at} node {i}");
                            assert_eq!(
                                state(&reset),
                                (
                                    node.energy_j().to_bits(),
                                    node.max_temperature_c().to_bits(),
                                    [p[0].effective_pstate(), p[1].effective_pstate()],
                                ),
                                "state vs scalar node, {at} node {i}"
                            );
                        }
                    }
                }
            }
            SubStepAction::Cap(i, cap_w, window_ms) => {
                let w = SimDuration::from_millis(*window_ms);
                reset.set_power_cap(*i, t, *cap_w, w);
                loaded.set_power_cap(*i, t, *cap_w, w);
                scalar[*i].set_power_cap(t, *cap_w, w);
            }
            SubStepAction::ClearCap(i) => {
                reset.clear_power_cap(*i);
                loaded.clear_power_cap(*i);
                scalar[*i].clear_power_cap();
            }
        }
        for (i, node) in scalar.iter().enumerate() {
            assert_eq!(
                reset.power_cap_w(i).map(f64::to_bits),
                node.power_cap_w().map(f64::to_bits),
                "cap, action {k} node {i}"
            );
        }
    }
    most_in_window
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reset lanes stepped in lockstep and closed per sub-step match the
    /// per-step controllers through random sub-step lengths, live and held
    /// controllers, and caps set, retargeted and cleared on single nodes.
    #[test]
    fn lockstep_lanes_match_per_step_controllers(
        capped in 0u32..2,
        cap in 150.0f64..440.0,
        script in prop::collection::vec(SubStepStrategy, 1..24),
    ) {
        check_lockstep((capped == 1).then_some(cap), &script);
    }
}

/// A deterministic lockstep script whose windows run from one recorded
/// step (250 ms sub-steps) to hundreds (1–100 µs ones), under live and
/// held controllers, with caps on different nodes set, retargeted, moved
/// to another window and cleared at sub-step boundaries.
#[test]
fn lockstep_lanes_hold_windows_of_every_depth() {
    let compute = PhaseMix::pure(PhaseKind::ComputeBound);
    let memory = PhaseMix::pure(PhaseKind::MemoryBound);
    let mixed = PhaseMix::new(0.5, 0.3, 0.2, 0.0);
    let burst = |count, dt_us, held| SubStepAction::Burst {
        count,
        dt_us,
        held,
        mixes: [compute.clone(), memory.clone(), mixed.clone()],
        active: 48,
    };
    let mut script = Vec::new();
    for held in [false, true] {
        script.extend([
            burst(40, 250_000, held),
            burst(30, 1, held),
            burst(200, 50, held),
            SubStepAction::Cap(1, 260.0, 10),
            burst(25, 700, held),
            burst(12, 9_000, held),
            SubStepAction::Cap(0, 240.0, 10),
            SubStepAction::ClearCap(2),
            burst(60, 333, held),
            SubStepAction::Cap(2, 300.0, 100),
            burst(40, 2_500, held),
            SubStepAction::Cap(0, 280.0, 1),
            burst(80, 150, held),
            burst(20, 250_000, held),
        ]);
    }
    let most = check_lockstep(Some(320.0), &script);
    assert!(
        most > 16,
        "windows must hold more than 16 steps (held {most})"
    );
}

/// Reset lanes reject steps that break lockstep.
#[test]
#[should_panic(expected = "lockstep")]
fn reset_lanes_reject_a_step_at_another_instant() {
    let mut batch = NodeBatch::new(NodeConfig::server_default());
    batch.reset(2, Some(300.0), SimDuration::from_millis(10));
    let mix = batch.register_mix(&PhaseMix::pure(PhaseKind::ComputeBound));
    let dt = SimDuration::from_millis(1);
    batch.step(0, SimTime::ZERO, dt, mix, 48);
    batch.step(1, SimTime::ZERO, dt, mix, 48);
    batch.close_substep();
    batch.step(0, SimTime::ZERO + dt + dt, dt, mix, 48);
}

/// A sub-step closes only once every node has stepped in it.
#[test]
#[should_panic(expected = "every node steps")]
fn closing_before_every_node_stepped_panics() {
    let mut batch = NodeBatch::new(NodeConfig::server_default());
    batch.reset(2, None, SimDuration::from_millis(10));
    let mix = batch.register_mix(&PhaseMix::pure(PhaseKind::ComputeBound));
    batch.step(0, SimTime::ZERO, SimDuration::from_millis(1), mix, 48);
    batch.close_substep();
}
