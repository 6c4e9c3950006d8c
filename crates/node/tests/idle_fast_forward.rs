//! Exactness of the idle fast-forward.
//!
//! [`NodeManager::step_idle_for`] claims *bit* identity with `n` calls to
//! [`NodeManager::step_idle`]: once an uncapped idle node settles at its
//! fixed point it re-applies that step's increments instead of rerunning the
//! physics. These tests drive both paths from identical nodes — cold and
//! after a hot busy stretch, at 250 ms, 1 s and 3 s quanta, with `n` on both
//! sides of the settling step, capped, and with an inlet so warm that the
//! node settles inside the thermal hysteresis band with its throttle latch
//! held — and compare every accumulator with `f64::to_bits`.

#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use pstack_hwmodel::{NodeConfig, PhaseKind, PhaseMix, VariationModel};
use pstack_node::{NodeManager, Signal};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use pstack_telemetry::counters::ALL_COUNTERS;

/// Telemetry ring bound, as in the fleet runs: long replays cross eviction.
const HISTORY_BOUND: usize = 512;

/// Simulated seconds within which every probed node settles (measured:
/// 915–1,092 s across quanta, starts and inlet temperatures).
const SETTLE_BOUND_S: u64 = 1_200;

/// An inlet warm enough that the idle node settles between the 90 °C
/// release and the 95 °C throttle point, latch still engaged.
const NEAR_THROTTLE_AMBIENT_C: f64 = 76.0;

/// How the node starts its idle stretch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    /// Fresh from construction, at inlet temperature.
    Cold,
    /// After ten minutes of compute on all 48 cores.
    Hot,
    /// Hot, then RAPL-capped: the cap's window never settles.
    Capped,
    /// Hot, throttled, at [`NEAR_THROTTLE_AMBIENT_C`] inlet.
    NearThrottle,
}

const STARTS: [Start; 4] = [Start::Cold, Start::Hot, Start::Capped, Start::NearThrottle];

/// Node `index` of a seeded fleet, prepared per `start`; returns it with the
/// time its idle stretch begins.
fn prepared(seed: u64, index: usize, start: Start, quantum: SimDuration) -> (NodeManager, SimTime) {
    let mut nm = NodeManager::fleet(
        index + 1,
        NodeConfig::server_default(),
        &VariationModel::typical(),
        &SeedTree::new(seed),
    )
    .swap_remove(index);
    nm.bound_power_history(HISTORY_BOUND);
    if start == Start::NearThrottle {
        nm.node_mut().set_ambient_c(NEAR_THROTTLE_AMBIENT_C);
    }
    let mut t = SimTime::ZERO;
    if start != Start::Cold {
        let busy = PhaseMix::pure(PhaseKind::ComputeBound);
        let steps = 600_000_000 / quantum.as_micros();
        for _ in 0..steps {
            nm.step(t, quantum, &busy, 48);
            t += quantum;
        }
    }
    if start == Start::Capped {
        nm.set_power_limit(t, 300.0, SimDuration::from_millis(10));
    }
    (nm, t)
}

/// `n` plain idle steps.
fn plain(mut nm: NodeManager, from: SimTime, quantum: SimDuration, n: u64) -> NodeManager {
    let mut t = from;
    for _ in 0..n {
        nm.step_idle(t, quantum);
        t += quantum;
    }
    nm
}

/// Compare everything observable, bit for bit.
fn assert_identical(fast: &NodeManager, slow: &NodeManager, end: SimTime, what: &str) {
    let bits = |x: f64| x.to_bits();
    assert_eq!(
        bits(fast.node().energy_j()),
        bits(slow.node().energy_j()),
        "{what}: node energy"
    );
    for (i, (a, b)) in fast
        .node()
        .packages()
        .iter()
        .zip(slow.node().packages())
        .enumerate()
    {
        assert_eq!(
            bits(a.energy_j()),
            bits(b.energy_j()),
            "{what}: pkg{i} energy"
        );
        assert_eq!(
            bits(a.temperature_c()),
            bits(b.temperature_c()),
            "{what}: pkg{i} temperature"
        );
        // Throttle latch (and cap controller) via the effective P-state.
        assert_eq!(
            a.effective_pstate(),
            b.effective_pstate(),
            "{what}: pkg{i} latch"
        );
        for kind in ALL_COUNTERS {
            assert_eq!(
                bits(a.counters().get(kind)),
                bits(b.counters().get(kind)),
                "{what}: pkg{i} {kind:?}"
            );
        }
    }
    assert_eq!(
        bits(fast.read(Signal::NodePowerWatts)),
        bits(slow.read(Signal::NodePowerWatts)),
        "{what}: last power"
    );
    let (ha, hb) = (fast.power_history(), slow.power_history());
    assert_eq!(ha.evicted(), hb.evicted(), "{what}: evicted samples");
    let samples = |h: &pstack_telemetry::TimeSeries| -> Vec<(SimTime, u64)> {
        h.samples()
            .iter()
            .map(|s| (s.time, bits(s.value)))
            .collect()
    };
    assert_eq!(samples(ha), samples(hb), "{what}: history samples");
    assert_eq!(
        bits(ha.integrate(SimTime::ZERO, end)),
        bits(hb.integrate(SimTime::ZERO, end)),
        "{what}: full-range history integral"
    );
    // Catch-all: every remaining field (cap window, knobs, evicted-prefix
    // carry) through the derived Debug, which prints floats exactly.
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "{what}: full state"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over seeds, nodes, quanta, starts and idle lengths up to three times
    /// the settling bound, the fast-forward is bit-identical to plain
    /// stepping; it runs whenever the stretch outlasts the settling bound,
    /// and never on a capped node.
    #[test]
    fn step_idle_for_matches_plain_steps(
        seed in 1u64..10_000,
        index in 0usize..8,
        quantum_pick in 0usize..3,
        start_pick in 0usize..4,
        span in 0.02f64..3.0,
    ) {
        let quantum = SimDuration::from_millis([250, 1_000, 3_000][quantum_pick]);
        let start = STARTS[start_pick];
        let settle_quanta = SETTLE_BOUND_S * 1_000_000 / quantum.as_micros();
        let n = (span * settle_quanta as f64) as u64;
        let (nm, from) = prepared(seed, index, start, quantum);
        let slow = plain(nm.clone(), from, quantum, n);
        let mut fast = nm;
        let skipped = fast.step_idle_for(from, quantum, n);
        let what = format!("seed {seed} node {index} {quantum} {start:?} n={n}");
        assert_identical(&fast, &slow, from + quantum * n, &what);
        if start == Start::Capped {
            prop_assert_eq!(skipped, 0, "{}: a capped node must take plain steps", what);
        } else if n > settle_quanta {
            prop_assert!(skipped > 0, "{}: the fast path never ran", what);
        }
        if start == Start::NearThrottle && n > settle_quanta {
            prop_assert!(
                fast.node().packages().iter().any(|p| p.effective_pstate() == 0),
                "{}: expected a throttle latch held inside the hysteresis band",
                what
            );
        }
    }
}

/// Around the settling step `k` the fast path takes over exactly: `n = k`
/// steps plainly (the last one proves the fixed point), `n = k + j`
/// fast-forwards `j`, and every `n` is bit-identical to plain stepping.
#[test]
fn fast_forward_starts_right_after_the_settling_step() {
    for quantum_ms in [250, 1_000, 3_000] {
        let quantum = SimDuration::from_millis(quantum_ms);
        for start in [Start::Cold, Start::Hot, Start::NearThrottle] {
            let (nm, from) = prepared(42, 3, start, quantum);
            let long = 2 * SETTLE_BOUND_S * 1_000_000 / quantum.as_micros();
            let skipped = nm.clone().step_idle_for(from, quantum, long);
            assert!(skipped > 0, "{start:?} at {quantum}: never settled");
            let k = long - skipped;
            for n in [k - 1, k, k + 1, k + 2, k + 700] {
                let slow = plain(nm.clone(), from, quantum, n);
                let mut fast = nm.clone();
                let got = fast.step_idle_for(from, quantum, n);
                assert_eq!(got, n.saturating_sub(k), "{start:?} at {quantum}, n={n}");
                assert_identical(
                    &fast,
                    &slow,
                    from + quantum * n,
                    &format!("{start:?} at {quantum}, n={n}"),
                );
            }
        }
    }
}

/// A RAPL cap's window records every step, so a capped node takes plain
/// steps even long after its temperature has settled.
#[test]
fn capped_node_never_fast_forwards() {
    for quantum_ms in [250, 1_000, 3_000] {
        let quantum = SimDuration::from_millis(quantum_ms);
        let (nm, from) = prepared(42, 3, Start::Capped, quantum);
        let n = 2 * SETTLE_BOUND_S * 1_000_000 / quantum.as_micros();
        let slow = plain(nm.clone(), from, quantum, n);
        let mut fast = nm;
        assert_eq!(
            fast.step_idle_for(from, quantum, n),
            0,
            "capped at {quantum}"
        );
        assert_identical(
            &fast,
            &slow,
            from + quantum * n,
            &format!("capped at {quantum}"),
        );
    }
}

/// Replaying in chunks (as the RM does at every observation) lands on the
/// same bits as one long replay and as plain stepping.
#[test]
fn chunked_replay_matches_one_replay() {
    let quantum = SimDuration::from_secs(1);
    let (nm, from) = prepared(7, 5, Start::Hot, quantum);
    let n = 3_000;
    let slow = plain(nm.clone(), from, quantum, n);
    let mut whole = nm.clone();
    whole.step_idle_for(from, quantum, n);
    let mut chunked = nm;
    let mut t = from;
    let mut skipped = 0;
    for len in [1, 17, 400, 611, 2, 969, 1_000] {
        skipped += chunked.step_idle_for(t, quantum, len);
        t += quantum * len;
    }
    assert_eq!(t, from + quantum * n);
    assert!(skipped > 1_500, "chunks fast-forwarded only {skipped}");
    assert_identical(&whole, &slow, t, "one replay");
    assert_identical(&chunked, &slow, t, "chunked replay");
}
