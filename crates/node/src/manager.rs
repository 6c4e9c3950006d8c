//! The node manager: safe control + telemetry over one node.
//!
//! Plays the role of Variorum/libmsr/PowerAPI on a real node: upper layers
//! set power limits and frequency bounds through it, read typed signals, and
//! drive execution steps; the manager records power history for windowed
//! telemetry (what the RM's monitoring samples).

use crate::signals::Signal;
use pstack_hwmodel::{
    DutyCycle, Node, NodeBatch, NodeConfig, NodeId, PhaseMix, StepOutput, VariationModel,
};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use pstack_telemetry::{CounterKind, TimeSeries};

/// Per-step report from the node manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStepReport {
    /// Work completed this step.
    pub work: f64,
    /// Average power this step, watts.
    pub power_w: f64,
    /// Effective core frequency, GHz.
    pub effective_freq_ghz: f64,
    /// Whether the node throttled thermally.
    pub throttled: bool,
}

impl From<StepOutput> for NodeStepReport {
    fn from(s: StepOutput) -> Self {
        NodeStepReport {
            work: s.work,
            power_w: s.power_w,
            effective_freq_ghz: s.effective_freq_ghz,
            throttled: s.throttled,
        }
    }
}

/// Management wrapper over one simulated node.
#[derive(Debug, Clone)]
pub struct NodeManager {
    node: Node,
    power_history: TimeSeries,
    /// Frequency bound requested by the current governor, GHz.
    freq_limit_ghz: Option<f64>,
    /// Temporary frequency override (e.g. an MPI runtime lowering the clock
    /// inside communication). Effective frequency = min(limit, override).
    /// A separate slot so restoring the override never clobbers the base
    /// limit another tuner owns — the §3.2.7 coexistence mechanism.
    freq_override_ghz: Option<f64>,
    /// Last step's power (the instantaneous reading a sampler would see).
    last_power_w: f64,
}

impl NodeManager {
    /// Wrap a node.
    pub fn new(node: Node) -> Self {
        NodeManager {
            node,
            power_history: TimeSeries::new(),
            freq_limit_ghz: None,
            freq_override_ghz: None,
            last_power_w: 0.0,
        }
    }

    /// Build a fleet of managed nodes with manufacturing variation.
    pub fn fleet(
        n: usize,
        cfg: NodeConfig,
        variation: &VariationModel,
        seeds: &SeedTree,
    ) -> Vec<NodeManager> {
        (0..n)
            .map(|i| NodeManager::new(Node::new(NodeId(i), cfg.clone(), variation, seeds)))
            .collect()
    }

    /// Build a fleet whose ambient inlet temperature rises linearly from
    /// `cool_c` to `hot_c` across node indices — a rack-position thermal
    /// gradient (the "thermal hot spots" of the paper's §3.1.1).
    pub fn fleet_with_thermal_gradient(
        n: usize,
        cfg: NodeConfig,
        variation: &VariationModel,
        seeds: &SeedTree,
        cool_c: f64,
        hot_c: f64,
    ) -> Vec<NodeManager> {
        assert!(cool_c <= hot_c, "gradient must be ordered");
        (0..n)
            .map(|i| {
                let mut node = Node::new(NodeId(i), cfg.clone(), variation, seeds);
                let t = if n <= 1 {
                    cool_c
                } else {
                    cool_c + (hot_c - cool_c) * i as f64 / (n - 1) as f64
                };
                node.set_ambient_c(t);
                NodeManager::new(node)
            })
            .collect()
    }

    /// The wrapped node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// Immutable access to the hardware (telemetry-side uses).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Mutable access to the hardware (for tests and advanced control).
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    // ---- control (paper Table 1 node-layer parameters) ----

    /// Set the node power limit, watts.
    pub fn set_power_limit(&mut self, now: SimTime, watts: f64, window: SimDuration) {
        self.node.set_power_cap(now, watts, window);
    }

    /// Remove the node power limit.
    pub fn clear_power_limit(&mut self) {
        self.node.clear_power_cap();
    }

    fn apply_freq(&mut self) {
        self.node.set_freq_ghz(self.requested_freq_ghz());
    }

    /// The core frequency the governor limit and the MPI override request
    /// together — the lower of the two, top frequency if neither is set —
    /// GHz. Each package runs the highest P-state at or below it.
    pub fn requested_freq_ghz(&self) -> f64 {
        let top = self.node.config().package.pstates.ladder().max();
        let base = self.freq_limit_ghz.unwrap_or(top);
        match self.freq_override_ghz {
            Some(ov) => base.min(ov),
            None => base,
        }
    }

    /// Set a core frequency ceiling, GHz (DVFS governor request).
    pub fn set_freq_limit_ghz(&mut self, ghz: f64) {
        self.freq_limit_ghz = Some(ghz);
        self.apply_freq();
    }

    /// Release the frequency ceiling (back to turbo/top).
    pub fn clear_freq_limit(&mut self) {
        self.freq_limit_ghz = None;
        self.apply_freq();
    }

    /// The current frequency ceiling, if any.
    pub fn freq_limit_ghz(&self) -> Option<f64> {
        self.freq_limit_ghz
    }

    /// Apply a temporary frequency override (stacked *under* the base limit;
    /// effective frequency is the minimum of the two).
    pub fn set_freq_override_ghz(&mut self, ghz: f64) {
        self.freq_override_ghz = Some(ghz);
        self.apply_freq();
    }

    /// Release the temporary override; the base limit (if any) reapplies.
    pub fn clear_freq_override(&mut self) {
        self.freq_override_ghz = None;
        self.apply_freq();
    }

    /// The current frequency override, if any.
    pub fn freq_override_ghz(&self) -> Option<f64> {
        self.freq_override_ghz
    }

    /// Set uncore frequency index on all packages.
    pub fn set_uncore_idx(&mut self, idx: usize) {
        self.node.set_uncore_idx(idx);
    }

    /// Restore every knob to hardware defaults: power cap off, frequency
    /// limit and MPI override released, uncore to its top rung, full duty.
    /// The RM calls this when reclaiming nodes whose runtime did not get a
    /// chance to clean up (cancellation, emergency teardown).
    pub fn reset_all_knobs(&mut self) {
        self.clear_power_limit();
        self.clear_freq_override();
        self.clear_freq_limit();
        let top_uncore = self.node.config().package.uncore.top_idx();
        self.node.set_uncore_idx(top_uncore);
        self.node.set_duty(pstack_hwmodel::DutyCycle::FULL);
    }

    /// Set duty-cycle modulation on all packages.
    pub fn set_duty(&mut self, duty: DutyCycle) {
        self.node.set_duty(duty);
    }

    // ---- telemetry ----

    /// Read a typed signal (Variorum-style).
    pub fn read(&self, signal: Signal) -> f64 {
        match signal {
            Signal::NodePowerWatts => self.last_power_w,
            Signal::NodeEnergyJoules => self.node.energy_j(),
            Signal::CoreFreqGhz => self.node.effective_freq_ghz(),
            Signal::MaxTemperatureC => self.node.max_temperature_c(),
            Signal::InstructionsRetired => self.node.counter(CounterKind::Instructions),
            Signal::CoreCycles => self.node.counter(CounterKind::Cycles),
            Signal::FlopsRetired => self.node.counter(CounterKind::Flops),
            Signal::DramBytes => self.node.counter(CounterKind::MemBytes),
            Signal::MpiTimeUs => self.node.counter(CounterKind::MpiTimeUs),
            Signal::MpiWaitUs => self.node.counter(CounterKind::MpiWaitUs),
            Signal::Progress => self.node.counter(CounterKind::Progress),
            Signal::PowerCapWatts => self.node.power_cap_w().unwrap_or(f64::NAN),
        }
    }

    /// Read a typed signal while the node's state is loaded into lane node
    /// `lane` of `lanes` (see [`NodeBatch::load`]): the readings come from
    /// the lanes, the last power reading from this manager.
    pub fn read_loaded(&self, lanes: &NodeBatch, lane: usize, signal: Signal) -> f64 {
        match signal {
            Signal::NodePowerWatts => self.last_power_w,
            Signal::NodeEnergyJoules => lanes.energy_j(lane),
            Signal::CoreFreqGhz => lanes.effective_freq_ghz(lane),
            Signal::MaxTemperatureC => lanes.max_temperature_c(lane),
            Signal::InstructionsRetired => lanes.counter(lane, CounterKind::Instructions),
            Signal::CoreCycles => lanes.counter(lane, CounterKind::Cycles),
            Signal::FlopsRetired => lanes.counter(lane, CounterKind::Flops),
            Signal::DramBytes => lanes.counter(lane, CounterKind::MemBytes),
            Signal::MpiTimeUs => lanes.counter(lane, CounterKind::MpiTimeUs),
            Signal::MpiWaitUs => lanes.counter(lane, CounterKind::MpiWaitUs),
            Signal::Progress => lanes.counter(lane, CounterKind::Progress),
            Signal::PowerCapWatts => lanes.power_cap_w(lane).unwrap_or(f64::NAN),
        }
    }

    /// Recorded power history (step-function series of per-step averages).
    pub fn power_history(&self) -> &TimeSeries {
        &self.power_history
    }

    /// Bound the retained power history to roughly `max_samples` recent
    /// samples (full-range integrals stay exact via the series' evicted
    /// prefix carry). Fleet-scale simulations set this so per-node telemetry
    /// stays O(bound) instead of O(simulated time).
    pub fn bound_power_history(&mut self, max_samples: usize) {
        self.power_history.set_bound(Some(max_samples));
    }

    /// Mean power over the trailing `window` ending at `now`, watts.
    pub fn mean_power_w(&self, now: SimTime, window: SimDuration) -> f64 {
        let from = SimTime(now.as_micros().saturating_sub(window.as_micros()));
        self.power_history.mean(from, now)
    }

    /// Advance the node by `dt` running `mix` on `active_cores`, recording
    /// power history.
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        mix: &PhaseMix,
        active_cores: usize,
    ) -> NodeStepReport {
        let out = self.node.step(now, dt, mix, active_cores);
        self.record_power(now, out.power_w);
        out.into()
    }

    /// Record a step's average power, from `now` on, as [`NodeManager::step`]
    /// does: into the power history and the last power reading. For a
    /// driver that steps the node's state elsewhere (its `NodeBatch` lane).
    pub fn record_power(&mut self, now: SimTime, power_w: f64) {
        self.power_history.push(now, power_w);
        self.last_power_w = power_w;
    }

    /// Advance the node idle (no job): minimal activity, platform power only.
    pub fn step_idle(&mut self, now: SimTime, dt: SimDuration) -> NodeStepReport {
        self.step(now, dt, &idle_mix(), 0)
    }

    /// Advance the node idle for `n` consecutive quanta of `quantum` from
    /// `from`: bit for bit `n` calls to [`NodeManager::step_idle`], power
    /// history included. Once an uncapped idle node's state stops changing,
    /// the remaining quanta replay its fixed-point increments instead of
    /// the physics (see [`Node::step_for`]). Returns how many quanta were
    /// fast-forwarded that way.
    pub fn step_idle_for(&mut self, from: SimTime, quantum: SimDuration, n: u64) -> u64 {
        let (history, last_power_w) = (&mut self.power_history, &mut self.last_power_w);
        self.node
            .step_for(from, quantum, n, &idle_mix(), 0, |t, out| {
                history.push(t, out.power_w);
                *last_power_w = out.power_w;
            })
    }
}

/// What an idle node runs: I/O-bound background activity on no cores.
pub fn idle_mix() -> PhaseMix {
    PhaseMix::pure(pstack_hwmodel::PhaseKind::IoBound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_hwmodel::PhaseKind;

    fn mgr() -> NodeManager {
        NodeManager::new(Node::nominal(NodeId(0), NodeConfig::server_default()))
    }

    fn compute() -> PhaseMix {
        PhaseMix::pure(PhaseKind::ComputeBound)
    }

    #[test]
    fn signals_reflect_state() {
        let mut m = mgr();
        assert_eq!(m.read(Signal::NodeEnergyJoules), 0.0);
        assert!(m.read(Signal::PowerCapWatts).is_nan());
        m.step(SimTime::ZERO, SimDuration::from_secs(1), &compute(), 48);
        assert!(m.read(Signal::NodePowerWatts) > 100.0);
        assert!(m.read(Signal::NodeEnergyJoules) > 0.0);
        assert!(m.read(Signal::InstructionsRetired) > 0.0);
        assert!(m.read(Signal::Progress) > 0.0);
    }

    #[test]
    fn power_limit_roundtrip() {
        let mut m = mgr();
        m.set_power_limit(SimTime::ZERO, 300.0, SimDuration::from_millis(10));
        assert_eq!(m.read(Signal::PowerCapWatts), 300.0);
        m.clear_power_limit();
        assert!(m.read(Signal::PowerCapWatts).is_nan());
    }

    #[test]
    fn freq_limit_applies_and_clears() {
        let mut m = mgr();
        m.set_freq_limit_ghz(1.5);
        assert_eq!(m.freq_limit_ghz(), Some(1.5));
        m.step(SimTime::ZERO, SimDuration::from_millis(100), &compute(), 48);
        assert!((m.read(Signal::CoreFreqGhz) - 1.5).abs() < 1e-9);
        m.clear_freq_limit();
        m.step(
            SimTime::from_millis(100),
            SimDuration::from_millis(100),
            &compute(),
            48,
        );
        assert!((m.read(Signal::CoreFreqGhz) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn power_history_windows() {
        let mut m = mgr();
        let dt = SimDuration::from_millis(100);
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            m.step(t, dt, &compute(), 48);
            t += dt;
        }
        let mean = m.mean_power_w(t, SimDuration::from_secs(1));
        assert!(mean > 100.0, "windowed mean {mean}");
        assert_eq!(m.power_history().len(), 20);
    }

    #[test]
    fn idle_draws_less_than_busy() {
        let mut busy = mgr();
        let mut idle = mgr();
        let b = busy.step(SimTime::ZERO, SimDuration::from_secs(1), &compute(), 48);
        let i = idle.step_idle(SimTime::ZERO, SimDuration::from_secs(1));
        assert!(
            i.power_w < b.power_w * 0.6,
            "idle {} busy {}",
            i.power_w,
            b.power_w
        );
    }

    #[test]
    fn fleet_construction() {
        let seeds = SeedTree::new(3);
        let fleet = NodeManager::fleet(
            8,
            NodeConfig::server_default(),
            &VariationModel::typical(),
            &seeds,
        );
        assert_eq!(fleet.len(), 8);
        for (i, m) in fleet.iter().enumerate() {
            assert_eq!(m.id(), NodeId(i));
        }
    }
}
