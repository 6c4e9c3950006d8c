//! Batched structure-of-arrays (SoA) node stepping — the evaluation fast path.
//!
//! [`Node::step`] is exact but pays, per package and per tick, for work the
//! tuning loop never reads: performance-counter updates, `Vec` allocation in
//! core splitting, repeated roofline and CMOS model evaluations over the same
//! `(mix, P-state, cores)` operating point, and a fresh `exp()` per thermal
//! advance. [`NodeBatch`] keeps the *dynamic* state of many nodes as flat
//! arrays (temperature, throttle bitset, energy, cap controllers) and the
//! *static* model as shared memoized coefficients, so stepping a node is a
//! handful of flops plus table lookups.
//!
//! ## Bit-identity contract
//!
//! The batch path is an optimization of the scalar path, not an approximation:
//! for the nominal-knob configuration the driver uses (top requested P-state,
//! top uncore, full duty cycle, [`VariationFactors::NOMINAL`]), every value it
//! produces is **bit-identical** to [`Node::step`] / [`Node::work_rate`]. The
//! only transformations applied are bit-transparent:
//!
//! - **Memoized coefficients.** `speed`, `core_dynamic_w` and `dram_w` depend
//!   only on `(mix, P-state, active cores)`; on a cache miss they are computed
//!   by calling the *same scalar model functions*, so a hit replays the exact
//!   bits a fresh call would produce.
//! - **Memoized exponential.** The RC-thermal decay factor `exp(-dt/τ)`
//!   depends only on the tick length; it is cached keyed on the bit pattern
//!   of `dt_s`.
//! - **Flat-window average.** When a tick is at least as long as the RAPL
//!   window, the measurement window sees only the step just recorded;
//!   [`RaplWindow::average_w`] then skips its deque walk without changing
//!   a bit (the same rule serves the scalar path).
//! - **Skipped dead state.** Counter banks, package-level energy and the
//!   variation multiplies (`x * 1.0` is bitwise `x` for finite `x`) are
//!   elided because no consumer on this path reads them.
//!
//! Closed-form exponential integration (already exact in [`ThermalModel`])
//! means tick *length* never changes the thermal trajectory between control
//! events; the driver layer exploits this to coarsen ticks between
//! control/throttle events — uncapped spans coarsen outright, capped spans
//! settle the controller on fine ticks and then advance via
//! [`step_held`](NodeBatch::step_held) (see `pstack-core`'s `EvalArena`).
//!
//! The scalar path remains the oracle: `tests/batch_equivalence.rs` drives
//! both through random mix/core/tick/cap sequences (including throttle
//! hysteresis crossings) and asserts `f64::to_bits` equality.
//!
//! [`VariationFactors::NOMINAL`]: crate::variation::VariationFactors::NOMINAL

use crate::cap::{PowerCap, RaplWindow};
use crate::node::{NodeConfig, StepOutput};
use crate::phase::{PhaseKind, PhaseMix};
use crate::pstate::DutyCycle;
use crate::thermal::ThermalModel;
use pstack_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// A fixed-capacity bit vector; one bit per package lane.
#[derive(Debug, Clone, Default)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `len` bits, clearing every bit.
    pub fn reset(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = len;
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

/// Memoized operating-point coefficients for one `(mix, P-state, active)`
/// triple. Filled by calling the scalar model functions once.
#[derive(Debug, Clone, Copy)]
struct Coeff {
    /// Relative speed (scalar `SpeedModel::speed`).
    speed: f64,
    /// Core dynamic power, W (scalar `PowerModel::core_dynamic_w`).
    core_dyn_w: f64,
    /// DRAM power, W (scalar `PowerModel::dram_w` at this speed).
    dram_w: f64,
    /// Core frequency at this P-state, GHz.
    freq_ghz: f64,
}

/// SoA dynamic state of every package lane in the batch.
///
/// Lane `node * n_packages + pkg` holds package `pkg` of node `node`. All
/// hot per-tick state lives in flat arrays so a step is sequential loads and
/// stores, never pointer-chasing through per-node structs.
#[derive(Debug, Default)]
pub struct PackageBatch {
    /// Junction temperature per lane, °C.
    temp_c: Vec<f64>,
    /// Thermal-throttle latch per lane.
    throttling: Bitset,
    /// Requested P-state index per lane (the DVFS knob).
    pstate_req: Vec<usize>,
    /// Optional RAPL cap + measurement window per lane.
    caps: Vec<Option<(PowerCap, RaplWindow)>>,
}

impl PackageBatch {
    fn lanes(&self) -> usize {
        self.temp_c.len()
    }
}

/// Batched SoA evaluation of many [`Node`]s with nominal knobs.
///
/// Construct once, then [`reset`](NodeBatch::reset) between evaluations:
/// state is rewritten in place and every allocation (lane arrays, cap
/// windows, coefficient tables) is reused.
///
/// [`Node`]: crate::node::Node
#[derive(Debug)]
pub struct NodeBatch {
    cfg: NodeConfig,
    /// Thermal parameters shared by every lane (scalar packages always use
    /// [`ThermalModel::server_default`]).
    thermal: ThermalModel,
    /// RC time constant `r_th · c_th`, seconds.
    tau_s: f64,
    /// Uncore frequency at the (fixed, top) uncore index, GHz.
    uncore_ghz: f64,
    /// Uncore power at that frequency, W — constant on this path.
    uncore_w: f64,
    /// Top core P-state index.
    top_idx: usize,
    pkgs: PackageBatch,
    /// Node energy per node, joules.
    energy_j: Vec<f64>,
    n_nodes: usize,
    /// Registered phase mixes; step/work_rate take a mix id, not a `&PhaseMix`.
    mixes: Vec<PhaseMix>,
    mix_index: HashMap<[u64; 4], usize>,
    /// Memoized scalar-model coefficients, stored dense: slot
    /// `mix · n_pstates + pstate`, tagged with the active-core count it was
    /// computed for. Within one evaluation a mix runs a fixed core count, so
    /// the one-entry-per-slot cache almost never collides; a collision just
    /// recomputes through the same scalar model calls. Keeping the stride at
    /// `n_pstates` (not `n_pstates · n_cores`) makes registering a fresh mix
    /// touch ~1 KB instead of ~26 KB — the memset and minor-fault cost of the
    /// wide layout dominated first-evaluation latency.
    coeffs: Vec<Option<(usize, Coeff)>>,
    /// `dt_s bit pattern → exp(-dt_s / τ)`.
    exp_memo: HashMap<u64, f64>,
    /// Inline slot for the latest decay factor — sub-steps are overwhelmingly
    /// the same length, so this hits without touching the memo map.
    last_decay: (u64, f64),
    /// Resets that reused existing allocations (no lane growth needed).
    reuse_hits: usize,
}

impl NodeBatch {
    /// Build an empty batch for nodes of the given configuration. Call
    /// [`reset`](NodeBatch::reset) to size it.
    pub fn new(cfg: NodeConfig) -> Self {
        let thermal = ThermalModel::server_default();
        let tau_s = thermal.r_th * thermal.c_th;
        let uncore_ghz = cfg.package.uncore.max();
        let uncore_w = cfg.package.power.uncore_w(uncore_ghz);
        let top_idx = cfg.package.pstates.top_idx();
        NodeBatch {
            cfg,
            thermal,
            tau_s,
            uncore_ghz,
            uncore_w,
            top_idx,
            pkgs: PackageBatch::default(),
            energy_j: Vec::new(),
            n_nodes: 0,
            mixes: Vec::new(),
            mix_index: HashMap::new(),
            coeffs: Vec::new(),
            exp_memo: HashMap::new(),
            last_decay: (u64::MAX, 0.0),
            reuse_hits: 0,
        }
    }

    /// The node configuration every lane shares.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Number of nodes currently in the batch.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Resets that reused existing lane allocations instead of growing them.
    pub fn reuse_hits(&self) -> usize {
        self.reuse_hits
    }

    /// Reset the batch in place to `n_nodes` fresh nodes, optionally applying
    /// a node power cap (split across packages exactly like
    /// [`Node::set_power_cap`]) at `t = 0` with the given window.
    ///
    /// Equivalent to constructing `n_nodes` × [`Node::nominal`] and calling
    /// `set_power_cap(SimTime::ZERO, cap_w, window)` on each — but without
    /// allocating when capacity suffices.
    ///
    /// # Panics
    /// Panics if a cap does not cover platform power (as the scalar node does).
    ///
    /// [`Node::nominal`]: crate::node::Node::nominal
    /// [`Node::set_power_cap`]: crate::node::Node::set_power_cap
    pub fn reset(&mut self, n_nodes: usize, node_cap_w: Option<f64>, window: SimDuration) {
        let lanes = n_nodes * self.cfg.n_packages;
        if lanes <= self.pkgs.lanes() && n_nodes <= self.energy_j.len() {
            self.reuse_hits += 1;
        }
        self.n_nodes = n_nodes;
        self.pkgs.temp_c.resize(lanes, 0.0);
        self.pkgs
            .temp_c
            .iter_mut()
            .for_each(|t| *t = self.thermal.t_ambient);
        self.pkgs.throttling.reset(lanes);
        self.pkgs.pstate_req.resize(lanes, 0);
        let top = self.top_idx;
        self.pkgs.pstate_req.iter_mut().for_each(|p| *p = top);
        self.pkgs
            .caps
            .resize_with(lanes, || None::<(PowerCap, RaplWindow)>);
        self.energy_j.resize(n_nodes, 0.0);
        self.energy_j.iter_mut().for_each(|e| *e = 0.0);
        match node_cap_w {
            None => self.pkgs.caps.iter_mut().for_each(|c| *c = None),
            Some(cap_w) => {
                // Fresh-node semantics (unlike `set_power_cap`'s mid-run
                // retarget): controller state and window history start empty,
                // exactly as on a newly built scalar node — only the window
                // allocation is recycled.
                let for_packages = cap_w - self.cfg.misc_power_w;
                assert!(
                    for_packages > 0.0,
                    "node cap {cap_w} below platform power {}",
                    self.cfg.misc_power_w
                );
                let per_pkg = for_packages / self.cfg.n_packages as f64;
                let top_idx = self.top_idx;
                for slot in self.pkgs.caps.iter_mut() {
                    let mut win = match slot.take() {
                        Some((_, mut w)) if w.window() == window => {
                            w.reset();
                            w
                        }
                        _ => RaplWindow::new(window),
                    };
                    win.record(SimTime::ZERO, 0.0);
                    *slot = Some((PowerCap::new(per_pkg, window, top_idx), win));
                }
            }
        }
    }

    /// Register a phase mix, returning its id. Mixes with identical weight
    /// bit patterns share an id, so per-phase registration is amortized.
    pub fn register_mix(&mut self, mix: &PhaseMix) -> usize {
        let key = [
            mix.weight(PhaseKind::ComputeBound).to_bits(),
            mix.weight(PhaseKind::MemoryBound).to_bits(),
            mix.weight(PhaseKind::CommBound).to_bits(),
            mix.weight(PhaseKind::IoBound).to_bits(),
        ];
        if let Some(&id) = self.mix_index.get(&key) {
            return id;
        }
        let id = self.mixes.len();
        self.mixes.push(mix.clone());
        self.mix_index.insert(key, id);
        self.coeffs
            .resize(self.mixes.len() * self.coeff_stride(), None);
        id
    }

    /// Request a P-state on every package of `node` (clamped to the table),
    /// mirroring per-package `set_pstate` on the scalar path.
    pub fn set_pstate(&mut self, node: usize, idx: usize) {
        let idx = idx.min(self.top_idx);
        let base = node * self.cfg.n_packages;
        for lane in base..base + self.cfg.n_packages {
            self.pkgs.pstate_req[lane] = idx;
        }
    }

    /// Apply a node power cap, replicating [`Node::set_power_cap`] bit for
    /// bit: platform power is reserved, the remainder split evenly across
    /// packages; an existing cap with the same window is retargeted in place.
    ///
    /// # Panics
    /// Panics if the cap does not cover platform power.
    ///
    /// [`Node::set_power_cap`]: crate::node::Node::set_power_cap
    pub fn set_power_cap(&mut self, node: usize, now: SimTime, cap_w: f64, window: SimDuration) {
        let for_packages = cap_w - self.cfg.misc_power_w;
        assert!(
            for_packages > 0.0,
            "node cap {cap_w} below platform power {}",
            self.cfg.misc_power_w
        );
        let per_pkg = for_packages / self.cfg.n_packages as f64;
        let base = node * self.cfg.n_packages;
        for lane in base..base + self.cfg.n_packages {
            match &mut self.pkgs.caps[lane] {
                Some((cap, _)) if cap.window() == window => cap.set_cap_w(per_pkg),
                slot => {
                    // Reuse the window's allocation where one exists; a reset
                    // window is indistinguishable from a fresh one.
                    let mut win = match slot.take() {
                        Some((_, mut w)) if w.window() == window => {
                            w.reset();
                            w
                        }
                        _ => RaplWindow::new(window),
                    };
                    win.record(now, 0.0);
                    *slot = Some((PowerCap::new(per_pkg, window, self.top_idx), win));
                }
            }
        }
    }

    /// Change the ambient (inlet) temperature of every lane, mirroring
    /// [`ThermalModel::set_ambient_c`] applied to each scalar package: the
    /// junction temperature floor moves with it.
    ///
    /// # Panics
    /// Panics if the ambient reaches the throttle point.
    pub fn set_ambient_c(&mut self, t_ambient: f64) {
        assert!(
            t_ambient < self.thermal.t_throttle,
            "ambient must stay below the throttle point"
        );
        let delta = t_ambient - self.thermal.t_ambient;
        self.thermal.t_ambient = t_ambient;
        self.pkgs.temp_c.iter_mut().for_each(|t| *t += delta);
    }

    /// True if any package of `node` currently holds a cap.
    pub fn has_cap(&self, node: usize) -> bool {
        let base = node * self.cfg.n_packages;
        self.pkgs.caps[base..base + self.cfg.n_packages]
            .iter()
            .any(|c| c.is_some())
    }

    /// Total energy consumed by `node`, joules (matches [`Node::energy_j`]).
    ///
    /// [`Node::energy_j`]: crate::node::Node::energy_j
    pub fn energy_j(&self, node: usize) -> f64 {
        self.energy_j[node]
    }

    /// Hottest package temperature of `node`, °C.
    pub fn max_temperature_c(&self, node: usize) -> f64 {
        let base = node * self.cfg.n_packages;
        self.pkgs.temp_c[base..base + self.cfg.n_packages]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Memoized decay factor `exp(-dt_s / τ)`; bit-identical to the scalar
    /// `ThermalModel::advance` computation for any previously seen `dt_s`.
    fn decay(&mut self, dt_s: f64) -> f64 {
        let bits = dt_s.to_bits();
        if self.last_decay.0 == bits {
            return self.last_decay.1;
        }
        let d = match self.exp_memo.get(&bits) {
            Some(&d) => d,
            None => {
                let d = (-dt_s / self.tau_s).exp();
                self.exp_memo.insert(bits, d);
                d
            }
        };
        self.last_decay = (bits, d);
        d
    }

    /// Dense-table slots per mix: one per P-state (active count is a tag).
    fn coeff_stride(&self) -> usize {
        self.top_idx + 1
    }

    /// Operating-point coefficients, computed on miss by the scalar model.
    /// `idx` is an *effective* (clamped) P-state and `active` a per-package
    /// core count, so the dense index is always in bounds.
    fn coeff(&mut self, mix_id: usize, idx: usize, active: usize) -> Coeff {
        let slot = mix_id * (self.top_idx + 1) + idx;
        if let Some((a, c)) = self.coeffs[slot] {
            if a == active {
                return c;
            }
        }
        let mix = &self.mixes[mix_id];
        let pk = &self.cfg.package;
        let freq_ghz = pk.pstates.freq(idx);
        let speed = pk
            .speed
            .speed(mix, freq_ghz, self.uncore_ghz, DutyCycle::FULL);
        let core_dyn_w = pk
            .power
            .core_dynamic_w(&pk.pstates, idx, DutyCycle::FULL, active, mix);
        let dram_w = pk.power.dram_w(mix, speed);
        let c = Coeff {
            speed,
            core_dyn_w,
            dram_w,
            freq_ghz,
        };
        self.coeffs[slot] = Some((active, c));
        c
    }

    /// Effective P-state of a lane after cap and thermal clamps (same
    /// precedence as [`Package::effective_pstate`]).
    ///
    /// [`Package::effective_pstate`]: crate::package::Package::effective_pstate
    fn effective_pstate(&self, lane: usize) -> usize {
        let mut idx = self.pkgs.pstate_req[lane];
        if let Some((cap, _)) = &self.pkgs.caps[lane] {
            idx = idx.min(cap.allowed_idx());
        }
        if self.pkgs.throttling.get(lane) {
            idx = 0;
        }
        idx
    }

    /// Work rate of `node` (work units per second), bit-identical to
    /// [`Node::work_rate`] at the same state.
    ///
    /// [`Node::work_rate`]: crate::node::Node::work_rate
    pub fn work_rate(&mut self, node: usize, mix_id: usize, active_cores: usize) -> f64 {
        let n_cores = self.cfg.package.n_cores;
        let mut remaining = active_cores.min(self.cfg.total_cores());
        let base = node * self.cfg.n_packages;
        let mut sum = 0.0;
        for lane in base..base + self.cfg.n_packages {
            let n = remaining.min(n_cores);
            remaining -= n;
            let idx = self.effective_pstate(lane);
            let c = self.coeff(mix_id, idx, n);
            sum += c.speed * n as f64 / n_cores as f64;
        }
        sum / self.cfg.n_packages as f64
    }

    /// Advance `node` by `dt` running mix `mix_id` on `active_cores`,
    /// bit-identical to [`Node::step`] at the same state (counters excepted —
    /// the batch keeps none).
    ///
    /// [`Node::step`]: crate::node::Node::step
    pub fn step(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        mix_id: usize,
        active_cores: usize,
    ) -> StepOutput {
        self.step_inner(node, now, dt, mix_id, active_cores, false)
            .0
    }

    /// Like [`step`](NodeBatch::step) but with the cap controller *held*:
    /// the allowed P-state only moves on an emergency descent (measured
    /// average above the cap); climbing and probing are suppressed. Used by
    /// coarse-tick drivers between control events, where a long tick would
    /// otherwise turn one 250 ms probe excursion into a tick-long one.
    ///
    /// Returns the step output plus whether any package's allowed P-state
    /// changed — a control event the driver should react to by re-entering
    /// fine stepping.
    pub fn step_held(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        mix_id: usize,
        active_cores: usize,
    ) -> (StepOutput, bool) {
        self.step_inner(node, now, dt, mix_id, active_cores, true)
    }

    fn step_inner(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        mix_id: usize,
        active_cores: usize,
        hold_climb: bool,
    ) -> (StepOutput, bool) {
        let n_cores = self.cfg.package.n_cores;
        let n_packages = self.cfg.n_packages;
        let dt_s = dt.as_secs_f64();
        let decay = self.decay(dt_s);
        let mut remaining = active_cores.min(self.cfg.total_cores());
        let base = node * n_packages;
        let mut work = 0.0;
        let mut power = self.cfg.misc_power_w;
        let mut freq = 0.0;
        let mut throttled = false;
        let mut cap_changed = false;
        for lane in base..base + n_packages {
            let n = remaining.min(n_cores);
            remaining -= n;
            let idx = self.effective_pstate(lane);
            let c = self.coeff(mix_id, idx, n);
            // Same association as the scalar `Package::power_w`:
            // ((core_dyn + leak) + uncore) + dram, with the ×1.0 nominal
            // variation factors elided (bitwise identity).
            let leak = self.cfg.package.power.leakage_w(self.pkgs.temp_c[lane]);
            let p_w = c.core_dyn_w + leak + self.uncore_w + c.dram_w;
            // Exact RC advance with the memoized decay factor.
            let t_inf = self.thermal.t_ambient + p_w * self.thermal.r_th;
            let t_now = t_inf + (self.pkgs.temp_c[lane] - t_inf) * decay;
            self.pkgs.temp_c[lane] = t_now;
            if t_now >= self.thermal.t_throttle {
                self.pkgs.throttling.set(lane, true);
            } else if t_now <= self.thermal.t_throttle - self.thermal.hysteresis {
                self.pkgs.throttling.set(lane, false);
            }
            // RAPL bookkeeping + one control action, as in `Package::step`.
            if let Some((cap, win)) = &mut self.pkgs.caps[lane] {
                win.record(now, p_w);
                let avg = win.average_w(now + dt);
                if !hold_climb || avg > cap.cap_w() {
                    let before = cap.allowed_idx();
                    cap.control(avg, self.top_idx);
                    cap_changed |= cap.allowed_idx() != before;
                }
            }
            let share = n as f64 / n_cores as f64;
            work += c.speed * dt_s * share;
            power += p_w;
            freq += c.freq_ghz;
            throttled |= self.pkgs.throttling.get(lane);
        }
        self.energy_j[node] += power * dt_s;
        let out = StepOutput {
            work: work / n_packages as f64,
            power_w: power,
            effective_freq_ghz: freq / n_packages as f64,
            throttled,
        };
        (out, cap_changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseKind;

    fn batch() -> NodeBatch {
        let mut b = NodeBatch::new(NodeConfig::server_default());
        b.reset(1, None, SimDuration::from_millis(10));
        b
    }

    #[test]
    fn bitset_round_trip() {
        let mut bs = Bitset::default();
        bs.reset(130);
        assert_eq!(bs.len(), 130);
        bs.set(0, true);
        bs.set(64, true);
        bs.set(129, true);
        assert!(bs.get(0) && bs.get(64) && bs.get(129));
        assert!(!bs.get(1) && !bs.get(63) && !bs.get(128));
        bs.set(64, false);
        assert!(!bs.get(64));
        bs.reset(130);
        assert!(!bs.get(0) && !bs.get(129));
    }

    #[test]
    fn register_mix_dedupes_identical_weights() {
        let mut b = batch();
        let a = b.register_mix(&PhaseMix::pure(PhaseKind::ComputeBound));
        let c = b.register_mix(&PhaseMix::pure(PhaseKind::ComputeBound));
        let d = b.register_mix(&PhaseMix::pure(PhaseKind::CommBound));
        assert_eq!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut b = NodeBatch::new(NodeConfig::server_default());
        b.reset(4, None, SimDuration::from_millis(10));
        assert_eq!(b.reuse_hits(), 0);
        let mix = b.register_mix(&PhaseMix::pure(PhaseKind::ComputeBound));
        b.step(0, SimTime::ZERO, SimDuration::from_secs(1), mix, 48);
        assert!(b.energy_j(0) > 0.0);
        b.reset(4, None, SimDuration::from_millis(10));
        assert_eq!(b.reuse_hits(), 1);
        assert_eq!(b.energy_j(0), 0.0);
        assert_eq!(b.max_temperature_c(0), 25.0);
        b.reset(2, Some(300.0), SimDuration::from_millis(10));
        assert_eq!(b.reuse_hits(), 2);
        assert!(b.has_cap(0) && b.has_cap(1));
        b.reset(2, None, SimDuration::from_millis(10));
        assert!(!b.has_cap(0));
    }

    #[test]
    #[should_panic(expected = "below platform power")]
    fn cap_below_platform_panics() {
        let mut b = batch();
        b.set_power_cap(0, SimTime::ZERO, 30.0, SimDuration::from_millis(10));
    }
}
