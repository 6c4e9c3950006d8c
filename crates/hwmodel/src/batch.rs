//! Batched node stepping over flat package lanes: the node engine under
//! running jobs (`pstack-runtime`'s `JobRunner`) and under the evaluation
//! fast path (`powerstack-core`'s `EvalArena`).
//!
//! [`Node::step`] is exact but re-evaluates, per package and per sub-step,
//! the roofline and CMOS models at an operating point that rarely changes,
//! and takes a fresh `exp()` per thermal advance. [`NodeBatch`] keeps the
//! *dynamic* state of many nodes as one flat array of package lanes
//! (temperature, throttle latch, P-state, uncore and duty-cycle knobs,
//! variation factors, ambient, counters, energy) beside their cap
//! controllers, and the *static* model as shared memoized coefficients, so
//! stepping a node is a handful of flops plus table lookups.
//!
//! Lanes are filled in one of two ways:
//!
//! - [`NodeBatch::load`] moves the state of existing [`Node`]s into the
//!   lanes and [`NodeBatch::store`] moves it back. The cap controller and
//!   RAPL window are moved, not cloned, and a node loaded and stored
//!   without a step in between is unchanged. Loaded lanes keep each
//!   package's eight counters and energy, as the scalar package does.
//! - [`NodeBatch::reset`] fills fresh nominal nodes, as `EvalArena` does
//!   per evaluation. These lanes elide the counters and package energy,
//!   which no reader of an evaluation consults.
//!
//! ## Bit-identity contract
//!
//! The batch path is an optimization of the scalar path, not an
//! approximation: for any node — manufacturing variation, any ambient, and
//! any sequence of P-state, uncore, duty-cycle and cap knobs — every value
//! it produces is **bit-identical** to [`Node::step`] / [`Node::work_rate`]
//! and to the node's readings (energy, temperatures, throttle latches,
//! effective frequency, counters). The only transformations applied are
//! bit-transparent:
//!
//! - **Memoized coefficients.** Speed, core dynamic, uncore and DRAM power,
//!   and a package's core share and work rate depend only on `(mix,
//!   P-state, active cores, uncore index, duty cycle)`; on a cache miss they
//!   are computed by calling the *same scalar model functions and
//!   expressions*, so a hit replays the exact bits a fresh call would
//!   produce. The counter increments' phase-mix blends are computed once
//!   per registered mix, by the same `PhaseMix` calls.
//! - **One-slot tick memo.** A sub-step's length in seconds and
//!   microseconds and the RC-thermal decay factor `exp(-dt/τ)` depend only
//!   on the length; the latest length's values are kept, and a new length
//!   computes them afresh with the scalar expressions. Every node of a
//!   sub-step shares its length, so a sub-step computes them at most once.
//! - **Flat-window average.** When a tick is at least as long as the RAPL
//!   window, the measurement window sees only the step just recorded;
//!   [`RaplWindow::average_w`] then skips its deque walk without changing
//!   a bit (the same rule serves the scalar path).
//! - **One counter check per step.** A step's eight counter increments are
//!   checked finite and non-negative together, in one vectorizable test
//!   rather than a branch per increment; a failing step panics as
//!   [`CounterBank::add_all`] does.
//! - **Elided state** (reset lanes only): counters and package energy.
//!
//! Closed-form exponential integration (already exact in [`ThermalModel`])
//! means tick *length* never changes the thermal trajectory between control
//! events; the driver layer exploits this to coarsen ticks between
//! control/throttle events — uncapped spans coarsen outright, capped spans
//! settle the controller on fine ticks and then advance via
//! [`step_held`](NodeBatch::step_held) (see `pstack-core`'s `EvalArena`).
//!
//! The scalar path remains the oracle: `tests/batch_equivalence.rs` drives
//! both through random mix/core/tick sequences and every knob — on nominal
//! nodes and on fleet nodes with manufacturing variation and a thermal
//! gradient, across throttle hysteresis crossings — and asserts
//! `f64::to_bits` equality of every output, reading and counter.

use crate::cap::{PowerCap, RaplWindow};
use crate::node::{Node, NodeConfig, StepOutput};
use crate::phase::{PhaseKind, PhaseMix};
use crate::pstate::DutyCycle;
use crate::thermal::ThermalModel;
use crate::variation::VariationFactors;
use pstack_sim::{SimDuration, SimTime};
use pstack_telemetry::counters::ALL_COUNTERS;
use pstack_telemetry::{CounterBank, CounterKind};
use std::collections::HashMap;

/// What a coefficient slot holds besides its `(mix, P-state)`: the
/// per-package active core count and the uncore and duty-cycle knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tag {
    active: usize,
    uncore: usize,
    duty: DutyCycle,
}

/// Memoized operating-point coefficients for one `(mix, P-state)` slot and
/// [`Tag`]. Filled by calling the scalar model functions once.
#[derive(Debug, Clone, Copy)]
struct Coeff {
    /// Relative speed (scalar `SpeedModel::speed`).
    speed: f64,
    /// The package's work rate, `speed · active / n_cores` (scalar
    /// `Package::work_rate`).
    rate: f64,
    /// The package's core share, `active / n_cores`, as `Package::step`
    /// computes it.
    share: f64,
    /// Core dynamic power before variation, W (scalar
    /// `PowerModel::core_dynamic_w`).
    core_dyn_w: f64,
    /// Uncore power, W (scalar `PowerModel::uncore_w`).
    uncore_w: f64,
    /// DRAM power, W (scalar `PowerModel::dram_w` at this speed).
    dram_w: f64,
    /// Core frequency at this P-state, GHz.
    freq_ghz: f64,
}

/// A registered mix's blends used by the counter increments (the same
/// `PhaseMix` calls `Package::step` makes per step).
#[derive(Debug, Clone, Copy)]
struct CounterRates {
    instructions: f64,
    flops: f64,
    mem_intensity: f64,
    comm: f64,
    io: f64,
}

impl CounterRates {
    fn of(mix: &PhaseMix) -> Self {
        CounterRates {
            instructions: mix.blend(PhaseKind::instructions_per_work),
            flops: mix.blend(PhaseKind::flops_per_work),
            mem_intensity: mix.blend(PhaseKind::mem_intensity),
            comm: mix.weight(PhaseKind::CommBound),
            io: mix.weight(PhaseKind::IoBound),
        }
    }
}

/// The values a sub-step length determines, as the scalar path computes
/// them per step.
#[derive(Debug, Clone, Copy)]
struct Tick {
    dt: SimDuration,
    /// `dt.as_secs_f64()`.
    dt_s: f64,
    /// `dt.as_micros() as f64`.
    dt_us: f64,
    /// `exp(-dt_s / τ)`, as `ThermalModel::advance` computes it.
    decay: f64,
}

/// The dynamic state of one package lane, besides its cap controller.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Junction temperature, °C.
    temp_c: f64,
    /// Thermal-throttle latch.
    throttling: bool,
    /// Ambient (inlet) temperature, °C.
    t_ambient_c: f64,
    /// Requested P-state index (the DVFS knob).
    pstate_req: usize,
    /// Uncore frequency index (the UFS knob).
    uncore_idx: usize,
    /// Duty-cycle modulation (the clock-modulation knob).
    duty: DutyCycle,
    /// Manufacturing-variation multipliers.
    variation: VariationFactors,
    /// Package energy, joules (kept while counting).
    energy_j: f64,
    /// Counter values in [`ALL_COUNTERS`] order (kept while counting).
    counts: [f64; ALL_COUNTERS.len()],
}

/// Dynamic state of every package lane in the batch.
///
/// Lane `node * n_packages + pkg` holds package `pkg` of node `node`. The
/// lanes are one flat array, so a step reads and writes a node's packages
/// side by side, never pointer-chasing through per-node structs.
#[derive(Debug, Default)]
pub struct PackageBatch {
    lanes: Vec<Lane>,
    /// Optional RAPL cap + measurement window per lane.
    caps: Vec<Option<(PowerCap, RaplWindow)>>,
}

/// Batched evaluation of many [`Node`]s over package lanes.
///
/// Construct once, then either [`reset`](NodeBatch::reset) to fresh nominal
/// nodes or [`load`](NodeBatch::load) existing ones: state is rewritten in
/// place and every allocation (lane arrays, cap windows, coefficient
/// tables) is reused.
#[derive(Debug)]
pub struct NodeBatch {
    cfg: NodeConfig,
    /// Thermal parameters shared by every lane (scalar packages always use
    /// [`ThermalModel::server_default`]); its ambient is the one reset
    /// lanes start at, while each lane keeps its own.
    thermal: ThermalModel,
    /// RC time constant `r_th · c_th`, seconds.
    tau_s: f64,
    /// Top core P-state index.
    top_idx: usize,
    /// Top uncore index.
    top_uncore: usize,
    pkgs: PackageBatch,
    /// Node energy per node, joules.
    energy_j: Vec<f64>,
    n_nodes: usize,
    /// Whether the lanes keep counters and package energy: true for lanes
    /// loaded from nodes, false for reset lanes.
    counting: bool,
    /// Registered phase mixes; step/work_rate take a mix id, not a `&PhaseMix`.
    mixes: Vec<PhaseMix>,
    /// Counter blends of each registered mix.
    rates: Vec<CounterRates>,
    mix_index: HashMap<[u64; 4], usize>,
    /// Memoized scalar-model coefficients, stored dense: slot
    /// `mix · n_pstates + pstate`, tagged with the active-core count and the
    /// uncore and duty knobs it was computed for. A job runs a mix on a
    /// fixed core count, and its nodes mostly share knobs, so the
    /// one-entry-per-slot cache rarely collides; a collision just recomputes
    /// through the same scalar model calls. Keeping the stride at
    /// `n_pstates` (not `n_pstates · n_cores`) keeps registering a fresh mix
    /// to a couple of kilobytes — the memset and minor-fault cost of a wide
    /// layout dominated first-evaluation latency.
    coeffs: Vec<Option<(Tag, Coeff)>>,
    /// The latest sub-step length's derived values.
    tick: Tick,
    /// Resets that reused existing allocations (no lane growth needed).
    reuse_hits: usize,
}

impl NodeBatch {
    /// Build an empty batch for nodes of the given configuration. Call
    /// [`reset`](NodeBatch::reset) or [`load`](NodeBatch::load) to fill it.
    pub fn new(cfg: NodeConfig) -> Self {
        let thermal = ThermalModel::server_default();
        let tau_s = thermal.r_th * thermal.c_th;
        let top_idx = cfg.package.pstates.top_idx();
        let top_uncore = cfg.package.uncore.top_idx();
        let zero = SimDuration::ZERO;
        NodeBatch {
            cfg,
            thermal,
            tau_s,
            top_idx,
            top_uncore,
            pkgs: PackageBatch::default(),
            energy_j: Vec::new(),
            n_nodes: 0,
            counting: false,
            mixes: Vec::new(),
            rates: Vec::new(),
            mix_index: HashMap::new(),
            coeffs: Vec::new(),
            tick: Tick {
                dt: zero,
                dt_s: zero.as_secs_f64(),
                dt_us: zero.as_micros() as f64,
                decay: (-zero.as_secs_f64() / tau_s).exp(),
            },
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

    /// A fresh nominal package lane: ambient temperature, top P-state and
    /// uncore, full duty, no variation, nothing counted.
    fn nominal_lane(&self) -> Lane {
        Lane {
            temp_c: self.thermal.t_ambient,
            throttling: false,
            t_ambient_c: self.thermal.t_ambient,
            pstate_req: self.top_idx,
            uncore_idx: self.top_uncore,
            duty: DutyCycle::FULL,
            variation: VariationFactors::NOMINAL,
            energy_j: 0.0,
            counts: [0.0; ALL_COUNTERS.len()],
        }
    }

    /// Reset the batch in place to `n_nodes` fresh nominal nodes, optionally
    /// applying a node power cap (split across packages exactly like
    /// [`Node::set_power_cap`]) at `t = 0` with the given window. The lanes
    /// keep no counters or package energy.
    ///
    /// Equivalent to constructing `n_nodes` × [`Node::nominal`] and calling
    /// `set_power_cap(SimTime::ZERO, cap_w, window)` on each — but without
    /// allocating when capacity suffices.
    ///
    /// # Panics
    /// Panics if a cap does not cover platform power (as the scalar node does).
    ///
    /// [`Node::nominal`]: crate::node::Node::nominal
    pub fn reset(&mut self, n_nodes: usize, node_cap_w: Option<f64>, window: SimDuration) {
        let lanes = n_nodes * self.cfg.n_packages;
        if lanes <= self.pkgs.lanes.capacity() && n_nodes <= self.energy_j.capacity() {
            self.reuse_hits += 1;
        }
        self.n_nodes = n_nodes;
        self.counting = false;
        let nominal = self.nominal_lane();
        self.pkgs.lanes.clear();
        self.pkgs.lanes.resize(lanes, nominal);
        self.energy_j.clear();
        self.energy_j.resize(n_nodes, 0.0);
        let caps = &mut self.pkgs.caps;
        caps.resize_with(lanes, || None);
        match node_cap_w {
            None => caps.fill_with(|| None),
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
                for slot in caps.iter_mut() {
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

    /// Move the state of `nodes` into the batch, node `i` of the iterator
    /// into batch node `i`: every package's thermal state and ambient,
    /// knobs, variation factors, counters and energy, and its cap
    /// controller and RAPL window (moved, leaving the node uncapped until
    /// [`store`](NodeBatch::store) moves them back). The lanes keep
    /// counters and package energy. Between `load` and `store` the lanes
    /// hold the nodes' state; the parked nodes must not be stepped or read.
    ///
    /// # Panics
    /// Panics if a node has a different package count than the batch's
    /// configuration (debug builds check the whole configuration).
    pub fn load<'a>(&mut self, nodes: impl ExactSizeIterator<Item = &'a mut Node>) {
        self.n_nodes = nodes.len();
        self.counting = true;
        let pk = &mut self.pkgs;
        pk.lanes.clear();
        pk.caps.clear();
        self.energy_j.clear();
        for node in nodes {
            assert_eq!(
                node.packages.len(),
                self.cfg.n_packages,
                "package count mismatch"
            );
            debug_assert!(node.config() == &self.cfg, "node configuration mismatch");
            self.energy_j.push(node.energy_j);
            for p in node.packages.iter_mut() {
                pk.lanes.push(Lane {
                    temp_c: p.thermal.t_now,
                    throttling: p.thermal.throttling,
                    t_ambient_c: p.thermal.t_ambient,
                    pstate_req: p.pstate_req,
                    uncore_idx: p.uncore_idx,
                    duty: p.duty,
                    variation: p.variation,
                    energy_j: p.energy_j,
                    counts: p.counters.values(),
                });
                pk.caps.push(p.cap.take());
            }
        }
    }

    /// Move the lanes' state back into `nodes` — the nodes of the last
    /// [`load`](NodeBatch::load), in the same order: everything a step or a
    /// knob can change (variation factors cannot).
    ///
    /// # Panics
    /// Panics if the batch was not loaded from nodes or the node count
    /// differs.
    pub fn store<'a>(&mut self, nodes: impl ExactSizeIterator<Item = &'a mut Node>) {
        assert!(self.counting, "store needs lanes loaded from nodes");
        assert_eq!(nodes.len(), self.n_nodes, "node count mismatch");
        let n_packages = self.cfg.n_packages;
        let pk = &mut self.pkgs;
        for (i, node) in nodes.enumerate() {
            node.energy_j = self.energy_j[i];
            for (lane, p) in (i * n_packages..).zip(node.packages.iter_mut()) {
                let l = &pk.lanes[lane];
                p.thermal.t_now = l.temp_c;
                p.thermal.throttling = l.throttling;
                p.thermal.t_ambient = l.t_ambient_c;
                p.pstate_req = l.pstate_req;
                p.uncore_idx = l.uncore_idx;
                p.duty = l.duty;
                p.energy_j = l.energy_j;
                p.counters = CounterBank::from_values(l.counts);
                p.cap = pk.caps[lane].take();
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
        self.rates.push(CounterRates::of(mix));
        self.mix_index.insert(key, id);
        self.coeffs
            .resize(self.mixes.len() * self.coeff_stride(), None);
        id
    }

    /// The lane indices of `node`.
    fn lanes_of(&self, node: usize) -> std::ops::Range<usize> {
        let base = node * self.cfg.n_packages;
        base..base + self.cfg.n_packages
    }

    /// The lanes of `node`, mutably.
    fn lanes_mut(&mut self, node: usize) -> &mut [Lane] {
        let lanes = self.lanes_of(node);
        &mut self.pkgs.lanes[lanes]
    }

    /// Request a P-state on every package of `node` (clamped to the table),
    /// mirroring per-package `set_pstate` on the scalar path.
    pub fn set_pstate(&mut self, node: usize, idx: usize) {
        let idx = idx.min(self.top_idx);
        self.lanes_mut(node)
            .iter_mut()
            .for_each(|l| l.pstate_req = idx);
    }

    /// Request the highest P-state at or below `f_ghz` on every package of
    /// `node`, mirroring [`Node::set_freq_ghz`].
    pub fn set_freq_ghz(&mut self, node: usize, f_ghz: f64) {
        let idx = self.cfg.package.pstates.ladder().index_at_or_below(f_ghz);
        self.lanes_mut(node)
            .iter_mut()
            .for_each(|l| l.pstate_req = idx);
    }

    /// Set the uncore index on every package of `node` (clamped to the
    /// ladder), mirroring [`Node::set_uncore_idx`].
    pub fn set_uncore_idx(&mut self, node: usize, idx: usize) {
        let idx = idx.min(self.top_uncore);
        self.lanes_mut(node)
            .iter_mut()
            .for_each(|l| l.uncore_idx = idx);
    }

    /// Set duty-cycle modulation on every package of `node`, mirroring
    /// [`Node::set_duty`].
    pub fn set_duty(&mut self, node: usize, duty: DutyCycle) {
        self.lanes_mut(node).iter_mut().for_each(|l| l.duty = duty);
    }

    /// Apply a node power cap, replicating [`Node::set_power_cap`] bit for
    /// bit: platform power is reserved, the remainder split evenly across
    /// packages; an existing cap with the same window is retargeted in place.
    ///
    /// # Panics
    /// Panics if the cap does not cover platform power.
    pub fn set_power_cap(&mut self, node: usize, now: SimTime, cap_w: f64, window: SimDuration) {
        let for_packages = cap_w - self.cfg.misc_power_w;
        assert!(
            for_packages > 0.0,
            "node cap {cap_w} below platform power {}",
            self.cfg.misc_power_w
        );
        let per_pkg = for_packages / self.cfg.n_packages as f64;
        for lane in self.lanes_of(node) {
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

    /// Remove every package cap of `node`, mirroring
    /// [`Node::clear_power_cap`].
    pub fn clear_power_cap(&mut self, node: usize) {
        let lanes = self.lanes_of(node);
        self.pkgs.caps[lanes].fill_with(|| None);
    }

    /// Change the ambient (inlet) temperature of every package of `node`,
    /// mirroring [`Node::set_ambient_c`]: the junction temperature floor
    /// moves with it.
    ///
    /// # Panics
    /// Panics if the ambient reaches the throttle point.
    pub fn set_ambient_c(&mut self, node: usize, t_ambient: f64) {
        assert!(
            t_ambient < self.thermal.t_throttle,
            "ambient must stay below the throttle point"
        );
        for l in self.lanes_mut(node) {
            let delta = t_ambient - l.t_ambient_c;
            l.t_ambient_c = t_ambient;
            l.temp_c += delta;
        }
    }

    /// True if any package of `node` currently holds a cap.
    pub fn has_cap(&self, node: usize) -> bool {
        self.pkgs.caps[self.lanes_of(node)]
            .iter()
            .any(|c| c.is_some())
    }

    /// The node-level cap implied by package caps, if every package of
    /// `node` is capped (matches [`Node::power_cap_w`]).
    pub fn power_cap_w(&self, node: usize) -> Option<f64> {
        let mut total = self.cfg.misc_power_w;
        for slot in &self.pkgs.caps[self.lanes_of(node)] {
            total += slot.as_ref()?.0.cap_w();
        }
        Some(total)
    }

    /// Total energy consumed by `node`, joules (matches [`Node::energy_j`]).
    pub fn energy_j(&self, node: usize) -> f64 {
        self.energy_j[node]
    }

    /// Hottest package temperature of `node`, °C (matches
    /// [`Node::max_temperature_c`]).
    pub fn max_temperature_c(&self, node: usize) -> f64 {
        self.pkgs.lanes[self.lanes_of(node)]
            .iter()
            .map(|l| l.temp_c)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Effective core frequency of `node` (mean across packages), GHz
    /// (matches [`Node::effective_freq_ghz`]).
    pub fn effective_freq_ghz(&self, node: usize) -> f64 {
        let pstates = &self.cfg.package.pstates;
        let sum: f64 = self
            .lanes_of(node)
            .map(|lane| pstates.freq(self.effective_pstate(lane)))
            .sum();
        sum / self.cfg.n_packages as f64
    }

    /// Sum of a counter across the packages of `node` (matches
    /// [`Node::counter`]; zero on reset lanes, which keep no counters).
    pub fn counter(&self, node: usize, kind: CounterKind) -> f64 {
        let k = ALL_COUNTERS
            .iter()
            .position(|&c| c == kind)
            .expect("every kind is counted");
        self.pkgs.lanes[self.lanes_of(node)]
            .iter()
            .map(|l| l.counts[k])
            .sum()
    }

    /// The derived values of a sub-step of length `dt`, computed with the
    /// scalar path's expressions when the length changes.
    fn tick(&mut self, dt: SimDuration) -> Tick {
        if self.tick.dt != dt {
            let dt_s = dt.as_secs_f64();
            self.tick = Tick {
                dt,
                dt_s,
                dt_us: dt.as_micros() as f64,
                decay: (-dt_s / self.tau_s).exp(),
            };
        }
        self.tick
    }

    /// Dense-table slots per mix: one per P-state (the rest is a tag).
    fn coeff_stride(&self) -> usize {
        self.top_idx + 1
    }

    /// The table slot holding the operating-point coefficients of `lane`
    /// running `mix_id` on `active` cores at its effective P-state, filled
    /// by the scalar model on a miss. The effective P-state is clamped and
    /// `active` a per-package core count, so the dense index is always in
    /// bounds. Callers read the coefficients in place, where they stay: a
    /// copy of them spilled to the stack cost a store-forwarding stall per
    /// package step.
    #[inline(always)]
    fn coeff_slot(&mut self, lane: usize, mix_id: usize, active: usize) -> usize {
        let idx = self.effective_pstate(lane);
        let l = &self.pkgs.lanes[lane];
        let tag = Tag {
            active,
            uncore: l.uncore_idx,
            duty: l.duty,
        };
        let slot = mix_id * self.coeff_stride() + idx;
        match &self.coeffs[slot] {
            Some((t, _)) if *t == tag => {}
            _ => self.fill_coeff(slot, mix_id, idx, tag),
        }
        slot
    }

    /// The coefficients in a slot [`coeff_slot`](NodeBatch::coeff_slot)
    /// returned.
    fn coeff(&self, slot: usize) -> &Coeff {
        match &self.coeffs[slot] {
            Some((_, c)) => c,
            None => unreachable!("coefficient slot {slot} was filled"),
        }
    }

    /// Compute and keep the coefficients of a slot that missed.
    #[cold]
    #[inline(never)]
    fn fill_coeff(&mut self, slot: usize, mix_id: usize, idx: usize, tag: Tag) {
        let mix = &self.mixes[mix_id];
        let pk = &self.cfg.package;
        let freq_ghz = pk.pstates.freq(idx);
        let uncore_ghz = pk.uncore.freq(tag.uncore);
        let speed = pk.speed.speed(mix, freq_ghz, uncore_ghz, tag.duty);
        let core_dyn_w = pk
            .power
            .core_dynamic_w(&pk.pstates, idx, tag.duty, tag.active, mix);
        let c = Coeff {
            speed,
            rate: speed * tag.active as f64 / pk.n_cores as f64,
            share: tag.active as f64 / pk.n_cores as f64,
            core_dyn_w,
            uncore_w: pk.power.uncore_w(uncore_ghz),
            dram_w: pk.power.dram_w(mix, speed),
            freq_ghz,
        };
        self.coeffs[slot] = Some((tag, c));
    }

    /// Effective P-state of a lane after cap and thermal clamps (same
    /// precedence as [`Package::effective_pstate`]).
    ///
    /// [`Package::effective_pstate`]: crate::package::Package::effective_pstate
    fn effective_pstate(&self, lane: usize) -> usize {
        let l = &self.pkgs.lanes[lane];
        if l.throttling {
            return 0;
        }
        match &self.pkgs.caps[lane] {
            Some((cap, _)) => l.pstate_req.min(cap.allowed_idx()),
            None => l.pstate_req,
        }
    }

    /// Work rate of `node` (work units per second), bit-identical to
    /// [`Node::work_rate`] at the same state.
    pub fn work_rate(&mut self, node: usize, mix_id: usize, active_cores: usize) -> f64 {
        let n_cores = self.cfg.package.n_cores;
        let mut remaining = active_cores.min(self.cfg.total_cores());
        let mut sum = 0.0;
        for lane in self.lanes_of(node) {
            let n = remaining.min(n_cores);
            remaining -= n;
            let slot = self.coeff_slot(lane, mix_id, n);
            sum += self.coeff(slot).rate;
        }
        sum / self.cfg.n_packages as f64
    }

    /// Advance `node` by `dt` running mix `mix_id` on `active_cores`,
    /// bit-identical to [`Node::step`] at the same state (counters and
    /// package energy included on loaded lanes).
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
        let tick = self.tick(dt);
        let th = &self.thermal;
        let (r_th, t_throttle, t_release) = (th.r_th, th.t_throttle, th.t_throttle - th.hysteresis);
        let mut remaining = active_cores.min(self.cfg.total_cores());
        let mut work = 0.0;
        let mut power = self.cfg.misc_power_w;
        let mut freq = 0.0;
        let mut throttled = false;
        let mut cap_changed = false;
        for lane in self.lanes_of(node) {
            let n = remaining.min(n_cores);
            remaining -= n;
            let slot = self.coeff_slot(lane, mix_id, n);
            let Some((_, c)) = &self.coeffs[slot] else {
                unreachable!("coefficient slot {slot} was filled")
            };
            let l = &mut self.pkgs.lanes[lane];
            // Same association as the scalar `Package::power_at`:
            // ((core_dyn·var + leak·var) + uncore) + dram.
            let leak = self.cfg.package.power.leakage_w(l.temp_c);
            let p_w = c.core_dyn_w * l.variation.dynamic
                + leak * l.variation.leakage
                + c.uncore_w
                + c.dram_w;
            // Exact RC advance with the kept decay factor.
            let t_inf = l.t_ambient_c + p_w * r_th;
            l.temp_c = t_inf + (l.temp_c - t_inf) * tick.decay;
            if l.temp_c >= t_throttle {
                l.throttling = true;
            } else if l.temp_c <= t_release {
                l.throttling = false;
            }
            let w = c.speed * tick.dt_s * c.share;
            if self.counting {
                // The increments of `Package::step`, in its order, checked
                // as `CounterBank::add_all` checks them — finite and
                // non-negative (NaN lies in no range) — but with one
                // vectorizable test for all eight.
                let r = &self.rates[mix_id];
                l.energy_j += p_w * tick.dt_s;
                let inc = [
                    w * r.instructions,
                    c.freq_ghz * 1e9 * tick.dt_s * l.duty.fraction() * c.share,
                    w * r.flops,
                    w * r.mem_intensity * 1e9,
                    r.comm * tick.dt_us,
                    0.8 * r.comm * tick.dt_us,
                    r.io * tick.dt_us,
                    w,
                ];
                let valid = inc
                    .iter()
                    .fold(true, |ok, &a| ok & (0.0..=f64::MAX).contains(&a));
                if !valid {
                    // Panics with the counter bank's message.
                    CounterBank::new().add_all(&inc, 1);
                }
                for (count, a) in l.counts.iter_mut().zip(inc) {
                    *count += a;
                }
            }
            throttled |= l.throttling;
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
            work += w;
            power += p_w;
            freq += c.freq_ghz;
        }
        self.energy_j[node] += power * tick.dt_s;
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

    /// Loading nodes into lanes and storing them back without a step leaves
    /// every node as it was, bit for bit: thermal state and latch, ambient,
    /// knobs, counters, package and node energy, and the cap controller and
    /// RAPL window, which travel by move.
    #[test]
    fn load_then_store_leaves_nodes_unchanged() {
        use crate::node::NodeId;
        use crate::variation::VariationModel;
        use pstack_sim::SeedTree;
        let cfg = NodeConfig::server_default();
        let seeds = SeedTree::new(17);
        let mix = PhaseMix::new(0.5, 0.3, 0.1, 0.1);
        let window = SimDuration::from_millis(10);
        let mut nodes: Vec<Node> = (0..3)
            .map(|i| Node::new(NodeId(i), cfg.clone(), &VariationModel::typical(), &seeds))
            .collect();
        // Give each node distinct state: a hot inlet, knobs, a cap whose
        // controller has moved and whose window holds several steps.
        let mut t = SimTime::ZERO;
        for (i, n) in nodes.iter_mut().enumerate() {
            n.set_ambient_c(30.0 + 20.0 * i as f64);
            n.set_freq_ghz(2.0 + 0.5 * i as f64);
            n.set_uncore_idx(3 + i);
            n.set_duty(DutyCycle::new(10 + i as u8));
            if i != 1 {
                n.set_power_cap(SimTime::ZERO, 260.0 + 20.0 * i as f64, window);
            }
        }
        for _ in 0..40 {
            for n in &mut nodes {
                n.step(t, SimDuration::from_millis(3), &mix, 40);
            }
            t += SimDuration::from_millis(3);
        }
        let before: Vec<String> = nodes.iter().map(|n| format!("{n:?}")).collect();
        assert!(before[0].contains("PowerCap"), "node 0 carries a cap");
        let mut b = NodeBatch::new(cfg);
        for round in 0..2 {
            b.load(nodes.iter_mut());
            assert_eq!(b.n_nodes(), 3);
            for (i, n) in nodes.iter().enumerate() {
                assert!(n.power_cap_w().is_none(), "the cap moved into the lanes");
                assert_eq!(b.has_cap(i), i != 1);
            }
            b.store(nodes.iter_mut());
            let after: Vec<String> = nodes.iter().map(|n| format!("{n:?}")).collect();
            assert_eq!(before, after, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "loaded from nodes")]
    fn storing_reset_lanes_panics() {
        let mut node =
            crate::node::Node::nominal(crate::node::NodeId(0), NodeConfig::server_default());
        batch().store(std::iter::once(&mut node));
    }

    #[test]
    #[should_panic(expected = "below platform power")]
    fn cap_below_platform_panics() {
        let mut b = batch();
        b.set_power_cap(0, SimTime::ZERO, 30.0, SimDuration::from_millis(10));
    }
}
