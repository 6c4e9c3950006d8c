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
//!   package's eight counters and energy, as the scalar package does, and
//!   each capped lane its own [`RaplWindow`]: the controller records and
//!   acts at every step, as on the scalar path. Their windows arrive with
//!   history the batch never saw (a job's nodes idle between drives, and
//!   caps change between them), so they cannot share a timeline.
//! - [`NodeBatch::reset`] fills fresh nominal nodes, as `EvalArena` does
//!   per evaluation. These lanes elide the counters and package energy,
//!   which no reader of an evaluation consults. They step in lockstep from
//!   `t = 0`: every sub-step steps every node once over the same span,
//!   starting where the last one ended, and the driver then closes it with
//!   [`NodeBatch::close_substep`]. A step at any other instant, a second
//!   step of a node in one sub-step, or a close before every node stepped
//!   panics; caps change only between sub-steps.
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
//! - **Shared RAPL timeline** (reset lanes). Every reset lane records at
//!   the same sub-step starts, so the lanes keep their windows on one ring
//!   of slots, one per sub-step, instead of a deque each. A slot holds each
//!   lane's power and, once closed, its energy to the next slot: power ×
//!   the sub-step's seconds, the product the scalar walk forms, with the
//!   seconds converted once for all lanes (a slot's interval is an integer
//!   count of microseconds, so every lane's walk would convert the same
//!   one). The close computes each window's partial intervals and span once
//!   for the lanes sharing it, sums each lane's terms in the walk's
//!   left-to-right order — the partial term, then the kept energies, the
//!   open slot's last — and divides once per lane: the same operations on
//!   the same operands as [`RaplWindow::average_w`], flat-window case
//!   included, so the bits agree. A cap set after `t = 0` starts its lane's
//!   window at its slot by zeroing the lane's kept history; this is exact
//!   because a fresh scalar window counts that span as zero power, and a
//!   zero-power prefix only ever adds `+0.0` to a sum that starts at
//!   `+0.0`.
//! - **Controllers act at the close** (reset lanes). A lane's controller
//!   changes only its own allowed P-state, which its next step reads; the
//!   lockstep driver reads work rates and frequencies between sub-steps
//!   (the kernel takes every rate before it steps a node). So running every
//!   capped lane's [`PowerCap::control`] (or its held form, see
//!   [`step_held`](NodeBatch::step_held)) once at the close, on the average
//!   ending there, is the scalar per-step control action. Loaded lanes keep
//!   acting at each step on their own windows, whose flat-window case
//!   [`RaplWindow::average_w`] answers without walking (the same rule
//!   serves the scalar path).
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
//! gradient, across throttle hysteresis crossings, and on reset lanes in
//! lockstep with sub-steps from 1 µs to 250 ms under live and held
//! controllers — and asserts `f64::to_bits` equality of every output,
//! reading, counter and allowed P-state.

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
use std::hash::{BuildHasherDefault, Hash, Hasher};

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
    /// Optional RAPL cap controller per lane.
    caps: Vec<Option<PowerCap>>,
    /// Loaded lanes only: each capped lane's own measurement window (reset
    /// lanes measure on the batch's [`Timeline`] instead).
    windows: Vec<Option<RaplWindow>>,
}

/// The RAPL measurement of reset lanes: one timeline of sub-step starts
/// shared by every lane, with each lane's recorded power per slot.
///
/// Slot `k` starts where sub-step `k` started; its row holds each lane's
/// power over the sub-step and, once the sub-step is closed, its energy to
/// the next slot (power × the sub-step's length in seconds, the product the
/// scalar window walk forms). The live slots `head..tail` sit in a ring of
/// `starts.len()` (a power of two) slots; slot `k`'s row is row `k & mask`,
/// `width` lanes wide.
#[derive(Debug, Default)]
struct Timeline {
    /// Row width: the batch's lane count.
    width: usize,
    /// Start time of each slot.
    starts: Vec<SimTime>,
    /// Each lane's recorded power per slot.
    power: Vec<f64>,
    /// Each lane's energy over each closed slot.
    energy: Vec<f64>,
    /// First live slot.
    head: usize,
    /// One past the last live slot.
    tail: usize,
    /// Per-lane window energies of the close pass.
    acc: Vec<f64>,
}

impl Timeline {
    /// Forget every slot; rows become `width` lanes wide.
    fn clear(&mut self, width: usize) {
        if width != self.width {
            self.width = width;
            self.power.clear();
            self.energy.clear();
            self.power.resize(self.starts.len() * width, 0.0);
            self.energy.resize(self.starts.len() * width, 0.0);
            self.acc.clear();
            self.acc.resize(width, 0.0);
        }
        self.head = 0;
        self.tail = 0;
    }

    /// Offset of slot `k`'s row.
    fn row(&self, k: usize) -> usize {
        (k & (self.starts.len() - 1)) * self.width
    }

    /// Open a slot starting at `t`; returns the offset of its row. Every
    /// lane's power is written before the slot is read.
    fn open(&mut self, t: SimTime) -> usize {
        if self.tail - self.head == self.starts.len() {
            self.grow();
        }
        let k = self.tail;
        self.tail += 1;
        let mask = self.starts.len() - 1;
        self.starts[k & mask] = t;
        self.row(k)
    }

    /// Double the ring, moving the live slots to its front in order.
    #[cold]
    fn grow(&mut self) {
        let w = self.width;
        let slots = (2 * self.starts.len()).max(8);
        let mut starts = vec![SimTime::ZERO; slots];
        let mut power = vec![0.0; slots * w];
        let mut energy = vec![0.0; slots * w];
        for (i, k) in (self.head..self.tail).enumerate() {
            let row = self.row(k);
            starts[i] = self.starts[k & (self.starts.len() - 1)];
            power[i * w..(i + 1) * w].copy_from_slice(&self.power[row..row + w]);
            energy[i * w..(i + 1) * w].copy_from_slice(&self.energy[row..row + w]);
        }
        self.tail -= self.head;
        self.head = 0;
        self.starts = starts;
        self.power = power;
        self.energy = energy;
    }

    /// Zero `lane`'s power and energy in every live slot: a cap set now
    /// starts its window empty, as a fresh scalar window does.
    fn restart(&mut self, lane: usize) {
        for k in self.head..self.tail {
            let row = self.row(k);
            self.power[row + lane] = 0.0;
            self.energy[row + lane] = 0.0;
        }
    }

    /// Close the open (last) slot, `dt_s` seconds long: its energies are
    /// its powers times `dt_s`.
    fn seal(&mut self, dt_s: f64) {
        let row = self.row(self.tail - 1);
        let w = self.width;
        for (e, &p) in self.energy[row..row + w]
            .iter_mut()
            .zip(&self.power[row..row + w])
        {
            *e = p * dt_s;
        }
    }

    /// Each lane's energy over `[now - window, now]` into `acc`, summed
    /// in the order [`RaplWindow::average_w`] walks its steps; returns the
    /// window's span in seconds, the divisor of the average. `window_s` is
    /// the window's length in seconds, the span once `now` is past it.
    ///
    /// The walk's terms are the power before the window's first slot times
    /// the partial interval up to that slot, then each later slot's
    /// energy, the open slot's included (its interval ends at `now`). When
    /// every slot starts at or before the window, the signal is flat and
    /// the one term is the last power times the span.
    fn window_energies(&mut self, now: SimTime, window: SimDuration, window_s: f64) -> f64 {
        let w = self.width;
        let mask = self.starts.len() - 1;
        let from = SimTime(now.0.saturating_sub(window.0));
        let span_s = if now.0 >= window.0 {
            window_s
        } else {
            now.since(from).as_secs_f64()
        };
        let last = self.tail - 1;
        if self.starts[last & mask] <= from {
            let row = self.row(last);
            for (a, &p) in self.acc.iter_mut().zip(&self.power[row..row + w]) {
                *a = 0.0;
                *a += p * span_s;
            }
            return span_s;
        }
        let mut k0 = self.head;
        while self.starts[k0 & mask] <= from {
            k0 += 1;
        }
        let head_s = self.starts[k0 & mask].since(from).as_secs_f64();
        // Power carried into the window. Before the first slot there is
        // none: the walk's `0.0 + 0.0 * head_s` is `+0.0`.
        if k0 > self.head {
            let row = self.row(k0 - 1);
            for (a, &p) in self.acc.iter_mut().zip(&self.power[row..row + w]) {
                *a = 0.0;
                *a += p * head_s;
            }
        } else {
            self.acc.fill(0.0);
        }
        for k in k0..self.tail {
            let row = self.row(k);
            for (a, &e) in self.acc.iter_mut().zip(&self.energy[row..row + w]) {
                *a += e;
            }
        }
        span_s
    }

    /// Drop the slots no window reaching back to `cutoff` or later needs:
    /// all before the last one starting at or before `cutoff`.
    fn evict(&mut self, cutoff: SimTime) {
        let mask = self.starts.len() - 1;
        while self.head + 1 < self.tail && self.starts[(self.head + 1) & mask] <= cutoff {
            self.head += 1;
        }
    }
}

/// The sub-step the reset lanes are in: opened by its first node step,
/// closed by [`NodeBatch::close_substep`].
#[derive(Debug, Clone, Copy)]
struct OpenSubStep {
    dt: SimDuration,
    /// Whether the controllers act held (see [`NodeBatch::step_held`]).
    held: bool,
    /// Row offset of the sub-step's slot, while the timeline records.
    row: Option<usize>,
    /// Node steps taken in it.
    steps: usize,
}

/// Batched evaluation of many [`Node`]s over package lanes.
///
/// Construct once, then either [`reset`](NodeBatch::reset) to fresh nominal
/// nodes or [`load`](NodeBatch::load) existing ones: state is rewritten in
/// place and every allocation (lane arrays, the RAPL timeline, coefficient
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
    /// Whether the lanes were loaded from nodes: they keep counters and
    /// package energy, and each capped lane its own RAPL window. False for
    /// reset lanes, which step in lockstep on the shared timeline.
    counting: bool,
    /// Reset lanes: the RAPL timeline, recording while any lane is capped.
    timeline: Timeline,
    /// Reset lanes: the distinct windows of the capped lanes' caps, each
    /// with its length in seconds (empty while no lane is capped).
    cap_windows: Vec<(SimDuration, f64)>,
    /// Reset lanes: where the open (or next) sub-step starts.
    clock: SimTime,
    /// Reset lanes: the sub-step stepped since the last close, if any.
    open: Option<OpenSubStep>,
    /// Reset lanes: sub-steps closed since the batch was built.
    closed: u64,
    /// Reset lanes: per node, one more than the number of sub-steps closed
    /// when it last stepped (zero before its first step).
    stamps: Vec<u64>,
    /// Registered phase mixes; step/work_rate take a mix id, not a `&PhaseMix`.
    mixes: Vec<PhaseMix>,
    /// Counter blends of each registered mix.
    rates: Vec<CounterRates>,
    mix_index: HashMap<MixKey, usize, BuildHasherDefault<MixHasher>>,
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
            timeline: Timeline::default(),
            cap_windows: Vec::new(),
            clock: SimTime::ZERO,
            open: None,
            closed: 0,
            stamps: Vec::new(),
            mixes: Vec::new(),
            rates: Vec::new(),
            mix_index: HashMap::default(),
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
    /// keep no counters or package energy, and step in lockstep from `t = 0`:
    /// every sub-step steps every node once over the same span, starting
    /// where the last one ended, and the driver then
    /// [closes](NodeBatch::close_substep) it.
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
        // Fresh-node semantics (unlike `set_power_cap`'s mid-run retarget):
        // controller state starts new and the timeline empty, exactly as on
        // a newly built scalar node.
        let cap =
            node_cap_w.map(|cap_w| PowerCap::new(self.per_package_w(cap_w), window, self.top_idx));
        self.pkgs.caps.clear();
        self.pkgs.caps.resize(lanes, cap);
        self.pkgs.windows.clear();
        self.timeline.clear(lanes);
        self.cap_windows.clear();
        self.cap_windows
            .extend(node_cap_w.map(|_| (window, window.as_secs_f64())));
        self.clock = SimTime::ZERO;
        self.open = None;
        self.stamps.clear();
        self.stamps.resize(n_nodes, 0);
    }

    /// A node cap's per-package share: platform power is reserved, the
    /// remainder split evenly across packages (as [`Node::set_power_cap`]
    /// splits it).
    ///
    /// # Panics
    /// Panics if the cap does not cover platform power.
    fn per_package_w(&self, cap_w: f64) -> f64 {
        let for_packages = cap_w - self.cfg.misc_power_w;
        assert!(
            for_packages > 0.0,
            "node cap {cap_w} below platform power {}",
            self.cfg.misc_power_w
        );
        for_packages / self.cfg.n_packages as f64
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
        self.open = None;
        let pk = &mut self.pkgs;
        pk.lanes.clear();
        pk.caps.clear();
        pk.windows.clear();
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
                let (cap, window) = p.cap.take().unzip();
                pk.caps.push(cap);
                pk.windows.push(window);
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
                p.cap = pk.caps[lane].take().zip(pk.windows[lane].take());
            }
        }
    }

    /// Register a phase mix, returning its id. Mixes with identical weight
    /// bit patterns share an id, so per-phase registration is amortized.
    pub fn register_mix(&mut self, mix: &PhaseMix) -> usize {
        let key = MixKey([
            mix.weight(PhaseKind::ComputeBound).to_bits(),
            mix.weight(PhaseKind::MemoryBound).to_bits(),
            mix.weight(PhaseKind::CommBound).to_bits(),
            mix.weight(PhaseKind::IoBound).to_bits(),
        ]);
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
    /// On reset lanes caps change between sub-steps only, at the start of
    /// the next one (`now` is where the last closed sub-step ended); a new
    /// cap's window starts empty at that slot of the timeline.
    ///
    /// # Panics
    /// Panics if the cap does not cover platform power, or on reset lanes
    /// inside a sub-step or at another instant.
    pub fn set_power_cap(&mut self, node: usize, now: SimTime, cap_w: f64, window: SimDuration) {
        let per_pkg = self.per_package_w(cap_w);
        if !self.counting {
            self.assert_between_substeps();
            assert_eq!(
                now, self.clock,
                "a reset lane's cap changes where its next sub-step starts"
            );
        }
        for lane in self.lanes_of(node) {
            match &mut self.pkgs.caps[lane] {
                Some(cap) if cap.window() == window => cap.set_cap_w(per_pkg),
                slot => {
                    *slot = Some(PowerCap::new(per_pkg, window, self.top_idx));
                    if self.counting {
                        let mut win = RaplWindow::new(window);
                        win.record(now, 0.0);
                        self.pkgs.windows[lane] = Some(win);
                    } else {
                        self.timeline.restart(lane);
                    }
                }
            }
        }
        if !self.counting {
            self.refresh_cap_windows();
        }
    }

    /// Remove every package cap of `node`, mirroring
    /// [`Node::clear_power_cap`].
    ///
    /// # Panics
    /// Panics on reset lanes inside a sub-step.
    pub fn clear_power_cap(&mut self, node: usize) {
        if !self.counting {
            self.assert_between_substeps();
        }
        let lanes = self.lanes_of(node);
        self.pkgs.caps[lanes.clone()].fill(None);
        if self.counting {
            self.pkgs.windows[lanes].fill_with(|| None);
        } else {
            self.refresh_cap_windows();
        }
    }

    /// Reset lanes: collect the capped lanes' distinct windows. With none
    /// left the timeline stops recording and forgets its slots, so a later
    /// cap starts afresh.
    fn refresh_cap_windows(&mut self) {
        self.cap_windows.clear();
        for cap in self.pkgs.caps.iter().flatten() {
            let window = cap.window();
            if !self.cap_windows.iter().any(|&(w, _)| w == window) {
                self.cap_windows.push((window, window.as_secs_f64()));
            }
        }
        if self.cap_windows.is_empty() {
            self.timeline.clear(self.pkgs.lanes.len());
        }
    }

    /// Reset lanes: no sub-step may be open.
    fn assert_between_substeps(&self) {
        assert!(
            self.open.is_none(),
            "a reset lane's cap changes between sub-steps"
        );
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
            total += slot.as_ref()?.cap_w();
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

    /// Effective P-state of package `pkg` of `node` after cap and thermal
    /// clamps (matches [`Package::effective_pstate`]).
    ///
    /// [`Package::effective_pstate`]: crate::package::Package::effective_pstate
    ///
    /// # Panics
    /// Panics if `pkg` is not a package of the configuration.
    pub fn package_pstate(&self, node: usize, pkg: usize) -> usize {
        assert!(pkg < self.cfg.n_packages, "no package {pkg}");
        self.effective_pstate(self.lanes_of(node).start + pkg)
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
            Some(cap) => l.pstate_req.min(cap.allowed_idx()),
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
    ///
    /// A loaded lane's cap controller acts at the end of the step, as the
    /// scalar package's does. A reset lane's records the step's power on
    /// the timeline and acts when the driver closes the sub-step.
    ///
    /// # Panics
    /// Panics on reset lanes if the step breaks lockstep: it must start
    /// where the last closed sub-step ended, last as long as the open
    /// sub-step's other steps (at least 1 µs), and step a node the open
    /// sub-step has not stepped yet.
    pub fn step(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        mix_id: usize,
        active_cores: usize,
    ) -> StepOutput {
        self.step_inner(node, now, dt, mix_id, active_cores, false)
    }

    /// Like [`step`](NodeBatch::step) but with the cap controller *held*:
    /// the allowed P-state only moves on an emergency descent (measured
    /// average above the cap); climbing and probing are suppressed. Used by
    /// coarse-tick drivers between control events, where a long tick would
    /// otherwise turn one 250 ms probe excursion into a tick-long one. On
    /// reset lanes every step of a sub-step is held or none is.
    pub fn step_held(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        mix_id: usize,
        active_cores: usize,
    ) -> StepOutput {
        self.step_inner(node, now, dt, mix_id, active_cores, true)
    }

    /// Reset lanes: check that stepping `node` over `[now, now + dt)` keeps
    /// lockstep, opening the sub-step (and its timeline slot) on its first
    /// step. Returns the row of the sub-step's slot while recording.
    fn enter_substep(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        held: bool,
    ) -> Option<usize> {
        let stamp = self.closed + 1;
        assert!(
            std::mem::replace(&mut self.stamps[node], stamp) != stamp,
            "node {node} already stepped in this sub-step"
        );
        let open = match &mut self.open {
            Some(open) => {
                assert!(
                    now == self.clock && dt == open.dt && held == open.held,
                    "reset lanes step in lockstep: node {node} at {now:?} for {dt:?} \
                     inside the sub-step at {:?} for {:?}",
                    self.clock,
                    open.dt
                );
                open
            }
            None => {
                assert_eq!(
                    now, self.clock,
                    "reset lanes step in lockstep: a sub-step starts where the last one closed"
                );
                assert!(!dt.is_zero(), "a reset lane's sub-step must be positive");
                let recording = !self.cap_windows.is_empty();
                let row = recording.then(|| self.timeline.open(now));
                self.open.insert(OpenSubStep {
                    dt,
                    held,
                    row,
                    steps: 0,
                })
            }
        };
        open.steps += 1;
        open.row
    }

    /// Close the reset lanes' open sub-step: every node has stepped once
    /// over it. One pass then averages every capped lane's power over its
    /// window ending at the sub-step's end, from the shared timeline, and
    /// runs the lane's controller on it, held if the sub-step's steps
    /// were — the same averages and allowed P-states the scalar packages'
    /// per-step [`RaplWindow::average_w`] and [`PowerCap::control`] give,
    /// bit for bit. The next sub-step starts where this one ended.
    ///
    /// # Panics
    /// Panics on loaded lanes (their controllers act at each step), with
    /// no sub-step open, or if a node has not stepped in it.
    pub fn close_substep(&mut self) {
        assert!(!self.counting, "close_substep needs reset lanes");
        let open = self.open.take().expect("a sub-step is open");
        assert_eq!(
            open.steps, self.n_nodes,
            "every node steps in every sub-step"
        );
        self.closed += 1;
        let now = self.clock + open.dt;
        self.clock = now;
        if open.row.is_none() {
            return;
        }
        // Every step of the sub-step set the tick memo to its length.
        debug_assert_eq!(self.tick.dt, open.dt);
        let timeline = &mut self.timeline;
        timeline.seal(self.tick.dt_s);
        // Lanes sharing a window share its partial intervals and span.
        let mut longest = SimDuration::ZERO;
        for &(window, window_s) in &self.cap_windows {
            longest = longest.max(window);
            let span_s = timeline.window_energies(now, window, window_s);
            for (cap, &energy) in self.pkgs.caps.iter_mut().zip(&timeline.acc) {
                let Some(cap) = cap.as_mut().filter(|c| c.window() == window) else {
                    continue;
                };
                let avg = energy / span_s;
                if !open.held || avg > cap.cap_w() {
                    cap.control(avg, self.top_idx);
                }
            }
        }
        timeline.evict(SimTime(now.0.saturating_sub(longest.0)));
    }

    fn step_inner(
        &mut self,
        node: usize,
        now: SimTime,
        dt: SimDuration,
        mix_id: usize,
        active_cores: usize,
        hold_climb: bool,
    ) -> StepOutput {
        let row = if self.counting {
            None
        } else {
            self.enter_substep(node, now, dt, hold_climb)
        };
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
                // RAPL bookkeeping + one control action, as in
                // `Package::step`.
                if let (Some(cap), Some(win)) =
                    (&mut self.pkgs.caps[lane], &mut self.pkgs.windows[lane])
                {
                    win.record(now, p_w);
                    let avg = win.average_w(now + dt);
                    if !hold_climb || avg > cap.cap_w() {
                        cap.control(avg, self.top_idx);
                    }
                }
            } else if let Some(row) = row {
                self.timeline.power[row + lane] = p_w;
            }
            throttled |= l.throttling;
            work += w;
            power += p_w;
            freq += c.freq_ghz;
        }
        self.energy_j[node] += power * tick.dt_s;
        StepOutput {
            work: work / n_packages as f64,
            power_w: power,
            effective_freq_ghz: freq / n_packages as f64,
            throttled,
        }
    }
}

/// A registered mix's key: its four weights' bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MixKey([u64; 4]);

impl Hash for MixKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.0 {
            state.write_u64(word);
        }
    }
}

/// The mix index's hasher: a fixed multiply-rotate fold of the key's words
/// with a SplitMix64 finish, so weights whose low mantissa bits are all
/// zero still spread across buckets. Cheaper than the std map's keyed
/// SipHash, which buys a flooding resistance four trusted weights do not
/// need.
#[derive(Debug, Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every lane's window average on the shared timeline equals its
        /// own [`RaplWindow::average_w`] bit for bit, through sub-steps from
        /// 1 µs to 250 ms (log-uniform), windows of 1, 10 and 100 ms, and a
        /// lane whose window starts late (a cap set after `t = 0`, which
        /// zeroes the lane's kept history).
        #[test]
        fn timeline_averages_match_rapl_windows_bitwise(
            steps in proptest::collection::vec(
                (0.0f64..5.4, 0.0f64..400.0, 0.0f64..400.0, 0.0f64..400.0),
                1..200,
            ),
            late in 0u32..200,
        ) {
            let windows = [1, 10, 100].map(SimDuration::from_millis);
            let fresh = |t: SimTime| {
                windows.map(|w| {
                    let mut win = RaplWindow::new(w);
                    win.record(t, 0.0);
                    Some(win)
                })
            };
            let mut timeline = Timeline::default();
            timeline.clear(3);
            // Lanes 0 and 1 are capped from t = 0, lane 2 from sub-step `late`.
            let mut rapl = [fresh(SimTime::ZERO), fresh(SimTime::ZERO), [None, None, None]];
            let mut t = SimTime::ZERO;
            for (k, &(exp, p0, p1, p2)) in steps.iter().enumerate() {
                if k == late as usize {
                    timeline.restart(2);
                    rapl[2] = fresh(t);
                }
                let dt = SimDuration::from_micros(10f64.powf(exp).round().max(1.0) as u64);
                let row = timeline.open(t);
                for (lane, p) in [p0, p1, p2].into_iter().enumerate() {
                    timeline.power[row + lane] = p;
                    for win in rapl[lane].iter_mut().flatten() {
                        win.record(t, p);
                    }
                }
                timeline.seal(dt.as_secs_f64());
                let now = t + dt;
                for (w, window) in windows.into_iter().enumerate() {
                    let span_s = timeline.window_energies(now, window, window.as_secs_f64());
                    for (lane, wins) in rapl.iter().enumerate() {
                        if let Some(win) = &wins[w] {
                            proptest::prop_assert_eq!(
                                (timeline.acc[lane] / span_s).to_bits(),
                                win.average_w(now).to_bits(),
                                "lane {} window {:?} after sub-step {}", lane, window, k
                            );
                        }
                    }
                }
                timeline.evict(SimTime(now.0.saturating_sub(windows[2].0)));
                t = now;
            }
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
