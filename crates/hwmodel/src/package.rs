//! A processor package (socket): cores + uncore + DRAM channels, with DVFS,
//! duty-cycle modulation, RAPL capping, thermals and performance counters.

use crate::cap::{PowerCap, RaplWindow};
use crate::phase::{PhaseKind, PhaseMix, SpeedModel};
use crate::power::PowerModel;
use crate::pstate::{DutyCycle, FreqLadder, PStateTable};
use crate::thermal::ThermalModel;
use crate::variation::VariationFactors;
use pstack_sim::{SimDuration, SimTime};
use pstack_telemetry::counters::ALL_COUNTERS;
use pstack_telemetry::CounterBank;
use serde::{Deserialize, Serialize};

/// Static configuration of a package.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackageConfig {
    /// Number of cores.
    pub n_cores: usize,
    /// Core P-state table.
    pub pstates: PStateTable,
    /// Uncore frequency ladder.
    pub uncore: FreqLadder,
    /// Power model parameters.
    pub power: PowerModel,
    /// Speed model parameters.
    pub speed: SpeedModel,
}

impl PackageConfig {
    /// Server default: 24 cores, 1.0–3.5 GHz core, 1.2–2.8 GHz uncore.
    pub fn server_default() -> Self {
        PackageConfig {
            n_cores: 24,
            pstates: PStateTable::server_default(),
            uncore: FreqLadder::linear(1.2, 2.8, 9),
            power: PowerModel::server_default(),
            speed: SpeedModel::server_default(),
        }
    }
}

/// Result of advancing a package one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackageStep {
    /// Relative work completed (speed × seconds; 1.0/s at reference config).
    pub work: f64,
    /// Average power over the step, watts (package + DRAM).
    pub power_w: f64,
    /// Effective core frequency used, GHz (after cap/thermal clamps).
    pub effective_freq_ghz: f64,
    /// Whether the thermal throttle was engaged during the step.
    pub throttled: bool,
}

/// Dynamic state of one package.
///
/// The dynamic fields are visible to the crate so that
/// [`NodeBatch`](crate::batch::NodeBatch) can move a package's state into
/// its lanes and back.
#[derive(Debug, Clone)]
pub struct Package {
    cfg: PackageConfig,
    pub(crate) variation: VariationFactors,
    pub(crate) thermal: ThermalModel,
    /// Requested P-state index (the DVFS knob).
    pub(crate) pstate_req: usize,
    /// Uncore frequency index (the UFS knob).
    pub(crate) uncore_idx: usize,
    /// Duty-cycle modulation (the clock-modulation knob).
    pub(crate) duty: DutyCycle,
    /// Optional RAPL cap + its measurement window.
    pub(crate) cap: Option<(PowerCap, RaplWindow)>,
    pub(crate) counters: CounterBank,
    /// Energy consumed so far, joules.
    pub(crate) energy_j: f64,
}

impl Package {
    /// Build a package with the given variation factors, at the top P-state.
    pub fn new(cfg: PackageConfig, variation: VariationFactors) -> Self {
        let pstate_req = cfg.pstates.top_idx();
        let uncore_idx = cfg.uncore.top_idx();
        Package {
            cfg,
            variation,
            thermal: ThermalModel::server_default(),
            pstate_req,
            uncore_idx,
            duty: DutyCycle::FULL,
            cap: None,
            counters: CounterBank::new(),
            energy_j: 0.0,
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &PackageConfig {
        &self.cfg
    }

    /// This package's manufacturing-variation factors.
    pub fn variation(&self) -> VariationFactors {
        self.variation
    }

    // ---- knobs (paper Table 1, node layer) ----

    /// Request a P-state by index (clamped to the table).
    pub fn set_pstate(&mut self, idx: usize) {
        self.pstate_req = idx.min(self.cfg.pstates.top_idx());
    }

    /// Request the highest P-state at or below `f_ghz`.
    pub fn set_freq_ghz(&mut self, f_ghz: f64) {
        self.pstate_req = self.cfg.pstates.ladder().index_at_or_below(f_ghz);
    }

    /// Requested P-state index.
    pub fn pstate(&self) -> usize {
        self.pstate_req
    }

    /// Set the uncore frequency by ladder index (clamped).
    pub fn set_uncore_idx(&mut self, idx: usize) {
        self.uncore_idx = idx.min(self.cfg.uncore.top_idx());
    }

    /// Current uncore frequency, GHz.
    pub fn uncore_ghz(&self) -> f64 {
        self.cfg.uncore.freq(self.uncore_idx)
    }

    /// Set duty-cycle modulation.
    pub fn set_duty(&mut self, duty: DutyCycle) {
        self.duty = duty;
    }

    /// Current duty cycle.
    pub fn duty(&self) -> DutyCycle {
        self.duty
    }

    /// Apply a RAPL-style package power cap (PKG+DRAM domain).
    pub fn set_power_cap(&mut self, now: SimTime, cap_w: f64, window: SimDuration) {
        match &mut self.cap {
            Some((cap, _)) if cap.window() == window => cap.set_cap_w(cap_w),
            _ => {
                let mut win = RaplWindow::new(window);
                win.record(now, 0.0);
                self.cap = Some((
                    PowerCap::new(cap_w, window, self.cfg.pstates.top_idx()),
                    win,
                ));
            }
        }
    }

    /// Remove the power cap.
    pub fn clear_power_cap(&mut self) {
        self.cap = None;
    }

    /// The active cap in watts, if any.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.cap.as_ref().map(|(c, _)| c.cap_w())
    }

    // ---- telemetry ----

    /// Junction temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// Change the package's ambient (inlet) temperature.
    pub fn set_ambient_c(&mut self, t_ambient: f64) {
        self.thermal.set_ambient_c(t_ambient);
    }

    /// Total energy consumed, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Performance counters.
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// The effective P-state after cap and thermal clamps.
    pub fn effective_pstate(&self) -> usize {
        let mut idx = self.pstate_req;
        if let Some((cap, _)) = &self.cap {
            idx = idx.min(cap.allowed_idx());
        }
        if self.thermal.is_throttling() {
            idx = 0;
        }
        idx
    }

    /// Work rate (work units per second) the package achieves running `mix`
    /// on `active_cores` at the current effective configuration. Matches
    /// exactly what [`Package::step`] would complete per second.
    pub fn work_rate(&self, mix: &PhaseMix, active_cores: usize) -> f64 {
        let idx = self.effective_pstate();
        let active = active_cores.min(self.cfg.n_cores);
        let speed = self.cfg.speed.speed(
            mix,
            self.cfg.pstates.freq(idx),
            self.uncore_ghz(),
            self.duty,
        );
        speed * active as f64 / self.cfg.n_cores as f64
    }

    /// Instantaneous power (W) the package would draw running `mix` on
    /// `active_cores` at the current effective configuration.
    pub fn power_w(&self, mix: &PhaseMix, active_cores: usize) -> f64 {
        let idx = self.effective_pstate();
        let active = active_cores.min(self.cfg.n_cores);
        let speed = self.cfg.speed.speed(
            mix,
            self.cfg.pstates.freq(idx),
            self.uncore_ghz(),
            self.duty,
        );
        self.power_at(mix, active, idx, speed)
    }

    /// Power drawn at effective P-state `idx` and relative `speed`.
    fn power_at(&self, mix: &PhaseMix, active: usize, idx: usize, speed: f64) -> f64 {
        let core_dyn =
            self.cfg
                .power
                .core_dynamic_w(&self.cfg.pstates, idx, self.duty, active, mix)
                * self.variation.dynamic;
        let leak = self.cfg.power.leakage_w(self.thermal.temperature_c()) * self.variation.leakage;
        let uncore = self.cfg.power.uncore_w(self.uncore_ghz());
        let dram = self.cfg.power.dram_w(mix, speed);
        core_dyn + leak + uncore + dram
    }

    /// Advance the package by `dt`, running `mix` on `active_cores`.
    ///
    /// Runs the cap controller, integrates energy and thermals, updates the
    /// counters, and returns the step summary.
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        mix: &PhaseMix,
        active_cores: usize,
    ) -> PackageStep {
        self.step_checked(now, dt, mix, active_cores).0
    }

    /// [`Package::step`], also reporting whether the package is *settled*:
    /// the step left its temperature bits and throttle latch unchanged and
    /// no cap is active. A settled package's next step of the same `dt`,
    /// `mix` and `active_cores` computes the same increments again.
    pub(crate) fn step_checked(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        mix: &PhaseMix,
        active_cores: usize,
    ) -> (PackageStep, bool) {
        let inc = self.increments(dt, mix, active_cores);
        let settled = self.advance(now, dt, inc.power_w);
        self.apply(&inc, 1);
        let step = PackageStep {
            work: inc.work,
            power_w: inc.power_w,
            effective_freq_ghz: inc.freq_ghz,
            throttled: self.thermal.is_throttling(),
        };
        (step, settled)
    }

    /// Apply `n` more steps of a settled package (see
    /// [`Package::step_checked`]). Its state no longer changes, so every
    /// step adds the increments computed from it now.
    pub(crate) fn repeat_settled(
        &mut self,
        dt: SimDuration,
        mix: &PhaseMix,
        active_cores: usize,
        n: u64,
    ) {
        let inc = self.increments(dt, mix, active_cores);
        self.apply(&inc, n);
    }

    /// What a step of `dt` running `mix` on `active_cores` adds to the
    /// package's accumulators, computed from the state at its start.
    fn increments(&self, dt: SimDuration, mix: &PhaseMix, active_cores: usize) -> StepIncrements {
        let active = active_cores.min(self.cfg.n_cores);
        let idx = self.effective_pstate();
        let f = self.cfg.pstates.freq(idx);
        let speed = self.cfg.speed.speed(mix, f, self.uncore_ghz(), self.duty);
        let power_w = self.power_at(mix, active, idx, speed);
        let dt_s = dt.as_secs_f64();
        let dt_us = dt.as_micros() as f64;
        // Work is scaled by active-core share so that a half-busy package
        // does half the work of a full one.
        let share = active as f64 / self.cfg.n_cores as f64;
        let work = speed * dt_s * share;
        StepIncrements {
            work,
            power_w,
            freq_ghz: f,
            energy_j: power_w * dt_s,
            counters: [
                // Instructions, Cycles, Flops, MemBytes.
                work * mix.blend(PhaseKind::instructions_per_work),
                f * 1e9 * dt_s * self.duty.fraction() * share,
                work * mix.blend(PhaseKind::flops_per_work),
                work * mix.blend(PhaseKind::mem_intensity) * 1e9,
                // MpiTimeUs, MpiWaitUs, IoTimeUs, Progress.
                mix.weight(PhaseKind::CommBound) * dt_us,
                0.8 * mix.weight(PhaseKind::CommBound) * dt_us,
                mix.weight(PhaseKind::IoBound) * dt_us,
                work,
            ],
        }
    }

    /// Integrate thermals and run the RAPL controller over a step that
    /// draws `power_w`. Returns whether the package is settled (see
    /// [`Package::step_checked`]); a cap never settles, because its window
    /// records every step.
    fn advance(&mut self, now: SimTime, dt: SimDuration, power_w: f64) -> bool {
        let thermal_bits = |th: &ThermalModel| (th.temperature_c().to_bits(), th.is_throttling());
        let before = thermal_bits(&self.thermal);
        self.thermal.advance(power_w, dt.as_secs_f64());
        let top = self.cfg.pstates.top_idx();
        if let Some((cap, win)) = &mut self.cap {
            win.record(now, power_w);
            let end = now + dt;
            let avg = win.average_w(end);
            cap.control(avg, top);
            return false;
        }
        before == thermal_bits(&self.thermal)
    }

    /// Add one step's increments to the energy and counter accumulators
    /// `times` times over, one addition per accumulator per step.
    fn apply(&mut self, inc: &StepIncrements, times: u64) {
        for _ in 0..times {
            self.energy_j += inc.energy_j;
        }
        self.counters.add_all(&inc.counters, times);
    }
}

/// What one package step adds to its accumulators.
#[derive(Debug, Clone, Copy)]
struct StepIncrements {
    work: f64,
    power_w: f64,
    freq_ghz: f64,
    energy_j: f64,
    /// Counter increments in [`ALL_COUNTERS`] order.
    counters: [f64; ALL_COUNTERS.len()],
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_telemetry::CounterKind;

    fn pkg() -> Package {
        Package::new(PackageConfig::server_default(), VariationFactors::NOMINAL)
    }

    fn compute() -> PhaseMix {
        PhaseMix::pure(PhaseKind::ComputeBound)
    }

    #[test]
    fn step_does_work_and_draws_power() {
        let mut p = pkg();
        let out = p.step(SimTime::ZERO, SimDuration::from_secs(1), &compute(), 24);
        assert!(out.work > 0.0);
        assert!(
            out.power_w > 50.0 && out.power_w < 300.0,
            "P={}",
            out.power_w
        );
        assert!((p.energy_j() - out.power_w).abs() < 1e-9, "E = P·1s");
    }

    #[test]
    fn lower_pstate_less_power_less_work() {
        let mut hi = pkg();
        let mut lo = pkg();
        lo.set_pstate(0);
        let oh = hi.step(SimTime::ZERO, SimDuration::from_secs(1), &compute(), 24);
        let ol = lo.step(SimTime::ZERO, SimDuration::from_secs(1), &compute(), 24);
        assert!(ol.power_w < oh.power_w);
        assert!(ol.work < oh.work);
        assert!(ol.effective_freq_ghz < oh.effective_freq_ghz);
    }

    #[test]
    fn set_freq_ghz_clamps_to_ladder() {
        let mut p = pkg();
        p.set_freq_ghz(2.4);
        assert!((p.config().pstates.freq(p.pstate()) - 2.4).abs() < 1e-9);
        p.set_freq_ghz(99.0);
        assert_eq!(p.pstate(), p.config().pstates.top_idx());
        p.set_freq_ghz(0.1);
        assert_eq!(p.pstate(), 0);
    }

    #[test]
    fn power_cap_enforced_over_time() {
        let mut p = pkg();
        let cap_w = 100.0;
        p.set_power_cap(SimTime::ZERO, cap_w, SimDuration::from_millis(10));
        let mut t = SimTime::ZERO;
        let dt = SimDuration::from_millis(10);
        // Let the controller settle, then measure.
        for _ in 0..100 {
            p.step(t, dt, &compute(), 24);
            t += dt;
        }
        let e0 = p.energy_j();
        let t0 = t;
        for _ in 0..100 {
            p.step(t, dt, &compute(), 24);
            t += dt;
        }
        let avg = (p.energy_j() - e0) / t.since(t0).as_secs_f64();
        assert!(
            avg <= cap_w * 1.05,
            "settled average {avg} exceeds cap {cap_w}"
        );
        assert!(avg > cap_w * 0.7, "cap overly conservative: {avg}");
    }

    #[test]
    fn cap_reduces_work_rate() {
        let dt = SimDuration::from_millis(10);
        let run = |cap: Option<f64>| {
            let mut p = pkg();
            if let Some(c) = cap {
                p.set_power_cap(SimTime::ZERO, c, SimDuration::from_millis(10));
            }
            let mut t = SimTime::ZERO;
            let mut work = 0.0;
            for _ in 0..200 {
                work += p.step(t, dt, &compute(), 24).work;
                t += dt;
            }
            work
        };
        let free = run(None);
        let capped = run(Some(90.0));
        assert!(
            capped < free,
            "cap must cost performance: {capped} vs {free}"
        );
        assert!(capped > 0.3 * free, "cap should not stall the package");
    }

    #[test]
    fn clearing_cap_restores_performance() {
        let mut p = pkg();
        p.set_power_cap(SimTime::ZERO, 80.0, SimDuration::from_millis(10));
        let dt = SimDuration::from_millis(10);
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            p.step(t, dt, &compute(), 24);
            t += dt;
        }
        assert!(p.effective_pstate() < p.config().pstates.top_idx());
        p.clear_power_cap();
        assert_eq!(p.effective_pstate(), p.config().pstates.top_idx());
    }

    #[test]
    fn variation_shifts_power_not_speed() {
        let hot = Package::new(
            PackageConfig::server_default(),
            VariationFactors {
                dynamic: 1.1,
                leakage: 1.3,
            },
        );
        let nominal = pkg();
        let mix = compute();
        let p_hot = hot.power_w(&mix, 24);
        let p_nom = nominal.power_w(&mix, 24);
        assert!(p_hot > p_nom * 1.05, "{p_hot} vs {p_nom}");
    }

    #[test]
    fn idle_cores_cost_less() {
        let p = pkg();
        let mix = compute();
        assert!(p.power_w(&mix, 4) < p.power_w(&mix, 24));
    }

    #[test]
    fn counters_progress_matches_work() {
        let mut p = pkg();
        let mut total = 0.0;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            total += p
                .step(t, SimDuration::from_millis(100), &compute(), 24)
                .work;
            t += SimDuration::from_millis(100);
        }
        assert!((p.counters().get(CounterKind::Progress) - total).abs() < 1e-9);
    }

    #[test]
    fn ipc_drops_when_memory_bound_at_high_freq() {
        // Memory-bound work at top frequency wastes cycles → lower IPC than
        // at mid frequency. This is the signal frequency-map agents use.
        let mem = PhaseMix::pure(PhaseKind::MemoryBound);
        let dt = SimDuration::from_secs(1);
        let ipc_at = |idx: usize| {
            let mut p = pkg();
            p.set_pstate(idx);
            let s0 = p.counters().snapshot();
            p.step(SimTime::ZERO, dt, &mem, 24);
            p.counters().snapshot().since(&s0).ipc()
        };
        let top = PStateTable::server_default().top_idx();
        assert!(ipc_at(0) > ipc_at(top));
    }
}
