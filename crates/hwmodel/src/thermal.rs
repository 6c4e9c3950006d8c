//! Lumped-RC package thermal model with Tj_max throttling.
//!
//! ```text
//! C_th · dT/dt = P − (T − T_amb)/R_th
//! ```
//!
//! Integrated exactly over each step (the ODE is linear, so the exponential
//! solution is closed-form), which keeps long steps stable. Crossing `t_throttle`
//! engages thermal throttling; the package layer then clamps the P-state.

use serde::{Deserialize, Serialize};

/// Lumped thermal parameters of one package + heatsink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Thermal resistance junction→ambient, °C/W.
    pub r_th: f64,
    /// Thermal capacitance, J/°C.
    pub c_th: f64,
    /// Ambient (inlet) temperature, °C.
    pub t_ambient: f64,
    /// Throttle threshold, °C.
    pub t_throttle: f64,
    /// Hysteresis: throttling releases below `t_throttle - hysteresis`.
    pub hysteresis: f64,
    /// Current junction temperature, °C.
    pub(crate) t_now: f64,
    /// Whether the package is currently throttling.
    pub(crate) throttling: bool,
}

impl ThermalModel {
    /// Server default: R=0.25 °C/W, C=120 J/°C, 25 °C inlet, throttle at 95 °C.
    ///
    /// Steady state at 160 W is 25 + 40 = 65 °C; it takes sustained high power
    /// plus warm inlet (or a bad-variation chip) to throttle — matching how
    /// rarely production nodes throttle.
    pub fn server_default() -> Self {
        ThermalModel::new(0.25, 120.0, 25.0, 95.0, 5.0)
    }

    /// Build a model starting at ambient temperature.
    ///
    /// # Panics
    /// Panics on non-positive R/C or a throttle point at/below ambient.
    pub fn new(r_th: f64, c_th: f64, t_ambient: f64, t_throttle: f64, hysteresis: f64) -> Self {
        assert!(r_th > 0.0 && c_th > 0.0, "R and C must be positive");
        assert!(t_throttle > t_ambient, "throttle point must exceed ambient");
        assert!(hysteresis >= 0.0, "hysteresis must be non-negative");
        ThermalModel {
            r_th,
            c_th,
            t_ambient,
            t_throttle,
            hysteresis,
            t_now: t_ambient,
            throttling: false,
        }
    }

    /// Current junction temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.t_now
    }

    /// Whether thermal throttling is currently engaged.
    pub fn is_throttling(&self) -> bool {
        self.throttling
    }

    /// Steady-state temperature at constant power `p_w`.
    pub fn steady_state_c(&self, p_w: f64) -> f64 {
        self.t_ambient + p_w * self.r_th
    }

    /// Advance the thermal state by `dt_s` seconds at constant power `p_w`,
    /// using the exact exponential solution. Updates the throttle latch.
    pub fn advance(&mut self, p_w: f64, dt_s: f64) {
        assert!(dt_s >= 0.0, "time step must be non-negative");
        assert!(p_w >= 0.0, "power must be non-negative");
        let t_inf = self.steady_state_c(p_w);
        let tau = self.r_th * self.c_th;
        let decay = (-dt_s / tau).exp();
        self.t_now = t_inf + (self.t_now - t_inf) * decay;
        if self.t_now >= self.t_throttle {
            self.throttling = true;
        } else if self.t_now <= self.t_throttle - self.hysteresis {
            self.throttling = false;
        }
    }

    /// Reset to ambient, clearing the throttle latch.
    pub fn reset(&mut self) {
        self.t_now = self.t_ambient;
        self.throttling = false;
    }

    /// Change the ambient (inlet) temperature — rack position, cooling
    /// changes. The junction temperature floor moves with it.
    pub fn set_ambient_c(&mut self, t_ambient: f64) {
        assert!(
            t_ambient < self.t_throttle,
            "ambient must stay below the throttle point"
        );
        let delta = t_ambient - self.t_ambient;
        self.t_ambient = t_ambient;
        self.t_now += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient() {
        let th = ThermalModel::server_default();
        assert_eq!(th.temperature_c(), 25.0);
        assert!(!th.is_throttling());
    }

    #[test]
    fn approaches_steady_state() {
        let mut th = ThermalModel::server_default();
        for _ in 0..1000 {
            th.advance(160.0, 1.0);
        }
        let ss = th.steady_state_c(160.0);
        assert!(
            (th.temperature_c() - ss).abs() < 0.01,
            "T={} ss={}",
            th.temperature_c(),
            ss
        );
        assert!((ss - 65.0).abs() < 1e-9);
    }

    #[test]
    fn exact_solution_step_size_invariant() {
        let mut a = ThermalModel::server_default();
        let mut b = ThermalModel::server_default();
        a.advance(200.0, 100.0);
        for _ in 0..1000 {
            b.advance(200.0, 0.1);
        }
        assert!((a.temperature_c() - b.temperature_c()).abs() < 1e-6);
    }

    #[test]
    fn throttles_and_releases_with_hysteresis() {
        // Small C so it heats fast; throttle at 60.
        let mut th = ThermalModel::new(0.25, 10.0, 25.0, 60.0, 5.0);
        while !th.is_throttling() {
            th.advance(300.0, 1.0); // steady state 100 °C — will cross
        }
        assert!(th.temperature_c() >= 60.0);
        // Cooling: must drop below 55 to release.
        th.advance(0.0, 1.0);
        while th.temperature_c() > 55.0 {
            assert!(th.is_throttling(), "hysteresis must hold until 55");
            th.advance(0.0, 1.0);
        }
        th.advance(0.0, 1.0);
        assert!(!th.is_throttling());
    }

    #[test]
    fn cooling_towards_ambient() {
        let mut th = ThermalModel::server_default();
        th.advance(300.0, 60.0);
        let hot = th.temperature_c();
        th.advance(0.0, 600.0);
        assert!(th.temperature_c() < hot);
        assert!((th.temperature_c() - 25.0).abs() < 1.0);
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut th = ThermalModel::server_default();
        th.advance(500.0, 0.0);
        assert_eq!(th.temperature_c(), 25.0);
    }
}
