//! RAPL-style windowed power capping.
//!
//! Real RAPL enforces an *average* power over a configurable time window by
//! internally clipping frequency. [`RaplWindow`] tracks the exact windowed
//! average of a step-function power signal; [`PowerCap`] is the feedback
//! controller that converts "measured average vs. cap" into a maximum
//! allowed P-state index each control interval.
//!
//! The controller is deliberately simple (integer step with proportional
//! descent) and deterministic; it converges to the highest sustainable
//! P-state within a few windows, mirroring observed RAPL behaviour.

use pstack_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sliding-window average of a step-function power signal.
#[derive(Debug, Clone)]
pub struct RaplWindow {
    window: SimDuration,
    /// Step changes `(time, power)`; the first entry may predate the window
    /// to carry the step value into it.
    steps: VecDeque<(SimTime, f64)>,
}

impl RaplWindow {
    /// Create a window of the given length.
    ///
    /// # Panics
    /// Panics on a zero window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "RAPL window must be positive");
        RaplWindow {
            window,
            steps: VecDeque::new(),
        }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Record that power changed to `power_w` at time `now`.
    pub fn record(&mut self, now: SimTime, power_w: f64) {
        assert!(power_w >= 0.0, "power must be non-negative");
        if let Some(&(t, _)) = self.steps.back() {
            assert!(now >= t, "time went backwards");
            if t == now {
                self.steps.pop_back();
            }
        }
        self.steps.push_back((now, power_w));
        self.evict(now);
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = SimTime(now.0.saturating_sub(self.window.0));
        // Keep one entry at/before the cutoff to carry the step value.
        while self.steps.len() >= 2 && self.steps[1].0 <= cutoff {
            self.steps.pop_front();
        }
    }

    /// Exact average power over `[now - window, now]`. Time before the first
    /// recorded step counts as zero power.
    ///
    /// When the window starts at or after the last recorded step, the signal
    /// is flat across it: the walk over the steps is skipped, and the
    /// average is the same two flops the walk ends with, so the bits agree.
    pub fn average_w(&self, now: SimTime) -> f64 {
        let from = SimTime(now.0.saturating_sub(self.window.0));
        let mut energy = 0.0;
        let mut prev_t = from;
        let mut prev_p = 0.0;
        match self.steps.back() {
            // Every step is at or before `from`; the walk would only carry
            // the last one's value to it.
            Some(&(t, p)) if t <= from => prev_p = p,
            _ => {
                for &(t, p) in &self.steps {
                    if t <= from {
                        prev_p = p;
                        continue;
                    }
                    if t >= now {
                        break;
                    }
                    energy += prev_p * t.since(prev_t).as_secs_f64();
                    prev_t = t;
                    prev_p = p;
                }
            }
        }
        energy += prev_p * now.since(prev_t).as_secs_f64();
        let span = now.since(from).as_secs_f64();
        if span <= 0.0 {
            prev_p
        } else {
            energy / span
        }
    }
}

/// Feedback controller enforcing a watts cap via a maximum P-state index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerCap {
    /// The cap in watts.
    cap_w: f64,
    /// Window length for the average (serialized as microseconds).
    window_us: u64,
    /// Current maximum allowed P-state index.
    allowed_idx: usize,
    /// Guard band: raise the allowed index only when the average is below
    /// `cap · (1 − guard)`, preventing limit-cycling at the boundary.
    guard: f64,
    /// Anti-windup latch: the lowest index observed to violate the cap.
    /// The controller will not climb back to it until a probe interval of
    /// calm controls has passed (the plant may have changed).
    bad_floor_idx: Option<usize>,
    /// Consecutive under-budget controls since the last violation.
    calm: u32,
}

impl PowerCap {
    /// Create a cap of `cap_w` watts averaged over `window`, starting with all
    /// P-states allowed up to `top_idx`.
    ///
    /// # Panics
    /// Panics on a non-positive cap or zero window.
    pub fn new(cap_w: f64, window: SimDuration, top_idx: usize) -> Self {
        assert!(cap_w > 0.0, "cap must be positive");
        assert!(!window.is_zero(), "window must be positive");
        PowerCap {
            cap_w,
            window_us: window.as_micros(),
            allowed_idx: top_idx,
            guard: 0.04,
            bad_floor_idx: None,
            calm: 0,
        }
    }

    /// Controls between probes of a latched (previously violating) rung.
    const PROBE_INTERVAL: u32 = 20;

    /// The cap in watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Change the cap (RM power reassignment, §3.1.1 dynamic interaction).
    /// Clears the violation latch: a new cap is a new plant.
    pub fn set_cap_w(&mut self, cap_w: f64) {
        assert!(cap_w > 0.0, "cap must be positive");
        if (cap_w - self.cap_w).abs() > 1e-9 {
            self.bad_floor_idx = None;
            self.calm = 0;
        }
        self.cap_w = cap_w;
    }

    /// The averaging window.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_micros(self.window_us)
    }

    /// The maximum P-state index the cap currently allows.
    pub fn allowed_idx(&self) -> usize {
        self.allowed_idx
    }

    /// One control step: adjust the allowed P-state from the measured
    /// windowed average. Call once per control interval.
    ///
    /// Over-budget: step down proportionally to the overshoot (at least one
    /// rung). Under-budget beyond the guard band: step up one rung.
    pub fn control(&mut self, avg_power_w: f64, top_idx: usize) {
        self.allowed_idx = self.allowed_idx.min(top_idx);
        if avg_power_w > self.cap_w {
            let overshoot = (avg_power_w - self.cap_w) / self.cap_w;
            // Remember the rung that proved unsustainable before dropping.
            self.bad_floor_idx = Some(
                self.bad_floor_idx
                    .map_or(self.allowed_idx, |b| b.min(self.allowed_idx)),
            );
            self.calm = 0;
            // 10% overshoot → drop ~2 rungs on a 26-rung ladder.
            let rungs = 1 + (overshoot * 0.8 * top_idx as f64) as usize;
            self.allowed_idx = self.allowed_idx.saturating_sub(rungs);
        } else if avg_power_w < self.cap_w * (1.0 - self.guard) && self.allowed_idx < top_idx {
            self.calm += 1;
            let next = self.allowed_idx + 1;
            match self.bad_floor_idx {
                // Climbing into known-bad territory: only as a periodic
                // probe (the workload may have become lighter).
                Some(bad) if next >= bad => {
                    if self.calm >= Self::PROBE_INTERVAL {
                        self.bad_floor_idx = None;
                        self.calm = 0;
                        self.allowed_idx = next;
                    }
                }
                _ => self.allowed_idx = next,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The average as a plain walk over every recorded step, with no
    /// flat-window shortcut: the oracle `average_w` must match bit for bit.
    fn walked_average_w(w: &RaplWindow, now: SimTime) -> f64 {
        let from = SimTime(now.0.saturating_sub(w.window.0));
        let mut energy = 0.0;
        let mut prev_t = from;
        let mut prev_p = 0.0;
        for &(t, p) in &w.steps {
            if t <= from {
                prev_p = p;
                continue;
            }
            if t >= now {
                break;
            }
            energy += prev_p * t.since(prev_t).as_secs_f64();
            prev_t = t;
            prev_p = p;
        }
        energy += prev_p * now.since(prev_t).as_secs_f64();
        let span = now.since(from).as_secs_f64();
        if span <= 0.0 {
            prev_p
        } else {
            energy / span
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random step sequences, each followed by queries at the window
        /// edges: `now - window` equal to the last step (the flat case's
        /// boundary), one microsecond either side of it, equal to every
        /// retained step, and an arbitrary later time.
        #[test]
        fn average_w_matches_the_walk(
            window_us in 1u64..3_000_000,
            steps in prop::collection::vec((0u32..4, 0u64..4_000_000, 0u32..8, 0.0f64..500.0), 1..40),
            late_us in 0u64..8_000_000,
        ) {
            let window = SimDuration::from_micros(window_us);
            let mut w = RaplWindow::new(window);
            let mut t = SimTime::ZERO;
            for &(gap_kind, gap_us, power_kind, power) in &steps {
                t += match gap_kind {
                    0 => SimDuration::ZERO,
                    1 => window,
                    _ => SimDuration::from_micros(gap_us),
                };
                let power = match power_kind {
                    0 => 0.0,
                    1 => -0.0,
                    _ => power,
                };
                w.record(t, power);
                let mut queries = vec![
                    SimTime::ZERO,
                    t,
                    t + window,
                    t + window + SimDuration::from_micros(1),
                    t + SimDuration::from_micros(late_us),
                ];
                if window_us > 1 {
                    queries.push(t + (window - SimDuration::from_micros(1)));
                }
                queries.extend(w.steps.iter().map(|&(at, _)| at + window));
                for now in queries {
                    prop_assert_eq!(
                        w.average_w(now).to_bits(),
                        walked_average_w(&w, now).to_bits(),
                        "window {:?}, steps {:?}, now {:?}", window, w.steps, now
                    );
                }
            }
        }
    }

    #[test]
    fn window_average_constant_signal() {
        let mut w = RaplWindow::new(ms(100));
        w.record(SimTime::ZERO, 150.0);
        assert!((w.average_w(SimTime::from_millis(500)) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn window_average_step_signal() {
        let mut w = RaplWindow::new(ms(100));
        w.record(SimTime::ZERO, 100.0);
        w.record(SimTime::from_millis(450), 200.0);
        // At t=500: window [400,500] = 50ms@100 + 50ms@200 = 150 avg.
        assert!((w.average_w(SimTime::from_millis(500)) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn window_forgets_old_history() {
        let mut w = RaplWindow::new(ms(100));
        w.record(SimTime::ZERO, 1000.0);
        w.record(SimTime::from_millis(200), 50.0);
        // At t=400 the 1000 W burst is long outside the window.
        assert!((w.average_w(SimTime::from_millis(400)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn pre_history_counts_as_zero() {
        let mut w = RaplWindow::new(ms(100));
        w.record(SimTime::from_millis(950), 100.0);
        // Window [900,1000]: 50ms of 0 then 50ms of 100.
        assert!((w.average_w(SimTime::from_millis(1000)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn same_time_record_overwrites() {
        let mut w = RaplWindow::new(ms(100));
        w.record(SimTime::ZERO, 100.0);
        w.record(SimTime::ZERO, 300.0);
        assert!((w.average_w(SimTime::from_millis(100)) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn cap_steps_down_on_overshoot() {
        let mut cap = PowerCap::new(100.0, ms(10), 25);
        cap.control(130.0, 25);
        assert!(cap.allowed_idx() < 25);
    }

    #[test]
    fn cap_recovers_under_budget() {
        let mut cap = PowerCap::new(100.0, ms(10), 25);
        cap.control(200.0, 25);
        let low = cap.allowed_idx();
        for _ in 0..50 {
            cap.control(50.0, 25);
        }
        assert!(cap.allowed_idx() > low);
        assert_eq!(cap.allowed_idx(), 25, "fully recovers given headroom");
    }

    #[test]
    fn cap_holds_near_boundary() {
        let mut cap = PowerCap::new(100.0, ms(10), 25);
        cap.control(150.0, 25);
        let idx = cap.allowed_idx();
        // Just inside the guard band: no change either way.
        cap.control(98.0, 25);
        assert_eq!(cap.allowed_idx(), idx);
    }

    #[test]
    fn convergence_against_monotone_plant() {
        // Plant: power = 40 + 6·idx. Cap 100 → sustainable idx = 10.
        let mut cap = PowerCap::new(100.0, ms(10), 25);
        let mut idx = 25;
        for _ in 0..100 {
            let p = 40.0 + 6.0 * idx as f64;
            cap.control(p, 25);
            idx = cap.allowed_idx();
        }
        let final_p = 40.0 + 6.0 * idx as f64;
        assert!(final_p <= 100.0, "converged above cap: {final_p}");
        assert!(idx >= 9, "overly conservative: idx={idx}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_panics() {
        PowerCap::new(0.0, ms(10), 25);
    }
}
