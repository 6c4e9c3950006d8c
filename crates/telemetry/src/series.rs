//! Time series of samples with windowed statistics and exact integration.

use crate::metric::Sample;
use pstack_sim::{SimDuration, SimTime};

/// An append-only, time-ordered series of samples.
///
/// The value is treated as a **step function**: a sample's value holds from its
/// timestamp until the next sample. This matches how the simulator produces
/// telemetry (state changes at discrete events) and makes `∫ value dt` exact.
/// Unbounded by default; see [`TimeSeries::set_bound`] for the fleet-scale
/// ring mode that retains only recent samples while keeping full-range
/// integrals exact.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    /// Retain at least this many most-recent samples (`None` = keep all).
    bound: Option<usize>,
    /// First-ever sample time (survives eviction).
    origin: Option<SimTime>,
    /// Samples evicted so far.
    evicted: u64,
    /// Exact step integral over the evicted prefix `[origin, boundary)`,
    /// accumulated in push order so a full-range [`TimeSeries::integrate`]
    /// stays bit-identical to the unbounded series.
    evicted_integral: f64,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Empty series with preallocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            samples: Vec::with_capacity(n),
            ..TimeSeries::default()
        }
    }

    /// Empty series retaining at least the `bound` most recent samples.
    pub fn bounded(bound: usize) -> Self {
        let mut ts = TimeSeries::new();
        ts.set_bound(Some(bound));
        ts
    }

    /// Bound (or unbound) the retained window: at least the `bound` most
    /// recent samples are kept, older ones are folded into the exact
    /// evicted-prefix integral. Full-range integrals and means (windows
    /// starting at or before the first-ever sample) remain exact — bit for
    /// bit what the unbounded series would return; windowed queries must not
    /// reach into the evicted prefix. Fleet-scale runs use this to hold
    /// per-node telemetry at O(bound) instead of O(simulated time).
    pub fn set_bound(&mut self, bound: Option<usize>) {
        if let Some(b) = bound {
            assert!(b >= 2, "bound must retain at least 2 samples");
        }
        self.bound = bound;
        self.evict_excess();
    }

    /// Samples evicted into the prefix integral so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `time` precedes the last appended sample — series are
    /// time-ordered by construction.
    #[inline]
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.samples.last() {
            assert!(
                time >= last.time,
                "out-of-order sample: {:?} < {:?}",
                time,
                last.time
            );
        }
        if self.origin.is_none() {
            self.origin = Some(time);
        }
        self.samples.push(Sample { time, value });
        self.evict_excess();
    }

    /// Fold the oldest samples into the evicted-prefix integral once the
    /// buffer holds twice the bound (amortized O(1) per push; the retained
    /// window floats between `bound` and `2*bound` samples).
    fn evict_excess(&mut self) {
        let Some(bound) = self.bound else { return };
        if self.samples.len() < bound.saturating_mul(2) {
            return;
        }
        let k = self.samples.len() - bound;
        for i in 0..k {
            let step = self.samples[i + 1].time.since(self.samples[i].time);
            self.evicted_integral += self.samples[i].value * step.as_secs_f64();
        }
        self.samples.drain(..k);
        self.evicted += k as u64;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Step-function value at time `t`: the value of the latest sample at or
    /// before `t`, or `None` before the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|s| s.time.cmp(&t)) {
            Ok(mut i) => {
                // Multiple samples may share a timestamp; take the last one.
                while i + 1 < self.samples.len() && self.samples[i + 1].time == t {
                    i += 1;
                }
                Some(self.samples[i].value)
            }
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].value),
        }
    }

    /// Exact step-function integral of the series over `[from, to]`.
    ///
    /// For a power series in watts this is the energy in joules. The value
    /// before the first sample is taken as 0; the last sample's value holds
    /// until `to`.
    ///
    /// On a bounded series, windows starting at or before the first-ever
    /// sample include the evicted-prefix carry and return exactly (bit for
    /// bit) what the unbounded series would; windows that start or end
    /// strictly inside the evicted prefix panic rather than answer wrong.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.samples.is_empty() {
            return 0.0;
        }
        if self.evicted > 0 {
            let boundary = self.samples[0].time;
            let origin = self.origin.expect("evicted implies a first sample");
            assert!(
                to >= boundary,
                "integration window ends inside evicted history"
            );
            if from <= origin {
                return self.fold_retained(boundary, to, self.evicted_integral);
            }
            assert!(
                from >= boundary,
                "integration window starts inside evicted history"
            );
        }
        self.fold_retained(from, to, 0.0)
    }

    /// Left-fold of the retained step integral over `[from, to]` starting
    /// from `init` — the same accumulation order as an unbounded series, so
    /// the bounded result is bit-identical, not merely close.
    fn fold_retained(&self, from: SimTime, to: SimTime, init: f64) -> f64 {
        let mut total = init;
        let mut prev_t = from;
        let mut prev_v = self.value_at(from).unwrap_or(0.0);
        for s in &self.samples {
            if s.time <= from {
                continue;
            }
            if s.time >= to {
                break;
            }
            total += prev_v * s.time.since(prev_t).as_secs_f64();
            prev_t = s.time;
            prev_v = s.value;
        }
        total += prev_v * to.since(prev_t).as_secs_f64();
        total
    }

    /// Time-weighted mean over `[from, to]` (step-function semantics).
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.integrate(from, to) / span
    }

    /// Maximum sampled value within `[from, to]`, including the step value
    /// carried into the window. `None` if the window precedes all samples.
    pub fn max_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut best: Option<f64> = self.value_at(from);
        for s in &self.samples {
            if s.time > from && s.time <= to {
                best = Some(best.map_or(s.value, |b| b.max(s.value)));
            }
        }
        best
    }

    /// Minimum sampled value within `[from, to]` (see [`TimeSeries::max_in`]).
    pub fn min_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut best: Option<f64> = self.value_at(from);
        for s in &self.samples {
            if s.time > from && s.time <= to {
                best = Some(best.map_or(s.value, |b| b.min(s.value)));
            }
        }
        best
    }

    /// Resample the step function at fixed `period` over `[from, to]`,
    /// returning `(time, value)` pairs — used to render figure series.
    pub fn resample(&self, from: SimTime, to: SimTime, period: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!period.is_zero(), "resample period must be positive");
        let mut out = Vec::new();
        let mut t = from;
        while t <= to {
            out.push((t, self.value_at(t).unwrap_or(0.0)));
            match t.checked_add(period) {
                Some(next) => t = next,
                None => break,
            }
        }
        out
    }

    /// Fraction of `[from, to]` during which the value exceeded `threshold`.
    pub fn fraction_above(&self, from: SimTime, to: SimTime, threshold: f64) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let mut above = 0.0;
        let mut prev_t = from;
        let mut prev_v = self.value_at(from).unwrap_or(0.0);
        for s in &self.samples {
            if s.time <= from {
                continue;
            }
            if s.time >= to {
                break;
            }
            if prev_v > threshold {
                above += s.time.since(prev_t).as_secs_f64();
            }
            prev_t = s.time;
            prev_v = s.value;
        }
        if prev_v > threshold {
            above += to.since(prev_t).as_secs_f64();
        }
        above / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: u64) -> SimTime {
        SimTime::from_secs(t)
    }

    #[test]
    fn value_at_step_semantics() {
        let mut ts = TimeSeries::new();
        ts.push(s(1), 10.0);
        ts.push(s(3), 20.0);
        assert_eq!(ts.value_at(s(0)), None);
        assert_eq!(ts.value_at(s(1)), Some(10.0));
        assert_eq!(ts.value_at(s(2)), Some(10.0));
        assert_eq!(ts.value_at(s(3)), Some(20.0));
        assert_eq!(ts.value_at(s(99)), Some(20.0));
    }

    #[test]
    fn duplicate_timestamp_takes_last() {
        let mut ts = TimeSeries::new();
        ts.push(s(1), 10.0);
        ts.push(s(1), 15.0);
        assert_eq!(ts.value_at(s(1)), Some(15.0));
    }

    #[test]
    fn integration_exact_for_steps() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 100.0); // 100 W for 10 s = 1000 J
        ts.push(s(10), 200.0); // 200 W for 5 s = 1000 J
        assert!((ts.integrate(s(0), s(15)) - 2000.0).abs() < 1e-9);
        // Partial windows.
        assert!((ts.integrate(s(5), s(12)) - (5.0 * 100.0 + 2.0 * 200.0)).abs() < 1e-9);
    }

    #[test]
    fn integration_before_first_sample_is_zero() {
        let mut ts = TimeSeries::new();
        ts.push(s(10), 50.0);
        assert_eq!(ts.integrate(s(0), s(10)), 0.0);
        assert!((ts.integrate(s(0), s(12)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_is_time_weighted() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 0.0);
        ts.push(s(9), 100.0); // 0 for 9 s, 100 for 1 s
        assert!((ts.mean(s(0), s(10)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_include_carried_value() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 5.0);
        ts.push(s(10), 1.0);
        // Window (2, 4): only the carried value 5.0 applies.
        assert_eq!(ts.max_in(s(2), s(4)), Some(5.0));
        assert_eq!(ts.min_in(s(2), s(4)), Some(5.0));
        assert_eq!(ts.max_in(s(2), s(12)), Some(5.0));
        assert_eq!(ts.min_in(s(2), s(12)), Some(1.0));
    }

    #[test]
    fn resample_grid() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 1.0);
        ts.push(s(5), 2.0);
        let grid = ts.resample(s(0), s(8), SimDuration::from_secs(2));
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0].1, 1.0);
        assert_eq!(grid[2].1, 1.0); // t=4
        assert_eq!(grid[3].1, 2.0); // t=6
    }

    #[test]
    fn fraction_above_threshold() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 100.0);
        ts.push(s(4), 300.0);
        ts.push(s(6), 100.0);
        let f = ts.fraction_above(s(0), s(10), 200.0);
        assert!((f - 0.2).abs() < 1e-9, "got {f}");
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(s(5), 1.0);
        ts.push(s(4), 1.0);
    }

    #[test]
    fn bounded_series_full_range_integral_is_bit_identical() {
        let mut full = TimeSeries::new();
        let mut ring = TimeSeries::bounded(8);
        for i in 0..1000u64 {
            let v = (i as f64 * 0.37).sin() * 100.0 + 150.0;
            full.push(s(i), v);
            ring.push(s(i), v);
        }
        assert!(ring.evicted() > 0, "eviction must have occurred");
        assert!(ring.len() <= 16, "retained window stays bounded");
        let a = full.integrate(s(0), s(1500));
        let b = ring.integrate(s(0), s(1500));
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        assert_eq!(
            full.mean(s(0), s(1000)).to_bits(),
            ring.mean(s(0), s(1000)).to_bits()
        );
    }

    #[test]
    fn bounded_series_recent_window_queries_still_work() {
        let mut ring = TimeSeries::bounded(4);
        for i in 0..100u64 {
            ring.push(s(i), i as f64);
        }
        let boundary = ring.samples()[0].time;
        assert!(boundary > s(0));
        // Recent windows behave exactly as before.
        assert_eq!(ring.value_at(s(99)), Some(99.0));
        assert!((ring.integrate(s(98), s(99)) - 98.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "starts inside evicted history")]
    fn bounded_series_rejects_window_into_evicted_prefix() {
        let mut ring = TimeSeries::bounded(4);
        for i in 0..100u64 {
            ring.push(s(i), 1.0);
        }
        // Starts after the origin but before the retained boundary.
        let _ = ring.integrate(s(5), s(99));
    }

    #[test]
    fn unbounded_series_never_evicts() {
        let mut ts = TimeSeries::new();
        for i in 0..100u64 {
            ts.push(s(i), 1.0);
        }
        assert_eq!(ts.evicted(), 0);
        assert_eq!(ts.len(), 100);
    }

    #[test]
    fn empty_series_behaviour() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.value_at(s(0)), None);
        assert_eq!(ts.integrate(s(0), s(10)), 0.0);
        assert_eq!(ts.max_in(s(0), s(10)), None);
    }
}
