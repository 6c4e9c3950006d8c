//! Hardware-style performance counter bank.
//!
//! Counters are monotone accumulators (instructions retired, cycles, FLOPs,
//! memory bytes, MPI time). Tuners never read absolutes; they read **deltas**
//! between snapshots, exactly like `perf`/PAPI windows on real hardware.

use serde::{Deserialize, Serialize};

/// Counter identities tracked per node/core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterKind {
    /// Instructions retired.
    Instructions,
    /// Core clock cycles elapsed (unhalted).
    Cycles,
    /// Floating-point operations.
    Flops,
    /// Bytes moved to/from DRAM.
    MemBytes,
    /// Microseconds spent inside MPI calls.
    MpiTimeUs,
    /// Microseconds spent waiting inside MPI (slack).
    MpiWaitUs,
    /// Microseconds spent in I/O.
    IoTimeUs,
    /// Application progress units completed (e.g. timesteps × work items).
    Progress,
}

/// All counter kinds, for iteration.
pub const ALL_COUNTERS: [CounterKind; 8] = [
    CounterKind::Instructions,
    CounterKind::Cycles,
    CounterKind::Flops,
    CounterKind::MemBytes,
    CounterKind::MpiTimeUs,
    CounterKind::MpiWaitUs,
    CounterKind::IoTimeUs,
    CounterKind::Progress,
];

/// A monotone counter bank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterBank {
    counts: [f64; ALL_COUNTERS.len()],
}

/// A point-in-time copy of all counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSnapshot {
    counts: [f64; ALL_COUNTERS.len()],
}

/// Difference between two snapshots (end − start).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterDelta {
    counts: [f64; ALL_COUNTERS.len()],
}

fn idx(kind: CounterKind) -> usize {
    ALL_COUNTERS
        .iter()
        .position(|k| *k == kind)
        .expect("kind present in ALL_COUNTERS")
}

/// `amount`, checked to be a valid counter increment.
#[inline]
fn monotone(amount: f64) -> f64 {
    assert!(
        amount.is_finite() && amount >= 0.0,
        "counter increment must be finite and non-negative, got {amount}"
    );
    amount
}

impl CounterBank {
    /// Fresh bank with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `amount` into `kind`.
    ///
    /// # Panics
    /// Panics on negative or non-finite amounts — counters are monotone.
    pub fn add(&mut self, kind: CounterKind, amount: f64) {
        self.counts[idx(kind)] += monotone(amount);
    }

    /// Accumulate one amount into every counter, `amounts` in
    /// [`ALL_COUNTERS`] order, `times` times over: bit for bit the same
    /// additions as `times` rounds of one [`CounterBank::add`] per counter,
    /// with the amounts checked once.
    ///
    /// # Panics
    /// Panics on negative or non-finite amounts — counters are monotone.
    #[inline]
    pub fn add_all(&mut self, amounts: &[f64; ALL_COUNTERS.len()], times: u64) {
        for &amount in amounts {
            monotone(amount);
        }
        for _ in 0..times {
            for (count, &amount) in self.counts.iter_mut().zip(amounts) {
                *count += amount;
            }
        }
    }

    /// Current absolute value of `kind`.
    pub fn get(&self, kind: CounterKind) -> f64 {
        self.counts[idx(kind)]
    }

    /// Every counter's current value, in [`ALL_COUNTERS`] order.
    pub fn values(&self) -> [f64; ALL_COUNTERS.len()] {
        self.counts
    }

    /// A bank holding `values`, in [`ALL_COUNTERS`] order: for a stepper
    /// that accumulates a package's counters in its own storage and hands
    /// them back.
    ///
    /// # Panics
    /// Panics on negative or non-finite values — counters count up from
    /// zero.
    pub fn from_values(values: [f64; ALL_COUNTERS.len()]) -> Self {
        let valid = values
            .iter()
            .fold(true, |ok, &v| ok & (0.0..=f64::MAX).contains(&v));
        assert!(
            valid,
            "counter values must be finite and non-negative, got {values:?}"
        );
        CounterBank { counts: values }
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            counts: self.counts,
        }
    }
}

impl CounterSnapshot {
    /// Absolute value of `kind` at snapshot time.
    pub fn get(&self, kind: CounterKind) -> f64 {
        self.counts[idx(kind)]
    }

    /// Delta from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics (in debug builds) if any counter went backwards, which would
    /// indicate snapshots passed in the wrong order.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterDelta {
        let mut counts = [0.0; ALL_COUNTERS.len()];
        for (i, slot) in counts.iter_mut().enumerate() {
            let d = self.counts[i] - earlier.counts[i];
            debug_assert!(d >= -1e-9, "counter {i} went backwards: {d}");
            *slot = d.max(0.0);
        }
        CounterDelta { counts }
    }
}

impl CounterDelta {
    /// Delta of `kind` over the window.
    pub fn get(&self, kind: CounterKind) -> f64 {
        self.counts[idx(kind)]
    }

    /// Instructions per cycle over the window; 0 when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        let cycles = self.get(CounterKind::Cycles);
        if cycles <= 0.0 {
            0.0
        } else {
            self.get(CounterKind::Instructions) / cycles
        }
    }

    /// Fraction of window time spent in MPI, given the window length.
    pub fn mpi_fraction(&self, window_secs: f64) -> f64 {
        if window_secs <= 0.0 {
            return 0.0;
        }
        (self.get(CounterKind::MpiTimeUs) / 1e6 / window_secs).min(1.0)
    }

    /// Arithmetic intensity (FLOPs per byte); 0 when no memory traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.get(CounterKind::MemBytes);
        if bytes <= 0.0 {
            0.0
        } else {
            self.get(CounterKind::Flops) / bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut b = CounterBank::new();
        b.add(CounterKind::Instructions, 1e9);
        b.add(CounterKind::Instructions, 5e8);
        assert_eq!(b.get(CounterKind::Instructions), 1.5e9);
        assert_eq!(b.get(CounterKind::Cycles), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_increment_panics() {
        CounterBank::new().add(CounterKind::Flops, -1.0);
    }

    #[test]
    fn snapshot_delta() {
        let mut b = CounterBank::new();
        b.add(CounterKind::Instructions, 100.0);
        b.add(CounterKind::Cycles, 50.0);
        let s1 = b.snapshot();
        b.add(CounterKind::Instructions, 200.0);
        b.add(CounterKind::Cycles, 100.0);
        let s2 = b.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.get(CounterKind::Instructions), 200.0);
        assert_eq!(d.ipc(), 2.0);
    }

    #[test]
    fn ipc_zero_without_cycles() {
        let d = CounterDelta::default();
        assert_eq!(d.ipc(), 0.0);
    }

    #[test]
    fn mpi_fraction_clamped() {
        let mut b = CounterBank::new();
        let s0 = b.snapshot();
        b.add(CounterKind::MpiTimeUs, 2_000_000.0);
        let d = b.snapshot().since(&s0);
        assert_eq!(d.mpi_fraction(1.0), 1.0); // clamp at 100%
        assert!((d.mpi_fraction(4.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.mpi_fraction(0.0), 0.0);
    }

    #[test]
    fn arithmetic_intensity() {
        let mut b = CounterBank::new();
        let s0 = b.snapshot();
        b.add(CounterKind::Flops, 400.0);
        b.add(CounterKind::MemBytes, 100.0);
        let d = b.snapshot().since(&s0);
        assert_eq!(d.arithmetic_intensity(), 4.0);
    }
}
