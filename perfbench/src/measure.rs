//! The measurement loop every workload shares: repeated set-ups, whole
//! passes until the time is up, order statistics, and the result line.
//!
//! A *pass* is a few set-ups plus one full drive over the seeded input.
//! Every pass of a run replays the same input, so its exact outputs (the
//! fingerprint, the modelled metrics and the exact counters) must repeat
//! bit for bit; the run only decides how many passes fit in `--seconds`.
//! Passes are never cut short, so every run samples the same op mix in the
//! same seeded order.
//!
//! Host statistics come from the run's *slower half* of passes. On the
//! reference host the same pass runs at a steady floor speed most of the
//! time, with erratic bursts up to about 35% faster that last tens of
//! seconds; the slower half of a run sits at the floor far more reliably
//! than all passes do, and averages more than the single slowest pass.

use pstack_trace::TraceCollector;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops a timed run collects at least, so that ten lie beyond p90.
pub const MIN_OPS: usize = 110;

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Hash of every exact output: records, energies, reports, store
    /// contents. Equal on every pass and under tracing.
    pub fingerprint: u64,
    /// Items attempted: jobs (fleets), campaigns or sessions (tuning).
    pub attempted: u64,
    /// Attempted items that did not complete.
    pub failed: u64,
    /// Output-check violations (empty when every check held).
    pub violations: Vec<String>,
    /// Host seconds of each op, in seeded order.
    pub ops_s: Vec<f64>,
    /// Host seconds of the whole drive (ops plus end-of-pass work).
    pub drive_s: f64,
    /// Host seconds of each set-up made for this pass.
    pub setup_s: Vec<f64>,
    /// Work done, in the throughput unit (node-hours, evaluations, sessions).
    pub work: f64,
    /// Modelled, exact outcomes.
    pub sim: Sim,
    /// Layer counts (exact) and layer times (ns), filled on traced passes.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Modelled outcomes of one pass; exact for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Work per kJ: site work per site energy (fleets), or application runs
    /// per kJ at the tuned configuration, geometric mean (tuning).
    pub work_per_kj: f64,
    /// Mean queue wait of completed jobs, simulated seconds (fleets).
    pub mean_wait_s: f64,
    /// Share of sampled windows whose site power exceeded the budget in
    /// force by more than 3% (fleets).
    pub over_budget_frac: f64,
    /// Geometric mean of each campaign's or session's best objective
    /// (tuning).
    pub best_objective: f64,
}

/// A set-up phase and drive, run with or without a trace collector.
pub trait Workload {
    /// What set-up builds and the drive consumes.
    type State;

    /// Build the input of one pass. `trace` is `Some` on traced passes.
    fn setup(&self, trace: Option<&TraceCollector>) -> Self::State;

    /// Drive one pass over `state`.
    fn drive(&self, state: Self::State, trace: Option<&TraceCollector>) -> Pass;

    /// Set-ups a timed pass makes (all but the last are built and dropped),
    /// so `setup_s` is a median of several, taken at the pass's host speed.
    fn setups_per_pass(&self) -> usize;
}

/// Everything a run hands to the report.
#[derive(Debug)]
pub struct RunSummary {
    pub passes: Vec<Pass>,
    /// Untraced passes of a traced run (empty in a timed run).
    pub untraced: Vec<Pass>,
    /// Spans the traced passes recorded, and spans the ring dropped.
    pub spans: u64,
    pub dropped: u64,
}

/// Timed run: whole untraced passes until `seconds` have passed and at
/// least three passes and [`MIN_OPS`] ops were recorded.
pub fn timed_run<W: Workload>(w: &W, seconds: f64) -> RunSummary {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let mut setup_s = Vec::new();
        let mut state = None;
        for _ in 0..w.setups_per_pass() {
            let t0 = Instant::now();
            let s = w.setup(None);
            setup_s.push(t0.elapsed().as_secs_f64());
            state = Some(s);
        }
        let mut pass = w.drive(state.expect("at least one set-up per pass"), None);
        pass.setup_s = setup_s;
        passes.push(pass);
        let ops: usize = passes.iter().map(|p| p.ops_s.len()).sum();
        if start.elapsed().as_secs_f64() >= seconds && ops >= MIN_OPS && passes.len() >= 3 {
            break;
        }
    }
    RunSummary {
        passes,
        untraced: Vec::new(),
        spans: 0,
        dropped: 0,
    }
}

/// The slower half of the passes by throughput: the slowest passes that
/// together hold at least half of all ops and at least [`MIN_OPS`], or
/// every pass when they hold fewer.
pub fn slower_half(passes: &[Pass]) -> Vec<&Pass> {
    let mut sorted: Vec<&Pass> = passes.iter().collect();
    sorted.sort_by(|a, b| (a.work / a.drive_s).total_cmp(&(b.work / b.drive_s)));
    let total: usize = passes.iter().map(|p| p.ops_s.len()).sum();
    let need = MIN_OPS.max(total.div_ceil(2));
    let mut ops = 0;
    let keep = sorted
        .iter()
        .take_while(|p| {
            let more = ops < need;
            ops += p.ops_s.len();
            more
        })
        .count();
    sorted.truncate(keep);
    sorted
}

/// Traced run: untraced and traced passes alternate (untraced first) until
/// `seconds` have passed. Each traced pass records into a fresh collector,
/// so no pass can evict another's spans.
pub fn traced_run<W: Workload>(w: &W, seconds: f64) -> RunSummary {
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut passes = Vec::new();
    let (mut spans, mut dropped) = (0u64, 0u64);
    loop {
        let state = w.setup(None);
        untraced.push(w.drive(state, None));
        let collector = TraceCollector::new();
        let state = w.setup(Some(&collector));
        passes.push(w.drive(state, Some(&collector)));
        dropped += collector.dropped();
        spans += collector.len() as u64;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    RunSummary {
        passes,
        untraced,
        spans,
        dropped,
    }
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Sum of the durations of spans named `name`, in ns.
pub fn span_ns(trace: &pstack_trace::Trace, name: &str) -> f64 {
    trace.by_name(name).map(|s| s.dur_ns as f64).sum()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_half_holds_enough_ops() {
        let pass = |ops: usize, drive_s: f64| Pass {
            ops_s: vec![0.0; ops],
            drive_s,
            work: 1.0,
            ..Pass::default()
        };
        let passes = [pass(60, 1.0), pass(60, 3.0), pass(60, 2.0), pass(60, 1.5)];
        let slow: Vec<f64> = slower_half(&passes).iter().map(|p| p.drive_s).collect();
        assert_eq!(slow, [3.0, 2.0]);
        let six: Vec<Pass> = (1..=6).map(|i| pass(150, f64::from(i))).collect();
        let slow: Vec<f64> = slower_half(&six).iter().map(|p| p.drive_s).collect();
        assert_eq!(slow, [6.0, 5.0, 4.0]);
        assert_eq!(slower_half(&[pass(30, 1.0), pass(30, 2.0)]).len(), 2);
    }

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
