//! The injectors: telemetry corruption, knob gating, crashing agents.
//!
//! [`FaultInjector`] sits on the read path (power samples) and the write
//! path (knob actuations) of a scenario; [`CrashyAgent`] wraps any
//! [`RuntimeAgent`] with deterministic crash/restart behaviour. All
//! decisions come from the stateless [`FaultDice`], keyed by monotone
//! sample/write/tick counters, so a seeded scenario replays the identical
//! fault sequence every run.

use crate::dice::FaultDice;
use crate::plan::{FaultPlan, KnobFaults, TelemetryFaults};
use pstack_autotune::{FaultKind, FaultLog};
use pstack_hwmodel::{PhaseMix, PowerEnvelope};
use pstack_runtime::{ArbitratedNodes, JobTelemetry, KnobKind, RuntimeAgent};
use pstack_sim::SimTime;
use pstack_trace::{AttrValue, TraceCollector};
use std::sync::Arc;

/// Fate of one knob write under injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobWrite {
    /// The write applies immediately.
    Applied,
    /// The write silently fails (stuck actuator).
    Stuck,
    /// The write applies after this many injector ticks.
    Lagged(usize),
}

/// Telemetry- and knob-path fault injector for one scenario.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    telemetry: TelemetryFaults,
    knobs: KnobFaults,
    dice: FaultDice,
    sample_idx: u64,
    write_idx: u64,
    trace: Option<Arc<TraceCollector>>,
    /// Everything injected so far.
    pub log: FaultLog,
}

impl FaultInjector {
    /// Build an injector for `plan` seeded at `seed`.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        FaultInjector {
            telemetry: plan.telemetry,
            knobs: plan.knobs,
            dice: FaultDice::new(seed),
            sample_idx: 0,
            write_idx: 0,
            trace: None,
            log: FaultLog::new(),
        }
    }

    /// Mirror every injection decision into `collector` as a zero-duration
    /// `fault` span (kind + decision index attrs). The dice are untouched:
    /// a traced injector replays the identical fault sequence.
    pub fn with_trace(mut self, collector: Arc<TraceCollector>) -> Self {
        self.trace = Some(collector);
        self
    }

    fn trace_fault(&self, kind: FaultKind, path: &str, idx: u64) {
        if let Some(t) = self.trace.as_deref() {
            t.instant(
                None,
                "fault",
                vec![
                    ("kind".to_string(), AttrValue::from(kind.name())),
                    ("path".to_string(), AttrValue::from(path)),
                    ("idx".to_string(), AttrValue::from(idx)),
                ],
            );
        }
    }

    /// Pass one power sample through the telemetry fault path.
    ///
    /// Returns `None` when the sample is dropped; otherwise the (possibly
    /// noisy or spiking) reading, **clamped into the node's physical power
    /// envelope** `[0, peak_w]` — injected noise must corrupt measurements,
    /// not fabricate physically impossible ones (the INV-* proptest target).
    pub fn observe_power(&mut self, raw_w: f64, envelope: &PowerEnvelope) -> Option<f64> {
        let i = self.sample_idx;
        self.sample_idx += 1;
        if self.dice.chance(self.telemetry.drop_prob, "drop", i, 0) {
            self.log.note(FaultKind::DroppedSample);
            self.trace_fault(FaultKind::DroppedSample, "telemetry", i);
            return None;
        }
        let mut w = raw_w;
        if self.telemetry.spike_prob > 0.0
            && self.dice.chance(self.telemetry.spike_prob, "spike", i, 0)
        {
            w *= self.telemetry.spike_factor;
            self.log.note(FaultKind::TelemetryNoise);
            self.trace_fault(FaultKind::TelemetryNoise, "telemetry", i);
        } else if self.telemetry.noise_frac > 0.0 {
            w += self
                .dice
                .jitter(self.telemetry.noise_frac * raw_w, "noise", i, 0);
            self.log.note(FaultKind::TelemetryNoise);
            // Per-sample gaussian noise is not traced: it fires on ~every
            // sample and would evict real spans from the ring buffer.
        }
        Some(w.clamp(0.0, envelope.peak_w))
    }

    /// Decide the fate of one knob write.
    pub fn gate_write(&mut self, what: &str) -> KnobWrite {
        let i = self.write_idx;
        self.write_idx += 1;
        if self.dice.chance(self.knobs.stick_prob, "stick", i, 0) {
            self.log
                .record(FaultKind::StuckKnob, format!("write {i}"), what.to_string());
            self.trace_fault(FaultKind::StuckKnob, "knob", i);
            return KnobWrite::Stuck;
        }
        if self.dice.chance(self.knobs.lag_prob, "lag", i, 0) {
            let steps = self.knobs.lag_steps.max(1);
            self.log.record(
                FaultKind::LaggedKnob,
                format!("write {i}"),
                format!("{what} delayed {steps} ticks"),
            );
            self.trace_fault(FaultKind::LaggedKnob, "knob", i);
            return KnobWrite::Lagged(steps);
        }
        KnobWrite::Applied
    }

    /// Samples observed so far (the telemetry decision counter).
    pub fn samples_taken(&self) -> u64 {
        self.sample_idx
    }
}

/// A [`RuntimeAgent`] wrapper that crashes and restarts deterministically.
///
/// While crashed, the agent misses its control ticks and region hooks (its
/// knob settings stay wherever the crash left them — exactly the hazard a
/// robust stack must tolerate). After `restart_after_controls` missed ticks
/// a supervisor restarts it and control resumes. Job start/end hooks always
/// forward, so claimed knobs are restored at job end even for a crashy run.
///
/// The plan's knob faults gate the agent's control-tick actuations as well:
/// a stuck tick's writes never land, a lagging tick's writes land too late
/// to matter (the agent recomputes next period anyway), so both are modelled
/// as the inner agent missing that control tick — with distinct log kinds.
pub struct CrashyAgent {
    inner: Box<dyn RuntimeAgent>,
    label: String,
    dice: FaultDice,
    crash_prob: f64,
    restart_after: usize,
    knobs: KnobFaults,
    crashed: bool,
    missed: usize,
    tick: u64,
    /// Crash/restart events observed so far.
    pub log: FaultLog,
}

impl CrashyAgent {
    /// Wrap `inner` with the crash behaviour of `plan`, seeded at `seed`.
    pub fn new(inner: Box<dyn RuntimeAgent>, plan: &FaultPlan, seed: u64) -> Self {
        let label = format!("crashy:{}", inner.name());
        CrashyAgent {
            inner,
            label,
            dice: FaultDice::new(seed),
            crash_prob: plan.agent.crash_prob,
            restart_after: plan.agent.restart_after_controls.max(1),
            knobs: plan.knobs,
            crashed: false,
            missed: 0,
            tick: 0,
            log: FaultLog::new(),
        }
    }
}

impl RuntimeAgent for CrashyAgent {
    fn name(&self) -> &str {
        &self.label
    }

    fn knobs(&self) -> Vec<KnobKind> {
        self.inner.knobs()
    }

    fn control_period(&self) -> pstack_sim::SimDuration {
        self.inner.control_period()
    }

    fn on_job_start(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        self.inner.on_job_start(ctl);
    }

    fn on_region_enter(
        &mut self,
        now: SimTime,
        node: usize,
        region: &str,
        mix: &PhaseMix,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        if !self.crashed {
            self.inner.on_region_enter(now, node, region, mix, ctl);
        }
    }

    fn on_control(
        &mut self,
        now: SimTime,
        telemetry: &JobTelemetry,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        self.tick += 1;
        if self.crashed {
            self.missed += 1;
            if self.missed >= self.restart_after {
                self.crashed = false;
                self.missed = 0;
                self.log.record(
                    FaultKind::AgentRestart,
                    format!("t={:.0}s", now.as_secs_f64()),
                    format!(
                        "{} restarted after {} missed ticks",
                        self.label, self.restart_after
                    ),
                );
                self.inner.on_control(now, telemetry, ctl);
            }
            return;
        }
        if self.dice.chance(self.crash_prob, "crash", self.tick, 0) {
            self.crashed = true;
            self.missed = 0;
            self.log.record(
                FaultKind::AgentCrash,
                format!("t={:.0}s", now.as_secs_f64()),
                format!("{} crashed mid-job", self.label),
            );
            return;
        }
        // Knob faults on the actuation path: a stuck or lagging tick means
        // this period's writes never take (timely) effect.
        if self
            .dice
            .chance(self.knobs.stick_prob, "agent_stick", self.tick, 0)
        {
            self.log.record(
                FaultKind::StuckKnob,
                format!("t={:.0}s", now.as_secs_f64()),
                format!("{} control actuation lost (stuck knob)", self.label),
            );
            return;
        }
        if self
            .dice
            .chance(self.knobs.lag_prob, "agent_lag", self.tick, 0)
        {
            self.log.record(
                FaultKind::LaggedKnob,
                format!("t={:.0}s", now.as_secs_f64()),
                format!("{} control actuation landed a period late", self.label),
            );
            return;
        }
        self.inner.on_control(now, telemetry, ctl);
    }

    fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        // Always forward: the supervisor restores knobs even if the agent
        // died, matching RM-side cleanup of a crashed runtime.
        self.inner.on_job_end(ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_hwmodel::NodeConfig;

    fn envelope() -> PowerEnvelope {
        pstack_hwmodel::invariants::power_envelope(&NodeConfig::server_default())
    }

    #[test]
    fn clean_plan_passes_samples_through() {
        let mut inj = FaultInjector::new(&FaultPlan::none(), 1);
        let env = envelope();
        for w in [0.0, 100.0, 250.0, env.peak_w] {
            assert_eq!(inj.observe_power(w, &env), Some(w));
        }
        assert!(inj.log.is_clean());
    }

    #[test]
    fn noisy_samples_stay_inside_the_envelope() {
        let mut inj = FaultInjector::new(&FaultPlan::telemetry_only(), 7);
        let env = envelope();
        let mut dropped = 0;
        let mut perturbed = 0;
        for i in 0..2000 {
            let raw = 150.0 + (i % 100) as f64;
            match inj.observe_power(raw, &env) {
                None => dropped += 1,
                Some(w) => {
                    assert!(
                        (0.0..=env.peak_w).contains(&w),
                        "sample {w} escaped envelope"
                    );
                    if (w - raw).abs() > 1e-12 {
                        perturbed += 1;
                    }
                }
            }
        }
        assert!(dropped > 0, "drop_prob 0.05 over 2000 samples");
        assert!(perturbed > 0, "noise_frac 0.10 over 2000 samples");
        assert_eq!(inj.log.counts.dropped_samples, dropped);
    }

    #[test]
    fn injection_is_deterministic() {
        let env = envelope();
        let run = || {
            let mut inj = FaultInjector::new(&FaultPlan::default_rates(), 11);
            (0..500)
                .map(|i| inj.observe_power(200.0 + i as f64, &env))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn knob_gate_mixes_fates() {
        let mut inj = FaultInjector::new(&FaultPlan::knobs_only(), 3);
        let mut stuck = 0;
        let mut lagged = 0;
        let mut applied = 0;
        for _ in 0..1000 {
            match inj.gate_write("cap") {
                KnobWrite::Stuck => stuck += 1,
                KnobWrite::Lagged(steps) => {
                    assert_eq!(steps, 3);
                    lagged += 1;
                }
                KnobWrite::Applied => applied += 1,
            }
        }
        assert!(stuck > 0 && lagged > 0 && applied > 0);
        assert_eq!(inj.log.counts.stuck_knobs, stuck);
        assert_eq!(inj.log.counts.lagged_knobs, lagged);
    }

    #[test]
    fn traced_injector_mirrors_decisions_without_changing_them() {
        let env = envelope();
        let run = |trace: Option<Arc<TraceCollector>>| {
            let mut inj = FaultInjector::new(&FaultPlan::default_rates(), 11);
            if let Some(t) = trace {
                inj = inj.with_trace(t);
            }
            let samples: Vec<_> = (0..500)
                .map(|i| inj.observe_power(200.0 + i as f64, &env))
                .collect();
            let writes: Vec<_> = (0..200).map(|_| inj.gate_write("cap")).collect();
            (samples, writes, inj.log.clone())
        };
        let collector = Arc::new(TraceCollector::new());
        let plain = run(None);
        let traced = run(Some(Arc::clone(&collector)));
        assert_eq!(plain, traced, "tracing must not perturb the dice");
        let trace = collector.snapshot();
        let faults: Vec<_> = trace.by_name("fault").collect();
        let expected = traced.2.counts.dropped_samples
            + traced.2.counts.stuck_knobs
            + traced.2.counts.lagged_knobs;
        // Spike events are also traced but default_rates has no spikes;
        // per-sample noise is deliberately untraced.
        assert!(
            faults.len() >= expected,
            "{} fault spans vs {} logged discrete faults",
            faults.len(),
            expected
        );
        assert!(faults
            .iter()
            .all(|s| s.attr("kind").is_some() && s.attr("path").is_some()));
    }

    #[test]
    fn clean_gate_always_applies() {
        let mut inj = FaultInjector::new(&FaultPlan::none(), 3);
        for _ in 0..100 {
            assert_eq!(inj.gate_write("cap"), KnobWrite::Applied);
        }
    }
}
