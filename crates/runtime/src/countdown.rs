//! COUNTDOWN-like runtime (§3.2.6).
//!
//! COUNTDOWN intercepts MPI calls and lowers the core frequency for their
//! duration, separating *wait* time (pure slack — always safe to slow) from
//! *copy* time (message packing — slowing it can cost a little performance).
//! Energy savings come free because spin-waiting cores burn near-full power
//! at full clock. "The COUNTDOWN configuration can be set at the beginning of
//! a job run to (i) profile only ... (ii) reduce power during MPI wait and
//! copy time or (iii) reduce power during MPI wait time only"; the resource
//! manager selects this aggressiveness level (the RM↔COUNTDOWN co-tuning).

use crate::agent::{ArbitratedNodes, KnobKind, RuntimeAgent, BARRIER_REGION};
use pstack_hwmodel::{PhaseKind, PhaseMix};
use pstack_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Frequency used inside MPI, GHz (real COUNTDOWN uses the minimum P-state).
const LOW_FREQ_GHZ: f64 = 1.0;

/// COUNTDOWN aggressiveness, selected by the RM at job start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountdownMode {
    /// Only profile MPI regions; never actuate.
    Profile,
    /// Reduce frequency during MPI wait *and* copy time (all comm regions).
    WaitAndCopy,
    /// Reduce frequency during pure wait (barrier slack) only.
    WaitOnly,
}

/// Profiling counters COUNTDOWN accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CountdownStats {
    /// Communication-region entries observed.
    pub comm_region_entries: usize,
    /// Barrier-wait entries observed.
    pub barrier_entries: usize,
    /// Frequency reductions actually applied.
    pub downscales: usize,
}

/// The COUNTDOWN runtime agent.
#[derive(Debug)]
pub struct Countdown {
    mode: CountdownMode,
    /// Per-node flag: currently downscaled.
    lowered: Vec<bool>,
    /// Use the stacked MPI frequency-override slot (the §3.2.7 communication
    /// layer). Disabled, COUNTDOWN writes the base frequency limit directly
    /// and conflicts with any co-resident region tuner.
    use_override_layer: bool,
    stats: CountdownStats,
}

impl Countdown {
    /// Create with the given mode, using a 1.0 GHz MPI frequency.
    pub fn new(mode: CountdownMode) -> Self {
        Countdown {
            mode,
            lowered: Vec::new(),
            use_override_layer: true,
            stats: CountdownStats::default(),
        }
    }

    /// Disable the stacked-override communication layer: actuate the base
    /// frequency limit directly (the conflicting legacy behaviour §3.2.7
    /// warns about).
    pub fn without_override_layer(mut self) -> Self {
        self.use_override_layer = false;
        self
    }

    /// The configured mode.
    pub fn mode(&self) -> CountdownMode {
        self.mode
    }

    /// Profiling counters.
    pub fn stats(&self) -> CountdownStats {
        self.stats
    }

    fn is_comm_region(region: &str, mix: &PhaseMix) -> bool {
        region == BARRIER_REGION || mix.dominant() == PhaseKind::CommBound
    }

    fn should_lower(&self, region: &str, mix: &PhaseMix) -> bool {
        match self.mode {
            CountdownMode::Profile => false,
            CountdownMode::WaitAndCopy => Self::is_comm_region(region, mix),
            CountdownMode::WaitOnly => region == BARRIER_REGION,
        }
    }
}

impl RuntimeAgent for Countdown {
    fn name(&self) -> &str {
        "countdown"
    }

    fn knobs(&self) -> Vec<KnobKind> {
        if self.use_override_layer {
            vec![KnobKind::MpiFreqOverride]
        } else {
            vec![KnobKind::CoreFreq]
        }
    }

    /// The tick is the trait's no-op: it acts on region entries only.
    fn reads_telemetry(&self) -> bool {
        false
    }

    fn on_job_start(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        self.lowered = vec![false; ctl.n_nodes()];
    }

    fn on_region_enter(
        &mut self,
        _now: SimTime,
        node: usize,
        region: &str,
        mix: &PhaseMix,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        if region == BARRIER_REGION {
            self.stats.barrier_entries += 1;
        } else if Self::is_comm_region(region, mix) {
            self.stats.comm_region_entries += 1;
        }
        if self.should_lower(region, mix) {
            let applied = if self.use_override_layer {
                !self.lowered[node] && ctl.set_mpi_freq_override(node, LOW_FREQ_GHZ)
            } else {
                !self.lowered[node] && ctl.set_freq_limit_ghz(node, LOW_FREQ_GHZ)
            };
            if applied {
                self.lowered[node] = true;
                self.stats.downscales += 1;
            }
        } else if self.lowered[node] {
            let cleared = if self.use_override_layer {
                ctl.clear_mpi_freq_override(node)
            } else {
                ctl.clear_freq_limit(node)
            };
            if cleared {
                self.lowered[node] = false;
            }
        }
    }

    fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        for node in 0..ctl.n_nodes() {
            if self.lowered.get(node).copied().unwrap_or(false) {
                if self.use_override_layer {
                    ctl.clear_mpi_freq_override(node);
                } else {
                    ctl.clear_freq_limit(node);
                }
            }
        }
        self.lowered.iter_mut().for_each(|l| *l = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterMode;
    use crate::exec::JobRunner;
    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_apps::workload::AppModel;
    use pstack_apps::MpiModel;
    use pstack_hwmodel::{Node, NodeConfig, NodeId};
    use pstack_node::NodeManager;
    use pstack_sim::SeedTree;

    fn fleet(n: usize) -> Vec<NodeManager> {
        (0..n)
            .map(|i| NodeManager::new(Node::nominal(NodeId(i), NodeConfig::server_default())))
            .collect()
    }

    fn run_with_mode(mode: CountdownMode, seed: u64) -> (crate::exec::JobResult, CountdownStats) {
        let app = SyntheticApp::new(Profile::CommHeavy, 20.0, 15);
        let n = 4;
        let mut nodes = fleet(n);
        let seeds = SeedTree::new(seed);
        let mut runner = JobRunner::new(
            &app.workload(n),
            n,
            &MpiModel::comm_heavy(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut cd = Countdown::new(mode);
        let result = {
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut cd];
            runner.run_to_completion(pstack_sim::SimTime::ZERO, &mut nodes, &mut agents)
        };
        (result, cd.stats())
    }

    #[test]
    fn profile_mode_never_actuates() {
        let (_, stats) = run_with_mode(CountdownMode::Profile, 1);
        assert_eq!(stats.downscales, 0);
        assert!(stats.comm_region_entries > 0);
    }

    #[test]
    fn wait_and_copy_saves_energy_with_small_slowdown() {
        let (base, _) = run_with_mode(CountdownMode::Profile, 1);
        let (cd, stats) = run_with_mode(CountdownMode::WaitAndCopy, 1);
        assert!(stats.downscales > 0);
        assert!(
            cd.energy_j < base.energy_j * 0.97,
            "energy {} vs baseline {}",
            cd.energy_j,
            base.energy_j
        );
        let slowdown = cd.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(
            slowdown < 1.05,
            "performance-neutral claim violated: {slowdown}"
        );
    }

    #[test]
    fn wait_only_is_more_conservative() {
        let (wc, _) = run_with_mode(CountdownMode::WaitAndCopy, 2);
        let (wo, _) = run_with_mode(CountdownMode::WaitOnly, 2);
        let (base, _) = run_with_mode(CountdownMode::Profile, 2);
        // WaitOnly saves less than WaitAndCopy but is even closer to neutral.
        assert!(wo.energy_j <= base.energy_j);
        assert!(wc.energy_j <= wo.energy_j * 1.02);
        let wo_slowdown = wo.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(wo_slowdown < 1.02, "WaitOnly slowdown {wo_slowdown}");
    }
}
