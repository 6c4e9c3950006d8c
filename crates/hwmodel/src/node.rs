//! A compute node: packages + platform overhead, with node-level knobs and
//! telemetry. This is the hardware surface the node-level manager
//! (`pstack-node`) wraps and the runtimes actuate.

use crate::package::{Package, PackageConfig};
use crate::phase::PhaseMix;
use crate::pstate::DutyCycle;
use crate::variation::{VariationFactors, VariationModel};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use pstack_telemetry::CounterKind;
use serde::{Deserialize, Serialize};

/// Identifier of a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static node configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of packages (sockets).
    pub n_packages: usize,
    /// Per-package configuration.
    pub package: PackageConfig,
    /// Constant platform power (fans, NIC, board), watts.
    pub misc_power_w: f64,
}

impl NodeConfig {
    /// Server default: 2 × 24-core sockets + 60 W platform.
    ///
    /// Peak node power ≈ 2×190 + 60 ≈ 440 W; idle ≈ 120 W — typical of the
    /// dual-socket Xeon nodes the surveyed tools target.
    pub fn server_default() -> Self {
        NodeConfig {
            n_packages: 2,
            package: PackageConfig::server_default(),
            misc_power_w: 60.0,
        }
    }

    /// Total cores on the node.
    pub fn total_cores(&self) -> usize {
        self.n_packages * self.package.n_cores
    }
}

/// Result of advancing a node one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutput {
    /// Relative work completed across the node (node-seconds at reference = 1).
    pub work: f64,
    /// Average node power over the step, watts.
    pub power_w: f64,
    /// Effective core frequency, GHz (mean across packages).
    pub effective_freq_ghz: f64,
    /// Whether any package throttled thermally.
    pub throttled: bool,
}

/// Dynamic node state.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    cfg: NodeConfig,
    pub(crate) packages: Vec<Package>,
    pub(crate) energy_j: f64,
}

impl Node {
    /// Build node `id`, sampling per-package manufacturing variation from
    /// `variation` using a stream derived from `seeds` and the node id.
    pub fn new(id: NodeId, cfg: NodeConfig, variation: &VariationModel, seeds: &SeedTree) -> Self {
        let mut rng = seeds.rng_indexed("node-variation", id.0 as u64);
        let packages = (0..cfg.n_packages)
            .map(|_| Package::new(cfg.package.clone(), variation.sample(&mut rng)))
            .collect();
        Node {
            id,
            cfg,
            packages,
            energy_j: 0.0,
        }
    }

    /// Build a node with no manufacturing variation (controlled experiments).
    pub fn nominal(id: NodeId, cfg: NodeConfig) -> Self {
        let packages = (0..cfg.n_packages)
            .map(|_| Package::new(cfg.package.clone(), VariationFactors::NOMINAL))
            .collect();
        Node {
            id,
            cfg,
            packages,
            energy_j: 0.0,
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Static configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// The node's packages.
    pub fn packages(&self) -> &[Package] {
        &self.packages
    }

    /// Mutable access to packages (for per-socket control).
    pub fn packages_mut(&mut self) -> &mut [Package] {
        &mut self.packages
    }

    // ---- node-level knobs ----

    /// Set all packages to the highest P-state at or below `f_ghz`.
    pub fn set_freq_ghz(&mut self, f_ghz: f64) {
        for p in &mut self.packages {
            p.set_freq_ghz(f_ghz);
        }
    }

    /// Set uncore index on all packages.
    pub fn set_uncore_idx(&mut self, idx: usize) {
        for p in &mut self.packages {
            p.set_uncore_idx(idx);
        }
    }

    /// Set duty-cycle modulation on all packages.
    pub fn set_duty(&mut self, duty: DutyCycle) {
        for p in &mut self.packages {
            p.set_duty(duty);
        }
    }

    /// Apply a node power cap: platform power is reserved, the remainder is
    /// split evenly across packages as RAPL caps.
    ///
    /// # Panics
    /// Panics if the cap does not even cover platform power.
    pub fn set_power_cap(&mut self, now: SimTime, cap_w: f64, window: SimDuration) {
        let for_packages = cap_w - self.cfg.misc_power_w;
        assert!(
            for_packages > 0.0,
            "node cap {cap_w} below platform power {}",
            self.cfg.misc_power_w
        );
        let per_pkg = for_packages / self.cfg.n_packages as f64;
        for p in &mut self.packages {
            p.set_power_cap(now, per_pkg, window);
        }
    }

    /// Remove all package power caps.
    pub fn clear_power_cap(&mut self) {
        for p in &mut self.packages {
            p.clear_power_cap();
        }
    }

    /// The node-level cap implied by package caps, if all packages are capped.
    pub fn power_cap_w(&self) -> Option<f64> {
        let mut total = self.cfg.misc_power_w;
        for p in &self.packages {
            total += p.power_cap_w()?;
        }
        Some(total)
    }

    // ---- telemetry ----

    /// Total node energy consumed, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Instantaneous node power for `mix` with `active_cores` busy, watts.
    pub fn power_w(&self, mix: &PhaseMix, active_cores: usize) -> f64 {
        let mut remaining = active_cores.min(self.cfg.total_cores());
        self.cfg.misc_power_w
            + self
                .packages
                .iter()
                .map(|p| p.power_w(mix, take_cores(&mut remaining, p)))
                .sum::<f64>()
    }

    /// Work rate (work units per second) for `mix` with `active_cores` busy.
    /// Matches exactly what [`Node::step`] completes per second.
    ///
    /// Normalized so a fully busy node at the reference configuration does
    /// 1.0 work/s regardless of socket count: per-package rates are weighted
    /// by each package's share of the node's cores.
    pub fn work_rate(&self, mix: &PhaseMix, active_cores: usize) -> f64 {
        let mut remaining = active_cores.min(self.cfg.total_cores());
        self.packages
            .iter()
            .map(|p| p.work_rate(mix, take_cores(&mut remaining, p)))
            .sum::<f64>()
            / self.cfg.n_packages as f64
    }

    /// Change the ambient (inlet) temperature of every package — models the
    /// node's rack position (paper §3.1.1: "thermal hot spots").
    pub fn set_ambient_c(&mut self, t_ambient: f64) {
        for p in &mut self.packages {
            p.set_ambient_c(t_ambient);
        }
    }

    /// Hottest package temperature, °C.
    pub fn max_temperature_c(&self) -> f64 {
        self.packages
            .iter()
            .map(|p| p.temperature_c())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of a counter across packages.
    pub fn counter(&self, kind: CounterKind) -> f64 {
        self.packages.iter().map(|p| p.counters().get(kind)).sum()
    }

    /// Effective frequency (mean across packages), GHz.
    pub fn effective_freq_ghz(&self) -> f64 {
        let sum: f64 = self
            .packages
            .iter()
            .map(|p| p.config().pstates.freq(p.effective_pstate()))
            .sum();
        sum / self.packages.len() as f64
    }

    /// Advance the node by `dt` running `mix` on `active_cores`.
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        mix: &PhaseMix,
        active_cores: usize,
    ) -> StepOutput {
        self.step_checked(now, dt, mix, active_cores).0
    }

    /// Advance the node `n` consecutive steps of `dt` from `from`, all
    /// running `mix` on `active_cores`, calling `on_step(start, &output)`
    /// after each. Bit for bit the same as `n` calls to [`Node::step`].
    ///
    /// Without a power cap, a step depends only on each package's
    /// temperature bits and throttle latch. Once one step leaves all of
    /// them unchanged the node sits at a fixed point: every later step
    /// computes the same increments, so the remaining steps re-apply them,
    /// in the same order per accumulator, without rerunning the physics. A
    /// capped node or one that never settles bitwise takes plain steps.
    /// Returns how many steps were fast-forwarded.
    pub fn step_for(
        &mut self,
        from: SimTime,
        dt: SimDuration,
        n: u64,
        mix: &PhaseMix,
        active_cores: usize,
        mut on_step: impl FnMut(SimTime, &StepOutput),
    ) -> u64 {
        let mut t = from;
        for done in 1..=n {
            let (out, settled) = self.step_checked(t, dt, mix, active_cores);
            on_step(t, &out);
            t += dt;
            if settled && done < n {
                let rest = n - done;
                let mut remaining = active_cores.min(self.cfg.total_cores());
                for p in &mut self.packages {
                    let cores = take_cores(&mut remaining, p);
                    p.repeat_settled(dt, mix, cores, rest);
                }
                let energy_j = out.power_w * dt.as_secs_f64();
                for _ in 0..rest {
                    self.energy_j += energy_j;
                    on_step(t, &out);
                    t += dt;
                }
                return rest;
            }
        }
        0
    }

    /// [`Node::step`], also reporting whether every package settled (see
    /// [`Node::step_for`]).
    fn step_checked(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        mix: &PhaseMix,
        active_cores: usize,
    ) -> (StepOutput, bool) {
        let mut remaining = active_cores.min(self.cfg.total_cores());
        let mut work = 0.0;
        let mut power = self.cfg.misc_power_w;
        let mut freq = 0.0;
        let mut throttled = false;
        let mut settled = true;
        for p in &mut self.packages {
            let cores = take_cores(&mut remaining, p);
            let (s, still) = p.step_checked(now, dt, mix, cores);
            work += s.work;
            power += s.power_w;
            freq += s.effective_freq_ghz;
            throttled |= s.throttled;
            settled &= still;
        }
        self.energy_j += power * dt.as_secs_f64();
        let out = StepOutput {
            // Same normalization as `work_rate`: 1.0/s for a fully busy node
            // at the reference configuration.
            work: work / self.cfg.n_packages as f64,
            power_w: power,
            effective_freq_ghz: freq / self.packages.len() as f64,
            throttled,
        };
        (out, settled)
    }
}

/// Take package `p`'s share of the `remaining` active cores. Packages fill
/// in order: a 30-core job on 2×24 gets 24 + 6.
fn take_cores(remaining: &mut usize, p: &Package) -> usize {
    let n = (*remaining).min(p.config().n_cores);
    *remaining -= n;
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseKind;

    fn node() -> Node {
        Node::nominal(NodeId(0), NodeConfig::server_default())
    }

    fn compute() -> PhaseMix {
        PhaseMix::pure(PhaseKind::ComputeBound)
    }

    #[test]
    fn default_node_power_envelope() {
        let n = node();
        let peak = n.power_w(&compute(), n.config().total_cores());
        assert!((300.0..550.0).contains(&peak), "peak={peak}");
        let idle = n.power_w(&PhaseMix::pure(PhaseKind::IoBound), 0);
        assert!(idle < peak * 0.5, "idle={idle} peak={peak}");
    }

    #[test]
    fn step_accumulates_energy() {
        let mut n = node();
        let out = n.step(SimTime::ZERO, SimDuration::from_secs(2), &compute(), 48);
        assert!((n.energy_j() - out.power_w * 2.0).abs() < 1e-6);
    }

    #[test]
    fn node_cap_splits_across_packages() {
        let mut n = node();
        n.set_power_cap(SimTime::ZERO, 300.0, SimDuration::from_millis(10));
        assert_eq!(n.power_cap_w(), Some(300.0));
        for p in n.packages() {
            assert_eq!(p.power_cap_w(), Some(120.0)); // (300-60)/2
        }
        n.clear_power_cap();
        assert_eq!(n.power_cap_w(), None);
    }

    #[test]
    #[should_panic(expected = "below platform power")]
    fn cap_below_platform_panics() {
        node().set_power_cap(SimTime::ZERO, 30.0, SimDuration::from_millis(10));
    }

    #[test]
    fn node_cap_binds() {
        let mut n = node();
        n.set_power_cap(SimTime::ZERO, 280.0, SimDuration::from_millis(10));
        let dt = SimDuration::from_millis(10);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            n.step(t, dt, &compute(), 48);
            t += dt;
        }
        let e0: f64 = n.packages().iter().map(|p| p.energy_j()).sum();
        let t0 = t;
        for _ in 0..200 {
            n.step(t, dt, &compute(), 48);
            t += dt;
        }
        let e1: f64 = n.packages().iter().map(|p| p.energy_j()).sum();
        let avg = (e1 - e0) / t.since(t0).as_secs_f64() + n.config().misc_power_w;
        assert!(avg <= 280.0 * 1.06, "avg node power {avg} vs cap 280");
    }

    #[test]
    fn variation_produces_heterogeneous_fleet() {
        let cfg = NodeConfig::server_default();
        let seeds = SeedTree::new(1234);
        let model = VariationModel::typical();
        let powers: Vec<f64> = (0..32)
            .map(|i| Node::new(NodeId(i), cfg.clone(), &model, &seeds).power_w(&compute(), 48))
            .collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max / min > 1.02,
            "fleet should show measurable spread: {min}..{max}"
        );
        // Deterministic per node id:
        let again = Node::new(NodeId(5), cfg, &model, &seeds).power_w(&compute(), 48);
        assert_eq!(again, powers[5]);
    }

    #[test]
    fn core_splitting_fills_sockets_in_order() {
        let mut n = node();
        let o30 = n.step(SimTime::ZERO, SimDuration::from_millis(100), &compute(), 30);
        // 24 + 6 split: second package mostly idle → less power than 48 cores.
        let mut full = node();
        let o48 = full.step(SimTime::ZERO, SimDuration::from_millis(100), &compute(), 48);
        assert!(o30.power_w < o48.power_w);
        assert!(o30.work < o48.work);
    }

    #[test]
    fn freq_knob_applies_to_all_packages() {
        let mut n = node();
        n.set_freq_ghz(1.5);
        for p in n.packages() {
            assert!((p.config().pstates.freq(p.pstate()) - 1.5).abs() < 1e-9);
        }
        assert!((n.effective_freq_ghz() - 1.5).abs() < 1e-9);
    }
}
