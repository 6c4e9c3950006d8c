//! Experiments regenerating every paper table, figure, and use case.
//!
//! Each module exposes a `run(...)` returning a serializable result struct
//! plus a `render(...)` producing the table/series the paper shows. The
//! bench harness (`pstack-bench`) executes these at full scale and writes
//! the outputs EXPERIMENTS.md records; unit tests execute reduced-scale
//! versions and assert the qualitative *shape* (who wins, where crossovers
//! fall) that defines a successful reproduction.
//!
//! Index (see DESIGN.md §3 for the full mapping):
//!
//! | module   | artifact                                           |
//! |----------|----------------------------------------------------|
//! | `fig1`   | Figure 1 — end-to-end opportunity analysis         |
//! | `fig2`   | Figure 2 — job-aware vs job-agnostic interactions  |
//! | `fig3`   | Figure 3 — multijob GEOPM policy assignment        |
//! | `fig4`   | Figure 4 — the ytopt autotuning loop               |
//! | `fig5`   | Figure 5 — FETI regions under per-region tuning    |
//! | `fig6`   | Figure 6 — power corridor via node redistribution  |
//! | `uc1`    | §3.2.1 — SLURM+Conductor+Hypre co-tuning           |
//! | `uc6`    | §3.2.6 — RM-selected COUNTDOWN aggressiveness      |
//! | `uc7`    | §3.2.7 — COUNTDOWN+MERIC arbitration               |
//! | `ablations` | §4 ablations (malleability, static variants, overprovisioning) |
//! | `emergency` | extension E1 — demand-response budget drops (pause vs caps) |
//! | `thermal`   | extension E2 — thermal-aware node selection (§3.1.1 hot spots) |
//! | `faults`    | extension E6 — tuning-loop recovery under injected faults |
//! | `resume`    | extension E7 — crash-safe sessions: kill/resume equivalence grid |
//! | `history`   | extension E9 — shared performance history (crowdtuning warm starts) |
//! | `fleet`     | extension E10 — fleet-scale event-driven multi-enclave simulation |
//! | `fleetfaults` | extension E11 — fleet chaos: recovery SLOs under injected RM faults |
//!
//! Tables 1–3 are regenerated by [`crate::registry`], [`crate::catalog`],
//! and [`crate::vocab`] directly.

pub mod ablations;
pub mod emergency;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fleet;
pub mod fleetfaults;
pub mod history;
pub mod resume;
pub mod thermal;
pub mod uc1;
pub mod uc6;
pub mod uc7;

/// One experiment registration: the module name and the paper artifact it
/// regenerates. `pstack-analyze` lints this manifest for referential
/// integrity (unique names, required coverage), so keep it in sync with the
/// module list above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Module name under `experiments::`.
    pub name: &'static str,
    /// The table/figure/use case the module regenerates.
    pub artifact: &'static str,
}

/// The experiment manifest, one entry per module above.
pub fn manifest() -> Vec<ExperimentInfo> {
    vec![
        ExperimentInfo {
            name: "fig1",
            artifact: "Figure 1 — end-to-end opportunity analysis",
        },
        ExperimentInfo {
            name: "fig2",
            artifact: "Figure 2 — job-aware vs job-agnostic interactions",
        },
        ExperimentInfo {
            name: "fig3",
            artifact: "Figure 3 — multijob GEOPM policy assignment",
        },
        ExperimentInfo {
            name: "fig4",
            artifact: "Figure 4 — the ytopt autotuning loop",
        },
        ExperimentInfo {
            name: "fig5",
            artifact: "Figure 5 — FETI regions under per-region tuning",
        },
        ExperimentInfo {
            name: "fig6",
            artifact: "Figure 6 — power corridor via node redistribution",
        },
        ExperimentInfo {
            name: "uc1",
            artifact: "Use case 3.2.1 — SLURM+Conductor+Hypre co-tuning",
        },
        ExperimentInfo {
            name: "uc6",
            artifact: "Use case 3.2.6 — RM-selected COUNTDOWN aggressiveness",
        },
        ExperimentInfo {
            name: "uc7",
            artifact: "Use case 3.2.7 — COUNTDOWN+MERIC arbitration",
        },
        ExperimentInfo {
            name: "ablations",
            artifact: "Section 4 ablations",
        },
        ExperimentInfo {
            name: "emergency",
            artifact: "Extension E1 — demand-response budget drops",
        },
        ExperimentInfo {
            name: "thermal",
            artifact: "Extension E2 — thermal-aware node selection",
        },
        ExperimentInfo {
            name: "faults",
            artifact: "Extension E6 — tuning under injected faults",
        },
        ExperimentInfo {
            name: "resume",
            artifact: "Extension E7 — crash-safe sessions (kill/resume equivalence)",
        },
        ExperimentInfo {
            name: "history",
            artifact: "Extension E9 — shared performance history (crowdtuning warm starts)",
        },
        ExperimentInfo {
            name: "fleet",
            artifact: "Extension E10 — fleet-scale event-driven multi-enclave simulation",
        },
        ExperimentInfo {
            name: "fleetfaults",
            artifact: "Extension E11 — fleet chaos: recovery SLOs under injected RM faults",
        },
    ]
}

#[cfg(test)]
mod manifest_tests {
    use super::*;

    #[test]
    fn manifest_names_unique_and_complete() {
        let m = manifest();
        assert_eq!(m.len(), 17);
        let mut names: Vec<&str> = m.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17, "duplicate manifest entry");
        for required in ["fig1", "fig4", "uc1", "uc7"] {
            assert!(m.iter().any(|e| e.name == required), "missing {required}");
        }
    }
}
