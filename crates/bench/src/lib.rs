//! # pstack-bench — the paper-artifact regeneration harness
//!
//! [`TABLE`] has one entry per `results/` artifact: its name and the one
//! function that runs it under the artifact's root span, returning the
//! rendered text, the JSON value and the verdict of its acceptance check.
//! [`write`] turns an entry into `<name>.txt`, `<name>.json` and
//! `trace_<name>.json` (Chrome `trace_event`), then applies the check, so
//! every artifact has a trace and a failing check still leaves its files to
//! inspect. The `regenerate_all` binary runs every entry, or the ones named
//! on its command line; its output is the source of EXPERIMENTS.md.
//!
//! The `bench_*` entries time the simulator's own fast paths and
//! `bench_diff` gates their artifacts; host-speed measurement of record is
//! the standalone `perfbench/` package.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod diff;
pub mod evalthroughput;
pub mod fleet;
pub mod fleetfaults;
pub mod lockorder;
pub mod new_runtimes;
pub mod parallel_tuner;
pub mod uc3;

use powerstack_core::experiments::{
    ablations, emergency, faults, fig1, fig2, fig3, fig4, fig5, fig6, history, resume, thermal,
    uc1, uc6, uc7,
};
use powerstack_core::{catalog, registry, vocab};
use pstack_trace::{SpanGuard, Trace, TraceCollector};
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Directory artifacts are written to: `$POWERSTACK_RESULTS_DIR`, else the
/// repo-relative `results/`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("POWERSTACK_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// What running one artifact produces.
pub struct Output {
    /// The rendered table or series: `<name>.txt`, also printed.
    pub text: String,
    /// The result as data: `<name>.json`.
    pub json: serde::Value,
    /// The verdict of the artifact's acceptance check (`Ok` when it has
    /// none).
    pub check: Result<(), String>,
}

impl Output {
    /// An artifact without an acceptance check.
    pub fn new(text: String, data: &impl Serialize) -> Self {
        Self::checked(text, data, Ok(()))
    }

    /// An artifact with its check's verdict.
    pub fn checked(text: String, data: &impl Serialize, check: Result<(), String>) -> Self {
        Output {
            text,
            json: data.to_value(),
            check,
        }
    }
}

/// How an entry runs: against the artifact's collector (for sinks that
/// take one, such as [`pstack_autotune::Tuner::with_trace`]) and under its
/// root span. `Err` means the experiment failed and no artifact exists.
pub type RunFn = fn(&Arc<TraceCollector>, &SpanGuard<'_>) -> Result<Output, String>;

/// One `results/` artifact.
pub struct Artifact {
    /// File stem under `results/`.
    pub name: &'static str,
    /// The one function that produces it.
    pub run: RunFn,
}

impl Artifact {
    /// Run the entry on a fresh collector under a root span named after
    /// the artifact.
    pub fn produce(&self) -> (Result<Output, String>, Trace) {
        let collector = Arc::new(TraceCollector::new());
        let out = {
            let root = collector.span(self.name);
            (self.run)(&collector, &root)
        };
        (out, collector.snapshot())
    }
}

/// `Ok` when `ok` holds, else the message `why` builds.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Every `results/` artifact, in regeneration order.
pub static TABLE: &[Artifact] = &[
    Artifact {
        name: "lint_report",
        run: |_, _| {
            let r = pstack_analyze::analyze_shipped();
            let check = ensure(!r.has_errors(), || {
                format!("{} lint error(s)", r.summary().errors)
            });
            Ok(Output::checked(r.render_text(), &r, check))
        },
    },
    Artifact {
        name: "table1_registry",
        run: |_, _| {
            Ok(Output::new(
                registry::render_table1(),
                &registry::knob_registry(),
            ))
        },
    },
    Artifact {
        name: "table2_components",
        run: |_, _| {
            Ok(Output::new(
                catalog::render_table2(),
                &catalog::component_catalog(),
            ))
        },
    },
    Artifact {
        name: "table3_vocabulary",
        run: |_, _| Ok(Output::new(vocab::render_table3(), &vocab::vocabulary())),
    },
    Artifact {
        name: "fig1_end_to_end",
        run: |tc, _| {
            let r = fig1::run_default_traced(tc);
            Ok(Output::new(fig1::render(&r), &r))
        },
    },
    Artifact {
        name: "fig2_interactions",
        run: |_, _| {
            let r = fig2::run_default();
            Ok(Output::new(fig2::render(&r), &r))
        },
    },
    Artifact {
        name: "fig3_geopm_policy",
        run: |_, _| {
            let r = fig3::run_default();
            Ok(Output::new(fig3::render(&r), &r))
        },
    },
    Artifact {
        name: "fig4_ytopt_loop",
        run: |tc, _| {
            let r = fig4::run_default_parallel_traced(tc);
            Ok(Output::new(fig4::render(&r), &r))
        },
    },
    Artifact {
        name: "fig5_feti_regions",
        run: |_, _| {
            let r = fig5::run_default();
            Ok(Output::new(fig5::render(&r), &r))
        },
    },
    Artifact {
        name: "fig6_power_corridor",
        run: |_, _| {
            let r = fig6::run_default();
            Ok(Output::new(fig6::render(&r), &r))
        },
    },
    Artifact {
        name: "uc1_hypre_cotune",
        run: |_, _| {
            let r = uc1::run_default();
            Ok(Output::new(uc1::render(&r), &r))
        },
    },
    Artifact {
        name: "uc3_cross_layer_ytopt",
        run: |_, _| {
            let r = uc3::run().map_err(|e| e.to_string())?;
            Ok(Output::new(uc3::render(&r), &r))
        },
    },
    Artifact {
        name: "uc6_countdown",
        run: |_, _| {
            let r = uc6::run_default();
            Ok(Output::new(uc6::render(&r), &r))
        },
    },
    Artifact {
        name: "uc7_two_runtimes",
        run: |_, _| {
            let r = uc7::run_default();
            Ok(Output::new(uc7::render(&r), &r))
        },
    },
    Artifact {
        name: "ablations",
        run: |_, _| {
            #[derive(Serialize)]
            struct All {
                a1: Vec<ablations::MalleabilityRow>,
                a2: Vec<ablations::VariantRow>,
                a3: Vec<ablations::OverprovisionRow>,
            }
            let a1 = ablations::malleability(&[2, 5, 10, 20, 40], 16, 600.0, 20200910);
            let a2 = ablations::static_variants(&[0.0, 320.0, 260.0, 220.0], 20200911);
            let a3 =
                ablations::overprovisioning(&[4, 6, 8, 10, 12, 16], 4.0 * 450.0, 8, 80.0, 20200912);
            let text = ablations::render(&a1, &a2, &a3);
            Ok(Output::new(text, &All { a1, a2, a3 }))
        },
    },
    Artifact {
        name: "bench_evalthroughput",
        run: |_, root| {
            // `run` itself asserts the exact lane bit-identical and the
            // coarse lane within its bound in every round.
            let r = evalthroughput::run(root);
            let best = r.fig4_kernel.best_speedup();
            let check = ensure(best >= evalthroughput::FIG4_TARGET_SPEEDUP, || {
                format!(
                    "fig4-class speedup {best:.1}x below the {:.0}x target",
                    evalthroughput::FIG4_TARGET_SPEEDUP
                )
            })
            .and_then(|()| {
                ensure(
                    r.fig4_kernel.bit_identical && r.uc3_hypre.bit_identical,
                    || "exact arena path must match the scalar oracle bit-for-bit".to_string(),
                )
            });
            Ok(Output::checked(evalthroughput::render(&r), &r, check))
        },
    },
    Artifact {
        name: "bench_parallel_tuner",
        run: |tc, _| {
            let r = parallel_tuner::run(tc).map_err(|e| e.to_string())?;
            let check = parallel_tuner::check(&r);
            Ok(Output::checked(parallel_tuner::render(&r), &r, check))
        },
    },
    Artifact {
        name: "lockorder",
        run: |_, _| {
            let r = lockorder::run(&pstack_sync::SeedGrid::standard());
            let check = ensure(r.clean, || {
                "schedule explorer found a divergence, inversion, smell, cycle, or \
                 undeclared site"
                    .to_string()
            });
            Ok(Output::checked(lockorder::render(&r), &r, check))
        },
    },
    Artifact {
        name: "ext_emergency",
        run: |_, _| {
            let r = emergency::run_default();
            Ok(Output::new(emergency::render(&r), &r))
        },
    },
    Artifact {
        name: "ext_thermal",
        run: |_, _| {
            let r = thermal::run_default();
            Ok(Output::new(thermal::render(&r), &r))
        },
    },
    Artifact {
        name: "ext_new_runtimes",
        run: |_, _| {
            let r = new_runtimes::run();
            Ok(Output::new(new_runtimes::render(&r), &r))
        },
    },
    Artifact {
        name: "ext_faults",
        run: |_, _| {
            let r = faults::run_default().map_err(|e| e.to_string())?;
            Ok(Output::new(faults::render(&r), &r))
        },
    },
    Artifact {
        name: "ext_resume",
        run: |_, _| {
            let r = resume::run_default().map_err(|e| e.to_string())?;
            Ok(Output::new(resume::render(&r), &r))
        },
    },
    Artifact {
        name: "bench_history",
        run: |_, _| {
            let r = history::run_default().map_err(|e| e.to_string())?;
            let check = r.rows.iter().try_for_each(|row| {
                ensure(row.warmed_fewer, || {
                    format!(
                        "{}: history-warmed campaign needed {:?} fresh evals to the band \
                             vs cold {:?} — no warm-start gain",
                        row.arm, row.warmed_evals_to_target, row.cold_evals_to_target
                    )
                })
            });
            Ok(Output::checked(history::render(&r), &r, check))
        },
    },
    Artifact {
        name: "bench_fleet",
        run: |_, root| {
            let r = fleet::run(root);
            Ok(Output::checked(fleet::render(&r), &r, fleet::check(&r)))
        },
    },
    Artifact {
        name: "bench_fleetfaults",
        run: |_, root| {
            let r = fleetfaults::run(root);
            Ok(Output::checked(
                fleetfaults::render(&r),
                &r,
                fleetfaults::check(&r),
            ))
        },
    },
];

/// The entry named `name`.
pub fn artifact(name: &str) -> Option<&'static Artifact> {
    TABLE.iter().find(|a| a.name == name)
}

/// Run `artifact`, print its text, and write `<name>.txt`, `<name>.json`
/// and `trace_<name>.json` into `dir`; then return its check's verdict.
///
/// The trace is written even when the experiment fails. Write failures are
/// warnings on stderr: the verdict is about the artifact, not the disk.
///
/// # Errors
/// The experiment's error, or the failing check's message with the path of
/// the files it left.
pub fn write(dir: &Path, artifact: &Artifact) -> Result<(), String> {
    let name = artifact.name;
    let start = Instant::now();
    let (out, trace) = artifact.produce();
    eprintln!("[{name}: {:.1}s]", start.elapsed().as_secs_f64());
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    let save = |file: String, contents: &str| {
        let path = dir.join(file);
        if let Err(e) = fs::write(&path, contents) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    };
    save(
        format!("trace_{name}.json"),
        &pstack_trace::to_chrome(&trace),
    );
    let out = out?;
    println!("{}", out.text);
    save(format!("{name}.txt"), &out.text);
    match serde_json::to_string_pretty(&out.json) {
        Ok(json) => save(format!("{name}.json"), &json),
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
    out.check
        .map_err(|e| format!("{e}; see {}", dir.join(format!("{name}.txt")).display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every committed `results/<name>.json` other than a trace has exactly
    /// one entry, and every entry has a committed `.json`, `.txt` and trace.
    #[test]
    fn table_matches_the_committed_results() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let names: Vec<&str> = TABLE.iter().map(|a| a.name).collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate entry in {names:?}");
        let committed: BTreeSet<String> = fs::read_dir(&results)
            .expect("committed results/")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        let artifacts: BTreeSet<&str> = committed
            .iter()
            .filter(|f| !f.starts_with("trace_"))
            .filter_map(|f| f.strip_suffix(".json"))
            .collect();
        assert_eq!(artifacts, unique, "results/*.json vs TABLE");
        for name in unique {
            for file in [
                format!("{name}.json"),
                format!("{name}.txt"),
                format!("trace_{name}.json"),
            ] {
                assert!(committed.contains(&file), "results/{file} is not committed");
            }
        }
    }

    /// The writer leaves all three files, a Chrome trace rooted at the
    /// artifact's span, and the failing check's verdict.
    #[test]
    fn write_leaves_files_and_returns_the_verdict() {
        let dir = std::env::temp_dir().join(format!("pstack-bench-write-{}", std::process::id()));
        let failing = Artifact {
            name: "unit_test_artifact",
            run: |_, root| {
                let mut span = root.child("work");
                span.attr("step", 1i64);
                Ok(Output::checked(
                    "hello table\n".to_string(),
                    &vec![1, 2, 3],
                    Err("check failed".to_string()),
                ))
            },
        };
        let verdict = write(&dir, &failing);
        assert!(verdict.is_err_and(|e| e.starts_with("check failed")));
        let read = |f: &str| fs::read_to_string(dir.join(f)).expect("file written");
        assert_eq!(read("unit_test_artifact.txt"), "hello table\n");
        assert_eq!(read("unit_test_artifact.json"), "[\n  1,\n  2,\n  3\n]");
        let trace = pstack_trace::from_chrome(&read("trace_unit_test_artifact.json"))
            .expect("valid Chrome trace");
        let root = trace
            .by_name("unit_test_artifact")
            .next()
            .expect("root span");
        let work = trace.by_name("work").next().expect("child span");
        assert_eq!(work.parent, Some(root.id));
        let _ = fs::remove_dir_all(&dir);
    }
}
