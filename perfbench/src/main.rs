//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop driver thread runs one workload. `--trace 0` is the
//! timed run: it prints every end-to-end metric. `--trace 1` is the traced
//! run: untraced and traced passes alternate, and it prints the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. The exit code is nonzero when an output check
//! fails. See `perfbench/README.md` for the workloads and metrics.

mod fleet;
mod measure;
mod tune;

use measure::{
    median, peak_rss_mb, percentile, slower_half, timed_run, traced_run, Pass, RunSummary, Workload,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fleet_loaded|fleet_sparse|tune_fastpath|tune_sessions> \
     --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics `(name, unit)`, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_work_per_kj", "work/kJ"),
];

/// Per-layer metrics `(name, unit)`, as listed in `BENCHMARK.json`. A
/// workload that does not reach a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 47] = [
    ("apps.trace_gen_ns", "ns"),
    ("node.fleet_build_ns", "ns"),
    ("rm.submit_ns", "ns"),
    ("rm.window_ns", "ns"),
    ("rm.windows", "count"),
    ("rm.events", "count"),
    ("rm.ns_per_event", "ns/event"),
    ("rm.enclave_max_event_share", "fraction"),
    ("rm.launches", "count"),
    ("rm.backfills", "count"),
    ("rm.pauses", "count"),
    ("rm.budget_changes", "count"),
    ("rm.rejected", "count"),
    ("rm.failed", "count"),
    ("rm.waiting_jobs_mean", "jobs"),
    ("rm.running_jobs_mean", "jobs"),
    ("rm.alloc_node_s", "node-s"),
    ("rm.ns_per_alloc_node_s", "ns/node-s"),
    ("rm.power_sample_ns", "ns"),
    ("rm.idle_node_s", "node-s"),
    ("rm.ns_per_idle_node_s", "ns/node-s"),
    ("rm.site_metrics_ns", "ns"),
    ("rm.utilization", "fraction"),
    ("autotune.campaign_ns", "ns"),
    ("autotune.session_ns", "ns"),
    ("autotune.suggest_ns", "ns"),
    ("autotune.suggest_calls", "count"),
    ("autotune.driver_ns", "ns"),
    ("autotune.cache_hit_ratio", "fraction"),
    ("autotune.priors", "count"),
    ("core.evaluate_ns", "ns"),
    ("core.evaluate_calls", "count"),
    ("core.arena_reuse_ratio", "fraction"),
    ("history.seed_ns", "ns"),
    ("history.ask_ns", "ns"),
    ("history.tell_ns", "ns"),
    ("history.records_end", "count"),
    ("history.store_bytes_end", "bytes"),
    ("history.ns_per_record", "ns/record"),
    ("sim_mean_wait_s", "sim_s"),
    ("sim_over_budget_frac", "fraction"),
    ("sim_best_objective", "objective"),
    ("failed_frac", "fraction"),
    ("trace.untraced_throughput_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("trace.dropped", "count"),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected whole seconds"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("expected 1 to 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if throughput_unit(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What the throughput of a workload counts.
fn throughput_unit(workload: &str) -> Option<&'static str> {
    Some(match workload {
        "fleet_loaded" | "fleet_sparse" => "simulated node-hours per host second",
        "tune_fastpath" => "evaluations per host second",
        "tune_sessions" => "sessions per host second",
        _ => return None,
    })
}

fn run<W: Workload>(w: &W, args: &Args) -> RunSummary {
    if args.trace {
        traced_run(w, args.seconds as f64)
    } else {
        timed_run(w, args.seconds as f64)
    }
}

/// Median per-pass throughput.
fn throughput(passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|p| p.work / p.drive_s).collect();
    median(&rates)
}

/// Metrics of the run plus every check that failed.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    violations: Vec<String>,
    lines: Vec<String>,
}

fn report(args: &Args, run: &RunSummary) -> Report {
    let all: Vec<&Pass> = run.untraced.iter().chain(&run.passes).collect();
    let mut violations: Vec<String> = all
        .iter()
        .flat_map(|p| p.violations.iter().cloned())
        .collect();
    let first = &run.passes[0];
    // Every pass replays the same seeded input: exact outputs must repeat,
    // with tracing on or off.
    if let Some(p) = all
        .iter()
        .find(|p| p.fingerprint != first.fingerprint || p.sim != first.sim)
    {
        violations.push(format!(
            "outputs differ between passes of one seed: {:x} {:?} vs {:x} {:?}",
            first.fingerprint, first.sim, p.fingerprint, p.sim
        ));
    }
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let ops: usize = run.passes.iter().map(|p| p.ops_s.len()).sum();
    let tp_unit = throughput_unit(&args.workload).expect("workload was validated");
    let mut lines = vec![
        format!(
            "perfbench {} seed {} {} s {}",
            args.workload,
            args.seed,
            args.seconds,
            if args.trace { "traced" } else { "timed" }
        ),
        format!(
            "{} passes, {} ops ({} per pass), {attempted} items attempted, {failed} failed",
            all.len(),
            ops,
            first.ops_s.len()
        ),
    ];
    let sim = first.sim;
    let modelled = format!(
        "modelled (exact): sim_work_per_kj {} work/kJ, sim_mean_wait_s {} sim_s, \
         sim_over_budget_frac {}, sim_best_objective {}, failed_frac {}",
        sim.work_per_kj,
        sim.mean_wait_s,
        sim.over_budget_frac,
        sim.best_objective,
        failed as f64 / attempted as f64
    );
    let mut metrics = Vec::new();
    if !args.trace {
        let pool = slower_half(&run.passes);
        let ops: Vec<f64> = pool.iter().flat_map(|p| p.ops_s.iter().copied()).collect();
        let setups: Vec<f64> = pool
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        let work: f64 = pool.iter().map(|p| p.work).sum();
        let drive_s: f64 = pool.iter().map(|p| p.drive_s).sum();
        let peak = peak_rss_mb().unwrap_or_else(|| {
            violations.push("peak RSS is unreadable".to_string());
            0.0
        });
        let values = [
            median(&setups),
            work / drive_s,
            percentile(&ops, 0.5) * 1e3,
            percentile(&ops, 0.9) * 1e3,
            peak,
            sim.work_per_kj,
        ];
        let from = format!("slower {} of {} passes", pool.len(), run.passes.len());
        let notes = [
            format!("median of {} set-ups, {from}", setups.len()),
            format!("{tp_unit}, {from}"),
            format!("over {} ops, {from}", ops.len()),
            format!(
                "over {} ops, {} beyond",
                ops.len(),
                ops.len() - (0.9 * ops.len() as f64).ceil() as usize
            ),
            "peak resident set".to_string(),
            "modelled, exact".to_string(),
        ];
        for ((&(name, unit), value), note) in END_TO_END.iter().zip(values).zip(notes) {
            lines.push(format!("{name:<18} {value:>14.6} {unit:<8} {note}"));
            metrics.push((name, value, unit));
        }
        lines.push(modelled);
        let rates: Vec<String> = run
            .passes
            .iter()
            .map(|p| format!("{:.4}", p.work / p.drive_s))
            .collect();
        lines.push(format!("per-pass throughput: {}", rates.join(" ")));
    } else {
        let traced = throughput(&run.passes);
        let untraced = throughput(&run.untraced);
        let exact = |name: &str, unit: &str| !unit.starts_with("ns") && !name.starts_with("trace.");
        for &(name, unit) in &PER_LAYER {
            if exact(name, unit) {
                if let Some(p) = run
                    .passes
                    .iter()
                    .find(|p| p.layers.get(name) != first.layers.get(name))
                {
                    violations.push(format!(
                        "exact counter {name} differs between traced passes: {:?} vs {:?}",
                        first.layers.get(name),
                        p.layers.get(name)
                    ));
                }
            }
        }
        if run.dropped > 0 {
            violations.push(format!("the trace ring dropped {} spans", run.dropped));
        }
        lines.push(format!(
            "untraced throughput {untraced:.6} 1/s ({tp_unit}); traced {traced:.6} 1/s"
        ));
        for &(name, unit) in &PER_LAYER {
            let layer = |p: &Pass| p.layers.get(name).copied().unwrap_or(0.0);
            let value = match name {
                "sim_mean_wait_s" => sim.mean_wait_s,
                "sim_over_budget_frac" => sim.over_budget_frac,
                "sim_best_objective" => sim.best_objective,
                "failed_frac" => failed as f64 / attempted as f64,
                "trace.untraced_throughput_per_s" => untraced,
                "trace.overhead_frac" => untraced / traced - 1.0,
                "trace.spans" => (run.spans / run.passes.len() as u64) as f64,
                "trace.dropped" => run.dropped as f64,
                _ if unit.starts_with("ns") => {
                    median(&run.passes.iter().map(layer).collect::<Vec<_>>())
                }
                _ => layer(first),
            };
            lines.push(format!(
                "{name:<32} {value:>18.4} {unit:<10} untraced throughput {untraced:.4} 1/s"
            ));
            metrics.push((name, value, unit));
        }
        lines.push(modelled);
        lines.push(shares(&metrics));
    }
    for &(name, value, _) in &metrics {
        if !value.is_finite() {
            violations.push(format!("metric {name} is not finite"));
        }
    }
    if !(sim.work_per_kj.is_finite() && sim.work_per_kj > 0.0) {
        violations.push(format!(
            "sim_work_per_kj {} is not positive",
            sim.work_per_kj
        ));
    }
    Report {
        metrics,
        violations,
        lines,
    }
}

/// Where the timed host time of the traced passes went, by layer call.
fn shares(metrics: &[(&str, f64, &str)]) -> String {
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let (total, parts): (f64, &[&str]) = if get("rm.window_ns") > 0.0 {
        let parts = &["rm.window_ns", "rm.power_sample_ns", "rm.site_metrics_ns"];
        (parts.iter().map(|p| get(p)).sum(), parts)
    } else if get("autotune.session_ns") > 0.0 {
        (
            get("autotune.session_ns"),
            &[
                "history.ask_ns",
                "history.tell_ns",
                "core.evaluate_ns",
                "autotune.suggest_ns",
                "autotune.driver_ns",
            ],
        )
    } else {
        (
            get("autotune.campaign_ns"),
            &[
                "core.evaluate_ns",
                "autotune.suggest_ns",
                "autotune.driver_ns",
            ],
        )
    };
    let listed: Vec<String> = parts
        .iter()
        .map(|p| format!("{p} {:.1}%", 100.0 * get(p) / total))
        .collect();
    format!("host-time shares: {}", listed.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn dispatch(args: &Args, work_dir: &Path) -> RunSummary {
    match args.workload.as_str() {
        "fleet_loaded" => run(
            &fleet::Fleet {
                shape: fleet::LOADED,
                seed: args.seed,
            },
            args,
        ),
        "fleet_sparse" => run(
            &fleet::Fleet {
                shape: fleet::SPARSE,
                seed: args.seed,
            },
            args,
        ),
        "tune_fastpath" => run(&tune::Fastpath { seed: args.seed }, args),
        "tune_sessions" => run(
            &tune::Sessions {
                seed: args.seed,
                work_dir: work_dir.to_path_buf(),
            },
            args,
        ),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Stores live inside the checkout, one directory per process.
    let work_root = PathBuf::from(".bench_work");
    let work_dir = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let summary = dispatch(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&work_root);

    let rep = report(&args, &summary);
    let all = summary.untraced.iter().chain(&summary.passes);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let failed: u64 = all.map(|p| p.failed).sum();
    for line in &rep.lines {
        println!("{line}");
    }
    for v in &rep.violations {
        println!("CHECK FAILED: {v}");
    }
    if rep.violations.is_empty() {
        println!("checks: ok");
    }
    let correct = rep.violations.is_empty();
    println!("{}", result_json(correct, attempted, failed, &rep.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("--workload tune_sessions --seed 4 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "tune_sessions".to_string(),
                seed: 4,
                seconds: 10,
                trace: true
            })
        );
        assert!(args("--workload nope --seed 4 --seconds 10 --trace 1").is_err());
        assert!(args("--workload fleet_loaded --seed 4 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fleet_loaded --seed 4 --seconds 10").is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(serde::Value::Seq(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => {
                            (n.clone(), u.clone())
                        }
                        _ => panic!("{key} entry lacks a name or unit"),
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[("setup_s", 0.25, "s"), ("op_p50_ms", 1.5, "ms")],
        );
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(matches!(v.get("correct"), Some(serde::Value::Bool(true))));
        assert!(v.get("metrics").and_then(|m| m.get("op_p50_ms")).is_some());
    }
}
