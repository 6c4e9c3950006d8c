//! Regression suite for the `pstack-trace` observability layer.
//!
//! Three contracts:
//!
//! 1. **Every tuning driver self-profiles.** `run`, `run_parallel`,
//!    `run_resilient` and `run_parallel_resilient` must all return a
//!    [`TuneReport`] whose `profile` is populated — counts, cache and retry
//!    attribution included — while the canonical replay-stable JSON stays
//!    byte-identical to the pre-trace era (no `profile` key).
//! 2. **Worker-count invariance.** The profile's *structural* stats (stage
//!    counts, cache hits/misses, retries) must not depend on how many
//!    workers evaluated the batches; only wall times may differ.
//! 3. **The exporter round-trips.** A real tuning trace survives the Chrome
//!    format losslessly, and the trace file `pstack_bench::write` leaves
//!    beside an artifact parses back with the artifact's root span.

#![allow(clippy::disallowed_methods)]

use powerstack::autotune::{EvalError, ForestSearch, RandomSearch, Robustness, TuneReport, Tuner};
use powerstack::prelude::{Param, ParamSpace};
use powerstack::trace::{from_chrome, to_chrome, TraceCollector};
use std::collections::HashMap;

fn space() -> ParamSpace {
    ParamSpace::new()
        .with(Param::ints("x", 0..12))
        .with(Param::ints("y", 0..12))
}

fn bowl(c: &[usize]) -> f64 {
    (c[0] as f64 - 7.0).powi(2) + (c[1] as f64 - 3.0).powi(2)
}

fn tuner(seed: u64) -> Tuner {
    Tuner::new(space()).max_evals(24).seed(seed)
}

fn all_driver_reports(seed: u64, workers: usize) -> Vec<(&'static str, TuneReport)> {
    let serial = tuner(seed)
        .run(&mut RandomSearch::new(), |_, c| (bowl(c), HashMap::new()))
        .unwrap();
    let parallel = tuner(seed)
        .run_parallel(&mut RandomSearch::new(), workers, |_, c| {
            (bowl(c), HashMap::new())
        })
        .unwrap();
    let resilient = tuner(seed)
        .run_resilient(
            &mut RandomSearch::new(),
            None,
            &Robustness::default(),
            |_, c, _| Ok((bowl(c), HashMap::new())),
        )
        .unwrap();
    let parallel_resilient = tuner(seed)
        .run_parallel_resilient(
            &mut RandomSearch::new(),
            None,
            &Robustness::default(),
            workers,
            |_, c, _| Ok((bowl(c), HashMap::new())),
        )
        .unwrap();
    vec![
        ("run", serial),
        ("run_parallel", parallel),
        ("run_resilient", resilient),
        ("run_parallel_resilient", parallel_resilient),
    ]
}

#[test]
fn every_driver_returns_a_populated_profile() {
    for (driver, report) in all_driver_reports(11, 4) {
        let p = &report.profile;
        assert!(!p.is_empty(), "{driver}: profile must be populated");
        assert!(p.wall_s > 0.0, "{driver}: wall clock must advance");
        assert!(
            p.stages.contains_key("suggest") && p.stages.contains_key("evaluate"),
            "{driver}: suggest + evaluate stages expected, got {:?}",
            p.stages.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            p.stages["evaluate"].count, report.cache.misses,
            "{driver}: one evaluate sample per real evaluation"
        );
        assert_eq!(p.cache_hits, report.cache.hits, "{driver}");
        assert_eq!(p.cache_misses, report.cache.misses, "{driver}");
        for (stage, s) in &p.stages {
            assert!(s.count > 0, "{driver}/{stage}: empty stage recorded");
            assert!(
                s.total_s.is_finite() && s.mean_s.is_finite() && s.p95_s.is_finite(),
                "{driver}/{stage}: non-finite timing"
            );
            assert!(
                s.p95_s <= s.max_s * (1.0 + 1e-12),
                "{driver}/{stage}: p95 {} exceeds max {}",
                s.p95_s,
                s.max_s
            );
        }
    }
}

#[test]
fn profile_structure_is_worker_count_invariant() {
    let one = all_driver_reports(29, 1);
    let many = all_driver_reports(29, 7);
    for ((driver, a), (_, b)) in one.iter().zip(many.iter()) {
        let (pa, pb) = (&a.profile, &b.profile);
        let counts = |p: &powerstack::trace::ProfileSummary| {
            p.stages
                .iter()
                .map(|(k, s)| (k.clone(), s.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            counts(pa),
            counts(pb),
            "{driver}: stage counts must not depend on worker count"
        );
        assert_eq!(pa.cache_hits, pb.cache_hits, "{driver}");
        assert_eq!(pa.cache_misses, pb.cache_misses, "{driver}");
        assert_eq!(pa.retries, pb.retries, "{driver}");
        // The tuning outcome itself is already worker-invariant (chaos
        // suite); re-assert the linkage here for the trace layer.
        assert_eq!(a.best_config, b.best_config, "{driver}");
        assert_eq!(a.cache, b.cache, "{driver}");
    }
}

#[test]
fn canonical_report_json_has_no_profile_key() {
    for (driver, report) in all_driver_reports(3, 4) {
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            !json.contains("\"profile\"") && !json.contains("wall_s"),
            "{driver}: profile leaked into replay-stable JSON"
        );
        let back: TuneReport = serde_json::from_str(&json).unwrap();
        assert!(
            back.profile.is_empty(),
            "{driver}: deserialized profile must be empty"
        );
        assert_eq!(back.cache, report.cache, "{driver}");
    }
}

#[test]
fn retries_are_attributed_in_the_profile() {
    let mut attempts: HashMap<String, usize> = HashMap::new();
    let report = tuner(5)
        .run_resilient(
            &mut RandomSearch::new(),
            None,
            &Robustness::default(),
            |_, c, _| {
                let n = attempts.entry(format!("{c:?}")).or_insert(0);
                *n += 1;
                if *n == 1 {
                    Err(EvalError::Failed("first attempt flakes".into()))
                } else {
                    Ok((bowl(c), HashMap::new()))
                }
            },
        )
        .unwrap();
    assert_eq!(report.profile.retries, report.cache.misses);
    assert_eq!(report.profile.retries, report.faults.counts.retries);
}

#[test]
fn exporters_round_trip_a_real_tuning_trace() {
    use std::sync::Arc;
    let collector = Arc::new(TraceCollector::new());
    tuner(17)
        .with_trace(Arc::clone(&collector))
        .run_parallel(&mut ForestSearch::new(), 4, |_, c| {
            (bowl(c), HashMap::new())
        })
        .unwrap();
    let trace = collector.snapshot();
    assert!(!trace.is_empty());

    let chrome = to_chrome(&trace);
    let back = from_chrome(&chrome).expect("chrome export must parse back");
    assert_eq!(
        trace.spans, back.spans,
        "chrome round-trip must be lossless"
    );
    assert_eq!(trace.dropped, back.dropped);
}

#[test]
fn bench_traced_artifact_is_a_valid_chrome_trace() {
    // The writer every results/ artifact goes through, pointed at a
    // scratch dir: the trace it leaves must round-trip.
    let tmp = std::env::temp_dir().join("pstack-trace-observability-test");
    let artifact = pstack_bench::Artifact {
        name: "observability_check",
        run: |tc, _root| {
            tuner(23)
                .with_trace(std::sync::Arc::clone(tc))
                .run_parallel(&mut RandomSearch::new(), 3, |_, c| {
                    (bowl(c), HashMap::new())
                })
                .map_err(|e| e.to_string())?;
            Ok(pstack_bench::Output::new(String::new(), &Vec::<u8>::new()))
        },
    };
    pstack_bench::write(&tmp, &artifact).expect("no check to fail");
    let raw = std::fs::read_to_string(tmp.join("trace_observability_check.json"))
        .expect("write() must leave the trace");
    let trace = from_chrome(&raw).expect("artifact must be a valid Chrome trace");
    assert!(trace.by_name("observability_check").next().is_some());
    assert!(trace.by_name("tuner.run_parallel").next().is_some());
    assert!(trace.by_name("eval").next().is_some());
    let _ = std::fs::remove_dir_all(&tmp);
}
