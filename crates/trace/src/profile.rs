//! Self-profiling summaries: where a run spent its time.
//!
//! [`ProfileBuilder`] accumulates per-stage duration samples plus cache and
//! retry attribution while a driver runs; [`ProfileBuilder::finish`] folds
//! them into a [`ProfileSummary`] (count / total / mean / p95 / max per
//! stage). The summary is what `TuneReport` embeds and what
//! `pstack_trace summary`/`diff` compute from an exported trace file.
//!
//! Determinism note: stage *counts* and cache/retry attribution are pure
//! functions of the search trajectory, so they are invariant across worker
//! counts; the timing fields are wall-clock measurements and are not. The
//! summary is therefore excluded from a report's canonical JSON (which must
//! replay byte-identically) and rendered separately.

use crate::collector::Trace;
use crate::json::{parse, Json};
use crate::span::AttrValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Aggregate timing of one named stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Samples recorded.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Mean duration, seconds.
    pub mean_s: f64,
    /// 95th-percentile duration, seconds (nearest-rank).
    pub p95_s: f64,
    /// Longest sample, seconds.
    pub max_s: f64,
}

impl StageStats {
    fn from_samples(samples: &mut [f64]) -> StageStats {
        if samples.is_empty() {
            return StageStats::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let count = samples.len();
        let total_s: f64 = samples.iter().sum();
        let rank = ((count as f64) * 0.95).ceil() as usize;
        StageStats {
            count,
            total_s,
            mean_s: total_s / count as f64,
            p95_s: samples[rank.clamp(1, count) - 1],
            max_s: samples[count - 1],
        }
    }
}

/// Where one run spent its time, plus cache/retry attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSummary {
    /// Wall-clock duration of the whole run, seconds.
    pub wall_s: f64,
    /// Per-stage stats, keyed by stage name (sorted).
    pub stages: BTreeMap<String, StageStats>,
    /// Evaluations answered from the cache.
    pub cache_hits: usize,
    /// Evaluations that actually ran.
    pub cache_misses: usize,
    /// Retry attempts across all evaluations.
    pub retries: usize,
}

impl ProfileSummary {
    /// True when nothing was recorded (the "no profiling happened" state a
    /// populated report must never carry).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty() && self.wall_s == 0.0
    }

    /// Render a fixed-width table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "wall {:.3}s | cache {} hit / {} miss | {} retries\n",
            self.wall_s, self.cache_hits, self.cache_misses, self.retries
        );
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "total_s", "mean_s", "p95_s", "max_s"
        );
        for (name, s) in &self.stages {
            let _ = writeln!(
                out,
                "{name:<18} {:>7} {:>10.4} {:>10.6} {:>10.6} {:>10.6}",
                s.count, s.total_s, s.mean_s, s.p95_s, s.max_s
            );
        }
        out
    }

    /// Serialize as one JSON object (the crate's own codec).
    pub fn to_json(&self) -> String {
        let stages = Json::Obj(
            self.stages
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::Int(s.count as i64)),
                            ("total_s".into(), Json::Float(s.total_s)),
                            ("mean_s".into(), Json::Float(s.mean_s)),
                            ("p95_s".into(), Json::Float(s.p95_s)),
                            ("max_s".into(), Json::Float(s.max_s)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("wall_s".into(), Json::Float(self.wall_s)),
            ("stages".into(), stages),
            ("cache_hits".into(), Json::Int(self.cache_hits as i64)),
            ("cache_misses".into(), Json::Int(self.cache_misses as i64)),
            ("retries".into(), Json::Int(self.retries as i64)),
        ])
        .to_string()
    }

    /// Parse a summary produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<ProfileSummary, String> {
        let doc = parse(text)?;
        let field = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let count = |key: &str| -> Result<usize, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let mut stages = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("stages") {
            for (name, s) in members {
                let get = |key: &str| -> Result<f64, String> {
                    s.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("stage {name:?} missing {key:?}"))
                };
                stages.insert(
                    name.clone(),
                    StageStats {
                        count: s
                            .get("count")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("stage {name:?} missing count"))?
                            as usize,
                        total_s: get("total_s")?,
                        mean_s: get("mean_s")?,
                        p95_s: get("p95_s")?,
                        max_s: get("max_s")?,
                    },
                );
            }
        }
        Ok(ProfileSummary {
            wall_s: field("wall_s")?,
            stages,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
            retries: count("retries")?,
        })
    }

    /// Compute a summary from an exported trace: stages are span names,
    /// cache hits are `cache_hit` events, retries are `retry` events plus
    /// spans with an `attempt` attribute > 0.
    pub fn from_trace(trace: &Trace) -> ProfileSummary {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        let mut retries = 0usize;
        let mut wall_s = 0.0f64;
        for span in &trace.spans {
            samples
                .entry(span.name.clone())
                .or_default()
                .push(span.dur_s());
            wall_s = wall_s.max((span.start_ns + span.dur_ns) as f64 / 1e9);
            if span.name == "eval" {
                cache_misses += 1;
            }
            match span.attr("attempt") {
                Some(AttrValue::Int(a)) if *a > 0 => retries += *a as usize,
                _ => {}
            }
            for event in &span.events {
                match event.name.as_str() {
                    "cache_hit" => cache_hits += 1,
                    "retry" => retries += 1,
                    _ => {}
                }
            }
        }
        ProfileSummary {
            wall_s,
            stages: samples
                .iter_mut()
                .map(|(name, s)| (name.clone(), StageStats::from_samples(s)))
                .collect(),
            cache_hits,
            cache_misses,
            retries,
        }
    }

    /// Render a side-by-side diff of two summaries (per-stage count and
    /// total deltas) — the `pstack_trace diff` output.
    pub fn diff(&self, other: &ProfileSummary) -> String {
        let mut out = format!(
            "wall {:.3}s -> {:.3}s ({:+.3}s)\n",
            self.wall_s,
            other.wall_s,
            other.wall_s - self.wall_s
        );
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>7} {:>8} {:>10} {:>10} {:>11}",
            "stage", "count_a", "count_b", "d_count", "total_a_s", "total_b_s", "d_total_s"
        );
        let names: std::collections::BTreeSet<&String> =
            self.stages.keys().chain(other.stages.keys()).collect();
        for name in names {
            let a = self.stages.get(name).copied().unwrap_or_default();
            let b = other.stages.get(name).copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "{name:<18} {:>7} {:>7} {:>+8} {:>10.4} {:>10.4} {:>+11.4}",
                a.count,
                b.count,
                b.count as i64 - a.count as i64,
                a.total_s,
                b.total_s,
                b.total_s - a.total_s
            );
        }
        let _ = writeln!(
            out,
            "cache: {}h/{}m -> {}h/{}m | retries: {} -> {}",
            self.cache_hits,
            self.cache_misses,
            other.cache_hits,
            other.cache_misses,
            self.retries,
            other.retries
        );
        out
    }
}

/// Accumulates duration samples while a driver runs.
#[derive(Debug)]
pub struct ProfileBuilder {
    start: Instant,
    samples: BTreeMap<String, Vec<f64>>,
    cache_hits: usize,
    cache_misses: usize,
    retries: usize,
}

impl Default for ProfileBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileBuilder {
    /// Start the wall clock.
    pub fn new() -> Self {
        ProfileBuilder {
            start: Instant::now(),
            samples: BTreeMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            retries: 0,
        }
    }

    /// Record one duration sample for `stage`. Only a stage's first sample
    /// allocates its name: the tuning loop samples every proposal.
    pub fn sample(&mut self, stage: &str, dur_s: f64) {
        match self.samples.get_mut(stage) {
            Some(samples) => samples.push(dur_s),
            None => {
                self.samples.insert(stage.to_string(), vec![dur_s]);
            }
        }
    }

    /// Time a closure as one sample of `stage`.
    pub fn time<R>(&mut self, stage: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.sample(stage, t0.elapsed().as_secs_f64());
        out
    }

    /// Account cache hits.
    pub fn cache_hits(&mut self, n: usize) {
        self.cache_hits += n;
    }

    /// Account cache misses.
    pub fn cache_misses(&mut self, n: usize) {
        self.cache_misses += n;
    }

    /// Account retry attempts.
    pub fn retries(&mut self, n: usize) {
        self.retries += n;
    }

    /// Stop the wall clock and fold the samples into a summary.
    pub fn finish(mut self) -> ProfileSummary {
        ProfileSummary {
            wall_s: self.start.elapsed().as_secs_f64(),
            stages: self
                .samples
                .iter_mut()
                .map(|(name, s)| (name.clone(), StageStats::from_samples(s)))
                .collect(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            retries: self.retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_aggregates_stats() {
        let mut b = ProfileBuilder::new();
        for i in 1..=100 {
            b.sample("evaluate", i as f64 / 1000.0);
        }
        b.sample("suggest", 0.5);
        b.cache_hits(3);
        b.cache_misses(100);
        b.retries(2);
        let p = b.finish();
        assert!(!p.is_empty());
        assert!(p.wall_s > 0.0);
        let eval = &p.stages["evaluate"];
        assert_eq!(eval.count, 100);
        assert!((eval.total_s - 5.05).abs() < 1e-9);
        assert!((eval.mean_s - 0.0505).abs() < 1e-9);
        assert!((eval.p95_s - 0.095).abs() < 1e-9, "nearest-rank p95");
        assert!((eval.max_s - 0.1).abs() < 1e-9);
        assert_eq!(p.stages["suggest"].count, 1);
        assert_eq!((p.cache_hits, p.cache_misses, p.retries), (3, 100, 2));
    }

    #[test]
    fn single_sample_stats_are_degenerate_but_sane() {
        let mut samples = vec![2.0];
        let s = StageStats::from_samples(&mut samples);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_s, 2.0);
        assert_eq!(s.mean_s, 2.0);
        assert_eq!(s.p95_s, 2.0);
        assert_eq!(s.max_s, 2.0);
    }

    #[test]
    fn json_round_trips() {
        let mut b = ProfileBuilder::new();
        b.sample("evaluate", 0.25);
        b.sample("evaluate", 0.75);
        b.sample("suggest", 0.01);
        b.cache_hits(1);
        b.cache_misses(2);
        let p = b.finish();
        let back = ProfileSummary::from_json(&p.to_json()).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn render_and_diff_are_readable() {
        let mut a = ProfileBuilder::new();
        a.sample("evaluate", 1.0);
        let a = a.finish();
        let mut b = ProfileBuilder::new();
        b.sample("evaluate", 2.0);
        b.sample("suggest", 0.5);
        let b = b.finish();
        let rendered = a.render();
        assert!(rendered.contains("evaluate"));
        assert!(rendered.contains("count"));
        let diff = a.diff(&b);
        assert!(diff.contains("evaluate"));
        assert!(diff.contains("suggest"));
        assert!(diff.contains("d_total_s"));
    }

    #[test]
    fn from_trace_attributes_cache_and_retries() {
        let collector = crate::collector::TraceCollector::new();
        {
            let mut root = collector.span("tuner.run");
            {
                let mut eval = root.child("eval");
                eval.attr("attempt", 2i64);
            }
            root.child("eval").close();
            root.event("cache_hit");
            root.event("cache_hit");
        }
        let p = ProfileSummary::from_trace(&collector.snapshot());
        assert_eq!(p.stages["eval"].count, 2);
        assert_eq!(p.cache_misses, 2);
        assert_eq!(p.cache_hits, 2);
        assert_eq!(p.retries, 2);
        assert!(p.wall_s > 0.0);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_summary_reports_empty() {
        assert!(ProfileSummary::default().is_empty());
    }
}
