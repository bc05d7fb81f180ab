//! Plain-data snapshot of a [`crate::MetricsRecorder`], with a JSON
//! emitter and a human-readable table renderer.

use crate::counters::Counter;
use crate::histogram::HistogramSnapshot;
use crate::json::Json;
use crate::recorder::{Hist, Phase};

/// Schema tag written into every emitted document.
pub const SCHEMA: &str = "kmm-telemetry/v1";

/// Accumulated time for one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Dotted phase name, e.g. `"index.sa"`.
    pub name: String,
    /// Stage the phase belongs to: `"index"`, `"preprocess"`, or `"search"`.
    pub stage: String,
    /// Number of spans credited to this phase.
    pub entries: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
}

/// Value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Everything a recorder collected, detached from the atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub phases: Vec<PhaseSnapshot>,
    pub counters: Vec<CounterSnapshot>,
    /// `(name, histogram)` pairs in declaration order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Phase entry by enum (always present in recorder-made snapshots).
    pub fn phase(&self, phase: Phase) -> &PhaseSnapshot {
        self.phases
            .iter()
            .find(|p| p.name == phase.name())
            .expect("snapshot is missing a declared phase")
    }

    /// Counter value by enum, 0 if absent.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == counter.name())
            .map_or(0, |c| c.value)
    }

    /// Histogram by enum, if present.
    pub fn histogram(&self, hist: Hist) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(name, _)| name == hist.name())
            .map(|(_, h)| h)
    }

    /// Total nanoseconds across all phases of one stage
    /// (`"index"` / `"preprocess"` / `"search"`).
    pub fn stage_total_ns(&self, stage: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.stage == stage)
            .map(|p| p.total_ns)
            .sum()
    }

    /// Emit the full snapshot as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|p| {
                            (
                                p.name.clone(),
                                Json::obj([
                                    ("stage", Json::Str(p.stage.clone())),
                                    ("entries", Json::UInt(p.entries)),
                                    ("total_ns", Json::UInt(p.total_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|c| (c.name.clone(), Json::UInt(c.value)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(name, h)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("count", Json::UInt(h.count)),
                                    ("sum", Json::UInt(h.sum)),
                                    ("min", Json::UInt(h.min)),
                                    ("max", Json::UInt(h.max)),
                                    // Derived, recomputable from the
                                    // buckets, for consumers that don't
                                    // want to walk them.
                                    ("p50", Json::Float(h.percentile(0.50))),
                                    ("p95", Json::Float(h.percentile(0.95))),
                                    ("p99", Json::Float(h.percentile(0.99))),
                                    (
                                        "buckets",
                                        Json::Arr(
                                            h.buckets.iter().map(|&n| Json::UInt(n)).collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Render a human-readable table (phases with nonzero entries,
    /// nonzero counters, populated histograms).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("phase                     entries     total       mean\n");
        for stage in ["index", "preprocess", "search"] {
            for p in self.phases.iter().filter(|p| p.stage == stage) {
                if p.entries == 0 {
                    continue;
                }
                let mean = p.total_ns / p.entries;
                out.push_str(&format!(
                    "  {:<22} {:>8} {:>9} {:>10}\n",
                    p.name,
                    p.entries,
                    fmt_ns(p.total_ns),
                    fmt_ns(mean),
                ));
            }
            let total = self.stage_total_ns(stage);
            if total > 0 {
                out.push_str(&format!(
                    "  {:<22} {:>8} {:>9}\n",
                    format!("{stage} total"),
                    "",
                    fmt_ns(total)
                ));
            }
        }
        out.push_str("counter                     value\n");
        for c in &self.counters {
            if c.value > 0 {
                out.push_str(&format!("  {:<24} {:>7}\n", c.name, c.value));
            }
        }
        let populated: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !populated.is_empty() {
            out.push_str(
                "histogram                   count       min       p50       p95       p99       max\n",
            );
            for (name, h) in populated {
                out.push_str(&format!(
                    "  {:<24} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                    name,
                    h.count,
                    h.min,
                    fmt_f64(h.percentile(0.50)),
                    fmt_f64(h.percentile(0.95)),
                    fmt_f64(h.percentile(0.99)),
                    h.max,
                ));
            }
        }
        out
    }
}

/// Render an interpolated percentile compactly: integers without a
/// fraction, everything else with one decimal.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Render nanoseconds at a human scale (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{}µs", ns / 1_000)
    } else if ns < 10_000_000_000 {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{:.1}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MetricsRecorder, Recorder};

    fn populated_snapshot() -> MetricsSnapshot {
        let rec = MetricsRecorder::new();
        {
            let _s = rec.span(Phase::IndexSa);
        }
        {
            let _s = rec.span(Phase::PreprocessRarray);
        }
        {
            let _s = rec.span(Phase::SearchQuery);
        }
        rec.add(Counter::Queries, 1);
        rec.add(Counter::Leaves, 42);
        rec.add(Counter::Occurrences, u64::MAX);
        rec.observe(Hist::SearchLatencyNs, 0);
        rec.observe(Hist::SearchLatencyNs, 1);
        rec.observe(Hist::SearchLatencyNs, u64::MAX);
        rec.observe(Hist::IntervalWidth, 1024);
        rec.observe(Hist::TerminationDepth, 33);
        rec.snapshot()
    }

    #[test]
    fn snapshot_contains_every_stage() {
        let snap = MetricsRecorder::new().snapshot();
        let json = snap.to_json();
        let phases = json.get("phases").and_then(Json::as_object).unwrap();
        for stage in ["index", "preprocess", "search"] {
            assert!(
                phases
                    .iter()
                    .any(|(_, p)| p.get("stage").and_then(Json::as_str) == Some(stage)),
                "no phase with stage {stage:?} in emitted JSON"
            );
        }
        for c in Counter::ALL {
            assert!(json.get("counters").unwrap().get(c.name()).is_some());
        }
        for h in Hist::ALL {
            assert!(json.get("histograms").unwrap().get(h.name()).is_some());
        }
    }

    #[test]
    fn render_shows_active_rows_only() {
        let text = populated_snapshot().render();
        assert!(text.contains("index.sa"));
        assert!(text.contains("preprocess.rarray"));
        assert!(text.contains("search.query"));
        assert!(text.contains("search.leaves"));
        assert!(text.contains("42"));
        assert!(text.contains("search.latency_ns"));
        // Untouched phases and counters stay out of the table.
        assert!(!text.contains("index.load"));
        assert!(!text.contains("map.reads_total"));
    }

    #[test]
    fn json_carries_derived_percentiles() {
        let snap = populated_snapshot();
        let json = snap.to_json();
        let h = json
            .get("histograms")
            .unwrap()
            .get("search.latency_ns")
            .unwrap();
        for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let emitted = h.get(key).unwrap().as_f64().unwrap();
            let expected = snap.histogram(Hist::SearchLatencyNs).unwrap().percentile(q);
            assert_eq!(emitted, expected, "{key} mismatch");
        }
        let text = snap.render();
        assert!(text.contains("p50"));
        assert!(text.contains("p95"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn stage_totals_sum_member_phases() {
        let snap = populated_snapshot();
        let index_sum: u64 = snap
            .phases
            .iter()
            .filter(|p| p.stage == "index")
            .map(|p| p.total_ns)
            .sum();
        assert_eq!(snap.stage_total_ns("index"), index_sum);
        assert_eq!(snap.stage_total_ns("nonexistent"), 0);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(25_000), "25µs");
        assert_eq!(fmt_ns(25_000_000), "25ms");
        assert_eq!(fmt_ns(12_500_000_000), "12.5s");
    }
}
