//! Prometheus text-exposition rendering of a [`MetricsSnapshot`].
//!
//! Emits format version 0.0.4 (the plain-text format every Prometheus
//! scraper accepts): counters as `kmm_<name>_total`, phase timers as a
//! labelled seconds counter plus an entry counter, and each log2
//! histogram as a native Prometheus histogram with cumulative
//! `_bucket{le="..."}` series, `_sum`, and `_count`. Dots in our metric
//! names become underscores (`search.nodes_visited` →
//! `kmm_search_nodes_visited_total`). Every series carries `# HELP` and
//! `# TYPE` headers, and every registered counter is emitted even at
//! zero, so the family set a scraper sees is identical before and after
//! the first query.
//!
//! Bucket boundaries are the histograms' inclusive upper bounds
//! re-expressed as Prometheus `le` thresholds; buckets above the highest
//! populated one are elided (they would all repeat the final cumulative
//! count), keeping the exposition small while remaining cumulative and
//! `+Inf`-terminated as the format requires.

use crate::alloc::{MemPhase, MemStats};
use crate::histogram::{bucket_upper_bound, HistogramSnapshot};
use crate::snapshot::MetricsSnapshot;

/// Rewrite a dotted metric name into a Prometheus metric identifier.
fn prom_name(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Append one histogram in exposition format, with its headers.
fn render_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let highest = h.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().enumerate().take(highest + 1) {
        cumulative += n;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            bucket_upper_bound(i)
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Render the whole snapshot as Prometheus text exposition.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    for c in &snapshot.counters {
        let name = format!("kmm_{}_total", prom_name(&c.name));
        out.push_str(&format!("# HELP {name} Monotonic event counter.\n"));
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }

    out.push_str(
        "# HELP kmm_phase_seconds_total Wall-clock seconds credited to each pipeline phase.\n",
    );
    out.push_str("# TYPE kmm_phase_seconds_total counter\n");
    for p in &snapshot.phases {
        out.push_str(&format!(
            "kmm_phase_seconds_total{{phase=\"{}\"}} {}\n",
            escape_label(&p.name),
            p.total_ns as f64 / 1e9
        ));
    }
    out.push_str("# HELP kmm_phase_entries_total Spans credited to each pipeline phase.\n");
    out.push_str("# TYPE kmm_phase_entries_total counter\n");
    for p in &snapshot.phases {
        out.push_str(&format!(
            "kmm_phase_entries_total{{phase=\"{}\"}} {}\n",
            escape_label(&p.name),
            p.entries
        ));
    }

    for (name, h) in &snapshot.histograms {
        render_histogram(
            &mut out,
            &format!("kmm_{}", prom_name(name)),
            "Log2-bucketed value distribution.",
            h,
        );
    }

    out
}

/// Render the allocator's ledgers ([`crate::mem_stats`]) as Prometheus
/// gauges/counters. Emits the full family set even when tracking is
/// disabled (all zeros), so scrapes are shape-stable.
pub fn prometheus_mem_text(stats: &MemStats) -> String {
    let mut out = String::new();
    out.push_str("# HELP kmm_mem_live_bytes Heap bytes currently live (counting allocator).\n");
    out.push_str("# TYPE kmm_mem_live_bytes gauge\n");
    out.push_str(&format!("kmm_mem_live_bytes {}\n", stats.live_bytes));
    out.push_str("# HELP kmm_mem_peak_bytes Highest live-heap watermark since process start.\n");
    out.push_str("# TYPE kmm_mem_peak_bytes gauge\n");
    out.push_str(&format!("kmm_mem_peak_bytes {}\n", stats.peak_bytes));
    out.push_str(
        "# HELP kmm_mem_phase_allocated_bytes_total Bytes allocated while each phase was active.\n",
    );
    out.push_str("# TYPE kmm_mem_phase_allocated_bytes_total counter\n");
    for phase in MemPhase::ALL {
        out.push_str(&format!(
            "kmm_mem_phase_allocated_bytes_total{{mem_phase=\"{}\"}} {}\n",
            phase.name(),
            stats.phase(phase).allocated_bytes
        ));
    }
    out.push_str("# HELP kmm_mem_phase_allocations_total Allocations charged to each phase.\n");
    out.push_str("# TYPE kmm_mem_phase_allocations_total counter\n");
    for phase in MemPhase::ALL {
        out.push_str(&format!(
            "kmm_mem_phase_allocations_total{{mem_phase=\"{}\"}} {}\n",
            phase.name(),
            stats.phase(phase).allocations
        ));
    }
    out.push_str(
        "# HELP kmm_mem_phase_peak_live_bytes Peak live heap observed while each phase was active.\n",
    );
    out.push_str("# TYPE kmm_mem_phase_peak_live_bytes gauge\n");
    for phase in MemPhase::ALL {
        out.push_str(&format!(
            "kmm_mem_phase_peak_live_bytes{{mem_phase=\"{}\"}} {}\n",
            phase.name(),
            stats.phase(phase).peak_live_bytes
        ));
    }
    out
}

impl MetricsSnapshot {
    /// Prometheus text exposition of this snapshot
    /// (see [`prometheus_text`]).
    pub fn to_prometheus(&self) -> String {
        prometheus_text(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Hist, MetricsRecorder, Phase, Recorder};
    use crate::Counter;

    fn sample() -> MetricsSnapshot {
        let rec = MetricsRecorder::new();
        rec.add(Counter::Queries, 7);
        {
            let _span = rec.span(Phase::SearchQuery);
        }
        for v in [3u64, 5, 100] {
            rec.observe(Hist::SearchLatencyNs, v);
        }
        rec.snapshot()
    }

    #[test]
    fn exposition_has_typed_counters_and_histograms() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE kmm_search_queries_total counter"));
        assert!(text.contains("kmm_search_queries_total 7"));
        assert!(text.contains("# TYPE kmm_search_latency_ns histogram"));
        assert!(text.contains("kmm_phase_entries_total{phase=\"search.query\"} 1"));
        // Every non-comment line is `name{labels} value` with a numeric
        // value; every metric line is preceded somewhere by its # TYPE.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        }
    }

    #[test]
    fn every_series_has_help_and_type_headers() {
        let text = sample().to_prometheus();
        let metric_base = |line: &str| -> String {
            let name = line.split([' ', '{']).next().unwrap().to_string();
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(base) = name.strip_suffix(suffix) {
                    // Histogram child series belong to the base family —
                    // unless the full name is itself a declared family
                    // (e.g. the `..._total` counters ending in `_count`).
                    if text.contains(&format!("# TYPE {base} histogram")) {
                        return base.to_string();
                    }
                }
            }
            name
        };
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let base = metric_base(line);
            assert!(
                text.contains(&format!("# TYPE {base} ")),
                "no TYPE header for {base}"
            );
            assert!(
                text.contains(&format!("# HELP {base} ")),
                "no HELP header for {base}"
            );
        }
    }

    #[test]
    fn zero_counters_are_still_emitted() {
        // A scrape before any query must expose the full counter family
        // set, including the deterministic cost counters, all at zero.
        let text = MetricsRecorder::new().snapshot().to_prometheus();
        for c in Counter::ALL {
            let name = format!("kmm_{}_total", prom_name(c.name()));
            assert!(text.contains(&format!("{name} 0\n")), "missing {name}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_terminated() {
        let text = sample().to_prometheus();
        // Observations 3, 5, 100 → buckets le="3":1, le="7":2, then the
        // elided middle, and le="127":3 as the highest populated bucket.
        assert!(text.contains("kmm_search_latency_ns_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("kmm_search_latency_ns_bucket{le=\"7\"} 2\n"));
        assert!(text.contains("kmm_search_latency_ns_bucket{le=\"127\"} 3\n"));
        assert!(text.contains("kmm_search_latency_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("kmm_search_latency_ns_sum 108\n"));
        assert!(text.contains("kmm_search_latency_ns_count 3\n"));
        // Cumulative counts never decrease, and +Inf equals _count.
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("kmm_search_latency_ns_bucket") {
                let v: u64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(v >= last);
                last = v;
                if rest.contains("+Inf") {
                    inf = Some(v);
                }
            }
        }
        assert_eq!(inf, Some(3));
    }

    #[test]
    fn empty_snapshot_still_renders_valid_text() {
        let text = MetricsRecorder::new().snapshot().to_prometheus();
        assert!(text.contains("# TYPE"));
        assert!(text.contains("kmm_search_latency_ns_bucket{le=\"+Inf\"} 0\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        // Combined: each hazard escaped independently.
        assert_eq!(escape_label("\"\\\n"), "\\\"\\\\\\n");
    }

    #[test]
    fn mem_text_is_shape_stable_and_typed() {
        let stats = crate::alloc::mem_stats();
        let text = prometheus_mem_text(&stats);
        assert!(text.contains("# TYPE kmm_mem_live_bytes gauge"));
        assert!(text.contains("# HELP kmm_mem_peak_bytes "));
        for phase in MemPhase::ALL {
            assert!(text.contains(&format!(
                "kmm_mem_phase_allocated_bytes_total{{mem_phase=\"{}\"}}",
                phase.name()
            )));
        }
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
        }
    }
}
