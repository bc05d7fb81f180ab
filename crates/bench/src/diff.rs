//! `kmm bench diff`: compare two `BENCH_*.json` artifacts.
//!
//! The comparison separates two kinds of quantities:
//!
//! * **Deterministic counters** — every [`SearchStats`] field except
//!   [`SearchStats::NONDETERMINISTIC`] (`timeouts`, which depends on
//!   wall-clock deadlines), plus the per-structure index byte
//!   attribution. These are pure functions of (corpus, pattern set, k,
//!   method, index layout): two runs of the same baseline must agree bit
//!   for bit, and any increase is a real algorithmic or layout
//!   regression, not noise.
//! * **Timing** — `seconds` and the latency percentiles. Reported, never
//!   gated: wall-clock varies with the machine and its load, and the
//!   wall-clock gate is the `perfbench` benchmark.

use std::fmt;

use kmm_telemetry::{Json, SearchStats};

use crate::BENCH_SCHEMA;

/// How `diff_documents` decides failure.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Fail when any deterministic counter (or index byte attribution)
    /// grows by more than this percentage.
    pub fail_on_regress: Option<f64>,
    /// Fail on *any* deterministic delta, in either direction, and on any
    /// record present in only one document — the repeat-run check: same
    /// corpus, same seed, same binary must produce identical counters.
    pub assert_identical: bool,
}

/// One deterministic counter that changed between the two documents.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Which record the counter belongs to, e.g. `A(.) n=50000 m=50 k=2`.
    pub record: String,
    /// Canonical counter name (a `SearchStats` key or `index.<field>`).
    pub name: String,
    /// Value in the first (baseline) document.
    pub before: u64,
    /// Value in the second (candidate) document.
    pub after: u64,
}

impl CounterDelta {
    /// Relative change in percent; `+inf` when growing from zero.
    pub fn pct(&self) -> f64 {
        if self.before == self.after {
            0.0
        } else if self.before == 0 {
            f64::INFINITY
        } else {
            (self.after as f64 - self.before as f64) / self.before as f64 * 100.0
        }
    }
}

/// Per-record wall-clock comparison (informational).
#[derive(Debug, Clone)]
pub struct TimeDelta {
    /// Which record, e.g. `A(.) n=50000 m=50 k=2`.
    pub record: String,
    /// Baseline seconds.
    pub before: f64,
    /// Candidate seconds.
    pub after: f64,
}

impl TimeDelta {
    /// Relative change in percent (positive = slower).
    pub fn pct(&self) -> f64 {
        if self.before > 0.0 {
            (self.after - self.before) / self.before * 100.0
        } else {
            0.0
        }
    }
}

/// The full outcome of comparing two bench documents.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Records present in both documents (matched on method/n/m/k).
    pub records_compared: usize,
    /// Deterministic counters compared across those records.
    pub counters_compared: usize,
    /// Every deterministic counter whose value changed.
    pub changed: Vec<CounterDelta>,
    /// Per-record timing comparison (every matched record).
    pub timing: Vec<TimeDelta>,
    /// Record keys present only in the baseline document.
    pub only_in_baseline: Vec<String>,
    /// Record keys present only in the candidate document.
    pub only_in_candidate: Vec<String>,
    /// Human-readable explanations of every gate violation.
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// True when at least one gate fired — the CLI exits nonzero.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// The sorted, deduplicated names of every deterministic counter
    /// that changed. A failed `--assert-identical` run over hundreds of
    /// records can produce a wall of per-record mismatch lines; this is
    /// the compact signature of *which counters* moved, printed with
    /// the verdict so the offender set is readable at a glance.
    pub fn offending_counters(&self) -> Vec<String> {
        let mut names: Vec<String> = self.changed.iter().map(|d| d.name.clone()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compared {} records, {} deterministic counters",
            self.records_compared, self.counters_compared
        )?;
        for key in &self.only_in_baseline {
            writeln!(f, "  only in baseline:  {key}")?;
        }
        for key in &self.only_in_candidate {
            writeln!(f, "  only in candidate: {key}")?;
        }
        if self.changed.is_empty() {
            writeln!(f, "deterministic counters: identical")?;
        } else {
            writeln!(f, "deterministic deltas ({}):", self.changed.len())?;
            for d in &self.changed {
                let pct = d.pct();
                let pct = if pct.is_infinite() {
                    "+inf%".to_string()
                } else {
                    format!("{pct:+.1}%")
                };
                writeln!(
                    f,
                    "  {:<40} {:<24} {} -> {}  ({})",
                    d.record, d.name, d.before, d.after, pct
                )?;
            }
        }
        // Timing is always informational; print only meaningful movement
        // to keep repeat runs quiet.
        let moved: Vec<&TimeDelta> = self
            .timing
            .iter()
            .filter(|t| t.pct().abs() >= 5.0)
            .collect();
        if !moved.is_empty() {
            writeln!(f, "timing (>=5% movement, informational):")?;
            for t in moved {
                writeln!(
                    f,
                    "  {:<40} {:.4}s -> {:.4}s  ({:+.1}%)",
                    t.record,
                    t.before,
                    t.after,
                    t.pct()
                )?;
            }
        }
        for r in &self.regressions {
            writeln!(f, "REGRESSION: {r}")?;
        }
        if self.regressions.is_empty() {
            writeln!(f, "PASS")?;
        } else {
            if !self.changed.is_empty() {
                writeln!(
                    f,
                    "offending counters: {}",
                    self.offending_counters().join(", ")
                )?;
            }
            writeln!(f, "FAIL ({} regressions)", self.regressions.len())?;
        }
        Ok(())
    }
}

/// A record's identity inside a bench document. Duplicate coordinates
/// (fig11a and fig11b both measure m=100, k=5) are disambiguated by an
/// occurrence ordinal so nothing is silently dropped.
fn record_key(rec: &Json, ordinal: usize) -> String {
    let method = rec.get("method").and_then(Json::as_str).unwrap_or("?");
    let n = rec.get("n").and_then(Json::as_u64).unwrap_or(0);
    let m = rec.get("m").and_then(Json::as_u64).unwrap_or(0);
    let k = rec.get("k").and_then(Json::as_u64).unwrap_or(0);
    if ordinal == 0 {
        format!("{method} n={n} m={m} k={k}")
    } else {
        format!("{method} n={n} m={m} k={k} #{}", ordinal + 1)
    }
}

/// Flatten a document's records into `(key, record)` pairs in order.
fn keyed_records(doc: &Json) -> Result<Vec<(String, &Json)>, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| "document has no `records` array".to_string())?;
    let mut seen: Vec<(String, usize)> = Vec::new();
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        let base = record_key(rec, 0);
        let ordinal = match seen.iter_mut().find(|(k, _)| *k == base) {
            Some((_, count)) => {
                *count += 1;
                *count - 1
            }
            None => {
                seen.push((base.clone(), 1));
                0
            }
        };
        out.push((record_key(rec, ordinal), rec));
    }
    Ok(out)
}

/// The deterministic counters of one record: every `stats` entry except
/// the nondeterministic exclusions, in document order.
fn deterministic_stats(rec: &Json) -> Vec<(String, u64)> {
    let Some(stats) = rec.get("stats").and_then(Json::as_object) else {
        return Vec::new();
    };
    stats
        .iter()
        .filter(|(name, _)| !SearchStats::NONDETERMINISTIC.contains(&name.as_str()))
        .filter_map(|(name, v)| v.as_u64().map(|v| (name.clone(), v)))
        .collect()
}

/// The index byte-attribution entries of a document, as `index.<field>`
/// counters (empty when the document predates the attribution section).
fn index_counters(doc: &Json) -> Vec<(String, u64)> {
    let Some(index) = doc.get("index").and_then(Json::as_object) else {
        return Vec::new();
    };
    index
        .iter()
        .filter_map(|(name, v)| v.as_u64().map(|v| (format!("index.{name}"), v)))
        .collect()
}

/// Check the envelope of one parsed document.
fn validate(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == BENCH_SCHEMA => Ok(()),
        Some(s) => Err(format!("{which}: schema `{s}` is not `{BENCH_SCHEMA}`")),
        None => Err(format!("{which}: missing `schema` tag")),
    }
}

/// Compare two parsed bench documents under `opts`.
///
/// `baseline` is the reference (the committed `BENCH_baseline.json`);
/// `candidate` is the fresh run being judged.
pub fn diff_documents(
    baseline: &Json,
    candidate: &Json,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    validate(baseline, "baseline")?;
    validate(candidate, "candidate")?;
    let base_recs = keyed_records(baseline)?;
    let cand_recs = keyed_records(candidate)?;
    let mut report = DiffReport::default();

    for (key, _) in &base_recs {
        if !cand_recs.iter().any(|(k, _)| k == key) {
            report.only_in_baseline.push(key.clone());
        }
    }
    for (key, _) in &cand_recs {
        if !base_recs.iter().any(|(k, _)| k == key) {
            report.only_in_candidate.push(key.clone());
        }
    }
    // A record disappearing from the candidate means the experiment no
    // longer measures what the baseline pinned down.
    if opts.assert_identical || opts.fail_on_regress.is_some() {
        for key in &report.only_in_baseline {
            report
                .regressions
                .push(format!("record `{key}` missing from candidate"));
        }
    }
    // A record appearing in the candidate is a difference, but not growth:
    // only the identical-run check fails on it.
    if opts.assert_identical {
        for key in &report.only_in_candidate {
            report
                .regressions
                .push(format!("record `{key}` missing from baseline"));
        }
    }

    let gate = |report: &mut DiffReport, delta: &CounterDelta| {
        if opts.assert_identical && delta.before != delta.after {
            report.regressions.push(format!(
                "{} / {}: {} != {} (identical run expected)",
                delta.record, delta.name, delta.before, delta.after
            ));
            return;
        }
        if let Some(pct) = opts.fail_on_regress {
            if delta.after > delta.before && delta.pct() > pct {
                report.regressions.push(format!(
                    "{} / {}: {} -> {} exceeds +{pct}% budget",
                    delta.record, delta.name, delta.before, delta.after
                ));
            }
        }
    };

    for (key, base_rec) in &base_recs {
        let Some((_, cand_rec)) = cand_recs.iter().find(|(k, _)| k == key) else {
            continue;
        };
        report.records_compared += 1;

        let base_stats = deterministic_stats(base_rec);
        let cand_stats = deterministic_stats(cand_rec);
        for (name, before) in &base_stats {
            let after = cand_stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0);
            report.counters_compared += 1;
            let delta = CounterDelta {
                record: key.clone(),
                name: name.clone(),
                before: *before,
                after,
            };
            gate(&mut report, &delta);
            if delta.before != delta.after {
                report.changed.push(delta);
            }
        }
        // Counters the baseline predates are compared against zero, so a
        // schema extension surfaces as a (gated) growth rather than
        // vanishing silently.
        for (name, after) in &cand_stats {
            if !base_stats.iter().any(|(n, _)| n == name) {
                report.counters_compared += 1;
                let delta = CounterDelta {
                    record: key.clone(),
                    name: name.clone(),
                    before: 0,
                    after: *after,
                };
                gate(&mut report, &delta);
                if delta.after != 0 {
                    report.changed.push(delta);
                }
            }
        }

        let before = base_rec
            .get("seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let after = cand_rec
            .get("seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        report.timing.push(TimeDelta {
            record: key.clone(),
            before,
            after,
        });
    }

    // Index byte attribution: document-level deterministic counters.
    let base_index = index_counters(baseline);
    let cand_index = index_counters(candidate);
    for (name, before) in &base_index {
        let after = cand_index
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        report.counters_compared += 1;
        let delta = CounterDelta {
            record: "(index)".to_string(),
            name: name.clone(),
            before: *before,
            after,
        };
        gate(&mut report, &delta);
        if delta.before != delta.after {
            report.changed.push(delta);
        }
    }
    for (name, after) in &cand_index {
        if !base_index.iter().any(|(n, _)| n == name) {
            report.counters_compared += 1;
            let delta = CounterDelta {
                record: "(index)".to_string(),
                name: name.clone(),
                before: 0,
                after: *after,
            };
            gate(&mut report, &delta);
            if delta.after != 0 {
                report.changed.push(delta);
            }
        }
    }

    Ok(report)
}

/// Parse one bench artifact's text.
pub fn parse_bench_doc(text: &str, which: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| format!("{which}: not valid JSON: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_document, BenchRecord, IndexAttribution, LatencyNs};
    use kmm_core::SearchStats;

    fn record(method: &'static str, k: usize, rank_blocks: u64, secs: f64) -> BenchRecord {
        BenchRecord {
            method,
            n: 1000,
            m: 50,
            k,
            seconds: secs,
            occurrences: 7,
            stats: SearchStats {
                rank_blocks_touched: rank_blocks,
                rank_extensions: 40,
                occurrences: 7,
                timeouts: 1,
                ..Default::default()
            },
            latency: LatencyNs::default(),
        }
    }

    fn attribution(overhead: usize) -> IndexAttribution {
        IndexAttribution {
            n: 1000,
            occ_rate: 64,
            sa_rate: 16,
            rank_payload_bytes: 256,
            rank_overhead_bytes: overhead,
            sampled_sa_bytes: 260,
        }
    }

    fn document(records: &[BenchRecord], index: Option<&IndexAttribution>) -> Json {
        let json = records.iter().map(BenchRecord::to_json).collect();
        bench_document("baseline", index, json)
    }

    fn doc(rank_blocks: u64, secs: f64, overhead: usize) -> Json {
        let records = vec![record("A(.)", 2, rank_blocks, secs)];
        document(&records, Some(&attribution(overhead)))
    }

    #[test]
    fn identical_documents_pass_assert_identical() {
        let a = doc(100, 0.5, 64);
        let b = doc(100, 0.9, 64); // timing may differ freely
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                assert_identical: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!report.failed(), "{report}");
        assert!(report.changed.is_empty());
        assert_eq!(report.records_compared, 1);
        assert!(
            report.counters_compared > 16,
            "{}",
            report.counters_compared
        );
    }

    #[test]
    fn counter_growth_beyond_budget_fails() {
        let a = doc(100, 0.5, 64);
        let b = doc(130, 0.5, 64); // +30%
        let opts = DiffOptions {
            fail_on_regress: Some(15.0),
            ..Default::default()
        };
        let report = diff_documents(&a, &b, &opts).unwrap();
        assert!(report.failed());
        assert!(report.regressions[0].contains("rank_blocks_touched"));
        // Within budget: passes but still reported as changed, however
        // much slower the run was (timing is never gated).
        let c = doc(110, 50.0, 64); // +10%, 100x slower
        let report = diff_documents(&a, &c, &opts).unwrap();
        assert!(!report.failed(), "{report}");
        assert_eq!(report.changed.len(), 1);
    }

    #[test]
    fn counter_improvement_never_fails_the_pct_gate() {
        let a = doc(100, 0.5, 64);
        let b = doc(10, 0.5, 64); // -90%: an improvement
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                fail_on_regress: Some(15.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!report.failed(), "{report}");
        assert_eq!(report.changed.len(), 1);
    }

    #[test]
    fn index_attribution_growth_is_gated() {
        let a = doc(100, 0.5, 64);
        let b = doc(100, 0.5, 1024); // 16x block overhead (occ rate 4)
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                fail_on_regress: Some(15.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.failed());
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("index.rank_overhead_bytes")),
            "{report}"
        );
    }

    #[test]
    fn timeouts_are_not_gated() {
        let mut rec_a = record("A(.)", 2, 100, 0.5);
        rec_a.stats.timeouts = 0;
        let mut rec_b = record("A(.)", 2, 100, 0.5);
        rec_b.stats.timeouts = 5;
        let a = document(&[rec_a], None);
        let b = document(&[rec_b], None);
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                assert_identical: true,
                fail_on_regress: Some(0.0),
            },
        )
        .unwrap();
        assert!(!report.failed(), "{report}");
    }

    #[test]
    fn missing_record_is_a_regression() {
        let a = document(
            &[record("A(.)", 2, 100, 0.5), record("BWT [34]", 2, 90, 0.5)],
            None,
        );
        let b = document(&[record("A(.)", 2, 100, 0.5)], None);
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                fail_on_regress: Some(15.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.failed());
        assert_eq!(report.only_in_baseline.len(), 1);
        assert!(report.regressions[0].contains("BWT [34]"));
    }

    #[test]
    fn extra_candidate_record_fails_assert_identical_only() {
        let base = record("A(.)", 2, 100, 0.5);
        let a = document(std::slice::from_ref(&base), None);
        let b = document(&[base, record("Extra", 2, 100, 0.5)], None);
        let identical = diff_documents(
            &a,
            &b,
            &DiffOptions {
                assert_identical: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(identical.failed(), "{identical}");
        assert_eq!(identical.only_in_candidate, ["Extra n=1000 m=50 k=2"]);
        assert!(identical.regressions[0].contains("Extra"), "{identical}");
        // A new record is not growth, so the budget gate alone passes.
        let budget = diff_documents(
            &a,
            &b,
            &DiffOptions {
                fail_on_regress: Some(15.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!budget.failed(), "{budget}");
    }

    #[test]
    fn duplicate_coordinates_are_disambiguated() {
        let records = [record("A(.)", 5, 100, 0.5), record("A(.)", 5, 200, 0.5)];
        let a = document(&records, None);
        let b = document(&records, None);
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                assert_identical: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.records_compared, 2);
        assert!(!report.failed(), "{report}");
    }

    #[test]
    fn assert_identical_failure_lists_every_offending_counter_once() {
        // Two records, each differing on the same two counters: the
        // per-record mismatch lines repeat, but the offender summary
        // names each counter exactly once.
        let mut a1 = record("A(.)", 2, 100, 0.5);
        let mut a2 = record("BWT", 2, 90, 0.5);
        a1.stats.nodes_visited = 10;
        a2.stats.nodes_visited = 20;
        let mut b1 = a1.clone();
        let mut b2 = a2.clone();
        b1.stats.rank_blocks_touched += 1;
        b1.stats.nodes_visited += 3;
        b2.stats.rank_blocks_touched += 2;
        b2.stats.nodes_visited += 4;
        let a = document(&[a1, a2], None);
        let b = document(&[b1, b2], None);
        let report = diff_documents(
            &a,
            &b,
            &DiffOptions {
                assert_identical: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.failed());
        assert_eq!(report.regressions.len(), 4, "{report}");
        assert_eq!(
            report.offending_counters(),
            vec![
                "nodes_visited".to_string(),
                "rank_blocks_touched".to_string()
            ]
        );
        let rendered = report.to_string();
        assert!(
            rendered.contains("offending counters: nodes_visited, rank_blocks_touched"),
            "{rendered}"
        );
        // A passing report stays quiet about offenders.
        let pass = diff_documents(
            &a,
            &a,
            &DiffOptions {
                assert_identical: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!pass.to_string().contains("offending"), "{pass}");
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bogus = Json::obj([("schema", Json::Str("other/v9".into()))]);
        let good = doc(1, 0.1, 64);
        assert!(diff_documents(&bogus, &good, &DiffOptions::default()).is_err());
        assert!(diff_documents(&good, &bogus, &DiffOptions::default()).is_err());
    }

    #[test]
    fn report_renders_verdict() {
        let a = doc(100, 0.5, 64);
        let b = doc(130, 0.5, 64);
        let opts = DiffOptions {
            fail_on_regress: Some(15.0),
            ..Default::default()
        };
        let fail = format!("{}", diff_documents(&a, &b, &opts).unwrap());
        assert!(fail.contains("FAIL"), "{fail}");
        assert!(fail.contains("rank_blocks_touched"));
        let pass = format!("{}", diff_documents(&a, &a, &opts).unwrap());
        assert!(pass.contains("PASS"), "{pass}");
        assert!(pass.contains("identical"));
    }
}
