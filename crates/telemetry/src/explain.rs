//! Per-query cost attribution: the EXPLAIN engine's data model.
//!
//! A search explained is a search run once per method with an
//! [`ExplainRecorder`] armed: the recorder collects a depth-indexed
//! profile (nodes expanded and branches pruned per DFS depth, split by
//! [`PruneCause`]) while the method's deterministic counters and heap
//! ledger deltas are bracketed around the run. The resulting
//! [`ExplainReport`] renders as a query-plan-style table or as JSON
//! (schema [`EXPLAIN_SCHEMA`]) — and its verdict is computed from
//! deterministic work counters only, never from wall-clock, so the same
//! query explains byte-identically across thread widths and machine
//! load (the property `tests/explain.rs` pins).
//!
//! Depth convention: `depth` is the number of pattern symbols consumed,
//! so the virtual root expands at depth 0 and an accepted leaf of an
//! m-symbol pattern sits at depth m. A prune at depth `d` means the
//! branch *toward* a node that would have consumed `d` symbols was
//! abandoned (for φ-style cutoffs the killed node is the current one).

use std::sync::Mutex;

use crate::alloc::MemStats;
use crate::counters::SearchStats;
use crate::json::Json;
use crate::recorder::{PruneCause, Recorder};

/// Schema tag of the EXPLAIN JSON document.
pub const EXPLAIN_SCHEMA: &str = "kmm-explain/v1";

/// One depth's share of a query's work: expansions plus prunes by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthRow {
    /// Nodes expanded at this depth.
    pub expanded: u64,
    /// Branches abandoned toward this depth, indexed by
    /// [`PruneCause::index`].
    pub pruned: [u64; PruneCause::COUNT],
}

impl DepthRow {
    /// Prunes at this depth across all causes.
    pub fn pruned_total(&self) -> u64 {
        self.pruned.iter().sum()
    }

    /// Prunes at this depth of one cause.
    pub fn pruned_by(&self, cause: PruneCause) -> u64 {
        self.pruned[cause.index()]
    }

    /// Whether the row carries any activity at all.
    pub fn is_empty(&self) -> bool {
        self.expanded == 0 && self.pruned_total() == 0
    }
}

/// Recorder that collects the per-depth profile of one query.
///
/// `enabled()` stays `false` — spans read no clocks and counters pass
/// through untouched, so arming an `ExplainRecorder` cannot perturb the
/// search or introduce nondeterminism; only the `depth_*` hooks do work.
/// Explain queries are one-shot and off the hot path, so a `Mutex` (not
/// sharded atomics) keeps the rows exact.
#[derive(Debug, Default)]
pub struct ExplainRecorder {
    depths: Mutex<Vec<DepthRow>>,
}

impl ExplainRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn with_row(&self, depth: usize, f: impl FnOnce(&mut DepthRow)) {
        let mut rows = self.depths.lock().expect("explain depth rows poisoned");
        if rows.len() <= depth {
            rows.resize(depth + 1, DepthRow::default());
        }
        f(&mut rows[depth]);
    }

    /// Drain the collected rows (index = depth), resetting the recorder.
    pub fn take(&self) -> Vec<DepthRow> {
        std::mem::take(&mut *self.depths.lock().expect("explain depth rows poisoned"))
    }
}

impl Recorder for ExplainRecorder {
    fn depth_expand(&self, depth: usize) {
        self.with_row(depth, |row| row.expanded += 1);
    }

    fn depth_prune(&self, depth: usize, cause: PruneCause) {
        self.with_row(depth, |row| row.pruned[cause.index()] += 1);
    }
}

/// Heap ledger movement across one method's run, from the counting
/// allocator's [`MemStats`]. All zeros (with `enabled == false` in the
/// source stats) when no [`crate::CountingAlloc`] is registered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapDelta {
    /// Gross bytes allocated during the run (all phases).
    pub allocated_bytes: u64,
    /// Allocation count during the run.
    pub allocations: u64,
    /// Live bytes after minus before (retained allocations, e.g. a
    /// lazily built text or suffix tree charged to the first method
    /// that needed it).
    pub net_live_bytes: i64,
}

impl HeapDelta {
    /// Ledger movement from `before` to `after`.
    pub fn between(before: &MemStats, after: &MemStats) -> HeapDelta {
        let mut allocated = 0u64;
        let mut allocs = 0u64;
        for (b, a) in before.phases.iter().zip(after.phases.iter()) {
            allocated += a.allocated_bytes.wrapping_sub(b.allocated_bytes);
            allocs += a.allocations.wrapping_sub(b.allocations);
        }
        HeapDelta {
            allocated_bytes: allocated,
            allocations: allocs,
            net_live_bytes: after.live_bytes as i64 - before.live_bytes as i64,
        }
    }
}

/// One method's fully attributed cost on the explained query.
#[derive(Debug, Clone, Default)]
pub struct MethodCost {
    /// Display label, e.g. `A(.)` or `BWT`.
    pub label: String,
    /// Occurrences the method reported (all methods must agree).
    pub occurrences: u64,
    /// The method's per-query counters.
    pub stats: SearchStats,
    /// Depth profile (index = pattern symbols consumed).
    pub depths: Vec<DepthRow>,
    /// Heap ledger movement across the run.
    pub heap: HeapDelta,
}

impl MethodCost {
    /// The verdict's scalar: deterministic work units — rank blocks
    /// touched plus nodes visited plus R-array probes plus tree nodes
    /// built. Purely counter-derived; 0 means the method is not
    /// instrumented (text scanners), which excludes it from verdicts.
    pub fn work_units(&self) -> u64 {
        let s = &self.stats;
        s.rank_blocks_touched + s.nodes_visited + s.rarray_probes + s.mtree_nodes_built
    }

    /// Total branches pruned across every depth and cause.
    pub fn pruned_total(&self) -> u64 {
        self.depths.iter().map(DepthRow::pruned_total).sum()
    }

    /// Total prunes of one cause across every depth.
    pub fn pruned_by(&self, cause: PruneCause) -> u64 {
        self.depths.iter().map(|r| r.pruned[cause.index()]).sum()
    }
}

/// The winner and the counter-derived reasoning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Label of the cheapest instrumented method.
    pub winner: String,
    /// One-line justification in deterministic units.
    pub why: String,
}

/// The full EXPLAIN result for one (pattern, k) query.
#[derive(Debug, Clone, Default)]
pub struct ExplainReport {
    /// The query pattern, rendered as ASCII bases.
    pub pattern: String,
    /// Pattern length.
    pub m: usize,
    /// Mismatch budget.
    pub k: usize,
    /// One entry per compared method, in comparison order.
    pub methods: Vec<MethodCost>,
}

impl ExplainReport {
    /// Pick the cheapest instrumented method by deterministic work
    /// units. `None` when no compared method is instrumented.
    pub fn verdict(&self) -> Option<Verdict> {
        let mut ranked: Vec<&MethodCost> =
            self.methods.iter().filter(|m| m.work_units() > 0).collect();
        ranked.sort_by_key(|m| m.work_units());
        let winner = ranked.first()?;
        let why = match ranked.get(1) {
            Some(next) => format!(
                "fewest deterministic work units: {} \
                 (rank_blocks={}, nodes={}, pruned={}) vs {} at {}",
                winner.work_units(),
                winner.stats.rank_blocks_touched,
                winner.stats.nodes_visited,
                winner.pruned_total(),
                next.label,
                next.work_units(),
            ),
            None => format!(
                "only instrumented method: {} work units \
                 (rank_blocks={}, nodes={}, pruned={})",
                winner.work_units(),
                winner.stats.rank_blocks_touched,
                winner.stats.nodes_visited,
                winner.pruned_total(),
            ),
        };
        Some(Verdict {
            winner: winner.label.clone(),
            why,
        })
    }

    /// The report as a [`EXPLAIN_SCHEMA`] JSON document.
    pub fn to_json(&self) -> Json {
        let methods: Vec<Json> = self
            .methods
            .iter()
            .map(|m| {
                let counters = Json::obj(
                    m.stats
                        .as_pairs()
                        .into_iter()
                        .map(|(n, v)| (n, Json::UInt(v))),
                );
                let depths: Vec<Json> = m
                    .depths
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| !row.is_empty())
                    .map(|(d, row)| {
                        let mut fields = vec![
                            ("depth".to_string(), Json::UInt(d as u64)),
                            ("expanded".to_string(), Json::UInt(row.expanded)),
                        ];
                        for cause in PruneCause::ALL {
                            fields.push((
                                format!("pruned_{}", cause.name()),
                                Json::UInt(row.pruned[cause.index()]),
                            ));
                        }
                        Json::Obj(fields)
                    })
                    .collect();
                Json::obj([
                    ("method", Json::Str(m.label.clone())),
                    ("occurrences", Json::UInt(m.occurrences)),
                    ("work_units", Json::UInt(m.work_units())),
                    ("counters", counters),
                    ("depths", Json::Arr(depths)),
                    (
                        "heap",
                        Json::obj([
                            ("allocated_bytes", Json::UInt(m.heap.allocated_bytes)),
                            ("allocations", Json::UInt(m.heap.allocations)),
                            ("net_live_bytes", Json::Int(m.heap.net_live_bytes)),
                        ]),
                    ),
                ])
            })
            .collect();
        let verdict = match self.verdict() {
            Some(v) => Json::obj([("winner", Json::Str(v.winner)), ("why", Json::Str(v.why))]),
            None => Json::Null,
        };
        Json::obj([
            ("schema", Json::Str(EXPLAIN_SCHEMA.to_string())),
            ("pattern", Json::Str(self.pattern.clone())),
            ("m", Json::UInt(self.m as u64)),
            ("k", Json::UInt(self.k as u64)),
            ("methods", Json::Arr(methods)),
            ("verdict", verdict),
        ])
    }

    /// Query-plan-style plain-text rendering: a method summary table,
    /// one depth-profile block per instrumented method, and the verdict.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN pattern={} m={} k={}\n\n",
            self.pattern, self.m, self.k
        ));
        let headers = [
            "method",
            "occ",
            "work",
            "rank_blocks",
            "nodes",
            "leaves",
            "pr.empty",
            "pr.budget",
            "pr.cutoff",
            "heap_alloc",
        ];
        let rows: Vec<Vec<String>> = self
            .methods
            .iter()
            .map(|m| {
                vec![
                    m.label.clone(),
                    m.occurrences.to_string(),
                    m.work_units().to_string(),
                    m.stats.rank_blocks_touched.to_string(),
                    m.stats.nodes_visited.to_string(),
                    m.stats.leaves.to_string(),
                    m.pruned_by(PruneCause::EmptyInterval).to_string(),
                    m.pruned_by(PruneCause::Budget).to_string(),
                    m.pruned_by(PruneCause::Cutoff).to_string(),
                    m.heap.allocated_bytes.to_string(),
                ]
            })
            .collect();
        render_columns(&mut out, &headers, &rows);
        for m in &self.methods {
            if m.depths.iter().all(DepthRow::is_empty) {
                continue;
            }
            out.push_str(&format!(
                "\n{} depth profile (expanded | empty/budget/cutoff):\n",
                m.label
            ));
            let peak = m
                .depths
                .iter()
                .map(|r| r.expanded)
                .max()
                .unwrap_or(0)
                .max(1);
            for (d, row) in m.depths.iter().enumerate() {
                if row.is_empty() {
                    continue;
                }
                let bar_len = ((row.expanded * 32).div_ceil(peak)) as usize;
                out.push_str(&format!(
                    "  d{:02}  {:<32}  {:>8} | {}/{}/{}\n",
                    d,
                    "#".repeat(bar_len.min(32)),
                    row.expanded,
                    row.pruned[PruneCause::EmptyInterval.index()],
                    row.pruned[PruneCause::Budget.index()],
                    row.pruned[PruneCause::Cutoff.index()],
                ));
            }
        }
        match self.verdict() {
            Some(v) => out.push_str(&format!("\nverdict: {} — {}\n", v.winner, v.why)),
            None => out.push_str("\nverdict: none (no instrumented method compared)\n"),
        }
        out
    }
}

/// Column-aligned table: headers then rows, two-space gutters.
fn render_columns(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for (i, h) in headers.iter().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(&format!("{:<width$}", h, width = widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                out.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn method(label: &str, blocks: u64, nodes: u64) -> MethodCost {
        MethodCost {
            label: label.to_string(),
            occurrences: 2,
            stats: SearchStats {
                rank_blocks_touched: blocks,
                nodes_visited: nodes,
                leaves: 3,
                ..Default::default()
            },
            depths: vec![
                DepthRow {
                    expanded: 1,
                    pruned: [0, 0, 0],
                },
                DepthRow {
                    expanded: nodes.saturating_sub(1),
                    pruned: [2, 1, 0],
                },
            ],
            heap: HeapDelta::default(),
        }
    }

    #[test]
    fn recorder_collects_rows_by_depth() {
        let rec = ExplainRecorder::new();
        assert!(!rec.enabled());
        rec.depth_expand(0);
        rec.depth_expand(2);
        rec.depth_expand(2);
        rec.depth_prune(1, PruneCause::Budget);
        rec.depth_prune(2, PruneCause::EmptyInterval);
        rec.depth_prune(2, PruneCause::Cutoff);
        let rows = rec.take();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].expanded, 1);
        assert_eq!(rows[1].pruned[PruneCause::Budget.index()], 1);
        assert_eq!(rows[2].expanded, 2);
        assert_eq!(rows[2].pruned[PruneCause::EmptyInterval.index()], 1);
        assert_eq!(rows[2].pruned[PruneCause::Cutoff.index()], 1);
        // take() resets.
        assert!(rec.take().is_empty());
    }

    #[test]
    fn verdict_prefers_fewest_work_units_and_skips_uninstrumented() {
        let report = ExplainReport {
            pattern: "acag".into(),
            m: 4,
            k: 1,
            methods: vec![
                MethodCost {
                    label: "Naive".into(),
                    occurrences: 2,
                    ..Default::default()
                },
                method("BWT", 100, 40),
                method("A(.)", 60, 30),
            ],
        };
        let v = report.verdict().expect("two instrumented methods");
        assert_eq!(v.winner, "A(.)");
        assert!(v.why.contains("vs BWT"), "{}", v.why);
    }

    #[test]
    fn verdict_absent_when_nothing_instrumented() {
        let report = ExplainReport {
            pattern: "a".into(),
            m: 1,
            k: 0,
            methods: vec![MethodCost {
                label: "Naive".into(),
                ..Default::default()
            }],
        };
        assert!(report.verdict().is_none());
        assert!(report.render_table().contains("verdict: none"));
        assert_eq!(report.to_json().get("verdict"), Some(&Json::Null));
    }

    #[test]
    fn json_round_trips_and_carries_depth_rows() {
        let report = ExplainReport {
            pattern: "tcaca".into(),
            m: 5,
            k: 2,
            methods: vec![method("BWT", 100, 40)],
        };
        let doc = report.to_json();
        let text = doc.to_pretty();
        let back = Json::parse(&text).expect("explain JSON parses");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some(EXPLAIN_SCHEMA)
        );
        let methods = back.get("methods").and_then(Json::as_array).unwrap();
        assert_eq!(methods.len(), 1);
        let depths = methods[0].get("depths").and_then(Json::as_array).unwrap();
        assert_eq!(depths.len(), 2);
        assert_eq!(
            depths[1]
                .get("pruned_empty_interval")
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            back.get("verdict")
                .and_then(|v| v.get("winner"))
                .and_then(Json::as_str),
            Some("BWT")
        );
    }

    #[test]
    fn table_renders_summary_and_depth_bars() {
        let report = ExplainReport {
            pattern: "tcaca".into(),
            m: 5,
            k: 2,
            methods: vec![method("BWT", 100, 40), method("A(.)", 60, 30)],
        };
        let table = report.render_table();
        assert!(table.contains("EXPLAIN pattern=tcaca m=5 k=2"), "{table}");
        assert!(table.contains("rank_blocks"), "{table}");
        assert!(table.contains("depth profile"), "{table}");
        assert!(table.contains('#'), "{table}");
        assert!(table.contains("verdict: A(.)"), "{table}");
    }

    #[test]
    fn heap_delta_between_ledgers() {
        use crate::alloc::{MemPhaseStats, MemStats};
        let before = MemStats {
            enabled: true,
            live_bytes: 1000,
            peak_bytes: 2000,
            phases: [MemPhaseStats {
                allocated_bytes: 10,
                allocations: 1,
                peak_live_bytes: 0,
            }; 5],
        };
        let mut after = before;
        after.live_bytes = 900;
        after.phases[3].allocated_bytes = 110;
        after.phases[3].allocations = 6;
        let delta = HeapDelta::between(&before, &after);
        assert_eq!(delta.allocated_bytes, 100);
        assert_eq!(delta.allocations, 5);
        assert_eq!(delta.net_live_bytes, -100);
    }
}
