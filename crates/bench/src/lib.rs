//! # kmm-bench
//!
//! Shared machinery for regenerating the paper's tables and figures
//! (Section V): deterministic workload construction (genome + wgsim-style
//! reads), timed method runs, plain-text table formatting, and the
//! `BENCH_*.json` artifact writer. The `experiments` binary is a thin
//! layer over this crate.
//!
//! The paper-figure artifacts carry wall-clock fields. The three counter
//! artifacts (`baseline`, `bidir`, `explain`) carry only deterministic
//! fields, so `scripts/verify.sh` compares fresh runs with the committed
//! files byte for byte.

use std::path::{Path, PathBuf};
use std::time::Instant;

use kmm_bwt::{FmBuildConfig, FmIndex};
use kmm_core::{KMismatchIndex, Method, SearchStats};
use kmm_dna::genome::ReferenceGenome;
use kmm_dna::reads::{ReadSimConfig, ReadSimulator};
use kmm_telemetry::{Hist, Json, MetricsRecorder};

/// Schema tag stamped into every `BENCH_*.json` artifact.
pub const BENCH_SCHEMA: &str = "kmm-bench/v1";

/// A reproducible experiment workload: one genome and a batch of reads.
#[derive(Debug)]
pub struct Workload {
    /// Display name ("Rat (Rnor_6.0) @0.10" etc.).
    pub name: String,
    /// The encoded genome.
    pub genome: Vec<u8>,
    /// The encoded reads.
    pub reads: Vec<Vec<u8>>,
}

impl Workload {
    /// Build the paper's workload for one reference genome: `count` reads
    /// of `read_len` bp with the wgsim default error model, genome scaled
    /// by `scale` relative to the 1:100 sizes of DESIGN.md.
    pub fn paper(g: ReferenceGenome, scale: f64, count: usize, read_len: usize) -> Workload {
        let genome = g.generate_scaled(scale);
        let reads = simulate_reads(&genome, count, read_len, g.seed() ^ 0x5eed);
        Workload {
            name: format!("{} @{scale:.2}", g.name()),
            genome,
            reads,
        }
    }

    /// Index the genome once for this workload.
    pub fn index(&self) -> KMismatchIndex {
        KMismatchIndex::new(self.genome.clone())
    }
}

/// Simulate `count` forward-strand reads with the wgsim default model.
pub fn simulate_reads(genome: &[u8], count: usize, read_len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut sim = ReadSimulator::new(genome, ReadSimConfig::paper(read_len), seed);
    sim.reads(count).into_iter().map(|r| r.seq).collect()
}

/// Per-query latency percentiles (ns) interpolated from the telemetry
/// `search.latency_ns` histogram accumulated over a timed run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyNs {
    /// Median per-query latency.
    pub p50: f64,
    /// 95th-percentile per-query latency.
    pub p95: f64,
    /// 99th-percentile (tail) per-query latency.
    pub p99: f64,
}

impl LatencyNs {
    /// Harvest the percentiles from a run's recorder.
    fn from_recorder(recorder: &MetricsRecorder) -> LatencyNs {
        match recorder.snapshot().histogram(Hist::SearchLatencyNs) {
            Some(h) => LatencyNs {
                p50: h.percentile(0.50),
                p95: h.percentile(0.95),
                p99: h.percentile(0.99),
            },
            None => LatencyNs::default(),
        }
    }
}

/// The outcome of running one method over a read batch.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Method label as in the paper's legends.
    pub method: &'static str,
    /// Total wall-clock seconds over the batch.
    pub seconds: f64,
    /// Total occurrences reported.
    pub occurrences: usize,
    /// Accumulated method counters.
    pub stats: SearchStats,
    /// Per-query latency percentiles over the batch.
    pub latency: LatencyNs,
}

/// Run `method` over every read and time the batch.
pub fn run_method(index: &KMismatchIndex, reads: &[Vec<u8>], k: usize, method: Method) -> TimedRun {
    // Cole needs the suffix tree; build it outside the timed region,
    // like the paper ("the time for constructing BWT(s̄) is not
    // included"). An index built from text already has Bidir's mirror.
    if matches!(method, Method::Cole) {
        index.suffix_tree();
    }
    let recorder = MetricsRecorder::new();
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let mut occurrences = 0usize;
    for r in reads {
        let res = index.search_recorded(r, k, method, &recorder);
        occurrences += res.occurrences.len();
        stats.accumulate(&res.stats);
    }
    TimedRun {
        method: method.label(),
        seconds: start.elapsed().as_secs_f64(),
        occurrences,
        stats,
        latency: LatencyNs::from_recorder(&recorder),
    }
}

/// The fields of one `BENCH_*.json` record that are a pure function of
/// the workload, in file order: the experimental coordinates (method, n,
/// m, k), the occurrence count and the counters under `stats`. The
/// counter artifacts (`baseline`, `bidir`, `explain`) hold nothing else,
/// so two runs of one binary write them byte for byte alike and a
/// committed copy is a golden file.
fn counter_fields<K: Into<String>>(
    method: &str,
    n: usize,
    m: usize,
    k: usize,
    occurrences: u64,
    stats: impl IntoIterator<Item = (K, u64)>,
) -> Vec<(&'static str, Json)> {
    let stats = Json::obj(stats.into_iter().map(|(name, v)| (name, Json::UInt(v))));
    vec![
        ("method", Json::Str(method.to_string())),
        ("n", Json::UInt(n as u64)),
        ("m", Json::UInt(m as u64)),
        ("k", Json::UInt(k as u64)),
        ("occurrences", Json::UInt(occurrences)),
        ("stats", stats),
    ]
}

/// One benchmark measurement destined for a `BENCH_*.json` artifact:
/// the experimental coordinates (method, n, m, k), the wall-clock time
/// and the accumulated [`SearchStats`] counters.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Method label as in the paper's legends.
    pub method: &'static str,
    /// Text (genome) length in bp.
    pub n: usize,
    /// Pattern (read) length in bp.
    pub m: usize,
    /// Mismatch budget.
    pub k: usize,
    /// Total wall-clock seconds over the read batch.
    pub seconds: f64,
    /// Total occurrences reported.
    pub occurrences: usize,
    /// Accumulated method counters.
    pub stats: SearchStats,
    /// Per-query latency percentiles over the batch.
    pub latency: LatencyNs,
}

impl BenchRecord {
    /// Attach experimental coordinates to a [`TimedRun`].
    pub fn from_run(run: &TimedRun, n: usize, m: usize, k: usize) -> BenchRecord {
        BenchRecord {
            method: run.method,
            n,
            m,
            k,
            seconds: run.seconds,
            occurrences: run.occurrences,
            stats: run.stats,
            latency: run.latency,
        }
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        counter_fields(
            self.method,
            self.n,
            self.m,
            self.k,
            self.occurrences as u64,
            self.stats.as_pairs(),
        )
    }

    /// Serialise the deterministic fields only (every [`SearchStats`]
    /// counter under `stats` by its canonical name): the record shape of
    /// the counter artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj(self.fields())
    }

    /// [`Self::to_json`] followed by the batch's wall-clock `seconds` and
    /// per-query latency percentiles: the record shape of the
    /// paper-figure artifacts (`fig11`, `table2`, `fig12`), whose y-axis
    /// is time.
    pub fn to_timed_json(&self) -> Json {
        let mut fields = self.fields();
        fields.extend([
            ("seconds", Json::Float(self.seconds)),
            ("latency_p50_ns", Json::Float(self.latency.p50)),
            ("latency_p95_ns", Json::Float(self.latency.p95)),
            ("latency_p99_ns", Json::Float(self.latency.p99)),
        ]);
        Json::obj(fields)
    }
}

/// Exact per-structure byte attribution for one built index: the numbers
/// behind `FmIndex::heap_bytes`, split so a layout change (e.g. a rankall
/// checkpoint-rate regression) is visible as growth of the specific
/// structure that paid for it. All fields are deterministic functions of
/// (text, occ_rate, sa_rate), so they belong in the byte-compared
/// counter artifacts like the search counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexAttribution {
    /// Indexed text length (reverse text plus sentinel).
    pub n: usize,
    /// Rankall checkpoint rate the index was built with.
    pub occ_rate: usize,
    /// Suffix-array sampling rate the index was built with.
    pub sa_rate: usize,
    /// Bytes of 2-bit packed `L` payload inside the rank structure.
    pub rank_payload_bytes: usize,
    /// Bytes of per-block checkpoint headers — the price of O(1) rank.
    pub rank_overhead_bytes: usize,
    /// Bytes of the sampled suffix array.
    pub sampled_sa_bytes: usize,
}

impl IndexAttribution {
    /// Measure a built index (`config` being what it was built with).
    pub fn measure(fm: &FmIndex, config: &FmBuildConfig) -> IndexAttribution {
        IndexAttribution {
            n: fm.len(),
            occ_rate: config.occ_rate,
            sa_rate: config.sa_rate,
            rank_payload_bytes: fm.rank_payload_bytes(),
            rank_overhead_bytes: fm.rank_overhead_bytes(),
            sampled_sa_bytes: fm.sampled_sa_bytes(),
        }
    }

    /// Total accounted heap bytes (`FmIndex::heap_bytes`).
    pub fn total_bytes(&self) -> usize {
        self.rank_payload_bytes + self.rank_overhead_bytes + self.sampled_sa_bytes
    }

    /// Serialise as the document-level `index` object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::UInt(self.n as u64)),
            ("occ_rate", Json::UInt(self.occ_rate as u64)),
            ("sa_rate", Json::UInt(self.sa_rate as u64)),
            (
                "rank_payload_bytes",
                Json::UInt(self.rank_payload_bytes as u64),
            ),
            (
                "rank_overhead_bytes",
                Json::UInt(self.rank_overhead_bytes as u64),
            ),
            ("sampled_sa_bytes", Json::UInt(self.sampled_sa_bytes as u64)),
            ("total_bytes", Json::UInt(self.total_bytes() as u64)),
        ])
    }
}

/// Wrap serialised records in the `BENCH_*.json` envelope: the schema
/// tag, the experiment name, the per-structure byte attribution of the
/// index the records were measured against (when there is one), then the
/// records.
pub fn bench_document(
    experiment: &str,
    index: Option<&IndexAttribution>,
    records: Vec<Json>,
) -> Json {
    let mut pairs = vec![
        ("schema", Json::Str(BENCH_SCHEMA.to_string())),
        ("experiment", Json::Str(experiment.to_string())),
    ];
    if let Some(attribution) = index {
        pairs.push(("index", attribution.to_json()));
    }
    pairs.push(("records", Json::Arr(records)));
    Json::obj(pairs)
}

/// Write [`bench_document`] as `BENCH_<experiment>.json` into `dir` and
/// return its path.
pub fn write_bench_json(
    dir: &Path,
    experiment: &str,
    index: Option<&IndexAttribution>,
    records: Vec<Json>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{experiment}.json"));
    std::fs::write(
        &path,
        bench_document(experiment, index, records).to_pretty(),
    )?;
    Ok(path)
}

/// The experiment name of the regression-gate workload (and thus its
/// artifact, `BENCH_baseline.json`).
pub const BASELINE_EXPERIMENT: &str = "baseline";

/// Run the fixed regression-gate workload: a small deterministic corpus
/// (C. merolae stand-in at 1:2000 scale, 25 reads of 50 bp from the
/// paper's error model, fixed seeds) searched by every paper method at
/// k = 1 and k = 2 over an index built with [`FmBuildConfig::default`].
///
/// Everything except wall-clock is a pure function of the corpus, so two
/// runs of the same binary produce identical counters and byte
/// attribution, and `scripts/verify.sh` requires the written
/// `BENCH_baseline.json` to equal the committed one byte for byte.
pub fn run_baseline() -> (Vec<BenchRecord>, IndexAttribution) {
    let workload = Workload::paper(ReferenceGenome::CMerolae, 0.05, 25, 50);
    let config = FmBuildConfig::default();
    let index = KMismatchIndex::with_config(workload.genome.clone(), config);
    let attribution = IndexAttribution::measure(index.fm(), &config);
    let mut records = Vec::new();
    for k in [1usize, 2] {
        for method in Method::PAPER_SET {
            let run = run_method(&index, &workload.reads, k, method);
            records.push(BenchRecord::from_run(&run, workload.genome.len(), 50, k));
        }
    }
    (records, attribution)
}

/// The experiment name of the bidirectional head-to-head workload (and
/// thus its artifact, `BENCH_bidir.json`).
pub const BIDIR_EXPERIMENT: &str = "bidir";

/// Run the bidirectional head-to-head sweep: short reads over a larger
/// C. merolae stand-in, searched at k = 1, 2, 3 by Algorithm A, the
/// plain backward-search S-tree baseline, and the bidirectional scheme
/// search.
///
/// The workload deliberately uses short patterns on a ~100 kbp text:
/// scheme pieces are then short relative to the text, so BWT intervals
/// stay wide after the exact descent and branches survive into the
/// region where the scheme's tightened bounds prune — the regime where
/// the precomputed schemes separate from the pigeonhole fallback
/// (`kmm_core::bidir`'s tests pin that separation on this corpus).
///
/// Mirror construction happens outside every timed region (the paper's
/// protocol: index build time is not charged to the query). Everything
/// except wall-clock is deterministic, so repeat runs write identical
/// `BENCH_bidir.json` files and the committed one is a golden file: the
/// bidirectional win shows up as a hard drop in `rank_blocks_touched`
/// and `nodes_visited` at k = 2 and k = 3, not as a timing delta.
pub fn run_bidir() -> (Vec<BenchRecord>, IndexAttribution) {
    let workload = Workload::paper(ReferenceGenome::CMerolae, 0.6, 25, 12);
    let config = FmBuildConfig::default();
    let index = KMismatchIndex::with_config(workload.genome.clone(), config);
    let attribution = IndexAttribution::measure(index.fm(), &config);
    let mut records = Vec::new();
    for k in [1usize, 2, 3] {
        for method in [
            Method::ALGORITHM_A,
            Method::Bwt { use_phi: true },
            Method::Bidirectional,
        ] {
            let run = run_method(&index, &workload.reads, k, method);
            records.push(BenchRecord::from_run(&run, workload.genome.len(), 12, k));
        }
    }
    (records, attribution)
}

/// The experiment name of the EXPLAIN depth-profile workload (and thus
/// its artifact, `BENCH_explain.json`).
pub const EXPLAIN_EXPERIMENT: &str = "explain";

/// One aggregated EXPLAIN measurement: a method's deterministic
/// counters plus its depth profile (nodes expanded and branches pruned
/// per DFS depth, split by cause), accumulated over a read batch.
///
/// The depth profile lands under `stats` as flat `dNN.*` keys
/// (`d03.expanded`, `d03.pruned_budget`, ...), so the committed
/// `BENCH_explain.json` pins per-depth pruning behaviour exactly like any
/// other deterministic counter: a change that moves prunes to deeper
/// levels — more work before each kill — changes the file even when
/// totals barely move.
#[derive(Debug, Clone)]
pub struct ExplainBenchRecord {
    /// Method label as in the paper's legends.
    pub method: String,
    /// Text (genome) length in bp.
    pub n: usize,
    /// Pattern (read) length in bp.
    pub m: usize,
    /// Mismatch budget.
    pub k: usize,
    /// Total occurrences reported.
    pub occurrences: u64,
    /// Accumulated method counters.
    pub stats: SearchStats,
    /// The depth profile flattened to `dNN.*` counters, serialised under
    /// `stats` after the method counters.
    pub depths: Vec<(String, u64)>,
}

impl ExplainBenchRecord {
    /// Serialise in the `BENCH_*.json` record shape.
    pub fn to_json(&self) -> Json {
        Json::obj(counter_fields(
            &self.method,
            self.n,
            self.m,
            self.k,
            self.occurrences,
            self.stats
                .as_pairs()
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .chain(self.depths.iter().cloned()),
        ))
    }
}

/// Run the EXPLAIN depth-profile workload: the regression-gate corpus
/// (C. merolae stand-in, fixed seeds) explained read by read, Algorithm
/// A against the S-tree baseline, at every `k` in `ks`.
///
/// Every field is a pure function of the corpus — the explain engine's
/// recorder never reads a clock — so repeat runs write identical
/// `BENCH_explain.json` files, compared byte for byte with the committed
/// one like `BENCH_baseline.json`.
pub fn run_explain(ks: &[usize]) -> Vec<ExplainBenchRecord> {
    use kmm_telemetry::PruneCause;
    let workload = Workload::paper(ReferenceGenome::CMerolae, 0.05, 10, 50);
    let index = KMismatchIndex::new(workload.genome.clone());
    let methods = [Method::Bwt { use_phi: true }, Method::ALGORITHM_A];
    let mut out = Vec::new();
    for &k in ks {
        for &method in &methods {
            let mut occurrences = 0u64;
            let mut stats = SearchStats::default();
            // depth -> [expanded, pruned by each cause].
            let mut rows: Vec<[u64; 1 + PruneCause::COUNT]> = Vec::new();
            for read in &workload.reads {
                let report = index.explain(read, k, &[method]);
                let cost = &report.methods[0];
                occurrences += cost.occurrences;
                stats.accumulate(&cost.stats);
                for (d, row) in cost.depths.iter().enumerate() {
                    if rows.len() <= d {
                        rows.resize(d + 1, [0; 1 + PruneCause::COUNT]);
                    }
                    rows[d][0] += row.expanded;
                    for cause in PruneCause::ALL {
                        rows[d][1 + cause.index()] += row.pruned[cause.index()];
                    }
                }
            }
            let mut depths = Vec::new();
            for (d, row) in rows.iter().enumerate() {
                depths.push((format!("d{d:02}.expanded"), row[0]));
                for cause in PruneCause::ALL {
                    depths.push((
                        format!("d{d:02}.pruned_{}", cause.name()),
                        row[1 + cause.index()],
                    ));
                }
            }
            out.push(ExplainBenchRecord {
                method: method.label().to_string(),
                n: workload.genome.len(),
                m: 50,
                k,
                occurrences,
                stats,
                depths,
            });
        }
    }
    out
}

/// Render rows as a fixed-width text table with a header.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Human-readable second formatting for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = Workload::paper(ReferenceGenome::CMerolae, 0.05, 5, 40);
        let b = Workload::paper(ReferenceGenome::CMerolae, 0.05, 5, 40);
        assert_eq!(a.genome, b.genome);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.reads.len(), 5);
        assert!(a.reads.iter().all(|r| r.len() == 40));
    }

    #[test]
    fn run_method_counts_occurrences() {
        let w = Workload::paper(ReferenceGenome::CMerolae, 0.02, 4, 30);
        let idx = w.index();
        let run = run_method(&idx, &w.reads, 2, Method::ALGORITHM_A);
        // Every read was sampled from the genome with ~2% errors, so with
        // k = 2 most reads should find their origin.
        assert!(run.occurrences >= 1);
        assert!(run.seconds >= 0.0);
        assert_eq!(run.method, "A(.)");
        // The recorder saw every query, so the percentiles are populated
        // and ordered.
        assert!(run.latency.p50 > 0.0);
        assert!(run.latency.p50 <= run.latency.p95);
        assert!(run.latency.p95 <= run.latency.p99);
        // And the result must match the naive scan.
        let naive = run_method(&idx, &w.reads, 2, Method::Naive);
        assert_eq!(run.occurrences, naive.occurrences);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["k", "time"],
            &[
                vec!["1".into(), "5ms".into()],
                vec!["10".into(), "1.2s".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('k'));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn bench_json_artifact_round_trips() {
        let stats = SearchStats {
            leaves: 12,
            rank_extensions: 340,
            reuse_hits: 7,
            ..SearchStats::default()
        };
        let records = [
            BenchRecord {
                method: "A(.)",
                n: 10_000,
                m: 100,
                k: 5,
                seconds: 0.25,
                occurrences: 42,
                stats,
                latency: LatencyNs {
                    p50: 1000.0,
                    p95: 2000.0,
                    p99: 4000.0,
                },
            },
            BenchRecord {
                method: "BWT [34]",
                n: 10_000,
                m: 100,
                k: 5,
                seconds: 1.5,
                occurrences: 42,
                stats: SearchStats::default(),
                latency: LatencyNs::default(),
            },
        ];
        // The counter shape has no clock field; the figure shape adds them.
        let counters = records[0].to_json();
        for key in [
            "seconds",
            "latency_p50_ns",
            "latency_p95_ns",
            "latency_p99_ns",
        ] {
            assert!(counters.get(key).is_none(), "{key}");
        }
        let dir = std::env::temp_dir().join("kmm-bench-tests");
        let json = records.iter().map(BenchRecord::to_timed_json).collect();
        let path = write_bench_json(&dir, "fig11", None, json).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_fig11.json");

        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fig11"));
        let recs = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 2);
        let first = &recs[0];
        assert_eq!(first.get("method").and_then(Json::as_str), Some("A(.)"));
        assert_eq!(first.get("n").and_then(Json::as_u64), Some(10_000));
        assert_eq!(first.get("m").and_then(Json::as_u64), Some(100));
        assert_eq!(first.get("k").and_then(Json::as_u64), Some(5));
        assert_eq!(first.get("seconds").and_then(Json::as_f64), Some(0.25));
        assert_eq!(first.get("occurrences").and_then(Json::as_u64), Some(42));
        assert_eq!(
            first.get("latency_p50_ns").and_then(Json::as_f64),
            Some(1000.0)
        );
        assert_eq!(
            first.get("latency_p99_ns").and_then(Json::as_f64),
            Some(4000.0)
        );
        let js = first.get("stats").unwrap();
        // Every SearchStats field survives under its canonical name.
        for (name, value) in stats.as_pairs() {
            assert_eq!(js.get(name).and_then(Json::as_u64), Some(value), "{name}");
        }
    }

    #[test]
    fn bench_record_from_run_attaches_coordinates() {
        let w = Workload::paper(ReferenceGenome::CMerolae, 0.02, 3, 30);
        let idx = w.index();
        let run = run_method(&idx, &w.reads, 1, Method::ALGORITHM_A);
        let rec = BenchRecord::from_run(&run, w.genome.len(), 30, 1);
        assert_eq!(rec.n, w.genome.len());
        assert_eq!(rec.m, 30);
        assert_eq!(rec.k, 1);
        assert_eq!(rec.method, "A(.)");
        assert_eq!(rec.stats, run.stats);
        // And the JSON view is parseable on its own.
        let j = Json::parse(&rec.to_json().to_compact()).unwrap();
        assert_eq!(j.get("k").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn baseline_is_deterministic_and_gateable() {
        let (a, attr_a) = run_baseline();
        let (b, attr_b) = run_baseline();
        assert_eq!(a.len(), 2 * Method::PAPER_SET.len());
        // Same binary, same seeds: the written documents are identical,
        // which is what lets verify.sh compare the artifact byte for byte.
        let doc = |records: &[BenchRecord], attr: &IndexAttribution| {
            let json = records.iter().map(BenchRecord::to_json).collect();
            bench_document(BASELINE_EXPERIMENT, Some(attr), json).to_pretty()
        };
        assert_eq!(doc(&a, &attr_a), doc(&b, &attr_b));
    }

    #[test]
    fn bidir_beats_both_baselines_and_is_deterministic() {
        let (a, attr_a) = run_bidir();
        let (b, attr_b) = run_bidir();
        // Repeat runs of the same binary are bit-identical on the
        // deterministic side, which is all the artifact holds.
        assert_eq!(attr_a, attr_b);
        assert_eq!(a.len(), 9, "3 methods x k in 1..=3");
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.method, rb.method);
            assert_eq!(ra.stats, rb.stats, "{}", ra.method);
            assert_eq!(ra.occurrences, rb.occurrences);
        }
        // All three methods agree on the answer set at every budget.
        for k in [1usize, 2, 3] {
            let occ: Vec<usize> = a
                .iter()
                .filter(|r| r.k == k)
                .map(|r| r.occurrences)
                .collect();
            assert!(occ.windows(2).all(|w| w[0] == w[1]), "k={k}: {occ:?}");
        }
        // The headline claim of the experiment: at k = 2 and k = 3 the
        // scheme-driven bidirectional search touches strictly fewer
        // rank blocks and expands strictly fewer tree nodes than both
        // Algorithm A and the plain backward-search S-tree.
        let get = |k: usize, label: &str| {
            a.iter()
                .find(|r| r.k == k && r.method == label)
                .unwrap_or_else(|| panic!("missing {label} at k={k}"))
        };
        for k in [2usize, 3] {
            let bd = get(k, "Bidir");
            for base in ["A(.)", "BWT"] {
                let other = get(k, base);
                assert!(
                    bd.stats.rank_blocks_touched < other.stats.rank_blocks_touched,
                    "k={k} rank blocks: Bidir {} !< {base} {}",
                    bd.stats.rank_blocks_touched,
                    other.stats.rank_blocks_touched
                );
                assert!(
                    bd.stats.nodes_visited < other.stats.nodes_visited,
                    "k={k} nodes: Bidir {} !< {base} {}",
                    bd.stats.nodes_visited,
                    other.stats.nodes_visited
                );
            }
        }
    }

    #[test]
    fn baseline_json_artifact_has_index_attribution() {
        let (records, attr) = run_baseline();
        let dir = std::env::temp_dir().join("kmm-bench-tests");
        let json = records.iter().map(BenchRecord::to_json).collect();
        let path = write_bench_json(&dir, BASELINE_EXPERIMENT, Some(&attr), json).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "BENCH_baseline.json"
        );
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some(BASELINE_EXPERIMENT)
        );
        let index = doc.get("index").unwrap();
        assert_eq!(
            index.get("rank_overhead_bytes").and_then(Json::as_u64),
            Some(attr.rank_overhead_bytes as u64)
        );
        assert_eq!(
            index.get("total_bytes").and_then(Json::as_u64),
            Some(attr.total_bytes() as u64)
        );
        // The deterministic cost counters ride along in every record.
        let recs = doc.get("records").and_then(Json::as_array).unwrap();
        let stats = recs[0].get("stats").unwrap();
        assert!(stats
            .get("rank_blocks_touched")
            .and_then(Json::as_u64)
            .is_some());
    }

    #[test]
    fn explain_bench_is_deterministic_and_gateable() {
        let a = run_explain(&[1]);
        let b = run_explain(&[1]);
        // BWT and Algorithm A, one record each.
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].method, "BWT");
        assert_eq!(a[1].method, "A(.)");
        // Both methods see the same matches on the same corpus.
        assert_eq!(a[0].occurrences, a[1].occurrences);
        // The depth profile is present and flattened under dNN.* keys.
        for rec in &a {
            assert!(
                rec.depths.iter().any(|(n, _)| n == "d01.expanded"),
                "{}: no depth rows in {:?}",
                rec.method,
                rec.depths.iter().map(|(n, _)| n).collect::<Vec<_>>()
            );
            assert!(rec
                .depths
                .iter()
                .any(|(n, v)| n.ends_with(".pruned_budget") && *v > 0));
            // The depth identity the explain engine pins: summed
            // expansions match the visited-node counter (Algorithm A's
            // virtual root expands once per read outside the counter).
            let expanded: u64 = rec
                .depths
                .iter()
                .filter(|(n, _)| n.ends_with(".expanded"))
                .map(|&(_, v)| v)
                .sum();
            let visited = rec.stats.nodes_visited;
            let reads = 10;
            assert!(
                expanded == visited || expanded == visited + reads,
                "{}: expanded {expanded} vs visited {visited}",
                rec.method
            );
        }
        // Byte-identical across runs, so the artifact is a golden file.
        let dir = std::env::temp_dir().join("kmm-bench-explain-json");
        let write = |records: &[ExplainBenchRecord]| {
            let json = records.iter().map(ExplainBenchRecord::to_json).collect();
            let path = write_bench_json(&dir, EXPLAIN_EXPERIMENT, None, json).unwrap();
            assert_eq!(
                path.file_name().unwrap().to_str().unwrap(),
                "BENCH_explain.json"
            );
            std::fs::read_to_string(&path).unwrap()
        };
        let text = write(&a);
        assert_eq!(text, write(&b));
        // Every depth row lands in the file as a counter.
        let doc = Json::parse(&text).unwrap();
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        let counters: usize = records
            .iter()
            .filter_map(|r| match r.get("stats") {
                Some(Json::Obj(pairs)) => Some(pairs.len()),
                _ => None,
            })
            .sum();
        assert!(counters > 40, "{counters}");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000025), "2.5us");
    }
}
