//! Per-layer probes for the traced run. Each probe calls one layer's
//! public function on inputs derived from the workload's own
//! operations, under a benchmark span, and reports its time and the
//! program's work counters.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use kmm_bwt::{build_mirror, BiFmIndex, BiInterval, FmIndex, Interval, RankAll};
use kmm_core::{KMismatchIndex, MapperConfig, Method, ReadMapper, SearchStats};
use kmm_par::ThreadPool;
use kmm_telemetry::{MetricsRecorder, Phase};

use crate::inproc::Engine;
use crate::spans::SpanLog;
use crate::stats::{median, quantile};
use crate::workload::{Op, Workload};

/// Collected `(name, value, unit)` metrics.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Minimum wall time of each kernel timing loop.
const KERNEL_MIN: Duration = Duration::from_millis(25);

/// The methods compared per query: the paper's A(·) and BWT baseline,
/// and the two modern alternatives ROADMAP item 3 weighs.
const METHODS: [(&str, Method); 4] = [
    ("a", Method::ALGORITHM_A),
    ("bwt", Method::Bwt { use_phi: true }),
    ("bidir", Method::Bidirectional),
    ("seedfilter", Method::SeedFilter),
];

/// Operations each probe uses: the first ones of the workload, sized so
/// the slowest method (A(·) on reads, SeedFilter on 16 bp probes) takes
/// about a second.
pub fn layer_queries(workload: Workload) -> usize {
    match workload {
        Workload::MapReads => 16,
        Workload::ScanRepeats => 64,
        Workload::ServeProbes => 256,
    }
}

/// Repeat `body` until at least [`KERNEL_MIN`] has passed; returns
/// nanoseconds per call, given the calls one round makes.
fn time_kernel(calls_per_round: usize, mut body: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || t.elapsed() < KERNEL_MIN {
        body();
        rounds += 1;
    }
    t.elapsed().as_nanos() as f64 / (rounds * calls_per_round.max(1)) as f64
}

/// Rank-kernel, extension and locate probes over the workload
/// patterns' exact backward-search paths. Returns the metrics and any
/// failed check.
pub fn kernels(
    index: &KMismatchIndex,
    genome: &[u8],
    ops: &[Op],
    workload: Workload,
    spans: &SpanLog,
    out: &mut Metrics,
) -> Vec<String> {
    let mut errors = Vec::new();
    let fm = index.fm();
    let subset = &ops[..layer_queries(workload).min(ops.len())];

    // The mirror rank structure, built standalone so its time is its own.
    let mut text = genome.to_vec();
    text.push(0);
    let t = Instant::now();
    let mirror = spans.scope("bi.build_mirror", || build_mirror(&text, fm.rank_rate(), 1));
    let mirror: RankAll = match mirror {
        Ok(m) => m,
        Err(e) => {
            errors.push(format!("build_mirror: {e}"));
            return errors;
        }
    };
    out.push(("build.mirror_s".into(), t.elapsed().as_secs_f64(), "s"));

    // Replay each pattern's exact left-to-right descent (the order the
    // tree searches use on the reversed-text index).
    let mut steps: Vec<Interval> = Vec::new();
    for op in subset {
        let mut iv = fm.whole();
        for &z in &op.pattern {
            steps.push(iv);
            iv = fm.extend_all(iv)[z as usize - 1];
            if iv.is_empty() {
                break;
            }
        }
    }
    let children: Vec<Interval> = steps
        .iter()
        .flat_map(|&iv| fm.extend_all(iv))
        .filter(|c| !c.is_empty())
        .collect();
    let ns = spans.scope("occ.extend_all", || {
        time_kernel(steps.len() + children.len(), || {
            for &iv in steps.iter().chain(&children) {
                black_box(fm.extend_all(black_box(iv)));
            }
        })
    });
    out.push(("occ.extend_all_ns".into(), ns, "ns"));
    let rows: Vec<usize> = steps
        .iter()
        .flat_map(|iv| [iv.lo as usize, iv.hi as usize])
        .collect();
    let ns = spans.scope("occ.occ_all", || {
        time_kernel(rows.len(), || {
            for &r in &rows {
                black_box(mirror.occ_all(black_box(r)));
            }
        })
    });
    out.push(("occ.occ_all_ns".into(), ns, "ns"));

    // Bidirectional extension both ways along the same patterns.
    let bi = BiFmIndex::new(fm, &mirror);
    let mut right: Vec<BiInterval> = Vec::new();
    let mut left: Vec<BiInterval> = Vec::new();
    for op in subset {
        let mut b = bi.whole();
        for &z in &op.pattern {
            right.push(b);
            b = bi.extend_right_all(b)[z as usize - 1];
            if b.is_empty() {
                break;
            }
        }
        let mut b = bi.whole();
        for &z in op.pattern.iter().rev() {
            left.push(b);
            b = bi.extend_left_all(b)[z as usize - 1];
            if b.is_empty() {
                break;
            }
        }
    }
    let ns = spans.scope("bi.extend", || {
        time_kernel(right.len() + left.len(), || {
            for &b in &right {
                black_box(bi.extend_right_all(black_box(b)));
            }
            for &b in &left {
                black_box(bi.extend_left_all(black_box(b)));
            }
        })
    });
    out.push(("bi.extend_ns".into(), ns, "ns"));

    // `locate` on each pattern's 16 bp prefix (its whole length for the
    // 16 bp probes): the exact interval of the reversed seed, resolved
    // through the sampled suffix array, every position checked.
    let n = genome.len();
    let seeds: Vec<(Vec<u8>, Interval)> = subset
        .iter()
        .map(|op| {
            let seed = op.pattern[..op.pattern.len().min(16)].to_vec();
            let rev: Vec<u8> = seed.iter().rev().copied().collect();
            let iv = fm.backward_search(&rev);
            (seed, iv)
        })
        .collect();
    let hits: usize = seeds.iter().map(|(_, iv)| iv.len() as usize).sum();
    for (seed, iv) in &seeds {
        for p in fm.locate(*iv) {
            let pos = n - p as usize - seed.len();
            if genome[pos..pos + seed.len()] != seed[..] {
                errors.push(format!(
                    "locate returned {pos}, which does not hold the seed"
                ));
                break;
            }
        }
    }
    let ns = spans.scope("locate.locate", || {
        time_kernel(hits, || {
            for (_, iv) in &seeds {
                black_box(fm.locate(black_box(*iv)));
            }
        })
    });
    out.push(("locate.ns_per_hit".into(), ns, "ns"));
    errors
}

/// Work units of one query: tree nodes, or exact-seed extension steps
/// for SeedFilter, which walks no tree.
fn nodes(stats: &SearchStats) -> u64 {
    if stats.nodes_visited > 0 {
        stats.nodes_visited
    } else {
        stats.rank_extensions
    }
}

/// Single-thread per-query timings and counters for each method,
/// answers cross-checked against the default method's.
pub fn matchers(engine: &Engine, ops: &[Op], spans: &SpanLog, out: &mut Metrics) -> Vec<String> {
    let mut errors = Vec::new();
    let index = engine.index;
    let k = engine.k;
    let subset = &ops[..layer_queries(engine.workload).min(ops.len())];
    let reference: Vec<_> = subset
        .iter()
        .map(|op| index.search(&op.pattern, k, engine.method).occurrences)
        .collect();
    // Lazy structures are built before the clock starts.
    index.mirror();
    index.text();
    for (label, method) in METHODS {
        let span = format!("matcher.{label}.search");
        let mut us = Vec::with_capacity(subset.len());
        let mut total = SearchStats::default();
        let mut ns = 0u128;
        for (i, op) in subset.iter().enumerate() {
            let open = spans.begin();
            let t = Instant::now();
            let r = index.search(&op.pattern, k, method);
            let d = t.elapsed();
            spans.end(open, &span, Some(i as u64), 0, 0);
            ns += d.as_nanos();
            us.push(d.as_secs_f64() * 1e6);
            total.accumulate(&r.stats);
            if r.occurrences != reference[i] {
                errors.push(format!(
                    "{label} disagrees with {} on query {i}",
                    engine.method.label()
                ));
            }
        }
        let q = subset.len().max(1) as f64;
        out.push((format!("matcher.{label}.query_us_p50"), median(&us), "us"));
        out.push((
            format!("matcher.{label}.query_us_p99"),
            quantile(&us, 0.99).unwrap_or(0.0),
            "us",
        ));
        out.push((
            format!("matcher.{label}.nodes_per_query"),
            nodes(&total) as f64 / q,
            "count",
        ));
        out.push((
            format!("matcher.{label}.rank_blocks_per_query"),
            total.rank_blocks_touched as f64 / q,
            "count",
        ));
        out.push((
            format!("matcher.{label}.ns_per_node"),
            ns as f64 / nodes(&total).max(1) as f64,
            "ns",
        ));
        if label == "a" {
            out.push((
                "matcher.a.reuse_ratio".into(),
                total.reuse_hits as f64 / total.rank_extensions.max(1) as f64,
                "ratio",
            ));
        }
    }
    // Preprocessing time from the program's own phase timers, and hits
    // per query, for the workload's method.
    let rec = MetricsRecorder::new();
    let mut hits = 0usize;
    spans.scope("matcher.search_recorded", || {
        for op in subset {
            hits += index
                .search_recorded(&op.pattern, k, engine.method, &rec)
                .occurrences
                .len();
        }
    });
    let pre_ns = rec.phase_nanos(Phase::PreprocessRarray) + rec.phase_nanos(Phase::PreprocessPhi);
    let q = subset.len().max(1) as f64;
    out.push((
        "matcher.preprocess_us".into(),
        pre_ns as f64 / 1e3 / q,
        "us",
    ));
    out.push(("matcher.hits_per_query".into(), hits as f64 / q, "count"));
    errors
}

/// `ReadMapper::map` per operation on one thread, at the workload's k.
pub fn mapper(engine: &Engine, ops: &[Op], spans: &SpanLog, out: &mut Metrics) {
    let config = MapperConfig {
        k: engine.k,
        ..MapperConfig::default()
    };
    let mapper = ReadMapper::new(engine.index, config);
    let subset = &ops[..layer_queries(engine.workload).min(ops.len())];
    let mut us = Vec::with_capacity(subset.len());
    for (i, op) in subset.iter().enumerate() {
        let open = spans.begin();
        let t = Instant::now();
        black_box(mapper.map(&op.pattern));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.end(open, "mapper.map", Some(i as u64), 0, 0);
    }
    out.push(("mapper.read_us_p50".into(), median(&us), "us"));
    out.push((
        "mapper.read_us_p99".into(),
        quantile(&us, 0.99).unwrap_or(0.0),
        "us",
    ));
}

/// The workload's batch entry point over the same operations on a
/// 1-worker and a 2-worker pool.
pub fn parallel(engine: &Engine, ops: &[Op], spans: &SpanLog, out: &mut Metrics) {
    let subset: Vec<&[u8]> = ops[..layer_queries(engine.workload).min(ops.len())]
        .iter()
        .map(|op| op.pattern.as_slice())
        .collect();
    let time = |threads: usize| {
        let pool = ThreadPool::new(threads);
        spans.scope(&format!("par.batch_{threads}"), || {
            let t = Instant::now();
            black_box(engine.run_batch(&subset, &pool, None));
            t.elapsed().as_secs_f64()
        })
    };
    let one = time(1);
    let two = time(2);
    out.push(("par.speedup".into(), one / two.max(1e-9), "ratio"));
}

/// Opening the saved index with the read path and with mmap (median
/// of three opens each).
pub fn open(path: &Path, spans: &SpanLog, out: &mut Metrics) -> Vec<String> {
    let mut errors = Vec::new();
    for (name, mmap) in [("open.read_s", false), ("open.mmap_s", true)] {
        let mut secs = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            match spans.scope(name, || FmIndex::open_path(path, mmap)) {
                Ok((fm, _)) => drop(black_box(fm)),
                Err(e) => errors.push(format!("open {}: {e}", path.display())),
            }
            secs.push(t.elapsed().as_secs_f64());
        }
        out.push((name.into(), median(&secs), "s"));
    }
    errors
}

/// Build the index through the recorded constructor, reading the
/// program's `index.*` phase timers.
pub fn build(
    genome: &[u8],
    config: kmm_bwt::FmBuildConfig,
    spans: &SpanLog,
    out: &mut Metrics,
) -> KMismatchIndex {
    let rec = MetricsRecorder::new();
    let text = genome.to_vec();
    let t = Instant::now();
    let index = spans.scope("build.index", || {
        KMismatchIndex::with_config_recorded(text, config, &rec)
    });
    out.push(("build.total_s".into(), t.elapsed().as_secs_f64(), "s"));
    for (name, phase) in [
        ("build.sa_s", Phase::IndexSa),
        ("build.bwt_s", Phase::IndexBwt),
        ("build.rankall_s", Phase::IndexRankall),
        ("build.sampled_sa_s", Phase::IndexSampledSa),
    ] {
        out.push((name.into(), rec.phase_nanos(phase) as f64 / 1e9, "s"));
    }
    index
}

/// Heap bytes of the index structures resident for the workload: the
/// FM-index, plus the mirror when the workload's method built it.
pub fn index_bytes(index: &KMismatchIndex, out: &mut Metrics) {
    let bytes = index.fm().heap_bytes() + index.mirror_heap_bytes().unwrap_or(0);
    out.push(("index.bytes".into(), bytes as f64, "bytes"));
}
