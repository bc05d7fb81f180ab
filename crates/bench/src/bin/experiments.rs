//! Regenerate the paper's tables and figures (Section V) as text output.
//!
//! ```text
//! experiments <command> [--scale F] [--reads N] [--read-len L]
//!             [--out-dir DIR]
//!
//! commands:
//!   table1    genome characteristics (paper Table 1)
//!   fig11a    avg time vs k, four methods (paper Fig. 11(a))
//!   fig11b    avg time vs read length, k = 5 (paper Fig. 11(b))
//!   table2    M-tree leaf counts n' (paper Table 2)
//!   fig12     per-genome comparison at k = 5 (reconstructed Fig. 12)
//!   ablation  rankall rate + reuse/φ ablations (DESIGN.md A1/A2)
//!   extended  seed-and-filter vs the paper's methods, index
//!             construction cost (DESIGN.md A3)
//!   baseline  fixed regression-gate workload -> BENCH_baseline.json
//!   bidir     bidirectional scheme search vs A(.) and plain backward
//!             search at k = 1..3 -> BENCH_bidir.json
//!   explain   depth-profile attribution, A(.) vs BWT at k = 1..3
//!             -> BENCH_explain.json (per-depth pruned counts)
//!   all       everything above except baseline, bidir and explain
//! ```
//!
//! `--scale` scales every genome relative to the 1:100 sizes of DESIGN.md
//! (default 0.1, i.e. 1:1000 of the real assemblies — a laptop-friendly
//! regime; use `--scale 1.0` to run at the full scaled sizes).
//!
//! `--out-dir DIR` additionally writes the measurements behind the
//! printed tables as machine-readable `BENCH_<experiment>.json` artifacts:
//! `fig11` (from fig11a and fig11b), `table2` and `fig12` (method, n, m,
//! k, deterministic counters, wall time and latency percentiles per
//! record), and the three named above, which hold the deterministic
//! fields only and so come out byte-identical run after run. `table1`,
//! `ablation` and `extended` only print. Wall-clock at paper scale, per
//! layer, is perfbench's job (`perfbench/`).

use std::path::PathBuf;

use kmm_bench::{
    fmt_secs, format_table, run_baseline, run_bidir, run_explain, run_method, simulate_reads,
    write_bench_json, BenchRecord, ExplainBenchRecord, IndexAttribution, Workload,
    BASELINE_EXPERIMENT, BIDIR_EXPERIMENT, EXPLAIN_EXPERIMENT,
};
use kmm_bwt::FmBuildConfig;
use kmm_core::{KMismatchIndex, Method};
use kmm_dna::genome::ReferenceGenome;
use kmm_telemetry::alloc::fmt_bytes;
use kmm_telemetry::Json;

/// What one experiment leaves for `BENCH_<experiment>.json`: the
/// experiment name, the byte attribution of the index it measured (if
/// any) and its serialised records.
type Artifact = (&'static str, Option<IndexAttribution>, Vec<Json>);

#[derive(Debug, Clone)]
struct Opts {
    scale: f64,
    reads: usize,
    read_len: usize,
    out_dir: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 0.1,
            reads: 50,
            read_len: 100,
            out_dir: None,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => opts.scale = it.next().expect("--scale F").parse().expect("bad scale"),
            "--reads" => opts.reads = it.next().expect("--reads N").parse().expect("bad reads"),
            "--read-len" => {
                opts.read_len = it
                    .next()
                    .expect("--read-len L")
                    .parse()
                    .expect("bad read len")
            }
            "--out-dir" => opts.out_dir = Some(PathBuf::from(it.next().expect("--out-dir DIR"))),
            "--help" | "-h" => {
                println!("usage: experiments [table1|fig11a|fig11b|table2|fig12|ablation|extended|baseline|bidir|explain|all] [--scale F] [--reads N] [--read-len L] [--out-dir DIR]");
                println!("all runs every command except baseline, bidir and explain");
                return;
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    let mut artifacts: Vec<Artifact> = Vec::new();
    match command.as_str() {
        "table1" => table1(&opts),
        "fig11a" => artifacts.push(("fig11", None, fig11a(&opts))),
        "fig11b" => artifacts.push(("fig11", None, fig11b(&opts))),
        "table2" => artifacts.push(("table2", None, table2(&opts))),
        "fig12" => artifacts.push(("fig12", None, fig12(&opts))),
        "ablation" => ablation(&opts),
        "extended" => extended(&opts),
        "baseline" => artifacts.push(baseline()),
        "bidir" => artifacts.push(bidir()),
        "explain" => artifacts.push(explain()),
        "all" => {
            table1(&opts);
            let mut fig11 = fig11a(&opts);
            fig11.extend(fig11b(&opts));
            artifacts.push(("fig11", None, fig11));
            artifacts.push(("table2", None, table2(&opts)));
            artifacts.push(("fig12", None, fig12(&opts)));
            ablation(&opts);
            extended(&opts);
        }
        other => panic!("unknown command {other}"),
    }
    if let Some(dir) = &opts.out_dir {
        for (experiment, index, records) in artifacts {
            let count = records.len();
            let path = write_bench_json(dir, experiment, index.as_ref(), records)
                .unwrap_or_else(|e| panic!("writing BENCH_{experiment}.json: {e}"));
            eprintln!("wrote {} ({count} records)", path.display());
        }
    }
}

/// The fixed regression-gate workload behind `scripts/verify.sh`'s
/// counter-artifact stage: small deterministic corpus, paper methods,
/// k = 1 and 2. Every printed counter (and the index byte attribution)
/// is reproducible bit for bit, and the resulting `BENCH_baseline.json`
/// must equal the committed one byte for byte.
fn baseline() -> Artifact {
    let (records, attribution) = run_baseline();
    println!(
        "\n== Baseline: fixed regression-gate workload  (occ rate {}) ==\n",
        attribution.occ_rate
    );
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.method.to_string(),
                r.k.to_string(),
                fmt_secs(r.seconds),
                r.occurrences.to_string(),
                r.stats.rank_blocks_touched.to_string(),
                r.stats.rank_bytes_scanned.to_string(),
                r.stats.rarray_probes.to_string(),
                r.stats.mtree_nodes_built.to_string(),
                r.stats.mtree_nodes_reused.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "method",
                "k",
                "time",
                "occ",
                "rank blocks",
                "rank bytes",
                "rarray probes",
                "mtree built",
                "mtree reused"
            ],
            &rows
        )
    );
    println!(
        "index: n={} occ_rate={} sa_rate={}  rank payload {}  rank overhead {}  sampled SA {}  total {}",
        attribution.n,
        attribution.occ_rate,
        attribution.sa_rate,
        fmt_bytes(attribution.rank_payload_bytes as u64),
        fmt_bytes(attribution.rank_overhead_bytes as u64),
        fmt_bytes(attribution.sampled_sa_bytes as u64),
        fmt_bytes(attribution.total_bytes() as u64),
    );
    let json = records.iter().map(BenchRecord::to_json).collect();
    (BASELINE_EXPERIMENT, Some(attribution), json)
}

/// The bidirectional head-to-head sweep: A(.), plain backward search
/// (BWT) and the scheme-driven bidirectional search at k = 1..3 on the
/// regression-gate corpus. The win condition is deterministic — fewer
/// rank blocks and tree nodes at k >= 2, never wall-clock — so
/// `scripts/verify.sh` compares the committed `BENCH_bidir.json` with a
/// fresh run byte for byte, exactly like the baseline artifact.
fn bidir() -> Artifact {
    println!("\n== Bidir: scheme search vs A(.) vs backward search  (C. merolae stand-in, k = 1..3) ==\n");
    let (records, attribution) = run_bidir();
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.method.to_string(),
                fmt_secs(r.seconds),
                r.occurrences.to_string(),
                r.stats.rank_blocks_touched.to_string(),
                r.stats.nodes_visited.to_string(),
                r.stats.rank_extensions.to_string(),
                r.stats.leaves.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "k",
                "method",
                "time",
                "occ",
                "rank blocks",
                "nodes",
                "extensions",
                "leaves"
            ],
            &rows
        )
    );
    for k in [2usize, 3] {
        let pick = |label: &str| {
            records
                .iter()
                .find(|r| r.k == k && r.method == label)
                .expect("sweep covers every method at every k")
        };
        let (bd, a, bwt) = (pick("Bidir"), pick("A(.)"), pick("BWT"));
        println!(
            "k={k}: Bidir rank blocks {} vs A(.) {} / BWT {}; nodes {} vs {} / {}",
            bd.stats.rank_blocks_touched,
            a.stats.rank_blocks_touched,
            bwt.stats.rank_blocks_touched,
            bd.stats.nodes_visited,
            a.stats.nodes_visited,
            bwt.stats.nodes_visited,
        );
    }
    let json = records.iter().map(BenchRecord::to_json).collect();
    (BIDIR_EXPERIMENT, Some(attribution), json)
}

/// The EXPLAIN depth-profile workload: Algorithm A against the S-tree
/// baseline at k = 1..3 on the regression-gate corpus, with per-depth
/// pruned counts. Deterministic end to end, so `scripts/verify.sh`
/// compares `BENCH_explain.json` with a fresh run byte for byte.
fn explain() -> Artifact {
    println!("\n== Explain: depth-profile attribution, A(.) vs BWT  (C. merolae stand-in, k = 1..3) ==\n");
    let records = run_explain(&[1, 2, 3]);
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let expanded: u64 = r
                .depths
                .iter()
                .filter(|(n, _)| n.ends_with(".expanded"))
                .map(|&(_, v)| v)
                .sum();
            let pruned = |suffix: &str| -> u64 {
                r.depths
                    .iter()
                    .filter(|(n, _)| n.ends_with(suffix))
                    .map(|&(_, v)| v)
                    .sum()
            };
            vec![
                r.method.clone(),
                r.k.to_string(),
                r.occurrences.to_string(),
                expanded.to_string(),
                pruned(".pruned_empty_interval").to_string(),
                pruned(".pruned_budget").to_string(),
                pruned(".pruned_cutoff").to_string(),
                r.stats.rank_blocks_touched.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "method",
                "k",
                "occ",
                "expanded",
                "pr.empty",
                "pr.budget",
                "pr.cutoff",
                "rank blocks"
            ],
            &rows
        )
    );
    let json = records.iter().map(ExplainBenchRecord::to_json).collect();
    (EXPLAIN_EXPERIMENT, None, json)
}

/// Paper Table 1: characteristics of genomes.
fn table1(opts: &Opts) {
    println!("\n== Table 1: Characteristics of genomes (synthetic stand-ins) ==\n");
    let rows: Vec<Vec<String>> = ReferenceGenome::ALL
        .iter()
        .map(|g| {
            let synthesised = ((g.scaled_size() as f64) * opts.scale) as usize;
            vec![
                g.name().to_string(),
                g.paper_size().to_string(),
                synthesised.to_string(),
                format!("{:.2}", g.gc()),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Genome", "Paper size (bp)", "Synthesised (bp)", "GC"],
            &rows
        )
    );
}

/// Paper Fig. 11(a): average matching time as a function of k on the Rat
/// genome stand-in, the four compared methods.
fn fig11a(opts: &Opts) -> Vec<Json> {
    println!(
        "\n== Fig 11(a): time vs k  (Rat stand-in, {} reads x {} bp) ==\n",
        opts.reads, opts.read_len
    );
    let w = Workload::paper(ReferenceGenome::Rat, opts.scale, opts.reads, opts.read_len);
    println!("genome: {} ({} bp)", w.name, w.genome.len());
    let idx = w.index();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for k in 1..=5usize {
        let mut row = vec![k.to_string()];
        for method in Method::PAPER_SET {
            let run = run_method(&idx, &w.reads, k, method);
            records.push(
                BenchRecord::from_run(&run, w.genome.len(), opts.read_len, k).to_timed_json(),
            );
            row.push(fmt_secs(run.seconds));
        }
        rows.push(row);
    }
    println!(
        "{}",
        format_table(&["k", "BWT [34]", "Amir's", "Cole's", "A(.)"], &rows)
    );
    records
}

/// Paper Fig. 11(b): average matching time as a function of read length,
/// k = 5.
fn fig11b(opts: &Opts) -> Vec<Json> {
    println!(
        "\n== Fig 11(b): time vs read length  (Rat stand-in, {} reads, k = 5) ==\n",
        opts.reads
    );
    let g = ReferenceGenome::Rat;
    let genome = g.generate_scaled(opts.scale);
    println!("genome: {} bp", genome.len());
    let idx = KMismatchIndex::new(genome.clone());
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for read_len in [50usize, 100, 150, 200, 250, 300] {
        let reads = simulate_reads(&genome, opts.reads, read_len, g.seed() ^ 0x5eed);
        let mut row = vec![read_len.to_string()];
        for method in Method::PAPER_SET {
            let run = run_method(&idx, &reads, 5, method);
            records.push(BenchRecord::from_run(&run, genome.len(), read_len, 5).to_timed_json());
            row.push(fmt_secs(run.seconds));
        }
        rows.push(row);
    }
    println!(
        "{}",
        format_table(&["len", "BWT [34]", "Amir's", "Cole's", "A(.)"], &rows)
    );
    records
}

/// Paper Table 2: number of leaf nodes (n') of the trees produced by
/// Algorithm A for growing k / read length.
fn table2(opts: &Opts) -> Vec<Json> {
    println!(
        "\n== Table 2: leaf counts n'  (Rat stand-in, {} reads per cell) ==\n",
        opts.reads
    );
    // The paper pairs k/length as 5/50, 10/100, 20/150, 30/200. Large k
    // explodes combinatorially, so this experiment runs at 1/10 of the
    // requested scale (documented in EXPERIMENTS.md).
    let g = ReferenceGenome::Rat;
    let genome = g.generate_scaled(opts.scale * 0.1);
    println!("genome: {} bp", genome.len());
    let idx = KMismatchIndex::new(genome.clone());
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (k, len) in [(5usize, 50usize), (10, 100), (20, 150), (30, 200)] {
        let reads = simulate_reads(&genome, opts.reads, len, g.seed() ^ 0x5eed);
        let a = run_method(&idx, &reads, k, Method::ALGORITHM_A);
        records.push(BenchRecord::from_run(&a, genome.len(), len, k).to_timed_json());
        rows.push(vec![
            format!("{k}/{len}"),
            a.stats.leaves.to_string(),
            a.stats.nodes_visited.to_string(),
            fmt_secs(a.seconds),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["k/len", "n' (leaves)", "nodes visited", "time A(.)"],
            &rows
        )
    );
    records
}

/// Reconstructed Fig. 12: all five genomes, all four methods, k = 5.
fn fig12(opts: &Opts) -> Vec<Json> {
    println!(
        "\n== Fig 12 (reconstructed): per-genome comparison  ({} reads x {} bp, k = 5) ==\n",
        opts.reads, opts.read_len
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for g in ReferenceGenome::ALL {
        let w = Workload::paper(g, opts.scale, opts.reads, opts.read_len);
        if w.genome.len() < 10 * opts.read_len {
            continue;
        }
        let idx = w.index();
        let mut row = vec![format!("{} ({}bp)", g.name(), w.genome.len())];
        for method in Method::PAPER_SET {
            let run = run_method(&idx, &w.reads, 5, method);
            records.push(
                BenchRecord::from_run(&run, w.genome.len(), opts.read_len, 5).to_timed_json(),
            );
            row.push(fmt_secs(run.seconds));
        }
        rows.push(row);
    }
    println!(
        "{}",
        format_table(&["Genome", "BWT [34]", "Amir's", "Cole's", "A(.)"], &rows)
    );
    records
}

/// Beyond the paper: the modern seed-and-filter baseline vs the paper's
/// methods, and index-construction costs (ablation A3).
fn extended(opts: &Opts) {
    println!(
        "\n== Extended: seed-and-filter vs the paper's methods  ({} reads x {} bp) ==\n",
        opts.reads, opts.read_len
    );
    let w = Workload::paper(ReferenceGenome::Rat, opts.scale, opts.reads, opts.read_len);
    let idx = w.index();
    let mut rows = Vec::new();
    for k in [1usize, 3, 5] {
        for method in [
            Method::ALGORITHM_A,
            Method::Bwt { use_phi: true },
            Method::SeedFilter,
        ] {
            let run = run_method(&idx, &w.reads, k, method);
            rows.push(vec![
                k.to_string(),
                run.method.to_string(),
                fmt_secs(run.seconds),
                run.occurrences.to_string(),
            ]);
        }
    }
    println!("{}", format_table(&["k", "method", "time", "occ"], &rows));

    println!("\n== Extended: index construction (ablation A3) ==\n");
    let mut rows = Vec::new();
    for g in [
        ReferenceGenome::CElegans,
        ReferenceGenome::RatChr1,
        ReferenceGenome::Rat,
    ] {
        let genome = g.generate_scaled(opts.scale);
        let t0 = std::time::Instant::now();
        let idx = KMismatchIndex::new(genome.clone());
        let fm_time = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        idx.suffix_tree();
        let st_time = t0.elapsed().as_secs_f64();
        rows.push(vec![
            format!("{} ({}bp)", g.name(), genome.len()),
            fmt_secs(fm_time),
            format!("{}", idx.fm().heap_bytes()),
            fmt_secs(st_time),
            format!("{}", std::mem::size_of_val(idx.suffix_tree().nodes())),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["Genome", "FM build", "FM bytes", "ST build", "ST bytes"],
            &rows
        )
    );
}

/// DESIGN.md ablations A1 (rankall checkpoint rate) and A2 (reuse / φ).
fn ablation(opts: &Opts) {
    println!("\n== Ablation A1: rankall checkpoint rate (exact search) ==\n");
    let g = ReferenceGenome::RatChr1;
    let genome = g.generate_scaled(opts.scale);
    let reads = simulate_reads(&genome, opts.reads.max(200), opts.read_len, 99);
    let mut rows = Vec::new();
    for rate in [4usize, 16, 64, 128] {
        let mut rev = genome.clone();
        rev.reverse();
        rev.push(0);
        let fm = kmm_bwt::FmIndex::new(
            &rev,
            FmBuildConfig {
                occ_rate: rate,
                sa_rate: 16,
                ..FmBuildConfig::default()
            },
        );
        let start = std::time::Instant::now();
        let mut total = 0u64;
        for r in &reads {
            let rrev: Vec<u8> = r.iter().rev().copied().collect();
            total += fm.count(&rrev) as u64;
        }
        rows.push(vec![
            rate.to_string(),
            format!("{}", fm.heap_bytes()),
            fmt_secs(start.elapsed().as_secs_f64()),
            total.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(&["rate", "index bytes", "time", "hits"], &rows)
    );

    println!("\n== Ablation A2: Algorithm A reuse and baseline φ ==\n");
    let w = Workload::paper(
        ReferenceGenome::RatChr1,
        opts.scale,
        opts.reads,
        opts.read_len,
    );
    let idx = w.index();
    let mut rows = Vec::new();
    for k in [2usize, 5] {
        for method in [
            Method::AlgorithmA { reuse: true },
            Method::AlgorithmA { reuse: false },
            Method::Bwt { use_phi: true },
            Method::Bwt { use_phi: false },
        ] {
            let run = run_method(&idx, &w.reads, k, method);
            rows.push(vec![
                k.to_string(),
                run.method.to_string(),
                fmt_secs(run.seconds),
                run.stats.rank_extensions.to_string(),
                run.stats.reuse_hits.to_string(),
                run.stats.phi_prunes.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "k",
                "method",
                "time",
                "rank ext",
                "reuse hits",
                "phi prunes"
            ],
            &rows
        )
    );
}
