//! The `kmm` command-line tool: generate / simulate / index / map /
//! search, as a thin pipeline over the library. All subcommand logic
//! lives here (unit-testable); `src/bin/kmm.rs` only parses `argv`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use kmm_bwt::{FmBuildConfig, FmIndex, OpenStats};
use kmm_core::{KMismatchIndex, Method};
use kmm_dna::genome::ReferenceGenome;
use kmm_dna::{fasta, fastq};
use kmm_par::ThreadPool;
use kmm_telemetry::alloc::{fmt_bytes, mem_stats, phase_scope, MemPhase};
use kmm_telemetry::{
    chrome_trace_json, Counter, MetricsRecorder, MetricsSnapshot, NoopRecorder, Recorder,
    TraceConfig, TraceRecorder,
};

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// Result alias for CLI operations.
pub type CliResult<T> = Result<T, CliError>;

fn err<T>(msg: impl Into<String>) -> CliResult<T> {
    Err(CliError(msg.into()))
}

/// Parse a method name as accepted by `--method`.
pub fn parse_method(name: &str) -> CliResult<Method> {
    match name {
        "a" | "algorithm-a" => Ok(Method::ALGORITHM_A),
        "a-noreuse" => Ok(Method::AlgorithmA { reuse: false }),
        "bwt" => Ok(Method::Bwt { use_phi: true }),
        "bwt-nophi" => Ok(Method::Bwt { use_phi: false }),
        "bidir" | "bidirectional" => Ok(Method::Bidirectional),
        "amir" => Ok(Method::Amir),
        "cole" => Ok(Method::Cole),
        "kangaroo" => Ok(Method::Kangaroo),
        "naive" => Ok(Method::Naive),
        "seed" | "seed-filter" => Ok(Method::SeedFilter),
        other => err(format!(
            "unknown method '{other}' (expected a|bwt|bwt-nophi|bidir|amir|cole|kangaroo|naive|seed)"
        )),
    }
}

/// Parse a reference-genome name for `generate`.
pub fn parse_genome(name: &str) -> CliResult<ReferenceGenome> {
    match name.to_ascii_lowercase().as_str() {
        "rat" => Ok(ReferenceGenome::Rat),
        "zebrafish" => Ok(ReferenceGenome::Zebrafish),
        "rat-chr1" => Ok(ReferenceGenome::RatChr1),
        "celegans" | "c-elegans" => Ok(ReferenceGenome::CElegans),
        "cmerolae" | "c-merolae" => Ok(ReferenceGenome::CMerolae),
        other => err(format!(
            "unknown genome '{other}' (expected rat|zebrafish|rat-chr1|celegans|cmerolae)"
        )),
    }
}

/// `kmm generate`: synthesise a genome and write it as FASTA.
pub fn generate(genome: ReferenceGenome, scale: f64, out: &Path) -> CliResult<String> {
    if scale <= 0.0 || scale > 10.0 {
        return err("--scale must be in (0, 10]");
    }
    let seq = genome.generate_scaled(scale);
    let rec = fasta::FastaRecord {
        id: format!("{} scale={scale}", genome.name()),
        seq,
    };
    let mut w = BufWriter::new(File::create(out)?);
    fasta::write_fasta(&mut w, &[rec])?;
    w.flush()?;
    Ok(format!(
        "wrote {} ({} bp)",
        out.display(),
        genome.generate_scaled(scale).len()
    ))
}

fn load_fasta_single(path: &Path) -> CliResult<Vec<u8>> {
    let recs = fasta::read_fasta(BufReader::new(File::open(path)?))
        .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    if recs.is_empty() {
        return err(format!("{}: no FASTA records", path.display()));
    }
    // Concatenate multi-record references (chromosomes).
    let mut seq = Vec::new();
    for r in recs {
        seq.extend(r.seq);
    }
    Ok(seq)
}

/// `kmm simulate`: sample wgsim-style reads from a FASTA reference and
/// write them as FASTQ.
pub fn simulate(
    reference: &Path,
    count: usize,
    read_len: usize,
    seed: u64,
    out: &Path,
) -> CliResult<String> {
    let genome = load_fasta_single(reference)?;
    if genome.len() < read_len {
        return err("reference shorter than the read length");
    }
    let reads = kmm_dna::reads::ReadSimulator::new(
        &genome,
        kmm_dna::reads::ReadSimConfig::paper(read_len),
        seed,
    )
    .reads(count);
    let records = fastq::simulated_to_fastq(&reads, 35);
    let mut w = BufWriter::new(File::create(out)?);
    fastq::write_fastq(&mut w, &records)?;
    w.flush()?;
    Ok(format!(
        "wrote {} ({count} reads x {read_len} bp)",
        out.display()
    ))
}

/// `kmm index`: build the BWT index of a FASTA reference and save it.
///
/// Multi-record FASTA files are concatenated; positions reported by `map`
/// and `search` are then concatenation offsets, and matches may straddle
/// record boundaries. Pipelines that need per-chromosome coordinates and
/// boundary filtering should use `kmm_core::MultiIndex` directly (the
/// saved index format holds a single text).
pub fn index(reference: &Path, out: &Path, threads: usize) -> CliResult<String> {
    index_opts(reference, out, threads, false)
}

/// [`index`] with the `--bidir` option: additionally build the mirror
/// (forward-text) rank structure and serialise it into the same v3
/// container as optional sections, so a loaded index can serve
/// [`Method::Bidirectional`] without reconstructing the text.
pub fn index_opts(reference: &Path, out: &Path, threads: usize, bidir: bool) -> CliResult<String> {
    let genome = load_fasta_single(reference)?;
    let idx = {
        let _build = phase_scope(MemPhase::Build);
        let idx = KMismatchIndex::with_config(
            genome,
            FmBuildConfig::default().with_threads(threads.max(1)),
        );
        if bidir {
            // Materialise the mirror inside the Build phase so the heap
            // accounting attributes its checkpoints to index construction.
            idx.mirror();
        }
        idx
    };
    atomic_save(out, |w| {
        match bidir {
            true => idx.fm().save_with_mirror(idx.mirror(), w),
            false => idx.fm().save(w),
        }
        .map_err(std::io::Error::other)
    })?;
    let mirror_bytes = if bidir { idx.mirror_heap_bytes() } else { None };
    let mut summary = format!(
        "indexed {} bp -> {} ({} bytes of rank/SA structures: \
         {} packed text + {} block checkpoints + {} SA samples{})",
        idx.len(),
        out.display(),
        idx.fm().heap_bytes() + mirror_bytes.unwrap_or(0),
        idx.fm().rank_payload_bytes(),
        idx.fm().rank_overhead_bytes(),
        idx.fm().sampled_sa_bytes(),
        match mirror_bytes {
            Some(b) => format!(" + {b} reverse-index rank structure"),
            None => String::new(),
        },
    );
    let mem = mem_stats();
    if mem.enabled {
        let build = mem.phase(MemPhase::Build);
        summary.push_str(&format!(
            "\nheap: build allocated {} over {} allocations (peak live {}); process peak {}",
            fmt_bytes(build.allocated_bytes),
            build.allocations,
            fmt_bytes(build.peak_live_bytes),
            fmt_bytes(mem.peak_bytes),
        ));
    }
    Ok(summary)
}

/// Write a file atomically: the payload goes to `<path>.tmp`, is fsynced,
/// and is renamed over `path` only once complete — a crash mid-save never
/// leaves a truncated file at the target, and a pre-existing index there
/// survives a failed re-index untouched. The `index.save.io` failpoint
/// injects write failures for testing the cleanup path.
pub fn atomic_save(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> CliResult<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let attempt = (|| -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(&tmp)?);
        kmm_faults::io_gate("index.save.io")?;
        write(&mut w)?;
        w.flush()?;
        w.into_inner()
            .map_err(|e| std::io::Error::other(format!("flush failed: {e}")))?
            .sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = attempt {
        let _ = std::fs::remove_file(&tmp);
        return Err(CliError(format!("cannot save {}: {e}", path.display())));
    }
    Ok(())
}

/// Load a saved index. The forward text is *not* reconstructed here —
/// [`KMismatchIndex`] materialises it lazily if a scanning method needs
/// it, so the FM-backed serving paths start in time independent of the
/// O(n·occ) LF-walk.
pub fn load_index(path: &Path) -> CliResult<KMismatchIndex> {
    load_index_recorded(path, &NoopRecorder)
}

/// [`load_index`] with telemetry: deserialisation is timed as the
/// `index.load` phase.
pub fn load_index_recorded<R: Recorder>(path: &Path, recorder: &R) -> CliResult<KMismatchIndex> {
    open_index_recorded(path, false, recorder).map(|(idx, _)| idx)
}

/// Open a saved index, optionally zero-copy, returning the deterministic
/// [`OpenStats`] alongside. With `prefer_mmap` the file is mapped
/// read-only and the index borrows the mapping (O(1) in the index size,
/// table-verified); otherwise it is read with full checksum verification.
/// Either way the `index.load.*` gauges land on `recorder`.
pub fn open_index_recorded<R: Recorder>(
    path: &Path,
    prefer_mmap: bool,
    recorder: &R,
) -> CliResult<(KMismatchIndex, OpenStats)> {
    let _load = phase_scope(MemPhase::Load);
    // Failpoint: `index.load.io=err` makes every load fail the way a
    // vanished/unreadable file would.
    kmm_faults::io_gate("index.load.io")
        .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    let (fm, mirror, stats) = {
        let _span = recorder.span(kmm_telemetry::Phase::IndexLoad);
        FmIndex::open_path_with_mirror(path, prefer_mmap)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?
    };
    // Footprint gauges for `--stats`: the rank structure's packed-text
    // payload vs its interleaved checkpoint overhead vs the SA samples,
    // plus how the bytes got here (read vs mmap).
    recorder.add(Counter::RankPayloadBytes, fm.rank_payload_bytes() as u64);
    recorder.add(Counter::RankOverheadBytes, fm.rank_overhead_bytes() as u64);
    recorder.add(Counter::SampledSaBytes, fm.sampled_sa_bytes() as u64);
    recorder.add(Counter::IndexLoadIoBytes, stats.io_bytes);
    recorder.add(Counter::IndexLoadMappedBytes, stats.bytes_mapped);
    recorder.add(Counter::IndexLoadMode, stats.mode.as_counter());
    Ok((KMismatchIndex::from_fm_with_mirror(fm, mirror), stats))
}

/// `kmm index upgrade`: convert a legacy v2 index file to the current
/// v3 container in place (or to `--out`). The conversion is a pure
/// re-serialisation — no rebuild — and goes through [`atomic_save`], so
/// a crash mid-upgrade leaves the original file intact.
pub fn index_upgrade(path: &Path, out: Option<&Path>) -> CliResult<String> {
    let file = File::open(path).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    let fm = match FmIndex::load_legacy_v2(BufReader::new(file)) {
        Ok(fm) => fm,
        Err(kmm_bwt::SerializeError::BadVersion { found, .. })
            if found == FmIndex::FORMAT_VERSION =>
        {
            return Ok(format!(
                "{} is already a v{found} index; nothing to do",
                path.display()
            ));
        }
        Err(e) => return Err(CliError(format!("{}: {e}", path.display()))),
    };
    let target = out.unwrap_or(path);
    atomic_save(target, |w| fm.save(w).map_err(std::io::Error::other))?;
    Ok(format!(
        "upgraded {} (v{}) -> {} (v{}, {} bp)",
        path.display(),
        FmIndex::LEGACY_FORMAT_VERSION,
        target.display(),
        FmIndex::FORMAT_VERSION,
        fm.len() - 1,
    ))
}

/// Telemetry options for `kmm map` / `kmm search` (`--stats`,
/// `--stats-json PATH`, `--trace-out PATH`, `--slowest K`).
#[derive(Debug, Clone, Default)]
pub struct StatsOptions {
    /// Append the human-readable telemetry table to the summary
    /// (`--stats`).
    pub table: bool,
    /// Write the JSON metrics snapshot to this path (`--stats-json`).
    pub json_path: Option<PathBuf>,
    /// Write a Chrome trace-event JSON of every query's span tree to
    /// this path (`--trace-out`); load it in `chrome://tracing` or
    /// Perfetto.
    pub trace_out: Option<PathBuf>,
    /// Append a table of the K slowest queries to the summary
    /// (`--slowest K`).
    pub slowest: Option<usize>,
}

impl StatsOptions {
    /// Whether any telemetry output was requested.
    pub fn active(&self) -> bool {
        self.table || self.json_path.is_some() || self.tracing()
    }

    /// Whether per-query span collection is needed (trace export or
    /// slow-query table).
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some() || self.slowest.is_some()
    }

    /// A [`TraceRecorder`] sized for these options.
    fn trace_recorder(&self) -> TraceRecorder {
        TraceRecorder::with_config(TraceConfig {
            flight_capacity: self
                .slowest
                .unwrap_or(TraceConfig::default().flight_capacity),
            ..TraceConfig::default()
        })
    }
}

/// Create `path` for writing, creating any missing parent directories;
/// failures name the offending path instead of surfacing a bare io
/// error.
pub(crate) fn create_output_file(path: &Path) -> CliResult<File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            std::fs::create_dir_all(parent).map_err(|e| {
                CliError(format!(
                    "cannot create directory {} for {}: {e}",
                    parent.display(),
                    path.display()
                ))
            })?;
        }
    }
    File::create(path).map_err(|e| CliError(format!("cannot create {}: {e}", path.display())))
}

/// Flush a metrics snapshot according to `opts`: write the JSON file if
/// requested and append the rendered table to `summary` if requested.
fn finish_stats(
    snap: &MetricsSnapshot,
    opts: &StatsOptions,
    summary: &mut String,
) -> CliResult<()> {
    if let Some(path) = &opts.json_path {
        let mut w = BufWriter::new(create_output_file(path)?);
        w.write_all(snap.to_json().to_pretty().as_bytes())?;
        w.flush()?;
        summary.push_str(&format!("\nstats json -> {}", path.display()));
    }
    if opts.table {
        summary.push('\n');
        summary.push_str(snap.render().trim_end());
        summary.push_str(&render_mem_stats());
    }
    Ok(())
}

/// Human-readable heap accounting for `--stats` tables: live/peak bytes
/// plus per-phase attribution from the counting allocator. One line
/// explains itself when the `alloc-track` feature is off.
fn render_mem_stats() -> String {
    let mem = mem_stats();
    if !mem.enabled {
        return "\nheap: allocation tracking disabled (alloc-track feature off)".to_string();
    }
    let mut out = format!(
        "\nheap: live {}  peak {}",
        fmt_bytes(mem.live_bytes),
        fmt_bytes(mem.peak_bytes)
    );
    for phase in MemPhase::ALL {
        let p = mem.phase(phase);
        if p.allocations == 0 {
            continue;
        }
        out.push_str(&format!(
            "\n  {:<18} allocated {:>10}  allocations {:>8}  peak live {:>10}",
            phase.name(),
            fmt_bytes(p.allocated_bytes),
            p.allocations,
            fmt_bytes(p.peak_live_bytes),
        ));
    }
    out
}

/// Flush tracing output according to `opts`: write the Chrome
/// trace-event file and/or append the slowest-queries table.
fn finish_trace(
    recorder: &TraceRecorder,
    opts: &StatsOptions,
    summary: &mut String,
) -> CliResult<()> {
    if let Some(path) = &opts.trace_out {
        let traces = recorder.traces();
        let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
        let mut w = BufWriter::new(create_output_file(path)?);
        w.write_all(chrome_trace_json(&traces).to_pretty().as_bytes())?;
        w.flush()?;
        summary.push_str(&format!(
            "\ntrace -> {} ({} queries, {spans} spans",
            path.display(),
            traces.len()
        ));
        if recorder.dropped_traces() > 0 {
            summary.push_str(&format!(", {} dropped", recorder.dropped_traces()));
        }
        summary.push(')');
    }
    if let Some(kk) = opts.slowest {
        let slowest = recorder.flight().slowest();
        summary.push_str(&format!("\nslowest {} queries:", slowest.len().min(kk)));
        for (rank, t) in slowest.iter().take(kk).enumerate() {
            summary.push_str(&format!(
                "\n  #{:<2} {:>10.3}ms  {}",
                rank + 1,
                t.dur_ns as f64 / 1e6,
                t.label
            ));
        }
    }
    Ok(())
}

/// `kmm map`: align every FASTQ read against a saved index, fanning the
/// batch across `threads` workers (reports stay in input order and are
/// bit-identical at any thread count).
#[allow(clippy::too_many_arguments)]
pub fn map_reads(
    index_path: &Path,
    reads_path: &Path,
    k: usize,
    method: Method,
    both_strands: bool,
    threads: usize,
    timeout: Option<Duration>,
    stats: &StatsOptions,
    out: &mut dyn Write,
) -> CliResult<String> {
    if stats.tracing() {
        let recorder = stats.trace_recorder();
        let mut summary = map_reads_with(
            index_path,
            reads_path,
            k,
            method,
            both_strands,
            threads,
            timeout,
            &recorder,
            out,
        )?;
        finish_stats(&recorder.snapshot(), stats, &mut summary)?;
        finish_trace(&recorder, stats, &mut summary)?;
        Ok(summary)
    } else if stats.active() {
        let recorder = MetricsRecorder::new();
        let mut summary = map_reads_with(
            index_path,
            reads_path,
            k,
            method,
            both_strands,
            threads,
            timeout,
            &recorder,
            out,
        )?;
        finish_stats(&recorder.snapshot(), stats, &mut summary)?;
        Ok(summary)
    } else {
        map_reads_with(
            index_path,
            reads_path,
            k,
            method,
            both_strands,
            threads,
            timeout,
            &NoopRecorder,
            out,
        )
    }
}

/// [`map_reads`] against an explicit recorder.
#[allow(clippy::too_many_arguments)]
fn map_reads_with<R: Recorder + Sync>(
    index_path: &Path,
    reads_path: &Path,
    k: usize,
    method: Method,
    both_strands: bool,
    threads: usize,
    timeout: Option<Duration>,
    recorder: &R,
    out: &mut dyn Write,
) -> CliResult<String> {
    use kmm_core::{MapOutcome, MapperConfig, ReadMapper, Strand};
    let idx = load_index_recorded(index_path, recorder)?;
    let reads = fastq::read_fastq(BufReader::new(File::open(reads_path)?))
        .map_err(|e| CliError(format!("{}: {e}", reads_path.display())))?;
    let mapper = ReadMapper::new(
        &idx,
        MapperConfig {
            k,
            both_strands,
            method,
        },
    );
    let pool = ThreadPool::new(threads.max(1));
    let seqs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
    let _search = phase_scope(MemPhase::Search);
    let outcomes = mapper.map_batch_with(&seqs, &pool, timeout, recorder);
    let truncated = outcomes.iter().filter(|o| o.is_truncated()).count();
    let reports: Vec<_> = outcomes
        .into_iter()
        .map(kmm_core::Outcome::into_inner)
        .collect();
    writeln!(out, "#read\tposition\tstrand\tmismatches\tmapq")?;
    let mut mapped = 0usize;
    let mut unique = 0usize;
    let mut hits = 0usize;
    for (rec, report) in reads.iter().zip(&reports) {
        match &report.outcome {
            MapOutcome::Unmapped => continue,
            MapOutcome::Unique(_) => {
                mapped += 1;
                unique += 1;
            }
            MapOutcome::Multi(_) => mapped += 1,
        }
        for a in &report.all {
            hits += 1;
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                rec.id,
                a.position,
                if a.strand == Strand::Forward {
                    '+'
                } else {
                    '-'
                },
                a.mismatches,
                report.mapq
            )?;
        }
    }
    let mut summary = format!(
        "mapped {mapped}/{} reads ({unique} unique, {hits} hits) with {} at k={k}",
        reads.len(),
        method.label()
    );
    if truncated > 0 {
        summary.push_str(&format!(" [{truncated} reads truncated by deadline]"));
    }
    Ok(summary)
}

/// `kmm search`: ad-hoc pattern(s) against a saved index.
///
/// A single pattern prints `position\tmismatches` lines. With several
/// patterns (repeated `--pattern` flags) the batch fans out across
/// `threads` workers and each line is prefixed with the 0-based pattern
/// index: `pattern\tposition\tmismatches`. Output order is the input
/// pattern order at any thread count.
pub fn search_patterns(
    index_path: &Path,
    patterns_ascii: &[String],
    k: usize,
    method: Method,
    threads: usize,
    timeout: Option<Duration>,
    stats: &StatsOptions,
    out: &mut dyn Write,
) -> CliResult<String> {
    if stats.tracing() {
        let recorder = stats.trace_recorder();
        let mut summary = search_patterns_with(
            index_path,
            patterns_ascii,
            k,
            method,
            threads,
            timeout,
            &recorder,
            out,
        )?;
        finish_stats(&recorder.snapshot(), stats, &mut summary)?;
        finish_trace(&recorder, stats, &mut summary)?;
        Ok(summary)
    } else if stats.active() {
        let recorder = MetricsRecorder::new();
        let mut summary = search_patterns_with(
            index_path,
            patterns_ascii,
            k,
            method,
            threads,
            timeout,
            &recorder,
            out,
        )?;
        finish_stats(&recorder.snapshot(), stats, &mut summary)?;
        Ok(summary)
    } else {
        search_patterns_with(
            index_path,
            patterns_ascii,
            k,
            method,
            threads,
            timeout,
            &NoopRecorder,
            out,
        )
    }
}

/// Single-pattern convenience wrapper over [`search_patterns`].
pub fn search_pattern(
    index_path: &Path,
    pattern_ascii: &str,
    k: usize,
    method: Method,
    stats: &StatsOptions,
    out: &mut dyn Write,
) -> CliResult<String> {
    search_patterns(
        index_path,
        std::slice::from_ref(&pattern_ascii.to_string()),
        k,
        method,
        1,
        None,
        stats,
        out,
    )
}

/// [`search_patterns`] against an explicit recorder.
#[allow(clippy::too_many_arguments)]
fn search_patterns_with<R: Recorder + Sync>(
    index_path: &Path,
    patterns_ascii: &[String],
    k: usize,
    method: Method,
    threads: usize,
    timeout: Option<Duration>,
    recorder: &R,
    out: &mut dyn Write,
) -> CliResult<String> {
    if patterns_ascii.is_empty() {
        return err("at least one --pattern is required");
    }
    let idx = load_index_recorded(index_path, recorder)?;
    let patterns: Vec<Vec<u8>> = patterns_ascii
        .iter()
        .map(|p| kmm_dna::encode(p.as_bytes()).map_err(|e| CliError(format!("bad pattern: {e}"))))
        .collect::<CliResult<_>>()?;
    let pool = ThreadPool::new(threads.max(1));
    let _search = phase_scope(MemPhase::Search);
    let (outcomes, stats) = idx.search_batch_with(&patterns, k, method, &pool, timeout, recorder);
    let truncated = outcomes.iter().filter(|o| o.is_truncated()).count();
    let per_pattern: Vec<_> = outcomes
        .into_iter()
        .map(kmm_core::Outcome::into_inner)
        .collect();
    let single = patterns.len() == 1;
    let mut total = 0usize;
    for (pi, occs) in per_pattern.iter().enumerate() {
        total += occs.len();
        for occ in occs {
            if single {
                writeln!(out, "{}\t{}", occ.position, occ.mismatches)?;
            } else {
                writeln!(out, "{pi}\t{}\t{}", occ.position, occ.mismatches)?;
            }
        }
    }
    let mut summary = if single {
        format!("{total} occurrences (stats: {stats})")
    } else {
        format!(
            "{total} occurrences across {} patterns (stats: {stats})",
            patterns.len()
        )
    };
    if truncated > 0 {
        summary.push_str(&format!(
            " [{truncated} queries truncated by deadline; results are partial]"
        ));
    }
    Ok(summary)
}

/// `kmm explain`: run one query once per method with an explain
/// recorder armed and print the query-plan-style cost comparison
/// (or the `kmm-explain/v1` JSON document with `json == true`).
///
/// The methods run serially whatever `--threads` says, and the verdict
/// is derived from deterministic work counters only — the printed
/// report is byte-identical across thread widths, SIMD kernels, and
/// machine load (pinned by `tests/explain.rs`).
pub fn explain_query(
    index_path: &Path,
    pattern_ascii: &str,
    k: usize,
    methods: &[Method],
    json: bool,
    out: &mut dyn Write,
) -> CliResult<String> {
    let idx = load_index(index_path)?;
    // An empty method list means "the default comparison set": the
    // paper's four methods, plus the bidirectional scheme search when
    // the index file carries the reverse-BWT mirror sections (without
    // them, bidir would first have to rebuild the mirror from the
    // reconstructed text — not a fair cost comparison).
    let methods: Vec<Method> = if methods.is_empty() {
        let mut set = Method::PAPER_SET.to_vec();
        if idx.has_mirror() {
            set.push(Method::Bidirectional);
        }
        set
    } else {
        methods.to_vec()
    };
    let pattern = kmm_dna::encode(pattern_ascii.as_bytes())
        .map_err(|e| CliError(format!("bad pattern: {e}")))?;
    if pattern.is_empty() {
        return err("--pattern must be non-empty");
    }
    let report = idx.explain(&pattern, k, &methods);
    if json {
        writeln!(out, "{}", report.to_json().to_pretty().trim_end())?;
    } else {
        write!(out, "{}", report.render_table())?;
    }
    Ok(match report.verdict() {
        Some(v) => format!(
            "explained {} method(s) at k={k}; winner: {}",
            report.methods.len(),
            v.winner
        ),
        None => format!(
            "explained {} method(s) at k={k}; no instrumented method compared",
            report.methods.len()
        ),
    })
}

/// `kmm bench diff`: compare two BENCH_*.json documents on timing and
/// deterministic counters. Returns the rendered report; when the gate
/// trips (regression beyond budget, or any delta under
/// `--assert-identical`) the report comes back as `Err` so the process
/// exits nonzero.
pub fn bench_diff(
    baseline: &Path,
    candidate: &Path,
    opts: &kmm_bench::diff::DiffOptions,
) -> CliResult<String> {
    let read = |path: &Path| -> CliResult<String> {
        std::fs::read_to_string(path).map_err(|e| CliError(format!("{}: {e}", path.display())))
    };
    let base_doc = kmm_bench::diff::parse_bench_doc(&read(baseline)?, "baseline")
        .map_err(|e| CliError(format!("{}: {e}", baseline.display())))?;
    let cand_doc = kmm_bench::diff::parse_bench_doc(&read(candidate)?, "candidate")
        .map_err(|e| CliError(format!("{}: {e}", candidate.display())))?;
    let report = kmm_bench::diff::diff_documents(&base_doc, &cand_doc, opts).map_err(CliError)?;
    let rendered = report.to_string();
    if report.failed() {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kmm-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_pipeline_generate_index_simulate_map() {
        let fa = tmp("pipeline.fa");
        let idxf = tmp("pipeline.idx");
        let fq = tmp("pipeline.fq");

        generate(ReferenceGenome::CMerolae, 0.05, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();
        simulate(&fa, 10, 60, 7, &fq).unwrap();

        let mut out = Vec::new();
        let summary = map_reads(
            &idxf,
            &fq,
            4,
            Method::ALGORITHM_A,
            true,
            2,
            None,
            &StatsOptions::default(),
            &mut out,
        )
        .unwrap();
        assert!(summary.starts_with("mapped"), "{summary}");
        let text = String::from_utf8(out).unwrap();
        // Header plus at least a few hits (reads come from the genome).
        assert!(text.lines().count() > 5, "{text}");
        assert!(text.starts_with("#read\tposition\tstrand\tmismatches\tmapq"));
        assert!(text
            .lines()
            .skip(1)
            .all(|l| l.contains('+') || l.contains('-')));
    }

    #[test]
    fn loaded_index_equals_fresh_index() {
        let fa = tmp("roundtrip.fa");
        let idxf = tmp("roundtrip.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();

        let genome = load_fasta_single(&fa).unwrap();
        let fresh = KMismatchIndex::new(genome.clone());
        let loaded = load_index(&idxf).unwrap();
        assert_eq!(loaded.text(), fresh.text());
        let probe = genome[100..160].to_vec();
        for k in [0usize, 2] {
            assert_eq!(
                loaded.search(&probe, k, Method::ALGORITHM_A).occurrences,
                fresh.search(&probe, k, Method::ALGORITHM_A).occurrences
            );
        }
    }

    #[test]
    fn bidir_index_roundtrips_and_serves_scheme_search() {
        let fa = tmp("bidir.fa");
        let idxf = tmp("bidir.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        let summary = index_opts(&fa, &idxf, 2, true).unwrap();
        assert!(summary.contains("reverse-index"), "{summary}");

        // The loaded index carries the mirror (no text reconstruction
        // needed) and bidirectional answers match Algorithm A.
        let loaded = load_index(&idxf).unwrap();
        assert!(loaded.has_mirror());
        let genome = load_fasta_single(&fa).unwrap();
        let probe = genome[100..160].to_vec();
        for k in [0usize, 2] {
            assert_eq!(
                loaded.search(&probe, k, Method::Bidirectional).occurrences,
                loaded.search(&probe, k, Method::ALGORITHM_A).occurrences
            );
        }

        // With the mirror on disk, the default explain set grows to
        // include the bidirectional method.
        let mut out = Vec::new();
        let probe_ascii = kmm_dna::decode_string(&probe);
        let summary = explain_query(&idxf, &probe_ascii, 2, &[], false, &mut out).unwrap();
        assert!(
            summary.contains(&format!(
                "explained {} method(s)",
                Method::PAPER_SET.len() + 1
            )),
            "{summary}"
        );
        assert!(String::from_utf8(out).unwrap().contains("Bidir"));
    }

    #[test]
    fn upgrade_subcommand_converts_v2_files() {
        let fa = tmp("upgrade.fa");
        let idxf = tmp("upgrade.idx");
        let v2f = tmp("upgrade-v2.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();
        let idx = load_index(&idxf).unwrap();

        // Write the same index in the legacy v2 stream format; current
        // readers must refuse it with the upgrade hint.
        let mut w = std::io::BufWriter::new(File::create(&v2f).unwrap());
        idx.fm().save_legacy_v2(&mut w).unwrap();
        drop(w);
        let refused = load_index(&v2f).unwrap_err();
        assert!(refused.0.contains("kmm index upgrade"), "{refused}");

        // In-place upgrade makes it loadable again, with equal answers.
        let summary = index_upgrade(&v2f, None).unwrap();
        assert!(summary.contains("upgraded"), "{summary}");
        let upgraded = load_index(&v2f).unwrap();
        let probe = idx.text()[40..100].to_vec();
        assert_eq!(
            upgraded.search(&probe, 2, Method::ALGORITHM_A).occurrences,
            idx.search(&probe, 2, Method::ALGORITHM_A).occurrences
        );

        // Upgrading a current-format file is a no-op, not an error.
        let again = index_upgrade(&v2f, None).unwrap();
        assert!(again.contains("nothing to do"), "{again}");
    }

    #[test]
    fn mmap_open_matches_read_open() {
        let fa = tmp("mmapopen.fa");
        let idxf = tmp("mmapopen.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();

        let (read_idx, read_stats) = open_index_recorded(&idxf, false, &NoopRecorder).unwrap();
        let (mmap_idx, mmap_stats) = open_index_recorded(&idxf, true, &NoopRecorder).unwrap();
        assert_eq!(read_stats.io_bytes, read_stats.file_bytes);
        assert_eq!(read_stats.bytes_mapped, 0);
        if mmap_idx.fm().is_borrowed() {
            assert_eq!(mmap_stats.io_bytes, 0);
            assert_eq!(mmap_stats.bytes_mapped, mmap_stats.file_bytes);
        }
        let probe = read_idx.text()[100..160].to_vec();
        for k in [0usize, 2] {
            assert_eq!(
                mmap_idx.search(&probe, k, Method::ALGORITHM_A).occurrences,
                read_idx.search(&probe, k, Method::ALGORITHM_A).occurrences
            );
        }
    }

    #[test]
    fn search_subcommand_outputs_positions() {
        let fa = tmp("search.fa");
        let idxf = tmp("search.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();
        let genome = load_fasta_single(&fa).unwrap();
        let probe = kmm_dna::decode_string(&genome[50..90]);
        let mut out = Vec::new();
        let summary = search_pattern(
            &idxf,
            &probe,
            1,
            Method::Bwt { use_phi: true },
            &StatsOptions::default(),
            &mut out,
        )
        .unwrap();
        assert!(summary.contains("occurrences"));
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().any(|l| l.starts_with("50\t")), "{text}");
    }

    #[test]
    fn multi_pattern_search_prefixes_pattern_index() {
        let fa = tmp("multisearch.fa");
        let idxf = tmp("multisearch.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();
        let genome = load_fasta_single(&fa).unwrap();
        let probes = vec![
            kmm_dna::decode_string(&genome[50..90]),
            kmm_dna::decode_string(&genome[300..340]),
        ];
        let mut out = Vec::new();
        let summary = search_patterns(
            &idxf,
            &probes,
            1,
            Method::ALGORITHM_A,
            4,
            None,
            &StatsOptions::default(),
            &mut out,
        )
        .unwrap();
        assert!(summary.contains("across 2 patterns"), "{summary}");
        let text = String::from_utf8(out).unwrap();
        // Each planted probe is found at its home locus, prefixed with its
        // 0-based pattern index, and pattern 0's lines precede pattern 1's.
        assert!(text.lines().any(|l| l.starts_with("0\t50\t")), "{text}");
        assert!(text.lines().any(|l| l.starts_with("1\t300\t")), "{text}");
        let first_of = |p: &str| text.lines().position(|l| l.starts_with(p)).unwrap();
        assert!(first_of("0\t") < first_of("1\t"));

        // The parallel batch prints byte-identically to a serial run.
        let mut serial = Vec::new();
        search_patterns(
            &idxf,
            &probes,
            1,
            Method::ALGORITHM_A,
            1,
            None,
            &StatsOptions::default(),
            &mut serial,
        )
        .unwrap();
        assert_eq!(text.as_bytes(), serial.as_slice());

        // Empty pattern lists are rejected.
        assert!(search_patterns(
            &idxf,
            &[],
            1,
            Method::ALGORITHM_A,
            1,
            None,
            &StatsOptions::default(),
            &mut Vec::new(),
        )
        .is_err());
    }

    #[test]
    fn trace_out_creates_parent_dirs_and_emits_chrome_json() {
        use kmm_telemetry::Json;
        let fa = tmp("trace.fa");
        let idxf = tmp("trace.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 1).unwrap();
        let genome = load_fasta_single(&fa).unwrap();
        let probe = kmm_dna::decode_string(&genome[100..160]);

        // Both output paths point into directories that do not exist yet;
        // the CLI must create them rather than fail.
        let base = tmp("trace-nested");
        let _ = std::fs::remove_dir_all(&base);
        let trace = base.join("runs/today/trace.json");
        let json = base.join("runs/today/stats.json");
        let opts = StatsOptions {
            table: false,
            json_path: Some(json.clone()),
            trace_out: Some(trace.clone()),
            slowest: Some(2),
        };
        let mut out = Vec::new();
        let summary =
            search_pattern(&idxf, &probe, 2, Method::ALGORITHM_A, &opts, &mut out).unwrap();
        assert!(summary.contains("trace ->"), "{summary}");
        assert!(summary.contains("slowest"), "{summary}");
        assert!(json.exists());

        // The trace file is loadable Chrome trace-event JSON.
        let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

        // An uncreatable parent (a file stands where the directory must
        // go) is reported with the offending paths, not a bare io error.
        let blocker = base.join("blocker");
        std::fs::write(&blocker, b"x").unwrap();
        let bad = StatsOptions {
            trace_out: Some(blocker.join("sub/trace.json")),
            ..StatsOptions::default()
        };
        let err = search_pattern(&idxf, &probe, 2, Method::ALGORITHM_A, &bad, &mut Vec::new())
            .unwrap_err();
        assert!(err.0.contains("blocker"), "{}", err.0);
        assert!(err.0.contains("trace.json"), "{}", err.0);
    }

    #[test]
    fn search_stats_json_has_phases_and_counters() {
        use kmm_telemetry::Json;
        let fa = tmp("stats.fa");
        let idxf = tmp("stats.idx");
        let json = tmp("stats.json");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();
        let genome = load_fasta_single(&fa).unwrap();
        let probe = kmm_dna::decode_string(&genome[200..260]);

        let opts = StatsOptions {
            table: true,
            json_path: Some(json.clone()),
            ..StatsOptions::default()
        };
        let mut out = Vec::new();
        let summary =
            search_pattern(&idxf, &probe, 2, Method::ALGORITHM_A, &opts, &mut out).unwrap();
        // The summary carries both the JSON pointer and the table.
        assert!(summary.contains("stats json ->"), "{summary}");
        assert!(summary.contains("search.queries"), "{summary}");

        let doc = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(kmm_telemetry::SCHEMA)
        );
        let phases = doc.get("phases").unwrap();
        for phase in ["index.load", "preprocess.rarray", "search.query"] {
            let entry = phases
                .get(phase)
                .unwrap_or_else(|| panic!("missing {phase}"));
            assert!(entry.get("total_ns").and_then(Json::as_u64).is_some());
        }
        // The load + search actually ran, so those phases saw entries.
        assert!(
            phases
                .get("index.load")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64()
                > Some(0)
        );
        assert!(
            phases
                .get("search.query")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64()
                > Some(0)
        );
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("search.queries").and_then(Json::as_u64),
            Some(1)
        );
        // Every SearchStats field is surfaced as a search.* counter.
        for (name, _) in kmm_core::SearchStats::default().as_pairs() {
            let key = format!("search.{name}");
            assert!(counters.get(&key).is_some(), "missing counter {key}");
        }
    }

    #[test]
    fn explain_renders_table_and_json() {
        use kmm_telemetry::Json;
        let fa = tmp("explain.fa");
        let idxf = tmp("explain.idx");
        generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        index(&fa, &idxf, 2).unwrap();
        let genome = load_fasta_single(&fa).unwrap();
        let probe = kmm_dna::decode_string(&genome[120..160]);
        let methods = [Method::Bwt { use_phi: true }, Method::ALGORITHM_A];

        let mut table = Vec::new();
        let summary = explain_query(&idxf, &probe, 2, &methods, false, &mut table).unwrap();
        assert!(summary.contains("winner:"), "{summary}");
        let table = String::from_utf8(table).unwrap();
        assert!(table.contains("EXPLAIN pattern="), "{table}");
        assert!(table.contains("depth profile"), "{table}");
        assert!(table.contains("verdict:"), "{table}");

        let mut json = Vec::new();
        explain_query(&idxf, &probe, 2, &methods, true, &mut json).unwrap();
        let doc = Json::parse(std::str::from_utf8(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(kmm_telemetry::EXPLAIN_SCHEMA)
        );
        assert_eq!(
            doc.get("methods").and_then(Json::as_array).map(|m| m.len()),
            Some(2)
        );

        // Bad inputs are CLI errors, not panics.
        assert!(explain_query(&idxf, "QQ", 1, &methods, false, &mut Vec::new()).is_err());

        // An empty method list falls back to the paper set; without
        // mirror sections in the index the default excludes bidir.
        let mut dflt = Vec::new();
        let summary = explain_query(&idxf, &probe, 1, &[], false, &mut dflt).unwrap();
        assert!(
            summary.contains(&format!("explained {} method(s)", Method::PAPER_SET.len())),
            "{summary}"
        );
        assert!(!String::from_utf8(dflt).unwrap().contains("Bidir"));
    }

    #[test]
    fn method_and_genome_parsing() {
        assert_eq!(parse_method("a").unwrap(), Method::ALGORITHM_A);
        assert_eq!(parse_method("bwt").unwrap(), Method::Bwt { use_phi: true });
        assert_eq!(parse_method("seed").unwrap(), Method::SeedFilter);
        assert!(parse_method("wat").is_err());
        assert_eq!(parse_genome("rat").unwrap(), ReferenceGenome::Rat);
        assert_eq!(parse_genome("CMEROLAE").unwrap(), ReferenceGenome::CMerolae);
        assert!(parse_genome("human").is_err());
    }

    #[test]
    fn error_paths_are_reported() {
        assert!(generate(ReferenceGenome::Rat, -1.0, &tmp("x.fa")).is_err());
        assert!(load_index(Path::new("/nonexistent/idx")).is_err());
        let fa = tmp("short.fa");
        generate(ReferenceGenome::CMerolae, 0.01, &fa).unwrap();
        assert!(simulate(&fa, 5, 10_000_000, 1, &tmp("r.fq")).is_err());
        // A FASTA file is not an index.
        assert!(load_index(&fa).is_err());
    }
}
