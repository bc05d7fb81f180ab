//! `perfbench`: the paper-scale wall-clock benchmark of `kmm`.
//!
//! ```text
//! perfbench --workload <map-reads|serve-probes|scan-repeats> --seed N
//!           --seconds S --trace <0|1> [--kmm PATH] [--work-dir DIR] [--scale F]
//! ```
//!
//! Generates the workload's inputs from the seed, builds the index of
//! the 2.9 Mbp Rat stand-in, runs the workload for `S` seconds and
//! checks every answer. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer metrics, and writes the run's spans as a
//! Chrome trace-event file. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exit status: 0
//! when every answer checked, 1 on a wrong answer (after the result
//! line), 2 when the run could not complete (no result line).
//! README.md next to this crate describes the workloads and metrics.

mod inproc;
mod layers;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kmm_bwt::FmBuildConfig;
use kmm_core::KMismatchIndex;
use kmm_par::ThreadPool;
use kmm_telemetry::Json;

use crate::inproc::{closed_loop, Answer, Engine, Mode, Pass};
use crate::layers::Metrics;
use crate::serve::{open_loop, parse_hits, search_body, search_request, Daemon, Scrape};
use crate::spans::{chrome_trace, self_times, SpanLog};
use crate::stats::{median, quantile};
use crate::workload::{
    check_hits, make_ops, Op, Workload, NAIVE_SAMPLE, PAPER_SCALE, POOL_THREADS,
};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// `serve-probes`: the fixed offered rate in requests/s. At the seed
/// commit fewer than 1 in 1,000 requests find both connections busy
/// here; at 200 req/s and above, the daemon's delayed replies to
/// pipelined requests (it does not set `TCP_NODELAY`) keep pipelining
/// going in some runs and not in others.
const SERVE_RATE: f64 = 100.0;

/// Rate and length of the low-rate `/search` phase the traced runs of
/// the in-process workloads send with their own queries.
fn layer_serve_load(workload: Workload) -> (f64, f64) {
    match workload {
        Workload::MapReads => (8.0, 2.5),
        _ => (100.0, 2.5),
    }
}

#[derive(Debug)]
struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    kmm: PathBuf,
    work: PathBuf,
    scale: f64,
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let name = need("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let scale = match get("--scale") {
        None => PAPER_SCALE,
        Some(s) => s.parse::<f64>().map_err(|e| format!("--scale: {e}"))?,
    };
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        kmm: get("--kmm").map_or_else(|| target.join("release").join("kmm"), PathBuf::from),
        work: get("--work-dir").map_or_else(|| target.join("perfbench"), PathBuf::from),
        scale,
    })
}

/// What one run measured.
#[derive(Default)]
struct Report {
    metrics: Metrics,
    attempted: u64,
    /// Operations that errored, were refused or answered wrongly.
    failed: u64,
    /// Wrong answers (counted in `failed` too): these fail the run.
    wrong: u64,
    errors: Vec<String>,
    notes: Vec<(String, Json)>,
    daemon_pids: Vec<u32>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// The latency tail, printed with the run but not a metric: on a
    /// 2-vCPU VM, stalls of ~10 ms on 1–2 % of wake-ups move p99 by
    /// more than any bound a metric may have (README.md).
    fn tail(&mut self, latencies_ms: &[f64]) {
        let p99 = quantile(latencies_ms, 0.99).unwrap_or(f64::INFINITY);
        self.note("latency_p99_ms", Json::Float(p99));
        self.note("latency_samples", Json::UInt(latencies_ms.len() as u64));
    }

    fn wrong_answer(&mut self, error: String) {
        self.failed += 1;
        self.wrong += 1;
        if self.errors.len() < 10 {
            self.errors.push(error);
        }
    }

    fn wrong_answers(&mut self, errors: Vec<String>) {
        for e in errors {
            self.wrong_answer(e);
        }
    }

    fn absorb_pass(&mut self, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
        self.wrong += pass.failed;
        let room = 10usize.saturating_sub(self.errors.len());
        self.errors.extend(pass.errors.iter().take(room).cloned());
    }
}

/// Every index the benchmark builds: the library's default layout on
/// the pool's 2 workers.
fn build_config() -> FmBuildConfig {
    FmBuildConfig::default().with_threads(POOL_THREADS)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(report) => {
            print_report(&config, &report);
            for e in &report.errors {
                eprintln!("perfbench: {e}");
            }
            if report.wrong == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(config: &Config) -> Result<Report, String> {
    let needs_daemon = config.trace || config.workload == Workload::ServeProbes;
    if needs_daemon && !config.kmm.is_file() {
        return Err(format!(
            "no kmm binary at {} (cargo build --release --bin kmm)",
            config.kmm.display()
        ));
    }
    std::fs::create_dir_all(&config.work).map_err(|e| format!("{}: {e}", config.work.display()))?;
    let epoch = Instant::now();
    let genome = workload::genome(config.scale);
    let ops = make_ops(config.workload, &genome, config.seed);
    let index_path = config
        .work
        .join(format!("index-{}.kmm", std::process::id()));
    let mut report = Report::default();
    let result = match (config.workload, config.trace) {
        (Workload::ServeProbes, false) => {
            serve_untraced(config, &genome, &ops, &index_path, &mut report)
        }
        (Workload::ServeProbes, true) => {
            serve_traced(config, &genome, &ops, &index_path, epoch, &mut report)
        }
        (_, false) => inproc_untraced(config, &genome, &ops, &mut report),
        (_, true) => inproc_traced(config, &genome, &ops, &index_path, epoch, &mut report),
    };
    let _ = std::fs::remove_file(&index_path);
    result.map(|()| report)
}

/// End-to-end pass of `map-reads` and `scan-repeats`: set-up repeated,
/// then calls that take turns between the batch entry point
/// (`ops_per_s`) and each operation timed on the same pool (latency),
/// half the time each.
fn inproc_untraced(
    config: &Config,
    genome: &[u8],
    ops: &[Op],
    report: &mut Report,
) -> Result<(), String> {
    let pool = ThreadPool::new(POOL_THREADS);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut index: Option<KMismatchIndex> = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous index first, so peak memory is one index's.
        drop(index.take());
        let text = genome.to_vec();
        let t = Instant::now();
        let idx = KMismatchIndex::with_config(text, build_config());
        let engine = Engine::new(config.workload, &idx);
        let first = engine.run_one(&ops[0].pattern);
        if let Err(e) = engine.check(genome, &ops[0], &first) {
            report.wrong_answer(format!("first answer: {e}"));
        }
        setups.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        index = Some(idx);
    }
    let index = index.expect("at least one set-up");
    let engine = Engine::new(config.workload, &index);
    let half = Duration::from_secs_f64(config.seconds / 2.0);
    let [batch, per_op] = closed_loop(
        &engine,
        genome,
        ops,
        half,
        &pool,
        [Mode::Batch, Mode::PerOp],
    );
    report.absorb_pass(&batch);
    report.absorb_pass(&per_op);
    naive_sample(&engine, ops, &pool, report);

    report.metric("ops_per_s", batch.ops_per_s(), "1/s");
    report.metric("latency_p50_ms", median(&per_op.latencies_ms), "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("mem_peak_mb", self_hwm_mb(), "MiB");
    report.tail(&per_op.latencies_ms);
    report.note(
        "setup_samples_s",
        Json::Arr(setups.into_iter().map(Json::Float).collect()),
    );
    report.note("batch_calls", Json::UInt(batch.call_rates.len() as u64));
    report.note("batch_ops", Json::UInt(batch.ops));
    Ok(())
}

/// Compare the batch path's answers for the first operations with the
/// naive scan.
fn naive_sample(engine: &Engine, ops: &[Op], pool: &ThreadPool, report: &mut Report) {
    let n = NAIVE_SAMPLE.min(ops.len());
    let patterns: Vec<&[u8]> = ops[..n].iter().map(|op| op.pattern.as_slice()).collect();
    for (i, answer) in engine.run_batch(&patterns, pool, None).iter().enumerate() {
        report.attempted += 1;
        if let Err(e) = engine.check_naive(&ops[i], answer) {
            report.wrong_answer(format!("op {i} against the naive scan: {e}"));
        }
    }
}

/// Peak resident set of this process in MiB.
fn self_hwm_mb() -> f64 {
    serve::vm_hwm_kib("/proc/self/status").unwrap_or(0) as f64 / 1024.0
}

/// Per-layer pass of `map-reads` and `scan-repeats`: calls that take
/// turns between the batch entry point untraced and traced, half the
/// time each, then the layer probes, and a low-rate `/search` phase with
/// the workload's queries.
fn inproc_traced(
    config: &Config,
    genome: &[u8],
    ops: &[Op],
    index_path: &Path,
    epoch: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let spans = SpanLog::new(epoch);
    let pool = ThreadPool::new(POOL_THREADS);
    let mut m = Metrics::new();
    let index = layers::build(genome, build_config(), &spans, &mut m);
    let engine = Engine::new(config.workload, &index);
    let first = spans.scope("warmup", || engine.run_one(&ops[0].pattern));
    report.attempted += 1;
    if let Err(e) = engine.check(genome, &ops[0], &first) {
        report.wrong_answer(format!("first answer: {e}"));
    }
    let half = Duration::from_secs_f64(config.seconds / 2.0);
    let [plain, traced] = closed_loop(
        &engine,
        genome,
        ops,
        half,
        &pool,
        [Mode::Batch, Mode::Traced(&spans)],
    );
    report.absorb_pass(&plain);
    report.absorb_pass(&traced);
    m.push((
        "telemetry.trace_overhead_ratio".into(),
        plain.ops_per_s() / traced.ops_per_s().max(1e-9),
        "ratio",
    ));
    probe_layers(&engine, genome, ops, &spans, &mut m, report);

    save_index(&index, index_path)?;
    report.wrong_answers(layers::open(index_path, &spans, &mut m));
    let daemon = Daemon::spawn(
        &config.kmm,
        index_path,
        &config.work,
        &format!("layers-{}", std::process::id()),
    )?;
    report.daemon_pids.push(daemon.pid);
    let (rate, secs) = layer_serve_load(config.workload);
    let served = serve_phase(&daemon, &engine, ops, rate, secs, Some(&spans), report)?;
    daemon.shutdown()?;
    serve_layer_metrics(&served, &mut m);
    finish_trace(config, &spans, m, report)
}

/// The in-process layer probes every traced run makes on the workload's
/// own operations, after its workload pass.
fn probe_layers(
    engine: &Engine,
    genome: &[u8],
    ops: &[Op],
    spans: &SpanLog,
    m: &mut Metrics,
    report: &mut Report,
) {
    layers::index_bytes(engine.index, m);
    report.wrong_answers(layers::kernels(
        engine.index,
        genome,
        ops,
        engine.workload,
        spans,
        m,
    ));
    report.wrong_answers(layers::matchers(engine, ops, spans, m));
    layers::mapper(engine, ops, spans, m);
    layers::parallel(engine, ops, spans, m);
    naive_sample(engine, ops, &ThreadPool::new(POOL_THREADS), report);
}

/// One open-loop phase against a live daemon: every 200 checked against
/// the in-process answer, and the daemon's counter deltas.
struct Served {
    phase: serve::Phase,
    delta: Scrape,
    /// Per request; a request without a correct 200 counts as infinite.
    latencies_ms: Vec<f64>,
    /// Correct 200 replies.
    ok: usize,
}

impl Served {
    fn ops_per_s(&self) -> f64 {
        self.ok as f64 / self.phase.wall.as_secs_f64().max(1e-9)
    }
}

/// Send the workload's operations, from the first, as `/search` requests
/// at `rate` for `secs`. Requests that got no 200 count as failed
/// operations.
fn serve_phase(
    daemon: &Daemon,
    engine: &Engine,
    ops: &[Op],
    rate: f64,
    secs: f64,
    spans: Option<&SpanLog>,
    report: &mut Report,
) -> Result<Served, String> {
    let count = (rate * secs).round().max(1.0) as usize;
    let request = |i: usize| search_request(&ops[i % ops.len()].pattern, engine.k);
    let before = Scrape::take(daemon)?;
    let phase = open_loop(daemon.addr, rate, count, &request, spans);
    let after = Scrape::take(daemon)?;

    // Expected answers, computed in process after the phase.
    let pool = ThreadPool::new(POOL_THREADS);
    let probes: Vec<usize> = phase.outcomes.iter().map(|o| o.seq % ops.len()).collect();
    let patterns: Vec<&[u8]> = probes.iter().map(|&p| ops[p].pattern.as_slice()).collect();
    let expected = engine
        .index
        .search_batch_par(&patterns, engine.k, engine.method, &pool)
        .0;
    let mut ok = 0;
    let mut latencies_ms = Vec::with_capacity(phase.outcomes.len());
    for ((o, &p), want) in phase.outcomes.iter().zip(&probes).zip(&expected) {
        report.attempted += 1;
        let verdict = if o.status != 200 {
            report.failed += 1;
            false
        } else {
            let want: Vec<(usize, usize)> =
                want.iter().map(|h| (h.position, h.mismatches)).collect();
            let checked = parse_hits(&o.body).and_then(|got| {
                if got != want {
                    return Err(format!(
                        "{} hits served, {} in process",
                        got.len(),
                        want.len()
                    ));
                }
                check_hits(
                    engine.index.text(),
                    &ops[p].pattern,
                    engine.k,
                    &got,
                    ops[p].planted,
                )
            });
            match checked {
                Ok(()) => true,
                Err(e) => {
                    report.wrong_answer(format!("request {} (probe {p}): {e}", o.seq));
                    false
                }
            }
        };
        ok += usize::from(verdict);
        latencies_ms.push(if verdict {
            o.latency_ns as f64 / 1e6
        } else {
            f64::INFINITY
        });
    }
    Ok(Served {
        delta: after.since(&before),
        phase,
        latencies_ms,
        ok,
    })
}

fn serve_layer_metrics(served: &Served, m: &mut Metrics) {
    let d = &served.delta;
    let search_us = d.search_ns as f64 / 1e3 / d.searches.max(1) as f64;
    let sent = served.phase.outcomes.len().max(1) as f64;
    let lags: Vec<f64> = served
        .phase
        .outcomes
        .iter()
        .map(|o| o.lag_ns as f64 / 1e6)
        .collect();
    m.push(("serve.search_us".into(), search_us, "us"));
    m.push((
        "serve.overhead_us_p50".into(),
        median(&served.latencies_ms) * 1e3 - search_us,
        "us",
    ));
    m.push((
        "serve.pipelined_share".into(),
        served.phase.pipelined as f64 / sent,
        "fraction",
    ));
    m.push((
        "serve.gen_lag_ms_p99".into(),
        quantile(&lags, 0.99).unwrap_or(0.0),
        "ms",
    ));
    m.push((
        "serve.keepalive_reuse_ratio".into(),
        d.keepalive_reuses as f64 / d.requests.max(1) as f64,
        "fraction",
    ));
    m.push((
        "serve.reconnects".into(),
        served.phase.reconnects as f64,
        "count",
    ));
    m.push(("serve.shed".into(), d.shed as f64, "count"));
    m.push(("serve.errors".into(), d.errors as f64, "count"));
    m.push(("serve.timeouts".into(), d.timeouts as f64, "count"));
}

/// Save the FM-index the way `kmm index` does (no mirror sections).
fn save_index(index: &KMismatchIndex, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    index
        .fm()
        .save(&mut w)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("save {}: {e}", path.display()))
}

/// Spawn the daemon and answer the first probe: the `serve-probes`
/// set-up, timed from spawn to the first checked `/search`.
fn serve_setup(
    config: &Config,
    engine: &Engine,
    ops: &[Op],
    index_path: &Path,
    tag: &str,
    report: &mut Report,
) -> Result<(Daemon, f64), String> {
    let Answer::Hits(want) = engine.run_one(&ops[0].pattern) else {
        return Err("serve-probes searches, it does not map".into());
    };
    let t = Instant::now();
    let daemon = Daemon::spawn(&config.kmm, index_path, &config.work, tag)?;
    report.daemon_pids.push(daemon.pid);
    let reply = serve::one_shot(
        daemon.addr,
        "POST",
        "/search",
        &search_body(&ops[0].pattern, engine.k),
    )
    .map_err(|e| format!("first /search: {e}"))?;
    let verdict = match parse_hits(&reply.body) {
        Ok(got) if reply.status == 200 && got == want => Ok(()),
        Ok(got) => Err(format!(
            "status {}, {} hits against {} in process",
            reply.status,
            got.len(),
            want.len()
        )),
        Err(e) => Err(e),
    };
    let secs = t.elapsed().as_secs_f64();
    report.attempted += 1;
    if let Err(e) = verdict {
        report.wrong_answer(format!("first /search: {e}"));
    }
    Ok((daemon, secs))
}

/// End-to-end pass of `serve-probes`: daemon set-up repeated, then the
/// fixed-rate open loop for the whole run.
fn serve_untraced(
    config: &Config,
    genome: &[u8],
    ops: &[Op],
    index_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let index = KMismatchIndex::with_config(genome.to_vec(), build_config());
    save_index(&index, index_path)?;
    let engine = Engine::new(config.workload, &index);
    naive_sample(&engine, ops, &ThreadPool::new(POOL_THREADS), report);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<Daemon> = None;
    for r in 0..SETUP_REPEATS {
        if let Some(old) = live.take() {
            old.shutdown()?;
        }
        let (daemon, secs) = serve_setup(
            config,
            &engine,
            ops,
            index_path,
            &format!("serve-{}-{r}", std::process::id()),
            report,
        )?;
        setups.push(secs);
        live = Some(daemon);
    }
    let daemon = live.expect("at least one set-up");
    let fixed = serve_phase(
        &daemon,
        &engine,
        ops,
        SERVE_RATE,
        config.seconds,
        None,
        report,
    )?;
    let hwm = daemon.vm_hwm_kib().unwrap_or(0);
    daemon.shutdown()?;

    report.metric("ops_per_s", fixed.ops_per_s(), "1/s");
    report.metric("latency_p50_ms", median(&fixed.latencies_ms), "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("mem_peak_mb", hwm as f64 / 1024.0, "MiB");
    report.tail(&fixed.latencies_ms);
    report.note(
        "setup_samples_s",
        Json::Arr(setups.into_iter().map(Json::Float).collect()),
    );
    report.note("pipelined", Json::UInt(fixed.phase.pipelined));
    report.note("reconnects", Json::UInt(fixed.phase.reconnects));
    Ok(())
}

/// Per-layer pass of `serve-probes`: the fixed-rate loop untraced and
/// then traced, half the time each on the same probes, with
/// `/stats.json` scraped around the traced half, and the in-process layer
/// probes on those probes.
fn serve_traced(
    config: &Config,
    genome: &[u8],
    ops: &[Op],
    index_path: &Path,
    epoch: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let spans = SpanLog::new(epoch);
    let mut m = Metrics::new();
    let index = layers::build(genome, build_config(), &spans, &mut m);
    save_index(&index, index_path)?;
    report.wrong_answers(layers::open(index_path, &spans, &mut m));
    let engine = Engine::new(config.workload, &index);
    let (daemon, _) = serve_setup(
        config,
        &engine,
        ops,
        index_path,
        &format!("trace-{}", std::process::id()),
        report,
    )?;
    let half = config.seconds / 2.0;
    let plain = serve_phase(&daemon, &engine, ops, SERVE_RATE, half, None, report)?;
    let traced = serve_phase(
        &daemon,
        &engine,
        ops,
        SERVE_RATE,
        half,
        Some(&spans),
        report,
    )?;
    daemon.shutdown()?;
    m.push((
        "telemetry.trace_overhead_ratio".into(),
        plain.ops_per_s() / traced.ops_per_s().max(1e-9),
        "ratio",
    ));
    serve_layer_metrics(&traced, &mut m);
    probe_layers(&engine, genome, ops, &spans, &mut m, report);
    finish_trace(config, &spans, m, report)
}

/// Write the spans file and move the per-layer metrics into the report.
fn finish_trace(
    config: &Config,
    spans: &SpanLog,
    metrics: Metrics,
    report: &mut Report,
) -> Result<(), String> {
    let all = spans.spans();
    let path = config.work.join(format!(
        "{}-seed{}.trace.json",
        config.workload.name(),
        config.seed
    ));
    let doc = chrome_trace(&all, fingerprint(config));
    std::fs::write(&path, doc.to_compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    let table: Vec<(String, Json)> = self_times(&all)
        .into_iter()
        .map(|(name, (count, total, own))| {
            let row = Json::obj([
                ("count", Json::UInt(count)),
                ("total_ms", Json::Float(total as f64 / 1e6)),
                ("self_ms", Json::Float(own as f64 / 1e6)),
            ]);
            (name, row)
        })
        .collect();
    report.note("spans_file", Json::Str(path.display().to_string()));
    report.note("self_time", Json::Obj(table));
    report.metrics = metrics;
    Ok(())
}

/// Host, code and parameters of a run, so results from different hosts,
/// kernels or commits are never compared.
fn fingerprint(config: &Config) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let w = config.workload;
    let mut params = vec![
        ("genome", Json::Str(workload::GENOME.name().into())),
        ("scale", Json::Float(config.scale)),
        ("pattern_len", Json::UInt(w.pattern_len() as u64)),
        ("k", Json::UInt(w.k() as u64)),
        ("method", Json::Str(w.method().label().into())),
        ("pool_threads", Json::UInt(POOL_THREADS as u64)),
        ("seconds", Json::Float(config.seconds)),
        ("setup_repeats", Json::UInt(SETUP_REPEATS as u64)),
    ];
    if w == Workload::ServeProbes {
        params.push(("rate", Json::Float(SERVE_RATE)));
        params.push(("connections", Json::UInt(serve::CONNS as u64)));
    }
    Json::obj([
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::UInt(kmm_par::available_threads() as u64)),
        ("simd_kernel", Json::Str(kmm_bwt::active_kernel().into())),
        ("commit", Json::Str(commit())),
        ("source_digest", Json::Str(source_digest())),
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::UInt(config.seed)),
        ("trace", Json::Bool(config.trace)),
        ("params", Json::obj(params)),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources and manifests (paths and bytes, in
/// sorted order): names the code under test where there is no `.git`.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn print_report(config: &Config, report: &Report) {
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!(
        "{:<40} {:>18.6} fraction ({} failed of {} attempted)",
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let mut run = vec![
        ("fingerprint".to_string(), fingerprint(config)),
        (
            "daemon_pids".to_string(),
            Json::Arr(
                report
                    .daemon_pids
                    .iter()
                    .map(|&p| Json::UInt(u64::from(p)))
                    .collect(),
            ),
        ),
        (
            "errors".to_string(),
            Json::Arr(report.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    run.extend(report.notes.iter().cloned());
    println!("{}", Json::obj([("run", Json::Obj(run))]).to_compact());
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Float(*value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(report.wrong == 0)),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
}
