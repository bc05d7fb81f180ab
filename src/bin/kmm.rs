//! `kmm` — command-line front-end for the bwt-kmismatch suite.
//!
//! ```text
//! kmm generate --genome rat --scale 0.01 -o ref.fa
//! kmm index    --reference ref.fa -o ref.idx [--threads N]
//! kmm simulate --reference ref.fa --reads 100 --len 100 -o reads.fq
//! kmm map      --index ref.idx --reads reads.fq -k 5 [--method bidir] [--threads N]
//! kmm search   --index ref.idx --pattern ACGTT... -k 3 [--method bwt] [--threads N]
//! kmm serve    --index ref.idx [--addr 127.0.0.1:8080] [--threads N]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bwt_kmismatch::cli::{self, CliError};
use bwt_kmismatch::core::MapperConfig;
use kmm_telemetry::events::{self, EventLog};
use kmm_telemetry::LogLevel;

// Every kmm process allocates through the counting wrapper so
// `--stats` can report live/peak heap per phase.
#[global_allocator]
static ALLOC: kmm_telemetry::CountingAlloc = kmm_telemetry::CountingAlloc;

const USAGE: &str = "\
usage: kmm <command> [options]

commands:
  generate  --genome <rat|zebrafish|rat-chr1|celegans|cmerolae>
            [--scale F] -o <out.fa>
  index     --reference <ref.fa> -o <out.idx> [--threads N] [--bidir]
  simulate  --reference <ref.fa> [--reads N] [--len L] [--seed S] -o <out.fq>
  map       --index <ref.idx> --reads <reads.fq> [-k K] [--method M]
            [--both-strands true|false] [--threads N] [--timeout-ms T] [--stats]
            [--stats-json <out.json>] [--trace-out <trace.json>]
            [--slowest K]
  search    --index <ref.idx> --pattern <DNA> [--pattern <DNA> ...] [-k K]
            [--method M] [--threads N] [--timeout-ms T] [--stats]
            [--stats-json <out.json>] [--trace-out <trace.json>]
            [--slowest K]
  explain   --index <ref.idx> --pattern <DNA> [-k K]
            [--method M] [--method M ...] [--json]
  serve     --index <ref.idx> [--addr HOST:PORT] [--threads N] [-k K]
            [--method M] [--slowest K] [--port-file <path>]
            [--timeout-ms T] [--max-body-bytes B] [--failpoints SPEC]
            [--mmap] [--keep-alive N] [--idle-timeout-ms T]
            [--tenant-rate N] [--max-conns N]

global options (any command):
  --log-level <error|warn|info|debug>   stderr event verbosity (default info)
  --quiet                               suppress stderr event lines
  --log-json <path>                     append events as JSON lines to a file

methods: a (Algorithm A, default for search and serve) |
         bidir (bidirectional search schemes, default for map) |
         bwt | bwt-nophi | amir | cole | kangaroo | naive | seed

--bidir additionally builds the reverse-BWT mirror rank structure and
stores it in the same v4 index file as optional sections. An index with
the mirror serves --method bidir — bidirectional search driven by
optimum search schemes — without reconstructing the text; without it,
bidir searches (the map default) rebuild the mirror in memory once, on
first use.

--threads N (or -j N) sets the worker count for index construction and
batch map/search; it defaults to the machine's available parallelism.
Results are bit-identical at any thread count.

--stats prints a telemetry table (phase timings, counters, histograms,
latency percentiles) with the summary; --stats-json writes the same
snapshot as JSON. --trace-out records per-query spans and writes a
Chrome trace-event JSON (open in Perfetto / chrome://tracing);
--slowest K prints the K slowest queries from the flight recorder.

explain runs one query once per method with per-depth cost attribution
armed and prints a query-plan-style comparison: deterministic counters
(rank blocks, nodes, prunes by cause), a per-depth expansion profile,
heap deltas, and a winner verdict computed from work counters — never
wall-clock, so rerunning a query prints the same bytes.
Without --method it compares the paper's four methods —
plus bidir when the index file carries the reverse-BWT mirror; repeat
--method to pick a custom set. --json emits kmm-explain/v1 JSON.

--timeout-ms T gives each query/read a cooperative deadline: work past
the budget stops at the next poll point and returns the verified partial
results, flagged as truncated (CLI summaries count them; serve answers
504 with 'truncated': true). Without it, results are exhaustive.

serve starts an event-loop HTTP/1.1 daemon over a loaded index with
GET /healthz, /metrics (Prometheus), /stats.json, /slow.json,
/trace.json, /dashboard (self-contained live HTML dashboard) and
POST /search, /map, /explain, /shutdown. --addr defaults to
127.0.0.1:0 (ephemeral port; use --port-file to discover it).
Connections are keep-alive (up to --keep-alive requests each, default
100; 0 closes after every response) and evicted with a 408 after
--idle-timeout-ms without progress (slow-loris defense, default 5000).
--tenant-rate N admits N requests/second per X-Kmm-Tenant header value
(token bucket, burst N; 0 = unlimited); over-rate requests get 429 +
Retry-After, as do requests arriving while the worker queue is full
and connections past --max-conns (default 1024). A queue at half
capacity clamps request deadlines to 250 ms so overload degrades into
fast truncation. Bodies over --max-body-bytes get 413.
--mmap opens the index zero-copy: startup reads only the section
table, metadata, and the sampled-SA mark bitmap and rank directory
(payloads are faulted in on demand) instead of reading and checksumming
the whole file up front.

kmm search/map/serve read only v4 index files; files from older
versions fail with a pointer to rebuild them with 'kmm index'.

--failpoints SPEC (or the KMM_FAILPOINTS env var) arms deterministic
fault-injection sites, e.g. 'serve.handler.err=1in10.err' or
'index.load.io=after2.err;serve.handler.slow=sleep50'. Sites:
index.load.io, index.save.io, pool.worker.panic, serve.handler.slow,
serve.handler.err, serve.conn.stall (accepted connection is never
read, so the idle eviction fires), serve.conn.reset (connection is
dropped at accept). Testing only; disarmed sites cost one atomic load.";

/// Flags that take no value; their presence means `true`.
const BOOLEAN_FLAGS: &[&str] = &["stats", "mmap", "json", "bidir"];

/// Per-command accepted flags (after `-j` canonicalises to `threads`).
const GENERATE_FLAGS: &[&str] = &["genome", "scale", "o"];
const INDEX_FLAGS: &[&str] = &["reference", "o", "threads", "bidir"];
const SIMULATE_FLAGS: &[&str] = &["reference", "reads", "len", "seed", "o"];
const MAP_FLAGS: &[&str] = &[
    "index",
    "reads",
    "k",
    "method",
    "both-strands",
    "threads",
    "timeout-ms",
    "stats",
    "stats-json",
    "trace-out",
    "slowest",
];
const SEARCH_FLAGS: &[&str] = &[
    "index",
    "pattern",
    "k",
    "method",
    "threads",
    "timeout-ms",
    "stats",
    "stats-json",
    "trace-out",
    "slowest",
];
const EXPLAIN_FLAGS: &[&str] = &["index", "pattern", "k", "method", "json"];
const SERVE_FLAGS: &[&str] = &[
    "index",
    "addr",
    "threads",
    "k",
    "method",
    "slowest",
    "port-file",
    "timeout-ms",
    "max-body-bytes",
    "failpoints",
    "mmap",
    "keep-alive",
    "idle-timeout-ms",
    "tenant-rate",
    "max-conns",
];

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String], known: &[&str]) -> Result<Args, CliError> {
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                // `-j N` is shorthand for `--threads N` wherever threads
                // are accepted.
                let name = if name == "j" { "threads" } else { name };
                if !known.contains(&name) {
                    let valid: Vec<String> = known.iter().map(|f| format!("--{f}")).collect();
                    return Err(CliError(format!(
                        "unknown flag --{name} (valid: {})",
                        valid.join(", ")
                    )));
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_string(), "true".to_string()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| CliError(format!("flag --{name} needs a value")))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                return Err(CliError(format!("unexpected argument '{a}'")));
            }
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<String> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError(format!("missing required flag --{name}")))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("bad value for --{name}: {v}"))),
        }
    }

    /// `--threads N` / `-j N`: defaults to the available parallelism;
    /// rejects zero and non-numeric values.
    fn threads(&self) -> Result<usize, CliError> {
        match self.get("threads") {
            None => Ok(bwt_kmismatch::par::available_threads()),
            Some(v) => match v.parse::<usize>() {
                Ok(0) => Err(CliError("--threads must be at least 1 (got 0)".to_string())),
                Ok(n) => Ok(n),
                Err(_) => Err(CliError(format!(
                    "bad value for --threads: '{v}' (expected a positive integer)"
                ))),
            },
        }
    }
}

/// `--timeout-ms T`: per-query/per-read cooperative deadline.
fn timeout(args: &Args) -> Result<Option<std::time::Duration>, CliError> {
    match args.get("timeout-ms") {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(0) => Err(CliError(
                "--timeout-ms must be at least 1 (got 0)".to_string(),
            )),
            Ok(ms) => Ok(Some(std::time::Duration::from_millis(ms))),
            Err(_) => Err(CliError(format!(
                "bad value for --timeout-ms: '{v}' (expected milliseconds)"
            ))),
        },
    }
}

fn stats_options(args: &Args) -> Result<cli::StatsOptions, CliError> {
    Ok(cli::StatsOptions {
        table: args.get("stats").is_some(),
        json_path: args.get("stats-json").map(PathBuf::from),
        trace_out: args.get("trace-out").map(PathBuf::from),
        slowest: match args.get("slowest") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| {
                CliError(format!(
                    "bad value for --slowest: '{v}' (expected a positive integer)"
                ))
            })?),
        },
    })
}

/// Strip the global logging flags (valid in any position, on any
/// command) from argv and install the process-wide event log they
/// describe. Returns the remaining arguments.
fn init_event_log(argv: Vec<String>) -> Result<Vec<String>, CliError> {
    let mut out = Vec::with_capacity(argv.len());
    let mut level = LogLevel::Info;
    let mut quiet = false;
    let mut json_path: Option<PathBuf> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--log-level" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("flag --log-level needs a value".to_string()))?;
                level = LogLevel::from_name(&v).ok_or_else(|| {
                    CliError(format!(
                        "bad value for --log-level: '{v}' (expected error|warn|info|debug)"
                    ))
                })?;
            }
            "--quiet" => quiet = true,
            "--log-json" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("flag --log-json needs a value".to_string()))?;
                json_path = Some(PathBuf::from(v));
            }
            _ => out.push(a),
        }
    }
    let mut log = EventLog::new(level);
    if quiet {
        log = log.quiet();
    }
    if let Some(path) = &json_path {
        log = log
            .with_json_sink(path)
            .map_err(|e| CliError(format!("--log-json {}: {e}", path.display())))?;
    }
    events::init_global(log);
    Ok(out)
}

fn run() -> Result<String, CliError> {
    // Arm failpoints from the environment before anything can hit a
    // site; a bad spec is a startup error, not a silently inert one.
    kmm_faults::arm_from_env().map_err(|e| CliError(format!("KMM_FAILPOINTS: {e}")))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = init_event_log(argv)?;
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError(USAGE.to_string()));
    };
    let out_path = |a: &Args| -> Result<PathBuf, CliError> { Ok(PathBuf::from(a.require("o")?)) };
    match command.as_str() {
        "generate" => {
            let args = Args::parse(rest, GENERATE_FLAGS)?;
            let genome = cli::parse_genome(args.require("genome")?)?;
            let scale: f64 = args.parsed("scale", 0.01)?;
            cli::generate(genome, scale, &out_path(&args)?)
        }
        "index" => {
            let args = Args::parse(rest, INDEX_FLAGS)?;
            cli::index_opts(
                &PathBuf::from(args.require("reference")?),
                &out_path(&args)?,
                args.threads()?,
                args.get("bidir").is_some(),
            )
        }
        "simulate" => {
            let args = Args::parse(rest, SIMULATE_FLAGS)?;
            cli::simulate(
                &PathBuf::from(args.require("reference")?),
                args.parsed("reads", 50usize)?,
                args.parsed("len", 100usize)?,
                args.parsed("seed", 42u64)?,
                &out_path(&args)?,
            )
        }
        "map" => {
            let args = Args::parse(rest, MAP_FLAGS)?;
            let method = match args.get("method") {
                Some(name) => cli::parse_method(name)?,
                None => MapperConfig::default().method,
            };
            let both = args.parsed("both-strands", false)?;
            let stats = stats_options(&args)?;
            let mut stdout = std::io::stdout().lock();
            cli::map_reads(
                &PathBuf::from(args.require("index")?),
                &PathBuf::from(args.require("reads")?),
                args.parsed("k", 5usize)?,
                method,
                both,
                args.threads()?,
                timeout(&args)?,
                &stats,
                &mut stdout,
            )
        }
        "search" => {
            let args = Args::parse(rest, SEARCH_FLAGS)?;
            let method = cli::parse_method(args.get("method").unwrap_or("a"))?;
            let stats = stats_options(&args)?;
            let patterns = args.get_all("pattern");
            if patterns.is_empty() {
                return Err(CliError("missing required flag --pattern".to_string()));
            }
            let mut stdout = std::io::stdout().lock();
            cli::search_patterns(
                &PathBuf::from(args.require("index")?),
                &patterns,
                args.parsed("k", 3usize)?,
                method,
                args.threads()?,
                timeout(&args)?,
                &stats,
                &mut stdout,
            )
        }
        "explain" => {
            let args = Args::parse(rest, EXPLAIN_FLAGS)?;
            // An empty list selects the library's default comparison
            // set (the paper's four, plus bidir when the index carries
            // the reverse BWT) — the choice needs the loaded index.
            let names = args.get_all("method");
            let methods = names
                .iter()
                .map(|n| cli::parse_method(n))
                .collect::<Result<Vec<_>, _>>()?;
            let mut stdout = std::io::stdout().lock();
            cli::explain_query(
                &PathBuf::from(args.require("index")?),
                args.require("pattern")?,
                args.parsed("k", 3usize)?,
                &methods,
                args.get("json").is_some(),
                &mut stdout,
            )
        }
        "serve" => {
            let args = Args::parse(rest, SERVE_FLAGS)?;
            if let Some(spec) = args.get("failpoints") {
                kmm_faults::arm(spec).map_err(|e| CliError(format!("--failpoints: {e}")))?;
            }
            let config = bwt_kmismatch::serve::ServeConfig {
                addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
                threads: args.threads()?,
                k: args.parsed("k", 3usize)?,
                method: cli::parse_method(args.get("method").unwrap_or("a"))?,
                slowest: args.parsed("slowest", 16usize)?,
                port_file: args.get("port-file").map(PathBuf::from),
                timeout_ms: match args.get("timeout-ms") {
                    None => None,
                    Some(_) => timeout(&args)?.map(|d| d.as_millis() as u64),
                },
                max_body_bytes: args.parsed(
                    "max-body-bytes",
                    bwt_kmismatch::serve::DEFAULT_MAX_BODY_BYTES,
                )?,
                prefer_mmap: args.get("mmap").is_some(),
                keep_alive_requests: args.parsed(
                    "keep-alive",
                    bwt_kmismatch::serve::DEFAULT_KEEP_ALIVE_REQUESTS,
                )?,
                idle_timeout_ms: args.parsed(
                    "idle-timeout-ms",
                    bwt_kmismatch::serve::DEFAULT_IDLE_TIMEOUT_MS,
                )?,
                tenant_rate: args.parsed("tenant-rate", 0u64)?,
                max_conns: args.parsed("max-conns", bwt_kmismatch::serve::DEFAULT_MAX_CONNS)?,
            };
            bwt_kmismatch::serve::run(&PathBuf::from(args.require("index")?), config)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            eprintln!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kmm: {e}");
            ExitCode::FAILURE
        }
    }
}
