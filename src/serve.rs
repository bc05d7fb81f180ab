//! `kmm serve`: a zero-dependency event-loop HTTP/1.1 daemon over a
//! loaded index.
//!
//! ## Connection state machine
//!
//! The front end is a single nonblocking poll loop (see [`crate::poll`])
//! driving one state machine per connection:
//!
//! ```text
//! accept → ReadingHeaders → ReadingBody → Dispatched → Writing ─┐
//!              ↑                                        │       │
//!              └──────────────── KeepAliveIdle ←────────┘    Draining → close
//! ```
//!
//! All sockets are nonblocking; the loop owns every read and write, so a
//! slow or malicious client can never pin a worker. Requests are parsed
//! incrementally from a per-connection read buffer (HTTP keep-alive and
//! pipelining included); complete requests are handed to the `kmm-par`
//! workers through a bounded job queue and the responses come back to
//! the loop, which serialises them into a bounded per-connection write
//! buffer and resumes partial writes on `POLLOUT` readiness. Each
//! hand-back also writes one byte to a socket pair the loop polls, so a
//! finished response ends the loop's wait at once; accepted sockets set
//! `TCP_NODELAY`, so the response then leaves without Nagle's delay.
//!
//! ## Robustness controls
//!
//! * **Slow-loris defense** — a connection that makes no read/write
//!   progress for `--idle-timeout-ms` is evicted with a `408` (counted
//!   in `serve.shed_stall`); an idle keep-alive connection is closed
//!   silently. The failpoint `serve.conn.stall` marks an accepted
//!   connection as never-readable so eviction is deterministically
//!   testable; `serve.conn.reset` drops a connection at accept,
//!   simulating an abrupt client reset.
//! * **Per-tenant admission** — with `--tenant-rate N`, each tenant
//!   (the `X-Kmm-Tenant` header, or `anonymous`) gets a token bucket of
//!   N requests/second (burst N). Over-rate requests are shed with a
//!   `429` + `Retry-After` (`serve.shed_tenant`) without closing the
//!   connection. `POST /shutdown` is control-plane and exempt.
//! * **Graceful overload degradation** — three tiers chosen by live
//!   queue depth: a full job queue sheds with `429` (`serve.shed`,
//!   exactly one tick per 429); a queue at ≥half capacity marks requests
//!   *degraded*, clamping their deadline to 250 ms so they truncate via
//!   the existing [`CancelToken`] path instead of queueing further; and
//!   `/shutdown` stops accepting, finishes every in-flight request,
//!   flushes, and drains each socket before closing (no RSTs).
//! * **Connection cap** — past `--max-conns`, new connections get an
//!   immediate `429` (`serve.shed_conns`) without reading a byte.
//!
//! Endpoints:
//!
//! | Route | Method | Body |
//! |---|---|---|
//! | `/healthz` | GET | `ok` |
//! | `/metrics` | GET | Prometheus text exposition (process metrics, histogram buckets, per-endpoint sliding-window latency, connection gauges) |
//! | `/stats.json` | GET | the `MetricsSnapshot` JSON document |
//! | `/slow.json` | GET | the flight recorder's K slowest queries with full span trees |
//! | `/trace.json` | GET | Chrome trace-event JSON of retained query traces |
//! | `/search` | POST | `{"pattern": "ACGT..", "k"?, "method"?}` → occurrence list |
//! | `/map` | POST | `{"read": "ACGT..", "k"?, "both_strands"?}` → alignment list |
//! | `/explain` | POST | `{"pattern": "ACGT..", "k"?, "methods"?: ["a", "bwt", ..]}` → `kmm-explain/v1` cost report |
//! | `/dashboard` | GET | self-contained HTML dashboard polling `/stats.json`, `/slow.json`, `/explain` |
//! | `/shutdown` | POST | stop accepting, drain, exit |
//!
//! `POST /search` runs the exact [`KMismatchIndex::search_with`]
//! path the CLI uses, so its results are identical to `kmm search`.
//! Each request records into a private [`TraceRecorder`] shard (sharing
//! the server's trace epoch) absorbed after the response, so the flight
//! recorder always holds the K slowest queries the daemon has served. A
//! handler panic — reachable deliberately through the
//! `serve.handler.err=panic` or `pool.worker.panic` failpoint — is
//! caught per request: the client gets a 500, `serve.errors` ticks, and
//! neither the recorder nor the worker pool is poisoned.
//!
//! With `--timeout-ms` (or a per-request `"timeout_ms"` body field), the
//! search/map runs under a cooperative deadline: a query that exceeds
//! its budget returns `504 Gateway Timeout` whose JSON body carries
//! `"truncated": true` along with the (verified, partial) results found
//! so far. The `serve.handler.slow` and `serve.handler.err` failpoints
//! inject latency and failures at route entry for chaos testing.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use kmm_core::{CancelToken, KMismatchIndex, MapOutcome, MapperConfig, Method, ReadMapper, Strand};
use kmm_par::ThreadPool;
use kmm_telemetry::alloc::{mem_stats, phase_scope, MemPhase};
use kmm_telemetry::{
    chrome_trace_json, events, prometheus_mem_text, slow_queries_json, Counter, Hist, Json,
    NoopRecorder, Recorder, SlidingWindow, TraceConfig, TraceRecorder,
};

use crate::cli::{self, CliError, CliResult};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};

/// Configuration for one serving process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker count (1 = handle requests inline on the event-loop
    /// thread; N > 1 = one event-loop thread plus N-1 search workers).
    pub threads: usize,
    /// Default mismatch budget for `/search` and `/map` requests that
    /// don't send their own `k`.
    pub k: usize,
    /// Default search method.
    pub method: Method,
    /// Flight-recorder capacity (`/slow.json` keeps this many).
    pub slowest: usize,
    /// Write the bound port (decimal, one line) here once listening —
    /// lets scripts using port 0 discover the ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Default per-request deadline for `/search` and `/map` in
    /// milliseconds; a request body may override it with `"timeout_ms"`.
    /// `None` means no deadline.
    pub timeout_ms: Option<u64>,
    /// Reject request bodies whose declared `Content-Length` exceeds
    /// this, with a `413` sent before reading the body.
    pub max_body_bytes: usize,
    /// Map the index file read-only (`mmap`) instead of reading it into
    /// memory. Startup runs the same checks either way, every section
    /// checksum included, before the listener binds; the structures then
    /// borrow the mapping. Falls back to reading the file if the
    /// platform cannot map it.
    pub prefer_mmap: bool,
    /// Maximum requests served per connection before the server closes
    /// it (`Connection: close` on the final response). `0` disables
    /// keep-alive entirely: every response closes.
    pub keep_alive_requests: usize,
    /// A connection that makes no progress (no bytes read while a
    /// request is pending, no bytes written while a response is) for
    /// this long is evicted with a `408`; an idle keep-alive connection
    /// is closed silently.
    pub idle_timeout_ms: u64,
    /// Per-tenant admission rate in requests/second (token bucket,
    /// burst = rate), keyed by the `X-Kmm-Tenant` header (`anonymous`
    /// without one). `0` disables admission control.
    pub tenant_rate: u64,
    /// Maximum simultaneously open client connections; connections past
    /// the cap are refused with an immediate `429`.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            k: 3,
            method: Method::ALGORITHM_A,
            slowest: 16,
            port_file: None,
            timeout_ms: None,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            prefer_mmap: false,
            keep_alive_requests: DEFAULT_KEEP_ALIVE_REQUESTS,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            tenant_rate: 0,
            max_conns: DEFAULT_MAX_CONNS,
        }
    }
}

/// Cap on header bytes and (default) on declared body length — this is
/// an operational endpoint, not a general web server.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Default for [`ServeConfig::max_body_bytes`].
pub const DEFAULT_MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Default for [`ServeConfig::keep_alive_requests`].
pub const DEFAULT_KEEP_ALIVE_REQUESTS: usize = 100;

/// Default for [`ServeConfig::idle_timeout_ms`].
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 5_000;

/// Default for [`ServeConfig::max_conns`].
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Poll timeout: socket readiness and worker completions end the wait
/// early, so this only paces the deadline sweep.
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Poll-set id of the listener; connection ids start at 1.
const LISTENER_ID: u64 = 0;

/// Poll-set id of the completion wake-up socket (pool mode).
const WAKE_ID: u64 = u64::MAX;

/// Retire the listener after this many consecutive accept errors that
/// are not `WouldBlock`/`Interrupted`/`ConnectionAborted`. Transient
/// failures (fd pressure, backlog races) never string together this
/// long; a genuinely broken listener fd would otherwise spin the loop.
const ACCEPT_ERROR_LIMIT: u32 = 16;

/// Stop parsing further pipelined requests once this many response
/// bytes are waiting on a connection — bounds per-connection memory
/// against a client that pipelines requests but never reads.
const MAX_PIPELINE_WBUF: usize = 256 * 1024;

/// After the final response is flushed, wait this long for the client's
/// EOF before closing: closing with unread bytes in the receive buffer
/// would RST the connection and can destroy the response in flight.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// Deadline clamp applied to *degraded* requests (queue ≥ half full):
/// they truncate quickly via the `CancelToken` path instead of piling up.
const DEGRADED_TIMEOUT_MS: u64 = 250;

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    /// `X-Kmm-Tenant` header, if present.
    tenant: Option<String>,
    /// Client asked for the connection to close after this response.
    wants_close: bool,
}

/// One response: status, content type, body, optional `Retry-After`.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: Option<u64>,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    fn json(status: u16, doc: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: doc.to_pretty().into_bytes(),
            retry_after: None,
        }
    }

    fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }
}

/// Per-endpoint request accounting: lifetime totals plus a sliding
/// one-minute latency window for p50/p95/p99.
struct EndpointStats {
    route: &'static str,
    requests: AtomicU64,
    errors: AtomicU64,
    window: SlidingWindow,
}

impl EndpointStats {
    fn new(route: &'static str) -> EndpointStats {
        EndpointStats {
            route,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            window: SlidingWindow::new(1, 60),
        }
    }

    fn record(&self, latency_ns: u64, is_error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.window.record(latency_ns, is_error);
    }
}

/// Routes with dedicated accounting; anything else lands in `other`.
const ROUTES: [&str; 10] = [
    "/healthz",
    "/metrics",
    "/stats.json",
    "/slow.json",
    "/trace.json",
    "/search",
    "/map",
    "/explain",
    "/dashboard",
    "/shutdown",
];

/// Shared server state: the index, the global trace recorder, and the
/// per-endpoint accounting. Only `&self` methods — shared across workers
/// by reference under `std::thread::scope`.
struct ServerState {
    index: KMismatchIndex,
    config: ServeConfig,
    recorder: TraceRecorder,
    endpoints: Vec<EndpointStats>,
    other: EndpointStats,
    stop: AtomicBool,
    /// Live open-connection count for the `kmm_serve_open_connections`
    /// gauge (owned by the event loop, read by `/metrics` handlers).
    open_conns: AtomicU64,
}

/// Monotonic request-id source: every parsed request gets `req-N`,
/// which tags its access-log event, its trace shard, and any JSON error
/// body `/search` and `/map` return. Process-wide (not per-server) so
/// ids stay unique even when several servers share one event log.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> String {
    format!("req-{}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

impl ServerState {
    fn new(index: KMismatchIndex, config: ServeConfig) -> ServerState {
        let recorder = TraceRecorder::with_config(TraceConfig {
            flight_capacity: config.slowest,
            ..TraceConfig::default()
        });
        ServerState {
            index,
            recorder,
            endpoints: ROUTES.iter().map(|r| EndpointStats::new(r)).collect(),
            other: EndpointStats::new("other"),
            stop: AtomicBool::new(false),
            open_conns: AtomicU64::new(0),
            config,
        }
    }

    fn endpoint(&self, path: &str) -> &EndpointStats {
        self.endpoints
            .iter()
            .find(|e| e.route == path)
            .unwrap_or(&self.other)
    }

    fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .chain(std::iter::once(&self.other))
            .map(|e| e.requests.load(Ordering::Relaxed))
            .sum()
    }

    fn total_errors(&self) -> u64 {
        self.endpoints
            .iter()
            .chain(std::iter::once(&self.other))
            .map(|e| e.errors.load(Ordering::Relaxed))
            .sum()
    }
}

/// One request handed from the event loop to a worker.
struct Job {
    /// Event-loop connection id the response belongs to.
    conn: u64,
    request: Request,
    req_id: String,
    /// Queue was ≥ half full at dispatch: clamp the deadline.
    degraded: bool,
    /// When the loop queued it (`serve.queue_wait_ns` runs to the pop).
    queued: Instant,
}

/// Bounded handoff from the event loop to the worker threads.
/// `try_push` never blocks: a full queue hands the job back so the loop
/// can shed it with a `429` instead of stalling. `pop` blocks while the
/// queue is empty and open; closing wakes everyone and lets workers
/// drain what is already queued.
struct JobQueue {
    capacity: usize,
    inner: Mutex<(VecDeque<Job>, bool)>,
    readable: Condvar,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            inner: Mutex::new((VecDeque::new(), false)),
            readable: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<Job>, bool)> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.lock().0.len()
    }

    /// Enqueue unless full or closed; on either, the job comes back to
    /// the caller, which decides how to refuse it.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut guard = self.lock();
        if guard.1 || guard.0.len() >= self.capacity {
            return Err(job);
        }
        guard.0.push_back(job);
        drop(guard);
        self.readable.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<Job> {
        let mut guard = self.lock();
        loop {
            if let Some(job) = guard.0.pop_front() {
                return Some(job);
            }
            if guard.1 {
                return None;
            }
            guard = self.readable.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        self.lock().1 = true;
        self.readable.notify_all();
    }
}

/// One finished response on its way back to the event loop.
struct Completion {
    conn: u64,
    response: Response,
    /// When the worker handed it back (`serve.handoff_ns` runs to the
    /// loop's drain).
    pushed: Instant,
}

/// Finished responses travelling back from the workers to the event
/// loop: a mutexed vector plus a nonblocking socket pair that wakes the
/// loop. `push` appends, then writes one byte to `wake_tx`; the loop
/// polls `wake_rx` for `POLLIN`, so its `poll(2)` returns as soon as a
/// response is ready instead of at the next timeout.
struct Completions {
    inner: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Completions {
    fn new() -> std::io::Result<Completions> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Completions {
            inner: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
        })
    }

    fn push(&self, conn: u64, response: Response) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Completion {
                conn,
                response,
                pushed: Instant::now(),
            });
        // `WouldBlock` means the socket buffer is full of unread bytes,
        // which already guarantees a wake-up.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Consume the pending wake-up bytes, then take the completions.
    /// Reading first means every entry pushed after the take still has
    /// its byte pending, so no completion waits for a poll timeout.
    fn drain(&self) -> Vec<Completion> {
        let mut sink = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                _ => break,
            }
        }
        std::mem::take(&mut *self.inner.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// The descriptor the event loop polls for `POLLIN`.
    fn wake_fd(&self) -> i32 {
        self.wake_rx.as_raw_fd()
    }
}

/// A server running on a background thread (for tests and embedding).
/// The CLI path ([`run`]) serves on the calling thread instead.
pub struct Server {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<String>,
}

impl Server {
    /// Bind and start serving `index` on a background thread.
    pub fn start(index: KMismatchIndex, config: ServeConfig) -> CliResult<Server> {
        let listener = bind(&config)?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || serve_on(listener, index, config));
        Ok(Server { addr, thread })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to exit (after a `POST /shutdown`) and return
    /// its summary line.
    pub fn join(self) -> String {
        self.thread
            .join()
            .unwrap_or_else(|_| "server thread panicked".to_string())
    }
}

/// `kmm serve`: load the index at `index_path` and serve it on the
/// calling thread until a `POST /shutdown` arrives. Returns the summary.
pub fn run(index_path: &std::path::Path, config: ServeConfig) -> CliResult<String> {
    let load_start = Instant::now();
    // Both backings verify every checksum here, before the listener
    // binds: a corrupt file ends `run` with the load error.
    let index = cli::load_index(index_path, config.prefer_mmap, &NoopRecorder)?;
    let load_time = load_start.elapsed();
    let backing = if index.fm().is_mapped() {
        "mmap"
    } else {
        "read"
    };
    events::info(
        "serve",
        format!(
            "kmm serve: index opened via {backing} in {:.1}ms",
            load_time.as_secs_f64() * 1e3,
        ),
        &[
            ("load_mode", backing.to_string()),
            ("load_us", load_time.as_micros().to_string()),
        ],
    );
    let listener = bind(&config)?;
    let addr = listener.local_addr()?;
    events::info(
        "serve",
        format!(
            "kmm serve: listening on {addr} ({} worker{}, {} bp indexed)",
            config.threads,
            if config.threads == 1 { "" } else { "s" },
            index.len()
        ),
        &[
            ("addr", addr.to_string()),
            ("workers", config.threads.to_string()),
            ("indexed_bp", index.len().to_string()),
        ],
    );
    Ok(serve_on(listener, index, config))
}

fn bind(config: &ServeConfig) -> CliResult<TcpListener> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| CliError(format!("cannot bind {}: {e}", config.addr)))?;
    if let Some(path) = &config.port_file {
        let mut f = cli::create_output_file(path)?;
        writeln!(f, "{}", listener.local_addr()?.port())?;
    }
    Ok(listener)
}

/// The event loop plus worker fan-out; returns the shutdown summary.
fn serve_on(listener: TcpListener, index: KMismatchIndex, config: ServeConfig) -> String {
    let _serve = phase_scope(MemPhase::Serve);
    let threads = config.threads.max(1);
    let state = ServerState::new(index, config);
    listener
        .set_nonblocking(true)
        .expect("cannot poll the listener");
    let pool = ThreadPool::new(threads);
    if pool.is_serial() {
        EventLoop::new(&listener, &state, Dispatch::Inline).run();
    } else {
        // Worker 0 runs the event loop; workers 1..N serve the bounded
        // job queue. A full queue sheds the request with an immediate
        // 429 rather than blocking the loop — overload slows clients
        // down, it never stops `accept` or starves connection I/O.
        let queue = JobQueue::new(threads * 4);
        let done = Completions::new().expect("cannot create the completion wake-up socket pair");
        pool.broadcast(|tid| {
            if tid == 0 {
                EventLoop::new(
                    &listener,
                    &state,
                    Dispatch::Pool {
                        queue: &queue,
                        done: &done,
                    },
                )
                .run();
                // Graceful drain: the loop only exits once every
                // in-flight response is flushed, so closing the queue
                // here just releases the idle workers.
                queue.close();
            } else {
                while let Some(job) = queue.pop() {
                    let waited = job.queued.elapsed().as_nanos() as u64;
                    state.recorder.observe(Hist::ServeQueueWaitNs, waited);
                    let response =
                        process_request(&state, &job.request, tid, &job.req_id, job.degraded);
                    done.push(job.conn, response);
                }
            }
        });
    }
    let summary = format!(
        "served {} requests ({} errors)",
        state.total_requests(),
        state.total_errors()
    );
    events::info(
        "serve",
        format!("shutdown: {summary}"),
        &[
            ("requests", state.total_requests().to_string()),
            ("errors", state.total_errors().to_string()),
        ],
    );
    summary
}

/// Where completed parses go: inline execution (serial mode) or the
/// bounded worker queue plus its completion channel.
enum Dispatch<'a> {
    Inline,
    Pool {
        queue: &'a JobQueue,
        done: &'a Completions,
    },
}

/// Read-side position of one connection's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating bytes until `\r\n\r\n`.
    ReadingHeaders,
    /// Headers parsed; waiting for `Content-Length` bytes of body.
    ReadingBody,
    /// A request is on a worker (or inline); responses may still be
    /// flushing for earlier pipelined requests.
    Dispatched,
    /// Response bytes pending in `wbuf`, nothing in flight.
    Writing,
    /// Between keep-alive requests; an idle timeout closes silently.
    KeepAliveIdle,
    /// Final response flushed and write side shut down; discarding
    /// client bytes until EOF or the drain window elapses.
    Draining,
}

/// One client connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    fd: i32,
    state: ConnState,
    /// Unparsed request bytes.
    rbuf: Vec<u8>,
    /// Serialised responses not yet written; `wpos` is the resume
    /// offset after a partial write.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Close once `wbuf` drains (forced by errors, `Connection: close`,
    /// the keep-alive budget, or shutdown).
    close_after_write: bool,
    /// The in-flight request asked for close (checked at completion).
    pending_close: bool,
    /// Requests parsed on this connection (reuse = any beyond the first).
    requests: u64,
    /// Responses queued on this connection (drives the keep-alive budget).
    served: u64,
    /// `serve.conn.stall` fired at accept: never read, so the idle
    /// deadline eviction is deterministic.
    stalled: bool,
    /// Peer sent EOF (half-close); responses may still be deliverable.
    read_closed: bool,
    last_progress: Instant,
    drain_deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32, stalled: bool) -> Conn {
        Conn {
            stream,
            fd,
            state: ConnState::ReadingHeaders,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            close_after_write: false,
            pending_close: false,
            requests: 0,
            served: 0,
            stalled,
            read_closed: false,
            last_progress: Instant::now(),
            drain_deadline: None,
        }
    }

    fn wants_read(&self) -> bool {
        if self.stalled || self.read_closed {
            return false;
        }
        matches!(
            self.state,
            ConnState::ReadingHeaders
                | ConnState::ReadingBody
                | ConnState::KeepAliveIdle
                | ConnState::Draining
        )
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Per-tenant token bucket: `rate` tokens/second, burst = `rate`.
struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    fn admit(&mut self, rate: u64, now: Instant) -> bool {
        let refill = now.duration_since(self.last).as_secs_f64() * rate as f64;
        self.tokens = (self.tokens + refill).min(rate as f64);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Outcome of trying to parse one request off the front of `rbuf`.
enum Parse {
    /// Need more bytes; `in_body` distinguishes the two reading states.
    Incomplete { in_body: bool },
    /// One full request; `consumed` bytes come off the buffer.
    Ready { request: Request, consumed: usize },
    /// Unframeable: send this and close (the byte stream is unusable).
    Bad(Response),
}

/// Incremental request parser. Framing failures come back as the
/// response to send: `413` for a declared body over `max_body` (refused
/// from the declared length alone, before the body arrives), `501` for
/// any `Transfer-Encoding`, `411` for a `POST` without `Content-Length`,
/// `400` for anything malformed — including a `Content-Length` that is
/// not plain digits, or repeated with a different value.
fn try_parse(buf: &[u8], max_body: usize) -> Parse {
    let bad = |what: &str| Parse::Bad(Response::text(400, format!("bad request: {what}\n")));
    // The cap holds whether or not the header block arrived in one read:
    // `on_readable` buffers far past it before parsing.
    let header_end = find_header_end(buf);
    if header_end.unwrap_or(buf.len()) > MAX_HEADER_BYTES {
        return bad("headers too large");
    }
    let Some(header_end) = header_end else {
        return Parse::Incomplete { in_body: false };
    };
    let head = match std::str::from_utf8(&buf[..header_end]) {
        Ok(h) => h,
        Err(_) => return bad("non-utf8 headers"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next() else {
        return bad("empty request line");
    };
    let Some(path) = parts.next() else {
        return bad("missing request path");
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut content_length: Option<usize> = None;
    let mut transfer_encoding = false;
    let mut tenant: Option<String> = None;
    let mut connection: Option<String> = None;
    for line in lines {
        // RFC 9112 §5.1: a field line without a colon, with an empty
        // name, or with whitespace in the name (before the colon, or
        // leading, as in obs-fold) is a 400. Skipping it or keeping the
        // space in the name would let a framing header go unrecognised.
        let Some((name, value)) = line
            .split_once(':')
            .filter(|(name, _)| !name.is_empty() && !name.contains([' ', '\t']))
        else {
            return bad("malformed header line");
        };
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only (RFC 9112): `usize::from_str` also takes a
            // leading `+`.
            let value = value.trim();
            let len = match value.parse() {
                Ok(v) if value.bytes().all(|b| b.is_ascii_digit()) => v,
                _ => return bad("unparseable content-length"),
            };
            if content_length.is_some_and(|prev| prev != len) {
                return bad("conflicting content-length headers");
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding = true;
        } else if name.eq_ignore_ascii_case("x-kmm-tenant") {
            let t = value.trim();
            if !t.is_empty() {
                tenant = Some(t.to_string());
            }
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.trim().to_ascii_lowercase());
        }
    }
    if transfer_encoding {
        // Chunked bodies are not supported; framing by the length
        // instead would desync the stream.
        return Parse::Bad(Response::text(
            501,
            "Transfer-Encoding is not supported; send Content-Length\n",
        ));
    }
    let content_length = match content_length {
        Some(len) => len,
        // A POST without a length has a body we cannot frame — refuse it
        // rather than guess.
        None if method == "POST" => {
            return Parse::Bad(Response::text(411, "POST requires Content-Length\n"))
        }
        None => 0,
    };
    if content_length > max_body {
        return Parse::Bad(Response::text(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit\n"),
        ));
    }
    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Parse::Incomplete { in_body: true };
    }
    // Keep-alive negotiation: HTTP/1.1 defaults to keep-alive unless the
    // client sends `Connection: close`; anything else (1.0) closes
    // unless it explicitly asks for `keep-alive`.
    let has_token = |c: &str, token: &str| c.split(',').any(|t| t.trim() == token);
    let wants_close = match &connection {
        Some(c) if has_token(c, "close") => true,
        Some(c) if has_token(c, "keep-alive") => false,
        _ => !version.eq_ignore_ascii_case("HTTP/1.1"),
    };
    Parse::Ready {
        request: Request {
            method: method.to_string(),
            path: path.to_string(),
            body: buf[body_start..body_start + content_length].to_vec(),
            tenant,
            wants_close,
        },
        consumed: body_start + content_length,
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Append the wire form of `response` to a connection's write buffer.
/// Every response is `Content-Length`-framed, so keep-alive is safe.
fn serialize_response(response: &Response, keep_alive: bool, out: &mut Vec<u8>) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    head.push_str("\r\n");
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&response.body);
}

/// The nonblocking front end: owns every connection, parses requests,
/// applies admission control, and shuttles work to/from the dispatcher.
struct EventLoop<'a> {
    listener: &'a TcpListener,
    state: &'a ServerState,
    dispatch: Dispatch<'a>,
    /// Deterministic iteration order keeps eviction sweeps stable.
    conns: BTreeMap<u64, Conn>,
    next_id: u64,
    tenants: HashMap<String, Bucket>,
    idle_timeout: Duration,
    /// In-flight dispatches (jobs queued or running on workers).
    in_flight: usize,
    /// Consecutive unexplained accept errors; reset by any successful
    /// accept. See [`ACCEPT_ERROR_LIMIT`].
    accept_errors: u32,
    /// The listener kept failing past [`ACCEPT_ERROR_LIMIT`]: stop
    /// accepting but keep serving what is open until `/shutdown`.
    accept_dead: bool,
}

impl<'a> EventLoop<'a> {
    fn new(listener: &'a TcpListener, state: &'a ServerState, dispatch: Dispatch<'a>) -> Self {
        let idle_timeout = Duration::from_millis(state.config.idle_timeout_ms.max(1));
        EventLoop {
            listener,
            state,
            dispatch,
            conns: BTreeMap::new(),
            next_id: 0,
            tenants: HashMap::new(),
            idle_timeout,
            in_flight: 0,
            accept_errors: 0,
            accept_dead: false,
        }
    }

    fn run(mut self) {
        let listener_fd = self.listener.as_raw_fd();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            let stopping = self.state.stop.load(Ordering::Relaxed);
            if stopping {
                self.sweep_for_shutdown();
                if self.conns.is_empty() && self.in_flight == 0 {
                    break;
                }
            }
            fds.clear();
            ids.clear();
            if !stopping && !self.accept_dead {
                fds.push(PollFd::new(listener_fd, POLLIN));
                ids.push(LISTENER_ID);
            }
            // A worker's completion makes this readable; no handler is
            // needed because `drain_completions` runs after every poll.
            if let Dispatch::Pool { done, .. } = &self.dispatch {
                fds.push(PollFd::new(done.wake_fd(), POLLIN));
                ids.push(WAKE_ID);
            }
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(conn.fd, events));
                    ids.push(id);
                }
            }
            let _ = poll(&mut fds, ACCEPT_POLL);
            for i in 0..fds.len() {
                let id = ids[i];
                if id == LISTENER_ID {
                    if fds[i].ready(POLLIN) {
                        self.accept_pending();
                    }
                    continue;
                }
                if id == WAKE_ID {
                    continue;
                }
                if fds[i].ready(POLLOUT) {
                    self.on_writable(id);
                }
                if self.conns.contains_key(&id) && fds[i].ready(POLLIN) {
                    self.on_readable(id);
                }
            }
            self.drain_completions();
            self.enforce_deadlines();
        }
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_errors = 0;
                    self.admit_conn(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // A connection can die in the backlog between the kernel's
                // SYN-ACK and our accept (ECONNABORTED); that kills one
                // pending connection, not the listener. Skip to the next.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    // Unknown accept errors (EMFILE under fd pressure, etc.)
                    // are usually transient: back off until the next poll
                    // tick. Only a long unbroken error run — never once
                    // interleaved with a successful accept — retires the
                    // listener, so a wedged fd cannot spin the event loop.
                    self.accept_errors += 1;
                    events::warn(
                        "serve",
                        format!(
                            "accept failed ({}/{ACCEPT_ERROR_LIMIT}): {e}",
                            self.accept_errors
                        ),
                        &[("kind", format!("{:?}", e.kind()))],
                    );
                    if self.accept_errors >= ACCEPT_ERROR_LIMIT {
                        self.accept_dead = true;
                    }
                    break;
                }
            }
        }
    }

    fn admit_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Each response leaves in one write, so Nagle would only hold a
        // pipelined second response for the client's delayed ACK. The
        // option is a latency hint: failing to set it keeps the client.
        let _ = stream.set_nodelay(true);
        self.state.recorder.add(Counter::ServeConnsOpened, 1);
        // Failpoint `serve.conn.reset`: drop the connection at accept —
        // the client sees an abrupt reset, the loop carries on.
        if kmm_faults::check("serve.conn.reset").is_some() {
            self.state.recorder.add(Counter::ServeConnsClosed, 1);
            return;
        }
        // Failpoint `serve.conn.stall`: admit the connection but never
        // read from it — a deterministic slow-loris for the eviction
        // path (no wall-clock races in tests).
        let stalled = kmm_faults::check("serve.conn.stall").is_some();
        let over_cap = self.conns.len() >= self.state.config.max_conns.max(1);
        let fd = stream.as_raw_fd();
        self.next_id += 1;
        let id = self.next_id;
        let mut conn = Conn::new(stream, fd, stalled);
        if over_cap {
            // Past --max-conns: refuse without reading a byte. The 429
            // still drains the socket (Draining state) so the refusal
            // survives the close.
            self.state.recorder.add(Counter::ServeShedConns, 1);
            self.state.other.record(0, true);
            let req_id = next_request_id();
            events::warn(
                "serve.access",
                "connection refused at max-conns -> 429",
                &[
                    ("request_id", req_id),
                    ("status", "429".to_string()),
                    ("outcome", "shed".to_string()),
                    ("cause", "conns".to_string()),
                ],
            );
            conn.stalled = false;
            conn.close_after_write = true;
            conn.state = ConnState::Writing;
            serialize_response(
                &Response::text(429, "server at connection capacity, retry later\n")
                    .with_retry_after(1),
                false,
                &mut conn.wbuf,
            );
        }
        self.state.open_conns.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(id, conn);
        if over_cap {
            self.flush(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.state.open_conns.fetch_sub(1, Ordering::Relaxed);
            self.state.recorder.add(Counter::ServeConnsClosed, 1);
        }
    }

    /// Pull worker completions and resume their connections.
    fn drain_completions(&mut self) {
        let done = match &self.dispatch {
            Dispatch::Pool { done, .. } => *done,
            Dispatch::Inline => return,
        };
        for Completion {
            conn: id,
            response,
            pushed,
        } in done.drain()
        {
            let waited = pushed.elapsed().as_nanos() as u64;
            self.state.recorder.observe(Hist::ServeHandoffNs, waited);
            self.in_flight = self.in_flight.saturating_sub(1);
            let Some(conn) = self.conns.get(&id) else {
                continue; // connection died while its request ran
            };
            let wants_close = conn.pending_close;
            self.queue_response(id, &response, wants_close);
            self.flush(id);
            // The response may unblock the next pipelined request.
            self.advance(id);
        }
    }

    /// Nonblocking reads into `rbuf` (or the drain sink), then parse.
    fn on_readable(&mut self, id: u64) {
        enum After {
            Close,
            Advance,
            Stay,
        }
        let after = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let cap = MAX_HEADER_BYTES + self.state.config.max_body_bytes + 4096;
            let mut chunk = [0u8; 4096];
            let mut after = After::Stay;
            loop {
                if conn.state == ConnState::Draining {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            after = After::Close;
                            break;
                        }
                        Ok(_) => continue,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            after = After::Close;
                            break;
                        }
                    }
                }
                if conn.rbuf.len() >= cap {
                    // Backpressure: stop reading until the parser (or a
                    // framing rejection) makes room.
                    after = After::Advance;
                    break;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        after = After::Advance;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        conn.last_progress = Instant::now();
                        if conn.state == ConnState::KeepAliveIdle {
                            conn.state = ConnState::ReadingHeaders;
                        }
                        after = After::Advance;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        after = After::Close;
                        break;
                    }
                }
            }
            after
        };
        match after {
            After::Close => self.close_conn(id),
            After::Advance => self.advance(id),
            After::Stay => {}
        }
    }

    /// Parse-and-dispatch loop: admits every complete request buffered
    /// on the connection until one is in flight, more bytes are needed,
    /// the write buffer is saturated, or the stream is unframeable.
    fn advance(&mut self, id: u64) {
        loop {
            let parse = {
                let Some(conn) = self.conns.get(&id) else {
                    return;
                };
                if conn.state == ConnState::Dispatched
                    || conn.state == ConnState::Draining
                    || conn.close_after_write
                {
                    return;
                }
                if conn.pending_write() > MAX_PIPELINE_WBUF {
                    return; // bounded write buffer: client must read first
                }
                try_parse(&conn.rbuf, self.state.config.max_body_bytes)
            };
            match parse {
                Parse::Incomplete { in_body } => {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return;
                    };
                    if conn.read_closed {
                        if !conn.rbuf.is_empty() {
                            // Half a request then EOF: unframeable.
                            self.reject_parse(
                                id,
                                Response::text(400, "bad request: truncated request\n"),
                            );
                        } else if conn.wants_write() {
                            conn.close_after_write = true;
                        } else {
                            // Clean EOF between requests: silent close.
                            self.close_conn(id);
                        }
                        return;
                    }
                    conn.state = if !conn.rbuf.is_empty() {
                        if in_body {
                            ConnState::ReadingBody
                        } else {
                            ConnState::ReadingHeaders
                        }
                    } else if conn.wants_write() {
                        ConnState::Writing
                    } else if conn.requests > 0 {
                        ConnState::KeepAliveIdle
                    } else {
                        ConnState::ReadingHeaders
                    };
                    return;
                }
                Parse::Bad(response) => {
                    self.reject_parse(id, response);
                    return;
                }
                Parse::Ready { request, consumed } => {
                    {
                        let Some(conn) = self.conns.get_mut(&id) else {
                            return;
                        };
                        conn.rbuf.drain(..consumed);
                        if conn.requests > 0 {
                            self.state.recorder.add(Counter::ServeKeepaliveReuses, 1);
                        }
                        conn.requests += 1;
                        conn.last_progress = Instant::now();
                    }
                    if self.admit_request(id, request) {
                        return; // one request in flight per connection
                    }
                    // Rejected (shed) or completed inline: the response
                    // is queued; keep consuming pipelined requests.
                }
            }
        }
    }

    /// A framing failure: account it, send the 4xx, close afterwards.
    fn reject_parse(&mut self, id: u64, response: Response) {
        let req_id = next_request_id();
        self.state.other.record(0, true);
        self.state.recorder.add(Counter::ServeErrors, 1);
        events::warn(
            "serve.access",
            format!("malformed request -> {}", response.status),
            &[
                ("request_id", req_id),
                ("status", response.status.to_string()),
                ("outcome", "error".to_string()),
            ],
        );
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.close_after_write = true;
        }
        self.queue_response(id, &response, true);
        self.flush(id);
    }

    /// Admission control + dispatch for one parsed request. Returns
    /// `true` when the request went in flight (stop parsing this
    /// connection until its completion arrives).
    fn admit_request(&mut self, id: u64, request: Request) -> bool {
        let req_id = next_request_id();
        // Tier 0: per-tenant token buckets (ahead of the queue, so one
        // noisy tenant cannot consume the shared shed budget). The
        // shutdown control plane is exempt.
        let rate = self.state.config.tenant_rate;
        if rate > 0 && request.path != "/shutdown" {
            let now = Instant::now();
            let name = request
                .tenant
                .clone()
                .unwrap_or_else(|| "anonymous".to_string());
            let bucket = self.tenants.entry(name.clone()).or_insert(Bucket {
                tokens: rate as f64,
                last: now,
            });
            if !bucket.admit(rate, now) {
                self.state.recorder.add(Counter::ServeShedTenant, 1);
                self.state.endpoint(&request.path).record(0, true);
                events::warn(
                    "serve.access",
                    format!("tenant over rate -> 429 ({})", request.path),
                    &[
                        ("request_id", req_id),
                        ("status", "429".to_string()),
                        ("outcome", "shed".to_string()),
                        ("cause", "tenant".to_string()),
                        ("tenant", name),
                    ],
                );
                self.queue_response(
                    id,
                    &Response::text(429, "tenant over rate limit, retry later\n")
                        .with_retry_after(1),
                    request.wants_close,
                );
                self.flush(id);
                return false;
            }
        }
        match &self.dispatch {
            Dispatch::Inline => {
                let response = process_request(self.state, &request, 0, &req_id, false);
                self.queue_response(id, &response, request.wants_close);
                self.flush(id);
                false
            }
            Dispatch::Pool { queue, .. } => {
                // Tier 2: at ≥half queue depth, requests run degraded —
                // their deadline is clamped so they truncate instead of
                // stacking up behind a slow burst.
                let degraded = queue.len() * 2 >= queue.capacity();
                let wants_close = request.wants_close;
                let job = Job {
                    conn: id,
                    request,
                    req_id,
                    degraded,
                    queued: Instant::now(),
                };
                match queue.try_push(job) {
                    Ok(()) => {
                        self.in_flight += 1;
                        let conn = self
                            .conns
                            .get_mut(&id)
                            .expect("conn exists while admitting");
                        conn.state = ConnState::Dispatched;
                        conn.pending_close = wants_close;
                        true
                    }
                    Err(job) => {
                        // Tier 1: full queue sheds with a 429 — exactly
                        // one `serve.shed` tick per shed response, which
                        // the chaos suite asserts.
                        self.state.recorder.add(Counter::ServeShed, 1);
                        self.state.other.record(0, true);
                        events::warn(
                            "serve.access",
                            "connection shed -> 429",
                            &[
                                ("request_id", job.req_id),
                                ("status", "429".to_string()),
                                ("outcome", "shed".to_string()),
                                ("cause", "queue".to_string()),
                            ],
                        );
                        self.queue_response(
                            id,
                            &Response::text(429, "server overloaded, retry later\n")
                                .with_retry_after(1),
                            job.request.wants_close,
                        );
                        self.flush(id);
                        false
                    }
                }
            }
        }
    }

    /// Serialise a response onto the connection, deciding keep-alive.
    fn queue_response(&mut self, id: u64, response: &Response, wants_close: bool) {
        let stopping = self.state.stop.load(Ordering::Relaxed);
        let cfg = &self.state.config;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let keep = cfg.keep_alive_requests > 0
            && conn.served + 1 < cfg.keep_alive_requests as u64
            && !wants_close
            && !conn.close_after_write
            && !conn.read_closed
            && !stopping;
        serialize_response(response, keep, &mut conn.wbuf);
        conn.served += 1;
        conn.last_progress = Instant::now();
        if !keep {
            conn.close_after_write = true;
        }
        if conn.state == ConnState::Dispatched {
            conn.state = ConnState::Writing;
        }
    }

    fn on_writable(&mut self, id: u64) {
        if self.flush(id) {
            self.advance(id);
        }
    }

    /// Write as much pending response data as the socket takes,
    /// resuming at `wpos` after partial writes. Returns `true` when the
    /// buffer fully drained and the connection went back to parsing.
    fn flush(&mut self, id: u64) -> bool {
        enum After {
            Stay,
            Close,
            Drain,
            Parse,
        }
        let after = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            let mut broken = false;
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_progress = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                After::Close
            } else if conn.wpos == conn.wbuf.len() && !conn.wbuf.is_empty() {
                conn.wbuf.clear();
                conn.wpos = 0;
                if conn.state == ConnState::Dispatched {
                    After::Stay // earlier pipelined responses flushed; a request is still out
                } else if conn.close_after_write {
                    After::Drain
                } else {
                    conn.state = ConnState::KeepAliveIdle;
                    After::Parse
                }
            } else {
                After::Stay
            }
        };
        match after {
            After::Close => {
                self.close_conn(id);
                false
            }
            After::Drain => {
                self.begin_drain(id);
                false
            }
            After::Parse => true,
            After::Stay => false,
        }
    }

    /// Final response flushed: half-close and wait briefly for the
    /// client's EOF so the kernel never RSTs unread response bytes.
    fn begin_drain(&mut self, id: u64) {
        let read_closed = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.state = ConnState::Draining;
            conn.stalled = false;
            conn.drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
            conn.read_closed
        };
        if read_closed {
            // Peer already sent EOF: nothing left to wait for.
            self.close_conn(id);
        }
    }

    /// Deadline sweep: slow-loris eviction, idle keep-alive reaping,
    /// stuck-writer cleanup, drain expiry.
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let mut evict: Vec<u64> = Vec::new();
        let mut close: Vec<u64> = Vec::new();
        for (&id, conn) in &self.conns {
            match conn.state {
                ConnState::Draining => {
                    if conn.drain_deadline.is_none_or(|d| now >= d) {
                        close.push(id);
                    }
                }
                ConnState::KeepAliveIdle => {
                    if now.duration_since(conn.last_progress) >= self.idle_timeout {
                        close.push(id);
                    }
                }
                ConnState::ReadingHeaders | ConnState::ReadingBody => {
                    if now.duration_since(conn.last_progress) >= self.idle_timeout {
                        evict.push(id);
                    }
                }
                ConnState::Writing => {
                    // A reader that stopped reading its response: after
                    // the idle window there is no way to deliver
                    // anything, so just close.
                    if now.duration_since(conn.last_progress) >= self.idle_timeout {
                        close.push(id);
                    }
                }
                ConnState::Dispatched => {} // the worker's CancelToken owns this clock
            }
        }
        for id in close {
            self.close_conn(id);
        }
        for id in evict {
            self.evict_stalled(id);
        }
    }

    /// Slow-loris eviction: a connection that went `idle_timeout`
    /// without completing its request gets a `408` and closes.
    fn evict_stalled(&mut self, id: u64) {
        self.state.recorder.add(Counter::ServeShedStall, 1);
        self.state.other.record(0, true);
        let req_id = next_request_id();
        events::warn(
            "serve.access",
            "connection stalled past idle-timeout -> 408",
            &[
                ("request_id", req_id),
                ("status", "408".to_string()),
                ("outcome", "shed".to_string()),
                ("cause", "stall".to_string()),
            ],
        );
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.stalled = false;
            conn.close_after_write = true;
        }
        self.queue_response(
            id,
            &Response::text(408, "request did not progress before the idle timeout\n"),
            true,
        );
        self.flush(id);
    }

    /// After `/shutdown`: connections with nothing owed (idle, or
    /// mid-read with no response pending) close immediately; in-flight
    /// and writing connections finish first.
    fn sweep_for_shutdown(&mut self) {
        let ids: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(
                    c.state,
                    ConnState::KeepAliveIdle | ConnState::ReadingHeaders | ConnState::ReadingBody
                ) && !c.wants_write()
            })
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            self.close_conn(id);
        }
    }
}

/// Run one request end to end (panic-isolated), account for it, and
/// emit its access-log line. Runs on a worker thread in pool mode, on
/// the event-loop thread in serial mode.
fn process_request(
    state: &ServerState,
    request: &Request,
    worker: usize,
    req_id: &str,
    degraded: bool,
) -> Response {
    let start = Instant::now();
    state.recorder.add(Counter::ServeRequests, 1);
    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Failpoint: `pool.worker.panic` exercises the panic-isolation
        // path — the catch below keeps the daemon up.
        kmm_faults::panic_gate("pool.worker.panic");
        route(state, request, worker, req_id, degraded)
    }))
    .unwrap_or_else(|_| error_response(500, "internal error: request handler panicked", req_id));
    let is_error = response.status >= 400;
    if is_error {
        state.recorder.add(Counter::ServeErrors, 1);
    }
    let elapsed = start.elapsed();
    state
        .endpoint(&request.path)
        .record(elapsed.as_nanos() as u64, is_error);
    // One access-log event per request; its request_id is the same id a
    // JSON error body carries, so client-side and server-side views of a
    // failure can be joined.
    let message = format!("{} {} -> {}", request.method, request.path, response.status);
    // `outcome` classifies the handler result beyond the bare status
    // code: a 504 body still carries verified partial results
    // ("truncated"), a 429 was refused before any handler ran ("shed").
    let outcome = match response.status {
        504 => "truncated",
        429 => "shed",
        s if s >= 400 => "error",
        _ => "ok",
    };
    let fields = [
        ("request_id", req_id.to_string()),
        ("status", response.status.to_string()),
        ("duration_us", elapsed.as_micros().to_string()),
        ("outcome", outcome.to_string()),
    ];
    if is_error {
        events::warn("serve.access", message, &fields);
    } else {
        events::info("serve.access", message, &fields);
    }
    response
}

/// JSON error body tagged with the request id — the same id the access
/// log records, so a client-quoted failure can be matched to the
/// server-side line.
fn error_response(status: u16, message: impl Into<String>, req_id: &str) -> Response {
    Response::json(
        status,
        &Json::obj([
            ("error", Json::Str(message.into())),
            ("request_id", Json::Str(req_id.to_string())),
        ]),
    )
}

fn route(
    state: &ServerState,
    request: &Request,
    worker: usize,
    req_id: &str,
    degraded: bool,
) -> Response {
    // Failpoints at route entry: `serve.handler.slow` injects latency
    // (the sleep happens inside `check`), `serve.handler.err` fails the
    // request with a 500 (or panics, exercising the catch_unwind above).
    let _ = kmm_faults::check("serve.handler.slow");
    match kmm_faults::check("serve.handler.err") {
        Some(kmm_faults::Action::Err) => {
            return Response::text(500, "injected fault at failpoint 'serve.handler.err'\n")
        }
        Some(kmm_faults::Action::Panic) => {
            panic!("injected fault at failpoint 'serve.handler.err'")
        }
        _ => {}
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: render_metrics(state).into_bytes(),
            retry_after: None,
        },
        ("GET", "/stats.json") => Response::json(200, &state.recorder.snapshot().to_json()),
        ("GET", "/slow.json") => {
            Response::json(200, &slow_queries_json(&state.recorder.flight().slowest()))
        }
        ("GET", "/trace.json") => Response::json(200, &chrome_trace_json(&state.recorder.traces())),
        ("GET", "/dashboard") => Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: crate::dashboard::HTML.as_bytes().to_vec(),
            retry_after: None,
        },
        ("POST", "/search") => handle_search(state, &request.body, worker, req_id, degraded),
        ("POST", "/map") => handle_map(state, &request.body, worker, req_id, degraded),
        ("POST", "/explain") => handle_explain(state, &request.body, req_id),
        ("POST", "/shutdown") => {
            state.stop.store(true, Ordering::Relaxed);
            Response::text(200, "shutting down\n")
        }
        ("GET", "/search" | "/map" | "/explain" | "/shutdown") => {
            Response::text(405, "use POST for this endpoint\n")
        }
        _ => Response::text(404, format!("no route for {}\n", request.path)),
    }
}

/// Process metrics plus per-endpoint HTTP series.
fn render_metrics(state: &ServerState) -> String {
    let mut out = state.recorder.snapshot().to_prometheus();
    out.push_str("# HELP kmm_http_requests_total Requests handled since startup, by endpoint.\n");
    out.push_str("# TYPE kmm_http_requests_total counter\n");
    for e in state.endpoints.iter().chain(std::iter::once(&state.other)) {
        out.push_str(&format!(
            "kmm_http_requests_total{{endpoint=\"{}\"}} {}\n",
            e.route,
            e.requests.load(Ordering::Relaxed)
        ));
    }
    out.push_str("# HELP kmm_http_errors_total Error responses (status >= 400) since startup, by endpoint.\n");
    out.push_str("# TYPE kmm_http_errors_total counter\n");
    for e in state.endpoints.iter().chain(std::iter::once(&state.other)) {
        out.push_str(&format!(
            "kmm_http_errors_total{{endpoint=\"{}\"}} {}\n",
            e.route,
            e.errors.load(Ordering::Relaxed)
        ));
    }
    // Last-minute latency percentiles per endpoint (gauges: they move
    // with the window). Idle endpoints are emitted as zeros rather than
    // skipped: a series that disappears when quiet breaks rate() and
    // absence-based alerting downstream.
    out.push_str("# HELP kmm_http_window_requests Requests in the trailing one-minute window.\n");
    out.push_str("# TYPE kmm_http_window_requests gauge\n");
    out.push_str(
        "# HELP kmm_http_window_errors Error responses in the trailing one-minute window.\n",
    );
    out.push_str("# TYPE kmm_http_window_errors gauge\n");
    out.push_str("# HELP kmm_http_latency_ns Latency percentiles over the trailing one-minute window (0 when idle).\n");
    out.push_str("# TYPE kmm_http_latency_ns gauge\n");
    out.push_str("# HELP kmm_http_window_samples Latency samples currently held in the sliding window histogram.\n");
    out.push_str("# TYPE kmm_http_window_samples gauge\n");
    for e in state.endpoints.iter().chain(std::iter::once(&state.other)) {
        let w = e.window.summary();
        out.push_str(&format!(
            "kmm_http_window_requests{{endpoint=\"{}\"}} {}\n",
            e.route, w.count
        ));
        out.push_str(&format!(
            "kmm_http_window_samples{{endpoint=\"{}\"}} {}\n",
            e.route, w.hist.count
        ));
        out.push_str(&format!(
            "kmm_http_window_errors{{endpoint=\"{}\"}} {}\n",
            e.route, w.errors
        ));
        for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            // An empty window reports percentile 0 (not NaN, not an
            // absent series).
            out.push_str(&format!(
                "kmm_http_latency_ns{{endpoint=\"{}\",quantile=\"{label}\"}} {}\n",
                e.route,
                w.hist.percentile(q)
            ));
        }
    }
    // Live connection gauge: counters for opened/closed/keep-alive
    // reuse and the per-cause sheds come from the recorder snapshot
    // above (emitted at zero from startup like every counter).
    out.push_str("# HELP kmm_serve_open_connections Currently open client connections.\n");
    out.push_str("# TYPE kmm_serve_open_connections gauge\n");
    out.push_str(&format!(
        "kmm_serve_open_connections {}\n",
        state.open_conns.load(Ordering::Relaxed)
    ));
    // Flight-recorder occupancy: how full the slowest-K ring is. When
    // occupancy == capacity, `/slow.json` is evicting — every new slow
    // query displaces a retained one.
    let flight = state.recorder.flight();
    out.push_str(
        "# HELP kmm_flight_recorder_occupancy Query traces currently retained by the flight recorder.\n",
    );
    out.push_str("# TYPE kmm_flight_recorder_occupancy gauge\n");
    out.push_str(&format!("kmm_flight_recorder_occupancy {}\n", flight.len()));
    out.push_str(
        "# HELP kmm_flight_recorder_capacity Flight recorder capacity (the K of slowest-K).\n",
    );
    out.push_str("# TYPE kmm_flight_recorder_capacity gauge\n");
    out.push_str(&format!(
        "kmm_flight_recorder_capacity {}\n",
        flight.capacity()
    ));
    out.push_str(&prometheus_mem_text(&mem_stats()));
    out
}

/// Per-request tracing shard sharing the server recorder's epoch; merged
/// into the global recorder after the query so `/slow.json` and
/// `/metrics` see every request. Creating it on panic-prone paths is
/// deliberate: a panicking handler only loses its own shard.
fn request_shard(state: &ServerState, worker: usize) -> TraceRecorder {
    TraceRecorder::shard(state.recorder.trace_epoch(), worker as u32, true)
}

fn absorb_shard(state: &ServerState, shard: &TraceRecorder) {
    state.recorder.absorb(&shard.snapshot());
    state.recorder.absorb_traces(shard.drain());
}

fn body_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Json::parse(text).map_err(|e| format!("bad json body: {e}"))
}

/// Effective deadline for a request: the body's `"timeout_ms"` overrides
/// the server default; `0` truncates immediately (an already-expired
/// token, the documented meaning of a zero budget). A *degraded*
/// request (dispatched while the queue was ≥ half full) has its budget
/// clamped to [`DEGRADED_TIMEOUT_MS`] so overload turns into fast
/// truncation instead of a growing backlog.
fn request_timeout(state: &ServerState, doc: &Json, degraded: bool) -> Option<Duration> {
    let ms = doc
        .get("timeout_ms")
        .and_then(Json::as_u64)
        .or(state.config.timeout_ms);
    let ms = if degraded {
        Some(ms.map_or(DEGRADED_TIMEOUT_MS, |m| m.min(DEGRADED_TIMEOUT_MS)))
    } else {
        ms
    };
    ms.map(Duration::from_millis)
}

fn handle_search(
    state: &ServerState,
    body: &[u8],
    worker: usize,
    req_id: &str,
    degraded: bool,
) -> Response {
    let doc = match body_json(body) {
        Ok(d) => d,
        Err(msg) => return error_response(400, msg, req_id),
    };
    let Some(pattern) = doc.get("pattern").and_then(Json::as_str) else {
        return error_response(400, "missing \"pattern\"", req_id);
    };
    let k = doc
        .get("k")
        .and_then(Json::as_u64)
        .map_or(state.config.k, |v| v as usize);
    let method = match doc.get("method").and_then(Json::as_str) {
        None => state.config.method,
        Some(name) => match cli::parse_method(name) {
            Ok(m) => m,
            Err(e) => return error_response(400, e.to_string(), req_id),
        },
    };
    let encoded = match kmm_dna::encode(pattern.as_bytes()) {
        Ok(p) => p,
        Err(e) => return error_response(400, format!("bad pattern: {e}"), req_id),
    };
    let shard = request_shard(state, worker);
    shard.annotate(&format!("http=/search id={req_id}"));
    let token = request_timeout(state, &doc, degraded).map(CancelToken::with_deadline);
    let outcome = state
        .index
        .search_with(&encoded, k, method, token.as_ref(), &shard);
    let truncated = outcome.is_truncated();
    let result = outcome.into_inner();
    absorb_shard(state, &shard);
    let occurrences: Vec<Json> = result
        .occurrences
        .iter()
        .map(|o| {
            Json::obj([
                ("position", Json::UInt(o.position as u64)),
                ("mismatches", Json::UInt(o.mismatches as u64)),
            ])
        })
        .collect();
    // A truncated search is a 504 — but the body still carries every
    // verified match found before the deadline, flagged as partial.
    Response::json(
        if truncated { 504 } else { 200 },
        &Json::obj([
            ("count", Json::UInt(occurrences.len() as u64)),
            ("k", Json::UInt(k as u64)),
            ("method", Json::Str(method.label().to_string())),
            ("truncated", Json::Bool(truncated)),
            ("occurrences", Json::Arr(occurrences)),
        ]),
    )
}

/// `POST /explain`: the CLI's EXPLAIN engine over the served index.
/// Body: `{"pattern": "ACGT..", "k"?, "methods"?: ["a", "bwt", ...]}`.
/// Without `"methods"` the comparison set is BWT vs Algorithm A — the
/// two always-resident methods — plus the bidirectional scheme search
/// when the served index has the reverse-BWT mirror resident (its file
/// carries the mirror sections, or it was built from text); a
/// default explain never triggers a lazy suffix-tree or mirror build
/// on a large served index. The report is the
/// same deterministic `kmm-explain/v1` document `kmm explain --json`
/// prints; the query runs serially on the handling worker and is not
/// recorded into the flight recorder (its recorder never reads a
/// clock, by design).
fn handle_explain(state: &ServerState, body: &[u8], req_id: &str) -> Response {
    let doc = match body_json(body) {
        Ok(d) => d,
        Err(msg) => return error_response(400, msg, req_id),
    };
    let Some(pattern) = doc.get("pattern").and_then(Json::as_str) else {
        return error_response(400, "missing \"pattern\"", req_id);
    };
    let k = doc
        .get("k")
        .and_then(Json::as_u64)
        .map_or(state.config.k, |v| v as usize);
    let methods: Vec<Method> = match doc.get("methods") {
        None => {
            let mut set = vec![Method::Bwt { use_phi: true }, Method::ALGORITHM_A];
            if state.index.has_mirror() {
                set.push(Method::Bidirectional);
            }
            set
        }
        Some(list) => {
            let Some(names) = list.as_array() else {
                return error_response(400, "\"methods\" must be an array of names", req_id);
            };
            let mut parsed = Vec::with_capacity(names.len());
            for name in names {
                let Some(name) = name.as_str() else {
                    return error_response(400, "\"methods\" must be an array of names", req_id);
                };
                match cli::parse_method(name) {
                    Ok(m) => parsed.push(m),
                    Err(e) => return error_response(400, e.to_string(), req_id),
                }
            }
            if parsed.is_empty() {
                return error_response(400, "\"methods\" must not be empty", req_id);
            }
            parsed
        }
    };
    let encoded = match kmm_dna::encode(pattern.as_bytes()) {
        Ok(p) => p,
        Err(e) => return error_response(400, format!("bad pattern: {e}"), req_id),
    };
    if encoded.is_empty() {
        return error_response(400, "\"pattern\" must be non-empty", req_id);
    }
    Response::json(200, &state.index.explain(&encoded, k, &methods).to_json())
}

fn handle_map(
    state: &ServerState,
    body: &[u8],
    worker: usize,
    req_id: &str,
    degraded: bool,
) -> Response {
    let doc = match body_json(body) {
        Ok(d) => d,
        Err(msg) => return error_response(400, msg, req_id),
    };
    let Some(read) = doc.get("read").and_then(Json::as_str) else {
        return error_response(400, "missing \"read\"", req_id);
    };
    let k = doc
        .get("k")
        .and_then(Json::as_u64)
        .map_or(state.config.k, |v| v as usize);
    let both_strands = doc
        .get("both_strands")
        .and_then(Json::as_bool)
        .unwrap_or(true);
    let encoded = match kmm_dna::encode(read.as_bytes()) {
        Ok(p) => p,
        Err(e) => return error_response(400, format!("bad read: {e}"), req_id),
    };
    let mapper = ReadMapper::new(
        &state.index,
        MapperConfig {
            k,
            both_strands,
            method: state.config.method,
        },
    );
    let shard = request_shard(state, worker);
    shard.annotate(&format!("http=/map id={req_id}"));
    let token = request_timeout(state, &doc, degraded).map(CancelToken::with_deadline);
    let outcome = mapper.map_with(&encoded, token.as_ref(), &shard);
    let truncated = outcome.is_truncated();
    let report = outcome.into_inner();
    absorb_shard(state, &shard);
    let alignments: Vec<Json> = report
        .all
        .iter()
        .map(|a| {
            Json::obj([
                ("position", Json::UInt(a.position as u64)),
                ("mismatches", Json::UInt(a.mismatches as u64)),
                (
                    "strand",
                    Json::Str(
                        if a.strand == Strand::Forward {
                            "+"
                        } else {
                            "-"
                        }
                        .to_string(),
                    ),
                ),
            ])
        })
        .collect();
    let outcome = match report.outcome {
        MapOutcome::Unmapped => "unmapped",
        MapOutcome::Unique(_) => "unique",
        MapOutcome::Multi(_) => "multi",
    };
    Response::json(
        if truncated { 504 } else { 200 },
        &Json::obj([
            ("outcome", Json::Str(outcome.to_string())),
            ("mapq", Json::UInt(report.mapq as u64)),
            ("truncated", Json::Bool(truncated)),
            ("alignments", Json::Arr(alignments)),
        ]),
    )
}

// The fallback `poll` reports every descriptor ready, so only the real
// backend can show the wake-up socket going quiet again.
#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Whether the wake-up end is readable right now (a zero-timeout poll).
    fn wakes(done: &Completions) -> bool {
        let mut fds = [PollFd::new(done.wake_fd(), POLLIN)];
        poll(&mut fds, Duration::ZERO).expect("poll the wake-up socket");
        fds[0].ready(POLLIN)
    }

    #[test]
    fn completion_push_wakes_the_loop_until_drained() {
        let done = Completions::new().expect("socket pair");
        assert!(
            !wakes(&done),
            "a fresh completion list must not wake the loop"
        );
        done.push(7, Response::text(200, "ok\n"));
        assert!(wakes(&done), "a push must wake the loop");
        let drained = done.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].conn, 7);
        assert!(!wakes(&done), "a drain must consume the wake-up");
    }
}
