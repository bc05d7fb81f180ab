//! The `servesoak` workload: drive a real `kmm serve` daemon over TCP
//! and record the front end's admission-control counters.
//!
//! Unlike the search benches, the quantity under test here is not
//! wall-clock but *bookkeeping*: every phase sends a fixed request
//! sequence whose outcome is a pure function of the server's connection
//! state machine — keep-alive reuse counts, per-tenant token-bucket
//! refusals, and connection-cap sheds are all structurally determined
//! by (connections opened, requests per connection, configured limits).
//! Two runs of the same binary must agree bit for bit, so the artifact
//! (`BENCH_serve.json`) gates under `kmm bench diff` exactly like the
//! search-counter baselines.
//!
//! The bench crate cannot link the server directly (the root crate
//! depends on this one), so the soak shells out to a sibling `kmm`
//! binary: build the index with `kmm generate` + `kmm index`, start
//! `kmm serve --port-file`, talk plain HTTP/1.1 over `TcpStream`, and
//! shut down via `POST /shutdown`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kmm_telemetry::Json;

/// The experiment name of the serving soak (and thus its artifact,
/// `BENCH_serve.json`).
pub const SERVE_EXPERIMENT: &str = "serve";

/// Keep-alive connections opened in the reuse phase.
const SOAK_CONNS: usize = 4;
/// Requests sent on each keep-alive connection.
const SOAK_REQS: usize = 8;
/// Back-to-back requests sent by the rate-limited tenant.
const TENANT_BURST: usize = 5;
/// `--max-conns` handed to the server; the cap phase holds this many.
const CONN_CAP: usize = 8;
/// Connections opened past the cap; each must be refused with a 429.
const CAP_EXTRA: usize = 3;

/// One phase of the soak: a fixed request sequence and the counters it
/// deterministically produced.
#[derive(Debug, Clone)]
pub struct ServeSoakRecord {
    /// Phase label (`keepalive`, `tenant-shed`, `conn-cap`, `counters`).
    pub phase: String,
    /// Served genome length in bp (shared across phases).
    pub n: usize,
    /// Connections the phase opened.
    pub conns: usize,
    /// Requests the phase sent per connection.
    pub reqs: usize,
    /// Wall-clock seconds for the phase (informational, not gated).
    pub seconds: f64,
    /// Deterministic counters: client-observed outcomes plus the
    /// server's own `serve.*` counters scraped from `/stats.json`.
    pub stats: Vec<(String, u64)>,
}

impl ServeSoakRecord {
    /// Serialise in the `BENCH_*.json` record shape. The phase label
    /// rides in the `method` slot and `(m, k)` carry the phase's
    /// connection/request geometry so `kmm bench diff` keys records
    /// the same way it keys search benches.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("method", Json::Str(self.phase.clone())),
            ("n", Json::UInt(self.n as u64)),
            ("m", Json::UInt(self.conns as u64)),
            ("k", Json::UInt(self.reqs as u64)),
            ("seconds", Json::Float(self.seconds)),
            (
                "stats",
                Json::Obj(
                    self.stats
                        .iter()
                        .map(|(name, v)| (name.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// A keep-alive HTTP/1.1 client connection. `carry` holds bytes past
/// the end of the last framed response — the server may coalesce
/// pipelined responses into one write, so anything after a response's
/// `Content-Length` boundary belongs to the next one.
struct SoakConn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl SoakConn {
    fn connect(addr: SocketAddr) -> std::io::Result<SoakConn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(SoakConn {
            stream,
            carry: Vec::new(),
        })
    }

    fn send(&mut self, request: &str) -> std::io::Result<()> {
        self.stream.write_all(request.as_bytes())
    }

    /// Read one `Content-Length`-framed response; returns the status.
    fn read_status(&mut self) -> std::io::Result<(u16, String)> {
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io_err("EOF before response headers"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.carry[..header_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io_err(format!("unparseable status line: {head}")))?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())
                    .flatten()
            })
            .ok_or_else(|| io_err("response without Content-Length"))?;
        let total = header_end + 4 + content_length;
        while self.carry.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io_err("EOF mid response body"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.carry[header_end + 4..total]).to_string();
        self.carry.drain(..total);
        Ok((status, body))
    }
}

/// One-shot request on a fresh connection (`Connection: close`).
fn http_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
) -> std::io::Result<(u16, String)> {
    let mut conn = SoakConn::connect(addr)?;
    conn.send(&format!(
        "{method} {path} HTTP/1.1\r\nHost: soak\r\n{headers}Connection: close\r\nContent-Length: 0\r\n\r\n"
    ))?;
    conn.read_status()
}

/// A server process that is torn down even when the soak errors out.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn run_kmm(kmm: &Path, args: &[&str]) -> std::io::Result<()> {
    let status = Command::new(kmm)
        .args(args)
        .arg("--quiet")
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io_err(format!("kmm {} failed: {status}", args.join(" "))));
    }
    Ok(())
}

/// Expect a deterministic counter to hit its structural value; any
/// drift is a server bookkeeping bug, not noise, so fail loudly rather
/// than write a poisoned artifact.
fn expect(name: &str, got: u64, want: u64) -> std::io::Result<u64> {
    if got != want {
        return Err(io_err(format!(
            "soak invariant broken: {name} = {got}, expected {want}"
        )));
    }
    Ok(got)
}

/// Start `kmm serve` over `idx` with the given admission flags and
/// wait for its `--port-file`.
fn spawn_server(
    kmm: &Path,
    idx: &Path,
    port_file: &Path,
    extra: &[&str],
) -> std::io::Result<(ServerGuard, SocketAddr)> {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(kmm)
        .args([
            "serve",
            "--index",
            idx.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--port-file",
            port_file.to_str().unwrap(),
            "--idle-timeout-ms",
            "30000",
            "--quiet",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .spawn()?;
    let mut guard = ServerGuard(child);
    let addr = wait_for_port(port_file, &mut guard.0)?;
    Ok((guard, addr))
}

/// Scrape one `serve.*` counter set off `/stats.json`. A 429 here is
/// the connection cap still holding freshly-dropped sockets from an
/// earlier phase — retry until the reaper catches up.
fn scrape_counters(addr: SocketAddr) -> std::io::Result<Json> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (status, stats_body) = http_once(addr, "GET", "/stats.json", "")?;
        match status {
            200 => {
                return Json::parse(&stats_body).map_err(|e| io_err(format!("stats.json: {e:?}")))
            }
            429 if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            other => return Err(io_err(format!("/stats.json -> {other}"))),
        }
    }
}

fn counter_of(doc: &Json, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// `POST /shutdown` and wait for a clean exit.
fn shutdown(addr: SocketAddr, guard: ServerGuard) -> std::io::Result<()> {
    let (status, _) = http_once(addr, "POST", "/shutdown", "")?;
    if status != 200 {
        return Err(io_err(format!("/shutdown -> {status}")));
    }
    let mut guard = guard;
    let exit = guard.0.wait()?;
    std::mem::forget(guard); // already reaped; Drop must not kill the pid again
    if !exit.success() {
        return Err(io_err(format!("server exited with {exit}")));
    }
    Ok(())
}

/// Run the serving soak against a sibling `kmm` binary: generate a
/// small deterministic genome, index it, and drive two `kmm serve`
/// instances — one unlimited (keep-alive reuse + connection-cap
/// phases) and one with `--tenant-rate 1` (token-bucket phase; the
/// rate also applies to anonymous traffic, so the rate-limited phases
/// need their own process). Every gated counter is cross-checked
/// against its structural expectation before it lands in a record.
pub fn run_servesoak(kmm: &Path) -> std::io::Result<Vec<ServeSoakRecord>> {
    let dir = std::env::temp_dir().join(format!("kmm-servesoak-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let fa = dir.join("ref.fa");
    let idx = dir.join("ref.idx");
    let port_file = dir.join("port");

    run_kmm(
        kmm,
        &[
            "generate",
            "--genome",
            "cmerolae",
            "--scale",
            "0.05",
            "-o",
            fa.to_str().unwrap(),
        ],
    )?;
    run_kmm(
        kmm,
        &[
            "index",
            "--reference",
            fa.to_str().unwrap(),
            "-o",
            idx.to_str().unwrap(),
            "--threads",
            "1",
        ],
    )?;
    let n = genome_len(&fa)?;

    let (guard, addr) = spawn_server(
        kmm,
        &idx,
        &port_file,
        &["--max-conns", &CONN_CAP.to_string()],
    )?;

    let mut records = Vec::new();

    // Phase 1 — keep-alive reuse: SOAK_CONNS connections, SOAK_REQS
    // sequential /healthz requests each. Reuses = conns * (reqs - 1).
    let start = Instant::now();
    let mut ok = 0u64;
    let mut conns: Vec<SoakConn> = Vec::new();
    for _ in 0..SOAK_CONNS {
        conns.push(SoakConn::connect(addr)?);
    }
    for conn in &mut conns {
        for _ in 0..SOAK_REQS {
            conn.send("GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\n")?;
            let (status, body) = conn.read_status()?;
            if status != 200 {
                return Err(io_err(format!("healthz -> {status}: {body}")));
            }
            ok += 1;
        }
    }
    drop(conns);
    records.push(ServeSoakRecord {
        phase: "keepalive".into(),
        n,
        conns: SOAK_CONNS,
        reqs: SOAK_REQS,
        seconds: start.elapsed().as_secs_f64(),
        stats: vec![
            (
                "requests_ok".into(),
                expect("requests_ok", ok, (SOAK_CONNS * SOAK_REQS) as u64)?,
            ),
            (
                "reuses_expected".into(),
                (SOAK_CONNS * (SOAK_REQS - 1)) as u64,
            ),
        ],
    });

    // Phase 2 — connection cap: hold CONN_CAP live connections, then
    // open CAP_EXTRA more; each extra is refused with a 429 before the
    // client sends a byte. Earlier phases' sockets are closed
    // client-side but the server reaps them asynchronously, so if a
    // held-slot probe draws the cap 429 the whole phase backs off and
    // retries until the leftover slots are reclaimed.
    let start = Instant::now();
    let shed = loop {
        let mut held: Vec<SoakConn> = Vec::new();
        let mut settled = true;
        for _ in 0..CONN_CAP {
            let mut c = SoakConn::connect(addr)?;
            // Prove the slot is live: a refused connection answers the
            // cap 429 without reading our request.
            c.send("GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\n")?;
            match c.read_status()?.0 {
                200 => held.push(c),
                429 => {
                    settled = false;
                    break;
                }
                other => return Err(io_err(format!("cap probe -> unexpected {other}"))),
            }
        }
        if !settled {
            if start.elapsed() > Duration::from_secs(20) {
                return Err(io_err("conn-cap phase never settled"));
            }
            drop(held);
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        let mut shed = 0u64;
        for _ in 0..CAP_EXTRA {
            let mut c = SoakConn::connect(addr)?;
            match c.read_status()?.0 {
                429 => shed += 1,
                other => return Err(io_err(format!("over-cap connect -> {other}, want 429"))),
            }
        }
        drop(held);
        break shed;
    };
    records.push(ServeSoakRecord {
        phase: "conn-cap".into(),
        n,
        conns: CONN_CAP + CAP_EXTRA,
        reqs: 0,
        seconds: start.elapsed().as_secs_f64(),
        stats: vec![(
            "refused_429".into(),
            expect("cap refused_429", shed, CAP_EXTRA as u64)?,
        )],
    });

    // Phase 3 — scrape the first server's ledger and gate it against
    // the structural expectations. Only counters that are exact
    // functions of the request sequence are recorded:
    // `conns_opened/closed` race the reaper and `shed_conns` absorbs
    // any settling retries from phase 2, so those stay out.
    let start = Instant::now();
    let doc = scrape_counters(addr)?;
    let want_reuses = (SOAK_CONNS * (SOAK_REQS - 1)) as u64;
    let stats = vec![
        (
            "serve.keepalive_reuses".into(),
            expect(
                "serve.keepalive_reuses",
                counter_of(&doc, "serve.keepalive_reuses"),
                want_reuses,
            )?,
        ),
        (
            "serve.shed_tenant".into(),
            expect(
                "serve.shed_tenant",
                counter_of(&doc, "serve.shed_tenant"),
                0,
            )?,
        ),
        (
            "serve.shed_stall".into(),
            expect("serve.shed_stall", counter_of(&doc, "serve.shed_stall"), 0)?,
        ),
        (
            "serve.shed".into(),
            expect("serve.shed", counter_of(&doc, "serve.shed"), 0)?,
        ),
    ];
    records.push(ServeSoakRecord {
        phase: "counters".into(),
        n,
        conns: 0,
        reqs: 0,
        seconds: start.elapsed().as_secs_f64(),
        stats,
    });
    shutdown(addr, guard)?;

    // Phase 4 — per-tenant admission, on its own server because
    // `--tenant-rate` also meters anonymous traffic: one tenant bursts
    // TENANT_BURST requests back-to-back at rate 1. The bucket starts
    // with one token and the burst finishes long before the next
    // refill, so exactly one request passes and the rest draw 429s.
    let (guard, addr) = spawn_server(kmm, &idx, &port_file, &["--tenant-rate", "1"])?;
    let start = Instant::now();
    let mut admitted = 0u64;
    let mut refused = 0u64;
    let mut conn = SoakConn::connect(addr)?;
    for _ in 0..TENANT_BURST {
        conn.send("GET /healthz HTTP/1.1\r\nHost: soak\r\nX-Kmm-Tenant: soak\r\n\r\n")?;
        match conn.read_status()?.0 {
            200 => admitted += 1,
            429 => refused += 1,
            other => return Err(io_err(format!("tenant burst -> unexpected {other}"))),
        }
    }
    drop(conn);
    // The anonymous bucket is untouched by the burst, so the one
    // scrape below is admitted on its starting token.
    let doc = scrape_counters(addr)?;
    records.push(ServeSoakRecord {
        phase: "tenant-shed".into(),
        n,
        conns: 1,
        reqs: TENANT_BURST,
        seconds: start.elapsed().as_secs_f64(),
        stats: vec![
            ("admitted".into(), expect("admitted", admitted, 1)?),
            (
                "refused_429".into(),
                expect("refused_429", refused, (TENANT_BURST - 1) as u64)?,
            ),
            (
                "serve.shed_tenant".into(),
                expect(
                    "serve.shed_tenant",
                    counter_of(&doc, "serve.shed_tenant"),
                    (TENANT_BURST - 1) as u64,
                )?,
            ),
            (
                "serve.keepalive_reuses".into(),
                expect(
                    "serve.keepalive_reuses",
                    counter_of(&doc, "serve.keepalive_reuses"),
                    (TENANT_BURST - 1) as u64,
                )?,
            ),
        ],
    });
    shutdown(addr, guard)?;

    let _ = std::fs::remove_dir_all(&dir);
    Ok(records)
}

/// Total sequence length of a generated FASTA (sum of non-header lines).
fn genome_len(fa: &Path) -> std::io::Result<usize> {
    let text = std::fs::read_to_string(fa)?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('>'))
        .map(str::len)
        .sum())
}

/// Poll the `--port-file` until the server writes its ephemeral port.
fn wait_for_port(port_file: &Path, child: &mut Child) -> std::io::Result<SocketAddr> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return Ok(SocketAddr::from(([127, 0, 0, 1], port)));
            }
        }
        if let Some(status) = child.try_wait()? {
            return Err(io_err(format!("server exited before binding: {status}")));
        }
        if Instant::now() > deadline {
            return Err(io_err("timed out waiting for --port-file"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
