//! The `serve-probes` side: a live `kmm serve` child process and an
//! open-loop HTTP/1.1 load generator.
//!
//! The generator is one thread driving two keep-alive connections
//! (`TCP_NODELAY`, nonblocking) from a `ppoll(2)` loop, so sends leave
//! on schedule and replies are read the moment they arrive. Replies are
//! framed by `Content-Length` with a carry buffer (pipelined replies can
//! arrive coalesced), and a connection the daemon marks
//! `Connection: close` is replaced at once, with any request still
//! unanswered on it sent again on the new one.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kmm_telemetry::Json;

use crate::spans::SpanLog;

/// Keep-alive connections the generator holds open.
pub const CONNS: usize = 2;

/// How long to wait for the daemon to bind.
const START_DEADLINE: Duration = Duration::from_secs(60);
/// How long a request may stay unanswered after the last one is due.
const REPLY_DEADLINE: Duration = Duration::from_secs(5);
/// How long `POST /shutdown` may take before the daemon is killed.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(10);

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// A running `kmm serve` child. Dropping it kills and reaps the process,
/// so no daemon outlives the benchmark even when a run fails.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
    /// The daemon's stderr: one access-log line per request at the
    /// default log level, so it must not be a pipe nobody drains.
    pub log: PathBuf,
}

impl Daemon {
    /// Start `kmm serve` at its defaults on `index` and wait until it
    /// listens.
    pub fn spawn(kmm: &Path, index: &Path, work: &Path, tag: &str) -> Result<Daemon, String> {
        let port_file = work.join(format!("{tag}.port"));
        let log = work.join(format!("{tag}.stderr.log"));
        let _ = std::fs::remove_file(&port_file);
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(kmm)
            .arg("serve")
            .arg("--index")
            .arg(index)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", kmm.display()))?;
        let mut daemon = Daemon {
            pid: child.id(),
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log,
        };
        let deadline = Instant::now() + START_DEADLINE;
        let port = loop {
            let text = std::fs::read_to_string(&port_file).unwrap_or_default();
            if let Some(port) = text
                .strip_suffix('\n')
                .and_then(|p| p.trim().parse::<u16>().ok())
            {
                break port;
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!(
                    "kmm serve exited with {status} before listening; see {}",
                    daemon.log.display()
                ));
            }
            if Instant::now() >= deadline {
                return Err("kmm serve did not bind within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let _ = std::fs::remove_file(&port_file);
        daemon.addr.set_port(port);
        Ok(daemon)
    }

    /// Peak resident set of the daemon in KiB.
    pub fn vm_hwm_kib(&self) -> Option<u64> {
        vm_hwm_kib(&format!("/proc/{}/status", self.pid))
    }

    /// `GET path` on a fresh connection, parsed as JSON.
    pub fn get_json(&self, path: &str) -> Result<Json, String> {
        let reply = one_shot(self.addr, "GET", path, "").map_err(|e| format!("GET {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET {path}: status {}", reply.status));
        }
        Json::parse(&String::from_utf8_lossy(&reply.body)).map_err(|e| format!("GET {path}: {e}"))
    }

    /// `POST /shutdown` and wait for the process to exit; kill it if it
    /// has not exited within the deadline. Removes the log on success.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = one_shot(self.addr, "POST", "/shutdown", "");
        let mut child = self.child.take().expect("a live daemon owns its child");
        let deadline = Instant::now() + SHUTDOWN_DEADLINE;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    let _ = std::fs::remove_file(&self.log);
                    return Ok(());
                }
                Ok(Some(status)) => {
                    return Err(format!(
                        "kmm serve exited with {status}; see {}",
                        self.log.display()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "kmm serve ignored /shutdown ({asked:?}) and was killed"
                    ));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
pub fn vm_hwm_kib(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One complete HTTP reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// The daemon closes the connection after this reply.
    pub close: bool,
    pub body: Vec<u8>,
}

/// A client connection with a carry buffer.
pub struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            carry: Vec::new(),
        })
    }

    /// Write all of `bytes`, waiting out a full send buffer on a
    /// nonblocking socket.
    pub fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io_err("connection closed while sending")),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Blocking: the next complete reply, or an error if none completes
    /// within `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<Reply> {
        self.stream.set_read_timeout(Some(timeout))?;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(reply) = self.take_reply()? {
                return Ok(reply);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io_err("connection closed before a complete reply")),
                Ok(n) => self.carry.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Nonblocking: read whatever has arrived and return every complete
    /// reply in it. `Err` when the connection broke.
    fn drain(&mut self) -> std::io::Result<Vec<Reply>> {
        let mut buf = [0u8; 16 * 1024];
        let mut eof = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => self.carry.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut replies = Vec::new();
        while let Some(reply) = self.take_reply()? {
            replies.push(reply);
        }
        if eof && replies.is_empty() {
            return Err(io_err("connection closed"));
        }
        Ok(replies)
    }

    fn take_reply(&mut self) -> std::io::Result<Option<Reply>> {
        let Some(head_end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|_| io_err("non-UTF-8 reply head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io_err(format!("bad status line: {head}")))?;
        let mut length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| io_err("reply without Content-Length"))?;
        let total = head_end + 4 + length;
        if self.carry.len() < total {
            return Ok(None);
        }
        let body = self.carry[head_end + 4..total].to_vec();
        self.carry.drain(..total);
        Ok(Some(Reply {
            status,
            close,
            body,
        }))
    }
}

/// One request on a fresh connection that asks to close.
pub fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut conn = Conn::open(addr)?;
    conn.send(
        format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            .as_bytes(),
    )?;
    conn.recv(REPLY_DEADLINE)
}

/// The JSON body of `POST /search` for one encoded probe at `k`; the
/// daemon picks its default method.
pub fn search_body(pattern: &[u8], k: usize) -> String {
    format!(
        "{{\"pattern\":\"{}\",\"k\":{k}}}",
        String::from_utf8(kmm_dna::decode(pattern)).expect("decoded bases are ASCII")
    )
}

/// Wire bytes of a keep-alive `POST /search`.
pub fn search_request(pattern: &[u8], k: usize) -> Vec<u8> {
    let body = search_body(pattern, k);
    format!(
        "POST /search HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `(position, mismatches)` pairs of a `/search` reply body.
pub fn parse_hits(body: &[u8]) -> Result<Vec<(usize, usize)>, String> {
    let doc = Json::parse(&String::from_utf8_lossy(body)).map_err(|e| e.to_string())?;
    if doc.get("truncated").and_then(Json::as_bool) != Some(false) {
        return Err("reply is truncated".into());
    }
    let occ = doc
        .get("occurrences")
        .and_then(Json::as_array)
        .ok_or("reply has no occurrences")?;
    occ.iter()
        .map(|o| {
            let field = |k: &str| o.get(k).and_then(Json::as_u64).map(|v| v as usize);
            field("position")
                .zip(field("mismatches"))
                .ok_or_else(|| "malformed occurrence".to_string())
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the phase's schedule.
    pub seq: usize,
    /// 0 when no reply arrived before the deadline.
    pub status: u16,
    /// From the request's due time to its complete reply.
    pub latency_ns: u64,
    /// From the due time to the send.
    pub lag_ns: u64,
    pub body: Vec<u8>,
}

/// The result of one open-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// One per request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Requests sent while an earlier one on the same connection was
    /// still unanswered.
    pub pipelined: u64,
    /// Connections replaced after `Connection: close` or an error.
    pub reconnects: u64,
    /// From the first due time to the last reply.
    pub wall: Duration,
}

/// One connection's state in the load loop.
struct Lane {
    conn: Option<Conn>,
    /// `(seq, send start, send end)` of unanswered requests, oldest first.
    outstanding: VecDeque<(usize, Instant, Instant)>,
}

/// Send `count` requests at `rate` per second in an open loop: request
/// `i` is due `i / rate` seconds after the start whether or not earlier
/// ones were answered, and goes out on an idle connection, or pipelined
/// on the least loaded one when none is idle. `request(i)` gives the
/// wire bytes of request `i`. With `spans`, each request becomes an
/// `http.request` span with its generator lag, write and wait inside.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    count: usize,
    request: &dyn Fn(usize) -> Vec<u8>,
    spans: Option<&SpanLog>,
) -> Phase {
    let mut lanes: Vec<Lane> = (0..CONNS)
        .map(|_| Lane {
            conn: connect(addr),
            outstanding: VecDeque::new(),
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let deadline = due(count.saturating_sub(1)) + REPLY_DEADLINE;
    let mut phase = Phase::default();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; count];
    let mut last = t0;
    let mut next = 0usize;
    let mut finish =
        |lane: usize, seq: usize, status: u16, sent: Instant, sent_end: Instant, body: Vec<u8>| {
            let now = Instant::now();
            let d = due(seq);
            last = last.max(now);
            if let Some(log) = spans {
                let lane = lane as u32 + 1;
                let parent = log.record("http.request", Some(seq as u64), lane, 0, d, now);
                log.record("http.gen_lag", Some(seq as u64), lane, parent, d, sent);
                log.record("http.write", Some(seq as u64), lane, parent, sent, sent_end);
                log.record("http.wait", Some(seq as u64), lane, parent, sent_end, now);
            }
            outcomes[seq] = Some(Outcome {
                seq,
                status,
                latency_ns: now.saturating_duration_since(d).as_nanos() as u64,
                lag_ns: sent.saturating_duration_since(d).as_nanos() as u64,
                body,
            });
        };
    loop {
        // Take in every reply that has arrived.
        for (j, lane) in lanes.iter_mut().enumerate() {
            let Some(conn) = lane.conn.as_mut() else {
                continue;
            };
            if lane.outstanding.is_empty() {
                continue;
            }
            match conn.drain() {
                Ok(replies) => {
                    let mut close = false;
                    for reply in replies {
                        let Some((seq, sent, sent_end)) = lane.outstanding.pop_front() else {
                            break;
                        };
                        close |= reply.close;
                        finish(j, seq, reply.status, sent, sent_end, reply.body);
                    }
                    if close {
                        phase.reconnects += 1;
                        lane.conn = reconnect(addr, &lane.outstanding, request);
                    }
                }
                Err(_) => {
                    phase.reconnects += 1;
                    lane.conn = reconnect(addr, &lane.outstanding, request);
                }
            }
        }
        // Send everything that is due.
        let now = Instant::now();
        while next < count && due(next) <= now {
            // Like an HTTP/1.1 connection pool: an idle connection if
            // there is one, else pipeline on the least loaded.
            let pick = (0..CONNS)
                .map(|j| (next + j) % CONNS)
                .min_by_key(|&j| lanes[j].outstanding.len())
                .expect("at least one connection");
            let lane = &mut lanes[pick];
            if !lane.outstanding.is_empty() {
                phase.pipelined += 1;
            }
            let sent = Instant::now();
            let ok = lane
                .conn
                .as_mut()
                .is_some_and(|c| c.send(&request(next)).is_ok());
            lane.outstanding.push_back((next, sent, Instant::now()));
            if !ok {
                phase.reconnects += 1;
                lane.conn = reconnect(addr, &lane.outstanding, request);
            }
            next += 1;
        }
        let pending = lanes.iter().any(|l| !l.outstanding.is_empty());
        let now = Instant::now();
        if (next == count && !pending) || now >= deadline {
            break;
        }
        // Sleep until the next send is due or a reply arrives.
        let wake = if next < count {
            due(next).min(deadline)
        } else {
            deadline
        };
        let fds: Vec<i32> = lanes
            .iter()
            .filter(|l| !l.outstanding.is_empty())
            .filter_map(|l| l.conn.as_ref().map(|c| c.stream.as_raw_fd()))
            .collect();
        wait_readable(&fds, wake.saturating_duration_since(now));
    }
    // Whatever is still unanswered at the deadline failed.
    for (j, lane) in lanes.iter_mut().enumerate() {
        for (seq, sent, sent_end) in lane.outstanding.drain(..) {
            finish(j, seq, 0, sent, sent_end, Vec::new());
        }
    }
    for seq in next..count {
        let d = due(seq);
        finish(0, seq, 0, d, d, Vec::new());
    }
    phase.outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every request has an outcome"))
        .collect();
    phase.wall = last.saturating_duration_since(t0);
    phase
}

fn connect(addr: SocketAddr) -> Option<Conn> {
    let conn = Conn::open(addr).ok()?;
    conn.stream.set_nonblocking(true).ok()?;
    Some(conn)
}

/// Open a fresh connection and send every unanswered request again.
fn reconnect(
    addr: SocketAddr,
    outstanding: &VecDeque<(usize, Instant, Instant)>,
    request: &dyn Fn(usize) -> Vec<u8>,
) -> Option<Conn> {
    let mut conn = connect(addr)?;
    for &(seq, _, _) in outstanding {
        conn.send(&request(seq)).ok()?;
    }
    Some(conn)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Block until one of `fds` is readable or `timeout` passes. `ppoll(2)`
/// takes a nanosecond timeout; socket read timeouts round up to
/// scheduler ticks (4 ms at 250 Hz), which would make sends late.
fn wait_readable(fds: &[i32], timeout: Duration) {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: timeout.subsec_nanos() as std::os::raw::c_long,
    };
    // SAFETY: `set` is a live, exclusively borrowed array of `#[repr(C)]`
    // pollfd records whose length is passed with it; `ts` outlives the
    // call; a null signal mask leaves the mask unchanged. An error
    // (EINTR) only ends the wait early, which the caller tolerates.
    unsafe {
        ppoll(
            set.as_mut_ptr(),
            set.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// The daemon's counters and `search.query` phase from `/stats.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub requests: u64,
    pub errors: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub keepalive_reuses: u64,
    pub search_ns: u64,
    pub searches: u64,
}

impl Scrape {
    pub fn take(daemon: &Daemon) -> Result<Scrape, String> {
        let doc = daemon.get_json("/stats.json")?;
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let phase = doc.get("phases").and_then(|p| p.get("search.query"));
        let phase_field = |f: &str| {
            phase
                .and_then(|p| p.get(f))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(Scrape {
            requests: counter("serve.requests"),
            errors: counter("serve.errors"),
            shed: counter("serve.shed"),
            timeouts: counter("search.timeouts"),
            keepalive_reuses: counter("serve.keepalive_reuses"),
            search_ns: phase_field("total_ns"),
            searches: phase_field("entries"),
        })
    }

    /// Counter deltas from `earlier` to `self`. The scrape that took
    /// `earlier` is itself one request in between.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            requests: (self.requests - earlier.requests).saturating_sub(1),
            errors: self.errors - earlier.errors,
            shed: self.shed - earlier.shed,
            timeouts: self.timeouts - earlier.timeouts,
            keepalive_reuses: self.keepalive_reuses - earlier.keepalive_reuses,
            search_ns: self.search_ns - earlier.search_ns,
            searches: self.searches - earlier.searches,
        }
    }
}
