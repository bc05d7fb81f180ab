//! Chaos tests: every failure path driven deterministically through the
//! `kmm-faults` failpoint layer — no sleeps-and-hope. Failpoints are
//! process-global, so this binary keeps them in their own test file and
//! serialises the armed sections behind a mutex.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::serve::{ServeConfig, Server};
use bwt_kmismatch::telemetry::{Json, NoopRecorder};
use bwt_kmismatch::KMismatchIndex;
use common::{http, Conn};

/// Serialises tests that arm failpoints (they share global state).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn armed(specs: &str) -> impl Drop {
    struct Disarm<'a>(Option<std::sync::MutexGuard<'a, ()>>);
    impl Drop for Disarm<'_> {
        fn drop(&mut self) {
            kmm_faults::disarm_all();
            self.0.take();
        }
    }
    let guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    kmm_faults::disarm_all();
    kmm_faults::arm(specs).expect("valid failpoint spec");
    Disarm(Some(guard))
}

fn test_index() -> KMismatchIndex {
    KMismatchIndex::new(markov(6_000, &MarkovConfig::default(), 19))
}

#[test]
fn worker_panic_failpoint_is_isolated_and_counted() {
    let _armed = armed("pool.worker.panic=panic");
    let server = Server::start(test_index(), ServeConfig::default()).expect("start");
    let addr = server.addr();

    // Every request panics inside the worker; the daemon survives each.
    for _ in 0..3 {
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");
    }

    // Disarm: the very same server, same workers, is healthy again.
    kmm_faults::disarm_all();
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "daemon did not survive worker panics: {body}");
    let (_, _, stats) = http(addr, "GET", "/stats.json", "");
    let doc = Json::parse(&stats).unwrap();
    let errors = doc
        .get("counters")
        .and_then(|c| c.get("serve.errors"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(errors >= 3, "serve.errors did not tick: {errors}");

    http(addr, "POST", "/shutdown", "");
    server.join();
}

#[test]
fn handler_panic_is_isolated_and_counted() {
    let _armed = armed("serve.handler.err=panic");
    let idx = test_index();
    let server = Server::start(
        test_index(),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // The injected fault panics inside the handler: the client sees a
    // 500 and the worker survives.
    let (status, _, body) = http(addr, "POST", "/search", "{\"pattern\": \"ACGTACGT\"}");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");
    kmm_faults::disarm_all();

    // The very next request on the same server works.
    let pattern = bwt_kmismatch::dna::decode_string(&idx.text()[300..360]);
    let body = format!("{{\"pattern\": \"{pattern}\"}}");
    assert_eq!(http(addr, "POST", "/search", &body).0, 200);
    assert_eq!(http(addr, "GET", "/healthz", "").0, 200);

    // The error is visible in both accounting layers.
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("kmm_serve_errors_total 1"),
        "serve.errors missing: {metrics}"
    );
    assert!(
        metrics.contains("kmm_http_errors_total{endpoint=\"/search\"} 1"),
        "{metrics}"
    );
    let (_, _, stats) = http(addr, "GET", "/stats.json", "");
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("serve.errors"))
            .and_then(Json::as_u64),
        Some(1)
    );

    http(addr, "POST", "/shutdown", "");
    server.join();
}

#[test]
fn handler_err_failpoint_fails_requests_deterministically() {
    let _armed = armed("serve.handler.err=1in2.err");
    let server = Server::start(test_index(), ServeConfig::default()).expect("start");
    let addr = server.addr();

    // `1in2` fires on a deterministic half of the hits: over 10 requests
    // exactly 5 fail with the injected 500.
    let mut injected = 0;
    for _ in 0..10 {
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        match status {
            500 => {
                assert!(body.contains("injected fault"), "{body}");
                injected += 1;
            }
            200 => {}
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(injected, 5, "1in2 is exactly one per 2-hit block");
    assert_eq!(kmm_faults::fired("serve.handler.err"), 5);

    // Disarm before shutting down: the failpoint sits at route entry,
    // so an injected 500 on the shutdown request would leave the server
    // running and `join` below would never return.
    kmm_faults::disarm_all();
    http(addr, "POST", "/shutdown", "");
    server.join();
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // One worker (thread 0 accepts), queue capacity threads*4 = 8, and
    // every handled request stalls 300 ms at the slow failpoint — so a
    // burst of 30 concurrent requests must overflow the queue and the
    // overflow must be shed, not block the acceptor.
    let _armed = armed("serve.handler.slow=sleep300");
    let server = Server::start(
        test_index(),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..30)
            .map(|_| {
                scope.spawn(move || {
                    let (status, head, _) = http(addr, "GET", "/healthz", "");
                    (status, head)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let shed: Vec<_> = results.iter().filter(|(s, _)| *s == 429).collect();
    let served = results.iter().filter(|(s, _)| *s == 200).count();
    assert!(
        !shed.is_empty(),
        "burst of 30 against 1 slow worker never shed; statuses: {:?}",
        results.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
    assert!(served >= 1, "nothing was served at all");
    for (_, head) in &shed {
        assert!(
            head.contains("Retry-After:"),
            "429 without Retry-After: {head}"
        );
    }

    // Shedding is visible in metrics, and the acceptor never wedged:
    // this probe goes straight through once the burst drains.
    kmm_faults::disarm_all();
    let (status, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let shed_line = metrics
        .lines()
        .find(|l| l.starts_with("kmm_serve_shed_total"))
        .expect("kmm_serve_shed_total series");
    let count: u64 = shed_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(count as usize, shed.len());

    http(addr, "POST", "/shutdown", "");
    server.join();
}

#[test]
fn shutdown_drains_queued_requests() {
    // Slow handler, several queued requests, then a shutdown: every
    // already-accepted request still gets its response (drain), and the
    // server exits afterwards.
    let _armed = armed("serve.handler.slow=sleep100");
    let server = Server::start(
        test_index(),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    let summary = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || http(addr, "GET", "/healthz", "").0))
            .collect();
        // Give the burst a moment to be accepted and queued, then ask
        // for shutdown; the shutdown request itself queues behind them.
        std::thread::sleep(Duration::from_millis(50));
        let (status, _, _) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        for c in clients {
            assert_eq!(c.join().unwrap(), 200, "queued request dropped on drain");
        }
        server.join()
    });
    assert!(summary.contains("served"), "{summary}");
}

#[test]
fn index_load_failpoint_surfaces_as_cli_error() {
    let _armed = armed("index.load.io=err");
    let path = std::path::Path::new("/tmp/kmm-chaos-any.idx");
    let err = bwt_kmismatch::cli::load_index(path, false, &NoopRecorder)
        .expect_err("armed load must fail");
    assert!(
        err.to_string().contains("injected fault"),
        "unexpected error: {err}"
    );
}

#[test]
fn index_save_failpoint_leaves_no_tmp_and_keeps_the_old_index() {
    let dir = std::env::temp_dir().join("kmm-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let fa = dir.join("save.fa");
    let idx = dir.join("save.idx");
    let tmp = dir.join("save.idx.tmp");
    let _ = std::fs::remove_file(&idx);
    let _ = std::fs::remove_file(&tmp);

    bwt_kmismatch::cli::generate(
        bwt_kmismatch::dna::genome::ReferenceGenome::CMerolae,
        0.01,
        &fa,
    )
    .unwrap();

    // First save succeeds and leaves a loadable index.
    bwt_kmismatch::cli::index(&fa, &idx, 1).unwrap();
    let before = std::fs::read(&idx).unwrap();

    // Re-indexing with the save failpoint armed fails…
    {
        let _armed = armed("index.save.io=err");
        let err = bwt_kmismatch::cli::index(&fa, &idx, 1).expect_err("armed save must fail");
        assert!(err.to_string().contains("cannot save"), "{err}");
    }
    // …without leaving a temp file and without touching the old index:
    // the atomic rename never happened.
    assert!(!tmp.exists(), "failed save left {} behind", tmp.display());
    assert_eq!(
        std::fs::read(&idx).unwrap(),
        before,
        "failed re-index corrupted the existing index"
    );
    assert!(bwt_kmismatch::cli::load_index(&idx, false, &NoopRecorder).is_ok());
}

#[test]
fn bad_failpoint_specs_are_rejected_wholesale() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    kmm_faults::disarm_all();
    // One bad spec rejects the whole batch: nothing is half-armed.
    assert!(kmm_faults::arm("a=err;b=frobnicate").is_err());
    assert!(kmm_faults::armed_sites().is_empty());
    assert!(kmm_faults::arm("=err").is_err());
    assert!(kmm_faults::arm("site=1in0.err").is_err());
}

// ---------------------------------------------------------------------------
// Event-loop front end under load: connection-level chaos. These drive the
// nonblocking state machine with hundreds of concurrent keep-alive sockets
// while slow-loris peers, aborted uploads, and the `serve.conn.*` failpoints
// are all in play, and assert the deterministic counters that fall out.
// ---------------------------------------------------------------------------

/// Install a quiet process-global event log before the storm tests run:
/// they provoke thousands of access/shed events and the default stderr
/// log would drown the harness output.
fn quiet_log() {
    use bwt_kmismatch::telemetry::events::{self, EventLog};
    use bwt_kmismatch::telemetry::LogLevel;
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("kmm-chaos-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        events::init_global(
            EventLog::new(bwt_kmismatch::telemetry::LogLevel::Warn)
                .quiet()
                .with_json_sink(&path)
                .expect("json sink"),
        );
        let _ = LogLevel::Warn; // silence unused-import lint paths
    });
}

/// Scrape one `kmm_*` series value off `/metrics`.
fn metric(addr: SocketAddr, series: &str) -> u64 {
    // The scrape rides the same worker queue as every other request, so
    // mid-storm it can be shed with a 429 like the herd is: retry it.
    let mut attempts = 0;
    let body = loop {
        attempts += 1;
        let (status, _, body) = http(addr, "GET", "/metrics", "");
        match status {
            200 => break body,
            429 if attempts < 500 => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("/metrics answered {other} on attempt {attempts}: {body}"),
        }
    };
    body.lines()
        .find(|l| l.starts_with(series) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {series} series in /metrics"))
}

#[test]
fn storm_of_500_keepalive_conns_survives_loris_and_aborts() {
    // No failpoints armed, but the storm still holds the fault lock so a
    // concurrently scheduled chaos test cannot arm one mid-flight.
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    kmm_faults::disarm_all();
    quiet_log();

    const THREADS: usize = 16;
    const CONNS: usize = 32; // 16 * 32 = 512 held keep-alive connections
    const LORIS: usize = 12;
    const ABORTS: usize = 12;
    const ROUNDS: usize = 2;

    let idx = test_index();
    let server = Server::start(
        test_index(),
        ServeConfig {
            threads: 4,
            // The shed/retry churn below can burn hundreds of responses
            // per connection; the per-connection request budget must not
            // close the socket mid-storm (budget semantics have their
            // own tests in the serve suite).
            keep_alive_requests: 1_000_000,
            // Generous idle window: on a loaded single-core box the herd
            // phases themselves take seconds, and a held connection must
            // not be idle-evicted between its turns. The loris sockets
            // below are evicted on this same deadline, so the test's
            // tail latency is roughly this value.
            idle_timeout_ms: 12_000,
            max_conns: 2_048,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // Reference answer, fetched once before the storm: every concurrent
    // /search response must be byte-identical to it, and it must agree
    // with the single-threaded index answer.
    let pattern = bwt_kmismatch::dna::decode_string(&idx.text()[700..760]);
    let search = format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}");
    let (status, _, reference) = http(addr, "POST", "/search", &search);
    assert_eq!(status, 200, "{reference}");
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx
        .search(&encoded, 1, bwt_kmismatch::Method::ALGORITHM_A)
        .occurrences
        .len() as u64;
    assert_eq!(
        Json::parse(&reference)
            .unwrap()
            .get("count")
            .and_then(Json::as_u64),
        Some(want),
        "reference /search disagrees with the index"
    );

    // Slow-loris sockets: half a request line, then silence. They sit in
    // ReadingHeaders until the idle deadline evicts them with a 408.
    let mut loris: Vec<Conn> = (0..LORIS)
        .map(|_| {
            let mut s = Conn::connect(addr);
            s.send("GET /hea");
            s
        })
        .collect();
    // Aborted uploads: partial request, then the socket is dropped on the
    // floor. The server answers 400 into a dead socket and must shrug.
    for _ in 0..ABORTS {
        let mut s = TcpStream::connect(addr).expect("abort connect");
        let _ = s.write_all(b"POST /search HTTP/1.1\r\nContent-Length: 10\r\n");
        drop(s);
    }

    let healthz = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let search_req = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{search}",
        search.len()
    );
    let burst = format!("{healthz}{search_req}");
    let barrier = std::sync::Barrier::new(THREADS + 1);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (barrier, burst, reference) = (&barrier, &burst, &reference);
            scope.spawn(move || {
                // Phase A: open and warm this thread's share of the herd.
                let mut conns: Vec<Conn> = (0..CONNS)
                    .map(|_| {
                        let mut s = Conn::connect(addr);
                        // 512 near-simultaneous arrivals against a small
                        // dispatch queue: a transient 429 is the shed
                        // tier doing its job — retry on the same socket.
                        let mut attempts = 0;
                        loop {
                            attempts += 1;
                            assert!(attempts <= 500, "warm-up shed never cleared");
                            s.send(healthz);
                            let (status, _, body) = s.read_one();
                            match status {
                                200 => break,
                                429 => std::thread::sleep(Duration::from_millis(2)),
                                other => panic!("unexpected status {other}: {body}"),
                            }
                        }
                        s
                    })
                    .collect();
                barrier.wait(); // all 512 connections are open

                // Phase B: pipelined keep-alive bursts on every held
                // connection. A transient queue-full 429 is legitimate
                // load shedding — drain the pair and retry the burst.
                for _ in 0..ROUNDS {
                    for s in conns.iter_mut() {
                        let mut attempts = 0;
                        loop {
                            attempts += 1;
                            assert!(attempts <= 500, "queue shed never cleared");
                            s.send(burst);
                            let (s1, _, b1) = s.read_one();
                            let (s2, _, b2) = s.read_one();
                            if s1 == 429 || s2 == 429 {
                                std::thread::sleep(Duration::from_millis(2));
                                continue;
                            }
                            assert_eq!((s1, b1.as_str()), (200, "ok\n"));
                            assert_eq!(s2, 200, "{b2}");
                            assert_eq!(
                                &b2, reference,
                                "concurrent /search diverged from the reference answer"
                            );
                            break;
                        }
                    }
                }
                // Phase C: drop the herd (client-side FIN).
            });
        }

        // The herd is fully open and stays open through the burst phase
        // (every socket is held until its thread finishes), so the gauge
        // can be read while the storm rages.
        barrier.wait(); // all threads report their connections open
        let open = metric(addr, "kmm_serve_open_connections");
        assert!(
            open >= 500,
            "only {open} connections open at the top of the storm"
        );

        // Probe while the storm rages: a fresh connection must still get
        // through — no worker is pinned by a held or half-dead socket.
        std::thread::sleep(Duration::from_millis(30));
        let mut probe_status = 0;
        for _ in 0..200 {
            probe_status = http(addr, "GET", "/healthz", "").0;
            if probe_status == 200 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(probe_status, 200, "fresh connection starved mid-storm");
    });

    // Every loris socket is evicted with a 408 and a hard close — and
    // nothing else was stall-evicted, so the counter lands exactly on
    // the loris head-count.
    for s in loris.iter_mut() {
        let (status, head, _) = s.read_one();
        assert_eq!(status, 408, "loris connection not evicted");
        assert!(
            head.to_ascii_lowercase().contains("connection: close"),
            "{head}"
        );
        s.expect_eof();
    }
    assert_eq!(
        metric(addr, "kmm_serve_shed_stall_total"),
        LORIS as u64,
        "stall evictions != loris connections"
    );
    // 512 connections each served 1 warm-up + ROUNDS pipelined pairs:
    // at least 2*ROUNDS reuses per connection (retries only add more).
    let reuses = metric(addr, "kmm_serve_keepalive_reuses_total");
    assert!(
        reuses >= (THREADS * CONNS * 2 * ROUNDS) as u64,
        "keep-alive reuse undercounted: {reuses}"
    );

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let summary = server.join();
    assert!(summary.contains("served"), "{summary}");
}

#[test]
fn conn_stall_failpoint_evicts_exactly_one_per_block() {
    quiet_log();
    // `1in4` stalls exactly one accept per 4-connection block: the
    // stalled socket is admitted but never read, so the idle deadline
    // evicts it with a 408 — a synthetic slow-loris, deterministically.
    let _armed = armed("serve.conn.stall=1in4.err");
    let server = Server::start(
        test_index(),
        ServeConfig {
            threads: 2,
            idle_timeout_ms: 150,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    let mut evicted = 0;
    let mut served = 0;
    for _ in 0..40 {
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        match status {
            408 => evicted += 1,
            200 => served += 1,
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(evicted, 10, "1in4 is exactly one stall per 4-accept block");
    assert_eq!(served, 30);
    assert_eq!(kmm_faults::fired("serve.conn.stall"), 10);

    // Disarm before scraping metrics: the scrape is itself an accept.
    kmm_faults::disarm_all();
    assert_eq!(metric(addr, "kmm_serve_shed_stall_total"), 10);

    http(addr, "POST", "/shutdown", "");
    server.join();
}

#[test]
fn conn_reset_failpoint_drops_connections_at_accept() {
    quiet_log();
    // `1in3` resets exactly one accept per 3-connection block: the
    // socket is dropped on the floor before a single byte is read, so
    // the client sees an immediate EOF or ECONNRESET.
    let _armed = armed("serve.conn.reset=1in3.err");
    let server = Server::start(test_index(), ServeConfig::default()).expect("start");
    let addr = server.addr();

    let mut resets = 0;
    let mut served = 0;
    for _ in 0..30 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let sent = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        let mut buf = String::new();
        match sent.and_then(|()| s.read_to_string(&mut buf)) {
            Ok(_) if buf.is_empty() => resets += 1,
            Ok(_) => {
                assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
                served += 1;
            }
            Err(_) => resets += 1,
        }
    }
    assert_eq!(resets, 10, "1in3 is exactly one reset per 3-accept block");
    assert_eq!(served, 20);
    assert_eq!(kmm_faults::fired("serve.conn.reset"), 10);

    // The daemon itself never blinked.
    kmm_faults::disarm_all();
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    http(addr, "POST", "/shutdown", "");
    server.join();
}
