//! End-to-end tests for the `kmm serve` HTTP daemon, driven over real
//! sockets against an in-process server on an ephemeral port.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use bwt_kmismatch::bwt::{FmIndex, SectionTable};
use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::serve::{ServeConfig, Server};
use bwt_kmismatch::telemetry::events::{self, EventLog};
use bwt_kmismatch::telemetry::{Json, LogLevel};
use bwt_kmismatch::{KMismatchIndex, Method};
use common::{http, raw, Conn};

fn test_index() -> KMismatchIndex {
    KMismatchIndex::new(markov(8_000, &MarkovConfig::default(), 31))
}

/// All serve tests share one quiet JSON event log, installed by the
/// first test to start a server: server threads then never write to the
/// harness's stderr, and the access-log test can read the lines back.
fn event_log_path() -> &'static std::path::PathBuf {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("kmm-serve-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        events::init_global(
            EventLog::new(LogLevel::Debug)
                .quiet()
                .with_json_sink(&path)
                .expect("json sink"),
        );
        path
    })
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "GET", path, "");
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "POST", path, body);
    (status, body)
}

/// Decode a 60 bp probe from the indexed text so searches actually hit.
fn probe(idx: &KMismatchIndex, at: usize) -> String {
    bwt_kmismatch::dna::decode_string(&idx.text()[at..at + 60])
}

fn start(config: ServeConfig) -> (Server, KMismatchIndex) {
    event_log_path();
    let idx = test_index();
    let server = Server::start(test_index(), config).expect("server start");
    (server, idx)
}

#[test]
fn serves_health_stats_and_metrics() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = get(addr, "/stats.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("stats.json parses");
    assert!(doc.get("schema").and_then(Json::as_str).is_some());

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.lines().any(|l| l.starts_with("# TYPE ")), "{body}");
    assert!(body.contains("kmm_http_requests_total"), "{body}");
    // The earlier requests in this test are already accounted for.
    assert!(
        body.contains("kmm_http_requests_total{endpoint=\"/healthz\"} 1"),
        "{body}"
    );

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    let summary = server.join();
    assert!(summary.contains("served"), "{summary}");
}

#[test]
fn post_search_matches_direct_index_search() {
    let (server, idx) = start(ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    for at in [100usize, 500, 2000, 4000] {
        let pattern = probe(&idx, at);
        let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 2}}");
        let (status, response) = post(addr, "/search", &body);
        assert_eq!(status, 200, "{response}");
        let doc = Json::parse(&response).unwrap();

        let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
        let want = idx.search(&encoded, 2, Method::ALGORITHM_A);
        assert_eq!(
            doc.get("count").and_then(Json::as_u64),
            Some(want.occurrences.len() as u64)
        );
        let got: Vec<(u64, u64)> = doc
            .get("occurrences")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|o| {
                (
                    o.get("position").and_then(Json::as_u64).unwrap(),
                    o.get("mismatches").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(u64, u64)> = want
            .occurrences
            .iter()
            .map(|o| (o.position as u64, o.mismatches as u64))
            .collect();
        assert_eq!(got, want, "HTTP /search diverged from the library at {at}");
    }

    // The served queries populated the flight recorder.
    let (status, body) = get(addr, "/slow.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let queries = doc.get("slowest").and_then(Json::as_array).unwrap();
    assert!(!queries.is_empty(), "flight recorder saw no queries");

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn bidir_search_and_explain_default_over_mirrored_index() {
    event_log_path();
    let idx = test_index();
    let served = test_index();
    // Materialise the reverse-BWT mirror up front, as an index loaded
    // from a `kmm index --bidir` file would arrive.
    served.mirror();
    let server = Server::start(served, ServeConfig::default()).expect("server start");
    let addr = server.addr();

    // POST /search accepts method=bidir and matches the library.
    let pattern = probe(&idx, 700);
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 2, \"method\": \"bidir\"}}");
    let (status, response) = post(addr, "/search", &body);
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx.search(&encoded, 2, Method::Bidirectional);
    assert_eq!(
        doc.get("count").and_then(Json::as_u64),
        Some(want.occurrences.len() as u64)
    );

    // With the mirror resident, the default /explain comparison set
    // grows to include the bidirectional method.
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 2}}");
    let (status, response) = post(addr, "/explain", &body);
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    let labels: Vec<String> = doc
        .get("methods")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("method").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(labels.iter().any(|l| l == "Bidir"), "{labels:?}");

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn post_map_returns_alignments() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let read = probe(&idx, 1234);
    let (status, response) = post(addr, "/map", &format!("{{\"read\": \"{read}\"}}"));
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    // An error-free read sampled from the text maps uniquely to its origin.
    assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("unique"));
    let aligned = doc.get("alignments").and_then(Json::as_array).unwrap();
    assert!(aligned
        .iter()
        .any(|a| a.get("position").and_then(Json::as_u64) == Some(1234)));
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn bad_requests_get_4xx_not_a_wedge() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    assert_eq!(get(addr, "/no-such-route").0, 404);
    assert_eq!(get(addr, "/search").0, 405);
    assert_eq!(post(addr, "/search", "not json").0, 400);
    assert_eq!(post(addr, "/search", "{\"k\": 1}").0, 400);
    assert_eq!(
        post(addr, "/search", "{\"pattern\": \"QQQ\"}").0,
        400,
        "non-DNA pattern"
    );
    // The server is still healthy afterwards.
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn trace_json_exports_served_queries() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let pattern = probe(&idx, 600);
    post(addr, "/search", &format!("{{\"pattern\": \"{pattern}\"}}"));
    let (status, body) = get(addr, "/trace.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty(), "no spans exported for served queries");
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn post_without_content_length_gets_411() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    let (status, _, body) = raw(
        addr,
        "POST /search HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411, "{body}");
    // GETs without a length are fine, and the server is still healthy.
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn unparseable_content_length_gets_400() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    let (status, _, body) = raw(
        addr,
        "POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: banana\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

/// A valid `/search` body for the framing tests below: each sends it
/// under a header the server must refuse, and no `Connection: close`, so
/// `raw` returns only if the refusal closes the connection.
fn framing_body(idx: &KMismatchIndex) -> String {
    format!("{{\"pattern\": \"{}\", \"k\": 1}}", &probe(idx, 300)[..20])
}

#[test]
fn signed_content_length_gets_400() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let body = framing_body(&idx);
    let (status, _, reply) = raw(
        addr,
        &format!(
            "POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: +{}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 400, "{reply}");
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn conflicting_content_lengths_get_400() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let body = framing_body(&idx);
    let (status, _, reply) = raw(
        addr,
        &format!(
            "POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nContent-Length: 0\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("conflicting content-length"), "{reply}");
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn transfer_encoding_gets_501() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let body = framing_body(&idx);
    let (status, _, reply) = raw(
        addr,
        &format!(
            "POST /search HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 501, "{reply}");
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn malformed_header_lines_get_400() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let body = framing_body(&idx);
    // Whitespace before the colon must not hide a framing header, and a
    // line without a colon must not be skipped (RFC 9112 §5.1).
    for line in [
        "Transfer-Encoding : chunked",
        "Content-Length : 5",
        "no colon here",
    ] {
        let (status, _, reply) = raw(
            addr,
            &format!(
                "POST /search HTTP/1.1\r\nHost: test\r\n{line}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status, 400, "{line}: {reply}");
    }
    // A body behind an unrecognised length must not run as a second
    // request: one 400, then the connection closes (`raw` fails on any
    // byte after the first response).
    let smuggled = "GET /nope HTTP/1.1\r\nHost: test\r\n\r\n";
    let (status, _, reply) = raw(
        addr,
        &format!(
            "GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length : {}\r\n\r\n{smuggled}",
            smuggled.len()
        ),
    );
    assert_eq!(status, 400, "{reply}");
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn oversized_declared_body_gets_413_before_reading_it() {
    let (server, _idx) = start(ServeConfig {
        max_body_bytes: 1024,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Declare a 100 MB body but never send a byte of it: the refusal
    // must come from the declared length alone.
    let (status, _, body) = raw(
        addr,
        "POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: 104857600\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    // A request inside the cap still works.
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn expired_deadline_returns_504_with_truncated_marker() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let pattern = probe(&idx, 900);

    // timeout_ms 0 = already expired at entry: deterministic truncation.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"pattern\": \"{pattern}\", \"k\": 2, \"timeout_ms\": 0}}"),
    );
    assert_eq!(status, 504, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(true));
    assert!(doc.get("occurrences").and_then(Json::as_array).is_some());

    // Same for /map.
    let (status, body) = post(
        addr,
        "/map",
        &format!("{{\"read\": \"{pattern}\", \"timeout_ms\": 0}}"),
    );
    assert_eq!(status, 504, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(true));

    // A generous budget completes with the marker set to false and the
    // exact no-deadline results.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"pattern\": \"{pattern}\", \"k\": 2, \"timeout_ms\": 600000}}"),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(false));
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx.search(&encoded, 2, Method::ALGORITHM_A);
    assert_eq!(
        doc.get("count").and_then(Json::as_u64),
        Some(want.occurrences.len() as u64)
    );

    // The timeout is visible in the metrics.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("kmm_search_timeouts_total"),
        "search.timeouts series missing: {metrics}"
    );
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn server_side_default_timeout_applies_without_body_field() {
    let (server, idx) = start(ServeConfig {
        timeout_ms: Some(600_000),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let pattern = probe(&idx, 1500);
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}"),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    // The deadline path ran (marker present) but the budget was ample.
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(false));
    post(addr, "/shutdown", "");
    server.join();
}

/// A `/search` error body carries a `request_id`, and the server's
/// access log has a `serve.access` line with the same id and status —
/// the client-quoted id is enough to find the server-side record.
#[test]
fn search_error_response_id_matches_access_log_line() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = post(addr, "/search", "{\"k\": 1}");
    assert_eq!(status, 400, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("missing \"pattern\"")
    );
    let req_id = doc
        .get("request_id")
        .and_then(Json::as_str)
        .expect("request_id in error body")
        .to_string();
    assert!(req_id.starts_with("req-"), "{req_id}");

    post(addr, "/shutdown", "");
    server.join();

    let logged = std::fs::read_to_string(event_log_path()).expect("event log file");
    let mut matched = false;
    for line in logged.lines() {
        let Ok(event) = Json::parse(line) else {
            continue;
        };
        if event.get("target").and_then(Json::as_str) != Some("serve.access") {
            continue;
        }
        let Some(fields) = event.get("fields") else {
            continue;
        };
        if fields.get("request_id").and_then(Json::as_str) == Some(req_id.as_str()) {
            assert_eq!(fields.get("status").and_then(Json::as_str), Some("400"));
            assert_eq!(event.get("level").and_then(Json::as_str), Some("warn"));
            matched = true;
        }
    }
    assert!(matched, "no serve.access line for {req_id}:\n{logged}");
}

/// `/metrics` is shape-stable: endpoints that have served nothing still
/// expose their window gauges (zeros, percentile 0), the allocator
/// families are present, and every `# TYPE`d family has a `# HELP`.
#[test]
fn metrics_expose_idle_endpoints_and_memory_families() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // /map is idle, yet all its series are emitted.
    assert!(
        body.contains("kmm_http_window_requests{endpoint=\"/map\"} 0"),
        "{body}"
    );
    assert!(
        body.contains("kmm_http_window_errors{endpoint=\"/map\"} 0"),
        "{body}"
    );
    assert!(
        body.contains("kmm_http_latency_ns{endpoint=\"/map\",quantile=\"0.99\"} 0"),
        "{body}"
    );
    assert!(body.contains("# TYPE kmm_mem_live_bytes gauge"), "{body}");
    assert!(
        body.contains("kmm_mem_phase_allocated_bytes_total{mem_phase=\"serve\"}"),
        "{body}"
    );
    for line in body.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(
            body.contains(&format!("# HELP {name} ")),
            "no HELP for {name}"
        );
    }

    post(addr, "/shutdown", "");
    server.join();
}

/// `kmm serve --mmap` end to end: the daemon maps the index, names the
/// backing on its start-up line, and answers searches identically to
/// the in-memory path. A file with one flipped payload byte is refused
/// before the listener binds.
#[test]
fn serve_run_with_mmap_reports_load_mode_and_answers_match() {
    event_log_path();
    let idx = test_index();
    let dir = std::env::temp_dir().join(format!("kmm-serve-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx_path = dir.join("serve.idx");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&idx_path).unwrap());
    idx.fm().save(&mut w).unwrap();
    drop(w);
    let port_file = dir.join("serve.port");
    let _ = std::fs::remove_file(&port_file);

    let config = ServeConfig {
        prefer_mmap: true,
        port_file: Some(port_file.clone()),
        ..ServeConfig::default()
    };
    let handle = {
        let idx_path = idx_path.clone();
        std::thread::spawn(move || bwt_kmismatch::serve::run(&idx_path, config))
    };
    // `run` writes the ephemeral port once bound.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse() {
                break port;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "port file never appeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let pattern = probe(&idx, 400);
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}");
    let (status, response) = post(addr, "/search", &body);
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    let served: Vec<u64> = doc
        .get("occurrences")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|o| o.get("position").and_then(Json::as_u64))
        .collect();
    let direct: Vec<u64> = idx
        .search(
            &bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap(),
            1,
            Method::ALGORITHM_A,
        )
        .occurrences
        .iter()
        .map(|o| o.position as u64)
        .collect();
    assert_eq!(served, direct);

    post(addr, "/shutdown", "");
    handle.join().unwrap().unwrap();
    // On linux/x86_64 the map succeeds; elsewhere the open falls back
    // to reading the file.
    let logged = std::fs::read_to_string(event_log_path()).expect("event log file");
    let backing = if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        "mmap"
    } else {
        "read"
    };
    assert!(
        logged.lines().filter_map(|l| Json::parse(l).ok()).any(|e| {
            e.get("fields")
                .and_then(|f| f.get("load_mode"))
                .and_then(Json::as_str)
                == Some(backing)
        }),
        "no start-up line names {backing}:\n{logged}"
    );

    // The mapped open verifies every section checksum, as a read does.
    let mut bytes = std::fs::read(&idx_path).unwrap();
    let table = SectionTable::parse(&bytes, FmIndex::MAGIC).unwrap();
    let blocks = table.section(FmIndex::SEC_RANK_BLOCKS).unwrap();
    bytes[blocks.offset + blocks.len / 2] ^= 0x01;
    let bad_path = dir.join("flipped.idx");
    std::fs::write(&bad_path, &bytes).unwrap();
    let bad_port = dir.join("flipped.port");
    let config = ServeConfig {
        prefer_mmap: true,
        port_file: Some(bad_port.clone()),
        ..ServeConfig::default()
    };
    let err = bwt_kmismatch::serve::run(&bad_path, config).expect_err("a flipped byte is refused");
    assert!(err.to_string().contains("corrupt"), "{err}");
    assert!(!bad_port.exists(), "the listener bound before the check");
    std::fs::remove_dir_all(&dir).ok();
}

/// One unlabelled sample (`<series> <value>`) from a `/metrics` body.
fn sample(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {series} sample:\n{metrics}"))
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_socket() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    // 4 connections x 8 requests. No Connection header: HTTP/1.1
    // defaults to keep-alive; the last request on each socket closes it.
    for _ in 0..4 {
        let mut conn = Conn::connect(addr);
        for i in 0..8 {
            let (close, want) = if i == 7 {
                ("Connection: close\r\n", "Connection: close")
            } else {
                ("", "Connection: keep-alive")
            };
            conn.send(&format!(
                "GET /healthz HTTP/1.1\r\nHost: test\r\n{close}\r\n"
            ));
            let (status, head, body) = conn.read_one();
            assert_eq!((status, body.as_str()), (200, "ok\n"), "{head}");
            assert!(head.contains(want), "{head}");
        }
        // The close is real: the stream reaches EOF.
        conn.expect_eof();
    }

    // Every request after a socket's first is one reuse; nothing shed.
    let (_, metrics) = get(addr, "/metrics");
    for (series, want) in [
        ("kmm_serve_keepalive_reuses_total", 4 * 7),
        ("kmm_serve_shed_total", 0),
        ("kmm_serve_shed_tenant_total", 0),
        ("kmm_serve_shed_stall_total", 0),
    ] {
        assert_eq!(sample(&metrics, series), want, "{series}:\n{metrics}");
    }

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, idx) = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let pattern = probe(&idx, 700);
    let search = format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}");

    let mut conn = Conn::connect(addr);
    // Three requests in a single write; the last one closes.
    let burst = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{search}\
         GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        search.len()
    );
    conn.send(&burst);

    let (s1, _, b1) = conn.read_one();
    let (s2, _, b2) = conn.read_one();
    let (s3, _, b3) = conn.read_one();
    assert_eq!((s1, b1.as_str()), (200, "ok\n"));
    assert_eq!(s2, 200, "{b2}");
    let doc = Json::parse(&b2).unwrap();
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx.search(&encoded, 1, Method::ALGORITHM_A);
    assert_eq!(
        doc.get("count").and_then(Json::as_u64),
        Some(want.occurrences.len() as u64),
        "pipelined /search diverged"
    );
    assert_eq!((s3, b3.as_str()), (200, "ok\n"));
    conn.expect_eof();

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn worker_completions_wake_the_loop_at_once() {
    let (server, idx) = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let pattern = &probe(&idx, 1200)[..20];
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx
        .search(&encoded, 1, Method::ALGORITHM_A)
        .occurrences
        .len() as u64;
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}");
    let request = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let mut conn = Conn::connect(addr);
    let started = std::time::Instant::now();
    for i in 0..100 {
        conn.send(&request);
        let (status, _, reply) = conn.read_one();
        assert_eq!(status, 200, "request {i}: {reply}");
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(
            doc.get("count").and_then(Json::as_u64),
            Some(want),
            "request {i}"
        );
    }
    // Loose on purpose: a loop that waited out its 15 ms poll timeout
    // for every response would need ~1.5 s.
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(750),
        "100 requests took {took:?}"
    );

    let (_, metrics) = get(addr, "/metrics");
    assert!(sample(&metrics, "kmm_serve_handoff_ns_count") >= 100);
    assert!(sample(&metrics, "kmm_serve_queue_wait_ns_count") >= 100);

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn tenant_rate_limit_sheds_with_429() {
    let (server, _idx) = start(ServeConfig {
        tenant_rate: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // A burst of 5 as alice on one keep-alive connection. The bucket
    // holds 1 token (burst = rate = 1) and the burst ends long before
    // the next refill: the first request is admitted, the other four get
    // a 429 and the connection stays open.
    let mut alice = Conn::connect(addr);
    let statuses: Vec<u16> = (0..5)
        .map(|_| {
            alice.send("GET /healthz HTTP/1.1\r\nHost: t\r\nX-Kmm-Tenant: alice\r\n\r\n");
            let (status, head, _) = alice.read_one();
            assert!(status != 429 || head.contains("Retry-After:"), "{head}");
            status
        })
        .collect();
    assert_eq!(statuses, [200, 429, 429, 429, 429]);
    drop(alice);
    // bob's bucket is separate: admitted regardless of alice's burst.
    let (status, _, _) = raw(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Kmm-Tenant: bob\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);

    // The anonymous bucket is untouched, so its one token admits this.
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(sample(&metrics, "kmm_serve_shed_tenant_total"), 4);
    assert_eq!(sample(&metrics, "kmm_serve_keepalive_reuses_total"), 4);

    // /shutdown is control-plane: exempt from admission.
    assert_eq!(post(addr, "/shutdown", "").0, 200);
    server.join();
}

#[test]
fn slow_loris_connection_is_evicted_with_408() {
    let (server, _idx) = start(ServeConfig {
        idle_timeout_ms: 150,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Half a request line, then silence: the idle deadline must evict.
    let mut conn = Conn::connect(addr);
    conn.send("GET /healthz HTT");
    let (status, head, _) = conn.read_one();
    assert_eq!(status, 408, "{head}");
    conn.expect_eof();

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(sample(&metrics, "kmm_serve_shed_stall_total"), 1);

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn connections_past_max_conns_get_429_without_being_read() {
    let (server, _idx) = start(ServeConfig {
        max_conns: 8,
        // Held connections must not be reaped as idle mid-test.
        idle_timeout_ms: 30_000,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Eight served connections hold the cap.
    let mut held: Vec<Conn> = (0..8)
        .map(|_| {
            let mut conn = Conn::connect(addr);
            conn.send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(conn.read_one().0, 200);
            conn
        })
        .collect();

    // Each of three more is refused before it sends a byte.
    for _ in 0..3 {
        let mut extra = Conn::connect(addr);
        let (status, head, _) = extra.read_one();
        assert_eq!(status, 429, "{head}");
        assert!(head.contains("Retry-After:"), "{head}");
        extra.expect_eof();
    }

    // The held connections stay admitted: one reads the shed count,
    // then shuts the server down.
    let conn = &mut held[0];
    conn.send("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let (status, _, metrics) = conn.read_one();
    assert_eq!(status, 200);
    assert_eq!(sample(&metrics, "kmm_serve_shed_conns_total"), 3);
    conn.send(
        "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(conn.read_one().0, 200);
    server.join();
}

/// A header block over the 16 KiB cap is refused even when it arrives
/// in one write, and the connection closes; one under the cap is served.
#[test]
fn header_block_over_16_kib_gets_400() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    let request = |pad: usize| {
        format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(pad)
        )
    };

    let mut conn = Conn::connect(addr);
    conn.send(&request(20_000));
    let (status, _, body) = conn.read_one();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("headers too large"), "{body}");
    conn.expect_eof();

    let mut conn = Conn::connect(addr);
    conn.send(&request(15_000));
    let (status, _, body) = conn.read_one();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    post(addr, "/shutdown", "");
    server.join();
}

/// The connection/shed series are emitted from startup (zeros included):
/// a dashboard or alert never sees a disappearing series.
#[test]
fn serve_connection_counters_are_emitted_at_zero_from_startup() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    // The very first request: every serve series already exists.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "kmm_serve_keepalive_reuses_total 0",
        "kmm_serve_shed_tenant_total 0",
        "kmm_serve_shed_stall_total 0",
        "kmm_serve_shed_conns_total 0",
        "kmm_serve_shed_total 0",
        // This request's own connection is the one open connection.
        "kmm_serve_open_connections 1",
        "kmm_serve_conns_opened_total 1",
    ] {
        assert!(metrics.contains(series), "missing '{series}':\n{metrics}");
    }

    post(addr, "/shutdown", "");
    server.join();
}
