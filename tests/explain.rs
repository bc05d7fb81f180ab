//! EXPLAIN determinism, end to end: the `kmm explain` CLI must print
//! byte-identical output when a query is rerun (its verdict comes from
//! deterministic counters, never wall-clock), arming
//! the explain recorder must not perturb search results, and the serve
//! surface (`POST /explain`, `GET /dashboard`) must work over real
//! sockets.

mod common;

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use bwt_kmismatch::dna::genome::{markov, MarkovConfig, ReferenceGenome};
use bwt_kmismatch::serve::{ServeConfig, Server};
use bwt_kmismatch::telemetry::events::{self, EventLog};
use bwt_kmismatch::telemetry::{ExplainRecorder, Json, LogLevel};
use bwt_kmismatch::{cli, KMismatchIndex, Method};
use common::http;

/// One saved CMerolae index (plus a probe pattern read from its genome),
/// shared by every CLI subprocess test in this binary.
fn cli_fixture() -> &'static (PathBuf, String) {
    static FIXTURE: OnceLock<(PathBuf, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("kmm-explain-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("ref.fa");
        let idx = dir.join("ref.idx");
        cli::generate(ReferenceGenome::CMerolae, 0.02, &fa).unwrap();
        cli::index(&fa, &idx, 2).unwrap();
        // cli::generate writes generate_scaled(scale) verbatim, so the
        // same call reproduces the indexed text for probe extraction.
        let genome = ReferenceGenome::CMerolae.generate_scaled(0.02);
        let probe = bwt_kmismatch::dna::decode_string(&genome[200..250]);
        (idx, probe)
    })
}

/// Run the real `kmm` binary and return its stdout.
fn kmm(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kmm"))
        .args(args)
        .arg("--quiet")
        .output()
        .expect("spawn kmm");
    assert!(
        out.status.success(),
        "kmm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn explain_json_is_byte_identical_across_reruns() {
    let (idx, probe) = cli_fixture();
    let idx = idx.to_str().unwrap();
    let json_args = [
        "explain",
        "--index",
        idx,
        "--pattern",
        probe,
        "-k",
        "2",
        "--json",
    ];
    let reference = kmm(&json_args);
    // The report parses and carries the explain schema.
    let doc = Json::parse(&reference).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("kmm-explain/v1")
    );
    assert!(doc.get("verdict").is_some());
    // A rerun must not move a byte: the verdict never reads a clock.
    assert_eq!(reference, kmm(&json_args));
    // The human table is deterministic too.
    let table_args = &json_args[..json_args.len() - 1];
    let table = kmm(table_args);
    assert!(table.contains("EXPLAIN pattern="), "{table}");
    assert!(table.contains("verdict:"), "{table}");
    assert_eq!(table, kmm(table_args));
}

/// `-j N` means `--threads N` where a command takes threads; where it
/// does not, the refusal names the flag as typed.
#[test]
fn dash_j_is_refused_by_its_own_name_where_threads_are_not_taken() {
    let (idx, probe) = cli_fixture();
    let idx = idx.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_kmm"))
        .args(["explain", "--index", idx, "--pattern", probe, "-j", "2"])
        .arg("--quiet")
        .output()
        .expect("spawn kmm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("unknown flag -j "), "{stderr}");
    assert!(!stderr.contains("--threads"), "{stderr}");
    let search = ["search", "--index", idx, "--pattern", probe, "-j", "2"];
    assert!(!kmm(&search).is_empty());
}

#[test]
fn arming_explain_does_not_perturb_search_results() {
    let genome = markov(6_000, &MarkovConfig::default(), 47);
    let index = KMismatchIndex::new(genome.clone());
    let pattern = genome[1_500..1_560].to_vec();
    for k in [0usize, 1, 3] {
        for method in [
            Method::Bwt { use_phi: true },
            Method::ALGORITHM_A,
            Method::Kangaroo,
        ] {
            let plain = index.search(&pattern, k, method);
            let armed = index.search_recorded(&pattern, k, method, &ExplainRecorder::new());
            assert_eq!(
                armed.occurrences,
                plain.occurrences,
                "k={k} {}: occurrence lists diverged under explain",
                method.label()
            );
            assert_eq!(
                armed.stats,
                plain.stats,
                "k={k} {}: counters diverged under explain",
                method.label()
            );
        }
    }
}

#[test]
fn explain_report_agrees_with_plain_search() {
    let genome = markov(6_000, &MarkovConfig::default(), 47);
    let index = KMismatchIndex::new(genome.clone());
    let pattern = genome[2_000..2_050].to_vec();
    let methods = [Method::Bwt { use_phi: true }, Method::ALGORITHM_A];
    let report = index.explain(&pattern, 2, &methods);
    assert_eq!(report.methods.len(), 2);
    for (cost, &method) in report.methods.iter().zip(&methods) {
        let plain = index.search(&pattern, 2, method);
        assert_eq!(cost.occurrences, plain.occurrences.len() as u64);
    }
}

#[test]
fn serve_explain_and_dashboard_end_to_end() {
    // Keep server threads off the harness stderr.
    events::init_global(EventLog::new(LogLevel::Warn).quiet());
    let genome = markov(8_000, &MarkovConfig::default(), 31);
    let pattern = bwt_kmismatch::dna::decode_string(&genome[3_000..3_040]);
    let index = KMismatchIndex::new(genome);
    let server = Server::start(index, ServeConfig::default()).expect("server start");
    let addr = server.addr();

    // The dashboard is one self-contained HTML document.
    let (status, head, body) = http(addr, "GET", "/dashboard", "");
    assert_eq!(status, 200);
    assert!(head.contains("text/html"), "{head}");
    assert!(body.starts_with("<!DOCTYPE html>"), "not HTML: {body:.60}");
    for endpoint in ["/stats.json", "/slow.json", "/explain"] {
        assert!(body.contains(endpoint), "dashboard never uses {endpoint}");
    }

    // POST /explain with the default method set: BWT vs Algorithm A,
    // plus Bidir because an index built from text carries the mirror.
    let req = format!("{{\"pattern\": \"{pattern}\", \"k\": 2}}");
    let (status, _, body) = http(addr, "POST", "/explain", &req);
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("kmm-explain/v1")
    );
    let methods = doc.get("methods").and_then(Json::as_array).unwrap();
    let labels: Vec<&str> = methods
        .iter()
        .map(|m| m.get("method").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(labels, ["BWT", "A(.)", "Bidir"]);
    for m in methods {
        assert!(m.get("work_units").and_then(Json::as_u64).unwrap() > 0);
        assert!(!m.get("depths").and_then(Json::as_array).unwrap().is_empty());
    }

    // An explicit methods list is honoured.
    let req = format!("{{\"pattern\": \"{pattern}\", \"k\": 1, \"methods\": [\"a\"]}}");
    let (status, _, body) = http(addr, "POST", "/explain", &req);
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    let methods = doc.get("methods").and_then(Json::as_array).unwrap();
    assert_eq!(methods.len(), 1);
    assert_eq!(
        methods[0].get("method").and_then(Json::as_str),
        Some("A(.)")
    );

    // Bad requests are 400s with a request id, and GET is a 405.
    let (status, _, body) = http(addr, "POST", "/explain", "{\"k\": 2}");
    assert_eq!(status, 400);
    assert!(body.contains("pattern"), "{body}");
    let (status, _, body) = http(
        addr,
        "POST",
        "/explain",
        "{\"pattern\": \"ACGT\", \"methods\": []}",
    );
    assert_eq!(status, 400, "{body}");
    let (status, _, _) = http(addr, "GET", "/explain", "");
    assert_eq!(status, 405);

    // The same explain request twice is byte-identical over the wire.
    let req = format!("{{\"pattern\": \"{pattern}\", \"k\": 2}}");
    let (_, _, first) = http(addr, "POST", "/explain", &req);
    let (_, _, second) = http(addr, "POST", "/explain", &req);
    assert_eq!(first, second);

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join();
}
