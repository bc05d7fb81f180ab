//! Smoke test of the benchmark itself at a tiny genome scale: every
//! workload runs in both modes, prints exactly the metrics
//! `BENCHMARK.json` names with their units, passes its answer checks,
//! writes a spans file when traced, and leaves no daemon running.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use kmm_telemetry::Json;

/// The `kmm` binary next to the benchmark's, built there if missing.
fn kmm_binary(bin_dir: &Path) -> PathBuf {
    let kmm = bin_dir.join("kmm");
    if !kmm.is_file() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("Cargo.toml");
        let target = bin_dir
            .parent()
            .expect("binaries live in <target>/<profile>");
        let mut cargo = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        cargo.args([
            "build",
            "--quiet",
            "--offline",
            "--bin",
            "kmm",
            "--manifest-path",
        ]);
        cargo.arg(&manifest).arg("--target-dir").arg(target);
        if bin_dir.ends_with("release") {
            cargo.arg("--release");
        }
        assert!(
            cargo.status().expect("cargo runs").success(),
            "building kmm failed"
        );
    }
    kmm
}

/// `(name, unit)` of every metric of one list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let bin_dir = exe.parent().expect("binary directory").to_path_buf();
    let kmm = kmm_binary(&bin_dir);
    let work = bin_dir.join("perfbench-smoke");
    for workload in ["map-reads", "serve-probes", "scan-repeats"] {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--scale",
                    "0.003",
                ])
                .arg("--kmm")
                .arg(&kmm)
                .arg("--work-dir")
                .arg(&work)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = format!(
                "{workload} --trace {trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");
            let mut lines = stdout.lines().rev();
            let result = Json::parse(lines.next().expect("result line")).expect("result is JSON");
            let run = Json::parse(lines.next().expect("run line")).expect("run line is JSON");

            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{context}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{name}: {context}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            let mut want = declared(list);
            let mut got_sorted = got.clone();
            want.sort();
            got_sorted.sort();
            assert_eq!(got_sorted, want, "{context}");

            let run = run.get("run").expect("run object");
            for pid in run
                .get("daemon_pids")
                .and_then(Json::as_array)
                .expect("daemon pids")
            {
                let pid = pid.as_u64().expect("pid");
                assert!(
                    !Path::new(&format!("/proc/{pid}")).exists(),
                    "daemon {pid} outlived {workload}"
                );
            }
            if trace == "1" {
                let spans = run
                    .get("spans_file")
                    .and_then(Json::as_str)
                    .expect("spans file");
                let doc = Json::parse(&std::fs::read_to_string(spans).expect("spans file exists"))
                    .expect("spans are JSON");
                let events = doc
                    .get("traceEvents")
                    .and_then(Json::as_array)
                    .expect("trace events");
                assert!(events.len() > 10, "{context}");
            }
        }
    }
}
