//! Smoke test of the benchmark itself: a one-second run of every
//! workload prints every metric `BENCHMARK.json` names, with its unit, and
//! a tampered committed report is caught as a failed operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mom_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a test directory");
    dir
}

/// Runs one tiny benchmark and returns its parsed result line.
fn run(workload: &str, trace: bool, expected_dir: &Path, state: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--expected-dir")
        .arg(expected_dir)
        .arg("--state-dir")
        .arg(state)
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    mom_serve::json::parse(last).expect("the last line is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = mom_serve::json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_reports(result: &Json, section: &str) {
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared(section) {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            metric.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let state = fresh_dir("smoke-state");
    for workload in ["sweep-cold", "service-mix"] {
        let result = run(workload, false, &repo_root(), &state);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_reports(&result, "end_to_end");
        let traced = run(workload, true, &repo_root(), &state);
        assert_eq!(
            traced.get("correct"),
            Some(&Json::Bool(true)),
            "{workload} traced"
        );
        assert_reports(&traced, "per_layer");
    }
}

#[test]
fn a_tampered_committed_report_counts_as_failed() {
    let expected = fresh_dir("tampered-reports");
    for file in ["fig4", "fig5", "tables", "apps", "ablations"] {
        let name = format!("BENCH_{file}.json");
        std::fs::copy(repo_root().join(&name), expected.join(&name)).expect("copy a report");
    }
    let fig5 = expected.join("BENCH_fig5.json");
    let text = std::fs::read_to_string(&fig5).expect("read fig5");
    std::fs::write(
        &fig5,
        text.replacen(
            "\"cycles_per_invocation\": ",
            "\"cycles_per_invocation\": 1",
            1,
        ),
    )
    .expect("tamper");
    let result = run("sweep-cold", false, &expected, &fresh_dir("tampered-state"));
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0);
}
