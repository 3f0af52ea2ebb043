//! Observability must be free: with span tracing enabled, a warm sweep
//! still performs **zero** functional executions and **zero** timing
//! simulations and emits byte-identical report documents — and the
//! Chrome trace export is well-formed JSON the workspace's own parser
//! accepts, with the expected event shape.
//!
//! The store is pointed at a private temp directory before anything
//! touches the process-global instance.
//!
//! The steady-state fast-forward of the timing engine must stay switched
//! on: a cold `momsim run` of a many-invocation kernel reports extrapolated
//! invocations in its `--stats` snapshot and steps fewer entries than it
//! replays, while a single-invocation run steps every entry.
//!
//! A `--stats` snapshot reports the trace cache's resident bytes, and the
//! store's disk gauges only when the store was on.

use momsim::bench::cli::sweep_documents;
use momsim::serve::json::parse;
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn private_store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mom-observability-{}", std::process::id()));
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir.clone()),
            cold: false,
        })
        .expect("configure must run before the first store use");
        dir
    })
}

fn rendered_sweep() -> Vec<(String, String)> {
    sweep_documents(None)
        .expect("sweep must succeed")
        .into_iter()
        .map(|(name, doc, _points)| (name.to_string(), doc.pretty()))
        .collect()
}

#[test]
fn tracing_is_neutral_and_the_chrome_export_is_well_formed() {
    let dir = private_store_dir();
    let store = mom_store::global();
    assert_eq!(store.dir(), Some(dir.as_path()), "private store in effect");
    store.clear().expect("start from a cold store");

    // --- Cold sweep with tracing off: fills the store. ---
    let cold = rendered_sweep();

    // --- Warm sweep with tracing on: still zero recomputation, same bytes. ---
    momsim::obs::enable_tracing();
    let functional_before = momsim::kernels::functional_executions();
    let timing_before = momsim::pipeline::timing_simulations();
    let warm = rendered_sweep();
    assert_eq!(
        momsim::kernels::functional_executions(),
        functional_before,
        "a traced warm sweep must not execute any kernel functionally"
    );
    assert_eq!(
        momsim::pipeline::timing_simulations(),
        timing_before,
        "a traced warm sweep must not run any timing simulation"
    );
    assert_eq!(cold, warm, "tracing must not change a single report byte");
    assert!(
        momsim::obs::trace_event_count() > 0,
        "the warm sweep's store reads must record spans"
    );

    // --- The export is valid JSON in the Chrome trace-event shape. ---
    let exported = momsim::obs::export_chrome_trace();
    let doc = parse(&exported).expect("the Chrome trace export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(momsim::bench::json::Json::as_arr)
        .expect("traceEvents must be an array");
    assert!(!events.is_empty(), "the trace must contain events");
    for event in events {
        assert_eq!(
            event.get("ph").and_then(momsim::bench::json::Json::as_str),
            Some("X"),
            "every event is a complete (X) event: {event:?}"
        );
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(event.get(key).is_some(), "event missing {key}: {event:?}");
        }
        let ts = event.get("ts").and_then(momsim::bench::json::Json::as_u64);
        assert!(ts.is_some(), "ts must be a non-negative integer: {event:?}");
    }
    // The sweep-level spans fire regardless of cache state, so the sweep
    // category must be represented even on a fully warm sweep.
    assert!(
        events.iter().any(|event| {
            event.get("cat").and_then(momsim::bench::json::Json::as_str) == Some("sweep")
        }),
        "sweep spans must appear in the trace"
    );

    let _ = std::fs::remove_dir_all(dir);
}

/// A cold `momsim --stats run` of one kernel on one ISA (the default 4-way
/// machine): the `--stats` metric snapshot, and the committed instruction
/// count and invocation count of the single grid point, read from its
/// `--json` report.
fn cold_run(kernel: &str, isa: &str) -> (Vec<(String, u64)>, u64, u64) {
    let json = std::env::temp_dir().join(format!(
        "mom-observability-{}-{kernel}-{isa}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_momsim"))
        .args([
            "--cold",
            "--stats",
            "run",
            "--kernels",
            kernel,
            "--isas",
            isa,
        ])
        .arg("--json")
        .arg(&json)
        .output()
        .expect("momsim runs");
    assert!(out.status.success(), "momsim run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let counters = stdout
        .lines()
        .filter(|line| line.starts_with("momsim_"))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect();
    let report = std::fs::read_to_string(&json).expect("the --json report is written");
    let _ = std::fs::remove_file(&json);
    let doc = parse(&report).expect("the report parses");
    let points = doc
        .get("points")
        .and_then(momsim::bench::json::Json::as_arr)
        .expect("a points array");
    assert_eq!(points.len(), 1, "one kernel, one ISA, one configuration");
    let field = |name: &str| {
        points[0]
            .get(name)
            .and_then(momsim::bench::json::Json::as_u64)
            .unwrap_or_else(|| panic!("the point has {name}"))
    };
    (counters, field("instructions"), field("invocations"))
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, value)| value)
        .unwrap_or_else(|| panic!("the --stats snapshot names {name}"))
}

#[test]
fn a_cold_replayed_kernel_run_extrapolates_invocations() {
    // motion1/MOM replays a 16-instruction invocation 250 times: the
    // pipeline state repeats long before the end, so the engine jumps and
    // steps only part of the replayed stream.
    let (counters, instructions, _) = cold_run("motion1", "mom");
    assert!(
        counter(&counters, "momsim_timing_invocations_extrapolated_total") > 0,
        "a cold motion1/MOM run must jump over steady-state periods"
    );
    let stepped = counter(&counters, "momsim_timing_entries_stepped_total");
    assert!(
        0 < stepped && stepped < instructions,
        "motion1/MOM steps {stepped} of {instructions} replayed entries"
    );
    assert!(counter(&counters, "momsim_timing_cycles_stepped_total") > 0);
}

#[test]
fn a_single_invocation_run_steps_every_entry() {
    // ltppar/Alpha is one long invocation: nothing repeats, so every
    // replayed entry goes through the stepped path.
    let (counters, instructions, _) = cold_run("ltppar", "alpha");
    assert_eq!(
        counter(&counters, "momsim_timing_invocations_extrapolated_total"),
        0
    );
    assert_eq!(
        counter(&counters, "momsim_timing_entries_stepped_total"),
        instructions
    );
    assert!(counter(&counters, "momsim_timing_cycles_stepped_total") > 0);
}

#[test]
fn the_trace_cache_gauge_reports_at_most_16_bytes_an_entry() {
    // One cold run resolves exactly one trace: motion1/MOM's walk.
    let (metrics, instructions, invocations) = cold_run("motion1", "mom");
    let entries = instructions / invocations;
    let bytes = counter(&metrics, "momsim_trace_cache_bytes");
    assert!(
        0 < bytes && bytes <= 16 * entries,
        "{bytes} resident bytes for a {entries}-entry trace"
    );
}

/// Whether `momsim [store flags] --stats run --kernels idct --isas mom`
/// prints a store disk gauge.
fn prints_disk_gauges(store_flags: &[&str]) -> bool {
    let out = Command::new(env!("CARGO_BIN_EXE_momsim"))
        .args(store_flags)
        .args(["--stats", "run", "--kernels", "idct", "--isas", "mom"])
        .output()
        .expect("momsim runs");
    assert!(out.status.success(), "momsim run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout
        .lines()
        .any(|line| line.starts_with("momsim_store_disk_"))
}

#[test]
fn a_cold_snapshot_says_the_store_was_off() {
    assert!(
        !prints_disk_gauges(&["--cold"]),
        "a --cold run must not report a disk footprint"
    );
    let dir = std::env::temp_dir().join(format!("mom-observability-gauges-{}", std::process::id()));
    let store = dir.to_str().expect("a UTF-8 temp path");
    assert!(
        prints_disk_gauges(&["--store", store]),
        "a store-on run reports its disk footprint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
