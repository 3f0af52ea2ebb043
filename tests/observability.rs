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
//! invocations in its `--stats` snapshot.

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

#[test]
fn a_cold_replayed_kernel_run_extrapolates_invocations() {
    // motion1/MOM replays a 16-instruction invocation 250 times: the
    // pipeline state repeats long before the end, so the engine jumps.
    let out = Command::new(env!("CARGO_BIN_EXE_momsim"))
        .args([
            "--cold",
            "--stats",
            "run",
            "--kernels",
            "motion1",
            "--isas",
            "mom",
        ])
        .output()
        .expect("momsim runs");
    assert!(out.status.success(), "momsim run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let extrapolated: u64 = stdout
        .lines()
        .find_map(|line| line.strip_prefix("momsim_timing_invocations_extrapolated_total "))
        .expect("the --stats snapshot names the extrapolation counter")
        .trim()
        .parse()
        .expect("a counter value");
    assert!(
        extrapolated > 0,
        "a cold motion1/MOM run must jump over steady-state periods"
    );
}
