//! Fault-tolerance suite: supervised workers retry injected panics to
//! success, exhausted retries fail the job with unit coordinates, the
//! crash journal re-admits unfinished jobs recomputing only lost units,
//! slow clients get 408, injected accept faults are ridden out by the
//! client's retry policy, and the blocking accept loop neither delays
//! requests nor outlives `POST /shutdown`.
//!
//! The fault plane and the artifact store are process-global, so every
//! test serialises on one mutex and clears its fault plan before
//! returning.

use mom_bench::ExperimentSpec;
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::PipelineConfig;
use mom_serve::client::{request_json_with, RetryPolicy};
use mom_serve::journal::{self, Journal, Record};
use mom_serve::queue::{JobState, Supervision};
use mom_serve::wire::JobRequest;
use mom_serve::{serve_with, serve_with_timeout, Daemon};
use mom_store::faults::{self, FaultPlan, FaultSite};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn private_store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mom-serve-robust-{}", std::process::id()));
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir.clone()),
            cold: false,
        })
        .expect("configure must run before the first store use");
        dir
    })
}

/// One kernel, one ISA, one point per width — the cheapest honest grid.
fn spec(widths: &[usize]) -> ExperimentSpec {
    ExperimentSpec {
        kernels: vec![KernelId::AddBlock],
        isas: vec![IsaKind::Mom],
        configs: widths.iter().map(|&w| PipelineConfig::way(w)).collect(),
        replication: 64,
        ..ExperimentSpec::default()
    }
}

fn grid(label: &str, widths: &[usize]) -> JobRequest {
    JobRequest::Grid {
        label: label.to_string(),
        spec: spec(widths),
    }
}

/// Tight supervision so retry tests finish in milliseconds.
fn fast_supervision() -> Supervision {
    Supervision {
        retries: 3,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        deadline: Duration::from_secs(120),
    }
}

#[test]
fn injected_worker_panics_are_retried_to_success() {
    let _serial = serial();
    private_store_dir();

    // The first two attempts panic (budget 2); the third succeeds.
    faults::install(FaultPlan::new(21).with_site(FaultSite::WorkerPanic, 1.0, Some(2)));
    let daemon = Daemon::with_options(1, 4, fast_supervision());
    let outcome = daemon.submit(grid("retry-to-success", &[2])).unwrap();
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    let injected = faults::injected_count(FaultSite::WorkerPanic);
    faults::clear();

    assert_eq!(
        snapshot.state,
        JobState::Done,
        "errors: {:?}",
        snapshot.errors
    );
    assert_eq!(injected, 2, "both budgeted panics fired before success");
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn exhausted_retries_fail_the_job_with_unit_coordinates() {
    let _serial = serial();
    private_store_dir();

    // Every attempt panics: 1 try + 3 retries, then the unit fails.
    faults::install(FaultPlan::new(22).with_site(FaultSite::WorkerPanic, 1.0, None));
    let daemon = Daemon::with_options(1, 4, fast_supervision());
    let outcome = daemon.submit(grid("retries-exhausted", &[4])).unwrap();
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    let injected = faults::injected_count(FaultSite::WorkerPanic);
    faults::clear();

    assert_eq!(snapshot.state, JobState::Failed);
    assert_eq!(injected, 4, "one per attempt");
    let error = snapshot.errors.first().expect("a failed-point message");
    let coordinates = format!("{}/{}/way4", KernelId::AddBlock.name(), IsaKind::Mom.name());
    assert!(
        error.contains(&coordinates),
        "the error names the failed point: {error}"
    );
    assert!(
        error.contains("after 4 attempts") && error.contains("panicked"),
        "the error shows the attempt count and cause: {error}"
    );
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn journal_recovery_requeues_only_the_lost_units() {
    let _serial = serial();
    private_store_dir();

    // Make the width-8 point durable, simulating a unit that finished
    // before the crash.
    let warm = Daemon::new(1, 4);
    let done = warm.submit(grid("pre-crash", &[8])).unwrap();
    assert_eq!(
        warm.wait(done.job).expect("job exists").state,
        JobState::Done
    );
    warm.shutdown();
    warm.join_workers();

    // A journal holding one accepted-but-unfinished two-point submission
    // (widths 8 and 16) — what a daemon killed right after the 202 leaves.
    let path = std::env::temp_dir().join(format!(
        "mom-serve-robust-journal-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let submission = Record::Submit {
        job: 5,
        body: r#"{"kernels": ["addblock"], "isas": ["mom"], "widths": [8, 16], "replication": 64}"#
            .to_string(),
    };
    {
        let (journal, _) = Journal::open(&path).unwrap();
        journal.append(&submission);
    }

    // Recovery into a zero-worker daemon: the stored width-8 point is
    // answered from the store, only the lost width-16 point is requeued.
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), 1);
    let daemon = Daemon::with_options(0, 4, fast_supervision());
    let (summary, live) = journal::recover(&daemon, &records);
    assert_eq!(summary.jobs, 1);
    assert_eq!(summary.jobs_skipped, 0);
    assert_eq!(summary.units_done, 1, "width 8 came from the store");
    assert_eq!(summary.units_requeued, 1, "width 16 was genuinely lost");
    let snapshot = daemon.snapshot(5).expect("recovered under its own id");
    assert_eq!(snapshot.state, JobState::Running);
    assert_eq!(snapshot.completed, 1);

    // The still-live submission survives compaction; new jobs get ids
    // after the recovered one.
    assert_eq!(live.len(), 1);
    journal.compact(&live);
    drop(journal);
    let (_, replayed) = Journal::open(&path).unwrap();
    assert_eq!(replayed, vec![submission.clone()]);
    let next = daemon.submit(grid("post-recovery", &[8])).unwrap();
    assert_eq!(next.job, 6, "ids continue past the recovered job");
    daemon.shutdown();
    daemon.join_workers();

    // A journal whose job also has a JobEnd record is skipped entirely.
    let ended = vec![
        submission,
        Record::JobEnd {
            job: 5,
            state: "done".to_string(),
        },
    ];
    let fresh = Daemon::with_options(0, 4, fast_supervision());
    let (summary, live) = journal::recover(&fresh, &ended);
    assert_eq!(summary.jobs, 0);
    assert_eq!(summary.jobs_skipped, 1);
    assert!(live.is_empty());
    assert!(fresh.snapshot(5).is_none(), "nothing re-admitted");
    fresh.shutdown();
    fresh.join_workers();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journaled_sampled_submission_is_skipped_and_the_rest_recovers() {
    let _serial = serial();
    private_store_dir();
    // A journal written before the sampled axis was removed: one sampled
    // submission next to a plain one, neither finished.
    let path = std::env::temp_dir().join(format!(
        "mom-serve-robust-sampled-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let (journal, _) = Journal::open(&path).unwrap();
        journal.append(&Record::Submit {
            job: 3,
            body: r#"{"kernels": ["addblock"], "isas": ["mom"], "widths": [4], "replication": 64, "sampled": true}"#
                .to_string(),
        });
        journal.append(&Record::Submit {
            job: 4,
            body: r#"{"kernels": ["addblock"], "isas": ["mom"], "widths": [2], "replication": 64}"#
                .to_string(),
        });
    }
    let (_, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), 2);
    let daemon = Daemon::with_options(0, 4, fast_supervision());
    let (summary, live) = journal::recover(&daemon, &records);
    assert_eq!(summary.jobs, 1, "only the plain job is re-admitted");
    assert!(daemon.snapshot(3).is_none(), "the sampled job is skipped");
    assert!(daemon.snapshot(4).is_some(), "the plain job is back");
    assert!(
        live.iter()
            .all(|record| matches!(record, Record::Submit { job: 4, .. })),
        "compaction keeps no sampled submission: {live:?}"
    );
    daemon.shutdown();
    daemon.join_workers();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_stalled_request_head_gets_408() {
    let _serial = serial();
    let server = serve_with_timeout(Daemon::new(0, 1), "127.0.0.1:0", Duration::from_millis(150))
        .expect("bind an ephemeral port");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    // Half a request line, then silence: the peer is slow, not gone.
    stream.write_all(b"GET /healthz HTT").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408 Request Timeout"),
        "a stalled head draws 408: {response:?}"
    );
    assert!(
        response.contains("timed out"),
        "the body says what happened: {response:?}"
    );
    // The daemon is unharmed: a full request still answers.
    let policy = RetryPolicy::default();
    let (status, _) = request_json_with(&addr.to_string(), "GET", "/healthz", None, &policy)
        .expect("healthz after the timeout");
    assert_eq!(status, 200);
}

#[test]
fn injected_accept_faults_are_ridden_out_by_client_retries() {
    let _serial = serial();
    let server = serve_with(Daemon::new(0, 1), "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr().to_string();

    // The first connection is accepted and dropped on the floor; the
    // client's first retry gets through.
    faults::install(FaultPlan::new(23).with_site(FaultSite::HttpAccept, 1.0, Some(1)));
    let policy = RetryPolicy {
        retries: 2,
        backoff: Duration::from_millis(10),
        timeout: Duration::from_secs(10),
    };
    let result = request_json_with(&addr, "GET", "/healthz", None, &policy);
    let injected = faults::injected_count(FaultSite::HttpAccept);
    faults::clear();

    let (status, doc) = result.expect("the retry must get through");
    assert_eq!(status, 200, "{doc}");
    assert_eq!(injected, 1, "exactly the budgeted accept fault fired");
}

#[test]
fn join_returns_promptly_after_shutdown() {
    let _serial = serial();
    // The accept loop blocks in `accept`; the shutdown route must wake it,
    // also when the daemon listens on the wildcard address.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = serve_with(Daemon::new(0, 1), bind).expect("bind an ephemeral port");
        let addr = format!("127.0.0.1:{}", server.addr().port());
        let policy = RetryPolicy::default();
        let (status, _) = request_json_with(&addr, "POST", "/shutdown", None, &policy)
            .expect("shutdown must answer");
        assert_eq!(status, 200);
        let (done, joined) = std::sync::mpsc::channel();
        let start = std::time::Instant::now();
        std::thread::spawn(move || {
            server.join();
            let _ = done.send(());
        });
        joined
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("join on {bind} must return after POST /shutdown"));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "join on {bind} took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn idle_round_trips_do_not_wait_for_a_poll_tick() {
    let _serial = serial();
    let server = serve_with(Daemon::new(0, 1), "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr().to_string();
    let policy = RetryPolicy::default();
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let start = std::time::Instant::now();
            let (status, _) = request_json_with(&addr, "GET", "/healthz", None, &policy)
                .expect("healthz must answer");
            assert_eq!(status, 200);
            start.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median GET /healthz round trip on an idle daemon is {median:?} (sorted: {rtts:?})"
    );
    let (status, _) =
        request_json_with(&addr, "POST", "/shutdown", None, &policy).expect("shutdown");
    assert_eq!(status, 200);
    server.join();
}
