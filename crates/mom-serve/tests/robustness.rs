//! Fault-tolerance suite: supervised workers retry injected panics to
//! success, exhausted retries fail the job with unit coordinates (each
//! unit of a failed claim its own), a worker outlives a compute thread a
//! deadline abandoned, the
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
fn a_failed_claim_fails_each_unit_with_its_own_coordinates() {
    let _serial = serial();
    private_store_dir();

    // Both widths share one trace, so one claim fails: every attempt
    // panics, and each unit's error names its own point.  No other test
    // stores these widths, so neither is answered at submit time.
    faults::install(FaultPlan::new(24).with_site(FaultSite::WorkerPanic, 1.0, None));
    let daemon = Daemon::with_options(1, 4, fast_supervision());
    let outcome = daemon.submit(grid("claim-exhausted", &[3, 7])).unwrap();
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    let injected = faults::injected_count(FaultSite::WorkerPanic);
    faults::clear();

    assert_eq!(snapshot.state, JobState::Failed);
    assert_eq!((snapshot.failed, snapshot.errors.len()), (2, 2));
    assert_eq!(injected, 4, "one per attempt of the one claim");
    for width in [3, 7] {
        let coordinates = format!(
            "{}/{}/way{width}",
            KernelId::AddBlock.name(),
            IsaKind::Mom.name()
        );
        let error = snapshot
            .errors
            .iter()
            .find(|error| error.contains(&coordinates))
            .unwrap_or_else(|| panic!("no error names {coordinates}: {:?}", snapshot.errors));
        assert!(
            error.contains("after 4 attempts") && error.contains("panicked"),
            "the error shows the attempt count and cause: {error}"
        );
    }
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn a_worker_recovers_from_an_abandoned_compute_thread() {
    let _serial = serial();
    private_store_dir();

    // The first attempt stalls past the deadline: its compute thread is
    // abandoned and, with no retries, the job fails.
    let mut plan = FaultPlan::new(25).with_site(FaultSite::WorkerDelay, 1.0, Some(1));
    plan.delay = Duration::from_millis(500);
    faults::install(plan);
    let daemon = Daemon::with_options(
        1,
        4,
        Supervision {
            retries: 0,
            deadline: Duration::from_millis(50),
            ..fast_supervision()
        },
    );
    let stalled = daemon.submit(grid("stalled", &[9])).unwrap();
    let snapshot = daemon.wait(stalled.job).expect("job exists");
    assert_eq!(snapshot.state, JobState::Failed);
    let error = snapshot.errors.first().expect("a failed-point message");
    assert!(
        error.contains("deadline") && error.contains("after 1 attempt"),
        "{error}"
    );

    // The next job on that worker runs on a fresh compute thread.
    let next = daemon.submit(grid("after-abandon", &[10])).unwrap();
    let snapshot = daemon.wait(next.job).expect("job exists");
    faults::clear();
    assert_eq!(
        snapshot.state,
        JobState::Done,
        "errors: {:?}",
        snapshot.errors
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
fn recovery_never_reissues_a_journaled_job_id() {
    let _serial = serial();
    private_store_dir();
    // A journal whose only job already ended: nothing is re-admitted, yet
    // its id stays taken, so a client still polling job 5 never reads a
    // new job's rows.
    let ended = [
        Record::Submit {
            job: 5,
            body: r#"{"kernels": ["addblock"], "isas": ["mom"], "widths": [4], "replication": 64}"#
                .to_string(),
        },
        Record::JobEnd {
            job: 5,
            state: "done".to_string(),
        },
    ];
    let daemon = Daemon::with_options(0, 4, fast_supervision());
    let (summary, _) = journal::recover(&daemon, &ended);
    assert_eq!((summary.jobs, summary.jobs_skipped), (0, 1));
    let next = daemon.submit(grid("after-recovery", &[2])).unwrap();
    assert_eq!(next.job, 6, "the journaled id 5 is not issued again");
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn a_torn_journal_append_hides_no_later_record() {
    let _serial = serial();
    let path =
        std::env::temp_dir().join(format!("mom-serve-robust-torn-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let records: Vec<Record> = (0..4)
        .map(|job| Record::Submit {
            job,
            body: format!("{{\"experiment\": \"fig4\", \"n\": {job}}}"),
        })
        .collect();
    {
        let (journal, _) = Journal::open(&path).unwrap();
        // The first append tears twice (the write and its retry) and is
        // dropped; the appends after it land where its torn bytes were.
        faults::install(FaultPlan::new(28).with_site(FaultSite::StoreWrite, 1.0, Some(2)));
        for record in &records {
            journal.append(record);
        }
        let injected = faults::injected_count(FaultSite::StoreWrite);
        faults::clear();
        assert_eq!(injected, 2, "journal appends fire the store-write site");
        journal.commit();
    }
    let (_, replayed) = Journal::open(&path).unwrap();
    assert_eq!(replayed, records[1..], "every record after the torn one");
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

#[test]
fn wait_wakes_on_cancel_and_drain() {
    let _serial = serial();
    private_store_dir();
    // Zero workers: the jobs stay queued until something ends them.
    let daemon = Daemon::new(0, 4);
    let waiter = |job| {
        let daemon = std::sync::Arc::clone(&daemon);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let snapshot = daemon.wait(job).expect("job exists");
            let _ = tx.send((snapshot.state, std::time::Instant::now()));
        });
        rx
    };
    let cancelled = daemon
        .submit(grid("cancel-me", &[5]))
        .expect("queue has room");
    let drained = daemon
        .submit(grid("drain-me", &[6]))
        .expect("queue has room");
    assert_eq!((cancelled.scheduled, drained.scheduled), (1, 1));
    let (on_cancel, on_drain) = (waiter(cancelled.job), waiter(drained.job));
    std::thread::sleep(Duration::from_millis(20));

    let start = std::time::Instant::now();
    assert!(daemon.cancel(cancelled.job));
    let (state, woke) = on_cancel
        .recv_timeout(Duration::from_secs(5))
        .expect("wait must wake on a cancel");
    assert_eq!(state, JobState::Cancelled);
    let lag = woke.saturating_duration_since(start);
    assert!(
        lag < Duration::from_millis(10),
        "wait saw the cancel after {lag:?}"
    );

    let start = std::time::Instant::now();
    daemon.shutdown();
    let (state, woke) = on_drain
        .recv_timeout(Duration::from_secs(5))
        .expect("wait must wake on a drain");
    assert_eq!(state, JobState::Cancelled);
    let lag = woke.saturating_duration_since(start);
    assert!(
        lag < Duration::from_millis(10),
        "wait saw the drain after {lag:?}"
    );
}

#[test]
fn submit_wait_returns_when_its_job_ends_not_on_a_poll_tick() {
    let _serial = serial();
    private_store_dir();
    // Every compute attempt stalls 10 ms, so the job is still running
    // when `submit --wait` first asks about it.
    let mut plan = FaultPlan::new(41).with_site(FaultSite::WorkerDelay, 1.0, None);
    plan.delay = Duration::from_millis(10);
    faults::install(plan);
    let daemon = Daemon::with_options(1, 4, fast_supervision());
    let server = serve_with(std::sync::Arc::clone(&daemon), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let policy = RetryPolicy::default();

    // The long poll rejects a query it cannot parse.
    for query in ["wait=soon", "wait=-1", "linger=5"] {
        let (status, doc) =
            request_json_with(&addr, "GET", &format!("/jobs/0?{query}"), None, &policy)
                .expect("daemon answers");
        assert_eq!(status, 400, "?{query}: {}", doc.pretty());
    }

    // A small cold grid: a seed no other test uses.
    let args: Vec<String> = [
        "--addr",
        &addr,
        "--kernels",
        "addblock",
        "--isas",
        "mom",
        "--widths",
        "3",
        "--replication",
        "64",
        "--seed",
        "4141",
        "--wait",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let submitter = std::thread::spawn(move || {
        let result = mom_serve::cli::submit_command(&args);
        (result, std::time::Instant::now())
    });
    let ended = loop {
        let finished = daemon
            .job_ids()
            .first()
            .and_then(|&job| daemon.status(job))
            .is_some_and(|snapshot| snapshot.state != JobState::Running);
        if finished {
            break std::time::Instant::now();
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let (result, returned) = submitter.join().expect("submitter");
    faults::clear();
    result.expect("the job finishes done");
    let lag = returned.saturating_duration_since(ended);
    assert!(
        lag < Duration::from_millis(30),
        "submit --wait returned {lag:?} after its job ended"
    );
    let (status, _) = request_json_with(&addr, "POST", "/shutdown", None, &policy).expect("drain");
    assert_eq!(status, 200);
    server.join();
}
