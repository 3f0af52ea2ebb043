//! Cross-job dedup under concurrency: two overlapping grids submitted
//! from two threads must perform each shared point's timing simulation
//! **exactly once**, counter-asserted, and a worker claims every queued
//! point of one trace at once.  The assertions ride on
//! process-global counters and the process-global store, so the tests
//! serialise on one mutex.

use mom_bench::json::Json;
use mom_bench::ExperimentSpec;
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::PipelineConfig;
use mom_serve::client::request_json;
use mom_serve::queue::{JobState, UnitResult};
use mom_serve::wire::JobRequest;
use mom_serve::{serve_with, Daemon};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn private_store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mom-serve-dedup-{}", std::process::id()));
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir.clone()),
            cold: false,
        })
        .expect("configure must run before the first store use");
        dir
    })
}

/// Two kernels on one ISA, one point per width, at `seed`.
fn grid(widths: &[usize], seed: u64) -> JobRequest {
    JobRequest::Grid {
        label: format!("widths-{widths:?}"),
        spec: ExperimentSpec {
            kernels: vec![KernelId::AddBlock, KernelId::Motion1],
            isas: vec![IsaKind::Mom],
            configs: widths.iter().map(|&w| PipelineConfig::way(w)).collect(),
            replication: 64,
            seed,
        },
    }
}

#[test]
fn overlapping_jobs_simulate_each_shared_point_once() {
    let _serial = serial();
    private_store_dir();
    mom_store::global().clear().expect("start cold");

    // Job A covers widths {2, 4}, job B widths {4, 8}: 2 kernels x 1 ISA
    // each, so 8 submitted points over 6 unique coordinates (the two
    // width-4 points are shared).
    let daemon = Daemon::new(2, 8);
    let timing_before = mom_pipeline::timing_simulations();
    let functional_before = mom_kernels::functional_executions();

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        [&[2usize, 4][..], &[4, 8][..]]
            .into_iter()
            .map(|widths| {
                let daemon = &daemon;
                scope.spawn(move || {
                    daemon
                        .submit(grid(widths, mom_bench::EXPERIMENT_SEED))
                        .expect("both submissions fit the queue")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("submitter thread"))
            .collect()
    });

    let mut scheduled_total = 0;
    for outcome in &outcomes {
        assert_eq!(outcome.total, 4, "2 kernels x 1 ISA x 2 widths");
        assert_eq!(
            outcome.scheduled + outcome.deduped + outcome.shared,
            outcome.total,
            "every unit is accounted for: {outcome:?}"
        );
        let snapshot = daemon.wait(outcome.job).expect("job exists");
        assert_eq!(
            snapshot.state,
            JobState::Done,
            "errors: {:?}",
            snapshot.errors
        );
        assert_eq!(snapshot.completed, 4, "all four points delivered");
        scheduled_total += outcome.scheduled;
    }
    // Exactly the 6 unique coordinates entered the queue — the overlap was
    // deduplicated at submit time regardless of submission interleaving.
    assert_eq!(scheduled_total, 6, "outcomes: {outcomes:?}");
    assert_eq!(
        mom_pipeline::timing_simulations() - timing_before,
        6,
        "one timing simulation per unique point, none repeated"
    );
    // The functional run is shared process-wide per (kernel, ISA, seed):
    // two kernels, one ISA.
    assert_eq!(
        mom_kernels::functional_executions() - functional_before,
        2,
        "one functional execution per (kernel, ISA) pair"
    );

    daemon.shutdown();
    daemon.join_workers();
}

/// A worker claims every queued point of one trace and times them as one
/// fan-out: one worker computes 2 kernels x 3 widths in 2 claims, not 6,
/// and the rows equal the in-process grid run's.
#[test]
fn a_worker_claims_every_queued_point_of_a_trace() {
    let _serial = serial();
    private_store_dir();
    // A seed of its own, so every point is computed here.
    let request = grid(&[2, 4, 8], 13);
    let JobRequest::Grid { spec, .. } = &request else {
        unreachable!("grid() builds a grid request")
    };
    let spec = spec.clone();
    let claims = mom_obs::histogram(
        "momsim_serve_unit_compute_seconds",
        "Wall time one worker spent computing one claim.",
    );
    let claims_before = claims.count();
    let daemon = Daemon::new(1, 8);
    let outcome = daemon.submit(request).expect("queue has room");
    assert_eq!(outcome.scheduled, 6);
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    assert_eq!(
        snapshot.state,
        JobState::Done,
        "errors: {:?}",
        snapshot.errors
    );
    assert_eq!(
        claims.count() - claims_before,
        2,
        "one claim per (kernel, ISA) trace"
    );

    let grid = {
        let _cold = mom_store::bypass_guard();
        spec.run().expect("in-process grid")
    };
    assert_eq!(snapshot.rows.len(), grid.points.len());
    for (index, row) in &snapshot.rows {
        let UnitResult::Point(got) = row else {
            panic!("row {index} is not a grid point")
        };
        let want = &grid.points[*index];
        assert_eq!(
            (got.kernel, got.isa, got.width),
            (want.kernel, want.isa, want.width)
        );
        assert_eq!(got.result, want.result, "row {index}");
        assert_eq!(got.stats, want.stats, "row {index}");
        assert_eq!(got.invocations, want.invocations, "row {index}");
    }
    daemon.shutdown();
    daemon.join_workers();
}

/// The store is the daemon's only copy of a result: a finished point it
/// lost is computed again, and only a job's final snapshot reads results.
#[test]
fn finished_rows_come_from_the_store_alone() {
    let _serial = serial();
    private_store_dir();
    mom_store::global().clear().expect("start cold");
    let store = mom_store::global();
    // A seed of its own: the other test's functional runs, which outlive
    // a store clear, must not answer these points.
    let seed = 7;
    let daemon = Daemon::new(1, 8);
    let rows = |job| {
        let snapshot = daemon.wait(job).expect("job exists");
        assert_eq!(snapshot.state, JobState::Done, "{:?}", snapshot.errors);
        let doc = mom_serve::wire::job_doc(&snapshot);
        doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len)
    };
    let first = daemon.submit(grid(&[2, 4], seed)).expect("queue has room");
    assert_eq!((first.scheduled, rows(first.job)), (4, Some(4)));
    // While the store holds the results, a resubmission reads them back.
    let timing_before = mom_pipeline::timing_simulations();
    let warm = daemon.submit(grid(&[2, 4], seed)).expect("queue has room");
    assert_eq!((warm.deduped, rows(warm.job)), (4, Some(4)));
    assert_eq!(mom_pipeline::timing_simulations(), timing_before);
    // Once the store has lost them, the finished units run again.
    store.clear().expect("drop every result");
    let again = daemon.submit(grid(&[2, 4], seed)).expect("queue has room");
    assert_eq!((again.scheduled, rows(again.job)), (4, Some(4)));
    assert_eq!(mom_pipeline::timing_simulations() - timing_before, 4);
    daemon.shutdown();
    daemon.join_workers();

    // A zero-worker daemon keeps a job running: its width-2 points are
    // stored, its width-8 points stay queued.
    let parked = Daemon::new(0, 8);
    let server = serve_with(Arc::clone(&parked), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let outcome = parked.submit(grid(&[2, 8], seed)).expect("queue has room");
    assert_eq!((outcome.deduped, outcome.scheduled), (2, 2));
    let before = store.counters(mom_store::NS_RESULT);
    let waiter = {
        let parked = Arc::clone(&parked);
        std::thread::spawn(move || parked.wait(outcome.job))
    };
    for _ in 0..6 {
        let (status, _) = request_json(&addr, "GET", "/jobs", None).expect("listing");
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        store.counters(mom_store::NS_RESULT),
        before,
        "neither the listing nor the waiting loop reads a result"
    );
    // Ending the job releases the waiter, whose one snapshot reads the
    // two stored rows from the memory tier.
    assert!(parked.cancel(outcome.job));
    let snapshot = waiter.join().expect("waiter").expect("job exists");
    assert_eq!(
        (snapshot.state, snapshot.rows.len()),
        (JobState::Cancelled, 2)
    );
    let mut expected = before;
    expected.memory_hits += 2;
    assert_eq!(store.counters(mom_store::NS_RESULT), expected);
    assert_eq!(
        request_json(&addr, "POST", "/shutdown", None)
            .expect("drain")
            .0,
        200
    );
    server.join();
}

/// A job counted and journalled as finished stays finished: losing its
/// rows from the store and resubmitting its grid re-queues the shared
/// units for the new job only.
#[test]
fn a_finished_job_never_reopens() {
    let _serial = serial();
    private_store_dir();
    mom_store::global().clear().expect("start cold");
    // A long stream, so the recompute is still running when the old job
    // is looked at.
    let spec = ExperimentSpec {
        kernels: vec![KernelId::Motion1],
        isas: vec![IsaKind::Mom],
        configs: vec![PipelineConfig::way(4)],
        replication: 400_000,
        seed: 11,
    };
    let request = || JobRequest::Grid {
        label: "long".to_string(),
        spec: spec.clone(),
    };
    let daemon = Daemon::new(1, 8);
    let first = daemon.submit(request()).expect("queue has room");
    assert_eq!(daemon.wait(first.job).expect("job").state, JobState::Done);
    mom_store::global().clear().expect("drop every result");
    let again = daemon.submit(request()).expect("queue has room");
    assert_eq!(again.scheduled, 1, "the lost point is computed again");
    assert_eq!(
        daemon.status(again.job).expect("job").state,
        JobState::Running
    );
    assert_eq!(
        daemon.status(first.job).expect("job").state,
        JobState::Done,
        "the finished job keeps its recorded state"
    );
    assert_eq!(daemon.wait(again.job).expect("job").state, JobState::Done);
    assert_eq!(daemon.status(first.job).expect("job").state, JobState::Done);
    daemon.shutdown();
    daemon.join_workers();
}
