//! The deduplicating job queue and its worker pool.
//!
//! The unit of scheduling is one content-addressed [`WorkUnit`] — a single
//! grid point ([`mom_bench::schedule::PointJob`]) or the composite
//! application-speedup scenario.  Submissions subscribe to units by key:
//! a point already in the store is answered at submit time without
//! touching the pool, a point another job is already computing is shared
//! rather than recomputed, and only genuinely new points enter the queue.
//! Workers drain the queue through the same store-fronted fill paths the
//! batch sweep uses, so every computed unit lands in the persistent store.
//!
//! The store is the daemon's only result cache: a unit records its
//! status, never its payload, and [`Daemon::snapshot`] reads each finished
//! row back from the store when a job document is rendered.  The daemon
//! therefore needs an active store ([`crate::serve`](fn@crate::serve) refuses to start
//! without one).
//!
//! Lock discipline: the queue lock may be held while reading the store
//! (submit-time dedup), and the store's internal locks are never held
//! while acquiring the queue lock — workers compute with no lock held.

use crate::journal::{Journal, Record, RecoverySummary};
use crate::wire::JobRequest;
use mom_bench::schedule::PointJob;
use mom_bench::{schedule, store, ExperimentPoint, ExperimentSpec};
use mom_kernels::KernelError;
use mom_pipeline::PipelineConfig;
use mom_store::faults::{self, FaultSite};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn jobs_submitted_counter() -> &'static mom_obs::Counter {
    static COUNTER: OnceLock<mom_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_serve_jobs_submitted_total",
            "Jobs accepted by the daemon.",
        )
    })
}

fn jobs_completed_counter(state: JobState) -> mom_obs::Counter {
    mom_obs::counter_with(
        "momsim_serve_jobs_completed_total",
        "Jobs that reached a terminal state.",
        &[("state", state.name())],
    )
}

fn units_counter(disposition: &str) -> mom_obs::Counter {
    mom_obs::counter_with(
        "momsim_serve_units_total",
        "Work units by submit-time disposition.",
        &[("disposition", disposition)],
    )
}

fn unit_retries_counter() -> &'static mom_obs::Counter {
    static COUNTER: OnceLock<mom_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_unit_retries_total",
            "Unit compute attempts retried after a transient failure.",
        )
    })
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn compute_seconds_histogram() -> &'static mom_obs::Histogram {
    static HISTOGRAM: OnceLock<mom_obs::Histogram> = OnceLock::new();
    HISTOGRAM.get_or_init(|| {
        mom_obs::histogram(
            "momsim_serve_unit_compute_seconds",
            "Wall time one worker spent computing one unit.",
        )
    })
}

/// A monotonically increasing job identifier.
pub type JobId = u64;

/// One content-addressed unit of work.
#[derive(Debug, Clone)]
pub enum WorkUnit {
    /// A single grid point.
    Point(Box<PointJob>),
    /// The application-speedup scenario (all apps, one config).
    Apps {
        /// The machine configuration of the scenario.
        config: Box<PipelineConfig>,
        /// Workload seed.
        seed: u64,
        /// Frames per application.
        frames: usize,
    },
}

impl WorkUnit {
    /// The unit's content hash — its dedup identity.
    pub fn key(&self) -> mom_store::Key {
        match self {
            WorkUnit::Point(job) => job.key(),
            WorkUnit::Apps {
                config,
                seed,
                frames,
            } => store::apps_key(config, *seed, *frames),
        }
    }

    /// The finished result, **if** the persistent store already holds it.
    pub fn cached(&self) -> Option<UnitResult> {
        match self {
            WorkUnit::Point(job) => job.cached().map(|p| UnitResult::Point(Box::new(p))),
            WorkUnit::Apps {
                config,
                seed,
                frames,
            } => store::cached_app_speedups(config, *seed, *frames).map(UnitResult::Apps),
        }
    }

    /// Computes the unit through the store-fronted fill path, classifying
    /// any failure as transient (worth a retry) or permanent.
    pub fn compute(&self) -> Result<UnitResult, ComputeError> {
        match self {
            WorkUnit::Point(job) => job
                .compute()
                .map(|p| UnitResult::Point(Box::new(p)))
                .map_err(|e| ComputeError {
                    // Execution faults can be environmental (an injected
                    // fault, a torn store write); program validation and
                    // output mismatches are deterministic.
                    transient: matches!(e, KernelError::Exec { .. }),
                    message: e.to_string(),
                }),
            WorkUnit::Apps {
                config,
                seed,
                frames,
            } => store::stored_app_speedups(config, *seed, *frames)
                .map(UnitResult::Apps)
                .map_err(|e| ComputeError {
                    transient: matches!(
                        &e,
                        mom_apps::AppError::Phase {
                            source: KernelError::Exec { .. },
                            ..
                        }
                    ),
                    message: e.to_string(),
                }),
        }
    }

    /// Human-readable coordinates for failure messages
    /// (`kernel/isa/wayN` for a grid point).
    pub fn describe(&self) -> String {
        match self {
            WorkUnit::Point(job) => format!(
                "{}/{}/way{}",
                job.kernel.name(),
                job.isa.name(),
                job.config.width
            ),
            WorkUnit::Apps { .. } => "app-speedups".to_string(),
        }
    }
}

/// Why one unit compute attempt failed, and whether retrying can help.
#[derive(Debug)]
pub struct ComputeError {
    /// Human-readable failure description.
    pub message: String,
    /// `true` when the failure may not repeat (an execution fault, an
    /// injected fault, a panic, a deadline); `false` for deterministic
    /// failures (invalid program, output mismatch, bad spec).
    pub transient: bool,
}

/// A finished unit's payload: what the store holds under its key.
#[derive(Debug)]
pub enum UnitResult {
    /// A single grid point.
    Point(Box<ExperimentPoint>),
    /// The application-speedup table.
    Apps(Vec<mom_apps::AppSpeedup>),
}

#[derive(Debug)]
enum UnitStatus {
    Queued,
    Running,
    /// Finished successfully; the result is in the store.
    Done,
    Failed(String),
}

#[derive(Debug)]
struct Unit {
    payload: WorkUnit,
    status: UnitStatus,
    subscribers: Vec<JobId>,
    /// When the unit entered the queue (unset for store-answered units).
    enqueued_at: Option<Instant>,
    /// Time spent queued before a worker claimed it.
    wait_nanos: u64,
    /// Time a worker spent computing it.
    compute_nanos: u64,
}

/// What a job asked for (kept for rendering its document).
#[derive(Debug, Clone)]
pub enum JobKind {
    /// A grid of points, in plan order.
    Grid(ExperimentSpec),
    /// The application-speedup scenario.
    Apps,
}

#[derive(Debug)]
struct Job {
    label: String,
    kind: JobKind,
    keys: Vec<mom_store::Key>,
    cancelled: bool,
    /// The terminal state `record_finished_jobs` counted and journalled:
    /// once set it is the job's state for good, even if a later
    /// submission re-queues one of its units.
    ended: Option<JobState>,
    deduped: usize,
    shared: usize,
    scheduled: usize,
    /// Submit-time dedup cost (store lookups under the queue lock).
    dedup_nanos: u64,
}

#[derive(Debug, Default)]
struct State {
    next_job: JobId,
    jobs: BTreeMap<JobId, Job>,
    /// Jobs not yet counted into `momsim_serve_jobs_completed_total`.
    /// Every transition that can end a job is followed by
    /// `record_finished_jobs`, so these are exactly the jobs still owed
    /// work by the pool: the queue limit counts them without reading
    /// any finished job.
    open: BTreeSet<JobId>,
    units: HashMap<mom_store::Key, Unit>,
    queue: VecDeque<mom_store::Key>,
    running: usize,
    shutting_down: bool,
}

impl State {
    fn subscriber_alive(&self, unit: &Unit) -> bool {
        unit.subscribers
            .iter()
            .any(|id| self.jobs.get(id).is_some_and(|job| !job.cancelled))
    }

    /// A job's current state: the recorded terminal state of a finished
    /// job, else derived from its units' statuses.
    fn derive_state(&self, job: &Job) -> JobState {
        if let Some(state) = job.ended {
            return state;
        }
        let (mut pending, mut dropped, mut failed) = (0, 0, 0);
        for key in &job.keys {
            match self.units.get(key).map(|unit| &unit.status) {
                Some(UnitStatus::Done) => {}
                Some(UnitStatus::Failed(_)) => failed += 1,
                Some(UnitStatus::Queued | UnitStatus::Running) => pending += 1,
                None => dropped += 1,
            }
        }
        if job.cancelled || dropped > 0 {
            JobState::Cancelled
        } else if pending > 0 {
            JobState::Running
        } else if failed > 0 {
            JobState::Failed
        } else {
            JobState::Done
        }
    }

    /// Counts newly terminal jobs into `momsim_serve_jobs_completed_total`,
    /// once each, and returns them so the caller can journal their
    /// `JobEnd` records.  Called after every transition that can finish a
    /// job (submit-time full dedup, a worker completion, cancel, drain).
    fn record_finished_jobs(&mut self) -> Vec<(JobId, JobState)> {
        let finished: Vec<(JobId, JobState)> = self
            .open
            .iter()
            .map(|id| (*id, self.derive_state(&self.jobs[id])))
            .filter(|(_, state)| *state != JobState::Running)
            .collect();
        for (id, state) in &finished {
            self.open.remove(id);
            if let Some(job) = self.jobs.get_mut(id) {
                job.ended = Some(*state);
            }
            jobs_completed_counter(*state).inc();
        }
        finished
    }

    /// Drops queued keys no live job wants any more (after a cancellation
    /// or a shutdown), removing their units.  Returns how many were
    /// dropped.
    fn prune_queue(&mut self, drop_all: bool) -> usize {
        let queued = std::mem::take(&mut self.queue);
        let mut dropped = 0;
        for key in queued {
            let wanted = !drop_all
                && self
                    .units
                    .get(&key)
                    .is_some_and(|unit| self.subscriber_alive(unit));
            if wanted {
                self.queue.push_back(key);
            } else {
                self.units.remove(&key);
                dropped += 1;
            }
        }
        dropped
    }
}

/// The accepted-submission summary returned by [`Daemon::submit`].
#[derive(Debug, Clone, Copy)]
pub struct SubmitOutcome {
    /// The new job's identifier.
    pub job: JobId,
    /// Units the job refers to in total.
    pub total: usize,
    /// Units newly scheduled on the pool.
    pub scheduled: usize,
    /// Units answered from the persistent store at submit time.
    pub deduped: usize,
    /// Units shared with other in-flight jobs.
    pub shared: usize,
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded job queue is full (HTTP 429).
    Busy {
        /// Jobs currently owed work.
        active: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The daemon is draining (HTTP 503).
    ShuttingDown,
    /// The submission is invalid (HTTP 400).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { active, limit } => {
                write!(f, "queue full: {active} active jobs (limit {limit})")
            }
            SubmitError::ShuttingDown => f.write_str("daemon is shutting down"),
            SubmitError::Invalid(m) => f.write_str(m),
        }
    }
}

/// A job's terminal or in-flight state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Units are still queued or running.
    Running,
    /// Every unit finished successfully.
    Done,
    /// At least one unit failed.
    Failed,
    /// The job was cancelled (queued units were dropped).
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A point-in-time view of one job.
#[derive(Debug)]
pub struct JobSnapshot {
    /// The job's identifier.
    pub id: JobId,
    /// The submission's label.
    pub label: String,
    /// What the job asked for.
    pub kind: JobKind,
    /// The job's current state.
    pub state: JobState,
    /// Units the job refers to.
    pub total: usize,
    /// Units finished successfully.
    pub completed: usize,
    /// Units that failed.
    pub failed: usize,
    /// Units answered from the store at submit time.
    pub deduped: usize,
    /// Units shared with other jobs.
    pub shared: usize,
    /// Units this job scheduled on the pool.
    pub scheduled: usize,
    /// Failure messages of failed units.
    pub errors: Vec<String>,
    /// Finished results, as `(index in the job's unit list, result)`,
    /// read from the store when the snapshot was taken (empty for a
    /// [`Daemon::status`] view).  Every completed unit has its row unless
    /// the store was cleared in-process after the unit finished.
    pub rows: Vec<(usize, UnitResult)>,
    /// Submit-time dedup cost (store lookups under the queue lock).
    pub dedup_nanos: u64,
    /// Total time this job's units sat queued before a worker claimed
    /// them (shared units count their full wait for every subscriber).
    pub queue_wait_nanos: u64,
    /// Total worker compute time across this job's units.
    pub simulate_nanos: u64,
}

impl JobSnapshot {
    /// Units the job did **not** schedule itself (store hits + shared).
    pub fn reused(&self) -> usize {
        self.total - self.scheduled
    }
}

/// What [`Daemon::shutdown`] drained.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownSummary {
    /// Jobs accepted over the daemon's lifetime.
    pub jobs: usize,
    /// Units finished successfully (computed or store-answered).
    pub completed_units: usize,
    /// Queued units dropped by the drain.
    pub dropped_queued: usize,
}

/// Worker supervision policy: how often a transiently failed unit is
/// retried, how the backoff between attempts grows, and the per-attempt
/// compute deadline (`momsim serve --retries/--backoff/--deadline`).
#[derive(Debug, Clone, Copy)]
pub struct Supervision {
    /// Extra attempts after the first for a transient failure.
    pub retries: u32,
    /// Base backoff between attempts; decorrelated jitter grows from it.
    pub backoff: Duration,
    /// Ceiling on the jittered backoff.
    pub backoff_cap: Duration,
    /// Per-attempt compute deadline enforced by a watchdog; a unit that
    /// exceeds it is abandoned and counts as a transient failure.
    pub deadline: Duration,
}

impl Default for Supervision {
    fn default() -> Supervision {
        Supervision {
            retries: 3,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            deadline: Duration::from_secs(300),
        }
    }
}

/// The job queue plus its worker pool.
pub struct Daemon {
    state: Mutex<State>,
    /// Signalled when the queue gains work or the daemon starts draining.
    work: Condvar,
    /// Signalled on every transition that can end a job — a worker
    /// finishing a unit, a cancel, the drain — so shutdown and job
    /// waiters wake at once.
    idle: Condvar,
    queue_limit: usize,
    supervision: Supervision,
    /// The crash journal, when `momsim serve` runs with a store directory.
    /// Lock order: always acquired *after* (or without) the state lock.
    journal: Mutex<Option<Arc<Journal>>>,
    /// What startup recovery did, for `/healthz`.
    recovery: Mutex<Option<RecoverySummary>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Daemon {
    /// Builds a daemon with `workers` pool threads and at most
    /// `queue_limit` concurrently active jobs.  `workers == 0` is allowed
    /// (and used by tests to observe queued states deterministically); the
    /// CLI validates a positive count.
    pub fn new(workers: usize, queue_limit: usize) -> Arc<Daemon> {
        Daemon::with_options(workers, queue_limit, Supervision::default())
    }

    /// [`Daemon::new`] with an explicit worker [`Supervision`] policy.
    pub fn with_options(
        workers: usize,
        queue_limit: usize,
        supervision: Supervision,
    ) -> Arc<Daemon> {
        let daemon = Arc::new(Daemon {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            queue_limit: queue_limit.max(1),
            supervision,
            journal: Mutex::new(None),
            recovery: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = daemon.workers.lock().expect("worker registry");
        for index in 0..workers {
            let daemon = Arc::clone(&daemon);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mom-serve-worker-{index}"))
                    .spawn(move || daemon.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(handles);
        daemon
    }

    /// Attaches the crash journal: the daemon appends and commits job
    /// terminations, and a clean drain truncates it.
    pub fn set_journal(&self, journal: Arc<Journal>) {
        *self.journal.lock().expect("journal handle") = Some(journal);
    }

    /// The attached crash journal, if any.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal.lock().expect("journal handle").clone()
    }

    /// Records what startup recovery found (rendered by `GET /healthz`).
    pub fn set_recovery(&self, summary: RecoverySummary) {
        *self.recovery.lock().expect("recovery summary") = Some(summary);
    }

    /// The startup recovery summary, if a recovery ran.
    pub fn recovery(&self) -> Option<RecoverySummary> {
        *self.recovery.lock().expect("recovery summary")
    }

    /// Marks newly terminal jobs ended and journals a `JobEnd` for each,
    /// appended under the state lock, then releases `guard` and, when
    /// `commit`, commits them: no sync is ever held under the lock.
    fn end_jobs(&self, mut guard: MutexGuard<'_, State>, commit: bool) {
        let finished = guard.record_finished_jobs();
        self.idle.notify_all();
        let Some(journal) = self.journal().filter(|_| !finished.is_empty()) else {
            return;
        };
        for (job, state) in finished {
            let state = state.name().to_string();
            journal.append(&Record::JobEnd { job, state });
        }
        drop(guard);
        if commit {
            journal.commit();
        }
    }

    /// Makes every later job id exceed `id` (crash recovery reserves each
    /// journalled id, so none is issued twice).
    pub(crate) fn reserve_job_ids(&self, id: JobId) {
        let mut state = self.state.lock().expect("queue state");
        state.next_job = state.next_job.max(id.saturating_add(1));
    }

    /// Accepts a submission: decomposes it into units, answers what the
    /// store already holds, subscribes to what other jobs are computing,
    /// and schedules the rest.  A job dedup finishes on the spot has its
    /// `JobEnd` journalled but not committed: it leaves nothing to recover.
    pub fn submit(&self, request: JobRequest) -> Result<SubmitOutcome, SubmitError> {
        self.admit(request, None)
    }

    /// Re-admits a journalled job under its original id during crash
    /// recovery.  Bypasses the queue limit (recovered work was already
    /// admitted once); journalling the submission again is the caller's
    /// business (recovery compacts instead).
    pub fn resubmit(&self, id: JobId, request: JobRequest) -> Result<SubmitOutcome, SubmitError> {
        self.admit(request, Some(id))
    }

    fn admit(
        &self,
        request: JobRequest,
        forced: Option<JobId>,
    ) -> Result<SubmitOutcome, SubmitError> {
        let _span = mom_obs::span("job", "submit");
        let (label, kind, units) = match request {
            JobRequest::Grid { label, spec } => {
                spec.validate().map_err(SubmitError::Invalid)?;
                let units: Vec<WorkUnit> = schedule::plan(&spec)
                    .into_iter()
                    .map(|job| WorkUnit::Point(Box::new(job)))
                    .collect();
                (label, JobKind::Grid(spec), units)
            }
            JobRequest::Apps { label } => (
                label,
                JobKind::Apps,
                vec![WorkUnit::Apps {
                    config: Box::new(mom_apps::reference_config()),
                    seed: mom_bench::EXPERIMENT_SEED,
                    frames: mom_apps::DEFAULT_FRAMES,
                }],
            ),
        };
        if units.is_empty() {
            return Err(SubmitError::Invalid("the submission has no points".into()));
        }

        let mut guard = self.state.lock().expect("queue state");
        let state = &mut *guard;
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if forced.is_none() {
            let active = state.open.len();
            if active >= self.queue_limit {
                return Err(SubmitError::Busy {
                    active,
                    limit: self.queue_limit,
                });
            }
        }
        let job_id = match forced {
            Some(id) => {
                if state.jobs.contains_key(&id) {
                    return Err(SubmitError::Invalid(format!("job {id} already exists")));
                }
                state.next_job = state.next_job.max(id + 1);
                id
            }
            None => {
                let id = state.next_job;
                state.next_job += 1;
                id
            }
        };
        let mut outcome = SubmitOutcome {
            job: job_id,
            total: units.len(),
            scheduled: 0,
            deduped: 0,
            shared: 0,
        };
        let dedup_start = Instant::now();
        let mut keys = Vec::with_capacity(units.len());
        for unit in units {
            let key = unit.key();
            keys.push(key);
            // The store reads happen under the queue lock; each is a hash
            // lookup plus at worst one small file read, and keeps the
            // check-then-schedule step atomic.
            match state.units.get_mut(&key) {
                Some(existing) => {
                    existing.subscribers.push(job_id);
                    if !matches!(existing.status, UnitStatus::Done) {
                        outcome.shared += 1;
                        continue;
                    }
                    if existing.payload.cached().is_some() {
                        outcome.deduped += 1;
                        continue;
                    }
                    // A finished unit the store no longer holds (after an
                    // in-process clear or gc) is computed again.
                    existing.status = UnitStatus::Queued;
                    existing.enqueued_at = Some(Instant::now());
                }
                None => {
                    let stored = unit.cached().is_some();
                    state.units.insert(
                        key,
                        Unit {
                            payload: unit,
                            status: if stored {
                                UnitStatus::Done
                            } else {
                                UnitStatus::Queued
                            },
                            subscribers: vec![job_id],
                            enqueued_at: (!stored).then(Instant::now),
                            wait_nanos: 0,
                            compute_nanos: 0,
                        },
                    );
                    if stored {
                        outcome.deduped += 1;
                        continue;
                    }
                }
            }
            state.queue.push_back(key);
            outcome.scheduled += 1;
        }
        let dedup_nanos = elapsed_nanos(dedup_start);
        state.jobs.insert(
            job_id,
            Job {
                label,
                kind,
                keys,
                cancelled: false,
                ended: None,
                deduped: outcome.deduped,
                shared: outcome.shared,
                scheduled: outcome.scheduled,
                dedup_nanos,
            },
        );
        state.open.insert(job_id);
        jobs_submitted_counter().inc();
        units_counter("scheduled").add(outcome.scheduled as u64);
        units_counter("deduped").add(outcome.deduped as u64);
        units_counter("shared").add(outcome.shared as u64);
        if outcome.scheduled > 0 {
            self.work.notify_all();
        }
        // A fully store-answered job is terminal right now.
        self.end_jobs(guard, false);
        Ok(outcome)
    }

    fn worker_loop(&self) {
        loop {
            let (key, payload) = {
                let mut guard = self.state.lock().expect("queue state");
                loop {
                    let state = &mut *guard;
                    let mut claimed = None;
                    while let Some(key) = state.queue.pop_front() {
                        let wanted = state.units.get(&key).is_some_and(|unit| {
                            matches!(unit.status, UnitStatus::Queued)
                                && state.subscriber_alive(unit)
                        });
                        if wanted {
                            claimed = Some(key);
                            break;
                        }
                        // Nobody wants it any more: forget the unit.
                        state.units.remove(&key);
                    }
                    if let Some(key) = claimed {
                        let unit = state.units.get_mut(&key).expect("claimed unit");
                        unit.status = UnitStatus::Running;
                        unit.wait_nanos = unit.enqueued_at.map(elapsed_nanos).unwrap_or(0);
                        let payload = unit.payload.clone();
                        state.running += 1;
                        break (key, payload);
                    }
                    if state.shutting_down {
                        return;
                    }
                    guard = self.work.wait(guard).expect("queue state");
                }
            };
            // Compute with no lock held; the fill path writes the store.
            let compute_start = Instant::now();
            let result = {
                let _span = mom_obs::span_fmt("job", || format!("compute {}", key.to_hex()));
                self.supervise(key, &payload)
            };
            let compute_elapsed = compute_start.elapsed();
            compute_seconds_histogram().observe(compute_elapsed);
            let mut guard = self.state.lock().expect("queue state");
            let state = &mut *guard;
            if let Some(unit) = state.units.get_mut(&key) {
                unit.compute_nanos = u64::try_from(compute_elapsed.as_nanos()).unwrap_or(u64::MAX);
                unit.status = match result {
                    Ok(()) => UnitStatus::Done,
                    Err(message) => UnitStatus::Failed(message),
                };
            }
            state.running -= 1;
            self.end_jobs(guard, true);
        }
    }

    /// Runs one unit under supervision: each attempt computes on a helper
    /// thread (so a watchdog deadline can abandon a stuck unit) under
    /// `catch_unwind` (so a panic — real or injected — is an error, not a
    /// dead worker).  Transient failures are retried up to the policy's
    /// limit with decorrelated-jitter backoff; the final error message
    /// carries the unit's coordinates and the attempt count.
    fn supervise(&self, key: mom_store::Key, payload: &WorkUnit) -> Result<(), String> {
        let policy = self.supervision;
        let mut backoff = policy.backoff;
        let mut attempt = 0u32;
        loop {
            let error = match attempt_unit(payload, policy.deadline) {
                Ok(()) => {
                    if attempt > 0 {
                        mom_obs::log::info(
                            "worker",
                            &format!("unit {} recovered on attempt {}", key.to_hex(), attempt + 1),
                        );
                    }
                    return Ok(());
                }
                Err(error) => error,
            };
            if !error.transient || attempt >= policy.retries {
                let attempts = attempt + 1;
                let plural = if attempts == 1 { "" } else { "s" };
                return Err(format!(
                    "{}: {} (after {attempts} attempt{plural})",
                    payload.describe(),
                    error.message
                ));
            }
            unit_retries_counter().inc();
            mom_obs::log::warn(
                "worker",
                &format!(
                    "unit {} attempt {} failed transiently: {}; retrying",
                    key.to_hex(),
                    attempt + 1,
                    error.message
                ),
            );
            backoff =
                decorrelated_jitter(policy.backoff, backoff, policy.backoff_cap, key, attempt);
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    /// Cancels a job: in-flight units finish (their results stay shared),
    /// queued units no other live job wants are dropped.  `false` for an
    /// unknown id.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut guard = self.state.lock().expect("queue state");
        let state = &mut *guard;
        let Some(job) = state.jobs.get_mut(&id) else {
            return false;
        };
        job.cancelled = true;
        state.prune_queue(false);
        // The cancelled job is terminal now, and dropping queued units may
        // have finished (as Cancelled) other jobs that shared them.
        self.end_jobs(guard, true);
        true
    }

    /// A point-in-time view of one job with its finished rows, each read
    /// from the store; `None` for an unknown id.
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        let (mut snapshot, done) = self.view(id, true)?;
        // Read with the queue lock released: workers finishing units never
        // wait on a document being rendered.
        snapshot.rows = done
            .into_iter()
            .filter_map(|(index, unit)| Some((index, unit.cached()?)))
            .collect();
        Some(snapshot)
    }

    /// [`Daemon::snapshot`] without rows: the job's state and counters,
    /// with no store read.  `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobSnapshot> {
        self.view(id, false).map(|(snapshot, _)| snapshot)
    }

    /// The row-less snapshot of a job, plus (when `rows`) its finished
    /// units with their indices in the job's unit list.
    fn view(&self, id: JobId, rows: bool) -> Option<(JobSnapshot, Vec<(usize, WorkUnit)>)> {
        let state = self.state.lock().expect("queue state");
        let job = state.jobs.get(&id)?;
        let mut snapshot = JobSnapshot {
            id,
            label: job.label.clone(),
            kind: job.kind.clone(),
            state: state.derive_state(job),
            total: job.keys.len(),
            completed: 0,
            failed: 0,
            deduped: job.deduped,
            shared: job.shared,
            scheduled: job.scheduled,
            errors: Vec::new(),
            rows: Vec::new(),
            dedup_nanos: job.dedup_nanos,
            queue_wait_nanos: 0,
            simulate_nanos: 0,
        };
        let mut done = Vec::new();
        for (index, key) in job.keys.iter().enumerate() {
            let Some(unit) = state.units.get(key) else {
                continue;
            };
            snapshot.queue_wait_nanos += unit.wait_nanos;
            snapshot.simulate_nanos += unit.compute_nanos;
            match &unit.status {
                UnitStatus::Done => {
                    snapshot.completed += 1;
                    if rows {
                        done.push((index, unit.payload.clone()));
                    }
                }
                UnitStatus::Failed(message) => {
                    snapshot.failed += 1;
                    snapshot.errors.push(message.clone());
                }
                UnitStatus::Queued | UnitStatus::Running => {}
            }
        }
        Some((snapshot, done))
    }

    /// Every job id the daemon has accepted, in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.state
            .lock()
            .expect("queue state")
            .jobs
            .keys()
            .copied()
            .collect()
    }

    /// Drains the daemon: rejects new submissions, drops queued units,
    /// and waits for in-flight units to finish (their results land in the
    /// store like any other).
    pub fn shutdown(&self) -> ShutdownSummary {
        let mut state = self.state.lock().expect("queue state");
        state.shutting_down = true;
        let dropped_queued = state.prune_queue(true);
        self.work.notify_all();
        // Waiters wake to see their dropped units, long polls to answer.
        self.idle.notify_all();
        while state.running > 0 {
            state = self.idle.wait(state).expect("queue state");
        }
        let summary = ShutdownSummary {
            jobs: state.jobs.len(),
            completed_units: state
                .units
                .values()
                .filter(|unit| matches!(unit.status, UnitStatus::Done))
                .count(),
            dropped_queued,
        };
        // Dropping queued units finished (as Cancelled) the jobs that
        // wanted them.
        self.end_jobs(state, true);
        summary
    }

    /// Refreshes the registry's queue gauges (`momsim_serve_queue_depth`,
    /// `momsim_serve_workers_busy`, `momsim_serve_jobs_active`) from the
    /// current state.  Called at metrics-scrape time.
    pub fn publish_gauges(&self) {
        let state = self.state.lock().expect("queue state");
        mom_obs::gauge(
            "momsim_serve_queue_depth",
            "Units currently waiting in the work queue.",
        )
        .set(state.queue.len() as i64);
        mom_obs::gauge(
            "momsim_serve_workers_busy",
            "Worker threads currently computing a unit.",
        )
        .set(state.running as i64);
        mom_obs::gauge(
            "momsim_serve_jobs_active",
            "Jobs still owed queued or running units.",
        )
        .set(state.open.len() as i64);
    }

    /// Joins the pool threads (call after [`Daemon::shutdown`]).
    pub fn join_workers(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker registry"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Blocks until a job reaches a terminal state, then returns its full
    /// [`Daemon::snapshot`]; `None` for an unknown id.  While it waits it
    /// checks only the job's state, reading nothing from the store.  Test
    /// and CLI convenience.
    pub fn wait(&self, id: JobId) -> Option<JobSnapshot> {
        let mut state = self.state.lock().expect("queue state");
        while state.derive_state(state.jobs.get(&id)?) == JobState::Running {
            state = self.idle.wait(state).expect("queue state");
        }
        drop(state);
        self.snapshot(id)
    }

    /// The long poll behind `GET /jobs/<id>?wait=SECS`: blocks until the
    /// job reaches a terminal state, `limit` passes or the daemon starts
    /// draining, whichever comes first, then returns the job's
    /// [`Daemon::snapshot`]; `None` for an unknown id.
    pub(crate) fn wait_at_most(&self, id: JobId, limit: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + limit;
        let mut state = self.state.lock().expect("queue state");
        while state.derive_state(state.jobs.get(&id)?) == JobState::Running && !state.shutting_down
        {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            state = self.idle.wait_timeout(state, left).expect("queue state").0;
        }
        drop(state);
        self.snapshot(id)
    }
}

/// One supervised compute attempt: run on a helper thread so the caller
/// can enforce a deadline, with `catch_unwind` turning a panic into a
/// transient [`ComputeError`].  The fault plane's worker sites fire here,
/// inside the unwind boundary, so injected panics exercise exactly the
/// recovery path a real one would.  The result itself stays in the store;
/// the attempt reports only whether it got there.
fn attempt_unit(payload: &WorkUnit, deadline: Duration) -> Result<(), ComputeError> {
    let unit = payload.clone();
    let (tx, rx) = mpsc::channel();
    let handle = match std::thread::Builder::new()
        .name("mom-serve-compute".to_string())
        .spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                faults::maybe_delay(FaultSite::WorkerDelay);
                faults::maybe_panic(FaultSite::WorkerPanic);
                unit.compute().map(drop)
            }));
            let _ = tx.send(outcome);
        }) {
        Ok(handle) => handle,
        Err(e) => {
            return Err(ComputeError {
                message: format!("cannot spawn compute thread: {e}"),
                transient: true,
            })
        }
    };
    match rx.recv_timeout(deadline) {
        Ok(outcome) => {
            let _ = handle.join();
            match outcome {
                Ok(result) => result,
                Err(panic) => Err(ComputeError {
                    message: format!("panicked: {}", panic_message(panic.as_ref())),
                    transient: true,
                }),
            }
        }
        // The watchdog fired: abandon the helper thread (its send fails
        // harmlessly once it finishes) so a stuck unit cannot wedge the
        // worker.
        Err(_) => Err(ComputeError {
            message: format!("deadline of {deadline:?} exceeded"),
            transient: true,
        }),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Decorrelated-jitter backoff: the next sleep is drawn uniformly from
/// `[base, 3 * previous]`, capped.  The draw is a deterministic hash of
/// (unit key, attempt) so test runs reproduce, yet sleeps decorrelate
/// across units hammering the same recovering resource.
fn decorrelated_jitter(
    base: Duration,
    prev: Duration,
    cap: Duration,
    key: mom_store::Key,
    attempt: u32,
) -> Duration {
    let mut x = (key.0 as u64) ^ ((key.0 >> 64) as u64) ^ (u64::from(attempt) << 32);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let low = u64::try_from(base.as_millis()).unwrap_or(u64::MAX).max(1);
    let high = u64::try_from(prev.as_millis())
        .unwrap_or(u64::MAX)
        .saturating_mul(3)
        .max(low + 1);
    Duration::from_millis(low + x % (high - low)).min(cap)
}
