//! The TCP listener and request router of `momsim serve`.
//!
//! One thread accepts connections (a blocking `accept`; `POST /shutdown`
//! sets the stop flag and wakes it with one loopback connection to the
//! listener's own address), one short-lived thread handles each connection
//! (`Connection: close`; submissions are small and the worker pool does
//! the real work), and the routes map directly onto [`crate::queue`]:
//!
//! | route                | behaviour                                      |
//! |----------------------|------------------------------------------------|
//! | `GET /healthz`       | liveness probe                                 |
//! | `POST /jobs`         | submit (202) / full (429) / draining (503)     |
//! | `GET /jobs`          | list jobs                                      |
//! | `GET /jobs/<id>`     | job status + result rows streamed so far       |
//! | `DELETE /jobs/<id>`  | cancel (in-flight finish, queued are dropped)  |
//! | `GET /reports/<name>`| replay a committed report from the store (409  |
//! |                      | unless every point is already stored)          |
//! | `POST /shutdown`     | drain, summarise, stop accepting               |

use crate::http::{read_request_body, read_request_head, HttpError, Request, Response};
use crate::journal::{self, Journal, Record};
use crate::queue::{Daemon, Supervision};
use crate::wire::{job_doc, job_entry, parse_submit};
use mom_bench::find_experiment;
use mom_bench::json::Json;
use mom_store::faults::{self, FaultSite};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The address to bind (`host:port`).
    pub addr: String,
    /// Worker pool size.
    pub workers: usize,
    /// Most concurrently active jobs before submissions get 429.
    pub queue_limit: usize,
    /// Most finished unit payloads kept in memory (`--retain`); the least
    /// recently read beyond this are evicted (the store keeps everything).
    pub retain: usize,
    /// Worker supervision policy (retries, backoff, deadline).
    pub supervision: Supervision,
    /// Socket read deadline for a request head; the body deadline scales
    /// up from it with the advertised `Content-Length`.
    pub read_timeout: Duration,
    /// Whether to keep (and recover from) the crash journal in the store
    /// directory.  On by default; meaningless without an active store.
    pub journal: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:5099".to_string(),
            workers: 2,
            queue_limit: 16,
            retain: crate::queue::DEFAULT_RETAIN,
            supervision: Supervision::default(),
            read_timeout: Duration::from_secs(5),
            journal: true,
        }
    }
}

/// A running daemon: its bound address, queue handle and accept thread.
pub struct Server {
    addr: std::net::SocketAddr,
    daemon: Arc<Daemon>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The actually bound address (resolves `:0` to the assigned port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The underlying job queue (tests drive it directly).
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Waits for the accept loop to exit (after `POST /shutdown`), then
    /// joins the worker pool.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.daemon.join_workers();
    }
}

/// Binds the configured address and starts the daemon, replaying the
/// crash journal first when the artifact store has a directory: every
/// journalled job without a terminal record is re-admitted through the
/// ordinary dedup path, so only the units genuinely lost to the crash are
/// recomputed.
pub fn serve(config: &ServeConfig) -> std::io::Result<Server> {
    let daemon = Daemon::with_options(
        config.workers,
        config.queue_limit,
        config.retain,
        config.supervision,
    );
    if config.journal && mom_store::global().is_active() {
        if let Some(dir) = mom_store::global().dir() {
            let path = dir.join(journal::JOURNAL_FILE);
            match Journal::open(&path) {
                Ok((journal, records)) => {
                    // Recover before attaching the journal: replayed
                    // submissions must not re-journal themselves (the
                    // compaction below rewrites the live ones), and a
                    // unit finished in this narrow window merely loses
                    // its UnitDone record — the store still dedups it on
                    // the next recovery.
                    let (summary, live) = journal::recover(&daemon, &records);
                    journal.compact(&live);
                    daemon.set_journal(Arc::new(journal));
                    daemon.set_recovery(summary);
                    if summary.jobs + summary.jobs_skipped > 0 {
                        mom_obs::log::info(
                            "journal",
                            &format!(
                                "recovered {} unfinished job(s): {} unit(s) answered from \
                                 the store, {} requeued ({} finished job(s) skipped)",
                                summary.jobs,
                                summary.units_done,
                                summary.units_requeued,
                                summary.jobs_skipped
                            ),
                        );
                    }
                }
                Err(e) => {
                    mom_obs::log::warn(
                        "journal",
                        &format!(
                            "cannot open {}: {e}; running without a journal",
                            path.display()
                        ),
                    );
                }
            }
        }
    }
    serve_with_timeout(daemon, &config.addr, config.read_timeout)
}

/// Starts the accept loop over an existing queue — the seam tests use to
/// run a daemon with zero workers and observe queued states.
pub fn serve_with(daemon: Arc<Daemon>, addr: &str) -> std::io::Result<Server> {
    serve_with_timeout(daemon, addr, Duration::from_secs(5))
}

/// [`serve_with`] with an explicit head read deadline (tests shrink it to
/// exercise the 408 path quickly).
pub fn serve_with_timeout(
    daemon: Arc<Daemon>,
    addr: &str,
    read_timeout: Duration,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(Stop::new(addr));
    let accept = {
        let daemon = Arc::clone(&daemon);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("mom-serve-accept".to_string())
            .spawn(move || accept_loop(listener, daemon, stop, read_timeout))
            .expect("spawn accept loop")
    };
    Ok(Server {
        addr,
        daemon,
        accept: Some(accept),
    })
}

/// The accept loop's stop signal: a flag, plus the address a wake-up
/// connection reaches the blocked `accept` on.
struct Stop {
    flag: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    fn new(listening: SocketAddr) -> Stop {
        // A wildcard bind is reachable over loopback of the same family.
        let mut wake = listening;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Stop {
            flag: AtomicBool::new(false),
            wake,
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag, then unblocks the accept loop with one connection.
    fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

fn accept_loop(
    listener: TcpListener,
    daemon: Arc<Daemon>,
    stop: Arc<Stop>,
    read_timeout: Duration,
) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.is_set() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                if faults::should_inject(FaultSite::HttpAccept) {
                    // An injected accept fault: drop the connection on the
                    // floor, exactly like a listener overflow would.
                    drop(stream);
                    continue;
                }
                let daemon = Arc::clone(&daemon);
                let stop = Arc::clone(&stop);
                connections.retain(|handle| !handle.is_finished());
                connections.push(
                    std::thread::Builder::new()
                        .name("mom-serve-conn".to_string())
                        .spawn(move || handle_connection(stream, &daemon, &stop, read_timeout))
                        .expect("spawn connection handler"),
                );
            }
            Err(_) => break,
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// The bounded-cardinality route label of a request path, for the
/// per-request metrics (raw paths would mint one series per job id).
fn route_pattern(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/jobs" => "/jobs",
        "/shutdown" => "/shutdown",
        "/metrics" => "/metrics",
        _ if path.starts_with("/jobs/") => "/jobs/<id>",
        _ if path.starts_with("/reports/") => "/reports/<name>",
        _ => "<other>",
    }
}

fn record_request(method: &str, path: &str, status: u16, elapsed: Duration) {
    mom_obs::counter_with(
        "momsim_serve_requests_total",
        "HTTP requests served, by method, route pattern and status.",
        &[
            ("method", method),
            ("route", route_pattern(path)),
            ("status", &status.to_string()),
        ],
    )
    .inc();
    mom_obs::histogram(
        "momsim_serve_request_seconds",
        "Wall time handling one HTTP request.",
    )
    .observe(elapsed);
    mom_obs::log::info(
        "serve",
        &format!(
            "{method} {path} -> {status} ({:.1}ms)",
            elapsed.as_secs_f64() * 1e3
        ),
    );
}

fn handle_connection(stream: TcpStream, daemon: &Daemon, stop: &Stop, read_timeout: Duration) {
    if faults::should_inject(FaultSite::HttpRead) {
        // An injected read fault: the peer sees the connection reset
        // mid-request, exactly what a daemon crash looks like on the wire.
        return;
    }
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let start = Instant::now();
    let outcome = read_request_head(&mut reader).and_then(|head| {
        if head.content_length > 0 {
            // A large POST on a slow link is not a dead peer: grant the
            // body ~64 KiB/s on top of the head deadline (the socket
            // option lives on the shared fd, so the clone sees it too).
            let allowance = Duration::from_millis(16 * (head.content_length as u64).div_ceil(1024));
            let _ = stream.set_read_timeout(Some(read_timeout + allowance));
        }
        let body = read_request_body(&mut reader, head.content_length)?;
        Ok(Request {
            method: head.method,
            path: head.path,
            body,
        })
    });
    let (request, response) = match outcome {
        Ok(request) => {
            let _span = mom_obs::span_fmt("http", || {
                format!("{} {}", request.method, route_pattern(&request.path))
            });
            let response = route(&request.method, &request.path, &request.body, daemon, stop);
            (Some(request), response)
        }
        Err(HttpError::Bad(message)) => (None, Response::error(400, message)),
        Err(HttpError::TooLarge(message)) => (None, Response::error(413, message)),
        Err(HttpError::Timeout(message)) => (None, Response::error(408, message)),
        Err(HttpError::Io(_)) => return,
    };
    match &request {
        Some(request) => record_request(&request.method, &request.path, response.status, {
            start.elapsed()
        }),
        None => mom_obs::log::warn(
            "serve",
            &format!("unreadable request -> {}", response.status),
        ),
    }
    let mut stream = stream;
    let _ = response.write_to(&mut stream);
}

fn route(method: &str, path: &str, body: &[u8], daemon: &Daemon, stop: &Stop) -> Response {
    match (method, path) {
        ("GET", "/healthz") => {
            let recovery = daemon.recovery().unwrap_or_default();
            Response::json(
                200,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("recovered_jobs", Json::Num(recovery.jobs as f64)),
                    (
                        "recovered_units_done",
                        Json::Num(recovery.units_done as f64),
                    ),
                    (
                        "recovered_units_requeued",
                        Json::Num(recovery.units_requeued as f64),
                    ),
                ]),
            )
        }
        ("GET", "/metrics") => {
            // Gauges describe current footprints, so they are refreshed at
            // scrape time; counters are already live.
            mom_store::publish_gauges();
            daemon.publish_gauges();
            Response::text(200, mom_obs::render_prometheus())
        }
        ("POST", "/jobs") => submit_route(body, daemon),
        ("GET", "/jobs") => {
            let entries: Vec<Json> = daemon
                .job_ids()
                .into_iter()
                .filter_map(|id| daemon.snapshot(id))
                .map(|snapshot| job_entry(&snapshot))
                .collect();
            Response::json(200, &Json::obj([("jobs", Json::Arr(entries))]))
        }
        ("POST", "/shutdown") => {
            let summary = daemon.shutdown();
            if let Some(journal) = daemon.journal() {
                // A clean drain leaves nothing to recover.
                journal.truncate();
            }
            stop.trigger();
            Response::json(
                200,
                &Json::obj([
                    ("state", Json::str("draining")),
                    ("jobs", Json::Num(summary.jobs as f64)),
                    ("completed_units", Json::Num(summary.completed_units as f64)),
                    ("dropped_queued", Json::Num(summary.dropped_queued as f64)),
                ]),
            )
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                return match rest.parse::<u64>() {
                    Ok(id) => job_route(method, id, daemon),
                    Err(_) => Response::error(404, format!("no such job '{rest}'")),
                };
            }
            if let Some(name) = path.strip_prefix("/reports/") {
                return match method {
                    "GET" => report_route(name),
                    _ => Response::error(405, "reports are read-only"),
                };
            }
            Response::error(404, format!("no such route {method} {path}"))
        }
    }
}

fn submit_route(body: &[u8], daemon: &Daemon) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "submission body is not UTF-8"),
    };
    let doc = match crate::json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, format!("submission is not valid JSON: {e}")),
    };
    let request = match parse_submit(&doc) {
        Ok(request) => request,
        Err(message) => return Response::error(400, message),
    };
    match daemon.submit(request) {
        Ok(outcome) => {
            // Journal the acceptance (body verbatim) before answering, so
            // a crash after the 202 cannot lose the job.
            if let Some(journal) = daemon.journal() {
                journal.append(&Record::Submit {
                    job: outcome.job,
                    body: text.to_string(),
                });
            }
            Response::json(
                202,
                &Json::obj([
                    ("job", Json::Num(outcome.job as f64)),
                    ("points", Json::Num(outcome.total as f64)),
                    ("scheduled", Json::Num(outcome.scheduled as f64)),
                    ("deduped", Json::Num(outcome.deduped as f64)),
                    ("shared", Json::Num(outcome.shared as f64)),
                ]),
            )
        }
        Err(crate::queue::SubmitError::Busy { active, limit }) => Response::error(
            429,
            format!("queue full: {active} active jobs (limit {limit})"),
        ),
        Err(crate::queue::SubmitError::ShuttingDown) => {
            Response::error(503, "daemon is shutting down")
        }
        Err(crate::queue::SubmitError::Invalid(message)) => Response::error(400, message),
    }
}

fn job_route(method: &str, id: u64, daemon: &Daemon) -> Response {
    match method {
        "GET" => match daemon.snapshot(id) {
            Some(snapshot) => Response::json(200, &job_doc(&snapshot)),
            None => Response::error(404, format!("no such job {id}")),
        },
        "DELETE" => {
            if daemon.cancel(id) {
                let snapshot = daemon.snapshot(id).expect("job just cancelled");
                Response::json(200, &job_doc(&snapshot))
            } else {
                Response::error(404, format!("no such job {id}"))
            }
        }
        _ => Response::error(405, "jobs support GET and DELETE"),
    }
}

/// The `GET /reports/<name>` replay: serve a committed `BENCH_*` document
/// ([`mom_bench::cli::report_experiments`] names them) byte-identically
/// **from the store**, refusing (409) rather than simulating anything.
/// The daemon proves replay eligibility by checking every point of the
/// report's spec against the store first; the actual rendering then runs
/// the ordinary experiment path, which is all store hits by construction.
fn report_route(name: &str) -> Response {
    let experiments = match mom_bench::cli::report_experiments(name) {
        Ok(experiments) => experiments,
        Err(message) => return Response::error(404, message),
    };
    if !mom_store::global().is_active() {
        return Response::error(409, "the artifact store is disabled; nothing to replay");
    }
    for experiment in experiments {
        if let Some(missing) = first_missing_point(experiment) {
            return Response::error(
                409,
                format!(
                    "report '{name}' is not fully stored yet ({missing}); \
                     submit it first (momsim submit {experiment} --wait)"
                ),
            );
        }
    }
    match render_report(experiments) {
        Ok(text) => Response::raw_json(200, text.into_bytes()),
        Err(e) => Response::error(500, e),
    }
}

/// Scans an experiment's plan against the store; `Some(description)` of
/// the first missing point, `None` when the whole plan is stored.
fn first_missing_point(experiment: &str) -> Option<String> {
    let named = find_experiment(experiment).ok()?;
    match named.spec() {
        Some(spec) => mom_bench::schedule::plan(&spec)
            .iter()
            .find(|job| job.cached().is_none())
            .map(|job| {
                format!(
                    "missing {}/{}/way{}",
                    job.kernel.name(),
                    job.isa.name(),
                    job.config.width
                )
            }),
        None => {
            let stored = mom_bench::store::cached_app_speedups(
                &mom_apps::reference_config(),
                mom_bench::EXPERIMENT_SEED,
                mom_apps::DEFAULT_FRAMES,
            );
            match stored {
                Some(_) => None,
                None => Some("missing the application-speedup table".to_string()),
            }
        }
    }
}

/// Renders a report from its experiments through the ordinary experiment
/// path (every point verified stored, so this never simulates) to the
/// exact bytes `momsim sweep` writes.
fn render_report(experiments: &[&'static str]) -> Result<String, String> {
    let series = experiments
        .iter()
        .map(|&name| {
            let report = find_experiment(name)?.run().map_err(|e| e.to_string())?;
            Ok((name, report))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(mom_bench::cli::committed_doc(&series).pretty())
}
