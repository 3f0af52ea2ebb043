//! `service-mix`: an in-process `momsim serve` daemon (two workers, journal
//! on) on loopback, driven by two closed-loop clients.  Each client issues a
//! seeded mix of cold ad-hoc grids, warm resubmissions of its earlier cold
//! grids, and replays of the committed reports.

use crate::measure::{Class, Rng, SeedSource, Tally};
use crate::reports::{Expected, EXPERIMENTS, REPORTS};
use mom_bench::json::Json;
use mom_kernels::KernelId;
use mom_serve::client::{request_json, request_raw};
use mom_serve::{Daemon, ServeConfig, Server};
use std::time::Instant;

/// Closed-loop clients; with two daemon workers this keeps both cores busy.
pub const CLIENTS: usize = 2;

/// Stream length of a cold grid's points.
pub const COLD_REPLICATION: usize = 20_000;

/// A running daemon and its loopback address.
pub struct Service {
    server: Server,
    pub addr: String,
}

impl Service {
    /// Starts the daemon on an ephemeral loopback port (the store must
    /// already be configured: the journal lives in its directory).
    pub fn start() -> Result<Service, String> {
        let server = mom_serve::serve(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Service { server, addr })
    }

    pub fn daemon(&self) -> &Daemon {
        self.server.daemon()
    }

    /// Submits the six registered experiments and waits for each, so the
    /// committed reports can be replayed from the store.
    pub fn fill(&self) -> Result<(), String> {
        for name in EXPERIMENTS {
            let body = format!("{{\"experiment\": \"{name}\"}}");
            let (_, doc) = self.job(&body)?;
            if doc.get("state").and_then(Json::as_str) != Some("done") {
                return Err(format!("registered experiment {name} did not finish"));
            }
        }
        Ok(())
    }

    /// One job as a client sees it: `POST /jobs`, completion through
    /// `Daemon::wait` (woken on every finished unit), then the parsed
    /// `GET /jobs/<id>` document.  Returns the submit answer and the doc.
    pub fn job(&self, body: &str) -> Result<(Json, Json), String> {
        let (status, accepted) = request_json(&self.addr, "POST", "/jobs", Some(body.as_bytes()))
            .map_err(|e| e.to_string())?;
        if status != 202 {
            return Err(format!("POST /jobs answered {status}: {accepted}"));
        }
        let id = accepted
            .get("job")
            .and_then(Json::as_u64)
            .ok_or("POST /jobs returned no job id")?;
        self.daemon().wait(id).ok_or("the daemon forgot the job")?;
        let (status, doc) = request_json(&self.addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} answered {status}"));
        }
        Ok((accepted, doc))
    }

    /// Drains the daemon and joins its threads.
    pub fn stop(self) {
        let _ = request_raw(&self.addr, "POST", "/shutdown", None);
        self.server.join();
    }
}

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// A new ad-hoc grid: one kernel × 4 ISAs × widths {2, 4} at a fresh
    /// seed (the submission body).
    Cold(String),
    /// Resubmission of the client's `n`-th cold grid.
    Warm(usize),
    /// `GET /reports/<name>` of `REPORTS[n]`.
    Report(usize),
}

/// A client's request sequence, built from the seed before any request is
/// sent.  Requests come in blocks of two cold, one warm and one report, in
/// a seeded order within the block; kernels are dealt from a reshuffled
/// deck of all nine and report names round-robin, so every run of the same
/// length issues the same mix.
pub struct Plan {
    client: usize,
    rng: Rng,
    deck: Vec<KernelId>,
    colds: usize,
    reports: usize,
}

impl Plan {
    pub fn new(client: usize, rng: Rng) -> Plan {
        Plan {
            client,
            rng,
            deck: Vec::new(),
            colds: 0,
            reports: 0,
        }
    }

    /// The next block; `shuffle: false` keeps the order cold, cold, warm,
    /// report (the set-up's warm-up block, whose warm needs a cold first).
    pub fn block(&mut self, seeds: &mut SeedSource, shuffle: bool) -> Vec<Request> {
        let mut kinds = [Class::Cold, Class::Cold, Class::Warm, Class::Report];
        if shuffle {
            self.rng.shuffle(&mut kinds);
        }
        let mut block = Vec::new();
        for kind in kinds {
            block.push(match kind {
                Class::Cold => {
                    if self.deck.is_empty() {
                        self.deck = KernelId::ALL.to_vec();
                        self.rng.shuffle(&mut self.deck);
                    }
                    let kernel = self.deck.pop().expect("refilled deck");
                    self.colds += 1;
                    Request::Cold(format!(
                        "{{\"label\": \"cold\", \"kernels\": [\"{}\"], \"isas\": \"all\", \
                         \"widths\": [2, 4], \"replication\": {COLD_REPLICATION}, \"seed\": {}}}",
                        kernel.name(),
                        seeds.fresh()
                    ))
                }
                // A block may open with its warm request, so it draws from
                // the colds of earlier blocks (the set-up's block is the
                // first, and there the two colds come first).
                Class::Warm => {
                    let in_block = block
                        .iter()
                        .filter(|r| matches!(r, Request::Cold(_)))
                        .count();
                    let earlier = if shuffle {
                        self.colds - in_block
                    } else {
                        self.colds
                    };
                    Request::Warm(self.rng.below(earlier.max(1)))
                }
                Class::Report => {
                    self.reports += 1;
                    Request::Report((self.client + self.reports) % REPORTS.len())
                }
            });
        }
        block
    }
}

/// A client's cold grids so far: submission body and rendered result
/// rows, for warm resubmissions to match against.
pub type History = Vec<(String, String)>;

fn rows_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "job document has no rows".to_string())
}

/// Checks a finished cold job document: done, no failures, one row per
/// point.  Returns the rendered rows and their simulated instructions.
pub fn check_cold(doc: &Json) -> Result<(String, u64, u64), String> {
    let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
    let points = doc.get("points").and_then(Json::as_u64).unwrap_or(0);
    let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(1);
    let rows = rows_of(doc)?;
    if state != "done" || failed != 0 || points == 0 || rows.len() as u64 != points {
        return Err(format!(
            "cold job ended {state} with {failed} failed units and {}/{points} rows",
            rows.len()
        ));
    }
    let instructions = rows
        .iter()
        .map(|r| r.get("instructions").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    Ok((Json::Arr(rows.to_vec()).to_string(), points, instructions))
}

/// Issues one request over HTTP and records it.
pub fn execute(
    service: &Service,
    request: &Request,
    history: &mut History,
    expected: &Expected,
    tally: &mut Tally,
) {
    let start = Instant::now();
    match request {
        Request::Cold(body) => {
            let outcome = service.job(body).and_then(|(_, doc)| check_cold(&doc));
            tally.record(Class::Cold, start.elapsed());
            match outcome {
                Ok((rows, points, instructions)) => {
                    tally.cold_points += points;
                    tally.cold_instructions += instructions;
                    history.push((body.clone(), rows));
                }
                Err(e) => tally.fail(e),
            }
        }
        Request::Warm(n) => {
            let Some((body, rows)) = history.get(*n) else {
                tally.fail(format!("warm request names cold grid {n}, which failed"));
                return;
            };
            let outcome = service.job(body);
            tally.record(Class::Warm, start.elapsed());
            let verdict = outcome.and_then(|(accepted, doc)| {
                let scheduled = accepted.get("scheduled").and_then(Json::as_u64);
                let same = Json::Arr(rows_of(&doc)?.to_vec()).to_string() == *rows;
                match (scheduled, same) {
                    (Some(0), true) => Ok(()),
                    (Some(0), false) => Err("warm rows differ from the cold original".to_string()),
                    _ => Err(format!("warm resubmission scheduled {scheduled:?} units")),
                }
            });
            if let Err(e) = verdict {
                tally.fail(e);
            }
        }
        Request::Report(n) => {
            let (name, file, _) = REPORTS[*n];
            let outcome = request_raw(&service.addr, "GET", &format!("/reports/{name}"), None);
            tally.record(Class::Report, start.elapsed());
            match outcome {
                Ok((200, bytes)) if expected.matches(file, &bytes) => {}
                Ok((200, _)) => tally.fail(format!("GET /reports/{name} differs from {file}")),
                Ok((status, _)) => tally.fail(format!("GET /reports/{name} answered {status}")),
                Err(e) => tally.fail(e.to_string()),
            }
        }
    }
}

/// Set-up state: one plan and history per client, after the warm-up block.
pub struct Clients {
    pub plans: Vec<Plan>,
    pub histories: Vec<History>,
}

/// Untimed warm-up of the set-up: one unshuffled block per client.
pub fn warm_up(
    service: &Service,
    seed: u64,
    seeds: &mut SeedSource,
    expected: &Expected,
) -> Result<Clients, String> {
    let mut clients = Clients {
        plans: (0..CLIENTS)
            .map(|c| Plan::new(c, Rng::new(seed, 0x5E41 + c as u64)))
            .collect(),
        histories: (0..CLIENTS).map(|_| History::new()).collect(),
    };
    let mut tally = Tally::default();
    for (plan, history) in clients.plans.iter_mut().zip(&mut clients.histories) {
        for request in plan.block(seeds, false) {
            execute(service, &request, history, expected, &mut tally);
        }
    }
    match tally.failures.first() {
        Some(e) => Err(e.clone()),
        None => Ok(clients),
    }
}

/// The measured phase: each client runs `blocks` blocks in a closed loop on
/// its own thread.
pub fn run(
    service: &Service,
    clients: &mut Clients,
    blocks: usize,
    seeds: &mut SeedSource,
    expected: &Expected,
) -> Tally {
    let requests: Vec<Vec<Request>> = clients
        .plans
        .iter_mut()
        .map(|plan| (0..blocks).flat_map(|_| plan.block(seeds, true)).collect())
        .collect();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .histories
            .iter_mut()
            .zip(&requests)
            .map(|(history, requests)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for request in requests {
                        execute(service, request, history, expected, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    total
}
