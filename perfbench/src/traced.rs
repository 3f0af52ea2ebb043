//! The traced run: each workload's call sequence replayed one crate at a
//! time from this file, with a `mom-obs` span and a timer around every
//! public call, so each end-to-end number splits into per-crate self time.
//!
//! The replay calls the crates' public functions directly instead of the
//! composed paths (`ExperimentSpec::run`, the daemon's HTTP routes): the
//! pipeline of one grid point is `run_kernel` → `encode_trace` →
//! `put_disk` → `replay_into(PipelineFanout)` → `encode_point` → `put` →
//! report emission, and a service request is `parse_submit` +
//! `Daemon::submit` → `Daemon::wait` → `job_doc`.  None of these calls
//! nest, so a crate's self time is the sum of its spans.

use crate::measure::{median, ms, Class, Tally};
use crate::reports::{self, Expected, Ran, EXPERIMENTS, REPORTS};
use crate::service::{self, History, Plan, Request, Service};
use mom_arch::TraceStats;
use mom_bench::store::{decode_point, encode_point, result_key};
use mom_bench::{
    invocations_for, ExperimentPoint, GridResult, Report, EXPERIMENT_SEED,
    STEADY_STATE_INSTRUCTIONS,
};
use mom_isa::IsaKind;
use mom_kernels::{run_kernel, KernelId, KernelRun};
use mom_pipeline::{MemoryModel, PipelineConfig, PipelineFanout};
use mom_store::{Key, NS_RESULT, NS_TRACE};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The crates a layer table reports, in pipeline order.
pub const CRATES: [&str; 7] = [
    "mom-kernels",
    "mom-arch",
    "mom-pipeline",
    "mom-apps",
    "mom-store",
    "mom-bench",
    "mom-serve",
];

#[derive(Debug, Default, Clone)]
struct Op {
    nanos: u128,
    calls: u64,
    max_nanos: u128,
}

/// Per-(crate, call) busy time and call counts, plus the exact counts the
/// replay observes.
#[derive(Debug, Default)]
pub struct Layers {
    ops: BTreeMap<(&'static str, &'static str), Op>,
    counts: BTreeMap<&'static str, u64>,
    /// Slowest single `run_kernel` per "kernel/ISA", in milliseconds.
    fill_max_ms: BTreeMap<String, f64>,
    pub rtt_ms: Vec<f64>,
}

impl Layers {
    /// Runs one public call of `krate` inside a span and a timer.
    pub fn time<T>(&mut self, krate: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = mom_obs::span(krate, call);
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos();
        let op = self.ops.entry((krate, call)).or_default();
        op.nanos += nanos;
        op.calls += 1;
        op.max_nanos = op.max_nanos.max(nanos);
        out
    }

    pub fn add(&mut self, count: &'static str, n: u64) {
        *self.counts.entry(count).or_default() += n;
    }

    pub fn count(&self, count: &str) -> u64 {
        self.counts.get(count).copied().unwrap_or(0)
    }

    fn op(&self, krate: &str, call: &str) -> Op {
        self.ops
            .iter()
            .find(|((k, c), _)| *k == krate && *c == call)
            .map(|(_, op)| op.clone())
            .unwrap_or_default()
    }

    /// Busy milliseconds of `krate` over the given calls (all calls when
    /// `calls` is empty).
    pub fn ms(&self, krate: &str, calls: &[&str]) -> f64 {
        self.ops
            .iter()
            .filter(|((k, c), _)| *k == krate && (calls.is_empty() || calls.contains(c)))
            .fold(0.0, |sum, (_, op)| sum + op.nanos as f64 / 1e6)
    }

    pub fn total_ms(&self) -> f64 {
        self.ops
            .values()
            .fold(0.0, |sum, op| sum + op.nanos as f64 / 1e6)
    }

    fn max_ms(&self, krate: &str, call: &str) -> f64 {
        self.op(krate, call).max_nanos as f64 / 1e6
    }

    /// Times `run_kernel`, keeping the slowest call per kernel and ISA.
    fn fill(&mut self, kernel: KernelId, isa: IsaKind, seed: u64) -> Result<KernelRun, String> {
        let start = Instant::now();
        let run = self.time("mom-kernels", "run_kernel", || {
            run_kernel(kernel, isa, seed, 1)
        });
        let elapsed = ms(start.elapsed());
        let slowest = self
            .fill_max_ms
            .entry(format!("{kernel:?}/{isa:?}"))
            .or_default();
        *slowest = slowest.max(elapsed);
        self.add("fills", 1);
        run.map_err(|e| format!("{kernel:?}/{isa:?}@{seed}: {e}"))
    }

    /// The three slowest functional fills by kernel and ISA, plus Idct/Mmx
    /// (the fill outlier of earlier whole-sweep traces, whose fill span
    /// also covered the trace's store write).
    pub fn slowest_fills(&self) -> String {
        if self.fill_max_ms.is_empty() {
            return "no functional fills".to_string();
        }
        let mut fills: Vec<(&String, &f64)> = self.fill_max_ms.iter().collect();
        fills.sort_by(|a, b| b.1.total_cmp(a.1));
        let mut out: Vec<String> = fills
            .iter()
            .take(3)
            .map(|(k, v)| format!("{k} {v:.2} ms"))
            .collect();
        if let Some(v) = self.fill_max_ms.get("Idct/Mmx") {
            out.push(format!("Idct/Mmx {v:.2} ms"));
        }
        format!(
            "slowest run_kernel: {}; slowest store put_disk {:.2} ms, put {:.2} ms",
            out.join(", "),
            self.max_ms("mom-store", "put_disk"),
            self.max_ms("mom-store", "put")
        )
    }

    /// The per-crate table: self time, share of the traced wall time and
    /// calls.
    pub fn table(&self, wall_ms: f64) -> String {
        let mut out = format!(
            "{:<14} {:>11} {:>8} {:>9}\n",
            "crate", "self ms", "share", "calls"
        );
        for krate in CRATES {
            let calls: u64 = self
                .ops
                .iter()
                .filter(|((k, _), _)| *k == krate)
                .map(|(_, op)| op.calls)
                .sum();
            let self_ms = self.ms(krate, &[]);
            out.push_str(&format!(
                "{krate:<14} {self_ms:>11.1} {:>7.1}% {calls:>9}\n",
                100.0 * self_ms / wall_ms.max(1e-9)
            ));
        }
        out
    }
}

/// Fans one trace out over `configs` and returns one point per config.
fn simulate(
    layers: &mut Layers,
    run: &KernelRun,
    configs: &[PipelineConfig],
    replication: usize,
) -> Vec<ExperimentPoint> {
    let invocations = invocations_for(replication, run.trace.len());
    let mut points = Vec::with_capacity(configs.len());
    for (perfect, call) in [(true, "replay_perfect"), (false, "replay_cache")] {
        let group: Vec<PipelineConfig> = configs
            .iter()
            .filter(|c| matches!(c.memory, MemoryModel::Fixed { .. }) == perfect)
            .cloned()
            .collect();
        if group.is_empty() {
            continue;
        }
        let (stats, results) = layers.time("mom-pipeline", call, || {
            let mut stats = TraceStats::default();
            let mut fanout = PipelineFanout::new(group.iter().cloned());
            run.trace
                .replay_into(invocations, &mut (&mut stats, &mut fanout));
            (stats, fanout.finish())
        });
        let instructions: u64 = results.iter().map(|r| r.instructions).sum();
        layers.add(
            if perfect {
                "instr_perfect"
            } else {
                "instr_cache"
            },
            instructions,
        );
        layers.add("timing_sims", results.len() as u64);
        for (config, result) in group.iter().zip(results) {
            points.push(ExperimentPoint {
                kernel: run.kernel,
                isa: run.isa,
                width: config.width,
                mem_latency: config.memory.base_latency(),
                memory: config.memory.label(),
                invocations,
                result,
                stats,
            });
        }
    }
    // Back into the caller's config order.
    configs
        .iter()
        .map(|c| {
            let i = points
                .iter()
                .position(|p| p.width == c.width && p.memory == c.memory.label())
                .expect("one point per config");
            points.swap_remove(i)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// sweep-cold
// ---------------------------------------------------------------------------

fn grid_experiments() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.into_iter().filter(|n| *n != "app-speedups")
}

/// Renders every registered experiment at `seed` from stored points: a
/// store read and a point decode per grid point, then report emission.
fn stored_runs(layers: &mut Layers, seed: u64, names: &[&'static str]) -> Result<Vec<Ran>, String> {
    let store = mom_store::global();
    let mut runs = Vec::new();
    for &name in names {
        let report = match reports::spec_at(name, seed) {
            Some(spec) => {
                let mut points = Vec::with_capacity(spec.points());
                for &kernel in &spec.kernels {
                    for &isa in &spec.isas {
                        for config in &spec.configs {
                            let key = layers.time("mom-bench", "result_key", || {
                                result_key(kernel, isa, seed, config, spec.replication, None)
                            });
                            let bytes = layers
                                .time("mom-store", "get", || store.get(NS_RESULT, key))
                                .ok_or_else(|| format!("{name}@{seed}: point not stored"))?;
                            let point = layers
                                .time("mom-bench", "decode_point", || decode_point(&bytes))
                                .map_err(|e| format!("{name}@{seed}: {e}"))?;
                            points.push(point);
                        }
                    }
                }
                let grid = GridResult { spec, points };
                layers.time("mom-bench", "emit", || reports::derive(name, &grid))
            }
            None => {
                let rows = layers
                    .time("mom-store", "get", || {
                        mom_bench::store::cached_app_speedups(
                            &mom_apps::reference_config(),
                            seed,
                            mom_apps::DEFAULT_FRAMES,
                        )
                    })
                    .ok_or_else(|| format!("{name}@{seed}: app rows not stored"))?;
                Report::Apps(rows)
            }
        };
        runs.push(Ran {
            name,
            report,
            points: 0,
            instructions: 0,
            digest: None,
        });
    }
    Ok(runs)
}

/// One traced sweep repetition: the union of the five grids' points at
/// `seed` (each trace functionally executed, encoded and stored once, then
/// fanned out over every config any experiment needs), the application
/// scenario, report emission; then the warm repeat and the report replays
/// from the store.
fn sweep_rep(layers: &mut Layers, seed: u64, expected: &Expected, tally: &mut Tally) {
    let store = mom_store::global();
    let start = Instant::now();
    let specs: Vec<_> = grid_experiments()
        .map(|n| (n, reports::spec_at(n, seed).expect("grid experiment")))
        .collect();
    let mut stored: HashMap<Key, ExperimentPoint> = HashMap::new();
    for &kernel in KernelId::ALL.iter() {
        for &isa in IsaKind::ALL.iter() {
            let mut configs: Vec<PipelineConfig> = Vec::new();
            for (_, spec) in &specs {
                if spec.kernels.contains(&kernel) && spec.isas.contains(&isa) {
                    for c in &spec.configs {
                        if !configs.contains(c) {
                            configs.push(c.clone());
                        }
                    }
                }
            }
            let run = match layers.fill(kernel, isa, seed) {
                Ok(run) => run,
                Err(e) => {
                    tally.fail(e);
                    continue;
                }
            };
            let key = layers.time("mom-kernels", "trace_key", || {
                mom_kernels::trace_content_key(kernel, isa, seed)
            });
            let blob = layers.time("mom-arch", "encode_trace", || {
                mom_arch::codec::encode_trace(&run.trace, &run.stats)
            });
            layers.add("codec_bytes", blob.len() as u64);
            layers.time("mom-store", "put_disk", || {
                store.put_disk(NS_TRACE, key, &blob)
            });
            layers.add("bytes_written", blob.len() as u64);
            for (config, point) in
                configs
                    .iter()
                    .zip(simulate(layers, &run, &configs, STEADY_STATE_INSTRUCTIONS))
            {
                let bytes = layers.time("mom-bench", "encode_point", || encode_point(&point));
                let key = layers.time("mom-bench", "result_key", || {
                    result_key(kernel, isa, seed, config, STEADY_STATE_INSTRUCTIONS, None)
                });
                layers.add("bytes_written", bytes.len() as u64);
                layers.time("mom-store", "put", || store.put(NS_RESULT, key, bytes));
                stored.insert(key, point);
            }
        }
    }
    let apps = layers.time("mom-apps", "app_speedups", || {
        mom_bench::store::stored_app_speedups(
            &mom_apps::reference_config(),
            seed,
            mom_apps::DEFAULT_FRAMES,
        )
    });
    let mut cold_docs: Vec<(&'static str, String)> = Vec::new();
    match apps {
        Ok(rows) => {
            let doc = layers.time("mom-bench", "emit", || Report::Apps(rows).json().pretty());
            cold_docs.push(("app-speedups", doc));
        }
        Err(e) => tally.fail(e.to_string()),
    }
    for (name, spec) in specs {
        let mut points = Vec::with_capacity(spec.points());
        for &kernel in &spec.kernels {
            for &isa in &spec.isas {
                for config in &spec.configs {
                    let key = layers.time("mom-bench", "result_key", || {
                        result_key(kernel, isa, seed, config, spec.replication, None)
                    });
                    if let Some(p) = stored.get(&key) {
                        points.push(p.clone());
                    }
                }
            }
        }
        if points.len() != spec.points() {
            tally.fail(format!("{name}@{seed}: missing points"));
            continue;
        }
        tally.cold_points += points.len() as u64;
        tally.cold_instructions += points.iter().map(|p| p.result.instructions).sum::<u64>();
        let grid = GridResult { spec, points };
        let doc = layers.time("mom-bench", "emit", || {
            reports::derive(name, &grid).json().pretty()
        });
        cold_docs.push((name, doc));
    }
    tally.record(Class::Cold, start.elapsed());
    // Warm: every experiment again, now served from the store.
    let start = Instant::now();
    match stored_runs(layers, seed, &EXPERIMENTS) {
        Ok(runs) => {
            for run in &runs {
                let doc = layers.time("mom-bench", "emit", || run.report.json().pretty());
                let same = cold_docs.iter().any(|(n, d)| *n == run.name && *d == doc);
                tally.check(same, || {
                    format!("warm {}@{seed} differs from its cold run", run.name)
                });
            }
        }
        Err(e) => tally.fail(e),
    }
    tally.record(Class::Warm, start.elapsed());
    replay_reports(
        layers,
        &REPORTS.iter().map(|r| r.0).collect::<Vec<_>>(),
        expected,
        tally,
    );
}

/// Replays committed reports from the store, in-process, and checks each
/// against its file.
fn replay_reports(layers: &mut Layers, names: &[&str], expected: &Expected, tally: &mut Tally) {
    for (name, file, experiments) in REPORTS {
        if !names.contains(&name) {
            continue;
        }
        let start = Instant::now();
        let doc = stored_runs(layers, EXPERIMENT_SEED, experiments).map(|runs| {
            layers.time("mom-bench", "emit", || {
                reports::render(file, &runs.iter().collect::<Vec<_>>())
            })
        });
        tally.record(Class::Report, start.elapsed());
        match doc {
            Ok(doc) if expected.matches(file, doc.as_bytes()) => {}
            Ok(_) => tally.fail(format!("report replay differs from {file}")),
            Err(e) => tally.fail(e),
        }
    }
}

pub fn sweep(layers: &mut Layers, seeds: &[u64], expected: &Expected) -> Tally {
    let mut tally = Tally::default();
    for &seed in seeds {
        sweep_rep(layers, seed, expected, &mut tally);
    }
    tally
}

// ---------------------------------------------------------------------------
// service-mix
// ---------------------------------------------------------------------------

/// One service request through the daemon's public calls, on the calling
/// thread; every request also measures one `GET /healthz` round trip.
fn service_request(
    layers: &mut Layers,
    svc: &Service,
    request: &Request,
    history: &mut History,
    expected: &Expected,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let healthy = layers.time("mom-serve", "http_rtt", || {
        mom_serve::client::request_raw(&svc.addr, "GET", "/healthz", None)
    });
    layers.rtt_ms.push(ms(start.elapsed()));
    if !matches!(healthy, Ok((200, _))) {
        tally.fail("GET /healthz failed".to_string());
    }
    let start = Instant::now();
    let body = match request {
        Request::Cold(body) => body.clone(),
        Request::Warm(n) => match history.get(*n) {
            Some((body, _)) => body.clone(),
            None => {
                tally.fail(format!("warm request names cold grid {n}, which failed"));
                return;
            }
        },
        Request::Report(n) => {
            replay_reports(layers, &[REPORTS[*n].0], expected, tally);
            return;
        }
    };
    let daemon = svc.daemon();
    let outcome = layers.time("mom-serve", "submit", || {
        let doc = mom_serve::json::parse(&body).map_err(|e| e.to_string())?;
        let request = mom_serve::wire::parse_submit(&doc)?;
        daemon.submit(request).map_err(|e| e.to_string())
    });
    let result = outcome.and_then(|accepted| {
        layers.add("units_scheduled", accepted.scheduled as u64);
        layers.add("units_reused", (accepted.deduped + accepted.shared) as u64);
        let snapshot = layers
            .time("mom-serve", "wait", || daemon.wait(accepted.job))
            .ok_or("the daemon forgot the job")?;
        let doc = layers.time("mom-serve", "jobdoc", || {
            let text = mom_serve::wire::job_doc(&snapshot).to_string();
            mom_serve::json::parse(&text).map_err(|e| e.to_string())
        })?;
        Ok((accepted.scheduled, service::check_cold(&doc)?))
    });
    match (request, result) {
        (Request::Cold(body), Ok((_, (rows, points, instructions)))) => {
            tally.record(Class::Cold, start.elapsed());
            tally.cold_points += points;
            tally.cold_instructions += instructions;
            history.push((body.clone(), rows));
        }
        (Request::Warm(n), Ok((scheduled, (rows, _, _)))) => {
            tally.record(Class::Warm, start.elapsed());
            let same = history[*n].1 == rows;
            tally.check(scheduled == 0 && same, || {
                "warm resubmission differs from its cold original".to_string()
            });
        }
        (_, Err(e)) => {
            tally.attempted += 1;
            tally.fail(e);
        }
        (Request::Report(_), Ok(_)) => unreachable!("reports return early"),
    }
}

/// Both clients' blocks, interleaved block by block on one thread, so the
/// spans never overlap and their sum can be set against the wall time.
pub fn service(
    layers: &mut Layers,
    svc: &Service,
    plans: &mut [Plan],
    histories: &mut [History],
    blocks: usize,
    seeds: &mut crate::measure::SeedSource,
    expected: &Expected,
) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..blocks {
        for (plan, history) in plans.iter_mut().zip(histories.iter_mut()) {
            for request in plan.block(seeds, true) {
                service_request(layers, svc, &request, history, expected, &mut tally);
            }
        }
    }
    tally
}

/// The per-layer metrics of a traced pass, by `BENCHMARK.json` name.
pub fn metrics(
    layers: &Layers,
    wall_ms: f64,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let store = |c: &[&str]| layers.ms("mom-store", c);
    let per_instr = |call: &str, count: &str| {
        let n = layers.count(count);
        if n == 0 {
            0.0
        } else {
            layers.ms("mom-pipeline", &[call]) * 1e6 / n as f64
        }
    };
    vec![
        ("mom-kernels.fill_ms", layers.ms("mom-kernels", &[]), "ms"),
        ("mom-kernels.fills", layers.count("fills") as f64, "count"),
        (
            "mom-kernels.fill_max_ms",
            layers.max_ms("mom-kernels", "run_kernel"),
            "ms",
        ),
        ("mom-arch.codec_ms", layers.ms("mom-arch", &[]), "ms"),
        (
            "mom-arch.codec_bytes",
            layers.count("codec_bytes") as f64,
            "bytes",
        ),
        ("mom-pipeline.sim_ms", layers.ms("mom-pipeline", &[]), "ms"),
        (
            "mom-pipeline.ns_per_instr_perfect",
            per_instr("replay_perfect", "instr_perfect"),
            "ns",
        ),
        (
            "mom-pipeline.ns_per_instr_cache",
            per_instr("replay_cache", "instr_cache"),
            "ns",
        ),
        (
            "mom-pipeline.sim_instructions",
            (layers.count("instr_perfect") + layers.count("instr_cache")) as f64,
            "count",
        ),
        (
            "mom-pipeline.timing_sims",
            layers.count("timing_sims") as f64,
            "count",
        ),
        ("mom-apps.app_ms", layers.ms("mom-apps", &[]), "ms"),
        ("mom-store.put_ms", store(&["put", "put_disk"]), "ms"),
        ("mom-store.puts", layers.count("puts") as f64, "count"),
        (
            "mom-store.bytes_written",
            layers.count("bytes_written") as f64,
            "bytes",
        ),
        ("mom-store.get_ms", store(&["get"]), "ms"),
        (
            "mom-store.hit_ratio",
            ratio(layers.count("hits"), layers.count("lookups")),
            "share",
        ),
        ("mom-store.lookups", layers.count("lookups") as f64, "count"),
        (
            "mom-bench.encode_ms",
            layers.ms("mom-bench", &["encode_point", "decode_point", "result_key"]),
            "ms",
        ),
        ("mom-bench.emit_ms", layers.ms("mom-bench", &["emit"]), "ms"),
        ("mom-serve.http_rtt_ms", median(&layers.rtt_ms), "ms"),
        (
            "mom-serve.submit_ms",
            layers.ms("mom-serve", &["submit"]),
            "ms",
        ),
        ("mom-serve.wait_ms", layers.ms("mom-serve", &["wait"]), "ms"),
        (
            "mom-serve.jobdoc_ms",
            layers.ms("mom-serve", &["jobdoc"]),
            "ms",
        ),
        (
            "mom-serve.units_scheduled",
            layers.count("units_scheduled") as f64,
            "count",
        ),
        (
            "mom-serve.units_reused",
            layers.count("units_reused") as f64,
            "count",
        ),
        (
            "trace.coverage",
            layers.total_ms() / wall_ms.max(1e-9),
            "share",
        ),
        ("trace.overhead", overhead, "ratio"),
    ]
}

fn ratio(n: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        n as f64 / base as f64
    }
}

/// The store's hits, lookups and fills so far, over both namespaces.  They
/// include the daemon workers' store traffic, which the replay's own spans
/// do not see.
pub fn store_counters() -> [u64; 3] {
    let store = mom_store::global();
    [NS_RESULT, NS_TRACE].iter().fold([0; 3], |[h, l, f], ns| {
        let c = store.counters(ns);
        [h + c.hits(), l + c.hits() + c.misses, f + c.fills]
    })
}
