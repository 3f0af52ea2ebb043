//! The `momsim` command-line front end.
//!
//! One binary runs any experiment:
//!
//! ```text
//! momsim list                         # registered experiments + axis values
//! momsim run fig5 --json out.json     # a registered experiment
//! momsim run --kernels idct,motion1 --isas mom,mdmx \
//!            --widths 1,2,4,8 --memory l1l2          # an ad-hoc grid
//! momsim sweep --out-dir .            # regenerate every BENCH_*.json
//! ```
//!
//! Axis values are parsed with the `FromStr` implementations of
//! [`KernelId`], [`IsaKind`] and [`MemoryModel`], so a typo produces an
//! error listing the valid names instead of a panic.  All parsing returns
//! [`Result`]; `momsim` maps errors to exit status 2 (usage, including an
//! invalid experiment grid) or 1 (runtime failure).

use crate::json::Json;
use crate::spec::{find_experiment, registry, union_spec, ExperimentError, ExperimentSpec};
use crate::{fig4_from, fig5_from, tables_from, Report};
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::{MemoryModel, PipelineConfig, SamplingConfig};
use std::path::{Path, PathBuf};

/// A command-line failure: bad usage, a failed experiment run, or an I/O
/// error writing a report.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (unknown flag, unparsable axis value, missing operand).
    Usage(String),
    /// The experiment itself failed (invalid spec or kernel verification).
    Experiment(ExperimentError),
    /// Reading or writing a report file failed.
    Io(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) => f.write_str(message),
            CliError::Experiment(e) => write!(f, "{e}"),
            CliError::Io(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        CliError::Experiment(e)
    }
}

impl CliError {
    /// The conventional exit status: 2 for usage errors (an invalid
    /// experiment grid is one), 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::Experiment(ExperimentError::Spec(_)) => 2,
            _ => 1,
        }
    }
}

/// Prints the error (if any) to stderr and returns the process exit code.
fn finish(result: Result<(), CliError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

fn write_report(path: &Path, doc: &Json) -> Result<(), CliError> {
    std::fs::write(path, doc.pretty())
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn run_registered(name: &str, json: Option<PathBuf>, jobs: Option<usize>) -> Result<(), CliError> {
    let report = find_experiment(name)
        .map_err(CliError::Usage)?
        .run_with_jobs(jobs)?;
    print!("{}", report.text());
    if let Some(path) = json {
        write_report(&path, &report.json())?;
    }
    Ok(())
}

/// The combined document of the registered ablation series (what
/// `BENCH_ablations.json` holds, and what the daemon's
/// `GET /reports/ablations` replays): one top-level key per series, named
/// by the experiment with its `ablation-` prefix stripped (`lanes`, `rob`,
/// ...).
pub fn ablations_doc(series: &[(&'static str, Report)]) -> Json {
    let mut doc = vec![
        ("schema", Json::int(1)),
        ("experiment", Json::str("ablations")),
    ];
    for (name, report) in series {
        doc.push((
            name.strip_prefix("ablation-").unwrap_or(name),
            report.json(),
        ));
    }
    Json::obj(doc)
}

/// Extracts the global `--store DIR` / `--cold` options (valid on any
/// subcommand, in any position) from the argument list, leaving the
/// remaining arguments in place for the subcommand parsers.  Shared with
/// the `mom-serve` service commands, which honour the same flags.
pub fn extract_store_args(args: &mut Vec<String>) -> Result<mom_store::StoreConfig, CliError> {
    let mut config = mom_store::StoreConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                if i + 1 >= args.len() {
                    return Err(CliError::Usage("--store needs a directory argument".into()));
                }
                config.dir = Some(PathBuf::from(args.remove(i + 1)));
                args.remove(i);
            }
            "--cold" => {
                config.cold = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    Ok(config)
}

/// Installs the extracted store options as the process-global store
/// configuration (before any simulation touches the store).
pub fn configure_store(config: mom_store::StoreConfig) -> Result<(), CliError> {
    mom_store::configure(config).map_err(CliError::Usage)
}

/// Observability options valid on any subcommand, in any position
/// (extracted the same way as the store flags).  Shared with the
/// `mom-serve` service commands.
#[derive(Debug, Default)]
pub struct ObsArgs {
    /// `--trace-out FILE`: enable span tracing now, write the recorded
    /// spans as Chrome trace-event JSON to FILE when the command finishes.
    pub trace_out: Option<PathBuf>,
    /// `--stats`: print a Prometheus-format metrics snapshot after the
    /// command.
    pub stats: bool,
}

/// Extracts `--trace-out FILE` / `--stats` from the argument list, leaving
/// the remaining arguments for the subcommand parsers.
pub fn extract_obs_args(args: &mut Vec<String>) -> Result<ObsArgs, CliError> {
    let mut obs = ObsArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                if i + 1 >= args.len() {
                    return Err(CliError::Usage("--trace-out needs a file argument".into()));
                }
                obs.trace_out = Some(PathBuf::from(args.remove(i + 1)));
                args.remove(i);
            }
            "--stats" => {
                obs.stats = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    Ok(obs)
}

/// Applies the extracted observability options that must take effect
/// *before* the command runs (span recording).
pub fn configure_obs(obs: &ObsArgs) {
    if obs.trace_out.is_some() {
        mom_obs::enable_tracing();
    }
}

/// Applies the extracted observability options that run *after* the
/// command: writes the Chrome trace file and/or prints the metrics
/// snapshot.
pub fn finish_obs(obs: &ObsArgs) -> Result<(), CliError> {
    if let Some(path) = &obs.trace_out {
        std::fs::write(path, mom_obs::export_chrome_trace())
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
        eprintln!(
            "wrote {} ({} trace events)",
            path.display(),
            mom_obs::trace_event_count()
        );
    }
    if obs.stats {
        mom_store::publish_gauges();
        print!("{}", mom_obs::render_prometheus());
    }
    Ok(())
}

/// The `momsim cache` subcommand: `stats` (default), `path`, `gc`, `clear`.
fn cache_command(args: &[String]) -> Result<(), CliError> {
    if args.len() > 1 {
        return Err(CliError::Usage(
            "momsim cache takes one subcommand (stats, path, gc, clear)".into(),
        ));
    }
    let store = mom_store::global();
    match args.first().map(String::as_str) {
        None | Some("stats") => {
            print!("{}", store.report().format());
            Ok(())
        }
        Some("path") => {
            match store.dir() {
                Some(dir) => println!("{}", dir.display()),
                None => println!("(no disk tier)"),
            }
            Ok(())
        }
        Some("gc") => {
            let report = store
                .gc()
                .map_err(|e| CliError::Io(format!("cache gc: {e}")))?;
            println!(
                "gc: removed {} files ({} bytes), kept {} files ({} bytes)",
                report.removed_files, report.removed_bytes, report.kept_files, report.kept_bytes
            );
            Ok(())
        }
        Some("clear") => {
            let (files, bytes) = store
                .clear()
                .map_err(|e| CliError::Io(format!("cache clear: {e}")))?;
            println!("clear: removed {files} files ({bytes} bytes)");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown cache subcommand '{other}' (expected stats, path, gc, clear)"
        ))),
    }
}

/// One-line store summary printed after a sweep. The warm-run wording is
/// load-bearing: CI greps for `100% store hits` to prove the second sweep
/// of the job reused every artifact and recomputed nothing.
fn print_sweep_store_summary() {
    let store = mom_store::global();
    if !store.is_active() {
        println!("store: disabled (--cold)");
        return;
    }
    let results = store.counters(mom_store::NS_RESULT);
    let traces = store.counters(mom_store::NS_TRACE);
    let fills = results.fills + traces.fills;
    let hits = results.hits() + traces.hits();
    if fills == 0 && hits > 0 {
        println!("store: 100% store hits ({hits} artifacts reused, 0 recomputed)");
    } else {
        println!("store: {hits} hits, {fills} fills");
    }
}

/// The three registered experiments whose reports [`sweep_documents`]
/// derives from the one shared [`union_spec`] grid.
const UNION_GRID_EXPERIMENTS: [&str; 3] = ["fig4", "fig5", "tables"];

/// Computes every document `momsim sweep` writes, without touching the
/// filesystem: `(file name, document, points)` in write order. Split from
/// `run_sweep` so `momsim bench` can time it ([`crate::perf::time_full_set`])
/// and the incremental-sweep tests can byte-compare the exact documents a
/// cold and a warm sweep would emit.
pub fn sweep_documents(
    jobs: Option<usize>,
) -> Result<Vec<(&'static str, Json, usize)>, ExperimentError> {
    // The full registered-experiment set in one process: one measured pass
    // per (kernel, ISA) pair over the union grid feeds the three paper
    // reports, and every *other* registered experiment (the application
    // scenario layer, the ablations, anything registered later) runs on its
    // own — all of them replaying the same memoised functional traces, so
    // no kernel executes functionally more than once.  `jobs` sets the
    // thread count of each grid run; the documents never depend on it.
    let union = {
        let _span = mom_obs::span("sweep", "union-grids");
        let grid = union_spec().run_with_jobs(jobs)?;
        [
            ("BENCH_fig4.json", Report::Fig4(fig4_from(&grid))),
            ("BENCH_fig5.json", Report::Fig5(fig5_from(&grid))),
            ("BENCH_tables.json", Report::Tables(tables_from(&grid))),
        ]
    };
    let mut files: Vec<_> = union
        .into_iter()
        .map(|(name, report)| (name, report.json(), report.points()))
        .collect();
    let mut ablations: Vec<(&'static str, Report)> = Vec::new();
    for experiment in crate::spec::registry() {
        if UNION_GRID_EXPERIMENTS.contains(&experiment.name) {
            continue;
        }
        let report = {
            let _span = mom_obs::span_fmt("sweep", || format!("experiment {}", experiment.name));
            experiment.run_with_jobs(jobs)?
        };
        if experiment.name == "app-speedups" {
            let points = report.points();
            files.push(("BENCH_apps.json", report.json(), points));
        } else {
            ablations.push((experiment.name, report));
        }
    }
    let ablation_points = ablations.iter().map(|(_, r)| r.points()).sum();
    files.push((
        "BENCH_ablations.json",
        ablations_doc(&ablations),
        ablation_points,
    ));
    Ok(files)
}

fn run_sweep(out_dir: &Path, jobs: Option<usize>) -> Result<(), CliError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", out_dir.display())))?;
    for (name, doc, points) in sweep_documents(jobs)? {
        let path = out_dir.join(name);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| CliError::Io(format!("cannot write {name}: {e}")))?;
        println!("{:<22} {:>5} points", path.display(), points);
    }
    print_sweep_store_summary();
    Ok(())
}

/// Parses a `--jobs` operand: a positive worker count.
fn parse_jobs(value: &str) -> Result<usize, CliError> {
    let jobs: usize = value
        .parse()
        .map_err(|e| CliError::Usage(format!("--jobs: {e}")))?;
    if jobs == 0 {
        return Err(CliError::Usage(
            "--jobs needs a positive worker count".into(),
        ));
    }
    Ok(jobs)
}

fn sweep_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(PathBuf, Option<usize>), CliError> {
    let mut out_dir = PathBuf::from(".");
    let mut jobs = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return Err(CliError::Usage("--out-dir needs a value".into())),
            },
            "--jobs" => match args.next() {
                Some(n) => jobs = Some(parse_jobs(&n)?),
                None => return Err(CliError::Usage("--jobs needs a value".into())),
            },
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --out-dir DIR, --jobs N)"
                )))
            }
        }
    }
    Ok((out_dir, jobs))
}

const USAGE: &str = "\
momsim — declarative experiment runner for the MOM (SC'99) reproduction

USAGE:
  momsim list
      Show the registered experiments and the valid axis values.
  momsim run <experiment> [--json PATH] [--jobs N]
      Run a registered experiment (fig4, fig5, tables, app-speedups,
      ablation-lanes, ablation-rob); print the text report and optionally
      write the JSON. --jobs N runs the (kernel, ISA) pairs on N worker
      threads (default: one per core); the report never depends on it.
  momsim run [AXES] [--json PATH] [--jobs N]
      Run an ad-hoc scenario grid assembled from axis flags:
        --kernels K,K,..       kernel names, or 'all' (default: all)
        --isas I,I,..          isa names, 'all' or 'media' (default: all)
        --widths N,N,..        issue widths (default: 4)
        --memory M,M,..        memory models: a latency in cycles,
                               perfect, l2, main, cache/l1l2 (default: 1)
        --rob N,N,..           reorder-buffer sizes (default: 16 x width)
        --lanes N,N,..         multimedia lane counts (default: width-derived)
        --replication N        min dynamic instructions (default: 4000)
        --seed N               workload seed (default: 23705)
        --sampled [D:F:W]      estimate timing by systematic sampling
                               (D detailed, F fast-forward, W warm-up
                               instructions per interval; default 200:671:150)
                               instead of simulating every instruction
  momsim sweep [--out-dir DIR] [--jobs N]
      Regenerate the full registered-experiment set: BENCH_fig4.json,
      BENCH_fig5.json, BENCH_tables.json, BENCH_apps.json and
      BENCH_ablations.json, with every kernel executed functionally at most
      once (shared trace cache). Finished grid points persist in the
      artifact store, so a repeated sweep is incremental: unchanged points
      are read back instead of re-simulated. --jobs N runs the (kernel,
      ISA) pairs on N worker threads (default: one per core); the reports
      are byte-identical at any worker count.
  momsim bench [--quick] [--json PATH] [--check PATH]
      Measure engine throughput (optimized vs the retained naive reference),
      the wall time of the full registered-experiment set, and the sampled
      vs full grid comparison; optionally write BENCH_perf.json or verify a
      committed one (--check verifies the deterministic structure exactly
      and fails on engine speed-up regressions beyond the slack thresholds;
      raw wall times are ignored). Measurements bypass the artifact store;
      the cache diagnostic is printed after the report.
  momsim cache [stats|path|gc|clear]
      Inspect or maintain the persistent artifact store: hit/miss counters
      and the on-disk footprint (stats, the default), the store directory
      (path), removal of damaged or stale blobs (gc), full deletion (clear).
      The store directory also holds the daemon's crash journal
      (journal.wal); clearing the store discards it.
  momsim serve [--addr HOST:PORT] [--workers N] [--queue N] [--retain N]
               [--retries N] [--backoff MS] [--deadline SECS] [--no-journal]
               [--inject PLAN] [--log-level off|error|warn|info|debug]
      Run the simulation job-queue daemon: accept experiment submissions
      over HTTP, deduplicate grid points against the artifact store and
      against each other, and shard the missing ones across a worker pool.
      Serves live Prometheus metrics on GET /metrics; logs startup,
      shutdown and per-request lines at --log-level (default info); keeps
      at most --retain finished unit payloads in memory (default 1024),
      evicting the least recently used (the artifact store still holds
      everything). Workers are supervised: a unit that panics, fails
      transiently or exceeds --deadline SECS (default 300) is retried up
      to --retries times (default 3) with jittered backoff starting at
      --backoff MS (default 50). Accepted jobs are journaled to
      journal.wal in the store directory and re-admitted after a crash
      (--no-journal disables this). --inject PLAN enables the
      deterministic fault-injection harness for chaos testing, e.g.
      'seed=7,store-write=0.05,worker-panic=0.1:20,delay-ms=25' — never
      use it in production.
  momsim submit [--addr HOST:PORT] (<experiment> | AXES) [--wait] [--json PATH]
      Submit an experiment to a running daemon; --wait polls until the job
      finishes and prints a summary (--json writes the result rows), riding
      out daemon restarts of up to ten consecutive failed polls.
  momsim status [--addr HOST:PORT] [JOB]
      List a daemon's jobs, or show one job's progress and partial results.
  momsim report [--addr HOST:PORT] <name> [--out PATH]
      Replay a committed report (fig4, fig5, tables, apps, ablations)
      byte-identically from the daemon's store, without simulating.
  momsim shutdown [--addr HOST:PORT]
      Drain a running daemon: finish in-flight points, drop queued ones,
      reject new submissions, flush the store, and exit.
  momsim stats [--addr HOST:PORT]
      Print a metrics snapshot in Prometheus text format: this process's
      registry, or — with --addr — a running daemon's GET /metrics.

  Every client command (submit, status, report, shutdown, stats) also
  takes --retries N (default 2), --backoff MS (first retry delay,
  default 100) and --timeout SECS (socket deadline, default 120):
  connection failures and 503 responses are retried with jittered
  exponential backoff, so clients ride out daemon restarts.

OPTIONS (any command):
  --store DIR
      Root directory of the persistent artifact store (default:
      $MOMSIM_STORE, else target/mom-store next to the workspace root).
  --cold
      Disable the artifact store: recompute everything, read and write
      nothing. Reports are byte-identical either way.
  --trace-out FILE
      Record spans (store reads/writes, functional fills, timing
      simulation, job lifecycle) and write them as Chrome trace-event JSON
      to FILE when the command finishes (load in chrome://tracing or
      https://ui.perfetto.dev). Tracing is timing-neutral: reports stay
      byte-identical.
  --stats
      Print the process metrics registry (Prometheus text format) after
      the command.
";

/// The subcommands that talk to a running daemon and share its client
/// flags (`--retries`, `--backoff`, `--timeout`).
const CLIENT_COMMANDS: [&str; 5] = ["submit", "status", "report", "shutdown", "stats"];

/// The usage of one subcommand (`momsim <command> --help`): its entries
/// from [`USAGE`], plus the client-flag note for the daemon clients.
/// `None` for an unknown command.
pub fn command_usage(command: &str) -> Option<String> {
    let mut text = String::from("USAGE:\n");
    let mut found = false;
    let mut inside = false;
    for line in USAGE.lines() {
        if let Some(rest) = line.strip_prefix("  momsim ") {
            inside = rest.split_whitespace().next() == Some(command);
        } else if !line.starts_with("    ") {
            inside = false;
        }
        if inside {
            found = true;
            text.push_str(line);
            text.push('\n');
        }
    }
    if !found {
        return None;
    }
    if CLIENT_COMMANDS.contains(&command) {
        let note = &USAGE[USAGE.find("\n  Every client command").expect("client note")..];
        text.push_str(&note[..note.find("\n\n").expect("note ends in a blank line") + 1]);
    }
    text.push_str(
        "\nGlobal options (--store DIR, --cold, --trace-out FILE, --stats): see `momsim help`.\n",
    );
    Some(text)
}

fn list() {
    println!("registered experiments (momsim run <name>):");
    for e in registry() {
        println!("  {:<16} {}", e.name, e.description);
    }
    println!();
    println!("kernels (--kernels):");
    for k in KernelId::all() {
        println!(
            "  {:<10} {} [{}]",
            k.name(),
            k.description(),
            k.source_program()
        );
    }
    println!();
    println!("isas (--isas):");
    for i in IsaKind::all() {
        println!(
            "  {:<10} {}",
            i.name().to_ascii_lowercase(),
            i.description()
        );
    }
    println!();
    println!("applications (momsim run app-speedups):");
    for app in mom_apps::AppId::all() {
        let spec = app.spec();
        let phases = spec
            .phases
            .iter()
            .map(|p| p.kernel.name())
            .collect::<Vec<_>>()
            .join(" -> ");
        println!(
            "  {:<10} {} [{phases}; coverage {:.2}]",
            app.name(),
            app.description(),
            spec.coverage
        );
    }
    println!();
    println!("memory models (--memory): a latency in cycles, perfect, l2, main, cache/l1l2");
}

fn parse_list<T>(flag: &str, value: &str) -> Result<Vec<T>, CliError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let parsed: Result<Vec<T>, CliError> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|e: T::Err| CliError::Usage(format!("{flag}: {e}")))
        })
        .collect();
    let parsed = parsed?;
    if parsed.is_empty() {
        return Err(CliError::Usage(format!("{flag} needs at least one value")));
    }
    Ok(parsed)
}

/// Parsed ad-hoc grid axes of `momsim run --kernels .. --isas ..`.
#[derive(Debug, Default)]
struct GridArgs {
    kernels: Option<Vec<KernelId>>,
    isas: Option<Vec<IsaKind>>,
    widths: Option<Vec<usize>>,
    memory: Option<Vec<MemoryModel>>,
    rob: Option<Vec<usize>>,
    lanes: Option<Vec<usize>>,
    replication: Option<usize>,
    seed: Option<u64>,
    sampled: Option<SamplingConfig>,
    json: Option<PathBuf>,
    jobs: Option<usize>,
}

fn parse_grid_args(args: &[String]) -> Result<GridArgs, CliError> {
    let mut parsed = GridArgs::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--kernels" => {
                let v = value()?;
                parsed.kernels = Some(if v == "all" {
                    KernelId::ALL.to_vec()
                } else {
                    parse_list("--kernels", v)?
                });
            }
            "--isas" => {
                let v = value()?;
                parsed.isas = Some(match v {
                    "all" => IsaKind::ALL.to_vec(),
                    "media" => IsaKind::MEDIA.to_vec(),
                    _ => parse_list("--isas", v)?,
                });
            }
            "--widths" => parsed.widths = Some(parse_list("--widths", value()?)?),
            "--memory" => parsed.memory = Some(parse_list("--memory", value()?)?),
            "--rob" => parsed.rob = Some(parse_list("--rob", value()?)?),
            "--lanes" => parsed.lanes = Some(parse_list("--lanes", value()?)?),
            "--replication" => {
                parsed.replication = Some(
                    value()?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--replication: {e}")))?,
                )
            }
            "--seed" => {
                parsed.seed = Some(
                    value()?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--seed: {e}")))?,
                )
            }
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            "--jobs" => parsed.jobs = Some(parse_jobs(value()?)?),
            "--sampled" => {
                // The schedule operand is optional: `--sampled` alone uses
                // the default, `--sampled 200:671:150` overrides it.
                let schedule = match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        v.parse()
                            .map_err(|e| CliError::Usage(format!("--sampled: {e}")))?
                    }
                    _ => SamplingConfig::DEFAULT,
                };
                parsed.sampled = Some(schedule);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (see `momsim help`)"
                )))
            }
        }
    }
    Ok(parsed)
}

/// Assembles the [`ExperimentSpec`] of an ad-hoc grid: the cross product of
/// the width, memory, ROB and lane axes, each configuration built (and
/// validated) by [`PipelineConfig::builder`].
fn grid_spec(args: &GridArgs) -> Result<ExperimentSpec, CliError> {
    let mut spec = ExperimentSpec::default();
    if let Some(kernels) = &args.kernels {
        spec.kernels = kernels.clone();
    }
    if let Some(isas) = &args.isas {
        spec.isas = isas.clone();
    }
    if let Some(replication) = args.replication {
        spec.replication = replication;
    }
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    spec.sampling = args.sampled;
    let optional = |values: &Option<Vec<usize>>| -> Vec<Option<usize>> {
        match values {
            Some(values) => values.iter().copied().map(Some).collect(),
            None => vec![None],
        }
    };
    let mut configs = Vec::new();
    for &width in args.widths.as_deref().unwrap_or(&[4]) {
        for &memory in args.memory.as_deref().unwrap_or(&[MemoryModel::PERFECT]) {
            for rob in optional(&args.rob) {
                for lanes in optional(&args.lanes) {
                    let mut builder = PipelineConfig::builder().issue_width(width).memory(memory);
                    if let Some(rob) = rob {
                        builder = builder.rob(rob);
                    }
                    if let Some(lanes) = lanes {
                        builder = builder.lanes(lanes);
                    }
                    configs.push(builder.build().map_err(CliError::Usage)?);
                }
            }
        }
    }
    spec.configs = configs;
    Ok(spec)
}

/// Parsed arguments of `momsim bench`.
#[derive(Debug, Default)]
struct BenchArgs {
    quick: bool,
    json: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_bench_args(args: &[String]) -> Result<BenchArgs, CliError> {
    let mut parsed = BenchArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => match it.next() {
                Some(p) => parsed.json = Some(PathBuf::from(p)),
                None => return Err(CliError::Usage("--json needs a path argument".into())),
            },
            "--check" => match it.next() {
                Some(p) => parsed.check = Some(PathBuf::from(p)),
                None => return Err(CliError::Usage("--check needs a path argument".into())),
            },
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --quick, --json PATH, --check PATH)"
                )))
            }
        }
    }
    Ok(parsed)
}

fn run_bench(args: BenchArgs) -> Result<(), CliError> {
    let report = crate::perf::run(args.quick)?;
    print!("{}", crate::perf::format_perf(&report));
    // The cache diagnostic: the measurements above ran under a store
    // bypass (perf times the simulators, not the disk), so the counters
    // reflect other work in this process and the disk scan shows what the
    // persistent tier currently holds.
    println!();
    print!("{}", mom_store::global().report().format());
    if let Some(path) = &args.json {
        write_report(path, &crate::perf::perf_json(&report))?;
    }
    if let Some(path) = &args.check {
        let committed = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {}: {e}", path.display())))?;
        crate::perf::check_structure(&committed, &report).map_err(|detail| {
            CliError::Io(format!(
                "{} is stale (regenerate with `momsim bench --json {}`): {detail}",
                path.display(),
                path.display()
            ))
        })?;
        crate::perf::check_performance(&committed, &report).map_err(|detail| {
            CliError::Io(format!(
                "performance regression against {}: {detail}",
                path.display()
            ))
        })?;
        println!(
            "{}: structure is fresh, no performance regression",
            path.display()
        );
    }
    Ok(())
}

/// Parses the `--json PATH` / `--jobs N` options of a registered-experiment
/// run (`momsim run fig4 --jobs 2`).
fn registered_run_args(args: &[String]) -> Result<(Option<PathBuf>, Option<usize>), CliError> {
    let mut json = None;
    let mut jobs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--json" => json = Some(PathBuf::from(value()?)),
            "--jobs" => jobs = Some(parse_jobs(value()?)?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --json PATH, --jobs N)"
                )))
            }
        }
    }
    Ok((json, jobs))
}

fn run_command(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        // `momsim run <registered> [--json PATH] [--jobs N]`
        Some(name) if !name.starts_with("--") => {
            let (json, jobs) = registered_run_args(&args[1..])?;
            run_registered(name, json, jobs)
        }
        // `momsim run --kernels .. --isas ..` (an ad-hoc grid)
        Some(_) => {
            let parsed = parse_grid_args(args)?;
            let spec = grid_spec(&parsed)?;
            let report = Report::Grid(spec.run_with_jobs(parsed.jobs)?);
            print!("{}", report.text());
            if let Some(path) = &parsed.json {
                write_report(path, &report.json())?;
            }
            Ok(())
        }
        None => Err(CliError::Usage(
            "momsim run needs an experiment name or axis flags (see `momsim help`)".into(),
        )),
    }
}

/// Entry point of the `momsim` binary; returns the process exit code.
pub fn momsim_main() -> i32 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match extract_store_args(&mut args).and_then(configure_store) {
        Ok(()) => {}
        Err(e) => return finish(Err(e)),
    }
    let obs = match extract_obs_args(&mut args) {
        Ok(obs) => obs,
        Err(e) => return finish(Err(e)),
    };
    configure_obs(&obs);
    let code = match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                return finish(Err(CliError::Usage(
                    "momsim list takes no arguments".into(),
                )));
            }
            list();
            0
        }
        Some("run") => finish(run_command(&args[1..])),
        Some("sweep") => {
            finish(sweep_args(args[1..].to_vec()).and_then(|(dir, jobs)| run_sweep(&dir, jobs)))
        }
        Some("bench") => finish(parse_bench_args(&args[1..]).and_then(run_bench)),
        Some("cache") => finish(cache_command(&args[1..])),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => finish(Err(CliError::Usage(format!(
            "unknown command '{other}' (see `momsim help`)"
        )))),
        None => {
            eprint!("{USAGE}");
            2
        }
    };
    if code == 0 {
        return finish(finish_obs(&obs));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn grid_args_assemble_the_cross_product() {
        let parsed = parse_grid_args(&strs(&[
            "--kernels",
            "idct,motion1",
            "--isas",
            "mom,mdmx",
            "--widths",
            "1,2,4,8",
            "--memory",
            "l1l2",
        ]))
        .unwrap();
        let spec = grid_spec(&parsed).unwrap();
        assert_eq!(spec.kernels, vec![KernelId::Idct, KernelId::Motion1]);
        assert_eq!(spec.isas, vec![IsaKind::Mom, IsaKind::Mdmx]);
        assert_eq!(spec.configs.len(), 4);
        assert!(spec.configs.iter().all(|c| c.memory == MemoryModel::CACHE));
        assert_eq!(
            spec.configs.iter().map(|c| c.width).collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
        spec.validate().unwrap();
    }

    #[test]
    fn grid_args_sweep_rob_and_lanes() {
        let parsed = parse_grid_args(&strs(&[
            "--rob",
            "16,32",
            "--lanes",
            "1,2",
            "--seed",
            "7",
            "--replication",
            "100",
        ]))
        .unwrap();
        let spec = grid_spec(&parsed).unwrap();
        assert_eq!(spec.configs.len(), 4, "2 rob x 2 lane values");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.replication, 100);
        assert_eq!(spec.kernels.len(), KernelId::ALL.len(), "default axis");
        let robs: Vec<usize> = spec.configs.iter().map(|c| c.rob_size).collect();
        assert_eq!(robs, vec![16, 16, 32, 32]);
        let lanes: Vec<usize> = spec.configs.iter().map(|c| c.media_lanes).collect();
        assert_eq!(lanes, vec![1, 2, 1, 2]);
    }

    #[test]
    fn sampled_flag_takes_an_optional_schedule() {
        let parsed = parse_grid_args(&strs(&["--sampled", "--widths", "2"])).unwrap();
        assert_eq!(parsed.sampled, Some(SamplingConfig::DEFAULT));
        let spec = grid_spec(&parsed).unwrap();
        assert_eq!(spec.sampling, Some(SamplingConfig::DEFAULT));

        let parsed = parse_grid_args(&strs(&["--sampled", "100:900:20"])).unwrap();
        assert_eq!(
            parsed.sampled,
            Some(SamplingConfig {
                detailed: 100,
                fastforward: 900,
                warmup: 20,
            })
        );

        let err = parse_grid_args(&strs(&["--sampled", "nonsense"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        assert_eq!(parse_grid_args(&strs(&[])).unwrap().sampled, None);
    }

    #[test]
    fn store_flags_extract_from_any_position() {
        let mut args = strs(&["sweep", "--store", "/tmp/s", "--out-dir", ".", "--cold"]);
        let config = extract_store_args(&mut args).unwrap();
        assert_eq!(config.dir, Some(PathBuf::from("/tmp/s")));
        assert!(config.cold);
        assert_eq!(args, strs(&["sweep", "--out-dir", "."]));

        let err = extract_store_args(&mut strs(&["--store"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        let mut args = strs(&["run", "fig4"]);
        let config = extract_store_args(&mut args).unwrap();
        assert!(config.dir.is_none());
        assert!(!config.cold);
        assert_eq!(args, strs(&["run", "fig4"]), "untouched without flags");
    }

    #[test]
    fn jobs_flag_parses_on_every_command() {
        let (dir, jobs) = sweep_args(strs(&["--jobs", "3", "--out-dir", "/tmp/x"])).unwrap();
        assert_eq!(dir, PathBuf::from("/tmp/x"));
        assert_eq!(jobs, Some(3));
        assert_eq!(sweep_args(strs(&[])).unwrap().1, None);
        let err = sweep_args(strs(&["--jobs", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = sweep_args(strs(&["--jobs", "many"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        let parsed = parse_grid_args(&strs(&["--jobs", "2", "--widths", "4"])).unwrap();
        assert_eq!(parsed.jobs, Some(2));

        let (json, jobs) =
            registered_run_args(&strs(&["--json", "o.json", "--jobs", "2"])).unwrap();
        assert_eq!(json, Some(PathBuf::from("o.json")));
        assert_eq!(jobs, Some(2));
        let err = registered_run_args(&strs(&["--frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn bad_axis_values_report_the_valid_names() {
        let err = parse_grid_args(&strs(&["--kernels", "fft"])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("idct"), "{text}");
        assert_eq!(err.exit_code(), 2);
        let err = parse_grid_args(&strs(&["--isas", "sse"])).unwrap_err();
        assert!(err.to_string().contains("mdmx"));
        let err = parse_grid_args(&strs(&["--memory", "dram"])).unwrap_err();
        assert!(err.to_string().contains("l1l2"));
        let err = parse_grid_args(&strs(&["--widths", "x"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // Invalid machine axes surface the builder's validation message.
        let parsed = parse_grid_args(&strs(&["--widths", "0"])).unwrap();
        let err = grid_spec(&parsed).unwrap_err();
        assert!(err.to_string().contains("issue width"), "{err}");
    }
}
