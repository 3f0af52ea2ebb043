//! The `momsim` command line: list registered experiments, run any
//! registered or ad-hoc scenario grid, regenerate the `BENCH_*.json`
//! reports, measure the simulator's own performance, run the job-queue
//! simulation daemon, or talk to one.
//!
//! Usage (see `momsim help`):
//!
//! ```text
//! momsim list
//! momsim run fig5 --json BENCH_fig5.json
//! momsim run --kernels idct,motion1 --isas mom,mdmx --widths 1,2,4,8 --memory l1l2
//! momsim sweep --out-dir . --jobs 4
//! momsim bench --json BENCH_perf.json
//! momsim serve --workers 4 &
//! momsim submit fig4 --wait
//! momsim submit --kernels idct --isas media --widths 2,4 --sampled --wait
//! momsim report fig4 --out BENCH_fig4.json
//! momsim stats --addr 127.0.0.1:5099
//! momsim shutdown
//! ```
//!
//! This file is the one entry point.  It extracts the global flags
//! (`--store DIR`, `--cold`, `--trace-out FILE`, `--stats`) once, installs
//! the store configuration for every command except the five daemon
//! clients, and dispatches all eleven commands — the batch ones in
//! `mom_bench::cli`, the service ones in `mom_serve::cli` — through one
//! error-to-exit-code path (0 success, 2 usage, 1 runtime failure).

use momsim::bench::cli::{self as batch, CliError};
use momsim::serve::cli as service;

const USAGE: &str = "\
momsim — declarative experiment runner for the MOM (SC'99) reproduction

USAGE:
  momsim list
      Show the registered experiments and the valid axis values.
  momsim run <experiment> [--json PATH] [--jobs N]
      Run a registered experiment (fig4, fig5, tables, app-speedups,
      ablation-lanes, ablation-rob); print the report as text (the
      scalar header fields, then one line per JSON row under the JSON
      keys) and optionally write the JSON. --jobs N runs the (kernel,
      ISA) pairs on N worker threads (default: one per core); the report
      never depends on it.
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
  momsim submit [--addr HOST:PORT] (<experiment> | AXES [--label NAME])
                [--wait] [--json PATH]
      Submit an experiment to a running daemon. AXES are exactly the axis
      flags of `momsim run`, and the submission is validated before it is
      sent: a bad axis value, an invalid grid or an unknown experiment
      exits 2 without contacting the daemon. --wait polls until the job
      finishes and prints a summary (--json writes the result rows), riding
      out daemon restarts of up to ten consecutive failed polls.
  momsim status [--addr HOST:PORT] [JOB]
      List a daemon's jobs, or show one job's progress and partial results.
  momsim report [--addr HOST:PORT] <name> [--out PATH]
      Replay a committed report (fig4, fig5, tables, apps, ablations) or
      one registered experiment's report byte-identically from the
      daemon's store, without simulating. An unknown name exits 2
      before connecting.
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
fn command_usage(command: &str) -> Option<String> {
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

/// Runs one command line (without the program name).
fn dispatch(mut args: Vec<String>) -> Result<(), CliError> {
    let store = batch::extract_store_args(&mut args)?;
    let obs = batch::extract_obs_args(&mut args)?;
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("", &[][..]),
    };
    // `momsim <command> --help` (or `-h`) prints that command's usage.
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        if let Some(usage) = command_usage(command) {
            print!("{usage}");
            return Ok(());
        }
    }
    // The daemon owns the store; its clients never touch one.
    if !CLIENT_COMMANDS.contains(&command) {
        batch::configure_store(store)?;
    }
    batch::configure_obs(&obs);
    match command {
        "list" => batch::list_command(rest),
        "run" => batch::run_command(rest),
        "sweep" => batch::sweep_command(rest),
        "bench" => batch::bench_command(rest),
        "cache" => batch::cache_command(rest),
        "serve" => service::serve_command(rest),
        "submit" => service::submit_command(rest),
        "status" => service::status_command(rest),
        "report" => service::report_command(rest),
        "shutdown" => service::shutdown_command(rest),
        "stats" => service::stats_command(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        "" => Err(CliError::Usage(format!("no command given\n\n{USAGE}"))),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}' (see `momsim help`)"
        ))),
    }?;
    batch::finish_obs(&obs)
}

fn main() {
    let code = match dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    };
    std::process::exit(code);
}
