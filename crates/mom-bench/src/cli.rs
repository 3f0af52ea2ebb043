//! The batch commands of `momsim`: `list`, `run`, `sweep`, `bench` and
//! `cache`, plus the pieces every command shares — the [`CliError`]
//! exit-code contract (0 success, 2 usage, including an invalid experiment
//! grid, 1 runtime failure), the global `--store DIR` / `--cold` and
//! `--trace-out FILE` / `--stats` flags, and the positive-count parser.
//! The `momsim` binary dispatches to these and to the service commands in
//! `mom_serve::cli`.
//!
//! ```text
//! momsim list                         # registered experiments + axis values
//! momsim run fig5 --json out.json     # a registered experiment
//! momsim run --kernels idct,motion1 --isas mom,mdmx \
//!            --widths 1,2,4,8 --memory l1l2          # an ad-hoc grid
//! momsim sweep --out-dir .            # regenerate every BENCH_*.json
//! ```
//!
//! The axis flags of an ad-hoc grid are parsed by [`GridAxes`], the same
//! vocabulary `momsim submit` and the daemon's `POST /jobs` use.

use crate::json::Json;
use crate::spec::{
    find_experiment, registry, union_spec, ExperimentError, GridAxes, UNION_EXPERIMENTS,
};
use crate::Report;
use mom_isa::IsaKind;
use mom_kernels::KernelId;
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

fn write_report(path: &Path, doc: &Json) -> Result<(), CliError> {
    std::fs::write(path, doc.pretty())
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
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

/// The catalogue of committed reports, in `momsim sweep` write order:
/// `(name, file, experiments)` — the name `GET /reports/<name>` and
/// `momsim report` take, the file `momsim sweep` writes, and the registered
/// experiments it is rendered from ([`committed_doc`]).  Every registered
/// experiment belongs to exactly one of them.
pub static COMMITTED_REPORTS: [(&str, &str, &[&str]); 5] = [
    ("fig4", "BENCH_fig4.json", &["fig4"]),
    ("fig5", "BENCH_fig5.json", &["fig5"]),
    ("tables", "BENCH_tables.json", &["tables"]),
    ("apps", "BENCH_apps.json", &["app-speedups"]),
    (
        "ablations",
        "BENCH_ablations.json",
        &["ablation-lanes", "ablation-rob"],
    ),
];

/// Renders a committed document from its experiments' reports: the one
/// report's own JSON, or the combined [`ablations_doc`] of several.
pub fn committed_doc(series: &[(&'static str, Report)]) -> Json {
    match series {
        [(_, report)] => report.json(),
        several => ablations_doc(several),
    }
}

/// The committed report names, comma-separated.
pub fn report_names() -> String {
    COMMITTED_REPORTS.map(|(name, ..)| name).join(", ")
}

/// The experiments report `name` is rendered from: a committed report's,
/// or a registered experiment on its own.  The error names every
/// committed report.
pub fn report_experiments(name: &str) -> Result<&'static [&'static str], String> {
    if let Some((_, _, experiments)) = COMMITTED_REPORTS.iter().find(|(n, ..)| *n == name) {
        return Ok(experiments);
    }
    find_experiment(name)
        .map(|experiment| std::slice::from_ref(&experiment.name))
        .map_err(|_| {
            format!(
                "no such report '{name}' (expected {} or a registered experiment)",
                report_names()
            )
        })
}

/// Removes every `flag VALUE` pair from `args`, in any position, and
/// returns the last value.  How the global flags (and the client flags of
/// the service commands) are taken out before a command parses the rest.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    let mut value = None;
    while let Some(i) = args.iter().position(|arg| arg == flag) {
        if i + 1 >= args.len() {
            return Err(CliError::Usage(format!("{flag} needs a value")));
        }
        value = Some(args.remove(i + 1));
        args.remove(i);
    }
    Ok(value)
}

/// Removes every `flag` from `args`; whether there was one.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|arg| arg != flag);
    args.len() != before
}

/// Extracts the global `--store DIR` / `--cold` options (valid on any
/// command, in any position), leaving the remaining arguments in place.
pub fn extract_store_args(args: &mut Vec<String>) -> Result<mom_store::StoreConfig, CliError> {
    Ok(mom_store::StoreConfig {
        dir: take_flag(args, "--store")?.map(PathBuf::from),
        cold: take_switch(args, "--cold"),
    })
}

/// Installs the extracted store options as the process-global store
/// configuration (before any simulation touches the store).
pub fn configure_store(config: mom_store::StoreConfig) -> Result<(), CliError> {
    mom_store::configure(config).map_err(CliError::Usage)
}

/// Observability options valid on any command, in any position
/// (extracted the same way as the store flags).
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
/// the remaining arguments for the command parsers.
pub fn extract_obs_args(args: &mut Vec<String>) -> Result<ObsArgs, CliError> {
    Ok(ObsArgs {
        trace_out: take_flag(args, "--trace-out")?.map(PathBuf::from),
        stats: take_switch(args, "--stats"),
    })
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
pub fn cache_command(args: &[String]) -> Result<(), CliError> {
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

/// Computes every document `momsim sweep` writes, without touching the
/// filesystem: `(file name, document, points)` in [`COMMITTED_REPORTS`]
/// order. Split from `run_sweep` so `momsim bench` can time it
/// ([`crate::perf::time_full_set`]) and the incremental-sweep tests can
/// byte-compare the exact documents a cold and a warm sweep would emit.
pub fn sweep_documents(
    jobs: Option<usize>,
) -> Result<Vec<(&'static str, Json, usize)>, ExperimentError> {
    // The full registered-experiment set in one process: one measured pass
    // per (kernel, ISA) pair over the union grid feeds the paper reports,
    // and every other experiment runs on its own — all of them replaying
    // the same memoised functional traces, so no kernel executes
    // functionally more than once.  `jobs` sets the thread count of each
    // grid run; the documents never depend on it.
    let union = {
        let _span = mom_obs::span("sweep", "union-grids");
        union_spec().run_with_jobs(jobs)?
    };
    let run = |name: &'static str| -> Result<Report, ExperimentError> {
        let experiment = find_experiment(name).expect("the catalogue names registered experiments");
        if UNION_EXPERIMENTS.contains(&name) {
            return Ok(experiment
                .derive(&union)
                .expect("union experiments are grids"));
        }
        let _span = mom_obs::span_fmt("sweep", || format!("experiment {name}"));
        experiment.run_with_jobs(jobs)
    };
    COMMITTED_REPORTS
        .iter()
        .map(|&(_, file, experiments)| {
            let series = experiments
                .iter()
                .map(|&name| Ok((name, run(name)?)))
                .collect::<Result<Vec<_>, ExperimentError>>()?;
            let points = series.iter().map(|(_, report)| report.points()).sum();
            Ok((file, committed_doc(&series), points))
        })
        .collect()
}

/// `momsim sweep [--out-dir DIR] [--jobs N]`: writes every `BENCH_*.json`.
pub fn sweep_command(args: &[String]) -> Result<(), CliError> {
    let (out_dir, jobs) = sweep_args(args)?;
    std::fs::create_dir_all(&out_dir)
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

/// Parses the operand of a count flag (`--jobs`, `--workers`, ...): a
/// positive integer.
pub fn positive(flag: &str, value: &str) -> Result<usize, CliError> {
    let n: usize = value
        .parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))?;
    if n == 0 {
        return Err(CliError::Usage(format!("{flag} needs a positive count")));
    }
    Ok(n)
}

fn sweep_args(args: &[String]) -> Result<(PathBuf, Option<usize>), CliError> {
    let mut args = args.to_vec();
    let out_dir = take_flag(&mut args, "--out-dir")?.unwrap_or_else(|| ".".into());
    let jobs = take_flag(&mut args, "--jobs")?
        .map(|n| positive("--jobs", &n))
        .transpose()?;
    reject_rest(&args, "sweep")?;
    Ok((PathBuf::from(out_dir), jobs))
}

/// Fails on the first argument a command did not take.
fn reject_rest(args: &[String], command: &str) -> Result<(), CliError> {
    match args.first() {
        Some(other) => Err(CliError::Usage(format!(
            "unknown argument {other} (see `momsim {command} --help`)"
        ))),
        None => Ok(()),
    }
}

/// `momsim list`: the registered experiments and the valid axis values.
pub fn list_command(args: &[String]) -> Result<(), CliError> {
    reject_rest(args, "list")?;
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
    Ok(())
}

/// `momsim bench [--quick] [--json PATH] [--check PATH]`.
pub fn bench_command(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let quick = take_switch(&mut args, "--quick");
    let json = take_flag(&mut args, "--json")?.map(PathBuf::from);
    let check = take_flag(&mut args, "--check")?.map(PathBuf::from);
    reject_rest(&args, "bench")?;
    let report = crate::perf::run(quick)?;
    print!("{}", crate::perf::format_perf(&report));
    // The cache diagnostic: the measurements above ran under a store
    // bypass (perf times the simulators, not the disk), so the counters
    // reflect other work in this process and the disk scan shows what the
    // persistent tier currently holds.
    println!();
    print!("{}", mom_store::global().report().format());
    if let Some(path) = &json {
        write_report(path, &crate::perf::perf_json(&report))?;
    }
    if let Some(path) = &check {
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

/// Parsed `momsim run` arguments: the registered experiment name (`None`
/// for an ad-hoc grid), the grid axes, `--json PATH` and `--jobs N`.
type RunArgs = (Option<String>, GridAxes, Option<PathBuf>, Option<usize>);

fn run_args(args: &[String]) -> Result<RunArgs, CliError> {
    if args.is_empty() {
        return Err(CliError::Usage(
            "momsim run needs an experiment name or axis flags (see `momsim help`)".into(),
        ));
    }
    let mut args = args.to_vec();
    let json = take_flag(&mut args, "--json")?.map(PathBuf::from);
    let jobs = take_flag(&mut args, "--jobs")?
        .map(|n| positive("--jobs", &n))
        .transpose()?;
    let (name, axes) = experiment_or_axes(&args, "run")?;
    Ok((name, axes, json, jobs))
}

/// The operands of `momsim run` and `momsim submit`: a registered
/// experiment name alone, or the axis flags of an ad-hoc grid
/// ([`GridAxes::from_flags`]).
pub fn experiment_or_axes(
    args: &[String],
    command: &str,
) -> Result<(Option<String>, GridAxes), CliError> {
    match args {
        [name, rest @ ..] if !name.starts_with("--") => {
            reject_rest(rest, command)?;
            Ok((Some(name.clone()), GridAxes::default()))
        }
        flags => Ok((None, GridAxes::from_flags(flags).map_err(CliError::Usage)?)),
    }
}

/// `momsim run`: a registered experiment or an ad-hoc grid; prints the
/// text report and optionally writes the JSON.
pub fn run_command(args: &[String]) -> Result<(), CliError> {
    let (name, axes, json, jobs) = run_args(args)?;
    let report = match name {
        Some(name) => find_experiment(&name)
            .map_err(CliError::Usage)?
            .run_with_jobs(jobs)?,
        None => Report::Grid(axes.spec().map_err(CliError::Usage)?.run_with_jobs(jobs)?),
    };
    print!("{}", report.text());
    if let Some(path) = json {
        write_report(&path, &report.json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentSpec;
    use mom_pipeline::MemoryModel;

    /// A command line, split at whitespace.
    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The spec `momsim run` builds from ad-hoc axis flags.
    fn run_spec(line: &str) -> Result<ExperimentSpec, CliError> {
        let (name, axes, _, _) = run_args(&words(line))?;
        assert_eq!(name, None, "axis flags, not a registered name");
        axes.spec().map_err(CliError::Usage)
    }

    #[test]
    fn grid_args_assemble_the_cross_product() {
        let spec =
            run_spec("--kernels idct,motion1 --isas mom,mdmx --widths 1,2,4,8 --memory l1l2")
                .unwrap();
        assert_eq!(spec.kernels, vec![KernelId::Idct, KernelId::Motion1]);
        assert_eq!(spec.isas, vec![IsaKind::Mom, IsaKind::Mdmx]);
        assert!(spec.configs.iter().all(|c| c.memory == MemoryModel::CACHE));
        let widths: Vec<usize> = spec.configs.iter().map(|c| c.width).collect();
        assert_eq!(widths, vec![1, 2, 4, 8]);
    }

    #[test]
    fn grid_args_sweep_rob_and_lanes() {
        let spec = run_spec("--rob 16,32 --lanes 1,2 --seed 7 --replication 100").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.replication, 100);
        assert_eq!(spec.kernels.len(), KernelId::ALL.len(), "default axis");
        let robs: Vec<usize> = spec.configs.iter().map(|c| c.rob_size).collect();
        assert_eq!(robs, vec![16, 16, 32, 32], "2 rob x 2 lane values");
        let lanes: Vec<usize> = spec.configs.iter().map(|c| c.media_lanes).collect();
        assert_eq!(lanes, vec![1, 2, 1, 2]);
    }

    #[test]
    fn store_flags_extract_from_any_position() {
        let mut args = words("sweep --store /tmp/s --out-dir . --cold");
        let config = extract_store_args(&mut args).unwrap();
        assert_eq!(config.dir, Some(PathBuf::from("/tmp/s")));
        assert!(config.cold);
        assert_eq!(args, words("sweep --out-dir ."));

        let err = extract_store_args(&mut words("--store")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        let mut args = words("run fig4");
        let config = extract_store_args(&mut args).unwrap();
        assert!(config.dir.is_none());
        assert!(!config.cold);
        assert_eq!(args, words("run fig4"), "untouched without flags");
    }

    #[test]
    fn jobs_flag_parses_on_every_command() {
        let (dir, jobs) = sweep_args(&words("--jobs 3 --out-dir /tmp/x")).unwrap();
        assert_eq!((dir, jobs), (PathBuf::from("/tmp/x"), Some(3)));
        assert_eq!(sweep_args(&[]).unwrap().1, None);

        let (_, _, json, jobs) = run_args(&words("--jobs 2 --widths 4")).unwrap();
        assert_eq!((json, jobs), (None, Some(2)));
        let (name, axes, json, jobs) = run_args(&words("fig4 --json o.json --jobs 2")).unwrap();
        assert_eq!(name.as_deref(), Some("fig4"));
        assert_eq!(axes, GridAxes::default());
        assert_eq!((json, jobs), (Some(PathBuf::from("o.json")), Some(2)));

        for bad in ["--jobs 0", "--jobs many", "--frobnicate"] {
            let err = sweep_args(&words(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "sweep {bad}: {err}");
        }
        for bad in [
            "",
            "--jobs 0",
            "fig4 --frobnicate",
            "fig4 --widths 2",
            "--seed",
            // A flag never takes the next flag as its operand.
            "--widths --isas mom",
        ] {
            let err = run_args(&words(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "run {bad}: {err}");
        }
    }

    #[test]
    fn bad_axis_values_report_the_valid_names() {
        for (line, expected) in [
            ("--kernels fft", "idct"),
            ("--isas sse", "mdmx"),
            ("--memory dram", "l1l2"),
            ("--widths x", "widths"),
            // Invalid machine axes surface the builder's validation message.
            ("--widths 0", "issue width"),
        ] {
            let err = run_spec(line).unwrap_err();
            assert!(err.to_string().contains(expected), "{line}: {err}");
            assert_eq!(err.exit_code(), 2, "{line}");
        }
    }
}
