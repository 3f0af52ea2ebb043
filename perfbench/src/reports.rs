//! The registered experiments as the benchmark drives them: run one at any
//! seed through the public grid API, derive its report, and compare
//! rendered reports with the committed `BENCH_*.json` files.

use mom_bench::{
    ablation_from, fig4_from, fig5_from, find_experiment, tables_from, ExperimentPoint, GridResult,
    Report, EXPERIMENT_SEED,
};
use std::path::Path;

/// The six registered experiments, in `momsim list` order.
pub const EXPERIMENTS: [&str; 6] = [
    "fig4",
    "fig5",
    "tables",
    "app-speedups",
    "ablation-lanes",
    "ablation-rob",
];

/// The five committed reports: the name `GET /reports/<name>` takes, the
/// file it must equal, and the experiments it is rendered from.
pub const REPORTS: [(&str, &str, &[&str]); 5] = [
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

/// One experiment run: its report plus what the run returned.
pub struct Ran {
    pub name: &'static str,
    pub report: Report,
    /// Grid points (or application rows) the run returned.
    pub points: u64,
    /// Simulated instructions over the returned grid points.
    pub instructions: u64,
    /// [`grid_digest`] of the grid points (none for the app scenario, whose
    /// rows are checked through its report).
    pub digest: Option<String>,
}

/// Feeds every simulated statistic of a point into a digest: cycles,
/// instruction mix, functional-unit occupancy, ROB and dispatch stalls, and
/// cache hits and misses.  A change that only makes the simulator faster
/// leaves every digest identical.
fn digest_point(h: &mut mom_store::Hasher, p: &ExperimentPoint) {
    let r = &p.result;
    h.write_str(p.kernel.name());
    h.write_str(p.isa.name());
    h.write_usize(p.width);
    h.write_str(&p.memory);
    h.write_usize(p.invocations);
    for v in [
        r.cycles,
        r.instructions,
        r.operations,
        r.media_instructions,
        r.memory_instructions,
        r.max_rob_occupancy as u64,
        r.dispatch_stall_cycles,
        r.cache.l1_hits,
        r.cache.l1_misses,
        r.cache.l2_hits,
        r.cache.l2_misses,
    ] {
        h.write_u64(v);
    }
    let mut busy: Vec<(usize, u64)> = r
        .fu_busy_cycles
        .iter()
        .map(|(c, n)| (c.index(), *n))
        .collect();
    busy.sort_unstable();
    for (class, cycles) in busy {
        h.write_usize(class);
        h.write_u64(cycles);
    }
}

/// The digest of a grid's points, in grid order.
pub fn grid_digest(points: &[ExperimentPoint]) -> String {
    let mut h = mom_store::Hasher::new();
    for p in points {
        digest_point(&mut h, p);
    }
    h.finish().to_hex()
}

/// The report derivation of a registered grid experiment.
pub fn derive(name: &str, grid: &GridResult) -> Report {
    match name {
        "fig4" => Report::Fig4(fig4_from(grid)),
        "fig5" => Report::Fig5(fig5_from(grid)),
        "tables" => Report::Tables(tables_from(grid)),
        "ablation-lanes" => Report::Ablation(ablation_from(grid, "media-lanes", |c| c.media_lanes)),
        "ablation-rob" => Report::Ablation(ablation_from(grid, "rob-size", |c| c.rob_size)),
        other => unreachable!("'{other}' is not a registered grid experiment"),
    }
}

/// The grid spec of a registered grid experiment at `seed`; `None` for the
/// application scenario.
pub fn spec_at(name: &str, seed: u64) -> Option<mom_bench::ExperimentSpec> {
    let mut spec = find_experiment(name).expect("registered").spec()?;
    spec.seed = seed;
    Some(spec)
}

/// Runs a registered experiment at `seed` through `ExperimentSpec::run` (or
/// the stored application scenario), exactly as `momsim run` would with
/// the store on.
pub fn run_experiment(name: &'static str, seed: u64) -> Result<Ran, String> {
    match spec_at(name, seed) {
        Some(spec) => {
            let grid = spec.run().map_err(|e| format!("{name}@{seed}: {e}"))?;
            Ok(Ran {
                name,
                points: grid.points.len() as u64,
                instructions: grid.points.iter().map(|p| p.result.instructions).sum(),
                digest: Some(grid_digest(&grid.points)),
                report: derive(name, &grid),
            })
        }
        None => {
            let rows = mom_bench::store::stored_app_speedups(
                &mom_apps::reference_config(),
                seed,
                mom_apps::DEFAULT_FRAMES,
            )
            .map_err(|e| format!("{name}@{seed}: {e}"))?;
            Ok(Ran {
                name,
                points: rows.len() as u64,
                instructions: 0,
                digest: None,
                report: Report::Apps(rows),
            })
        }
    }
}

/// Renders the committed document `file` from the runs of its experiments
/// (the combined ablations document for `BENCH_ablations.json`).
pub fn render(file: &str, runs: &[&Ran]) -> String {
    if file == "BENCH_ablations.json" {
        let series: Vec<(&'static str, Report)> =
            runs.iter().map(|r| (r.name, r.report.clone())).collect();
        mom_bench::cli::ablations_doc(&series).pretty()
    } else {
        runs[0].report.json().pretty()
    }
}

/// Replays a committed report at the registered seed (every point already
/// stored) and renders it.
pub fn replay(file: &str, experiments: &[&'static str]) -> Result<String, String> {
    let runs = experiments
        .iter()
        .map(|name| run_experiment(name, EXPERIMENT_SEED))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(render(file, &runs.iter().collect::<Vec<_>>()))
}

/// The committed reports, read once from `dir`.
pub struct Expected {
    files: Vec<(&'static str, Vec<u8>)>,
}

impl Expected {
    pub fn load(dir: &Path) -> Result<Expected, String> {
        let files = REPORTS
            .iter()
            .map(|(_, file, _)| {
                std::fs::read(dir.join(file))
                    .map(|bytes| (*file, bytes))
                    .map_err(|e| format!("cannot read {}: {e}", dir.join(file).display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Expected { files })
    }

    /// Whether `bytes` equal the committed `file` byte for byte.
    pub fn matches(&self, file: &str, bytes: &[u8]) -> bool {
        self.files
            .iter()
            .any(|(name, expected)| *name == file && expected.as_slice() == bytes)
    }
}
