//! # mom-bench — declarative experiments for the SC'99 MOM evaluation
//!
//! This crate turns the kernels (`mom-kernels`) and the timing simulator
//! (`mom-pipeline`) into a **declarative experiment layer**: the paper's
//! evaluation grid — kernels × ISAs × machine configurations — is described
//! by an [`ExperimentSpec`] (scenario axes as plain data), executed by a
//! generic grid runner ([`ExperimentSpec::run`]), and post-processed into a
//! [`Report`] by per-experiment derivations.  The paper's figures and the
//! ablations beyond them are *registered* specs ([`registry`]):
//!
//! * `fig4` — speed-up of MMX / MDMX / MOM over the scalar baseline for
//!   issue widths 1, 2, 4 and 8 with a perfect (1-cycle) memory,
//! * `fig5` — cycle counts of all four ISAs on the 4-way core as the
//!   memory latency grows from 1 to 12 to 50 cycles, plus a "real cache"
//!   point that swaps the fixed latency for the simulated L1/L2 hierarchy
//!   (per-level hit/miss counters and MPKI land in the JSON report),
//! * `tables` — the per-kernel IPC / OPI / R / S / F / VLx / VLy breakdown
//!   of Tables 1–9 (4-way, 1-cycle memory),
//! * `app-speedups` — the six whole Mediabench applications as multi-kernel
//!   pipelines (the `mom-apps` scenario layer): kernel-region and
//!   Amdahl-combined whole-application speed-ups on a 2-way core whose
//!   L1/L2 cache hierarchy persists across phase boundaries,
//! * `ablation-lanes` / `ablation-rob` — studies beyond the paper, varying
//!   the number of multimedia lanes and the reorder-buffer size.
//!
//! The runner is built on the workspace's **streaming architecture**: one
//! functional run of a kernel drives a [`PipelineFanout`] over every machine
//! configuration of the experiment, so a grid executes each (kernel, ISA)
//! pair exactly once ([`simulate_configs`]), and the pairs run concurrently
//! on a thread pool ([`sweep`]) whose size `--jobs N` sets.  Every committed
//! report is one [`Table`] (header fields, column names, typed rows) with one
//! JSON emitter for `BENCH_*.json` and one text renderer ([`Table::json`] /
//! [`Table::text`]).
//!
//! The **`momsim`** binary ([`cli`]) is the front end: `momsim list` shows
//! the registered experiments and axes, `momsim run fig5 --json PATH` runs
//! a registered spec, `momsim run --kernels idct,motion1 --isas mom,mdmx
//! --widths 1,2,4,8 --memory l1l2` assembles an ad-hoc grid from named axis
//! values, and `momsim sweep` regenerates every report of the catalogue
//! [`cli::COMMITTED_REPORTS`].

#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod perf;
pub mod schedule;
pub mod spec;
pub mod store;
pub mod sweep;

pub use spec::{
    find_experiment, registry, ExperimentError, ExperimentSpec, GridResult, NamedExperiment,
};

use json::Json;
use mom_arch::TraceStats;
use mom_isa::IsaKind;
use mom_kernels::{shared_kernel_run, KernelError, KernelId};
use mom_pipeline::{MemoryModel, PipelineConfig, PipelineFanout, SimResult};
use std::borrow::Cow;

/// Seed used by every experiment (the workloads are deterministic).
pub const EXPERIMENT_SEED: u64 = 0x5C99;

/// Target dynamic-trace length used to reach steady state; one kernel
/// invocation is replicated until the stream is at least this long,
/// mirroring the paper's "simulated a certain number of times in a loop".
pub const STEADY_STATE_INSTRUCTIONS: usize = 4000;

/// Number of invocations needed for a kernel whose single invocation
/// retires `instructions_per_invocation` instructions to produce a stream
/// of at least `replication` instructions (the
/// [`ExperimentSpec::replication`] axis).
pub fn invocations_for(replication: usize, instructions_per_invocation: usize) -> usize {
    replication
        .div_ceil(instructions_per_invocation.max(1))
        .max(1)
}

/// [`invocations_for`] at the standard [`STEADY_STATE_INSTRUCTIONS`]
/// target.
pub fn steady_invocations(instructions_per_invocation: usize) -> usize {
    invocations_for(STEADY_STATE_INSTRUCTIONS, instructions_per_invocation)
}

/// One measured point: a kernel, an ISA and a machine configuration.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// The kernel measured.
    pub kernel: KernelId,
    /// The ISA of the program.
    pub isa: IsaKind,
    /// Issue width of the simulated core.
    pub width: usize,
    /// Base memory latency in cycles (the L1 hit latency under a cache
    /// hierarchy).
    pub mem_latency: u64,
    /// Label of the memory model ("1" / "12" / "50" for fixed latencies,
    /// "cache" for the simulated L1/L2 hierarchy).
    pub memory: String,
    /// Number of kernel invocations the measured stream contained.
    pub invocations: usize,
    /// Timing-simulation result over the whole stream.
    pub result: SimResult,
    /// Trace-level statistics of the whole stream (F, VLx, VLy).
    pub stats: TraceStats,
}

impl ExperimentPoint {
    /// Cycles normalised per kernel invocation.
    pub fn cycles_per_invocation(&self) -> f64 {
        self.result.cycles as f64 / self.invocations.max(1) as f64
    }

    /// Operations normalised per kernel invocation.
    pub fn ops_per_invocation(&self) -> f64 {
        self.result.operations as f64 / self.invocations.max(1) as f64
    }
}

/// Builds a **materialised** steady-state trace for one kernel/ISA pair: the
/// verified single-invocation trace (from the shared functional-trace
/// cache) replicated [`steady_invocations`] times.
///
/// Only for benchmarks and diagnostics that need a reusable in-memory trace;
/// the grid streams through [`simulate_configs`] instead.
pub fn steady_state_trace(
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
) -> Result<(mom_arch::Trace, usize), KernelError> {
    let run = shared_kernel_run(kernel, isa, seed)?;
    let invocations = steady_invocations(run.trace.len());
    let mut trace = mom_arch::Trace::new();
    for _ in 0..invocations {
        trace.extend(&run.trace);
    }
    Ok((trace, invocations))
}

/// Runs one kernel/ISA pair to steady state **once** and times the stream on
/// every given machine configuration simultaneously (fan-out), returning one
/// point per configuration, in order.  The arguments are the coordinates of
/// [`store::result_key`]; this is the only simulation entry point of the
/// grid, behind both [`ExperimentSpec::run`] and
/// [`schedule::PointJob::compute_all`].
///
/// Every requested configuration is first looked up in the result store;
/// only the **missing** configurations are fanned out over the stream, and
/// their fresh points are written back with one store commit.  With a
/// fully warm store no functional execution and no timing simulation
/// happens at all.
/// Subsetting the fan-out is sound because consumers are independent
/// (lockstep batching is a performance device).
///
/// The stream is one verified kernel invocation from the process-wide trace
/// cache ([`shared_kernel_run`]), replayed **by reference** until it is at
/// least `replication` instructions long (see [`invocations_for`]), so it is
/// never materialised beyond one invocation.
pub fn simulate_configs(
    kernel: KernelId,
    isa: IsaKind,
    configs: &[PipelineConfig],
    seed: u64,
    replication: usize,
) -> Result<Vec<ExperimentPoint>, KernelError> {
    let persistent = mom_store::global();
    if !persistent.is_active() {
        return simulate_uncached(kernel, isa, configs, seed, replication);
    }
    let keys: Vec<mom_store::Key> = configs
        .iter()
        .map(|config| store::result_key(kernel, isa, seed, config, replication, None))
        .collect();
    let mut points: Vec<Option<ExperimentPoint>> = keys
        .iter()
        .zip(configs)
        .map(|(&key, config)| stored_point_lookup(kernel, isa, config, key))
        .collect();
    let missing: Vec<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(i, _)| i)
        .collect();
    if !missing.is_empty() {
        let subset: Vec<PipelineConfig> = missing.iter().map(|&i| configs[i].clone()).collect();
        let _span = mom_obs::span_fmt("simulate", || {
            format!("simulate {kernel:?}/{isa:?} x{}", subset.len())
        });
        let fresh = simulate_uncached(kernel, isa, &subset, seed, replication)?;
        let mut blobs = Vec::with_capacity(missing.len());
        for (&index, point) in missing.iter().zip(fresh) {
            blobs.push((keys[index], store::encode_point(&point)));
            points[index] = Some(point);
        }
        persistent.put_all(mom_store::NS_RESULT, blobs);
    }
    Ok(points
        .into_iter()
        .map(|p| p.expect("every grid slot is filled"))
        .collect())
}

/// The fill path of [`simulate_configs`]: one replay of the pair's stream
/// into a [`PipelineFanout`] over `configs`.
fn simulate_uncached(
    kernel: KernelId,
    isa: IsaKind,
    configs: &[PipelineConfig],
    seed: u64,
    replication: usize,
) -> Result<Vec<ExperimentPoint>, KernelError> {
    let run = shared_kernel_run(kernel, isa, seed)?;
    let invocations = invocations_for(replication, run.trace.len());
    let mut stats = TraceStats::default();
    let mut fanout = PipelineFanout::new(configs.iter().cloned());
    run.trace
        .replay_into(invocations, &mut (&mut stats, &mut fanout));
    Ok(fanout
        .finish()
        .into_iter()
        .zip(configs)
        .map(|(result, config)| ExperimentPoint {
            kernel,
            isa,
            width: config.width,
            mem_latency: config.memory.base_latency(),
            memory: config.memory.label(),
            invocations,
            result,
            stats,
        })
        .collect())
}

/// Looks one finished grid point up in the persistent store — **no** fill
/// path, no functional run, no simulation.  `None` when the store is
/// inactive, the blob is missing or damaged, or the decoded point does not
/// describe exactly this coordinate (a hash collision would be the only
/// path to the latter).  Shared by [`simulate_configs`] and the
/// submit-time dedup of [`schedule::PointJob::cached`].
pub(crate) fn stored_point_lookup(
    kernel: KernelId,
    isa: IsaKind,
    config: &PipelineConfig,
    key: mom_store::Key,
) -> Option<ExperimentPoint> {
    let persistent = mom_store::global();
    if !persistent.is_active() {
        return None;
    }
    let decoded = persistent
        .get(mom_store::NS_RESULT, key)
        .and_then(|bytes| store::decode_point(&bytes).ok())?;
    (decoded.kernel == kernel
        && decoded.isa == isa
        && decoded.width == config.width
        && decoded.memory == config.memory.label())
    .then_some(decoded)
}

// ---------------------------------------------------------------------------
// Reports: one column table for every committed report shape
// ---------------------------------------------------------------------------

/// One typed cell of a [`Table`] row.
#[derive(Debug, Clone)]
enum Cell {
    /// A label: a kernel, ISA, application or memory-model name.
    Str(Cow<'static, str>),
    /// A count.
    Int(i64),
    /// A measured or derived quantity.
    Num(f64),
}

impl Cell {
    fn json(&self) -> Json {
        match self {
            Cell::Str(text) => Json::str(text.as_ref()),
            Cell::Int(n) => Json::int(*n),
            Cell::Num(x) => Json::Num(*x),
        }
    }

    fn text(&self) -> String {
        match self {
            Cell::Str(text) => text.to_string(),
            Cell::Int(n) => n.to_string(),
            Cell::Num(x) => format!("{x:.2}"),
        }
    }
}

/// A derived report as one column table: the header fields of its JSON
/// document, a fixed list of column names, and rows of typed cells.  Every
/// committed report shape (Figure 4, Figure 5, Tables 1–9, the ablation
/// series and the application speed-ups) is a `Table`, emitted by the one
/// JSON emitter [`Table::json`] and the one text renderer [`Table::text`].
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<(&'static str, Json)>,
    /// The JSON key of the row array (`points`, or `rows` for the tables).
    rows_key: &'static str,
    columns: &'static [&'static str],
    /// Row-major, `columns.len()` cells per row.
    cells: Vec<Cell>,
}

impl Table {
    fn push<const N: usize>(&mut self, row: [Cell; N]) {
        assert_eq!(N, self.columns.len(), "one cell per column");
        self.cells.extend(row);
    }

    fn rows(&self) -> std::slice::Chunks<'_, Cell> {
        self.cells.chunks(self.columns.len())
    }

    /// Number of rows.
    pub fn points(&self) -> usize {
        self.cells.len() / self.columns.len()
    }

    /// The report as a JSON document: the header fields, then one object
    /// per row keyed by the column names.
    pub fn json(&self) -> Json {
        let rows = self.rows().map(|row| row_json(self.columns, row));
        let mut doc = self.header.clone();
        doc.push((self.rows_key, Json::Arr(rows.collect())));
        Json::obj(doc)
    }

    /// The report as aligned text: the scalar header fields on one line,
    /// the column names (the JSON keys) on the next, then one line per
    /// JSON row.  Labels align left, numbers right.
    pub fn text(&self) -> String {
        let scalars: Vec<String> = self
            .header
            .iter()
            .filter_map(|(key, value)| match value {
                Json::Str(text) => Some(format!("{key}={text}")),
                Json::Num(_) => Some(format!("{key}={value}")),
                _ => None,
            })
            .collect();
        let mut lines: Vec<Vec<String>> =
            vec![self.columns.iter().map(|c| c.to_string()).collect()];
        lines.extend(self.rows().map(|row| row.iter().map(Cell::text).collect()));
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| lines.iter().map(|line| line[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = scalars.join(" ") + "\n";
        for line in &lines {
            for (c, (cell, &width)) in line.iter().zip(&widths).enumerate() {
                out += &match self.cells.get(c) {
                    Some(Cell::Str(_)) | None => format!("{cell:<width$}  "),
                    Some(_) => format!("{cell:>width$}  "),
                };
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        }
        out
    }
}

/// One row as a JSON object keyed by the column names.
fn row_json(columns: &[&'static str], row: &[Cell]) -> Json {
    Json::obj(
        columns
            .iter()
            .zip(row)
            .map(|(&column, cell)| (column, cell.json())),
    )
}

/// An empty table under the header every grid report's `BENCH_*.json`
/// document starts with.
fn grid_table(experiment: &str, rows_key: &'static str, columns: &'static [&'static str]) -> Table {
    let header = vec![
        ("schema", Json::int(1)),
        ("experiment", Json::str(experiment)),
        ("seed", Json::int(EXPERIMENT_SEED as i64)),
        (
            "steady_state_instructions",
            Json::int(STEADY_STATE_INSTRUCTIONS as i64),
        ),
    ];
    Table {
        header,
        rows_key,
        columns,
        cells: Vec::new(),
    }
}

/// Derives the Figure 4 speed-up bars (`BENCH_fig4.json`) from a measured
/// grid: every perfect-memory configuration is a width point, and each
/// multimedia ISA is normalised to the scalar baseline at the same width.
pub fn fig4_from(grid: &GridResult) -> Table {
    let mut table = grid_table("fig4", "points", &["kernel", "isa", "width", "speedup"]);
    for &kernel in &grid.spec.kernels {
        for ci in grid.config_indices(|c| c.memory == MemoryModel::PERFECT) {
            let base = grid
                .point(kernel, IsaKind::Alpha, ci)
                .expect("Figure 4 needs the scalar baseline in the grid")
                .cycles_per_invocation();
            for &isa in grid.spec.isas.iter().filter(|&&i| i != IsaKind::Alpha) {
                let point = grid.point(kernel, isa, ci).expect("a full grid");
                table.push([
                    Cell::Str(kernel.name().into()),
                    Cell::Str(isa.name().into()),
                    Cell::Int(grid.spec.configs[ci].width as i64),
                    Cell::Num(base / point.cycles_per_invocation()),
                ]);
            }
        }
    }
    table
}

/// Derives the Figure 5 memory series (`BENCH_fig5.json`) from a measured
/// grid: every 4-way configuration is a memory point, normalised to the
/// perfect-memory (1 cycle) configuration of the same ISA.
pub fn fig5_from(grid: &GridResult) -> Table {
    let series = grid.config_indices(|c| c.width == 4);
    let base_idx = series
        .iter()
        .copied()
        .find(|&ci| grid.spec.configs[ci].memory == MemoryModel::PERFECT)
        .expect("Figure 5 needs the 4-way perfect-memory point in the grid");
    let mut table = grid_table(
        "fig5",
        "points",
        &[
            "kernel",
            "isa",
            "memory",
            "mem_latency",
            "cycles_per_invocation",
            "slowdown",
            "l1_hits",
            "l1_misses",
            "l2_hits",
            "l2_misses",
            "l1_mpki",
            "l2_mpki",
        ],
    );
    for &kernel in &grid.spec.kernels {
        for &isa in &grid.spec.isas {
            let base = grid
                .point(kernel, isa, base_idx)
                .expect("a full grid")
                .cycles_per_invocation();
            for &ci in &series {
                let p = grid.point(kernel, isa, ci).expect("a full grid");
                let cache = &p.result.cache;
                table.push([
                    Cell::Str(p.kernel.name().into()),
                    Cell::Str(p.isa.name().into()),
                    Cell::Str(p.memory.clone().into()),
                    Cell::Int(p.mem_latency as i64),
                    Cell::Num(p.cycles_per_invocation()),
                    Cell::Num(p.cycles_per_invocation() / base),
                    Cell::Int(cache.l1_hits as i64),
                    Cell::Int(cache.l1_misses as i64),
                    Cell::Int(cache.l2_hits as i64),
                    Cell::Int(cache.l2_misses as i64),
                    Cell::Num(p.result.l1_mpki()),
                    Cell::Num(p.result.l2_mpki()),
                ]);
            }
        }
    }
    table
}

/// Derives the Tables 1–9 rows (`BENCH_tables.json`: IPC, OPI, R, S, F,
/// VLx, VLy) from a measured grid, at its 4-way perfect-memory
/// configuration.
pub fn tables_from(grid: &GridResult) -> Table {
    let way4 = grid
        .config_indices(|c| c.width == 4 && c.memory == MemoryModel::PERFECT)
        .first()
        .copied()
        .expect("the tables need the 4-way perfect-memory point in the grid");
    let mut table = grid_table(
        "tables",
        "rows",
        &["kernel", "isa", "ipc", "opi", "r", "s", "f", "vlx", "vly"],
    );
    for &kernel in &grid.spec.kernels {
        let baseline = grid
            .point(kernel, IsaKind::Alpha, way4)
            .expect("the tables need the scalar baseline in the grid");
        for &isa in &grid.spec.isas {
            let point = grid.point(kernel, isa, way4).expect("a full grid");
            table.push([
                Cell::Str(kernel.name().into()),
                Cell::Str(isa.name().into()),
                Cell::Num(point.result.ipc()),
                Cell::Num(point.result.opi()),
                Cell::Num(baseline.ops_per_invocation() / point.ops_per_invocation()),
                Cell::Num(baseline.cycles_per_invocation() / point.cycles_per_invocation()),
                Cell::Num(point.stats.media_fraction()),
                Cell::Num(point.stats.avg_vlx()),
                Cell::Num(point.stats.avg_vly()),
            ]);
        }
    }
    table
}

/// Derives an ablation series (MOM vs MMX cycles per invocation) from a
/// measured grid: every configuration is one value of the swept
/// `parameter`, read back off the config by `value_of`.
pub fn ablation_from(
    grid: &GridResult,
    parameter: &'static str,
    value_of: fn(&PipelineConfig) -> usize,
) -> Table {
    let mut table = grid_table(
        "ablation",
        "points",
        &["kernel", "value", "mom_cycles", "mmx_cycles"],
    );
    table.header.push(("parameter", Json::str(parameter)));
    for &kernel in &grid.spec.kernels {
        for (ci, config) in grid.spec.configs.iter().enumerate() {
            let mom = grid
                .point(kernel, IsaKind::Mom, ci)
                .expect("an ablation grid needs the MOM series");
            let mmx = grid
                .point(kernel, IsaKind::Mmx, ci)
                .expect("an ablation grid needs the MMX series");
            table.push([
                Cell::Str(kernel.name().into()),
                Cell::Int(value_of(config) as i64),
                Cell::Num(mom.cycles_per_invocation()),
                Cell::Num(mmx.cycles_per_invocation()),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Whole-application speed-ups (the mom-apps scenario layer)
// ---------------------------------------------------------------------------

/// The columns of an application speed-up row.
const APP_COLUMNS: [&str; 7] = [
    "app",
    "isa",
    "coverage",
    "scalar_cycles",
    "cycles",
    "kernel_speedup",
    "app_speedup",
];

fn app_cells(r: &mom_apps::AppSpeedup) -> [Cell; 7] {
    [
        Cell::Str(r.app.name().into()),
        Cell::Str(r.isa.name().into()),
        Cell::Num(r.coverage),
        Cell::Int(r.scalar_cycles as i64),
        Cell::Int(r.cycles as i64),
        Cell::Num(r.kernel_speedup),
        Cell::Num(r.app_speedup),
    ]
}

/// The application speed-ups as a [`Table`] (`BENCH_apps.json`): the
/// declarative pipelines (phases and coverage) in the header, then one row
/// per (application, multimedia ISA) with the kernel-region speed-up over
/// the scalar baseline and the Amdahl-combined whole-application speed-up.
fn apps_table(rows: &[mom_apps::AppSpeedup]) -> Table {
    use mom_apps::{AppId, AppSpec};
    let pipelines = AppId::ALL
        .iter()
        .map(|&app| {
            let spec = AppSpec::of(app);
            let phases = spec.phases.iter().map(|p| {
                Json::obj([
                    ("kernel", Json::str(p.kernel.name())),
                    ("invocations", Json::int(p.invocations as i64)),
                ])
            });
            Json::obj([
                ("app", Json::str(app.name())),
                ("coverage", Json::Num(spec.coverage)),
                ("phases", Json::Arr(phases.collect())),
            ])
        })
        .collect();
    let header = vec![
        ("schema", Json::int(1)),
        ("experiment", Json::str("apps")),
        ("seed", Json::int(EXPERIMENT_SEED as i64)),
        ("frames", Json::int(mom_apps::DEFAULT_FRAMES as i64)),
        ("apps", Json::Arr(pipelines)),
    ];
    Table {
        header,
        rows_key: "points",
        columns: &APP_COLUMNS,
        cells: rows.iter().flat_map(app_cells).collect(),
    }
}

/// One application speed-up row as a JSON object — the row shape shared by
/// `BENCH_apps.json` and the `momsim serve` daemon's streamed job results.
pub fn app_point_json(r: &mom_apps::AppSpeedup) -> Json {
    row_json(&APP_COLUMNS, &app_cells(r))
}

/// Formats a raw measured grid (ad-hoc `momsim run` sweeps) as an aligned
/// text table.
pub fn format_grid(grid: &GridResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Experiment grid: {} kernels x {} ISAs x {} configs (seed {:#x}, replication {})\n",
        grid.spec.kernels.len(),
        grid.spec.isas.len(),
        grid.spec.configs.len(),
        grid.spec.seed,
        grid.spec.replication,
    ));
    out.push_str(&format!(
        "{:<10} {:>6} {:>6} {:>5} {:>6} {:>7} {:>12} {:>7} {:>7} {:>8}\n",
        "kernel", "isa", "width", "rob", "lanes", "memory", "cyc/invoc", "IPC", "OPI", "L1-MPKI"
    ));
    for (index, p) in grid.points.iter().enumerate() {
        let config = &grid.spec.configs[index % grid.spec.configs.len()];
        out.push_str(&format!(
            "{:<10} {:>6} {:>6} {:>5} {:>6} {:>7} {:>12.1} {:>7.2} {:>7.2} {:>8.2}\n",
            p.kernel.name(),
            p.isa.name(),
            config.width,
            config.rob_size,
            config.media_lanes,
            p.memory,
            p.cycles_per_invocation(),
            p.result.ipc(),
            p.result.opi(),
            p.result.l1_mpki()
        ));
    }
    out
}

/// One grid point as a JSON row: the coordinates (`config_index` names the
/// spec configuration the point was measured on), the raw counters, the
/// derived rates.  This is the row
/// shape shared by [`grid_json`] and the `momsim serve` daemon's streamed
/// job results, so a point fetched over HTTP is field-identical to the same
/// point in a `momsim run --json` report.
pub fn point_json(p: &ExperimentPoint, config_index: usize) -> Json {
    Json::obj([
        ("kernel", Json::str(p.kernel.name())),
        ("isa", Json::str(p.isa.name())),
        ("config", Json::int(config_index as i64)),
        ("memory", Json::str(p.memory.clone())),
        ("invocations", Json::int(p.invocations as i64)),
        ("cycles", Json::int(p.result.cycles as i64)),
        ("instructions", Json::int(p.result.instructions as i64)),
        ("operations", Json::int(p.result.operations as i64)),
        (
            "cycles_per_invocation",
            Json::Num(p.cycles_per_invocation()),
        ),
        ("ipc", Json::Num(p.result.ipc())),
        ("opi", Json::Num(p.result.opi())),
        ("l1_mpki", Json::Num(p.result.l1_mpki())),
        ("l2_mpki", Json::Num(p.result.l2_mpki())),
    ])
}

/// A raw measured grid as a machine-readable JSON report, spec axes
/// included.
pub fn grid_json(grid: &GridResult) -> Json {
    let spec = &grid.spec;
    Json::obj([
        ("schema", Json::int(1)),
        ("experiment", Json::str("grid")),
        // As a hex string (matching the text header): the seed is a full
        // u64, which JSON integers cannot represent losslessly.
        ("seed", Json::str(format!("{:#x}", spec.seed))),
        ("replication", Json::int(spec.replication as i64)),
        (
            "kernels",
            Json::Arr(spec.kernels.iter().map(|k| Json::str(k.name())).collect()),
        ),
        (
            "isas",
            Json::Arr(spec.isas.iter().map(|i| Json::str(i.name())).collect()),
        ),
        (
            "configs",
            Json::Arr(
                spec.configs
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("width", Json::int(c.width as i64)),
                            ("rob", Json::int(c.rob_size as i64)),
                            ("lanes", Json::int(c.media_lanes as i64)),
                            ("vec_mem_words", Json::int(c.vec_mem_words as i64)),
                            ("memory", Json::str(c.memory.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "points",
            Json::Arr(
                grid.points
                    .iter()
                    .enumerate()
                    .map(|(index, p)| point_json(p, index % spec.configs.len()))
                    .collect(),
            ),
        ),
    ])
}

/// A derived experiment report: what a registered or ad-hoc experiment
/// produces.  The committed report shapes are each a [`Table`] (the
/// application speed-ups become one when emitted), so one JSON emitter and
/// one text renderer serve them all; an ad-hoc grid keeps its own row
/// shape ([`point_json`]).
///
/// ```no_run
/// use mom_bench::find_experiment;
///
/// let report = find_experiment("fig5").unwrap().run().unwrap();
/// println!("{}", report.text());
/// std::fs::write("BENCH_fig5.json", report.json().pretty()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub enum Report {
    /// The Figure 4 speed-up bars ([`fig4_from`]).
    Fig4(Table),
    /// The Figure 5 memory series ([`fig5_from`]).
    Fig5(Table),
    /// The Tables 1–9 rows ([`tables_from`]).
    Tables(Table),
    /// The whole-application speed-ups of the six Mediabench pipelines.
    Apps(Vec<mom_apps::AppSpeedup>),
    /// An ablation series, MOM vs MMX over one machine parameter
    /// ([`ablation_from`]).
    Ablation(Table),
    /// A raw measured grid (ad-hoc sweeps).
    Grid(GridResult),
}

impl Report {
    /// The report as aligned text ([`Table::text`] for the committed
    /// shapes).
    pub fn text(&self) -> String {
        match self {
            Report::Fig4(table)
            | Report::Fig5(table)
            | Report::Tables(table)
            | Report::Ablation(table) => table.text(),
            Report::Apps(rows) => apps_table(rows).text(),
            Report::Grid(grid) => format_grid(grid),
        }
    }

    /// The report as a machine-readable JSON document (the `BENCH_*.json`
    /// schema for the registered experiments).
    pub fn json(&self) -> Json {
        match self {
            Report::Fig4(table)
            | Report::Fig5(table)
            | Report::Tables(table)
            | Report::Ablation(table) => table.json(),
            Report::Apps(rows) => apps_table(rows).json(),
            Report::Grid(grid) => grid_json(grid),
        }
    }

    /// Number of measured points (JSON rows) in the report.
    pub fn points(&self) -> usize {
        match self {
            Report::Fig4(table)
            | Report::Fig5(table)
            | Report::Tables(table)
            | Report::Ablation(table) => table.points(),
            Report::Apps(rows) => rows.len(),
            Report::Grid(grid) => grid.points.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the unit tests that hold a [`mom_store::bypass_guard`]
    /// — it suspends every store in the process — against those that
    /// assert what the store holds.
    pub(crate) fn store_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn steady_invocations_reach_the_target_length() {
        let run =
            mom_kernels::run_kernel(KernelId::Motion1, IsaKind::Mom, EXPERIMENT_SEED, 1).unwrap();
        let invocations = steady_invocations(run.trace.len());
        assert!(invocations > 1, "the tiny MOM kernel must be replicated");
        assert!(run.trace.len() * invocations >= STEADY_STATE_INSTRUCTIONS);
        let run =
            mom_kernels::run_kernel(KernelId::LtpPar, IsaKind::Alpha, EXPERIMENT_SEED, 1).unwrap();
        assert!(run.trace.len() * steady_invocations(run.trace.len()) >= STEADY_STATE_INSTRUCTIONS);
    }

    /// One point through the grid's entry point at the standard
    /// replication, exact timing.
    fn point(kernel: KernelId, isa: IsaKind, width: usize, memory: MemoryModel) -> ExperimentPoint {
        let config = PipelineConfig::way_with_memory(width, memory);
        simulate_configs(
            kernel,
            isa,
            &[config],
            EXPERIMENT_SEED,
            STEADY_STATE_INSTRUCTIONS,
        )
        .unwrap()
        .remove(0)
    }

    #[test]
    fn simulate_produces_nonzero_results() {
        let p = point(KernelId::AddBlock, IsaKind::Mom, 4, MemoryModel::PERFECT);
        assert!(p.result.cycles > 0);
        assert!(p.result.opi() > 1.0);
        assert!(p.stats.avg_vly() > 1.0);
        assert!(p.invocations >= 1);
    }

    #[test]
    fn fanout_sweep_matches_individual_simulations() {
        let _lock = store_lock();
        let _cold = mom_store::bypass_guard();
        let configs = [PipelineConfig::way(1), PipelineConfig::way(8)];
        let fanned = simulate_configs(
            KernelId::AddBlock,
            IsaKind::Mmx,
            &configs,
            EXPERIMENT_SEED,
            STEADY_STATE_INSTRUCTIONS,
        )
        .unwrap();
        assert_eq!(fanned.len(), 2);
        for (fanned, width) in fanned.iter().zip([1usize, 8]) {
            let alone = point(
                KernelId::AddBlock,
                IsaKind::Mmx,
                width,
                MemoryModel::PERFECT,
            );
            assert_eq!(fanned.width, width);
            assert_eq!(fanned.result.cycles, alone.result.cycles, "width {width}");
            assert_eq!(fanned.result.instructions, alone.result.instructions);
        }
    }

    #[test]
    fn cache_point_plumbs_label_and_counters() {
        // The MOM-beats-MMX-under-real-caches claim itself is asserted by
        // the integration test `mom_keeps_its_advantage_under_real_caches`
        // (tests/paper_claims.rs); here we only check the experiment
        // plumbing: the cache point carries its label and live counters.
        let p = point(KernelId::AddBlock, IsaKind::Mom, 4, MemoryModel::CACHE);
        assert_eq!(p.memory, "cache");
        assert_eq!(p.mem_latency, 1, "base latency is the L1 hit");
        assert!(p.result.cache.l1_accesses() > 0);
        let fixed = point(KernelId::AddBlock, IsaKind::Mom, 4, MemoryModel::PERFECT);
        assert_eq!(fixed.memory, "1");
        assert_eq!(fixed.result.cache, Default::default());
    }

    #[test]
    fn mom_beats_mmx_on_a_motion_kernel_at_4_way() {
        let mmx = point(KernelId::Motion1, IsaKind::Mmx, 4, MemoryModel::PERFECT);
        let mom = point(KernelId::Motion1, IsaKind::Mom, 4, MemoryModel::PERFECT);
        assert!(
            mom.cycles_per_invocation() < mmx.cycles_per_invocation(),
            "MOM ({:.0} cycles) must beat MMX ({:.0} cycles)",
            mom.cycles_per_invocation(),
            mmx.cycles_per_invocation()
        );
    }

    #[test]
    fn report_text_follows_the_report_rows() {
        // One kernel, every ISA, a 4-way core at 1-, 50- and 3-cycle
        // memory: a grid none of the registered experiments measures.
        let spec = ExperimentSpec {
            kernels: vec![KernelId::Idct],
            configs: [1, 50, 3]
                .map(|latency| PipelineConfig::way_with_memory(4, MemoryModel::Fixed { latency }))
                .to_vec(),
            ..ExperimentSpec::default()
        };
        let grid = spec.run().unwrap();
        let reports = [
            Report::Fig4(fig4_from(&grid)),
            Report::Fig5(fig5_from(&grid)),
            Report::Tables(tables_from(&grid)),
            Report::Ablation(ablation_from(&grid, "latency", |c| {
                c.memory.base_latency() as usize
            })),
        ];
        for report in &reports {
            let (text, doc) = (report.text(), report.json());
            let experiment = doc.get("experiment").and_then(Json::as_str).unwrap();
            assert!(!text.contains("NaN"), "{experiment}:\n{text}");
            for kernel in KernelId::ALL.into_iter().filter(|&k| k != KernelId::Idct) {
                assert!(
                    text.split_whitespace().all(|word| word != kernel.name()),
                    "{experiment} names {kernel} outside the grid:\n{text}"
                );
            }
            let rows = doc.as_obj().unwrap().last().unwrap().1.as_arr().unwrap();
            assert_eq!(rows.len(), report.points(), "{experiment}");
            assert_eq!(
                text.lines().count(),
                rows.len() + 2,
                "{experiment}: a header line, the column names, one line per row:\n{text}"
            );
        }
        let fig5 = reports[1].text();
        assert!(
            fig5.lines()
                .any(|line| line.split_whitespace().nth(2) == Some("3")),
            "the 3-cycle point is shown:\n{fig5}"
        );
    }
}
