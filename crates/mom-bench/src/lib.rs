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
//! on a thread pool ([`sweep`]) whose size `--jobs N` sets.  Every report is
//! available both as an aligned text table and as a machine-readable JSON
//! document ([`Report::text`] / [`Report::json`]) for `BENCH_fig4.json`-style
//! perf tracking.
//!
//! The **`momsim`** binary ([`cli`]) is the front end: `momsim list` shows
//! the registered experiments and axes, `momsim run fig5 --json PATH` runs
//! a registered spec, `momsim run --kernels idct,motion1 --isas mom,mdmx
//! --widths 1,2,4,8 --memory l1l2` assembles an ad-hoc grid from named axis
//! values, and `momsim sweep` regenerates every `BENCH_*.json` report.

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
use mom_pipeline::{
    MemoryModel, PipelineConfig, PipelineFanout, SampledFanout, SamplingConfig, SimResult,
};

/// Seed used by every experiment (the workloads are deterministic).
pub const EXPERIMENT_SEED: u64 = 0x5C99;

/// Target dynamic-trace length used to reach steady state; one kernel
/// invocation is replicated until the stream is at least this long,
/// mirroring the paper's "simulated a certain number of times in a loop".
pub const STEADY_STATE_INSTRUCTIONS: usize = 4000;

/// Minimum number of complete measurement intervals a stream must be
/// able to hold before a sampled [`simulate_configs`] actually
/// fast-forwards; shorter streams (a few long invocations) run fully
/// detailed and report exact timing.
pub const MIN_SAMPLED_INTERVALS: u64 = 3;

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
/// [`schedule::PointJob::compute`].
///
/// Every requested configuration is first looked up in the result store;
/// only the **missing** configurations are fanned out over the stream, and
/// their fresh points are written back.  With a fully warm store no
/// functional execution and no timing simulation happens at all.
/// Subsetting the fan-out is sound because consumers are independent
/// (lockstep batching is a performance device, and a sampled run's schedule
/// derives from the sampling config and the stream alone, not from the
/// consumer set).
///
/// The stream is one verified kernel invocation from the process-wide trace
/// cache ([`shared_kernel_run`]), replayed **by reference** until it is at
/// least `replication` instructions long (see [`invocations_for`]), so it is
/// never materialised beyond one invocation.  With `sampling` set, the
/// stream is timed by **systematic sampling** instead: detailed intervals
/// with cache-only fast-forward between them, an extrapolated cycle count
/// and a confidence interval in [`SimResult::sampled`].  Architectural
/// counters stay exact.  The schedule is
/// [aligned](SamplingConfig::aligned_to) to the kernel's invocation length,
/// and a stream too short to hold [`MIN_SAMPLED_INTERVALS`] measurement
/// intervals runs fully detailed (its points report the exact cycle count
/// with a zero-width interval): extrapolating from a single measurement
/// dominated by the cold-start head of the stream is exactly the bias
/// sampling must avoid.
pub fn simulate_configs(
    kernel: KernelId,
    isa: IsaKind,
    configs: &[PipelineConfig],
    seed: u64,
    replication: usize,
    sampling: Option<SamplingConfig>,
) -> Result<Vec<ExperimentPoint>, KernelError> {
    let persistent = mom_store::global();
    if !persistent.is_active() {
        return simulate_uncached(kernel, isa, configs, seed, replication, sampling);
    }
    let keys: Vec<mom_store::Key> = configs
        .iter()
        .map(|config| store::result_key(kernel, isa, seed, config, replication, sampling))
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
        let fresh = simulate_uncached(kernel, isa, &subset, seed, replication, sampling)?;
        for (&index, point) in missing.iter().zip(fresh) {
            persistent.put(
                mom_store::NS_RESULT,
                keys[index],
                store::encode_point(&point),
            );
            points[index] = Some(point);
        }
    }
    Ok(points
        .into_iter()
        .map(|p| p.expect("every grid slot is filled"))
        .collect())
}

/// The fill path of [`simulate_configs`]: one replay of the pair's stream
/// into a [`PipelineFanout`] (exact) or an invocation-aligned
/// [`SampledFanout`] over `configs`.
fn simulate_uncached(
    kernel: KernelId,
    isa: IsaKind,
    configs: &[PipelineConfig],
    seed: u64,
    replication: usize,
    sampling: Option<SamplingConfig>,
) -> Result<Vec<ExperimentPoint>, KernelError> {
    let run = shared_kernel_run(kernel, isa, seed)?;
    let invocations = invocations_for(replication, run.trace.len());
    let mut stats = TraceStats::default();
    let results = match sampling {
        None => {
            let mut fanout = PipelineFanout::new(configs.iter().cloned());
            run.trace
                .replay_into(invocations, &mut (&mut stats, &mut fanout));
            fanout.finish()
        }
        Some(sampling) => {
            // Align the schedule to whole invocations: the stream is one
            // kernel invocation replayed, and invocation-aligned intervals
            // measure whole loop iterations at a fixed phase instead of
            // aliasing against it.
            let entries = run.trace.len() as u64;
            let total = entries * invocations as u64;
            let mut sampling = sampling.aligned_to(entries);
            // Completing k measurement intervals takes (k - 1) periods plus
            // one final warm-up + detailed span; streams that cannot hold
            // MIN_SAMPLED_INTERVALS of them run fully detailed instead.
            let min_stream = (MIN_SAMPLED_INTERVALS - 1) * sampling.period()
                + sampling.warmup
                + sampling.detailed;
            if total < min_stream {
                sampling = SamplingConfig {
                    detailed: total,
                    fastforward: sampling.fastforward,
                    warmup: 0,
                };
            }
            let mut fanout = SampledFanout::new(configs.iter().cloned(), sampling);
            run.trace
                .replay_into(invocations, &mut (&mut stats, &mut fanout));
            fanout.finish()
        }
    };
    Ok(results
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
// Figure 4
// ---------------------------------------------------------------------------

/// One bar of Figure 4: the speed-up of a multimedia ISA over the scalar
/// baseline at a given issue width.
#[derive(Debug, Clone)]
pub struct Figure4Point {
    /// Kernel.
    pub kernel: KernelId,
    /// Multimedia ISA (MMX, MDMX or MOM).
    pub isa: IsaKind,
    /// Issue width.
    pub width: usize,
    /// Speed-up over the scalar baseline at the same width.
    pub speedup: f64,
}

/// The issue widths of Figure 4.
pub const FIG4_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Derives the Figure 4 speed-up bars from a measured grid: every
/// perfect-memory configuration is a width point, and each multimedia ISA
/// is normalised to the scalar baseline at the same width.
pub fn fig4_from(grid: &GridResult) -> Vec<Figure4Point> {
    let mut out = Vec::new();
    for &kernel in &grid.spec.kernels {
        for ci in grid.config_indices(|c| c.memory == MemoryModel::PERFECT) {
            let width = grid.spec.configs[ci].width;
            let base = grid
                .point(kernel, IsaKind::Alpha, ci)
                .expect("Figure 4 needs the scalar baseline in the grid")
                .cycles_per_invocation();
            for &isa in grid.spec.isas.iter().filter(|&&i| i != IsaKind::Alpha) {
                let point = grid.point(kernel, isa, ci).expect("a full grid");
                out.push(Figure4Point {
                    kernel,
                    isa,
                    width,
                    speedup: base / point.cycles_per_invocation(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// One line point of Figure 5: cycles per invocation for a kernel/ISA at a
/// given memory model (4-way core) — the paper's three fixed latencies plus
/// the simulated L1/L2 cache hierarchy.
#[derive(Debug, Clone)]
pub struct Figure5Point {
    /// Kernel.
    pub kernel: KernelId,
    /// ISA (all four, the paper labels the scalar one "SS").
    pub isa: IsaKind,
    /// Base memory latency in cycles (L1 hit latency for the cache point).
    pub mem_latency: u64,
    /// Memory-model label: "1" / "12" / "50" or "cache".
    pub memory: String,
    /// Cycles per kernel invocation.
    pub cycles_per_invocation: f64,
    /// Slow-down relative to the same ISA at 1-cycle latency (1.0 for the
    /// 1-cycle point).
    pub slowdown: f64,
    /// Data-cache counters over the whole measured stream (all zero for the
    /// fixed-latency points).
    pub cache: mom_pipeline::CacheStats,
    /// L1 misses per thousand committed instructions (cache point only).
    pub l1_mpki: f64,
    /// L2 misses (main-memory accesses) per thousand committed instructions
    /// (cache point only).
    pub l2_mpki: f64,
}

/// Derives the Figure 5 memory series from a measured grid: every 4-way
/// configuration is a memory point, normalised to the perfect-memory (1
/// cycle) configuration of the same ISA.
pub fn fig5_from(grid: &GridResult) -> Vec<Figure5Point> {
    let series = grid.config_indices(|c| c.width == 4);
    let base_idx = series
        .iter()
        .copied()
        .find(|&ci| grid.spec.configs[ci].memory == MemoryModel::PERFECT)
        .expect("Figure 5 needs the 4-way perfect-memory point in the grid");
    let mut out = Vec::new();
    for &kernel in &grid.spec.kernels {
        for &isa in &grid.spec.isas {
            let base = grid
                .point(kernel, isa, base_idx)
                .expect("a full grid")
                .cycles_per_invocation();
            for &ci in &series {
                let p = grid.point(kernel, isa, ci).expect("a full grid");
                out.push(Figure5Point {
                    kernel: p.kernel,
                    isa: p.isa,
                    mem_latency: p.mem_latency,
                    memory: p.memory.clone(),
                    cycles_per_invocation: p.cycles_per_invocation(),
                    slowdown: p.cycles_per_invocation() / base,
                    cache: p.result.cache,
                    l1_mpki: p.result.l1_mpki(),
                    l2_mpki: p.result.l2_mpki(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tables 1-9
// ---------------------------------------------------------------------------

/// One row of a per-kernel table: the speed-up decomposition for one ISA.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Kernel.
    pub kernel: KernelId,
    /// ISA of this row.
    pub isa: IsaKind,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Operations per instruction.
    pub opi: f64,
    /// Operation-reduction factor relative to the scalar baseline.
    pub r: f64,
    /// Speed-up over the scalar baseline.
    pub s: f64,
    /// Fraction of multimedia ("vector") instructions.
    pub f: f64,
    /// Average sub-word vector length (dimension X).
    pub vlx: f64,
    /// Average dimension-Y vector length.
    pub vly: f64,
}

/// Derives the Tables 1–9 rows from a measured grid, at its 4-way
/// perfect-memory configuration.
pub fn tables_from(grid: &GridResult) -> Vec<TableRow> {
    let way4 = grid
        .config_indices(|c| c.width == 4 && c.memory == MemoryModel::PERFECT)
        .first()
        .copied()
        .expect("the tables need the 4-way perfect-memory point in the grid");
    let mut rows = Vec::new();
    for &kernel in &grid.spec.kernels {
        let baseline = grid
            .point(kernel, IsaKind::Alpha, way4)
            .expect("the tables need the scalar baseline in the grid");
        for &isa in &grid.spec.isas {
            let point = grid.point(kernel, isa, way4).expect("a full grid");
            rows.push(TableRow {
                kernel,
                isa,
                ipc: point.result.ipc(),
                opi: point.result.opi(),
                r: baseline.ops_per_invocation() / point.ops_per_invocation(),
                s: baseline.cycles_per_invocation() / point.cycles_per_invocation(),
                f: point.stats.media_fraction(),
                vlx: point.stats.avg_vlx(),
                vly: point.stats.avg_vly(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper)
// ---------------------------------------------------------------------------

/// One ablation point: MOM cycles per invocation while varying a
/// micro-architectural parameter the paper discusses qualitatively.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Kernel.
    pub kernel: KernelId,
    /// Which parameter was varied.
    pub parameter: &'static str,
    /// The parameter value.
    pub value: usize,
    /// Cycles per invocation for MOM.
    pub mom_cycles: f64,
    /// Cycles per invocation for MMX at the same setting (for contrast).
    pub mmx_cycles: f64,
}

/// Derives an ablation series (MOM vs MMX cycles per invocation) from a
/// measured grid: every configuration is one value of the swept parameter,
/// read back off the config by `value_of`.
pub fn ablation_from(
    grid: &GridResult,
    parameter: &'static str,
    value_of: fn(&PipelineConfig) -> usize,
) -> Vec<AblationPoint> {
    let mut out = Vec::new();
    for &kernel in &grid.spec.kernels {
        for (ci, config) in grid.spec.configs.iter().enumerate() {
            let mom = grid
                .point(kernel, IsaKind::Mom, ci)
                .expect("an ablation grid needs the MOM series");
            let mmx = grid
                .point(kernel, IsaKind::Mmx, ci)
                .expect("an ablation grid needs the MMX series");
            out.push(AblationPoint {
                kernel,
                parameter,
                value: value_of(config),
                mom_cycles: mom.cycles_per_invocation(),
                mmx_cycles: mmx.cycles_per_invocation(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reporting helpers shared by the binaries and benches
// ---------------------------------------------------------------------------

/// Formats the Figure 4 results as an aligned text table.
pub fn format_figure4(points: &[Figure4Point]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: speed-up over Alpha code (perfect memory)\n");
    out.push_str(&format!(
        "{:<10} {:>6} {:>8} {:>8} {:>8}\n",
        "kernel", "way", "MMX", "MDMX", "MOM"
    ));
    for kernel in KernelId::ALL {
        for width in FIG4_WIDTHS {
            let get = |isa: IsaKind| {
                points
                    .iter()
                    .find(|p| p.kernel == kernel && p.width == width && p.isa == isa)
                    .map(|p| p.speedup)
                    .unwrap_or(f64::NAN)
            };
            out.push_str(&format!(
                "{:<10} {:>6} {:>8.2} {:>8.2} {:>8.2}\n",
                kernel.name(),
                width,
                get(IsaKind::Mmx),
                get(IsaKind::Mdmx),
                get(IsaKind::Mom)
            ));
        }
    }
    out
}

/// Formats the Figure 5 results as an aligned text table.
pub fn format_figure5(points: &[Figure5Point]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: cycles per invocation vs memory system (4-way)\n");
    out.push_str(&format!(
        "{:<10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8}\n",
        "kernel", "isa", "lat 1", "lat 12", "lat 50", "cache", "slowdown", "MPKI"
    ));
    for kernel in KernelId::ALL {
        for isa in IsaKind::ALL {
            let get = |memory: &str| {
                points
                    .iter()
                    .find(|p| p.kernel == kernel && p.isa == isa && p.memory == memory)
                    .cloned()
            };
            let cycles = |p: &Option<Figure5Point>| {
                p.as_ref()
                    .map(|p| p.cycles_per_invocation)
                    .unwrap_or(f64::NAN)
            };
            let (l1, l12, l50, cache) = (get("1"), get("12"), get("50"), get("cache"));
            out.push_str(&format!(
                "{:<10} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>9.2}x {:>8.2}\n",
                kernel.name(),
                if isa == IsaKind::Alpha {
                    "SS"
                } else {
                    isa.name()
                },
                cycles(&l1),
                cycles(&l12),
                cycles(&l50),
                cycles(&cache),
                l50.as_ref().map(|p| p.slowdown).unwrap_or(f64::NAN),
                cache.as_ref().map(|p| p.l1_mpki).unwrap_or(f64::NAN),
            ));
        }
    }
    out
}

/// Formats the Tables 1–9 results as aligned per-kernel tables.
pub fn format_tables(rows: &[TableRow]) -> String {
    let mut out = String::new();
    for kernel in KernelId::ALL {
        out.push_str(&format!(
            "Table ({}): speed-up breakdown, 4-way, 1-cycle memory\n",
            kernel.name()
        ));
        out.push_str(&format!(
            "{:<6} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7}\n",
            "ISA", "IPC", "OPI", "R", "S", "F", "VLx", "VLy"
        ));
        for isa in IsaKind::ALL {
            if let Some(r) = rows.iter().find(|r| r.kernel == kernel && r.isa == isa) {
                out.push_str(&format!(
                    "{:<6} {:>6.2} {:>7.2} {:>6.2} {:>6.1} {:>6.2} {:>6.2} {:>7.2}\n",
                    isa.name(),
                    r.ipc,
                    r.opi,
                    r.r,
                    r.s,
                    r.f,
                    r.vlx,
                    r.vly
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Common header of every `BENCH_*.json` report.
fn report_header(experiment: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", Json::int(1)),
        ("experiment", Json::str(experiment.to_string())),
        ("seed", Json::int(EXPERIMENT_SEED as i64)),
        (
            "steady_state_instructions",
            Json::int(STEADY_STATE_INSTRUCTIONS as i64),
        ),
    ]
}

/// The Figure 4 results as a machine-readable JSON report
/// (`BENCH_fig4.json`).
pub fn figure4_json(points: &[Figure4Point]) -> Json {
    let mut doc = report_header("fig4");
    doc.push((
        "points",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("kernel", Json::str(p.kernel.name())),
                        ("isa", Json::str(p.isa.name())),
                        ("width", Json::int(p.width as i64)),
                        ("speedup", Json::Num(p.speedup)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::obj(doc)
}

/// The Figure 5 results as a machine-readable JSON report
/// (`BENCH_fig5.json`).
pub fn figure5_json(points: &[Figure5Point]) -> Json {
    let mut doc = report_header("fig5");
    doc.push((
        "points",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("kernel", Json::str(p.kernel.name())),
                        ("isa", Json::str(p.isa.name())),
                        ("memory", Json::str(p.memory.clone())),
                        ("mem_latency", Json::int(p.mem_latency as i64)),
                        ("cycles_per_invocation", Json::Num(p.cycles_per_invocation)),
                        ("slowdown", Json::Num(p.slowdown)),
                        ("l1_hits", Json::int(p.cache.l1_hits as i64)),
                        ("l1_misses", Json::int(p.cache.l1_misses as i64)),
                        ("l2_hits", Json::int(p.cache.l2_hits as i64)),
                        ("l2_misses", Json::int(p.cache.l2_misses as i64)),
                        ("l1_mpki", Json::Num(p.l1_mpki)),
                        ("l2_mpki", Json::Num(p.l2_mpki)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::obj(doc)
}

/// The Tables 1–9 results as a machine-readable JSON report
/// (`BENCH_tables.json`).
pub fn tables_json(rows: &[TableRow]) -> Json {
    let mut doc = report_header("tables");
    doc.push((
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("kernel", Json::str(r.kernel.name())),
                        ("isa", Json::str(r.isa.name())),
                        ("ipc", Json::Num(r.ipc)),
                        ("opi", Json::Num(r.opi)),
                        ("r", Json::Num(r.r)),
                        ("s", Json::Num(r.s)),
                        ("f", Json::Num(r.f)),
                        ("vlx", Json::Num(r.vlx)),
                        ("vly", Json::Num(r.vly)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::obj(doc)
}

// ---------------------------------------------------------------------------
// Whole-application speed-ups (the mom-apps scenario layer)
// ---------------------------------------------------------------------------

/// Formats the application speed-up rows as an aligned text table: per
/// application, the pipeline phases, the kernel-region speed-up of each
/// multimedia ISA over the scalar baseline, and the Amdahl-combined
/// whole-application speed-up at the application's scalar coverage.
pub fn format_apps(rows: &[mom_apps::AppSpeedup]) -> String {
    use mom_apps::{AppId, AppSpec};
    let mut out = String::new();
    out.push_str(
        "Application speed-ups: kernel regions and Amdahl whole-app (2-way, L1/L2 cache)\n",
    );
    out.push_str(&format!(
        "{:<10} {:>9} {:>6} {:>10} {:>9} {:>9}  phases\n",
        "app", "coverage", "isa", "region-cyc", "region-S", "app-S"
    ));
    for app in AppId::ALL {
        let spec = AppSpec::of(app);
        let phases = spec
            .phases
            .iter()
            .map(|p| format!("{}x{}", p.kernel, p.invocations))
            .collect::<Vec<_>>()
            .join(" -> ");
        for (index, isa) in IsaKind::MEDIA.into_iter().enumerate() {
            let Some(row) = rows.iter().find(|r| r.app == app && r.isa == isa) else {
                continue;
            };
            out.push_str(&format!(
                "{:<10} {:>9.2} {:>6} {:>10} {:>8.2}x {:>8.2}x  {}\n",
                app.name(),
                row.coverage,
                isa.name(),
                row.cycles,
                row.kernel_speedup,
                row.app_speedup,
                if index == 0 { phases.as_str() } else { "" },
            ));
        }
    }
    out
}

/// The application speed-ups as a machine-readable JSON report
/// (`BENCH_apps.json`): the declarative pipelines (phases and coverage)
/// plus one point per (application, multimedia ISA).
pub fn apps_json(rows: &[mom_apps::AppSpeedup]) -> Json {
    use mom_apps::{AppId, AppSpec};
    let doc = vec![
        ("schema", Json::int(1)),
        ("experiment", Json::str("apps")),
        ("seed", Json::int(EXPERIMENT_SEED as i64)),
        ("frames", Json::int(mom_apps::DEFAULT_FRAMES as i64)),
        (
            "apps",
            Json::Arr(
                AppId::ALL
                    .iter()
                    .map(|&app| {
                        let spec = AppSpec::of(app);
                        Json::obj([
                            ("app", Json::str(app.name())),
                            ("coverage", Json::Num(spec.coverage)),
                            (
                                "phases",
                                Json::Arr(
                                    spec.phases
                                        .iter()
                                        .map(|p| {
                                            Json::obj([
                                                ("kernel", Json::str(p.kernel.name())),
                                                ("invocations", Json::int(p.invocations as i64)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "points",
            Json::Arr(rows.iter().map(app_point_json).collect()),
        ),
    ];
    Json::obj(doc)
}

/// One application speed-up row as a JSON object — the row shape shared by
/// [`apps_json`] and the `momsim serve` daemon's streamed job results.
pub fn app_point_json(r: &mom_apps::AppSpeedup) -> Json {
    Json::obj([
        ("app", Json::str(r.app.name())),
        ("isa", Json::str(r.isa.name())),
        ("coverage", Json::Num(r.coverage)),
        ("scalar_cycles", Json::int(r.scalar_cycles as i64)),
        ("cycles", Json::int(r.cycles as i64)),
        ("kernel_speedup", Json::Num(r.kernel_speedup)),
        ("app_speedup", Json::Num(r.app_speedup)),
    ])
}

/// Formats an ablation series as an aligned text table.
pub fn format_ablation(points: &[AblationPoint]) -> String {
    let parameter = points.first().map(|p| p.parameter).unwrap_or("value");
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation: {parameter}, cycles per invocation (4-way)\n"
    ));
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12}\n",
        "kernel", parameter, "MOM", "MMX"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12.0} {:>12.0}\n",
            p.kernel.name(),
            p.value,
            p.mom_cycles,
            p.mmx_cycles
        ));
    }
    out
}

/// An ablation series as a machine-readable JSON report.
pub fn ablation_json(points: &[AblationPoint]) -> Json {
    let mut doc = report_header("ablation");
    doc.push((
        "parameter",
        Json::str(points.first().map(|p| p.parameter).unwrap_or("value")),
    ));
    doc.push((
        "points",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("kernel", Json::str(p.kernel.name())),
                        ("value", Json::int(p.value as i64)),
                        ("mom_cycles", Json::Num(p.mom_cycles)),
                        ("mmx_cycles", Json::Num(p.mmx_cycles)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::obj(doc)
}

/// Formats a raw measured grid (ad-hoc `momsim run` sweeps) as an aligned
/// text table.
pub fn format_grid(grid: &GridResult) -> String {
    let sampled = grid.spec.sampling;
    let mut out = String::new();
    out.push_str(&format!(
        "Experiment grid: {} kernels x {} ISAs x {} configs (seed {:#x}, replication {}{})\n",
        grid.spec.kernels.len(),
        grid.spec.isas.len(),
        grid.spec.configs.len(),
        grid.spec.seed,
        grid.spec.replication,
        match sampled {
            Some(schedule) => format!(", sampled {schedule}"),
            None => String::new(),
        }
    ));
    out.push_str(&format!(
        "{:<10} {:>6} {:>6} {:>5} {:>6} {:>7} {:>12} {:>7} {:>7} {:>8}",
        "kernel", "isa", "width", "rob", "lanes", "memory", "cyc/invoc", "IPC", "OPI", "L1-MPKI"
    ));
    if sampled.is_some() {
        out.push_str(&format!(" {:>7}", "ci95"));
    }
    out.push('\n');
    for (index, p) in grid.points.iter().enumerate() {
        let config = &grid.spec.configs[index % grid.spec.configs.len()];
        out.push_str(&format!(
            "{:<10} {:>6} {:>6} {:>5} {:>6} {:>7} {:>12.1} {:>7.2} {:>7.2} {:>8.2}",
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
        if let Some(estimate) = &p.result.sampled {
            out.push_str(&format!(
                " {:>6.1}%",
                estimate.relative_half_width(p.result.cycles) * 100.0
            ));
        }
        out.push('\n');
    }
    out
}

/// One grid point as a JSON row: the coordinates (`config_index` names the
/// spec configuration the point was measured on), the raw counters, the
/// derived rates, and the sampling estimate when present.  This is the row
/// shape shared by [`grid_json`] and the `momsim serve` daemon's streamed
/// job results, so a point fetched over HTTP is field-identical to the same
/// point in a `momsim run --json` report.
pub fn point_json(p: &ExperimentPoint, config_index: usize) -> Json {
    let mut fields = vec![
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
    ];
    if let Some(estimate) = &p.result.sampled {
        fields.push((
            "sampled",
            Json::obj([
                ("intervals", Json::int(estimate.intervals as i64)),
                (
                    "detailed_instructions",
                    Json::int(estimate.detailed_instructions as i64),
                ),
                ("cpi_mean", Json::Num(estimate.cpi_mean)),
                ("cpi_stddev", Json::Num(estimate.cpi_stddev)),
                ("half_width_cycles", Json::Num(estimate.half_width_cycles)),
                (
                    "relative_half_width",
                    Json::Num(estimate.relative_half_width(p.result.cycles)),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// A raw measured grid as a machine-readable JSON report, spec axes
/// included.
pub fn grid_json(grid: &GridResult) -> Json {
    let spec = &grid.spec;
    let mut doc = vec![
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
    ];
    if let Some(schedule) = spec.sampling {
        // After the replication axis it qualifies.
        doc.insert(4, ("sampling", Json::str(schedule.to_string())));
    }
    Json::obj(doc)
}

/// A derived experiment report: what a registered or ad-hoc experiment
/// produces, with one shared text and JSON emitter for all experiment
/// shapes.
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
    /// The Figure 4 speed-up bars.
    Fig4(Vec<Figure4Point>),
    /// The Figure 5 memory series.
    Fig5(Vec<Figure5Point>),
    /// The Tables 1–9 rows.
    Tables(Vec<TableRow>),
    /// The whole-application speed-ups of the six Mediabench pipelines.
    Apps(Vec<mom_apps::AppSpeedup>),
    /// An ablation series (MOM vs MMX over one machine parameter).
    Ablation(Vec<AblationPoint>),
    /// A raw measured grid (ad-hoc sweeps).
    Grid(GridResult),
}

impl Report {
    /// The report as an aligned text table.
    pub fn text(&self) -> String {
        match self {
            Report::Fig4(points) => format_figure4(points),
            Report::Fig5(points) => format_figure5(points),
            Report::Tables(rows) => format_tables(rows),
            Report::Apps(rows) => format_apps(rows),
            Report::Ablation(points) => format_ablation(points),
            Report::Grid(grid) => format_grid(grid),
        }
    }

    /// The report as a machine-readable JSON document (the `BENCH_*.json`
    /// schema for the registered paper experiments).
    pub fn json(&self) -> Json {
        match self {
            Report::Fig4(points) => figure4_json(points),
            Report::Fig5(points) => figure5_json(points),
            Report::Tables(rows) => tables_json(rows),
            Report::Apps(rows) => apps_json(rows),
            Report::Ablation(points) => ablation_json(points),
            Report::Grid(grid) => grid_json(grid),
        }
    }

    /// Number of measured points in the report.
    pub fn points(&self) -> usize {
        match self {
            Report::Fig4(points) => points.len(),
            Report::Fig5(points) => points.len(),
            Report::Tables(rows) => rows.len(),
            Report::Apps(rows) => rows.len(),
            Report::Ablation(points) => points.len(),
            Report::Grid(grid) => grid.points.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            None,
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
        let _cold = mom_store::bypass_guard();
        let configs = [PipelineConfig::way(1), PipelineConfig::way(8)];
        let fanned = simulate_configs(
            KernelId::AddBlock,
            IsaKind::Mmx,
            &configs,
            EXPERIMENT_SEED,
            STEADY_STATE_INSTRUCTIONS,
            None,
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
    fn formatting_contains_all_kernels() {
        // Use a tiny synthetic set of points to keep this test fast.
        let points = vec![Figure4Point {
            kernel: KernelId::Idct,
            isa: IsaKind::Mom,
            width: 4,
            speedup: 5.0,
        }];
        let text = format_figure4(&points);
        assert!(text.contains("idct"));
        assert!(text.contains("MOM"));
        let doc = figure4_json(&points).pretty();
        assert!(doc.contains("\"experiment\": \"fig4\""));
        assert!(doc.contains("\"kernel\": \"idct\""));
        assert!(doc.contains("\"speedup\": 5"));
    }
}
