//! Declarative experiment descriptions: scenario grids as *data*.
//!
//! The paper's evaluation is a grid — kernels × ISAs × machine
//! configurations — and every experiment in this workspace is one slice of
//! that grid.  [`ExperimentSpec`] captures the slice declaratively (which
//! kernels, which ISAs, which [`PipelineConfig`]s, how much replication,
//! which seed); [`ExperimentSpec::run`] executes it on the shared thread
//! pool with each (kernel, ISA) pair's functional run fanned out over every
//! configuration exactly once, returning a [`GridResult`] that report
//! derivations index by `(kernel, isa, config)`.
//!
//! The paper's figures and tables — and the ablations beyond them — are
//! *registered* specs ([`registry`]): a name, a description, a spec builder
//! and a derivation from the measured grid to a [`Report`].  Any new sweep
//! (cache sizes, ROB depths, lane counts, new kernels) is a one-line
//! scenario description instead of a new driver binary.

use crate::json::Json;
use crate::sweep::{parallel_map_with, worker_count};
use crate::{
    simulate_configs, ExperimentPoint, Report, EXPERIMENT_SEED, STEADY_STATE_INSTRUCTIONS,
};
use mom_isa::IsaKind;
use mom_kernels::{KernelError, KernelId};
use mom_pipeline::{MemoryModel, PipelineConfig, SamplingConfig};
use std::collections::BTreeMap;
use std::str::FromStr;

/// A declarative experiment: the grid of scenarios to measure.
///
/// Every axis is data — construct the struct directly (with
/// `..Default::default()` for the axes you don't care about) and call
/// [`run`](ExperimentSpec::run):
///
/// ```
/// use mom_bench::ExperimentSpec;
/// use mom_isa::IsaKind;
/// use mom_kernels::KernelId;
/// use mom_pipeline::PipelineConfig;
///
/// let spec = ExperimentSpec {
///     kernels: vec![KernelId::AddBlock],
///     isas: vec![IsaKind::Mom],
///     configs: vec![PipelineConfig::builder().issue_width(2).build().unwrap()],
///     replication: 1, // one invocation is enough for a doc example
///     ..ExperimentSpec::default()
/// };
/// let grid = spec.run().unwrap();
/// assert_eq!(grid.points.len(), 1);
/// assert!(grid.points[0].result.cycles > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Kernels to measure (rows of the grid, in output order).
    pub kernels: Vec<KernelId>,
    /// ISAs to measure each kernel under.
    pub isas: Vec<IsaKind>,
    /// Machine configurations; each (kernel, ISA) functional run is fanned
    /// out over all of them at once.
    pub configs: Vec<PipelineConfig>,
    /// Target dynamic-stream length in instructions: each kernel invocation
    /// is replicated until the measured stream is at least this long
    /// (the paper's "simulated a certain number of times in a loop").
    pub replication: usize,
    /// Seed for the deterministic synthetic workloads.
    pub seed: u64,
    /// When set, the grid is timed by **systematic sampling**
    /// ([`mom_pipeline::sample`]): detailed intervals in the timing engine
    /// with cache-warming fast-forward between them, an extrapolated cycle
    /// count, and a confidence interval in every point's
    /// [`mom_pipeline::SimResult::sampled`].  `None` (the default, and the
    /// setting of every registered experiment) is exact full-fidelity
    /// timing.
    pub sampling: Option<SamplingConfig>,
}

impl Default for ExperimentSpec {
    /// The full kernel × ISA matrix on the paper's 4-way reference machine,
    /// at the standard replication and seed.
    fn default() -> Self {
        ExperimentSpec {
            kernels: KernelId::ALL.to_vec(),
            isas: IsaKind::ALL.to_vec(),
            configs: vec![PipelineConfig::default()],
            replication: STEADY_STATE_INSTRUCTIONS,
            seed: EXPERIMENT_SEED,
            sampling: None,
        }
    }
}

impl ExperimentSpec {
    /// Number of grid points the spec describes.
    pub fn points(&self) -> usize {
        self.kernels.len() * self.isas.len() * self.configs.len()
    }

    /// Validates the spec: every axis non-empty and duplicate-free (two
    /// equal machine configurations would measure the same points twice),
    /// every configuration valid, replication at least one instruction.
    pub fn validate(&self) -> Result<(), String> {
        fn unique<T: PartialEq>(items: &[T]) -> bool {
            items
                .iter()
                .enumerate()
                .all(|(i, a)| items[..i].iter().all(|b| b != a))
        }
        if self.kernels.is_empty() {
            return Err("an experiment needs at least one kernel".into());
        }
        if self.isas.is_empty() {
            return Err("an experiment needs at least one ISA".into());
        }
        if self.configs.is_empty() {
            return Err("an experiment needs at least one machine configuration".into());
        }
        if !unique(&self.kernels) {
            return Err("duplicate kernel in the experiment grid".into());
        }
        if !unique(&self.isas) {
            return Err("duplicate ISA in the experiment grid".into());
        }
        if self.replication == 0 {
            return Err("replication must be at least one instruction".into());
        }
        for (i, config) in self.configs.iter().enumerate() {
            config.validate().map_err(|e| format!("config {i}: {e}"))?;
            if let Some(first) = self.configs[..i].iter().position(|c| c == config) {
                return Err(format!(
                    "duplicate machine configuration in the experiment grid: \
                     config {i} repeats config {first}"
                ));
            }
        }
        if let Some(sampling) = &self.sampling {
            sampling.validate()?;
        }
        Ok(())
    }

    /// Runs the grid: (kernel, ISA) pairs concurrently on the thread pool,
    /// each pair's verified functional run fanned out over every
    /// configuration at once.  Point order is kernel-major, then ISA, then
    /// configuration — exactly the spec's axis order.
    pub fn run(&self) -> Result<GridResult, ExperimentError> {
        self.run_with_jobs(None)
    }

    /// [`run`](ExperimentSpec::run) on an explicit number of worker
    /// threads (`momsim run|sweep --jobs N`); `None` uses one per core,
    /// capped by the number of (kernel, ISA) pairs.  The thread count only
    /// changes how many pairs run at once, never the grid.
    pub fn run_with_jobs(&self, jobs: Option<usize>) -> Result<GridResult, ExperimentError> {
        self.validate().map_err(ExperimentError::Spec)?;
        let pairs: Vec<(KernelId, IsaKind)> = self
            .kernels
            .iter()
            .flat_map(|&k| self.isas.iter().map(move |&i| (k, i)))
            .collect();
        let threads = jobs.unwrap_or_else(|| worker_count(pairs.len()));
        let measured = parallel_map_with(pairs, threads, |(kernel, isa)| {
            simulate_configs(
                kernel,
                isa,
                &self.configs,
                self.seed,
                self.replication,
                self.sampling,
            )
        });
        let mut points = Vec::with_capacity(self.points());
        for pair_points in measured {
            points.extend(pair_points?);
        }
        Ok(GridResult {
            spec: self.clone(),
            points,
        })
    }
}

/// The ad-hoc grid vocabulary shared by `momsim run`, `momsim submit` and
/// `POST /jobs`: the axes a user gave, their JSON form, and the one cross
/// product that turns them into an [`ExperimentSpec`].
///
/// Each axis has one name: the JSON key of a submission and, behind `--`,
/// the command-line flag.  Its operand is the same in both places — a
/// comma-separated list (`--widths 2,4`, `"widths": "2,4"`) or, in JSON,
/// an array of the same items (`"widths": [2, 4]`).  [`GridAxes::spec`]
/// parses every item with the `FromStr` implementation of its domain
/// type, so a typo produces an error listing the valid names.  Unset axes
/// keep the [`ExperimentSpec::default`] values on a 4-way, 1-cycle
/// machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridAxes {
    /// The operand items of each axis given, by name.
    given: BTreeMap<&'static str, Vec<String>>,
}

impl GridAxes {
    /// The axis names.
    const NAMES: [&'static str; 9] = [
        "kernels",
        "isas",
        "widths",
        "memory",
        "rob",
        "lanes",
        "replication",
        "seed",
        "sampled",
    ];

    /// Parses axis flags (`--kernels idct,motion1 --widths 2,4`).  The
    /// schedule of `--sampled` is optional: a following flag is not taken
    /// as its operand.
    pub fn from_flags(args: &[String]) -> Result<GridAxes, String> {
        let mut axes = GridAxes::default();
        let mut args = args.iter().peekable();
        while let Some(flag) = args.next() {
            let Some(name) = flag.strip_prefix("--").filter(|n| Self::NAMES.contains(n)) else {
                return Err(format!("unknown argument {flag} (see `momsim help`)"));
            };
            // The operand is the JSON string form of the same key.
            let value = match args.next_if(|next| !next.starts_with("--")) {
                Some(operand) => Json::str(operand.as_str()),
                None if name == "sampled" => Json::Bool(true),
                None => return Err(format!("{flag} needs a value")),
            };
            axes.apply_json(name, &value)?;
        }
        Ok(axes)
    }

    /// Sets axis `name` from its JSON value: a string is the command-line
    /// operand, an array holds its items (strings, or integers below 2^53
    /// — send larger ones, like big seeds, as decimal strings), and
    /// `"sampled"` also takes `true` (the default schedule) or `false`
    /// (exact timing).
    pub fn apply_json(&mut self, name: &str, value: &Json) -> Result<(), String> {
        let Some(&name) = Self::NAMES.iter().find(|&&n| n == name) else {
            return Err(format!(
                "unknown key \"{name}\" (expected experiment, or label and any of: {})",
                Self::NAMES.join(", ")
            ));
        };
        let item = |value: &Json| match value {
            Json::Str(text) => Ok(text.trim().to_string()),
            Json::Num(n) => value.as_u64().map(|n| n.to_string()).ok_or_else(|| {
                format!("{name}: {n} is not an integer below 2^53 (send it as a decimal string)")
            }),
            _ => Err(format!("{name}: expected strings or integers")),
        };
        let items = match value {
            Json::Bool(false) if name == "sampled" => {
                self.given.remove(name);
                return Ok(());
            }
            Json::Bool(true) if name == "sampled" => Vec::new(),
            Json::Str(operand) => operand
                .split(',')
                .map(str::trim)
                .filter(|item| !item.is_empty())
                .map(String::from)
                .collect(),
            Json::Arr(values) => values.iter().map(item).collect::<Result<_, _>>()?,
            other => vec![item(other)?],
        };
        self.given.insert(name, items);
        Ok(())
    }

    /// The JSON form of the given axes (each an array of its items, which
    /// keeps a seed above 2^53 exact): what `momsim submit` sends, and what
    /// [`GridAxes::apply_json`] reads back to the same axes.
    pub fn to_json(&self) -> Vec<(&'static str, Json)> {
        self.given
            .iter()
            .map(|(&name, items)| (name, Json::Arr(items.iter().map(Json::str).collect())))
            .collect()
    }

    fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.given.get(name) {
            None => Ok(None),
            Some(items) if items.is_empty() => Err(format!("{name} needs at least one value")),
            Some(items) => items
                .iter()
                .map(|item| item.parse().map_err(|e| format!("{name}: {e}")))
                .collect::<Result<_, _>>()
                .map(Some),
        }
    }

    fn one<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.given.get(name).map(Vec::as_slice) {
            None => Ok(None),
            Some([item]) => item.parse().map(Some).map_err(|e| format!("{name}: {e}")),
            Some(_) => Err(format!("{name} takes exactly one value")),
        }
    }

    /// The validated spec: every item parsed, and the cross product of the
    /// width, memory, ROB and lane axes (each configuration built and
    /// checked by [`PipelineConfig::builder`]) over the kernel and ISA
    /// axes.
    pub fn spec(&self) -> Result<ExperimentSpec, String> {
        let whole = |name| match self.given.get(name).map(Vec::as_slice) {
            Some([set]) => set.as_str(),
            _ => "",
        };
        let defaults = ExperimentSpec::default();
        let kernels = match whole("kernels") {
            "all" => KernelId::ALL.to_vec(),
            _ => self.list("kernels")?.unwrap_or(defaults.kernels),
        };
        let isas = match whole("isas") {
            "all" => IsaKind::ALL.to_vec(),
            "media" => IsaKind::MEDIA.to_vec(),
            _ => self.list("isas")?.unwrap_or(defaults.isas),
        };
        let sampling = match self.given.get("sampled") {
            Some(items) if items.is_empty() => Some(SamplingConfig::DEFAULT),
            _ => self.one("sampled")?,
        };
        let optional = |values: Option<Vec<usize>>| -> Vec<Option<usize>> {
            match values {
                Some(values) => values.into_iter().map(Some).collect(),
                None => vec![None],
            }
        };
        let memory = self.list("memory")?.unwrap_or(vec![MemoryModel::PERFECT]);
        let (robs, lanes) = (optional(self.list("rob")?), optional(self.list("lanes")?));
        let mut configs = Vec::new();
        for width in self.list("widths")?.unwrap_or(vec![4]) {
            for &memory in &memory {
                for &rob in &robs {
                    for &lanes in &lanes {
                        let mut builder =
                            PipelineConfig::builder().issue_width(width).memory(memory);
                        if let Some(rob) = rob {
                            builder = builder.rob(rob);
                        }
                        if let Some(lanes) = lanes {
                            builder = builder.lanes(lanes);
                        }
                        configs.push(builder.build()?);
                    }
                }
            }
        }
        let spec = ExperimentSpec {
            kernels,
            isas,
            configs,
            replication: self.one("replication")?.unwrap_or(defaults.replication),
            seed: self.one("seed")?.unwrap_or(defaults.seed),
            sampling,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The measured grid of an [`ExperimentSpec`]: one [`ExperimentPoint`] per
/// (kernel, ISA, configuration), in spec order.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// The spec that produced the grid.
    pub spec: ExperimentSpec,
    /// Kernel-major, then ISA, then configuration.
    pub points: Vec<ExperimentPoint>,
}

impl GridResult {
    /// Looks up the point of `(kernel, isa, config_index)`, or `None` when
    /// the coordinate is outside the grid.
    pub fn point(
        &self,
        kernel: KernelId,
        isa: IsaKind,
        config_index: usize,
    ) -> Option<&ExperimentPoint> {
        let k = self.spec.kernels.iter().position(|&x| x == kernel)?;
        let i = self.spec.isas.iter().position(|&x| x == isa)?;
        if config_index >= self.spec.configs.len() {
            return None;
        }
        self.points
            .get((k * self.spec.isas.len() + i) * self.spec.configs.len() + config_index)
    }

    /// Indices (into the spec's `configs`) whose configuration satisfies a
    /// predicate, in config order — how report derivations name their series
    /// (e.g. "all perfect-memory configs" for Figure 4's width axis).
    pub fn config_indices(&self, pred: impl Fn(&PipelineConfig) -> bool) -> Vec<usize> {
        self.spec
            .configs
            .iter()
            .enumerate()
            .filter(|(_, c)| pred(c))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Error of a declarative experiment run: an invalid spec, a kernel whose
/// functional run failed verification, or a failed application scenario.
#[derive(Debug)]
pub enum ExperimentError {
    /// The spec failed [`ExperimentSpec::validate`].
    Spec(String),
    /// A kernel failed to run or verify against its golden reference.
    Kernel(KernelError),
    /// An application pipeline failed (the error names the phase).
    App(mom_apps::AppError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Spec(message) => write!(f, "invalid experiment spec: {message}"),
            ExperimentError::Kernel(e) => write!(f, "kernel run failed: {e}"),
            ExperimentError::App(e) => write!(f, "application run failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<KernelError> for ExperimentError {
    fn from(e: KernelError) -> Self {
        ExperimentError::Kernel(e)
    }
}

impl From<mom_apps::AppError> for ExperimentError {
    fn from(e: mom_apps::AppError) -> Self {
        ExperimentError::App(e)
    }
}

// ---------------------------------------------------------------------------
// The registry of named experiments
// ---------------------------------------------------------------------------

/// How a registered experiment measures its report.
#[derive(Debug)]
enum Runner {
    /// A kernel × ISA × configuration grid ([`ExperimentSpec`]) plus the
    /// derivation from the measured grid to the report.
    Grid {
        spec: fn() -> ExperimentSpec,
        derive: fn(&GridResult) -> Report,
    },
    /// A scenario with its own execution shape (e.g. the multi-kernel
    /// application pipelines of `mom-apps`, which are *not* a grid: phases
    /// share one machine and carry cache state across boundaries).
    Scenario(fn() -> Result<Report, ExperimentError>),
}

/// A named, registered experiment: a grid spec plus its report derivation,
/// or a self-contained scenario runner.
#[derive(Debug)]
pub struct NamedExperiment {
    /// The CLI name (`momsim run <name>`).
    pub name: &'static str,
    /// One-line description shown by `momsim list`.
    pub description: &'static str,
    runner: Runner,
}

impl NamedExperiment {
    /// The experiment's grid spec, when the experiment is a grid (scenario
    /// experiments like `app-speedups` have no grid shape).
    pub fn spec(&self) -> Option<ExperimentSpec> {
        match &self.runner {
            Runner::Grid { spec, .. } => Some(spec()),
            Runner::Scenario(_) => None,
        }
    }

    /// Derives the report from a measured grid that holds the experiment's
    /// own (`momsim sweep`'s union grid); `None` for a scenario.
    pub(crate) fn derive(&self, grid: &GridResult) -> Option<Report> {
        match &self.runner {
            Runner::Grid { derive, .. } => Some(derive(grid)),
            Runner::Scenario(_) => None,
        }
    }

    /// Runs the experiment and derives the report.
    pub fn run(&self) -> Result<Report, ExperimentError> {
        self.run_with_jobs(None)
    }

    /// [`run`](NamedExperiment::run) with an explicit worker count for grid
    /// experiments (see [`ExperimentSpec::run_with_jobs`]); scenario
    /// experiments have no grid to shard and ignore it.
    pub fn run_with_jobs(&self, jobs: Option<usize>) -> Result<Report, ExperimentError> {
        match &self.runner {
            Runner::Grid { spec, derive } => Ok(derive(&spec().run_with_jobs(jobs)?)),
            Runner::Scenario(run) => run(),
        }
    }
}

/// The issue widths of Figure 4.
const FIG4_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn fig4_spec() -> ExperimentSpec {
    ExperimentSpec {
        configs: FIG4_WIDTHS
            .iter()
            .map(|&w| PipelineConfig::way(w))
            .collect(),
        ..ExperimentSpec::default()
    }
}

fn fig5_spec() -> ExperimentSpec {
    ExperimentSpec {
        configs: [
            MemoryModel::PERFECT,
            MemoryModel::L2,
            MemoryModel::MAIN_MEMORY,
            MemoryModel::CACHE,
        ]
        .into_iter()
        .map(|m| PipelineConfig::way_with_memory(4, m))
        .collect(),
        ..ExperimentSpec::default()
    }
}

pub(crate) fn tables_spec() -> ExperimentSpec {
    ExperimentSpec::default()
}

/// The registered experiments `momsim sweep` derives from the one shared
/// [`union_spec`] grid instead of measuring each on its own.
pub(crate) const UNION_EXPERIMENTS: [&str; 3] = ["fig4", "fig5", "tables"];

/// The union of machine configurations the [`UNION_EXPERIMENTS`] need,
/// measured once per (kernel, ISA) pair by `momsim sweep`: Figure 4's four
/// widths at 1-cycle memory (Tables 1–9 reuse the 4-way point), the 4-way
/// core at the two slower Figure 5 latencies (the 1-cycle point is Figure
/// 4's), and the 4-way core behind the simulated L1/L2 cache hierarchy (the
/// "real cache" variant of Figure 5).
pub(crate) fn union_spec() -> ExperimentSpec {
    let mut configs = fig4_spec().configs;
    configs.extend(
        [
            MemoryModel::L2,
            MemoryModel::MAIN_MEMORY,
            MemoryModel::CACHE,
        ]
        .into_iter()
        .map(|m| PipelineConfig::way_with_memory(4, m)),
    );
    ExperimentSpec {
        configs,
        ..ExperimentSpec::default()
    }
}

fn ablation_lanes_spec() -> ExperimentSpec {
    ExperimentSpec {
        kernels: vec![KernelId::Motion1, KernelId::Idct, KernelId::Compensation],
        isas: vec![IsaKind::Mom, IsaKind::Mmx],
        configs: [1, 2, 4, 8]
            .into_iter()
            .map(|lanes| {
                PipelineConfig::builder()
                    .issue_width(4)
                    .lanes(lanes)
                    .build()
                    .expect("a valid lane-ablation config")
            })
            .collect(),
        ..ExperimentSpec::default()
    }
}

fn ablation_rob_spec() -> ExperimentSpec {
    ExperimentSpec {
        kernels: vec![KernelId::Motion1, KernelId::Compensation],
        isas: vec![IsaKind::Mom, IsaKind::Mmx],
        configs: [16, 32, 64, 128]
            .into_iter()
            .map(|rob| {
                PipelineConfig::builder()
                    .issue_width(4)
                    .memory(MemoryModel::MAIN_MEMORY)
                    .rob(rob)
                    .build()
                    .expect("a valid rob-ablation config")
            })
            .collect(),
        ..ExperimentSpec::default()
    }
}

fn derive_fig4(grid: &GridResult) -> Report {
    Report::Fig4(crate::fig4_from(grid))
}

fn derive_fig5(grid: &GridResult) -> Report {
    Report::Fig5(crate::fig5_from(grid))
}

fn derive_tables(grid: &GridResult) -> Report {
    Report::Tables(crate::tables_from(grid))
}

fn derive_ablation_lanes(grid: &GridResult) -> Report {
    Report::Ablation(crate::ablation_from(grid, "media-lanes", |c| c.media_lanes))
}

fn derive_ablation_rob(grid: &GridResult) -> Report {
    Report::Ablation(crate::ablation_from(grid, "rob-size", |c| c.rob_size))
}

/// Runs the `app-speedups` scenario: the six Mediabench applications as
/// multi-kernel pipelines on the application reference machine (2-way core,
/// L1/L2 cache hierarchy carried across phase boundaries), reported as
/// kernel-region and Amdahl whole-application speed-ups.  The scenario sits
/// behind the result store ([`crate::store::stored_app_speedups`]): a warm
/// store serves the whole report without building a single simulation.
fn run_app_speedups() -> Result<Report, ExperimentError> {
    let rows = crate::store::stored_app_speedups(
        &mom_apps::reference_config(),
        EXPERIMENT_SEED,
        mom_apps::DEFAULT_FRAMES,
    )?;
    Ok(Report::Apps(rows))
}

/// The registered experiments — the paper's figures and tables, the
/// whole-application scenario layer, and the ablations — in `momsim list`
/// order.
pub fn registry() -> &'static [NamedExperiment] {
    static REGISTRY: [NamedExperiment; 6] = [
        NamedExperiment {
            name: "fig4",
            description: "Figure 4: speed-up over the scalar baseline at issue widths 1/2/4/8",
            runner: Runner::Grid {
                spec: fig4_spec,
                derive: derive_fig4,
            },
        },
        NamedExperiment {
            name: "fig5",
            description: "Figure 5: cycles vs memory system (1/12/50 cycles + L1/L2 cache), 4-way",
            runner: Runner::Grid {
                spec: fig5_spec,
                derive: derive_fig5,
            },
        },
        NamedExperiment {
            name: "tables",
            description: "Tables 1-9: IPC / OPI / R / S / F / VLx / VLy per kernel, 4-way",
            runner: Runner::Grid {
                spec: tables_spec,
                derive: derive_tables,
            },
        },
        NamedExperiment {
            name: "app-speedups",
            description: "Whole applications: kernel-region + Amdahl speed-ups of the six \
                          Mediabench programs (2-way, L1/L2 cache across phases)",
            runner: Runner::Scenario(run_app_speedups),
        },
        NamedExperiment {
            name: "ablation-lanes",
            description: "Ablation: multimedia lane count (MOM vs MMX, 4-way, perfect memory)",
            runner: Runner::Grid {
                spec: ablation_lanes_spec,
                derive: derive_ablation_lanes,
            },
        },
        NamedExperiment {
            name: "ablation-rob",
            description: "Ablation: reorder-buffer size (MOM vs MMX, 4-way, 50-cycle memory)",
            runner: Runner::Grid {
                spec: ablation_rob_spec,
                derive: derive_ablation_rob,
            },
        },
    ];
    &REGISTRY
}

/// Looks up a registered experiment by name; the error lists the valid
/// names.
pub fn find_experiment(name: &str) -> Result<&'static NamedExperiment, String> {
    registry().iter().find(|e| e.name == name).ok_or_else(|| {
        format!(
            "unknown experiment '{}' (registered: {})",
            name,
            registry()
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_specs_validate_and_cover_the_reports() {
        let mut grids = 0;
        for experiment in registry() {
            if let Some(spec) = experiment.spec() {
                grids += 1;
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", experiment.name));
                assert!(spec.points() > 0);
            }
            assert!(!experiment.description.is_empty());
        }
        assert!(grids >= 5, "the five grid experiments stay registered");
        assert!(find_experiment("fig5").is_ok());
        assert!(
            find_experiment("app-speedups").is_ok(),
            "the application scenario layer must be registered"
        );
        assert!(
            find_experiment("app-speedups").unwrap().spec().is_none(),
            "app-speedups is a scenario, not a grid"
        );
        let err = find_experiment("fig6").unwrap_err();
        for name in [
            "fig6",
            "fig4",
            "tables",
            "app-speedups",
            "ablation-lanes",
            "ablation-rob",
        ] {
            assert!(err.contains(name), "{err:?} should mention {name}");
        }
    }

    #[test]
    fn spec_validation_rejects_degenerate_grids() {
        let empty = ExperimentSpec {
            kernels: vec![],
            ..ExperimentSpec::default()
        };
        assert!(empty.validate().is_err());
        let dup = ExperimentSpec {
            isas: vec![IsaKind::Mom, IsaKind::Mom],
            ..ExperimentSpec::default()
        };
        assert!(dup.validate().is_err());
        let none = ExperimentSpec {
            configs: vec![],
            ..ExperimentSpec::default()
        };
        assert!(none.validate().is_err());
        // `--memory 1,perfect` spells one configuration twice.
        let twice = ExperimentSpec {
            configs: vec![
                PipelineConfig::way(2),
                PipelineConfig::way(4),
                PipelineConfig::way_with_memory(4, MemoryModel::Fixed { latency: 1 }),
            ],
            ..ExperimentSpec::default()
        };
        let err = twice.validate().unwrap_err();
        assert!(err.contains("config 2 repeats config 1"), "{err}");
        let zero = ExperimentSpec {
            replication: 0,
            ..ExperimentSpec::default()
        };
        assert!(zero.validate().is_err());
        let bad = PipelineConfig {
            rob_size: 0,
            ..PipelineConfig::default()
        };
        let invalid = ExperimentSpec {
            configs: vec![bad],
            ..ExperimentSpec::default()
        };
        assert!(matches!(invalid.run(), Err(ExperimentError::Spec(_))));
    }

    #[test]
    fn sampled_grid_carries_estimates_and_validates_schedule() {
        let spec = ExperimentSpec {
            kernels: vec![KernelId::AddBlock],
            isas: vec![IsaKind::Mom],
            configs: vec![PipelineConfig::way(2), PipelineConfig::way(4)],
            sampling: Some(SamplingConfig::DEFAULT),
            ..ExperimentSpec::default()
        };
        let grid = spec.run().unwrap();
        assert_eq!(grid.points.len(), 2);
        for point in &grid.points {
            assert!(
                point.result.sampled.is_some(),
                "sampled grids must report the estimate"
            );
            assert!(point.result.cycles > 0);
        }
        let bad = ExperimentSpec {
            sampling: Some(SamplingConfig {
                fastforward: 0,
                ..SamplingConfig::DEFAULT
            }),
            ..ExperimentSpec::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn grid_lookup_addresses_every_point() {
        let spec = ExperimentSpec {
            kernels: vec![KernelId::AddBlock, KernelId::Motion1],
            isas: vec![IsaKind::Mmx, IsaKind::Mom],
            configs: vec![PipelineConfig::way(1), PipelineConfig::way(4)],
            replication: 1,
            ..ExperimentSpec::default()
        };
        let grid = spec.run().unwrap();
        assert_eq!(grid.points.len(), 8);
        for &kernel in &grid.spec.kernels {
            for &isa in &grid.spec.isas {
                for (ci, config) in grid.spec.configs.iter().enumerate() {
                    let p = grid.point(kernel, isa, ci).expect("inside the grid");
                    assert_eq!((p.kernel, p.isa, p.width), (kernel, isa, config.width));
                }
            }
        }
        assert!(grid.point(KernelId::Idct, IsaKind::Mom, 0).is_none());
        assert!(grid.point(KernelId::AddBlock, IsaKind::Alpha, 0).is_none());
        assert!(grid.point(KernelId::AddBlock, IsaKind::Mom, 2).is_none());
        assert_eq!(grid.config_indices(|c| c.width == 4), vec![1]);
    }
}
