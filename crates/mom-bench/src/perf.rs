//! The performance-measurement subsystem: `momsim bench`.
//!
//! The workspace's correctness bar is byte-identical `BENCH_*.json`
//! reports; this module is the *speed* bar.  It measures
//!
//! * **engine throughput** — retired instructions per second of the
//!   optimised out-of-order engine ([`mom_pipeline::PipelineSim`]) against
//!   the retained naive reference ([`mom_pipeline::ReferenceSim`]) on a set
//!   of pinned kernel streams covering the interesting regimes (scalar
//!   versus matrix code, perfect memory versus long latencies versus the
//!   simulated cache hierarchy), and
//! * **whole-sweep wall time** — the end-to-end time to regenerate the
//!   full registered-experiment set (everything `momsim sweep` writes) in
//!   one process, functional-trace cache shared.
//!
//! The committed `BENCH_perf.json` is the repo's perf-trajectory record:
//! its *structure* (which benchmarks exist, how many instructions each
//! stream retires, how many experiments and points the sweep covers) is
//! deterministic and CI-checked ([`check_structure`]), while the measured
//! timings are machine-dependent snapshots refreshed by maintainers with
//! `momsim bench --json BENCH_perf.json`.

use crate::json::Json;
use crate::{steady_state_trace, ExperimentError, EXPERIMENT_SEED};
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::{MemoryModel, PipelineConfig, PipelineSim, ReferenceSim, TraceSink};
use std::time::Instant;

/// One pinned engine workload: a kernel stream timed on one machine
/// configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    /// Kernel providing the instruction stream.
    pub kernel: KernelId,
    /// ISA of the stream (scalar Alpha streams are long and
    /// dependence-heavy; MOM streams are short with multi-cycle
    /// occupancies).
    pub isa: IsaKind,
    /// Issue width of the timed configuration.
    pub width: usize,
    /// Memory model of the timed configuration.
    pub memory: MemoryModel,
}

impl EngineWorkload {
    /// Stable benchmark id, e.g. `motion1/mom/4w/cache`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}w/{}",
            self.kernel.name(),
            self.isa.name().to_ascii_lowercase(),
            self.width,
            self.memory.label()
        )
    }
}

/// The pinned workload set: both engines are measured on exactly these
/// streams, chosen to cover the regimes that stress different parts of the
/// scheduler (dependence chains, memory ordering, functional-unit
/// occupancy, the cache hierarchy).
pub const ENGINE_WORKLOADS: [EngineWorkload; 6] = [
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Alpha,
        width: 4,
        memory: MemoryModel::PERFECT,
    },
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Alpha,
        width: 4,
        memory: MemoryModel::MAIN_MEMORY,
    },
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Mom,
        width: 4,
        memory: MemoryModel::PERFECT,
    },
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Mom,
        width: 4,
        memory: MemoryModel::CACHE,
    },
    EngineWorkload {
        kernel: KernelId::Idct,
        isa: IsaKind::Alpha,
        width: 8,
        memory: MemoryModel::CACHE,
    },
    EngineWorkload {
        kernel: KernelId::Idct,
        isa: IsaKind::Mdmx,
        width: 2,
        memory: MemoryModel::L2,
    },
];

/// One measured engine point.
#[derive(Debug, Clone)]
pub struct EngineMeasurement {
    /// Which pinned workload.
    pub workload: EngineWorkload,
    /// Instructions the stream retires per measured pass (deterministic).
    pub instructions: u64,
    /// Optimised-engine throughput, retired instructions per second.
    pub optimized_ips: f64,
    /// Reference-engine throughput, retired instructions per second.
    pub reference_ips: f64,
}

impl EngineMeasurement {
    /// Speed-up of the optimised engine over the naive reference.
    pub fn speedup(&self) -> f64 {
        self.optimized_ips / self.reference_ips
    }
}

/// The full `momsim bench` outcome.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Whether the quick (CI smoke) parameters were used.
    pub quick: bool,
    /// Per-workload engine measurements.
    pub engine: Vec<EngineMeasurement>,
    /// Registered experiments regenerated by the sweep measurement.
    pub sweep_experiments: usize,
    /// Total report points those experiments produced.
    pub sweep_points: usize,
    /// Wall seconds for the whole registered-experiment set (one process,
    /// shared trace cache).
    pub sweep_seconds: f64,
}

impl PerfReport {
    /// Geometric mean of the per-workload engine speed-ups.
    pub fn engine_speedup_geomean(&self) -> f64 {
        if self.engine.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.engine.iter().map(|m| m.speedup().ln()).sum();
        (log_sum / self.engine.len() as f64).exp()
    }
}

/// Times one pass of replays of a prepared trace through a consumer,
/// returning seconds per replay.
///
/// A single replay of a pinned stream takes well under a millisecond on the
/// optimised engine — far too short to time reliably (scheduler preemption
/// or one cache-cold pass lands anywhere within a few hundred
/// microseconds).  A pass therefore replays the stream into the *same*
/// consumer until at least `min_seconds` of wall time has elapsed and
/// divides by the replay count.  The consumers are streaming and
/// bounded-memory, so repeated replays are the intended usage, not an
/// artefact.
fn time_pass<S: TraceSink>(trace: &mom_arch::Trace, min_seconds: f64, mut sink: S) -> f64 {
    let mut replays = 0u32;
    let start = Instant::now();
    let elapsed = loop {
        trace.replay_into(1, &mut sink);
        replays += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds {
            break elapsed;
        }
    };
    std::hint::black_box(&sink);
    elapsed / replays as f64
}

/// Runs the engine benchmarks: each pinned workload through both engines.
///
/// `quick` uses two passes per engine (CI smoke); the full mode takes the
/// best of several passes for a stable committed number.  The two
/// engines' passes alternate, so a change in the host's speed during the
/// measurement (a shared VM's neighbours) lands on both sides of each
/// speed-up instead of on one.  Both modes keep the same minimum
/// measurement window: the quick numbers feed the CI regression gate, and
/// shrinking the window is exactly what made short measurements noisy
/// enough to flag phantom regressions.
pub fn engine_benchmarks(quick: bool) -> Result<Vec<EngineMeasurement>, ExperimentError> {
    let passes = if quick { 2 } else { 3 };
    let min_seconds = 0.02;
    let mut out = Vec::with_capacity(ENGINE_WORKLOADS.len());
    for workload in ENGINE_WORKLOADS {
        let (trace, _) = steady_state_trace(workload.kernel, workload.isa, EXPERIMENT_SEED)?;
        let config = PipelineConfig::builder()
            .issue_width(workload.width)
            .memory(workload.memory)
            .build()
            .expect("a valid pinned workload configuration");
        let (mut optimized, mut reference) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..passes {
            let pass = time_pass(&trace, min_seconds, PipelineSim::new(config.clone()));
            optimized = optimized.min(pass);
            let pass = time_pass(&trace, min_seconds, ReferenceSim::new(config.clone()));
            reference = reference.min(pass);
        }
        let instructions = trace.len() as u64;
        out.push(EngineMeasurement {
            workload,
            instructions,
            optimized_ips: instructions as f64 / optimized,
            reference_ips: instructions as f64 / reference,
        });
    }
    Ok(out)
}

/// Names of every registered experiment the sweep measurement covers —
/// the whole registry, by construction, so a newly registered experiment
/// is covered automatically.
pub fn sweep_experiment_names() -> Vec<&'static str> {
    crate::registry().iter().map(|e| e.name).collect()
}

/// Times one in-process regeneration of the full registered-experiment set
/// — exactly the documents `momsim sweep` writes
/// ([`crate::cli::sweep_documents`]), without the file I/O — returning
/// (total points, wall seconds).
pub fn time_full_set() -> Result<(usize, f64), ExperimentError> {
    let start = Instant::now();
    let documents = crate::cli::sweep_documents(None)?;
    let points = documents.iter().map(|(_, _, points)| points).sum();
    Ok((points, start.elapsed().as_secs_f64()))
}

/// Runs the whole perf suite.
///
/// The sweep is timed **first**, so the committed `sweep_seconds` reflects
/// a cold functional-trace cache — the same state a fresh `momsim sweep`
/// process starts from — rather than one pre-warmed by the engine
/// benchmarks.
pub fn run(quick: bool) -> Result<PerfReport, ExperimentError> {
    // Perf measures the *simulators*: suspend the persistent artifact store
    // for the whole suite, or a warm store would turn the sweep wall time
    // into a disk-read benchmark and invalidate the committed trajectory.
    let _bypass = mom_store::bypass_guard();
    let (sweep_points, sweep_seconds) = time_full_set()?;
    let engine = engine_benchmarks(quick)?;
    Ok(PerfReport {
        quick,
        engine,
        sweep_experiments: sweep_experiment_names().len(),
        sweep_points,
        sweep_seconds,
    })
}

/// Formats the report as an aligned text table.
pub fn format_perf(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str("Engine throughput: optimized vs naive reference (retired instrs/sec)\n");
    out.push_str(&format!(
        "{:<28} {:>9} {:>12} {:>12} {:>9}\n",
        "workload", "instrs", "optimized", "reference", "speedup"
    ));
    for m in &report.engine {
        out.push_str(&format!(
            "{:<28} {:>9} {:>10.2}M {:>10.2}M {:>8.2}x\n",
            m.workload.id(),
            m.instructions,
            m.optimized_ips / 1e6,
            m.reference_ips / 1e6,
            m.speedup()
        ));
    }
    out.push_str(&format!(
        "engine speedup (geomean): {:.2}x\n\n",
        report.engine_speedup_geomean()
    ));
    out.push_str(&format!(
        "Full registered-experiment set ({} experiments, {} points): {:.3}s wall\n",
        report.sweep_experiments, report.sweep_points, report.sweep_seconds
    ));
    out
}

/// The report as the machine-readable `BENCH_perf.json` document.
///
/// Everything except the keys listed in [`MEASURED_KEYS`] is deterministic
/// structure; [`check_structure`] relies on that split.  The engines'
/// absolute rates stay out: they follow the host's load, and only their
/// ratio is gated ([`check_performance`]).
pub fn perf_json(report: &PerfReport) -> Json {
    Json::obj([
        ("schema", Json::int(1)),
        ("experiment", Json::str("perf")),
        ("seed", Json::int(EXPERIMENT_SEED as i64)),
        (
            "sweep_experiments",
            Json::Arr(
                sweep_experiment_names()
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        ("sweep_points", Json::int(report.sweep_points as i64)),
        ("sweep_seconds", Json::Num(report.sweep_seconds)),
        (
            "engine",
            Json::Arr(
                report
                    .engine
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("workload", Json::str(m.workload.id())),
                            ("instructions", Json::int(m.instructions as i64)),
                            ("speedup", Json::Num(m.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "engine_speedup_geomean",
            Json::Num(report.engine_speedup_geomean()),
        ),
    ])
}

/// JSON keys of `BENCH_perf.json` whose values are measured timings
/// (machine-dependent); every other line of the document is deterministic
/// structure.
pub const MEASURED_KEYS: [&str; 3] = ["sweep_seconds", "speedup", "engine_speedup_geomean"];

/// Strips the measured-timing lines from a rendered `BENCH_perf.json`,
/// leaving only the deterministic structure.
fn structure_lines(doc: &str) -> Vec<String> {
    doc.lines()
        .filter(|line| {
            !MEASURED_KEYS
                .iter()
                .any(|key| line.trim_start().starts_with(&format!("\"{key}\"")))
        })
        .map(str::to_string)
        .collect()
}

/// Verifies that a freshly measured report has the same *structure* as a
/// committed `BENCH_perf.json`: the same benchmark set, stream lengths and
/// sweep coverage.  Timing values are machine-dependent and ignored.
/// Returns a description of the first mismatch, if any.
pub fn check_structure(committed: &str, fresh: &PerfReport) -> Result<(), String> {
    let fresh = perf_json(fresh).pretty();
    let committed_structure = structure_lines(committed);
    let fresh_structure = structure_lines(&fresh);
    if committed_structure == fresh_structure {
        return Ok(());
    }
    for (index, (a, b)) in committed_structure
        .iter()
        .zip(fresh_structure.iter())
        .enumerate()
    {
        if a != b {
            return Err(format!(
                "structure line {} differs:\n  committed: {}\n  fresh:     {}",
                index + 1,
                a,
                b
            ));
        }
    }
    Err(format!(
        "structure length differs: committed {} lines, fresh {} lines",
        committed_structure.len(),
        fresh_structure.len()
    ))
}

/// Fraction of the committed geomean engine speed-up a fresh measurement
/// must reach for [`check_performance`] to pass: the aggregate is stable
/// across machines, so only a quarter is granted to noise.
pub const GEOMEAN_REGRESSION_SLACK: f64 = 0.75;

/// Fraction of each committed per-workload speed-up a fresh measurement
/// must reach: individual sub-millisecond streams are noisier than the
/// aggregate, so the per-workload floor is wider.
pub const WORKLOAD_REGRESSION_SLACK: f64 = 0.5;

/// Parses the number of a pretty-printed `"key": value,` JSON line.
fn line_number(line: &str) -> Option<f64> {
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

/// Parses the string of a pretty-printed `"key": "value",` JSON line.
fn line_string(line: &str) -> Option<&str> {
    line.split_once(':')?
        .1
        .trim()
        .trim_end_matches(',')
        .strip_prefix('"')?
        .strip_suffix('"')
}

/// Extracts the measured engine speed-ups of a committed `BENCH_perf.json`:
/// the (workload id, speed-up) pairs and the geomean.  A line scan of the
/// repo's own pretty-printer output — the format [`perf_json`] emits, where
/// each engine entry's `"workload"` line precedes its `"speedup"` line.
fn committed_speedups(committed: &str) -> Result<(Vec<(String, f64)>, f64), String> {
    let mut workloads = Vec::new();
    let mut current: Option<String> = None;
    let mut geomean = None;
    for line in committed.lines() {
        let line = line.trim_start();
        if line.starts_with("\"workload\"") {
            current = line_string(line).map(str::to_string);
        } else if line.starts_with("\"speedup\"") {
            let id = current
                .take()
                .ok_or("a \"speedup\" line without a preceding \"workload\"")?;
            let speedup =
                line_number(line).ok_or_else(|| format!("unparsable speed-up line: {line}"))?;
            workloads.push((id, speedup));
        } else if line.starts_with("\"engine_speedup_geomean\"") {
            geomean = line_number(line);
        }
    }
    let geomean = geomean.ok_or("no engine_speedup_geomean in the committed report")?;
    if workloads.is_empty() {
        return Err("no per-workload speed-ups in the committed report".into());
    }
    Ok((workloads, geomean))
}

/// Verifies that freshly measured engine throughput has not **regressed**
/// against a committed `BENCH_perf.json`: the geomean speed-up must stay
/// above [`GEOMEAN_REGRESSION_SLACK`] of the committed value, and every
/// workload above [`WORKLOAD_REGRESSION_SLACK`] of its committed speed-up.
///
/// Unlike [`check_structure`] this compares *measured* values — the slack
/// factors absorb machine differences and noise, so only a real
/// order-of-magnitude loss (an accidentally de-optimised engine, a
/// quadratic scan reintroduced) fails the check.
pub fn check_performance(committed: &str, fresh: &PerfReport) -> Result<(), String> {
    let (workloads, committed_geomean) = committed_speedups(committed)?;
    let fresh_geomean = fresh.engine_speedup_geomean();
    let floor = committed_geomean * GEOMEAN_REGRESSION_SLACK;
    if fresh_geomean < floor {
        return Err(format!(
            "engine speed-up geomean regressed: measured {fresh_geomean:.2}x, committed \
             {committed_geomean:.2}x (floor {floor:.2}x)"
        ));
    }
    for (id, committed_speedup) in workloads {
        let measured = fresh
            .engine
            .iter()
            .find(|m| m.workload.id() == id)
            .ok_or_else(|| format!("workload {id} is in the committed report but not measured"))?
            .speedup();
        let floor = committed_speedup * WORKLOAD_REGRESSION_SLACK;
        if measured < floor {
            return Err(format!(
                "engine speed-up of {id} regressed: measured {measured:.2}x, committed \
                 {committed_speedup:.2}x (floor {floor:.2}x)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        PerfReport {
            quick: true,
            engine: vec![EngineMeasurement {
                workload: ENGINE_WORKLOADS[0],
                instructions: 5804,
                optimized_ips: 2.0e7,
                reference_ips: 1.0e7,
            }],
            sweep_experiments: sweep_experiment_names().len(),
            sweep_points: 322,
            sweep_seconds: 0.5,
        }
    }

    #[test]
    fn workload_ids_are_stable_and_unique() {
        let ids: std::collections::HashSet<_> = ENGINE_WORKLOADS.iter().map(|w| w.id()).collect();
        assert_eq!(ids.len(), ENGINE_WORKLOADS.len());
        assert_eq!(ENGINE_WORKLOADS[0].id(), "motion1/alpha/4w/1");
        assert_eq!(ENGINE_WORKLOADS[3].id(), "motion1/mom/4w/cache");
    }

    #[test]
    fn speedup_and_geomean() {
        let report = tiny_report();
        assert!((report.engine[0].speedup() - 2.0).abs() < 1e-12);
        assert!((report.engine_speedup_geomean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn structure_check_ignores_timings_but_catches_workload_changes() {
        let report = tiny_report();
        let committed = perf_json(&report).pretty();
        // Different measured numbers, same structure: passes.
        let mut retimed = report.clone();
        retimed.engine[0].optimized_ips = 9.9e7;
        retimed.sweep_seconds = 0.001;
        assert!(check_structure(&committed, &retimed).is_ok());
        // A different stream length is a structural change: fails.
        let mut reshaped = report.clone();
        reshaped.engine[0].instructions += 1;
        let err = check_structure(&committed, &reshaped).unwrap_err();
        assert!(err.contains("instructions"), "{err}");
        // A missing benchmark is a structural change: fails.
        let mut dropped = report;
        dropped.engine.clear();
        assert!(check_structure(&committed, &dropped).is_err());
    }

    #[test]
    fn text_report_names_every_workload() {
        let report = tiny_report();
        let text = format_perf(&report);
        assert!(text.contains("motion1/alpha/4w/1"), "{text}");
        assert!(text.contains("geomean"), "{text}");
        assert!(text.contains("6 experiments"), "{text}");
    }

    #[test]
    fn structure_check_ignores_wall_times_and_speedups() {
        let report = tiny_report();
        let committed = perf_json(&report).pretty();
        // Only the ratios are committed, not the rates behind them.
        assert!(!committed.contains("instrs_per_sec"), "{committed}");
        // Different machine, different wall times and engine ratios: still
        // the same structure.
        let mut retimed = report;
        retimed.sweep_seconds = 1.5;
        retimed.engine[0].optimized_ips = 4.0e7;
        retimed.engine[0].reference_ips = 0.5e7;
        assert!(check_structure(&committed, &retimed).is_ok());
    }

    #[test]
    fn performance_check_passes_within_slack_and_fails_on_regression() {
        let report = tiny_report();
        let committed = perf_json(&report).pretty();
        // Identical measurement: passes.
        assert!(check_performance(&committed, &report).is_ok());
        // Slightly slower but within the slack: passes.
        let mut noisy = report.clone();
        noisy.engine[0].optimized_ips = 1.6e7; // speed-up 1.6 vs committed 2.0
        assert!(check_performance(&committed, &noisy).is_ok());
        // An order-of-magnitude loss: both floors fail.
        let mut regressed = report.clone();
        regressed.engine[0].optimized_ips = 1.0e6; // speed-up 0.1
        let err = check_performance(&committed, &regressed).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // A workload missing from the fresh measurement is an error.
        let mut dropped = report;
        dropped.engine.clear();
        assert!(check_performance(&committed, &dropped).is_err());
        // Garbage committed documents are rejected, not ignored.
        assert!(check_performance("{}", &tiny_report()).is_err());
    }

    #[test]
    fn quick_engine_benchmarks_measure_something() {
        let measurements = engine_benchmarks(true).expect("benchmarks must run");
        assert_eq!(measurements.len(), ENGINE_WORKLOADS.len());
        for m in &measurements {
            assert!(m.instructions > 0);
            assert!(m.optimized_ips > 0.0);
            assert!(m.reference_ips > 0.0);
        }
    }
}
