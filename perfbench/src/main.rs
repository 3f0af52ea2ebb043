//! The momsim benchmark: two seeded workloads against the public API of
//! `mom-bench`, `mom-apps`, `mom-store` and `mom-serve`, run in-process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-cold|service-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-crate
//! metrics of a traced replay; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.  See
//! `perfbench/README.md` for what each workload and metric is for.

mod measure;
mod reports;
mod service;
mod sweep;
mod traced;

use measure::{median, percentile, process_cpu, Counts, Rng, SeedSource, Tally};
use mom_bench::EXPERIMENT_SEED;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepCold,
    ServiceMix,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::SweepCold, Workload::ServiceMix];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// Host seconds one repetition (one block per client for service-mix)
    /// takes on the reference box (2 cores).  The run's work is fixed by
    /// `--seconds` through this constant, never by a clock, so the same
    /// seed and length always do the same work.
    fn seconds_per_rep(self) -> f64 {
        match self {
            Workload::SweepCold => 0.2,
            Workload::ServiceMix => 0.17,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    expected_dir: PathBuf,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SweepCold,
        seed: 1,
        seconds: 20,
        trace: false,
        setup_only: false,
        expected_dir: PathBuf::from("."),
        state_dir: PathBuf::from(".perfbench"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| {
                            format!("unknown workload '{value}' (sweep-cold, service-mix)")
                        })?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--expected-dir" => args.expected_dir = PathBuf::from(value),
            "--state-dir" => args.state_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Everything a workload holds between set-up and the measured phase.
enum State {
    Sweep,
    Service(service::Service, service::Clients),
}

struct Run {
    args: Args,
    seeds: SeedSource,
    expected: reports::Expected,
    store_dir: PathBuf,
}

impl Run {
    fn reps(&self) -> usize {
        ((self.args.seconds as f64 / self.args.workload.seconds_per_rep()).round() as usize).max(1)
    }

    /// The set-up: a fresh store directory, then one untimed warm-up
    /// repetition at the set-up seed; for service-mix, the daemon start and
    /// a cold fill of the six registered experiments come first.
    fn setup(&mut self, setup_seed: u64) -> Result<State, String> {
        remove(&self.store_dir);
        let dir = if self.args.workload == Workload::SweepCold {
            // sweep-cold keeps fsync out of its wall time: the benchmark may
            // only write inside its checkout, which sits on a shared disk,
            // so the store directory is placed under a regular file.  Every
            // disk-tier access then fails at once and the store serves from
            // its memory tier, the degradation it documents for an
            // unwritable directory; every put is still made and counted.
            std::fs::write(&self.store_dir, b"").map_err(|e| e.to_string())?;
            self.store_dir.join("store")
        } else {
            self.store_dir.clone()
        };
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir),
            cold: false,
        })?;
        match self.args.workload {
            Workload::SweepCold => {
                sweep::warm_up(setup_seed)?;
                if self.args.trace {
                    // The traced replays read the registered reports back.
                    sweep::warm_up(EXPERIMENT_SEED)?;
                }
                Ok(State::Sweep)
            }
            Workload::ServiceMix => {
                let svc = service::Service::start()?;
                svc.fill()?;
                let clients =
                    service::warm_up(&svc, self.args.seed, &mut self.seeds, &self.expected)?;
                Ok(State::Service(svc, clients))
            }
        }
    }

    fn teardown(&self, state: State) {
        if let State::Service(svc, _) = state {
            svc.stop();
        }
        remove(&self.store_dir);
        // Commit the deletions now rather than during the next run.
        if let Ok(dir) = std::fs::File::open(&self.args.state_dir) {
            let _ = dir.sync_all();
        }
    }

    fn cold_seeds(&mut self, n: usize, registered_first: bool) -> Vec<u64> {
        let mut seeds: Vec<u64> = (0..n).map(|_| self.seeds.fresh()).collect();
        if registered_first {
            seeds[0] = EXPERIMENT_SEED;
        }
        seeds
    }

    /// The untraced measured phase.
    fn measure(&mut self, state: &mut State, counts: &mut Counts) -> Tally {
        let reps = self.reps();
        match state {
            State::Sweep => {
                let seeds = self.cold_seeds(reps, true);
                let (tally, digests) = sweep::run(&seeds, &self.expected);
                for (seed, digest) in digests {
                    eprintln!("sweep-cold digest seed={seed:#x} {digest}");
                    counts.insert(format!("digest.{seed:#x}"), digest);
                }
                tally
            }
            State::Service(svc, clients) => {
                service::run(svc, clients, reps, &mut self.seeds, &self.expected)
            }
        }
    }

    /// One replay pass of the traced run.
    fn replay(&mut self, state: &mut State, layers: &mut traced::Layers, reps: usize) -> Tally {
        match state {
            State::Sweep => {
                let seeds = self.cold_seeds(reps, false);
                traced::sweep(layers, &seeds, &self.expected)
            }
            State::Service(svc, clients) => traced::service(
                layers,
                svc,
                &mut clients.plans,
                &mut clients.histories,
                reps,
                &mut self.seeds,
                &self.expected,
            ),
        }
    }
}

/// Removes a store directory, or the file standing in for one.
fn remove(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
}

/// Set-up processes run before the measured one; `setup_s` is the median
/// over their set-up times and the measured process's own.
const SETUP_SAMPLES: usize = 4;

/// Runs the set-up alone in [`SETUP_SAMPLES`] fresh processes (each with
/// its own store directory) and returns their set-up seconds.
fn setup_samples(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--expected-dir")
                .arg(&args.expected_dir)
                .arg("--state-dir")
                .arg(&args.state_dir)
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("cannot run the set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .filter_map(|l| l.strip_prefix("setup_s="))
                .next_back()
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up process failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

/// Compares this run's exact counts with those an earlier run of the same
/// build, workload, seed and length recorded in this checkout, then records
/// them.  The record is named by a hash of the benchmark executable, which
/// links every crate under test, so counts recorded by another commit are
/// never compared: a change may legitimately change them.
fn self_check(dir: &Path, args: &Args, reps: usize, counts: &Counts) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read the benchmark executable: {e}"))?;
    let build = mom_store::hash::hash_bytes(&exe).to_hex();
    let dir = dir.join("counts");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let file = dir.join(format!(
        "{}-{}-seed{}-reps{}-trace{}.txt",
        &build[..16],
        args.workload.name(),
        args.seed,
        reps,
        u8::from(args.trace)
    ));
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Ok(earlier) = std::fs::read_to_string(&file) {
        if earlier != text {
            let diff: Vec<String> = earlier
                .lines()
                .zip(text.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("was '{a}', now '{b}'"))
                .collect();
            return Err(format!(
                "counts differ from an earlier run of the same seed ({}): {}",
                file.display(),
                diff.join("; ")
            ));
        }
    }
    std::fs::write(&file, text).map_err(|e| e.to_string())
}

fn store_counts(counts: &mut Counts) {
    let store = mom_store::global();
    for ns in [mom_store::NS_RESULT, mom_store::NS_TRACE] {
        let c = store.counters(ns);
        for (name, v) in [
            ("fills", c.fills),
            ("memory_hits", c.memory_hits),
            ("disk_hits", c.disk_hits),
            ("misses", c.misses),
            // sweep-cold's disk tier is unwritable, so every put takes the
            // store's write-retry path; a change in how often shows here.
            ("write_retries", write_retries(ns)),
        ] {
            counts.insert(format!("store.{ns}.{name}"), v.to_string());
        }
    }
}

/// The store's `momsim_store_write_retries_total` for one namespace.
fn write_retries(namespace: &str) -> u64 {
    mom_obs::counter_with(
        "momsim_store_write_retries_total",
        "Disk-tier fills retried after a write failure.",
        &[("namespace", namespace)],
    )
    .get()
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let expected = reports::Expected::load(&args.expected_dir)?;
    std::fs::create_dir_all(&args.state_dir).map_err(|e| e.to_string())?;
    let mut setups = if args.setup_only || args.trace {
        Vec::new()
    } else {
        setup_samples(&args)?
    };
    let workload = args.workload;
    let mut rng = Rng::new(args.seed, workload as u64 + 1);
    let setup_seed = rng.next() >> 11;
    let store_dir =
        args.state_dir
            .join(format!("store-{}-{}", workload.name(), std::process::id()));
    let seeds = SeedSource::new(rng, &[EXPERIMENT_SEED, setup_seed]);
    let mut run = Run {
        args,
        seeds,
        expected,
        store_dir,
    };

    let start = Instant::now();
    let mut state = run.setup(setup_seed)?;
    let setup = start.elapsed().as_secs_f64();
    if run.args.setup_only {
        run.teardown(state);
        println!("setup_s={setup}");
        return Ok(());
    }
    setups.push(setup);

    let reps = run.reps();
    let mut counts = Counts::new();
    let (mut tally, metrics) = if run.args.trace {
        traced_run(&mut run, &mut state, reps, &mut counts)?
    } else {
        untraced_run(&mut run, &mut state, reps, setups, &mut counts)
    };
    run.teardown(state);

    let checked = self_check(&run.args.state_dir, &run.args, reps, &counts);
    tally.check(checked.is_ok(), || checked.err().unwrap_or_default());
    let correct = tally.failed == 0;
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "{:<36} {failed_frac:>16.6} share ({} of {} operations)",
        "failed_frac", tally.failed, tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The untraced measured phase and its end-to-end metrics.
fn untraced_run(
    run: &mut Run,
    state: &mut State,
    reps: usize,
    setups: Vec<f64>,
    counts: &mut Counts,
) -> (Tally, Metrics) {
    let (cpu, wall, steal) = (process_cpu(), Instant::now(), measure::host_steal());
    let tally = run.measure(state, counts);
    let wall = wall.elapsed().as_secs_f64();
    let cpu: Duration = process_cpu() - cpu;
    let (stolen, ticks) = measure::host_steal();
    let steal = (stolen - steal.0) as f64 / (ticks - steal.1).max(1) as f64;
    let instr = tally.cold_instructions.max(1) as f64;
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("points_per_s", tally.cold_points as f64 / wall, "1/s"),
        (
            "sim_minstr_per_s",
            tally.cold_instructions as f64 / wall / 1e6,
            "Minstr/s",
        ),
        ("cpu_ns_per_instr", cpu.as_nanos() as f64 / instr, "ns"),
        ("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        ("jobs_per_s", tally.requests() as f64 / wall, "1/s"),
        ("cold_job_p50_ms", percentile(&tally.cold_ms, 50.0), "ms"),
        ("cold_job_p90_ms", percentile(&tally.cold_ms, 90.0), "ms"),
        ("warm_job_p50_ms", percentile(&tally.warm_ms, 50.0), "ms"),
        ("report_p50_ms", percentile(&tally.report_ms, 50.0), "ms"),
    ];
    for (name, value) in [
        ("cold_points", tally.cold_points),
        ("cold_instructions", tally.cold_instructions),
        ("cold_requests", tally.cold_ms.len() as u64),
        ("warm_requests", tally.warm_ms.len() as u64),
        ("report_requests", tally.report_ms.len() as u64),
        ("attempted", tally.attempted),
    ] {
        counts.insert(name.to_string(), value.to_string());
    }
    if run.args.workload == Workload::SweepCold {
        store_counts(counts);
    }
    eprintln!(
        "{} seed {}: {reps} repetitions in {wall:.2} s ({:.1}% of host CPU time stolen); \
         set-up samples {:?} s\nsamples: cold {} / warm {} / report {}",
        run.args.workload.name(),
        run.args.seed,
        100.0 * steal,
        setups,
        tally.cold_ms.len(),
        tally.warm_ms.len(),
        tally.report_ms.len()
    );
    (tally, metrics)
}

/// The traced run: pass A without spans, pass B with them, at fresh seeds
/// each; the per-crate metrics come from pass B.
fn traced_run(
    run: &mut Run,
    state: &mut State,
    reps: usize,
    counts: &mut Counts,
) -> Result<(Tally, Metrics), String> {
    let pass = (reps / 3).max(1);
    let cpu = process_cpu();
    let mut tally = run.replay(state, &mut traced::Layers::default(), pass);
    let untraced_cpu = process_cpu() - cpu;
    mom_obs::enable_tracing();
    let mut layers = traced::Layers::default();
    let before = traced::store_counters();
    let (cpu, wall) = (process_cpu(), Instant::now());
    tally.merge(run.replay(state, &mut layers, pass));
    let (traced_cpu, wall_ms) = (process_cpu() - cpu, measure::ms(wall.elapsed()));
    let after = traced::store_counters();
    for (i, name) in ["hits", "lookups", "puts"].into_iter().enumerate() {
        layers.add(name, after[i] - before[i]);
    }
    let overhead = traced_cpu.as_secs_f64() / untraced_cpu.as_secs_f64().max(1e-9);
    let name = run.args.workload.name();
    let trace_file = run
        .args
        .state_dir
        .join(format!("trace-{name}-{}.json", run.args.seed));
    std::fs::write(&trace_file, mom_obs::export_chrome_trace()).map_err(|e| e.to_string())?;
    let metrics = traced::metrics(&layers, wall_ms, overhead);
    eprintln!(
        "traced {name} seed {}: {pass} repetitions per pass, wall {wall_ms:.0} ms\n{}\
         coverage {:.1}% of wall; tracing overhead {:.3}x CPU ({:.2} s traced / {:.2} s untraced)\n\
         {}\nChrome trace: {}",
        run.args.seed,
        layers.table(wall_ms),
        100.0 * layers.total_ms() / wall_ms,
        overhead,
        traced_cpu.as_secs_f64(),
        untraced_cpu.as_secs_f64(),
        layers.slowest_fills(),
        trace_file.display()
    );
    for (name, value, unit) in &metrics {
        if *unit == "count" || *unit == "bytes" {
            counts.insert((*name).to_string(), format!("{value}"));
        }
    }
    Ok((tally, metrics))
}
