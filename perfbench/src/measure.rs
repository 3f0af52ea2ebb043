//! Measurement primitives: a seeded generator, process CPU time and peak
//! RSS from `/proc`, percentiles, and the per-run tally every workload
//! fills.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a small, fast, seedable generator.  Every input the
/// benchmark feeds the program is drawn from one of these, seeded from the
/// `--seed` argument, so the same seed always gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws workload seeds that never repeat within one run and never equal a
/// reserved seed (the registered experiment seed, the set-up seed), so a
/// "cold" request really finds nothing stored.
#[derive(Debug)]
pub struct SeedSource {
    rng: Rng,
    used: std::collections::HashSet<u64>,
}

impl SeedSource {
    pub fn new(rng: Rng, reserved: &[u64]) -> SeedSource {
        SeedSource {
            rng,
            used: reserved.iter().copied().collect(),
        }
    }

    pub fn fresh(&mut self) -> u64 {
        loop {
            // Keep seeds below 2^53 so they survive a JSON number intact.
            let seed = self.rng.next() >> 11;
            if self.used.insert(seed) {
                return seed;
            }
        }
    }
}

/// User plus system CPU time of the whole process (every thread).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux ABI this runs on.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Host steal and total ticks over all CPUs so far (`/proc/stat`): the
/// time the hypervisor ran something else while the guest wanted a CPU.
pub fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The three request classes every workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A simulation at a seed nothing has seen yet.
    Cold,
    /// A repeat of an earlier cold request.
    Warm,
    /// A report rendered from results already measured.
    Report,
}

/// What one untraced run measured: per-class latencies, the points and
/// simulated instructions cold requests returned, and the operation count
/// with its failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub cold_points: u64,
    pub cold_instructions: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, class: Class, elapsed: Duration) {
        self.attempted += 1;
        let samples = match class {
            Class::Cold => &mut self.cold_ms,
            Class::Warm => &mut self.warm_ms,
            Class::Report => &mut self.report_ms,
        };
        samples.push(ms(elapsed));
    }

    /// Counts one failed operation (a request that errored or returned a
    /// wrong output).  The first few messages are kept for the log.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// A correctness check that is not itself a request.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.cold_ms.extend(other.cold_ms);
        self.warm_ms.extend(other.warm_ms);
        self.report_ms.extend(other.report_ms);
        self.cold_points += other.cold_points;
        self.cold_instructions += other.cold_instructions;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    pub fn requests(&self) -> usize {
        self.cold_ms.len() + self.warm_ms.len() + self.report_ms.len()
    }
}

/// Values that must repeat exactly across two runs of the same seed:
/// counts and simulated-statistic digests, by name.
pub type Counts = BTreeMap<String, String>;
