//! `sweep-cold`: the registered experiment set (what `momsim sweep`
//! regenerates) at a fresh seed per repetition, with the store on.

use crate::measure::{Class, Tally};
use crate::reports::{self, Expected, Ran, EXPERIMENTS, REPORTS};
use mom_bench::EXPERIMENT_SEED;
use std::time::Instant;

/// One cold pass over the six experiments at `seed` — one cold request,
/// the `momsim sweep` of a new seed: each experiment runs and renders its
/// report.
fn cold_pass(seed: u64, tally: &mut Tally) -> Vec<(Ran, String)> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        match reports::run_experiment(name, seed) {
            Ok(ran) => {
                let doc = ran.report.json().pretty();
                done.push((ran, doc));
            }
            Err(e) => failures.push(e),
        }
    }
    tally.record(Class::Cold, start.elapsed());
    for (ran, _) in &done {
        tally.cold_points += ran.points;
        tally.cold_instructions += ran.instructions;
    }
    for e in failures {
        tally.fail(e);
    }
    done
}

/// Untimed warm-up repetition of the set-up: fills the code paths and
/// allocator at a seed the measured repetitions never use.
pub fn warm_up(seed: u64) -> Result<(), String> {
    let mut tally = Tally::default();
    cold_pass(seed, &mut tally);
    match tally.failures.first() {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}

/// The digest of every simulated statistic a cold pass returned: the grid
/// digests of the five grid experiments and the app scenario's rendered
/// report.  A change that only makes the simulator faster leaves it
/// identical for every seed.
fn pass_digest(cold: &[(Ran, String)]) -> String {
    let mut h = mom_store::Hasher::new();
    for (ran, doc) in cold {
        h.write_str(ran.name);
        h.write_str(ran.digest.as_deref().unwrap_or(doc));
    }
    h.finish().to_hex()
}

/// The measured repetitions, one per seed; the first seed is the
/// registered one, whose reports must equal the committed files.  Each
/// repetition is three requests: the cold pass, the same six experiments
/// again (warm, every point a store hit), and the five committed reports
/// replayed from the store.  Returns the tally and each seed's
/// [`pass_digest`].
pub fn run(seeds: &[u64], expected: &Expected) -> (Tally, Vec<(u64, String)>) {
    let mut tally = Tally::default();
    let mut digests = Vec::new();
    for &seed in seeds {
        let cold = cold_pass(seed, &mut tally);
        digests.push((seed, pass_digest(&cold)));
        if seed == EXPERIMENT_SEED {
            for (_, file, experiments) in REPORTS {
                let runs: Vec<&Ran> = experiments
                    .iter()
                    .filter_map(|name| cold.iter().map(|(r, _)| r).find(|r| r.name == *name))
                    .collect();
                let ok = runs.len() == experiments.len()
                    && expected.matches(file, reports::render(file, &runs).as_bytes());
                tally.check(ok, || format!("registered-seed sweep differs from {file}"));
            }
        }
        let start = Instant::now();
        let warm: Vec<_> = cold
            .iter()
            .map(|(ran, _)| {
                reports::run_experiment(ran.name, seed).map(|r| r.report.json().pretty())
            })
            .collect();
        tally.record(Class::Warm, start.elapsed());
        for ((ran, cold_doc), warm) in cold.iter().zip(warm) {
            match warm {
                Ok(doc) => tally.check(doc == *cold_doc, || {
                    format!("warm {}@{seed} differs from its cold run", ran.name)
                }),
                Err(e) => tally.fail(e),
            }
        }
        let start = Instant::now();
        let replays: Vec<_> = REPORTS
            .iter()
            .map(|(_, file, experiments)| reports::replay(file, experiments))
            .collect();
        tally.record(Class::Report, start.elapsed());
        for ((_, file, _), doc) in REPORTS.iter().zip(replays) {
            match doc {
                Ok(doc) => tally.check(expected.matches(file, doc.as_bytes()), || {
                    format!("report replay differs from {file}")
                }),
                Err(e) => tally.fail(e),
            }
        }
    }
    (tally, digests)
}
