//! The steady-state replay must be invisible in every result: replaying a
//! kernel's memoised invocation through `Trace::replay_into` — where the
//! timing consumers jump over repeated pipeline states — equals feeding
//! every entry of every invocation one at a time, for every (kernel, ISA)
//! pair under every registered machine configuration, and along the
//! application path, where each phase resumes on the previous phase's warm
//! cache.

use momsim::bench::{invocations_for, registry, EXPERIMENT_SEED};
use momsim::prelude::*;

/// Replays `kernel`/`isa` for `replication` instructions through a
/// fan-out and through standalone consumers, and compares both with
/// per-entry feeding, configuration by configuration.
fn check_pair(kernel: KernelId, isa: IsaKind, configs: &[PipelineConfig], replication: usize) {
    let run = shared_kernel_run(kernel, isa, EXPERIMENT_SEED).unwrap_or_else(|e| panic!("{e}"));
    let invocations = invocations_for(replication, run.trace.len());
    let mut fanout = PipelineFanout::new(configs.iter().cloned());
    run.trace.replay_into(invocations, &mut fanout);
    for (config, fanned) in configs.iter().zip(fanout.finish()) {
        let mut replayed = PipelineSim::new(config.clone());
        run.trace.replay_into(invocations, &mut replayed);
        let mut stepped = PipelineSim::new(config.clone());
        for _ in 0..invocations {
            for entry in run.trace.iter() {
                stepped.feed(*entry);
            }
        }
        let stepped = stepped.finish();
        let context = format!(
            "{kernel}/{isa} x{invocations} width {} rob {} lanes {} memory {}",
            config.width, config.rob_size, config.media_lanes, config.memory
        );
        assert_eq!(fanned, stepped, "fan-out {context}");
        assert_eq!(replayed.finish(), stepped, "standalone {context}");
    }
}

/// Every (kernel, ISA) pair of the registered grids with the union of the
/// configurations the registered experiments time it under.
fn registered_pairs() -> Vec<(KernelId, IsaKind, Vec<PipelineConfig>)> {
    let mut pairs: Vec<(KernelId, IsaKind, Vec<PipelineConfig>)> = Vec::new();
    for spec in registry().iter().filter_map(|experiment| experiment.spec()) {
        for &kernel in &spec.kernels {
            for &isa in &spec.isas {
                let at = match pairs.iter().position(|p| p.0 == kernel && p.1 == isa) {
                    Some(at) => at,
                    None => {
                        pairs.push((kernel, isa, Vec::new()));
                        pairs.len() - 1
                    }
                };
                for config in &spec.configs {
                    if !pairs[at].2.contains(config) {
                        pairs[at].2.push(config.clone());
                    }
                }
            }
        }
    }
    pairs
}

#[test]
fn registered_grids_replay_exactly() {
    let pairs = registered_pairs();
    assert_eq!(pairs.len(), KernelId::ALL.len() * IsaKind::ALL.len());
    for (kernel, isa, configs) in pairs {
        check_pair(kernel, isa, &configs, 4000);
    }
}

/// The long form, run in release by CI: five times the stream length,
/// every width under fixed fast and slow memory and the cache hierarchy.
#[test]
#[ignore = "long; run with --release -- --ignored"]
fn long_replays_across_widths_and_memories_are_exact() {
    let configs: Vec<PipelineConfig> = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|width| {
            [
                MemoryModel::PERFECT,
                MemoryModel::MAIN_MEMORY,
                MemoryModel::CACHE,
            ]
            .map(|memory| PipelineConfig::way_with_memory(width, memory))
        })
        .collect();
    for kernel in KernelId::ALL {
        for isa in IsaKind::ALL {
            check_pair(kernel, isa, &configs, 20_000);
        }
    }
}

/// Folds one drained phase execution into a per-phase total the way
/// `run_app` aggregates frames.
fn accumulate(total: &mut SimResult, result: &SimResult) {
    total.cycles += result.cycles;
    total.instructions += result.instructions;
    total.operations += result.operations;
    total.media_instructions += result.media_instructions;
    total.memory_instructions += result.memory_instructions;
    for (&fu, &busy) in &result.fu_busy_cycles {
        *total.fu_busy_cycles.entry(fu).or_insert(0) += busy;
    }
    total.max_rob_occupancy = total.max_rob_occupancy.max(result.max_rob_occupancy);
    total.dispatch_stall_cycles += result.dispatch_stall_cycles;
    total.cache.merge(&result.cache);
}

/// `run_app` with phases long enough to jump, against the same pipeline
/// stepped entry by entry: each phase resumes on the cache the previous
/// phase left, across two frames.
#[test]
fn app_phases_on_a_warm_cache_replay_exactly() {
    let config = momsim::apps::reference_config();
    for app in AppId::ALL {
        for isa in IsaKind::ALL {
            let mut spec = AppSpec::of(app);
            for phase in &mut spec.phases {
                let run = shared_kernel_run(phase.kernel, isa, EXPERIMENT_SEED)
                    .unwrap_or_else(|e| panic!("{e}"));
                phase.invocations = invocations_for(2000, run.trace.len());
            }
            let fast =
                run_app(&spec, isa, &config, EXPERIMENT_SEED, 2).unwrap_or_else(|e| panic!("{e}"));

            let mut cache = None;
            let mut stepped = vec![SimResult::default(); spec.phases.len()];
            for _frame in 0..2 {
                for (phase, total) in spec.phases.iter().zip(&mut stepped) {
                    let run = shared_kernel_run(phase.kernel, isa, EXPERIMENT_SEED)
                        .unwrap_or_else(|e| panic!("{e}"));
                    let mut sim = PipelineSim::resume(config.clone(), cache.take());
                    for _ in 0..phase.invocations {
                        for entry in run.trace.iter() {
                            sim.feed(*entry);
                        }
                    }
                    let (result, warm) = sim.into_parts();
                    cache = warm;
                    accumulate(total, &result);
                }
            }
            for (index, (phase, stepped)) in fast.phases.iter().zip(&stepped).enumerate() {
                assert_eq!(
                    &phase.result, stepped,
                    "{app}/{isa} phase {index} ({})",
                    phase.kernel
                );
            }
        }
    }
}
