//! The engine digest: one hash over every timing result of a small
//! canonical set of streams, pinned next to `ENGINE_VERSION`.
//!
//! Stored grid points are keyed by `ENGINE_VERSION`, so a change to the
//! timing semantics that forgets to bump it leaves every warm store serving
//! stale results.  This test turns that mistake into a failure: any change
//! to a cycle count, the instruction mix, a busy-cycle total, the window
//! occupancy, a stall count or a cache counter of these streams changes the
//! digest.  Pure performance work must leave it unchanged.

use mom_store::Hasher;
use momsim::bench::{invocations_for, EXPERIMENT_SEED};
use momsim::pipeline::ENGINE_VERSION;
use momsim::prelude::*;

/// The digest of the canonical streams under `ENGINE_VERSION` below.
const PINNED_DIGEST: &str = "90c264e311393ea21888e53c904f82ad";
/// The engine version the digest was recorded under.
const PINNED_ENGINE_VERSION: u32 = 1;

fn hash_result(h: &mut Hasher, result: &SimResult) {
    assert!(result.sampled.is_none(), "canonical streams are exact");
    h.write_u64(result.cycles);
    h.write_u64(result.instructions);
    h.write_u64(result.operations);
    h.write_u64(result.media_instructions);
    h.write_u64(result.memory_instructions);
    let mut busy: Vec<(FuClass, u64)> = result
        .fu_busy_cycles
        .iter()
        .map(|(&class, &cycles)| (class, cycles))
        .collect();
    busy.sort();
    h.write_usize(busy.len());
    for (class, cycles) in busy {
        h.write_usize(class.index());
        h.write_u64(cycles);
    }
    h.write_usize(result.max_rob_occupancy);
    h.write_u64(result.dispatch_stall_cycles);
    h.write_u64(result.cache.l1_hits);
    h.write_u64(result.cache.l1_misses);
    h.write_u64(result.cache.l2_hits);
    h.write_u64(result.cache.l2_misses);
}

/// Every (kernel, ISA) pair at replication 2000 on a 4-way machine with
/// perfect memory and a 2-way machine with the cache hierarchy, through
/// the fan-out, plus one application run across two frames.
fn engine_digest() -> String {
    let configs = [
        PipelineConfig::way_with_memory(4, MemoryModel::PERFECT),
        PipelineConfig::way_with_memory(2, MemoryModel::CACHE),
    ];
    let mut h = Hasher::new();
    for kernel in KernelId::ALL {
        for isa in IsaKind::ALL {
            let run =
                shared_kernel_run(kernel, isa, EXPERIMENT_SEED).unwrap_or_else(|e| panic!("{e}"));
            let mut fanout = PipelineFanout::new(configs.iter().cloned());
            run.trace
                .replay_into(invocations_for(2000, run.trace.len()), &mut fanout);
            for result in fanout.finish() {
                hash_result(&mut h, &result);
            }
        }
    }
    let app = run_app(
        &AppSpec::of(AppId::Mpeg2Dec),
        IsaKind::Mom,
        &momsim::apps::reference_config(),
        EXPERIMENT_SEED,
        2,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    for phase in &app.phases {
        hash_result(&mut h, &phase.result);
    }
    h.finish().to_hex()
}

#[test]
fn engine_digest_is_pinned_to_the_engine_version() {
    let digest = engine_digest();
    assert_eq!(
        (ENGINE_VERSION, digest.as_str()),
        (PINNED_ENGINE_VERSION, PINNED_DIGEST),
        "timing semantics changed: bump `mom_pipeline::ENGINE_VERSION` and re-pin \
         PINNED_DIGEST and PINNED_ENGINE_VERSION in tests/engine_digest.rs"
    );
}
