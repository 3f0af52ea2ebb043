//! Property tests for the streaming refactor: fusing functional and timing
//! simulation through `Machine::run_with_sink` + the incremental
//! `PipelineSim::feed`/`finish` consumer must be observationally identical
//! to the materialise-then-replay path (`Machine::run` +
//! `Pipeline::simulate`), for every kernel, every ISA, any seed and any
//! machine shape.

use momsim::prelude::*;
use proptest::prelude::*;

/// The whole result must match — cycles, every counter, the per-class
/// busy cycles and the cache statistics (the derived ratios follow).
fn assert_results_equal(batch: &SimResult, streamed: &SimResult, context: &str) {
    assert_eq!(batch, streamed, "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One fused pass (functional simulator streaming into the incremental
    /// timing consumer) equals materialise-then-replay, for every kernel and
    /// ISA at a random seed and width.
    #[test]
    fn fused_streaming_equals_batch_replay(seed in any::<u64>(),
                                           width in prop::sample::select(vec![1usize, 2, 4, 8])) {
        for kernel in KernelId::ALL {
            for isa in IsaKind::ALL {
                let config = PipelineConfig::way(width);

                // Path A: materialise the trace, then replay it.
                let run = run_kernel(kernel, isa, seed, 1)
                    .unwrap_or_else(|e| panic!("{e}"));
                let batch = Pipeline::new(config.clone()).simulate(&run.trace);

                // Path B: stream the functional run into the consumer.
                let mut core = Pipeline::new(config).streaming();
                run_kernel_with_sink(kernel, isa, seed, 1, &mut core)
                    .unwrap_or_else(|e| panic!("{e}"));
                let streamed = core.finish();

                assert_results_equal(&batch, &streamed, &format!("{kernel}/{isa} w{width}"));
            }
        }
    }

    /// Fused streaming equals batch replay under the cache hierarchy too:
    /// the cache is accessed in trace order, so the per-access latencies and
    /// the hit/miss counters are identical along both paths.
    #[test]
    fn fused_streaming_equals_batch_replay_with_caches(seed in any::<u64>()) {
        for kernel in [KernelId::Motion1, KernelId::Idct] {
            for isa in IsaKind::ALL {
                let config = PipelineConfig::way_with_memory(4, MemoryModel::CACHE);

                let run = run_kernel(kernel, isa, seed, 1)
                    .unwrap_or_else(|e| panic!("{e}"));
                let batch = Pipeline::new(config.clone()).simulate(&run.trace);

                let mut core = Pipeline::new(config).streaming();
                run_kernel_with_sink(kernel, isa, seed, 1, &mut core)
                    .unwrap_or_else(|e| panic!("{e}"));
                let streamed = core.finish();

                assert_results_equal(&batch, &streamed, &format!("{kernel}/{isa} cache"));
                assert!(
                    streamed.cache.l1_accesses() >= streamed.memory_instructions,
                    "{kernel}/{isa}: every memory instruction must look up the cache"
                );
            }
        }
    }

    /// The fan-out consumer gives each configuration exactly what a
    /// dedicated pass would, over multi-iteration streams — including a
    /// cache-hierarchy configuration whose cache state is private per
    /// consumer.
    #[test]
    fn fanout_equals_dedicated_passes(seed in any::<u64>(), iterations in 1usize..4) {
        let kernel = KernelId::Motion2;
        let widths = [1usize, 4, 8];
        for isa in IsaKind::ALL {
            let mut configs: Vec<PipelineConfig> =
                widths.map(PipelineConfig::way).into_iter().collect();
            configs.push(PipelineConfig::way_with_memory(4, MemoryModel::CACHE));
            let mut fanout = PipelineFanout::new(configs.clone());
            run_kernel_with_sink(kernel, isa, seed, iterations, &mut fanout)
                .unwrap_or_else(|e| panic!("{e}"));
            let fanned = fanout.finish();

            for (config, fanned_result) in configs.into_iter().zip(&fanned) {
                let mut core = Pipeline::new(config).streaming();
                run_kernel_with_sink(kernel, isa, seed, iterations, &mut core)
                    .unwrap_or_else(|e| panic!("{e}"));
                let dedicated = core.finish();
                assert_results_equal(
                    &dedicated,
                    fanned_result,
                    &format!("{kernel}/{isa} x{iterations}"),
                );
            }
        }
    }

}

/// Not a property but a guarantee the refactor exists to provide: the
/// harness's materialised state no longer grows with the iteration count,
/// while the streamed statistics keep counting.
#[test]
fn run_kernel_memory_is_iteration_independent() {
    for isa in IsaKind::ALL {
        let one = run_kernel(KernelId::Idct, isa, 3, 1).unwrap();
        let many = run_kernel(KernelId::Idct, isa, 3, 25).unwrap();
        assert_eq!(
            one.trace.len(),
            many.trace.len(),
            "{isa}: the materialised trace must stay one invocation long"
        );
        assert_eq!(many.invocations, 25);
        assert_eq!(
            many.stats.instructions,
            25 * one.stats.instructions,
            "{isa}"
        );
    }
}
