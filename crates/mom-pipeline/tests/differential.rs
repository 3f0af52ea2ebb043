//! Differential property tests: the optimised, scan-free out-of-order
//! engine ([`PipelineSim`]) must produce **identical** [`SimResult`]s to the
//! retained naive reference implementation ([`ReferenceSim`]) on arbitrary
//! traces, for every issue width and under both memory models.
//!
//! The generator deliberately stresses the paths the optimisation changed:
//! dependence chains through a small register pool (wakeup lists), stores
//! with overlapping, disjoint and *unknown* addresses in a narrow address
//! range (the store-address queue), matrix instructions with multi-cycle
//! occupancy (the free-unit heaps) and the non-pipelined transpose unit.
//!
//! The steady-state replay (`Trace::replay_into`, which lets a consumer
//! jump over repeated periods) is pinned against the same oracles: every
//! entry fed one at a time through `feed`, and the reference engine.

use mom_arch::{MemAccess, Trace, TraceEntry};
use mom_isa::prelude::*;
use mom_isa::Instruction;
use mom_pipeline::{
    MemoryModel, PipelineConfig, PipelineFanout, PipelineSim, ReferenceSim, SimResult,
};
use proptest::prelude::*;

/// Instruction shapes covering every functional-unit class the engines
/// schedule differently: scalar ALU, loads/stores, packed MMX, strided MOM
/// memory, matrix compute, the accumulator recurrence and the non-pipelined
/// transpose.
fn random_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (0u8..12, 0u8..12, 0u8..12).prop_map(|(rd, ra, rb)| Instruction::Alu {
            op: AluOp::Add,
            rd,
            ra,
            rb
        }),
        (0u8..12, 0u8..12).prop_map(|(rd, base)| Instruction::Load {
            size: MemSize::Quad,
            signed: false,
            rd,
            base,
            offset: 0
        }),
        (0u8..12, 0u8..12).prop_map(|(rs, base)| Instruction::Store {
            size: MemSize::Quad,
            rs,
            base,
            offset: 0
        }),
        (0u8..31, 0u8..31, 0u8..31).prop_map(|(vd, va, vb)| Instruction::MmxOp {
            op: PackedOp::Add(Overflow::Saturate),
            ty: ElemType::U8,
            vd,
            va,
            vb
        }),
        (0u8..15, 0u8..12, 0u8..12).prop_map(|(md, base, stride)| Instruction::MomLoad {
            md,
            base,
            stride,
            ty: ElemType::U8
        }),
        (0u8..15, 0u8..12, 0u8..12).prop_map(|(ms, base, stride)| Instruction::MomStore {
            ms,
            base,
            stride,
            ty: ElemType::U8
        }),
        (0u8..15, 0u8..15, 0u8..15).prop_map(|(md, ma, mb)| Instruction::MomOp {
            op: PackedOp::Add(Overflow::Wrap),
            ty: ElemType::U8,
            md,
            ma,
            mb: MomOperand::Mat(mb)
        }),
        (0u8..2, 0u8..15).prop_map(|(acc, ma)| Instruction::MomAccStep {
            op: AccumOp::MulAdd,
            ty: ElemType::I16,
            acc,
            ma,
            mb: MomOperand::Mat(0)
        }),
        (0u8..15, 0u8..15).prop_map(|(md, ms)| Instruction::MomTranspose {
            md,
            ms,
            ty: ElemType::U8
        }),
    ]
}

/// Random traces over a deliberately *narrow* address range, so stores and
/// loads genuinely collide, with metadata dropped on some memory
/// instructions to exercise the unknown-address (conservative) paths.
fn random_trace(len: std::ops::Range<usize>) -> impl Strategy<Value = Trace> {
    prop::collection::vec((random_instruction(), 1u16..=16, 0u64..0x400, 0u8..8), len).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(instr, vl, addr, meta)| {
                    let vl = if instr.is_vl_dependent() { vl } else { 1 };
                    let mem = if instr.is_memory() && meta > 0 {
                        Some(if instr.is_vl_dependent() {
                            MemAccess::strided(addr, 8, vl, 8 * meta as i64, instr.is_store())
                        } else {
                            MemAccess::unit(addr, 8, instr.is_store())
                        })
                    } else {
                        None
                    };
                    TraceEntry {
                        instr,
                        vl,
                        taken: false,
                        mem,
                    }
                })
                .collect()
        },
    )
}

/// The memory models the differential sweep covers: the paper's fixed
/// latencies and the simulated L1/L2 hierarchy.
fn memory_models() -> impl Strategy<Value = MemoryModel> {
    prop::sample::select(vec![
        MemoryModel::PERFECT,
        MemoryModel::L2,
        MemoryModel::MAIN_MEMORY,
        MemoryModel::CACHE,
    ])
}

/// One configuration of each kind a fan-out mixes: fixed latencies at
/// every width, the cache hierarchy, a small reorder buffer under slow
/// memory, and narrow and wide media lanes.
fn mixed_configs() -> Vec<PipelineConfig> {
    let mut configs: Vec<PipelineConfig> = [1usize, 2, 4, 8]
        .map(|w| PipelineConfig::way_with_memory(w, MemoryModel::L2))
        .into();
    configs.push(PipelineConfig::way_with_memory(2, MemoryModel::CACHE));
    configs.push(PipelineConfig::way_with_memory(8, MemoryModel::CACHE));
    let builder = || PipelineConfig::builder().issue_width(4);
    configs.push(
        builder()
            .rob(8)
            .memory(MemoryModel::MAIN_MEMORY)
            .build()
            .expect("a valid rob-pressure config"),
    );
    for lanes in [1, 8] {
        configs.push(builder().lanes(lanes).build().expect("a valid lane config"));
    }
    configs
}

fn run_both(trace: &Trace, config: PipelineConfig) -> (SimResult, SimResult) {
    let mut optimized = PipelineSim::new(config.clone());
    let mut reference = ReferenceSim::new(config);
    for e in trace.iter() {
        optimized.feed(*e);
        reference.feed(*e);
    }
    (optimized.finish(), reference.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The whole result — cycles, every counter, the per-class busy cycles
    /// and the cache statistics — is identical between the optimised engine
    /// and the naive reference, for every width and memory model.
    #[test]
    fn optimized_engine_equals_reference(
        trace in random_trace(1..120),
        width in prop::sample::select(vec![1usize, 2, 4, 8]),
        memory in memory_models(),
    ) {
        let config = PipelineConfig::way_with_memory(width, memory);
        let (optimized, reference) = run_both(&trace, config);
        prop_assert_eq!(optimized, reference, "width {} memory {}", width, memory);
    }

    /// Same equivalence on a small reorder buffer, where dispatch stalls
    /// and the window-full path dominate.
    #[test]
    fn optimized_engine_equals_reference_under_rob_pressure(
        trace in random_trace(1..120),
        rob in prop::sample::select(vec![8usize, 12, 24]),
    ) {
        let config = PipelineConfig::builder()
            .issue_width(4)
            .rob(rob)
            .memory(MemoryModel::MAIN_MEMORY)
            .build()
            .expect("a valid config");
        let (optimized, reference) = run_both(&trace, config);
        prop_assert_eq!(optimized, reference, "rob {}", rob);
    }

    /// The lockstep-batched fan-out — one shared structure-of-arrays decode
    /// per batch, swept by every consumer — is pinned **cycle-for-cycle**
    /// against independent per-configuration [`PipelineSim`]s fed entry by
    /// entry, across all widths, both memory-model families and a
    /// ROB-pressure configuration in one fan-out.  The trace is replayed
    /// several times so the stream crosses multiple batch boundaries and
    /// ends mid-batch (exercising the flush in `finish`).
    #[test]
    fn batched_fanout_equals_independent_sims(
        trace in random_trace(1..100),
        replays in 1usize..=4,
    ) {
        let mut configs: Vec<PipelineConfig> = [1usize, 2, 4, 8]
            .iter()
            .flat_map(|&w| {
                [MemoryModel::PERFECT, MemoryModel::CACHE]
                    .into_iter()
                    .map(move |m| PipelineConfig::way_with_memory(w, m))
            })
            .collect();
        configs.push(
            PipelineConfig::builder()
                .issue_width(4)
                .rob(8)
                .memory(MemoryModel::MAIN_MEMORY)
                .build()
                .expect("a valid rob-pressure config"),
        );

        let mut fanout = PipelineFanout::new(configs.iter().cloned());
        trace.replay_into(replays, &mut fanout);
        let batched = fanout.finish();

        for (config, batched_result) in configs.into_iter().zip(batched) {
            let mut single = PipelineSim::new(config.clone());
            for _ in 0..replays {
                for e in trace.iter() {
                    single.feed(*e);
                }
            }
            prop_assert_eq!(
                batched_result,
                single.finish(),
                "width {} rob {} memory {}",
                config.width,
                config.rob_size,
                config.memory
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying an invocation k times through `replay_into` — where the
    /// standalone engine and every consumer of a mixed fan-out may jump
    /// over repeated steady-state periods — and then feeding a few more
    /// entries one at a time gives exactly the result of feeding
    /// everything entry by entry, and of the reference engine.
    /// Invocations of 64 entries or more are checked at every boundary,
    /// so k up to 12 covers jumps of one or several periods, jumps that
    /// leave a remainder, and streams that never repeat; the entries fed
    /// after the replay depend on producers renamed before the jump.
    #[test]
    fn steady_state_replay_equals_per_entry_feeding(
        trace in random_trace(1..400),
        times in 1usize..=12,
        extra in 0usize..40,
    ) {
        let configs = mixed_configs();
        let tail: Vec<TraceEntry> = trace.iter().take(extra).copied().collect();
        let mut fanout = PipelineFanout::new(configs.iter().cloned());
        trace.replay_into(times, &mut fanout);
        tail.iter().for_each(|e| fanout.feed(*e));
        let fanned = fanout.finish();
        for (config, fanned) in configs.into_iter().zip(fanned) {
            let mut replayed = PipelineSim::new(config.clone());
            trace.replay_into(times, &mut replayed);
            tail.iter().for_each(|e| replayed.feed(*e));
            let mut stepped = PipelineSim::new(config.clone());
            let mut reference = ReferenceSim::new(config.clone());
            for e in (0..times).flat_map(|_| trace.iter()).chain(&tail) {
                stepped.feed(*e);
                reference.feed(*e);
            }
            let stepped = stepped.finish();
            let context = format!(
                "width {} rob {} lanes {} memory {} x{} +{}",
                config.width, config.rob_size, config.media_lanes, config.memory, times, extra
            );
            prop_assert_eq!(&replayed.finish(), &stepped, "standalone {}", &context);
            prop_assert_eq!(&fanned, &stepped, "fan-out {}", &context);
            prop_assert_eq!(&reference.finish(), &stepped, "reference {}", &context);
        }
    }
}
