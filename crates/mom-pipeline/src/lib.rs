//! # mom-pipeline — a Jinks-like out-of-order timing simulator
//!
//! The SC'99 MOM paper evaluates its ISAs on **Jinks**, an out-of-order
//! simulator "with capability of executing vector ISAs" whose basic
//! architecture "closely resembles that of the MIPS R10K, with the addition
//! of a MMX/MOM register file and dedicated functional units".  This crate
//! rebuilds that timing model as a **streaming consumer** of the dynamic
//! instruction stream:
//!
//! * incremental: [`PipelineSim`] consumes one retired [`TraceEntry`] at a
//!   time (`feed`) and reports the final [`SimResult`] on `finish` — and it
//!   implements [`mom_arch::TraceSink`], so functional and timing simulation
//!   fuse into a single bounded-memory pass over the program,
//! * scan-free: the per-cycle work is event-driven (rename-time dependence
//!   resolution, wakeup lists, a ready queue, a store-address queue, a
//!   free-unit calendar and idle-cycle fast-forwarding — see [`ooo`]); the
//!   original naive implementation is retained in [`reference`] as the
//!   executable specification the optimised engine must match
//!   cycle-for-cycle,
//! * fan-out: [`PipelineFanout`] drives several machine configurations (the
//!   paper's "way 1/2/4/8" sweep) from one functional run, renaming each
//!   entry once into a shared batch of decoded entries that every consumer
//!   reads by reference in lockstep (a replay decodes each entry of its
//!   invocation once and only renames it per invocation),
//! * phase-aware: [`PipelineSim::into_parts`] hands back the warm
//!   [`CacheSim`] alongside the result and [`PipelineSim::resume`] starts
//!   the next phase of a multi-kernel application pipeline on it, so
//!   cross-kernel cache reuse is measurable while fixed-latency timing is
//!   untouched by phase chaining,
//! * a configurable fetch/issue/commit width, a reorder buffer, register
//!   renaming through last-writer tracking, and per-class functional units
//!   ([`config`]),
//! * vector/matrix instructions occupy their functional unit for
//!   `ceil(VL / lanes)` cycles, and the vector memory port is occupied for
//!   the bytes the traced access actually moved at `lanes` 64-bit words per
//!   cycle — the `Vl/N` cost model of the paper's Section 3,
//! * a configurable memory system ([`MemoryModel`]): either the paper's
//!   idealised fixed latency (1 / 12 / 50 cycles), or a simulated
//!   set-associative L1/L2 **cache hierarchy** with LRU replacement
//!   ([`cache`]) driven by the effective addresses the functional simulator
//!   records in the trace, charging each memory instruction its own
//!   hit/miss latency and reporting per-level hit/miss counters and MPKI
//!   through [`SimResult`],
//! * **memory ordering** at issue: a load may not bypass an older store
//!   whose data it might need — it waits unless both addresses are known
//!   and disjoint (no store-to-load forwarding),
//! * perfect branch prediction (the paper simulates kernels whose loop
//!   branches are strongly biased; the stream is already resolved).
//!
//! The output is a [`SimResult`] with the cycle count and the IPC / OPI /
//! operation statistics the paper's Tables 1–9 decompose speed-ups into.
//!
//! ## Example: one functional run, four machine widths
//!
//! ```
//! use mom_arch::{Machine, Memory};
//! use mom_isa::prelude::*;
//! use mom_pipeline::{PipelineConfig, PipelineFanout};
//!
//! // A tiny MOM program: load a 16x8 byte matrix and add it to itself.
//! let mut b = AsmBuilder::new(IsaKind::Mom);
//! b.li(1, 0x100);
//! b.li(2, 8);
//! b.set_vl_imm(16);
//! b.mom_load(0, 1, 2, ElemType::U8);
//! b.mom_op(PackedOp::Add(Overflow::Saturate), ElemType::U8, 1, 0, MomOperand::Mat(0));
//! b.mom_store(1, 1, 2, ElemType::U8);
//! let program = b.finish();
//!
//! // Stream the functional run straight into four timing consumers: the
//! // trace is never materialised, and the machine executes only once.
//! let mut machine = Machine::new(Memory::new(0x1000));
//! let mut fanout = PipelineFanout::new([1, 2, 4, 8].map(PipelineConfig::way));
//! machine.run_with_sink(&program, &mut fanout).unwrap();
//! let results = fanout.finish();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.cycles > 0 && r.opi() > 1.0));
//! // Wider machines never run slower on the same stream.
//! assert!(results[3].cycles <= results[0].cycles);
//! ```
//!
//! For small, already-materialised traces (tests, quick experiments) the
//! batch wrapper remains:
//!
//! ```
//! use mom_arch::{Machine, Memory};
//! use mom_isa::prelude::*;
//! use mom_pipeline::{Pipeline, PipelineConfig};
//!
//! let mut b = AsmBuilder::new(IsaKind::Mom);
//! b.li(1, 0x100);
//! b.li(2, 8);
//! b.set_vl_imm(16);
//! b.mom_load(0, 1, 2, ElemType::U8);
//! let program = b.finish();
//! let trace = Machine::new(Memory::new(0x1000)).run(&program).unwrap();
//! let result = Pipeline::new(PipelineConfig::way(4)).simulate(&trace);
//! assert!(result.cycles > 0);
//! ```

#![warn(missing_docs)]

/// Version of the timing engine's *semantics*, mixed into every persistent
/// result-store key by `mom-bench`. Bump this whenever a change can alter
/// any `SimResult` for an unchanged trace and configuration (latency
/// fixes, occupancy rules, cache policy, …) so stored
/// grid points from older engines are never served again. Pure
/// refactorings and performance work that keep results byte-identical do
/// not bump it.
pub const ENGINE_VERSION: u32 = 1;

pub mod cache;
pub mod config;
pub mod ooo;
pub mod reference;
pub mod stats;

pub use cache::{CacheConfig, CacheSim, CacheStats, HierarchyConfig};
pub use config::{
    FuPool, MemoryModel, ParseMemoryModelError, PipelineConfig, PipelineConfigBuilder,
};
pub use ooo::{timing_simulations, Pipeline, PipelineFanout, PipelineSim};
pub use reference::ReferenceSim;
pub use stats::SimResult;

// Re-export the trace types most callers need alongside the pipeline.
pub use mom_arch::{Trace, TraceEntry, TraceSink};
