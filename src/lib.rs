//! # momsim — a reproduction of the MOM matrix SIMD ISA study (SC'99)
//!
//! This crate is the umbrella of the workspace reproducing *"MOM: a Matrix
//! SIMD Instruction Set Architecture for Multimedia Applications"*
//! (Corbal, Espasa, Valero — SC'99). It re-exports the individual layers
//! under short module names:
//!
//! * [`simd`] — packed sub-word arithmetic primitives,
//! * [`isa`] — the scalar, MMX-like, MDMX-like and MOM instruction sets,
//!   registers, programs and the assembler-style builder,
//! * [`arch`] — architectural state (matrix registers, packed accumulators,
//!   vector length), memory and the functional simulator,
//! * [`pipeline`] — the Jinks-like out-of-order timing simulator,
//! * [`kernels`] — the nine Mediabench kernels in four ISA variants with
//!   golden references and workload generators,
//! * [`apps`] — the six whole Mediabench applications as declarative
//!   multi-kernel pipelines, with the data cache carried across phase
//!   boundaries and Amdahl-combined whole-application speed-ups,
//! * [`bench`](mod@bench) — the declarative experiment layer: [`ExperimentSpec`]
//!   scenario grids, the registered paper experiments, and the reporting
//!   behind the `momsim` CLI,
//! * [`serve`] — the job-queue simulation daemon (`momsim serve`): HTTP
//!   submissions, store-backed point deduplication and a sharded worker
//!   pool, plus the matching client commands,
//! * [`obs`] — the zero-dependency observability layer: the process-global
//!   metrics registry behind `GET /metrics` and `momsim stats`, span
//!   tracing with Chrome trace-event export (`--trace-out`), and the
//!   leveled daemon logger.
//!
//! See the `examples/` directory for end-to-end walkthroughs; the `momsim`
//! binary (`cargo run --release --bin momsim -- list`) runs any registered
//! or ad-hoc experiment grid.
//!
//! [`ExperimentSpec`]: bench::ExperimentSpec
//!
//! ## Quick start
//!
//! ```
//! use momsim::prelude::*;
//!
//! // Run the paper's motion-estimation kernel, coded for the MOM ISA, on
//! // the functional simulator (verified against its golden reference) while
//! // streaming the retired instructions straight into a 4-way out-of-order
//! // timing model — one bounded-memory pass, no materialised trace.
//! let mut core = Pipeline::new(PipelineConfig::way(4)).streaming();
//! momsim::kernels::run_kernel_with_sink(KernelId::Motion1, IsaKind::Mom, 42, 1, &mut core)
//!     .expect("kernel output must match the golden reference");
//! let result = core.finish();
//! assert!(result.opi() > 1.0); // matrix instructions pack many operations
//! ```

#![warn(missing_docs)]

pub use mom_apps as apps;
pub use mom_arch as arch;
pub use mom_bench as bench;
pub use mom_isa as isa;
pub use mom_kernels as kernels;
pub use mom_obs as obs;
pub use mom_pipeline as pipeline;
pub use mom_serve as serve;
pub use mom_simd as simd;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use mom_apps::{
        amdahl, app_speedups, run_app, AppError, AppId, AppPhase, AppRun, AppSpec, AppSpeedup,
    };
    pub use mom_arch::{Machine, MemAccess, Memory, Trace, TraceEntry, TraceSink, TraceStats};
    pub use mom_bench::{ExperimentSpec, GridResult, Report};
    pub use mom_isa::prelude::*;
    pub use mom_kernels::{
        run_kernel, run_kernel_with_sink, run_phase_with_sink, shared_kernel_run, verify_kernel,
        KernelError, KernelId, KernelRun, Mismatch,
    };
    pub use mom_pipeline::{
        CacheConfig, CacheStats, HierarchyConfig, MemoryModel, Pipeline, PipelineConfig,
        PipelineConfigBuilder, PipelineFanout, PipelineSim, SimResult,
    };
}
