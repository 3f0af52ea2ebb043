//! The kernel harness: preparing workloads, running the functional
//! simulator, verifying outputs and streaming traces to the timing
//! simulator.
//!
//! The harness is built around the streaming architecture of `mom-arch`:
//! [`run_kernel_with_sink`] drives every iteration of a kernel straight into
//! a [`TraceSink`] (statistics fold, timing simulator, fan-out — anything),
//! so peak memory is independent of the iteration count.  [`run_kernel`]
//! wraps it for callers that want a recorded single-invocation [`Trace`]
//! plus whole-run statistics.

use crate::layout::MEMORY_SIZE;
use crate::KernelId;
use mom_arch::{ExecError, Machine, Memory, Trace, TraceSink, TraceStats};
use mom_isa::{IsaKind, Program};

/// The interface every kernel implements: workload preparation, program
/// generation per ISA, and output verification against the golden
/// reference.
pub trait KernelSpec {
    /// Which kernel this is.
    fn id(&self) -> KernelId;

    /// Loads the kernel's workload (inputs and any constant tables) into the
    /// simulated memory, at the addresses defined in [`crate::layout`].
    fn prepare(&self, mem: &mut Memory, seed: u64);

    /// Builds the program performing one kernel invocation for the given
    /// ISA. The program must leave its results at the layout's output
    /// addresses.
    fn program(&self, isa: IsaKind) -> Program;

    /// Verifies the output region of `mem` against the golden Rust reference
    /// for the same `seed`. Returns the first mismatching element.
    fn verify(&self, mem: &Memory, seed: u64) -> Result<(), Mismatch>;
}

/// The first mismatching element of a failed verification: which output
/// buffer, which element, and the expected versus simulated value — kept
/// structured so multi-phase application failures stay attributable down to
/// the offending element instead of collapsing into a string early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Name of the output buffer that mismatched (e.g. `"idct output"`).
    pub buffer: String,
    /// Element index within that buffer.
    pub index: usize,
    /// The reference value, rendered with `Debug`.
    pub expected: String,
    /// The value the simulator produced, rendered with `Debug`.
    pub got: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: expected {}, got {}",
            self.buffer, self.index, self.expected, self.got
        )
    }
}

/// Ways running a kernel on the harness can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The generated program failed static validation.
    InvalidProgram {
        /// Kernel being run.
        kernel: KernelId,
        /// ISA of the generated program.
        isa: IsaKind,
        /// The validator's message.
        detail: String,
    },
    /// The functional simulator faulted.
    Exec {
        /// Kernel being run.
        kernel: KernelId,
        /// ISA of the generated program.
        isa: IsaKind,
        /// Iteration that faulted (0-based).
        iteration: usize,
        /// The underlying execution error.
        source: ExecError,
    },
    /// An iteration's output did not match the golden reference.
    Mismatch {
        /// Kernel being run.
        kernel: KernelId,
        /// ISA of the generated program.
        isa: IsaKind,
        /// Iteration whose output mismatched (0-based).
        iteration: usize,
        /// The first mismatching element (buffer, index, expected, got).
        mismatch: Mismatch,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::InvalidProgram {
                kernel,
                isa,
                detail,
            } => {
                write!(f, "{kernel}/{isa}: invalid program: {detail}")
            }
            KernelError::Exec {
                kernel,
                isa,
                iteration,
                source,
            } => write!(
                f,
                "{kernel}/{isa}: execution failed at iteration {iteration}: {source}"
            ),
            KernelError::Mismatch {
                kernel,
                isa,
                iteration,
                mismatch,
            } => write!(
                f,
                "{kernel}/{isa}: output mismatch at iteration {iteration}: {mismatch}"
            ),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Exec { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The outcome of running a kernel functionally.
///
/// The recorded [`trace`](KernelRun::trace) — a walk over the shared
/// program of `(kernel, isa)` — covers exactly **one** invocation — iterations of a kernel are identical instruction streams
/// (the workloads have no data-dependent control flow), so keeping one copy
/// bounds memory no matter how many iterations ran.  The
/// [`stats`](KernelRun::stats) cover the **whole run** (every iteration,
/// accumulated as the stream was produced).
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Which kernel ran.
    pub kernel: KernelId,
    /// Which ISA the program used.
    pub isa: IsaKind,
    /// The dynamic trace of a single invocation.
    pub trace: Trace,
    /// How many invocations the run performed (and the stats cover).
    pub invocations: usize,
    /// Trace statistics of the whole run (instructions, operations, F, VLx,
    /// VLy over all invocations).
    pub stats: TraceStats,
}

impl KernelRun {
    /// Replays the whole run — the single-invocation trace repeated
    /// [`invocations`](KernelRun::invocations) times — into a sink, by
    /// reference (see [`Trace::replay_into`]: no re-collection of the
    /// trace per iteration).
    pub fn replay_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        self.trace.replay_into(self.invocations, sink);
    }
}

/// Runs `iterations` back-to-back invocations of a kernel on the functional
/// simulator, streaming every retired instruction into `sink` and verifying
/// **every** iteration's output against the golden reference (the kernels
/// overwrite their output region each invocation, so each iteration is
/// checked deterministically against the same expected bytes).
///
/// Running the kernel several times mirrors the paper's methodology of
/// simulating each kernel "a certain number of times in a loop" so that the
/// steady-state behaviour dominates.  Returns the statistics of the whole
/// run; peak memory is bounded by the sink, not by `iterations`.
pub fn run_kernel_with_sink<S: TraceSink + ?Sized>(
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
    iterations: usize,
    sink: &mut S,
) -> Result<TraceStats, KernelError> {
    let mut machine = app_machine();
    run_phase_with_sink(&mut machine, kernel, isa, seed, iterations, sink)
}

/// Creates the 1 MiB machine kernels (and multi-kernel application
/// pipelines) execute in, with all registers zeroed.
pub fn app_machine() -> Machine {
    Machine::new(Memory::new(MEMORY_SIZE))
}

/// Runs one kernel **phase** — `iterations` back-to-back invocations of
/// `kernel` — on an *existing* machine, streaming every retired instruction
/// into `sink` and verifying every iteration against the golden reference.
///
/// Unlike [`run_kernel_with_sink`], which builds a fresh machine, the
/// caller's machine (memory and register state) persists across calls.
/// This is the building block of whole-application pipelines: consecutive
/// phases (`idct → addblock → comp → …`) share one address space, so a
/// timing consumer that keeps its cache hierarchy across phase boundaries
/// (see `PipelineSim::resume` in `mom-pipeline`) observes cross-kernel
/// cache reuse.  The phase loads its own workload into the shared memory
/// first (kernels address the fixed [`crate::layout`] regions), and every
/// kernel program initialises the registers it reads, so phase order cannot
/// change functional results — only memory-system behaviour.
pub fn run_phase_with_sink<S: TraceSink + ?Sized>(
    machine: &mut Machine,
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
    iterations: usize,
    sink: &mut S,
) -> Result<TraceStats, KernelError> {
    assert!(iterations >= 1, "at least one iteration is required");
    let (spec, program) = prepare_phase(machine, kernel, isa, seed)?;
    let mut stats = TraceStats::default();
    for iteration in 0..iterations {
        let mut tee = (&mut stats, &mut *sink);
        run_one_iteration(
            &*spec, program, machine, kernel, isa, seed, iteration, &mut tee,
        )?;
    }
    Ok(stats)
}

/// Runs `iterations` invocations of a kernel, recording the trace of the
/// **first** invocation only and accumulating statistics over all of them —
/// so peak memory no longer grows with `iterations`.
///
/// This is the convenience wrapper over [`run_kernel_with_sink`]; use the
/// sink form directly to attach a timing simulator (or any other consumer)
/// without materialising anything.
pub fn run_kernel(
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
    iterations: usize,
) -> Result<KernelRun, KernelError> {
    assert!(iterations >= 1, "at least one iteration is required");
    let (spec, program, mut machine) = setup(kernel, isa, seed)?;
    let mut stats = TraceStats::default();
    let mut trace = Trace::for_program(program);
    for iteration in 0..iterations {
        if iteration == 0 {
            let mut tee = (&mut stats, &mut trace);
            run_one_iteration(
                &*spec,
                program,
                &mut machine,
                kernel,
                isa,
                seed,
                iteration,
                &mut tee,
            )?;
        } else {
            run_one_iteration(
                &*spec,
                program,
                &mut machine,
                kernel,
                isa,
                seed,
                iteration,
                &mut stats,
            )?;
        }
    }
    trace.shrink_to_fit();
    Ok(KernelRun {
        kernel,
        isa,
        trace,
        invocations: iterations,
        stats,
    })
}

/// Validates the kernel's program for `isa` and prepares a fresh machine
/// with the seeded workload loaded.
fn setup(
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
) -> Result<(Box<dyn KernelSpec>, &'static Program, Machine), KernelError> {
    let mut machine = app_machine();
    let (spec, program) = prepare_phase(&mut machine, kernel, isa, seed)?;
    Ok((spec, program, machine))
}

/// Validates the kernel's program for `isa` and loads the seeded workload
/// into an existing machine — the shared front half of [`setup`] and
/// [`run_phase_with_sink`].
fn prepare_phase(
    machine: &mut Machine,
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
) -> Result<(Box<dyn KernelSpec>, &'static Program), KernelError> {
    let spec = kernel.spec();
    let program = crate::trace_cache::shared_program(kernel, isa);
    program
        .validate()
        .map_err(|detail| KernelError::InvalidProgram {
            kernel,
            isa,
            detail,
        })?;
    spec.prepare(machine.memory_mut(), seed);
    Ok((spec, program))
}

/// Process-wide count of functional kernel invocations (each one a full
/// execution of a kernel program on the functional simulator plus its
/// golden-reference verification), registered in the `mom-obs` metrics
/// registry as `momsim_functional_executions_total`. The
/// incremental-sweep tests assert this stays flat across a warm sweep:
/// traces served from the artifact store must not execute anything.
fn functional_executions_counter() -> &'static mom_obs::Counter {
    static COUNTER: std::sync::OnceLock<mom_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_functional_executions_total",
            "Functional kernel invocations (execution + golden-reference verification).",
        )
    })
}

/// The number of functional kernel invocations executed by this process so
/// far.
pub fn functional_executions() -> u64 {
    functional_executions_counter().get()
}

/// Executes one kernel invocation into `sink` and verifies its output.
#[allow(clippy::too_many_arguments)]
fn run_one_iteration<S: TraceSink + ?Sized>(
    spec: &dyn KernelSpec,
    program: &Program,
    machine: &mut Machine,
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
    iteration: usize,
    sink: &mut S,
) -> Result<(), KernelError> {
    functional_executions_counter().inc();
    machine
        .run_with_sink(program, sink)
        .map_err(|source| KernelError::Exec {
            kernel,
            isa,
            iteration,
            source,
        })?;
    spec.verify(machine.memory(), seed)
        .map_err(|mismatch| KernelError::Mismatch {
            kernel,
            isa,
            iteration,
            mismatch,
        })
}

/// Runs one invocation of a kernel and verifies it against the golden
/// reference, returning the first mismatch (or any other failure) as a
/// string.
pub fn verify_kernel(kernel: KernelId, isa: IsaKind, seed: u64) -> Result<(), String> {
    let mut sink = mom_arch::CountingSink::default();
    run_kernel_with_sink(kernel, isa, seed, 1, &mut sink)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Helper shared by kernel implementations: records a mismatch between a
/// reference value and a simulated value at a given element index.
pub fn mismatch<T: std::fmt::Debug>(what: &str, index: usize, expect: T, got: T) -> Mismatch {
    Mismatch {
        buffer: what.to_string(),
        index,
        expected: format!("{expect:?}"),
        got: format!("{got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Kernel-specific verification tests live next to each kernel; here we
    // exercise the generic harness paths on one representative kernel.

    #[test]
    fn run_kernel_keeps_the_trace_bounded_while_stats_grow() {
        let one = run_kernel(KernelId::Compensation, IsaKind::Mom, 1, 1).unwrap();
        let three = run_kernel(KernelId::Compensation, IsaKind::Mom, 1, 3).unwrap();
        // The materialised trace no longer grows with the iteration count...
        assert_eq!(one.trace.len(), three.trace.len());
        assert_eq!(three.invocations, 3);
        // ...but the whole-run statistics do.
        assert_eq!(one.stats.instructions * 3, three.stats.instructions);
        assert_eq!(one.stats.operations * 3, three.stats.operations);
        assert_eq!(one.kernel, KernelId::Compensation);
        assert_eq!(one.isa, IsaKind::Mom);
        assert!(one.stats.instructions > 0);
    }

    #[test]
    fn replay_into_reproduces_the_whole_run() {
        let run = run_kernel(KernelId::Compensation, IsaKind::Mom, 1, 4).unwrap();
        let mut stats = TraceStats::default();
        run.replay_into(&mut stats);
        assert_eq!(stats, run.stats);
    }

    #[test]
    fn run_kernel_with_sink_streams_every_iteration() {
        let mut counter = mom_arch::CountingSink::default();
        let stats =
            run_kernel_with_sink(KernelId::AddBlock, IsaKind::Mmx, 3, 5, &mut counter).unwrap();
        assert_eq!(counter.retired, stats.instructions);
        let one = run_kernel(KernelId::AddBlock, IsaKind::Mmx, 3, 1).unwrap();
        assert_eq!(stats.instructions, 5 * one.stats.instructions);
    }

    #[test]
    fn verify_kernel_reports_ok_for_all_isas_of_one_kernel() {
        for isa in IsaKind::ALL {
            assert_eq!(
                verify_kernel(KernelId::Compensation, isa, 42),
                Ok(()),
                "comp/{isa}"
            );
        }
    }

    #[test]
    fn errors_carry_kernel_and_isa_context() {
        // Exhausting the instruction limit is awkward to trigger through the
        // harness (the kernels are straight-line); instead check the display
        // formats directly.
        let e = KernelError::Mismatch {
            kernel: KernelId::Idct,
            isa: IsaKind::Mom,
            iteration: 2,
            mismatch: mismatch("pixel", 3, 1u8, 2u8),
        };
        let msg = e.to_string();
        assert!(msg.contains("idct"), "{msg}");
        assert!(msg.contains("MOM"), "{msg}");
        assert!(msg.contains("iteration 2"), "{msg}");
        assert!(msg.contains("pixel[3]"), "{msg}");
        assert!(msg.contains("expected 1, got 2"), "{msg}");
    }

    #[test]
    fn mismatch_is_structured_and_formats_every_field() {
        let m = mismatch("pixel", 3, 5u8, 7u8);
        assert_eq!(
            m,
            Mismatch {
                buffer: "pixel".into(),
                index: 3,
                expected: "5".into(),
                got: "7".into(),
            }
        );
        let text = m.to_string();
        assert!(text.contains("pixel[3]"));
        assert!(text.contains('5'));
        assert!(text.contains('7'));
    }

    #[test]
    fn phase_runs_share_the_machine_and_match_fresh_runs_functionally() {
        // Two phases on one machine: both verify, and the streamed stats of
        // each phase equal a fresh per-kernel run of the same shape.
        let mut machine = app_machine();
        let mut sink = mom_arch::CountingSink::default();
        let a = run_phase_with_sink(
            &mut machine,
            KernelId::AddBlock,
            IsaKind::Mom,
            9,
            2,
            &mut sink,
        )
        .unwrap();
        let b = run_phase_with_sink(
            &mut machine,
            KernelId::Compensation,
            IsaKind::Mom,
            9,
            3,
            &mut sink,
        )
        .unwrap();
        let fresh_a = run_kernel(KernelId::AddBlock, IsaKind::Mom, 9, 2).unwrap();
        let fresh_b = run_kernel(KernelId::Compensation, IsaKind::Mom, 9, 3).unwrap();
        assert_eq!(a, fresh_a.stats, "phase chaining is functionally inert");
        assert_eq!(b, fresh_b.stats);
        assert_eq!(sink.retired, a.instructions + b.instructions);
    }
}
