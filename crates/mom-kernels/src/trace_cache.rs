//! The shared functional-trace cache: each (kernel, ISA, seed) triple is
//! executed — and verified against its golden reference — **once**, and
//! every consumer after that replays the memoised single-invocation trace
//! by reference.
//!
//! This is the paper's own methodology made explicit in the architecture:
//! the functional run is decoupled from the timing runs, so one instruction
//! stream can drive any number of machine configurations.  A kernel's
//! iterations are identical instruction streams (the workloads have no
//! data-dependent control flow) and a kernel phase run on a shared
//! application machine produces the same trace as a fresh-machine run
//! (every kernel program initialises the registers it reads and loads its
//! own workload first), so the single cached invocation is the whole story:
//! `momsim sweep`, repeated experiments in one process and the multi-kernel
//! application pipelines all replay the same [`KernelRun`]s instead of
//! re-executing the functional simulator.
//!
//! The cache is also the **memory tier** of the persistent artifact
//! store ([`mom_store`]): a verified run is also encoded
//! ([`mom_arch::codec`]) and written to the store's disk tier under a
//! **content hash** of everything the trace depends on — the disassembled
//! program text (so codegen changes self-invalidate without a version
//! knob), the kernel, the ISA, the seed, and the workload-layout
//! fingerprint ([`crate::layout::fingerprint`]).  A trace is a walk over
//! the shared program of its (kernel, ISA) (see [`mom_arch::trace`]), so
//! the blob holds only the walk: a pc, `vl`, taken and has-memory bits per
//! step, and the memory accesses.  The next process starts warm: a lookup
//! decodes the blob against the current program and **re-verifies it
//! before first use** — the recomputed stats must match the stored stats,
//! and the stored pcs must walk the program (`trace_matches_program`):
//! the first step is pc 0, each later one the successor of the one before
//! (`pc + 1`, or the resolved target of a taken branch), the walk ends at
//! the program's length, and only memory instructions carry an access.
//! Anything corrupt, truncated, stale or written by an older codec is
//! treated as a miss and silently recomputed, and the fill overwrites it.
//!
//! Error memoisation is deliberately asymmetric: *deterministic* failures
//! (a program that fails validation, a golden-reference mismatch) are
//! memoised in the process slot so a broken kernel fails fast, but
//! *transient* execution faults are *not* — the next lookup retries — and
//! **no** error of any kind is ever persisted to disk.
//!
//! The cache is thread safe and contention free in the steady state: the
//! outer map is a [`RwLock`] — steady-state lookups of already-resolved
//! slots take the **read** lock and run fully in parallel; the write lock
//! is taken only to insert a slot the read path did not find.  The
//! (potentially slow) fill happens under the slot's own mutex, outside
//! either table lock, so concurrent sweep workers filling *different* keys
//! never serialise each other, while two workers racing on the *same* key
//! run the kernel exactly once.

use crate::harness::{run_kernel, KernelError, KernelRun};
use crate::{layout, KernelId};
use mom_arch::codec;
use mom_arch::trace::successor;
use mom_isa::{Instruction, IsaKind, Program};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use mom_store::{Hasher, Key, Store, NS_TRACE};

/// Fill state of one (kernel, ISA, seed) slot.
enum SlotState {
    /// Not resolved yet (or last attempt hit a transient fault — retry).
    Empty,
    /// Verified run, shared by reference.
    Ready(Arc<KernelRun>),
    /// Deterministic failure, memoised so every lookup fails fast.
    Failed(KernelError),
}

/// One per-key slot; the mutex serialises racing fills of the same key.
type Slot = Arc<Mutex<SlotState>>;

/// The cache table type: per-(kernel, ISA, seed) slots.
type Table = RwLock<HashMap<(KernelId, IsaKind, u64), Slot>>;

/// The process-wide cache table.
fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// One (kernel, ISA) entry of the process-wide program table: the built
/// program and the content-key hasher state right after its
/// program-dependent prefix (`"momsim trace"` and the disassembled text).
struct CompiledProgram {
    program: Program,
    key_prefix: Hasher,
}

/// Builds, disassembles and hashes each (kernel, ISA) program **once per
/// process**.  Sound because programs are pure functions of (kernel, ISA):
/// the generators read no statics, no environment and no seed.
fn compiled(kernel: KernelId, isa: IsaKind) -> &'static CompiledProgram {
    const ISAS: usize = IsaKind::ALL.len();
    static PROGRAMS: [[OnceLock<CompiledProgram>; ISAS]; KernelId::ALL.len()] =
        [const { [const { OnceLock::new() }; ISAS] }; KernelId::ALL.len()];
    PROGRAMS[kernel as usize][isa as usize].get_or_init(|| {
        let program = kernel.program(isa);
        let mut key_prefix = Hasher::new();
        key_prefix.write_str("momsim trace");
        key_prefix.write_str(&mom_isa::disassemble(&program));
        CompiledProgram {
            program,
            key_prefix,
        }
    })
}

/// The program of `(kernel, isa)`, built once per process and shared by
/// every functional run and trace verification.
pub(crate) fn shared_program(kernel: KernelId, isa: IsaKind) -> &'static Program {
    &compiled(kernel, isa).program
}

/// The content hash addressing `(kernel, isa, seed)`'s trace in the
/// persistent store: disassembled program text, kernel name, ISA name,
/// seed, and the workload-layout fingerprint.  Pure — computing it never
/// executes the kernel — and cheap: the program-dependent prefix is hashed
/// once per process, so a lookup only hashes the few bytes after it.
pub fn trace_content_key(kernel: KernelId, isa: IsaKind, seed: u64) -> Key {
    let mut h = compiled(kernel, isa).key_prefix.clone();
    h.write_str(kernel.name());
    h.write_str(&isa.to_string());
    h.write_u64(seed);
    layout::fingerprint(&mut h);
    h.finish()
}

/// Verification-on-load: a decoded trace is accepted only if its stored
/// pcs walk the *current* program — the first step is pc 0, each later
/// one is the [`successor`] of the step before, and the walk ends at the
/// program's length — and each step's taken bit, vector length and
/// memory access fit the instruction at its pc.  This is the golden
/// reference for a trace (the trace *is* the recorded execution path);
/// together with the recomputed-stats check it rejects any blob whose
/// damage survived the store's checksum, and any blob recorded against a
/// different program than the one compiled today.
fn trace_matches_program(trace: &mom_arch::Trace, program: &Program) -> bool {
    let instrs = program.instructions();
    let mut next = 0;
    for step in trace.walk() {
        let Some(instr) = instrs.get(step.pc) else {
            return false;
        };
        if step.pc != next
            || (step.taken && !matches!(instr, Instruction::Branch { .. }))
            || (step.vl != 1 && !instr.is_vl_dependent())
            || step.mem.is_some() != instr.is_memory()
        {
            return false;
        }
        next = successor(program, step.pc, step.taken);
    }
    next == instrs.len()
}

/// Tries to serve `(kernel, isa, seed)` from the store's disk tier.
/// Any failure — no blob, codec error, failed verification — is a miss.
fn load_from_store(
    store: &Store,
    key: Key,
    kernel: KernelId,
    isa: IsaKind,
) -> Option<Arc<KernelRun>> {
    let bytes = store.get_disk(NS_TRACE, key)?;
    let _span = mom_obs::span_fmt("decode", || format!("decode-trace {kernel:?}/{isa:?}"));
    let program = shared_program(kernel, isa);
    let (trace, stats) = codec::decode_trace(&bytes, program).ok()?;
    if trace.stats() != stats || !trace_matches_program(&trace, program) {
        return None;
    }
    Some(Arc::new(KernelRun {
        kernel,
        isa,
        trace,
        invocations: 1,
        stats,
    }))
}

/// Runs the kernel, persists a success to the store's disk tier, and
/// decides what to memoise: successes and deterministic errors stick,
/// transient execution faults leave the slot empty for a retry. Errors are
/// never written to disk.
fn fill(
    store: &Store,
    key: Key,
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
) -> (SlotState, Result<Arc<KernelRun>, KernelError>) {
    let _span = mom_obs::span_fmt("functional", || format!("fill-trace {kernel:?}/{isa:?}"));
    match run_kernel(kernel, isa, seed, 1) {
        Ok(run) => {
            let run = Arc::new(run);
            store.put_disk(NS_TRACE, key, &codec::encode_trace(&run.trace, &run.stats));
            (SlotState::Ready(Arc::clone(&run)), Ok(run))
        }
        Err(err @ (KernelError::InvalidProgram { .. } | KernelError::Mismatch { .. })) => {
            (SlotState::Failed(err.clone()), Err(err))
        }
        Err(err) => (SlotState::Empty, Err(err)),
    }
}

/// Returns the verified single-invocation [`KernelRun`] of
/// `(kernel, isa, seed)`, executing the functional simulator only if
/// neither the process memory tier nor the persistent store already holds
/// the trace.
///
/// The returned run always has `invocations == 1`; replay it as many times
/// as the consumer's steady-state target needs
/// (`run.trace.replay_into(n, sink)`).  Deterministic errors (program
/// validation failures, verification mismatches) are memoised so a broken
/// kernel fails fast on every lookup; transient execution faults are
/// retried on the next lookup and never memoised or persisted.
pub fn shared_kernel_run(
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
) -> Result<Arc<KernelRun>, KernelError> {
    shared_kernel_run_in(mom_store::global(), kernel, isa, seed)
}

/// [`shared_kernel_run`] against an explicit store — the testing seam for
/// the disk tier. The process memory tier is still shared.
pub fn shared_kernel_run_in(
    store: &Store,
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
) -> Result<Arc<KernelRun>, KernelError> {
    let table_key = (kernel, isa, seed);
    // Steady-state fast path: a shared read lock, taken and released before
    // any (slow) kernel execution.
    let found = {
        let table = table().read().expect("trace-cache table poisoned");
        table.get(&table_key).cloned()
    };
    let slot = match found {
        Some(slot) => slot,
        None => {
            let mut table = table().write().expect("trace-cache table poisoned");
            table
                .entry(table_key)
                .or_insert_with(|| Arc::new(Mutex::new(SlotState::Empty)))
                .clone()
        }
    };
    let mut state = slot.lock().expect("trace-cache slot poisoned");
    match &*state {
        SlotState::Ready(run) => {
            store.note_memory_hit(NS_TRACE);
            return Ok(Arc::clone(run));
        }
        SlotState::Failed(err) => return Err(err.clone()),
        SlotState::Empty => {}
    }
    let key = trace_content_key(kernel, isa, seed);
    let result = match load_from_store(store, key, kernel, isa) {
        Some(run) => {
            *state = SlotState::Ready(Arc::clone(&run));
            Ok(run)
        }
        None => {
            let (next, result) = fill(store, key, kernel, isa, seed);
            *state = next;
            result
        }
    };
    if let Ok(run) = &result {
        trace_cache_bytes_gauge().add(run.trace.resident_bytes() as i64);
    }
    result
}

/// The resident bytes of every trace the process cache holds (steps and
/// memory-access side arrays; the shared programs are not counted),
/// registered as `momsim_trace_cache_bytes` and raised once per resolved
/// slot.
fn trace_cache_bytes_gauge() -> &'static mom_obs::Gauge {
    static GAUGE: OnceLock<mom_obs::Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        mom_obs::gauge(
            "momsim_trace_cache_bytes",
            "Resident bytes of the functional trace cache (walk steps and memory accesses).",
        )
    })
}

/// Number of (kernel, ISA, seed) triples resolved so far — successful or
/// failed — in this process.  Diagnostic; the persistent-store view
/// (memory/disk hits, fills, bytes) is `mom_store::global().report()`.
pub fn cached_runs() -> usize {
    table()
        .read()
        .expect("trace-cache table poisoned")
        .values()
        .filter(|slot| {
            !matches!(
                &*slot.lock().expect("trace-cache slot poisoned"),
                SlotState::Empty
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_arch::trace::Step;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_store() -> (Store, PathBuf) {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mom-trace-cache-test-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        (Store::new(Some(dir.clone())), dir)
    }

    #[test]
    fn shared_run_matches_a_fresh_run_and_is_the_same_allocation() {
        let seed = 0x1234;
        let a = shared_kernel_run(KernelId::AddBlock, IsaKind::Mom, seed).unwrap();
        let fresh = run_kernel(KernelId::AddBlock, IsaKind::Mom, seed, 1).unwrap();
        assert_eq!(a.invocations, 1);
        assert_eq!(a.trace.entries(), fresh.trace.entries());
        assert_eq!(a.stats, fresh.stats);
        // A second lookup is the same memoised allocation, not a re-run.
        let b = shared_kernel_run(KernelId::AddBlock, IsaKind::Mom, seed).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert!(cached_runs() >= 1);
    }

    #[test]
    fn distinct_seeds_are_distinct_entries() {
        let a = shared_kernel_run(KernelId::Motion1, IsaKind::Mmx, 1).unwrap();
        let b = shared_kernel_run(KernelId::Motion1, IsaKind::Mmx, 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Different seeds produce different workloads but the same program,
        // so the instruction count matches while the traces may differ in
        // operand-dependent metadata.
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn content_keys_separate_kernels_isas_and_seeds() {
        let base = trace_content_key(KernelId::Idct, IsaKind::Mom, 7);
        assert_eq!(base, trace_content_key(KernelId::Idct, IsaKind::Mom, 7));
        assert_ne!(base, trace_content_key(KernelId::Idct, IsaKind::Mmx, 7));
        assert_ne!(base, trace_content_key(KernelId::Motion1, IsaKind::Mom, 7));
        assert_ne!(base, trace_content_key(KernelId::Idct, IsaKind::Mom, 8));
    }

    #[test]
    fn memoised_content_keys_equal_the_from_scratch_formula() {
        for kernel in KernelId::ALL {
            for isa in IsaKind::ALL {
                let program = kernel.program(isa);
                assert_eq!(
                    shared_program(kernel, isa).instructions(),
                    program.instructions(),
                    "{kernel:?}/{isa:?}: the shared program must be the built one"
                );
                for seed in [0, 0x5C99] {
                    let mut h = Hasher::new();
                    h.write_str("momsim trace");
                    h.write_str(&mom_isa::disassemble(&program));
                    h.write_str(kernel.name());
                    h.write_str(&isa.to_string());
                    h.write_u64(seed);
                    layout::fingerprint(&mut h);
                    assert_eq!(
                        trace_content_key(kernel, isa, seed),
                        h.finish(),
                        "{kernel:?}/{isa:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn disk_blob_round_trips_through_verification() {
        let (store, dir) = temp_store();
        let seed = 0xD15C;
        let first = shared_kernel_run_in(&store, KernelId::Rgb2Ycc, IsaKind::Mdmx, seed).unwrap();
        let key = trace_content_key(KernelId::Rgb2Ycc, IsaKind::Mdmx, seed);
        let loaded = load_from_store(&store, key, KernelId::Rgb2Ycc, IsaKind::Mdmx)
            .expect("persisted blob must load and verify");
        assert_eq!(loaded.trace.entries(), first.trace.entries());
        assert_eq!(loaded.stats, first.stats);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Collects the entries the functional simulator retires.
    struct Collected(Vec<mom_arch::TraceEntry>);

    impl mom_arch::TraceSink for Collected {
        fn retire(&mut self, entry: mom_arch::TraceEntry) {
            self.0.push(entry);
        }
    }

    #[test]
    fn every_registered_walk_streams_the_functional_entries_and_round_trips() {
        for kernel in KernelId::ALL {
            for isa in IsaKind::ALL {
                let program = shared_program(kernel, isa);
                for seed in [0x5C99, 0xA11CE] {
                    let context = format!("{kernel:?}/{isa:?} seed {seed:#x}");
                    let run = run_kernel(kernel, isa, seed, 1).unwrap();
                    let mut streamed = Collected(Vec::new());
                    crate::harness::run_kernel_with_sink(kernel, isa, seed, 1, &mut streamed)
                        .unwrap();
                    assert!(
                        run.trace.stream().eq(streamed.0.iter().copied()),
                        "{context}: the walk materialises the functional stream"
                    );
                    let (decoded, stats) =
                        codec::decode_trace(&codec::encode_trace(&run.trace, &run.stats), program)
                            .unwrap();
                    assert!(decoded.walk().eq(run.trace.walk()), "{context}");
                    assert_eq!(stats, run.stats, "{context}");
                    assert!(trace_matches_program(&decoded, program), "{context}");
                    for trace in [&run.trace, &decoded] {
                        assert!(
                            trace.resident_bytes() <= 16 * trace.len(),
                            "{context}: {} resident bytes for {} entries",
                            trace.resident_bytes(),
                            trace.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_version_1_blob_is_a_miss_and_the_fill_overwrites_it() {
        let (store, dir) = temp_store();
        let (kernel, isa, seed) = (KernelId::Motion2, IsaKind::Mmx, 0x0DD1);
        let key = trace_content_key(kernel, isa, seed);
        let run = run_kernel(kernel, isa, seed, 1).unwrap();
        let mut old = codec::encode_trace(&run.trace, &run.stats);
        old[..2].copy_from_slice(&1u16.to_le_bytes());
        store.put_disk(NS_TRACE, key, &old);
        assert!(
            load_from_store(&store, key, kernel, isa).is_none(),
            "a version-1 payload must not decode"
        );
        let filled = shared_kernel_run_in(&store, kernel, isa, seed).unwrap();
        let rewritten = store
            .get_disk(NS_TRACE, key)
            .expect("the fill writes a blob");
        assert_eq!(rewritten[..2], codec::TRACE_CODEC_VERSION.to_le_bytes());
        let loaded = load_from_store(&store, key, kernel, isa).expect("the rewritten blob loads");
        assert!(loaded.trace.walk().eq(filled.trace.walk()));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Stores `steps` as the walk of `(kernel, isa, seed)`, with the walk's
    /// own stats so that only the walk verification can reject it, and
    /// loads it back.
    fn load_walk(
        kernel: KernelId,
        isa: IsaKind,
        seed: u64,
        steps: impl Iterator<Item = mom_arch::trace::Step>,
    ) -> Option<Arc<KernelRun>> {
        let (store, dir) = temp_store();
        let mut walk = mom_arch::Trace::for_program(shared_program(kernel, isa));
        steps.for_each(|step| walk.push_step(step));
        let key = trace_content_key(kernel, isa, seed);
        store.put_disk(NS_TRACE, key, &codec::encode_trace(&walk, &walk.stats()));
        let loaded = load_from_store(&store, key, kernel, isa);
        let _ = std::fs::remove_dir_all(dir);
        loaded
    }

    #[test]
    fn a_stored_walk_off_the_program_is_rejected_on_load() {
        // Straight-line set-up code around a loop with taken back edges.
        let (kernel, isa, seed) = (KernelId::Motion1, IsaKind::Alpha, 0x3A1C);
        let run = run_kernel(kernel, isa, seed, 1).unwrap();
        let steps = || run.trace.walk();
        assert!(steps().any(|s| s.taken));
        assert!(
            load_walk(kernel, isa, seed, steps()).is_some(),
            "the recorded walk loads"
        );
        // One pc one instruction past the successor of the step before.
        let skipped = steps().enumerate().map(|(i, s)| {
            if i == 3 {
                Step { pc: s.pc + 1, ..s }
            } else {
                s
            }
        });
        assert!(
            load_walk(kernel, isa, seed, skipped).is_none(),
            "a non-successor pc must be a miss"
        );
        // A memory access on an instruction that does not touch memory.
        let at = steps().position(|s| s.mem.is_none()).unwrap();
        let stray = steps().enumerate().map(|(i, s)| {
            if i == at {
                Step {
                    mem: Some(mom_arch::MemAccess::unit(0x40, 8, false)),
                    ..s
                }
            } else {
                s
            }
        });
        assert!(
            load_walk(kernel, isa, seed, stray).is_none(),
            "a has-memory bit on a non-memory instruction must be a miss"
        );
    }

    #[test]
    fn a_foreign_trace_fails_verification_on_load() {
        // Store a *valid* trace of one kernel under another kernel's key:
        // the checksum passes, the codec passes, but the control-flow walk
        // against the current program must reject it.
        let (store, dir) = temp_store();
        let seed = 0xF0E1;
        let donor = run_kernel(KernelId::AddBlock, IsaKind::Alpha, seed, 1).unwrap();
        let key = trace_content_key(KernelId::Idct, IsaKind::Alpha, seed);
        store.put_disk(
            NS_TRACE,
            key,
            &codec::encode_trace(&donor.trace, &donor.stats),
        );
        assert!(
            load_from_store(&store, key, KernelId::Idct, IsaKind::Alpha).is_none(),
            "a trace of a different program must be treated as a miss"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn verification_accepts_only_consistent_stats() {
        let (store, dir) = temp_store();
        let seed = 0xBAD5;
        let run = run_kernel(KernelId::H2v2, IsaKind::Mmx, seed, 1).unwrap();
        let key = trace_content_key(KernelId::H2v2, IsaKind::Mmx, seed);
        let mut wrong = run.stats;
        wrong.operations += 1;
        store.put_disk(NS_TRACE, key, &codec::encode_trace(&run.trace, &wrong));
        assert!(
            load_from_store(&store, key, KernelId::H2v2, IsaKind::Mmx).is_none(),
            "stats inconsistent with the decoded trace must be a miss"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_lookups_of_one_key_run_the_kernel_once() {
        let seed = 0x77;
        let runs: Vec<_> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    scope.spawn(move || {
                        shared_kernel_run(KernelId::Compensation, IsaKind::Mdmx, seed).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|w| w.join().unwrap())
                .collect()
        });
        for run in &runs[1..] {
            assert!(
                Arc::ptr_eq(&runs[0], run),
                "all threads must share one memoised run"
            );
        }
    }

    #[test]
    fn concurrent_fills_of_distinct_keys_interleave_with_read_lookups() {
        // Writers fill distinct seeds while readers hammer a key that is
        // already resolved: the read path must keep returning the same
        // memoised allocation throughout, and every writer's fill must land.
        let hot_seed = 0x9000;
        let hot = shared_kernel_run(KernelId::AddBlock, IsaKind::Mmx, hot_seed).unwrap();
        let fills = 6;
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..fills)
                .map(|i| {
                    scope.spawn(move || {
                        shared_kernel_run(KernelId::AddBlock, IsaKind::Mmx, hot_seed + 1 + i)
                            .unwrap()
                    })
                })
                .collect();
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let hot = &hot;
                    scope.spawn(move || {
                        for _ in 0..50 {
                            let again =
                                shared_kernel_run(KernelId::AddBlock, IsaKind::Mmx, hot_seed)
                                    .unwrap();
                            assert!(Arc::ptr_eq(hot, &again));
                        }
                    })
                })
                .collect();
            for w in writers {
                assert_eq!(w.join().unwrap().invocations, 1);
            }
            for r in readers {
                r.join().unwrap();
            }
        });
        // Every distinct key resolved exactly once and stayed cached.
        for i in 0..fills {
            let a = shared_kernel_run(KernelId::AddBlock, IsaKind::Mmx, hot_seed + 1 + i).unwrap();
            let b = shared_kernel_run(KernelId::AddBlock, IsaKind::Mmx, hot_seed + 1 + i).unwrap();
            assert!(Arc::ptr_eq(&a, &b));
        }
    }
}
