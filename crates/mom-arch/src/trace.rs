//! Dynamic instruction traces, their statistics, and the streaming
//! [`TraceSink`] interface that connects the functional simulator to its
//! consumers.
//!
//! The functional simulator retires one [`TraceEntry`] per executed
//! (graduated) instruction into a [`TraceSink`] — the software analogue of
//! the paper's producer/consumer split between the ATOM-instrumented
//! instruction stream and the Jinks timing simulator.  Anything can consume
//! the stream: a [`Trace`] records it, a [`TraceStats`] folds it into
//! the quantities the paper's Tables 1–9 report (instruction counts,
//! operation counts, the fraction of vector instructions *F*, the average
//! vector lengths VLx and VLy), and `mom_pipeline`'s incremental consumer
//! times it — all in one bounded-memory pass.
//!
//! # Traces as program walks
//!
//! ATOM streamed branch outcomes and effective addresses against a static
//! binary; a [`Trace`] keeps the same split.  It holds an **instruction
//! table** and one 8-byte step per dynamic instruction: the pc into the
//! table, the vector length, a taken bit and a has-memory bit.  The
//! [`MemAccess`] of each step that has one sits in a side array, packed
//! into 16 bytes (an access whose stride or row size does not fit keeps
//! all 24 bytes in a second array).  A recorded kernel run costs about 12
//! resident bytes per entry instead of a 64-byte [`TraceEntry`].
//!
//! * [`Trace::for_program`] records a walk over a shared `&'static`
//!   [`Program`]: the table *is* the program, and each step's pc is the
//!   successor ([`successor`]) of the one before.
//! * [`Trace::new`] (and `collect`) builds a hand-made trace, whose table
//!   interns the instructions pushed into it.
//!
//! [`Trace::walk`] yields the compact steps; replay consumers decode the
//! table once and index it by pc.  [`Trace::stream`] materialises
//! [`TraceEntry`]s one at a time for everything else, and
//! [`Trace::entries`] keeps a materialised slice for inspection.

use mom_isa::{Instruction, Program};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Entries the default [`TraceSink::retire_repeated`] materialises per
/// [`TraceSink::retire_many`] call.
const CHUNK: usize = 256;

/// A consumer of the dynamic instruction stream.
///
/// The functional simulator calls [`retire`](TraceSink::retire) once per
/// graduated instruction, in program (graduation) order.  Sinks compose:
/// tuples fan one stream out to several consumers, and `Vec<S>` fans it out
/// to a homogeneous set (e.g. one timing simulator per machine width).
///
/// ```
/// use mom_arch::{Trace, TraceEntry, TraceSink, TraceStats};
/// use mom_isa::Instruction;
///
/// let entry = TraceEntry { instr: Instruction::Nop, vl: 1, taken: false, mem: None };
/// let mut sinks = (Trace::new(), TraceStats::default());
/// sinks.retire(entry); // both the trace and the stats observe the entry
/// assert_eq!(sinks.0.len(), 1);
/// assert_eq!(sinks.1.instructions, 1);
/// ```
pub trait TraceSink {
    /// Consumes the next retired instruction of the stream.
    fn retire(&mut self, entry: TraceEntry);

    /// Consumes a contiguous run of retired instructions.
    ///
    /// Semantically identical to calling [`TraceSink::retire`] once per
    /// entry in order — which is what the default implementation does.
    /// Batch-oriented consumers override it to process the run at a
    /// coarser grain: a sampled simulator fast-forwards a whole run
    /// through the cache model in one tight loop instead of re-entering
    /// its interval state machine per entry.  The default
    /// [`TraceSink::retire_repeated`] feeds sinks through this hook in
    /// bounded chunks of materialised entries.
    fn retire_many(&mut self, entries: &[TraceEntry]) {
        for entry in entries {
            self.retire(*entry);
        }
    }

    /// Consumes the walk of `trace` `times` times back to back — one
    /// kernel invocation repeated, as [`Trace::replay_into`] hands it over.
    ///
    /// Semantically identical to retiring every entry of
    /// [`Trace::stream`] `times` times.  The default implementation
    /// materialises the entries in chunks of a few hundred and hands each
    /// chunk to [`TraceSink::retire_many`].  Sinks whose state can repeat
    /// override it: [`TraceStats`] scales the trace's own statistics, and
    /// the timing consumers of `mom_pipeline` decode the trace's
    /// instruction table once, index it by pc, and jump over whole periods
    /// once their pipeline state repeats at an invocation boundary.
    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        let mut chunk = Vec::with_capacity(CHUNK);
        for _ in 0..times {
            for entry in trace.stream() {
                chunk.push(entry);
                if chunk.len() == CHUNK {
                    self.retire_many(&chunk);
                    chunk.clear();
                }
            }
        }
        if !chunk.is_empty() {
            self.retire_many(&chunk);
        }
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn retire(&mut self, entry: TraceEntry) {
        (**self).retire(entry);
    }

    fn retire_many(&mut self, entries: &[TraceEntry]) {
        (**self).retire_many(entries);
    }

    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        (**self).retire_repeated(trace, times);
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    fn retire(&mut self, entry: TraceEntry) {
        self.0.retire(entry);
        self.1.retire(entry);
    }

    fn retire_many(&mut self, entries: &[TraceEntry]) {
        self.0.retire_many(entries);
        self.1.retire_many(entries);
    }

    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        self.0.retire_repeated(trace, times);
        self.1.retire_repeated(trace, times);
    }
}

impl<A: TraceSink, B: TraceSink, C: TraceSink> TraceSink for (A, B, C) {
    fn retire(&mut self, entry: TraceEntry) {
        self.0.retire(entry);
        self.1.retire(entry);
        self.2.retire(entry);
    }

    fn retire_many(&mut self, entries: &[TraceEntry]) {
        self.0.retire_many(entries);
        self.1.retire_many(entries);
        self.2.retire_many(entries);
    }

    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        self.0.retire_repeated(trace, times);
        self.1.retire_repeated(trace, times);
        self.2.retire_repeated(trace, times);
    }
}

impl<S: TraceSink> TraceSink for [S] {
    fn retire(&mut self, entry: TraceEntry) {
        for sink in self.iter_mut() {
            sink.retire(entry);
        }
    }

    fn retire_many(&mut self, entries: &[TraceEntry]) {
        for sink in self.iter_mut() {
            sink.retire_many(entries);
        }
    }

    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        for sink in self.iter_mut() {
            sink.retire_repeated(trace, times);
        }
    }
}

impl<S: TraceSink> TraceSink for Vec<S> {
    fn retire(&mut self, entry: TraceEntry) {
        self.as_mut_slice().retire(entry);
    }

    fn retire_many(&mut self, entries: &[TraceEntry]) {
        self.as_mut_slice().retire_many(entries);
    }

    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        self.as_mut_slice().retire_repeated(trace, times);
    }
}

/// A sink that counts retired instructions and otherwise drops the stream
/// (useful to drive a functional run for its side effects only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of entries retired into this sink.
    pub retired: u64,
}

impl TraceSink for CountingSink {
    fn retire(&mut self, _entry: TraceEntry) {
        self.retired += 1;
    }
}

/// The memory traffic of one dynamic instruction: the effective addresses it
/// touched, recorded by the functional simulator at execution time.
///
/// An access is a set of `rows` contiguous runs of `row_bytes` bytes whose
/// start addresses are `stride` bytes apart — one row for scalar and packed
/// accesses, `VL` rows for the strided MOM matrix loads and stores.  The
/// timing simulator uses this metadata to drive the cache hierarchy, to size
/// the vector memory port occupancy by the bytes actually moved, and to
/// enforce load/store ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address of the first row.
    pub addr: u64,
    /// Bytes moved per row (the access size of one row).
    pub row_bytes: u32,
    /// Number of rows (1 for scalar/packed accesses, `VL` for matrix ones).
    pub rows: u16,
    /// Byte distance between consecutive row start addresses (0 when there
    /// is a single row).
    pub stride: i64,
    /// Whether the access writes memory.
    pub is_store: bool,
}

impl MemAccess {
    /// A single contiguous access (scalar or packed load/store).
    pub fn unit(addr: u64, bytes: u32, is_store: bool) -> MemAccess {
        MemAccess {
            addr,
            row_bytes: bytes,
            rows: 1,
            stride: 0,
            is_store,
        }
    }

    /// A strided multi-row access (MOM matrix load/store).
    pub fn strided(addr: u64, row_bytes: u32, rows: u16, stride: i64, is_store: bool) -> MemAccess {
        MemAccess {
            addr,
            row_bytes,
            rows,
            stride,
            is_store,
        }
    }

    /// Total bytes moved by the access.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes as u64 * self.rows.max(1) as u64
    }

    /// The start address of one row.
    pub fn row_addr(&self, row: u16) -> u64 {
        (self.addr as i64).wrapping_add(self.stride.wrapping_mul(row as i64)) as u64
    }

    /// The smallest half-open byte interval `[start, end)` covering every
    /// row of the access (conservative: for strided accesses it also covers
    /// the gaps between rows).  An access that wraps the edge of the 64-bit
    /// address space reports the whole address space — still conservative,
    /// never under-covering.
    pub fn span(&self) -> (u64, u64) {
        let rows = self.rows.max(1) as i128;
        let first = self.addr as i128;
        let last = first + self.stride as i128 * (rows - 1);
        let (lo, hi) = if self.stride >= 0 {
            (first, last)
        } else {
            (last, first)
        };
        let end = hi + self.row_bytes.max(1) as i128;
        if lo < 0 || end > u64::MAX as i128 {
            // Rows wrapped around the address-space edge (row_addr wraps
            // modularly): no tight interval exists, so cover everything.
            return (0, u64::MAX);
        }
        (lo as u64, (end as u64).max(lo as u64))
    }

    /// Whether the conservative byte spans of two accesses overlap.
    pub fn overlaps(&self, other: &MemAccess) -> bool {
        spans_overlap(self.span(), other.span())
    }
}

/// Whether two half-open byte intervals (as returned by [`MemAccess::span`])
/// overlap — the single overlap predicate shared by [`MemAccess::overlaps`]
/// and the timing simulator's load/store ordering check.
pub fn spans_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// One dynamically executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The executed instruction.
    pub instr: Instruction,
    /// The effective vector length (dimension Y) at execution time; 1 for
    /// non-matrix instructions.
    pub vl: u16,
    /// For branches, whether the branch was taken.
    pub taken: bool,
    /// For memory instructions, the addresses touched at execution time.
    /// `None` for non-memory instructions — and tolerated for memory
    /// instructions in hand-built traces, where the timing model falls back
    /// to address-blind behaviour.
    pub mem: Option<MemAccess>,
}

impl TraceEntry {
    /// Number of elementary operations this dynamic instruction performed.
    pub fn ops(&self) -> u64 {
        self.instr.ops(self.vl as u64)
    }
}

/// The pc that follows `pc` in a walk of `program`: the resolved target
/// of a taken branch, otherwise the next instruction.  The functional
/// simulator steps this way, [`Trace::for_program`] records it, and the
/// trace store's load-time verification checks every stored step
/// against it.
pub fn successor(program: &Program, pc: usize, taken: bool) -> usize {
    match program.instr(pc) {
        Instruction::Branch { target, .. } if taken => program.resolve(*target),
        _ => pc + 1,
    }
}

/// One dynamic instruction of a [`Trace`]'s walk, by value: everything of
/// a [`TraceEntry`] except the instruction, which is the trace's
/// instruction table at [`Step::pc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index of the executed instruction in [`Trace::instructions`].
    pub pc: usize,
    /// The effective vector length (see [`TraceEntry::vl`]).
    pub vl: u16,
    /// Whether a branch was taken (see [`TraceEntry::taken`]).
    pub taken: bool,
    /// The recorded memory access (see [`TraceEntry::mem`]).
    pub mem: Option<MemAccess>,
}

/// Flag bit of `PackedStep::flags`: the branch was taken.
const STEP_TAKEN: u8 = 1 << 0;
/// Flag bit: the step has a memory access in a side array.
const STEP_MEM: u8 = 1 << 1;
/// Flag bit: the access writes memory.
const STEP_STORE: u8 = 1 << 2;
/// Flag bit: the access is in `Trace::wide_mems`, not `Trace::mems`.
const STEP_WIDE: u8 = 1 << 3;

/// The resident form of a [`Step`]: 8 bytes.
#[derive(Debug, Clone, Copy)]
struct PackedStep {
    pc: u32,
    vl: u16,
    /// `STEP_*` bits.
    flags: u8,
}

/// The resident form of a [`MemAccess`] whose stride fits 32 bits and
/// whose row size fits 16 (every access the functional simulator
/// records): 16 bytes.  The store bit lives in the step.
#[derive(Debug, Clone, Copy)]
struct PackedMem {
    addr: u64,
    stride: i32,
    row_bytes: u16,
    rows: u16,
}

impl PackedMem {
    fn pack(mem: &MemAccess) -> Option<PackedMem> {
        Some(PackedMem {
            addr: mem.addr,
            stride: i32::try_from(mem.stride).ok()?,
            row_bytes: u16::try_from(mem.row_bytes).ok()?,
            rows: mem.rows,
        })
    }

    fn unpack(self, is_store: bool) -> MemAccess {
        MemAccess {
            addr: self.addr,
            row_bytes: self.row_bytes as u32,
            rows: self.rows,
            stride: self.stride as i64,
            is_store,
        }
    }
}

/// The instruction table a trace's pcs index.
#[derive(Debug, Clone)]
enum Table {
    /// A shared program: each step is the successor of the one before.
    Program(&'static Program),
    /// A hand-built trace's own table, one row per distinct instruction.
    Interned {
        instrs: Vec<Instruction>,
        index: HashMap<Instruction, u32>,
    },
}

impl Default for Table {
    fn default() -> Self {
        Table::Interned {
            instrs: Vec::new(),
            index: HashMap::new(),
        }
    }
}

/// A dynamic instruction trace: a walk over an instruction table (see the
/// [module documentation](self)).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    table: Table,
    steps: Vec<PackedStep>,
    /// The accesses of the steps flagged `STEP_MEM` but not `STEP_WIDE`,
    /// in step order.
    mems: Vec<PackedMem>,
    /// The accesses of the steps flagged `STEP_WIDE`, in step order.
    wide_mems: Vec<MemAccess>,
    /// The materialised entries behind [`Trace::entries`], built on first
    /// use.  No replay path asks for them.
    view: OnceLock<Vec<TraceEntry>>,
}

impl Trace {
    /// Creates an empty hand-built trace, whose instruction table interns
    /// the instructions pushed into it.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty walk over `program`.  Each pushed entry must be the
    /// instruction at the successor of the previous step (pc 0 first), as
    /// [`crate::Machine::run_with_sink`] retires them for one run.
    pub fn for_program(program: &'static Program) -> Self {
        Trace {
            table: Table::Program(program),
            ..Trace::default()
        }
    }

    /// The instruction table that [`Step::pc`] indexes.
    pub fn instructions(&self) -> &[Instruction] {
        match &self.table {
            Table::Program(program) => program.instructions(),
            Table::Interned { instrs, .. } => instrs,
        }
    }

    /// Appends an entry.
    ///
    /// # Panics
    /// Panics if the trace walks a program and `entry` is not the
    /// instruction at the successor of the previous step.
    pub fn push(&mut self, entry: TraceEntry) {
        let next = self
            .steps
            .last()
            .map(|s| (s.pc as usize, s.flags & STEP_TAKEN != 0));
        let pc = match &mut self.table {
            Table::Program(program) => {
                let pc = next.map_or(0, |(pc, taken)| successor(program, pc, taken));
                assert!(
                    program.instructions().get(pc) == Some(&entry.instr),
                    "{:?} does not follow the program walk at pc {pc}",
                    entry.instr
                );
                pc
            }
            Table::Interned { instrs, index } => *index.entry(entry.instr).or_insert_with(|| {
                instrs.push(entry.instr);
                (instrs.len() - 1) as u32
            }) as usize,
        };
        self.push_step(Step {
            pc,
            vl: entry.vl,
            taken: entry.taken,
            mem: entry.mem,
        });
    }

    /// Appends a step without checking that it follows the walk: the
    /// codec's way in, which the trace store follows with its walk
    /// verification.
    ///
    /// # Panics
    /// Panics if `step.pc` is not a row of [`Trace::instructions`].
    pub fn push_step(&mut self, step: Step) {
        let rows = self.instructions().len();
        assert!(
            step.pc < rows,
            "pc {} outside a {rows}-row instruction table",
            step.pc
        );
        let mut flags = if step.taken { STEP_TAKEN } else { 0 };
        if let Some(mem) = step.mem {
            flags |= STEP_MEM;
            if mem.is_store {
                flags |= STEP_STORE;
            }
            match PackedMem::pack(&mem) {
                Some(packed) => self.mems.push(packed),
                None => {
                    flags |= STEP_WIDE;
                    self.wide_mems.push(mem);
                }
            }
        }
        self.steps.push(PackedStep {
            pc: step.pc as u32,
            vl: step.vl,
            flags,
        });
        self.view.take();
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The walk, one [`Step`] per dynamic instruction in program
    /// (graduation) order.
    pub fn walk(&self) -> impl Iterator<Item = Step> + '_ {
        let mut mems = self.mems.iter();
        let mut wide_mems = self.wide_mems.iter();
        self.steps.iter().map(move |step| Step {
            pc: step.pc as usize,
            vl: step.vl,
            taken: step.flags & STEP_TAKEN != 0,
            mem: match step.flags & (STEP_MEM | STEP_WIDE) {
                0 => None,
                STEP_MEM => mems
                    .next()
                    .map(|mem| mem.unpack(step.flags & STEP_STORE != 0)),
                _ => wide_mems.next().copied(),
            },
        })
    }

    /// The entries in program (graduation) order, materialised one at a
    /// time.
    pub fn stream(&self) -> impl Iterator<Item = TraceEntry> + '_ {
        let instrs = self.instructions();
        self.walk().map(move |step| TraceEntry {
            instr: instrs[step.pc],
            vl: step.vl,
            taken: step.taken,
            mem: step.mem,
        })
    }

    /// The entries in program (graduation) order, as a slice.  The first
    /// call materialises them and keeps them with the trace (64 bytes an
    /// entry, counted by [`Trace::resident_bytes`]); prefer
    /// [`Trace::stream`] or [`Trace::walk`] outside tests.
    pub fn entries(&self) -> &[TraceEntry] {
        self.view.get_or_init(|| self.stream().collect())
    }

    /// Iterates over [`Trace::entries`].
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries().iter()
    }

    /// Appends another trace's entries (used when a kernel is run for
    /// several iterations to reach a steady state).
    pub fn extend(&mut self, other: &Trace) {
        for entry in other.stream() {
            self.push(entry);
        }
    }

    /// Drops spare capacity once recording is done.
    pub fn shrink_to_fit(&mut self) {
        self.steps.shrink_to_fit();
        self.mems.shrink_to_fit();
        self.wide_mems.shrink_to_fit();
    }

    /// Heap bytes of the walk: the steps, the memory-access side arrays
    /// and any materialised [`Trace::entries`].  The instruction table is
    /// not counted.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.steps.capacity() * size_of::<PackedStep>()
            + self.mems.capacity() * size_of::<PackedMem>()
            + self.wide_mems.capacity() * size_of::<MemAccess>()
            + self
                .view
                .get()
                .map_or(0, |v| v.capacity() * size_of::<TraceEntry>())
    }

    /// Replays the trace into a sink `times` back to back, **by
    /// reference**: the trace itself is never re-collected or cloned —
    /// this is how a memoised single-invocation trace stands in for a long
    /// steady-state stream at zero materialisation cost.
    ///
    /// The trace and the repeat count are handed to the sink in one
    /// [`TraceSink::retire_repeated`] call.  Sinks whose state repeats
    /// (the statistics, the timing consumers) skip the repeated work; for
    /// everything else the default method hands the entries over in
    /// [`TraceSink::retire_many`] chunks.
    pub fn replay_into<S: TraceSink + ?Sized>(&self, times: usize, sink: &mut S) {
        sink.retire_repeated(self, times);
    }

    /// Computes the summary statistics of the trace.
    pub fn stats(&self) -> TraceStats {
        let instrs = self.instructions();
        let mut s = TraceStats::default();
        for step in &self.steps {
            s.count(&instrs[step.pc as usize], step.vl);
        }
        s
    }
}

impl TraceSink for Trace {
    fn retire(&mut self, entry: TraceEntry) {
        self.push(entry);
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEntry>>(iter: T) -> Self {
        let mut trace = Trace::new();
        for entry in iter {
            trace.push(entry);
        }
        trace
    }
}

/// Summary statistics of a dynamic trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Total elementary operations (the paper's NOPS).
    pub operations: u64,
    /// Dynamic multimedia ("vector") instructions.
    pub media_instructions: u64,
    /// Dynamic MOM matrix (VL-dependent) instructions.
    pub matrix_instructions: u64,
    /// Dynamic memory instructions (scalar, packed and matrix).
    pub memory_instructions: u64,
    /// Sum of VLx over media instructions (for the average).
    pub sum_vlx: u64,
    /// Sum of VLy over matrix instructions (for the average).
    pub sum_vly: u64,
}

impl TraceSink for TraceStats {
    fn retire(&mut self, entry: TraceEntry) {
        self.record(&entry);
    }

    /// Scales the trace's own statistics: every counter is a sum over
    /// entries, so `times` replications add `times` copies of them.
    fn retire_repeated(&mut self, trace: &Trace, times: usize) {
        self.merge_scaled(&trace.stats(), times as u64);
    }
}

impl TraceStats {
    /// Folds one retired instruction into the statistics. [`Trace::stats`]
    /// and the streaming sink both reduce through this.
    pub fn record(&mut self, e: &TraceEntry) {
        self.count(&e.instr, e.vl);
    }

    fn count(&mut self, instr: &Instruction, vl: u16) {
        self.instructions += 1;
        self.operations += instr.ops(vl as u64);
        if instr.is_media() {
            self.media_instructions += 1;
            self.sum_vlx += instr.vlx();
            if instr.is_vl_dependent() {
                self.matrix_instructions += 1;
                self.sum_vly += vl as u64;
            }
        }
        if instr.is_memory() {
            self.memory_instructions += 1;
        }
    }

    /// Fraction of dynamic instructions that are multimedia instructions
    /// (the paper's *F*).
    pub fn media_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.media_instructions as f64 / self.instructions as f64
        }
    }

    /// Average operations per instruction (the paper's OPI).
    pub fn opi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.operations as f64 / self.instructions as f64
        }
    }

    /// Average sub-word lanes per multimedia instruction (the paper's VLx).
    pub fn avg_vlx(&self) -> f64 {
        if self.media_instructions == 0 {
            1.0
        } else {
            self.sum_vlx as f64 / self.media_instructions as f64
        }
    }

    /// Average dimension-Y vector length per matrix instruction (the paper's
    /// VLy). 1.0 when the trace has no matrix instructions (as for MMX and
    /// MDMX code).
    pub fn avg_vly(&self) -> f64 {
        if self.matrix_instructions == 0 {
            1.0
        } else {
            self.sum_vly as f64 / self.matrix_instructions as f64
        }
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        self.merge_scaled(other, 1);
    }

    /// Merges `times` copies of another set of statistics into this one.
    fn merge_scaled(&mut self, other: &TraceStats, times: u64) {
        self.instructions += other.instructions * times;
        self.operations += other.operations * times;
        self.media_instructions += other.media_instructions * times;
        self.matrix_instructions += other.matrix_instructions * times;
        self.memory_instructions += other.memory_instructions * times;
        self.sum_vlx += other.sum_vlx * times;
        self.sum_vly += other.sum_vly * times;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::prelude::*;
    use std::sync::OnceLock;

    fn entry(instr: Instruction, vl: u16) -> TraceEntry {
        TraceEntry {
            instr,
            vl,
            taken: false,
            mem: None,
        }
    }

    #[test]
    fn replay_into_repeats_the_trace_by_reference() {
        let mut trace = Trace::new();
        trace.push(entry(Instruction::Nop, 1));
        trace.push(entry(Instruction::Li { rd: 1, imm: 7 }, 1));
        let mut sink = (Trace::new(), CountingSink::default());
        trace.replay_into(3, &mut sink);
        assert_eq!(sink.1.retired, 6);
        assert_eq!(sink.0.len(), 6);
        assert_eq!(&sink.0.entries()[..2], trace.entries());
        assert_eq!(&sink.0.entries()[4..], trace.entries());
        // Zero replays retire nothing.
        let mut empty = CountingSink::default();
        trace.replay_into(0, &mut empty);
        assert_eq!(empty.retired, 0);
    }

    /// `for i in 0..3 { load; i -= 1 }`: a walk with a taken back edge.
    fn loop_program() -> &'static Program {
        static PROGRAM: OnceLock<Program> = OnceLock::new();
        PROGRAM.get_or_init(|| {
            let mut b = AsmBuilder::new(IsaKind::Alpha);
            b.li(1, 3);
            b.label("loop");
            b.load(MemSize::Quad, false, 2, 31, 0x40);
            b.addi(1, 1, -1);
            b.branch(BranchCond::Gt, 1, 31, "loop");
            b.finish()
        })
    }

    fn loop_walk() -> Trace {
        let mut trace = Trace::for_program(loop_program());
        crate::Machine::new(crate::Memory::new(0x100))
            .run_with_sink(loop_program(), &mut trace)
            .unwrap();
        trace.shrink_to_fit();
        trace
    }

    #[test]
    fn a_program_walk_records_successor_pcs_and_side_accesses() {
        let trace = loop_walk();
        let pcs: Vec<usize> = trace.walk().map(|s| s.pc).collect();
        assert_eq!(pcs, [0, 1, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert_eq!(trace.instructions(), loop_program().instructions());
        let mems: Vec<_> = trace.walk().filter_map(|s| s.mem).collect();
        assert_eq!(mems, [MemAccess::unit(0x40, 8, false); 3]);
        // 8 bytes a step and 16 an access, the program not counted.
        assert_eq!(trace.resident_bytes(), 8 * 10 + 16 * 3);
        assert_eq!(trace.stream().count(), 10);
        assert_eq!(trace.entries().len(), 10);
        assert_eq!(trace.resident_bytes(), 8 * 10 + 16 * 3 + 64 * 10);
    }

    #[test]
    #[should_panic(expected = "does not follow the program walk")]
    fn a_program_walk_rejects_an_entry_off_the_walk() {
        let mut trace = Trace::for_program(loop_program());
        trace.push(entry(Instruction::Li { rd: 1, imm: 3 }, 1));
        // The successor of pc 0 is the load, not another `li`.
        trace.push(entry(Instruction::Li { rd: 1, imm: 3 }, 1));
    }

    #[test]
    fn a_hand_built_trace_interns_its_table() {
        let li = Instruction::Li { rd: 1, imm: 7 };
        let t: Trace = [entry(li, 1), entry(Instruction::Nop, 1), entry(li, 1)]
            .into_iter()
            .collect();
        assert_eq!(t.instructions(), [li, Instruction::Nop]);
        assert_eq!(t.walk().map(|s| s.pc).collect::<Vec<_>>(), [0, 1, 0]);
    }

    #[test]
    fn every_access_round_trips_through_the_side_arrays() {
        let load = Instruction::Load {
            size: MemSize::Quad,
            signed: false,
            rd: 1,
            base: 2,
            offset: 0,
        };
        let accesses = [
            Some(MemAccess::unit(u64::MAX - 3, 8, true)),
            None,
            Some(MemAccess::strided(0x1000, 8, 4, -64, false)),
            Some(MemAccess::strided(0, 8, 2, i64::MIN, true)),
            Some(MemAccess::strided(0x20, u32::MAX, u16::MAX, 1 << 40, false)),
            Some(MemAccess::unit(0x20, 1 << 16, false)),
        ];
        let entries: Vec<TraceEntry> = accesses
            .iter()
            .enumerate()
            .map(|(i, &mem)| TraceEntry {
                instr: load,
                vl: i as u16,
                taken: i % 2 == 0,
                mem,
            })
            .collect();
        let t: Trace = entries.iter().copied().collect();
        assert!(t.stream().eq(entries.iter().copied()));
        assert_eq!(t.entries(), entries);
    }

    #[test]
    fn the_default_replay_hands_over_chunks_across_invocations() {
        // 100 entries × 7 replays cross several chunk boundaries, one of
        // them inside an invocation.
        let trace: Trace = (0..100)
            .map(|i| entry(Instruction::Li { rd: 1, imm: i }, 1))
            .collect();
        let mut sink = Trace::new();
        trace.replay_into(7, &mut sink);
        assert_eq!(sink.len(), 700);
        assert!(sink.stream().eq((0..7).flat_map(|_| trace.stream())));
    }

    #[test]
    fn mem_access_geometry() {
        let unit = MemAccess::unit(0x100, 8, false);
        assert_eq!(unit.total_bytes(), 8);
        assert_eq!(unit.span(), (0x100, 0x108));
        assert_eq!(unit.row_addr(0), 0x100);

        let strided = MemAccess::strided(0x1000, 8, 4, 64, true);
        assert_eq!(strided.total_bytes(), 32);
        assert_eq!(strided.row_addr(3), 0x1000 + 3 * 64);
        assert_eq!(strided.span(), (0x1000, 0x1000 + 3 * 64 + 8));

        let backwards = MemAccess::strided(0x1000, 8, 4, -64, false);
        assert_eq!(backwards.span(), (0x1000 - 3 * 64, 0x1008));
    }

    #[test]
    fn wrapped_accesses_span_everything() {
        // Rows that wrap the address-space edge have no tight interval; the
        // span must stay conservative (cover everything), matching the
        // modular wrap of `row_addr`.
        let top = MemAccess::unit(u64::MAX - 3, 8, true);
        assert_eq!(top.span(), (0, u64::MAX));
        let below_zero = MemAccess::strided(0, 8, 2, -64, false);
        assert_eq!(below_zero.span(), (0, u64::MAX));
        // A store at the top therefore conflicts with a load at zero — the
        // wrapped tail really does touch the low bytes.
        assert!(top.overlaps(&MemAccess::unit(0, 8, false)));
    }

    #[test]
    fn mem_access_overlap_is_conservative() {
        let store = MemAccess::unit(0x100, 8, true);
        assert!(store.overlaps(&MemAccess::unit(0x104, 8, false)));
        assert!(!store.overlaps(&MemAccess::unit(0x108, 8, false)));
        // Strided spans cover the gaps between rows (conservative).
        let matrix = MemAccess::strided(0x200, 8, 4, 384, true);
        assert!(matrix.overlaps(&MemAccess::unit(0x200 + 100, 4, false)));
        assert!(!matrix.overlaps(&MemAccess::unit(0x1000, 4, false)));
    }

    #[test]
    fn stats_of_scalar_trace() {
        let t: Trace = vec![
            entry(Instruction::Li { rd: 1, imm: 0 }, 1),
            entry(
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: 1,
                    ra: 1,
                    rb: 2,
                },
                1,
            ),
            entry(
                Instruction::Load {
                    size: MemSize::Quad,
                    signed: false,
                    rd: 2,
                    base: 1,
                    offset: 0,
                },
                1,
            ),
        ]
        .into_iter()
        .collect();
        let s = t.stats();
        assert_eq!(s.instructions, 3);
        assert_eq!(s.operations, 3);
        assert_eq!(s.media_instructions, 0);
        assert_eq!(s.memory_instructions, 1);
        assert_eq!(s.media_fraction(), 0.0);
        assert_eq!(s.opi(), 1.0);
        assert_eq!(s.avg_vlx(), 1.0);
        assert_eq!(s.avg_vly(), 1.0);
    }

    #[test]
    fn stats_of_mixed_mom_trace() {
        let mom_load = Instruction::MomLoad {
            md: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        let mom_add = Instruction::MomOp {
            op: PackedOp::Add(Overflow::Saturate),
            ty: ElemType::U8,
            md: 1,
            ma: 0,
            mb: MomOperand::Mat(0),
        };
        let scalar = Instruction::Li { rd: 1, imm: 0 };
        let t: Trace = vec![entry(scalar, 1), entry(mom_load, 16), entry(mom_add, 16)]
            .into_iter()
            .collect();
        let s = t.stats();
        assert_eq!(s.instructions, 3);
        // 1 + 8*16 + 8*16
        assert_eq!(s.operations, 1 + 128 + 128);
        assert_eq!(s.media_instructions, 2);
        assert_eq!(s.matrix_instructions, 2);
        assert!((s.media_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.opi() - 257.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.avg_vlx(), 8.0);
        assert_eq!(s.avg_vly(), 16.0);
    }

    #[test]
    fn stats_sink_agrees_with_batch_stats() {
        let mom_load = Instruction::MomLoad {
            md: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        let entries = vec![
            entry(Instruction::Li { rd: 1, imm: 0 }, 1),
            entry(mom_load, 7),
            entry(Instruction::Nop, 1),
        ];
        let mut streamed = TraceStats::default();
        for e in &entries {
            streamed.retire(*e);
        }
        let batch: Trace = entries.into_iter().collect();
        assert_eq!(streamed, batch.stats());
    }

    #[test]
    fn sinks_compose_as_tuples_and_vectors() {
        let e = entry(Instruction::Nop, 1);
        let mut tee = (Trace::new(), TraceStats::default(), CountingSink::default());
        tee.retire(e);
        tee.retire(e);
        assert_eq!(tee.0.len(), 2);
        assert_eq!(tee.1.instructions, 2);
        assert_eq!(tee.2.retired, 2);

        let mut fan: Vec<CountingSink> = vec![CountingSink::default(); 4];
        fan.retire(e);
        assert!(fan.iter().all(|s| s.retired == 1));
    }

    #[test]
    fn merge_and_extend() {
        let e = entry(Instruction::Nop, 1);
        let mut a: Trace = vec![e, e].into_iter().collect();
        let b: Trace = vec![e].into_iter().collect();
        a.extend(&b);
        assert_eq!(a.len(), 3);

        let mut s1 = a.stats();
        let s2 = b.stats();
        s1.merge(&s2);
        assert_eq!(s1.instructions, 4);
    }
}
