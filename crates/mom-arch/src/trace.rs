//! Dynamic instruction traces, their statistics, and the streaming
//! [`TraceSink`] interface that connects the functional simulator to its
//! consumers.
//!
//! The functional simulator retires one [`TraceEntry`] per executed
//! (graduated) instruction into a [`TraceSink`] — the software analogue of
//! the paper's producer/consumer split between the ATOM-instrumented
//! instruction stream and the Jinks timing simulator.  Anything can consume
//! the stream: a [`Trace`] materialises it, a [`TraceStats`] folds it into
//! the quantities the paper's Tables 1–9 report (instruction counts,
//! operation counts, the fraction of vector instructions *F*, the average
//! vector lengths VLx and VLy), and `mom_pipeline`'s incremental consumer
//! times it — all in one bounded-memory pass.

use mom_isa::Instruction;

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
    /// coarser grain: the timing fan-out sweeps its shared decoded batch
    /// through every machine configuration per run instead of per entry,
    /// and a sampled simulator fast-forwards a whole run through the
    /// cache model in one tight loop instead of re-entering its interval
    /// state machine per entry.  The default
    /// [`TraceSink::retire_repeated`] feeds sinks through this hook, so a
    /// memoised single-invocation trace hands the sink each replication as
    /// one slice.
    fn retire_many(&mut self, entries: &[TraceEntry]) {
        for entry in entries {
            self.retire(*entry);
        }
    }

    /// Consumes the same run of retired instructions `times` times back to
    /// back — one kernel invocation repeated, as [`Trace::replay_into`]
    /// hands it over.
    ///
    /// Semantically identical to calling [`TraceSink::retire_many`] `times`
    /// times, which is what the default implementation does.  Sinks whose
    /// state can repeat override it: [`TraceStats`] records the invocation
    /// once and scales its counters, and the timing consumers of
    /// `mom_pipeline` jump over whole periods once their pipeline state
    /// repeats at an invocation boundary.
    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        for _ in 0..times {
            self.retire_many(entries);
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

    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        (**self).retire_repeated(entries, times);
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

    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        self.0.retire_repeated(entries, times);
        self.1.retire_repeated(entries, times);
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

    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        self.0.retire_repeated(entries, times);
        self.1.retire_repeated(entries, times);
        self.2.retire_repeated(entries, times);
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

    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        for sink in self.iter_mut() {
            sink.retire_repeated(entries, times);
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

    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        self.as_mut_slice().retire_repeated(entries, times);
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

/// A dynamic instruction trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The trace entries in program (graduation) order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Concatenates another trace onto this one (used when a kernel is run
    /// for several iterations to reach a steady state).
    pub fn extend(&mut self, other: &Trace) {
        self.entries.extend_from_slice(&other.entries);
    }

    /// Replays the trace into a sink `times` back to back, **by
    /// reference**: each [`TraceEntry`] is a `Copy` handed to the sink per
    /// retirement, and the trace itself is never re-collected or cloned —
    /// this is how a memoised single-invocation trace stands in for a long
    /// steady-state stream at zero materialisation cost.
    ///
    /// The trace and the repeat count are handed to the sink in one
    /// [`TraceSink::retire_repeated`] call.  Sinks whose state repeats
    /// (the statistics, the timing consumers) skip the repeated work; for
    /// everything else the default method hands each replication over as
    /// one [`TraceSink::retire_many`] slice.
    pub fn replay_into<S: TraceSink + ?Sized>(&self, times: usize, sink: &mut S) {
        sink.retire_repeated(&self.entries, times);
    }

    /// Computes the summary statistics of the trace.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for e in &self.entries {
            s.record(e);
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
        Trace {
            entries: iter.into_iter().collect(),
        }
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

    /// Records the invocation once and scales it: every counter is a sum
    /// over entries, so `times` replications add `times` copies of it.
    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        let mut once = TraceStats::default();
        for entry in entries {
            once.record(entry);
        }
        self.merge_scaled(&once, times as u64);
    }
}

impl TraceStats {
    /// Folds one retired instruction into the statistics. [`Trace::stats`]
    /// and the streaming sink both reduce through this.
    pub fn record(&mut self, e: &TraceEntry) {
        self.instructions += 1;
        self.operations += e.ops();
        if e.instr.is_media() {
            self.media_instructions += 1;
            self.sum_vlx += e.instr.vlx();
            if e.instr.is_vl_dependent() {
                self.matrix_instructions += 1;
                self.sum_vly += e.vl as u64;
            }
        }
        if e.instr.is_memory() {
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
