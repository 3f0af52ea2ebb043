//! The out-of-order execution engine.
//!
//! A cycle-by-cycle model of the paper's Jinks simulator: instructions are
//! dispatched in order into a reorder buffer (renaming is modelled by
//! last-writer tracking, i.e. unlimited physical registers — the paper notes
//! register pressure is not the bottleneck and that MOM in fact *reduces*
//! the number of physical registers needed), issue out-of-order when their
//! operands are ready and a functional unit of the right class is free,
//! execute for their latency (plus a multi-cycle occupancy for matrix
//! instructions), and commit in order.
//!
//! The engine is **incremental**: [`PipelineSim`] consumes the dynamic
//! instruction stream one [`TraceEntry`] at a time ([`PipelineSim::feed`],
//! or as a [`TraceSink`] attached directly to the functional simulator) and
//! produces the final [`SimResult`] on [`PipelineSim::finish`].  A cycle is
//! only simulated once enough of the stream has arrived to determine that
//! cycle's dispatch group, so the incremental result is identical to
//! replaying a materialised trace — which is exactly what the batch
//! convenience wrapper [`Pipeline::simulate`] does.
//!
//! The engine is also **scan-free**: where the retained naive
//! implementation ([`crate::reference::ReferenceSim`]) walks the whole
//! reorder buffer every cycle and re-checks every producer and every older
//! store per candidate (`O(window²)` per cycle), this engine keeps
//! incremental state instead —
//!
//! * dependences are resolved **once, at rename time**, against the
//!   last-writer scoreboard: each entry carries only a count of
//!   still-unissued producers and the completion cycle of the latest issued
//!   one, and producers keep per-entry *wakeup lists* of their consumers,
//! * a **future-ready heap** (keyed by operand-ready cycle) and an ordered
//!   **ready queue** mean each cycle visits only the entries that can
//!   actually be considered for issue, not the whole window,
//! * a dedicated **store-address queue** holds just the in-flight stores,
//!   so the load/store ordering check inspects only those instead of every
//!   older window entry,
//! * per-class **free-unit counts** plus a calendar of future free events
//!   (with a per-row class mask) replace the linear probe of the
//!   functional-unit busy tables, and [`FuClass::index`] replaces the
//!   per-issue scan of `FuClass::ALL`.
//!
//! The two implementations are cycle-for-cycle identical; the differential
//! property test (`tests/differential.rs`) and the directed store-queue
//! regressions in this module enforce it.
//!
//! # Decoding and the window
//!
//! What the model needs of a trace entry apart from its dependences — the
//! register ids it reads and writes, its unit class, flags and operation
//! count — is a [`StaticEntry`].  A replay ([`TraceSink::retire_repeated`])
//! decodes the invocation once into a transient table of these (16 bytes
//! an entry) and, for every invocation, only *renames* each row against the
//! last-writer scoreboard ([`Renamer::rename`]); single entries take the
//! same path through [`StaticEntry::of`].  Nothing decoded outlives the
//! call.
//!
//! The in-flight window is a ring of a power-of-two size, at least
//! `rob_size + width + 1` entries, in which the entry of sequence number
//! `s` sits in slot `s & window_mask`: dispatch and commit move a boundary,
//! nothing is popped or copied.  A window entry takes 64 bytes (flags in
//! one byte, an unknown address span as the whole address space).
//!
//! # Steady-state replay
//!
//! A measured stream is one verified kernel invocation replayed N times
//! ([`Trace::replay_into`] hands it over through
//! [`TraceSink::retire_repeated`]).  [`PipelineSim`] and [`PipelineFanout`]
//! step it invocation by invocation.  At the first invocation boundary
//! after every [`CHECK_ENTRIES`] entries they take a [`Mark`]: the clock,
//! the next sequence number and the counters that grow linearly
//! (instructions, operations, the media/memory mix, dispatch stalls,
//! per-class busy cycles, cache hits and misses).  When the mark deltas
//! repeat with some period of at most [`MAX_PERIOD`] checks — or at every
//! check, when the invocations are long enough that encoding is cheap next
//! to stepping them — the consumer encodes its full state relative to its
//! clock and next sequence number, and compares it with the states it
//! recorded at the last [`MAX_PERIOD`] checks.  After
//! [`MAX_FRUITLESS_RECORDINGS`] recordings that matched nothing it stops
//! recording, so a stream that never repeats pays for a bounded number of
//! encodings.  The state covers:
//!
//! * every window entry (fetch buffer included), with its wakeup list as a
//!   set, and the dispatch and commit points;
//! * the ready queue and its per-class counts, the future-ready heap and
//!   the store-address queue;
//! * the idle fast-forward's completion and free-unit watermarks;
//! * the functional units' free counts, free-event calendar and overflow
//!   heap;
//! * the rename scoreboard (a committed producer encodes as no producer);
//! * under the cache model, the L1 and L2 tags of every set in LRU order.
//!
//! Cycle values at or before the present encode alike: every use of them
//! compares them with a clock that only grows, or takes a maximum with a
//! completion still ahead.  Every other use of a cycle or sequence number
//! is a difference, a comparison or a sum with a latency; the calendar's
//! ring index rotates with the clock and the window ring's slot index with
//! the sequence number.  The engine is therefore
//! translation-invariant, and two boundaries that encode equal behave
//! identically on identical input.  The rest of the input is the same
//! invocation again.  So equality at boundaries *n − p* and *n* means every
//! later period repeats the same relative state and adds the same counter
//! deltas.  The consumer jumps ⌊(N − n)/p⌋ periods at once: it shifts
//! every absolute cycle and sequence number, rotates the calendar and the
//! window ring by the shift (which need not be a multiple of the ring
//! size) and adds
//! that many copies of one period's counter deltas.  It then steps the last
//! (N − n) mod p invocations and drains as usual.  The maximum window
//! occupancy is unchanged by the jump, since every skipped period repeats
//! one already observed.  Nothing is ever decided on a hash or on the
//! counters alone: only full equality triggers a jump, so the result is
//! exactly that of feeding every entry through [`PipelineSim::feed`],
//! which stays the stepped path.  `tests/differential.rs` and the
//! workspace's steady-state replay tests pin this.
//!
//! Memory instructions are charged by the configured [`crate::MemoryModel`]:
//! a fixed latency, or a per-access hit/miss latency from the simulated
//! L1/L2 [`crate::cache`] hierarchy driven by the effective addresses in the
//! trace.  The issue stage additionally enforces **memory ordering**: a load
//! may not issue past an older store that has not completed unless both
//! addresses are known and disjoint (there is no store-to-load forwarding).

use crate::cache::CacheSim;
use crate::config::PipelineConfig;
use crate::stats::SimResult;
use mom_arch::{Trace, TraceEntry, TraceSink};
use mom_isa::FuClass;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Process-wide count of timing simulations constructed (every
/// [`PipelineSim`] built, including resumed app phases and the detailed
/// intervals inside sampled runs), registered in the `mom-obs` metrics
/// registry as `momsim_timing_simulations_total`. The incremental-sweep
/// tests assert this stays flat across a warm sweep: results served from
/// the artifact store must not build a single simulator.
fn timing_simulations_counter() -> &'static mom_obs::Counter {
    static COUNTER: std::sync::OnceLock<mom_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_timing_simulations_total",
            "Out-of-order timing simulators constructed (one per simulated interval).",
        )
    })
}

/// The number of timing simulations constructed by this process so far.
pub fn timing_simulations() -> u64 {
    timing_simulations_counter().get()
}

/// Process-wide count of kernel invocations that steady-state jumps
/// accounted for without stepping them, registered as
/// `momsim_timing_invocations_extrapolated_total`.  Added to once per
/// simulation, when it finishes.
fn invocations_extrapolated_counter() -> &'static mom_obs::Counter {
    static COUNTER: std::sync::OnceLock<mom_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_timing_invocations_extrapolated_total",
            "Replayed kernel invocations covered by steady-state jumps instead of cycle stepping.",
        )
    })
}

/// Process-wide count of cycles the engine stepped one at a time,
/// registered as `momsim_timing_cycles_stepped_total`.  Added to once per
/// simulation, when it finishes.
fn cycles_stepped_counter() -> &'static mom_obs::Counter {
    static COUNTER: std::sync::OnceLock<mom_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_timing_cycles_stepped_total",
            "Pipeline cycles simulated one step at a time (an idle fast-forward counts once).",
        )
    })
}

/// Process-wide count of trace entries the engine fed through its stepped
/// path, registered as `momsim_timing_entries_stepped_total`.  Added to
/// once per simulation, when it finishes.
fn entries_stepped_counter() -> &'static mom_obs::Counter {
    static COUNTER: std::sync::OnceLock<mom_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        mom_obs::counter(
            "momsim_timing_entries_stepped_total",
            "Trace entries fed through the stepped pipeline instead of a steady-state jump.",
        )
    })
}

/// Number of distinct register ids (see `mom_isa::Reg::id`).
const REG_ID_SPACE: usize = 256;

/// One instruction in flight (a reorder-buffer entry), or renamed and
/// waiting to be dispatched.  Its sequence number is implicit: the entry of
/// sequence number `s` sits in slot `s & window_mask` of the window ring.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    /// Functional-unit class.
    fu: FuClass,
    /// Cycles of functional-unit occupancy: ceil(VL / lanes) for matrix
    /// compute instructions, ceil(bytes moved / port bytes-per-cycle) for
    /// vector memory accesses, 1 otherwise (see [`PipelineSim::occupancy`]).
    occupancy: u64,
    /// Execution latency (result available `latency + occupancy - 1` cycles
    /// after issue).
    latency: u64,
    /// Elementary operations performed (for the OPI statistics).
    ops: u32,
    /// `FLAG_MEDIA`, `FLAG_MEMORY` and `FLAG_STORE` bits.
    flags: u8,
    /// Conservative byte interval `[start, end)` the access covers
    /// ([`UNKNOWN_SPAN`] when the trace carries no address metadata).
    mem_span: (u64, u64),
    /// Head of this entry's wakeup list in the edge arena ([`EDGE_NONE`]
    /// when empty): the consumers to notify when this entry issues.
    consumer_head: u32,
    /// Producers of this entry's sources that have not issued yet (each one
    /// holds a wakeup edge back to this entry).
    unresolved_deps: u8,
    /// The latest completion cycle over the producers that *have* issued;
    /// once `unresolved_deps` reaches zero this is the cycle the operands
    /// are ready.
    operand_ready_cycle: u64,
    /// Whether the instruction has been issued.
    issued: bool,
    /// Cycle at which the result is available (valid once issued).
    complete_cycle: u64,
}

impl WindowEntry {
    /// The content of a ring slot no sequence number occupies.
    const VACANT: WindowEntry = WindowEntry {
        fu: FuClass::IntAlu,
        occupancy: 0,
        latency: 0,
        ops: 0,
        flags: 0,
        mem_span: UNKNOWN_SPAN,
        consumer_head: EDGE_NONE,
        unresolved_deps: 0,
        operand_ready_cycle: 0,
        issued: false,
        complete_cycle: u64::MAX,
    };
}

/// The span of an access whose address is unknown: the whole address
/// space.  It overlaps every span [`mom_arch::MemAccess::span`] returns
/// (those are never empty) and itself, so a load or store without address
/// metadata conflicts with every other access, as ordering requires.
const UNKNOWN_SPAN: (u64, u64) = (0, u64::MAX);

/// Sentinel for "no edge" in the wakeup arena.
const EDGE_NONE: u32 = u32::MAX;

/// One wakeup edge: a node of a producer's intrusive consumer list, living
/// in the [`PipelineSim::edges`] arena.  Nodes are recycled through a free
/// list, so steady-state renaming never allocates.
#[derive(Debug, Clone, Copy)]
struct EdgeNode {
    /// Sequence number of the consumer to wake.
    consumer: u64,
    /// Next edge of the same producer (or the next free node), or
    /// [`EDGE_NONE`].
    next: u32,
}

/// One in-flight store in the store-address queue: enough to decide whether
/// a younger load may issue past it.
#[derive(Debug, Clone, Copy)]
struct StoreRecord {
    /// Sequence number of the store (the queue is in sequence order).
    seq: u64,
    /// Conservative byte span of the store ([`UNKNOWN_SPAN`] when its
    /// address is unknown).
    span: (u64, u64),
    /// Completion cycle once issued; `u64::MAX` while unissued.  The store
    /// stops blocking loads once `complete_cycle <= cycle`.
    complete_cycle: u64,
}

/// Flag bit of [`StaticEntry::flags`] and [`DecodedEntry::flags`]:
/// occupancy scales with the vector length.
const FLAG_VL_DEPENDENT: u8 = 1 << 0;
/// Flag bit: multimedia instruction.
const FLAG_MEDIA: u8 = 1 << 1;
/// Flag bit: memory instruction.
const FLAG_MEMORY: u8 = 1 << 2;
/// Flag bit: store instruction.
const FLAG_STORE: u8 = 1 << 3;

/// What the timing model needs of one trace entry apart from its
/// dependences: the register ids it reads and writes (the zero register
/// dropped), its functional-unit class, flags and operation count.  None
/// of it depends on the stream's history or the machine configuration, so
/// a replay decodes each entry of the invocation once into a table of
/// these and only renames against it for every invocation
/// ([`Renamer::rename`]).
#[derive(Debug, Clone, Copy)]
struct StaticEntry {
    /// Register ids read, in operand order.
    sources: [u8; 4],
    /// Register ids written.
    dests: [u8; 4],
    /// Valid entries in `sources`.
    source_count: u8,
    /// Valid entries in `dests`.
    dest_count: u8,
    /// Functional-unit class.
    fu: FuClass,
    /// `FLAG_*` bits.
    flags: u8,
    /// Elementary operations performed (at most 8 lanes × `u16::MAX` rows).
    ops: u32,
}

impl StaticEntry {
    /// Decodes one trace entry.
    fn of(entry: &TraceEntry) -> StaticEntry {
        let instr = &entry.instr;
        let mut decoded = StaticEntry {
            sources: [0; 4],
            dests: [0; 4],
            source_count: 0,
            dest_count: 0,
            fu: instr.fu_class(),
            flags: 0,
            ops: entry.ops() as u32,
        };
        // `RegList` holds at most four registers, so neither list can
        // overflow its four slots.
        for reg in instr.sources().iter().filter(|reg| !reg.is_zero()) {
            decoded.sources[decoded.source_count as usize] = reg.id() as u8;
            decoded.source_count += 1;
        }
        for reg in instr.dests().iter().filter(|reg| !reg.is_zero()) {
            decoded.dests[decoded.dest_count as usize] = reg.id() as u8;
            decoded.dest_count += 1;
        }
        for (set, flag) in [
            (instr.is_vl_dependent(), FLAG_VL_DEPENDENT),
            (instr.is_media(), FLAG_MEDIA),
            (instr.is_memory(), FLAG_MEMORY),
            (instr.is_store(), FLAG_STORE),
        ] {
            if set {
                decoded.flags |= flag;
            }
        }
        decoded
    }

    /// Decodes every entry of one invocation: the transient table a replay
    /// renames against ([`TraceSink::retire_repeated`]).
    fn table(entries: &[TraceEntry]) -> Vec<StaticEntry> {
        entries.iter().map(StaticEntry::of).collect()
    }
}

/// A trace entry renamed at one stream position: renaming (producer
/// sequence numbers) and instruction metadata do not depend on the machine
/// configuration, so a fan-out over many configurations computes them a
/// single time ([`Renamer::rename`]) and feeds the renamed form to every
/// consumer ([`PipelineSim::feed_decoded`]).
#[derive(Debug, Clone, Copy)]
struct DecodedEntry {
    /// Sequence numbers of the producers of each source register (with
    /// duplicates when two sources share a producer).
    deps: [u64; 4],
    /// Number of valid entries in `deps`.
    dep_count: u8,
    /// Functional-unit class.
    fu: FuClass,
    /// `FLAG_*` bits.
    flags: u8,
    /// Effective vector length at execution time.
    vl: u16,
    /// Elementary operations performed.
    ops: u32,
    /// The traced memory access, when the trace carries address metadata.
    mem: Option<mom_arch::MemAccess>,
    /// Conservative byte span of the access ([`UNKNOWN_SPAN`] without
    /// address metadata).
    mem_span: (u64, u64),
}

/// The rename stage, separated from the per-configuration consumers: a
/// last-writer scoreboard over the architectural registers plus the running
/// sequence counter.  One renamer can serve a whole fan-out, because the
/// producer of every source depends only on stream order.
#[derive(Debug, Clone)]
struct Renamer {
    /// Last writer (sequence number) of each architectural register.
    last_writer: [Option<u64>; REG_ID_SPACE],
    /// Sequence number assigned to the next decoded entry.
    next_seq: u64,
}

impl Renamer {
    fn new() -> Self {
        Renamer {
            last_writer: [None; REG_ID_SPACE],
            next_seq: 0,
        }
    }

    /// Renames one trace entry, given its decoded static part, against the
    /// last-writer scoreboard.
    fn rename(&mut self, decoded: &StaticEntry, entry: &TraceEntry) -> DecodedEntry {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut deps = [0u64; 4];
        let mut dep_count = 0u8;
        for &reg in &decoded.sources[..decoded.source_count as usize] {
            if let Some(w) = self.last_writer[reg as usize] {
                deps[dep_count as usize] = w;
                dep_count += 1;
            }
        }
        for &reg in &decoded.dests[..decoded.dest_count as usize] {
            self.last_writer[reg as usize] = Some(seq);
        }
        DecodedEntry {
            deps,
            dep_count,
            fu: decoded.fu,
            flags: decoded.flags,
            vl: entry.vl,
            ops: decoded.ops,
            mem: entry.mem,
            mem_span: entry.mem.map_or(UNKNOWN_SPAN, |m| m.span()),
        }
    }
}

/// Number of slots in the functional-unit free-event calendar.  Busy spans
/// shorter than this (all realistic occupancies and latencies) schedule
/// their free event in the ring; longer ones overflow to a heap.
const CALENDAR_SLOTS: u64 = 64;

/// Scan-free functional-unit availability tracking.
///
/// Free units of one class are interchangeable (their stale busy times are
/// all in the past, so any of them can take the next instruction without
/// changing future behaviour), which reduces the per-class busy table to a
/// *count* of free units plus a schedule of future free events: a calendar
/// ring for events up to [`CALENDAR_SLOTS`] cycles out — one counter
/// increment per issue, one row drain per cycle — and an overflow heap for
/// the rare longer spans.  A class mask per row names the classes with
/// events in it, so draining a row touches only those and finding the next
/// event tests one word per row.
#[derive(Debug, Clone)]
struct FuTracker {
    /// Free units per class, current as of `drained_cycle`.
    free: [u32; FuClass::COUNT],
    /// `calendar[t % CALENDAR_SLOTS][class]`: units of `class` becoming
    /// free at cycle `t`, for `t` within `CALENDAR_SLOTS` of the present.
    calendar: [[u32; FuClass::COUNT]; CALENDAR_SLOTS as usize],
    /// `classes[row]` has bit `class` set exactly when
    /// `calendar[row][class]` is non-zero (derived state: the encoding
    /// leaves it out).
    classes: [u16; CALENDAR_SLOTS as usize],
    /// Free events scheduled `CALENDAR_SLOTS` or more cycles out:
    /// `(free_cycle, class)`.
    overflow: BinaryHeap<Reverse<(u64, u8)>>,
    /// The cycle up to (and including) which events have been folded into
    /// `free`.
    drained_cycle: u64,
}

impl FuTracker {
    fn new(config: &PipelineConfig) -> FuTracker {
        let mut free = [0u32; FuClass::COUNT];
        for class in FuClass::ALL {
            free[class.index()] = config.pool(class).count as u32;
        }
        FuTracker {
            free,
            calendar: [[0; FuClass::COUNT]; CALENDAR_SLOTS as usize],
            classes: [0; CALENDAR_SLOTS as usize],
            overflow: BinaryHeap::new(),
            drained_cycle: 0,
        }
    }

    /// Folds every free event scheduled at cycles in
    /// `(drained_cycle, cycle]` into the free counts.  Cheap in the common
    /// case (one ring row per cycle); bounded by the ring size after a
    /// clock jump.
    fn drain_to(&mut self, cycle: u64) {
        if cycle <= self.drained_cycle {
            return;
        }
        let from = if cycle - self.drained_cycle >= CALENDAR_SLOTS {
            cycle - CALENDAR_SLOTS + 1
        } else {
            self.drained_cycle + 1
        };
        for t in from..=cycle {
            let row = (t % CALENDAR_SLOTS) as usize;
            let mut classes = std::mem::take(&mut self.classes[row]);
            while classes != 0 {
                let class = classes.trailing_zeros() as usize;
                classes &= classes - 1;
                self.free[class] += std::mem::take(&mut self.calendar[row][class]);
            }
        }
        while let Some(&Reverse((t, class))) = self.overflow.peek() {
            if t > cycle {
                break;
            }
            self.overflow.pop();
            self.free[class as usize] += 1;
        }
        self.drained_cycle = cycle;
    }

    /// Whether a unit of the class is free (after [`FuTracker::drain_to`]
    /// for the current cycle).
    fn has_free(&self, class: usize) -> bool {
        self.free[class] > 0
    }

    /// Takes a free unit of the class and schedules its free event
    /// `busy_for` cycles out.
    fn take(&mut self, class: usize, cycle: u64, busy_for: u64) {
        self.free[class] -= 1;
        if busy_for < CALENDAR_SLOTS {
            let row = ((cycle + busy_for) % CALENDAR_SLOTS) as usize;
            self.calendar[row][class] += 1;
            self.classes[row] |= 1 << class;
        } else {
            self.overflow.push(Reverse((cycle + busy_for, class as u8)));
        }
    }

    /// Moves every scheduled event `cycles` later (a steady-state jump):
    /// the ring rotates with the clock, so each event keeps its distance
    /// from the present.
    fn translate(&mut self, cycles: u64) {
        self.drained_cycle += cycles;
        let rotation = (cycles % CALENDAR_SLOTS) as usize;
        self.calendar.rotate_right(rotation);
        self.classes.rotate_right(rotation);
        let overflow = std::mem::take(&mut self.overflow).into_vec();
        self.overflow = overflow
            .into_iter()
            .map(|Reverse((t, class))| Reverse((t + cycles, class)))
            .collect();
    }

    /// Appends the availability state relative to cycle `now`: free
    /// counts, the pending calendar rows in time order, and the overflow
    /// events.
    fn encode(&self, now: u64, out: &mut Vec<u64>) {
        out.extend(self.free.iter().map(|&n| n as u64));
        out.push(now.wrapping_sub(self.drained_cycle));
        for ahead in 1..=CALENDAR_SLOTS {
            let row = &self.calendar[((self.drained_cycle + ahead) % CALENDAR_SLOTS) as usize];
            out.extend(row.iter().map(|&n| n as u64));
        }
        let mut overflow: Vec<(u64, u8)> = self
            .overflow
            .iter()
            .map(|&Reverse((t, class))| (t.wrapping_sub(now), class))
            .collect();
        overflow.sort_unstable();
        out.push(overflow.len() as u64);
        for (t, class) in overflow {
            out.extend([t, class as u64]);
        }
    }

    /// The earliest cycle after `cycle` at which any class gains a free
    /// unit, if any event is scheduled (used by the idle fast-forward).
    /// An overflow event scheduled long ago may by now be nearer than the
    /// first calendar event, so both sources are compared.
    fn next_free_event(&self, cycle: u64) -> Option<u64> {
        let ring = (1..CALENDAR_SLOTS)
            .map(|ahead| cycle + ahead)
            .find(|t| self.classes[(t % CALENDAR_SLOTS) as usize] != 0);
        let overflow = self.overflow.peek().map(|&Reverse((t, _))| t);
        match (ring, overflow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The incremental out-of-order timing consumer.
///
/// Feed it retired instructions ([`PipelineSim::feed`]) as they stream out
/// of the functional simulator, then call [`PipelineSim::finish`] for the
/// [`SimResult`].  It also implements [`TraceSink`], so it can be attached
/// directly to `Machine::run_with_sink` — fusing functional and timing
/// simulation into a single bounded-memory pass.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    config: PipelineConfig,
    /// The simulated data-cache hierarchy, when the memory model is
    /// [`crate::MemoryModel::Hierarchy`].  Accessed in trace order at rename
    /// time, which keeps streaming and batch replay bit-identical.
    dcache: Option<CacheSim>,
    /// Every in-flight instruction: the reorder buffer
    /// (`committed..next_dispatch`) followed by the renamed-but-undispatched
    /// fetch buffer (`next_dispatch..next_seq`), as a ring of a power-of-two
    /// size in which the entry of sequence number `s` lives at slot
    /// `s & window_mask`.  Dispatch and commit just advance `next_dispatch`
    /// and `committed`; nothing is copied or popped.  The fetch-buffer tail
    /// is bounded ([`PipelineSim::feed`] drains it down to below one fetch
    /// group), so the ring holds at most `rob_size + width` live entries.
    insts: Vec<WindowEntry>,
    /// The ring size minus one.
    window_mask: u64,
    /// Per-class functional-unit availability (free counts plus a calendar
    /// of future free events), indexed by [`FuClass::index`].
    fu: FuTracker,
    /// Bit `FuClass::index` set when that pool is pipelined — the only pool
    /// property the issue stage needs per instruction.
    fu_pipelined: u16,
    /// [`PipelineConfig::latency`] of each class, by [`FuClass::index`].
    fu_latency: [u64; FuClass::COUNT],
    /// Per-class busy-cycle totals, materialised into
    /// [`SimResult::fu_busy_cycles`] at the end of the run.
    fu_busy_acc: [u64; FuClass::COUNT],
    /// The rename stage (last-writer scoreboard).  Unused when the sim is
    /// driven through a fan-out, whose shared renamer decodes each entry
    /// once for every consumer.
    renamer: Renamer,
    /// The wakeup-edge arena: intrusive per-producer consumer lists headed
    /// by [`WindowEntry::consumer_head`], with freed nodes threaded onto
    /// [`PipelineSim::edge_free`] for reuse.
    edges: Vec<EdgeNode>,
    /// Head of the arena's free list ([`EDGE_NONE`] when empty).
    edge_free: u32,
    /// Dispatched, unissued entries whose operands are ready this cycle or
    /// the next, in sequence (= age) order: the only entries the issue
    /// stage visits (not-quite-ready ones are skipped by their
    /// operand-ready cycle and revisited next cycle).
    ready: Vec<u64>,
    /// How many `ready` entries wait per functional-unit class: lets the
    /// issue pass stop as soon as every class with waiting entries has been
    /// found busy this cycle, instead of probing the whole backlog (60
    /// ready loads behind 2 busy ports cost O(1) per stalled cycle, not
    /// O(60)).
    ready_counts: [u32; FuClass::COUNT],
    /// Dispatched entries whose operands will be ready at a known cycle
    /// further out, keyed by that cycle; drained into `ready` as time
    /// advances.  Splitting near-ready entries (straight into `ready`) from
    /// far-future ones (heap) keeps 1-cycle dependence chains off the heap
    /// while long memory latencies never cause rescans.
    future: BinaryHeap<Reverse<(u64, u64)>>,
    /// The in-flight stores, in sequence order: the only entries a load's
    /// memory-ordering check inspects.
    store_queue: VecDeque<StoreRecord>,
    /// Lower bound on the earliest completion among issued, in-flight
    /// instructions — shrunk on every issue, recomputed (by scanning the
    /// window) only when the recorded event has passed.  Keeps the idle
    /// fast-forward O(1) amortised instead of O(window) per idle cycle.
    next_completion: u64,
    /// Lower bound on the earliest future functional-unit free event, with
    /// the same lazy-recompute discipline.
    next_fu_free: u64,
    /// Sequence number assigned to the next fed entry.
    next_seq: u64,
    /// Sequence number of the next entry to dispatch (= dispatched count).
    next_dispatch: u64,
    /// Committed instruction count (= sequence number of the oldest
    /// in-flight entry).
    committed: u64,
    /// Current cycle.
    cycle: u64,
    /// Added to every producer sequence number the rename stage decodes:
    /// how far steady-state jumps have moved this consumer's sequence space
    /// ahead of the renamer feeding it (its own, or its fan-out's shared
    /// one).
    seq_offset: u64,
    /// Invocations a steady-state jump accounted for without stepping
    /// them, published once at [`PipelineSim::into_parts`].
    extrapolated_invocations: u64,
    /// Cycles simulated by [`PipelineSim::step_cycle`] (an idle
    /// fast-forward counts as the one cycle that took it), published once
    /// at [`PipelineSim::into_parts`].
    cycles_stepped: u64,
    /// Entries fed through [`PipelineSim::feed_decoded`], published once at
    /// [`PipelineSim::into_parts`].
    entries_stepped: u64,
    /// Statistics accumulated at commit.
    result: SimResult,
}

impl PipelineSim {
    /// Creates an incremental consumer for the given machine configuration,
    /// with every table pre-sized from the configuration (window, pending
    /// buffer, ready/wakeup structures and the store queue from the
    /// reorder-buffer size, the free-unit heaps from the pool counts), so a
    /// fan-out over a whole configuration grid allocates once up front.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: PipelineConfig) -> Self {
        let dcache = config.memory.hierarchy().copied().map(CacheSim::new);
        Self::build(config, dcache)
    }

    /// The shared constructor body: every table pre-sized from the
    /// configuration, with the data cache supplied by the caller
    /// ([`PipelineSim::new`] builds a cold one from the configuration;
    /// [`PipelineSim::resume`] installs a warm one without constructing a
    /// throwaway hierarchy first).
    fn build(config: PipelineConfig, dcache: Option<CacheSim>) -> Self {
        config.validate().expect("invalid pipeline configuration");
        timing_simulations_counter().inc();
        let fu = FuTracker::new(&config);
        let mut fu_pipelined = 0u16;
        let mut fu_latency = [0; FuClass::COUNT];
        for class in FuClass::ALL {
            if config.pool(class).pipelined {
                fu_pipelined |= 1 << class.index();
            }
            fu_latency[class.index()] = config.latency(class);
        }
        let rob = config.rob_size;
        let ring = (rob + config.width + 1).next_power_of_two();
        PipelineSim {
            dcache,
            insts: vec![WindowEntry::VACANT; ring],
            window_mask: ring as u64 - 1,
            fu,
            fu_pipelined,
            fu_latency,
            fu_busy_acc: [0; FuClass::COUNT],
            renamer: Renamer::new(),
            edges: Vec::with_capacity(2 * rob),
            edge_free: EDGE_NONE,
            ready: Vec::with_capacity(rob),
            ready_counts: [0; FuClass::COUNT],
            future: BinaryHeap::with_capacity(rob),
            store_queue: VecDeque::with_capacity(rob),
            next_completion: u64::MAX,
            next_fu_free: u64::MAX,
            next_seq: 0,
            next_dispatch: 0,
            committed: 0,
            cycle: 0,
            seq_offset: 0,
            extrapolated_invocations: 0,
            cycles_stepped: 0,
            entries_stepped: 0,
            result: SimResult::default(),
            config,
        }
    }

    /// Creates an incremental consumer that **resumes** on a warm data
    /// cache: the tag state of `dcache` (typically obtained from a previous
    /// phase's [`PipelineSim::into_parts`]) is kept, its hit/miss counters
    /// are zeroed, and everything else — window, renaming, cycle count —
    /// starts fresh.
    ///
    /// This is the phase boundary of a multi-kernel application pipeline:
    /// the pipeline drains between phases (a function-call boundary), but
    /// the memory hierarchy does not forget, so a phase re-reading a
    /// predecessor's buffers observes warm-cache hits.  Under a
    /// [`crate::MemoryModel::Fixed`] configuration the warm cache is
    /// ignored, so phase chaining cannot perturb fixed-latency timing.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.  In debug builds,
    /// additionally asserts that a provided warm cache has the same
    /// geometry the configuration's hierarchy describes.
    pub fn resume(config: PipelineConfig, dcache: Option<CacheSim>) -> Self {
        let dcache = match (config.memory.hierarchy().copied(), dcache) {
            (Some(geometry), Some(mut warm)) => {
                debug_assert_eq!(
                    warm.config(),
                    geometry,
                    "resumed cache geometry must match the configuration"
                );
                warm.reset_stats();
                Some(warm)
            }
            (Some(geometry), None) => Some(CacheSim::new(geometry)),
            (None, _) => None,
        };
        Self::build(config, dcache)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Occupancy (in cycles) of one dynamic instruction on its functional
    /// unit.
    ///
    /// The vector memory port moves `vec_mem_words` 64-bit words per cycle,
    /// so a matrix access occupies it for the bytes it actually moves (from
    /// the traced access size), not a flat per-row count.  The non-pipelined
    /// transpose unit has occupancy 1 — serialisation comes from the unit
    /// staying busy for the full latency (`busy_for = latency.max(occupancy)`
    /// at issue), not from inflating the occupancy, which would double-count
    /// the latency in the completion time.
    fn occupancy(&self, decoded: &DecodedEntry) -> u64 {
        let vl = decoded.vl.max(1) as u64;
        match decoded.fu {
            FuClass::VecMem => {
                let port_bytes = self.config.vec_mem_words as u64 * 8;
                let bytes = decoded.mem.map_or(vl * 8, |m| m.total_bytes());
                bytes.div_ceil(port_bytes).max(1)
            }
            _ if decoded.flags & FLAG_VL_DEPENDENT != 0 => {
                vl.div_ceil(self.config.media_lanes as u64)
            }
            _ => 1,
        }
    }

    /// Number of dispatched entries (the reorder-buffer occupancy).
    fn window_len(&self) -> usize {
        (self.next_dispatch - self.committed) as usize
    }

    /// Number of renamed entries not yet dispatched.
    fn pending_len(&self) -> usize {
        (self.next_seq - self.next_dispatch) as usize
    }

    /// The ring slot of the in-flight entry with sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        (seq & self.window_mask) as usize
    }

    /// Consumes the next retired instruction of the stream.
    ///
    /// Renaming happens immediately (it only depends on stream order); the
    /// cycle-by-cycle simulation advances as soon as a full fetch group is
    /// buffered, so the consumer holds at most `width - 1` undispatched
    /// instructions plus the reorder buffer — bounded memory regardless of
    /// stream length.
    pub fn feed(&mut self, entry: TraceEntry) {
        let decoded = self.renamer.rename(&StaticEntry::of(&entry), &entry);
        self.feed_decoded(&decoded);
    }

    /// Feeds one invocation, renaming each entry against its row of the
    /// invocation's decoded table.
    fn feed_invocation(&mut self, table: &[StaticEntry], entries: &[TraceEntry]) {
        for (decoded, entry) in table.iter().zip(entries) {
            let decoded = self.renamer.rename(decoded, entry);
            self.feed_decoded(&decoded);
        }
    }

    /// Consumes one already-renamed entry (see [`Renamer::rename`]): the
    /// per-configuration half of [`PipelineSim::feed`], shared by the
    /// fan-out so decoding happens once per entry instead of once per
    /// consumer.
    fn feed_decoded(&mut self, decoded: &DecodedEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries_stepped += 1;
        debug_assert!(
            seq - self.committed <= self.window_mask,
            "the window ring holds every in-flight entry"
        );
        // Resolve the decoded dependences against this consumer's state: a
        // committed producer is complete; an issued one contributes its
        // known completion cycle; an unissued one gets a wakeup edge back
        // to this entry and is counted in `unresolved_deps`.
        let mut unresolved_deps = 0u8;
        let mut operand_ready_cycle = 0u64;
        for &w in &decoded.deps[..decoded.dep_count as usize] {
            let w = w + self.seq_offset;
            if w < self.committed {
                continue;
            }
            let slot = self.slot(w);
            let producer = &mut self.insts[slot];
            if producer.issued {
                operand_ready_cycle = operand_ready_cycle.max(producer.complete_cycle);
            } else {
                unresolved_deps += 1;
                // Thread a wakeup edge onto the producer's list, recycling
                // a freed arena node when one is available.
                let next = producer.consumer_head;
                let node = EdgeNode {
                    consumer: seq,
                    next,
                };
                if self.edge_free != EDGE_NONE {
                    let slot = self.edge_free;
                    producer.consumer_head = slot;
                    self.edge_free = self.edges[slot as usize].next;
                    self.edges[slot as usize] = node;
                } else {
                    producer.consumer_head = self.edges.len() as u32;
                    self.edges.push(node);
                }
            }
        }
        // Memory instructions are charged by the memory model: the fixed
        // latency, or the simulated per-access hit/miss latency when the
        // model is a hierarchy and the trace carries addresses (entries
        // without metadata are assumed to hit L1).
        let latency = match (decoded.fu, &mut self.dcache) {
            (FuClass::Mem | FuClass::VecMem, Some(cache)) => match decoded.mem.as_ref() {
                Some(access) => cache.access(access),
                None => cache.hit_latency(),
            },
            _ => self.fu_latency[decoded.fu.index()],
        };
        let slot = self.slot(seq);
        self.insts[slot] = WindowEntry {
            fu: decoded.fu,
            occupancy: self.occupancy(decoded),
            latency,
            ops: decoded.ops,
            flags: decoded.flags & (FLAG_MEDIA | FLAG_MEMORY | FLAG_STORE),
            mem_span: decoded.mem_span,
            consumer_head: EDGE_NONE,
            unresolved_deps,
            operand_ready_cycle,
            issued: false,
            complete_cycle: u64::MAX,
        };
        // A cycle's dispatch group is fully determined once `width` renamed
        // instructions are buffered (dispatch consumes at most `width` per
        // cycle), so simulating now is indistinguishable from batch replay.
        while self.pending_len() >= self.config.width {
            self.step_cycle();
        }
    }

    /// The measurement probe of the sampling driver ([`crate::sample`]):
    /// the cycle count the engine would report if the stream ended at the
    /// entries fed so far.  Clones the consumer — minus the cache
    /// hierarchy, which draining never consults, since memory latencies
    /// were charged at rename time — and runs the clone to completion; the
    /// consumer itself is untouched, so the difference between two probes
    /// measures the cycles attributable to the instructions fed between
    /// them.
    pub(crate) fn drained_cycle_count(&mut self) -> u64 {
        let cache = self.dcache.take();
        let mut probe = self.clone();
        self.dcache = cache;
        while probe.committed < probe.next_seq {
            probe.step_cycle();
        }
        probe.cycle
    }

    /// Runs the simulation to completion and returns the result.
    pub fn finish(self) -> SimResult {
        self.into_parts().0
    }

    /// Runs the simulation to completion and returns the result **plus** the
    /// simulated data cache in its final (warm) state, so a follow-up phase
    /// can [`PipelineSim::resume`] on it.  The cache is `None` under a
    /// fixed-latency memory model.
    pub fn into_parts(mut self) -> (SimResult, Option<CacheSim>) {
        while self.committed < self.next_seq {
            self.step_cycle();
        }
        self.result.cycles = self.cycle;
        for (index, &busy) in self.fu_busy_acc.iter().enumerate() {
            if busy > 0 {
                self.result.fu_busy_cycles.insert(FuClass::ALL[index], busy);
            }
        }
        if let Some(cache) = &self.dcache {
            self.result.cache = cache.stats;
        }
        invocations_extrapolated_counter().add(self.extrapolated_invocations);
        cycles_stepped_counter().add(self.cycles_stepped);
        entries_stepped_counter().add(self.entries_stepped);
        (self.result, self.dcache)
    }

    /// Inserts a sequence number into the ready queue, keeping age order.
    fn make_ready(ready: &mut Vec<u64>, seq: u64) {
        let at = ready.partition_point(|&s| s < seq);
        ready.insert(at, seq);
    }

    /// Simulates one cycle: commit, issue, dispatch — the same stage order
    /// as the paper's trace-driven Jinks runs.
    fn step_cycle(&mut self) {
        self.cycles_stepped += 1;
        let cfg = &self.config;

        // ----------------------------------------------------------
        // Commit: in order, up to `width` completed instructions.
        // ----------------------------------------------------------
        let mut committed_this_cycle = 0;
        while committed_this_cycle < cfg.width && self.committed < self.next_dispatch {
            let e = &self.insts[self.slot(self.committed)];
            if !(e.issued && e.complete_cycle <= self.cycle) {
                break;
            }
            self.result.instructions += 1;
            self.result.operations += e.ops as u64;
            self.result.media_instructions += (e.flags & FLAG_MEDIA != 0) as u64;
            self.result.memory_instructions += (e.flags & FLAG_MEMORY != 0) as u64;
            debug_assert_eq!(
                e.consumer_head, EDGE_NONE,
                "an issued producer must have drained its wakeup list"
            );
            self.committed += 1;
            committed_this_cycle += 1;
        }

        // ----------------------------------------------------------
        // Issue: oldest-first, up to `width` ready instructions whose
        // functional unit is free.
        // ----------------------------------------------------------
        // Fold functional-unit free events up to this cycle into the free
        // counts.
        self.fu.drain_to(self.cycle);
        // Wake the entries whose operands become ready this cycle.
        while let Some(&Reverse((ready_cycle, seq))) = self.future.peek() {
            if ready_cycle > self.cycle {
                break;
            }
            self.future.pop();
            self.ready_counts[self.insts[self.slot(seq)].fu.index()] += 1;
            Self::make_ready(&mut self.ready, seq);
        }
        // Retire completed stores from the head of the store queue (they no
        // longer block anything; completion is monotone in the cycle).
        while self
            .store_queue
            .front()
            .is_some_and(|s| s.complete_cycle <= self.cycle)
        {
            self.store_queue.pop_front();
        }
        // Visit the ready entries oldest-first, compacting the queue in
        // place: issued entries are dropped, blocked ones slide down.  The
        // region `write..read` is the gap; everything at `read..` is still
        // sorted and unvisited.
        let mut issued_this_cycle = 0;
        let mut read = 0;
        let mut write = 0;
        // Earliest operand-ready cycle among visited not-yet-ready entries
        // (an input to the idle fast-forward below).
        let mut min_unready_cycle = u64::MAX;
        // Classes found to have no free unit this cycle; once every class
        // with ready entries is busy, nothing further can issue.
        let mut busy_classes: u16 = 0;
        while read < self.ready.len() && issued_this_cycle < cfg.width {
            let seq = self.ready[read];
            let index = self.slot(seq);
            // One read of the candidate entry serves every check below.
            let e = &self.insts[index];
            // Near-ready entries (operands available next cycle) ride in
            // the ready queue instead of the heap; skip them until their
            // cycle arrives.
            let operand_ready_cycle = e.operand_ready_cycle;
            if operand_ready_cycle > self.cycle {
                min_unready_cycle = min_unready_cycle.min(operand_ready_cycle);
                self.ready[write] = seq;
                write += 1;
                read += 1;
                continue;
            }
            // Memory ordering: a load may not issue past an older store that
            // has not yet written memory, unless both addresses are known
            // and the byte ranges are disjoint.  There is no store-to-load
            // forwarding, so "written" means completed.  Only the in-flight
            // stores of the store-address queue need checking; committed
            // stores are done, and the queue is in age order.
            if e.flags & (FLAG_MEMORY | FLAG_STORE) == FLAG_MEMORY {
                let load_span = e.mem_span;
                let mut blocked = false;
                for store in &self.store_queue {
                    if store.seq >= seq {
                        break;
                    }
                    if store.complete_cycle <= self.cycle {
                        continue;
                    }
                    if mom_arch::spans_overlap(load_span, store.span) {
                        blocked = true;
                        break;
                    }
                }
                if blocked {
                    self.ready[write] = seq;
                    write += 1;
                    read += 1;
                    continue;
                }
            }
            // Structural hazard: the root of the class's free-time heap
            // tells whether any unit is free.  A class found busy once is
            // busy for the rest of the cycle; when every class with waiting
            // entries is busy, stop probing the backlog altogether.
            let fu = e.fu;
            let class = fu.index();
            if busy_classes & (1 << class) != 0 {
                self.ready[write] = seq;
                write += 1;
                read += 1;
                continue;
            }
            if !self.fu.has_free(class) {
                busy_classes |= 1 << class;
                self.ready[write] = seq;
                write += 1;
                read += 1;
                if self
                    .ready_counts
                    .iter()
                    .enumerate()
                    .all(|(c, &n)| n == 0 || busy_classes & (1 << c) != 0)
                {
                    // The unvisited tail may hold entries whose operands
                    // arrive next cycle; make sure the idle fast-forward
                    // does not jump past them.
                    if read < self.ready.len() {
                        min_unready_cycle = min_unready_cycle.min(self.cycle + 1);
                    }
                    break;
                }
                continue;
            }
            // Issue.
            self.ready_counts[class] -= 1;
            let occupancy = e.occupancy;
            let latency = e.latency;
            let is_store = e.flags & FLAG_STORE != 0;
            let busy_for = if self.fu_pipelined & (1 << class) != 0 {
                occupancy
            } else {
                latency.max(occupancy)
            };
            self.fu.take(class, self.cycle, busy_for);
            self.next_fu_free = self.next_fu_free.min(self.cycle + busy_for);
            self.fu_busy_acc[class] += busy_for;
            let complete_cycle = self.cycle + latency + occupancy - 1;
            self.next_completion = self.next_completion.min(complete_cycle);
            let edge_head = {
                let e = &mut self.insts[index];
                e.issued = true;
                e.complete_cycle = complete_cycle;
                std::mem::replace(&mut e.consumer_head, EDGE_NONE)
            };
            if is_store {
                let at = self.store_queue.partition_point(|s| s.seq < seq);
                debug_assert_eq!(self.store_queue[at].seq, seq, "store must be queued");
                self.store_queue[at].complete_cycle = complete_cycle;
            }
            // Wake this producer's consumers (walking its intrusive edge
            // list and recycling the nodes).  A consumer whose last
            // producer just issued becomes ready at `complete_cycle`; if
            // that is near (this cycle or the next) it joins the sorted,
            // unvisited tail of the ready queue — exactly where an
            // age-ordered window scan would visit it, since consumers are
            // always younger than their producer — and only far-future
            // completions pay for the heap.
            let mut edge = edge_head;
            while edge != EDGE_NONE {
                let EdgeNode { consumer, next } = self.edges[edge as usize];
                self.edges[edge as usize].next = self.edge_free;
                self.edge_free = edge;
                edge = next;
                let dispatched = consumer < self.next_dispatch;
                let slot = self.slot(consumer);
                let c = &mut self.insts[slot];
                c.unresolved_deps -= 1;
                c.operand_ready_cycle = c.operand_ready_cycle.max(complete_cycle);
                if c.unresolved_deps == 0 && dispatched {
                    let ready_cycle = c.operand_ready_cycle;
                    let consumer_class = c.fu.index();
                    if ready_cycle <= self.cycle + 1 {
                        // Insert into the sorted, unvisited tail `read+1..`
                        // (the compaction gap stays intact: the insertion
                        // point is past the read cursor).
                        self.ready_counts[consumer_class] += 1;
                        let tail = read + 1;
                        let at = tail + self.ready[tail..].partition_point(|&s| s < consumer);
                        self.ready.insert(at, consumer);
                    } else {
                        self.future.push(Reverse((ready_cycle, consumer)));
                    }
                }
            }
            // The issued entry is dropped from the ready queue: advance the
            // read cursor without copying it into the kept region.
            read += 1;
            issued_this_cycle += 1;
        }
        // Slide any unvisited tail (width cap reached) down over the gap
        // and drop the issued entries.
        if write != read {
            while read < self.ready.len() {
                self.ready[write] = self.ready[read];
                write += 1;
                read += 1;
            }
            self.ready.truncate(write);
        }

        // ----------------------------------------------------------
        // Dispatch: in order, up to `width` renamed instructions into
        // the reorder buffer.
        // ----------------------------------------------------------
        let mut dispatched_this_cycle = 0;
        let mut stalled = false;
        while dispatched_this_cycle < cfg.width && self.next_dispatch < self.next_seq {
            if self.window_len() >= cfg.rob_size {
                stalled = true;
                break;
            }
            // Dispatch is just the boundary marker moving over the next
            // renamed entry — no copy.
            let seq = self.next_dispatch;
            let e = &self.insts[self.slot(seq)];
            if e.flags & FLAG_STORE != 0 {
                self.store_queue.push_back(StoreRecord {
                    seq,
                    span: e.mem_span,
                    complete_cycle: u64::MAX,
                });
            }
            // An entry with no outstanding producers is schedulable as soon
            // as its operand-ready cycle passes; one with outstanding
            // producers enters the ready structures when the last of them
            // issues (the wakeup edges above).  Dispatch happens after this
            // cycle's issue stage, so next cycle is the earliest it can
            // issue either way: already-ready entries append straight to
            // the ready queue (they are the youngest, so order is kept) and
            // only genuinely future ones pay for the heap.
            if e.unresolved_deps == 0 {
                if e.operand_ready_cycle <= self.cycle + 1 {
                    self.ready_counts[e.fu.index()] += 1;
                    self.ready.push(seq);
                } else {
                    self.future.push(Reverse((e.operand_ready_cycle, seq)));
                }
            }
            self.next_dispatch += 1;
            dispatched_this_cycle += 1;
        }
        if stalled {
            self.result.dispatch_stall_cycles += 1;
        }
        self.result.max_rob_occupancy = self.result.max_rob_occupancy.max(self.window_len());

        // ----------------------------------------------------------
        // Idle fast-forward: if this cycle did nothing at all, the machine
        // state is static until the next event — the earliest in-flight
        // completion (which also unblocks commits and store-blocked loads),
        // the earliest operand-ready cycle (future heap and the near-ready
        // entries counted above), or the earliest functional-unit free time
        // (which only matters while something is waiting in the ready
        // queue).  Jump the clock there instead of ticking through cycles
        // whose every `<= cycle` comparison is known to fail.  Skipped
        // cycles repeat this cycle's dispatch-stall state exactly.
        // ----------------------------------------------------------
        if committed_this_cycle == 0 && issued_this_cycle == 0 && dispatched_this_cycle == 0 {
            let mut next_event = min_unready_cycle;
            // Earliest completion among the issued, in-flight instructions:
            // the watermark is exact or a safe lower bound while it lies in
            // the future; once it has passed, rescan the window for the
            // true next event (at most once per passed event, so idle
            // cycles stay O(1) amortised and busy streams never scan).
            if self.next_completion <= self.cycle {
                let mut earliest = u64::MAX;
                for seq in self.committed..self.next_dispatch {
                    let e = &self.insts[self.slot(seq)];
                    if e.issued && e.complete_cycle > self.cycle {
                        earliest = earliest.min(e.complete_cycle);
                    }
                }
                self.next_completion = earliest;
            }
            next_event = next_event.min(self.next_completion);
            if let Some(&Reverse((ready_cycle, _))) = self.future.peek() {
                next_event = next_event.min(ready_cycle);
            }
            if !self.ready.is_empty() {
                if self.next_fu_free <= self.cycle {
                    self.next_fu_free = self.fu.next_free_event(self.cycle).unwrap_or(u64::MAX);
                }
                next_event = next_event.min(self.next_fu_free);
            }
            if next_event != u64::MAX && next_event > self.cycle + 1 {
                let skipped = next_event - self.cycle - 1;
                if stalled {
                    self.result.dispatch_stall_cycles += skipped;
                }
                self.cycle += skipped;
            }
        }

        self.cycle += 1;
    }
}

/// The longest period, in checked boundaries, [`SteadyState`] looks for.
const MAX_PERIOD: usize = 8;

/// Replays shorter than this many invocations are stepped without any
/// steady-state bookkeeping: too few boundaries to find a period in.
const MIN_REPEATS: usize = 3;

/// How many counters grow linearly with the simulated stream (see
/// [`PipelineSim::linear_counters`]).
const LINEAR_COUNTERS: usize = 9 + FuClass::COUNT;

/// What a consumer has done by one checked invocation boundary: the
/// quantities a steady-state period adds to, each as a running total.
/// The difference of two marks is one period's worth of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    /// Invocations of the replay fed so far.
    invocations: u64,
    /// The consumer's clock.
    cycle: u64,
    /// The consumer's next sequence number.
    seq: u64,
    /// [`PipelineSim::linear_counters`].
    counters: [u64; LINEAR_COUNTERS],
}

impl Mark {
    /// What happened between `earlier` and this mark.
    fn since(&self, earlier: &Mark) -> Mark {
        let mut counters = self.counters;
        for (c, e) in counters.iter_mut().zip(earlier.counters) {
            *c -= e;
        }
        Mark {
            invocations: self.invocations - earlier.invocations,
            cycle: self.cycle - earlier.cycle,
            seq: self.seq - earlier.seq,
            counters,
        }
    }
}

/// Entries per check from which a consumer records its full state at every
/// check, repeating counters or not: encoding costs a few microseconds,
/// under a tenth of stepping that many entries, and a long invocation
/// replayed only a handful of times has no boundaries to spare.
const RECORD_ALWAYS_ENTRIES: usize = 2 * FANOUT_BATCH;

/// Recordings a consumer may make without finding a repeat before it stops
/// recording: bounds what a stream that never repeats pays.
const MAX_FRUITLESS_RECORDINGS: u32 = 2 * MAX_PERIOD as u32;

/// The full relative state of one checked boundary (see
/// [`PipelineSim::encode_state`]).
#[derive(Debug)]
struct Recording {
    check: u64,
    mark: Mark,
    state: Vec<u64>,
}

/// The steady-state detector of one consumer over one replay (see the
/// module documentation).  Each checked boundary costs one [`Mark`] and a
/// comparison of the last few mark deltas.  The full relative state is
/// encoded only when those deltas repeat, or when the invocations are long
/// enough that encoding is cheap next to stepping them, and a jump is
/// decided only on full equality with a recording at most [`MAX_PERIOD`]
/// checks old.
#[derive(Debug, Default)]
struct SteadyState {
    /// The last `2 * MAX_PERIOD + 1` marks.
    marks: VecDeque<Mark>,
    /// Boundaries checked so far.
    checks: u64,
    /// The recordings of the last [`MAX_PERIOD`] checks, oldest first.
    recordings: VecDeque<Recording>,
    /// Recordings so far that matched no earlier one.
    fruitless: u32,
}

impl SteadyState {
    /// Checks one invocation boundary of `sim`, which has consumed exactly
    /// `invocations` invocations of the replay, `entries` of them since
    /// the last check, fed by `renamer`.  Returns the period to jump by
    /// once the state at this boundary equals a recorded earlier one.
    fn observe(
        &mut self,
        sim: &PipelineSim,
        renamer: &Renamer,
        invocations: u64,
        entries: usize,
    ) -> Option<Mark> {
        let mark = sim.mark(invocations);
        let check = self.checks;
        self.checks += 1;
        if self.marks.len() == 2 * MAX_PERIOD + 1 {
            self.marks.pop_front();
        }
        self.marks.push_back(mark);
        while self
            .recordings
            .front()
            .is_some_and(|r| check - r.check > MAX_PERIOD as u64)
        {
            self.recordings.pop_front();
        }
        if self.fruitless >= MAX_FRUITLESS_RECORDINGS {
            return None;
        }
        let n = self.marks.len();
        let repeating = (1..=MAX_PERIOD).any(|p| {
            n > 2 * p
                && self.marks[n - 1].since(&self.marks[n - 1 - p])
                    == self.marks[n - 1 - p].since(&self.marks[n - 1 - 2 * p])
        });
        if !repeating && entries < RECORD_ALWAYS_ENTRIES {
            return None;
        }
        let mut state = Vec::with_capacity(self.recordings.back().map_or(0, |r| r.state.len()));
        sim.encode_state(renamer, &mut state);
        if let Some(earlier) = self.recordings.iter().rev().find(|r| r.state == state) {
            return Some(mark.since(&earlier.mark));
        }
        self.fruitless += 1;
        self.recordings.push_back(Recording { check, mark, state });
        None
    }
}

impl PipelineSim {
    /// The counters that grow linearly with the simulated stream: committed
    /// instructions, operations, the media/memory mix, dispatch stalls,
    /// cache hits and misses, and per-class busy cycles.
    fn linear_counters(&self) -> [u64; LINEAR_COUNTERS] {
        let cache = self.dcache.as_ref().map(|c| c.stats).unwrap_or_default();
        let mut counters = [0; LINEAR_COUNTERS];
        counters[..9].copy_from_slice(&[
            self.result.instructions,
            self.result.operations,
            self.result.media_instructions,
            self.result.memory_instructions,
            self.result.dispatch_stall_cycles,
            cache.l1_hits,
            cache.l1_misses,
            cache.l2_hits,
            cache.l2_misses,
        ]);
        counters[9..].copy_from_slice(&self.fu_busy_acc);
        counters
    }

    fn mark(&self, invocations: u64) -> Mark {
        Mark {
            invocations,
            cycle: self.cycle,
            seq: self.next_seq,
            counters: self.linear_counters(),
        }
    }

    /// Appends everything the future of this consumer depends on, relative
    /// to its clock and next sequence number: two boundaries that encode
    /// equal behave identically on identical input, up to a shift of every
    /// cycle and sequence number.
    ///
    /// Cycle values at or before the present encode as 0: every use of
    /// them (commit and store-queue checks, operand readiness, the maximum
    /// over producers' completions) compares them against a clock that
    /// only grows, or takes a maximum with a completion still ahead, so
    /// all past values act alike.  Likewise a renamed producer that has
    /// committed encodes like no producer at all.  Wakeup lists encode as
    /// sorted sets: waking consumers is order-insensitive.
    fn encode_state(&self, renamer: &Renamer, out: &mut Vec<u64>) {
        let now = self.cycle;
        let cycle = |c: u64| match c {
            u64::MAX => u64::MAX,
            c if c <= now => 0,
            c => c - now,
        };
        let seq = |s: u64| self.next_seq.wrapping_sub(s);
        out.extend([
            self.next_seq - self.committed,
            self.next_seq - self.next_dispatch,
        ]);
        for s in self.committed..self.next_seq {
            let e = &self.insts[self.slot(s)];
            let flags = e.flags as u64
                | (e.issued as u64) << 4
                | (e.unresolved_deps as u64) << 8
                | (e.fu.index() as u64) << 16;
            out.extend([
                seq(s),
                flags,
                e.occupancy,
                e.latency,
                e.ops as u64,
                cycle(e.operand_ready_cycle),
                cycle(e.complete_cycle),
            ]);
            out.extend([e.mem_span.0, e.mem_span.1]);
            let head = out.len();
            out.push(0);
            let mut edge = e.consumer_head;
            while edge != EDGE_NONE {
                let node = self.edges[edge as usize];
                out.push(seq(node.consumer));
                edge = node.next;
            }
            out[head] = (out.len() - head - 1) as u64;
            out[head + 1..].sort_unstable();
        }
        out.push(self.ready.len() as u64);
        out.extend(self.ready.iter().map(|&s| seq(s)));
        out.extend(self.ready_counts.iter().map(|&n| n as u64));
        let mut future: Vec<(u64, u64)> = self
            .future
            .iter()
            .map(|&Reverse((c, s))| (cycle(c), seq(s)))
            .collect();
        future.sort_unstable();
        out.push(future.len() as u64);
        for (c, s) in future {
            out.extend([c, s]);
        }
        out.push(self.store_queue.len() as u64);
        for store in &self.store_queue {
            out.extend([seq(store.seq), cycle(store.complete_cycle)]);
            out.extend([store.span.0, store.span.1]);
        }
        out.extend([cycle(self.next_completion), cycle(self.next_fu_free)]);
        self.fu.encode(now, out);
        out.extend(renamer.last_writer.iter().map(|writer| match writer {
            Some(w) if w + self.seq_offset >= self.committed => seq(w + self.seq_offset),
            _ => 0,
        }));
        if let Some(cache) = &self.dcache {
            cache.encode_lines(out);
        }
    }

    /// Jumps `periods` steady-state periods ahead: shifts every absolute
    /// cycle and sequence number by that many periods' worth and adds that
    /// many copies of one period's counter deltas.  The renamer stays
    /// where it is; the sequence shift goes into the consumer's offset
    /// against it.
    fn fast_forward(&mut self, period: &Mark, periods: u64) {
        if periods == 0 {
            return;
        }
        let cycles = period.cycle * periods;
        let seqs = period.seq * periods;
        let shift = |c: &mut u64| {
            if *c != u64::MAX {
                *c += cycles;
            }
        };
        for s in self.committed..self.next_seq {
            let slot = self.slot(s);
            let e = &mut self.insts[slot];
            shift(&mut e.operand_ready_cycle);
            shift(&mut e.complete_cycle);
        }
        // Every in-flight sequence number moves by `seqs`, so the ring
        // rotates with it: the entry of `s` moves from slot `s & mask` to
        // slot `(s + seqs) & mask`.
        self.insts.rotate_right((seqs & self.window_mask) as usize);
        for node in self.edges.iter_mut() {
            node.consumer += seqs;
        }
        for s in self.ready.iter_mut() {
            *s += seqs;
        }
        let future = std::mem::take(&mut self.future).into_vec();
        self.future = future
            .into_iter()
            .map(|Reverse((c, s))| Reverse((c + cycles, s + seqs)))
            .collect();
        for store in self.store_queue.iter_mut() {
            store.seq += seqs;
            shift(&mut store.complete_cycle);
        }
        shift(&mut self.next_completion);
        shift(&mut self.next_fu_free);
        self.fu.translate(cycles);
        self.cycle += cycles;
        self.next_seq += seqs;
        self.next_dispatch += seqs;
        self.committed += seqs;
        self.seq_offset += seqs;
        let delta = |i: usize| period.counters[i] * periods;
        self.result.instructions += delta(0);
        self.result.operations += delta(1);
        self.result.media_instructions += delta(2);
        self.result.memory_instructions += delta(3);
        self.result.dispatch_stall_cycles += delta(4);
        if let Some(cache) = &mut self.dcache {
            cache.stats.l1_hits += delta(5);
            cache.stats.l1_misses += delta(6);
            cache.stats.l2_hits += delta(7);
            cache.stats.l2_misses += delta(8);
        }
        for (class, busy) in self.fu_busy_acc.iter_mut().enumerate() {
            *busy += delta(9 + class);
        }
        self.extrapolated_invocations += period.invocations * periods;
    }
}

impl TraceSink for PipelineSim {
    fn retire(&mut self, entry: TraceEntry) {
        self.feed(entry);
    }

    /// Steps the replay invocation by invocation, checking for a steady
    /// state at the first boundary after each [`CHECK_ENTRIES`] entries;
    /// once one is found, jumps over every whole period left and steps
    /// only the remainder.
    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        let table = StaticEntry::table(entries);
        let mut steady = SteadyState::default();
        let mut since_check = 0;
        for done in 1..=times {
            self.feed_invocation(&table, entries);
            since_check += entries.len();
            if times < MIN_REPEATS || since_check < CHECK_ENTRIES {
                continue;
            }
            let checked = std::mem::take(&mut since_check);
            if let Some(period) = steady.observe(self, &self.renamer, done as u64, checked) {
                let left = (times - done) as u64;
                self.fast_forward(&period, left / period.invocations);
                for _ in 0..left % period.invocations {
                    self.feed_invocation(&table, entries);
                }
                return;
            }
        }
    }
}

/// How many decoded entries [`PipelineFanout`] accumulates before sweeping
/// the batch through its consumers: large enough to amortise the per-sweep
/// loop overhead and keep each consumer's state hot for a whole sweep,
/// small enough that the shared batch (88 bytes per entry) stays resident
/// in L1/L2 while every consumer reads it.
const FANOUT_BATCH: usize = 256;

/// Entries a replay feeds between two steady-state checks (rounded up to
/// the next invocation boundary).  A quarter batch: a fan-out sweeps its
/// batch early at each check, but a short invocation still gets checked
/// every few invocations, so the jump comes soon after the state settles.
const CHECK_ENTRIES: usize = FANOUT_BATCH / 4;

/// A fan-out consumer: one functional run drives several machine
/// configurations at once (the paper's way 1/2/4/8 sweep from a single
/// instruction stream).
///
/// The consumers advance in **lockstep over one decoded stream**: each
/// entry is renamed once, appended to a shared batch of [`DecodedEntry`]s,
/// and once the batch fills (or the run ends) it is swept through the
/// consumers one at a time, each reading the entries by reference.  The
/// batch sweep — rather than feeding each entry to every consumer as it
/// arrives — touches each decoded entry's cache lines once per batch
/// instead of once per simulator, and keeps one simulator's window, queues
/// and cache tables hot for [`FANOUT_BATCH`] consecutive entries.  Because every consumer
/// still observes the identical entry sequence, the per-configuration
/// results are cycle-for-cycle identical to independent [`PipelineSim`]
/// runs (the differential suite pins this); consumers simply lag the
/// decode front by at most one batch until [`PipelineFanout::finish`].
#[derive(Debug, Clone)]
pub struct PipelineFanout {
    sims: Vec<PipelineSim>,
    /// The shared rename stage: each entry is decoded once and the decoded
    /// form is fed to every consumer.
    renamer: Renamer,
    /// The renamed entries of the current lockstep batch.
    batch: Vec<DecodedEntry>,
}

impl Default for PipelineFanout {
    fn default() -> Self {
        PipelineFanout {
            sims: Vec::new(),
            renamer: Renamer::new(),
            batch: Vec::with_capacity(FANOUT_BATCH),
        }
    }
}

impl PipelineFanout {
    /// Creates a fan-out over the given configurations, in order.  Each
    /// consumer's window and functional-unit tables are pre-sized from its
    /// configuration ([`PipelineSim::new`]), so fanning out over a full
    /// configuration grid allocates once up front.
    pub fn new<I: IntoIterator<Item = PipelineConfig>>(configs: I) -> Self {
        let configs = configs.into_iter();
        let mut sims = Vec::with_capacity(configs.size_hint().0);
        sims.extend(configs.map(PipelineSim::new));
        PipelineFanout {
            sims,
            ..PipelineFanout::default()
        }
    }

    /// Adds one more consumer.  The new consumer must not join after
    /// feeding has started (it would miss the prefix of the stream); this
    /// is the caller's responsibility, as it always was.
    pub fn push(&mut self, config: PipelineConfig) {
        self.sims.push(PipelineSim::new(config));
    }

    /// Number of consumers.
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the fan-out has no consumers.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Feeds one entry to every consumer: decoding (renaming and metadata
    /// extraction) happens once, immediately; the timing consumers advance
    /// when the shared batch fills.
    pub fn feed(&mut self, entry: TraceEntry) {
        let decoded = self.renamer.rename(&StaticEntry::of(&entry), &entry);
        self.batch.push(decoded);
        if self.batch.len() >= FANOUT_BATCH {
            self.sweep();
        }
    }

    /// Sweeps the buffered batch through every consumer and clears it.
    fn sweep(&mut self) {
        for sim in &mut self.sims {
            for decoded in &self.batch {
                sim.feed_decoded(decoded);
            }
        }
        self.batch.clear();
    }

    /// [`PipelineFanout::sweep`] for consumers that may have jumped: each
    /// takes at most its remaining `budget` of the batch (`u64::MAX` while
    /// it still steps through every entry).
    fn sweep_within(&mut self, budgets: &mut [u64]) {
        if self.batch.is_empty() {
            return;
        }
        for (sim, budget) in self.sims.iter_mut().zip(budgets.iter_mut()) {
            let take = (self.batch.len() as u64).min(*budget);
            for decoded in &self.batch[..take as usize] {
                sim.feed_decoded(decoded);
            }
            if *budget != u64::MAX {
                *budget -= take;
            }
        }
        self.batch.clear();
    }

    /// Finishes every consumer, returning one [`SimResult`] per
    /// configuration, in construction order.
    pub fn finish(mut self) -> Vec<SimResult> {
        self.sweep();
        self.sims.into_iter().map(PipelineSim::finish).collect()
    }
}

impl TraceSink for PipelineFanout {
    fn retire(&mut self, entry: TraceEntry) {
        self.feed(entry);
    }

    /// The lockstep form of [`PipelineSim`]'s steady-state replay: the
    /// batch is swept at every checked boundary, each consumer checks for
    /// its own steady state there, jumps on its own, and then takes only
    /// its remaining entries from the shared batches.  Decoding stops as
    /// soon as every consumer has all it needs.
    fn retire_repeated(&mut self, entries: &[TraceEntry], times: usize) {
        let table = StaticEntry::table(entries);
        self.sweep();
        let mut budgets = vec![u64::MAX; self.sims.len()];
        let mut steady: Vec<SteadyState> =
            self.sims.iter().map(|_| SteadyState::default()).collect();
        let mut since_check = 0;
        // Invocations to decode: all of them until every consumer jumped.
        let mut last = times;
        let mut done = 0;
        while done < last {
            done += 1;
            for (decoded, entry) in table.iter().zip(entries) {
                self.batch.push(self.renamer.rename(decoded, entry));
                if self.batch.len() >= FANOUT_BATCH {
                    self.sweep_within(&mut budgets);
                }
            }
            since_check += entries.len();
            if times < MIN_REPEATS || since_check < CHECK_ENTRIES {
                continue;
            }
            let checked = std::mem::take(&mut since_check);
            self.sweep_within(&mut budgets);
            let left = (times - done) as u64;
            for ((sim, steady), budget) in self.sims.iter_mut().zip(&mut steady).zip(&mut budgets) {
                if *budget != u64::MAX {
                    continue;
                }
                if let Some(period) = steady.observe(sim, &self.renamer, done as u64, checked) {
                    sim.fast_forward(&period, left / period.invocations);
                    *budget = left % period.invocations * entries.len() as u64;
                }
            }
            // The batch is empty here, so each budget is whole invocations.
            last = budgets
                .iter()
                .map(|&b| match b {
                    u64::MAX => times,
                    b => done + (b / entries.len() as u64) as usize,
                })
                .max()
                .unwrap_or(times);
        }
        self.sweep_within(&mut budgets);
        debug_assert!(
            budgets.iter().all(|&b| b == 0 || b == u64::MAX),
            "every jumped consumer takes exactly its remaining invocations"
        );
        // Decoding may have stopped short of a consumer's last invocation
        // boundary.  The scoreboard repeats one invocation later, shifted by
        // one invocation (a producer older than that has committed in every
        // consumer that jumped), so each consumer's offset maps the
        // renamer's position onto its own.
        for sim in &mut self.sims {
            sim.seq_offset = sim.next_seq - self.renamer.next_seq;
        }
    }
}

/// The out-of-order timing simulator (batch interface).
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: PipelineConfig) -> Self {
        config.validate().expect("invalid pipeline configuration");
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Starts an incremental consumer with this pipeline's configuration.
    pub fn streaming(&self) -> PipelineSim {
        PipelineSim::new(self.config.clone())
    }

    /// Replays a materialised dynamic trace — a convenience wrapper that
    /// feeds the whole trace through the incremental consumer.
    pub fn simulate(&self, trace: &Trace) -> SimResult {
        let mut sim = self.streaming();
        for e in trace.iter() {
            sim.feed(*e);
        }
        sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HierarchyConfig;
    use crate::config::MemoryModel;
    use crate::reference::ReferenceSim;
    use mom_arch::{MemAccess, TraceEntry};
    use mom_isa::prelude::*;
    use mom_isa::Instruction;

    fn entry(instr: Instruction, vl: u16) -> TraceEntry {
        TraceEntry {
            instr,
            vl,
            taken: false,
            mem: None,
        }
    }

    fn entry_at(instr: Instruction, vl: u16, mem: MemAccess) -> TraceEntry {
        TraceEntry {
            instr,
            vl,
            taken: false,
            mem: Some(mem),
        }
    }

    fn add(rd: u8, ra: u8, rb: u8) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rd,
            ra,
            rb,
        }
    }

    fn load(rd: u8, base: u8) -> Instruction {
        Instruction::Load {
            size: MemSize::Quad,
            signed: false,
            rd,
            base,
            offset: 0,
        }
    }

    fn sim(width: usize, entries: Vec<TraceEntry>) -> SimResult {
        let trace: Trace = entries.into_iter().collect();
        Pipeline::new(PipelineConfig::way(width)).simulate(&trace)
    }

    fn sim_mem(width: usize, latency: u64, entries: Vec<TraceEntry>) -> SimResult {
        let trace: Trace = entries.into_iter().collect();
        let cfg = PipelineConfig::way_with_memory(width, MemoryModel::Fixed { latency });
        Pipeline::new(cfg).simulate(&trace)
    }

    /// Runs the same entries through the naive reference engine.
    fn sim_reference(width: usize, latency: u64, entries: &[TraceEntry]) -> SimResult {
        let cfg = PipelineConfig::way_with_memory(width, MemoryModel::Fixed { latency });
        let mut sim = ReferenceSim::new(cfg);
        for e in entries {
            sim.feed(*e);
        }
        sim.finish()
    }

    fn store(rs: u8, base: u8) -> Instruction {
        Instruction::Store {
            size: MemSize::Quad,
            rs,
            base,
            offset: 0,
        }
    }

    /// A 64-entry invocation (loads feeding a reduction, stores, an
    /// independent chain) that settles into a periodic pipeline state.
    fn periodic_invocation() -> Trace {
        let mut entries = Vec::new();
        for i in 0..16u8 {
            let offset = 8 * i as u64;
            entries.push(entry_at(
                load(1 + i % 4, 10),
                1,
                MemAccess::unit(0x1000 + offset, 8, false),
            ));
            entries.push(entry(add(5, 1 + i % 4, 5), 1));
            entries.push(entry_at(
                store(5, 11),
                1,
                MemAccess::unit(0x2000 + offset, 8, true),
            ));
            entries.push(entry(add(6, 6, 6), 1));
        }
        entries.into_iter().collect()
    }

    #[test]
    fn steady_state_replay_jumps_and_equals_stepping() {
        let trace = periodic_invocation();
        let configs = [
            PipelineConfig::way_with_memory(4, MemoryModel::PERFECT),
            PipelineConfig::way_with_memory(8, MemoryModel::L2),
            PipelineConfig::way_with_memory(8, MemoryModel::CACHE),
        ];
        let mut fanout = PipelineFanout::new(configs.iter().cloned());
        trace.replay_into(100, &mut fanout);
        assert!(
            fanout
                .sims
                .iter()
                .all(|sim| sim.extrapolated_invocations > 0),
            "every fan-out consumer must jump"
        );
        for (config, fanned) in configs.iter().zip(fanout.finish()) {
            let mut replayed = PipelineSim::new(config.clone());
            trace.replay_into(100, &mut replayed);
            assert!(
                replayed.extrapolated_invocations > 0,
                "{config:?} must jump"
            );
            let mut stepped = PipelineSim::new(config.clone());
            for _ in 0..100 {
                for e in trace.iter() {
                    stepped.feed(*e);
                }
            }
            let stepped = stepped.finish();
            assert_eq!(replayed.finish(), stepped);
            assert_eq!(fanned, stepped);
        }
    }

    /// Feeds `prefix`, then replays `invocation` `times` times the way
    /// [`PipelineSim`]'s `retire_repeated` does, up to its first
    /// steady-state jump.  Returns the jump's sequence shift and whether
    /// the in-flight window wrapped the ring's end at that boundary.
    fn first_jump(
        config: &PipelineConfig,
        prefix: &[TraceEntry],
        invocation: &[TraceEntry],
        times: usize,
    ) -> Option<(u64, bool)> {
        let mut sim = PipelineSim::new(config.clone());
        for e in prefix {
            sim.feed(*e);
        }
        let table = StaticEntry::table(invocation);
        let mut steady = SteadyState::default();
        for done in 1..=times {
            sim.feed_invocation(&table, invocation);
            let period = steady.observe(&sim, &sim.renamer, done as u64, invocation.len());
            if let Some(period) = period {
                let periods = (times - done) as u64 / period.invocations;
                let wrapped = sim.next_seq > sim.committed
                    && sim.slot(sim.committed) > sim.slot(sim.next_seq - 1);
                return Some((period.seq * periods, wrapped));
            }
        }
        None
    }

    #[test]
    fn jumps_across_the_window_ring_end_equal_stepping() {
        // 68 entries per invocation, so the sequence shift of a jump is a
        // multiple of the ring size only for some period counts.
        let mut invocation: Vec<TraceEntry> = periodic_invocation().iter().copied().collect();
        invocation.extend([entry(add(7, 7, 7), 1); 4]);
        let trace: Trace = invocation.iter().copied().collect();
        let times = 100;
        for config in [
            PipelineConfig::way_with_memory(4, MemoryModel::PERFECT),
            PipelineConfig::way_with_memory(8, MemoryModel::CACHE),
        ] {
            let ring = PipelineSim::new(config.clone()).insts.len() as u64;
            // A prefix of independent adds moves the ring position of the
            // jump; find one where the window straddles the ring's end.
            let filler = |n: usize| vec![entry(add(8, 9, 9), 1); n];
            let prefix = (0..ring as usize)
                .map(filler)
                .find(|prefix| {
                    matches!(
                        first_jump(&config, prefix, &invocation, times),
                        Some((shift, true)) if shift % ring != 0
                    )
                })
                .expect("some prefix puts a jump across the ring's end");

            let mut stepped = PipelineSim::new(config.clone());
            for e in prefix.iter().chain((0..times).flat_map(|_| &invocation)) {
                stepped.feed(*e);
            }
            let stepped = stepped.finish();

            let mut replayed = PipelineSim::new(config.clone());
            for e in &prefix {
                replayed.feed(*e);
            }
            trace.replay_into(times, &mut replayed);
            assert!(
                replayed.extrapolated_invocations > 0,
                "{config:?} must jump"
            );
            assert_eq!(replayed.finish(), stepped, "standalone {config:?}");

            let mut fanout = PipelineFanout::new([config.clone(), PipelineConfig::way(2)]);
            for e in &prefix {
                fanout.feed(*e);
            }
            trace.replay_into(times, &mut fanout);
            assert!(fanout.sims[0].extrapolated_invocations > 0);
            assert_eq!(fanout.finish()[0], stepped, "fan-out {config:?}");
        }
    }

    #[test]
    fn state_encoding_covers_the_cache_lines() {
        let encode = |sim: &PipelineSim| {
            let mut out = Vec::new();
            sim.encode_state(&sim.renamer, &mut out);
            out
        };
        let cold = PipelineSim::new(PipelineConfig::way_with_memory(4, MemoryModel::CACHE));
        let mut warm = cold.clone();
        let cache = warm.dcache.as_mut().expect("a cache configuration");
        cache.access(&MemAccess::unit(0x40, 8, false));
        cache.reset_stats();
        assert_ne!(
            encode(&cold),
            encode(&warm),
            "the tags are part of the state"
        );
    }

    #[test]
    fn short_replays_are_only_stepped() {
        let trace = periodic_invocation();
        let mut sim = PipelineSim::new(PipelineConfig::way(4));
        trace.replay_into(MIN_REPEATS - 1, &mut sim);
        assert_eq!(sim.extrapolated_invocations, 0);
    }

    #[test]
    fn empty_trace() {
        let r = sim(4, vec![]);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn empty_stream_finishes_at_cycle_zero() {
        let r = PipelineSim::new(PipelineConfig::way(4)).finish();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn incremental_feed_matches_batch_simulate() {
        // A mixed trace with dependences, memory and matrix instructions.
        let mut entries = Vec::new();
        for i in 0..100u8 {
            entries.push(entry(add(i % 8, (i + 1) % 8, (i + 2) % 8), 1));
            if i % 3 == 0 {
                entries.push(entry(load(i % 8, 30), 1));
            }
            if i % 7 == 0 {
                entries.push(entry(
                    Instruction::MomOp {
                        op: PackedOp::Add(Overflow::Wrap),
                        ty: ElemType::U8,
                        md: 0,
                        ma: 1,
                        mb: MomOperand::Mat(2),
                    },
                    (i % 16 + 1) as u16,
                ));
            }
        }
        for width in [1, 2, 4, 8] {
            let trace: Trace = entries.iter().copied().collect();
            let batch = Pipeline::new(PipelineConfig::way(width)).simulate(&trace);
            let mut streaming = PipelineSim::new(PipelineConfig::way(width));
            for e in &entries {
                streaming.feed(*e);
            }
            let streamed = streaming.finish();
            assert_eq!(batch.cycles, streamed.cycles, "width {width}");
            assert_eq!(batch.instructions, streamed.instructions);
            assert_eq!(batch.operations, streamed.operations);
            assert_eq!(batch.max_rob_occupancy, streamed.max_rob_occupancy);
            assert_eq!(batch.dispatch_stall_cycles, streamed.dispatch_stall_cycles);
            assert_eq!(batch.fu_busy_cycles, streamed.fu_busy_cycles);
        }
    }

    #[test]
    fn pending_buffer_stays_below_one_fetch_group() {
        let mut sim = PipelineSim::new(PipelineConfig::way(4));
        for i in 0..1000u32 {
            sim.feed(entry(add((i % 16) as u8, 20, 21), 1));
            assert!(sim.pending_len() < 4, "pending must stay bounded");
            assert!(sim.window_len() <= sim.config.rob_size);
            assert!(
                sim.store_queue.len() <= sim.window_len(),
                "the store queue only holds window entries"
            );
        }
        let r = sim.finish();
        assert_eq!(r.instructions, 1000);
    }

    #[test]
    fn fanout_matches_individual_runs() {
        let entries: Vec<TraceEntry> = (0..64)
            .map(|i| entry(add((i % 8) as u8, 20, 21), 1))
            .collect();
        let mut fanout = PipelineFanout::new([1, 2, 4, 8].map(PipelineConfig::way));
        for e in &entries {
            fanout.feed(*e);
        }
        let results = fanout.finish();
        let trace: Trace = entries.into_iter().collect();
        for (width, got) in [1usize, 2, 4, 8].into_iter().zip(&results) {
            let alone = Pipeline::new(PipelineConfig::way(width)).simulate(&trace);
            assert_eq!(alone.cycles, got.cycles, "width {width}");
            assert_eq!(alone.instructions, got.instructions, "width {width}");
        }
    }

    #[test]
    fn dependent_chain_runs_at_one_per_cycle() {
        // r1 = r1 + r1, 64 times: a serial chain.
        let n = 64;
        let entries = vec![entry(add(1, 1, 1), 1); n];
        let r = sim(8, entries);
        assert_eq!(r.instructions, n as u64);
        // One add per cycle plus a small pipeline fill overhead.
        assert!(r.cycles >= n as u64, "cycles {} < {}", r.cycles, n);
        assert!(r.cycles <= n as u64 + 8, "chain too slow: {}", r.cycles);
    }

    #[test]
    fn independent_adds_scale_with_width() {
        // 256 fully independent adds (different destination registers,
        // sources never written).
        let entries: Vec<TraceEntry> = (0..256)
            .map(|i| entry(add((i % 16) as u8, 20, 21), 1))
            .collect();
        let narrow = sim(1, entries.clone());
        let wide = sim(8, entries);
        assert!(
            narrow.cycles > 2 * wide.cycles,
            "8-way ({}) should be much faster than 1-way ({})",
            wide.cycles,
            narrow.cycles
        );
        assert!(wide.ipc() > 3.0, "8-way IPC too low: {}", wide.ipc());
        assert!(narrow.ipc() <= 1.01);
    }

    #[test]
    fn memory_latency_hurts_dependent_loads() {
        // Pointer chase: each load feeds the next address.
        let n = 32;
        let entries = vec![entry(load(1, 1), 1); n];
        let fast = sim_mem(4, 1, entries.clone());
        let slow = sim_mem(4, 50, entries);
        assert!(
            slow.cycles > 40 * fast.cycles / 2,
            "50-cycle latency must dominate a pointer chase: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn independent_loads_are_pipelined_through_the_ports() {
        // Independent loads to different registers: the window and the two
        // ports let latency overlap, so the slowdown from latency 1 to 50 is
        // far less than 50x.
        let entries: Vec<TraceEntry> = (0..256)
            .map(|i| entry(load((i % 8) as u8, 30), 1))
            .collect();
        let fast = sim_mem(4, 1, entries.clone());
        let slow = sim_mem(4, 50, entries);
        let slowdown = slow.cycles as f64 / fast.cycles as f64;
        assert!(
            slowdown < 10.0,
            "independent loads should hide latency, slowdown {slowdown}"
        );
        assert!(slowdown > 1.0);
    }

    #[test]
    fn matrix_instruction_occupies_lanes_for_vl_cycles() {
        // One MOM add of VL=16 on a 2-lane unit: occupancy 8 cycles.
        let mom_add = Instruction::MomOp {
            op: PackedOp::Add(Overflow::Wrap),
            ty: ElemType::U8,
            md: 0,
            ma: 1,
            mb: MomOperand::Mat(2),
        };
        let r16 = sim(4, vec![entry(mom_add, 16)]);
        let r4 = sim(4, vec![entry(mom_add, 4)]);
        assert!(r16.cycles > r4.cycles, "longer vectors must take longer");
        assert_eq!(r16.operations, 128);
        assert_eq!(r4.operations, 32);
    }

    #[test]
    fn mdmx_accumulator_recurrence_serialises() {
        // 32 accumulate steps on the same accumulator: the read-modify-write
        // dependence forces them to execute back to back at the multiplier
        // latency (3 cycles each).
        let acc_step = Instruction::AccStep {
            op: AccumOp::MulAdd,
            ty: ElemType::I16,
            acc: 0,
            va: 1,
            vb: 2,
        };
        let r = sim(8, vec![entry(acc_step, 1); 32]);
        assert!(
            r.cycles >= 32 * 3,
            "accumulator recurrence must serialise at the multiply latency, got {}",
            r.cycles
        );
    }

    #[test]
    fn mom_accumulator_amortises_the_recurrence() {
        // The same 32 x 4-lane multiply-accumulate work expressed as two
        // MOM matrix accumulate instructions of VL=16 finishes much sooner
        // than 32 chained MDMX steps.
        let mdmx_step = Instruction::AccStep {
            op: AccumOp::MulAdd,
            ty: ElemType::I16,
            acc: 0,
            va: 1,
            vb: 2,
        };
        let mom_step = Instruction::MomAccStep {
            op: AccumOp::MulAdd,
            ty: ElemType::I16,
            acc: 0,
            ma: 1,
            mb: MomOperand::Mat(2),
        };
        let mdmx = sim(4, vec![entry(mdmx_step, 1); 32]);
        let mom = sim(4, vec![entry(mom_step, 16); 2]);
        assert_eq!(mdmx.operations, mom.operations);
        assert!(
            mom.cycles * 2 < mdmx.cycles,
            "MOM ({}) must amortise the accumulator recurrence vs MDMX ({})",
            mom.cycles,
            mdmx.cycles
        );
    }

    #[test]
    fn vector_load_amortises_memory_latency() {
        // 16 rows loaded by one MOM load vs 16 dependent-free MMX loads,
        // with 50-cycle memory: the matrix load pays the latency once.
        let mom_load = Instruction::MomLoad {
            md: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        let mmx_load = |vd: u8| Instruction::MmxLoad {
            vd,
            base: 1,
            offset: 0,
            ty: ElemType::U8,
        };
        // Give the scalar version a dependent consumer after each load to
        // model a typical use, and the MOM version a single consumer.
        let mut mmx_entries = Vec::new();
        for i in 0..16u8 {
            mmx_entries.push(entry(mmx_load(i % 8), 1));
        }
        let mom_entries = vec![entry(mom_load, 16)];
        let mmx = sim_mem(1, 50, mmx_entries);
        let mom = sim_mem(1, 50, mom_entries);
        assert_eq!(mmx.operations, mom.operations);
        assert!(
            mom.cycles < mmx.cycles,
            "a single strided matrix load ({}) must not be slower than 16 scalar packed loads ({}) on a narrow machine",
            mom.cycles,
            mmx.cycles
        );
    }

    #[test]
    fn rob_pressure_is_reported() {
        // A long-latency load at the head blocks commit; the window fills up
        // and dispatch stalls.
        let mut entries = vec![entry(load(1, 1), 1)];
        for _ in 0..300 {
            entries.push(entry(add(2, 2, 2), 1));
        }
        let r = sim_mem(4, 50, entries);
        assert!(r.max_rob_occupancy >= 32);
        assert!(r.dispatch_stall_cycles > 0);
    }

    #[test]
    fn transpose_unit_is_not_pipelined() {
        // Four back-to-back transposes on different registers (no data
        // dependence): a non-pipelined 10-cycle unit serialises them.
        let entries = vec![
            entry(
                Instruction::MomTranspose {
                    md: 0,
                    ms: 4,
                    ty: ElemType::U8,
                },
                1,
            ),
            entry(
                Instruction::MomTranspose {
                    md: 1,
                    ms: 5,
                    ty: ElemType::U8,
                },
                1,
            ),
            entry(
                Instruction::MomTranspose {
                    md: 2,
                    ms: 6,
                    ty: ElemType::U8,
                },
                1,
            ),
            entry(
                Instruction::MomTranspose {
                    md: 3,
                    ms: 7,
                    ty: ElemType::U8,
                },
                1,
            ),
        ];
        let r = sim(4, entries);
        assert!(
            r.cycles >= 4 * 10,
            "four non-pipelined transposes must serialise: {}",
            r.cycles
        );
    }

    #[test]
    fn transpose_latency_is_not_double_counted() {
        // A single transpose on an idle machine: issue + 10-cycle latency +
        // commit.  Before the occupancy fix the completion time was
        // `latency + occupancy - 1 = 19` cycles after issue — charging the
        // pool latency twice.
        let r = sim(
            4,
            vec![entry(
                Instruction::MomTranspose {
                    md: 0,
                    ms: 4,
                    ty: ElemType::U8,
                },
                1,
            )],
        );
        assert!(
            r.cycles >= 10 && r.cycles <= 14,
            "one transpose must take ~latency cycles, got {}",
            r.cycles
        );
    }

    #[test]
    fn vec_mem_occupancy_follows_traced_bytes() {
        // A 16-row matrix load moves 128 bytes; the 2-word (16-byte) port
        // needs 8 cycles whether the size comes from the metadata or from
        // the VL fallback.
        let mom_load = Instruction::MomLoad {
            md: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        let with_meta = sim(
            4,
            vec![entry_at(
                mom_load,
                16,
                MemAccess::strided(0x100, 8, 16, 8, false),
            )],
        );
        let without = sim(4, vec![entry(mom_load, 16)]);
        assert_eq!(with_meta.fu_busy_cycles[&FuClass::VecMem], 8);
        assert_eq!(without.fu_busy_cycles[&FuClass::VecMem], 8);
        assert_eq!(with_meta.cycles, without.cycles);
    }

    #[test]
    fn load_stalls_behind_older_overlapping_store() {
        // r1 <- mem (50 cycles), store r1 -> 0x100, load <- 0x100.
        // The final load overlaps the store and must wait for it; a load
        // from a disjoint address may issue around it.
        let chain = |load_addr: u64| {
            vec![
                entry_at(load(1, 10), 1, MemAccess::unit(0x500, 8, false)),
                entry_at(store(1, 11), 1, MemAccess::unit(0x100, 8, true)),
                entry_at(load(3, 12), 1, MemAccess::unit(load_addr, 8, false)),
            ]
        };
        let overlapping = sim_mem(4, 50, chain(0x100));
        let disjoint = sim_mem(4, 50, chain(0x200));
        assert!(
            overlapping.cycles >= disjoint.cycles + 40,
            "overlapping load ({}) must serialise behind the store ({})",
            overlapping.cycles,
            disjoint.cycles
        );
    }

    #[test]
    fn load_stalls_behind_older_unknown_address_store() {
        // The same chain, but the store carries no address metadata: the
        // load must conservatively wait even though its own address is known.
        let chain = |store_mem: Option<MemAccess>| {
            vec![
                entry_at(load(1, 10), 1, MemAccess::unit(0x500, 8, false)),
                TraceEntry {
                    instr: store(1, 11),
                    vl: 1,
                    taken: false,
                    mem: store_mem,
                },
                entry_at(load(3, 12), 1, MemAccess::unit(0x200, 8, false)),
            ]
        };
        let unknown = sim_mem(4, 50, chain(None));
        let known_disjoint = sim_mem(4, 50, chain(Some(MemAccess::unit(0x100, 8, true))));
        assert!(
            unknown.cycles >= known_disjoint.cycles + 40,
            "an unknown-address store must block younger loads ({} vs {})",
            unknown.cycles,
            known_disjoint.cycles
        );
    }

    // -----------------------------------------------------------------
    // Directed regressions for the store-address queue: the three memory
    // ordering shapes must match the retained naive engine cycle-for-cycle
    // (the queue is an indexing change, not a policy change).
    // -----------------------------------------------------------------

    /// The three-instruction shapes the store queue decides: a producing
    /// load, a (possibly unknown-address) store depending on it, and a
    /// younger independent load that may or may not conflict.
    fn ordering_chain(store_mem: Option<MemAccess>, load_addr: u64) -> Vec<TraceEntry> {
        vec![
            entry_at(load(1, 10), 1, MemAccess::unit(0x500, 8, false)),
            TraceEntry {
                instr: store(1, 11),
                vl: 1,
                taken: false,
                mem: store_mem,
            },
            entry_at(load(3, 12), 1, MemAccess::unit(load_addr, 8, false)),
        ]
    }

    #[test]
    fn store_queue_stalls_load_behind_unknown_address_store() {
        let entries = ordering_chain(None, 0x200);
        for (width, latency) in [(1, 50), (4, 50), (8, 12)] {
            let optimized = sim_mem(width, latency, entries.clone());
            let reference = sim_reference(width, latency, &entries);
            assert_eq!(
                optimized.cycles, reference.cycles,
                "unknown-address stall, width {width}, latency {latency}"
            );
            assert!(
                optimized.cycles > 2 * latency,
                "the load must serialise behind the whole chain: {}",
                optimized.cycles
            );
        }
    }

    #[test]
    fn store_queue_stalls_load_behind_overlapping_store() {
        let entries = ordering_chain(Some(MemAccess::unit(0x100, 8, true)), 0x100);
        for (width, latency) in [(1, 50), (4, 50), (8, 12)] {
            let optimized = sim_mem(width, latency, entries.clone());
            let reference = sim_reference(width, latency, &entries);
            assert_eq!(
                optimized.cycles, reference.cycles,
                "overlapping stall, width {width}, latency {latency}"
            );
            assert!(
                optimized.cycles > 2 * latency,
                "the overlapping load must wait for the store: {}",
                optimized.cycles
            );
        }
    }

    #[test]
    fn store_queue_passes_disjoint_load_through() {
        let blocked = ordering_chain(Some(MemAccess::unit(0x100, 8, true)), 0x100);
        let disjoint = ordering_chain(Some(MemAccess::unit(0x100, 8, true)), 0x200);
        for (width, latency) in [(1, 50), (4, 50), (8, 12)] {
            let optimized = sim_mem(width, latency, disjoint.clone());
            let reference = sim_reference(width, latency, &disjoint);
            assert_eq!(
                optimized.cycles, reference.cycles,
                "disjoint pass-through, width {width}, latency {latency}"
            );
            assert!(
                optimized.cycles + latency / 2 <= sim_mem(width, latency, blocked.clone()).cycles,
                "a provably disjoint load must issue around the store"
            );
        }
    }

    #[test]
    fn store_queue_handles_interleaved_stores_and_loads() {
        // Several in-flight stores at once, some overlapping the probing
        // loads and some not, with an unknown-address store in the middle —
        // exercised across every width against the reference engine.
        let mut entries = Vec::new();
        for i in 0..8u8 {
            entries.push(entry_at(
                load(1, 10),
                1,
                MemAccess::unit(0x1000 + i as u64 * 64, 8, false),
            ));
            entries.push(entry_at(
                store(1, 11),
                1,
                MemAccess::unit(0x100 + i as u64 * 16, 8, true),
            ));
            if i % 3 == 2 {
                entries.push(entry(store(1, 12), 1)); // unknown address
            }
            entries.push(entry_at(
                load(3, 12),
                1,
                MemAccess::unit(
                    if i % 2 == 0 {
                        0x100 + i as u64 * 16
                    } else {
                        0x4000
                    },
                    8,
                    false,
                ),
            ));
        }
        for width in [1, 2, 4, 8] {
            let optimized = sim_mem(width, 50, entries.clone());
            let reference = sim_reference(width, 50, &entries);
            assert_eq!(optimized.cycles, reference.cycles, "width {width}");
            assert_eq!(
                optimized.dispatch_stall_cycles,
                reference.dispatch_stall_cycles
            );
            assert_eq!(optimized.max_rob_occupancy, reference.max_rob_occupancy);
        }
    }

    #[test]
    fn widest_arity_instruction_renames_without_panicking() {
        // MomStore reads four registers (matrix, base, stride, VL); write
        // all four first so every source has a producer.
        let mut sim = PipelineSim::new(PipelineConfig::way(4));
        sim.feed(entry(Instruction::Li { rd: 1, imm: 0x100 }, 1));
        sim.feed(entry(Instruction::Li { rd: 2, imm: 8 }, 1));
        sim.feed(entry(Instruction::SetVlImm { vl: 8 }, 1));
        sim.feed(entry(
            Instruction::MomLoad {
                md: 0,
                base: 1,
                stride: 2,
                ty: ElemType::U8,
            },
            8,
        ));
        let mom_store = Instruction::MomStore {
            ms: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        assert_eq!(mom_store.sources().len(), 4, "widest-arity instruction");
        sim.feed(entry(mom_store, 8));
        let r = sim.finish();
        assert_eq!(r.instructions, 5);
    }

    #[test]
    fn hierarchy_charges_misses_then_hits() {
        let cfg = PipelineConfig::way_with_memory(4, MemoryModel::CACHE);
        let trace: Trace = vec![
            entry_at(load(1, 10), 1, MemAccess::unit(0x1000, 8, false)),
            entry_at(load(2, 10), 1, MemAccess::unit(0x1000, 8, false)),
        ]
        .into_iter()
        .collect();
        let r = Pipeline::new(cfg).simulate(&trace);
        assert_eq!(r.cache.l1_misses, 1, "cold miss");
        assert_eq!(r.cache.l2_misses, 1);
        assert_eq!(r.cache.l1_hits, 1, "second access hits the filled line");
        // The cold miss pays the full 1+12+50 chain.
        assert!(r.cycles > 60, "cold miss must dominate: {}", r.cycles);
        // A fixed 1-cycle model records no cache activity.
        let fixed = sim_mem(4, 1, vec![entry(load(1, 10), 1)]);
        assert_eq!(fixed.cache, Default::default());
    }

    #[test]
    fn zero_miss_cost_hierarchy_degenerates_to_fixed() {
        let mut h = HierarchyConfig::DEFAULT;
        h.l1.hit_latency = 5;
        h.l2.hit_latency = 0;
        h.memory_latency = 0;
        let entries = vec![
            entry_at(load(1, 10), 1, MemAccess::unit(0x500, 8, false)),
            entry(add(2, 1, 1), 1),
            entry_at(store(2, 11), 1, MemAccess::unit(0x100, 8, true)),
            entry_at(load(3, 12), 1, MemAccess::unit(0x100, 8, false)),
            entry(add(4, 3, 3), 1),
        ];
        let trace: Trace = entries.into_iter().collect();
        let hier = Pipeline::new(PipelineConfig::way_with_memory(
            4,
            MemoryModel::Hierarchy(h),
        ))
        .simulate(&trace);
        let fixed = Pipeline::new(PipelineConfig::way_with_memory(
            4,
            MemoryModel::Fixed { latency: 5 },
        ))
        .simulate(&trace);
        assert_eq!(hier.cycles, fixed.cycles);
        assert_eq!(hier.instructions, fixed.instructions);
        assert_eq!(hier.dispatch_stall_cycles, fixed.dispatch_stall_cycles);
    }

    #[test]
    fn into_parts_matches_finish_and_returns_the_cache() {
        let entries = vec![
            entry_at(load(1, 10), 1, MemAccess::unit(0x1000, 8, false)),
            entry(add(2, 1, 1), 1),
        ];
        let cfg = PipelineConfig::way_with_memory(4, MemoryModel::CACHE);
        let mut a = PipelineSim::new(cfg.clone());
        let mut b = PipelineSim::new(cfg);
        for e in &entries {
            a.feed(*e);
            b.feed(*e);
        }
        let finished = a.finish();
        let (result, cache) = b.into_parts();
        assert_eq!(finished.cycles, result.cycles);
        assert_eq!(finished.cache, result.cache);
        let cache = cache.expect("a hierarchy config must return its cache");
        assert_eq!(cache.stats, result.cache);
        // Fixed memory has no cache to hand over.
        let fixed = PipelineSim::new(PipelineConfig::way(4));
        assert!(fixed.into_parts().1.is_none());
    }

    #[test]
    fn resume_keeps_warm_lines_and_zeroes_phase_counters() {
        let probe = entry_at(load(1, 10), 1, MemAccess::unit(0x1000, 8, false));
        let cfg = PipelineConfig::way_with_memory(4, MemoryModel::CACHE);

        // Phase 1 takes the cold miss.
        let mut first = PipelineSim::new(cfg.clone());
        first.feed(probe);
        let (warm_up, cache) = first.into_parts();
        assert_eq!(warm_up.cache.l1_misses, 1);

        // Phase 2 resumes on the warm hierarchy: same access now hits L1,
        // and the phase's counters start from zero.
        let mut second = PipelineSim::resume(cfg.clone(), cache);
        second.feed(probe);
        let warm = second.finish();
        assert_eq!(warm.cache.l1_hits, 1, "warm line must hit");
        assert_eq!(warm.cache.l1_misses, 0, "phase counters are per-phase");
        assert!(
            warm.cycles < warm_up.cycles,
            "a warm phase ({}) must beat the cold one ({})",
            warm.cycles,
            warm_up.cycles
        );

        // A cold phase of the same stream pays the miss chain again.
        let mut cold = PipelineSim::resume(cfg, None);
        cold.feed(probe);
        assert_eq!(cold.finish().cache.l1_misses, 1);
    }

    #[test]
    fn resume_under_fixed_memory_ignores_the_warm_cache() {
        let probe = entry_at(load(1, 10), 1, MemAccess::unit(0x2000, 8, false));
        let mut donor = PipelineSim::new(PipelineConfig::way_with_memory(4, MemoryModel::CACHE));
        donor.feed(probe);
        let (_, cache) = donor.into_parts();

        let fixed_cfg = PipelineConfig::way_with_memory(4, MemoryModel::MAIN_MEMORY);
        let mut fresh = PipelineSim::new(fixed_cfg.clone());
        let mut resumed = PipelineSim::resume(fixed_cfg, cache);
        fresh.feed(probe);
        resumed.feed(probe);
        let fresh = fresh.finish();
        let resumed = resumed.finish();
        assert_eq!(fresh.cycles, resumed.cycles);
        assert_eq!(resumed.cache, Default::default());
    }

    #[test]
    fn stats_accumulate_media_and_memory_counts() {
        let mom_load = Instruction::MomLoad {
            md: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        let r = sim(4, vec![entry(mom_load, 8), entry(add(1, 2, 3), 1)]);
        assert_eq!(r.instructions, 2);
        assert_eq!(r.media_instructions, 1);
        assert_eq!(r.memory_instructions, 1);
        assert_eq!(r.operations, 64 + 1);
        assert!(r.fu_busy_cycles[&FuClass::VecMem] >= 4);
    }
}
