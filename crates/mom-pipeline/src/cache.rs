//! A two-level set-associative data-cache model driven by the effective
//! addresses the functional simulator records in the trace.
//!
//! The paper evaluates its ISAs under three *fixed* memory latencies (1, 12
//! and 50 cycles); this module adds the hardware-faithful alternative: an
//! L1/L2 hierarchy with LRU replacement and configurable geometry, simulated
//! in program (trace) order.  Each memory instruction walks every cache line
//! its [`MemAccess`] touches; the instruction is charged the **worst** line
//! latency (misses within one instruction overlap — the memory system is
//! pipelined), which is exactly how a strided MOM matrix load amortises main
//! memory latency over `VL` rows while `VL` scalar loads each risk paying it.
//!
//! Simulating the cache in trace order (at rename, not at issue) keeps the
//! incremental consumer deterministic: streaming one entry at a time is
//! bit-identical to batch replay, which the workspace's equivalence property
//! tests rely on.

use mom_arch::MemAccess;

/// Geometry and hit latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Latency of a hit in this level, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Validates the geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || self.ways == 0 {
            return Err("cache must have at least one set and one way".into());
        }
        if self.line_bytes == 0 {
            return Err("cache line size must be at least one byte".into());
        }
        Ok(())
    }
}

/// Configuration of the full L1/L2 hierarchy behind
/// [`crate::MemoryModel::Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level data cache.
    pub l1: CacheConfig,
    /// Second-level cache.
    pub l2: CacheConfig,
    /// Cycles added by an L2 miss (main-memory access time).
    pub memory_latency: u64,
}

impl HierarchyConfig {
    /// The default hierarchy used by the "real cache" experiments: a small
    /// 4 KiB / 2-way / 32 B-line L1 (1-cycle hits), a 128 KiB / 4-way /
    /// 64 B-line L2 (12-cycle hits) and 50-cycle main memory — the paper's
    /// three latency points, realised as actual levels.
    pub const DEFAULT: HierarchyConfig = HierarchyConfig {
        l1: CacheConfig {
            sets: 64,
            ways: 2,
            line_bytes: 32,
            hit_latency: 1,
        },
        l2: CacheConfig {
            sets: 512,
            ways: 4,
            line_bytes: 64,
            hit_latency: 12,
        },
        memory_latency: 50,
    };

    /// Validates both levels.
    pub fn validate(&self) -> Result<(), String> {
        self.l1.validate().map_err(|e| format!("L1: {e}"))?;
        self.l2.validate().map_err(|e| format!("L2: {e}"))?;
        Ok(())
    }
}

/// Hit/miss counters of a simulated hierarchy, accumulated per cache line
/// touched (a strided matrix access touching `N` lines counts `N` lookups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 lookups that hit.
    pub l1_hits: u64,
    /// L1 lookups that missed (and therefore looked up L2).
    pub l1_misses: u64,
    /// L2 lookups that hit.
    pub l2_hits: u64,
    /// L2 lookups that missed (and therefore went to main memory).
    pub l2_misses: u64,
}

impl CacheStats {
    /// Total L1 lookups.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
    }
}

/// Runtime state of one level: every set's tags in LRU order (front =
/// most recently used), in one flat `sets × ways` array.
#[derive(Debug, Clone)]
struct CacheLevel {
    config: CacheConfig,
    /// `log2(line_bytes)` when the line size is a power of two, so the
    /// per-lookup division becomes a shift (every realistic geometry,
    /// including the default hierarchy).
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two, so the per-lookup
    /// modulo becomes a mask.
    set_mask: Option<u64>,
    /// Set `s` holds its lines in `tags[s * ways..][..filled[s]]`, most
    /// recently used first.
    tags: Vec<u64>,
    /// Lines held per set.
    filled: Vec<u32>,
}

impl CacheLevel {
    fn new(config: CacheConfig) -> CacheLevel {
        CacheLevel {
            config,
            line_shift: config
                .line_bytes
                .is_power_of_two()
                .then(|| config.line_bytes.trailing_zeros()),
            set_mask: config
                .sets
                .is_power_of_two()
                .then(|| config.sets as u64 - 1),
            tags: vec![0; config.sets * config.ways],
            filled: vec![0; config.sets],
        }
    }

    /// The line index containing a byte address.
    fn line_of(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_bytes,
        }
    }

    /// Looks up the line containing `addr`, filling it on a miss and
    /// updating LRU order. Returns whether the lookup hit.
    fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set_index = match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.config.sets as u64) as usize,
        };
        let ways = self.config.ways;
        let filled = self.filled[set_index] as usize;
        let set = &mut self.tags[set_index * ways..][..ways];
        if let Some(pos) = set[..filled].iter().position(|&tag| tag == line) {
            // Hit: move the line to the front, keeping the others' order.
            set[..=pos].rotate_right(1);
            true
        } else {
            // Miss: the line enters at the front; a full set loses its
            // least recently used line off the back.
            let filled = (filled + 1).min(ways);
            self.filled[set_index] = filled as u32;
            set[..filled].rotate_right(1);
            set[0] = line;
            false
        }
    }
}

/// The simulated L1/L2 data-cache hierarchy owned by one timing consumer.
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: CacheLevel,
    l2: CacheLevel,
    memory_latency: u64,
    /// Accumulated hit/miss counters.
    pub stats: CacheStats,
}

impl CacheSim {
    /// Creates a cold hierarchy.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: HierarchyConfig) -> CacheSim {
        config.validate().expect("invalid cache hierarchy");
        CacheSim {
            l1: CacheLevel::new(config.l1),
            l2: CacheLevel::new(config.l2),
            memory_latency: config.memory_latency,
            stats: CacheStats::default(),
        }
    }

    /// The geometry and latencies this hierarchy was built with.
    pub fn config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1: self.l1.config,
            l2: self.l2.config,
            memory_latency: self.memory_latency,
        }
    }

    /// Zeroes the hit/miss counters while keeping every cached line — how a
    /// multi-phase run starts a new phase's accounting on a warm hierarchy.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Appends the line state of both levels — every set's tags in LRU
    /// order — to `out`: the part of the hierarchy a steady-state
    /// comparison must find equal (the counters only accumulate).
    pub(crate) fn encode_lines(&self, out: &mut Vec<u64>) {
        for level in [&self.l1, &self.l2] {
            let sets = level.tags.chunks_exact(level.config.ways);
            for (set, &filled) in sets.zip(&level.filled) {
                out.push(filled as u64);
                out.extend_from_slice(&set[..filled as usize]);
            }
        }
    }

    /// The latency of an access that hits in L1 (also charged to memory
    /// instructions whose trace entry carries no address metadata).
    pub fn hit_latency(&self) -> u64 {
        self.l1.config.hit_latency
    }

    /// Simulates one L1-line lookup (walking into L2 and memory on misses)
    /// and returns its latency.
    fn access_line(&mut self, addr: u64) -> u64 {
        let mut latency = self.l1.config.hit_latency;
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return latency;
        }
        self.stats.l1_misses += 1;
        latency += self.l2.config.hit_latency;
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            return latency;
        }
        self.stats.l2_misses += 1;
        latency + self.memory_latency
    }

    /// Simulates every cache line touched by one memory instruction and
    /// returns the latency to charge it: the worst line latency, since the
    /// lines of a single (possibly strided) access are fetched in a
    /// pipelined fashion and overlap.
    pub fn access(&mut self, access: &MemAccess) -> u64 {
        let line = self.l1.config.line_bytes;
        let mut worst = self.l1.config.hit_latency;
        for row in 0..access.rows.max(1) {
            let start = access.row_addr(row);
            let span = access.row_bytes.max(1) as u64 - 1;
            match start.checked_add(span) {
                // Fast path: the row lies inside the 64-bit address space,
                // so the whole line walk stays in u64 (and the line-start
                // rounding is a single shift for power-of-two lines).
                Some(end) => {
                    let mut line_addr = self.l1.line_of(start) * line;
                    loop {
                        worst = worst.max(self.access_line(line_addr));
                        match line_addr.checked_add(line) {
                            Some(next) if next <= end => line_addr = next,
                            _ => break,
                        }
                    }
                }
                // A row starting near u64::MAX (e.g. a negative-stride
                // access that wrapped): do the walk in u128 so the
                // line-address arithmetic cannot overflow.  Truncating back
                // to u64 keeps the modular address space consistent with
                // `MemAccess::row_addr`.
                None => {
                    let line = line as u128;
                    let start = start as u128;
                    let end = start + span as u128;
                    let mut line_addr = start - start % line;
                    while line_addr <= end {
                        worst = worst.max(self.access_line(line_addr as u64));
                        line_addr += line;
                    }
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                sets: 4,
                ways: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l2: CacheConfig {
                sets: 16,
                ways: 4,
                line_bytes: 64,
                hit_latency: 12,
            },
            memory_latency: 50,
        }
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut sim = CacheSim::new(tiny());
        let a = MemAccess::unit(0x1000, 8, false);
        // Cold: misses both levels, pays the full chain.
        assert_eq!(sim.access(&a), 1 + 12 + 50);
        assert_eq!(sim.stats.l1_misses, 1);
        assert_eq!(sim.stats.l2_misses, 1);
        // Warm: L1 hit.
        assert_eq!(sim.access(&a), 1);
        assert_eq!(sim.stats.l1_hits, 1);
        // A neighbour in the same line also hits.
        assert_eq!(sim.access(&MemAccess::unit(0x1010, 8, false)), 1);
        assert_eq!(sim.stats.l1_hits, 2);
    }

    #[test]
    fn l2_catches_l1_conflict_evictions() {
        let mut sim = CacheSim::new(tiny());
        let cfg = tiny();
        // Three lines mapping to the same L1 set (set stride = sets * line).
        let set_stride = cfg.l1.sets as u64 * cfg.l1.line_bytes;
        let lines = [0x0u64, set_stride, 2 * set_stride];
        for &a in &lines {
            sim.access(&MemAccess::unit(a, 8, false));
        }
        // 2-way L1: line 0 was evicted, but it still sits in the bigger L2.
        assert_eq!(sim.access(&MemAccess::unit(lines[0], 8, false)), 1 + 12);
        assert_eq!(sim.stats.l1_misses, 4);
        assert_eq!(sim.stats.l2_hits, 1);
        assert_eq!(sim.stats.l2_misses, 3);
    }

    #[test]
    fn lru_keeps_the_recently_used_line() {
        let mut sim = CacheSim::new(tiny());
        let cfg = tiny();
        let set_stride = cfg.l1.sets as u64 * cfg.l1.line_bytes;
        let (a, b, c) = (0x0u64, set_stride, 2 * set_stride);
        let unit = |addr| MemAccess::unit(addr, 8, false);
        sim.access(&unit(a)); // miss, LRU: [a]
        sim.access(&unit(b)); // miss, LRU: [b, a]
        sim.access(&unit(a)); // hit,  LRU: [a, b]
        sim.access(&unit(c)); // miss, evicts b (least recent)
        let hits_before = sim.stats.l1_hits;
        sim.access(&unit(a));
        assert_eq!(sim.stats.l1_hits, hits_before + 1, "a must have survived");
        sim.access(&unit(b));
        assert_eq!(
            sim.stats.l1_hits,
            hits_before + 1,
            "b must have been evicted"
        );
    }

    #[test]
    fn strided_access_touches_one_line_per_row() {
        let mut sim = CacheSim::new(tiny());
        // 16 rows of 8 bytes, 384 bytes apart: 16 distinct lines, all cold.
        let a = MemAccess::strided(0x0, 8, 16, 384, false);
        let latency = sim.access(&a);
        assert_eq!(sim.stats.l1_accesses(), 16);
        assert_eq!(sim.stats.l1_misses, 16);
        // The misses overlap: one worst-case chain, not 16 of them.
        assert_eq!(latency, 1 + 12 + 50);
        // Second pass: every row hits in L1 (capacity 4*2 lines is too small
        // for 16 lines... so the early rows were evicted and only the tail
        // survives; L2 (64 lines) holds them all).
        let warm = sim.access(&a);
        assert!(warm <= 1 + 12, "warm strided pass must at worst hit L2");
    }

    #[test]
    fn unaligned_access_straddles_two_lines() {
        let mut sim = CacheSim::new(tiny());
        // 8 bytes starting 4 bytes before a line boundary: two lookups.
        sim.access(&MemAccess::unit(32 - 4, 8, false));
        assert_eq!(sim.stats.l1_accesses(), 2);
    }

    #[test]
    fn zero_miss_cost_hierarchy_charges_flat_latency() {
        let mut cfg = tiny();
        cfg.l1.hit_latency = 7;
        cfg.l2.hit_latency = 0;
        cfg.memory_latency = 0;
        let mut sim = CacheSim::new(cfg);
        for addr in (0..4096u64).step_by(96) {
            assert_eq!(sim.access(&MemAccess::unit(addr, 8, false)), 7);
        }
    }

    #[test]
    fn accesses_near_the_address_space_edge_terminate() {
        // A negative-stride access whose later rows wrap around zero, and a
        // row starting at the very top of the address space: both must walk
        // a bounded number of lines (no overflow panic, no wrapped loop).
        let mut sim = CacheSim::new(tiny());
        sim.access(&MemAccess::strided(0, 8, 2, -32, false));
        sim.access(&MemAccess::unit(u64::MAX - 3, 8, true));
        assert!(sim.stats.l1_accesses() <= 5, "bounded line walk");
    }

    #[test]
    fn strided_rows_straddle_a_set_boundary() {
        let mut sim = CacheSim::new(tiny());
        let cfg = tiny();
        // Each 40-byte row starts 16 bytes before a line boundary, so every
        // row spans two consecutive lines — which live in two *consecutive
        // sets* (line index mod sets).  4 rows ⇒ 8 line lookups, all cold.
        let line = cfg.l1.line_bytes;
        let a = MemAccess::strided(line - 16, 40, 4, 2 * line as i64, false);
        sim.access(&a);
        assert_eq!(sim.stats.l1_accesses(), 8);
        assert_eq!(sim.stats.l1_misses, 8);
        // The 8 lines span both halves of each straddled boundary; a second
        // pass hits every one of them in L1 (8 lines fit the 4-set × 2-way
        // cache exactly).
        assert_eq!(sim.access(&a), cfg.l1.hit_latency);
        assert_eq!(sim.stats.l1_hits, 8);
    }

    #[test]
    fn same_set_aliasing_thrashes_l1_but_not_l2() {
        let mut sim = CacheSim::new(tiny());
        let cfg = tiny();
        // A strided access whose stride equals the L1 set stride: all four
        // rows alias into the *same* L1 set.  With 2 ways, LRU evicts the
        // first rows as the later ones arrive.
        let set_stride = cfg.l1.sets as u64 * cfg.l1.line_bytes;
        let a = MemAccess::strided(0, 8, 4, set_stride as i64, false);
        sim.access(&a);
        assert_eq!(sim.stats.l1_misses, 4, "cold pass misses every row");
        // Replaying the same pattern thrashes: row i always evicted by the
        // time it comes around again (LRU keeps only the last two rows, and
        // the replay starts from the first).
        sim.access(&a);
        assert_eq!(sim.stats.l1_hits, 0, "L1 aliasing defeats every reuse");
        assert_eq!(sim.stats.l1_misses, 8);
        // The same four lines do not alias in the larger L2 (different set
        // count and line size), so the second pass is caught there.
        assert_eq!(sim.stats.l2_hits, 4);
        assert_eq!(sim.stats.l2_misses, 4);
    }

    #[test]
    fn access_wider_than_the_line_size_walks_every_line() {
        let mut sim = CacheSim::new(tiny());
        let cfg = tiny();
        // One aligned 96-byte row = three full 32-byte lines...
        sim.access(&MemAccess::unit(0, 3 * cfg.l1.line_bytes as u32, false));
        assert_eq!(sim.stats.l1_accesses(), 3);
        // ...and misaligning the same width by one byte touches a fourth.
        let mut sim = CacheSim::new(tiny());
        sim.access(&MemAccess::unit(1, 3 * cfg.l1.line_bytes as u32, false));
        assert_eq!(sim.stats.l1_accesses(), 4);
        // The charged latency is still one worst-case chain, not a sum.
        let mut sim = CacheSim::new(tiny());
        let latency = sim.access(&MemAccess::unit(0, 3 * cfg.l1.line_bytes as u32, false));
        assert_eq!(latency, 1 + 12 + 50);
    }

    /// A hierarchy whose L1 has four 4-way sets of 32-byte lines.
    fn four_way() -> HierarchyConfig {
        let mut cfg = tiny();
        cfg.l1.ways = 4;
        cfg
    }

    /// The L1 part of [`CacheSim::encode_lines`]: per set, the fill count
    /// and then the line indices, most recently used first.
    fn l1_lines(sim: &CacheSim) -> Vec<u64> {
        let mut out = Vec::new();
        sim.encode_lines(&mut out);
        let l1_sets = sim.config().l1.sets;
        let mut end = 0;
        for _ in 0..l1_sets {
            end += 1 + out[end] as usize;
        }
        out.truncate(end);
        out
    }

    #[test]
    fn four_way_set_keeps_lru_order() {
        let mut sim = CacheSim::new(four_way());
        let cfg = four_way();
        // Lines 0, 4, 8, 12 and 16 all map to L1 set 0.
        let set_stride = cfg.l1.sets as u64 * cfg.l1.line_bytes;
        let access = |sim: &mut CacheSim, line: u64| {
            sim.access(&MemAccess::unit(line / 4 * set_stride, 8, false))
        };
        for line in [0, 4, 8, 12] {
            access(&mut sim, line);
        }
        assert_eq!(l1_lines(&sim), [4, 12, 8, 4, 0, 0, 0, 0]);
        // A hit on a middle line moves it to the front, the others keep
        // their order.
        access(&mut sim, 4);
        assert_eq!(sim.stats.l1_hits, 1);
        assert_eq!(l1_lines(&sim), [4, 4, 12, 8, 0, 0, 0, 0]);
        // A miss on the full set evicts the least recently used line.
        access(&mut sim, 16);
        assert_eq!(sim.stats.l1_misses, 5);
        assert_eq!(l1_lines(&sim), [4, 16, 4, 12, 8, 0, 0, 0]);
        // Another set fills independently.
        sim.access(&MemAccess::unit(cfg.l1.line_bytes, 8, false));
        assert_eq!(l1_lines(&sim), [4, 16, 4, 12, 8, 1, 1, 0, 0]);
        // The evicted line misses again and takes the LRU slot's place.
        access(&mut sim, 0);
        assert_eq!(sim.stats.l1_misses, 7);
        assert_eq!(l1_lines(&sim), [4, 0, 16, 4, 12, 1, 1, 0, 0]);
    }

    #[test]
    fn validation_rejects_degenerate_geometry() {
        let mut cfg = tiny();
        cfg.l1.ways = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny();
        cfg.l2.line_bytes = 0;
        assert!(cfg.validate().is_err());
        assert!(HierarchyConfig::DEFAULT.validate().is_ok());
        assert_eq!(HierarchyConfig::DEFAULT.l1.capacity(), 4 * 1024);
        assert_eq!(HierarchyConfig::DEFAULT.l2.capacity(), 128 * 1024);
    }
}
