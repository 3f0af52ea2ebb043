//! Simulation results and the ratios (IPC, OPI) of the paper's Section 4.4
//! speed-up decomposition; `mom_bench::tables_from` derives R and S.

use crate::cache::CacheStats;
use mom_isa::FuClass;
use std::collections::HashMap;

/// The outcome of one timing simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Total cycles from the first fetch to the last commit.
    pub cycles: u64,
    /// Committed (graduated) instructions.
    pub instructions: u64,
    /// Committed elementary operations (the paper's NOPS numerator).
    pub operations: u64,
    /// Committed multimedia ("vector") instructions.
    pub media_instructions: u64,
    /// Committed memory instructions.
    pub memory_instructions: u64,
    /// Cycles each functional-unit class spent busy (occupancy, summed over
    /// units of the class).
    pub fu_busy_cycles: HashMap<FuClass, u64>,
    /// Maximum reorder-buffer occupancy observed.
    pub max_rob_occupancy: usize,
    /// Number of cycles in which no instruction could be dispatched because
    /// the reorder buffer was full.
    pub dispatch_stall_cycles: u64,
    /// Data-cache hit/miss counters (all zero under a fixed-latency memory
    /// model).
    pub cache: CacheStats,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Elementary operations per committed instruction (the paper's OPI).
    pub fn opi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.operations as f64 / self.instructions as f64
        }
    }

    /// Elementary operations per cycle (IPC × OPI).
    pub fn opc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.operations as f64 / self.cycles as f64
        }
    }

    /// Fraction of committed instructions that are multimedia instructions
    /// (the paper's *F*).
    pub fn media_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.media_instructions as f64 / self.instructions as f64
        }
    }

    /// L1 data-cache misses per thousand committed instructions (0 when no
    /// cache hierarchy was simulated).
    pub fn l1_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cache.l1_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L2 misses (main-memory accesses) per thousand committed instructions
    /// (0 when no cache hierarchy was simulated).
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cache.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Utilisation of a functional-unit class: busy cycles divided by
    /// (cycles × unit count). Returns 0 for classes never used.
    pub fn fu_utilisation(&self, class: FuClass, unit_count: usize) -> f64 {
        if self.cycles == 0 || unit_count == 0 {
            return 0.0;
        }
        let busy = self.fu_busy_cycles.get(&class).copied().unwrap_or(0);
        busy as f64 / (self.cycles as f64 * unit_count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, instructions: u64, operations: u64) -> SimResult {
        SimResult {
            cycles,
            instructions,
            operations,
            ..Default::default()
        }
    }

    #[test]
    fn basic_ratios() {
        let r = result(100, 250, 1000);
        assert!((r.ipc() - 2.5).abs() < 1e-12);
        assert!((r.opi() - 4.0).abs() < 1e-12);
        assert!((r.opc() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_are_safe() {
        let r = SimResult::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.opi(), 0.0);
        assert_eq!(r.opc(), 0.0);
        assert_eq!(r.media_fraction(), 0.0);
        assert_eq!(r.fu_utilisation(FuClass::IntAlu, 2), 0.0);
    }

    #[test]
    fn mpki_ratios() {
        let mut r = result(100, 2000, 2000);
        r.cache.l1_misses = 10;
        r.cache.l2_misses = 4;
        assert!((r.l1_mpki() - 5.0).abs() < 1e-12);
        assert!((r.l2_mpki() - 2.0).abs() < 1e-12);
        assert_eq!(SimResult::default().l1_mpki(), 0.0);
    }

    #[test]
    fn fu_utilisation() {
        let mut r = result(100, 100, 100);
        r.fu_busy_cycles.insert(FuClass::MediaAlu, 150);
        assert!((r.fu_utilisation(FuClass::MediaAlu, 2) - 0.75).abs() < 1e-12);
        assert_eq!(r.fu_utilisation(FuClass::MediaMul, 2), 0.0);
    }
}
