//! Simulation results and the speed-up decomposition of the paper's
//! Section 4.4 (IPC × OPI × R).

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

/// The paper's speed-up decomposition (Section 4.4) of one ISA relative to
/// the scalar baseline:
///
/// `S = R × IPC_isa × OPI_isa / IPC_alpha`, with
/// `R = NOPS_alpha / NOPS_isa` the operation-reduction factor.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupBreakdown {
    /// Committed instructions per cycle of the evaluated ISA.
    pub ipc: f64,
    /// Operations per instruction of the evaluated ISA.
    pub opi: f64,
    /// Operation-reduction factor R (baseline operations / ISA operations).
    pub r: f64,
    /// Speed-up over the baseline (baseline cycles / ISA cycles).
    pub speedup: f64,
    /// Fraction of vector (multimedia) instructions F.
    pub f: f64,
    /// Average sub-word vector length (dimension X).
    pub vlx: f64,
    /// Average dimension-Y vector length.
    pub vly: f64,
}

impl SpeedupBreakdown {
    /// Builds the breakdown from a baseline result and an ISA result, plus
    /// the trace-level VLx / VLy averages (which the timing simulator does
    /// not track).
    pub fn from_results(
        baseline: &SimResult,
        isa: &SimResult,
        vlx: f64,
        vly: f64,
    ) -> SpeedupBreakdown {
        let r = if isa.operations == 0 {
            0.0
        } else {
            baseline.operations as f64 / isa.operations as f64
        };
        let speedup = if isa.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / isa.cycles as f64
        };
        SpeedupBreakdown {
            ipc: isa.ipc(),
            opi: isa.opi(),
            r,
            speedup,
            f: isa.media_fraction(),
            vlx,
            vly,
        }
    }

    /// The identity the paper derives: `S = R × IPC × OPI / IPC_baseline`.
    /// Returns the speed-up predicted from the decomposition (should agree
    /// with the measured `speedup` field up to rounding when the baseline
    /// and the ISA execute the same amount of work).
    pub fn predicted_speedup(&self, baseline_ipc: f64, baseline_opi: f64) -> f64 {
        if baseline_ipc == 0.0 || baseline_opi == 0.0 {
            return 0.0;
        }
        self.r * self.ipc * self.opi / (baseline_ipc * baseline_opi)
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

    #[test]
    fn speedup_decomposition_identity() {
        // Baseline: 1000 ops in 500 cycles, 1000 instructions (IPC 2, OPI 1).
        let baseline = result(500, 1000, 1000);
        // ISA: same work expressed as 400 ops (R = 2.5), 100 instructions
        // (OPI 4), in 125 cycles (IPC 0.8) -> speed-up 4.
        let isa = result(125, 100, 400);
        let b = SpeedupBreakdown::from_results(&baseline, &isa, 6.0, 4.0);
        assert!((b.r - 2.5).abs() < 1e-12);
        assert!((b.speedup - 4.0).abs() < 1e-12);
        let predicted = b.predicted_speedup(baseline.ipc(), baseline.opi());
        assert!(
            (predicted - b.speedup).abs() < 1e-9,
            "decomposition must reproduce the measured speed-up: {predicted} vs {}",
            b.speedup
        );
    }
}
