//! The instruction enumeration shared by all four ISAs, together with the
//! metadata accessors the simulators need: register operands, functional
//! unit class, operation counts and vector-length dependence.

use crate::fu::FuClass;
use crate::packed::{AccumOp, PackedOp};
use crate::reg::Reg;
use crate::scalar::{AluOp, BranchCond, MemSize};
use mom_simd::ElemType;

/// A branch target: an index into a program's label table (resolved to an
/// instruction index by [`crate::Program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub usize);

/// The second source operand of a MOM matrix instruction.
///
/// MOM arithmetic usually combines two matrix registers row by row, but the
/// paper's Figure 2 example (`d[i][j] = c[i][j] + a[i]`) also needs the
/// *same* packed word (or a broadcast scalar) applied to every row, so a MOM
/// instruction may also name an MMX register or an immediate that is
/// replicated along dimension Y.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MomOperand {
    /// A second matrix register, combined row-by-row.
    Mat(u8),
    /// A packed (MMX) register broadcast to every row.
    Mmx(u8),
    /// An immediate packed word broadcast to every row.
    Imm(u64),
}

/// A small, allocation-free list of registers (operands of one instruction).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegList {
    regs: [Option<Reg>; 4],
    len: usize,
}

impl RegList {
    /// Adds a register to the list.
    ///
    /// # Panics
    /// Panics if more than four registers are pushed (no instruction has
    /// more than four operands).
    pub fn push(&mut self, r: Reg) {
        assert!(
            self.len < 4,
            "instructions have at most 4 register operands"
        );
        self.regs[self.len] = Some(r);
        self.len += 1;
    }

    /// Number of registers in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs[..self.len].iter().map(|r| r.unwrap())
    }

    /// Whether the list contains `reg`.
    pub fn contains(&self, reg: Reg) -> bool {
        self.iter().any(|r| r == reg)
    }
}

impl FromIterator<Reg> for RegList {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        let mut l = RegList::default();
        for r in iter {
            l.push(r);
        }
        l
    }
}

/// One instruction of any of the four studied ISAs.
///
/// Scalar register operands are `u8` indices into the integer register file;
/// packed/matrix operands are indices into the MMX or MOM register files.
/// See [`crate::reg::Reg`] for the architectural name spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // ------------------------------------------------------------------
    // Scalar baseline ("Alpha-like")
    // ------------------------------------------------------------------
    /// Load a 64-bit immediate into an integer register.
    Li {
        /// Destination integer register.
        rd: u8,
        /// Immediate value.
        imm: i64,
    },
    /// Register-register integer ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// First source register.
        ra: u8,
        /// Second source register.
        rb: u8,
    },
    /// Register-immediate integer ALU operation.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// Source register.
        ra: u8,
        /// Immediate operand.
        imm: i64,
    },
    /// Scalar load (`rd <- mem[base + offset]`, zero- or sign-extended).
    Load {
        /// Access size.
        size: MemSize,
        /// Sign-extend the loaded value.
        signed: bool,
        /// Destination register.
        rd: u8,
        /// Base address register.
        base: u8,
        /// Byte offset.
        offset: i64,
    },
    /// Scalar store (`mem[base + offset] <- rs`).
    Store {
        /// Access size.
        size: MemSize,
        /// Source (value) register.
        rs: u8,
        /// Base address register.
        base: u8,
        /// Byte offset.
        offset: i64,
    },
    /// Conditional or unconditional branch comparing two registers.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparison register.
        ra: u8,
        /// Second comparison register.
        rb: u8,
        /// Target label.
        target: Label,
    },
    /// No operation.
    Nop,

    // ------------------------------------------------------------------
    // MMX-like packed instructions (one 64-bit word)
    // ------------------------------------------------------------------
    /// Load a 64-bit word into a packed register.
    MmxLoad {
        /// Destination packed register.
        vd: u8,
        /// Base address register.
        base: u8,
        /// Byte offset.
        offset: i64,
        /// Element type held by the word (used for operation accounting).
        ty: ElemType,
    },
    /// Store a packed register as a 64-bit word.
    MmxStore {
        /// Source packed register.
        vs: u8,
        /// Base address register.
        base: u8,
        /// Byte offset.
        offset: i64,
        /// Element type held by the word.
        ty: ElemType,
    },
    /// Packed register-register operation.
    MmxOp {
        /// Packed element operation.
        op: PackedOp,
        /// Element type.
        ty: ElemType,
        /// Destination packed register.
        vd: u8,
        /// First source packed register.
        va: u8,
        /// Second source packed register.
        vb: u8,
    },
    /// Broadcast an integer register into every lane of a packed register.
    MmxSplat {
        /// Destination packed register.
        vd: u8,
        /// Source integer register.
        ra: u8,
        /// Element type.
        ty: ElemType,
    },
    /// Move a packed register (as raw 64 bits) to an integer register.
    MmxToInt {
        /// Destination integer register.
        rd: u8,
        /// Source packed register.
        va: u8,
    },
    /// Move an integer register (as raw 64 bits) to a packed register.
    MmxFromInt {
        /// Destination packed register.
        vd: u8,
        /// Source integer register.
        ra: u8,
    },

    // ------------------------------------------------------------------
    // MDMX-like packed accumulators
    // ------------------------------------------------------------------
    /// Clear an MDMX accumulator.
    AccClear {
        /// Accumulator index.
        acc: u8,
    },
    /// Accumulate `op(va, vb)` lane-wise into an MDMX accumulator.
    AccStep {
        /// Accumulate operation.
        op: AccumOp,
        /// Element type of the sources.
        ty: ElemType,
        /// Accumulator index (read-modify-write).
        acc: u8,
        /// First source packed register.
        va: u8,
        /// Second source packed register.
        vb: u8,
    },
    /// Read an MDMX accumulator into a packed register, scaling by `shift`
    /// with rounding and clipping to the element type.
    AccRead {
        /// Destination packed register.
        vd: u8,
        /// Accumulator index.
        acc: u8,
        /// Element type of the destination lanes.
        ty: ElemType,
        /// Right-shift (scaling) applied with rounding before clipping.
        shift: u32,
        /// Saturate (clip) instead of wrapping.
        saturating: bool,
    },
    /// Reduce an MDMX accumulator to a scalar: the horizontal sum of all its
    /// lanes is written to an integer register (finishing a dot product or a
    /// SAD reduction in one instruction).
    AccReadScalar {
        /// Destination integer register.
        rd: u8,
        /// Accumulator index.
        acc: u8,
    },

    // ------------------------------------------------------------------
    // MOM matrix instructions
    // ------------------------------------------------------------------
    /// Set the vector-length register from an immediate.
    SetVlImm {
        /// New vector length (1..=16).
        vl: u8,
    },
    /// Set the vector-length register from an integer register.
    SetVl {
        /// Source integer register.
        ra: u8,
    },
    /// Strided matrix load: `VL` 64-bit words, `stride` bytes apart, into a
    /// matrix register (`mom_ldq` in the paper).
    MomLoad {
        /// Destination matrix register.
        md: u8,
        /// Base address register.
        base: u8,
        /// Stride register (bytes between consecutive rows).
        stride: u8,
        /// Element type held by each row.
        ty: ElemType,
    },
    /// Strided matrix store (`mom_stq`).
    MomStore {
        /// Source matrix register.
        ms: u8,
        /// Base address register.
        base: u8,
        /// Stride register.
        stride: u8,
        /// Element type held by each row.
        ty: ElemType,
    },
    /// Matrix arithmetic/logic operation: applies a packed operation to each
    /// of the first `VL` rows (`mom_paddb` and friends).
    MomOp {
        /// Packed element operation applied per row.
        op: PackedOp,
        /// Element type.
        ty: ElemType,
        /// Destination matrix register.
        md: u8,
        /// First source matrix register.
        ma: u8,
        /// Second source operand.
        mb: MomOperand,
    },
    /// Matrix transpose of the 8×8 sub-word block held in a matrix register
    /// (non-pipelined special unit).
    MomTranspose {
        /// Destination matrix register.
        md: u8,
        /// Source matrix register.
        ms: u8,
        /// Element type (determines the transposed block geometry).
        ty: ElemType,
    },
    /// Clear a MOM packed accumulator.
    MomAccClear {
        /// Accumulator index.
        acc: u8,
    },
    /// Matrix accumulate: for each of the first `VL` rows, accumulate
    /// `op(row_a, row_b)` lane-wise into the MOM accumulator (the pipelined
    /// dimension-Y reduction of Section 3.1).
    MomAccStep {
        /// Accumulate operation.
        op: AccumOp,
        /// Element type of the sources.
        ty: ElemType,
        /// Accumulator index (read-modify-write).
        acc: u8,
        /// First source matrix register.
        ma: u8,
        /// Second source operand.
        mb: MomOperand,
    },
    /// Reduce a MOM accumulator to a scalar: the horizontal sum of all its
    /// lanes is written to an integer register.
    MomAccReadScalar {
        /// Destination integer register.
        rd: u8,
        /// Accumulator index.
        acc: u8,
    },
    /// Read a MOM accumulator into a packed (MMX) register with scaling,
    /// rounding and clipping.
    MomAccRead {
        /// Destination packed register.
        vd: u8,
        /// Accumulator index.
        acc: u8,
        /// Element type of the destination lanes.
        ty: ElemType,
        /// Right-shift (scaling) applied with rounding before clipping.
        shift: u32,
        /// Saturate (clip) instead of wrapping.
        saturating: bool,
    },
    /// Extract one row of a matrix register into a packed register.
    MomRowToMmx {
        /// Destination packed register.
        vd: u8,
        /// Source matrix register.
        ms: u8,
        /// Row index (0..16).
        row: u8,
    },
    /// Insert a packed register into one row of a matrix register.
    MomRowFromMmx {
        /// Destination matrix register (read-modify-write).
        md: u8,
        /// Source packed register.
        va: u8,
        /// Row index (0..16).
        row: u8,
    },
}

impl Instruction {
    /// Registers written by this instruction.
    pub fn dests(&self) -> RegList {
        let mut d = RegList::default();
        match *self {
            Instruction::Li { rd, .. }
            | Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::MmxToInt { rd, .. }
            | Instruction::AccReadScalar { rd, .. }
            | Instruction::MomAccReadScalar { rd, .. } => d.push(Reg::Int(rd)),
            Instruction::Store { .. }
            | Instruction::Branch { .. }
            | Instruction::Nop
            | Instruction::MmxStore { .. }
            | Instruction::MomStore { .. } => {}
            Instruction::MmxLoad { vd, .. }
            | Instruction::MmxOp { vd, .. }
            | Instruction::MmxSplat { vd, .. }
            | Instruction::MmxFromInt { vd, .. }
            | Instruction::AccRead { vd, .. }
            | Instruction::MomAccRead { vd, .. }
            | Instruction::MomRowToMmx { vd, .. } => d.push(Reg::Mmx(vd)),
            Instruction::AccClear { acc } | Instruction::AccStep { acc, .. } => {
                d.push(Reg::Acc(acc))
            }
            Instruction::SetVlImm { .. } | Instruction::SetVl { .. } => d.push(Reg::Vl),
            Instruction::MomLoad { md, .. }
            | Instruction::MomOp { md, .. }
            | Instruction::MomTranspose { md, .. }
            | Instruction::MomRowFromMmx { md, .. } => d.push(Reg::Mat(md)),
            Instruction::MomAccClear { acc } | Instruction::MomAccStep { acc, .. } => {
                d.push(Reg::MatAcc(acc))
            }
        }
        d
    }

    /// Registers read by this instruction (including implicit reads such as
    /// the vector-length register for MOM matrix instructions, the previous
    /// accumulator value for accumulate steps, and the previous destination
    /// for conditional moves and row insertion).
    pub fn sources(&self) -> RegList {
        let mut s = RegList::default();
        match *self {
            Instruction::Li { .. } | Instruction::Nop | Instruction::SetVlImm { .. } => {}
            Instruction::Alu { op, rd, ra, rb } => {
                s.push(Reg::Int(ra));
                s.push(Reg::Int(rb));
                if op.reads_dest() {
                    s.push(Reg::Int(rd));
                }
            }
            Instruction::AluImm { op, rd, ra, .. } => {
                s.push(Reg::Int(ra));
                if op.reads_dest() {
                    s.push(Reg::Int(rd));
                }
            }
            Instruction::Load { base, .. } => s.push(Reg::Int(base)),
            Instruction::Store { rs, base, .. } => {
                s.push(Reg::Int(rs));
                s.push(Reg::Int(base));
            }
            Instruction::Branch { ra, rb, .. } => {
                s.push(Reg::Int(ra));
                s.push(Reg::Int(rb));
            }
            Instruction::MmxLoad { base, .. } => s.push(Reg::Int(base)),
            Instruction::MmxStore { vs, base, .. } => {
                s.push(Reg::Mmx(vs));
                s.push(Reg::Int(base));
            }
            Instruction::MmxOp { op, va, vb, .. } => {
                s.push(Reg::Mmx(va));
                if op.uses_second_operand() {
                    s.push(Reg::Mmx(vb));
                }
            }
            Instruction::MmxSplat { ra, .. } | Instruction::MmxFromInt { ra, .. } => {
                s.push(Reg::Int(ra))
            }
            Instruction::MmxToInt { va, .. } => s.push(Reg::Mmx(va)),
            Instruction::AccClear { .. } => {}
            Instruction::AccStep { acc, va, vb, .. } => {
                s.push(Reg::Acc(acc));
                s.push(Reg::Mmx(va));
                s.push(Reg::Mmx(vb));
            }
            Instruction::AccRead { acc, .. } | Instruction::AccReadScalar { acc, .. } => {
                s.push(Reg::Acc(acc))
            }
            Instruction::SetVl { ra } => s.push(Reg::Int(ra)),
            Instruction::MomLoad { base, stride, .. } => {
                s.push(Reg::Int(base));
                s.push(Reg::Int(stride));
                s.push(Reg::Vl);
            }
            Instruction::MomStore {
                ms, base, stride, ..
            } => {
                s.push(Reg::Mat(ms));
                s.push(Reg::Int(base));
                s.push(Reg::Int(stride));
                s.push(Reg::Vl);
            }
            Instruction::MomOp { op, ma, mb, .. } => {
                s.push(Reg::Mat(ma));
                if op.uses_second_operand() {
                    if let Some(r) = mom_operand_reg(mb) {
                        s.push(r);
                    }
                }
                s.push(Reg::Vl);
            }
            Instruction::MomTranspose { ms, .. } => s.push(Reg::Mat(ms)),
            Instruction::MomAccClear { .. } => {}
            Instruction::MomAccStep { acc, ma, mb, .. } => {
                s.push(Reg::MatAcc(acc));
                s.push(Reg::Mat(ma));
                if let Some(r) = mom_operand_reg(mb) {
                    s.push(r);
                }
                // NOTE: the implicit VL read is dropped when the operand list
                // is already full; the accumulator dependence dominates.
                if s.len() < 4 {
                    s.push(Reg::Vl);
                }
            }
            Instruction::MomAccRead { acc, .. } | Instruction::MomAccReadScalar { acc, .. } => {
                s.push(Reg::MatAcc(acc))
            }
            Instruction::MomRowToMmx { ms, .. } => s.push(Reg::Mat(ms)),
            Instruction::MomRowFromMmx { md, va, .. } => {
                s.push(Reg::Mat(md));
                s.push(Reg::Mmx(va));
            }
        }
        s
    }

    /// The functional-unit class this instruction executes on.
    pub fn fu_class(&self) -> FuClass {
        match *self {
            Instruction::Li { .. } | Instruction::Nop | Instruction::SetVlImm { .. } => {
                FuClass::IntAlu
            }
            Instruction::Alu { op, .. } | Instruction::AluImm { op, .. } => {
                if op.is_multiply() {
                    FuClass::IntMul
                } else {
                    FuClass::IntAlu
                }
            }
            Instruction::SetVl { .. } => FuClass::IntAlu,
            Instruction::Load { .. } | Instruction::Store { .. } => FuClass::Mem,
            Instruction::Branch { .. } => FuClass::Branch,
            Instruction::MmxLoad { .. } | Instruction::MmxStore { .. } => FuClass::Mem,
            Instruction::MmxOp { op, .. } => op.fu_class(),
            Instruction::MmxSplat { .. }
            | Instruction::MmxToInt { .. }
            | Instruction::MmxFromInt { .. } => FuClass::MediaAlu,
            Instruction::AccClear { .. } | Instruction::MomAccClear { .. } => FuClass::MediaAlu,
            Instruction::AccStep { op, .. } | Instruction::MomAccStep { op, .. } => op.fu_class(),
            Instruction::AccRead { .. }
            | Instruction::MomAccRead { .. }
            | Instruction::AccReadScalar { .. }
            | Instruction::MomAccReadScalar { .. } => FuClass::MediaPack,
            Instruction::MomLoad { .. } | Instruction::MomStore { .. } => FuClass::VecMem,
            Instruction::MomOp { op, .. } => op.fu_class(),
            Instruction::MomTranspose { .. } => FuClass::MediaTranspose,
            Instruction::MomRowToMmx { .. } | Instruction::MomRowFromMmx { .. } => {
                FuClass::MediaPack
            }
        }
    }

    /// Whether this is a multimedia (packed, accumulator or matrix)
    /// instruction — the paper's "vector instruction" category for the *F*
    /// statistic.
    pub fn is_media(&self) -> bool {
        self.fu_class().is_media()
            || matches!(
                self,
                Instruction::MmxLoad { .. }
                    | Instruction::MmxStore { .. }
                    | Instruction::MmxOp { .. }
                    | Instruction::MmxSplat { .. }
                    | Instruction::AccClear { .. }
                    | Instruction::AccStep { .. }
                    | Instruction::AccRead { .. }
            )
    }

    /// Whether this instruction's work scales with the current vector length
    /// (a MOM matrix instruction operating on `VL` rows).
    pub fn is_vl_dependent(&self) -> bool {
        matches!(
            self,
            Instruction::MomLoad { .. }
                | Instruction::MomStore { .. }
                | Instruction::MomOp { .. }
                | Instruction::MomAccStep { .. }
        )
    }

    /// Whether this instruction accesses memory.
    pub fn is_memory(&self) -> bool {
        self.fu_class().is_memory()
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Instruction::Store { .. } | Instruction::MmxStore { .. } | Instruction::MomStore { .. }
        )
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        self.is_memory() && !self.is_store()
    }

    /// The packed element type this instruction operates on, if any.
    pub fn elem_type(&self) -> Option<ElemType> {
        match *self {
            Instruction::MmxLoad { ty, .. }
            | Instruction::MmxStore { ty, .. }
            | Instruction::MmxOp { ty, .. }
            | Instruction::MmxSplat { ty, .. }
            | Instruction::AccStep { ty, .. }
            | Instruction::AccRead { ty, .. }
            | Instruction::MomLoad { ty, .. }
            | Instruction::MomStore { ty, .. }
            | Instruction::MomOp { ty, .. }
            | Instruction::MomTranspose { ty, .. }
            | Instruction::MomAccStep { ty, .. }
            | Instruction::MomAccRead { ty, .. } => Some(ty),
            _ => None,
        }
    }

    /// Number of elementary operations this instruction performs, given the
    /// effective vector length `vl` at execution time (ignored for non-MOM
    /// instructions).
    ///
    /// This is the quantity behind the paper's OPI (operations per
    /// instruction) and VLx / VLy statistics: a scalar instruction is one
    /// operation, a packed instruction is `lanes` operations, a MOM matrix
    /// instruction is `lanes × VL` operations.
    pub fn ops(&self, vl: u64) -> u64 {
        let lanes = self.elem_type().map_or(1, |ty| ty.lanes() as u64);
        match *self {
            // Scalar and move instructions: one operation.
            Instruction::Li { .. }
            | Instruction::Alu { .. }
            | Instruction::AluImm { .. }
            | Instruction::Load { .. }
            | Instruction::Store { .. }
            | Instruction::Branch { .. }
            | Instruction::Nop
            | Instruction::SetVl { .. }
            | Instruction::SetVlImm { .. }
            | Instruction::MmxToInt { .. }
            | Instruction::MmxFromInt { .. }
            | Instruction::MmxSplat { .. }
            | Instruction::AccClear { .. }
            | Instruction::MomAccClear { .. }
            | Instruction::AccReadScalar { .. }
            | Instruction::MomAccReadScalar { .. }
            | Instruction::MomRowToMmx { .. }
            | Instruction::MomRowFromMmx { .. } => 1,
            // Packed instructions: one operation per sub-word lane.
            Instruction::MmxLoad { .. }
            | Instruction::MmxStore { .. }
            | Instruction::MmxOp { .. }
            | Instruction::AccStep { .. }
            | Instruction::AccRead { .. }
            | Instruction::MomAccRead { .. } => lanes,
            // Matrix instructions: lanes × rows.
            Instruction::MomLoad { .. }
            | Instruction::MomStore { .. }
            | Instruction::MomOp { .. }
            | Instruction::MomAccStep { .. } => lanes * vl.max(1),
            // The transpose rearranges an 8×8 block.
            Instruction::MomTranspose { .. } => 64,
        }
    }

    /// The number of sub-word lanes of this instruction (the paper's
    /// dimension-X length), 1 for scalar instructions.
    pub fn vlx(&self) -> u64 {
        self.elem_type().map_or(1, |ty| ty.lanes() as u64)
    }
}

fn mom_operand_reg(op: MomOperand) -> Option<Reg> {
    match op {
        MomOperand::Mat(m) => Some(Reg::Mat(m)),
        MomOperand::Mmx(v) => Some(Reg::Mmx(v)),
        MomOperand::Imm(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_simd::Overflow;

    #[test]
    fn scalar_operands() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            rd: 1,
            ra: 2,
            rb: 3,
        };
        assert!(i.dests().contains(Reg::Int(1)));
        assert!(i.sources().contains(Reg::Int(2)));
        assert!(i.sources().contains(Reg::Int(3)));
        assert_eq!(i.sources().len(), 2);
        assert_eq!(i.fu_class(), FuClass::IntAlu);
        assert_eq!(i.ops(16), 1);
        assert!(!i.is_media());
    }

    #[test]
    fn cmov_reads_destination() {
        let i = Instruction::Alu {
            op: AluOp::CmovNz,
            rd: 1,
            ra: 2,
            rb: 3,
        };
        assert!(i.sources().contains(Reg::Int(1)));
        assert_eq!(i.sources().len(), 3);
    }

    #[test]
    fn multiply_uses_the_multiplier() {
        let i = Instruction::Alu {
            op: AluOp::Mul,
            rd: 1,
            ra: 2,
            rb: 3,
        };
        assert_eq!(i.fu_class(), FuClass::IntMul);
    }

    #[test]
    fn mmx_op_operands_and_ops() {
        let i = Instruction::MmxOp {
            op: PackedOp::Add(Overflow::Saturate),
            ty: ElemType::U8,
            vd: 1,
            va: 2,
            vb: 3,
        };
        assert!(i.dests().contains(Reg::Mmx(1)));
        assert!(i.sources().contains(Reg::Mmx(2)));
        assert!(i.sources().contains(Reg::Mmx(3)));
        assert_eq!(i.ops(16), 8);
        assert_eq!(i.vlx(), 8);
        assert!(i.is_media());
        assert!(!i.is_vl_dependent());
    }

    #[test]
    fn unary_mmx_op_has_single_source() {
        let i = Instruction::MmxOp {
            op: PackedOp::SraImm(2),
            ty: ElemType::I16,
            vd: 1,
            va: 2,
            vb: 0,
        };
        assert_eq!(i.sources().len(), 1);
    }

    #[test]
    fn accumulator_step_is_read_modify_write() {
        let i = Instruction::AccStep {
            op: AccumOp::MulAdd,
            ty: ElemType::I16,
            acc: 0,
            va: 1,
            vb: 2,
        };
        assert!(i.dests().contains(Reg::Acc(0)));
        assert!(i.sources().contains(Reg::Acc(0)));
        assert_eq!(i.fu_class(), FuClass::MediaMul);
        assert_eq!(i.ops(1), 4);
    }

    #[test]
    fn mom_load_reads_vl_and_writes_matrix() {
        let i = Instruction::MomLoad {
            md: 3,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        assert!(i.dests().contains(Reg::Mat(3)));
        assert!(i.sources().contains(Reg::Int(1)));
        assert!(i.sources().contains(Reg::Int(2)));
        assert!(i.sources().contains(Reg::Vl));
        assert_eq!(i.fu_class(), FuClass::VecMem);
        assert!(i.is_memory());
        assert!(i.is_load() && !i.is_store());
        assert!(i.is_vl_dependent());
        assert_eq!(i.ops(16), 128);
        assert_eq!(i.ops(8), 64);
    }

    #[test]
    fn mom_op_with_broadcast_operand() {
        let i = Instruction::MomOp {
            op: PackedOp::Add(Overflow::Wrap),
            ty: ElemType::I16,
            md: 0,
            ma: 1,
            mb: MomOperand::Mmx(5),
        };
        assert!(i.sources().contains(Reg::Mmx(5)));
        assert!(i.sources().contains(Reg::Mat(1)));
        assert_eq!(i.ops(4), 16);
        let imm = Instruction::MomOp {
            op: PackedOp::Add(Overflow::Wrap),
            ty: ElemType::I16,
            md: 0,
            ma: 1,
            mb: MomOperand::Imm(0),
        };
        assert!(!imm.sources().contains(Reg::Mmx(0)));
    }

    #[test]
    fn mom_acc_step_counts_matrix_ops() {
        let i = Instruction::MomAccStep {
            op: AccumOp::AbsDiffAdd,
            ty: ElemType::U8,
            acc: 0,
            ma: 1,
            mb: MomOperand::Mat(2),
        };
        assert!(i.dests().contains(Reg::MatAcc(0)));
        assert!(i.sources().contains(Reg::MatAcc(0)));
        assert_eq!(i.ops(16), 128);
        assert!(i.is_vl_dependent());
    }

    #[test]
    fn transpose_metadata() {
        let i = Instruction::MomTranspose {
            md: 0,
            ms: 1,
            ty: ElemType::U8,
        };
        assert_eq!(i.fu_class(), FuClass::MediaTranspose);
        assert_eq!(i.ops(8), 64);
        assert!(!i.is_vl_dependent());
    }

    #[test]
    fn set_vl_writes_vl() {
        assert!(Instruction::SetVlImm { vl: 8 }.dests().contains(Reg::Vl));
        assert!(Instruction::SetVl { ra: 3 }.dests().contains(Reg::Vl));
        assert!(Instruction::SetVl { ra: 3 }.sources().contains(Reg::Int(3)));
    }

    #[test]
    fn stores_have_no_dests() {
        let s = Instruction::Store {
            size: MemSize::Word,
            rs: 1,
            base: 2,
            offset: 0,
        };
        assert!(s.dests().is_empty());
        assert!(s.is_store() && !s.is_load());
        let ms = Instruction::MomStore {
            ms: 0,
            base: 1,
            stride: 2,
            ty: ElemType::U8,
        };
        assert!(ms.dests().is_empty());
        assert_eq!(ms.sources().len(), 4);
        assert!(ms.is_store() && !ms.is_load());
    }

    #[test]
    fn reglist_limits() {
        let mut l = RegList::default();
        for i in 0..4 {
            l.push(Reg::Int(i));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(l.iter().count(), 4);
    }
}
