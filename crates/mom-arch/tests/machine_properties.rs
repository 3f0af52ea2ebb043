//! Property-based tests of the functional simulator: instruction semantics
//! observed through the `Machine` must agree with the packed-operation
//! primitives applied directly, for arbitrary data.

use mom_arch::{Machine, Memory, Trace, TraceEntry, TraceSink, TraceStats};
use mom_isa::prelude::*;
use proptest::prelude::*;

const MEM: usize = 1 << 16;

fn machine_with_words(words: &[(u64, u64)]) -> Machine {
    let mut m = Machine::new(Memory::new(MEM));
    for (addr, value) in words {
        m.memory_mut().write_u64(*addr, *value).unwrap();
    }
    m
}

fn media_elem() -> impl Strategy<Value = ElemType> {
    prop::sample::select(vec![
        ElemType::U8,
        ElemType::I8,
        ElemType::U16,
        ElemType::I16,
        ElemType::I32,
    ])
}

fn binary_packed_op() -> impl Strategy<Value = PackedOp> {
    prop::sample::select(vec![
        PackedOp::Add(Overflow::Wrap),
        PackedOp::Add(Overflow::Saturate),
        PackedOp::Sub(Overflow::Wrap),
        PackedOp::Sub(Overflow::Saturate),
        PackedOp::MulLow,
        PackedOp::AbsDiff,
        PackedOp::Avg,
        PackedOp::Min,
        PackedOp::Max,
        PackedOp::CmpEq,
        PackedOp::CmpGt,
        PackedOp::And,
        PackedOp::Or,
        PackedOp::Xor,
        PackedOp::UnpackLow,
        PackedOp::UnpackHigh,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An MMX register-register operation executed by the machine equals the
    /// packed primitive applied to the same operands.
    #[test]
    fn mmx_op_matches_primitive(a in any::<u64>(), b in any::<u64>(), op in binary_packed_op(), ty in media_elem()) {
        let mut m = machine_with_words(&[(0x100, a), (0x108, b)]);
        let mut asm = AsmBuilder::new(IsaKind::Mmx);
        asm.li(1, 0x100);
        asm.mmx_load(0, 1, 0, ty);
        asm.mmx_load(1, 1, 8, ty);
        asm.mmx_op(op, ty, 2, 0, 1);
        m.run(&asm.finish()).unwrap();
        prop_assert_eq!(m.mmx_reg(2), op.apply(a, b, ty));
    }

    /// A MOM matrix operation is exactly the row-wise application of the
    /// corresponding MMX operation for the first VL rows, and leaves the
    /// remaining rows of the destination untouched.
    #[test]
    fn mom_op_is_rowwise_mmx(rows in prop::collection::vec(any::<u64>(), 16),
                             other in prop::collection::vec(any::<u64>(), 16),
                             vl in 1usize..=16,
                             op in binary_packed_op(),
                             ty in media_elem()) {
        let mut m = Machine::new(Memory::new(MEM));
        for (i, (r, o)) in rows.iter().zip(other.iter()).enumerate() {
            m.memory_mut().write_u64(0x1000 + 8 * i as u64, *r).unwrap();
            m.memory_mut().write_u64(0x2000 + 8 * i as u64, *o).unwrap();
        }
        let mut asm = AsmBuilder::new(IsaKind::Mom);
        asm.li(1, 0x1000);
        asm.li(2, 0x2000);
        asm.li(3, 8);
        asm.set_vl_imm(vl as u8);
        asm.mom_load(0, 1, 3, ty);
        asm.mom_load(1, 2, 3, ty);
        asm.mom_op(op, ty, 2, 0, MomOperand::Mat(1));
        m.run(&asm.finish()).unwrap();
        for row in 0..16 {
            let expect = if row < vl {
                op.apply(rows[row], other[row], ty)
            } else {
                0 // untouched rows of a zero-initialised register
            };
            prop_assert_eq!(m.mom_row(2, row), expect, "row {}", row);
        }
    }

    /// A MOM operation with a broadcast (MMX) operand applies the same
    /// second operand to every row.
    #[test]
    fn mom_broadcast_operand(rows in prop::collection::vec(any::<u64>(), 8),
                             scalar_word in any::<u64>(),
                             ty in media_elem()) {
        let mut m = Machine::new(Memory::new(MEM));
        for (i, r) in rows.iter().enumerate() {
            m.memory_mut().write_u64(0x1000 + 8 * i as u64, *r).unwrap();
        }
        m.memory_mut().write_u64(0x2000, scalar_word).unwrap();
        let mut asm = AsmBuilder::new(IsaKind::Mom);
        asm.li(1, 0x1000);
        asm.li(2, 0x2000);
        asm.li(3, 8);
        asm.set_vl_imm(8);
        asm.mmx_load(5, 2, 0, ty);
        asm.mom_load(0, 1, 3, ty);
        asm.mom_op(PackedOp::Add(Overflow::Saturate), ty, 1, 0, MomOperand::Mmx(5));
        m.run(&asm.finish()).unwrap();
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(
                m.mom_row(1, i),
                PackedOp::Add(Overflow::Saturate).apply(*r, scalar_word, ty)
            );
        }
    }

    /// Strided matrix store followed by a strided load round-trips through
    /// memory for any stride that keeps rows disjoint.
    #[test]
    fn mom_store_load_round_trip(rows in prop::collection::vec(any::<u64>(), 16),
                                 stride in 8u64..64,
                                 vl in 1usize..=16) {
        let stride = (stride / 8) * 8; // keep rows aligned for simplicity
        let mut m = Machine::new(Memory::new(MEM));
        for (i, r) in rows.iter().enumerate() {
            m.memory_mut().write_u64(0x1000 + 8 * i as u64, *r).unwrap();
        }
        let mut asm = AsmBuilder::new(IsaKind::Mom);
        asm.li(1, 0x1000);
        asm.li(2, 8);
        asm.li(3, 0x4000);
        asm.li(4, stride as i64);
        asm.set_vl_imm(vl as u8);
        asm.mom_load(0, 1, 2, ElemType::U8);
        asm.mom_store(0, 3, 4, ElemType::U8);
        asm.mom_load(1, 3, 4, ElemType::U8);
        m.run(&asm.finish()).unwrap();
        for (row, r) in rows.iter().enumerate().take(vl) {
            prop_assert_eq!(m.mom_row(1, row), *r);
            prop_assert_eq!(m.memory().read_u64(0x4000 + stride * row as u64).unwrap(), *r);
        }
    }

    /// The matrix-transpose instruction is an involution on the machine
    /// state (transposing twice restores the register).
    #[test]
    fn transpose_instruction_is_involution(rows in prop::collection::vec(any::<u64>(), 16),
                                           ty in prop::sample::select(vec![ElemType::U8, ElemType::I16, ElemType::I32])) {
        let mut m = Machine::new(Memory::new(MEM));
        for (i, r) in rows.iter().enumerate() {
            m.memory_mut().write_u64(0x1000 + 8 * i as u64, *r).unwrap();
        }
        let mut asm = AsmBuilder::new(IsaKind::Mom);
        asm.li(1, 0x1000);
        asm.li(2, 8);
        asm.set_vl_imm(16);
        asm.mom_load(0, 1, 2, ty);
        asm.mom_transpose(1, 0, ty);
        asm.mom_transpose(2, 1, ty);
        m.run(&asm.finish()).unwrap();
        for (row, r) in rows.iter().enumerate() {
            prop_assert_eq!(m.mom_row(2, row), *r);
        }
    }

    /// The MDMX accumulator and the MOM accumulator compute the same lane
    /// sums when fed the same data (the MOM step just consumes all rows in
    /// one instruction).
    #[test]
    fn mdmx_and_mom_accumulators_agree(rows in prop::collection::vec(any::<u64>(), 8),
                                       weights in any::<u64>(),
                                       op in prop::sample::select(vec![AccumOp::MulAdd, AccumOp::AbsDiffAdd, AccumOp::SqrDiffAdd, AccumOp::AddAcc])) {
        let ty = ElemType::I16;
        let mut mem = Memory::new(MEM);
        for (i, r) in rows.iter().enumerate() {
            mem.write_u64(0x1000 + 8 * i as u64, *r).unwrap();
        }
        mem.write_u64(0x2000, weights).unwrap();

        // MDMX: one step per row.
        let mut mdmx = Machine::new(mem.clone());
        let mut asm = AsmBuilder::new(IsaKind::Mdmx);
        asm.li(1, 0x1000);
        asm.li(2, 0x2000);
        asm.mmx_load(1, 2, 0, ty);
        asm.acc_clear(0);
        for i in 0..8 {
            asm.mmx_load(0, 1, 8 * i, ty);
            asm.acc_step(op, ty, 0, 0, 1);
        }
        asm.acc_read_scalar(5, 0);
        mdmx.run(&asm.finish()).unwrap();

        // MOM: one matrix step.
        let mut mom = Machine::new(mem);
        let mut asm = AsmBuilder::new(IsaKind::Mom);
        asm.li(1, 0x1000);
        asm.li(2, 0x2000);
        asm.li(3, 8);
        asm.set_vl_imm(8);
        asm.mmx_load(1, 2, 0, ty);
        asm.mom_load(0, 1, 3, ty);
        asm.mom_acc_clear(0);
        asm.mom_acc_step(op, ty, 0, 0, MomOperand::Mmx(1));
        asm.mom_acc_read_scalar(5, 0);
        mom.run(&asm.finish()).unwrap();

        prop_assert_eq!(mdmx.int_reg(5), mom.int_reg(5));
    }

    /// Scalar loads and stores of every size round-trip through memory with
    /// the right extension behaviour.
    #[test]
    fn scalar_memory_round_trip(value in any::<i64>(), size in prop::sample::select(vec![MemSize::Byte, MemSize::Half, MemSize::Word, MemSize::Quad]), signed in any::<bool>()) {
        let mut m = Machine::new(Memory::new(MEM));
        let mut asm = AsmBuilder::new(IsaKind::Alpha);
        asm.li(1, 0x800);
        asm.li(2, value);
        asm.store(size, 2, 1, 0);
        asm.load(size, signed, 3, 1, 0);
        m.run(&asm.finish()).unwrap();
        let bits = 8 * size.bytes() as u32;
        let expect = if bits == 64 {
            value
        } else if signed {
            (value << (64 - bits)) >> (64 - bits)
        } else {
            value & ((1i64 << bits) - 1)
        };
        prop_assert_eq!(m.int_reg(3), expect);
    }

    /// The dynamic trace always contains exactly the committed instructions,
    /// and its operation count is at least the instruction count.
    #[test]
    fn trace_accounting_invariants(n in 1usize..50, vl in 1u8..=16) {
        let mut m = Machine::new(Memory::new(MEM));
        let mut asm = AsmBuilder::new(IsaKind::Mom);
        asm.li(1, 0x1000);
        asm.li(2, 8);
        asm.set_vl_imm(vl);
        for _ in 0..n {
            asm.mom_load(0, 1, 2, ElemType::U8);
            asm.mom_op(PackedOp::Xor, ElemType::U8, 1, 0, MomOperand::Mat(0));
        }
        let p = asm.finish();
        let trace = m.run(&p).unwrap();
        prop_assert_eq!(trace.len(), p.len());
        let stats = trace.stats();
        prop_assert_eq!(stats.instructions as usize, p.len());
        prop_assert!(stats.operations >= stats.instructions);
        prop_assert_eq!(stats.matrix_instructions, 2 * n as u64);
        prop_assert!((stats.avg_vly() - vl as f64).abs() < 1e-9);
    }

    /// Replaying an invocation through `retire_repeated` — which records
    /// it once and scales the counters — equals recording every entry of
    /// every replication one at a time.
    #[test]
    fn repeated_stats_equal_per_entry_recording(
        shapes in prop::collection::vec((0u8..4, 1u16..=16), 0..40),
        times in 0usize..300,
    ) {
        let entries: Vec<TraceEntry> = shapes
            .into_iter()
            .map(|(kind, vl)| {
                let instr = match kind {
                    0 => Instruction::Li { rd: 1, imm: 3 },
                    1 => Instruction::MomLoad { md: 0, base: 1, stride: 2, ty: ElemType::U8 },
                    2 => Instruction::MmxOp {
                        op: PackedOp::Add(Overflow::Wrap),
                        ty: ElemType::U16,
                        vd: 1,
                        va: 2,
                        vb: 3,
                    },
                    _ => Instruction::MomOp {
                        op: PackedOp::Xor,
                        ty: ElemType::U8,
                        md: 1,
                        ma: 0,
                        mb: MomOperand::Mat(0),
                    },
                };
                let vl = if instr.is_vl_dependent() { vl } else { 1 };
                TraceEntry { instr, vl, taken: false, mem: None }
            })
            .collect();
        let trace: Trace = entries.iter().copied().collect();
        let mut scaled = TraceStats::default();
        scaled.retire_repeated(&trace, times);
        let mut stepped = TraceStats::default();
        for _ in 0..times {
            for entry in &entries {
                stepped.retire(*entry);
            }
        }
        prop_assert_eq!(scaled, stepped);
    }
}
