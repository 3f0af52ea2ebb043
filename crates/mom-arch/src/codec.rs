//! Versioned binary codec for traces.
//!
//! The persistent trace store (`mom-kernels` over `mom-store`) needs a
//! compact, stable on-disk form for a verified functional run: the walk of
//! its [`Trace`] plus its single-invocation [`TraceStats`].  The payload
//! holds no instructions — like ATOM's address and branch streams, it is
//! read against the program it was recorded over, which the decoder takes
//! as an argument.  The format is hand-rolled little-endian (the workspace
//! carries no serialization dependency) on top of [`mom_store::bytes`]:
//!
//! ```text
//! u16    TRACE_CODEC_VERSION (2)
//! 7×u64  TraceStats (instructions, operations, media, matrix, memory,
//!                    sum_vlx, sum_vly)
//! u64    step count
//! per step:
//!   u8      flags: bit 0 taken, bit 1 has a memory access
//!   varint  pc − (previous pc + 1), zig-zag (0 in straight-line code;
//!           the first step's "previous pc" is −1)
//!   varint  vl
//!   if it has a memory access:
//!     varint addr, varint row_bytes, varint rows, zig-zag varint stride,
//!     u8 is_store
//! ```
//!
//! A varint is LEB128: seven bits per byte, low group first.  Decoding
//! validates exhaustively (version, flag bits, varint length and range, pc
//! inside the program, trailing bytes); a damaged payload always surfaces
//! as an `Err` the cache layer treats as a miss.  Whether the pcs form a
//! walk of the program is the store's load-time verification, not the
//! codec's.

use mom_isa::Program;
use mom_store::bytes::{ByteReader, ByteWriter, CodecError};

use crate::trace::{MemAccess, Step, Trace, TraceStats};

/// Payload format version; bump whenever the encoding changes shape.
pub const TRACE_CODEC_VERSION: u16 = 2;

/// Step flag: the branch was taken.
const TAKEN: u8 = 1 << 0;
/// Step flag: a memory access follows the step.
const HAS_MEM: u8 = 1 << 1;

/// Encodes the walk of a trace and its stats into a payload that
/// [`decode_trace`] reads back against the same program.
pub fn encode_trace(trace: &Trace, stats: &TraceStats) -> Vec<u8> {
    // About 5 bytes a step over the registered kernels.
    let mut w = ByteWriter::with_capacity(80 + trace.len() * 8);
    w.put_u16(TRACE_CODEC_VERSION);
    put_stats(&mut w, stats);
    w.put_u64(trace.len() as u64);
    let mut expected = 0u64;
    for step in trace.walk() {
        let flags =
            if step.taken { TAKEN } else { 0 } | if step.mem.is_some() { HAS_MEM } else { 0 };
        w.put_u8(flags);
        put_varint(&mut w, zigzag(step.pc as i64 - expected as i64));
        put_varint(&mut w, step.vl as u64);
        if let Some(mem) = step.mem {
            put_varint(&mut w, mem.addr);
            put_varint(&mut w, mem.row_bytes as u64);
            put_varint(&mut w, mem.rows as u64);
            put_varint(&mut w, zigzag(mem.stride));
            w.put_bool(mem.is_store);
        }
        expected = step.pc as u64 + 1;
    }
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_trace`] into a walk over
/// `program`, validating the version, every field and that the payload
/// is consumed exactly.
pub fn decode_trace(
    bytes: &[u8],
    program: &'static Program,
) -> Result<(Trace, TraceStats), CodecError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u16("trace codec version")?;
    if version != TRACE_CODEC_VERSION {
        return Err(CodecError::BadVersion {
            what: "trace payload",
            got: version as u32,
        });
    }
    let stats = get_stats(&mut r)?;
    let count = r.get_u64("step count")? as usize;
    // An absurd count (e.g. from flipped length bytes) must not cause an
    // absurd allocation; each step is at least 3 bytes.
    if count > bytes.len() {
        return Err(CodecError::Invalid(format!(
            "step count {count} exceeds payload size {}",
            bytes.len()
        )));
    }
    let mut trace = Trace::for_program(program);
    let mut expected = 0u64;
    for _ in 0..count {
        let flags = r.get_u8("step flags")?;
        if flags & !(TAKEN | HAS_MEM) != 0 {
            return Err(CodecError::BadTag {
                what: "step flags",
                tag: flags,
            });
        }
        let pc = expected.wrapping_add(unzigzag(get_varint(&mut r, "step pc")?) as u64);
        if pc >= program.len() as u64 {
            return Err(CodecError::Invalid(format!(
                "pc {pc} outside a {}-instruction program",
                program.len()
            )));
        }
        let vl = narrow(get_varint(&mut r, "step vl")?, "step vl")?;
        let mem = if flags & HAS_MEM == 0 {
            None
        } else {
            Some(MemAccess {
                addr: get_varint(&mut r, "mem.addr")?,
                row_bytes: narrow(get_varint(&mut r, "mem.row_bytes")?, "mem.row_bytes")?,
                rows: narrow(get_varint(&mut r, "mem.rows")?, "mem.rows")?,
                stride: unzigzag(get_varint(&mut r, "mem.stride")?),
                is_store: r.get_bool("mem.is_store")?,
            })
        };
        trace.push_step(Step {
            pc: pc as usize,
            vl,
            taken: flags & TAKEN != 0,
            mem,
        });
        expected = pc + 1;
    }
    r.finish()?;
    trace.shrink_to_fit();
    Ok((trace, stats))
}

fn put_stats(w: &mut ByteWriter, stats: &TraceStats) {
    w.put_u64(stats.instructions);
    w.put_u64(stats.operations);
    w.put_u64(stats.media_instructions);
    w.put_u64(stats.matrix_instructions);
    w.put_u64(stats.memory_instructions);
    w.put_u64(stats.sum_vlx);
    w.put_u64(stats.sum_vly);
}

fn get_stats(r: &mut ByteReader) -> Result<TraceStats, CodecError> {
    Ok(TraceStats {
        instructions: r.get_u64("stats.instructions")?,
        operations: r.get_u64("stats.operations")?,
        media_instructions: r.get_u64("stats.media_instructions")?,
        matrix_instructions: r.get_u64("stats.matrix_instructions")?,
        memory_instructions: r.get_u64("stats.memory_instructions")?,
        sum_vlx: r.get_u64("stats.sum_vlx")?,
        sum_vly: r.get_u64("stats.sum_vly")?,
    })
}

fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
}

fn put_varint(w: &mut ByteWriter, mut value: u64) {
    while value >= 0x80 {
        w.put_u8(value as u8 | 0x80);
        value >>= 7;
    }
    w.put_u8(value as u8);
}

fn get_varint(r: &mut ByteReader, what: &'static str) -> Result<u64, CodecError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = r.get_u8(what)?;
        let bits = (byte & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return Err(CodecError::Invalid(format!("{what} overflows 64 bits")));
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(CodecError::Invalid(format!("{what} overflows 64 bits")))
}

fn narrow<T: TryFrom<u64>>(value: u64, what: &'static str) -> Result<T, CodecError> {
    T::try_from(value).map_err(|_| CodecError::Invalid(format!("{what} {value} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Memory};
    use mom_isa::prelude::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A small loop touching memory through every access shape: scalar,
    /// packed and strided matrix loads and stores.
    fn program() -> &'static Program {
        static PROGRAM: OnceLock<Program> = OnceLock::new();
        PROGRAM.get_or_init(|| {
            let mut b = AsmBuilder::new(IsaKind::Mom);
            b.li(1, 0x100);
            b.li(2, 16);
            b.li(3, 3);
            b.set_vl_imm(4);
            b.label("loop");
            b.load(MemSize::Half, false, 4, 1, 6);
            b.mmx_load(0, 1, 8, ElemType::U8);
            b.mom_load(0, 1, 2, ElemType::U8);
            b.mom_store(0, 1, 2, ElemType::U8);
            b.addi(1, 1, 64);
            b.addi(3, 3, -1);
            b.branch(BranchCond::Gt, 3, 31, "loop");
            b.finish()
        })
    }

    fn recorded() -> Trace {
        let mut trace = Trace::for_program(program());
        Machine::new(Memory::new(0x1000))
            .run_with_sink(program(), &mut trace)
            .expect("the loop runs");
        trace
    }

    fn arb_mem() -> impl Strategy<Value = Option<MemAccess>> {
        (
            any::<bool>(),
            any::<u64>(),
            any::<u32>(),
            any::<u16>(),
            any::<i64>(),
            any::<bool>(),
        )
            .prop_map(|(some, addr, row_bytes, rows, stride, is_store)| {
                some.then_some(MemAccess {
                    addr,
                    row_bytes,
                    rows,
                    stride,
                    is_store,
                })
            })
    }

    /// Arbitrary steps over [`program`]: any pc, vl, taken bit and access
    /// (the codec does not check that they form a walk).
    fn arb_walk(len: std::ops::Range<usize>) -> impl Strategy<Value = Trace> {
        let pcs = program().len();
        prop::collection::vec((0..pcs, any::<u16>(), any::<bool>(), arb_mem()), len).prop_map(
            |steps| {
                let mut trace = Trace::for_program(program());
                for (pc, vl, taken, mem) in steps {
                    trace.push_step(Step { pc, vl, taken, mem });
                }
                trace
            },
        )
    }

    fn round_trip(trace: &Trace) -> (Trace, TraceStats) {
        decode_trace(&encode_trace(trace, &trace.stats()), program()).expect("decode")
    }

    #[test]
    fn a_recorded_walk_round_trips() {
        let trace = recorded();
        assert!(trace.walk().any(|s| s.taken) && trace.walk().any(|s| s.mem.is_some()));
        let (decoded, stats) = round_trip(&trace);
        assert!(decoded.walk().eq(trace.walk()));
        assert_eq!(stats, trace.stats());
        // A straight-line step costs three bytes, an access a few more.
        let bytes = encode_trace(&trace, &stats).len();
        assert!(bytes < 80 + 8 * trace.len(), "{bytes} bytes");
    }

    proptest! {
        #[test]
        fn trace_round_trips(trace in arb_walk(0..200)) {
            let (decoded, decoded_stats) = round_trip(&trace);
            prop_assert!(decoded.walk().eq(trace.walk()));
            prop_assert_eq!(decoded_stats, trace.stats());
        }

        #[test]
        fn truncation_never_panics(trace in arb_walk(1..50), cut in 0usize..1000) {
            let bytes = encode_trace(&trace, &trace.stats());
            let cut = cut % bytes.len();
            prop_assert!(decode_trace(&bytes[..cut], program()).is_err());
        }

        #[test]
        fn bit_flips_never_panic(trace in arb_walk(1..30),
                                 byte in 0usize..10_000, bit in 0u8..8) {
            let mut bytes = encode_trace(&trace, &trace.stats());
            let byte = byte % bytes.len();
            bytes[byte] ^= 1 << bit;
            // Either the flip is detected, or it decodes to *something* —
            // but it must never panic. (The store layer's checksum catches
            // silent flips before this codec ever runs in production, and
            // its walk verification rejects a pc that is not a successor.)
            let _ = decode_trace(&bytes, program());
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let trace = recorded();
        let mut bytes = encode_trace(&trace, &trace.stats());
        bytes[0] = bytes[0].wrapping_sub(1);
        assert!(matches!(
            decode_trace(&bytes, program()),
            Err(CodecError::BadVersion { got: 1, .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let trace = Trace::for_program(program());
        let mut bytes = encode_trace(&trace, &trace.stats());
        bytes.push(0);
        assert!(matches!(
            decode_trace(&bytes, program()),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn a_pc_past_the_program_is_rejected() {
        let mut trace = Trace::for_program(program());
        trace.push_step(Step {
            pc: program().len() - 1,
            vl: 1,
            taken: false,
            mem: None,
        });
        let mut bytes = encode_trace(&trace, &trace.stats());
        // The single step's pc delta is the byte after its flags.
        let at = bytes.len() - 2;
        bytes[at] += 2;
        assert!(matches!(
            decode_trace(&bytes, program()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn varints_cover_the_whole_range() {
        for value in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut w = ByteWriter::new();
            put_varint(&mut w, value);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(get_varint(&mut r, "v").unwrap(), value);
            assert!(r.finish().is_ok());
        }
        for value in [0, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        // An eleventh byte, or a tenth carrying more than the top bit, is
        // an overflow, not a wrap.
        let mut r = ByteReader::new(&[0xff; 11]);
        assert!(get_varint(&mut r, "v").is_err());
        let mut r = ByteReader::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert!(get_varint(&mut r, "v").is_err());
    }
}
