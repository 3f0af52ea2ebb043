//! Little-endian byte-codec primitives shared by every artifact codec.
//!
//! The workspace deliberately carries no serialization dependency (the
//! vendored crates are offline shims), so blob formats are hand-rolled:
//! fixed-width little-endian integers, `f64` by exact bit pattern, and
//! `u32`-length-prefixed strings.  [`ByteWriter`] builds a payload,
//! [`ByteReader`] consumes one and reports *every* defect — truncation,
//! an unknown enum tag, trailing garbage — as a [`CodecError`] so callers
//! can degrade a damaged blob to a cache miss instead of panicking.

use std::error::Error;
use std::fmt;

/// A decoding failure. Store consumers treat any variant as "blob is
/// unusable": the artifact is recomputed and rewritten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before a fixed-width field (truncation).
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// The payload's format version is not the one this build writes.
    BadVersion {
        /// Which codec noticed.
        what: &'static str,
        /// The version found in the payload.
        got: u32,
    },
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A decoded value failed a semantic check (e.g. an unknown kernel
    /// name, or stats that do not match the decoded trace).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => {
                write!(f, "payload truncated while decoding {what}")
            }
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadVersion { what, got } => {
                write!(f, "unsupported {what} format version {got}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
            CodecError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            CodecError::Invalid(detail) => write!(f, "invalid payload: {detail}"),
        }
    }
}

impl Error for CodecError {}

/// Builds a little-endian payload.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(value as u8);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Appends an `f64` by exact bit pattern, so warm-served results are
    /// byte-identical to freshly computed ones.
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, text: &str) {
        self.put_u32(text.len() as u32);
        self.buf.extend_from_slice(text.as_bytes());
    }
}

/// Consumes a little-endian payload produced by [`ByteWriter`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(CodecError::TrailingBytes { remaining }),
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { what });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `bool`; any byte other than 0 or 1 is a [`CodecError::BadTag`].
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what, tag }),
        }
    }

    /// Reads a `u16` little-endian.
    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a `u32` little-endian.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a `u64` little-endian.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        Ok(self.get_u64(what)? as usize)
    }

    /// Reads an `f64` stored by bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(0xab);
        w.put_bool(true);
        w.put_u16(0x1234);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 7);
        w.put_usize(99);
        w.put_f64(-0.125);
        w.put_str("méta");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 0xab);
        assert!(r.get_bool("b").unwrap());
        assert_eq!(r.get_u16("c").unwrap(), 0x1234);
        assert_eq!(r.get_u32("d").unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64("e").unwrap(), u64::MAX - 7);
        assert_eq!(r.get_usize("h").unwrap(), 99);
        assert_eq!(r.get_f64("i").unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(r.get_str("j").unwrap(), "méta");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(
            r.get_u64("field"),
            Err(CodecError::UnexpectedEof { what: "field" })
        );
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let bytes = [0u8; 3];
        let mut r = ByteReader::new(&bytes);
        r.get_u8("x").unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { remaining: 2 }));
    }

    #[test]
    fn bad_bool_is_a_tag_error() {
        let bytes = [7u8];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_bool("flag"),
            Err(CodecError::BadTag {
                what: "flag",
                tag: 7
            })
        );
    }
}
