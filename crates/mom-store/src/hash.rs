//! Stable 128-bit content hashing.
//!
//! Content keys must be stable across processes, platforms and — as far as
//! possible — compiler versions, so the store does not use
//! `std::hash::Hasher` (whose output is explicitly unspecified).  Instead
//! this module hand-rolls FNV-1a/128: simple, well-known, and more than
//! wide enough that collisions are not a practical concern for the few
//! thousand artifacts a sweep produces.
//!
//! [`Hasher`] offers typed `write_*` helpers that length-prefix variable
//! sized input (strings, byte slices) so adjacent fields cannot alias
//! (`"ab" + "c"` hashes differently from `"a" + "bc"`).

use std::fmt;

/// FNV-1a/128 offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a/128 prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content key addressing one artifact in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub u128);

impl Key {
    /// The key as 32 lowercase hex digits (logs, spans, digests).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental FNV-1a/128 hasher producing a [`Key`].
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u128,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher {
        Hasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes (no length prefix — use [`Hasher::write_bytes`] for
    /// variable-length fields).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, text: &str) {
        self.write_bytes(text.as_bytes());
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, value: u8) {
        self.write_raw(&[value]);
    }

    /// Feeds a `u32` in little-endian order.
    pub fn write_u32(&mut self, value: u32) {
        self.write_raw(&value.to_le_bytes());
    }

    /// Feeds a `u64` in little-endian order.
    pub fn write_u64(&mut self, value: u64) {
        self.write_raw(&value.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Feeds a `bool` as one byte.
    pub fn write_bool(&mut self, value: bool) {
        self.write_u8(value as u8);
    }

    /// Feeds an `f64` by exact bit pattern.
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Feeds another key (e.g. chaining a content hash into a result key).
    pub fn write_key(&mut self, key: Key) {
        self.write_raw(&key.0.to_le_bytes());
    }

    /// Finishes the hash.
    pub fn finish(&self) -> Key {
        Key(self.state)
    }
}

/// One-shot convenience: hash a byte slice (used for payload checksums).
pub fn hash_bytes(bytes: &[u8]) -> Key {
    let mut h = Hasher::new();
    h.write_raw(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(Hasher::new().finish(), Key(FNV_OFFSET));
    }

    #[test]
    fn known_vector() {
        // FNV-1a/128 of "a" (0x61).
        let mut h = Hasher::new();
        h.write_raw(b"a");
        assert_eq!(h.finish(), Key((FNV_OFFSET ^ 0x61).wrapping_mul(FNV_PRIME)));
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut a = Hasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Hasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_round_trip() {
        let key = hash_bytes(b"momsim");
        let hex = key.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(u128::from_str_radix(&hex, 16).map(Key), Ok(key));
    }
}
