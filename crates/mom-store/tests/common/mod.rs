//! Helpers shared by the store's integration suites: private store
//! directories, keys, and a reference walk of the segment format
//! (frames back to back, each a 48-byte header whose bytes 24..32 hold
//! the payload length).

#![allow(dead_code)]

use mom_store::{Hasher, Key, FRAME_HEADER_LEN, FRAME_MAGIC};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

pub fn temp_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "mom-{tag}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

pub fn key_of(text: &str) -> Key {
    let mut h = Hasher::new();
    h.write_str(text);
    h.finish()
}

/// A payload of `len` bytes that never spells the frame magic.
pub fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 7 + salt as usize) % 64) as u8)
        .collect()
}

/// The files of one namespace directory, sorted by name.
pub fn files(dir: &Path, namespace: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = match fs::read_dir(dir.join(namespace)) {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files
}

/// The namespace's segments (`*.log`).
pub fn segments(dir: &Path, namespace: &str) -> Vec<PathBuf> {
    files(dir, namespace)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect()
}

/// The namespace's only segment.
pub fn only_segment(dir: &Path, namespace: &str) -> PathBuf {
    let segments = segments(dir, namespace);
    assert_eq!(segments.len(), 1, "expected one segment: {segments:?}");
    segments.into_iter().next().unwrap()
}

/// Each frame's key echo and byte range, as the documented format walks.
/// Panics unless the walk ends exactly at the end of `bytes`.
pub fn frames(bytes: &[u8]) -> Vec<(Key, Range<usize>)> {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        let header = &bytes[offset..offset + FRAME_HEADER_LEN];
        assert_eq!(header[0..4], FRAME_MAGIC, "frame at byte {offset}");
        let key = Key(u128::from_le_bytes(header[8..24].try_into().unwrap()));
        let len = u64::from_le_bytes(header[24..32].try_into().unwrap()) as usize;
        let end = offset + FRAME_HEADER_LEN + len;
        assert!(
            end <= bytes.len(),
            "frame at byte {offset} runs past the end"
        );
        frames.push((key, offset..end));
        offset = end;
    }
    frames
}

/// Asserts that the namespace holds nothing but segments, each a run of
/// whole frames: no temp file, no legacy blob, no torn bytes.
pub fn assert_no_litter(dir: &Path, namespace: &str) {
    for path in files(dir, namespace) {
        assert!(
            path.extension().is_some_and(|x| x == "log"),
            "stray file {}",
            path.display()
        );
        frames(&fs::read(&path).unwrap());
    }
}
