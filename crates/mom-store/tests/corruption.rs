//! Corruption-injection suite: every way an on-disk frame can be damaged
//! must degrade to a miss — after which the caller recomputes and the
//! rewrite appends a fresh copy. Nothing in here may panic, and no damaged
//! frame may ever be served as a payload.

mod common;

use common::{assert_no_litter, frames, key_of, only_segment, payload, segments, temp_dir};
use mom_store::{Key, Store, NS_RESULT, NS_TRACE};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A store primed with one frame; returns (store, dir, key, payload,
/// segment path).
fn primed() -> (Store, PathBuf, Key, Vec<u8>, PathBuf) {
    let dir = temp_dir("corruption");
    let store = Store::new(Some(dir.clone()));
    let key = key_of("victim");
    let payload = payload(300, 0);
    store.put(NS_TRACE, key, payload.clone());
    let path = only_segment(&dir, NS_TRACE);
    (store, dir, key, payload, path)
}

/// Reads through a *fresh* store over the same directory, so the lookup
/// cannot be answered by the writer's memory tier or index.
fn fresh_get(dir: &Path, key: Key) -> Option<Vec<u8>> {
    Store::new(Some(dir.to_path_buf())).get_disk(NS_TRACE, key)
}

/// Deletes every segment but `keep`.
fn remove_other_segments(dir: &Path, keep: &Path) {
    for segment in segments(dir, NS_TRACE) {
        if segment != keep {
            fs::remove_file(segment).unwrap();
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_miss_and_a_rewrite_recovers() {
    let (_store, dir, key, payload, path) = primed();
    let pristine = fs::read(&path).unwrap();
    // Every bit of every frame field: magic, version, key echo, length,
    // checksum and payload body.
    for pos in 0..pristine.len() {
        for bit in 0..8 {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 1 << bit;
            fs::write(&path, &damaged).unwrap();
            let reader = Store::new(Some(dir.clone()));
            assert_eq!(
                reader.get_disk(NS_TRACE, key),
                None,
                "flip of bit {bit} at byte {pos} must not be served"
            );
            let counters = reader.counters(NS_TRACE);
            assert_eq!(counters.misses, 1, "flip at {pos} counts as a miss");
            if (8..24).contains(&pos) {
                // The frame now belongs to another key: a plain miss.
                assert_eq!(counters.invalid, 0, "flip at {pos} is in the key echo");
            } else {
                assert!(counters.invalid >= 1, "flip at {pos} counts as corruption");
            }
            if bit == 0 {
                // The caller's recompute-and-rewrite path restores service.
                reader.put_disk(NS_TRACE, key, &payload);
                assert_eq!(
                    reader.get_disk(NS_TRACE, key).as_deref(),
                    Some(&payload[..])
                );
                assert_eq!(fresh_get(&dir, key).as_deref(), Some(&payload[..]));
            }
            drop(reader);
            remove_other_segments(&dir, &path);
        }
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn truncation_at_every_length_is_a_miss() {
    let (_store, dir, key, payload, path) = primed();
    let pristine = fs::read(&path).unwrap();
    for len in 0..pristine.len() {
        fs::write(&path, &pristine[..len]).unwrap();
        let reader = Store::new(Some(dir.clone()));
        assert_eq!(
            reader.get_disk(NS_TRACE, key),
            None,
            "truncation to {len} bytes"
        );
        let torn = u64::from(len > 0);
        assert_eq!(
            reader.counters(NS_TRACE).invalid,
            torn,
            "truncation to {len}"
        );
    }
    // Trailing garbage after a whole frame is a torn tail: the frame
    // before it still serves.
    let mut oversized = pristine.clone();
    oversized.push(0);
    fs::write(&path, &oversized).unwrap();
    let reader = Store::new(Some(dir.clone()));
    assert_eq!(reader.get_disk(NS_TRACE, key), Some(payload));
    assert_eq!(reader.counters(NS_TRACE).invalid, 1, "trailing byte");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn wrong_frame_version_is_a_miss() {
    let (_store, dir, key, _payload, path) = primed();
    let mut bytes = fs::read(&path).unwrap();
    // Bytes 4..8 hold the little-endian frame version.
    bytes[4..8].copy_from_slice(&(mom_store::FRAME_VERSION + 1).to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert_eq!(fresh_get(&dir, key), None);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn blob_filed_under_the_wrong_key_is_a_miss() {
    let (store, dir, key, victim, path) = primed();
    let other = key_of("other");
    let foreign = payload(300, 9);
    store.put(NS_TRACE, other, foreign.clone());
    // A reader indexes both frames, then the two swap places on disk:
    // each indexed offset now holds a valid frame of the *other* key.
    let reader = Store::new(Some(dir.clone()));
    assert_eq!(reader.get_disk(NS_TRACE, other), Some(foreign.clone()));
    let bytes = fs::read(&path).unwrap();
    let walked = frames(&bytes);
    let swapped = [&bytes[walked[1].1.clone()], &bytes[walked[0].1.clone()]].concat();
    fs::write(&path, &swapped).unwrap();
    assert_eq!(reader.get_disk(NS_TRACE, key), None, "foreign frame served");
    assert_eq!(
        reader.get_disk(NS_TRACE, other),
        None,
        "foreign frame served"
    );
    assert_eq!(reader.counters(NS_TRACE).invalid, 2);
    // A fresh index follows the key echoes: both keys serve their own.
    assert_eq!(fresh_get(&dir, key), Some(victim.clone()));
    assert_eq!(fresh_get(&dir, other), Some(foreign));
    // And the reader recovers through the ordinary rewrite path.
    reader.put_disk(NS_TRACE, key, &victim);
    assert_eq!(reader.get_disk(NS_TRACE, key), Some(victim));
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn a_missing_namespace_directory_is_only_a_miss() {
    let dir = temp_dir("corruption");
    let store = Store::new(Some(dir.clone()));
    assert_eq!(store.get_disk(NS_RESULT, key_of("nothing")), None);
    assert_eq!(store.counters(NS_RESULT).misses, 1);
    assert_eq!(
        store.counters(NS_RESULT).invalid,
        0,
        "absence is not corruption"
    );
    let _ = fs::remove_dir_all(dir);
}

/// Which of a segment's frames a damaged copy of it must still serve.
enum Damage {
    /// Cut at this byte offset.
    Cut(usize),
    /// Every bit of this byte inverted.
    Flip(usize),
}

#[test]
fn a_torn_or_flipped_tail_serves_exactly_the_whole_valid_frames() {
    let dir = temp_dir("corruption");
    let writer = Store::new(Some(dir.clone()));
    let blobs: Vec<(Key, Vec<u8>)> = [100, 200, 300, 150]
        .iter()
        .enumerate()
        .map(|(i, &len)| (key_of(&format!("frame {i}")), payload(len, i as u8)))
        .collect();
    writer.put_all(NS_TRACE, blobs.clone());
    drop(writer);
    let path = only_segment(&dir, NS_TRACE);
    let pristine = fs::read(&path).unwrap();
    let walked = frames(&pristine);
    assert_eq!(walked.len(), blobs.len());
    let tail = walked[2].1.start;

    let damages = (tail..pristine.len())
        .map(Damage::Cut)
        .chain((tail..pristine.len()).map(Damage::Flip));
    for damage in damages {
        let (bytes, expected): (Vec<u8>, Vec<bool>) = match damage {
            Damage::Cut(cut) => (
                pristine[..cut].to_vec(),
                walked.iter().map(|(_, r)| r.end <= cut).collect(),
            ),
            Damage::Flip(pos) => {
                let mut bytes = pristine.clone();
                bytes[pos] ^= 0xFF;
                let hit = walked.iter().position(|(_, r)| r.contains(&pos)).unwrap();
                let field = pos - walked[hit].1.start;
                // A broken magic, version or length ends the header walk
                // at this frame; a broken key echo, checksum or payload
                // costs this frame alone.
                let walk_stops = field < 8 || (24..32).contains(&field);
                let served = (0..walked.len())
                    .map(|i| i < hit || (i > hit && !walk_stops))
                    .collect();
                (bytes, served)
            }
        };
        fs::write(&path, &bytes).unwrap();
        let reader = Store::new(Some(dir.clone()));
        for ((key, blob), served) in blobs.iter().zip(&expected) {
            let got = reader.get_disk(NS_TRACE, *key);
            let what = match damage {
                Damage::Cut(cut) => format!("cut at {cut}"),
                Damage::Flip(pos) => format!("flip at {pos}"),
            };
            assert_eq!(got.as_ref(), served.then_some(blob), "{what}");
        }
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn concurrent_writers_and_readers_never_observe_partial_frames() {
    let dir = temp_dir("corruption");
    let store = Arc::new(Store::new(Some(dir.clone())));
    const KEYS: usize = 16;
    const ROUNDS: usize = 40;
    let payload_of = |i: usize| -> Vec<u8> { vec![i as u8; 256 + i] };
    let keys: Vec<Key> = (0..KEYS).map(|i| key_of(&format!("slot {i}"))).collect();

    // Two writer threads racing over the *same* keys with the same
    // content-addressed payloads through one store (so their commits
    // interleave), plus two readers indexing through fresh stores so every
    // hit comes off disk.
    let mut handles = Vec::new();
    for _writer in 0..2 {
        let store = Arc::clone(&store);
        let keys = keys.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                for (i, &key) in keys.iter().enumerate() {
                    store.put_disk(NS_RESULT, key, &payload_of(i));
                    // Interleave differently per round to vary the race.
                    if round % 2 == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }));
    }
    for _reader in 0..2 {
        let dir = dir.clone();
        let keys = keys.clone();
        handles.push(std::thread::spawn(move || {
            for _round in 0..ROUNDS {
                let fresh = Store::new(Some(dir.clone()));
                for (i, &key) in keys.iter().enumerate() {
                    // Either not yet appended when this store indexed (a
                    // miss) or the complete frame — never a torn payload.
                    if let Some(payload) = fresh.get_disk(NS_RESULT, key) {
                        assert_eq!(payload, payload_of(i), "torn read on key {i}");
                    }
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("no thread may panic");
    }

    // After the dust settles every key serves its payload, the one
    // segment holds every appended frame whole, and nothing else is left.
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(store.get_disk(NS_RESULT, key), Some(payload_of(i)));
    }
    let fresh = Store::new(Some(dir.clone()));
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(fresh.get_disk(NS_RESULT, key), Some(payload_of(i)));
    }
    assert_no_litter(&dir, NS_RESULT);
    let segment = fs::read(only_segment(&dir, NS_RESULT)).unwrap();
    assert_eq!(frames(&segment).len(), 2 * ROUNDS * KEYS);
    let _ = fs::remove_dir_all(dir);
}
