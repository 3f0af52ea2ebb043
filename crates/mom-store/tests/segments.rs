//! The disk tier's log structure: one segment per writing store, a
//! namespace indexed once per store (what other stores commit later
//! appears at the next open), and `gc`/`clear` that compact or delete only
//! the segments no live writer holds.

mod common;

use common::{files, frames, key_of, only_segment, payload, segments, temp_dir};
use mom_store::{Store, FRAME_HEADER_LEN, NS_RESULT};
use std::fs;

#[test]
fn a_second_store_finds_what_the_first_committed() {
    let dir = temp_dir("segments");
    let first = Store::new(Some(dir.clone()));
    let (early, late) = (key_of("early"), key_of("late"));
    first.put(NS_RESULT, early, b"early".to_vec());
    let second = Store::new(Some(dir.clone()));
    assert_eq!(second.get_disk(NS_RESULT, early), Some(b"early".to_vec()));
    // `second` indexed the namespace before `late` was written: it misses
    // without re-scanning, and a store opened afterwards finds it.
    first.put(NS_RESULT, late, b"late".to_vec());
    assert_eq!(second.get_disk(NS_RESULT, late), None);
    let third = Store::new(Some(dir.clone()));
    assert_eq!(third.get_disk(NS_RESULT, late), Some(b"late".to_vec()));
    // The writer sees its own writes, and every writer keeps its own
    // segment.
    assert_eq!(first.get_disk(NS_RESULT, late), Some(b"late".to_vec()));
    second.put(NS_RESULT, late, b"late".to_vec());
    assert_eq!(segments(&dir, NS_RESULT).len(), 2);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn a_batch_is_one_segment_and_serves_every_blob() {
    let dir = temp_dir("segments");
    let store = Store::new(Some(dir.clone()));
    let blobs: Vec<_> = (0..32)
        .map(|i| (key_of(&format!("batch {i}")), payload(40 + i, i as u8)))
        .collect();
    store.put_all(NS_RESULT, blobs.clone());
    assert_eq!(store.counters(NS_RESULT).fills, 32);
    let segment = fs::read(only_segment(&dir, NS_RESULT)).unwrap();
    assert_eq!(frames(&segment).len(), 32);
    let fresh = Store::new(Some(dir.clone()));
    for (key, blob) in &blobs {
        assert_eq!(fresh.get_disk(NS_RESULT, *key).as_ref(), Some(blob));
        assert_eq!(store.get(NS_RESULT, *key).as_deref(), Some(blob));
    }
    let report = fresh.report();
    let result = &report.namespaces[0];
    assert_eq!(result.disk_blobs, 32);
    assert_eq!(result.disk_bytes, segment.len() as u64);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn gc_compacts_dead_segments_and_legacy_files_but_keeps_a_live_one() {
    let dir = temp_dir("segments");
    let (shared, only_b, live_key) = (key_of("shared"), key_of("only b"), key_of("live"));
    let frame = |len: usize| (FRAME_HEADER_LEN + len) as u64;
    // Two finished writers with a duplicate between them.
    {
        let a = Store::new(Some(dir.clone()));
        a.put(NS_RESULT, shared, payload(10, 1));
    }
    {
        let b = Store::new(Some(dir.clone()));
        b.put(NS_RESULT, shared, payload(10, 1));
        b.put(NS_RESULT, only_b, payload(20, 2));
    }
    // A live writer, plus the litter of the per-blob layout.
    let live = Store::new(Some(dir.clone()));
    live.put(NS_RESULT, live_key, payload(30, 3));
    let ns = dir.join(NS_RESULT);
    fs::write(
        ns.join(format!("{}.bin", key_of("legacy").to_hex())),
        b"old blob",
    )
    .unwrap();
    fs::write(ns.join(".tmp-legacy-1-1"), b"junk").unwrap();
    assert_eq!(files(&dir, NS_RESULT).len(), 5);

    let report = Store::new(Some(dir.clone())).gc().unwrap();
    assert_eq!(report.removed_files, 4, "{report:?}");
    assert_eq!(
        (report.kept_files, report.kept_bytes),
        (1, frame(10) + frame(20))
    );
    assert_eq!((report.live_files, report.live_bytes), (1, frame(30)));
    assert_eq!(segments(&dir, NS_RESULT).len(), 2);
    assert_eq!(files(&dir, NS_RESULT).len(), 2, "no legacy file survives");
    let fresh = Store::new(Some(dir.clone()));
    assert_eq!(fresh.get_disk(NS_RESULT, shared), Some(payload(10, 1)));
    assert_eq!(fresh.get_disk(NS_RESULT, only_b), Some(payload(20, 2)));
    assert_eq!(fresh.get_disk(NS_RESULT, live_key), Some(payload(30, 3)));

    // `clear` removes legacy files and dead segments but spares the live
    // segment too; once its writer is gone, the next gc folds it in.
    fs::write(ns.join(".tmp-legacy-2-2"), b"junk").unwrap();
    let cleared = Store::new(Some(dir.clone())).clear().unwrap();
    assert_eq!((cleared.removed_files, cleared.live_files), (2, 1));
    assert_eq!(files(&dir, NS_RESULT).len(), 1);
    drop(live);
    let report = Store::new(Some(dir.clone())).gc().unwrap();
    assert_eq!(
        (report.removed_files, report.kept_files, report.live_files),
        (0, 1, 0)
    );
    assert_eq!(
        Store::new(Some(dir.clone())).get_disk(NS_RESULT, live_key),
        Some(payload(30, 3))
    );
    let _ = fs::remove_dir_all(dir);
}
