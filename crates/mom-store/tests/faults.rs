//! Fill *error*-path suite: the corruption suite proves damaged frames on
//! read degrade to misses; this one proves a failed fill — a partial
//! write or a failed commit, injected deterministically by the fault
//! plane — leaves no torn bytes, is retried, never hides a later frame and
//! never poisons the memory tier.
//!
//! The fault plane is process-global, so every test serialises on one
//! mutex and clears the plan before returning.

mod common;

use common::{assert_no_litter, frames, key_of, only_segment, payload, temp_dir};
use mom_store::faults::{self, FaultPlan, FaultSite};
use mom_store::{Store, NS_RESULT};
use std::fs;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[test]
fn failed_partial_write_leaves_no_litter_and_memory_tier_survives() {
    let _serial = serial();
    let dir = temp_dir("faults");
    let store = Store::new(Some(dir.clone()));
    let key = key_of("partial-write-victim");
    let payload = payload(300, 1);

    // Both the first write and its retry fail mid-write.
    faults::install(FaultPlan::new(11).with_site(FaultSite::StoreWrite, 1.0, None));
    store.put(NS_RESULT, key, payload.clone());
    assert_eq!(faults::injected_count(FaultSite::StoreWrite), 2);
    faults::clear();

    assert!(
        faults::injected_count(FaultSite::StoreWrite) == 0,
        "clear() resets injection counts"
    );
    assert_eq!(
        fs::metadata(only_segment(&dir, NS_RESULT)).unwrap().len(),
        0,
        "both torn appends are truncated away"
    );
    assert_no_litter(&dir, NS_RESULT);
    // The memory tier is not poisoned: the same store still serves the
    // payload it accepted, torn disk write notwithstanding.
    assert_eq!(
        store.get(NS_RESULT, key).as_deref().map(Vec::as_slice),
        Some(payload.as_slice()),
        "memory tier serves the fill the disk rejected"
    );
    // A fresh store over the directory misses cleanly — no torn frame was
    // ever left in the segment.
    let fresh = Store::new(Some(dir.clone()));
    assert_eq!(fresh.get_disk(NS_RESULT, key), None);
    assert_eq!(
        fresh.counters(NS_RESULT).invalid,
        0,
        "a miss, not corruption"
    );

    // With the plan gone the ordinary rewrite path restores durability.
    store.put_disk(NS_RESULT, key, &payload);
    assert_eq!(
        Store::new(Some(dir.clone()))
            .get_disk(NS_RESULT, key)
            .as_deref(),
        Some(payload.as_slice())
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn a_partial_write_followed_by_more_puts_leaves_every_later_frame_readable() {
    let _serial = serial();
    let dir = temp_dir("faults");
    let store = Store::new(Some(dir.clone()));
    let keys: Vec<_> = (0..4).map(|i| key_of(&format!("after-tear {i}"))).collect();

    // The first put tears twice (write and retry); the rest, each shorter
    // than the torn half, land behind it in the same segment.
    let size = |i: usize| if i == 0 { 600 } else { 20 + i };
    faults::install(FaultPlan::new(15).with_site(FaultSite::StoreWrite, 1.0, Some(2)));
    for (i, &key) in keys.iter().enumerate() {
        store.put(NS_RESULT, key, payload(size(i), i as u8));
    }
    faults::clear();

    assert_no_litter(&dir, NS_RESULT);
    let segment = fs::read(only_segment(&dir, NS_RESULT)).unwrap();
    assert_eq!(frames(&segment).len(), 3, "the torn frame left no bytes");
    let fresh = Store::new(Some(dir.clone()));
    assert_eq!(fresh.get_disk(NS_RESULT, keys[0]), None);
    for (i, &key) in keys.iter().enumerate().skip(1) {
        assert_eq!(
            fresh.get_disk(NS_RESULT, key),
            Some(payload(size(i), i as u8)),
            "frame {i} after the torn write"
        );
    }
    assert_eq!(fresh.counters(NS_RESULT).invalid, 0);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn a_failed_sync_leaves_the_frame_unindexed() {
    let _serial = serial();
    let dir = temp_dir("faults");
    let store = Store::new(Some(dir.clone()));
    let key = key_of("sync-victim");

    faults::install(FaultPlan::new(12).with_site(FaultSite::StoreSync, 1.0, None));
    store.put(NS_RESULT, key, b"doomed".to_vec());
    let injected = faults::injected_count(FaultSite::StoreSync);
    faults::clear();

    assert_eq!(injected, 2, "the commit is retried once");
    assert_eq!(
        store.get_disk(NS_RESULT, key),
        None,
        "an uncommitted frame is not indexed"
    );
    assert_eq!(
        store.get(NS_RESULT, key).as_deref().map(Vec::as_slice),
        Some(b"doomed".as_slice()),
        "memory tier unaffected"
    );
    assert_no_litter(&dir, NS_RESULT);
    // The next put of the key appends a fresh copy and commits it.
    store.put_disk(NS_RESULT, key, b"doomed");
    assert_eq!(store.get_disk(NS_RESULT, key), Some(b"doomed".to_vec()));
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn a_single_write_fault_is_healed_by_the_retry() {
    let _serial = serial();
    let dir = temp_dir("faults");
    let store = Store::new(Some(dir.clone()));
    let key = key_of("retry-heals");

    // Budget of exactly one injection: the first attempt fails, the
    // in-place retry succeeds, and the frame is durable after all.
    faults::install(FaultPlan::new(13).with_site(FaultSite::StoreWrite, 1.0, Some(1)));
    store.put(NS_RESULT, key, b"persisted".to_vec());
    let injected = faults::injected_count(FaultSite::StoreWrite);
    faults::clear();

    assert_eq!(injected, 1, "exactly the budgeted fault fired");
    assert_eq!(
        Store::new(Some(dir.clone()))
            .get_disk(NS_RESULT, key)
            .as_deref(),
        Some(b"persisted".as_slice()),
        "the retry published the frame"
    );
    assert_no_litter(&dir, NS_RESULT);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn injected_read_faults_degrade_to_misses_and_recover() {
    let _serial = serial();
    let dir = temp_dir("faults");
    let store = Store::new(Some(dir.clone()));
    let key = key_of("read-victim");
    store.put(NS_RESULT, key, b"present".to_vec());
    let segment = only_segment(&dir, NS_RESULT);
    let before = fs::read(&segment).unwrap();

    faults::install(FaultPlan::new(14).with_site(FaultSite::StoreRead, 1.0, None));
    let fresh = Store::new(Some(dir.clone()));
    assert_eq!(
        fresh.get_disk(NS_RESULT, key),
        None,
        "an injected read fault is a miss"
    );
    let counters = fresh.counters(NS_RESULT);
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.invalid, 0, "a fault is not corruption");
    faults::clear();

    assert_eq!(
        fs::read(&segment).unwrap(),
        before,
        "the segment itself is untouched by a read fault"
    );
    assert_eq!(
        fresh.get_disk(NS_RESULT, key).as_deref(),
        Some(b"present".as_slice()),
        "service recovers the moment the fault clears"
    );
    let _ = fs::remove_dir_all(dir);
}
