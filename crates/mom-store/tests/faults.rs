//! Fill *error*-path suite: the corruption suite proves damaged frames on
//! read degrade to misses; this one proves a failed fill — a partial
//! write or a failed commit, injected deterministically by the fault
//! plane — leaves no torn bytes, is retried, never hides a later frame and
//! never poisons the memory tier.
//!
//! The same run of events also pins where the store counts them: the
//! process-global store's counters are the registry's `momsim_store_*`
//! series, and a private store's never reach the registry.
//!
//! The fault plane and the metrics registry are process-global, so every
//! test serialises on one mutex and clears the plan before returning.

mod common;

use common::{assert_no_litter, frames, key_of, only_segment, payload, temp_dir};
use mom_store::faults::{self, FaultPlan, FaultSite};
use mom_store::{Store, StoreConfig, TierCounters, NS_RESULT};
use std::fs;
use std::os::unix::fs::FileExt as _;
use std::path::Path;
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

/// Flips the last byte of the namespace's only segment: the payload of
/// the frame appended last.
fn damage_last_frame(dir: &Path, namespace: &str) {
    let segment = only_segment(dir, namespace);
    let len = fs::metadata(&segment).unwrap().len();
    let file = fs::OpenOptions::new().write(true).open(&segment).unwrap();
    file.write_all_at(&[0xff], len - 1).unwrap();
}

#[test]
fn a_private_stores_events_leave_the_registry_untouched() {
    let _serial = serial();
    let before = mom_obs::render_prometheus();
    let dir = temp_dir("faults");
    let store = Store::new(Some(dir.clone()));
    let (good, bad) = (key_of("private good"), key_of("private bad"));
    store.put(NS_RESULT, good, b"good".to_vec());
    assert!(store.get(NS_RESULT, good).is_some());
    store.put_disk(NS_RESULT, bad, b"bad");
    damage_last_frame(&dir, NS_RESULT);
    let reader = Store::new(Some(dir.clone()));
    assert!(reader.get_disk(NS_RESULT, good).is_some());
    assert!(reader.get_disk(NS_RESULT, bad).is_none());
    // A disk tier under a regular file: the append fails and is retried.
    Store::new(Some(only_segment(&dir, NS_RESULT))).put(NS_RESULT, bad, b"bad".to_vec());

    let (wrote, read) = (store.counters(NS_RESULT), reader.counters(NS_RESULT));
    assert_eq!((wrote.fills, wrote.memory_hits), (2, 1));
    assert_eq!((read.disk_hits, read.misses, read.invalid), (1, 1, 1));
    assert_eq!(mom_obs::render_prometheus(), before);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn the_global_stores_counters_are_its_registry_series() {
    const NS: &str = "registry-probe";
    let _serial = serial();
    let dir = temp_dir("faults");
    let config = StoreConfig {
        dir: Some(dir.clone()),
        cold: false,
    };
    mom_store::configure(config).unwrap();
    let store = mom_store::global();
    let series = |family: &str, labels: &str| format!("{family}{{namespace=\"{NS}\"{labels}}}");
    let fills = series("momsim_store_fills_total", "");

    // A namespace's fill series is absent until its first fill.
    assert!(store.get(NS, key_of("absent")).is_none());
    assert!(!mom_obs::render_prometheus().contains(&fills));
    let (memory, disk, damaged) = (key_of("memory"), key_of("disk"), key_of("damaged"));
    store.put(NS, memory, b"memory".to_vec());
    assert!(mom_obs::render_prometheus().contains(&format!("{fills} 1\n")));

    // Memory hits from both tiers, a disk hit, a damaged frame (invalid,
    // and its lookup a miss) and a write that fails once.
    assert!(store.get(NS, memory).is_some());
    store.note_memory_hit(NS);
    store.put_disk(NS, disk, b"disk");
    assert!(store.get_disk(NS, disk).is_some());
    store.put_disk(NS, damaged, b"damaged");
    damage_last_frame(&dir, NS);
    assert!(store.get_disk(NS, damaged).is_none());
    faults::install(FaultPlan::new(16).with_site(FaultSite::StoreWrite, 1.0, Some(1)));
    store.put(NS, key_of("retried"), b"retried".to_vec());
    faults::clear();

    let c = store.counters(NS);
    let expected = TierCounters {
        memory_hits: 2,
        disk_hits: 1,
        misses: 2,
        fills: 4,
        invalid: 1,
    };
    assert_eq!(c, expected);
    let lookups = |outcome: &str| {
        let labels = format!(",outcome=\"{outcome}\"");
        series("momsim_store_lookups_total", &labels)
    };
    let rendered: Vec<String> = mom_obs::render_prometheus()
        .lines()
        .filter(|line| line.starts_with("momsim_store_") && line.contains(NS))
        .map(str::to_string)
        .collect();
    assert_eq!(
        rendered,
        [
            format!("{fills} {}", c.fills),
            format!("{} {}", series("momsim_store_invalid_total", ""), c.invalid),
            format!("{} {}", lookups("disk_hit"), c.disk_hits),
            format!("{} {}", lookups("memory_hit"), c.memory_hits),
            format!("{} {}", lookups("miss"), c.misses),
            format!("{} 1", series("momsim_store_write_retries_total", "")),
        ]
    );
    let _ = fs::remove_dir_all(dir);
}
