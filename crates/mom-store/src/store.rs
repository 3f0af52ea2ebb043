//! The two-tier store itself: frame format, atomic disk writes, per
//! namespace hit/miss accounting, the process-global instance and the
//! `gc`/`clear` maintenance operations behind `momsim cache`.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::hash::{hash_bytes, Key};

/// Namespace for verified functional traces (`mom-kernels`).
pub const NS_TRACE: &str = "trace";
/// Namespace for finished benchmark results (`mom-bench` grid points and
/// app-speedup rows).
pub const NS_RESULT: &str = "result";

/// Magic bytes opening every on-disk blob.
pub const FRAME_MAGIC: [u8; 4] = *b"MOMS";
/// On-disk frame format version; bump when the frame layout changes.
/// (Payload formats carry their own versions — this one only covers the
/// envelope.)
pub const FRAME_VERSION: u32 = 1;
/// magic(4) + version(4) + key(16) + payload_len(8) + payload_hash(16).
const FRAME_HEADER_LEN: usize = 48;

/// Hit/miss/fill counters for one namespace, accumulated per process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierCounters {
    /// Lookups answered by the in-memory tier (including typed memory
    /// tiers layered above the store, reported via
    /// [`Store::note_memory_hit`]).
    pub memory_hits: u64,
    /// Lookups answered by a valid on-disk blob.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Artifacts computed and written this process.
    pub fills: u64,
    /// On-disk blobs rejected as corrupt/truncated/stale (each also counts
    /// as a miss).
    pub invalid: u64,
}

impl TierCounters {
    /// Total lookups answered from the store (either tier).
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    fn add(&mut self, other: &TierCounters) {
        self.memory_hits += other.memory_hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.invalid += other.invalid;
    }
}

/// Per-namespace slice of a [`CacheReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceReport {
    /// Namespace name (`trace`, `result`, …).
    pub namespace: String,
    /// This process's hit/miss counters for the namespace.
    pub counters: TierCounters,
    /// Valid-looking blobs currently on disk.
    pub disk_blobs: u64,
    /// Bytes those blobs occupy.
    pub disk_bytes: u64,
}

/// The cache diagnostic surfaced by `momsim cache stats` and
/// `momsim bench`: per-namespace memory hits / disk hits / fills plus the
/// on-disk footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheReport {
    /// The disk tier's directory, if one is configured.
    pub dir: Option<PathBuf>,
    /// Whether the store is currently enabled (`false` under `--cold`).
    pub enabled: bool,
    /// One row per namespace, sorted by name.
    pub namespaces: Vec<NamespaceReport>,
}

impl CacheReport {
    /// Sum of all namespace counters.
    pub fn totals(&self) -> TierCounters {
        let mut total = TierCounters::default();
        for ns in &self.namespaces {
            total.add(&ns.counters);
        }
        total
    }

    /// Total bytes on disk across namespaces.
    pub fn disk_bytes(&self) -> u64 {
        self.namespaces.iter().map(|ns| ns.disk_bytes).sum()
    }

    /// Human-readable table.
    pub fn format(&self) -> String {
        let mut out = String::new();
        match &self.dir {
            Some(dir) => out.push_str(&format!("store: {}", dir.display())),
            None => out.push_str("store: (no disk tier)"),
        }
        if !self.enabled {
            out.push_str(" [disabled]");
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12}\n",
            "namespace", "mem hits", "disk hits", "misses", "fills", "blobs", "bytes"
        ));
        let mut rows: Vec<&NamespaceReport> = self.namespaces.iter().collect();
        rows.sort_by(|a, b| a.namespace.cmp(&b.namespace));
        for ns in rows {
            out.push_str(&format!(
                "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12}\n",
                ns.namespace,
                ns.counters.memory_hits,
                ns.counters.disk_hits,
                ns.counters.misses,
                ns.counters.fills,
                ns.disk_blobs,
                ns.disk_bytes
            ));
        }
        let total = self.totals();
        out.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12}\n",
            "total",
            total.memory_hits,
            total.disk_hits,
            total.misses,
            total.fills,
            self.namespaces.iter().map(|n| n.disk_blobs).sum::<u64>(),
            self.disk_bytes()
        ));
        out
    }
}

/// Outcome of [`Store::gc`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Blobs (and stray temp files) removed.
    pub removed_files: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
    /// Valid blobs kept.
    pub kept_files: u64,
    /// Bytes still occupied.
    pub kept_bytes: u64,
}

type MemoryTier = RwLock<HashMap<(String, Key), Arc<Vec<u8>>>>;

/// One accounting event, mirrored into the metrics registry for the
/// process-global store (see [`Store::mirror`]).
#[derive(Debug, Clone, Copy)]
enum StoreEvent {
    MemoryHit,
    DiskHit,
    Miss,
    Fill,
    Invalid,
}

/// A two-tier content-addressed blob store.
///
/// `get`/`put` never fail: the disk tier is best-effort (an unreadable or
/// unwritable directory degrades to the memory tier; a damaged blob
/// degrades to a miss). Only the explicit maintenance operations
/// ([`Store::clear`], [`Store::gc`]) surface I/O errors.
#[derive(Debug)]
pub struct Store {
    dir: Option<PathBuf>,
    enabled: bool,
    memory: MemoryTier,
    counters: Mutex<HashMap<String, TierCounters>>,
    tmp_counter: AtomicU64,
    /// Mirror counter bumps into the `mom-obs` metrics registry.  Set only
    /// on the process-global store: throwaway test stores must not pollute
    /// process metrics, and `/metrics` must agree with the global store's
    /// [`CacheReport`].
    observed: bool,
}

impl Store {
    /// A store with an optional disk tier rooted at `dir`.
    pub fn new(dir: Option<PathBuf>) -> Store {
        Store {
            dir,
            enabled: true,
            memory: RwLock::new(HashMap::new()),
            counters: Mutex::new(HashMap::new()),
            tmp_counter: AtomicU64::new(0),
            observed: false,
        }
    }

    /// A store whose `get`/`put` are no-ops (the `--cold` mode). The disk
    /// directory is still remembered so `momsim cache` can inspect it.
    pub fn disabled(dir: Option<PathBuf>) -> Store {
        Store {
            enabled: false,
            ..Store::new(dir)
        }
    }

    /// The disk tier's directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether lookups and fills are active (false under `--cold`; see
    /// also [`bypass_guard`] for a scoped override).
    pub fn is_active(&self) -> bool {
        self.enabled && BYPASS_DEPTH.load(Ordering::Relaxed) == 0
    }

    fn blob_path(&self, namespace: &str, key: Key) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(namespace).join(format!("{}.bin", key.to_hex())))
    }

    fn bump<F: FnOnce(&mut TierCounters)>(&self, namespace: &str, f: F) {
        let mut counters = self.counters.lock().unwrap();
        f(counters.entry(namespace.to_string()).or_default());
    }

    /// Mirrors one accounting event into the process metrics registry —
    /// only for the [`global`] store (see the `observed` field), and only
    /// on paths already guarded by [`Store::is_active`], so bypassed perf
    /// measurements never touch the registry.
    fn mirror(&self, namespace: &str, event: StoreEvent) {
        if !self.observed {
            return;
        }
        const LOOKUPS: &str = "momsim_store_lookups_total";
        const LOOKUPS_HELP: &str = "Store lookups by namespace and which tier answered.";
        match event {
            StoreEvent::MemoryHit => mom_obs::counter_with(
                LOOKUPS,
                LOOKUPS_HELP,
                &[("namespace", namespace), ("outcome", "memory_hit")],
            )
            .inc(),
            StoreEvent::DiskHit => mom_obs::counter_with(
                LOOKUPS,
                LOOKUPS_HELP,
                &[("namespace", namespace), ("outcome", "disk_hit")],
            )
            .inc(),
            StoreEvent::Miss => mom_obs::counter_with(
                LOOKUPS,
                LOOKUPS_HELP,
                &[("namespace", namespace), ("outcome", "miss")],
            )
            .inc(),
            StoreEvent::Fill => mom_obs::counter_with(
                "momsim_store_fills_total",
                "Artifacts computed and written to the store.",
                &[("namespace", namespace)],
            )
            .inc(),
            StoreEvent::Invalid => {
                mom_obs::counter_with(
                    "momsim_store_invalid_total",
                    "On-disk blobs rejected as corrupt, truncated or stale.",
                    &[("namespace", namespace)],
                )
                .inc();
                self.mirror(namespace, StoreEvent::Miss);
            }
        }
    }

    /// Records a hit in a typed in-memory tier layered above this store
    /// (e.g. the `mom-kernels` trace cache's `Arc<KernelRun>` map), so the
    /// [`CacheReport`] covers both tiers even when the raw-blob memory
    /// tier is skipped.
    pub fn note_memory_hit(&self, namespace: &str) {
        if self.is_active() {
            self.bump(namespace, |c| c.memory_hits += 1);
            self.mirror(namespace, StoreEvent::MemoryHit);
        }
    }

    /// Two-tier lookup: memory first, then disk (promoting a disk hit into
    /// the memory tier). Returns `None` on a miss or when the store is
    /// inactive.
    pub fn get(&self, namespace: &str, key: Key) -> Option<Arc<Vec<u8>>> {
        if !self.is_active() {
            return None;
        }
        if let Some(blob) = self
            .memory
            .read()
            .unwrap()
            .get(&(namespace.to_string(), key))
            .cloned()
        {
            self.bump(namespace, |c| c.memory_hits += 1);
            self.mirror(namespace, StoreEvent::MemoryHit);
            return Some(blob);
        }
        match self.read_disk(namespace, key) {
            Some(payload) => {
                let blob = Arc::new(payload);
                self.memory
                    .write()
                    .unwrap()
                    .insert((namespace.to_string(), key), Arc::clone(&blob));
                Some(blob)
            }
            None => None,
        }
    }

    /// Disk-only lookup, for callers that keep their own typed memory tier.
    /// Counts a disk hit or a miss; never touches the raw memory tier.
    pub fn get_disk(&self, namespace: &str, key: Key) -> Option<Vec<u8>> {
        if !self.is_active() {
            return None;
        }
        self.read_disk(namespace, key)
    }

    fn read_disk(&self, namespace: &str, key: Key) -> Option<Vec<u8>> {
        let _span = mom_obs::span_fmt("store", || format!("read-disk {namespace}"));
        let path = self.blob_path(namespace, key);
        // An injected read fault behaves like an unreadable file: the
        // lookup degrades to a miss and the caller recomputes (the blob
        // itself stays on disk, untouched).
        let faulted = crate::faults::should_inject(crate::faults::FaultSite::StoreRead);
        let decoded = path.as_deref().filter(|_| !faulted).and_then(|p| {
            let bytes = fs::read(p).ok()?;
            Some(decode_frame(&bytes, key))
        });
        match decoded {
            Some(Ok(payload)) => {
                self.bump(namespace, |c| c.disk_hits += 1);
                self.mirror(namespace, StoreEvent::DiskHit);
                Some(payload)
            }
            Some(Err(())) => {
                // Damaged blob: drop it so the rewrite starts clean, and
                // report the corruption distinctly from a plain miss.
                if let Some(p) = path {
                    let _ = fs::remove_file(p);
                }
                self.bump(namespace, |c| {
                    c.invalid += 1;
                    c.misses += 1;
                });
                self.mirror(namespace, StoreEvent::Invalid);
                None
            }
            None => {
                self.bump(namespace, |c| c.misses += 1);
                self.mirror(namespace, StoreEvent::Miss);
                None
            }
        }
    }

    /// Stores a blob in both tiers. Disk errors are swallowed (the store
    /// is an accelerator, not a system of record).
    pub fn put(&self, namespace: &str, key: Key, payload: Vec<u8>) {
        if !self.is_active() {
            return;
        }
        let _span = mom_obs::span_fmt("store", || format!("put {namespace}"));
        self.write_disk(namespace, key, &payload);
        self.memory
            .write()
            .unwrap()
            .insert((namespace.to_string(), key), Arc::new(payload));
        self.bump(namespace, |c| c.fills += 1);
        self.mirror(namespace, StoreEvent::Fill);
    }

    /// Stores a blob on disk only, for callers with their own memory tier.
    pub fn put_disk(&self, namespace: &str, key: Key, payload: &[u8]) {
        if !self.is_active() {
            return;
        }
        let _span = mom_obs::span_fmt("store", || format!("put-disk {namespace}"));
        self.write_disk(namespace, key, payload);
        self.bump(namespace, |c| c.fills += 1);
        self.mirror(namespace, StoreEvent::Fill);
    }

    fn write_disk(&self, namespace: &str, key: Key, payload: &[u8]) {
        let Some(path) = self.blob_path(namespace, key) else {
            return;
        };
        if self.try_write_disk(&path, key, payload).is_ok() {
            return;
        }
        // One retry: a transient failure (a full tmpfs, an injected fault)
        // should not silently cost the artifact its durability.  A second
        // failure is final — the store is an accelerator, so the payload
        // still serves from the memory tier and a later fill recomputes.
        if self.observed {
            mom_obs::counter_with(
                "momsim_store_write_retries_total",
                "Disk-tier fills retried after a write failure.",
                &[("namespace", namespace)],
            )
            .inc();
        }
        let _ = self.try_write_disk(&path, key, payload);
    }

    fn try_write_disk(&self, path: &Path, key: Key, payload: &[u8]) -> io::Result<()> {
        let parent = path.parent().expect("blob path always has a parent");
        fs::create_dir_all(parent)?;
        // Unique temp name per (process, write): concurrent sweeps sharing
        // the directory each rename a fully written file into place, so
        // readers only ever observe complete frames (last writer wins, and
        // both writers produced the same content-addressed bytes anyway).
        let tmp = parent.join(format!(
            ".tmp-{}-{}-{}",
            key.to_hex(),
            process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            use crate::faults::{injected_io_error, FaultSite};
            let mut file = fs::File::create(&tmp)?;
            let frame = encode_frame(key, payload);
            if let Some(fault) = injected_io_error(FaultSite::StoreWrite, "store write") {
                // A realistic mid-write failure: some bytes land, then the
                // write errors, leaving a torn temp file for cleanup.
                let _ = file.write_all(&frame[..frame.len() / 2]);
                return Err(fault);
            }
            file.write_all(&frame)?;
            file.sync_all()?;
            drop(file);
            if let Some(fault) = injected_io_error(FaultSite::StoreRename, "store rename") {
                return Err(fault);
            }
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// This process's counters for one namespace.
    pub fn counters(&self, namespace: &str) -> TierCounters {
        self.counters
            .lock()
            .unwrap()
            .get(namespace)
            .copied()
            .unwrap_or_default()
    }

    /// The full diagnostic: process counters plus a disk scan.
    pub fn report(&self) -> CacheReport {
        let mut names: Vec<String> = self.counters.lock().unwrap().keys().cloned().collect();
        if let Some(dir) = &self.dir {
            if let Ok(entries) = fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if entry.path().is_dir() {
                        if let Some(name) = entry.file_name().to_str() {
                            names.push(name.to_string());
                        }
                    }
                }
            }
        }
        names.sort();
        names.dedup();
        let namespaces = names
            .into_iter()
            .map(|namespace| {
                let (disk_blobs, disk_bytes) = self.scan_namespace(&namespace);
                NamespaceReport {
                    counters: self.counters(&namespace),
                    namespace,
                    disk_blobs,
                    disk_bytes,
                }
            })
            .collect();
        CacheReport {
            dir: self.dir.clone(),
            enabled: self.enabled,
            namespaces,
        }
    }

    fn scan_namespace(&self, namespace: &str) -> (u64, u64) {
        let Some(dir) = self.dir.as_ref().map(|d| d.join(namespace)) else {
            return (0, 0);
        };
        let Ok(entries) = fs::read_dir(dir) else {
            return (0, 0);
        };
        let (mut blobs, mut bytes) = (0, 0);
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "bin") {
                if let Ok(meta) = entry.metadata() {
                    blobs += 1;
                    bytes += meta.len();
                }
            }
        }
        (blobs, bytes)
    }

    /// Deletes every blob (both tiers). Returns (files, bytes) removed.
    pub fn clear(&self) -> io::Result<(u64, u64)> {
        self.memory.write().unwrap().clear();
        let Some(dir) = &self.dir else {
            return Ok((0, 0));
        };
        let (mut files, mut bytes) = (0, 0);
        for ns in namespace_dirs(dir)? {
            for entry in fs::read_dir(&ns)?.flatten() {
                let path = entry.path();
                if path.is_file() {
                    bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                    fs::remove_file(&path)?;
                    files += 1;
                }
            }
        }
        Ok((files, bytes))
    }

    /// Removes every on-disk file that is not a valid, current-version
    /// blob stored under its own key: damaged frames, stale format
    /// versions, misnamed files and abandoned temp files.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.memory.write().unwrap().clear();
        let mut report = GcReport::default();
        let Some(dir) = &self.dir else {
            return Ok(report);
        };
        for ns in namespace_dirs(dir)? {
            for entry in fs::read_dir(&ns)?.flatten() {
                let path = entry.path();
                if !path.is_file() {
                    continue;
                }
                let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                if blob_is_valid(&path) {
                    report.kept_files += 1;
                    report.kept_bytes += len;
                } else {
                    fs::remove_file(&path)?;
                    report.removed_files += 1;
                    report.removed_bytes += len;
                }
            }
        }
        Ok(report)
    }
}

fn namespace_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    match fs::read_dir(dir) {
        Ok(entries) => Ok(entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Is this file a well-formed, current-version blob stored under its own
/// key (`<key>.bin` whose frame echoes `key`)?
fn blob_is_valid(path: &Path) -> bool {
    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
        return false;
    };
    if path.extension().is_none_or(|e| e != "bin") {
        return false;
    }
    let Some(key) = Key::from_hex(stem) else {
        return false;
    };
    match fs::read(path) {
        Ok(bytes) => decode_frame(&bytes, key).is_ok(),
        Err(_) => false,
    }
}

/// Wraps a payload in the self-validating frame.
fn encode_frame(key: Key, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    frame.extend_from_slice(&key.0.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&hash_bytes(payload).0.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Validates a frame read for `expected_key` and extracts the payload.
/// Any defect — truncation, bad magic, stale version, key mismatch,
/// checksum mismatch, trailing bytes — is an `Err(())`, which the store
/// turns into a miss.
fn decode_frame(bytes: &[u8], expected_key: Key) -> Result<Vec<u8>, ()> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(());
    }
    if bytes[0..4] != FRAME_MAGIC {
        return Err(());
    }
    if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != FRAME_VERSION {
        return Err(());
    }
    if u128::from_le_bytes(bytes[8..24].try_into().unwrap()) != expected_key.0 {
        return Err(());
    }
    let len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let checksum = u128::from_le_bytes(bytes[32..48].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER_LEN..];
    if payload.len() != len {
        return Err(());
    }
    if hash_bytes(payload).0 != checksum {
        return Err(());
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// Process-global store + scoped bypass.

static GLOBAL: OnceLock<Store> = OnceLock::new();
static PENDING_CONFIG: Mutex<Option<StoreConfig>> = Mutex::new(None);
static BYPASS_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Configuration for the process-global store, normally set by `momsim`'s
/// `--store DIR` / `--cold` flags before any simulation runs.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Disk tier directory; `None` means [`default_dir`].
    pub dir: Option<PathBuf>,
    /// `false` disables the store entirely (`--cold`).
    pub cold: bool,
}

/// Installs the configuration the global store will be built from.
/// Fails if the global store was already instantiated with a different
/// effective configuration.
pub fn configure(config: StoreConfig) -> Result<(), String> {
    let mut pending = PENDING_CONFIG.lock().unwrap();
    if let Some(store) = GLOBAL.get() {
        let dir = config.dir.unwrap_or_else(default_dir);
        if store.dir() != Some(dir.as_path()) || store.enabled == config.cold {
            return Err(
                "artifact store already initialised with a different configuration; \
                 pass --store/--cold before any simulation runs"
                    .to_string(),
            );
        }
        return Ok(());
    }
    *pending = Some(config);
    Ok(())
}

/// The process-global store, created on first use from the pending
/// [`configure`]d options (or the defaults: [`default_dir`], enabled).
pub fn global() -> &'static Store {
    GLOBAL.get_or_init(|| {
        let config = PENDING_CONFIG.lock().unwrap().take().unwrap_or_default();
        let dir = config.dir.unwrap_or_else(default_dir);
        let mut store = if config.cold {
            Store::disabled(Some(dir))
        } else {
            Store::new(Some(dir))
        };
        store.observed = true;
        store
    })
}

/// Refreshes the registry's store gauges (`momsim_store_disk_blobs` /
/// `momsim_store_disk_bytes` per namespace) from a disk scan of the
/// process-global store.  Called at scrape/snapshot time — gauges describe
/// a current footprint, not a stream of events.  A disabled store
/// (`--cold`) publishes none: the run did not use the directory, so its
/// footprint says nothing about the run.
pub fn publish_gauges() {
    let store = global();
    if !store.enabled {
        return;
    }
    let report = store.report();
    for ns in &report.namespaces {
        mom_obs::gauge_with(
            "momsim_store_disk_blobs",
            "Valid blobs currently in the store's disk tier.",
            &[("namespace", &ns.namespace)],
        )
        .set(ns.disk_blobs as i64);
        mom_obs::gauge_with(
            "momsim_store_disk_bytes",
            "Bytes occupied by the store's disk tier.",
            &[("namespace", &ns.namespace)],
        )
        .set(ns.disk_bytes as i64);
    }
}

/// The default disk-tier directory: `target/mom-store` next to the
/// workspace's `Cargo.lock` (walking up from the current directory), so
/// the store lives under the build tree — ignored by git and invisible to
/// the CI BENCH freshness diff. Overridable with `MOMSIM_STORE`.
pub fn default_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MOMSIM_STORE") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut probe = cwd.as_path();
    loop {
        if probe.join("Cargo.lock").is_file() {
            return probe.join("target").join("mom-store");
        }
        match probe.parent() {
            Some(parent) => probe = parent,
            None => return cwd.join("target").join("mom-store"),
        }
    }
}

/// While held, *every* store in the process behaves as disabled. Used by
/// the perf subsystem so wall-time measurements exercise the real
/// simulation path rather than reading yesterday's results back.
#[derive(Debug)]
pub struct BypassGuard(());

/// Suspends the store for the guard's lifetime (re-entrant).
pub fn bypass_guard() -> BypassGuard {
    BYPASS_DEPTH.fetch_add(1, Ordering::Relaxed);
    BypassGuard(())
}

impl Drop for BypassGuard {
    fn drop(&mut self) {
        BYPASS_DEPTH.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Hasher;
    use std::sync::atomic::AtomicU32;

    fn temp_store() -> (Store, PathBuf) {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mom-store-test-{}-{}",
            process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        (Store::new(Some(dir.clone())), dir)
    }

    fn key_of(text: &str) -> Key {
        let mut h = Hasher::new();
        h.write_str(text);
        h.finish()
    }

    #[test]
    fn memory_then_disk_then_miss() {
        let (store, dir) = temp_store();
        let key = key_of("blob");
        assert!(store.get(NS_TRACE, key).is_none());
        store.put(NS_TRACE, key, b"payload".to_vec());
        assert_eq!(store.get(NS_TRACE, key).unwrap().as_slice(), b"payload");
        // A second store over the same directory has a cold memory tier
        // but hits the disk tier.
        let reborn = Store::new(Some(dir.clone()));
        assert_eq!(reborn.get(NS_TRACE, key).unwrap().as_slice(), b"payload");
        let counters = reborn.counters(NS_TRACE);
        assert_eq!(counters.disk_hits, 1);
        // And the promoted copy now serves from memory.
        assert_eq!(reborn.get(NS_TRACE, key).unwrap().as_slice(), b"payload");
        assert_eq!(reborn.counters(NS_TRACE).memory_hits, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn disabled_store_never_hits() {
        let (store, dir) = temp_store();
        let cold = Store::disabled(store.dir().map(Path::to_path_buf));
        let key = key_of("cold");
        cold.put(NS_RESULT, key, b"x".to_vec());
        assert!(cold.get(NS_RESULT, key).is_none());
        assert_eq!(cold.counters(NS_RESULT), TierCounters::default());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn bypass_guard_suspends_and_restores() {
        let (store, dir) = temp_store();
        let key = key_of("bypass");
        store.put(NS_RESULT, key, b"x".to_vec());
        {
            let _guard = bypass_guard();
            assert!(store.get(NS_RESULT, key).is_none());
            let _inner = bypass_guard();
            assert!(!store.is_active());
        }
        assert!(store.get(NS_RESULT, key).is_some());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn report_counts_blobs_and_bytes() {
        let (store, dir) = temp_store();
        store.put(NS_TRACE, key_of("a"), vec![0u8; 10]);
        store.put(NS_RESULT, key_of("b"), vec![0u8; 20]);
        let report = store.report();
        assert_eq!(report.namespaces.len(), 2);
        let trace = report
            .namespaces
            .iter()
            .find(|n| n.namespace == NS_TRACE)
            .unwrap();
        assert_eq!(trace.disk_blobs, 1);
        assert_eq!(trace.disk_bytes, (FRAME_HEADER_LEN + 10) as u64);
        assert_eq!(report.totals().fills, 2);
        assert!(report.format().contains("trace"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn clear_and_gc() {
        let (store, dir) = temp_store();
        let good = key_of("good");
        store.put(NS_TRACE, good, b"keep".to_vec());
        // A stray temp file and a misnamed copy are both garbage.
        let ns = dir.join(NS_TRACE);
        fs::write(ns.join(".tmp-zzz-1-1"), b"junk").unwrap();
        let wrong = ns.join(format!("{}.bin", key_of("other").to_hex()));
        fs::copy(ns.join(format!("{}.bin", good.to_hex())), &wrong).unwrap();
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed_files, 2);
        assert_eq!(gc.kept_files, 1);
        assert!(store.get(NS_TRACE, good).is_some());
        let (files, _) = store.clear().unwrap();
        assert_eq!(files, 1);
        assert!(store.get(NS_TRACE, good).is_none());
        let _ = fs::remove_dir_all(dir);
    }
}
