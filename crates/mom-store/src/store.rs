//! The two-tier store itself: the segment logs of the disk tier, one
//! record per namespace (memory tier, log and counters), the
//! process-global instance and the `gc`/`clear` maintenance operations
//! behind `momsim cache`.
//!
//! A namespace's hit, miss, fill, invalid and write-retry counts live in
//! one counter each.  On the process-global store those counters are the
//! metrics registry's own `momsim_store_*` series, registered on their
//! first increment, so [`Store::counters`] and `/metrics` read the same
//! values; any other store keeps private counters the registry never sees.
//!
//! # The disk tier: one segment log per namespace
//!
//! Every namespace directory holds **segments**, `<pid>-<n>.log` files
//! written through [`crate::log`], as the daemon's job journal is.  A
//! process appends only to its own segment, created with `create_new`
//! and held under an exclusive `File::try_lock` while the process lives,
//! so two writers never share a file.
//!
//! * **Index.**  A namespace is indexed on first use by walking the frame
//!   headers of every segment (a key found twice keeps the earlier copy
//!   as a spare).  A walk that stops before the end of its segment — a
//!   torn tail — counts once as `invalid`.  The index maps a key to
//!   (segment, offset, length) only; payloads stay on disk.
//! * **Reads** are positioned reads followed by the full frame check, so
//!   a flipped or torn frame is never served.  A frame that fails its
//!   check leaves the index and the key's next spare copy, if any, is
//!   tried; without one the lookup is a miss and the caller's recompute
//!   appends a fresh copy.
//! * **Writes** append frames under the namespace lock, and a batch
//!   ([`Store::put_all`]) pays one commit; a put returns once committed.
//!   Retries count as write retries.  A process's own frames enter its
//!   index once committed; a commit that fails twice leaves them
//!   unindexed.
//! * **Visibility.**  A process sees what other processes had committed
//!   when it indexed the namespace, plus its own writes; a miss never
//!   re-scans.  The store is a cache, so a frame appended elsewhere
//!   afterwards costs at most a recomputation.
//! * **Maintenance.**  [`Store::gc`] rewrites one valid frame per key of
//!   every segment no live writer holds into one new segment and deletes
//!   the rest (legacy per-blob `*.bin` and `.tmp-*` files too);
//!   [`Store::clear`] deletes every segment no live writer holds.  Both
//!   retire this store's own segment first and report what live writers
//!   kept.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::faults::{should_inject, FaultSite};
use crate::hash::Key;
use crate::log::{check_frame, retry_once, sync_dir, walk_frames, LogFile};
use mom_obs::Counter;

/// Namespace for verified functional traces (`mom-kernels`).
pub const NS_TRACE: &str = "trace";
/// Namespace for finished benchmark results (`mom-bench` grid points and
/// app-speedup rows).
pub const NS_RESULT: &str = "result";

/// File extension of a segment.
const SEGMENT_EXT: &str = "log";

/// Hit/miss/fill counters for one namespace, accumulated per process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierCounters {
    /// Lookups answered by the in-memory tier (including typed memory
    /// tiers layered above the store, reported via
    /// [`Store::note_memory_hit`]).
    pub memory_hits: u64,
    /// Lookups answered by a valid on-disk frame.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Artifacts computed and written this process.
    pub fills: u64,
    /// On-disk frames rejected as corrupt, truncated or stale: a frame
    /// that fails its check on read (that lookup also counts as a miss),
    /// or a segment whose header walk stops before its end.
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
    /// Keys this process's index can serve from disk.
    pub disk_blobs: u64,
    /// Bytes the namespace's segments occupy.
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

/// Outcome of [`Store::gc`] and [`Store::clear`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Segments and stray files removed.
    pub removed_files: u64,
    /// Bytes those files occupied.
    pub removed_bytes: u64,
    /// Segments kept: the compacted one `gc` wrote (always 0 for `clear`).
    pub kept_files: u64,
    /// Bytes the kept segments occupy.
    pub kept_bytes: u64,
    /// Segments left alone because a live writer holds them.
    pub live_files: u64,
    /// Bytes those live segments occupy.
    pub live_bytes: u64,
}

/// Where one indexed frame sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameLoc {
    /// Slot of the segment in [`LogState::segments`].
    segment: u32,
    /// Byte offset of the frame's header.
    offset: u64,
    /// Header plus payload bytes.
    len: u64,
}

/// The in-process view of one namespace's log.
#[derive(Debug, Default)]
struct LogState {
    indexed: bool,
    index: HashMap<Key, FrameLoc>,
    /// Other copies of keys found more than once by the header walk,
    /// tried when the indexed copy fails its check.
    spares: HashMap<Key, Vec<FrameLoc>>,
    /// Every segment this process has opened: foreign ones it indexed, and
    /// its own.
    segments: Vec<Arc<LogFile>>,
    /// Slot of this process's live segment, once it has appended.
    writer: Option<u32>,
    /// Bumped by `clear`/`gc`: a commit that started before them must not
    /// index into the rebuilt state.
    epoch: u64,
}

const LOOKUPS: &str = "momsim_store_lookups_total";
const LOOKUPS_HELP: &str = "Store lookups by namespace and which tier answered.";

/// Registry family, help text and `outcome` label of each store counter,
/// indexed by the event constants below.
const SERIES: [(&str, &str, Option<&str>); 6] = [
    (LOOKUPS, LOOKUPS_HELP, Some("memory_hit")),
    (LOOKUPS, LOOKUPS_HELP, Some("disk_hit")),
    (LOOKUPS, LOOKUPS_HELP, Some("miss")),
    (
        "momsim_store_fills_total",
        "Artifacts computed and written to the store.",
        None,
    ),
    (
        "momsim_store_invalid_total",
        "On-disk frames rejected as corrupt, truncated or stale.",
        None,
    ),
    (
        "momsim_store_write_retries_total",
        "Disk-tier fills retried after a write failure.",
        None,
    ),
];
const MEMORY_HIT: usize = 0;
const DISK_HIT: usize = 1;
const MISS: usize = 2;
const FILL: usize = 3;
const INVALID: usize = 4;
const WRITE_RETRY: usize = 5;

/// Everything the store keeps about one namespace: its raw memory tier,
/// its log and its counters.
#[derive(Debug)]
struct Namespace {
    name: String,
    /// Counters are the metrics registry's own series (process-global
    /// store only: throwaway stores must not pollute process metrics).
    observed: bool,
    memory: RwLock<HashMap<Key, Arc<Vec<u8>>>>,
    state: Mutex<LogState>,
    /// One counter per [`SERIES`] entry, created on its first increment so
    /// a registry series appears only once its event has happened.
    counters: [OnceLock<Counter>; SERIES.len()],
}

impl Namespace {
    fn new(name: &str, observed: bool) -> Namespace {
        Namespace {
            name: name.to_string(),
            observed,
            memory: RwLock::default(),
            state: Mutex::default(),
            counters: Default::default(),
        }
    }

    /// Adds `n` to the counter of `event`.
    fn add(&self, event: usize, n: u64) {
        self.counters[event]
            .get_or_init(|| {
                let (family, help, outcome) = SERIES[event];
                let namespace = ("namespace", self.name.as_str());
                match (self.observed, outcome) {
                    (false, _) => Counter::default(),
                    (true, None) => mom_obs::counter_with(family, help, &[namespace]),
                    (true, Some(outcome)) => {
                        mom_obs::counter_with(family, help, &[namespace, ("outcome", outcome)])
                    }
                }
            })
            .add(n);
    }

    fn tier_counters(&self) -> TierCounters {
        let count = |event: usize| self.counters[event].get().map_or(0, Counter::get);
        TierCounters {
            memory_hits: count(MEMORY_HIT),
            disk_hits: count(DISK_HIT),
            misses: count(MISS),
            fills: count(FILL),
            invalid: count(INVALID),
        }
    }
}

/// Process-wide counter naming new segments, so two stores of one process
/// never race for a name.
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A two-tier content-addressed blob store.
///
/// `get`/`put` never fail: the disk tier is best-effort (an unreadable or
/// unwritable directory degrades to the memory tier; a damaged frame
/// degrades to a miss). Only the explicit maintenance operations
/// ([`Store::clear`], [`Store::gc`]) surface I/O errors.
#[derive(Debug)]
pub struct Store {
    dir: Option<PathBuf>,
    enabled: bool,
    namespaces: RwLock<HashMap<String, Arc<Namespace>>>,
    /// Whether new namespace records count into the metrics registry
    /// (the process-global store only).
    observed: bool,
}

impl Store {
    /// A store with an optional disk tier rooted at `dir`.
    pub fn new(dir: Option<PathBuf>) -> Store {
        Store {
            dir,
            enabled: true,
            namespaces: RwLock::new(HashMap::new()),
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

    /// The namespace's record, created empty on first use.
    fn namespace(&self, name: &str) -> Arc<Namespace> {
        if let Some(ns) = self.namespaces.read().expect("store namespaces").get(name) {
            return Arc::clone(ns);
        }
        let mut namespaces = self.namespaces.write().expect("store namespaces");
        Arc::clone(
            namespaces
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Namespace::new(name, self.observed))),
        )
    }

    /// Records a hit in a typed in-memory tier layered above this store
    /// (e.g. the `mom-kernels` trace cache's `Arc<KernelRun>` map), so the
    /// [`CacheReport`] covers both tiers even when the raw-blob memory
    /// tier is skipped.
    pub fn note_memory_hit(&self, namespace: &str) {
        if self.is_active() {
            self.namespace(namespace).add(MEMORY_HIT, 1);
        }
    }

    /// Two-tier lookup: memory first, then disk (promoting a disk hit into
    /// the memory tier). Returns `None` on a miss or when the store is
    /// inactive.
    pub fn get(&self, namespace: &str, key: Key) -> Option<Arc<Vec<u8>>> {
        if !self.is_active() {
            return None;
        }
        let ns = self.namespace(namespace);
        if let Some(blob) = ns.memory.read().unwrap().get(&key).cloned() {
            ns.add(MEMORY_HIT, 1);
            return Some(blob);
        }
        let blob = Arc::new(self.read_disk(&ns, key)?);
        ns.memory.write().unwrap().insert(key, Arc::clone(&blob));
        Some(blob)
    }

    /// Disk-only lookup, for callers that keep their own typed memory tier.
    /// Counts a disk hit or a miss; never touches the raw memory tier.
    pub fn get_disk(&self, namespace: &str, key: Key) -> Option<Vec<u8>> {
        if !self.is_active() {
            return None;
        }
        self.read_disk(&self.namespace(namespace), key)
    }

    /// Indexes the namespace's segments unless this process already has.
    fn ensure_indexed(&self, ns: &Namespace, state: &mut LogState) {
        if state.indexed {
            return;
        }
        state.indexed = true;
        let Some(dir) = &self.dir else {
            return;
        };
        let torn = index_segments(&dir.join(&ns.name), state);
        if torn > 0 {
            ns.add(INVALID, torn);
        }
    }

    fn read_disk(&self, ns: &Namespace, key: Key) -> Option<Vec<u8>> {
        let _span = mom_obs::span_fmt("store", || format!("read-disk {}", ns.name));
        // An injected read fault behaves like an unreadable file: the
        // lookup degrades to a miss and the caller recomputes (the frame
        // itself stays on disk, untouched).
        let faulted = should_inject(FaultSite::StoreRead);
        let payload = match &self.dir {
            Some(_) if !faulted => self.read_indexed(ns, key),
            _ => None,
        };
        ns.add(if payload.is_some() { DISK_HIT } else { MISS }, 1);
        payload
    }

    /// Reads and checks the indexed copy of `key`, falling back to its
    /// spare copies; every copy that fails its check leaves the index and
    /// counts as `invalid`.
    fn read_indexed(&self, ns: &Namespace, key: Key) -> Option<Vec<u8>> {
        loop {
            let (loc, log, epoch) = {
                let mut state = ns.state.lock().expect("store log state");
                self.ensure_indexed(ns, &mut state);
                let loc = *state.index.get(&key)?;
                let log = Arc::clone(&state.segments[loc.segment as usize]);
                (loc, log, state.epoch)
            };
            let decoded = log.read(loc.offset, loc.len, key);
            if decoded.is_some() {
                return decoded;
            }
            ns.add(INVALID, 1);
            let mut state = ns.state.lock().expect("store log state");
            if state.epoch == epoch && state.index.get(&key) == Some(&loc) {
                match state.spares.get_mut(&key).and_then(Vec::pop) {
                    Some(spare) => state.index.insert(key, spare),
                    None => state.index.remove(&key),
                };
            }
        }
    }

    /// Stores a blob in both tiers. Disk errors are swallowed (the store
    /// is an accelerator, not a system of record).
    pub fn put(&self, namespace: &str, key: Key, payload: Vec<u8>) {
        self.put_all(namespace, vec![(key, payload)]);
    }

    /// Stores a batch of blobs in both tiers with one disk commit: every
    /// frame is appended, then one `sync_data` makes them all durable.
    pub fn put_all(&self, namespace: &str, blobs: Vec<(Key, Vec<u8>)>) {
        if !self.is_active() || blobs.is_empty() {
            return;
        }
        let _span = mom_obs::span_fmt("store", || format!("put {namespace}"));
        let ns = self.namespace(namespace);
        let frames: Vec<(Key, &[u8])> = blobs.iter().map(|(k, p)| (*k, p.as_slice())).collect();
        self.write_disk(&ns, &frames);
        let filled = blobs.len() as u64;
        ns.memory.write().unwrap().extend(
            blobs
                .into_iter()
                .map(|(key, payload)| (key, Arc::new(payload))),
        );
        ns.add(FILL, filled);
    }

    /// Stores a blob on disk only, for callers with their own memory tier.
    pub fn put_disk(&self, namespace: &str, key: Key, payload: &[u8]) {
        if !self.is_active() {
            return;
        }
        let _span = mom_obs::span_fmt("store", || format!("put-disk {namespace}"));
        let ns = self.namespace(namespace);
        self.write_disk(&ns, &[(key, payload)]);
        ns.add(FILL, 1);
    }

    /// Appends one frame per blob to this process's segment under the
    /// namespace lock (opening the segment first if there is none), then
    /// commits them and indexes them.  A frame whose append fails twice is
    /// dropped from the disk tier; its payload still serves from memory.
    fn write_disk(&self, ns: &Namespace, frames: &[(Key, &[u8])]) {
        let Some(dir) = &self.dir else {
            return;
        };
        let ns_dir = dir.join(&ns.name);
        let retry = || ns.add(WRITE_RETRY, 1);
        let mut appended = Vec::new();
        let (epoch, log, end) = {
            let mut state = ns.state.lock().expect("store log state");
            self.ensure_indexed(ns, &mut state);
            for &(key, payload) in frames {
                let Ok(segment) = retry_once(retry, || state.writer(&ns_dir)) else {
                    continue;
                };
                let log = &state.segments[segment as usize];
                if let Ok((offset, len)) = log.append(key, payload, retry) {
                    appended.push((
                        key,
                        FrameLoc {
                            segment,
                            offset,
                            len,
                        },
                    ));
                }
            }
            let Some(&(_, last)) = appended.last() else {
                return;
            };
            let log = Arc::clone(&state.segments[last.segment as usize]);
            (state.epoch, log, last.offset + last.len)
        };
        if log.commit(end, retry).is_ok() {
            let mut state = ns.state.lock().expect("store log state");
            // `clear`/`gc` may have retired the segment meanwhile.
            if state.epoch == epoch {
                state.index.extend(appended);
            }
        }
    }

    /// This process's counters for one namespace.
    pub fn counters(&self, namespace: &str) -> TierCounters {
        self.namespaces
            .read()
            .expect("store namespaces")
            .get(namespace)
            .map_or_else(TierCounters::default, |ns| ns.tier_counters())
    }

    /// The full diagnostic: process counters, the index's key count and
    /// the segments' bytes per namespace.
    pub fn report(&self) -> CacheReport {
        let mut names: Vec<String> = self
            .namespaces
            .read()
            .expect("store namespaces")
            .keys()
            .cloned()
            .collect();
        if let Some(dir) = &self.dir {
            if let Ok(dirs) = namespace_dirs(dir) {
                names.extend(
                    dirs.iter()
                        .filter_map(|d| d.file_name()?.to_str().map(str::to_string)),
                );
            }
        }
        names.sort();
        names.dedup();
        let namespaces = names
            .into_iter()
            .map(|namespace| {
                let (disk_blobs, disk_bytes) = match &self.dir {
                    Some(dir) => {
                        let ns = self.namespace(&namespace);
                        let mut state = ns.state.lock().expect("store log state");
                        self.ensure_indexed(&ns, &mut state);
                        let bytes = segment_files(&dir.join(&namespace))
                            .iter()
                            .map(|s| s.len)
                            .sum();
                        (state.index.len() as u64, bytes)
                    }
                    None => (0, 0),
                };
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

    /// Empties every namespace's memory tier, then runs `f` over every
    /// namespace directory with that namespace's log locked and reset:
    /// this store's own segment is retired (the next put opens a new one)
    /// and the namespace is re-indexed on next use.
    fn maintain<F>(&self, mut f: F) -> io::Result<GcReport>
    where
        F: FnMut(&Path, &mut GcReport) -> io::Result<()>,
    {
        for ns in self.namespaces.read().expect("store namespaces").values() {
            ns.memory.write().unwrap().clear();
        }
        let mut report = GcReport::default();
        let Some(dir) = &self.dir else {
            return Ok(report);
        };
        for ns_dir in namespace_dirs(dir)? {
            let Some(name) = ns_dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let ns = self.namespace(name);
            let mut state = ns.state.lock().expect("store log state");
            *state = LogState {
                epoch: state.epoch + 1,
                ..LogState::default()
            };
            f(&ns_dir, &mut report)?;
        }
        Ok(report)
    }

    /// Empties both tiers: deletes every segment no live writer holds and
    /// every stray file.
    pub fn clear(&self) -> io::Result<GcReport> {
        self.maintain(|ns_dir, report| {
            let (dead, stray) = claim_dead_segments(ns_dir, report)?;
            remove_files(ns_dir, dead.iter().map(|s| (&s.path, s.len)), report)?;
            remove_files(ns_dir, stray.iter().map(|(p, len)| (p, *len)), report)
        })
    }

    /// Compacts every namespace: the valid frames of every segment no live
    /// writer holds are rewritten, one per key, into one new segment; the
    /// old segments, damaged frames, torn tails and stray files (legacy
    /// per-blob `*.bin` files, abandoned `.tmp-*` files) are deleted.  A
    /// single dead segment that is already compact is kept as it is.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.maintain(|ns_dir, report| {
            let (dead, stray) = claim_dead_segments(ns_dir, report)?;
            let mut keep: HashSet<Key> = HashSet::new();
            let mut frames: Vec<u8> = Vec::new();
            let mut clean = true;
            for segment in &dead {
                let mut bytes = Vec::new();
                (&segment.file).read_to_end(&mut bytes)?;
                let (walked, end) = walk_frames(io::Cursor::new(&bytes), bytes.len() as u64);
                clean &= end == bytes.len() as u64;
                for (key, offset, len) in walked {
                    let frame = &bytes[offset as usize..(offset + len) as usize];
                    if check_frame(frame, key).is_none() || !keep.insert(key) {
                        clean = false;
                        continue;
                    }
                    frames.extend_from_slice(frame);
                }
            }
            if dead.len() == 1 && clean {
                report.kept_files += 1;
                report.kept_bytes += dead[0].len;
            } else {
                if !frames.is_empty() {
                    let file = create_segment(ns_dir)?;
                    file.write_all_at(&frames, 0)?;
                    file.sync_data()?;
                    report.kept_files += 1;
                    report.kept_bytes += frames.len() as u64;
                }
                remove_files(ns_dir, dead.iter().map(|s| (&s.path, s.len)), report)?;
            }
            remove_files(ns_dir, stray.iter().map(|(p, len)| (p, *len)), report)
        })
    }
}

impl LogState {
    /// The slot of this process's segment, created on first use (an
    /// unwritable directory fails here, before any frame is encoded).
    fn writer(&mut self, ns_dir: &Path) -> io::Result<u32> {
        if let Some(slot) = self.writer {
            return Ok(slot);
        }
        self.segments
            .push(Arc::new(LogFile::new(create_segment(ns_dir)?, 0)));
        let slot = (self.segments.len() - 1) as u32;
        self.writer = Some(slot);
        Ok(slot)
    }
}

/// Creates and locks a new segment in `ns_dir` (creating the directory if
/// needed), then fsyncs the directory so the segment's name survives a
/// machine crash.
fn create_segment(ns_dir: &Path) -> io::Result<File> {
    let new_dir = match fs::create_dir(ns_dir) {
        Ok(()) => true,
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => false,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            fs::create_dir_all(ns_dir)?;
            true
        }
        Err(e) => return Err(e),
    };
    let pid = std::process::id();
    let file = loop {
        let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = ns_dir.join(format!("{pid}-{seq}.{SEGMENT_EXT}"));
        match OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => break file,
            // A segment of an earlier process with the same pid.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    };
    file.try_lock().map_err(io::Error::from)?;
    sync_dir(ns_dir)?;
    if new_dir {
        if let Some(parent) = ns_dir.parent() {
            sync_dir(parent)?;
        }
    }
    Ok(file)
}

/// A segment file found in a namespace directory.
struct SegmentFile {
    path: PathBuf,
    len: u64,
}

/// The namespace's segments, sorted by name.
fn segment_files(ns_dir: &Path) -> Vec<SegmentFile> {
    let Ok(entries) = fs::read_dir(ns_dir) else {
        return Vec::new();
    };
    let mut segments: Vec<SegmentFile> = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == SEGMENT_EXT))
        .filter_map(|e| {
            let meta = e.metadata().ok().filter(|m| m.is_file())?;
            Some(SegmentFile {
                path: e.path(),
                len: meta.len(),
            })
        })
        .collect();
    segments.sort_by(|a, b| a.path.cmp(&b.path));
    segments
}

/// Indexes every segment of `ns_dir` into `state` by walking its frame
/// headers.  Returns how many segments stop before their end (torn or
/// damaged tails).
fn index_segments(ns_dir: &Path, state: &mut LogState) -> u64 {
    let mut torn = 0;
    for found in segment_files(ns_dir) {
        let Ok(file) = File::open(&found.path) else {
            continue;
        };
        let slot = state.segments.len() as u32;
        let reader = BufReader::with_capacity(64 << 10, &file);
        let (frames, end) = walk_frames(reader, found.len);
        torn += u64::from(end < found.len);
        for (key, offset, len) in frames {
            let loc = FrameLoc {
                segment: slot,
                offset,
                len,
            };
            if let Some(older) = state.index.insert(key, loc) {
                state.spares.entry(key).or_default().push(older);
            }
        }
        state.segments.push(Arc::new(LogFile::new(file, end)));
    }
    torn
}

/// A segment whose lock this process took: no live writer holds it.
struct DeadSegment {
    path: PathBuf,
    len: u64,
    /// Holds the lock until the segment is dealt with.
    file: File,
}

/// A file in a namespace directory that is not a segment, and its size.
type StrayFile = (PathBuf, u64);

/// Sorts a namespace directory's files into segments no live writer holds
/// (locked by this call), live segments (counted into `report`), and stray
/// files — anything that is not a segment: legacy `*.bin` blobs,
/// abandoned `.tmp-*` files.
fn claim_dead_segments(
    ns_dir: &Path,
    report: &mut GcReport,
) -> io::Result<(Vec<DeadSegment>, Vec<StrayFile>)> {
    let mut dead = Vec::new();
    for found in segment_files(ns_dir) {
        let file = OpenOptions::new().read(true).open(&found.path)?;
        match file.try_lock() {
            Ok(()) => dead.push(DeadSegment {
                path: found.path,
                len: found.len,
                file,
            }),
            Err(fs::TryLockError::WouldBlock) => {
                report.live_files += 1;
                report.live_bytes += found.len;
            }
            Err(fs::TryLockError::Error(e)) => return Err(e),
        }
    }
    let mut stray = Vec::new();
    for entry in fs::read_dir(ns_dir)?.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        if meta.is_file() && path.extension().is_none_or(|x| x != SEGMENT_EXT) {
            stray.push((path, meta.len()));
        }
    }
    Ok((dead, stray))
}

/// Deletes files, counting them into `report`, then fsyncs the directory.
fn remove_files<'a>(
    ns_dir: &Path,
    files: impl Iterator<Item = (&'a PathBuf, u64)>,
    report: &mut GcReport,
) -> io::Result<()> {
    for (path, len) in files {
        fs::remove_file(path)?;
        report.removed_files += 1;
        report.removed_bytes += len;
    }
    sync_dir(ns_dir)
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
    use crate::log::{FRAME_HEADER_LEN, FRAME_MAGIC};
    use std::sync::atomic::AtomicU32;

    fn temp_store() -> (Store, PathBuf) {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mom-store-test-{}-{}",
            std::process::id(),
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

    /// The namespace directory's file names, sorted.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    #[test]
    fn clear_and_gc() {
        let (store, dir) = temp_store();
        let good = key_of("good");
        store.put(NS_TRACE, good, b"keep".to_vec());
        store.put(NS_TRACE, good, b"keep".to_vec());
        // A stray temp file and a legacy per-blob file are both garbage;
        // so is the duplicate frame and a torn tail.
        let ns = dir.join(NS_TRACE);
        fs::write(ns.join(".tmp-zzz-1-1"), b"junk").unwrap();
        fs::write(ns.join(format!("{}.bin", key_of("other").to_hex())), b"old").unwrap();
        let own = files_in(&ns)
            .into_iter()
            .find(|n| n.ends_with(".log"))
            .unwrap();
        let frame = (FRAME_HEADER_LEN + 4) as u64;
        let mut segment = OpenOptions::new().append(true).open(ns.join(&own)).unwrap();
        std::io::Write::write_all(&mut segment, &FRAME_MAGIC).unwrap();
        drop(segment);
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed_files, 3, "{gc:?}");
        assert_eq!((gc.kept_files, gc.kept_bytes), (1, frame), "{gc:?}");
        assert_eq!(gc.live_files, 0, "gc retires the store's own segment");
        assert_eq!(files_in(&ns).len(), 1, "{:?}", files_in(&ns));
        assert!(store.get(NS_TRACE, good).is_some());
        // A compact segment survives a second gc untouched.
        let again = store.gc().unwrap();
        assert_eq!((again.removed_files, again.kept_files), (0, 1));
        let cleared = store.clear().unwrap();
        assert_eq!((cleared.removed_files, cleared.removed_bytes), (1, frame));
        assert!(store.get(NS_TRACE, good).is_none());
        assert!(files_in(&ns).is_empty());
        // The store keeps working after both.
        store.put(NS_TRACE, good, b"keep".to_vec());
        assert_eq!(
            Store::new(Some(dir.clone())).get_disk(NS_TRACE, good),
            Some(b"keep".to_vec())
        );
        let _ = fs::remove_dir_all(dir);
    }
}
