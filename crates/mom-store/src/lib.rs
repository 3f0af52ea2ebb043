//! # mom-store — two-tier content-addressed artifact store
//!
//! Simulation produces two kinds of expensive, perfectly reproducible
//! artifacts: verified functional traces (`mom-kernels`) and finished
//! timing-grid points (`mom-bench`).  Both are pure functions of their
//! inputs, so they are stored **content-addressed**: the key is a stable
//! 128-bit hash of everything the artifact depends on (program text, ISA,
//! seed, pipeline configuration, engine version, …) and a changed input
//! simply hashes to a different key — there is no invalidation protocol,
//! stale blobs are just never looked up again (`momsim cache gc` sweeps
//! them out).
//!
//! The store has two tiers:
//!
//! * an **in-memory** tier (a process-wide map of raw blobs) so repeated
//!   lookups inside one process are a hash-map read, and
//! * an **on-disk** tier so artifacts survive the process — a warm
//!   `momsim sweep` recomputes nothing.  Each namespace directory
//!   (`<dir>/<namespace>/`) holds append-only **segments**
//!   (`<pid>-<n>.log`), one per writing process, and each process indexes
//!   a namespace's segments once, on first use.
//!
//! Segments are written through [`log`], the crate's one append-only log
//! of self-validating frames ([frame](log::FRAME_VERSION): magic, format
//! version, key echo, payload length, payload checksum).  *Any* defect —
//! truncation, bit flips, a stale format version, a frame that is not the
//! key's — makes the read degrade to a **miss**; the caller recomputes
//! and appends a fresh copy.  Writes are group-committed: a batch of
//! frames is appended and made durable by one `sync_data`, shared with
//! concurrent committers.  A process sees what other processes had
//! committed when it indexed the namespace, plus its own writes (see the
//! [`store`] module docs).  The daemon's job journal is a second
//! [`LogFile`], so the store and the journal share one crash contract.
//!
//! The crate is dependency-free and knows nothing about traces or
//! simulation results; the typed codecs live with their types
//! (`mom_arch::codec` for traces, `mom_bench`'s result store for grid
//! points) on top of the [`bytes`] primitives here.

#![warn(missing_docs)]

pub mod bytes;
pub mod faults;
pub mod hash;
pub mod log;
pub mod store;

pub use bytes::{ByteReader, ByteWriter, CodecError};
pub use faults::{FaultPlan, FaultSite};
pub use hash::{Hasher, Key};
pub use log::{LogFile, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION};
pub use store::{
    bypass_guard, configure, default_dir, global, publish_gauges, BypassGuard, CacheReport,
    GcReport, NamespaceReport, Store, StoreConfig, TierCounters, NS_RESULT, NS_TRACE,
};
