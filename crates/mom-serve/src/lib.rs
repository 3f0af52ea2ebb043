//! A job-queue simulation daemon over the `momsim` experiment registry.
//!
//! `momsim serve` turns the batch sweep into a long-running service:
//! clients POST experiment specifications (registered names or the same
//! axis vocabulary the CLI parses) to `/jobs`; the daemon decomposes each
//! submission into individual grid points, deduplicates them against the
//! persistent artifact store **and** against the in-flight points of every
//! other job, and shards only the missing points across a fixed worker
//! pool running the same store-fronted fill paths the batch sweep uses.
//! Results land in the store, so anything the daemon computes is served to
//! later submissions (and to `momsim sweep`) for free.
//!
//! The wire format is the workspace's own JSON dialect: [`json`] is the
//! hand-rolled parser matching the emitter in `mom_bench::json` (the build
//! environment is offline, so there is no serialisation crate), [`http`]
//! is a minimal HTTP/1.1 reader/writer over `std::net`, [`wire`] maps
//! parsed documents to experiment specs and snapshots back to documents,
//! [`queue`] is the deduplicating job queue plus worker pool (with
//! supervised, retrying workers), [`journal`] is the crash-safe job
//! journal recovery replays on startup (written through the store's log,
//! so the store and the journal share one crash contract), and
//! [`serve`](mod@serve) binds them to a TCP listener.  [`client`] and [`cli`] are the `momsim submit` / `status` /
//! `report` / `shutdown` side.

#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod http;
pub mod journal;
pub mod json;
pub mod queue;
pub mod serve;
pub mod wire;

pub use journal::{Journal, Record, RecoverySummary};
pub use json::{parse, ParseError};
pub use queue::{Daemon, JobId, SubmitError, SubmitOutcome, Supervision};
pub use serve::{serve, serve_with, serve_with_timeout, ServeConfig, Server};
