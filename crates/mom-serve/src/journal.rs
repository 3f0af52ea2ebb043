//! The crash-safe job journal: an append-only, checksummed write-ahead
//! log in the store directory.
//!
//! The journal records *intent and progress*, never payloads: a
//! [`Record::Submit`] carries the original submission JSON (a few hundred
//! bytes), a [`Record::UnitDone`] just the finished unit's 128-bit store
//! key, and a [`Record::JobEnd`] the job's terminal state.  Unit payloads
//! live in the content-addressed store, so recovery is nearly free: on
//! startup the daemon replays the journal and re-admits every job without
//! a `JobEnd` through the ordinary submit path, where submit-time dedup
//! answers the already-finished units from the store instantly and only
//! genuinely lost work is rescheduled.
//!
//! Each record is framed `len(u32) | kind(u8) payload | checksum(u128)`
//! with the checksum covering kind and payload.  Replay stops at the
//! first damaged or truncated record — exactly the crash-consistency a
//! log needs, since a torn tail can only be the record being appended
//! when the process died.  After a clean drain the journal is truncated;
//! after recovery it is compacted down to the still-live submissions.

use mom_store::hash::hash_bytes;
use mom_store::{ByteReader, ByteWriter, Key};
use std::fs;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal's file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Frame bytes around the body: `len(u32)` before, `checksum(u128)`
/// after.  The body itself is at least one byte (the kind tag).
const FRAME_OVERHEAD: usize = 4 + 16;
/// Longest accepted record body (submissions are capped well below this
/// by the HTTP layer's body limit).
const MAX_RECORD: usize = 8 * 1024 * 1024;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A job was accepted; `body` is the submission JSON verbatim, so
    /// recovery re-parses it through the same wire path as a live submit.
    Submit {
        /// The job id the daemon assigned.
        job: u64,
        /// The submission document, verbatim.
        body: String,
    },
    /// A unit finished and its payload reached the store.
    UnitDone {
        /// The unit's content-addressed store key.
        key: Key,
    },
    /// A job reached a terminal state and needs no recovery.
    JobEnd {
        /// The finished job.
        job: u64,
        /// Terminal state name (`done`, `failed`, `cancelled`).
        state: String,
    },
}

impl Record {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Record::Submit { job, body } => {
                w.put_u8(1);
                w.put_u64(*job);
                w.put_str(body);
            }
            Record::UnitDone { key } => {
                w.put_u8(2);
                w.put_u128(key.0);
            }
            Record::JobEnd { job, state } => {
                w.put_u8(3);
                w.put_u64(*job);
                w.put_str(state);
            }
        }
        w.into_bytes()
    }

    fn decode_body(body: &[u8]) -> Option<Record> {
        let mut r = ByteReader::new(body);
        let record = match r.get_u8("journal record kind").ok()? {
            1 => Record::Submit {
                job: r.get_u64("journal job id").ok()?,
                body: r.get_str("journal submission body").ok()?,
            },
            2 => Record::UnitDone {
                key: Key(r.get_u128("journal unit key").ok()?),
            },
            3 => Record::JobEnd {
                job: r.get_u64("journal job id").ok()?,
                state: r.get_str("journal job state").ok()?,
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(record)
    }

    fn frame(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut frame = Vec::with_capacity(body.len() + FRAME_OVERHEAD);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&hash_bytes(&body).0.to_le_bytes());
        frame
    }
}

/// Decodes every intact record from raw journal bytes, stopping at the
/// first truncated or corrupt frame (the torn tail of a crash).
pub fn replay(bytes: &[u8]) -> Vec<Record> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos > FRAME_OVERHEAD {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_RECORD || bytes.len() - pos < FRAME_OVERHEAD + len {
            break;
        }
        let body = &bytes[pos + 4..pos + 4 + len];
        let checksum = u128::from_le_bytes(
            bytes[pos + 4 + len..pos + FRAME_OVERHEAD + len]
                .try_into()
                .unwrap(),
        );
        if hash_bytes(body).0 != checksum {
            break;
        }
        match Record::decode_body(body) {
            Some(record) => records.push(record),
            None => break,
        }
        pos += FRAME_OVERHEAD + len;
    }
    records
}

/// The open journal file, append-serialised behind a mutex.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, returning the
    /// handle and every intact record already on disk.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Vec<Record>)> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let records = replay(&bytes);
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            records,
        ))
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record.  Best-effort by design: journalling failures
    /// degrade crash recovery, not live service, so they are logged and
    /// swallowed (the same stance the store takes on its disk tier).
    pub fn append(&self, record: &Record) {
        let frame = record.frame();
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Err(e) = file.write_all(&frame).and_then(|()| file.flush()) {
            mom_obs::log::warn("journal", &format!("append failed: {e}"));
            return;
        }
        mom_obs::counter_with(
            "momsim_journal_records_total",
            "Records appended to the job journal.",
            &[(
                "kind",
                match record {
                    Record::Submit { .. } => "submit",
                    Record::UnitDone { .. } => "unit_done",
                    Record::JobEnd { .. } => "job_end",
                },
            )],
        )
        .inc();
    }

    /// Truncates the journal to zero length (a clean drain: nothing left
    /// to recover).
    pub fn truncate(&self) {
        let file = self
            .file
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Err(e) = file.set_len(0).and_then(|()| {
            let mut f = &*file;
            f.seek(std::io::SeekFrom::Start(0)).map(|_| ())
        }) {
            mom_obs::log::warn("journal", &format!("truncate failed: {e}"));
        }
    }

    /// Compacts the journal down to `live` records (run after recovery:
    /// finished jobs' Submit/UnitDone history is dead weight, and the
    /// still-live submissions are rewritten fresh).
    pub fn compact(&self, live: &[Record]) {
        self.truncate();
        for record in live {
            self.append(record);
        }
    }
}

/// Replays journalled records into a fresh daemon: every submission
/// without a terminal `JobEnd` is re-admitted under its original id
/// through the ordinary submit path, where store-backed dedup answers the
/// units that finished before the crash and only genuinely lost work is
/// rescheduled.  Returns the summary and the still-live `Submit` records
/// (jobs not instantly finished by dedup) for [`Journal::compact`].
///
/// Call *before* attaching the journal to the daemon — recovery must not
/// re-journal the submissions it replays (compaction rewrites them).
pub fn recover(
    daemon: &crate::queue::Daemon,
    records: &[Record],
) -> (RecoverySummary, Vec<Record>) {
    let mut summary = RecoverySummary::default();
    let mut ended = std::collections::BTreeSet::new();
    for record in records {
        match record {
            Record::JobEnd { job, .. } => {
                ended.insert(*job);
            }
            Record::UnitDone { .. } => summary.journal_units_done += 1,
            Record::Submit { .. } => {}
        }
    }
    let mut live = Vec::new();
    for record in records {
        let Record::Submit { job, body } = record else {
            continue;
        };
        if ended.contains(job) {
            summary.jobs_skipped += 1;
            continue;
        }
        let parsed = crate::json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|doc| crate::wire::parse_submit(&doc));
        let request = match parsed {
            Ok(request) => request,
            Err(e) => {
                mom_obs::log::warn(
                    "journal",
                    &format!("job {job}: unrecoverable submission: {e}"),
                );
                continue;
            }
        };
        match daemon.resubmit(*job, request) {
            Ok(outcome) => {
                summary.jobs += 1;
                summary.units_done += outcome.deduped;
                summary.units_requeued += outcome.scheduled;
                // A job dedup finished on the spot needs no journal entry;
                // one still owed units survives compaction.
                let running = daemon
                    .status(*job)
                    .map(|s| s.state == crate::queue::JobState::Running)
                    .unwrap_or(false);
                if running {
                    live.push(record.clone());
                }
            }
            Err(e) => {
                mom_obs::log::warn("journal", &format!("job {job}: re-admission failed: {e}"));
            }
        }
    }
    (summary, live)
}

/// What startup recovery found and did; rendered in `GET /healthz` and
/// the startup log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Unfinished jobs re-admitted from the journal.
    pub jobs: usize,
    /// Units of those jobs answered from the store at re-admission
    /// (finished before the crash, nothing recomputed).
    pub units_done: usize,
    /// Units genuinely lost to the crash and rescheduled.
    pub units_requeued: usize,
    /// Journalled jobs skipped because a `JobEnd` proves them finished.
    pub jobs_skipped: usize,
    /// `UnitDone` records replayed (the journal's own completion count,
    /// cross-checkable against `units_done`).
    pub journal_units_done: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mom-journal-{}-{tag}.wal", std::process::id()))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submit {
                job: 0,
                body: "{\"experiment\": \"fig4\"}".to_string(),
            },
            Record::UnitDone {
                key: Key(0xdead_beef),
            },
            Record::JobEnd {
                job: 0,
                state: "done".to_string(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let (journal, existing) = Journal::open(&path).unwrap();
        assert!(existing.is_empty());
        for record in sample_records() {
            journal.append(&record);
        }
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records());
        journal.truncate();
        drop(journal);
        let (_, after) = Journal::open(&path).unwrap();
        assert!(after.is_empty(), "truncate wipes the log");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_stops_at_a_torn_tail_but_keeps_the_intact_prefix() {
        let mut bytes = Vec::new();
        for record in sample_records() {
            bytes.extend_from_slice(&record.frame());
        }
        // Every truncation point keeps exactly the records whose frames
        // fit entirely before it.
        let frames: Vec<usize> = sample_records().iter().map(|r| r.frame().len()).collect();
        for cut in 0..bytes.len() {
            let replayed = replay(&bytes[..cut]);
            let mut expect = 0;
            let mut consumed = 0;
            for len in &frames {
                if consumed + len > cut {
                    break;
                }
                expect += 1;
                consumed += len;
            }
            assert_eq!(replayed.len(), expect, "cut at {cut}");
        }
        // A flipped bit in the middle record kills it and everything after.
        let mut damaged = bytes.clone();
        let mid = frames[0] + frames[1] / 2;
        damaged[mid] ^= 0x40;
        let replayed = replay(&damaged);
        assert_eq!(replayed.len(), 1, "only the intact prefix survives");
        assert_eq!(replayed[0], sample_records()[0]);
    }

    #[test]
    fn compact_keeps_only_live_records() {
        let path = temp_path("compact");
        let _ = fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        for record in sample_records() {
            journal.append(&record);
        }
        let live = vec![Record::Submit {
            job: 7,
            body: "{\"experiment\": \"fig5\"}".to_string(),
        }];
        journal.compact(&live);
        drop(journal);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, live);
        let _ = fs::remove_file(&path);
    }
}
