//! The crash-safe job journal: `journal.wal` in the store directory,
//! written through the store's log ([`mom_store::LogFile`]), so the store
//! and the journal share one frame format, one append, one group commit
//! and one crash contract.
//!
//! The journal records *intent and outcome*, never payloads: a
//! [`Record::Submit`] carries the original submission JSON (a few hundred
//! bytes) and a [`Record::JobEnd`] the job's terminal state.  Unit payloads
//! live in the content-addressed store, so recovery is nearly free: on
//! startup the daemon replays the journal and re-admits every job without
//! a `JobEnd` through the ordinary submit path, where submit-time dedup
//! answers the already-finished units from the store instantly and only
//! genuinely lost work is rescheduled.
//!
//! Every record is one frame under one fixed key.  Replay keeps the
//! intact prefix (a torn tail can only be the record being appended when
//! the process died) and [`Journal::open`] truncates the rest, so a
//! journal in an older format replays nothing.  An appended record
//! survives a process kill, a committed one a machine crash: `POST /jobs`
//! commits its `Submit` before the 202 (unless dedup finished the job on
//! the spot), and the queue commits `JobEnd` records once it has released
//! its lock.  A clean drain truncates the
//! journal; recovery compacts it down to the still-live submissions.

use mom_store::{ByteReader, ByteWriter, Key, LogFile};
use std::path::{Path, PathBuf};

/// The journal's file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// The key every journal frame carries (the ASCII of `momsim-journal-1`).
const JOURNAL_KEY: Key = Key(u128::from_le_bytes(*b"momsim-journal-1"));

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
    /// A job reached a terminal state and needs no recovery.
    JobEnd {
        /// The finished job.
        job: u64,
        /// Terminal state name (`done`, `failed`, `cancelled`).
        state: String,
    },
}

impl Record {
    /// Kind tag, metric label, job id and text of the record.
    fn parts(&self) -> (u8, &'static str, u64, &str) {
        match self {
            Record::Submit { job, body } => (1, "submit", *job, body),
            Record::JobEnd { job, state } => (3, "job_end", *job, state),
        }
    }

    fn encode_body(&self) -> Vec<u8> {
        let (kind, _, job, text) = self.parts();
        let mut w = ByteWriter::new();
        w.put_u8(kind);
        w.put_u64(job);
        w.put_str(text);
        w.into_bytes()
    }

    fn decode_body(body: &[u8]) -> Option<Record> {
        let mut r = ByteReader::new(body);
        let kind = r.get_u8("journal record kind").ok()?;
        let job = r.get_u64("journal job id").ok()?;
        let text = r.get_str("journal record text").ok()?;
        r.finish().ok()?;
        match kind {
            1 => Some(Record::Submit { job, body: text }),
            3 => Some(Record::JobEnd { job, state: text }),
            _ => None,
        }
    }
}

/// Decodes the records of raw journal bytes: the intact prefix of frames,
/// up to the first truncated or corrupt one (the torn tail of a crash).
pub fn replay(bytes: &[u8]) -> Vec<Record> {
    mom_store::log::intact_frames(bytes, JOURNAL_KEY)
        .filter_map(|(body, _)| Record::decode_body(body))
        .collect()
}

/// The open journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    log: LogFile,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, returning the
    /// handle and every intact record already on disk; whatever follows
    /// them is truncated away.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Vec<Record>)> {
        let (log, bytes) = LogFile::open(path, JOURNAL_KEY)?;
        let path = path.to_path_buf();
        Ok((Journal { path, log }, replay(&bytes)))
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record; a machine crash can lose it until a
    /// [`Journal::commit`] covers it.  Best-effort by design: journalling
    /// failures degrade crash recovery, not live service, so they are
    /// logged and swallowed (the same stance the store takes on its disk
    /// tier).
    pub fn append(&self, record: &Record) {
        if let Err(e) = self.log.append(JOURNAL_KEY, &record.encode_body(), || ()) {
            mom_obs::log::warn("journal", &format!("append failed: {e}"));
            return;
        }
        let (_, kind, ..) = record.parts();
        let help = "Records appended to the job journal.";
        mom_obs::counter_with("momsim_journal_records_total", help, &[("kind", kind)]).inc();
    }

    /// Makes every record appended so far durable: one `sync_data`, shared
    /// with concurrent committers.  Failures are logged and swallowed.
    pub fn commit(&self) {
        if let Err(e) = self.log.commit(self.log.appended(), || ()) {
            mom_obs::log::warn("journal", &format!("commit failed: {e}"));
        }
    }

    /// Truncates the journal to zero length (a clean drain: nothing left
    /// to recover).
    pub fn truncate(&self) {
        if let Err(e) = self.log.truncate() {
            mom_obs::log::warn("journal", &format!("truncate failed: {e}"));
        }
    }

    /// Compacts the journal down to `live` records (run after recovery:
    /// finished jobs' Submit/JobEnd history is dead weight, and the
    /// still-live submissions are rewritten fresh), with one commit.
    pub fn compact(&self, live: &[Record]) {
        self.truncate();
        for record in live {
            self.append(record);
        }
        self.commit();
    }
}

/// Replays journalled records into a fresh daemon: every submission
/// without a terminal `JobEnd` is re-admitted under its original id
/// through the ordinary submit path, where store-backed dedup answers the
/// units that finished before the crash and only genuinely lost work is
/// rescheduled.  Every journalled id, skipped and unparsable ones
/// included, is reserved: a new job never reuses one, so a client still
/// polling an old id never reads another job's rows.  Returns the summary
/// and the still-live `Submit` records (jobs not instantly finished by
/// dedup) for [`Journal::compact`].
///
/// Call *before* attaching the journal to the daemon — recovery must not
/// re-journal the submissions it replays (compaction rewrites them).
pub fn recover(
    daemon: &crate::queue::Daemon,
    records: &[Record],
) -> (RecoverySummary, Vec<Record>) {
    let mut summary = RecoverySummary::default();
    let ended: std::collections::BTreeSet<u64> = records
        .iter()
        .filter_map(|record| match record {
            Record::JobEnd { job, .. } => Some(*job),
            Record::Submit { .. } => None,
        })
        .collect();
    if let Some(last) = records.iter().map(|record| record.parts().2).max() {
        daemon.reserve_job_ids(last);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mom-journal-{}-{tag}.wal", std::process::id()))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submit {
                job: 0,
                body: "{\"experiment\": \"fig4\"}".to_string(),
            },
            Record::Submit {
                job: 1,
                body: "{\"experiment\": \"fig5\"}".to_string(),
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
        journal.commit();
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
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        let ends: Vec<usize> = sample_records()
            .iter()
            .map(|record| {
                journal.append(record);
                fs::metadata(&path).unwrap().len() as usize
            })
            .collect();
        drop(journal);
        let bytes = fs::read(&path).unwrap();
        // Every truncation point keeps exactly the records whose frames
        // fit entirely before it.
        for cut in 0..bytes.len() {
            let expect = ends.iter().take_while(|&&end| end <= cut).count();
            assert_eq!(replay(&bytes[..cut]).len(), expect, "cut at {cut}");
        }
        // A flipped bit in the middle record kills it and everything after,
        // and reopening truncates the journal back to the intact prefix.
        let mut damaged = bytes;
        damaged[(ends[0] + ends[1]) / 2] ^= 0x40;
        assert_eq!(replay(&damaged), sample_records()[..1]);
        fs::write(&path, &damaged).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records()[..1]);
        assert_eq!(fs::metadata(&path).unwrap().len() as usize, ends[0]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn an_old_format_journal_replays_nothing_and_compaction_empties_it() {
        // The format older daemons wrote: `len(u32) | body | checksum(u128)`.
        let mut bytes = Vec::new();
        for record in sample_records() {
            let body = record.encode_body();
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&mom_store::hash::hash_bytes(&body).0.to_le_bytes());
        }
        assert!(replay(&bytes).is_empty());
        let path = temp_path("old-format");
        fs::write(&path, &bytes).unwrap();
        let (journal, records) = Journal::open(&path).unwrap();
        assert!(records.is_empty());
        journal.compact(&records);
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        let _ = fs::remove_file(&path);
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
