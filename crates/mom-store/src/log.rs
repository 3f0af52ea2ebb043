//! The one append-only log: the store's namespace segments and the
//! daemon's job journal are both runs of these self-validating frames,
//! written by one append and made durable by one group commit, so they
//! share one crash contract.
//!
//! * **Frames:** `magic(4) | version(4) | key(16) | payload_len(8) |
//!   payload_hash(16) | payload`, used only after the key and checksum
//!   check.
//! * **Append:** positioned writes at the end of what this writer wrote.
//!   A failed write is truncated back to the frame's start and retried
//!   once; either way the next frame lands at that start, so torn bytes
//!   never sit in front of a later frame.  Appends fire `store-write`.
//! * **Commit:** one `sync_data` covers every byte appended before it
//!   started, shared by the committers queued behind it; a failed sync is
//!   retried once.  Commits fire `store-sync`.
//! * **Crash contract:** an append that returned survives a process
//!   kill, a committed frame a machine crash (a new log file also fsyncs
//!   its directory).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt as _;
use std::path::Path;
use std::sync::Mutex;

use crate::faults::{injected_io_error, FaultSite};
use crate::hash::{hash_bytes, Key};

/// Magic bytes opening every on-disk frame.
pub const FRAME_MAGIC: [u8; 4] = *b"MOMS";
/// On-disk frame format version; bump when the frame layout changes.
/// (Payload formats carry their own versions — this one only covers the
/// envelope.)
pub const FRAME_VERSION: u32 = 1;
/// Bytes of a frame header: magic(4) + version(4) + key(16) +
/// payload_len(8) + payload_hash(16).
pub const FRAME_HEADER_LEN: usize = 48;

/// One append-only file of frames with a group commit.  Appends and
/// commits may come from any thread.
#[derive(Debug)]
pub struct LogFile {
    file: File,
    /// Bytes appended, behind the lock that serialises appends.
    appended: Mutex<u64>,
    /// Bytes a finished `sync_data` covers, behind the lock committers
    /// queue on.
    synced: Mutex<u64>,
}

impl LogFile {
    /// A log over `file` whose first `len` bytes are frames already on
    /// disk; the next append lands at `len`.
    pub(crate) fn new(file: File, len: u64) -> LogFile {
        LogFile {
            file,
            appended: Mutex::new(len),
            synced: Mutex::new(len),
        }
    }

    /// Opens the log at `path` for frames under `key`, creating it (and
    /// fsyncing its directory) if needed.  Returns the log and its intact
    /// prefix of frames; the bytes after that prefix (a torn tail, damage,
    /// another format) are logged and truncated away.
    pub fn open(path: &Path, key: Key) -> io::Result<(LogFile, Vec<u8>)> {
        let dir = path
            .parent()
            .filter(|d| d != &Path::new(""))
            .unwrap_or(Path::new("."));
        let created = !path.exists();
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if created {
            sync_dir(dir)?;
        }
        let mut bytes = Vec::new();
        (&file).read_to_end(&mut bytes)?;
        let end = intact_frames(&bytes, key).last().map_or(0, |(_, end)| end);
        if let ignored @ 1.. = bytes.len() as u64 - end {
            let path = path.display();
            mom_obs::log::warn("store", &format!("{path}: ignored {ignored} byte(s)"));
            file.set_len(end)?;
            bytes.truncate(end as usize);
        }
        Ok((LogFile::new(file, end), bytes))
    }

    /// Appends one frame of `payload` under `key` and returns the frame's
    /// offset and length.  A failed write is truncated away and retried
    /// once, after `on_retry`.  The frame survives a machine crash once a
    /// [`LogFile::commit`] covers it.
    pub fn append(
        &self,
        key: Key,
        payload: &[u8],
        on_retry: impl FnOnce(),
    ) -> io::Result<(u64, u64)> {
        let frame = encode_frame(key, payload);
        let mut appended = self.appended.lock().expect("log appended");
        let start = *appended;
        retry_once(on_retry, || {
            let written = match injected_io_error(FaultSite::StoreWrite, "store write") {
                Some(fault) => {
                    // A realistic mid-write failure: some bytes land, then
                    // the write errors.
                    let _ = self.file.write_all_at(&frame[..frame.len() / 2], start);
                    Err(fault)
                }
                None => self.file.write_all_at(&frame, start),
            };
            if written.is_err() {
                // Should this fail, the next write at `start` covers them.
                let _ = self.file.set_len(start);
            }
            written
        })?;
        *appended = start + frame.len() as u64;
        Ok((start, frame.len() as u64))
    }

    /// Bytes appended so far: a commit through this offset covers every
    /// frame appended before the call.
    pub fn appended(&self) -> u64 {
        *self.appended.lock().expect("log appended")
    }

    /// Makes every frame that ends at or before `end` durable.  Group
    /// commit: the `sync_data` covers everything appended before it
    /// started, and a committer whose frames an earlier sync covered
    /// returns without syncing.  A failed sync is retried once, after
    /// `on_retry`.
    pub fn commit(&self, end: u64, on_retry: impl FnOnce()) -> io::Result<()> {
        let mut synced = self.synced.lock().expect("log synced");
        if *synced >= end {
            return Ok(());
        }
        let target = self.appended();
        retry_once(on_retry, || {
            match injected_io_error(FaultSite::StoreSync, "store sync") {
                Some(fault) => Err(fault),
                None => self.file.sync_data(),
            }
        })?;
        *synced = target;
        Ok(())
    }

    /// Empties the log; the next append lands at its start.
    pub fn truncate(&self) -> io::Result<()> {
        let mut synced = self.synced.lock().expect("log synced");
        let mut appended = self.appended.lock().expect("log appended");
        self.file.set_len(0)?;
        (*synced, *appended) = (0, 0);
        Ok(())
    }

    /// Reads the `len` bytes at `offset` and returns their payload if they
    /// are one intact frame of `key`.
    pub(crate) fn read(&self, offset: u64, len: u64, key: Key) -> Option<Vec<u8>> {
        let mut frame = vec![0u8; len as usize];
        self.file.read_exact_at(&mut frame, offset).ok()?;
        check_frame(&frame, key)?;
        frame.drain(..FRAME_HEADER_LEN);
        Some(frame)
    }
}

/// Runs `op`, and once more after `on_retry` if it fails: a transient
/// failure (a full disk, an injected fault) should not cost a frame its
/// durability.
pub(crate) fn retry_once<T>(
    on_retry: impl FnOnce(),
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    op().or_else(|_| {
        on_retry();
        op()
    })
}

pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The intact prefix of a run of frames written under `key`: each
/// frame's payload and the offset where the frame ends, up to the first
/// frame that fails its check.
pub fn intact_frames(bytes: &[u8], key: Key) -> impl Iterator<Item = (&[u8], u64)> {
    let (frames, _) = walk_frames(io::Cursor::new(bytes), bytes.len() as u64);
    frames.into_iter().map_while(move |(_, offset, len)| {
        let end = offset + len;
        Some((
            check_frame(&bytes[offset as usize..end as usize], key)?,
            end,
        ))
    })
}

/// Walks the frame headers of a file of `len` bytes from its start: each
/// frame's key, offset and length, plus where the walk stopped.  The walk
/// stops at the first header that does not parse (a bad magic, a frame
/// format version this build does not read) or whose frame runs past
/// `len`.
pub(crate) fn walk_frames(
    mut reader: impl io::Read + io::Seek,
    len: u64,
) -> (Vec<(Key, u64, u64)>, u64) {
    let mut frames = Vec::new();
    let mut offset = 0u64;
    let mut header = [0u8; FRAME_HEADER_LEN];
    while offset < len {
        let parsed = reader
            .read_exact(&mut header)
            .ok()
            .and_then(|()| parse_header(&header))
            .filter(|&(_, frame)| frame <= len - offset);
        let Some((key, frame)) = parsed else {
            break;
        };
        let payload = frame - FRAME_HEADER_LEN as u64;
        if reader.seek_relative(payload as i64).is_err() {
            break;
        }
        frames.push((key, offset, frame));
        offset += frame;
    }
    (frames, offset)
}

/// Parses a frame header: `(key, whole frame length)`, or `None` for a
/// bad magic or a frame format version this build does not read.
fn parse_header(header: &[u8; FRAME_HEADER_LEN]) -> Option<(Key, u64)> {
    if header[0..4] != FRAME_MAGIC
        || u32::from_le_bytes(header[4..8].try_into().unwrap()) != FRAME_VERSION
    {
        return None;
    }
    let key = Key(u128::from_le_bytes(header[8..24].try_into().unwrap()));
    let payload = u64::from_le_bytes(header[24..32].try_into().unwrap());
    Some((key, payload.checked_add(FRAME_HEADER_LEN as u64)?))
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

/// The payload of `bytes` if they are exactly one intact frame of `key`.
/// Any defect — truncation, bad magic, stale version, key mismatch,
/// checksum mismatch, trailing bytes — is `None`, which the store turns
/// into a miss and the journal into the end of its replay.
pub(crate) fn check_frame(bytes: &[u8], key: Key) -> Option<&[u8]> {
    let header: &[u8; FRAME_HEADER_LEN] = bytes.get(..FRAME_HEADER_LEN)?.try_into().ok()?;
    let (found, len) = parse_header(header)?;
    let checksum = u128::from_le_bytes(header[32..48].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER_LEN..];
    (found == key && len == bytes.len() as u64 && hash_bytes(payload).0 == checksum)
        .then_some(payload)
}
