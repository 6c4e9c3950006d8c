//! The write-ahead log: an append-only file of checksummed JSON frames.
//!
//! Layout:
//!
//! ```text
//! [magic: 8 bytes "PSTKWAL\0"] [format version: u32 LE]
//! [frame]*
//!
//! frame := [len: u32 LE] [crc: u64 LE, FNV-1a of payload] [payload: len bytes of JSON]
//! ```
//!
//! The first frame is the *header record* (session metadata); every later
//! frame is one durable event. Appends go to disk before the in-memory
//! search sees the outcome, so the log is always at least as new as the
//! session it protects. `fsync` is batched: the writer syncs every
//! `fsync_every` appends (and on demand), trading a bounded window of
//! re-evaluable work for throughput.
//!
//! Reading is longest-valid-prefix: the reader walks frames until the
//! first one that is short, fails its checksum, or fails to parse, and
//! reports everything before it plus a [`TornTail`] marker — it never
//! panics on a half-written file. There is one walk, [`read_wal_from`]:
//! given a *cursor* (the data-frame checksums an earlier walk returned) it
//! still checks every frame's length and checksum, but JSON-decodes only
//! the frames after the longest leading run whose checksums match the
//! cursor's, so a caller that keeps its decoded records pays the parse for
//! new frames only. [`read_wal`] is the empty-cursor walk.
//! [`WalWriter::open_append`] physically truncates a torn tail before
//! appending new frames; [`WalWriter::open_at`] does the same from the end
//! a walk already validated.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::error::CkptError;
use crate::{fnv1a64, fnv1a64_many};

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"PSTKWAL\0";

/// Format version this build writes and understands.
pub const WAL_FORMAT_VERSION: u32 = 1;

/// Bytes of magic + version that precede the first frame.
const WAL_PREAMBLE: usize = 12;

/// Bytes of length + checksum that precede each frame payload.
const FRAME_HEADER: usize = 12;

/// Description of an invalid suffix found while reading a WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the valid prefix ends.
    pub offset: u64,
    /// Why the frame at `offset` was rejected.
    pub reason: String,
}

/// Everything one frame walk recovered from a WAL file.
#[derive(Debug, Clone)]
pub struct WalContents {
    /// Format version stamped in the preamble.
    pub version: u32,
    /// The header record (first frame).
    pub header: Value,
    /// Leading data records whose checksums continued the walk's cursor
    /// (see [`read_wal_from`]): the caller's decoded copies of them still
    /// hold, so they are not decoded again. Always 0 from [`read_wal`].
    pub kept: usize,
    /// Data records after the `kept` ones, in append order.
    pub records: Vec<Value>,
    /// Checksum of every data frame in the valid prefix, kept ones
    /// included: the cursor for the next walk.
    pub checksums: Vec<u64>,
    /// Byte length of the valid prefix, where the next frame belongs.
    pub valid_end: u64,
    /// Present when the file ends in an invalid frame; the valid prefix
    /// was returned and the tail should be truncated before appending.
    pub torn_tail: Option<TornTail>,
}

/// Append handle over a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    fsync_every: usize,
    unsynced: usize,
    records: usize,
}

impl WalWriter {
    /// Create a fresh WAL at `path` (truncating any existing file) and
    /// write the preamble plus the header record.
    pub fn create(path: &Path, header: &Value, fsync_every: usize) -> Result<Self, CkptError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| CkptError::io(path, e))?;
        let mut preamble = Vec::with_capacity(WAL_PREAMBLE);
        preamble.extend_from_slice(&WAL_MAGIC);
        preamble.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
        file.write_all(&preamble)
            .map_err(|e| CkptError::io(path, e))?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            records: 0,
        };
        w.write_frame(header)?;
        w.sync()?;
        w.records = 0; // the header is not a data record
        Ok(w)
    }

    /// Reopen an existing WAL for appending: validate it, truncate any
    /// torn tail, and return the writer together with the recovered
    /// contents.
    pub fn open_append(path: &Path, fsync_every: usize) -> Result<(Self, WalContents), CkptError> {
        let contents = read_wal(path)?;
        let mut w = Self::open_at(path, contents.valid_end, fsync_every)?;
        w.records = contents.records.len();
        Ok((w, contents))
    }

    /// Open an existing WAL for appending at `validated_end`, the
    /// [`WalContents::valid_end`] of a walk the caller just made (and that
    /// nothing has appended past since). The file is not read again: a
    /// longer file has its invalid tail cut off, and a shorter one means
    /// the walk is stale, which is reported as [`CkptError::Corrupt`].
    /// [`records`](Self::records) counts only what this writer appends.
    pub fn open_at(path: &Path, validated_end: u64, fsync_every: usize) -> Result<Self, CkptError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| CkptError::io(path, e))?;
        let len = file.metadata().map_err(|e| CkptError::io(path, e))?.len();
        if len < validated_end {
            return Err(CkptError::corrupt(
                path,
                format!("{len}-byte file is shorter than its validated end {validated_end}"),
            ));
        }
        if len > validated_end {
            // Truncate-and-warn: drop the invalid suffix so new frames
            // start on a clean boundary.
            file.set_len(validated_end)
                .map_err(|e| CkptError::io(path, e))?;
        }
        file.seek(SeekFrom::Start(validated_end))
            .map_err(|e| CkptError::io(path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            records: 0,
        })
    }

    /// Append one data record. The frame hits the file immediately;
    /// `fsync` happens every `fsync_every` appends.
    pub fn append<T: Serialize>(&mut self, record: &T) -> Result<(), CkptError> {
        self.write_frame(&record.to_value())?;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force all buffered frames to stable storage.
    pub fn sync(&mut self) -> Result<(), CkptError> {
        self.file
            .sync_data()
            .map_err(|e| CkptError::io(&self.path, e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Replace the log with an empty one carrying `header` (called after
    /// a snapshot made the old records redundant). Atomic: the new log is
    /// staged in a sibling temp file and renamed into place, so a crash
    /// mid-compaction leaves either the old or the new log, never a mix.
    pub fn compact(&mut self, header: &Value) -> Result<(), CkptError> {
        let tmp = self.path.with_extension("wal.tmp");
        let fresh = WalWriter::create(&tmp, header, self.fsync_every)?;
        drop(fresh);
        std::fs::rename(&tmp, &self.path).map_err(|e| CkptError::io(&self.path, e))?;
        crate::snapshot::sync_parent_dir(&self.path);
        let mut file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| CkptError::io(&self.path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| CkptError::io(&self.path, e))?;
        self.file = file;
        self.unsynced = 0;
        self.records = 0;
        Ok(())
    }

    /// Number of data records appended (or recovered) so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_frame(&mut self, payload: &Value) -> Result<(), CkptError> {
        let json = serde_json::to_string(payload).map_err(|e| CkptError::Encode {
            detail: e.to_string(),
        })?;
        let bytes = json.as_bytes();
        let mut frame = Vec::with_capacity(FRAME_HEADER + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.file
            .write_all(&frame)
            .map_err(|e| CkptError::io(&self.path, e))
    }
}

/// Read and validate a whole WAL, returning its longest valid prefix:
/// [`read_wal_from`] with an empty cursor, so every data record is decoded.
///
/// A bad preamble or an unreadable *header record* is unrecoverable
/// ([`CkptError::Corrupt`] / [`CkptError::SchemaMismatch`]): without the
/// session metadata there is nothing to resume. Any later invalid frame
/// merely ends the scan and is reported as a [`TornTail`].
pub fn read_wal(path: &Path) -> Result<WalContents, CkptError> {
    read_wal_from(path, &[])
}

/// Walk a WAL from its first byte, checking every frame's length and
/// checksum exactly as [`read_wal`] does, but JSON-decode only the data
/// frames after the longest leading run whose checksums equal `cursor`'s
/// (the [`WalContents::checksums`] of an earlier walk). That run is
/// reported as [`WalContents::kept`]; `kept` records of the earlier walk
/// followed by the returned [`WalContents::records`] are exactly what
/// [`read_wal`] returns now, and the torn tail is the same. A frame that
/// changed in place, or a log that was rewritten, ends the run there.
pub fn read_wal_from(path: &Path, cursor: &[u64]) -> Result<WalContents, CkptError> {
    let bytes = std::fs::read(path).map_err(|e| CkptError::io(path, e))?;
    if bytes.len() < WAL_PREAMBLE {
        return Err(CkptError::corrupt(path, "file shorter than the preamble"));
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(CkptError::corrupt(path, "bad magic; not a session WAL"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != WAL_FORMAT_VERSION {
        return Err(CkptError::SchemaMismatch {
            path: path.display().to_string(),
            expected: WAL_FORMAT_VERSION,
            found: version,
        });
    }
    let (frames, mut torn_tail) = check_frames(&bytes);
    let mut frames = frames.into_iter();
    // The header itself must be readable: without it nothing is recoverable.
    let header = match (frames.next(), &torn_tail) {
        (Some(frame), _) => parse_payload(frame.payload),
        (None, Some(tail)) => Err(tail.reason.clone()),
        (None, None) => return Err(CkptError::corrupt(path, "missing header record")),
    }
    .map_err(|reason| CkptError::corrupt(path, format!("header record: {reason}")))?;

    let mut records = Vec::new();
    let mut checksums = Vec::new();
    let mut kept = 0;
    for frame in frames {
        // Known frames continue the cursor's run; the rest are decoded.
        if kept == checksums.len() && cursor.get(kept) == Some(&frame.crc) {
            kept += 1;
        } else {
            match parse_payload(frame.payload) {
                Ok(record) => records.push(record),
                Err(reason) => {
                    torn_tail = Some(TornTail {
                        offset: frame.offset as u64,
                        reason,
                    });
                    break;
                }
            }
        }
        checksums.push(frame.crc);
    }
    let valid_end = torn_tail
        .as_ref()
        .map_or(bytes.len() as u64, |tail| tail.offset);
    Ok(WalContents {
        version,
        header,
        kept,
        records,
        checksums,
        valid_end,
        torn_tail,
    })
}

/// Decode the data records of a WAL into a concrete type.
pub fn decode_records<T: Deserialize>(contents: &WalContents) -> Result<Vec<T>, CkptError> {
    contents
        .records
        .iter()
        .map(|v| {
            T::from_value(v).map_err(|e| CkptError::Encode {
                detail: e.to_string(),
            })
        })
        .collect()
}

/// One whole frame whose payload matched its checksum.
struct Frame<'a> {
    /// Where the frame starts.
    offset: usize,
    payload: &'a [u8],
    crc: u64,
}

/// The frame checks, over every frame after the preamble: each frame must
/// be whole, and its payload must match its checksum. Returns the frames
/// before the first one that fails, and where and why that one failed.
/// Frame lengths are read first, then the payloads are checksummed
/// together (see [`fnv1a64_many`]).
fn check_frames(bytes: &[u8]) -> (Vec<Frame<'_>>, Option<TornTail>) {
    let mut frames = Vec::new();
    let mut torn_tail = None;
    let mut offset = WAL_PREAMBLE;
    while offset < bytes.len() {
        match frame_at(bytes, offset) {
            Ok(frame) => {
                offset += FRAME_HEADER + frame.payload.len();
                frames.push(frame);
            }
            Err(reason) => {
                torn_tail = Some(TornTail {
                    offset: offset as u64,
                    reason,
                });
                break;
            }
        }
    }
    let sums = fnv1a64_many(frames.iter().map(|f| f.payload));
    if let Some(bad) = frames.iter().zip(sums).position(|(f, sum)| f.crc != sum) {
        torn_tail = Some(TornTail {
            offset: frames[bad].offset as u64,
            reason: "payload checksum mismatch".to_string(),
        });
        frames.truncate(bad);
    }
    (frames, torn_tail)
}

/// The frame at `offset`, if it is whole; its checksum is not checked yet.
fn frame_at(bytes: &[u8], offset: usize) -> Result<Frame<'_>, String> {
    let remaining = bytes.len() - offset;
    if remaining < FRAME_HEADER {
        return Err(format!(
            "{remaining}-byte fragment where a frame header was expected"
        ));
    }
    let len = u32::from_le_bytes([
        bytes[offset],
        bytes[offset + 1],
        bytes[offset + 2],
        bytes[offset + 3],
    ]) as usize;
    let crc = u64::from_le_bytes([
        bytes[offset + 4],
        bytes[offset + 5],
        bytes[offset + 6],
        bytes[offset + 7],
        bytes[offset + 8],
        bytes[offset + 9],
        bytes[offset + 10],
        bytes[offset + 11],
    ]);
    let start = offset + FRAME_HEADER;
    if bytes.len() - start < len {
        return Err(format!(
            "frame claims {len} payload bytes but only {} remain",
            bytes.len() - start
        ));
    }
    Ok(Frame {
        offset,
        payload: &bytes[start..start + len],
        crc,
    })
}

/// Decode a checked frame's payload.
fn parse_payload(payload: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("payload is not valid JSON: {e}"))
}
