//! Crash-safe session persistence for long-running tuning campaigns.
//!
//! The paper's end-to-end loop (§3.1) assumes campaigns that outlive any
//! single job dispatch; its open questions (§4) ask how tuning state
//! should persist across the site→system→job layers. Real counterparts
//! (ytopt's performance database, READEX's tuning-model files) all keep
//! durable search state so a killed campaign *resumes* instead of
//! restarting. This crate provides the storage layer for that:
//!
//! - a [write-ahead log](wal) of checksummed, length-prefixed JSON
//!   frames — one frame per completed evaluation, appended *before* the
//!   in-memory search observes the outcome;
//! - [atomic snapshots](snapshot) of full session state, rename-into-place,
//!   after which the WAL is compacted;
//! - typed [errors](error) for every corruption mode — a torn final WAL
//!   record is trimmed and survived, a damaged snapshot is reported,
//!   nothing panics.
//!
//! The crate is deliberately policy-free: it moves opaque
//! [`serde::Value`] payloads and leaves the schema (what goes in a
//! snapshot, how replay works) to `pstack-autotune`, which owns the
//! session formats.

pub mod error;
pub mod snapshot;
pub mod wal;

pub use error::CkptError;
pub use snapshot::{read_snapshot, write_snapshot, SNAPSHOT_FORMAT_VERSION, SNAP_MAGIC};
pub use wal::{
    decode_records, read_wal, read_wal_from, TornTail, WalContents, WalWriter, WAL_FORMAT_VERSION,
    WAL_MAGIC,
};

use pstack_sync::{sites, Ordering, SyncAtomicUsize};
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte slice — the workspace's standard cheap checksum
/// (same constants as `pstack_trace::hash64`, which hashes `&str`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a64_step(h, b))
}

/// [`fnv1a64`] of each payload, in order. One FNV-1a chain is a serial
/// multiply per byte, so payloads are hashed four at a time in lockstep,
/// letting the four chains' multiplies overlap instead of each waiting on
/// the one before.
pub(crate) fn fnv1a64_many<'a>(payloads: impl Iterator<Item = &'a [u8]>) -> Vec<u64> {
    let payloads: Vec<&[u8]> = payloads.collect();
    let mut sums = Vec::with_capacity(payloads.len());
    let mut groups = payloads.chunks_exact(4);
    for group in &mut groups {
        let n = group.iter().map(|p| p.len()).min().unwrap_or(0);
        let mut h = [FNV_OFFSET; 4];
        let lockstep = group[0][..n]
            .iter()
            .zip(&group[1][..n])
            .zip(&group[2][..n])
            .zip(&group[3][..n]);
        for (((&a, &b), &c), &d) in lockstep {
            h = [
                fnv1a64_step(h[0], a),
                fnv1a64_step(h[1], b),
                fnv1a64_step(h[2], c),
                fnv1a64_step(h[3], d),
            ];
        }
        for (p, h) in group.iter().zip(h) {
            sums.push(p[n..].iter().fold(h, |h, &b| fnv1a64_step(h, b)));
        }
    }
    sums.extend(groups.remainder().iter().map(|p| fnv1a64(p)));
    sums
}

/// The canonical layout of a session directory: one WAL, one snapshot.
#[derive(Debug, Clone)]
pub struct SessionDir {
    root: PathBuf,
}

impl SessionDir {
    /// Wrap `root`, creating it (and parents) if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| CkptError::io(&root, e))?;
        Ok(SessionDir { root })
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.root.join("session.wal")
    }

    /// Path of the full-state snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.root.join("session.snap")
    }
}

// Relaxed: a process-unique directory suffix — uniqueness needs atomicity
// only; no other memory is published through this counter.
static SCRATCH_COUNTER: SyncAtomicUsize = SyncAtomicUsize::new(sites::CKPT_SCRATCH, 0);

/// A unique temp directory that removes itself on drop — for tests and
/// experiments that need many disposable session directories.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `tmp/pstack-ckpt-<pid>-<n>-<tag>/`.
    pub fn new(tag: &str) -> Self {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("pstack-ckpt-{}-{n}-{tag}", std::process::id()));
        // A stale directory from a crashed prior run with the same pid is
        // possible in principle; start clean either way.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn rec(n: i64) -> Value {
        Value::Map(vec![
            ("ordinal".to_string(), Value::Int(n)),
            ("payload".to_string(), Value::Str(format!("eval-{n}"))),
        ])
    }

    #[test]
    fn wal_round_trips_records_in_order() {
        let dir = ScratchDir::new("wal-roundtrip");
        let path = dir.path().join("session.wal");
        let header = Value::Str("meta".to_string());
        let mut w = WalWriter::create(&path, &header, 4).expect("create");
        for n in 0..10 {
            w.append(&rec(n)).expect("append");
        }
        w.sync().expect("sync");
        let contents = read_wal(&path).expect("read");
        assert_eq!(contents.version, WAL_FORMAT_VERSION);
        assert_eq!(contents.header, header);
        assert_eq!(contents.records.len(), 10);
        assert_eq!(contents.records[7], rec(7));
        assert!(contents.torn_tail.is_none());
    }

    #[test]
    fn torn_tail_is_reported_and_truncated_on_reopen() {
        let dir = ScratchDir::new("wal-torn");
        let path = dir.path().join("session.wal");
        let mut w = WalWriter::create(&path, &Value::Null, 1).expect("create");
        for n in 0..5 {
            w.append(&rec(n)).expect("append");
        }
        drop(w);
        // Tear the last record in half.
        let len = std::fs::metadata(&path).expect("meta").len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        file.set_len(len - 9).expect("truncate");
        drop(file);

        let contents = read_wal(&path).expect("read survives tear");
        assert_eq!(contents.records.len(), 4);
        let tail = contents.torn_tail.expect("tail reported");
        assert!(tail.offset < len - 9);

        // Reopen truncates the tear and appending resumes cleanly.
        let (mut w, recovered) = WalWriter::open_append(&path, 1).expect("reopen");
        assert_eq!(recovered.records.len(), 4);
        assert_eq!(w.records(), 4);
        w.append(&rec(99)).expect("append after recovery");
        drop(w);
        let reread = read_wal(&path).expect("reread");
        assert!(reread.torn_tail.is_none());
        assert_eq!(reread.records.len(), 5);
        assert_eq!(reread.records[4], rec(99));
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let dir = ScratchDir::new("wal-magic");
        let path = dir.path().join("session.wal");
        std::fs::write(&path, b"NOTAWAL\0garbage").expect("write");
        match read_wal(&path) {
            Err(CkptError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        match read_wal(&path) {
            Err(CkptError::SchemaMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, WAL_FORMAT_VERSION);
                assert_eq!(found, 99);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn flipping_any_byte_never_panics_and_keeps_a_valid_prefix() {
        let dir = ScratchDir::new("wal-fuzz");
        let path = dir.path().join("session.wal");
        let mut w = WalWriter::create(&path, &rec(1000), 1).expect("create");
        for n in 0..6 {
            w.append(&rec(n)).expect("append");
        }
        drop(w);
        let pristine = std::fs::read(&path).expect("read bytes");
        for i in 0..pristine.len() {
            let mut mutated = pristine.clone();
            mutated[i] ^= 0x40;
            std::fs::write(&path, &mutated).expect("write mutated");
            match read_wal(&path) {
                Ok(contents) => {
                    // Whatever survived must be a prefix of the original.
                    assert!(contents.records.len() <= 6, "flip at byte {i}");
                    for (n, r) in contents.records.iter().enumerate() {
                        assert_eq!(r, &rec(n as i64), "flip at byte {i}");
                    }
                }
                Err(CkptError::Corrupt { .. } | CkptError::SchemaMismatch { .. }) => {}
                Err(other) => panic!("unexpected error kind at byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn cursor_walks_agree_with_whole_reads_under_every_tear_and_flip() {
        let dir = ScratchDir::new("wal-cursor");
        let write_log = |name: &str, records: &[i64]| {
            let path = dir.path().join(name);
            let mut w = WalWriter::create(&path, &rec(1000), 1).expect("create");
            for &n in records {
                w.append(&rec(n)).expect("append");
            }
            drop(w);
            path
        };
        // The 4-frame log under test (header + 3 records), and a foreign log
        // that shares its first and third frames but not its second.
        let path = write_log("session.wal", &[0, 1, 2]);
        let pristine_bytes = std::fs::read(&path).expect("read bytes");
        let pristine = read_wal(&path).expect("pristine");
        let foreign = read_wal(&write_log("foreign.wal", &[0, 5, 2])).expect("foreign");
        // Every cursor an earlier walk could have left: each prefix of the
        // log as it grew, plus the foreign log's.
        let mut cursors: Vec<(Vec<u64>, Vec<Value>)> = (0..=pristine.records.len())
            .map(|j| {
                (
                    pristine.checksums[..j].to_vec(),
                    pristine.records[..j].to_vec(),
                )
            })
            .collect();
        cursors.push((foreign.checksums.clone(), foreign.records.clone()));

        let mut damaged: Vec<Vec<u8>> = (0..=pristine_bytes.len())
            .map(|cut| pristine_bytes[..cut].to_vec())
            .collect();
        for byte in 0..pristine_bytes.len() {
            for bit in 0..8 {
                let mut flipped = pristine_bytes.clone();
                flipped[byte] ^= 1 << bit;
                damaged.push(flipped);
            }
        }
        for (case, bytes) in damaged.iter().enumerate() {
            std::fs::write(&path, bytes).expect("write damage");
            let whole = read_wal(&path);
            for (checksums, decoded) in &cursors {
                let walk = read_wal_from(&path, checksums);
                match (&whole, &walk) {
                    (Ok(whole), Ok(walk)) => {
                        assert!(walk.kept <= checksums.len(), "case {case}");
                        let mut records = decoded[..walk.kept].to_vec();
                        records.extend(walk.records.iter().cloned());
                        assert_eq!(records, whole.records, "case {case}");
                        assert_eq!(walk.torn_tail, whole.torn_tail, "case {case}");
                        assert_eq!(walk.checksums, whole.checksums, "case {case}");
                        assert_eq!(walk.valid_end, whole.valid_end, "case {case}");
                        assert_eq!(walk.header, whole.header, "case {case}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
                    _ => panic!("case {case}: walk {walk:?} vs whole read {whole:?}"),
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trip_and_corruption_detection() {
        let dir = ScratchDir::new("snap");
        let path = dir.path().join("session.snap");
        match read_snapshot(&path) {
            Err(CkptError::MissingSnapshot { .. }) => {}
            other => panic!("expected MissingSnapshot, got {other:?}"),
        }
        let state = rec(42);
        write_snapshot(&path, &state).expect("write");
        assert_eq!(read_snapshot(&path).expect("read"), state);
        // No temp residue after the rename.
        assert!(!path.with_extension("snap.tmp").exists());

        let mut bytes = std::fs::read(&path).expect("read bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corrupted");
        match read_snapshot(&path) {
            Err(CkptError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn compaction_resets_the_log_but_keeps_it_appendable() {
        let dir = ScratchDir::new("wal-compact");
        let path = dir.path().join("session.wal");
        let mut w = WalWriter::create(&path, &rec(7), 2).expect("create");
        for n in 0..8 {
            w.append(&rec(n)).expect("append");
        }
        w.compact(&rec(8)).expect("compact");
        assert_eq!(w.records(), 0);
        w.append(&rec(100)).expect("append post-compact");
        w.sync().expect("sync");
        let contents = read_wal(&path).expect("read");
        assert_eq!(contents.header, rec(8));
        assert_eq!(contents.records, vec![rec(100)]);
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a64_many_matches_one_payload_at_a_time() {
        let text: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        // Every count up to three groups plus a remainder, with unequal
        // lengths (empty ones included) inside each group.
        for count in 0..14 {
            let payloads: Vec<&[u8]> = (0..count).map(|i| &text[i * 7 % 5..i * 13]).collect();
            let one_by_one: Vec<u64> = payloads.iter().map(|p| fnv1a64(p)).collect();
            assert_eq!(fnv1a64_many(payloads.into_iter()), one_by_one, "{count}");
        }
    }
}
