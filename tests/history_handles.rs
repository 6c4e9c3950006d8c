//! Cross-handle consistency for the shared history store.
//!
//! Several handles stay open on one store directory while other writers
//! — another handle, a child process, or an outside hand editing the shard
//! file — change it underneath them. Whatever a handle has read before, its
//! next answer must be the one a freshly opened handle gives. The steps,
//! each followed by a full comparison of every open handle (two handles
//! and a clone of the first) against a fresh one:
//!
//! 1. appends by each handle and by a child process;
//! 2. a mid-frame truncation of the shard, then the other handle's append,
//!    which regrows the file past the first handle's last-read end;
//! 3. a same-length bit flip inside a payload every handle has already
//!    read, then its undo;
//! 4. same-length garbage over the whole shard, then the in-place
//!    recreate (same inode) done by the next append;
//! 5. a compaction by the other handle, then the child appends again.
//!
//! The child is this test binary re-run with `--exact` on
//! [`child_process_appends_a_fixed_batch`] and [`CHILD_ROOT`] naming the
//! store; run normally, that test does nothing.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use powerstack::history::{HistoryKey, HistoryRecord, HistoryStats, HistoryStore};
use pstack_ckpt::ScratchDir;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Names the store the child process appends its batch to.
const CHILD_ROOT: &str = "PSTACK_HISTORY_HANDLES_CHILD_ROOT";

const SHARDS: usize = 2;

/// Three keys: the first two share a shard (the one the test damages),
/// the third lives in the other shard.
fn keys() -> Vec<HistoryKey> {
    let key = |app: &str| HistoryKey::new("a1b2c3d4e5f60718", app, "min-energy");
    let first = key("app-a");
    let shard = first.shard(SHARDS);
    let candidates: Vec<HistoryKey> = (0..32).map(|i| key(&format!("app-b{i}"))).collect();
    let same = candidates
        .iter()
        .find(|k| k.shard(SHARDS) == shard)
        .expect("a key sharing the first key's shard")
        .clone();
    let other = candidates
        .iter()
        .find(|k| k.shard(SHARDS) != shard)
        .expect("a key in the other shard")
        .clone();
    vec![first, same, other]
}

/// `n` records tagged `session`. Configs repeat and objectives tie, so
/// best-per-config folding and its tie rule are exercised.
fn batch(session: &str, n: usize) -> Vec<HistoryRecord> {
    (0..n)
        .map(|i| HistoryRecord {
            config: vec![i % 5, i % 3],
            objective: ((i * 7) % 11) as f64 + 0.5,
            aux: HashMap::from([("energy_j".to_string(), i as f64 * 1.5)]),
            session: session.to_string(),
            ordinal: i as u64,
        })
        .collect()
}

/// Append `n` records tagged `session` under every key.
fn append_round(store: &HistoryStore, session: &str, n: usize) {
    for key in keys() {
        store
            .append(&key, &batch(session, n))
            .expect("append succeeds");
    }
}

/// Child-process half of the test below: appends a fixed batch to the
/// store [`CHILD_ROOT`] names. Without that variable it does nothing.
#[test]
fn child_process_appends_a_fixed_batch() {
    let Some(root) = std::env::var_os(CHILD_ROOT) else {
        return;
    };
    let store = HistoryStore::open(PathBuf::from(root)).expect("child opens the store");
    append_round(&store, "child", 6);
}

/// Re-run this test binary as a child that appends its fixed batch.
fn run_child(root: &Path) {
    let status = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "child_process_appends_a_fixed_batch"])
        .args(["--test-threads", "1"])
        .env(CHILD_ROOT, root)
        .stdout(Stdio::null())
        .status()
        .expect("spawn the child test binary");
    assert!(status.success(), "child append failed: {status}");
}

/// Everything the query API answers, for every key.
#[derive(Debug, PartialEq)]
struct Answers {
    records: Vec<Vec<HistoryRecord>>,
    best: Vec<Vec<HistoryRecord>>,
    stats: Vec<HistoryStats>,
    all: Vec<(HistoryKey, HistoryRecord)>,
    keys: Vec<HistoryKey>,
}

fn answers(store: &HistoryStore) -> Answers {
    let keys = keys();
    Answers {
        records: keys
            .iter()
            .map(|k| store.records(k).expect("records"))
            .collect(),
        best: keys
            .iter()
            .flat_map(|k| [store.best_k(k, 3), store.best_k(k, usize::MAX)])
            .map(|b| b.expect("best_k"))
            .collect(),
        stats: keys
            .iter()
            .map(|k| store.stats(k).expect("stats"))
            .collect(),
        all: store.all_records().expect("all_records"),
        keys: store.keys().expect("keys"),
    }
}

/// Every open handle answers exactly as a fresh handle does; returns the
/// fresh answers.
fn assert_agree(root: &Path, handles: &[&HistoryStore], step: &str) -> Answers {
    let want = answers(&HistoryStore::open(root).expect("fresh handle"));
    for (i, handle) in handles.iter().enumerate() {
        assert_eq!(
            answers(handle),
            want,
            "{step}: open handle {i} disagrees with a fresh handle"
        );
    }
    want
}

/// `(start, end)` of every complete frame (header frame first) in a
/// shard file: `[len: u32 LE][crc: u64 LE][payload]` after the 12-byte
/// preamble.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 12;
    while at + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let end = at + 12 + len;
        if end > bytes.len() {
            break;
        }
        out.push((at, end));
        at = end;
    }
    out
}

#[test]
fn open_handles_answer_like_a_fresh_handle_after_every_step() {
    let scratch = ScratchDir::new("history-handles");
    let root = scratch.path().join("db");
    let a = HistoryStore::open_with_shards(&root, SHARDS).expect("open a");
    let b = HistoryStore::open(&root).expect("open b");
    let a_clone = a.clone();
    let handles = [&a, &b, &a_clone];
    let shard = root.join(format!("shard-{:02}.wal", keys()[0].shard(SHARDS)));

    // 1. Appends by each handle and by the child process.
    append_round(&a, "a1", 7);
    assert_agree(&root, &handles, "1: a appends");
    append_round(&b, "b1", 5);
    let before_child = assert_agree(&root, &handles, "1: b appends").all.len();
    run_child(&root);
    let after_child = assert_agree(&root, &handles, "1: child appends").all.len();
    assert_eq!(
        after_child,
        before_child + 3 * 6,
        "the child's batch landed"
    );

    // 2. Cut the shard in the middle of a middle frame, then let b append
    // enough to regrow it past the end every handle last read.
    let read_end = fs::metadata(&shard).expect("shard").len();
    let bytes = fs::read(&shard).expect("read shard");
    let spans = frames(&bytes);
    let (start, end) = spans[spans.len() / 2];
    let cut = start + 12 + (end - start - 12) / 2;
    fs::OpenOptions::new()
        .write(true)
        .open(&shard)
        .expect("open shard")
        .set_len(cut as u64)
        .expect("truncate shard");
    append_round(&b, "b2", spans.len());
    assert!(
        fs::metadata(&shard).expect("shard").len() > read_end,
        "b's append regrew the shard past the handles' last-read end"
    );
    assert_agree(&root, &handles, "2: truncate, then b appends");

    // 3. Flip one bit inside a payload every handle has decoded, then undo.
    let pristine = fs::read(&shard).expect("read shard");
    let spans = frames(&pristine);
    let (start, end) = spans[spans.len() / 2];
    let flip_at = start + 12 + (end - start - 12) / 2;
    let mut flipped = pristine.clone();
    flipped[flip_at] ^= 0x04;
    fs::write(&shard, &flipped).expect("write flipped shard");
    let damaged = assert_agree(&root, &handles, "3: bit flip");
    fs::write(&shard, &pristine).expect("undo the flip");
    let restored = assert_agree(&root, &handles, "3: flip undone");
    assert!(
        damaged.all.len() < restored.all.len(),
        "the flip hid the frames from the flipped one on"
    );

    // 4. Same-length garbage over the whole shard, then a's append
    // recreates it in place.
    #[cfg(unix)]
    let inode = {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(&shard).expect("shard").ino()
    };
    let garbage: Vec<u8> = (0..pristine.len()).map(|i| (i * 131 + 7) as u8).collect();
    fs::write(&shard, &garbage).expect("write garbage");
    let wiped = assert_agree(&root, &handles, "4: garbage");
    assert!(wiped.records[0].is_empty() && wiped.records[1].is_empty());
    assert!(!wiped.records[2].is_empty(), "the other shard is untouched");
    append_round(&a, "a4", 4);
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        assert_eq!(
            fs::metadata(&shard).expect("shard").ino(),
            inode,
            "the append recreated the shard on the same inode"
        );
    }
    assert_agree(&root, &handles, "4: a recreates the shard");

    // 5. b compacts, then the child appends again.
    let report = b.compact().expect("compaction");
    assert!(report.dropped > 0, "compaction had duplicates to fold");
    assert_agree(&root, &handles, "5: b compacts");
    run_child(&root);
    assert_agree(&root, &handles, "5: child appends after compaction");
}
