//! The sharded, append-only on-disk store.
//!
//! Layout of a store directory:
//!
//! ```text
//! <root>/meta.json        {"format_version": 1, "shard_count": N}
//! <root>/shard-00.wal     pstack-ckpt frame log (lazily created)
//! <root>/shard-01.wal     ...
//! <root>/shard-NN.lock    advisory lock, exists only while a writer appends
//! ```
//!
//! Each shard is an ordinary `pstack-ckpt` WAL: checksummed,
//! length-prefixed JSON frames with longest-valid-prefix recovery. A frame
//! is one `{key, record}` pair; a key's records all land in the shard
//! `HistoryKey::shard` routes to, so single-key queries read one file.
//!
//! Concurrency discipline (in acquisition order):
//!
//! 1. `sites::HISTORY_SHARD` — an in-process [`SyncMutex`] serializing all
//!    appends/compactions from this process. Under it a writer takes the
//!    advisory file below, then (briefly) the shard's view lock.
//! 2. `shard-NN.lock` — a cross-process advisory lock file taken with
//!    `O_CREAT|O_EXCL` while the in-process mutex is held, so sessions in
//!    *different* processes also serialize per shard. Stale locks (crashed
//!    writers) are broken after [`STALE_LOCK`].
//! 3. `sites::HISTORY_CACHE` — one [`SyncMutex`] per shard over the
//!    handle's decoded view of that shard (leaf lock). It is held for one
//!    checksum walk of the shard file plus the query that reads the view,
//!    never across `fdatasync` or the lock-file wait. Readers take only
//!    this lock, never the gate or the lock file.

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pstack_ckpt::{read_wal_from, CkptError, WalWriter};
use pstack_sync::{sites, SyncMutex};
use serde::{Deserialize, Serialize, Value};

use crate::key::{config_fingerprint, HistoryKey, HISTORY_FORMAT_VERSION};

/// What went wrong while opening, appending to, or querying a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// A shard log failed at the checkpoint layer.
    Ckpt(CkptError),
    /// A filesystem operation outside the WAL failed.
    Io {
        /// Offending path.
        path: String,
        /// OS error rendered as text.
        detail: String,
    },
    /// `meta.json` is missing a field, has the wrong format version, or
    /// conflicts with the shard count the caller asked for.
    Meta {
        /// The store's `meta.json` path.
        path: String,
        /// What specifically is wrong.
        detail: String,
    },
    /// A record or parameter was rejected before it reached disk
    /// (non-finite objective, shard count out of bounds).
    Invalid {
        /// What was rejected and why.
        detail: String,
    },
    /// The cross-process advisory lock could not be acquired in time.
    LockTimeout {
        /// The lock file that stayed held.
        path: String,
    },
}

impl From<CkptError> for HistoryError {
    fn from(e: CkptError) -> Self {
        HistoryError::Ckpt(e)
    }
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Ckpt(e) => write!(f, "history shard log: {e}"),
            HistoryError::Io { path, detail } => write!(f, "history I/O on {path}: {detail}"),
            HistoryError::Meta { path, detail } => write!(f, "history meta {path}: {detail}"),
            HistoryError::Invalid { detail } => write!(f, "invalid history input: {detail}"),
            HistoryError::LockTimeout { path } => {
                write!(f, "timed out waiting for history shard lock {path}")
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// One evaluation as stored: the configuration (index vector), the scalar
/// objective, auxiliary metrics, and provenance (which session, at which
/// ordinal within that session).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Configuration as per-parameter value indices.
    pub config: Vec<usize>,
    /// Scalar objective (finite; enforced on append).
    pub objective: f64,
    /// Auxiliary metrics (time, energy, power, ...).
    pub aux: HashMap<String, f64>,
    /// Label of the session that produced the observation.
    pub session: String,
    /// Position of the observation within its session.
    pub ordinal: u64,
}

/// One `{key, record}` frame as it sits in a shard log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardFrame {
    key: HistoryKey,
    record: HistoryRecord,
}

/// Summary of a key's records (see [`HistoryStore::stats`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistoryStats {
    /// Raw (pre-compaction) records under the key.
    pub records: usize,
    /// Distinct configurations among them.
    pub distinct_configs: usize,
    /// Best (minimum) objective observed, if any records exist.
    pub best_objective: Option<f64>,
    /// Shard files currently present in the store directory — context for
    /// how spread out the store as a whole is, not a per-key quantity.
    pub shards_touched: usize,
}

/// What a [`HistoryStore::compact`] pass did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CompactionReport {
    /// Frames read across all shards.
    pub scanned: usize,
    /// Frames kept (one per `(key, config)` pair, the best observation).
    pub kept: usize,
    /// Duplicate frames dropped.
    pub dropped: usize,
    /// Shard files rewritten (shards that were already compact are left
    /// untouched on disk).
    pub shards_rewritten: usize,
}

// Outermost history lock: serializes every append/compaction in this
// process so shard logs only ever see one in-process writer; the advisory lock file taken
// under it extends the same exclusion across processes.
static APPEND_GATE: SyncMutex<()> = SyncMutex::new(sites::HISTORY_SHARD, ());

/// How long a `shard-NN.lock` may sit unchanged before it is presumed to
/// belong to a crashed writer and broken.
const STALE_LOCK: Duration = Duration::from_secs(30);

/// Cross-process advisory lock held for the duration of one append or
/// compaction of one shard. Created with `O_CREAT|O_EXCL`; removed on drop.
struct ShardLock {
    path: PathBuf,
}

impl ShardLock {
    fn acquire(path: PathBuf) -> Result<Self, HistoryError> {
        // ~2 s worst case before declaring a timeout; appends hold the
        // lock for microseconds, so contention resolves in a few spins.
        const ATTEMPTS: u32 = 500;
        for attempt in 0..ATTEMPTS {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(ShardLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if is_stale(&path) {
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    std::thread::sleep(Duration::from_millis(1 + u64::from(attempt % 4)));
                }
                Err(e) => {
                    return Err(HistoryError::Io {
                        path: path.display().to_string(),
                        detail: e.to_string(),
                    })
                }
            }
        }
        Err(HistoryError::LockTimeout {
            path: path.display().to_string(),
        })
    }
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn is_stale(path: &Path) -> bool {
    match fs::metadata(path).and_then(|m| m.modified()) {
        Ok(modified) => modified
            .elapsed()
            .map(|age| age > STALE_LOCK)
            .unwrap_or(false),
        // Racing the holder's release is the common cause; not stale.
        Err(_) => false,
    }
}

/// `meta.json` contents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct StoreMeta {
    format_version: u32,
    shard_count: usize,
}

/// One shard's frames as a handle last decoded them. Every query first
/// brings the view up to date with [`ShardView::refresh`], which
/// re-checks the checksum of every frame in the file; only frames after
/// the leading run that still matches are decoded again.
#[derive(Default)]
struct ShardView {
    /// Checksum of every data frame in the shard's valid prefix: the
    /// cursor of the next walk.
    checksums: Vec<u64>,
    /// One entry per data frame, in append order; `None` for a frame that
    /// checksums but is not a `{key, record}` pair (readers skip it).
    frames: Vec<Option<(HistoryKey, HistoryRecord)>>,
    /// Per key, the index in `frames` of each configuration's best record
    /// (by config fingerprint), folded with [`improves`] in append order.
    best: HashMap<HistoryKey, HashMap<String, usize>>,
}

impl std::fmt::Debug for ShardView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardView")
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

impl ShardView {
    /// Bring the view up to date with the shard file at `path`, tolerating
    /// damage: a missing file or an unreadable preamble/header leaves an
    /// empty view (the longest valid prefix of nothing) and returns `None`,
    /// a torn or bit-flipped tail leaves the frames before it, and frames
    /// that checksum but no longer decode are skipped. Otherwise returns
    /// the end of the valid prefix. Only plain I/O failures propagate.
    /// Never panics.
    fn refresh(&mut self, path: &Path) -> Result<Option<u64>, HistoryError> {
        if !path.exists() {
            *self = ShardView::default();
            return Ok(None);
        }
        let walk = match read_wal_from(path, &self.checksums) {
            Ok(walk) => walk,
            Err(CkptError::Corrupt { .. } | CkptError::SchemaMismatch { .. }) => {
                *self = ShardView::default();
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        // A changed leading frame invalidates the fold over everything
        // after it, so the best-per-config index is rebuilt from scratch.
        let fold_from = if walk.kept == self.frames.len() {
            walk.kept
        } else {
            self.best.clear();
            0
        };
        // Until the update is complete the view claims no frames, so one
        // left half-updated by a panic is rebuilt whole by the next walk.
        self.checksums.clear();
        self.frames.truncate(walk.kept);
        self.frames.extend(
            walk.records
                .iter()
                .map(|v| ShardFrame::from_value(v).ok().map(|f| (f.key, f.record))),
        );
        let ShardView { frames, best, .. } = self;
        for (i, frame) in frames.iter().enumerate().skip(fold_from) {
            let Some((key, record)) = frame else {
                continue;
            };
            let configs = match best.get_mut(key) {
                Some(configs) => configs,
                None => best.entry(key.clone()).or_default(),
            };
            let fp = config_fingerprint(&record.config);
            match configs.get(&fp) {
                Some(&j)
                    if frames[j]
                        .as_ref()
                        .is_some_and(|(_, incumbent)| !improves(record, incumbent)) => {}
                _ => {
                    configs.insert(fp, i);
                }
            }
        }
        self.checksums = walk.checksums;
        Ok(Some(walk.valid_end))
    }

    /// The decoded `{key, record}` frames, in append order.
    fn decoded(&self) -> impl Iterator<Item = &(HistoryKey, HistoryRecord)> {
        self.frames.iter().flatten()
    }
}

/// Handle on a store directory. Cheap to open. The records live on disk;
/// a handle keeps one decoded view per shard, shared with its clones
/// through an `Arc`, and brings it up to date on every call by re-checking
/// every frame's checksum and decoding only what is new. So every handle —
/// in this process or another — answers exactly as a freshly opened one
/// would, and appends are serialized by the locking discipline above.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    root: PathBuf,
    shard_count: usize,
    views: Arc<[SyncMutex<ShardView>]>,
}

impl HistoryStore {
    /// Shard count used when creating a store without an explicit choice.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Upper bound on the shard count (PSA019 checks the shipped model
    /// stays within it).
    pub const MAX_SHARDS: usize = 64;

    /// Open (or create) the store at `root`. An existing store keeps the
    /// shard count it was created with; a fresh one gets
    /// [`Self::DEFAULT_SHARDS`].
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, HistoryError> {
        Self::open_inner(root.into(), None)
    }

    /// Open (or create) the store at `root` with an explicit shard count.
    /// Errors if an existing store was created with a different count.
    pub fn open_with_shards(
        root: impl Into<PathBuf>,
        shard_count: usize,
    ) -> Result<Self, HistoryError> {
        Self::open_inner(root.into(), Some(shard_count))
    }

    fn open_inner(root: PathBuf, requested: Option<usize>) -> Result<Self, HistoryError> {
        if let Some(n) = requested {
            if n == 0 || n > Self::MAX_SHARDS {
                return Err(HistoryError::Invalid {
                    detail: format!(
                        "shard count {n} outside 1..={} (see PSA019)",
                        Self::MAX_SHARDS
                    ),
                });
            }
        }
        fs::create_dir_all(&root).map_err(|e| HistoryError::Io {
            path: root.display().to_string(),
            detail: e.to_string(),
        })?;
        let meta_path = root.join("meta.json");
        let shard_count = if meta_path.exists() {
            let meta = read_meta(&meta_path)?;
            if meta.format_version != HISTORY_FORMAT_VERSION {
                return Err(HistoryError::Meta {
                    path: meta_path.display().to_string(),
                    detail: format!(
                        "format v{} on disk, this build understands v{}",
                        meta.format_version, HISTORY_FORMAT_VERSION
                    ),
                });
            }
            if meta.shard_count == 0 || meta.shard_count > Self::MAX_SHARDS {
                return Err(HistoryError::Meta {
                    path: meta_path.display().to_string(),
                    detail: format!(
                        "shard count {} outside 1..={}",
                        meta.shard_count,
                        Self::MAX_SHARDS
                    ),
                });
            }
            if let Some(n) = requested {
                if n != meta.shard_count {
                    return Err(HistoryError::Meta {
                        path: meta_path.display().to_string(),
                        detail: format!(
                            "store has {} shards, caller asked for {n}; resharding is not supported",
                            meta.shard_count
                        ),
                    });
                }
            }
            meta.shard_count
        } else {
            let n = requested.unwrap_or(Self::DEFAULT_SHARDS);
            write_meta(
                &meta_path,
                &StoreMeta {
                    format_version: HISTORY_FORMAT_VERSION,
                    shard_count: n,
                },
            )?;
            n
        };
        let views = (0..shard_count)
            .map(|_| SyncMutex::new(sites::HISTORY_CACHE, ShardView::default()))
            .collect();
        Ok(HistoryStore {
            root,
            shard_count,
            views,
        })
    }

    /// The store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// How many shards the store routes keys across.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard:02}.wal"))
    }

    fn lock_path(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard:02}.lock"))
    }

    fn shard_header(&self, shard: usize) -> Value {
        Value::Map(vec![
            (
                "format_version".to_string(),
                Value::UInt(u64::from(HISTORY_FORMAT_VERSION)),
            ),
            (
                "kind".to_string(),
                Value::Str("pstack-history-shard".to_string()),
            ),
            ("shard".to_string(), Value::UInt(shard as u64)),
        ])
    }

    /// Append `records` under `key`. Safe against concurrent writers in
    /// this and other processes; returns the number of records appended.
    pub fn append(
        &self,
        key: &HistoryKey,
        records: &[HistoryRecord],
    ) -> Result<usize, HistoryError> {
        if records.is_empty() {
            return Ok(0);
        }
        for r in records {
            if !r.objective.is_finite() {
                return Err(HistoryError::Invalid {
                    detail: format!(
                        "non-finite objective {} for config {:?} (session {})",
                        r.objective, r.config, r.session
                    ),
                });
            }
        }
        let shard = key.shard(self.shard_count);
        let _gate = APPEND_GATE.lock();
        let _flock = ShardLock::acquire(self.lock_path(shard))?;
        let path = self.shard_path(shard);
        // Absorb other writers' frames and find the tail; the view lock is
        // released again before anything is written or synced.
        let tail = self.views[shard].lock().refresh(&path)?;
        // No automatic syncs: the one below covers the whole batch.
        let mut writer = match tail {
            Some(end) => WalWriter::open_at(&path, end, usize::MAX)?,
            // A missing shard, or a destroyed preamble/header that readers
            // already see as empty: the honest recovery is a fresh log,
            // mirroring that emptiness, rather than refusing every future
            // append.
            None => WalWriter::create(&path, &self.shard_header(shard), usize::MAX)?,
        };
        for r in records {
            writer.append(&ShardFrame {
                key: key.clone(),
                record: r.clone(),
            })?;
        }
        writer.sync()?;
        Ok(records.len())
    }

    /// Run `f` on shard `shard`'s view, brought up to date with the file
    /// first.
    fn with_view<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&ShardView) -> T,
    ) -> Result<T, HistoryError> {
        let mut view = self.views[shard].lock();
        view.refresh(&self.shard_path(shard))?;
        Ok(f(&view))
    }

    /// All records under `key`, in append order.
    pub fn records(&self, key: &HistoryKey) -> Result<Vec<HistoryRecord>, HistoryError> {
        self.with_view(key.shard(self.shard_count), |view| {
            view.decoded()
                .filter(|(k, _)| k == key)
                .map(|(_, r)| r.clone())
                .collect()
        })
    }

    /// Every `(key, record)` pair in the store, shard by shard.
    pub fn all_records(&self) -> Result<Vec<(HistoryKey, HistoryRecord)>, HistoryError> {
        let mut out = Vec::new();
        for shard in 0..self.shard_count {
            self.with_view(shard, |view| out.extend(view.decoded().cloned()))?;
        }
        Ok(out)
    }

    /// Distinct keys present, sorted.
    pub fn keys(&self) -> Result<Vec<HistoryKey>, HistoryError> {
        let mut keys = Vec::new();
        for shard in 0..self.shard_count {
            self.with_view(shard, |view| keys.extend(view.best.keys().cloned()))?;
        }
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    /// Distinct keys whose space fingerprint is `space_fp` — every `(app,
    /// objective)` pair ever tuned on that space.
    pub fn matching_space(&self, space_fp: &str) -> Result<Vec<HistoryKey>, HistoryError> {
        Ok(self
            .keys()?
            .into_iter()
            .filter(|k| k.space == space_fp)
            .collect())
    }

    /// The best `k` records under `key`: deduped by configuration
    /// fingerprint (each config represented by its best observation),
    /// sorted by `(objective, config)` — a total order, so the result is
    /// identical no matter how concurrent writers interleaved the shard.
    pub fn best_k(&self, key: &HistoryKey, k: usize) -> Result<Vec<HistoryRecord>, HistoryError> {
        self.with_view(key.shard(self.shard_count), |view| {
            let mut best: Vec<&HistoryRecord> = view
                .best
                .get(key)
                .into_iter()
                .flat_map(HashMap::values)
                .filter_map(|&i| view.frames[i].as_ref().map(|(_, r)| r))
                .collect();
            best.sort_by(|a, b| {
                a.objective
                    .total_cmp(&b.objective)
                    .then_with(|| a.config.cmp(&b.config))
            });
            best.into_iter().take(k).cloned().collect()
        })
    }

    /// Summary of the records under `key`.
    pub fn stats(&self, key: &HistoryKey) -> Result<HistoryStats, HistoryError> {
        let (records, distinct_configs, best_objective) =
            self.with_view(key.shard(self.shard_count), |view| {
                let objectives = || {
                    view.decoded()
                        .filter(|(k, _)| k == key)
                        .map(|(_, r)| r.objective)
                };
                (
                    objectives().count(),
                    view.best.get(key).map_or(0, HashMap::len),
                    objectives().min_by(f64::total_cmp),
                )
            })?;
        let shards_touched = (0..self.shard_count)
            .filter(|&s| self.shard_path(s).exists())
            .count();
        Ok(HistoryStats {
            records,
            distinct_configs,
            best_objective,
            shards_touched,
        })
    }

    /// Dedupe every shard by `(key, config fingerprint)`, keeping the best
    /// observation per pair, and rewrite the shards atomically (temp file +
    /// rename, same recipe as WAL compaction). Idempotent: a second pass
    /// scans what the first kept and drops nothing. The best-seen record of
    /// every config survives by construction — it is the representative
    /// chosen for its pair.
    pub fn compact(&self) -> Result<CompactionReport, HistoryError> {
        let _gate = APPEND_GATE.lock();
        let mut report = CompactionReport {
            scanned: 0,
            kept: 0,
            dropped: 0,
            shards_rewritten: 0,
        };
        for shard in 0..self.shard_count {
            let _flock = ShardLock::acquire(self.lock_path(shard))?;
            // Each pair's best record is already in the view's index; the
            // shard is rewritten only when those, in canonical order, are
            // not exactly its frames. The view lock is released before the
            // rewrite.
            let (scanned, kept, rewrite) = self.with_view(shard, |view| {
                let frames: Vec<&(HistoryKey, HistoryRecord)> = view.decoded().collect();
                let mut kept: Vec<&(HistoryKey, HistoryRecord)> = view
                    .best
                    .values()
                    .flat_map(HashMap::values)
                    .filter_map(|&i| view.frames[i].as_ref())
                    .collect();
                kept.sort_by(|(ka, ra), (kb, rb)| {
                    ka.cmp(kb)
                        .then_with(|| ra.objective.total_cmp(&rb.objective))
                        .then_with(|| ra.config.cmp(&rb.config))
                });
                let rewrite: Option<Vec<(HistoryKey, HistoryRecord)>> =
                    (kept != frames).then(|| kept.iter().map(|&f| f.clone()).collect());
                (frames.len(), kept.len(), rewrite)
            })?;
            report.scanned += scanned;
            report.kept += kept;
            report.dropped += scanned - kept;
            // Already compact and in canonical order: leave the bytes alone
            // so repeated passes are true no-ops.
            let Some(rewrite) = rewrite else {
                continue;
            };
            let path = self.shard_path(shard);
            let tmp = path.with_extension("wal.compact");
            let mut writer = WalWriter::create(&tmp, &self.shard_header(shard), usize::MAX)?;
            for (key, record) in rewrite {
                writer.append(&ShardFrame { key, record })?;
            }
            writer.sync()?;
            drop(writer);
            fs::rename(&tmp, &path).map_err(|e| HistoryError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
            report.shards_rewritten += 1;
        }
        Ok(report)
    }
}

/// Whether `candidate` should replace `incumbent` as a config's
/// representative: strictly better objective, or equal objective with
/// earlier provenance (so ties resolve identically on every replay).
fn improves(candidate: &HistoryRecord, incumbent: &HistoryRecord) -> bool {
    match candidate.objective.total_cmp(&incumbent.objective) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            (&candidate.session, candidate.ordinal) < (&incumbent.session, incumbent.ordinal)
        }
    }
}

fn read_meta(path: &Path) -> Result<StoreMeta, HistoryError> {
    let text = fs::read_to_string(path).map_err(|e| HistoryError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let value: Value = serde_json::from_str(&text).map_err(|e| HistoryError::Meta {
        path: path.display().to_string(),
        detail: format!("not valid JSON: {e}"),
    })?;
    StoreMeta::from_value(&value).map_err(|e| HistoryError::Meta {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

fn write_meta(path: &Path, meta: &StoreMeta) -> Result<(), HistoryError> {
    let json = serde_json::to_string(&meta.to_value()).map_err(|e| HistoryError::Meta {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, json).map_err(|e| HistoryError::Io {
        path: tmp.display().to_string(),
        detail: e.to_string(),
    })?;
    fs::rename(&tmp, path).map_err(|e| HistoryError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_ckpt::ScratchDir;

    fn key(app: &str) -> HistoryKey {
        HistoryKey::new("00112233aabbccdd", app, "min-edp")
    }

    fn rec(cfg: &[usize], objective: f64, session: &str, ordinal: u64) -> HistoryRecord {
        let mut aux = HashMap::new();
        aux.insert("time_s".to_string(), objective / 2.0);
        aux.insert("energy_j".to_string(), objective * 3.0);
        HistoryRecord {
            config: cfg.to_vec(),
            objective,
            aux,
            session: session.to_string(),
            ordinal,
        }
    }

    #[test]
    fn append_and_query_round_trip() {
        let dir = ScratchDir::new("hist-roundtrip");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        assert_eq!(store.shard_count(), HistoryStore::DEFAULT_SHARDS);
        let k = key("hypre");
        store
            .append(
                &k,
                &[
                    rec(&[0, 1], 10.0, "s1", 0),
                    rec(&[2, 3], 5.0, "s1", 1),
                    rec(&[4, 5], 7.5, "s1", 2),
                ],
            )
            .expect("append");
        let got = store.records(&k).expect("records");
        assert_eq!(got.len(), 3);
        assert_eq!(got[1], rec(&[2, 3], 5.0, "s1", 1));
        let best = store.best_k(&k, 2).expect("best_k");
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].config, vec![2, 3]);
        assert_eq!(best[1].config, vec![4, 5]);
        let stats = store.stats(&k).expect("stats");
        assert_eq!(stats.records, 3);
        assert_eq!(stats.distinct_configs, 3);
        assert_eq!(stats.best_objective, Some(5.0));
        assert!(stats.shards_touched >= 1);
    }

    #[test]
    fn keys_do_not_mix_and_matching_space_filters() {
        let dir = ScratchDir::new("hist-keys");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        let ka = key("hypre");
        let kb = key("kernel");
        let kc = HistoryKey::new("ffffeeeeddddcccc", "hypre", "min-edp");
        store.append(&ka, &[rec(&[0], 1.0, "a", 0)]).expect("a");
        store.append(&kb, &[rec(&[1], 2.0, "b", 0)]).expect("b");
        store.append(&kc, &[rec(&[2], 3.0, "c", 0)]).expect("c");
        assert_eq!(store.records(&ka).expect("ra").len(), 1);
        assert_eq!(store.records(&kb).expect("rb").len(), 1);
        assert_eq!(store.best_k(&ka, 10).expect("ba")[0].config, vec![0]);
        let same_space = store.matching_space("00112233aabbccdd").expect("match");
        assert_eq!(same_space, vec![ka.clone(), kb.clone()]);
        assert_eq!(store.keys().expect("keys").len(), 3);
    }

    #[test]
    fn reopen_preserves_records_and_shard_count() {
        let dir = ScratchDir::new("hist-reopen");
        let root = dir.path().join("db");
        let store = HistoryStore::open_with_shards(&root, 4).expect("open");
        store
            .append(&key("hypre"), &[rec(&[1, 2, 3], 4.0, "s", 0)])
            .expect("append");
        drop(store);
        let again = HistoryStore::open(&root).expect("reopen");
        assert_eq!(again.shard_count(), 4);
        assert_eq!(again.records(&key("hypre")).expect("records").len(), 1);
        // Conflicting explicit shard count is rejected, not silently resharded.
        match HistoryStore::open_with_shards(&root, 8) {
            Err(HistoryError::Meta { .. }) => {}
            other => panic!("expected Meta error, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_bounds_are_enforced() {
        let dir = ScratchDir::new("hist-bounds");
        for bad in [0, HistoryStore::MAX_SHARDS + 1] {
            match HistoryStore::open_with_shards(dir.path().join(format!("db{bad}")), bad) {
                Err(HistoryError::Invalid { .. }) => {}
                other => panic!("shard count {bad}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_objectives_are_rejected() {
        let dir = ScratchDir::new("hist-nonfinite");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match store.append(&key("hypre"), &[rec(&[0], bad, "s", 0)]) {
                Err(HistoryError::Invalid { .. }) => {}
                other => panic!("objective {bad}: expected Invalid, got {other:?}"),
            }
        }
        assert!(store.records(&key("hypre")).expect("records").is_empty());
    }

    #[test]
    fn compaction_dedupes_keeps_best_and_is_idempotent() {
        let dir = ScratchDir::new("hist-compact");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        let k = key("hypre");
        store
            .append(
                &k,
                &[
                    rec(&[0, 0], 9.0, "s1", 0),
                    rec(&[0, 0], 3.0, "s1", 1), // best for [0,0]
                    rec(&[1, 1], 4.0, "s1", 2),
                    rec(&[0, 0], 6.0, "s2", 0),
                    rec(&[1, 1], 4.0, "s2", 1), // tie: s1's copy wins (earlier provenance)
                ],
            )
            .expect("append");
        let first = store.compact().expect("compact");
        assert_eq!(first.scanned, 5);
        assert_eq!(first.kept, 2);
        assert_eq!(first.dropped, 3);
        assert_eq!(first.shards_rewritten, 1);
        let after = store.records(&k).expect("records");
        assert_eq!(after.len(), 2);
        let best = store.best_k(&k, 10).expect("best");
        assert_eq!(best[0], rec(&[0, 0], 3.0, "s1", 1));
        assert_eq!(best[1], rec(&[1, 1], 4.0, "s1", 2));
        let second = store.compact().expect("recompact");
        assert_eq!(second.scanned, 2);
        assert_eq!(second.dropped, 0);
        assert_eq!(second.shards_rewritten, 0, "second pass is a no-op");
        assert_eq!(store.records(&k).expect("records"), after);
    }

    #[test]
    fn truncation_and_garbage_never_panic() {
        let dir = ScratchDir::new("hist-corrupt");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        let k = key("hypre");
        store
            .append(
                &k,
                &[
                    rec(&[0], 1.0, "s", 0),
                    rec(&[1], 2.0, "s", 1),
                    rec(&[2], 3.0, "s", 2),
                ],
            )
            .expect("append");
        let shard_path = store.shard_path(k.shard(store.shard_count()));
        // Tear the shard mid-record: the valid prefix survives.
        let len = fs::metadata(&shard_path).expect("meta").len();
        let f = OpenOptions::new()
            .write(true)
            .open(&shard_path)
            .expect("open");
        f.set_len(len - 7).expect("truncate");
        drop(f);
        let got = store.records(&k).expect("read survives tear");
        assert_eq!(got.len(), 2);
        // Appending over the torn tail truncates it and resumes cleanly.
        store
            .append(&k, &[rec(&[9], 0.5, "s2", 0)])
            .expect("append");
        let got = store.records(&k).expect("read");
        assert_eq!(got.len(), 3);
        assert_eq!(store.best_k(&k, 1).expect("best")[0].config, vec![9]);
        // Total garbage where the shard should be: no records, no panic.
        fs::write(&shard_path, b"not a wal at all").expect("write garbage");
        assert!(store.records(&k).expect("garbage tolerated").is_empty());
    }

    #[test]
    fn concurrent_in_process_writers_lose_nothing() {
        let dir = ScratchDir::new("hist-threads");
        let root = dir.path().join("db");
        HistoryStore::open(&root).expect("create");
        let writers = 4;
        let per_writer = 8;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let root = root.clone();
                scope.spawn(move || {
                    // A separate handle per thread, as separate sessions
                    // (or processes) would hold.
                    let store = HistoryStore::open(&root).expect("open in thread");
                    let session = format!("w{w}");
                    for i in 0..per_writer {
                        store
                            .append(
                                &key("hypre"),
                                &[rec(
                                    &[w, i],
                                    (w * per_writer + i) as f64,
                                    &session,
                                    i as u64,
                                )],
                            )
                            .expect("append");
                    }
                });
            }
        });
        let store = HistoryStore::open(&root).expect("reopen");
        let all = store.records(&key("hypre")).expect("records");
        assert_eq!(all.len(), writers * per_writer, "no lost records");
        let best = store.best_k(&key("hypre"), 1).expect("best");
        assert_eq!(best[0].config, vec![0, 0]);
    }
}
