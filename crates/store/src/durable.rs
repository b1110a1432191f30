//! Durable drop-in backends: [`DurableProvider`] and [`DurableHost`]
//! wrap the sharded in-memory stores as the read path and log every
//! mutation to a [`Wal`](crate::wal::Wal) before acknowledging it.
//!
//! Write path per mutation: under a per-store commit mutex the mutation
//! is applied to the in-memory store and its record appended to the WAL
//! (so memory order and log order agree); the fsync wait happens
//! *outside* the mutex, so concurrent writers still share one group
//! commit. A mutation is acknowledged only after its sequence number is
//! durable — a crash can lose only never-acknowledged operations.
//!
//! Recovery on open loads the newest snapshot and replays the log tail
//! through the same restore hooks the snapshot uses; records carry
//! absolute ids, so replay is idempotent.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use sp_osn::{
    DurabilityCounters, OsnError, PostId, ProviderApi, ProviderBackend, PuzzleId, ReplApplied,
    ServiceProvider, ShardLoad, StorageApi, StorageBackend, StorageHost, Url, UserId,
};
use sp_wire::{Reader, Writer};

use crate::error::StoreError;
use crate::record::{scan_frame, Record, ScanStep};
use crate::wal::{FileFault, Recovered, Wal};

/// Configuration for a durable store directory.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Lock stripes for the wrapped in-memory store.
    pub shards: usize,
    /// Active-segment size that triggers rotation.
    pub segment_bytes: u64,
    /// Logged mutations between automatic snapshots.
    pub snapshot_every: u64,
    /// `true` batches fsyncs across concurrent writers (group commit);
    /// `false` fsyncs inside every append (the benchmark baseline).
    pub group_commit: bool,
    /// Optional injected file fault (crash testing).
    pub fault: Option<FileFault>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: sp_osn::DEFAULT_SHARDS,
            segment_bytes: 4 << 20,
            snapshot_every: 1024,
            group_commit: true,
            fault: None,
        }
    }
}

fn transport(_: StoreError) -> OsnError {
    OsnError::Transport
}

/// Shared append/commit/snapshot plumbing for both durable stores.
struct Engine {
    wal: Wal,
    /// Serializes {apply to memory + WAL append} so log order matches
    /// memory order; never held across an fsync.
    commit_mu: Mutex<()>,
    snapshot_every: u64,
    since_snapshot: AtomicU64,
}

impl Engine {
    fn new(wal: Wal, snapshot_every: u64) -> Self {
        Self {
            wal,
            commit_mu: Mutex::new(()),
            snapshot_every: snapshot_every.max(1),
            since_snapshot: AtomicU64::new(0),
        }
    }

    /// Applies `op` to memory and logs its record under the commit
    /// mutex, then waits for durability outside it. `op` returns the
    /// in-memory result plus the record to log; an `Err` from `op`
    /// (e.g. unknown puzzle) aborts before anything is logged.
    fn logged<T>(
        &self,
        op: impl FnOnce() -> Result<(T, Record), OsnError>,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<T, OsnError> {
        let (out, seq) = {
            let _guard = self.commit_mu.lock();
            if self.wal.is_crashed() {
                return Err(OsnError::Transport);
            }
            let (out, record) = op()?;
            let seq = self.wal.append(&record).map_err(transport)?;
            (out, seq)
        };
        self.wal.commit(seq).map_err(transport)?;
        self.maybe_snapshot(1, snapshot).map_err(transport)?;
        Ok(out)
    }

    /// Snapshots once `snapshot_every` ops have been logged since the
    /// last snapshot. Every committer whose add crosses the threshold
    /// queues on the commit mutex; the first one through snapshots and
    /// resets the counter, and the re-check sends the rest home instead
    /// of re-serializing the whole store once each.
    fn maybe_snapshot(
        &self,
        ops: u64,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), StoreError> {
        if self.since_snapshot.fetch_add(ops, Ordering::Relaxed) + ops < self.snapshot_every {
            return Ok(());
        }
        let _guard = self.commit_mu.lock();
        if self.since_snapshot.load(Ordering::Relaxed) < self.snapshot_every {
            return Ok(());
        }
        self.snapshot_locked(snapshot)
    }

    /// Takes a snapshot now, whatever the counter says.
    fn snapshot_now(&self, snapshot: impl FnOnce() -> Vec<u8>) -> Result<(), StoreError> {
        let _guard = self.commit_mu.lock();
        self.snapshot_locked(snapshot)
    }

    /// With writers quiesced by the caller's commit-mutex guard: make
    /// every logged record durable, export state, write + compact.
    fn snapshot_locked(&self, snapshot: impl FnOnce() -> Vec<u8>) -> Result<(), StoreError> {
        if self.wal.is_crashed() {
            return Err(StoreError::Crashed);
        }
        let seq = self.wal.written_seq();
        self.wal.commit(seq)?;
        let payload = snapshot();
        self.wal.write_snapshot(seq, &payload)?;
        self.since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn check_alive(&self) -> Result<(), OsnError> {
        if self.wal.is_crashed() {
            Err(OsnError::Transport)
        } else {
            Ok(())
        }
    }

    fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            durable_appends: self.wal.append_count(),
            fsync_batches: self.wal.fsync_batch_count(),
            recovery_replayed_records: self.wal.replayed_count(),
            snapshot_count: self.wal.snapshot_count(),
        }
    }
}

// ---- service provider ----------------------------------------------------

/// A durable [`ServiceProvider`]: same read semantics, every mutation
/// write-ahead-logged and recovered on reopen.
pub struct DurableProvider {
    inner: ServiceProvider,
    engine: Engine,
}

impl DurableProvider {
    /// Opens (creating if needed) a provider store in `dir`, replaying
    /// snapshot + log tail into memory.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Corrupt`] when the log fails its
    /// integrity checks anywhere but the final torn tail.
    pub fn open(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Self, StoreError> {
        let (wal, recovered) =
            Wal::open(dir.as_ref(), cfg.segment_bytes, cfg.group_commit, cfg.fault)?;
        let inner = ServiceProvider::with_shards(cfg.shards);
        Self::restore(&inner, recovered)?;
        Ok(Self { inner, engine: Engine::new(wal, cfg.snapshot_every) })
    }

    fn restore(inner: &ServiceProvider, recovered: Recovered) -> Result<(), StoreError> {
        if let Some((_, payload)) = recovered.snapshot {
            Self::load_snapshot(inner, &payload)?;
        }
        for (_, record) in recovered.records {
            Self::apply(inner, record)?;
        }
        Ok(())
    }

    fn apply(inner: &ServiceProvider, record: Record) -> Result<(), StoreError> {
        match record {
            Record::PublishPuzzle { id, record } | Record::ReplacePuzzle { id, record } => {
                inner.restore_puzzle(id, record);
            }
            Record::DeletePuzzle { id } => {
                // Replaying a delete of an id the snapshot already dropped
                // is a no-op, not corruption.
                let _ = inner.delete_puzzle(PuzzleId::from_raw(id));
            }
            Record::LogAccess { user, puzzle, granted } => {
                inner.log_access(UserId::from_raw(user), PuzzleId::from_raw(puzzle), granted);
            }
            Record::Post { id, author, text, puzzle } => {
                inner.restore_post(id, UserId::from_raw(author), text, PuzzleId::from_raw(puzzle));
            }
            other => {
                return Err(StoreError::Corrupt {
                    segment: "provider log".to_owned(),
                    offset: 0,
                    detail: format!("blob record in a provider store: {other:?}"),
                });
            }
        }
        Ok(())
    }

    /// Snapshot payload: `next_puzzle ‖ puzzles ‖ next_post ‖ posts
    /// (feed order) ‖ audit entries (seq order)`.
    fn snapshot_payload(inner: &ServiceProvider) -> Vec<u8> {
        let puzzles = inner.export_puzzles();
        let (next_post, posts) = inner.export_posts();
        let audit = inner.audit_log();
        let mut w = Writer::new();
        w.u64(inner.next_puzzle_id());
        w.u32(puzzles.len() as u32);
        for (id, record) in &puzzles {
            w.u64(*id).bytes(record);
        }
        w.u64(next_post);
        w.u32(posts.len() as u32);
        for (id, post) in &posts {
            w.u64(*id).u64(post.author.raw()).string(&post.text).u64(post.puzzle.raw());
        }
        w.u32(audit.len() as u32);
        for entry in &audit {
            w.u64(entry.user.raw()).u64(entry.puzzle.raw()).u8(u8::from(entry.granted));
        }
        w.finish().to_vec()
    }

    fn load_snapshot(inner: &ServiceProvider, payload: &[u8]) -> Result<(), StoreError> {
        let mut r = Reader::new(payload);
        let next_puzzle = r.u64()?;
        let n_puzzles = r.u32()?;
        for _ in 0..n_puzzles {
            let id = r.u64()?;
            let record = Bytes::copy_from_slice(r.bytes()?);
            inner.restore_puzzle(id, record);
        }
        inner.bump_next_puzzle_id(next_puzzle);
        let next_post = r.u64()?;
        let n_posts = r.u32()?;
        for _ in 0..n_posts {
            let id = r.u64()?;
            let author = UserId::from_raw(r.u64()?);
            let text = r.string()?.to_owned();
            let puzzle = PuzzleId::from_raw(r.u64()?);
            inner.restore_post(id, author, text, puzzle);
        }
        let _ = next_post; // restore_post already raises the allocator
        let n_audit = r.u32()?;
        let mut entries = Vec::with_capacity(n_audit as usize);
        for _ in 0..n_audit {
            let user = UserId::from_raw(r.u64()?);
            let puzzle = PuzzleId::from_raw(r.u64()?);
            let granted = r.u8()? != 0;
            entries.push((user, puzzle, granted));
        }
        inner.log_access_batch(entries);
        r.expect_end()?;
        Ok(())
    }

    /// The wrapped in-memory provider (the read path). Mutating it
    /// directly bypasses the log — tests only.
    pub fn in_memory(&self) -> &ServiceProvider {
        &self.inner
    }

    /// The underlying log, for counters and tests.
    pub fn wal(&self) -> &Wal {
        &self.engine.wal
    }

    /// Forces a snapshot (and compaction) right now.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Crashed`] after a fault.
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        self.engine.snapshot_now(|| Self::snapshot_payload(&self.inner))
    }

    /// Durability counters for metrics export.
    pub fn durability_counters(&self) -> DurabilityCounters {
        self.engine.counters()
    }

    /// Applies one replication batch — frames a primary exported with
    /// [`Wal::export_frames_after`] — to memory *and* the local log,
    /// then commits. Because [`Record::frame`] is deterministic and the
    /// replica's own appends assign the same sequence numbers, the
    /// replica's log stays byte-identical to the primary's; promotion
    /// is just "reopen the directory" (or keep serving in place).
    ///
    /// Frames at or below the local written watermark are duplicates
    /// (a retried batch) and are skipped. Returns `(durable watermark,
    /// records applied, puzzle ids touched)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a sequence gap, a truncated or
    /// corrupt frame, or a seq misalignment between the stream and the
    /// local log; [`StoreError::Crashed`] after a fault.
    pub fn apply_repl_frames(&self, frames: &[u8]) -> Result<(u64, u64, Vec<u64>), StoreError> {
        let corrupt = |offset: usize, detail: String| StoreError::Corrupt {
            segment: "replication".to_owned(),
            offset: offset as u64,
            detail,
        };
        let (last, applied, touched) = {
            let _guard = self.engine.commit_mu.lock();
            if self.engine.wal.is_crashed() {
                return Err(StoreError::Crashed);
            }
            let mut last = self.engine.wal.written_seq();
            let mut applied = 0u64;
            let mut touched = Vec::new();
            let mut off = 0usize;
            while off < frames.len() {
                match scan_frame(&frames[off..]) {
                    ScanStep::Complete { seq, record, consumed } => {
                        if seq <= last {
                            off += consumed;
                            continue;
                        }
                        if seq != last + 1 {
                            return Err(corrupt(
                                off,
                                format!("replication gap: want seq {}, got {seq}", last + 1),
                            ));
                        }
                        match &record {
                            Record::PublishPuzzle { id, .. }
                            | Record::ReplacePuzzle { id, .. }
                            | Record::DeletePuzzle { id } => touched.push(*id),
                            _ => {}
                        }
                        Self::apply(&self.inner, record.clone())?;
                        let got = self.engine.wal.append(&record)?;
                        if got != seq {
                            return Err(corrupt(
                                off,
                                format!("local log at seq {got} disagrees with stream seq {seq}"),
                            ));
                        }
                        last = seq;
                        applied += 1;
                        off += consumed;
                    }
                    ScanStep::Incomplete => {
                        return Err(corrupt(off, "truncated replication frame".to_owned()));
                    }
                    ScanStep::Corrupt { detail } => return Err(corrupt(off, detail)),
                }
            }
            (last, applied, touched)
        };
        if applied > 0 {
            self.engine.wal.commit(last)?;
        }
        Ok((self.engine.wal.durable_seq(), applied, touched))
    }
}

impl ProviderApi for DurableProvider {
    fn publish_puzzle(&self, record: Bytes) -> Result<PuzzleId, OsnError> {
        self.engine.logged(
            || {
                let id = self.inner.publish_puzzle(record.clone());
                Ok((id, Record::PublishPuzzle { id: id.raw(), record }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn fetch_puzzle(&self, id: PuzzleId) -> Result<Bytes, OsnError> {
        self.engine.check_alive()?;
        self.inner.fetch_puzzle(id)
    }

    fn replace_puzzle(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.engine.logged(
            || {
                self.inner.replace_puzzle(id, record.clone())?;
                Ok(((), Record::ReplacePuzzle { id: id.raw(), record }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn delete_puzzle(&self, id: PuzzleId) -> Result<(), OsnError> {
        self.engine.logged(
            || {
                self.inner.delete_puzzle(id)?;
                Ok(((), Record::DeletePuzzle { id: id.raw() }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn log_access(&self, user: UserId, puzzle: PuzzleId, granted: bool) -> Result<(), OsnError> {
        self.engine.logged(
            || {
                self.inner.log_access(user, puzzle, granted);
                Ok(((), Record::LogAccess { user: user.raw(), puzzle: puzzle.raw(), granted }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn post(&self, author: UserId, text: &str, puzzle: PuzzleId) -> Result<PostId, OsnError> {
        self.engine.logged(
            || {
                let id = self.inner.post(author, text, puzzle);
                Ok((
                    id,
                    Record::Post {
                        id: id.raw(),
                        author: author.raw(),
                        text: text.to_owned(),
                        puzzle: puzzle.raw(),
                    },
                ))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }
}

impl ProviderBackend for DurableProvider {
    fn log_access_batch(&self, entries: Vec<(UserId, PuzzleId, bool)>) -> Result<(), OsnError> {
        if entries.is_empty() {
            return self.engine.check_alive();
        }
        let n = entries.len() as u64;
        let last_seq = {
            let _guard = self.engine.commit_mu.lock();
            if self.engine.wal.is_crashed() {
                return Err(OsnError::Transport);
            }
            self.inner.log_access_batch(entries.iter().copied());
            let mut last = 0;
            for (user, puzzle, granted) in &entries {
                last = self
                    .engine
                    .wal
                    .append(&Record::LogAccess {
                        user: user.raw(),
                        puzzle: puzzle.raw(),
                        granted: *granted,
                    })
                    .map_err(transport)?;
            }
            last
        };
        self.engine.wal.commit(last_seq).map_err(transport)?;
        self.engine.maybe_snapshot(n, || Self::snapshot_payload(&self.inner)).map_err(transport)?;
        Ok(())
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner.shard_loads()
    }

    fn durability(&self) -> Option<DurabilityCounters> {
        Some(self.engine.counters())
    }

    fn publish_puzzle_at(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.engine.logged(
            || {
                self.inner.restore_puzzle(id.raw(), record.clone());
                Ok(((), Record::PublishPuzzle { id: id.raw(), record }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn repl_export(&self, after_seq: u64) -> Result<(u64, Vec<u8>), String> {
        self.engine.wal.export_frames_after(after_seq).map_err(|e| e.to_string())
    }

    fn repl_apply(&self, frames: &[u8]) -> Result<ReplApplied, String> {
        self.apply_repl_frames(frames)
            .map(|(watermark, applied, puzzles_touched)| ReplApplied {
                watermark,
                applied,
                puzzles_touched,
            })
            .map_err(|e| e.to_string())
    }

    fn repl_watermark(&self) -> u64 {
        self.engine.wal.durable_seq()
    }
}

// ---- storage host --------------------------------------------------------

/// A durable [`StorageHost`]: same read semantics, every blob mutation
/// write-ahead-logged and recovered on reopen.
pub struct DurableHost {
    inner: StorageHost,
    engine: Engine,
}

impl DurableHost {
    /// Opens (creating if needed) a blob store in `dir`, replaying
    /// snapshot + log tail into memory.
    ///
    /// # Errors
    ///
    /// Same surface as [`DurableProvider::open`].
    pub fn open(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Self, StoreError> {
        let (wal, recovered) =
            Wal::open(dir.as_ref(), cfg.segment_bytes, cfg.group_commit, cfg.fault)?;
        let inner = StorageHost::with_shards(cfg.shards);
        if let Some((_, payload)) = recovered.snapshot {
            Self::load_snapshot(&inner, &payload)?;
        }
        for (_, record) in recovered.records {
            Self::apply(&inner, record)?;
        }
        Ok(Self { inner, engine: Engine::new(wal, cfg.snapshot_every) })
    }

    fn apply(inner: &StorageHost, record: Record) -> Result<(), StoreError> {
        match record {
            Record::PutBlob { url, data } | Record::FillBlob { url, data } => {
                inner.restore_blob(&url, data);
            }
            Record::DeleteBlob { url } => {
                let _ = inner.delete(&Url::from(url));
            }
            other => {
                return Err(StoreError::Corrupt {
                    segment: "blob log".to_owned(),
                    offset: 0,
                    detail: format!("provider record in a blob store: {other:?}"),
                });
            }
        }
        Ok(())
    }

    /// Snapshot payload: `next_id ‖ blobs (sorted by URL)`.
    fn snapshot_payload(inner: &StorageHost) -> Vec<u8> {
        let blobs = inner.export_blobs();
        let mut w = Writer::new();
        w.u64(inner.next_object_id());
        w.u32(blobs.len() as u32);
        for (url, data) in &blobs {
            w.string(url).bytes(data);
        }
        w.finish().to_vec()
    }

    fn load_snapshot(inner: &StorageHost, payload: &[u8]) -> Result<(), StoreError> {
        let mut r = Reader::new(payload);
        let next_id = r.u64()?;
        let n = r.u32()?;
        for _ in 0..n {
            let url = r.string()?.to_owned();
            let data = Bytes::copy_from_slice(r.bytes()?);
            inner.restore_blob(&url, data);
        }
        inner.bump_next_object_id(next_id);
        r.expect_end()?;
        Ok(())
    }

    /// The wrapped in-memory host (the read path). Tests only.
    pub fn in_memory(&self) -> &StorageHost {
        &self.inner
    }

    /// The underlying log, for counters and tests.
    pub fn wal(&self) -> &Wal {
        &self.engine.wal
    }

    /// Forces a snapshot (and compaction) right now.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Crashed`] after a fault.
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        self.engine.snapshot_now(|| Self::snapshot_payload(&self.inner))
    }

    /// Durability counters for metrics export.
    pub fn durability_counters(&self) -> DurabilityCounters {
        self.engine.counters()
    }
}

impl StorageApi for DurableHost {
    fn reserve(&self) -> Result<Url, OsnError> {
        self.engine.logged(
            || {
                let url = self.inner.reserve();
                Ok((
                    url.clone(),
                    Record::PutBlob { url: url.as_str().to_owned(), data: Bytes::new() },
                ))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn put(&self, data: Bytes) -> Result<Url, OsnError> {
        self.engine.logged(
            || {
                let url = self.inner.put(data.clone());
                Ok((url.clone(), Record::PutBlob { url: url.as_str().to_owned(), data }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn fill(&self, url: &Url, data: Bytes) -> Result<(), OsnError> {
        self.engine.logged(
            || {
                self.inner.fill(url, data.clone())?;
                Ok(((), Record::FillBlob { url: url.as_str().to_owned(), data }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }

    fn get(&self, url: &Url) -> Result<Bytes, OsnError> {
        self.engine.check_alive()?;
        self.inner.get(url)
    }

    fn delete(&self, url: &Url) -> Result<(), OsnError> {
        self.engine.logged(
            || {
                self.inner.delete(url)?;
                Ok(((), Record::DeleteBlob { url: url.as_str().to_owned() }))
            },
            || Self::snapshot_payload(&self.inner),
        )
    }
}

impl StorageBackend for DurableHost {
    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner.shard_loads()
    }

    fn durability(&self) -> Option<DurabilityCounters> {
        Some(self.engine.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn fresh(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sp-store-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> StoreConfig {
        StoreConfig { segment_bytes: 256, snapshot_every: 7, ..StoreConfig::default() }
    }

    #[test]
    fn provider_state_survives_reopen() {
        let dir = fresh("provider");
        let (id, post_id);
        {
            let sp = DurableProvider::open(&dir, tiny()).unwrap();
            id = sp.publish_puzzle(Bytes::from_static(b"record-v1")).unwrap();
            sp.replace_puzzle(id, Bytes::from_static(b"record-v2")).unwrap();
            let gone = sp.publish_puzzle(Bytes::from_static(b"ephemeral")).unwrap();
            sp.delete_puzzle(gone).unwrap();
            sp.log_access(UserId::from_raw(3), id, true).unwrap();
            sp.log_access_batch(vec![
                (UserId::from_raw(4), id, false),
                (UserId::from_raw(5), id, true),
            ])
            .unwrap();
            post_id = sp.post(UserId::from_raw(3), "solve it", id).unwrap();
            let c = sp.durability_counters();
            assert!(c.durable_appends >= 7);
            assert!(c.fsync_batches >= 1);
        }
        let sp = DurableProvider::open(&dir, tiny()).unwrap();
        assert_eq!(sp.fetch_puzzle(id).unwrap(), Bytes::from_static(b"record-v2"));
        let audit = sp.in_memory().audit_log();
        assert_eq!(audit.len(), 3);
        assert_eq!(audit[0].user, UserId::from_raw(3));
        assert!(!audit[1].granted);
        let post = sp.in_memory().read_post(post_id).unwrap();
        assert_eq!(post.text, "solve it");
        // Replay bumped the id allocators: a fresh publish must not
        // collide with the replayed ones.
        let fresh_id = sp.publish_puzzle(Bytes::new()).unwrap();
        assert!(fresh_id.raw() > id.raw());
        // snapshot_every=7 fired mid-run, so recovery is snapshot + a
        // short log tail, not the whole history.
        assert!(sp.durability().unwrap().recovery_replayed_records >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_kick_in_and_recovery_still_agrees() {
        let dir = fresh("snapshot");
        {
            let sp = DurableProvider::open(&dir, tiny()).unwrap();
            for i in 0..40u64 {
                let id = sp.publish_puzzle(Bytes::from(vec![i as u8])).unwrap();
                sp.log_access(UserId::from_raw(i), id, i % 3 == 0).unwrap();
            }
            assert!(sp.durability_counters().snapshot_count >= 1, "snapshot_every=7 must fire");
        }
        let sp = DurableProvider::open(&dir, tiny()).unwrap();
        assert_eq!(sp.in_memory().puzzle_count(), 40);
        assert_eq!(sp.in_memory().audit_log().len(), 40);
        // Snapshot + tail replay, not the whole 80-record log.
        assert!(sp.durability_counters().recovery_replayed_records < 80);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committers_crossing_one_threshold_take_one_snapshot() {
        let dir = fresh("one-snapshot");
        let cfg = StoreConfig { snapshot_every: 2, ..StoreConfig::default() };
        let sp = DurableProvider::open(&dir, cfg).unwrap();
        sp.publish_puzzle(Bytes::from_static(b"first")).unwrap();
        assert_eq!(sp.durability_counters().snapshot_count, 0, "1 op is below the threshold");

        // Hold the commit mutex while three committers log their op:
        // the counter goes 1 -> 4, so all three cross the threshold of 2
        // and queue on the mutex before any snapshot can run.
        let engine = &sp.engine;
        let guard = engine.commit_mu.lock();
        std::thread::scope(|s| {
            let committers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        engine.maybe_snapshot(1, || DurableProvider::snapshot_payload(&sp.inner))
                    })
                })
                .collect();
            while engine.since_snapshot.load(Ordering::Relaxed) < 4 {
                std::thread::yield_now();
            }
            drop(guard);
            for c in committers {
                c.join().unwrap().unwrap();
            }
        });
        assert_eq!(sp.durability_counters().snapshot_count, 1, "one crossing, one snapshot");

        // The unconditional entry point still snapshots on demand.
        sp.snapshot_now().unwrap();
        assert_eq!(sp.durability_counters().snapshot_count, 2);
        drop(sp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_state_survives_reopen() {
        let dir = fresh("host");
        let (url, reserved);
        {
            let dh = DurableHost::open(&dir, tiny()).unwrap();
            url = dh.put(Bytes::from_static(b"ciphertext")).unwrap();
            reserved = dh.reserve().unwrap();
            dh.fill(&reserved, Bytes::from_static(b"late")).unwrap();
            let gone = dh.put(Bytes::from_static(b"bye")).unwrap();
            dh.delete(&gone).unwrap();
        }
        let dh = DurableHost::open(&dir, tiny()).unwrap();
        assert_eq!(dh.get(&url).unwrap(), Bytes::from_static(b"ciphertext"));
        assert_eq!(dh.get(&reserved).unwrap(), Bytes::from_static(b"late"));
        assert_eq!(dh.in_memory().len(), 2);
        let fresh_url = dh.put(Bytes::new()).unwrap();
        assert_ne!(fresh_url, url);
        assert_ne!(fresh_url, reserved);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_ids_do_not_reach_the_log() {
        let dir = fresh("errors");
        let sp = DurableProvider::open(&dir, tiny()).unwrap();
        let ghost = PuzzleId::from_raw(999);
        assert_eq!(sp.replace_puzzle(ghost, Bytes::new()).unwrap_err(), OsnError::UnknownPuzzle);
        assert_eq!(sp.delete_puzzle(ghost).unwrap_err(), OsnError::UnknownPuzzle);
        assert_eq!(sp.durability_counters().durable_appends, 0, "failed ops must not log");
        let dh = DurableHost::open(dir.join("dh"), tiny()).unwrap();
        let ghost_url = Url::from("https://dh.example/objects/404");
        assert_eq!(dh.fill(&ghost_url, Bytes::new()).unwrap_err(), OsnError::UnknownUrl);
        assert_eq!(dh.delete(&ghost_url).unwrap_err(), OsnError::UnknownUrl);
        assert_eq!(dh.durability_counters().durable_appends, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_store_rejects_everything_until_reopened() {
        let dir = fresh("crashed");
        {
            let cfg = StoreConfig { fault: Some(FileFault::TornWrite { append: 2 }), ..tiny() };
            let sp = DurableProvider::open(&dir, cfg).unwrap();
            let id = sp.publish_puzzle(Bytes::from_static(b"keep")).unwrap();
            assert_eq!(
                sp.publish_puzzle(Bytes::from_static(b"torn")).unwrap_err(),
                OsnError::Transport
            );
            // Reads fail too: the process is "dead".
            assert_eq!(sp.fetch_puzzle(id).unwrap_err(), OsnError::Transport);
            assert_eq!(
                sp.log_access(UserId::from_raw(1), id, true).unwrap_err(),
                OsnError::Transport
            );
        }
        let sp = DurableProvider::open(&dir, tiny()).unwrap();
        assert_eq!(sp.in_memory().puzzle_count(), 1, "acked op survives, torn op lost");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Replication keeps log retention: snapshots compact segments away,
    /// so replicated primaries use an effectively unbounded
    /// `snapshot_every` (full-log replication; see docs/CLUSTER.md).
    fn repl_cfg() -> StoreConfig {
        StoreConfig { snapshot_every: u64::MAX, ..StoreConfig::default() }
    }

    #[test]
    fn replication_stream_rebuilds_an_identical_replica() {
        let dir_p = fresh("repl-primary");
        let dir_r = fresh("repl-replica");
        let primary = DurableProvider::open(&dir_p, repl_cfg()).unwrap();
        let replica = DurableProvider::open(&dir_r, repl_cfg()).unwrap();

        let a = primary.publish_puzzle(Bytes::from_static(b"alpha")).unwrap();
        let b = primary.publish_puzzle(Bytes::from_static(b"beta")).unwrap();
        primary.replace_puzzle(a, Bytes::from_static(b"alpha-v2")).unwrap();
        primary.log_access(UserId::from_raw(7), a, true).unwrap();
        primary.delete_puzzle(b).unwrap();
        primary
            .publish_puzzle_at(PuzzleId::from_raw(0xabcd), Bytes::from_static(b"keyed"))
            .unwrap();

        // Ship everything; the replica acks the primary's watermark.
        let (watermark, frames) = primary.repl_export(replica.repl_watermark()).unwrap();
        let applied = replica.repl_apply(&frames).unwrap();
        assert_eq!(applied.watermark, watermark);
        assert_eq!(applied.applied, 6);
        assert!(applied.puzzles_touched.contains(&a.raw()));
        assert!(applied.puzzles_touched.contains(&0xabcd));
        assert_eq!(replica.repl_watermark(), primary.repl_watermark());

        // Same state...
        assert_eq!(replica.fetch_puzzle(a).unwrap(), Bytes::from_static(b"alpha-v2"));
        assert_eq!(replica.fetch_puzzle(b).unwrap_err(), OsnError::UnknownPuzzle);
        assert_eq!(
            replica.fetch_puzzle(PuzzleId::from_raw(0xabcd)).unwrap(),
            Bytes::from_static(b"keyed")
        );
        assert_eq!(replica.in_memory().audit_log().len(), 1);
        // ...and a byte-identical log.
        assert_eq!(primary.repl_export(0).unwrap(), replica.repl_export(0).unwrap());

        // Re-shipping the same batch is a duplicate-skipping no-op.
        let again = replica.repl_apply(&frames).unwrap();
        assert_eq!((again.watermark, again.applied), (watermark, 0));
        assert!(again.puzzles_touched.is_empty());

        // Incremental delta: only the suffix ships and applies.
        primary.log_access(UserId::from_raw(8), a, false).unwrap();
        let (w2, delta) = primary.repl_export(replica.repl_watermark()).unwrap();
        assert!(delta.len() < frames.len());
        let inc = replica.repl_apply(&delta).unwrap();
        assert_eq!((inc.watermark, inc.applied), (w2, 1));
        assert_eq!(replica.in_memory().audit_log().len(), 2);
        fs::remove_dir_all(&dir_p).unwrap();
        fs::remove_dir_all(&dir_r).unwrap();
    }

    #[test]
    fn promotion_reopens_to_the_acked_watermark() {
        let dir_p = fresh("promote-primary");
        let dir_r = fresh("promote-replica");
        let acked;
        {
            let primary = DurableProvider::open(&dir_p, repl_cfg()).unwrap();
            let replica = DurableProvider::open(&dir_r, repl_cfg()).unwrap();
            for i in 0..10u64 {
                primary
                    .publish_puzzle_at(PuzzleId::from_raw(1000 + i), Bytes::from(vec![i as u8]))
                    .unwrap();
            }
            let (_, frames) = primary.repl_export(0).unwrap();
            acked = replica.repl_apply(&frames).unwrap().watermark;
            assert_eq!(acked, 10);
        }
        // Kill both; promote the replica by reopening its directory. The
        // recovery replays exactly the acked records.
        let promoted = DurableProvider::open(&dir_r, repl_cfg()).unwrap();
        assert_eq!(promoted.durability_counters().recovery_replayed_records, acked);
        assert_eq!(promoted.repl_watermark(), acked);
        for i in 0..10u64 {
            assert_eq!(
                promoted.fetch_puzzle(PuzzleId::from_raw(1000 + i)).unwrap(),
                Bytes::from(vec![i as u8])
            );
        }
        // The promoted node keeps writing where the primary left off.
        promoted.publish_puzzle_at(PuzzleId::from_raw(2000), Bytes::from_static(b"new")).unwrap();
        assert_eq!(promoted.repl_watermark(), acked + 1);
        fs::remove_dir_all(&dir_p).unwrap();
        fs::remove_dir_all(&dir_r).unwrap();
    }

    #[test]
    fn repl_apply_rejects_gaps_and_garbage() {
        let dir_p = fresh("repl-gap-primary");
        let dir_r = fresh("repl-gap-replica");
        let primary = DurableProvider::open(&dir_p, repl_cfg()).unwrap();
        let replica = DurableProvider::open(&dir_r, repl_cfg()).unwrap();
        for i in 0..4u64 {
            primary.publish_puzzle(Bytes::from(vec![i as u8])).unwrap();
        }
        // A stream starting past the replica's watermark is a gap.
        let (_, suffix) = primary.repl_export(2).unwrap();
        let err = replica.repl_apply(&suffix).unwrap_err();
        assert!(err.contains("gap"), "want gap error, got {err}");
        assert_eq!(replica.repl_watermark(), 0, "a rejected batch applies nothing");
        // Garbage is rejected, not applied.
        assert!(replica.repl_apply(&[1, 2, 3]).is_err());
        // The honest stream still works afterwards.
        let (w, frames) = primary.repl_export(0).unwrap();
        assert_eq!(replica.repl_apply(&frames).unwrap().watermark, w);
        fs::remove_dir_all(&dir_p).unwrap();
        fs::remove_dir_all(&dir_r).unwrap();
    }

    #[test]
    fn concurrent_writers_agree_with_recovery() {
        let dir = fresh("concurrent");
        {
            let sp = std::sync::Arc::new(DurableProvider::open(&dir, tiny()).unwrap());
            crossbeam::thread::scope(|s| {
                for t in 0..4u64 {
                    let sp = sp.clone();
                    s.spawn(move |_| {
                        for i in 0..25u64 {
                            let id =
                                sp.publish_puzzle(Bytes::from(vec![t as u8, i as u8])).unwrap();
                            sp.log_access(UserId::from_raw(t), id, true).unwrap();
                        }
                    });
                }
            })
            .unwrap();
            assert_eq!(sp.in_memory().puzzle_count(), 100);
        }
        let sp = DurableProvider::open(&dir, tiny()).unwrap();
        assert_eq!(sp.in_memory().puzzle_count(), 100);
        assert_eq!(sp.in_memory().audit_log().len(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }
}
