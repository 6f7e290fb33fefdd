//! Durability: an epoch-tagged delta write-ahead log plus snapshot
//! checkpoints, so a serving engine survives a crash without losing
//! acknowledged batches.
//!
//! The design follows the classic group-commit WAL shape, specialized
//! to Kaskade's single-writer publish loop:
//!
//! - **One record per merged batch.** The engine writer already
//!   merges queued deltas into one [`GraphDelta`] per publish; the WAL logs that merged delta once,
//!   tagged with the epoch it will publish as. Group commit therefore
//!   costs one `write` + optional `fsync` per *epoch*, not per
//!   submitted delta.
//! - **CRC-framed records.** Each record is `[len u32][crc32 u32]
//!   [payload]` (little-endian) where the payload is `kind u8 ·
//!   epoch u64 · body`. A torn tail — a partial frame from a crash
//!   mid-write — fails the length or CRC check and cleanly ends
//!   replay; everything before it is intact.
//! - **Checkpoints bound replay.** Every
//!   [`WalConfig::checkpoint_every`] batches the writer serializes the
//!   full compacted state (dense graph, schema, stats, view catalog,
//!   external-id table) to `checkpoint-<epoch>.ckpt` via temp-file +
//!   rename — with the WAL **directory** fsynced after the rename, so
//!   the new checkpoint's dirent is on disk — and only then truncates
//!   the log and removes older checkpoints. Recovery is *latest valid
//!   checkpoint + replay of newer records*; records at or below the
//!   checkpoint epoch are skipped, so a crash between the rename and
//!   the truncation is harmless. Publish epochs are consecutive, and
//!   replay enforces it: a record whose epoch does not directly follow
//!   the previous durable epoch means the directory lost a checkpoint
//!   or log segment, and recovery fails loudly instead of serving a
//!   state with silent holes.
//!
//! Replay is deterministic because the logged delta is the
//! post-resolution merged batch: external-id references are already
//! resolved to slots, and compactions are logged as bare
//! `KIND_COMPACT` markers replayed by re-running the (deterministic)
//! slot compaction. The differential proptests in
//! `tests/durability.rs` hold a recovered engine byte-identical to one
//! that never restarted.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use kaskade_core::persist::{decode_view_def, encode_view_def};
use kaskade_core::{DdlOp, GraphDelta, Snapshot, ViewId};
use kaskade_graph::{crc32, Dec, Enc, ExternalIdTable, VertexId};

/// Magic header of the delta log file (`wal.log`).
const WAL_MAGIC: &[u8; 8] = b"KSKWAL01";
/// Magic header of checkpoint files (`checkpoint-<epoch>.ckpt`).
const CKPT_MAGIC: &[u8; 8] = b"KSKCKP01";
/// Record kind: one merged write batch (body = encoded [`GraphDelta`]).
const KIND_BATCH: u8 = 1;
/// Record kind: an epoch-fenced slot compaction (no body — replay
/// re-runs the deterministic compaction).
const KIND_COMPACT: u8 = 2;
/// Record kind: one catalog-mutation (DDL) publish. Body = `tag u8`
/// (0 = create, followed by the encoded [`kaskade_core::ViewDef`];
/// 1 = drop, followed by the `u32` [`kaskade_core::ViewId`]). Replay
/// re-runs [`Snapshot::apply_ddl`], so recovered catalogs keep the
/// exact slot layout (ids and tombstones) of the live engine.
const KIND_DDL: u8 = 3;

/// Where and how durably to log. Attach to an
/// [`EngineConfig`](crate::EngineConfig) or
/// [`ShardedConfig`](crate::ShardedConfig) to turn on the WAL.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` and `checkpoint-*.ckpt` (created if
    /// missing).
    pub dir: PathBuf,
    /// `fsync` the log after every appended record (and checkpoints
    /// always). Turning this off trades crash durability of the last
    /// few batches for append latency.
    pub fsync: bool,
    /// Write a checkpoint after this many logged batches, bounding
    /// both log growth and recovery replay time.
    pub checkpoint_every: u64,
    /// Allow a **fresh** (non-recovery) start to discard durable state
    /// already present in [`WalConfig::dir`]. Off by default: opening
    /// the WAL fresh writes a new checkpoint and truncates the log, so
    /// pointing a fresh engine at a directory holding a previous run's
    /// state would silently destroy it — without this flag such an
    /// open fails with `AlreadyExists` instead, and the caller either
    /// recovers ([`crate::Engine::recover`]) or picks a clean
    /// directory. Recovery itself never needs the flag.
    pub overwrite: bool,
}

impl WalConfig {
    /// Durable defaults: fsync on, checkpoint every 64 batches, refuse
    /// to overwrite existing durable state.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: true,
            checkpoint_every: 64,
            overwrite: false,
        }
    }
}

/// The open write-ahead log owned by an engine's writer thread.
///
/// All appends happen-before the corresponding snapshot publish; an
/// I/O error is fail-stop (the writer panics, submissions then return
/// `Closed`) rather than risking an acknowledged-but-unlogged batch.
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    log: File,
    since_checkpoint: u64,
}

/// State reconstructed by [`recover`]: the replayed snapshot plus the
/// bookkeeping an engine needs to resume exactly where the log ends.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered read state (graph, schema, stats, views).
    pub state: Snapshot,
    /// Epoch of the last durable record (checkpoint or replayed
    /// batch); the engine resumes publishing at `epoch + 1`.
    pub epoch: u64,
    /// The external-id table as of `epoch`.
    pub extids: ExternalIdTable,
    /// How many log records were replayed on top of the checkpoint.
    pub records_replayed: usize,
}

/// Makes directory-entry changes (a rename or file creation in `dir`)
/// durable: `fsync` on the directory itself. A rename is only
/// crash-durable once its containing directory has been synced.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Whether `dir` already holds durable WAL state a fresh open would
/// destroy: any checkpoint file, or a log with records past the magic
/// header. A missing directory (or a bare/empty log) is clean.
fn dir_has_durable_state(dir: &Path) -> io::Result<bool> {
    match list_checkpoints(dir) {
        Ok(ckpts) if !ckpts.is_empty() => return Ok(true),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    }
    match fs::metadata(dir.join("wal.log")) {
        Ok(m) => Ok(m.len() > WAL_MAGIC.len() as u64),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads one `[len][crc][payload]` frame from `buf`, returning the
/// payload and the bytes consumed. `None` means the tail is torn or
/// corrupt (short header, short payload, or CRC mismatch) — the
/// caller stops replay there.
fn read_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    if buf.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let rest = &buf[8..];
    if rest.len() < len {
        return None;
    }
    let payload = &rest[..len];
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, 8 + len))
}

impl Wal {
    /// Opens the log at `config.dir` for a **fresh** start, seeding it
    /// with a checkpoint of `state` at `epoch` and an empty log.
    /// Because that seeding discards whatever the directory held, this
    /// refuses (`AlreadyExists`) a directory that already contains
    /// durable state — a checkpoint or logged records — unless
    /// [`WalConfig::overwrite`] is set: a forgotten recovery flag must
    /// not wipe a previous run's data. Post-recovery reopens go
    /// through `Wal::open_after_recovery`, which skips the guard
    /// (the recovered state *is* the directory's state).
    pub fn open(
        config: WalConfig,
        state: &Snapshot,
        epoch: u64,
        extids: &ExternalIdTable,
    ) -> io::Result<Wal> {
        if !config.overwrite && dir_has_durable_state(&config.dir)? {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "WAL directory {} already holds durable state (a checkpoint or logged \
                     records); recover from it instead of starting fresh, set \
                     WalConfig.overwrite to discard it, or use an empty directory",
                    config.dir.display()
                ),
            ));
        }
        Self::open_unchecked(config, state, epoch, extids)
    }

    /// [`Wal::open`] for the reopen immediately after a successful
    /// [`recover`]: the checkpoint written here *is* the recovered
    /// durable frontier, so collapsing the directory to "checkpoint
    /// now, nothing to replay" loses nothing.
    pub(crate) fn open_after_recovery(
        config: WalConfig,
        state: &Snapshot,
        epoch: u64,
        extids: &ExternalIdTable,
    ) -> io::Result<Wal> {
        Self::open_unchecked(config, state, epoch, extids)
    }

    fn open_unchecked(
        config: WalConfig,
        state: &Snapshot,
        epoch: u64,
        extids: &ExternalIdTable,
    ) -> io::Result<Wal> {
        fs::create_dir_all(&config.dir)?;
        // make the directory itself durable: if its dirent is lost on
        // power failure, every fsynced record inside it is unreachable
        if let Some(parent) = config.dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            fsync_dir(parent)?;
        }
        let log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(config.dir.join("wal.log"))?;
        let mut wal = Wal {
            config,
            log,
            since_checkpoint: 0,
        };
        wal.checkpoint(state, epoch, extids)?;
        Ok(wal)
    }

    /// Appends one merged-batch record for the batch about to publish
    /// as `epoch`. Durable (per [`WalConfig::fsync`]) before return.
    pub fn append_batch(&mut self, epoch: u64, delta: &GraphDelta) -> io::Result<()> {
        let mut payload = Enc::new();
        payload.u8(KIND_BATCH);
        payload.u64(epoch);
        delta.encode(&mut payload);
        self.append(&payload.into_bytes())?;
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Appends a compaction marker for the compacted state about to
    /// publish as `epoch`.
    pub fn append_compact(&mut self, epoch: u64) -> io::Result<()> {
        let mut payload = Enc::new();
        payload.u8(KIND_COMPACT);
        payload.u64(epoch);
        self.append(&payload.into_bytes())
    }

    /// Appends one catalog-mutation record for the DDL about to publish
    /// as `epoch`. Counted toward the checkpoint cadence like a batch:
    /// replaying a `CreateView` re-materializes the view, so DDL-heavy
    /// logs should checkpoint just as eagerly.
    pub fn append_ddl(&mut self, epoch: u64, op: &DdlOp) -> io::Result<()> {
        let mut payload = Enc::new();
        payload.u8(KIND_DDL);
        payload.u64(epoch);
        match op {
            DdlOp::CreateView(def) => {
                payload.u8(0);
                encode_view_def(def, &mut payload);
            }
            DdlOp::DropView(id) => {
                payload.u8(1);
                payload.u32(id.0);
            }
        }
        self.append(&payload.into_bytes())?;
        self.since_checkpoint += 1;
        Ok(())
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.log.write_all(&frame(payload))?;
        if self.config.fsync {
            self.log.sync_data()?;
        }
        Ok(())
    }

    /// Whether enough batches have been logged to warrant a
    /// checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.since_checkpoint >= self.config.checkpoint_every
    }

    /// Serializes the full state to `checkpoint-<epoch>.ckpt`
    /// (temp-file + rename, file **and directory** fsynced), truncates
    /// the log, and removes older checkpoints. Crash-ordering: the
    /// rename plus directory sync makes the new checkpoint durable
    /// *before* the log truncates — without the directory sync a power
    /// loss could keep the truncation but drop the rename, leaving an
    /// older checkpoint next to a log missing the epochs in between —
    /// and replay skips records at or below the checkpoint epoch, so
    /// no interleaving of crash points loses or double-applies a
    /// batch.
    pub fn checkpoint(
        &mut self,
        state: &Snapshot,
        epoch: u64,
        extids: &ExternalIdTable,
    ) -> io::Result<()> {
        let mut payload = Enc::new();
        payload.u64(epoch);
        extids.encode(&mut payload);
        state.encode(&mut payload);
        let tmp = self.config.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(CKPT_MAGIC)?;
            f.write_all(&frame(&payload.into_bytes()))?;
            f.sync_all()?;
        }
        let final_path = self.config.dir.join(format!("checkpoint-{epoch}.ckpt"));
        fs::rename(&tmp, &final_path)?;
        // the rename is only durable once the directory is synced; the
        // log must not truncate before that point (checkpoints always
        // sync, whatever `config.fsync` says — same as the file above)
        fsync_dir(&self.config.dir)?;
        // reset the log to just its magic header
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::Start(0))?;
        self.log.write_all(WAL_MAGIC)?;
        if self.config.fsync {
            self.log.sync_data()?;
        }
        self.since_checkpoint = 0;
        // older checkpoints are now dead weight
        for (path, ckpt_epoch) in list_checkpoints(&self.config.dir)? {
            if ckpt_epoch != epoch && path != final_path {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

fn list_checkpoints(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(epoch) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|e| e.parse::<u64>().ok())
        {
            out.push((path, epoch));
        }
    }
    out.sort_by_key(|&(_, e)| e);
    Ok(out)
}

/// Parses one checkpoint file; `None` if it is torn or corrupt.
fn load_checkpoint(path: &Path) -> Option<(Snapshot, u64, ExternalIdTable)> {
    let bytes = fs::read(path).ok()?;
    let rest = bytes.strip_prefix(CKPT_MAGIC.as_slice())?;
    let (payload, _) = read_frame(rest)?;
    let mut d = Dec::new(payload);
    let epoch = d.u64().ok()?;
    let extids = ExternalIdTable::decode(&mut d).ok()?;
    let state = Snapshot::decode(&mut d).ok()?;
    Some((state, epoch, extids))
}

/// Replays one batch record onto `state`, maintaining the external-id
/// table exactly as the live writer did: new vertices bind their
/// declared external ids to the appended slots, retracted slots drop
/// their bindings.
fn replay_batch(
    state: Snapshot,
    extids: &mut ExternalIdTable,
    delta: &GraphDelta,
) -> io::Result<Snapshot> {
    let base_slots = state.graph().vertex_slots();
    let next = state.with_delta(delta);
    for (i, nv) in delta.vertices.iter().enumerate() {
        if let Some(ext) = nv.ext {
            extids
                .insert(ext, VertexId((base_slots + i) as u32))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        }
    }
    for &v in &delta.del_vertices {
        extids.remove_slot(v);
    }
    Ok(next)
}

/// Recovers the latest durable state from `dir`: loads the
/// highest-epoch valid checkpoint, then replays every intact log
/// record with a higher epoch. Returns `Ok(None)` when the directory
/// holds no usable checkpoint (nothing was ever logged, or everything
/// is corrupt — the caller starts fresh). A torn or corrupt record
/// ends replay at the last intact prefix; that is the crash-consistent
/// durable frontier, not an error. A record whose epoch does **not**
/// directly follow the previous durable epoch is different: publishes
/// are consecutive, so a gap means acknowledged epochs are missing
/// (a lost checkpoint rename next to a persisted log truncation, a
/// deleted file) and recovery fails with `InvalidData` rather than
/// silently serving a state with holes.
pub fn recover(dir: &Path) -> io::Result<Option<Recovered>> {
    let checkpoints = match list_checkpoints(dir) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    // newest first; fall back to an older checkpoint if the newest is
    // torn (crash during the checkpoint write itself)
    let mut loaded = None;
    for (path, _) in checkpoints.iter().rev() {
        if let Some(found) = load_checkpoint(path) {
            loaded = Some(found);
            break;
        }
    }
    let (mut state, ckpt_epoch, mut extids) = match loaded {
        Some(l) => l,
        None => return Ok(None),
    };

    let mut epoch = ckpt_epoch;
    let mut records_replayed = 0usize;
    let log_path = dir.join("wal.log");
    if let Ok(mut f) = File::open(&log_path) {
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        let mut rest: &[u8] = match bytes.strip_prefix(WAL_MAGIC.as_slice()) {
            Some(r) => r,
            None => &[], // missing/foreign header: nothing replayable
        };
        while let Some((payload, consumed)) = read_frame(rest) {
            rest = &rest[consumed..];
            let mut d = Dec::new(payload);
            let (kind, rec_epoch) = match (d.u8(), d.u64()) {
                (Ok(k), Ok(e)) => (k, e),
                _ => break,
            };
            if rec_epoch <= ckpt_epoch {
                // logged before the checkpoint truncation landed —
                // already folded into the checkpoint state
                continue;
            }
            if rec_epoch != epoch + 1 {
                // publishes are consecutive: a gap means durable
                // epochs vanished between the checkpoint and this
                // record — refuse to recover a state with holes
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL record epoch {rec_epoch} does not follow durable epoch {epoch} \
                         in {}: intermediate epochs are missing (lost checkpoint or log \
                         segment); refusing to recover an inconsistent state",
                        dir.display()
                    ),
                ));
            }
            match kind {
                KIND_BATCH => {
                    let delta = match GraphDelta::decode(&mut d) {
                        Ok(delta) => delta,
                        Err(_) => break,
                    };
                    state = replay_batch(state, &mut extids, &delta)?;
                }
                KIND_COMPACT => {
                    let (next, remap) = state.compact();
                    extids.remap(&remap);
                    state = next;
                }
                KIND_DDL => {
                    let op = match d.u8() {
                        Ok(0) => match decode_view_def(&mut d) {
                            Ok(def) => DdlOp::CreateView(def),
                            Err(_) => break,
                        },
                        Ok(1) => match d.u32() {
                            Ok(id) => DdlOp::DropView(ViewId(id)),
                            Err(_) => break,
                        },
                        _ => break,
                    };
                    state = state.apply_ddl(&op);
                }
                _ => break,
            }
            epoch = rec_epoch;
            records_replayed += 1;
        }
    }
    Ok(Some(Recovered {
        state,
        epoch,
        extids,
        records_replayed,
    }))
}

/// Convenience wrapper over [`recover`] that surfaces decode problems
/// in the checkpoint itself as hard errors instead of `None`. Used by
/// tests; the engine goes through [`recover`].
pub fn recover_or_fail(dir: &Path) -> io::Result<Recovered> {
    recover(dir)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no recoverable state in {}", dir.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::Snapshot;
    use kaskade_graph::{same_dense_graph, GraphBuilder, Schema};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kaskade-wal-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn empty_state() -> Snapshot {
        Snapshot::new(GraphBuilder::new().finish(), Schema::provenance())
    }

    fn job_delta(ext: Option<u64>) -> GraphDelta {
        let mut d = GraphDelta::new();
        match ext {
            Some(e) => {
                d.add_vertex_ext("Job", e, vec![]);
            }
            None => {
                d.add_vertex("Job", vec![]);
            }
        }
        d
    }

    #[test]
    fn recover_is_checkpoint_plus_replay() {
        let dir = tmpdir("basic");
        let state = empty_state();
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();

        let mut live = state;
        for epoch in 1..=3u64 {
            let mut delta = job_delta(Some(100 + epoch));
            delta
                .resolve_external(&extids, live.graph(), &GraphDelta::new())
                .unwrap();
            wal.append_batch(epoch, &delta).unwrap();
            live = live.with_delta(&delta);
        }

        let r = recover_or_fail(&dir).unwrap();
        assert_eq!(r.epoch, 3);
        assert_eq!(r.records_replayed, 3);
        assert_eq!(r.extids.len(), 3);
        same_dense_graph(r.state.graph(), live.graph()).unwrap();
    }

    #[test]
    fn checkpoint_truncates_log_and_prunes() {
        let dir = tmpdir("ckpt");
        let state = empty_state();
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();
        let mut live = state;
        for epoch in 1..=2u64 {
            let delta = job_delta(None);
            wal.append_batch(epoch, &delta).unwrap();
            live = live.with_delta(&delta);
        }
        wal.checkpoint(&live, 2, &extids).unwrap();
        assert!(!wal.should_checkpoint());
        // exactly one checkpoint file survives, at epoch 2
        let ckpts = list_checkpoints(&dir).unwrap();
        assert_eq!(ckpts.len(), 1);
        assert_eq!(ckpts[0].1, 2);
        // log is back to bare magic
        assert_eq!(fs::metadata(dir.join("wal.log")).unwrap().len(), 8);
        let r = recover_or_fail(&dir).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(r.records_replayed, 0);
        same_dense_graph(r.state.graph(), live.graph()).unwrap();
    }

    #[test]
    fn torn_tail_record_is_skipped() {
        let dir = tmpdir("torn");
        let state = empty_state();
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();
        let delta = job_delta(None);
        wal.append_batch(1, &delta).unwrap();
        drop(wal);
        // simulate a crash mid-append: a frame header promising more
        // bytes than exist
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0xAB, 0xCD]).unwrap();
        drop(f);
        let r = recover_or_fail(&dir).unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(r.records_replayed, 1);
    }

    #[test]
    fn corrupt_crc_ends_replay_at_intact_prefix() {
        let dir = tmpdir("crc");
        let state = empty_state();
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();
        wal.append_batch(1, &job_delta(None)).unwrap();
        wal.append_batch(2, &job_delta(None)).unwrap();
        drop(wal);
        // flip a byte in the last record's payload
        let path = dir.join("wal.log");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&path, &bytes).unwrap();
        let r = recover_or_fail(&dir).unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(r.records_replayed, 1);
    }

    #[test]
    fn compact_marker_replays_deterministically() {
        let dir = tmpdir("compact");
        let state = empty_state();
        let mut extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();

        // live: add two ext-named vertices, delete the first, compact
        let mut live = state;
        let mut d1 = GraphDelta::new();
        d1.add_vertex_ext("Job", 7, vec![]);
        d1.add_vertex_ext("File", 8, vec![]);
        wal.append_batch(1, &d1).unwrap();
        let base = live.graph().vertex_slots();
        live = live.with_delta(&d1);
        extids.insert(7, VertexId(base as u32)).unwrap();
        extids.insert(8, VertexId((base + 1) as u32)).unwrap();

        let mut d2 = GraphDelta::new();
        d2.del_vertex(VertexId(0));
        wal.append_batch(2, &d2).unwrap();
        live = live.with_delta(&d2);
        extids.remove_slot(VertexId(0));

        wal.append_compact(3).unwrap();
        let (compacted, remap) = live.compact();
        extids.remap(&remap);
        live = compacted;

        let r = recover_or_fail(&dir).unwrap();
        assert_eq!(r.epoch, 3);
        assert_eq!(r.records_replayed, 3);
        same_dense_graph(r.state.graph(), live.graph()).unwrap();
        assert_eq!(r.extids.get(8), extids.get(8));
        assert_eq!(r.extids.get(7), None);
    }

    #[test]
    fn ddl_records_replay_in_epoch_order_with_slots_intact() {
        use kaskade_core::{ConnectorDef, ViewDef};
        let dir = tmpdir("ddl");
        // a base graph the created view can materialize over
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        let state = Snapshot::new(b.finish(), Schema::provenance());
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();

        let def2 = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2));
        let def4 = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4));
        // interleave: create, delta batch, create, drop view#0
        let mut live = state;
        wal.append_ddl(1, &DdlOp::CreateView(def2.clone())).unwrap();
        live = live.apply_ddl(&DdlOp::CreateView(def2));
        let delta = job_delta(None);
        wal.append_batch(2, &delta).unwrap();
        live = live.with_delta(&delta);
        wal.append_ddl(3, &DdlOp::CreateView(def4.clone())).unwrap();
        live = live.apply_ddl(&DdlOp::CreateView(def4.clone()));
        wal.append_ddl(4, &DdlOp::DropView(ViewId(0))).unwrap();
        live = live.apply_ddl(&DdlOp::DropView(ViewId(0)));

        let r = recover_or_fail(&dir).unwrap();
        assert_eq!(r.epoch, 4);
        assert_eq!(r.records_replayed, 4);
        same_dense_graph(r.state.graph(), live.graph()).unwrap();
        // the recovered catalog has the exact slot layout: tombstone at
        // slot 0, the 4-hop view still at slot 1
        assert_eq!(r.state.catalog().slot_count(), 2);
        assert!(r.state.catalog().get_by_id(ViewId(0)).is_none());
        let survivor = r.state.catalog().get_by_id(ViewId(1)).unwrap();
        assert_eq!(survivor.def, def4);
        assert_eq!(
            survivor.graph.edge_count(),
            live.catalog()
                .get_by_id(ViewId(1))
                .unwrap()
                .graph
                .edge_count()
        );
    }

    #[test]
    fn fresh_open_refuses_existing_durable_state() {
        let dir = tmpdir("guard");
        let state = empty_state();
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();
        wal.append_batch(1, &job_delta(None)).unwrap();
        drop(wal);
        // a fresh open would checkpoint-and-truncate over epoch 1:
        // refused without the explicit overwrite flag
        let err = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        // recovery still sees everything the guard protected
        assert_eq!(recover_or_fail(&dir).unwrap().epoch, 1);
        // the post-recovery reopen path and the explicit flag both pass
        Wal::open_after_recovery(WalConfig::new(&dir), &state, 1, &extids).unwrap();
        let overwrite = WalConfig {
            overwrite: true,
            ..WalConfig::new(&dir)
        };
        Wal::open(overwrite, &state, 0, &extids).unwrap();
    }

    #[test]
    fn epoch_gap_in_log_fails_recovery() {
        let dir = tmpdir("gap");
        let state = empty_state();
        let extids = ExternalIdTable::new();
        let mut wal = Wal::open(WalConfig::new(&dir), &state, 0, &extids).unwrap();
        wal.append_batch(1, &job_delta(None)).unwrap();
        // epoch 2 never made it to disk: the replayed sequence has a
        // hole, which must fail recovery, not silently skip ahead
        wal.append_batch(3, &job_delta(None)).unwrap();
        drop(wal);
        let err = recover(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_dir_recovers_to_none() {
        let dir = tmpdir("empty");
        assert!(recover(&dir).unwrap().is_none());
        let missing = dir.join("never-created");
        assert!(recover(&missing).unwrap().is_none());
    }
}
