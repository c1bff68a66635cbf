//! Durable triple storage: a write-ahead log plus binary snapshots.
//!
//! The paper's knowledge base lives in a Fuseki server backed by "a
//! robust, transactional, and persistent storage layer" (§3.2) — learned
//! guidelines accumulate across workloads and off-peak learning runs.
//! [`DurableStore`] gives this reproduction the same property without any
//! external dependency: an in-memory [`IndexedStore`] serves every read,
//! while each mutation is journaled to an append-only write-ahead log
//! *before* it is acknowledged, and [`compact`] periodically folds the log
//! into a snapshot. Both hold [quad blocks](QuadBlock): a log record is one
//! commit's block, a snapshot is the whole image as one.
//!
//! # On-disk layout
//!
//! A store directory holds numbered generations:
//!
//! ```text
//! kb.galo/
//!   snapshot-0000000003.galo   binary image of the store at generation 3
//!   wal-0000000003.log         commits journaled since that snapshot
//!   wal-0000000002.log         previous generation (kept for fallback)
//! ```
//!
//! * **The log** (version 4) is the line `# galo-wal v4` followed by
//!   records `len u32 LE | block | checksum64 LE`: `block` is `len` bytes of
//!   one encoded [`QuadBlock`] — a dictionary of
//!   the commit's distinct terms and its inserts, removes and clears over
//!   it — and the checksum covers `len` and `block`. `checksum64` is
//!   four lanes of multiply-xor over 8-byte words, the tail folded in a
//!   byte at a time and the length mixed in; version 4 is version 3 with
//!   it in place of byte-serial FNV-1a.
//! * **A commit is one record.** A mutation outside a
//!   [`TripleStore::begin_batch`] / [`TripleStore::end_batch`] bracket is a
//!   commit of one operation, written before the mutation returns. Inside
//!   a bracket (one `FusekiLite` write transaction) the state-changing
//!   operations gather in memory and `end_batch` writes them as one record
//!   with one `write` — a template is one record, whatever its size.
//!   Operations that change nothing (a duplicate insert, an absent remove)
//!   are not journaled, and a bracket that changed nothing writes nothing.
//! * **A batch is atomic by construction.** Replay takes a record whole —
//!   all of its bytes present and its checksum right — or stops there, and
//!   [`DurableStore::open`] truncates the newest log back to the last
//!   whole record. A process that dies before `end_batch`, or half-way
//!   through its write, reopens to the image before the batch; one that
//!   dies after it, to the image with all of it. [`wal_records`], the
//!   [`StoragePressure`] a policy polls and
//!   [`DurableOptions::auto_compact_records`] all count commits, and the
//!   inline fold can only fire between two of them.
//! * **The inline fold** is the synchronous driver of the one compaction
//!   decision in [`crate::policy`]. Every fold attempt — inline,
//!   background or an explicit [`compact`] — is counted by the store, in
//!   its [`StoragePressure`].
//! * **One log version.** A log that does not begin with the version-4
//!   header is refused with an `InvalidData` error and left as it is —
//!   the binary logs of version 3 and the text logs of versions 1 and 2
//!   included. The one exception is a
//!   strict prefix of the header, an empty file among them: a fresh log
//!   torn while its header was being written. It holds no commit, so it
//!   reopens empty and takes appends.
//! * **Snapshots** are the magic `GALOSNAP`, the version (`u32` 3), one
//!   encoded block — a clear, then one insert per statement
//!   ([`QuadBlock::replacing_with`]) — and a `checksum64` over
//!   everything before it. Loading one applies its block to a fresh
//!   store. They are written to a temporary file, fsynced, then
//!   atomically renamed. A snapshot that fails its checksum or does not
//!   decode is quarantined (renamed `*.corrupt`) and recovery falls back
//!   to the previous generation, replaying every later log. One that is
//!   whole but of another version was written by another build:
//!   [`DurableStore::open`] refuses it and leaves the file where it is.
//!   If the surviving logs cannot cover the gap back to a valid snapshot,
//!   `open` refuses with an error rather than silently opening partial
//!   history; so it does when a log that is not the newest ends in a bad
//!   record, which a crash cannot explain.
//! * **Compaction** ([`TripleStore::compact`]) opens the next
//!   generation's log, writes the next-generation snapshot, rotates,
//!   and prunes generations below the newest *remaining older*
//!   snapshot — so one complete fallback chain (a valid snapshot plus
//!   every later log) always stays on disk and a corrupt newest
//!   snapshot cannot strand the store.
//!
//! Interned [`TermId`]s are stable for the lifetime of one open store,
//! as the [`TripleStore`] contract requires, but **not across reopens**:
//! the log and a snapshot hold terms, not ids, and a snapshot only the
//! terms of the statements it holds, so a recovered store interns afresh
//! from what it replays.
//!
//! [`compact`]: TripleStore::compact
//! [`wal_records`]: DurableStore::wal_records

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::block::{put_u32, put_u64, BlockBuilder, BlockOp, ByteReader, IdHash, QuadBlock};
use crate::checksum::checksum64;
use crate::fnv::fnv1a;
use crate::policy::{CompactionPolicy, Pace};
use crate::store::{IndexedStore, StoragePressure, Triple, TripleStore};
use crate::term::{Interner, Term, TermId};

const SNAPSHOT_MAGIC: &[u8; 8] = b"GALOSNAP";
const SNAPSHOT_VERSION: u32 = 3;
/// Bytes before a snapshot's block: the magic and the version.
const SNAPSHOT_HEADER: usize = SNAPSHOT_MAGIC.len() + 4;
pub(crate) const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".galo";
pub(crate) const WAL_PREFIX: &str = "wal-";
const WAL_SUFFIX: &str = ".log";

/// First line of a log: version 4, the only one read or written.
const WAL_V4_HEADER: &[u8] = b"# galo-wal v4\n";

/// Tuning knobs for a [`DurableStore`].
#[derive(Debug, Clone, Default)]
pub struct DurableOptions {
    /// `fsync` the log after every commit — every mutation, or every batch
    /// under group commit. Off by default: each commit is still written
    /// to the OS (surviving process death, the failure mode the tests
    /// simulate); fsync additionally survives power loss at a heavy
    /// per-write cost.
    pub fsync_each_record: bool,
    /// Automatically [`compact`](TripleStore::compact) once this many
    /// commits (log records) accumulate in the current log. `None` (the
    /// default) leaves compaction to the caller or a background
    /// [`Compactor`](crate::policy::Compactor).
    ///
    /// This is the synchronous driver of the one compaction decision
    /// ([`crate::policy`]), under a policy of `n` records, no byte
    /// threshold and no idle fold. It runs after a commit, never inside a
    /// bracket. A failed attempt backs off by commits, not time: the next
    /// one waits until the log holds another `n` commits. A successful
    /// fold, whoever ran it, ends the back-off.
    pub auto_compact_records: Option<u64>,
}

/// A persistent [`TripleStore`]: WAL + snapshot around an in-memory
/// [`IndexedStore`] — what a durable shard is.
///
/// Reads delegate to the inner indexed store, so lookup performance is
/// identical to an in-memory shard's; every commit pays one journaled
/// record. I/O failure while journaling is fail-stop (a panic): a store
/// that cannot journal must not acknowledge writes it would lose.
///
/// The inner store interns through an [`Interner`] of its own, or — a
/// shard's store — through the sharded store's one: the log and the
/// snapshots hold terms, so nothing on disk depends on which interner
/// issued the ids.
#[derive(Debug)]
pub struct DurableStore {
    inner: IndexedStore,
    dir: PathBuf,
    /// The current log, opened for append. Unbuffered: a commit is one
    /// `write_all` of one whole record.
    wal: File,
    wal_bytes: u64,
    wal_records: u64,
    generation: u64,
    options: DurableOptions,
    /// Inside a [`TripleStore::begin_batch`] bracket: operations gather in
    /// `pending` until `end_batch` commits them as one record.
    in_batch: bool,
    /// The state-changing operations of the commit being gathered, over
    /// the inner store's term ids (they become dictionary indices when the
    /// record is encoded). Already applied to `inner`, not yet on disk.
    pending: Vec<BlockOp>,
    /// Successful compactions since open, whoever asked for them.
    compactions: u64,
    /// Failed compaction attempts since open. The log still holds every
    /// record after a failure, so writes keep flowing.
    compactions_failed: u64,
    /// Error text of the most recent failed compaction; cleared by the
    /// next successful one.
    last_compaction_error: Option<String>,
    /// The inline fold's pacing state (used with `auto_compact_records`).
    pace: Pace,
}

impl DurableStore {
    /// Open (or create) a durable store rooted at `dir` with default
    /// options: load the newest valid snapshot, replay every later log in
    /// generation order, and truncate the torn tail of the newest log.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<DurableStore> {
        Self::open_with(dir, DurableOptions::default())
    }

    /// [`open`](Self::open) with explicit [`DurableOptions`].
    pub fn open_with(dir: impl AsRef<Path>, options: DurableOptions) -> std::io::Result<Self> {
        Self::open_in(dir, options, Arc::default())
    }

    /// [`open_with`](DurableStore::open_with), recovering into a store
    /// that interns through `interner`.
    pub(crate) fn open_in(
        dir: impl AsRef<Path>,
        options: DurableOptions,
        interner: Arc<Interner>,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut snapshots = numbered_files(&dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)?;
        snapshots.sort_by_key(|&(gen, _)| std::cmp::Reverse(gen));
        let mut inner = IndexedStore::with_interner(interner);
        let mut base = None;
        for (gen, path) in &snapshots {
            let bytes = fs::read(path)?;
            match decode_snapshot(&bytes) {
                Ok(block) => {
                    block.apply_into(&mut inner);
                    base = Some(*gen);
                    break;
                }
                Err(e) if sealed_version(&bytes).is_some_and(|v| v != SNAPSHOT_VERSION) => {
                    // Whole, but written by another build: falling back
                    // past it would open older history as if it were the
                    // newest. Refuse, and leave the file as it is.
                    return Err(invalid_data(format!("{}: {e}", path.display())));
                }
                Err(_) => {
                    // Corrupt snapshot: quarantine it (so compaction's
                    // retention never counts it as a usable fallback) and
                    // fall back a generation.
                    let _ = fs::rename(path, path.with_extension("galo.corrupt"));
                }
            }
        }
        let base_gen = base.unwrap_or(0);
        let mut wals = numbered_files(&dir, WAL_PREFIX, WAL_SUFFIX)?;
        wals.sort_by_key(|&(gen, _)| gen);
        // Refuse to recover across a broken chain: the logs at or above
        // the base snapshot must cover every generation from the base on
        // up, or replay would silently skip acknowledged history (e.g.
        // every snapshot corrupt but the early logs already pruned).
        let run: Vec<u64> = wals
            .iter()
            .map(|&(gen, _)| gen)
            .filter(|&gen| gen >= base_gen)
            .collect();
        let contiguous = run.iter().zip(run.iter().skip(1)).all(|(a, b)| b - a == 1);
        let anchored = run.first().is_none_or(|&first| first == base_gen);
        if !(contiguous && anchored) {
            return Err(invalid_data(format!(
                "durable store at {} has no recoverable generation chain \
                 (no valid snapshot covers the surviving logs {run:?})",
                dir.display()
            )));
        }
        let mut generation = base_gen;
        let mut newest = Replayed::default();
        for (gen, path) in &wals {
            if *gen < base_gen {
                continue;
            }
            let replayed = replay_wal(&mut inner, path)?;
            let on_disk = fs::metadata(path)?.len();
            if *gen == wals.last().expect("non-empty").0 {
                // Drop the torn tail so the append point is a committed
                // record boundary.
                if on_disk > replayed.bytes {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(replayed.bytes)?;
                    f.sync_all()?;
                }
                newest = replayed;
            } else if on_disk > replayed.bytes {
                // Only the *newest* log may legitimately end in a torn
                // record (a crash mid-append); an older log was rotated
                // after a flush, so a bad record mid-chain is in-place
                // corruption. Stopping there and still replaying later
                // generations would silently drop a slice of acknowledged
                // history — refuse instead.
                return Err(invalid_data(format!(
                    "durable store at {}: corrupt record in non-newest log {} \
                     ({} of {} bytes replayable) — recovery would skip \
                     acknowledged history",
                    dir.display(),
                    path.display(),
                    replayed.bytes,
                    on_disk,
                )));
            }
            generation = generation.max(*gen);
        }
        let mut wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(wal_file(&dir, generation))?;
        if newest.bytes == 0 {
            wal.write_all(WAL_V4_HEADER)?;
            newest.bytes = WAL_V4_HEADER.len() as u64;
        }
        Ok(DurableStore {
            inner,
            dir,
            wal,
            wal_bytes: newest.bytes,
            wal_records: newest.records,
            generation,
            options,
            in_batch: false,
            pending: Vec::new(),
            compactions: 0,
            compactions_failed: 0,
            last_compaction_error: None,
            pace: Pace::default(),
        })
    }

    /// The store's directory on disk.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current snapshot/log generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Committed bytes in the current write-ahead log.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Commits (records) in the current write-ahead log.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Failed compaction attempts since open (inline, background and
    /// explicit [`TripleStore::compact`] calls all count).
    pub fn compactions_failed(&self) -> u64 {
        self.compactions_failed
    }

    /// Error text of the most recent failed compaction, `None` after a
    /// success (or when compaction has never failed).
    pub fn last_compaction_error(&self) -> Option<&str> {
        self.last_compaction_error.as_deref()
    }

    /// Path of the current write-ahead log (tests and the crash-recovery
    /// example truncate it to simulate a torn write).
    pub fn wal_path(&self) -> PathBuf {
        wal_file(&self.dir, self.generation)
    }

    /// Journal one state-changing operation (over inner-store term ids):
    /// one more operation of the open commit inside a bracket, its own
    /// commit outside one. An insert or a remove is applied to `inner`
    /// first — that one descent says whether it changed anything — so an
    /// unbracketed commit that cannot be written is undone (`undo`)
    /// before the store fails stop: no statement the log lost is ever
    /// visible. (Inside a bracket the operations are the open commit's,
    /// and a failed `end_batch` fails stop.)
    fn journal(&mut self, op: BlockOp, undo: impl FnOnce(&mut IndexedStore)) {
        self.pending.push(op);
        if self.in_batch {
            return;
        }
        if let Err(e) = self.write_pending() {
            self.pending.clear();
            undo(&mut self.inner);
            self.fail_stop(e);
        }
    }

    /// Write the gathered operations as one record; fail-stop on I/O
    /// error: inside a bracket the operations are already applied in
    /// memory, so a store that cannot commit them must not keep serving.
    fn commit(&mut self) {
        if let Err(e) = self.write_pending() {
            self.fail_stop(e);
        }
    }

    /// Write the gathered operations as one record, honoring the
    /// configured sync policy.
    fn write_pending(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let record = encode_record(&self.inner, &self.pending);
        self.wal.write_all(&record)?;
        if self.options.fsync_each_record {
            self.wal.sync_data()?;
        }
        self.pending.clear();
        self.wal_bytes += record.len() as u64;
        self.wal_records += 1;
        Ok(())
    }

    fn fail_stop(&self, e: std::io::Error) -> ! {
        panic!(
            "durable store failed to journal to {:?}: {e}",
            self.wal_path()
        );
    }

    /// The inline fold: the synchronous driver asks the policy after a
    /// commit has been applied, never inside a bracket (a snapshot taken
    /// there would make half a batch durable).
    fn maybe_auto_compact(&mut self) {
        let Some(threshold) = self.options.auto_compact_records else {
            return;
        };
        if self.in_batch {
            return;
        }
        let policy = CompactionPolicy::records(threshold);
        if self.pace.due(&policy, &self.pressure()).is_none() {
            return;
        }
        // Best-effort: a failed compaction loses nothing (the log still
        // holds every record), so keep serving writes on the old log.
        if let Err(e) = self.compact() {
            eprintln!(
                "durable store auto-compaction failed (will retry after {threshold} more commits): {e}"
            );
        }
    }

    fn pressure(&self) -> StoragePressure {
        StoragePressure {
            wal_records: self.wal_records,
            wal_bytes: self.wal_bytes,
            compactions: self.compactions,
            compactions_failed: self.compactions_failed,
            last_compaction_error: self.last_compaction_error.clone(),
        }
    }
}

/// The error for stored or transferred bytes this build refuses.
fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// `<dir>/wal-<gen>.log`.
fn wal_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("{WAL_PREFIX}{generation:010}{WAL_SUFFIX}"))
}

/// `<dir>/snapshot-<gen>.galo`.
fn snapshot_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!(
        "{SNAPSHOT_PREFIX}{generation:010}{SNAPSHOT_SUFFIX}"
    ))
}

/// Enumerate `<prefix><gen><suffix>` files in `dir`.
fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
        else {
            continue;
        };
        let Ok(gen) = stem.parse::<u64>() else {
            continue;
        };
        out.push((gen, entry.path()));
    }
    Ok(out)
}

/// One commit as a version-4 record: `ops` (over `inner`'s term ids)
/// re-stated over a dictionary of the terms they mention, encoded, framed
/// by its length and checksummed.
fn encode_record(inner: &IndexedStore, ops: &[BlockOp]) -> Vec<u8> {
    let mut b = BlockBuilder::<_, IdHash>::with_capacity(ops.len());
    for op in ops {
        let op = match *op {
            BlockOp::Insert((s, p, o, g)) => BlockOp::Insert(b.quad(s, p, o, g)),
            BlockOp::Remove((s, p, o, g)) => BlockOp::Remove(b.quad(s, p, o, g)),
            BlockOp::Clear => BlockOp::Clear,
        };
        b.push(op);
    }
    let block = b.finish(|id| inner.resolve(TermId(id)));
    let mut record = vec![0; 4];
    block.encode_into(&mut record);
    let len = u32::try_from(record.len() - 4).expect("one commit is under 4 GiB");
    record[..4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum64(&record);
    put_u64(&mut record, sum);
    record
}

/// What replaying one log found.
#[derive(Default)]
struct Replayed {
    /// Byte length of the valid prefix: the header line and every whole
    /// record after it.
    bytes: u64,
    /// Records in that prefix.
    records: u64,
}

/// Replay a log into `inner`, up to its first record that is torn,
/// unparsable or fails its checksum.
fn replay_wal(inner: &mut IndexedStore, path: &Path) -> std::io::Result<Replayed> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replayed::default()),
        Err(e) => return Err(e),
    };
    if bytes.starts_with(WAL_V4_HEADER) {
        return Ok(replay_v4(inner, &bytes));
    }
    if WAL_V4_HEADER.starts_with(&bytes) {
        // A fresh log torn while its header was being written: it holds
        // no commit, and the open truncates it and writes the header anew.
        return Ok(Replayed::default());
    }
    // A log of version 3, a text log of version 1 or 2, or a log of a
    // later build: replaying it as version 4 would find no record and
    // truncate it all away.
    Err(invalid_data(format!(
        "log {} is not a version-4 log, the only version this build reads",
        path.display()
    )))
}

/// A record is committed when all of its bytes are there, its checksum is
/// right and its block decodes.
fn replay_v4(inner: &mut IndexedStore, bytes: &[u8]) -> Replayed {
    let mut at = WAL_V4_HEADER.len();
    let mut records = 0;
    loop {
        let mut r = ByteReader { bytes, pos: at };
        let Ok(len) = r.u32() else { break };
        // The length is checked against the bytes left before anything is
        // read, let alone reserved, on its say-so.
        let Ok(block) = r.take(len as usize) else {
            break;
        };
        let Ok(stored) = r.u64() else { break };
        if checksum64(&bytes[at..at + 4 + block.len()]) != stored {
            break;
        }
        let Ok(block) = QuadBlock::decode(block) else {
            break;
        };
        block.apply_into(inner);
        at = r.pos;
        records += 1;
    }
    Replayed {
        bytes: at as u64,
        records,
    }
}

// ------------------------------------------------------------ snapshot --

/// Serialize any store's current image as a snapshot: the magic, the
/// version, the encoding of [`QuadBlock::replacing_with`] the store (a
/// clear, then one insert per statement) and a `checksum64` over
/// everything before it. [`TripleStore::compact`] writes these bytes for
/// its own image, and [`decode_snapshot`] reads them back. This is the
/// replication subsystem's cold-start transfer payload.
pub fn snapshot_bytes(store: &dyn TripleStore) -> Vec<u8> {
    let mut buf = SNAPSHOT_MAGIC.to_vec();
    put_u32(&mut buf, SNAPSHOT_VERSION);
    QuadBlock::replacing_with(store).encode_into(&mut buf);
    let sum = checksum64(&buf);
    put_u64(&mut buf, sum);
    buf
}

/// The version a snapshot claims, if its seal holds: the magic, and the
/// checksum of its version over everything before it — FNV-1a up to
/// version 2, so that an earlier build's snapshot is known for what it is
/// and left alone rather than quarantined as corrupt.
fn sealed_version(bytes: &[u8]) -> Option<u32> {
    let (body, sum) = bytes.split_at(bytes.len().checked_sub(8)?);
    let version = body.get(SNAPSHOT_MAGIC.len()..SNAPSHOT_HEADER)?;
    let version = u32::from_le_bytes(version.try_into().expect("four bytes"));
    let seal = if version < 3 { fnv1a } else { checksum64 };
    let sealed = body.starts_with(SNAPSHOT_MAGIC)
        && seal(body) == u64::from_le_bytes(sum.try_into().expect("eight bytes"));
    sealed.then_some(version)
}

/// Decode and validate snapshot bytes ([`snapshot_bytes`] or a
/// `snapshot-*.galo` file's contents) into the block that turns any image
/// into the snapshotted one. Any truncation or corruption — bad magic,
/// failed checksum, a body that is not one block — and any version but
/// this build's is an `InvalidData` error, never a partial image: a
/// replica that receives a torn snapshot transfer rejects it wholesale
/// and re-pulls.
pub fn decode_snapshot(bytes: &[u8]) -> std::io::Result<QuadBlock> {
    match sealed_version(bytes) {
        Some(SNAPSHOT_VERSION) => QuadBlock::decode(&bytes[SNAPSHOT_HEADER..bytes.len() - 8])
            .map_err(|e| invalid_data(format!("bad snapshot: {e}"))),
        Some(version) => Err(invalid_data(format!(
            "snapshot of version {version}; this build reads version {SNAPSHOT_VERSION} only"
        ))),
        None => Err(invalid_data("bad snapshot: magic or checksum".to_string())),
    }
}

impl TripleStore for DurableStore {
    fn intern(&mut self, term: Term) -> TermId {
        // Interning alone is not journaled: ids are stable only for the
        // lifetime of one open store (see the module docs).
        self.inner.intern(term)
    }

    fn term_id(&self, term: &Term) -> Option<TermId> {
        self.inner.term_id(term)
    }

    fn resolve(&self, id: TermId) -> &Term {
        self.inner.resolve(id)
    }

    fn insert_ids(&mut self, t: Triple) -> bool {
        if !self.inner.insert_ids(t) {
            return false; // no state change: nothing to journal
        }
        self.journal(BlockOp::Insert((t.0 .0, t.1 .0, t.2 .0, None)), |inner| {
            inner.remove_ids(t);
        });
        self.maybe_auto_compact();
        true
    }

    fn remove_ids(&mut self, t: Triple) -> bool {
        if !self.inner.remove_ids(t) {
            return false;
        }
        self.journal(BlockOp::Remove((t.0 .0, t.1 .0, t.2 .0, None)), |inner| {
            inner.insert_ids(t);
        });
        self.maybe_auto_compact();
        true
    }

    fn clear(&mut self) {
        if self.inner.is_empty() && self.inner.graph_ids().is_empty() {
            return;
        }
        // Journaled before it is applied: there is nothing to undo.
        self.journal(BlockOp::Clear, |_| {});
        self.inner.clear();
        self.maybe_auto_compact();
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn scan(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        self.inner.scan(s, p, o)
    }

    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.inner.count(s, p, o)
    }

    fn insert_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        if !self.inner.insert_ids_in(graph, t) {
            return false;
        }
        let op = BlockOp::Insert((t.0 .0, t.1 .0, t.2 .0, Some(graph.0)));
        self.journal(op, |inner| {
            inner.remove_ids_in(graph, t);
        });
        self.maybe_auto_compact();
        true
    }

    fn remove_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        if !self.inner.remove_ids_in(graph, t) {
            return false;
        }
        let op = BlockOp::Remove((t.0 .0, t.1 .0, t.2 .0, Some(graph.0)));
        self.journal(op, |inner| {
            inner.insert_ids_in(graph, t);
        });
        self.maybe_auto_compact();
        true
    }

    fn scan_in(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        self.inner.scan_in(graph, s, p, o)
    }

    fn graph_ids(&self) -> Vec<TermId> {
        self.inner.graph_ids()
    }

    /// Open a group-commit batch: the state-changing operations that
    /// follow gather in memory and reach the log as one record at
    /// [`end_batch`](TripleStore::end_batch). Not reentrant — one bracket
    /// per write transaction.
    fn begin_batch(&mut self) {
        self.in_batch = true;
    }

    /// Close the batch: commit everything gathered inside it as one
    /// record (nothing, if nothing changed), then let the inline fold
    /// run. Fail-stop on write error.
    fn end_batch(&mut self) {
        self.in_batch = false;
        self.commit();
        self.maybe_auto_compact();
    }

    fn storage_pressure(&self) -> Option<StoragePressure> {
        Some(self.pressure())
    }

    /// Fold the log into a snapshot: open a fresh `wal-<g+1>`, write
    /// `snapshot-<g+1>` (temp file, fsync, atomic rename), rotate, and
    /// prune generations older than the newest *remaining older*
    /// snapshot, so a complete fallback chain (snapshot + every later
    /// log) is always retained.
    ///
    /// The new log is created *before* the snapshot is renamed into
    /// place: if any step fails, `self` still journals to the old
    /// generation's log, and no snapshot exists whose generation would
    /// make recovery skip that log.
    ///
    /// Every attempt is counted in the store's [`StoragePressure`]: a
    /// success in `compactions` (which ends any driver's failure
    /// back-off) and clears the stored error; a failure in
    /// `compactions_failed`, its text kept in `last_compaction_error`.
    fn compact(&mut self) -> std::io::Result<()> {
        match self.compact_inner() {
            Ok(()) => {
                self.compactions += 1;
                self.last_compaction_error = None;
                Ok(())
            }
            Err(e) => {
                self.compactions_failed += 1;
                self.last_compaction_error = Some(e.to_string());
                Err(e)
            }
        }
    }
}

impl DurableStore {
    fn compact_inner(&mut self) -> std::io::Result<()> {
        // Called inside an open bracket, the snapshot would hold what the
        // bracket has done so far while the old log does not: commit that
        // much first, so the fallback chain's old log is never short of
        // the snapshot it is paired with.
        self.commit();
        let next = self.generation + 1;
        let bytes = snapshot_bytes(&self.inner);
        let new_wal_path = wal_file(&self.dir, next);
        let rotate = || -> std::io::Result<File> {
            // Created, not appended to: an attempt that died further down
            // may have left this file behind, header and all.
            let mut new_wal = File::create(&new_wal_path)?;
            new_wal.write_all(WAL_V4_HEADER)?;
            let tmp = self.dir.join(format!(".snapshot-{next:010}.tmp"));
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, snapshot_file(&self.dir, next))?;
            Ok(new_wal)
        };
        let new_wal = rotate().inspect_err(|_| {
            // Writes go on in the old log. Were the new one left behind, the
            // old would no longer be the newest, and a torn tail on it — an
            // ordinary crash — would read as corruption mid-chain.
            let _ = fs::remove_file(&new_wal_path);
        })?;
        self.wal = new_wal;
        self.wal_bytes = WAL_V4_HEADER.len() as u64;
        self.wal_records = 0;
        self.generation = next;
        // The fallback floor: the newest snapshot older than `next` that
        // is still on disk (corrupt ones were quarantined at open).
        // Everything at or above it — that snapshot plus every later log
        // — is a complete recovery chain; everything below is pruned.
        let fallback = numbered_files(&self.dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)?
            .into_iter()
            .filter(|&(gen, _)| gen < next)
            .map(|(gen, _)| gen)
            .max()
            .unwrap_or(0);
        for (gen, path) in numbered_files(&self.dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)?
            .into_iter()
            .chain(numbered_files(&self.dir, WAL_PREFIX, WAL_SUFFIX)?)
        {
            if gen < fallback {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------- scratch dirs --

/// A unique scratch directory removed on drop — the workspace has no
/// `tempfile` dependency, so durable-store tests, benches and examples
/// share this helper.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<tmp>/galo-<label>-<pid>-<nonce>`.
    pub fn new(label: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "galo-{label}-{}-{}-{nanos}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&path).expect("scratch dir is creatable");
        ScratchDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(n: u32) -> Term {
        Term::iri(format!("http://galo/qep/pop/{n}"))
    }

    fn p(name: &str) -> Term {
        Term::iri(format!("http://galo/qep/property/{name}"))
    }

    /// Overwrite the first occurrence of `from` in a file with `to` (same
    /// length): in-place corruption of a committed record.
    fn corrupt(path: &Path, from: &[u8], to: &[u8]) {
        assert_eq!(from.len(), to.len());
        let mut bytes = fs::read(path).unwrap();
        let at = bytes
            .windows(from.len())
            .position(|w| w == from)
            .expect("test must actually corrupt a record");
        bytes[at..at + to.len()].copy_from_slice(to);
        fs::write(path, bytes).unwrap();
    }

    /// The v4 records of a log file, as `(start, end)` byte ranges, each
    /// checked the way replay checks it.
    fn v4_records(bytes: &[u8]) -> Vec<(usize, usize)> {
        assert!(bytes.starts_with(WAL_V4_HEADER));
        let mut at = WAL_V4_HEADER.len();
        let mut out = Vec::new();
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let end = at + 4 + len + 8;
            let stored = u64::from_le_bytes(bytes[end - 8..end].try_into().unwrap());
            assert_eq!(checksum64(&bytes[at..end - 8]), stored, "record checksum");
            QuadBlock::decode(&bytes[at + 4..end - 8]).expect("record holds a block");
            out.push((at, end));
            at = end;
        }
        out
    }

    /// Sorted N-Quads lines of a store's image.
    fn image(st: &dyn TripleStore) -> Vec<String> {
        let mut lines: Vec<String> = crate::ntriples::to_ntriples(st)
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn writes_survive_reopen() {
        let dir = ScratchDir::new("persist-reopen");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("hasPopType"), Term::lit("NLJOIN"));
            st.insert(iri(1), p("hasEstimateCardinality"), Term::num(2949250.0));
            st.insert_in(Term::iri("http://g/w1"), iri(9), p("tag"), Term::lit("x"));
            assert_eq!(st.wal_records(), 3);
        }
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 2);
        assert!(st.contains(&iri(1), &p("hasPopType"), &Term::lit("NLJOIN")));
        assert_eq!(st.graph_names(), vec![Term::iri("http://g/w1")]);
    }

    #[test]
    fn removes_and_clear_replay() {
        let dir = ScratchDir::new("persist-remove");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.insert(iri(2), p("a"), Term::lit("2"));
            st.remove(&iri(1), &p("a"), &Term::lit("1"));
        }
        {
            let st = DurableStore::open(dir.path()).unwrap();
            assert_eq!(st.len(), 1);
            assert!(st.contains(&iri(2), &p("a"), &Term::lit("2")));
        }
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.clear();
            st.insert(iri(3), p("a"), Term::lit("3"));
        }
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 1);
        assert!(st.contains(&iri(3), &p("a"), &Term::lit("3")));
    }

    #[test]
    fn noop_mutations_journal_nothing() {
        let dir = ScratchDir::new("persist-noop");
        let mut st = DurableStore::open(dir.path()).unwrap();
        let g = Term::iri("http://g/w1");
        assert!(st.insert(iri(1), p("a"), Term::lit("1")));
        assert!(st.insert_in(g.clone(), iri(1), p("a"), Term::lit("1")));
        let journaled = (st.wal_records(), st.wal_bytes());
        assert_eq!(journaled.0, 2);
        let dup = |st: &mut DurableStore| st.insert(iri(1), p("a"), Term::lit("1"));
        let dup_in =
            |st: &mut DurableStore| st.insert_in(g.clone(), iri(1), p("a"), Term::lit("1"));
        type Noop<'a> = &'a dyn Fn(&mut DurableStore) -> bool;
        let noops: [(&str, Noop); 4] = [
            ("a duplicate insert", &dup),
            ("a duplicate named-graph insert", &dup_in),
            ("a remove of an absent statement", &|st| {
                st.remove(&iri(2), &p("a"), &Term::lit("1"))
            }),
            ("duplicates inside a bracket", &|st| {
                st.begin_batch();
                let changed = [dup(st), dup_in(st), dup(st)].contains(&true);
                st.end_batch();
                changed
            }),
        ];
        for (what, noop) in noops {
            assert!(!noop(&mut st), "{what} changes nothing");
            let now = (st.wal_records(), st.wal_bytes());
            assert_eq!(now, journaled, "{what} journals nothing");
        }
        st.clear();
        st.clear(); // second clear on empty store: no record
        assert_eq!(st.wal_records(), 3); // the two inserts + first clear
    }

    /// An unbracketed write whose record cannot be written is undone
    /// before the store fails stop: nothing the log lost is visible.
    #[test]
    fn a_write_the_log_refused_is_not_visible() {
        let dir = ScratchDir::new("persist-refused");
        let mut st = DurableStore::open(dir.path()).unwrap();
        let g = Term::iri("http://g/w1");
        assert!(st.insert(iri(1), p("a"), Term::lit("1")));
        assert!(st.insert_in(g.clone(), iri(1), p("a"), Term::lit("1")));
        let before = image(&st);
        // A handle opened for reading: every write to it fails.
        st.wal = File::open(st.wal_path()).unwrap();
        let refused = |st: &mut DurableStore, write: &dyn Fn(&mut DurableStore)| {
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| write(st)));
            assert!(failed.is_err(), "a write the log refused fails stop");
        };
        refused(&mut st, &|st| {
            st.insert(iri(2), p("a"), Term::lit("2"));
        });
        refused(&mut st, &|st| {
            st.insert_in(g.clone(), iri(2), p("a"), Term::lit("2"));
        });
        refused(&mut st, &|st| {
            st.remove(&iri(1), &p("a"), &Term::lit("1"));
        });
        let (s, pa, one) = (
            st.intern(iri(1)),
            st.intern(p("a")),
            st.intern(Term::lit("1")),
        );
        let gid = st.intern(g.clone());
        refused(&mut st, &|st| {
            st.remove_ids_in(gid, (s, pa, one));
        });
        assert_eq!(image(&st), before);
        assert_eq!(st.wal_records(), 2);
    }

    #[test]
    fn compact_snapshots_and_rotates_log() {
        let dir = ScratchDir::new("persist-compact");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            for i in 0..20u32 {
                st.insert(iri(i), p("hasOutputStream"), iri(i + 1));
            }
            st.insert_in(Term::iri("http://g/w"), iri(0), p("tag"), Term::lit("t"));
            st.compact().unwrap();
            assert_eq!(st.generation(), 1);
            assert_eq!(st.wal_records(), 0);
            // Post-compaction writes land in the new log.
            st.insert(iri(100), p("hasOutputStream"), iri(101));
            assert_eq!(st.wal_records(), 1);
        }
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.generation(), 1);
        assert_eq!(st.len(), 21);
        assert_eq!(st.graph_names().len(), 1);
    }

    #[test]
    fn recovery_prefers_newest_valid_snapshot() {
        let dir = ScratchDir::new("persist-fallback");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.compact().unwrap(); // generation 1
            st.insert(iri(2), p("a"), Term::lit("2"));
            st.compact().unwrap(); // generation 2
            st.insert(iri(3), p("a"), Term::lit("3"));
        }
        // Corrupt the newest snapshot: recovery must fall back to
        // generation 1 and replay wal-1 (the insert of pop/2) and wal-2
        // (pop/3) on top of it.
        let snap2 = snapshot_file(dir.path(), 2);
        fs::write(&snap2, b"GALOSNAPgarbage").unwrap();
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 3);
        for i in 1..=3 {
            assert!(st.contains(&iri(i), &p("a"), &Term::lit(i.to_string())));
        }
    }

    #[test]
    fn fallback_recovery_then_compaction_keeps_a_valid_chain() {
        // The double-failure scenario: the newest snapshot corrupts, the
        // store recovers by fallback and compacts — and then the NEW
        // newest snapshot corrupts too. Recovery must still reproduce
        // full history (the corrupt snapshot was quarantined at open, so
        // compaction retained a chain anchored at a *valid* snapshot).
        let dir = ScratchDir::new("persist-double-fallback");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.compact().unwrap(); // generation 1
            st.insert(iri(2), p("a"), Term::lit("2"));
            st.compact().unwrap(); // generation 2
            st.insert(iri(3), p("a"), Term::lit("3"));
        }
        fs::write(snapshot_file(dir.path(), 2), b"GALOSNAPgarbage").unwrap();
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            assert_eq!(st.len(), 3, "fallback to snapshot 1 + wal replay");
            st.insert(iri(4), p("a"), Term::lit("4"));
            st.compact().unwrap(); // generation 3
            st.insert(iri(5), p("a"), Term::lit("5"));
        }
        fs::write(snapshot_file(dir.path(), 3), b"GALOSNAPgarbage").unwrap();
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 5, "second fallback still covers full history");
        for i in 1..=5 {
            assert!(st.contains(&iri(i), &p("a"), &Term::lit(i.to_string())));
        }
    }

    #[test]
    fn broken_generation_chain_is_an_error_not_partial_history() {
        // If no snapshot validates and the early logs are gone, opening
        // must fail loudly instead of replaying a suffix of history onto
        // an empty store.
        let dir = ScratchDir::new("persist-broken-chain");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.compact().unwrap(); // snapshot-1 + wal-1; wal-0 retained
            st.insert(iri(2), p("a"), Term::lit("2"));
            st.compact().unwrap(); // snapshot-2 + wal-2; prunes gen 0
            st.insert(iri(3), p("a"), Term::lit("3"));
        }
        // Corrupt every snapshot: the surviving logs start at gen 1, so
        // generation 0's history is unreachable.
        fs::write(snapshot_file(dir.path(), 1), b"GALOSNAPgarbage").unwrap();
        fs::write(snapshot_file(dir.path(), 2), b"GALOSNAPgarbage").unwrap();
        let err = DurableStore::open(dir.path()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no recoverable generation chain"));
    }

    #[test]
    fn corrupt_mid_chain_log_is_an_error_not_a_gap() {
        // Fallback recovery replays multiple log generations. A bad
        // record in a NON-newest log must fail the open loudly: stopping
        // there while still applying later generations would open a
        // silent gap in the middle of acknowledged history. (Only the
        // newest log may end torn — that is the crash-mid-append case.)
        let dir = ScratchDir::new("persist-midchain");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1111"));
            st.compact().unwrap(); // gen 1: snapshot-1 + wal-1
            st.insert(iri(2), p("a"), Term::lit("2222")); // lands in wal-1
            st.compact().unwrap(); // gen 2
            st.insert(iri(3), p("a"), Term::lit("3333")); // lands in wal-2
        }
        // Corrupt the newest snapshot so recovery falls back to
        // snapshot-1 and must replay wal-1 then wal-2 …
        fs::write(snapshot_file(dir.path(), 2), b"GALOSNAPgarbage").unwrap();
        // … and flip a digit inside wal-1's committed record.
        corrupt(&wal_file(dir.path(), 1), b"2222", b"2922");
        let err = DurableStore::open(dir.path()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-newest"), "{err}");
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = ScratchDir::new("persist-torn");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            for i in 0..10u32 {
                st.insert(iri(i), p("a"), Term::num(i as f64));
            }
            wal_path = st.wal_path();
        }
        // Tear the last record mid-bytes.
        let len = fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 9, "only the torn trailing record is dropped");
        // The log was truncated back to the committed prefix, so the next
        // write starts at a record boundary and a further reopen agrees.
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), st.wal_bytes());
        let mut st2 = DurableStore::open(dir.path()).unwrap();
        st2.insert(iri(99), p("a"), Term::lit("fresh"));
        drop(st2);
        let st3 = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st3.len(), 10);
    }

    #[test]
    fn garbage_mid_log_drops_the_tail() {
        let dir = ScratchDir::new("persist-garbage");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.insert(iri(2), p("a"), Term::lit("2"));
            wal_path = st.wal_path();
        }
        let mut bytes = fs::read(&wal_path).unwrap();
        let mut scratch = IndexedStore::new();
        let t = (
            scratch.intern(iri(3)).0,
            scratch.intern(p("a")).0,
            scratch.intern(Term::lit("3")).0,
            None,
        );
        let valid = encode_record(&scratch, &[BlockOp::Insert(t)]);
        // A whole record's worth of bytes — length, body, checksum — that
        // is not one.
        let garbage = [&16u32.to_le_bytes()[..], b"oops, not a block", &[0; 7]].concat();
        bytes.extend_from_slice(&garbage);
        bytes.extend_from_slice(&valid);
        fs::write(&wal_path, &bytes).unwrap();
        // Replay stops at the garbage record; the valid record after it is
        // part of the dropped tail — a torn write must never resurrect
        // later bytes.
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 2);
        drop(st);
        // The same record right after the committed prefix does replay.
        bytes.truncate(bytes.len() - valid.len() - garbage.len());
        bytes.extend_from_slice(&valid);
        fs::write(&wal_path, &bytes).unwrap();
        assert_eq!(DurableStore::open(dir.path()).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_roundtrips_interner_and_graphs() {
        let mut st = IndexedStore::new();
        st.insert(iri(1), p("a"), Term::lit("x"));
        st.insert(iri(2), p("b"), iri(1));
        st.insert_in(Term::iri("http://g/1"), iri(1), p("t"), Term::lit("y"));
        // A snapshot holds statements, not the interner: a term no
        // statement uses does not come back.
        st.intern(Term::lit("unused"));
        let bytes = snapshot_bytes(&st);
        let mut back = IndexedStore::new();
        decode_snapshot(&bytes).unwrap().apply_into(&mut back);
        assert_eq!(image(&back), image(&st));
        assert_eq!(back.graph_names(), vec![Term::iri("http://g/1")]);
        assert_eq!(back.term_id(&Term::lit("unused")), None);
        // The body is one block: a clear, then one insert per statement.
        let body = QuadBlock::decode(&bytes[SNAPSHOT_HEADER..bytes.len() - 8]).unwrap();
        assert_eq!(body.ops().first(), Some(&BlockOp::Clear));
        assert_eq!(body.ops().len(), 1 + 3);
        // A flipped byte fails validation.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(decode_snapshot(&bad).is_err());
    }

    /// A snapshot whose magic and checksum hold but whose version is not
    /// this build's was written by another build: the open refuses it by
    /// name and leaves it where it is, rather than quarantining it and
    /// falling back to older history. Versions 1 and 2 were sealed with
    /// FNV-1a; a later one is taken to seal as this build does.
    #[test]
    fn a_snapshot_of_another_version_is_refused_not_quarantined() {
        let dir = ScratchDir::new("persist-snap-version");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.compact().unwrap();
        }
        let path = snapshot_file(dir.path(), 1);
        let fnv: fn(&[u8]) -> u64 = fnv1a;
        for (version, seal) in [(2u32, fnv), (1, fnv), (4, checksum64)] {
            // Reseal generation 1's snapshot as `version`.
            let mut bytes = fs::read(&path).unwrap();
            bytes.truncate(bytes.len() - 8);
            bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_HEADER].copy_from_slice(&version.to_le_bytes());
            let sum = seal(&bytes);
            put_u64(&mut bytes, sum);
            fs::write(&path, &bytes).unwrap();
            let err = DurableStore::open(dir.path()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains(&format!("version {version};")),
                "{err}"
            );
            assert_eq!(fs::read(&path).unwrap(), bytes, "the file is left as it is");
            assert!(
                !path.with_extension("galo.corrupt").exists(),
                "not quarantined"
            );
        }
    }

    #[test]
    fn auto_compaction_honors_threshold() {
        let dir = ScratchDir::new("persist-auto");
        let mut st = DurableStore::open_with(
            dir.path(),
            DurableOptions {
                auto_compact_records: Some(10),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        for i in 0..25u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        assert!(st.generation() >= 2, "two auto-compactions by 25 records");
        assert!(st.wal_records() < 10);
        drop(st);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 25);
    }

    #[test]
    fn terms_are_escaped_through_the_log() {
        let dir = ScratchDir::new("persist-escape");
        let nasty = Term::lit("say \"hi\"\nthen\\leave\ttab");
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), nasty.clone());
        }
        let st = DurableStore::open(dir.path()).unwrap();
        assert!(st.contains(&iri(1), &p("a"), &nasty));
    }

    /// A fresh log is of version 4: the header line, then one
    /// length-framed, checksummed block per commit, whether the commit was
    /// one mutation or a bracket of many.
    #[test]
    fn fresh_logs_are_v4_with_per_record_checksums() {
        let dir = ScratchDir::new("persist-v4");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.insert(iri(2), p("a"), Term::lit("2"));
            st.begin_batch();
            for i in 3..40 {
                st.insert(iri(i), p("a"), Term::num(i as f64));
            }
            st.insert(iri(3), p("a"), Term::num(3.0)); // a duplicate: not journaled
            st.end_batch();
            st.begin_batch();
            st.insert(iri(1), p("a"), Term::lit("1")); // a bracket that changed nothing
            st.end_batch();
            assert_eq!(st.wal_records(), 3);
            wal_path = st.wal_path();
        }
        let bytes = fs::read(&wal_path).unwrap();
        let records = v4_records(&bytes);
        assert_eq!(records.len(), 3, "one record per commit");
        let (at, end) = records[2];
        let batch = QuadBlock::decode(&bytes[at + 4..end - 8]).unwrap();
        assert_eq!(batch.ops().len(), 37, "the bracket is one record of 37 ops");
        assert_eq!(batch.terms().len(), 37 + 1 + 37, "each distinct term once");
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 39);
        assert_eq!(st.wal_records(), 3, "replay counts what the writer counted");
    }

    #[test]
    fn checksum_rejects_in_place_corruption() {
        // Flip one digit inside a committed record: the block still
        // decodes, so without the checksum replay would resurrect a WRONG
        // triple; with it the record is rejected (and everything after it).
        let dir = ScratchDir::new("persist-crc");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1111"));
            st.insert(iri(2), p("a"), Term::lit("2222"));
            wal_path = st.wal_path();
        }
        corrupt(&wal_path, b"1111", b"1911");
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 0, "corrupted record and its tail are dropped");
        assert!(!st.contains(&iri(1), &p("a"), &Term::lit("1911")));
    }

    #[test]
    fn group_commit_flushes_once_per_batch() {
        let dir = ScratchDir::new("persist-batch");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            wal_path = st.wal_path();
            st.begin_batch();
            for i in 0..10u32 {
                st.insert(iri(i), p("a"), Term::num(i as f64));
            }
            // Gathered in memory: nothing past the header is on disk yet.
            assert_eq!(
                fs::metadata(&wal_path).unwrap().len(),
                WAL_V4_HEADER.len() as u64
            );
            st.end_batch();
            assert_eq!(fs::metadata(&wal_path).unwrap().len(), st.wal_bytes());
        }
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 10, "every batched record was committed");
    }

    #[test]
    fn empty_dir_opens_empty_store() {
        let dir = ScratchDir::new("persist-empty");
        let st = DurableStore::open(dir.path()).unwrap();
        assert!(st.is_empty());
        assert_eq!(st.generation(), 0);
        assert_eq!(st.wal_records(), 0);
    }

    /// An open bracket that crosses the auto-compaction threshold does not
    /// rotate the log: a snapshot taken mid-batch would make its prefix
    /// durable, so a kill before `end_batch` must reopen to the pre-batch
    /// image with no part of the batch in it.
    #[test]
    fn auto_compaction_never_folds_inside_an_open_batch() {
        let dir = ScratchDir::new("persist-midbatch");
        let mut st = DurableStore::open_with(
            dir.path(),
            DurableOptions {
                auto_compact_records: Some(5),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        // Three committed pre-batch records.
        for i in 0..3u32 {
            st.insert(iri(i), p("pre"), Term::num(i as f64));
        }
        assert_eq!(st.generation(), 0);
        // An open batch crosses the threshold.
        st.begin_batch();
        for i in 100..105u32 {
            st.insert(iri(i), p("batch"), Term::num(i as f64));
        }
        assert_eq!(
            st.generation(),
            0,
            "the log must not rotate under an open batch"
        );
        // Kill before end_batch: leak the store so the gathered batch is
        // dropped exactly as a crash would drop it (the pre-batch commits
        // were each written as they were made).
        std::mem::forget(st);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(
            st.len(),
            3,
            "an uncommitted batch is all-or-nothing: no prefix survives"
        );
        for i in 0..3u32 {
            assert!(st.contains(&iri(i), &p("pre"), &Term::num(i as f64)));
        }
    }

    /// The threshold counts commits, and the inline fold runs between
    /// them: a bracket is one commit however many operations it holds,
    /// and the fold it trips waits for `end_batch`.
    #[test]
    fn auto_compaction_counts_commits_not_operations() {
        let dir = ScratchDir::new("persist-commit-count");
        let mut st = DurableStore::open_with(
            dir.path(),
            DurableOptions {
                auto_compact_records: Some(5),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        st.begin_batch();
        for i in 0..8u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        st.end_batch();
        assert_eq!(st.wal_records(), 1, "eight operations, one commit");
        for i in 8..11u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        assert_eq!((st.generation(), st.wal_records()), (0, 4));
        st.begin_batch();
        for i in 11..20u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        assert_eq!(st.generation(), 0, "no fold while the batch is open");
        st.end_batch();
        assert_eq!(st.generation(), 1, "the fifth commit folded at end_batch");
        assert_eq!(st.wal_records(), 0);
        drop(st);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 20, "the whole batch survives the fold");
    }

    /// A batch far larger than any writer buffer is still all-or-nothing
    /// across process death: nothing of it is written before `end_batch`.
    /// (With per-quad records behind an 8 KiB `BufWriter`, 361 of these
    /// 400 triples had already spilled to the file and were replayed.)
    #[test]
    fn open_batch_larger_than_the_writer_buffer_is_all_or_nothing() {
        let dir = ScratchDir::new("persist-bigbatch");
        let template_shaped = |i: u32| {
            (
                Term::iri(format!(
                    "http://galo/kb/template/{:016x}/pop/{}",
                    i / 16,
                    i % 16
                )),
                p(&format!("hasLowerBaseCardinality{}", i % 7)),
                Term::lit(format!("{:064x}", u64::from(i) * 0x9E37_79B9)),
            )
        };
        let mut st = DurableStore::open(dir.path()).unwrap();
        st.insert(iri(1), p("pre"), Term::lit("kept"));
        let before = image(&st);
        st.begin_batch();
        for i in 0..400 {
            let (s, pr, o) = template_shaped(i);
            assert!(st.insert(s, pr, o));
        }
        // Kill, not shutdown.
        std::mem::forget(st);
        let mut st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(image(&st), before, "no prefix of an open batch survives");
        // Committed, all 400 do — in one record of well over 8 KiB.
        st.begin_batch();
        for i in 0..400 {
            let (s, pr, o) = template_shaped(i);
            st.insert(s, pr, o);
        }
        st.end_batch();
        assert_eq!(st.wal_records(), 2);
        assert!(st.wal_bytes() > 32 * 1024);
        std::mem::forget(st);
        assert_eq!(DurableStore::open(dir.path()).unwrap().len(), 401);
    }

    /// The crash test of the log hop: cut the file at every byte of its
    /// last record — a bracket with inserts, a remove and a named-graph
    /// tag — and the store reopens to the image before that commit, with
    /// the torn bytes gone from the file.
    #[test]
    fn wal_cut_at_every_byte_of_its_last_record_reopens_to_the_image_before_it() {
        let dir = ScratchDir::new("persist-cut");
        let mut st = DurableStore::open(dir.path()).unwrap();
        st.insert(iri(1), p("a"), Term::lit("1"));
        st.insert(iri(2), p("a"), Term::lit("2"));
        let before = image(&st);
        let committed = st.wal_bytes();
        st.begin_batch();
        st.insert(iri(3), p("a"), Term::lit("say \"hi\"\n"));
        st.remove(&iri(1), &p("a"), &Term::lit("1"));
        st.insert_in(Term::iri("http://g/w"), iri(3), p("tag"), Term::lit(""));
        st.end_batch();
        let after = image(&st);
        let wal_path = st.wal_path();
        let whole = fs::read(&wal_path).unwrap();
        assert_eq!(whole.len() as u64, st.wal_bytes());
        drop(st);
        for cut in committed as usize..whole.len() {
            fs::write(&wal_path, &whole[..cut]).unwrap();
            let st = DurableStore::open(dir.path()).unwrap();
            assert_eq!(image(&st), before, "cut at byte {cut}");
            assert_eq!(st.wal_records(), 2);
            assert_eq!(fs::metadata(&wal_path).unwrap().len(), committed);
        }
        // Every bit of the record is under its checksum, too.
        for i in committed as usize..whole.len() {
            for bit in 0..8 {
                let mut bad = whole.clone();
                bad[i] ^= 1 << bit;
                fs::write(&wal_path, &bad).unwrap();
                let st = DurableStore::open(dir.path()).unwrap();
                assert_eq!(image(&st), before, "bit {bit} of byte {i}");
            }
        }
        fs::write(&wal_path, &whole).unwrap();
        assert_eq!(image(&DurableStore::open(dir.path()).unwrap()), after);
    }

    /// A log of any version but 4 is refused, not "recovered" by
    /// truncating it to nothing: one a later build wrote, the binary log
    /// of version 3 (this layout, sealed with FNV-1a), and the text logs of
    /// versions 1 (no header, a statement a line) and 2 (a header and a
    /// checksum a line) that earlier builds wrote.
    #[test]
    fn a_log_of_an_unknown_version_is_refused_not_truncated() {
        let v1_line = "+ <http://galo/qep/pop/1> <http://galo/qep/property/a> \"1\" .\n";
        let v2_log = format!(
            "# galo-wal v2\n{} #0123456789abcdef\n",
            &v1_line[..v1_line.len() - 1]
        );
        for (name, log) in [
            ("v9", &b"# galo-wal v9\nwhatever a later build writes"[..]),
            (
                "v3",
                b"# galo-wal v3\n\x04\0\0\0\0\0\0\0\x11\x22\x33\x44\x55\x66\x77\x88",
            ),
            ("v2", v2_log.as_bytes()),
            ("v1", v1_line.as_bytes()),
        ] {
            let dir = ScratchDir::new(&format!("persist-{name}"));
            let path = wal_file(dir.path(), 0);
            fs::write(&path, log).unwrap();
            let err = DurableStore::open(dir.path()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            assert_eq!(fs::read(&path).unwrap(), log, "{name}: the bytes stay");
        }
    }

    /// A fresh log torn while its header was being written — cut anywhere
    /// from nothing to one byte short of the header — holds no commit: it
    /// reopens empty, takes an insert and reopens with it.
    #[test]
    fn a_log_torn_in_its_header_reopens_empty_and_appendable() {
        for cut in 0..WAL_V4_HEADER.len() {
            let dir = ScratchDir::new("persist-torn-header");
            let path = wal_file(dir.path(), 0);
            fs::write(&path, &WAL_V4_HEADER[..cut]).unwrap();
            let mut st = DurableStore::open(dir.path()).unwrap();
            assert!(st.is_empty(), "cut at {cut}");
            assert_eq!((st.generation(), st.wal_records()), (0, 0), "cut at {cut}");
            st.insert(iri(1), p("a"), Term::lit("1"));
            drop(st);
            let st = DurableStore::open(dir.path()).unwrap();
            assert!(
                st.contains(&iri(1), &p("a"), &Term::lit("1")),
                "cut at {cut}"
            );
            assert_eq!(
                v4_records(&fs::read(&path).unwrap()).len(),
                1,
                "cut at {cut}"
            );
        }
    }

    /// A compaction that fails after it has created the next generation's
    /// log must not leave that file behind, and one that finds such a file
    /// (left by a fold that was killed) must start it afresh, not append a
    /// second header that replay would stop at.
    #[test]
    fn compaction_retried_after_a_late_failure_starts_a_clean_log() {
        let dir = ScratchDir::new("persist-compact-retry");
        let mut st = DurableStore::open(dir.path()).unwrap();
        st.insert(iri(1), p("a"), Term::lit("1"));
        // Block the snapshot's temporary file: the failure comes after the
        // new log exists.
        let blocker = dir.path().join(".snapshot-0000000001.tmp");
        fs::create_dir(&blocker).unwrap();
        assert!(st.compact().is_err());
        assert!(
            !wal_file(dir.path(), 1).exists(),
            "a failed fold leaves no log behind"
        );
        // So the log still written to is still the newest, and a crash
        // mid-append on it is a torn tail, not corruption mid-chain.
        st.insert(iri(2), p("a"), Term::lit("2"));
        st.insert(iri(3), p("a"), Term::lit("3"));
        let wal_path = st.wal_path();
        std::mem::forget(st);
        let len = fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let mut st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 2, "the torn commit is dropped, the rest kept");
        // A fold that dies without cleaning up — a kill — leaves the next
        // log behind; the fold after it must start that file afresh.
        fs::write(wal_file(dir.path(), 1), WAL_V4_HEADER).unwrap();
        fs::remove_dir(&blocker).unwrap();
        st.compact().unwrap();
        st.insert(iri(4), p("a"), Term::lit("4"));
        drop(st);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 3, "the post-fold commit must replay");
        assert_eq!(st.wal_records(), 1);
    }

    #[test]
    fn failed_compaction_is_counted_and_surfaced() {
        let dir = ScratchDir::new("persist-compactfail");
        let mut st = DurableStore::open(dir.path()).unwrap();
        st.insert(iri(1), p("a"), Term::lit("1"));
        assert_eq!(st.compactions_failed(), 0);
        assert_eq!(st.last_compaction_error(), None);
        // Block the rotation: a directory squats on the next log's path.
        let blocker = wal_file(dir.path(), 1);
        fs::create_dir(&blocker).unwrap();
        assert!(st.compact().is_err());
        assert_eq!(st.compactions_failed(), 1);
        assert!(st.last_compaction_error().is_some());
        let pressure = st.storage_pressure().expect("durable stores report");
        assert_eq!(pressure.compactions_failed, 1);
        assert!(pressure.last_compaction_error.is_some());
        assert_eq!(pressure.wal_records, st.wal_records());
        assert_eq!(pressure.wal_bytes, st.wal_bytes());
        // Writes keep flowing on the old log; the disk heals; the next
        // compaction succeeds, clears the error and keeps the count.
        st.insert(iri(2), p("a"), Term::lit("2"));
        fs::remove_dir(&blocker).unwrap();
        st.compact().unwrap();
        assert_eq!(st.compactions_failed(), 1);
        assert_eq!(st.last_compaction_error(), None);
        drop(st);
        assert_eq!(DurableStore::open(dir.path()).unwrap().len(), 2);
    }

    #[test]
    fn auto_compaction_failure_counts_and_keeps_serving() {
        let dir = ScratchDir::new("persist-autofail");
        let mut st = DurableStore::open_with(
            dir.path(),
            DurableOptions {
                auto_compact_records: Some(3),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        let blocker = wal_file(dir.path(), 1);
        fs::create_dir(&blocker).unwrap();
        for i in 0..6u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        // Attempts at commits 3 and 6 only: a failure backs the next
        // attempt off by another threshold's worth of commits.
        assert_eq!(
            st.compactions_failed(),
            2,
            "the failed auto-compactions were counted, and backed off"
        );
        assert_eq!(st.generation(), 0);
        assert_eq!(st.len(), 6, "writes kept flowing past the failures");
        fs::remove_dir(&blocker).unwrap();
        // Healed disk: nothing is due before commit 9, which folds.
        for i in 6..8u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        assert_eq!((st.generation(), st.compactions_failed()), (0, 2));
        st.insert(iri(100), p("a"), Term::lit("x"));
        assert_eq!(st.generation(), 1, "the next due commit folds");
        assert_eq!(st.last_compaction_error(), None);
        // The back-off ends with the success: the new log folds at 3.
        for i in 200..203u32 {
            st.insert(iri(i), p("a"), Term::num(i as f64));
        }
        assert_eq!((st.generation(), st.wal_records()), (2, 0));
        drop(st);
        assert_eq!(DurableStore::open(dir.path()).unwrap().len(), 12);
    }

    /// `fsync_each_record` syncs every commit — a single write and a
    /// bracket alike — and the log it leaves reopens to the same image.
    #[test]
    fn fsync_each_record_commits_reopen_to_the_image() {
        let dir = ScratchDir::new("persist-fsync");
        let mut st = DurableStore::open_with(
            dir.path(),
            DurableOptions {
                fsync_each_record: true,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        st.insert(iri(1), p("a"), Term::lit("1"));
        st.begin_batch();
        st.insert(iri(2), p("a"), Term::lit("2"));
        st.remove(&iri(1), &p("a"), &Term::lit("1"));
        st.insert_in(Term::iri("http://g/w"), iri(3), p("tag"), Term::lit("t"));
        st.end_batch();
        assert_eq!(st.wal_records(), 2, "one single write, one bracket");
        let before = image(&st);
        std::mem::forget(st);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(image(&st), before);
        assert_eq!(st.wal_records(), 2);
    }
}
