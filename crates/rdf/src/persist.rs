//! Durable triple storage: a write-ahead log plus binary snapshots.
//!
//! The paper's knowledge base lives in a Fuseki server backed by "a
//! robust, transactional, and persistent storage layer" (§3.2) — learned
//! guidelines accumulate across workloads and off-peak learning runs.
//! [`DurableStore`] gives this reproduction the same property without any
//! external dependency: an in-memory [`IndexedStore`] serves every read,
//! while each mutation is journaled to an append-only N-Quads
//! write-ahead log *before* it is applied, and [`compact`] periodically
//! folds the log into a binary snapshot (interner table + SPO triples +
//! named-graph tags).
//!
//! # On-disk layout
//!
//! A store directory holds numbered generations:
//!
//! ```text
//! kb.galo/
//!   snapshot-0000000003.galo   binary image of the store at generation 3
//!   wal-0000000003.log         mutations journaled since that snapshot
//!   wal-0000000002.log         previous generation (kept for fallback)
//! ```
//!
//! * **Log records** are single lines: `+ <s> <p> <o> .` (default-graph
//!   insert), `- <s> <p> <o> .` (remove), the same with a fourth graph
//!   term for named-graph tagging (N-Quads), and `* clear`. A version-2
//!   log (first line `# galo-wal v2`) additionally suffixes every record
//!   with ` #<fnv64>` — a per-record checksum over the record body, so
//!   replay rejects in-place corruption, not just truncation; logs
//!   without the header replay under the original v1 rules. A record is
//!   *committed* once its terminating newline reaches the file; replay
//!   stops at the first torn, unparsable or checksum-failing trailing
//!   record and [`DurableStore::open`] truncates the log back to the
//!   committed prefix — a crash mid-write loses at most the
//!   un-terminated record, never an acknowledged one.
//! * **Group commit** — each record is normally flushed to the OS as it
//!   is journaled; inside a [`TripleStore::begin_batch`] /
//!   [`TripleStore::end_batch`] bracket (one `FusekiLite` write
//!   transaction) records are buffered and flushed once at batch end, so
//!   a template insert pays one flush instead of ~19.
//! * **Snapshots** are written to a temporary file, fsynced, then
//!   atomically renamed, and carry an FNV-1a checksum over their whole
//!   body; a snapshot that fails validation is quarantined (renamed
//!   `*.corrupt`) and recovery falls back to the previous generation,
//!   replaying every later log. If the surviving logs cannot cover the
//!   gap back to a valid snapshot, [`DurableStore::open`] refuses with
//!   an error rather than silently opening partial history.
//! * **Compaction** ([`TripleStore::compact`]) opens the next
//!   generation's log, writes the next-generation snapshot, rotates,
//!   and prunes generations below the newest *remaining older*
//!   snapshot — so one complete fallback chain (a valid snapshot plus
//!   every later log) always stays on disk and a corrupt newest
//!   snapshot cannot strand the store.
//!
//! Interned [`TermId`]s are stable for the lifetime of one open store,
//! as the [`TripleStore`] contract requires, but **not across reopens**:
//! terms interned without ever appearing in a triple are not journaled,
//! so a recovered store re-interns from its triples alone.
//!
//! [`compact`]: TripleStore::compact

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::fnv::fnv1a;
use crate::ntriples::parse_ntriples;
use crate::store::{IndexedStore, StoragePressure, Triple, TripleStore};
use crate::term::{Term, TermId};

const SNAPSHOT_MAGIC: &[u8; 8] = b"GALOSNAP";
const SNAPSHOT_VERSION: u32 = 1;
const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".galo";
const WAL_PREFIX: &str = "wal-";
const WAL_SUFFIX: &str = ".log";

/// First line of a version-2 write-ahead log. A v2 record line carries a
/// trailing ` #<fnv64 hex>` checksum over the record body, so replay
/// detects in-place corruption (a flipped byte in a literal still parses
/// under v1 rules — v2 rejects it). Logs without the header are v1 and
/// replay with the original newline-plus-parse validation, so stores
/// written by older builds keep recovering.
const WAL_V2_HEADER: &str = "# galo-wal v2";

/// Tuning knobs for a [`DurableStore`].
#[derive(Debug, Clone, Default)]
pub struct DurableOptions {
    /// `fsync` the log after every commit — every record, or every batch
    /// under group commit. Off by default: each commit is still flushed
    /// to the OS (surviving process death, the failure mode the tests
    /// simulate); fsync additionally survives power loss at a heavy
    /// per-write cost.
    pub fsync_each_record: bool,
    /// Automatically [`compact`](TripleStore::compact) once this many
    /// records accumulate in the current log. `None` (the default) leaves
    /// compaction to the caller.
    pub auto_compact_records: Option<u64>,
}

/// A persistent [`TripleStore`]: WAL + snapshot around an in-memory
/// [`IndexedStore`].
///
/// Reads delegate to the inner indexed store, so lookup performance is
/// identical to the default backend; every mutation pays one journaled
/// log line. I/O failure while journaling is fail-stop (a panic): a store
/// that cannot journal must not acknowledge writes it would lose.
#[derive(Debug)]
pub struct DurableStore {
    inner: IndexedStore,
    dir: PathBuf,
    wal: BufWriter<File>,
    wal_bytes: u64,
    wal_records: u64,
    generation: u64,
    options: DurableOptions,
    /// The active log is version 2 (checksummed records). Appending to a
    /// recovered v1 log keeps writing v1 records — a log file never mixes
    /// versions; rotation upgrades.
    wal_crc: bool,
    /// Inside a [`TripleStore::begin_batch`] group commit: journal writes
    /// are buffered and flushed once at `end_batch`.
    in_batch: bool,
    /// Records were journaled since the batch began (so `end_batch` knows
    /// whether a flush is owed).
    batch_dirty: bool,
    /// The auto-compaction threshold tripped inside an open batch; the
    /// compaction is owed at `end_batch` (rotating the log under a
    /// half-journaled batch would make an uncommitted prefix durable).
    compact_deferred: bool,
    /// Failed compaction attempts since open (auto or explicit). The log
    /// still holds every record after a failure, so writes keep flowing —
    /// but callers (and the background [`crate::policy::Compactor`]) can
    /// observe the count and back off instead of hot-looping a broken disk.
    compactions_failed: u64,
    /// Error text of the most recent failed compaction; cleared by the
    /// next successful one.
    last_compaction_error: Option<String>,
}

/// One replayable log record — also the unit the replication wire
/// protocol ships ([`crate::wire`]): a mutation frame's payload is a run
/// of these in the exact v2 log-line format, so a replica replays a frame
/// the same way crash recovery replays a WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Assert one statement (named-graph tag when the fourth term is set).
    Insert(Term, Term, Term, Option<Term>),
    /// Retract one statement.
    Remove(Term, Term, Term, Option<Term>),
    /// Drop the whole image.
    Clear,
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
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut snapshots = numbered_files(&dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)?;
        snapshots.sort_by_key(|&(gen, _)| std::cmp::Reverse(gen));
        let mut inner = IndexedStore::new();
        let mut base = None;
        for (gen, path) in &snapshots {
            match load_snapshot(path) {
                Ok(store) => {
                    inner = store;
                    base = Some(*gen);
                    break;
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
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "durable store at {} has no recoverable generation chain \
                     (no valid snapshot covers the surviving logs {run:?})",
                    dir.display()
                ),
            ));
        }
        let mut generation = base_gen;
        let mut wal_bytes = 0u64;
        let mut wal_records = 0u64;
        let mut wal_crc = false;
        for (gen, path) in &wals {
            if *gen < base_gen {
                continue;
            }
            let newest = *gen == wals.last().expect("non-empty").0;
            let (committed_bytes, records, v2) = replay_wal(&mut inner, path)?;
            let on_disk = fs::metadata(path)?.len();
            if newest {
                // Drop the torn tail so the append point is a committed
                // record boundary.
                if on_disk > committed_bytes {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(committed_bytes)?;
                    f.sync_all()?;
                }
                wal_bytes = committed_bytes;
                wal_records = records;
                wal_crc = v2;
            } else if on_disk > committed_bytes {
                // Only the *newest* log may legitimately end in a torn
                // record (a crash mid-append); an older log was rotated
                // after a flush, so a bad record mid-chain is in-place
                // corruption. Stopping there and still replaying later
                // generations would silently drop a slice of acknowledged
                // history — refuse instead.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "durable store at {}: corrupt record in non-newest log {} \
                         ({} of {} bytes replayable) — recovery would skip \
                         acknowledged history",
                        dir.display(),
                        path.display(),
                        committed_bytes,
                        on_disk,
                    ),
                ));
            }
            generation = generation.max(*gen);
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(wal_file(&dir, generation))?;
        let mut store = DurableStore {
            inner,
            dir,
            wal: BufWriter::new(wal),
            wal_bytes,
            wal_records,
            generation,
            options,
            wal_crc,
            in_batch: false,
            batch_dirty: false,
            compact_deferred: false,
            compactions_failed: 0,
            last_compaction_error: None,
        };
        if store.wal_bytes == 0 {
            // A fresh (or fully-truncated) log starts at version 2; a
            // recovered v1 log with committed records keeps appending v1
            // records so one file never mixes formats.
            store.init_wal_header()?;
        }
        Ok(store)
    }

    /// Start a fresh log at version 2: write and flush the header line.
    fn init_wal_header(&mut self) -> std::io::Result<()> {
        let line = format!("{WAL_V2_HEADER}\n");
        self.wal.write_all(line.as_bytes())?;
        self.wal.flush()?;
        self.wal_bytes = line.len() as u64;
        self.wal_crc = true;
        Ok(())
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

    /// Committed records in the current write-ahead log.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Failed compaction attempts since open (auto-compaction and explicit
    /// [`TripleStore::compact`] calls both count).
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

    /// Journal one record, honoring the configured sync policy — unless a
    /// group-commit batch is open, in which case the flush is deferred to
    /// [`TripleStore::end_batch`]. Fail-stop on I/O error: the mutation
    /// has not been applied yet, so panicking here never acknowledges a
    /// write the log lost.
    fn journal(&mut self, record: &Record) {
        let line = if self.wal_crc {
            render_record_v2(record)
        } else {
            render_record(record)
        };
        let res = self.wal.write_all(line.as_bytes()).and_then(|()| {
            if self.in_batch {
                self.batch_dirty = true;
                Ok(())
            } else {
                self.flush_wal()
            }
        });
        if let Err(e) = res {
            panic!(
                "durable store failed to journal to {:?}: {e}",
                self.wal_path()
            );
        }
        self.wal_bytes += line.len() as u64;
        self.wal_records += 1;
    }

    /// Flush buffered log records to the OS (plus fsync when configured).
    fn flush_wal(&mut self) -> std::io::Result<()> {
        self.wal.flush()?;
        if self.options.fsync_each_record {
            self.wal.get_ref().sync_data()?;
        }
        Ok(())
    }

    fn maybe_auto_compact(&mut self) {
        let Some(threshold) = self.options.auto_compact_records else {
            return;
        };
        if self.wal_records < threshold {
            return;
        }
        // Never rotate mid-batch: the snapshot would durably commit the
        // batch's journaled-so-far prefix while the rest is still buffered,
        // so a crash before `end_batch` resurrects half a group commit.
        // The compaction is owed at `end_batch` instead.
        if self.in_batch {
            self.compact_deferred = true;
            return;
        }
        // Best-effort: a failed compaction loses nothing (the log still
        // holds every record), so keep serving writes on the old log. The
        // failure is counted (`compactions_failed`) inside `compact`.
        if let Err(e) = self.compact() {
            eprintln!("durable store auto-compaction failed (will retry): {e}");
        }
    }

    fn term(&self, id: TermId) -> Term {
        self.inner.resolve(id).clone()
    }
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

/// Serialize a record body (no terminating newline, no checksum).
fn render_body(record: &Record) -> String {
    match record {
        Record::Insert(s, p, o, None) => format!("+ {s} {p} {o} ."),
        Record::Insert(s, p, o, Some(g)) => format!("+ {s} {p} {o} {g} ."),
        Record::Remove(s, p, o, None) => format!("- {s} {p} {o} ."),
        Record::Remove(s, p, o, Some(g)) => format!("- {s} {p} {o} {g} ."),
        Record::Clear => "* clear".to_string(),
    }
}

/// Serialize a record as one committed v1 log line.
fn render_record(record: &Record) -> String {
    format!("{}\n", render_body(record))
}

/// Serialize a record as one committed v2 log line: body plus a trailing
/// ` #<fnv64>` checksum over the body bytes.
pub(crate) fn render_record_v2(record: &Record) -> String {
    let body = render_body(record);
    let sum = fnv1a(body.as_bytes());
    format!("{body} #{sum:016x}\n")
}

/// Parse one committed v2 log line: split off the trailing checksum,
/// verify it over the body, then parse the body as a v1 record. `None`
/// marks a torn, malformed, or corrupted record.
pub(crate) fn parse_record_v2(line: &str) -> Option<Record> {
    let (body, sum) = line.rsplit_once(" #")?;
    if sum.len() != 16 {
        return None;
    }
    let stored = u64::from_str_radix(sum, 16).ok()?;
    if fnv1a(body.as_bytes()) != stored {
        return None;
    }
    parse_record(body)
}

/// Parse one committed log line; `None` marks an invalid record (replay
/// treats it, and everything after it, as the torn tail).
fn parse_record(line: &str) -> Option<Record> {
    if line == "* clear" {
        return Some(Record::Clear);
    }
    let (op, rest) = line.split_at_checked(2)?;
    let statements = parse_ntriples(rest).ok()?;
    let [(s, p, o, graph)] = statements.as_slice() else {
        return None;
    };
    match op {
        "+ " => Some(Record::Insert(
            s.clone(),
            p.clone(),
            o.clone(),
            graph.clone(),
        )),
        "- " => Some(Record::Remove(
            s.clone(),
            p.clone(),
            o.clone(),
            graph.clone(),
        )),
        _ => None,
    }
}

/// Apply one record to a store; returns whether it changed anything (set
/// semantics: a duplicate insert, an absent remove and a clear of an
/// empty store do not). The one place a [`Record`] becomes a mutation —
/// log replay runs it over the raw inner store (no journaling), the
/// endpoint's batch writes and the replication feed over the live backend.
pub(crate) fn apply_record<S: TripleStore + ?Sized>(store: &mut S, record: Record) -> bool {
    match record {
        Record::Insert(s, p, o, None) => store.insert(s, p, o),
        Record::Insert(s, p, o, Some(g)) => store.insert_in(g, s, p, o),
        Record::Remove(s, p, o, None) => store.remove(&s, &p, &o),
        Record::Remove(s, p, o, Some(g)) => {
            let ids = (store.term_id(&s), store.term_id(&p), store.term_id(&o));
            match (store.term_id(&g), ids) {
                (Some(g), (Some(s), Some(p), Some(o))) => store.remove_ids_in(g, (s, p, o)),
                _ => false,
            }
        }
        Record::Clear => {
            let held = !store.is_empty() || !store.graph_ids().is_empty();
            store.clear();
            held
        }
    }
}

/// Replay a log into `inner`. Returns `(committed_bytes, records, v2)` —
/// the byte length of the valid record prefix, how many records it holds,
/// and whether the log carries the version-2 header. A record only counts
/// as committed when its line is newline-terminated *and* parses (*and*,
/// in a v2 log, its checksum verifies); the first violation ends the
/// replay. The v2 header line counts toward the committed bytes but not
/// toward the record count.
fn replay_wal(inner: &mut IndexedStore, path: &Path) -> std::io::Result<(u64, u64, bool)> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0, false)),
        Err(e) => return Err(e),
    };
    let header = format!("{WAL_V2_HEADER}\n");
    let v2 = bytes.starts_with(header.as_bytes());
    let mut start = if v2 { header.len() } else { 0 };
    let mut committed = start as u64;
    let mut records = 0u64;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let end = start + nl;
        let Ok(line) = std::str::from_utf8(&bytes[start..end]) else {
            break;
        };
        let record = if v2 {
            parse_record_v2(line)
        } else {
            parse_record(line)
        };
        let Some(record) = record else {
            break;
        };
        apply_record(inner, record);
        start = end + 1;
        committed = start as u64;
        records += 1;
    }
    Ok((committed, records, v2))
}

// ------------------------------------------------------------ snapshot --

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_term(buf: &mut Vec<u8>, term: &Term) {
    let (tag, text): (u8, &str) = match term {
        Term::Iri(s) => (0, s),
        Term::Literal(l) => (1, &l.lexical),
        Term::Blank(b) => (2, b),
    };
    buf.push(tag);
    put_u32(buf, text.len() as u32);
    buf.extend_from_slice(text.as_bytes());
}

/// Serialize any store's current image in the [`DurableStore`] snapshot
/// format (magic, version, interner table, default-graph triples,
/// named-graph tags, trailing FNV-64 checksum). The image is first copied
/// into a fresh [`IndexedStore`] so term ids are dense regardless of the
/// source backend's interner state — the bytes are exactly what
/// [`TripleStore::compact`] would write for that image, and
/// [`store_from_snapshot`] round-trips them. This is the replication
/// subsystem's cold-start transfer payload.
pub fn snapshot_bytes(store: &dyn TripleStore) -> Vec<u8> {
    let mut image = IndexedStore::new();
    let copy = |image: &mut IndexedStore, s: TermId, p: TermId, o: TermId| {
        (
            image.intern(store.resolve(s).clone()),
            image.intern(store.resolve(p).clone()),
            image.intern(store.resolve(o).clone()),
        )
    };
    for (s, p, o) in store.scan(None, None, None) {
        let t = copy(&mut image, s, p, o);
        image.insert_ids(t);
    }
    for graph in store.graph_names() {
        let gid = image.intern(graph.clone());
        let g = store.term_id(&graph).expect("graph name is interned");
        for (s, p, o) in store.scan_in(g, None, None, None) {
            let t = copy(&mut image, s, p, o);
            image.insert_ids_in(gid, t);
        }
    }
    encode_snapshot(&image)
}

/// Serialize the whole store image: interner table, default-graph SPO
/// triples, named-graph tags, trailing checksum.
fn encode_snapshot(store: &IndexedStore) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION);
    let terms = store.interner_len();
    put_u64(&mut buf, terms as u64);
    for i in 0..terms {
        put_term(&mut buf, store.resolve(TermId(i as u32)));
    }
    let triples = store.scan(None, None, None);
    put_u64(&mut buf, triples.len() as u64);
    for (s, p, o) in triples {
        put_u32(&mut buf, s.0);
        put_u32(&mut buf, p.0);
        put_u32(&mut buf, o.0);
    }
    let graphs = store.graph_names();
    put_u64(&mut buf, graphs.len() as u64);
    for graph in graphs {
        let g = store.term_id(&graph).expect("graph name is interned");
        let tagged = store.scan_in(g, None, None, None);
        put_u32(&mut buf, g.0);
        put_u64(&mut buf, tagged.len() as u64);
        for (s, p, o) in tagged {
            put_u32(&mut buf, s.0);
            put_u32(&mut buf, p.0);
            put_u32(&mut buf, o.0);
        }
    }
    let checksum = fnv1a(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// A bounds-checked reader over a snapshot body.
struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(snapshot_err("truncated snapshot"));
        };
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn term(&mut self) -> std::io::Result<Term> {
        let tag = self.take(1)?[0];
        let len = self.u32()? as usize;
        let text = std::str::from_utf8(self.take(len)?)
            .map_err(|_| snapshot_err("non-UTF-8 term"))?
            .to_string();
        match tag {
            0 => Ok(Term::iri(text)),
            1 => Ok(Term::lit(text)),
            2 => Ok(Term::Blank(text)),
            _ => Err(snapshot_err("unknown term tag")),
        }
    }
}

fn snapshot_err(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Load and validate one snapshot file into a fresh indexed store.
fn load_snapshot(path: &Path) -> std::io::Result<IndexedStore> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    store_from_snapshot(&bytes)
}

/// Decode and validate snapshot bytes ([`snapshot_bytes`] or a
/// `snapshot-*.galo` file's contents) into a fresh indexed store. Any
/// truncation or corruption — bad magic, failed checksum, dangling term
/// reference, trailing garbage — is an `InvalidData` error, never a
/// partial image: a replica that receives a torn snapshot transfer
/// rejects it wholesale and re-pulls.
pub fn store_from_snapshot(bytes: &[u8]) -> std::io::Result<IndexedStore> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 || !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(snapshot_err("bad magic"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(snapshot_err("checksum mismatch"));
    }
    let mut r = SnapReader {
        bytes: body,
        pos: SNAPSHOT_MAGIC.len(),
    };
    if r.u32()? != SNAPSHOT_VERSION {
        return Err(snapshot_err("unsupported snapshot version"));
    }
    let mut store = IndexedStore::new();
    let terms = r.u64()?;
    for i in 0..terms {
        let term = r.term()?;
        // Interning in file order reproduces the snapshotted ids.
        let id = store.intern(term);
        if id.0 as u64 != i {
            return Err(snapshot_err("duplicate term in snapshot"));
        }
    }
    let check_id = |id: u32| -> std::io::Result<TermId> {
        if (id as u64) < terms {
            Ok(TermId(id))
        } else {
            Err(snapshot_err("triple references unknown term"))
        }
    };
    let triples = r.u64()?;
    for _ in 0..triples {
        let t = (
            check_id(r.u32()?)?,
            check_id(r.u32()?)?,
            check_id(r.u32()?)?,
        );
        store.insert_ids(t);
    }
    let graphs = r.u64()?;
    for _ in 0..graphs {
        let g = check_id(r.u32()?)?;
        let tagged = r.u64()?;
        for _ in 0..tagged {
            let t = (
                check_id(r.u32()?)?,
                check_id(r.u32()?)?,
                check_id(r.u32()?)?,
            );
            store.insert_ids_in(g, t);
        }
    }
    if r.pos != body.len() {
        return Err(snapshot_err("trailing bytes after snapshot body"));
    }
    Ok(store)
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
        if self.inner.count(Some(t.0), Some(t.1), Some(t.2)) == 1 {
            return false; // no state change: nothing to journal
        }
        let record = Record::Insert(self.term(t.0), self.term(t.1), self.term(t.2), None);
        self.journal(&record);
        let added = self.inner.insert_ids(t);
        self.maybe_auto_compact();
        added
    }

    fn remove_ids(&mut self, t: Triple) -> bool {
        if self.inner.count(Some(t.0), Some(t.1), Some(t.2)) == 0 {
            return false;
        }
        let record = Record::Remove(self.term(t.0), self.term(t.1), self.term(t.2), None);
        self.journal(&record);
        let removed = self.inner.remove_ids(t);
        self.maybe_auto_compact();
        removed
    }

    fn clear(&mut self) {
        if self.inner.is_empty() && self.inner.graph_names().is_empty() {
            return;
        }
        self.journal(&Record::Clear);
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

    fn graph_names(&self) -> Vec<Term> {
        self.inner.graph_names()
    }

    fn insert_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        if !self
            .inner
            .scan_in(graph, Some(t.0), Some(t.1), Some(t.2))
            .is_empty()
        {
            return false;
        }
        let record = Record::Insert(
            self.term(t.0),
            self.term(t.1),
            self.term(t.2),
            Some(self.term(graph)),
        );
        self.journal(&record);
        let added = self.inner.insert_ids_in(graph, t);
        self.maybe_auto_compact();
        added
    }

    fn remove_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        if self
            .inner
            .scan_in(graph, Some(t.0), Some(t.1), Some(t.2))
            .is_empty()
        {
            return false;
        }
        let record = Record::Remove(
            self.term(t.0),
            self.term(t.1),
            self.term(t.2),
            Some(self.term(graph)),
        );
        self.journal(&record);
        let removed = self.inner.remove_ids_in(graph, t);
        self.maybe_auto_compact();
        removed
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

    /// Open a group-commit batch: subsequent records are buffered and
    /// flushed once at [`end_batch`](TripleStore::end_batch). Not
    /// reentrant — one bracket per write transaction.
    fn begin_batch(&mut self) {
        self.in_batch = true;
    }

    /// Close the group-commit batch, flushing every record journaled
    /// inside it in one go. Fail-stop on flush error: the batch's
    /// mutations were already applied, so a store that cannot commit
    /// them must not keep serving.
    fn end_batch(&mut self) {
        self.in_batch = false;
        let deferred = std::mem::take(&mut self.compact_deferred);
        if self.batch_dirty {
            self.batch_dirty = false;
            if let Err(e) = self.flush_wal() {
                panic!(
                    "durable store failed to commit batch to {:?}: {e}",
                    self.wal_path()
                );
            }
        }
        if deferred {
            // The threshold tripped mid-batch; now that the batch is
            // committed the rotation is safe. Re-checks the threshold, so
            // an explicit compact inside the bracket leaves nothing owed.
            self.maybe_auto_compact();
        }
    }

    fn storage_pressure(&self) -> Option<StoragePressure> {
        Some(StoragePressure {
            wal_records: self.wal_records,
            wal_bytes: self.wal_bytes,
            compactions_failed: self.compactions_failed,
            last_compaction_error: self.last_compaction_error.clone(),
        })
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
    /// Failures are counted (`compactions_failed`) and the error text kept
    /// (`last_compaction_error`) so policy threads can observe and back
    /// off; a success clears the stored error.
    fn compact(&mut self) -> std::io::Result<()> {
        match self.compact_inner() {
            Ok(()) => {
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
        // A group-commit batch may be open: push its buffered records to
        // the OS before rotating, or the old log could fall short of the
        // snapshot the fallback chain pairs it with.
        self.flush_wal()?;
        let next = self.generation + 1;
        let bytes = encode_snapshot(&self.inner);
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(wal_file(&self.dir, next))?;
        let mut new_wal = BufWriter::new(wal);
        let header = format!("{WAL_V2_HEADER}\n");
        new_wal.write_all(header.as_bytes())?;
        new_wal.flush()?;
        let tmp = self.dir.join(format!(".snapshot-{next:010}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, snapshot_file(&self.dir, next))?;
        self.wal = new_wal;
        self.wal_bytes = header.len() as u64;
        self.wal_records = 0;
        self.wal_crc = true;
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
        assert!(st.insert(iri(1), p("a"), Term::lit("1")));
        assert!(!st.insert(iri(1), p("a"), Term::lit("1")));
        assert!(!st.remove(&iri(2), &p("a"), &Term::lit("1")));
        st.clear();
        st.clear(); // second clear on empty store: no record
        assert_eq!(st.wal_records(), 2); // first insert + first clear
        assert!(st.wal_bytes() > 0);
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
        let wal1 = wal_file(dir.path(), 1);
        let text = fs::read_to_string(&wal1)
            .unwrap()
            .replacen("2222", "2922", 1);
        fs::write(&wal1, text).unwrap();
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
        bytes.extend_from_slice(b"<oops this is not a record\n");
        bytes.extend_from_slice(
            render_record(&Record::Insert(iri(3), p("a"), Term::lit("3"), None)).as_bytes(),
        );
        fs::write(&wal_path, &bytes).unwrap();
        // Replay stops at the garbage record; the (valid-looking) record
        // after it is part of the dropped tail — a torn write must never
        // resurrect later bytes.
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn snapshot_roundtrips_interner_and_graphs() {
        let mut st = IndexedStore::new();
        st.insert(iri(1), p("a"), Term::lit("x"));
        st.insert(iri(2), p("b"), iri(1));
        st.insert_in(Term::iri("http://g/1"), iri(1), p("t"), Term::lit("y"));
        // Interned-but-unused terms survive snapshots (though not WAL
        // replay) because the full interner table is serialized.
        st.intern(Term::lit("unused"));
        let bytes = encode_snapshot(&st);
        let dir = ScratchDir::new("persist-snap");
        let path = dir.path().join("snap.galo");
        fs::write(&path, &bytes).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.term_id(&Term::lit("unused")).is_some());
        assert_eq!(back.graph_names(), vec![Term::iri("http://g/1")]);
        // Term ids are reproduced exactly.
        assert_eq!(back.term_id(&iri(1)), st.term_id(&iri(1)));
        // A flipped byte fails validation.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(load_snapshot(&path).is_err());
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

    #[test]
    fn fresh_logs_are_v2_with_per_record_checksums() {
        let dir = ScratchDir::new("persist-v2");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1"));
            st.insert(iri(2), p("a"), Term::lit("2"));
            wal_path = st.wal_path();
        }
        let text = fs::read_to_string(&wal_path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(WAL_V2_HEADER));
        for line in lines {
            let (_, sum) = line.rsplit_once(" #").expect("checksummed record");
            assert_eq!(sum.len(), 16, "{line}");
        }
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn checksum_rejects_in_place_corruption() {
        // Flip one digit inside a committed record: the line still parses
        // as a record, so v1 replay would resurrect a WRONG triple; the
        // v2 checksum rejects it (and everything after it).
        let dir = ScratchDir::new("persist-crc");
        let wal_path;
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            st.insert(iri(1), p("a"), Term::lit("1111"));
            st.insert(iri(2), p("a"), Term::lit("2222"));
            wal_path = st.wal_path();
        }
        let text = fs::read_to_string(&wal_path).unwrap();
        let corrupted = text.replacen("1111", "1911", 1);
        assert_ne!(text, corrupted, "test must actually corrupt a record");
        fs::write(&wal_path, corrupted).unwrap();
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 0, "corrupted record and its tail are dropped");
        assert!(!st.contains(&iri(1), &p("a"), &Term::lit("1911")));
    }

    #[test]
    fn legacy_v1_logs_replay_and_keep_their_format() {
        // A log without the v2 header (written by an older build) must
        // replay under v1 rules, and appends must stay v1 so the file
        // never mixes formats.
        let dir = ScratchDir::new("persist-v1-compat");
        let wal_path = wal_file(dir.path(), 0);
        let mut legacy = String::new();
        legacy.push_str(&render_record(&Record::Insert(
            iri(1),
            p("a"),
            Term::lit("1"),
            None,
        )));
        legacy.push_str(&render_record(&Record::Insert(
            iri(2),
            p("a"),
            Term::lit("2"),
            Some(Term::iri("http://g/w")),
        )));
        fs::write(&wal_path, &legacy).unwrap();
        {
            let mut st = DurableStore::open(dir.path()).unwrap();
            assert_eq!(st.len(), 1);
            assert_eq!(st.graph_names().len(), 1);
            st.insert(iri(3), p("a"), Term::lit("3"));
        }
        let text = fs::read_to_string(&wal_path).unwrap();
        assert!(
            text.lines().all(|l| l.rsplit_once(" #").is_none()),
            "v1 log must not grow checksummed records: {text}"
        );
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 2);
        // Compaction rotates onto a fresh v2 log.
        let mut st = st;
        st.compact().unwrap();
        st.insert(iri(4), p("a"), Term::lit("4"));
        let rotated = fs::read_to_string(st.wal_path()).unwrap();
        assert!(rotated.starts_with(WAL_V2_HEADER));
        drop(st);
        assert_eq!(DurableStore::open(dir.path()).unwrap().len(), 3);
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
            // Buffered: nothing past the header is on disk yet (the
            // records are far below BufWriter's spill threshold).
            assert_eq!(
                fs::metadata(&wal_path).unwrap().len(),
                (WAL_V2_HEADER.len() + 1) as u64
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

    /// Regression: the auto-compaction threshold tripping *inside* an open
    /// group-commit bracket must not rotate the log mid-batch. The old
    /// inline check compacted immediately, snapshotting the batch's
    /// journaled-so-far prefix — so a kill before `end_batch` resurrected
    /// half an uncommitted batch on reopen. (This test fails on that code
    /// path: the mid-batch generation stays 0, and after the kill only the
    /// pre-batch records exist.)
    #[test]
    fn mid_batch_auto_compaction_defers_and_keeps_batches_atomic() {
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
        // Kill before end_batch: leak the store so the buffered batch
        // records are dropped exactly as a crash would drop them (the
        // pre-batch records were already flushed per record).
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

    #[test]
    fn deferred_auto_compaction_runs_at_end_batch() {
        let dir = ScratchDir::new("persist-deferred");
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
        assert_eq!(st.generation(), 0, "deferred while the batch is open");
        st.end_batch();
        assert_eq!(st.generation(), 1, "the owed compaction ran at end_batch");
        assert_eq!(st.wal_records(), 0);
        drop(st);
        let st = DurableStore::open(dir.path()).unwrap();
        assert_eq!(st.len(), 8, "the whole batch survives the fold");
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
        assert!(
            st.compactions_failed() >= 1,
            "the failed auto-compactions were counted, not just printed"
        );
        assert_eq!(st.generation(), 0);
        assert_eq!(st.len(), 6, "writes kept flowing past the failures");
        fs::remove_dir(&blocker).unwrap();
        st.insert(iri(100), p("a"), Term::lit("x"));
        assert_eq!(st.generation(), 1, "healed disk: the next attempt folds");
        assert_eq!(st.last_compaction_error(), None);
        drop(st);
        assert_eq!(DurableStore::open(dir.path()).unwrap().len(), 7);
    }
}
