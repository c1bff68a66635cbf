//! Sharded triple storage: [`ShardedStore`], N inner stores with
//! per-shard locks, read and written through all-shard sessions — the
//! one store behind the endpoint, of one shard unless asked for more.
//!
//! The knowledge base is a shared service: every optimized query probes
//! it online while off-peak learning runs append to it.
//! [`ShardedStore`] partitions the default graph across N inner stores —
//! each behind its own lock and, when durable, its own WAL+snapshot
//! directory — so one template's write is one record of one shard's log, a
//! background fold holds one shard's lock at a time, and a durable store
//! recovers and compacts shard directory by shard directory.
//!
//! # Architecture
//!
//! * **Placement** is a pluggable [`ShardRouter`] policy, consulted once
//!   per mutation. The default [`TemplateRouter`] keys template-shaped
//!   subjects (`<ns><template-id>` and `<ns><template-id>/pop/<k>`) by
//!   their template id, so a whole problem-pattern template — operator
//!   nodes, stream edges, guideline, workload tag — lives on one shard;
//!   anything else falls back to a subject hash. Placement is a
//!   *performance* policy only: reads never trust it.
//! * **Reads fan out.** `scan`/`count`/`scan_in`/`graph_names` visit
//!   every shard in index order and merge, so result order is
//!   deterministic for a given content. A keyed probe costs each shard
//!   one range lookup in its own indexes, which a shard that holds none
//!   of the pattern's terms answers empty.
//! * **Terms are interned once.** The sharded store owns the one
//!   [`Interner`] issuing the [`TermId`]s every caller sees, and every
//!   shard's store interns through it: shards index by those ids, and
//!   nothing translates between id spaces. A durable shard still
//!   journals and snapshots *terms*, resolved through the interner. On
//!   durable reopen the shards recover one after another, in shard order,
//!   interning what they replay into a fresh interner — so a reopened
//!   store's ids, and with them its scan order and snapshot bytes, do not
//!   depend on thread timing.
//! * **One shard costs what one store costs.** With one shard the router
//!   is not asked (the answer is always 0), a session holds its one lock
//!   guard inline, and a read returns the shard's own result `Vec`.
//! * **Sessions are the only way in.** [`ShardedStore::read_session`] /
//!   [`write_session`](ShardedStore::write_session) take every per-shard
//!   lock in index order, then the interner's (shared or exclusively),
//!   and *are* the [`TripleStore`]: the SPARQL
//!   evaluator and the matching engine run against a stable view, and a
//!   write routes each mutation to its shard under the locks the session
//!   already holds. A write holds all of them, not just the shards it
//!   routes to: the endpoint serializes writers anyway (its mutation
//!   epoch), so narrower locking would buy no concurrency. Only
//!   maintenance (the [`CompactionTarget`] calls, the stats readers)
//!   takes a single shard's lock, and it never looks a term up.
//!
//! # On-disk layout (durable sharding)
//!
//! ```text
//! kb.galo/
//!   sharded.meta     shard count + router name (validated on reopen)
//!   shard-0000/      one DurableStore directory per shard
//!     snapshot-…
//!     wal-…
//!   shard-0001/
//!   …
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::fnv::{fnv1a, fnv1a_with};
use crate::persist::{DurableOptions, DurableStore, SNAPSHOT_PREFIX, WAL_PREFIX};
use crate::policy::CompactionTarget;
use crate::store::{IndexedStore, StoragePressure, Triple, TripleStore};
use crate::term::{Held, Interner, Term, TermId};

/// FNV-1a 64 over a term's tag and text: the router's placement of a
/// subject outside the template namespace. Placement is persisted with
/// every durable store, so this hash is fixed for good.
fn term_hash(term: &Term) -> u64 {
    let (tag, text): (u8, &str) = match term {
        Term::Iri(s) => (0, s),
        Term::Literal(l) => (1, &l.lexical),
        Term::Blank(b) => (2, b),
    };
    fnv1a_with(fnv1a(&[tag]), text.as_bytes())
}

// --------------------------------------------------------------- router --

/// Placement policy: which shard a triple is written to.
///
/// Routing must be **deterministic and stable across process runs** — a
/// durable sharded store persists its placement, and removes are routed
/// the same way inserts were. It is consulted with the triple's resolved
/// terms; named-graph tags route by the same rule (their subject). Reads
/// never depend on the router (they fan out), so a router only shapes
/// locality and write balance, never visibility.
pub trait ShardRouter: fmt::Debug + Send + Sync {
    /// Stable identifier recorded in `sharded.meta` and validated on
    /// durable reopen, so a store is never silently opened under a
    /// different placement policy.
    fn name(&self) -> String;

    /// Shard index in `0..shards` for a triple.
    fn route(&self, shards: usize, s: &Term, p: &Term, o: &Term) -> usize;
}

/// The default router: template-affine placement.
///
/// Subjects under the knowledge base's template namespace —
/// `<ns><template-id>` and `<ns><template-id>/pop/<k>` — are keyed by the
/// template id alone, so every triple of one learned template (operator
/// properties, stream edges, guideline document, workload tag) lands on
/// the same shard and a matching probe's keyed lookups come back empty
/// from every other shard. Everything else hashes the whole subject.
#[derive(Debug, Clone)]
pub struct TemplateRouter {
    /// IRI prefix of template resources (the GALO KB default).
    pub template_ns: String,
}

impl Default for TemplateRouter {
    fn default() -> Self {
        TemplateRouter {
            template_ns: "http://galo/kb/template/".to_string(),
        }
    }
}

impl ShardRouter for TemplateRouter {
    fn name(&self) -> String {
        format!("template:{}", self.template_ns)
    }

    fn route(&self, shards: usize, s: &Term, _p: &Term, _o: &Term) -> usize {
        if let Some(rest) = s
            .as_iri()
            .and_then(|iri| iri.strip_prefix(&self.template_ns))
        {
            let id = rest.split('/').next().unwrap_or(rest);
            return (fnv1a(id.as_bytes()) % shards as u64) as usize;
        }
        (term_hash(s) % shards as u64) as usize
    }
}

/// One shard: its inner store, interning through the sharded store's
/// interner.
type Shard = Box<dyn TripleStore + Send>;

// -------------------------------------------------------------- the store --

/// Per-shard size summary (see [`ShardedStore::shard_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Default-graph triples stored on the shard.
    pub triples: usize,
    /// Non-empty named graphs with tags on the shard.
    pub graphs: usize,
    /// Named-graph tag triples stored on the shard, over all graphs —
    /// with per-workload datasets this is how many dataset memberships
    /// (e.g. learned templates) the shard holds.
    pub graph_triples: usize,
    /// Commits (records) in the shard's current write-ahead log (0 when
    /// the shard is not durable).
    pub wal_records: u64,
    /// Bytes in the shard's current write-ahead log (0 when not durable).
    pub wal_bytes: u64,
    /// Failed compaction attempts on the shard since open.
    pub compactions_failed: u64,
}

const META_FILE: &str = "sharded.meta";
const META_MAGIC: &str = "galo-sharded v1";

/// A sharded triple store: N inner stores behind per-shard locks — and,
/// with one shard, the knowledge base's unsharded store.
///
/// Not itself a [`TripleStore`]: every read goes through a
/// [`read_session`] and every write through a [`write_session`], each
/// holding all shard locks for its lifetime (`FusekiLite` opens one per
/// `with_store` / `with_store_mut`). What the store offers directly is
/// maintenance that needs one shard at a time — the
/// [`CompactionTarget`] calls and [`shard_stats`].
///
/// [`read_session`]: Self::read_session
/// [`write_session`]: Self::write_session
/// [`shard_stats`]: Self::shard_stats
pub struct ShardedStore {
    interner: Arc<Interner>,
    router: Box<dyn ShardRouter>,
    shards: Vec<RwLock<Shard>>,
}

impl fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("router", &self.router)
            .field("interner", &self.interner)
            .finish()
    }
}

impl ShardedStore {
    /// An in-memory sharded store over `shards` [`IndexedStore`]s with
    /// the default [`TemplateRouter`].
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        let interner = Arc::new(Interner::new());
        let shards = (0..shards)
            .map(|_| {
                let store = IndexedStore::with_interner(Arc::clone(&interner));
                RwLock::new(Box::new(store) as Shard)
            })
            .collect();
        ShardedStore {
            interner,
            router: Box::<TemplateRouter>::default(),
            shards,
        }
    }

    /// Open (or create) a durable sharded store: one
    /// [`DurableStore`] WAL+snapshot directory per shard under `dir`,
    /// recovered in shard order, with the default router and options.
    pub fn open_durable(dir: impl AsRef<Path>, shards: usize) -> io::Result<Self> {
        Self::open_durable_with(
            dir,
            shards,
            DurableOptions::default(),
            Box::<TemplateRouter>::default(),
        )
    }

    /// [`open_durable`](Self::open_durable) with explicit per-shard
    /// [`DurableOptions`] and router. The shard count and router name are
    /// persisted in `sharded.meta` on first open and validated on every
    /// later one: reopening under a different partitioning would strand
    /// triples on shards their router no longer routes to, so a mismatch
    /// is a loud error, never silent misplacement. A directory without
    /// `sharded.meta` but with a log or a snapshot at its root holds one
    /// [`DurableStore`] of its own, the layout of earlier builds: it is
    /// refused with an `InvalidData` error, and nothing is written.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        shards: usize,
        options: DurableOptions,
        router: Box<dyn ShardRouter>,
    ) -> io::Result<Self> {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let meta_path = dir.join(META_FILE);
        match fs::read_to_string(&meta_path) {
            Ok(meta) => validate_meta(&meta, shards, router.as_ref(), dir)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                refuse_unsharded_layout(dir)?;
                // Same write discipline as snapshots (temp + fsync +
                // atomic rename): a crash mid-write must not leave a
                // truncated meta file that bricks an otherwise fully
                // recoverable store.
                let tmp = dir.join(".sharded.meta.tmp");
                {
                    use std::io::Write;
                    let mut f = fs::File::create(&tmp)?;
                    f.write_all(
                        format!("{META_MAGIC}\nshards {shards}\nrouter {}\n", router.name())
                            .as_bytes(),
                    )?;
                    f.sync_all()?;
                }
                fs::rename(&tmp, &meta_path)?;
            }
            Err(e) => return Err(e),
        }
        // Recover the shards one after another, in shard order: each
        // interns what it replays into the one interner, so the order of
        // recovery is the order ids are issued in.
        let interner = Arc::new(Interner::new());
        let shards = (0..shards)
            .map(|k| {
                let shard_dir = dir.join(format!("shard-{k:04}"));
                let store =
                    DurableStore::open_in(shard_dir, options.clone(), Arc::clone(&interner))?;
                Ok(RwLock::new(Box::new(store) as Shard))
            })
            .collect::<io::Result<_>>()?;
        Ok(ShardedStore {
            interner,
            router,
            shards,
        })
    }

    /// Per-shard triple and named-graph counts (placement diagnostics).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, lock)| {
                let store = lock.read();
                let graph_ids = store.graph_ids();
                let pressure = store.storage_pressure().unwrap_or_default();
                ShardStats {
                    shard,
                    triples: store.len(),
                    graphs: graph_ids.len(),
                    graph_triples: graph_ids
                        .iter()
                        .map(|&g| store.scan_in(g, None, None, None).len())
                        .sum(),
                    wal_records: pressure.wal_records,
                    wal_bytes: pressure.wal_bytes,
                    compactions_failed: pressure.compactions_failed,
                }
            })
            .collect()
    }

    /// The shard a triple is written to: the placement policy's answer,
    /// which with one shard is always 0 and not asked for.
    fn route(&self, t: Triple) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        self.router.route(
            self.shards.len(),
            self.interner.resolve(t.0),
            self.interner.resolve(t.1),
            self.interner.resolve(t.2),
        )
    }

    /// Take read locks on every shard, in index order: one consistent
    /// [`TripleStore`] view of the whole store. Concurrent read sessions
    /// coexist; writers wait.
    pub fn read_session(&self) -> Session<'_> {
        let shards = self.lock(|shard| ShardGuard::Read(shard.read()));
        Session {
            owner: self,
            shards,
            terms: self.interner.shared(),
        }
    }

    /// Take write locks on every shard, in index order: a whole-store
    /// transaction. Each mutation routes to its shard through the
    /// [`ShardRouter`]; `begin_batch` / `end_batch` bracket every shard:
    /// a durable shard journals what the batch wrote to it as one record,
    /// and one the batch never wrote journals nothing.
    pub fn write_session(&self) -> Session<'_> {
        let shards = self.lock(|shard| ShardGuard::Write(shard.write()));
        Session {
            owner: self,
            shards,
            terms: self.interner.exclusive(),
        }
    }

    /// Lock every shard with `lock`, in index order.
    fn lock<'a>(&'a self, lock: impl Fn(&'a RwLock<Shard>) -> ShardGuard<'a>) -> Guards<'a> {
        match &self.shards[..] {
            [only] => Guards::One(lock(only)),
            shards => Guards::Many(shards.iter().map(lock).collect()),
        }
    }

    /// Checkpoint every shard, fanned out across threads (each shard's
    /// snapshot write + log rotation is independent I/O). First error
    /// wins; other shards still finish their compaction.
    pub fn compact_all(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.write().compact()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard compaction must not panic"))
                .collect::<io::Result<Vec<()>>>()
        })?;
        Ok(())
    }
}

/// What the background [`Compactor`](crate::policy::Compactor) watches
/// and folds, one shard at a time.
impl CompactionTarget for ShardedStore {
    /// Per-shard write-ahead-log pressure, cheap enough for a policy
    /// thread to poll: one read lock and a couple of counter loads per
    /// shard, no scans (unlike [`shard_stats`](Self::shard_stats)).
    /// In-memory shards report [`StoragePressure::default`] (all zeros).
    fn storage_pressures(&self) -> Vec<StoragePressure> {
        self.shards
            .iter()
            .map(|lock| lock.read().storage_pressure().unwrap_or_default())
            .collect()
    }

    /// Compact a single shard, holding only that shard's write lock — a
    /// session (which needs every shard) waits out one shard's rotation
    /// at most, never a whole-store one (unlike
    /// [`compact_all`](Self::compact_all)'s fan-out).
    fn compact_shard(&self, shard: usize) -> io::Result<()> {
        let lock = self.shards.get(shard).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {shard} out of range ({} shards)", self.shards.len()),
            )
        })?;
        lock.write().compact()
    }
}

/// Refuse a directory that holds no `sharded.meta` but a log or a
/// snapshot at its root: one [`DurableStore`] of its own, the layout of
/// earlier builds. Opening it as a sharded store would start empty
/// beside the triples it holds.
fn refuse_unsharded_layout(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(WAL_PREFIX) || name.starts_with(SNAPSHOT_PREFIX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "durable store at {}: a single-store layout ({name} at its root, \
                     no {META_FILE}); only the sharded layout ({META_FILE} plus \
                     shard-NNNN/ directories) opens",
                    dir.display()
                ),
            ));
        }
    }
    Ok(())
}

/// Validate a `sharded.meta` file against the requested configuration.
fn validate_meta(
    meta: &str,
    shards: usize,
    router: &dyn ShardRouter,
    dir: &Path,
) -> io::Result<()> {
    let err = |detail: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("sharded store at {}: {detail}", dir.display()),
        )
    };
    let mut lines = meta.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(err("unrecognized meta header".to_string()));
    }
    let mut stored_shards = None;
    let mut stored_router = None;
    for line in lines {
        if let Some(n) = line.strip_prefix("shards ") {
            stored_shards = n.trim().parse::<usize>().ok();
        } else if let Some(r) = line.strip_prefix("router ") {
            stored_router = Some(r.trim().to_string());
        }
    }
    let stored = stored_shards.ok_or_else(|| err("meta file lacks a shard count".into()))?;
    if stored != shards {
        return Err(err(format!(
            "created with {stored} shard(s) but opened with {shards} — \
             placement would silently miss existing triples"
        )));
    }
    let stored_router = stored_router.ok_or_else(|| err("meta file lacks a router name".into()))?;
    if stored_router != router.name() {
        return Err(err(format!(
            "created with router '{stored_router}' but opened with '{}'",
            router.name()
        )));
    }
    Ok(())
}

// -------------------------------------------------------------- sessions --

/// One shard's lock, held for a session's lifetime: shared in a read
/// session, exclusive in a write session.
enum ShardGuard<'a> {
    Read(RwLockReadGuard<'a, Shard>),
    Write(RwLockWriteGuard<'a, Shard>),
}

impl Deref for ShardGuard<'_> {
    type Target = Shard;

    fn deref(&self) -> &Shard {
        match self {
            ShardGuard::Read(guard) => guard,
            ShardGuard::Write(guard) => guard,
        }
    }
}

impl ShardGuard<'_> {
    /// The shard, to mutate. A read session's mutations panic: callers
    /// only ever see a read session behind `&dyn TripleStore`, so they
    /// are unreachable from the public API.
    fn writable(&mut self) -> &mut Shard {
        match self {
            ShardGuard::Write(guard) => guard,
            ShardGuard::Read(_) => panic!("a read session is read-only"),
        }
    }
}

/// The guards a session holds, one per shard in index order: the
/// one-shard store's inline, so opening its session allocates nothing.
enum Guards<'a> {
    One(ShardGuard<'a>),
    Many(Vec<ShardGuard<'a>>),
}

impl<'a> Guards<'a> {
    fn all(&self) -> &[ShardGuard<'a>] {
        match self {
            Guards::One(guard) => std::slice::from_ref(guard),
            Guards::Many(guards) => guards,
        }
    }

    fn all_mut(&mut self) -> &mut [ShardGuard<'a>] {
        match self {
            Guards::One(guard) => std::slice::from_mut(guard),
            Guards::Many(guards) => guards,
        }
    }
}

/// An all-shard transaction: every shard's lock, taken in index order
/// ([`ShardedStore::read_session`], [`ShardedStore::write_session`]), and
/// a stable, consistent [`TripleStore`] over the whole store for as long
/// as it lives — the matching engine evaluates a whole plan's probes
/// under one read session. A write session is exclusive, so a batch (or
/// an `import`/`update`-style rewrite) appears atomic to readers; its
/// mutations route through the owner's [`ShardRouter`] to the shard
/// whose lock it already holds. A read session's mutations panic, and
/// so does interning in it. Beside the shards' locks a session holds the
/// interner's, shared or exclusively, so its lookups and interns take no
/// lock of their own.
///
/// Reads fan out over the shards in index order. Each shard's results
/// are deterministic, so the merged order is deterministic for a given
/// store content — no re-sort on the probe hot path — and one shard's
/// result `Vec` is the answer as it stands.
pub struct Session<'a> {
    owner: &'a ShardedStore,
    shards: Guards<'a>,
    terms: Held<'a>,
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Session({} shards)", self.shards.all().len())
    }
}

impl Session<'_> {
    /// Every shard's answer, in shard order, appended to the first's.
    fn concat<T>(&self, ask: impl Fn(&Shard) -> Vec<T>) -> Vec<T> {
        let mut parts = self.shards.all().iter().map(|shard| ask(shard));
        let mut out = parts.next().unwrap_or_default();
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// The shard a triple routes to, to mutate.
    fn routed(&mut self, t: Triple) -> &mut Shard {
        let k = self.owner.route(t);
        self.shards.all_mut()[k].writable()
    }
}

impl TripleStore for Session<'_> {
    fn intern(&mut self, term: Term) -> TermId {
        self.terms.intern(term)
    }

    fn term_id(&self, term: &Term) -> Option<TermId> {
        self.terms.get(term)
    }

    fn resolve(&self, id: TermId) -> &Term {
        self.owner.interner.resolve(id)
    }

    fn insert_ids(&mut self, t: Triple) -> bool {
        self.routed(t).insert_ids(t)
    }

    fn remove_ids(&mut self, t: Triple) -> bool {
        self.routed(t).remove_ids(t)
    }

    fn clear(&mut self) {
        for shard in self.shards.all_mut() {
            shard.writable().clear();
        }
    }

    fn len(&self) -> usize {
        self.shards.all().iter().map(|shard| shard.len()).sum()
    }

    fn scan(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        self.concat(|shard| shard.scan(s, p, o))
    }

    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        let shards = self.shards.all().iter();
        shards.map(|shard| shard.count(s, p, o)).sum()
    }

    /// By name: a graph with tags on several shards once, and the order
    /// independent of interning history.
    fn graph_ids(&self) -> Vec<TermId> {
        let mut ids = self.concat(|shard| shard.graph_ids());
        ids.sort_unstable_by_key(|&g| self.owner.interner.resolve(g));
        ids.dedup();
        ids
    }

    fn insert_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        self.routed(t).insert_ids_in(graph, t)
    }

    fn remove_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        self.routed(t).remove_ids_in(graph, t)
    }

    fn scan_in(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        self.concat(|shard| shard.scan_in(graph, s, p, o))
    }

    fn compact(&mut self) -> io::Result<()> {
        let mut shards = self.shards.all_mut().iter_mut();
        shards.try_for_each(|shard| shard.writable().compact())
    }

    fn begin_batch(&mut self) {
        for shard in self.shards.all_mut() {
            shard.writable().begin_batch();
        }
    }

    fn end_batch(&mut self) {
        for shard in self.shards.all_mut() {
            shard.writable().end_batch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{snapshot_bytes, ScratchDir};
    use crate::store::ScanStore;
    use std::collections::BTreeSet;

    fn tpl_iri(id: u32) -> Term {
        Term::iri(format!("http://galo/kb/template/{id:016x}"))
    }

    fn pop_iri(id: u32, op: u32) -> Term {
        Term::iri(format!("http://galo/kb/template/{id:016x}/pop/{op}"))
    }

    fn prop(name: &str) -> Term {
        Term::iri(format!("http://galo/qep/property/{name}"))
    }

    /// ~6 template-shaped triples plus one workload tag.
    fn template_triples(id: u32) -> Vec<(Term, Term, Term)> {
        let tnode = tpl_iri(id);
        let mut out = vec![(tnode.clone(), prop("hasJoinCount"), Term::num(1.0))];
        for op in 0..2u32 {
            let me = pop_iri(id, op);
            out.push((me.clone(), prop("inTemplate"), tnode.clone()));
            out.push((me.clone(), prop("hasPopType"), Term::lit("NLJOIN")));
            out.push((me, prop("hasLowerCardinality"), Term::num(op as f64)));
        }
        out
    }

    /// One template's batch the way the endpoint writes it: a write
    /// session, one group-commit bracket, default-graph triples plus —
    /// with `graph` — the template's workload tag.
    fn insert_template(store: &ShardedStore, id: u32, graph: Option<&Term>) {
        let mut session = store.write_session();
        session.begin_batch();
        for (s, p, o) in template_triples(id) {
            session.insert(s, p, o);
        }
        if let Some(g) = graph {
            session.insert_in(
                g.clone(),
                tpl_iri(id),
                prop("hasProblemFingerprint"),
                Term::lit("fp"),
            );
        }
        session.end_batch();
    }

    fn workload_graph() -> Term {
        Term::iri("http://galo/kb/graph/workload/w")
    }

    #[test]
    fn template_router_colocates_whole_templates() {
        let store = ShardedStore::new(4);
        for id in 0..32u32 {
            insert_template(&store, id, Some(&workload_graph()));
        }
        // Every template's triples and its tag live on exactly one shard.
        for id in 0..32u32 {
            let expected = {
                let s = tpl_iri(id);
                let p = prop("x");
                store.router.route(4, &s, &p, &p)
            };
            let tid = store.interner.get(&tpl_iri(id)).expect("interned");
            for (k, shard) in store.shards.iter().enumerate() {
                let here = shard.read().count(None, None, Some(tid));
                if k == expected {
                    assert!(here > 0, "template {id} missing from its shard");
                } else {
                    assert_eq!(here, 0, "template {id} leaked to shard {k}");
                }
            }
        }
        // With 32 templates over 4 shards, no shard is empty.
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.triples > 0), "{stats:?}");
        assert_eq!(
            stats.iter().map(|s| s.triples).sum::<usize>(),
            store.shards.iter().map(|s| s.read().len()).sum()
        );
    }

    #[test]
    fn every_shard_indexes_by_the_ids_the_store_hands_out() {
        let store = ShardedStore::new(4);
        for id in 0..32u32 {
            insert_template(&store, id, Some(&workload_graph()));
        }
        // Every id a shard's store holds, default and named graphs alike,
        // with the term that store resolves it to.
        let mut held: Vec<(TermId, Term)> = Vec::new();
        for shard in &store.shards {
            let shard = shard.read();
            let mut ids: Vec<TermId> = Vec::new();
            for (s, p, o) in shard.scan(None, None, None) {
                ids.extend([s, p, o]);
            }
            for g in shard.graph_ids() {
                ids.push(g);
                for (s, p, o) in shard.scan_in(g, None, None, None) {
                    ids.extend([s, p, o]);
                }
            }
            held.extend(ids.into_iter().map(|id| (id, shard.resolve(id).clone())));
        }
        assert!(!held.is_empty());
        // A read session resolves each to the same term: one dictionary.
        let view = store.read_session();
        for (id, term) in &held {
            assert_eq!(view.resolve(*id), term, "id {id:?}");
        }
    }

    #[test]
    fn sharded_store_answers_all_patterns_like_scan_reference() {
        let store = ShardedStore::new(3);
        let mut sharded = store.write_session();
        let mut reference = ScanStore::new();
        for id in 0..8u32 {
            for (s, p, o) in template_triples(id) {
                sharded.insert(s.clone(), p.clone(), o.clone());
                reference.insert(s, p, o);
            }
        }
        assert_eq!(sharded.len(), reference.len());
        let image = |st: &dyn TripleStore| -> BTreeSet<(Term, Term, Term)> {
            st.iter_terms()
                .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
                .collect()
        };
        assert_eq!(image(&sharded), image(&reference));
        // Bound-pattern checks through the trait.
        let p = sharded.term_id(&prop("inTemplate")).unwrap();
        assert_eq!(sharded.scan(None, Some(p), None).len(), 16);
        assert_eq!(sharded.count(None, Some(p), None), 16);
        let s = sharded.term_id(&pop_iri(3, 0)).unwrap();
        assert_eq!(sharded.scan(Some(s), None, None).len(), 3);
        let o = sharded.term_id(&tpl_iri(3)).unwrap();
        assert_eq!(sharded.count(Some(s), Some(p), Some(o)), 1);
        assert!(sharded.remove(&pop_iri(3, 0), &prop("inTemplate"), &tpl_iri(3)));
        assert_eq!(sharded.count(Some(s), Some(p), Some(o)), 0);
    }

    #[test]
    fn named_graphs_union_and_dedupe_across_shards() {
        let store = ShardedStore::new(4);
        let g = workload_graph();
        // Tags whose subjects route to different shards, same graph.
        {
            let mut session = store.write_session();
            for id in 0..16u32 {
                session.insert_in(
                    g.clone(),
                    tpl_iri(id),
                    prop("hasProblemFingerprint"),
                    Term::lit("fp"),
                );
            }
        }
        let view = store.read_session();
        assert_eq!(view.graph_names(), vec![g.clone()]);
        assert_eq!(view.graph_ids().len(), 1);
        let gid = view.term_id(&g).unwrap();
        assert_eq!(view.scan_in(gid, None, None, None).len(), 16);
        // Default graph stays empty (tags are disjoint).
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers_lose_nothing() {
        // 4 writer threads inserting disjoint template sets, one write
        // session per template, while 2 readers open read sessions;
        // afterwards the store must equal a sequentially-built ScanStore
        // oracle.
        let store = ShardedStore::new(4);
        let writers = 4u32;
        let per_writer = 25u32;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        insert_template(store, w * per_writer + i, None);
                    }
                });
            }
            for _ in 0..2 {
                let store = &store;
                scope.spawn(move || {
                    let mut last = 0usize;
                    for _ in 0..50 {
                        let now = store.read_session().len();
                        assert!(now >= last, "triple count must grow monotonically");
                        last = now;
                        std::thread::yield_now();
                    }
                });
            }
        });
        let mut oracle = ScanStore::new();
        for id in 0..writers * per_writer {
            for (s, p, o) in template_triples(id) {
                oracle.insert(s, p, o);
            }
        }
        let view = store.read_session();
        assert_eq!(view.len(), oracle.len(), "no lost updates");
        let image = |st: &dyn TripleStore| -> BTreeSet<(Term, Term, Term)> {
            st.iter_terms()
                .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
                .collect()
        };
        assert_eq!(image(&view), image(&oracle));
    }

    #[test]
    fn durable_shards_persist_and_recover() {
        let dir = ScratchDir::new("shard-durable");
        let before;
        {
            let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
            for id in 0..16u32 {
                insert_template(&store, id, Some(&workload_graph()));
            }
            store.compact_all().unwrap();
            // After the fold: stats (content *and* WAL counters — empty
            // logs, header-only bytes) must survive reopen exactly.
            before = store.shard_stats();
        }
        let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
        assert_eq!(store.shard_stats(), before, "per-shard recovery is exact");
        let view = store.read_session();
        let p = view.term_id(&prop("inTemplate")).unwrap();
        assert_eq!(view.scan(None, Some(p), None).len(), 32);
        assert_eq!(view.graph_names().len(), 1);
    }

    #[test]
    fn a_sharded_reopen_is_byte_reproducible() {
        let dir = ScratchDir::new("shard-reproducible");
        // Templates labelled from a pool of literals every shard shares,
        // so a subject's labels scan in the order the shared interner
        // issued their ids in.
        let publish = |store: &ShardedStore, ids: std::ops::Range<u32>| {
            for id in ids {
                insert_template(store, id, Some(&workload_graph()));
                let mut session = store.write_session();
                for j in 0..4 {
                    let label = Term::lit(format!("label-{}", (id * 7 + j * 5) % 23));
                    session.insert(tpl_iri(id), prop("hasLabel"), label);
                }
            }
        };
        {
            let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
            publish(&store, 0..160);
            // One shard recovers from a snapshot plus a log, the others
            // from their logs alone.
            store.compact_shard(1).unwrap();
            publish(&store, 160..200);
        }
        // The replication cold-start payload of a reopened store.
        let reopened = || {
            snapshot_bytes(
                &ShardedStore::open_durable(dir.path(), 4)
                    .unwrap()
                    .read_session(),
            )
        };
        let first = reopened();
        assert!(first.len() > 1024, "{} bytes", first.len());
        for _ in 0..4 {
            assert_eq!(
                first,
                reopened(),
                "a reopen's snapshot bytes are reproducible"
            );
        }
    }

    /// xorshift64: the dictionary tests' seeded generator.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Term `k` of a pool: every kind, the same text under different
    /// kinds, and long literals (hundreds of bytes) that differ only
    /// near their end.
    fn pool_term(k: u64) -> Term {
        let text = format!("urn:t/{}", k / 4);
        match k % 4 {
            0 => Term::iri(text),
            1 => Term::lit(text),
            2 => Term::Blank(text),
            _ => Term::lit(format!("{}{k}", "0123456789abcdef".repeat(40))),
        }
    }

    /// Random interleavings of `intern`, `get` and `resolve`, with terms
    /// repeated, against a reference map: the dictionary issues its ids —
    /// dense, in first-intern order — and resolves them back.
    #[test]
    fn the_dictionary_issues_the_reference_ids() {
        let mut state = 0x1D5_u64;
        for round in 0..24u64 {
            let pool = 8 + round * round * 12;
            let shared = Interner::new();
            let mut reference: std::collections::HashMap<Term, TermId> = Default::default();
            let mut issued: Vec<Term> = Vec::new();
            for _ in 0..3_000 {
                let term = pool_term(next(&mut state) % pool);
                match next(&mut state) % 3 {
                    0 => {
                        let fresh = TermId(issued.len() as u32);
                        let want = *reference.entry(term.clone()).or_insert(fresh);
                        if want == fresh {
                            issued.push(term.clone());
                        }
                        assert_eq!(shared.intern(term), want);
                    }
                    1 => {
                        let want = reference.get(&term).copied();
                        assert_eq!(shared.get(&term), want);
                    }
                    _ if !issued.is_empty() => {
                        let id = TermId((next(&mut state) % issued.len() as u64) as u32);
                        assert_eq!(shared.resolve(id), &issued[id.0 as usize]);
                    }
                    _ => {}
                }
            }
            assert_eq!(shared.len(), issued.len());
        }
    }

    /// Four threads interning one set of terms, each in its own order,
    /// into one shared dictionary: every term gets one id whoever asked,
    /// the ids are unique and dense, and each resolves to its term.
    #[test]
    fn four_threads_interning_into_one_dictionary_get_unique_dense_ids() {
        let terms: Vec<Term> = (0..4_000).map(pool_term).collect();
        let shared = Interner::new();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<TermId>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (terms, shared, start) = (&terms, &shared, &start);
                    scope.spawn(move || {
                        let mut state = 0xC0FFEE + t;
                        let mut order: Vec<usize> = (0..terms.len()).collect();
                        for i in (1..order.len()).rev() {
                            order.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
                        }
                        let mut ids = vec![TermId(u32::MAX); terms.len()];
                        start.wait();
                        for k in order {
                            ids[k] = shared.intern(terms[k].clone());
                        }
                        ids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for ids in &seen[1..] {
            assert_eq!(ids, &seen[0], "one id per term, whoever interned it");
        }
        let mut dense: Vec<u32> = seen[0].iter().map(|id| id.0).collect();
        dense.sort_unstable();
        assert!(dense.iter().copied().eq(0..terms.len() as u32));
        for (term, &id) in terms.iter().zip(&seen[0]) {
            assert_eq!(shared.resolve(id), term);
            assert_eq!(shared.get(term), Some(id));
        }
        assert_eq!(shared.len(), terms.len());
    }

    #[test]
    fn torn_wal_on_one_shard_recovers_other_shards_fully() {
        let dir = ScratchDir::new("shard-torn");
        let stats_before;
        {
            let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
            for id in 0..16u32 {
                insert_template(&store, id, None);
            }
            stats_before = store.shard_stats();
        }
        // Tear the newest WAL of shard 2 mid-record.
        let shard_dir = dir.path().join("shard-0002");
        let mut wals: Vec<_> = fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .collect();
        wals.sort();
        let wal = wals.pop().expect("shard 2 has a wal");
        let len = fs::metadata(&wal).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 9).unwrap();
        drop(f);
        let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
        let stats_after = store.shard_stats();
        for (b, a) in stats_before.iter().zip(stats_after.iter()) {
            if b.shard == 2 {
                assert!(
                    a.triples < b.triples,
                    "shard 2 must have dropped its torn tail"
                );
                assert!(a.triples > 0, "committed prefix survives");
            } else {
                assert_eq!(a, b, "untouched shards recover fully");
            }
        }
    }

    #[test]
    fn reopening_with_wrong_partitioning_is_a_loud_error() {
        let dir = ScratchDir::new("shard-meta");
        {
            let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
            insert_template(&store, 1, None);
        }
        let err = ShardedStore::open_durable(dir.path(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("4 shard(s)"), "{err}");
        let err = ShardedStore::open_durable_with(
            dir.path(),
            4,
            DurableOptions::default(),
            Box::new(TemplateRouter {
                template_ns: "http://elsewhere/template/".to_string(),
            }),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("router"), "{err}");
        // The matching configuration still opens.
        assert!(ShardedStore::open_durable(dir.path(), 4).is_ok());
    }

    #[test]
    fn single_shard_behaves_like_a_plain_store() {
        let store = ShardedStore::new(1);
        let mut sharded = store.write_session();
        let mut reference = IndexedStore::new();
        for id in 0..6u32 {
            for (s, p, o) in template_triples(id) {
                assert_eq!(
                    sharded.insert(s.clone(), p.clone(), o.clone()),
                    reference.insert(s, p, o)
                );
            }
        }
        assert_eq!(sharded.len(), reference.len());
        let p = sharded.term_id(&prop("hasPopType")).unwrap();
        let rp = reference.term_id(&prop("hasPopType")).unwrap();
        assert_eq!(
            sharded.scan(None, Some(p), None).len(),
            reference.scan(None, Some(rp), None).len()
        );
    }

    #[test]
    fn clear_empties_every_shard_but_keeps_ids_valid() {
        let store = ShardedStore::new(3);
        for id in 0..6u32 {
            insert_template(&store, id, Some(&workload_graph()));
        }
        let mut session = store.write_session();
        let tid = session.term_id(&tpl_iri(1)).unwrap();
        session.clear();
        assert_eq!(session.len(), 0);
        assert!(session.graph_names().is_empty());
        assert_eq!(session.term_id(&tpl_iri(1)), Some(tid), "ids survive clear");
        drop(session);
        // The store is reusable after a clear.
        insert_template(&store, 1, None);
        assert_eq!(store.read_session().len(), template_triples(1).len());
    }

    #[test]
    fn shared_interner_is_stable_under_concurrent_interning() {
        let store = ShardedStore::new(2);
        let ids: Vec<Vec<TermId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = &store;
                    scope.spawn(move || {
                        (0..200u32)
                            .map(|i| store.interner.intern(tpl_iri(i % 50)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thread saw the same id for the same term.
        for thread_ids in &ids[1..] {
            assert_eq!(thread_ids, &ids[0]);
        }
        // And resolution round-trips.
        for (i, &id) in ids[0].iter().enumerate() {
            assert_eq!(store.interner.resolve(id), &tpl_iri(i as u32 % 50));
        }
    }

    #[test]
    fn per_shard_pressure_and_single_shard_compaction() {
        let dir = ScratchDir::new("shard-pressure");
        let store = ShardedStore::open_durable(dir.path(), 4).unwrap();
        for id in 0..16u32 {
            insert_template(&store, id, None);
        }
        let before = store.storage_pressures();
        assert_eq!(before.len(), 4);
        assert_eq!(
            before.iter().map(|p| p.wal_records).sum::<u64>(),
            16,
            "a template is one commit, and shows up in exactly one shard's pressure"
        );
        // shard_stats carries the same counters.
        for (stat, pressure) in store.shard_stats().iter().zip(&before) {
            assert_eq!(stat.wal_records, pressure.wal_records);
            assert_eq!(stat.wal_bytes, pressure.wal_bytes);
            assert_eq!(stat.compactions_failed, pressure.compactions_failed);
        }
        // Fold only the hottest shard; the other logs must be untouched.
        let hot = (0..4)
            .max_by_key(|&k| before[k].wal_records)
            .expect("4 shards");
        assert!(before[hot].wal_records > 0);
        store.compact_shard(hot).unwrap();
        let after = store.storage_pressures();
        assert_eq!(after[hot].wal_records, 0);
        for k in 0..4 {
            if k != hot {
                assert_eq!(after[k], before[k], "shard {k} must be untouched");
            }
        }
        assert!(store.compact_shard(99).is_err(), "out of range is loud");
        // In-memory shards report zero pressure (nothing to fold).
        let mem = ShardedStore::new(2);
        assert!(mem
            .storage_pressures()
            .iter()
            .all(|p| *p == StoragePressure::default()));
    }
}
