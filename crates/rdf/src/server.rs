//! A Fuseki-like concurrent store facade.
//!
//! The paper houses the knowledge base in "an Apache Jena Fuseki SPARQL
//! server … a SPARQL end-point accessible via HTTP … parallelism built in,
//! enabling multiple requests to be performed concurrently … a robust,
//! transactional, and persistent storage layer" (§3.2). This reproduction
//! replaces the HTTP surface with an in-process API with the same
//! operations: concurrent reads, exclusive writes, text-level SPARQL
//! endpoints, and N-Triples persistence.
//!
//! The store behind the endpoint is always a [`ShardedStore`]: one shard
//! by default ([`FusekiLite::new`]), N at a caller's request
//! ([`FusekiLite::from_sharded`]), each shard in memory or in a durable
//! directory of its own.

use std::borrow::Borrow;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::block::{Applied, QuadBlock, Record};
use crate::ntriples::{parse_ntriples, to_ntriples, NtParseError, Quad};
use crate::policy::{CompactionPolicy, CompactionTarget, Compactor, CompactorStats};
use crate::shard::{ShardStats, ShardedStore};
use crate::sparql::{
    apply_update, evaluate, parse_select, parse_update, ResultSet, SelectQuery, SparqlParseError,
};
use crate::store::{ReadOnlyReplica, StoragePressure, TripleStore};
use crate::term::Term;

/// Errors surfaced by the endpoint.
#[derive(Debug)]
pub enum ServerError {
    Parse(SparqlParseError),
    Persistence(NtParseError),
    /// Durable-store I/O failure (open, recovery or compaction).
    Io(std::io::Error),
    /// The endpoint is a read replica ([`FusekiLite::set_read_only`]):
    /// the write was rejected, not applied and not dropped silently.
    ReadOnlyReplica(ReadOnlyReplica),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Parse(e) => write!(f, "{e}"),
            ServerError::Persistence(e) => write!(f, "{e}"),
            ServerError::Io(e) => write!(f, "{e}"),
            ServerError::ReadOnlyReplica(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ReadOnlyReplica> for ServerError {
    fn from(e: ReadOnlyReplica) -> Self {
        ServerError::ReadOnlyReplica(e)
    }
}

impl From<SparqlParseError> for ServerError {
    fn from(e: SparqlParseError) -> Self {
        ServerError::Parse(e)
    }
}

impl From<NtParseError> for ServerError {
    fn from(e: NtParseError) -> Self {
        ServerError::Persistence(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// In-process SPARQL endpoint with reader/writer concurrency.
///
/// The endpoint holds a [`ShardedStore`], one shard unless built
/// otherwise: [`with_store`](Self::with_store) opens an all-shard read
/// session and [`with_store_mut`](Self::with_store_mut) an all-shard
/// write session, and every read and write endpoint runs through one of
/// the two. Below the locks are per-shard WAL directories, per-shard
/// background folds and shard-by-shard recovery, plus the per-shard
/// maintenance calls ([`shard_stats`](Self::shard_stats),
/// [`storage_pressures`](Self::storage_pressures)).
#[derive(Debug)]
pub struct FusekiLite {
    /// Shared with the background [`Compactor`]'s watcher thread (when a
    /// [`compaction_policy`](Self::compaction_policy) is installed), which
    /// is why the store sits behind an `Arc`.
    store: Arc<ShardedStore>,
    /// Seqlock-style mutation epoch (see
    /// [`mutation_epoch`](Self::mutation_epoch)): **odd** while a write is
    /// in flight, **even** and advanced by one generation (+2) once a
    /// content-changing write has fully applied. Serving-tier caches
    /// validate entries with one atomic load against this counter.
    epoch: std::sync::atomic::AtomicU64,
    /// Serializes epoch transitions across writers (a [`MutationScope`]
    /// holds it from begin to commit), so the odd/even protocol stays
    /// sound when a logical change spans several write transactions (a
    /// store write plus derived-index upkeep).
    write_serial: Mutex<()>,
    /// Read-replica mode ([`set_read_only`](Self::set_read_only)): every
    /// client write endpoint rejects with a typed
    /// [`ReadOnlyReplica`] instead of applying.
    read_only: std::sync::atomic::AtomicBool,
    /// The installed background compaction policy, if any (see
    /// [`compaction_policy`](Self::compaction_policy)). Dropping the
    /// endpoint stops and joins the watcher thread.
    compactor: Mutex<Option<Compactor>>,
}

/// An open mutation window on a [`FusekiLite`] endpoint: created by
/// [`FusekiLite::mutation_scope`], which moves the epoch **odd** (write in
/// flight) and serializes against other writers. Apply the mutation —
/// a block through [`apply_block`](FusekiLite::apply_block) or
/// [`apply_block_owned`](FusekiLite::apply_block_owned), plus any
/// derived-index updates — while the scope is alive, then
/// call [`commit`](Self::commit) with whether anything actually changed:
/// the epoch returns to **even**, advanced one generation for a real
/// change and restored unchanged for a no-op. Dropping the scope without
/// committing (including on panic) conservatively counts as a change.
///
/// This is what makes the serving cache's validation airtight: an
/// observer that reads the same *even* epoch before and after a
/// computation is guaranteed no mutation overlapped it — there is no
/// window where data has changed but the counter has not.
#[must_use = "a mutation scope left uncommitted invalidates caches conservatively"]
pub struct MutationScope<'a> {
    epoch: &'a std::sync::atomic::AtomicU64,
    _serial: MutexGuard<'a, ()>,
    committed: bool,
}

impl MutationScope<'_> {
    /// Close the window: `changed = true` advances the epoch to the next
    /// even generation, `false` restores the pre-scope value (a no-op
    /// write invalidates nothing).
    pub fn commit(mut self, changed: bool) {
        self.close(changed);
    }

    fn close(&mut self, changed: bool) {
        use std::sync::atomic::Ordering::SeqCst;
        if !self.committed {
            self.committed = true;
            if changed {
                self.epoch.fetch_add(1, SeqCst);
            } else {
                self.epoch.fetch_sub(1, SeqCst);
            }
        }
    }
}

impl Drop for MutationScope<'_> {
    fn drop(&mut self) {
        // An abandoned scope (early return, panic mid-mutation) must not
        // leave the epoch odd forever; treat it as a change so anything
        // computed meanwhile stays invalid.
        self.close(true);
    }
}

impl Default for FusekiLite {
    fn default() -> Self {
        Self::from_sharded(ShardedStore::new(1))
    }
}

impl FusekiLite {
    /// An endpoint over an in-memory store of one shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// An endpoint over an existing sharded store: in memory
    /// ([`ShardedStore::new`]) or on disk
    /// ([`ShardedStore::open_durable_with`], which recovers each shard's
    /// newest valid snapshot plus its committed write-ahead-log tail, so
    /// the endpoint resumes where the last process stopped).
    pub fn from_sharded(store: ShardedStore) -> Self {
        FusekiLite {
            store: Arc::new(store),
            epoch: std::sync::atomic::AtomicU64::new(0),
            write_serial: Mutex::new(()),
            read_only: std::sync::atomic::AtomicBool::new(false),
            compactor: Mutex::new(None),
        }
    }

    /// Put the endpoint in (or out of) read-replica mode. While set,
    /// every client write endpoint rejects loudly with a typed
    /// [`ReadOnlyReplica`]: the fallible endpoints
    /// ([`update`](Self::update), [`import`](Self::import)) return
    /// [`ServerError::ReadOnlyReplica`], and the infallible ones
    /// ([`insert_triples`](Self::insert_triples),
    /// [`insert_quads`](Self::insert_quads), …) raise it as a panic
    /// payload — a write on a replica is a caller bug, never silently
    /// applied or dropped. The replication feed bypasses the gate through
    /// [`apply_block`](Self::apply_block) +
    /// [`mutation_scope`](Self::mutation_scope), which stay privileged; a
    /// caller that composes those two for clients of its own asks
    /// [`check_writable`](Self::check_writable) first.
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only
            .store(read_only, std::sync::atomic::Ordering::SeqCst);
    }

    /// True when the endpoint is in read-replica mode.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The read-only gate every client write passes first: the typed
    /// rejection of `op` while the endpoint is a read replica.
    pub fn check_writable(&self, op: &'static str) -> Result<(), ReadOnlyReplica> {
        if self.is_read_only() {
            Err(ReadOnlyReplica { op })
        } else {
            Ok(())
        }
    }

    /// The gate for infallible endpoints: panics with the
    /// [`ReadOnlyReplica`] as payload.
    fn assert_writable(&self, op: &'static str) {
        if let Err(rejected) = self.check_writable(op) {
            std::panic::panic_any(rejected);
        }
    }

    /// The endpoint's mutation epoch, a seqlock-style counter:
    ///
    /// - **even** — the store is at rest; the value identifies its
    ///   current generation.
    /// - **odd** — a write is in flight (its [`MutationScope`] is open).
    ///
    /// Every content-changing write acknowledged through the endpoint's
    /// write methods ([`update`](Self::update),
    /// [`insert_triples`](Self::insert_triples) and friends,
    /// [`insert_quads`](Self::insert_quads),
    /// [`remove_triples`](Self::remove_triples),
    /// [`import`](Self::import), [`clear`](Self::clear)) advances the
    /// counter by exactly one generation (+2: odd at begin, next even at
    /// commit). No-op writes (idempotent republishes, removals of absent
    /// triples) restore the pre-write value, so an unchanged even epoch
    /// means unchanged store contents.
    ///
    /// The begin-*before*, commit-*after* discipline is what serving
    /// caches rely on: a result computed between two equal **even** loads
    /// provably overlapped no write, and a cached entry stamped with even
    /// epoch `E` is current exactly while the counter still reads `E` —
    /// there is no instant at which data has changed but the counter has
    /// not. Raw [`with_store_mut`](Self::with_store_mut) access and the
    /// privileged block doors bypass the counter; callers mutating
    /// through them must wrap the mutation (including any derived-index
    /// updates) in a [`mutation_scope`](Self::mutation_scope), as the
    /// knowledge base's one commit does.
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Open a [`MutationScope`]: serialize against other writers and move
    /// the epoch odd. Apply the mutation while the scope is alive, then
    /// [`commit`](MutationScope::commit) with whether anything changed.
    /// Re-entrant use from one thread deadlocks — compose raw
    /// (scope-free) operations inside a single scope instead.
    pub fn mutation_scope(&self) -> MutationScope<'_> {
        let serial = self.write_serial.lock();
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        MutationScope {
            epoch: &self.epoch,
            _serial: serial,
            committed: false,
        }
    }

    /// The store behind the endpoint.
    pub fn sharded(&self) -> &ShardedStore {
        &self.store
    }

    /// Per-shard triple/graph counts. Always `Some`: every endpoint is
    /// sharded, one shard by default.
    pub fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        Some(self.store.shard_stats())
    }

    /// Checkpoint every shard ([`TripleStore::compact`]): a no-op for an
    /// in-memory shard, a snapshot-write-plus-log-rotation for a durable
    /// one, fanned out across shard directories. Serializes with updates.
    pub fn compact(&self) -> std::io::Result<()> {
        self.store.compact_all()
    }

    /// Install a background compaction policy: spawn a [`Compactor`]
    /// watcher thread that polls per-shard WAL pressure and folds shards
    /// off the write path (see [`crate::policy`] for the decision).
    /// Replaces — stopping and joining — any previously installed
    /// compactor; the returned [`CompactorStats`] handle stays readable
    /// for the endpoint's lifetime (folds themselves are counted in
    /// [`storage_pressures`](Self::storage_pressures)). The thread is
    /// stopped and joined when the endpoint drops (or on
    /// [`stop_compactor`](Self::stop_compactor)).
    pub fn compaction_policy(&self, policy: CompactionPolicy) -> Arc<CompactorStats> {
        let target: Arc<dyn CompactionTarget> = Arc::clone(&self.store) as _;
        let compactor = Compactor::spawn(target, policy);
        let stats = compactor.stats();
        *self.compactor.lock() = Some(compactor);
        stats
    }

    /// Counters of the installed background compactor (`None` when no
    /// [`compaction_policy`](Self::compaction_policy) is installed).
    pub fn compactor_stats(&self) -> Option<Arc<CompactorStats>> {
        self.compactor.lock().as_ref().map(Compactor::stats)
    }

    /// Stop the background compactor, joining its watcher thread; a
    /// no-op when none is installed.
    pub fn stop_compactor(&self) {
        *self.compactor.lock() = None;
    }

    /// Per-shard WAL pressure — what the background compactor watches;
    /// exposed so callers and tests can observe it through the endpoint
    /// too.
    pub fn storage_pressures(&self) -> Vec<StoragePressure> {
        self.store.storage_pressures()
    }

    /// Execute a SPARQL `SELECT` from text.
    pub fn query(&self, text: &str) -> Result<ResultSet, ServerError> {
        let q = parse_select(text)?;
        Ok(self.query_parsed(&q))
    }

    /// Execute a pre-parsed `SELECT`.
    pub fn query_parsed(&self, query: &SelectQuery) -> ResultSet {
        self.with_store(|st| evaluate(st, query))
    }

    /// Execute a SPARQL update from text; returns affected triple count.
    pub fn update(&self, text: &str) -> Result<usize, ServerError> {
        self.check_writable("update")?;
        let u = parse_update(text)?;
        let scope = self.mutation_scope();
        let n = self.in_bracket(|st| apply_update(st, &u));
        scope.commit(n > 0);
        Ok(n)
    }

    /// Apply a [`QuadBlock`] in **one** write transaction under one
    /// `begin_batch` / `end_batch` bracket: each operation routes to its
    /// shard inside one all-shard write session, and each durable shard
    /// written journals the operations that changed anything as one log
    /// record. Every batch
    /// write of the endpoint is a block applied under that bracket: the
    /// replication feed by reference, here; the methods below, `import`
    /// and the knowledge base's own mutators by value
    /// ([`apply_block_owned`](Self::apply_block_owned)), because they own
    /// their terms and the store can keep them. Returns, per operation,
    /// whether it changed anything (set semantics), and the block over the
    /// store's ids.
    ///
    /// **Privileged**: no read-only gate, so a read replica replays its
    /// primary's feed through here, and no
    /// [`mutation_scope`](Self::mutation_scope) — the caller holds one
    /// across this call and any derived-index upkeep that belongs to the
    /// same logical change. Calling it outside a scope leaves the epoch
    /// behind the data; don't.
    pub fn apply_block<T: Borrow<Term>>(&self, block: &QuadBlock<T>) -> Applied {
        self.in_bracket(|st| block.apply_to(st))
    }

    /// [`apply_block`](Self::apply_block) for a block the caller hands
    /// over ([`QuadBlock::apply_into`]): the store keeps the terms it has
    /// not seen before instead of copying them. Privileged in the same
    /// two ways.
    pub fn apply_block_owned(&self, block: QuadBlock) -> Applied {
        self.in_bracket(|st| block.apply_into(st))
    }

    /// One write transaction under one bracket around `apply`.
    fn in_bracket<R>(&self, apply: impl FnOnce(&mut dyn TripleStore) -> R) -> R {
        self.with_store_mut(|st| {
            st.begin_batch();
            let applied = apply(st);
            st.end_batch();
            applied
        })
    }

    /// A client batch write: the read-only gate, one
    /// [`mutation_scope`](Self::mutation_scope), the records as one block
    /// handed over ([`apply_block_owned`](Self::apply_block_owned)).
    /// Returns how many records changed anything.
    fn write_batch(&self, op: &'static str, records: impl IntoIterator<Item = Record>) -> usize {
        self.assert_writable(op);
        let block = QuadBlock::from_records(records);
        let scope = self.mutation_scope();
        let n = self.apply_block_owned(block).effective();
        scope.commit(n > 0);
        n
    }

    /// Insert a batch of triples in one write transaction (one journal
    /// record on a durable backend). Returns how many were new.
    pub fn insert_triples(&self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> usize {
        self.write_batch(
            "insert_triples",
            triples
                .into_iter()
                .map(|(s, p, o)| Record::Insert(s, p, o, None)),
        )
    }

    /// Insert a batch of triples into a named graph in one transaction
    /// (batched like [`insert_triples`](Self::insert_triples)).
    pub fn insert_triples_in(
        &self,
        graph: Term,
        triples: impl IntoIterator<Item = (Term, Term, Term)>,
    ) -> usize {
        self.write_batch(
            "insert_triples_in",
            triples
                .into_iter()
                .map(|(s, p, o)| Record::Insert(s, p, o, Some(graph.clone()))),
        )
    }

    /// Append a mixed batch of default-graph triples (`graph: None`) and
    /// named-graph tags (`graph: Some(g)`) in **one** write transaction —
    /// the batch-publish endpoint distributed learner machines push their
    /// mined templates through. Each quad routes by subject, so a template's triples and its workload-dataset tag land
    /// on one shard (and in one record of that shard's log). Returns how
    /// many quads were new.
    pub fn insert_quads(&self, quads: impl IntoIterator<Item = Quad>) -> usize {
        self.write_batch("insert_quads", quads.into_iter().map(Record::from))
    }

    /// Remove a batch of triples in one write transaction; returns how
    /// many were present. Batched like
    /// [`insert_triples`](Self::insert_triples).
    pub fn remove_triples(&self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> usize {
        self.write_batch(
            "remove_triples",
            triples
                .into_iter()
                .map(|(s, p, o)| Record::Remove(s, p, o, None)),
        )
    }

    /// Names of the dataset's non-empty named graphs.
    pub fn graph_names(&self) -> Vec<Term> {
        self.with_store(|st| st.graph_names())
    }

    /// Run a closure with read access to the store (bulk extraction): an
    /// all-shard read session, a stable view for the closure's lifetime.
    pub fn with_store<T>(&self, f: impl FnOnce(&dyn TripleStore) -> T) -> T {
        f(&self.store.read_session())
    }

    /// Run a closure with exclusive write access (a write transaction:
    /// an all-shard write session). Raw access does
    /// **not** advance the [`mutation_epoch`](Self::mutation_epoch) —
    /// callers that mutate through it must hold a
    /// [`mutation_scope`](Self::mutation_scope) spanning their whole
    /// logical change (including any derived index) and commit it once
    /// fully applied. The library's own writes are blocks (or, for
    /// [`update`](Self::update), one bracket); what comes through here
    /// from outside is maintenance and tests building an oracle.
    pub fn with_store_mut<T>(&self, f: impl FnOnce(&mut dyn TripleStore) -> T) -> T {
        f(&mut self.store.write_session())
    }

    /// Number of triples currently stored.
    pub fn len(&self) -> usize {
        self.with_store(|st| st.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export the dataset as N-Triples.
    pub fn export(&self) -> String {
        self.with_store(|st| to_ntriples(st))
    }

    /// Replace the dataset from N-Triples / N-Quads text (quad lines
    /// restore named graphs). The text is fully parsed before the current
    /// contents are dropped, so a malformed import leaves the dataset
    /// untouched — and the store is preserved. Returns the number of
    /// default-graph triples imported.
    pub fn import(&self, text: &str) -> Result<usize, ServerError> {
        self.check_writable("import")?;
        let block = QuadBlock::replacing_with_quads(parse_ntriples(text)?);
        let scope = self.mutation_scope();
        let n = self.apply_block_owned(block).new_triples();
        // A replace-all is one logical change even when the imported text
        // reproduces the previous contents byte-for-byte: the clear makes
        // the old state unobservable, so conservatively invalidate.
        scope.commit(true);
        Ok(n)
    }

    /// Drop every triple and named graph — one write transaction, one
    /// epoch generation (none when there was nothing to drop).
    pub fn clear(&self) {
        self.write_batch("clear", [Record::Clear]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardRouter;
    use crate::sparql::evaluate_seeded;
    use std::sync::Arc;

    /// Fifty cardinality triples on a store of `shards` shards.
    fn seeded(shards: usize) -> FusekiLite {
        let f = FusekiLite::from_sharded(ShardedStore::new(shards));
        f.insert_triples((0..50u32).map(|i| {
            (
                Term::iri(format!("http://galo/qep/pop/{i}")),
                Term::iri("http://galo/qep/property/hasEstimateCardinality"),
                Term::lit(format!("{}", i * 100)),
            )
        }));
        f
    }

    #[test]
    fn query_text_endpoint() {
        let f = seeded(1);
        let rs = f
            .query(
                "SELECT ?s WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> ?c . \
                 FILTER(?c >= 4800) }",
            )
            .unwrap();
        assert_eq!(rs.len(), 2); // 4800, 4900.
    }

    #[test]
    fn update_text_endpoint() {
        let f = seeded(1);
        let n = f
            .update("INSERT DATA { <http://x> <http://p> \"1\" . <http://y> <http://p> \"2\" . }")
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(f.len(), 52);
        let removed = f.update("DELETE WHERE { ?s <http://p> ?o . }").unwrap();
        assert_eq!(removed, 2);
        assert_eq!(f.len(), 50);
    }

    #[test]
    fn export_import_roundtrip() {
        let f = seeded(1);
        let text = f.export();
        let g = FusekiLite::new();
        assert_eq!(g.import(&text).unwrap(), 50);
        assert_eq!(g.len(), 50);
    }

    #[test]
    fn export_import_preserves_named_graphs() {
        let f = seeded(1);
        let g1 = Term::iri("http://galo/kb/graph/workload/tpcds");
        f.insert_triples_in(
            g1.clone(),
            [
                (
                    Term::iri("http://t/1"),
                    Term::iri("http://p"),
                    Term::lit("a"),
                ),
                (
                    Term::iri("http://t/2"),
                    Term::iri("http://p"),
                    Term::lit("b"),
                ),
            ],
        );
        let text = f.export();
        let g = FusekiLite::new();
        assert_eq!(g.import(&text).unwrap(), 50); // default-graph triples only
        assert_eq!(g.len(), 50);
        assert_eq!(g.graph_names(), vec![g1.clone()]);
        let names = g.with_store(|st| {
            let gid = st.term_id(&g1).expect("graph interned");
            st.scan_in(gid, None, None, None).len()
        });
        assert_eq!(names, 2);
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let f = Arc::new(seeded(1));
        let mut handles = Vec::new();
        for t in 0..4 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    if t == 0 && i % 5 == 0 {
                        f.insert_triples([(
                            Term::iri(format!("http://w/{i}")),
                            Term::iri("http://p"),
                            Term::lit("x"),
                        )]);
                    } else {
                        let rs = f
                            .query(
                                "SELECT ?s WHERE { ?s \
                                 <http://galo/qep/property/hasEstimateCardinality> ?c . }",
                            )
                            .unwrap();
                        assert!(rs.len() >= 50);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.len(), 54);
    }

    #[test]
    fn seeded_evaluation_restricts_solutions() {
        for f in [seeded(1), seeded(4)] {
            let q = parse_select(
                "SELECT ?s ?c WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> ?c . }",
            )
            .unwrap();
            // One evaluation per pre-bound subject, each under its own
            // read session (an all-shard one on the sharded backing).
            for i in 0..40u32 {
                let subject = Term::iri(format!("http://galo/qep/pop/{i}"));
                let rs = f.with_store(|st| {
                    let id = st.term_id(&subject).expect("interned");
                    evaluate_seeded(st, &q, &[("s".to_string(), id)])
                });
                assert_eq!(rs.len(), 1);
                assert_eq!(rs.get(0, "s"), Some(&subject));
                assert_eq!(rs.get(0, "c").unwrap().str_value(), format!("{}", i * 100));
            }
        }
    }

    #[test]
    fn probe_with_unresolved_constant_is_empty_without_eval() {
        for f in [seeded(1), seeded(4)] {
            // Ground object never interned -> empty, projection preserved.
            let q = parse_select(
                "SELECT ?s WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> \"nope\" . }",
            )
            .unwrap();
            let rs = f.with_store(|st| evaluate_seeded(st, &q, &[]));
            assert!(rs.is_empty());
            assert_eq!(rs.vars, vec!["s"]);
            // A never-interned IRI has no id to pre-bind; one that is
            // interned but never a subject of the pattern gives an empty
            // result as well.
            let q2 = parse_select(
                "SELECT ?s ?c WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> ?c . }",
            )
            .unwrap();
            let rs = f.with_store(|st| {
                assert_eq!(st.term_id(&Term::iri("http://nowhere")), None);
                let literal = st.term_id(&Term::lit("100")).expect("interned");
                evaluate_seeded(st, &q2, &[("s".to_string(), literal)])
            });
            assert!(rs.is_empty());
            assert_eq!(rs.vars, vec!["s", "c"]);
        }
    }

    /// A router that dies on its `fuse`-th placement: the closest a test
    /// gets to killing the process in the middle of an `import`.
    #[derive(Debug)]
    struct DiesMidWrite {
        fuse: std::sync::atomic::AtomicUsize,
    }

    impl ShardRouter for DiesMidWrite {
        fn name(&self) -> String {
            "dies-mid-write".to_string()
        }

        fn route(&self, shards: usize, s: &Term, p: &Term, o: &Term) -> usize {
            let left = self.fuse.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            assert!(left > 0, "simulated crash");
            crate::shard::TemplateRouter::default().route(shards, s, p, o)
        }
    }

    /// Regression, twice over. `import` used to clear *before* opening its
    /// group-commit bracket, so on a durable backend the `Clear` record
    /// was flushed on its own — a crash before the replacement committed
    /// reopened an empty dataset although the import was never
    /// acknowledged. And while a batch was a run of per-quad records
    /// behind a buffered writer, whatever part of it outgrew the buffer
    /// was already in the file when the process died: the dump here is
    /// well past 64 KiB and the import dies after 600 of its 1,000
    /// triples, so on that code the reopened store held the clear and
    /// hundreds of the import's triples.
    #[test]
    fn import_interrupted_mid_batch_keeps_the_previous_dataset() {
        let dir = crate::persist::ScratchDir::new("server-import-atomic");
        let open = |fuse: usize| {
            let fuse = std::sync::atomic::AtomicUsize::new(fuse);
            let router = Box::new(DiesMidWrite { fuse });
            let store = ShardedStore::open_durable_with(dir.path(), 2, Default::default(), router);
            FusekiLite::from_sharded(store.unwrap())
        };
        let previous = (
            Term::iri("http://old/s"),
            Term::iri("http://old/p"),
            Term::lit("kept"),
        );
        let big = FusekiLite::new();
        big.insert_triples((0..1_000u32).map(|i| {
            (
                Term::iri(format!(
                    "http://galo/kb/template/{:016x}/pop/{}",
                    i / 16,
                    i % 16
                )),
                Term::iri("http://galo/qep/property/hasCardinalityStat"),
                Term::lit(format!("{:0100x}", u64::from(i) * 0x9E37_79B9)),
            )
        }));
        let dump = big.export();
        assert!(dump.len() > 64 * 1024);
        // The previous dataset, then 600 of the import's 1,000 triples.
        let f = open(1 + 600);
        assert_eq!(f.insert_triples([previous.clone()]), 1);
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.import(&dump)));
        assert!(crash.is_err(), "the import must have died mid-batch");
        // Kill, not shutdown: leak the endpoint so the gathered half-batch
        // is dropped exactly as a crash would drop it.
        std::mem::forget(f);
        let reopened = open(usize::MAX);
        assert_eq!(
            reopened.len(),
            1,
            "an unacknowledged import changes nothing"
        );
        let (s, p, o) = &previous;
        assert!(reopened.with_store(|st| st.contains(s, p, o)));
        // Uninterrupted, the same import replaces the dataset.
        assert_eq!(reopened.import(&dump).unwrap(), 1_000);
        drop(reopened);
        assert_eq!(open(usize::MAX).len(), 1_000);
    }

    #[test]
    fn mutation_epoch_advances_once_per_logical_change() {
        // One generation = +2: the seqlock protocol passes through an odd
        // in-flight value and lands on the next even one. At rest the
        // counter is always even.
        const GEN: u64 = 2;
        for f in [
            FusekiLite::new(),
            FusekiLite::from_sharded(ShardedStore::new(4)),
        ] {
            let e0 = f.mutation_epoch();
            assert_eq!(e0 % 2, 0, "epoch must be even at rest");
            // A content-changing insert advances exactly one generation.
            let t = (Term::iri("http://s"), Term::iri("http://p"), Term::lit("1"));
            assert_eq!(f.insert_triples([t.clone()]), 1);
            assert_eq!(f.mutation_epoch(), e0 + GEN);
            // An idempotent re-insert is a no-op: no advance.
            assert_eq!(f.insert_triples([t.clone()]), 0);
            assert_eq!(f.mutation_epoch(), e0 + GEN);
            // Removal of a present triple advances; of an absent one
            // doesn't.
            assert_eq!(f.remove_triples([t.clone()]), 1);
            assert_eq!(f.mutation_epoch(), e0 + 2 * GEN);
            assert_eq!(f.remove_triples([t.clone()]), 0);
            assert_eq!(f.mutation_epoch(), e0 + 2 * GEN);
            // SPARQL updates advance only when they change anything.
            f.update("INSERT DATA { <http://x> <http://p> \"v\" . }")
                .unwrap();
            assert_eq!(f.mutation_epoch(), e0 + 3 * GEN);
            f.update("DELETE WHERE { ?s <http://nope> ?o . }").unwrap();
            assert_eq!(f.mutation_epoch(), e0 + 3 * GEN);
            // Named-graph and quad writes advance; idempotent replays
            // don't.
            let g = Term::iri("http://galo/kb/graph/workload/w");
            let tag = (Term::iri("http://t"), Term::iri("http://p"), Term::lit("t"));
            assert_eq!(f.insert_triples_in(g.clone(), [tag.clone()]), 1);
            assert_eq!(f.mutation_epoch(), e0 + 4 * GEN);
            assert_eq!(f.insert_triples_in(g.clone(), [tag.clone()]), 0);
            assert_eq!(f.mutation_epoch(), e0 + 4 * GEN);
            // import is always one logical change; clear too. Reads never
            // advance.
            let dump = f.export();
            f.import(&dump).unwrap();
            assert_eq!(f.mutation_epoch(), e0 + 5 * GEN);
            let _ = f.query("SELECT ?s WHERE { ?s <http://p> ?o . }");
            let _ = f.len();
            assert_eq!(f.mutation_epoch(), e0 + 5 * GEN);
            f.clear();
            assert_eq!(f.mutation_epoch(), e0 + 6 * GEN);
            assert!(f.is_empty());
            // …of an endpoint that holds something: a second one is a
            // no-op like any other.
            f.clear();
            assert_eq!(f.mutation_epoch(), e0 + 6 * GEN);
            // A scope abandoned without commit (panic path) still lands
            // even and invalidates conservatively.
            drop(f.mutation_scope());
            assert_eq!(f.mutation_epoch(), e0 + 7 * GEN);
            // A committed no-op scope restores the exact pre-scope value.
            f.mutation_scope().commit(false);
            assert_eq!(f.mutation_epoch(), e0 + 7 * GEN);
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        let f = seeded(1);
        assert!(f.query("SELEKT ?x WHERE { }").is_err());
        assert!(f.update("UPSERT DATA {}").is_err());
    }

    #[test]
    fn sharded_endpoint_serves_the_same_queries() {
        let single = seeded(1);
        let sharded = seeded(4);
        assert_eq!(sharded.len(), 50);
        let stats = sharded.shard_stats().expect("always sharded");
        assert_eq!(single.shard_stats().expect("always sharded").len(), 1);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.triples).sum::<usize>(), 50);
        for q in [
            "SELECT ?s WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> ?c . \
             FILTER(?c >= 4800) }",
            "SELECT ?s ?c WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> ?c . }",
        ] {
            assert_eq!(
                sharded.query(q).unwrap().len(),
                single.query(q).unwrap().len()
            );
        }
        // Update + import/export flow through the write session.
        let n = sharded
            .update("INSERT DATA { <http://x> <http://p> \"1\" . }")
            .unwrap();
        assert_eq!(n, 1);
        let dump = sharded.export();
        let back = FusekiLite::from_sharded(ShardedStore::new(3));
        assert_eq!(back.import(&dump).unwrap(), 51);
        assert_eq!(back.len(), 51);
        // remove_triples reaches the owning shards.
        let removed =
            back.remove_triples([(Term::iri("http://x"), Term::iri("http://p"), Term::lit("1"))]);
        assert_eq!(removed, 1);
        assert_eq!(back.len(), 50);
    }

    #[test]
    fn insert_quads_lands_default_and_named_graph_triples() {
        for f in [
            FusekiLite::new(),
            FusekiLite::from_sharded(ShardedStore::new(4)),
        ] {
            let g = Term::iri("http://galo/kb/graph/workload/w1");
            let n = f.insert_quads((0..10u32).flat_map(|i| {
                let s = Term::iri(format!("http://galo/kb/template/{i:016x}"));
                [
                    (
                        s.clone(),
                        Term::iri("http://p/x"),
                        Term::lit(format!("{i}")),
                        None,
                    ),
                    (
                        s,
                        Term::iri("http://p/tag"),
                        Term::lit("t"),
                        Some(g.clone()),
                    ),
                ]
            }));
            assert_eq!(n, 20, "10 default-graph triples + 10 tags are new");
            assert_eq!(f.len(), 10);
            assert_eq!(f.graph_names(), vec![g.clone()]);
            let tags = f.with_store(|st| {
                let gid = st.term_id(&g).expect("graph interned");
                st.scan_in(gid, None, None, None).len()
            });
            assert_eq!(tags, 10);
            // Re-publishing the same quads is idempotent (set semantics).
            let again = f.insert_quads([(
                Term::iri("http://galo/kb/template/0000000000000000"),
                Term::iri("http://p/x"),
                Term::lit("0"),
                None,
            )]);
            assert_eq!(again, 0);
            if let Some(stats) = f.shard_stats() {
                assert_eq!(stats.iter().map(|s| s.triples).sum::<usize>(), 10);
                assert_eq!(stats.iter().map(|s| s.graph_triples).sum::<usize>(), 10);
                // Template-affine routing: a template's triple and its
                // tag live on the same shard, so any shard holding tags
                // also holds that many template triples at least.
                for s in &stats {
                    assert!(s.graph_triples <= s.triples, "{s:?}");
                }
            }
        }
    }

    #[test]
    fn sharded_concurrent_writers_with_readers() {
        // Writers take all-shard write sessions one at a time; readers see
        // consistent sessions. The final image must contain every write
        // (no lost updates).
        let f = Arc::new(FusekiLite::from_sharded(ShardedStore::new(4)));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                for i in 0..20u32 {
                    f.insert_triples([(
                        Term::iri(format!("http://galo/kb/template/{:08x}", w * 100 + i)),
                        Term::iri("http://p"),
                        Term::lit(format!("{w}:{i}")),
                    )]);
                }
            }));
        }
        for _ in 0..2 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let rs = f.query("SELECT ?s WHERE { ?s <http://p> ?o . }").unwrap();
                    assert!(rs.len() <= 80);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.len(), 80, "all concurrent writes must land");
        let stats = f.shard_stats().unwrap();
        assert!(
            stats.iter().filter(|s| s.triples > 0).count() > 1,
            "writes must actually spread over shards: {stats:?}"
        );
    }

    /// Spin until `cond` holds or ~10 s pass (single-CPU CI is slow).
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        cond()
    }

    /// Folds at `wal_records` commits or `wal_bytes` of log.
    fn test_policy(wal_records: u64, wal_bytes: u64) -> CompactionPolicy {
        CompactionPolicy {
            wal_records,
            wal_bytes,
            idle_divisor: 0,
            poll_interval: std::time::Duration::from_millis(1),
        }
    }

    /// Successful folds over every shard, as the store counts them.
    fn folds(f: &FusekiLite) -> u64 {
        f.storage_pressures().iter().map(|p| p.compactions).sum()
    }

    #[test]
    fn background_compaction_policy_treats_single_backing_as_one_shard() {
        let dir = crate::persist::ScratchDir::new("server-policy-single");
        let open = || FusekiLite::from_sharded(ShardedStore::open_durable(dir.path(), 1).unwrap());
        let f = open();
        // 100 writes of one triple are 100 commits: here it is the commit
        // threshold that trips.
        f.compaction_policy(test_policy(32, u64::MAX));
        for i in 0..100u32 {
            f.insert_triples([(
                Term::iri(format!("http://s/{i}")),
                Term::iri("http://p"),
                Term::lit(format!("{i}")),
            )]);
        }
        assert!(eventually(|| folds(&f) >= 1));
        let pressures = f.storage_pressures();
        assert_eq!(pressures.len(), 1, "single backing is one shard");
        assert!(eventually(|| f.storage_pressures()[0].wal_records < 32));
        assert_eq!(f.len(), 100);
        // Dropping the endpoint joins the watcher thread (no panic, no
        // hang); content is intact on reopen.
        drop(f);
        assert_eq!(open().len(), 100);
    }

    #[test]
    fn background_compaction_policy_folds_a_sharded_backing() {
        let dir = crate::persist::ScratchDir::new("server-policy-sharded");
        let open = || FusekiLite::from_sharded(ShardedStore::open_durable(dir.path(), 2).unwrap());
        let f = open();
        // One batch: one commit per shard, of some 5 KiB each — the byte
        // threshold trips, the commit threshold never could.
        f.compaction_policy(test_policy(32, 2048));
        f.insert_triples((0..200u32).map(|i| {
            (
                Term::iri(format!("http://galo/kb/template/{i:08x}")),
                Term::iri("http://p"),
                Term::lit(format!("{i}")),
            )
        }));
        assert!(
            eventually(|| folds(&f) >= 2),
            "the background thread must fold the hot shards: {:?}",
            f.storage_pressures()
        );
        assert_eq!(f.storage_pressures().len(), 2);
        assert!(eventually(|| {
            f.storage_pressures()
                .iter()
                .all(|p| p.wal_records == 0 && p.wal_bytes < 2048)
        }));
        assert!(f
            .storage_pressures()
            .iter()
            .all(|p| p.compactions_failed == 0));
        assert!(f.compactor_stats().is_some());
        f.stop_compactor();
        assert!(f.compactor_stats().is_none());
        assert_eq!(f.len(), 200, "compaction never loses content");
        // Folded image survives reopen.
        drop(f);
        assert_eq!(open().len(), 200);
    }

    #[test]
    fn in_memory_backing_reports_zero_pressure_and_never_folds() {
        let f = seeded(1);
        let stats = f.compaction_policy(test_policy(32, 2048));
        assert!(eventually(|| stats.sweeps() >= 5));
        assert_eq!(f.storage_pressures(), vec![StoragePressure::default()]);
    }
}
