//! Triple storage: the [`TripleStore`] trait and its in-memory stores.
//!
//! The knowledge base is the hot path of online re-optimization — every
//! incoming plan segment becomes a SPARQL query against it — so storage
//! is behind a trait, which the evaluator and the matching engine
//! compile against: [`IndexedStore`] (an in-memory shard; two ordered
//! permutations, SPO and POS) answers every pattern that binds its
//! subject or its predicate with one range, while [`ScanStore`] is the
//! naive linear-scan reference used to cross-check results and
//! benchmark the indexes. The endpoint reads and writes a
//! [`ShardedStore`](crate::ShardedStore) through its sessions, which are
//! stores too.

use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::term::{Interner, Term, TermId};

/// A ground triple of interned terms.
pub type Triple = (TermId, TermId, TermId);

/// Write-ahead-log pressure a durable backend reports through
/// [`TripleStore::storage_pressure`]: how much un-folded log the store is
/// carrying, and how its compactions have gone. The one compaction
/// decision ([`crate::policy`]) reads it, and every fold attempt —
/// inline, background or explicit — is counted here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoragePressure {
    /// Commits journaled to the current log since the last rotation: one
    /// record each, whether a single mutation or a whole batch.
    pub wal_records: u64,
    /// Bytes in the current log (header included).
    pub wal_bytes: u64,
    /// Successful compactions since open.
    pub compactions: u64,
    /// Failed compaction attempts since open.
    pub compactions_failed: u64,
    /// Error text of the most recent failed compaction, cleared by the
    /// next success.
    pub last_compaction_error: Option<String>,
}

/// Storage contract for RDF triples.
///
/// A store interns its terms through an [`Interner`] and holds a
/// default graph of triples, plus optional named graphs. The required
/// methods work on interned [`TermId`]s — the evaluator's hot path; the
/// provided methods lift them to [`Term`]s for callers that deal in
/// concrete terms.
///
/// # Contract
///
/// * **Set semantics** — `insert_ids` returns `true` iff the triple was
///   new; `remove_ids` returns `true` iff it was present.
/// * **Pattern scans** — `scan(s, p, o)` treats `None` as a wildcard and
///   returns every matching default-graph triple. Results must be
///   deterministic for a given store content (iteration order must not
///   depend on process-level randomness).
/// * **Counting** — `count` agrees with `scan(..).len()` but should avoid
///   materializing (the evaluator orders patterns by it).
/// * **Named graphs** — `insert_ids_in` / `scan_in` address a named graph
///   by its (interned) name; `graph_names` enumerates the names of all
///   non-empty named graphs. Named graphs are disjoint from the default
///   graph.
/// * **Interning** — ids are stable for the lifetime of the store and
///   shared between the default and named graphs.
///
/// The trait asks for `Sync` but not `Send`: a store may be read from
/// several threads at once, but the sharded store's sessions *are* their
/// lock guards, which must be released on the thread that took them. A
/// shard, which moves between threads with its sharded store, is a
/// `Box<dyn TripleStore + Send>`.
pub trait TripleStore: fmt::Debug + Sync {
    // ---- interning ----

    /// Intern a term (public so callers can pre-intern query constants).
    fn intern(&mut self, term: Term) -> TermId;

    /// Id of a term if it has ever been interned.
    fn term_id(&self, term: &Term) -> Option<TermId>;

    /// Resolve an id back to its term.
    fn resolve(&self, id: TermId) -> &Term;

    // ---- default graph ----

    /// Insert an already-interned triple. Returns true if it was new.
    fn insert_ids(&mut self, t: Triple) -> bool;

    /// Remove an interned triple. Returns true if it was present.
    fn remove_ids(&mut self, t: Triple) -> bool;

    /// Remove every triple (all graphs). Interned terms remain valid.
    fn clear(&mut self);

    /// Number of triples in the default graph.
    fn len(&self) -> usize;

    /// Matching triples for a pattern where `None` is a wildcard.
    fn scan(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple>;

    /// Count matches without materializing (used by the evaluator's
    /// pattern-ordering heuristic).
    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize;

    // ---- named graphs ----

    /// Insert a triple into the named graph `graph`.
    fn insert_ids_in(&mut self, graph: TermId, t: Triple) -> bool;

    /// Remove a triple from the named graph `graph`. Returns true if it
    /// was present (knowledge-base template retraction unlinks the
    /// per-workload tagging triples through this).
    fn remove_ids_in(&mut self, graph: TermId, t: Triple) -> bool;

    /// Pattern scan over one named graph.
    fn scan_in(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple>;

    /// Interned ids of all non-empty named graphs, in deterministic
    /// order.
    fn graph_ids(&self) -> Vec<TermId>;

    // ---- maintenance ----

    /// Checkpoint the store's durable state, if it has any. The in-memory
    /// backends are their own checkpoint (a no-op returning `Ok`); a
    /// persistent backend like
    /// [`DurableStore`](crate::persist::DurableStore) folds its
    /// write-ahead log into a fresh snapshot here. Callers reach this
    /// through `FusekiLite::compact` without knowing the backend.
    fn compact(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Open a batch of mutations. A durable backend gathers them and
    /// journals them as **one** commit at [`end_batch`](Self::end_batch)
    /// — on disk whole or not at all; the in-memory backends ignore it.
    /// Balanced by `end_batch`; `FusekiLite` brackets every write
    /// transaction with the pair.
    fn begin_batch(&mut self) {}

    /// End a mutation batch: a durable backend writes the batch's commit
    /// here and must fail-stop if the write fails (the batch's mutations
    /// were already applied to the in-memory image). No-op by default.
    fn end_batch(&mut self) {}

    /// Write-ahead-log pressure of a durable backend — what the storage
    /// policy ([`crate::policy`]) watches to decide when
    /// [`compact`](Self::compact) is worth its cost. `None` for in-memory
    /// backends, which have nothing to fold.
    fn storage_pressure(&self) -> Option<StoragePressure> {
        None
    }

    // ---- provided term-level API ----

    /// Insert a triple of terms into the default graph. Returns true if
    /// it was new.
    fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.intern(s);
        let p = self.intern(p);
        let o = self.intern(o);
        self.insert_ids((s, p, o))
    }

    /// Insert a triple of terms into the named graph `graph`.
    fn insert_in(&mut self, graph: Term, s: Term, p: Term, o: Term) -> bool {
        let g = self.intern(graph);
        let s = self.intern(s);
        let p = self.intern(p);
        let o = self.intern(o);
        self.insert_ids_in(g, (s, p, o))
    }

    /// Remove a triple of terms. Returns true if it was present.
    fn remove(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let (Some(s), Some(p), Some(o)) = (self.term_id(s), self.term_id(p), self.term_id(o))
        else {
            return false;
        };
        self.remove_ids((s, p, o))
    }

    /// True if the ground triple is present in the default graph.
    fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.term_id(s), self.term_id(p), self.term_id(o)) {
            (Some(s), Some(p), Some(o)) => self.count(Some(s), Some(p), Some(o)) == 1,
            _ => false,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of all non-empty named graphs, in the order of
    /// [`graph_ids`](Self::graph_ids).
    fn graph_names(&self) -> Vec<Term> {
        let ids = self.graph_ids().into_iter();
        ids.map(|g| self.resolve(g).clone()).collect()
    }

    /// All default-graph triples in SPO order, resolved to terms.
    fn iter_terms(&self) -> Box<dyn Iterator<Item = (&Term, &Term, &Term)> + '_> {
        Box::new(
            self.scan(None, None, None)
                .into_iter()
                .map(move |(s, p, o)| (self.resolve(s), self.resolve(p), self.resolve(o))),
        )
    }
}

/// The least and greatest id: the inclusive ends of a prefix range.
const MIN: TermId = TermId(0);
const MAX: TermId = TermId(u32::MAX);

/// The keys of an ordered triple set that start with `a`, and with `b`
/// too when it is bound.
fn prefix(keys: &BTreeSet<Triple>, a: TermId, b: Option<TermId>) -> btree_set::Range<'_, Triple> {
    match b {
        Some(b) => keys.range((a, b, MIN)..=(a, b, MAX)),
        None => keys.range((a, MIN, MIN)..=(a, MAX, MAX)),
    }
}

/// The triples of `triples` that match a pattern, by a linear filter.
fn filter<'a>(
    triples: impl Iterator<Item = &'a Triple> + 'a,
    s: Option<TermId>,
    p: Option<TermId>,
    o: Option<TermId>,
) -> impl Iterator<Item = Triple> + 'a {
    triples.copied().filter(move |&(ts, tp, to)| {
        s.is_none_or(|s| s == ts) && p.is_none_or(|p| p == tp) && o.is_none_or(|o| o == to)
    })
}

/// Shared named-graph storage for the in-memory backends: one SPO-ordered
/// set per graph. Named graphs hold tagging metadata; a lookup with the
/// subject bound reads that subject's range, and one without it filters
/// the graph.
#[derive(Debug, Default, Clone)]
struct NamedGraphs {
    graphs: BTreeMap<TermId, BTreeSet<Triple>>,
}

impl NamedGraphs {
    fn insert(&mut self, graph: TermId, t: Triple) -> bool {
        self.graphs.entry(graph).or_default().insert(t)
    }

    fn remove(&mut self, graph: TermId, t: Triple) -> bool {
        let Some(triples) = self.graphs.get_mut(&graph) else {
            return false;
        };
        let removed = triples.remove(&t);
        if triples.is_empty() {
            self.graphs.remove(&graph);
        }
        removed
    }

    fn ids(&self) -> Vec<TermId> {
        self.graphs
            .iter()
            .filter(|(_, triples)| !triples.is_empty())
            .map(|(&g, _)| g)
            .collect()
    }

    /// Every triple of `graph`, in SPO order.
    fn triples(&self, graph: TermId) -> impl Iterator<Item = &Triple> {
        self.graphs.get(&graph).into_iter().flatten()
    }

    /// A pattern over `graph`, in SPO order.
    fn scan(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        let Some(triples) = self.graphs.get(&graph) else {
            return Vec::new();
        };
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => triples.get(&(s, p, o)).copied().into_iter().collect(),
            (Some(s), p, o) => filter(prefix(triples, s, p), None, None, o).collect(),
            (None, p, o) => filter(triples.iter(), None, p, o).collect(),
        }
    }
}

/// Indexed in-memory store: what an in-memory shard is.
///
/// The triples are held twice, as the ordered sets of their SPO and POS
/// permutations, so a publish writes each triple twice. A pattern that
/// binds its subject or its predicate is a prefix of one of them, and
/// `scan` and `count` read that one range: `(s, ?, o)` is the subject's
/// range filtered on `o`. No reader of the knowledge base binds the
/// object alone (only tests do), so `(?, ?, o)` has no permutation of its
/// own: it is one pass over SPO filtered on `o`. Results come out in the
/// order of the permutation that would have the pattern's bound terms as
/// its prefix: `(?, p, ?)` by `(o, s)`, `(s, ?, o)` by `p`, `(?, ?, o)`
/// by `(s, p)`.
///
/// The store interns through an [`Interner`] of its own, or — a shard's
/// store — through the sharded store's one.
#[derive(Debug)]
pub struct IndexedStore {
    interner: Arc<Interner>,
    /// `(s, p, o)`: the master copy; full scans and the S-prefix patterns.
    spo: BTreeSet<Triple>,
    /// `(p, o, s)`: the patterns with P bound and S free.
    pos: BTreeSet<Triple>,
    named: NamedGraphs,
}

impl IndexedStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of terms ever interned (ids are dense in `0..interner_len`),
    /// used or not.
    pub fn interner_len(&self) -> usize {
        self.interner.len()
    }

    /// An empty store interning through `interner`.
    pub(crate) fn with_interner(interner: Arc<Interner>) -> Self {
        IndexedStore {
            interner,
            spo: BTreeSet::new(),
            pos: BTreeSet::new(),
            named: NamedGraphs::default(),
        }
    }

    /// The one range a pattern reads, mapped back to `(s, p, o)` and
    /// filtered on an object the range does not bind. A fully bound
    /// pattern is a range of one key; `(?, ?, o)` is a filtered pass over
    /// SPO, which is already in its `(s, p)` order.
    fn range(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = Triple> + '_ {
        let (keys, to_spo, filter_o): (_, fn(&Triple) -> Triple, _) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => (self.spo.range((s, p, o)..=(s, p, o)), |&t| t, None),
            (Some(s), p, o) => (prefix(&self.spo, s, p), |&t| t, o),
            (None, Some(p), o) => (prefix(&self.pos, p, o), |&(p, o, s)| (s, p, o), None),
            (None, None, o) => (self.spo.range(..), |&t| t, o),
        };
        keys.map(to_spo)
            .filter(move |t| filter_o.is_none_or(|o| o == t.2))
    }
}

impl Default for IndexedStore {
    fn default() -> Self {
        Self::with_interner(Arc::default())
    }
}

impl TripleStore for IndexedStore {
    fn intern(&mut self, term: Term) -> TermId {
        self.interner.intern(term)
    }

    fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    fn resolve(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    fn insert_ids(&mut self, (s, p, o): Triple) -> bool {
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
        }
        added
    }

    fn remove_ids(&mut self, (s, p, o): Triple) -> bool {
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
        }
        removed
    }

    fn clear(&mut self) {
        self.spo.clear();
        self.pos.clear();
        self.named.graphs.clear();
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    fn scan(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        self.range(s, p, o).collect()
    }

    /// Counts the pattern's range, O(its length); the whole store is its
    /// length.
    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.spo.contains(&(s, p, o))),
            (None, None, None) => self.spo.len(),
            _ => self.range(s, p, o).count(),
        }
    }

    fn graph_ids(&self) -> Vec<TermId> {
        self.named.ids()
    }

    fn insert_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        self.named.insert(graph, t)
    }

    fn remove_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        self.named.remove(graph, t)
    }

    fn scan_in(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        self.named.scan(graph, s, p, o)
    }
}

/// Naive linear-scan store: the reference implementation.
///
/// Every pattern lookup, in the default graph and in a named one, walks
/// the full triple set. Kept for differential testing against
/// [`IndexedStore`] (see the proptests) and as the baseline side of the
/// indexed-vs-scan micro-benchmark; also a model of the minimal work a
/// new backend has to do.
#[derive(Debug, Default)]
pub struct ScanStore {
    interner: Interner,
    triples: BTreeSet<Triple>,
    named: NamedGraphs,
}

impl ScanStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl TripleStore for ScanStore {
    fn intern(&mut self, term: Term) -> TermId {
        self.interner.intern(term)
    }

    fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    fn resolve(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    fn insert_ids(&mut self, t: Triple) -> bool {
        self.triples.insert(t)
    }

    fn remove_ids(&mut self, t: Triple) -> bool {
        self.triples.remove(&t)
    }

    fn clear(&mut self) {
        self.triples.clear();
        self.named.graphs.clear();
    }

    fn len(&self) -> usize {
        self.triples.len()
    }

    fn scan(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        filter(self.triples.iter(), s, p, o).collect()
    }

    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        filter(self.triples.iter(), s, p, o).count()
    }

    fn graph_ids(&self) -> Vec<TermId> {
        self.named.ids()
    }

    fn insert_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        self.named.insert(graph, t)
    }

    fn remove_ids_in(&mut self, graph: TermId, t: Triple) -> bool {
        self.named.remove(graph, t)
    }

    fn scan_in(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        filter(self.named.triples(graph), s, p, o).collect()
    }
}

/// The typed rejection a read replica answers client writes with, from
/// its one gate, [`FusekiLite::check_writable`](crate::FusekiLite::check_writable).
/// The fallible endpoints return it wrapped in
/// [`crate::ServerError::ReadOnlyReplica`]; the infallible ones, and the
/// knowledge base's mutators above them, raise it as a panic payload
/// (`panic_any`) — loud by construction, and `catch_unwind` callers can
/// downcast to this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOnlyReplica {
    /// The rejected operation, e.g. `"insert_triples"` or `"update"`.
    pub op: &'static str,
}

impl fmt::Display for ReadOnlyReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read-only replica rejected {}: writes must go to the primary",
            self.op
        )
    }
}

impl std::error::Error for ReadOnlyReplica {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(n: u32) -> Term {
        Term::iri(format!("http://galo/qep/pop/{n}"))
    }

    fn prop(name: &str) -> Term {
        Term::iri(format!("http://galo/qep/property/{name}"))
    }

    fn fill_paper_store(st: &mut dyn TripleStore) {
        // The triples from paper §3.1.
        st.insert(pop(2), prop("hasPopType"), Term::lit("NLJOIN"));
        st.insert(pop(2), prop("hasEstimateCardinality"), Term::lit("2949250"));
        st.insert(pop(2), prop("hasOuterInputStream"), pop(3));
        st.insert(pop(3), prop("hasOutputStream"), pop(2));
    }

    fn paper_store() -> IndexedStore {
        let mut st = IndexedStore::new();
        fill_paper_store(&mut st);
        st
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut st = paper_store();
        assert_eq!(st.len(), 4);
        assert!(!st.insert(pop(2), prop("hasPopType"), Term::lit("NLJOIN")));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn contains_and_remove() {
        let mut st = paper_store();
        assert!(st.contains(&pop(2), &prop("hasPopType"), &Term::lit("NLJOIN")));
        assert!(st.remove(&pop(2), &prop("hasPopType"), &Term::lit("NLJOIN")));
        assert!(!st.contains(&pop(2), &prop("hasPopType"), &Term::lit("NLJOIN")));
        assert!(!st.remove(&pop(2), &prop("hasPopType"), &Term::lit("NLJOIN")));
        assert_eq!(st.len(), 3);
    }

    fn assert_scan_patterns(st: &dyn TripleStore) {
        let s = st.term_id(&pop(2));
        let p = st.term_id(&prop("hasOuterInputStream"));
        let o = st.term_id(&pop(3));
        // s p o
        assert_eq!(st.scan(s, p, o).len(), 1);
        // s p ?
        assert_eq!(st.scan(s, p, None).len(), 1);
        // s ? ?
        assert_eq!(st.scan(s, None, None).len(), 3);
        // ? p o
        assert_eq!(st.scan(None, p, o).len(), 1);
        // ? p ?
        assert_eq!(st.scan(None, p, None).len(), 1);
        // ? ? o
        assert_eq!(st.scan(None, None, o).len(), 1);
        // s ? o
        assert_eq!(st.scan(s, None, o).len(), 1);
        // ? ? ?
        assert_eq!(st.scan(None, None, None).len(), 4);
    }

    #[test]
    fn scan_all_access_patterns_both_backends() {
        let st = paper_store();
        assert_scan_patterns(&st);
        let mut scan = ScanStore::new();
        fill_paper_store(&mut scan);
        assert_scan_patterns(&scan);
    }

    #[test]
    fn scan_with_unknown_term_is_empty() {
        let st = paper_store();
        assert!(st.term_id(&pop(99)).is_none());
        // A pattern whose constant was never interned matches nothing;
        // callers check term_id first, but a fresh id must also be safe.
        assert_eq!(st.scan(Some(TermId(9999)), None, None).len(), 0);
    }

    #[test]
    fn indexes_stay_consistent_under_churn() {
        let mut st = IndexedStore::new();
        for i in 0..100u32 {
            st.insert(pop(i), prop("hasOutputStream"), pop(i + 1));
        }
        for i in (0..100u32).step_by(2) {
            st.remove(&pop(i), &prop("hasOutputStream"), &pop(i + 1));
        }
        assert_eq!(st.len(), 50);
        let p = st.term_id(&prop("hasOutputStream"));
        assert_eq!(st.scan(None, p, None).len(), 50);
        // Every remaining triple reachable from all three index shapes.
        for (s, _, o) in st.scan(None, p, None) {
            assert_eq!(st.scan(Some(s), p, Some(o)).len(), 1);
            assert_eq!(st.scan(Some(s), None, Some(o)).len(), 1);
        }
        // Counts stay keyed and consistent too.
        assert_eq!(st.count(None, p, None), 50);
        assert_eq!(st.count(None, None, None), 50);
    }

    #[test]
    fn stores_are_usable_as_trait_objects() {
        let mut boxed: Box<dyn TripleStore> = Box::<IndexedStore>::default();
        fill_paper_store(boxed.as_mut());
        assert_eq!(boxed.len(), 4);
        assert_eq!(boxed.iter_terms().count(), 4);
        let boxed_scan: Box<dyn TripleStore> = Box::<ScanStore>::default();
        assert!(boxed_scan.is_empty());
    }

    #[test]
    fn named_graphs_enumerate_and_scan() {
        let mut st = IndexedStore::new();
        assert!(st.graph_names().is_empty());
        let g1 = Term::iri("http://galo/graph/workload/tpcds");
        let g2 = Term::iri("http://galo/graph/workload/client");
        st.insert_in(g1.clone(), pop(1), prop("hasPopType"), Term::lit("NLJOIN"));
        st.insert_in(g1.clone(), pop(2), prop("hasPopType"), Term::lit("HSJOIN"));
        st.insert_in(g2.clone(), pop(3), prop("hasPopType"), Term::lit("IXSCAN"));
        assert_eq!(st.graph_names(), vec![g1.clone(), g2.clone()]);
        // Named graphs are disjoint from the default graph.
        assert_eq!(st.len(), 0);
        let g = st.term_id(&g1).expect("graph name interned");
        let p = st.term_id(&prop("hasPopType"));
        assert_eq!(st.scan_in(g, None, p, None).len(), 2);
        let s1 = st.term_id(&pop(1));
        assert_eq!(st.scan_in(g, s1, p, None).len(), 1);
    }

    #[test]
    fn named_graph_remove_is_set_semantics_on_both_backends() {
        for mut st in [
            Box::<IndexedStore>::default() as Box<dyn TripleStore>,
            Box::<ScanStore>::default(),
        ] {
            let g = Term::iri("http://galo/graph/workload/tpcds");
            st.insert_in(g.clone(), pop(1), prop("hasPopType"), Term::lit("NLJOIN"));
            st.insert_in(g.clone(), pop(2), prop("hasPopType"), Term::lit("HSJOIN"));
            let gid = st.term_id(&g).unwrap();
            let t = (
                st.term_id(&pop(1)).unwrap(),
                st.term_id(&prop("hasPopType")).unwrap(),
                st.term_id(&Term::lit("NLJOIN")).unwrap(),
            );
            assert!(st.remove_ids_in(gid, t));
            assert!(!st.remove_ids_in(gid, t), "second removal is a no-op");
            assert_eq!(st.scan_in(gid, None, None, None).len(), 1);
            // Emptying a graph drops it from the enumeration.
            let t2 = (
                st.term_id(&pop(2)).unwrap(),
                st.term_id(&prop("hasPopType")).unwrap(),
                st.term_id(&Term::lit("HSJOIN")).unwrap(),
            );
            assert!(st.remove_ids_in(gid, t2));
            assert!(st.graph_names().is_empty());
        }
    }

    #[test]
    fn clear_empties_all_graphs() {
        let mut st = IndexedStore::new();
        fill_paper_store(&mut st);
        st.insert_in(Term::iri("http://g"), pop(9), prop("x"), Term::lit("1"));
        st.clear();
        assert_eq!(st.len(), 0);
        assert!(st.graph_names().is_empty());
        assert_eq!(st.count(None, None, None), 0);
        // Interned ids survive a clear.
        assert!(st.term_id(&pop(2)).is_some());
    }
}
