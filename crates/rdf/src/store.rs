//! Triple storage: the [`TripleStore`] trait and its in-memory backends.
//!
//! The knowledge base is the hot path of online re-optimization — every
//! incoming plan segment becomes a SPARQL query against it — so storage
//! is behind a trait: [`IndexedStore`] (hash-indexed, the default) serves
//! keyed triple-pattern lookups, while [`ScanStore`] is the naive
//! linear-scan reference used to cross-check results and benchmark the
//! indexes. A persistent or sharded backend can be dropped in without
//! touching the evaluator, the server, or the matching engine.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

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
/// A store owns a term [`Interner`] and a default graph of triples, plus
/// optional named graphs. The required methods work on interned
/// [`TermId`]s — the evaluator's hot path; the provided methods lift them
/// to [`Term`]s for callers that deal in concrete terms.
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
/// several threads at once, but the sharded backend's sessions *are* their
/// lock guards, which must be released on the thread that took them. An
/// owned backend that moves between threads is a
/// `Box<dyn TripleStore + Send>`, and that is what the endpoint holds.
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

    /// Names of all non-empty named graphs, in deterministic order.
    fn graph_names(&self) -> Vec<Term>;

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

    /// Interned ids of all non-empty named graphs, in the same order as
    /// [`graph_names`](Self::graph_names). The sharded backend uses this
    /// to enumerate a shard's graphs without resolving through the
    /// shard-local interner.
    fn graph_ids(&self) -> Vec<TermId> {
        self.graph_names()
            .iter()
            .filter_map(|g| self.term_id(g))
            .collect()
    }

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

    /// All default-graph triples in SPO order, resolved to terms.
    fn iter_terms(&self) -> Box<dyn Iterator<Item = (&Term, &Term, &Term)> + '_> {
        Box::new(
            self.scan(None, None, None)
                .into_iter()
                .map(move |(s, p, o)| (self.resolve(s), self.resolve(p), self.resolve(o))),
        )
    }
}

/// Shared named-graph storage for the in-memory backends: per-graph
/// B-tree sets, scanned linearly (named graphs hold tagging metadata and
/// stay small; the hot path is the default graph).
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

    fn names(&self, resolve: impl Fn(TermId) -> Term) -> Vec<Term> {
        self.graphs
            .iter()
            .filter(|(_, triples)| !triples.is_empty())
            .map(|(&g, _)| resolve(g))
            .collect()
    }

    fn ids(&self) -> Vec<TermId> {
        self.graphs
            .iter()
            .filter(|(_, triples)| !triples.is_empty())
            .map(|(&g, _)| g)
            .collect()
    }

    fn scan(
        &self,
        graph: TermId,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        self.graphs
            .get(&graph)
            .map(|triples| {
                triples
                    .iter()
                    .filter(|&&(ts, tp, to)| {
                        s.is_none_or(|s| s == ts)
                            && p.is_none_or(|p| p == tp)
                            && o.is_none_or(|o| o == to)
                    })
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Hash-indexed in-memory backend: the default [`TripleStore`].
///
/// Every bound prefix of the SPO/POS/OSP access patterns is keyed: the
/// master B-tree set in SPO order serves S-prefix patterns via prefix
/// ranges (and full scans, `iter_terms`, deterministic N-Triples export),
/// while four hash indexes cover the POS and OSP families — so no
/// `scan`/`count` ever passes over the whole store.
#[derive(Debug, Default, Clone)]
pub struct IndexedStore {
    interner: Interner,
    /// Master copy in SPO order; prefix ranges serve the S-bound patterns.
    spo: BTreeSet<Triple>,
    /// p -> (o, s): the POS index family.
    by_p: HashMap<TermId, BTreeSet<(TermId, TermId)>>,
    by_po: HashMap<(TermId, TermId), BTreeSet<TermId>>,
    /// o -> (s, p): the OSP index family.
    by_o: HashMap<TermId, BTreeSet<(TermId, TermId)>>,
    by_os: HashMap<(TermId, TermId), BTreeSet<TermId>>,
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
}

/// Remove `key -> member` from a one-to-many hash index, dropping the
/// entry when its set empties.
fn index_remove<K: std::hash::Hash + Eq, V: Ord>(
    index: &mut HashMap<K, BTreeSet<V>>,
    key: K,
    member: &V,
) {
    if let Some(set) = index.get_mut(&key) {
        set.remove(member);
        if set.is_empty() {
            index.remove(&key);
        }
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
            self.by_p.entry(p).or_default().insert((o, s));
            self.by_po.entry((p, o)).or_default().insert(s);
            self.by_o.entry(o).or_default().insert((s, p));
            self.by_os.entry((o, s)).or_default().insert(p);
        }
        added
    }

    fn remove_ids(&mut self, (s, p, o): Triple) -> bool {
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            index_remove(&mut self.by_p, p, &(o, s));
            index_remove(&mut self.by_po, (p, o), &s);
            index_remove(&mut self.by_o, o, &(s, p));
            index_remove(&mut self.by_os, (o, s), &p);
        }
        removed
    }

    fn clear(&mut self) {
        self.spo.clear();
        self.by_p.clear();
        self.by_po.clear();
        self.by_o.clear();
        self.by_os.clear();
        self.named.graphs.clear();
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    fn scan(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&(s, p, o)) {
                    vec![(s, p, o)]
                } else {
                    vec![]
                }
            }
            (Some(s), Some(p), None) => self
                .spo
                .range((s, p, TermId(0))..=(s, p, TermId(u32::MAX)))
                .copied()
                .collect(),
            (Some(s), None, None) => self
                .spo
                .range((s, TermId(0), TermId(0))..=(s, TermId(u32::MAX), TermId(u32::MAX)))
                .copied()
                .collect(),
            (Some(s), None, Some(o)) => self
                .by_os
                .get(&(o, s))
                .map(|ps| ps.iter().map(|&p| (s, p, o)).collect())
                .unwrap_or_default(),
            (None, Some(p), Some(o)) => self
                .by_po
                .get(&(p, o))
                .map(|ss| ss.iter().map(|&s| (s, p, o)).collect())
                .unwrap_or_default(),
            (None, Some(p), None) => self
                .by_p
                .get(&p)
                .map(|os| os.iter().map(|&(o, s)| (s, p, o)).collect())
                .unwrap_or_default(),
            (None, None, Some(o)) => self
                .by_o
                .get(&o)
                .map(|sp| sp.iter().map(|&(s, p)| (s, p, o)).collect())
                .unwrap_or_default(),
            (None, None, None) => self.spo.iter().copied().collect(),
        }
    }

    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.spo.contains(&(s, p, o))),
            (Some(s), Some(p), None) => self
                .spo
                .range((s, p, TermId(0))..=(s, p, TermId(u32::MAX)))
                .count(),
            (Some(s), None, None) => self
                .spo
                .range((s, TermId(0), TermId(0))..=(s, TermId(u32::MAX), TermId(u32::MAX)))
                .count(),
            (Some(s), None, Some(o)) => self.by_os.get(&(o, s)).map_or(0, BTreeSet::len),
            (None, Some(p), Some(o)) => self.by_po.get(&(p, o)).map_or(0, BTreeSet::len),
            (None, Some(p), None) => self.by_p.get(&p).map_or(0, BTreeSet::len),
            (None, None, Some(o)) => self.by_o.get(&o).map_or(0, BTreeSet::len),
            (None, None, None) => self.spo.len(),
        }
    }

    fn graph_names(&self) -> Vec<Term> {
        self.named.names(|g| self.interner.resolve(g).clone())
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

/// Naive linear-scan backend: the reference implementation.
///
/// Every pattern lookup walks the full triple set. Kept for differential
/// testing against [`IndexedStore`] (see the proptests) and as the
/// baseline side of the indexed-vs-scan micro-benchmark; also a model of
/// the minimal work a new backend has to do.
#[derive(Debug, Default, Clone)]
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
        self.triples
            .iter()
            .filter(|&&(ts, tp, to)| {
                s.is_none_or(|s| s == ts) && p.is_none_or(|p| p == tp) && o.is_none_or(|o| o == to)
            })
            .copied()
            .collect()
    }

    fn count(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.triples
            .iter()
            .filter(|&&(ts, tp, to)| {
                s.is_none_or(|s| s == ts) && p.is_none_or(|p| p == tp) && o.is_none_or(|o| o == to)
            })
            .count()
    }

    fn graph_names(&self) -> Vec<Term> {
        self.named.names(|g| self.interner.resolve(g).clone())
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
