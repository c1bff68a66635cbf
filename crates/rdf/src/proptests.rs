//! Property-based tests for the RDF substrate: store index consistency,
//! N-Triples round-trips and SPARQL evaluation invariants.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use crate::ntriples::{from_ntriples, to_ntriples};
use crate::persist::{DurableStore, ScratchDir};
use crate::policy::CompactionTarget;
use crate::shard::ShardedStore;
use crate::sparql::{evaluate, parse_select};
use crate::store::{IndexedStore, ScanStore, Triple, TripleStore};
use crate::term::{Term, TermId};

fn arb_iri() -> impl Strategy<Value = Term> {
    "[a-z]{1,6}(/[a-z0-9]{1,4}){0,2}".prop_map(|p| Term::iri(format!("http://t/{p}")))
}

fn arb_literal() -> impl Strategy<Value = Term> {
    prop_oneof![
        // Printable text including characters that need escaping.
        "[ -~]{0,12}".prop_map(Term::lit),
        any::<i32>().prop_map(|n| Term::lit(n.to_string())),
        (any::<f32>().prop_filter("finite", |f| f.is_finite()))
            .prop_map(|f| Term::lit(format!("{f}"))),
    ]
}

fn arb_triple() -> impl Strategy<Value = (Term, Term, Term)> {
    (arb_iri(), arb_iri(), prop_oneof![arb_iri(), arb_literal()])
}

/// One mutation drawn over a shared triple pool, so removes sometimes hit
/// stored triples: `(kind, pool index, graph index)`. Kind 0–7 insert,
/// 8–13 remove, 14–16 insert into a named graph, 17–18 remove from one,
/// 19 clears everything (rare on purpose).
type RawOp = (u8, prop::sample::Index, u8);

fn graph_term(g: u8) -> Term {
    Term::iri(format!("http://t/graph/{g}"))
}

/// Apply one raw op to any backend; returns what the mutation reported
/// (insert/remove return whether state changed — the set-semantics bit
/// the differential test pins across backends).
fn apply_store_op(
    st: &mut dyn TripleStore,
    pool: &[(Term, Term, Term)],
    (kind, idx, g): &RawOp,
) -> bool {
    let (s, p, o) = pool[idx.index(pool.len())].clone();
    match kind {
        0..=7 => st.insert(s, p, o),
        8..=13 => st.remove(&s, &p, &o),
        14..=16 => st.insert_in(graph_term(*g), s, p, o),
        17..=18 => {
            let ids = (st.term_id(&s), st.term_id(&p), st.term_id(&o));
            match (st.term_id(&graph_term(*g)), ids) {
                (Some(gid), (Some(s), Some(p), Some(o))) => st.remove_ids_in(gid, (s, p, o)),
                _ => false,
            }
        }
        _ => {
            st.clear();
            true
        }
    }
}

/// The backend-independent image of a store: default-graph triples plus
/// per-graph tagged triples, at the term level (interned ids are not
/// comparable across backends or reopens).
pub(crate) type StoreImage = (
    BTreeSet<(Term, Term, Term)>,
    BTreeMap<Term, BTreeSet<(Term, Term, Term)>>,
);

pub(crate) fn store_image(st: &dyn TripleStore) -> StoreImage {
    let default_graph = st
        .iter_terms()
        .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
        .collect();
    let named = st
        .graph_names()
        .into_iter()
        .map(|graph| {
            let gid = st.term_id(&graph).expect("graph name interned");
            let tagged = st
                .scan_in(gid, None, None, None)
                .into_iter()
                .map(|(s, p, o)| {
                    (
                        st.resolve(s).clone(),
                        st.resolve(p).clone(),
                        st.resolve(o).clone(),
                    )
                })
                .collect();
            (graph, tagged)
        })
        .collect();
    (default_graph, named)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert/remove keeps all three indexes consistent; scans agree.
    #[test]
    fn store_indexes_stay_consistent(
        triples in prop::collection::vec(arb_triple(), 1..40),
        remove_mask in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut store = IndexedStore::new();
        for (s, p, o) in &triples {
            store.insert(s.clone(), p.clone(), o.clone());
        }
        for ((s, p, o), rm) in triples.iter().zip(remove_mask.iter().cycle()) {
            if *rm {
                store.remove(s, p, o);
            }
        }
        // Every remaining triple is findable through all access patterns.
        let all: Vec<_> = store
            .iter_terms()
            .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
            .collect();
        prop_assert_eq!(all.len(), store.len());
        for (s, p, o) in &all {
            prop_assert!(store.contains(s, p, o));
            let (si, pi, oi) = (
                store.term_id(s).expect("interned"),
                store.term_id(p).expect("interned"),
                store.term_id(o).expect("interned"),
            );
            prop_assert_eq!(store.scan(Some(si), Some(pi), None).iter()
                .filter(|t| t.2 == oi).count(), 1);
            prop_assert_eq!(store.scan(None, Some(pi), Some(oi)).iter()
                .filter(|t| t.0 == si).count(), 1);
            prop_assert_eq!(store.scan(Some(si), None, Some(oi)).iter()
                .filter(|t| t.1 == pi).count(), 1);
        }
    }

    /// N-Triples serialization round-trips arbitrary stores.
    #[test]
    fn ntriples_roundtrip(triples in prop::collection::vec(arb_triple(), 0..30)) {
        let mut store = IndexedStore::new();
        for (s, p, o) in &triples {
            store.insert(s.clone(), p.clone(), o.clone());
        }
        let text = to_ntriples(&store);
        let back = from_ntriples(&text).expect("own output parses");
        prop_assert_eq!(back.len(), store.len());
        for (s, p, o) in store.iter_terms() {
            prop_assert!(back.contains(s, p, o), "lost {s} {p} {o}");
        }
    }

    /// A `SELECT ?s ?o WHERE {{ ?s <p> ?o }}` query returns exactly the
    /// triples stored under that predicate.
    #[test]
    fn bgp_single_pattern_is_exact(
        triples in prop::collection::vec(arb_triple(), 1..30),
        pick in any::<prop::sample::Index>(),
    ) {
        let mut store = IndexedStore::new();
        for (s, p, o) in &triples {
            store.insert(s.clone(), p.clone(), o.clone());
        }
        let (_, pred, _) = &triples[pick.index(triples.len())];
        let expected = store
            .iter_terms()
            .filter(|(_, p, _)| *p == pred)
            .count();
        let q = parse_select(&format!(
            "SELECT ?s ?o WHERE {{ ?s <{}> ?o . }}",
            pred.str_value()
        ))
        .expect("query parses");
        let rs = evaluate(&store, &q);
        prop_assert_eq!(rs.len(), expected);
    }

    /// DISTINCT never increases the row count and is idempotent.
    #[test]
    fn distinct_is_contractive(triples in prop::collection::vec(arb_triple(), 1..30)) {
        let mut store = IndexedStore::new();
        for (s, p, o) in &triples {
            store.insert(s.clone(), p.clone(), o.clone());
        }
        let plain = evaluate(
            &store,
            &parse_select("SELECT ?p WHERE { ?s ?x ?o . }").unwrap_or_else(|_| parse_select("SELECT ?s WHERE { ?s <http://t/q> ?o . }").expect("parses")),
        );
        let _ = plain;
        // Use a concrete predicate from the data for a meaningful check.
        let pred = triples[0].1.str_value().to_string();
        let q1 = parse_select(&format!("SELECT ?s WHERE {{ ?s <{pred}> ?o . }}")).expect("q");
        let q2 =
            parse_select(&format!("SELECT DISTINCT ?s WHERE {{ ?s <{pred}> ?o . }}")).expect("q");
        let all = evaluate(&store, &q1);
        let distinct = evaluate(&store, &q2);
        prop_assert!(distinct.len() <= all.len());
        let rerun = evaluate(&store, &q2);
        prop_assert_eq!(distinct.len(), rerun.len());
    }

    /// Property-path `+` results equal the transitive closure computed by
    /// a reference BFS.
    #[test]
    fn plus_path_equals_reference_closure(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..25),
        start in 0u8..12,
    ) {
        let mut store = IndexedStore::new();
        let node = |n: u8| Term::iri(format!("http://n/{n}"));
        for (a, b) in &edges {
            store.insert(node(*a), Term::iri("http://p/next"), node(*b));
        }
        // Reference BFS.
        let mut reach = std::collections::BTreeSet::new();
        let mut queue = vec![start];
        let mut visited = std::collections::BTreeSet::new();
        while let Some(cur) = queue.pop() {
            if !visited.insert(cur) {
                continue;
            }
            for (a, b) in &edges {
                if *a == cur {
                    reach.insert(*b);
                    queue.push(*b);
                }
            }
        }
        let q = parse_select(&format!(
            "SELECT ?x WHERE {{ <http://n/{start}> <http://p/next>+ ?x . }}"
        ))
        .expect("q");
        let rs = evaluate(&store, &q);
        prop_assert_eq!(rs.len(), reach.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test of the backends: after the same churn, the
    /// indexed store answers every one of the eight triple patterns
    /// identically to the naive scan reference.
    #[test]
    fn indexed_store_matches_scan_reference(
        triples in prop::collection::vec(arb_triple(), 1..50),
        remove_mask in prop::collection::vec(any::<bool>(), 1..50),
        probe in any::<prop::sample::Index>(),
    ) {
        let mut indexed = IndexedStore::new();
        let mut reference = ScanStore::new();
        for (s, p, o) in &triples {
            indexed.insert(s.clone(), p.clone(), o.clone());
            reference.insert(s.clone(), p.clone(), o.clone());
        }
        for ((s, p, o), rm) in triples.iter().zip(remove_mask.iter().cycle()) {
            if *rm {
                indexed.remove(s, p, o);
                reference.remove(s, p, o);
            }
        }
        prop_assert_eq!(indexed.len(), reference.len());

        // Interning orders agree (same insertion sequence), so ids are
        // directly comparable across the two stores.
        let (s, p, o) = &triples[probe.index(triples.len())];
        let ids = |st: &dyn TripleStore| {
            (st.term_id(s), st.term_id(p), st.term_id(o))
        };
        prop_assert_eq!(ids(&indexed), ids(&reference));
        let (si, pi, oi) = ids(&indexed);

        // All eight access patterns over a probe triple's components.
        for s_pat in [None, si] {
            for p_pat in [None, pi] {
                for o_pat in [None, oi] {
                    let got = indexed.scan(s_pat, p_pat, o_pat);
                    let want = reference.scan(s_pat, p_pat, o_pat);
                    let mut got_sorted = got.clone();
                    got_sorted.sort_unstable();
                    prop_assert_eq!(
                        &got_sorted, &want,
                        "pattern ({s_pat:?}, {p_pat:?}, {o_pat:?})"
                    );
                    prop_assert_eq!(indexed.count(s_pat, p_pat, o_pat), want.len());
                }
            }
        }
    }
}

/// The key a pattern's results are ordered by: the permutation whose
/// bound prefix the pattern is (SPO for the S-prefix patterns and the
/// full scan, POS for a bound P without S, OSP for a bound O without P).
fn permutation_key((s, p, o): (bool, bool, bool), (ts, tp, to): Triple) -> Triple {
    match (s, p, o) {
        (false, true, _) => (tp, to, ts),
        (_, false, true) => (to, ts, tp),
        _ => (ts, tp, to),
    }
}

/// Every one of the eight patterns over `probe`'s terms: the indexed
/// store returns the reference's triples in the order of the
/// pattern's permutation key, and `count` is their number.
fn assert_scan_order(indexed: &IndexedStore, reference: &ScanStore, probe: Triple) {
    for bound_s in [false, true] {
        for bound_p in [false, true] {
            for bound_o in [false, true] {
                let bound = (bound_s, bound_p, bound_o);
                let (s, p, o) = (
                    Some(probe.0).filter(|_| bound_s),
                    Some(probe.1).filter(|_| bound_p),
                    Some(probe.2).filter(|_| bound_o),
                );
                let mut want = reference.scan(s, p, o);
                want.sort_by_key(|&t| permutation_key(bound, t));
                let got = indexed.scan(s, p, o);
                assert_eq!(got, want, "pattern ({s:?}, {p:?}, {o:?})");
                assert_eq!(
                    indexed.count(s, p, o),
                    want.len(),
                    "count ({s:?}, {p:?}, {o:?})"
                );
            }
        }
    }
}

/// The scan-order contract of the indexed store, on a store of several
/// thousand triples under churn: every pattern returns the reference's
/// triples in its permutation's order, and counts them.
#[test]
fn scans_follow_the_order_of_each_patterns_permutation() {
    let mut indexed = IndexedStore::new();
    let mut reference = ScanStore::new();
    // Terms 0..80 are nodes; the predicates are term 0 (the first
    // interned id, which pins the ranges' inclusive lower ends) and
    // terms 80..86.
    let ids: Vec<TermId> = (0..86u32)
        .map(|n| {
            let a = indexed.intern(Term::iri(format!("http://t/n/{n}")));
            assert_eq!(reference.intern(Term::iri(format!("http://t/n/{n}"))), a);
            a
        })
        .collect();
    assert_eq!(ids[0], TermId(0));
    let preds: Vec<TermId> = std::iter::once(ids[0])
        .chain(ids[80..].iter().copied())
        .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    // Churn: three inserts to one removal of an earlier draw, over
    // enough triples that every permutation is a multi-level tree.
    let mut drawn: Vec<Triple> = Vec::new();
    for _ in 0..12_000 {
        if next(4) == 0 && !drawn.is_empty() {
            let t = drawn[next(drawn.len())];
            assert_eq!(indexed.remove_ids(t), reference.remove_ids(t));
        } else {
            let t = (ids[next(80)], preds[next(preds.len())], ids[next(80)]);
            assert_eq!(indexed.insert_ids(t), reference.insert_ids(t));
            drawn.push(t);
        }
    }
    // A triple of id 0 alone, and ids at the top of the id space,
    // pin both inclusive ends of every range.
    let top = TermId(u32::MAX);
    let pins = [
        (ids[0], ids[0], ids[0]),
        (ids[0], ids[0], top),
        (top, ids[0], top),
    ];
    for t in pins {
        assert_eq!(indexed.insert_ids(t), reference.insert_ids(t));
    }
    assert!(indexed.len() >= 5_000, "only {} triples", indexed.len());
    assert_eq!(indexed.len(), reference.len());

    let mut probes: Vec<Triple> = (0..150).map(|_| drawn[next(drawn.len())]).collect();
    probes.extend(pins);
    // Probes that mix terms of different triples, so some match nothing.
    probes.extend((0..50).map(|_| (ids[next(86)], preds[next(preds.len())], ids[next(86)])));
    for &probe in &probes {
        assert_scan_order(&indexed, &reference, probe);
    }

    for t in reference.scan(None, None, None) {
        assert!(indexed.remove_ids(t));
        assert!(reference.remove_ids(t));
    }
    // Emptied, every pattern of every probe scans and counts nothing.
    assert_eq!(indexed.len(), 0);
    for &probe in &probes {
        assert_scan_order(&indexed, &reference, probe);
    }
}

/// A triple over a small vocabulary (five nodes, three predicates), so
/// subjects, predicate–object pairs and objects repeat and every pattern
/// has several matches.
fn small_triple() -> impl Strategy<Value = (Term, Term, Term)> {
    (0u8..5, 0u8..3, 0u8..5).prop_map(|(s, p, o)| {
        (
            Term::iri(format!("http://t/n/{s}")),
            Term::iri(format!("http://t/p/{p}")),
            Term::iri(format!("http://t/n/{o}")),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test of the named graphs: after the same churn, the
    /// indexed store's `scan_in` answers all eight patterns over every
    /// graph exactly as the scan reference's linear filter does, in the
    /// same order.
    #[test]
    fn named_graph_scans_match_scan_reference(
        pool in prop::collection::vec(small_triple(), 4..24),
        ops in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..80),
    ) {
        let mut indexed = IndexedStore::new();
        let mut reference = ScanStore::new();
        for op in &ops {
            let got = apply_store_op(&mut indexed, &pool, op);
            let want = apply_store_op(&mut reference, &pool, op);
            prop_assert_eq!(got, want, "set-semantics disagreement on {:?}", op);
        }
        // Same op sequence, same interning order: ids compare directly.
        let id = |t: &Term| indexed.term_id(t);
        for g in 0..3u8 {
            let Some(gid) = id(&graph_term(g)) else { continue };
            prop_assert_eq!(Some(gid), reference.term_id(&graph_term(g)));
            for (s, p, o) in &pool {
                let (Some(si), Some(pi), Some(oi)) = (id(s), id(p), id(o)) else { continue };
                for s_pat in [None, Some(si)] {
                    for p_pat in [None, Some(pi)] {
                        for o_pat in [None, Some(oi)] {
                            prop_assert_eq!(
                                indexed.scan_in(gid, s_pat, p_pat, o_pat),
                                reference.scan_in(gid, s_pat, p_pat, o_pat),
                                "graph {} pattern ({:?}, {:?}, {:?})", g, s_pat, p_pat, o_pat
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential test of the durable backend: after an arbitrary
    /// mutation history (inserts, removes, named-graph tags, clears), the
    /// WAL-journaling store agrees with the in-memory reference op by op,
    /// state for state — and a reopen (snapshot-free recovery: pure log
    /// replay) reproduces the exact same image.
    #[test]
    fn persistent_store_matches_indexed_reference(
        pool in prop::collection::vec(arb_triple(), 4..12),
        ops in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..50),
    ) {
        let dir = ScratchDir::new("prop-durable-diff");
        let mut durable = DurableStore::open(dir.path()).expect("durable store opens");
        let mut reference = IndexedStore::new();
        for op in &ops {
            let got = apply_store_op(&mut durable, &pool, op);
            let want = apply_store_op(&mut reference, &pool, op);
            prop_assert_eq!(got, want, "set-semantics disagreement on {:?}", op);
        }
        prop_assert_eq!(durable.len(), reference.len());
        prop_assert_eq!(store_image(&durable), store_image(&reference));
        drop(durable);
        let recovered = DurableStore::open(dir.path()).expect("recovery succeeds");
        prop_assert_eq!(store_image(&recovered), store_image(&reference));
    }

    /// Compaction mid-history changes nothing observable: snapshot + log
    /// replay ≡ the full in-memory history, including a second
    /// compact/reopen cycle (recovery from a snapshot alone).
    #[test]
    fn persistent_compaction_preserves_history(
        pool in prop::collection::vec(arb_triple(), 4..10),
        ops1 in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..30),
        ops2 in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..30),
    ) {
        let dir = ScratchDir::new("prop-durable-compact");
        let mut durable = DurableStore::open(dir.path()).expect("opens");
        let mut reference = IndexedStore::new();
        for op in &ops1 {
            apply_store_op(&mut durable, &pool, op);
            apply_store_op(&mut reference, &pool, op);
        }
        durable.compact().expect("compaction succeeds");
        prop_assert_eq!(durable.wal_records(), 0);
        for op in &ops2 {
            apply_store_op(&mut durable, &pool, op);
            apply_store_op(&mut reference, &pool, op);
        }
        drop(durable);
        // Recovery: snapshot(ops1) + wal(ops2).
        let mut recovered = DurableStore::open(dir.path()).expect("recovers");
        prop_assert_eq!(store_image(&recovered), store_image(&reference));
        // Recovery from the snapshot alone (empty log tail).
        recovered.compact().expect("second compaction succeeds");
        drop(recovered);
        let again = DurableStore::open(dir.path()).expect("recovers from snapshot");
        prop_assert_eq!(store_image(&again), store_image(&reference));
    }

    /// Differential test of the sharded backend: for any shard count
    /// (including the degenerate N=1) and any op history over the full
    /// mutation surface — one write session per op — `ShardedStore`
    /// agrees with the in-memory reference op by op (set semantics) and,
    /// read back through one read session, state for state.
    #[test]
    fn sharded_store_matches_indexed_reference(
        shards in 1usize..=4,
        pool in prop::collection::vec(arb_triple(), 4..12),
        ops in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..50),
    ) {
        let sharded = ShardedStore::new(shards);
        let mut reference = IndexedStore::new();
        for op in &ops {
            let got = apply_store_op(&mut sharded.write_session(), &pool, op);
            let want = apply_store_op(&mut reference, &pool, op);
            prop_assert_eq!(got, want, "set-semantics disagreement on {:?}", op);
        }
        let sharded = sharded.read_session();
        prop_assert_eq!(sharded.len(), reference.len());
        prop_assert_eq!(store_image(&sharded), store_image(&reference));
        // Pattern-level agreement over a sample of the pool's terms
        // (counts exercise the fan-out sum path).
        for (s, p, o) in pool.iter().take(4) {
            let sid = |st: &dyn TripleStore| (st.term_id(s), st.term_id(p), st.term_id(o));
            let (ss, sp, so) = sid(&sharded);
            let (rs, rp, ro) = sid(&reference);
            prop_assert_eq!(ss.is_some(), rs.is_some());
            prop_assert_eq!(
                sharded.count(ss, sp, None),
                reference.count(rs, rp, None)
            );
            prop_assert_eq!(
                sharded.count(None, sp, so),
                reference.count(None, rp, ro)
            );
        }
    }

    /// A durable sharded store reopens to exactly the state the ops
    /// built, for any shard count: every shard's log replay and snapshot
    /// load intern into the one shared interner. The history runs in two
    /// phases with a reopen and a fold of one drawn shard between them, so
    /// the second phase journals ids issued after a reopen, and the last
    /// reopen recovers that shard from its snapshot plus a log.
    #[test]
    fn sharded_durable_reopen_reproduces_history(
        shards in 1usize..=3,
        pool in prop::collection::vec(arb_triple(), 4..10),
        ops in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..40),
        split in any::<prop::sample::Index>(),
        fold in any::<prop::sample::Index>(),
    ) {
        let dir = ScratchDir::new("prop-shard-durable");
        let (first, second) = ops.split_at(split.index(ops.len() + 1));
        let mut reference = IndexedStore::new();
        {
            let sharded = ShardedStore::open_durable(dir.path(), shards)
                .expect("sharded durable store opens");
            for op in first {
                apply_store_op(&mut sharded.write_session(), &pool, op);
                apply_store_op(&mut reference, &pool, op);
            }
            prop_assert_eq!(store_image(&sharded.read_session()), store_image(&reference));
        }
        {
            let reopened = ShardedStore::open_durable(dir.path(), shards)
                .expect("sharded recovery succeeds");
            prop_assert_eq!(store_image(&reopened.read_session()), store_image(&reference));
            reopened
                .compact_shard(fold.index(shards))
                .expect("one shard folds");
            for op in second {
                apply_store_op(&mut reopened.write_session(), &pool, op);
                apply_store_op(&mut reference, &pool, op);
            }
            prop_assert_eq!(store_image(&reopened.read_session()), store_image(&reference));
        }
        let recovered = ShardedStore::open_durable(dir.path(), shards)
            .expect("sharded recovery succeeds");
        prop_assert_eq!(store_image(&recovered.read_session()), store_image(&reference));
    }

    /// Crash semantics: truncating the log at ANY byte recovers exactly
    /// the history's committed prefix — the torn trailing record is
    /// dropped silently, nothing before it is lost, nothing after it is
    /// resurrected, and recovery never errors.
    #[test]
    fn persistent_torn_tail_recovers_committed_prefix(
        pool in prop::collection::vec(arb_triple(), 4..10),
        ops in prop::collection::vec((0u8..20, any::<prop::sample::Index>(), 0u8..3), 1..40),
        cut in any::<prop::sample::Index>(),
    ) {
        let dir = ScratchDir::new("prop-durable-torn");
        let mut durable = DurableStore::open(dir.path()).expect("opens");
        // Committed byte offset after each op (no-ops journal nothing).
        let mut ends = Vec::with_capacity(ops.len());
        for op in &ops {
            apply_store_op(&mut durable, &pool, op);
            ends.push(durable.wal_bytes());
        }
        let wal_path = durable.wal_path();
        let total = durable.wal_bytes();
        drop(durable);
        // Tear the log at an arbitrary byte.
        let cut_at = cut.index(total as usize + 1) as u64;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .expect("wal exists");
        f.set_len(cut_at).expect("truncates");
        drop(f);
        // Expected: the ops whose records fully reached the log.
        let committed = ends.iter().filter(|&&e| e <= cut_at).count();
        let mut reference = IndexedStore::new();
        for op in &ops[..committed] {
            apply_store_op(&mut reference, &pool, op);
        }
        let recovered = DurableStore::open(dir.path()).expect("torn tail is not fatal");
        prop_assert_eq!(
            store_image(&recovered),
            store_image(&reference),
            "cut at byte {} of {} ({} of {} ops committed)",
            cut_at, total, committed, ops.len()
        );
    }
}
