//! Criterion bench for the durable knowledge-base backend: the cost of
//! journaled writes versus the in-memory store, and the recovery paths —
//! replaying a raw write-ahead log, loading a compacted snapshot, and
//! compaction itself — at the Exp-3 (100 templates) and Exp-4 (1,000
//! templates) knowledge-base scales.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_rdf::{DurableStore, IndexedStore, ScratchDir, Term, TripleStore};

fn prop(name: &str) -> Term {
    Term::iri(format!("http://galo/qep/property/{name}"))
}

/// Fill a store with `templates` KB-shaped problem patterns (~19 triples
/// per template, the shape `KnowledgeBase::insert` emits) plus one
/// named-graph workload tag per template. `batched` brackets each
/// template the way the endpoint's write transactions do: one commit per
/// template instead of one per triple.
fn fill_kb_shaped(store: &mut dyn TripleStore, templates: u32, batched: bool) {
    let graph = Term::iri("http://galo/kb/graph/workload/bench");
    for t in 0..templates {
        if batched {
            store.begin_batch();
        }
        let tnode = Term::iri(format!("http://galo/kb/template/{t:016x}"));
        for op in 0..4u32 {
            let me = Term::iri(format!("http://galo/kb/template/{t:016x}/pop/{op}"));
            let ty = ["NLJOIN", "HSJOIN", "IXSCAN", "TBSCAN"][op as usize];
            store.insert(me.clone(), prop("inTemplate"), tnode.clone());
            store.insert(me.clone(), prop("hasPopType"), Term::lit(ty));
            store.insert(
                me.clone(),
                prop("hasLowerCardinality"),
                Term::num((t * op) as f64),
            );
            store.insert(
                me.clone(),
                prop("hasHigherCardinality"),
                Term::num((t * op + 1000) as f64),
            );
            if op > 0 {
                let parent = Term::iri(format!("http://galo/kb/template/{t:016x}/pop/{}", op - 1));
                store.insert(me.clone(), prop("hasOutputStream"), parent);
            }
        }
        store.insert_in(
            graph.clone(),
            tnode,
            prop("hasProblemFingerprint"),
            Term::lit(format!("fp{t}")),
        );
        if batched {
            store.end_batch();
        }
    }
}

/// Journaled vs in-memory template ingestion: what a commit per triple
/// and a commit per template cost the learning path.
fn bench_durable_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable_insert");
    let templates = 100u32;
    group.bench_function(
        BenchmarkId::new("indexed", format!("{templates}tpl")),
        |b| {
            b.iter(|| {
                let mut st = IndexedStore::new();
                fill_kb_shaped(&mut st, templates, false);
                black_box(st.len())
            })
        },
    );
    for (name, batched) in [("durable", false), ("durable-batched", true)] {
        group.bench_function(BenchmarkId::new(name, format!("{templates}tpl")), |b| {
            b.iter(|| {
                let dir = ScratchDir::new("bench-insert");
                let mut st = DurableStore::open(dir.path()).expect("opens");
                fill_kb_shaped(&mut st, templates, batched);
                black_box(st.len())
            })
        });
    }
    group.finish();
}

/// Crash-recovery cost, both shapes: replaying a raw log (nothing was
/// ever compacted) vs loading a binary snapshot (compacted store).
fn bench_durable_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable_open");
    for templates in [100u32, 1000] {
        // A store that only ever journaled: recovery = full log replay.
        let log_dir = ScratchDir::new("bench-open-log");
        {
            let mut st = DurableStore::open(log_dir.path()).expect("opens");
            fill_kb_shaped(&mut st, templates, true);
        }
        group.bench_function(
            BenchmarkId::new("log-replay", format!("{templates}tpl")),
            |b| {
                b.iter(|| {
                    let st = DurableStore::open(log_dir.path()).expect("recovers");
                    black_box(st.len())
                })
            },
        );
        // The same store after compaction: recovery = snapshot load.
        let snap_dir = ScratchDir::new("bench-open-snap");
        {
            let mut st = DurableStore::open(snap_dir.path()).expect("opens");
            fill_kb_shaped(&mut st, templates, true);
            st.compact().expect("compacts");
        }
        group.bench_function(
            BenchmarkId::new("snapshot", format!("{templates}tpl")),
            |b| {
                b.iter(|| {
                    let st = DurableStore::open(snap_dir.path()).expect("recovers");
                    black_box(st.len())
                })
            },
        );
    }
    group.finish();
}

/// Compaction itself: serialize + fsync + rename + log rotation.
fn bench_durable_compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable_compact");
    for templates in [100u32, 1000] {
        let dir = ScratchDir::new("bench-compact");
        let mut st = DurableStore::open(dir.path()).expect("opens");
        fill_kb_shaped(&mut st, templates, true);
        group.bench_function(
            BenchmarkId::from_parameter(format!("{templates}tpl")),
            |b| {
                b.iter(|| {
                    st.compact().expect("compacts");
                    black_box(st.generation())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_durable_insert, bench_durable_open, bench_durable_compact
}
criterion_main!(benches);
