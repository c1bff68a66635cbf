//! Criterion bench for the sharded knowledge-base backend: multi-threaded
//! write throughput and batched-probe serving versus the single-store
//! backends, at the Exp-4 scale (1,000 templates).
//!
//! Writers go through `FusekiLite::insert_triples` — one batch per
//! template, exactly what `KnowledgeBase::insert` issues — from 4
//! concurrent threads. Every arm serializes its batches: the single-store
//! arms behind the endpoint's `RwLock`, the sharded arms behind an
//! all-shard write session, so single-vs-sharded prices what routing,
//! the second interner and per-shard journals cost (or save) per batch,
//! not lock parallelism. The `durable-per-record` arm reproduces the PR-3
//! journaling behavior (one flush per record, no group commit) as the
//! baseline for group commit.

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_core::KbBuilder;
use galo_rdf::{parse_select, DurableOptions, FusekiLite, Probe, ScratchDir, Term};

const WRITER_THREADS: usize = 4;
const SHARDS: usize = 4;
const TEMPLATES: u32 = 1_000;

fn prop(name: &str) -> Term {
    Term::iri(format!("http://galo/qep/property/{name}"))
}

fn tpl_iri(t: u32) -> Term {
    Term::iri(format!("http://galo/kb/template/{t:016x}"))
}

/// One KB-shaped problem-pattern template (~19 triples, the shape
/// `KnowledgeBase::insert` emits), subjects under the template namespace
/// so the default router colocates it.
fn template_triples(t: u32) -> Vec<(Term, Term, Term)> {
    let tnode = tpl_iri(t);
    let mut out = vec![(tnode.clone(), prop("hasJoinCount"), Term::num(1.0))];
    for op in 0..4u32 {
        let me = Term::iri(format!("http://galo/kb/template/{t:016x}/pop/{op}"));
        let ty = ["NLJOIN", "HSJOIN", "IXSCAN", "TBSCAN"][op as usize];
        out.push((me.clone(), prop("inTemplate"), tnode.clone()));
        out.push((me.clone(), prop("hasPopType"), Term::lit(ty)));
        out.push((
            me.clone(),
            prop("hasLowerCardinality"),
            Term::num((t * op) as f64),
        ));
        out.push((
            me.clone(),
            prop("hasHigherCardinality"),
            Term::num((t * op + 1000) as f64),
        ));
        if op > 0 {
            let parent = Term::iri(format!("http://galo/kb/template/{t:016x}/pop/{}", op - 1));
            out.push((me, prop("hasOutputStream"), parent));
        }
    }
    out
}

/// Ingest `TEMPLATES` templates from `WRITER_THREADS` threads stealing
/// work off one shared id counter, one `insert_triples` batch per
/// template; every arm does identical total work.
fn parallel_ingest(server: &FusekiLite, batched: bool) -> usize {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WRITER_THREADS {
            let next = &next;
            scope.spawn(move || loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= TEMPLATES as usize {
                    break;
                }
                let triples = template_triples(t as u32);
                if batched {
                    server.insert_triples(triples);
                } else {
                    // The PR-3 write path: one write transaction, but
                    // no group commit — a durable backend flushes per
                    // record.
                    server.with_store_mut(|st| {
                        for (s, p, o) in triples {
                            st.insert(s, p, o);
                        }
                    });
                }
            });
        }
    });
    server.len()
}

/// Multi-threaded template ingest across the backends.
fn bench_shard_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_write");
    group.sample_size(10);
    let param = format!("{TEMPLATES}tpl-{WRITER_THREADS}thr");

    group.bench_function(BenchmarkId::new("single-indexed", &param), |b| {
        b.iter(|| {
            let server = FusekiLite::new();
            black_box(parallel_ingest(&server, true))
        })
    });
    group.bench_function(
        BenchmarkId::new(format!("sharded-indexed-{SHARDS}"), &param),
        |b| {
            b.iter(|| {
                let server = KbBuilder::new().shards(SHARDS).build_server().unwrap();
                black_box(parallel_ingest(&server, true))
            })
        },
    );
    group.bench_function(BenchmarkId::new("single-durable-per-record", &param), |b| {
        b.iter(|| {
            let dir = ScratchDir::new("bench-shard-w1r");
            let server = KbBuilder::new()
                .durable_dir(dir.path())
                .build_server()
                .expect("opens");
            black_box(parallel_ingest(&server, false))
        })
    });
    group.bench_function(BenchmarkId::new("single-durable", &param), |b| {
        b.iter(|| {
            let dir = ScratchDir::new("bench-shard-w1");
            let server = KbBuilder::new()
                .durable_dir(dir.path())
                .build_server()
                .expect("opens");
            black_box(parallel_ingest(&server, true))
        })
    });
    group.bench_function(
        BenchmarkId::new(format!("sharded-durable-{SHARDS}"), &param),
        |b| {
            b.iter(|| {
                let dir = ScratchDir::new("bench-shard-wN");
                let server = KbBuilder::new()
                    .durable_dir(dir.path())
                    .shards(SHARDS)
                    .build_server()
                    .expect("opens");
                black_box(parallel_ingest(&server, true))
            })
        },
    );
    // The real-durability configuration: fsync per commit. Group commit
    // makes that one fsync per template batch, on the one shard file the
    // template routes to.
    let fsync = DurableOptions {
        fsync_each_record: true,
        ..DurableOptions::default()
    };
    group.bench_function(BenchmarkId::new("single-durable-fsync", &param), |b| {
        b.iter(|| {
            let dir = ScratchDir::new("bench-shard-wf1");
            let server = FusekiLite::open_durable_with(dir.path(), fsync.clone()).expect("opens");
            black_box(parallel_ingest(&server, true))
        })
    });
    group.bench_function(
        BenchmarkId::new(format!("sharded-durable-{SHARDS}-fsync"), &param),
        |b| {
            b.iter(|| {
                let dir = ScratchDir::new("bench-shard-wfN");
                let server = FusekiLite::open_sharded_durable_with(
                    dir.path(),
                    SHARDS,
                    fsync.clone(),
                    Box::<galo_rdf::TemplateRouter>::default(),
                )
                .expect("opens");
                black_box(parallel_ingest(&server, true))
            })
        },
    );
    group.finish();
}

/// A matching-shaped probe batch: one probe per sampled template, the
/// `?tmpl`-seeded join the compiled match pipeline issues.
fn bench_shard_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_probe");
    group.sample_size(10);

    let single = FusekiLite::new();
    let sharded = KbBuilder::new().shards(SHARDS).build_server().unwrap();
    for t in 0..TEMPLATES {
        single.insert_triples(template_triples(t));
        sharded.insert_triples(template_triples(t));
    }
    let query = parse_select(
        "SELECT ?pop ?lo WHERE { \
           ?pop <http://galo/qep/property/inTemplate> ?tmpl . \
           ?pop <http://galo/qep/property/hasPopType> \"NLJOIN\" . \
           ?pop <http://galo/qep/property/hasLowerCardinality> ?lo . }",
    )
    .expect("probe query parses");
    let probes: Vec<Probe<'_>> = (0..256u32)
        .map(|i| Probe {
            query: &query,
            bind: vec![("tmpl".to_string(), tpl_iri((i * 37) % TEMPLATES))],
        })
        .collect();

    for (label, server) in [("single", &single), ("sharded-4", &sharded)] {
        group.bench_function(
            BenchmarkId::new(label, format!("{}probes", probes.len())),
            |b| b.iter(|| black_box(server.probe_batch(&probes).len())),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shard_write, bench_shard_probe
}
criterion_main!(benches);
