//! Criterion bench for the learning **ingest** path: how fast mined
//! templates can be published into the knowledge base — per-template
//! inserts vs batched quad publishes, single-store vs sharded backends,
//! concurrent learner writers, and the durable (journaled) publish path.
//! This is the throughput that bounds how quickly an off-peak learner
//! cluster can grow the KB (paper §4).
//!
//! Caveat: publishes are serialized at the endpoint (one mutation scope,
//! one write transaction at a time), so the concurrent arms measure
//! contention on that, not parallel ingest.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};
use galo_core::{abstract_plan, KbBuilder, KnowledgeBase, Template};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc};
use galo_rdf::ScratchDir;

/// Build `n` distinct KB-shaped templates (~20 quads each, dataset tag
/// included) the way learning abstracts them.
fn templates(n: usize) -> Vec<Template> {
    let mut b = DatabaseBuilder::new("learn_bench", SystemConfig::default_1gb());
    b.add_table(
        Table::new(
            "FACT",
            vec![
                col("F_K", ColumnType::Integer),
                col("F_V", ColumnType::Decimal),
            ],
        ),
        100_000,
        vec![
            ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
            ColumnStats::uniform(10_000, 0.0, 1e6, 8),
        ],
    );
    b.add_table(
        Table::new(
            "DIM",
            vec![
                col("D_K", ColumnType::Integer),
                col("D_A", ColumnType::Integer),
            ],
        ),
        1_000,
        vec![
            ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
            ColumnStats::uniform(50, 0.0, 50.0, 4),
        ],
    );
    let db = b.build();
    let q = galo_sql::parse(
        &db,
        "q",
        "SELECT f_v FROM fact, dim WHERE f_k = d_k AND d_a = 7",
    )
    .unwrap();
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let seed_kb = KnowledgeBase::new();
    (0..n)
        .map(|i| {
            let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, seed_kb.fresh_id(i as u64));
            tpl.improvement = 0.3;
            tpl.source_workload = format!("w{}", i % 4);
            tpl
        })
        .collect()
}

const PUBLISH_BATCH: usize = 32;

/// Per-template inserts vs one-transaction batched publishes, in-memory.
fn bench_publish_batching(c: &mut Criterion) {
    let tpls = templates(256);
    let mut group = c.benchmark_group("learn_publish");
    group.bench_with_input(
        BenchmarkId::new("single_insert", "256tpl"),
        &tpls,
        |b, tpls| {
            b.iter(|| {
                let kb = KnowledgeBase::new();
                for t in tpls {
                    kb.insert(t);
                }
                black_box(kb.template_count())
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("batch32", "256tpl"), &tpls, |b, tpls| {
        b.iter(|| {
            let kb = KnowledgeBase::new();
            for chunk in tpls.chunks(PUBLISH_BATCH) {
                kb.insert_batch(chunk);
            }
            black_box(kb.template_count())
        })
    });
    group.finish();
}

/// One learner vs four concurrent learners publishing into a 4-shard KB
/// (template-affine routing: each batch locks only its routed shards).
fn bench_publish_sharded(c: &mut Criterion) {
    let tpls = templates(256);
    let mut group = c.benchmark_group("learn_publish_sharded");
    group.bench_with_input(
        BenchmarkId::new("batch32_1writer", "4shards"),
        &tpls,
        |b, tpls| {
            b.iter(|| {
                let kb = KbBuilder::new().shards(4).build_kb().unwrap();
                for chunk in tpls.chunks(PUBLISH_BATCH) {
                    kb.insert_batch(chunk);
                }
                black_box(kb.template_count())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batch32_4writers", "4shards"),
        &tpls,
        |b, tpls| {
            b.iter(|| {
                let kb = KbBuilder::new().shards(4).build_kb().unwrap();
                std::thread::scope(|scope| {
                    for slice in tpls.chunks(tpls.len() / 4) {
                        let kb = &kb;
                        scope.spawn(move || {
                            for chunk in slice.chunks(PUBLISH_BATCH) {
                                kb.insert_batch(chunk);
                            }
                        });
                    }
                });
                black_box(kb.template_count())
            })
        },
    );
    group.finish();
}

/// The journaled publish path: batched quad publishes group-commit (one
/// flush per batch), per-template inserts flush per template.
fn bench_publish_durable(c: &mut Criterion) {
    let tpls = templates(128);
    let mut group = c.benchmark_group("learn_publish_durable");
    group.bench_with_input(
        BenchmarkId::new("single_insert", "128tpl"),
        &tpls,
        |b, tpls| {
            let mut round = 0u32;
            b.iter(|| {
                round += 1;
                let dir = ScratchDir::new(&format!("learn-bench-single-{round}"));
                let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
                for t in tpls {
                    kb.insert(t);
                }
                black_box(kb.template_count())
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("batch32", "128tpl"), &tpls, |b, tpls| {
        let mut round = 0u32;
        b.iter(|| {
            round += 1;
            let dir = ScratchDir::new(&format!("learn-bench-batch-{round}"));
            let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
            for chunk in tpls.chunks(PUBLISH_BATCH) {
                kb.insert_batch(chunk);
            }
            black_box(kb.template_count())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_publish_batching, bench_publish_sharded, bench_publish_durable
}
criterion_main!(benches);
