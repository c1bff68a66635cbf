//! Criterion bench for the online matching engine (Exp-3 / Figure 11):
//! matching time versus query width, against a realistically-sized KB.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_bench::{inflate_kb, learning_config};
use galo_core::{match_plan, KnowledgeBase, MatchConfig};
use galo_optimizer::Optimizer;
use galo_workloads::tpcds;

fn bench_match_by_width(c: &mut Criterion) {
    let w = tpcds::workload();
    let kb = KnowledgeBase::new();
    // A KB with learned patterns from a few queries plus filler, reaching
    // ~100 templates like the paper's Exp-3 setting.
    let small = galo_workloads::Workload {
        name: w.name.clone(),
        db: w.db.clone(),
        queries: w.queries[..10].to_vec(),
    };
    galo_core::learn_workload(&small, &kb, &learning_config(true));
    inflate_kb(&kb, &w.db, &w.queries[..6], 100);

    let optimizer = Optimizer::new(&w.db);
    let mut group = c.benchmark_group("match_plan_by_tables");
    for target in [4usize, 8, 16, 32] {
        let Some(query) = w
            .queries
            .iter()
            .filter(|q| q.tables.len() <= target)
            .max_by_key(|q| q.tables.len())
        else {
            continue;
        };
        let plan = optimizer.optimize(query).expect("plans");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}tables", query.tables.len())),
            &plan,
            |b, plan| {
                b.iter(|| match_plan(&w.db, &kb, plan, &MatchConfig::default()).probes_executed)
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_match_by_width
}
criterion_main!(benches);
