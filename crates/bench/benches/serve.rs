//! Criterion bench for the online serving tier: cache-hit latency vs
//! the uncached compile-and-probe path, mixed arrival streams, and
//! serving under template churn.
//!
//! The headline comparison is `serve/hit` against `serve/uncached` at
//! the Exp-4 scale (1,000 templates): the hit path answers from the
//! plan-fingerprint cache with one epoch load, the uncached path is
//! `match_plan`'s full compile-and-probe per arrival. The stream benches
//! replay a mixed arrival order — repeats, near-misses (plans that
//! prune), and tail plans — but build their tier once, outside `b.iter`:
//! the first warm-up pass fills the cache, so every measured sample of
//! `serve_stream/serial` is an all-hit replay (its p50/p99 in
//! `GALO_BENCH_JSON`, CI's `BENCH_serve.json`, are whole-stream hit
//! latencies, not cold-plan ones). `serve_churn` interleaves a template
//! publish and retraction with the stream, so each sample does pay the
//! epoch-invalidation re-match of every distinct plan, twice.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_bench::{inflate_kb, learning_config};
use galo_core::{match_plan, KnowledgeBase, MatchConfig, ServingTier};
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;
use galo_workloads::tpcds;

struct Setup {
    w: galo_workloads::Workload,
    kb: KnowledgeBase,
    plans: Vec<Qgm>,
}

/// One KB at the Exp-4 scale (1,000 templates) plus a plan mix: learned
/// plans that match, wider plans that probe and miss, and plans whose
/// segments prune in the signature index (the near-misses).
fn setup() -> Setup {
    let w = tpcds::workload();
    let kb = KnowledgeBase::new();
    let small = galo_workloads::Workload {
        name: w.name.clone(),
        db: w.db.clone(),
        queries: w.queries[..10].to_vec(),
    };
    galo_core::learn_workload(&small, &kb, &learning_config(true));
    inflate_kb(&kb, &w.db, &w.queries[..6], 1000);

    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<Qgm> = w
        .queries
        .iter()
        .take(16)
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();
    Setup { w, kb, plans }
}

/// A repeat-heavy arrival order over `n_plans` distinct plans: ~75% of
/// arrivals are the two hottest plans, the rest cycle through the tail
/// (cold plans and near-misses included). Deterministic — benches replay
/// the same stream every sample.
fn arrival_stream(len: usize, n_plans: usize) -> Vec<usize> {
    (0..len)
        .map(|k| if k % 4 < 3 { k % 2 } else { (k / 4) % n_plans })
        .collect()
}

/// The headline pair: per-arrival latency of the warmed cache-hit path
/// vs the uncached `match_plan` on the same plan. Large sample counts
/// make the shim's p50/p99 true single-serve percentiles.
fn bench_hit_vs_uncached(c: &mut Criterion) {
    let s = setup();
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&s.w.db, &s.kb, cfg.clone());
    let plan = &s.plans[0];
    let _ = tier.serve(plan); // warm the cache

    let mut group = c.benchmark_group("serve");
    group.sample_size(500);
    group.bench_function("hit/1000tpl", |b| {
        b.iter(|| black_box(tier.serve(plan)).report.rewrites.len())
    });
    group.bench_function("uncached/1000tpl", |b| {
        b.iter(|| {
            black_box(match_plan(&s.w.db, &s.kb, plan, &cfg))
                .rewrites
                .len()
        })
    });
    group.finish();
}

/// Whole-stream replay through `serve` against the uncached floor. The
/// stream length is in the bench name, so ns/sample ÷ arrivals gives
/// per-arrival latency and its inverse gives throughput.
fn bench_streams(c: &mut Criterion) {
    let s = setup();
    let cfg = MatchConfig::default();
    let stream = arrival_stream(256, s.plans.len());

    let mut group = c.benchmark_group("serve_stream");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("serial", "256arrivals"),
        &stream,
        |b, stream| {
            let tier = ServingTier::new(&s.w.db, &s.kb, cfg.clone());
            b.iter(|| {
                stream
                    .iter()
                    .map(|&i| tier.serve(&s.plans[i]).report.rewrites.len())
                    .sum::<usize>()
            })
        },
    );
    // The uncached floor for the same stream: what serving would cost
    // with no cache at all.
    group.bench_with_input(
        BenchmarkId::new("uncached", "256arrivals"),
        &stream,
        |b, stream| {
            b.iter(|| {
                stream
                    .iter()
                    .map(|&i| match_plan(&s.w.db, &s.kb, &s.plans[i], &cfg).rewrites.len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

/// Serving under churn: every sample interleaves a template publish and
/// retraction with a short stream, so each round pays one epoch
/// invalidation (stale drop + re-match) before hits resume.
fn bench_churn(c: &mut Criterion) {
    let s = setup();
    let cfg = MatchConfig::default();
    let stream = arrival_stream(32, s.plans.len());
    // A template whose publish/retract drives the epoch; shaped like the
    // learned ones so insertion touches the same index paths.
    let plan = &s.plans[0];
    let g = galo_qgm::GuidelineDoc::new(vec![
        galo_qgm::guideline_from_plan(plan, plan.root()).expect("plan has a guideline shape")
    ]);
    let churn_tpl = galo_core::abstract_plan(&s.w.db, plan, plan.root(), &g, "zz_churn".into());
    let churn_iri = galo_core::vocab::template_iri("zz_churn")
        .str_value()
        .to_string();

    let mut group = c.benchmark_group("serve_churn");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("publish_per_round", "32arrivals"),
        &stream,
        |b, stream| {
            let tier = ServingTier::new(&s.w.db, &s.kb, cfg.clone());
            b.iter(|| {
                s.kb.insert(&churn_tpl);
                let a: usize = stream
                    .iter()
                    .map(|&i| tier.serve(&s.plans[i]).report.rewrites.len())
                    .sum();
                s.kb.remove_template(&churn_iri);
                let b_: usize = stream
                    .iter()
                    .map(|&i| tier.serve(&s.plans[i]).report.rewrites.len())
                    .sum();
                a + b_
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hit_vs_uncached, bench_streams, bench_churn
}
criterion_main!(benches);
