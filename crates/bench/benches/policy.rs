//! Storage-policy bench: serve latency percentiles under the scenario
//! generator's op mixes, with WAL compaction **inline on the write path**
//! vs **folded in the background** by the policy thread.
//!
//! Each scenario ([`ScenarioSpec::read_heavy`], `churn_heavy`,
//! `mixed_tenant`) is replayed twice against a durable sharded KB built
//! fresh per mode, under the one compaction decision with the same
//! record threshold: once by its synchronous driver
//! (`auto_compact_records`: the publish that crosses the threshold pays
//! the snapshot inline), once by its threaded driver, a background
//! [`Compactor`](galo_rdf::Compactor). Both fold at the same points of
//! the log; they differ only in which thread pays. The replay runs the
//! scenario's two roles concurrently — a serving thread timing every
//! serve, a learner thread timing every publish — so inline compaction's
//! write-lock stall is visible to serves the way it is in production.
//! The exported `serve_p50_ns`/`serve_p99_ns`/`publish_p99_ns` metrics
//! are true per-op percentiles, and the publish percentiles show where
//! moving the fold off the write path pays. Compaction activity is
//! exported alongside from the store's own counters for both modes
//! (`folds`, WAL records left, `failures`), so a latency regression can
//! be correlated with a policy that stopped compacting.
//!
//! No timing asserts live here: CI boxes are noisy, so the numbers are
//! artifacts (`BENCH_policy.json`), not gates.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galo_core::{KbBuilder, KnowledgeBase, MatchConfig, ServingTier, Template};
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;
use galo_rdf::{CompactionPolicy, DurableOptions, ScratchDir};
use galo_workloads::{tpcds, Scenario, ScenarioOp, ScenarioSpec};

/// The per-shard record threshold of both drivers, so the two modes
/// disagree only on *where* the fold runs, not *when* it becomes due. A
/// record is a
/// commit, and a publish, a retraction and a refinement are one each: the
/// churn-heavy replay is some 50 commits a shard in quick mode and 350 in
/// full, so this folds a shard a few times in the one and about twenty in
/// the other.
const WAL_RECORDS: u64 = 16;

struct Fixture {
    w: galo_workloads::Workload,
    plans: Vec<Qgm>,
    /// One template per scenario slot, abstracted from real plans (so
    /// publishes exercise the same index paths learning does).
    templates: Vec<Template>,
}

fn fixture(slots: usize, plan_pool: usize) -> Fixture {
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<Qgm> = w
        .queries
        .iter()
        .filter_map(|q| optimizer.optimize(q).ok())
        .take(plan_pool.max(1))
        .collect();
    let templates: Vec<Template> = (0..slots)
        .map(|slot| {
            let plan = &plans[slot % plans.len()];
            let g = galo_qgm::guideline_from_plan(plan, plan.root())
                .expect("optimized plans have a guideline shape");
            let doc = galo_qgm::GuidelineDoc::new(vec![g]);
            galo_core::abstract_plan(&w.db, plan, plan.root(), &doc, format!("scn{slot:04}"))
        })
        .collect();
    Fixture {
        w,
        plans,
        templates,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The write path compacts itself when the WAL crosses the threshold.
    Inline,
    /// A background policy thread owns compaction; writes never fold.
    Background,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Inline => "inline",
            Mode::Background => "background",
        }
    }
}

struct Replay {
    serve_ns: Vec<u128>,
    /// Publish latencies — where inline compaction's stall actually
    /// lands: an over-threshold publish pays the whole snapshot inline.
    publish_ns: Vec<u128>,
    /// Successful folds, as the store counts them (either driver).
    folds: u64,
    wal_records_left: u64,
    failures: u64,
}

/// Replay one scenario against a fresh durable 2-shard KB in `mode`,
/// timing every serve op.
fn replay(f: &Fixture, scenario: &Scenario, mode: Mode) -> Replay {
    let dir = ScratchDir::new(&format!(
        "bench-policy-{}-{}",
        scenario.spec.name,
        mode.label()
    ));
    let mut builder = KbBuilder::new().durable_dir(dir.path()).shards(2);
    match mode {
        Mode::Inline => {
            builder = builder.durable_options(DurableOptions {
                auto_compact_records: Some(WAL_RECORDS),
                ..Default::default()
            });
        }
        Mode::Background => {
            // The inline driver's policy: same record threshold, no byte
            // threshold, no idle folding.
            builder = builder.compaction_policy(CompactionPolicy {
                wal_records: WAL_RECORDS,
                wal_bytes: u64::MAX,
                idle_divisor: 0,
                poll_interval: Duration::from_millis(5),
            });
        }
    }
    let kb: KnowledgeBase = builder.build_kb().expect("durable scratch KB");
    let tier = ServingTier::new(&f.w.db, &kb, MatchConfig::default());
    // The scenario splits into the two concurrent roles it models: a
    // serving thread replaying the serve subsequence while a learner
    // thread replays publishes/retracts in order. Run concurrently,
    // inline compaction's stall is visible to serves (the fold holds the
    // shard's write lock mid-publish) exactly as it is in production —
    // a sequential replay would hide it in the untimed publish.
    let write_ops: Vec<ScenarioOp> = scenario
        .ops
        .iter()
        .filter(|op| !matches!(op, ScenarioOp::Serve { .. }))
        .copied()
        .collect();
    let serve_plans: Vec<usize> = scenario
        .ops
        .iter()
        .filter_map(|op| match op {
            ScenarioOp::Serve { plan } => Some(*plan),
            _ => None,
        })
        .collect();
    let mut serve_ns = Vec::new();
    let mut sink = 0usize;
    let writer_done = std::sync::atomic::AtomicBool::new(false);
    let publish_ns = std::thread::scope(|s| {
        let kb = &kb;
        let done = &writer_done;
        let writer = s.spawn(move || {
            let mut publish_ns = Vec::new();
            for op in &write_ops {
                match *op {
                    ScenarioOp::Publish { template, tenant } => {
                        let mut tpl = f.templates[template].clone();
                        tpl.source_workload = format!("tenant{tenant}");
                        let start = Instant::now();
                        kb.insert_batch(std::slice::from_ref(&tpl));
                        publish_ns.push(start.elapsed().as_nanos());
                    }
                    ScenarioOp::Retract { template } => {
                        let iri = galo_core::vocab::template_iri(&f.templates[template].id);
                        kb.remove_template(iri.str_value());
                    }
                    ScenarioOp::Serve { .. } => unreachable!("filtered above"),
                }
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            publish_ns
        });
        // Serve continuously until the learner finishes (at least one
        // full pass): repeats hit the probe cache until a publish bumps
        // the epoch, exactly the serving tier's steady state, so the
        // percentiles reflect serving *through* the write burst.
        let mut pass = 0;
        while pass == 0 || !writer_done.load(std::sync::atomic::Ordering::Acquire) {
            for &plan in &serve_plans {
                let qgm = &f.plans[plan % f.plans.len()];
                let start = Instant::now();
                let outcome = tier.serve(qgm);
                serve_ns.push(start.elapsed().as_nanos());
                sink += outcome.report.rewrites.len();
            }
            pass += 1;
        }
        writer.join().expect("writer thread")
    });
    black_box(sink);
    let pressures = kb.storage_pressures();
    Replay {
        serve_ns,
        publish_ns,
        folds: pressures.iter().map(|p| p.compactions).sum(),
        wal_records_left: pressures.iter().map(|p| p.wal_records).sum(),
        failures: pressures.iter().map(|p| p.compactions_failed).sum(),
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn bench_policy(c: &mut Criterion) {
    let quick = std::env::var_os("GALO_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0");
    let ops = if quick { 200 } else { 1500 };
    let seed = 42;
    let specs = [
        ScenarioSpec::read_heavy(ops, seed),
        ScenarioSpec::churn_heavy(ops, seed),
        ScenarioSpec::mixed_tenant(ops, seed),
    ];
    // One fixture sized for the largest pools across the presets.
    let slots = specs.iter().map(|s| s.templates).max().unwrap();
    let plan_pool = specs.iter().map(|s| s.plans).max().unwrap();
    let f = fixture(slots, plan_pool);
    for spec in &specs {
        let scenario = spec.generate();
        let (serves, publishes, retracts) = scenario.counts();
        println!(
            "scenario {}: {} ops ({serves} serve / {publishes} publish / {retracts} retract)",
            spec.name, spec.ops
        );
        for mode in [Mode::Inline, Mode::Background] {
            let r = replay(&f, &scenario, mode);
            let mut sorted = r.serve_ns.clone();
            sorted.sort_unstable();
            let mut pub_sorted = r.publish_ns.clone();
            pub_sorted.sort_unstable();
            let prefix = format!("policy/{}/{}", spec.name, mode.label());
            c.metric(&format!("{prefix}/serve_p50_ns"), percentile(&sorted, 50.0));
            c.metric(&format!("{prefix}/serve_p99_ns"), percentile(&sorted, 99.0));
            c.metric(
                &format!("{prefix}/publish_p99_ns"),
                percentile(&pub_sorted, 99.0),
            );
            c.metric(
                &format!("{prefix}/publish_max_ns"),
                pub_sorted.last().copied().unwrap_or(0),
            );
            c.metric(&format!("{prefix}/folds"), r.folds as u128);
            c.metric(
                &format!("{prefix}/wal_records_left"),
                r.wal_records_left as u128,
            );
            c.metric(&format!("{prefix}/failures"), r.failures as u128);
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_policy
}
criterion_main!(benches);
