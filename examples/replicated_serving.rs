//! Replicated learning and epoch-stamped replica serving end to end:
//!
//! 1. four learner nodes mine a workload and publish their templates to
//!    the primary as checksummed wire frames over fault-injected links
//!    (drops, duplicates, delays, torn frames) — one node a straggler,
//! 2. a read replica cold-starts from a snapshot transfer, then follows
//!    the primary's mutation feed over its own lossy link,
//! 3. a repeat-heavy plan stream is served *from the replica* under a
//!    bounded-staleness contract, with the plan-fingerprint cache doing
//!    the repeat work,
//! 4. a late publish makes the replica stale: bound 0 refuses, bound 1
//!    serves with `lag = 1`, and an incremental catch-up restores sync —
//!    and, the late template being one no plan segment can admit, the
//!    in-sync serve is still a cache hit.
//!
//! Exits nonzero on any lost acknowledged publish, an image mismatch at
//! equal epochs, a serve above its staleness bound, a cache that never
//! hits, or a late publish that voids the cached outcome (or one that
//! differs from an uncached match).
//!
//! Run with: `cargo run --release --example replicated_serving`

use std::sync::Arc;

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig, Table,
    Value,
};
use galo_core::{
    learn_workload_replicated, loopback, match_plan, ClusterConfig, FaultPlan, FaultyLink,
    KnowledgeBase, LearningConfig, MatchConfig, PeerState, Primary, Replica, ReplicationConfig,
    RetryPolicy, ServingTier,
};
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;
use galo_sql::parse;
use galo_workloads::Workload;

/// A workload with a planted estimation quirk, so learning always mines
/// templates worth replicating.
fn quirky_workload(name: &str) -> Workload {
    let mut b = DatabaseBuilder::new(name, SystemConfig::default_1gb());
    let mut fact = Table::new(
        "FACT",
        vec![
            col("F_ADDR", ColumnType::Integer),
            col("F_PAYLOAD", ColumnType::Varchar(180)),
        ],
    );
    fact.add_index(Index {
        name: "F_ADDR_IX".into(),
        column: ColumnId(0),
        unique: false,
        cluster_ratio: 0.93,
    });
    let f = b.add_table(
        fact,
        1_441_000,
        vec![
            ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
            ColumnStats::uniform(500_000, 0.0, 1e6, 90),
        ],
    );
    let addr = b.add_table(
        Table::new(
            "ADDR",
            vec![
                col("A_SK", ColumnType::Integer),
                col("A_STATE", ColumnType::Varchar(4)),
            ],
        ),
        50_000,
        vec![
            ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
            ColumnStats::uniform(50, 0.0, 1e6, 2).with_frequent(vec![
                (Value::Str("CA".into()), 9_000),
                (Value::Str("TX".into()), 6_000),
                (Value::Str("VT".into()), 200),
            ]),
        ],
    );
    *b.belief_mut().column_mut(addr, ColumnId(1)) = ColumnStats::uniform(5_000, 0.0, 1e6, 2);
    b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
    let db = b.build();
    let pool = [
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'TX'",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'CA'",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'VT' AND f_addr = 9",
        "SELECT a_state FROM addr, fact WHERE a_sk = f_addr AND f_addr = 3",
        "SELECT f_payload FROM fact WHERE f_addr = 12",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'VT'",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'CA' AND f_addr = 21",
        "SELECT a_state FROM addr, fact WHERE a_sk = f_addr AND f_addr = 7",
        "SELECT f_payload FROM fact WHERE f_addr = 33",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'TX' AND f_addr = 5",
    ];
    let queries = pool
        .iter()
        .enumerate()
        .map(|(i, sql)| parse(&db, &format!("q{i}"), sql).unwrap())
        .collect();
    Workload {
        name: name.into(),
        db,
        queries,
    }
}

fn image(kb: &KnowledgeBase) -> Vec<String> {
    let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

fn main() {
    let w = quirky_workload("replicated");
    let primary = Primary::new(Arc::new(KnowledgeBase::new()));

    // --- fault-injected replicated learning ----------------------------
    let cfg = ReplicationConfig {
        cluster: ClusterConfig {
            publish_batch: 1,
            learning: LearningConfig {
                threads: 2,
                random_plans: 12,
                seed: 0x6A10,
                ..LearningConfig::default()
            },
        },
        fault: FaultPlan::lossy(0xE6_A17E),
        retry: RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        },
        straggler: Some(1),
        straggler_stride: 3,
    };
    let report = learn_workload_replicated(&w, &primary, &cfg);
    for node in &report.nodes {
        println!(
            "node {}{}: mined {:>2}, published {:>2}, acked {:>2}, retries {:>3}, faults {:>3} \
             (drop {} dup {} delay {} trunc {})",
            node.node,
            if node.straggler { " (straggler)" } else { "" },
            node.templates_mined,
            node.publish.published,
            node.publish.acked,
            node.publish.retries,
            node.faults.total(),
            node.faults.dropped,
            node.faults.duplicated,
            node.faults.delayed,
            node.faults.truncated,
        );
    }
    if report.templates_mined() == 0 {
        eprintln!("FAIL: nothing mined, the scenario should always produce templates");
        std::process::exit(1);
    }

    // --- a publisher fleet backfilling curated templates ----------------
    // Beyond the miners, two "expert" nodes push hand-curated template
    // batches over equally lossy links — every batch retried until acked,
    // each re-delivery deduplicated by the primary's per-peer table.
    let mut fleet_lost = 0u64;
    for node in 0..2u64 {
        let (fc, fs) = loopback();
        let mut fclient = FaultyLink::new(fc, FaultPlan::lossy(0xF1EE7 ^ node));
        let mut fserver = FaultyLink::new(fs, FaultPlan::lossy(0xF1EE7 ^ node ^ 0xFF));
        let mut fpeer = PeerState::default();
        let mut publisher = galo_core::Publisher::new();
        for batch in 0..5u64 {
            let curated = galo_core::Template {
                id: format!("curated-{node}-{batch}"),
                pops: vec![galo_core::TemplatePop {
                    op_id: 1,
                    pop_type: "IXSCAN".into(),
                    cardinality: galo_core::Stat::from_range(
                        (batch + 1) as f64 * 30.0,
                        (batch + 1) as f64 * 60.0,
                    ),
                    scan: None,
                    inputs: vec![],
                }],
                guideline: galo_qgm::GuidelineDoc::new(vec![]),
                improvement: 0.3,
                source_workload: "replicated".into(),
                fingerprint: format!("fp-curated-{node}-{batch}"),
                join_count: 0,
            };
            let _ = publisher.publish_templates(
                &[curated],
                &mut fclient,
                &mut || {
                    primary.serve_link(&mut fpeer, &mut fserver);
                    fserver.flush();
                },
                &cfg.retry,
            );
        }
        let faults = fclient.counters.merged(&fserver.counters);
        println!(
            "fleet {node}: published {:>2}, acked {:>2}, retries {:>3}, faults {:>3} \
             (drop {} dup {} delay {} trunc {})",
            publisher.stats.published,
            publisher.stats.acked,
            publisher.stats.retries,
            faults.total(),
            faults.dropped,
            faults.duplicated,
            faults.delayed,
            faults.truncated,
        );
        fleet_lost += publisher.stats.lost;
    }
    println!(
        "{} lost publishes across {} rounds; primary holds {} template(s) at epoch {}",
        report.lost_publishes() + fleet_lost,
        report.rounds,
        primary.knowledge_base().template_count(),
        primary.epoch(),
    );
    if report.lost_publishes() + fleet_lost != 0 {
        eprintln!("FAIL: a publish exhausted its retry budget");
        std::process::exit(1);
    }

    // --- replica cold start + faulty feed ------------------------------
    let mut replica = Replica::new();
    let (rc, rs) = loopback();
    let mut rclient = FaultyLink::new(rc, FaultPlan::lossy(0xF0_110));
    let mut rserver = FaultyLink::new(rs, FaultPlan::lossy(0xF0_111));
    let mut rpeer = PeerState::default();
    let policy = RetryPolicy {
        max_attempts: 48,
        ..RetryPolicy::default()
    };
    replica
        .catch_up(
            &mut rclient,
            &mut || {
                primary.serve_link(&mut rpeer, &mut rserver);
                rserver.flush();
            },
            &policy,
        )
        .expect("replica catch-up within the retry budget");
    println!(
        "replica caught up: epoch {} (primary {}), {} snapshot(s), {} frame(s) applied, \
         {} pull(s), {} gap(s)",
        replica.replica_epoch(),
        primary.epoch(),
        replica.stats.snapshots_loaded,
        replica.stats.frames_applied,
        replica.stats.pulls,
        replica.stats.gaps,
    );
    if image(replica.knowledge_base()) != image(primary.knowledge_base()) {
        eprintln!("FAIL: replica image diverges from the primary at equal epochs");
        std::process::exit(1);
    }

    // --- bounded-staleness serving from the replica ---------------------
    let rkb = replica.knowledge_base_arc();
    let tier = ServingTier::new(&w.db, &rkb, MatchConfig::default());
    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<Qgm> = w
        .queries
        .iter()
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();
    let mut served = 0usize;
    let mut rewrites = 0usize;
    for k in 0..120 {
        let qgm = &plans[if k % 4 < 3 {
            k % 2
        } else {
            (k / 4) % plans.len()
        }];
        let serve = replica
            .serve_bounded(&tier, qgm, primary.epoch(), 0)
            .expect("in-sync replica must serve at bound 0");
        if serve.lag > 0 {
            eprintln!("FAIL: a serve exceeded its staleness bound");
            std::process::exit(1);
        }
        served += 1;
        rewrites += serve.outcome.report.rewrites.len();
    }
    let counters = tier.cache().counters();
    println!(
        "served {served} plans from the replica ({rewrites} rewrites); \
         replica cache hits: {} ({} misses)",
        counters.hits, counters.misses,
    );
    if counters.hits == 0 {
        eprintln!("FAIL: the repeat-heavy stream never hit the replica's cache");
        std::process::exit(1);
    }

    // --- staleness: a late publish, then incremental catch-up -----------
    let (lc, ls) = loopback();
    let mut lclient = FaultyLink::new(lc, FaultPlan::reliable(3));
    let mut lserver = FaultyLink::new(ls, FaultPlan::reliable(4));
    let mut lpeer = PeerState::default();
    let late = galo_core::Template {
        id: "late-arrival".into(),
        pops: vec![galo_core::TemplatePop {
            op_id: 1,
            pop_type: "TBSCAN".into(),
            cardinality: galo_core::Stat::from_range(40.0, 80.0),
            scan: None,
            inputs: vec![],
        }],
        guideline: galo_qgm::GuidelineDoc::new(vec![]),
        improvement: 0.4,
        source_workload: "replicated".into(),
        fingerprint: "fp-late".into(),
        join_count: 0,
    };
    galo_core::Publisher::new()
        .publish_templates(
            &[late],
            &mut lclient,
            &mut || {
                primary.serve_link(&mut lpeer, &mut lserver);
                lserver.flush();
            },
            &policy,
        )
        .expect("late publish over a reliable link");
    match replica.serve_bounded(&tier, &plans[0], primary.epoch(), 0) {
        Err(stale) => println!(
            "late publish: bound 0 refused as expected ({} generation(s) behind)",
            stale.lag
        ),
        Ok(_) => {
            eprintln!("FAIL: a stale replica served above its bound");
            std::process::exit(1);
        }
    }
    let relaxed = replica
        .serve_bounded(&tier, &plans[0], primary.epoch(), 1)
        .expect("bound 1 absorbs one generation of lag");
    println!(
        "bound 1 served at replica epoch {} (lag {})",
        relaxed.replica_epoch, relaxed.lag
    );
    replica
        .catch_up(
            &mut rclient,
            &mut || {
                primary.serve_link(&mut rpeer, &mut rserver);
                rserver.flush();
            },
            &policy,
        )
        .expect("incremental catch-up");
    let synced = replica
        .serve_bounded(&tier, &plans[0], primary.epoch(), 0)
        .expect("back in sync at bound 0");
    if image(replica.knowledge_base()) != image(primary.knowledge_base()) {
        eprintln!("FAIL: replica image diverges after incremental catch-up");
        std::process::exit(1);
    }
    // The late template is a zero-join scan: no segment of any plan shares
    // its signature, so the replica's cache keeps the outcome across it —
    // and that outcome is what an uncached match finds now.
    let uncached = match_plan(&w.db, &rkb, &plans[0], &MatchConfig::default());
    let same_rewrites = synced.outcome.report.rewrites.len() == uncached.rewrites.len()
        && synced
            .outcome
            .report
            .rewrites
            .iter()
            .zip(&uncached.rewrites)
            .all(|(a, b)| a.segment_op_id == b.segment_op_id && a.template_iri == b.template_iri);
    if !synced.outcome.report.cache_hit || !same_rewrites {
        eprintln!("FAIL: the late publish voided a cached outcome it cannot change");
        std::process::exit(1);
    }
    println!("late publish kept the cached outcome");
    println!(
        "caught up: epoch {} lag {}, {} stale rejection(s) recorded, images identical",
        synced.replica_epoch, synced.lag, replica.stats.stale_rejections,
    );
    println!("OK");
}
