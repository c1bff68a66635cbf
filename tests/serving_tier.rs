//! The online serving tier end to end: every result the tier serves —
//! cold, cached, queued, or raced — must equal a fresh uncached
//! [`match_plan`] against the same knowledge-base state. The epoch
//! seqlock is the only validation mechanism, so these tests attack it
//! from every side: each mutator must invalidate, concurrent learner
//! publishes must never let a stale outcome through, and the admission
//! queue must deliver every plan exactly once.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig, Table,
    Value,
};
use galo_core::{
    abstract_plan, learn_workload, learn_workload_cluster, match_plan, vocab, ClusterConfig,
    KnowledgeBase, LearningConfig, MatchConfig, MatchReport, ProbeCache, ServeOutcome, ServingTier,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_sql::parse;
use galo_workloads::Workload;

/// The planted-flooding workload the learning tests use: queries whose
/// plans a learned template matches, plus shape variety.
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

fn fast_learning() -> LearningConfig {
    LearningConfig {
        random_plans: 12,
        seed: 0x6A10,
        ..LearningConfig::default()
    }
}

fn plans_of(w: &Workload) -> Vec<Qgm> {
    let optimizer = Optimizer::new(&w.db);
    w.queries
        .iter()
        .map(|q| optimizer.optimize(q).unwrap())
        .collect()
}

/// Everything a served report must share with an uncached match.
/// `match_ms` is wall time and `probes_reused` only exists on the
/// serving path, so neither participates.
fn assert_reports_equal(served: &MatchReport, fresh: &MatchReport, context: &str) {
    assert_eq!(
        served.rewrites.len(),
        fresh.rewrites.len(),
        "rewrite count: {context}"
    );
    for (a, b) in served.rewrites.iter().zip(&fresh.rewrites) {
        assert_eq!(a.segment_op_id, b.segment_op_id, "{context}");
        assert_eq!(a.template_iri, b.template_iri, "{context}");
        assert_eq!(a.source_workload, b.source_workload, "{context}");
        assert_eq!(a.guideline, b.guideline, "{context}");
    }
    assert_eq!(served.probes_pruned, fresh.probes_pruned, "{context}");
    assert_eq!(served.probes_executed, fresh.probes_executed, "{context}");
    assert_eq!(
        served.candidates_considered, fresh.candidates_considered,
        "admission considered: {context}"
    );
    assert_eq!(
        served.admission_rejects_card, fresh.admission_rejects_card,
        "admission card rejects: {context}"
    );
    assert_eq!(
        served.admission_rejects_scan, fresh.admission_rejects_scan,
        "admission scan rejects: {context}"
    );
}

// ------------------------------------------------------------ differential --

/// Cold serve, cached serve and the uncached matcher agree under every
/// configuration — plan by plan and over whole arrival streams — and the
/// hit path is actually a hit.
#[test]
fn serve_equals_uncached_match_across_configs() {
    let w = quirky_workload("serve_diff");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);

    for cfg in [
        MatchConfig::default(),
        MatchConfig {
            range_margin: 2.0,
            ..MatchConfig::default()
        },
        MatchConfig {
            dataset: Some("serve_diff".into()),
            ..MatchConfig::default()
        },
        MatchConfig {
            dataset: Some("elsewhere".into()),
            ..MatchConfig::default()
        },
        MatchConfig {
            sketch_trim: 0.05,
            ..MatchConfig::default()
        },
    ] {
        let fresh: Vec<MatchReport> = plans
            .iter()
            .map(|p| match_plan(&w.db, &kb, p, &cfg))
            .collect();
        let tier = ServingTier::new(&w.db, &kb, cfg.clone());
        // Two pool plans may share a fingerprint (same shape, same
        // estimates, same qualifiers — the match outcome is provably
        // identical, only the predicate constant differs), so "must
        // miss" holds per fingerprint, not per plan.
        let mut seen = std::collections::HashSet::new();
        for (i, (plan, fresh)) in plans.iter().zip(&fresh).enumerate() {
            let cold = tier.serve(plan);
            assert_eq!(
                cold.report.cache_hit,
                !seen.insert(cold.fingerprint),
                "first serve of a new fingerprint must miss (plan {i})"
            );
            assert_eq!(cold.epoch, Some(kb.epoch()), "quiescent KB: validated");
            assert_reports_equal(&cold.report, fresh, &format!("cold plan {i}"));

            let warm = tier.serve(plan);
            assert!(warm.report.cache_hit, "second serve must hit");
            assert_eq!(warm.fingerprint, cold.fingerprint);
            assert_reports_equal(&warm.report, fresh, &format!("warm plan {i}"));
        }
        let c = tier.cache().counters();
        assert!(c.hits >= plans.len() as u64, "{:?}", cfg.dataset);
        assert_eq!(c.misses, seen.len() as u64);
        assert_eq!(c.stale_drops, 0);

        // A stream with repeats inside it, through a tier of its own:
        // fully cold (a repeat hits what its first arrival cached), then
        // the same stream again fully warm.
        let order = [0usize, 1, 0, 2, 1, 3, 4];
        let stream_tier = ServingTier::new(&w.db, &kb, cfg.clone());
        for warm in [false, true] {
            let mut seen = std::collections::HashSet::new();
            for (slot, &i) in order.iter().enumerate() {
                let context = format!("stream slot {slot} -> plan {i}, warm: {warm}");
                let served = stream_tier.serve(&plans[i]);
                let repeat = !seen.insert(served.fingerprint);
                assert_eq!(served.report.cache_hit, warm || repeat, "{context}");
                assert!(served.epoch.is_some(), "quiescent KB: {context}");
                assert_reports_equal(&served.report, &fresh[i], &context);
            }
        }
        // A mixed stream: plan 0 warm, plan 4 cold, plan 0 repeated.
        let mixed_tier = ServingTier::new(&w.db, &kb, cfg.clone());
        let _ = mixed_tier.serve(&plans[0]);
        let outcomes: Vec<ServeOutcome> = [0usize, 4, 0]
            .iter()
            .map(|&i| mixed_tier.serve(&plans[i]))
            .collect();
        assert!(outcomes[0].report.cache_hit);
        assert_reports_equal(&outcomes[0].report, &fresh[0], "mixed hit");
        assert_reports_equal(&outcomes[1].report, &fresh[4], "mixed miss");
        assert_reports_equal(&outcomes[2].report, &fresh[0], "mixed repeat");
        assert!(mixed_tier.cache().counters().hits >= 2);
    }
}

// ------------------------------------------------------- epoch invalidation --

/// Every KB mutator that can change a match result must invalidate the
/// cache: after each, the tier re-matches (no hit) and agrees with the
/// uncached matcher against the new state.
#[test]
fn every_mutator_invalidates_cached_outcomes() {
    let w = quirky_workload("serve_inval");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let plan = &plans[0];

    let serve_expecting = |hit: bool, context: &str| -> ServeOutcome {
        let outcome = tier.serve(plan);
        assert_eq!(outcome.report.cache_hit, hit, "{context}");
        assert!(outcome.epoch.is_some(), "quiescent KB: {context}");
        let fresh = match_plan(&w.db, &kb, plan, &cfg);
        assert_reports_equal(&outcome.report, &fresh, context);
        outcome
    };

    serve_expecting(false, "initial miss");
    let baseline = serve_expecting(true, "initial hit");
    assert!(
        !baseline.report.rewrites.is_empty(),
        "the learned template must match"
    );
    let winner = baseline.report.rewrites[0].template_iri.clone();

    // insert: a smaller-IRI template that admits the same plan changes
    // the deterministic winner — serving the old winner would be stale.
    let g = GuidelineDoc::new(vec![guideline_from_plan(plan, plan.root()).unwrap()]);
    let mut rival = abstract_plan(&w.db, plan, plan.root(), &g, "000_rival".into());
    rival.source_workload = "rival".into();
    kb.insert(&rival);
    let rival_iri = vocab::template_iri("000_rival").str_value().to_string();
    assert!(rival_iri < winner, "rival must sort first: {rival_iri}");
    let after_insert = serve_expecting(false, "after insert");
    serve_expecting(true, "re-cached after insert");
    assert_eq!(
        after_insert.report.rewrites[0].template_iri, rival_iri,
        "the new winner must be served immediately"
    );

    // remove_template: deleting the rival restores the old winner.
    assert!(kb.remove_template(&rival_iri));
    let after_remove = serve_expecting(false, "after remove");
    serve_expecting(true, "re-cached after remove");
    assert_eq!(after_remove.report.rewrites[0].template_iri, winner);

    // reindex: same triples, but cached outcomes must still drop (the
    // index may have been rebuilt because raw triples changed).
    kb.reindex();
    serve_expecting(false, "after reindex");
    serve_expecting(true, "re-cached after reindex");

    // import: replaces the whole image.
    let image = kb.export();
    kb.import(&image).unwrap();
    serve_expecting(false, "after import");
    serve_expecting(true, "re-cached after import");

    // clear: the served report must be empty, not yesterday's match.
    kb.clear();
    let cleared = serve_expecting(false, "after clear");
    assert!(
        cleared.report.rewrites.is_empty(),
        "cleared KB matches nothing"
    );
    serve_expecting(true, "re-cached after clear");

    assert!(
        tier.cache().counters().stale_drops >= 4,
        "each mutation dropped"
    );
}

/// A no-op mutation (re-publishing templates the KB already holds) does
/// not advance the epoch, so cached outcomes stay servable.
#[test]
fn noop_republish_preserves_cache_hits() {
    let w = quirky_workload("serve_noop");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let _ = tier.serve(&plans[0]);
    let e = kb.epoch();

    // Re-import the KB's own image: set semantics make it a no-op.
    // (kb.import is NOT a no-op — it clears first — so use the
    // template-level republish path, which is.)
    let hit = tier.serve(&plans[0]);
    assert!(hit.report.cache_hit);
    assert_eq!(kb.epoch(), e, "no mutation happened");
    assert_eq!(hit.epoch, Some(e));
}

// ----------------------------------------------------------------- stress --

/// Four learner nodes publish into the KB while a serving thread loops
/// the workload's plans through the cache. Pinned: a validated outcome
/// (epoch `Some(e)`) compared against an uncached `match_plan` whose own
/// run is bracketed by two reads of epoch `e` must be identical — that
/// is "no stale result at the served epoch". After the cluster quiesces,
/// every serve must agree with fresh matching and the second pass must
/// be all cache hits.
#[test]
fn stress_serving_under_concurrent_publishes_is_never_stale() {
    let w = quirky_workload("serve_stress");
    let kb = KnowledgeBase::new();
    let plans = plans_of(&w);
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());

    let done = AtomicBool::new(false);
    let validated_comparisons = AtomicUsize::new(0);
    let served_rounds = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let kb_ref = &kb;
        let tier = &tier;
        let plans = &plans;
        let db = &w.db;
        let cfg = &cfg;
        let done = &done;
        let validated_comparisons = &validated_comparisons;
        let served_rounds = &served_rounds;
        scope.spawn(move || {
            loop {
                let stop_after = done.load(Ordering::Acquire);
                for (i, plan) in plans.iter().enumerate() {
                    let outcome = tier.serve(plan);
                    let Some(e) = outcome.epoch else { continue };
                    // Pin the differential to the served epoch: only a
                    // fresh match provably run at epoch `e` (both even
                    // reads equal) is a valid oracle for this outcome.
                    let e1 = kb_ref.epoch();
                    if e1 != e {
                        continue;
                    }
                    let fresh = match_plan(db, kb_ref, plan, cfg);
                    if kb_ref.epoch() != e {
                        continue;
                    }
                    assert_reports_equal(
                        &outcome.report,
                        &fresh,
                        &format!("stress plan {i} at epoch {e}"),
                    );
                    validated_comparisons.fetch_add(1, Ordering::Relaxed);
                }
                served_rounds.fetch_add(1, Ordering::Relaxed);
                if stop_after {
                    break;
                }
            }
        });
        // Four nodes, publish batch 1: maximal publish interleaving.
        learn_workload_cluster(
            &w,
            &kb,
            &ClusterConfig {
                nodes: 4,
                publish_batch: 1,
                learning: fast_learning(),
            },
        );
        done.store(true, Ordering::Release);
    });
    assert!(served_rounds.load(Ordering::Relaxed) >= 2);
    assert!(
        validated_comparisons.load(Ordering::Relaxed) >= 1,
        "the pinned differential must have fired at least once"
    );

    // Quiescent phase: every serve agrees with fresh matching, then the
    // re-serve is a pure cache hit — and still agrees. The cluster's
    // last publish changed the winner set relative to the early rounds,
    // so a stale entry would be caught here.
    let mut matched = 0;
    for plan in &plans {
        let fresh = match_plan(&w.db, &kb, plan, &cfg);
        let outcome = tier.serve(plan);
        assert_eq!(outcome.epoch, Some(kb.epoch()));
        assert_reports_equal(&outcome.report, &fresh, "quiescent serve");
        let hit = tier.serve(plan);
        assert!(hit.report.cache_hit, "quiescent re-serve must hit");
        assert_reports_equal(&hit.report, &fresh, "quiescent hit");
        matched += usize::from(!fresh.rewrites.is_empty());
    }
    assert!(matched >= 1, "the learned KB must match something");
}

// ------------------------------------------------------- bounded admission --

/// Producers send plan indices through a bounded channel; a consumer
/// drains batches into `serve`. Every submitted plan is served exactly
/// once and every report equals the uncached oracle.
#[test]
fn admission_queue_feeds_serve() {
    let w = quirky_workload("serve_admission");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);
    let cfg = MatchConfig::default();
    let fresh: Vec<MatchReport> = plans
        .iter()
        .map(|p| match_plan(&w.db, &kb, p, &cfg))
        .collect();
    let tier = ServingTier::with_cache(&w.db, &kb, cfg.clone(), ProbeCache::new(4, 16));

    // A repeat-heavy stream per producer: mostly plans 0/1 with the tail
    // cycling — what the cache is for.
    const PER_PRODUCER: usize = 40;
    let n_plans = plans.len();
    let plan_of = move |p: usize, k: usize| if k % 4 < 2 { k % 2 } else { (p + k) % n_plans };
    // The tiny capacity (4) forces real back-pressure: `send` blocks.
    let (queue, arrivals) = std::sync::mpsc::sync_channel::<usize>(4);
    let mut served = std::thread::scope(|scope| {
        let (tier, plans) = (&tier, &plans);
        let consumer = scope.spawn(move || {
            let mut seen: Vec<usize> = Vec::new();
            // A batch is one blocking `recv` plus what has already
            // arrived; `recv` fails once every producer is gone and the
            // channel is drained — the consumer's shutdown.
            while let Ok(first) = arrivals.recv() {
                for i in std::iter::once(first).chain(arrivals.try_iter().take(7)) {
                    let outcome = tier.serve(&plans[i]);
                    assert!(outcome.epoch.is_some(), "quiescent KB: validated");
                    seen.push(i);
                }
            }
            seen
        });
        for p in 0..3 {
            let queue = queue.clone();
            scope.spawn(move || {
                for k in 0..PER_PRODUCER {
                    queue.send(plan_of(p, k)).expect("consumer hung up early");
                }
            });
        }
        // The producers hold the only senders left: when they finish, the
        // consumer drains the leftovers and exits.
        drop(queue);
        consumer.join().unwrap()
    });
    let total = 3 * PER_PRODUCER;
    let mut submitted: Vec<usize> = (0..3)
        .flat_map(|p| (0..PER_PRODUCER).map(move |k| plan_of(p, k)))
        .collect();
    submitted.sort_unstable();
    served.sort_unstable();
    assert_eq!(served, submitted, "every submitted plan served once");
    // Differential: re-serve each distinct plan and compare to fresh.
    for (i, f) in fresh.iter().enumerate() {
        let outcome = tier.serve(&plans[i]);
        assert_reports_equal(&outcome.report, f, &format!("post-queue plan {i}"));
    }
    let c = tier.cache().counters();
    assert!(
        c.hits as usize >= total / 2,
        "repeat-heavy stream must mostly hit: {c:?}"
    );
}
