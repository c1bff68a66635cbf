//! The online serving tier end to end: every result the tier serves —
//! cold, cached, queued, or raced — must equal a fresh uncached
//! [`match_plan`] against the same knowledge-base state. The epoch
//! seqlock validates a hit, and the knowledge base's change journal
//! re-validates an outcome the epoch has passed, so these tests attack
//! both from every side: each mutator that can change an outcome must
//! invalidate it, a publish no segment of the plan admits must not, a
//! generation the journal cannot vouch for must, random interleavings of
//! every mutator must never let a stale outcome through, concurrent
//! learner publishes neither, and the admission queue must deliver every
//! plan exactly once.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig, Table,
    Value,
};
use galo_core::{
    abstract_plan, learn_workload, learn_workload_cluster, loopback, match_plan, vocab,
    ClusterConfig, KnowledgeBase, LearningConfig, MatchConfig, MatchReport, PeerState, Primary,
    ProbeCache, Replica, RetryPolicy, ServeOutcome, ServingTier, StatSketch, Template, TemplatePop,
    TemplateRefinement,
};
use galo_executor::compute_actuals;
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, segment_signature, segments, GuidelineDoc, Qgm};
use galo_rdf::Record;
use galo_sql::parse;
use galo_workloads::Workload;
use proptest::prelude::*;

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

fn iri(id: &str) -> String {
    vocab::template_iri(id).str_value().to_string()
}

/// The template abstracted from a plan's root under `id`, tagged into the
/// workload's dataset, with every statistic scaled by `factor` (1.0 keeps
/// the plan's own values, so the template admits and matches the plan).
fn template_of_plan(w: &Workload, plan: &Qgm, id: &str, factor: f64) -> Template {
    let g = GuidelineDoc::new(vec![guideline_from_plan(plan, plan.root()).unwrap()]);
    let mut tpl = abstract_plan(&w.db, plan, plan.root(), &g, id.into());
    tpl.source_workload = w.name.clone();
    let scale = |sketch: &mut StatSketch| {
        let range = sketch.envelope();
        *sketch = StatSketch::from_range(range.lo * factor, range.hi * factor);
    };
    for pop in &mut tpl.pops {
        scale(&mut pop.cardinality);
        if let Some(scan) = &mut pop.scan {
            scale(&mut scan.row_size);
            scale(&mut scan.fpages);
            scale(&mut scan.base_cardinality);
        }
    }
    tpl
}

/// A zero-join template: segments are rooted at joins, so no segment
/// shares its signature.
fn scan_template(id: &str) -> Template {
    Template {
        id: id.into(),
        pops: vec![TemplatePop {
            op_id: 1,
            pop_type: "TBSCAN".into(),
            cardinality: StatSketch::from_range(40.0, 80.0),
            scan: None,
            inputs: vec![],
        }],
        guideline: GuidelineDoc::new(vec![]),
        improvement: 0.4,
        source_workload: "scans".into(),
        fingerprint: format!("fp-{id}"),
        join_count: 0,
    }
}

/// The signatures of a plan's segments: the only index buckets a match of
/// it reads.
fn segment_signatures(plan: &Qgm, cfg: &MatchConfig) -> HashSet<u64> {
    segments(plan, cfg.join_threshold)
        .iter()
        .map(|segment| segment_signature(plan, segment.root).hash)
        .collect()
}

/// The outcome a served report must share with an uncached match at its
/// epoch: the rewrites, in order.
fn assert_rewrites_equal(served: &MatchReport, fresh: &MatchReport, context: &str) {
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
}

/// A serve against an uncached match at the served epoch: a miss matched
/// at that epoch and must agree on everything; a hit may have been
/// re-validated from an earlier epoch, and its work counters are those of
/// the match that produced it, so it must agree on the outcome.
fn assert_serve_equals(served: &MatchReport, fresh: &MatchReport, context: &str) {
    if served.cache_hit {
        assert_rewrites_equal(served, fresh, context);
    } else {
        assert_reports_equal(served, fresh, context);
    }
}

/// Everything a report matched at the same epoch as `fresh` must share
/// with it. `match_ms` is wall time and `probes_reused` is always 0 (the
/// matcher builds no probes to reuse), so neither participates.
fn assert_reports_equal(served: &MatchReport, fresh: &MatchReport, context: &str) {
    assert_rewrites_equal(served, fresh, context);
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
            join_threshold: 2,
            ..MatchConfig::default()
        },
        MatchConfig {
            near_miss_factor: 4.0,
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
        assert!(c.hits >= plans.len() as u64, "{cfg:?}");
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
    let plan = &plans[0];
    let g = GuidelineDoc::new(vec![guideline_from_plan(plan, plan.root()).unwrap()]);
    let mut tpl = abstract_plan(&w.db, plan, plan.root(), &g, "republished".into());
    tpl.source_workload = "serve_noop".into();
    assert!(
        kb.insert_batch(std::slice::from_ref(&tpl)) > 0,
        "a new template"
    );
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let _ = tier.serve(plan);
    let e = kb.epoch();

    // Re-publish the template the KB already holds: set semantics make it
    // a no-op. (kb.import is NOT a no-op — it clears first — so use the
    // template-level republish path, which is.)
    assert_eq!(
        kb.insert_batch(std::slice::from_ref(&tpl)),
        0,
        "nothing new"
    );
    assert_eq!(kb.epoch(), e, "no mutation happened");
    let hit = tier.serve(plan);
    assert!(hit.report.cache_hit);
    assert_eq!(hit.epoch, Some(e));
    assert_eq!(tier.cache().counters().stale_drops, 0);
}

// ---------------------------------------------------- the journal witness --

/// A publish under signature A does not void an entry that read only
/// signature B. The template is the plan's own root with another join
/// method: every statistic would admit the plan, the shape does not.
#[test]
fn a_publish_under_another_signature_keeps_the_entry() {
    let w = quirky_workload("serve_witness_sig");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let plan = &plans[0];
    let read = segment_signatures(plan, &cfg);
    assert!(!read.is_empty(), "the plan has a join to match");

    let mut other = template_of_plan(&w, plan, "000_other_shape", 1.0);
    for pop in &mut other.pops {
        if pop.pop_type.ends_with("JOIN") {
            let swapped = if pop.pop_type == "HSJOIN" {
                "MSJOIN"
            } else {
                "HSJOIN"
            };
            pop.pop_type = swapped.into();
        }
    }
    assert!(!read.contains(&KnowledgeBase::template_signature(&other)));

    assert!(!tier.serve(plan).report.cache_hit, "cold");
    let e = kb.epoch();
    kb.insert(&other);
    assert!(kb.epoch() > e, "the publish is a generation");
    let served = tier.serve(plan);
    assert!(served.report.cache_hit, "a publish the plan cannot read");
    assert_eq!(served.epoch, Some(kb.epoch()));
    let fresh = match_plan(&w.db, &kb, plan, &cfg);
    assert_reports_equal(&served.report, &fresh, "after a publish under A");
    assert_eq!(tier.cache().counters().stale_drops, 0);
}

/// A publish under the plan's own signature whose row the segment's
/// admission query rejects keeps the entry — that query exactly: the same
/// row within the near-miss factor drops the entry of a tier that tracks
/// near misses.
#[test]
fn a_publish_the_segment_rejects_keeps_the_entry() {
    let w = quirky_workload("serve_witness_reject");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);
    let plan = &plans[0];
    let exact = MatchConfig::default();
    let near = MatchConfig {
        near_miss_factor: 4.0,
        ..MatchConfig::default()
    };
    let exact_tier = ServingTier::new(&w.db, &kb, exact.clone());
    let near_tier = ServingTier::new(&w.db, &kb, near.clone());
    exact_tier.serve(plan);
    near_tier.serve(plan);

    // Every statistic 3× the plan's: its shape, outside the exact ranges,
    // inside a near-miss factor of 4 — and an IRI the cursor reaches before any learned one.
    let displaced = template_of_plan(&w, plan, "000_displaced", 3.0);
    let signature = KnowledgeBase::template_signature(&displaced);
    assert!(segment_signatures(plan, &exact).contains(&signature));
    kb.insert(&displaced);

    let kept = exact_tier.serve(plan);
    assert!(kept.report.cache_hit, "admission rejects the row");
    assert_eq!(kept.epoch, Some(kb.epoch()));
    let fresh = match_plan(&w.db, &kb, plan, &exact);
    assert_rewrites_equal(&kept.report, &fresh, "kept");
    assert!(
        fresh.candidates_considered > kept.report.candidates_considered,
        "a hit's counters are those of the match that produced it"
    );
    assert_eq!(exact_tier.cache().counters().stale_drops, 0);

    let dropped = near_tier.serve(plan);
    assert!(!dropped.report.cache_hit, "a near miss under 4×");
    let fresh = match_plan(&w.db, &kb, plan, &near);
    assert_reports_equal(&dropped.report, &fresh, "near-miss tier");
    assert!(fresh.near_misses > 0);
    assert_eq!(near_tier.cache().counters().stale_drops, 1);
}

/// An epoch-counted write through the raw endpoint is a generation nobody
/// journaled: it drops the entry, even when journaled generations no
/// segment reads lie on both sides of it. Here it retracts the plan's
/// winning template behind the journal's back, so serving the entry would
/// serve a rewrite the knowledge base no longer holds.
#[test]
fn a_raw_endpoint_write_drops_the_entry() {
    let w = quirky_workload("serve_witness_raw");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    let plans = plans_of(&w);
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let plan = &plans[0];
    let before = tier.serve(plan);
    let winner = before.report.rewrites[0].template_iri.clone();
    kb.insert(&scan_template("zz_before_the_hole"));
    assert!(tier.serve(plan).report.cache_hit, "a journaled publish");

    let e = kb.epoch();
    let removes = kb.retraction_of(&winner).into_iter();
    let triples = removes.filter_map(|record| match record {
        Record::Remove(s, p, o, None) => Some((s, p, o)),
        _ => None,
    });
    assert!(kb.server().remove_triples(triples) > 0);
    assert_eq!(kb.epoch(), e + 2, "the raw write is a generation");
    kb.insert(&scan_template("zz_after_the_hole"));

    let served = tier.serve(plan);
    assert!(!served.report.cache_hit, "the journal cannot vouch for it");
    let fresh = match_plan(&w.db, &kb, plan, &cfg);
    assert!(fresh.rewrites.iter().all(|r| r.template_iri != winner));
    assert_reports_equal(&served.report, &fresh, "after a raw write");
    assert_eq!(tier.cache().counters().stale_drops, 1);

    kb.insert(&scan_template("zz_later"));
    let served = tier.serve(plan);
    assert!(served.report.cache_hit, "journaled again after the hole");
    assert_reports_equal(&served.report, &fresh, "after the next publish");
}

/// A replica's snapshot load replaces the whole image and is journaled
/// opaque: it drops the entry. The same kind of change replayed as a
/// frame — a retraction no segment reads — keeps it.
#[test]
fn a_replica_snapshot_load_drops_the_entry() {
    let w = quirky_workload("serve_witness_replica");
    let kb = KnowledgeBase::new();
    learn_workload(&w, &kb, &fast_learning());
    for id in ["zz_scan_1", "zz_scan_2"] {
        kb.insert(&scan_template(id));
    }
    let primary = Primary::new(Arc::new(kb));
    let mut replica = Replica::new();
    let (mut client, mut server) = loopback();
    let mut peer = PeerState::default();
    let policy = RetryPolicy::default();
    let mut catch_up = |replica: &mut Replica| {
        let pump = &mut || {
            primary.serve_link(&mut peer, &mut server);
        };
        replica
            .catch_up(&mut client, pump, &policy)
            .expect("catch-up");
    };
    catch_up(&mut replica);
    assert_eq!(replica.stats.snapshots_loaded, 1, "cold start");
    let rkb = replica.knowledge_base_arc();
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&w.db, &rkb, cfg.clone());
    let plan = &plans_of(&w)[0];
    tier.serve(plan);

    assert!(primary.retract(&iri("zz_scan_1")));
    catch_up(&mut replica);
    assert_eq!(replica.stats.snapshots_loaded, 1, "a frame, not a snapshot");
    let kept = tier.serve(plan);
    assert!(kept.report.cache_hit, "a frame no segment reads");
    let fresh = match_plan(&w.db, &rkb, plan, &cfg);
    assert_reports_equal(&kept.report, &fresh, "after the frame");

    assert!(primary.retract(&iri("zz_scan_2")));
    primary.compact_log();
    catch_up(&mut replica);
    assert_eq!(replica.stats.snapshots_loaded, 2, "the log was folded");
    let reloaded = tier.serve(plan);
    assert!(!reloaded.report.cache_hit, "a snapshot load is opaque");
    let fresh = match_plan(&w.db, &rkb, plan, &cfg);
    assert_reports_equal(&reloaded.report, &fresh, "after the snapshot");
    assert_eq!(tier.cache().counters().stale_drops, 1);
}

/// A refinement whose *old* row admitted the segment drops the entry,
/// although its new row does not: the template admitted the plan only
/// through its widen factor, and the refinement decays it to 1.
#[test]
fn a_refinement_whose_old_row_admitted_drops_the_entry() {
    let w = quirky_workload("serve_witness_refine");
    let kb = KnowledgeBase::new();
    let plans = plans_of(&w);
    let plan = &plans[0];
    let cfg = MatchConfig::default();
    let mut tpl = template_of_plan(&w, plan, "widened", 1.0);
    for pop in &mut tpl.pops {
        let estimate = pop.cardinality.envelope().hi;
        let mut widened = StatSketch::point(estimate * 4.0);
        widened.set_widen(8.0);
        pop.cardinality = widened;
    }
    kb.insert(&tpl);
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let before = tier.serve(plan);
    let winner = before
        .report
        .rewrites
        .first()
        .map(|r| r.template_iri.clone());
    assert_eq!(winner, Some(iri("widened")), "the widened template matches");
    assert!(tier.serve(plan).report.cache_hit);

    let narrows = tpl.pops.iter().map(|p| (p.pop_type.clone(), 0.0)).collect();
    let refinement = TemplateRefinement {
        observations: Vec::new(),
        narrows,
    };
    assert!(
        kb.refine_template_stats(&iri("widened"), &refinement)
            .changed
    );
    let fresh = match_plan(&w.db, &kb, plan, &cfg);
    assert!(
        fresh.rewrites.is_empty(),
        "the new row admits the plan no more"
    );
    let after = tier.serve(plan);
    assert!(!after.report.cache_hit, "the old row admitted the segment");
    assert_reports_equal(&after.report, &fresh, "after the refinement");
}

/// The learned knowledge base every interleaving starts from.
fn interleaving_image() -> &'static str {
    static IMAGE: OnceLock<String> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let kb = KnowledgeBase::new();
        learn_workload(&quirky_workload("serve_interleaved"), &kb, &fast_learning());
        kb.export()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of every kind of change with serves through
    /// one tier — publishes of templates abstracted from pool plans (as
    /// they are, displaced so admission rejects them or counts a near
    /// miss, under IRIs sorting before or after every learned one) and of
    /// scan templates no segment reads, retractions (often of a plan's
    /// winner), feedback refinements, a raw endpoint retraction followed
    /// by `reindex`, imports and clears. A change is served around: the
    /// plan it was drawn for just before and just after it. Every serve is
    /// validated at an epoch, and its rewrites equal an uncached
    /// `match_plan` at that epoch; a miss equals it on every counter too.
    #[test]
    fn every_serve_equals_an_uncached_match_at_its_epoch(
        near_misses in any::<bool>(),
        steps in proptest::collection::vec((0u8..10, any::<u64>()), 40..80),
    ) {
        let w = quirky_workload("serve_interleaved");
        let kb = KnowledgeBase::new();
        kb.import(interleaving_image()).unwrap();
        let plans = plans_of(&w);
        let cfg = MatchConfig {
            near_miss_factor: if near_misses { 4.0 } else { 1.0 },
            ..MatchConfig::default()
        };
        let tier = ServingTier::new(&w.db, &kb, cfg.clone());
        let mut known = kb.dataset_template_iris(&w.name);
        let check = |plan: &Qgm, context: &str| {
            let served = tier.serve(plan);
            assert_eq!(served.epoch, Some(kb.epoch()), "one thread: {context}");
            let fresh = match_plan(&w.db, &kb, plan, &cfg);
            assert_serve_equals(&served.report, &fresh, context);
            if !served.report.cache_hit {
                assert_eq!(served.report.near_misses, fresh.near_misses, "{context}");
            }
        };
        for (step, &(kind, arg)) in steps.iter().enumerate() {
            let plan = &plans[arg as usize % plans.len()];
            // What a retraction takes: the plan's current winner, or any
            // template ever published.
            let victim = || {
                let winner = match_plan(&w.db, &kb, plan, &cfg).rewrites.first().map(|r| r.template_iri.clone());
                let any = (!known.is_empty()).then(|| known[(arg >> 8) as usize % known.len()].clone());
                if arg & 0x80 == 0 { winner.or(any) } else { any }
            };
            let context = format!("step {step}: kind {kind}, arg {arg:#x}");
            if kind < 3 {
                check(plan, &context);
                continue;
            }
            check(plan, &format!("{context}, before"));
            match kind {
                3 | 4 => {
                    let prefix = if arg & 1 == 0 { "000" } else { "zzz" };
                    let id = format!("{prefix}_pub_{step}");
                    let tpl = match (arg >> 1) % 4 {
                        0 => template_of_plan(&w, plan, &id, 1.0),
                        1 => template_of_plan(&w, plan, &id, 3.0),
                        2 => template_of_plan(&w, plan, &id, 1e6),
                        _ => scan_template(&id),
                    };
                    kb.insert(&tpl);
                    known.push(iri(&id));
                }
                5 | 6 => {
                    if let Some(victim) = victim() {
                        kb.remove_template(&victim);
                    }
                }
                7 => {
                    let report = match_plan(&w.db, &kb, plan, &cfg);
                    tier.record_feedback(plan, &report, &compute_actuals(&w.db, plan));
                    tier.apply_feedback();
                }
                8 => {
                    if let Some(victim) = victim() {
                        let removes = kb.retraction_of(&victim).into_iter();
                        let triples = removes.filter_map(|record| match record {
                            Record::Remove(s, p, o, None) => Some((s, p, o)),
                            _ => None,
                        });
                        kb.server().remove_triples(triples);
                        check(plan, &format!("{context}, behind the index's back"));
                    }
                    kb.reindex();
                }
                _ if arg % 4 == 0 => kb.clear(),
                _ => {
                    kb.import(&kb.export()).unwrap();
                }
            }
            check(plan, &format!("{context}, after"));
        }
    }
}

// ----------------------------------------------------------------- stress --

/// Four learner nodes publish into the KB while a serving thread loops
/// the workload's plans through the cache. Pinned: a validated outcome
/// (epoch `Some(e)`) compared against an uncached `match_plan` whose own
/// run is bracketed by two reads of epoch `e` must be identical — that
/// is "no stale result at the served epoch". After the cluster quiesces,
/// every serve must agree with fresh matching and the second pass must
/// be all cache hits. Both comparisons hold a miss to the full report and
/// a hit to its rewrites: a hit may carry an outcome re-validated across
/// publishes it could not see, with the counters of the match that
/// produced it.
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
                    assert_serve_equals(
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
                publish_batch: 1,
                learning: LearningConfig {
                    threads: 4,
                    ..fast_learning()
                },
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
        assert_serve_equals(&outcome.report, &fresh, "quiescent serve");
        let hit = tier.serve(plan);
        assert!(hit.report.cache_hit, "quiescent re-serve must hit");
        assert_serve_equals(&hit.report, &fresh, "quiescent hit");
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
