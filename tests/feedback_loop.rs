//! The runtime-feedback loop end to end (ROADMAP item 1): actuals
//! recorded after execution widen per-template statistics (near-miss
//! widening), concentration narrows them (decayed widen factors), and
//! every effective refinement moves the mutation epoch so the serving
//! tier drops exactly the outcomes it would otherwise serve stale.
//!
//! The load-bearing property is **monotone safety**: refinement never
//! rejects a previously matched plan. A matched segment's values fold
//! into the exact observation core unconditionally, and narrowing only
//! decays the multiplicative widen factor (never below 1), so the
//! envelope always contains every recorded true match — pinned here by
//! a proptest over random interleavings of widening, narrowing and
//! out-of-band noise.

use std::collections::BTreeSet;

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, Database, DatabaseBuilder, Index, IndexId,
    SystemConfig, Table, Value,
};
use galo_core::{
    abstract_plan, learn_workload, match_plan, segment_pop_checks, vocab, AdmissionQuery,
    FeedbackOptions, KbBuilder, KnowledgeBase, LearningConfig, MatchConfig, MatchConfigError,
    PopCheck, PopObservation, ServingTier, Template, TemplateRefinement,
};
use galo_executor::compute_actuals;
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, segment_signature, GuidelineDoc, Qgm};
use galo_rdf::ScratchDir;
use galo_sql::parse;
use galo_workloads::Workload;
use proptest::prelude::*;

/// The planted-flooding workload of the learning tests: queries whose
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

/// One join plan plus a template abstracted from it, with every
/// cardinality pinned to its exact plan value (widen 1, point ranges) so
/// exact admission is sharp: the plan's own checks admit, anything
/// displaced does not.
fn plan_and_template(db_name: &str) -> (Workload, Qgm, Template) {
    let w = quirky_workload(db_name);
    let plan = Optimizer::new(&w.db).optimize(&w.queries[0]).unwrap();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let template = abstract_plan(&w.db, &plan, plan.root(), &g, format!("{db_name}_tpl"));
    (w, plan, template)
}

/// The rewrite keys a report matched: `(template IRI, segment root)`.
fn rewrite_keys(report: &galo_core::MatchReport) -> BTreeSet<(String, u32)> {
    report
        .rewrites
        .iter()
        .map(|r| (r.template_iri.clone(), r.segment_op_id))
        .collect()
}

/// Displace every check's estimated cardinality by `factor`.
fn displaced(checks: &[PopCheck], factor: f64) -> Vec<PopCheck> {
    checks
        .iter()
        .map(|c| PopCheck {
            est_card: c.est_card * factor,
            ..*c
        })
        .collect()
}

/// Per-check observations for one template, every cardinality at `band`.
fn observations(checks: &[PopCheck], band: f64) -> Vec<PopObservation> {
    checks
        .iter()
        .map(|c| PopObservation {
            pop_type: c.pop_type.to_string(),
            cards: vec![(c.est_card, band)],
            scan: c.scan,
            scan_band: band,
        })
        .collect()
}

// ----------------------------------------------------------- refinement --

/// Near-miss widening: a value rejected on the exact ranges but within
/// the widened band folds in and is admitted exactly afterwards; a value
/// far outside the band is dropped and stays rejected. Every effective
/// refinement advances the epoch and the refinement counter; a no-op
/// batch advances neither.
#[test]
fn band_gated_refinement_widens_near_misses_only() {
    let (w, plan, template) = plan_and_template("fb_refine");
    let kb = KnowledgeBase::new();
    kb.insert(&template);
    let iri = vocab::template_iri(&template.id).str_value().to_string();
    let sig = segment_signature(&plan, plan.root()).hash;
    let checks = segment_pop_checks(&w.db, &plan, plan.root());

    let admits = |cs: &[PopCheck]| {
        kb.candidate_templates_admitting(sig, &AdmissionQuery::exact(cs))
            .contains(&iri)
    };
    assert!(admits(&checks), "the template admits its own plan");
    assert!(
        checks.iter().any(|c| c.est_card > 0.0),
        "displacement needs a nonzero cardinality to move"
    );
    let near = displaced(&checks, 3.0);
    let far = displaced(&checks, 1000.0);
    assert!(
        !admits(&near),
        "3x-displaced is rejected on the exact ranges"
    );
    assert!(!admits(&far));

    // Refine with the near values at band 4: in band, folds, widens.
    let e0 = kb.epoch();
    let outcome = kb.refine_template_stats(
        &iri,
        &TemplateRefinement {
            observations: observations(&near, 4.0),
            narrows: vec![],
        },
    );
    assert!(outcome.changed);
    assert!(outcome.values_folded > 0);
    assert!(kb.epoch() > e0, "effective refinement must move the epoch");
    assert_eq!(kb.refinements_applied(), 1);
    assert!(admits(&near), "folded values admit on the exact ranges");
    assert!(admits(&checks), "the original values still admit");
    assert!(!admits(&far), "far values were never folded");

    // The far values are out of band everywhere: every fold drops, the
    // batch is a no-op, and the epoch must NOT move. Cards only — an
    // unchanged scan trio would fold (it is trivially in band) and make
    // the batch effective.
    let far_cards: Vec<PopObservation> = far
        .iter()
        .filter(|c| c.est_card > 0.0)
        .map(|c| PopObservation {
            pop_type: c.pop_type.to_string(),
            cards: vec![(c.est_card, 4.0)],
            scan: None,
            scan_band: 4.0,
        })
        .collect();
    assert!(!far_cards.is_empty());
    let e1 = kb.epoch();
    let noop = kb.refine_template_stats(
        &iri,
        &TemplateRefinement {
            observations: far_cards,
            narrows: vec![],
        },
    );
    assert!(!noop.changed);
    assert_eq!(noop.values_folded, 0);
    assert!(noop.values_dropped > 0);
    assert_eq!(kb.epoch(), e1, "a dropped batch invalidates nothing");
    assert_eq!(kb.refinements_applied(), 1);
    assert!(!admits(&far));

    // An unknown template is a clean no-op too.
    let ghost = kb.refine_template_stats(
        "http://galo/kb/template/ghost",
        &TemplateRefinement {
            observations: observations(&near, 4.0),
            narrows: vec![],
        },
    );
    assert!(!ghost.changed);
    assert_eq!(kb.epoch(), e1);
}

/// Refined statistics are durable: they survive `export` → `import` into a
/// fresh knowledge base AND a sharded-durable close/reopen through the
/// same [`KbBuilder`] path that created the store.
#[test]
fn refined_sketches_survive_export_import_and_sharded_reopen() {
    let (w, plan, template) = plan_and_template("fb_durable");
    let dir = ScratchDir::new("feedback-durable");
    let iri = vocab::template_iri(&template.id).str_value().to_string();
    let sig = segment_signature(&plan, plan.root()).hash;
    let checks = segment_pop_checks(&w.db, &plan, plan.root());
    let near = displaced(&checks, 3.0);
    let admits = |kb: &KnowledgeBase, cs: &[PopCheck]| {
        kb.candidate_templates_admitting(sig, &AdmissionQuery::exact(cs))
            .contains(&iri)
    };

    let image = {
        let kb = KbBuilder::new()
            .durable_dir(dir.path())
            .shards(2)
            .build_kb()
            .unwrap();
        kb.insert(&template);
        assert!(!admits(&kb, &near));
        let outcome = kb.refine_template_stats(
            &iri,
            &TemplateRefinement {
                observations: observations(&near, 4.0),
                narrows: vec![],
            },
        );
        assert!(outcome.changed);
        assert!(admits(&kb, &near));
        kb.export()
    };

    // Sharded-durable reopen: the refined envelope came back from the
    // per-shard WAL/snapshots and the rebuilt signature index.
    let reopened = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(2)
        .build_kb()
        .unwrap();
    assert_eq!(reopened.template_count(), 1);
    assert!(
        admits(&reopened, &near),
        "refinement must survive the reopen"
    );
    assert!(admits(&reopened, &checks));

    // Export/import: the refined statistic rode the image into a fresh KB.
    let fresh = KnowledgeBase::new();
    fresh.import(&image).unwrap();
    assert!(
        admits(&fresh, &near),
        "refinement must survive export/import"
    );
}

/// A TPC-DS plan and its template, every cardinality widened 4×, in a
/// knowledge base loaded from the template's export with each statement
/// of a predicate in `families` either dropped or its object replaced by
/// `edit`.
fn tpcds_template_edited(
    families: &[&str],
    edit: Option<&str>,
) -> (KnowledgeBase, String, u64, Vec<PopCheck>) {
    let w = galo_workloads::tpcds::workload();
    let plan = Optimizer::new(&w.db).optimize(&w.queries[0]).unwrap();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let mut template = abstract_plan(&w.db, &plan, plan.root(), &g, "tpcds_edited".into());
    for pop in &mut template.pops {
        pop.cardinality.set_widen(4.0);
    }
    let source = KnowledgeBase::new();
    source.insert(&template);
    let predicates: Vec<String> = families
        .iter()
        .map(|family| format!("<{}{family}>", vocab::PROP_NS))
        .collect();
    let edited: String = source
        .export()
        .lines()
        .filter_map(|line| {
            let Some(predicate) = predicates.iter().find(|p| line.contains(p.as_str())) else {
                return Some(format!("{line}\n"));
            };
            let at = line.find(predicate.as_str()).unwrap() + predicate.len();
            edit.map(|object| format!("{} \"{object}\" .\n", &line[..at]))
        })
        .collect();
    let kb = KnowledgeBase::new();
    kb.import(&edited).unwrap();
    let iri = vocab::template_iri(&template.id).str_value().to_string();
    let sig = segment_signature(&plan, plan.root()).hash;
    let checks = segment_pop_checks(&w.db, &plan, plan.root());
    (kb, iri, sig, checks)
}

/// A stat literal that disagrees with the bounds stored beside it (here
/// the empty stat, `"0 inf -inf 1"`, beside a 4×-widened range) is not
/// what refinement folds into: the bounds are, so a recorded match
/// never narrows them and a plan the template admitted stays admitted.
#[test]
fn a_literal_that_disagrees_with_its_bounds_never_narrows_them() {
    let (kb, iri, sig, checks) =
        tpcds_template_edited(&["hasCardinalityStat"], Some("0 inf -inf 1"));
    let admits = |cs: &[PopCheck]| {
        kb.candidate_templates_admitting(sig, &AdmissionQuery::exact(cs))
            .contains(&iri)
    };
    let twice = displaced(&checks, 2.0);
    assert!(
        admits(&checks) && admits(&twice),
        "the widened ranges admit 2×"
    );
    let outcome = kb.refine_template_stats(
        &iri,
        &TemplateRefinement {
            observations: observations(&checks, f64::INFINITY),
            narrows: vec![],
        },
    );
    assert!(outcome.values_folded > 0);
    assert!(admits(&checks), "the recorded match stays admitted");
    assert!(
        admits(&twice),
        "the bounds were not narrowed to the estimate"
    );
}

/// An operator whose cardinality bounds are not both stored is unbounded
/// on the missing side, whatever stat literal is stored beside them, and
/// refinement keeps it so: it restates no bounds.
#[test]
fn a_literal_without_bounds_stays_unbounded_after_a_refinement() {
    let (lower, higher) = ("hasLowerCardinality", "hasHigherCardinality");
    for dropped in [&[lower][..], &[higher], &[lower, higher]] {
        let (kb, iri, _, checks) = tpcds_template_edited(dropped, None);
        kb.refine_template_stats(
            &iri,
            &TemplateRefinement {
                observations: observations(&checks, f64::INFINITY),
                narrows: vec![],
            },
        );
        let export = kb.export();
        for bound in [lower, higher] {
            let stated = export
                .lines()
                .filter(|line| line.contains(&format!("{}{bound}>", vocab::PROP_NS)))
                .count();
            if dropped.contains(&bound) {
                assert_eq!(stated, 0, "{bound} restated after dropping {dropped:?}");
            } else {
                assert!(stated > 0, "{bound} kept after dropping {dropped:?}");
            }
        }
    }
}

// ---------------------------------------------------------- serving tier --

/// The full loop through the serving tier: serve, execute, record
/// actuals, fold a batch — the refinement bumps the epoch, cached
/// outcomes drop (zero stale hits), the re-served reports equal fresh
/// matches against the refined knowledge base, and no previously
/// matched plan is lost.
#[test]
fn serving_tier_feedback_invalidates_without_losing_matches() {
    let w = quirky_workload("fb_serving");
    let kb = KbBuilder::new()
        .feedback(FeedbackOptions {
            batch_size: 4,
            ..FeedbackOptions::default()
        })
        .build_kb()
        .unwrap();
    learn_workload(&w, &kb, &fast_learning());
    let cfg = MatchConfig::builder()
        .near_miss_factor(4.0)
        .build()
        .unwrap();
    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<Qgm> = w
        .queries
        .iter()
        .map(|q| optimizer.optimize(q).unwrap())
        .collect();
    let tier = ServingTier::new(&w.db, &kb, cfg.clone());

    // Serve everything cold, "execute" each plan, record its actuals.
    let mut pre_keys: Vec<BTreeSet<(String, u32)>> = Vec::new();
    let mut matched_any = false;
    for plan in &plans {
        let outcome = tier.serve(plan);
        matched_any |= !outcome.report.rewrites.is_empty();
        pre_keys.push(rewrite_keys(&outcome.report));
        let actuals = compute_actuals(&w.db, plan);
        tier.record_feedback(plan, &outcome.report, &actuals);
    }
    assert!(matched_any, "the learned template must match something");
    assert!(kb.feedback().pending() > 0, "observations were buffered");

    // Recording alone must not invalidate: the warm serve still hits.
    let warm = tier.serve(&plans[0]);
    assert!(warm.report.cache_hit, "recording is off the serve path");

    // Fold the batch. At least the matched template is refined (its
    // estimate values fold into its statistic), so the epoch moves.
    let e1 = kb.epoch();
    let applied = tier
        .maybe_apply_feedback()
        .expect("a full batch is pending");
    assert!(applied.templates_refined > 0);
    assert!(applied.values_folded > 0);
    assert!(kb.epoch() > e1, "refinement must advance the epoch");
    assert_eq!(kb.feedback().pending(), 0, "the buffers drained");
    assert!(
        tier.maybe_apply_feedback().is_none(),
        "nothing left to fold"
    );

    // Zero stale hits: every cached outcome the refinement could change is
    // dropped, and the re-served report equals a fresh match against the
    // refined knowledge base — never a stale cache entry. (An outcome no
    // refined template's row can reach survives the epoch move; its
    // counters, `refinements_applied` among them, are those of the match
    // that produced it.)
    let stale_before = tier.cache().counters().stale_drops;
    let mut reserved = BTreeSet::new();
    for (i, plan) in plans.iter().enumerate() {
        let fresh = match_plan(&w.db, &kb, plan, &cfg);
        let outcome = tier.serve(plan);
        if reserved.insert(outcome.fingerprint) && !pre_keys[i].is_empty() {
            // Plans can legitimately share a fingerprint (identical
            // shape and estimates); only the first serve of each entry
            // must observe the stale drop. A matched template recorded
            // its own estimates, so the refinement rewrote its row.
            assert!(
                !outcome.report.cache_hit,
                "plan {i}: pre-refinement outcome must not be served"
            );
        }
        assert_eq!(
            rewrite_keys(&outcome.report),
            rewrite_keys(&fresh),
            "plan {i}: served report equals the fresh oracle"
        );
        if !outcome.report.cache_hit {
            assert_eq!(
                outcome.report.refinements_applied,
                kb.refinements_applied(),
                "plan {i}: the report carries the refinement generation"
            );
        }
        // Never-lose: everything matched before feedback still matches.
        assert!(
            rewrite_keys(&outcome.report).is_superset(&pre_keys[i]),
            "plan {i}: refinement lost a previously matched rewrite"
        );
    }
    assert!(
        tier.cache().counters().stale_drops > stale_before,
        "the refinement evicted cached outcomes"
    );
    // And the tier re-caches against the new epoch.
    assert!(tier.serve(&plans[0]).report.cache_hit);
}

// ------------------------------------------------------------ config API --

/// The validated [`MatchConfig`] builder names the offending field.
#[test]
fn match_config_builder_validates_every_field() {
    let cfg = MatchConfig::builder()
        .join_threshold(3)
        .near_miss_factor(4.0)
        .build()
        .unwrap();
    assert_eq!(cfg.join_threshold, 3);
    assert_eq!(cfg.near_miss_factor, 4.0);

    assert_eq!(
        MatchConfig::builder()
            .join_threshold(0)
            .build()
            .unwrap_err(),
        MatchConfigError::JoinThreshold(0)
    );
    assert_eq!(
        MatchConfig::builder()
            .near_miss_factor(0.5)
            .build()
            .unwrap_err(),
        MatchConfigError::NearMissFactor(0.5)
    );
    assert!(matches!(
        MatchConfig::builder().near_miss_factor(f64::NAN).build(),
        Err(MatchConfigError::NearMissFactor(v)) if v.is_nan()
    ));
}

// -------------------------------------------------------------- proptest --

/// One random refinement event against the template.
#[derive(Debug, Clone)]
enum Event {
    /// Displace the checks by `factor`, fold at `band`.
    Observe { factor: f64, band: f64 },
    /// Displace mildly; if admitted exactly, record as a true match
    /// (band ∞ — what `record_feedback` does for matched segments).
    Matched { factor: f64 },
    /// Narrow every operator type at `decay`.
    Narrow { decay: f64 },
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0.05f64..20.0, 1.0f64..8.0).prop_map(|(factor, band)| Event::Observe { factor, band }),
        (0.25f64..4.0).prop_map(|factor| Event::Matched { factor }),
        (0.0f64..1.0).prop_map(|decay| Event::Narrow { decay }),
    ]
}

/// Fixture shared by every proptest case: rebuilding the database and
/// plan per case would swamp the property itself.
fn monotone_fixture() -> &'static (Database, Qgm, Template, Vec<PopCheck>, u64) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(Database, Qgm, Template, Vec<PopCheck>, u64)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (w, plan, mut template) = plan_and_template("fb_monotone");
        // A widened starting envelope, so narrowing has room to bite.
        for pop in &mut template.pops {
            pop.cardinality.set_widen(4.0);
        }
        let checks = segment_pop_checks(&w.db, &plan, plan.root());
        let sig = segment_signature(&plan, plan.root()).hash;
        (w.db, plan, template, checks, sig)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Monotone safety: under ANY interleaving of band-gated widening,
    /// decayed narrowing and out-of-band noise, every check set that was
    /// admitted exactly *and recorded as a match* stays admitted
    /// forever.
    #[test]
    fn decayed_refinement_never_rejects_a_recorded_match(
        events in prop::collection::vec(event_strategy(), 1..24),
    ) {
        let (_db, _plan, template, checks, sig) = monotone_fixture();
        let sig = *sig;
        let kb = KnowledgeBase::new();
        kb.insert(template);
        let iri = vocab::template_iri(&template.id).str_value().to_string();
        let admits = |cs: &[PopCheck]| {
            kb.candidate_templates_admitting(sig, &AdmissionQuery::exact(cs))
                .contains(&iri)
        };
        let narrows_all: Vec<String> = {
            let mut tys: Vec<String> =
                checks.iter().map(|c| c.pop_type.to_string()).collect();
            tys.sort();
            tys.dedup();
            tys
        };

        let mut recorded: Vec<Vec<PopCheck>> = vec![checks.clone()];
        kb.refine_template_stats(&iri, &TemplateRefinement {
            observations: observations(checks, f64::INFINITY),
            narrows: vec![],
        });
        for event in &events {
            match event {
                Event::Observe { factor, band } => {
                    let cs = displaced(checks, *factor);
                    kb.refine_template_stats(&iri, &TemplateRefinement {
                        observations: observations(&cs, *band),
                        narrows: vec![],
                    });
                }
                Event::Matched { factor } => {
                    let cs = displaced(checks, *factor);
                    if admits(&cs) {
                        kb.refine_template_stats(&iri, &TemplateRefinement {
                            observations: observations(&cs, f64::INFINITY),
                            narrows: vec![],
                        });
                        recorded.push(cs);
                    }
                }
                Event::Narrow { decay } => {
                    kb.refine_template_stats(&iri, &TemplateRefinement {
                        observations: vec![],
                        narrows: narrows_all.iter().map(|t| (t.clone(), *decay)).collect(),
                    });
                }
            }
            for (k, cs) in recorded.iter().enumerate() {
                prop_assert!(
                    admits(cs),
                    "recorded match {k} lost after {event:?} (of {} events)",
                    events.len(),
                );
            }
        }
    }
}
