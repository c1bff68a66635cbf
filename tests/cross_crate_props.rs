//! Property-based tests on cross-crate invariants: random SPJ queries over
//! the TPC-DS schema must plan into valid QGMs, estimates must be
//! decomposable and order-independent, abstraction must preserve guideline
//! structure, and the measurement pipeline must be deterministic.

use std::collections::BTreeSet;

use galo_catalog::Database;
use galo_core::oracle::{self, match_plan_text};
use galo_core::{
    abstract_plan, candidate_verdicts, compile_plan, diagnose, learn_workload, match_plan,
    segment_to_probe, segment_to_sparql_opt, vocab, KnowledgeBase, LearningConfig, MatchConfig,
    MatchReport, PopObservation, ProbeOptions, Template, TemplateRefinement,
};
use galo_executor::{db2batch, NoiseModel};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, segments, GuidelineDoc, PopId, Qgm};
use galo_rdf::Quad;
use galo_sql::{CardEstimator, JoinPred, Query, TableRef};
use galo_workloads::{tpcds, Workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a random connected star/chain query over the TPC-DS catalog from
/// a proptest-chosen shape.
fn random_query(db: &Database, fact_pick: usize, dims: Vec<usize>) -> Option<Query> {
    let edges = tpcds::fk_edges();
    let facts = ["STORE_SALES", "CATALOG_SALES", "WEB_SALES"];
    let fact = facts[fact_pick % facts.len()];
    let fact_edges: Vec<_> = edges.iter().filter(|e| e.fact == fact).collect();
    if fact_edges.is_empty() {
        return None;
    }

    let fact_id = db.table_id(fact)?;
    let mut tables = vec![TableRef {
        table: fact_id,
        qualifier: "Q1".into(),
    }];
    let mut joins = Vec::new();
    for (i, d) in dims.iter().enumerate() {
        let edge = fact_edges[d % fact_edges.len()];
        let dim_id = db.table_id(edge.dim)?;
        // Skip duplicate dims to keep the query a simple star.
        if tables.iter().any(|t| t.table == dim_id) {
            continue;
        }
        tables.push(TableRef {
            table: dim_id,
            qualifier: format!("Q{}", i + 2),
        });
        let fk = db.table(fact_id).column_id(edge.fk_col)?;
        let pk = db.table(dim_id).column_id(edge.pk_col)?;
        joins.push(JoinPred {
            left: galo_sql::ColRef {
                table_idx: 0,
                column: fk,
            },
            right: galo_sql::ColRef {
                table_idx: tables.len() - 1,
                column: pk,
            },
        });
    }
    if joins.is_empty() {
        return None;
    }
    Some(Query {
        name: "prop".into(),
        tables,
        joins,
        locals: vec![],
        projections: vec![],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random star query plans into a QGM covering each table
    /// exactly once with n-1 joins.
    #[test]
    fn plans_cover_tables_exactly_once(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..5),
    ) {
        let db = tpcds::database();
        let Some(q) = random_query(&db, fact, dims) else { return Ok(()) };
        let plan = Optimizer::new(&db).optimize(&q).expect("connected star must plan");
        let mut seen = plan.tables_under(plan.root());
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..q.tables.len()).collect::<Vec<_>>());
        prop_assert_eq!(plan.join_count(plan.root()), q.tables.len() - 1);
    }

    /// Cardinality estimation is a pure function of the table set:
    /// breaking a set into any two halves multiplies out consistently.
    #[test]
    fn estimates_are_decomposable(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 2..5),
        split in 1u64..6,
    ) {
        let db = tpcds::database();
        let Some(q) = random_query(&db, fact, dims) else { return Ok(()) };
        let est = CardEstimator::belief(&db, &q);
        let n = q.tables.len() as u64;
        let full = (1u64 << n) - 1;
        let left = split & full;
        if left == 0 || left == full { return Ok(()); }
        // join_card(full) is independent of how the DP reaches it; verify
        // against an explicit evaluation of the same set.
        let direct = est.join_card(full);
        let again = est.join_card(full);
        prop_assert!((direct - again).abs() <= f64::EPSILON * direct.abs());
        // Monotonicity: adding a table without predicates (FK dim) never
        // increases... (it keeps or shrinks the fact side under FK
        // containment, so card(full) <= card(fact alone) * 1.05).
        let fact_card = est.join_card(1);
        prop_assert!(direct <= fact_card * 1.05,
            "star join output {direct} exceeds fact cardinality {fact_card}");
    }

    /// Plan -> guideline -> re-optimization honors the guideline and
    /// reproduces the same join/scan skeleton.
    #[test]
    fn guideline_roundtrip_reproduces_shape(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..4),
        seed in 0u64..50,
    ) {
        let db = tpcds::database();
        let Some(q) = random_query(&db, fact, dims) else { return Ok(()) };
        let optimizer = Optimizer::new(&db);
        let gen = optimizer.random_plans(&q);
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(alt) = gen.generate(&mut rng) else { return Ok(()) };
        let Some(g) = guideline_from_plan(&alt, alt.root()) else { return Ok(()) };
        let doc = GuidelineDoc::new(vec![g.clone()]);
        let reopt = optimizer.optimize_with_guidelines(&q, &doc).expect("plans");
        prop_assert_eq!(reopt.outcome.honored, vec![true],
            "notes: {:?}", reopt.outcome.notes);
        // The re-optimized plan's guideline skeleton equals the requested
        // one (sorts and residual operators aside).
        let again = guideline_from_plan(&reopt.qgm, reopt.qgm.root()).expect("joins exist");
        prop_assert_eq!(again, g);
    }

    /// The compiled probe-IR pipeline and the legacy text pipeline are
    /// interchangeable: for random plans against a KB of templates
    /// abstracted from random alternative plans (some matching, some
    /// displaced out of range), both produce exactly the same rewrites,
    /// and every segment's compiled probe is byte-identical to the parsed
    /// text query.
    #[test]
    fn probe_pipeline_matches_text_oracle(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..4),
        seed in 0u64..1000,
        self_template in prop::bool::ANY,
        displace in prop::bool::ANY,
        margin_tenths in 10u64..40,
    ) {
        let db = tpcds::database();
        let Some(q) = random_query(&db, fact, dims) else { return Ok(()) };
        let optimizer = Optimizer::new(&db);
        let plan = optimizer.optimize(&q).expect("plans");
        let gen = optimizer.random_plans(&q);
        let mut rng = StdRng::seed_from_u64(seed);

        // A KB of templates abstracted from random alternatives of the
        // same query; optionally one from the optimizer's own plan (a
        // guaranteed structural match) and optionally one displaced out
        // of its validity ranges.
        let kb = KnowledgeBase::new();
        let mut sources: Vec<galo_qgm::Qgm> = gen.generate_distinct(3, &mut rng);
        if self_template {
            sources.push(plan.clone());
        }
        for (i, src) in sources.iter().enumerate() {
            let Some(g) = guideline_from_plan(src, src.root()) else { continue };
            let doc = GuidelineDoc::new(vec![g]);
            let mut tpl = abstract_plan(&db, src, src.root(), &doc, kb.fresh_id(i as u64));
            for p in &mut tpl.pops {
                p.cardinality.set_widen(1.5);
                if displace && i == 0 {
                    let r = p.cardinality.envelope(0.0);
                    p.cardinality =
                        galo_core::StatSketch::from_range(r.lo * 1.0e6, r.hi * 1.0e6);
                }
            }
            tpl.source_workload = "prop".into();
            kb.insert(&tpl);
        }

        let cfg = MatchConfig {
            range_margin: margin_tenths as f64 / 10.0,
            ..MatchConfig::default()
        };
        let probe_report = match_plan(&db, &kb, &plan, &cfg);
        let text_report = match_plan_text(&db, &kb, &plan, &cfg);
        prop_assert_eq!(probe_report.rewrites.len(), text_report.rewrites.len());
        for (a, b) in probe_report.rewrites.iter().zip(&text_report.rewrites) {
            prop_assert_eq!(a.segment_op_id, b.segment_op_id);
            prop_assert_eq!(&a.template_iri, &b.template_iri);
            prop_assert_eq!(&a.source_workload, &b.source_workload);
            prop_assert_eq!(&a.guideline, &b.guideline);
        }
        if self_template && !displace {
            prop_assert!(
                !probe_report.rewrites.is_empty(),
                "a template abstracted from the plan itself must match"
            );
        }

        // The compiled probe is the parse of the text query, per segment.
        let opts = ProbeOptions {
            range_margin: cfg.range_margin,
            include_ranges: true,
        };
        for seg in segments(&plan, cfg.join_threshold) {
            let compiled = segment_to_probe(&db, &plan, seg.root, &opts);
            let text = segment_to_sparql_opt(&db, &plan, seg.root, &opts);
            let parsed = galo_rdf::parse_select(&text).expect("generated SPARQL parses");
            prop_assert_eq!(compiled.query, parsed);
        }
    }

    /// db2batch measurement is deterministic per seed and positive.
    #[test]
    fn measurements_deterministic_per_seed(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..3),
        seed in 0u64..100,
    ) {
        let db = tpcds::database();
        let Some(q) = random_query(&db, fact, dims) else { return Ok(()) };
        let plan = Optimizer::new(&db).optimize(&q).expect("plans");
        let noise = NoiseModel::default();
        let a = db2batch(&db, &plan, 4, &noise, &mut StdRng::seed_from_u64(seed));
        let b = db2batch(&db, &plan, 4, &noise, &mut StdRng::seed_from_u64(seed));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.elapsed_ms, y.elapsed_ms);
            prop_assert!(x.elapsed_ms > 0.0);
        }
    }
}

/// A template that does not say what its plan says: the ways the native
/// matcher must agree with the Figure-6 probe on a row that is wrong.
#[derive(Debug, Clone, Copy)]
enum Miswiring {
    /// The first join lists its inputs the other way round: outer and
    /// inner roles swapped.
    SwapRoles,
    /// The first `hasOutputStream` statement is dropped.
    DropOutputStream,
    /// The first join's two inputs are one operator (the other is left
    /// without a parent).
    OneInputTwice,
    /// The first join states both roles of both its inputs, so its
    /// inputs can stand for either of a segment join's: two assignments,
    /// two label vectors.
    BothRoles,
    /// Two same-typed operators trade operator ids, so the row's first
    /// operator of the type is not the one the segment's first maps to.
    TradeIds,
    /// The first scan states no canonical table label.
    DropLabel,
    /// The guideline names a label no scan carries.
    UnboundLabel,
}

const MISWIRINGS: [Miswiring; 7] = [
    Miswiring::SwapRoles,
    Miswiring::DropOutputStream,
    Miswiring::OneInputTwice,
    Miswiring::BothRoles,
    Miswiring::TradeIds,
    Miswiring::DropLabel,
    Miswiring::UnboundLabel,
];

/// The quads of `tpl` mis-wired as `how` says.
fn miswired(tpl: &Template, how: Miswiring) -> Vec<Quad> {
    let mut tpl = tpl.clone();
    let first_join = tpl
        .pops
        .iter()
        .position(|p| p.inputs.len() == 2 && p.inputs[0] != p.inputs[1]);
    match (how, first_join) {
        (Miswiring::SwapRoles, Some(j)) => tpl.pops[j].inputs.reverse(),
        (Miswiring::OneInputTwice, Some(j)) => tpl.pops[j].inputs[1] = tpl.pops[j].inputs[0],
        (Miswiring::TradeIds, _) => {
            let same_typed = (0..tpl.pops.len()).find_map(|a| {
                let b = (a + 1..tpl.pops.len())
                    .find(|&b| tpl.pops[b].pop_type == tpl.pops[a].pop_type)?;
                Some((tpl.pops[a].op_id, tpl.pops[b].op_id))
            });
            if let Some((a, b)) = same_typed {
                let trade = |id: &mut u32| {
                    *id = if *id == a {
                        b
                    } else if *id == b {
                        a
                    } else {
                        *id
                    }
                };
                for pop in &mut tpl.pops {
                    trade(&mut pop.op_id);
                    pop.inputs.iter_mut().for_each(trade);
                }
            }
        }
        (Miswiring::UnboundLabel, _) => {
            let roots = tpl.guideline.roots.iter();
            let unbound = roots.map(|r| r.map_tabids(&|t| format!("{t}9"))).collect();
            tpl.guideline = GuidelineDoc::new(unbound);
        }
        _ => {}
    }
    let mut quads = KnowledgeBase::templates_to_quads(std::slice::from_ref(&tpl));
    let drop_first = |quads: &mut Vec<Quad>, local: &str| {
        let at = quads.iter().position(|q| q.1 == vocab::prop(local));
        at.map(|at| quads.remove(at));
    };
    match (how, first_join) {
        (Miswiring::DropOutputStream, _) => drop_first(&mut quads, vocab::HAS_OUTPUT_STREAM),
        (Miswiring::DropLabel, _) => drop_first(&mut quads, vocab::HAS_CANONICAL_TABID),
        (Miswiring::BothRoles, Some(j)) => {
            let pop = |op_id: u32| vocab::template_pop_iri(&tpl.id, op_id);
            let (join, outer, inner) = {
                let join = &tpl.pops[j];
                (pop(join.op_id), join.inputs[0], join.inputs[1])
            };
            for (role, child) in [
                (vocab::HAS_OUTER_INPUT_STREAM, inner),
                (vocab::HAS_INNER_INPUT_STREAM, outer),
            ] {
                quads.push((join.clone(), vocab::prop(role), pop(child), None));
            }
        }
        _ => {}
    }
    quads
}

/// One case of the native ≡ probe differential: a knowledge base built by
/// learning, `abstract_plan`, a refinement, a retraction and mis-wired
/// templates, matched against a random star query's plan. Every admitted
/// candidate's native verdict and labels must equal the probe's, and the
/// matcher, the probe pipeline and the text pipeline must produce the
/// same rewrites. Returns the verdict kinds seen, with `UnboundLabel` for
/// the matches `diagnose` reports unbound.
fn native_against_probe(
    fact: usize,
    dims: Vec<usize>,
    seed: u64,
    margin: f64,
    widen: f64,
) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let db = tpcds::database();
    let Some(q) = random_query(&db, fact, dims) else {
        return seen;
    };
    let optimizer = Optimizer::new(&db);
    let plan = optimizer.optimize(&q).expect("plans");
    let kb = KnowledgeBase::new();

    let learned = Workload {
        name: "learned".into(),
        db: tpcds::database(),
        queries: vec![q.clone()],
    };
    let learning = LearningConfig {
        threads: 1,
        random_plans: 4,
        runs_per_plan: 2,
        probes_per_pred: 1,
        seed,
        ..LearningConfig::default()
    };
    learn_workload(&learned, &kb, &learning);

    // Templates of the plan's own segments and of random alternatives,
    // every range widened by `widen` so that same-typed operators can
    // fit each other's segment operators.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sources: Vec<(Qgm, PopId)> = segments(&plan, 4)
        .into_iter()
        .map(|s| (plan.clone(), s.root))
        .collect();
    for alt in optimizer.random_plans(&q).generate_distinct(2, &mut rng) {
        let root = alt.root();
        sources.push((alt, root));
    }
    let mut templates = Vec::new();
    for (i, (src, root)) in sources.iter().enumerate() {
        let Some(g) = guideline_from_plan(src, *root) else {
            continue;
        };
        let doc = GuidelineDoc::new(vec![g]);
        let mut tpl = abstract_plan(&db, src, *root, &doc, kb.fresh_id(100 + i as u64));
        for pop in &mut tpl.pops {
            pop.cardinality.set_widen(widen);
            if let Some(scan) = &mut pop.scan {
                for stat in [
                    &mut scan.row_size,
                    &mut scan.fpages,
                    &mut scan.base_cardinality,
                ] {
                    stat.set_widen(widen);
                }
            }
        }
        tpl.source_workload = "abstracted".into();
        templates.push(tpl);
    }
    kb.insert_batch(&templates);
    for (i, tpl) in templates.iter().enumerate() {
        for (k, &how) in MISWIRINGS.iter().enumerate() {
            let mut wrong = tpl.clone();
            wrong.id = kb.fresh_id(1_000 + (i * MISWIRINGS.len() + k) as u64);
            kb.apply_quads(&miswired(&wrong, how));
        }
    }

    // A refinement widens the last template toward a displaced estimate;
    // a retraction takes the first one out again.
    if let Some(tpl) = templates.last() {
        let observations = tpl
            .pops
            .iter()
            .map(|p| PopObservation {
                pop_type: p.pop_type.clone(),
                cards: vec![(p.cardinality.envelope(0.0).hi * 3.0, f64::INFINITY)],
                scan: None,
                scan_band: f64::INFINITY,
            })
            .collect();
        let refinement = TemplateRefinement {
            observations,
            narrows: Vec::new(),
        };
        let iri = vocab::template_iri(&tpl.id);
        kb.refine_template_stats(iri.str_value(), &refinement);
    }
    if let Some(tpl) = templates.first() {
        kb.remove_template(vocab::template_iri(&tpl.id).str_value());
    }

    for margin in [1.0, margin] {
        let cfg = MatchConfig {
            range_margin: margin,
            ..MatchConfig::default()
        };
        let compiled = compile_plan(&db, &plan, &cfg);
        for v in candidate_verdicts(&kb, &compiled) {
            let root = plan
                .pops()
                .find(|(_, p)| p.op_id == v.segment_op_id)
                .map(|(id, _)| id)
                .expect("a segment root");
            let probed = oracle::probe_labels(&db, &kb, &plan, root, &cfg, &v.template_iri);
            assert_eq!(v.verdict.clone().ok(), probed, "{v:?} at margin {margin}");
            seen.insert(match &v.verdict {
                Ok(_) => "Match".to_string(),
                Err(miss) => format!("{miss:?}"),
            });
        }
        let native = match_plan(&db, &kb, &plan, &cfg);
        let by_probe = oracle::match_plan_probe(&db, &kb, &plan, &cfg);
        let by_text = oracle::match_plan_text(&db, &kb, &plan, &cfg);
        let rewrites = |r: &MatchReport| {
            r.rewrites
                .iter()
                .map(|w| (w.segment_op_id, w.template_iri.clone(), w.guideline.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(rewrites(&native), rewrites(&by_probe), "margin {margin}");
        assert_eq!(rewrites(&native), rewrites(&by_text), "margin {margin}");
        assert_eq!(native.probes_executed, by_probe.probes_executed);
        assert_eq!(native.probes_pruned, by_probe.probes_pruned);
        assert_eq!(native.candidates_considered, by_probe.candidates_considered);
        for rejection in diagnose(&db, &kb, &plan, &cfg).rejected {
            seen.insert(format!("{:?}", rejection.reason));
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The matcher's row-local assignment is the Figure-6 probe: on every
    /// admitted candidate of every segment it reaches the probe's verdict
    /// and the probe's least label vector, over knowledge bases built
    /// every way the system builds one plus deliberately mis-wired rows.
    #[test]
    fn native_match_equals_the_probe_oracle(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..4),
        seed in 0u64..1000,
        margin_tenths in 10u64..40,
        wide in prop::bool::ANY,
    ) {
        let widen = if wide { 1e4 } else { 1.5 };
        native_against_probe(fact, dims, seed, margin_tenths as f64 / 10.0, widen);
    }
}

/// The differential is not vacuous: over a fixed set of cases it reaches
/// a match and every reason a row can miss for, but the join count (which
/// the signature already carries).
#[test]
fn the_native_differential_reaches_every_verdict() {
    let mut seen = BTreeSet::new();
    for (case, dims) in [vec![0, 1], vec![0, 2, 3], vec![1, 4], vec![2, 3, 5]]
        .into_iter()
        .enumerate()
    {
        for widen in [1.5, 1e4] {
            seen.extend(native_against_probe(
                case % 3,
                dims.clone(),
                case as u64,
                2.0,
                widen,
            ));
        }
    }
    let every = [
        "Match",
        "TypeOrRange",
        "EdgeOrRole",
        "Assignment",
        "UnboundLabel",
    ];
    for kind in every {
        assert!(seen.contains(kind), "{kind} never reached: {seen:?}");
    }
}
