//! Property-based tests on cross-crate invariants: random SPJ queries over
//! the TPC-DS schema must plan into valid QGMs, estimates must be
//! decomposable and order-independent, abstraction must preserve guideline
//! structure, and the measurement pipeline must be deterministic.

use std::collections::BTreeSet;

use galo_catalog::Database;
use galo_core::oracle::{self, match_plan_text};
use galo_core::{
    abstract_plan, candidate_verdicts, compile_plan, diagnose, learn_workload, match_plan,
    segment_scan_qualifiers, segment_to_probe, vocab, KnowledgeBase, LearningConfig, MatchConfig,
    MatchReport, PopObservation, Template, TemplateRefinement,
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

    /// The pre-order contract the one-pass compile rests on: over the
    /// optimizer's plan and random plans of a random query, every
    /// operator's subtree is the `op_id` range its one-pass extent
    /// derives, with the join count the pass counted, and every segment
    /// carries its root's extent.
    #[test]
    fn subtrees_are_the_op_id_ranges_the_single_pass_derives(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..6),
        seed in 0u64..1_000,
    ) {
        let db = tpcds::database();
        let Some(q) = random_query(&db, fact, dims) else { return Ok(()) };
        let optimizer = Optimizer::new(&db);
        let mut rng = StdRng::seed_from_u64(seed);
        let random = optimizer.random_plans(&q);
        let plans = std::iter::once(optimizer.optimize(&q).ok())
            .chain((0..3).map(|_| random.generate(&mut rng)))
            .flatten();
        for plan in plans {
            let extents = plan.extents();
            for (id, pop) in plan.pops() {
                let extent = extents[id.0 as usize];
                let walked: Vec<u32> = plan.subtree(id).iter().map(|&p| plan.pop(p).op_id).collect();
                let derived: Vec<u32> = (pop.op_id..pop.op_id + extent.size as u32).collect();
                prop_assert_eq!(walked, derived);
                prop_assert_eq!(extent.joins, plan.join_count(id));
            }
            for seg in segments(&plan, 6) {
                let root = plan.pop(seg.root);
                prop_assert_eq!(seg.start, root.op_id as usize - 1);
                prop_assert_eq!(seg.len, extents[seg.root.0 as usize].size);
                prop_assert_eq!(seg.join_count, plan.join_count(seg.root));
            }
        }
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

    /// The matcher and the text oracle are interchangeable: for random
    /// plans against a KB of templates abstracted from random alternative
    /// plans (some matching, some displaced out of range), both produce
    /// exactly the same rewrites. And every segment's probe, under every
    /// option, carries as its scan variables exactly the labels its query
    /// projects.
    #[test]
    fn probe_pipeline_matches_text_oracle(
        fact in 0usize..3,
        dims in prop::collection::vec(0usize..6, 1..4),
        seed in 0u64..1000,
        self_template in prop::bool::ANY,
        displace in prop::bool::ANY,
        near in 0usize..3,
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
                    let r = p.cardinality.envelope();
                    p.cardinality =
                        galo_core::StatSketch::from_range(r.lo * 1.0e6, r.hi * 1.0e6);
                }
            }
            tpl.source_workload = "prop".into();
            kb.insert(&tpl);
        }

        // Near-miss tracking counts rejects; it never changes a match.
        let cfg = MatchConfig {
            near_miss_factor: NEAR_FACTORS[near],
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

        // The scan variables are the `?tab_<op_id>` variables the query
        // projects, in scan pre-order, with the segment's qualifiers.
        for seg in segments(&plan, cfg.join_threshold) {
            for include_ranges in [true, false] {
                let probe = segment_to_probe(&db, &plan, seg.root, include_ranges);
                let projected: Vec<&str> = probe
                    .query
                    .vars
                    .iter()
                    .map(String::as_str)
                    .filter(|v| v.starts_with("tab_"))
                    .collect();
                let vars: Vec<&str> = probe.scan_vars.iter().map(|sv| sv.var.as_str()).collect();
                prop_assert_eq!(vars, projected);
                let scans: Vec<(u32, String)> = probe
                    .scan_vars
                    .iter()
                    .map(|sv| (sv.op_id, sv.qualifier.clone()))
                    .collect();
                prop_assert_eq!(scans, segment_scan_qualifiers(&plan, seg.root));
                for sv in &probe.scan_vars {
                    prop_assert_eq!(&sv.var, &format!("tab_{}", sv.op_id));
                }
            }
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

/// Near-miss factors the differentials match under: off, and the
/// widenings a feedback round uses.
const NEAR_FACTORS: [f64; 3] = [1.0, 2.0, 4.0];

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
    near_miss_factor: f64,
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
                cards: vec![(p.cardinality.envelope().hi * 3.0, f64::INFINITY)],
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

    for near_miss_factor in [1.0, near_miss_factor] {
        let cfg = MatchConfig {
            near_miss_factor,
            ..MatchConfig::default()
        };
        let compiled = compile_plan(&db, &plan, &cfg);
        for v in candidate_verdicts(&kb, &compiled) {
            let root = plan
                .pops()
                .find(|(_, p)| p.op_id == v.segment_op_id)
                .map(|(id, _)| id)
                .expect("a segment root");
            let probed = oracle::probe_labels(&db, &kb, &plan, root, &v.template_iri);
            assert_eq!(
                v.verdict.clone().ok(),
                probed,
                "{v:?} at near-miss factor {near_miss_factor}"
            );
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
        assert_eq!(rewrites(&native), rewrites(&by_probe), "{near_miss_factor}");
        assert_eq!(rewrites(&native), rewrites(&by_text), "{near_miss_factor}");
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
        near in 0usize..3,
        wide in prop::bool::ANY,
    ) {
        let widen = if wide { 1e4 } else { 1.5 };
        native_against_probe(fact, dims, seed, NEAR_FACTORS[near], widen);
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
                4.0,
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

/// TPC-DS and the client workload, built once for the tests that sample
/// their queries.
fn workloads() -> &'static [Workload; 2] {
    static WORKLOADS: std::sync::OnceLock<[Workload; 2]> = std::sync::OnceLock::new();
    WORKLOADS.get_or_init(|| [tpcds::workload(), galo_workloads::client::workload()])
}

/// Every plan shape the optimizer emits for `q`: its own plan, four random
/// plans, and its plan under each random plan's guideline.
fn plan_shapes(db: &Database, q: &Query, rng: &mut StdRng) -> Vec<Qgm> {
    let optimizer = Optimizer::new(db);
    let random = optimizer.random_plans(q);
    let mut plans: Vec<Qgm> = optimizer.optimize(q).into_iter().collect();
    for _ in 0..4 {
        let Some(alt) = random.generate(rng) else {
            continue;
        };
        if let Some(guideline) = guideline_from_plan(&alt, alt.root()) {
            let doc = GuidelineDoc::new(vec![guideline]);
            if let Ok(reopt) = optimizer.optimize_with_guidelines(q, &doc) {
                plans.push(reopt.qgm);
            }
        }
        plans.push(alt);
    }
    plans
}

/// The plan fingerprint as it was built before it wrote into one buffer:
/// a `String` per operator and its children's joined.
fn fingerprint_reference(plan: &Qgm, id: PopId) -> String {
    let pop = plan.pop(id);
    let children: Vec<String> = pop
        .inputs
        .iter()
        .map(|&c| fingerprint_reference(plan, c))
        .collect();
    let label = match &pop.kind {
        galo_qgm::PopKind::TbScan { table } => format!("TBSCAN[{table}]"),
        galo_qgm::PopKind::IxScan {
            table,
            index,
            fetch,
        } => format!(
            "IXSCAN[{table},{},{}]",
            index.0,
            if *fetch { "F" } else { "-" }
        ),
        other => other.name().to_string(),
    };
    if children.is_empty() {
        label
    } else {
        format!("{label}({})", children.join(","))
    }
}

/// `db2batch` as it ran before it batched: a fresh `Simulator::run` per
/// run, its noise drawn right after it.
fn db2batch_reference(
    db: &Database,
    qgm: &Qgm,
    runs: usize,
    noise: &NoiseModel,
    rng: &mut StdRng,
) -> Vec<galo_executor::RunMeasurement> {
    use rand::Rng;
    let sim = galo_executor::Simulator::new(db);
    (0..runs)
        .map(|i| {
            let base = sim.run(qgm, i > 0);
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let mut elapsed = base.elapsed_ms * (z * noise.sigma).exp();
            let anomalous = rng.gen_bool(noise.anomaly_rate.clamp(0.0, 1.0));
            if anomalous {
                elapsed *= rng.gen_range(noise.anomaly_factor.0..noise.anomaly_factor.1);
            }
            galo_executor::RunMeasurement {
                elapsed_ms: elapsed,
                metrics: base.metrics,
                anomalous,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On every plan shape of random workload queries and of their
    /// learning sub-queries, each operator's one-pass table set is the
    /// fold of `tables_under`, and the one-buffer fingerprint is the
    /// reference text, for the plan and every subtree.
    #[test]
    fn table_sets_and_fingerprints_equal_the_per_operator_references(
        pick in 0usize..215,
        sub in 0usize..40,
        seed in 0u64..1_000,
    ) {
        let w = &workloads()[usize::from(pick >= 99)];
        let query = &w.queries[pick % 99 % w.queries.len()];
        let subs: Vec<Query> = galo_sql::subqueries(query, 4).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for q in std::iter::once(query).chain(subs.get(sub % subs.len().max(1))) {
            for plan in plan_shapes(&w.db, q, &mut rng) {
                let sets = plan.table_sets();
                prop_assert_eq!(sets.len(), plan.len());
                for (id, _) in plan.pops() {
                    let fold = plan
                        .tables_under(id)
                        .into_iter()
                        .fold(0u64, |acc, t| acc | (1 << t));
                    prop_assert_eq!(sets[id.0 as usize], fold);
                    prop_assert_eq!(plan.fingerprint(id), fingerprint_reference(&plan, id));
                }
            }
        }
    }

    /// The batched `db2batch` (cold and warm each simulated once) returns
    /// the measurements of a fresh run per measurement, bit for bit, and
    /// leaves the generator where the reference leaves it: over every plan
    /// shape of random learning sub-queries, 1–4 runs, the default noise
    /// and a high-anomaly one.
    #[test]
    fn batched_db2batch_equals_a_fresh_run_per_measurement(
        pick in 0usize..215,
        sub in 0usize..40,
        seed in 0u64..1_000,
        runs in 1usize..5,
        anomalous in prop::bool::ANY,
    ) {
        let noise = if anomalous {
            NoiseModel { sigma: 0.3, anomaly_rate: 0.6, anomaly_factor: (1.5, 9.0) }
        } else {
            NoiseModel::default()
        };
        let w = &workloads()[usize::from(pick >= 99)];
        let query = &w.queries[pick % 99 % w.queries.len()];
        let subs: Vec<Query> = galo_sql::subqueries(query, 4).collect();
        let q = subs.get(sub % subs.len().max(1)).unwrap_or(query);
        let mut plans_rng = StdRng::seed_from_u64(seed);
        for plan in plan_shapes(&w.db, q, &mut plans_rng) {
            let mut batched_rng = StdRng::seed_from_u64(seed ^ 0xdb2);
            let mut reference_rng = batched_rng.clone();
            let batched = db2batch(&w.db, &plan, runs, &noise, &mut batched_rng);
            let reference = db2batch_reference(&w.db, &plan, runs, &noise, &mut reference_rng);
            prop_assert_eq!(batched.len(), runs);
            for (b, r) in batched.iter().zip(&reference) {
                prop_assert_eq!(b.elapsed_ms.to_bits(), r.elapsed_ms.to_bits());
                let bits = |m: &galo_executor::Metrics| {
                    [m.bp_logical_reads, m.bp_physical_reads, m.cpu_ms, m.sort_heap_hwm_pages]
                        .map(f64::to_bits)
                };
                prop_assert_eq!(bits(&b.metrics), bits(&r.metrics));
                prop_assert_eq!(b.anomalous, r.anomalous);
            }
            use rand::RngCore;
            prop_assert_eq!(batched_rng.next_u64(), reference_rng.next_u64());
        }
    }
}
