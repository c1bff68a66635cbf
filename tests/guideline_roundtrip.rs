//! Guideline and knowledge-base round-trips: XML serialization, canonical
//! abstraction, RDF storage, SPARQL retrieval — the full representation
//! chain the matching engine depends on.

use galo_core::{abstract_plan, match_plan, KnowledgeBase, MatchConfig};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, GuidelineNode};
use galo_sql::CmpOp;
use galo_workloads::{tpcds, QueryBuilder};
use proptest::prelude::*;

/// Strategy for random guideline trees over qualifiers Q1..Q6.
fn guideline_tree() -> impl Strategy<Value = GuidelineNode> {
    let leaf = (1u8..7, prop::bool::ANY, prop::option::of("[A-Z]{2,8}")).prop_map(|(q, tb, ix)| {
        let tabid = format!("Q{q}");
        if tb {
            GuidelineNode::TbScan { tabid }
        } else {
            GuidelineNode::IxScan { tabid, index: ix }
        }
    });
    leaf.prop_recursive(3, 16, 2, |inner| {
        (0u8..3, inner.clone(), inner).prop_map(|(kind, o, i)| match kind {
            0 => GuidelineNode::HsJoin(Box::new(o), Box::new(i)),
            1 => GuidelineNode::MsJoin(Box::new(o), Box::new(i)),
            _ => GuidelineNode::NlJoin(Box::new(o), Box::new(i)),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any guideline tree survives the XML round-trip byte-identically.
    #[test]
    fn xml_roundtrip_is_lossless(tree in guideline_tree()) {
        let doc = GuidelineDoc::new(vec![tree]);
        let parsed = GuidelineDoc::parse_xml(&doc.to_xml()).expect("own XML parses");
        prop_assert_eq!(parsed, doc);
    }

    /// TABID rewriting is structure-preserving and composable.
    #[test]
    fn map_tabids_composes(tree in guideline_tree()) {
        let once = tree.map_tabids(&|t| format!("X{t}"));
        let twice = once.map_tabids(&|t| t.strip_prefix('X').unwrap_or(t).to_string());
        prop_assert_eq!(twice, tree.clone());
        prop_assert_eq!(once.join_count(), tree.join_count());
    }
}

/// The learned-template chain: abstract → insert → SPARQL-match →
/// translate back to query qualifiers, on a real optimizer plan.
#[test]
fn template_chain_matches_its_own_source_plan() {
    let db = tpcds::database();
    let mut qb = QueryBuilder::new(&db, "chain");
    let ca = qb.table("CUSTOMER_ADDRESS");
    let cs = qb.table("CATALOG_SALES");
    qb.join((ca, "CA_ADDRESS_SK"), (cs, "CS_ADDR_SK"))
        .cmp(ca, "CA_STATE", CmpOp::Eq, "TX")
        .select(cs, "CS_LIST_PRICE");
    let q = qb.build();

    let optimizer = Optimizer::new(&db);
    let plan = optimizer.optimize(&q).expect("plans");
    let fix = GuidelineDoc::new(vec![GuidelineNode::HsJoin(
        Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
        Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
    )]);

    let kb = KnowledgeBase::new();
    let mut tpl = abstract_plan(&db, &plan, plan.root(), &fix, kb.fresh_id(1));
    for p in &mut tpl.pops {
        p.cardinality.set_widen(2.0);
        if let Some(scan) = &mut p.scan {
            scan.row_size.set_widen(1.5);
            scan.fpages.set_widen(2.0);
            scan.base_cardinality.set_widen(2.0);
        }
    }
    tpl.improvement = 0.5;
    tpl.source_workload = "unit".into();
    kb.insert(&tpl);

    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert_eq!(report.rewrites.len(), 1, "template must match its source");
    let rewrite = &report.rewrites[0];
    assert_eq!(rewrite.source_workload, "unit");
    // Canonical labels translated back to this query's qualifiers, with
    // the swap preserved: the fix builds from Q2's side first.
    assert_eq!(rewrite.guideline.tabids(), vec!["Q2", "Q1"]);

    // And the re-optimization honors it.
    let doc = report.guideline_doc();
    let reopt = optimizer.optimize_with_guidelines(&q, &doc).expect("plans");
    assert_eq!(reopt.outcome.honored, vec![true]);
}

/// Ranges gate matching: the same template with displaced cardinality
/// bounds must not match.
#[test]
fn displaced_ranges_do_not_match() {
    let db = tpcds::database();
    let mut qb = QueryBuilder::new(&db, "chain2");
    let ca = qb.table("CUSTOMER_ADDRESS");
    let cs = qb.table("CATALOG_SALES");
    qb.join((ca, "CA_ADDRESS_SK"), (cs, "CS_ADDR_SK"))
        .cmp(ca, "CA_STATE", CmpOp::Eq, "TX")
        .select(cs, "CS_LIST_PRICE");
    let q = qb.build();
    let optimizer = Optimizer::new(&db);
    let plan = optimizer.optimize(&q).expect("plans");
    let fix = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).expect("joins")]);

    let kb = KnowledgeBase::new();
    let mut tpl = abstract_plan(&db, &plan, plan.root(), &fix, kb.fresh_id(9));
    for p in &mut tpl.pops {
        p.cardinality = galo_core::Stat::from_range(1.0e12, 2.0e12);
    }
    tpl.source_workload = "unit".into();
    kb.insert(&tpl);
    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert!(report.rewrites.is_empty());
}
