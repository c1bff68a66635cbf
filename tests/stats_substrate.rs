//! Integration pins on the statistics substrate: the admission pre-check
//! must agree exactly with an independent min/max oracle (and never prune
//! a template the text pipeline matches), and the statistics themselves —
//! count and widen factor too, not just their min/max envelopes — must
//! survive `export`/`import`, a sharded durable reopen, and an explicit
//! `reindex` bit for bit.

use galo_core::oracle::match_plan_text;
use galo_core::{
    abstract_plan, match_plan, segment_pop_checks, vocab, AdmissionQuery, AdmissionStats,
    KbBuilder, KnowledgeBase, MatchConfig, PopCheck, Stat, Template,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, segments, shape_signature, GuidelineDoc};
use galo_rdf::ScratchDir;
use galo_workloads::tpcds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact-bounds admission of one value, recomputed straight from the
/// statistic's stored min/max and widen factor — deliberately *not* via
/// `envelope()`, so it is an independent oracle for the index path.
fn exact_admits(s: &Stat, v: f64, m: f64) -> bool {
    let w = s.widen_factor();
    s.min() / w <= v * m && s.max() * w >= v / m
}

/// The admission semantics re-derived from the public `Template` alone:
/// per check, some same-typed operator must admit the cardinality and
/// (for scans) all three scan stats simultaneously.
fn oracle_admits(tpl: &Template, checks: &[PopCheck], margin: f64) -> bool {
    let m = margin.max(1.0);
    checks.iter().all(|check| {
        tpl.pops.iter().any(|p| {
            if p.pop_type != check.pop_type || !exact_admits(&p.cardinality, check.est_card, m) {
                return false;
            }
            match (&check.scan, &p.scan) {
                (Some(sc), Some(ps)) => {
                    exact_admits(&ps.row_size, sc.row_size, m)
                        && exact_admits(&ps.fpages, sc.fpages, m)
                        && exact_admits(&ps.base_cardinality, sc.base_cardinality, m)
                }
                _ => true,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The signature index admits exactly the templates the min/max
    /// oracle admits, counts as near misses exactly the ones the
    /// oracle admits only with its ranges widened by the near-miss
    /// factor, and the probe pipeline (which runs behind
    /// the pre-check) still agrees with the text pipeline (which does
    /// not): the pre-check is a pure necessary condition.
    #[test]
    fn admission_equals_exact_minmax_oracle(
        qi in 0usize..10,
        seed in 0u64..500,
        near in 0usize..3,
        displace in prop::bool::ANY,
    ) {
        let w = tpcds::workload();
        let q = &w.queries[qi];
        let optimizer = Optimizer::new(&w.db);
        let plan = optimizer.optimize(q).expect("workload query plans");
        let gen = optimizer.random_plans(q);
        let mut rng = StdRng::seed_from_u64(seed);

        // Templates from random alternatives of the same query plus one
        // from the plan itself; optionally displace one out of range.
        let kb = KnowledgeBase::new();
        let mut stored: Vec<(String, Template)> = Vec::new();
        let mut sources = gen.generate_distinct(3, &mut rng);
        sources.push(plan.clone());
        for (i, src) in sources.iter().enumerate() {
            let Some(g) = guideline_from_plan(src, src.root()) else { continue };
            let doc = GuidelineDoc::new(vec![g]);
            let mut tpl = abstract_plan(&w.db, src, src.root(), &doc, kb.fresh_id(i as u64));
            for p in &mut tpl.pops {
                p.cardinality.set_widen(1.5);
                if displace && i == 0 {
                    let r = p.cardinality.envelope();
                    p.cardinality = Stat::from_range(r.lo * 1.0e6, r.hi * 1.0e6);
                }
            }
            tpl.source_workload = "prop".into();
            kb.insert(&tpl);
            stored.push((vocab::template_iri(&tpl.id).str_value().to_string(), tpl));
        }

        // Near misses are the oracle's rejects that the ranges widened by
        // the factor admit.
        let near_miss_factor = [1.0, 2.0, 4.0][near];
        let cfg = MatchConfig { near_miss_factor, ..MatchConfig::default() };
        for seg in segments(&plan, cfg.join_threshold) {
            let checks = segment_pop_checks(&w.db, &plan, seg.root);
            let sig = shape_signature(seg.join_count, checks.iter().map(|c| c.pop_type));
            let query = AdmissionQuery {
                near_factor: near_miss_factor,
                ..AdmissionQuery::exact(&checks)
            };
            let mut stats = AdmissionStats::default();
            let mut admitted: Vec<String> = Vec::new();
            while let Some(iri) = kb.next_candidate_admitting(
                sig,
                &query,
                admitted.last().map(String::as_str),
                &mut stats,
            ) {
                admitted.push(iri);
            }
            let oracle = |m: f64| -> Vec<String> {
                let mut iris: Vec<String> = stored
                    .iter()
                    .filter(|(_, t)| {
                        KnowledgeBase::template_signature(t) == sig && oracle_admits(t, &checks, m)
                    })
                    .map(|(iri, _)| iri.clone())
                    .collect();
                iris.sort();
                iris
            };
            let exact = oracle(1.0);
            let near_misses = if near_miss_factor > 1.0 {
                oracle(near_miss_factor).len() - exact.len()
            } else {
                0
            };
            prop_assert_eq!(admitted, exact);
            prop_assert_eq!(stats.near_misses, near_misses);
        }

        let probe = match_plan(&w.db, &kb, &plan, &cfg);
        let text = match_plan_text(&w.db, &kb, &plan, &cfg);
        prop_assert_eq!(probe.rewrites.len(), text.rewrites.len());
        for (a, b) in probe.rewrites.iter().zip(&text.rewrites) {
            prop_assert_eq!(&a.template_iri, &b.template_iri);
            prop_assert_eq!(a.segment_op_id, b.segment_op_id);
        }
    }
}

/// Every stat literal the knowledge base stores, decoded, as
/// `(operator IRI, property, [count, min, max, widen] as bits)`, sorted.
fn stored_stats(kb: &KnowledgeBase) -> Vec<(String, &'static str, [u64; 4])> {
    let properties = [
        vocab::HAS_CARDINALITY_STAT,
        vocab::HAS_ROW_SIZE_STAT,
        vocab::HAS_FPAGES_STAT,
        vocab::HAS_BASE_CARDINALITY_STAT,
    ];
    let mut stats = Vec::new();
    for property in properties {
        let iri = vocab::prop(property);
        let query = format!("SELECT ?op ?st WHERE {{ ?op <{}> ?st }}", iri.str_value());
        let rows = kb.server().query(&query).expect("the scan parses");
        for row in 0..rows.len() {
            let op = rows.get(row, "op").expect("bound").str_value().to_string();
            let literal = rows.get(row, "st").expect("bound").str_value();
            let stat = Stat::parse(literal).expect("a stored stat parses");
            stats.push((op, property, bits(&stat)));
        }
    }
    stats.sort();
    stats
}

/// A statistic's four numbers as bits.
fn bits(stat: &Stat) -> [u64; 4] {
    [stat.count(), stat.min(), stat.max(), stat.widen_factor()].map(f64::to_bits)
}

/// Stat triples survive `export` → `import`, a sharded durable reopen,
/// and an explicit `reindex`: every stored statistic is the one the
/// template was written with, bit for bit, its count included.
/// (Feedback refines these statistics, so losing them would lose the
/// observations a refinement folds into.)
#[test]
fn sketches_survive_import_sharded_reopen_and_reindex() {
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let plan = optimizer
        .optimize(&w.queries[0])
        .expect("workload query plans");
    let kb_mem = KnowledgeBase::new();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let mut tpl = abstract_plan(&w.db, &plan, plan.root(), &g, kb_mem.fresh_id(3));
    // A statistic of many observations, widened, on the root operator.
    let spread = &mut tpl.pops[0].cardinality;
    for k in 0..200 {
        spread.observe(10.0 + ((k * 37) % 113) as f64 / 3.0);
    }
    spread.observe(9.0e9);
    spread.set_widen(1.5);
    tpl.source_workload = "tpcds".into();
    kb_mem.insert(&tpl);

    let written = stored_stats(&kb_mem);
    assert!(
        written
            .iter()
            .any(|(_, p, stat)| *p == vocab::HAS_CARDINALITY_STAT
                && *stat == bits(&tpl.pops[0].cardinality)),
        "the root operator's statistic is stored as written"
    );
    assert_eq!(
        written.len(),
        tpl.pops.len() + 3 * tpl.pops.iter().filter(|p| p.scan.is_some()).count(),
        "one statistic per stored stat"
    );

    let dump = kb_mem.export();
    let imported = KnowledgeBase::new();
    imported.import(&dump).unwrap();
    assert_eq!(stored_stats(&imported), written, "export/import");

    let dir = ScratchDir::new("stats-sharded");
    {
        let kb = KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .build_kb()
            .unwrap();
        kb.import(&dump).unwrap();
        assert_eq!(stored_stats(&kb), written, "sharded import");
    }
    // A fresh process: sharded recovery rebuilds the index from disk.
    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_eq!(kb.template_count(), 1);
    assert_eq!(stored_stats(&kb), written, "sharded reopen");
    kb.reindex();
    assert_eq!(stored_stats(&kb), written, "reindex");
    assert_eq!(kb.export(), dump);
}
