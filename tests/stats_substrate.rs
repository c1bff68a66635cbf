//! Integration pins on the quantile-sketch statistics substrate: the
//! trim-0 admission pre-check must agree exactly with an independent
//! min/max oracle (and never prune a template the text pipeline
//! matches), nonzero trim must lose zero true matches while pruning
//! polluted probes, and the sketches themselves — not just their
//! min/max envelopes — must survive `export`/`import`, a sharded
//! durable reopen, and an explicit `reindex`.

use galo_bench::{inflate_kb_polluted, learning_config};
use galo_core::oracle::match_plan_text;
use galo_core::{
    abstract_plan, learn_workload, match_plan, segment_pop_checks, vocab, AdmissionQuery,
    AdmissionStats, KbBuilder, KnowledgeBase, MatchConfig, PopCheck, StatSketch, Template,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, segments, shape_signature, GuidelineDoc};
use galo_rdf::ScratchDir;
use galo_workloads::tpcds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact-bounds admission of one value, recomputed straight from the
/// sketch's stored min/max and widen factor — deliberately *not* via
/// `envelope(0.0)`, so it is an independent oracle for the index path.
fn exact_admits(s: &StatSketch, v: f64, m: f64) -> bool {
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

    /// At trim 0 the signature index admits exactly the templates the
    /// min/max oracle admits, counts as near misses exactly the ones the
    /// oracle admits only with its ranges widened by the near-miss
    /// factor, and the probe pipeline (which runs behind
    /// the pre-check) still agrees with the text pipeline (which does
    /// not): the pre-check is a pure necessary condition.
    #[test]
    fn trim_zero_admission_equals_exact_minmax_oracle(
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
                    let r = p.cardinality.envelope(0.0);
                    p.cardinality = StatSketch::from_range(r.lo * 1.0e6, r.hi * 1.0e6);
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

/// The nonzero-trim differential on a learned-and-polluted knowledge
/// base: every rewrite found at trim 0 is found at trim 0.05 (zero lost
/// true matches), while the trimmed pre-check converts polluted probe
/// evaluations into index rejections.
#[test]
fn trimmed_admission_loses_no_matches_and_prunes_pollution() {
    let w = tpcds::workload();
    let kb = KnowledgeBase::new();
    let small = galo_workloads::Workload {
        name: w.name.clone(),
        db: w.db.clone(),
        queries: w.queries[..8].to_vec(),
    };
    learn_workload(&small, &kb, &learning_config(true));
    let pollution = inflate_kb_polluted(&kb, &w.db, &w.queries[..4], 400);
    assert!(
        pollution.card_polluted + pollution.scan_polluted > 0,
        "the inflation must plant polluted templates for the differential to exercise"
    );

    let optimizer = Optimizer::new(&w.db);
    let exact = MatchConfig::default();
    let trimmed = MatchConfig {
        sketch_trim: 0.05,
        ..MatchConfig::default()
    };
    let mut matched = 0usize;
    let mut pruned = 0usize;
    for q in &w.queries[..10] {
        let plan = optimizer.optimize(q).expect("workload query plans");
        let a = match_plan(&w.db, &kb, &plan, &exact);
        let b = match_plan(&w.db, &kb, &plan, &trimmed);
        assert_eq!(
            a.rewrites.len(),
            b.rewrites.len(),
            "lost a match at trim 0.05"
        );
        for (x, y) in a.rewrites.iter().zip(&b.rewrites) {
            assert_eq!(x.template_iri, y.template_iri);
            assert_eq!(x.segment_op_id, y.segment_op_id);
            assert_eq!(x.guideline, y.guideline);
        }
        matched += a.rewrites.len();
        assert!(b.probes_executed <= a.probes_executed);
        pruned += a.probes_executed - b.probes_executed;
    }
    assert!(
        matched > 0,
        "learned templates must match their own workload"
    );
    assert!(
        pruned > 0,
        "trimming must prune at least one polluted probe"
    );
}

/// A heavy-tailed sketch: 50 observations at `lo`, one outlier at `hi`.
/// Its exact envelope reaches the outlier; a 5% trim drops it (weight 1
/// < 0.05 · 51).
fn covering(lo: f64, hi: f64) -> StatSketch {
    let mut s = StatSketch::new();
    for _ in 0..50 {
        s.observe(lo);
    }
    s.observe(hi);
    s
}

/// The behavioral probe that distinguishes a surviving *sketch* from a
/// min/max-only fallback: exact admission accepts the outlier value,
/// trimmed admission rejects it. If only the bounds survived a
/// round-trip, the trimmed envelope would collapse to the exact one and
/// the rejection would disappear.
fn assert_sketch_behavior(kb: &KnowledgeBase, sig: u64, iri: &str, checks: &[PopCheck]) {
    let admitted = kb.candidate_templates_admitting(sig, &AdmissionQuery::exact(checks));
    assert!(
        admitted.contains(&iri.to_string()),
        "exact bounds must admit the outlier check"
    );
    let trimmed = AdmissionQuery {
        trim: 0.05,
        ..AdmissionQuery::exact(checks)
    };
    assert!(
        !kb.candidate_templates_admitting(sig, &trimmed)
            .contains(&iri.to_string()),
        "trimmed envelope must drop the outlier — the full sketch survived, not just min/max"
    );
}

/// Sketch triples survive `export` → `import`, a sharded durable
/// reopen, and an explicit `reindex` — pinned behaviorally via the
/// trimmed-rejection probe at every step.
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
    let outlier = 9.0e9;
    tpl.pops[0].cardinality = covering(10.0, outlier);
    tpl.source_workload = "tpcds".into();
    kb_mem.insert(&tpl);

    let sig = KnowledgeBase::template_signature(&tpl);
    let iri = vocab::template_iri(&tpl.id).str_value().to_string();
    // The plan's own checks, with the root operator's cardinality moved
    // to the outlier: template pops and segment checks share the same
    // pre-order, so checks[0] is the covered operator.
    let mut checks = segment_pop_checks(&w.db, &plan, plan.root());
    checks[0].est_card = outlier;
    assert_sketch_behavior(&kb_mem, sig, &iri, &checks);

    let dump = kb_mem.export();
    assert!(
        dump.contains(vocab::HAS_CARDINALITY_SKETCH),
        "the export must carry the sketch triples"
    );

    let dir = ScratchDir::new("stats-sharded");
    {
        let kb = KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .build_kb()
            .unwrap();
        kb.import(&dump).unwrap();
        assert_sketch_behavior(&kb, sig, &iri, &checks);
    }
    // A fresh process: sharded recovery rebuilds the index from disk.
    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_eq!(kb.template_count(), 1);
    assert_sketch_behavior(&kb, sig, &iri, &checks);
    // An explicit reindex keeps the sketch-backed envelopes.
    kb.reindex();
    assert_sketch_behavior(&kb, sig, &iri, &checks);
    assert_eq!(kb.export(), dump);
}
