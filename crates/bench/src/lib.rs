//! # galo-bench
//!
//! The experiment harness regenerating every table and figure of the GALO
//! paper's evaluation (§4). Each `expN_*` function reproduces one
//! experiment and returns structured rows; the `experiments` binary prints
//! them in the paper's format. Criterion benches under `benches/` measure
//! the same code paths with statistical rigor.

use std::cell::OnceCell;
use std::time::Instant;

use galo_catalog::Database;
use galo_core::{
    expert_diagnose, match_plan, ExpertConfig, Galo, KnowledgeBase, LearningConfig, LearningReport,
    MatchConfig,
};
use galo_optimizer::Optimizer;
use galo_qgm::guideline_from_plan;
use galo_sql::{CmpOp, Query};
use galo_workloads::{client, tpcds, QueryBuilder, Workload};

/// Learning configuration used by the experiments. `fast` trades sampling
/// breadth for wall time (shape-preserving).
pub fn learning_config(fast: bool) -> LearningConfig {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    if fast {
        LearningConfig {
            probes_per_pred: 2,
            random_plans: 6,
            runs_per_plan: 3,
            max_subqueries_per_query: 60,
            threads,
            ..LearningConfig::default()
        }
    } else {
        LearningConfig {
            threads,
            ..LearningConfig::default()
        }
    }
}

// ---------------------------------------------------------------- Exp-1 --

/// One row of the Figure 9 sweep.
#[derive(Debug, Clone)]
pub struct Exp1Row {
    pub threshold: usize,
    pub avg_query_ms: f64,
    pub avg_subquery_ms: f64,
    pub unique_subqueries: usize,
    pub templates: usize,
    pub avg_improvement: f64,
    /// Simulated machine time spent executing benchmark plans, minutes.
    pub sim_machine_min: f64,
}

/// Exp-1 / Figure 9: learning scalability versus the join-number
/// threshold, over TPC-DS.
pub fn exp1_learning_scalability(thresholds: &[usize], fast: bool) -> Vec<Exp1Row> {
    let w = tpcds::workload();
    thresholds
        .iter()
        .map(|&t| {
            let kb = KnowledgeBase::new();
            let cfg = LearningConfig {
                join_threshold: t,
                ..learning_config(fast)
            };
            let report = galo_core::learn_workload(&w, &kb, &cfg);
            Exp1Row {
                threshold: t,
                avg_query_ms: report.avg_query_ms(),
                avg_subquery_ms: report.avg_subquery_ms(),
                unique_subqueries: report.subqueries_unique,
                templates: report.templates_learned,
                avg_improvement: report.avg_improvement,
                sim_machine_min: report.simulated_machine_ms / 60_000.0,
            }
        })
        .collect()
}

/// The knowledge bases the experiments read, each learned once per
/// process and only when first asked for: the TPC-DS workload alone, the
/// client workload alone, and both — TPC-DS, then the client workload
/// learned into the same KB (the paper's unified, collaborative knowledge
/// base). An experiment that changes a KB works on a copy imported from
/// its export.
pub struct LearnedKbs {
    cfg: LearningConfig,
    pub tpcds: Workload,
    pub client: Workload,
    /// The unified KB, the report of learning TPC-DS into it while it was
    /// empty, and its export at that point: the TPC-DS-only KB.
    both: OnceCell<(Galo, LearningReport, String)>,
    client_alone: OnceCell<LearningReport>,
}

impl LearnedKbs {
    /// Nothing learned yet, under [`learning_config`]`(fast)`.
    pub fn new(fast: bool) -> Self {
        LearnedKbs {
            cfg: learning_config(fast),
            tpcds: tpcds::workload(),
            client: client::workload(),
            both: OnceCell::new(),
            client_alone: OnceCell::new(),
        }
    }

    fn learned_both(&self) -> &(Galo, LearningReport, String) {
        self.both.get_or_init(|| {
            let galo = Galo::new();
            let report = galo.learn(&self.tpcds, &self.cfg);
            let tpcds_only = galo.kb.export();
            galo.learn(&self.client, &self.cfg);
            (galo, report, tpcds_only)
        })
    }

    /// The KB holding the patterns of both workloads.
    pub fn both(&self) -> &Galo {
        &self.learned_both().0
    }

    /// A copy of the TPC-DS-only KB, free to change.
    pub fn tpcds_alone(&self) -> Galo {
        let galo = Galo::new();
        galo.kb
            .import(&self.learned_both().2)
            .expect("a KB's own export imports");
        galo
    }

    /// The report of learning TPC-DS into an empty KB.
    pub fn tpcds_report(&self) -> &LearningReport {
        &self.learned_both().1
    }

    /// The report of learning the client workload into an empty KB.
    pub fn client_report(&self) -> &LearningReport {
        self.client_alone.get_or_init(|| {
            galo_core::learn_workload(&self.client, &KnowledgeBase::new(), &self.cfg)
        })
    }
}

// ---------------------------------------------------------------- Exp-2 --

/// Exp-2 per-workload result (Figure 10).
#[derive(Debug)]
pub struct Exp2Result {
    pub workload: String,
    pub total_queries: usize,
    pub matched_queries: usize,
    pub improved_queries: usize,
    /// Queries a rewrite matched that did not run faster for it.
    pub matched_not_improved: Vec<String>,
    pub avg_gain_improved: f64,
    /// Improved queries that reused a template learned on another workload.
    pub cross_workload_reuses: usize,
    /// The knowledge base and feedback `cross_workload_reuses` was
    /// measured with.
    pub reuse_setting: String,
    /// (query name, re-optimized runtime as % of original) for improved
    /// queries — the paper's blue bars.
    pub bars: Vec<(String, f64)>,
}

/// The near-miss factor of Exp-2's feedback round: TPC-DS-learned ranges
/// widen toward client plans within 4x of them.
pub const EXP2_NEAR_MISS_FACTOR: f64 = 4.0;

/// Exp-2 / Figure 10: re-optimization improvement over both workloads.
/// TPC-DS is matched against its own learned patterns; the client workload
/// against the unified KB. Cross-workload reuse is then measured on the
/// TPC-DS-only KB after one feedback round on the client workload
/// ([`Galo::feedback_round`], exact ranges, near-miss factor
/// [`EXP2_NEAR_MISS_FACTOR`]), run after the TPC-DS report is taken.
pub fn exp2_matching_improvement(kbs: &LearnedKbs) -> (Exp2Result, Exp2Result) {
    let (tp, cl) = (&kbs.tpcds, &kbs.client);

    // TPC-DS against its own KB (a copy: the feedback round below
    // changes it).
    let galo_tp = kbs.tpcds_alone();
    let rep_tp = galo_tp.reoptimize_workload(tp);

    // Client against the unified KB (TPC-DS templates + client templates).
    let rep_cl = kbs.both().reoptimize_workload(cl);

    // Cross-workload reuse (the paper's §4.2 re-usability claim): client
    // queries that the TPC-DS-learned patterns *alone* improve once one
    // round of client feedback has widened the templates they nearly
    // matched.
    galo_tp.feedback_round(cl, EXP2_NEAR_MISS_FACTOR);
    let reuse = galo_tp
        .reoptimize_workload(cl)
        .cross_workload_reuses("client_insurance");

    let to_result = |name: &str, rep: &galo_core::WorkloadReoptReport, reuses, setting| {
        let improved = rep.improved();
        Exp2Result {
            workload: name.to_string(),
            total_queries: rep.per_query.len(),
            matched_queries: rep
                .per_query
                .iter()
                .filter(|q| q.rewrites_matched > 0)
                .count(),
            improved_queries: improved.len(),
            matched_not_improved: rep
                .per_query
                .iter()
                .filter(|q| q.rewrites_matched > 0 && q.gain <= 0.0)
                .map(|q| q.query_name.clone())
                .collect(),
            avg_gain_improved: rep.avg_gain_improved(),
            cross_workload_reuses: reuses,
            reuse_setting: setting,
            bars: improved
                .iter()
                .map(|q| (q.query_name.clone(), 100.0 * q.final_ms / q.original_ms))
                .collect(),
        }
    };
    (
        to_result(
            "TPC-DS",
            &rep_tp,
            rep_tp.cross_workload_reuses("tpcds_1gb"),
            "own KB".to_string(),
        ),
        to_result(
            "IBM client",
            &rep_cl,
            reuse,
            format!(
                "TPC-DS-only KB after one feedback round on the client plans: \
                 exact ranges, near_miss_factor {EXP2_NEAR_MISS_FACTOR:.1}"
            ),
        ),
    )
}

// ---------------------------------------------------------------- Exp-3 --

/// Exp-3 / Figure 11: matching time bucketed by the query's table count.
/// Returns `(bucket upper bound, avg ms per query, queries)`.
pub fn exp3_matching_scalability(galo: &Galo, workloads: &[&Workload]) -> Vec<(usize, f64, usize)> {
    let mut buckets: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for w in workloads {
        let optimizer = Optimizer::new(&w.db);
        for q in &w.queries {
            let Ok(plan) = optimizer.optimize(q) else {
                continue;
            };
            let report = match_plan(&w.db, &galo.kb, &plan, &galo.match_cfg);
            // Buckets of 4 tables (the paper spans 1..32).
            let bucket = q.tables.len().div_ceil(4) * 4;
            let e = buckets.entry(bucket).or_insert((0.0, 0));
            e.0 += report.match_ms;
            e.1 += 1;
        }
    }
    buckets
        .into_iter()
        .map(|(b, (total, n))| (b, total / n.max(1) as f64, n))
        .collect()
}

// ---------------------------------------------------------------- Exp-4 --

/// Inflate a knowledge base with synthetic non-matching templates so the
/// matcher searches a larger library (the paper's 1,000-pattern stress).
/// Templates are structurally real (abstracted from actual plans) but
/// their validity ranges sit far outside any live cardinality.
pub fn inflate_kb(kb: &KnowledgeBase, db: &Database, queries: &[Query], target: usize) {
    let optimizer = Optimizer::new(db);
    let mut made = kb.template_count();
    let mut shift = 1.0e9;
    'outer: loop {
        for q in queries {
            if made >= target {
                break 'outer;
            }
            let Ok(plan) = optimizer.optimize(q) else {
                continue;
            };
            let Some(g) = guideline_from_plan(&plan, plan.root()) else {
                continue;
            };
            let doc = galo_qgm::GuidelineDoc::new(vec![g]);
            let mut tpl =
                galo_core::abstract_plan(db, &plan, plan.root(), &doc, kb.fresh_id(made as u64));
            for p in &mut tpl.pops {
                p.cardinality = galo_core::Stat::from_range(shift, shift + 1.0);
            }
            tpl.source_workload = "synthetic".into();
            kb.insert(&tpl);
            made += 1;
            shift += 10.0;
        }
    }
}

/// Exp-4 / Figure 12: routinization — total matching time for workload
/// buckets of increasing size against KBs of increasing template count.
/// Returns `(n_queries, n_templates, total seconds)`.
pub fn exp4_routinization(
    workload: &Workload,
    query_buckets: &[usize],
    template_counts: &[usize],
    base_galo: &Galo,
) -> Vec<(usize, usize, f64)> {
    let optimizer = Optimizer::new(&workload.db);
    let plans: Vec<_> = workload
        .queries
        .iter()
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();
    let base = base_galo.kb.export();
    let mut out = Vec::new();
    for &tcount in template_counts {
        // Fresh KB per template count: real templates + synthetic filler.
        let kb = KnowledgeBase::new();
        kb.import(&base).expect("kb reimport");
        inflate_kb(
            &kb,
            &workload.db,
            &workload.queries[..8.min(workload.queries.len())],
            tcount,
        );
        for &qcount in query_buckets {
            let t0 = Instant::now();
            for plan in plans.iter().cycle().take(qcount) {
                let _ = match_plan(&workload.db, &kb, plan, &MatchConfig::default());
            }
            out.push((qcount, tcount, t0.elapsed().as_secs_f64()));
        }
    }
    out
}

// ------------------------------------------------------------- Exp-5/6 --

/// The four problem queries of the comparative study (§4.3), one per
/// problem-pattern family.
pub fn problem_queries() -> Vec<(String, Workload)> {
    let tp_db = tpcds::database();
    let cl_db = client::database();

    // P1 — the Figure 1 family: hero-table join with stale distribution
    // statistics on ENTRY_IDX.E_STATUS.
    let p1 = {
        let mut qb = QueryBuilder::new(&cl_db, "p1_hero_join");
        let o = qb.table("OPEN_IN");
        let e = qb.table("ENTRY_IDX");
        qb.join((o, "O_OPEN_SK"), (e, "E_OPEN_SK"))
            .cmp(e, "E_STATUS", CmpOp::Eq, "OPEN")
            .between(o, "O_CREATED", 10_000i64, 30_000i64)
            .select(o, "O_PAYLOAD");
        qb.build()
    };

    // P2 — the Figure 4 family: flooding through catalog_sales' stale
    // address index; the fix restructures the join order, which is outside
    // the expert's single-join repertoire.
    let p2 = {
        let mut qb = QueryBuilder::new(&tp_db, "p2_flooding");
        let ca = qb.table("CUSTOMER_ADDRESS");
        let cs = qb.table("CATALOG_SALES");
        let dd = qb.table("DATE_DIM");
        qb.join((ca, "CA_ADDRESS_SK"), (cs, "CS_ADDR_SK"))
            .join((cs, "CS_SOLD_DATE_SK"), (dd, "D_DATE_SK"))
            .cmp(ca, "CA_STATE", CmpOp::Eq, "TX")
            .cmp(dd, "D_YEAR", CmpOp::Eq, 2000i64)
            .select(cs, "CS_LIST_PRICE");
        qb.build()
    };

    // P3 — the Figure 7 family: the stored transfer rate makes the
    // optimizer over-cost sequential scans of web_sales and fall back to a
    // bulk index fetch.
    let p3 = {
        let mut qb = QueryBuilder::new(&tp_db, "p3_transfer_rate");
        let ws = qb.table("WEB_SALES");
        let dd = qb.table("DATE_DIM");
        qb.join((ws, "WS_SOLD_DATE_SK"), (dd, "D_DATE_SK"))
            .select(ws, "WS_LIST_PRICE");
        qb.build()
    };

    // P4 — the Figure 8 family: date correlation and merge-join early
    // termination. The fix (merge join over *both* index-ordered inputs)
    // needs three simultaneous plan changes, which is what makes it
    // unreachable for the experts' single-mutation repertoire — the
    // analogue of the paper's unresolved pattern #2.
    let p4 = {
        let mut qb = QueryBuilder::new(&tp_db, "p4_sorting");
        let ss = qb.table("STORE_SALES");
        let dd = qb.table("DATE_DIM");
        qb.join((ss, "SS_SOLD_DATE_SK"), (dd, "D_DATE_SK"))
            .between(dd, "D_DATE", 0i64, 36_524i64)
            .select(ss, "SS_LIST_PRICE");
        qb.build()
    };

    vec![
        (
            "P1 (join order/method, Fig 1)".to_string(),
            Workload {
                name: "client".into(),
                db: cl_db,
                queries: vec![p1],
            },
        ),
        (
            "P2 (flooding, Fig 4)".to_string(),
            Workload {
                name: "tpcds".into(),
                db: tp_db.clone(),
                queries: vec![p2],
            },
        ),
        (
            "P3 (transfer rate, Fig 7)".to_string(),
            Workload {
                name: "tpcds".into(),
                db: tp_db.clone(),
                queries: vec![p3],
            },
        ),
        (
            "P4 (sorting, Fig 8)".to_string(),
            Workload {
                name: "tpcds".into(),
                db: tp_db,
                queries: vec![p4],
            },
        ),
    ]
}

/// The TPC-DS problem queries of [`problem_queries`] combined into one
/// multi-query workload — the learner-cluster scenarios' input: several
/// independent problem patterns over one database, whose mining space a
/// cluster of learner machines splits.
pub fn problem_workload() -> Workload {
    let mut db = None;
    let mut queries = Vec::new();
    for (_, w) in problem_queries() {
        if w.name != "tpcds" {
            continue;
        }
        db.get_or_insert(w.db);
        queries.extend(w.queries);
    }
    Workload {
        name: "tpcds".into(),
        db: db.expect("problem_queries always includes tpcds scenarios"),
        queries,
    }
}

/// Comparative study row: one problem pattern, expert vs GALO.
#[derive(Debug)]
pub struct StudyRow {
    pub pattern: String,
    /// Average simulated expert minutes (four experts).
    pub expert_minutes: f64,
    /// GALO learning cost in simulated machine minutes.
    pub galo_minutes: f64,
    /// Expert's best improvement over the optimizer plan, percent.
    pub expert_improvement_pct: f64,
    /// GALO's improvement, percent.
    pub galo_improvement_pct: f64,
    /// Whether the experts found any fix at all.
    pub expert_found: bool,
}

/// Exp-5 + Exp-6 (Figures 13 & 14): manual vs automatic problem
/// determination on the four problem queries.
pub fn exp56_comparative_study(fast: bool) -> Vec<StudyRow> {
    let mut rows = Vec::new();
    for (pattern, w) in problem_queries() {
        let query = &w.queries[0];

        // GALO: learn on this single-query workload.
        let kb = KnowledgeBase::new();
        let cfg = LearningConfig {
            random_plans: if fast { 8 } else { 16 },
            ..learning_config(fast)
        };
        let report = galo_core::learn_workload(&w, &kb, &cfg);
        let galo_minutes = report.simulated_machine_ms / 60_000.0;
        let galo_gain =
            match galo_core::reoptimize_query(&w.db, &kb, query, &MatchConfig::default()) {
                Ok(outcome) => outcome.gain() * 100.0,
                Err(_) => 0.0,
            };

        // Four simulated experts with different seeds.
        let mut minutes = 0.0;
        let mut best_improvement: f64 = 0.0;
        let mut any_found = false;
        for seed in [11u64, 23, 37, 41] {
            let out = expert_diagnose(
                &w.db,
                query,
                &ExpertConfig {
                    seed,
                    ..ExpertConfig::default()
                },
            );
            minutes += out.minutes_spent;
            best_improvement = best_improvement.max(out.improvement * 100.0);
            any_found |= out.found_fix && out.improvement > 0.0;
        }
        rows.push(StudyRow {
            pattern,
            expert_minutes: minutes / 4.0,
            galo_minutes,
            expert_improvement_pct: best_improvement,
            galo_improvement_pct: galo_gain,
            expert_found: any_found,
        });
    }
    rows
}

// ----------------------------------------------------------- case study --

/// A rendered before/after case study (the paper's Figures 1, 4, 7, 8).
#[derive(Debug)]
pub struct CaseStudy {
    pub name: String,
    pub before_plan: String,
    pub after_plan: String,
    pub before_ms: f64,
    pub after_ms: f64,
    pub matched_rewrites: usize,
}

/// Learn on each problem query and show GALO's before/after plans.
pub fn case_studies(fast: bool) -> Vec<CaseStudy> {
    let mut out = Vec::new();
    for (name, w) in problem_queries() {
        let kb = KnowledgeBase::new();
        let cfg = LearningConfig {
            random_plans: if fast { 8 } else { 16 },
            ..learning_config(fast)
        };
        galo_core::learn_workload(&w, &kb, &cfg);
        let Ok(outcome) =
            galo_core::reoptimize_query(&w.db, &kb, &w.queries[0], &MatchConfig::default())
        else {
            continue;
        };
        let after_plan = outcome
            .reoptimized
            .as_ref()
            .map(|r| r.qgm.render(&w.db))
            .unwrap_or_else(|| "(no rewrite matched)".to_string());
        out.push(CaseStudy {
            name,
            before_plan: outcome.original.render(&w.db),
            after_plan,
            before_ms: outcome.original_ms,
            after_ms: outcome.final_ms,
            matched_rewrites: outcome.matched.rewrites.len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_queries_are_connected_and_plan() {
        for (name, w) in problem_queries() {
            assert!(w.queries[0].is_connected(), "{name}");
            Optimizer::new(&w.db)
                .optimize(&w.queries[0])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// The unified KB holds what learning TPC-DS into it put there, and
    /// each TPC-DS-only KB handed out is a copy of that state of its own.
    #[test]
    fn each_tpcds_only_kb_is_a_copy_of_its_own() {
        let kbs = LearnedKbs::new(true);
        let learned = kbs.tpcds_report().templates_learned;
        let first = kbs.tpcds_alone();
        assert_eq!(first.kb.template_count(), learned);
        assert!(kbs.both().kb.template_count() > learned);
        let (iri, _) = &first.kb.fingerprints()[0];
        assert!(first.kb.remove_template(iri));
        assert_eq!(kbs.tpcds_alone().kb.template_count(), learned);
    }

    #[test]
    fn kb_inflation_reaches_target() {
        let w = tpcds::workload();
        let kb = KnowledgeBase::new();
        inflate_kb(&kb, &w.db, &w.queries[..4], 25);
        assert_eq!(kb.template_count(), 25);
    }
}
