//! The learning engine (paper §3.2).
//!
//! Offline, per workload:
//!
//! 1. decompose every query into connected sub-queries up to the
//!    join-number threshold (Figure 3), merging sub-queries with the same
//!    structure across queries so each is evaluated once (§4.1);
//! 2. vary each sub-query's predicates over property ranges obtained by
//!    sampling the database (various result cardinalities);
//! 3. produce alternative plans with the Random Plan Generator and
//!    benchmark them against the optimizer's choice via the db2batch
//!    harness, ranking with K-means outlier removal and resource-metric
//!    tie-breakers;
//! 4. when an alternative wins consistently across the property range,
//!    abstract the optimizer's (losing) plan into a problem-pattern
//!    template with `[lower, upper]` property bounds and store it in the
//!    knowledge base together with the winning plan's guideline.
//!
//! Every learner — [`learn_workload`]'s threads, a learner-cluster node, a
//! replicated node — runs the one mining loop, `MiningSpace::walk`, over
//! its [`Partitioner`] slice of the mining space, mirroring the paper's
//! multi-machine off-peak parallelism. `threads` is the partition count
//! for all of them. Results are deterministic because every sub-query
//! gets its own seeded generator.

use std::collections::BTreeMap;
use std::time::Instant;

use galo_catalog::{equality_probes, Database};
use galo_executor::{db2batch, NoiseModel};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_sql::{structure_signature, subqueries, PredKind, Query};
use galo_workloads::{Partitioner, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kb::{abstract_plan, KnowledgeBase, Template};
use crate::ranking::{better, score_runs, PlanScore};

/// Learning-engine configuration.
#[derive(Debug, Clone)]
pub struct LearningConfig {
    /// Sub-query size threshold in joins ("we verified, in practice, that
    /// a threshold of four provides the most optimal matching
    /// improvements", §4.1).
    pub join_threshold: usize,
    /// Predicate probes sampled per varied predicate.
    pub probes_per_pred: usize,
    /// Random alternative plans per sub-query.
    pub random_plans: usize,
    /// db2batch runs per plan.
    pub runs_per_plan: usize,
    /// Minimum relative improvement for a rewrite to enter the KB.
    pub min_improvement: f64,
    /// Multiplicative widening of learned property ranges.
    pub range_margin: f64,
    /// Cap on enumerated sub-queries per query (wide TPC-DS queries have
    /// combinatorially many connected subsets).
    pub max_subqueries_per_query: usize,
    /// Partitions of the mining space (≥ 1): worker threads for
    /// [`learn_workload`], learner machines for the learner cluster.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Measurement noise model.
    pub noise: NoiseModel,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig {
            join_threshold: 4,
            probes_per_pred: 3,
            random_plans: 10,
            runs_per_plan: 5,
            min_improvement: 0.15,
            range_margin: 2.5,
            max_subqueries_per_query: 200,
            threads: 4,
            seed: 0x6A10,
            noise: NoiseModel::default(),
        }
    }
}

/// One learned rewrite.
#[derive(Debug, Clone)]
pub struct LearnedTemplate {
    pub template_id: String,
    pub subquery_name: String,
    pub improvement: f64,
    pub join_count: usize,
}

/// Outcome of learning over one workload.
#[derive(Debug, Clone, Default)]
pub struct LearningReport {
    /// Sub-queries enumerated before structural merging.
    pub subqueries_total: usize,
    /// Unique sub-query structures analyzed.
    pub subqueries_unique: usize,
    pub templates_learned: usize,
    /// Mean improvement of learned rewrites, in [0, 1].
    pub avg_improvement: f64,
    /// Wall time attributed to each query (enumeration + analysis of the
    /// sub-queries first seen in it), milliseconds.
    pub per_query_ms: Vec<(String, f64)>,
    /// Wall time per analyzed unique sub-query, milliseconds.
    pub per_subquery_ms: Vec<f64>,
    /// Total *simulated* machine time spent executing plans during
    /// benchmarking, milliseconds — the dominant real-world cost of
    /// offline learning (what the paper's Figure 13 measures).
    pub simulated_machine_ms: f64,
    pub learned: Vec<LearnedTemplate>,
}

impl LearningReport {
    pub fn avg_query_ms(&self) -> f64 {
        if self.per_query_ms.is_empty() {
            return 0.0;
        }
        self.per_query_ms.iter().map(|(_, t)| t).sum::<f64>() / self.per_query_ms.len() as f64
    }

    pub fn avg_subquery_ms(&self) -> f64 {
        if self.per_subquery_ms.is_empty() {
            return 0.0;
        }
        self.per_subquery_ms.iter().sum::<f64>() / self.per_subquery_ms.len() as f64
    }
}

/// The workload's mining space: the merged unique sub-query list every
/// learner — in-process thread or simulated cluster machine — works from.
///
/// Enumeration is deterministic (queries in workload order, first-seen
/// structure wins, per-query truncation), so every node of a learner
/// cluster computes the *same* space independently and the
/// [`Partitioner`](galo_workloads::Partitioner) can split it
/// coordination-free by index.
pub(crate) struct MiningSpace {
    /// Sub-queries enumerated before structural merging.
    pub subqueries_total: usize,
    /// `(owning query index, representative sub-query)`, first-seen order.
    pub unique: Vec<(usize, Query)>,
    /// Enumeration wall time attributed to each query, milliseconds.
    pub enum_ms: Vec<f64>,
}

/// Phase 1 of learning: enumerate connected sub-queries up to the join
/// threshold and merge duplicates by [`structure_signature`] (§4.1).
pub(crate) fn enumerate_mining_space(workload: &Workload, cfg: &LearningConfig) -> MiningSpace {
    let db = &workload.db;
    let mut unique: Vec<(usize, Query)> = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    let mut subqueries_total = 0usize;
    let mut enum_ms: Vec<f64> = Vec::with_capacity(workload.queries.len());
    for (qi, query) in workload.queries.iter().enumerate() {
        let t0 = Instant::now();
        // Only the sub-queries kept are projected.
        let subs = subqueries(query, cfg.join_threshold).take(cfg.max_subqueries_per_query);
        subqueries_total += subs.len();
        for sub in subs {
            let sig = structure_signature(db, &sub);
            if seen.insert(sig, ()).is_none() {
                unique.push((qi, sub));
            }
        }
        enum_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    MiningSpace {
        subqueries_total,
        unique,
        enum_ms,
    }
}

/// One analyzed sub-query of a learner's slice.
pub(crate) struct Analysis {
    /// The template the analysis minted, if a rewrite won.
    pub candidate: Option<CandidateTemplate>,
    /// Simulated machine time spent benchmarking plans, milliseconds.
    pub sim_ms: f64,
    /// Wall time of the analysis, milliseconds.
    pub wall_ms: f64,
}

impl MiningSpace {
    /// The one mining loop: analyze, in mining-space order, every unique
    /// sub-query `slices` assigns to `slice`.
    pub(crate) fn walk<'a>(
        &'a self,
        db: &'a Database,
        cfg: &'a LearningConfig,
        slices: Partitioner,
        slice: usize,
    ) -> impl Iterator<Item = Analysis> + 'a {
        self.unique
            .iter()
            .enumerate()
            .filter(move |&(idx, _)| slices.owns(slice, idx))
            .map(move |(idx, (_, sub))| analyze_at(db, idx, sub, cfg))
    }
}

/// Phase 2 unit: analyze the unique sub-query at mining-space index
/// `idx`. The RNG is seeded from `(cfg.seed, idx)`, so the analysis — and
/// the template it may mint, anonymized id included — is a pure function
/// of the mining-space position. That determinism is what makes the
/// learner cluster's output provably equal to the sequential engine's:
/// whichever machine analyzes index `idx` produces byte-identical
/// triples.
fn analyze_at(db: &Database, idx: usize, sub: &Query, cfg: &LearningConfig) -> Analysis {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9));
    let mut sim_ms = 0.0f64;
    let candidate = analyze_subquery(db, sub, cfg, &mut rng, &mut sim_ms);
    Analysis {
        candidate,
        sim_ms,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Learn problem patterns from a workload into the knowledge base.
pub fn learn_workload(
    workload: &Workload,
    kb: &KnowledgeBase,
    cfg: &LearningConfig,
) -> LearningReport {
    let db = &workload.db;

    // Phase 1: enumerate and merge sub-queries.
    let space = enumerate_mining_space(workload, cfg);

    // Phase 2: analyze unique sub-queries, one thread per slice. Each
    // slice's buffer is sized and allocated here, on the calling thread:
    // buffers grown on the workers cost about 1 % more peak RSS.
    let slices = Partitioner::new(cfg.threads);
    let per_slice = space.unique.len().div_ceil(slices.nodes());
    let mut walks: Vec<Vec<Analysis>> = (0..slices.nodes())
        .map(|_| Vec::with_capacity(per_slice))
        .collect();
    let space_ref = &space;
    std::thread::scope(|scope| {
        for (slice, rows) in walks.iter_mut().enumerate() {
            scope.spawn(move || rows.extend(space_ref.walk(db, cfg, slices, slice)));
        }
    });
    let mut walks: Vec<_> = walks.into_iter().map(Vec::into_iter).collect();

    // Phase 3: publish every mined candidate. Publication is
    // per-candidate and commutative — template ids are pure functions of
    // the mining-space index, so the knowledge-base image is independent
    // of insertion order (structurally distinct sub-queries occasionally
    // abstract to identical-content templates under different ids; the
    // matcher's min-IRI tie-break keeps those duplicates harmless). This
    // is the same contract the distributed learner cluster publishes
    // under, which is what makes the two paths set-equal. What does follow
    // insertion order — term ids, and with them scan order and snapshot
    // bytes — stays fixed because each template is committed on its own,
    // in mining-space order, whatever the thread count.
    let mut report = LearningReport {
        subqueries_total: space.subqueries_total,
        subqueries_unique: space.unique.len(),
        ..Default::default()
    };
    let mut per_query: Vec<f64> = space.enum_ms;
    for (idx, (qi, _)) in space.unique.iter().enumerate() {
        // Each slice yields its indexes in order, so reading the slices
        // back through the partitioner restores mining-space order.
        let a = walks[slices.node_of(idx)]
            .next()
            .expect("a slice yields every index it owns");
        per_query[*qi] += a.wall_ms;
        report.per_subquery_ms.push(a.wall_ms);
        report.simulated_machine_ms += a.sim_ms;
        let Some(cand) = a.candidate else { continue };
        kb.insert(&cand.template);
        report.learned.push(LearnedTemplate {
            template_id: cand.template.id.clone(),
            subquery_name: cand.subquery_name,
            improvement: cand.template.improvement,
            join_count: cand.template.join_count,
        });
    }
    report.templates_learned = report.learned.len();
    report.avg_improvement = if report.learned.is_empty() {
        0.0
    } else {
        report.learned.iter().map(|l| l.improvement).sum::<f64>() / report.learned.len() as f64
    };
    report.per_query_ms = workload
        .queries
        .iter()
        .map(|q| q.name.clone())
        .zip(per_query)
        .collect();
    report
}

pub(crate) struct CandidateTemplate {
    pub(crate) template: Template,
    pub(crate) subquery_name: String,
}

/// Analyze one sub-query: benchmark the optimizer's plan against random
/// alternatives over predicate-probe variants; abstract a template when a
/// consistent winner exists. Simulated machine time accrues in `sim_ms`.
fn analyze_subquery(
    db: &Database,
    sub: &Query,
    cfg: &LearningConfig,
    rng: &mut StdRng,
    sim_ms: &mut f64,
) -> Option<CandidateTemplate> {
    let optimizer = Optimizer::new(db);
    let base_plan = optimizer.optimize(sub).ok()?;
    let base_fp = base_plan.plan_fingerprint();

    // Predicate variation ("property ranges are generated by sampling the
    // database"): each equality predicate yields probe variants.
    let variants = predicate_variants(db, sub, cfg, rng);

    // The problem pattern must be stable: keep variants where the
    // optimizer still chooses the same plan shape.
    let mut stable: Vec<(&Query, Qgm)> = vec![(sub, base_plan)];
    for v in &variants {
        if let Ok(plan) = optimizer.optimize(v) {
            if plan.plan_fingerprint() == base_fp {
                stable.push((v, plan));
            }
        }
    }

    // Benchmark the optimizer's plan per variant.
    let opt_scores: Vec<PlanScore> = stable
        .iter()
        .map(|(_, plan)| {
            let runs = db2batch(db, plan, cfg.runs_per_plan, &cfg.noise, rng);
            *sim_ms += runs.iter().map(|r| r.elapsed_ms).sum::<f64>();
            score_runs(&runs)
        })
        .collect();

    // Random alternatives, replayed over each variant via guidelines.
    let gen = optimizer.random_plans(sub);
    let alternatives = gen.generate_distinct(cfg.random_plans, rng);
    let mut best: Option<(Qgm, f64, PlanScore, Vec<usize>)> = None;
    let base_est = stable[0].1.est_cost();
    // db2batch runs under a timeout: an alternative that runs longer than
    // 1.5x the optimizer's own plan is killed on the spot and disqualified
    // — the search is for *faster* plans, so there is no point finishing a
    // slower run. Only the time until the kill is charged.
    let timeout_ms = opt_scores[0].elapsed_ms * 1.5;
    for alt in alternatives {
        if alt.plan_fingerprint() == base_fp {
            continue;
        }
        // Even the offline harness does not execute plans the optimizer
        // prices two orders of magnitude worse — db2batch runs under a
        // budget. The threshold stays loose because the belief estimates
        // are exactly what GALO distrusts: a genuinely better plan may be
        // priced several times worse than the optimizer's choice.
        if alt.est_cost() > base_est * 100.0 {
            continue;
        }
        let Some(root_guideline) = guideline_from_plan(&alt, alt.root()) else {
            continue;
        };
        let doc = GuidelineDoc::new(vec![root_guideline]);
        let mut improvements = Vec::with_capacity(stable.len());
        let mut first_score: Option<PlanScore> = None;
        let mut valid = true;
        for ((variant, _), opt_score) in stable.iter().zip(&opt_scores) {
            let Ok(reopt) = optimizer.optimize_with_guidelines(variant, &doc) else {
                valid = false;
                break;
            };
            if reopt.outcome.honored.contains(&false) {
                valid = false;
                break;
            }
            let runs = db2batch(db, &reopt.qgm, cfg.runs_per_plan, &cfg.noise, rng);
            let mut timed_out = false;
            for r in &runs {
                if r.elapsed_ms > timeout_ms {
                    *sim_ms += timeout_ms;
                    timed_out = true;
                    break;
                }
                *sim_ms += r.elapsed_ms;
            }
            if timed_out {
                valid = false;
                break;
            }
            let score = score_runs(&runs);
            improvements
                .push((opt_score.elapsed_ms - score.elapsed_ms) / opt_score.elapsed_ms.max(1e-9));
            if first_score.is_none() {
                first_score = Some(score);
            }
        }
        if !valid || improvements.is_empty() {
            continue;
        }
        // The pattern must at least beat the optimizer on the query's own
        // predicate values; the *validity range* of the template is then
        // restricted to the probe variants where the rewrite keeps winning
        // ("templates with the same best plan within lower and upper-bound
        // cardinalities", §3.2).
        if improvements[0] < cfg.min_improvement {
            continue;
        }
        let winning: Vec<usize> = improvements
            .iter()
            .enumerate()
            .filter(|(_, &g)| g >= cfg.min_improvement)
            .map(|(i, _)| i)
            .collect();
        let avg_gain = winning.iter().map(|&i| improvements[i]).sum::<f64>() / winning.len() as f64;
        let score = first_score.expect("non-empty improvements imply a score");
        let is_better = match &best {
            None => true,
            Some((_, best_gain, best_score, _)) => {
                avg_gain > *best_gain + 1e-9
                    || ((avg_gain - *best_gain).abs() <= 1e-9 && better(&score, best_score))
            }
        };
        if is_better {
            best = Some((alt, avg_gain, score, winning));
        }
    }

    let (winner, avg_gain, _, winning) = best?;

    // Abstract the problem pattern (the optimizer's plan) with property
    // ranges covering all stable variants.
    let (_, problem) = &stable[0];
    let guideline = GuidelineDoc::new(vec![guideline_from_plan(&winner, winner.root())?]);
    let kb_id = format!("{:016x}", rng_id(rng));
    let mut template = abstract_plan(db, problem, problem.root(), &guideline, kb_id);
    // Cover ranges across the variants where the rewrite wins (plans share
    // shape, so op_ids align) — this is the template's validity region.
    for &vi in &winning {
        let (_, plan) = &stable[vi];
        for tp in &mut template.pops {
            if let Some(pid) = plan.by_op_id(tp.op_id) {
                tp.cardinality.observe(plan.pop(pid).est_card);
            }
        }
    }
    for tp in &mut template.pops {
        tp.cardinality.set_widen(cfg.range_margin);
        if let Some(scan) = &mut tp.scan {
            // Row size is the least decisive property — schemas of the
            // same pattern differ in column width; use the full margin.
            scan.row_size.set_widen(cfg.range_margin);
            scan.fpages.set_widen(cfg.range_margin);
            scan.base_cardinality.set_widen(cfg.range_margin);
        }
    }
    template.improvement = avg_gain;
    template.source_workload = db.name.clone();
    Some(CandidateTemplate {
        template,
        subquery_name: sub.name.clone(),
    })
}

/// Build predicate-probe variants of a sub-query.
fn predicate_variants(
    db: &Database,
    sub: &Query,
    cfg: &LearningConfig,
    rng: &mut StdRng,
) -> Vec<Query> {
    let mut variants = Vec::new();
    for (pi, pred) in sub.locals.iter().enumerate() {
        let PredKind::Cmp(galo_sql::CmpOp::Eq, _) = &pred.kind else {
            continue;
        };
        let table = sub.tables[pred.col.table_idx].table;
        for probe in equality_probes(db, table, pred.col.column, cfg.probes_per_pred, rng) {
            let mut v = sub.clone();
            v.locals[pi].kind = PredKind::Cmp(galo_sql::CmpOp::Eq, probe.value);
            v.name = format!("{}#probe{}", sub.name, variants.len());
            variants.push(v);
        }
        // Varying the first eq predicate suffices to establish ranges.
        break;
    }
    variants
}

fn rng_id(rng: &mut StdRng) -> u64 {
    use rand::Rng;
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig,
        Table, Value,
    };

    /// A database with a strong planted flooding quirk so learning finds a
    /// rewrite quickly.
    fn quirky_workload() -> Workload {
        let mut b = DatabaseBuilder::new("learn_test", SystemConfig::default_1gb());
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
        // Stale belief: the optimizer thinks A_STATE has 5,000 uniform
        // values, so it grossly under-estimates the filtered dimension and
        // walks into the flooding nested-loop trap.
        *b.belief_mut().column_mut(addr, ColumnId(1)) = ColumnStats::uniform(5_000, 0.0, 1e6, 2);
        b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
        let db = b.build();
        let q = galo_sql::parse(
            &db,
            "q1",
            "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'TX'",
        )
        .unwrap();
        Workload {
            name: "learn_test".into(),
            db,
            queries: vec![q],
        }
    }

    #[test]
    fn learns_a_rewrite_for_planted_flooding() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let cfg = LearningConfig {
            threads: 2,
            random_plans: 12,
            ..LearningConfig::default()
        };
        let report = learn_workload(&w, &kb, &cfg);
        assert!(report.subqueries_unique >= 1);
        assert!(
            report.templates_learned >= 1,
            "expected at least one template, report: {report:?}"
        );
        assert!(report.avg_improvement >= cfg.min_improvement);
        assert_eq!(kb.template_count(), report.templates_learned);
    }

    #[test]
    fn learning_is_deterministic() {
        // A TPC-DS prefix that mines several templates, so their order
        // (mining-space order, whatever the thread count) is pinned too.
        let mut w = galo_workloads::tpcds::workload();
        w.queries.truncate(30);
        let run = |threads: usize| {
            let kb = KnowledgeBase::new();
            let cfg = LearningConfig {
                threads,
                probes_per_pred: 2,
                random_plans: 6,
                runs_per_plan: 3,
                max_subqueries_per_query: 20,
                ..LearningConfig::default()
            };
            let ids: Vec<String> = learn_workload(&w, &kb, &cfg)
                .learned
                .into_iter()
                .map(|l| l.template_id)
                .collect();
            let mut image: Vec<String> = kb.export().lines().map(str::to_string).collect();
            image.sort();
            (ids, image)
        };
        let one_thread = run(1);
        assert!(one_thread.0.len() >= 2, "{:?}", one_thread.0);
        for threads in 2..=4 {
            assert_eq!(run(threads), one_thread, "threads={threads}");
        }
    }

    #[test]
    fn probe_variants_change_predicate_values() {
        let w = quirky_workload();
        let cfg = LearningConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let variants = predicate_variants(&w.db, &w.queries[0], &cfg, &mut rng);
        assert!(!variants.is_empty());
        for v in &variants {
            assert_eq!(v.locals.len(), w.queries[0].locals.len());
        }
        // At least one variant differs from the original value.
        assert!(variants
            .iter()
            .any(|v| v.locals[0].kind != w.queries[0].locals[0].kind));
    }
}
