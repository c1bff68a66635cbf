//! The GALO facade: offline learning plus online workload
//! re-optimization, with the accounting the paper's experiments report.

use galo_workloads::Workload;

use crate::kb::KnowledgeBase;
use crate::learning::{learn_workload, LearningConfig, LearningReport};
use crate::matching::{reoptimize_query, MatchConfig, ReoptOutcome};

/// Per-query result of workload re-optimization.
#[derive(Debug)]
pub struct QueryReoptResult {
    pub query_name: String,
    /// Number of rewrites matched from the KB.
    pub rewrites_matched: usize,
    /// Simulated runtime of the optimizer's plan, ms.
    pub original_ms: f64,
    /// Simulated runtime after re-optimization, ms.
    pub final_ms: f64,
    /// Relative gain in `[0, 1)`.
    pub gain: f64,
    /// Source workloads of the matched templates (cross-workload reuse).
    pub template_sources: Vec<String>,
    /// Matching wall time, ms.
    pub match_ms: f64,
}

/// Workload-level re-optimization report (the paper's Figure 10).
#[derive(Debug, Default)]
pub struct WorkloadReoptReport {
    pub per_query: Vec<QueryReoptResult>,
}

impl WorkloadReoptReport {
    /// Queries whose runtime improved.
    pub fn improved(&self) -> Vec<&QueryReoptResult> {
        self.per_query.iter().filter(|q| q.gain > 0.0).collect()
    }

    /// Average gain over improved queries (the paper's headline numbers:
    /// 49% on TPC-DS, 40% on the client workload).
    pub fn avg_gain_improved(&self) -> f64 {
        let improved = self.improved();
        if improved.is_empty() {
            return 0.0;
        }
        improved.iter().map(|q| q.gain).sum::<f64>() / improved.len() as f64
    }

    /// Improved queries that reused at least one template learned from a
    /// *different* workload (Exp-2's 6-of-23 result).
    pub fn cross_workload_reuses(&self, own_workload: &str) -> usize {
        self.improved()
            .iter()
            .filter(|q| q.template_sources.iter().any(|s| s != own_workload))
            .count()
    }

    /// Mean matching time per query, ms.
    pub fn avg_match_ms(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        self.per_query.iter().map(|q| q.match_ms).sum::<f64>() / self.per_query.len() as f64
    }
}

/// The GALO system: a knowledge base shared by the offline learning and
/// online matching workflows.
pub struct Galo {
    pub kb: KnowledgeBase,
    pub match_cfg: MatchConfig,
}

impl Default for Galo {
    fn default() -> Self {
        Self::new()
    }
}

impl Galo {
    /// An in-memory GALO instance with default configuration; every
    /// other backend shape comes from [`KbBuilder`](crate::KbBuilder).
    pub fn new() -> Self {
        crate::builder::KbBuilder::new()
            .build_galo()
            .expect("in-memory GALO construction is infallible")
    }

    /// Offline workflow: learn problem patterns from a workload.
    pub fn learn(&self, workload: &Workload, cfg: &LearningConfig) -> LearningReport {
        learn_workload(workload, &self.kb, cfg)
    }

    /// Online workflow: re-optimize one query.
    pub fn reoptimize(
        &self,
        workload: &Workload,
        query_idx: usize,
    ) -> Result<ReoptOutcome, galo_optimizer::OptimizeError> {
        reoptimize_query(
            &workload.db,
            &self.kb,
            &workload.queries[query_idx],
            &self.match_cfg,
        )
    }

    /// Online workflow: re-optimize an entire workload.
    pub fn reoptimize_workload(&self, workload: &Workload) -> WorkloadReoptReport {
        let mut report = WorkloadReoptReport::default();
        for query in &workload.queries {
            let Ok(outcome) = reoptimize_query(&workload.db, &self.kb, query, &self.match_cfg)
            else {
                continue;
            };
            report.per_query.push(QueryReoptResult {
                query_name: query.name.clone(),
                rewrites_matched: outcome.matched.rewrites.len(),
                original_ms: outcome.original_ms,
                final_ms: outcome.final_ms,
                gain: outcome.gain(),
                template_sources: outcome
                    .matched
                    .rewrites
                    .iter()
                    .map(|r| r.source_workload.clone())
                    .collect(),
                match_ms: outcome.matched.match_ms,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, orig: f64, fin: f64, sources: Vec<&str>) -> QueryReoptResult {
        QueryReoptResult {
            query_name: name.into(),
            rewrites_matched: sources.len(),
            original_ms: orig,
            final_ms: fin,
            gain: if fin < orig { (orig - fin) / orig } else { 0.0 },
            template_sources: sources.into_iter().map(String::from).collect(),
            match_ms: 1.0,
        }
    }

    fn report() -> WorkloadReoptReport {
        WorkloadReoptReport {
            per_query: vec![
                result("q1", 100.0, 50.0, vec!["tpcds"]),  // improved, own
                result("q2", 100.0, 100.0, vec![]),        // untouched
                result("q3", 200.0, 40.0, vec!["other"]),  // improved, reused
                result("q4", 100.0, 120.0, vec!["tpcds"]), // matched, regressed
            ],
        }
    }

    #[test]
    fn improved_filters_regressions_and_noops() {
        let r = report();
        let names: Vec<&str> = r.improved().iter().map(|q| q.query_name.as_str()).collect();
        assert_eq!(names, vec!["q1", "q3"]);
    }

    #[test]
    fn avg_gain_over_improved_only() {
        let r = report();
        // gains: 0.5 and 0.8 -> 0.65.
        assert!((r.avg_gain_improved() - 0.65).abs() < 1e-12);
        let empty = WorkloadReoptReport::default();
        assert_eq!(empty.avg_gain_improved(), 0.0);
    }

    #[test]
    fn cross_workload_reuse_counts_foreign_sources() {
        let r = report();
        assert_eq!(r.cross_workload_reuses("tpcds"), 1);
        assert_eq!(r.cross_workload_reuses("other"), 1);
        assert_eq!(r.cross_workload_reuses("neither"), 2);
    }

    #[test]
    fn avg_match_ms_over_all_queries() {
        let r = report();
        assert!((r.avg_match_ms() - 1.0).abs() < 1e-12);
        assert_eq!(WorkloadReoptReport::default().avg_match_ms(), 0.0);
    }
}
