//! # galo-optimizer
//!
//! A DB2-like two-stage query optimizer: a query-rewrite tier
//! ([`mod@rewrite`]) followed by cost-based plan enumeration
//! ([`Optimizer::optimize`]) with System-R dynamic programming, interesting
//! orders, a greedy fallback for very wide joins, bloom-filter hash joins,
//! OPTGUIDELINES-constrained planning
//! ([`Optimizer::optimize_with_guidelines`]) and DB2's Random Plan
//! Generator ([`RandomPlanGenerator`]).
//!
//! All estimation and costing read only the database's *belief* view; the
//! gap to ground truth (see `galo-executor`) is what GALO exploits.

pub mod cost;
mod planner;
pub mod random;
pub mod rewrite;

use galo_catalog::Database;
use galo_qgm::{GuidelineDoc, Qgm};
use galo_sql::Query;

pub use cost::CostModel;
pub use planner::{GuidelineOutcome, PlannerConfig};
pub use random::RandomPlanGenerator;
pub use rewrite::{rewrite, RewriteReport};

use planner::Planner;

/// Errors from plan compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// The join graph is disconnected; the SPJ planner does not emit
    /// cross products.
    DisconnectedJoinGraph,
    /// The query has no tables.
    EmptyQuery,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::DisconnectedJoinGraph => {
                write!(
                    f,
                    "cannot plan a disconnected join graph without cross products"
                )
            }
            OptimizeError::EmptyQuery => write!(f, "query has no tables"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Result of re-optimization with guidelines.
#[derive(Debug)]
pub struct ReoptResult {
    pub qgm: Qgm,
    pub outcome: GuidelineOutcome,
}

/// The two-stage optimizer facade.
pub struct Optimizer<'a> {
    db: &'a Database,
    config: PlannerConfig,
}

impl<'a> Optimizer<'a> {
    pub fn new(db: &'a Database) -> Self {
        Optimizer {
            db,
            config: PlannerConfig::default(),
        }
    }

    pub fn with_config(db: &'a Database, config: PlannerConfig) -> Self {
        Optimizer { db, config }
    }

    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Compile a query: rewrite tier, then cost-based enumeration.
    pub fn optimize(&self, query: &Query) -> Result<Qgm, OptimizeError> {
        if query.tables.is_empty() {
            return Err(OptimizeError::EmptyQuery);
        }
        let (rewritten, _) = rewrite(query);
        let planner = Planner::new(self.db, rewritten, &self.config);
        let cand = planner.plan().ok_or(OptimizeError::DisconnectedJoinGraph)?;
        Ok(planner.into_qgm(&cand))
    }

    /// Compile a query under a guideline document ("re-optimization"):
    /// the query passes through both tiers again, with honored guidelines
    /// fixed and everything else cost-based.
    pub fn optimize_with_guidelines(
        &self,
        query: &Query,
        doc: &GuidelineDoc,
    ) -> Result<ReoptResult, OptimizeError> {
        if query.tables.is_empty() {
            return Err(OptimizeError::EmptyQuery);
        }
        let (rewritten, _) = rewrite(query);
        let planner = Planner::new(self.db, rewritten, &self.config);
        let (cand, outcome) = planner.plan_with_guidelines(doc);
        let cand = cand.ok_or(OptimizeError::DisconnectedJoinGraph)?;
        Ok(ReoptResult {
            qgm: planner.into_qgm(&cand),
            outcome,
        })
    }

    /// The Random Plan Generator for a query.
    pub fn random_plans(&'a self, query: &'a Query) -> RandomPlanGenerator<'a> {
        RandomPlanGenerator::new(self.db, query, &self.config)
    }
}

#[cfg(test)]
mod tests;
