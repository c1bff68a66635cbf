//! The Random Plan Generator.
//!
//! "For each of the sub-queries, alternative QGM's are produced via the
//! Random Plan Generator (a tool available inside IBM DB2)" (paper §3.2).
//! The generator samples valid physical plans uniformly-ish: random access
//! paths, random bushy join shapes over the connected join graph, random
//! join methods, with sorts inserted wherever a merge join needs them.
//! Costs and cardinalities are annotated with the optimizer's belief
//! estimates, exactly as DB2 annotates random plans.

use rand::seq::SliceRandom;
use rand::Rng;

use galo_catalog::Database;
use galo_qgm::Qgm;
use galo_sql::Query;

use crate::planner::{to_qgm, JoinMethod, PhysPlan, Planner, PlannerConfig, Unit};

/// Generates random alternative plans for a query.
pub struct RandomPlanGenerator<'a> {
    planner: Planner<'a>,
    query: &'a Query,
}

impl<'a> RandomPlanGenerator<'a> {
    pub fn new(db: &'a Database, query: &'a Query, config: &'a PlannerConfig) -> Self {
        RandomPlanGenerator {
            planner: Planner::new(db, query, config),
            query,
        }
    }

    /// Sample one random valid plan, or `None` for queries the planner
    /// cannot cover (disconnected join graphs).
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Option<Qgm> {
        let n = self.query.tables.len();
        // Every component is a unit of exactly one plan.
        let mut components: Vec<Unit> = (0..n)
            .map(|t| {
                // Sample from the *unpruned* access space: random plans
                // exist precisely to explore paths the cost model would
                // never rank first (its model may be wrong).
                let mut cands = self.planner.access_candidates_raw(t);
                let pick = rng.gen_range(0..cands.len());
                self.planner.unit(vec![cands.swap_remove(pick)])
            })
            .collect();

        while components.len() > 1 {
            // Random connected pair (random bushy shapes arise naturally).
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for i in 0..components.len() {
                for j in 0..components.len() {
                    if i != j
                        && self
                            .planner
                            .est
                            .connected(components[i].set, components[j].set)
                    {
                        pairs.push((i, j));
                    }
                }
            }
            let &(i, j) = pairs.choose(rng)?;
            let all = self.planner.join_candidates(&components[i], &components[j]);
            if all.is_empty() {
                return None;
            }
            // Random method among the constructible ones.
            let methods: Vec<JoinMethod> = all
                .iter()
                .filter_map(|c| match &*c.plan {
                    PhysPlan::Join { method, .. } => Some(*method),
                    _ => None,
                })
                .collect();
            let wanted = *methods.choose(rng)?;
            let chosen = all
                .into_iter()
                .find(|c| matches!(&*c.plan, PhysPlan::Join { method, .. } if *method == wanted))?;

            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            components.remove(hi);
            components.remove(lo);
            components.push(self.planner.unit(vec![chosen]));
        }

        let cand = components.pop()?.cands.pop()?;
        Some(to_qgm(self.query.clone(), &cand.plan))
    }

    /// Sample up to `n` random plans with distinct fingerprints.
    pub fn generate_distinct<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<Qgm> {
        let mut plans: Vec<Qgm> = Vec::new();
        let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        // Sampling with a retry budget: duplicates are common for small
        // queries where the plan space is tiny.
        for _ in 0..n * 8 {
            if plans.len() >= n {
                break;
            }
            if let Some(plan) = self.generate(rng) {
                if seen.insert(plan.plan_fingerprint()) {
                    plans.push(plan);
                }
            }
        }
        plans
    }
}
