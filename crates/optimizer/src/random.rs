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
use galo_sql::{KeyPair, Query};

use crate::planner::{Cand, Planner, PlannerConfig, Unit};

/// The buffers sampling reuses from one sample to the next.
#[derive(Default)]
struct Scratch {
    components: Vec<Unit>,
    pairs: Vec<(usize, usize)>,
    keys: Vec<KeyPair>,
    nl: Vec<f64>,
    joins: Vec<Cand>,
}

/// Generates random alternative plans for a query.
pub struct RandomPlanGenerator<'a> {
    planner: Planner<'a>,
    query: &'a Query,
    /// Every table instance's unpruned access paths, in
    /// [`Planner::access_candidates_raw`] order: a pure function of the
    /// query, so worked out once for every sample.
    access: Vec<Vec<Cand>>,
}

impl<'a> RandomPlanGenerator<'a> {
    pub fn new(db: &'a Database, query: &'a Query, config: &'a PlannerConfig) -> Self {
        let planner = Planner::new(db, query.clone(), config);
        let access = (0..query.tables.len())
            .map(|t| planner.access_candidates_raw(t))
            .collect();
        RandomPlanGenerator {
            planner,
            query,
            access,
        }
    }

    /// Sample one random valid plan, or `None` for queries the planner
    /// cannot cover (disconnected join graphs).
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Option<Qgm> {
        let cand = self.sample(rng, &mut Scratch::default())?;
        Some(self.planner.qgm(self.query.clone(), &cand))
    }

    /// One random plan as the top candidate of the planner's arena, which
    /// holds its inputs until the next sample clears it.
    fn sample<R: Rng>(&self, rng: &mut R, scratch: &mut Scratch) -> Option<Cand> {
        let planner = &self.planner;
        // No id outlives a sample, so one arena serves every sample.
        planner.arena.borrow_mut().clear();
        let unit = |cand| planner.unit(planner.keep([cand]));
        // Every component is a unit of exactly one plan. Sample from the
        // *unpruned* access space: random plans exist precisely to explore
        // paths the cost model would never rank first (its model may be
        // wrong).
        let components = &mut scratch.components;
        components.clear();
        components.extend(
            self.access
                .iter()
                .map(|cands| unit(cands[rng.gen_range(0..cands.len())])),
        );

        while components.len() > 1 {
            // Random connected pair (random bushy shapes arise naturally).
            let pairs = &mut scratch.pairs;
            pairs.clear();
            for i in 0..components.len() {
                for j in 0..components.len() {
                    if i != j && planner.est.connected(components[i].set, components[j].set) {
                        pairs.push((i, j));
                    }
                }
            }
            let &(i, j) = pairs.choose(rng)?;
            // One plan a side, so one candidate per constructible method,
            // each a join: a random method is a random candidate.
            let joins = &mut scratch.joins;
            planner.join_candidates_into(
                &components[i],
                &components[j],
                &mut scratch.keys,
                &mut scratch.nl,
                joins,
            );
            let chosen = *joins.choose(rng)?;

            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            components.remove(hi);
            components.remove(lo);
            components.push(unit(chosen));
        }

        let whole = components.pop()?;
        let cand = *whole.plans(&planner.arena.borrow()).last()?;
        Some(cand)
    }

    /// Sample up to `n` random plans with distinct fingerprints.
    pub fn generate_distinct<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<Qgm> {
        let mut plans: Vec<Qgm> = Vec::new();
        let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut scratch = Scratch::default();
        // Sampling with a retry budget: duplicates are common for small
        // queries where the plan space is tiny.
        for _ in 0..n * 8 {
            if plans.len() >= n {
                break;
            }
            if let Some(cand) = self.sample(rng, &mut scratch) {
                let plan = self.planner.qgm(self.query.clone(), &cand);
                if seen.insert(plan.plan_fingerprint()) {
                    plans.push(plan);
                }
            }
        }
        plans
    }
}
