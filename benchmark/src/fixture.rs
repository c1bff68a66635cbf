//! What every workload's set-up is built from: the learning
//! configuration, the Exp-4 knowledge base, the ad-hoc plan pool and the
//! seeded orderings. Only public functions of the library crates.

use std::collections::HashSet;
use std::time::Instant;

use galo_catalog::Database;
use galo_core::{plan_fingerprint, KnowledgeBase, LearningConfig, MatchConfig};
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;
use galo_workloads::{tpcds, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Templates in the knowledge base workloads 1–3 serve from (the
/// paper's Exp-4 library size).
pub const KB_TEMPLATES: usize = 1000;

/// The plan pools are a fixed population; `--seed` draws the order ops
/// arrive in. A pool redrawn per seed would make two seeds two different
/// benchmarks (plans differ 10× in match cost), and the spread between
/// seeds would measure the draw, not the program.
const POOL_SEED: u64 = 0x9A10_E2E0;

/// Learning at the experiments' fast setting with a fixed thread count:
/// `available_parallelism` would make set-up time a property of the box.
pub fn learning_config() -> LearningConfig {
    LearningConfig {
        probes_per_pred: 2,
        random_plans: 6,
        runs_per_plan: 3,
        max_subqueries_per_query: 60,
        threads: 2,
        ..LearningConfig::default()
    }
}

/// Accounting of the "mine" stage across a set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct LearnStats {
    pub learn_s: f64,
    pub subqueries: usize,
    pub templates: usize,
}

impl LearnStats {
    pub fn subqueries_per_s(&self) -> f64 {
        self.subqueries as f64 / self.learn_s
    }
}

/// Learn `workload` into `kb`, adding to `stats`.
pub fn learn(workload: &Workload, kb: &KnowledgeBase, stats: &mut LearnStats) {
    let t0 = Instant::now();
    let report = galo_core::learn_workload(workload, kb, &learning_config());
    stats.learn_s += t0.elapsed().as_secs_f64();
    stats.subqueries += report.subqueries_unique;
    stats.templates += report.templates_learned;
}

/// The Exp-4 knowledge base: templates learned from `workloads`, then
/// inflated to [`KB_TEMPLATES`] with structurally real templates whose
/// ranges admit nothing (drawn from the first workload's queries).
pub fn exp4_kb(workloads: &[&Workload]) -> (KnowledgeBase, LearnStats) {
    let kb = KnowledgeBase::new();
    let mut stats = LearnStats::default();
    for w in workloads {
        learn(w, &kb, &mut stats);
    }
    let first = workloads[0];
    galo_bench::inflate_kb(&kb, &first.db, &first.queries[..6], KB_TEMPLATES);
    (kb, stats)
}

/// `n` ad-hoc TPC-DS plans (2–7 tables, every fifth a problem kernel)
/// with pairwise distinct serving fingerprints, so `n` plans occupy `n`
/// cache entries.
pub fn adhoc_plans(db: &Database, cfg: &MatchConfig, n: usize) -> Vec<Qgm> {
    let edges = tpcds::fk_edges();
    let optimizer = Optimizer::new(db);
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let mut seen = HashSet::with_capacity(n);
    let mut plans = Vec::with_capacity(n);
    let mut i = 0usize;
    while plans.len() < n {
        let query = if i % 5 == 2 {
            tpcds::kernel_query(db, i, i / 5, &mut rng)
        } else {
            let tables = rng.gen_range(2..8);
            tpcds::generate_query(db, &edges, i, tables, &mut rng)
        };
        i += 1;
        assert!(
            i < 64 * n,
            "plan generator ran dry at {} plans",
            plans.len()
        );
        let Ok(plan) = optimizer.optimize(&query) else {
            continue;
        };
        if seen.insert(plan_fingerprint(db, &plan, cfg)) {
            plans.push(plan);
        }
    }
    plans
}

/// FNV-1a over the words of an op stream: a word that changes when the
/// seeded stream does.
pub fn stream_digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The generator behind every seeded ordering of one run.
pub fn run_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x6A10_0E2E)
}

/// `0..n` in a seeded order.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}
