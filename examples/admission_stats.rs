//! Admission pre-check at scale: a TPC-DS-learned knowledge base grown
//! with `inflate_kb` to 1 k, 4 k and 16 k templates, matching the 99
//! TPC-DS plans at each size. It prints match time, index rows considered
//! and rows plus hull-summary cells examined per plan, and exits nonzero
//! when the examined count per plan at 16 k exceeds twice the 1 k count
//! (a count, so the gate does not depend on the machine's speed).
//!
//! Run with: `cargo run --release --example admission_stats`

use std::process::ExitCode;
use std::time::Instant;

use galo_bench::{inflate_kb, learning_config};
use galo_core::{compile_plan, match_compiled, KnowledgeBase, MatchConfig};
use galo_optimizer::Optimizer;
use galo_workloads::tpcds;

/// Knowledge-base sizes; the gate compares the last with the first.
const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

/// Timed passes over the plans at each size.
const PASSES: usize = 20;

/// Match cost per plan as the knowledge base grows; a failure when the
/// examined count per plan grows more than twofold from the first size
/// to the last.
fn main() -> ExitCode {
    let w = tpcds::workload();
    let kb = KnowledgeBase::new();
    galo_core::learn_workload(&w, &kb, &learning_config(true));
    let learned = kb.template_count();
    let optimizer = Optimizer::new(&w.db);
    let cfg = MatchConfig::default();
    let plans: Vec<_> = w
        .queries
        .iter()
        .filter_map(|q| optimizer.optimize(q).ok())
        .map(|plan| {
            let compiled = compile_plan(&w.db, &plan, &cfg);
            (plan, compiled)
        })
        .collect();
    let per_plan = |n: usize| n as f64 / plans.len() as f64;
    println!(
        "scaling: {learned} templates learned, {} TPC-DS plans",
        plans.len()
    );
    let mut examined = Vec::new();
    for size in SIZES {
        let t0 = Instant::now();
        inflate_kb(&kb, &w.db, &w.queries[..6], size);
        let grow_s = t0.elapsed().as_secs_f64();
        let (mut considered, mut tested) = (0, 0);
        for (plan, compiled) in &plans {
            let report = match_compiled(&w.db, &kb, plan, compiled);
            considered += report.candidates_considered;
            tested += report.candidates_examined;
        }
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for (plan, compiled) in &plans {
                std::hint::black_box(match_compiled(&w.db, &kb, plan, compiled));
            }
        }
        let match_us = t0.elapsed().as_secs_f64() * 1e6 / (PASSES * plans.len()) as f64;
        println!(
            "scaling: {size} templates (grown in {grow_s:.2} s): match {match_us:.2} us, \
             {:.1} considered, {:.1} examined per plan",
            per_plan(considered),
            per_plan(tested)
        );
        examined.push(per_plan(tested));
    }
    let growth = examined[examined.len() - 1] / examined[0];
    println!(
        "scaling: examined per plan x{growth:.2} from {} to {} templates (bound x2)",
        SIZES[0],
        SIZES[SIZES.len() - 1]
    );
    if growth > 2.0 {
        eprintln!("admission work grows with the knowledge base");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
