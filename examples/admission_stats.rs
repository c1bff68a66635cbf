//! Admission pre-check at scale: learn TPC-DS templates, inflate the
//! knowledge base to thousands of *polluted* templates (structurally
//! live, exact envelopes admitting, probes provably failing), then match
//! the live plan mix at trim 0 (exact min/max baseline) and at a 5%
//! quantile trim. Prints the admission counters CI greps: the trimmed
//! reject count must be nonzero and the lost-match count must be zero.
//!
//! Then the scaling section: a TPC-DS-learned knowledge base grown with
//! `inflate_kb` to 1 k, 4 k and 16 k templates, matching the 99 TPC-DS
//! plans at each size. It prints match time, index rows considered and
//! rows plus hull-summary cells examined per plan, and exits nonzero when
//! the examined count per plan at 16 k exceeds twice the 1 k count (a
//! count, so the gate does not depend on the machine's speed).
//!
//! Run with: `cargo run --release --example admission_stats`
//! (`--full` scales to the 10,000-template push.)

use std::process::ExitCode;
use std::time::Instant;

use galo_bench::{inflate_kb, inflate_kb_polluted, learning_config};
use galo_core::{
    compile_plan, match_compiled, match_plan, KnowledgeBase, MatchConfig, MatchReport,
};
use galo_optimizer::Optimizer;
use galo_workloads::tpcds;

/// Knowledge-base sizes of the scaling section; the gate compares the
/// last with the first.
const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

/// Timed passes over the plans at each size.
const PASSES: usize = 20;

fn main() -> ExitCode {
    pollution();
    scaling()
}

/// Admission counters on a polluted knowledge base, at trim 0 and 0.05.
fn pollution() {
    let full = std::env::args().any(|a| a == "--full");
    let target = if full { 10_000 } else { 2_000 };

    let w = tpcds::workload();
    let kb = KnowledgeBase::new();
    let small = galo_workloads::Workload {
        name: w.name.clone(),
        db: w.db.clone(),
        queries: w.queries[..10].to_vec(),
    };
    galo_core::learn_workload(&small, &kb, &learning_config(true));
    let pollution = inflate_kb_polluted(&kb, &w.db, &w.queries[..6], target);
    println!(
        "catalog: {} templates ({} card-polluted, {} scan-polluted, {} displaced)",
        kb.template_count(),
        pollution.card_polluted,
        pollution.scan_polluted,
        pollution.displaced
    );

    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<_> = w
        .queries
        .iter()
        .take(12)
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();

    let run = |trim: f64| -> Vec<MatchReport> {
        let cfg = MatchConfig {
            sketch_trim: trim,
            ..MatchConfig::default()
        };
        plans
            .iter()
            .map(|p| match_plan(&w.db, &kb, p, &cfg))
            .collect()
    };
    let keys = |reports: &[MatchReport]| -> Vec<(String, u32)> {
        let mut k: Vec<_> = reports
            .iter()
            .flat_map(|r| r.rewrites.iter())
            .map(|rw| (rw.template_iri.clone(), rw.segment_op_id))
            .collect();
        k.sort();
        k
    };

    let exact = run(0.0);
    let trimmed = run(0.05);
    let lost = keys(&exact)
        .iter()
        .filter(|k| !keys(&trimmed).contains(k))
        .count();

    let fold = |reports: &[MatchReport]| -> (usize, usize, usize) {
        (
            reports.iter().map(|r| r.probes_executed).sum(),
            reports.iter().map(|r| r.admission_rejects_card).sum(),
            reports.iter().map(|r| r.admission_rejects_scan).sum(),
        )
    };
    let (probes0, _, _) = fold(&exact);
    let (probes1, rc1, rs1) = fold(&trimmed);
    println!("probes executed: {probes0} at trim 0, {probes1} at trim 0.05");
    println!("admission rejects: {}", rc1 + rs1);
    println!("lost matches: {lost}");
    assert_eq!(lost, 0, "a trimmed pre-check must never lose a true match");
    assert!(
        probes1 < probes0,
        "the trimmed pre-check must prune polluted probes"
    );
}

/// Match cost per plan as the knowledge base grows; a failure when the
/// examined count per plan grows more than twofold from the first size
/// to the last.
fn scaling() -> ExitCode {
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
