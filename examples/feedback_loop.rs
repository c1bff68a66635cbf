//! Closing the loop: runtime actuals feed the per-template statistics.
//!
//! Matching tests a template's stored ranges exactly, so patterns learned
//! on TPC-DS match nothing of the client workload: its statistics fall
//! outside every learned range. Feedback widens those ranges from
//! evidence, template by template:
//!
//! 1. learn problem patterns on TPC-DS ([`KbBuilder`] stands the KB up),
//! 2. run one feedback round over the client workload
//!    ([`Galo::feedback_round`](galo_core::Galo::feedback_round)): each
//!    plan is matched at exact ranges with near-miss tracking at 4x and
//!    its runtime actuals recorded into the
//!    [`FeedbackCollector`](galo_core::FeedbackCollector) — the templates
//!    a plan nearly matched record its values — and the batch is folded
//!    ([`KnowledgeBase::apply_feedback`](galo_core::KnowledgeBase::apply_feedback)):
//!    in-band values widen the stored statistics exactly where this
//!    workload lives,
//! 3. match again at exact ranges: the widened templates now match,
//! 4. run a second round over the same plans: every rewrite the first
//!    round produced is still found (the never-lose differential).
//!
//! Exits nonzero when no refinement lands, the first round bridges no
//! plan, or the second round loses a rewrite. Run with:
//! `cargo run --release --example feedback_loop`

use galo_bench::EXP2_NEAR_MISS_FACTOR;
use galo_core::{match_plan, KbBuilder, MatchConfig, MatchReport};
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;
use galo_workloads::{client, tpcds};

/// Sorted `(template IRI, segment op id)` keys of every rewrite — the
/// identity the never-lose differential compares.
fn rewrite_keys(reports: &[MatchReport]) -> Vec<(String, u32)> {
    let mut keys: Vec<(String, u32)> = reports
        .iter()
        .flat_map(|r| r.rewrites.iter())
        .map(|rw| (rw.template_iri.clone(), rw.segment_op_id))
        .collect();
    keys.sort();
    keys
}

/// `(matched segments, false probes)` across a report set: a matched
/// segment's final probe is its one true admission, every other executed
/// probe was admitted by the pre-check yet failed.
fn matched_and_false(reports: &[MatchReport]) -> (usize, usize) {
    let matched: usize = reports
        .iter()
        .map(|r| {
            let mut segs: Vec<u32> = r.rewrites.iter().map(|rw| rw.segment_op_id).collect();
            segs.dedup();
            segs.len()
        })
        .sum();
    let probes: usize = reports.iter().map(|r| r.probes_executed).sum();
    (matched, probes - matched)
}

fn main() {
    let fast = !std::env::args().any(|a| a == "--full");

    // --- learn ONLY on TPC-DS, through the unified builder ------------
    let galo = KbBuilder::new().build_galo().expect("in-memory build");
    let kb = &galo.kb;
    let learned = galo.learn(&tpcds::workload(), &galo_bench::learning_config(fast));
    println!(
        "learned {} template(s) from TPC-DS (KB epoch {})",
        learned.templates_learned,
        kb.epoch()
    );
    if learned.templates_learned == 0 {
        eprintln!("FAIL: nothing learned, the scenario should always produce templates");
        std::process::exit(1);
    }

    let cl = client::workload();
    let optimizer = Optimizer::new(&cl.db);
    let plans: Vec<Qgm> = cl
        .queries
        .iter()
        .map(|q| optimizer.optimize(q).expect("client queries plan"))
        .collect();
    let rematch = |near_miss_factor: f64| -> Vec<MatchReport> {
        let cfg = MatchConfig {
            near_miss_factor,
            ..MatchConfig::default()
        };
        plans
            .iter()
            .map(|p| match_plan(&cl.db, kb, p, &cfg))
            .collect()
    };
    // One round, then the client plans matched again at exact ranges.
    let round = |which: &str| -> Vec<MatchReport> {
        let folded = galo.feedback_round(&cl, EXP2_NEAR_MISS_FACTOR);
        let after = rematch(1.0);
        let (matched, false_probes) = matched_and_false(&after);
        println!(
            "round {which}: {} template(s) refined ({} values folded, {} dropped out of band, \
             {} narrowed); exact ranges then match {matched} segment(s), {false_probes} false probe(s)",
            folded.templates_refined, folded.values_folded, folded.values_dropped, folded.narrowed
        );
        after
    };

    // --- round 1: near misses widen the templates they name -----------
    let before = rematch(EXP2_NEAR_MISS_FACTOR);
    let (matched0, _) = matched_and_false(&before);
    let near0: usize = before.iter().map(|r| r.near_misses).sum();
    println!(
        "{} client plans before feedback: {matched0} matched segment(s), {near0} near miss(es) \
         at factor {EXP2_NEAR_MISS_FACTOR}",
        plans.len()
    );
    let after1 = round("1");
    let (matched1, _) = matched_and_false(&after1);

    // --- round 2: the matches record themselves; none may be lost -----
    let keys2 = rewrite_keys(&round("2"));
    let lost = rewrite_keys(&after1)
        .iter()
        .filter(|k| !keys2.contains(k))
        .count();
    println!(
        "refinements applied: {} across both rounds",
        kb.refinements_applied()
    );
    println!("lost matches: {lost}");

    if kb.refinements_applied() == 0 {
        eprintln!("FAIL: the feedback batches refined nothing");
        std::process::exit(1);
    }
    if matched1 == 0 {
        eprintln!("FAIL: one feedback round bridged no client plan");
        std::process::exit(1);
    }
    if lost > 0 {
        eprintln!("FAIL: the second round lost {lost} rewrite(s) the first produced");
        std::process::exit(1);
    }
    println!(
        "\nOne round of evidence moved the TPC-DS statistics to where the client\nworkload runs ({matched0} -> {matched1} matched segments at exact ranges), and the\nnext round kept every match it had made."
    );
}
