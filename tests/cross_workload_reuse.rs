//! Cross-workload template reuse (paper Exp-2, §4.2): problem patterns
//! learned on TPC-DS must re-optimize queries of the IBM client workload.
//!
//! Matching tests the stored ranges exactly, and at exact ranges the reuse
//! rate is 0 — the two schemas' statistics (row sizes, page counts, base
//! cardinalities) never land inside each other's learned validity ranges.
//! One round of runtime feedback on the client plans, with near-miss
//! tracking at the factor Exp-2 uses, widens the templates those plans
//! nearly matched; this test pins that the round yields a nonzero reuse
//! rate, so the `examples/cross_workload.rs` scenario cannot silently
//! regress to zero again.

use galo_bench::EXP2_NEAR_MISS_FACTOR;
use galo_core::{Galo, WorkloadReoptReport};
use galo_workloads::{client, tpcds, Workload};

#[test]
fn tpcds_templates_reoptimize_client_queries_after_one_feedback_round() {
    // A slice of TPC-DS is enough to learn reusable join patterns and
    // keeps the test inside unit-test budget.
    let full = tpcds::workload();
    let tp = Workload {
        name: full.name.clone(),
        db: full.db.clone(),
        queries: full.queries[..8].to_vec(),
    };
    let galo = Galo::new();
    let report = galo.learn(&tp, &galo_bench::learning_config(true));
    assert!(report.templates_learned >= 1, "learning must find patterns");

    let cl = client::workload();
    let reused = |rep: &WorkloadReoptReport| {
        rep.per_query
            .iter()
            .filter(|q| q.template_sources.iter().any(|s| s == tp.db.name.as_str()))
            .count()
    };

    // Exact matching: no reuse (this is what the feedback round fixes).
    let exact = galo.reoptimize_workload(&cl);
    assert_eq!(
        reused(&exact),
        0,
        "exact ranges must not match cross-schema"
    );

    // One feedback round on the client plans: nonzero reuse rate.
    let round = galo.feedback_round(&cl, EXP2_NEAR_MISS_FACTOR);
    assert!(round.templates_refined >= 1, "{round:?}");
    let widened = galo.reoptimize_workload(&cl);
    let cross_matched = reused(&widened);
    assert!(
        cross_matched >= 1,
        "one feedback round at near-miss factor {EXP2_NEAR_MISS_FACTOR} must reuse \
         TPC-DS templates on the client workload (got 0 of {})",
        widened.per_query.len()
    );
    // Reuse must also *help*, not just match: at least one client query
    // runs faster under a TPC-DS-learned rewrite.
    let cross_improved = widened.cross_workload_reuses(cl.db.name.as_str());
    assert!(
        cross_improved >= 1,
        "at least one client query must improve via a reused template \
         ({cross_matched} matched)"
    );
}
