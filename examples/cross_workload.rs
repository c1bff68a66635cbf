//! Cross-workload template reuse (the paper's Exp-2 highlight): problem
//! patterns learned on the TPC-DS workload re-optimize queries of the IBM
//! client workload, because templates are abstracted with canonical symbol
//! labels and cardinality ranges rather than concrete table names.
//!
//! The client workload's statistics (row sizes, page counts, base
//! cardinalities) never fall inside ranges learned from TPC-DS tables
//! exactly, so matching alone reuses nothing. One round of runtime
//! feedback on the client plans, with near-miss tracking at 4x, widens
//! the TPC-DS templates those plans nearly matched toward them; the next
//! exact match reuses them (`tests/cross_workload_reuse.rs` pins that it
//! stays nonzero, Exp-2 of the experiments binary prints the count).
//!
//! Run with: `cargo run --release --example cross_workload`

use galo_bench::EXP2_NEAR_MISS_FACTOR;
use galo_core::KbBuilder;
use galo_workloads::{client, tpcds};

fn main() {
    let fast = !std::env::args().any(|a| a == "--full");
    let cfg = galo_bench::learning_config(fast);

    // Learn ONLY on TPC-DS.
    let galo = KbBuilder::new().build_galo().expect("in-memory build");
    let tp = tpcds::workload();
    let report = galo.learn(&tp, &cfg);
    println!(
        "learned {} templates from TPC-DS (avg improvement {:.0}%)",
        report.templates_learned,
        report.avg_improvement * 100.0
    );

    // The client workload against the TPC-DS knowledge base: first as
    // learned, then after one feedback round on its plans.
    let cl = client::workload();
    let before = galo.reoptimize_workload(&cl).improved().len();
    let round = galo.feedback_round(&cl, EXP2_NEAR_MISS_FACTOR);
    println!(
        "\nbefore feedback: {before} client queries improved; one round at near-miss \
         factor {EXP2_NEAR_MISS_FACTOR} refined {} template(s)",
        round.templates_refined
    );
    let rep = galo.reoptimize_workload(&cl);
    let improved = rep.improved();
    println!(
        "after feedback: {} of {} client queries improved using TPC-DS-learned patterns",
        improved.len(),
        rep.per_query.len()
    );
    for q in &improved {
        println!(
            "  {:<14} {:>10.1} ms -> {:>10.1} ms   (-{:.0}%)",
            q.query_name,
            q.original_ms,
            q.final_ms,
            q.gain * 100.0
        );
    }
    println!(
        "\nThis reproduces the paper's §4.2 finding: \"problem patterns learned\nover one query workload are re-used when re-optimizing queries in other\nworkloads\" (paper: 6 of 23 improved client queries, 26%)."
    );
}
