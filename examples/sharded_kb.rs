//! The sharded, durable knowledge base under concurrent learning.
//!
//! The paper's off-peak learning runs on multiple machines in parallel,
//! all feeding one knowledge base (§3.2) — which makes the KB a shared
//! service that must absorb concurrent writers. This tour exercises the
//! `ShardedStore` backend end to end:
//!
//! 1. open a 4-shard durable KB (one WAL+snapshot directory per shard),
//! 2. learn two workloads **from two threads at once** — template-affine
//!    routing spreads the templates over the shards, and the writers'
//!    publishes interleave one write session at a time,
//! 3. checkpoint (compaction fans out across the shard directories),
//! 4. drop the process state, reopen (shards recover in shard order), and
//! 5. match both workloads against the recovered templates.
//!
//! Exits nonzero if the recovered per-shard triple counts disagree with
//! what was learned, or if the recovered KB fails to match.
//!
//! Run with: `cargo run --release --example sharded_kb`

use galo_core::{match_plan, KbBuilder, MatchConfig};
use galo_optimizer::Optimizer;
use galo_rdf::ScratchDir;

fn main() {
    let scratch = ScratchDir::new("sharded-kb-example");
    let dir = scratch.path();
    const SHARDS: usize = 4;
    println!(
        "knowledge base directory: {} ({SHARDS} shards)\n",
        dir.display()
    );

    let cfg = galo_bench::learning_config(true);
    let mut scenarios = galo_bench::problem_queries();
    let (name2, workload2) = scenarios.remove(1);
    let (name1, workload1) = scenarios.remove(0);

    // --- learn two workloads concurrently into the sharded KB ----------
    let learned_stats = {
        let galo = KbBuilder::new()
            .durable_dir(dir)
            .shards(SHARDS)
            .build_galo()
            .expect("sharded durable KB opens");
        let (n1, n2) = std::thread::scope(|scope| {
            let kb = &galo.kb;
            let h1 = {
                let (w, c) = (&workload1, &cfg);
                scope.spawn(move || galo_core::learn_workload(w, kb, c).templates_learned)
            };
            let h2 = {
                let (w, c) = (&workload2, &cfg);
                scope.spawn(move || galo_core::learn_workload(w, kb, c).templates_learned)
            };
            (h1.join().expect("learner 1"), h2.join().expect("learner 2"))
        });
        println!("learned {n1} template(s) from '{name1}' and {n2} from '{name2}' concurrently");
        if n1 + n2 == 0 {
            eprintln!("FAIL: nothing learned, the scenario should always produce templates");
            std::process::exit(1);
        }
        galo.kb.compact().expect("per-shard checkpoint succeeds");
        let stats = galo.kb.shard_stats().expect("sharded backend");
        println!("\nper-shard layout after learning + checkpoint:");
        for s in &stats {
            println!(
                "    shard {}: {:>4} triples, {} workload graph(s)",
                s.shard, s.triples, s.graphs
            );
        }
        stats
    };

    // --- reopen: every shard recovers, in shard order -----------------
    let galo = KbBuilder::new()
        .durable_dir(dir)
        .shards(SHARDS)
        .build_galo()
        .expect("sharded recovery succeeds");
    let recovered_stats = galo.kb.shard_stats().expect("sharded backend");
    let recovered = galo.kb.template_count();
    println!("\nrecovered templates: {recovered}");
    println!(
        "recovered knowledge base: {} triples across {} workload graph(s)",
        galo.kb.server().len(),
        galo.kb.workloads().len()
    );

    if recovered_stats != learned_stats {
        eprintln!(
            "FAIL: recovered shard counts disagree with what was learned\n\
             learned:   {learned_stats:?}\nrecovered: {recovered_stats:?}"
        );
        std::process::exit(1);
    }
    println!("per-shard counts match what was learned exactly.");

    // --- the recovered shards serve the online path --------------------
    let mut matched_total = 0;
    for (name, workload) in [(&name1, &workload1), (&name2, &workload2)] {
        let optimizer = Optimizer::new(&workload.db);
        let plan = optimizer
            .optimize(&workload.queries[0])
            .expect("query plans");
        let report = match_plan(&workload.db, &galo.kb, &plan, &MatchConfig::default());
        println!(
            "matching '{name}' post-reopen: {} probe(s) executed, {} rewrite(s) found",
            report.probes_executed,
            report.rewrites.len()
        );
        matched_total += report.rewrites.len();
    }
    if matched_total == 0 {
        eprintln!("FAIL: recovered sharded KB matched neither workload");
        std::process::exit(1);
    }
    println!("\nevery learned template survived, shard for shard.");
}
