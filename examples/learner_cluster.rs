//! The learner cluster over the sharded, durable knowledge base.
//!
//! The paper's knowledge base is built off-peak by parallel learner
//! machines, each mining a partition of the workload (§4). This tour
//! simulates that cluster end to end:
//!
//! 1. `learn_workload_cluster` runs three learner nodes that split one
//!    TPC-DS problem workload's unique sub-query mining space
//!    (deterministic SPMD partitioning — no coordinator),
//! 2. each node mines its slice locally and publishes its templates in
//!    batches into a shared 4-shard durable KB (template-affine routing:
//!    each template's triples land whole on one shard),
//! 3. checkpoint, drop the process state, reopen (each shard replays its
//!    own log), and
//! 4. verify **every** node's published templates survived — the
//!    recovered template count equals the cluster report's, and the image
//!    equals a sequential single-machine run's — then match over the
//!    recovered KB and check each rewrite against its workload's dataset.
//!
//! Exits nonzero if any published template is missing after the reopen,
//! if the image differs from a sequential single-machine run, or if a
//! rewrite's template is not in its workload's dataset.
//!
//! Run with: `cargo run --release --example learner_cluster`

use galo_core::{
    learn_workload, learn_workload_cluster, match_plan, ClusterConfig, KbBuilder, KnowledgeBase,
    LearningConfig, MatchConfig,
};
use galo_optimizer::Optimizer;
use galo_rdf::ScratchDir;

fn sorted_image(kb: &KnowledgeBase) -> Vec<String> {
    let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

fn main() {
    const SHARDS: usize = 4;
    const NODES: usize = 3;
    let scratch = ScratchDir::new("learner-cluster-example");
    let dir = scratch.path();
    println!(
        "knowledge base directory: {} ({SHARDS} shards, {NODES} learner nodes)\n",
        dir.display()
    );

    let workload = galo_bench::problem_workload();
    let cfg = ClusterConfig {
        publish_batch: 4,
        learning: LearningConfig {
            threads: NODES,
            ..galo_bench::learning_config(true)
        },
    };
    println!(
        "workload '{}': {} queries over the TPC-DS problem patterns",
        workload.name,
        workload.queries.len()
    );

    // --- the cluster: mine slices concurrently, publish in batches -----
    let published = {
        let kb = KbBuilder::new()
            .durable_dir(dir)
            .shards(SHARDS)
            .build_kb()
            .expect("sharded KB opens");
        let report = learn_workload_cluster(&workload, &kb, &cfg);
        for node in &report.nodes {
            println!(
                "node {} published {} template(s) from {} of {} sub-queries",
                node.node,
                node.templates_published,
                node.subqueries_assigned,
                report.subqueries_unique,
            );
        }
        if report.templates_published() == 0 {
            eprintln!("FAIL: the cluster mined nothing from a scenario that always learns");
            std::process::exit(1);
        }

        println!("\nper-shard layout after publishing:");
        for s in kb.shard_stats().expect("sharded backend") {
            println!(
                "    shard {}: {:>4} triples, {} dataset graph(s), {} dataset tag(s)",
                s.shard, s.triples, s.graphs, s.graph_triples
            );
        }
        println!("\nworkload datasets:");
        for ds in kb.workload_datasets() {
            println!(
                "    '{}': {} template(s), {} shape(s), mean improvement {:.0}%",
                ds.workload,
                ds.templates,
                ds.signatures,
                ds.avg_improvement * 100.0
            );
        }
        kb.compact().expect("per-shard checkpoint succeeds");
        report.templates_published()
    };

    // --- reopen: every node's templates must have survived -------------
    let kb = KbBuilder::new()
        .durable_dir(dir)
        .shards(SHARDS)
        .build_kb()
        .expect("sharded recovery succeeds");
    println!("\nrecovered templates: {}", kb.template_count());
    if kb.template_count() != published {
        eprintln!(
            "FAIL: {published} template(s) published, {} recovered after the reopen",
            kb.template_count()
        );
        std::process::exit(1);
    }
    println!("every node's published templates are present after reopen.");

    // --- the cluster image equals a single-machine run ------------------
    let oracle = KnowledgeBase::new();
    learn_workload(&workload, &oracle, &cfg.learning);
    if sorted_image(&kb) != sorted_image(&oracle) {
        eprintln!("FAIL: cluster-learned image differs from the sequential oracle");
        std::process::exit(1);
    }
    println!("cluster image is set-equal to the sequential single-machine image.");

    // --- matching over the recovered KB ---------------------------------
    let optimizer = Optimizer::new(&workload.db);
    let plan = optimizer
        .optimize(&workload.queries[0])
        .expect("query plans");
    // Datasets are keyed by the source database the templates were
    // learned from (`Template::source_workload`).
    let dataset = workload.db.name.clone();
    let members = kb.dataset_template_iris(&dataset);
    let report = match_plan(&workload.db, &kb, &plan, &MatchConfig::default());
    println!(
        "\ndataset '{dataset}': {} template(s); the first query matched {} rewrite(s)",
        members.len(),
        report.rewrites.len()
    );
    let strays = report
        .rewrites
        .iter()
        .filter(|r| r.source_workload != dataset || !members.contains(&r.template_iri))
        .count();
    if report.rewrites.is_empty() || strays > 0 {
        eprintln!("FAIL: matching over the recovered KB found {strays} rewrite(s) outside dataset '{dataset}'");
        std::process::exit(1);
    }
    println!("\nevery learner's work survived, machine for machine.");
}
