//! The learner cluster over the sharded, durable knowledge base.
//!
//! The paper's knowledge base is built off-peak by parallel learner
//! machines, each mining a partition of the workload (§4). This tour
//! simulates that cluster end to end:
//!
//! 1. three `LearnerNode`s split one TPC-DS problem workload's unique
//!    sub-query mining space (deterministic SPMD partitioning — no
//!    coordinator),
//! 2. each node mines its slice locally and publishes its templates in
//!    batches into a shared 4-shard durable KB (template-affine routing:
//!    each template's triples land whole on one shard),
//! 3. checkpoint, drop the process state, reopen (shards recover in
//!    parallel), and
//! 4. verify **every** node's published templates survived — by id —
//!    then match with and without a dataset scope.
//!
//! Exits nonzero if any node's published templates are missing after the
//! reopen, if the image differs from a sequential single-machine run, or
//! if dataset-scoped matching leaks.
//!
//! Run with: `cargo run --release --example learner_cluster`

use galo_core::{
    learn_workload, match_plan, vocab, KbBuilder, KnowledgeBase, LearnerNode, MatchConfig, Template,
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
    let mut learning = galo_bench::learning_config(true);
    learning.threads = 1; // the node is the unit of parallelism here
    println!(
        "workload '{}': {} queries over the TPC-DS problem patterns",
        workload.name,
        workload.queries.len()
    );

    // --- the cluster: mine slices concurrently, publish in batches -----
    let published: Vec<(usize, Vec<Template>)> = {
        let kb = KbBuilder::new()
            .durable_dir(dir)
            .shards(SHARDS)
            .build_kb()
            .expect("sharded KB opens");
        let mut published: Vec<(usize, Vec<Template>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..NODES)
                .map(|id| {
                    let node = LearnerNode::new(id, NODES);
                    let (workload, learning, kb) = (&workload, &learning, &kb);
                    scope.spawn(move || {
                        let mined = node.mine(workload, learning);
                        let (batches, _) = node.publish(kb, &mined.templates, 4);
                        println!(
                            "node {id} published {} template(s) from {} of {} sub-queries \
                             in {batches} batch(es)",
                            mined.templates.len(),
                            mined.subqueries_assigned,
                            mined.subqueries_unique,
                        );
                        (id, mined.templates)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("learner node"))
                .collect()
        });
        published.sort_by_key(|(id, _)| *id);
        let total: usize = published.iter().map(|(_, t)| t.len()).sum();
        if total == 0 {
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
        published
    };

    // --- reopen: every node's templates must have survived -------------
    let kb = KbBuilder::new()
        .durable_dir(dir)
        .shards(SHARDS)
        .build_kb()
        .expect("sharded recovery succeeds");
    println!("\nrecovered templates: {}", kb.template_count());
    let mut missing = 0usize;
    for (node, templates) in &published {
        for tpl in templates {
            let iri = vocab::template_iri(&tpl.id);
            if kb.guideline_of(iri.str_value()).is_none() {
                eprintln!("MISSING: node {node} template {}", iri.str_value());
                missing += 1;
            }
        }
    }
    if missing > 0 {
        eprintln!("FAIL: {missing} published template(s) lost across the reopen");
        std::process::exit(1);
    }
    println!("every node's published templates are present after reopen.");

    // --- the cluster image equals a single-machine run ------------------
    let oracle = KnowledgeBase::new();
    learn_workload(&workload, &oracle, &learning);
    if sorted_image(&kb) != sorted_image(&oracle) {
        eprintln!("FAIL: cluster-learned image differs from the sequential oracle");
        std::process::exit(1);
    }
    println!("cluster image is set-equal to the sequential single-machine image.");

    // --- dataset-scoped matching over the recovered KB ------------------
    let optimizer = Optimizer::new(&workload.db);
    let plan = optimizer
        .optimize(&workload.queries[0])
        .expect("query plans");
    // Datasets are keyed by the source database the templates were
    // learned from (`Template::source_workload`).
    let dataset = workload.db.name.clone();
    let in_dataset = match_plan(
        &workload.db,
        &kb,
        &plan,
        &MatchConfig {
            dataset: Some(dataset.clone()),
            ..MatchConfig::default()
        },
    );
    let foreign = match_plan(
        &workload.db,
        &kb,
        &plan,
        &MatchConfig {
            dataset: Some("no-such-workload".into()),
            ..MatchConfig::default()
        },
    );
    println!(
        "\nmatching scoped to dataset '{dataset}': {} rewrite(s); scoped to a foreign dataset: {}",
        in_dataset.rewrites.len(),
        foreign.rewrites.len()
    );
    if in_dataset.rewrites.is_empty() || !foreign.rewrites.is_empty() {
        eprintln!("FAIL: dataset scoping misbehaved on the recovered KB");
        std::process::exit(1);
    }
    println!("\nevery learner's work survived, machine for machine.");
}
