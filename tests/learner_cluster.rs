//! The learner cluster end to end: N simulated machines mining disjoint
//! slices of a workload and publishing batched templates into one shared
//! knowledge base must be **equivalent** to the sequential learning
//! engine — same triples, same signature index, same datasets — for any
//! node count, any publish batch size, any backend, and any publish
//! interleaving. A concurrent matcher must observe monotonically growing
//! coverage while the cluster publishes, and a durable cluster KB must
//! survive checkpoint + reopen bit for bit. Per-workload named graphs are
//! first-class datasets: matching scoped to one dataset never returns
//! another workload's template.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig, Table,
    Value,
};
use galo_core::oracle::match_plan_text;
use galo_core::{
    abstract_plan, learn_workload, learn_workload_cluster, match_plan, vocab, ClusterConfig,
    KbBuilder, KnowledgeBase, LearningConfig, MatchConfig,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_rdf::ScratchDir;
use galo_sql::parse;
use galo_workloads::Workload;
use proptest::prelude::*;

/// A workload over the planted-flooding schema whose query set is drawn
/// from a pool — different subsets give mining spaces of different sizes
/// and shapes, which is what the differential property quantifies over.
fn quirky_workload(name: &str, picks: &[usize]) -> Workload {
    let mut b = DatabaseBuilder::new(name, SystemConfig::default_1gb());
    let mut fact = Table::new(
        "FACT",
        vec![
            col("F_ADDR", ColumnType::Integer),
            col("F_PAYLOAD", ColumnType::Varchar(180)),
        ],
    );
    fact.add_index(Index {
        name: "F_ADDR_IX".into(),
        column: ColumnId(0),
        unique: false,
        cluster_ratio: 0.93,
    });
    let f = b.add_table(
        fact,
        1_441_000,
        vec![
            ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
            ColumnStats::uniform(500_000, 0.0, 1e6, 90),
        ],
    );
    let addr = b.add_table(
        Table::new(
            "ADDR",
            vec![
                col("A_SK", ColumnType::Integer),
                col("A_STATE", ColumnType::Varchar(4)),
            ],
        ),
        50_000,
        vec![
            ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
            ColumnStats::uniform(50, 0.0, 1e6, 2).with_frequent(vec![
                (Value::Str("CA".into()), 9_000),
                (Value::Str("TX".into()), 6_000),
                (Value::Str("VT".into()), 200),
            ]),
        ],
    );
    // Stale beliefs plant the problem patterns learning discovers.
    *b.belief_mut().column_mut(addr, ColumnId(1)) = ColumnStats::uniform(5_000, 0.0, 1e6, 2);
    b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
    let db = b.build();
    let pool = [
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'TX'",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'CA'",
        "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'VT' AND f_addr = 9",
        "SELECT a_state FROM addr, fact WHERE a_sk = f_addr AND f_addr = 3",
        "SELECT f_payload FROM fact WHERE f_addr = 12",
    ];
    let queries = picks
        .iter()
        .enumerate()
        .map(|(i, &p)| parse(&db, &format!("q{i}"), pool[p % pool.len()]).unwrap())
        .collect();
    Workload {
        name: name.into(),
        db,
        queries,
    }
}

fn fast_learning(seed: u64) -> LearningConfig {
    LearningConfig {
        random_plans: 12,
        seed: 0x6A10 ^ seed,
        ..LearningConfig::default()
    }
}

/// The KB's full image — default-graph triples plus dataset quads — as a
/// sorted line set, comparable across backends.
fn image(kb: &KnowledgeBase) -> Vec<String> {
    let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

fn assert_images_equal(cluster: &KnowledgeBase, oracle: &KnowledgeBase, context: &str) {
    assert_eq!(image(cluster), image(oracle), "triples differ: {context}");
    assert_eq!(
        cluster.template_count(),
        oracle.template_count(),
        "template counts differ: {context}"
    );
    assert_eq!(
        cluster.signature_count(),
        oracle.signature_count(),
        "signature index differs: {context}"
    );
    assert_eq!(
        cluster.workload_datasets(),
        oracle.workload_datasets(),
        "datasets differ: {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline differential: for random workloads, learner counts
    /// 1–4 and random publish batch sizes, the cluster-learned KB image
    /// (triples + signature index + datasets) is set-equal to sequential
    /// `learn_workload` over an in-memory backend.
    #[test]
    fn cluster_learning_equals_sequential_in_memory(
        picks in prop::collection::vec(0usize..5, 1..5),
        nodes in 1usize..=4,
        publish_batch in 1usize..4,
        seed in 0u64..3,
    ) {
        let w = quirky_workload("diff_mem", &picks);
        let learning = fast_learning(seed);
        let oracle = KnowledgeBase::new();
        learn_workload(&w, &oracle, &learning);
        let kb = KnowledgeBase::new();
        let report = learn_workload_cluster(&w, &kb, &ClusterConfig {
            nodes,
            publish_batch,
            learning,
        });
        prop_assert_eq!(report.nodes.len(), nodes);
        assert_images_equal(&kb, &oracle, &format!("nodes={nodes} picks={picks:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same differential over the production-shape backend: a sharded
    /// **durable** KB receiving concurrent batched publishes, then
    /// reopened from disk, still equals the sequential in-memory oracle.
    #[test]
    fn cluster_learning_equals_sequential_sharded_durable(
        picks in prop::collection::vec(0usize..5, 1..4),
        nodes in 1usize..=4,
        shards in 1usize..=4,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let w = quirky_workload("diff_durable", &picks);
        let learning = fast_learning(1);
        let oracle = KnowledgeBase::new();
        learn_workload(&w, &oracle, &learning);

        let dir = ScratchDir::new(&format!("learner-cluster-diff-{case}"));
        {
            let kb = KbBuilder::new().durable_dir(dir.path()).shards(shards).build_kb().unwrap();
            learn_workload_cluster(&w, &kb, &ClusterConfig {
                nodes,
                publish_batch: 2,
                learning: learning.clone(),
            });
            assert_images_equal(&kb, &oracle, &format!("pre-reopen nodes={nodes} shards={shards}"));
        }
        // Reopen from disk: recovery must reproduce the same image and
        // rebuild the signature index.
        let kb = KbBuilder::new().durable_dir(dir.path()).shards(shards).build_kb().unwrap();
        assert_images_equal(&kb, &oracle, &format!("post-reopen nodes={nodes} shards={shards}"));
    }
}

/// Learners publishing into a sharded durable KB while a matcher thread
/// continuously matches plans: the number of matched plans only grows,
/// the final image equals the sequential oracle, and a checkpointed
/// store reopens clean.
#[test]
fn stress_concurrent_matching_while_cluster_publishes() {
    let w = quirky_workload("stress", &[0, 1, 2, 3]);
    let learning = fast_learning(2);
    let cluster = ClusterConfig {
        nodes: 4,
        publish_batch: 1, // publish every template immediately: max interleaving
        learning: learning.clone(),
    };
    let oracle = KnowledgeBase::new();
    let seq = learn_workload(&w, &oracle, &learning);
    assert!(seq.templates_learned >= 1, "{seq:?}");

    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<Qgm> = w
        .queries
        .iter()
        .map(|q| optimizer.optimize(q).unwrap())
        .collect();

    let dir = ScratchDir::new("learner-cluster-stress");
    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    let done = AtomicBool::new(false);
    let match_rounds = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let kb_ref = &kb;
        let plans = &plans;
        let db = &w.db;
        let done = &done;
        let match_rounds = &match_rounds;
        scope.spawn(move || {
            let cfg = MatchConfig::default();
            let mut last_matched = 0usize;
            loop {
                let stop_after = done.load(Ordering::Acquire);
                let matched = plans
                    .iter()
                    .filter(|plan| !match_plan(db, kb_ref, plan, &cfg).rewrites.is_empty())
                    .count();
                // Templates only accumulate, so a plan that matched once
                // keeps matching: coverage is monotone.
                assert!(
                    matched >= last_matched,
                    "match coverage regressed: {last_matched} -> {matched}"
                );
                last_matched = matched;
                match_rounds.fetch_add(1, Ordering::Relaxed);
                if stop_after {
                    break;
                }
            }
            assert!(last_matched >= 1, "the finished KB must match something");
        });
        learn_workload_cluster(&w, &kb, &cluster);
        done.store(true, Ordering::Release);
    });
    assert!(match_rounds.load(Ordering::Relaxed) >= 2);
    assert_images_equal(&kb, &oracle, "stress final image");

    // Checkpoint, reopen: the recovered KB still equals the oracle and
    // still serves matching.
    kb.compact().unwrap();
    drop(kb);
    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_images_equal(&kb, &oracle, "post-checkpoint reopen");
    let matched = plans
        .iter()
        .filter(|p| {
            !match_plan(&w.db, &kb, p, &MatchConfig::default())
                .rewrites
                .is_empty()
        })
        .count();
    assert!(matched >= 1);
}

// ------------------------------------------------ dataset-scoped matching --

/// A two-table database plus an optimized plan over it.
fn setup_plan() -> (galo_catalog::Database, Qgm) {
    let mut b = DatabaseBuilder::new("datasets", SystemConfig::default_1gb());
    b.add_table(
        Table::new(
            "FACT",
            vec![
                col("F_K", ColumnType::Integer),
                col("F_V", ColumnType::Decimal),
            ],
        ),
        100_000,
        vec![
            ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
            ColumnStats::uniform(10_000, 0.0, 1e6, 8),
        ],
    );
    b.add_table(
        Table::new(
            "DIM",
            vec![
                col("D_K", ColumnType::Integer),
                col("D_A", ColumnType::Integer),
            ],
        ),
        1_000,
        vec![
            ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
            ColumnStats::uniform(50, 0.0, 50.0, 4),
        ],
    );
    let db = b.build();
    let q = parse(
        &db,
        "q",
        "SELECT f_v FROM fact, dim WHERE f_k = d_k AND d_a = 7",
    )
    .unwrap();
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    (db, plan)
}

fn scoped(dataset: &str) -> MatchConfig {
    MatchConfig {
        dataset: Some(dataset.to_string()),
        ..MatchConfig::default()
    }
}

#[test]
fn dataset_scoped_matching_never_crosses_workloads() {
    let (db, plan) = setup_plan();
    let kb = KnowledgeBase::new();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    // Three templates from workload A, two from workload B — all five
    // share the plan's shape and admit its cardinalities.
    let mut iris_by_workload: Vec<(String, Vec<String>)> = Vec::new();
    for (wl, count, salt0) in [("wa", 3u64, 10u64), ("wb", 2, 20)] {
        let mut iris = Vec::new();
        for i in 0..count {
            let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(salt0 + i));
            tpl.improvement = 0.25;
            tpl.source_workload = wl.to_string();
            kb.insert(&tpl);
            iris.push(vocab::template_iri(&tpl.id).str_value().to_string());
        }
        iris.sort();
        iris_by_workload.push((wl.to_string(), iris));
    }

    // The datasets are first-class: per-workload counts, shapes, stats.
    let datasets = kb.workload_datasets();
    assert_eq!(datasets.len(), 2);
    assert_eq!(datasets[0].workload, "wa");
    assert_eq!(datasets[0].templates, 3);
    assert_eq!(datasets[1].workload, "wb");
    assert_eq!(datasets[1].templates, 2);
    for ds in &datasets {
        assert_eq!(ds.signatures, 1, "one shared shape: {ds:?}");
        assert!((ds.avg_improvement - 0.25).abs() < 1e-12);
    }
    for (wl, iris) in &iris_by_workload {
        assert_eq!(&kb.dataset_template_iris(wl), iris);
    }

    // Scoped matching returns only the scoped dataset's templates — and
    // exactly the smallest IRI within it (the deterministic winner).
    let mut winners = Vec::new();
    for (wl, iris) in &iris_by_workload {
        let report = match_plan(&db, &kb, &plan, &scoped(wl));
        assert!(!report.rewrites.is_empty(), "dataset {wl} must match");
        for r in &report.rewrites {
            assert_eq!(&r.source_workload, wl, "leaked across datasets");
            assert!(iris.contains(&r.template_iri));
        }
        assert_eq!(report.rewrites[0].template_iri, iris[0]);
        winners.push(report.rewrites[0].template_iri.clone());
    }

    // A dataset that contributed nothing matches nothing — and prunes
    // before any probe executes.
    let empty = match_plan(&db, &kb, &plan, &scoped("nonexistent"));
    assert!(empty.rewrites.is_empty());
    assert!(empty.probes_pruned >= 1);
    assert_eq!(empty.probes_executed, 0);

    // Unrestricted matching equals the union: its winner is the smallest
    // IRI over both datasets' winners.
    let unrestricted = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert!(!unrestricted.rewrites.is_empty());
    winners.sort();
    assert_eq!(unrestricted.rewrites[0].template_iri, winners[0]);

    // The text oracle agrees with the compiled pipeline under every
    // dataset scope (the differential the probe IR is pinned by).
    for cfg in [
        MatchConfig::default(),
        scoped("wa"),
        scoped("wb"),
        scoped("nonexistent"),
    ] {
        let probe = match_plan(&db, &kb, &plan, &cfg);
        let text = match_plan_text(&db, &kb, &plan, &cfg);
        assert_eq!(
            probe.rewrites.len(),
            text.rewrites.len(),
            "{:?}",
            cfg.dataset
        );
        for (a, b) in probe.rewrites.iter().zip(&text.rewrites) {
            assert_eq!(a.template_iri, b.template_iri);
            assert_eq!(a.source_workload, b.source_workload);
            assert_eq!(a.guideline, b.guideline);
        }
    }
}

#[test]
fn dataset_scope_survives_export_import_and_sharding() {
    let (db, plan) = setup_plan();
    let kb = KnowledgeBase::new();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    for (wl, salt) in [("wa", 1u64), ("wb", 2)] {
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(salt));
        tpl.source_workload = wl.to_string();
        kb.insert(&tpl);
    }
    // Reindex from triples (import) must reconstruct the per-template
    // dataset, on a sharded backend too.
    let sharded = KbBuilder::new().shards(3).build_kb().unwrap();
    sharded.import(&kb.export()).unwrap();
    for wl in ["wa", "wb"] {
        let report = match_plan(&db, &sharded, &plan, &scoped(wl));
        assert!(!report.rewrites.is_empty());
        assert!(report.rewrites.iter().all(|r| r.source_workload == wl));
    }
    assert_eq!(sharded.workload_datasets(), kb.workload_datasets());
}
