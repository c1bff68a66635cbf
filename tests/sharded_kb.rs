//! The sharded knowledge base end to end: a `ShardedStore` backend is a
//! drop-in for the single-store KB (identical matching), concurrent
//! learners appending templates lose nothing, every publish path places
//! and journals a template identically, a
//! durable sharded KB recovers every shard on reopen — including a torn
//! write-ahead log on one shard — and template-affine routing keeps each
//! template's triples on one shard.

use galo_catalog::{col, ColumnStats, ColumnType, Database, DatabaseBuilder, SystemConfig, Table};
use std::sync::Arc;

use galo_core::{
    abstract_plan, loopback, match_plan, segment_pop_checks, vocab, AdmissionQuery, AdmissionStats,
    KbBuilder, KnowledgeBase, MatchConfig, PeerState, PopCheck, PopObservation, Primary, Publisher,
    RetryPolicy, ScanCheck, Template, TemplateRefinement,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_rdf::{Quad, QuadBlock, Record, ScratchDir, Term};
use galo_sql::parse;

/// A two-table database plus an optimized plan over it — the smallest
/// material a template can be abstracted from.
fn setup() -> (Database, Qgm) {
    let mut b = DatabaseBuilder::new("sharded", SystemConfig::default_1gb());
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

fn template(db: &Database, plan: &Qgm, kb: &KnowledgeBase, salt: u64, workload: &str) -> Template {
    let g = GuidelineDoc::new(vec![guideline_from_plan(plan, plan.root()).unwrap()]);
    let mut tpl = abstract_plan(db, plan, plan.root(), &g, kb.fresh_id(salt));
    tpl.improvement = 0.4;
    tpl.source_workload = workload.to_string();
    tpl
}

#[test]
fn sharded_kb_matches_exactly_like_the_single_store_kb() {
    let (db, plan) = setup();
    let single = KnowledgeBase::new();
    let sharded = KbBuilder::new().shards(4).build_kb().unwrap();
    // Same templates into both (ids must agree, so reuse the abstraction).
    for salt in 0..3u64 {
        let tpl = template(&db, &plan, &single, salt, "tpcds");
        single.insert(&tpl);
        sharded.insert(&tpl);
    }
    assert_eq!(sharded.template_count(), single.template_count());
    let cfg = MatchConfig::default();
    let a = match_plan(&db, &single, &plan, &cfg);
    let b = match_plan(&db, &sharded, &plan, &cfg);
    assert_eq!(a.rewrites.len(), b.rewrites.len());
    assert!(!b.rewrites.is_empty());
    for (x, y) in a.rewrites.iter().zip(&b.rewrites) {
        assert_eq!(x.template_iri, y.template_iri);
        assert_eq!(x.guideline, y.guideline);
        assert_eq!(x.segment_op_id, y.segment_op_id);
    }
    // Export/import between the backends round-trips.
    let kb2 = KbBuilder::new().shards(3).build_kb().unwrap();
    kb2.import(&single.export()).unwrap();
    assert_eq!(kb2.template_count(), single.template_count());
    assert_eq!(
        match_plan(&db, &kb2, &plan, &cfg).rewrites.len(),
        a.rewrites.len()
    );
}

#[test]
fn concurrent_learners_append_without_losing_templates() {
    let (db, plan) = setup();
    let kb = KbBuilder::new().shards(4).build_kb().unwrap();
    let per_thread = 8u64;
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let kb = &kb;
            let db = &db;
            let plan = &plan;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let tpl = template(db, plan, kb, t * 1000 + i, "tpcds");
                    kb.insert(&tpl);
                }
            });
        }
    });
    assert_eq!(kb.template_count(), 32, "no template lost to concurrency");
    let stats = kb.shard_stats().expect("sharded backend");
    assert_eq!(stats.len(), 4);
    assert_eq!(
        stats.iter().map(|s| s.triples).sum::<usize>(),
        kb.server().len()
    );
    assert!(
        stats.iter().filter(|s| s.triples > 0).count() > 1,
        "templates must spread across shards: {stats:?}"
    );
    // The signature index tracked every concurrent insert.
    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert_eq!(report.rewrites.len(), 1);
}

#[test]
fn sharded_durable_kb_recovers_all_shards() {
    let (db, plan) = setup();
    let dir = ScratchDir::new("sharded-kb-reopen");
    let (stats_before, iri, sig) = {
        let kb = KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .build_kb()
            .unwrap();
        let tpl = template(&db, &plan, &kb, 1, "tpcds");
        kb.insert(&tpl);
        for salt in 2..10u64 {
            kb.insert(&template(&db, &plan, &kb, salt, "tpcds"));
        }
        assert_eq!(kb.template_count(), 9);
        (
            kb.shard_stats().unwrap(),
            vocab::template_iri(&tpl.id).str_value().to_string(),
            KnowledgeBase::template_signature(&tpl),
        )
    };
    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_eq!(kb.template_count(), 9);
    assert_eq!(
        kb.shard_stats().unwrap(),
        stats_before,
        "recovered shard counts must equal what was learned"
    );
    assert!(kb.candidate_templates(sig).contains(&iri));
    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert!(!report.rewrites.is_empty(), "recovered KB serves matching");
    // Compaction fans out per shard and is transparent (it rotates the
    // WALs, so recapture the stats — the WAL-pressure counters reset).
    kb.compact().unwrap();
    let stats_compacted = kb.shard_stats().unwrap();
    assert!(stats_compacted.iter().all(|s| s.wal_records == 0));
    drop(kb);
    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_eq!(kb.template_count(), 9);
    assert_eq!(kb.shard_stats().unwrap(), stats_compacted);
}

#[test]
fn torn_wal_on_one_shard_keeps_checkpointed_templates_matchable() {
    let (db, plan) = setup();
    let dir = ScratchDir::new("sharded-kb-torn");
    let (iri_a, sig) = {
        let kb = KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .build_kb()
            .unwrap();
        let a = template(&db, &plan, &kb, 1, "tpcds");
        kb.insert(&a);
        // Checkpoint template A across all shards, then keep writing —
        // the "process" dies while later templates are mid-journal.
        kb.compact().unwrap();
        for salt in 2..6u64 {
            kb.insert(&template(&db, &plan, &kb, salt, "tpcds"));
        }
        (
            vocab::template_iri(&a.id).str_value().to_string(),
            KnowledgeBase::template_signature(&a),
        )
    };
    // Tear the newest WAL of whichever shard wrote the most post-
    // checkpoint data.
    let mut torn_any = false;
    for k in 0..4 {
        let shard_dir = dir.path().join(format!("shard-{k:04}"));
        let mut wals: Vec<_> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .collect();
        wals.sort();
        let Some(wal) = wals.pop() else { continue };
        let len = std::fs::metadata(&wal).unwrap().len();
        if len > 100 {
            let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
            f.set_len(len - len / 3).unwrap();
            torn_any = true;
            break;
        }
    }
    assert!(
        torn_any,
        "at least one shard journaled post-checkpoint data"
    );

    let kb = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    // Template A was checkpointed on every shard before the crash: fully
    // recovered, indexed, matchable.
    assert!(kb.candidate_templates(sig).contains(&iri_a));
    assert!(kb.guideline_of(&iri_a).is_some());
    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert!(!report.rewrites.is_empty());
    // Reopening again is stable (the torn tail was truncated once).
    let count = kb.server().len();
    drop(kb);
    let kb2 = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_eq!(kb2.server().len(), count);
}

#[test]
fn concurrent_writers_with_background_compactor_match_sequential_oracle() {
    let (db, plan) = setup();
    // Pre-build every template with explicit ids: both images must
    // publish byte-identical triples, and `fresh_id` is allocation-order
    // dependent. Thread `t` publishes its 36 templates and retracts
    // every third one — threads touch disjoint templates, so any
    // interleaving must converge to the same image. A publish and a
    // retraction are one WAL record each: 144 + 48 commits over 4 shards
    // are some 48 a shard, six times the compactor's threshold.
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let templates: Vec<Vec<Template>> = (0..4)
        .map(|t| {
            (0..36)
                .map(|i| {
                    let mut tpl =
                        abstract_plan(&db, &plan, plan.root(), &g, format!("cw{t}_{i:02}"));
                    tpl.improvement = 0.4;
                    tpl.source_workload = "tpcds".to_string();
                    tpl
                })
                .collect()
        })
        .collect();

    let image = |kb: &KnowledgeBase| {
        let mut fps = kb.fingerprints();
        fps.sort();
        let shard_triples: Vec<usize> = kb
            .shard_stats()
            .expect("sharded backend")
            .iter()
            .map(|s| s.triples)
            .collect();
        (kb.template_count(), kb.server().len(), fps, shard_triples)
    };

    // Concurrent run: 4 writer threads race while a background compactor
    // folds WALs under them.
    let dir = ScratchDir::new("sharded-kb-concurrent-policy");
    let concurrent = {
        let kb = galo_core::KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .compaction_policy(galo_rdf::CompactionPolicy {
                wal_records: 8,
                poll_interval: std::time::Duration::from_millis(1),
                idle_divisor: 2,
                ..Default::default()
            })
            .build_kb()
            .unwrap();
        std::thread::scope(|scope| {
            for slots in &templates {
                let kb = &kb;
                scope.spawn(move || {
                    for (i, tpl) in slots.iter().enumerate() {
                        kb.insert(tpl);
                        if i % 3 == 2 {
                            kb.remove_template(vocab::template_iri(&tpl.id).str_value());
                        }
                    }
                });
            }
        });
        let pressures = kb.storage_pressures();
        assert!(
            pressures.iter().map(|p| p.compactions).sum::<u64>() > 0,
            "the compactor must have folded under the writers"
        );
        assert!(
            pressures.iter().all(|p| p.compactions_failed == 0),
            "{pressures:?}"
        );
        image(&kb)
    };
    // What survives a full restart (compactor long gone).
    let reopened = image(
        &KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .build_kb()
            .unwrap(),
    );
    assert_eq!(reopened, concurrent, "reopen must reproduce the live image");

    // Sequential oracle: same ops, one thread, no compactor, explicit
    // checkpoint before reopen.
    let oracle_dir = ScratchDir::new("sharded-kb-concurrent-oracle");
    {
        let kb = KbBuilder::new()
            .durable_dir(oracle_dir.path())
            .shards(4)
            .build_kb()
            .unwrap();
        for slots in &templates {
            for (i, tpl) in slots.iter().enumerate() {
                kb.insert(tpl);
                if i % 3 == 2 {
                    kb.remove_template(vocab::template_iri(&tpl.id).str_value());
                }
            }
        }
        kb.compact().unwrap();
    }
    let oracle_kb = KbBuilder::new()
        .durable_dir(oracle_dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    let oracle = image(&oracle_kb);
    assert_eq!(
        reopened, oracle,
        "concurrent writers + background compaction must converge to the \
         sequential image"
    );
    // 4 threads × (36 published − 12 retracted) = 96 live templates.
    assert_eq!(oracle.0, 96);
    let report = match_plan(&db, &oracle_kb, &plan, &MatchConfig::default());
    assert!(!report.rewrites.is_empty());
}

/// The ways a template reaches the store — a learner's `insert_batch`,
/// `apply_quads`, `apply_block` over records, a `Publish` frame over the
/// wire, the endpoint's own `insert_quads` — are one write path: on a
/// 4-shard durable KB each journals a template as exactly **one** record
/// on exactly one shard and leaves every other shard's stats as they
/// were, and all of them leave identical exports and per-shard stats
/// (down to each shard's WAL byte count), before and after a reopen. So
/// are the ways one leaves it — `remove_template`, `apply_block` of the
/// removes, a `Publish` frame of the removes, `Primary::retract`.
#[test]
fn every_publish_path_places_and_journals_identically() {
    let (db, plan) = setup();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let templates: Vec<Template> = (0..12)
        .map(|i| {
            let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, format!("pp{i:02}"));
            tpl.improvement = 0.4;
            tpl.source_workload = "tpcds".to_string();
            tpl
        })
        .collect();
    let quads_of = |tpl: &Template| KnowledgeBase::templates_to_quads(std::slice::from_ref(tpl));
    type Publish<'a> = Box<dyn FnMut(&Template) -> usize + 'a>;
    type Path<'a> = &'a dyn Fn(Arc<KnowledgeBase>) -> Publish<'a>;
    let paths: [(&str, Path<'_>); 5] = [
        ("insert_batch", &|kb| {
            Box::new(move |tpl| kb.insert_batch(std::slice::from_ref(tpl)))
        }),
        ("apply_quads", &|kb| {
            Box::new(move |tpl| kb.apply_quads(&quads_of(tpl)))
        }),
        ("apply_block of records", &|kb| {
            Box::new(move |tpl| {
                let records: Vec<Record> = quads_of(tpl).into_iter().map(Record::from).collect();
                kb.apply_block(&QuadBlock::of_records(&records))
            })
        }),
        ("wire publish", &|kb| {
            let primary = Primary::new(kb);
            let (mut client, mut server) = loopback();
            let mut peer = PeerState::default();
            let mut publisher = Publisher::new();
            Box::new(move |tpl| {
                let receipt = publisher
                    .publish_templates(
                        std::slice::from_ref(tpl),
                        &mut client,
                        &mut || {
                            primary.serve_link(&mut peer, &mut server);
                        },
                        &RetryPolicy::default(),
                    )
                    .expect("a reliable link acknowledges");
                receipt.added as usize
            })
        }),
        ("insert_quads", &|kb| {
            Box::new(move |tpl| kb.server().insert_quads(quads_of(tpl)))
        }),
    ];
    let mut images = Vec::new();
    for (name, path) in paths {
        let dir = ScratchDir::new(&format!("sharded-kb-paths-{}", name.replace(' ', "-")));
        let open = || {
            KbBuilder::new()
                .durable_dir(dir.path())
                .shards(4)
                .build_kb()
                .unwrap()
        };
        let kb = Arc::new(open());
        let mut publish = path(Arc::clone(&kb));
        for tpl in &templates {
            let before = kb.shard_stats().unwrap();
            let added = publish(tpl);
            assert_eq!(added, quads_of(tpl).len(), "{name}: every quad is new");
            let after = kb.shard_stats().unwrap();
            let touched: Vec<usize> = (0..4).filter(|&k| after[k] != before[k]).collect();
            assert_eq!(touched.len(), 1, "{name}: one template, one shard");
            let k = touched[0];
            assert_eq!(
                after[k].wal_records - before[k].wal_records,
                1,
                "{name}: one template, one WAL record, on shard {k}"
            );
            assert_eq!(
                after[k].triples + after[k].graph_triples
                    - (before[k].triples + before[k].graph_triples),
                added,
                "{name}: all of it on shard {k}"
            );
            // A republish changes nothing and journals nothing.
            assert_eq!(publish(tpl), 0, "{name}: idempotent");
            assert_eq!(kb.shard_stats().unwrap(), after, "{name}: no empty record");
        }
        assert_eq!(kb.template_count(), templates.len(), "{name}");
        let mut fingerprints = kb.fingerprints();
        fingerprints.sort();
        let live = (kb.export(), kb.shard_stats().unwrap(), fingerprints);
        drop(publish);
        drop(Arc::into_inner(kb).expect("the path let go of the knowledge base"));
        let reopened = open();
        assert_eq!(reopened.shard_stats().unwrap(), live.1, "{name} reopened");
        assert_eq!(
            sorted_lines(&reopened.export()),
            sorted_lines(&live.0),
            "{name} reopened"
        );
        assert_eq!(
            reopened.signature_count(),
            1,
            "{name}: reopen rebuilt the index"
        );
        images.push((name, live));
    }
    let (_, (export, stats, fingerprints)) = &images[0];
    assert!(
        stats.iter().filter(|s| s.triples > 0).count() > 1,
        "12 templates must spread over the shards: {stats:?}"
    );
    for (name, (other_export, other_stats, other_fingerprints)) in &images[1..] {
        assert_eq!(other_export, export, "{name} export");
        assert_eq!(other_stats, stats, "{name} shard stats");
        assert_eq!(other_fingerprints, fingerprints, "{name} fingerprints");
    }

    // The retraction doors, each over the same twelve templates: every
    // second one is retracted, and each retraction is one record on the
    // template's shard, whatever the door.
    let removes_of = |kb: &KnowledgeBase, tpl: &Template| {
        kb.retraction_of(vocab::template_iri(&tpl.id).str_value())
    };
    let signature = KnowledgeBase::template_signature(&templates[0]);
    let shard_of = |tpl: &Template| {
        let iri = vocab::template_iri(&tpl.id);
        let router = galo_rdf::TemplateRouter::default();
        galo_rdf::ShardRouter::route(&router, 4, &iri, &iri, &iri)
    };
    type Door<'a> = &'a dyn Fn(Arc<KnowledgeBase>) -> Publish<'a>;
    let doors: [(&str, Door<'_>); 4] = [
        ("remove_template", &|kb| {
            Box::new(move |tpl| {
                let stored = removes_of(&kb, tpl).len();
                let iri = vocab::template_iri(&tpl.id);
                assert_eq!(kb.remove_template(iri.str_value()), stored > 0);
                stored
            })
        }),
        ("apply_block of the removes", &|kb| {
            Box::new(move |tpl| {
                // In the order the template was written, not the order a
                // scan finds it in.
                let removes: Vec<Record> = quads_of(tpl)
                    .into_iter()
                    .map(|(s, p, o, g)| Record::Remove(s, p, o, g))
                    .collect();
                kb.apply_block(&QuadBlock::of_records(&removes))
            })
        }),
        ("wire publish of the removes", &|kb| {
            let primary = Primary::new(kb);
            let mut peer = PeerState::default();
            let mut seq = 0;
            Box::new(move |tpl| {
                seq += 1;
                let removes = removes_of(primary.knowledge_base(), tpl);
                let frame = galo_rdf::Frame {
                    seq,
                    epoch: 0,
                    payload: galo_rdf::FramePayload::Publish(
                        QuadBlock::of_records(&removes).encode(),
                    ),
                };
                let replies = primary.handle(&mut peer, &galo_rdf::encode_frame(&frame));
                let (ack, _) = galo_rdf::decode_frame(&replies[0]).expect("an ack");
                match ack.payload {
                    galo_rdf::FramePayload::Ack { added } => added as usize,
                    other => panic!("not an ack: {other:?}"),
                }
            })
        }),
        ("Primary::retract", &|kb| {
            let primary = Primary::new(kb);
            Box::new(move |tpl| {
                let stored = removes_of(primary.knowledge_base(), tpl).len();
                let iri = vocab::template_iri(&tpl.id);
                let logged = primary.log_len();
                assert_eq!(primary.retract(iri.str_value()), stored > 0);
                // An effective retraction is one feed entry; a no-op none.
                assert_eq!(primary.log_len(), logged + usize::from(stored > 0));
                stored
            })
        }),
    ];
    let mut images = Vec::new();
    for (name, door) in doors {
        let dir = ScratchDir::new(&format!("sharded-kb-doors-{}", name.replace(' ', "-")));
        let open = || {
            KbBuilder::new()
                .durable_dir(dir.path())
                .shards(4)
                .build_kb()
                .unwrap()
        };
        let kb = Arc::new(open());
        kb.insert_batch(&templates);
        let mut retract = door(Arc::clone(&kb));
        for tpl in templates.iter().step_by(2) {
            let before = kb.shard_stats().unwrap();
            let removed = retract(tpl);
            assert_eq!(removed, quads_of(tpl).len(), "{name}: every quad was there");
            let after = kb.shard_stats().unwrap();
            let touched: Vec<usize> = (0..4).filter(|&k| after[k] != before[k]).collect();
            assert_eq!(touched, [shard_of(tpl)], "{name}: one template, its shard");
            let k = touched[0];
            assert_eq!(
                after[k].wal_records - before[k].wal_records,
                1,
                "{name}: one retraction, one WAL record, on shard {k}"
            );
            assert_eq!(
                before[k].triples + before[k].graph_triples
                    - (after[k].triples + after[k].graph_triples),
                removed,
                "{name}: all of it from shard {k}"
            );
            // A second retraction changes nothing and journals nothing.
            assert_eq!(retract(tpl), 0, "{name}: idempotent");
            assert_eq!(kb.shard_stats().unwrap(), after, "{name}: no empty record");
        }
        assert_eq!(kb.template_count(), templates.len() / 2, "{name}");
        let candidates = kb.candidate_templates(signature);
        assert_eq!(candidates.len(), templates.len() / 2, "{name}: index");
        let live = (kb.export(), kb.shard_stats().unwrap());
        drop(retract);
        drop(Arc::into_inner(kb).expect("the door let go of the knowledge base"));
        let reopened = open();
        assert_eq!(reopened.shard_stats().unwrap(), live.1, "{name} reopened");
        assert_eq!(
            sorted_lines(&reopened.export()),
            sorted_lines(&live.0),
            "{name} reopened"
        );
        assert_eq!(
            reopened.candidate_templates(signature),
            candidates,
            "{name}: the index kept in step equals the one rebuilt on reopen"
        );
        images.push((name, live));
    }
    let (_, (export, stats)) = &images[0];
    for (name, (other_export, other_stats)) in &images[1..] {
        assert_eq!(other_export, export, "{name} export");
        assert_eq!(other_stats, stats, "{name} shard stats");
    }
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

/// The differential that makes the one apply loop safe to share: a batch
/// applied as a block — to a 4-shard durable KB and to a single in-memory
/// one, from quads and from the block's decoded wire bytes — gives the
/// same `added`, the same per-operation `fresh` answers, the same image,
/// the same signature-index answers and the same epoch movement as an
/// oracle that inserts the quads one at a time and rebuilds its index.
#[test]
fn a_block_applies_like_its_quads_inserted_one_at_a_time() {
    let (db, plan) = setup();
    let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
    let checks = segment_pop_checks(&db, &plan, plan.root());
    let tpl = |i: usize, workload: &str| {
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, format!("df{i:02}"));
        tpl.improvement = 0.1 * (1 + i % 5) as f64;
        tpl.source_workload = workload.to_string();
        for pop in &mut tpl.pops {
            let point = pop.cardinality.envelope().lo;
            pop.cardinality.observe(point * (1.0 + i as f64));
        }
        tpl
    };
    let signature = KnowledgeBase::template_signature(&tpl(0, "w1"));
    let quads_of = |tpls: &[Template]| KnowledgeBase::templates_to_quads(tpls);
    let untagged = |mut quads: Vec<Quad>| {
        quads.retain(|q| q.3.is_none());
        quads
    };
    // A seeded shuffle: batches need not arrive in template order.
    let shuffled = |mut quads: Vec<Quad>, seed: u64| {
        let mut state = seed | 1;
        for i in (1..quads.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            quads.swap(i, (state % (i as u64 + 1)) as usize);
        }
        quads
    };
    let pool: Vec<Template> = (0..8)
        .map(|i| tpl(i, if i % 2 == 0 { "w1" } else { "w2" }))
        .collect();
    // Two templates that route to different shards of four.
    let router = galo_rdf::TemplateRouter::default();
    let shard_of = |t: &Template| {
        let iri = vocab::template_iri(&t.id);
        galo_rdf::ShardRouter::route(&router, 4, &iri, &iri, &iri)
    };
    let far = pool[1..]
        .iter()
        .find(|t| shard_of(t) != shard_of(&pool[0]))
        .expect("eight templates reach two shards");
    let half = |t: &Template| {
        let quads = quads_of(std::slice::from_ref(t));
        let n = quads.len() / 2;
        quads.into_iter().take(n).collect::<Vec<_>>()
    };
    let batches: Vec<(&str, Vec<Quad>)> = vec![
        ("all fresh, tagged", quads_of(&pool[0..1])),
        ("all duplicate", quads_of(&pool[0..1])),
        ("all fresh, untagged", untagged(quads_of(&pool[1..2]))),
        ("the tag alone is new", quads_of(&pool[1..2])),
        (
            "partly duplicate: a stored and a new template",
            shuffled(quads_of(&pool[1..3]), 7),
        ),
        (
            "two templates for two shards",
            shuffled(quads_of(&[pool[3].clone(), far.clone()]), 11),
        ),
        ("half a template", half(&pool[5])),
        ("the whole of it, half duplicate", quads_of(&pool[5..6])),
        ("empty", Vec::new()),
        (
            "everything, mostly duplicate",
            shuffled(quads_of(&pool), 13),
        ),
    ];

    let dir = ScratchDir::new("sharded-kb-block-diff");
    let sharded = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    let single = KnowledgeBase::new();
    let oracle = KnowledgeBase::new();
    for (what, quads) in &batches {
        // The oracle: one store insert per quad, then the index rebuilt
        // from the store. Its endpoint's epoch is not the subject here;
        // the movement is derived from whether anything was new.
        let fresh: Vec<bool> = oracle.server().with_store_mut(|st| {
            quads
                .iter()
                .cloned()
                .map(|(s, p, o, g)| match g {
                    Some(g) => st.insert_in(g, s, p, o),
                    None => st.insert(s, p, o),
                })
                .collect()
        });
        oracle.reindex();
        let added = fresh.iter().filter(|&&f| f).count();
        let want_view = index_view(&oracle, signature, &checks);
        let want_image = oracle.export();

        // Through the endpoint: the per-operation answers themselves.
        let scratch = galo_rdf::FusekiLite::new();
        scratch.import(&single.export()).unwrap();
        let block = QuadBlock::of_inserts(quads);
        assert_eq!(
            scratch.apply_block(&block).changed,
            fresh,
            "{what}: fresh vector"
        );

        // Through the knowledge base, as quads and as decoded wire bytes.
        let wire = QuadBlock::decode(&block.encode()).unwrap();
        for (which, kb) in [
            ("sharded, from quads", &sharded),
            ("single, from wire bytes", &single),
        ] {
            let epoch = kb.epoch();
            let got = if std::ptr::eq(kb, &sharded) {
                kb.apply_quads(quads)
            } else {
                kb.apply_block(&wire)
            };
            assert_eq!(got, added, "{what}, {which}: added");
            assert_eq!(
                kb.epoch() - epoch,
                if added > 0 { 2 } else { 0 },
                "{what}, {which}: one generation per effective batch"
            );
            assert_eq!(
                sorted_lines(&kb.export()),
                sorted_lines(&want_image),
                "{what}, {which}: image"
            );
            assert_eq!(
                index_view(kb, signature, &checks),
                want_view,
                "{what}, {which}: signature index"
            );
        }
    }
    assert_eq!(oracle.template_count(), pool.len());
    // And what the sharded store journaled replays to the same image.
    let live = sharded.export();
    drop(sharded);
    let reopened = KbBuilder::new()
        .durable_dir(dir.path())
        .shards(4)
        .build_kb()
        .unwrap();
    assert_eq!(sorted_lines(&reopened.export()), sorted_lines(&live));
    assert_eq!(
        index_view(&reopened, signature, &checks),
        index_view(&oracle, signature, &checks)
    );
}

#[test]
fn template_affine_routing_keeps_templates_whole() {
    let (db, plan) = setup();
    let kb = KbBuilder::new().shards(4).build_kb().unwrap();
    for salt in 0..12u64 {
        kb.insert(&template(&db, &plan, &kb, salt, "w"));
    }
    // Every template's pops resolve alongside their template node: fetch
    // each guideline and match — any split template would break the
    // per-shard keyed joins that back these lookups.
    let fps = kb.fingerprints();
    assert_eq!(fps.len(), 12);
    for (iri, _) in &fps {
        assert!(kb.guideline_of(iri).is_some(), "guideline of {iri}");
    }
    let stats = kb.shard_stats().unwrap();
    let total: usize = stats.iter().map(|s| s.triples).sum();
    assert_eq!(total, kb.server().len());
}

/// Everything a matcher can observe of the signature index: the raw
/// candidate lists and the per-workload shape counts, plus the admitted
/// candidates and near misses over a grid of admission queries —
/// displaced cardinalities and scan stats, and near-miss factors.
fn index_view(kb: &KnowledgeBase, signature: u64, checks: &[PopCheck]) -> Vec<Vec<String>> {
    let mut view = vec![
        vec![kb.signature_count().to_string()],
        kb.candidate_templates(signature),
        kb.candidate_templates(signature ^ 1),
        kb.workload_datasets()
            .iter()
            .map(|d| format!("{d:?}"))
            .collect(),
    ];
    for card_factor in [1.0, 0.4, 3.0, 150.0, 1e9] {
        for scan_factor in [1.0, 2.5] {
            let displaced: Vec<PopCheck> = checks
                .iter()
                .map(|c| PopCheck {
                    est_card: c.est_card * card_factor,
                    scan: c.scan.map(|s| ScanCheck {
                        row_size: s.row_size * scan_factor,
                        fpages: s.fpages * scan_factor,
                        base_cardinality: s.base_cardinality * scan_factor,
                    }),
                    ..*c
                })
                .collect();
            for near_factor in [1.0, 2.0, 4.0] {
                let query = AdmissionQuery {
                    checks: &displaced,
                    near_factor,
                };
                let mut stats = AdmissionStats::default();
                let mut admitted: Vec<String> = Vec::new();
                while let Some(iri) = kb.next_candidate_admitting(
                    signature,
                    &query,
                    admitted.last().map(String::as_str),
                    &mut stats,
                ) {
                    admitted.push(iri);
                }
                if stats.near_misses > 0 {
                    admitted.push(format!("{} near misses", stats.near_misses));
                }
                view.push(admitted);
            }
        }
    }
    view
}

/// The signature index is kept in step by the one commit every mutator
/// goes through — rows written from the block for whole fresh templates,
/// re-read from the store per template otherwise — and rebuilt from the
/// store by `reindex` / `import` / reopen. After each kind of mutation —
/// publish, republish, a publish and a retraction in one block, a partial
/// edit, refinement, removal of a first, middle, last and only row of a
/// signature several templates share, clear — the index kept in step
/// must answer exactly like the rebuilt one, including the two fallback
/// rules: a corrupt sketch literal falls back to the exact bounds, and an
/// operator stored without bounds is unbounded.
#[test]
fn incremental_index_equals_the_index_rebuilt_from_the_store() {
    let (db, plan) = setup();
    let dir = ScratchDir::new("sharded-kb-index-diff");
    let open = || {
        KbBuilder::new()
            .durable_dir(dir.path())
            .shards(4)
            .build_kb()
            .unwrap()
    };
    let kb = open();
    let checks = segment_pop_checks(&db, &plan, plan.root());
    // Sketches with spread and an outlier, so the templates' bounds
    // differ from each other.
    let sketched = |salt: u64, workload: &str, spread: &[f64]| {
        let mut tpl = template(&db, &plan, &kb, salt, workload);
        for pop in &mut tpl.pops {
            let point = pop.cardinality.envelope().lo;
            for f in spread {
                pop.cardinality.observe(point * f);
            }
        }
        tpl
    };
    let signature = KnowledgeBase::template_signature(&sketched(0, "w1", &[]));
    let iri_of = |tpl: &Template| vocab::template_iri(&tpl.id).str_value().to_string();
    let quads_of = |tpl: &Template| KnowledgeBase::templates_to_quads(std::slice::from_ref(tpl));
    let is_stat = |q: &Quad| {
        let local = q.1.as_iri().and_then(|p| p.strip_prefix(vocab::PROP_NS));
        local.is_some_and(|l| {
            l.starts_with("hasLower") || l.starts_with("hasHigher") || l.ends_with("Sketch")
        })
    };
    let check = |kb: &KnowledgeBase, step: &str| {
        let live = index_view(kb, signature, &checks);
        kb.reindex();
        assert_eq!(live, index_view(kb, signature, &checks), "after {step}");
        live
    };

    // insert_batch: a block of whole templates, handed to the store.
    let a = sketched(1, "w1", &[0.5, 2.0, 200.0]);
    let b = sketched(2, "w2", &[0.9, 1.1, 1.2, 1.3, 40.0]);
    kb.insert_batch(&[a.clone(), b.clone()]);
    let first = check(&kb, "insert_batch");

    // Whole-template apply_quads: a plain template, one whose cardinality
    // sketch literals are corrupt, and one stored with no bounds at all.
    let c = sketched(3, "w2", &[0.7, 1.6]);
    let corrupt = sketched(4, "w1", &[0.5, 2.0, 200.0]);
    let boundless = sketched(5, "w1", &[]);
    let mut quads = quads_of(&c);
    quads.extend(quads_of(&corrupt).into_iter().map(|mut q| {
        if q.1 == vocab::prop(vocab::HAS_CARDINALITY_SKETCH) {
            q.2 = Term::lit("00not-a-sketch");
        }
        q
    }));
    quads.extend(quads_of(&boundless).into_iter().filter(|q| !is_stat(q)));
    assert!(kb.apply_quads(&quads) > 0);
    let second = check(&kb, "apply_quads");
    assert_ne!(first, second, "the view must see the new templates");
    let absurd: Vec<PopCheck> = checks
        .iter()
        .map(|c| PopCheck::card(c.pop_type, c.est_card * 1e9))
        .collect();
    assert_eq!(
        kb.candidate_templates_admitting(signature, &AdmissionQuery::exact(&absurd)),
        vec![iri_of(&boundless)],
        "only the operator-bounds-free template admits an absurd cardinality"
    );

    // One block mixing a publish with a retraction: a whole-template
    // insert plus the removal of everything `a` was stored as.
    let d = sketched(6, "w1", &[1.5]);
    let mut records: Vec<Record> = quads_of(&d).into_iter().map(Record::from).collect();
    records.extend(
        quads_of(&a)
            .into_iter()
            .map(|(s, p, o, g)| Record::Remove(s, p, o, g)),
    );
    assert!(kb.apply_block(&QuadBlock::of_records(&records)) > 0);
    let view = check(&kb, "a publish and a retraction in one block");
    assert!(!view[1].contains(&iri_of(&a)) && view[1].contains(&iri_of(&d)));

    // Partial edits through apply_block: one operator of `c` trades its
    // lower cardinality bound for a wider one (its sketch literal stays)
    // and another loses its type, which is a change of shape: the block
    // states no template whole, so `c`'s row is re-read from the store —
    // and leaves the bucket. Giving the type back, an insert alone,
    // brings it home.
    let mut edit = Vec::new();
    for (s, p, o, g) in quads_of(&c) {
        match p.as_iri().and_then(|p| p.strip_prefix(vocab::PROP_NS)) {
            Some(vocab::HAS_LOWER_CARDINALITY) if edit.is_empty() => {
                edit.push(Record::Remove(s.clone(), p.clone(), o, g.clone()));
                edit.push(Record::Insert(s, p, Term::num(1e-3), g));
            }
            Some(vocab::HAS_POP_TYPE) if edit.len() == 2 => {
                edit.push(Record::Remove(s, p, o, g));
            }
            _ => {}
        }
    }
    let Some(Record::Remove(s, p, o, g)) = edit.get(2).cloned() else {
        panic!("the edit ends on the removal of a type: {edit:?}");
    };
    let before = check(&kb, "before the partial edits");
    assert_eq!(kb.apply_block(&QuadBlock::of_records(&edit)), 3);
    let view = check(&kb, "a partial edit that changes a shape");
    assert!(
        !view[1].contains(&iri_of(&c)),
        "a new shape, another bucket"
    );
    assert_eq!(view[0], vec!["2"]);
    assert_eq!(kb.apply_quads(&[(s, p, o, g)]), 1);
    let view = check(&kb, "a partial edit by one insert");
    assert_eq!((&view[0], &view[1]), (&before[0], &before[1]));

    // refine_template_stats: the refined template's row re-read from
    // the store, on a healthy template and on the corrupt-sketch one.
    for tpl in [&b, &corrupt] {
        let observations = checks
            .iter()
            .map(|c| PopObservation {
                pop_type: c.pop_type.to_string(),
                cards: vec![(c.est_card * 3.0, f64::INFINITY)],
                scan: c.scan,
                scan_band: f64::INFINITY,
            })
            .collect();
        let refinement = TemplateRefinement {
            observations,
            narrows: vec![],
        };
        assert!(kb.refine_template_stats(&iri_of(tpl), &refinement).changed);
        check(&kb, "refine_template_stats");
    }

    // A refinement moves a row's hull: a cardinality no template admitted
    // is folded into `c`, and exactly `c` must admit it afterwards — in
    // the row the commit re-read and in the row rebuilt from the store.
    let displaced: Vec<PopCheck> = checks
        .iter()
        .map(|c| PopCheck::card(c.pop_type, c.est_card * 5e4))
        .collect();
    let admitting_displaced = |kb: &KnowledgeBase| {
        kb.candidate_templates_admitting(signature, &AdmissionQuery::exact(&displaced))
    };
    assert_eq!(admitting_displaced(&kb), vec![iri_of(&boundless)]);
    let refinement = TemplateRefinement {
        observations: displaced
            .iter()
            .map(|c| PopObservation {
                pop_type: c.pop_type.to_string(),
                cards: vec![(c.est_card, f64::INFINITY)],
                scan: None,
                scan_band: f64::INFINITY,
            })
            .collect(),
        narrows: vec![],
    };
    assert!(kb.refine_template_stats(&iri_of(&c), &refinement).changed);
    let mut want = vec![iri_of(&boundless), iri_of(&c)];
    want.sort();
    assert_eq!(admitting_displaced(&kb), want, "the refined hull admits");
    check(&kb, "refine_template_stats widening a hull");
    assert_eq!(
        admitting_displaced(&kb),
        want,
        "and so does the rebuilt one"
    );

    // An idempotent republish leaves its row alone: no new quad, no
    // second row, no answer changed.
    let before = check(&kb, "before the republish");
    assert_eq!(kb.insert_batch(std::slice::from_ref(&d)), 0);
    assert_eq!(check(&kb, "idempotent republish"), before);
    assert_eq!(
        before[1].iter().filter(|iri| **iri == iri_of(&d)).count(),
        1
    );

    // remove_template: a bucket's only row takes the bucket with it…
    let mut lone = sketched(7, "w2", &[1.4]);
    lone.join_count += 1; // a signature of its own
    let more: Vec<Template> = (8..12)
        .map(|salt| sketched(salt, "w1", &[0.8, 1.9]))
        .collect();
    kb.insert_batch(std::slice::from_ref(&lone));
    kb.insert_batch(&more);
    assert_eq!(check(&kb, "a second signature")[0], vec!["2"]);
    assert!(kb.remove_template(&iri_of(&lone)));
    assert_eq!(check(&kb, "removing a bucket's only row")[0], vec!["1"]);
    // …and a first, a middle and a last row leave their neighbours —
    // operators, hulls, sketches — where the cursor expects them.
    for position in ["first", "middle", "last"] {
        let rows = kb.candidate_templates(signature);
        let victim = match position {
            "first" => &rows[0],
            "middle" => &rows[rows.len() / 2],
            _ => &rows[rows.len() - 1],
        };
        assert!(kb.remove_template(victim));
        let view = check(&kb, &format!("removing the {position} row"));
        assert_eq!(view[1].len(), rows.len() - 1);
        assert!(!view[1].contains(victim));
    }

    // import replaces the image with an equal one; a sharded durable
    // reopen recovers it. Neither may change a single answer.
    let before = check(&kb, "refinements");
    kb.import(&kb.export()).unwrap();
    assert_eq!(check(&kb, "import"), before);
    drop(kb);
    let kb = open();
    assert_eq!(check(&kb, "sharded durable reopen"), before);

    // A block with a Clear: only what follows it survives.
    let mut records = vec![Record::Clear];
    records.extend(quads_of(&a).into_iter().map(Record::from));
    assert!(kb.apply_block(&QuadBlock::of_records(&records)) > 0);
    assert_eq!(check(&kb, "a block with a Clear")[1], vec![iri_of(&a)]);

    // clear: nothing left on either side.
    kb.clear();
    let view = check(&kb, "clear");
    assert_eq!(view[0], vec!["0"]);
    assert!(view[1..].iter().all(Vec::is_empty));
}
