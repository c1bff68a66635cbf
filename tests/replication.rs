//! The replication subsystem end to end: templates learned on remote
//! nodes travel to the primary as checksummed `Publish` frames over
//! fault-injected links, read replicas rebuild the primary's image from
//! the pulled mutation feed, and bounded-staleness serving stamps every
//! outcome with the replica epoch it was served at.
//!
//! The contract pinned here:
//! * **Exactly-once**: whatever the fault schedule (drop, duplicate,
//!   delay, truncate) and retry budget, an acknowledged publish is
//!   applied exactly once — the wire-built knowledge base equals the
//!   in-process oracle, byte for byte.
//! * **Replica equality**: a replica whose epoch equals the primary's
//!   holds the identical image.
//! * **Bounded staleness**: no serve ever succeeds with a lag above its
//!   declared bound, and rejections are typed and counted.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig, Table,
    Value,
};
use galo_core::{
    abstract_plan, learn_workload, learn_workload_cluster, learn_workload_replicated, loopback,
    match_plan, vocab, ClusterConfig, FaultPlan, FaultyLink, KnowledgeBase, LearnerNode,
    LearningConfig, Link, LoopEnd, MatchConfig, PeerState, Primary, Publisher, Replica,
    ReplicationConfig, RetryPolicy, ServingTier, StatSketch, Template, TemplatePop, TemplateScan,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_rdf::{
    decode_frame, evaluate, evaluate_seeded, parse_select, FramePayload, Quad, QuadBlock,
    ReadOnlyReplica, ServerError, Term,
};
use galo_sql::parse;
use galo_workloads::Workload;
use proptest::prelude::*;

/// The planted-flooding workload the learning tests use: queries whose
/// plans a learned template matches, plus shape variety.
fn quirky_workload(name: &str) -> Workload {
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
    let queries = pool
        .iter()
        .enumerate()
        .map(|(i, sql)| parse(&db, &format!("q{i}"), sql).unwrap())
        .collect();
    Workload {
        name: name.into(),
        db,
        queries,
    }
}

fn fast_learning() -> LearningConfig {
    LearningConfig {
        random_plans: 12,
        seed: 0x6A10,
        ..LearningConfig::default()
    }
}

fn plans_of(w: &Workload) -> Vec<Qgm> {
    let optimizer = Optimizer::new(&w.db);
    w.queries
        .iter()
        .map(|q| optimizer.optimize(q).unwrap())
        .collect()
}

/// The sorted N-Quads image of a knowledge base — the differential's
/// unit of comparison.
fn image(kb: &KnowledgeBase) -> Vec<String> {
    let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// A hand-built two-pop template, distinct per `id`.
fn tpl(id: &str, workload: &str, card: f64) -> Template {
    Template {
        id: id.into(),
        pops: vec![
            TemplatePop {
                op_id: 1,
                pop_type: "HSJOIN".into(),
                cardinality: StatSketch::from_range(card, card * 2.0),
                scan: None,
                inputs: vec![2],
            },
            TemplatePop {
                op_id: 2,
                pop_type: "TBSCAN".into(),
                cardinality: StatSketch::from_range(10.0, 20.0),
                scan: Some(TemplateScan {
                    canonical_tabid: "T1".into(),
                    row_size: StatSketch::from_range(8.0, 8.0),
                    fpages: StatSketch::from_range(100.0, 200.0),
                    base_cardinality: StatSketch::from_range(1_000.0, 2_000.0),
                }),
                inputs: vec![],
            },
        ],
        guideline: GuidelineDoc::new(vec![]),
        improvement: 0.5,
        source_workload: workload.into(),
        fingerprint: format!("fp-{id}"),
        join_count: 1,
    }
}

// ------------------------------------------------------- publisher bytes --

/// The serializer the publisher's block writer replaced, kept as the
/// reference: every template's statements as quads, each term made anew
/// at each occurrence — the node's five, then per operator its template
/// link, type, cardinality stat, scan label and stats, stream edges, and
/// last the workload tag.
fn reference_quads(templates: &[Template]) -> Vec<Quad> {
    fn say(quads: &mut Vec<Quad>, s: &Term, property: &str, o: Term) {
        quads.push((s.clone(), vocab::prop(property), o, None));
    }
    fn stat(quads: &mut Vec<Quad>, me: &Term, family: usize, sketch: &StatSketch) {
        let (lo, hi, sk) = vocab::STAT_FAMILIES[family];
        let range = sketch.envelope();
        say(quads, me, lo, Term::num(range.lo));
        say(quads, me, hi, Term::num(range.hi));
        say(quads, me, sk, Term::lit(sketch.to_hex()));
    }
    let mut quads = Vec::new();
    for tpl in templates {
        let t = vocab::template_iri(&tpl.id);
        let q = &mut quads;
        say(
            q,
            &t,
            vocab::HAS_GUIDELINE_XML,
            Term::lit(tpl.guideline.to_xml()),
        );
        say(q, &t, vocab::HAS_IMPROVEMENT, Term::num(tpl.improvement));
        say(
            q,
            &t,
            vocab::HAS_SOURCE_WORKLOAD,
            Term::lit(tpl.source_workload.clone()),
        );
        say(
            q,
            &t,
            vocab::HAS_PROBLEM_FINGERPRINT,
            Term::lit(tpl.fingerprint.clone()),
        );
        say(
            q,
            &t,
            vocab::HAS_JOIN_COUNT,
            Term::num(tpl.join_count as f64),
        );
        for p in &tpl.pops {
            let me = vocab::template_pop_iri(&tpl.id, p.op_id);
            say(q, &me, vocab::IN_TEMPLATE, t.clone());
            say(q, &me, vocab::HAS_POP_TYPE, Term::lit(p.pop_type.clone()));
            stat(q, &me, 0, &p.cardinality);
            if let Some(scan) = &p.scan {
                let label = Term::lit(scan.canonical_tabid.clone());
                say(q, &me, vocab::HAS_CANONICAL_TABID, label);
                stat(q, &me, 1, &scan.row_size);
                stat(q, &me, 2, &scan.fpages);
                stat(q, &me, 3, &scan.base_cardinality);
            }
            let is_join = matches!(p.pop_type.as_str(), "NLJOIN" | "HSJOIN" | "MSJOIN");
            for (i, &child) in p.inputs.iter().enumerate() {
                let child = vocab::template_pop_iri(&tpl.id, child);
                say(q, &child, vocab::HAS_OUTPUT_STREAM, me.clone());
                if is_join {
                    let role = match i {
                        0 => vocab::HAS_OUTER_INPUT_STREAM,
                        _ => vocab::HAS_INNER_INPUT_STREAM,
                    };
                    say(q, &me, role, child);
                }
            }
        }
        if !tpl.source_workload.is_empty() {
            let fingerprint = Term::lit(tpl.fingerprint.clone());
            let graph = vocab::workload_graph_iri(&tpl.source_workload);
            let tag = vocab::prop(vocab::HAS_PROBLEM_FINGERPRINT);
            quads.push((t, tag, fingerprint, Some(graph)));
        }
    }
    quads
}

/// The block a publisher builds and sends encodes byte for byte as the
/// reference serializer's quads gathered into one block: learned
/// templates, templates abstracted from join and scan plans, hand-built
/// ones with and without a workload, alone and in batches — and the
/// primary that applies it reaches a local `insert_batch`'s image.
#[test]
fn the_publisher_sends_the_reference_serializers_bytes() {
    let w = quirky_workload("bytes");
    let learned = LearnerNode::new(0, 1).mine(&w, &fast_learning()).templates;
    assert!(!learned.is_empty(), "the workload teaches templates");
    let kb = KnowledgeBase::new();
    let mut abstracted = Vec::new();
    for (i, plan) in plans_of(&w).iter().enumerate() {
        let Some(g) = guideline_from_plan(plan, plan.root()) else {
            continue;
        };
        let doc = GuidelineDoc::new(vec![g]);
        let mut tpl = abstract_plan(&w.db, plan, plan.root(), &doc, kb.fresh_id(i as u64));
        tpl.source_workload = "bytes".into();
        abstracted.push(tpl);
    }
    let kinds = |tpls: &[Template]| {
        let pops = tpls.iter().flat_map(|t| &t.pops);
        let scans = pops.clone().filter(|p| p.scan.is_some()).count();
        (scans, pops.count() - scans)
    };
    let (scans, others) = kinds(&abstracted);
    assert!(scans > 0 && others > 0, "scan and join operators");
    let unlabelled = tpl("no-workload", "", 42.0);
    let mut all = learned.clone();
    all.extend(abstracted.iter().cloned());
    all.push(unlabelled.clone());
    let mut batches: Vec<Vec<Template>> = all.iter().map(|t| vec![t.clone()]).collect();
    batches.extend([learned, abstracted, all.clone(), vec![]]);
    // The same template twice in one batch, and two sharing a workload.
    batches.push(vec![unlabelled.clone(), tpl("w", "bytes", 7.0), unlabelled]);
    /// The primary's end of the link, keeping each `Publish` payload it
    /// receives.
    struct Tap {
        end: LoopEnd,
        published: Vec<Vec<u8>>,
    }
    impl Link for Tap {
        fn send(&mut self, frame: Vec<u8>) {
            self.end.send(frame);
        }
        fn recv(&mut self) -> Option<Vec<u8>> {
            let frame = self.end.recv()?;
            if let Ok((decoded, _)) = decode_frame(&frame) {
                if let FramePayload::Publish(payload) = decoded.payload {
                    self.published.push(payload);
                }
            }
            Some(frame)
        }
    }
    let primary = Primary::new(Arc::new(KnowledgeBase::new()));
    let (mut client, end) = loopback();
    let mut server = Tap {
        end,
        published: Vec::new(),
    };
    let mut peer = PeerState::default();
    let mut publisher = Publisher::new();
    for batch in &batches {
        let want = QuadBlock::of_inserts(&reference_quads(batch)).encode();
        assert_eq!(KnowledgeBase::templates_block(batch).encode(), want);
        assert_eq!(
            KnowledgeBase::templates_to_quads(batch),
            reference_quads(batch)
        );
        publisher
            .publish_templates(
                batch,
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                },
                &RetryPolicy::default(),
            )
            .expect("a reliable link acks");
        let sent = server.published.pop();
        assert_eq!(
            sent,
            Some(want),
            "the Publish payload is the block's encoding"
        );
    }
    let local = KnowledgeBase::new();
    for batch in &batches {
        local.insert_batch(batch);
    }
    assert_eq!(image(primary.knowledge_base()), image(&local));
}

// --------------------------------------------------- cluster differential --

/// Four learner nodes publishing over lossy links (with one straggler)
/// build the exact knowledge base the in-process cluster runner builds —
/// and match identically — with zero lost acknowledged publishes.
#[test]
fn replicated_learning_under_faults_matches_sequential_cluster() {
    let w = quirky_workload("replic");
    let primary = Primary::new(Arc::new(KnowledgeBase::new()));
    let cfg = ReplicationConfig {
        cluster: ClusterConfig {
            publish_batch: 2,
            learning: LearningConfig {
                threads: 4,
                ..fast_learning()
            },
        },
        fault: FaultPlan::lossy(0xFA57_F00D),
        retry: RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        },
        straggler: Some(2),
        straggler_stride: 3,
    };
    let report = learn_workload_replicated(&w, &primary, &cfg);

    assert_eq!(
        report.lost_publishes(),
        0,
        "acked means applied — nothing may be lost"
    );
    assert!(
        report.templates_mined() > 0,
        "the workload must actually mine templates"
    );
    assert!(report.quads_added() > 0);
    let faults = report.faults();
    assert!(
        faults.dropped > 0 && faults.duplicated > 0 && faults.truncated > 0,
        "the lossy plan must exercise the fault paths: {faults:?}"
    );
    assert!(
        report.nodes.iter().map(|n| n.publish.retries).sum::<u64>() > 0,
        "dropped frames must force retries"
    );
    assert!(report.nodes[2].straggler, "node 2 ran as the straggler");
    if report.nodes[2].templates_mined > 0 {
        // A straggler with work to publish sits out until its stride-th
        // turn, stretching the schedule past the stride.
        assert!(
            report.rounds >= cfg.straggler_stride,
            "rounds: {}",
            report.rounds
        );
    }

    // The oracle: the same per-node mining published in-process.
    let oracle = KnowledgeBase::new();
    learn_workload_cluster(&w, &oracle, &cfg.cluster);
    assert_eq!(
        image(primary.knowledge_base()),
        image(&oracle),
        "wire-published image must equal the in-process publish"
    );
    assert_eq!(
        primary.knowledge_base().template_count(),
        oracle.template_count()
    );
    assert_eq!(
        primary.knowledge_base().signature_count(),
        oracle.signature_count(),
        "the incrementally-merged signature index must equal the directly-built one"
    );

    // And the two knowledge bases *match* identically — the signature
    // index rebuilt from raw wire quads drives the same rewrites.
    let mcfg = MatchConfig::default();
    for (i, qgm) in plans_of(&w).iter().enumerate() {
        let via_wire = match_plan(&w.db, primary.knowledge_base(), qgm, &mcfg);
        let via_oracle = match_plan(&w.db, &oracle, qgm, &mcfg);
        assert_eq!(
            via_wire.rewrites.len(),
            via_oracle.rewrites.len(),
            "rewrite count for plan {i}"
        );
        for (a, b) in via_wire.rewrites.iter().zip(&via_oracle.rewrites) {
            assert_eq!(a.template_iri, b.template_iri, "plan {i}");
            assert_eq!(a.guideline, b.guideline, "plan {i}");
        }
    }
}

// ------------------------------------------------- replica follows primary --

/// A replica pulling an interleaved, fault-injected feed: whenever its
/// epoch equals the primary's, the images are identical — and it always
/// catches up in the end.
#[test]
fn replica_image_equals_primary_at_equal_epochs_under_faults() {
    let primary = Primary::new(Arc::new(KnowledgeBase::new()));
    let mut replica = Replica::new();
    let policy = RetryPolicy {
        max_attempts: 48,
        ..RetryPolicy::default()
    };

    // Learner link and replica link, both lossy in both directions.
    let (lc, ls) = loopback();
    let mut lclient = FaultyLink::new(lc, FaultPlan::lossy(0xC0FF_EE01));
    let mut lserver = FaultyLink::new(ls, FaultPlan::lossy(0xC0FF_EE02));
    let mut lpeer = PeerState::default();
    let mut publisher = Publisher::new();

    let (rc, rs) = loopback();
    let mut rclient = FaultyLink::new(rc, FaultPlan::lossy(0xD1CE_0001));
    let mut rserver = FaultyLink::new(rs, FaultPlan::lossy(0xD1CE_0002));
    let mut rpeer = PeerState::default();

    for round in 0..8usize {
        let t = tpl(&format!("follow-{round}"), "wl", 100.0 + round as f64);
        publisher
            .publish_templates(
                std::slice::from_ref(&t),
                &mut lclient,
                &mut || {
                    primary.serve_link(&mut lpeer, &mut lserver);
                    lserver.flush();
                },
                &policy,
            )
            .expect("publish within the retry budget");

        // The replica only pulls every other round — it lags in between.
        if round % 2 == 0 {
            let epoch = replica
                .catch_up(
                    &mut rclient,
                    &mut || {
                        primary.serve_link(&mut rpeer, &mut rserver);
                        rserver.flush();
                    },
                    &policy,
                )
                .expect("catch-up within the retry budget");
            assert_eq!(epoch, replica.replica_epoch());
        }
        // The pin: equal epochs imply equal images.
        if replica.replica_epoch() == primary.epoch() {
            assert_eq!(
                image(replica.knowledge_base()),
                image(primary.knowledge_base())
            );
        }
    }

    replica
        .catch_up(
            &mut rclient,
            &mut || {
                primary.serve_link(&mut rpeer, &mut rserver);
                rserver.flush();
            },
            &policy,
        )
        .expect("final catch-up");
    assert_eq!(replica.replica_epoch(), primary.epoch());
    assert_eq!(
        image(replica.knowledge_base()),
        image(primary.knowledge_base())
    );
    assert!(
        replica.stats.snapshots_loaded >= 1,
        "cold start was a snapshot transfer"
    );
    assert!(
        replica.stats.frames_applied > 0,
        "later rounds replayed incrementally"
    );
    assert_eq!(publisher.stats.lost, 0);
}

// ----------------------------------------------------- bounded staleness --

/// Bounded-staleness serving: every successful serve has `lag <= bound`,
/// in-sync serves equal a fresh primary match, and a stale replica is
/// rejected with the typed error until it catches up.
#[test]
fn bounded_staleness_serving_never_exceeds_the_bound() {
    let w = quirky_workload("replic_stale");
    let kb = Arc::new(KnowledgeBase::new());
    learn_workload(&w, &kb, &fast_learning());
    let primary = Primary::new(kb);
    let mut replica = Replica::new();

    let (rc, rs) = loopback();
    let mut rclient = FaultyLink::new(rc, FaultPlan::reliable(7));
    let mut rserver = FaultyLink::new(rs, FaultPlan::reliable(8));
    let mut rpeer = PeerState::default();
    let policy = RetryPolicy::default();

    replica
        .catch_up(
            &mut rclient,
            &mut || {
                primary.serve_link(&mut rpeer, &mut rserver);
                rserver.flush();
            },
            &policy,
        )
        .expect("cold start over a pre-loaded primary");
    assert_eq!(replica.replica_epoch(), primary.epoch());
    assert_eq!(
        replica.stats.snapshots_loaded, 1,
        "pre-loaded image arrives as a snapshot"
    );

    let rkb = replica.knowledge_base_arc();
    let tier = ServingTier::new(&w.db, &rkb, MatchConfig::default());
    let plans = plans_of(&w);

    // In sync: every plan serves at bound 0 and equals a fresh primary match.
    for (i, qgm) in plans.iter().enumerate() {
        let serve = replica
            .serve_bounded(&tier, qgm, primary.epoch(), 0)
            .expect("in-sync serve at bound 0");
        assert_eq!(serve.lag, 0);
        assert_eq!(serve.replica_epoch, replica.replica_epoch());
        let fresh = match_plan(
            &w.db,
            primary.knowledge_base(),
            qgm,
            &MatchConfig::default(),
        );
        assert_eq!(
            serve.outcome.report.rewrites.len(),
            fresh.rewrites.len(),
            "replica serve must equal a primary match for plan {i}"
        );
        for (a, b) in serve.outcome.report.rewrites.iter().zip(&fresh.rewrites) {
            assert_eq!(a.template_iri, b.template_iri, "plan {i}");
        }
    }

    // One more generation lands on the primary through the wire: the
    // replica is now one generation stale.
    let (lc, ls) = loopback();
    let mut lclient = FaultyLink::new(lc, FaultPlan::reliable(9));
    let mut lserver = FaultyLink::new(ls, FaultPlan::reliable(10));
    let mut lpeer = PeerState::default();
    Publisher::new()
        .publish_templates(
            &[tpl("late-arrival", "replic_stale", 77.0)],
            &mut lclient,
            &mut || {
                primary.serve_link(&mut lpeer, &mut lserver);
                lserver.flush();
            },
            &policy,
        )
        .expect("publish over a reliable link");

    let stale = replica
        .serve_bounded(&tier, &plans[0], primary.epoch(), 0)
        .expect_err("a lag-1 replica must be refused at bound 0");
    assert_eq!(stale.lag, 1);
    assert_eq!(stale.bound, 0);
    assert_eq!(stale.replica_epoch, replica.replica_epoch());
    assert_eq!(stale.primary_epoch, primary.epoch());
    assert_eq!(replica.stats.stale_rejections, 1);

    // A looser bound serves — stamped with the replica's older epoch.
    let bounded = replica
        .serve_bounded(&tier, &plans[0], primary.epoch(), 1)
        .expect("lag 1 within bound 1");
    assert_eq!(bounded.lag, 1);
    assert_eq!(bounded.replica_epoch, replica.replica_epoch());
    assert!(bounded.replica_epoch < primary.epoch());

    // Catch-up is an incremental frame replay (no second snapshot), after
    // which bound 0 serves again.
    replica
        .catch_up(
            &mut rclient,
            &mut || {
                primary.serve_link(&mut rpeer, &mut rserver);
                rserver.flush();
            },
            &policy,
        )
        .expect("incremental catch-up");
    assert_eq!(
        replica.stats.snapshots_loaded, 1,
        "catch-up replays frames, not snapshots"
    );
    assert!(replica.stats.frames_applied > 0);
    let synced = replica
        .serve_bounded(&tier, &plans[0], primary.epoch(), 0)
        .expect("back in sync");
    assert_eq!(synced.lag, 0);
    assert_eq!(image(&rkb), image(primary.knowledge_base()));
}

// ------------------------------------------------------ property: faults --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any fault schedule crossed with any retry budget and any churn —
    /// retractions on the primary beside the publishes, the log compacted
    /// at any point: acknowledged publishes are applied exactly once (the
    /// primary image sits between the acked-only oracle and the
    /// everything oracle), a replica following over its own faulty link
    /// holds the primary's image whenever it holds the primary's epoch,
    /// and so does a laggard that starts after the compaction and is
    /// caught up by snapshot.
    #[test]
    fn fault_schedules_preserve_exactly_once_and_replica_equality(
        seed in 1u64..u64::MAX,
        (drop, duplicate, delay, truncate) in
            (0.0f64..0.30, 0.0f64..0.25, 0.0f64..0.25, 0.0f64..0.25),
        budget in 6usize..24,
        // After batch `b`: retract the `retracts[b]`-th acknowledged
        // template so far (when in range) and, with `pulls[b]`, let the
        // follower pull; after batch `compact_after` (0: at the end),
        // fold the log.
        (retracts, pulls, compact_after) in (
            proptest::collection::vec(0usize..12, 4),
            proptest::collection::vec(any::<bool>(), 4),
            0usize..5,
        ),
    ) {
        let plan = FaultPlan { seed, drop, duplicate, delay, truncate };
        let primary = Primary::new(Arc::new(KnowledgeBase::new()));
        let (c, s) = loopback();
        let mut client = FaultyLink::new(c, plan);
        let mut server = FaultyLink::new(s, FaultPlan { seed: seed ^ 0x5EED, ..plan });
        let mut peer = PeerState::default();
        let mut publisher = Publisher::new();
        let policy = RetryPolicy { max_attempts: budget, ..RetryPolicy::default() };
        let catch = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };

        let mut follower = Replica::new();
        let (rc, rs) = loopback();
        let mut rclient = FaultyLink::new(rc, FaultPlan { seed: seed ^ 0xFEED, ..plan });
        let mut rserver = FaultyLink::new(rs, FaultPlan { seed: seed ^ 0xF00D, ..plan });
        let mut rpeer = PeerState::default();

        let batches: Vec<Vec<Template>> = (0..4)
            .map(|b| {
                (0..2)
                    .map(|i| tpl(&format!("p{b}-{i}"), "prop", ((b * 2 + i) as f64 + 1.0) * 50.0))
                    .collect()
            })
            .collect();
        // The oracles replay the same steps in process: every batch, or
        // only the acknowledged ones, and every retraction.
        let oracle_acked = KnowledgeBase::new();
        let oracle_all = KnowledgeBase::new();

        let mut acked: Vec<&Template> = Vec::new();
        let mut retracted = 0usize;
        for (b, batch) in batches.iter().enumerate() {
            let outcome = publisher.publish_templates(
                batch,
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                    server.flush();
                },
                &policy,
            );
            oracle_all.insert_batch(batch);
            if outcome.is_ok() {
                oracle_acked.insert_batch(batch);
                acked.extend(batch);
            }
            // Only an acknowledged template is retracted: its publish was
            // applied before the ack, and a late duplicate of it is
            // answered from the dedup table, so publish-then-retract is
            // the order on the primary as in the oracles.
            if let Some(victim) = acked.get(retracts[b]) {
                let iri = vocab::template_iri(&victim.id);
                let gone = primary.retract(iri.str_value());
                prop_assert_eq!(oracle_acked.remove_template(iri.str_value()), gone);
                oracle_all.remove_template(iri.str_value());
                retracted += usize::from(gone);
            }
            if b + 1 == compact_after {
                primary.compact_log();
            }
            if pulls[b] {
                let epoch = follower.catch_up(
                    &mut rclient,
                    &mut || {
                        primary.serve_link(&mut rpeer, &mut rserver);
                        rserver.flush();
                    },
                    &catch,
                );
                prop_assert!(epoch.is_ok(), "mid-run catch-up within 64 pulls: {epoch:?}");
            }
            if follower.replica_epoch() == primary.epoch() {
                prop_assert_eq!(
                    image(follower.knowledge_base()),
                    image(primary.knowledge_base()),
                    "equal epochs, equal images (after batch {})", b
                );
            }
        }
        // Settle any frame still held by the delay fault, then freeze the
        // primary image.
        client.flush();
        primary.serve_link(&mut peer, &mut server);
        if compact_after == 0 {
            primary.compact_log();
        }
        let primary_img = image(primary.knowledge_base());

        let acked_img = image(&oracle_acked);
        let all_img = image(&oracle_all);
        prop_assert!(
            acked_img.iter().all(|line| primary_img.contains(line)),
            "every acknowledged publish must be applied"
        );
        prop_assert!(
            primary_img.iter().all(|line| all_img.contains(line)),
            "nothing but published content may appear on the primary"
        );
        // Exactly-once at the template level: between what was surely
        // acked and what was ever sent, never more — less what was
        // retracted, exactly.
        let count = primary.knowledge_base().template_count();
        prop_assert!(
            count >= acked.len() - retracted && count <= 8 - retracted,
            "template count {count}"
        );

        // The follower over its faulty link, and a laggard that has seen
        // nothing yet — whatever the log was folded into reaches it as a
        // snapshot — both converge to the same image at the same epoch.
        let mut laggard = Replica::new();
        for replica in [&mut follower, &mut laggard] {
            let epoch = replica.catch_up(
                &mut rclient,
                &mut || {
                    primary.serve_link(&mut rpeer, &mut rserver);
                    rserver.flush();
                },
                &catch,
            );
            prop_assert!(epoch.is_ok(), "catch-up within 64 pulls: {epoch:?}");
            prop_assert_eq!(replica.replica_epoch(), primary.epoch());
            prop_assert_eq!(image(replica.knowledge_base()), primary_img.clone());
        }
        prop_assert!(laggard.stats.snapshots_loaded >= 1);
    }
}

// --------------------------------------------------- GRAPH endpoint pin --

/// `GRAPH`-scoped dataset queries agree between the text endpoint and a
/// pre-parsed query evaluated in a read session, and only see the scoped
/// workload's templates.
#[test]
fn graph_scoped_dataset_query_agrees_between_text_and_probe() {
    let kb = KnowledgeBase::new();
    kb.insert_batch(&[
        tpl("ga1", "wA", 10.0),
        tpl("ga2", "wA", 20.0),
        tpl("gb1", "wB", 30.0),
    ]);
    let server = kb.server();

    let text = format!(
        "PREFIX p: <{}> SELECT ?t ?fp WHERE {{ GRAPH <{}wA> {{ ?t p:{} ?fp . }} }}",
        vocab::PROP_NS,
        vocab::WORKLOAD_GRAPH_NS,
        vocab::HAS_PROBLEM_FINGERPRINT,
    );
    let via_text = server.query(&text).expect("text endpoint");
    let parsed = parse_select(&text).expect("the same text parses");
    let via_probe = server.with_store(|st| evaluate(st, &parsed));

    let rows = |rs: &galo_rdf::ResultSet| -> Vec<String> {
        let mut out: Vec<String> = rs
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|t| t.as_ref().map_or("UNDEF".into(), |t| t.to_string()))
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect();
        out.sort();
        out
    };
    assert_eq!(
        rows(&via_text),
        rows(&via_probe),
        "probe ≡ text under dataset scope"
    );
    assert_eq!(
        via_text.len(),
        2,
        "only workload wA's two templates are in scope"
    );
    for i in 0..via_text.len() {
        let t = via_text.get(i, "t").unwrap().to_string();
        assert!(
            !t.contains("gb1"),
            "wB must be invisible under wA's graph: {t}"
        );
    }

    // A bound probe narrows within the same graph scope.
    let bound = server.with_store(|st| {
        let t = st.term_id(&vocab::template_iri("ga1")).expect("interned");
        evaluate_seeded(st, &parsed, &[("t".into(), t)])
    });
    assert_eq!(bound.len(), 1);
    assert_eq!(bound.get(0, "fp"), Some(&Term::lit("fp-ga1")));
}

// ------------------------------------------------------ read-only levels --

/// Write rejection at both levels a client reaches: a replica's endpoint
/// returns / panics the typed [`ReadOnlyReplica`] at the `FusekiLite`
/// boundary, and so do the knowledge base's mutators above it — while
/// image and epoch stay put.
#[test]
fn replica_writes_rejected_at_store_and_endpoint_level() {
    // FusekiLite level, on a real replica.
    let replica = Replica::new();
    let server = replica.knowledge_base().server();
    assert!(server.is_read_only());
    let err = server
        .update("INSERT DATA { <urn:a> <urn:b> <urn:c> . }")
        .expect_err("replica update must fail");
    assert!(matches!(err, ServerError::ReadOnlyReplica(_)), "{err}");
    let err = server
        .import("<urn:a> <urn:b> \"o\" .")
        .expect_err("replica import must fail");
    assert!(matches!(err, ServerError::ReadOnlyReplica(_)), "{err}");
    let panic = catch_unwind(AssertUnwindSafe(|| {
        server.insert_triples(vec![(
            Term::iri("urn:a"),
            Term::iri("urn:b"),
            Term::iri("urn:c"),
        )]);
    }))
    .expect_err("infallible write path must panic");
    let reject = panic
        .downcast_ref::<ReadOnlyReplica>()
        .expect("panics with the typed rejection");
    assert_eq!(reject.op, "insert_triples");

    // KnowledgeBase level: the mutators that used to reach the store
    // behind the gate's back. `clear` on a fresh replica returned normally
    // and moved its epoch 0 → 2.
    let kb = replica.knowledge_base();
    let calls: [(&str, &dyn Fn()); 3] = [
        ("clear", &|| kb.clear()),
        ("remove_template", &|| {
            kb.remove_template(vocab::template_iri("absent").str_value());
        }),
        ("apply_feedback", &|| {
            kb.apply_feedback();
        }),
    ];
    for (op, call) in calls {
        let panic = catch_unwind(AssertUnwindSafe(call))
            .expect_err("a client mutator on a replica must panic");
        let reject = panic
            .downcast_ref::<ReadOnlyReplica>()
            .expect("panics with the typed rejection");
        assert_eq!(reject.op, op);
        assert_eq!(kb.epoch(), 0, "{op}: a rejected call moves no epoch");
        assert!(image(kb).is_empty(), "{op}");
    }
    let err = kb.import("<urn:a> <urn:b> \"o\" .").expect_err("gated");
    assert!(matches!(err, ServerError::ReadOnlyReplica(_)), "{err}");
    assert_eq!(kb.epoch(), 0);
}
