//! Criterion bench for the replication subsystem: replica catch-up
//! throughput (snapshot cold start and incremental frame replay), the
//! publish round-trip over the wire, frame codec cost, and replica serve
//! latency vs the primary.
//!
//! The headline numbers:
//! * `replicate/cold_snapshot` — a fresh replica cold-starting from a
//!   1,000-template primary via one snapshot transfer;
//!   `replicate/catchup_quads_per_sec` in `GALO_BENCH_JSON` is the
//!   measured catch-up throughput.
//! * `replicate_serve/replica_hit` vs `replicate_serve/primary_hit` —
//!   per-arrival serve latency from an epoch-stamped replica against the
//!   same plan served from the primary; sample counts are large enough
//!   that the shim's p50/p99 are true single-serve percentiles.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galo_bench::{inflate_kb, learning_config};
use galo_core::{
    loopback, FaultPlan, FaultyLink, KnowledgeBase, MatchConfig, PeerState, Primary, Publisher,
    Replica, RetryPolicy, ServingTier, StatSketch, Template, TemplatePop,
};
use galo_optimizer::Optimizer;
use galo_qgm::{GuidelineDoc, Qgm};
use galo_rdf::{decode_frame, encode_frame, Frame, FramePayload, Quad, QuadBlock};

/// A distinct single-pop template per `id` — the feed's unit of traffic.
fn tpl(id: u64) -> Template {
    Template {
        id: format!("wire-{id}"),
        pops: vec![TemplatePop {
            op_id: 1,
            pop_type: "IXSCAN".into(),
            cardinality: StatSketch::from_range((id + 1) as f64 * 10.0, (id + 1) as f64 * 20.0),
            scan: None,
            inputs: vec![],
        }],
        guideline: GuidelineDoc::new(vec![]),
        improvement: 0.3,
        source_workload: "replicate_bench".into(),
        fingerprint: format!("fp-wire-{id}"),
        join_count: 0,
    }
}

/// Run one full catch-up of a fresh replica against `primary` over a
/// reliable loopback; returns the replica for inspection.
fn cold_catch_up(primary: &Primary) -> Replica {
    let mut replica = Replica::new();
    let (rc, rs) = loopback();
    let mut rclient = FaultyLink::new(rc, FaultPlan::reliable(1));
    let mut rserver = FaultyLink::new(rs, FaultPlan::reliable(2));
    let mut rpeer = PeerState::default();
    replica
        .catch_up(
            &mut rclient,
            &mut || {
                primary.serve_link(&mut rpeer, &mut rserver);
                rserver.flush();
            },
            &RetryPolicy::default(),
        )
        .expect("reliable catch-up");
    replica
}

/// Replica cold start from a compacted 1,000-template primary: the whole
/// image arrives as one snapshot transfer, then the signature index is
/// rebuilt — the dominant cost of bringing a new replica online.
fn bench_catch_up(c: &mut Criterion) {
    let w = galo_workloads::tpcds::workload();
    let kb = Arc::new(KnowledgeBase::new());
    let small = galo_workloads::Workload {
        name: w.name.clone(),
        db: w.db.clone(),
        queries: w.queries[..10].to_vec(),
    };
    galo_core::learn_workload(&small, &kb, &learning_config(true));
    inflate_kb(&kb, &w.db, &w.queries[..6], 1000);
    let snapshot_quads = kb.export().lines().count();
    let primary = Primary::new(Arc::clone(&kb));

    // A second primary whose image arrives as 200 per-template mutation
    // frames over the wire instead of one snapshot.
    let feed_primary = Primary::new(Arc::new(KnowledgeBase::new()));
    let (fc, fs) = loopback();
    let mut fclient = FaultyLink::new(fc, FaultPlan::reliable(3));
    let mut fserver = FaultyLink::new(fs, FaultPlan::reliable(4));
    let mut fpeer = PeerState::default();
    let mut publisher = Publisher::new();
    for i in 0..200u64 {
        publisher
            .publish_templates(
                &[tpl(i)],
                &mut fclient,
                &mut || {
                    feed_primary.serve_link(&mut fpeer, &mut fserver);
                    fserver.flush();
                },
                &RetryPolicy::default(),
            )
            .expect("reliable publish");
    }

    let mut group = c.benchmark_group("replicate");
    group.sample_size(10);
    group.bench_function("cold_snapshot/1000tpl", |b| {
        b.iter(|| black_box(cold_catch_up(&primary)).replica_epoch())
    });
    group.bench_function("incremental_replay/200frames", |b| {
        b.iter(|| black_box(cold_catch_up(&feed_primary)).replica_epoch())
    });
    group.finish();

    // Measured catch-up throughput for the snapshot path.
    let started = Instant::now();
    let replica = cold_catch_up(&primary);
    let elapsed = started.elapsed();
    assert_eq!(replica.replica_epoch(), primary.epoch());
    let quads_per_sec = (snapshot_quads as f64 / elapsed.as_secs_f64()) as u128;
    c.metric("replicate/snapshot_quads", snapshot_quads as u128);
    c.metric("replicate/catchup_quads_per_sec", quads_per_sec);
    c.metric("replicate/feed_frames_replayed", 200);
}

/// The publish round-trip: encode, loopback delivery, primary apply (an
/// idempotent republish — the steady-state dedup path), decode the ack.
fn bench_publish_roundtrip(c: &mut Criterion) {
    let primary = Primary::new(Arc::new(KnowledgeBase::new()));
    let (pc, ps) = loopback();
    let mut client = FaultyLink::new(pc, FaultPlan::reliable(5));
    let mut server = FaultyLink::new(ps, FaultPlan::reliable(6));
    let mut peer = PeerState::default();
    let mut publisher = Publisher::new();
    let template = [tpl(0)];
    let policy = RetryPolicy::default();

    let mut group = c.benchmark_group("replicate_publish");
    group.sample_size(200);
    group.bench_function("republish_roundtrip", |b| {
        b.iter(|| {
            publisher
                .publish_templates(
                    &template,
                    &mut client,
                    &mut || {
                        primary.serve_link(&mut peer, &mut server);
                        server.flush();
                    },
                    &policy,
                )
                .expect("reliable republish")
                .added
        })
    });
    group.finish();
}

/// Codec cost of a realistic `Publish` (~50 quads), end to end on each
/// side: quads → block → frame bytes for the sender, frame bytes → block
/// for the receiver. A batch pays the first once and the second once per
/// hop that applies it.
fn bench_wire_codec(c: &mut Criterion) {
    let quads = KnowledgeBase::templates_to_quads(&(0..5).map(tpl).collect::<Vec<_>>());
    let encode = |quads: &[Quad]| {
        encode_frame(&Frame {
            seq: 42,
            epoch: 6,
            payload: FramePayload::Publish(QuadBlock::of_inserts(quads).encode()),
        })
    };
    let encoded = encode(&quads);

    let mut group = c.benchmark_group("replicate_wire");
    group.sample_size(200);
    group.bench_function("encode_publish", |b| {
        b.iter(|| encode(black_box(&quads)).len())
    });
    group.bench_function("decode_publish", |b| {
        b.iter(|| {
            let (frame, used) = decode_frame(black_box(&encoded)).expect("roundtrip");
            let FramePayload::Publish(payload) = frame.payload else {
                unreachable!("encoded as a publish");
            };
            QuadBlock::decode(&payload).expect("roundtrip").ops().len() + used
        })
    });
    group.finish();
}

/// Warm serve latency from an epoch-stamped replica vs the primary over
/// the identical knowledge-base image: the replica's bounded-staleness
/// check rides on top of the same plan-fingerprint cache hit.
fn bench_replica_serve(c: &mut Criterion) {
    let w = galo_workloads::tpcds::workload();
    let kb = Arc::new(KnowledgeBase::new());
    let small = galo_workloads::Workload {
        name: w.name.clone(),
        db: w.db.clone(),
        queries: w.queries[..10].to_vec(),
    };
    galo_core::learn_workload(&small, &kb, &learning_config(true));
    inflate_kb(&kb, &w.db, &w.queries[..6], 1000);
    let primary = Primary::new(Arc::clone(&kb));
    let mut replica = cold_catch_up(&primary);

    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<Qgm> = w
        .queries
        .iter()
        .take(16)
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();
    let plan = &plans[0];
    let cfg = MatchConfig::default();

    let rkb = replica.knowledge_base_arc();
    let replica_tier = ServingTier::new(&w.db, &rkb, cfg.clone());
    let primary_tier = ServingTier::new(&w.db, &kb, cfg.clone());
    let primary_epoch = primary.epoch();
    let _ = replica
        .serve_bounded(&replica_tier, plan, primary_epoch, 0)
        .expect("warm-up serve");
    let _ = primary_tier.serve(plan);

    let mut group = c.benchmark_group("replicate_serve");
    group.sample_size(500);
    group.bench_function("replica_hit/1000tpl", |b| {
        b.iter(|| {
            replica
                .serve_bounded(&replica_tier, black_box(plan), primary_epoch, 0)
                .expect("in-sync serve")
                .outcome
                .report
                .rewrites
                .len()
        })
    });
    group.bench_function("primary_hit/1000tpl", |b| {
        b.iter(|| black_box(primary_tier.serve(plan)).report.rewrites.len())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_catch_up, bench_publish_roundtrip, bench_wire_codec, bench_replica_serve
}
criterion_main!(benches);
