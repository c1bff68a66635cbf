//! `publish_follow` — the template trip, with reads beside the writes.
//! A pass builds a fresh durable 2-shard primary (inline compaction at
//! 512 WAL records, `fsync` off), imports the learned TPC-DS knowledge
//! base, cold-starts a replica over a loopback link, and then runs 256
//! ops. One op publishes one template (`Publisher::publish_templates` →
//! wire → `Primary::serve_link`: decode, `apply_quads`, WAL, shard, epoch
//! bump), catches the replica up (`Replica::catch_up`) and serves eight
//! plans from the replica at staleness bound 0, each paying the global
//! epoch invalidation. Building and tearing down the store is outside
//! the timed part of the pass.
//!
//! Same cache as the serve workloads, but used for writes and
//! invalidation: a change that makes serves cheaper by making publishes
//! or epoch bumps dearer (or the reverse) shows here and nowhere else.
//!
//! No retractions: `Primary` logs inserts only, so a retract would leave
//! the replica unequal to the primary and void the check. No background
//! compactor: time-triggered work would break the exact counts.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use galo_core::{
    abstract_plan, loopback, match_plan, plan_fingerprint, KbBuilder, KnowledgeBase, Link, LoopEnd,
    MatchConfig, PeerState, Primary, Publisher, Replica, ReplicaServe, RetryPolicy, StaleReplica,
    Template,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_rdf::DurableOptions;
use galo_workloads::{tpcds, Workload as SqlWorkload};
use rand::Rng;

use crate::composed::{
    agrees, rewrites_of, same_outcome, Probe, Rewrites, Serving, Traced, Untraced,
};
use crate::fixture::{learn, permutation, run_rng, stream_digest, LearnStats};
use crate::harness::{ratio, Acc, Counts, Workload, OUT_DIR};
use crate::metrics::Layers;
use crate::stats::{median, PassStats, PassTimer};
use crate::trace::{Stage, Tracer};

/// Publishes (ops) in one pass.
const OPS: usize = 256;
/// Replica serves after each publish.
const SERVES_PER_OP: usize = 8;
const SHARDS: usize = 2;
/// WAL records after which the durable store folds its log inline.
const AUTO_COMPACT_RECORDS: u64 = 512;

pub struct PublishFollow;

pub struct Fixture {
    tp: SqlWorkload,
    cfg: MatchConfig,
    learn: LearnStats,
    /// The learned TPC-DS knowledge base as N-Quads, imported into every
    /// pass's primary.
    learned: String,
    learned_templates: usize,
    /// One per op, abstracted from the workload's real plans (as
    /// `benches/policy.rs` does), in publish order.
    templates: Vec<Template>,
    /// The workload's distinct-fingerprint plans.
    plans: Vec<Qgm>,
    /// `SERVES_PER_OP` plan indices per op.
    serves: Vec<u16>,
}

/// What the runs of one pass's teardown measured, per pass.
#[derive(Default)]
struct Teardown {
    cold_start_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    reopen_ms: Vec<f64>,
    space_amp: Vec<f64>,
}

pub struct State {
    /// Expected rewrites of every serve of a pass, in op order.
    oracle: Vec<Rewrites>,
    acc: Acc,
    passes: u64,
    teardown: Teardown,
    /// Last pass's readings of counts that are the same every pass.
    imbalance: f64,
    pub_frames: u64,
    pub_bytes: u64,
    feed_bytes: u64,
    retries: u64,
    /// WAL growth over the publishes that did not fold the log.
    wal_records: u64,
    wal_bytes: u64,
    wal_publishes: u64,
}

/// A link end that counts what crosses it, both ways.
struct Counting {
    inner: LoopEnd,
    frames: u64,
    bytes: u64,
}

impl Counting {
    fn new(inner: LoopEnd) -> Self {
        Counting {
            inner,
            frames: 0,
            bytes: 0,
        }
    }
}

impl Link for Counting {
    fn send(&mut self, frame: Vec<u8>) {
        self.frames += 1;
        self.bytes += frame.len() as u64;
        self.inner.send(frame);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        let frame = self.inner.recv()?;
        self.frames += 1;
        self.bytes += frame.len() as u64;
        Some(frame)
    }
}

/// A store directory inside the checkout, removed when the pass ends.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(pass: u64) -> Self {
        let path = Path::new(OUT_DIR).join(format!("store-{}-{pass}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("store directory is creatable");
        StoreDir(path)
    }

    fn open(&self) -> KnowledgeBase {
        KbBuilder::new()
            .durable_dir(&self.0)
            .shards(SHARDS)
            .durable_options(DurableOptions {
                fsync_each_record: false,
                auto_compact_records: Some(AUTO_COMPACT_RECORDS),
            })
            .build_kb()
            .expect("durable store opens")
    }

    fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// True when two knowledge bases export the same statements, in any
/// order; and the bytes of the first one's export.
fn same_image(a: &KnowledgeBase, b: &KnowledgeBase) -> (bool, usize) {
    fn sorted(text: &str) -> Vec<&str> {
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        lines
    }
    let (a, b) = (a.export(), b.export());
    (sorted(&a) == sorted(&b), a.len())
}

/// Everything one pass publishes into and serves from.
struct Rig<'r> {
    primary: Primary,
    publisher: Publisher,
    pub_client: Counting,
    pub_server: LoopEnd,
    pub_peer: PeerState,
    replica: Replica,
    feed_client: Counting,
    feed_server: LoopEnd,
    feed_peer: PeerState,
    serving: Serving<'r>,
    policy: RetryPolicy,
}

/// What one op produced.
struct OpResult {
    published: bool,
    caught_up: bool,
    serves: [Result<ReplicaServe, StaleReplica>; SERVES_PER_OP],
}

fn op<P: Probe>(probe: &mut P, fx: &Fixture, rig: &mut Rig<'_>, i: usize) -> OpResult {
    let Rig {
        primary,
        publisher,
        pub_client,
        pub_server,
        pub_peer,
        replica,
        feed_client,
        feed_server,
        feed_peer,
        serving,
        policy,
    } = rig;
    let publish = probe.enter(Stage::Publish);
    let receipt = publisher.publish_templates(
        std::slice::from_ref(&fx.templates[i]),
        pub_client,
        &mut || {
            probe.span(Stage::PrimaryApply, || {
                primary.serve_link(pub_peer, pub_server)
            });
        },
        policy,
    );
    probe.exit(publish);
    let catch_up = probe.enter(Stage::CatchUp);
    let caught = replica.catch_up(
        feed_client,
        &mut || {
            probe.span(Stage::PrimaryFeed, || {
                primary.serve_link(feed_peer, feed_server)
            });
        },
        policy,
    );
    probe.exit(catch_up);
    let epoch = primary.epoch();
    let plans = &fx.serves[i * SERVES_PER_OP..][..SERVES_PER_OP];
    OpResult {
        published: receipt.is_ok_and(|r| r.added > 0 && r.attempts == 1 && r.epoch == epoch),
        caught_up: caught == Ok(epoch),
        serves: std::array::from_fn(|k| {
            probe.serve_bounded(replica, serving, &fx.plans[usize::from(plans[k])], epoch, 0)
        }),
    }
}

fn check(result: &OpResult, expected: &[Rewrites], counts: &mut Counts) -> bool {
    let mut ok = result.published && result.caught_up;
    for (serve, expected) in result.serves.iter().zip(expected) {
        ok &= serve.as_ref().is_ok_and(|s| {
            counts.serve(&s.outcome.report);
            s.lag == 0 && s.outcome.epoch.is_some() && agrees(&s.outcome.report, expected)
        });
    }
    ok
}

/// Build a pass's rig, run `body` over it, then check what only a
/// finished pass can show: the replica's image equal to the primary's,
/// and the store reopened from disk holding every template. A traced
/// pass also measures a fresh replica's cold start and a fold of the log.
fn with_rig<R>(
    fx: &Fixture,
    st: &mut State,
    traced: bool,
    body: impl FnOnce(&mut Rig<'_>, &mut State) -> R,
) -> R {
    let dir = StoreDir::new(st.passes);
    st.passes += 1;
    let kb = dir.open();
    kb.import(&fx.learned)
        .expect("learned knowledge base imports");
    let primary = Primary::new(Arc::new(kb));
    let (pub_client, pub_server) = loopback();
    let (feed_client, feed_server) = loopback();
    let mut replica = Replica::new();
    let mut feed_client = Counting::new(feed_client);
    let mut feed_server = feed_server;
    let mut feed_peer = PeerState::default();
    let policy = RetryPolicy::default();
    let cold = replica.catch_up(
        &mut feed_client,
        &mut || {
            primary.serve_link(&mut feed_peer, &mut feed_server);
        },
        &policy,
    );
    let cold_bytes = feed_client.bytes;
    let replica_kb = replica.knowledge_base_arc();
    let mut rig = Rig {
        primary,
        publisher: Publisher::new(),
        pub_client: Counting::new(pub_client),
        pub_server,
        pub_peer: PeerState::default(),
        replica,
        feed_client,
        feed_server,
        feed_peer,
        serving: Serving::new(&fx.tp.db, &replica_kb, &fx.cfg),
        policy,
    };
    let out = body(&mut rig, st);

    let Rig {
        primary,
        publisher,
        pub_client,
        replica,
        feed_client,
        serving,
        ..
    } = rig;
    let kb = primary.knowledge_base();
    // A traced pass serves through both caches; count the one the ops
    // were attributed to.
    let cache = if traced {
        &serving.composed
    } else {
        serving.tier.cache()
    };
    st.acc.counts.stale_drops += cache.counters().stale_drops;
    st.pub_frames = pub_client.frames;
    st.pub_bytes = pub_client.bytes;
    st.feed_bytes = feed_client.bytes - cold_bytes;
    st.retries = publisher.stats.retries + publisher.stats.lost;
    let expected_templates = fx.learned_templates + OPS;
    let (same, user_bytes) = same_image(kb, replica.knowledge_base());
    let mut ok = cold.is_ok()
        && same
        && kb.template_count() == expected_templates
        && kb
            .storage_pressures()
            .iter()
            .all(|p| p.compactions_failed == 0);

    if traced {
        // A fresh replica against the finished primary: one snapshot
        // transfer.
        primary.compact_log();
        let (mut client, mut server) = loopback();
        let mut late = Replica::new();
        let mut peer = PeerState::default();
        let t0 = Instant::now();
        let caught = late.catch_up(
            &mut client,
            &mut || {
                primary.serve_link(&mut peer, &mut server);
            },
            &policy,
        );
        st.teardown
            .cold_start_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
        ok &= caught == Ok(primary.epoch())
            && late.knowledge_base().template_count() == expected_templates;
    }

    if let Some(shards) = kb.shard_stats() {
        let sizes: Vec<f64> = shards
            .iter()
            .map(|s| (s.triples + s.graph_triples) as f64)
            .collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        st.imbalance = sizes.iter().copied().fold(0.0, f64::max) / mean;
    }
    st.teardown
        .space_amp
        .push(dir.bytes() as f64 / user_bytes as f64);
    if traced {
        let t0 = Instant::now();
        ok &= kb.compact().is_ok();
        st.teardown
            .compact_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Recovery: the store reopened from disk holds every template.
    drop(primary);
    let t0 = Instant::now();
    let reopened = dir.open();
    st.teardown.reopen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    ok &= reopened.template_count() == expected_templates;
    st.acc.tally.op(ok);
    out
}

impl Workload for PublishFollow {
    const NAME: &'static str = "publish_follow";
    type Fixture = Fixture;
    type State<'f> = State;

    fn build(seed: u64) -> Fixture {
        let tp = tpcds::workload();
        let cfg = MatchConfig::default();
        let kb = KnowledgeBase::new();
        let mut stats = LearnStats::default();
        learn(&tp, &kb, &mut stats);

        let optimizer = Optimizer::new(&tp.db);
        let mut seen = std::collections::HashSet::new();
        let plans: Vec<Qgm> = tp
            .queries
            .iter()
            .filter_map(|q| optimizer.optimize(q).ok())
            .filter(|plan| seen.insert(plan_fingerprint(&tp.db, plan, &cfg)))
            .collect();
        let mut rng = run_rng(seed);
        // Slot s is abstracted from plan s mod |plans|; the seed picks the
        // order the slots are published in.
        let templates = permutation(OPS, &mut rng)
            .into_iter()
            .map(|slot| {
                let plan = &plans[slot % plans.len()];
                let g = guideline_from_plan(plan, plan.root())
                    .expect("optimized plans have a guideline shape");
                let doc = GuidelineDoc::new(vec![g]);
                abstract_plan(&tp.db, plan, plan.root(), &doc, format!("pf{slot:04}"))
            })
            .collect();
        let serves = (0..OPS * SERVES_PER_OP)
            .map(|_| rng.gen_range(0..plans.len()) as u16)
            .collect();
        Fixture {
            learned: kb.export(),
            learned_templates: kb.template_count(),
            learn: stats,
            tp,
            cfg,
            templates,
            plans,
            serves,
        }
    }

    fn warm(_: &Fixture) -> State {
        // Nothing to warm: every pass builds its store and caches anew.
        State {
            oracle: Vec::new(),
            acc: Acc::default(),
            passes: 0,
            teardown: Teardown::default(),
            imbalance: 0.0,
            pub_frames: 0,
            pub_bytes: 0,
            feed_bytes: 0,
            retries: 0,
            wal_records: 0,
            wal_bytes: 0,
            wal_publishes: 0,
        }
    }

    /// The pass replayed without a wire, a WAL, shards or a cache: the
    /// same quads applied to an in-memory knowledge base, and each serve
    /// answered by an uncached `match_plan`.
    fn oracle(fx: &Fixture, st: &mut State) {
        let kb = KnowledgeBase::new();
        kb.import(&fx.learned)
            .expect("learned knowledge base imports");
        st.oracle = Vec::with_capacity(fx.serves.len());
        for (i, tpl) in fx.templates.iter().enumerate() {
            kb.apply_quads(&KnowledgeBase::templates_to_quads(std::slice::from_ref(
                tpl,
            )));
            for &p in &fx.serves[i * SERVES_PER_OP..][..SERVES_PER_OP] {
                let report = match_plan(&fx.tp.db, &kb, &fx.plans[usize::from(p)], &fx.cfg);
                st.oracle.push(rewrites_of(&report));
            }
        }
    }

    fn acc(st: &mut State) -> &mut Acc {
        &mut st.acc
    }

    fn learn_stats(fx: &Fixture) -> LearnStats {
        fx.learn
    }

    fn op_digest(fx: &Fixture) -> u64 {
        let ids = fx
            .templates
            .iter()
            .flat_map(|t| t.id.bytes().map(u64::from));
        let serves = fx.serves.iter().map(|&p| u64::from(p));
        stream_digest(ids.chain(serves))
    }

    fn samples_per_pass(_: &Fixture) -> usize {
        OPS
    }

    fn spans_per_pass(_: &Fixture) -> usize {
        // Op, publish, apply, catch-up, feed, and five per re-matched serve.
        OPS * (5 + 5 * SERVES_PER_OP)
    }

    fn pass(fx: &Fixture, st: &mut State, timer: &mut PassTimer) -> PassStats {
        with_rig(fx, st, false, |rig, st| {
            timer.begin();
            for i in 0..OPS {
                let t0 = Instant::now();
                let result = op(&mut Untraced, fx, rig, i);
                timer.op(t0);
                let expected = &st.oracle[i * SERVES_PER_OP..][..SERVES_PER_OP];
                let ok = check(&result, expected, &mut st.acc.counts);
                st.acc.tally.op(ok);
            }
            st.acc.counts.ops += OPS as u64;
            st.acc.counts.publishes += OPS as u64;
            timer.end(OPS)
        })
    }

    fn traced_pass(fx: &Fixture, st: &mut State, tr: &mut Tracer) {
        with_rig(fx, st, true, |rig, st| {
            let mut probe = Traced { tr, op_id: 0 };
            let wal = |rig: &Rig<'_>| {
                let shards = rig.primary.knowledge_base().storage_pressures();
                shards
                    .iter()
                    .fold((0, 0), |(r, b), p| (r + p.wal_records, b + p.wal_bytes))
            };
            for i in 0..OPS {
                let before = wal(rig);
                probe.op_id = probe.tr.next_op();
                let root = probe.enter(Stage::Op);
                let result = op(&mut probe, fx, rig, i);
                probe.exit(root);
                let expected = &st.oracle[i * SERVES_PER_OP..][..SERVES_PER_OP];
                let mut ok = check(&result, expected, &mut st.acc.counts);
                // The tier sees the same plans right after the composed
                // serves did, at the same epoch.
                let epoch = rig.primary.epoch();
                let plans = &fx.serves[i * SERVES_PER_OP..][..SERVES_PER_OP];
                for (composed, &p) in result.serves.iter().zip(plans) {
                    let plan = &fx.plans[usize::from(p)];
                    let real = rig.replica.serve_bounded(&rig.serving.tier, plan, epoch, 0);
                    ok &= matches!((composed, &real), (Ok(c), Ok(r))
                        if c.replica_epoch == r.replica_epoch
                            && c.lag == r.lag
                            && same_outcome(&c.outcome, &r.outcome));
                }
                st.acc.tally.op(ok);
                // A publish that folded the log leaves it shorter than it
                // found it; WAL cost per template is read off the others.
                let after = wal(rig);
                if after.0 > before.0 {
                    st.wal_records += after.0 - before.0;
                    st.wal_bytes += after.1 - before.1;
                    st.wal_publishes += 1;
                }
            }
            st.acc.counts.ops += OPS as u64;
            st.acc.counts.publishes += OPS as u64;
        })
    }

    fn finish(fx: &Fixture, st: &mut State, layers: &mut Layers) {
        let t = &st.teardown;
        if !t.cold_start_ms.is_empty() {
            layers.set("core.replication.cold_start_ms", median(&t.cold_start_ms));
            layers.set("rdf.persist.compact_ms", median(&t.compact_ms));
        }
        layers.set("rdf.persist.reopen_ms", median(&t.reopen_ms));
        layers.set("rdf.persist.space_amp", median(&t.space_amp));
        layers.set("rdf.shard.imbalance", st.imbalance);
        layers.set(
            "core.replication.frames_per_publish",
            ratio(st.pub_frames, OPS as u64),
        );
        layers.set("core.replication.retries", st.retries as f64);
        layers.set(
            "rdf.wire.bytes_per_publish",
            ratio(st.pub_bytes, OPS as u64),
        );
        layers.set(
            "rdf.wire.feed_bytes_per_publish",
            ratio(st.feed_bytes, OPS as u64),
        );
        layers.set(
            "rdf.persist.wal_bytes_per_template",
            ratio(st.wal_bytes, st.wal_publishes),
        );
        layers.set(
            "rdf.persist.wal_records_per_template",
            ratio(st.wal_records, st.wal_publishes),
        );
        layers.set("core.kb.templates", (fx.learned_templates + OPS) as f64);
    }
}
