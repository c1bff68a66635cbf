//! `serve_hot` and `serve_cold`: the same knowledge base, the same cache
//! (default 8 × 64 = 512 entries) and plans from one pool — with a
//! working set that fits the cache (64 plans) or cannot (1,024 plans in
//! cyclic order, so CLOCK never re-finds an entry). One exercises the
//! hit path and bypasses the matcher; the other the reverse.

use std::time::Instant;

use galo_core::{match_plan, KnowledgeBase, MatchConfig, ServeOutcome};
use galo_qgm::Qgm;
use galo_workloads::{tpcds, Workload as SqlWorkload};
use rand::Rng;

use crate::composed::{
    agrees, rewrites_of, same_outcome, Probe, Rewrites, Serving, Traced, Untraced,
};
use crate::fixture::{adhoc_plans, exp4_kb, permutation, run_rng, stream_digest, LearnStats};
use crate::harness::{Acc, Workload};
use crate::metrics::Layers;
use crate::stats::{PassStats, PassTimer};
use crate::trace::{Stage, Tracer};

/// Distinct plans of `serve_hot`: an eighth of the cache.
const HOT_PLANS: usize = 64;
/// Serves in one `serve_hot` pass.
const HOT_OPS: usize = 524_288;
/// A hit takes ~0.5 µs, two clock reads ~0.05 µs: hits are timed in
/// groups and each group contributes its mean.
const HOT_GROUP: usize = 64;
/// Serves of a `serve_hot` pass that the traced replay covers; three
/// spans each, against a buffer of 600,000.
const HOT_TRACED_OPS: usize = 32_768;
/// Distinct plans of `serve_cold`: twice the cache.
const COLD_PLANS: usize = 1024;
/// Cycles through the plans in one `serve_cold` pass.
const COLD_CYCLES: usize = 2;

pub struct Fixture {
    tp: SqlWorkload,
    kb: KnowledgeBase,
    learn: LearnStats,
    cfg: MatchConfig,
    plans: Vec<Qgm>,
    /// One pass: indices into `plans`.
    order: Vec<u16>,
    /// Served once, in this order, to warm a cache.
    warm_up: Vec<u16>,
}

pub struct State<'f> {
    serving: Serving<'f>,
    oracle: Vec<Rewrites>,
    acc: Acc,
}

/// `Serve<true>` is `serve_hot`, `Serve<false>` is `serve_cold`.
pub struct Serve<const HOT: bool>;
pub type ServeHot = Serve<true>;
pub type ServeCold = Serve<false>;

impl<const HOT: bool> Serve<HOT> {
    const GROUP: usize = if HOT { HOT_GROUP } else { 1 };
    const TRACED_OPS: usize = if HOT {
        HOT_TRACED_OPS
    } else {
        COLD_CYCLES * COLD_PLANS
    };

    #[inline]
    fn check(oracle: &[Rewrites], i: u16, out: &ServeOutcome) -> bool {
        out.epoch.is_some()
            && out.report.cache_hit == HOT
            && agrees(&out.report, &oracle[usize::from(i)])
    }
}

impl<const HOT: bool> Workload for Serve<HOT> {
    const NAME: &'static str = if HOT { "serve_hot" } else { "serve_cold" };
    type Fixture = Fixture;
    type State<'f> = State<'f>;

    fn build(seed: u64) -> Fixture {
        let tp = tpcds::workload();
        let (kb, learn) = exp4_kb(&[&tp]);
        let cfg = MatchConfig::default();
        let mut rng = run_rng(seed);
        let (plans, order, warm_up);
        if HOT {
            // A skewed arrival order over a working set that fits: rank
            // ⌊64^u⌋ − 1 for uniform u, so rank 0 takes a sixth of the
            // arrivals and the last rank one in 260. Rank r is plan r of
            // the fixed pool.
            plans = adhoc_plans(&tp.db, &cfg, HOT_PLANS);
            order = (0..HOT_OPS)
                .map(|_| {
                    let u: f64 = rng.gen();
                    let rank = (HOT_PLANS as f64).powf(u) as usize;
                    (rank.clamp(1, HOT_PLANS) - 1) as u16
                })
                .collect();
            warm_up = (0..HOT_PLANS as u16).collect();
        } else {
            // A cyclic order over a working set twice the cache: the seed
            // picks the cycle, every pass walks it `COLD_CYCLES` times,
            // and warming walks it once so the first timed serve already
            // evicts.
            plans = adhoc_plans(&tp.db, &cfg, COLD_PLANS);
            warm_up = permutation(COLD_PLANS, &mut rng)
                .into_iter()
                .map(|i| i as u16)
                .collect::<Vec<_>>();
            order = warm_up.repeat(COLD_CYCLES);
        }
        Fixture {
            tp,
            kb,
            learn,
            cfg,
            plans,
            order,
            warm_up,
        }
    }

    fn warm(fx: &Fixture) -> State<'_> {
        let serving = Serving::new(&fx.tp.db, &fx.kb, &fx.cfg);
        for &i in &fx.warm_up {
            serving.tier.serve(&fx.plans[usize::from(i)]);
        }
        State {
            serving,
            oracle: Vec::new(),
            acc: Acc::default(),
        }
    }

    fn oracle<'f>(fx: &'f Fixture, st: &mut State<'f>) {
        st.oracle = fx
            .plans
            .iter()
            .map(|plan| rewrites_of(&match_plan(&fx.tp.db, &fx.kb, plan, &fx.cfg)))
            .collect();
    }

    fn acc<'a>(st: &'a mut State<'_>) -> &'a mut Acc {
        &mut st.acc
    }

    fn learn_stats(fx: &Fixture) -> LearnStats {
        fx.learn
    }

    fn op_digest(fx: &Fixture) -> u64 {
        stream_digest(fx.order.iter().map(|&i| u64::from(i)))
    }

    fn samples_per_pass(fx: &Fixture) -> usize {
        fx.order.len().div_ceil(Self::GROUP)
    }

    fn spans_per_pass(_: &Fixture) -> usize {
        // Op, serve, fingerprint, lookup; a miss adds compile, insert,
        // match, store.
        (if HOT { 4 } else { 8 }) * Self::TRACED_OPS
    }

    fn pass<'f>(fx: &'f Fixture, st: &mut State<'f>, timer: &mut PassTimer) -> PassStats {
        let State {
            serving,
            oracle,
            acc,
        } = st;
        let evictions = serving.tier.cache().counters().evictions;
        timer.begin();
        for group in fx.order.chunks(Self::GROUP) {
            let t0 = Instant::now();
            for &i in group {
                let out = Untraced.serve(serving, &fx.plans[usize::from(i)]);
                acc.counts.serve(&out.report);
                acc.tally.op(Self::check(oracle, i, &out));
            }
            timer.group(t0, group.len());
        }
        let stats = timer.end(fx.order.len());
        acc.counts.ops += fx.order.len() as u64;
        acc.counts.evictions += serving.tier.cache().counters().evictions - evictions;
        stats
    }

    fn traced_pass<'f>(fx: &'f Fixture, st: &mut State<'f>, tr: &mut Tracer) {
        let State {
            serving,
            oracle,
            acc,
        } = st;
        if serving.composed.is_empty() {
            // The composed cache starts where the tier's did: warmed the
            // same way, into a span buffer that is thrown away.
            let mut scratch = Tracer::with_capacity(8 * fx.warm_up.len());
            let mut probe = Traced {
                tr: &mut scratch,
                op_id: 0,
            };
            for &i in &fx.warm_up {
                probe.serve(serving, &fx.plans[usize::from(i)]);
            }
        }
        let evictions = serving.composed.counters().evictions;
        let mut probe = Traced { tr, op_id: 0 };
        let ops = &fx.order[..Self::TRACED_OPS];
        let mut outs = Vec::with_capacity(ops.len());
        for &i in ops {
            probe.op_id = probe.tr.next_op();
            let root = probe.enter(Stage::Op);
            let out = probe.serve(serving, &fx.plans[usize::from(i)]);
            probe.exit(root);
            outs.push(out);
        }
        // The tier replays the pass afterwards, not op by op: a second
        // cache and matcher run between two traced ops would cost the
        // traced ops their processor cache.
        for (&i, out) in ops.iter().zip(&outs) {
            let real = serving.tier.serve(&fx.plans[usize::from(i)]);
            acc.counts.serve(&out.report);
            acc.tally
                .op(Self::check(oracle, i, out) && same_outcome(out, &real));
        }
        acc.counts.ops += Self::TRACED_OPS as u64;
        acc.counts.evictions += serving.composed.counters().evictions - evictions;
    }

    fn finish<'f>(fx: &'f Fixture, _: &mut State<'f>, layers: &mut Layers) {
        layers.set("core.kb.templates", fx.kb.template_count() as f64);
    }
}
