//! `trip_sql` — the query trip. One op is one SQL text through
//! `galo_sql::parse` → `Optimizer::optimize` → `ServingTier::serve` →
//! (if matched) `MatchReport::guideline_doc` →
//! `Optimizer::optimize_with_guidelines` → `Simulator::run`. A pass is
//! the 99 TPC-DS and 116 client queries in a seeded order, each workload
//! on a fresh serving tier, so every pass has the same misses and the
//! same fingerprint-duplicate hits. The knowledge base is learned from
//! both workloads and inflated to 1,000 templates.
//!
//! The only workload in which `sql`, `optimizer` and `executor` do the
//! work and `core.*` almost none: it says what a GALO-layer speed-up is
//! worth to a user, and it is where an optimizer change shows.

use std::time::Instant;

use galo_catalog::Database;
use galo_core::{reoptimize_query, KnowledgeBase, MatchConfig, ServeOutcome};
use galo_executor::Simulator;
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;
use galo_workloads::{client, tpcds, Workload as SqlWorkload};

use crate::composed::{
    agrees, rewrites_of, same_outcome, Probe, Rewrites, Serving, Traced, Untraced,
};
use crate::fixture::{exp4_kb, permutation, run_rng, stream_digest, LearnStats};
use crate::harness::{Acc, Workload};
use crate::metrics::Layers;
use crate::stats::{PassStats, PassTimer};
use crate::trace::{Stage, Tracer};

pub struct TripSql;

/// One of the two SQL workloads with its queries rendered to text.
struct Side {
    workload: SqlWorkload,
    sql: Vec<String>,
}

pub struct Fixture {
    sides: [Side; 2],
    kb: KnowledgeBase,
    learn: LearnStats,
    cfg: MatchConfig,
    /// One pass: `(side, query)` in arrival order.
    order: Vec<(u8, u16)>,
}

/// What `reoptimize_query` — no cache, no SQL round trip — says a query
/// must come out as.
struct Expected {
    rewrites: Rewrites,
    original_ms: f64,
    final_ms: f64,
}

/// What borrows one side's database for the whole run.
struct Engine<'f> {
    db: &'f Database,
    optimizer: Optimizer<'f>,
    simulator: Simulator<'f>,
}

pub struct State<'f> {
    engines: [Engine<'f>; 2],
    oracle: [Vec<Expected>; 2],
    acc: Acc,
}

/// One trip, if it got to the end: the optimizer's plan, the serve's
/// outcome and the simulated runtime of the plan the user ends up with.
type Trip = Option<(Qgm, ServeOutcome, f64)>;

fn trip<P: Probe>(
    probe: &mut P,
    engine: &Engine<'_>,
    serving: &Serving<'_>,
    name: &str,
    sql: &str,
) -> Trip {
    let query = probe
        .span(Stage::SqlParse, || galo_sql::parse(engine.db, name, sql))
        .ok()?;
    let plan = probe
        .span(Stage::Optimize, || engine.optimizer.optimize(&query))
        .ok()?;
    let out = probe.serve(serving, &plan);
    let final_ms = if out.report.rewrites.is_empty() {
        probe.span(Stage::Simulate, || {
            engine.simulator.run(&plan, true).elapsed_ms
        })
    } else {
        let doc = probe.span(Stage::Guideline, || out.report.guideline_doc());
        let reopt = probe
            .span(Stage::Reoptimize, || {
                engine.optimizer.optimize_with_guidelines(&query, &doc)
            })
            .ok()?;
        probe.span(Stage::Simulate, || {
            engine.simulator.run(&reopt.qgm, true).elapsed_ms
        })
    };
    Some((plan, out, final_ms))
}

fn check(trip: &Trip, expected: &Expected) -> bool {
    trip.as_ref().is_some_and(|(_, out, final_ms)| {
        out.epoch.is_some()
            && agrees(&out.report, &expected.rewrites)
            && *final_ms == expected.final_ms
    })
}

impl Workload for TripSql {
    const NAME: &'static str = "trip_sql";
    type Fixture = Fixture;
    type State<'f> = State<'f>;

    fn build(seed: u64) -> Fixture {
        let (tp, cl) = (tpcds::workload(), client::workload());
        let (kb, learn) = exp4_kb(&[&tp, &cl]);
        let sides = [tp, cl].map(|workload| Side {
            sql: workload
                .queries
                .iter()
                .map(|q| q.to_sql(&workload.db))
                .collect(),
            workload,
        });
        let all: Vec<(u8, u16)> = sides
            .iter()
            .enumerate()
            .flat_map(|(s, side)| (0..side.sql.len()).map(move |q| (s as u8, q as u16)))
            .collect();
        let order = permutation(all.len(), &mut run_rng(seed))
            .into_iter()
            .map(|i| all[i])
            .collect();
        Fixture {
            sides,
            kb,
            learn,
            cfg: MatchConfig::default(),
            order,
        }
    }

    fn warm(fx: &Fixture) -> State<'_> {
        // Nothing to warm: every pass starts its tiers cold.
        State {
            engines: [0, 1].map(|s| {
                let db = &fx.sides[s].workload.db;
                Engine {
                    db,
                    optimizer: Optimizer::new(db),
                    simulator: Simulator::new(db),
                }
            }),
            oracle: [Vec::new(), Vec::new()],
            acc: Acc::default(),
        }
    }

    fn oracle<'f>(fx: &'f Fixture, st: &mut State<'f>) {
        for (side, oracle) in fx.sides.iter().zip(&mut st.oracle) {
            *oracle = side
                .workload
                .queries
                .iter()
                .map(|q| {
                    let o = reoptimize_query(&side.workload.db, &fx.kb, q, &fx.cfg)
                        .expect("workload queries optimize");
                    Expected {
                        rewrites: rewrites_of(&o.matched),
                        original_ms: o.original_ms,
                        final_ms: o.final_ms,
                    }
                })
                .collect();
        }
    }

    fn acc<'a>(st: &'a mut State<'_>) -> &'a mut Acc {
        &mut st.acc
    }

    fn learn_stats(fx: &Fixture) -> LearnStats {
        fx.learn
    }

    fn op_digest(fx: &Fixture) -> u64 {
        stream_digest(
            fx.order
                .iter()
                .map(|&(s, q)| u64::from(s) << 16 | u64::from(q)),
        )
    }

    fn samples_per_pass(fx: &Fixture) -> usize {
        fx.order.len()
    }

    fn spans_per_pass(fx: &Fixture) -> usize {
        // Op, parse, optimize, guideline, reoptimize, simulate, and the
        // serve's eight.
        14 * fx.order.len()
    }

    fn pass<'f>(fx: &'f Fixture, st: &mut State<'f>, timer: &mut PassTimer) -> PassStats {
        let servings = [0, 1].map(|s| Serving::new(st.engines[s].db, &fx.kb, &fx.cfg));
        timer.begin();
        for &(s, q) in &fx.order {
            let (s, q) = (usize::from(s), usize::from(q));
            let side = &fx.sides[s];
            let t0 = Instant::now();
            let done = trip(
                &mut Untraced,
                &st.engines[s],
                &servings[s],
                &side.workload.queries[q].name,
                &side.sql[q],
            );
            timer.op(t0);
            if let Some((_, out, _)) = &done {
                st.acc.counts.serve(&out.report);
            }
            st.acc.tally.op(check(&done, &st.oracle[s][q]));
        }
        let stats = timer.end(fx.order.len());
        st.acc.counts.ops += fx.order.len() as u64;
        stats
    }

    fn traced_pass<'f>(fx: &'f Fixture, st: &mut State<'f>, tr: &mut Tracer) {
        let servings = [0, 1].map(|s| Serving::new(st.engines[s].db, &fx.kb, &fx.cfg));
        let mut probe = Traced { tr, op_id: 0 };
        for &(s, q) in &fx.order {
            let (s, q) = (usize::from(s), usize::from(q));
            let side = &fx.sides[s];
            let name = &side.workload.queries[q].name;
            probe.op_id = probe.tr.next_op();
            let root = probe.enter(Stage::Op);
            let done = trip(&mut probe, &st.engines[s], &servings[s], name, &side.sql[q]);
            probe.exit(root);
            // The tier sees the same plan right after the composed serve
            // did, so both caches hold the same entries throughout.
            let same = done.as_ref().is_some_and(|(plan, out, _)| {
                st.acc.counts.serve(&out.report);
                same_outcome(out, &servings[s].tier.serve(plan))
            });
            st.acc.tally.op(same && check(&done, &st.oracle[s][q]));
        }
        st.acc.counts.ops += fx.order.len() as u64;
    }

    fn finish<'f>(fx: &'f Fixture, st: &mut State<'f>, layers: &mut Layers) {
        // Simulated runtimes span forty orders of magnitude (a 31-join
        // plan "runs" for 1e45 ms), so a ratio of sums is one query's
        // ratio. The geometric mean over the rewritten queries weighs
        // every query of the paper's Figure 10 alike.
        let rewritten = || {
            let all = st.oracle.iter().flatten();
            all.filter(|e| !e.rewrites.is_empty())
        };
        let log_ratio: f64 = rewritten().map(|e| (e.final_ms / e.original_ms).ln()).sum();
        layers.set(
            "executor.reopt_runtime_ratio",
            (log_ratio / rewritten().count() as f64).exp(),
        );
        layers.set(
            "executor.regressed_queries",
            rewritten().filter(|e| e.final_ms > e.original_ms).count() as f64,
        );
        layers.set("core.kb.templates", fx.kb.template_count() as f64);
    }
}
