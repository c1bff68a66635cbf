//! The online serving tier end to end: plan-fingerprint caching, epoch
//! validation with change-journal re-validation, and batched admission
//! over a live knowledge base.
//!
//! 1. learn a problem-pattern KB from a workload,
//! 2. replay a repeat-heavy arrival stream through [`ServingTier::serve`]
//!    — the first arrival of each fingerprint compiles and probes, the
//!    repeats answer from the cache,
//! 3. keep serving while a publisher thread inserts and retracts
//!    templates, checking every epoch-validated outcome against a fresh
//!    uncached `match_plan` pinned to the same epoch (a mismatch is a
//!    stale hit — the one thing the tier must never produce),
//! 4. push the stream through a bounded channel, whose consumer drains
//!    batches into [`ServingTier::serve`].
//!
//! Exits nonzero on any stale hit, on a cache that never hits, or on a
//! served report that disagrees with uncached matching.
//!
//! Run with: `cargo run --release --example serving_tier`

use std::sync::atomic::{AtomicBool, Ordering};

use galo_core::{match_plan, KnowledgeBase, MatchConfig, MatchReport, ServingTier};
use galo_optimizer::Optimizer;
use galo_qgm::Qgm;

/// A served report against a fresh match at its epoch: the rewrites
/// always, the probe counters only on a miss — a hit carries the counters
/// of the match that filled the entry, possibly at an earlier epoch the
/// publishes since could not change the outcome of.
fn reports_agree(a: &MatchReport, b: &MatchReport) -> bool {
    a.rewrites.len() == b.rewrites.len()
        && (a.cache_hit
            || a.probes_pruned == b.probes_pruned && a.probes_executed == b.probes_executed)
        && a.rewrites.iter().zip(&b.rewrites).all(|(x, y)| {
            x.segment_op_id == y.segment_op_id
                && x.template_iri == y.template_iri
                && x.guideline == y.guideline
        })
}

fn main() {
    // --- learn a KB to serve against ----------------------------------
    let workload = galo_workloads::tpcds::workload();
    let kb = KnowledgeBase::new();
    let small = galo_workloads::Workload {
        name: workload.name.clone(),
        db: workload.db.clone(),
        queries: workload.queries[..10].to_vec(),
    };
    let learned = galo_core::learn_workload(&small, &kb, &galo_bench::learning_config(true));
    println!(
        "learned {} template(s) from '{}' (KB epoch {})",
        learned.templates_learned,
        workload.name,
        kb.epoch()
    );
    if learned.templates_learned == 0 {
        eprintln!("FAIL: nothing learned, the scenario should always produce templates");
        std::process::exit(1);
    }

    // A mixed plan set: learned plans that match, wider plans that probe
    // and miss, plans whose segments prune — repeats of all three below.
    let optimizer = Optimizer::new(&workload.db);
    let plans: Vec<Qgm> = workload
        .queries
        .iter()
        .take(16)
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();
    let cfg = MatchConfig::default();
    let tier = ServingTier::new(&workload.db, &kb, cfg.clone());

    // --- a repeat-heavy stream against a quiescent KB ------------------
    let stream: Vec<usize> = (0..200)
        .map(|k| {
            if k % 4 < 3 {
                k % 2
            } else {
                (k / 4) % plans.len()
            }
        })
        .collect();
    let mut matched_arrivals = 0usize;
    for &i in &stream {
        let outcome = tier.serve(&plans[i]);
        matched_arrivals += usize::from(!outcome.report.rewrites.is_empty());
        let fresh = match_plan(&workload.db, &kb, &plans[i], &cfg);
        if !reports_agree(&outcome.report, &fresh) {
            eprintln!("FAIL: served report for plan {i} disagrees with uncached match");
            std::process::exit(1);
        }
    }
    let c = tier.cache().counters();
    let hit_rate = c.hits as f64 / (c.hits + c.misses) as f64;
    println!(
        "stream: {} arrivals, {} matched, hit-rate {hit_rate:.3} \
         ({} hits / {} misses, {} entries cached)",
        stream.len(),
        matched_arrivals,
        c.hits,
        c.misses,
        tier.cache().len()
    );
    if c.hits == 0 {
        eprintln!("FAIL: a repeat-heavy stream must hit the cache");
        std::process::exit(1);
    }

    // --- serving under churn: publishes must invalidate, never staleness
    let stop = AtomicBool::new(false);
    let stale_hits = std::thread::scope(|scope| {
        let publisher = {
            let kb = &kb;
            let workload = &workload;
            let plans = &plans;
            let stop = &stop;
            scope.spawn(move || {
                let plan = &plans[0];
                let g = galo_qgm::GuidelineDoc::new(vec![galo_qgm::guideline_from_plan(
                    plan,
                    plan.root(),
                )
                .expect("plan has a guideline shape")]);
                let mut rounds = 0u32;
                while !stop.load(Ordering::Acquire) {
                    let id = format!("zz_churn_{rounds:04}");
                    let tpl =
                        galo_core::abstract_plan(&workload.db, plan, plan.root(), &g, id.clone());
                    kb.insert(&tpl);
                    let iri = galo_core::vocab::template_iri(&id).str_value().to_string();
                    kb.remove_template(&iri);
                    rounds += 1;
                }
                rounds
            })
        };
        let mut stale = 0usize;
        let mut validated = 0usize;
        for round in 0..50 {
            for (i, plan) in plans.iter().enumerate() {
                let outcome = tier.serve(plan);
                let Some(e) = outcome.epoch else { continue };
                // Differential pinned to the served epoch: only compare
                // when the fresh run provably also ran at epoch `e`.
                if kb.epoch() != e {
                    continue;
                }
                let fresh = match_plan(&workload.db, &kb, plan, &cfg);
                if kb.epoch() != e {
                    continue;
                }
                validated += 1;
                if !reports_agree(&outcome.report, &fresh) {
                    eprintln!("FAIL: stale hit on plan {i}, round {round}, epoch {e}");
                    stale += 1;
                }
            }
        }
        stop.store(true, Ordering::Release);
        let publish_rounds = publisher.join().expect("publisher");
        let c = tier.cache().counters();
        println!(
            "churn: {publish_rounds} publish/retract rounds interleaved, \
             {validated} epoch-pinned differentials, {} stale drop(s), {} stale hit(s)",
            c.stale_drops, stale
        );
        stale
    });
    if stale_hits > 0 {
        eprintln!("FAIL: the serving tier served {stale_hits} stale result(s)");
        std::process::exit(1);
    }

    // --- bounded admission ---------------------------------------------
    // A full channel blocks the producer (back-pressure); the consumer
    // takes one blocking `recv` plus whatever else has arrived, up to 8.
    let (queue, arrivals) = std::sync::mpsc::sync_channel::<usize>(16);
    let served_batches = std::thread::scope(|scope| {
        let (tier, plans) = (&tier, &plans);
        let consumer = scope.spawn(move || {
            let mut batches = 0usize;
            while let Ok(first) = arrivals.recv() {
                for i in std::iter::once(first).chain(arrivals.try_iter().take(7)) {
                    tier.serve(&plans[i]);
                }
                batches += 1;
            }
            batches
        });
        for &i in &stream {
            queue.send(i).expect("consumer running");
        }
        drop(queue);
        consumer.join().expect("consumer")
    });
    println!(
        "admission: {} arrivals drained into {served_batches} batch(es) of ≤8",
        stream.len()
    );

    let c = tier.cache().counters();
    println!(
        "final counters: {} hits, {} misses, {} stale drops, {} insertions, {} evictions",
        c.hits, c.misses, c.stale_drops, c.insertions, c.evictions
    );
    println!("\nno stale hit served; the cache carried the repeat traffic.");
}
