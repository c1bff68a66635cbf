//! Workload-adaptive storage policy: a background compactor under a
//! generated op mix.
//!
//! The durable KB journals every mutation to a per-shard WAL. Folding
//! that WAL into a snapshot inline stalls whichever publish crosses the
//! threshold; this tour hands the same [`CompactionPolicy`] decision to
//! its threaded driver, a background compactor, under the scenario
//! generator's churn-heavy op mix:
//!
//! 1. open a 2-shard durable KB with a background compaction policy,
//! 2. generate the `churn_heavy` scenario (deterministic from its seed)
//!    and replay it: serves through a [`ServingTier`], publishes and
//!    retractions against the KB,
//! 3. read the folds and per-shard WAL pressure the stores counted,
//! 4. reopen the KB and verify the replayed image survived the folds.
//!
//! Exits nonzero if the compactor never folds, records a failure, or the
//! reopened KB disagrees with the live image.
//!
//! Run with: `cargo run --release --example storage_policy`

use std::time::Duration;

use galo_core::{KbBuilder, MatchConfig, ServingTier};
use galo_optimizer::Optimizer;
use galo_rdf::{CompactionPolicy, ScratchDir};
use galo_workloads::{tpcds, ScenarioOp, ScenarioSpec};

fn main() {
    let scratch = ScratchDir::new("storage-policy-example");
    println!("knowledge base directory: {}\n", scratch.path().display());

    // --- the scenario: off-peak learning churn -------------------------
    let spec = ScenarioSpec::churn_heavy(400, 7);
    let scenario = spec.generate();
    let (serves, publishes, retracts) = scenario.counts();
    println!(
        "scenario `{}`: {} ops — {serves} serves, {publishes} publishes, \
         {retracts} retractions",
        spec.name, spec.ops
    );

    // --- a KB whose WALs are folded by a background policy -------------
    // A publish, a retraction, a refinement: each is one WAL record, so
    // the threshold counts commits — some 100 a shard over this replay.
    let policy = CompactionPolicy {
        wal_records: 32,
        poll_interval: Duration::from_millis(2),
        ..Default::default()
    };
    let idle_fold_at = policy.wal_records / policy.idle_divisor;
    let kb = KbBuilder::new()
        .durable_dir(scratch.path())
        .shards(2)
        .compaction_policy(policy)
        .build_kb()
        .expect("open durable sharded KB");
    let stats = kb.compactor_stats().expect("policy installed");

    // --- material to replay with: plans and per-slot templates ---------
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let plans: Vec<_> = w
        .queries
        .iter()
        .filter_map(|q| optimizer.optimize(q).ok())
        .take(spec.plans)
        .collect();
    let templates: Vec<_> = (0..spec.templates)
        .map(|slot| {
            let plan = &plans[slot % plans.len()];
            let g = galo_qgm::guideline_from_plan(plan, plan.root()).expect("guideline shape");
            let doc = galo_qgm::GuidelineDoc::new(vec![g]);
            galo_core::abstract_plan(&w.db, plan, plan.root(), &doc, format!("pol{slot:03}"))
        })
        .collect();

    // --- replay --------------------------------------------------------
    let tier = ServingTier::new(&w.db, &kb, MatchConfig::default());
    let mut rewrites = 0usize;
    for op in &scenario.ops {
        match *op {
            ScenarioOp::Serve { plan } => {
                rewrites += tier.serve(&plans[plan % plans.len()]).report.rewrites.len();
            }
            ScenarioOp::Publish { template, tenant } => {
                let mut tpl = templates[template].clone();
                tpl.source_workload = format!("tenant{tenant}");
                kb.insert_batch(std::slice::from_ref(&tpl));
            }
            ScenarioOp::Retract { template } => {
                let iri = galo_core::vocab::template_iri(&templates[template].id);
                kb.remove_template(iri.str_value());
            }
        }
    }
    println!("replayed; {rewrites} rewrites offered across the serves\n");

    // Let the idle fold drain what the replay left behind.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while kb
        .storage_pressures()
        .iter()
        .any(|p| p.wal_records >= idle_fold_at)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }

    // --- what the policy did -------------------------------------------
    let pressures = kb.storage_pressures();
    let folds: u64 = pressures.iter().map(|p| p.compactions).sum();
    let failed: u64 = pressures.iter().map(|p| p.compactions_failed).sum();
    println!(
        "compactor: {folds} folds ({} idle), {failed} failed, {} sweeps",
        stats.idle_compacted(),
        stats.sweeps()
    );
    for (k, p) in pressures.iter().enumerate() {
        println!(
            "shard {k}: {} WAL records / {} bytes pending, {} folds, {} failed",
            p.wal_records, p.wal_bytes, p.compactions, p.compactions_failed
        );
    }
    assert!(folds > 0, "the background compactor never folded");
    assert_eq!(failed, 0, "folds failed: {pressures:?}");

    let live_templates = kb.template_count();
    let live_triples = kb.server().len();
    println!("\nlive image: {live_templates} templates, {live_triples} triples");
    drop(kb);

    // --- recovery ------------------------------------------------------
    let reopened = KbBuilder::new()
        .durable_dir(scratch.path())
        .shards(2)
        .build_kb()
        .expect("reopen");
    println!(
        "reopened:   {} templates, {} triples",
        reopened.template_count(),
        reopened.server().len()
    );
    assert_eq!(reopened.template_count(), live_templates);
    assert_eq!(reopened.server().len(), live_triples);
    println!("\nbackground folds preserved the image across restart ✓");
}
