//! The plans the compile and fingerprint differentials run over: every
//! TPC-DS and client workload plan, the bushy three-join plan with a SORT
//! of `galo_qgm`'s segment tests, and seeded random plans of both
//! workloads' queries. Built once per test process.

use std::sync::OnceLock;

use galo_catalog::{ColumnId, Database, IndexId};
use galo_optimizer::Optimizer;
use galo_qgm::{PopKind, Qgm};
use galo_sql::{ColRef, Query};
use galo_workloads::{client, tpcds, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One database and plans over it.
pub(crate) struct PlanSet {
    pub(crate) db: Database,
    pub(crate) plans: Vec<Qgm>,
}

/// The TPC-DS set (workload plans, random plans, and last the bushy
/// plan), then the client set (workload plans, random plans).
pub(crate) fn plan_sets() -> &'static [PlanSet] {
    static SETS: OnceLock<Vec<PlanSet>> = OnceLock::new();
    SETS.get_or_init(|| {
        let mut tpcds = plan_set(tpcds::workload(), 0x7bc5);
        let wide = tpcds.plans.iter().find(|p| p.query.tables.len() >= 4);
        let bushy = bushy_plan(wide.expect("a four-table query").query.clone());
        tpcds.plans.push(bushy);
        vec![tpcds, plan_set(client::workload(), 0xc11e)]
    })
}

/// Every query's optimizer plan, then two random plans of every third
/// query.
fn plan_set(w: Workload, seed: u64) -> PlanSet {
    let optimizer = Optimizer::new(&w.db);
    let mut plans: Vec<Qgm> = w
        .queries
        .iter()
        .filter_map(|q| optimizer.optimize(q).ok())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for q in w.queries.iter().step_by(3) {
        let generator = optimizer.random_plans(q);
        plans.extend((0..2).filter_map(|_| generator.generate(&mut rng)));
    }
    PlanSet { db: w.db, plans }
}

/// `segment.rs`' bushy plan, ((T0 ⋈ T1) ⋈ (T2 ⋈ SORT(T3))), over the
/// first four table instances of `query`: an index scan, a hash, a merge
/// and a nested-loop join, and a SORT inside a segment.
fn bushy_plan(query: Query) -> Qgm {
    assert!(query.tables.len() >= 4, "four table instances");
    let mut b = Qgm::builder(query);
    let s0 = b.add(PopKind::TbScan { table: 0 }, vec![], 100.0, 1.0);
    let s1 = b.add(
        PopKind::IxScan {
            table: 1,
            index: IndexId(0),
            fetch: false,
        },
        vec![],
        10.0,
        1.0,
    );
    let j0 = b.add(PopKind::HsJoin { bloom: false }, vec![s0, s1], 100.0, 5.0);
    let s2 = b.add(PopKind::TbScan { table: 2 }, vec![], 200.0, 1.0);
    let s3 = b.add(PopKind::TbScan { table: 3 }, vec![], 20.0, 1.0);
    let key = ColRef {
        table_idx: 3,
        column: ColumnId(0),
    };
    let sort = b.add(PopKind::Sort { key: Some(key) }, vec![s3], 20.0, 2.0);
    b.set_order(sort, Some(key));
    let j1 = b.add(PopKind::MsJoin, vec![s2, sort], 200.0, 9.0);
    let top = b.add(PopKind::NlJoin, vec![j0, j1], 400.0, 20.0);
    b.finish(top)
}
