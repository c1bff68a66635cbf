//! Crate-level optimizer tests over a small star schema.

use std::collections::HashMap;
use std::rc::Rc;

use galo_catalog::{
    col, ColumnId, ColumnStats, ColumnType, Database, DatabaseBuilder, Index, SystemConfig, Table,
};
use galo_qgm::{GuidelineDoc, GuidelineNode, PopKind};
use galo_sql::{parse, ColRef, Query};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::planner::{prune, Cand, Frontier, JoinAlt, JoinMethod, PhysPlan, Planner, Unit, Work};
use crate::{OptimizeError, Optimizer, PlannerConfig};

/// Star schema: SALES fact (2.88M) with DATE_DIM, ITEM, STORE dimensions.
fn star_db() -> Database {
    let mut b = DatabaseBuilder::new("star", SystemConfig::default_1gb());
    let mut sales = Table::new(
        "SALES",
        vec![
            col("S_DATE_SK", ColumnType::Integer),
            col("S_ITEM_SK", ColumnType::Integer),
            col("S_STORE_SK", ColumnType::Integer),
            col("S_PRICE", ColumnType::Decimal),
        ],
    );
    sales.add_index(Index {
        name: "S_DATE_IX".into(),
        column: ColumnId(0),
        unique: false,
        cluster_ratio: 0.9,
    });
    sales.add_index(Index {
        name: "S_ITEM_IX".into(),
        column: ColumnId(1),
        unique: false,
        cluster_ratio: 0.1,
    });
    b.add_table(
        sales,
        2_880_400,
        vec![
            ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
            ColumnStats::uniform(18_000, 0.0, 18_000.0, 4),
            ColumnStats::uniform(12, 0.0, 12.0, 4),
            ColumnStats::uniform(100_000, 0.0, 1_000.0, 8),
        ],
    );
    let mut dates = Table::new(
        "DATE_DIM",
        vec![
            col("D_DATE_SK", ColumnType::Integer),
            col("D_YEAR", ColumnType::Integer),
        ],
    );
    dates.add_index(Index {
        name: "D_DATE_SK_IX".into(),
        column: ColumnId(0),
        unique: true,
        cluster_ratio: 0.99,
    });
    b.add_table(
        dates,
        73_049,
        vec![
            ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
            ColumnStats::uniform(200, 1900.0, 2100.0, 4),
        ],
    );
    let mut item = Table::new(
        "ITEM",
        vec![
            col("I_ITEM_SK", ColumnType::Integer),
            col("I_CATEGORY", ColumnType::Varchar(50)),
        ],
    );
    item.add_index(Index {
        name: "I_ITEM_SK_IX".into(),
        column: ColumnId(0),
        unique: true,
        cluster_ratio: 0.99,
    });
    b.add_table(
        item,
        18_000,
        vec![
            ColumnStats::uniform(18_000, 0.0, 18_000.0, 4),
            ColumnStats::uniform(10, 0.0, 1e6, 25),
        ],
    );
    b.add_table(
        Table::new("STORE", vec![col("ST_STORE_SK", ColumnType::Integer)]),
        12,
        vec![ColumnStats::uniform(12, 0.0, 12.0, 4)],
    );
    b.build()
}

fn star_query(db: &Database) -> galo_sql::Query {
    parse(
        db,
        "star3",
        "SELECT s_price FROM sales, date_dim, item \
         WHERE s_date_sk = d_date_sk AND s_item_sk = i_item_sk \
         AND d_year = 2000 AND i_category = 'Jewelry'",
    )
    .unwrap()
}

#[test]
fn plan_covers_every_table_exactly_once() {
    let db = star_db();
    let q = star_query(&db);
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    let mut tables = plan.tables_under(plan.root());
    tables.sort_unstable();
    assert_eq!(tables, vec![0, 1, 2]);
    assert_eq!(plan.join_count(plan.root()), 2);
}

#[test]
fn estimated_cardinality_propagates_to_return() {
    let db = star_db();
    let q = star_query(&db);
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    let root = plan.pop(plan.root());
    assert!(matches!(root.kind, PopKind::Return));
    // d_year=2000 keeps 1/200, i_category keeps ~1/10 of sales.
    let expect = 2_880_400.0 / 200.0 / 10.0;
    assert!(
        (root.est_card / expect - 1.0).abs() < 0.5,
        "est {} vs expected {expect}",
        root.est_card
    );
}

#[test]
fn empty_query_is_rejected() {
    let db = star_db();
    let q = galo_sql::Query {
        name: "empty".into(),
        tables: vec![],
        joins: vec![],
        locals: vec![],
        projections: vec![],
    };
    assert_eq!(
        Optimizer::new(&db).optimize(&q).unwrap_err(),
        OptimizeError::EmptyQuery
    );
}

#[test]
fn disconnected_query_is_rejected() {
    let db = star_db();
    let q = parse(&db, "cross", "SELECT s_price FROM sales, store").unwrap();
    assert_eq!(
        Optimizer::new(&db).optimize(&q).unwrap_err(),
        OptimizeError::DisconnectedJoinGraph
    );
}

#[test]
fn single_table_selective_predicate_uses_index() {
    let db = star_db();
    let q = parse(
        &db,
        "point",
        "SELECT s_price FROM sales WHERE s_date_sk = 12345",
    )
    .unwrap();
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    let fp = plan.plan_fingerprint();
    assert!(fp.contains("IXSCAN"), "expected index access, got {fp}");
}

#[test]
fn single_table_no_predicate_uses_table_scan() {
    let db = star_db();
    let q = parse(&db, "all", "SELECT s_price FROM sales").unwrap();
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    assert!(plan.plan_fingerprint().contains("TBSCAN"));
}

#[test]
fn guideline_forces_join_method_and_order() {
    let db = star_db();
    let q = star_query(&db);
    let opt = Optimizer::new(&db);
    let baseline = opt.optimize(&q).unwrap();

    // Force: HSJOIN(HSJOIN(TBSCAN(Q3=item), TBSCAN(Q1=sales)), TBSCAN(Q2=date_dim)).
    let doc = GuidelineDoc::new(vec![GuidelineNode::HsJoin(
        Box::new(GuidelineNode::HsJoin(
            Box::new(GuidelineNode::TbScan { tabid: "Q3".into() }),
            Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
        )),
        Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
    )]);
    let reopt = opt.optimize_with_guidelines(&q, &doc).unwrap();
    assert_eq!(reopt.outcome.honored, vec![true]);
    let fp = reopt.qgm.plan_fingerprint();
    // The guided shape: item(2) outer of sales(0), then date_dim(1) inner.
    assert!(
        fp.contains("HSJOIN(HSJOIN(TBSCAN[2],TBSCAN[0]),TBSCAN[1])"),
        "guideline not honored: {fp}"
    );
    assert_ne!(baseline.plan_fingerprint(), fp);
}

#[test]
fn msjoin_guideline_inserts_sorts() {
    let db = star_db();
    let q = parse(
        &db,
        "two",
        "SELECT s_price FROM sales, item WHERE s_item_sk = i_item_sk",
    )
    .unwrap();
    let doc = GuidelineDoc::new(vec![GuidelineNode::MsJoin(
        Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
        Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
    )]);
    let reopt = Optimizer::new(&db)
        .optimize_with_guidelines(&q, &doc)
        .unwrap();
    assert_eq!(reopt.outcome.honored, vec![true]);
    let sorts = reopt
        .qgm
        .pops()
        .filter(|(_, p)| matches!(p.kind, PopKind::Sort { .. }))
        .count();
    assert_eq!(sorts, 2, "table scans are unsorted; MSJOIN needs two sorts");
}

#[test]
fn infeasible_guideline_is_dropped() {
    let db = star_db();
    let q = star_query(&db);
    let doc = GuidelineDoc::new(vec![GuidelineNode::IxScan {
        tabid: "Q99".into(),
        index: None,
    }]);
    let reopt = Optimizer::new(&db)
        .optimize_with_guidelines(&q, &doc)
        .unwrap();
    assert_eq!(reopt.outcome.honored, vec![false]);
    assert!(reopt.outcome.notes[0].contains("Q99"));
    // Planning proceeds cost-based.
    assert_eq!(reopt.qgm.join_count(reopt.qgm.root()), 2);
}

#[test]
fn overlapping_guidelines_honor_first_only() {
    let db = star_db();
    let q = star_query(&db);
    let g1 = GuidelineNode::HsJoin(
        Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
        Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
    );
    let g2 = GuidelineNode::MsJoin(
        Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
        Box::new(GuidelineNode::TbScan { tabid: "Q3".into() }),
    );
    let doc = GuidelineDoc::new(vec![g1, g2]);
    let reopt = Optimizer::new(&db)
        .optimize_with_guidelines(&q, &doc)
        .unwrap();
    assert_eq!(reopt.outcome.honored, vec![true, false]);
    assert!(reopt.outcome.notes[0].contains("overlap"));
}

#[test]
fn named_index_guideline_resolves_by_name() {
    let db = star_db();
    let q = parse(
        &db,
        "two",
        "SELECT s_price FROM sales, date_dim WHERE s_date_sk = d_date_sk AND d_year = 2000",
    )
    .unwrap();
    let doc = GuidelineDoc::new(vec![GuidelineNode::NlJoin(
        Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
        Box::new(GuidelineNode::IxScan {
            tabid: "Q1".into(),
            index: Some("S_DATE_IX".into()),
        }),
    )]);
    let reopt = Optimizer::new(&db)
        .optimize_with_guidelines(&q, &doc)
        .unwrap();
    assert_eq!(reopt.outcome.honored, vec![true]);
    assert!(reopt.qgm.plan_fingerprint().contains("NLJOIN"));
}

#[test]
fn random_plans_are_valid_and_distinct() {
    let db = star_db();
    let q = star_query(&db);
    let opt = Optimizer::new(&db);
    let gen = opt.random_plans(&q);
    let mut rng = StdRng::seed_from_u64(42);
    let plans = gen.generate_distinct(8, &mut rng);
    assert!(plans.len() >= 3, "expected several distinct plans");
    let mut fps = std::collections::BTreeSet::new();
    for p in &plans {
        let mut tables = p.tables_under(p.root());
        tables.sort_unstable();
        assert_eq!(tables, vec![0, 1, 2], "plan must cover all tables once");
        assert_eq!(p.join_count(p.root()), 2);
        assert!(fps.insert(p.plan_fingerprint()), "duplicate plan emitted");
    }
}

#[test]
fn random_generation_is_seed_deterministic() {
    let db = star_db();
    let q = star_query(&db);
    let opt = Optimizer::new(&db);
    let gen = opt.random_plans(&q);
    let a: Vec<String> = gen
        .generate_distinct(5, &mut StdRng::seed_from_u64(7))
        .iter()
        .map(|p| p.plan_fingerprint())
        .collect();
    let b: Vec<String> = gen
        .generate_distinct(5, &mut StdRng::seed_from_u64(7))
        .iter()
        .map(|p| p.plan_fingerprint())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn dp_cost_not_worse_than_random_plans() {
    let db = star_db();
    let q = star_query(&db);
    let opt = Optimizer::new(&db);
    let best = opt.optimize(&q).unwrap();
    let gen = opt.random_plans(&q);
    let mut rng = StdRng::seed_from_u64(3);
    for p in gen.generate_distinct(10, &mut rng) {
        assert!(
            best.est_cost() <= p.est_cost() * 1.0001,
            "DP cost {} beaten by random plan cost {}",
            best.est_cost(),
            p.est_cost()
        );
    }
}

/// An `n`-way chain `t0.b = t1.a AND t1.b = t2.a …` over `n` tables.
fn chain(n: usize) -> (Database, String) {
    let mut b = DatabaseBuilder::new("chain", SystemConfig::default_1gb());
    for i in 0..n {
        b.add_table(
            Table::new(
                format!("T{i}"),
                vec![
                    col(&format!("T{i}_A"), ColumnType::Integer),
                    col(&format!("T{i}_B"), ColumnType::Integer),
                ],
            ),
            10_000 + i as u64 * 1000,
            vec![
                ColumnStats::uniform(5_000, 0.0, 5_000.0, 4),
                ColumnStats::uniform(5_000, 0.0, 5_000.0, 4),
            ],
        );
    }
    let tables: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
    let preds: Vec<String> = (1..n).map(|i| format!("t{}_b = t{i}_a", i - 1)).collect();
    let sql = format!(
        "SELECT t0_a FROM {} WHERE {}",
        tables.join(", "),
        preds.join(" AND ")
    );
    (b.build(), sql)
}

#[test]
fn greedy_handles_wide_chain_queries() {
    // A 16-way chain query exceeds the DP unit limit and exercises greedy.
    let (db, sql) = chain(16);
    let q = parse(&db, "chain16", &sql).unwrap();
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    let mut tables = plan.tables_under(plan.root());
    tables.sort_unstable();
    assert_eq!(tables, (0..16).collect::<Vec<_>>());
    assert_eq!(plan.join_count(plan.root()), 15);
}

#[test]
fn dp_unit_limit_beyond_the_cap_plans_through_greedy() {
    // Uncapped, 20 units would be a 2^20-entry table (and `dp_unit_limit: 64`
    // on a 64-table query a shift overflow); capped, this is the greedy plan.
    let (db, sql) = chain(20);
    let q = parse(&db, "chain20", &sql).unwrap();
    let with_limit = |dp_unit_limit| {
        let config = PlannerConfig {
            dp_unit_limit,
            enable_bloom: true,
        };
        let plan = Optimizer::with_config(&db, config).optimize(&q).unwrap();
        format!("{plan:?}")
    };
    assert_eq!(with_limit(64), with_limit(1));
}

#[test]
fn dp_and_greedy_agree_on_coverage() {
    let db = star_db();
    let q = star_query(&db);
    let dp_plan = Optimizer::new(&db).optimize(&q).unwrap();
    let greedy_opt = Optimizer::with_config(
        &db,
        PlannerConfig {
            dp_unit_limit: 1,
            enable_bloom: true,
        },
    );
    let greedy_plan = greedy_opt.optimize(&q).unwrap();
    assert_eq!(
        {
            let mut t = dp_plan.tables_under(dp_plan.root());
            t.sort_unstable();
            t
        },
        {
            let mut t = greedy_plan.tables_under(greedy_plan.root());
            t.sort_unstable();
            t
        }
    );
    // Greedy cannot beat DP.
    assert!(greedy_plan.est_cost() >= dp_plan.est_cost() * 0.9999);
}

// ---- the enumerator against its reference ----

/// `n` four-column tables with random sizes and distinct counts; with
/// `indexes`, a random subset of columns is indexed.
fn random_db(rng: &mut StdRng, n: usize, indexes: bool) -> Database {
    let mut b = DatabaseBuilder::new("random", SystemConfig::default_1gb());
    for i in 0..n {
        let cols = ["A", "B", "C", "D"];
        let mut table = Table::new(
            format!("T{i}"),
            cols.iter()
                .map(|c| col(&format!("T{i}_{c}"), ColumnType::Integer))
                .collect(),
        );
        let rows = 10u64.pow(rng.gen_range(2..7)) * rng.gen_range(1..10u64);
        for (c, name) in cols.iter().enumerate() {
            if indexes && rng.gen_bool(0.4) {
                table.add_index(Index {
                    name: format!("T{i}_{name}_IX"),
                    column: ColumnId(c as u32),
                    unique: false,
                    cluster_ratio: rng.gen_range(0.0..1.0),
                });
            }
        }
        let stats = (0..cols.len())
            .map(|_| {
                let distinct = rng.gen_range(1..=rows);
                ColumnStats::uniform(distinct, 0.0, distinct as f64, 4)
            })
            .collect();
        b.add_table(table, rows, stats);
    }
    b.build()
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `q1` joins every other instance, cycling through its four columns,
    /// so some dimensions land in one equivalence class.
    Star,
    Chain,
    /// Every instance joins on column A: one class, every subset connected.
    Clique,
    /// A chain over `n` instances of the same table.
    SelfJoin,
}

fn random_query(rng: &mut StdRng, db: &Database, n: usize, shape: Shape, locals: bool) -> Query {
    let table_of = |i: usize| match shape {
        Shape::SelfJoin => 0,
        _ => i,
    };
    let column = |i: usize, c: &str| format!("q{}.t{}_{c}", i + 1, table_of(i));
    let mut preds: Vec<String> = (1..n)
        .map(|i| match shape {
            Shape::Star => {
                let fact_col = ["a", "b", "c", "d"][i % 4];
                format!("{} = {}", column(0, fact_col), column(i, "a"))
            }
            Shape::Chain | Shape::SelfJoin => {
                format!("{} = {}", column(i - 1, "b"), column(i, "a"))
            }
            Shape::Clique => format!("{} = {}", column(i - 1, "a"), column(i, "a")),
        })
        .collect();
    for i in 0..n {
        if locals && rng.gen_bool(0.5) {
            let v = rng.gen_range(0..1000);
            preds.push(match rng.gen_range(0..3) {
                0 => format!("{} = {v}", column(i, "c")),
                1 => format!("{} < {v}", column(i, "d")),
                _ => format!("{} = {v}", column(i, "a")),
            });
        }
    }
    let from: Vec<String> = (0..n)
        .map(|i| format!("t{} q{}", table_of(i), i + 1))
        .collect();
    let sql = format!(
        "SELECT {} FROM {} WHERE {}",
        column(0, "a"),
        from.join(", "),
        preds.join(" AND ")
    );
    parse(db, "random", &sql).unwrap()
}

/// Which orders a reference keeps on a join set's frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Orders {
    /// Every distinct order (`prune` as it is): the winner oracle.
    Every,
    /// Only live ones, by the rule stated here independently of the
    /// planner: the per-set frontier oracle.
    Live,
}

/// Whether order `c` on table set `set` is live: `c` is the first member
/// in `set` of its equivalence class, and that class reaches outside `set`.
fn is_live(p: &Planner, set: u64, c: ColRef) -> bool {
    p.est.classes().iter().any(|class| {
        let first = class.members.iter().find(|(t, _)| set & (1 << t) != 0);
        first == Some(&(c.table_idx, c.column))
            && !class.members.iter().all(|(t, _)| set & (1 << t) != 0)
    })
}

/// Built join candidates pruned the way `orders` says.
fn reference_prune(p: &Planner, mut cands: Vec<Cand>, orders: Orders) -> Vec<Cand> {
    if orders == Orders::Live {
        for c in &mut cands {
            c.order = c.order.filter(|&o| is_live(p, c.set, o));
        }
    }
    prune(cands)
}

/// The DP as it stood before join alternatives were costed unbuilt: every
/// alternative of every split built, then pruned per mask.
fn reference_dp(p: &Planner, units: Vec<Unit>, orders: Orders) -> HashMap<usize, Unit> {
    let full = (1usize << units.len()) - 1;
    let mut table: HashMap<usize, Unit> = HashMap::new();
    for (i, unit) in units.into_iter().enumerate() {
        table.insert(1 << i, unit);
    }
    let mut masks: Vec<usize> = (1..=full).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        if mask.count_ones() < 2 {
            continue;
        }
        let mut cands: Vec<Cand> = Vec::new();
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            let other = mask & !sub;
            if sub < other {
                if let (Some(a), Some(b)) = (table.get(&sub), table.get(&other)) {
                    cands.extend(p.join_candidates(a, b));
                    cands.extend(p.join_candidates(b, a));
                }
            }
            sub = (sub - 1) & mask;
        }
        if !cands.is_empty() {
            table.insert(mask, p.unit(reference_prune(p, cands, orders)));
        }
    }
    table
}

/// Greedy as it stood: every ordered pair re-joined, built and pruned in
/// every round.
fn reference_greedy(p: &Planner, mut units: Vec<Unit>, orders: Orders) -> Option<Unit> {
    while units.len() > 1 {
        let mut best: Option<(usize, usize, Vec<Cand>, f64)> = None;
        for i in 0..units.len() {
            for j in 0..units.len() {
                if i == j {
                    continue;
                }
                let cands = reference_prune(p, p.join_candidates(&units[i], &units[j]), orders);
                if cands.is_empty() {
                    continue;
                }
                let c = cands.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
                if best.as_ref().is_none_or(|(_, _, _, bc)| c < *bc) {
                    best = Some((i, j, cands, c));
                }
            }
        }
        let (i, j, cands, _) = best?;
        units.remove(i.max(j));
        units.remove(i.min(j));
        units.push(p.unit(cands));
    }
    units.pop()
}

/// Frontiers are equal when they hold the same plans in the same order:
/// the debug text carries every node, cost (floats print round-trip
/// exact), cardinality and order key.
fn assert_same_frontier(got: Option<&Unit>, want: Option<&Unit>, what: &str) {
    let text = |u: Option<&Unit>| u.map(|u| format!("{:?}", u.cands));
    assert_eq!(text(got), text(want), "{what}");
}

/// The plan `plan_units` would pick of a frontier: the first cheapest.
fn winner(unit: &Unit) -> &Cand {
    unit.cands
        .iter()
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap())
        .unwrap()
}

/// Winners are equal when cost bits and plan debug text are.
fn assert_same_winner(got: &Cand, want: &Cand, what: &str) {
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}");
    assert_eq!(
        format!("{:?}", got.plan),
        format!("{:?}", want.plan),
        "{what}"
    );
}

/// The random cases: 48 queries over the four shapes, each planned with
/// bloom on and off, from table units and from units with a one-join
/// guideline. `check` gets a label, the planner and a maker of fresh units.
fn for_each_random_case(mut check: impl FnMut(&str, &Planner, &dyn Fn() -> Vec<Unit>)) {
    let mut rng = StdRng::seed_from_u64(0x6a10);
    let shapes = [Shape::Star, Shape::Chain, Shape::Clique, Shape::SelfJoin];
    for case in 0..48 {
        let shape = shapes[case % shapes.len()];
        // Every subset of a clique is connected: keep the reference's
        // build-everything cost in hand.
        let n = match shape {
            Shape::Clique => rng.gen_range(2..=6),
            _ => rng.gen_range(2..=10),
        };
        let (indexes, locals) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        let db = random_db(&mut rng, n, indexes);
        let q = random_query(&mut rng, &db, n, shape, locals);
        // A one-join guideline unit beside the table units.
        let j = q.joins[0];
        let scan = |c: ColRef| {
            Box::new(GuidelineNode::TbScan {
                tabid: q.tables[c.table_idx].qualifier.clone(),
            })
        };
        let doc = GuidelineDoc::new(vec![GuidelineNode::HsJoin(scan(j.left), scan(j.right))]);

        for enable_bloom in [true, false] {
            let config = PlannerConfig {
                dp_unit_limit: 10,
                enable_bloom,
            };
            let p = Planner::new(&db, &q, &config);
            for guided in [false, true] {
                let what =
                    format!("case {case}: {shape:?} n={n} bloom={enable_bloom} guided={guided}");
                let units = || {
                    if guided {
                        let (units, outcome) = p.guideline_units(&doc);
                        assert_eq!(outcome.honored, vec![true], "{what}");
                        units
                    } else {
                        p.table_units()
                    }
                };
                check(&what, &p, &units);
            }
        }
    }
}

/// Every mask's frontier equals the live-order reference's, and the
/// winners of `dp`, `greedy` and `plan_units` are bit-identical to those
/// of the reference that keeps every order.
#[test]
fn enumerator_matches_the_reference_on_random_queries() {
    for_each_random_case(|what, p, units| {
        let got = p.dp(units());
        let live = reference_dp(p, units(), Orders::Live);
        for (mask, got) in got.iter().enumerate() {
            assert_same_frontier(got.as_ref(), live.get(&mask), what);
        }
        let greedy = p.greedy(units()).unwrap();
        assert_same_frontier(
            Some(&greedy),
            reference_greedy(p, units(), Orders::Live).as_ref(),
            what,
        );

        // Dropping dead orders changes no winner.
        let full = got.len() - 1;
        let oracle = reference_dp(p, units(), Orders::Every);
        let want = winner(&oracle[&full]);
        assert_same_winner(winner(got[full].as_ref().unwrap()), want, what);
        assert_same_winner(&p.plan_units(units()).unwrap(), want, what);
        let greedy_oracle = reference_greedy(p, units(), Orders::Every).unwrap();
        assert_same_winner(winner(&greedy), winner(&greedy_oracle), what);
    });
}

// ---- bound before cost ----

/// Over every DP split of the random cases, in both orientations: no
/// alternative costs less than its pair's bound, compared as plain `f64`;
/// none of NL with outer plan `oc` less than `oc.cost + min_nl`; none of MS
/// less than `ms_bound`. Each bound is also attained, bit for bit: the
/// cheapest alternative of each kind costs exactly it.
#[test]
fn no_alternative_costs_less_than_its_pair_bound() {
    let mut pairs = 0;
    for_each_random_case(|what, p, units| {
        let table = p.dp(units());
        let mut nl = Vec::new();
        for (mask, set) in table.iter().enumerate() {
            let Some(set) = set else { continue };
            let card = p.est.join_card(set.set);
            for sub in 1..mask {
                let other = mask & !sub;
                if sub & mask != sub || sub > other {
                    continue;
                }
                let (Some(a), Some(b)) = (&table[sub], &table[other]) else {
                    continue;
                };
                for (outer, inner) in [(a, b), (b, a)] {
                    let keys = p.est.join_keys_between(outer.set, inner.set);
                    if keys.is_empty() {
                        continue;
                    }
                    pairs += 1;
                    let pair = p.cost_pair(outer, inner, card, &keys, &mut nl);
                    let (mut cheapest, mut nl_cheapest, mut ms_cheapest) =
                        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
                    let mut nl_bound = f64::INFINITY;
                    for oc in &outer.cands {
                        nl_bound = nl_bound.min(oc.cost + pair.min_nl);
                    }
                    pair.for_each_join(outer, inner, |alt| {
                        assert!(alt.cost >= pair.bound, "{what}: {alt:?} < {}", pair.bound);
                        cheapest = cheapest.min(alt.cost);
                        match alt.method {
                            JoinMethod::Nl => {
                                let bound = alt.outer.cost + pair.min_nl;
                                assert!(alt.cost >= bound, "{what}: {alt:?} < NL {bound}");
                                nl_cheapest = nl_cheapest.min(alt.cost);
                            }
                            JoinMethod::Ms => {
                                let bound = pair.ms_bound;
                                assert!(alt.cost >= bound, "{what}: {alt:?} < MS {bound}");
                                ms_cheapest = ms_cheapest.min(alt.cost);
                            }
                            JoinMethod::Hs { .. } => {}
                        }
                    });
                    assert_eq!(cheapest.to_bits(), pair.bound.to_bits(), "{what}");
                    assert_eq!(nl_cheapest.to_bits(), nl_bound.to_bits(), "{what}");
                    assert_eq!(ms_cheapest.to_bits(), pair.ms_bound.to_bits(), "{what}");
                }
            }
        }
    });
    assert!(pairs > 10_000, "{pairs} orientations checked");
}

/// `n` instances of one table, every pair joined on its indexed key `X`:
/// every subset is connected, and splits of equal size cost the same.
fn self_joined_clique(n: usize) -> (Database, Query) {
    let mut b = DatabaseBuilder::new("clique", SystemConfig::default_1gb());
    add_keyed(&mut b, "T", 200_000, &["X", "Y"], &["X", "Y"]);
    let db = b.build();
    let from: Vec<String> = (1..=n).map(|i| format!("t q{i}")).collect();
    let preds: Vec<String> = (2..=n)
        .map(|i| format!("q{}.t_x = q{i}.t_x", i - 1))
        .collect();
    let sql = format!(
        "SELECT q1.t_y FROM {} WHERE {}",
        from.join(", "),
        preds.join(" AND ")
    );
    let q = parse(&db, "clique", &sql).unwrap();
    (db, q)
}

/// On a self-joined clique many splits tie exactly: the DP still keeps, per
/// mask, the frontier the build-everything reference keeps (so each tie
/// went to the same earlier offer), while skipping orientations.
#[test]
fn dp_skips_keep_every_tie_on_a_self_joined_clique() {
    let (db, q) = self_joined_clique(6);
    for enable_bloom in [true, false] {
        let config = PlannerConfig {
            dp_unit_limit: 10,
            enable_bloom,
        };
        let p = Planner::new(&db, &q, &config);

        // The ties are real: on the whole set, the cheapest alternative is
        // offered by more than one split.
        let table = p.dp(p.table_units());
        let full = table.len() - 1;
        let mut costs = Vec::new();
        for sub in 1..full {
            let (Some(a), Some(b)) = (&table[sub], &table[full & !sub]) else {
                continue;
            };
            costs.extend(p.join_candidates(a, b).iter().map(|c| c.cost.to_bits()));
        }
        let least = costs
            .iter()
            .map(|&c| f64::from_bits(c))
            .fold(f64::INFINITY, f64::min);
        let tied = costs.iter().filter(|&&c| c == least.to_bits()).count();
        assert!(tied > 1, "bloom={enable_bloom}: {tied} cheapest");

        let reference = reference_dp(&p, p.table_units(), Orders::Live);
        for (mask, got) in table.iter().enumerate() {
            let what = format!("bloom={enable_bloom} mask={mask:#b}");
            assert_same_frontier(got.as_ref(), reference.get(&mask), &what);
        }
        let work = p.work.get();
        assert!(work.costed < work.considered, "{work:?}");
    }
}

/// Greedy on the same clique: the first round's cheapest plan is offered
/// by several pairs, so the first of them in unit order must still win, as
/// the reference that builds every pair has it.
#[test]
fn greedy_keeps_the_first_of_equal_cost_pairs() {
    let n = 8;
    let (db, q) = self_joined_clique(n);
    for enable_bloom in [true, false] {
        let config = PlannerConfig {
            dp_unit_limit: 1,
            enable_bloom,
        };
        let p = Planner::new(&db, &q, &config);
        let units = p.table_units();
        let mut cheapest = Vec::new();
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let cands = p.join_candidates(&units[i], &units[j]);
                cheapest.push(cands.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min));
            }
        }
        let least = cheapest.iter().copied().fold(f64::INFINITY, f64::min);
        let tied = cheapest.iter().filter(|&&c| c == least).count();
        assert!(tied > 1, "bloom={enable_bloom}: {tied} cheapest pairs");

        let got = p.greedy(p.table_units());
        let want = reference_greedy(&p, p.table_units(), Orders::Live);
        assert_same_frontier(
            got.as_ref(),
            want.as_ref(),
            &format!("bloom={enable_bloom}"),
        );
        let work = p.work.get();
        assert!(work.built < work.connected, "{work:?}");
    }
}

/// The work the bounds save, pinned over the random cases: DP orientations
/// considered and costed, greedy pairs connected and frontiers built.
#[test]
fn bounding_skips_work_on_the_random_cases() {
    let mut total = Work::default();
    for_each_random_case(|_, p, units| {
        let before = p.work.get();
        p.dp(units());
        p.greedy(units());
        let after = p.work.get();
        total.considered += after.considered - before.considered;
        total.costed += after.costed - before.costed;
        total.connected += after.connected - before.connected;
        total.built += after.built - before.built;
    });
    assert!(total.costed < total.considered, "{total:?}");
    assert!(total.built < total.connected, "{total:?}");
    // Without the bounds every connected orientation is costed and every
    // connected pair's frontier built: 52,876 and 3,804.
    assert_eq!(
        total,
        Work {
            considered: 52_876,
            costed: 17_205,
            connected: 3_804,
            built: 1_506,
        }
    );
}

// ---- interesting orders ----

/// Adds a table of `rows` rows with 200-byte payload `<name>_PAD` and the
/// integer columns `<name>_<key>`, each unique per row; the keys named in
/// `indexed` get a clustered index.
fn add_keyed(b: &mut DatabaseBuilder, name: &str, rows: u64, keys: &[&str], indexed: &[&str]) {
    let mut columns: Vec<_> = keys
        .iter()
        .map(|k| col(&format!("{name}_{k}"), ColumnType::Integer))
        .collect();
    columns.push(col(&format!("{name}_PAD"), ColumnType::Varchar(200)));
    let mut table = Table::new(name, columns);
    for (c, k) in keys.iter().enumerate() {
        if indexed.contains(k) {
            table.add_index(Index {
                name: format!("{name}_{k}_IX"),
                column: ColumnId(c as u32),
                unique: true,
                cluster_ratio: 1.0,
            });
        }
    }
    let mut stats: Vec<_> = keys
        .iter()
        .map(|_| ColumnStats::uniform(rows, 0.0, rows as f64, 4))
        .collect();
    stats.push(ColumnStats::uniform(rows, 0.0, rows as f64, 200));
    b.add_table(table, rows, stats);
}

#[test]
fn a_merge_order_a_later_join_uses_stays_on_the_frontier() {
    // One key class over three big tables, each read in key order by an
    // index-only scan: merge joins need no sort anywhere.
    let mut b = DatabaseBuilder::new("chain_of_keys", SystemConfig::default_1gb());
    for name in ["A", "B", "C"] {
        add_keyed(&mut b, name, 1_000_000, &["X"], &["X"]);
    }
    let db = b.build();
    let q = parse(
        &db,
        "abc",
        "SELECT a_x FROM a, b, c WHERE a_x = b_x AND b_x = c_x",
    )
    .unwrap();
    let config = PlannerConfig::default();
    let p = Planner::new(&db, &q, &config);
    let table = p.dp(p.table_units());

    // {a, b}: the class reaches c, so its first member inside keeps the
    // merge join's order.
    let ab = table[0b011].as_ref().unwrap();
    let ordered: Vec<&Cand> = ab.cands.iter().filter(|c| c.order.is_some()).collect();
    assert_eq!(ordered.len(), 1, "{:?}", ab.cands);
    let merged = ordered[0];
    assert!(is_live(&p, 0b011, merged.order.unwrap()));
    assert!(
        matches!(
            &*merged.plan,
            PhysPlan::Join {
                method: JoinMethod::Ms,
                ..
            }
        ),
        "{merged:?}"
    );

    // {a, b, c}: the winner merges that very plan in, with no sort on it.
    let abc = table[0b111].as_ref().unwrap();
    assert_eq!(abc.cands.len(), 1, "no order is live on the whole query");
    let PhysPlan::Join {
        method: JoinMethod::Ms,
        outer,
        inner,
        ..
    } = &*abc.cands[0].plan
    else {
        panic!("a merge join wins: {:?}", abc.cands[0]);
    };
    assert!(
        Rc::ptr_eq(outer, &merged.plan) || Rc::ptr_eq(inner, &merged.plan),
        "{:?}",
        abc.cands[0]
    );
}

#[test]
fn merge_orders_die_where_their_key_class_is_complete() {
    // A star: each dimension's key class is complete once it joins the
    // fact, and the fact has no index that could carry another order.
    let mut b = DatabaseBuilder::new("star_of_keys", SystemConfig::default_1gb());
    add_keyed(&mut b, "F", 1_000_000, &["A", "B", "C"], &[]);
    for name in ["D1", "D2", "D3"] {
        add_keyed(&mut b, name, 50_000, &["X"], &["X"]);
    }
    let db = b.build();
    let q = parse(
        &db,
        "star",
        "SELECT f_a FROM f, d1, d2, d3 WHERE f_a = d1_x AND f_b = d2_x AND f_c = d3_x",
    )
    .unwrap();
    let config = PlannerConfig::default();
    let p = Planner::new(&db, &q, &config);
    let table = p.dp(p.table_units());
    let every = reference_dp(&p, p.table_units(), Orders::Every);

    for mask in [0b0011, 0b0101, 0b1001] {
        let pair = table[mask].as_ref().unwrap();
        assert!(pair.cands.iter().all(|c| c.order.is_none()), "{pair:?}");
        // Keeping every order, the same set holds dead ones.
        assert!(every[&mask].cands.iter().any(|c| c.order.is_some()));
    }
    assert_eq!(table[0b1111].as_ref().unwrap().cands.len(), 1);
}

// ---- tie-breaking ----

/// Streaming pruning keeps what `prune` keeps, in `prune`'s order, on
/// streams built to collide: costs drawn from three values, orders from
/// `None` and three columns.
#[test]
fn streaming_prune_equals_prune_on_colliding_streams() {
    let db = star_db();
    let q = star_query(&db);
    let config = PlannerConfig::default();
    let p = Planner::new(&db, &q, &config);
    let (outer, inner) = (
        &p.access_candidates_raw(0)[0],
        &p.access_candidates_raw(1)[0],
    );
    let column = |table_idx, c| ColRef {
        table_idx,
        column: ColumnId(c),
    };
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..2_000 {
        let orders = [None, Some(0), Some(1), Some(2)];
        // An alternative's cardinality is its position in the stream, so
        // the built plans tell which of two equals survived.
        let stream: Vec<JoinAlt> = (0..rng.gen_range(0..24))
            .map(|position| JoinAlt {
                method: JoinMethod::Hs { bloom: false },
                key: (column(0, 0), column(1, 0)),
                outer,
                inner,
                cost: [1.0, 2.0, 3.0][rng.gen_range(0..3usize)],
                card: position as f64,
                order: orders.choose(&mut rng).unwrap().map(|c| column(0, c)),
                sorted: (0.0, 0.0),
            })
            .collect();

        let mut frontier = Frontier::default();
        stream.iter().for_each(|&alt| frontier.offer(alt));
        let got = format!("{:?}", frontier.finish());
        let want = format!("{:?}", prune(stream.iter().map(JoinAlt::build).collect()));
        assert_eq!(got, want);
    }
}

#[test]
fn plain_hash_join_wins_an_exact_tie_with_bloom() {
    // ITEM (18k) probing SALES (2.88M): every outer row finds a partner, so
    // `match_frac == 1` and the bloom variant saves nothing.
    let db = star_db();
    let q = parse(
        &db,
        "tie",
        "SELECT s_price FROM item, sales WHERE i_item_sk = s_item_sk",
    )
    .unwrap();
    let config = PlannerConfig::default();
    let p = Planner::new(&db, &q, &config);
    let units = p.table_units();
    let card = p.est.join_card(0b11);
    assert!(card >= units[0].card);

    // Both variants are generated at one cost, plain first, and the first
    // generated is the one pruning keeps.
    let mut hash_costs: Vec<(bool, u64)> = Vec::new();
    let mut frontier = Frontier::default();
    let keys = p.est.join_keys_between(units[0].set, units[1].set);
    let mut nl = Vec::new();
    let pair = p.cost_pair(&units[0], &units[1], card, &keys, &mut nl);
    pair.for_each_join(&units[0], &units[1], |alt| {
        if let JoinMethod::Hs { bloom } = alt.method {
            hash_costs.push((bloom, alt.cost.to_bits()));
        }
        frontier.offer(alt);
    });
    for pair in hash_costs.chunks(2) {
        assert_eq!((pair[0].0, pair[1].0), (false, true));
        assert_eq!(pair[0].1, pair[1].1);
    }
    let kept = format!("{:?}", frontier.finish());
    assert!(kept.contains("Hs { bloom: false }"), "{kept}");
    assert!(!kept.contains("bloom: true"), "{kept}");
}
