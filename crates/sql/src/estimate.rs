//! Cardinality estimation over either statistics view.
//!
//! The same estimation machinery serves two masters:
//!
//! * the **optimizer** runs it against [`Database::belief`] — this is the
//!   classic System-R model (uniformity, independence, FK containment),
//!   faithful to what DB2's cost-based optimizer assumes;
//! * the **executor** runs it against [`Database::truth`] *plus the
//!   planted quirks*, yielding the actual cardinalities observed at
//!   runtime.
//!
//! The gap between the two is exactly the signal GALO learns from.
//!
//! Join cardinality uses a *decomposable equivalence-class model*: join
//! predicates are grouped into column equivalence classes (the fixpoint of
//! transitivity, as DB2's query rewrite computes), and
//!
//! ```text
//! card(S) = Π_{t ∈ S} filtered(t) × Π_{class c} (1 / D_c(S))^(k_c(S) - 1)
//!           × Π quirk factors for edges inside S
//! ```
//!
//! where `k_c(S)` counts the class's member instances inside `S` and
//! `D_c(S)` is the largest distinct count among them. Being a pure function
//! of the table set, estimates are consistent across join orders and immune
//! to redundant implied predicates — which both the DP planner and the
//! runtime simulator rely on.

use galo_catalog::{ColumnId, Database, StatsView, TableId};

use crate::ast::{CmpOp, LocalPred, PredKind, Query, MAX_TABLE_REFS};

/// Which statistics view (and whether quirks apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The optimizer's catalog view; quirks are invisible.
    Belief,
    /// Ground truth with quirks applied.
    Truth,
}

/// Selectivity of one local predicate against one view.
pub fn local_selectivity(view: &StatsView, table: TableId, pred: &LocalPred, col: ColumnId) -> f64 {
    let stats = view.column(table, col);
    let rows = view.table(table).row_count;
    match &pred.kind {
        PredKind::Cmp(CmpOp::Eq, v) => stats.eq_selectivity(v, rows),
        PredKind::Cmp(CmpOp::Lt | CmpOp::Le, v) => stats.range_selectivity(None, v.ordinal()),
        PredKind::Cmp(CmpOp::Gt | CmpOp::Ge, v) => stats.range_selectivity(v.ordinal(), None),
        PredKind::Between(lo, hi) => stats.range_selectivity(lo.ordinal(), hi.ordinal()),
        PredKind::IsNull => stats.is_null_selectivity(),
        PredKind::InList(vs) => stats.in_selectivity(vs, rows),
    }
}

/// One column equivalence class: the set of `(table_idx, column)` nodes
/// connected by equi-join predicates, with their distinct counts.
#[derive(Debug, Clone)]
pub struct EqClass {
    pub members: Vec<(usize, ColumnId)>,
    /// Where the members' distinct counts start in
    /// [`CardEstimator`]'s `distinct`.
    first_distinct: usize,
    /// Bit `t` is set when a member is on table instance `t`.
    instances: u64,
    /// Whether two members are on one instance (`a.x = b.y AND a.z =
    /// b.y`): then a set holds more members than instances.
    shared: bool,
}

impl EqClass {
    /// The table instances the class has a member on, as a bitset.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Member columns whose table instance is inside `set`.
    pub fn members_in(&self, set: u64) -> impl Iterator<Item = (usize, ColumnId)> + '_ {
        self.members
            .iter()
            .copied()
            .filter(move |(t, _)| set & (1 << t) != 0)
    }

    /// The first member whose table instance is inside `set`.
    pub fn first_in(&self, set: u64) -> Option<(usize, ColumnId)> {
        if self.instances & set == 0 {
            return None;
        }
        self.members_in(set).next()
    }

    /// Whether the class has a member on each side.
    fn spans(&self, left: u64, right: u64) -> bool {
        self.instances & left != 0 && self.instances & right != 0
    }

    /// The class's factor in `join_card(set)`; `distinct` is the
    /// estimator's.
    fn reduction(&self, set: u64, distinct: &[f64]) -> f64 {
        let mut k = 0usize;
        let mut max_d = 1.0f64;
        let distinct = &distinct[self.first_distinct..][..self.members.len()];
        for (&(t, _), &d) in self.members.iter().zip(distinct) {
            if set & (1 << t) != 0 {
                k += 1;
                max_d = max_d.max(d);
            }
        }
        if k >= 2 {
            (1.0 / max_d).powi(k as i32 - 1)
        } else {
            1.0
        }
    }
}

/// A union-find node of [`CardEstimator::build`]: one `(table_idx,
/// column)` a join predicate names.
struct Node {
    key: (usize, ColumnId),
    parent: usize,
    /// For a root: its class's index, once assigned.
    class: usize,
    /// For a root: the nodes its class holds.
    members: usize,
}

const NO_CLASS: usize = usize::MAX;

/// One join key usable between two table sets: `(table instance, column)`
/// on the left side, then on the right side.
pub type KeyPair = ((usize, ColumnId), (usize, ColumnId));

/// Precomputed estimator for one query against one view.
#[derive(Debug, Clone)]
pub struct CardEstimator {
    table_sel: Vec<f64>,
    filtered: Vec<f64>,
    classes: Vec<EqClass>,
    /// Every class member's distinct count, class after class, members in
    /// order.
    distinct: Vec<f64>,
    /// Per-original-edge quirk factor (correlation distortion × join skew),
    /// with the instance endpoints; 1.0 when no quirk applies.
    edge_quirks: Vec<(usize, usize, f64)>,
}

impl CardEstimator {
    /// Build an estimator against the optimizer's belief.
    pub fn belief(db: &Database, query: &Query) -> Self {
        Self::build(db, query, View::Belief)
    }

    /// Build an estimator against ground truth (quirks applied).
    pub fn truth(db: &Database, query: &Query) -> Self {
        Self::build(db, query, View::Truth)
    }

    /// Build for an explicit view selector.
    pub fn build(db: &Database, query: &Query, view_kind: View) -> Self {
        let view: &StatsView = match view_kind {
            View::Belief => &db.belief,
            View::Truth => &db.truth,
        };
        let n = query.tables.len();
        assert!(
            n <= MAX_TABLE_REFS,
            "table sets are u64 bitsets (max {MAX_TABLE_REFS} instances)"
        );

        let mut table_sel = vec![1.0f64; n];
        for pred in &query.locals {
            let tref = &query.tables[pred.col.table_idx];
            let sel = local_selectivity(view, tref.table, pred, pred.col.column);
            table_sel[pred.col.table_idx] *= sel.clamp(0.0, 1.0);
        }
        let filtered: Vec<f64> = query
            .tables
            .iter()
            .zip(&table_sel)
            .map(|(t, s)| (view.table(t.table).row_count as f64 * s).max(1e-6))
            .collect();

        // Union-find over (table_idx, column) nodes, in order of first
        // appearance; a root also carries its class's index and size.
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * query.joins.len());
        let node_of = |nodes: &mut Vec<Node>, key: (usize, ColumnId)| -> usize {
            match nodes.iter().position(|n| n.key == key) {
                Some(i) => i,
                None => {
                    nodes.push(Node {
                        key,
                        parent: nodes.len(),
                        class: NO_CLASS,
                        members: 0,
                    });
                    nodes.len() - 1
                }
            }
        };
        fn find(nodes: &mut [Node], mut x: usize) -> usize {
            while nodes[x].parent != x {
                nodes[x].parent = nodes[nodes[x].parent].parent;
                x = nodes[x].parent;
            }
            x
        }
        for join in &query.joins {
            let a = node_of(&mut nodes, (join.left.table_idx, join.left.column));
            let b = node_of(&mut nodes, (join.right.table_idx, join.right.column));
            let (ra, rb) = (find(&mut nodes, a), find(&mut nodes, b));
            if ra != rb {
                nodes[ra].parent = rb;
            }
        }

        // Classes in order of their first node, members in node order; the
        // distinct counts of one class are a contiguous run of `distinct`.
        let mut classes = 0;
        for i in 0..nodes.len() {
            let root = find(&mut nodes, i);
            if nodes[root].class == NO_CLASS {
                nodes[root].class = classes;
                classes += 1;
            }
            nodes[root].members += 1;
        }
        let mut classes: Vec<EqClass> = Vec::with_capacity(classes);
        let mut distinct = vec![0.0f64; nodes.len()];
        let mut next_distinct = 0;
        for i in 0..nodes.len() {
            let root = find(&mut nodes, i);
            let (class_idx, size) = (nodes[root].class, nodes[root].members);
            if class_idx == classes.len() {
                classes.push(EqClass {
                    members: Vec::with_capacity(size),
                    first_distinct: next_distinct,
                    instances: 0,
                    shared: false,
                });
                next_distinct += size;
            }
            let (t, c) = nodes[i].key;
            let table = query.tables[t].table;
            let class = &mut classes[class_idx];
            distinct[class.first_distinct + class.members.len()] =
                view.column(table, c).n_distinct.max(1) as f64;
            class.members.push((t, c));
            class.shared |= class.instances & (1 << t) != 0;
            class.instances |= 1 << t;
        }

        // Per-edge quirk factors (truth view only).
        let mut edge_quirks = Vec::new();
        if view_kind == View::Truth {
            for join in &query.joins {
                let (li, ri) = (join.left.table_idx, join.right.table_idx);
                let lt = query.tables[li].table;
                let rt = query.tables[ri].table;
                let mut factor = db
                    .quirks
                    .join_skew_factor((lt, join.left.column), (rt, join.right.column));

                for quirk in &db.quirks.correlations {
                    let fact_is_left = quirk.fact == (lt, join.left.column);
                    let fact_is_right = quirk.fact == (rt, join.right.column);
                    if !(fact_is_left || fact_is_right) {
                        continue;
                    }
                    let dim_idx = if fact_is_left { ri } else { li };
                    if query.tables[dim_idx].table != quirk.dim.0 {
                        continue;
                    }
                    // The correlation only bites when the dim instance is
                    // actually filtered on the correlated column.
                    let dim_has_pred = query
                        .locals
                        .iter()
                        .any(|p| p.col.table_idx == dim_idx && p.col.column == quirk.dim.1);
                    if dim_has_pred {
                        factor *= quirk.distortion;
                    }
                }
                if (factor - 1.0).abs() > 1e-12 {
                    edge_quirks.push((li, ri, factor));
                }
            }
        }

        CardEstimator {
            table_sel,
            filtered,
            classes,
            distinct,
            edge_quirks,
        }
    }

    /// Combined local selectivity of one table instance.
    pub fn local_sel(&self, table_idx: usize) -> f64 {
        self.table_sel[table_idx]
    }

    /// Filtered cardinality of one table instance.
    pub fn filtered_card(&self, table_idx: usize) -> f64 {
        self.filtered[table_idx]
    }

    /// Column equivalence classes of the query's join graph.
    pub fn classes(&self) -> &[EqClass] {
        &self.classes
    }

    /// Cardinality of the join over a set of table instances, given as a
    /// bitset over `query.tables` indexes (bit `i` = instance `i`).
    pub fn join_card(&self, set: u64) -> f64 {
        let mut card = 1.0f64;
        // In ascending instance order, as the product's bits depend on it.
        let mut bits = set & instance_mask(self.filtered.len());
        while bits != 0 {
            card *= self.filtered[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        for class in &self.classes {
            let inside = class.instances & set;
            // A reduction of exactly 1.0 (no member inside, or one member
            // and no shared instance) would leave `card` as it is.
            if inside & inside.wrapping_sub(1) == 0 && !class.shared {
                continue;
            }
            card *= class.reduction(set, &self.distinct);
        }
        for &(a, b, factor) in &self.edge_quirks {
            if set & (1 << a) != 0 && set & (1 << b) != 0 {
                card *= factor;
            }
        }
        card.max(1e-6)
    }

    /// True if the two disjoint sets are connected by some equivalence
    /// class (directly or through transitivity).
    pub fn connected(&self, left: u64, right: u64) -> bool {
        self.classes.iter().any(|c| c.spans(left, right))
    }

    /// Join key pairs usable between two disjoint sets: for each class
    /// spanning both, one `(left column, right column)` pair.
    pub fn join_keys_between(&self, left: u64, right: u64) -> Vec<KeyPair> {
        let mut keys = Vec::new();
        self.join_keys_into(left, right, &mut keys);
        keys
    }

    /// [`Self::join_keys_between`] into a buffer the caller reuses; `keys`
    /// is cleared first. Swapping `left` and `right` swaps each pair and
    /// keeps the class order.
    pub fn join_keys_into(&self, left: u64, right: u64, keys: &mut Vec<KeyPair>) {
        keys.clear();
        keys.extend(
            self.classes
                .iter()
                .filter(|c| c.spans(left, right))
                .filter_map(|c| Some((c.first_in(left)?, c.first_in(right)?))),
        );
    }
}

/// The bits of instances `0..n`.
fn instance_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table, Value};
    use proptest::test_runner::TestRng;

    /// store_sales (2.88M) ⨝ date_dim (73049) with the paper's Figure 8
    /// correlation: the date predicate estimates 50% but actually keeps
    /// ~0.5% of sales.
    fn fig8_db() -> Database {
        let mut b = DatabaseBuilder::new("fig8", SystemConfig::default_1gb());
        let ss = b.add_table(
            Table::new(
                "STORE_SALES",
                vec![
                    col("SS_SOLD_DATE_SK", ColumnType::Integer),
                    col("SS_ITEM_SK", ColumnType::Integer),
                ],
            ),
            2_880_400,
            vec![
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
                ColumnStats::uniform(18_000, 0.0, 18_000.0, 4),
            ],
        );
        let dd = b.add_table(
            Table::new(
                "DATE_DIM",
                vec![
                    col("D_DATE_SK", ColumnType::Integer),
                    col("D_DATE", ColumnType::Date),
                ],
            ),
            73_049,
            vec![
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
            ],
        );
        b.add_table(
            Table::new("ITEM", vec![col("I_ITEM_SK", ColumnType::Integer)]),
            18_000,
            vec![ColumnStats::uniform(18_000, 0.0, 18_000.0, 4)],
        );
        b.plant_correlation((ss, ColumnId(0)), (dd, ColumnId(1)), 0.01);
        b.build()
    }

    fn fig8_query(db: &Database) -> Query {
        parse(
            db,
            "fig8",
            "SELECT ss_item_sk FROM store_sales, date_dim \
             WHERE ss_sold_date_sk = d_date_sk AND d_date <= 36524",
        )
        .unwrap()
    }

    #[test]
    fn belief_uses_uniformity() {
        let db = fig8_db();
        let q = fig8_query(&db);
        let est = CardEstimator::belief(&db, &q);
        // d_date <= 36524 over [0, 73049] is ~50%.
        assert!((est.local_sel(1) - 0.5).abs() < 0.01);
        // Join card ≈ |SS| × 0.5 under containment.
        let card = est.join_card(0b11);
        assert!(
            (card / (2_880_400.0 * 0.5) - 1.0).abs() < 0.02,
            "card={card}"
        );
    }

    #[test]
    fn truth_applies_correlation_distortion() {
        let db = fig8_db();
        let q = fig8_query(&db);
        let truth = CardEstimator::truth(&db, &q);
        let belief = CardEstimator::belief(&db, &q);
        let ratio = truth.join_card(0b11) / belief.join_card(0b11);
        assert!((ratio - 0.01).abs() < 1e-6, "ratio={ratio}");
    }

    #[test]
    fn distortion_requires_dim_predicate() {
        let db = fig8_db();
        let q = parse(
            &db,
            "nopred",
            "SELECT ss_item_sk FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk",
        )
        .unwrap();
        let truth = CardEstimator::truth(&db, &q);
        let belief = CardEstimator::belief(&db, &q);
        // Without the date predicate the FK join keeps all sales rows in
        // both views.
        assert!((truth.join_card(0b11) - belief.join_card(0b11)).abs() < 1.0);
        assert!((truth.join_card(0b11) - 2_880_400.0).abs() / 2_880_400.0 < 0.01);
    }

    #[test]
    fn join_card_is_decomposable() {
        let db = fig8_db();
        let q = fig8_query(&db);
        let est = CardEstimator::belief(&db, &q);
        let single0 = est.join_card(0b01);
        let single1 = est.join_card(0b10);
        let pair = est.join_card(0b11);
        // card({0,1}) = card({0}) × card({1}) × class reduction (1/73049).
        assert!((pair - single0 * single1 / 73_049.0).abs() / pair < 1e-9);
    }

    #[test]
    fn transitive_closure_connects_via_class() {
        let db = fig8_db();
        // store_sales ⨝ date_dim ⨝ item via a chain; {store_sales, item}
        // share no direct predicate but belong to... actually they join on
        // different classes; craft a 3-instance chain on one class:
        let q = parse(
            &db,
            "chain",
            "SELECT q1.ss_item_sk FROM store_sales q1, store_sales q2, store_sales q3 \
             WHERE q1.ss_sold_date_sk = q2.ss_sold_date_sk \
             AND q2.ss_sold_date_sk = q3.ss_sold_date_sk",
        )
        .unwrap();
        let est = CardEstimator::belief(&db, &q);
        // q1 and q3 are connected through the class even without a direct
        // predicate.
        assert!(est.connected(0b001, 0b100));
        assert_eq!(est.join_keys_between(0b001, 0b100).len(), 1);
        // Redundant implied edge must not change the estimate: the class
        // model yields (1/D)^(k-1) regardless of edge multiplicity.
        let card3 = est.join_card(0b111);
        let f = est.filtered_card(0);
        let expect = f * f * f / 73_049.0 / 73_049.0;
        assert!((card3 - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn disconnected_sets_are_detected() {
        let db = fig8_db();
        let q = parse(
            &db,
            "cross",
            "SELECT q1.ss_item_sk FROM store_sales q1, date_dim q2, item q3 \
             WHERE q1.ss_sold_date_sk = q2.d_date_sk",
        )
        .unwrap();
        let est = CardEstimator::belief(&db, &q);
        assert!(est.connected(0b001, 0b010));
        assert!(!est.connected(0b001, 0b100));
        assert!(est.join_keys_between(0b001, 0b100).is_empty());
    }

    /// The set functions as they stood before classes kept instance masks:
    /// every member of every class walked for every set.
    mod member_walk {
        use super::*;

        pub fn join_card(est: &CardEstimator, set: u64) -> f64 {
            let mut card = 1.0f64;
            for (i, f) in est.filtered.iter().enumerate() {
                if set & (1 << i) != 0 {
                    card *= f;
                }
            }
            for class in &est.classes {
                card *= reduction(class, set, &est.distinct);
            }
            for &(a, b, factor) in &est.edge_quirks {
                if set & (1 << a) != 0 && set & (1 << b) != 0 {
                    card *= factor;
                }
            }
            card.max(1e-6)
        }

        fn reduction(class: &EqClass, set: u64, distinct: &[f64]) -> f64 {
            let mut k = 0usize;
            let mut max_d = 1.0f64;
            for (i, &(t, _)) in class.members.iter().enumerate() {
                if set & (1 << t) != 0 {
                    k += 1;
                    max_d = max_d.max(distinct[class.first_distinct + i]);
                }
            }
            if k >= 2 {
                (1.0 / max_d).powi(k as i32 - 1)
            } else {
                1.0
            }
        }

        pub fn connected(est: &CardEstimator, left: u64, right: u64) -> bool {
            est.classes.iter().any(|c| {
                c.members_in(left).next().is_some() && c.members_in(right).next().is_some()
            })
        }

        pub fn join_keys_between(est: &CardEstimator, left: u64, right: u64) -> Vec<KeyPair> {
            est.classes
                .iter()
                .filter_map(|c| {
                    let l = c.members_in(left).next()?;
                    let r = c.members_in(right).next()?;
                    Some((l, r))
                })
                .collect()
        }
    }

    /// Three four-column tables with random sizes and distinct counts, a
    /// join skew and a correlation planted, so the truth view has edge
    /// quirks.
    fn random_db(rng: &mut TestRng) -> Database {
        let mut b = DatabaseBuilder::new("random", SystemConfig::default_1gb());
        let mut ids = Vec::new();
        for t in 0..3 {
            let cols = ["A", "B", "C", "D"];
            let rows = 10u64.pow(2 + rng.below(5) as u32) * (1 + rng.below(9));
            let table = Table::new(
                format!("T{t}"),
                cols.iter()
                    .map(|c| col(&format!("T{t}_{c}"), ColumnType::Integer))
                    .collect(),
            );
            let stats = cols
                .iter()
                .map(|_| {
                    let distinct = 1 + rng.below(rows);
                    ColumnStats::uniform(distinct, 0.0, distinct as f64, 4)
                })
                .collect();
            ids.push(b.add_table(table, rows, stats));
        }
        b.plant_join_skew((ids[0], ColumnId(0)), (ids[1], ColumnId(1)), 3.0);
        b.plant_correlation((ids[0], ColumnId(1)), (ids[2], ColumnId(2)), 0.1);
        b.build()
    }

    /// Up to 8 instances of the three tables, joined by random equalities
    /// between random columns of distinct instances (so classes with two
    /// members on one instance are common), with random local predicates.
    fn random_sql(rng: &mut TestRng) -> String {
        let n = 1 + rng.below(8) as usize;
        let tables: Vec<u64> = (0..n).map(|_| rng.below(3)).collect();
        let column = |rng: &mut TestRng, i: usize| {
            let c = ["a", "b", "c", "d"][rng.below(4) as usize];
            format!("q{}.t{}_{c}", i + 1, tables[i])
        };
        let mut preds = Vec::new();
        if n > 1 {
            for _ in 0..1 + rng.below(2 * n as u64) {
                let i = rng.below(n as u64) as usize;
                let j = (i + 1 + rng.below(n as u64 - 1) as usize) % n;
                preds.push(format!("{} = {}", column(rng, i), column(rng, j)));
            }
        }
        for i in 0..n {
            if rng.below(2) == 0 {
                let op = ["=", "<"][rng.below(2) as usize];
                preds.push(format!("{} {op} {}", column(rng, i), rng.below(1000)));
            }
        }
        let from: Vec<String> = (0..n)
            .map(|i| format!("t{} q{}", tables[i], i + 1))
            .collect();
        let mut sql = format!("SELECT {} FROM {}", column(rng, 0), from.join(", "));
        if !preds.is_empty() {
            sql += &format!(" WHERE {}", preds.join(" AND "));
        }
        sql
    }

    /// The bitset estimator against the member walk, in both views, over
    /// random queries of up to 8 instances: `join_card` bit for bit on
    /// every set, `join_keys_between` and `connected` on every pair of
    /// disjoint non-empty sets.
    #[test]
    fn bitset_estimator_matches_the_member_walk() {
        let mut rng = TestRng::from_seed(0xb175e7);
        let mut shared = 0;
        for case in 0..160 {
            let db = random_db(&mut rng);
            // The first case is the one where a class holds two members on
            // one instance, and a single-member skip would be wrong.
            let sql = if case == 0 {
                "SELECT q1.t0_a FROM t0 q1, t1 q2, t2 q3 \
                 WHERE q1.t0_a = q2.t1_b AND q1.t0_c = q2.t1_b AND q2.t1_d = q3.t2_a"
                    .to_string()
            } else {
                random_sql(&mut rng)
            };
            let q = parse(&db, "random", &sql).unwrap();
            let all = (1u64 << q.tables.len()) - 1;
            for est in [
                CardEstimator::belief(&db, &q),
                CardEstimator::truth(&db, &q),
            ] {
                shared += est.classes.iter().filter(|c| c.shared).count();
                for set in 1..=all {
                    assert_eq!(
                        est.join_card(set).to_bits(),
                        member_walk::join_card(&est, set).to_bits(),
                        "{sql}: set {set:#b}"
                    );
                    let rest = all & !set;
                    let mut other = rest;
                    while other > 0 {
                        let what = format!("{sql}: {set:#b} | {other:#b}");
                        assert_eq!(
                            est.join_keys_between(set, other),
                            member_walk::join_keys_between(&est, set, other),
                            "{what}"
                        );
                        assert_eq!(
                            est.connected(set, other),
                            member_walk::connected(&est, set, other),
                            "{what}"
                        );
                        other = (other - 1) & rest;
                    }
                }
            }
        }
        assert!(shared > 20, "{shared} classes with a shared instance");
    }

    #[test]
    fn filtered_card_never_zero() {
        let db = fig8_db();
        let mut q = fig8_query(&db);
        q.locals[0].kind = PredKind::Cmp(CmpOp::Le, Value::Int(-10));
        let est = CardEstimator::belief(&db, &q);
        assert!(est.filtered_card(1) > 0.0);
    }
}
