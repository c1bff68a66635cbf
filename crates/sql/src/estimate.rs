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

use crate::ast::{CmpOp, LocalPred, PredKind, Query};

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
    distinct: Vec<f64>,
}

impl EqClass {
    /// Member columns whose table instance is inside `set`.
    pub fn members_in(&self, set: u64) -> impl Iterator<Item = (usize, ColumnId)> + '_ {
        self.members
            .iter()
            .copied()
            .filter(move |(t, _)| set & (1 << t) != 0)
    }

    fn reduction(&self, set: u64) -> f64 {
        let mut k = 0usize;
        let mut max_d = 1.0f64;
        for (i, &(t, _)) in self.members.iter().enumerate() {
            if set & (1 << t) != 0 {
                k += 1;
                max_d = max_d.max(self.distinct[i]);
            }
        }
        if k >= 2 {
            (1.0 / max_d).powi(k as i32 - 1)
        } else {
            1.0
        }
    }
}

/// One join key usable between two table sets: `(table instance, column)`
/// on the left side, then on the right side.
pub type KeyPair = ((usize, ColumnId), (usize, ColumnId));

/// Precomputed estimator for one query against one view.
#[derive(Debug, Clone)]
pub struct CardEstimator {
    table_sel: Vec<f64>,
    filtered: Vec<f64>,
    base: Vec<f64>,
    classes: Vec<EqClass>,
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
        assert!(n <= 64, "table sets are u64 bitsets (max 64 instances)");

        let mut table_sel = vec![1.0f64; n];
        for pred in &query.locals {
            let tref = &query.tables[pred.col.table_idx];
            let sel = local_selectivity(view, tref.table, pred, pred.col.column);
            table_sel[pred.col.table_idx] *= sel.clamp(0.0, 1.0);
        }

        let base: Vec<f64> = query
            .tables
            .iter()
            .map(|t| view.table(t.table).row_count as f64)
            .collect();
        let filtered: Vec<f64> = base
            .iter()
            .zip(&table_sel)
            .map(|(b, s)| (b * s).max(1e-6))
            .collect();

        // Union-find over (table_idx, column) nodes.
        let mut nodes: Vec<(usize, ColumnId)> = Vec::new();
        let node_of = |nodes: &mut Vec<(usize, ColumnId)>, key: (usize, ColumnId)| -> usize {
            match nodes.iter().position(|&n| n == key) {
                Some(i) => i,
                None => {
                    nodes.push(key);
                    nodes.len() - 1
                }
            }
        };
        let mut parent: Vec<usize> = Vec::new();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for join in &query.joins {
            let a = node_of(&mut nodes, (join.left.table_idx, join.left.column));
            let b = node_of(&mut nodes, (join.right.table_idx, join.right.column));
            while parent.len() < nodes.len() {
                parent.push(parent.len());
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }

        let mut classes: Vec<EqClass> = Vec::new();
        let mut class_of_root: Vec<(usize, usize)> = Vec::new(); // (root, class idx)
        for (i, &(t, c)) in nodes.iter().enumerate() {
            let root = find(&mut parent, i);
            let class_idx = match class_of_root.iter().find(|(r, _)| *r == root) {
                Some(&(_, idx)) => idx,
                None => {
                    classes.push(EqClass {
                        members: Vec::new(),
                        distinct: Vec::new(),
                    });
                    class_of_root.push((root, classes.len() - 1));
                    classes.len() - 1
                }
            };
            let table = query.tables[t].table;
            let d = view.column(table, c).n_distinct.max(1) as f64;
            classes[class_idx].members.push((t, c));
            classes[class_idx].distinct.push(d);
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
            base,
            classes,
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

    /// Unfiltered cardinality of one table instance.
    pub fn base_card(&self, table_idx: usize) -> f64 {
        self.base[table_idx]
    }

    /// Column equivalence classes of the query's join graph.
    pub fn classes(&self) -> &[EqClass] {
        &self.classes
    }

    /// Cardinality of the join over a set of table instances, given as a
    /// bitset over `query.tables` indexes (bit `i` = instance `i`).
    pub fn join_card(&self, set: u64) -> f64 {
        let mut card = 1.0f64;
        for (i, f) in self.filtered.iter().enumerate() {
            if set & (1 << i) != 0 {
                card *= f;
            }
        }
        for class in &self.classes {
            card *= class.reduction(set);
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
        self.classes
            .iter()
            .any(|c| c.members_in(left).next().is_some() && c.members_in(right).next().is_some())
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
        keys.extend(self.classes.iter().filter_map(|c| {
            let l = c.members_in(left).next()?;
            let r = c.members_in(right).next()?;
            Some((l, r))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table, Value};

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

    #[test]
    fn filtered_card_never_zero() {
        let db = fig8_db();
        let mut q = fig8_query(&db);
        q.locals[0].kind = PredKind::Cmp(CmpOp::Le, Value::Int(-10));
        let est = CardEstimator::belief(&db, &q);
        assert!(est.filtered_card(1) > 0.0);
    }
}
