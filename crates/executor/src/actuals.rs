//! Actual cardinalities for every plan operator.
//!
//! GALO "keeps historical information about the estimated and actual
//! cardinalities over operators" (paper §3.3, Figure 8 discussion). The
//! executor derives actuals from the ground-truth statistics view: a scan's
//! actual output is its truth-filtered cardinality, a join's actual output
//! is the truth join cardinality of the table set under it — including
//! every planted quirk.

use std::collections::HashMap;

use galo_catalog::Database;
use galo_qgm::{PopId, PopKind, Qgm};
use galo_sql::CardEstimator;

/// Actual output rows per plan operator.
#[derive(Debug, Clone)]
pub struct Actuals {
    rows: HashMap<PopId, f64>,
}

impl Actuals {
    /// Actual output cardinality of an operator.
    pub fn rows(&self, id: PopId) -> f64 {
        self.rows[&id]
    }

    /// Actual output cardinality, or `None` for an operator this
    /// `Actuals` was not computed over (e.g. a pop from another plan).
    pub fn get(&self, id: PopId) -> Option<f64> {
        self.rows.get(&id).copied()
    }

    /// Estimation error factor for an operator: `max(est/act, act/est)`.
    /// 1.0 means a perfect estimate.
    pub fn q_error(&self, qgm: &Qgm, id: PopId) -> f64 {
        let est = qgm.pop(id).est_card.max(1e-6);
        let act = self.rows(id).max(1e-6);
        (est / act).max(act / est)
    }
}

/// Compute actual cardinalities for every operator of a plan.
pub fn compute_actuals(db: &Database, qgm: &Qgm) -> Actuals {
    let est = CardEstimator::truth(db, &qgm.query);
    let mut rows = HashMap::with_capacity(qgm.len());
    for ((id, pop), set) in qgm.pops().zip(qgm.table_sets()) {
        let actual = match &pop.kind {
            PopKind::TbScan { table } | PopKind::IxScan { table, .. } => est.filtered_card(*table),
            _ => est.join_card(set),
        };
        rows.insert(id, actual);
    }
    Actuals { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table,
    };
    use galo_optimizer::Optimizer;
    use galo_sql::parse;

    fn db() -> Database {
        let mut b = DatabaseBuilder::new("act", SystemConfig::default_1gb());
        let f = b.add_table(
            Table::new(
                "FACT",
                vec![
                    col("F_DATE", ColumnType::Integer),
                    col("F_V", ColumnType::Decimal),
                ],
            ),
            1_000_000,
            vec![
                ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
                ColumnStats::uniform(100_000, 0.0, 1e6, 8),
            ],
        );
        let d = b.add_table(
            Table::new(
                "DIM",
                vec![
                    col("D_K", ColumnType::Integer),
                    col("D_P", ColumnType::Integer),
                ],
            ),
            1_000,
            vec![
                ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
                ColumnStats::uniform(100, 0.0, 100.0, 4),
            ],
        );
        b.plant_correlation((f, ColumnId(0)), (d, ColumnId(1)), 0.05);
        b.build()
    }

    #[test]
    fn join_actuals_reflect_quirks() {
        let db = db();
        let q = parse(
            &db,
            "q",
            "SELECT f_v FROM fact, dim WHERE f_date = d_k AND d_p = 7",
        )
        .unwrap();
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        let actuals = compute_actuals(&db, &plan);
        let root = plan.root();
        // Estimated: 1M × (1/100); actual 20× lower (distortion 0.05).
        let est = plan.pop(root).est_card;
        let act = actuals.rows(root);
        let q_err = actuals.q_error(&plan, root);
        assert!(act < est, "act {act} must be below est {est}");
        assert!((q_err - 20.0).abs() < 1.0, "q-error {q_err}");
    }

    #[test]
    fn scan_actuals_match_truth_filtering() {
        let db = db();
        let q = parse(&db, "q", "SELECT f_v FROM fact WHERE f_date = 3").unwrap();
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        let actuals = compute_actuals(&db, &plan);
        // Truth == belief for this local predicate: 1M / 1000 distinct.
        let scan = plan
            .pops()
            .find(|(_, p)| p.kind.is_scan())
            .map(|(id, _)| id)
            .unwrap();
        assert!((actuals.rows(scan) - 1_000.0).abs() < 1.0);
        assert!(actuals.q_error(&plan, scan) < 1.01);
    }
}
