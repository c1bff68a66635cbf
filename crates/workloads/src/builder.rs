//! Programmatic query construction against a database catalog.
//!
//! Workload generators build hundreds of queries; constructing [`Query`]
//! values directly (with name-based resolution and validation) is faster
//! and less error-prone than emitting SQL text and re-parsing it. The
//! builder panics on unknown names: a generator bug, not a runtime
//! condition.

use galo_catalog::{Database, Value};
use galo_sql::{CmpOp, ColRef, JoinPred, LocalPred, PredKind, Query, TableRef};

/// Builds one SPJ query against a database.
pub struct QueryBuilder<'a> {
    db: &'a Database,
    name: String,
    tables: Vec<TableRef>,
    joins: Vec<JoinPred>,
    locals: Vec<LocalPred>,
    projections: Vec<ColRef>,
}

impl<'a> QueryBuilder<'a> {
    pub fn new(db: &'a Database, name: impl Into<String>) -> Self {
        QueryBuilder {
            db,
            name: name.into(),
            tables: Vec::new(),
            joins: Vec::new(),
            locals: Vec::new(),
            projections: Vec::new(),
        }
    }

    /// Add a table instance; returns its instance index. The qualifier is
    /// assigned `Q<n>` in FROM order, like the paper's figures.
    pub fn table(&mut self, name: &str) -> usize {
        let table = self
            .db
            .table_id(name)
            .unwrap_or_else(|| panic!("unknown table '{name}'"));
        self.tables.push(TableRef {
            table,
            qualifier: format!("Q{}", self.tables.len() + 1),
        });
        self.tables.len() - 1
    }

    fn colref(&self, instance: usize, column: &str) -> ColRef {
        let table = self.tables[instance].table;
        let col = self.db.table(table).column_id(column).unwrap_or_else(|| {
            panic!(
                "unknown column '{column}' on table '{}'",
                self.db.table(table).name
            )
        });
        ColRef {
            table_idx: instance,
            column: col,
        }
    }

    /// Equi-join two instances on named columns.
    pub fn join(&mut self, (li, lcol): (usize, &str), (ri, rcol): (usize, &str)) -> &mut Self {
        let left = self.colref(li, lcol);
        let right = self.colref(ri, rcol);
        self.joins.push(JoinPred { left, right });
        self
    }

    /// Local comparison predicate.
    pub fn cmp(
        &mut self,
        instance: usize,
        column: &str,
        op: CmpOp,
        v: impl Into<Value>,
    ) -> &mut Self {
        let col = self.colref(instance, column);
        self.locals.push(LocalPred {
            col,
            kind: PredKind::Cmp(op, v.into()),
        });
        self
    }

    /// `BETWEEN` predicate.
    pub fn between(
        &mut self,
        instance: usize,
        column: &str,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> &mut Self {
        let col = self.colref(instance, column);
        self.locals.push(LocalPred {
            col,
            kind: PredKind::Between(lo.into(), hi.into()),
        });
        self
    }

    /// Projection column.
    pub fn select(&mut self, instance: usize, column: &str) -> &mut Self {
        let c = self.colref(instance, column);
        self.projections.push(c);
        self
    }

    /// Finish; panics if the join graph is disconnected (generator bug).
    pub fn build(self) -> Query {
        let q = Query {
            name: self.name,
            tables: self.tables,
            joins: self.joins,
            locals: self.locals,
            projections: self.projections,
        };
        assert!(
            q.is_connected(),
            "generated query '{}' has a disconnected join graph",
            q.name
        );
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};

    fn db() -> Database {
        let mut b = DatabaseBuilder::new("b", SystemConfig::default_1gb());
        b.add_table(
            Table::new(
                "FACT",
                vec![
                    col("F_K", ColumnType::Integer),
                    col("F_V", ColumnType::Decimal),
                ],
            ),
            1000,
            vec![
                ColumnStats::uniform(100, 0.0, 100.0, 4),
                ColumnStats::uniform(100, 0.0, 100.0, 8),
            ],
        );
        b.add_table(
            Table::new("DIM", vec![col("D_K", ColumnType::Integer)]),
            100,
            vec![ColumnStats::uniform(100, 0.0, 100.0, 4)],
        );
        b.build()
    }

    #[test]
    fn builds_a_two_table_query() {
        let db = db();
        let mut qb = QueryBuilder::new(&db, "q1");
        let f = qb.table("FACT");
        let d = qb.table("DIM");
        qb.join((f, "F_K"), (d, "D_K"))
            .cmp(f, "F_V", CmpOp::Gt, 5.0)
            .select(f, "F_V");
        let q = qb.build();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.tables[0].qualifier, "Q1");
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.locals.len(), 1);
        assert!(q.is_connected());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_generation_panics() {
        let db = db();
        let mut qb = QueryBuilder::new(&db, "bad");
        qb.table("FACT");
        qb.table("DIM");
        qb.build();
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_column_panics() {
        let db = db();
        let mut qb = QueryBuilder::new(&db, "bad");
        let f = qb.table("FACT");
        qb.cmp(f, "NOPE", CmpOp::Eq, 1i64);
    }
}
