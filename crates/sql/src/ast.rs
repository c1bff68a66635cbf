//! The select-project-join query model.
//!
//! GALO's workloads — TPC-DS style star joins and the IBM client queries in
//! the paper's figures — are conjunctive SPJ queries: a list of table
//! references, equi-join predicates, and local predicates with literals.
//! That is the fragment this crate models; it is exactly the fragment the
//! learning engine segments (paper Figure 3) and the guideline mechanism
//! constrains.

use std::fmt;

use galo_catalog::{ColumnId, Database, TableId, Value};

/// A table occurrence in the FROM clause. Qualifiers (`Q1`, `Q2`, …) are
/// assigned in FROM-clause order, matching the instance labels in the
/// paper's QGM figures; the same base table may appear several times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: TableId,
    /// Instance qualifier, e.g. `"Q1"`.
    pub qualifier: String,
}

/// A column of a specific table *instance*: `table_idx` indexes into
/// [`Query::tables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub table_idx: usize,
    pub column: ColumnId,
}

/// Comparison operators supported in local predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An equi-join predicate `left = right` between two table instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPred {
    pub left: ColRef,
    pub right: ColRef,
}

impl JoinPred {
    /// The predicate's endpoints normalized so the smaller table index
    /// comes first — used for dedup and for signatures.
    pub fn normalized(&self) -> (ColRef, ColRef) {
        if (self.left.table_idx, self.left.column) <= (self.right.table_idx, self.right.column) {
            (self.left, self.right)
        } else {
            (self.right, self.left)
        }
    }

    /// True if the predicate touches the given table instance.
    pub fn touches(&self, table_idx: usize) -> bool {
        self.left.table_idx == table_idx || self.right.table_idx == table_idx
    }
}

/// The shape of a local predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredKind {
    /// `col <op> literal`
    Cmp(CmpOp, Value),
    /// `col BETWEEN lo AND hi`
    Between(Value, Value),
    /// `col IS NULL`
    IsNull,
    /// `col IN (v1, .., vk)`
    InList(Vec<Value>),
}

/// A local (single-table) predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalPred {
    pub col: ColRef,
    pub kind: PredKind,
}

impl LocalPred {
    /// Simple equality predicate.
    pub fn eq(col: ColRef, value: impl Into<Value>) -> Self {
        LocalPred {
            col,
            kind: PredKind::Cmp(CmpOp::Eq, value.into()),
        }
    }
}

/// The most table references a query may hold: estimation and planning
/// address sets of them as 64-bit masks.
pub const MAX_TABLE_REFS: usize = 64;

/// A conjunctive select-project-join query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// Identifier for reports, e.g. `"tpcds_q08"`.
    pub name: String,
    pub tables: Vec<TableRef>,
    pub joins: Vec<JoinPred>,
    pub locals: Vec<LocalPred>,
    /// Projected columns; empty means `SELECT *`.
    pub projections: Vec<ColRef>,
}

impl Query {
    /// Number of join predicates — the paper's "join-number" measure of
    /// query complexity.
    pub fn join_count(&self) -> usize {
        self.joins.len()
    }

    /// Local predicates attached to one table instance.
    pub fn locals_of(&self, table_idx: usize) -> impl Iterator<Item = &LocalPred> {
        self.locals
            .iter()
            .filter(move |p| p.col.table_idx == table_idx)
    }

    /// The join graph as an adjacency list over table-instance indexes.
    pub fn join_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.tables.len()];
        for j in &self.joins {
            let (a, b) = (j.left.table_idx, j.right.table_idx);
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        adj
    }

    /// True if the join graph is connected (single-table queries are
    /// trivially connected).
    pub fn is_connected(&self) -> bool {
        if self.tables.is_empty() {
            return true;
        }
        let adj = self.join_adjacency();
        let mut seen = vec![false; self.tables.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(t) = stack.pop() {
            for &n in &adj[t] {
                if !seen[n] {
                    seen[n] = true;
                    stack.push(n);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Render back to SQL text against a database (for logs and round-trip
    /// tests).
    pub fn to_sql(&self, db: &Database) -> String {
        let col_name = |c: &ColRef| {
            let tref = &self.tables[c.table_idx];
            format!(
                "{}.{}",
                tref.qualifier,
                db.table(tref.table).column(c.column).name
            )
        };
        let mut out = String::from("SELECT ");
        if self.projections.is_empty() {
            out.push('*');
        } else {
            let cols: Vec<String> = self.projections.iter().map(&col_name).collect();
            out.push_str(&cols.join(", "));
        }
        out.push_str("\nFROM ");
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| format!("{} {}", db.table(t.table).name, t.qualifier))
            .collect();
        out.push_str(&tables.join(", "));
        let mut preds: Vec<String> = Vec::new();
        for j in &self.joins {
            preds.push(format!("{} = {}", col_name(&j.left), col_name(&j.right)));
        }
        for l in &self.locals {
            let lhs = col_name(&l.col);
            preds.push(match &l.kind {
                PredKind::Cmp(op, v) => format!("{lhs} {op} {v}"),
                PredKind::Between(a, b) => format!("{lhs} BETWEEN {a} AND {b}"),
                PredKind::IsNull => format!("{lhs} IS NULL"),
                PredKind::InList(vs) => {
                    let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                    format!("{lhs} IN ({})", items.join(", "))
                }
            });
        }
        if !preds.is_empty() {
            out.push_str("\nWHERE ");
            out.push_str(&preds.join("\n  AND "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q3() -> Query {
        // Three tables in a chain: 0 - 1 - 2.
        Query {
            name: "chain".into(),
            tables: vec![
                TableRef {
                    table: TableId(0),
                    qualifier: "Q1".into(),
                },
                TableRef {
                    table: TableId(1),
                    qualifier: "Q2".into(),
                },
                TableRef {
                    table: TableId(2),
                    qualifier: "Q3".into(),
                },
            ],
            joins: vec![
                JoinPred {
                    left: ColRef {
                        table_idx: 0,
                        column: ColumnId(0),
                    },
                    right: ColRef {
                        table_idx: 1,
                        column: ColumnId(0),
                    },
                },
                JoinPred {
                    left: ColRef {
                        table_idx: 2,
                        column: ColumnId(0),
                    },
                    right: ColRef {
                        table_idx: 1,
                        column: ColumnId(1),
                    },
                },
            ],
            locals: vec![LocalPred::eq(
                ColRef {
                    table_idx: 1,
                    column: ColumnId(1),
                },
                "Jewelry",
            )],
            projections: vec![],
        }
    }

    #[test]
    fn join_count_and_adjacency() {
        let q = q3();
        assert_eq!(q.join_count(), 2);
        let adj = q.join_adjacency();
        assert_eq!(adj[1].len(), 2);
        assert!(q.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut q = q3();
        q.joins.pop();
        assert!(!q.is_connected());
    }

    #[test]
    fn normalized_join_is_orientation_independent() {
        let q = q3();
        let j = q.joins[1];
        let flipped = JoinPred {
            left: j.right,
            right: j.left,
        };
        assert_eq!(j.normalized(), flipped.normalized());
    }

    #[test]
    fn locals_of_filters_by_instance() {
        let q = q3();
        assert_eq!(q.locals_of(1).count(), 1);
        assert_eq!(q.locals_of(0).count(), 0);
    }
}
