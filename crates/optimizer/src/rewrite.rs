//! The query-rewrite stage — the first tier of DB2's two-stage optimizer.
//!
//! "Query rewrite applies well-known, well-tested transformations to an
//! incoming query to 'simplify' it" (paper §1.2). For the conjunctive SPJ
//! fragment the relevant transformations are:
//!
//! * **duplicate-predicate elimination** (identical join or local
//!   predicates appear routinely in generated SQL);
//! * **join-predicate transitive closure** (`a = b ∧ b = c ⇒ a = c`),
//!   which gives the plan enumerator freedom to join any two tables of an
//!   equivalence class directly;
//! * **trivial contradiction flagging** (`x = 1 ∧ x = 2`), which real
//!   rewrite engines use to short-circuit empty results.

use galo_catalog::Value;
use galo_sql::{ColRef, JoinPred, LocalPred, PredKind, Query};

/// Result of the rewrite stage.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    /// Number of duplicate predicates removed.
    pub duplicates_removed: usize,
    /// Number of implied join predicates added by transitive closure.
    pub implied_joins_added: usize,
    /// Table instances with contradictory equality predicates.
    pub contradictions: Vec<usize>,
}

/// Apply the rewrite stage, returning the rewritten query and a report.
pub fn rewrite(query: &Query) -> (Query, RewriteReport) {
    let mut q = query.clone();
    let mut report = RewriteReport {
        duplicates_removed: 0,
        implied_joins_added: 0,
        contradictions: Vec::new(),
    };

    // Duplicate join predicates (orientation-insensitive): each kept only
    // where it first appears.
    let before = q.joins.len();
    let mut kept = 0;
    for i in 0..q.joins.len() {
        let key = q.joins[i].normalized();
        if !q.joins[..kept].iter().any(|j| j.normalized() == key) {
            q.joins[kept] = q.joins[i];
            kept += 1;
        }
    }
    q.joins.truncate(kept);
    report.duplicates_removed += before - q.joins.len();

    // Duplicate local predicates, likewise.
    let before = q.locals.len();
    let mut i = 0;
    while i < q.locals.len() {
        let p = &q.locals[i];
        if q.locals[..i]
            .iter()
            .any(|k| k.col == p.col && k.kind == p.kind)
        {
            q.locals.remove(i);
        } else {
            i += 1;
        }
    }
    report.duplicates_removed += before - q.locals.len();

    // Transitive closure over join columns (union-find on ColRef nodes,
    // each with its parent).
    let mut nodes: Vec<(ColRef, usize)> = Vec::with_capacity(2 * q.joins.len());
    let node_of = |nodes: &mut Vec<(ColRef, usize)>, c: ColRef| -> usize {
        match nodes.iter().position(|&(n, _)| n == c) {
            Some(i) => i,
            None => {
                nodes.push((c, nodes.len()));
                nodes.len() - 1
            }
        }
    };
    fn find(nodes: &mut [(ColRef, usize)], mut x: usize) -> usize {
        while nodes[x].1 != x {
            nodes[x].1 = nodes[nodes[x].1].1;
            x = nodes[x].1;
        }
        x
    }
    for j in &q.joins {
        let a = node_of(&mut nodes, j.left);
        let b = node_of(&mut nodes, j.right);
        let (ra, rb) = (find(&mut nodes, a), find(&mut nodes, b));
        if ra != rb {
            nodes[ra].1 = rb;
        }
    }
    // For every pair of class members on *different* tables without a
    // direct predicate, add the implied join.
    let n_nodes = nodes.len();
    for i in 0..n_nodes {
        for k in (i + 1)..n_nodes {
            if find(&mut nodes, i) != find(&mut nodes, k) {
                continue;
            }
            let (a, b) = (nodes[i].0, nodes[k].0);
            if a.table_idx == b.table_idx {
                continue;
            }
            let exists = q.joins.iter().any(|j| {
                let (x, y) = j.normalized();
                let (na, nb) = (JoinPred { left: a, right: b }).normalized();
                x == na && y == nb
            });
            if !exists {
                q.joins.push(JoinPred { left: a, right: b });
                report.implied_joins_added += 1;
            }
        }
    }

    // Contradictory equality constants on one column: every pair, in
    // order, of equalities on one instance's column with different values.
    fn eq(p: &LocalPred) -> Option<(ColRef, &Value)> {
        match &p.kind {
            PredKind::Cmp(galo_sql::CmpOp::Eq, v) => Some((p.col, v)),
            _ => None,
        }
    }
    for t in 0..q.tables.len() {
        let eqs = || {
            q.locals
                .iter()
                .filter_map(eq)
                .filter(|(c, _)| c.table_idx == t)
        };
        for (i, (ci, vi)) in eqs().enumerate() {
            for (ck, vk) in eqs().skip(i + 1) {
                if ci.column == ck.column && vi != vk {
                    report.contradictions.push(t);
                }
            }
        }
    }
    report.contradictions.dedup();

    (q, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{
        col, ColumnStats, ColumnType, Database, DatabaseBuilder, SystemConfig, Table,
    };
    use galo_sql::parse;

    fn db() -> Database {
        let mut b = DatabaseBuilder::new("rw", SystemConfig::default_1gb());
        for name in ["A", "B", "C"] {
            b.add_table(
                Table::new(
                    name,
                    vec![
                        col(&format!("{name}_K"), ColumnType::Integer),
                        col(&format!("{name}_V"), ColumnType::Integer),
                    ],
                ),
                1000,
                vec![
                    ColumnStats::uniform(1000, 0.0, 1000.0, 4),
                    ColumnStats::uniform(100, 0.0, 100.0, 4),
                ],
            );
        }
        b.build()
    }

    #[test]
    fn transitive_closure_adds_implied_join() {
        let db = db();
        let q = parse(
            &db,
            "t",
            "SELECT a_v FROM a, b, c WHERE a_k = b_k AND b_k = c_k",
        )
        .unwrap();
        let (rw, report) = rewrite(&q);
        assert_eq!(report.implied_joins_added, 1);
        assert_eq!(rw.joins.len(), 3);
        // The new edge connects A and C.
        assert!(rw.joins.iter().any(|j| {
            let (x, y) = j.normalized();
            x.table_idx == 0 && y.table_idx == 2
        }));
    }

    #[test]
    fn duplicates_are_removed() {
        let db = db();
        let q = parse(
            &db,
            "t",
            "SELECT a_v FROM a, b WHERE a_k = b_k AND b_k = a_k AND a_v = 5 AND a_v = 5",
        )
        .unwrap();
        let (rw, report) = rewrite(&q);
        assert_eq!(rw.joins.len(), 1);
        assert_eq!(rw.locals.len(), 1);
        assert_eq!(report.duplicates_removed, 2);
    }

    #[test]
    fn contradictions_are_flagged() {
        let db = db();
        let q = parse(&db, "t", "SELECT a_v FROM a WHERE a_v = 1 AND a_v = 2").unwrap();
        let (_, report) = rewrite(&q);
        assert_eq!(report.contradictions, vec![0]);
    }

    #[test]
    fn clean_query_unchanged() {
        let db = db();
        let q = parse(&db, "t", "SELECT a_v FROM a, b WHERE a_k = b_k AND a_v = 5").unwrap();
        let (rw, report) = rewrite(&q);
        assert_eq!(rw.joins.len(), q.joins.len());
        assert_eq!(rw.locals.len(), q.locals.len());
        assert_eq!(report.duplicates_removed, 0);
        assert_eq!(report.implied_joins_added, 0);
        assert!(report.contradictions.is_empty());
    }
}
