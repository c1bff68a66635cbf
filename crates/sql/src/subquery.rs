//! Sub-query generation — the paper's Figure 3 operation.
//!
//! "Large SQL queries are decomposed into smaller parts corresponding to
//! sub-queries … From a given RDF-based QGM, all SQL sub-queries are
//! auto-generated up to a predefined size threshold (number of joins). A
//! sub-query projects the join and local predicates from the original query
//! that are applicable to the sub-query's selected tables." (§3.2)
//!
//! We enumerate *connected* subsets of the join graph up to the threshold
//! and project the query onto each. Structural signatures allow merging
//! "sub-queries with the same structure over different queries" (§4.1) so
//! they are evaluated once.

use std::cmp::Ordering;
use std::fmt::Write;

use galo_catalog::Database;

use crate::ast::{ColRef, JoinPred, LocalPred, PredKind, Query, MAX_TABLE_REFS};

/// Project `query` onto the table instances in `subset` (indexes into
/// `query.tables`, below [`MAX_TABLE_REFS`]; order and repeats do not
/// matter). Join predicates fully inside the subset and local predicates
/// on subset tables are kept; projections are narrowed, falling back to
/// the join columns when none survive.
pub fn project(query: &Query, subset: &[usize]) -> Query {
    let set = subset.iter().fold(0u64, |set, &t| {
        assert!(
            t < MAX_TABLE_REFS,
            "table instance {t} is not below {MAX_TABLE_REFS}"
        );
        set | 1 << t
    });
    project_set(query, set)
}

/// [`project`] onto the instances of bitset `set`.
fn project_set(query: &Query, set: u64) -> Query {
    // An instance keeps its rank among the subset's instances.
    let remap = |old: usize| -> Option<usize> {
        (old < MAX_TABLE_REFS && set & 1 << old != 0)
            .then(|| (set & ((1u64 << old) - 1)).count_ones() as usize)
    };
    let col = |c: ColRef| -> Option<ColRef> {
        Some(ColRef {
            table_idx: remap(c.table_idx)?,
            column: c.column,
        })
    };

    let tables = members(set).map(|i| query.tables[i].clone()).collect();

    let joins: Vec<JoinPred> = query
        .joins
        .iter()
        .filter_map(|j| {
            Some(JoinPred {
                left: col(j.left)?,
                right: col(j.right)?,
            })
        })
        .collect();

    let locals = query
        .locals
        .iter()
        .filter_map(|p| {
            Some(LocalPred {
                col: col(p.col)?,
                kind: p.kind.clone(),
            })
        })
        .collect();

    let mut projections: Vec<ColRef> = query.projections.iter().filter_map(|&c| col(c)).collect();
    if projections.is_empty() {
        // Keep the sub-query meaningful: project its join columns.
        projections.extend(joins.iter().map(|j| j.left));
        projections.dedup();
    }

    let mut name = String::with_capacity(query.name.len() + 6 + 3 * set.count_ones() as usize);
    name.push_str(&query.name);
    name.push_str("#sub[");
    for (k, i) in members(set).enumerate() {
        if k > 0 {
            name.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(name, "{i}");
    }
    name.push(']');
    Query {
        name,
        tables,
        joins,
        locals,
        projections,
    }
}

/// The instances of bitset `set`, ascending.
fn members(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = set.trailing_zeros() as usize;
        set &= set.checked_sub(1)?;
        Some(t)
    })
}

/// Enumerate all connected subsets of the query's join graph containing at
/// least two tables and at most `max_joins + 1` tables (a sub-query with k
/// tables in a tree-shaped join has k-1 joins; cyclic graphs may have more,
/// so we additionally cap by join count after projection). Each subset is
/// ascending, and the list is in lexicographic order.
pub fn connected_subsets(query: &Query, max_joins: usize) -> Vec<Vec<usize>> {
    connected_sets(query, max_joins)
        .into_iter()
        .map(|set| members(set).collect())
        .collect()
}

/// Generate all sub-queries of `query` up to `max_joins` join predicates:
/// the [`project`]ion onto each of [`connected_subsets`], in that order,
/// each projected only when the iterator reaches it.
pub fn subqueries(query: &Query, max_joins: usize) -> impl ExactSizeIterator<Item = Query> + '_ {
    connected_sets(query, max_joins)
        .into_iter()
        .map(move |set| project_set(query, set))
}

/// [`connected_subsets`] as bitsets, in the same order.
fn connected_sets(query: &Query, max_joins: usize) -> Vec<u64> {
    let n = query.tables.len();
    assert!(
        n <= MAX_TABLE_REFS,
        "table sets are u64 bitsets (max {MAX_TABLE_REFS} instances)"
    );
    let mut adj = vec![0u64; n];
    for j in &query.joins {
        let (a, b) = (j.left.table_idx, j.right.table_idx);
        if a != b {
            adj[a] |= 1 << b;
            adj[b] |= 1 << a;
        }
    }
    let mut sets = Vec::new();
    let graph = Graph {
        adj: &adj,
        max_tables: max_joins + 1,
    };
    for (v, &neighbours) in adj.iter().enumerate() {
        graph.extend(1 << v, neighbours & above(v), v, &mut sets);
    }
    // Cap by the join count of the projected sub-query (relevant for
    // cyclic join graphs where k tables can induce more than k-1 joins):
    // it keeps exactly the joins with both ends inside.
    sets.retain(|&set| {
        let inside = |c: ColRef| set & 1 << c.table_idx != 0;
        query
            .joins
            .iter()
            .filter(|j| inside(j.left) && inside(j.right))
            .count()
            <= max_joins
    });
    sets.sort_unstable_by(|&a, &b| lexicographic(a, b));
    sets
}

/// The join graph as [`connected_sets`] walks it.
struct Graph<'a> {
    /// Per instance, the bitset of the instances a join predicate links it
    /// to.
    adj: &'a [u64],
    max_tables: usize,
}

impl Graph<'_> {
    /// Wernicke's ESU: every connected set whose least instance is `v`,
    /// grown from `set`, exactly once. `ext` holds the instances above `v`
    /// that `set` may still take: neighbours of the set added since the
    /// branch that could have taken them.
    fn extend(&self, set: u64, mut ext: u64, v: usize, out: &mut Vec<u64>) {
        if set.count_ones() >= 2 {
            out.push(set);
        }
        if set.count_ones() as usize >= self.max_tables {
            return;
        }
        let closed = members(set).fold(set, |closed, t| closed | self.adj[t]);
        while ext != 0 {
            let w = ext.trailing_zeros() as usize;
            ext &= ext - 1;
            let exclusive = self.adj[w] & !closed & above(v);
            self.extend(set | 1 << w, ext | exclusive, v, out);
        }
    }
}

/// The bits of the instances above `v`.
fn above(v: usize) -> u64 {
    u64::MAX.checked_shl(v as u32 + 1).unwrap_or(0)
}

/// Two distinct sets in the order of their ascending member lists.
fn lexicographic(a: u64, b: u64) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    // The lists agree up to the least instance in one set only; there the
    // set holding it has the smaller member, unless the other list ends.
    let first = (a ^ b) & (a ^ b).wrapping_neg();
    let beyond = !(first | (first - 1));
    if a & first != 0 {
        if b & beyond != 0 {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    } else if a & beyond != 0 {
        Ordering::Greater
    } else {
        Ordering::Less
    }
}

/// A structural signature abstracting *instance naming* but not table
/// identity: two sub-queries share a signature exactly when they touch the
/// same base tables with the same join shape (by column) and the same
/// predicate shapes on the same columns. This is the merge criterion of
/// §4.1 ("sub-queries with the same structure over different queries can
/// be merged and evaluated once"): a self-join of a table is distinguished
/// from two different tables, but the `Q1`/`Q2` instance labels are not
/// part of the signature.
pub fn structure_signature(db: &Database, query: &Query) -> String {
    let _ = db;
    // Canonical instance order: by (base table id, degree), then stable
    // index — abstracts instance naming while keeping identity. An
    // instance's degree counts the join predicates linking it to another.
    let degree = |i: usize| {
        query
            .joins
            .iter()
            .filter(|j| j.left.table_idx != j.right.table_idx && j.touches(i))
            .count()
    };
    let mut order: Vec<(galo_catalog::TableId, usize, usize)> = (0..query.tables.len())
        .map(|i| (query.tables[i].table, degree(i), i))
        .collect();
    order.sort_unstable();
    let rank = |i: usize| order.iter().position(|&(_, _, x)| x == i).unwrap();

    // Every join and local token is written once into `tokens`, and each
    // group is sorted as text by its ranges. Writing into a `String`
    // cannot fail.
    let mut tokens = String::new();
    let mut ranges: Vec<(usize, usize)> =
        Vec::with_capacity(query.joins.len() + query.locals.len());
    for j in &query.joins {
        let (a, ac) = (rank(j.left.table_idx), j.left.column.0);
        let (b, bc) = (rank(j.right.table_idx), j.right.column.0);
        let ((a, ac), (b, bc)) = if (a, ac) <= (b, bc) {
            ((a, ac), (b, bc))
        } else {
            ((b, bc), (a, ac))
        };
        let start = tokens.len();
        let _ = write!(tokens, "J{a}.{ac}-{b}.{bc}");
        ranges.push((start, tokens.len()));
    }
    for p in &query.locals {
        let start = tokens.len();
        let _ = write!(tokens, "L{}.{}:", rank(p.col.table_idx), p.col.column.0);
        let _ = match &p.kind {
            PredKind::Cmp(op, _) => write!(tokens, "cmp{op}"),
            PredKind::Between(_, _) => write!(tokens, "between"),
            PredKind::IsNull => write!(tokens, "isnull"),
            PredKind::InList(v) => write!(tokens, "in{}", v.len()),
        };
        ranges.push((start, tokens.len()));
    }
    let capacity = 4 * order.len() + tokens.len() + ranges.len() + 2;
    let (joins, locals) = ranges.split_at_mut(query.joins.len());
    let text = |&(start, end): &(usize, usize)| &tokens[start..end];
    joins.sort_unstable_by(|a, b| text(a).cmp(text(b)));
    locals.sort_unstable_by(|a, b| text(a).cmp(text(b)));

    let mut out = String::with_capacity(capacity);
    for (k, &(table, _, _)) in order.iter().enumerate() {
        let _ = write!(out, "{}t{}", if k > 0 { "," } else { "" }, table.0);
    }
    for group in [&*joins, &*locals] {
        out.push('|');
        for (k, range) in group.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(text(range));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::ast::{CmpOp, TableRef};
    use crate::parser::parse;
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table, TableId,
        Value,
    };
    use proptest::test_runner::TestRng;

    /// The enumeration and the signature as they stood before they worked
    /// on bitsets: a frontier of cloned index vectors deduplicated through
    /// a set of them, and a `String` per token.
    mod reference {
        use super::*;

        pub fn connected_subsets(query: &Query, max_joins: usize) -> Vec<Vec<usize>> {
            let n = query.tables.len();
            let adj = query.join_adjacency();
            let max_tables = max_joins + 1;
            let mut result: Vec<Vec<usize>> = Vec::new();
            let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
            for start in 0..n {
                let mut frontier: Vec<Vec<usize>> = vec![vec![start]];
                while let Some(current) = frontier.pop() {
                    if current.len() >= 2 {
                        let mut key = current.clone();
                        key.sort_unstable();
                        if seen.insert(key.clone()) {
                            result.push(key);
                        }
                    }
                    if current.len() >= max_tables {
                        continue;
                    }
                    let mut candidates: BTreeSet<usize> = BTreeSet::new();
                    for &t in &current {
                        for &nb in &adj[t] {
                            if !current.contains(&nb) {
                                candidates.insert(nb);
                            }
                        }
                    }
                    for nb in candidates {
                        let mut next = current.clone();
                        next.push(nb);
                        next.sort_unstable();
                        if !seen.contains(&next) {
                            frontier.push(next);
                        }
                    }
                }
            }
            result.retain(|s| project(query, s).join_count() <= max_joins);
            result.sort();
            result
        }

        pub fn project(query: &Query, subset: &[usize]) -> Query {
            let mut sorted: Vec<usize> = subset.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let remap = |old: usize| sorted.iter().position(|&t| t == old);
            let remap_col = |c: &ColRef| {
                remap(c.table_idx).map(|t| ColRef {
                    table_idx: t,
                    column: c.column,
                })
            };
            let tables = sorted.iter().map(|&i| query.tables[i].clone()).collect();
            let joins: Vec<JoinPred> = query
                .joins
                .iter()
                .filter_map(|j| {
                    Some(JoinPred {
                        left: remap_col(&j.left)?,
                        right: remap_col(&j.right)?,
                    })
                })
                .collect();
            let locals = query
                .locals
                .iter()
                .filter_map(|p| {
                    Some(LocalPred {
                        col: remap_col(&p.col)?,
                        kind: p.kind.clone(),
                    })
                })
                .collect();
            let mut projections: Vec<ColRef> =
                query.projections.iter().filter_map(remap_col).collect();
            if projections.is_empty() {
                for j in &joins {
                    projections.push(j.left);
                }
                projections.dedup();
            }
            let ids: Vec<String> = sorted.iter().map(|i| i.to_string()).collect();
            Query {
                name: format!("{}#sub[{}]", query.name, ids.join(",")),
                tables,
                joins,
                locals,
                projections,
            }
        }

        pub fn structure_signature(query: &Query) -> String {
            let adj = query.join_adjacency();
            let mut order: Vec<usize> = (0..query.tables.len()).collect();
            order.sort_by_key(|&i| (query.tables[i].table, adj[i].len(), i));
            let rank = |i: usize| order.iter().position(|&x| x == i).unwrap();
            let mut joins: Vec<String> = query
                .joins
                .iter()
                .map(|j| {
                    let (a, ac) = (rank(j.left.table_idx), j.left.column.0);
                    let (b, bc) = (rank(j.right.table_idx), j.right.column.0);
                    let ((a, ac), (b, bc)) = if (a, ac) <= (b, bc) {
                        ((a, ac), (b, bc))
                    } else {
                        ((b, bc), (a, ac))
                    };
                    format!("J{a}.{ac}-{b}.{bc}")
                })
                .collect();
            joins.sort();
            let mut locals: Vec<String> = query
                .locals
                .iter()
                .map(|p| {
                    let kind = match &p.kind {
                        PredKind::Cmp(op, _) => format!("cmp{op}"),
                        PredKind::Between(_, _) => "between".to_string(),
                        PredKind::IsNull => "isnull".to_string(),
                        PredKind::InList(v) => format!("in{}", v.len()),
                    };
                    format!("L{}.{}:{kind}", rank(p.col.table_idx), p.col.column.0)
                })
                .collect();
            locals.sort();
            let tables: Vec<String> = order
                .iter()
                .map(|&i| format!("t{}", query.tables[i].table.0))
                .collect();
            format!(
                "{}|{}|{}",
                tables.join(","),
                joins.join(","),
                locals.join(",")
            )
        }
    }

    /// A random join graph over up to 14 instances of up to 12 base
    /// tables (so self-joins of a table are common): random equalities,
    /// with repeated pairs, cycles, predicates between two columns of one
    /// instance and disconnected parts; random local predicates of every
    /// kind, and at times no projection.
    fn random_query(rng: &mut TestRng) -> Query {
        let n = 1 + rng.below(14) as usize;
        let tables = (0..n)
            .map(|i| TableRef {
                table: TableId(rng.below(12) as u32),
                qualifier: format!("Q{}", i + 1),
            })
            .collect();
        let column = |rng: &mut TestRng| ColRef {
            table_idx: rng.below(n as u64) as usize,
            column: ColumnId(rng.below(11) as u32),
        };
        let joins = (0..rng.below(2 * n as u64 + 1))
            .map(|_| JoinPred {
                left: column(rng),
                right: column(rng),
            })
            .collect();
        let locals = (0..rng.below(6))
            .map(|_| LocalPred {
                col: column(rng),
                kind: match rng.below(5) {
                    0 => PredKind::Cmp(CmpOp::Eq, Value::Int(3)),
                    1 => PredKind::Cmp(CmpOp::Ge, Value::Int(3)),
                    2 => PredKind::Between(Value::Int(1), Value::Int(9)),
                    3 => PredKind::IsNull,
                    _ => PredKind::InList(vec![Value::Int(1); 1 + rng.below(3) as usize]),
                },
            })
            .collect();
        let projections = (0..rng.below(3)).map(|_| column(rng)).collect();
        Query {
            name: "random".into(),
            tables,
            joins,
            locals,
            projections,
        }
    }

    /// The bitset enumeration, projection names and signatures equal the
    /// references on random join graphs at every threshold.
    #[test]
    fn bitset_enumeration_matches_the_reference() {
        let mut rng = TestRng::from_seed(0x5b9e7);
        let db = DatabaseBuilder::new("none", SystemConfig::default_1gb()).build();
        let mut subsets = 0;
        for _ in 0..300 {
            let q = random_query(&mut rng);
            for max_joins in 0..6 {
                let subs = connected_subsets(&q, max_joins);
                assert_eq!(subs, reference::connected_subsets(&q, max_joins), "{q:?}");
                subsets += subs.len();
                for (sub, projected) in subs.iter().zip(subqueries(&q, max_joins)) {
                    assert_eq!(projected, project(&q, sub));
                    assert_eq!(projected, reference::project(&q, sub));
                    assert_eq!(
                        structure_signature(&db, &projected),
                        reference::structure_signature(&projected)
                    );
                }
            }
            assert_eq!(
                structure_signature(&db, &q),
                reference::structure_signature(&q)
            );
        }
        assert!(subsets > 10_000, "{subsets} subsets");
    }

    fn db3() -> Database {
        let mut b = DatabaseBuilder::new("t", SystemConfig::default_1gb());
        for (name, rows) in [
            ("WEB_SALES", 719_384u64),
            ("ITEM", 18_000),
            ("DATE_DIM", 73_049),
            ("STORE", 12),
        ] {
            b.add_table(
                Table::new(
                    name,
                    vec![
                        col(&format!("{name}_K1"), ColumnType::Integer),
                        col(&format!("{name}_K2"), ColumnType::Integer),
                    ],
                ),
                rows,
                vec![
                    ColumnStats::uniform(rows.max(2), 0.0, rows as f64, 4),
                    ColumnStats::uniform(rows.max(2), 0.0, rows as f64, 4),
                ],
            );
        }
        b.build()
    }

    fn chain4(db: &Database) -> Query {
        parse(
            db,
            "chain4",
            "SELECT web_sales_k1 FROM web_sales, item, date_dim, store \
             WHERE web_sales_k1 = item_k1 AND item_k2 = date_dim_k1 \
             AND date_dim_k2 = store_k1",
        )
        .unwrap()
    }

    #[test]
    fn figure3_projection_keeps_applicable_predicates() {
        let db = db3();
        let q = parse(
            &db,
            "fig3",
            "SELECT item_k1 FROM web_sales, item, date_dim \
             WHERE web_sales_k1 = item_k1 AND item_k2 = 42 \
             AND web_sales_k2 = date_dim_k1 AND date_dim_k2 = 99",
        )
        .unwrap();
        // Project onto {web_sales, item} — paper Figure 3b.
        let sub = project(&q, &[0, 1]);
        assert_eq!(sub.tables.len(), 2);
        assert_eq!(sub.joins.len(), 1);
        assert_eq!(sub.locals.len(), 1);
        assert!(sub.is_connected());
    }

    #[test]
    fn connected_subsets_of_chain() {
        let db = db3();
        let q = chain4(&db);
        // Chain 0-1-2-3, threshold 1 join => adjacent pairs only.
        let subs = connected_subsets(&q, 1);
        assert_eq!(subs, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        // Threshold 2 joins adds the two triples.
        let subs2 = connected_subsets(&q, 2);
        assert_eq!(subs2.len(), 5);
        assert!(subs2.contains(&vec![0, 1, 2]));
        assert!(subs2.contains(&vec![1, 2, 3]));
        // Never a disconnected pair.
        assert!(!subs2.contains(&vec![0, 2]));
    }

    #[test]
    fn subsets_have_no_duplicates() {
        let db = db3();
        let q = chain4(&db);
        let subs = connected_subsets(&q, 3);
        let set: BTreeSet<Vec<usize>> = subs.iter().cloned().collect();
        assert_eq!(set.len(), subs.len());
    }

    #[test]
    fn all_subqueries_are_connected() {
        let db = db3();
        let q = chain4(&db);
        for sub in subqueries(&q, 3) {
            assert!(sub.is_connected(), "{} not connected", sub.name);
        }
    }

    #[test]
    fn projection_renames_subquery() {
        let db = db3();
        let q = chain4(&db);
        let sub = project(&q, &[1, 2]);
        assert!(sub.name.contains("sub[1,2]"));
    }

    #[test]
    fn signature_matches_across_predicate_values_and_instance_names() {
        let db = db3();
        // Same tables, same join columns, same predicate shape: only the
        // literal differs — signatures must merge.
        let q1 = parse(
            &db,
            "a",
            "SELECT item_k1 FROM web_sales x, item y WHERE x.web_sales_k1 = y.item_k1 AND y.item_k2 = 5",
        )
        .unwrap();
        let q2 = parse(
            &db,
            "b",
            "SELECT item_k1 FROM web_sales, item WHERE web_sales_k1 = item_k1 AND item_k2 = 9",
        )
        .unwrap();
        assert_eq!(structure_signature(&db, &q1), structure_signature(&db, &q2));
        // Different join columns do NOT merge.
        let q3 = parse(
            &db,
            "c",
            "SELECT item_k2 FROM web_sales, item WHERE web_sales_k2 = item_k2 AND item_k1 = 9",
        )
        .unwrap();
        assert_ne!(structure_signature(&db, &q1), structure_signature(&db, &q3));
    }

    #[test]
    fn signature_differs_for_different_shapes() {
        let db = db3();
        let q1 = parse(
            &db,
            "a",
            "SELECT item_k1 FROM web_sales, item WHERE web_sales_k1 = item_k1",
        )
        .unwrap();
        let q2 = parse(
            &db,
            "b",
            "SELECT item_k1 FROM web_sales, item WHERE web_sales_k1 = item_k1 AND item_k2 = 5",
        )
        .unwrap();
        assert_ne!(structure_signature(&db, &q1), structure_signature(&db, &q2));
    }
}
