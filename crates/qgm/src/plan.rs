//! The Query Graph Model: LOLEPOP plan trees.
//!
//! Within IBM DB2 a compiled plan is a tree of *low level plan operators*
//! (LOLEPOPs) — `TBSCAN`, `IXSCAN`, `NLJOIN`, `HSJOIN`, `MSJOIN`, `SORT`, …
//! — each annotated with an estimated cardinality and cumulative cost
//! (paper §3.1, Figure 1). This module is the plan arena shared by the
//! optimizer (which builds plans), the executor (which charges them), and
//! GALO's transformation engine (which maps them to RDF).

use galo_catalog::{Database, IndexId};
use galo_sql::{ColRef, Query};

/// Index of a plan operator inside a [`Qgm`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PopId(pub u32);

/// Operator kinds. Joins take `[outer, inner]` inputs; unary operators take
/// one input; scans are leaves.
#[derive(Debug, Clone, PartialEq)]
pub enum PopKind {
    /// Plan root: returns rows to the application.
    Return,
    /// Sequential scan of a table instance (index into `query.tables`).
    TbScan { table: usize },
    /// Index access on a table instance. `fetch` means data pages are
    /// fetched through the index (DB2's FETCH over IXSCAN, rendered as
    /// `F-IXSCAN` in the paper's figures).
    IxScan {
        table: usize,
        index: IndexId,
        fetch: bool,
    },
    /// Nested-loop join.
    NlJoin,
    /// Hash join; `bloom` enables the bloom-filter variant from the
    /// paper's Figure 4 rewrite.
    HsJoin { bloom: bool },
    /// Sort-merge join. Inputs must be sorted on the join key (the
    /// optimizer inserts [`PopKind::Sort`] operators or relies on index
    /// order).
    MsJoin,
    /// Explicit sort on a key.
    Sort { key: Option<ColRef> },
    /// Residual predicate application.
    Filter,
}

impl PopKind {
    /// Operator name as it appears in QGM diagnostic output and in the
    /// paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PopKind::Return => "RETURN",
            PopKind::TbScan { .. } => "TBSCAN",
            PopKind::IxScan { fetch: false, .. } => "IXSCAN",
            PopKind::IxScan { fetch: true, .. } => "F-IXSCAN",
            PopKind::NlJoin => "NLJOIN",
            PopKind::HsJoin { .. } => "HSJOIN",
            PopKind::MsJoin => "MSJOIN",
            PopKind::Sort { .. } => "SORT",
            PopKind::Filter => "FILTER",
        }
    }

    /// True for the three join operators.
    pub fn is_join(&self) -> bool {
        matches!(
            self,
            PopKind::NlJoin | PopKind::HsJoin { .. } | PopKind::MsJoin
        )
    }

    /// True for base-table access operators.
    pub fn is_scan(&self) -> bool {
        matches!(self, PopKind::TbScan { .. } | PopKind::IxScan { .. })
    }

    /// Table instance accessed, for scan operators.
    pub fn scan_table(&self) -> Option<usize> {
        match self {
            PopKind::TbScan { table } | PopKind::IxScan { table, .. } => Some(*table),
            _ => None,
        }
    }
}

/// One plan operator with its estimated properties.
#[derive(Debug, Clone)]
pub struct Pop {
    /// Display identifier — the integer in parentheses in the figures.
    /// Assigned in pre-order (outer before inner) with `RETURN` = 1, so
    /// `op_id − 1` is the operator's pre-order position and the subtree
    /// it roots is the pre-order range `[op_id − 1, op_id − 1 + size)`
    /// (size from [`Qgm::extents`]).
    pub op_id: u32,
    pub kind: PopKind,
    /// Optimizer-estimated output cardinality.
    pub est_card: f64,
    /// Cumulative estimated cost in timerons (DB2's cost unit).
    pub est_cost: f64,
    /// Children: `[outer, inner]` for joins, `[input]` for unary ops,
    /// empty for scans.
    pub inputs: Vec<PopId>,
    /// The sort order of this operator's output, when known.
    pub order: Option<ColRef>,
}

/// What one children-first pass knows of the subtree an operator roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Operators in the subtree, the root included: the subtree is the
    /// pre-order range `[op_id − 1, op_id − 1 + size)`.
    pub size: usize,
    /// Join operators in the subtree.
    pub joins: usize,
}

/// A complete query execution plan: operator arena plus the query it
/// evaluates (needed to interpret table-instance indexes and predicates).
/// Immutable once built: the arena is private and nothing hands out a
/// mutable operator.
#[derive(Debug, Clone)]
pub struct Qgm {
    pub query: Query,
    pops: Vec<Pop>,
    root: PopId,
}

impl Qgm {
    /// Start building a plan for `query`. Operators are added bottom-up and
    /// [`QgmBuilder::finish`] seals the tree under a `RETURN` operator.
    pub fn builder(query: Query) -> QgmBuilder {
        QgmBuilder {
            query,
            pops: Vec::new(),
        }
    }

    pub fn root(&self) -> PopId {
        self.root
    }

    pub fn pop(&self, id: PopId) -> &Pop {
        &self.pops[id.0 as usize]
    }

    pub fn pops(&self) -> impl Iterator<Item = (PopId, &Pop)> {
        self.pops
            .iter()
            .enumerate()
            .map(|(i, p)| (PopId(i as u32), p))
    }

    pub fn len(&self) -> usize {
        self.pops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pops.is_empty()
    }

    /// Look up an operator by its display id.
    pub fn by_op_id(&self, op_id: u32) -> Option<PopId> {
        self.pops
            .iter()
            .position(|p| p.op_id == op_id)
            .map(|i| PopId(i as u32))
    }

    /// Parent of an operator (the arena is a tree, so at most one).
    pub fn parent(&self, id: PopId) -> Option<PopId> {
        self.pops()
            .find(|(_, p)| p.inputs.contains(&id))
            .map(|(pid, _)| pid)
    }

    /// Operators of the subtree rooted at `id`, in pre-order.
    pub fn subtree(&self, id: PopId) -> Vec<PopId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            // Push inner before outer so outer is visited first.
            for &child in self.pop(cur).inputs.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Every operator's [`Extent`], indexed by [`PopId`], from one pass
    /// over the arena: [`QgmBuilder::add`] only takes inputs that already
    /// exist, so the arena lists every child before its parent.
    pub fn extents(&self) -> Vec<Extent> {
        let mut out: Vec<Extent> = Vec::with_capacity(self.pops.len());
        for pop in &self.pops {
            let mut extent = Extent {
                size: 1,
                joins: usize::from(pop.kind.is_join()),
            };
            for child in &pop.inputs {
                let below = out[child.0 as usize];
                extent.size += below.size;
                extent.joins += below.joins;
            }
            out.push(extent);
        }
        out
    }

    /// Every operator's table set, indexed by [`PopId`]: bit `t` is set
    /// when the subtree it roots scans table instance `t` (the bits of
    /// [`Self::tables_under`]). One pass over the arena, children first,
    /// as in [`Self::extents`].
    pub fn table_sets(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::with_capacity(self.pops.len());
        for pop in &self.pops {
            let own = pop.kind.scan_table().map_or(0, |t| 1u64 << t);
            let set = pop
                .inputs
                .iter()
                .fold(own, |set, child| set | out[child.0 as usize]);
            out.push(set);
        }
        out
    }

    /// Number of join operators in the subtree rooted at `id`.
    pub fn join_count(&self, id: PopId) -> usize {
        self.subtree(id)
            .iter()
            .filter(|&&p| self.pop(p).kind.is_join())
            .count()
    }

    /// Table instances (indexes into `query.tables`) accessed in the
    /// subtree rooted at `id`, in scan pre-order.
    pub fn tables_under(&self, id: PopId) -> Vec<usize> {
        self.subtree(id)
            .iter()
            .filter_map(|&p| self.pop(p).kind.scan_table())
            .collect()
    }

    /// A canonical structural fingerprint of the subtree at `id`,
    /// abstracting cardinalities and costs but keeping operator kinds,
    /// shape and accessed table instances. Used to deduplicate random
    /// plans and to compare plans across re-optimizations.
    pub fn fingerprint(&self, id: PopId) -> String {
        // About 16 bytes an operator (`IXSCAN[12,3,F]`, a bracket or a
        // comma): one allocation usually holds the whole plan's text.
        let mut out = String::with_capacity(16 * self.pops.len());
        self.write_fingerprint(id, &mut out);
        out
    }

    /// [`Self::fingerprint`] of the subtree at `id`, appended to `out`:
    /// the operator's label, then its children's, comma-separated, in
    /// parentheses.
    fn write_fingerprint(&self, id: PopId, out: &mut String) {
        let pop = self.pop(id);
        match &pop.kind {
            PopKind::TbScan { table } => {
                out.push_str("TBSCAN[");
                push_decimal(out, *table as u64);
                out.push(']');
            }
            PopKind::IxScan {
                table,
                index,
                fetch,
            } => {
                out.push_str("IXSCAN[");
                push_decimal(out, *table as u64);
                out.push(',');
                push_decimal(out, index.0.into());
                out.push_str(if *fetch { ",F]" } else { ",-]" });
            }
            other => out.push_str(other.name()),
        }
        if let Some((first, rest)) = pop.inputs.split_first() {
            out.push('(');
            self.write_fingerprint(*first, out);
            for &child in rest {
                out.push(',');
                self.write_fingerprint(child, out);
            }
            out.push(')');
        }
    }

    /// Plan-wide fingerprint.
    pub fn plan_fingerprint(&self) -> String {
        self.fingerprint(self.root)
    }

    /// Estimated cardinality at the root.
    pub fn est_card(&self) -> f64 {
        self.pop(self.root).est_card
    }

    /// Total estimated cost (timerons) at the root.
    pub fn est_cost(&self) -> f64 {
        self.pop(self.root).est_cost
    }

    /// Render a db2exfmt-style ASCII tree of the plan (the format of the
    /// paper's figures, linearized).
    pub fn render(&self, db: &Database) -> String {
        let mut out = String::new();
        self.render_node(db, self.root, "", true, &mut out);
        out
    }

    fn render_node(&self, db: &Database, id: PopId, prefix: &str, last: bool, out: &mut String) {
        let pop = self.pop(id);
        let connector = if prefix.is_empty() {
            ""
        } else if last {
            "└── "
        } else {
            "├── "
        };
        let table_note = pop.kind.scan_table().map(|t| {
            let tref = &self.query.tables[t];
            format!("  [{} {}]", db.table(tref.table).name, tref.qualifier)
        });
        out.push_str(&format!(
            "{prefix}{connector}{:>12.6e}  {} ({}){}\n",
            pop.est_card,
            pop.kind.name(),
            pop.op_id,
            table_note.unwrap_or_default()
        ));
        let child_prefix = if prefix.is_empty() {
            String::new()
        } else if last {
            format!("{prefix}    ")
        } else {
            format!("{prefix}│   ")
        };
        let n = pop.inputs.len();
        for (i, &child) in pop.inputs.iter().enumerate() {
            let cp = if prefix.is_empty() {
                "  ".to_string()
            } else {
                child_prefix.clone()
            };
            self.render_node(db, child, &cp, i + 1 == n, out);
        }
    }
}

/// Append `n` in decimal, as `{n}` formats it, without the formatting
/// machinery: fingerprints are written for every plan the learner
/// compares.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Bottom-up plan builder.
pub struct QgmBuilder {
    query: Query,
    pops: Vec<Pop>,
}

impl QgmBuilder {
    /// Add an operator. `inputs` must already exist in this builder.
    pub fn add(
        &mut self,
        kind: PopKind,
        inputs: Vec<PopId>,
        est_card: f64,
        est_cost: f64,
    ) -> PopId {
        debug_assert!(inputs.iter().all(|i| (i.0 as usize) < self.pops.len()));
        self.pops.push(Pop {
            op_id: 0, // assigned in finish()
            kind,
            est_card,
            est_cost,
            inputs,
            order: None,
        });
        PopId((self.pops.len() - 1) as u32)
    }

    /// Make room for `additional` more operators, the `RETURN` that
    /// [`finish`](Self::finish) adds included.
    pub fn reserve(&mut self, additional: usize) {
        self.pops.reserve_exact(additional);
    }

    /// Set the output order of an operator.
    pub fn set_order(&mut self, id: PopId, order: Option<ColRef>) {
        self.pops[id.0 as usize].order = order;
    }

    /// Output order of an operator added so far.
    pub fn order_of(&self, id: PopId) -> Option<ColRef> {
        self.pops[id.0 as usize].order
    }

    /// Seal the plan: wrap `top` in a `RETURN` operator and assign display
    /// ids in pre-order (outer subtree before inner), `RETURN` = 1. So
    /// `op_id − 1` is an operator's pre-order position, while the arena
    /// keeps the order of [`add`](Self::add), every child before its
    /// parent; [`Qgm::extents`] and the matcher's one-pass compile rest on
    /// both.
    ///
    /// # Panics
    ///
    /// When the operators added do not form one tree under `top`: an
    /// operator `top` does not reach, or one that is the input of two.
    pub fn finish(mut self, top: PopId) -> Qgm {
        let card = self.pops[top.0 as usize].est_card;
        let cost = self.pops[top.0 as usize].est_cost;
        self.pops.push(Pop {
            op_id: 0,
            kind: PopKind::Return,
            est_card: card,
            est_cost: cost,
            inputs: vec![top],
            order: None,
        });
        let root = PopId((self.pops.len() - 1) as u32);

        // Pre-order id assignment.
        fn number(pops: &mut [Pop], id: PopId, next: &mut u32) {
            let pop = &mut pops[id.0 as usize];
            assert_eq!(pop.op_id, 0, "an operator is the input of two operators");
            pop.op_id = *next;
            *next += 1;
            for i in 0..pop.inputs.len() {
                let child = pops[id.0 as usize].inputs[i];
                number(pops, child, next);
            }
        }
        let mut next = 1u32;
        number(&mut self.pops, root, &mut next);
        assert_eq!(
            next as usize - 1,
            self.pops.len(),
            "a plan is one tree: every operator reached from the top"
        );

        Qgm {
            query: self.query,
            pops: self.pops,
            root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::ColumnId;
    use galo_catalog::TableId;
    use galo_sql::TableRef;

    fn two_table_query() -> Query {
        Query {
            name: "t".into(),
            tables: vec![
                TableRef {
                    table: TableId(0),
                    qualifier: "Q1".into(),
                },
                TableRef {
                    table: TableId(1),
                    qualifier: "Q2".into(),
                },
            ],
            joins: vec![],
            locals: vec![],
            projections: vec![],
        }
    }

    fn sample_plan() -> Qgm {
        let mut b = Qgm::builder(two_table_query());
        let outer = b.add(PopKind::TbScan { table: 0 }, vec![], 1000.0, 10.0);
        let inner = b.add(
            PopKind::IxScan {
                table: 1,
                index: IndexId(0),
                fetch: true,
            },
            vec![],
            50.0,
            5.0,
        );
        let join = b.add(
            PopKind::HsJoin { bloom: false },
            vec![outer, inner],
            500.0,
            40.0,
        );
        b.finish(join)
    }

    #[test]
    fn ids_are_preorder_with_return_first() {
        let plan = sample_plan();
        let root = plan.pop(plan.root());
        assert_eq!(root.op_id, 1);
        assert!(matches!(root.kind, PopKind::Return));
        let join = plan.pop(root.inputs[0]);
        assert_eq!(join.op_id, 2);
        // Outer gets the smaller id.
        let outer = plan.pop(join.inputs[0]);
        let inner = plan.pop(join.inputs[1]);
        assert_eq!(outer.op_id, 3);
        assert_eq!(inner.op_id, 4);
    }

    #[test]
    fn subtree_and_join_count() {
        let plan = sample_plan();
        assert_eq!(plan.subtree(plan.root()).len(), 4);
        assert_eq!(plan.join_count(plan.root()), 1);
        assert_eq!(plan.tables_under(plan.root()), vec![0, 1]);
        let sets = plan.table_sets();
        for (id, _) in plan.pops() {
            let fold = plan.tables_under(id).iter().fold(0, |s, t| s | 1u64 << t);
            assert_eq!(sets[id.0 as usize], fold);
        }
        assert_eq!(sets[plan.root().0 as usize], 0b11);
    }

    #[test]
    fn extents_are_the_preorder_ranges_of_subtrees() {
        let plan = sample_plan();
        let extents = plan.extents();
        for (id, pop) in plan.pops() {
            let extent = extents[id.0 as usize];
            let ids: Vec<u32> = plan
                .subtree(id)
                .iter()
                .map(|&p| plan.pop(p).op_id)
                .collect();
            let start = pop.op_id;
            assert_eq!(ids, (start..start + extent.size as u32).collect::<Vec<_>>());
            assert_eq!(extent.joins, plan.join_count(id));
        }
    }

    #[test]
    #[should_panic(expected = "input of two")]
    fn finish_refuses_an_operator_with_two_parents() {
        let mut b = Qgm::builder(two_table_query());
        let scan = b.add(PopKind::TbScan { table: 0 }, vec![], 10.0, 1.0);
        let join = b.add(PopKind::NlJoin, vec![scan, scan], 10.0, 2.0);
        b.finish(join);
    }

    #[test]
    #[should_panic(expected = "one tree")]
    fn finish_refuses_an_unreached_operator() {
        let mut b = Qgm::builder(two_table_query());
        b.add(PopKind::TbScan { table: 1 }, vec![], 10.0, 1.0);
        let scan = b.add(PopKind::TbScan { table: 0 }, vec![], 10.0, 1.0);
        b.finish(scan);
    }

    #[test]
    fn by_op_id_roundtrips() {
        let plan = sample_plan();
        for (pid, pop) in plan.pops() {
            assert_eq!(plan.by_op_id(pop.op_id), Some(pid));
        }
        assert_eq!(plan.by_op_id(999), None);
    }

    #[test]
    fn parent_links() {
        let plan = sample_plan();
        let join = plan.pop(plan.root()).inputs[0];
        assert_eq!(plan.parent(join), Some(plan.root()));
        assert_eq!(plan.parent(plan.root()), None);
        let outer = plan.pop(join).inputs[0];
        assert_eq!(plan.parent(outer), Some(join));
    }

    #[test]
    fn fingerprint_distinguishes_methods_but_not_costs() {
        let plan_a = sample_plan();
        let mut b = Qgm::builder(two_table_query());
        let outer = b.add(PopKind::TbScan { table: 0 }, vec![], 9.0, 9.0);
        let inner = b.add(
            PopKind::IxScan {
                table: 1,
                index: IndexId(0),
                fetch: true,
            },
            vec![],
            9.0,
            9.0,
        );
        let join = b.add(
            PopKind::HsJoin { bloom: false },
            vec![outer, inner],
            9.0,
            9.0,
        );
        let plan_b = b.finish(join);
        assert_eq!(plan_a.plan_fingerprint(), plan_b.plan_fingerprint());

        let mut c = Qgm::builder(two_table_query());
        let outer = c.add(PopKind::TbScan { table: 0 }, vec![], 9.0, 9.0);
        let inner = c.add(
            PopKind::IxScan {
                table: 1,
                index: IndexId(0),
                fetch: true,
            },
            vec![],
            9.0,
            9.0,
        );
        let join = c.add(PopKind::NlJoin, vec![outer, inner], 9.0, 9.0);
        let plan_c = c.finish(join);
        assert_ne!(plan_a.plan_fingerprint(), plan_c.plan_fingerprint());
    }

    #[test]
    fn decimals_are_written_as_formatted() {
        for n in [0, 1, 9, 10, 63, 99, 100, 4_096, u32::MAX as u64, u64::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn fetch_flag_changes_operator_name() {
        assert_eq!(
            PopKind::IxScan {
                table: 0,
                index: IndexId(0),
                fetch: true
            }
            .name(),
            "F-IXSCAN"
        );
        assert_eq!(
            PopKind::IxScan {
                table: 0,
                index: IndexId(0),
                fetch: false
            }
            .name(),
            "IXSCAN"
        );
    }

    #[test]
    fn sort_order_tracked() {
        let mut b = Qgm::builder(two_table_query());
        let scan = b.add(PopKind::TbScan { table: 0 }, vec![], 10.0, 1.0);
        let key = ColRef {
            table_idx: 0,
            column: ColumnId(0),
        };
        let sort = b.add(PopKind::Sort { key: Some(key) }, vec![scan], 10.0, 2.0);
        b.set_order(sort, Some(key));
        assert_eq!(b.order_of(sort), Some(key));
        assert_eq!(b.order_of(scan), None);
    }
}
