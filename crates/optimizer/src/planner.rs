//! Plan enumeration: System-R dynamic programming over connected table
//! sets with interesting orders, a greedy fallback for very large queries
//! (TPC-DS reaches 31-way joins, where exhaustive DP is infeasible — real
//! optimizers degrade the same way), access-path selection, and
//! guideline-constrained planning.
//!
//! An order is *interesting* when some later join can use it. Only a merge
//! join uses an order, and [`PairCosts::for_each_join`] takes its key on a
//! side `S` from [`galo_sql::CardEstimator::join_keys_between`]: the first
//! member inside `S` of an equivalence class that also has a member on the
//! other side. So an order `Some(c)` on table set `S` is **live** when `c`
//! is the first member in `S` of its class and that class has a member
//! outside `S` ([`Planner::live_orders`]); any other order is dead.
//! Liveness can only be lost as `S` grows: a member that is not first in
//! `S` is not first in any superset, and a class with no member outside
//! `S` has none outside any superset. A dead order never saves a sort above
//! `S`, so a plan carrying one costs every later join exactly what an
//! unordered plan of the same cost would, and dropping the order cannot
//! change a winner. [`Planner::dp`] and [`Planner::greedy`] therefore turn
//! a dead order into `None` before a join alternative reaches its
//! [`Frontier`]: the cheapest plan that was ordered only on a dead column
//! competes in the unordered slot instead of multiplying the alternatives
//! of every set above it. The query has no ORDER BY or GROUP BY, so the
//! whole query's set has no live order and its frontier holds one plan.
//! Access paths keep every order ([`prune`]); the tests check each
//! frontier against a reference that builds every alternative, and each
//! winner against one that also keeps every order.
//!
//! **Bounding.** Before an enumerator costs an orientation's
//! |outer| × |inner| × 4 alternatives, [`Planner::cost_pair`] computes what
//! they share (the key, the hash- and merge-join deltas, one nested-loop
//! delta per inner plan) and a bound per method: the same sum, in the same
//! order, over the least of each term. IEEE round-to-nearest addition is
//! monotone (`a ≤ a'` and `b ≤ b'` give `a + b ≤ a' + b'` after rounding),
//! so no alternative's `f64` cost is below its bound, bit for bit and with
//! no epsilon; each bound is in fact its cheapest alternative's cost.
//! [`Planner::dp`] skips an orientation when the mask's frontier has been
//! offered something, the orientation's bound is no less than the cheapest
//! cost offered, and every live order it could carry is already held at no
//! more than that order's own bound ([`Frontier::could_change`]). A
//! [`Frontier`] displaces an entry only on a strictly lower cost and ranks
//! equals by offer order, so a skipped ordered alternative would have lost
//! to its order's entry, and a skipped unordered one ranks after the
//! earlier offer that set the cheapest cost, so whatever it did to the
//! unordered slot, that slot would not be built. Ties keep their winners
//! because the splits are visited in the order they always were: a
//! frontier's tie-breaks depend on it
//! (`plain_hash_join_wins_an_exact_tie_with_bloom`), and the natural order
//! already lets about three orientations in four be skipped on the
//! workloads. [`Planner::greedy`] bounds each ordered pair once and builds
//! its frontier only when the bound is below the round's best so far.

use std::cmp::Ordering;
use std::rc::Rc;

use galo_catalog::{ColumnId, Database, IndexId};
use galo_qgm::{GuidelineDoc, GuidelineNode, PopKind, Qgm};
use galo_sql::{CardEstimator, ColRef, KeyPair, Query};

use crate::cost::CostModel;

/// Exhaustive DP keeps a dense table of `2^units` entries, so the unit
/// count it accepts is capped here whatever
/// [`PlannerConfig::dp_unit_limit`] asks for: 16 units is a 65,536-entry
/// table and already ~21 M splits on a clique; wider queries plan greedily.
pub(crate) const MAX_DP_UNITS: usize = 16;

/// How a base table is accessed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AccessPath {
    TbScan,
    IxScan {
        index: IndexId,
        fetch: bool,
        key_sel: f64,
    },
}

/// Physical join method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinMethod {
    Nl,
    Hs { bloom: bool },
    Ms,
}

/// A physical plan node. Cost and cardinality are cumulative and fixed at
/// construction, so subtrees can be shared (`Rc`) across the DP table.
#[derive(Debug)]
pub(crate) enum PhysPlan {
    Access {
        table_idx: usize,
        path: AccessPath,
        cost: f64,
        card: f64,
    },
    Sort {
        child: Rc<PhysPlan>,
        key: ColRef,
        cost: f64,
        card: f64,
    },
    Join {
        method: JoinMethod,
        outer: Rc<PhysPlan>,
        inner: Rc<PhysPlan>,
        cost: f64,
        card: f64,
    },
}

/// A DP candidate: a plan covering `set` with a known output order.
#[derive(Debug, Clone)]
pub(crate) struct Cand {
    pub plan: Rc<PhysPlan>,
    pub set: u64,
    pub cost: f64,
    pub card: f64,
    pub order: Option<ColRef>,
}

/// The plans kept for one table set — a pruned frontier, or the single plan
/// a guideline forces — with everything the join formulas need that is a
/// function of the set alone, computed once. Every candidate covers `set`
/// and has cardinality `card`.
#[derive(Debug)]
pub(crate) struct Unit {
    pub set: u64,
    pub card: f64,
    pub cands: Vec<Cand>,
    /// Approximate row width of the set's join output.
    width: f64,
    /// Total belief pages under the set (buffer-pool reasoning for
    /// nested-loop rescans).
    pages: f64,
    /// Cost of sorting the set's output.
    sort_cost: f64,
    /// The cheapest candidate's cost.
    min_cost: f64,
}

impl Unit {
    /// Cumulative cost of `c` with its output ordered on `key`: a sort on
    /// top unless it is ordered that way already.
    fn sorted_cost(&self, c: &Cand, key: ColRef) -> f64 {
        if c.order == Some(key) {
            c.cost
        } else {
            c.cost + self.sort_cost
        }
    }

    /// The least [`Unit::sorted_cost`] over the unit's plans.
    fn min_sorted_cost(&self, key: ColRef) -> f64 {
        self.cands
            .iter()
            .map(|c| self.sorted_cost(c, key))
            .fold(f64::INFINITY, f64::min)
    }
}

/// What every join alternative of one orientation (`outer` ⋈ `inner`)
/// shares, computed once by [`Planner::cost_pair`], and the bounds that
/// let an enumerator skip the orientation (see "Bounding" in the module
/// docs). [`PairCosts::for_each_join`] reads these constants.
#[derive(Debug)]
pub(crate) struct PairCosts<'n> {
    /// Join key pair: (outer-side column, inner-side column).
    key: (ColRef, ColRef),
    /// `est.join_card` of the combined set.
    card: f64,
    /// Hash-join deltas, plain and (when the config enables it) bloom.
    hs: f64,
    hs_bloom: Option<f64>,
    /// Merge-join delta.
    ms: f64,
    /// Nested-loop delta per inner plan, in `inner.cands` order: it reads
    /// the inner plan, never the outer one.
    nl: &'n [f64],
    /// The least of `nl`: no NL alternative with outer plan `oc` costs
    /// less than `oc.cost + min_nl`.
    pub min_nl: f64,
    /// No merge-join alternative costs less.
    pub ms_bound: f64,
    /// No alternative of the orientation costs less.
    pub bound: f64,
}

impl<'n> PairCosts<'n> {
    /// The one statement of the join cost formulas: every alternative that
    /// joins a plan of `outer` to a plan of `inner` (this orientation only,
    /// the one `self` was costed for), in the fixed order outer × inner ×
    /// NL → HS → HS-bloom → MS, handed to `emit` unbuilt.
    pub fn for_each_join<'c>(
        &self,
        outer: &'c Unit,
        inner: &'c Unit,
        mut emit: impl FnMut(JoinAlt<'c>),
    ) {
        let (key, card) = (self.key, self.card);
        for oc in &outer.cands {
            let o_sorted = outer.sorted_cost(oc, key.0);
            for (ic, &nl) in inner.cands.iter().zip(self.nl) {
                let i_sorted = inner.sorted_cost(ic, key.1);
                let mut alt = |method, cost, order| {
                    emit(JoinAlt {
                        method,
                        key,
                        outer: oc,
                        inner: ic,
                        cost,
                        card,
                        order,
                        sorted: (o_sorted, i_sorted),
                    })
                };
                alt(JoinMethod::Nl, oc.cost + nl, oc.order);
                alt(
                    JoinMethod::Hs { bloom: false },
                    oc.cost + ic.cost + self.hs,
                    None,
                );
                if let Some(hs_bloom) = self.hs_bloom {
                    let cost = oc.cost + ic.cost + hs_bloom;
                    alt(JoinMethod::Hs { bloom: true }, cost, None);
                }
                // Merge join: each side sorted unless already ordered on
                // the key.
                alt(JoinMethod::Ms, o_sorted + i_sorted + self.ms, Some(key.0));
            }
        }
    }
}

/// One join alternative, costed but not built: what [`PairCosts::for_each_join`]
/// emits. Plain values and two borrows, so the thousands of alternatives
/// pruning discards never touch the heap; [`JoinAlt::build`] makes the plan
/// node for one that survives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinAlt<'c> {
    pub method: JoinMethod,
    /// Join key pair: (outer-side column, inner-side column).
    pub key: (ColRef, ColRef),
    pub outer: &'c Cand,
    pub inner: &'c Cand,
    pub cost: f64,
    pub card: f64,
    pub order: Option<ColRef>,
    /// Cumulative (outer, inner) input costs once each is ordered on its
    /// key column — what a merge join's inputs cost.
    pub sorted: (f64, f64),
}

impl JoinAlt<'_> {
    /// Materialise the plan node, wrapping a merge join's inputs in the
    /// sorts they need.
    pub fn build(&self) -> Cand {
        let input = |c: &Cand, key: ColRef, sorted_cost: f64| {
            if self.method != JoinMethod::Ms || c.order == Some(key) {
                Rc::clone(&c.plan)
            } else {
                Rc::new(PhysPlan::Sort {
                    child: Rc::clone(&c.plan),
                    key,
                    cost: sorted_cost,
                    card: c.card,
                })
            }
        };
        Cand {
            plan: Rc::new(PhysPlan::Join {
                method: self.method,
                outer: input(self.outer, self.key.0, self.sorted.0),
                inner: input(self.inner, self.key.1, self.sorted.1),
                cost: self.cost,
                card: self.card,
            }),
            set: self.outer.set | self.inner.set,
            cost: self.cost,
            card: self.card,
            order: self.order,
        }
    }
}

/// [`prune`] as a fold over a stream of join alternatives: holds only what
/// could still survive, and [`Frontier::finish`] builds exactly the plans
/// `prune` would keep of the whole stream, in the order it would return
/// them — per distinct order the cheapest alternative, the first offered
/// winning ties; the cheapest unordered one only if it ranks first overall;
/// ranked by (cost, offer order). Like `prune` it keeps every distinct
/// order it is offered; the enumerators offer only live ones (see
/// [`Planner::offer_live`]).
#[derive(Debug)]
pub(crate) struct Frontier<'c> {
    /// Alternatives offered so far, i.e. the next one's rank among equals.
    offered: usize,
    /// The least cost offered so far.
    best: f64,
    unordered: Option<(usize, JoinAlt<'c>)>,
    /// At most one entry per distinct `Some(order)`.
    ordered: Vec<(usize, JoinAlt<'c>)>,
}

impl Default for Frontier<'_> {
    fn default() -> Self {
        Frontier {
            offered: 0,
            best: f64::INFINITY,
            unordered: None,
            ordered: Vec::new(),
        }
    }
}

impl<'c> Frontier<'c> {
    pub fn offer(&mut self, alt: JoinAlt<'c>) {
        let entry = (self.offered, alt);
        self.offered += 1;
        self.best = self.best.min(alt.cost);
        let incumbent = match alt.order {
            None => self.unordered.as_mut(),
            Some(_) => self.ordered.iter_mut().find(|(_, k)| k.order == alt.order),
        };
        match incumbent {
            Some(kept) => {
                if alt.cost < kept.1.cost {
                    *kept = entry;
                }
            }
            None if alt.order.is_none() => self.unordered = Some(entry),
            None => self.ordered.push(entry),
        }
    }

    /// Whether offering what `pair` emits for `outer` ⋈ `inner` could
    /// change what [`Frontier::finish`] builds, `live` being the set's live
    /// orders (found at the first offer). It could not once the pair's
    /// bound is no less than the cheapest cost offered and every live order
    /// the pair could carry is held at no more than that order's own bound:
    /// an equal cost never displaces an earlier offer (see "Bounding" in
    /// the module docs).
    fn could_change(&self, outer: &Unit, pair: &PairCosts, live: &[ColRef]) -> bool {
        if self.offered == 0 || pair.bound < self.best {
            return true;
        }
        let held = |order: ColRef, bound: f64| {
            !live.contains(&order)
                || self
                    .ordered
                    .iter()
                    .any(|(_, kept)| kept.order == Some(order) && kept.cost <= bound)
        };
        // NL carries the outer plan's order, MS the outer key.
        let nl_held = outer
            .cands
            .iter()
            .all(|oc| oc.order.is_none_or(|o| held(o, oc.cost + pair.min_nl)));
        !(nl_held && held(pair.key.0, pair.ms_bound))
    }

    pub fn finish(mut self) -> Vec<Cand> {
        let rank = |a: &(usize, JoinAlt), b: &(usize, JoinAlt)| {
            cmp_cost(a.1.cost, b.1.cost).then(a.0.cmp(&b.0))
        };
        self.ordered.sort_by(rank);
        self.unordered
            .iter()
            .filter(|u| self.ordered.first().is_none_or(|o| rank(u, o).is_lt()))
            .chain(&self.ordered)
            .map(|(_, alt)| alt.build())
            .collect()
    }
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Maximum number of units planned with exhaustive DP; larger queries
    /// fall back to greedy pair merging. Values above 16 act as 16: the DP
    /// table is dense in `2^units`.
    pub dp_unit_limit: usize,
    /// Whether the bloom-filter hash-join variant is considered by the
    /// cost-based search. (It is always available to guidelines.)
    pub enable_bloom: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            dp_unit_limit: 10,
            enable_bloom: true,
        }
    }
}

/// Outcome of planning with a guideline document.
#[derive(Debug, Clone, Default)]
pub struct GuidelineOutcome {
    /// Per guideline root: whether it was honored in the final plan.
    pub honored: Vec<bool>,
    /// Human-readable reasons for dropped guidelines.
    pub notes: Vec<String>,
}

pub(crate) struct Planner<'a> {
    db: &'a Database,
    query: &'a Query,
    pub est: CardEstimator,
    cm: CostModel<'a>,
    config: &'a PlannerConfig,
    /// Per table instance: its row width as a unit's width counts it, and
    /// its belief pages.
    widths: Vec<f64>,
    pages: Vec<f64>,
    #[cfg(test)]
    pub work: std::cell::Cell<Work>,
}

/// What the enumerators did, counted for the tests.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Work {
    /// DP orientations whose halves a join key connects.
    pub considered: usize,
    /// Of those, the ones whose alternatives were costed and offered.
    pub costed: usize,
    /// Greedy ordered pairs a join key connects.
    pub connected: usize,
    /// Greedy pair frontiers built.
    pub built: usize,
}

/// Buffers the enumerators reuse, so costing an orientation allocates
/// nothing.
#[derive(Debug, Default)]
struct Buffers {
    keys: Vec<KeyPair>,
    /// `keys` with each pair swapped: the other orientation's keys.
    mirrored: Vec<KeyPair>,
    nl: Vec<f64>,
}

/// A greedy pair, once looked at.
enum Pair {
    Disconnected,
    /// Its [`PairCosts::bound`]: no plan of its frontier is cheaper.
    Bounded(f64),
    /// Its frontier, cheapest plan first.
    Built(Vec<Cand>),
}

impl<'a> Planner<'a> {
    pub fn new(db: &'a Database, query: &'a Query, config: &'a PlannerConfig) -> Self {
        let (widths, pages) = query
            .tables
            .iter()
            .map(|tref| {
                let width = (db.table(tref.table).row_size() as f64).min(64.0);
                (width, db.belief.table(tref.table).pages as f64)
            })
            .unzip();
        Planner {
            db,
            query,
            est: CardEstimator::belief(db, query),
            cm: CostModel::belief(db),
            config,
            widths,
            pages,
            #[cfg(test)]
            work: Default::default(),
        }
    }

    #[cfg(test)]
    fn tally(&self, count: impl FnOnce(&mut Work)) {
        let mut work = self.work.get();
        count(&mut work);
        self.work.set(work);
    }

    // ---- access paths ----

    /// Columns of instance `t` used anywhere in the query.
    fn used_columns(&self, t: usize) -> Vec<ColumnId> {
        let mut cols: Vec<ColumnId> = Vec::new();
        let push = |c: ColumnId, cols: &mut Vec<ColumnId>| {
            if !cols.contains(&c) {
                cols.push(c);
            }
        };
        for j in &self.query.joins {
            if j.left.table_idx == t {
                push(j.left.column, &mut cols);
            }
            if j.right.table_idx == t {
                push(j.right.column, &mut cols);
            }
        }
        for l in &self.query.locals {
            if l.col.table_idx == t {
                push(l.col.column, &mut cols);
            }
        }
        for p in &self.query.projections {
            if p.table_idx == t {
                push(p.column, &mut cols);
            }
        }
        cols
    }

    /// All access-path candidates for one table instance, pruned to the
    /// cost/order pareto frontier.
    pub fn access_candidates(&self, t: usize) -> Vec<Cand> {
        prune(self.access_candidates_raw(t))
    }

    /// All access-path candidates, unpruned (guideline resolution must see
    /// dominated paths too — a guideline may legitimately force one).
    pub fn access_candidates_raw(&self, t: usize) -> Vec<Cand> {
        let table_id = self.query.tables[t].table;
        let table = self.db.table(table_id);
        let filtered = self.est.filtered_card(t);
        let n_preds = self.query.locals_of(t).count();
        let used = self.used_columns(t);

        let mut cands = vec![Cand {
            plan: Rc::new(PhysPlan::Access {
                table_idx: t,
                path: AccessPath::TbScan,
                cost: self.cm.tbscan(table_id, n_preds),
                card: filtered,
            }),
            set: 1 << t,
            cost: self.cm.tbscan(table_id, n_preds),
            card: filtered,
            order: None,
        }];

        for (ix_id, ix) in table.indexes.iter().enumerate() {
            let ix_id = IndexId(ix_id as u32);
            if !used.contains(&ix.column) {
                continue;
            }
            // Sargable fraction: local predicates on the index key.
            let key_sel: f64 = self
                .query
                .locals_of(t)
                .filter(|p| p.col.column == ix.column)
                .map(|p| galo_sql::local_selectivity(&self.db.belief, table_id, p, ix.column))
                .product();
            let fetch = used.iter().any(|&c| c != ix.column);
            let residual = self
                .query
                .locals_of(t)
                .filter(|p| p.col.column != ix.column)
                .count();
            let cost = self.cm.ixscan(table_id, ix_id, key_sel, fetch, residual);
            let path = AccessPath::IxScan {
                index: ix_id,
                fetch,
                key_sel,
            };
            cands.push(Cand {
                plan: Rc::new(PhysPlan::Access {
                    table_idx: t,
                    path,
                    cost,
                    card: filtered,
                }),
                set: 1 << t,
                cost,
                card: filtered,
                order: Some(ColRef {
                    table_idx: t,
                    column: ix.column,
                }),
            });
        }
        cands
    }

    // ---- join construction ----

    /// Wrap the plans kept for one table set. `cands` is non-empty and its
    /// members agree on set and cardinality (one access path's filtered
    /// rows, or one set's `join_card`).
    pub fn unit(&self, cands: Vec<Cand>) -> Unit {
        let (set, card) = cands
            .first()
            .map(|c| (c.set, c.card))
            .expect("a unit holds at least one plan");
        debug_assert!(cands
            .iter()
            .all(|c| c.set == set && c.card.to_bits() == card.to_bits()));
        // In ascending instance order: the sums' bits, and every cost above
        // them, depend on it.
        let (mut width, mut pages) = (0.0, 0.0);
        let mut bits = set;
        while bits != 0 {
            let t = bits.trailing_zeros() as usize;
            width += self.widths[t];
            pages += self.pages[t];
            bits &= bits - 1;
        }
        let width = width.max(8.0);
        let min_cost = cands.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
        Unit {
            set,
            card,
            cands,
            width,
            pages,
            sort_cost: self.cm.sort(card, width),
            min_cost,
        }
    }

    /// What every alternative of `outer` ⋈ `inner` (this orientation only)
    /// shares, and its bounds. `card` is `est.join_card` of the combined
    /// set, `keys` is `est.join_keys_between(outer.set, inner.set)` and is
    /// not empty, and `nl` is a buffer the result borrows.
    ///
    /// Each bound is the same sum, in the same order, as the costs
    /// [`PairCosts::for_each_join`] forms, over the least of each term, so
    /// no alternative is cheaper: NL `min_oc + min_nl`, HS `min_oc + min_ic
    /// + min(hs, hs_bloom)`, MS `min_sorted_outer + min_sorted_inner + ms`.
    pub fn cost_pair<'n>(
        &self,
        outer: &Unit,
        inner: &Unit,
        card: f64,
        keys: &[KeyPair],
        nl: &'n mut Vec<f64>,
    ) -> PairCosts<'n> {
        let &(outer_key, inner_key) = keys.first().expect("a join key connects the pair");
        let key = (col_ref(outer_key), col_ref(inner_key));
        // All of a unit's plans share its cardinality, so the method deltas
        // that read only cardinalities are the same for every pair.
        let match_frac = (card / outer.card.max(1.0)).min(1.0);
        let hsjoin = |bloom| {
            self.cm
                .hsjoin(outer.card, inner.card, inner.width, bloom, match_frac)
        };
        let hs = hsjoin(false);
        let hs_bloom = self.config.enable_bloom.then(|| hsjoin(true));
        let ms = self.cm.msjoin(outer.card, inner.card);
        nl.clear();
        nl.extend(
            inner
                .cands
                .iter()
                .map(|ic| self.nl_delta(outer.card, ic, inner.pages, keys, card)),
        );
        let min_nl = nl.iter().copied().fold(f64::INFINITY, f64::min);

        let ms_bound = outer.min_sorted_cost(key.0) + inner.min_sorted_cost(key.1) + ms;
        let min_hs = hs_bloom.map_or(hs, |hs_bloom| hs.min(hs_bloom));
        let hs_bound = outer.min_cost + inner.min_cost + min_hs;
        let nl_bound = outer.min_cost + min_nl;
        PairCosts {
            key,
            card,
            hs,
            hs_bloom,
            ms,
            nl,
            min_nl,
            ms_bound,
            bound: nl_bound.min(hs_bound).min(ms_bound),
        }
    }

    /// [`Planner::cost_pair`] from the two sets alone: `None` when no join
    /// predicate connects them.
    fn cost_orientation<'b>(
        &self,
        outer: &Unit,
        inner: &Unit,
        buffers: &'b mut Buffers,
    ) -> Option<PairCosts<'b>> {
        self.est
            .join_keys_into(outer.set, inner.set, &mut buffers.keys);
        if buffers.keys.is_empty() {
            return None;
        }
        let card = self.est.join_card(outer.set | inner.set);
        Some(self.cost_pair(outer, inner, card, &buffers.keys, &mut buffers.nl))
    }

    /// Nested-loop delta cost: index probes when the inner is an index
    /// access on the join key; re-execution with buffer-pool discount
    /// otherwise.
    fn nl_delta(
        &self,
        outer_card: f64,
        ic: &Cand,
        inner_pages: f64,
        keys: &[KeyPair],
        join_card: f64,
    ) -> f64 {
        if let PhysPlan::Access {
            table_idx,
            path: AccessPath::IxScan { index, fetch, .. },
            ..
        } = &*ic.plan
        {
            let table_id = self.query.tables[*table_idx].table;
            let ix_column = self.db.table(table_id).index(*index).column;
            let on_join_key = keys
                .iter()
                .any(|&(_, (it, icol))| it == *table_idx && ix_column == icol);
            if on_join_key {
                let per_probe = join_card / outer_card.max(1.0);
                return outer_card * self.cm.index_probe(table_id, *index, per_probe, *fetch);
            }
        }
        self.cm.nljoin_rescan(outer_card, ic.cost, inner_pages)
    }

    /// All join candidates combining a plan of `outer` with a plan of
    /// `inner`, every one built (both orientations are produced by calling
    /// this twice); none when no join predicate connects them. Enumeration
    /// prunes through a [`Frontier`] instead; this is for callers that pick
    /// by something other than cost.
    pub fn join_candidates(&self, outer: &Unit, inner: &Unit) -> Vec<Cand> {
        let mut out = Vec::new();
        if let Some(pair) = self.cost_orientation(outer, inner, &mut Buffers::default()) {
            pair.for_each_join(outer, inner, |alt| out.push(alt.build()));
        }
        out
    }

    /// The pruned frontier of `outer` ⋈ `inner`, this orientation only.
    fn join_frontier(
        &self,
        outer: &Unit,
        inner: &Unit,
        buffers: &mut Buffers,
        live: &mut Vec<ColRef>,
    ) -> Vec<Cand> {
        let mut frontier = Frontier::default();
        if let Some(pair) = self.cost_orientation(outer, inner, buffers) {
            pair.for_each_join(outer, inner, |alt| {
                self.offer_live(&mut frontier, live, alt)
            });
        }
        frontier.finish()
    }

    /// The orders a plan of table set `set` can still put to use, into
    /// `live`: for every equivalence class with members both inside and
    /// outside `set`, its first member inside (see the module docs).
    fn live_orders(&self, set: u64, live: &mut Vec<ColRef>) {
        live.clear();
        for class in self.est.classes() {
            let Some((table_idx, column)) = class.members_in(set).next() else {
                continue;
            };
            if class.members.iter().any(|&(t, _)| set & (1 << t) == 0) {
                live.push(ColRef { table_idx, column });
            }
        }
    }

    /// Offer one join alternative to the frontier of its table set, its
    /// order turned into `None` unless the set can use it. The set's live
    /// orders are found at the frontier's first offer, so a set no split
    /// joins never pays for them, and one buffer serves every set.
    fn offer_live<'c>(
        &self,
        frontier: &mut Frontier<'c>,
        live: &mut Vec<ColRef>,
        mut alt: JoinAlt<'c>,
    ) {
        if frontier.offered == 0 {
            self.live_orders(alt.outer.set | alt.inner.set, live);
        }
        alt.order = alt.order.filter(|c| live.contains(c));
        frontier.offer(alt);
    }

    // ---- enumeration ----

    /// Plan over an initial set of units. Plain planning passes one unit
    /// per table; guideline planning passes pre-built guideline units.
    pub fn plan_units(&self, units: Vec<Unit>) -> Option<Cand> {
        let whole = if units.len() <= self.config.dp_unit_limit.min(MAX_DP_UNITS) {
            self.dp(units).pop().flatten()
        } else {
            self.greedy(units)
        };
        whole?
            .cands
            .into_iter()
            .min_by(|a, b| cmp_cost(a.cost, b.cost))
    }

    /// Exhaustive DP: the frontier of every connected subset of `units`,
    /// indexed by unit mask (bit `i` = `units[i]`; entry 0 is unused and a
    /// disconnected subset stays `None`). The last entry is the whole
    /// query's.
    pub fn dp(&self, units: Vec<Unit>) -> Vec<Option<Unit>> {
        let n = units.len();
        let mut table: Vec<Option<Unit>> = Vec::new();
        table.resize_with(1 << n, || None);
        for (i, unit) in units.into_iter().enumerate() {
            table[1 << i] = Some(unit);
        }
        let mut buffers = Buffers::default();
        let mut live = Vec::with_capacity(self.est.classes().len());
        // Ascending numeric order plans every proper submask first.
        for mask in 3..table.len() {
            if mask.is_power_of_two() {
                continue;
            }
            // Each unordered split once, descending by the half without the
            // top unit: the submasks of `rest`.
            let rest = mask & !(1 << mask.ilog2());
            let mut card = None;
            let mut frontier = Frontier::default();
            let mut sub = rest;
            while sub > 0 {
                if let (Some(a), Some(b)) = (&table[sub], &table[mask & !sub]) {
                    self.offer_split(a, b, &mut card, &mut frontier, &mut buffers, &mut live);
                }
                sub = (sub - 1) & rest;
            }
            let cands = frontier.finish();
            if !cands.is_empty() {
                table[mask] = Some(self.unit(cands));
            }
        }
        table
    }

    /// Offer both orientations of the split `a | b` to the frontier of the
    /// union, `a` ⋈ `b` first, skipping an orientation that cannot change
    /// it. `card` is the union's `join_card`, found at its first connected
    /// split.
    fn offer_split<'c>(
        &self,
        a: &'c Unit,
        b: &'c Unit,
        card: &mut Option<f64>,
        frontier: &mut Frontier<'c>,
        buffers: &mut Buffers,
        live: &mut Vec<ColRef>,
    ) {
        let Buffers { keys, mirrored, nl } = buffers;
        self.est.join_keys_into(a.set, b.set, keys);
        if keys.is_empty() {
            return;
        }
        let card = *card.get_or_insert_with(|| self.est.join_card(a.set | b.set));
        mirrored.clear();
        mirrored.extend(keys.iter().map(|&(l, r)| (r, l)));
        for (outer, inner, keys) in [(a, b, &*keys), (b, a, &*mirrored)] {
            #[cfg(test)]
            self.tally(|w| w.considered += 1);
            let pair = self.cost_pair(outer, inner, card, keys, nl);
            if !frontier.could_change(outer, &pair, live) {
                continue;
            }
            #[cfg(test)]
            self.tally(|w| w.costed += 1);
            pair.for_each_join(outer, inner, |alt| self.offer_live(frontier, live, alt));
        }
    }

    /// Greedy pair merging: each round joins the ordered pair of live units
    /// whose frontier holds the cheapest plan (the first such pair in unit
    /// order on a tie) and appends the result as a new unit. Returns the
    /// last unit standing, or `None` for a disconnected query — cross
    /// products are not in this fragment.
    ///
    /// A pair's frontier is built only when its bound is below the round's
    /// best so far: no plan of it is cheaper than the bound, and only a
    /// strictly cheaper plan displaces the best, so a pair skipped this way
    /// could not have won.
    pub fn greedy(&self, units: Vec<Unit>) -> Option<Unit> {
        // Units live in `arena` slots that never move, so a pair's bound
        // and frontier are computed once: a merge only adds the pairs of
        // the new slot.
        let mut arena = units;
        let mut live: Vec<usize> = (0..arena.len()).collect();
        let slots = (2 * arena.len()).saturating_sub(1);
        let mut pairs: Vec<Option<Pair>> = Vec::new();
        pairs.resize_with(slots * slots, || None);
        let mut buffers = Buffers::default();
        let mut orders = Vec::with_capacity(self.est.classes().len());
        while live.len() > 1 {
            let mut best: Option<(usize, usize, f64)> = None;
            for (a, &i) in live.iter().enumerate() {
                for (b, &j) in live.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let (outer, inner) = (&arena[i], &arena[j]);
                    let pair = pairs[i * slots + j].get_or_insert_with(|| {
                        match self.cost_orientation(outer, inner, &mut buffers) {
                            None => Pair::Disconnected,
                            Some(costs) => {
                                #[cfg(test)]
                                self.tally(|w| w.connected += 1);
                                Pair::Bounded(costs.bound)
                            }
                        }
                    });
                    if let Pair::Bounded(bound) = *pair {
                        if best.is_some_and(|(_, _, cost)| bound >= cost) {
                            continue;
                        }
                        #[cfg(test)]
                        self.tally(|w| w.built += 1);
                        let cands = self.join_frontier(outer, inner, &mut buffers, &mut orders);
                        *pair = Pair::Built(cands);
                    }
                    // A frontier's first plan is its cheapest.
                    let Pair::Built(cands) = pair else {
                        continue;
                    };
                    let cheapest = cands[0].cost;
                    if best.is_none_or(|(_, _, cost)| cheapest < cost) {
                        best = Some((a, b, cheapest));
                    }
                }
            }
            let (a, b, _) = best?;
            let Some(Pair::Built(cands)) = pairs[live[a] * slots + live[b]].take() else {
                unreachable!("the winning pair's frontier was built");
            };
            live.remove(a.max(b));
            live.remove(a.min(b));
            live.push(arena.len());
            arena.push(self.unit(cands));
        }
        arena.pop()
    }

    /// One unit per table instance: its pruned access paths.
    pub fn table_units(&self) -> Vec<Unit> {
        (0..self.query.tables.len())
            .map(|t| self.unit(self.access_candidates(t)))
            .collect()
    }

    /// Plain cost-based plan.
    pub fn plan(&self) -> Option<Cand> {
        self.plan_units(self.table_units())
    }

    // ---- guidelines ----

    /// Resolve a guideline tree into a candidate, or explain why it cannot
    /// be honored.
    pub fn guideline_cand(&self, node: &GuidelineNode) -> Result<Cand, String> {
        match node {
            GuidelineNode::TbScan { tabid } => {
                let t = self.instance_of(tabid)?;
                self.access_candidates_raw(t)
                    .into_iter()
                    .find(|c| {
                        matches!(
                            &*c.plan,
                            PhysPlan::Access {
                                path: AccessPath::TbScan,
                                ..
                            }
                        )
                    })
                    .ok_or_else(|| format!("no TBSCAN candidate for {tabid}"))
            }
            GuidelineNode::IxScan { tabid, index } => {
                let t = self.instance_of(tabid)?;
                let table = self.db.table(self.query.tables[t].table);
                let cands = self.access_candidates_raw(t);
                let found = cands.into_iter().find(|c| match &*c.plan {
                    PhysPlan::Access {
                        path: AccessPath::IxScan { index: ix, .. },
                        ..
                    } => match index {
                        Some(name) => table.index(*ix).name.eq_ignore_ascii_case(name),
                        None => true,
                    },
                    _ => false,
                });
                found.ok_or_else(|| {
                    format!(
                        "no usable index{} on table reference {tabid}",
                        index
                            .as_ref()
                            .map(|n| format!(" '{n}'"))
                            .unwrap_or_default()
                    )
                })
            }
            GuidelineNode::HsJoin(o, i)
            | GuidelineNode::MsJoin(o, i)
            | GuidelineNode::NlJoin(o, i) => {
                let oc = self.guideline_cand(o)?;
                let ic = self.guideline_cand(i)?;
                if !self.est.connected(oc.set, ic.set) {
                    return Err("guideline joins disconnected table references".into());
                }
                let wanted = match node {
                    GuidelineNode::HsJoin(..) => JoinMethod::Hs { bloom: false },
                    GuidelineNode::MsJoin(..) => JoinMethod::Ms,
                    GuidelineNode::NlJoin(..) => JoinMethod::Nl,
                    _ => unreachable!(),
                };
                self.join_candidates(&self.unit(vec![oc]), &self.unit(vec![ic]))
                    .into_iter()
                    .filter(|c| match (&*c.plan, wanted) {
                        (
                            PhysPlan::Join {
                                method: JoinMethod::Hs { .. },
                                ..
                            },
                            JoinMethod::Hs { .. },
                        ) => true,
                        (PhysPlan::Join { method, .. }, w) => *method == w,
                        _ => false,
                    })
                    .min_by(|a, b| cmp_cost(a.cost, b.cost))
                    .ok_or_else(|| "guideline join method not constructible".into())
            }
        }
    }

    fn instance_of(&self, tabid: &str) -> Result<usize, String> {
        self.query
            .tables
            .iter()
            .position(|t| t.qualifier.eq_ignore_ascii_case(tabid))
            .or_else(|| {
                // TABLE attribute alternative: match by base-table name if
                // the reference is unambiguous.
                let matches: Vec<usize> = self
                    .query
                    .tables
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| self.db.table(t.table).name.eq_ignore_ascii_case(tabid))
                    .map(|(i, _)| i)
                    .collect();
                if matches.len() == 1 {
                    Some(matches[0])
                } else {
                    None
                }
            })
            .ok_or_else(|| format!("unknown table reference '{tabid}'"))
    }

    /// Plan under a guideline document. Guidelines that cannot be honored
    /// (unknown references, missing indexes, overlap with an earlier
    /// guideline) are dropped, exactly like DB2's behaviour described in
    /// the paper's footnote 2.
    pub fn plan_with_guidelines(&self, doc: &GuidelineDoc) -> (Option<Cand>, GuidelineOutcome) {
        let (units, outcome) = self.guideline_units(doc);
        (self.plan_units(units), outcome)
    }

    /// The units guideline planning starts from: one single-plan unit per
    /// honored guideline root, then the pruned access paths of every table
    /// no guideline covers.
    pub fn guideline_units(&self, doc: &GuidelineDoc) -> (Vec<Unit>, GuidelineOutcome) {
        let mut outcome = GuidelineOutcome::default();
        let mut units: Vec<Unit> = Vec::new();
        let mut covered: u64 = 0;

        for (gi, root) in doc.roots.iter().enumerate() {
            match self.guideline_cand(root) {
                Ok(cand) => {
                    if cand.set & covered != 0 {
                        outcome.honored.push(false);
                        outcome
                            .notes
                            .push(format!("guideline #{gi} overlaps an earlier guideline"));
                        continue;
                    }
                    covered |= cand.set;
                    units.push(self.unit(vec![cand]));
                    outcome.honored.push(true);
                }
                Err(reason) => {
                    outcome.honored.push(false);
                    outcome.notes.push(format!("guideline #{gi}: {reason}"));
                }
            }
        }

        for t in 0..self.query.tables.len() {
            if covered & (1 << t) == 0 {
                units.push(self.unit(self.access_candidates(t)));
            }
        }
        (units, outcome)
    }
}

fn col_ref((table_idx, column): (usize, ColumnId)) -> ColRef {
    ColRef { table_idx, column }
}

/// Costs are never NaN, so this is a total order on them.
fn cmp_cost(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Pareto pruning: keep the cheapest candidate overall plus the cheapest
/// per distinct output order, whether or not any later join can use that
/// order. Access paths are pruned this way; join sets keep only live
/// orders (see the module docs).
pub(crate) fn prune(mut cands: Vec<Cand>) -> Vec<Cand> {
    cands.sort_by(|a, b| cmp_cost(a.cost, b.cost));
    let mut kept: Vec<Cand> = Vec::new();
    for c in cands {
        let dominated = kept
            .iter()
            .any(|k| k.cost <= c.cost && (k.order == c.order || c.order.is_none()));
        if !dominated {
            kept.push(c);
        }
    }
    kept
}

/// Convert a physical plan into a QGM that owns `query`.
pub(crate) fn to_qgm(query: Query, plan: &PhysPlan) -> Qgm {
    let mut b = Qgm::builder(query);
    let top = emit(&mut b, plan);
    b.finish(top)
}

fn emit(b: &mut galo_qgm::QgmBuilder, plan: &PhysPlan) -> galo_qgm::PopId {
    match plan {
        PhysPlan::Access {
            table_idx,
            path,
            cost,
            card,
        } => {
            let kind = match path {
                AccessPath::TbScan => PopKind::TbScan { table: *table_idx },
                AccessPath::IxScan { index, fetch, .. } => PopKind::IxScan {
                    table: *table_idx,
                    index: *index,
                    fetch: *fetch,
                },
            };
            b.add(kind, vec![], *card, *cost)
        }
        PhysPlan::Sort {
            child,
            key,
            cost,
            card,
        } => {
            let c = emit(b, child);
            let id = b.add(PopKind::Sort { key: Some(*key) }, vec![c], *card, *cost);
            b.set_order(id, Some(*key));
            id
        }
        PhysPlan::Join {
            method,
            outer,
            inner,
            cost,
            card,
            ..
        } => {
            let o = emit(b, outer);
            let i = emit(b, inner);
            let kind = match method {
                JoinMethod::Nl => PopKind::NlJoin,
                JoinMethod::Hs { bloom } => PopKind::HsJoin { bloom: *bloom },
                JoinMethod::Ms => PopKind::MsJoin,
            };
            b.add(kind, vec![o, i], *card, *cost)
        }
    }
}
