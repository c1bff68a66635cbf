//! Plan enumeration: System-R dynamic programming over connected table
//! sets with interesting orders, a greedy fallback for very large queries
//! (TPC-DS reaches 31-way joins, where exhaustive DP is infeasible — real
//! optimizers degrade the same way), access-path selection, and
//! guideline-constrained planning.
//!
//! **Flat state.** One planning's candidate plans live in one arena
//! ([`Planner::arena`]). An access path is a leaf; a join candidate records
//! its method and the arena ids of its outer and inner candidates, a
//! back-pointer each ([`Step::Join`]), so keeping an alternative copies a
//! few words and shares its inputs without a reference count. A [`Unit`] —
//! the plans kept for one table set — is a contiguous id range of the arena.
//! The DP table is a `u32` slot per mask pointing into a vector of the
//! connected sets' units ([`DpTable`]), and one [`Frontier`] buffer serves
//! every mask. The plan tree is built once, for the winner, by
//! [`Planner::qgm`]. A merge join's key and its inputs' sorts are
//! functions of the two inputs' table sets, so that is where they are
//! worked out again, by the same formulas the costing used.
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

use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;

use galo_catalog::{ColumnId, Database, IndexId};
use galo_qgm::{GuidelineDoc, GuidelineNode, PopKind, Qgm};
use galo_sql::{CardEstimator, ColRef, KeyPair, Query, TableRef};

use crate::cost::{CostModel, ProbeTerms};

/// Exhaustive DP keeps a dense table of `2^units` slots, so the unit
/// count it accepts is capped here whatever
/// [`PlannerConfig::dp_unit_limit`] asks for: 16 units is a 65,536-slot
/// table and already ~21 M splits on a clique; wider queries plan greedily.
pub(crate) const MAX_DP_UNITS: usize = 16;

/// How a base table is accessed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AccessPath {
    TbScan,
    IxScan { index: IndexId, fetch: bool },
}

/// Physical join method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinMethod {
    Nl,
    Hs { bloom: bool },
    Ms,
}

/// Index of a candidate in its planning's arena ([`Planner::arena`]).
pub(crate) type CandId = u32;

/// The last step of a candidate's plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    Access {
        table_idx: usize,
        path: AccessPath,
    },
    /// `outer` ⋈ `inner`, both arena ids. A merge join sorts each input that
    /// is not already ordered on its key column.
    Join {
        method: JoinMethod,
        outer: CandId,
        inner: CandId,
    },
}

/// A candidate plan covering `set` with a known output order. Cost and
/// cardinality are cumulative and fixed at construction, so a kept
/// candidate's id can stand for its whole plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand {
    pub step: Step,
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
    /// The plans' arena ids.
    pub cands: Range<CandId>,
    /// Approximate row width of the set's join output.
    width: f64,
    /// [`CostModel::rescan_factor`] of the set's total belief pages: what
    /// a nested-loop rescan of one of its plans costs, as a share of the
    /// plan's cost.
    rescan: f64,
    /// Cost of sorting the set's output.
    sort_cost: f64,
    /// The cheapest candidate's cost.
    min_cost: f64,
}

impl Unit {
    /// The unit's plans, in `arena`.
    pub fn plans<'c>(&self, arena: &'c [Cand]) -> &'c [Cand] {
        &arena[self.cands.start as usize..self.cands.end as usize]
    }

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
    fn min_sorted_cost(&self, arena: &[Cand], key: ColRef) -> f64 {
        self.plans(arena)
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

impl PairCosts<'_> {
    /// The one statement of the join cost formulas: every alternative that
    /// joins a plan of `outer` to a plan of `inner` (this orientation only,
    /// the one `self` was costed for), in the fixed order outer × inner ×
    /// NL → HS → HS-bloom → MS, handed to `emit` unbuilt. With `live`, an
    /// order not in it is turned into `None` (see the module docs); the
    /// test runs once per order an alternative can carry — the merge key,
    /// then each outer plan's.
    pub fn for_each_join(
        &self,
        arena: &[Cand],
        outer: &Unit,
        inner: &Unit,
        live: Option<&[ColRef]>,
        mut emit: impl FnMut(JoinAlt),
    ) {
        let (key, card) = (self.key, self.card);
        let set = outer.set | inner.set;
        let keep = |order: Option<ColRef>| match live {
            Some(live) => order.filter(|c| live.contains(c)),
            None => order,
        };
        let ms_order = keep(Some(key.0));
        for (oid, oc) in outer.cands.clone().zip(outer.plans(arena)) {
            let o_sorted = outer.sorted_cost(oc, key.0);
            let nl_order = keep(oc.order);
            let inners = inner.cands.clone().zip(inner.plans(arena));
            for ((iid, ic), &nl) in inners.zip(self.nl) {
                let i_sorted = inner.sorted_cost(ic, key.1);
                let mut alt = |method, cost, order| {
                    emit(JoinAlt {
                        method,
                        outer: oid,
                        inner: iid,
                        set,
                        cost,
                        card,
                        order,
                    })
                };
                alt(JoinMethod::Nl, oc.cost + nl, nl_order);
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
                alt(JoinMethod::Ms, o_sorted + i_sorted + self.ms, ms_order);
            }
        }
    }
}

/// One join alternative, costed but not built: what
/// [`PairCosts::for_each_join`] emits. Plain values and two arena ids, so
/// the thousands of alternatives pruning discards never touch the heap;
/// [`JoinAlt::build`] makes the candidate for one that survives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinAlt {
    pub method: JoinMethod,
    pub outer: CandId,
    pub inner: CandId,
    /// The union of the two inputs' sets.
    pub set: u64,
    pub cost: f64,
    pub card: f64,
    pub order: Option<ColRef>,
}

impl JoinAlt {
    /// The candidate, pointing back at its inputs.
    pub fn build(&self) -> Cand {
        Cand {
            step: Step::Join {
                method: self.method,
                outer: self.outer,
                inner: self.inner,
            },
            set: self.set,
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
/// order it is offered; the enumerators offer only live ones. `finish`
/// empties it, so one frontier serves one table set after another.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// Alternatives offered so far, i.e. the next one's rank among equals.
    offered: usize,
    /// The least cost offered so far.
    best: f64,
    unordered: Option<(usize, JoinAlt)>,
    /// At most one entry per distinct `Some(order)`.
    ordered: Vec<(usize, JoinAlt)>,
}

impl Default for Frontier {
    fn default() -> Self {
        Frontier {
            offered: 0,
            best: f64::INFINITY,
            unordered: None,
            ordered: Vec::new(),
        }
    }
}

impl Frontier {
    pub fn offer(&mut self, alt: JoinAlt) {
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
    fn could_change(
        &self,
        arena: &[Cand],
        outer: &Unit,
        pair: &PairCosts,
        live: &[ColRef],
    ) -> bool {
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
            .plans(arena)
            .iter()
            .all(|oc| oc.order.is_none_or(|o| held(o, oc.cost + pair.min_nl)));
        !(nl_held && held(pair.key.0, pair.ms_bound))
    }

    /// The kept plans, built, cheapest first; the frontier is left empty.
    pub fn finish(&mut self) -> impl Iterator<Item = Cand> + '_ {
        let rank = |a: &(usize, JoinAlt), b: &(usize, JoinAlt)| {
            cmp_cost(a.1.cost, b.1.cost).then(a.0.cmp(&b.0))
        };
        self.offered = 0;
        self.best = f64::INFINITY;
        self.ordered.sort_by(rank);
        let first = self.ordered.first();
        let unordered = self
            .unordered
            .take()
            .filter(|u| first.is_none_or(|o| rank(u, o).is_lt()));
        unordered
            .into_iter()
            .chain(self.ordered.drain(..))
            .map(|(_, alt)| alt.build())
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
    query: Query,
    pub est: CardEstimator,
    cm: CostModel<'a>,
    config: &'a PlannerConfig,
    /// Per table instance, what the join formulas read of it.
    instances: Vec<Instance>,
    /// Per index of every table instance, what a nested-loop probe of it
    /// costs less the rows ([`Instance::first_probe`]).
    probes: Vec<ProbeTerms>,
    /// Every candidate kept while planning, addressed by [`CandId`]: an
    /// entry's inputs are earlier entries. Planning only appends; the
    /// random plan generator empties it between samples.
    pub arena: RefCell<Vec<Cand>>,
    #[cfg(test)]
    pub work: std::cell::Cell<Work>,
}

/// One table instance, as the join formulas read it.
struct Instance {
    /// Its row width as a unit's width counts it.
    width: f64,
    /// Its belief pages.
    pages: f64,
    /// Where its indexes' entries start in [`Planner::probes`], in index
    /// order.
    first_probe: usize,
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

/// Buffers the enumerators reuse, so costing and offering an orientation
/// allocates nothing.
#[derive(Debug, Default)]
struct Buffers {
    keys: Vec<KeyPair>,
    /// `keys` with each pair swapped: the other orientation's keys.
    mirrored: Vec<KeyPair>,
    nl: Vec<f64>,
    /// The live orders of the table set being planned.
    live: Vec<ColRef>,
    frontier: Frontier,
}

/// A slot of the DP table that holds no unit: its mask is not connected.
const NO_UNIT: u32 = u32::MAX;

/// What [`Planner::dp`] returns: the frontier of every connected subset of
/// its units, by unit mask (bit `i` = `units[i]`).
#[derive(Debug)]
pub(crate) struct DpTable {
    /// Per mask, the index of its unit in `units`, or [`NO_UNIT`].
    slots: Vec<u32>,
    /// The connected sets' units, the single units first.
    units: Vec<Unit>,
}

impl DpTable {
    /// The unit of table set `mask`, if it is connected.
    #[cfg(test)]
    pub fn get(&self, mask: usize) -> Option<&Unit> {
        let slot = self.slots[mask];
        (slot != NO_UNIT).then(|| &self.units[slot as usize])
    }

    /// The number of masks; the last one is the whole query's.
    #[cfg(test)]
    pub fn masks(&self) -> usize {
        self.slots.len()
    }

    /// The whole query's unit.
    fn into_whole(mut self) -> Option<Unit> {
        let slot = *self.slots.last()?;
        (slot != NO_UNIT).then(|| self.units.swap_remove(slot as usize))
    }
}

/// A greedy pair, once looked at.
enum Pair {
    Disconnected,
    /// Its [`PairCosts::bound`]: no plan of its frontier is cheaper.
    Bounded(f64),
    /// Its frontier's arena ids, cheapest plan first.
    Built(Range<CandId>),
}

impl<'a> Planner<'a> {
    pub fn new(db: &'a Database, query: Query, config: &'a PlannerConfig) -> Self {
        let cm = CostModel::belief(db);
        let indexes = |tref: &TableRef| db.table(tref.table).indexes.len();
        let mut probes = Vec::with_capacity(query.tables.iter().map(indexes).sum());
        let instances = query
            .tables
            .iter()
            .map(|tref| {
                let first_probe = probes.len();
                probes.extend(
                    (0..indexes(tref) as u32).map(|ix| cm.probe_terms(tref.table, IndexId(ix))),
                );
                Instance {
                    width: (db.table(tref.table).row_size() as f64).min(64.0),
                    pages: db.belief.table(tref.table).pages as f64,
                    first_probe,
                }
            })
            .collect();
        Planner {
            db,
            est: CardEstimator::belief(db, &query),
            query,
            cm,
            config,
            instances,
            probes,
            arena: RefCell::default(),
            #[cfg(test)]
            work: Default::default(),
        }
    }

    /// `c`'s plan as [`Planner::qgm`] builds it, as debug text: every
    /// operator, sort, cost and cardinality.
    #[cfg(test)]
    pub fn plan_text(&self, c: &Cand) -> String {
        format!("{:?}", self.qgm(self.query.clone(), c))
    }

    #[cfg(test)]
    fn tally(&self, count: impl FnOnce(&mut Work)) {
        let mut work = self.work.get();
        count(&mut work);
        self.work.set(work);
    }

    // ---- access paths ----

    /// The columns of instance `t` the query names, each once per mention:
    /// in join predicates, local predicates and projections.
    fn column_refs(&self, t: usize) -> impl Iterator<Item = ColumnId> + '_ {
        let q = &self.query;
        let joins = q.joins.iter().flat_map(|j| [j.left, j.right]);
        let locals = q.locals.iter().map(|l| l.col);
        joins
            .chain(locals)
            .chain(q.projections.iter().copied())
            .filter(move |c| c.table_idx == t)
            .map(|c| c.column)
    }

    /// All access-path candidates for one table instance, pruned to the
    /// cost/order pareto frontier.
    pub fn access_candidates(&self, t: usize) -> Vec<Cand> {
        prune(self.access_candidates_raw(t))
    }

    /// All access-path candidates, unpruned (guideline resolution must see
    /// dominated paths too — a guideline may legitimately force one).
    pub fn access_candidates_raw(&self, t: usize) -> Vec<Cand> {
        let indexes = self.db.table(self.query.tables[t].table).indexes.len();
        let mut cands = Vec::with_capacity(1 + indexes);
        cands.extend(self.access_paths(t));
        cands
    }

    /// [`Planner::access_candidates_raw`], one at a time: the table scan,
    /// then an index scan per index on a column the query names.
    fn access_paths(&self, t: usize) -> impl Iterator<Item = Cand> + '_ {
        let table_id = self.query.tables[t].table;
        let table = self.db.table(table_id);
        let filtered = self.est.filtered_card(t);
        let n_preds = self.query.locals_of(t).count();
        let access = move |path, cost, order| Cand {
            step: Step::Access { table_idx: t, path },
            set: 1 << t,
            cost,
            card: filtered,
            order,
        };

        let tbscan = access(AccessPath::TbScan, self.cm.tbscan(table_id, n_preds), None);
        let ixscans = table
            .indexes
            .iter()
            .enumerate()
            .filter_map(move |(ix_id, ix)| {
                let ix_id = IndexId(ix_id as u32);
                if !self.column_refs(t).any(|c| c == ix.column) {
                    return None;
                }
                // Sargable fraction: local predicates on the index key.
                let key_sel: f64 = self
                    .query
                    .locals_of(t)
                    .filter(|p| p.col.column == ix.column)
                    .map(|p| galo_sql::local_selectivity(&self.db.belief, table_id, p, ix.column))
                    .product();
                let fetch = self.column_refs(t).any(|c| c != ix.column);
                let residual = self
                    .query
                    .locals_of(t)
                    .filter(|p| p.col.column != ix.column)
                    .count();
                let path = AccessPath::IxScan {
                    index: ix_id,
                    fetch,
                };
                let cost = self.cm.ixscan(table_id, ix_id, key_sel, fetch, residual);
                let order = ColRef {
                    table_idx: t,
                    column: ix.column,
                };
                Some(access(path, cost, Some(order)))
            });
        std::iter::once(tbscan).chain(ixscans)
    }

    // ---- join construction ----

    /// Append `cands` to the arena: their ids, in order.
    pub fn keep(&self, cands: impl IntoIterator<Item = Cand>) -> Range<CandId> {
        let mut arena = self.arena.borrow_mut();
        let start = arena.len() as CandId;
        arena.extend(cands);
        start..arena.len() as CandId
    }

    /// Wrap the plans kept for one table set. `cands` is not empty and its
    /// members agree on set and cardinality (one access path's filtered
    /// rows, or one set's `join_card`).
    pub fn unit(&self, cands: Range<CandId>) -> Unit {
        let arena = self.arena.borrow();
        let plans = &arena[cands.start as usize..cands.end as usize];
        let (set, card) = plans
            .first()
            .map(|c| (c.set, c.card))
            .expect("a unit holds at least one plan");
        debug_assert!(plans
            .iter()
            .all(|c| c.set == set && c.card.to_bits() == card.to_bits()));
        let (width, pages) = self.width_and_pages(set);
        let min_cost = plans.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
        Unit {
            set,
            card,
            cands,
            width,
            rescan: self.cm.rescan_factor(pages),
            sort_cost: self.cm.sort(card, width),
            min_cost,
        }
    }

    /// A table set's approximate join-output row width, and its total
    /// belief pages.
    fn width_and_pages(&self, set: u64) -> (f64, f64) {
        // In ascending instance order: the sums' bits, and every cost above
        // them, depend on it.
        let (mut width, mut pages) = (0.0, 0.0);
        let mut bits = set;
        while bits != 0 {
            let t = bits.trailing_zeros() as usize;
            width += self.instances[t].width;
            pages += self.instances[t].pages;
            bits &= bits - 1;
        }
        (f64::max(width, 8.0), pages)
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
        arena: &[Cand],
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
                .plans(arena)
                .iter()
                .map(|ic| self.nl_delta(outer.card, ic, inner.rescan, keys, card)),
        );
        let min_nl = nl.iter().copied().fold(f64::INFINITY, f64::min);

        let ms_bound =
            outer.min_sorted_cost(arena, key.0) + inner.min_sorted_cost(arena, key.1) + ms;
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
        arena: &[Cand],
        outer: &Unit,
        inner: &Unit,
        keys: &mut Vec<KeyPair>,
        nl: &'b mut Vec<f64>,
    ) -> Option<PairCosts<'b>> {
        self.est.join_keys_into(outer.set, inner.set, keys);
        if keys.is_empty() {
            return None;
        }
        let card = self.est.join_card(outer.set | inner.set);
        Some(self.cost_pair(arena, outer, inner, card, keys, nl))
    }

    /// Nested-loop delta cost: index probes when the inner is an index
    /// access on the join key; re-execution with buffer-pool discount
    /// (`inner_rescan`, the inner unit's rescan factor) otherwise.
    fn nl_delta(
        &self,
        outer_card: f64,
        ic: &Cand,
        inner_rescan: f64,
        keys: &[KeyPair],
        join_card: f64,
    ) -> f64 {
        if let Step::Access {
            table_idx,
            path: AccessPath::IxScan { index, fetch },
        } = ic.step
        {
            let probe = &self.probes[self.instances[table_idx].first_probe + index.0 as usize];
            let on_join_key = keys
                .iter()
                .any(|&(_, (it, icol))| it == table_idx && probe.column == icol);
            if on_join_key {
                let per_probe = join_card / outer_card.max(1.0);
                return outer_card * self.cm.index_probe(probe, per_probe, fetch);
            }
        }
        self.cm.nljoin_rescan(outer_card, ic.cost, inner_rescan)
    }

    /// All join candidates combining a plan of `outer` with a plan of
    /// `inner`, every one built but none kept (both orientations are
    /// produced by calling this twice); none when no join predicate
    /// connects them. Enumeration prunes through a [`Frontier`] instead;
    /// this is for callers that pick by something other than cost.
    pub fn join_candidates(&self, outer: &Unit, inner: &Unit) -> Vec<Cand> {
        let mut out = Vec::new();
        self.join_candidates_into(outer, inner, &mut Vec::new(), &mut Vec::new(), &mut out);
        out
    }

    /// [`Planner::join_candidates`] into `out`, with the key and
    /// nested-loop buffers the caller reuses; all three are cleared first.
    pub fn join_candidates_into(
        &self,
        outer: &Unit,
        inner: &Unit,
        keys: &mut Vec<KeyPair>,
        nl: &mut Vec<f64>,
        out: &mut Vec<Cand>,
    ) {
        out.clear();
        let arena = self.arena.borrow();
        if let Some(pair) = self.cost_orientation(&arena, outer, inner, keys, nl) {
            pair.for_each_join(&arena, outer, inner, None, |alt| out.push(alt.build()));
        }
    }

    /// The orders a plan of table set `set` can still put to use, into
    /// `live`: for every equivalence class with members both inside and
    /// outside `set`, its first member inside (see the module docs).
    pub fn live_orders(&self, set: u64, live: &mut Vec<ColRef>) {
        live.clear();
        for class in self.est.classes() {
            if class.instances() & !set == 0 {
                continue;
            }
            if let Some((table_idx, column)) = class.first_in(set) {
                live.push(ColRef { table_idx, column });
            }
        }
    }

    /// Offer the alternatives of `outer` ⋈ `inner` that `pair` costs to the
    /// frontier of their union. The union's live orders are found at the
    /// frontier's first offer, so a set no split joins never pays for them,
    /// and one buffer serves every set.
    fn offer(
        &self,
        arena: &[Cand],
        (outer, inner): (&Unit, &Unit),
        pair: &PairCosts,
        live: &mut Vec<ColRef>,
        frontier: &mut Frontier,
    ) {
        if frontier.offered == 0 {
            self.live_orders(outer.set | inner.set, live);
        }
        pair.for_each_join(arena, outer, inner, Some(live), |alt| frontier.offer(alt));
    }

    // ---- enumeration ----

    /// Plan over an initial set of units. Plain planning passes one unit
    /// per table; guideline planning passes pre-built guideline units.
    pub fn plan_units(&self, units: Vec<Unit>) -> Option<Cand> {
        let whole = if units.len() <= self.config.dp_unit_limit.min(MAX_DP_UNITS) {
            self.dp(units).into_whole()
        } else {
            self.greedy(units)
        };
        let arena = self.arena.borrow();
        whole?
            .plans(&arena)
            .iter()
            .min_by(|a, b| cmp_cost(a.cost, b.cost))
            .copied()
    }

    /// Exhaustive DP: the frontier of every connected subset of `units`.
    pub fn dp(&self, mut units: Vec<Unit>) -> DpTable {
        let n = units.len();
        let mut slots = vec![NO_UNIT; 1 << n];
        for i in 0..n {
            slots[1 << i] = i as u32;
        }
        let mut buffers = Buffers::default();
        // Ascending numeric order plans every proper submask first.
        for mask in 3..slots.len() {
            if mask.is_power_of_two() {
                continue;
            }
            // Each unordered split once, descending by the half without the
            // top unit: the submasks of `rest`.
            let rest = mask & !(1 << mask.ilog2());
            let mut card = None;
            let arena = self.arena.borrow();
            let mut sub = rest;
            while sub > 0 {
                let (a, b) = (slots[sub], slots[mask & !sub]);
                if a != NO_UNIT && b != NO_UNIT {
                    let split = (&units[a as usize], &units[b as usize]);
                    self.offer_split(&arena, split, &mut card, &mut buffers);
                }
                sub = (sub - 1) & rest;
            }
            drop(arena);
            let kept = self.keep(buffers.frontier.finish());
            if !kept.is_empty() {
                slots[mask] = units.len() as u32;
                units.push(self.unit(kept));
            }
        }
        DpTable { slots, units }
    }

    /// Offer both orientations of the split `a | b` to the frontier of the
    /// union, `a` ⋈ `b` first, skipping an orientation that cannot change
    /// it. `card` is the union's `join_card`, found at its first connected
    /// split.
    fn offer_split(
        &self,
        arena: &[Cand],
        (a, b): (&Unit, &Unit),
        card: &mut Option<f64>,
        buffers: &mut Buffers,
    ) {
        let Buffers {
            keys,
            mirrored,
            nl,
            live,
            frontier,
        } = buffers;
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
            let pair = self.cost_pair(arena, outer, inner, card, keys, nl);
            if !frontier.could_change(arena, outer, &pair, live) {
                continue;
            }
            #[cfg(test)]
            self.tally(|w| w.costed += 1);
            self.offer(arena, (outer, inner), &pair, live, frontier);
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
    pub fn greedy(&self, mut units: Vec<Unit>) -> Option<Unit> {
        // Units stay in their slots of `units`, so a pair's bound and
        // frontier are computed once: a merge only adds the pairs of the
        // new slot.
        let mut live: Vec<usize> = (0..units.len()).collect();
        let slots = (2 * units.len()).saturating_sub(1);
        let mut pairs: Vec<Option<Pair>> = Vec::new();
        pairs.resize_with(slots * slots, || None);
        let mut buffers = Buffers::default();
        while live.len() > 1 {
            let mut best: Option<(usize, usize, f64)> = None;
            for (a, &i) in live.iter().enumerate() {
                for (b, &j) in live.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let (outer, inner) = (&units[i], &units[j]);
                    let pair = pairs[i * slots + j].get_or_insert_with(|| {
                        let arena = self.arena.borrow();
                        let Buffers { keys, nl, .. } = &mut buffers;
                        match self.cost_orientation(&arena, outer, inner, keys, nl) {
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
                        *pair = Pair::Built(self.join_frontier(outer, inner, &mut buffers));
                    }
                    let Pair::Built(cands) = pair else {
                        continue;
                    };
                    // A frontier's first plan is its cheapest.
                    let cheapest = self.arena.borrow()[cands.start as usize].cost;
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
            live.push(units.len());
            units.push(self.unit(cands));
        }
        units.pop()
    }

    /// The pruned frontier of `outer` ⋈ `inner`, this orientation only,
    /// kept in the arena.
    fn join_frontier(&self, outer: &Unit, inner: &Unit, buffers: &mut Buffers) -> Range<CandId> {
        let Buffers {
            keys,
            nl,
            live,
            frontier,
            ..
        } = buffers;
        let arena = self.arena.borrow();
        if let Some(pair) = self.cost_orientation(&arena, outer, inner, keys, nl) {
            self.offer(&arena, (outer, inner), &pair, live, frontier);
        }
        drop(arena);
        self.keep(frontier.finish())
    }

    /// One unit per table instance: its pruned access paths.
    pub fn table_units(&self) -> Vec<Unit> {
        (0..self.query.tables.len())
            .map(|t| self.unit(self.keep(self.access_candidates(t))))
            .collect()
    }

    /// Plain cost-based plan.
    pub fn plan(&self) -> Option<Cand> {
        self.plan_units(self.table_units())
    }

    // ---- guidelines ----

    /// Resolve a guideline tree into a candidate (its inputs kept in the
    /// arena, itself not), or explain why it cannot be honored.
    pub fn guideline_cand(&self, node: &GuidelineNode) -> Result<Cand, String> {
        match node {
            GuidelineNode::TbScan { tabid } => {
                let t = self.instance_of(tabid)?;
                self.access_paths(t)
                    .find(|c| {
                        matches!(
                            c.step,
                            Step::Access {
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
                let found = self.access_paths(t).find(|c| match c.step {
                    Step::Access {
                        path: AccessPath::IxScan { index: ix, .. },
                        ..
                    } => match index {
                        Some(name) => table.index(ix).name.eq_ignore_ascii_case(name),
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
                let (outer, inner) = (self.unit(self.keep([oc])), self.unit(self.keep([ic])));
                self.join_candidates(&outer, &inner)
                    .into_iter()
                    .filter(|c| match (c.step, wanted) {
                        (
                            Step::Join {
                                method: JoinMethod::Hs { .. },
                                ..
                            },
                            JoinMethod::Hs { .. },
                        ) => true,
                        (Step::Join { method, .. }, w) => method == w,
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
                    units.push(self.unit(self.keep([cand])));
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
                units.push(self.unit(self.keep(self.access_candidates(t))));
            }
        }
        (units, outcome)
    }

    // ---- the winner's plan tree ----

    /// The QGM of `winner`, a candidate of this planning, owning the
    /// planned query.
    pub fn into_qgm(mut self, winner: &Cand) -> Qgm {
        let query = std::mem::take(&mut self.query);
        self.qgm(query, winner)
    }

    /// The QGM of `winner` over `query` (the planned query or a copy): the
    /// one place a plan tree is built.
    pub fn qgm(&self, query: Query, winner: &Cand) -> Qgm {
        let arena = self.arena.borrow();
        let mut b = Qgm::builder(query);
        // The plan's operators and the `RETURN` over them.
        b.reserve(self.operators(&arena, winner) + 1);
        let top = self.emit(&mut b, &arena, winner);
        b.finish(top)
    }

    fn emit(&self, b: &mut galo_qgm::QgmBuilder, arena: &[Cand], plan: &Cand) -> galo_qgm::PopId {
        let (card, cost) = (plan.card, plan.cost);
        let (kind, inputs) = match self.node(arena, plan) {
            Node::Leaf(kind) => return b.add(kind, vec![], card, cost),
            Node::Join(kind, inputs) => (kind, inputs),
        };
        // A sorted input costs what `Unit::sorted_cost` charged.
        let [o, i] = inputs.map(|(c, sort)| {
            let pop = self.emit(b, arena, c);
            let Some(key) = sort else { return pop };
            let (width, _) = self.width_and_pages(c.set);
            let sorted = c.cost + self.cm.sort(c.card, width);
            let sort = b.add(PopKind::Sort { key: Some(key) }, vec![pop], c.card, sorted);
            b.set_order(sort, Some(key));
            sort
        });
        b.add(kind, vec![o, i], card, cost)
    }

    /// The operators [`Planner::emit`] adds for `plan`.
    fn operators(&self, arena: &[Cand], plan: &Cand) -> usize {
        match self.node(arena, plan) {
            Node::Leaf(_) => 1,
            Node::Join(_, inputs) => inputs.iter().fold(1, |n, &(c, sort)| {
                n + self.operators(arena, c) + usize::from(sort.is_some())
            }),
        }
    }

    /// `plan`'s operator and, for a join, its outer and inner inputs, each
    /// with the key it is sorted on first, if any: a merge join takes the
    /// key `cost_pair` took (the first of `join_keys_between(outer.set,
    /// inner.set)`) and sorts each input not already ordered on its side.
    fn node<'c>(&self, arena: &'c [Cand], plan: &Cand) -> Node<'c> {
        let (method, outer, inner) = match plan.step {
            Step::Access { table_idx, path } => {
                return Node::Leaf(match path {
                    AccessPath::TbScan => PopKind::TbScan { table: table_idx },
                    AccessPath::IxScan { index, fetch } => PopKind::IxScan {
                        table: table_idx,
                        index,
                        fetch,
                    },
                })
            }
            Step::Join {
                method,
                outer,
                inner,
            } => (method, &arena[outer as usize], &arena[inner as usize]),
        };
        let key = (method == JoinMethod::Ms).then(|| {
            let (outer_key, inner_key) = self
                .est
                .classes()
                .iter()
                .find_map(|c| Some((c.first_in(outer.set)?, c.first_in(inner.set)?)))
                .expect("a join key connects the inputs");
            (col_ref(outer_key), col_ref(inner_key))
        });
        let sort = |c: &Cand, key: Option<ColRef>| key.filter(|&key| c.order != Some(key));
        let kind = match method {
            JoinMethod::Nl => PopKind::NlJoin,
            JoinMethod::Hs { bloom } => PopKind::HsJoin { bloom },
            JoinMethod::Ms => PopKind::MsJoin,
        };
        Node::Join(
            kind,
            [
                (outer, sort(outer, key.map(|k| k.0))),
                (inner, sort(inner, key.map(|k| k.1))),
            ],
        )
    }
}

/// A candidate's last step as a plan operator: [`Planner::node`].
enum Node<'c> {
    Leaf(PopKind),
    /// The join operator, and its outer and inner inputs with the key each
    /// is sorted on first.
    Join(PopKind, [(&'c Cand, Option<ColRef>); 2]),
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
    // The kept candidates are compacted to the front, in order.
    let mut kept = 0;
    for i in 0..cands.len() {
        let c = cands[i];
        let dominated = cands[..kept]
            .iter()
            .any(|k| k.cost <= c.cost && (k.order == c.order || c.order.is_none()));
        if !dominated {
            cands[kept] = c;
            kept += 1;
        }
    }
    cands.truncate(kept);
    cands
}
