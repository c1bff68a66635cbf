//! SPARQL evaluation: basic graph patterns with backtracking, property
//! paths via breadth-first closure, and FILTER pruning as soon as a
//! filter's variables are bound.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::store::TripleStore;
use crate::term::{Term, TermId};

use super::ast::{CmpOp, Expr, PathPattern, SelectQuery, TermPattern, TriplePattern, Update};

/// Query solutions: projected variable names and one row of optional terms
/// per solution (a variable can be unbound only when projected but absent
/// from the pattern).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub vars: Vec<String>,
    pub rows: Vec<Vec<Option<Term>>>,
}

impl ResultSet {
    /// Binding of `var` in row `row`.
    pub fn get(&self, row: usize, var: &str) -> Option<&Term> {
        let idx = self.vars.iter().position(|v| v == var)?;
        self.rows.get(row)?.get(idx)?.as_ref()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Evaluate a `SELECT` query against a store.
pub fn evaluate<S: TripleStore + ?Sized>(store: &S, query: &SelectQuery) -> ResultSet {
    evaluate_seeded(store, query, &[])
}

/// Projected variable names of a query: its explicit projection, or every
/// pattern variable in order of first appearance for `SELECT *`.
pub fn projected_vars(query: &SelectQuery) -> Vec<String> {
    if !query.vars.is_empty() {
        return query.vars.clone();
    }
    let mut all_vars: Vec<String> = Vec::new();
    for p in &query.patterns {
        for v in [p.subject.as_var(), p.object.as_var()]
            .into_iter()
            .flatten()
        {
            if !all_vars.iter().any(|x| x == v) {
                all_vars.push(v.to_string());
            }
        }
    }
    all_vars
}

/// True when every ground term of the query's patterns — constants in
/// subject/object position, every predicate IRI, and the `GRAPH` scope
/// name if the query has one — is interned in the store. A pattern whose
/// constant was never interned can match nothing, so the whole basic
/// graph pattern is empty; callers can skip evaluation entirely (the
/// batched probe path pre-resolves constants this way).
pub(crate) fn constants_interned<S: TripleStore + ?Sized>(store: &S, query: &SelectQuery) -> bool {
    if let Some(g) = &query.graph {
        if store.term_id(g).is_none() {
            return false;
        }
    }
    query.patterns.iter().all(|p| {
        let grounded = |tp: &TermPattern| match tp {
            TermPattern::Ground(t) => store.term_id(t).is_some(),
            TermPattern::Var(_) => true,
        };
        store.term_id(p.path.iri()).is_some() && grounded(&p.subject) && grounded(&p.object)
    })
}

/// The query's dataset scope, resolved against the store: `Ok(None)` for
/// default-graph evaluation, `Ok(Some(g))` for a `GRAPH` scope that is
/// interned, `Err(())` for a scope naming a graph the store has never
/// seen (which can match nothing).
fn resolve_graph<S: TripleStore + ?Sized>(
    store: &S,
    query: &SelectQuery,
) -> Result<Option<TermId>, ()> {
    match &query.graph {
        None => Ok(None),
        Some(g) => match store.term_id(g) {
            Some(id) => Ok(Some(id)),
            None => Err(()),
        },
    }
}

/// [`TripleStore::scan`] under a dataset scope: the default graph, or one
/// named graph via [`TripleStore::scan_in`].
fn scoped_scan<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    s: Option<TermId>,
    p: Option<TermId>,
    o: Option<TermId>,
) -> Vec<(TermId, TermId, TermId)> {
    match graph {
        None => store.scan(s, p, o),
        Some(g) => store.scan_in(g, s, p, o),
    }
}

/// [`TripleStore::count`] under a dataset scope. Named graphs hold
/// tagging metadata and stay small, so materializing the scan for the
/// ordering heuristic is fine there.
fn scoped_count<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    s: Option<TermId>,
    p: Option<TermId>,
    o: Option<TermId>,
) -> usize {
    match graph {
        None => store.count(s, p, o),
        Some(g) => store.scan_in(g, s, p, o).len(),
    }
}

/// Evaluate a `SELECT` query with variables pre-bound to interned terms —
/// the per-candidate probe path binds `?tmpl` to one template IRI so every
/// `inTemplate` pattern becomes a keyed lookup instead of a KB-wide scan.
/// Solutions are exactly those of [`evaluate`] restricted to the seed.
pub fn evaluate_seeded<S: TripleStore + ?Sized>(
    store: &S,
    query: &SelectQuery,
    seed: &[(String, TermId)],
) -> ResultSet {
    let seed_vars: Vec<String> = seed.iter().map(|(v, _)| v.clone()).collect();
    let seed_ids: Vec<TermId> = seed.iter().map(|(_, id)| *id).collect();
    let prepared = prepare_seeded(store, query, &seed_vars);
    evaluate_prepared(store, &prepared, &seed_ids)
}

/// A query prepared for repeated evaluation against one store state:
/// pattern order, filter schedule and projection are computed once, so
/// evaluating the same probe for many seed bindings (one knowledge-base
/// candidate template each) pays only for the actual search.
#[derive(Debug)]
pub(crate) struct PreparedQuery<'q> {
    query: &'q SelectQuery,
    projected: Vec<String>,
    order: Vec<usize>,
    filters_at: Vec<Vec<&'q Expr>>,
    /// A filter references a variable that is neither seeded nor bound by
    /// any pattern: no evaluation can yield rows.
    unsatisfiable: bool,
    seed_vars: Vec<String>,
    /// Resolved dataset scope (`GRAPH` clause); `None` is the default
    /// graph. A scope naming an un-interned graph sets `unsatisfiable`.
    graph: Option<TermId>,
}

impl PreparedQuery<'_> {
    /// An empty result set with this query's projection.
    fn empty_result(&self) -> ResultSet {
        ResultSet {
            vars: self.projected.clone(),
            rows: Vec::new(),
        }
    }
}

/// Prepare a query for evaluation under seeds binding exactly `seed_vars`
/// (in that order). The preparation is valid as long as the store's
/// contents don't change — pattern ordering uses the store's counts.
pub(crate) fn prepare_seeded<'q, S: TripleStore + ?Sized>(
    store: &S,
    query: &'q SelectQuery,
    seed_vars: &[String],
) -> PreparedQuery<'q> {
    let projected = projected_vars(query);
    let (graph, graph_missing) = match resolve_graph(store, query) {
        Ok(g) => (g, false),
        Err(()) => (None, true),
    };

    // Order patterns most-constrained-first (static heuristic: more ground
    // positions first, then fewer matching triples for the ground parts).
    // Seeded variables count as bound from the start.
    let pre_bound: BTreeSet<&str> = seed_vars.iter().map(String::as_str).collect();
    let order = order_patterns(store, graph, &query.patterns, &pre_bound);

    // Attach each filter to the earliest step after which all its
    // variables are available: seeded variables at step 0, pattern-bound
    // variables right after their binding pattern. Filters over never-bound
    // variables reject rows (SPARQL's error-as-false semantics).
    let mut avail_at: HashMap<&str, usize> = HashMap::new();
    for v in &pre_bound {
        avail_at.insert(v, 0);
    }
    for (step, &pi) in order.iter().enumerate() {
        let p = &query.patterns[pi];
        for v in [p.subject.as_var(), p.object.as_var()]
            .into_iter()
            .flatten()
        {
            avail_at.entry(v).or_insert(step + 1);
        }
    }
    let mut unsatisfiable = graph_missing;
    let mut filters_at: Vec<Vec<&Expr>> = vec![Vec::new(); order.len() + 1];
    for f in &query.filters {
        let step = f
            .variables()
            .iter()
            .map(|v| avail_at.get(v.to_owned()).copied().unwrap_or(usize::MAX))
            .max()
            .unwrap_or(0);
        if step == usize::MAX {
            unsatisfiable = true;
            break;
        }
        filters_at[step.min(order.len())].push(f);
    }

    PreparedQuery {
        query,
        projected,
        order,
        filters_at,
        unsatisfiable,
        seed_vars: seed_vars.to_vec(),
        graph,
    }
}

/// Evaluate a prepared query for one seed (`seed_ids` parallel to the
/// `seed_vars` the query was prepared with).
pub(crate) fn evaluate_prepared<S: TripleStore + ?Sized>(
    store: &S,
    prepared: &PreparedQuery<'_>,
    seed_ids: &[TermId],
) -> ResultSet {
    assert_eq!(
        seed_ids.len(),
        prepared.seed_vars.len(),
        "seed ids must match the seed variables the query was prepared with"
    );
    if prepared.unsatisfiable {
        return prepared.empty_result();
    }
    let query = prepared.query;
    let projected = &prepared.projected;
    let mut rows: Vec<Vec<Option<Term>>> = Vec::new();
    let mut bindings: HashMap<String, TermId> = prepared
        .seed_vars
        .iter()
        .cloned()
        .zip(seed_ids.iter().copied())
        .collect();

    // Filters over no variables or only seeded variables evaluate
    // immediately.
    for f in &prepared.filters_at[0] {
        if !eval_filter(store, f, &bindings) {
            return prepared.empty_result();
        }
    }

    search(
        store,
        prepared.graph,
        query,
        &prepared.order,
        &prepared.filters_at,
        0,
        &mut bindings,
        &mut rows,
        projected,
    );

    if query.distinct {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        rows.retain(|r| {
            let key = row_key(r);
            seen.insert(key)
        });
    }
    if let Some(order_var) = &query.order_by {
        if let Some(idx) = projected.iter().position(|v| v == order_var) {
            rows.sort_by(|a, b| {
                let ka = a[idx].as_ref().map(|t| t.str_value().to_string());
                let kb = b[idx].as_ref().map(|t| t.str_value().to_string());
                ka.cmp(&kb)
            });
        }
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    ResultSet {
        vars: projected.clone(),
        rows,
    }
}

fn row_key(row: &[Option<Term>]) -> String {
    row.iter()
        .map(|t| t.as_ref().map(|t| t.to_string()).unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\u{1}")
}

fn order_patterns<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    patterns: &[TriplePattern],
    pre_bound: &BTreeSet<&str>,
) -> Vec<usize> {
    // Static per-pattern match counts are bound-independent: compute once.
    let static_cost: Vec<usize> = patterns
        .iter()
        .map(|p| {
            let s = match &p.subject {
                TermPattern::Ground(t) => store.term_id(t),
                TermPattern::Var(_) => None,
            };
            let o = match &p.object {
                TermPattern::Ground(t) => store.term_id(t),
                TermPattern::Var(_) => None,
            };
            let pred = store.term_id(p.path.iri());
            // Paths are more expensive to evaluate than direct edges.
            let path_penalty = if matches!(p.path, PathPattern::Direct(_)) {
                0
            } else {
                1000
            };
            scoped_count(store, graph, s, pred, o) + path_penalty
        })
        .collect();

    // Expected fan-out of a pattern once one endpoint is bound: a bound
    // subject/object leaves only that node's neighbors as candidates, far
    // fewer than the predicate's full extent. Ranking bound-endpoint edge
    // patterns ahead of whole-extent enumerations is what keeps segment
    // matching polynomial (a type pattern enumerates every operator of
    // that type in the knowledge base; a bound edge enumerates ~2).
    const BOUND_FANOUT_EST: usize = 16;

    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut ordered = Vec::with_capacity(patterns.len());
    let mut bound: BTreeSet<&str> = pre_bound.clone();
    while !remaining.is_empty() {
        let free = |tp: &TermPattern, bound: &BTreeSet<&str>| match tp {
            TermPattern::Var(v) => usize::from(!bound.contains(v.as_str())),
            TermPattern::Ground(_) => 0,
        };
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &pi)| {
                let p = &patterns[pi];
                let free_vars = free(&p.subject, &bound) + free(&p.object, &bound);
                let positions = usize::from(matches!(p.subject, TermPattern::Var(_)))
                    + usize::from(matches!(p.object, TermPattern::Var(_)));
                // An endpoint is effectively bound if it is ground or an
                // already-bound variable.
                let cost = if free_vars < positions || free_vars == 0 {
                    static_cost[pi].min(BOUND_FANOUT_EST)
                } else {
                    static_cost[pi]
                };
                (free_vars, cost)
            })
            .expect("remaining non-empty");
        ordered.push(best);
        remaining.remove(pos);
        let p = &patterns[best];
        for v in [p.subject.as_var(), p.object.as_var()]
            .into_iter()
            .flatten()
        {
            bound.insert(v);
        }
    }
    ordered
}

#[allow(clippy::too_many_arguments)]
fn search<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    query: &SelectQuery,
    order: &[usize],
    filters_at: &[Vec<&Expr>],
    step: usize,
    bindings: &mut HashMap<String, TermId>,
    rows: &mut Vec<Vec<Option<Term>>>,
    projected: &[String],
) {
    if step == order.len() {
        let row: Vec<Option<Term>> = projected
            .iter()
            .map(|v| bindings.get(v).map(|&id| store.resolve(id).clone()))
            .collect();
        rows.push(row);
        return;
    }
    let pattern = &query.patterns[order[step]];
    for (s_id, o_id) in candidate_pairs(store, graph, pattern, bindings) {
        let mut added: Vec<String> = Vec::with_capacity(2);
        let mut consistent = true;
        for (tp, id) in [(&pattern.subject, s_id), (&pattern.object, o_id)] {
            if let TermPattern::Var(v) = tp {
                match bindings.get(v) {
                    Some(&existing) if existing != id => {
                        consistent = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        bindings.insert(v.clone(), id);
                        added.push(v.clone());
                    }
                }
            }
        }
        if consistent {
            let filters_ok = filters_at[step + 1]
                .iter()
                .all(|f| eval_filter(store, f, bindings));
            if filters_ok {
                search(
                    store,
                    graph,
                    query,
                    order,
                    filters_at,
                    step + 1,
                    bindings,
                    rows,
                    projected,
                );
            }
        }
        for v in added {
            bindings.remove(&v);
        }
    }
}

/// Enumerate (subject, object) id pairs satisfying one pattern under the
/// current bindings.
fn candidate_pairs<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    pattern: &TriplePattern,
    bindings: &HashMap<String, TermId>,
) -> Vec<(TermId, TermId)> {
    let resolve = |tp: &TermPattern| -> Resolution {
        match tp {
            TermPattern::Var(v) => match bindings.get(v) {
                Some(&id) => Resolution::Bound(id),
                None => Resolution::Free,
            },
            TermPattern::Ground(t) => match store.term_id(t) {
                Some(id) => Resolution::Bound(id),
                None => Resolution::Impossible,
            },
        }
    };
    let s = resolve(&pattern.subject);
    let o = resolve(&pattern.object);
    if matches!(s, Resolution::Impossible) || matches!(o, Resolution::Impossible) {
        return Vec::new();
    }
    let pred = match store.term_id(pattern.path.iri()) {
        Some(p) => p,
        None => return Vec::new(),
    };
    let s_bound = match s {
        Resolution::Bound(id) => Some(id),
        _ => None,
    };
    let o_bound = match o {
        Resolution::Bound(id) => Some(id),
        _ => None,
    };

    match &pattern.path {
        PathPattern::Direct(_) => scoped_scan(store, graph, s_bound, Some(pred), o_bound)
            .into_iter()
            .map(|(s, _, o)| (s, o))
            .collect(),
        PathPattern::Plus(_) => path_pairs(store, graph, pred, s_bound, o_bound, false),
        PathPattern::Star(_) => path_pairs(store, graph, pred, s_bound, o_bound, true),
    }
}

enum Resolution {
    Bound(TermId),
    Free,
    Impossible,
}

/// (s, o) pairs connected by 1+ (`Plus`) or 0+ (`Star`) steps of `pred`.
fn path_pairs<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    pred: TermId,
    s: Option<TermId>,
    o: Option<TermId>,
    include_zero: bool,
) -> Vec<(TermId, TermId)> {
    match (s, o) {
        (Some(s), Some(o)) => {
            let reachable = forward_closure(store, graph, pred, s, include_zero);
            if reachable.contains(&o) {
                vec![(s, o)]
            } else {
                vec![]
            }
        }
        (Some(s), None) => forward_closure(store, graph, pred, s, include_zero)
            .into_iter()
            .map(|o| (s, o))
            .collect(),
        (None, Some(o)) => backward_closure(store, graph, pred, o, include_zero)
            .into_iter()
            .map(|s| (s, o))
            .collect(),
        (None, None) => {
            // All nodes participating in `pred` edges, paired with their
            // forward closures.
            let mut subjects: BTreeSet<TermId> = BTreeSet::new();
            for (s, _, o) in scoped_scan(store, graph, None, Some(pred), None) {
                subjects.insert(s);
                if include_zero {
                    subjects.insert(o);
                }
            }
            let mut out = Vec::new();
            for s in subjects {
                for o in forward_closure(store, graph, pred, s, include_zero) {
                    out.push((s, o));
                }
            }
            out
        }
    }
}

fn forward_closure<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    pred: TermId,
    start: TermId,
    include_zero: bool,
) -> BTreeSet<TermId> {
    let mut seen: BTreeSet<TermId> = BTreeSet::new();
    let mut queue: VecDeque<TermId> = VecDeque::new();
    if include_zero {
        seen.insert(start);
    }
    queue.push_back(start);
    let mut visited: BTreeSet<TermId> = BTreeSet::new();
    while let Some(cur) = queue.pop_front() {
        if !visited.insert(cur) {
            continue;
        }
        for (_, _, o) in scoped_scan(store, graph, Some(cur), Some(pred), None) {
            seen.insert(o);
            queue.push_back(o);
        }
    }
    seen
}

fn backward_closure<S: TripleStore + ?Sized>(
    store: &S,
    graph: Option<TermId>,
    pred: TermId,
    start: TermId,
    include_zero: bool,
) -> BTreeSet<TermId> {
    let mut seen: BTreeSet<TermId> = BTreeSet::new();
    let mut queue: VecDeque<TermId> = VecDeque::new();
    if include_zero {
        seen.insert(start);
    }
    queue.push_back(start);
    let mut visited: BTreeSet<TermId> = BTreeSet::new();
    while let Some(cur) = queue.pop_front() {
        if !visited.insert(cur) {
            continue;
        }
        for (s, _, _) in scoped_scan(store, graph, None, Some(pred), Some(cur)) {
            seen.insert(s);
            queue.push_back(s);
        }
    }
    seen
}

// ---- FILTER evaluation ----

#[derive(Debug, Clone)]
enum Val {
    T(Term),
    S(String),
    B(bool),
}

fn eval_filter<S: TripleStore + ?Sized>(
    store: &S,
    expr: &Expr,
    bindings: &HashMap<String, TermId>,
) -> bool {
    matches!(eval_expr(store, expr, bindings), Some(Val::B(true)))
}

fn eval_expr<S: TripleStore + ?Sized>(
    store: &S,
    expr: &Expr,
    bindings: &HashMap<String, TermId>,
) -> Option<Val> {
    match expr {
        Expr::Var(v) => bindings.get(v).map(|&id| Val::T(store.resolve(id).clone())),
        Expr::Const(t) => Some(Val::T(t.clone())),
        Expr::Str(e) => {
            let v = eval_expr(store, e, bindings)?;
            Some(Val::S(match v {
                Val::T(t) => t.str_value().to_string(),
                Val::S(s) => s,
                Val::B(b) => b.to_string(),
            }))
        }
        Expr::Cmp(op, a, b) => {
            let va = eval_expr(store, a, bindings)?;
            let vb = eval_expr(store, b, bindings)?;
            Some(Val::B(compare(*op, &va, &vb)?))
        }
        Expr::And(a, b) => {
            let Val::B(ba) = eval_expr(store, a, bindings)? else {
                return None;
            };
            if !ba {
                return Some(Val::B(false));
            }
            let Val::B(bb) = eval_expr(store, b, bindings)? else {
                return None;
            };
            Some(Val::B(bb))
        }
        Expr::Or(a, b) => {
            let Val::B(ba) = eval_expr(store, a, bindings)? else {
                return None;
            };
            if ba {
                return Some(Val::B(true));
            }
            let Val::B(bb) = eval_expr(store, b, bindings)? else {
                return None;
            };
            Some(Val::B(bb))
        }
        Expr::Not(e) => {
            let Val::B(b) = eval_expr(store, e, bindings)? else {
                return None;
            };
            Some(Val::B(!b))
        }
    }
}

fn numeric(v: &Val) -> Option<f64> {
    match v {
        Val::T(Term::Literal(l)) => l.as_number(),
        Val::S(s) => s.trim().parse().ok(),
        _ => None,
    }
}

fn stringy(v: &Val) -> String {
    match v {
        Val::T(t) => t.str_value().to_string(),
        Val::S(s) => s.clone(),
        Val::B(b) => b.to_string(),
    }
}

fn compare(op: CmpOp, a: &Val, b: &Val) -> Option<bool> {
    // Numeric comparison when both sides are numbers (SPARQL's numeric
    // coercion); otherwise codepoint string comparison of STR values.
    let ord = match (numeric(a), numeric(b)) {
        (Some(x), Some(y)) => x.partial_cmp(&y)?,
        _ => stringy(a).cmp(&stringy(b)),
    };
    Some(match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    })
}

/// Apply an update; returns the number of triples inserted or removed.
pub fn apply_update<S: TripleStore + ?Sized>(store: &mut S, update: &Update) -> usize {
    match update {
        Update::InsertData(triples) => triples
            .iter()
            .filter(|(s, p, o)| store.insert(s.clone(), p.clone(), o.clone()))
            .count(),
        Update::DeleteWhere(patterns) => {
            let query = SelectQuery {
                distinct: false,
                vars: Vec::new(),
                patterns: patterns.clone(),
                filters: Vec::new(),
                graph: None,
                order_by: None,
                limit: None,
            };
            let solutions = evaluate(store, &query);
            let mut removed = 0;
            for row in 0..solutions.len() {
                for p in patterns {
                    let lookup = |tp: &TermPattern| -> Option<Term> {
                        match tp {
                            TermPattern::Ground(t) => Some(t.clone()),
                            TermPattern::Var(v) => solutions.get(row, v).cloned(),
                        }
                    };
                    if let (Some(s), Some(o)) = (lookup(&p.subject), lookup(&p.object)) {
                        if store.remove(&s, p.path.iri(), &o) {
                            removed += 1;
                        }
                    }
                }
            }
            removed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::parser::{parse_select, parse_update};
    use crate::store::IndexedStore;

    fn prop(name: &str) -> Term {
        Term::iri(format!("http://galo/qep/property/{name}"))
    }

    fn pop(n: u32) -> Term {
        Term::iri(format!("http://galo/qep/pop/{n}"))
    }

    /// A small plan graph: 5 -> 4 -> 2, 3 -> 2; cardinalities attached.
    fn plan_store() -> IndexedStore {
        let mut st = IndexedStore::new();
        for (a, b) in [(5u32, 4u32), (4, 2), (3, 2)] {
            st.insert(pop(a), prop("hasOutputStream"), pop(b));
        }
        st.insert(pop(2), prop("hasPopType"), Term::lit("NLJOIN"));
        st.insert(pop(4), prop("hasPopType"), Term::lit("NLJOIN"));
        st.insert(pop(3), prop("hasPopType"), Term::lit("IXSCAN"));
        st.insert(pop(5), prop("hasPopType"), Term::lit("IXSCAN"));
        st.insert(pop(5), prop("hasEstimateCardinality"), Term::lit("19.734"));
        st.insert(
            pop(3),
            prop("hasEstimateCardinality"),
            Term::lit("0.994903"),
        );
        st
    }

    #[test]
    fn bgp_join_over_two_patterns() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?a ?b WHERE { ?a p:hasOutputStream ?b . ?b p:hasPopType NLJOIN . }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn filter_numeric_range() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { ?s p:hasEstimateCardinality ?c . FILTER(?c >= 1 && ?c <= 100) }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "s"), Some(&pop(5)));
    }

    #[test]
    fn filter_str_uniqueness() {
        // The paper's uniqueness idiom: FILTER(STR(?a) > STR(?b)).
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?a ?b WHERE { ?a p:hasPopType NLJOIN . ?b p:hasPopType NLJOIN . \
             FILTER(STR(?a) > STR(?b)) }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        // Of the 4 (a,b) combinations only one has a strictly greater IRI.
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn property_path_plus_reaches_transitively() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?d WHERE { <http://galo/qep/pop/5> p:hasOutputStream+ ?d . }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        let got: BTreeSet<String> = (0..rs.len())
            .map(|i| rs.get(i, "d").unwrap().str_value().to_string())
            .collect();
        assert!(got.contains("http://galo/qep/pop/4"));
        assert!(got.contains("http://galo/qep/pop/2"));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn property_path_star_includes_zero_steps() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?d WHERE { <http://galo/qep/pop/5> p:hasOutputStream* ?d . }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 3); // 5 itself, 4, 2.
    }

    #[test]
    fn path_with_bound_object() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { ?s p:hasOutputStream+ <http://galo/qep/pop/2> . }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 3); // 5, 4, 3 all reach 2.
    }

    #[test]
    fn distinct_order_limit() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT DISTINCT ?t WHERE { ?s p:hasPopType ?t . } ORDER BY ?t LIMIT 5",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(0, "t").unwrap().str_value(), "IXSCAN");
        assert_eq!(rs.get(1, "t").unwrap().str_value(), "NLJOIN");
    }

    #[test]
    fn unbound_filter_variable_yields_no_rows() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { ?s p:hasPopType NLJOIN . FILTER(?zzz > 1) }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
    }

    #[test]
    fn ground_pattern_with_unknown_term_matches_nothing() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { ?s p:hasPopType MYSTERY . }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
    }

    #[test]
    fn shared_variable_must_agree_across_patterns() {
        let st = plan_store();
        // ?x must be both the source of an edge into 2 and an IXSCAN.
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?x WHERE { ?x p:hasOutputStream <http://galo/qep/pop/2> . \
             ?x p:hasPopType IXSCAN . }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "x"), Some(&pop(3)));
    }

    #[test]
    fn seeded_evaluation_equals_filtered_full_evaluation() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?a ?b WHERE { ?a p:hasOutputStream ?b . ?b p:hasPopType ?t . }",
        )
        .unwrap();
        let full = evaluate(&st, &q);
        for target in [2u32, 4] {
            let id = st.term_id(&pop(target)).unwrap();
            let seeded = evaluate_seeded(&st, &q, &[("b".to_string(), id)]);
            let expect: Vec<_> = (0..full.len())
                .filter(|&row| full.get(row, "b") == Some(&pop(target)))
                .map(|row| full.get(row, "a").cloned())
                .collect();
            assert_eq!(seeded.len(), expect.len());
            for row in 0..seeded.len() {
                assert_eq!(seeded.get(row, "b"), Some(&pop(target)));
                assert!(expect.contains(&seeded.get(row, "a").cloned()));
            }
        }
    }

    #[test]
    fn seeded_variable_satisfies_filters_at_step_zero() {
        let st = plan_store();
        // The filter references only the seeded variable: with a seed it
        // must evaluate immediately, not reject rows as never-bound.
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s ?c WHERE { ?s p:hasEstimateCardinality ?c . \
             FILTER(STR(?s) != \"x\") }",
        )
        .unwrap();
        let id = st.term_id(&pop(5)).unwrap();
        let rs = evaluate_seeded(&st, &q, &[("s".to_string(), id)]);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "c").unwrap().str_value(), "19.734");
    }

    #[test]
    fn constants_interned_detects_unknown_terms() {
        let st = plan_store();
        let known = parse_select(
            "PREFIX p: <http://galo/qep/property/> SELECT ?s WHERE { ?s p:hasPopType NLJOIN . }",
        )
        .unwrap();
        assert!(constants_interned(&st, &known));
        let unknown_object = parse_select(
            "PREFIX p: <http://galo/qep/property/> SELECT ?s WHERE { ?s p:hasPopType MYSTERY . }",
        )
        .unwrap();
        assert!(!constants_interned(&st, &unknown_object));
        let unknown_pred = parse_select(
            "PREFIX p: <http://galo/qep/property/> SELECT ?s WHERE { ?s p:neverSeen ?o . }",
        )
        .unwrap();
        assert!(!constants_interned(&st, &unknown_pred));
    }

    #[test]
    fn insert_data_update_applies() {
        let mut st = plan_store();
        let before = st.len();
        let u = parse_update(
            "INSERT DATA { <http://galo/qep/pop/9> \
             <http://galo/qep/property/hasPopType> \"HSJOIN\" . }",
        )
        .unwrap();
        assert_eq!(apply_update(&mut st, &u), 1);
        assert_eq!(st.len(), before + 1);
        // Re-inserting is a no-op.
        assert_eq!(apply_update(&mut st, &u), 0);
    }

    #[test]
    fn delete_where_removes_matches() {
        let mut st = plan_store();
        let u = parse_update(
            "PREFIX p: <http://galo/qep/property/> \
             DELETE WHERE { ?s p:hasOutputStream ?o . }",
        )
        .unwrap();
        let removed = apply_update(&mut st, &u);
        assert_eq!(removed, 3);
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> SELECT ?s WHERE { ?s p:hasOutputStream ?o . }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
    }

    /// Store with a default graph plus two named graphs holding disjoint
    /// tag sets — the shape the knowledge base uses for per-workload
    /// template tagging.
    fn graph_store() -> IndexedStore {
        let mut st = plan_store();
        let g1 = Term::iri("http://galo/graph/w1");
        let g2 = Term::iri("http://galo/graph/w2");
        st.insert_in(g1.clone(), pop(2), prop("inWorkload"), Term::lit("w1"));
        st.insert_in(g1.clone(), pop(3), prop("inWorkload"), Term::lit("w1"));
        st.insert_in(g1, pop(2), prop("feeds"), pop(4));
        st.insert_in(g2, pop(4), prop("inWorkload"), Term::lit("w2"));
        st
    }

    #[test]
    fn graph_clause_scopes_to_one_named_graph() {
        let st = graph_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { GRAPH <http://galo/graph/w1> { ?s p:inWorkload ?w . } }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 2);
        // The other graph's tag is invisible under this scope.
        let got: BTreeSet<&Term> = (0..rs.len()).map(|i| rs.get(i, "s").unwrap()).collect();
        assert!(got.contains(&pop(2)) && got.contains(&pop(3)));
    }

    #[test]
    fn graph_clause_hides_default_graph_triples() {
        let st = graph_store();
        // hasPopType lives only in the default graph.
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { GRAPH <http://galo/graph/w1> { ?s p:hasPopType ?t . } }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
        // And without the scope, named-graph tags are invisible.
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { ?s p:inWorkload ?w . }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
    }

    #[test]
    fn graph_clause_with_unknown_graph_is_empty() {
        let st = graph_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { GRAPH <http://galo/graph/nope> { ?s p:inWorkload ?w . } }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
        assert!(!constants_interned(&st, &q));
    }

    #[test]
    fn graph_scoped_seeded_probe_equals_text_evaluation() {
        // The probe ≡ text differential under dataset scope: the prepared
        // seeded path and the full text path must agree per binding.
        let st = graph_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s ?w WHERE { GRAPH <http://galo/graph/w1> { ?s p:inWorkload ?w . } }",
        )
        .unwrap();
        let full = evaluate(&st, &q);
        assert_eq!(full.len(), 2);
        for target in [2u32, 3, 4] {
            let id = st.term_id(&pop(target)).unwrap();
            let seeded = evaluate_seeded(&st, &q, &[("s".to_string(), id)]);
            let expect: Vec<_> = (0..full.len())
                .filter(|&row| full.get(row, "s") == Some(&pop(target)))
                .collect();
            assert_eq!(seeded.len(), expect.len(), "pop {target}");
        }
    }

    #[test]
    fn graph_clause_scopes_property_paths() {
        let st = graph_store();
        // feeds lives only in w1: 2 -> 4, one hop, so + reaches exactly 4.
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?d WHERE { GRAPH <http://galo/graph/w1> \
             { <http://galo/qep/pop/2> p:feeds+ ?d . } }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "d"), Some(&pop(4)));
        // Default-graph evaluation of the same path sees nothing.
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?d WHERE { <http://galo/qep/pop/2> p:feeds+ ?d . }",
        )
        .unwrap();
        assert!(evaluate(&st, &q).is_empty());
    }

    #[test]
    fn select_star_projects_all_pattern_variables() {
        let st = plan_store();
        let q = parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT * WHERE { ?a p:hasOutputStream ?b . }",
        )
        .unwrap();
        let rs = evaluate(&st, &q);
        assert_eq!(rs.vars, vec!["a", "b"]);
        assert_eq!(rs.len(), 3);
    }
}
