//! The transformation engine (paper §3.1).
//!
//! Three translations:
//!
//! 1. **QGM → RDF** — a full graph rendering of a plan, one resource per
//!    LOLEPOP with its properties and input-stream edges (the paper's
//!    §3.1 examples).
//! 2. **QGM segment → SPARQL** — the Figure 6 generation: result handlers
//!    (`?pop_N`), internal handlers (`?ihK`) with range FILTERs, and
//!    relationship handlers (`hasOutputStream`): the definition of a
//!    concrete sub-plan matching an abstracted template. The online
//!    matcher tests the same conditions on the knowledge base's index
//!    rows; the [`oracle`](crate::oracle) and the diagnostics evaluate the
//!    probe itself.
//! 3. **Template → RDF** — the §3.2 abstraction step lives in
//!    [`crate::kb`], which shares this module's property emission.

use std::collections::BTreeSet;

use galo_catalog::Database;
use galo_qgm::{segment_signature, Pop, PopId, PopKind, Qgm};
use galo_rdf::{CmpOp, Expr, PathPattern, SelectQuery, Term, TermPattern, TriplePattern};

use crate::kb::{PopCheck, ScanCheck};
use crate::vocab::{self, prop};

/// Translate a full QGM into RDF triples (concrete form: exact values, no
/// ranges). Resources are named by operator id under [`vocab::POP_NS`].
pub fn qgm_to_rdf(db: &Database, qgm: &Qgm) -> Vec<(Term, Term, Term)> {
    let mut triples = Vec::with_capacity(qgm.len() * 6);
    for (id, pop) in qgm.pops() {
        let me = vocab::pop_iri(pop.op_id);
        triples.push((
            me.clone(),
            prop(vocab::HAS_POP_TYPE),
            Term::lit(pop.kind.name()),
        ));
        triples.push((
            me.clone(),
            prop(vocab::HAS_OPERATOR_ID),
            Term::num(pop.op_id as f64),
        ));
        triples.push((
            me.clone(),
            prop(vocab::HAS_ESTIMATE_CARDINALITY),
            Term::num(pop.est_card),
        ));
        if let Some(t) = pop.kind.scan_table() {
            let tref = &qgm.query.tables[t];
            let table = db.table(tref.table);
            let stats = db.belief.table(tref.table);
            triples.push((
                me.clone(),
                prop(vocab::HAS_TABLE_NAME),
                Term::lit(table.name.clone()),
            ));
            triples.push((
                me.clone(),
                prop(vocab::HAS_TABLE_QUALIFIER),
                Term::lit(tref.qualifier.clone()),
            ));
            triples.push((
                me.clone(),
                prop(vocab::HAS_ROW_SIZE),
                Term::num(stats.row_size as f64),
            ));
            triples.push((
                me.clone(),
                prop(vocab::HAS_FPAGES),
                Term::num(stats.pages as f64),
            ));
            triples.push((
                me.clone(),
                prop(vocab::HAS_BASE_CARDINALITY),
                Term::num(stats.row_count as f64),
            ));
            if let PopKind::IxScan { index, .. } = &pop.kind {
                triples.push((
                    me.clone(),
                    prop(vocab::HAS_INDEX_NAME),
                    Term::lit(table.index(*index).name.clone()),
                ));
            }
        }
        // Stream edges: child→parent output stream plus role-tagged
        // parent→child edges for joins.
        for (i, &child) in pop.inputs.iter().enumerate() {
            let child_iri = vocab::pop_iri(qgm.pop(child).op_id);
            triples.push((
                child_iri.clone(),
                prop(vocab::HAS_OUTPUT_STREAM),
                me.clone(),
            ));
            if pop.kind.is_join() {
                let role = if i == 0 {
                    vocab::HAS_OUTER_INPUT_STREAM
                } else {
                    vocab::HAS_INNER_INPUT_STREAM
                };
                triples.push((me.clone(), prop(role), child_iri));
            }
        }
        let _ = id;
    }
    triples
}

/// Options for segment-probe generation, shared by the compiled-IR path
/// ([`segment_to_probe`]) and the text path ([`segment_to_sparql_opt`]).
#[derive(Debug, Clone)]
pub struct ProbeOptions {
    /// Match-time multiplicative widening of every template range test:
    /// a template range `[lo, hi]` admits a concrete value `v` when
    /// `lo <= v * margin && hi >= v / margin`. `1.0` is the paper's exact
    /// semantics; larger values trade precision for cross-workload reuse
    /// (Exp-2) by letting templates learned on one schema's statistics
    /// cover another's.
    pub range_margin: f64,
    /// When false, emit only the structural skeleton (types, edges,
    /// template linkage) without any `hasLower*`/`hasHigher*` constraint —
    /// the near-miss probe of problem determination (paper Goal 1).
    pub include_ranges: bool,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        ProbeOptions {
            range_margin: 1.0,
            include_ranges: true,
        }
    }
}

/// Values a concrete property is tested against under a match margin:
/// `(against_lower, against_upper)` — the template matches when its lower
/// bound is `<= against_lower` and its upper bound is `>= against_upper`.
fn margin_bounds(value: f64, margin: f64) -> (f64, f64) {
    let m = margin.max(1.0);
    (value * m, value / m)
}

/// One scan operator's bindings in a segment probe, precomputed so the
/// matching engine never formats variable names inside its solution loop.
#[derive(Debug, Clone)]
pub struct ScanVar {
    /// Operator id of the scan in the plan.
    pub op_id: u32,
    /// Probe variable bound to the template's canonical table label
    /// (`tab_<opid>`).
    pub var: String,
    /// The query's table qualifier for this scan (`Q1`, `Q2`, …).
    pub qualifier: String,
}

/// A compiled knowledge-base probe for one plan segment: the Figure-6
/// query as a ready-to-evaluate [`SelectQuery`] AST — no string rendering,
/// no re-parsing — plus the structural signature used to prune candidate
/// templates and the precomputed scan-variable table.
#[derive(Debug, Clone)]
pub struct SegmentProbe {
    /// The probe query; `?tmpl` binds the matched template.
    pub query: SelectQuery,
    /// Scan operators of the segment in pre-order (the order
    /// [`segment_scan_qualifiers`] reports).
    pub scan_vars: Vec<ScanVar>,
    /// [`galo_qgm::shape_signature`] of the segment — the knowledge base's
    /// candidate-index key.
    pub signature: u64,
    /// Names of the tables the segment scans (sorted, deduplicated) — for
    /// explain/debug output; schema-dependent, so never part of the
    /// signature.
    pub table_names: Vec<String>,
}

/// Compile one plan segment into a knowledge-base probe (paper Figure 6)
/// as a [`SelectQuery`] AST. Structurally identical to parsing
/// [`segment_to_sparql_opt`]'s output — the differential tests pin the two
/// paths to each other — but built directly, so the
/// [`oracle`](crate::oracle) and the diagnostics evaluate it without a
/// round trip through SPARQL text.
///
/// For every operator of the segment the probe:
/// * binds a result handler `?pop_<opid>` constrained to the operator's
///   type and to the template's `[hasLower*, hasHigher*]` ranges around
///   the concrete value, via internal handlers `?ih<k>`;
/// * for scans, additionally constrains row size / FPAGES / base
///   cardinality and retrieves the canonical table label `?tab_<opid>`;
/// * links operators with `hasOutputStream` relationship handlers and
///   role-tagged join edges;
/// * forces all bindings into one template via a shared `?tmpl`, and
///   pairwise-distinct resources via `FILTER(STR(..) != STR(..))`.
pub fn segment_to_probe(
    db: &Database,
    qgm: &Qgm,
    root: PopId,
    opts: &ProbeOptions,
) -> SegmentProbe {
    let pops = qgm.subtree(root);
    let mut vars: Vec<String> = vec!["tmpl".to_string()];
    let mut patterns: Vec<TriplePattern> = Vec::with_capacity(pops.len() * 8);
    let mut filters: Vec<Expr> = Vec::with_capacity(pops.len() * 8);
    let mut scan_vars: Vec<ScanVar> = Vec::new();
    let mut table_names: BTreeSet<String> = BTreeSet::new();
    let mut ih = 0usize;

    let var_pattern = |name: &str| TermPattern::Var(name.to_string());
    let pred = |name: &str| PathPattern::Direct(prop(name));
    let num = |v: f64| Term::lit(format!("{v}"));

    // The segment must match a template of exactly the same join count —
    // otherwise a small segment can subgraph-match part of a larger
    // template, leaving canonical labels in its guideline unbound.
    patterns.push(TriplePattern {
        subject: var_pattern("tmpl"),
        path: pred(vocab::HAS_JOIN_COUNT),
        object: var_pattern("jc"),
    });
    filters.push(Expr::Cmp(
        CmpOp::Eq,
        Box::new(Expr::Var("jc".into())),
        Box::new(Expr::Const(Term::lit(qgm.join_count(root).to_string()))),
    ));

    let mut range_filter = |patterns: &mut Vec<TriplePattern>,
                            filters: &mut Vec<Expr>,
                            var: &str,
                            lower: &str,
                            higher: &str,
                            value: f64| {
        let (against_lower, against_upper) = margin_bounds(value, opts.range_margin);
        for (property, op, bound) in [
            (lower, CmpOp::Le, against_lower),
            (higher, CmpOp::Ge, against_upper),
        ] {
            ih += 1;
            let ih_var = format!("ih{ih}");
            patterns.push(TriplePattern {
                subject: TermPattern::Var(var.to_string()),
                path: pred(property),
                object: TermPattern::Var(ih_var.clone()),
            });
            filters.push(Expr::Cmp(
                op,
                Box::new(Expr::Var(ih_var)),
                Box::new(Expr::Const(num(bound))),
            ));
        }
    };

    for &pid in &pops {
        let pop = qgm.pop(pid);
        let var = format!("pop_{}", pop.op_id);
        vars.push(var.clone());
        patterns.push(TriplePattern {
            subject: var_pattern(&var),
            path: pred(vocab::IN_TEMPLATE),
            object: var_pattern("tmpl"),
        });
        patterns.push(TriplePattern {
            subject: var_pattern(&var),
            path: pred(vocab::HAS_POP_TYPE),
            object: TermPattern::Ground(Term::lit(pop.kind.name())),
        });
        if opts.include_ranges {
            range_filter(
                &mut patterns,
                &mut filters,
                &var,
                vocab::HAS_LOWER_CARDINALITY,
                vocab::HAS_HIGHER_CARDINALITY,
                pop.est_card,
            );
        }
        if let Some(t) = pop.kind.scan_table() {
            let tref = &qgm.query.tables[t];
            let stats = db.belief.table(tref.table);
            table_names.insert(db.table(tref.table).name.clone());
            if opts.include_ranges {
                range_filter(
                    &mut patterns,
                    &mut filters,
                    &var,
                    vocab::HAS_LOWER_ROW_SIZE,
                    vocab::HAS_HIGHER_ROW_SIZE,
                    stats.row_size as f64,
                );
                range_filter(
                    &mut patterns,
                    &mut filters,
                    &var,
                    vocab::HAS_LOWER_FPAGES,
                    vocab::HAS_HIGHER_FPAGES,
                    stats.pages as f64,
                );
                range_filter(
                    &mut patterns,
                    &mut filters,
                    &var,
                    vocab::HAS_LOWER_BASE_CARDINALITY,
                    vocab::HAS_HIGHER_BASE_CARDINALITY,
                    stats.row_count as f64,
                );
            }
            let tab_var = format!("tab_{}", pop.op_id);
            vars.push(tab_var.clone());
            patterns.push(TriplePattern {
                subject: var_pattern(&var),
                path: pred(vocab::HAS_CANONICAL_TABID),
                object: var_pattern(&tab_var),
            });
            scan_vars.push(ScanVar {
                op_id: pop.op_id,
                var: tab_var,
                qualifier: tref.qualifier.clone(),
            });
        }
    }

    // Relationship handlers.
    for &pid in &pops {
        let pop = qgm.pop(pid);
        let var = format!("pop_{}", pop.op_id);
        for (i, &child) in pop.inputs.iter().enumerate() {
            if !pops.contains(&child) {
                continue;
            }
            let child_var = format!("pop_{}", qgm.pop(child).op_id);
            patterns.push(TriplePattern {
                subject: var_pattern(&child_var),
                path: pred(vocab::HAS_OUTPUT_STREAM),
                object: var_pattern(&var),
            });
            if pop.kind.is_join() {
                let role = if i == 0 {
                    vocab::HAS_OUTER_INPUT_STREAM
                } else {
                    vocab::HAS_INNER_INPUT_STREAM
                };
                patterns.push(TriplePattern {
                    subject: var_pattern(&var),
                    path: pred(role),
                    object: var_pattern(&child_var),
                });
            }
        }
    }

    // Uniqueness filters for same-typed operators (the paper's
    // `FILTER (STR(?pop_6) > STR(?pop_8))` idiom).
    for i in 0..pops.len() {
        for j in (i + 1)..pops.len() {
            let (a, b) = (qgm.pop(pops[i]), qgm.pop(pops[j]));
            if a.kind.name() == b.kind.name() {
                filters.push(Expr::Cmp(
                    CmpOp::Ne,
                    Box::new(Expr::Str(Box::new(Expr::Var(format!("pop_{}", a.op_id))))),
                    Box::new(Expr::Str(Box::new(Expr::Var(format!("pop_{}", b.op_id))))),
                ));
            }
        }
    }

    SegmentProbe {
        query: SelectQuery {
            distinct: false,
            vars,
            patterns,
            filters,
            graph: None,
            order_by: None,
            limit: None,
        },
        scan_vars,
        signature: segment_signature(qgm, root).hash,
        table_names: table_names.into_iter().collect(),
    }
}

/// `(operator type, estimated cardinality)` per operator of the segment —
/// the values the knowledge base's cardinality pre-check tests candidates
/// against. Computable without compiling a probe, so the matcher can prune
/// a segment before building anything.
pub fn segment_card_checks(qgm: &Qgm, root: PopId) -> Vec<(&'static str, f64)> {
    qgm.subtree(root)
        .into_iter()
        .map(|pid| {
            let pop = qgm.pop(pid);
            (pop.kind.name(), pop.est_card)
        })
        .collect()
}

/// One admission pre-check per operator of the segment: operator type,
/// estimated cardinality and — for scans — the belief-table statistics
/// (row size, FPAGES, base cardinality) the Figure-6 probe would test.
/// These are exactly the values [`segment_to_probe`]'s range filters bind
/// against, so the knowledge base can decide on a candidate template from
/// its in-memory index without evaluating the probe.
pub fn segment_pop_checks(db: &Database, qgm: &Qgm, root: PopId) -> Vec<PopCheck> {
    qgm.subtree(root)
        .into_iter()
        .map(|pid| pop_check(db, qgm, qgm.pop(pid)))
        .collect()
}

/// One operator's admission check (see [`segment_pop_checks`]).
pub(crate) fn pop_check(db: &Database, qgm: &Qgm, pop: &Pop) -> PopCheck {
    let scan = pop.kind.scan_table().map(|t| {
        let stats = db.belief.table(qgm.query.tables[t].table);
        ScanCheck {
            row_size: stats.row_size as f64,
            fpages: stats.pages as f64,
            base_cardinality: stats.row_count as f64,
        }
    });
    PopCheck {
        pop_type: pop.kind.name(),
        est_card: pop.est_card,
        scan,
    }
}

/// Generate the Figure-6 segment-match query as SPARQL **text**. This
/// path serves explain/debug output (e.g. the knowledge-base tour example)
/// and the oracle's text pipeline, which the differential tests compare
/// [`segment_to_probe`] and the matcher against.
pub fn segment_to_sparql(db: &Database, qgm: &Qgm, root: PopId) -> String {
    segment_to_sparql_opt(db, qgm, root, &ProbeOptions::default())
}

/// [`segment_to_sparql`] with explicit [`ProbeOptions`].
pub fn segment_to_sparql_opt(db: &Database, qgm: &Qgm, root: PopId, opts: &ProbeOptions) -> String {
    let pops = qgm.subtree(root);
    let mut select: Vec<String> = vec!["?tmpl".to_string()];
    let mut body = String::new();
    let mut ih = 0usize;

    // Same join count as the template; see `segment_to_probe`.
    body.push_str(&format!(
        " ?tmpl predURI:{} ?jc .\n FILTER ( ?jc = {} ) .\n",
        vocab::HAS_JOIN_COUNT,
        qgm.join_count(root)
    ));

    let mut range_filter = |body: &mut String, var: &str, lower: &str, higher: &str, value: f64| {
        let (against_lower, against_upper) = margin_bounds(value, opts.range_margin);
        ih += 1;
        body.push_str(&format!(
            " {var} predURI:{lower} ?ih{ih} .\n FILTER ( ?ih{ih} <= {against_lower}) .\n"
        ));
        ih += 1;
        body.push_str(&format!(
            " {var} predURI:{higher} ?ih{ih} .\n FILTER ( ?ih{ih} >= {against_upper}) .\n"
        ));
    };

    for &pid in &pops {
        let pop = qgm.pop(pid);
        let var = format!("?pop_{}", pop.op_id);
        select.push(var.clone());
        body.push_str(&format!(" {var} predURI:{} ?tmpl .\n", vocab::IN_TEMPLATE));
        body.push_str(&format!(
            " {var} predURI:{} \"{}\" .\n",
            vocab::HAS_POP_TYPE,
            pop.kind.name()
        ));
        if opts.include_ranges {
            range_filter(
                &mut body,
                &var,
                vocab::HAS_LOWER_CARDINALITY,
                vocab::HAS_HIGHER_CARDINALITY,
                pop.est_card,
            );
        }
        if let Some(t) = pop.kind.scan_table() {
            let tref = &qgm.query.tables[t];
            let stats = db.belief.table(tref.table);
            if opts.include_ranges {
                range_filter(
                    &mut body,
                    &var,
                    vocab::HAS_LOWER_ROW_SIZE,
                    vocab::HAS_HIGHER_ROW_SIZE,
                    stats.row_size as f64,
                );
                range_filter(
                    &mut body,
                    &var,
                    vocab::HAS_LOWER_FPAGES,
                    vocab::HAS_HIGHER_FPAGES,
                    stats.pages as f64,
                );
                range_filter(
                    &mut body,
                    &var,
                    vocab::HAS_LOWER_BASE_CARDINALITY,
                    vocab::HAS_HIGHER_BASE_CARDINALITY,
                    stats.row_count as f64,
                );
            }
            let tab_var = format!("?tab_{}", pop.op_id);
            select.push(tab_var.clone());
            body.push_str(&format!(
                " {var} predURI:{} {tab_var} .\n",
                vocab::HAS_CANONICAL_TABID
            ));
        }
    }

    // Relationship handlers.
    for &pid in &pops {
        let pop = qgm.pop(pid);
        let var = format!("?pop_{}", pop.op_id);
        for (i, &child) in pop.inputs.iter().enumerate() {
            if !pops.contains(&child) {
                continue;
            }
            let child_var = format!("?pop_{}", qgm.pop(child).op_id);
            body.push_str(&format!(
                " {child_var} predURI:{} {var} .\n",
                vocab::HAS_OUTPUT_STREAM
            ));
            if pop.kind.is_join() {
                let role = if i == 0 {
                    vocab::HAS_OUTER_INPUT_STREAM
                } else {
                    vocab::HAS_INNER_INPUT_STREAM
                };
                body.push_str(&format!(" {var} predURI:{role} {child_var} .\n"));
            }
        }
    }

    // Uniqueness filters for same-typed operators.
    for i in 0..pops.len() {
        for j in (i + 1)..pops.len() {
            let (a, b) = (qgm.pop(pops[i]), qgm.pop(pops[j]));
            if a.kind.name() == b.kind.name() {
                body.push_str(&format!(
                    " FILTER (STR(?pop_{}) != STR(?pop_{})) .\n",
                    a.op_id, b.op_id
                ));
            }
        }
    }

    format!(
        "PREFIX predURI: <{}>\nSELECT {}\nWHERE {{\n{}}}",
        vocab::PROP_NS,
        select.join(" "),
        body
    )
}

/// The scan operators of a segment with their query qualifiers, in
/// pre-order — used to translate canonical TABIDs back to the query's
/// table references after a match.
pub fn segment_scan_qualifiers(qgm: &Qgm, root: PopId) -> Vec<(u32, String)> {
    qgm.subtree(root)
        .into_iter()
        .filter_map(|pid| {
            let pop = qgm.pop(pid);
            pop.kind
                .scan_table()
                .map(|t| (pop.op_id, qgm.query.tables[t].qualifier.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};
    use galo_optimizer::Optimizer;
    use galo_rdf::{IndexedStore, TripleStore};
    use galo_sql::parse;

    fn setup() -> (Database, Qgm) {
        let mut b = DatabaseBuilder::new("tr", SystemConfig::default_1gb());
        b.add_table(
            Table::new(
                "FACT",
                vec![
                    col("F_K", ColumnType::Integer),
                    col("F_V", ColumnType::Decimal),
                ],
            ),
            100_000,
            vec![
                ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
                ColumnStats::uniform(10_000, 0.0, 1e6, 8),
            ],
        );
        b.add_table(
            Table::new(
                "DIM",
                vec![
                    col("D_K", ColumnType::Integer),
                    col("D_A", ColumnType::Integer),
                ],
            ),
            1_000,
            vec![
                ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
                ColumnStats::uniform(50, 0.0, 50.0, 4),
            ],
        );
        let db = b.build();
        let q = parse(
            &db,
            "q",
            "SELECT f_v FROM fact, dim WHERE f_k = d_k AND d_a = 7",
        )
        .unwrap();
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        (db, plan)
    }

    #[test]
    fn qgm_to_rdf_emits_paper_properties() {
        let (db, plan) = setup();
        let triples = qgm_to_rdf(&db, &plan);
        let store = {
            let mut s = IndexedStore::new();
            for (a, b, c) in triples {
                s.insert(a, b, c);
            }
            s
        };
        // Every operator has a type; scans carry table metadata.
        let rs = galo_rdf::parse_select(
            "PREFIX p: <http://galo/qep/property/> SELECT ?s ?t WHERE { ?s p:hasPopType ?t . }",
        )
        .unwrap();
        let out = galo_rdf::evaluate(&store, &rs);
        assert_eq!(out.len(), plan.len());
        let rs2 = galo_rdf::parse_select(
            "PREFIX p: <http://galo/qep/property/> \
             SELECT ?s WHERE { ?s p:hasTableName \"FACT\" . ?s p:hasBaseCardinality ?c . \
             FILTER(?c = 100000) }",
        )
        .unwrap();
        assert_eq!(galo_rdf::evaluate(&store, &rs2).len(), 1);
    }

    #[test]
    fn rdf_streams_connect_every_nonroot_operator() {
        let (db, plan) = setup();
        let mut store = IndexedStore::new();
        for (a, b, c) in qgm_to_rdf(&db, &plan) {
            store.insert(a, b, c);
        }
        let q = galo_rdf::parse_select(
            "PREFIX p: <http://galo/qep/property/> SELECT ?c ?pa WHERE { ?c p:hasOutputStream ?pa . }",
        )
        .unwrap();
        // Every operator except RETURN has an output stream.
        assert_eq!(galo_rdf::evaluate(&store, &q).len(), plan.len() - 1);
    }

    #[test]
    fn generated_sparql_parses_and_has_figure6_shape() {
        let (db, plan) = setup();
        let join = plan
            .pops()
            .find(|(_, p)| p.kind.is_join())
            .map(|(id, _)| id)
            .unwrap();
        let text = segment_to_sparql(&db, &plan, join);
        assert!(text.starts_with("PREFIX predURI: <http://galo/qep/property/>"));
        assert!(text.contains("hasLowerCardinality"));
        assert!(text.contains("hasHigherCardinality"));
        assert!(text.contains("hasOutputStream"));
        assert!(text.contains("?tmpl"));
        // It must be valid SPARQL for our engine.
        galo_rdf::parse_select(&text).expect("generated SPARQL must parse");
    }

    #[test]
    fn probe_ir_equals_parsed_text_for_all_options() {
        // The compiled probe must be byte-for-byte the AST the text path
        // parses to — same patterns, same filters, same projection — for
        // every option combination, so either path can serve as the
        // other's oracle.
        let (db, plan) = setup();
        let roots: Vec<_> = plan
            .pops()
            .filter(|(_, p)| p.kind.is_join())
            .map(|(id, _)| id)
            .chain(std::iter::once(plan.root()))
            .collect();
        for root in roots {
            for opts in [
                ProbeOptions::default(),
                ProbeOptions {
                    range_margin: 2.5,
                    include_ranges: true,
                },
                ProbeOptions {
                    range_margin: 1.0,
                    include_ranges: false,
                },
            ] {
                let probe = segment_to_probe(&db, &plan, root, &opts);
                let text = segment_to_sparql_opt(&db, &plan, root, &opts);
                let parsed = galo_rdf::parse_select(&text).expect("text path parses");
                assert_eq!(probe.query, parsed, "opts {opts:?}");
            }
        }
    }

    #[test]
    fn probe_carries_scan_vars_and_signature() {
        let (db, plan) = setup();
        let probe = segment_to_probe(&db, &plan, plan.root(), &ProbeOptions::default());
        let quals = segment_scan_qualifiers(&plan, plan.root());
        assert_eq!(probe.scan_vars.len(), quals.len());
        for (sv, (op_id, qualifier)) in probe.scan_vars.iter().zip(&quals) {
            assert_eq!(sv.op_id, *op_id);
            assert_eq!(sv.var, format!("tab_{op_id}"));
            assert_eq!(&sv.qualifier, qualifier);
        }
        assert_eq!(
            probe.signature,
            galo_qgm::segment_signature(&plan, plan.root()).hash
        );
        assert_eq!(probe.table_names, vec!["DIM".to_string(), "FACT".into()]);
    }

    #[test]
    fn relaxed_probe_has_no_range_constraints() {
        let (db, plan) = setup();
        let relaxed = segment_to_probe(
            &db,
            &plan,
            plan.root(),
            &ProbeOptions {
                range_margin: 1.0,
                include_ranges: false,
            },
        );
        for p in &relaxed.query.patterns {
            let iri = p.path.iri().str_value();
            assert!(
                !iri.contains("hasLower") && !iri.contains("hasHigher"),
                "range pattern {iri} in relaxed probe"
            );
        }
        // Structural constraints remain: join count, types, edges, tabids.
        let full = segment_to_probe(&db, &plan, plan.root(), &ProbeOptions::default());
        assert!(relaxed.query.patterns.len() < full.query.patterns.len());
        assert!(relaxed.query.patterns.iter().any(|p| p
            .path
            .iri()
            .str_value()
            .ends_with("hasCanonicalTabid")));
    }

    #[test]
    fn range_margin_widens_filter_bounds() {
        let (db, plan) = setup();
        let exact = segment_to_sparql_opt(&db, &plan, plan.root(), &ProbeOptions::default());
        let widened = segment_to_sparql_opt(
            &db,
            &plan,
            plan.root(),
            &ProbeOptions {
                range_margin: 2.0,
                include_ranges: true,
            },
        );
        assert_ne!(exact, widened);
        // A sub-1.0 margin is clamped to exact semantics.
        let clamped = segment_to_sparql_opt(
            &db,
            &plan,
            plan.root(),
            &ProbeOptions {
                range_margin: 0.25,
                include_ranges: true,
            },
        );
        assert_eq!(exact, clamped);
    }

    #[test]
    fn scan_qualifiers_enumerate_segment_tables() {
        let (_db, plan) = setup();
        let quals = segment_scan_qualifiers(&plan, plan.root());
        let names: Vec<&str> = quals.iter().map(|(_, q)| q.as_str()).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"Q1"));
        assert!(names.contains(&"Q2"));
    }
}
