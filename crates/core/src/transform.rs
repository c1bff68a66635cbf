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
use galo_rdf::{parse_select, SelectQuery, Term};

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

/// One scan operator's bindings in a segment probe: the variable its
/// canonical table label binds to and the query qualifier it stands for.
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

/// A knowledge-base probe for one plan segment: the Figure-6 query of
/// [`segment_to_sparql`], parsed, plus the structural signature used
/// to prune candidate templates and the scan-variable table.
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

/// One plan segment as a knowledge-base probe (paper Figure 6): the text
/// [`segment_to_sparql`] generates, parsed, so there is one builder of
/// the probe. The [`oracle`](crate::oracle) and the diagnostics evaluate
/// it; the scan variables, signature and table names come from one
/// pre-order pass over the segment.
pub fn segment_to_probe(
    db: &Database,
    qgm: &Qgm,
    root: PopId,
    include_ranges: bool,
) -> SegmentProbe {
    let text = segment_to_sparql(db, qgm, root, include_ranges);
    let query = parse_select(&text).expect("the generated Figure-6 SPARQL parses");
    let mut scan_vars: Vec<ScanVar> = Vec::new();
    let mut table_names: BTreeSet<String> = BTreeSet::new();
    for pid in qgm.subtree(root) {
        let pop = qgm.pop(pid);
        if let Some(t) = pop.kind.scan_table() {
            let tref = &qgm.query.tables[t];
            table_names.insert(db.table(tref.table).name.clone());
            scan_vars.push(ScanVar {
                op_id: pop.op_id,
                var: format!("tab_{}", pop.op_id),
                qualifier: tref.qualifier.clone(),
            });
        }
    }
    SegmentProbe {
        query,
        scan_vars,
        signature: segment_signature(qgm, root).hash,
        table_names: table_names.into_iter().collect(),
    }
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

/// Generate the Figure-6 segment-match query as SPARQL **text** — the one
/// builder of the probe: explain/debug output (e.g. the knowledge-base
/// tour example) prints it, and [`segment_to_probe`] parses it for the
/// oracle and the diagnostics.
///
/// For every operator of the segment the probe:
/// * binds a result handler `?pop_<opid>` constrained to the operator's
///   type and — when `include_ranges` — to the template's
///   `[hasLower*, hasHigher*]` ranges around the concrete value, via
///   internal handlers `?ih<k>`;
/// * for scans, additionally constrains row size / FPAGES / base
///   cardinality and retrieves the canonical table label `?tab_<opid>`;
/// * links operators with `hasOutputStream` relationship handlers and
///   role-tagged join edges;
/// * forces all bindings into one template via a shared `?tmpl`, and
///   pairwise-distinct resources via `FILTER(STR(..) != STR(..))`.
///
/// Without ranges only the structural skeleton remains (types, edges,
/// template linkage): the near-miss probe of problem determination
/// (paper Goal 1).
pub fn segment_to_sparql(db: &Database, qgm: &Qgm, root: PopId, include_ranges: bool) -> String {
    let pops = qgm.subtree(root);
    let mut select: Vec<String> = vec!["?tmpl".to_string()];
    let mut body = String::new();
    let mut ih = 0usize;

    // The segment must match a template of exactly the same join count —
    // otherwise a small segment can subgraph-match part of a larger
    // template, leaving canonical labels in its guideline unbound.
    body.push_str(&format!(
        " ?tmpl predURI:{} ?jc .\n FILTER ( ?jc = {} ) .\n",
        vocab::HAS_JOIN_COUNT,
        qgm.join_count(root)
    ));

    let mut range_filter = |body: &mut String, var: &str, lower: &str, higher: &str, value: f64| {
        ih += 1;
        body.push_str(&format!(
            " {var} predURI:{lower} ?ih{ih} .\n FILTER ( ?ih{ih} <= {value}) .\n"
        ));
        ih += 1;
        body.push_str(&format!(
            " {var} predURI:{higher} ?ih{ih} .\n FILTER ( ?ih{ih} >= {value}) .\n"
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
        if include_ranges {
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
            if include_ranges {
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

    // Uniqueness filters for same-typed operators (the paper's
    // `FILTER (STR(?pop_6) > STR(?pop_8))` idiom).
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
        let text = segment_to_sparql(&db, &plan, join, true);
        assert!(text.starts_with("PREFIX predURI: <http://galo/qep/property/>"));
        assert!(text.contains("hasLowerCardinality"));
        assert!(text.contains("hasHigherCardinality"));
        assert!(text.contains("hasOutputStream"));
        assert!(text.contains("?tmpl"));
        // It must be valid SPARQL for our engine.
        galo_rdf::parse_select(&text).expect("generated SPARQL must parse");
    }

    #[test]
    fn scan_vars_are_the_projected_labels_for_all_options() {
        // The probe's scan table and its query come from two walks of the
        // segment: the scan variables must be exactly the `?tab_<op_id>`
        // variables the query projects, in scan pre-order, with the
        // qualifiers `segment_scan_qualifiers` reports — for every option
        // combination and every segment root.
        let (db, plan) = setup();
        let roots: Vec<_> = plan
            .pops()
            .filter(|(_, p)| p.kind.is_join())
            .map(|(id, _)| id)
            .chain(std::iter::once(plan.root()))
            .collect();
        for root in roots {
            for include_ranges in [true, false] {
                let probe = segment_to_probe(&db, &plan, root, include_ranges);
                let projected: Vec<&str> = probe
                    .query
                    .vars
                    .iter()
                    .map(String::as_str)
                    .filter(|v| v.starts_with("tab_"))
                    .collect();
                let vars: Vec<&str> = probe.scan_vars.iter().map(|sv| sv.var.as_str()).collect();
                assert_eq!(vars, projected, "ranges {include_ranges}");
                let scans: Vec<(u32, String)> = probe
                    .scan_vars
                    .iter()
                    .inspect(|sv| assert_eq!(sv.var, format!("tab_{}", sv.op_id)))
                    .map(|sv| (sv.op_id, sv.qualifier.clone()))
                    .collect();
                assert_eq!(
                    scans,
                    segment_scan_qualifiers(&plan, root),
                    "ranges {include_ranges}"
                );
            }
        }
    }

    #[test]
    fn probe_carries_scan_vars_and_signature() {
        let (db, plan) = setup();
        let probe = segment_to_probe(&db, &plan, plan.root(), true);
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
        let relaxed = segment_to_probe(&db, &plan, plan.root(), false);
        for p in &relaxed.query.patterns {
            let iri = p.path.iri().str_value();
            assert!(
                !iri.contains("hasLower") && !iri.contains("hasHigher"),
                "range pattern {iri} in relaxed probe"
            );
        }
        // Structural constraints remain: join count, types, edges, tabids.
        let full = segment_to_probe(&db, &plan, plan.root(), true);
        assert!(relaxed.query.patterns.len() < full.query.patterns.len());
        assert!(relaxed.query.patterns.iter().any(|p| p
            .path
            .iri()
            .str_value()
            .ends_with("hasCanonicalTabid")));
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
