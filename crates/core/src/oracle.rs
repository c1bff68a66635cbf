//! The Figure-6 definition of a match, kept as the oracle.
//!
//! The paper matches a plan segment by running a SPARQL probe against the
//! knowledge base (§3.3, Figure 6): one result handler per operator,
//! constrained to its type and to the template's stored ranges around the
//! plan's values; relationship handlers for the stream edges and join
//! roles; pairwise-distinct filters for same-typed operators; the
//! template's join count; and the canonical table labels the guideline is
//! written over. That probe stays the definition of a match. The serve
//! path no longer evaluates it —
//! [`match_compiled`](crate::matching::match_compiled) restates it over
//! the signature index's rows (`crate::sigindex`, "What a match is") —
//! and this module keeps every way of evaluating it, for the differential
//! tests and for [`diagnose`](crate::diagnostics::diagnose):
//!
//! * [`match_plan_text`] evaluates each segment's probe
//!   ([`segment_to_probe`]: the SPARQL text, parsed) over the whole store,
//!   with no index;
//! * [`match_plan_probe`] walks the matcher's admission cursor and
//!   evaluates the probe with `?tmpl` bound to each admitted candidate,
//!   the first candidate with a solution deciding the segment;
//! * [`probe_labels`] is that evaluation for one candidate;
//! * [`structural_matches`] drops the range constraints: the templates
//!   whose structure alone matches a segment (`diagnose`'s near misses).
//!
//! All of them pick a winner by one rule, `winning_solution`: the
//! smallest `(template IRI, canonical labels)` pair over the probe's
//! solution rows — "first row wins" would depend on evaluator search
//! order.

use std::collections::HashSet;
use std::time::Instant;

use galo_catalog::Database;
use galo_qgm::{segments, shape_signature, PopId, Qgm};
use galo_rdf::{evaluate_seeded, ResultSet, Term};

use crate::kb::{AdmissionQuery, AdmissionStats, KnowledgeBase};
use crate::matching::{instantiate_match, MatchConfig, MatchReport, MatchedRewrite};
use crate::transform::{segment_pop_checks, segment_to_probe, ScanVar, SegmentProbe};

/// The deterministic winning solution of one segment probe: the smallest
/// `(template IRI, canonical table labels)` pair over all solution rows.
fn winning_solution(solutions: &ResultSet, scan_vars: &[ScanVar]) -> Option<(String, Vec<String>)> {
    let mut best: Option<(String, Vec<String>)> = None;
    for row in 0..solutions.len() {
        let Some(tmpl) = solutions.get(row, "tmpl") else {
            continue;
        };
        let labels: Vec<String> = scan_vars
            .iter()
            .map(|sv| {
                solutions
                    .get(row, &sv.var)
                    .map(|t| t.str_value().to_string())
                    .unwrap_or_default()
            })
            .collect();
        let key = (tmpl.str_value().to_string(), labels);
        if best.as_ref().is_none_or(|b| key < *b) {
            best = Some(key);
        }
    }
    best
}

/// Instantiate a winner over the probe's scan qualifiers.
fn instantiate(
    kb: &KnowledgeBase,
    template_iri: &str,
    labels: &[String],
    probe_scans: &[ScanVar],
    segment_op_id: u32,
) -> Option<Vec<MatchedRewrite>> {
    let qualifiers: Vec<&str> = probe_scans.iter().map(|sv| sv.qualifier.as_str()).collect();
    let guideline = kb.guideline_of(template_iri)?;
    instantiate_match(guideline, template_iri, labels, &qualifiers, segment_op_id)
}

/// The probe evaluated with `?tmpl` bound to one template: its winning
/// labels, or `None` when it has no solution (as for a template IRI the
/// store never interned).
fn evaluate(kb: &KnowledgeBase, probe: &SegmentProbe, template_iri: &str) -> Option<Vec<String>> {
    let solutions = kb.server().with_store(|st| {
        let tmpl = st.term_id(&Term::iri(template_iri))?;
        Some(evaluate_seeded(
            st,
            &probe.query,
            &[("tmpl".to_string(), tmpl)],
        ))
    })?;
    winning_solution(&solutions, &probe.scan_vars).map(|(_, labels)| labels)
}

/// The text pipeline: each segment's probe — the SPARQL text, parsed —
/// evaluated one query at a time over the whole store, with no signature
/// index.
pub fn match_plan_text(
    db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    cfg: &MatchConfig,
) -> MatchReport {
    let t0 = Instant::now();
    let mut report = MatchReport::default();
    let mut claimed: HashSet<u32> = HashSet::new();

    for segment in segments(qgm, cfg.join_threshold) {
        let seg_pops: Vec<u32> = qgm
            .subtree(segment.root)
            .iter()
            .map(|&p| qgm.pop(p).op_id)
            .collect();
        if seg_pops.iter().any(|id| claimed.contains(id)) {
            continue;
        }
        let probe = segment_to_probe(db, qgm, segment.root, true);
        report.probes_executed += 1;
        let solutions = kb.server().query_parsed(&probe.query);
        let Some((template_iri, labels)) = winning_solution(&solutions, &probe.scan_vars) else {
            continue;
        };
        let op_id = qgm.pop(segment.root).op_id;
        let Some(rewrites) = instantiate(kb, &template_iri, &labels, &probe.scan_vars, op_id)
        else {
            continue;
        };
        report.rewrites.extend(rewrites);
        claimed.extend(seg_pops);
    }
    report.refinements_applied = kb.refinements_applied();
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
}

/// The probe pipeline: per segment, the matcher's admission cursor, then
/// the probe evaluated for each admitted candidate in ascending
/// IRI order; the first candidate with a solution decides the segment,
/// even when its guideline names a label the solution did not bind.
pub fn match_plan_probe(
    db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    cfg: &MatchConfig,
) -> MatchReport {
    let t0 = Instant::now();
    let mut report = MatchReport::default();
    let mut claimed: HashSet<u32> = HashSet::new();
    let mut admission = AdmissionStats::default();

    for segment in segments(qgm, cfg.join_threshold) {
        let seg_pops: Vec<u32> = qgm
            .subtree(segment.root)
            .iter()
            .map(|&p| qgm.pop(p).op_id)
            .collect();
        if seg_pops.iter().any(|id| claimed.contains(id)) {
            continue;
        }
        let checks = segment_pop_checks(db, qgm, segment.root);
        let signature = shape_signature(segment.join_count, checks.iter().map(|c| c.pop_type));
        let query = AdmissionQuery::exact(&checks);
        let mut cursor = kb.next_candidate_admitting(signature, &query, None, &mut admission);
        if cursor.is_none() {
            report.probes_pruned += 1;
            continue;
        }
        let probe = segment_to_probe(db, qgm, segment.root, true);
        let mut matched = None;
        while let Some(iri) = cursor {
            report.probes_executed += 1;
            if let Some(labels) = evaluate(kb, &probe, &iri) {
                let op_id = qgm.pop(segment.root).op_id;
                matched = instantiate(kb, &iri, &labels, &probe.scan_vars, op_id);
                break;
            }
            cursor = kb.next_candidate_admitting(signature, &query, Some(&iri), &mut admission);
        }
        if let Some(rewrites) = matched {
            report.rewrites.extend(rewrites);
            claimed.extend(seg_pops);
        }
    }
    report.candidates_considered = admission.considered;
    report.candidates_examined = admission.examined;
    report.admission_rejects_card = admission.rejects_card;
    report.admission_rejects_scan = admission.rejects_scan;
    report.refinements_applied = kb.refinements_applied();
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
}

/// The Figure-6 verdict on one candidate: the segment rooted at `root`
/// probed with `?tmpl` bound to `template_iri`. The winning labels, one
/// per scan of the segment in pre-order, or `None` when the probe has no
/// solution.
pub fn probe_labels(
    db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    root: PopId,
    template_iri: &str,
) -> Option<Vec<String>> {
    let probe = segment_to_probe(db, qgm, root, true);
    evaluate(kb, &probe, template_iri)
}

/// The templates whose structure alone matches the segment rooted at
/// `root` — types, edges, roles, distinctness, join count and labels, no
/// range constraint — in ascending IRI order.
pub fn structural_matches(
    db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    root: PopId,
) -> Vec<String> {
    let probe = segment_to_probe(db, qgm, root, false);
    kb.candidate_templates(probe.signature)
        .into_iter()
        .filter(|iri| evaluate(kb, &probe, iri).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{abstract_plan, Template};
    use crate::matching::match_plan;
    use crate::vocab;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};
    use galo_optimizer::Optimizer;
    use galo_qgm::{guideline_from_plan, GuidelineDoc};
    use galo_rdf::Quad;

    fn setup() -> (Database, Qgm, Template) {
        let mut b = DatabaseBuilder::new("oracle", SystemConfig::default_1gb());
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
        let q = "SELECT f_v FROM fact, dim WHERE f_k = d_k AND d_a = 7";
        let q = galo_sql::parse(&db, "q", q).unwrap();
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        let join = segments(&plan, 4)[0].root;
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, join).unwrap()]);
        let tpl = abstract_plan(&db, &plan, join, &g, "irregular".into());
        (db, plan, tpl)
    }

    /// The template's quads plus `extra` statements about its root join.
    fn with_join_facts(tpl: &Template, extra: &[(&str, Term)]) -> Vec<Quad> {
        let mut quads = KnowledgeBase::templates_to_quads(std::slice::from_ref(tpl));
        let join = vocab::template_pop_iri(&tpl.id, tpl.pops[0].op_id);
        for (property, value) in extra {
            quads.push((join.clone(), vocab::prop(property), value.clone(), None));
        }
        quads
    }

    fn rewrites(report: &MatchReport) -> Vec<(u32, String)> {
        let rewrites = report.rewrites.iter();
        rewrites
            .map(|r| (r.segment_op_id, r.template_iri.clone()))
            .collect()
    }

    /// Several lower and higher bounds on one operator: the row keeps the
    /// least lower and the greatest higher one, which is the probe's
    /// "some stated bound admits" — so a second bound that does not
    /// admit, beside the stored one that does, changes nothing for either.
    #[test]
    fn several_bounds_read_as_the_probe_reads_them() {
        let (db, plan, tpl) = setup();
        let est = plan.pop(segments(&plan, 4)[0].root).est_card;
        let cfg = MatchConfig::default();
        for (lower, higher) in [(est * 10.0, est / 10.0), (est / 10.0, est * 10.0)] {
            let kb = KnowledgeBase::new();
            kb.apply_quads(&with_join_facts(
                &tpl,
                &[
                    (vocab::HAS_LOWER_CARDINALITY, Term::num(lower)),
                    (vocab::HAS_HIGHER_CARDINALITY, Term::num(higher)),
                ],
            ));
            let native = match_plan(&db, &kb, &plan, &cfg);
            assert!(!rewrites(&native).is_empty(), "{lower} / {higher}");
            assert_eq!(
                rewrites(&native),
                rewrites(&match_plan_text(&db, &kb, &plan, &cfg))
            );
            assert_eq!(
                rewrites(&native),
                rewrites(&match_plan_probe(&db, &kb, &plan, &cfg))
            );
        }
    }

    /// A candidate IRI the store never interned has no id to bind `?tmpl`
    /// to: the probe has no solution for it, as for any other template
    /// that does not match.
    #[test]
    fn a_template_the_store_never_interned_has_no_solution() {
        let (db, plan, tpl) = setup();
        let kb = KnowledgeBase::new();
        kb.insert(&tpl);
        let root = segments(&plan, 4)[0].root;
        let known = vocab::template_iri(&tpl.id);
        assert!(probe_labels(&db, &kb, &plan, root, known.str_value()).is_some());
        let never = "http://galo/kb/template/never-interned";
        assert_eq!(
            kb.server().with_store(|st| st.term_id(&Term::iri(never))),
            None
        );
        assert_eq!(probe_labels(&db, &kb, &plan, root, never), None);
    }

    /// An operator stated with two types is indexed under the lesser:
    /// when that is its plan type it matches, as the probe does; when it
    /// is not, the row moves to another shape and does not match, where
    /// the probe — trying each type — still finds it.
    #[test]
    fn an_operator_with_two_types_counts_as_the_lesser() {
        let (db, plan, tpl) = setup();
        let cfg = MatchConfig::default();
        for (second, native_matches) in [("ZZJOIN", true), ("AAJOIN", false)] {
            let kb = KnowledgeBase::new();
            kb.apply_quads(&with_join_facts(
                &tpl,
                &[(vocab::HAS_POP_TYPE, Term::lit(second))],
            ));
            let native = match_plan(&db, &kb, &plan, &cfg);
            let text = match_plan_text(&db, &kb, &plan, &cfg);
            assert!(!rewrites(&text).is_empty(), "the probe tries every type");
            assert_eq!(!rewrites(&native).is_empty(), native_matches, "{second}");
            if native_matches {
                assert_eq!(rewrites(&native), rewrites(&text));
            }
        }
    }
}
