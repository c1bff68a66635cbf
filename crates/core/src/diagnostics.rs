//! Problem determination and optimizer-evolution reporting — the paper's
//! Goals 1 and 3.
//!
//! Goal 1 (inherited from OptImatch): "GALO's knowledge base is also an
//! invaluable tool for database experts to debug query performance issues
//! by tracking to known issues and solutions." [`diagnose`] produces that
//! report for a query: exact template matches, near-misses whose structure
//! matches but whose property ranges do not (the "similar patterns that
//! can help with insights" of §1.1), why each template the admission
//! pre-check let through did not match, and the operators with the worst
//! estimated-vs-actual discrepancies.
//!
//! Goal 3: "GALO can be utilized by the performance optimization team to
//! extract from the knowledge base those systemic issues for the
//! optimizer." [`evolution_report`] aggregates the knowledge base by
//! rewrite class — which join methods get replaced by which, how often
//! access paths flip — exactly the summary a development team would mine
//! for new rewrite rules.

use std::collections::BTreeMap;

use galo_catalog::Database;
use galo_executor::compute_actuals;
use galo_qgm::{segments, GuidelineNode, Qgm};
use galo_rdf::Term;

use crate::kb::KnowledgeBase;
use crate::matching::{
    binds, candidate_verdicts, compile_plan, match_compiled, MatchConfig, MatchMiss,
};
use crate::oracle::structural_matches;
use crate::vocab;

/// One suspicious operator: large estimated-vs-actual discrepancy.
#[derive(Debug, Clone)]
pub struct Suspect {
    pub op_id: u32,
    pub pop_type: String,
    pub est_card: f64,
    pub actual_card: f64,
    pub q_error: f64,
}

/// A structure-only near-miss: a template with the same operator skeleton
/// whose property ranges did not admit this plan.
#[derive(Debug, Clone)]
pub struct NearMiss {
    pub template_iri: String,
    pub source_workload: String,
    pub improvement: f64,
}

/// A template the admission pre-check let through for a segment that
/// then did not match it, and the first condition of a match it failed
/// (the signature index's module docs state them).
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Root operator id of the segment.
    pub segment_op_id: u32,
    pub template_iri: String,
    pub reason: MatchMiss,
}

/// Diagnostic report for one plan.
#[derive(Debug)]
pub struct Diagnosis {
    /// Exact matches (ranges included) with their recommended rewrites.
    pub known_issues: Vec<crate::matching::MatchedRewrite>,
    /// Structure-only matches outside their validity ranges.
    pub near_misses: Vec<NearMiss>,
    /// Admitted candidates that did not match, segment by segment in the
    /// matcher's order, with the reason.
    pub rejected: Vec<Rejection>,
    /// Operators ranked by estimation error (worst first).
    pub suspects: Vec<Suspect>,
}

/// Produce a problem-determination report for a compiled plan.
pub fn diagnose(db: &Database, kb: &KnowledgeBase, qgm: &Qgm, cfg: &MatchConfig) -> Diagnosis {
    let compiled = compile_plan(db, qgm, cfg);
    let matched = match_compiled(db, kb, qgm, &compiled);

    // Why each admitted candidate missed: the matcher's own verdict, or —
    // for a row that matched — a guideline naming a label it left unbound.
    let rejected = candidate_verdicts(kb, &compiled)
        .into_iter()
        .filter_map(|candidate| {
            let reason = match &candidate.verdict {
                Err(miss) => *miss,
                Ok(labels) => {
                    let guideline = kb.guideline_of(&candidate.template_iri);
                    if guideline.is_some_and(|(doc, _)| binds(&doc, labels)) {
                        return None;
                    }
                    MatchMiss::UnboundLabel
                }
            };
            Some(Rejection {
                segment_op_id: candidate.segment_op_id,
                template_iri: candidate.template_iri,
                reason,
            })
        })
        .collect();

    // Near misses: probe each segment with the range constraints dropped
    // (the oracle's structure-only probe over the signature's
    // candidates), then subtract exact matches.
    let mut near: BTreeMap<String, NearMiss> = BTreeMap::new();
    for segment in segments(qgm, cfg.join_threshold) {
        for iri in structural_matches(db, kb, qgm, segment.root) {
            if matched.rewrites.iter().any(|r| r.template_iri == iri) {
                continue;
            }
            if let Some((improvement, source)) = template_meta(kb, &iri) {
                near.insert(
                    iri.clone(),
                    NearMiss {
                        template_iri: iri,
                        source_workload: source,
                        improvement,
                    },
                );
            }
        }
    }

    // Estimation suspects from the actuals.
    let actuals = compute_actuals(db, qgm);
    let mut suspects: Vec<Suspect> = qgm
        .pops()
        .map(|(id, pop)| Suspect {
            op_id: pop.op_id,
            pop_type: pop.kind.name().to_string(),
            est_card: pop.est_card,
            actual_card: actuals.rows(id),
            q_error: actuals.q_error(qgm, id),
        })
        .filter(|s| s.q_error > 2.0)
        .collect();
    suspects.sort_by(|a, b| {
        b.q_error
            .partial_cmp(&a.q_error)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    Diagnosis {
        known_issues: matched.rewrites,
        near_misses: near.into_values().collect(),
        rejected,
        suspects,
    }
}

fn template_meta(kb: &KnowledgeBase, iri: &str) -> Option<(f64, String)> {
    let q = format!(
        "PREFIX p: <{}> SELECT ?i ?s WHERE {{ <{iri}> p:{} ?i . <{iri}> p:{} ?s . }}",
        vocab::PROP_NS,
        vocab::HAS_IMPROVEMENT,
        vocab::HAS_SOURCE_WORKLOAD
    );
    let rs = kb.server().query(&q).ok()?;
    let improvement = match rs.get(0, "i")? {
        Term::Literal(l) => l.as_number()?,
        _ => return None,
    };
    Some((improvement, rs.get(0, "s")?.str_value().to_string()))
}

// ---------------------------------------------------------------- Goal 3 --

/// One rewrite class in the evolution report, e.g. `HSJOIN -> MSJOIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteClass {
    /// Problem-side root operator type.
    pub from: String,
    /// Rewrite-side root operator type.
    pub to: String,
    pub templates: usize,
    pub avg_improvement: f64,
    /// Workloads the class was observed in.
    pub workloads: Vec<String>,
}

/// Aggregate the knowledge base by rewrite class — the systemic-issue
/// summary for the optimizer development team (paper Goal 3).
pub fn evolution_report(kb: &KnowledgeBase) -> Vec<RewriteClass> {
    // For each template: root problem type, guideline root type,
    // improvement, source.
    let q = format!(
        "PREFIX p: <{}> SELECT ?t ?g ?i ?s ?f WHERE {{ \
         ?t p:{} ?g . ?t p:{} ?i . ?t p:{} ?s . ?t p:{} ?f . }}",
        vocab::PROP_NS,
        vocab::HAS_GUIDELINE_XML,
        vocab::HAS_IMPROVEMENT,
        vocab::HAS_SOURCE_WORKLOAD,
        vocab::HAS_PROBLEM_FINGERPRINT,
    );
    let Ok(rs) = kb.server().query(&q) else {
        return Vec::new();
    };
    let mut classes: BTreeMap<(String, String), (usize, f64, Vec<String>)> = BTreeMap::new();
    for row in 0..rs.len() {
        let Some(xml) = rs.get(row, "g") else {
            continue;
        };
        let Some(fp) = rs.get(row, "f") else { continue };
        let improvement = rs
            .get(row, "i")
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_number())
            .unwrap_or(0.0);
        let source = rs
            .get(row, "s")
            .map(|t| t.str_value().to_string())
            .unwrap_or_default();

        // Problem root type: first operator under RETURN in the stored
        // fingerprint, e.g. "RETURN(HSJOIN(...".
        let from = fp
            .str_value()
            .strip_prefix("RETURN(")
            .and_then(|rest| rest.split(['(', '[']).next())
            .unwrap_or("?")
            .to_string();
        let to = GuidelineDoc_root_type(xml.str_value());
        let e = classes.entry((from, to)).or_insert((0, 0.0, Vec::new()));
        e.0 += 1;
        e.1 += improvement;
        if !e.2.contains(&source) {
            e.2.push(source);
        }
    }
    classes
        .into_iter()
        .map(|((from, to), (n, sum, workloads))| RewriteClass {
            from,
            to,
            templates: n,
            avg_improvement: sum / n as f64,
            workloads,
        })
        .collect()
}

#[allow(non_snake_case)]
fn GuidelineDoc_root_type(xml: &str) -> String {
    match galo_qgm::GuidelineDoc::parse_xml(xml) {
        Ok(doc) => doc
            .roots
            .first()
            .map(root_name)
            .unwrap_or_else(|| "?".to_string()),
        Err(_) => "?".to_string(),
    }
}

fn root_name(g: &GuidelineNode) -> String {
    g.element_name().to_string()
}

/// Render the evolution report as the table the paper's Goal 3 describes.
pub fn render_evolution_report(classes: &[RewriteClass]) -> String {
    let mut out = String::from(
        "systemic rewrite classes (problem -> recommended):\n\
         from       -> to         templates  avg improv  workloads\n",
    );
    for c in classes {
        out.push_str(&format!(
            "{:<10} -> {:<10} {:>9}  {:>9.1}%  {}\n",
            c.from,
            c.to,
            c.templates,
            c.avg_improvement * 100.0,
            c.workloads.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::{learn_workload, LearningConfig};
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig,
        Table, Value,
    };
    use galo_optimizer::Optimizer;
    use galo_workloads::Workload;

    fn quirky_workload() -> Workload {
        let mut b = DatabaseBuilder::new("diag_test", SystemConfig::default_1gb());
        let mut fact = Table::new(
            "FACT",
            vec![
                col("F_ADDR", ColumnType::Integer),
                col("F_PAYLOAD", ColumnType::Varchar(180)),
            ],
        );
        fact.add_index(Index {
            name: "F_ADDR_IX".into(),
            column: ColumnId(0),
            unique: false,
            cluster_ratio: 0.93,
        });
        let f = b.add_table(
            fact,
            1_441_000,
            vec![
                ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
                ColumnStats::uniform(500_000, 0.0, 1e6, 90),
            ],
        );
        let addr = b.add_table(
            Table::new(
                "ADDR",
                vec![
                    col("A_SK", ColumnType::Integer),
                    col("A_STATE", ColumnType::Varchar(4)),
                ],
            ),
            50_000,
            vec![
                ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
                ColumnStats::uniform(50, 0.0, 1e6, 2).with_frequent(vec![
                    (Value::Str("CA".into()), 9_000),
                    (Value::Str("TX".into()), 6_000),
                ]),
            ],
        );
        *b.belief_mut().column_mut(addr, ColumnId(1)) = ColumnStats::uniform(5_000, 0.0, 1e6, 2);
        b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
        let db = b.build();
        let q = galo_sql::parse(
            &db,
            "q1",
            "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'TX'",
        )
        .unwrap();
        Workload {
            name: "diag_test".into(),
            db,
            queries: vec![q],
        }
    }

    #[test]
    fn diagnosis_reports_known_issue_and_suspects() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        learn_workload(
            &w,
            &kb,
            &LearningConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let plan = Optimizer::new(&w.db).optimize(&w.queries[0]).unwrap();
        let d = diagnose(&w.db, &kb, &plan, &MatchConfig::default());
        assert!(!d.known_issues.is_empty(), "learned issue must be reported");
        assert!(
            !d.suspects.is_empty(),
            "the under-estimated join must be a suspect"
        );
        assert!(d.suspects[0].q_error > 10.0);
        // Suspects are sorted worst-first.
        for pair in d.suspects.windows(2) {
            assert!(pair[0].q_error >= pair[1].q_error);
        }
    }

    #[test]
    fn near_misses_surface_out_of_range_templates() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        learn_workload(
            &w,
            &kb,
            &LearningConfig {
                threads: 1,
                ..Default::default()
            },
        );
        // Displace every template's ranges so nothing matches exactly.
        let dump = kb.export();
        let displaced = dump
            .replace("hasLowerCardinality> \"", "hasLowerCardinality> \"9e9")
            .replace("hasHigherCardinality> \"", "hasHigherCardinality> \"9e9");
        let kb2 = KnowledgeBase::new();
        kb2.import(&displaced).unwrap();
        let plan = Optimizer::new(&w.db).optimize(&w.queries[0]).unwrap();
        let d = diagnose(&w.db, &kb2, &plan, &MatchConfig::default());
        assert!(
            d.known_issues.is_empty(),
            "ranges displaced: no exact match"
        );
        assert!(
            !d.near_misses.is_empty(),
            "structure still matches: must appear as near-miss"
        );
    }

    /// Templates the admission pre-check lets through but that do not
    /// match are reported with the first condition they fail; the one
    /// that matches is a known issue, not a rejection.
    #[test]
    fn diagnosis_says_why_an_admitted_template_did_not_match() {
        use crate::kb::abstract_plan;
        use galo_qgm::{guideline_from_plan, GuidelineDoc};

        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let plan = Optimizer::new(&w.db).optimize(&w.queries[0]).unwrap();
        let join = segments(&plan, 4)[0].root;
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, join).unwrap()]);
        let template = |id: &str| abstract_plan(&w.db, &plan, join, &g, id.into());
        let good = template("t0good");
        let mut swapped = template("t2swapped");
        swapped.pops[0].inputs.reverse();
        let mut unbound = template("t3unbound");
        let renamed = unbound.guideline.roots[0].map_tabids(&|t| format!("{t}9"));
        unbound.guideline = GuidelineDoc::new(vec![renamed]);
        kb.insert_batch(&[good, swapped, unbound]);
        let no_label = KnowledgeBase::templates_to_quads(&[template("t1nolabel")]);
        let label = vocab::prop(vocab::HAS_CANONICAL_TABID);
        kb.apply_quads(
            &no_label
                .into_iter()
                .filter(|q| q.1 != label)
                .collect::<Vec<_>>(),
        );

        let d = diagnose(&w.db, &kb, &plan, &MatchConfig::default());
        assert_eq!(d.known_issues.len(), 1);
        assert!(d.known_issues[0].template_iri.ends_with("t0good"));
        let why: Vec<(&str, MatchMiss)> = d
            .rejected
            .iter()
            .map(|r| (r.template_iri.rsplit('/').next().unwrap(), r.reason))
            .collect();
        assert_eq!(
            why,
            [
                ("t1nolabel", MatchMiss::TypeOrRange),
                ("t2swapped", MatchMiss::EdgeOrRole),
                ("t3unbound", MatchMiss::UnboundLabel),
            ]
        );
    }

    #[test]
    fn evolution_report_aggregates_rewrite_classes() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let report = learn_workload(
            &w,
            &kb,
            &LearningConfig {
                threads: 1,
                ..Default::default()
            },
        );
        assert!(report.templates_learned >= 1);
        let classes = evolution_report(&kb);
        assert!(!classes.is_empty());
        let total: usize = classes.iter().map(|c| c.templates).sum();
        assert_eq!(total, report.templates_learned);
        for c in &classes {
            assert!(c.avg_improvement > 0.0);
            assert!(c.workloads.contains(&"diag_test".to_string()));
        }
        let text = render_evolution_report(&classes);
        assert!(text.contains("->"));
    }
}
