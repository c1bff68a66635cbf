//! RDF vocabulary of the GALO knowledge base (paper §3.1).
//!
//! Plan operators live under `http://galo/qep/pop/`, properties under
//! `http://galo/qep/property/` — the IRIs shown in the paper's examples.
//! Knowledge-base templates are anonymized under `http://galo/kb/template/`
//! with "a unique random identifier" (§3.2) so resources from different
//! templates cannot collide.

use galo_rdf::Term;

/// Namespace for plan operators of a concrete QGM.
pub const POP_NS: &str = "http://galo/qep/pop/";
/// Namespace for properties.
pub const PROP_NS: &str = "http://galo/qep/property/";
/// Namespace for knowledge-base templates.
pub const TEMPLATE_NS: &str = "http://galo/kb/template/";
/// Namespace for per-workload named graphs in the knowledge base.
pub const WORKLOAD_GRAPH_NS: &str = "http://galo/kb/graph/workload/";

/// Property IRI constructor.
pub fn prop(name: &str) -> Term {
    Term::iri(format!("{PROP_NS}{name}"))
}

/// Concrete plan-operator IRI.
pub fn pop_iri(op_id: u32) -> Term {
    Term::iri(format!("{POP_NS}{op_id}"))
}

/// Template node IRI.
pub fn template_iri(id: &str) -> Term {
    Term::iri(format!("{TEMPLATE_NS}{id}"))
}

/// Named-graph IRI for the templates learned from one workload.
pub fn workload_graph_iri(workload: &str) -> Term {
    Term::iri(format!("{WORKLOAD_GRAPH_NS}{workload}"))
}

/// Template-scoped plan-operator IRI.
pub fn template_pop_iri(id: &str, op_id: u32) -> Term {
    Term::iri(format!("{TEMPLATE_NS}{id}/pop/{op_id}"))
}

/// The template a subject IRI belongs to, by the shape of the IRI alone:
/// `<ns><id>` is the template node itself, `<ns><id>/pop/<k>` one of its
/// operators (the same reading the store's template router places a
/// template's statements by). `None` for anything outside the template
/// namespace.
pub fn template_of(subject: &str) -> Option<&str> {
    let id = subject.strip_prefix(TEMPLATE_NS)?;
    let id_len = id.find('/').unwrap_or(id.len());
    (id_len > 0).then(|| &subject[..TEMPLATE_NS.len() + id_len])
}

// Property names (paper §3.1 / §3.2 / Figure 6).
pub const HAS_POP_TYPE: &str = "hasPopType";
pub const HAS_ESTIMATE_CARDINALITY: &str = "hasEstimateCardinality";
pub const HAS_OUTER_INPUT_STREAM: &str = "hasOuterInputStream";
pub const HAS_INNER_INPUT_STREAM: &str = "hasInnerInputStream";
pub const HAS_OUTPUT_STREAM: &str = "hasOutputStream";
pub const HAS_OPERATOR_ID: &str = "hasOperatorId";
pub const HAS_TABLE_NAME: &str = "hasTableName";
pub const HAS_TABLE_QUALIFIER: &str = "hasTableQualifier";
pub const HAS_ROW_SIZE: &str = "hasRowSize";
pub const HAS_FPAGES: &str = "hasFPages";
pub const HAS_BASE_CARDINALITY: &str = "hasBaseCardinality";
pub const HAS_INDEX_NAME: &str = "hasIndexName";

// Range-bound properties stored on templates ("the upper- and lower-bound
// values are each stored in their own respective tags", §3.2).
pub const HAS_LOWER_CARDINALITY: &str = "hasLowerCardinality";
pub const HAS_HIGHER_CARDINALITY: &str = "hasHigherCardinality";
pub const HAS_LOWER_ROW_SIZE: &str = "hasLowerRowSize";
pub const HAS_HIGHER_ROW_SIZE: &str = "hasHigherRowSize";
pub const HAS_LOWER_FPAGES: &str = "hasLowerFPages";
pub const HAS_HIGHER_FPAGES: &str = "hasHigherFPages";
pub const HAS_LOWER_BASE_CARDINALITY: &str = "hasLowerBaseCardinality";
pub const HAS_HIGHER_BASE_CARDINALITY: &str = "hasHigherBaseCardinality";

// Quantile-sketch literals stored next to the exact bounds: the full
// t-digest (hex of `galo_stats::StatSketch::to_bytes`) per learned
// property, so feedback refines the same sketch after export/import,
// durable reopen and reindex.
pub const HAS_CARDINALITY_SKETCH: &str = "hasCardinalitySketch";
pub const HAS_ROW_SIZE_SKETCH: &str = "hasRowSizeSketch";
pub const HAS_FPAGES_SKETCH: &str = "hasFPagesSketch";
pub const HAS_BASE_CARDINALITY_SKETCH: &str = "hasBaseCardinalitySketch";

/// The numeric property families of a template operator, as
/// `(hasLower*, hasHigher*, *Sketch)` names: cardinality first, then the
/// three scan statistics (row size, fpages, base cardinality).
/// Serialization, the signature-index reader and feedback refinement all
/// walk this one table, and the signature index stores an operator's
/// bounds in this order.
pub const STAT_FAMILIES: [(&str, &str, &str); 4] = [
    (
        HAS_LOWER_CARDINALITY,
        HAS_HIGHER_CARDINALITY,
        HAS_CARDINALITY_SKETCH,
    ),
    (HAS_LOWER_ROW_SIZE, HAS_HIGHER_ROW_SIZE, HAS_ROW_SIZE_SKETCH),
    (HAS_LOWER_FPAGES, HAS_HIGHER_FPAGES, HAS_FPAGES_SKETCH),
    (
        HAS_LOWER_BASE_CARDINALITY,
        HAS_HIGHER_BASE_CARDINALITY,
        HAS_BASE_CARDINALITY_SKETCH,
    ),
];

// Template metadata and linkage.
pub const IN_TEMPLATE: &str = "inTemplate";
pub const HAS_CANONICAL_TABID: &str = "hasCanonicalTabid";
pub const HAS_GUIDELINE_XML: &str = "hasGuidelineXml";
pub const HAS_IMPROVEMENT: &str = "hasImprovement";
pub const HAS_SOURCE_WORKLOAD: &str = "hasSourceWorkload";
pub const HAS_PROBLEM_FINGERPRINT: &str = "hasProblemFingerprint";
pub const HAS_JOIN_COUNT: &str = "hasJoinCount";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iris_match_paper_namespaces() {
        assert_eq!(pop_iri(2).str_value(), "http://galo/qep/pop/2");
        assert_eq!(
            prop(HAS_POP_TYPE).str_value(),
            "http://galo/qep/property/hasPopType"
        );
        assert_eq!(
            template_pop_iri("abc123", 5).str_value(),
            "http://galo/kb/template/abc123/pop/5"
        );
    }

    #[test]
    fn a_subject_names_its_template_by_shape() {
        let tpl = template_iri("abc123");
        assert_eq!(template_of(tpl.str_value()), Some(tpl.str_value()));
        assert_eq!(
            template_of(template_pop_iri("abc123", 5).str_value()),
            Some(tpl.str_value())
        );
        assert_eq!(template_of(pop_iri(2).str_value()), None);
        assert_eq!(template_of(TEMPLATE_NS), None);
    }
}
