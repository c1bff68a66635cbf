//! The matching engine (paper §3.3).
//!
//! Online, per incoming query: compile the query, climb bottom-up over the
//! plan's sub-QGM segments (capped by the learning join threshold), and
//! match each segment against the knowledge base in three stages:
//!
//! 1. **Signature pruning** — every segment gets a cheap structural
//!    signature (join count + join/scan operator multiset,
//!    [`galo_qgm::shape_signature`]); the knowledge base's signature index
//!    maps it to the candidate templates that *could* match. Segments
//!    with no candidates are pruned without touching the store.
//! 2. **Admission** — the candidates are walked in ascending IRI order by
//!    one cursor, which stops only on a row whose stored bounds could
//!    admit every segment operator (99.98 % are rejected on
//!    `serve_cold`, mostly on one per-type cardinality hull test).
//! 3. **Row-local assignment** — the admitted row is matched against the
//!    segment on the row alone, under the same index read: a small search
//!    assigns template operators to segment operators so that types,
//!    stored ranges, stream wiring, join roles, distinctness and the join
//!    count all hold, and picks the least canonical-label vector (the
//!    `crate::sigindex` module docs state the conditions). The first
//!    admitted candidate that matches decides the segment; only its
//!    guideline is read from the store. No SPARQL is built, prepared or
//!    evaluated.
//!
//! Matches are then processed bottom-up: the first (smallest-IRI)
//! matching template per segment wins, canonical table labels are
//! translated back to the query's table references, overlapping segments
//! are skipped via the claimed-operator set, and the collected rewrites
//! form one guideline document for re-optimization.
//!
//! [`match_compiled`] is the only production matcher — [`match_plan`]
//! and every serving-tier miss run it. The paper's Figure-6 probe is the
//! definition of a match and lives on as the oracle
//! ([`crate::oracle`]): property tests assert that the matcher, the probe
//! evaluated candidate by candidate, and the SPARQL text round trip
//! produce identical rewrites, and that every admitted candidate gets the
//! probe's verdict and labels.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use galo_catalog::Database;
use galo_executor::Simulator;
use galo_optimizer::{Optimizer, ReoptResult};
use galo_qgm::{segments, GuidelineDoc, GuidelineNode, PopId, Qgm};
use galo_sql::Query;

use crate::kb::{AdmissionQuery, AdmissionStats, KnowledgeBase, PopCheck};
use crate::sigindex::{input_roles, ChangeJournal, JournalRow, SegmentShape, Wire};
use crate::transform::{pop_check, segment_scan_qualifiers};

pub use crate::sigindex::MatchMiss;

/// Matching-engine configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Sub-QGM size cap, in joins — "the same predefined threshold that
    /// was used in the learning phase" (§3.3).
    pub join_threshold: usize,
    /// Near-miss widening factor for the feedback loop (≥ 1; `1.0` — the
    /// default — disables near-miss tracking). Matching always tests the
    /// stored ranges exactly; when the factor is > 1, the admission
    /// pre-check re-tests each rejected candidate with every range widened
    /// by it (`lo ≤ v·f`, `hi ≥ v/f`) and counts the ones that would have
    /// been admitted ([`MatchReport::near_misses`]), and
    /// [`KnowledgeBase::record_feedback`](crate::KnowledgeBase::record_feedback)
    /// records those candidates' observations so
    /// [`apply_feedback`](crate::KnowledgeBase::apply_feedback) can widen
    /// their stored envelopes toward values they nearly admitted.
    pub near_miss_factor: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            join_threshold: 4,
            near_miss_factor: 1.0,
        }
    }
}

impl MatchConfig {
    /// A validated builder starting from the defaults — the checked
    /// alternative to bare struct-literal construction.
    pub fn builder() -> MatchConfigBuilder {
        MatchConfigBuilder::default()
    }
}

/// A rejected [`MatchConfigBuilder::build`]: which field was out of range
/// and why.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchConfigError {
    /// `join_threshold` must be at least 1 (a segment needs a join).
    JoinThreshold(usize),
    /// `near_miss_factor` must be ≥ 1 and finite.
    NearMissFactor(f64),
}

impl std::fmt::Display for MatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchConfigError::JoinThreshold(v) => {
                write!(f, "join_threshold must be >= 1, got {v}")
            }
            MatchConfigError::NearMissFactor(v) => {
                write!(f, "near_miss_factor must be finite and >= 1.0, got {v}")
            }
        }
    }
}

impl std::error::Error for MatchConfigError {}

/// Validated builder for [`MatchConfig`]. Every setter takes the raw
/// value; [`build`](Self::build) checks all of them at once and names the
/// offending field, so an out-of-range threshold or factor is an explicit
/// error instead of a silently clamped (or silently nonsensical) config.
#[derive(Debug, Clone, Default)]
pub struct MatchConfigBuilder {
    cfg: MatchConfig,
}

impl MatchConfigBuilder {
    /// Sub-QGM size cap in joins (must be ≥ 1).
    pub fn join_threshold(mut self, joins: usize) -> Self {
        self.cfg.join_threshold = joins;
        self
    }

    /// Near-miss widening factor for feedback (must be ≥ 1).
    pub fn near_miss_factor(mut self, factor: f64) -> Self {
        self.cfg.near_miss_factor = factor;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<MatchConfig, MatchConfigError> {
        let c = &self.cfg;
        if c.join_threshold < 1 {
            return Err(MatchConfigError::JoinThreshold(c.join_threshold));
        }
        if !c.near_miss_factor.is_finite() || c.near_miss_factor < 1.0 {
            return Err(MatchConfigError::NearMissFactor(c.near_miss_factor));
        }
        Ok(self.cfg)
    }
}

/// One matched rewrite.
#[derive(Debug, Clone)]
pub struct MatchedRewrite {
    /// Root operator id of the matched segment in the original plan.
    pub segment_op_id: u32,
    /// Template IRI in the knowledge base.
    pub template_iri: String,
    /// Workload the template was learned from (cross-workload accounting,
    /// Exp-2).
    pub source_workload: String,
    /// The instantiated guideline (canonical labels already translated to
    /// the query's qualifiers).
    pub guideline: GuidelineNode,
}

/// Outcome of matching one plan against the knowledge base.
///
/// The work counters below (`probes_*`, `candidates_considered` and
/// `candidates_examined`, the admission rejects, `near_misses`,
/// `refinements_applied`) describe the match that produced the report. A
/// serving-cache hit hands back the report of the match that filled the
/// entry, which may have run at an earlier epoch than the one the hit is
/// validated at (see `galo_core::serving`): its rewrites are current, its
/// counters are that match's.
#[derive(Debug, Clone, Default)]
pub struct MatchReport {
    pub rewrites: Vec<MatchedRewrite>,
    /// Wall time spent matching, milliseconds.
    pub match_ms: f64,
    /// Segments resolved without checking any candidate: no structural
    /// candidates in the signature index, or none whose stored ranges
    /// could admit the segment.
    pub probes_pruned: usize,
    /// Admitted candidates checked: one per (surviving segment ×
    /// admitted candidate) actually matched against its row — claimed
    /// segments and candidates past a segment's first match are never
    /// checked. On the oracle's paths, one per probe evaluated.
    pub probes_executed: usize,
    /// True when the serving tier answered this plan from its
    /// plan-fingerprint outcome cache without re-matching (see
    /// `galo_core::serving`); always false on the direct [`match_plan`]
    /// and oracle paths.
    pub cache_hit: bool,
    /// Always 0 since the matcher stopped building probes: it counted
    /// segments whose probe an earlier match of the same [`CompiledPlan`]
    /// had built. Kept because the benchmark's composed serve compares
    /// it; it retires together with that composed serve.
    pub probes_reused: usize,
    /// Signature-index entries the admission walk went past across all of
    /// the plan's segments (admitted candidates included) — the
    /// denominator for the admission counters below. Always 0 on the
    /// oracle's text path, which has no index.
    pub candidates_considered: usize,
    /// The work behind `candidates_considered`: index rows the admission
    /// walk tested one by one plus hull-summary cells it tested
    /// ([`AdmissionStats::examined`]). The rows of a skipped block are
    /// considered but not examined.
    pub candidates_examined: usize,
    /// Candidates rejected by the admission pre-check because no
    /// same-typed template operator could admit a segment operator's
    /// estimated cardinality.
    pub admission_rejects_card: usize,
    /// Candidates whose cardinalities admitted but whose scan-statistics
    /// envelopes (row size / FPAGES / base cardinality) could not admit
    /// the segment's belief-table values.
    pub admission_rejects_scan: usize,
    /// Rejected candidates that *would* have been admitted with every
    /// range widened by [`MatchConfig::near_miss_factor`] — the feedback
    /// loop's widening signal. Always 0 when [`MatchConfig::near_miss_factor`] is 1.0
    /// (the default) and on the oracle's text path.
    pub near_misses: usize,
    /// The knowledge base's cumulative
    /// [`refinements_applied`](crate::KnowledgeBase::refinements_applied)
    /// counter at match time: how many feedback refinements the stored
    /// templates had absorbed when this report was computed.
    pub refinements_applied: u64,
    /// The change journal of the knowledge base that produced the report,
    /// set by [`match_compiled`]: the witness a cached copy is
    /// re-validated against once the epoch moves past its stamp. The
    /// cache keeps it beside the report, so a served copy carries none.
    pub(crate) witness: Option<Arc<ChangeJournal>>,
}

impl MatchReport {
    /// The combined guideline document submitted for re-optimization.
    pub fn guideline_doc(&self) -> GuidelineDoc {
        GuidelineDoc::new(self.rewrites.iter().map(|r| r.guideline.clone()).collect())
    }
}

/// True when every canonical label the guideline references is one the
/// match bound (an empty label binds nothing). A partial mapping would
/// produce a dangling guideline.
pub(crate) fn binds(guideline: &GuidelineDoc, labels: &[String]) -> bool {
    guideline.roots.iter().all(|r| {
        r.tabids()
            .iter()
            .all(|t| labels.iter().any(|label| !label.is_empty() && label == t))
    })
}

/// Instantiate a matched template as rewrites over the query's table
/// qualifiers: `labels[i]` is the canonical label matched for the `i`-th
/// scan of the segment, whose qualifier is `qualifiers[i]`. Returns
/// `None` (and claims nothing) when the template's guideline references
/// canonical labels the match did not bind.
pub(crate) fn instantiate_match(
    fetched: (GuidelineDoc, String),
    template_iri: &str,
    labels: &[String],
    qualifiers: &[&str],
    segment_op_id: u32,
) -> Option<Vec<MatchedRewrite>> {
    let (guideline, source_workload) = fetched;
    if !binds(&guideline, labels) {
        return None;
    }
    // Canonical label -> query qualifier, via the matched scan pops.
    let mapping: Vec<(&String, &str)> = labels
        .iter()
        .zip(qualifiers)
        .filter(|(label, _)| !label.is_empty())
        .map(|(label, &qualifier)| (label, qualifier))
        .collect();
    let map = |canon: &str| -> String {
        mapping
            .iter()
            .find(|(c, _)| c.as_str() == canon)
            .map(|(_, q)| q.to_string())
            .unwrap_or_else(|| canon.to_string())
    };
    Some(
        guideline
            .roots
            .iter()
            .map(|root| MatchedRewrite {
                segment_op_id,
                template_iri: template_iri.to_string(),
                source_workload: source_workload.clone(),
                guideline: root.map_tabids(&map),
            })
            .collect(),
    )
}

/// One segment of a [`CompiledPlan`]: a pre-order range of the plan's
/// flat layout — its checks and wires — plus what the matcher keys and
/// stamps it by.
#[derive(Debug)]
pub struct CompiledSegment {
    /// Root operator of the segment in the compiled-against plan.
    root: PopId,
    /// The root's pre-order position (`op_id − 1`): the segment is
    /// positions `start..start + len` of the plan, and `op_id`s
    /// `start + 1..=start + len` (claimed-overlap check).
    start: usize,
    len: usize,
    /// Joins in the segment.
    joins: usize,
    /// Structural signature — the knowledge base's candidate-index key.
    signature: u64,
}

impl CompiledSegment {
    /// The segment's pre-order positions.
    fn extent(&self) -> Range<usize> {
        self.start..self.start + self.len
    }

    /// `op_id` of the root (stamped into rewrites).
    fn segment_op_id(&self) -> u32 {
        self.start as u32 + 1
    }

    /// True when the segment shares an operator with `other`. Subtrees
    /// are nested or disjoint, so comparing extents is enough.
    fn overlaps(&self, other: &Range<usize>) -> bool {
        let mine = self.extent();
        mine.start < other.end && other.start < mine.end
    }

    /// The rewrites a matched template's guideline makes of this segment,
    /// over the table qualifiers of `qgm` (the plan it was compiled from);
    /// `None` when the guideline names a label the match did not bind.
    fn instantiate(
        &self,
        qgm: &Qgm,
        guideline: (GuidelineDoc, String),
        template_iri: &str,
        labels: &[String],
    ) -> Option<Vec<MatchedRewrite>> {
        let scans = segment_scan_qualifiers(qgm, self.root);
        let qualifiers: Vec<&str> = scans.iter().map(|(_, q)| q.as_str()).collect();
        instantiate_match(
            guideline,
            template_iri,
            labels,
            &qualifiers,
            self.segment_op_id(),
        )
    }
}

/// A plan compiled for matching, in one flat pre-order layout: one
/// admission check and one wire per operator of the plan, and its
/// bottom-up segments as ranges into them with their signatures — plus
/// the [`MatchConfig`] it was compiled under (admission depends on the
/// near-miss factor, segmentation on the join threshold — so the config
/// travels with the artifact instead of being re-supplied, possibly
/// mismatched, at match time). Compile once via [`compile_plan`], match any number of
/// times via [`match_compiled`]: repeat matches skip the compile pass.
#[derive(Debug)]
pub struct CompiledPlan {
    cfg: MatchConfig,
    /// One check per operator, pre-order — type, estimated cardinality,
    /// and (for scans) the belief-table statistics the match tests.
    checks: Vec<PopCheck>,
    /// One edge to its parent per operator, pre-order. The plan root's is
    /// a placeholder: no segment reads its root's wire.
    wires: Vec<Wire>,
    segments: Vec<CompiledSegment>,
}

impl CompiledPlan {
    /// The configuration the plan was compiled under.
    pub fn config(&self) -> &MatchConfig {
        &self.cfg
    }

    /// Number of matchable segments (bottom-up order).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The admission query a segment's candidate cursor runs under the
    /// plan's configuration.
    fn query(&self, seg: &CompiledSegment) -> AdmissionQuery<'_> {
        AdmissionQuery {
            checks: &self.checks[seg.extent()],
            near_factor: self.cfg.near_miss_factor,
        }
    }

    /// What the row-local assignment reads of a segment beside its checks.
    fn shape(&self, seg: &CompiledSegment) -> SegmentShape<'_> {
        SegmentShape {
            joins: seg.joins,
            wires: &self.wires[seg.extent()],
        }
    }

    /// True when a segment of the plan would pull the journaled row: one
    /// of the row's signature whose own admission query admits it (or
    /// counts it a near miss). A row no segment pulls cannot change what
    /// [`match_compiled`] produces for the plan.
    pub(crate) fn pulls(&self, row: &JournalRow) -> bool {
        let same_shape = self
            .segments
            .iter()
            .filter(|seg| seg.signature == row.signature());
        row.admitted_by_any(same_shape.map(|seg| self.query(seg)))
    }
}

/// Compile a plan's segments for matching: the plan-side half of
/// [`match_plan`], split out so the serving tier can cache it keyed by
/// plan fingerprint. Cheap — no knowledge-base access, and one pass over
/// the plan: each operator's check and wire are computed once, in the
/// arena's children-first order, and stored at its pre-order position
/// `op_id − 1`; every segment is then the contiguous range its subtree
/// covers ([`galo_qgm::Segment::extent`]). `db` supplies the belief-table
/// statistics the scan checks carry.
pub fn compile_plan(db: &Database, qgm: &Qgm, cfg: &MatchConfig) -> CompiledPlan {
    // Every slot is written: the arena holds each operator of the tree
    // once (`QgmBuilder::finish` refuses anything else).
    let unset = PopCheck::card("", 0.0);
    let mut checks = vec![unset; qgm.len()];
    let mut wires = vec![Wire { back: 0, roles: 0 }; qgm.len()];
    for (_, pop) in qgm.pops() {
        checks[pop.op_id as usize - 1] = pop_check(db, qgm, pop);
        for (input, &child) in pop.inputs.iter().enumerate() {
            let child = qgm.pop(child).op_id;
            wires[child as usize - 1] = Wire {
                back: child - pop.op_id,
                roles: input_roles(pop.kind.is_join(), input),
            };
        }
    }
    let segments = segments(qgm, cfg.join_threshold)
        .into_iter()
        .map(|segment| CompiledSegment {
            root: segment.root,
            start: segment.start,
            len: segment.len,
            joins: segment.join_count,
            // Candidate templates must share the segment's structural
            // signature AND have per-operator statistics envelopes that
            // could admit the segment's values — both necessary
            // conditions, checked entirely in the index.
            signature: galo_qgm::shape_signature(
                segment.join_count,
                checks[segment.extent()].iter().map(|c| c.pop_type),
            ),
        })
        .collect();
    CompiledPlan {
        cfg: cfg.clone(),
        checks,
        wires,
        segments,
    }
}

/// Match a compiled plan against the knowledge base — the index half of
/// [`match_plan`]: signature pruning, lazy candidate cursors, each
/// admitted candidate matched on its index row, and the winner's
/// guideline read from the store (see the module docs). `qgm` must be
/// the plan `compiled` was built from; `db` is not read, and stays in the
/// signature for the callers that pass it.
pub fn match_compiled(
    _db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    compiled: &CompiledPlan,
) -> MatchReport {
    let t0 = Instant::now();
    let mut report = MatchReport::default();
    // The extents of the matched segments.
    let mut claimed: Vec<Range<usize>> = Vec::new();

    // Per segment (bottom-up): the claimed-overlap check, then the
    // candidates one cursor pull at a time in ascending IRI order, each
    // matched on its row under the pull's index read. The first candidate
    // that matches (the globally smallest matching template) decides the
    // segment — even when its guideline then names a label the match did
    // not bind — so no work is spent past it.
    let mut admission = AdmissionStats::default();
    for seg in &compiled.segments {
        // Skip segments overlapping an earlier match — their rewrites
        // would fight over the same table references.
        if claimed.iter().any(|c| seg.overlaps(c)) {
            continue;
        }
        let (query, shape) = (compiled.query(seg), compiled.shape(seg));
        let pull = |after: Option<&str>, admission: &mut AdmissionStats| {
            kb.next_candidate_checked(seg.signature, &query, &shape, after, admission)
        };
        // The first cursor pull doubles as the emptiness pre-check.
        let mut cursor = pull(None, &mut admission);
        if cursor.is_none() {
            report.probes_pruned += 1;
            continue;
        }
        let mut matched: Option<Vec<MatchedRewrite>> = None;
        while let Some(candidate) = cursor {
            report.probes_executed += 1;
            if let Ok(labels) = &candidate.verdict {
                matched = kb
                    .guideline_of(&candidate.iri)
                    .and_then(|g| seg.instantiate(qgm, g, &candidate.iri, labels));
                break; // first matching candidate decides the segment
            }
            cursor = pull(Some(&candidate.iri), &mut admission);
        }
        if let Some(rewrites) = matched {
            report.rewrites.extend(rewrites);
            claimed.push(seg.extent());
        }
    }
    report.candidates_considered = admission.considered;
    report.candidates_examined = admission.examined;
    report.admission_rejects_card = admission.rejects_card;
    report.admission_rejects_scan = admission.rejects_scan;
    report.near_misses = admission.near_misses;
    report.refinements_applied = kb.refinements_applied();
    report.witness = Some(Arc::clone(kb.journal()));
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
}

/// Match a plan's segments against the knowledge base — the production
/// pipeline (see the module docs). Equivalent to [`compile_plan`]
/// followed by [`match_compiled`]; callers that match the same plan
/// repeatedly keep the [`CompiledPlan`] (or let the serving tier cache it
/// by fingerprint) to skip the per-call compilation.
pub fn match_plan(db: &Database, kb: &KnowledgeBase, qgm: &Qgm, cfg: &MatchConfig) -> MatchReport {
    let t0 = Instant::now();
    let compiled = compile_plan(db, qgm, cfg);
    let mut report = match_compiled(db, kb, qgm, &compiled);
    // Account compile + match, as before the split.
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
}

/// One admitted candidate of one segment, and what matching it on its
/// index row found.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateVerdict {
    /// Root operator id of the segment.
    pub segment_op_id: u32,
    pub template_iri: String,
    /// The winning canonical labels, one per scan of the segment in
    /// pre-order — or the first condition of a match the row failed
    /// (never [`MatchMiss::UnboundLabel`], which the guideline decides).
    pub verdict: Result<Vec<String>, MatchMiss>,
}

/// Every admitted candidate of every segment of a compiled plan, with its
/// verdict, in the order [`match_compiled`] checks them — but past each
/// segment's first match and through segments an earlier match claimed,
/// which the matcher skips. The matcher's explain side: `diagnose` reports
/// why each candidate missed, and the differential tests hold each
/// verdict against the Figure-6 probe's.
pub fn candidate_verdicts(kb: &KnowledgeBase, compiled: &CompiledPlan) -> Vec<CandidateVerdict> {
    let mut verdicts = Vec::new();
    let mut admission = AdmissionStats::default();
    for seg in &compiled.segments {
        let (query, shape) = (compiled.query(seg), compiled.shape(seg));
        let mut after: Option<String> = None;
        while let Some(candidate) = kb.next_candidate_checked(
            seg.signature,
            &query,
            &shape,
            after.as_deref(),
            &mut admission,
        ) {
            after = Some(candidate.iri.clone());
            verdicts.push(CandidateVerdict {
                segment_op_id: seg.segment_op_id(),
                template_iri: candidate.iri,
                verdict: candidate.verdict,
            });
        }
    }
    verdicts
}

/// Full re-optimization outcome for one query.
#[derive(Debug)]
pub struct ReoptOutcome {
    /// The optimizer's original plan.
    pub original: Qgm,
    /// Matching details.
    pub matched: MatchReport,
    /// The re-optimized result, when any rewrite matched.
    pub reoptimized: Option<ReoptResult>,
    /// Simulated steady-state runtime of the original plan, ms.
    pub original_ms: f64,
    /// Simulated steady-state runtime of the final plan, ms (equals
    /// `original_ms` when nothing matched).
    pub final_ms: f64,
}

impl ReoptOutcome {
    /// Relative runtime gain in `[0, 1)`; 0 when nothing matched or the
    /// rewrite did not help.
    pub fn gain(&self) -> f64 {
        if self.final_ms < self.original_ms {
            (self.original_ms - self.final_ms) / self.original_ms
        } else {
            0.0
        }
    }

    /// True when a rewrite matched and actually improved the runtime.
    pub fn improved(&self) -> bool {
        self.reoptimized.is_some() && self.final_ms < self.original_ms
    }
}

/// Compile, match, and re-optimize one query ("GALO acts as a third tier
/// of re-optimization").
pub fn reoptimize_query(
    db: &Database,
    kb: &KnowledgeBase,
    query: &Query,
    cfg: &MatchConfig,
) -> Result<ReoptOutcome, galo_optimizer::OptimizeError> {
    let optimizer = Optimizer::new(db);
    let sim = Simulator::new(db);
    let original = optimizer.optimize(query)?;
    let original_ms = sim.run(&original, true).elapsed_ms;

    let matched = match_plan(db, kb, &original, cfg);
    if matched.rewrites.is_empty() {
        return Ok(ReoptOutcome {
            original,
            matched,
            reoptimized: None,
            original_ms,
            final_ms: original_ms,
        });
    }
    let doc = matched.guideline_doc();
    let reopt = optimizer.optimize_with_guidelines(query, &doc)?;
    let final_ms = sim.run(&reopt.qgm, true).elapsed_ms;
    Ok(ReoptOutcome {
        original,
        matched,
        reoptimized: Some(reopt),
        original_ms,
        final_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::abstract_plan;
    use crate::learning::{learn_workload, LearningConfig};
    use crate::oracle::match_plan_text;
    use crate::sigindex::input_roles;
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig,
        Table, Value,
    };
    use galo_qgm::guideline_from_plan;
    use galo_workloads::Workload;

    fn quirky_workload() -> Workload {
        let mut b = DatabaseBuilder::new("match_test", SystemConfig::default_1gb());
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
                    (Value::Str("VT".into()), 200),
                ]),
            ],
        );
        // Stale belief: the optimizer thinks A_STATE has 5,000 uniform
        // values, so it grossly under-estimates the filtered dimension and
        // walks into the flooding nested-loop trap.
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
            name: "match_test".into(),
            db,
            queries: vec![q],
        }
    }

    /// What the compile differential compares of one segment, in plan
    /// terms.
    #[derive(Debug, PartialEq)]
    struct SegmentView {
        root_op_id: u32,
        op_ids: Vec<u32>,
        checks: Vec<PopCheck>,
        /// Per operator below the root, pre-order: its parent's `op_id`
        /// and the roles of the edge.
        parents: Vec<(u32, u8)>,
        joins: usize,
        signature: u64,
    }

    /// The segments of a compiled plan, read off its flat layout.
    fn views(qgm: &Qgm, plan: &CompiledPlan) -> Vec<SegmentView> {
        plan.segments
            .iter()
            .map(|seg| SegmentView {
                root_op_id: qgm.pop(seg.root).op_id,
                op_ids: seg.extent().map(|at| at as u32 + 1).collect(),
                checks: plan.checks[seg.extent()].to_vec(),
                parents: seg
                    .extent()
                    .skip(1)
                    .map(|at| {
                        let wire = plan.wires[at];
                        (wire.parent(at) as u32 + 1, wire.roles)
                    })
                    .collect(),
                joins: seg.joins,
                signature: seg.signature,
            })
            .collect()
    }

    /// The compile as it was before the single pass: every join root's
    /// join count from its own subtree walk, then per segment a pre-order
    /// walk of its subtree, a check per operator, and each operator's
    /// parent found by scanning back over the ones before it.
    fn reference_compile(db: &Database, qgm: &Qgm, cfg: &MatchConfig) -> Vec<SegmentView> {
        let mut roots: Vec<(PopId, usize)> = qgm
            .pops()
            .filter(|(_, p)| p.kind.is_join())
            .map(|(id, _)| (id, qgm.join_count(id)))
            .filter(|&(_, joins)| joins <= cfg.join_threshold)
            .collect();
        roots.sort_by_key(|&(id, joins)| (joins, qgm.pop(id).op_id));
        roots
            .into_iter()
            .map(|(root, joins)| {
                let pops = qgm.subtree(root);
                let mut parents = Vec::new();
                for (at, &pid) in pops.iter().enumerate() {
                    let parent = (0..at).rev().find_map(|p| {
                        let parent = qgm.pop(pops[p]);
                        let input = parent.inputs.iter().position(|&c| c == pid)?;
                        Some((parent.op_id, input_roles(parent.kind.is_join(), input)))
                    });
                    match parent {
                        Some(edge) => parents.push(edge),
                        None => assert_eq!(at, 0, "only the root has no parent inside"),
                    }
                }
                let checks: Vec<PopCheck> = pops
                    .iter()
                    .map(|&p| pop_check(db, qgm, qgm.pop(p)))
                    .collect();
                SegmentView {
                    root_op_id: qgm.pop(root).op_id,
                    op_ids: pops.iter().map(|&p| qgm.pop(p).op_id).collect(),
                    signature: galo_qgm::shape_signature(joins, checks.iter().map(|c| c.pop_type)),
                    checks,
                    parents,
                    joins,
                }
            })
            .collect()
    }

    #[test]
    fn single_pass_compile_equals_the_per_segment_reference() {
        // Segments compiled at join thresholds 1 to 6.
        let mut segments_seen = [0usize; 6];
        let mut sorts_inside = 0;
        for set in crate::test_plans::plan_sets() {
            for plan in &set.plans {
                for (seen, threshold) in segments_seen.iter_mut().zip(1..) {
                    let cfg = MatchConfig {
                        join_threshold: threshold,
                        ..MatchConfig::default()
                    };
                    let compiled = compile_plan(&set.db, plan, &cfg);
                    let got = views(plan, &compiled);
                    assert_eq!(
                        got,
                        reference_compile(&set.db, plan, &cfg),
                        "threshold {threshold}, plan {}",
                        plan.query.name
                    );
                    *seen += got.len();
                    sorts_inside += got
                        .iter()
                        .filter(|v| v.checks.iter().any(|c| c.pop_type == "SORT"))
                        .count();
                }
            }
        }
        assert!(
            segments_seen.iter().all(|&n| n > 0),
            "every threshold compiles segments: {segments_seen:?}"
        );
        assert!(sorts_inside > 0, "some segment holds a SORT");
    }

    #[test]
    fn end_to_end_learn_then_reoptimize() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let learn_cfg = LearningConfig {
            threads: 2,
            random_plans: 12,
            ..LearningConfig::default()
        };
        let report = learn_workload(&w, &kb, &learn_cfg);
        assert!(report.templates_learned >= 1);

        let outcome = reoptimize_query(&w.db, &kb, &w.queries[0], &MatchConfig::default()).unwrap();
        assert!(
            !outcome.matched.rewrites.is_empty(),
            "the learned template must match its own source query"
        );
        assert!(
            outcome.improved(),
            "re-optimization must beat the original: {} -> {}",
            outcome.original_ms,
            outcome.final_ms
        );
        assert!(outcome.gain() >= 0.10, "gain {}", outcome.gain());
    }

    #[test]
    fn empty_kb_matches_nothing() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let outcome = reoptimize_query(&w.db, &kb, &w.queries[0], &MatchConfig::default()).unwrap();
        assert!(outcome.matched.rewrites.is_empty());
        assert!(outcome.reoptimized.is_none());
        assert_eq!(outcome.gain(), 0.0);
        // An empty KB has no candidate templates for any signature: every
        // segment is pruned before the store is touched.
        assert!(outcome.matched.probes_pruned >= 1);
        assert_eq!(outcome.matched.probes_executed, 0);
    }

    #[test]
    fn probe_and_text_pipelines_agree_end_to_end() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let learn_cfg = LearningConfig {
            threads: 2,
            random_plans: 12,
            ..LearningConfig::default()
        };
        learn_workload(&w, &kb, &learn_cfg);
        let optimizer = Optimizer::new(&w.db);
        let plan = optimizer.optimize(&w.queries[0]).unwrap();
        // Near-miss tracking counts rejects; it never changes a match.
        for near_miss_factor in [1.0, 4.0] {
            let cfg = MatchConfig {
                near_miss_factor,
                ..MatchConfig::default()
            };
            let probe = match_plan(&w.db, &kb, &plan, &cfg);
            let text = match_plan_text(&w.db, &kb, &plan, &cfg);
            assert!(!probe.rewrites.is_empty());
            assert_eq!(probe.rewrites.len(), text.rewrites.len());
            for (a, b) in probe.rewrites.iter().zip(&text.rewrites) {
                assert_eq!(a.segment_op_id, b.segment_op_id);
                assert_eq!(a.template_iri, b.template_iri);
                assert_eq!(a.source_workload, b.source_workload);
                assert_eq!(a.guideline, b.guideline);
            }
        }
    }

    #[test]
    fn near_miss_feedback_admits_displaced_values() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let optimizer = Optimizer::new(&w.db);
        let plan = optimizer.optimize(&w.queries[0]).unwrap();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&w.db, &plan, plan.root(), &g, kb.fresh_id(1));
        // Displace every range by 3x: matching must fail, and one
        // feedback round at near-miss factor 4 must widen the stored
        // ranges until it matches.
        let displace = |s: &mut crate::kb::StatSketch| {
            let r = s.envelope();
            *s = crate::kb::StatSketch::from_range(r.lo * 3.0, r.hi * 3.0);
        };
        for p in &mut tpl.pops {
            displace(&mut p.cardinality);
            if let Some(scan) = &mut p.scan {
                displace(&mut scan.row_size);
                displace(&mut scan.fpages);
                displace(&mut scan.base_cardinality);
            }
        }
        tpl.source_workload = "displaced".into();
        kb.insert(&tpl);
        let exact = match_plan(&w.db, &kb, &plan, &MatchConfig::default());
        assert!(exact.rewrites.is_empty(), "3x displaced must not match");
        let near = MatchConfig {
            near_miss_factor: 4.0,
            ..MatchConfig::default()
        };
        let seen = match_plan(&w.db, &kb, &plan, &near);
        assert!(
            seen.rewrites.is_empty(),
            "tracking near misses admits nothing"
        );
        assert_eq!(seen.near_misses, 1, "the displaced template is a near miss");
        let actuals = galo_executor::compute_actuals(&w.db, &plan);
        assert!(kb.record_feedback(&w.db, &plan, &near, &seen, &actuals) > 0);
        assert_eq!(kb.apply_feedback().templates_refined, 1);
        let refined = match_plan(&w.db, &kb, &plan, &MatchConfig::default());
        assert!(
            !refined.rewrites.is_empty(),
            "the refined ranges must admit the plan that was a near miss"
        );
    }

    #[test]
    fn out_of_range_patterns_do_not_match() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        // Hand-build a template whose cardinality ranges cannot match
        // (tiny bounds).
        let optimizer = Optimizer::new(&w.db);
        let plan = optimizer.optimize(&w.queries[0]).unwrap();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&w.db, &plan, plan.root(), &g, kb.fresh_id(1));
        for p in &mut tpl.pops {
            p.cardinality = crate::kb::StatSketch::from_range(0.0, 0.5);
        }
        tpl.source_workload = "x".into();
        kb.insert(&tpl);
        let report = match_plan(&w.db, &kb, &plan, &MatchConfig::default());
        assert!(report.rewrites.is_empty(), "ranges must gate matching");
    }

    #[test]
    fn guideline_tabids_are_translated_to_query_qualifiers() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let learn_cfg = LearningConfig {
            threads: 1,
            random_plans: 12,
            ..LearningConfig::default()
        };
        learn_workload(&w, &kb, &learn_cfg);
        let optimizer = Optimizer::new(&w.db);
        let plan = optimizer.optimize(&w.queries[0]).unwrap();
        let report = match_plan(&w.db, &kb, &plan, &MatchConfig::default());
        assert!(!report.rewrites.is_empty());
        for r in &report.rewrites {
            for tabid in r.guideline.tabids() {
                assert!(
                    tabid.starts_with('Q'),
                    "expected query qualifiers, got '{tabid}'"
                );
            }
        }
    }
}
