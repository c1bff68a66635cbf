//! The matching engine (paper §3.3) — the compile-once probe pipeline.
//!
//! Online, per incoming query: compile the query, climb bottom-up over the
//! plan's sub-QGM segments (capped by the learning join threshold), and
//! match each segment against the knowledge base in three stages:
//!
//! 1. **Signature pruning** — every segment gets a cheap structural
//!    signature (join count + join/scan operator multiset,
//!    [`galo_qgm::shape_signature`]); the knowledge base's signature index
//!    maps it to the candidate template IRIs that *could* match. Segments
//!    with no candidates are pruned without touching the store.
//! 2. **Probe compilation** — surviving segments are compiled straight to
//!    the Figure-6 `SelectQuery` AST ([`crate::transform::segment_to_probe`]):
//!    no SPARQL text is rendered or re-parsed on the hot path, and the
//!    scan-variable table (`?tab_<opid>` → query qualifier) is precomputed.
//! 3. **Sessioned probing** — the plan's probes are evaluated under one
//!    read-lock session: constants are pre-resolved through the interner,
//!    the pattern plan is prepared once per probe
//!    ([`galo_rdf::prepare_seeded`]), and candidates are evaluated lazily
//!    in ascending IRI order with `?tmpl` pre-bound, so every
//!    `inTemplate` pattern is a keyed lookup instead of a KB-wide
//!    enumeration and no evaluation is spent past a segment's first
//!    match or on segments an earlier match already claimed. (Callers
//!    that want plain batch evaluation use
//!    [`galo_rdf::FusekiLite::probe_batch`], as the diagnostics
//!    near-miss pass does.)
//!
//! Matches are then processed bottom-up exactly as before: the first
//! (smallest-IRI) matching template per segment wins, canonical table
//! labels are translated back to the query's table references, overlapping
//! segments are skipped via the claimed-operator set, and the collected
//! rewrites form one guideline document for re-optimization.
//!
//! [`match_compiled`] is the only production matcher — [`match_plan`]
//! and every serving-tier miss run it. The text path
//! ([`match_plan_text`]) — render SPARQL text, parse it back, evaluate
//! one query at a time — is kept as the differential reference: property
//! tests assert it and the matcher produce identical rewrites.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use galo_catalog::Database;
use galo_executor::Simulator;
use galo_optimizer::{Optimizer, ReoptResult};
use galo_qgm::{segments, GuidelineDoc, GuidelineNode, PopId, Qgm};
use galo_rdf::{ResultSet, Term};
use galo_sql::Query;

use crate::kb::{AdmissionQuery, AdmissionStats, KnowledgeBase, PopCheck};
use crate::sigindex::{ChangeJournal, JournalRow};
use crate::transform::{
    segment_pop_checks, segment_scan_qualifiers, segment_to_probe, segment_to_sparql_opt,
    ProbeOptions, ScanVar, SegmentProbe,
};

/// Matching-engine configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Sub-QGM size cap, in joins — "the same predefined threshold that
    /// was used in the learning phase" (§3.3).
    pub join_threshold: usize,
    /// Match-time multiplicative widening of template ranges: a template
    /// range `[lo, hi]` admits a concrete value `v` when `lo <= v * margin`
    /// and `hi >= v / margin`. `1.0` (the default) is the paper's exact
    /// semantics; raising it trades precision for cross-workload reuse
    /// (Exp-2), letting patterns learned on one schema's statistics match
    /// queries over another.
    pub range_margin: f64,
    /// Restrict matching to the templates of one workload's first-class
    /// dataset (by source-workload name). `None` — the default — matches
    /// against every dataset in the knowledge base; `Some(w)` makes the
    /// shared KB behave like workload `w`'s private KB (the Exp-2
    /// per-workload-KB baseline), guaranteed never to return a template
    /// learned elsewhere.
    pub dataset: Option<String>,
    /// Quantile trim applied to template sketches during the admission
    /// pre-check: each stored [`crate::kb::StatSketch`] contributes a
    /// `[quantile(trim), quantile(1 - trim)]` envelope instead of its
    /// exact `[min, max]`, so a few outlier observations stop inflating a
    /// template's validity region. `0.0` (the default) reproduces the
    /// exact min/max semantics bit for bit. The trim only narrows the
    /// *pre-check* — the probe itself still evaluates the stored exact
    /// bounds, so a trimmed-out candidate is one that would have cost a
    /// probe evaluation only to fail it, or an over-widened template the
    /// operator has chosen to treat as noise.
    pub sketch_trim: f64,
    /// Near-miss widening factor for the feedback loop (≥ 1; `1.0` — the
    /// default — disables near-miss tracking). When > 1, the admission
    /// pre-check re-tests each rejected candidate at
    /// `range_margin · near_miss_factor` and counts the ones that would
    /// have been admitted under the widened margin
    /// ([`MatchReport::near_misses`]), and
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
            range_margin: 1.0,
            dataset: None,
            sketch_trim: 0.0,
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

    fn probe_options(&self) -> ProbeOptions {
        ProbeOptions {
            range_margin: self.range_margin,
            include_ranges: true,
        }
    }
}

/// A rejected [`MatchConfigBuilder::build`]: which field was out of range
/// and why.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchConfigError {
    /// `join_threshold` must be at least 1 (a segment needs a join).
    JoinThreshold(usize),
    /// `range_margin` must be ≥ 1 and finite (it only ever widens).
    RangeMargin(f64),
    /// `sketch_trim` must lie in `[0, 1)` (a quantile trim level).
    SketchTrim(f64),
    /// `near_miss_factor` must be ≥ 1 and finite.
    NearMissFactor(f64),
}

impl std::fmt::Display for MatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchConfigError::JoinThreshold(v) => {
                write!(f, "join_threshold must be >= 1, got {v}")
            }
            MatchConfigError::RangeMargin(v) => {
                write!(f, "range_margin must be finite and >= 1.0, got {v}")
            }
            MatchConfigError::SketchTrim(v) => {
                write!(f, "sketch_trim must lie in [0, 1), got {v}")
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
/// offending field, so an out-of-range margin or trim is an explicit
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

    /// Match-time range widening (must be ≥ 1; 1.0 = exact semantics).
    pub fn range_margin(mut self, margin: f64) -> Self {
        self.cfg.range_margin = margin;
        self
    }

    /// Restrict matching to one workload's dataset.
    pub fn dataset(mut self, workload: impl Into<String>) -> Self {
        self.cfg.dataset = Some(workload.into());
        self
    }

    /// Match against every dataset (the default).
    pub fn any_dataset(mut self) -> Self {
        self.cfg.dataset = None;
        self
    }

    /// Quantile trim of the admission envelopes (must lie in `[0, 1)`).
    pub fn sketch_trim(mut self, trim: f64) -> Self {
        self.cfg.sketch_trim = trim;
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
        if !c.range_margin.is_finite() || c.range_margin < 1.0 {
            return Err(MatchConfigError::RangeMargin(c.range_margin));
        }
        if !c.sketch_trim.is_finite() || !(0.0..1.0).contains(&c.sketch_trim) {
            return Err(MatchConfigError::SketchTrim(c.sketch_trim));
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
/// The work counters below (`probes_*`, `candidates_considered`, the
/// admission rejects, `near_misses`, `refinements_applied`) describe the
/// match that produced the report. A serving-cache hit hands back the
/// report of the match that filled the entry, which may have run at an
/// earlier epoch than the one the hit is validated at (see
/// `galo_core::serving`): its rewrites are current, its counters are that
/// match's.
#[derive(Debug, Clone, Default)]
pub struct MatchReport {
    pub rewrites: Vec<MatchedRewrite>,
    /// Wall time spent matching, milliseconds.
    pub match_ms: f64,
    /// Segments resolved without issuing any knowledge-base probe: no
    /// structural candidates in the signature index, none whose
    /// cardinality ranges could admit the segment, or a probe constant
    /// absent from the store's interner.
    pub probes_pruned: usize,
    /// Probe evaluations executed: on the compiled path, one per
    /// (surviving segment × candidate) actually evaluated — claimed
    /// segments and candidates past a segment's first match are never
    /// evaluated; on the text path, one per candidate segment.
    pub probes_executed: usize,
    /// True when the serving tier answered this plan from its
    /// plan-fingerprint outcome cache without re-matching (see
    /// `galo_core::serving`); always false on the direct
    /// [`match_plan`] / [`match_plan_text`] paths.
    pub cache_hit: bool,
    /// Segments whose compiled probe IR was reused from an earlier match
    /// of the same [`CompiledPlan`] instead of being rebuilt — the
    /// serving tier's probe-IR cache at work. Always 0 when the plan was
    /// compiled fresh for this match.
    pub probes_reused: usize,
    /// Signature-index entries examined by the admission pre-check across
    /// all of the plan's segments (admitted candidates included) — the
    /// denominator for the admission counters below. Always 0 on the text
    /// path, which has no index.
    pub candidates_considered: usize,
    /// Candidates rejected by the admission pre-check because no
    /// same-typed template operator could admit a segment operator's
    /// estimated cardinality.
    pub admission_rejects_card: usize,
    /// Candidates whose cardinalities admitted but whose scan-statistics
    /// envelopes (row size / FPAGES / base cardinality) could not admit
    /// the segment's belief-table values.
    pub admission_rejects_scan: usize,
    /// Rejected candidates that *would* have been admitted at
    /// `range_margin · near_miss_factor` — the feedback loop's widening
    /// signal. Always 0 when [`MatchConfig::near_miss_factor`] is 1.0
    /// (the default) and on the text path.
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

/// The deterministic winning solution of one segment probe: the smallest
/// `(template IRI, canonical table labels)` pair over all solution rows
/// whose template passes `allow` (the text reference's dataset filter; the
/// matcher filters candidates in the signature index instead and passes
/// a constant `true`). [`match_compiled`] and the [`match_plan_text`]
/// reference share this rule, which is what makes them comparable —
/// "first row wins" would depend on evaluator search order.
fn winning_solution(
    solutions: &ResultSet,
    scan_vars: &[ScanVar],
    allow: impl Fn(&str) -> bool,
) -> Option<(String, Vec<String>)> {
    let mut best: Option<(String, Vec<String>)> = None;
    for row in 0..solutions.len() {
        let Some(tmpl) = solutions.get(row, "tmpl") else {
            continue;
        };
        if !allow(tmpl.str_value()) {
            continue;
        }
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

/// Instantiate a matched template as rewrites over the query's table
/// qualifiers. Returns `None` (and claims nothing) when the template's
/// guideline references canonical labels the match did not bind.
fn instantiate_match(
    fetched: (GuidelineDoc, String),
    template_iri: &str,
    labels: &[String],
    scan_vars: &[ScanVar],
    segment_op_id: u32,
) -> Option<Vec<MatchedRewrite>> {
    let (guideline, source_workload) = fetched;
    // Canonical label -> query qualifier, via the matched scan pops.
    let mapping: Vec<(&String, &str)> = labels
        .iter()
        .zip(scan_vars)
        .filter(|(label, _)| !label.is_empty())
        .map(|(label, sv)| (label, sv.qualifier.as_str()))
        .collect();
    // Every canonical label the guideline references must be bound by
    // the match; a partial mapping would produce a dangling guideline.
    let fully_mapped = guideline.roots.iter().all(|r| {
        r.tabids()
            .iter()
            .all(|t| mapping.iter().any(|(c, _)| *c == t))
    });
    if !fully_mapped {
        return None;
    }
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

/// One segment of a [`CompiledPlan`]: everything the matcher derives from
/// the plan structure alone — the operator footprint for claimed-overlap
/// checks, the cardinality pre-checks, the structural signature — plus a
/// lazily compiled probe IR. The probe AST is built at most once per
/// compiled plan (on the first match that actually evaluates this
/// segment) and reused by every later match, which is what the serving
/// tier's probe-IR cache amortizes.
#[derive(Debug)]
pub struct CompiledSegment {
    /// Root operator of the segment in the compiled-against plan.
    root: PopId,
    /// `op_id` of the root (stamped into rewrites).
    segment_op_id: u32,
    /// `op_id`s of every operator in the segment (claimed-overlap check).
    seg_pops: Vec<u32>,
    /// Structural signature — the knowledge base's candidate-index key.
    signature: u64,
    /// One admission pre-check per operator — type, estimated
    /// cardinality, and (for scans) the belief-table statistics the probe
    /// would test.
    checks: Vec<PopCheck>,
    /// The compiled probe, built on first use under the store session.
    probe: OnceLock<SegmentProbe>,
}

impl CompiledSegment {
    /// The segment's probe IR, compiling it on first use. `db` and `qgm`
    /// must be the ones the plan was compiled from (the serving tier's
    /// fingerprint key guarantees that; direct callers pass the same
    /// references they gave [`compile_plan`]).
    fn probe(&self, db: &Database, qgm: &Qgm, opts: &ProbeOptions) -> &SegmentProbe {
        self.probe
            .get_or_init(|| segment_to_probe(db, qgm, self.root, opts))
    }

    /// The admission query the segment's candidate cursor runs under
    /// `cfg` (its plan's configuration).
    fn query<'a>(&'a self, cfg: &'a MatchConfig) -> AdmissionQuery<'a> {
        AdmissionQuery {
            checks: &self.checks,
            margin: cfg.range_margin,
            trim: cfg.sketch_trim,
            dataset: cfg.dataset.as_deref(),
            near_factor: cfg.near_miss_factor,
        }
    }
}

/// A plan compiled for matching: its bottom-up segment walk with
/// per-segment signatures, pre-checks and lazily built probe IRs, plus
/// the [`MatchConfig`] it was compiled under (probe ranges depend on the
/// margin, segmentation on the join threshold — so the config travels
/// with the artifact instead of being re-supplied, possibly mismatched,
/// at match time). Compile once via [`compile_plan`], match any number
/// of times via [`match_compiled`]: repeat matches skip the segment
/// walk, the signature derivation and (after the first) probe
/// compilation entirely.
#[derive(Debug)]
pub struct CompiledPlan {
    cfg: MatchConfig,
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

    /// True when a segment of the plan would pull the journaled row: one
    /// of the row's signature whose own admission query admits it (or
    /// counts it a near miss). A row no segment pulls cannot change what
    /// [`match_compiled`] produces for the plan.
    pub(crate) fn pulls(&self, row: &JournalRow) -> bool {
        let same_shape = self
            .segments
            .iter()
            .filter(|seg| seg.signature == row.signature());
        row.admitted_by_any(same_shape.map(|seg| seg.query(&self.cfg)))
    }
}

/// Compile a plan's segments for matching: the plan-side half of
/// [`match_plan`], split out so the serving tier can cache it keyed by
/// plan fingerprint. Cheap — no knowledge-base access, no probe ASTs
/// (those build lazily on first evaluation). `db` supplies the
/// belief-table statistics the scan-stat admission checks carry.
pub fn compile_plan(db: &Database, qgm: &Qgm, cfg: &MatchConfig) -> CompiledPlan {
    let segments = segments(qgm, cfg.join_threshold)
        .into_iter()
        .map(|segment| {
            // Candidate templates must share the segment's structural
            // signature AND have per-operator statistics envelopes that
            // could admit the segment's values — both necessary
            // conditions, checked entirely in the index. The signature
            // is derived from the pre-check walk rather than recomputed.
            let checks = segment_pop_checks(db, qgm, segment.root);
            let signature =
                galo_qgm::shape_signature(segment.join_count, checks.iter().map(|c| c.pop_type));
            CompiledSegment {
                root: segment.root,
                segment_op_id: qgm.pop(segment.root).op_id,
                seg_pops: qgm
                    .subtree(segment.root)
                    .iter()
                    .map(|&p| qgm.pop(p).op_id)
                    .collect(),
                signature,
                checks,
                probe: OnceLock::new(),
            }
        })
        .collect();
    CompiledPlan {
        cfg: cfg.clone(),
        segments,
    }
}

/// Match a compiled plan against the knowledge base — the session half
/// of [`match_plan`]: signature pruning, lazy candidate cursors, and one
/// read-lock session for all of the plan's probe evaluations and
/// guideline fetches (see the module docs). `db` and `qgm` must be the
/// ones `compiled` was built from.
pub fn match_compiled(
    db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    compiled: &CompiledPlan,
) -> MatchReport {
    let t0 = Instant::now();
    let cfg = &compiled.cfg;
    let mut report = MatchReport::default();
    let opts = cfg.probe_options();
    let mut claimed: HashSet<u32> = HashSet::new();
    let seed_vars = ["tmpl".to_string()];

    // Per segment (bottom-up): the claimed-overlap check and the
    // signature-index pre-checks run before anything is compiled, the
    // probe AST is built only for segments that will actually be
    // evaluated (then kept for every later match of this CompiledPlan),
    // its pattern plan is prepared once, and candidates are evaluated
    // lazily in ascending IRI order — the first non-empty candidate (the
    // globally smallest matching template) decides the segment, so no
    // work is spent past it.
    let mut admission = AdmissionStats::default();
    kb.server().with_store(|st| {
        for seg in &compiled.segments {
            // Skip segments overlapping an earlier match — their rewrites
            // would fight over the same table references.
            if seg.seg_pops.iter().any(|id| claimed.contains(id)) {
                continue;
            }
            let query = seg.query(cfg);
            // The first cursor pull doubles as the emptiness pre-check:
            // no admitted candidate means the segment is pruned before
            // any probe is compiled.
            let mut cursor =
                kb.next_candidate_admitting(seg.signature, &query, None, &mut admission);
            if cursor.is_none() {
                report.probes_pruned += 1;
                continue;
            }
            let reused = seg.probe.get().is_some();
            let probe = seg.probe(db, qgm, &opts);
            if reused {
                report.probes_reused += 1;
            }
            if !galo_rdf::constants_interned(st, &probe.query) {
                // A probe constant (e.g. an operator-type literal) was
                // never interned: no template can match, and the store was
                // never probed.
                report.probes_pruned += 1;
                continue;
            }
            let prepared = galo_rdf::prepare_seeded(st, &probe.query, &seed_vars);
            // Candidates are pulled one at a time through the signature
            // index's cursor (ascending IRI order): no per-segment owned
            // candidate list, and the index lock is released between
            // lookups so index readers (diagnostics, candidate queries)
            // never queue behind a probe evaluation. Evaluation stops at
            // the first candidate that yields solutions.
            let mut matched: Option<Vec<MatchedRewrite>> = None;
            while let Some(iri) = cursor {
                if let Some(id) = st.term_id(&Term::iri(iri.as_str())) {
                    report.probes_executed += 1;
                    let solutions = galo_rdf::evaluate_prepared(st, &prepared, &[id]);
                    if !solutions.is_empty() {
                        if let Some((_, labels)) =
                            winning_solution(&solutions, &probe.scan_vars, |_| true)
                        {
                            matched = crate::kb::guideline_of_in(st, &iri).and_then(|g| {
                                instantiate_match(
                                    g,
                                    &iri,
                                    &labels,
                                    &probe.scan_vars,
                                    seg.segment_op_id,
                                )
                            });
                        }
                        break; // first matching candidate decides the segment
                    }
                }
                cursor =
                    kb.next_candidate_admitting(seg.signature, &query, Some(&iri), &mut admission);
            }
            if let Some(rewrites) = matched {
                report.rewrites.extend(rewrites);
                claimed.extend(seg.seg_pops.iter().copied());
            }
        }
    });
    report.candidates_considered = admission.considered;
    report.admission_rejects_card = admission.rejects_card;
    report.admission_rejects_scan = admission.rejects_scan;
    report.near_misses = admission.near_misses;
    report.refinements_applied = kb.refinements_applied();
    report.witness = Some(Arc::clone(kb.journal()));
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
}

/// Match a plan's segments against the knowledge base — the production
/// pipeline: signature pruning, compiled probe IR, and one read-lock
/// session per plan (see the module docs). Equivalent to
/// [`compile_plan`] followed by [`match_compiled`]; callers that match
/// the same plan repeatedly keep the [`CompiledPlan`] (or let the
/// serving tier cache it by fingerprint) to skip the per-call
/// compilation.
pub fn match_plan(db: &Database, kb: &KnowledgeBase, qgm: &Qgm, cfg: &MatchConfig) -> MatchReport {
    let t0 = Instant::now();
    let compiled = compile_plan(db, qgm, cfg);
    let mut report = match_compiled(db, kb, qgm, &compiled);
    // Account compile + match, as before the split.
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
}

/// The legacy text pipeline: render each segment to SPARQL text, re-parse
/// it, and evaluate one query at a time with no signature pruning. Kept as
/// the differential-testing oracle for [`match_plan`] (the property tests
/// assert identical rewrites); only tests call it.
pub fn match_plan_text(
    db: &Database,
    kb: &KnowledgeBase,
    qgm: &Qgm,
    cfg: &MatchConfig,
) -> MatchReport {
    let t0 = Instant::now();
    let mut report = MatchReport::default();
    let opts = cfg.probe_options();
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
        let sparql = segment_to_sparql_opt(db, qgm, segment.root, &opts);
        let Ok(parsed) = galo_rdf::parse_select(&sparql) else {
            continue;
        };
        report.probes_executed += 1;
        let solutions = kb.server().query_parsed(&parsed);
        let scan_vars: Vec<ScanVar> = segment_scan_qualifiers(qgm, segment.root)
            .into_iter()
            .map(|(op_id, qualifier)| ScanVar {
                op_id,
                var: format!("tab_{op_id}"),
                qualifier,
            })
            .collect();
        // The dataset filter resolves each row's template source through
        // the store — the oracle trades speed for directness, unlike the
        // production path's index-level filter.
        let allow = |iri: &str| match cfg.dataset.as_deref() {
            None => true,
            Some(d) => kb.guideline_of(iri).is_some_and(|(_, source)| source == d),
        };
        let Some((template_iri, labels)) = winning_solution(&solutions, &scan_vars, allow) else {
            continue;
        };
        let Some(rewrites) = kb.guideline_of(&template_iri).and_then(|g| {
            instantiate_match(
                g,
                &template_iri,
                &labels,
                &scan_vars,
                qgm.pop(segment.root).op_id,
            )
        }) else {
            continue;
        };
        report.rewrites.extend(rewrites);
        claimed.extend(seg_pops);
    }
    report.refinements_applied = kb.refinements_applied();
    report.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    report
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
        for margin in [1.0, 2.0] {
            let cfg = MatchConfig {
                range_margin: margin,
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
    fn range_margin_admits_displaced_values() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let optimizer = Optimizer::new(&w.db);
        let plan = optimizer.optimize(&w.queries[0]).unwrap();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&w.db, &plan, plan.root(), &g, kb.fresh_id(1));
        // Displace every range by 3x: exact matching must fail, a 4x
        // match-time margin must recover it.
        let displace = |s: &mut crate::kb::StatSketch| {
            let r = s.envelope(0.0);
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
        let widened = match_plan(
            &w.db,
            &kb,
            &plan,
            &MatchConfig {
                range_margin: 4.0,
                ..MatchConfig::default()
            },
        );
        assert!(
            !widened.rewrites.is_empty(),
            "4x margin must admit the 3x-displaced template"
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
