//! The knowledge base (paper §3.1–3.2).
//!
//! Problem-pattern templates are stored as RDF in a Fuseki-like endpoint.
//! A template is the *abstraction* of a problematic plan: table and column
//! names replaced by canonical symbol labels (`T1`, `T2`, …), numeric
//! properties replaced by `[hasLower*, hasHigher*]` validity ranges
//! established by predicate variation, every resource anonymized under a
//! unique random identifier, and the recommended rewrite attached as an
//! OPTGUIDELINES document over the canonical labels.
//!
//! This file holds the template model, its RDF serialization and the
//! [`KnowledgeBase`] methods — template CRUD, the epoch protocol, feedback
//! refinement. The signature index those methods keep in step with the
//! triples, and the admission pre-check it answers, live in
//! `crate::sigindex`; its rows are written by the one `IndexFacts` gather,
//! nowhere else.
//!
//! # Serialization
//!
//! One serializer turns templates into RDF:
//! [`templates_block`](KnowledgeBase::templates_block) writes a batch
//! straight into a [`QuadBlock`], making each term a batch repeats once
//! and naming each distinct term once, in first-appearance order. A local
//! `insert_batch` applies that block; a remote learner's
//! [`Publisher`](crate::Publisher) sends its encoding, and the primary and
//! every replica apply the block they decode from it.
//! [`templates_to_quads`](KnowledgeBase::templates_to_quads) is a view of
//! the same block as quads.
//!
//! # Mutations
//!
//! There is one way to change a knowledge base: a mutator *builds a
//! [`QuadBlock`]* and the private `commit` applies it. `insert_batch`
//! applies the serializer's block, `remove_template` the removes of what
//! [`retraction_of`](KnowledgeBase::retraction_of) finds stored,
//! `refine_template_stats` a remove-old / insert-new pair per statistic
//! that moved, `clear` a clear, `import` a clear plus the text's
//! statements; `apply_block` / `apply_quads` / `apply_block_owned` are
//! handed theirs. A block nobody needs afterwards — the serializer's, a
//! decoded publish or feed entry, a snapshot — is handed over, so the
//! store keeps the terms it has never seen instead of copying them. The
//! commit is, in order: the read-only gate (client mutators reject with
//! the typed [`ReadOnlyReplica`]; the `apply_*` doors are the replication
//! feed's and stay privileged), one `MutationScope` — opened *before*
//! the mutator reads what it builds its block from — one `begin_batch` /
//! `end_batch` bracket around the apply, index upkeep, the change
//! journal's entry, and the epoch: one generation when any operation took
//! effect, none otherwise. So every
//! mutation is **one record**: a durable backend journals the bracket as
//! one checksummed log record on the shard it touched, on disk entire or
//! not at all, and the same block replays on a replica.
//!
//! Index upkeep is one function of the block and of which of its
//! operations took effect. Per template touched (a statement names its
//! template by the shape of its subject IRI, [`vocab::template_of`]):
//! when the inserts that took effect state it whole and nothing of it was
//! removed, its row is written from the block alone (a publish);
//! otherwise — a retraction, a refinement, a partial edit — *that
//! template* is re-read from the store and its row rewritten or dropped.
//! The whole index is rebuilt only after a clear, by
//! [`reindex`](KnowledgeBase::reindex) and reopen, and for a statement
//! that feeds the index but names no template.
//!
//! The same commit journals the generation for the serving cache
//! (`crate::sigindex`'s change journal): the index rows of the templates
//! it changed, read before and after the upkeep — or, for a clear, an
//! import, a rebuild, a statement that names no template, or more than a
//! handful of templates, the fact that it cannot say which.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use galo_catalog::Database;
use galo_executor::Actuals;
use galo_qgm::{segment_signature, segments, shape_signature, GuidelineDoc, PopId, Qgm};
use galo_rdf::{
    Applied, BlockOp, BlockWriter, FusekiLite, QuadBlock, ReadOnlyReplica, Record, ServerError,
    Term, TermId, Triple, TripleStore,
};

use crate::feedback::{
    FeedbackCollector, FeedbackOptions, FeedbackReport, PopObservation, RefineOutcome,
    TemplateRefinement,
};
use crate::sigindex::{
    ChangeJournal, Fact, Generation, IndexFacts, JournalRow, MatchMiss, SegmentShape, SigIndex,
    JOURNAL_TEMPLATES,
};
use crate::vocab::{self, prop, STAT_FAMILIES};

// The admission vocabulary lives with the index that answers it
// (`crate::sigindex`); re-exported so `galo_core::kb::AdmissionQuery` and
// friends keep their paths.
pub use crate::sigindex::{AdmissionQuery, AdmissionStats, PopCheck, ScanCheck};

/// One admitted candidate, matched against its segment on its index row
/// (`crate::sigindex`, "What a match is").
pub(crate) struct Candidate {
    pub(crate) iri: String,
    /// The winning canonical labels in scan pre-order, or why the row
    /// does not match.
    pub(crate) verdict: Result<Vec<String>, MatchMiss>,
}

// `Range` moved to the statistics substrate (one home for the struct and
// its parsing/defaulting logic); re-exported here so `galo_core::Range`
// keeps working. `Stat` is what is learned behind every stored range.
pub use galo_stats::{Range, Stat};

/// Per-operator abstracted properties of a problem pattern.
#[derive(Debug, Clone)]
pub struct TemplatePop {
    /// Operator id within the template (pre-order of the problem segment).
    pub op_id: u32,
    /// Operator type name (`"NLJOIN"`, `"F-IXSCAN"`, …).
    pub pop_type: String,
    /// Estimated-cardinality statistic; its `envelope()` is the stored
    /// `[hasLowerCardinality, hasHigherCardinality]` validity range.
    pub cardinality: Stat,
    /// Scan-only properties.
    pub scan: Option<TemplateScan>,
    /// Children op_ids: `[outer, inner]` for joins, `[child]` otherwise.
    pub inputs: Vec<u32>,
}

/// Scan-specific abstracted properties.
#[derive(Debug, Clone)]
pub struct TemplateScan {
    /// Canonical symbol label (`T1`, `T2`, …) replacing the table name.
    pub canonical_tabid: String,
    pub row_size: Stat,
    pub fpages: Stat,
    pub base_cardinality: Stat,
}

/// A complete problem-pattern template.
#[derive(Debug, Clone)]
pub struct Template {
    /// Unique random identifier (the §3.2 anonymization).
    pub id: String,
    pub pops: Vec<TemplatePop>,
    /// Rewrite over canonical labels.
    pub guideline: GuidelineDoc,
    /// Mean runtime improvement observed during learning, in `[0, 1]`.
    pub improvement: f64,
    /// Workload the template was learned from.
    pub source_workload: String,
    /// Structural fingerprint of the problem plan.
    pub fingerprint: String,
    /// Number of joins in the problem pattern.
    pub join_count: usize,
}

/// Fetch a template's guideline document and source workload from a raw
/// store reference — the matcher calls this inside its one read-lock
/// session per plan, so no second lock acquisition is needed. Two keyed
/// (subject, predicate) scans; no SPARQL text is rendered or parsed.
pub(crate) fn guideline_of_in(
    st: &dyn TripleStore,
    template_iri: &str,
) -> Option<(GuidelineDoc, String)> {
    let tnode = st.term_id(&Term::iri(template_iri))?;
    let fetch = |property: &str| -> Option<String> {
        let pid = st.term_id(&prop(property))?;
        let (_, _, object) = st.scan(Some(tnode), Some(pid), None).into_iter().next()?;
        Some(st.resolve(object).str_value().to_string())
    };
    let xml = fetch(vocab::HAS_GUIDELINE_XML)?;
    let source = fetch(vocab::HAS_SOURCE_WORKLOAD)?;
    GuidelineDoc::parse_xml(&xml).ok().map(|doc| (doc, source))
}

/// Build a [`Template`] from a concrete problem plan: canonicalize table
/// labels in scan pre-order, seed every numeric range from the plan's
/// values, and rewrite the guideline onto the canonical labels.
pub fn abstract_plan(
    db: &Database,
    problem: &Qgm,
    root: PopId,
    guideline: &GuidelineDoc,
    id: String,
) -> Template {
    let subtree = problem.subtree(root);
    let mut canonical: HashMap<String, String> = HashMap::new(); // qualifier -> T<k>
    let mut pops = Vec::with_capacity(subtree.len());
    for &pid in &subtree {
        let pop = problem.pop(pid);
        let scan = pop.kind.scan_table().map(|t| {
            let tref = &problem.query.tables[t];
            let stats = db.belief.table(tref.table);
            let next = format!("T{}", canonical.len() + 1);
            let label = canonical
                .entry(tref.qualifier.clone())
                .or_insert(next)
                .clone();
            TemplateScan {
                canonical_tabid: label,
                row_size: Stat::point(stats.row_size as f64),
                fpages: Stat::point(stats.pages as f64),
                base_cardinality: Stat::point(stats.row_count as f64),
            }
        });
        let inputs = pop
            .inputs
            .iter()
            .filter(|c| subtree.contains(c))
            .map(|&c| problem.pop(c).op_id)
            .collect();
        pops.push(TemplatePop {
            op_id: pop.op_id,
            pop_type: pop.kind.name().to_string(),
            cardinality: Stat::point(pop.est_card),
            scan,
            inputs,
        });
    }
    let mapped = GuidelineDoc::new(
        guideline
            .roots
            .iter()
            .map(|r| {
                r.map_tabids(&|tabid| {
                    canonical
                        .get(tabid)
                        .cloned()
                        .unwrap_or_else(|| tabid.to_string())
                })
            })
            .collect(),
    );
    Template {
        id,
        fingerprint: problem.fingerprint(root),
        join_count: problem.join_count(root),
        pops,
        guideline: mapped,
        improvement: 0.0,
        source_workload: String::new(),
    }
}

/// Summary of one workload's first-class dataset (see
/// [`KnowledgeBase::workload_datasets`]): the templates tagged into the
/// workload's named graph, their distinct structural shapes, and their
/// mean learned improvement.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Workload name (the named graph suffix under the workload-graph
    /// namespace).
    pub workload: String,
    /// Templates tagged into the dataset.
    pub templates: usize,
    /// Distinct structural signatures the dataset's templates cover.
    pub signatures: usize,
    /// Mean `hasImprovement` over the dataset's templates, in `[0, 1]`.
    pub avg_improvement: f64,
}

/// The knowledge base: an RDF endpoint plus template bookkeeping.
///
/// Besides the triple store, the KB maintains a **signature index**
/// (`crate::sigindex`) — structural [`shape_signature`] → the templates
/// with that shape, each with its operators' exact bounds and a per-type
/// cardinality hull — kept in step by the one commit every mutator goes
/// through (see the [module docs](self#mutations)), under one `RwLock`
/// and inside the commit's `mutation_scope`. The online matcher consults
/// it through the
/// [`next_candidate_admitting`](Self::next_candidate_admitting) cursor,
/// and matches each candidate it admits on the candidate's row: a
/// segment reads the store only for the guideline of the template that
/// wins it. Callers that mutate template triples
/// through the raw [`server`](Self::server) endpoint must call
/// [`reindex`](Self::reindex) afterwards.
pub struct KnowledgeBase {
    server: FusekiLite,
    counter: AtomicU64,
    sig_index: RwLock<SigIndex>,
    /// What each recent epoch generation changed in the signature index
    /// (`crate::sigindex`), appended by the one commit; a match report
    /// carries it to the serving cache as its witness.
    journal: Arc<ChangeJournal>,
    /// Cumulative count of effective [`refine_template_stats`]
    /// (Self::refine_template_stats) applications — stamped into
    /// [`MatchReport::refinements_applied`](crate::MatchReport).
    refinements: AtomicU64,
    /// The runtime-feedback collector (see `galo_core::feedback`).
    feedback: FeedbackCollector,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        Self::new()
    }
}

impl KnowledgeBase {
    /// The construction path [`KbBuilder`](crate::KbBuilder) funnels
    /// every store shape through: wrap the endpoint, start an empty
    /// signature index and a feedback collector with the given options.
    pub(crate) fn from_server(server: FusekiLite, feedback: FeedbackOptions) -> Self {
        KnowledgeBase {
            server,
            counter: AtomicU64::new(0),
            sig_index: RwLock::default(),
            journal: Arc::default(),
            refinements: AtomicU64::new(0),
            feedback: FeedbackCollector::new(feedback),
        }
    }

    /// A knowledge base over the server's default in-memory store.
    pub fn new() -> Self {
        crate::builder::KbBuilder::new()
            .build_kb()
            .expect("in-memory knowledge base construction is infallible")
    }

    /// Per-shard triple/graph counts: how the templates spread over the
    /// shards. Always `Some` — every knowledge base is sharded, one shard
    /// by default.
    pub fn shard_stats(&self) -> Option<Vec<galo_rdf::ShardStats>> {
        self.server.shard_stats()
    }

    /// Checkpoint the store: fold each durable shard's write-ahead log
    /// into a fresh snapshot (a no-op over an in-memory store). Call
    /// after an off-peak learning run so reopening replays a snapshot
    /// instead of the whole log.
    pub fn compact(&self) -> std::io::Result<()> {
        self.server.compact()
    }

    /// Install (or replace) a background compaction policy: a
    /// [`Compactor`](galo_rdf::Compactor) thread watches per-shard WAL
    /// pressure and folds hot or idle shards off the write path. Returns
    /// the thread's [`CompactorStats`](galo_rdf::CompactorStats); folds
    /// are counted in [`storage_pressures`](Self::storage_pressures).
    pub fn compaction_policy(
        &self,
        policy: galo_rdf::CompactionPolicy,
    ) -> std::sync::Arc<galo_rdf::CompactorStats> {
        self.server.compaction_policy(policy)
    }

    /// Stats of the installed background compactor, if any.
    pub fn compactor_stats(&self) -> Option<std::sync::Arc<galo_rdf::CompactorStats>> {
        self.server.compactor_stats()
    }

    /// Per-shard WAL pressure and fold counts (cheap counter poll;
    /// all-zero defaults over an in-memory store).
    pub fn storage_pressures(&self) -> Vec<galo_rdf::StoragePressure> {
        self.server.storage_pressures()
    }

    /// Structural signature of a template — the index key a matching
    /// segment must share (transparent operators above the template's root
    /// join are filtered out by [`shape_signature`] itself).
    pub fn template_signature(tpl: &Template) -> u64 {
        shape_signature(tpl.join_count, tpl.pops.iter().map(|p| p.pop_type.as_str()))
    }

    /// IRIs of the templates whose structural signature equals
    /// `signature`, in ascending IRI order (the matcher's deterministic
    /// tie-break). Empty means no stored template can match a segment of
    /// that shape, so the caller can skip probing entirely.
    pub fn candidate_templates(&self, signature: u64) -> Vec<String> {
        let index = self.sig_index.read().expect("signature index lock");
        index.iris(signature).to_vec()
    }

    /// Like [`candidate_templates`](Self::candidate_templates), but also
    /// applies the admission pre-check: a candidate survives only if, for
    /// every [`PopCheck`] the segment will probe with, the template has at
    /// least one operator of that type whose stored bounds admit the
    /// cardinality — and, for scans, the scan-table belief stats. Those
    /// are the exact bounds the probe tests, so the check is a
    /// *necessary* condition for a match (every probe binds each segment
    /// operator to a same-typed template operator and tests exactly these
    /// bounds) and the pre-check only removes templates the probe would
    /// reject anyway — without touching the triple store.
    ///
    /// Defined as the
    /// [`next_candidate_admitting`](Self::next_candidate_admitting) cursor
    /// pulled to exhaustion: there is one reader of a bucket.
    pub fn candidate_templates_admitting(
        &self,
        signature: u64,
        query: &AdmissionQuery<'_>,
    ) -> Vec<String> {
        let mut stats = AdmissionStats::default();
        let mut admitted: Vec<String> = Vec::new();
        while let Some(iri) = self.next_candidate_admitting(
            signature,
            query,
            admitted.last().map(String::as_str),
            &mut stats,
        ) {
            admitted.push(iri);
        }
        admitted
    }

    /// The first admitted candidate strictly after `after` (`None` =
    /// from the start), in ascending IRI order. The matcher steps
    /// through a segment's candidates with this cursor: only the
    /// candidates actually checked are cloned (usually one, thanks to
    /// first-match-wins) instead of the whole admitted list, and the
    /// signature-index lock is held only for one pull. Every index entry
    /// the pull went past — the admitted one included — is accumulated
    /// into `stats`, so the caller observes exactly how much pruning the
    /// pre-check did for this segment.
    pub fn next_candidate_admitting(
        &self,
        signature: u64,
        query: &AdmissionQuery<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<String> {
        let index = self.sig_index.read().expect("signature index lock");
        index
            .next_admitting(signature, query, after, stats)
            .map(str::to_string)
    }

    /// The [`next_candidate_admitting`](Self::next_candidate_admitting)
    /// cursor with the admitted candidate matched against the segment on
    /// its index row, under the same lock — the matcher's one read of the
    /// index per candidate. `shape` is the segment's beside `query`'s
    /// checks.
    pub(crate) fn next_candidate_checked(
        &self,
        signature: u64,
        query: &AdmissionQuery<'_>,
        shape: &SegmentShape<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<Candidate> {
        let index = self.sig_index.read().expect("signature index lock");
        let (iri, verdict) = index.next_checked(signature, query, shape, after, stats)?;
        Some(Candidate {
            iri: iri.to_string(),
            verdict: verdict.map(|labels| labels.into_iter().map(str::to_string).collect()),
        })
    }

    /// Number of distinct structural signatures in the index.
    pub fn signature_count(&self) -> usize {
        self.sig_index.read().expect("signature index lock").len()
    }

    /// The underlying SPARQL endpoint.
    pub fn server(&self) -> &FusekiLite {
        &self.server
    }

    /// A fresh anonymized template identifier ("each resource is
    /// anonymized by generating a unique random identifier", §3.2).
    /// Deterministic per knowledge base for reproducibility.
    pub fn fresh_id(&self, salt: u64) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // A small splitmix64 keeps ids unique and opaque.
        let mut z = n
            .wrapping_add(salt)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 30;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 27;
        format!("{z:016x}")
    }

    /// Serialize templates into the one block that states them — per
    /// template its RDF statements in the default graph, then its tag in
    /// its workload's named graph (its dataset membership) — naming each
    /// distinct term once, in the order it first appears. This is the one
    /// serializer: [`insert_batch`](Self::insert_batch) applies the block,
    /// a remote learner's [`Publisher`](crate::Publisher) sends its
    /// encoding as a replication `Publish` payload, and the primary that
    /// decodes it reaches the same image as a local `insert_batch`.
    pub fn templates_block(templates: &[Template]) -> QuadBlock {
        let mut writer = TemplateWriter::new(templates);
        for tpl in templates {
            writer.template(tpl);
        }
        writer.block.finish()
    }

    /// The statements [`templates_block`](Self::templates_block) states,
    /// as quads.
    pub fn templates_to_quads(templates: &[Template]) -> Vec<galo_rdf::Quad> {
        Self::templates_block(templates).inserted_quads()
    }

    /// Insert a template, serializing it to RDF.
    pub fn insert(&self, tpl: &Template) {
        self.insert_batch(std::slice::from_ref(tpl));
    }

    /// Publish a batch of templates in **one** commit — the append path a
    /// learner machine pushes its mined templates through. All of the
    /// batch's triples (and per-workload dataset tags) are one block of
    /// inserts, so a durable backend journals the batch as one log record
    /// per shard it touches and a sharded backend routes each template
    /// whole to one shard (template-affine placement).
    ///
    /// Publication is idempotent and commutative: re-publishing a
    /// template is a set-semantics no-op, so concurrent learners can
    /// publish in any interleaving and reach the same knowledge-base
    /// image. Returns how many quads were new.
    pub fn insert_batch(&self, templates: &[Template]) -> usize {
        let block = Self::templates_block(templates);
        let apply = || self.server.apply_block_owned(block);
        loudly(self.commit(Some("insert_batch"), apply)).effective()
    }

    /// Apply quads (as [`templates_to_quads`](Self::templates_to_quads)
    /// gives them, say):
    /// [`apply_block`](Self::apply_block) over the quads as one block of
    /// inserts. Returns how many quads were new.
    pub fn apply_quads(&self, quads: &[galo_rdf::Quad]) -> usize {
        self.apply_block(&QuadBlock::of_inserts(quads))
    }

    /// Apply one quad block — the decoded payload of a replication
    /// `Publish` or `Mutation` frame, or a caller's quads or records
    /// viewed as one — in one commit: the **privileged replication apply
    /// path**. Unlike every other mutator this one is not gated, so it
    /// still works after [`FusekiLite::set_read_only`]: a read replica
    /// replays its primary's mutation feed through here while every
    /// client-facing write stays rejected. Idempotent (set semantics), so
    /// at-least-once frame delivery yields exactly-once application.
    /// Returns how many operations took effect.
    pub fn apply_block<T: Borrow<Term>>(&self, block: &QuadBlock<T>) -> usize {
        loudly(self.commit(None, || self.server.apply_block(block))).effective()
    }

    /// [`apply_block`](Self::apply_block) for a block the caller hands
    /// over — a decoded `Publish` or `Mutation` payload, a snapshot: the
    /// store keeps the terms it has never seen instead of copying them,
    /// and the rest are dropped with the block. Privileged in the same
    /// way.
    pub fn apply_block_owned(&self, block: QuadBlock) -> usize {
        loudly(self.commit(None, || self.server.apply_block_owned(block))).effective()
    }

    /// What retracting a template takes out of the store, as removes:
    /// every statement of its node and of the operators linked to it by
    /// `inTemplate` (stream edges go child → parent, role edges parent →
    /// child; both ends are operators), then its tag in each workload
    /// graph. Empty when nothing of it is stored. This is the read half
    /// of [`remove_template`](Self::remove_template), exposed for callers
    /// that apply the block somewhere else as well — the replication
    /// primary logs it.
    pub fn retraction_of(&self, template_iri: &str) -> Vec<Record> {
        self.server.with_store(|st| {
            let subjects = template_subjects(st, template_iri);
            let term = |id| st.resolve(id).clone();
            let mut removes = Vec::new();
            for &subject in &subjects {
                for (s, p, o) in st.scan(Some(subject), None, None) {
                    removes.push(Record::Remove(term(s), term(p), term(o), None));
                }
            }
            let Some(&tid) = subjects.first() else {
                return removes;
            };
            for gid in st.graph_ids() {
                let is_workload = st
                    .resolve(gid)
                    .as_iri()
                    .is_some_and(|iri| iri.starts_with(vocab::WORKLOAD_GRAPH_NS));
                if !is_workload {
                    continue;
                }
                for (s, p, o) in st.scan_in(gid, Some(tid), None, None) {
                    removes.push(Record::Remove(term(s), term(p), term(o), Some(term(gid))));
                }
            }
            removes
        })
    }

    /// Retract a template: remove its triples (template node, operator
    /// nodes, stream edges, workload tagging) and its signature-index row
    /// in one commit. Returns true when anything was removed.
    pub fn remove_template(&self, template_iri: &str) -> bool {
        let removes = || self.retraction_of(template_iri);
        loudly(self.mutate("remove_template", removes)).effective() > 0
    }

    /// [`commit`](Self::commit) for the client mutators: they build
    /// records nobody else needs, so the block is handed over and the
    /// store keeps its terms.
    fn mutate<I: IntoIterator<Item = Record>>(
        &self,
        op: &'static str,
        build: impl FnOnce() -> I,
    ) -> Result<Applied, ReadOnlyReplica> {
        let hand_over = || {
            let block = QuadBlock::from_records(build());
            self.server.apply_block_owned(block)
        };
        self.commit(Some(op), hand_over)
    }

    /// The one code path that changes the knowledge base (see the
    /// [module docs](self#mutations)): gate `client` callers, open the
    /// scope, let the mutator build its block and pass it through one of
    /// the endpoint's two block doors under it (`apply`; one bracket),
    /// bring the signature index up to the statements that took effect,
    /// journal the rows that took them (each changed template's row
    /// before and after), and close the scope on whether any did.
    fn commit(
        &self,
        client: Option<&'static str>,
        apply: impl FnOnce() -> Applied,
    ) -> Result<Applied, ReadOnlyReplica> {
        if let Some(op) = client {
            self.server.check_writable(op)?;
        }
        // One scope spans the whole logical change — what the mutator
        // read, the triples, the index — so the epoch reads odd until all
        // of it is settled: a serving cache can neither validate a hit nor
        // stamp a fresh entry against a half-applied change.
        let scope = self.server.mutation_scope();
        let applied = apply();
        // A change that changed nothing (an idempotent republish, the
        // removal of an absent template) invalidates nothing.
        let changed = applied.changed.contains(&true);
        if changed {
            let generation = self.server.with_store(|st| {
                let Some(templates) = changed_templates(st, &applied) else {
                    self.keep_index(st, &applied);
                    return Generation::Opaque;
                };
                let mut rows = self.journal_rows(&templates);
                self.keep_index(st, &applied);
                rows.extend(self.journal_rows(&templates));
                Generation::Rows(rows)
            });
            self.journal.append(self.next_epoch(), generation);
        }
        scope.commit(changed);
        Ok(applied)
    }

    /// The even epoch the open mutation scope commits to when it changed
    /// something: the counter reads odd until then.
    fn next_epoch(&self) -> u64 {
        self.epoch() + 1
    }

    /// The rows the templates hold in the signature index right now.
    fn journal_rows(&self, templates: &[&str]) -> Vec<JournalRow> {
        let index = self.sig_index.read().expect("signature index lock");
        let mut rows = Vec::new();
        for template in templates {
            index.journal_rows(template, &mut rows);
        }
        rows
    }

    /// The change journal a match report carries as its witness (see
    /// `galo_core::serving`).
    pub(crate) fn journal(&self) -> &Arc<ChangeJournal> {
        &self.journal
    }

    /// Index upkeep: the one function of a block — as the store that took
    /// it holds it — and which of its operations took effect. The
    /// default-graph inserts that did are gathered as facts; a template a
    /// statement was removed from, or whose gathered facts are not the
    /// whole of it, is re-read from the store instead; and a clear, or a
    /// statement no template can be named for, leaves only the rebuild.
    fn keep_index(&self, st: &dyn TripleStore, applied: &Applied) {
        let Applied { changed, block } = applied;
        let term = |ix| block.term_in(st, ix);
        let mut fresh = IndexFacts::default();
        // Subjects whose template only the store has the whole of.
        let mut edited: Vec<&str> = Vec::new();
        // Per dictionary index of a predicate, the fact it states: read
        // once, not once per statement.
        let mut facts: Vec<Option<Option<Fact>>> = Vec::new();
        let effective = block.ops().iter().zip(changed).filter(|&(_, &did)| did);
        for (op, _) in effective {
            let (quad, removed) = match op {
                BlockOp::Insert(quad) => (quad, false),
                BlockOp::Remove(quad) => (quad, true),
                BlockOp::Clear => return self.rebuild_index(st),
            };
            // Named-graph statements are dataset tags, not index inputs.
            let &(s, p, o, None) = quad else {
                continue;
            };
            if facts.len() <= p as usize {
                facts.resize(p as usize + 1, None);
            }
            let fact = facts[p as usize].get_or_insert_with(|| fact_of(term(p)));
            let Some(fact) = *fact else {
                continue;
            };
            let subject = term(s).str_value();
            if removed {
                edited.push(subject);
            } else {
                fresh.add(subject, fact, term(o));
            }
        }
        edited.extend(fresh.partial());
        let reread: Option<BTreeSet<&str>> = edited.into_iter().map(vocab::template_of).collect();
        let Some(reread) = reread else {
            return self.rebuild_index(st);
        };
        let mut index = self.sig_index.write().expect("signature index lock");
        fresh.into_entries(&mut index, |template| !reread.contains(template));
        for template in reread {
            index.remove(template);
            template_facts(st, template).into_entries(&mut index, |_| true);
        }
        index.settle();
    }

    /// Rebuild the signature index from the stored triples and advance
    /// the [`epoch`](Self::epoch) one generation. Required after mutating
    /// template triples through the raw SPARQL endpoint (the generation
    /// also covers the raw mutation itself, which the endpoint's raw
    /// store access deliberately does not count).
    pub fn reindex(&self) {
        let scope = self.server.mutation_scope();
        self.server.with_store(|st| self.rebuild_index(st));
        // Always a change: the rebuild may be cleaning up after a
        // raw-endpoint mutation the counter never saw, so anything
        // computed against the old index must be invalidated.
        self.journal.append(self.next_epoch(), Generation::Opaque);
        scope.commit(true);
    }

    /// The index rebuild itself, epoch-free: the same gather as
    /// [`keep_index`](Self::keep_index), fed by one store scan per index
    /// predicate, then a whole-index swap.
    fn rebuild_index(&self, st: &dyn TripleStore) {
        #[cfg(test)]
        tests::REBUILDS.with(|n| n.set(n.get() + 1));
        let mut facts = IndexFacts::default();
        for (local, fact) in Fact::all() {
            for (s, _, o) in statements_of(st, local) {
                facts.add(st.resolve(s).str_value(), fact, st.resolve(o));
            }
        }
        let mut index = SigIndex::default();
        facts.into_entries(&mut index, |_| true);
        index.settle();
        *self.sig_index.write().expect("signature index lock") = index;
    }

    /// Number of templates stored: the subjects stating a guideline.
    pub fn template_count(&self) -> usize {
        self.server.with_store(|st| {
            let mut templates: Vec<TermId> = statements_of(st, vocab::HAS_GUIDELINE_XML)
                .map(|(s, ..)| s)
                .collect();
            templates.sort_unstable();
            templates.dedup();
            templates.len()
        })
    }

    /// Fetch a template's guideline document and source workload by
    /// template IRI.
    pub fn guideline_of(&self, template_iri: &str) -> Option<(GuidelineDoc, String)> {
        self.server
            .with_store(|st| guideline_of_in(st, template_iri))
    }

    /// All stored problem fingerprints with sources (deduplication during
    /// learning).
    pub fn fingerprints(&self) -> Vec<(String, String)> {
        self.server.with_store(|st| {
            let text = |id| st.resolve(id).str_value().to_string();
            statements_of(st, vocab::HAS_PROBLEM_FINGERPRINT)
                .map(|(s, _, o)| (text(s), text(o)))
                .collect()
        })
    }

    /// Workloads that contributed templates, from the named-graph index.
    pub fn workloads(&self) -> Vec<String> {
        self.server
            .graph_names()
            .into_iter()
            .filter_map(|g| {
                g.as_iri()
                    .and_then(|iri| iri.strip_prefix(vocab::WORKLOAD_GRAPH_NS))
                    .map(str::to_string)
            })
            .collect()
    }

    /// Per-workload dataset summaries, sorted by workload name — the
    /// named graphs promoted to first-class datasets. Counts and
    /// improvements come from the stored triples (the dataset's tag graph
    /// joined with each template's `hasImprovement`); the distinct-shape
    /// count is of the signatures the index files those templates under.
    pub fn workload_datasets(&self) -> Vec<DatasetStats> {
        let improvement = prop(vocab::HAS_IMPROVEMENT);
        let datasets: Vec<(DatasetStats, Vec<String>)> = self.server.with_store(|st| {
            let imp_id = st.term_id(&improvement);
            // Graph names come from the already-held view — re-entering
            // the endpoint here would recursively take the store lock.
            st.graph_names()
                .into_iter()
                .filter_map(|g| {
                    let workload = g
                        .as_iri()
                        .and_then(|iri| iri.strip_prefix(vocab::WORKLOAD_GRAPH_NS))?
                        .to_string();
                    let gid = st.term_id(&g).expect("graph name interned");
                    let mut iris = Vec::new();
                    let mut improvement_sum = 0.0f64;
                    for (s, _, _) in st.scan_in(gid, None, None, None) {
                        iris.push(st.resolve(s).str_value().to_string());
                        let Some(imp) = imp_id else { continue };
                        if let Some((_, _, v)) =
                            st.scan(Some(s), Some(imp), None).into_iter().next()
                        {
                            if let Some(n) = st.resolve(v).as_literal().and_then(|l| l.as_number())
                            {
                                improvement_sum += n;
                            }
                        }
                    }
                    let templates = iris.len();
                    let stats = DatasetStats {
                        workload,
                        templates,
                        signatures: 0,
                        avg_improvement: if templates == 0 {
                            0.0
                        } else {
                            improvement_sum / templates as f64
                        },
                    };
                    Some((stats, iris))
                })
                .collect()
        });
        let index = self.sig_index.read().expect("signature index lock");
        let mut stats: Vec<DatasetStats> = datasets
            .into_iter()
            .map(|(mut ds, iris)| {
                ds.signatures = index.signatures_of(iris.iter().map(String::as_str));
                ds
            })
            .collect();
        stats.sort_by(|a, b| a.workload.cmp(&b.workload));
        stats
    }

    /// IRIs of the templates in one workload's dataset, ascending — the
    /// per-dataset template set, enumerated from the named graph without
    /// a default-graph scan.
    pub fn dataset_template_iris(&self, workload: &str) -> Vec<String> {
        let graph = vocab::workload_graph_iri(workload);
        let mut iris: Vec<String> = self.server.with_store(|st| {
            let Some(gid) = st.term_id(&graph) else {
                return Vec::new();
            };
            let mut subjects: Vec<galo_rdf::TermId> = st
                .scan_in(gid, None, None, None)
                .into_iter()
                .map(|(s, _, _)| s)
                .collect();
            subjects.sort_unstable();
            subjects.dedup();
            subjects
                .into_iter()
                .map(|s| st.resolve(s).str_value().to_string())
                .collect()
        });
        iris.sort();
        iris
    }

    /// Export as N-Triples (persistence).
    pub fn export(&self) -> String {
        self.server.export()
    }

    /// Load from N-Triples / N-Quads, replacing the current contents: a
    /// clear plus the text's statements as one commit, the signature
    /// index rebuilt from the imported triples inside it — one
    /// [`epoch`](Self::epoch) generation, and on a durable backend one
    /// record, so a crash mid-import reopens the previous image. The text
    /// is parsed before anything is touched: a malformed import changes
    /// nothing. Returns the number of default-graph triples imported.
    pub fn import(&self, text: &str) -> Result<usize, ServerError> {
        let quads = galo_rdf::parse_ntriples(text)?;
        let replace = || {
            let block = QuadBlock::replacing_with_quads(quads);
            self.server.apply_block_owned(block)
        };
        Ok(self.commit(Some("import"), replace)?.new_triples())
    }

    /// Drop every template: triples, named-graph tags and the signature
    /// index — one commit, one epoch generation.
    pub fn clear(&self) {
        loudly(self.mutate("clear", || [Record::Clear]));
    }

    /// The knowledge base's mutation epoch — a seqlock-style counter
    /// (see [`FusekiLite::mutation_epoch`]): **even** at rest, **odd**
    /// while a mutation is in flight, advanced one generation (+2) by
    /// every mutation that can change a match result:
    /// [`insert_batch`](Self::insert_batch) (not by idempotent
    /// republishes), [`remove_template`](Self::remove_template) (not by
    /// no-op removals), [`refine_template_stats`](Self::refine_template_stats)
    /// (not by ineffective refinements), [`reindex`](Self::reindex),
    /// [`import`](Self::import), [`clear`](Self::clear),
    /// [`apply_block`](Self::apply_block) /
    /// [`apply_quads`](Self::apply_quads) (when any operation took
    /// effect), and any write through the raw endpoint's epoch-counted
    /// methods. The one commit behind the KB mutators holds its scope
    /// across the *whole* logical change — what the mutator read, the
    /// triples, the signature index — so a
    /// result computed between two equal even loads of this counter
    /// provably saw a settled knowledge base, and a cached outcome
    /// stamped with even epoch `E` is exactly as fresh as an uncached
    /// match while the counter still reads `E`. On the serving tier's hot
    /// path that one atomic load is the whole validation; an outcome the
    /// counter has passed is re-validated against the change journal the
    /// same commit keeps (see `galo_core::serving`).
    pub fn epoch(&self) -> u64 {
        self.server.mutation_epoch()
    }

    /// The runtime-feedback collector (see [`crate::feedback`]):
    /// per-template observation buffers waiting to be folded
    /// by [`apply_feedback`](Self::apply_feedback).
    pub fn feedback(&self) -> &FeedbackCollector {
        &self.feedback
    }

    /// Cumulative count of *effective* template refinements — calls to
    /// [`refine_template_stats`](Self::refine_template_stats) that
    /// actually changed a stored statistic. Stamped into
    /// [`MatchReport::refinements_applied`](crate::matching::MatchReport::refinements_applied)
    /// so callers can see how much learning a knowledge base has
    /// absorbed.
    pub fn refinements_applied(&self) -> u64 {
        self.refinements.load(Ordering::Relaxed)
    }

    /// Record one executed plan's runtime actuals into the feedback
    /// buffers — the collect half of the loop, safe on the serve path
    /// (no store access, no epoch movement). Returns the number of
    /// per-operator observations buffered.
    ///
    /// Two kinds of evidence are recorded, keyed by template IRI:
    ///
    /// - **Matched segments** (`report.rewrites`): each operator's
    ///   estimated cardinality folds *unconditionally* (band ∞) — a
    ///   value that matched once must stay inside the envelope forever
    ///   (the monotone-safety core) — and its actual cardinality folds
    ///   band-gated, so a moderately displaced actual widens the
    ///   envelope toward where the estimate will sit next time.
    /// - **Near misses** (only when
    ///   [`near_miss_factor`](crate::matching::MatchConfig::near_miss_factor)
    ///   `> 1`): unmatched, unclaimed segments are re-tested with every
    ///   stored range widened by the factor; templates admitted that way
    ///   record the segment's estimates, actuals and scan values at that
    ///   band, so values "just outside" the stored envelope widen it —
    ///   and farther ones never do. This is how patterns learned on one
    ///   workload come to re-optimize another (the paper's Exp-2): a
    ///   round of feedback on the other workload's plans widens the
    ///   templates it nearly matched, and the next match is exact.
    pub fn record_feedback(
        &self,
        db: &Database,
        qgm: &Qgm,
        cfg: &crate::matching::MatchConfig,
        report: &crate::matching::MatchReport,
        actuals: &Actuals,
    ) -> usize {
        let mut recorded = 0usize;
        // Matched segments: the operator ids they claim (the matcher
        // skips segments overlapping an earlier match, so near-miss
        // recording must too).
        let mut claimed: HashSet<u32> = HashSet::new();
        let root_of = |op_id: u32| qgm.pops().find(|(_, p)| p.op_id == op_id).map(|(id, _)| id);
        for rw in &report.rewrites {
            if let Some(root) = root_of(rw.segment_op_id) {
                claimed.extend(qgm.subtree(root).iter().map(|&p| qgm.pop(p).op_id));
            }
        }
        let band = cfg.near_miss_factor.max(1.0);
        for rw in &report.rewrites {
            let Some(root) = root_of(rw.segment_op_id) else {
                continue;
            };
            let checks = crate::transform::segment_pop_checks(db, qgm, root);
            for (check, &pid) in checks.iter().zip(qgm.subtree(root).iter()) {
                let mut cards = vec![(check.est_card, f64::INFINITY)];
                if let Some(actual) = actuals.get(pid) {
                    cards.push((actual, band));
                }
                recorded += usize::from(self.feedback.push(
                    &rw.template_iri,
                    PopObservation {
                        pop_type: check.pop_type.to_string(),
                        cards,
                        scan: check.scan,
                        scan_band: f64::INFINITY,
                    },
                ));
            }
        }
        if band > 1.0 {
            for segment in segments(qgm, cfg.join_threshold) {
                if qgm
                    .subtree(segment.root)
                    .iter()
                    .any(|&p| claimed.contains(&qgm.pop(p).op_id))
                {
                    continue;
                }
                let checks = crate::transform::segment_pop_checks(db, qgm, segment.root);
                if checks.is_empty() {
                    continue;
                }
                let query = AdmissionQuery {
                    checks: &checks,
                    near_factor: band,
                };
                let signature = segment_signature(qgm, segment.root).hash;
                let near = (self.sig_index.read().expect("signature index lock"))
                    .admitting_widened(signature, &query);
                for iri in near {
                    for (check, &pid) in checks.iter().zip(qgm.subtree(segment.root).iter()) {
                        let mut cards = vec![(check.est_card, band)];
                        if let Some(actual) = actuals.get(pid) {
                            cards.push((actual, band));
                        }
                        recorded += usize::from(self.feedback.push(
                            &iri,
                            PopObservation {
                                pop_type: check.pop_type.to_string(),
                                cards,
                                scan: check.scan,
                                scan_band: band,
                            },
                        ));
                    }
                }
            }
        }
        recorded
    }

    /// Drain the feedback buffers and fold every template's batch into
    /// its stored statistics through
    /// [`refine_template_stats`](Self::refine_template_stats) — the
    /// fold half of the loop, run off the serve path (batched by the
    /// serving tier, or called explicitly). Gated like every client
    /// mutator, and before the drain: a fold rejected on a read replica
    /// does not cost the evidence.
    pub fn apply_feedback(&self) -> FeedbackReport {
        loudly(self.server.check_writable("apply_feedback"));
        let mut report = FeedbackReport::default();
        for (template_iri, refinement) in self.feedback.drain() {
            report.templates_examined += 1;
            let outcome = self.refine_template_stats(&template_iri, &refinement);
            report.values_folded += outcome.values_folded;
            report.values_dropped += outcome.values_dropped;
            report.narrowed += outcome.narrowed;
            if outcome.changed {
                report.templates_refined += 1;
            }
        }
        report
    }

    /// Fold one template's refinement batch into its stored statistics:
    /// band-gated observation folds (near-miss widening), then
    /// decay-weighted widen-factor narrowing, the statistics that moved
    /// restated — old statements out, new ones in — as one commit: a
    /// concurrent serving tier either sees the pre-refinement template at
    /// the old epoch or the post-refinement template at the new one,
    /// never a mix, and neither does a reopen after a crash.
    ///
    /// Gating rules (the monotone-safety argument):
    ///
    /// - A `(value, band)` cardinality fold is admitted iff the value
    ///   lies within `[lo·band⁻¹ … hi·band]` of the operator's
    ///   **pre-fold** envelope — the same arithmetic as single-stat
    ///   admission widened by `band`, so a value a near-miss test at
    ///   factor `band` admitted is always absorbed. Band ∞ (recorded true
    ///   matches) folds unconditionally.
    /// - Scan-stat trios are gated jointly: all three values in band, or
    ///   none fold.
    /// - Narrowing only decays the widen factor toward 1
    ///   ([`Stat::decay_widen`]); the exact observation core —
    ///   which contains every previously matched value — is never
    ///   shrunk.
    ///
    /// An ineffective refinement (every fold dropped or idempotent, no
    /// widen factor moved) commits as a no-op: the epoch is restored and
    /// nothing is invalidated.
    pub fn refine_template_stats(
        &self,
        template_iri: &str,
        refinement: &TemplateRefinement,
    ) -> RefineOutcome {
        let mut outcome = RefineOutcome::default();
        if refinement.observations.is_empty() && refinement.narrows.is_empty() {
            return outcome;
        }
        let restatement = || {
            self.server
                .with_store(|st| refinement_of(st, template_iri, refinement, &mut outcome))
        };
        let applied = loudly(self.mutate("refine_template_stats", restatement));
        outcome.changed = applied.effective() > 0;
        if outcome.changed {
            self.refinements.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

/// The serializer behind [`KnowledgeBase::templates_block`]. Each term a
/// batch repeats is made once: a property IRI once per block, a
/// template's node and each operator's IRI once per template, a
/// template's fingerprint once. Every other term is made where it is
/// stated and filed by the block writer, which hashes it once and drops
/// it when the dictionary already has it. Statements are written in a
/// fixed order, their terms `s p o g`, so the dictionary order — and the
/// encoding — is a function of the templates alone.
struct TemplateWriter {
    block: BlockWriter,
    /// Property (local name) → index.
    props: HashMap<&'static str, u32>,
    /// The current template's operators that are in the block: op id →
    /// index.
    pops: Vec<(u32, u32)>,
}

impl TemplateWriter {
    fn new(templates: &[Template]) -> Self {
        // About eight statements per operator and six per template.
        let statements = templates.iter().map(|t| 6 + 8 * t.pops.len()).sum();
        TemplateWriter {
            block: BlockWriter::with_capacity(statements),
            props: HashMap::new(),
            pops: Vec::new(),
        }
    }

    /// The index of a property, made the first time the block states it.
    fn prop(&mut self, local: &'static str) -> u32 {
        let block = &mut self.block;
        *self
            .props
            .entry(local)
            .or_insert_with(|| block.term(prop(local)))
    }

    /// The index of template `id`'s operator `op_id`, made the first time
    /// the template names it.
    fn pop(&mut self, id: &str, op_id: u32) -> u32 {
        if let Some(&(_, ix)) = self.pops.iter().find(|&&(op, _)| op == op_id) {
            return ix;
        }
        let ix = self.block.term(vocab::template_pop_iri(id, op_id));
        self.pops.push((op_id, ix));
        ix
    }

    fn insert(&mut self, s: u32, p: u32, o: u32) {
        self.block.insert((s, p, o, None));
    }

    /// `subject`'s three statements of one statistic family: the exact
    /// bounds of the statistic's envelope, and the statistic itself.
    fn stat(&mut self, subject: u32, family: usize, stat: &Stat) {
        for (local, value) in stat_statements(STAT_FAMILIES[family], stat) {
            let p = self.prop(local);
            let o = self.block.term(value);
            self.insert(subject, p, o);
        }
    }

    /// One template: its node's statements, each operator's, then its
    /// workload tag.
    fn template(&mut self, tpl: &Template) {
        let id = tpl.id.as_str();
        self.pops.clear();
        let t = self.block.term(vocab::template_iri(id));
        let about = |w: &mut Self, local: &'static str, value: Term| {
            let p = w.prop(local);
            let o = w.block.term(value);
            w.insert(t, p, o);
            o
        };
        let xml = Term::lit(tpl.guideline.to_xml());
        about(self, vocab::HAS_GUIDELINE_XML, xml);
        about(self, vocab::HAS_IMPROVEMENT, Term::num(tpl.improvement));
        let source = Term::lit(tpl.source_workload.clone());
        about(self, vocab::HAS_SOURCE_WORKLOAD, source);
        let fingerprint = Term::lit(tpl.fingerprint.clone());
        let fingerprint = about(self, vocab::HAS_PROBLEM_FINGERPRINT, fingerprint);
        let joins = Term::num(tpl.join_count as f64);
        about(self, vocab::HAS_JOIN_COUNT, joins);
        for p in &tpl.pops {
            let me = self.pop(id, p.op_id);
            let in_template = self.prop(vocab::IN_TEMPLATE);
            self.insert(me, in_template, t);
            let pop_type = self.prop(vocab::HAS_POP_TYPE);
            let ty = self.block.term(Term::lit(p.pop_type.clone()));
            self.insert(me, pop_type, ty);
            self.stat(me, 0, &p.cardinality);
            if let Some(scan) = &p.scan {
                let tabid = self.prop(vocab::HAS_CANONICAL_TABID);
                let label = self.block.term(Term::lit(scan.canonical_tabid.clone()));
                self.insert(me, tabid, label);
                self.stat(me, 1, &scan.row_size);
                self.stat(me, 2, &scan.fpages);
                self.stat(me, 3, &scan.base_cardinality);
            }
            let is_join = matches!(p.pop_type.as_str(), "NLJOIN" | "HSJOIN" | "MSJOIN");
            for (i, &child) in p.inputs.iter().enumerate() {
                let child = self.pop(id, child);
                let output = self.prop(vocab::HAS_OUTPUT_STREAM);
                self.insert(child, output, me);
                if is_join {
                    let role = match i {
                        0 => vocab::HAS_OUTER_INPUT_STREAM,
                        _ => vocab::HAS_INNER_INPUT_STREAM,
                    };
                    let role = self.prop(role);
                    self.insert(me, role, child);
                }
            }
        }
        // Tag the template into its workload's named graph so
        // per-workload datasets stay enumerable without a default-graph
        // scan (cross-workload accounting, Exp-2).
        if !tpl.source_workload.is_empty() {
            let p = self.prop(vocab::HAS_PROBLEM_FINGERPRINT);
            let g = self
                .block
                .term(vocab::workload_graph_iri(&tpl.source_workload));
            self.block.insert((t, p, fingerprint, Some(g)));
        }
    }
}

/// An infallible mutator's rejection, raised the way the endpoint's own
/// infallible writes raise theirs: a panic whose payload is the typed
/// error.
fn loudly<T>(gated: Result<T, ReadOnlyReplica>) -> T {
    gated.unwrap_or_else(|rejected| std::panic::panic_any(rejected))
}

/// The fact a predicate states to the index gather, if any: a property
/// IRI under [`vocab::PROP_NS`] that [`Fact::of`] reads.
fn fact_of(predicate: &Term) -> Option<Fact> {
    Fact::of(predicate.as_iri()?.strip_prefix(vocab::PROP_NS)?)
}

/// The default graph's statements of one property (its local name under
/// [`vocab::PROP_NS`]): one predicate scan, none when the store has
/// never heard of it.
fn statements_of(st: &dyn TripleStore, local: &str) -> impl Iterator<Item = Triple> {
    let scanned = st
        .term_id(&prop(local))
        .map(|p| st.scan(None, Some(p), None));
    scanned.into_iter().flatten()
}

/// The subjects a template's statements hang off: its node first, then
/// every operator linked to it by `inTemplate`. Empty when the store has
/// never heard of the template.
fn template_subjects(st: &dyn TripleStore, template_iri: &str) -> Vec<TermId> {
    let Some(tid) = st.term_id(&Term::iri(template_iri)) else {
        return Vec::new();
    };
    let mut subjects = vec![tid];
    if let Some(in_tpl) = st.term_id(&prop(vocab::IN_TEMPLATE)) {
        let pops = st.scan(None, Some(in_tpl), Some(tid));
        subjects.extend(pops.into_iter().map(|(s, _, _)| s));
    }
    subjects
}

/// The templates a block's effective operations changed, each named by a
/// statement's subject or IRI object the way the index upkeep names them
/// ([`vocab::template_of`]). `None` — journal the generation opaque — for
/// a clear, a subject that names no template, or more than
/// [`JOURNAL_TEMPLATES`] templates.
fn changed_templates<'s>(st: &'s dyn TripleStore, applied: &Applied) -> Option<Vec<&'s str>> {
    let Applied { changed, block } = applied;
    let mut templates: Vec<&str> = Vec::new();
    for (op, _) in block.ops().iter().zip(changed).filter(|&(_, &did)| did) {
        let &(BlockOp::Insert((s, _, o, _)) | BlockOp::Remove((s, _, o, _))) = op else {
            return None;
        };
        let subject = vocab::template_of(block.term_in(st, s).str_value())?;
        let object = block.term_in(st, o).as_iri().and_then(vocab::template_of);
        for template in std::iter::once(subject).chain(object) {
            if !templates.contains(&template) {
                if templates.len() == JOURNAL_TEMPLATES {
                    return None;
                }
                templates.push(template);
            }
        }
    }
    Some(templates)
}

/// What the store says of one template, as index facts.
fn template_facts<'a>(st: &'a dyn TripleStore, template_iri: &str) -> IndexFacts<'a> {
    let mut facts = IndexFacts::default();
    for subject in template_subjects(st, template_iri) {
        for (s, p, o) in st.scan(Some(subject), None, None) {
            if let Some(fact) = fact_of(st.resolve(p)) {
                facts.add(st.resolve(s).str_value(), fact, st.resolve(o));
            }
        }
    }
    facts
}

/// The read half of [`KnowledgeBase::refine_template_stats`]: fold the
/// batch against each operator's stored statistics (counting into
/// `outcome`) and restate, as removes and inserts, the ones that moved.
fn refinement_of(
    st: &dyn TripleStore,
    template_iri: &str,
    refinement: &TemplateRefinement,
    outcome: &mut RefineOutcome,
) -> Vec<Record> {
    let mut restated = Vec::new();
    for (pop, pop_type, stored) in template_facts(st, template_iri).operators() {
        // Fold the batch against this operator's *pre-fold* envelopes:
        // the gate is independent of observation order, and exactly as
        // permissive as an admission widened by `band` against the
        // stored template.
        let envs = stored.map(|stat| stat.map_or(Range::UNBOUNDED, |stat| stat.envelope()));
        let mut folded = stored;
        let [card, scan @ ..] = &mut folded;
        let has_scan = scan.iter().any(Option::is_some);
        let of_this_type = |ty: &String| *ty == pop_type;
        for obs in refinement
            .observations
            .iter()
            .filter(|obs| of_this_type(&obs.pop_type))
        {
            if let Some(card) = card {
                for &(value, band) in &obs.cards {
                    if within_band(envs[0], value, band) {
                        card.observe(value);
                        outcome.values_folded += 1;
                    } else {
                        outcome.values_dropped += 1;
                    }
                }
            }
            // Scan-stat trios fold jointly: all three in band, or none.
            if let (Some(sc), true) = (&obs.scan, has_scan) {
                let values = [sc.row_size, sc.fpages, sc.base_cardinality];
                let in_band = |(&v, &env)| within_band(env, v, obs.scan_band);
                if values.iter().zip(&envs[1..]).all(in_band) {
                    for (stat, &v) in scan.iter_mut().zip(&values) {
                        if let Some(stat) = stat {
                            stat.observe(v);
                            outcome.values_folded += 1;
                        }
                    }
                } else {
                    outcome.values_dropped += scan.iter().flatten().count();
                }
            }
        }
        // Narrowing after the folds: the decayed widen factor applies to
        // the envelope the folds produced. Cardinality only — scan stats
        // are exact belief values, their widen factor carries the learned
        // variation range.
        for (_, decay) in refinement.narrows.iter().filter(|(ty, _)| of_this_type(ty)) {
            if let Some(card) = card {
                let before = card.widen_factor();
                card.decay_widen(*decay);
                if card.widen_factor() < before {
                    outcome.narrowed += 1;
                }
            }
        }
        for ((old, new), family) in stored.iter().zip(&folded).zip(STAT_FAMILIES) {
            if let (Some(old), Some(new)) = (old, new) {
                if new != old {
                    restate_stat(st, pop, family, new, &mut restated);
                }
            }
        }
    }
    restated
}

/// One `(value, band)` gate against a pre-fold envelope: the same
/// arithmetic as the signature index's range test widened by `band`, so
/// anything a near-miss test at factor `band` admitted is absorbed. Non-finite
/// values never fold; band ∞ always folds (finite values).
fn within_band(env: Range, value: f64, band: f64) -> bool {
    if !value.is_finite() {
        return false;
    }
    if band.is_infinite() {
        return true;
    }
    env.lo <= value * band && env.hi >= value / band
}

/// One stat as the (property's local name, object) of its three
/// statements. Exact bounds come from the statistic's envelope — the
/// widened min/max — and the statistic rides along as its plain
/// `"count min max widen"` literal so feedback can refine it after
/// export/import, durable reopen and reindex. Both serializations are
/// deterministic, which keeps republishing a template a set-semantics
/// no-op.
fn stat_statements(
    (lo, hi, literal): (&'static str, &'static str, &'static str),
    stat: &Stat,
) -> [(&'static str, Term); 3] {
    let range = stat.envelope();
    [
        (lo, Term::num(range.lo)),
        (hi, Term::num(range.hi)),
        (literal, Term::lit(stat.to_string())),
    ]
}

/// Restate one stat of one operator as the refined statistic has it: per
/// property, every stored object that is not the new one is removed, and
/// the new one inserted unless it is what is stored.
fn restate_stat(
    st: &dyn TripleStore,
    pop: &str,
    family: (&'static str, &'static str, &'static str),
    stat: &Stat,
    restated: &mut Vec<Record>,
) {
    let subject = Term::iri(pop);
    let sid = st.term_id(&subject);
    for (local, value) in stat_statements(family, stat) {
        let property = prop(local);
        let stored = match (sid, st.term_id(&property)) {
            (Some(s), Some(p)) => st.scan(Some(s), Some(p), None),
            _ => Vec::new(),
        };
        let mut stands = false;
        for old in stored.into_iter().map(|(_, _, o)| st.resolve(o)) {
            if *old == value {
                stands = true;
            } else {
                let (s, p) = (subject.clone(), property.clone());
                restated.push(Record::Remove(s, p, old.clone(), None));
            }
        }
        if !stands {
            restated.push(Record::Insert(subject.clone(), property, value, None));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};
    use galo_optimizer::Optimizer;
    use galo_qgm::{guideline_from_plan, GuidelineNode};
    use galo_sql::parse;

    fn setup() -> (Database, Qgm) {
        let mut b = DatabaseBuilder::new("kb", SystemConfig::default_1gb());
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

    use galo_catalog::Database;

    #[test]
    fn abstraction_canonicalizes_tabids() {
        let (db, plan) = setup();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let tpl = abstract_plan(&db, &plan, plan.root(), &g, "tid01".into());
        // Guideline must reference canonical labels, not Q1/Q2.
        let tabids = tpl.guideline.roots[0].tabids();
        assert!(tabids.iter().all(|t| t.starts_with('T')), "{tabids:?}");
        // Scans carry canonical labels.
        let labels: Vec<&str> = tpl
            .pops
            .iter()
            .filter_map(|p| p.scan.as_ref().map(|s| s.canonical_tabid.as_str()))
            .collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"T1") && labels.contains(&"T2"));
    }

    #[test]
    fn ranges_widen_and_cover() {
        let mut r = Range::point(100.0);
        r.cover(400.0);
        assert_eq!(
            r,
            Range {
                lo: 100.0,
                hi: 400.0
            }
        );
        let w = r.widen(2.0);
        assert!(w.contains(50.0) && w.contains(800.0));
        assert!(!w.contains(49.0) && !w.contains(801.0));
    }

    #[test]
    fn insert_and_count_templates() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        assert_eq!(kb.template_count(), 0);
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(1));
        tpl.improvement = 0.4;
        tpl.source_workload = "tpcds".into();
        kb.insert(&tpl);
        assert_eq!(kb.template_count(), 1);
        let tpl2_id = kb.fresh_id(2);
        assert_ne!(tpl.id, tpl2_id);
    }

    #[test]
    fn guideline_roundtrips_through_rdf() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![GuidelineNode::HsJoin(
            Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
            Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
        )]);
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(7));
        tpl.source_workload = "tpcds".into();
        kb.insert(&tpl);
        let iri = vocab::template_iri(&tpl.id);
        let (doc, source) = kb.guideline_of(iri.str_value()).expect("stored guideline");
        assert_eq!(doc, tpl.guideline);
        assert_eq!(source, "tpcds");
    }

    #[test]
    fn export_import_roundtrip() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(3));
        kb.insert(&tpl);
        let text = kb.export();
        let kb2 = KnowledgeBase::new();
        kb2.import(&text).unwrap();
        assert_eq!(kb2.template_count(), 1);
    }

    #[test]
    fn workload_graphs_enumerate_sources() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        assert!(kb.workloads().is_empty());
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        for (i, wl) in ["tpcds", "client", "tpcds"].iter().enumerate() {
            let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(i as u64));
            tpl.source_workload = wl.to_string();
            kb.insert(&tpl);
        }
        let mut workloads = kb.workloads();
        workloads.sort();
        assert_eq!(workloads, vec!["client".to_string(), "tpcds".to_string()]);
        // Named-graph tagging must not leak into the default graph's
        // template count.
        assert_eq!(kb.template_count(), 3);
    }

    #[test]
    fn workload_graphs_survive_export_import() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(8));
        tpl.source_workload = "tpcds".into();
        kb.insert(&tpl);
        let dump = kb.export();
        let kb2 = KnowledgeBase::new();
        kb2.import(&dump).unwrap();
        assert_eq!(kb2.template_count(), 1);
        assert_eq!(kb2.workloads(), vec!["tpcds".to_string()]);
    }

    #[test]
    fn signature_index_tracks_insert_import_remove() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(1));
        tpl.source_workload = "tpcds".into();
        let sig = KnowledgeBase::template_signature(&tpl);
        // The template's shape equals the shape of the plan it abstracts.
        assert_eq!(sig, galo_qgm::segment_signature(&plan, plan.root()).hash);
        assert!(kb.candidate_templates(sig).is_empty());

        kb.insert(&tpl);
        let iri = vocab::template_iri(&tpl.id).str_value().to_string();
        assert_eq!(kb.candidate_templates(sig), vec![iri.clone()]);
        assert_eq!(kb.signature_count(), 1);
        assert!(kb.candidate_templates(sig ^ 1).is_empty());
        // The candidate cursor agrees with the materialized list.
        let q = AdmissionQuery::exact(&[]);
        let mut stats = AdmissionStats::default();
        assert_eq!(
            kb.next_candidate_admitting(sig ^ 1, &q, None, &mut stats),
            None
        );
        assert_eq!(stats.considered, 0, "no bucket, nothing examined");
        assert_eq!(
            kb.next_candidate_admitting(sig, &q, None, &mut stats),
            Some(iri.clone())
        );
        assert_eq!(
            kb.next_candidate_admitting(sig, &q, Some(&iri), &mut stats),
            None
        );
        assert_eq!(stats.considered, 1, "one entry examined, once");

        // Import rebuilds the index from triples.
        let dump = kb.export();
        let kb2 = KnowledgeBase::new();
        kb2.import(&dump).unwrap();
        assert_eq!(kb2.candidate_templates(sig), vec![iri.clone()]);

        // Removal unlinks triples, tagging and index entry.
        let triples_before = kb.server().len();
        assert!(kb.remove_template(&iri));
        assert!(kb.candidate_templates(sig).is_empty());
        assert_eq!(kb.signature_count(), 0);
        assert_eq!(kb.template_count(), 0);
        assert!(kb.server().len() < triples_before);
        assert!(kb.workloads().is_empty(), "workload tag must be retracted");
        assert!(!kb.remove_template(&iri), "second removal is a no-op");
    }

    #[test]
    fn candidates_are_sorted_and_per_signature() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut iris = Vec::new();
        for i in 0..3 {
            let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(i));
            tpl.source_workload = "w".into();
            kb.insert(&tpl);
            iris.push(vocab::template_iri(&tpl.id).str_value().to_string());
        }
        let sig = galo_qgm::segment_signature(&plan, plan.root()).hash;
        let candidates = kb.candidate_templates(sig);
        assert_eq!(candidates.len(), 3);
        let mut sorted = candidates.clone();
        sorted.sort();
        assert_eq!(candidates, sorted, "candidate order must be deterministic");
        for iri in &iris {
            assert!(candidates.contains(iri));
        }
    }

    #[test]
    fn cardinality_precheck_filters_candidates_without_probing() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        // One template seeded from the plan's own values, one displaced
        // far out of range. Both share the structural signature.
        let near = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(1));
        let mut far = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(2));
        for p in &mut far.pops {
            p.cardinality = Stat::from_range(1e12, 2e12);
        }
        kb.insert(&near);
        kb.insert(&far);
        let sig = KnowledgeBase::template_signature(&near);
        assert_eq!(kb.candidate_templates(sig).len(), 2);

        let checks: Vec<PopCheck> = plan
            .subtree(plan.root())
            .iter()
            .map(|&pid| {
                let pop = plan.pop(pid);
                PopCheck::card(pop.kind.name(), pop.est_card)
            })
            .collect();
        // Exact bounds admit only the near template.
        let admitted = kb.candidate_templates_admitting(sig, &AdmissionQuery::exact(&checks));
        assert_eq!(
            admitted,
            vec![vocab::template_iri(&near.id).str_value().to_string()]
        );
        // A full cursor sweep classifies the far template as a
        // cardinality reject and examines both index entries; a near-miss
        // factor large enough to bridge the displacement counts it as a
        // near miss and still admits only the near template.
        let wide = AdmissionQuery {
            near_factor: 1e13,
            ..AdmissionQuery::exact(&checks)
        };
        let mut stats = AdmissionStats::default();
        let mut after: Option<String> = None;
        while let Some(iri) = kb.next_candidate_admitting(sig, &wide, after.as_deref(), &mut stats)
        {
            after = Some(iri);
        }
        assert_eq!(after.as_deref(), admitted.last().map(String::as_str));
        assert_eq!(stats.considered, 2);
        assert_eq!(stats.rejects_card, 1);
        assert_eq!(stats.rejects_scan, 0);
        assert_eq!(stats.near_misses, 1);
        // The pre-check survives an export/import round-trip (reindex
        // reconstructs the ranges from RDF).
        let kb2 = KnowledgeBase::new();
        kb2.import(&kb.export()).unwrap();
        assert_eq!(
            kb2.candidate_templates_admitting(sig, &AdmissionQuery::exact(&checks)),
            admitted
        );
    }

    #[test]
    fn scan_stat_prechecks_prune_candidates() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let near = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(1));
        // A template whose cardinalities admit the plan but whose scan
        // stats are displaced: only the scan-stat conjunction rejects it.
        let mut scan_far = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(2));
        for p in &mut scan_far.pops {
            if let Some(scan) = &mut p.scan {
                scan.row_size = Stat::from_range(1e9, 2e9);
            }
        }
        kb.insert(&near);
        kb.insert(&scan_far);

        let sig = KnowledgeBase::template_signature(&near);
        let checks: Vec<PopCheck> = plan
            .subtree(plan.root())
            .iter()
            .map(|&pid| {
                let pop = plan.pop(pid);
                let scan = pop.kind.scan_table().map(|t| {
                    let stats = db.belief.table(plan.query.tables[t].table);
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
            })
            .collect();

        let near_iri = vocab::template_iri(&near.id).str_value().to_string();
        // The scan-displaced template is pruned by the scan conjunction.
        let exact = AdmissionQuery::exact(&checks);
        assert_eq!(
            kb.candidate_templates_admitting(sig, &exact),
            vec![near_iri.clone()]
        );
        // A full cursor sweep examines both entries and attributes the
        // reject to its cause.
        let mut stats = AdmissionStats::default();
        let first = kb.next_candidate_admitting(sig, &exact, None, &mut stats);
        assert_eq!(first.as_deref(), Some(near_iri.as_str()));
        let _ = kb.next_candidate_admitting(sig, &exact, Some(&near_iri), &mut stats);
        assert_eq!(stats.considered, 2);
        assert_eq!(stats.rejects_card, 0);
        assert_eq!(stats.rejects_scan, 1, "scan_far rejected on scan stats");

        // The scan bounds survive export/import: reindex reads them back.
        let kb2 = KnowledgeBase::new();
        kb2.import(&kb.export()).unwrap();
        assert_eq!(
            kb2.candidate_templates_admitting(sig, &exact),
            vec![near_iri]
        );
    }

    #[test]
    fn matching_survives_template_removal() {
        // remove_template must leave the remaining templates matchable
        // (index and triples stay consistent under churn).
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut keep = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(1));
        keep.source_workload = "w".into();
        let mut drop = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(2));
        drop.source_workload = "w".into();
        kb.insert(&keep);
        kb.insert(&drop);
        assert_eq!(kb.template_count(), 2);
        kb.remove_template(vocab::template_iri(&drop.id).str_value());
        assert_eq!(kb.template_count(), 1);
        let report = crate::matching::match_plan(&db, &kb, &plan, &Default::default());
        assert_eq!(report.rewrites.len(), 1);
        assert_eq!(
            report.rewrites[0].template_iri,
            vocab::template_iri(&keep.id).str_value()
        );
    }

    #[test]
    fn epoch_bump_audit_every_mutator_advances_once_per_logical_change() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(1));
        tpl.source_workload = "w".into();
        let iri = vocab::template_iri(&tpl.id).str_value().to_string();

        // One generation = +2 (odd while in flight, next even when
        // settled); the counter is even whenever the KB is at rest.
        const GEN: u64 = 2;

        // insert_batch: one generation per publish that adds anything…
        let e = kb.epoch();
        assert_eq!(e % 2, 0, "epoch must be even at rest");
        kb.insert_batch(std::slice::from_ref(&tpl));
        assert_eq!(kb.epoch(), e + GEN, "insert_batch advances once");
        // …and none for an idempotent republish (set-semantics no-op).
        kb.insert_batch(std::slice::from_ref(&tpl));
        assert_eq!(kb.epoch(), e + GEN, "idempotent republish must not advance");

        // reindex: always one generation (it may be cleaning up after a
        // raw endpoint mutation the counter never saw).
        kb.reindex();
        assert_eq!(kb.epoch(), e + 2 * GEN, "reindex advances once");

        // Reads never advance.
        let _ = kb.template_count();
        let _ = kb.candidate_templates(KnowledgeBase::template_signature(&tpl));
        let _ = kb.guideline_of(&iri);
        let dump = kb.export();
        assert_eq!(kb.epoch(), e + 2 * GEN, "reads must not advance");

        // import: one generation — the replace and the index rebuild are
        // one commit.
        kb.import(&dump).unwrap();
        assert_eq!(kb.epoch(), e + 3 * GEN, "import advances once");

        // remove_template: one generation when something was retracted…
        assert!(kb.remove_template(&iri));
        assert_eq!(kb.epoch(), e + 4 * GEN, "remove_template advances once");
        // …and none for a no-op removal.
        assert!(!kb.remove_template(&iri));
        assert_eq!(kb.epoch(), e + 4 * GEN, "no-op removal must not advance");

        // clear: one generation.
        kb.insert(&tpl);
        let e = kb.epoch();
        kb.clear();
        assert_eq!(kb.epoch(), e + GEN, "clear advances once");
        assert_eq!(kb.epoch() % 2, 0, "epoch must be even at rest");
        assert_eq!(kb.template_count(), 0);
        assert_eq!(kb.signature_count(), 0);
        kb.clear();
        assert_eq!(kb.epoch(), e + GEN, "nothing to clear, no advance");

        // apply_block_owned (a decoded publish handed over): one
        // generation, and none for the same block again.
        let block = || KnowledgeBase::templates_block(std::slice::from_ref(&tpl));
        assert!(kb.apply_block_owned(block()) > 0);
        assert_eq!(kb.epoch(), e + 2 * GEN, "apply_block_owned advances once");
        assert_eq!(kb.apply_block_owned(block()), 0);
        assert_eq!(kb.epoch(), e + 2 * GEN, "a block that changes nothing");

        // The whole audit is monotonic by construction: every logical
        // change advanced the counter, nothing ever rewound it below a
        // previously observed rest value.
    }

    /// Every generation the one commit makes is journaled under the epoch
    /// it produces: a publish its new row, a retraction the old one, a
    /// refinement both; a clear, an import, a reindex and a batch over the
    /// template cap opaque. A raw endpoint write leaves a hole, and the
    /// journal reaches back [`JOURNAL_DEPTH`](crate::sigindex::JOURNAL_DEPTH)
    /// generations.
    #[test]
    fn the_change_journal_explains_every_generation() {
        use crate::sigindex::{Journaled, JOURNAL_DEPTH};
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let template = |id: String| {
            let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, id);
            tpl.source_workload = "w".into();
            tpl
        };
        let tpl = template("journaled".into());
        let iri = vocab::template_iri(&tpl.id).str_value().to_string();
        let sig = KnowledgeBase::template_signature(&tpl);
        let journal = kb.journal();
        let now = || journal.at(kb.epoch());
        let rows_now = || match now() {
            Journaled::Rows(rows) => rows,
            other => panic!("a generation of rows, not {other:?}"),
        };
        let signatures = |rows: &[(u64, Vec<Range>)]| rows.iter().map(|r| r.0).collect::<Vec<_>>();

        kb.insert(&tpl);
        let published = rows_now();
        assert_eq!(signatures(&published), [sig], "a publish: the new row");
        let e = kb.epoch();
        kb.insert(&tpl);
        assert_eq!(kb.epoch(), e, "an idempotent republish is no generation");

        let observations = crate::transform::segment_pop_checks(&db, &plan, plan.root())
            .iter()
            .map(|c| PopObservation {
                pop_type: c.pop_type.to_string(),
                cards: vec![(c.est_card * 3.0, f64::INFINITY)],
                scan: c.scan,
                scan_band: f64::INFINITY,
            })
            .collect();
        let refinement = TemplateRefinement {
            observations,
            narrows: vec![],
        };
        assert!(kb.refine_template_stats(&iri, &refinement).changed);
        let refined = rows_now();
        assert_eq!(signatures(&refined), [sig, sig]);
        assert_eq!(refined[0], published[0], "a refinement: the old row…");
        assert_ne!(refined[1], refined[0], "…then the new one");

        assert!(kb.remove_template(&iri));
        assert_eq!(
            rows_now(),
            [refined[1].clone()],
            "a retraction: the old row"
        );

        let batch: Vec<Template> = (0..=JOURNAL_TEMPLATES)
            .map(|i| template(format!("batch{i}")))
            .collect();
        kb.insert_batch(&batch[..JOURNAL_TEMPLATES]);
        assert_eq!(rows_now().len(), JOURNAL_TEMPLATES, "a batch at the cap");
        kb.insert_batch(&[
            batch[JOURNAL_TEMPLATES].clone(),
            template("one-more".into()),
        ]);
        assert_eq!(rows_now().len(), 2);
        let over: Vec<Template> = (0..=JOURNAL_TEMPLATES)
            .map(|i| template(format!("over{i}")))
            .collect();
        kb.insert_batch(&over);
        assert_eq!(now(), Journaled::Opaque, "a batch over the cap");

        kb.reindex();
        assert_eq!(now(), Journaled::Opaque, "a rebuild");
        kb.import(&kb.export()).unwrap();
        assert_eq!(now(), Journaled::Opaque, "an import");
        kb.clear();
        assert_eq!(now(), Journaled::Opaque, "a clear");

        kb.insert(&template("before-the-hole".into()));
        let before = kb.epoch();
        let raw = (Term::iri("urn:raw"), Term::iri("urn:note"), Term::lit("x"));
        kb.server().insert_triples([raw]);
        assert_eq!(now(), Journaled::Missing, "a raw write: nobody's");
        let hole = kb.epoch();
        kb.insert(&template("after-the-hole".into()));
        assert!(
            !journal.clears(before, hole + 2, |_| false),
            "across the hole"
        );
        assert!(journal.clears(hole, hole + 2, |_| false), "after it");

        let base = kb.epoch();
        for i in 0..JOURNAL_DEPTH {
            kb.insert(&template(format!("deep{i:02}")));
        }
        let far = base + 2 * JOURNAL_DEPTH as u64;
        assert_eq!(kb.epoch(), far);
        assert!(journal.clears(base, far, |_| false), "the whole depth");
        assert!(!journal.clears(base, far, |row| row.signature() == sig));
        kb.insert(&template("one-too-many".into()));
        assert!(!journal.clears(base, far + 2, |_| false), "past the depth");
        assert!(journal.clears(base + 2, far + 2, |_| false));
    }

    thread_local! {
        /// Whole-index rebuilds run on this thread.
        pub(super) static REBUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The sizing run: a 2-shard durable knowledge base, 1,000 templates
    /// abstracted from the TPC-DS workload's plans (~176 statements
    /// each). A publish, a retraction and a refinement are one
    /// write-ahead-log commit each (the retraction used to be ~176, one a
    /// statement, the refinement ~88), and a retraction applied as a
    /// block re-reads one template instead of rebuilding the index (which
    /// at 800 templates was 60 of its 67 ms).
    #[test]
    fn a_publish_a_retraction_and_a_refinement_are_one_commit_each() {
        let w = galo_workloads::tpcds::workload();
        let optimizer = Optimizer::new(&w.db);
        let plans: Vec<Qgm> = w
            .queries
            .iter()
            .filter_map(|q| optimizer.optimize(q).ok())
            .collect();
        let templates: Vec<Template> = (0..1_000)
            .map(|i| {
                let plan = &plans[i % plans.len()];
                let g = GuidelineDoc::new(vec![guideline_from_plan(plan, plan.root()).unwrap()]);
                let mut tpl = abstract_plan(&w.db, plan, plan.root(), &g, format!("sz{i:04}"));
                tpl.source_workload = "tpcds".into();
                tpl
            })
            .collect();
        let iri_of = |i: usize| vocab::template_iri(&templates[i].id);
        let dir = galo_rdf::ScratchDir::new("kb-sizing");
        let kb = crate::KbBuilder::new()
            .durable_dir(dir.path())
            .shards(2)
            .build_kb()
            .unwrap();
        // (commits, bytes) journaled so far, over both shards.
        let journaled = || {
            let shards = kb.storage_pressures();
            let commits: u64 = shards.iter().map(|p| p.wal_records).sum();
            (commits, shards.iter().map(|p| p.wal_bytes).sum::<u64>())
        };
        let per_op = |what: &str, n: u64, (commits, bytes): (u64, u64)| {
            let (c, b) = journaled();
            println!(
                "{what}: {} commits and {} bytes an op",
                (c - commits) as f64 / n as f64,
                (b - bytes) / n
            );
            assert_eq!(c - commits, n, "{what}: one commit each");
        };

        let start = journaled();
        let statements: usize = templates
            .iter()
            .map(|tpl| kb.insert_batch(std::slice::from_ref(tpl)))
            .sum();
        println!("{} statements a template", statements / templates.len());
        per_op("publish", 1_000, start);

        let start = journaled();
        for i in 0..200 {
            assert!(kb.remove_template(iri_of(i).str_value()));
        }
        per_op("retraction", 200, start);
        assert_eq!(kb.template_count(), 800);

        let start = journaled();
        for i in 200..250 {
            let plan = &plans[i % plans.len()];
            let observations = crate::transform::segment_pop_checks(&w.db, plan, plan.root())
                .iter()
                .map(|c| PopObservation {
                    pop_type: c.pop_type.to_string(),
                    cards: vec![(c.est_card * 3.0, f64::INFINITY)],
                    scan: c.scan,
                    scan_band: f64::INFINITY,
                })
                .collect();
            let refinement = TemplateRefinement {
                observations,
                narrows: vec![],
            };
            let outcome = kb.refine_template_stats(iri_of(i).str_value(), &refinement);
            assert!(outcome.changed);
        }
        per_op("refinement", 50, start);

        // At 800 templates, retractions replayed as blocks — what the
        // feed carries to a replica.
        let start = journaled();
        let rebuilds = REBUILDS.with(|n| n.get());
        let mut fastest = std::time::Duration::MAX;
        for i in 250..255 {
            kb.insert(&templates[i - 250]); // keep it at 800
            let removes = kb.retraction_of(iri_of(i).str_value());
            let block = QuadBlock::of_records(&removes);
            let t0 = std::time::Instant::now();
            assert_eq!(kb.apply_block(&block), removes.len());
            fastest = fastest.min(t0.elapsed());
            assert_eq!(kb.template_count(), 800);
        }
        per_op("publish or block retraction", 10, start);
        assert_eq!(
            REBUILDS.with(|n| n.get()),
            rebuilds,
            "no whole-index rebuild"
        );
        println!("a retraction applied as a block at 800 templates: {fastest:?}");
        // Debug builds are several times slower; the bound is the
        // optimized build's (`cargo test --release`).
        if !cfg!(debug_assertions) {
            assert!(fastest < std::time::Duration::from_millis(1), "{fastest:?}");
        }
    }

    #[test]
    fn fingerprints_listed() {
        let (db, plan) = setup();
        let kb = KnowledgeBase::new();
        let g = GuidelineDoc::new(vec![guideline_from_plan(&plan, plan.root()).unwrap()]);
        let mut tpl = abstract_plan(&db, &plan, plan.root(), &g, kb.fresh_id(4));
        tpl.source_workload = "w".into();
        kb.insert(&tpl);
        let fps = kb.fingerprints();
        assert_eq!(fps.len(), 1);
        assert_eq!(fps[0].1, tpl.fingerprint);
    }
}
