//! The signature index, its admission pre-check and the match itself.
//!
//! Beside the triple store the knowledge base keeps, per structural
//! [`shape_signature`], the templates of that shape with everything the
//! paper's Figure-6 probe reads of them: operator types, stored bounds,
//! stream wiring and canonical table labels. The matcher steps through a
//! signature's templates in ascending IRI order with one cursor
//! ([`SigIndex::next_admitting`]); first-match-wins and the claimed-set
//! semantics of `match_compiled` rest on that order, and every other
//! reader of a bucket is defined as pulls of that cursor. A row the cursor
//! admits is then matched against the segment on the row alone
//! ([`SigIndex::next_checked`]): no SPARQL is built, prepared or evaluated
//! on the serve path.
//!
//! # Layout
//!
//! Every pull goes past hundreds of rows to admit a handful (99.98 % are
//! rejected on `serve_cold`), so what matters is the price of rejecting
//! them. A [`Bucket`] is columnar: rows sorted by IRI, operator types,
//! workloads and canonical table labels interned to small ids that a
//! query resolves once per pull, each row's operators packed in one slice
//! (type, exact bounds, which bounds were stored, label), and one
//! **cardinality hull** per (operator type, row): `[min lo, max hi]` over
//! the row's operators of that type, the empty range where the row has
//! none. On `serve_cold` 99.9 % of the rows a pull goes past are
//! rejected on their first hull test, and most of them sit in long runs
//! of such rows. So per operator type a **hull summary** folds the hull
//! column over fixed blocks of 16 rows, and again over 256 and 4,096
//! rows ([`LEVELS`]): each cell is `[min lo, max hi]` of its rows' hulls.
//! The walk tests a block's cell, coarsest first, before its rows, and
//! passes every block whose cell fails the first check in one step; it
//! reads rows only inside leaf blocks whose cells admit. Only an
//! admitted row is read further: its join count and its stream edges,
//! each an operator pair in row-local indices with the role bits its
//! statements give it (`hasOutputStream` child → parent,
//! `hasOuterInputStream` / `hasInnerInputStream` parent → child).
//!
//! # What a match is
//!
//! The Figure-6 probe restated over one row. Take the segment's operators
//! in pre-order and assign each a template operator of the row so that:
//!
//! 1. the types are equal;
//! 2. the operator's stored cardinality bounds admit the estimate — both
//!    bounds stored, `lo ≤ v ≤ hi` — and, for a scan, its row-size,
//!    fpages and base-cardinality bounds admit the table's values the
//!    same way and it carries a canonical table label;
//! 3. every input edge of the segment is a template edge with the same
//!    role: the child's image states `hasOutputStream` to the parent's
//!    image, and under a join the parent's image states
//!    `hasOuterInputStream` (first input) or `hasInnerInputStream` (the
//!    other) to the child's;
//! 4. same-typed segment operators go to distinct template operators;
//! 5. and the row's join count equals the segment's.
//!
//! Among all assignments that pass, the winner's labels are the smallest
//! label vector in scan pre-order — the rule the oracle's
//! `winning_solution` applies to the probe's solution rows. A row no
//! assignment passes reports the first condition it fails, in the order
//! join count, type or range (some segment operator has no template
//! operator passing 1–2), edge or role (some segment edge has no template
//! edge of its role between operators passing 1–2), assignment (no one
//! assignment passes 3–4 at once): [`MatchMiss`].
//!
//! The conditions are the probe's, so a template the system's own
//! mutators wrote matches here exactly when its probe has a solution, with
//! the same labels (`native_match_equals_the_probe_oracle` pins it). For
//! facts no mutator writes, the row reads them as follows: of several
//! lower (higher) bounds the least (greatest) counts — which is the
//! probe's "some bound admits" — and a non-numeric bound is no bound; of
//! several labels on one operator the least counts, which the least
//! label vector picks anyway; of several types the least counts, where
//! the probe would try each.
//!
//! # Why the hull is exact
//!
//! A check is admitted by a row iff *some* same-typed operator's
//! cardinality range admits the value (and, for scans, its scan-stat
//! ranges do too). An operator that admits has `lo ≤ v ≤ hi`, so the
//! hull over the operators of its type does as well: a hull that
//! fails proves every one of them fails. The walk runs checks in order
//! and stops at the first failure, so a failed hull on check *k* after
//! checks 0..*k*−1 passed in full *is* "no same-typed operator's
//! cardinality envelope admits the value" — the reject the per-operator
//! loop would have reported, with the same reason. The hull is built from
//! the very ranges the loop reads.
//!
//! The summary is the same step one level up. A cell is the hull of its
//! rows' hulls of check 0's type, so a row hull that admits check 0 makes
//! the cell admit it: a cell that fails proves every row under it fails
//! its hull test on check 0, the first test the walk makes of a row. Each
//! of those rows is the card reject the row walk would count, so a
//! failed cell adds its row count to `considered` and `rejects_card`, as
//! many single steps would. With near-miss tracking on, a cell is passed
//! only when check 0 widened by the near-miss factor (`lo ≤ v·f`,
//! `hi ≥ v/f`) fails it too; then no row under it can be a near miss.
//! Rows keep their IRI order, so the first admitted row, and with it the
//! cursor, the claimed set and the journal's re-validation, are the row
//! walk's. A check 0 of a type the
//! bucket has never seen fails every row: the rest of the bucket is
//! passed in one step, with the same counts.
//!
//! # Where entries come from
//!
//! One place: the [`IndexFacts`] gather, fed one default-graph statement
//! at a time — the statements of a block that just took effect, one
//! template's re-read from the store, or the whole store's for a rebuild
//! (the knowledge base's module docs say which, when). It is the only
//! reader of the template vocabulary on the index side and the only
//! writer of rows, so the fallback rules (stored bounds, else the
//! envelope of a valid sketch, else unbounded for admission; no stored
//! bounds → no match) and the reading of irregular facts above are stated
//! once.
//!
//! Writing and removing rows shifts the rows after them, and with them
//! every summary block from there on. So a bucket remembers the lowest
//! position a change touched, and [`SigIndex::settle`] repairs its
//! summaries from that position, once, at the end of each index change:
//! the knowledge base's upkeep of one block, its rebuild from the store
//! (O(rows), like the rebuild itself), and the journal's bucket of one.
//! The summary vectors are repaired in place, not reallocated.
//!
//! # The change journal
//!
//! Beside the index, the knowledge base keeps a [`ChangeJournal`]: per
//! epoch generation of the last [`JOURNAL_DEPTH`], the rows of the
//! templates that generation changed — each row's cells, shared with the
//! index rather than copied — or [`Generation::Opaque`] when it cannot say
//! which. A cached match outcome whose stamp the epoch has passed asks the
//! journal whether any of those rows passes the admission query of one of
//! its plan's segments: the row becomes a [`Bucket`] of one and the same
//! [`Bucket::next_admitting`] the cursor runs walks it. When none does, no
//! pull the matcher would make has changed and the outcome still holds.

use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, PoisonError, RwLock};

use galo_qgm::shape_signature;
use galo_rdf::Term;
use galo_stats::{Range, StatSketch};

use crate::vocab::{self, STAT_FAMILIES};

/// Scan-property values of one segment operator, as the Figure-6 probe
/// tests them (the belief stats of the scanned table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanCheck {
    pub row_size: f64,
    pub fpages: f64,
    pub base_cardinality: f64,
}

/// One segment operator's admission check: operator type, estimated
/// cardinality, and — for scans — the scan-table belief stats. The
/// signature index tests each check against the stored envelopes before
/// any probe is compiled or evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopCheck {
    pub pop_type: &'static str,
    pub est_card: f64,
    pub scan: Option<ScanCheck>,
}

impl PopCheck {
    /// A cardinality-only check (non-scan operators).
    pub fn card(pop_type: &'static str, est_card: f64) -> Self {
        PopCheck {
            pop_type,
            est_card,
            scan: None,
        }
    }
}

/// Admission pre-check counters, accumulated per cursor pull and folded
/// into [`MatchReport`](crate::matching::MatchReport): how many index
/// entries the walk went past, why the rejected ones were rejected, and
/// how much it read to tell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionStats {
    /// Index entries the walk went past (admitted or rejected), whether
    /// it tested them one by one or skipped them with a block of the hull
    /// summary.
    pub considered: usize,
    /// Entries rejected because no same-typed operator's cardinality
    /// envelope admitted a check value.
    pub rejects_card: usize,
    /// Entries whose cardinality envelopes admitted every check but whose
    /// scan-stat envelopes (row size / fpages / base cardinality) did not.
    pub rejects_scan: usize,
    /// Rejected entries that would have been admitted with every range
    /// widened by the query's `near_factor` — the feedback loop's
    /// candidates for near-miss widening. Always 0 while `near_factor`
    /// is 1.
    pub near_misses: usize,
    /// The work behind `considered`: rows the walk tested one by one plus
    /// hull-summary cells it tested. The rows of a skipped block are
    /// considered but not examined, so on a bucket that mostly rejects
    /// this stays far below `considered`.
    pub examined: usize,
}

/// One segment's admission query against the signature index: the checks
/// plus the matcher's near-miss factor. Admission tests the exact stored
/// bounds.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionQuery<'a> {
    pub checks: &'a [PopCheck],
    /// Near-miss detection factor (`1.0` disables it): rejected entries
    /// are re-tested with every range widened by it (`lo ≤ v·f`,
    /// `hi ≥ v/f`) and the ones that would pass are counted in
    /// [`AdmissionStats::near_misses`]. Detection never changes which
    /// candidates are admitted.
    pub near_factor: f64,
}

impl<'a> AdmissionQuery<'a> {
    /// The query without near-miss tracking.
    pub fn exact(checks: &'a [PopCheck]) -> Self {
        AdmissionQuery {
            checks,
            near_factor: 1.0,
        }
    }
}

/// Why an admitted candidate did not match a segment: the first condition
/// of the row-local assignment it failed (module docs, "What a match
/// is"), or — found after the assignment, by the matcher — a guideline
/// that names a label the match did not bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchMiss {
    /// The template's join count is not the segment's.
    JoinCount,
    /// Some segment operator has no template operator of its type whose
    /// stored bounds admit its values (and, for a scan, that carries a
    /// canonical table label).
    TypeOrRange,
    /// Some segment edge has no template edge of its role between
    /// operators that pass their types and ranges.
    EdgeOrRole,
    /// Every condition holds operator by operator and edge by edge, but no
    /// one-to-one assignment meets them all at once.
    Assignment,
    /// The row matched, but the template's guideline references a
    /// canonical label the match did not bind (or the store holds no
    /// guideline for it to instantiate).
    UnboundLabel,
}

/// `hasOutputStream`: the child states it, naming its parent.
pub(crate) const OUTPUT: u8 = 1;
/// `hasOuterInputStream`: a join states it, naming its first input.
pub(crate) const OUTER: u8 = 2;
/// `hasInnerInputStream`: a join states it, naming its other input.
pub(crate) const INNER: u8 = 4;

/// The stream statements the Figure-6 probe demands between a parent and
/// its `input`-th child: the output stream, and under a join the role.
pub(crate) fn input_roles(parent_is_join: bool, input: usize) -> u8 {
    match (parent_is_join, input) {
        (false, _) => OUTPUT,
        (true, 0) => OUTPUT | OUTER,
        (true, _) => OUTPUT | INNER,
    }
}

/// An operator's input edge: how far back in pre-order its parent sits
/// (the parent always precedes it) and the role bits the template edge
/// between their images must carry. A distance rather than a position, so
/// a segment's wires are a slice of its plan's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wire {
    pub(crate) back: u32,
    pub(crate) roles: u8,
}

impl Wire {
    /// The pre-order position of the parent of the operator at `at`.
    pub(crate) fn parent(self, at: usize) -> usize {
        at - self.back as usize
    }
}

/// What the row-local assignment reads of a segment beside its admission
/// checks (which give each operator's type, values and scan-ness, in
/// pre-order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentShape<'a> {
    pub(crate) joins: usize,
    /// Per operator, pre-order: its edge to its parent. Entry 0, the
    /// segment's root, is never read: its parent lies outside the segment.
    pub(crate) wires: &'a [Wire],
}

/// One template operator on its way into a row.
struct PopEntry<'a> {
    pop_type: &'a str,
    /// Its canonical table label, if it states one.
    label: Option<&'a str>,
    /// Bit `f` set when family `f` ([`STAT_FAMILIES`] order) has both
    /// bounds stored: only then can the probe's range test pass.
    bounded: u8,
    cardinality: Range,
    /// Row size, fpages, base cardinality ([`STAT_FAMILIES`] order);
    /// `None` for an operator stored without scan stats, which is then
    /// unbounded on them: never reject what the probe might accept.
    scan: Option<[Range; 3]>,
}

/// One template on its way into a row: its join count, its operators in
/// ascending IRI order, and the stream edges between them.
struct RowEntry<'a> {
    joins: usize,
    pops: Vec<PopEntry<'a>>,
    edges: Vec<Edge>,
}

/// A stream edge between two operators of a row, in row-local indices,
/// with the role bits ([`OUTPUT`], [`OUTER`], [`INNER`]) of every
/// statement linking the pair.
#[derive(Debug, Clone, Copy)]
struct Edge {
    child: u32,
    parent: u32,
    roles: u8,
}

/// What the triples say about one operator's stat of one family.
#[derive(Default)]
struct StatFacts {
    lo: Option<f64>,
    hi: Option<f64>,
    sketch: Option<StatSketch>,
}

/// Keep the least of the values stated for a key: the reading of several
/// statements that should have been one (module docs).
fn keep_least<'a>(facts: &mut HashMap<&'a str, &'a str>, key: &'a str, value: &'a str) {
    let kept = facts.entry(key).or_insert(value);
    if value < *kept {
        *kept = value;
    }
}

impl StatFacts {
    /// Both bounds stored.
    fn bounded(&self) -> bool {
        self.lo.is_some() && self.hi.is_some()
    }

    /// The range admission tests: the stored bounds, a missing one
    /// leaving its side open; with no bound stored, the envelope of a
    /// valid sketch; with neither, unbounded — the pre-check must never
    /// reject what the probe would accept.
    fn range(&self) -> Range {
        match (self.lo, self.hi, &self.sketch) {
            (None, None, Some(sketch)) => sketch.envelope(),
            (lo, hi, _) => Range::from_bounds(lo, hi),
        }
    }

    /// The stat as feedback refines it: the sketch literal when valid,
    /// else the exact bounds when both are stored, else `None` — the
    /// operator does not carry this stat, an unbounded envelope that
    /// feedback must never turn into a bounded one.
    fn refinable(&self) -> Option<StatSketch> {
        let bounds = || Some(StatSketch::from_range(self.lo?, self.hi?));
        self.sketch.clone().or_else(bounds)
    }
}

/// The template facts the signature index is derived from, keyed by
/// subject IRI and gathered one default-graph triple at a time — from a
/// block's statements or from store scans. The one reader of the template
/// vocabulary on the index side, and the one writer of rows.
#[derive(Default)]
pub(crate) struct IndexFacts<'a> {
    join_counts: HashMap<&'a str, usize>,
    sources: HashMap<&'a str, &'a str>,
    pop_template: HashMap<&'a str, &'a str>,
    pop_types: HashMap<&'a str, &'a str>,
    /// Operator IRI -> its canonical table label.
    labels: HashMap<&'a str, &'a str>,
    /// Stream statements as `(subject, object, role bit)`: [`OUTPUT`]
    /// runs child → parent, [`OUTER`] and [`INNER`] parent → child.
    streams: Vec<(&'a str, &'a str, u8)>,
    /// Per [`STAT_FAMILIES`] slot: operator IRI -> its stored stat.
    stats: [HashMap<&'a str, StatFacts>; STAT_FAMILIES.len()],
}

/// The stream predicates and the role bit each states.
const STREAMS: [(&str, u8); 3] = [
    (vocab::HAS_OUTPUT_STREAM, OUTPUT),
    (vocab::HAS_OUTER_INPUT_STREAM, OUTER),
    (vocab::HAS_INNER_INPUT_STREAM, INNER),
];

/// What a statement states to the gather, by its predicate: the reading
/// of a property's local name, made once per predicate rather than once
/// per statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fact {
    JoinCount,
    SourceWorkload,
    InTemplate,
    PopType,
    CanonicalTabid,
    /// A stream statement, with the role bit it states.
    Stream(u8),
    /// Of [`STAT_FAMILIES`] slot `family`: the lower bound, the higher
    /// bound or the sketch (`part` 0, 1, 2).
    Stat {
        family: usize,
        part: usize,
    },
}

impl Fact {
    /// Every predicate the gather reads — its local name under
    /// [`vocab::PROP_NS`] — with the fact it states.
    pub(crate) fn all() -> impl Iterator<Item = (&'static str, Fact)> {
        let named = [
            (vocab::HAS_JOIN_COUNT, Fact::JoinCount),
            (vocab::HAS_SOURCE_WORKLOAD, Fact::SourceWorkload),
            (vocab::IN_TEMPLATE, Fact::InTemplate),
            (vocab::HAS_POP_TYPE, Fact::PopType),
            (vocab::HAS_CANONICAL_TABID, Fact::CanonicalTabid),
        ];
        let streams = STREAMS
            .iter()
            .map(|&(name, role)| (name, Fact::Stream(role)));
        let stats = STAT_FAMILIES.iter().enumerate();
        let stats = stats.flat_map(|(family, &(lo, hi, sk))| {
            let parts = [lo, hi, sk].into_iter().enumerate();
            parts.map(move |(part, name)| (name, Fact::Stat { family, part }))
        });
        named.into_iter().chain(streams).chain(stats)
    }

    /// The fact a property states, from its local name; `None` for one
    /// the index does not read.
    pub(crate) fn of(local: &str) -> Option<Fact> {
        Self::all()
            .find(|&(name, _)| name == local)
            .map(|(_, fact)| fact)
    }
}

impl<'a> IndexFacts<'a> {
    /// Record one triple, its predicate read as `fact`. Non-numeric
    /// bounds and join counts, corrupt sketch literals (checksum
    /// mismatch) and stream statements naming no IRI are dropped as if
    /// the triple were absent. Of several types, labels, lower or higher
    /// bounds the least (the greatest higher bound) is kept, so the
    /// gather reads the same row whatever order the statements come in.
    pub(crate) fn add(&mut self, subj: &'a str, fact: Fact, obj: &'a Term) {
        let num = || obj.as_literal().and_then(|l| l.as_number());
        match fact {
            Fact::JoinCount => {
                if let Some(jc) = num() {
                    self.join_counts.insert(subj, jc as usize);
                }
            }
            Fact::SourceWorkload => {
                self.sources.insert(subj, obj.str_value());
            }
            Fact::InTemplate => {
                self.pop_template.insert(subj, obj.str_value());
            }
            Fact::PopType => keep_least(&mut self.pop_types, subj, obj.str_value()),
            Fact::CanonicalTabid => keep_least(&mut self.labels, subj, obj.str_value()),
            Fact::Stream(role) => {
                if let Some(object) = obj.as_iri() {
                    self.streams.push((subj, object, role));
                }
            }
            Fact::Stat { family, part: 0 } => {
                if let Some(v) = num() {
                    let kept = &mut self.stats[family].entry(subj).or_default().lo;
                    *kept = Some(kept.map_or(v, |k| k.min(v)));
                }
            }
            Fact::Stat { family, part: 1 } => {
                if let Some(v) = num() {
                    let kept = &mut self.stats[family].entry(subj).or_default().hi;
                    *kept = Some(kept.map_or(v, |k| k.max(v)));
                }
            }
            Fact::Stat { family, .. } => {
                if let Some(sketch) = StatSketch::from_hex(obj.str_value()) {
                    self.stats[family].entry(subj).or_default().sketch = Some(sketch);
                }
            }
        }
    }

    /// The gathered operators that carry a type, ascending by IRI: IRI,
    /// type, and per [`STAT_FAMILIES`] slot the stored stat
    /// [as feedback refines it](StatFacts::refinable).
    pub(crate) fn operators(&self) -> Vec<(&'a str, &'a str, [Option<StatSketch>; 4])> {
        let stats_of = |pop| {
            let stat = |stats: &HashMap<&str, StatFacts>| stats.get(pop)?.refinable();
            self.stats.each_ref().map(stat)
        };
        let mut pops: Vec<_> = self
            .pop_types
            .iter()
            .map(|(&pop, &pop_type)| (pop, pop_type, stats_of(pop)))
            .collect();
        pops.sort_unstable_by_key(|&(pop, ..)| pop);
        pops
    }

    /// The subjects whose gathered facts are an edit of a stored template
    /// rather than a whole one: an operator mentioned anywhere without
    /// its template link, its type or its template's join count among the
    /// facts, or a template's workload without its join count. Only the
    /// store sees the whole picture of those. (A subject may be named
    /// more than once.)
    pub(crate) fn partial(&self) -> impl Iterator<Item = &'a str> + '_ {
        let pops = self
            .pop_template
            .keys()
            .chain(self.pop_types.keys())
            .chain(self.labels.keys())
            .chain(self.streams.iter().map(|(subject, ..)| subject))
            .chain(self.stats.iter().flat_map(|stats| stats.keys()))
            .filter(|&pop| {
                !(self.pop_types.contains_key(pop)
                    && self
                        .pop_template
                        .get(pop)
                        .is_some_and(|tpl| self.join_counts.contains_key(tpl)))
            });
        let templates = self
            .sources
            .keys()
            .filter(|&tpl| !self.join_counts.contains_key(tpl));
        pops.chain(templates).copied()
    }

    /// Insert (or overwrite) one index row per template that has a join
    /// count and that `wanted` says yes to. Operators are those linked to
    /// it by `inTemplate` that also carry a type, in ascending IRI order;
    /// its edges are the stream statements between two of them.
    pub(crate) fn into_entries(self, index: &mut SigIndex, wanted: impl Fn(&str) -> bool) {
        let IndexFacts {
            join_counts,
            sources,
            pop_template,
            pop_types,
            labels,
            streams,
            mut stats,
        } = self;
        // A stream statement is its subject's template's to read.
        let mut streams_of: HashMap<&str, Vec<(&str, &str, u8)>> = HashMap::new();
        for stream in streams {
            if let Some(&tpl) = pop_template.get(stream.0) {
                streams_of.entry(tpl).or_default().push(stream);
            }
        }
        let mut by_tpl: HashMap<&str, Vec<&str>> = HashMap::new();
        for (pop, tpl) in pop_template {
            by_tpl.entry(tpl).or_default().push(pop);
        }
        let mut rows: Vec<(&str, u64, RowEntry<'_>)> = join_counts
            .into_iter()
            .filter(|&(tpl_iri, _)| wanted(tpl_iri))
            .map(|(tpl_iri, joins)| {
                let mut pop_iris = by_tpl.remove(tpl_iri).unwrap_or_default();
                pop_iris.retain(|pop| pop_types.contains_key(pop));
                pop_iris.sort_unstable();
                let pops: Vec<PopEntry<'_>> = pop_iris
                    .iter()
                    .map(|&pop| {
                        let facts = stats.each_mut().map(|stats| stats.remove(pop));
                        let bounded = (0..facts.len())
                            .filter(|&f| facts[f].as_ref().is_some_and(StatFacts::bounded))
                            .fold(0, |bits, f| bits | 1 << f);
                        let [card, scan @ ..] = facts;
                        let has_scan = scan.iter().any(Option::is_some);
                        PopEntry {
                            pop_type: pop_types[pop],
                            label: labels.get(pop).copied(),
                            bounded,
                            cardinality: card.unwrap_or_default().range(),
                            scan: has_scan
                                .then(|| scan.map(|stat| stat.unwrap_or_default().range())),
                        }
                    })
                    .collect();
                let at = |pop: &str| pop_iris.binary_search(&pop).ok().map(|at| at as u32);
                let mut edges: Vec<Edge> = streams_of
                    .remove(tpl_iri)
                    .unwrap_or_default()
                    .into_iter()
                    .filter_map(|(subject, object, roles)| {
                        let (child, parent) = match roles {
                            OUTPUT => (subject, object),
                            _ => (object, subject),
                        };
                        let (child, parent) = (at(child)?, at(parent)?);
                        Some(Edge {
                            child,
                            parent,
                            roles,
                        })
                    })
                    .collect();
                edges.sort_unstable_by_key(|e| (e.child, e.parent));
                edges.dedup_by(|next, kept| {
                    let same = (next.child, next.parent) == (kept.child, kept.parent);
                    if same {
                        kept.roles |= next.roles;
                    }
                    same
                });
                let sig = shape_signature(joins, pops.iter().map(|p| p.pop_type));
                (tpl_iri, sig, RowEntry { joins, pops, edges })
            })
            .collect();
        // Ascending IRI order: a bucket built from nothing (the rebuild)
        // takes every row at its end — sorted once, nothing shifted.
        rows.sort_unstable_by_key(|&(iri, ..)| iri);
        for (iri, sig, row) in rows {
            index.upsert(sig, iri, sources.get(iri).copied().unwrap_or(""), row);
        }
    }
}

/// The range no value falls in: the hull of a type a row has no
/// operator of, and the seed every hull grows from.
const EMPTY: Range = Range {
    lo: f64::INFINITY,
    hi: f64::NEG_INFINITY,
};

/// The id of a name an intern table does not hold: no cell carries it,
/// so an unseen operator type matches no row.
const ABSENT: u32 = u32::MAX;

/// One operator's exact bounds, packed: what the walk reads, and what
/// the assignment reads of it besides.
#[derive(Debug, Clone, Copy)]
struct PopBounds {
    /// Index into [`Bucket::types`].
    ty: u32,
    /// Index into [`Bucket::labels`]; [`ABSENT`] when the operator states
    /// no canonical table label.
    label: u32,
    /// False for an operator indexed without scan stats: a scan check
    /// then passes whatever its values (NaN included), which unbounded
    /// ranges alone would not guarantee.
    scan: bool,
    /// Bit `f` set when `stats[f]` is both stored bounds, not a side left
    /// open: the probe's range test needs both.
    bounded: u8,
    /// Cardinality, row size, fpages, base cardinality
    /// ([`STAT_FAMILIES`] order); the scan slots are unbounded when
    /// `scan` is false.
    stats: [Range; 4],
}

impl PopBounds {
    /// Whether the operator can stand for a segment operator: conditions
    /// 1 and 2 of a match (module docs).
    fn fits(&self, check: &Resolved<'_>) -> bool {
        let families = if check.scan { 4 } else { 1 };
        self.ty == check.ty
            && (!check.scan || self.label != ABSENT)
            && (0..families)
                .all(|f| self.bounded & (1 << f) != 0 && check.stats[f].within(self.stats[f]))
    }
}

/// One check value under a widening factor `m` (1 for the match itself,
/// the near-miss factor for near-miss detection): the two products every
/// range test of it needs, computed once per pull instead of once per
/// operator.
#[derive(Debug, Clone, Copy)]
struct Slack {
    /// `v · m`
    up: f64,
    /// `v / m`
    down: f64,
}

impl Slack {
    fn within(self, b: Range) -> bool {
        b.lo <= self.up && b.hi >= self.down
    }
}

/// A [`PopCheck`] resolved against one bucket under one widening factor.
struct Resolved<'a> {
    ty: u32,
    /// The hull column of `ty`; no rows when the bucket has never seen
    /// the type, so no row can admit the check.
    hulls: &'a [Range],
    scan: bool,
    /// Same slots as [`PopBounds::stats`].
    stats: [Slack; 4],
}

/// Why (or whether) one row passed the admission pre-check.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Admission {
    Admitted,
    RejectedCard,
    RejectedScan,
}

/// The templates of one signature, column by column. Row `r` is the
/// `r`-th smallest template IRI.
///
/// The intern tables and each row's operator slices are shared (`Arc`),
/// so the change journal keeps a row ([`JournalRow`]) without copying
/// it: the journal stays a handful of reference counts a generation, not
/// a second set of long-lived allocations interleaved with the index's.
#[derive(Default)]
struct Bucket {
    /// Interned operator types; a [`PopBounds::ty`] indexes here.
    types: Arc<Vec<String>>,
    /// Interned source workloads; a `workload` cell indexes here.
    workloads: Arc<Vec<String>>,
    /// Interned canonical table labels; a [`PopBounds::label`] indexes
    /// here.
    labels: Arc<Vec<String>>,
    /// Row -> template IRI, ascending.
    iris: Vec<String>,
    /// Row -> source workload (the template's dataset; `""` when it was
    /// stored without one). Read only by [`SigIndex::signatures_of`].
    workload: Vec<u32>,
    /// Row -> join count.
    joins: Vec<usize>,
    /// Type id -> row -> cardinality hull over the row's operators of
    /// that type.
    hulls: Vec<Vec<Range>>,
    /// Type id -> `hulls[ty]` folded over fixed blocks of rows: what lets
    /// the walk pass a whole block on one test.
    summaries: Vec<HullSummary>,
    /// The lowest row position a change since the last
    /// [`settle`](Self::settle) touched: summary cells from the one
    /// covering it on may be out of date. `usize::MAX` when none are.
    stale: usize,
    /// Row -> its operators' exact bounds, packed. One exact-size
    /// allocation per row rather than one vector per bucket: 99.9 % of
    /// rows are rejected on a hull and never read theirs, while a flat
    /// vector would make every publish shift half a bucket's operators.
    ops: Vec<Arc<[PopBounds]>>,
    /// Row -> its stream edges, ordered by (child, parent), one per
    /// linked pair. Read only for an admitted row.
    edges: Vec<Arc<[Edge]>>,
}

/// Id of `name` in an intern table, [`ABSENT`] when it was never interned.
fn lookup(table: &[String], name: &str) -> u32 {
    let at = table.iter().position(|n| n == name);
    at.map_or(ABSENT, |at| at as u32)
}

/// Grow a cardinality hull by one operator's range. `f64::min` / `max`
/// skip a NaN bound; an operator carrying one admits nothing, so the hull
/// owes it nothing.
fn widen_hull(hull: &mut Range, cardinality: Range) {
    hull.lo = hull.lo.min(cardinality.lo);
    hull.hi = hull.hi.max(cardinality.hi);
}

/// Rows per cell at each level of a [`HullSummary`], finest first; a cell
/// is a whole number of cells of the level below.
const LEVELS: [usize; 3] = [16, 256, 4096];

/// One operator type's cardinality hulls folded over fixed blocks of a
/// bucket's rows: `cells[l][b]` is the hull of rows `b·w .. (b+1)·w`
/// where `w = LEVELS[l]` (the last block of a level ends at the bucket's
/// last row).
#[derive(Debug, Clone, Default)]
struct HullSummary {
    cells: [Vec<Range>; LEVELS.len()],
}

impl HullSummary {
    /// Bring the cells up to `hulls` from the ones covering row `from`
    /// on; the cells before them are current. The vectors keep their
    /// allocations.
    fn repair(&mut self, hulls: &[Range], from: usize) {
        let (mut parts, mut part_rows) = (hulls, 1);
        for (cells, &rows) in self.cells.iter_mut().zip(&LEVELS) {
            fold(cells, parts, rows / part_rows, from / rows);
            parts = cells;
            part_rows = rows;
        }
    }

    /// The summary walk of rows `row..n`: every block from `row` on whose
    /// cell `fails` is skipped whole, coarsest level first, and the rows of
    /// a leaf block whose cells admit go through `test` until it admits one.
    fn walk(
        &self,
        mut row: usize,
        n: usize,
        fails: impl Fn(Range) -> bool,
        seen: &mut AdmissionStats,
        test: impl Fn(usize, &mut AdmissionStats) -> bool,
    ) -> Option<usize> {
        // Per level, the end of the cell last found to admit.
        let mut admits_until = [0; LEVELS.len()];
        // Above the first level whose one cell spans the bucket, every
        // level repeats that cell.
        let levels = 1 + LEVELS[..LEVELS.len() - 1]
            .iter()
            .take_while(|&&w| w < n)
            .count();
        'walk: while row < n {
            for (level, &width) in LEVELS[..levels].iter().enumerate().rev() {
                if row < admits_until[level] {
                    continue;
                }
                let end = ((row / width + 1) * width).min(n);
                seen.examined += 1;
                if fails(self.cells[level][row / width]) {
                    #[cfg(test)]
                    tests::skipped(level, row, end);
                    skip(row, end, seen);
                    row = end;
                    continue 'walk;
                }
                admits_until[level] = end;
            }
            let end = admits_until[0];
            if let Some(hit) = (row..end).find(|&r| test(r, seen)) {
                return Some(hit);
            }
            row = end;
        }
        None
    }
}

/// Rows `from..to`, each a card reject, passed in one step.
fn skip(from: usize, to: usize, seen: &mut AdmissionStats) {
    seen.considered += to - from;
    seen.rejects_card += to - from;
}

/// `cells[c]` := the hull of `parts[c·width .. (c+1)·width]`, for every
/// cell from `from` on (or from the first `cells` lacks).
fn fold(cells: &mut Vec<Range>, parts: &[Range], width: usize, from: usize) {
    let from = from.min(cells.len()).min(parts.len() / width);
    cells.truncate(from);
    cells.extend(parts[from * width..].chunks(width).map(|chunk| {
        let mut hull = EMPTY;
        for &part in chunk {
            widen_hull(&mut hull, part);
        }
        hull
    }));
}

/// Id of `name` in an intern table, appended when new — to a copy of the
/// table, if a journal row still shares it.
fn intern(table: &mut Arc<Vec<String>>, name: &str) -> u32 {
    match lookup(table, name) {
        ABSENT => {
            Arc::make_mut(table).push(name.to_string());
            table.len() as u32 - 1
        }
        id => id,
    }
}

impl Bucket {
    fn find(&self, iri: &str) -> Result<usize, usize> {
        self.iris.binary_search_by(|probe| probe.as_str().cmp(iri))
    }

    /// Insert a row at its sorted position, or overwrite the row already
    /// holding `iri`.
    fn upsert(&mut self, iri: &str, workload: &str, entry: RowEntry<'_>) {
        let workload = intern(&mut self.workloads, workload);
        let row = match self.find(iri) {
            Ok(row) => {
                self.workload[row] = workload;
                row
            }
            Err(row) => {
                self.iris.insert(row, iri.to_string());
                self.workload.insert(row, workload);
                self.joins.insert(row, 0);
                self.ops.insert(row, Arc::default());
                self.edges.insert(row, Arc::default());
                for column in &mut self.hulls {
                    column.insert(row, EMPTY);
                }
                row
            }
        };
        // The row's operators, and with them its hulls.
        for column in &mut self.hulls {
            column[row] = EMPTY;
        }
        let RowEntry { joins, pops, edges } = entry;
        let mut bounds = Vec::with_capacity(pops.len());
        for pop in pops {
            let ty = intern(&mut self.types, pop.pop_type);
            if ty as usize == self.hulls.len() {
                self.hulls.push(vec![EMPTY; self.iris.len()]);
            }
            let scan = pop.scan.is_some();
            let [row_size, fpages, base_cardinality] = pop.scan.unwrap_or([Range::UNBOUNDED; 3]);
            let stats = [pop.cardinality, row_size, fpages, base_cardinality];
            widen_hull(&mut self.hulls[ty as usize][row], stats[0]);
            bounds.push(PopBounds {
                ty,
                label: pop
                    .label
                    .map_or(ABSENT, |label| intern(&mut self.labels, label)),
                scan,
                bounded: pop.bounded,
                stats,
            });
        }
        self.joins[row] = joins;
        self.ops[row] = bounds.into();
        self.edges[row] = edges.into();
        self.stale = self.stale.min(row);
    }

    /// Row `row` as the journal keeps it: shared cells, no copy.
    fn journal_row(&self, signature: u64, row: usize) -> JournalRow {
        JournalRow {
            signature,
            types: Arc::clone(&self.types),
            labels: Arc::clone(&self.labels),
            joins: self.joins[row],
            ops: Arc::clone(&self.ops[row]),
            edges: Arc::clone(&self.edges[row]),
        }
    }

    fn remove(&mut self, iri: &str) {
        let Ok(row) = self.find(iri) else {
            return;
        };
        self.iris.remove(row);
        self.workload.remove(row);
        self.joins.remove(row);
        self.ops.remove(row);
        self.edges.remove(row);
        for column in &mut self.hulls {
            column.remove(row);
        }
        self.stale = self.stale.min(row);
    }

    /// Repair the hull summaries once after a run of
    /// [`upsert`](Self::upsert)s and [`remove`](Self::remove)s: every
    /// cell from the lowest position they changed on.
    fn settle(&mut self) {
        if self.stale == usize::MAX {
            return;
        }
        self.summaries
            .resize_with(self.hulls.len(), HullSummary::default);
        for (summary, hulls) in self.summaries.iter_mut().zip(&self.hulls) {
            summary.repair(hulls, self.stale);
        }
        self.stale = usize::MAX;
    }

    /// Resolve a query's checks against this bucket's type table and
    /// widen their values by `m`.
    fn resolve(&self, checks: &[PopCheck], m: f64) -> Vec<Resolved<'_>> {
        checks
            .iter()
            .map(|check| {
                let [row_size, fpages, base_cardinality] = check.scan.map_or([f64::NAN; 3], |s| {
                    [s.row_size, s.fpages, s.base_cardinality]
                });
                let ty = lookup(&self.types, check.pop_type);
                Resolved {
                    ty,
                    hulls: self.hulls.get(ty as usize).map_or(&[], Vec::as_slice),
                    scan: check.scan.is_some(),
                    stats: [check.est_card, row_size, fpages, base_cardinality].map(|v| Slack {
                        up: v * m,
                        down: v / m,
                    }),
                }
            })
            .collect()
    }

    /// The candidate pre-check over one row: per check, the requirement
    /// that *some* same-typed operator admits the cardinality **and**
    /// (for scans) all three scan-stat envelopes simultaneously. The
    /// probe binds each segment operator to exactly one same-typed
    /// template operator and tests all of that operator's stored bounds,
    /// so the conjunction is a necessary condition for any probe match.
    fn admits(&self, row: usize, checks: &[Resolved<'_>]) -> Admission {
        for check in checks {
            // The hull pre-test (exact; see the module docs).
            if !check
                .hulls
                .get(row)
                .is_some_and(|&hull| check.stats[0].within(hull))
            {
                return Admission::RejectedCard;
            }
            let mut card_ok = false;
            let mut full_ok = false;
            for op in self.ops[row].iter() {
                if op.ty != check.ty || !check.stats[0].within(op.stats[0]) {
                    continue;
                }
                card_ok = true;
                if !(check.scan && op.scan) || (1..4).all(|f| check.stats[f].within(op.stats[f])) {
                    full_ok = true;
                    break;
                }
            }
            if !full_ok {
                return if card_ok {
                    Admission::RejectedScan
                } else {
                    Admission::RejectedCard
                };
            }
        }
        Admission::Admitted
    }

    /// The first row after `after` whose ranges, widened by `m`, admit
    /// the query's checks: `m = 1` is the cursor's exact test.
    fn next_admitting(
        &self,
        query: &AdmissionQuery<'_>,
        m: f64,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<&str> {
        let checks = self.resolve(query.checks, m);
        let row = self.walk(&checks, query, after, stats)?;
        Some(self.iris[row].as_str())
    }

    /// [`next_admitting`](Self::next_admitting), and the admitted row
    /// matched against the segment: its labels or why it did not match.
    fn next_checked(
        &self,
        query: &AdmissionQuery<'_>,
        shape: &SegmentShape<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<(&str, Result<Vec<&str>, MatchMiss>)> {
        let checks = self.resolve(query.checks, 1.0);
        let row = self.walk(&checks, query, after, stats)?;
        Some((self.iris[row].as_str(), self.assign(row, &checks, shape)))
    }

    /// The row-local assignment (module docs, "What a match is"): the
    /// least label vector, in scan pre-order, of an assignment of the
    /// segment's operators (`checks`, resolved unwidened) to
    /// the row's that meets every condition — or the first condition the
    /// row fails.
    fn assign(
        &self,
        row: usize,
        checks: &[Resolved<'_>],
        shape: &SegmentShape<'_>,
    ) -> Result<Vec<&str>, MatchMiss> {
        debug_assert_eq!(checks.len(), shape.wires.len(), "one wire per check");
        if self.joins[row] != shape.joins {
            return Err(MatchMiss::JoinCount);
        }
        let (ops, edges) = (&*self.ops[row], &*self.edges[row]);
        let fits: Vec<Vec<u32>> = checks
            .iter()
            .map(|check| {
                (0..ops.len() as u32)
                    .filter(|&t| ops[t as usize].fits(check))
                    .collect()
            })
            .collect();
        if fits.iter().any(Vec::is_empty) {
            return Err(MatchMiss::TypeOrRange);
        }
        let mut search = Search {
            labels: &self.labels,
            ops,
            edges,
            wires: shape.wires,
            checks,
            fits: &fits,
            image: Vec::with_capacity(checks.len()),
            used: vec![false; ops.len()],
            chosen: Vec::new(),
            best: None,
        };
        search.extend();
        if let Some(best) = search.best {
            return Ok(best
                .iter()
                .map(|&l| self.labels[l as usize].as_str())
                .collect());
        }
        // Every operator but the segment's root has its parent inside.
        let unwired = shape
            .wires
            .iter()
            .enumerate()
            .skip(1)
            .any(|(child, &wire)| {
                !fits[wire.parent(child)].iter().any(|&parent| {
                    fits[child]
                        .iter()
                        .any(|&t| t != parent && wired(edges, t, parent, wire.roles))
                })
            });
        Err(if unwired {
            MatchMiss::EdgeOrRole
        } else {
            MatchMiss::Assignment
        })
    }

    /// The admission walk: the first row after `after` that passes
    /// `checks` (the query's, resolved). It passes over every block of
    /// rows whose summary hull fails check 0 (module docs).
    fn walk(
        &self,
        checks: &[Resolved<'_>],
        query: &AdmissionQuery<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<usize> {
        debug_assert_eq!(self.stale, usize::MAX, "a walk over unsettled summaries");
        let n = self.iris.len();
        let start = after.map_or(0, |a| self.iris.partition_point(|iri| iri.as_str() <= a));
        let near = (query.near_factor > 1.0).then(|| self.resolve(query.checks, query.near_factor));
        // Counted in a local: the walk is a few instructions a row, and
        // a counter behind `&mut` would be a store per row.
        let mut seen = *stats;
        let test = |row: usize, seen: &mut AdmissionStats| {
            seen.considered += 1;
            seen.examined += 1;
            match self.admits(row, checks) {
                Admission::Admitted => return true,
                Admission::RejectedCard => seen.rejects_card += 1,
                Admission::RejectedScan => seen.rejects_scan += 1,
            }
            // Near-miss detection: would the widened ranges have admitted
            // this row? Counting only — the candidate stays rejected.
            if near
                .as_ref()
                .is_some_and(|near| self.admits(row, near) == Admission::Admitted)
            {
                seen.near_misses += 1;
            }
            false
        };
        let admitted = match checks.first() {
            Some(first) => {
                let near = near.as_ref().map(|near| near[0].stats[0]);
                // A cell fails check 0 when neither factor admits its hull:
                // then every row under it is a card reject, none a near miss.
                let fails = |hull: Range| {
                    !first.stats[0].within(hull) && near.is_none_or(|near| !near.within(hull))
                };
                match self.summaries.get(first.ty as usize) {
                    Some(summary) => summary.walk(start, n, fails, &mut seen, test),
                    // A type the bucket has never seen: every row fails.
                    None => {
                        skip(start, n, &mut seen);
                        None
                    }
                }
            }
            // No checks: the first row admits.
            None => (start..n).find(|&r| test(r, &mut seen)),
        };
        *stats = seen;
        admitted
    }
}

/// True when the row states a stream edge from `child` to `parent` with
/// every bit of `roles`.
fn wired(edges: &[Edge], child: u32, parent: u32, roles: u8) -> bool {
    edges
        .iter()
        .any(|e| e.child == child && e.parent == parent && e.roles & roles == roles)
}

/// One row's assignment search: depth first over the segment's operators
/// in pre-order, each tried on the template operators that fit it, every
/// complete assignment compared with the best so far by its label vector.
struct Search<'r> {
    labels: &'r [String],
    ops: &'r [PopBounds],
    edges: &'r [Edge],
    /// Entry 0, the segment's root, is not read.
    wires: &'r [Wire],
    checks: &'r [Resolved<'r>],
    /// Per segment operator: the template operators passing conditions
    /// 1–2.
    fits: &'r [Vec<u32>],
    /// The template operator each segment operator so far stands for.
    image: Vec<u32>,
    /// Template operators taken (condition 4).
    used: Vec<bool>,
    /// The labels of the scans so far.
    chosen: Vec<u32>,
    best: Option<Vec<u32>>,
}

impl Search<'_> {
    fn order(&self, a: &[u32], b: &[u32]) -> Ordering {
        let text = |l: &u32| self.labels[*l as usize].as_str();
        a.iter().map(text).cmp(b.iter().map(text))
    }

    /// Extend the partial assignment by the next segment operator.
    fn extend(&mut self) {
        let (k, fits) = (self.image.len(), self.fits);
        let Some(candidates) = fits.get(k) else {
            if self
                .best
                .as_ref()
                .is_none_or(|best| self.order(&self.chosen, best).is_lt())
            {
                self.best = Some(self.chosen.clone());
            }
            return;
        };
        let scan = self.checks[k].scan;
        for &t in candidates {
            if self.used[t as usize] {
                continue;
            }
            // Pre-order: the parent already stands somewhere (condition 3);
            // the segment's root has no parent inside it.
            if k > 0 {
                let wire = self.wires[k];
                if !wired(self.edges, t, self.image[wire.parent(k)], wire.roles) {
                    continue;
                }
            }
            if scan {
                self.chosen.push(self.ops[t as usize].label);
                // A prefix above the best's cannot end below it.
                let worse = self.best.as_ref().is_some_and(|best| {
                    self.order(&self.chosen, &best[..self.chosen.len()]).is_gt()
                });
                if worse {
                    self.chosen.pop();
                    continue;
                }
            }
            self.used[t as usize] = true;
            self.image.push(t);
            self.extend();
            self.image.pop();
            self.used[t as usize] = false;
            if scan {
                self.chosen.pop();
            }
        }
    }
}

/// Shape signature -> the columnar [`Bucket`] of the templates with that
/// shape. Lives behind the knowledge base's `RwLock`; every method here
/// assumes the caller holds it.
#[derive(Default)]
pub(crate) struct SigIndex {
    buckets: HashMap<u64, Bucket>,
    /// Template IRI -> the signatures whose buckets hold a row of it (one,
    /// unless a republish moved it to another signature without a
    /// retraction): what finds a template's rows without visiting every
    /// bucket.
    signatures: HashMap<String, Vec<u64>>,
}

impl SigIndex {
    /// Insert the template's row into its signature's bucket, or
    /// overwrite the row it already has there.
    fn upsert(&mut self, signature: u64, iri: &str, workload: &str, row: RowEntry<'_>) {
        self.buckets
            .entry(signature)
            .or_default()
            .upsert(iri, workload, row);
        if let Some(held) = self.signatures.get_mut(iri) {
            if !held.contains(&signature) {
                held.push(signature);
            }
        } else {
            self.signatures.insert(iri.to_string(), vec![signature]);
        }
    }

    /// Unlink a template; a bucket left without rows goes with it.
    pub(crate) fn remove(&mut self, iri: &str) {
        for signature in self.signatures.remove(iri).unwrap_or_default() {
            let bucket =
                (self.buckets.get_mut(&signature)).expect("a filed signature has a bucket");
            bucket.remove(iri);
            if bucket.iris.is_empty() {
                self.buckets.remove(&signature);
            }
        }
    }

    /// Repair the hull summaries of every bucket changed since the last
    /// call: the end of every index change, before anyone walks it.
    pub(crate) fn settle(&mut self) {
        for bucket in self.buckets.values_mut() {
            bucket.settle();
        }
    }

    /// Number of distinct signatures.
    pub(crate) fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Every row the template holds, copied out for the journal: read
    /// from the buckets of the signatures it is filed under, not found by
    /// searching every bucket.
    pub(crate) fn journal_rows(&self, iri: &str, rows: &mut Vec<JournalRow>) {
        for &signature in self.signatures.get(iri).into_iter().flatten() {
            let bucket = &self.buckets[&signature];
            if let Ok(row) = bucket.find(iri) {
                rows.push(bucket.journal_row(signature, row));
            }
        }
    }

    /// The signature's template IRIs, ascending.
    pub(crate) fn iris(&self, signature: u64) -> &[String] {
        self.buckets
            .get(&signature)
            .map_or(&[], |bucket| bucket.iris.as_slice())
    }

    /// Number of signatures holding at least one template learned from
    /// `workload`.
    pub(crate) fn signatures_of(&self, workload: &str) -> usize {
        self.buckets
            .values()
            .filter(|bucket| {
                bucket
                    .workload
                    .contains(&lookup(&bucket.workloads, workload))
            })
            .count()
    }

    /// The cursor: the first row of the signature's bucket strictly after
    /// `after` (`None` = from the start) that passes the query's
    /// admission pre-check. Every row it went past — the admitted one
    /// included — is accumulated into `stats`.
    pub(crate) fn next_admitting(
        &self,
        signature: u64,
        query: &AdmissionQuery<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<&str> {
        self.buckets
            .get(&signature)?
            .next_admitting(query, 1.0, after, stats)
    }

    /// Every template of the signature's bucket whose ranges, widened by
    /// the query's near-miss factor, admit its checks, ascending: the
    /// exactly admitted ones and the near misses — what near-miss
    /// feedback refines.
    pub(crate) fn admitting_widened(
        &self,
        signature: u64,
        query: &AdmissionQuery<'_>,
    ) -> Vec<String> {
        let Some(bucket) = self.buckets.get(&signature) else {
            return Vec::new();
        };
        let widened = AdmissionQuery {
            near_factor: 1.0,
            ..*query
        };
        let (mut iris, mut stats) = (Vec::<String>::new(), AdmissionStats::default());
        while let Some(iri) = bucket.next_admitting(
            &widened,
            query.near_factor.max(1.0),
            iris.last().map(String::as_str),
            &mut stats,
        ) {
            iris.push(iri.to_string());
        }
        iris
    }

    /// The same cursor, with the admitted row matched against the
    /// segment: the template IRI, and the winning labels (scan pre-order)
    /// or why the row does not match.
    pub(crate) fn next_checked(
        &self,
        signature: u64,
        query: &AdmissionQuery<'_>,
        shape: &SegmentShape<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<(&str, Result<Vec<&str>, MatchMiss>)> {
        self.buckets
            .get(&signature)?
            .next_checked(query, shape, after, stats)
    }
}

/// Epoch generations the [`ChangeJournal`] reaches back. An outcome
/// stamped further back is dropped rather than re-validated.
pub(crate) const JOURNAL_DEPTH: usize = 64;

/// Templates one generation may change and still be journaled row by
/// row; a commit that changes more is journaled [`Generation::Opaque`].
pub(crate) const JOURNAL_TEMPLATES: usize = 8;

/// One template's signature-index row as a generation found or left it:
/// its cells, sharing the bucket's intern tables, the row's operators and
/// its edges.
pub(crate) struct JournalRow {
    signature: u64,
    types: Arc<Vec<String>>,
    labels: Arc<Vec<String>>,
    joins: usize,
    ops: Arc<[PopBounds]>,
    edges: Arc<[Edge]>,
}

impl JournalRow {
    /// The signature the row was indexed under: only a segment of that
    /// shape can pull it.
    pub(crate) fn signature(&self) -> u64 {
        self.signature
    }

    /// True when, under some query of `queries`, the cursor would stop on
    /// the row — or, when the query tracks near misses, count it as one.
    /// The walk is the cursor's own, over the row as a bucket of one (its
    /// hulls grown as [`Bucket::upsert`] grows them), built only when
    /// there is a query to run.
    pub(crate) fn admitted_by_any<'q>(
        &self,
        queries: impl IntoIterator<Item = AdmissionQuery<'q>>,
    ) -> bool {
        let mut queries = queries.into_iter().peekable();
        if queries.peek().is_none() {
            return false;
        }
        let mut hulls = vec![vec![EMPTY]; self.types.len()];
        for op in self.ops.iter() {
            widen_hull(&mut hulls[op.ty as usize][0], op.stats[0]);
        }
        // The walk reads no workload: the row's is left unnamed.
        let mut bucket = Bucket {
            types: Arc::clone(&self.types),
            workloads: Arc::default(),
            labels: Arc::clone(&self.labels),
            iris: vec![String::new()],
            workload: vec![ABSENT],
            joins: vec![self.joins],
            hulls,
            summaries: Vec::new(),
            stale: 0,
            ops: vec![Arc::clone(&self.ops)],
            edges: vec![Arc::clone(&self.edges)],
        };
        bucket.settle();
        queries.any(|query| {
            let mut stats = AdmissionStats::default();
            bucket
                .next_admitting(&query, 1.0, None, &mut stats)
                .is_some()
                || stats.near_misses > 0
        })
    }
}

/// What one epoch generation changed, as far as admission can tell.
pub(crate) enum Generation {
    /// The rows of the templates the commit changed: the old row of each
    /// that had one, then the new row of each that has one.
    Rows(Vec<JournalRow>),
    /// A clear, an import, a rebuild, a snapshot load, a statement that
    /// names no template, or more than [`JOURNAL_TEMPLATES`] templates.
    Opaque,
}

/// The knowledge base's bounded change journal: the last
/// [`JOURNAL_DEPTH`] generations, each under the even epoch it produced.
/// The one commit appends inside its mutation scope, before the epoch
/// moves, so a generation is journaled whenever its epoch is visible; a
/// generation nobody journaled (a write through the raw endpoint) leaves a
/// hole no re-validation crosses.
#[derive(Default)]
pub(crate) struct ChangeJournal {
    ring: RwLock<VecDeque<(u64, Generation)>>,
}

impl std::fmt::Debug for ChangeJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChangeJournal").finish_non_exhaustive()
    }
}

impl ChangeJournal {
    /// Journal the generation that makes the epoch read `epoch`.
    pub(crate) fn append(&self, epoch: u64, generation: Generation) {
        let mut ring = self.ring.write().unwrap_or_else(PoisonError::into_inner);
        let retired = (ring.len() == JOURNAL_DEPTH).then(|| ring.pop_front());
        ring.push_back((epoch, generation));
        drop(ring); // `retired` is freed outside the lock
        drop(retired);
    }

    /// True when every generation in `(since, until]` is journaled and no
    /// row of theirs is one `admits` says yes to. `since < until`, both
    /// even.
    pub(crate) fn clears(
        &self,
        since: u64,
        until: u64,
        admits: impl Fn(&JournalRow) -> bool,
    ) -> bool {
        debug_assert!(since < until, "re-validation runs forward");
        let ring = self.ring.read().unwrap_or_else(PoisonError::into_inner);
        // Newer generations may already be journaled: their epochs are
        // not the caller's yet.
        let mut want = until;
        for (epoch, generation) in ring.iter().rev().skip_while(|(epoch, _)| *epoch > until) {
            if *epoch != want {
                return false; // a generation nobody journaled
            }
            match generation {
                Generation::Rows(rows) if !rows.iter().any(&admits) => {}
                _ => return false,
            }
            want -= 2;
            if want <= since {
                return true;
            }
        }
        false // the ring no longer reaches `since`
    }

    /// The generation journaled under `epoch`, as a test reads it.
    #[cfg(test)]
    pub(crate) fn at(&self, epoch: u64) -> Journaled {
        let ring = self.ring.read().unwrap();
        let bounds = |row: &JournalRow| row.ops.iter().map(|op| op.stats[0]).collect();
        match ring.iter().find(|(at, _)| *at == epoch) {
            None => Journaled::Missing,
            Some((_, Generation::Opaque)) => Journaled::Opaque,
            Some((_, Generation::Rows(rows))) => Journaled::Rows(
                rows.iter()
                    .map(|row| (row.signature, bounds(row)))
                    .collect(),
            ),
        }
    }
}

/// A journaled generation as a test reads it: each row as its signature
/// and its operators' cardinality bounds.
#[cfg(test)]
#[derive(Debug, PartialEq)]
pub(crate) enum Journaled {
    Missing,
    Opaque,
    Rows(Vec<(u64, Vec<Range>)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    // ---------------------------------------------------------------
    // The reference: the per-template B-tree entries and the
    // per-operator, string-compared walk this module replaced, kept as
    // they were. Nothing below the dashed line shares code with it.
    // ---------------------------------------------------------------

    fn ref_within(b: Range, v: f64, m: f64) -> bool {
        b.lo <= v * m && b.hi >= v / m
    }

    #[derive(Clone)]
    struct RefPop {
        pop_type: &'static str,
        cardinality: Range,
        scan: Option<[Range; 3]>,
    }

    struct RefTemplate {
        pops: Vec<RefPop>,
    }

    type RefBucket = BTreeMap<String, RefTemplate>;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum RefAdmission {
        Admitted,
        RejectedCard,
        RejectedScan,
    }

    fn ref_admits(tpl: &RefTemplate, q: &AdmissionQuery<'_>, m: f64) -> RefAdmission {
        for check in q.checks {
            let mut card_ok = false;
            let mut full_ok = false;
            for p in &tpl.pops {
                if p.pop_type != check.pop_type || !ref_within(p.cardinality, check.est_card, m) {
                    continue;
                }
                card_ok = true;
                let scan_ok = match (&check.scan, &p.scan) {
                    (Some(sc), Some([row_size, fpages, base_cardinality])) => {
                        ref_within(*row_size, sc.row_size, m)
                            && ref_within(*fpages, sc.fpages, m)
                            && ref_within(*base_cardinality, sc.base_cardinality, m)
                    }
                    _ => true,
                };
                if scan_ok {
                    full_ok = true;
                    break;
                }
            }
            if !full_ok {
                return if card_ok {
                    RefAdmission::RejectedScan
                } else {
                    RefAdmission::RejectedCard
                };
            }
        }
        RefAdmission::Admitted
    }

    fn ref_next_admitting(
        tpls: &RefBucket,
        query: &AdmissionQuery<'_>,
        after: Option<&str>,
        stats: &mut AdmissionStats,
    ) -> Option<String> {
        use std::ops::Bound;
        let lower = match after {
            Some(a) => Bound::Excluded(a),
            None => Bound::Unbounded,
        };
        for (iri, tpl) in tpls.range::<str, _>((lower, Bound::Unbounded)) {
            stats.considered += 1;
            match ref_admits(tpl, query, 1.0) {
                RefAdmission::Admitted => return Some(iri.clone()),
                RefAdmission::RejectedCard => stats.rejects_card += 1,
                RefAdmission::RejectedScan => stats.rejects_scan += 1,
            }
            if query.near_factor > 1.0
                && ref_admits(tpl, query, query.near_factor) == RefAdmission::Admitted
            {
                stats.near_misses += 1;
            }
        }
        None
    }

    // ---------------------------------------------------------------

    const SIG: u64 = 7;
    /// The operators every row of a bucket shares (its signature)…
    const SHARED: [&str; 3] = ["HSJOIN", "TBSCAN", "IXSCAN"];
    /// …the transparent ones a row may carry on top…
    const EXTRA: [&str; 3] = ["SORT", "FILTER", "RETURN"];
    /// …and one no row ever has.
    const UNSEEN: &str = "GRPBY";
    /// A type only rows planted for a known count carry.
    const PLANTED: &str = "TEMP";

    fn entries(pops: &[RefPop]) -> RowEntry<'static> {
        let pops = pops
            .iter()
            .map(|p| PopEntry {
                pop_type: p.pop_type,
                label: None,
                bounded: 0,
                cardinality: p.cardinality,
                scan: p.scan,
            })
            .collect();
        RowEntry {
            joins: 0,
            pops,
            edges: Vec::new(),
        }
    }

    /// A stat anchored at `lo`: plain, stretched by an outlier,
    /// one-sided, unbounded, or shifted off its anchor.
    fn stat(rng: &mut StdRng, lo: f64) -> Range {
        let hi = lo * [1.0, 2.0, 8.0].choose(rng).unwrap();
        match rng.gen_range(0..10) {
            0 => Range::UNBOUNDED,
            1 => Range::from_bounds(Some(lo), None),
            2 => Range::from_bounds(None, Some(hi)),
            3 => Range {
                lo: lo * 3.0,
                hi: hi * 5.0,
            },
            4 | 5 => {
                let mut range = Range::point(lo * 1e3);
                for _ in 0..30 {
                    range.cover((lo * rng.gen_range(1.0..2.0f64)).round());
                }
                range
            }
            _ => Range { lo, hi },
        }
    }

    fn pop(rng: &mut StdRng, pop_type: &'static str, lo: f64) -> RefPop {
        let is_scan = pop_type.ends_with("SCAN");
        RefPop {
            pop_type,
            cardinality: stat(rng, lo),
            // One scan in five was stored without scan stats.
            scan: (is_scan && rng.gen_bool(0.8)).then(|| {
                [(); 3].map(|()| {
                    let lo = 10f64.powi(rng.gen_range(1..4));
                    stat(rng, lo)
                })
            }),
        }
    }

    fn row(rng: &mut StdRng) -> Vec<RefPop> {
        let mut pops = Vec::new();
        for ty in SHARED {
            let lo = 10f64.powi(rng.gen_range(0..6));
            pops.push(pop(rng, ty, lo));
            // A second operator of the type, far from the first: the
            // hull spans a gap neither of them admits.
            if rng.gen_bool(0.4) {
                pops.push(pop(rng, ty, lo * 1e4));
            }
        }
        for ty in EXTRA {
            if rng.gen_bool(0.3) {
                let lo = 10f64.powi(rng.gen_range(0..6));
                pops.push(pop(rng, ty, lo));
            }
        }
        pops.shuffle(rng);
        pops
    }

    /// A value inside, on the edge of, between or far outside a stat's
    /// exact range.
    fn value(rng: &mut StdRng, stat: &Range) -> f64 {
        let Range { lo, hi } = *stat;
        match rng.gen_range(0..8) {
            0 | 1 => lo,
            2 | 3 => hi,
            4 => (lo + hi) / 2.0,
            5 => hi * 60.0, // the gap below a ×1e4 sibling
            6 => lo / 1e6,
            _ => hi * 1e9,
        }
    }

    fn checks(rng: &mut StdRng, anchor: &[RefPop]) -> Vec<PopCheck> {
        let mut checks: Vec<PopCheck> = Vec::new();
        for p in anchor {
            if rng.gen_bool(0.4) {
                continue;
            }
            let scan = (p.pop_type.ends_with("SCAN") && rng.gen_bool(0.8)).then(|| {
                let [row_size, fpages, base_cardinality] = match &p.scan {
                    Some(scan) => scan.each_ref().map(|stat| value(rng, stat)),
                    None => [f64::NAN, 1e12, -3.0],
                };
                ScanCheck {
                    row_size,
                    fpages,
                    base_cardinality,
                }
            });
            checks.push(PopCheck {
                pop_type: p.pop_type,
                est_card: value(rng, &p.cardinality),
                scan,
            });
        }
        if rng.gen_bool(0.15) {
            let at = rng.gen_range(0..=checks.len());
            checks.insert(at, PopCheck::card(UNSEEN, 100.0));
        }
        if rng.gen_bool(0.05) {
            checks.push(PopCheck::card(SHARED[0], f64::NAN));
        }
        checks
    }

    /// Summary skips per level, then how many of them began inside
    /// their cell.
    type Skips = [usize; LEVELS.len() + 1];

    thread_local! {
        /// The summary skips the walk made on this thread.
        static SKIPS: std::cell::Cell<Skips> = const { std::cell::Cell::new([0; LEVELS.len() + 1]) };
    }

    pub(super) fn skipped(level: usize, from: usize, to: usize) {
        debug_assert!(from < to, "an empty skip");
        SKIPS.with(|skips| {
            let mut n = skips.get();
            n[level] += 1;
            n[LEVELS.len()] += usize::from(!from.is_multiple_of(LEVELS[level]));
            skips.set(n);
        });
    }

    /// A drained cursor's verdicts and counts, without the work count
    /// the reference walk has no notion of.
    fn counted((admitted, stats): (Vec<String>, AdmissionStats)) -> (Vec<String>, AdmissionStats) {
        let stats = AdmissionStats {
            examined: 0,
            ..stats
        };
        (admitted, stats)
    }

    /// Pull a cursor until it runs dry.
    fn drain(
        after: Option<&str>,
        mut next: impl FnMut(Option<&str>, &mut AdmissionStats) -> Option<String>,
    ) -> (Vec<String>, AdmissionStats) {
        let mut stats = AdmissionStats::default();
        let mut admitted: Vec<String> = Vec::new();
        let mut after = after.map(str::to_string);
        while let Some(iri) = next(after.as_deref(), &mut stats) {
            after = Some(iri.clone());
            admitted.push(iri);
        }
        (admitted, stats)
    }

    /// The columnar cursor against the reference, over seeded random
    /// buckets — built through shuffled inserts, republishes, removals
    /// and re-reads, so the maintenance of every column is under test
    /// too — and seeded random queries.
    #[test]
    fn cursor_matches_the_reference_walk() {
        let mut rng = StdRng::seed_from_u64(0x516_1DE5);
        let mut totals = AdmissionStats::default();
        let (mut admitted_total, mut hull_only) = (0usize, 0usize);
        for bucket_no in 0..40 {
            let rows = if bucket_no < 4 {
                2 + bucket_no
            } else {
                rng.gen_range(2..=200)
            };
            let mut index = SigIndex::default();
            let mut reference = RefBucket::new();
            let iri_of =
                |n: usize| format!("http://galo/kb/template/{:05x}", n * 2654435761 % 0xfffff);
            let mut order: Vec<usize> = (0..rows).collect();
            order.shuffle(&mut rng);
            for &n in &order {
                let (iri, pops) = (iri_of(n), row(&mut rng));
                let workload = ["w1", "w2", ""].choose(&mut rng).unwrap();
                index.upsert(SIG, &iri, workload, entries(&pops));
                // A same-IRI row under another signature must never leak.
                if n % 7 == 0 {
                    index.upsert(SIG ^ 1, &iri, "w1", entries(&row(&mut rng)));
                }
                reference.insert(iri, RefTemplate { pops });
            }
            // Republish (overwrite in place), re-read and remove a few.
            for &n in order.iter().take(rows / 4) {
                let (iri, pops) = (iri_of(n), row(&mut rng));
                match rng.gen_range(0..3) {
                    0 => {
                        index.upsert(SIG, &iri, "w2", entries(&pops));
                        reference.insert(iri, RefTemplate { pops });
                    }
                    1 => {
                        index.buckets.get_mut(&SIG).unwrap().remove(&iri);
                        reference.remove(&iri);
                    }
                    _ => {
                        // A refined template re-read: same row, other
                        // operators.
                        index.upsert(SIG, &iri, "w1", entries(&pops));
                        reference.get_mut(&iri).unwrap().pops = pops;
                    }
                }
            }
            index.settle();
            assert_eq!(
                index.iris(SIG),
                reference.keys().cloned().collect::<Vec<_>>()
            );
            if reference.is_empty() {
                continue;
            }

            let mut afters: Vec<String> = vec![String::new(), "zzzz".to_string()];
            for iri in reference.keys() {
                afters.push(iri.clone());
                afters.push(format!("{iri}~"));
                afters.push(iri[..iri.len() - 1].to_string());
            }
            for _ in 0..24 {
                let anchor = reference.values().nth(rng.gen_range(0..reference.len()));
                let checks = checks(&mut rng, &anchor.unwrap().pops);
                for near_factor in [1.0, 2.0, 4.0] {
                    let query = AdmissionQuery {
                        checks: &checks,
                        near_factor,
                    };
                    let columnar = |after: Option<&str>, stats: &mut AdmissionStats| {
                        index
                            .next_admitting(SIG, &query, after, stats)
                            .map(str::to_string)
                    };
                    let walked = |after: Option<&str>, stats: &mut AdmissionStats| {
                        ref_next_admitting(&reference, &query, after, stats)
                    };
                    let got = counted(drain(None, columnar));
                    assert_eq!(got, drain(None, walked), "{query:?}");
                    totals.considered += got.1.considered;
                    totals.rejects_card += got.1.rejects_card;
                    totals.rejects_scan += got.1.rejects_scan;
                    totals.near_misses += got.1.near_misses;
                    admitted_total += got.0.len();
                    // Resuming anywhere — from a row, beside one,
                    // before the first, past the last — agrees too.
                    if rng.gen_range(0..20) == 0 {
                        for after in &afters {
                            assert_eq!(
                                counted(drain(Some(after), columnar)),
                                drain(Some(after), walked),
                                "after {after:?}: {query:?}"
                            );
                        }
                        // The rows near-miss feedback refines: those
                        // the widened ranges admit.
                        let widened: Vec<String> = reference
                            .iter()
                            .filter(|(_, tpl)| {
                                ref_admits(tpl, &query, near_factor) == RefAdmission::Admitted
                            })
                            .map(|(iri, _)| iri.clone())
                            .collect();
                        assert_eq!(index.admitting_widened(SIG, &query), widened);
                        // Each row as the journal keeps it: admitted,
                        // or a near miss, exactly when the walk says.
                        let bucket = &index.buckets[&SIG];
                        for (at, tpl) in reference.values().enumerate() {
                            let verdict = ref_admits(tpl, &query, 1.0);
                            let near = near_factor > 1.0
                                && ref_admits(tpl, &query, near_factor) == RefAdmission::Admitted;
                            let row = bucket.journal_row(SIG, at);
                            assert_eq!(
                                row.admitted_by_any([query]),
                                verdict == RefAdmission::Admitted || near,
                                "row {at}: {query:?}"
                            );
                        }
                    }
                    // Rows whose hull admits the first check though
                    // no single operator does.
                    let bucket = &index.buckets[&SIG];
                    if let Some(first) = bucket.resolve(&checks, 1.0).first() {
                        hull_only += reference
                            .values()
                            .enumerate()
                            .filter(|(at, tpl)| {
                                let hull = first.hulls.get(*at);
                                hull.is_some_and(|&hull| first.stats[0].within(hull))
                                    && !tpl.pops.iter().any(|p| {
                                        p.pop_type == checks[0].pop_type
                                            && ref_within(p.cardinality, checks[0].est_card, 1.0)
                                    })
                            })
                            .count();
                    }
                }
            }
        }
        // The grid reached every outcome it is there to compare.
        let rejected = totals.rejects_card + totals.rejects_scan;
        assert!(admitted_total > 1_000, "admitted {admitted_total}");
        assert!(totals.rejects_card > 1_000 && totals.rejects_scan > 1_000);
        assert!(totals.near_misses > 100, "{totals:?}");
        assert_eq!(totals.considered, rejected + admitted_total, "{totals:?}");
        assert!(
            hull_only > 1_000,
            "hull-admitted, operator-rejected: {hull_only}"
        );
    }

    /// A row shaped like `inflate_kb`'s: the signature's operators, every
    /// cardinality displaced to one narrow range far above live values.
    fn displaced(rng: &mut StdRng, shift: f64) -> Vec<RefPop> {
        let far = Range {
            lo: shift,
            hi: shift + 1.0,
        };
        let mut pops = row(rng);
        for p in &mut pops {
            p.cardinality = far;
        }
        pops
    }

    /// A row whose hulls overlap its neighbours': per shared type, a
    /// covering operator whose range spans the live values and a crippled
    /// one below them, so the hulls of neighbouring rows overlap and
    /// admit.
    fn polluted(rng: &mut StdRng) -> Vec<RefPop> {
        let mut pops = Vec::new();
        for ty in SHARED {
            let lo = 10f64.powi(rng.gen_range(0..4));
            let mut wide = pop(rng, ty, lo);
            wide.cardinality = Range { lo, hi: lo * 1e3 };
            let mut crippled = pop(rng, ty, lo);
            crippled.cardinality = Range {
                lo: lo / 4.0,
                hi: lo / 2.0,
            };
            pops.extend([wide, crippled]);
        }
        pops.shuffle(rng);
        pops
    }

    /// The summary walk against the reference on clustered buckets of up
    /// to 9 k rows: long runs of displaced rows (whole blocks of every
    /// level, and blocks entered mid-way), overlapping polluted hulls and
    /// a few live rows between them; every query shape (an unseen type or
    /// NaN first, near misses at factors 2 and 4); cursors
    /// started from every kind of position; and rows published,
    /// republished and retracted between pulls, so the repair of the
    /// summaries is under test as well as the walk. Every eighth row
    /// carries one more operator, of a type only those rows have, so one
    /// query admits a known number of rows: the walk's reach does not
    /// rest on what the drawn queries happen to admit.
    #[test]
    fn summary_walk_matches_the_reference_at_scale() {
        let mut rng = StdRng::seed_from_u64(0x5EED_B10C);
        SKIPS.with(|skips| skips.set(Skips::default()));
        let (mut near_misses, mut unseen_first) = (0usize, 0usize);
        let mut planted_pulls = 0;
        // Row `n`'s IRI; a row published later takes an odd slot.
        let iri_of = |n: usize| format!("http://galo/kb/template/{n:07}");
        for target in [300usize, 1_500, 4_000, 9_000] {
            let mut index = SigIndex::default();
            let mut reference = RefBucket::new();
            let mut shifts: Vec<f64> = Vec::new();
            let mut shift = 1e9;
            let put = |index: &mut SigIndex,
                       reference: &mut RefBucket,
                       n,
                       pops: Vec<RefPop>,
                       rng: &mut StdRng| {
                let (iri, workload) = (iri_of(n), *["w1", "w2", ""].choose(rng).unwrap());
                index.upsert(SIG, &iri, workload, entries(&pops));
                reference.insert(iri, RefTemplate { pops });
            };
            let mut n = 0;
            while n < target {
                let (run, kind) = match rng.gen_range(0..10) {
                    0..=5 => (rng.gen_range(1..=1_500), 0),
                    6 | 7 => (rng.gen_range(1..=20), 1),
                    _ => (rng.gen_range(1..=3), 2),
                };
                for _ in 0..run {
                    let mut pops = match kind {
                        0 => {
                            shift += 10.0;
                            shifts.push(shift);
                            displaced(&mut rng, shift)
                        }
                        1 => polluted(&mut rng),
                        _ => row(&mut rng),
                    };
                    if n % 8 == 3 {
                        pops.push(plain(PLANTED, 1.0, 2.0));
                    }
                    put(&mut index, &mut reference, 2 * n, pops, &mut rng);
                    n += 1;
                }
            }
            index.settle();

            // The query the planted rows, and only they, admit: each pull
            // checked against the reference like the drawn ones below.
            let planted = [PopCheck::card(PLANTED, 1.5)];
            let query = AdmissionQuery::exact(&planted);
            let (admitted, _) = drain(None, |after, _| {
                let (mut got, mut want) = (AdmissionStats::default(), AdmissionStats::default());
                let next = index
                    .next_admitting(SIG, &query, after, &mut got)
                    .map(str::to_string);
                let expected = ref_next_admitting(&reference, &query, after, &mut want);
                assert_eq!(
                    (&next, AdmissionStats { examined: 0, ..got }),
                    (&expected, want),
                    "planted rows, after {after:?}"
                );
                next
            });
            assert_eq!(admitted.len(), (n + 4) / 8, "rows 3, 11, 19, … of {n}");
            planted_pulls += admitted.len() + 1;

            let mut drawn_admitted = 0;
            for _ in 0..128 {
                let rows = reference.len();
                let anchor = reference.values().nth(rng.gen_range(0..rows)).unwrap();
                let mut checks = checks(&mut rng, &anchor.pops);
                match rng.gen_range(0..8) {
                    // Just below a displaced run: a near miss at factor 2.
                    0 | 1 => {
                        let shift = shifts[rng.gen_range(0..shifts.len())];
                        checks.insert(0, PopCheck::card(SHARED[0], shift * 0.6));
                    }
                    2 => checks.insert(0, PopCheck::card(UNSEEN, 100.0)),
                    3 => checks.insert(0, PopCheck::card(SHARED[1], f64::NAN)),
                    _ => {}
                }
                let query = AdmissionQuery {
                    checks: &checks,
                    near_factor: *[1.0, 2.0, 4.0].choose(&mut rng).unwrap(),
                };
                // Start before the first row, past the last, on a row at
                // or beside a block boundary, beside a row, or anywhere.
                let on = |at: usize| reference.keys().nth(at.min(rows - 1)).unwrap().clone();
                let mut after = match rng.gen_range(0..8) {
                    0 => None,
                    1 => Some(String::new()),
                    2 => Some("zzzz".to_string()),
                    3 => {
                        let width = *LEVELS.choose(&mut rng).unwrap();
                        let at = width + rng.gen_range(0..3usize) - 1;
                        Some(on(at + LEVELS[1] * rng.gen_range(0..=rows / LEVELS[1])))
                    }
                    4 => Some(format!("{}~", on(rng.gen_range(0..rows)))),
                    _ => Some(on(rng.gen_range(0..rows))),
                };
                loop {
                    let (mut got, mut want) =
                        (AdmissionStats::default(), AdmissionStats::default());
                    let next = index
                        .next_admitting(SIG, &query, after.as_deref(), &mut got)
                        .map(str::to_string);
                    let expected =
                        ref_next_admitting(&reference, &query, after.as_deref(), &mut want);
                    assert_eq!(
                        (&next, AdmissionStats { examined: 0, ..got }),
                        (&expected, want),
                        "after {after:?}: {query:?}"
                    );
                    if checks.first().is_some_and(|c| c.pop_type == UNSEEN) {
                        assert_eq!(got.examined, 0, "an unseen first type reads nothing");
                        unseen_first += 1;
                    }
                    near_misses += got.near_misses;
                    let Some(next) = next else { break };
                    drawn_admitted += 1;
                    after = Some(next);
                    // Between pulls: publish a row into a gap, republish
                    // one in place (its hulls and workload), or retract.
                    if rng.gen_bool(0.3) {
                        let at = rng.gen_range(0..reference.len());
                        let iri = reference.keys().nth(at).unwrap().clone();
                        let slot: usize = iri.rsplit('/').next().unwrap().parse().unwrap();
                        let fresh = |rng: &mut StdRng| match rng.gen_range(0..3) {
                            0 => {
                                let shift = shifts[rng.gen_range(0..shifts.len())];
                                displaced(rng, shift)
                            }
                            1 => polluted(rng),
                            _ => row(rng),
                        };
                        match rng.gen_range(0..3) {
                            0 => {
                                let pops = fresh(&mut rng);
                                put(&mut index, &mut reference, slot | 1, pops, &mut rng);
                            }
                            1 => {
                                let pops = fresh(&mut rng);
                                put(&mut index, &mut reference, slot, pops, &mut rng);
                            }
                            _ if reference.len() > 1 => {
                                index.remove(&iri);
                                reference.remove(&iri);
                            }
                            _ => {}
                        }
                        index.settle();
                    }
                }
            }
            assert!(drawn_admitted > 0, "no drawn query admits a row of {n}");
        }
        // Every path the walk has was taken.
        let skips = SKIPS.with(|skips| skips.get());
        println!("skips per level, then begun mid-cell: {skips:?}");
        assert!(skips.iter().all(|&n| n > 10), "{skips:?}");
        assert!(
            near_misses > 100 && unseen_first > 10,
            "{near_misses} {unseen_first}"
        );
        assert!(planted_pulls > 1_000, "{planted_pulls}");
    }

    /// A template's journal rows are its rows in every bucket that holds
    /// one — the same as searching every bucket — through publishes,
    /// moves to another signature, republishes and retractions.
    #[test]
    fn journal_rows_are_the_rows_of_every_bucket_holding_the_template() {
        let mut rng = StdRng::seed_from_u64(0x70_0B5E);
        let mut index = SigIndex::default();
        let iri_of = |n: usize| format!("http://galo/kb/template/{n:03}");
        for _ in 0..2_000 {
            let iri = iri_of(rng.gen_range(0..40));
            if rng.gen_bool(0.2) {
                index.remove(&iri);
            } else {
                let signature = rng.gen_range(0..6);
                index.upsert(signature, &iri, "w1", entries(&row(&mut rng)));
            }
            for n in 0..40 {
                let iri = iri_of(n);
                let mut rows = Vec::new();
                index.journal_rows(&iri, &mut rows);
                let mut got: Vec<u64> = rows.iter().map(JournalRow::signature).collect();
                got.sort_unstable();
                let mut want: Vec<u64> = (index.buckets.iter())
                    .filter(|(_, bucket)| bucket.find(&iri).is_ok())
                    .map(|(&signature, _)| signature)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{iri}");
            }
        }
        assert!(index.buckets.values().all(|bucket| !bucket.iris.is_empty()));
    }

    /// One row per entry of `rows` under [`SIG`], in that order, from a
    /// bucket built through the index and settled.
    fn bucket_of(rows: impl IntoIterator<Item = Vec<RefPop>>) -> SigIndex {
        let mut index = SigIndex::default();
        for (n, pops) in rows.into_iter().enumerate() {
            let iri = format!("http://galo/kb/template/{n:07}");
            index.upsert(SIG, &iri, "", entries(&pops));
        }
        index.settle();
        index
    }

    fn plain(pop_type: &'static str, lo: f64, hi: f64) -> RefPop {
        RefPop {
            pop_type,
            cardinality: Range { lo, hi },
            scan: None,
        }
    }

    /// The work a pull does stays near flat as the bucket grows: the same
    /// 32 matchable rows among 1 k and among 16 k displaced rows. And
    /// where no block can be skipped, the summary costs little on top of
    /// the rows.
    #[test]
    fn examined_per_pull_stays_flat_as_the_bucket_grows() {
        let checks = [
            PopCheck::card("HSJOIN", 500.0),
            PopCheck::card("TBSCAN", 50.0),
        ];
        let query = AdmissionQuery::exact(&checks);
        let matchable = || vec![plain("HSJOIN", 100.0, 1e3), plain("TBSCAN", 10.0, 100.0)];
        let per_pull = |displaced: usize| {
            let rows = displaced + 32;
            let index = bucket_of((0..rows).map(|n| {
                if n % (rows / 32) == rows / 64 {
                    return matchable();
                }
                let shift = 1e9 + 10.0 * n as f64;
                vec![
                    plain("HSJOIN", shift, shift + 1.0),
                    plain("TBSCAN", shift, shift + 1.0),
                ]
            }));
            let mut after: Option<String> = None;
            let (mut stats, mut pulls) = (AdmissionStats::default(), 0);
            loop {
                pulls += 1;
                let Some(iri) = index.next_admitting(SIG, &query, after.as_deref(), &mut stats)
                else {
                    break;
                };
                after = Some(iri.to_string());
            }
            assert_eq!(pulls, 33, "every matchable row admitted");
            assert_eq!(stats.considered, rows);
            println!(
                "{rows} rows: {stats:?}, {:.1} examined a pull",
                stats.examined as f64 / 33.0
            );
            stats.examined as f64 / pulls as f64
        };
        let (small, large) = (per_pull(1_000), per_pull(16_000));
        assert!(
            large <= 2.0 * small,
            "{small:.1} → {large:.1} examined a pull"
        );

        // Every hull admits check 0 (two operators far apart, the value
        // in the gap), so no block is skipped; a few rows admit.
        let rows = 4_000;
        let index = bucket_of((0..rows).map(|n| {
            let mut pops = vec![plain("HSJOIN", 1.0, 2.0), plain("HSJOIN", 1e6, 2e6)];
            if n % 500 == 0 {
                pops.push(plain("HSJOIN", 100.0, 1e3));
            }
            pops
        }));
        let query = AdmissionQuery::exact(&checks[..1]);
        let (admitted, stats) = drain(None, |after, stats| {
            index
                .next_admitting(SIG, &query, after, stats)
                .map(str::to_string)
        });
        assert_eq!((admitted.len(), stats.considered), (8, rows));
        let overhead = stats.examined as f64 / stats.considered as f64;
        assert!(overhead <= 1.15, "{stats:?}");
    }

    /// What admission reads of one stored stat: the stored bounds (a
    /// missing side left open) whatever the sketch beside them says, the
    /// sketch's envelope only when no bound is stored, and unbounded with
    /// neither.
    #[test]
    fn a_stat_admits_on_its_stored_bounds_else_its_sketch() {
        let mut sketch = StatSketch::from_range(10.0, 20.0);
        sketch.set_widen(2.0);
        let range = |lo, hi, sketch: Option<&StatSketch>| {
            let sketch = sketch.cloned();
            StatFacts { lo, hi, sketch }.range()
        };
        let stored = Range { lo: 1.0, hi: 3.0 };
        assert_eq!(range(Some(1.0), Some(3.0), Some(&sketch)), stored);
        assert_eq!(
            range(None, Some(3.0), Some(&sketch)),
            Range::from_bounds(None, Some(3.0))
        );
        assert_eq!(
            range(None, None, Some(&sketch)),
            Range { lo: 5.0, hi: 40.0 }
        );
        assert_eq!(range(None, None, None), Range::UNBOUNDED);
    }

    /// A query with no checks admits every row, one pull each, in IRI
    /// order: the walk's one path that reads no hull summary.
    #[test]
    fn a_query_without_checks_admits_every_row_in_order() {
        let index = bucket_of((0..3).map(|_| vec![plain("HSJOIN", 1.0, 2.0)]));
        let query = AdmissionQuery::exact(&[]);
        let (admitted, stats) = drain(None, |after, stats| {
            index
                .next_admitting(SIG, &query, after, stats)
                .map(str::to_string)
        });
        assert_eq!(admitted, index.iris(SIG));
        assert_eq!((stats.considered, stats.examined), (3, 3));
        assert_eq!(stats.rejects_card + stats.rejects_scan, 0);
    }
}
