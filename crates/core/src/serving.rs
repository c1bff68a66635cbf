//! The online serving tier — plan-fingerprint caching over the matching
//! engine.
//!
//! [`match_plan`](crate::match_plan) compiles and matches every plan from
//! scratch. In a serving deployment the same plans arrive over and over
//! (parameterized workloads re-submit structurally identical QGMs), so
//! this module puts a cache in front of the matcher, keyed by a
//! **plan fingerprint**, stamped with the knowledge base's **mutation
//! epoch** and re-validated, when the epoch moves, against its **change
//! journal**:
//!
//! * [`plan_fingerprint`] hashes everything the match outcome can depend
//!   on from the plan side — the full operator tree (kinds with their
//!   parameters, estimated cardinalities and costs, input wiring, sort
//!   orders), per-scan query qualifiers and belief statistics, and the
//!   [`MatchConfig`] (join threshold, sketch trim, near-miss factor).
//!   Two plans with equal fingerprints compile to the same segment checks
//!   and match the same templates.
//! * [`ProbeCache`] is a striped CLOCK cache. Each entry holds the
//!   plan's [`CompiledPlan`] (reused even when the outcome is stale) and optionally a full [`MatchReport`] stamped
//!   with the epoch it was computed at. Stripes are independent locks,
//!   so hot hits never contend with misses being inserted elsewhere.
//! * [`ServingTier::serve`] validates with one atomic load: the KB's
//!   epoch counter is a seqlock (even at rest, odd while a mutation is
//!   in flight — see [`KnowledgeBase::epoch`]), so a cached report
//!   stamped with even epoch `E` is current while the counter still
//!   reads `E`. A fresh match is published to the cache only when the
//!   epoch read before matching equals the (even) epoch read after — a
//!   result that provably overlapped no KB mutation. Every miss goes
//!   through [`match_compiled`], the one production matcher.
//! * A publish moves the epoch for every entry, but changes the outcome
//!   of few plans: only a segment whose admission query admits the
//!   changed template's signature-index row can pull it. So the report
//!   carries a **witness** — the producing knowledge base's change
//!   journal, which holds each recent generation's changed rows (a
//!   retraction's old row, a publish's new one, both for a refinement)
//!   or marks it opaque (clear, import, reindex, snapshot load). A
//!   stamp the epoch has passed is re-validated: when every generation
//!   since is journaled and no row of theirs passes the admission query
//!   of one of the plan's segments — run through the very cursor code
//!   the matcher pulls candidates with — the outcome is re-stamped and
//!   served. Anything else (an admitted row, an opaque generation, one
//!   nobody journaled because a raw endpoint write made it, a stamp the
//!   journal no longer reaches) is dropped, **never served**.
//!
//! The contract: a served outcome's rewrites are exactly what an uncached
//! match would produce at the epoch it is served at. Its work counters
//! are those of the match that produced it, which for a re-validated hit
//! ran at an earlier epoch.
//!
//! What a hit costs: one fingerprint walk over the QGM, one atomic
//! epoch load, one stripe lock, one report clone — no store session, no
//! index read, no allocation proportional to the knowledge base. A
//! re-validation adds one journal read and an admission test of each
//! journaled row against the plan's same-signature segments.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use galo_catalog::Database;
use galo_qgm::{PopKind, Qgm};
use galo_sql::ColRef;

use crate::kb::KnowledgeBase;
use crate::matching::{compile_plan, match_compiled, CompiledPlan, MatchConfig, MatchReport};
use crate::sigindex::ChangeJournal;

// ---------------------------------------------------------------------------
// Plan fingerprints
// ---------------------------------------------------------------------------

/// A word-at-a-time hash: each step rotates the state, xors in one `u64`
/// and multiplies by an odd constant. For a fixed word a step is a
/// bijection of the state, and for a fixed state an injection of the
/// word, so two inputs of one length that differ in one word end in
/// different states. [`finish`](Self::finish) is a bijective avalanche,
/// so the stripe index (`fingerprint % stripes`) sees every input bit.
/// Inlined rather than shared with `galo_rdf`'s interner hash: the two
/// keyspaces are unrelated and must be free to evolve apart.
struct WordHash(u64);

impl WordHash {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    /// 2⁶⁴ / φ, odd.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        WordHash(Self::SEED)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::MUL);
    }

    /// Framed by its length, then eight bytes a word (the last one
    /// zero-padded).
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// An optional column reference: its presence, then its two ids.
    fn column(&mut self, c: Option<ColRef>) {
        match c {
            None => self.word(0),
            Some(c) => {
                self.word(1 | u64::from(c.column.0) << 32);
                self.word(c.table_idx as u64);
            }
        }
    }

    /// The murmur3 finalizer: every output bit depends on every state bit.
    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Fingerprint a plan for cache keying: a 64-bit word-at-a-time hash
/// (`WordHash`) over every input the match outcome depends on from the
/// query side, one `u64` per step.
///
/// Covered: the match configuration (join threshold, sketch trim,
/// near-miss factor — folded into the key so one cache safely serves
/// mixed configurations), the operator
/// tree (ids, kinds *with their parameters* — which index, fetch flag,
/// bloom flag, sort key — estimated cardinality and cost, input edges,
/// output order), and per scan the query qualifier plus the belief
/// statistics (`row_count`/`pages`/`row_size`) the range tests are built
/// from. Strings and input lists are framed by their length, so the words
/// hashed spell the inputs unambiguously. Statistics are hashed, not
/// referenced: a belief refresh changes the fingerprint, so stale entries
/// become unreachable rather than wrong.
///
/// Equal fingerprints ⇒ identical segment checks and identical admitted
/// templates, unless two different inputs collide. Inputs of one length
/// that differ in a single word never collide; any other pair collides
/// with the probability of two random 64-bit values (about 2⁻⁶⁴), and a
/// collision serves a wrong-but-well-formed report, the same exposure as
/// any fingerprint-keyed plan cache.
pub fn plan_fingerprint(db: &Database, qgm: &Qgm, cfg: &MatchConfig) -> u64 {
    let mut h = WordHash::new();
    h.word(cfg.join_threshold as u64);
    h.word(cfg.sketch_trim.to_bits());
    h.word(cfg.near_miss_factor.to_bits());
    h.word(u64::from(qgm.root().0));
    for (id, pop) in qgm.pops() {
        h.word(u64::from(id.0) | u64::from(pop.op_id) << 32);
        match &pop.kind {
            PopKind::Return => h.word(2),
            PopKind::TbScan { table } => {
                h.word(3);
                h.word(*table as u64);
            }
            PopKind::IxScan {
                table,
                index,
                fetch,
            } => {
                h.word(4 | u64::from(*fetch) << 8 | u64::from(index.0) << 32);
                h.word(*table as u64);
            }
            PopKind::NlJoin => h.word(5),
            PopKind::HsJoin { bloom } => h.word(6 | u64::from(*bloom) << 8),
            PopKind::MsJoin => h.word(7),
            PopKind::Sort { key } => {
                h.word(8);
                h.column(*key);
            }
            PopKind::Filter => h.word(9),
        }
        h.word(pop.est_card.to_bits());
        h.word(pop.est_cost.to_bits());
        h.word(pop.inputs.len() as u64);
        for input in &pop.inputs {
            h.word(u64::from(input.0));
        }
        h.column(pop.order);
        if let Some(t) = pop.kind.scan_table() {
            let tref = &qgm.query.tables[t];
            h.bytes(tref.qualifier.as_bytes());
            let stats = db.belief.table(tref.table);
            h.word(stats.row_count);
            h.word(stats.pages);
            h.word(u64::from(stats.row_size));
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The striped CLOCK cache
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// Lookups answered from a cached outcome that holds at the lookup's
    /// epoch (stamped at it, or re-validated to it).
    pub hits: u64,
    /// Lookups that found no servable outcome (cold, compiled-only, or
    /// stale). Hit rate = `hits / (hits + misses)`.
    pub misses: u64,
    /// Cached outcomes dropped because the KB epoch had moved past them
    /// and their witness could not re-validate them.
    pub stale_drops: u64,
    /// Cache entries inserted.
    pub insertions: u64,
    /// Cache entries evicted by the CLOCK hand.
    pub evictions: u64,
}

/// What a cache lookup produced.
pub enum CacheLookup {
    /// A current outcome: the report (with `cache_hit` set) can be
    /// served as-is, valid at the epoch the lookup validated against
    /// (its counters are those of the match that produced it).
    Hit(MatchReport),
    /// The plan's [`CompiledPlan`] is cached but no current outcome is:
    /// skip [`compile_plan`], run [`match_compiled`].
    Compiled(Arc<CompiledPlan>),
    /// Nothing cached for this fingerprint.
    Miss,
}

struct CacheEntry {
    fingerprint: u64,
    compiled: Arc<CompiledPlan>,
    /// The full match outcome. `None` after a stale drop — the compiled
    /// IR stays.
    outcome: Option<Outcome>,
    /// CLOCK reference bit.
    referenced: bool,
}

/// A cached match outcome and what vouches for it.
struct Outcome {
    /// The (even) epoch the report is known current at: the one it was
    /// computed at, or a later one it was re-validated at.
    stamp: u64,
    /// Served by clone; it carries no witness of its own.
    report: MatchReport,
    /// The change journal of the knowledge base that produced the report
    /// (`None` for a report [`match_compiled`] did not produce, which
    /// therefore drops as soon as the epoch moves).
    witness: Option<Arc<ChangeJournal>>,
}

impl Outcome {
    /// Whether the outcome is still what a match of `plan` would produce
    /// at the later `epoch`: every generation since the stamp journaled,
    /// and no row of theirs one of the plan's segments would pull.
    fn holds_at(&self, plan: &CompiledPlan, epoch: u64) -> bool {
        self.stamp < epoch
            && self
                .witness
                .as_ref()
                .is_some_and(|journal| journal.clears(self.stamp, epoch, |row| plan.pulls(row)))
    }
}

struct Stripe {
    map: HashMap<u64, usize>,
    slots: Vec<Option<CacheEntry>>,
    hand: usize,
    capacity: usize,
}

impl Stripe {
    /// A slot for one insertion: a fresh one while the stripe has room,
    /// else the CLOCK sweep's victim (or a hole it passes).
    fn slot_for_insert(&mut self) -> usize {
        if self.slots.len() < self.capacity {
            self.slots.push(None);
            return self.slots.len() - 1;
        }
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match &mut self.slots[i] {
                Some(e) if e.referenced => e.referenced = false,
                _ => return i,
            }
        }
    }

    /// Insert an entry, handing back the one it evicted. Freeing that —
    /// an `Arc<CompiledPlan>` plus a `MatchReport` —
    /// is the caller's job *after* it lets go of the stripe lock, so no
    /// other serve on the stripe waits for a deallocation.
    #[must_use = "drop the evicted entry after releasing the stripe lock"]
    fn insert(&mut self, entry: CacheEntry) -> Option<CacheEntry> {
        let slot = self.slot_for_insert();
        let fingerprint = entry.fingerprint;
        let evicted = self.slots[slot].replace(entry);
        if let Some(old) = &evicted {
            self.map.remove(&old.fingerprint);
        }
        self.map.insert(fingerprint, slot);
        evicted
    }
}

/// The fingerprint-keyed outcome cache: `stripes` independent CLOCK caches
/// of `stripe_capacity` entries each, routed by fingerprint. Lookups on
/// different stripes never contend; within a stripe the critical section
/// is a hash lookup plus (on hit) one report clone.
pub struct ProbeCache {
    stripes: Vec<Mutex<Stripe>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_drops: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ProbeCache {
    /// 8 stripes × 64 entries — 512 distinct plans, sized for the
    /// workload suites (≤ ~100 distinct plans each) with slack.
    fn default() -> Self {
        ProbeCache::new(8, 64)
    }
}

impl ProbeCache {
    /// A cache with `stripes` independent stripes of `stripe_capacity`
    /// entries each (both clamped to at least 1).
    pub fn new(stripes: usize, stripe_capacity: usize) -> Self {
        let n = stripes.max(1);
        ProbeCache {
            stripes: (0..n)
                .map(|_| {
                    Mutex::new(Stripe {
                        map: HashMap::new(),
                        slots: Vec::new(),
                        hand: 0,
                        capacity: stripe_capacity.max(1),
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stripe(&self, fingerprint: u64) -> MutexGuard<'_, Stripe> {
        let i = (fingerprint % self.stripes.len() as u64) as usize;
        self.stripes[i]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up a fingerprint, validating any cached outcome against
    /// `epoch` (the KB epoch the caller just loaded).
    ///
    /// An outcome is served only when `epoch` is even (no mutation in
    /// flight) and the outcome holds at it. It does while its stamp equals
    /// `epoch` — the hot path, one compare. A stamp `epoch` has passed
    /// asks the outcome's witness, the producing knowledge base's change
    /// journal: if every generation since the stamp is journaled and none
    /// changed a row one of the plan's segments admits (under that
    /// segment's own admission query), no pull the matcher would make has
    /// changed, so the outcome is re-stamped to `epoch` and served.
    /// Otherwise — a row a segment admits, an opaque generation (clear,
    /// import, reindex, snapshot load), one nobody journaled (a raw
    /// endpoint write), a stamp older than the journal reaches — the
    /// outcome is dropped on the spot. An odd `epoch` serves nothing but
    /// also drops nothing — the in-flight mutation may yet commit as a
    /// no-op and restore the stamped epoch.
    pub fn lookup(&self, fingerprint: u64, epoch: u64) -> CacheLookup {
        let mut stripe = self.stripe(fingerprint);
        let Some(&slot) = stripe.map.get(&fingerprint) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss;
        };
        let entry = stripe.slots[slot].as_mut().expect("mapped slot occupied");
        entry.referenced = true;
        if let Some(outcome) = entry.outcome.as_mut().filter(|_| epoch.is_multiple_of(2)) {
            if outcome.stamp != epoch && outcome.holds_at(&entry.compiled, epoch) {
                outcome.stamp = epoch;
            }
            if outcome.stamp == epoch {
                let mut served = outcome.report.clone();
                served.cache_hit = true;
                served.match_ms = 0.0;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return CacheLookup::Hit(served);
            }
            entry.outcome = None;
            self.stale_drops.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CacheLookup::Compiled(Arc::clone(&entry.compiled))
    }

    /// Cache a compiled plan for a fingerprint. If another thread raced
    /// the insert, the incumbent wins and is returned — both sides then
    /// share one `Arc`, and only one of the two compiled plans is kept.
    pub fn insert_compiled(
        &self,
        fingerprint: u64,
        compiled: Arc<CompiledPlan>,
    ) -> Arc<CompiledPlan> {
        let mut stripe = self.stripe(fingerprint);
        if let Some(&slot) = stripe.map.get(&fingerprint) {
            let entry = stripe.slots[slot].as_ref().expect("mapped slot occupied");
            return Arc::clone(&entry.compiled);
        }
        let evicted = stripe.insert(CacheEntry {
            fingerprint,
            compiled: Arc::clone(&compiled),
            outcome: None,
            referenced: false,
        });
        drop(stripe); // `evicted` is freed on return, outside the lock
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        compiled
    }

    /// Publish a match outcome computed at (even) `epoch`. Re-inserts
    /// the entry if the CLOCK hand evicted it since the lookup; an
    /// existing outcome is only replaced by one at least as new. The
    /// report's witness moves out of the cached copy into the entry, so a
    /// hit clones the report alone.
    pub fn store_outcome(
        &self,
        fingerprint: u64,
        compiled: &Arc<CompiledPlan>,
        epoch: u64,
        report: &MatchReport,
    ) {
        debug_assert!(
            epoch.is_multiple_of(2),
            "outcomes are stamped at even epochs"
        );
        let outcome = || {
            let mut report = report.clone();
            let witness = report.witness.take();
            Outcome {
                stamp: epoch,
                report,
                witness,
            }
        };
        let mut stripe = self.stripe(fingerprint);
        if let Some(&slot) = stripe.map.get(&fingerprint) {
            let entry = stripe.slots[slot].as_mut().expect("mapped slot occupied");
            if entry
                .outcome
                .as_ref()
                .is_none_or(|held| epoch >= held.stamp)
            {
                entry.outcome = Some(outcome());
            }
            return;
        }
        let evicted = stripe.insert(CacheEntry {
            fingerprint,
            compiled: Arc::clone(compiled),
            outcome: Some(outcome()),
            referenced: false,
        });
        drop(stripe); // `evicted` is freed on return, outside the lock
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently cached, across all stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .map
                    .len()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (relaxed loads — exact under quiescence,
    /// approximate while serving).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The serving tier
// ---------------------------------------------------------------------------

/// One served plan.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The plan's cache key.
    pub fingerprint: u64,
    /// `Some(e)` — the report is validated at even KB epoch `e`: its
    /// rewrites are exactly what an uncached match would produce against
    /// the KB state at that epoch. A miss was matched at `e` and
    /// (re)published to the cache; a hit was matched at `e` or at an
    /// earlier epoch that `e` changed nothing for, and its work counters
    /// are that match's. `None` — KB
    /// mutations overlapped both match attempts; every candidate in the
    /// report was still matched against one state of its index row, but
    /// the report is not attributable to one epoch and was not cached.
    pub epoch: Option<u64>,
    /// The match outcome (`report.cache_hit` tells hit from miss).
    pub report: MatchReport,
}

/// The serving front end: a [`ProbeCache`] over one database, knowledge
/// base and [`MatchConfig`]. All methods take `&self`; the tier is
/// shared across serving threads by reference.
pub struct ServingTier<'a> {
    db: &'a Database,
    kb: &'a KnowledgeBase,
    cfg: MatchConfig,
    cache: ProbeCache,
}

impl<'a> ServingTier<'a> {
    /// A tier with the default cache geometry (8 stripes × 64 entries).
    pub fn new(db: &'a Database, kb: &'a KnowledgeBase, cfg: MatchConfig) -> Self {
        ServingTier::with_cache(db, kb, cfg, ProbeCache::default())
    }

    /// A tier over an explicitly sized cache.
    pub fn with_cache(
        db: &'a Database,
        kb: &'a KnowledgeBase,
        cfg: MatchConfig,
        cache: ProbeCache,
    ) -> Self {
        ServingTier { db, kb, cfg, cache }
    }

    /// The configuration every served plan is matched under.
    pub fn config(&self) -> &MatchConfig {
        &self.cfg
    }

    /// The underlying cache (counter inspection, direct probing in
    /// tests).
    pub fn cache(&self) -> &ProbeCache {
        &self.cache
    }

    /// Serve one plan.
    ///
    /// Hit path: fingerprint, one epoch load, one stripe lock, clone.
    /// Miss path: [`match_compiled`] (compiling first on a cold plan),
    /// then publish-if-stable — the outcome is cached only when the
    /// epoch read before the match equals the even epoch read after it.
    /// One retry absorbs a transient publish; a second overlap returns
    /// the (still internally consistent) report unvalidated.
    pub fn serve(&self, qgm: &Qgm) -> ServeOutcome {
        let fingerprint = plan_fingerprint(self.db, qgm, &self.cfg);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let e1 = self.kb.epoch();
            let compiled = match self.cache.lookup(fingerprint, e1) {
                CacheLookup::Hit(report) => {
                    return ServeOutcome {
                        fingerprint,
                        epoch: Some(e1),
                        report,
                    }
                }
                CacheLookup::Compiled(c) => c,
                CacheLookup::Miss => self
                    .cache
                    .insert_compiled(fingerprint, Arc::new(compile_plan(self.db, qgm, &self.cfg))),
            };
            let report = match_compiled(self.db, self.kb, qgm, &compiled);
            let e2 = self.kb.epoch();
            if e1 == e2 && e1.is_multiple_of(2) {
                self.cache
                    .store_outcome(fingerprint, &compiled, e1, &report);
                return ServeOutcome {
                    fingerprint,
                    epoch: Some(e1),
                    report,
                };
            }
            if attempt >= 2 {
                return ServeOutcome {
                    fingerprint,
                    epoch: None,
                    report,
                };
            }
        }
    }

    /// Record one served plan's runtime actuals into the knowledge
    /// base's feedback buffers — a buffer push, safe on the serve path
    /// (no store access, no epoch movement, no cache effect). Returns
    /// the number of observations buffered. Fold them later with
    /// [`apply_feedback`](Self::apply_feedback) or let
    /// [`maybe_apply_feedback`](Self::maybe_apply_feedback) batch them.
    pub fn record_feedback(
        &self,
        qgm: &Qgm,
        report: &MatchReport,
        actuals: &galo_executor::Actuals,
    ) -> usize {
        self.kb
            .record_feedback(self.db, qgm, &self.cfg, report, actuals)
    }

    /// Fold buffered feedback into the knowledge base when at least a
    /// batch ([`FeedbackOptions::batch_size`](crate::FeedbackOptions::batch_size))
    /// of observations is pending — the off-the-serve-path application
    /// discipline: call it between serves (or from a maintenance
    /// thread); every effective refinement advances the epoch and drops
    /// the cached outcomes it would invalidate.
    pub fn maybe_apply_feedback(&self) -> Option<crate::FeedbackReport> {
        let collector = self.kb.feedback();
        (collector.pending() >= collector.options().batch_size).then(|| self.kb.apply_feedback())
    }

    /// Fold all buffered feedback now, regardless of batch size.
    pub fn apply_feedback(&self) -> crate::FeedbackReport {
        self.kb.apply_feedback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};
    use galo_optimizer::Optimizer;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn tiny_plan() -> (Database, Qgm) {
        let mut b = DatabaseBuilder::new("serve_unit", SystemConfig::default_1gb());
        b.add_table(
            Table::new(
                "T",
                vec![
                    col("A", ColumnType::Integer),
                    col("B", ColumnType::Varchar(8)),
                ],
            ),
            10_000,
            vec![
                ColumnStats::uniform(10_000, 0.0, 10_000.0, 4),
                ColumnStats::uniform(50, 0.0, 1e6, 8),
            ],
        );
        let db = b.build();
        let q = galo_sql::parse(&db, "q", "SELECT a FROM t WHERE b = 'X'").unwrap();
        let qgm = Optimizer::new(&db).optimize(&q).unwrap();
        (db, qgm)
    }

    fn fp(db: &Database, qgm: &Qgm, cfg: &MatchConfig) -> u64 {
        plan_fingerprint(db, qgm, cfg)
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let (db, qgm) = tiny_plan();
        let base = MatchConfig::default();
        assert_eq!(fp(&db, &qgm, &base), fp(&db, &qgm, &base));
        let threshold = MatchConfig {
            join_threshold: 2,
            ..MatchConfig::default()
        };
        let trim = MatchConfig {
            sketch_trim: 0.05,
            ..MatchConfig::default()
        };
        let near_miss = MatchConfig {
            near_miss_factor: 4.0,
            ..MatchConfig::default()
        };
        let keys = [
            fp(&db, &qgm, &base),
            fp(&db, &qgm, &threshold),
            fp(&db, &qgm, &trim),
            fp(&db, &qgm, &near_miss),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "configs {i} and {j} collide");
            }
        }
        // A structurally different plan keys differently. (Two queries
        // whose plans, estimates and qualifiers coincide key the same —
        // that is the point of a plan-shaped key: their match outcomes
        // are identical.)
        let q2 = galo_sql::parse(&db, "q2", "SELECT a FROM t").unwrap();
        let qgm2 = Optimizer::new(&db).optimize(&q2).unwrap();
        assert_ne!(fp(&db, &qgm, &base), fp(&db, &qgm2, &base));
    }

    /// FNV-1a a byte at a time, as the fingerprint hashed before it took
    /// a word a step.
    struct Fnv(u64);

    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
    }

    /// The byte-wise fingerprint the word-wise one replaced: the same
    /// inputs in the same order, unframed.
    fn fnv_reference(db: &Database, qgm: &Qgm, cfg: &MatchConfig) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.u64(cfg.join_threshold as u64);
        h.u64(cfg.sketch_trim.to_bits());
        h.u64(cfg.near_miss_factor.to_bits());
        h.u64(qgm.root().0 as u64);
        for (id, pop) in qgm.pops() {
            h.u64(id.0 as u64);
            h.u64(pop.op_id as u64);
            match &pop.kind {
                PopKind::Return => h.u64(2),
                PopKind::TbScan { table } => {
                    h.u64(3);
                    h.u64(*table as u64);
                }
                PopKind::IxScan {
                    table,
                    index,
                    fetch,
                } => {
                    h.u64(4);
                    h.u64(*table as u64);
                    h.u64(index.0 as u64);
                    h.u64(*fetch as u64);
                }
                PopKind::NlJoin => h.u64(5),
                PopKind::HsJoin { bloom } => {
                    h.u64(6);
                    h.u64(*bloom as u64);
                }
                PopKind::MsJoin => h.u64(7),
                PopKind::Sort { key } => {
                    h.u64(8);
                    match key {
                        None => h.u64(0),
                        Some(c) => {
                            h.u64(1);
                            h.u64(c.table_idx as u64);
                            h.u64(c.column.0 as u64);
                        }
                    }
                }
                PopKind::Filter => h.u64(9),
            }
            h.u64(pop.est_card.to_bits());
            h.u64(pop.est_cost.to_bits());
            for input in &pop.inputs {
                h.u64(input.0 as u64);
            }
            match &pop.order {
                None => h.u64(0),
                Some(c) => {
                    h.u64(1);
                    h.u64(c.table_idx as u64);
                    h.u64(c.column.0 as u64);
                }
            }
            if let Some(t) = pop.kind.scan_table() {
                let tref = &qgm.query.tables[t];
                h.bytes(tref.qualifier.as_bytes());
                let stats = db.belief.table(tref.table);
                h.u64(stats.row_count);
                h.u64(stats.pages);
                h.u64(stats.row_size as u64);
            }
        }
        h.0
    }

    /// Configurations the differentials key plans under: the default and
    /// one change of each kind of field.
    fn configs() -> Vec<MatchConfig> {
        vec![
            MatchConfig::default(),
            MatchConfig {
                join_threshold: 2,
                ..MatchConfig::default()
            },
            MatchConfig {
                sketch_trim: 0.05,
                ..MatchConfig::default()
            },
            MatchConfig {
                near_miss_factor: 4.0,
                ..MatchConfig::default()
            },
        ]
    }

    #[test]
    fn fingerprint_classes_equal_the_fnv_reference() {
        // Old key -> new key and back: each must be a function, so two
        // keyings are equal on exactly the same pairs.
        let mut forward: HashMap<u64, u64> = HashMap::new();
        let mut backward: HashMap<u64, u64> = HashMap::new();
        let mut keyed = 0;
        for set in crate::test_plans::plan_sets() {
            for plan in &set.plans {
                // The same plan under another query name is the same key.
                let mut renamed = plan.clone();
                renamed.query.name.push_str("_again");
                for cfg in configs() {
                    for qgm in [plan, &renamed] {
                        let (old, new) =
                            (fnv_reference(&set.db, qgm, &cfg), fp(&set.db, qgm, &cfg));
                        assert_eq!(
                            *forward.entry(old).or_insert(new),
                            new,
                            "an old class split"
                        );
                        assert_eq!(
                            *backward.entry(new).or_insert(old),
                            old,
                            "two old classes merged"
                        );
                        keyed += 1;
                    }
                }
            }
        }
        assert_eq!(forward.len(), backward.len());
        assert!(
            forward.len() * 2 < keyed && forward.len() > 1_000,
            "{} classes over {keyed} keyings",
            forward.len()
        );
    }

    /// `qgm` rebuilt through the builder, `edit` applied to each operator
    /// (by arena index) before it is added. The `RETURN` the builder adds
    /// is not edited.
    fn rebuilt(qgm: &Qgm, edit: impl Fn(usize, &mut galo_qgm::Pop)) -> Qgm {
        let mut b = Qgm::builder(qgm.query.clone());
        let mut top = None;
        for (id, pop) in qgm.pops().filter(|&(id, _)| id != qgm.root()) {
            let mut pop = pop.clone();
            edit(id.0 as usize, &mut pop);
            let at = b.add(pop.kind, pop.inputs, pop.est_card, pop.est_cost);
            b.set_order(at, pop.order);
            top = Some(at);
        }
        b.finish(top.expect("an operator under the RETURN"))
    }

    #[test]
    fn every_input_field_moves_the_fingerprint() {
        use galo_catalog::{ColumnId, IndexId};
        use galo_sql::ColRef;
        let set = &crate::test_plans::plan_sets()[0];
        let base = set.plans.last().expect("the bushy plan").clone();
        let db = &set.db;
        let cfg = MatchConfig::default();
        let keys = |db: &Database, qgm: &Qgm, cfg: &MatchConfig| {
            (fp(db, qgm, cfg), fnv_reference(db, qgm, cfg))
        };
        let before = keys(db, &base, &cfg);
        assert_eq!(
            before,
            keys(db, &rebuilt(&base, |_, _| {}), &cfg),
            "a rebuild is the same plan"
        );
        let at = |pred: fn(&PopKind) -> bool| {
            base.pops()
                .find(|(_, p)| pred(&p.kind))
                .map(|(id, _)| id.0 as usize)
                .unwrap()
        };
        let (tb, ix, hs, sort, ms, nl) = (
            at(|k| matches!(k, PopKind::TbScan { .. })),
            at(|k| matches!(k, PopKind::IxScan { .. })),
            at(|k| matches!(k, PopKind::HsJoin { .. })),
            at(|k| matches!(k, PopKind::Sort { .. })),
            at(|k| matches!(k, PopKind::MsJoin)),
            at(|k| matches!(k, PopKind::NlJoin)),
        );
        type Edit = Box<dyn Fn(usize, &mut galo_qgm::Pop)>;
        let on = |target: usize, f: fn(&mut galo_qgm::Pop)| -> Edit {
            Box::new(move |i, pop| {
                if i == target {
                    f(pop)
                }
            })
        };
        let edits: Vec<(&str, Edit)> = vec![
            ("kind", on(ms, |p| p.kind = PopKind::NlJoin)),
            (
                "TBSCAN table",
                on(tb, |p| p.kind = PopKind::TbScan { table: 3 }),
            ),
            (
                "IXSCAN table",
                on(ix, |p| {
                    if let PopKind::IxScan { table, .. } = &mut p.kind {
                        *table = 0;
                    }
                }),
            ),
            (
                "IXSCAN index",
                on(ix, |p| {
                    if let PopKind::IxScan { index, .. } = &mut p.kind {
                        *index = IndexId(7);
                    }
                }),
            ),
            (
                "IXSCAN fetch",
                on(ix, |p| {
                    if let PopKind::IxScan { fetch, .. } = &mut p.kind {
                        *fetch = !*fetch;
                    }
                }),
            ),
            (
                "HSJOIN bloom",
                on(hs, |p| p.kind = PopKind::HsJoin { bloom: true }),
            ),
            (
                "SORT key",
                on(sort, |p| p.kind = PopKind::Sort { key: None }),
            ),
            (
                "SORT key column",
                on(sort, |p| {
                    if let PopKind::Sort { key: Some(k) } = &mut p.kind {
                        k.column = ColumnId(k.column.0 + 1);
                    }
                }),
            ),
            (
                "SORT key table",
                on(sort, |p| {
                    if let PopKind::Sort { key: Some(k) } = &mut p.kind {
                        k.table_idx = 1;
                    }
                }),
            ),
            ("est_card", on(tb, |p| p.est_card *= 1.5)),
            ("est_cost", on(nl, |p| p.est_cost += 1.0)),
            (
                "order",
                on(hs, |p| {
                    p.order = Some(ColRef {
                        table_idx: 2,
                        column: ColumnId(1),
                    })
                }),
            ),
            ("order cleared", on(sort, |p| p.order = None)),
            ("inputs", on(ms, |p| p.inputs.reverse())),
        ];
        for (what, edit) in &edits {
            let after = keys(db, &rebuilt(&base, edit), &cfg);
            assert_ne!(after.0, before.0, "{what} must move the fingerprint");
            assert_ne!(after.1, before.1, "{what} moved the reference too");
        }
        let mut requalified = base.clone();
        requalified.query.tables[0].qualifier.push('X');
        assert_ne!(fp(db, &requalified, &cfg), before.0, "a qualifier");
        let table = base.query.tables[0].table;
        let stats: [fn(&mut galo_catalog::TableStats); 3] =
            [|s| s.row_count += 1, |s| s.pages += 1, |s| s.row_size += 1];
        for (i, change) in stats.iter().enumerate() {
            let mut refreshed = db.clone();
            change(refreshed.belief.table_mut(table));
            assert_ne!(
                fp(&refreshed, &base, &cfg),
                before.0,
                "belief statistic {i}"
            );
        }
        type ConfigEdit = fn(&mut MatchConfig);
        let config_edits: [(&str, ConfigEdit); 3] = [
            ("join_threshold", |c| c.join_threshold = 3),
            ("sketch_trim", |c| c.sketch_trim = 0.1),
            ("near_miss_factor", |c| c.near_miss_factor = 3.0),
        ];
        for (what, edit) in config_edits {
            let mut changed = MatchConfig::default();
            edit(&mut changed);
            assert_ne!(fp(db, &base, &changed), before.0, "{what}");
        }
    }

    #[test]
    fn fingerprints_spread_over_the_stripes() {
        // 1,024 distinct plans: the workload plans, then random plans of
        // the TPC-DS queries until there are enough.
        let sets = crate::test_plans::plan_sets();
        let cfg = MatchConfig::default();
        let mut keys: HashSet<u64> = sets
            .iter()
            .flat_map(|set| set.plans.iter().map(|p| fp(&set.db, p, &cfg)))
            .collect();
        let w = galo_workloads::tpcds::workload();
        let optimizer = Optimizer::new(&w.db);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5791);
        for q in w.queries.iter().cycle() {
            if keys.len() >= 1_024 {
                break;
            }
            if let Some(plan) = optimizer.random_plans(q).generate(&mut rng) {
                keys.insert(fp(&w.db, &plan, &cfg));
            }
        }
        // The default geometry's 8 stripes, routed by `fingerprint % 8`.
        assert_eq!(keys.len(), 1_024);
        let mut per_stripe = [0usize; 8];
        for &k in &keys {
            per_stripe[(k % 8) as usize] += 1;
        }
        assert!(
            per_stripe.iter().all(|&n| n <= 2 * 1_024 / 8),
            "stripes {per_stripe:?}"
        );
    }

    #[test]
    fn fingerprint_tracks_belief_statistics() {
        let (db, qgm) = tiny_plan();
        let cfg = MatchConfig::default();
        let before = fp(&db, &qgm, &cfg);
        let mut db2 = db;
        // Same plan tree, refreshed belief: the key must move so the old
        // entry becomes unreachable instead of stale.
        let t = db2.table_id("T").unwrap();
        db2.belief.table_mut(t).row_count *= 2;
        assert_ne!(before, fp(&db2, &qgm, &cfg));
    }

    #[test]
    fn clock_cache_evicts_unreferenced_first() {
        let (db, qgm) = tiny_plan();
        let cfg = MatchConfig::default();
        let cache = ProbeCache::new(1, 2);
        let compiled = Arc::new(compile_plan(&db, &qgm, &cfg));
        cache.insert_compiled(1, Arc::clone(&compiled));
        cache.insert_compiled(2, Arc::clone(&compiled));
        assert_eq!(cache.len(), 2);
        // Touch 1 so its reference bit is set, then overflow: the sweep
        // must clear 1's bit, pass it over, and evict 2.
        let _ = cache.lookup(1, 0);
        cache.insert_compiled(3, Arc::clone(&compiled));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(1, 0), CacheLookup::Compiled(_)));
        assert!(matches!(cache.lookup(2, 0), CacheLookup::Miss));
        assert!(matches!(cache.lookup(3, 0), CacheLookup::Compiled(_)));
        let c = cache.counters();
        assert_eq!(c.insertions, 3);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn stale_outcomes_drop_but_odd_epochs_preserve_them() {
        let (db, qgm) = tiny_plan();
        let cfg = MatchConfig::default();
        let cache = ProbeCache::new(1, 4);
        let compiled = Arc::new(compile_plan(&db, &qgm, &cfg));
        let report = MatchReport::default();
        cache.insert_compiled(7, Arc::clone(&compiled));
        cache.store_outcome(7, &compiled, 10, &report);
        assert!(matches!(cache.lookup(7, 10), CacheLookup::Hit(_)));
        // Odd epoch: mutation in flight — no hit, but no drop either
        // (the writer may commit as a no-op and restore epoch 10).
        assert!(matches!(cache.lookup(7, 11), CacheLookup::Compiled(_)));
        assert_eq!(cache.counters().stale_drops, 0);
        assert!(matches!(cache.lookup(7, 10), CacheLookup::Hit(_)));
        // Even epoch ahead of the stamp: provably stale, dropped for
        // good — epoch 10 never hits again.
        assert!(matches!(cache.lookup(7, 12), CacheLookup::Compiled(_)));
        assert_eq!(cache.counters().stale_drops, 1);
        assert!(matches!(cache.lookup(7, 10), CacheLookup::Compiled(_)));
    }

    /// An outcome the epoch has passed is re-stamped while the journal
    /// vouches for every generation since — here any journaled one, as the
    /// plan has no segment to admit a row — and dropped once the stamp
    /// lies more than the journal's depth back, or behind a generation a
    /// raw endpoint write made.
    #[test]
    fn stale_outcomes_revalidate_within_the_journal() {
        use crate::sigindex::JOURNAL_DEPTH;
        let (db, qgm) = tiny_plan();
        let kb = KnowledgeBase::new();
        let cfg = MatchConfig::default();
        let compiled = Arc::new(compile_plan(&db, &qgm, &cfg));
        assert_eq!(compiled.segment_count(), 0, "a scan: no join, no segment");
        let mut published = 0;
        let mut publish = |n: usize| {
            for _ in 0..n {
                let id = format!("t{published:03}");
                let no_rewrite = galo_qgm::GuidelineDoc::new(vec![]);
                kb.insert(&crate::kb::abstract_plan(
                    &db,
                    &qgm,
                    qgm.root(),
                    &no_rewrite,
                    id,
                ));
                published += 1;
            }
        };
        let cache = ProbeCache::new(1, 4);
        let report = match_compiled(&db, &kb, &qgm, &compiled);
        assert!(report.witness.is_some(), "the matcher attaches its witness");
        let stamp = kb.epoch();
        cache.store_outcome(1, &compiled, stamp, &report);
        cache.store_outcome(2, &compiled, stamp, &report);

        publish(JOURNAL_DEPTH);
        match cache.lookup(1, kb.epoch()) {
            CacheLookup::Hit(served) => assert!(served.witness.is_none(), "the entry keeps it"),
            _ => panic!("{JOURNAL_DEPTH} journaled generations re-validate"),
        }
        publish(1);
        assert!(matches!(
            cache.lookup(2, kb.epoch()),
            CacheLookup::Compiled(_)
        ));
        assert_eq!(
            cache.counters().stale_drops,
            1,
            "one generation past the depth"
        );
        assert!(matches!(cache.lookup(1, kb.epoch()), CacheLookup::Hit(_)));

        let raw = (
            galo_rdf::Term::iri("urn:raw"),
            galo_rdf::Term::iri("urn:note"),
            galo_rdf::Term::lit("x"),
        );
        kb.server().insert_triples([raw]);
        assert!(matches!(
            cache.lookup(1, kb.epoch()),
            CacheLookup::Compiled(_)
        ));
        assert_eq!(
            cache.counters().stale_drops,
            2,
            "a generation nobody journaled"
        );
        assert_eq!(cache.counters().hits, 2);
    }

    #[test]
    fn hit_reports_are_flagged_and_timeless() {
        let (db, qgm) = tiny_plan();
        let cfg = MatchConfig::default();
        let cache = ProbeCache::new(2, 4);
        let compiled = Arc::new(compile_plan(&db, &qgm, &cfg));
        let report = MatchReport {
            match_ms: 3.5,
            probes_executed: 2,
            ..MatchReport::default()
        };
        cache.store_outcome(9, &compiled, 4, &report);
        match cache.lookup(9, 4) {
            CacheLookup::Hit(served) => {
                assert!(served.cache_hit);
                assert_eq!(served.match_ms, 0.0);
                assert_eq!(served.probes_executed, 2);
            }
            _ => panic!("expected a hit"),
        }
    }
}
