//! The runtime-feedback loop (ROADMAP item 1): actual execution
//! statistics flow back into the stored per-template validity statistics.
//!
//! The paper's §3.2 keeps *historical estimated vs. actual* statistics
//! per template and notes that validity ranges "can be updated over the
//! time to account for cardinalities not observed before". Matching
//! always tests a template's stored ranges exactly; the feedback loop is
//! how those ranges grow, by observation rather than by a global
//! widening, optd-style (inject collectors, persist runtime actuals keyed
//! by plan/template, feed them back into admission). It is also how
//! patterns learned on one workload come to match another's plans (the
//! paper's Exp-2): one round over the other workload, with near-miss
//! tracking on, widens exactly the templates those plans nearly matched.
//!
//! 1. **Collect** — after a plan executes,
//!    [`KnowledgeBase::record_feedback`](crate::KnowledgeBase::record_feedback)
//!    pushes per-operator observations into this module's
//!    [`FeedbackCollector`], keyed by template IRI. Matched segments
//!    contribute ground truth (their estimate values fold
//!    unconditionally — a value that matched once must keep matching);
//!    unmatched segments contribute *near misses*: candidates that would
//!    have been admitted with every range widened by
//!    [`MatchConfig::near_miss_factor`](crate::MatchConfig::near_miss_factor)
//!    record the values they nearly admitted, band-gated so only values
//!    close to the stored envelope can widen it.
//! 2. **Fold** — [`KnowledgeBase::apply_feedback`](crate::KnowledgeBase::apply_feedback)
//!    drains the buffers (off the serve path — recording never touches
//!    the store) and applies each template's batch through
//!    [`KnowledgeBase::refine_template_stats`](crate::KnowledgeBase::refine_template_stats):
//!    in-band values are observed into the stored
//!    [`Stat`](crate::Stat)s (near-miss widening — the
//!    exact min/max grows to cover them), and when a template-operator
//!    type's observations concentrate inside its already-observed core,
//!    the statistic's multiplicative widen factor decays toward 1
//!    ([`DEFAULT_DECAY`]) — evidence-backed narrowing that never drops
//!    an exact observation.
//! 3. **Invalidate** — every effective refinement runs under one
//!    mutation scope and bumps the knowledge base's mutation epoch, so
//!    the serving tier's fingerprint cache drops every outcome computed
//!    against the pre-refinement statistics (zero stale hits, same
//!    seqlock discipline as template publishes).
//!
//! **Monotone safety.** Refinement never loses a previously-true match:
//! a matched segment's estimate values are folded into the exact
//! min/max core, observations only extend that core, and narrowing only
//! decays the widen factor (never below 1), so the envelope always
//! contains every recorded true match. Pinned by a proptest and a
//! never-lose differential in `tests/feedback_loop.rs`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use galo_stats::Range;

use crate::kb::ScanCheck;

/// Default decay applied when narrowing a statistic's widen factor and when
/// aging the per-type concentration weights between folds — the adaptive
/// cost model's convention (optd's `DEFAULT_DECAY`).
pub const DEFAULT_DECAY: f64 = 0.9;

/// Tuning knobs of the feedback loop, configured through
/// [`KbBuilder::feedback`](crate::KbBuilder::feedback).
#[derive(Debug, Clone)]
pub struct FeedbackOptions {
    /// Decay factor in `[0, 1]`: ages the concentration weights between
    /// folds and drives [`Stat::decay_widen`](crate::Stat::decay_widen)
    /// when narrowing fires.
    pub decay: f64,
    /// Pending-observation threshold at which the serving tier's
    /// [`maybe_apply_feedback`](crate::serving::ServingTier::maybe_apply_feedback)
    /// folds a batch into the knowledge base.
    pub batch_size: usize,
    /// Decayed inside-core weight a template-operator type must
    /// accumulate before a narrowing directive is issued for it.
    pub narrow_weight: f64,
    /// Cap on buffered observations per template; further
    /// observations are dropped (and counted) until the buffer drains.
    pub max_pending: usize,
}

impl Default for FeedbackOptions {
    fn default() -> Self {
        FeedbackOptions {
            decay: DEFAULT_DECAY,
            batch_size: 32,
            narrow_weight: 8.0,
            max_pending: 4096,
        }
    }
}

/// One recorded observation against one template: the values a segment
/// operator of `pop_type` carried, each with the band that gates whether
/// it may widen the stored envelope.
#[derive(Debug, Clone)]
pub struct PopObservation {
    /// Operator type the observation applies to (folded into every
    /// same-typed operator of the template whose envelope admits it).
    pub pop_type: String,
    /// `(value, band)` cardinality folds. A value folds into a
    /// template operator only when it lies within
    /// `[lo / band, hi · band]` of that operator's current envelope;
    /// `f64::INFINITY` folds unconditionally (recorded true matches).
    pub cards: Vec<(f64, f64)>,
    /// Scan-stat values (belief row size / fpages / base cardinality)
    /// the segment's probe would test, when the operator is a scan.
    pub scan: Option<ScanCheck>,
    /// Band for the scan-stat trio, gated jointly: either all three
    /// values are in band (and fold), or none do.
    pub scan_band: f64,
}

/// One drained batch of refinements for a single template — the input of
/// [`KnowledgeBase::refine_template_stats`](crate::KnowledgeBase::refine_template_stats).
#[derive(Debug, Clone, Default)]
pub struct TemplateRefinement {
    /// Observations to fold into the template's statistics.
    pub observations: Vec<PopObservation>,
    /// `(pop_type, decay)` narrowing directives, applied *after* the
    /// folds: every same-typed operator's cardinality statistic decays its
    /// widen factor toward 1.
    pub narrows: Vec<(String, f64)>,
}

/// What one [`refine_template_stats`](crate::KnowledgeBase::refine_template_stats)
/// call did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefineOutcome {
    /// True when any stored statistic changed (and therefore the mutation
    /// epoch advanced and the refinement counter was bumped).
    pub changed: bool,
    /// Per-operator fold attempts that passed their band gate.
    pub values_folded: usize,
    /// Per-operator fold attempts dropped by the band gate (the
    /// observation was too far from the stored envelope to widen it).
    pub values_dropped: usize,
    /// Narrowing directives that actually shrank a widen factor.
    pub narrowed: usize,
}

/// Aggregate outcome of one [`apply_feedback`](crate::KnowledgeBase::apply_feedback)
/// batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeedbackReport {
    /// Templates a drained refinement batch was applied to.
    pub templates_examined: usize,
    /// Templates whose stored statistics actually changed.
    pub templates_refined: usize,
    /// Per-operator folds admitted across all templates.
    pub values_folded: usize,
    /// Per-operator folds dropped by the band gate.
    pub values_dropped: usize,
    /// Widen factors actually narrowed.
    pub narrowed: usize,
}

impl FeedbackReport {
    /// Fold another batch's outcome in.
    pub fn absorb(&mut self, other: FeedbackReport) {
        self.templates_examined += other.templates_examined;
        self.templates_refined += other.templates_refined;
        self.values_folded += other.values_folded;
        self.values_dropped += other.values_dropped;
        self.narrowed += other.narrowed;
    }
}

/// Concentration state of one (template, operator type):
/// the core of estimate values recorded so far and the decayed weight of
/// observations that landed inside it.
#[derive(Debug, Default)]
struct TypeState {
    /// Exact range of every estimate value recorded for this type —
    /// the collector-side "already observed" core.
    core: Option<Range>,
    /// Decayed count of observations that fell inside the core, aged by
    /// `decay` at every fold.
    weight: f64,
    /// Inside-core observations since the last fold.
    inside_pending: usize,
}

#[derive(Debug, Default)]
struct TemplateBuffer {
    pending: Vec<PopObservation>,
    types: HashMap<String, TypeState>,
}

/// Decayed observation buffers keyed by template IRI. Owned
/// by the [`KnowledgeBase`](crate::KnowledgeBase); recording is a
/// buffer push under one mutex — no store access, no epoch movement —
/// so it is safe on the serve path, while
/// [`drain`](FeedbackCollector::drain) hands the accumulated batches to
/// the refinement path in deterministic (sorted-key) order.
#[derive(Debug)]
pub struct FeedbackCollector {
    options: FeedbackOptions,
    buffers: Mutex<BTreeMap<String, TemplateBuffer>>,
    pending: AtomicUsize,
    dropped: AtomicUsize,
}

impl FeedbackCollector {
    /// A collector with the given options.
    pub fn new(options: FeedbackOptions) -> Self {
        FeedbackCollector {
            options,
            buffers: Mutex::new(BTreeMap::new()),
            pending: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }

    /// The options this collector runs under.
    pub fn options(&self) -> &FeedbackOptions {
        &self.options
    }

    /// Observations currently buffered (across all templates).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Observations dropped because a buffer hit
    /// [`FeedbackOptions::max_pending`].
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffer one observation. Returns false when the template's buffer
    /// is full and the observation was dropped.
    pub fn push(&self, template_iri: &str, obs: PopObservation) -> bool {
        let mut buffers = self.buffers.lock().expect("feedback buffers lock");
        let buf = buffers.entry(template_iri.to_string()).or_default();
        if buf.pending.len() >= self.options.max_pending {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Concentration tracking over the primary (estimate) value: an
        // estimate inside the recorded core is evidence the template's
        // live traffic sits where it has already been observed.
        if let Some(&(est, _)) = obs.cards.first() {
            let ts = buf.types.entry(obs.pop_type.clone()).or_default();
            match &mut ts.core {
                Some(core) if core.contains(est) => ts.inside_pending += 1,
                Some(core) => core.cover(est),
                None => ts.core = Some(Range::point(est)),
            }
        }
        buf.pending.push(obs);
        self.pending.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drain every buffered observation into per-template refinement
    /// batches, age the concentration weights, and
    /// emit narrowing directives for the types whose decayed inside-core
    /// weight reached [`FeedbackOptions::narrow_weight`]. The
    /// concentration state survives the drain — narrowing is a
    /// cross-batch judgement.
    pub fn drain(&self) -> Vec<(String, TemplateRefinement)> {
        let decay = self.options.decay.clamp(0.0, 1.0);
        let mut buffers = self.buffers.lock().expect("feedback buffers lock");
        let mut out = Vec::new();
        for (iri, buf) in buffers.iter_mut() {
            if buf.pending.is_empty() {
                continue;
            }
            self.pending.fetch_sub(buf.pending.len(), Ordering::Relaxed);
            let mut entry = TemplateRefinement {
                observations: std::mem::take(&mut buf.pending),
                narrows: Vec::new(),
            };
            let mut types: Vec<(&String, &mut TypeState)> = buf.types.iter_mut().collect();
            types.sort_by(|a, b| a.0.cmp(b.0));
            for (ty, ts) in types {
                ts.weight = ts.weight * decay + ts.inside_pending as f64;
                ts.inside_pending = 0;
                if ts.weight >= self.options.narrow_weight {
                    entry.narrows.push((ty.clone(), decay));
                }
            }
            out.push((iri.clone(), entry));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(ty: &str, est: f64) -> PopObservation {
        PopObservation {
            pop_type: ty.to_string(),
            cards: vec![(est, f64::INFINITY)],
            scan: None,
            scan_band: f64::INFINITY,
        }
    }

    #[test]
    fn push_and_drain_batch_per_template() {
        let c = FeedbackCollector::new(FeedbackOptions::default());
        assert!(c.push("http://t/2", obs("TBSCAN", 5.0)));
        assert!(c.push("http://t/1", obs("HSJOIN", 100.0)));
        assert!(c.push("http://t/1", obs("HSJOIN", 120.0)));
        assert_eq!(c.pending(), 3);
        let drained = c.drain();
        assert_eq!(c.pending(), 0);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, "http://t/1");
        assert_eq!(drained[0].1.observations.len(), 2);
        assert_eq!(drained[1].0, "http://t/2");
        // Nothing left: a second drain is empty.
        assert!(c.drain().is_empty());
    }

    #[test]
    fn max_pending_caps_a_buffer_and_counts_drops() {
        let c = FeedbackCollector::new(FeedbackOptions {
            max_pending: 2,
            ..FeedbackOptions::default()
        });
        assert!(c.push("t", obs("HSJOIN", 1.0)));
        assert!(c.push("t", obs("HSJOIN", 2.0)));
        assert!(!c.push("t", obs("HSJOIN", 3.0)));
        assert_eq!(c.pending(), 2);
        assert_eq!(c.dropped(), 1);
        // Other buffers are unaffected by one buffer's cap.
        assert!(c.push("u", obs("HSJOIN", 1.0)));
    }

    #[test]
    fn concentration_weight_decays_and_triggers_narrowing() {
        let c = FeedbackCollector::new(FeedbackOptions {
            decay: 0.5,
            narrow_weight: 3.0,
            ..FeedbackOptions::default()
        });
        // First observation seeds the core; the next ones widen it or
        // land inside it.
        c.push("t", obs("HSJOIN", 100.0));
        c.push("t", obs("HSJOIN", 200.0)); // covers -> core [100, 200]
        c.push("t", obs("HSJOIN", 150.0)); // inside
        c.push("t", obs("HSJOIN", 150.0)); // inside
        let r1 = &c.drain()[0].1;
        // weight = 0*0.5 + 2 = 2 < 3: no narrow yet.
        assert!(r1.narrows.is_empty());
        c.push("t", obs("HSJOIN", 150.0));
        c.push("t", obs("HSJOIN", 160.0));
        let r2 = c.drain();
        // weight = 2*0.5 + 2 = 3 >= 3: narrowing fires with the decay.
        assert_eq!(r2[0].1.narrows, vec![("HSJOIN".to_string(), 0.5)]);
        // A type that scatters (every value extends the core) never
        // accumulates inside-core weight.
        c.push("u", obs("TBSCAN", 1.0));
        c.push("u", obs("TBSCAN", 10.0));
        c.push("u", obs("TBSCAN", 100.0));
        c.push("u", obs("TBSCAN", 1000.0));
        let r3 = c.drain();
        assert!(r3.iter().all(|(_, r)| r.narrows.is_empty()));
    }
}
