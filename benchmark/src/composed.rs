//! How an op reaches the layers, untraced or traced. Every workload
//! writes its op once, generic over a [`Probe`]: [`Untraced`] calls
//! straight through (`ServingTier::serve` and nothing else), [`Traced`]
//! puts a span around each call and performs `ServingTier::serve`'s own
//! sequence from its public pieces so the serve can be attributed from
//! outside. [`same_outcome`] keeps the composition honest.

use std::sync::Arc;

use galo_catalog::Database;
use galo_core::{
    compile_plan, match_compiled, plan_fingerprint, CacheLookup, KnowledgeBase, MatchConfig,
    MatchReport, ProbeCache, Replica, ReplicaServe, ServeOutcome, ServingTier, StaleReplica,
};
use galo_qgm::Qgm;

use crate::trace::{Open, Stage, Tracer};

/// A serving tier and, beside it, the caller-owned cache the composed
/// serve runs over. Both see the same arrivals in the same order, so
/// their caches hold the same entries and their outcomes must agree.
pub struct Serving<'f> {
    db: &'f Database,
    kb: &'f KnowledgeBase,
    pub tier: ServingTier<'f>,
    pub composed: ProbeCache,
}

impl<'f> Serving<'f> {
    /// Default cache geometry on both sides: 8 stripes × 64 entries.
    pub fn new(db: &'f Database, kb: &'f KnowledgeBase, cfg: &MatchConfig) -> Self {
        Serving {
            db,
            kb,
            tier: ServingTier::new(db, kb, cfg.clone()),
            composed: ProbeCache::default(),
        }
    }
}

pub trait Probe {
    fn enter(&mut self, stage: Stage) -> Open;
    fn exit(&mut self, open: Open);
    fn serve(&mut self, serving: &Serving<'_>, qgm: &Qgm) -> ServeOutcome;

    fn span<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let open = self.enter(stage);
        let out = f();
        self.exit(open);
        out
    }

    /// `Replica::serve_bounded`: the staleness check, then a serve.
    fn serve_bounded(
        &mut self,
        replica: &mut Replica,
        serving: &Serving<'_>,
        qgm: &Qgm,
        primary_epoch: u64,
        bound: u64,
    ) -> Result<ReplicaServe, StaleReplica>;
}

pub struct Untraced;

impl Probe for Untraced {
    #[inline]
    fn enter(&mut self, _: Stage) -> Open {
        Open::NONE
    }

    #[inline]
    fn exit(&mut self, _: Open) {}

    #[inline]
    fn serve(&mut self, serving: &Serving<'_>, qgm: &Qgm) -> ServeOutcome {
        serving.tier.serve(qgm)
    }

    #[inline]
    fn serve_bounded(
        &mut self,
        replica: &mut Replica,
        serving: &Serving<'_>,
        qgm: &Qgm,
        primary_epoch: u64,
        bound: u64,
    ) -> Result<ReplicaServe, StaleReplica> {
        replica.serve_bounded(&serving.tier, qgm, primary_epoch, bound)
    }
}

/// Spans of one op at a time: set `op_id`, then run the op.
pub struct Traced<'t> {
    pub tr: &'t mut Tracer,
    pub op_id: u32,
}

impl Probe for Traced<'_> {
    fn enter(&mut self, stage: Stage) -> Open {
        self.tr.enter(stage, self.op_id)
    }

    fn exit(&mut self, open: Open) {
        self.tr.exit(open);
    }

    /// The sequence of `ServingTier::serve` (`serving.rs`, "Serve one
    /// plan") over the composed cache, one span per step. The root span
    /// is renamed on exit to the kind of serve it turned out to be.
    fn serve(&mut self, serving: &Serving<'_>, qgm: &Qgm) -> ServeOutcome {
        let Serving {
            db,
            kb,
            tier,
            composed: cache,
        } = serving;
        let cfg = tier.config();
        let root = self.enter(Stage::ServeMiss);
        let fingerprint = self.span(Stage::Fingerprint, || plan_fingerprint(db, qgm, cfg));
        let mut kind = Stage::ServeMiss;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let e1 = kb.epoch();
            let compiled = match self.span(Stage::Lookup, || cache.lookup(fingerprint, e1)) {
                CacheLookup::Hit(report) => {
                    self.tr.exit_as(root, Stage::ServeHit);
                    return ServeOutcome {
                        fingerprint,
                        epoch: Some(e1),
                        report,
                    };
                }
                CacheLookup::Compiled(c) => {
                    kind = Stage::ServeRematch;
                    c
                }
                CacheLookup::Miss => {
                    let fresh = self.span(Stage::Compile, || Arc::new(compile_plan(db, qgm, cfg)));
                    self.span(Stage::Insert, || cache.insert_compiled(fingerprint, fresh))
                }
            };
            let report = self.span(Stage::Match, || match_compiled(db, kb, qgm, &compiled));
            let e2 = kb.epoch();
            let stable = e1 == e2 && e1 % 2 == 0;
            if stable {
                self.span(Stage::Store, || {
                    cache.store_outcome(fingerprint, &compiled, e1, &report)
                });
            }
            if stable || attempt >= 2 {
                self.tr.exit_as(root, kind);
                return ServeOutcome {
                    fingerprint,
                    epoch: stable.then_some(e1),
                    report,
                };
            }
        }
    }

    fn serve_bounded(
        &mut self,
        replica: &mut Replica,
        serving: &Serving<'_>,
        qgm: &Qgm,
        primary_epoch: u64,
        bound: u64,
    ) -> Result<ReplicaServe, StaleReplica> {
        let replica_epoch = replica.replica_epoch();
        let lag = primary_epoch.saturating_sub(replica_epoch) / 2;
        if lag > bound {
            return Err(StaleReplica {
                replica_epoch,
                primary_epoch,
                lag,
                bound,
            });
        }
        Ok(ReplicaServe {
            replica_epoch,
            lag,
            outcome: self.serve(serving, qgm),
        })
    }
}

/// What a serve is checked by: its rewrites, in order.
pub type Rewrites = Vec<(u32, String)>;

pub fn rewrites_of(report: &MatchReport) -> Rewrites {
    report
        .rewrites
        .iter()
        .map(|r| (r.segment_op_id, r.template_iri.clone()))
        .collect()
}

#[inline]
pub fn agrees(report: &MatchReport, expected: &[(u32, String)]) -> bool {
    report.rewrites.len() == expected.len()
        && report
            .rewrites
            .iter()
            .zip(expected)
            .all(|(r, e)| r.segment_op_id == e.0 && r.template_iri == e.1)
}

/// True when the composed serve and `ServingTier::serve` agree on
/// everything but wall time: same plan, same epoch, same outcome, same
/// work counted.
pub fn same_outcome(a: &ServeOutcome, b: &ServeOutcome) -> bool {
    let (ra, rb) = (&a.report, &b.report);
    a.fingerprint == b.fingerprint
        && a.epoch == b.epoch
        && ra.rewrites.len() == rb.rewrites.len()
        && ra
            .rewrites
            .iter()
            .zip(&rb.rewrites)
            .all(|(x, y)| x.segment_op_id == y.segment_op_id && x.template_iri == y.template_iri)
        && ra.cache_hit == rb.cache_hit
        && ra.probes_executed == rb.probes_executed
        && ra.probes_pruned == rb.probes_pruned
        && ra.probes_reused == rb.probes_reused
        && ra.candidates_considered == rb.candidates_considered
        && ra.admission_rejects_card == rb.admission_rejects_card
        && ra.admission_rejects_scan == rb.admission_rejects_scan
}
