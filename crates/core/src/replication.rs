//! Replication: the wire protocol, fault-injected links, and read
//! replicas over the knowledge base.
//!
//! The paper's deployment (§4) is distributed twice over: learner
//! machines publish mined templates into the shared knowledge base, and
//! the online tier reads it at serving rates. This module reproduces the
//! distribution boundary *with real bytes*: every publish,
//! acknowledgement, feed entry and snapshot crosses a [`Link`] as an
//! encoded [`galo_rdf::wire`] frame — length-delimited, FNV-checksummed,
//! a batch of statements carried as one [`galo_rdf::block`] — and is
//! decoded on the far side before anything is applied. A batch is
//! serialized and encoded once, by the learner, straight into one block
//! ([`KnowledgeBase::templates_block`]): the primary hands the block it
//! decodes over to its store, which journals it as one log record in the
//! same encoding, and the publish payload itself becomes the feed entry
//! replicas pull and hand over in turn. Three layers:
//!
//! * **Transport** — [`Link`] is an in-process byte-frame pipe
//!   ([`loopback`] builds a connected pair). [`FaultyLink`] wraps an end
//!   and injects faults under a seeded deterministic RNG: dropped,
//!   duplicated, delayed (reordered) and truncated frames.
//! * **Publish path** — a [`Publisher`] ships template batches as
//!   `Publish` frames with a per-sender sequence number and retries under
//!   a [`RetryPolicy`] until the matching `Ack` arrives. The [`Primary`]
//!   applies publishes through the idempotent
//!   [`KnowledgeBase::apply_block_owned`] and deduplicates retries per peer
//!   (cached acks), so at-least-once delivery yields **exactly-once
//!   application** — an acknowledged publish is never lost and never
//!   doubled, whatever the link does.
//! * **Read replicas** — the primary appends every change born on it that
//!   took effect — an applied publish, a retraction
//!   ([`Primary::retract`]) — to an ordered replication log, as the quad
//!   block that was applied: inserts, removes and clears replay alike. (A
//!   change made to the primary's knowledge base behind the primary's
//!   back, feedback refinement included, is not logged.) A [`Replica`]
//!   pulls the feed over a link:
//!   cold start replays a [`galo_rdf::snapshot_bytes`] image, catch-up
//!   replays `Mutation` frames in sequence, duplicates are skipped and
//!   gaps trigger a re-pull. Each applied frame stamps the replica with
//!   the primary's mutation epoch ([`Replica::replica_epoch`]), which
//!   bounded-staleness serving checks against the primary's current
//!   epoch ([`Replica::serve_bounded`]).
//!
//! `tests/replication.rs` pins the contract: under concurrent publishing
//! learners and arbitrary fault schedules, a caught-up replica's image is
//! byte-identical to the primary's at equal epochs, and zero acknowledged
//! publishes are lost.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use galo_qgm::Qgm;
use galo_rdf::{decode_frame, encode_frame, snapshot_bytes, Frame, FramePayload, QuadBlock};

use crate::cluster::{ClusterConfig, LearnerNode};
use crate::kb::{KnowledgeBase, Template};
use crate::serving::{ServeOutcome, ServingTier};
use galo_workloads::Workload;

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// One end of a bidirectional, in-process frame pipe. `send` transmits an
/// encoded wire frame toward the peer; `recv` takes the next frame the
/// peer transmitted, if any. Delivery is FIFO per direction unless a
/// fault wrapper reorders it.
pub trait Link {
    fn send(&mut self, frame: Vec<u8>);
    fn recv(&mut self) -> Option<Vec<u8>>;
}

/// A connected pair of [`LoopEnd`]s: what one end sends, the other
/// receives. The loopback is the reliable substrate; wrap an end in
/// [`FaultyLink`] to make its *outgoing* direction lossy.
pub fn loopback() -> (LoopEnd, LoopEnd) {
    let ab = Arc::new(Mutex::new(VecDeque::new()));
    let ba = Arc::new(Mutex::new(VecDeque::new()));
    (
        LoopEnd {
            tx: ab.clone(),
            rx: ba.clone(),
        },
        LoopEnd { tx: ba, rx: ab },
    )
}

/// One end of a [`loopback`] pair.
pub struct LoopEnd {
    tx: Arc<Mutex<VecDeque<Vec<u8>>>>,
    rx: Arc<Mutex<VecDeque<Vec<u8>>>>,
}

impl Link for LoopEnd {
    fn send(&mut self, frame: Vec<u8>) {
        self.tx.lock().expect("link queue").push_back(frame);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.rx.lock().expect("link queue").pop_front()
    }
}

/// Per-frame fault probabilities for one [`FaultyLink`] direction. At
/// most one fault applies to a frame; the probabilities are evaluated in
/// `drop`, `duplicate`, `delay`, `truncate` order against a single roll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the link's deterministic RNG.
    pub seed: u64,
    /// Frame vanishes entirely.
    pub drop: f64,
    /// Frame arrives twice.
    pub duplicate: f64,
    /// Frame is held back and delivered after the *next* send on this
    /// direction (reordering); a final [`FaultyLink::flush`] releases a
    /// frame still held when the conversation goes quiet.
    pub delay: f64,
    /// Only a prefix of the frame's bytes arrives — the torn-frame case
    /// the wire format must reject, never misread.
    pub truncate: f64,
}

impl FaultPlan {
    /// No faults: the wrapper becomes a transparent pass-through.
    pub fn reliable(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            truncate: 0.0,
        }
    }

    /// A representatively hostile mix: 15% dropped, 10% duplicated,
    /// 10% delayed, 10% truncated.
    pub fn lossy(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.15,
            duplicate: 0.10,
            delay: 0.10,
            truncate: 0.10,
        }
    }
}

/// How many faults one [`FaultyLink`] direction injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub truncated: u64,
}

impl FaultCounters {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.truncated
    }

    /// Elementwise sum — for cluster-wide fault accounting.
    pub fn merged(&self, other: &FaultCounters) -> FaultCounters {
        FaultCounters {
            dropped: self.dropped + other.dropped,
            duplicated: self.duplicated + other.duplicated,
            delayed: self.delayed + other.delayed,
            truncated: self.truncated + other.truncated,
        }
    }
}

/// The deterministic per-link RNG (splitmix64 — same generator family the
/// knowledge base uses for anonymized ids).
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A [`Link`] wrapper that injects faults into its **send** direction
/// under a seeded RNG. Receives pass through untouched; wrap both ends of
/// a loopback to make both directions lossy (with independent seeds).
pub struct FaultyLink<L: Link> {
    inner: L,
    plan: FaultPlan,
    rng: SplitMix,
    held: Option<Vec<u8>>,
    /// Faults injected so far.
    pub counters: FaultCounters,
}

impl<L: Link> FaultyLink<L> {
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        FaultyLink {
            inner,
            plan,
            rng: SplitMix(plan.seed),
            held: None,
            counters: FaultCounters::default(),
        }
    }

    /// Release a delayed frame still in flight. Senders call this when a
    /// conversation goes quiet so "delayed" stays a reordering fault, not
    /// a silent drop.
    pub fn flush(&mut self) {
        if let Some(f) = self.held.take() {
            self.inner.send(f);
        }
    }

    /// The wrapped transport (e.g. to hand the raw end elsewhere).
    pub fn into_inner(mut self) -> L {
        self.flush();
        self.inner
    }
}

impl<L: Link> Link for FaultyLink<L> {
    fn send(&mut self, frame: Vec<u8>) {
        let roll = self.rng.next_f64();
        let p = self.plan;
        if roll < p.drop {
            self.counters.dropped += 1;
        } else if roll < p.drop + p.duplicate {
            self.counters.duplicated += 1;
            self.inner.send(frame.clone());
            self.inner.send(frame);
        } else if roll < p.drop + p.duplicate + p.delay {
            self.counters.delayed += 1;
            // Hold this frame; a previously held one is released first,
            // so at most one frame is ever in the delay slot.
            if let Some(prev) = self.held.replace(frame) {
                self.inner.send(prev);
            }
        } else if roll < p.drop + p.duplicate + p.delay + p.truncate {
            self.counters.truncated += 1;
            let cut = self.rng.below(frame.len().max(1));
            self.inner.send(frame[..cut].to_vec());
        } else {
            self.inner.send(frame);
        }
        // Reordering: the held frame trails the frame sent after it.
        if self.rng.next_f64() < 0.5 {
            self.flush();
        }
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Sender-side retry budget with exponential backoff. The links are
/// in-process, so the backoff is *virtual*: no sleeping, but the schedule
/// a real deployment would wait out is accounted in
/// [`PublishStats::backoff_ms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Send attempts per request before declaring it lost (≥ 1).
    pub max_attempts: usize,
    /// Backoff before retry `n` (1-based) is `base_backoff_ms << (n-1)`,
    /// capped at `max_backoff_ms`.
    pub base_backoff_ms: u64,
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            base_backoff_ms: 1,
            max_backoff_ms: 64,
        }
    }
}

impl RetryPolicy {
    /// The virtual wait before retry attempt `retry` (1-based).
    pub fn backoff_ms(&self, retry: usize) -> u64 {
        let shift = (retry.saturating_sub(1)).min(16) as u32;
        (self.base_backoff_ms << shift).min(self.max_backoff_ms)
    }
}

// ---------------------------------------------------------------------------
// Primary
// ---------------------------------------------------------------------------

/// One ordered replication-log entry: one applied change as an encoded
/// quad block — a publish's payload, validated when the primary decoded it
/// to apply it, or the encoding of a block built here — sent on to
/// replicas byte for byte, and the primary's mutation epoch after
/// applying it.
#[derive(Debug, Clone)]
struct LogEntry {
    payload: Vec<u8>,
    epoch: u64,
}

/// The primary's replication log: a snapshot image capturing everything
/// through `base_seq`, plus the entries after it (`entries[i]` has feed
/// sequence `base_seq + 1 + i`).
struct ReplicationLog {
    base_seq: u64,
    snapshot: Vec<u8>,
    snapshot_epoch: u64,
    entries: Vec<LogEntry>,
}

impl ReplicationLog {
    fn end_seq(&self) -> u64 {
        self.base_seq + self.entries.len() as u64
    }
}

/// Per-peer connection state the primary keeps: which publish sequence
/// numbers it already applied, with the ack it sent — the dedup table
/// that turns at-least-once delivery into exactly-once application.
#[derive(Default)]
pub struct PeerState {
    acked: HashMap<u64, (u64, u64)>, // seq -> (added, epoch)
}

/// The primary node: the authoritative [`KnowledgeBase`] plus the
/// replication log replicas pull from. [`handle`](Self::handle) is the
/// entire server-side protocol; [`serve_link`](Self::serve_link) pumps it
/// over a [`Link`].
pub struct Primary {
    kb: Arc<KnowledgeBase>,
    log: Mutex<ReplicationLog>,
}

impl Primary {
    /// Wrap a knowledge base as the replication primary. The current
    /// image is captured as the log's base snapshot, so a replica that
    /// pulls from sequence 0 always cold-starts over a snapshot transfer
    /// — even against a pre-loaded primary.
    pub fn new(kb: Arc<KnowledgeBase>) -> Self {
        let snapshot = kb.server().with_store(|st| snapshot_bytes(st));
        let snapshot_epoch = kb.epoch();
        Primary {
            kb,
            log: Mutex::new(ReplicationLog {
                base_seq: 0,
                snapshot,
                snapshot_epoch,
                entries: Vec::new(),
            }),
        }
    }

    /// The primary's knowledge base.
    pub fn knowledge_base(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// The primary's current mutation epoch — what bounded-staleness
    /// serving compares a replica's epoch against.
    pub fn epoch(&self) -> u64 {
        self.kb.epoch()
    }

    /// Feed sequence of the newest log entry (or of the base snapshot
    /// when the log is empty).
    pub fn end_seq(&self) -> u64 {
        self.log.lock().expect("replication log").end_seq()
    }

    /// Entries currently retained after the base snapshot.
    pub fn log_len(&self) -> usize {
        self.log.lock().expect("replication log").entries.len()
    }

    /// Fold the log into a fresh base snapshot: replicas that pull from a
    /// now-compacted sequence get a snapshot transfer instead of replay.
    pub fn compact_log(&self) {
        let mut log = self.log.lock().expect("replication log");
        log.base_seq = log.end_seq();
        log.snapshot = self.kb.server().with_store(|st| snapshot_bytes(st));
        log.snapshot_epoch = self.kb.epoch();
        log.entries.clear();
    }

    /// The one entry for a change born on the primary: `apply` its block
    /// and, when it changed anything, append `payload` — the block's
    /// encoding — to the log with the epoch it produced. The caller holds
    /// the log lock across whatever it read to build the block and this
    /// call, so the log order equals the apply order under concurrent
    /// changes. Returns the operations that took effect and the epoch.
    fn apply_logged(
        &self,
        log: &mut ReplicationLog,
        apply: impl FnOnce() -> usize,
        payload: Vec<u8>,
    ) -> (u64, u64) {
        let changed = apply() as u64;
        let epoch = self.kb.epoch();
        if changed > 0 {
            log.entries.push(LogEntry { payload, epoch });
        }
        (changed, epoch)
    }

    /// Retract a template on the primary and log the retraction, so
    /// replicas drop it too. Returns true when anything was removed.
    pub fn retract(&self, template_iri: &str) -> bool {
        let mut log = self.log.lock().expect("replication log");
        let removes = self.kb.retraction_of(template_iri);
        let block = QuadBlock::of_records(&removes);
        let payload = block.encode();
        let apply = || self.kb.apply_block(&block);
        let (removed, _) = self.apply_logged(&mut log, apply, payload);
        removed > 0
    }

    /// Handle one raw frame from a peer; returns the reply frames to send
    /// back, in order. Undecodable bytes (torn or corrupted in flight, or
    /// a publish whose payload is not a quad block) produce no reply — the
    /// sender's retry covers them. A publish's block is decoded once and
    /// handed over to the knowledge base, whose store keeps the terms it
    /// has never seen; the payload bytes are what the log keeps.
    pub fn handle(&self, peer: &mut PeerState, bytes: &[u8]) -> Vec<Vec<u8>> {
        let Ok((frame, _)) = decode_frame(bytes) else {
            return Vec::new();
        };
        match frame.payload {
            FramePayload::Publish(payload) => {
                let (added, epoch) = match peer.acked.get(&frame.seq) {
                    // A retried or duplicated delivery: answer from the
                    // dedup table without touching the store.
                    Some(&cached) => cached,
                    None => {
                        let Ok(block) = QuadBlock::decode(&payload) else {
                            return Vec::new();
                        };
                        let mut log = self.log.lock().expect("replication log");
                        let apply = || self.kb.apply_block_owned(block);
                        let applied = self.apply_logged(&mut log, apply, payload);
                        peer.acked.insert(frame.seq, applied);
                        applied
                    }
                };
                vec![encode_frame(&Frame {
                    seq: frame.seq,
                    epoch,
                    payload: FramePayload::Ack { added },
                })]
            }
            FramePayload::Pull { max } => {
                let log = self.log.lock().expect("replication log");
                let mut replies = Vec::new();
                let mut from = frame.seq;
                if from <= log.base_seq {
                    replies.push(encode_frame(&Frame {
                        seq: log.base_seq,
                        epoch: log.snapshot_epoch,
                        payload: FramePayload::Snapshot(log.snapshot.clone()),
                    }));
                    from = log.base_seq + 1;
                }
                let limit = if max == 0 { usize::MAX } else { max as usize };
                // `from` is past the base here; past the log's end too,
                // when the replica has everything.
                let skip = usize::try_from(from - log.base_seq - 1).unwrap_or(usize::MAX);
                for (i, entry) in log.entries.iter().enumerate().skip(skip) {
                    if replies.len() >= limit {
                        break;
                    }
                    replies.push(encode_frame(&Frame {
                        seq: log.base_seq + 1 + i as u64,
                        epoch: entry.epoch,
                        payload: FramePayload::Mutation(entry.payload.clone()),
                    }));
                }
                // Feed watermark: where the log ends right now, at the
                // primary's current epoch.
                replies.push(encode_frame(&Frame {
                    seq: log.end_seq(),
                    epoch: self.kb.epoch(),
                    payload: FramePayload::Ack { added: 0 },
                }));
                replies
            }
            // Ack / Mutation / Snapshot are server→client frames; a peer
            // sending one is confused — ignore it.
            _ => Vec::new(),
        }
    }

    /// Drain every pending frame on `link`, handling each and sending the
    /// replies back over the same link. Returns frames processed.
    pub fn serve_link(&self, peer: &mut PeerState, link: &mut dyn Link) -> usize {
        let mut n = 0;
        while let Some(bytes) = link.recv() {
            n += 1;
            for reply in self.handle(peer, &bytes) {
                link.send(reply);
            }
        }
        n
    }
}

// ---------------------------------------------------------------------------
// Publisher
// ---------------------------------------------------------------------------

/// Sender-side accounting of one [`Publisher`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// Publishes attempted.
    pub published: u64,
    /// Publishes acknowledged by the primary.
    pub acked: u64,
    /// Publishes that exhausted the retry budget unacknowledged.
    pub lost: u64,
    /// Total send attempts (first sends + retries).
    pub attempts: u64,
    /// Retries beyond each publish's first send.
    pub retries: u64,
    /// Quads the primary reported as new across acked publishes.
    pub quads_added: u64,
    /// Virtual backoff accumulated by the retry schedule.
    pub backoff_ms: u64,
}

/// A successful publish: the primary applied the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The sender-side sequence number the ack matched.
    pub seq: u64,
    /// The primary's mutation epoch after applying.
    pub epoch: u64,
    /// Quads that were new (0 for an idempotent re-publish).
    pub added: u64,
    /// Send attempts this publish took.
    pub attempts: usize,
}

/// A publish that exhausted its retry budget without an acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishError {
    pub seq: u64,
    pub attempts: usize,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "publish seq {} unacknowledged after {} attempts",
            self.seq, self.attempts
        )
    }
}

impl std::error::Error for PublishError {}

/// The learner-side publish state machine: serializes a template batch
/// into one quad block, assigns per-sender sequence numbers, encodes
/// `Publish` frames, and retries until the matching `Ack` arrives or the
/// [`RetryPolicy`] budget runs out.
#[derive(Debug, Default)]
pub struct Publisher {
    next_seq: u64,
    /// Cumulative accounting.
    pub stats: PublishStats,
}

impl Publisher {
    pub fn new() -> Self {
        Publisher::default()
    }

    /// Publish templates over `link`, with retry and exactly-once
    /// effect. The batch is serialized once, by
    /// [`KnowledgeBase::templates_block`], straight into the block whose
    /// encoding is the `Publish` payload. `pump` runs the server side one
    /// step — in tests a call to [`Primary::serve_link`] on the other end
    /// of the link.
    pub fn publish_templates(
        &mut self,
        templates: &[Template],
        link: &mut dyn Link,
        pump: &mut dyn FnMut(),
        policy: &RetryPolicy,
    ) -> Result<PublishReceipt, PublishError> {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.stats.published += 1;
        let bytes = encode_frame(&Frame {
            seq,
            epoch: 0,
            payload: FramePayload::Publish(KnowledgeBase::templates_block(templates).encode()),
        });
        let max_attempts = policy.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            self.stats.attempts += 1;
            if attempt > 1 {
                self.stats.retries += 1;
                self.stats.backoff_ms += policy.backoff_ms(attempt - 1);
            }
            link.send(bytes.clone());
            pump();
            while let Some(reply) = link.recv() {
                let Ok((frame, _)) = decode_frame(&reply) else {
                    continue; // torn/corrupt reply: keep draining, retry
                };
                if let FramePayload::Ack { added } = frame.payload {
                    if frame.seq == seq {
                        self.stats.acked += 1;
                        self.stats.quads_added += added;
                        return Ok(PublishReceipt {
                            seq,
                            epoch: frame.epoch,
                            added,
                            attempts: attempt,
                        });
                    }
                    // An ack for an older (already settled) sequence —
                    // the echo of a duplicated frame. Ignore.
                }
            }
        }
        self.stats.lost += 1;
        Err(PublishError {
            seq,
            attempts: max_attempts,
        })
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// Replica-side accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Pull requests sent.
    pub pulls: u64,
    /// Snapshot transfers applied (cold starts and post-compaction).
    pub snapshots_loaded: u64,
    /// Feed entries applied in sequence.
    pub frames_applied: u64,
    /// Duplicate feed frames skipped (sequence already applied).
    pub frames_skipped: u64,
    /// Sequence gaps observed (each triggers a re-pull).
    pub gaps: u64,
    /// Serves rejected by the staleness bound.
    pub stale_rejections: u64,
}

/// What applying one feed frame did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedEvent {
    /// The frame was next in sequence and was applied.
    Applied,
    /// The frame's sequence was already applied — idempotently skipped.
    Duplicate,
    /// The frame skips ahead; the replica must re-pull from `expected`.
    Gap { expected: u64, got: u64 },
    /// The feed watermark: the primary's log ends at `end`, at `epoch`.
    Watermark { end: u64, epoch: u64 },
}

/// Catch-up exhausted its retry budget with the feed still ahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchUpError {
    pub attempts: usize,
    pub next_seq: u64,
}

impl std::fmt::Display for CatchUpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replica catch-up exhausted {} pulls still wanting feed seq {}",
            self.attempts, self.next_seq
        )
    }
}

impl std::error::Error for CatchUpError {}

/// A serve the staleness bound rejected: the replica lags the primary by
/// more than `bound` content generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleReplica {
    pub replica_epoch: u64,
    pub primary_epoch: u64,
    /// Content generations behind (epochs advance by 2 per generation).
    pub lag: u64,
    pub bound: u64,
}

impl std::fmt::Display for StaleReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replica at epoch {} is {} generations behind primary epoch {} (bound {})",
            self.replica_epoch, self.lag, self.primary_epoch, self.bound
        )
    }
}

impl std::error::Error for StaleReplica {}

/// A plan served from a replica within its staleness bound.
#[derive(Debug, Clone)]
pub struct ReplicaServe {
    /// The primary epoch the replica had replayed through when serving.
    pub replica_epoch: u64,
    /// Content generations the replica lagged the given primary epoch.
    pub lag: u64,
    pub outcome: ServeOutcome,
}

/// An epoch-stamped read replica: its own [`KnowledgeBase`] (endpoint
/// marked read-only — client writes are rejected loudly) built entirely
/// by replaying the primary's feed. [`replica_epoch`](Self::replica_epoch)
/// is the primary mutation epoch of the last applied frame; serving goes
/// through [`serve_bounded`](Self::serve_bounded), which enforces a
/// bounded-staleness contract against the primary's current epoch.
pub struct Replica {
    kb: Arc<KnowledgeBase>,
    next_seq: u64,
    epoch: u64,
    /// Cumulative accounting.
    pub stats: ReplicaStats,
}

impl Default for Replica {
    fn default() -> Self {
        Self::new()
    }
}

impl Replica {
    /// An empty replica. Its endpoint rejects writes from the moment of
    /// construction; only the feed-replay path mutates it.
    pub fn new() -> Self {
        let kb = KnowledgeBase::new();
        kb.server().set_read_only(true);
        Replica {
            kb: Arc::new(kb),
            next_seq: 0,
            epoch: 0,
            stats: ReplicaStats::default(),
        }
    }

    /// The replica's knowledge base — reads only; its endpoint rejects
    /// writes ([`galo_rdf::ReadOnlyReplica`]).
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// A shared handle to the replica's knowledge base, for building a
    /// [`ServingTier`] whose lifetime is independent of the `&mut self`
    /// borrows that [`catch_up`](Self::catch_up) and
    /// [`serve_bounded`](Self::serve_bounded) take.
    pub fn knowledge_base_arc(&self) -> Arc<KnowledgeBase> {
        Arc::clone(&self.kb)
    }

    /// The primary mutation epoch this replica has replayed through.
    pub fn replica_epoch(&self) -> u64 {
        self.epoch
    }

    /// The next feed sequence this replica wants.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Apply one decoded feed frame (a `Snapshot`, `Mutation`, or the
    /// watermark `Ack`). Idempotent: duplicates are skipped; a gap is
    /// reported, never applied out of order.
    pub fn apply_feed_frame(&mut self, frame: &Frame) -> FeedEvent {
        // What a frame that cannot be applied now is answered with: the
        // caller re-pulls from `expected`.
        let gap = FeedEvent::Gap {
            expected: self.next_seq,
            got: frame.seq,
        };
        match &frame.payload {
            FramePayload::Snapshot(bytes) => {
                if frame.seq < self.next_seq {
                    self.stats.frames_skipped += 1;
                    return FeedEvent::Duplicate;
                }
                let Ok(image) = galo_rdf::decode_snapshot(bytes) else {
                    // A snapshot that fails to decode despite the frame
                    // checksum: treat as a gap and re-pull.
                    return gap;
                };
                // The snapshot is the block that replaces any image with
                // the primary's, handed over like a mutation's.
                self.kb.apply_block_owned(image);
                self.next_seq = frame.seq + 1;
                self.epoch = frame.epoch;
                self.stats.snapshots_loaded += 1;
                FeedEvent::Applied
            }
            FramePayload::Mutation(payload) => {
                if frame.seq < self.next_seq {
                    self.stats.frames_skipped += 1;
                    return FeedEvent::Duplicate;
                }
                if frame.seq > self.next_seq {
                    self.stats.gaps += 1;
                    return gap;
                }
                let Ok(block) = QuadBlock::decode(payload) else {
                    // Not a block, despite the frame checksum: as for a
                    // snapshot, ask again rather than apply a part.
                    return gap;
                };
                self.kb.apply_block_owned(block);
                self.next_seq = frame.seq + 1;
                self.epoch = frame.epoch;
                self.stats.frames_applied += 1;
                FeedEvent::Applied
            }
            FramePayload::Ack { .. } => FeedEvent::Watermark {
                end: frame.seq,
                epoch: frame.epoch,
            },
            // Publish / Pull are client→server frames.
            _ => FeedEvent::Duplicate,
        }
    }

    /// Pull the primary's feed over `link` until caught up: send `Pull`
    /// from [`next_seq`](Self::next_seq), apply the reply stream in
    /// order, and re-pull on gaps, torn frames or a missing watermark —
    /// up to the policy's attempt budget. Returns the replica epoch after
    /// catching up. `pump` runs the server side (a
    /// [`Primary::serve_link`] on the far end).
    pub fn catch_up(
        &mut self,
        link: &mut dyn Link,
        pump: &mut dyn FnMut(),
        policy: &RetryPolicy,
    ) -> Result<u64, CatchUpError> {
        let max_attempts = policy.max_attempts.max(1);
        for _ in 1..=max_attempts {
            self.stats.pulls += 1;
            link.send(encode_frame(&Frame {
                seq: self.next_seq,
                epoch: 0,
                payload: FramePayload::Pull { max: 0 },
            }));
            pump();
            let mut watermark = None;
            let mut disordered = false;
            while let Some(bytes) = link.recv() {
                let Ok((frame, _)) = decode_frame(&bytes) else {
                    disordered = true; // torn mid-stream: re-pull
                    continue;
                };
                match self.apply_feed_frame(&frame) {
                    FeedEvent::Gap { .. } => disordered = true,
                    FeedEvent::Watermark { end, epoch } => watermark = Some((end, epoch)),
                    FeedEvent::Applied | FeedEvent::Duplicate => {}
                }
            }
            if disordered {
                continue;
            }
            if let Some((end, epoch)) = watermark {
                if self.next_seq > end {
                    // Fully replayed: the replica now reflects the
                    // primary's epoch at the watermark.
                    self.epoch = epoch;
                    return Ok(self.epoch);
                }
            }
        }
        Err(CatchUpError {
            attempts: max_attempts,
            next_seq: self.next_seq,
        })
    }

    /// Serve a plan from this replica under a bounded-staleness contract:
    /// the serve is refused ([`StaleReplica`]) when the replica lags
    /// `primary_epoch` by more than `bound` content generations. `tier`
    /// must be a [`ServingTier`] built over this replica's
    /// [`knowledge_base`](Self::knowledge_base). The outcome carries the
    /// replica epoch the plan was served at.
    pub fn serve_bounded(
        &mut self,
        tier: &ServingTier<'_>,
        qgm: &Qgm,
        primary_epoch: u64,
        bound: u64,
    ) -> Result<ReplicaServe, StaleReplica> {
        let lag = primary_epoch.saturating_sub(self.epoch) / 2;
        if lag > bound {
            self.stats.stale_rejections += 1;
            return Err(StaleReplica {
                replica_epoch: self.epoch,
                primary_epoch,
                lag,
                bound,
            });
        }
        Ok(ReplicaServe {
            replica_epoch: self.epoch,
            lag,
            outcome: tier.serve(qgm),
        })
    }
}

// ---------------------------------------------------------------------------
// Replicated cluster runner
// ---------------------------------------------------------------------------

/// Configuration of one replicated learning run: the cluster geometry,
/// the fault model on every learner↔primary link, the retry budget, and
/// an optional straggler node.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    pub cluster: ClusterConfig,
    /// Fault plan applied to *both* directions of every learner link
    /// (request and reply paths get independent RNG streams derived from
    /// `fault.seed` and the node id).
    pub fault: FaultPlan,
    pub retry: RetryPolicy,
    /// A node that publishes only every `straggler_stride`-th round —
    /// the slow-machine case the epoch-stamped replicas must absorb.
    pub straggler: Option<usize>,
    pub straggler_stride: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            cluster: ClusterConfig::default(),
            fault: FaultPlan::lossy(0x0BAD_11A6),
            retry: RetryPolicy::default(),
            straggler: None,
            straggler_stride: 3,
        }
    }
}

/// Per-node outcome of a replicated learning run.
#[derive(Debug, Clone)]
pub struct ReplicatedNodeReport {
    pub node: usize,
    pub templates_mined: usize,
    pub publish: PublishStats,
    /// Faults injected on this node's link, both directions summed.
    pub faults: FaultCounters,
    /// Whether this node ran as the straggler.
    pub straggler: bool,
}

/// Outcome of [`learn_workload_replicated`].
#[derive(Debug, Clone, Default)]
pub struct ReplicatedReport {
    pub nodes: Vec<ReplicatedNodeReport>,
    /// Publish rounds the scheduler ran before every node drained.
    pub rounds: usize,
}

impl ReplicatedReport {
    /// Acknowledged publishes that were lost — the protocol's invariant
    /// is that this is always zero (acked means applied); what *can* be
    /// nonzero under a hostile-enough fault plan and a tiny retry budget
    /// is [`PublishStats::lost`], publishes never acknowledged at all.
    pub fn lost_publishes(&self) -> u64 {
        self.nodes.iter().map(|n| n.publish.lost).sum()
    }

    pub fn templates_mined(&self) -> usize {
        self.nodes.iter().map(|n| n.templates_mined).sum()
    }

    pub fn quads_added(&self) -> u64 {
        self.nodes.iter().map(|n| n.publish.quads_added).sum()
    }

    pub fn faults(&self) -> FaultCounters {
        self.nodes
            .iter()
            .fold(FaultCounters::default(), |acc, n| acc.merged(&n.faults))
    }
}

/// Learn a workload through the replication wire: every learner node
/// mines its partition slice, then publishes its template batches to the
/// `primary` over a fault-injected link under the retry policy — each
/// batch an encoded `Publish` frame, each acknowledgement a decoded
/// `Ack`. A round-robin scheduler interleaves the nodes' publishes (one
/// batch per node per round); a configured straggler skips most of its
/// turns, arriving late the way a slow machine would.
pub fn learn_workload_replicated(
    workload: &Workload,
    primary: &Primary,
    cfg: &ReplicationConfig,
) -> ReplicatedReport {
    let nodes = cfg.cluster.learning.threads.max(1);
    let batch = cfg.cluster.publish_batch.max(1);
    struct NodeRun {
        node: usize,
        templates: Vec<Template>,
        /// Templates already published.
        sent: usize,
        publisher: Publisher,
        client: FaultyLink<LoopEnd>,
        server: FaultyLink<LoopEnd>,
        peer: PeerState,
        straggler: bool,
    }
    let mut runs: Vec<NodeRun> = (0..nodes)
        .map(|id| {
            let mined = LearnerNode::new(id, nodes).mine(workload, &cfg.cluster.learning);
            let (a, b) = loopback();
            let mut request_plan = cfg.fault;
            request_plan.seed = cfg.fault.seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
            let mut reply_plan = cfg.fault;
            reply_plan.seed = request_plan.seed ^ 0x5EED_CAFE;
            NodeRun {
                node: id,
                templates: mined.templates,
                sent: 0,
                publisher: Publisher::new(),
                client: FaultyLink::new(a, request_plan),
                server: FaultyLink::new(b, reply_plan),
                peer: PeerState::default(),
                straggler: cfg.straggler == Some(id),
            }
        })
        .collect();
    let stride = cfg.straggler_stride.max(1);
    let mut rounds = 0usize;
    while runs.iter().any(|r| r.sent < r.templates.len()) {
        for run in &mut runs {
            if run.sent >= run.templates.len() {
                continue;
            }
            // The straggler sits out all but every stride-th round (its
            // turn is guaranteed within `stride` rounds, so the loop
            // always drains).
            if run.straggler && rounds % stride != stride - 1 {
                continue;
            }
            let chunk = &run.templates[run.sent..(run.sent + batch).min(run.templates.len())];
            run.sent += chunk.len();
            // A lost publish is already counted in the publisher's
            // stats; the differential tests assert on those.
            let _ = run.publisher.publish_templates(
                chunk,
                &mut run.client,
                &mut || {
                    primary.serve_link(&mut run.peer, &mut run.server);
                    run.server.flush();
                },
                &cfg.retry,
            );
        }
        rounds += 1;
    }
    ReplicatedReport {
        nodes: runs
            .into_iter()
            .map(|r| ReplicatedNodeReport {
                node: r.node,
                templates_mined: r.templates.len(),
                publish: r.publisher.stats,
                faults: r.client.counters.merged(&r.server.counters),
                straggler: r.straggler,
            })
            .collect(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{TemplatePop, TemplateScan};
    use galo_qgm::GuidelineDoc;
    use galo_stats::StatSketch;

    fn tpl(id: &str, workload: &str, card: f64) -> Template {
        Template {
            id: id.into(),
            pops: vec![
                TemplatePop {
                    op_id: 1,
                    pop_type: "HSJOIN".into(),
                    cardinality: StatSketch::from_range(card, card * 2.0),
                    scan: None,
                    inputs: vec![2],
                },
                TemplatePop {
                    op_id: 2,
                    pop_type: "TBSCAN".into(),
                    cardinality: StatSketch::from_range(10.0, 20.0),
                    scan: Some(TemplateScan {
                        canonical_tabid: "T1".into(),
                        row_size: StatSketch::from_range(8.0, 8.0),
                        fpages: StatSketch::from_range(100.0, 200.0),
                        base_cardinality: StatSketch::from_range(1_000.0, 2_000.0),
                    }),
                    inputs: vec![],
                },
            ],
            guideline: GuidelineDoc::new(vec![]),
            improvement: 0.5,
            source_workload: workload.into(),
            fingerprint: format!("fp-{id}"),
            join_count: 1,
        }
    }

    fn image(kb: &KnowledgeBase) -> Vec<String> {
        let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
        lines.sort();
        lines
    }

    #[test]
    fn loopback_delivers_fifo_per_direction() {
        let (mut a, mut b) = loopback();
        a.send(vec![1]);
        a.send(vec![2]);
        b.send(vec![9]);
        assert_eq!(b.recv(), Some(vec![1]));
        assert_eq!(b.recv(), Some(vec![2]));
        assert_eq!(b.recv(), None);
        assert_eq!(a.recv(), Some(vec![9]));
    }

    #[test]
    fn faulty_link_is_deterministic_and_injects_every_fault_kind() {
        let run = |seed: u64| {
            let (a, mut b) = loopback();
            let mut link = FaultyLink::new(a, FaultPlan::lossy(seed));
            for i in 0..200u16 {
                link.send(i.to_le_bytes().to_vec());
            }
            link.flush();
            let mut received = Vec::new();
            while let Some(f) = b.recv() {
                received.push(f);
            }
            (link.counters, received)
        };
        let (c1, r1) = run(42);
        let (c2, r2) = run(42);
        assert_eq!(c1, c2, "same seed, same schedule");
        assert_eq!(r1, r2);
        assert!(
            c1.dropped > 0 && c1.duplicated > 0 && c1.delayed > 0 && c1.truncated > 0,
            "{c1:?}"
        );
        let (c3, _) = run(43);
        assert_ne!(c1, c3, "different seed, different schedule");
    }

    #[test]
    fn publish_over_lossy_link_applies_exactly_once() {
        let kb = Arc::new(KnowledgeBase::new());
        let primary = Primary::new(kb.clone());
        let (client, server) = loopback();
        let mut client = FaultyLink::new(client, FaultPlan::lossy(7));
        let mut server = FaultyLink::new(server, FaultPlan::lossy(8));
        let mut peer = PeerState::default();
        let mut publisher = Publisher::new();
        let templates: Vec<Template> = (0..6)
            .map(|i| tpl(&format!("t{i}"), "w1", 100.0 + i as f64))
            .collect();
        for chunk in templates.chunks(2) {
            // Publish each batch twice: the retried delivery must be a
            // no-op (dedup by sequence on a retry, set semantics always).
            for _ in 0..2 {
                let r = publisher
                    .publish_templates(
                        chunk,
                        &mut client,
                        &mut || {
                            primary.serve_link(&mut peer, &mut server);
                            server.flush();
                        },
                        &RetryPolicy::default(),
                    )
                    .expect("retry budget must cover the lossy link");
                assert!(r.attempts >= 1);
            }
        }
        assert_eq!(publisher.stats.lost, 0);
        assert_eq!(publisher.stats.acked, 6);
        let oracle = KnowledgeBase::new();
        oracle.insert_batch(&templates);
        assert_eq!(image(&kb), image(&oracle));
        assert_eq!(kb.signature_count(), oracle.signature_count());
        assert_eq!(
            publisher.stats.quads_added as usize,
            oracle.export().lines().count()
        );
        // The second delivery of each batch added nothing.
        assert_eq!(kb.template_count(), 6);
    }

    #[test]
    fn dead_link_exhausts_retries_and_reports_lost() {
        let kb = Arc::new(KnowledgeBase::new());
        let primary = Primary::new(kb.clone());
        let (client, server) = loopback();
        let mut client = FaultyLink::new(
            client,
            FaultPlan {
                seed: 1,
                drop: 1.0,
                duplicate: 0.0,
                delay: 0.0,
                truncate: 0.0,
            },
        );
        let mut server = server;
        let mut peer = PeerState::default();
        let mut publisher = Publisher::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let err = publisher
            .publish_templates(
                &[tpl("t0", "w1", 50.0)],
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                },
                &policy,
            )
            .expect_err("fully dead link cannot ack");
        assert_eq!(err.attempts, 3);
        assert_eq!(publisher.stats.lost, 1);
        assert_eq!(publisher.stats.retries, 2);
        assert!(publisher.stats.backoff_ms > 0, "virtual backoff accrues");
        assert_eq!(kb.template_count(), 0, "nothing acked, nothing applied");
    }

    #[test]
    fn replica_cold_starts_from_snapshot_then_follows_incrementally() {
        let kb = Arc::new(KnowledgeBase::new());
        // Pre-wire content: present only in the base snapshot.
        kb.insert_batch(&[tpl("pre", "w0", 42.0)]);
        let primary = Primary::new(kb.clone());
        let (mut client, mut server) = loopback();
        let mut peer = PeerState::default();
        let mut replica = Replica::new();
        let policy = RetryPolicy::default();
        replica
            .catch_up(
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                },
                &policy,
            )
            .expect("reliable link catches up");
        assert_eq!(
            replica.stats.snapshots_loaded, 1,
            "cold start is a snapshot transfer"
        );
        assert_eq!(image(replica.knowledge_base()), image(&kb));
        assert_eq!(replica.replica_epoch(), primary.epoch());
        assert_eq!(
            replica.knowledge_base().signature_count(),
            kb.signature_count(),
            "replayed replica rebuilt the signature index"
        );
        // Now ship new templates through the wire and follow the feed.
        let (mut pub_client, mut pub_server) = loopback();
        let mut pub_peer = PeerState::default();
        let mut publisher = Publisher::new();
        publisher
            .publish_templates(
                &[tpl("live", "w1", 77.0)],
                &mut pub_client,
                &mut || {
                    primary.serve_link(&mut pub_peer, &mut pub_server);
                },
                &policy,
            )
            .expect("reliable publish");
        replica
            .catch_up(
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                },
                &policy,
            )
            .expect("incremental catch-up");
        assert_eq!(
            replica.stats.snapshots_loaded, 1,
            "no second snapshot: incremental replay"
        );
        assert_eq!(replica.stats.frames_applied, 1);
        assert_eq!(image(replica.knowledge_base()), image(&kb));
        assert_eq!(replica.replica_epoch(), primary.epoch());
        assert_eq!(replica.knowledge_base().template_count(), 2);
    }

    #[test]
    fn compacted_log_serves_laggards_a_fresh_snapshot() {
        let kb = Arc::new(KnowledgeBase::new());
        let primary = Primary::new(kb.clone());
        let policy = RetryPolicy::default();
        let (mut pc, mut ps) = loopback();
        let mut ppeer = PeerState::default();
        let mut publisher = Publisher::new();
        for i in 0..3 {
            publisher
                .publish_templates(
                    &[tpl(&format!("t{i}"), "w1", 10.0 * (i + 1) as f64)],
                    &mut pc,
                    &mut || {
                        primary.serve_link(&mut ppeer, &mut ps);
                    },
                    &policy,
                )
                .expect("reliable publish");
        }
        assert_eq!(primary.log_len(), 3);
        primary.compact_log();
        assert_eq!(primary.log_len(), 0);
        assert_eq!(primary.end_seq(), 3);
        let (mut client, mut server) = loopback();
        let mut peer = PeerState::default();
        let mut replica = Replica::new();
        replica
            .catch_up(
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                },
                &policy,
            )
            .expect("catch up over compacted log");
        assert_eq!(replica.stats.snapshots_loaded, 1);
        assert_eq!(
            replica.stats.frames_applied, 0,
            "everything came from the snapshot"
        );
        assert_eq!(image(replica.knowledge_base()), image(&kb));
        assert_eq!(replica.next_seq(), 4);
    }

    #[test]
    fn replica_catch_up_survives_lossy_feed() {
        let kb = Arc::new(KnowledgeBase::new());
        let primary = Primary::new(kb.clone());
        let policy = RetryPolicy::default();
        let (mut pc, mut ps) = loopback();
        let mut ppeer = PeerState::default();
        let mut publisher = Publisher::new();
        for i in 0..5 {
            publisher
                .publish_templates(
                    &[tpl(&format!("t{i}"), "w1", 10.0 * (i + 1) as f64)],
                    &mut pc,
                    &mut || {
                        primary.serve_link(&mut ppeer, &mut ps);
                    },
                    &policy,
                )
                .expect("reliable publish");
        }
        let (client, server) = loopback();
        let mut client = FaultyLink::new(client, FaultPlan::lossy(11));
        let mut server = FaultyLink::new(server, FaultPlan::lossy(12));
        let mut peer = PeerState::default();
        let mut replica = Replica::new();
        replica
            .catch_up(
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                    server.flush();
                },
                &policy,
            )
            .expect("retry budget must cover the lossy feed");
        assert_eq!(image(replica.knowledge_base()), image(&kb));
        assert_eq!(replica.replica_epoch(), primary.epoch());
    }

    /// The crash test of the feed hop: a `Mutation` frame cut at any byte,
    /// or with a bit flipped in any byte, changes nothing on the replica —
    /// not its image, not its feed position, not its epoch — and the
    /// catch-up that met it asks again; the whole frame then applies.
    #[test]
    fn a_feed_frame_cut_or_flipped_at_any_byte_is_re_pulled_never_half_applied() {
        let kb = Arc::new(KnowledgeBase::new());
        let primary = Primary::new(kb.clone());
        let policy = RetryPolicy::default();
        let (mut client, mut server) = loopback();
        let mut peer = PeerState::default();
        let mut replica = Replica::new();
        let mut catch_up = |replica: &mut Replica| {
            replica.catch_up(
                &mut client,
                &mut || {
                    primary.serve_link(&mut peer, &mut server);
                },
                &policy,
            )
        };
        catch_up(&mut replica).expect("cold start");
        let (mut pc, mut ps) = loopback();
        let mut ppeer = PeerState::default();
        Publisher::new()
            .publish_templates(
                &[tpl("t0", "w1", 10.0)],
                &mut pc,
                &mut || {
                    primary.serve_link(&mut ppeer, &mut ps);
                },
                &policy,
            )
            .expect("reliable publish");
        // What the primary answers a pull with: the entry, the watermark.
        let pull = encode_frame(&Frame {
            seq: replica.next_seq(),
            epoch: 0,
            payload: FramePayload::Pull { max: 0 },
        });
        let replies = primary.handle(&mut PeerState::default(), &pull);
        let [entry, watermark] = replies.as_slice() else {
            panic!("one feed entry and the watermark, got {}", replies.len());
        };
        assert!(matches!(
            decode_frame(entry).unwrap().0.payload,
            FramePayload::Mutation(_)
        ));
        let before = (image(replica.knowledge_base()), replica.next_seq());
        let once = RetryPolicy {
            max_attempts: 1,
            ..policy
        };
        for at in 0..entry.len() {
            let mut flipped = entry.clone();
            flipped[at] ^= 1 << (at % 8);
            for damaged in [entry[..at].to_vec(), flipped] {
                // A link that delivers the damaged entry and the watermark
                // in answer to the pull, whatever the pull says.
                let (mut near, mut far) = loopback();
                let err = replica
                    .catch_up(
                        &mut near,
                        &mut || {
                            while far.recv().is_some() {}
                            far.send(damaged.clone());
                            far.send(watermark.clone());
                        },
                        &once,
                    )
                    .expect_err("a damaged entry cannot complete a catch-up");
                assert_eq!(
                    err.next_seq, before.1,
                    "byte {at}: the entry is still wanted"
                );
                assert_eq!(replica.next_seq(), before.1, "byte {at}");
                assert_eq!(replica.stats.frames_applied, 0, "byte {at}");
            }
            if at % 64 == 0 {
                assert_eq!(image(replica.knowledge_base()), before.0, "byte {at}");
            }
        }
        assert_eq!(image(replica.knowledge_base()), before.0);
        catch_up(&mut replica).expect("the whole frame applies");
        assert_eq!(replica.stats.frames_applied, 1);
        assert_eq!(image(replica.knowledge_base()), image(&kb));
        assert_eq!(replica.replica_epoch(), primary.epoch());
    }

    /// A pull is answered from the log position it names: from the base
    /// snapshot at or below the base, from the named entry above it, with
    /// the watermark alone past the end — however long the log before it.
    #[test]
    fn pull_replies_start_at_the_sequence_asked_for() {
        let kb = Arc::new(KnowledgeBase::new());
        let primary = Primary::new(kb.clone());
        let policy = RetryPolicy::default();
        let (mut pc, mut ps) = loopback();
        let mut ppeer = PeerState::default();
        let mut publisher = Publisher::new();
        let mut publish = |i: usize| {
            publisher
                .publish_templates(
                    &[tpl(&format!("t{i}"), "w1", 10.0 * (i + 1) as f64)],
                    &mut pc,
                    &mut || {
                        primary.serve_link(&mut ppeer, &mut ps);
                    },
                    &policy,
                )
                .expect("reliable publish");
        };
        (0..2).for_each(&mut publish);
        primary.compact_log(); // base_seq 2
        (2..6).for_each(&mut publish); // entries 3..=6
        let pull = |from: u64, max: u32| -> Vec<(u8, u64)> {
            let bytes = encode_frame(&Frame {
                seq: from,
                epoch: 0,
                payload: FramePayload::Pull { max },
            });
            primary
                .handle(&mut PeerState::default(), &bytes)
                .iter()
                .map(|reply| {
                    let frame = decode_frame(reply).unwrap().0;
                    let kind = match frame.payload {
                        FramePayload::Snapshot(_) => b'S',
                        FramePayload::Mutation(_) => b'M',
                        FramePayload::Ack { .. } => b'W',
                        _ => b'?',
                    };
                    (kind, frame.seq)
                })
                .collect()
        };
        let all = vec![
            (b'S', 2),
            (b'M', 3),
            (b'M', 4),
            (b'M', 5),
            (b'M', 6),
            (b'W', 6),
        ];
        assert_eq!(pull(0, 0), all, "below the base");
        assert_eq!(pull(2, 0), all, "at the base");
        assert_eq!(pull(3, 0), all[1..], "the first entry");
        assert_eq!(pull(5, 0), all[3..], "mid-log");
        assert_eq!(pull(6, 0), all[4..], "the last entry");
        assert_eq!(pull(7, 0), all[5..], "past the end: the watermark alone");
        assert_eq!(pull(u64::MAX, 0), all[5..], "far past the end");
        assert_eq!(pull(4, 2), [(b'M', 4), (b'M', 5), (b'W', 6)], "bounded");
        assert_eq!(
            pull(0, 2),
            [(b'S', 2), (b'M', 3), (b'W', 6)],
            "bounded, from the base"
        );
    }

    #[test]
    fn replica_endpoint_rejects_writes_loudly() {
        let mut replica = Replica::new();
        let server = replica.knowledge_base().server();
        let err = server
            .update("INSERT DATA { <urn:a> <urn:b> <urn:c> . }")
            .expect_err("replica update must fail");
        assert!(
            matches!(err, galo_rdf::ServerError::ReadOnlyReplica(_)),
            "{err}"
        );
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.insert_triples(vec![(
                galo_rdf::Term::iri("urn:a"),
                galo_rdf::Term::iri("urn:b"),
                galo_rdf::Term::iri("urn:c"),
            )]);
        }))
        .expect_err("infallible write path must panic");
        let reject = panic
            .downcast_ref::<galo_rdf::ReadOnlyReplica>()
            .expect("panics with the typed rejection");
        assert_eq!(reject.op, "insert_triples");

        // The knowledge base's own mutators pass the same gate — all but
        // the feed's door, which put this template here.
        let primary = Primary::new(Arc::new(KnowledgeBase::new()));
        primary.knowledge_base().insert(&tpl("ro", "w", 10.0));
        let (mut near, mut far) = loopback();
        let mut peer = PeerState::default();
        let mut pump = || {
            primary.serve_link(&mut peer, &mut far);
        };
        // A direct insert is not a logged change: the replica sees it in
        // the snapshot a compacted log serves.
        primary.compact_log();
        replica
            .catch_up(&mut near, &mut pump, &RetryPolicy::default())
            .unwrap();
        let kb = replica.knowledge_base();
        let iri = crate::vocab::template_iri("ro");
        kb.feedback().push(
            iri.str_value(),
            "",
            crate::PopObservation {
                pop_type: "HSJOIN".into(),
                cards: vec![(1e6, f64::INFINITY)],
                scan: None,
                scan_band: f64::INFINITY,
            },
        );
        let (before, epoch) = (image(kb), kb.epoch());
        assert_eq!(kb.template_count(), 1);
        let refinement = crate::TemplateRefinement {
            observations: vec![],
            narrows: vec![("HSJOIN".into(), 0.5)],
        };
        let calls: [(&str, &dyn Fn()); 5] = [
            ("clear", &|| kb.clear()),
            ("remove_template", &|| {
                kb.remove_template(iri.str_value());
            }),
            ("refine_template_stats", &|| {
                kb.refine_template_stats(iri.str_value(), &refinement);
            }),
            ("apply_feedback", &|| {
                kb.apply_feedback();
            }),
            ("insert_batch", &|| kb.insert(&tpl("ro2", "w", 10.0))),
        ];
        for (op, call) in calls {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .expect_err("a client mutator on a replica must panic");
            let reject = panic
                .downcast_ref::<galo_rdf::ReadOnlyReplica>()
                .expect("panics with the typed rejection");
            assert_eq!(reject.op, op);
            assert_eq!((image(kb), kb.epoch()), (before.clone(), epoch), "{op}");
        }
        let err = kb.import("").expect_err("replica import must fail");
        assert!(matches!(err, galo_rdf::ServerError::ReadOnlyReplica(_)));
        assert_eq!((image(kb), kb.epoch()), (before, epoch), "import");
        assert_eq!(
            kb.feedback().pending(),
            1,
            "a rejected fold keeps its evidence"
        );
    }

    #[test]
    fn retry_policy_backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_ms: 2,
            max_backoff_ms: 16,
        };
        assert_eq!(p.backoff_ms(1), 2);
        assert_eq!(p.backoff_ms(2), 4);
        assert_eq!(p.backoff_ms(3), 8);
        assert_eq!(p.backoff_ms(4), 16);
        assert_eq!(p.backoff_ms(9), 16, "capped");
    }
}
