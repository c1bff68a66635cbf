//! Workload-adaptive storage policy: a background auto-compactor.
//!
//! The inline `auto_compact_records` check folds the log *on the mutator
//! write path* — the writer whose commit crosses the threshold (a log
//! record is one commit: a single mutation, or a whole batch) pays the
//! whole snapshot-encode + fsync + rotate bill, which is
//! exactly the latency spike a serving tier cannot afford under churn.
//! The [`Compactor`] moves that work to a background thread: it polls
//! per-shard [`StoragePressure`] (WAL records/bytes — one read lock and
//! two counter loads per shard) and triggers [`compact`] one shard at a
//! time, off the write path, under a policy with hysteresis and failure
//! back-off:
//!
//! * **Thresholds** — a shard is compacted when its log reaches
//!   [`CompactionPolicy::wal_records`] records *or*
//!   [`CompactionPolicy::wal_bytes`] bytes, whichever trips first.
//! * **Idle folding (the workload-adaptive part)** — a shard whose log
//!   carries at least `wal_records / idle_divisor` records but saw *no new
//!   writes since the last sweep* is folded early: read-heavy phases pay
//!   for compaction while they are quiet, so the next churn phase starts
//!   from an empty log. Churn-heavy phases are governed by the full
//!   threshold only.
//! * **Hysteresis** — after a successful compaction a shard is left alone
//!   for [`CompactionPolicy::min_interval`], so a hot shard is not
//!   re-folded on every poll.
//! * **Failure back-off** — a failed compaction is counted
//!   ([`CompactorStats::failed`]), its error kept, and the shard's next
//!   attempt delayed by an exponentially growing back-off (capped at
//!   [`CompactionPolicy::max_backoff`]) instead of hot-looping a broken
//!   disk. The store's own `compactions_failed` counter advances too
//!   (failure accounting lives in [`DurableStore::compact`]).
//! * **Clean shutdown** — dropping the [`Compactor`] signals the thread
//!   and joins it; no detached thread outlives the store it watches.
//!
//! [`compact`]: crate::store::TripleStore::compact
//! [`DurableStore::compact`]: crate::persist::DurableStore
//! [`StoragePressure`]: crate::store::StoragePressure

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::store::StoragePressure;

/// What the [`Compactor`] watches and acts on: anything that can report
/// per-shard WAL pressure and compact one shard at a time. Implemented by
/// `FusekiLite`'s backing (single durable store = one "shard"; sharded
/// store = one entry per shard); tests implement it with fakes to pin the
/// policy without touching a disk.
pub trait CompactionTarget: Send + Sync {
    /// Current pressure, one entry per shard, indexed by shard number.
    /// In-memory shards report [`StoragePressure::default`] (all zeros —
    /// never above threshold).
    fn storage_pressures(&self) -> Vec<StoragePressure>;

    /// Fold shard `shard`'s log into a snapshot, holding only that
    /// shard's write lock.
    fn compact_shard(&self, shard: usize) -> io::Result<()>;
}

/// Knobs of the background compaction policy. Construct with struct
/// update syntax over [`Default`]:
///
/// ```
/// use galo_rdf::policy::CompactionPolicy;
/// use std::time::Duration;
/// let policy = CompactionPolicy {
///     wal_records: 512,
///     min_interval: Duration::from_millis(50),
///     ..CompactionPolicy::default()
/// };
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact a shard once its log holds this many records — commits,
    /// whatever their size; [`wal_bytes`](Self::wal_bytes) bounds the size.
    pub wal_records: u64,
    /// Compact a shard once its log holds this many bytes.
    pub wal_bytes: u64,
    /// An idle shard (no new records since the previous sweep) is folded
    /// early at `wal_records / idle_divisor` records. `0` disables idle
    /// folding.
    pub idle_divisor: u64,
    /// Hysteresis: minimum time between successful compactions of the
    /// same shard.
    pub min_interval: Duration,
    /// How often the watcher samples pressure.
    pub poll_interval: Duration,
    /// Delay before retrying a shard whose compaction failed; doubles per
    /// consecutive failure.
    pub failure_backoff: Duration,
    /// Cap on the exponential failure back-off.
    pub max_backoff: Duration,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            wal_records: 4096,
            wal_bytes: 4 << 20,
            idle_divisor: 4,
            min_interval: Duration::from_millis(250),
            poll_interval: Duration::from_millis(20),
            failure_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// Counters the compactor thread publishes; cheap to read from tests,
/// benches and ops code while the thread runs.
#[derive(Debug, Default)]
pub struct CompactorStats {
    triggered: AtomicU64,
    compacted: AtomicU64,
    idle_compacted: AtomicU64,
    failed: AtomicU64,
    sweeps: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl CompactorStats {
    /// Compaction attempts started (successes + failures).
    pub fn triggered(&self) -> u64 {
        self.triggered.load(Ordering::Relaxed)
    }

    /// Successful compactions (threshold-driven and idle together).
    pub fn compacted(&self) -> u64 {
        self.compacted.load(Ordering::Relaxed)
    }

    /// Successful compactions taken on the idle path (subset of
    /// [`compacted`](Self::compacted)).
    pub fn idle_compacted(&self) -> u64 {
        self.idle_compacted.load(Ordering::Relaxed)
    }

    /// Failed compaction attempts.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Pressure sweeps completed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Error text of the most recent failed attempt.
    pub fn last_error(&self) -> Option<String> {
        lock_recovering(&self.last_error).clone()
    }
}

/// A std mutex lock that shrugs off poisoning: the compactor's state is
/// plain data, safe to read after a panicking holder.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shutdown channel between the handle and the thread.
struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// The background auto-compactor: owns one watcher thread for the
/// lifetime of the handle. Dropping the handle stops and joins the
/// thread.
pub struct Compactor {
    shared: Arc<Shared>,
    stats: Arc<CompactorStats>,
    policy: CompactionPolicy,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Compactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compactor")
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .field("running", &self.handle.is_some())
            .finish()
    }
}

/// Per-shard pacing state the watcher thread keeps between sweeps.
#[derive(Debug, Default, Clone)]
struct ShardClock {
    /// Earliest instant the next attempt on this shard is allowed
    /// (hysteresis after a success, back-off after a failure).
    next_allowed: Option<Instant>,
    /// Consecutive failed attempts (drives the exponential back-off).
    consecutive_failures: u32,
    /// `wal_records` observed at the previous sweep (idle detection).
    last_records: u64,
}

impl Compactor {
    /// Spawn the watcher thread over `target` under `policy`.
    pub fn spawn(target: Arc<dyn CompactionTarget>, policy: CompactionPolicy) -> Compactor {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let stats = Arc::new(CompactorStats::default());
        let handle = {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            let policy = policy.clone();
            std::thread::Builder::new()
                .name("galo-compactor".into())
                .spawn(move || run(&*target, &policy, &shared, &stats))
                .expect("compactor watcher thread spawns")
        };
        Compactor {
            shared,
            stats,
            policy,
            handle: Some(handle),
        }
    }

    /// A handle to the live counters (usable while the thread runs and
    /// after it stops).
    pub fn stats(&self) -> Arc<CompactorStats> {
        Arc::clone(&self.stats)
    }

    /// The policy the watcher runs under.
    pub fn policy(&self) -> &CompactionPolicy {
        &self.policy
    }

    /// Signal the watcher thread and join it. Idempotent; also runs on
    /// drop. After `stop` returns no further compactions are triggered.
    pub fn stop(&mut self) {
        *lock_recovering(&self.shared.stop) = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The watcher loop: sweep, sleep on the shutdown condvar for
/// `poll_interval`, repeat until stopped.
fn run(
    target: &dyn CompactionTarget,
    policy: &CompactionPolicy,
    shared: &Shared,
    stats: &CompactorStats,
) {
    let mut clocks: Vec<ShardClock> = Vec::new();
    loop {
        {
            let mut stop = lock_recovering(&shared.stop);
            if *stop {
                return;
            }
            let (guard, _) = shared
                .wake
                .wait_timeout(stop, policy.poll_interval)
                .unwrap_or_else(|e| e.into_inner());
            stop = guard;
            if *stop {
                return;
            }
        }
        sweep(target, policy, stats, &mut clocks);
        stats.sweeps.fetch_add(1, Ordering::Relaxed);
    }
}

/// One pressure sweep over every shard.
fn sweep(
    target: &dyn CompactionTarget,
    policy: &CompactionPolicy,
    stats: &CompactorStats,
    clocks: &mut Vec<ShardClock>,
) {
    let pressures = target.storage_pressures();
    clocks.resize(pressures.len(), ShardClock::default());
    for (shard, pressure) in pressures.iter().enumerate() {
        let clock = &mut clocks[shard];
        let idle = pressure.wal_records == clock.last_records;
        clock.last_records = pressure.wal_records;
        let over_threshold =
            pressure.wal_records >= policy.wal_records || pressure.wal_bytes >= policy.wal_bytes;
        let idle_fold = policy.idle_divisor > 0
            && idle
            && pressure.wal_records > 0
            && pressure.wal_records >= policy.wal_records / policy.idle_divisor;
        if !(over_threshold || idle_fold) {
            continue;
        }
        let now = Instant::now();
        if clock.next_allowed.is_some_and(|t| now < t) {
            continue; // hysteresis or failure back-off window
        }
        stats.triggered.fetch_add(1, Ordering::Relaxed);
        match target.compact_shard(shard) {
            Ok(()) => {
                stats.compacted.fetch_add(1, Ordering::Relaxed);
                if !over_threshold {
                    stats.idle_compacted.fetch_add(1, Ordering::Relaxed);
                }
                clock.consecutive_failures = 0;
                clock.last_records = 0;
                clock.next_allowed = Some(Instant::now() + policy.min_interval);
            }
            Err(e) => {
                stats.failed.fetch_add(1, Ordering::Relaxed);
                *lock_recovering(&stats.last_error) = Some(e.to_string());
                let exp = clock.consecutive_failures.min(16);
                clock.consecutive_failures = clock.consecutive_failures.saturating_add(1);
                let backoff = policy
                    .failure_backoff
                    .checked_mul(1u32 << exp)
                    .unwrap_or(policy.max_backoff)
                    .min(policy.max_backoff);
                clock.next_allowed = Some(Instant::now() + backoff);
                eprintln!(
                    "background compactor: shard {shard} compaction failed \
                     (attempt {}, backing off {backoff:?}): {e}",
                    clock.consecutive_failures
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A diskless target: per-shard record counters the test mutates, a
    /// failure switch, and a log of compacted shards.
    #[derive(Debug, Default)]
    struct FakeTarget {
        records: Vec<AtomicU64>,
        fail: AtomicBool,
        compactions: Mutex<Vec<usize>>,
    }

    impl FakeTarget {
        fn with_shards(n: usize) -> Arc<FakeTarget> {
            Arc::new(FakeTarget {
                records: (0..n).map(|_| AtomicU64::new(0)).collect(),
                ..FakeTarget::default()
            })
        }

        fn compactions(&self) -> Vec<usize> {
            lock_recovering(&self.compactions).clone()
        }
    }

    impl CompactionTarget for FakeTarget {
        fn storage_pressures(&self) -> Vec<StoragePressure> {
            self.records
                .iter()
                .map(|r| StoragePressure {
                    wal_records: r.load(Ordering::Relaxed),
                    wal_bytes: r.load(Ordering::Relaxed) * 32,
                    ..StoragePressure::default()
                })
                .collect()
        }

        fn compact_shard(&self, shard: usize) -> io::Result<()> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(io::Error::other("injected compaction failure"));
            }
            self.records[shard].store(0, Ordering::Relaxed);
            lock_recovering(&self.compactions).push(shard);
            Ok(())
        }
    }

    /// A policy fast enough for tests: 1 ms polls, no idle folding unless
    /// a test asks for it.
    fn fast_policy() -> CompactionPolicy {
        CompactionPolicy {
            wal_records: 10,
            wal_bytes: u64::MAX,
            idle_divisor: 0,
            min_interval: Duration::from_millis(1),
            poll_interval: Duration::from_millis(1),
            failure_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
        }
    }

    /// Spin until `cond` holds or ~5 s pass (single-CPU CI is slow).
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cond()
    }

    #[test]
    fn below_threshold_never_compacts() {
        let target = FakeTarget::with_shards(2);
        target.records[0].store(9, Ordering::Relaxed);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.sweeps() >= 20));
        assert_eq!(stats.triggered(), 0);
        assert!(target.compactions().is_empty());
    }

    #[test]
    fn over_threshold_compacts_only_the_hot_shard() {
        let target = FakeTarget::with_shards(3);
        target.records[1].store(25, Ordering::Relaxed);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.compacted() >= 1));
        assert_eq!(target.compactions(), vec![1]);
        assert_eq!(target.records[1].load(Ordering::Relaxed), 0);
        assert_eq!(stats.failed(), 0);
        assert_eq!(stats.last_error(), None);
    }

    #[test]
    fn hysteresis_spaces_out_compactions_of_a_hot_shard() {
        let target = FakeTarget::with_shards(1);
        target.records[0].store(100, Ordering::Relaxed);
        let policy = CompactionPolicy {
            // Pressure is re-applied below faster than it is folded, but
            // a long min_interval must keep the fold count at one.
            min_interval: Duration::from_secs(600),
            ..fast_policy()
        };
        let compactor = Compactor::spawn(Arc::clone(&target) as _, policy);
        let stats = compactor.stats();
        assert!(eventually(|| stats.compacted() == 1));
        target.records[0].store(100, Ordering::Relaxed); // pressure is back
        assert!(eventually(|| stats.sweeps() >= 50));
        assert_eq!(
            stats.compacted(),
            1,
            "hysteresis must hold the second fold back"
        );
    }

    #[test]
    fn failure_backs_off_instead_of_hot_looping() {
        let target = FakeTarget::with_shards(1);
        target.records[0].store(100, Ordering::Relaxed);
        target.fail.store(true, Ordering::Relaxed);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.failed() >= 2));
        let failed_then = stats.failed();
        let sweeps_then = stats.sweeps();
        assert!(eventually(|| stats.sweeps() >= sweeps_then + 30));
        // Dozens of sweeps later the attempt count has grown far slower
        // than the sweep count: the back-off is real.
        assert!(
            stats.failed() - failed_then < 10,
            "attempts {} -> {} over 30+ sweeps is hot-looping",
            failed_then,
            stats.failed()
        );
        assert!(stats
            .last_error()
            .is_some_and(|e| e.contains("injected compaction failure")));
        // The disk heals: the next allowed attempt succeeds and the
        // failure streak resets.
        target.fail.store(false, Ordering::Relaxed);
        assert!(eventually(|| stats.compacted() >= 1));
        assert_eq!(target.records[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn idle_shard_folds_early() {
        let target = FakeTarget::with_shards(1);
        // 5 records: half the 10-record threshold, above 10/4. No new
        // writes arrive, so the idle path must fold it.
        target.records[0].store(5, Ordering::Relaxed);
        let policy = CompactionPolicy {
            idle_divisor: 4,
            ..fast_policy()
        };
        let compactor = Compactor::spawn(Arc::clone(&target) as _, policy);
        let stats = compactor.stats();
        assert!(eventually(|| stats.idle_compacted() >= 1));
        assert_eq!(target.records[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn idle_folding_disabled_by_zero_divisor() {
        let target = FakeTarget::with_shards(1);
        target.records[0].store(5, Ordering::Relaxed);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.sweeps() >= 20));
        assert_eq!(stats.triggered(), 0);
    }

    #[test]
    fn drop_stops_and_joins_the_thread() {
        let target = FakeTarget::with_shards(1);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.sweeps() >= 1));
        drop(compactor);
        let sweeps = stats.sweeps();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(stats.sweeps(), sweeps, "thread must not outlive the handle");
        // A stopped compactor leaves pressure alone.
        target.records[0].store(100, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(target.records[0].load(Ordering::Relaxed), 100);
    }

    #[test]
    fn stop_is_idempotent() {
        let target = FakeTarget::with_shards(1);
        let mut compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        compactor.stop();
        compactor.stop();
        drop(compactor);
    }

    #[test]
    fn grows_clocks_when_shards_appear() {
        // A target whose shard count grows between sweeps (single store
        // targets report one entry; resize must not panic).
        let target = FakeTarget::with_shards(4);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        target.records[3].store(50, Ordering::Relaxed);
        let stats = compactor.stats();
        assert!(eventually(|| stats.compacted() >= 1));
        assert_eq!(target.compactions(), vec![3]);
    }
}
