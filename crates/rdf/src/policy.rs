//! Workload-adaptive storage policy: one compaction decision, two drivers.
//!
//! Folding a shard's write-ahead log into a snapshot is decided in one
//! place, `Pace::due`, from the shard's [`StoragePressure`] (WAL
//! records and bytes, successful folds — one read lock and a few counter
//! loads per shard). Two drivers ask it:
//!
//! * **Synchronous** — a [`DurableStore`] opened with
//!   `auto_compact_records: Some(n)` asks after each commit, under a
//!   policy of `n` records, no byte threshold and no idle fold, and folds
//!   on the writer's thread. Deterministic: the same commits fold on every
//!   run, which is why the benchmark uses it.
//! * **Threaded** — the [`Compactor`] asks on every poll, for every shard,
//!   and triggers [`compact`] one shard at a time off the write path, so
//!   the writer whose commit crosses the threshold does not pay the
//!   snapshot-encode + fsync + rotate bill.
//!
//! The decision:
//!
//! * **Thresholds** — a shard is due when its log reaches
//!   [`CompactionPolicy::wal_records`] records (commits) *or*
//!   [`CompactionPolicy::wal_bytes`] bytes, whichever trips first.
//! * **Idle folding (the workload-adaptive part)** — a shard whose log
//!   carries at least `wal_records / idle_divisor` records and has not
//!   moved since the previous look (same record count, no fold by anyone
//!   in between) is due early: read-heavy phases pay for compaction while
//!   they are quiet, so the next churn phase starts from an empty log.
//! * **Failure back-off, by commits** — after an attempt that folded
//!   nothing the shard is not due again until its log has grown by
//!   another threshold's worth (`wal_records` more commits, or
//!   `wal_bytes` more bytes) since that attempt, so a broken disk costs
//!   one snapshot encode per threshold of writes, never one per poll. Any
//!   successful fold ends the back-off, whoever ran it: the pace sees the
//!   store's [`StoragePressure::compactions`] counter move.
//!
//! Every attempt, whichever driver or an explicit [`compact`] made it, is
//! counted once, by the store, in its [`StoragePressure`]:
//! `compactions`, `compactions_failed`, `last_compaction_error`. The
//! thread adds only what it alone knows ([`CompactorStats`]). Dropping the
//! [`Compactor`] signals the thread and joins it; no detached thread
//! outlives the store it watches.
//!
//! [`compact`]: crate::store::TripleStore::compact
//! [`DurableStore`]: crate::persist::DurableStore
//! [`StoragePressure`]: crate::store::StoragePressure

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// Knobs of the compaction decision. Construct with struct update syntax
/// over [`Default`]:
///
/// ```
/// use galo_rdf::policy::CompactionPolicy;
/// use std::time::Duration;
/// let policy = CompactionPolicy {
///     wal_records: 512,
///     poll_interval: Duration::from_millis(5),
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
    /// An idle shard (no new records and no fold since the previous look)
    /// is folded early at `wal_records / idle_divisor` records. `0`
    /// disables idle folding.
    pub idle_divisor: u64,
    /// How often the [`Compactor`] thread looks (unused by the
    /// synchronous driver, which looks after every commit).
    pub poll_interval: Duration,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            wal_records: 4096,
            wal_bytes: 4 << 20,
            idle_divisor: 4,
            poll_interval: Duration::from_millis(20),
        }
    }
}

impl CompactionPolicy {
    /// The synchronous driver's policy for `auto_compact_records: Some(n)`:
    /// `n` records, no byte threshold, no idle fold.
    pub(crate) fn records(n: u64) -> Self {
        CompactionPolicy {
            wal_records: n,
            wal_bytes: u64::MAX,
            idle_divisor: 0,
            ..CompactionPolicy::default()
        }
    }
}

/// Why [`Pace::due`] called a shard due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fold {
    /// The log reached a threshold.
    Threshold,
    /// The log sat still at the reduced idle threshold.
    Idle,
}

/// Per-shard pacing state a driver keeps between two looks at a shard.
#[derive(Debug, Default, Clone)]
pub(crate) struct Pace {
    /// `(compactions, wal_records)` at the previous look: a shard is idle
    /// while the pair stays put.
    seen: (u64, u64),
    /// The pressure at the last attempt this pace called due. While the
    /// store's `compactions` still equals it, that attempt folded nothing
    /// and only the log grown since counts toward the thresholds.
    attempt: Option<StoragePressure>,
}

impl Pace {
    /// The one compaction decision: is the shard at `pressure` due for a
    /// fold under `policy`? A driver that hears `Some` attempts the fold.
    pub(crate) fn due(
        &mut self,
        policy: &CompactionPolicy,
        pressure: &StoragePressure,
    ) -> Option<Fold> {
        let seen = (pressure.compactions, pressure.wal_records);
        let idle = seen == self.seen;
        self.seen = seen;
        let (base_records, base_bytes) = match &self.attempt {
            Some(failed) if failed.compactions == pressure.compactions => {
                (failed.wal_records, failed.wal_bytes)
            }
            _ => (0, 0),
        };
        let records = pressure.wal_records.saturating_sub(base_records);
        let bytes = pressure.wal_bytes.saturating_sub(base_bytes);
        let fold = if records >= policy.wal_records || bytes >= policy.wal_bytes {
            Fold::Threshold
        } else if policy.idle_divisor > 0
            && idle
            && records > 0
            && records >= policy.wal_records / policy.idle_divisor
        {
            Fold::Idle
        } else {
            return None;
        };
        self.attempt = Some(pressure.clone());
        Some(fold)
    }
}

/// What only the compactor thread knows; cheap to read from tests,
/// benches and ops code while the thread runs. Folds and failures are
/// counted by the store, in its [`StoragePressure`].
#[derive(Debug, Default)]
pub struct CompactorStats {
    idle_compacted: AtomicU64,
    sweeps: AtomicU64,
}

impl CompactorStats {
    /// Successful folds the thread took on the idle path.
    pub fn idle_compacted(&self) -> u64 {
        self.idle_compacted.load(Ordering::Relaxed)
    }

    /// Pressure sweeps completed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }
}

/// A std mutex lock that shrugs off poisoning: the stop flag is plain
/// data, safe to read after a panicking holder.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shutdown channel between the handle and the thread.
struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// The threaded driver: owns one watcher thread for the lifetime of the
/// handle. Dropping the handle stops and joins the thread.
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
    let mut paces: Vec<Pace> = Vec::new();
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
        sweep(target, policy, stats, &mut paces);
    }
}

/// One look at every shard, folding those [`Pace::due`] calls due.
fn sweep(
    target: &dyn CompactionTarget,
    policy: &CompactionPolicy,
    stats: &CompactorStats,
    paces: &mut Vec<Pace>,
) {
    let pressures = target.storage_pressures();
    paces.resize(pressures.len(), Pace::default());
    for (shard, (pressure, pace)) in pressures.iter().zip(paces.iter_mut()).enumerate() {
        let Some(fold) = pace.due(policy, pressure) else {
            continue;
        };
        match target.compact_shard(shard) {
            Ok(()) if fold == Fold::Idle => {
                stats.idle_compacted.fetch_add(1, Ordering::Relaxed);
            }
            Ok(()) => {}
            Err(e) => eprintln!(
                "background compactor: shard {shard} compaction failed \
                 (retrying after another threshold of writes): {e}"
            ),
        }
    }
    stats.sweeps.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{DurableOptions, DurableStore, ScratchDir};
    use crate::store::TripleStore;
    use crate::term::Term;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    /// A diskless target: per-shard record counters the test mutates, a
    /// failure switch, a log of the folds it ran (whoever asked) and a
    /// count of the attempts that failed.
    #[derive(Debug, Default)]
    struct FakeTarget {
        records: Vec<AtomicU64>,
        fail: AtomicBool,
        folds: Mutex<Vec<usize>>,
        failed: AtomicU64,
    }

    impl FakeTarget {
        fn with_shards(n: usize) -> Arc<FakeTarget> {
            Arc::new(FakeTarget {
                records: (0..n).map(|_| AtomicU64::new(0)).collect(),
                ..FakeTarget::default()
            })
        }

        fn folds(&self) -> Vec<usize> {
            lock_recovering(&self.folds).clone()
        }

        fn failed(&self) -> u64 {
            self.failed.load(Ordering::Relaxed)
        }

        fn commit(&self, shard: usize, commits: u64) {
            self.records[shard].fetch_add(commits, Ordering::Relaxed);
        }
    }

    impl CompactionTarget for FakeTarget {
        fn storage_pressures(&self) -> Vec<StoragePressure> {
            let folds = self.folds();
            self.records
                .iter()
                .enumerate()
                .map(|(shard, r)| StoragePressure {
                    wal_records: r.load(Ordering::Relaxed),
                    wal_bytes: r.load(Ordering::Relaxed) * 32,
                    compactions: folds.iter().filter(|&&s| s == shard).count() as u64,
                    ..StoragePressure::default()
                })
                .collect()
        }

        fn compact_shard(&self, shard: usize) -> io::Result<()> {
            if self.fail.load(Ordering::Relaxed) {
                self.failed.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::other("injected compaction failure"));
            }
            self.records[shard].store(0, Ordering::Relaxed);
            lock_recovering(&self.folds).push(shard);
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
            poll_interval: Duration::from_millis(1),
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
        target.commit(0, 9);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.sweeps() >= 20));
        assert!(target.folds().is_empty());
        assert_eq!(target.failed(), 0);
    }

    #[test]
    fn over_threshold_compacts_only_the_hot_shard() {
        let target = FakeTarget::with_shards(3);
        target.commit(1, 25);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        assert!(eventually(|| !target.folds().is_empty()));
        assert_eq!(target.folds(), vec![1]);
        assert_eq!(target.records[1].load(Ordering::Relaxed), 0);
        assert_eq!(target.failed(), 0);
        drop(compactor);
    }

    /// The commit rule, over direct sweeps: a failing disk with no new
    /// commits sees one attempt however often the shard is looked at;
    /// another threshold's worth of commits brings the next; once the
    /// disk heals, the next due sweep folds.
    #[test]
    fn failure_backs_off_instead_of_hot_looping() {
        let target = FakeTarget::with_shards(1);
        let stats = CompactorStats::default();
        let mut paces = Vec::new();
        let policy = fast_policy();
        target.commit(0, 100);
        target.fail.store(true, Ordering::Relaxed);
        for _ in 0..40 {
            sweep(&*target, &policy, &stats, &mut paces);
        }
        assert_eq!(target.failed(), 1, "one attempt over 40 sweeps");
        target.commit(0, 9);
        for _ in 0..40 {
            sweep(&*target, &policy, &stats, &mut paces);
        }
        assert_eq!(target.failed(), 1, "nine commits are not a threshold");
        target.commit(0, 1);
        for _ in 0..40 {
            sweep(&*target, &policy, &stats, &mut paces);
        }
        assert_eq!(target.failed(), 2, "the tenth brings the second attempt");
        // The disk heals: nothing is due until another threshold of
        // commits arrives, and then the fold succeeds.
        target.fail.store(false, Ordering::Relaxed);
        sweep(&*target, &policy, &stats, &mut paces);
        assert!(target.folds().is_empty());
        target.commit(0, 10);
        sweep(&*target, &policy, &stats, &mut paces);
        assert_eq!(target.folds(), vec![0]);
        assert_eq!(target.records[0].load(Ordering::Relaxed), 0);
        // The back-off ended with the fold: the new log folds at 10.
        target.commit(0, 10);
        sweep(&*target, &policy, &stats, &mut paces);
        assert_eq!(target.folds(), vec![0, 0]);
        assert_eq!(target.failed(), 2);
    }

    /// A fold someone else ran ends the thread's back-off at once.
    #[test]
    fn a_fold_by_anyone_ends_the_back_off() {
        let target = FakeTarget::with_shards(1);
        let stats = CompactorStats::default();
        let mut paces = Vec::new();
        let policy = fast_policy();
        target.commit(0, 10);
        target.fail.store(true, Ordering::Relaxed);
        sweep(&*target, &policy, &stats, &mut paces);
        assert_eq!(target.failed(), 1);
        target.fail.store(false, Ordering::Relaxed);
        target.compact_shard(0).unwrap(); // an explicit compact()
        target.commit(0, 10);
        sweep(&*target, &policy, &stats, &mut paces);
        assert_eq!(target.folds(), vec![0, 0], "due at 10, not at 20");
    }

    #[test]
    fn idle_shard_folds_early() {
        let target = FakeTarget::with_shards(1);
        // 5 records: half the 10-record threshold, above 10/4. No new
        // writes arrive, so the idle path must fold it.
        target.commit(0, 5);
        let policy = CompactionPolicy {
            idle_divisor: 4,
            ..fast_policy()
        };
        let compactor = Compactor::spawn(Arc::clone(&target) as _, policy);
        let stats = compactor.stats();
        assert!(eventually(|| stats.idle_compacted() >= 1));
        assert_eq!(target.records[0].load(Ordering::Relaxed), 0);
    }

    /// A shard whose log was folded elsewhere (an explicit `compact()`, an
    /// inline fold) and refilled to the count the thread saw last is busy,
    /// not idle.
    #[test]
    fn idle_detection_sees_a_fold_it_did_not_run() {
        let target = FakeTarget::with_shards(1);
        let stats = CompactorStats::default();
        let mut paces = Vec::new();
        let policy = CompactionPolicy {
            wal_records: 100,
            idle_divisor: 4,
            ..fast_policy()
        };
        target.commit(0, 40);
        sweep(&*target, &policy, &stats, &mut paces);
        assert!(target.folds().is_empty(), "first look: not yet idle");
        target.compact_shard(0).unwrap();
        target.commit(0, 40);
        sweep(&*target, &policy, &stats, &mut paces);
        assert_eq!(target.folds(), vec![0], "a refilled log is not idle");
        assert_eq!(stats.idle_compacted(), 0);
        // Left alone at 40, it is.
        sweep(&*target, &policy, &stats, &mut paces);
        assert_eq!(target.folds(), vec![0, 0]);
        assert_eq!(stats.idle_compacted(), 1);
    }

    #[test]
    fn idle_folding_disabled_by_zero_divisor() {
        let target = FakeTarget::with_shards(1);
        target.commit(0, 5);
        let compactor = Compactor::spawn(Arc::clone(&target) as _, fast_policy());
        let stats = compactor.stats();
        assert!(eventually(|| stats.sweeps() >= 20));
        assert!(target.folds().is_empty());
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
        target.commit(0, 100);
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
        target.commit(3, 50);
        assert!(eventually(|| !target.folds().is_empty()));
        assert_eq!(target.folds(), vec![3]);
        drop(compactor);
    }

    /// One durable store as a one-shard target.
    impl CompactionTarget for Mutex<DurableStore> {
        fn storage_pressures(&self) -> Vec<StoragePressure> {
            vec![lock_recovering(self).storage_pressure().unwrap_or_default()]
        }

        fn compact_shard(&self, _shard: usize) -> io::Result<()> {
            lock_recovering(self).compact()
        }
    }

    /// The two drivers agree: one commit sequence through a store that
    /// folds inline at 3 commits, and through a store without an inline
    /// trigger swept synchronously after every commit under the same
    /// policy, folds at the same commits — across failed attempts too.
    #[test]
    fn inline_and_swept_drivers_fold_at_the_same_commits() {
        let inline_dir = ScratchDir::new("policy-differential-inline");
        let swept_dir = ScratchDir::new("policy-differential-swept");
        let mut inline = DurableStore::open_with(
            inline_dir.path(),
            DurableOptions {
                auto_compact_records: Some(3),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        let swept = Mutex::new(DurableStore::open(swept_dir.path()).unwrap());
        let stats = CompactorStats::default();
        let mut paces = Vec::new();
        let policy = CompactionPolicy::records(3);
        // A directory squatting on the next generation's log blocks a fold.
        let blocker = |dir: &ScratchDir, generation: u64| {
            dir.path().join(format!("wal-{generation:010}.log"))
        };
        let (mut folds, mut failures) = (Vec::new(), Vec::new());
        let mut before = (0, 0);
        for i in 0..24u32 {
            match i {
                4 => {
                    std::fs::create_dir(blocker(&inline_dir, 2)).unwrap();
                    std::fs::create_dir(blocker(&swept_dir, 2)).unwrap();
                }
                10 => {
                    std::fs::remove_dir(blocker(&inline_dir, 2)).unwrap();
                    std::fs::remove_dir(blocker(&swept_dir, 2)).unwrap();
                }
                _ => {}
            }
            let s = Term::iri(format!("http://galo/qep/pop/{i}"));
            let p = Term::iri("http://galo/qep/property/a");
            if i % 5 == 4 {
                // A bracket of two operations is one commit.
                inline.begin_batch();
                inline.insert(s.clone(), p.clone(), Term::lit("x"));
                inline.insert(s.clone(), p.clone(), Term::lit("y"));
                inline.end_batch();
                let mut st = lock_recovering(&swept);
                st.begin_batch();
                st.insert(s.clone(), p.clone(), Term::lit("x"));
                st.insert(s, p, Term::lit("y"));
                st.end_batch();
            } else {
                inline.insert(s.clone(), p.clone(), Term::num(i as f64));
                lock_recovering(&swept).insert(s, p, Term::num(i as f64));
            }
            sweep(&swept, &policy, &stats, &mut paces);
            let a = inline.storage_pressure().unwrap();
            let b = lock_recovering(&swept).storage_pressure().unwrap();
            assert_eq!(
                (a.compactions, a.compactions_failed, a.wal_records),
                (b.compactions, b.compactions_failed, b.wal_records),
                "commit {i}"
            );
            if a.compactions > before.0 {
                folds.push(i + 1);
            }
            if a.compactions_failed > before.1 {
                failures.push(i + 1);
            }
            before = (a.compactions, a.compactions_failed);
        }
        // The blocked second fold fails at commit 6 and, backed off by
        // three commits, at 9; the healed disk folds at 12, and the
        // fresh log every third commit after it.
        assert_eq!(failures, vec![6, 9]);
        assert_eq!(folds, vec![3, 12, 15, 18, 21, 24]);
    }
}
