//! Heap allocations of learning TPC-DS and then the client workload once,
//! at the benchmark's learning configuration, counted by a counting global
//! allocator and pinned. The learner's workers allocate on their own
//! threads, so the flag that turns counting on is process-wide; this
//! binary holds one test, so nothing else runs while it is set. The test
//! harness's main thread is not counted: it waits for the test's thread,
//! and how often it wakes, and allocates, depends on the machine's load.
//! Threads are told apart by their kernel id, so the test is Linux-only.
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use galo_core::{learn_workload, KnowledgeBase, LearningConfig};
use galo_workloads::{client, tpcds};

/// Learning both workloads makes at most this many allocations (`alloc`,
/// `alloc_zeroed` and `realloc` calls); a change that makes fewer lowers
/// it. The worker threads inherit the harness's output capture, which
/// costs 8 allocations over the four of them: `--nocapture` counts
/// 1,758,095.
const PINNED: usize = 1_758_103;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

extern "C" {
    /// The calling thread's kernel id; the process's main thread's is the
    /// process id.
    fn gettid() -> i32;
}

fn tally() {
    // SAFETY: `gettid` takes nothing, cannot fail and does not allocate.
    if COUNTING.load(Ordering::Relaxed) && unsafe { gettid() } as u32 != std::process::id() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn learning_both_workloads_stays_within_the_pinned_allocations() {
    // SAFETY: as in `tally`.
    let on_main = unsafe { gettid() } as u32 == std::process::id();
    assert!(!on_main, "the harness runs a test on a thread of its own");
    let workloads = [tpcds::workload(), client::workload()];
    let cfg = LearningConfig {
        probes_per_pred: 2,
        random_plans: 6,
        runs_per_plan: 3,
        max_subqueries_per_query: 60,
        threads: 2,
        ..LearningConfig::default()
    };
    let kb = KnowledgeBase::new();

    COUNTING.store(true, Ordering::Relaxed);
    let templates: usize = workloads
        .iter()
        .map(|w| learn_workload(w, &kb, &cfg).templates_learned)
        .sum();
    COUNTING.store(false, Ordering::Relaxed);

    assert_eq!(templates, 94 + 186);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    println!("learning both workloads: {allocs} allocations");
    assert!(allocs <= PINNED, "{allocs} allocations, pinned at {PINNED}");
}
