//! Heap allocations of one default `Optimizer::optimize` pass over the 99
//! TPC-DS and 116 client queries, counted by a counting global allocator
//! and pinned. The planner keeps a planning's candidates in one arena, so
//! `dp` and `greedy` allocate nothing per kept alternative or per table
//! set; what is left is per query (rewrite, estimator, arena growth, the
//! winner's QGM). Only the planning thread's calls between the two flag
//! writes count, and this binary holds one test, so nothing else runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use galo_optimizer::Optimizer;
use galo_workloads::{client, tpcds};

/// A default pass makes at most this many allocations (`alloc`,
/// `alloc_zeroed` and `realloc` calls); a change that makes fewer lowers
/// it.
const PINNED: usize = 11_527;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
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
fn one_optimize_pass_stays_within_the_pinned_allocations() {
    let workloads = [tpcds::workload(), client::workload()];
    let queries: usize = workloads.iter().map(|w| w.queries.len()).sum();
    assert_eq!(queries, 99 + 116);

    COUNTING.with(|c| c.set(true));
    for w in &workloads {
        let optimizer = Optimizer::new(&w.db);
        for q in &w.queries {
            let plan = optimizer.optimize(q).expect("every workload query plans");
            drop(std::hint::black_box(plan));
        }
    }
    COUNTING.with(|c| c.set(false));

    let allocs = ALLOCS.load(Ordering::Relaxed);
    println!("one optimize pass over {queries} queries: {allocs} allocations");
    assert!(allocs <= PINNED, "{allocs} allocations, pinned at {PINNED}");
}
