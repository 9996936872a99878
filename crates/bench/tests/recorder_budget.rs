//! Exact recorder budget on the Figure 3 contiguous loop.
//!
//! The wall-clock gate (`obs overhead --assert-ns`) reads a noisy host
//! clock; the regressions that matter on the recorded hot path, an extra
//! event per operation or a heap allocation per event, are deterministic
//! and gated exactly here. A counting global allocator (as in
//! `armci-mpi`'s `alloc_budget` test) tallies rank 0's allocations while
//! it issues the loop's puts and gets with the recorder armed; the count
//! stops while each round's events are drained, so only the recording
//! itself is charged.

use bench::trace::{contig_loop, OVERHEAD_OPS_PER_REP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts the current thread's allocations while its `COUNTING` flag is
/// set; every other thread (the idle peer rank, parallel tests) is
/// ignored.
struct Counting;

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Events the recorder keeps per blocking contiguous put or get on the
/// MPI-2 per-op wire: the op span, its plan/acquire/execute/complete
/// stage spans, the lock acquire and release, and the window transfer.
const EVENTS_PER_OP: u64 = 8;

/// Rounds that grow every reusable buffer (the event buffer included)
/// before counting starts.
const WARM: usize = 20;
const ROUNDS: usize = 200;

#[test]
fn recording_adds_fixed_events_and_no_allocations_per_op() {
    let events = AtomicU64::new(0);
    let allocs = AtomicU64::new(0);
    let (_, leftover) = obs::capture(|| {
        contig_loop(ROUNDS, &|round| {
            COUNTING.with(|c| c.set(false));
            let drained = obs::take_local().len() as u64;
            if round >= WARM {
                events.fetch_add(drained, Ordering::Relaxed);
                allocs.store(COUNT.with(Cell::get), Ordering::Relaxed);
            }
            if round + 1 >= WARM {
                COUNTING.with(|c| c.set(true));
            }
        })
    });
    let ops = (ROUNDS - WARM) as u64 * OVERHEAD_OPS_PER_REP;
    let (events, allocs) = (events.into_inner(), allocs.into_inner());
    println!(
        "{events} events over {ops} ops ({} per op), {allocs} allocations, {} left over",
        events as f64 / ops as f64,
        leftover.len()
    );
    if !obs::COMPILED_IN {
        assert_eq!(events, 0, "a compiled-out recorder records nothing");
        return;
    }
    assert_eq!(events, EVENTS_PER_OP * ops, "events recorded per op");
    assert_eq!(allocs, 0, "allocations while recording {events} events");
}
