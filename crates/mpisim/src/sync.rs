//! Host-side blocking for the simulator's shared state.
//!
//! Every blocking wait in the runtime (window epoch locks, collective
//! rendezvous, message receipt) waits through [`wait_for`]. Its critical
//! sections are sub-microsecond, so a waiter first spins on the host CPU
//! with the state lock dropped, re-checking under the lock after each
//! round, and parks on the condition variable only when that budget runs
//! out: six rounds of 2, 4, ..., 64 `spin_loop` hints.
//!
//! The spinning never yields the CPU. With `parking_lot_core`'s `SpinWait`
//! schedule (three spin rounds, then up to seven `yield_now` calls) rank
//! threads that outnumber the host's cores ran in longer bursts, and the
//! races that program order leaves open (which rank claims the next
//! NXTVAL task, whether a queueing-mutex request finds the mutex held)
//! tilted further: the tests that check those races' virtual-time
//! outcomes failed several times as often (EXPERIMENTS.md, "Host
//! synchronization"). Spinning longer and then parking keeps them as
//! they were when every wait parked at once.
//!
//! No charge depends on how a thread waited: clocks are charged from the
//! cost model, so a program whose outcome program order fixes gets the
//! same virtual time bit for bit.
//!
//! # A panicking rank fails the run
//!
//! A rank that panics can leave its peers waiting for something it will
//! never do: release a window lock, send a message, join a collective.
//! Each rank thread therefore runs with its runtime's [`Abort`] state,
//! which records the first rank to unwind. That rank then wakes every
//! waiter parked on the runtime's mailboxes, collective cells and window
//! locks, and a waiter that finds the state set panics in turn instead
//! of parking, so `Runtime::run_with` can join every rank and re-raise
//! the first panic. The check runs under the waiter's lock just before
//! it parks, which is what makes the wake-up impossible to miss; until
//! then it costs nothing. A wait on a condition variable the runtime
//! cannot reach (ARMCI-Native's queueing mutexes) uses [`park`], which
//! re-checks every [`ABORT_POLL`] instead.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Backoff rounds before parking; round `k` (from 1) issues `2^k` hints.
const SPIN_ROUNDS: u32 = 6;

/// How long a [`park`]ed waiter sleeps before it checks whether a peer
/// rank has panicked.
const ABORT_POLL: Duration = Duration::from_millis(10);

/// Which rank of a runtime panicked first, if any.
pub(crate) struct Abort {
    /// The rank, or `usize::MAX` while no rank has panicked.
    first: AtomicUsize,
}

impl Abort {
    pub fn new() -> Arc<Abort> {
        Arc::new(Abort {
            first: AtomicUsize::new(usize::MAX),
        })
    }

    /// The first rank that panicked.
    pub fn first(&self) -> Option<usize> {
        match self.first.load(Ordering::Acquire) {
            usize::MAX => None,
            rank => Some(rank),
        }
    }

    /// Records `rank` as the first rank to panic; false if another
    /// already is.
    pub fn record(&self, rank: usize) -> bool {
        self.first
            .compare_exchange(usize::MAX, rank, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

thread_local! {
    /// The abort state of the runtime this thread is a rank of.
    static RUNTIME: RefCell<Option<Arc<Abort>>> = const { RefCell::new(None) };
}

/// Makes `abort` the calling rank thread's abort state (`None`: the
/// thread is no longer a rank).
pub(crate) fn set_abort(abort: Option<&Arc<Abort>>) {
    RUNTIME.with(|r| *r.borrow_mut() = abort.cloned());
}

/// Panics if a peer rank of the calling thread's runtime has panicked:
/// the wait about to start could then never be satisfied. A thread that
/// is not a rank, or is already unwinding, waits on.
fn check_abort() {
    let aborted = RUNTIME.with(|r| r.borrow().as_ref().is_some_and(|a| a.first().is_some()));
    if aborted && !std::thread::panicking() {
        panic!("a peer rank panicked while this rank waited on it");
    }
}

/// Wakes every waiter parked on `cv`. Taking `m` first orders the
/// wake-up after any waiter's abort check, so none can miss it.
pub(crate) fn wake<T>(m: &Mutex<T>, cv: &Condvar) {
    drop(m.lock());
    cv.notify_all();
}

/// Parks on `cv` like [`Condvar::wait`] (spurious wake-ups included),
/// for a rank waiting on a condition variable its runtime cannot reach:
/// every 10 ms it checks whether a peer rank has panicked, and if one
/// has, it panics too instead of waiting for ever.
pub fn park<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>) {
    if cv.wait_for(guard, ABORT_POLL).timed_out() {
        check_abort();
    }
}

/// Waits until `poll` returns `Some`, then hands back the re-taken guard
/// and the result. `poll` runs under the lock on every check, so it can
/// both test the predicate and claim what it found (e.g. take a lock or
/// dequeue a message). State that must stay visible to other threads
/// while this one waits (a writer's intent, say) is set before the call
/// and persists across the unlocked spin rounds.
///
/// Whoever makes `poll` succeed must notify `cv` after changing the state
/// under `m`; a spinning waiter needs no wake-up, a parked one does.
pub(crate) fn wait_for<'a, T, R>(
    m: &'a Mutex<T>,
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    mut poll: impl FnMut(&mut T) -> Option<R>,
) -> (MutexGuard<'a, T>, R) {
    let mut round = 0;
    loop {
        if let Some(r) = poll(&mut guard) {
            return (guard, r);
        }
        if round < SPIN_ROUNDS {
            drop(guard);
            round += 1;
            for _ in 0..1u32 << round {
                std::hint::spin_loop();
            }
            guard = m.lock();
        } else {
            check_abort();
            cv.wait(&mut guard);
        }
    }
}
