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

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Backoff rounds before parking; round `k` (from 1) issues `2^k` hints.
const SPIN_ROUNDS: u32 = 6;

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
            cv.wait(&mut guard);
        }
    }
}
