//! Epoch-invariant auditor.
//!
//! Replays a recorded event stream per rank (slice order within one rank
//! is program order) and flags interleavings that violate the paper's
//! §IV/§V safety rules:
//!
//! * **NestedLock** — acquiring a passive-target lock on a
//!   (window, target) pair this rank already holds, or mixing `lock` and
//!   `lock_all` epochs on one window (MPI allows one epoch per pair per
//!   origin; nested exclusive epochs self-deadlock).
//! * **UnlockWithoutLock** — releasing a lock or `lock_all` the
//!   rank does not hold (includes double-unlock).
//! * **DlaViolation** — a direct load/store of window memory outside an
//!   `ARMCI_Access_begin/end` region, or a region opened without the
//!   local epoch that makes the memory accessible (§IV-C).
//! * **StagingWhileLocked** — an engine staging buffer for a GMR filled
//!   or drained while this rank holds a *blocking* lock on that GMR's
//!   window (§V-E1: staging must complete before the home window is
//!   locked, or the copy self-deadlocks under exclusive epochs).
//!   Nonblocking aggregate epochs announce themselves via
//!   [`EventKind::NbEpochOpen`] and are exempt: the engine stages the
//!   next fragment under the open aggregate epoch by design.
//! * **OpOutsideEpoch** — an MPI-level RMA call on a (window, target)
//!   with no lock or `lock_all` epoch covering it.
//! * **AtomicOutsideEpoch** — the same leak for an MPI-level atomic
//!   (`Rma` with kind `rmw`): fetch-and-op / compare-and-swap issued
//!   with no covering passive epoch. Split from
//!   `OpOutsideEpoch` because atomics have a legal epoch-free path
//!   (NIC-offloaded channel atomics, shm slab atomics) that does *not*
//!   emit `Rma` events — so any `Rma { Rmw }` seen here claimed an MPI
//!   window and must be covered by an epoch.
//! * **FlushOutsideEpoch** — an MPI-3 `flush` of a (window, target) with
//!   no lock or `lock_all` epoch covering it (flush requires a passive
//!   epoch; MPI calls it erroneous otherwise).
//! * **ShmCoherence** — a shared-memory load/store of a peer's window
//!   section outside the separate-memory-model discipline: shm accesses
//!   are legal inside an `ARMCI_Access_begin/end` region, or under an
//!   epoch *after* an `MPI_Win_sync` on that window; closing any epoch on
//!   the window revokes the synced state until the next `win_sync`.
//!
//! The coalescing scheduler's **coarsened epochs** are legal by
//! construction under these rules: one `lock`/`lock_all` covering many
//! RMA issues with interleaved per-target flushes replays as a single
//! held epoch, so nothing is flagged — but any RMA or flush that leaks
//! past the coarsened unlock still trips `OpOutsideEpoch` /
//! `FlushOutsideEpoch`.
//!
//! Partial traces are common (a benchmark may drain events mid-run), so
//! epochs still open at end-of-trace are *not* violations.

use crate::{Event, EventKind};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which invariant was broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    NestedLock,
    UnlockWithoutLock,
    DlaViolation,
    StagingWhileLocked,
    OpOutsideEpoch,
    AtomicOutsideEpoch,
    FlushOutsideEpoch,
    ShmCoherence,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::NestedLock => "nested-lock",
            Rule::UnlockWithoutLock => "unlock-without-lock",
            Rule::DlaViolation => "dla-violation",
            Rule::StagingWhileLocked => "staging-while-locked",
            Rule::OpOutsideEpoch => "op-outside-epoch",
            Rule::AtomicOutsideEpoch => "atomic-outside-epoch",
            Rule::FlushOutsideEpoch => "flush-outside-epoch",
            Rule::ShmCoherence => "shm-coherence",
        }
    }
}

/// One flagged interleaving.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rank: u32,
    pub ts: f64,
    pub rule: Rule,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[rank {} @ {:.9}s] {}: {}",
            self.rank,
            self.ts,
            self.rule.name(),
            self.detail
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct HeldLock {
    exclusive: bool,
    /// Adopted by a nonblocking aggregate epoch (staging under it is legal).
    aggregate: bool,
}

#[derive(Default)]
struct RankState {
    held: HashMap<(u64, u32), HeldLock>,
    lock_all: HashSet<u64>,
    dla_depth: HashMap<u64, u32>,
    /// Windows where a `win_sync` has been seen under a still-open epoch.
    synced: HashSet<u64>,
}

impl RankState {
    fn epoch_on(&self, win: &u64) -> bool {
        self.lock_all.contains(win) || self.held.keys().any(|(w, _)| w == win)
    }
}

/// Replay `events` and return every invariant violation found.
pub fn audit(events: &[Event]) -> Vec<Violation> {
    let mut ranks: BTreeMap<u32, RankState> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        let st = ranks.entry(e.rank).or_default();
        let mut flag = |rule: Rule, detail: String| {
            out.push(Violation {
                rank: e.rank,
                ts: e.ts,
                rule,
                detail,
            });
        };
        // Arm bodies like `if map.remove(..) { flag(..) }` must not become
        // match guards: the removal has to happen even on the legal path.
        #[allow(clippy::collapsible_match)]
        match &e.kind {
            EventKind::LockAcquire {
                win,
                target,
                exclusive,
            } => {
                if let Some(prev) = st.held.get(&(*win, *target)) {
                    flag(
                        Rule::NestedLock,
                        format!(
                            "lock({}) on win {win} target {target} while already holding a {} epoch there",
                            if *exclusive { "exclusive" } else { "shared" },
                            if prev.exclusive { "exclusive" } else { "shared" },
                        ),
                    );
                } else if st.lock_all.contains(win) {
                    flag(
                        Rule::NestedLock,
                        format!("lock on win {win} target {target} while lock_all is open on that window"),
                    );
                }
                st.held.insert(
                    (*win, *target),
                    HeldLock {
                        exclusive: *exclusive,
                        aggregate: false,
                    },
                );
            }
            EventKind::LockRelease { win, target } => {
                if st.held.remove(&(*win, *target)).is_none() {
                    flag(
                        Rule::UnlockWithoutLock,
                        format!("unlock on win {win} target {target} with no matching lock"),
                    );
                }
                st.synced.remove(win);
            }
            EventKind::LockAll { win } => {
                if st.lock_all.contains(win) {
                    flag(
                        Rule::NestedLock,
                        format!("lock_all on win {win} while lock_all is already open"),
                    );
                } else if st.held.keys().any(|(w, _)| w == win) {
                    flag(
                        Rule::NestedLock,
                        format!("lock_all on win {win} while a per-target lock is held"),
                    );
                }
                st.lock_all.insert(*win);
            }
            EventKind::UnlockAll { win } => {
                if !st.lock_all.remove(win) {
                    flag(
                        Rule::UnlockWithoutLock,
                        format!("unlock_all on win {win} with no matching lock_all"),
                    );
                }
                st.synced.remove(win);
            }
            EventKind::NbEpochOpen { win, target } => {
                if let Some(h) = st.held.get_mut(&(*win, *target)) {
                    h.aggregate = true;
                }
            }
            EventKind::NbEpochClose { .. } => {}
            EventKind::DlaBegin { win, .. } => {
                if !st.epoch_on(win) {
                    flag(
                        Rule::DlaViolation,
                        format!("access region opened on win {win} without a local epoch"),
                    );
                }
                *st.dla_depth.entry(*win).or_insert(0) += 1;
            }
            EventKind::DlaEnd { win } => {
                let d = st.dla_depth.entry(*win).or_insert(0);
                if *d == 0 {
                    flag(
                        Rule::DlaViolation,
                        format!("access end on win {win} with no matching access begin"),
                    );
                } else {
                    *d -= 1;
                }
            }
            EventKind::LocalAccess { win, write } => {
                if st.dla_depth.get(win).copied().unwrap_or(0) == 0 {
                    flag(
                        Rule::DlaViolation,
                        format!(
                            "direct {} of win {win} memory outside ARMCI_Access_begin/end",
                            if *write { "store" } else { "load" },
                        ),
                    );
                }
            }
            EventKind::StageTouch { gmr, bytes } => {
                if let Some(((_, target), _)) =
                    st.held.iter().find(|((w, _), h)| w == gmr && !h.aggregate)
                {
                    flag(
                        Rule::StagingWhileLocked,
                        format!(
                            "staging buffer for gmr {gmr} ({bytes} B) touched while its window is locked (target {target})",
                        ),
                    );
                }
            }
            EventKind::Flush { win, target } => {
                let covered = st.held.contains_key(&(*win, *target)) || st.lock_all.contains(win);
                if !covered {
                    flag(
                        Rule::FlushOutsideEpoch,
                        format!("flush of win {win} target {target} with no covering epoch"),
                    );
                }
            }
            EventKind::Rma {
                win, target, kind, ..
            } => {
                let covered = st.held.contains_key(&(*win, *target)) || st.lock_all.contains(win);
                if !covered {
                    let rule = if *kind == crate::OpKind::Rmw {
                        Rule::AtomicOutsideEpoch
                    } else {
                        Rule::OpOutsideEpoch
                    };
                    flag(
                        rule,
                        format!(
                            "rma {} on win {win} target {target} with no covering epoch",
                            kind.name(),
                        ),
                    );
                }
            }
            EventKind::WinSync { win } => {
                if st.epoch_on(win) {
                    st.synced.insert(*win);
                } else {
                    flag(
                        Rule::ShmCoherence,
                        format!("win_sync on win {win} outside any epoch"),
                    );
                }
            }
            EventKind::ShmAccess {
                win,
                target,
                write,
                bytes,
            } => {
                let in_dla = st.dla_depth.get(win).copied().unwrap_or(0) > 0;
                let synced = st.epoch_on(win) && st.synced.contains(win);
                if !in_dla && !synced {
                    flag(
                        Rule::ShmCoherence,
                        format!(
                            "shm {} of {bytes} B on win {win} target {target} outside \
                             win_sync coherence (no access region, no synced epoch)",
                            if *write { "store" } else { "load" },
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn ev(rank: u32, ts: f64, kind: EventKind) -> Event {
        Event {
            rank,
            ts,
            dur: 0.0,
            kind,
        }
    }

    #[test]
    fn legal_interleaving_is_silent() {
        use EventKind::*;
        let events = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 1,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                Rma {
                    win: 1,
                    target: 1,
                    kind: OpKind::Put,
                    bytes: 8,
                },
            ),
            ev(0, 0.2, LockRelease { win: 1, target: 1 }),
            // Staging after release is fine.
            ev(0, 0.3, StageTouch { gmr: 1, bytes: 64 }),
            // DLA under a self-lock.
            ev(
                0,
                0.4,
                LockAcquire {
                    win: 1,
                    target: 0,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.45,
                DlaBegin {
                    win: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.5,
                LocalAccess {
                    win: 1,
                    write: true,
                },
            ),
            ev(0, 0.55, DlaEnd { win: 1 }),
            ev(0, 0.6, LockRelease { win: 1, target: 0 }),
        ];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn nested_lock_is_flagged() {
        use EventKind::*;
        let events = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 2,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                LockAcquire {
                    win: 2,
                    target: 1,
                    exclusive: true,
                },
            ),
        ];
        let v = audit(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NestedLock);
    }

    #[test]
    fn aggregate_epoch_staging_is_exempt() {
        use EventKind::*;
        let events = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 3,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(0, 0.05, NbEpochOpen { win: 3, target: 1 }),
            ev(0, 0.1, StageTouch { gmr: 3, bytes: 64 }),
            ev(0, 0.2, NbEpochClose { win: 3, target: 1 }),
            ev(0, 0.2, LockRelease { win: 3, target: 1 }),
        ];
        assert!(audit(&events).is_empty());
        // The same touch under a plain (blocking) lock is a violation.
        let bad = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 3,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(0, 0.1, StageTouch { gmr: 3, bytes: 64 }),
        ];
        let v = audit(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::StagingWhileLocked);
    }

    #[test]
    fn coarsened_epoch_shape_is_legal() {
        use EventKind::*;
        // The coalescing scheduler's MPI-2 shape: one lock covering a run
        // of same-class RMA issues, then release.
        let mut events = vec![ev(
            0,
            0.0,
            LockAcquire {
                win: 7,
                target: 2,
                exclusive: true,
            },
        )];
        for i in 0..8 {
            events.push(ev(
                0,
                0.1 + i as f64 * 0.01,
                Rma {
                    win: 7,
                    target: 2,
                    kind: OpKind::Put,
                    bytes: 256,
                },
            ));
        }
        events.push(ev(0, 0.3, LockRelease { win: 7, target: 2 }));
        // The MPI-3 shape: many issues under lock_all with interleaved
        // per-target flushes.
        events.push(ev(0, 0.4, LockAll { win: 8 }));
        for i in 0..4 {
            events.push(ev(
                0,
                0.5 + i as f64 * 0.02,
                Rma {
                    win: 8,
                    target: i,
                    kind: OpKind::Get,
                    bytes: 64,
                },
            ));
            events.push(ev(0, 0.51 + i as f64 * 0.02, Flush { win: 8, target: i }));
        }
        events.push(ev(0, 0.7, UnlockAll { win: 8 }));
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn rma_leaking_past_coarsened_unlock_is_flagged() {
        use EventKind::*;
        let events = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 9,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                Rma {
                    win: 9,
                    target: 1,
                    kind: OpKind::Put,
                    bytes: 32,
                },
            ),
            ev(0, 0.2, LockRelease { win: 9, target: 1 }),
            // seeded leak: an issue after the coarsened unlock
            ev(
                0,
                0.3,
                Rma {
                    win: 9,
                    target: 1,
                    kind: OpKind::Put,
                    bytes: 32,
                },
            ),
        ];
        let v = audit(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::OpOutsideEpoch);
    }

    #[test]
    fn atomic_outside_epoch_is_flagged_separately() {
        use EventKind::*;
        // Legal: an MPI-window atomic under its passive-target epoch.
        let ok = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 11,
                    target: 2,
                    exclusive: false,
                },
            ),
            ev(
                0,
                0.1,
                Rma {
                    win: 11,
                    target: 2,
                    kind: OpKind::Rmw,
                    bytes: 8,
                },
            ),
            ev(0, 0.2, LockRelease { win: 11, target: 2 }),
        ];
        assert!(audit(&ok).is_empty());
        // Seeded: the same atomic with no covering epoch trips the
        // atomic-specific rule, not the generic op-outside-epoch one.
        let bad = vec![ev(
            0,
            0.0,
            Rma {
                win: 11,
                target: 2,
                kind: OpKind::Rmw,
                bytes: 8,
            },
        )];
        let v = audit(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AtomicOutsideEpoch);
        assert_eq!(v[0].rule.name(), "atomic-outside-epoch");
    }

    #[test]
    fn flush_outside_epoch_is_flagged() {
        use EventKind::*;
        // legal: flush under lock_all
        let ok = vec![
            ev(0, 0.0, LockAll { win: 4 }),
            ev(0, 0.1, Flush { win: 4, target: 3 }),
            ev(0, 0.2, UnlockAll { win: 4 }),
        ];
        assert!(audit(&ok).is_empty());
        // seeded: flush after the coarsened unlock_all
        let bad = vec![
            ev(0, 0.0, LockAll { win: 4 }),
            ev(0, 0.1, UnlockAll { win: 4 }),
            ev(0, 0.2, Flush { win: 4, target: 3 }),
        ];
        let v = audit(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FlushOutsideEpoch);
    }

    #[test]
    fn shm_access_needs_win_sync_coherence() {
        use EventKind::*;
        // Legal: lock → win_sync → load/store → release.
        let ok = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 6,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(0, 0.1, WinSync { win: 6 }),
            ev(
                0,
                0.2,
                ShmAccess {
                    win: 6,
                    target: 1,
                    write: true,
                    bytes: 64,
                },
            ),
            ev(0, 0.3, LockRelease { win: 6, target: 1 }),
        ];
        assert!(audit(&ok).is_empty());
        // Legal: inside an access region (DLA owns the coherence).
        let dla = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 6,
                    target: 0,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                DlaBegin {
                    win: 6,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.2,
                ShmAccess {
                    win: 6,
                    target: 1,
                    write: false,
                    bytes: 8,
                },
            ),
            ev(0, 0.3, DlaEnd { win: 6 }),
            ev(0, 0.4, LockRelease { win: 6, target: 0 }),
        ];
        assert!(audit(&dla).is_empty());
        // Seeded: load under an epoch but before any win_sync.
        let unsynced = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 6,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                ShmAccess {
                    win: 6,
                    target: 1,
                    write: false,
                    bytes: 8,
                },
            ),
            ev(0, 0.2, LockRelease { win: 6, target: 1 }),
        ];
        let v = audit(&unsynced);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ShmCoherence);
    }

    #[test]
    fn epoch_close_revokes_shm_sync() {
        use EventKind::*;
        // win_sync in epoch 1 does not cover an access in epoch 2.
        let events = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 6,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(0, 0.1, WinSync { win: 6 }),
            ev(0, 0.2, LockRelease { win: 6, target: 1 }),
            ev(
                0,
                0.3,
                LockAcquire {
                    win: 6,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.4,
                ShmAccess {
                    win: 6,
                    target: 1,
                    write: true,
                    bytes: 16,
                },
            ),
            ev(0, 0.5, LockRelease { win: 6, target: 1 }),
        ];
        let v = audit(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ShmCoherence);
        // win_sync entirely outside an epoch is itself flagged.
        let bare = vec![ev(0, 0.0, WinSync { win: 6 })];
        let v = audit(&bare);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ShmCoherence);
    }

    #[test]
    fn ranks_are_independent() {
        use EventKind::*;
        // Rank 0 holds the lock; rank 1's staging touch is unrelated.
        let events = vec![
            ev(
                0,
                0.0,
                LockAcquire {
                    win: 5,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(1, 0.1, StageTouch { gmr: 5, bytes: 64 }),
        ];
        assert!(audit(&events).is_empty());
    }
}
