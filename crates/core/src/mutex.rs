//! ARMCI mutexes via the MPI RMA queueing-mutex algorithm of Latham,
//! Ross & Thakur (§V-D).
//!
//! A set of `count` mutexes is hosted on *every* process of the group. The
//! state of mutex `m` on host `p` is a byte vector `B` of length `nproc`
//! in `p`'s window slice; `B[i] = 1` means process `i` holds or has
//! requested the mutex.
//!
//! **Lock** (from process `i`): within one exclusive epoch on the host,
//! set `B[i] = 1` and fetch all other entries (two non-overlapping gets,
//! so the epoch contains no conflicting accesses). If every other entry is
//! zero the lock is held; otherwise process `i` has enqueued itself and
//! blocks in a **wildcard-source receive** — waiting locally, generating
//! no network traffic, exactly the property the paper highlights.
//!
//! **Unlock**: within one exclusive epoch set `B[i] = 0` and fetch the
//! rest; scan for a waiting requester starting at `i+1` (wrapping), which
//! provides fairness, and forward the mutex with a zero-byte notification
//! message.
//!
//! Each set duplicates its communicator so notification messages can never
//! be confused between sets (or with application traffic).

use crate::transport::Transport;
use armci::{ArmciError, ArmciResult};
use mpisim::{Comm, Datatype, LockMode, RecvSrc, WinHandle};
use std::cell::RefCell;
use std::collections::HashSet;

/// One collection of `count` mutexes hosted on every member of a group.
pub(crate) struct MutexSet {
    comm: Comm,
    win: WinHandle,
    count: usize,
    /// Mutexes this process currently holds: `(mutex, host group rank)`.
    held: RefCell<HashSet<(usize, usize)>>,
}

impl MutexSet {
    /// Collectively creates the set over `comm`'s group. `progress` is
    /// the runtime's resolved discipline; the mutex window's handoff
    /// rounds couple to busy targets the same way data windows do.
    pub fn create(comm: &Comm, count: usize, progress: mpisim::ProgressModel) -> MutexSet {
        // Dedicated communicator: notification tags = mutex index.
        let dup = comm.dup();
        let nproc = dup.size();
        let win = WinHandle::create(&dup, count * nproc);
        win.set_progress_model(progress);
        MutexSet {
            comm: dup,
            win,
            count,
            held: RefCell::new(HashSet::new()),
        }
    }

    /// Number of mutexes per host.
    #[allow(dead_code)]
    pub fn count(&self) -> usize {
        self.count
    }

    fn check_args(&self, mutex: usize, host: usize) -> ArmciResult<()> {
        if mutex >= self.count {
            return Err(ArmciError::MutexMisuse(format!(
                "mutex {mutex} out of range (count {})",
                self.count
            )));
        }
        if host >= self.comm.size() {
            return Err(ArmciError::MutexMisuse(format!(
                "host {host} out of range (group size {})",
                self.comm.size()
            )));
        }
        Ok(())
    }

    /// One exclusive context on `host`: stores `mark` into this
    /// process's byte of the queue at `base` and fetches every other byte
    /// (two non-overlapping gets, so the context holds no conflicting
    /// accesses). Returns the bytes before and after this process's slot.
    /// The context is closed even if a transfer fails mid-way — leaving
    /// the host locked would wedge every other requester.
    fn exchange(
        &self,
        tx: &dyn Transport,
        mark: u8,
        host: usize,
        base: usize,
    ) -> ArmciResult<(Vec<u8>, Vec<u8>)> {
        let me = self.comm.rank();
        let mut before = vec![0u8; me];
        let mut after = vec![0u8; self.comm.size() - me - 1];
        tx.atomic_epoch_begin(&self.win, host, LockMode::Exclusive)?;
        let res = (|| {
            let one = Datatype::contiguous(1);
            tx.put(&self.win, &[mark], &one, host, base + me, &one)?;
            for (buf, disp) in [(&mut before, base), (&mut after, base + me + 1)] {
                if !buf.is_empty() {
                    let dt = Datatype::contiguous(buf.len());
                    tx.get(&self.win, buf, &dt, host, disp, &dt)?;
                }
            }
            Ok::<_, mpisim::MpiError>(())
        })();
        let end = tx.atomic_epoch_end(&self.win, host);
        res?;
        end?;
        Ok((before, after))
    }

    /// Acquires `mutex` on `host` (group rank). Blocks until granted.
    ///
    /// The put-then-snapshot sequence must be atomic with respect to
    /// other ranks' sequences, so it runs inside the transport's
    /// mutual-exclusion bracketing rather than a plain data epoch.
    pub fn lock(&self, tx: &dyn Transport, mutex: usize, host: usize) -> ArmciResult<()> {
        self.check_args(mutex, host)?;
        if self.held.borrow().contains(&(mutex, host)) {
            return Err(ArmciError::MutexMisuse(format!(
                "mutex {mutex}@{host} already held by this process"
            )));
        }
        // B[me] = 1, fetch all other entries.
        let (before, after) = self.exchange(tx, 1, host, mutex * self.comm.size())?;

        let contended = before.iter().chain(after.iter()).any(|&b| b != 0);
        if contended {
            // Enqueued: wait locally for the zero-byte handoff.
            let t0 = self.comm.clock_now();
            let (_, st) = self.comm.recv(RecvSrc::Any, mutex as i32);
            if obs::enabled() {
                obs::span(
                    obs::EventKind::MutexWait {
                        win: self.win.id(),
                        mutex: mutex as u32,
                        host: host as u32,
                        src: self.comm.world_rank_of(st.source) as u32,
                    },
                    t0,
                    self.comm.clock_now(),
                );
            }
        }
        self.held.borrow_mut().insert((mutex, host));
        Ok(())
    }

    /// Releases `mutex` on `host`, forwarding it fairly if contended.
    pub fn unlock(&self, tx: &dyn Transport, mutex: usize, host: usize) -> ArmciResult<()> {
        self.check_args(mutex, host)?;
        if !self.held.borrow_mut().remove(&(mutex, host)) {
            return Err(ArmciError::MutexMisuse(format!(
                "unlock of mutex {mutex}@{host} that is not held"
            )));
        }
        let nproc = self.comm.size();
        let me = self.comm.rank();
        // B[me] = 0, fetch all other entries.
        let (before, after) = self.exchange(tx, 0, host, mutex * nproc)?;

        // Reassemble B without our own slot and scan from me+1, wrapping —
        // the fairness order of the paper.
        let waiter = (1..nproc).map(|d| (me + d) % nproc).find(|&r| {
            let v = if r < me { before[r] } else { after[r - me - 1] };
            v != 0
        });
        if let Some(next) = waiter {
            // Zero-byte handoff notification.
            self.comm.send(next, mutex as i32, &[]);
        }
        Ok(())
    }

    /// Collectively destroys the set. All held mutexes must have been
    /// released.
    pub fn destroy(self) -> ArmciResult<()> {
        if !self.held.borrow().is_empty() {
            return Err(ArmciError::MutexMisuse(
                "destroying mutex set while holding mutexes".into(),
            ));
        }
        self.win.free()?;
        Ok(())
    }
}

impl ArmciMpi {
    pub(crate) fn create_mutexes_impl(&self, count: usize) -> ArmciResult<usize> {
        let set = MutexSet::create(&self.world, count, self.progress_model());
        let handle = self.next_mutex_handle.get();
        self.next_mutex_handle.set(handle + 1);
        self.user_mutexes.borrow_mut().insert(handle, set);
        Ok(handle)
    }

    pub(crate) fn lock_mutex_impl(
        &self,
        handle: usize,
        mutex: usize,
        proc: usize,
    ) -> ArmciResult<()> {
        let sets = self.user_mutexes.borrow();
        let set = sets
            .get(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown mutex handle {handle}")))?;
        self.stat(|s| s.mutex_locks += 1);
        set.lock(self.tx(), mutex, proc)
    }

    pub(crate) fn unlock_mutex_impl(
        &self,
        handle: usize,
        mutex: usize,
        proc: usize,
    ) -> ArmciResult<()> {
        let sets = self.user_mutexes.borrow();
        let set = sets
            .get(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown mutex handle {handle}")))?;
        set.unlock(self.tx(), mutex, proc)
    }

    pub(crate) fn destroy_mutexes_impl(&self, handle: usize) -> ArmciResult<()> {
        let set = self
            .user_mutexes
            .borrow_mut()
            .remove(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown mutex handle {handle}")))?;
        set.destroy()
    }
}

use crate::ArmciMpi;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{EpochStyle, MpiRmaTransport, Transport};
    use mpisim::dtype::Datatype;
    use mpisim::mpi3::FetchOp;
    use mpisim::{
        AccOp, ElemType, MpiError, MpiResult, Proc, RmaClass, Runtime, RuntimeConfig, WinHandle,
    };

    /// A wire backend whose bulk transfers work but whose byte-protocol
    /// gets fail mid-sequence — the "backend lost during the lock
    /// protocol" scenario.
    struct FailingGets {
        inner: MpiRmaTransport,
    }

    impl Transport for FailingGets {
        fn name(&self) -> &'static str {
            "failing-gets"
        }
        fn epoch_style(&self) -> EpochStyle {
            self.inner.epoch_style()
        }
        fn attach(&self, win: &WinHandle) -> MpiResult<()> {
            self.inner.attach(win)
        }
        fn detach(&self, win: &WinHandle) -> MpiResult<()> {
            self.inner.detach(win)
        }
        fn epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
            self.inner.epoch_begin(win, target, mode)
        }
        fn epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
            self.inner.epoch_end(win, target)
        }
        fn put(
            &self,
            win: &WinHandle,
            origin: &[u8],
            odt: &Datatype,
            target: usize,
            tdisp: usize,
            tdt: &Datatype,
        ) -> MpiResult<()> {
            self.inner.put(win, origin, odt, target, tdisp, tdt)
        }
        fn get(
            &self,
            _win: &WinHandle,
            _origin: &mut [u8],
            _odt: &Datatype,
            _target: usize,
            _tdisp: usize,
            _tdt: &Datatype,
        ) -> MpiResult<()> {
            Err(MpiError::WinFreed)
        }
        #[allow(clippy::too_many_arguments)]
        fn accumulate(
            &self,
            win: &WinHandle,
            origin: &[u8],
            odt: &Datatype,
            target: usize,
            tdisp: usize,
            tdt: &Datatype,
            elem: ElemType,
            op: AccOp,
        ) -> MpiResult<()> {
            self.inner
                .accumulate(win, origin, odt, target, tdisp, tdt, elem, op)
        }
        fn issue_merged(
            &self,
            win: &WinHandle,
            class: RmaClass,
            target: usize,
            segs: &[(usize, usize)],
        ) -> MpiResult<f64> {
            self.inner.issue_merged(win, class, target, segs)
        }
        fn fetch_and_op_i64(
            &self,
            win: &WinHandle,
            operand: i64,
            target: usize,
            tdisp: usize,
            op: FetchOp,
        ) -> MpiResult<i64> {
            self.inner.fetch_and_op_i64(win, operand, target, tdisp, op)
        }
    }

    #[test]
    fn backend_loss_mid_lock_surfaces_and_releases_epoch() {
        // A transfer failure inside the lock protocol's exclusive context
        // must (a) surface as an error, (b) leave the held-set clean, and
        // (c) release the window lock so a retry over a working backend
        // can acquire — no wedged host.
        let cfg = RuntimeConfig {
            charge_time: false,
            ..Default::default()
        };
        Runtime::run_with(2, cfg, |p: &Proc| {
            let world = p.world();
            let set = MutexSet::create(&world, 1, mpisim::ProgressModel::Off);
            if p.rank() == 0 {
                let bad = FailingGets {
                    inner: MpiRmaTransport { epochless: false },
                };
                let err = set.lock(&bad, 0, 0);
                assert!(err.is_err(), "mid-lock transfer failure must surface");
                assert!(
                    set.held.borrow().is_empty(),
                    "failed lock must not record the mutex as held"
                );
                let err = set.lock(&bad, 0, 1);
                assert!(err.is_err(), "remote-host failure must surface too");
                // Retry over a working backend: if the failed attempts had
                // leaked their exclusive epochs, these locks would error
                // (self-nested lock) instead of acquiring.
                let good = MpiRmaTransport { epochless: false };
                set.lock(&good, 0, 0).unwrap();
                set.unlock(&good, 0, 0).unwrap();
            }
            world.barrier();
            set.destroy().unwrap();
        });
    }
}
