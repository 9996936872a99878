//! Two-sided point-to-point messaging.
//!
//! Eager buffered sends (a send never blocks) with receive-side matching on
//! `(communicator, source, tag)`, including the `ANY_SOURCE` / `ANY_TAG`
//! wildcards that the paper's queueing-mutex implementation depends on
//! ("the process waits on an `MPI_Recv` operation from a wildcard source").

use crate::sync;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Wildcard tag.
pub const ANY_TAG: i32 = -1;

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvSrc {
    /// Match a specific communicator rank.
    Rank(usize),
    /// Match any source (`MPI_ANY_SOURCE`).
    Any,
}

/// Completed-receive metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// Communicator rank of the sender.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload length in bytes.
    pub len: usize,
}

/// A queued message.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub comm: u64,
    pub src_comm_rank: usize,
    pub tag: i32,
    pub data: Vec<u8>,
    /// Virtual time at which the message arrives at the receiver.
    pub arrives_at: f64,
}

/// Per-rank incoming message queue.
pub(crate) struct Mailbox {
    m: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

impl Mailbox {
    pub fn new() -> Mailbox {
        Mailbox {
            m: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    /// Wakes every receiver parked on this mailbox.
    pub fn wake(&self) {
        sync::wake(&self.m, &self.cv);
    }

    /// Enqueues a message.
    pub(crate) fn deliver(&self, env: Envelope) {
        self.m.lock().push_back(env);
        self.cv.notify_all();
    }

    fn matches(env: &Envelope, comm: u64, src: RecvSrc, tag: i32) -> bool {
        env.comm == comm
            && (tag == ANY_TAG || env.tag == tag)
            && match src {
                RecvSrc::Any => true,
                RecvSrc::Rank(r) => env.src_comm_rank == r,
            }
    }

    /// Blocks until a matching message is available and removes it.
    pub fn recv(&self, comm: u64, src: RecvSrc, tag: i32) -> Envelope {
        sync::wait_for(&self.m, &self.cv, self.m.lock(), |q| {
            let pos = q.iter().position(|e| Self::matches(e, comm, src, tag))?;
            q.remove(pos)
        })
        .1
    }

    /// Number of queued messages (test/diagnostic aid).
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.m.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn env(comm: u64, src: usize, tag: i32, data: Vec<u8>) -> Envelope {
        Envelope {
            comm,
            src_comm_rank: src,
            tag,
            data,
            arrives_at: 0.0,
        }
    }

    #[test]
    fn fifo_within_matching_class() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, 7, vec![1]));
        mb.deliver(env(0, 1, 7, vec![2]));
        assert_eq!(mb.recv(0, RecvSrc::Rank(1), 7).data, vec![1]);
        assert_eq!(mb.recv(0, RecvSrc::Rank(1), 7).data, vec![2]);
    }

    #[test]
    fn matching_skips_other_comms_and_tags() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 0, 5, vec![9]));
        mb.deliver(env(0, 0, 6, vec![8]));
        mb.deliver(env(0, 0, 5, vec![7]));
        assert_eq!(mb.recv(0, RecvSrc::Rank(0), 5).data, vec![7]);
        assert_eq!(mb.depth(), 2);
    }

    #[test]
    fn wildcards_match_anything() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 3, 42, vec![1]));
        let e = mb.recv(0, RecvSrc::Any, ANY_TAG);
        assert_eq!(e.src_comm_rank, 3);
        assert_eq!(e.tag, 42);
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.recv(0, RecvSrc::Any, ANY_TAG).data);
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.deliver(env(0, 0, 0, vec![42]));
        assert_eq!(h.join().unwrap(), vec![42]);
    }
}
