//! Sharded/combining NXTVAL counter.
//!
//! NXTVAL — Global Arrays' dynamic load-balancing ticket counter — is a
//! single shared integer hit by every rank, the paper's poster child for
//! RMW scalability (§V-D, §VIII-B). Even with native atomics, one home
//! rank serialises every increment; past a few hundred ranks the home
//! NIC is the plateau. [`NxtvalCounter`] scales past it by **sharding
//! the frontier per node**: each node's leader holds a shard word from
//! which node peers take tickets with local CAS, and the home counter is
//! only touched once per `block` tickets (the refill). The shard word
//! packs `next << 16 | remaining`, so one CAS both claims a ticket and
//! decrements the stock.
//!
//! * `block == 1` degenerates to the flat counter: every `next()` is a
//!   single `fetch_and_add` on the home rank, bit-identical in sequence
//!   to `ARMCI_Rmw` on a shared cell (the mode-equivalence proptest
//!   pins this).
//! * `block > 1` trades strict FIFO ticket order for locality: tickets
//!   stay unique and per-rank monotonic, and the home rank sees
//!   `1/block` of the traffic.
//!
//! Losers of a refill race return their whole block to the `holes` cell
//! and draw from the winner's shard instead, and [`NxtvalCounter::drain`] merges still-stocked shard tails
//! back into the home counter (CAS) or the holes cell, so
//! [`NxtvalCounter::issued`] — `home - holes` — equals the number of
//! tickets actually handed out once the counter is drained.
//!
//! Cell layout (24 bytes per rank, one allocation):
//! `rank 0, offset 0` = home counter; `rank 0, offset 8` = holes;
//! `node leader, offset 16` = that node's shard word.

use crate::ArmciMpi;
use armci::{Armci, ArmciResult, GlobalAddr, RmwOp};

/// Byte offset of the holes cell on the home rank.
const HOLES_OFF: usize = 8;
/// Byte offset of the shard word on each node leader.
const SHARD_OFF: usize = 16;
/// Bytes of counter state per rank.
const SLICE: usize = 24;

/// Packs a shard frontier: `next` ticket and `remaining` stock.
fn pack(next: i64, remaining: u16) -> i64 {
    (next << 16) | remaining as i64
}

/// Unpacks a shard word into `(next, remaining)`.
fn unpack(word: i64) -> (i64, u16) {
    (word >> 16, (word & 0xFFFF) as u16)
}

/// A distributed NXTVAL ticket counter with per-node shards. See the
/// module docs for the protocol; create collectively with
/// [`NxtvalCounter::create`], destroy collectively with
/// [`NxtvalCounter::destroy`].
pub struct NxtvalCounter {
    /// Per-group-rank base addresses of the counter allocation.
    bases: Vec<GlobalAddr>,
    /// Refill block size (`1` = flat counter, no sharding).
    block: u16,
    /// This rank's node-leader group rank (shard host).
    leader: usize,
    /// Is this rank its node's leader (shard owner / drainer)?
    is_leader: bool,
}

impl NxtvalCounter {
    /// Collectively creates a counter over the world group. `block` is
    /// the per-node refill granularity; `1` disables sharding.
    pub fn create(rt: &ArmciMpi, block: u16) -> ArmciResult<NxtvalCounter> {
        assert!(block >= 1, "block size must be at least 1");
        let bases = rt.malloc(SLICE)?;
        // Zero this rank's slice (home, holes, shard word all start 0).
        rt.access_mut(bases[rt.rank()], SLICE, &mut |b| b.fill(0))?;
        let node_of = |r: usize| rt.world.platform().node_of(rt.world.world_rank_of(r));
        let me = rt.rank();
        let my_node = node_of(me);
        let leader = (0..rt.nprocs())
            .find(|&r| node_of(r) == my_node)
            .expect("every rank has a node leader");
        rt.barrier();
        Ok(NxtvalCounter {
            bases,
            block,
            leader,
            is_leader: leader == me,
        })
    }

    /// The home counter cell.
    fn home(&self) -> GlobalAddr {
        self.bases[0]
    }

    /// The returned-tickets cell.
    fn holes(&self) -> GlobalAddr {
        let h = self.bases[0];
        GlobalAddr {
            rank: h.rank,
            addr: h.addr + HOLES_OFF,
        }
    }

    /// This rank's node shard word.
    fn shard(&self) -> GlobalAddr {
        let b = self.bases[self.leader];
        GlobalAddr {
            rank: b.rank,
            addr: b.addr + SHARD_OFF,
        }
    }

    /// Takes the next ticket. Unique across ranks; monotonic per rank;
    /// globally FIFO iff `block == 1`.
    pub fn next(&self, rt: &ArmciMpi) -> ArmciResult<i64> {
        if self.block <= 1 {
            return rt.rmw(RmwOp::FetchAdd(1), self.home());
        }
        loop {
            // Atomic read of the shard frontier.
            let word = rt.rmw(RmwOp::FetchAdd(0), self.shard())?;
            let (next, remaining) = unpack(word);
            if remaining > 0 {
                // Claim `next` and decrement the stock in one CAS.
                let claimed = pack(next + 1, remaining - 1);
                if rt.compare_and_swap(word, claimed, self.shard(), 8)? == word {
                    return Ok(next);
                }
                continue; // lost the race; retry (counted as a CAS retry)
            }
            // Shard empty: fetch a block from home. The refiller keeps
            // the block's first ticket for itself and installs the rest.
            let base = rt.rmw(RmwOp::FetchAdd(self.block as i64), self.home())?;
            let installed = pack(base + 1, self.block - 1);
            if rt.compare_and_swap(word, installed, self.shard(), 8)? == word {
                return Ok(base);
            }
            // A concurrent refiller won the install. Its block may sit
            // below ours, so keeping `base` would break per-rank
            // monotonicity at this rank's next shard draw: return the
            // whole block to `holes` and retry from the shard.
            rt.rmw(RmwOp::FetchAdd(self.block as i64), self.holes())?;
        }
    }

    /// Merges this node's remaining shard stock back: the frontier tail
    /// is CAS-merged into the home counter when nothing was issued past
    /// it, otherwise returned to the holes cell. Only the node leader
    /// acts; call from every rank (with all `next` traffic quiesced) and
    /// follow with a barrier before reading [`NxtvalCounter::issued`].
    pub fn drain(&self, rt: &ArmciMpi) -> ArmciResult<()> {
        if !self.is_leader || self.block <= 1 {
            return Ok(());
        }
        loop {
            let word = rt.rmw(RmwOp::FetchAdd(0), self.shard())?;
            let (next, remaining) = unpack(word);
            if word == 0 {
                return Ok(());
            }
            if rt.compare_and_swap(word, 0, self.shard(), 8)? != word {
                continue; // raced with a late next(); re-read
            }
            if remaining > 0 {
                // The un-issued tail is [next, next+remaining). If the
                // home counter still sits exactly at the block end, the
                // tail is the global frontier — roll it back.
                let end = next + remaining as i64;
                if rt.compare_and_swap(end, next, self.home(), 8)? != end {
                    // Home moved on (another node refilled after us):
                    // the tail is a hole in the issued sequence.
                    rt.rmw(RmwOp::FetchAdd(remaining as i64), self.holes())?;
                }
            }
            return Ok(());
        }
    }

    /// Tickets handed out so far: home counter minus returned tickets.
    /// Exact once every shard is [`drained`](NxtvalCounter::drain).
    pub fn issued(&self, rt: &ArmciMpi) -> ArmciResult<i64> {
        let home = rt.rmw(RmwOp::FetchAdd(0), self.home())?;
        let holes = rt.rmw(RmwOp::FetchAdd(0), self.holes())?;
        Ok(home - holes)
    }

    /// Collectively frees the counter's memory.
    pub fn destroy(self, rt: &ArmciMpi) -> ArmciResult<()> {
        rt.barrier();
        rt.free(self.bases[rt.rank()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (next, rem) in [(0i64, 0u16), (1, 7), (123_456, 65_535), (1 << 40, 1)] {
            assert_eq!(unpack(pack(next, rem)), (next, rem));
        }
    }
}
