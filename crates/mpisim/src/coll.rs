//! Collective rendezvous machinery and typed reductions.
//!
//! All collectives are built on one primitive: a phase-gated **allgather
//! cell** (`CollectiveCell`). Every participant deposits a byte
//! contribution; when the last one arrives all contributions are published
//! and participants drain. The cell is reusable: a fast rank cannot enter
//! round `k+1` until every rank has left round `k`.
//!
//! Collective *cost* is modelled as a binomial tree: `ceil(log2 P)` stages of
//! `α + n/β`. Each participant's virtual arrival time is captured when it
//! deposits its contribution and the maximum is published with the results,
//! so every rank leaves at the same `max(arrival) + cost` instant by
//! advancing **its own** clock only. (Bumping peer clocks after release
//! would race with a fast rank that has already resumed timed work.)

use crate::sync;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Collecting,
    Distributing,
}

struct CollState {
    phase: Phase,
    arrived: usize,
    leaving: usize,
    contributions: Vec<Option<Vec<u8>>>,
    /// Virtual clock of each participant at arrival.
    arrivals: Vec<f64>,
    /// Completed rendezvous rounds; all participants of round `k` observe
    /// the same value, which tags their trace events so a post-mortem
    /// analyzer can regroup one collective across per-rank streams.
    round: u64,
    results: Option<CollOutcome>,
}

/// What one collective rendezvous published to every participant.
#[derive(Clone)]
pub(crate) struct CollOutcome {
    /// Round number of this collective on its cell (identical for all
    /// participants; per-rank program order makes it deterministic).
    pub seq: u64,
    /// Latest virtual arrival among the participants.
    pub t_max: f64,
    /// Participant (cell index = communicator rank) that arrived last —
    /// the straggler whose progress released everyone. Ties go to the
    /// lowest rank so the choice is deterministic.
    pub straggler: usize,
    /// Gathered contributions, indexed by participant.
    pub data: Arc<Vec<Vec<u8>>>,
}

/// A reusable allgather rendezvous for a fixed participant count.
pub(crate) struct CollectiveCell {
    size: usize,
    m: Mutex<CollState>,
    cv: Condvar,
}

impl CollectiveCell {
    pub fn new(size: usize) -> CollectiveCell {
        CollectiveCell {
            size,
            m: Mutex::new(CollState {
                phase: Phase::Collecting,
                arrived: 0,
                leaving: 0,
                contributions: (0..size).map(|_| None).collect(),
                arrivals: vec![0.0; size],
                round: 0,
                results: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Wakes every participant parked on this cell.
    pub fn wake(&self) {
        sync::wake(&self.m, &self.cv);
    }

    /// Deposits `data` as participant `rank`'s contribution (arriving at
    /// virtual time `now`) and, once every participant has arrived, returns
    /// all contributions together with the round number, the latest arrival
    /// time, and the straggler that set it.
    pub fn exchange(&self, rank: usize, data: Vec<u8>, now: f64) -> CollOutcome {
        // Gate: previous round must fully drain first.
        let (mut st, ()) = sync::wait_for(&self.m, &self.cv, self.m.lock(), |st| {
            (st.phase == Phase::Collecting).then_some(())
        });
        debug_assert!(
            st.contributions[rank].is_none(),
            "double arrival of rank {rank}"
        );
        st.contributions[rank] = Some(data);
        st.arrivals[rank] = now;
        st.arrived += 1;
        if st.arrived == self.size {
            let all: Vec<Vec<u8>> = st
                .contributions
                .iter_mut()
                .map(|c| c.take().expect("missing contribution"))
                .collect();
            // Straggler = argmax arrival, ties to the lowest rank — the
            // strict `>` keeps earlier indices on equal times.
            let mut straggler = 0usize;
            for (r, &t) in st.arrivals.iter().enumerate() {
                if t > st.arrivals[straggler] {
                    straggler = r;
                }
            }
            let t_max = st.arrivals[straggler];
            st.results = Some(CollOutcome {
                seq: st.round,
                t_max,
                straggler,
                data: Arc::new(all),
            });
            st.round += 1;
            st.phase = Phase::Distributing;
            self.cv.notify_all();
        } else {
            (st, ()) = sync::wait_for(&self.m, &self.cv, st, |st| {
                (st.phase == Phase::Distributing).then_some(())
            });
        }
        let res = st.results.as_ref().expect("results missing").clone();
        st.leaving += 1;
        if st.leaving == self.size {
            st.arrived = 0;
            st.leaving = 0;
            st.results = None;
            st.phase = Phase::Collecting;
            self.cv.notify_all();
        }
        res
    }
}

/// Reduction operators over homogeneous numeric vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
    /// Pairwise max on value with the *lowest* index winning ties; operates
    /// on `(value, index)` pairs. Used for leader election (§V-B).
    MaxLoc,
}

/// Element-wise reduction of f64 vectors.
pub fn reduce_f64(op: ReduceOp, vecs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!vecs.is_empty());
    let len = vecs[0].len();
    let mut out = vecs[0].clone();
    for v in &vecs[1..] {
        assert_eq!(v.len(), len, "reduction length mismatch");
        for (o, &x) in out.iter_mut().zip(v) {
            *o = match op {
                ReduceOp::Sum => *o + x,
                ReduceOp::Min => o.min(x),
                ReduceOp::Max => o.max(x),
                ReduceOp::MaxLoc => unreachable!("MaxLoc needs pairs"),
            };
        }
    }
    out
}

/// Element-wise reduction of i64 vectors.
pub(crate) fn reduce_i64(op: ReduceOp, vecs: &[Vec<i64>]) -> Vec<i64> {
    assert!(!vecs.is_empty());
    let len = vecs[0].len();
    let mut out = vecs[0].clone();
    for v in &vecs[1..] {
        assert_eq!(v.len(), len, "reduction length mismatch");
        for (o, &x) in out.iter_mut().zip(v) {
            *o = match op {
                ReduceOp::Sum => *o + x,
                ReduceOp::Min => (*o).min(x),
                ReduceOp::Max => (*o).max(x),
                ReduceOp::MaxLoc => unreachable!("MaxLoc needs pairs"),
            };
        }
    }
    out
}

/// MAXLOC over `(value, index)` pairs: the largest value wins; ties go to
/// the smallest index.
pub fn maxloc_i64(pairs: &[(i64, usize)]) -> (i64, usize) {
    let mut best = pairs[0];
    for &(v, i) in &pairs[1..] {
        if v > best.0 || (v == best.0 && i < best.1) {
            best = (v, i);
        }
    }
    best
}

/// Little-endian byte serialisation helpers for collective payloads.
pub mod wire {
    /// Encodes a `u64` slice.
    pub(crate) fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Decodes `n` `u64`s from the front of `buf`, returning the rest.
    pub(crate) fn get_u64s(buf: &[u8], n: usize) -> (Vec<u64>, &[u8]) {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i * 8..i * 8 + 8]);
            out.push(u64::from_le_bytes(b));
        }
        (out, &buf[n * 8..])
    }

    /// Encodes f64s.
    pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Decodes all f64s in `buf`.
    pub fn get_f64s(buf: &[u8]) -> Vec<f64> {
        buf.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Decodes all i64s in `buf`.
    pub(crate) fn get_i64s(buf: &[u8]) -> Vec<i64> {
        buf.chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Encodes i64s.
    pub(crate) fn put_i64s(out: &mut Vec<u8>, xs: &[i64]) {
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn exchange_gathers_all_contributions() {
        let cell = StdArc::new(CollectiveCell::new(4));
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let cell = StdArc::clone(&cell);
                    s.spawn(move || cell.exchange(r, vec![r as u8; r + 1], r as f64))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in results {
            assert_eq!(out.t_max, 3.0, "latest arrival time published to all");
            assert_eq!(out.straggler, 3, "rank 3 arrived last");
            assert_eq!(out.seq, 0, "first round on this cell");
            assert_eq!(out.data.len(), 4);
            for (r, c) in out.data.iter().enumerate() {
                assert_eq!(c, &vec![r as u8; r + 1]);
            }
        }
    }

    #[test]
    fn cell_is_reusable_across_rounds() {
        let cell = StdArc::new(CollectiveCell::new(3));
        std::thread::scope(|s| {
            for r in 0..3 {
                let cell = StdArc::clone(&cell);
                s.spawn(move || {
                    for round in 0u8..50 {
                        let out = cell.exchange(r, vec![round, r as u8], 0.0);
                        assert_eq!(out.seq, u64::from(round), "cell round number");
                        assert_eq!(out.straggler, 0, "all-zero arrivals tie to rank 0");
                        for (i, c) in out.data.iter().enumerate() {
                            assert_eq!(c, &vec![round, i as u8], "round {round}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn reduce_f64_ops() {
        let vecs = vec![vec![1.0, -2.0], vec![3.0, 5.0]];
        assert_eq!(reduce_f64(ReduceOp::Sum, &vecs), vec![4.0, 3.0]);
        assert_eq!(reduce_f64(ReduceOp::Min, &vecs), vec![1.0, -2.0]);
        assert_eq!(reduce_f64(ReduceOp::Max, &vecs), vec![3.0, 5.0]);
    }

    #[test]
    fn reduce_i64_ops() {
        let vecs = vec![vec![1, -2], vec![3, 5]];
        assert_eq!(reduce_i64(ReduceOp::Sum, &vecs), vec![4, 3]);
        assert_eq!(reduce_i64(ReduceOp::Min, &vecs), vec![1, -2]);
        assert_eq!(reduce_i64(ReduceOp::Max, &vecs), vec![3, 5]);
    }

    #[test]
    fn maxloc_prefers_lowest_index_on_tie() {
        assert_eq!(maxloc_i64(&[(3, 2), (7, 1), (7, 0)]), (7, 0));
        assert_eq!(maxloc_i64(&[(-1, 0), (-1, 1)]), (-1, 0));
    }

    #[test]
    fn wire_roundtrip() {
        let mut buf = Vec::new();
        wire::put_u64s(&mut buf, &[1, u64::MAX]);
        wire::put_f64s(&mut buf, &[1.5]);
        let (u, rest) = wire::get_u64s(&buf, 2);
        assert_eq!(u, vec![1, u64::MAX]);
        assert_eq!(wire::get_f64s(rest), vec![1.5]);
    }
}
