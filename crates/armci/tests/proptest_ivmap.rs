//! Property tests for the shared interval map: containment lookup and
//! unregistration against a brute-force linear-scan oracle over random
//! allocation layouts.

use armci::IntervalMap;
use proptest::prelude::*;

/// One registered interval: `(rank, base, size, value)`.
type Entry = (usize, usize, usize, u64);

/// Strategy: per-rank non-overlapping layouts built from cumulative
/// `(gap, size)` pairs, so intervals never intersect by construction.
fn arb_layout() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(
        (
            0usize..4,
            proptest::collection::vec((0usize..48, 1usize..64), 0..8),
        ),
        1..5,
    )
    .prop_map(|ranks| {
        let mut entries = Vec::new();
        let mut value = 1u64;
        // Per-rank cursors: the same rank may appear twice in the outer
        // vec, and its spans must stay non-overlapping across groups.
        let mut cursors = std::collections::HashMap::new();
        for (rank, spans) in ranks {
            // Base 1: interval maps treat 0 as NULL-adjacent; start above.
            let cursor = cursors.entry(rank).or_insert(1usize);
            for (gap, size) in spans {
                let base = *cursor + gap;
                entries.push((rank, base, size, value));
                value += 1;
                *cursor = base + size;
            }
        }
        entries
    })
}

/// Linear-scan oracle: first interval on `rank` containing
/// `[addr, addr + len.max(1))`.
fn oracle(entries: &[Entry], rank: usize, addr: usize, len: usize) -> Option<(usize, usize, u64)> {
    entries
        .iter()
        .find(|&&(r, base, size, _)| r == rank && addr >= base && addr + len.max(1) <= base + size)
        .map(|&(_, base, size, v)| (base, size, v))
}

fn build(entries: &[Entry]) -> IntervalMap<u64> {
    let mut m = IntervalMap::new();
    for &(rank, base, size, v) in entries {
        m.insert(rank, base, size, v);
    }
    m
}

proptest! {
    /// Random probes agree with the linear scan — both probes that land
    /// inside intervals and probes into gaps / past ends.
    #[test]
    fn lookup_matches_linear_scan(
        entries in arb_layout(),
        probes in proptest::collection::vec((0usize..5, 0usize..512, 0usize..96), 1..64),
    ) {
        let m = build(&entries);
        prop_assert_eq!(m.len(), entries.len());
        for (rank, addr, len) in probes {
            let got = m.lookup(rank, addr, len).map(|f| (f.base, f.size, f.value));
            prop_assert_eq!(got, oracle(&entries, rank, addr, len));
        }
    }

    /// Probes aimed at interval interiors and boundaries (the hard
    /// cases: exact base, last byte, one-past-the-end).
    #[test]
    fn boundary_probes_match_linear_scan(entries in arb_layout()) {
        let m = build(&entries);
        for &(rank, base, size, _) in &entries {
            for addr in [base, base + size - 1, base + size] {
                for len in [0usize, 1, size, size + 1] {
                    let got = m.lookup(rank, addr, len).map(|f| (f.base, f.size, f.value));
                    prop_assert_eq!(got, oracle(&entries, rank, addr, len));
                }
            }
        }
    }

    /// Unregistering a random subset by payload removes exactly those
    /// intervals and leaves the rest findable.
    #[test]
    fn retain_matches_linear_scan(
        entries in arb_layout(),
        mask in proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 16),
    ) {
        let mut m = build(&entries);
        let (gone, kept): (Vec<_>, Vec<_>) = entries
            .iter()
            .enumerate()
            .partition(|(i, _)| mask[i % mask.len()]);
        let gone: Vec<u64> = gone.into_iter().map(|(_, e)| e.3).collect();
        m.retain(|v| !gone.contains(v));
        let kept: Vec<Entry> = kept.into_iter().map(|(_, &e)| e).collect();
        prop_assert_eq!(m.len(), kept.len());
        for &(rank, base, size, _) in &entries {
            let got = m.lookup(rank, base, size).map(|f| (f.base, f.size, f.value));
            prop_assert_eq!(got, oracle(&kept, rank, base, size));
        }
    }
}
