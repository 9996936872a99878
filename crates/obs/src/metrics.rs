//! Counter/histogram registries folded from the event stream.
//!
//! [`Registry::from_events`] walks a recorded trace once and produces
//! flat, string-keyed counters (`ops.get`, `gmr.3.bytes`, `pool.hits`),
//! accumulated virtual-time totals (`stage_s.execute`, `epoch_held_s`)
//! and log2-bucketed microsecond histograms (lock hold times, op and
//! pack durations). Keys are deliberately plain strings so the report
//! and JSON schema stay decoupled from the event enum.

use crate::{Event, EventKind};
use serde::Value;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Power-of-two microsecond histogram: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` µs, bucket 0 holds sub-microsecond samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub count: u64,
    pub sum_s: f64,
    pub buckets: Vec<u64>,
}

impl Histogram {
    pub fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.sum_s += seconds;
        let us = seconds * 1e6;
        let idx = if us < 1.0 {
            0
        } else {
            // ceil(log2(us)) + 1, capped.
            (64 - (us as u64).leading_zeros() as usize).min(39)
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Estimated `q`-quantile in microseconds (`q` in `[0, 1]`), linearly
    /// interpolated inside the covering log2 bucket (bucket 0 spans
    /// `[0, 1)` µs, bucket `i` spans `[2^(i-1), 2^i)` µs). Exact only up
    /// to bucket resolution, but deterministic and monotone in `q`.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = if i == 0 {
                    (0.0, 1.0)
                } else {
                    ((1u64 << (i - 1)) as f64, (1u64 << i) as f64)
                };
                let frac = (target - seen) as f64 / n as f64;
                return lo + frac * (hi - lo);
            }
            seen += n;
        }
        0.0
    }
}

/// Flat metrics registry derived from one event stream.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Monotonic counts (ops, bytes, epochs, pool hits...).
    pub counters: BTreeMap<String, u64>,
    /// Accumulated virtual seconds per category.
    pub times: BTreeMap<String, f64>,
    /// Duration distributions in log2 µs buckets.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    fn bump(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_owned()).or_insert(0) += n;
    }

    fn add_time(&mut self, key: &str, s: f64) {
        *self.times.entry(key.to_owned()).or_insert(0.0) += s;
    }

    fn observe(&mut self, key: &str, s: f64) {
        self.histograms.entry(key.to_owned()).or_default().record(s);
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn time(&self, key: &str) -> f64 {
        self.times.get(key).copied().unwrap_or(0.0)
    }

    /// Pool hit-rate in `[0, 1]`; zero when the pool was never used.
    pub fn pool_hit_rate(&self) -> f64 {
        let h = self.counter("pool.hits") as f64;
        let m = self.counter("pool.misses") as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// World rank ranks most often stalled behind waiting for passive-target
    /// progress, with its accumulated stall seconds. Ties break to the
    /// lowest rank so reports stay deterministic.
    pub fn top_progress_straggler(&self) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (k, &s) in &self.times {
            let Some(rank) = k
                .strip_prefix("progress.stall_src.")
                .and_then(|r| r.parse::<u32>().ok())
            else {
                continue;
            };
            match best {
                Some((br, bs)) if s < bs || (s == bs && rank >= br) => {}
                _ => best = Some((rank, s)),
            }
        }
        best
    }

    /// Committed-datatype cache hit-rate in `[0, 1]`; zero when the cache
    /// was never consulted.
    pub fn dtype_hit_rate(&self) -> f64 {
        let h = self.counter("dtype.hits") as f64;
        let m = self.counter("dtype.misses") as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Fold a trace into counters, time totals and histograms.
    pub fn from_events(events: &[Event]) -> Self {
        use EventKind::*;
        let mut reg = Registry::default();
        // Open lock / lock_all / DLA intervals, keyed per rank, for hold
        // times. Unmatched opens (partial traces) are simply dropped.
        let mut lock_open: HashMap<(u32, u64, u32), f64> = HashMap::new();
        let mut lock_all_open: HashMap<(u32, u64), f64> = HashMap::new();
        let mut dla_open: HashMap<(u32, u64), f64> = HashMap::new();
        for e in events {
            match &e.kind {
                Op { name, gmr, bytes } => {
                    reg.bump(&format!("ops.{name}"), 1);
                    reg.bump(&format!("bytes.{name}"), *bytes);
                    reg.bump(&format!("gmr.{gmr}.ops.{name}"), 1);
                    reg.bump(&format!("gmr.{gmr}.bytes"), *bytes);
                    reg.add_time(&format!("op_s.{name}"), e.dur);
                    reg.observe(&format!("op_us.{name}"), e.dur);
                }
                GaOp { name, bytes } => {
                    reg.bump(&format!("ga.{name}"), 1);
                    reg.bump(&format!("ga_bytes.{name}"), *bytes);
                    reg.add_time(&format!("ga_s.{name}"), e.dur);
                }
                Stage { stage, .. } => {
                    reg.bump(&format!("stages.{stage}"), 1);
                    reg.add_time(&format!("stage_s.{stage}"), e.dur);
                    reg.observe(&format!("stage_us.{stage}"), e.dur);
                }
                Pack { bytes, .. } => {
                    reg.bump("packs", 1);
                    reg.bump("pack_bytes", *bytes);
                    reg.add_time("pack_s", e.dur);
                    reg.observe("pack_us", e.dur);
                }
                MutexWait { .. } => {
                    reg.bump("mutex.waits", 1);
                    reg.add_time("mutex_wait_s", e.dur);
                    reg.observe("mutex_wait_us", e.dur);
                }
                Coll { .. } => {
                    reg.bump("coll.ops", 1);
                    reg.add_time("coll_s", e.dur);
                }
                Wait { cat, src, .. } => {
                    let name = cat.name();
                    reg.bump(&format!("waits.{name}"), 1);
                    reg.add_time(&format!("wait_s.{name}"), e.dur);
                    reg.observe(&format!("wait_us.{name}"), e.dur);
                    match cat {
                        // The headline metric the async-progress engine
                        // is judged against: virtual seconds blocked on a
                        // busy target's host CPU servicing passive-target
                        // rounds. Collapsible by a progress agent.
                        crate::WaitCat::Progress => {
                            reg.add_time("progress.stall_s", e.dur);
                            reg.add_time(&format!("progress.stall_src.{src}"), e.dur);
                        }
                        // Load imbalance at synchronisation points: same
                        // attribution category, but no agent can compute
                        // the straggler's work for it.
                        crate::WaitCat::Straggler => {
                            reg.add_time("progress.straggler_s", e.dur);
                            reg.add_time(&format!("progress.stall_src.{src}"), e.dur);
                        }
                        _ => {}
                    }
                }
                AgentDrain { ops, avoided_s, .. } => {
                    reg.bump("progress.agent_ops", u64::from(*ops));
                    reg.add_time("progress.offloaded_s", *avoided_s);
                    reg.add_time("agent_drain_s", e.dur);
                }
                Compute => {
                    reg.bump("compute.blocks", 1);
                    reg.add_time("compute_s", e.dur);
                }
                LockAcquire {
                    win,
                    target,
                    exclusive,
                } => {
                    reg.bump(
                        if *exclusive {
                            "epochs.exclusive"
                        } else {
                            "epochs.shared"
                        },
                        1,
                    );
                    lock_open.insert((e.rank, *win, *target), e.ts);
                }
                LockRelease { win, target } => {
                    if let Some(t0) = lock_open.remove(&(e.rank, *win, *target)) {
                        reg.add_time("epoch_held_s", e.ts - t0);
                        reg.observe("lock_hold_us", e.ts - t0);
                    }
                }
                LockAll { win } => {
                    reg.bump("epochs.lock_all", 1);
                    lock_all_open.insert((e.rank, *win), e.ts);
                }
                UnlockAll { win } => {
                    if let Some(t0) = lock_all_open.remove(&(e.rank, *win)) {
                        reg.add_time("lock_all_held_s", e.ts - t0);
                    }
                }
                Flush { .. } => reg.bump("epochs.flushes", 1),
                NbEpochOpen { .. } => reg.bump("epochs.aggregate", 1),
                NbEpochClose { .. } => {}
                Rma {
                    kind, bytes, win, ..
                } => {
                    reg.bump(&format!("rma.{}", kind.name()), 1);
                    reg.bump(&format!("rma_bytes.{}", kind.name()), *bytes);
                    reg.bump(&format!("win.{win}.rma_bytes"), *bytes);
                }
                Pool { hit, .. } => reg.bump(if *hit { "pool.hits" } else { "pool.misses" }, 1),
                StageTouch { bytes, .. } => {
                    reg.bump("staging.touches", 1);
                    reg.bump("staging.bytes", *bytes);
                }
                DlaBegin { win, .. } => {
                    reg.bump("dla.regions", 1);
                    dla_open.insert((e.rank, *win), e.ts);
                }
                DlaEnd { win } => {
                    if let Some(t0) = dla_open.remove(&(e.rank, *win)) {
                        reg.add_time("dla_s", e.ts - t0);
                    }
                }
                LocalAccess { .. } => reg.bump("dla.accesses", 1),
                Method { name, fast } => {
                    reg.bump(
                        if *fast {
                            "iov.fast"
                        } else {
                            "iov.conservative"
                        },
                        1,
                    );
                    reg.bump(&format!("method.{name}"), 1);
                }
                GmrCreate { .. } => reg.bump("gmr.created", 1),
                GmrFree { .. } => reg.bump("gmr.freed", 1),
                Error { what, gmr } => {
                    reg.bump(&format!("errors.{what}"), 1);
                    reg.bump(&format!("errors.{what}.gmr.{gmr}"), 1);
                }
                SchedFlush {
                    ops,
                    runs,
                    segs_in,
                    segs_out,
                    ..
                } => {
                    reg.bump("sched.flushes", 1);
                    reg.bump("sched.ops", *ops as u64);
                    reg.bump("sched.runs", *runs as u64);
                    reg.bump("sched.segs_in", *segs_in as u64);
                    reg.bump("sched.segs_out", *segs_out as u64);
                    // Each run costs one epoch; without coalescing each op
                    // would have cost one.
                    reg.bump("sched.epochs_saved", (*ops - *runs) as u64);
                }
                DtypeCommit { hit, .. } => {
                    reg.bump(if *hit { "dtype.hits" } else { "dtype.misses" }, 1)
                }
                WinSync { .. } => reg.bump("shm.syncs", 1),
                ShmAccess {
                    win, write, bytes, ..
                } => {
                    reg.bump("shm.hits", 1);
                    reg.bump(if *write { "shm.stores" } else { "shm.loads" }, 1);
                    reg.bump("shm.bypass_bytes", *bytes);
                    reg.bump(&format!("win.{win}.shm_bytes"), *bytes);
                }
                AtomicOp {
                    cas,
                    native,
                    success,
                    ..
                } => {
                    reg.bump(
                        if *native {
                            "rmw.native_ops"
                        } else {
                            "mutex.fallback_ops"
                        },
                        1,
                    );
                    if *cas {
                        reg.bump("rmw.cas_ops", 1);
                        if !*success {
                            reg.bump("rmw.cas_retries", 1);
                        }
                    }
                }
                TransportIssue {
                    backend,
                    kind,
                    bytes,
                    offloaded,
                    ..
                } => {
                    reg.bump(&format!("transport.{backend}.{}", kind.name()), 1);
                    reg.bump(&format!("transport.{backend}.bytes"), *bytes);
                    let path = if *offloaded { "offloaded" } else { "fallback" };
                    reg.bump(&format!("transport.{backend}.{path}"), 1);
                }
            }
        }
        reg
    }

    /// One-screen human-readable summary.
    pub fn render(&self) -> String {
        fn bytes_h(n: u64) -> String {
            if n >= 1 << 20 {
                format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
            } else if n >= 1 << 10 {
                format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
            } else {
                format!("{n} B")
            }
        }
        let mut out = String::new();
        out.push_str("obs report ─────────────────────────────────────────\n");
        for kind in ["get", "put", "acc", "rmw", "nb_get", "nb_put", "nb_acc"] {
            let n = self.counter(&format!("ops.{kind}"));
            if n > 0 {
                out.push_str(&format!(
                    "  {:<6} : {:>6} ops  {:>10}  {:.6} s\n",
                    kind,
                    n,
                    bytes_h(self.counter(&format!("bytes.{kind}"))),
                    self.time(&format!("op_s.{kind}")),
                ));
            }
        }
        out.push_str(&format!(
            "  epochs : shared={} exclusive={} lock_all={} aggregate={} flushes={}\n",
            self.counter("epochs.shared"),
            self.counter("epochs.exclusive"),
            self.counter("epochs.lock_all"),
            self.counter("epochs.aggregate"),
            self.counter("epochs.flushes"),
        ));
        if let Some(h) = self.histograms.get("lock_hold_us") {
            out.push_str(&format!(
                "  epoch held : {:.6} s total, {:.1} us mean over {} epochs\n",
                self.time("epoch_held_s"),
                h.mean_s() * 1e6,
                h.count,
            ));
        }
        let stage_line: Vec<String> = ["plan", "acquire", "execute", "complete"]
            .iter()
            .filter(|s| self.counter(&format!("stages.{s}")) > 0)
            .map(|s| format!("{s}={:.6}s", self.time(&format!("stage_s.{s}"))))
            .collect();
        if !stage_line.is_empty() {
            out.push_str(&format!("  stages : {}\n", stage_line.join(" ")));
        }
        if self.counter("packs") > 0 {
            out.push_str(&format!(
                "  pack   : {} packs, {}, {:.6} s\n",
                self.counter("packs"),
                bytes_h(self.counter("pack_bytes")),
                self.time("pack_s"),
            ));
        }
        let atomics = self.counter("rmw.native_ops") + self.counter("mutex.fallback_ops");
        if atomics > 0 {
            out.push_str(&format!(
                "  atomic : native={} mutex_fallback={} cas={} ({} retries)\n",
                self.counter("rmw.native_ops"),
                self.counter("mutex.fallback_ops"),
                self.counter("rmw.cas_ops"),
                self.counter("rmw.cas_retries"),
            ));
        }
        if self.counter("mutex.waits") > 0 {
            out.push_str(&format!(
                "  mutex  : {} waits, {:.6} s blocked\n",
                self.counter("mutex.waits"),
                self.time("mutex_wait_s"),
            ));
        }
        let wait_line: Vec<String> = ["progress", "congestion", "cas_retry", "win_sync"]
            .iter()
            .filter(|c| self.counter(&format!("waits.{c}")) > 0)
            .map(|c| format!("{c}={:.6}s", self.time(&format!("wait_s.{c}"))))
            .collect();
        if !wait_line.is_empty() {
            let straggler = self
                .top_progress_straggler()
                .map(|(rank, s)| format!(", top straggler rank {rank} ({s:.6}s)"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  waits  : {} (progress.stall_s={:.6} straggler_s={:.6}{})\n",
                wait_line.join(" "),
                self.time("progress.stall_s"),
                self.time("progress.straggler_s"),
                straggler,
            ));
        }
        if self.counter("progress.agent_ops") > 0 {
            out.push_str(&format!(
                "  agent  : {} ops drained, {:.6} s offloaded ({:.6} s service)\n",
                self.counter("progress.agent_ops"),
                self.time("progress.offloaded_s"),
                self.time("agent_drain_s"),
            ));
        }
        if self.counter("compute.blocks") > 0 {
            out.push_str(&format!(
                "  compute: {:.6} s modelled\n",
                self.time("compute_s")
            ));
        }
        let pool_total = self.counter("pool.hits") + self.counter("pool.misses");
        if pool_total > 0 {
            out.push_str(&format!(
                "  pool   : {} hits / {} leases ({:.1}% hit-rate)\n",
                self.counter("pool.hits"),
                pool_total,
                self.pool_hit_rate() * 100.0,
            ));
        }
        let (fast, cons) = (self.counter("iov.fast"), self.counter("iov.conservative"));
        if fast + cons > 0 {
            out.push_str(&format!("  iov    : fast={fast} conservative={cons}\n"));
        }
        if self.counter("sched.flushes") > 0 {
            out.push_str(&format!(
                "  sched  : {} ops in {} runs over {} flushes, {} epochs saved, segs {}→{}\n",
                self.counter("sched.ops"),
                self.counter("sched.runs"),
                self.counter("sched.flushes"),
                self.counter("sched.epochs_saved"),
                self.counter("sched.segs_in"),
                self.counter("sched.segs_out"),
            ));
        }
        if self.counter("shm.hits") > 0 {
            out.push_str(&format!(
                "  shm    : {} intra-node accesses ({} loads / {} stores), {} bypassed, {} syncs\n",
                self.counter("shm.hits"),
                self.counter("shm.loads"),
                self.counter("shm.stores"),
                bytes_h(self.counter("shm.bypass_bytes")),
                self.counter("shm.syncs"),
            ));
        }
        let dtype_total = self.counter("dtype.hits") + self.counter("dtype.misses");
        if dtype_total > 0 {
            out.push_str(&format!(
                "  dtype  : {} hits / {} commits ({:.1}% hit-rate)\n",
                self.counter("dtype.hits"),
                dtype_total,
                self.dtype_hit_rate() * 100.0,
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("  tails (log2-us histograms):\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "    {:<20} n={:<6} p50={:.1}us p95={:.1}us p99={:.1}us\n",
                    k,
                    h.count,
                    h.quantile_us(0.50),
                    h.quantile_us(0.95),
                    h.quantile_us(0.99),
                ));
            }
        }
        let errs: Vec<String> = self
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("errors.") && k.matches('.').count() == 1)
            .map(|(k, v)| format!("{}={}", &k["errors.".len()..], v))
            .collect();
        if !errs.is_empty() {
            out.push_str(&format!("  errors : {}\n", errs.join(" ")));
        }
        out.push_str("────────────────────────────────────────────────────\n");
        out
    }

    /// JSON form for OBS_report artifacts.
    pub fn to_value(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        );
        let times = Value::Object(
            self.times
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("count".into(), Value::UInt(h.count)),
                            ("sum_s".into(), Value::Float(h.sum_s)),
                            (
                                "buckets_log2us".into(),
                                Value::Array(h.buckets.iter().map(|b| Value::UInt(*b)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".into(), counters),
            ("times".into(), times),
            ("histograms".into(), histograms),
        ])
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report render")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, OpKind};

    fn ev(rank: u32, ts: f64, dur: f64, kind: EventKind) -> Event {
        Event {
            rank,
            ts,
            dur,
            kind,
        }
    }

    #[test]
    fn registry_folds_counters_and_hold_times() {
        use EventKind::*;
        let events = vec![
            ev(
                0,
                0.0,
                0.0,
                LockAcquire {
                    win: 4,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                0.4,
                Op {
                    name: "put",
                    gmr: 4,
                    bytes: 1024,
                },
            ),
            ev(
                0,
                0.2,
                0.0,
                Rma {
                    win: 4,
                    target: 1,
                    kind: OpKind::Put,
                    bytes: 1024,
                },
            ),
            ev(0, 0.5, 0.0, LockRelease { win: 4, target: 1 }),
            ev(
                1,
                0.0,
                0.0,
                Pool {
                    bytes: 64,
                    hit: true,
                },
            ),
            ev(
                1,
                0.1,
                0.0,
                Pool {
                    bytes: 64,
                    hit: false,
                },
            ),
            ev(
                1,
                0.2,
                0.0,
                Method {
                    name: "iov_auto",
                    fast: true,
                },
            ),
        ];
        let reg = Registry::from_events(&events);
        assert_eq!(reg.counter("ops.put"), 1);
        assert_eq!(reg.counter("bytes.put"), 1024);
        assert_eq!(reg.counter("gmr.4.bytes"), 1024);
        assert_eq!(reg.counter("epochs.exclusive"), 1);
        assert_eq!(reg.counter("rma.put"), 1);
        assert!((reg.time("epoch_held_s") - 0.5).abs() < 1e-12);
        assert!((reg.pool_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(reg.counter("iov.fast"), 1);
        let rendered = reg.render();
        assert!(rendered.contains("put"));
        assert!(rendered.contains("hit-rate"));
        serde_json::from_str(&reg.to_json()).expect("report json parses");
    }

    #[test]
    fn histogram_buckets_are_log2_microseconds() {
        let mut h = Histogram::default();
        h.record(0.5e-6); // sub-µs → bucket 0
        h.record(3e-6); // 3 µs → bucket 2 ([2,4))
        h.record(100e-6); // 100 µs → bucket 7 ([64,128))
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
    }
}
