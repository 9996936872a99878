//! The A/B runner behind every `BENCH_*` artifact.
//!
//! Each artifact repeats one §VII experiment: replay the same traffic
//! under several configurations and check the bytes agree. An [`Arm`]
//! names the traffic (a [`Driver`]), the platform, the node layout,
//! whether the shared-NIC congestion model prices it, and the
//! [`Config`]. [`run`] builds the simulated runtime, runs the driver on
//! every rank and folds the per-rank results into one [`Row`]:
//!
//! * provenance as the runtime resolved it (`transport_name`,
//!   `atomics_mode_name`, `progress_mode_name`, the coalesce mode);
//! * `virtual_s`, the measured phase's makespan: the maximum over ranks;
//! * the [`StageStats`], [`OpStats`] and [`TransportStats`] deltas of the
//!   measured phase, summed over ranks;
//! * recorder metrics, when the arm asks for them ([`Arm::record`]);
//! * a payload fingerprint and the driver's oracle verdict.
//!
//! [`run_table`] compares each arm's fingerprint with the table's
//! baseline arm: the first arm that ran the same workload on the same
//! layout with the same parameters. `pipeline` and `pool` keep their
//! single-runtime phase loops (cache and pool state carry across phases)
//! and build the same [`Row`] from [`Sample`] deltas.

use armci_mpi::{ArmciMpi, CoalesceMode, Config, OpStats, StageStats, TransportStats};
use mpisim::{Proc, Runtime, RuntimeConfig};
use serde::{Serialize, Value};
use simnet::{CongestionParams, PlatformId};

pub use crate::drivers::{Driver, RankOut};

/// Field-wise arithmetic and JSON fields of a plain counter struct.
trait Counters {
    fn fields(&self) -> Vec<(&'static str, Value)>;
    fn add(&self, other: &Self) -> Self;
    fn sub(&self, other: &Self) -> Self;
}

macro_rules! counters {
    ($t:ty: $($f:ident),*) => {
        impl Counters for $t {
            fn fields(&self) -> Vec<(&'static str, Value)> {
                vec![$((stringify!($f), self.$f.to_value())),*]
            }
            fn add(&self, o: &Self) -> Self {
                Self { $($f: self.$f + o.$f),* }
            }
            fn sub(&self, o: &Self) -> Self {
                Self { $($f: self.$f - o.$f),* }
            }
        }
    };
}

counters! { StageStats: plans, planned_ops, acquires, executed_ops, completes, nb_submitted,
nb_aggregated, nb_waits, pool_hits, pool_misses, pool_reg_s, sched_enqueued, sched_flushes,
sched_runs, sched_segs_in, sched_segs_out, dtype_hits, dtype_misses, shm_hits, shm_bypass_bytes,
plan_s, acquire_s, execute_s, complete_s }

counters! { OpStats: epochs, flushes, puts, gets, accs, bytes_put, bytes_got, bytes_acc, rmws,
rmw_native, rmw_mutex_fallback, cas_retries, mutex_locks, bytes_staged }

counters! { TransportStats: offloaded, fallback }

/// One rank's counters: a snapshot ([`Sample::now`]) or the activity
/// between two snapshots ([`Sample::since`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Virtual clock (snapshot) or elapsed virtual seconds (delta).
    pub virtual_s: f64,
    pub stage: StageStats,
    pub ops: OpStats,
    pub wire: TransportStats,
}

impl Sample {
    pub fn now(p: &Proc, rt: &ArmciMpi) -> Sample {
        Sample {
            virtual_s: p.clock().now(),
            stage: rt.stage_stats(),
            ops: rt.stats(),
            wire: rt.transport_stats(),
        }
    }

    /// The activity between `earlier` and this snapshot.
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            virtual_s: self.virtual_s - earlier.virtual_s,
            stage: self.stage.sub(&earlier.stage),
            ops: self.ops.sub(&earlier.ops),
            wire: self.wire.sub(&earlier.wire),
        }
    }
}

/// One measured arm: the only row shape of the `BENCH_*` artifacts.
#[derive(Debug, Clone)]
pub struct Row {
    pub platform: PlatformId,
    /// The traffic: a [`Driver::name`] or a phase-loop workload.
    pub workload: &'static str,
    /// The arm's label within its table.
    pub arm: &'static str,
    pub ranks: usize,
    pub ranks_per_node: u32,
    /// Whether the shared-NIC congestion model priced this arm.
    pub congested: bool,
    /// Resolved wire backend (`mpi-rma`, `channel`; `native` for the
    /// ARMCI-Native runtime).
    pub transport: &'static str,
    /// Resolved RMW discipline (`native` or `mutex`).
    pub atomics: &'static str,
    /// Resolved progress discipline (`none` or `agent`).
    pub progress: &'static str,
    /// Configured coalesce mode (`none` for the ARMCI-Native runtime).
    pub coalesce: &'static str,
    /// Virtual makespan of the measured phase: the maximum over ranks.
    pub virtual_s: f64,
    /// FNV-1a hash of the arm's payload (final remote images, energy,
    /// driver outputs).
    pub fingerprint: u64,
    /// Fingerprint equal to the table's baseline arm.
    pub payload_ok: bool,
    /// The driver's bit-exact oracle passed (true when it has none).
    pub verified: bool,
    /// Arm inputs beyond the layout (sizes, skew, refill block).
    pub params: Vec<(&'static str, Value)>,
    pub stage: StageStats,
    pub ops: OpStats,
    pub wire: TransportStats,
    /// Named outputs: recorder metrics, driver outputs, pool counters.
    pub metrics: Vec<(&'static str, Value)>,
}

/// Recorder times a recorded row carries, under the registry's names.
const RECORDED_TIMES: [&str; 6] = [
    "epoch_held_s",
    "pack_s",
    "progress.stall_s",
    "progress.straggler_s",
    "progress.offloaded_s",
    "agent_drain_s",
];

impl Row {
    /// An empty row: no provenance, zero counters, empty payload.
    pub fn new(
        platform: PlatformId,
        workload: &'static str,
        arm: &'static str,
        ranks: usize,
        ranks_per_node: u32,
    ) -> Row {
        Row {
            platform,
            workload,
            arm,
            ranks,
            ranks_per_node,
            congested: false,
            transport: "",
            atomics: "",
            progress: "",
            coalesce: "",
            virtual_s: 0.0,
            fingerprint: fingerprint(&[]),
            payload_ok: true,
            verified: true,
            params: Vec::new(),
            stage: StageStats::default(),
            ops: OpStats::default(),
            wire: TransportStats::default(),
            metrics: Vec::new(),
        }
    }

    /// Fills the provenance columns from what `rt` resolved.
    pub fn resolved(mut self, rt: &ArmciMpi) -> Row {
        self.transport = rt.transport_name();
        self.atomics = rt.atomics_mode_name();
        self.progress = rt.progress_mode_name();
        self.coalesce = match rt.config().coalesce {
            CoalesceMode::Batched => "batched",
            CoalesceMode::Datatype => "datatype",
            CoalesceMode::Auto => "auto",
        };
        self
    }

    /// Folds one rank's measured phase in: counters add, time takes the
    /// maximum.
    pub fn add(&mut self, s: &Sample) {
        self.virtual_s = self.virtual_s.max(s.virtual_s);
        self.stage = self.stage.add(&s.stage);
        self.ops = self.ops.add(&s.ops);
        self.wire = self.wire.add(&s.wire);
    }

    /// Appends the recorder metrics folded from `reg`.
    pub fn record(&mut self, reg: &obs::metrics::Registry) {
        for key in RECORDED_TIMES {
            self.metrics.push((key, Value::Float(reg.time(key))));
        }
        let agent_ops = reg.counter("progress.agent_ops");
        self.metrics
            .push(("progress.agent_ops", Value::UInt(agent_ops)));
        let rma_ops = ["rma.put", "rma.get", "rma.acc", "rma.rmw"]
            .iter()
            .map(|k| reg.counter(k))
            .sum();
        self.metrics.push(("rma_ops", Value::UInt(rma_ops)));
    }

    /// A metric as a number (0.0 when absent).
    pub fn metric(&self, key: &str) -> f64 {
        lookup(&self.metrics, key)
    }

    /// A parameter as a number (0.0 when absent).
    pub fn param(&self, key: &str) -> f64 {
        lookup(&self.params, key)
    }

    /// `workload/arm`, with `+cong` when congestion priced the arm.
    pub fn label(&self) -> String {
        let cong = if self.congested { "+cong" } else { "" };
        format!("{}/{}{cong}", self.workload, self.arm)
    }
}

fn lookup(kv: &[(&'static str, Value)], key: &str) -> f64 {
    kv.iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| number(v))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => 0.0,
    }
}

/// Adds `v` to the entry named `key`, or appends it.
fn accumulate(kv: &mut Vec<(&'static str, Value)>, key: &'static str, v: &Value) {
    match kv.iter_mut().find(|(k, _)| *k == key) {
        Some((_, Value::UInt(a))) => *a += number(v) as u64,
        Some((_, a)) => *a = Value::Float(number(a) + number(v)),
        None => kv.push((key, v.clone())),
    }
}

fn object(kv: Vec<(&'static str, Value)>) -> Value {
    Value::Object(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        let mut stage = self.stage.fields();
        stage.push(("pool_hit_rate", self.stage.pool_hit_rate().to_value()));
        stage.push(("dtype_hit_rate", self.stage.dtype_hit_rate().to_value()));
        stage.push(("shm_hit_rate", self.stage.shm_hit_rate().to_value()));
        let mut ops = self.ops.fields();
        let wire_ops = self.ops.puts + self.ops.gets + self.ops.accs;
        ops.push(("wire_ops", wire_ops.to_value()));
        object(vec![
            ("platform", self.platform.to_value()),
            ("workload", self.workload.to_value()),
            ("arm", self.arm.to_value()),
            ("ranks", self.ranks.to_value()),
            ("ranks_per_node", self.ranks_per_node.to_value()),
            ("congested", self.congested.to_value()),
            ("transport", self.transport.to_value()),
            ("atomics", self.atomics.to_value()),
            ("progress", self.progress.to_value()),
            ("coalesce", self.coalesce.to_value()),
            ("virtual_s", self.virtual_s.to_value()),
            (
                "fingerprint",
                format!("{:016x}", self.fingerprint).to_value(),
            ),
            ("payload_ok", self.payload_ok.to_value()),
            ("verified", self.verified.to_value()),
            ("params", object(self.params.clone())),
            ("stage", object(stage)),
            ("ops", object(ops)),
            ("wire", object(self.wire.fields())),
            ("metrics", object(self.metrics.clone())),
        ])
    }
}

/// FNV-1a over `bytes`.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One configuration of one driver.
#[derive(Debug, Clone)]
pub struct Arm {
    pub label: &'static str,
    pub driver: Driver,
    pub platform: PlatformId,
    pub ranks: usize,
    pub ranks_per_node: u32,
    pub congested: bool,
    pub cfg: Config,
    /// Run with the recorder on and fold its metrics into the row.
    pub record: bool,
}

impl Arm {
    /// `driver` on `ranks` ranks, one per node, uncongested, unrecorded.
    pub fn new(
        label: &'static str,
        driver: Driver,
        platform: PlatformId,
        ranks: usize,
        cfg: Config,
    ) -> Arm {
        Arm {
            label,
            driver,
            platform,
            ranks,
            ranks_per_node: 1,
            congested: false,
            cfg,
            record: false,
        }
    }

    fn runtime(&self) -> RuntimeConfig {
        let mut rc = crate::internode(self.platform);
        rc.platform.cores_per_socket = self.ranks_per_node;
        rc.congestion = self.congested.then(CongestionParams::default);
        rc
    }
}

/// Runs one arm on a fresh runtime and folds every rank into a row
/// (`payload_ok` is left true; [`run_table`] compares), with every
/// rank's recorder events (none unless [`Arm::record`]).
pub fn run(arm: &Arm) -> (Row, Vec<obs::Event>) {
    let body = || {
        Runtime::run_with(arm.ranks, arm.runtime(), |p| {
            let rt = ArmciMpi::with_config(p, arm.cfg.clone());
            let (name, ranks) = (arm.driver.name(), arm.ranks);
            let row = Row::new(arm.platform, name, arm.label, ranks, arm.ranks_per_node);
            (row.resolved(&rt), arm.driver.run(p, &rt))
        })
    };
    let (outs, events) = if arm.record {
        obs::capture(body)
    } else {
        (body(), Vec::new())
    };
    let mut row = outs[0].0.clone();
    row.congested = arm.congested;
    row.params = arm.driver.params();
    let outs: Vec<RankOut> = outs.into_iter().map(|(_, out)| out).collect();
    let mut payload = Vec::new();
    for out in &outs {
        if let Some(s) = &out.sample {
            row.add(s);
        }
        payload.extend(&out.payload);
        for (k, v) in &out.metrics {
            accumulate(&mut row.metrics, k, v);
        }
    }
    row.fingerprint = fingerprint(&payload);
    row.verified = arm.driver.verify(&outs);
    if arm.record {
        row.record(&obs::metrics::Registry::from_events(&events));
    }
    (row, events)
}

/// Runs every arm in order; each row's `payload_ok` compares its
/// fingerprint with the first row of the same workload, layout and
/// parameters (the table's baseline arm for that group).
pub fn run_table(arms: impl IntoIterator<Item = Arm>) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for arm in arms {
        let (mut row, _) = run(&arm);
        if let Some(base) = rows.iter().find(|b| {
            (b.workload, b.ranks, b.ranks_per_node) == (row.workload, row.ranks, row.ranks_per_node)
                && b.params == row.params
        }) {
            row.payload_ok = base.fingerprint == row.fingerprint;
        }
        rows.push(row);
    }
    rows
}

/// An extra numeric column of a rendered table.
pub type Column = (&'static str, fn(&Row) -> f64);

/// One artifact's output for one platform: the shared rows, the series
/// that stay outside them (DES sweeps), and the headline.
pub struct Table {
    pub title: &'static str,
    pub columns: &'static [Column],
    pub rows: Vec<Row>,
    pub series: Vec<Value>,
    pub headline: String,
}

impl Table {
    pub fn new(
        title: &'static str,
        columns: &'static [Column],
        rows: Vec<Row>,
        headline: String,
    ) -> Table {
        Table {
            title,
            columns,
            rows,
            series: Vec::new(),
            headline,
        }
    }

    /// Renders the rows as aligned text followed by the headline.
    pub fn render(&self) -> String {
        let platform = self.rows.first().map_or("", |r| r.platform.name());
        let mut s = format!("# {} — {platform}\n", self.title);
        s.push_str(&format!(
            "{:<32} {:>5} {:>4} {:>8} {:>7} {:>6} {:>12}",
            "workload/arm", "ranks", "rpn", "wire", "atomics", "prog", "virtual_µs"
        ));
        for (name, _) in self.columns {
            s.push_str(&format!(" {name:>12}"));
        }
        s.push_str("  ok\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{:<32} {:>5} {:>4} {:>8} {:>7} {:>6} {:>12.3}",
                r.label(),
                r.ranks,
                r.ranks_per_node,
                r.transport,
                r.atomics,
                r.progress,
                r.virtual_s * 1e6
            ));
            for (_, value) in self.columns {
                let v = value(r);
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    s.push_str(&format!(" {v:>12.0}"));
                } else {
                    s.push_str(&format!(" {v:>12.3}"));
                }
            }
            let ok = if r.payload_ok && r.verified { "y" } else { "N" };
            s.push_str(&format!("  {ok}\n"));
        }
        s.push_str(&self.headline);
        s.push('\n');
        s
    }

    /// Rows then series, as the artifact's JSON array.
    pub fn json(&self) -> Vec<Value> {
        self.rows
            .iter()
            .map(Serialize::to_value)
            .chain(self.series.iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_matches_fnv1a_reference_values() {
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn row_folds_ranks_by_sum_and_max() {
        let mut row = Row::new(PlatformId::InfiniBandCluster, "w", "a", 2, 1);
        let mut a = Sample {
            virtual_s: 2.0,
            ..Sample::default()
        };
        a.ops.epochs = 3;
        a.stage.plan_s = 0.5;
        let b = Sample {
            virtual_s: 1.0,
            ..a
        };
        row.add(&a);
        row.add(&b);
        assert_eq!(row.virtual_s, 2.0);
        assert_eq!(row.ops.epochs, 6);
        assert_eq!(row.stage.plan_s, 1.0);
    }

    #[test]
    fn metrics_accumulate_by_kind() {
        let mut kv = Vec::new();
        accumulate(&mut kv, "n", &Value::UInt(2));
        accumulate(&mut kv, "n", &Value::UInt(3));
        accumulate(&mut kv, "t", &Value::Float(0.25));
        accumulate(&mut kv, "t", &Value::Float(0.5));
        assert_eq!(kv, vec![("n", Value::UInt(5)), ("t", Value::Float(0.75))]);
    }
}
