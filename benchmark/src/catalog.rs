//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, with their units and directions.
//!
//! This is the in-code twin of `BENCHMARK.json`; `tests/smoke.rs` fails
//! when the two (or `README.md`) drift apart. Later performance issues
//! cite these names for their before/after, so renaming one is an API
//! break of the benchmark.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name, why it exists, and its load generators.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line, at most 200 characters (the `BENCHMARK.json` limit).
    pub why: &'static str,
    /// Load-generating threads/connections (never more than `nproc` = 2).
    pub clients: usize,
    /// Raw Adult-synth rows generated before tensor aggregation.
    pub raw_rows: u64,
    /// Distinct plans in the seeded plan list.
    pub plans: usize,
    /// Correctness ceiling on `rel_err_p50`: twice the largest value seen
    /// over twenty seeds, so accuracy cannot collapse unnoticed.
    pub rel_err_ceiling: f64,
}

pub const SCAN_WIDE: &str = "scan_wide";
pub const NARROW_REMOTE: &str = "narrow_remote";
pub const MIXED_SHARDED: &str = "mixed_sharded";
pub const LIVE_RW: &str = "live_rw";

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: SCAN_WIDE,
        why: "in-process engine, 1 client, 1.2M rows (larger than cache), wide 5-dim COUNT/SUM: the cluster scan dominates; net and wire do nothing",
        clients: 1,
        raw_rows: 1_200_000,
        plans: 200,
        rel_err_ceiling: 0.45,
    },
    WorkloadDef {
        name: NARROW_REMOTE,
        why: "loopback analyst server, 2 connections, 60k rows (cache-resident), narrow 2-dim COUNT: sampling, noise, engine hand-off, codec and socket dominate; the scan is a minority",
        clients: 2,
        raw_rows: 60_000,
        plans: 200,
        rel_err_ceiling: 0.9,
    },
    WorkloadDef {
        name: MIXED_SHARDED,
        why: "2 loopback shards behind a coordinator, 2 connections, Zipf age bands so pruning fires, SQL parsed in path: scalar/AVG/VAR/GROUP BY/MIN-MAX fan-out and scatter-gather",
        clients: 2,
        raw_rows: 60_000,
        plans: 400,
        rel_err_ceiling: 0.3,
    },
    WorkloadDef {
        name: LIVE_RW,
        why: "live server, 150k rows: paced open-loop writer (250 rows per 50 ms) beside a closed-loop reader (80% scalar, 20% 4-round online) on one lock and one pool",
        clients: 2,
        raw_rows: 150_000,
        plans: 200,
        rel_err_ceiling: 0.4,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (`BENCHMARK.json` `bound`); `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// The end-to-end metric and workload this metric is expected to move
    /// (`BENCHMARK.json` has no field for it; README and `--list` print it).
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// The metrics every workload reports with `--trace 0`
/// (`BENCHMARK.json` `end_to_end`).
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, "Federation::build + engine start + bind + connect + first plan, median of 7 set-ups"),
    e2e("plans_per_s", "plans/s", Higher, 0.25, "completed plans per second, closed loop, fixed client count: upper quartile of the quiet slices"),
    e2e("plan_p50_ms", "ms", Lower, 0.25, "median submit-to-answer latency: lower quartile of the quiet slices' medians"),
    e2e("cpu_us_per_plan", "us", Lower, 0.25, "process CPU time / plans completed: lower quartile of the quiet slices"),
    e2e("peak_rss_mb", "MB", Lower, 0.15, "VmHWM of the workload's own process"),
];

/// The rest of the user-visible metrics of the issue. `BENCHMARK.json`
/// lists them under `per_layer`: its `end_to_end` entries must be non-zero
/// on every workload and hold a bound of at most 0.25 across seeds.
/// `failed_frac` is 0 on a healthy run; two exist on `live_rw` only (0
/// elsewhere); `rel_err_p50` repeats exactly under one seed but moves by
/// 20-40 % from seed to seed (200 plans are a small sample of a
/// heavy-tailed error), so it is reported here and guarded by each
/// workload's `rel_err_ceiling` instead; `plan_p99_ms` holds 0.03-0.15
/// across seeds in a calm spell of this machine and 0.3-1.6 when
/// neighbours steal CPU for whole runs, which no bound of 0.25 survives.
#[rustfmt::skip]
pub const USER_ONLY: &[MetricDef] = &[
    layer("failed_frac", "ratio", Lower, "plans and ingest batches that errored / attempted"),
    layer("rel_err_p50", "ratio", Lower, "median |released - exact| / max(exact, 1) over the scalar plans of the verification pass"),
    layer("plan_p99_ms", "ms", Lower, "tail latency: p99 over the plans completed in the quiet slices (at least 1000)"),
    layer("first_snapshot_ms", "ms", Lower, "live_rw: time to the first pushed snapshot of a 4-round online plan"),
    layer("ingest_rows_per_s", "rows/s", Higher, "live_rw: 200k-row burst in 1000-row batches with no reader"),
];

/// The 66 per-layer metrics, timed from outside (`--trace 1`).
#[rustfmt::skip]
pub const LAYER: &[MetricDef] = &[
    layer("model.sql.parse_ns", "ns", Lower, "cpu_us_per_plan@mixed_sharded (a floor, <0.1%); no SQL in the other paths"),
    layer("core.optimizer.explain_ns", "ns", Lower, "plans_per_s@mixed_sharded"),
    layer("core.optimizer.pruned_frac", "ratio", Higher, "plans_per_s@mixed_sharded; 0 on equal partitions"),
    layer("core.optimizer.reused_frac", "ratio", Higher, "plans_per_s@mixed_sharded (VAR second moment)"),
    layer("core.plan.subqueries_per_plan", "count", Lower, "plan_p99_ms@mixed_sharded"),
    layer("core.plan.scalar_p50_ms", "ms", Lower, "plan_p50_ms (all)"),
    layer("core.plan.derived_p50_ms", "ms", Lower, "plan_p99_ms@mixed_sharded"),
    layer("core.plan.groupby_p50_ms", "ms", Lower, "plan_p99_ms@mixed_sharded (group-bys are the tail)"),
    layer("core.plan.extreme_p50_ms", "ms", Lower, "plan_p50_ms@mixed_sharded"),
    layer("core.plan.online_p50_ms", "ms", Lower, "first_snapshot_ms@live_rw"),
    layer("core.engine.run_plan_us", "us", Lower, "plan_p50_ms, cpu_us_per_plan@narrow_remote"),
    layer("core.engine.phase_summary_us", "us", Lower, "plan_p50_ms@narrow_remote"),
    layer("core.engine.phase_allocation_us", "us", Lower, "plan_p50_ms@narrow_remote"),
    layer("core.engine.phase_execution_us", "us", Lower, "plan_p50_ms@scan_wide"),
    layer("core.engine.phase_release_us", "us", Lower, "plan_p50_ms@narrow_remote"),
    layer("core.engine.overhead_us", "us", Lower, "plan_p50_ms, cpu_us_per_plan@narrow_remote; plans_per_s@mixed_sharded"),
    layer("core.engine.overhead_frac", "ratio", Lower, "plan_p50_ms@narrow_remote; <10% on scan_wide"),
    layer("core.engine.handoff_floor_us", "us", Lower, "plan_p50_ms@narrow_remote (metadata-only Extreme plan: no barrier)"),
    layer("core.engine.provider_sum_over_phase", "ratio", Higher, "plans_per_s (overlap achieved; ideal = min(4, cores))"),
    layer("core.provider.prepare_us", "us", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("core.provider.execute_us", "us", Lower, "cpu_us_per_plan@narrow_remote, scan_wide"),
    layer("core.provider.execute_self_us", "us", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("core.provider.exact_path_frac", "ratio", Lower, "informational: provider turns answered exactly (N^Q < N_min)"),
    layer("storage.meta.covering_ns_per_cluster", "ns/cluster", Lower, "plan_p50_ms@scan_wide (~8%), @narrow_remote (~15%)"),
    layer("storage.meta.covering_frac", "ratio", Lower, "plan_p50_ms@scan_wide, narrow_remote"),
    layer("storage.meta.proportions_ns_per_cluster", "ns/cluster", Lower, "plan_p50_ms@scan_wide, narrow_remote"),
    layer("storage.meta.build_ns_per_row", "ns/row", Lower, "setup_s (all); core.stream.refresh_ms@live_rw"),
    layer("storage.store.build_ns_per_row", "ns/row", Lower, "setup_s (all)"),
    layer("storage.store.append_ns_per_row", "ns/row", Lower, "ingest_rows_per_s@live_rw"),
    layer("storage.cluster.scan_ns_per_cell", "ns/cell", Lower, "plans_per_s, plan_p50_ms, cpu_us_per_plan@scan_wide"),
    layer("storage.cluster.calib_ns_per_cell", "ns/cell", Lower, "machine-speed normaliser: plain sum over the same column slices"),
    layer("storage.cluster.scan_over_calib", "ratio", Lower, "cpu_us_per_plan@scan_wide, machine-independent"),
    layer("storage.cluster.cells_per_plan", "count", Lower, "cpu_us_per_plan@scan_wide"),
    layer("storage.cluster.scanned_frac", "ratio", Lower, "cpu_us_per_plan@scan_wide"),
    layer("sampling.em.sample_ns_per_draw", "ns/draw", Lower, "plan_p50_ms, cpu_us_per_plan@narrow_remote"),
    layer("sampling.em.draws_per_plan", "count", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("sampling.em.distinct_frac", "ratio", Lower, "cpu_us_per_plan@scan_wide (repeated draws are scans avoided)"),
    layer("sampling.hh.estimate_ns", "ns", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("core.sensitivity.smooth_ns", "ns", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("dp.smooth.release_ns", "ns", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("dp.laplace.summary_ns", "ns", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("core.aggregator.allocate_ns", "ns", Lower, "plan_p50_ms@narrow_remote (on the barrier's critical path)"),
    layer("dp.accountant.charge_ns", "ns", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("net.wire.encode_ns_per_frame", "ns/frame", Lower, "cpu_us_per_plan@narrow_remote, mixed_sharded"),
    layer("net.wire.decode_ns_per_frame", "ns/frame", Lower, "cpu_us_per_plan@narrow_remote, mixed_sharded"),
    layer("net.wire.bytes_per_plan", "bytes", Lower, "cpu_us_per_plan@narrow_remote, mixed_sharded"),
    layer("net.server.ping_rtt_us", "us", Lower, "plan_p50_ms@narrow_remote (socket + codec + thread wake, no engine)"),
    layer("net.server.remote_overhead_us", "us", Lower, "plan_p50_ms, plans_per_s@narrow_remote"),
    layer("net.server.remote_over_inproc", "ratio", Lower, "plan_p50_ms@narrow_remote"),
    layer("net.server.connect_ms", "ms", Lower, "setup_s"),
    layer("net.server.frames_per_plan", "count", Lower, "cpu_us_per_plan@narrow_remote"),
    layer("core.shard.inproc_overhead_us", "us", Lower, "plan_p50_ms, plans_per_s@mixed_sharded; 0 elsewhere"),
    layer("net.shard.remote_overhead_us", "us", Lower, "plan_p50_ms, plans_per_s@mixed_sharded; 0 elsewhere"),
    layer("core.shard.scatter_p50_us", "us", Lower, "plan_p50_ms@mixed_sharded; 0 elsewhere"),
    layer("core.shard.gather_p50_us", "us", Lower, "plan_p50_ms@mixed_sharded; 0 elsewhere"),
    layer("core.stream.ingest_ns_per_row", "ns/row", Lower, "ingest_rows_per_s@live_rw"),
    layer("core.stream.refresh_ms", "ms", Lower, "plan_p99_ms@live_rw"),
    layer("core.stream.refreshes", "count", Lower, "live_rw; exact under the fixed schedule; 0 elsewhere"),
    layer("core.stream.ingest_ack_p50_ms", "ms", Lower, "ingest_rows_per_s@live_rw; 0 elsewhere"),
    layer("core.stream.refresh_ack_p50_ms", "ms", Lower, "plan_p99_ms@live_rw; 0 elsewhere"),
    layer("core.stream.ingest_late_frac", "ratio", Lower, "live_rw writer lateness; 0 elsewhere"),
    layer("core.stream.read_only_p50_ms", "ms", Lower, "plan_p50_ms@live_rw; 0 elsewhere"),
    layer("core.stream.rw_slowdown", "ratio", Lower, "plans_per_s@live_rw (p50 with writer / without); 0 elsewhere"),
    layer("obs.trace_overhead_frac", "ratio", Lower, "none: must stay small so the traced numbers can be trusted"),
    layer("paper.speedup_vs_plain", "ratio", Higher, "informational@scan_wide: plain p50 / private p50 on the same pool"),
    layer("trace.unaccounted_frac", "ratio", Lower, "none: (front-door wall - self times on the blocking path) / wall"),
];

/// Every metric the `--trace 1` result line carries
/// (`BENCHMARK.json` `per_layer`).
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    USER_ONLY.iter().chain(LAYER.iter())
}

/// Every metric of the catalogue.
pub fn all() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(per_layer())
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    all().find(|m| m.name == name)
}

/// The rows of the issue's layer table: each traced pass records spans
/// whose names start with these prefixes.
pub const LAYER_ROWS: &[&str] = &[
    "model.sql",
    "core.optimizer",
    "core.plan",
    "core.engine",
    "core.provider",
    "storage.meta",
    "storage.store",
    "storage.cluster",
    "sampling.em",
    "sampling.hh",
    "core.sensitivity",
    "dp.smooth",
    "dp.laplace",
    "core.aggregator",
    "dp.accountant",
    "net.wire",
    "net.server",
    "core.stream",
    "obs",
    "paper",
    "trace",
];

/// Layer rows that only the sharded workload exercises.
pub const SHARD_ROWS: &[&str] = &["core.shard", "net.shard"];
