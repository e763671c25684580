//! Privacy-safe observability for the fedaqp stack: a lock-cheap metrics
//! registry plus span-based query-lifecycle tracing. Hand-rolled on the
//! standard library only — no `tracing`, no `prometheus`.
//!
//! Two halves:
//!
//! 1. **Metrics.** Atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!    latency [`Histogram`]s, keyed by name in a global [`Registry`].
//!    Increments on registered cells are lock-free; the registry lock is
//!    taken only on first registration of a name (and by the free helpers,
//!    as a short read lock). Exposition is a stable text format
//!    ([`Registry::render_text`]) and a flat `(name, value)` snapshot
//!    ([`Registry::snapshot`]) for the wire.
//!
//! 2. **Spans.** A span is one `phase × component` interval with an
//!    optional parent, recorded into a bounded per-process ring buffer on
//!    drop ([`span`], [`SpanRecord`]). [`spans_json`] renders the buffer
//!    as a JSON array for trace dumps.
//!
//! **The privacy boundary.** Everything that enters the registry or the
//! span buffer passes through [`ObsValue`], whose constructors name the
//! only admissible provenances under the DP threat model: wall-clock
//! durations, object counts, public (offline Algorithm 1) metadata, and
//! values that have *already been DP-released*. Raw estimates, smooth
//! sensitivities, and per-provider noise draws have no constructor — code
//! that wants to record them does not compile without laundering them
//! through a misnamed constructor, which review (and the adversarial
//! frame-hygiene scan in `crates/net/tests/adversarial.rs`) will catch.
//! The raw `f64` inside an [`ObsValue`] is only extractable inside this
//! crate. Telemetry never feeds back into query execution: recording is
//! fire-and-forget, so released bytes are bit-identical whether telemetry
//! is enabled or disabled (pinned by a property test in `fedaqp-core`).
//!
//! The global [`enabled`] switch gates every free helper with one relaxed
//! atomic load, so the fully-disabled overhead on the hot path is a
//! branch. The bench harness reports the *enabled* overhead
//! (`telemetry_overhead_pct` in `BENCH_engine.json`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Canonical names of every *static* metric the stack records, for the
/// docs-sync gate: `docs/observability.md` must document each of these
/// (checked by `crates/bench/tests/docs_sync.rs`). Dynamically labeled
/// families (per-shard, per-kind, per-analyst) are documented by the
/// prefixes in [`METRIC_PREFIXES`].
pub mod names {
    /// Private queries submitted to an engine's worker pool.
    pub const ENGINE_QUERIES: &str = "fedaqp_engine_queries_total";
    /// Plain (exact baseline) jobs submitted to the pool.
    pub const ENGINE_PLAIN: &str = "fedaqp_engine_plain_total";
    /// Private MIN/MAX (Exponential-mechanism) jobs submitted.
    pub const ENGINE_EXTREMES: &str = "fedaqp_engine_extremes_total";
    /// Gauge: provider-jobs fanned out but not yet picked up by a worker.
    pub const ENGINE_QUEUE_DEPTH: &str = "fedaqp_engine_queue_depth";
    /// Gauge: provider workers currently executing a job.
    pub const ENGINE_WORKERS_BUSY: &str = "fedaqp_engine_workers_busy";
    /// Pruned providers answered inline (no queue round-trip).
    pub const ENGINE_PRUNED_INLINE: &str = "fedaqp_engine_pruned_inline_answers_total";
    /// Histogram: step-2 summary phase (slowest provider) per query.
    pub const PHASE_SUMMARY: &str = "fedaqp_engine_phase_summary_seconds";
    /// Histogram: step-3 allocation solve per query.
    pub const PHASE_ALLOCATION: &str = "fedaqp_engine_phase_allocation_seconds";
    /// Histogram: steps-4–6 execution phase (slowest provider) per query.
    pub const PHASE_EXECUTION: &str = "fedaqp_engine_phase_execution_seconds";
    /// Histogram: step-6/7 release fold per query.
    pub const PHASE_RELEASE: &str = "fedaqp_engine_phase_release_seconds";
    /// Histogram: simulated network rounds per query.
    pub const PHASE_NETWORK: &str = "fedaqp_engine_phase_network_seconds";
    /// Plans run through the optimizer passes.
    pub const OPTIMIZER_PLANS: &str = "fedaqp_optimizer_plans_total";
    /// `(provider × sub-query)` slots proven empty from public bounds.
    pub const OPTIMIZER_PRUNED: &str = "fedaqp_optimizer_pruned_slots_total";
    /// Sub-queries answered by release reuse instead of execution.
    pub const OPTIMIZER_REUSED: &str = "fedaqp_optimizer_reused_subqueries_total";
    /// Plans whose sub-query submission order was cost-reordered.
    pub const OPTIMIZER_REORDERED: &str = "fedaqp_optimizer_reordered_plans_total";
    /// Sharded sub-queries coordinated.
    pub const SHARD_QUERIES: &str = "fedaqp_shard_queries_total";
    /// Histogram: scatter latency per batch (the sub-queries one plan
    /// scatters together).
    pub const SHARD_SCATTER: &str = "fedaqp_shard_scatter_seconds";
    /// Histogram: gather fan-in latency per sharded sub-query.
    pub const SHARD_GATHER: &str = "fedaqp_shard_gather_seconds";
    /// Fragment batches retried after a shard error.
    pub const SHARD_RETRIES: &str = "fedaqp_shard_fragment_retries_total";
    /// Scatter attempts that found a shard unavailable.
    pub const SHARD_UNAVAILABLE: &str = "fedaqp_shard_unavailable_total";
    /// Connections accepted by a federation server.
    pub const SERVER_CONNECTIONS: &str = "fedaqp_server_connections_total";
    /// Frames received by a federation server (all kinds).
    pub const SERVER_FRAMES: &str = "fedaqp_server_frames_total";
    /// Queries answered (query, plan, and extreme frames) by a server.
    pub const SERVER_QUERIES: &str = "fedaqp_server_queries_total";
    /// Error frames sent by a server.
    pub const SERVER_ERRORS: &str = "fedaqp_server_errors_total";
    /// Gauge family base: cumulative ξ spend per analyst identity
    /// (`fedaqp_server_xi_spent.{identity}`). A family base, not a
    /// static name — see [`crate::METRIC_PREFIXES`].
    pub const SERVER_XI_SPENT: &str = "fedaqp_server_xi_spent";
    /// Rows appended to live federations by streaming ingest.
    pub const STREAM_INGESTED_ROWS: &str = "fedaqp_stream_ingested_rows_total";
    /// Full metadata recomputes triggered by the staleness policy.
    pub const STREAM_REFRESHES: &str = "fedaqp_stream_refreshes_total";
}

/// Every static metric name, in exposition order (see [`names`]).
pub const METRIC_NAMES: &[&str] = &[
    names::ENGINE_QUERIES,
    names::ENGINE_PLAIN,
    names::ENGINE_EXTREMES,
    names::ENGINE_QUEUE_DEPTH,
    names::ENGINE_WORKERS_BUSY,
    names::ENGINE_PRUNED_INLINE,
    names::PHASE_SUMMARY,
    names::PHASE_ALLOCATION,
    names::PHASE_EXECUTION,
    names::PHASE_RELEASE,
    names::PHASE_NETWORK,
    names::OPTIMIZER_PLANS,
    names::OPTIMIZER_PRUNED,
    names::OPTIMIZER_REUSED,
    names::OPTIMIZER_REORDERED,
    names::SHARD_QUERIES,
    names::SHARD_SCATTER,
    names::SHARD_GATHER,
    names::SHARD_RETRIES,
    names::SHARD_UNAVAILABLE,
    names::SERVER_CONNECTIONS,
    names::SERVER_FRAMES,
    names::SERVER_QUERIES,
    names::SERVER_ERRORS,
    names::STREAM_INGESTED_ROWS,
    names::STREAM_REFRESHES,
];

/// Prefixes of dynamically labeled metric families: a dynamic name is
/// `<prefix><label>` (e.g. `fedaqp_server_frames_total.plan`,
/// `fedaqp_shard_scatter_seconds.shard0`,
/// `fedaqp_server_xi_spent.alice`). Documented as families in
/// `docs/observability.md`.
pub const METRIC_PREFIXES: &[&str] = &[
    "fedaqp_server_frames_total.",
    "fedaqp_server_xi_spent.",
    "fedaqp_shard_scatter_seconds.shard",
    "fedaqp_shard_gather_seconds.shard",
];

// ---------------------------------------------------------------------------
// The privacy boundary
// ---------------------------------------------------------------------------

/// A value admissible as telemetry under the DP threat model.
///
/// The constructors enumerate the only provenances telemetry may condition
/// on; there is deliberately *no* constructor for raw (pre-noise)
/// estimates, smooth sensitivities, or per-provider draws, and the wrapped
/// `f64` is only extractable inside this crate. See the module docs for
/// the argument and the enforcement tests.
#[derive(Debug, Clone, Copy)]
pub struct ObsValue(f64);

impl ObsValue {
    /// Wall-clock or simulated duration, in seconds.
    pub fn from_duration(d: Duration) -> Self {
        Self(d.as_secs_f64())
    }

    /// A count of objects (queries, frames, clusters, bytes, retries).
    pub fn from_count(n: u64) -> Self {
        Self(n as f64)
    }

    /// Public metadata: configuration, schema facts, offline Algorithm 1
    /// releases the protocol already accounts for.
    pub fn from_public(v: f64) -> Self {
        Self(v)
    }

    /// A value that has already been DP-released to the analyst (budget
    /// spend ξ, released answers) — post-processing is free (Thm. 3.3).
    pub fn from_released(v: f64) -> Self {
        Self(v)
    }

    /// The wrapped value. Crate-private: consumers put values *in*; only
    /// the exposition paths read them back out.
    pub(crate) fn raw(self) -> f64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the free recording helpers on or off, process-wide. Cells
/// obtained directly from a [`Registry`] keep working either way (a local
/// histogram a benchmark owns is measurement, not telemetry).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------------

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` (lock-free).
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic gauge holding one `f64` (stored as bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge (lock-free).
    pub fn set(&self, v: ObsValue) {
        self.bits.store(v.raw().to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (CAS loop; `delta` may be negative).
    fn add_raw(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Increments the gauge by one (occupancy-style gauges).
    pub fn inc(&self) {
        self.add_raw(1.0);
    }

    /// Decrements the gauge by one.
    fn dec(&self) {
        self.add_raw(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of fixed histogram buckets: log-spaced bounds from 1 µs to
/// ~104 s, 4 buckets per octave, plus an overflow bucket.
const N_BUCKETS: usize = 108;

/// Ratio between consecutive bucket upper bounds: `2^(1/4)`.
const BUCKET_GROWTH: f64 = 1.189_207_115_002_721;

/// Lowest bucket upper bound, in seconds.
const BUCKET_FLOOR: f64 = 1e-6;

/// Upper bound of bucket `i` (the last bucket absorbs everything above).
fn bucket_bound(i: usize) -> f64 {
    BUCKET_FLOOR * BUCKET_GROWTH.powi(i as i32)
}

/// Index of the bucket that `v` (seconds) falls into.
fn bucket_index(v: f64) -> usize {
    // NaN lands in bucket 0 too: `partial_cmp` returns `None` for it.
    if v.partial_cmp(&BUCKET_FLOOR) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let i = ((v / BUCKET_FLOOR).log2() * 4.0).ceil() as usize;
    i.min(N_BUCKETS - 1)
}

/// A fixed-bucket latency histogram: log-spaced bounds (1 µs … ~104 s,
/// ~19% resolution), atomic bucket counts, exact count/sum/min/max.
/// Recording is lock-free; percentiles interpolate within the bucket, so
/// they carry the bucket resolution (≤ ~9% mid-bucket error) — plenty for
/// latency reporting, and one implementation shared by the runtime and
/// the bench harness.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ of recorded values, in nanosecond-scale fixed point (`v * 1e9`),
    /// so the sum accumulates with one `fetch_add`.
    sum_nanos: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. Public so a benchmark can own a local one
    /// without going through the global registry.
    pub fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation (seconds, for latency histograms).
    pub fn record(&self, v: ObsValue) {
        let v = v.raw();
        if !v.is_finite() || v < 0.0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((v * 1e9).round() as u64, Ordering::Relaxed);
        update_extreme(&self.min_bits, v, |new, cur| new < cur);
        update_extreme(&self.max_bits, v, |new, cur| new > cur);
    }

    /// Records one duration.
    pub fn record_duration(&self, d: Duration) {
        self.record(ObsValue::from_duration(d));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.min_bits.load(Ordering::Relaxed)))
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed)))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), linearly interpolated inside
    /// the owning bucket and clamped to the observed `[min, max]`. Returns
    /// 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0.0;
        }
        let (min, max) = (
            f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        );
        // The (1-based) rank of the target observation, matching the
        // `rank = p/100 · (n-1)` convention of sorted-array percentiles.
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (n as f64 - 1.0) + 1.0;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if (seen + in_bucket) as f64 >= rank {
                let lo = if i == 0 { 0.0 } else { bucket_bound(i - 1) };
                let hi = bucket_bound(i);
                let frac = (rank - seen as f64) / in_bucket as f64;
                return (lo + frac * (hi - lo)).clamp(min, max);
            }
            seen += in_bucket;
        }
        max
    }
}

/// CAS-updates `slot` to `new`'s bits while `better(new, current)`.
fn update_extreme(slot: &AtomicU64, new: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = slot.load(Ordering::Relaxed);
    while better(new, f64::from_bits(cur)) {
        match slot.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One flat exposition sample: a metric name and its public value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (histograms expand to `_count`/`_sum`/`_p50`/`_p95`/
    /// `_max` suffixed samples).
    pub name: String,
    /// The value. Everything here passed the [`ObsValue`] boundary.
    pub value: f64,
}

/// A named collection of metric cells. Cell lookup takes a short read
/// lock; recording on a held cell is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Get-or-insert `name` in one of the registry's maps.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(cell) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
        return Arc::clone(cell);
    }
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh, empty registry (tests and scoped measurements; production
    /// code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Flat `(name, value)` samples of every registered cell, sorted by
    /// name — the payload of the wire `MetricsAnswer` frame.
    pub fn snapshot(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (name, c) in self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            out.push(Sample {
                name: name.clone(),
                value: c.get() as f64,
            });
        }
        for (name, g) in self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            out.push(Sample {
                name: name.clone(),
                value: g.get(),
            });
        }
        for (name, h) in self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            out.push(Sample {
                name: format!("{name}_count"),
                value: h.count() as f64,
            });
            out.push(Sample {
                name: format!("{name}_sum"),
                value: h.sum(),
            });
            out.push(Sample {
                name: format!("{name}_p50"),
                value: h.percentile(50.0),
            });
            out.push(Sample {
                name: format!("{name}_p95"),
                value: h.percentile(95.0),
            });
            out.push(Sample {
                name: format!("{name}_max"),
                value: h.max().unwrap_or(0.0),
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Stable text exposition (`fedaqp stats`): one `name value` line per
    /// sample, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push_str(&format!("{} {}\n", s.name, fmt_value(s.value)));
        }
        out
    }

    /// Drops every registered cell (bench isolation between passes).
    pub fn reset(&self) {
        self.counters
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.gauges
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.histograms
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// Renders a sample value: integers without a fraction, everything else
/// with six significant decimals. Public so remote expositions (`fedaqp
/// stats --connect`) format wire samples identically to [`Registry::render_text`].
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// The process-wide registry every instrumented component records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// Free helpers: one enabled-check, then record into the global registry.

/// Adds `delta` to the global counter `name` (no-op when disabled).
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        global().counter(name).add(delta);
    }
}

/// Sets the global gauge `name` (no-op when disabled).
pub fn gauge_set(name: &str, v: ObsValue) {
    if enabled() {
        global().gauge(name).set(v);
    }
}

/// Increments the global gauge `name` (no-op when disabled).
pub fn gauge_inc(name: &str) {
    if enabled() {
        global().gauge(name).inc();
    }
}

/// Decrements the global gauge `name` (no-op when disabled).
pub fn gauge_dec(name: &str) {
    if enabled() {
        global().gauge(name).dec();
    }
}

/// Records `v` into the global histogram `name` (no-op when disabled).
fn observe(name: &str, v: ObsValue) {
    if enabled() {
        global().histogram(name).record(v);
    }
}

/// Records a duration into the global histogram `name` (no-op when
/// disabled).
pub fn observe_duration(name: &str, d: Duration) {
    observe(name, ObsValue::from_duration(d));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Identifier of a recorded span (0 is "no span" / disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The sentinel "no parent" id.
    pub const NONE: SpanId = SpanId(0);
}

/// One completed span: a `phase × component` interval with its parent.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id (unique per process run, starting at 1).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Phase name (e.g. `"plan"`, `"scatter"`, `"frame"`).
    pub name: &'static str,
    /// Component that ran the phase (e.g. `"engine"`, `"shard"`,
    /// `"server"`).
    pub component: &'static str,
    /// Start offset from process telemetry epoch, in microseconds.
    pub start_us: u64,
    /// Duration, in microseconds.
    pub dur_us: u64,
}

/// Capacity of the per-process span ring buffer; older spans are evicted.
pub const SPAN_RING_CAPACITY: usize = 4096;

static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);

fn span_ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(SPAN_RING_CAPACITY)))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Starts a span; the interval is recorded into the ring buffer when the
/// returned guard drops. When telemetry is disabled the guard is inert
/// and its id is [`SpanId::NONE`].
pub fn span(name: &'static str, component: &'static str, parent: SpanId) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: SpanId::NONE,
            parent: SpanId::NONE,
            name,
            component,
            started: None,
        };
    }
    SpanGuard {
        id: SpanId(SPAN_SEQ.fetch_add(1, Ordering::Relaxed)),
        parent,
        name,
        component,
        started: Some((epoch(), Instant::now())),
    }
}

/// An in-flight span; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    component: &'static str,
    started: Option<(Instant, Instant)>,
}

impl SpanGuard {
    /// This span's id, for parenting children.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((epoch, started)) = self.started else {
            return;
        };
        let record = SpanRecord {
            id: self.id.0,
            parent: self.parent.0,
            name: self.name,
            component: self.component,
            start_us: started.duration_since(epoch).as_micros() as u64,
            dur_us: started.elapsed().as_micros() as u64,
        };
        let mut ring = span_ring().lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == SPAN_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

/// The ring buffer's current contents, oldest first.
pub fn spans() -> Vec<SpanRecord> {
    span_ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .cloned()
        .collect()
}

/// Empties the span ring buffer.
#[cfg(test)]
fn clear_spans() {
    span_ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Renders the span ring buffer as a JSON array (hand-rolled; names and
/// components are static identifiers, so no string escaping is needed).
pub fn spans_json() -> String {
    let mut out = String::from("[\n");
    let all = spans();
    for (i, s) in all.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\":{},\"parent\":{},\"name\":\"{}\",\"component\":\"{}\",\"start_us\":{},\"dur_us\":{}}}{}\n",
            s.id,
            s.parent,
            s.name,
            s.component,
            s.start_us,
            s.dur_us,
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.counter("c").add(3);
        assert_eq!(reg.counter("c").get(), 5);
        reg.gauge("g").set(ObsValue::from_public(1.5));
        assert_eq!(reg.gauge("g").get(), 1.5);
        reg.gauge("g").inc();
        reg.gauge("g").dec();
        reg.gauge("g").inc();
        assert_eq!(reg.gauge("g").get(), 2.5);
    }

    #[test]
    fn histogram_percentiles_track_sorted_data() {
        let h = Histogram::new();
        // 1ms .. 100ms uniformly.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        for &x in &xs {
            h.record(ObsValue::from_public(x));
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - xs.iter().sum::<f64>()).abs() < 1e-6);
        assert_eq!(h.min(), Some(1e-3));
        assert_eq!(h.max(), Some(0.1));
        // Bucket resolution is ~19%, so percentiles land within ~20%.
        let p50 = h.percentile(50.0);
        assert!((0.04..=0.062).contains(&p50), "p50 {p50}");
        let p95 = h.percentile(95.0);
        assert!((0.078..=0.1).contains(&p95), "p95 {p95}");
        let p0 = h.percentile(0.0);
        assert!((1e-3..=1.25e-3).contains(&p0), "p0 {p0}");
        assert_eq!(h.percentile(100.0), 0.1);
    }

    #[test]
    fn histogram_single_sample_is_exactish() {
        let h = Histogram::new();
        h.record_duration(Duration::from_millis(7));
        // Clamped to observed min == max: exact.
        assert_eq!(h.percentile(50.0), 0.007);
        assert_eq!(h.percentile(95.0), 0.007);
        assert_eq!(h.mean(), 0.007);
    }

    #[test]
    fn histogram_ignores_junk() {
        let h = Histogram::new();
        h.record(ObsValue::from_public(f64::NAN));
        h.record(ObsValue::from_public(-1.0));
        h.record(ObsValue::from_public(f64::INFINITY));
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0.0);
        // Overflow values land in the last bucket rather than panicking.
        h.record(ObsValue::from_public(1e9));
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(50.0), 1e9);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0;
        for i in 0..60 {
            let v = 1e-6 * 1.5f64.powi(i);
            let b = bucket_index(v);
            assert!(b >= last);
            assert!(b < N_BUCKETS);
            last = b;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn snapshot_and_text_exposition_are_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("b_counter").add(2);
        reg.gauge("a_gauge").set(ObsValue::from_public(0.25));
        reg.histogram("c_hist")
            .record_duration(Duration::from_millis(3));
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "a_gauge",
                "b_counter",
                "c_hist_count",
                "c_hist_max",
                "c_hist_p50",
                "c_hist_p95",
                "c_hist_sum",
            ]
        );
        let text = reg.render_text();
        assert!(text.contains("b_counter 2\n"));
        assert!(text.contains("a_gauge 0.250000\n"));
        assert!(text.contains("c_hist_count 1\n"));
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn disabled_helpers_record_nothing() {
        set_enabled(false);
        counter_add("obs_test_disabled_counter", 1);
        observe_duration("obs_test_disabled_hist", Duration::from_millis(1));
        let guard = span("test", "obs", SpanId::NONE);
        assert_eq!(guard.id(), SpanId::NONE);
        drop(guard);
        set_enabled(true);
        let snap = global().snapshot();
        assert!(snap
            .iter()
            .all(|s| !s.name.starts_with("obs_test_disabled")));
    }

    #[test]
    fn spans_record_parentage_and_render_json() {
        set_enabled(true);
        clear_spans();
        {
            let parent = span("plan", "engine", SpanId::NONE);
            let child = span("cell", "engine", parent.id());
            drop(child);
        }
        let all = spans();
        assert!(all.len() >= 2);
        let child = all
            .iter()
            .find(|s| s.name == "cell")
            .expect("child recorded");
        let parent = all
            .iter()
            .find(|s| s.name == "plan")
            .expect("parent recorded");
        assert_eq!(child.parent, parent.id);
        // Children drop first, so the child precedes its parent in the
        // ring; both carry the epoch-relative clock.
        assert!(parent.start_us <= child.start_us);
        let json = spans_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"name\":\"cell\""));
        assert!(json.contains("\"component\":\"engine\""));
        clear_spans();
        assert!(spans().is_empty());
    }

    #[test]
    fn metric_name_catalog_is_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in METRIC_NAMES {
            assert!(name.starts_with("fedaqp_"), "{name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
        for prefix in METRIC_PREFIXES {
            assert!(prefix.starts_with("fedaqp_"), "{prefix}");
        }
    }
}
