//! Engine throughput experiment: queries/sec and tail latency of the
//! engine with many queries in flight vs. the same engine with one query
//! in flight (the "serial" rows), swept over #concurrent analysts ×
//! #providers.
//!
//! The federation's deployment model is cross-organization (hospitals,
//! banks — §1), so each query pays several WAN round trips. Both paths
//! here *actually wait out* their simulated network time
//! ([`fedaqp_smc::CostModel::wan`], slept on the analyst thread): one
//! query at a time stalls end-to-end on every query's transit, while
//! concurrent analysts overlap the transit of in-flight queries with other
//! queries' compute — the architectural property this benchmark exists to
//! track.
//! Sleeping (rather than post-hoc accounting) also makes the numbers
//! latency- rather than CPU-dominated, so the CI gate is stable across
//! runner speeds and core counts.
//!
//! This is the perf-trajectory benchmark CI gates on: besides the result
//! table/CSV it emits machine-readable `BENCH_engine.json` (schema
//! documented in the README) which the `bench_gate` binary checks
//! against the committed `BENCH_baseline.json` (rows in [`crate::gate`]).

use std::time::Instant;

use fedaqp_core::{
    EngineHandle, Federation, FederationConfig, FederationEngine, OptimizerConfig, ShardedSub,
};
use fedaqp_dp::QueryBudget;
use fedaqp_model::{Aggregate, QueryPlan, Range, RangeQuery, Row};
use fedaqp_obs::{self as obs, Histogram};
use fedaqp_smc::CostModel;

use crate::gate::ENGINE_SCHEMA;
use crate::report::{fmt_f, Table};
use crate::setup::{
    build_testbed, filtered_workload, generate_dataset, DatasetKind, ExperimentContext,
};

/// Concurrent-analyst counts swept per provider count.
const ANALYSTS: [usize; 4] = [1, 2, 4, 8];
/// Provider counts swept (the paper's evaluation federation is 4).
const PROVIDERS: [usize; 2] = [2, 4];
/// The grid point the JSON headline (and the CI gate) reads.
const HEADLINE: (usize, usize) = (4, 8);

/// One measured trial.
#[derive(Debug, Clone, Copy)]
struct Trial {
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Latencies live in an [`obs::Histogram`] — the same lock-free
/// implementation the engine's own phase timings use — so the repro
/// percentiles and the live telemetry come from one code path. Records
/// are seconds ([`Histogram::record_duration`]); the report is ms.
fn summarize(wall_s: f64, latencies: &Histogram) -> Trial {
    Trial {
        wall_ms: wall_s * 1e3,
        qps: latencies.count() as f64 / wall_s.max(1e-9),
        p50_ms: latencies.percentile(50.0) * 1e3,
        p95_ms: latencies.percentile(95.0) * 1e3,
    }
}

fn grid_entry(providers: usize, mode: &str, analysts: usize, t: &Trial) -> String {
    format!(
        "    {{\"providers\": {providers}, \"mode\": \"{mode}\", \"analysts\": {analysts}, \
         \"qps\": {:.3}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}}}",
        t.qps, t.p50_ms, t.p95_ms
    )
}

/// Analyst threads driving the mixed-plan workload through the engine.
const MIXED_ANALYSTS: usize = 8;

/// Result of the mixed scalar+group-by plan workload at 4 providers.
#[derive(Debug, Clone, Copy)]
struct MixedTrial {
    plans: usize,
    serial_qps: f64,
    engine_qps: f64,
}

/// The mixed workload: `scalars.len()` scalar plans interleaved with as
/// many GROUP-BY plans over the `group_dim` categorical dimension.
fn mixed_plans(
    scalars: &[RangeQuery],
    group_dim: usize,
    sampling_rate: f64,
    epsilon: f64,
    delta: f64,
) -> Vec<QueryPlan> {
    let mut plans = Vec::with_capacity(scalars.len() * 2);
    for (i, q) in scalars.iter().enumerate() {
        plans.push(QueryPlan::Scalar {
            query: q.clone(),
            sampling_rate,
            epsilon,
            delta,
        });
        // Group a disjoint age band so the filter never touches the
        // grouped dimension.
        let lo = 20 + 8 * (i as i64 % 5);
        let base = RangeQuery::new(
            Aggregate::Count,
            vec![Range::new(0, lo, lo + 30).expect("static range")],
        )
        .expect("static base");
        plans.push(QueryPlan::GroupBy {
            base,
            statistic: None,
            group_dim,
            threshold: 0.0,
            sampling_rate,
            epsilon,
            delta,
        });
    }
    plans
}

/// The mixed-plan comparison at the headline provider count: the serial
/// path executes every plan's sub-queries one at a time on the engine
/// (each stalling on its own slept-WAN transit — what a group-by costs
/// over a WAN without plan-level fan-out), while the engine path submits
/// whole plans whose sub-queries overlap their transits.
fn run_mixed(federation: &Federation, plans: &[QueryPlan]) -> MixedTrial {
    let hp = federation.config().hyperparams;

    // ---- Serial baseline: one sub-query in flight, sum of every stall. ----
    let t0 = Instant::now();
    federation.with_engine(|engine| {
        let one_at_a_time = |query: &RangeQuery, sampling_rate: f64, budget: &QueryBudget| {
            let ans = engine
                .submit_with_budget(query, sampling_rate, budget)
                .and_then(ShardedSub::wait)
                .expect("serial sub-query");
            std::thread::sleep(ans.timings.network);
        };
        for plan in plans {
            match plan {
                QueryPlan::Scalar {
                    query,
                    sampling_rate,
                    epsilon,
                    delta,
                } => {
                    let budget = QueryBudget::split(*epsilon, *delta, hp).expect("scalar budget");
                    one_at_a_time(query, *sampling_rate, &budget);
                }
                QueryPlan::GroupBy {
                    base,
                    group_dim,
                    sampling_rate,
                    epsilon,
                    delta,
                    ..
                } => {
                    let domain = engine
                        .schema()
                        .dimension(*group_dim)
                        .expect("group dimension")
                        .domain();
                    let k = domain.size() as f64;
                    let budget =
                        QueryBudget::split(epsilon / k, delta / k, hp).expect("group budget");
                    for key in domain.iter() {
                        let mut ranges = base.ranges().to_vec();
                        ranges.push(Range::new(*group_dim, key, key).expect("point range"));
                        let q = RangeQuery::new(base.aggregate(), ranges).expect("group query");
                        one_at_a_time(&q, *sampling_rate, &budget);
                    }
                }
                _ => unreachable!("mixed workload is scalar + group-by"),
            }
        }
    });
    let serial_wall = t0.elapsed().as_secs_f64();

    // ---- Engine path: whole plans, transits overlapped. ----
    let t0 = Instant::now();
    federation.with_engine(|engine| {
        std::thread::scope(|scope| {
            for analyst in 0..MIXED_ANALYSTS {
                let engine = engine.clone();
                scope.spawn(move || {
                    for plan in plans.iter().skip(analyst).step_by(MIXED_ANALYSTS) {
                        let answer = engine.run_plan(plan).expect("engine plan");
                        // A plan's concurrent sub-queries overlap their
                        // simulated transit: the analyst stalls on the
                        // max, not the sum.
                        std::thread::sleep(answer.timings.network);
                    }
                });
            }
        });
    });
    let engine_wall = t0.elapsed().as_secs_f64();

    MixedTrial {
        plans: plans.len(),
        serial_qps: plans.len() as f64 / serial_wall.max(1e-9),
        engine_qps: plans.len() as f64 / engine_wall.max(1e-9),
    }
}

/// Analyst threads driving the skewed pruning workload.
const PRUNE_ANALYSTS: usize = 8;
/// Rounds the band workload is replayed per mode (the zero cost model
/// makes single queries too fast to time reliably; hundreds of jobs give
/// a wall time long enough for a stable ratio).
const PRUNE_ROUNDS: usize = 50;
/// Interleaved timing repetitions per mode; each mode's qps is the best
/// of its trials. Scheduler interference is one-sided — it only ever
/// slows a run down — so max-over-trials estimates true speed where a
/// single pass (or a mean) lets one preempted trial skew the ratio.
const PRUNE_TRIALS: usize = 3;

/// Result of the pruned-vs-exhaustive comparison on the skewed layout.
#[derive(Debug, Clone, Copy)]
struct PrunedTrial {
    jobs: usize,
    /// Fraction of (sub-query × provider) slots the optimizer proved
    /// empty from public bounds — measured via `explain_plan`, the same
    /// verdicts the engine acts on.
    pruned_fraction: f64,
    exhaustive_qps: f64,
    pruned_qps: f64,
}

/// Sorts rows by `dim` and hands each provider a contiguous, disjoint
/// value band sized by Zipf weights (1/k): one big provider holding ~half
/// the data, then ever-smaller ones. This is the "one national registry,
/// three regional clinics" layout where the offline metadata's public
/// per-dimension bounds genuinely separate providers — the regime the
/// pruning pass exists for. Splits only advance at value boundaries so
/// bands never share a value (shared values would make bounds overlap and
/// defeat pruning at the band edges).
fn zipf_band_partitions(mut rows: Vec<Row>, dim: usize, n: usize) -> Vec<Vec<Row>> {
    rows.sort_by_key(|r| r.value(dim));
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let total_w: f64 = weights.iter().sum();
    let total = rows.len() as f64;
    let cuts: Vec<usize> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total_w;
            Some((*acc * total) as usize)
        })
        .collect();
    let mut parts: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
    let mut p = 0;
    for (i, row) in rows.into_iter().enumerate() {
        let boundary = parts[p]
            .last()
            .map(|prev: &Row| prev.value(dim) != row.value(dim))
            .unwrap_or(false);
        if p + 1 < n && i >= cuts[p] && boundary {
            p += 1;
        }
        parts[p].push(row);
    }
    parts
}

/// Narrow single-band COUNT queries: each targets a sub-range strictly
/// inside one provider's value band, so the other providers' bounds prove
/// an empty covering set. Cycles through the bands and slides the window
/// deterministically for variety.
fn band_queries(parts: &[Vec<Row>], dim: usize, m: usize) -> Vec<RangeQuery> {
    let bands: Vec<(i64, i64)> = parts
        .iter()
        .map(|rows| {
            let values = rows.iter().map(|r| r.value(dim));
            (
                values.clone().min().expect("non-empty band"),
                values.max().expect("non-empty band"),
            )
        })
        .collect();
    (0..m)
        .map(|i| {
            let (lo, hi) = bands[i % bands.len()];
            let span = hi - lo;
            // Narrow point-ish lookups: the covering set (work both modes
            // share) stays small, so the metadata walk on the provably
            // empty providers — the work pruning removes — dominates.
            let width = (span / 20).max(1).min(span);
            let max_off = span - width;
            let off = if max_off == 0 {
                0
            } else {
                (i / bands.len()) as i64 * 3 % (max_off + 1)
            };
            RangeQuery::new(
                Aggregate::Count,
                vec![Range::new(dim, lo + off, lo + off + width).expect("band range")],
            )
            .expect("band query")
        })
        .collect()
}

/// Builds a federation over the given fixed partitions with the optimizer
/// set as asked and everything else identical (same seed, zero cost
/// model so the numbers are compute- not transit-dominated: pruning saves
/// work, not simulated WAN time).
fn skewed_federation(
    ctx: &ExperimentContext,
    schema: &fedaqp_model::Schema,
    partitions: &[Vec<Row>],
    optimizer: OptimizerConfig,
) -> Federation {
    // Smallest supported cluster capacity: the per-provider metadata walk
    // (what pruning skips) then spans hundreds of clusters even at the
    // quick CI scale, keeping its share of the per-query cost realistic.
    let mut cfg = FederationConfig::paper_default(32);
    cfg.seed = ctx.seed;
    cfg.cost_model = CostModel::zero();
    cfg.optimizer = optimizer;
    Federation::build(cfg, schema.clone(), partitions.to_vec()).expect("skewed federation build")
}

/// Replays the band workload `PRUNE_ROUNDS` times through `engine` with
/// `PRUNE_ANALYSTS` concurrent analyst threads; returns queries/sec. The
/// engine is an owned [`FederationEngine`]'s — the per-provider pool
/// `fedaqp serve` runs — so the trials measure what pruning saves the
/// serving engine, queue round-trips included.
fn skewed_qps(engine: &EngineHandle, queries: &[RangeQuery], sampling_rate: f64) -> f64 {
    let budget = engine.default_budget().expect("default budget");
    let jobs = queries.len() * PRUNE_ROUNDS;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for analyst in 0..PRUNE_ANALYSTS {
            let budget = &budget;
            scope.spawn(move || {
                for _ in 0..PRUNE_ROUNDS {
                    for q in queries.iter().skip(analyst).step_by(PRUNE_ANALYSTS) {
                        engine
                            .submit_with_budget(q, sampling_rate, budget)
                            .and_then(ShardedSub::wait)
                            .expect("skewed run");
                    }
                }
            });
        }
    });
    jobs as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// The pruned-vs-exhaustive comparison: same data, same disjoint skewed
/// partitions, same seeds — the only difference is whether the optimizer
/// passes run. Released bytes are identical either way (asserted by the
/// `optimizer_equivalence` test suite); this measures the work saved.
fn run_pruned(ctx: &ExperimentContext, sampling_rate: f64) -> PrunedTrial {
    let dataset = generate_dataset(DatasetKind::Adult, ctx);
    let dim = 0; // age — the widest-domain dimension, natural skew key
    let partitions = zipf_band_partitions(dataset.cells, dim, 4);
    let queries = band_queries(&partitions, dim, ctx.queries.max(PRUNE_ANALYSTS));

    let exhaustive = FederationEngine::start(skewed_federation(
        ctx,
        &dataset.schema,
        &partitions,
        OptimizerConfig::disabled(),
    ));
    let pruned = FederationEngine::start(skewed_federation(
        ctx,
        &dataset.schema,
        &partitions,
        OptimizerConfig::enabled(),
    ));

    // How much the layout actually prunes, from the same explain verdicts
    // the engine acts on. Free: explanations never touch data or budget.
    let engine = pruned.handle();
    let epsilon = engine.config().epsilon;
    let delta = engine.config().delta;
    let mut pruned_slots = 0u64;
    let mut total_slots = 0u64;
    for q in &queries {
        let plan = QueryPlan::Scalar {
            query: q.clone(),
            sampling_rate,
            epsilon,
            delta,
        };
        let explanation = engine.explain_plan(&plan).expect("explain");
        for sub in &explanation.sub_queries {
            pruned_slots += sub.pruned_providers.len() as u64;
            total_slots += explanation.n_providers;
        }
    }

    // Alternate modes per trial so ambient load hits both sides alike,
    // and keep each mode's best trial (see `PRUNE_TRIALS`).
    let mut exhaustive_qps = 0.0f64;
    let mut pruned_qps = 0.0f64;
    for _ in 0..PRUNE_TRIALS {
        exhaustive_qps =
            exhaustive_qps.max(skewed_qps(&exhaustive.handle(), &queries, sampling_rate));
        pruned_qps = pruned_qps.max(skewed_qps(&engine, &queries, sampling_rate));
    }
    exhaustive.shutdown();
    pruned.shutdown();
    PrunedTrial {
        jobs: queries.len() * PRUNE_ROUNDS,
        pruned_fraction: pruned_slots as f64 / (total_slots as f64).max(1.0),
        exhaustive_qps,
        pruned_qps,
    }
}

/// Result of the telemetry-overhead comparison (reported, not gated: the
/// percentage sits inside the box's run-to-run noise).
#[derive(Debug, Clone, Copy)]
struct TelemetryTrial {
    on_qps: f64,
    off_qps: f64,
    /// `100 * (1 - on/off)`; negative when "on" happened to win (noise).
    overhead_pct: f64,
}

/// Measures what the obs instrumentation costs: the same compute-bound
/// skewed band workload as the pruning comparison (zero cost model — on
/// the slept-WAN grids any recording cost would vanish into simulated
/// transit time), run with telemetry globally enabled vs disabled.
/// Released bytes are identical either way (the obs crate's byte-identity
/// property test), so this isolates pure recording cost: atomic bumps in
/// the engine's queue/phase/optimizer counters on every query.
fn run_telemetry(ctx: &ExperimentContext, sampling_rate: f64) -> TelemetryTrial {
    let dataset = generate_dataset(DatasetKind::Adult, ctx);
    let dim = 0;
    let partitions = zipf_band_partitions(dataset.cells, dim, 4);
    let queries = band_queries(&partitions, dim, ctx.queries.max(PRUNE_ANALYSTS));
    let engine = FederationEngine::start(skewed_federation(
        ctx,
        &dataset.schema,
        &partitions,
        OptimizerConfig::enabled(),
    ));

    // Interleave modes per trial and keep each mode's best, exactly like
    // the pruning comparison (scheduler interference is one-sided).
    let mut on_qps = 0.0f64;
    let mut off_qps = 0.0f64;
    for _ in 0..PRUNE_TRIALS {
        obs::set_enabled(true);
        on_qps = on_qps.max(skewed_qps(&engine.handle(), &queries, sampling_rate));
        obs::set_enabled(false);
        off_qps = off_qps.max(skewed_qps(&engine.handle(), &queries, sampling_rate));
    }
    // Leave the process in the default (instrumented) state for whatever
    // runs after this experiment.
    obs::set_enabled(true);
    engine.shutdown();

    TelemetryTrial {
        on_qps,
        off_qps,
        overhead_pct: 100.0 * (1.0 - on_qps / off_qps.max(1e-9)),
    }
}

/// Runs the sweep and writes `BENCH_engine.json` next to the CSVs.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let mut table = Table::new(
        "engine throughput — queries/sec vs #analysts x #providers (Adult)",
        &[
            "providers",
            "mode",
            "analysts",
            "queries",
            "wall_ms",
            "qps",
            "p50_ms",
            "p95_ms",
            "speedup_vs_serial",
        ],
    );
    // Enough queries that every analyst thread gets work.
    let n_queries = ctx.queries.max(ANALYSTS[ANALYSTS.len() - 1]);
    let sampling_rate = DatasetKind::Adult.default_sampling_rate();
    let mut grid_json: Vec<String> = Vec::new();
    let mut headline: Option<(Trial, Trial)> = None;
    let mut mixed: Option<MixedTrial> = None;

    for &n_providers in &PROVIDERS {
        let testbed = build_testbed(DatasetKind::Adult, ctx, |cfg| {
            cfg.n_providers = n_providers;
            cfg.cost_model = CostModel::wan();
        });
        let queries =
            filtered_workload(&testbed, 2, Aggregate::Count, n_queries, ctx.seed ^ 0x7177);
        let budget = testbed
            .federation
            .config()
            .query_budget()
            .expect("default budget");

        // Serial baseline: the engine with one query in flight — each
        // query stalls on its whole simulated WAN transit before the next
        // one is submitted.
        let latencies = Histogram::new();
        let t0 = Instant::now();
        testbed.federation.with_engine(|engine| {
            for q in &queries {
                let t = Instant::now();
                let ans = engine
                    .submit_with_budget(q, sampling_rate, &budget)
                    .and_then(ShardedSub::wait)
                    .expect("serial run");
                std::thread::sleep(ans.timings.network);
                latencies.record_duration(t.elapsed());
            }
        });
        let serial = summarize(t0.elapsed().as_secs_f64(), &latencies);
        table.push_row(vec![
            n_providers.to_string(),
            "serial".into(),
            "1".into(),
            queries.len().to_string(),
            fmt_f(serial.wall_ms, 1),
            fmt_f(serial.qps, 1),
            fmt_f(serial.p50_ms, 3),
            fmt_f(serial.p95_ms, 3),
            "1.00".into(),
        ]);
        grid_json.push(grid_entry(n_providers, "serial", 1, &serial));

        // Engine trials: one persistent pool for the whole analyst sweep.
        testbed.federation.with_engine(|engine| {
            for &analysts in &ANALYSTS {
                // Analyst threads record straight into a shared histogram —
                // no Mutex, the histogram is atomics all the way down.
                let latencies = Histogram::new();
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for analyst in 0..analysts {
                        let engine = engine.clone();
                        let queries = &queries;
                        let latencies = &latencies;
                        scope.spawn(move || {
                            for q in queries.iter().skip(analyst).step_by(analysts) {
                                let t = Instant::now();
                                let ans = engine
                                    .submit_with_budget(q, sampling_rate, &budget)
                                    .and_then(fedaqp_core::ShardedSub::wait)
                                    .expect("engine run");
                                // Each analyst waits out its own query's
                                // transit; other analysts' queries keep the
                                // pool busy meanwhile — the engine hides
                                // WAN latency, the serial loop cannot.
                                std::thread::sleep(ans.timings.network);
                                latencies.record_duration(t.elapsed());
                            }
                        });
                    }
                });
                let trial = summarize(t0.elapsed().as_secs_f64(), &latencies);
                table.push_row(vec![
                    n_providers.to_string(),
                    "engine".into(),
                    analysts.to_string(),
                    queries.len().to_string(),
                    fmt_f(trial.wall_ms, 1),
                    fmt_f(trial.qps, 1),
                    fmt_f(trial.p50_ms, 3),
                    fmt_f(trial.p95_ms, 3),
                    fmt_f(trial.qps / serial.qps.max(1e-9), 2),
                ]);
                grid_json.push(grid_entry(n_providers, "engine", analysts, &trial));
                if (n_providers, analysts) == HEADLINE {
                    headline = Some((serial, trial));
                }
            }
        });

        // Mixed-plan workload at the headline provider count: scalar plans
        // interleaved with GROUP-BY plans (8 workclass groups each), the
        // serial sub-query-at-a-time path vs whole plans on the engine.
        if n_providers == HEADLINE.0 {
            let group_dim = testbed
                .federation
                .schema()
                .index_of("workclass")
                .expect("adult schema");
            let epsilon = testbed.federation.config().epsilon;
            let delta = testbed.federation.config().delta;
            let plans = mixed_plans(
                &queries[..queries.len().min(4)],
                group_dim,
                sampling_rate,
                epsilon,
                delta,
            );
            let trial = run_mixed(&testbed.federation, &plans);
            table.push_row(vec![
                n_providers.to_string(),
                "mixed-serial".into(),
                "1".into(),
                trial.plans.to_string(),
                String::new(),
                fmt_f(trial.serial_qps, 2),
                String::new(),
                String::new(),
                "1.00".into(),
            ]);
            table.push_row(vec![
                n_providers.to_string(),
                "mixed-engine".into(),
                MIXED_ANALYSTS.to_string(),
                trial.plans.to_string(),
                String::new(),
                fmt_f(trial.engine_qps, 2),
                String::new(),
                String::new(),
                fmt_f(trial.engine_qps / trial.serial_qps.max(1e-9), 2),
            ]);
            mixed = Some(trial);
        }
    }

    // Pruned-vs-exhaustive on the skewed layout: disjoint Zipf-sized
    // value bands per provider, narrow band-local queries, zero cost
    // model — measures the step-1 work the metadata pruning pass avoids.
    let pruned_trial = run_pruned(ctx, sampling_rate);
    table.push_row(vec![
        "4".into(),
        "skew-exhaustive".into(),
        PRUNE_ANALYSTS.to_string(),
        pruned_trial.jobs.to_string(),
        String::new(),
        fmt_f(pruned_trial.exhaustive_qps, 1),
        String::new(),
        String::new(),
        "1.00".into(),
    ]);
    table.push_row(vec![
        "4".into(),
        "skew-pruned".into(),
        PRUNE_ANALYSTS.to_string(),
        pruned_trial.jobs.to_string(),
        String::new(),
        fmt_f(pruned_trial.pruned_qps, 1),
        String::new(),
        String::new(),
        fmt_f(
            pruned_trial.pruned_qps / pruned_trial.exhaustive_qps.max(1e-9),
            2,
        ),
    ]);

    // Telemetry on vs off on the same compute-bound layout: how much the
    // obs instrumentation costs when nothing hides it.
    let telemetry_trial = run_telemetry(ctx, sampling_rate);
    table.push_row(vec![
        "4".into(),
        "telemetry-off".into(),
        PRUNE_ANALYSTS.to_string(),
        pruned_trial.jobs.to_string(),
        String::new(),
        fmt_f(telemetry_trial.off_qps, 1),
        String::new(),
        String::new(),
        "1.00".into(),
    ]);
    table.push_row(vec![
        "4".into(),
        "telemetry-on".into(),
        PRUNE_ANALYSTS.to_string(),
        pruned_trial.jobs.to_string(),
        String::new(),
        fmt_f(telemetry_trial.on_qps, 1),
        String::new(),
        String::new(),
        fmt_f(
            telemetry_trial.on_qps / telemetry_trial.off_qps.max(1e-9),
            2,
        ),
    ]);

    // Machine-readable summary for CI (`bench_gate` reads engine_qps,
    // speedup and the pruned_*/telemetry_* keys; the grid is for trend
    // dashboards). The mixed_* keys are informational.
    if let Some((serial, engine)) = headline {
        let mixed_json = mixed
            .map(|m| {
                format!(
                    "  \"mixed_plans\": {},\n  \"mixed_serial_qps\": {:.3},\n  \
                     \"mixed_engine_qps\": {:.3},\n  \"mixed_speedup\": {:.3},\n",
                    m.plans,
                    m.serial_qps,
                    m.engine_qps,
                    m.engine_qps / m.serial_qps.max(1e-9),
                )
            })
            .unwrap_or_default();
        let pruned_json = format!(
            "  \"pruned_jobs\": {},\n  \"pruned_fraction\": {:.4},\n  \
             \"pruned_exhaustive_qps\": {:.3},\n  \"pruned_qps\": {:.3},\n  \
             \"pruned_speedup\": {:.3},\n",
            pruned_trial.jobs,
            pruned_trial.pruned_fraction,
            pruned_trial.exhaustive_qps,
            pruned_trial.pruned_qps,
            pruned_trial.pruned_qps / pruned_trial.exhaustive_qps.max(1e-9),
        );
        let telemetry_json = format!(
            "  \"telemetry_on_qps\": {:.3},\n  \"telemetry_off_qps\": {:.3},\n  \
             \"telemetry_overhead_pct\": {:.3},\n",
            telemetry_trial.on_qps, telemetry_trial.off_qps, telemetry_trial.overhead_pct,
        );
        let json = format!(
            "{{\n  \"schema\": \"{ENGINE_SCHEMA}\",\n  \"dataset\": \"{}\",\n  \
             \"queries\": {},\n  \"headline_providers\": {},\n  \"headline_analysts\": {},\n  \
             \"serial_qps\": {:.3},\n  \"engine_qps\": {:.3},\n  \"speedup\": {:.3},\n  \
             \"engine_p50_ms\": {:.4},\n  \"engine_p95_ms\": {:.4},\n{}{}{}  \"grid\": [\n{}\n  ]\n}}\n",
            DatasetKind::Adult.name(),
            n_queries,
            HEADLINE.0,
            HEADLINE.1,
            serial.qps,
            engine.qps,
            engine.qps / serial.qps.max(1e-9),
            engine.p50_ms,
            engine.p95_ms,
            mixed_json,
            pruned_json,
            telemetry_json,
            grid_json.join(",\n"),
        );
        if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
            eprintln!("[throughput] cannot create {}: {e}", ctx.out_dir.display());
        }
        let path = ctx.out_dir.join("BENCH_engine.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("[throughput] wrote {}", path.display()),
            Err(e) => eprintln!("[throughput] json write failed: {e}"),
        }
    }
    vec![table]
}
