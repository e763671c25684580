//! One workload run: the timed run (`--trace 0`, end-to-end metrics) and
//! the traced run (`--trace 1`, per-layer metrics and the reconciliation
//! against the front-door wall time).

use std::time::{Duration, Instant};

use crate::catalog::{self, WorkloadDef};
use crate::drive::{ingest_burst, run_timed, Schedule, Timed, WriterSummary, MIN_P99_SAMPLES};
use crate::inputs::{
    self, Inputs, PlanSpec, BURST_ROWS, DELTA, EPSILON, INGEST_BATCH_ROWS, INGEST_PERIOD_MS,
    ONLINE_ROUNDS, SAMPLING_RATE,
};
use crate::probes::{replay_providers, PlanPath, Totals};
use crate::report::Report;
use crate::stats::{dur_ns, median, nproc, ns_to_ms, ns_to_us, peak_rss_mb};
use crate::surface::{
    encode_frame, obs, read_frame, ClusterStore, DerivedStatistic, EngineHandle, Extreme,
    Federation, FederationEngine, Frame, LiveFederation, LoopbackServer, OnlineDoneFrame,
    OnlinePlanRequest, OnlineSnapshotFrame, PlanAnswer, PlanAnswerFrame, PlanExplanation,
    PlanRequest, PlanResult, PrivacyCost, ProviderMeta, QueryPlan, Range, RangeQuery,
    RefreshPolicy, ShardedFederation, SharedAccountant, WireGroup, WirePlanResult,
};
use crate::trace::{Recorder, NO_PLAN, ROOT};
use crate::verify::{rel_err, verification_pass};
use crate::world::{
    loopback_shards, serve_options, Client, World, SESSION_PLANS, SESSION_PSI, SESSION_XI,
};

/// Set-ups per run; `setup_s` is their median. Four come before the
/// timed window and three after it, so that one noisy spell of the
/// machine cannot cover most of them.
const SETUP_REPS: usize = 7;
const SETUPS_BEFORE: usize = 4;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: std::path::PathBuf,
}

fn readers_of(workload: &WorkloadDef) -> (usize, bool) {
    // `live_rw` spends one of its two load generators on the writer.
    if workload.name == catalog::LIVE_RW {
        (1, true)
    } else {
        (workload.clients, false)
    }
}

/// Rows the `live_rw` writer needs for `span` of pacing.
fn writer_rows(span: Duration) -> usize {
    (span.as_millis() as usize / INGEST_PERIOD_MS as usize + 2) * INGEST_BATCH_ROWS
}

/// Builds one world and pushes its first plan through the front door:
/// `Federation::build` (clustering + Algorithm 1 metadata), engine start,
/// server bind, connect/handshake and the first answered plan.
fn set_up(inputs: &Inputs, identity: &str) -> Result<(World, Duration), String> {
    // The clone is the harness's; the clock starts after it.
    let partitions = inputs.partitions.clone();
    let begin = Instant::now();
    let world = World::build(inputs, partitions)?;
    let mut client = world.client(identity)?;
    client.run(&inputs.schema, &inputs.plans[0])?;
    Ok((world, begin.elapsed()))
}

/// The timed run: set-ups (with the verification pass on the first two),
/// warm-up and slices through the front door, then the remaining set-ups.
pub fn timed_run(args: &RunArgs) -> Report {
    let mut report = Report::new(args.workload.name);
    if let Err(e) = timed_inner(args, &mut report) {
        report.problem(e);
    }
    report
}

fn timed_inner(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let schedule = Schedule::for_seconds(args.seconds);
    let inputs = inputs::generate(args.workload, args.seed, writer_rows(schedule.total()))?;

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut passes = Vec::new();
    let mut world = None;
    for rep in 0..SETUPS_BEFORE {
        let (built, took) = set_up(&inputs, &format!("setup-{rep}"))?;
        setups.push(took.as_secs_f64());
        if rep < 2 {
            let identity = format!("verify-{rep}");
            let mut client = built.client(&identity)?;
            passes.push(verification_pass(&identity, &mut client, &inputs)?);
        }
        match rep + 1 < SETUPS_BEFORE {
            true => built.shutdown(),
            false => world = Some(built),
        }
    }
    let world = world.expect("the last set-up before the window is kept");
    // Two freshly built systems under one seed release identical bits
    // (noise is derived from plan content, not from arrival order).
    if passes[0].released != passes[1].released {
        report
            .problem("a second freshly built system released different values under the same seed");
    }
    record_rel_err(report, args.workload, &passes[0].rel_errs);

    let (readers, writer) = readers_of(args.workload);
    let timed = run_timed(&world, &inputs, "bench", readers, writer, schedule)?;
    record_timed(report, &timed, args.seconds);
    if let Some(w) = &timed.writer {
        record_writer(report, w, args.seconds >= 5.0 && timed.calm());
    }
    world.shutdown();

    for rep in SETUPS_BEFORE..SETUP_REPS {
        let (built, took) = set_up(&inputs, &format!("setup-{rep}"))?;
        setups.push(took.as_secs_f64());
        built.shutdown();
    }
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// Accuracy is part of correctness: a speed-up cannot be bought with it.
fn record_rel_err(report: &mut Report, workload: &WorkloadDef, rel_errs: &[f64]) {
    let rel_err_p50 = median(rel_errs);
    report.set("rel_err_p50", rel_err_p50);
    if rel_err_p50 > workload.rel_err_ceiling {
        report.problem(format!(
            "{}: rel_err_p50 {rel_err_p50:.3} is above its ceiling {}",
            workload.name, workload.rel_err_ceiling
        ));
    }
}

fn record_timed(report: &mut Report, timed: &Timed, seconds: f64) {
    report.attempted += timed.attempted;
    report.failed += timed.failed;
    for e in &timed.errors {
        report.problem(e.clone());
    }
    for (k, s) in timed.slices.iter().enumerate() {
        eprintln!(
            "[{}] slice {k}: {} plans, {:.1} plans/s, p50 {:.4} ms, p99 {:.4} ms, cpu {:.1} us/plan, stolen {:.3}",
            report.workload,
            s.latencies.len(),
            s.plans_per_s(),
            s.percentile_ms(50.0),
            s.percentile_ms(99.0),
            s.cpu_us_per_plan(),
            s.stolen_frac
        );
    }
    eprintln!(
        "[{}] {} of {} slices are quiet; the hypervisor stole {:.1}% of the timed window",
        report.workload,
        timed.quiet.len(),
        timed.slices.len(),
        timed.stolen_frac() * 100.0
    );
    report.set_estimate("plans_per_s", timed.plans_per_s());
    report.set_estimate("plan_p50_ms", timed.p50_ms());
    report.set_estimate("plan_p99_ms", timed.p99_ms());
    report.set_estimate("cpu_us_per_plan", timed.cpu_us_per_plan());
    report.set("failed_frac", timed.failed_frac());
    if let Some(first) = timed.first_snapshot_ms() {
        report.set_estimate("first_snapshot_ms", first);
    }
    if timed.undersampled() {
        report.note("plan_p99_ms", "undersampled");
        // A smoke-length run cannot fill its slices; a real one on a calm
        // machine must.
        if seconds >= 5.0 && timed.calm() {
            report.problem(format!(
                "the quiet slices hold {} samples, fewer than the {MIN_P99_SAMPLES} a p99 needs",
                timed.samples()
            ));
        }
    }
}

/// `guard` is off for smoke-length runs and for windows the machine's
/// neighbours disturbed: lateness then says nothing about the workload.
fn record_writer(report: &mut Report, w: &WriterSummary, guard: bool) {
    report.set("core.stream.refreshes", w.refreshes as f64);
    report.set("core.stream.ingest_ack_p50_ms", w.ingest_ack_p50_ms);
    report.set("core.stream.refresh_ack_p50_ms", w.refresh_ack_p50_ms);
    report.set("core.stream.ingest_late_frac", w.late_frac);
    // Vacuity: the writer must trigger refreshes and keep its schedule,
    // or the workload stopped being reads beside writes.
    let due_rows = w.batches * INGEST_BATCH_ROWS;
    if w.refreshes == 0 && due_rows >= 2 * RefreshPolicy::default().max_stale_rows {
        report.problem("live_rw: the writer triggered no metadata refresh");
    }
    if w.late_frac > 0.05 && guard {
        report.problem(format!(
            "live_rw: {:.1}% of the writer's batches started late (limit 5%)",
            w.late_frac * 100.0
        ));
    }
}

/// The traced run: layer probes on a probe federation, engine and
/// loopback passes over the same plans, then the front door with spans
/// on, and the reconciliation of the two.
pub fn traced_run(args: &RunArgs) -> Report {
    let mut report = Report::new(args.workload.name);
    let mut rec = Recorder::new();
    if let Err(e) = traced_inner(args, &mut report, &mut rec) {
        report.problem(e);
    }
    let path = args
        .out_dir
        .join(format!("trace-{}.jsonl", args.workload.name));
    if let Err(e) = rec.write_jsonl(&path) {
        report.problem(format!("cannot write {}: {e}", path.display()));
    }
    report
}

/// `p50` of a span name, in nanoseconds.
fn p50(rec: &Recorder, name: &str) -> f64 {
    median(&rec.durations(name))
}

fn traced_inner(args: &RunArgs, report: &mut Report, rec: &mut Recorder) -> Result<(), String> {
    let schedule = Schedule::for_seconds(args.seconds);
    let stream_rows = writer_rows(schedule.total()) + BURST_ROWS;
    let inputs = inputs::generate(args.workload, args.seed, stream_rows)?;
    let n_plans = inputs.plans.len() as f64;
    let cores = nproc();

    // ---- storage: build and append, on the first provider's partition.
    probe_storage(rec, report, &inputs)?;

    // ---- the probe federation: optimizer, providers, engine, loopback.
    let federation = Federation::build(
        inputs.config.clone(),
        inputs.schema.clone(),
        inputs.partitions.clone(),
    )
    .map_err(|e| format!("probe federation: {e}"))?;
    // `explain_plan` needs a handle; the provider probes need the
    // providers. Explain on a short-lived engine, hand the federation back.
    let engine = FederationEngine::start(federation);
    let explanations = probe_optimizer(rec, report, &inputs, &engine.handle())?;
    let federation = engine.shutdown();

    let (totals, paths) = replay_providers(rec, &inputs, &federation, &explanations)?;
    record_layers(report, &totals, n_plans);

    let engine = FederationEngine::start(federation);
    let handle = engine.handle();
    let answers = probe_engine(rec, report, &inputs, &handle, &paths)?;
    probe_plan_kinds(rec, report, &inputs, &handle)?;
    probe_codec(rec, report, &inputs, &answers)?;
    probe_accountant(rec, report)?;
    probe_loopback(rec, report, &inputs, &handle)?;
    if inputs.workload.name == catalog::MIXED_SHARDED {
        probe_shards(rec, report, &inputs)?;
    }
    drop(handle);
    probe_stream(rec, report, &inputs, engine.shutdown())?;

    // ---- the front door, spans off then on, and the reconciliation.
    let world = World::build(&inputs, inputs.partitions.clone())?;
    let walls = probe_front_door(rec, report, &inputs, &world)?;
    reconcile(report, &inputs, &paths, &walls, cores, rec);

    probe_loaded(report, &inputs, &world, schedule, args.seconds)?;
    world.shutdown();

    // ---- vacuity: the workloads must keep discriminating.
    let scan_share =
        totals.scan_ns / (totals.prepare_ns + totals.summary_ns + totals.execute_ns).max(1.0);
    match inputs.workload.name {
        catalog::SCAN_WIDE if scan_share < 0.6 => report.problem(format!(
            "scan_wide: the cluster scan is {scan_share:.2} of provider compute (floor 0.6)"
        )),
        catalog::NARROW_REMOTE if scan_share > 0.35 => report.problem(format!(
            "narrow_remote: the cluster scan is {scan_share:.2} of provider compute (ceiling 0.35)"
        )),
        catalog::MIXED_SHARDED
            if report.get("core.optimizer.pruned_frac").unwrap_or(0.0) < 0.25 =>
        {
            report.problem("mixed_sharded: fewer than 25% of provider slots are pruned")
        }
        _ => {}
    }
    eprintln!(
        "[{}] cluster scan share of provider compute: {scan_share:.3}",
        inputs.workload.name
    );
    report.attempted = report.attempted.max(inputs.plans.len() as u64);
    Ok(())
}

fn probe_storage(rec: &mut Recorder, report: &mut Report, inputs: &Inputs) -> Result<(), String> {
    let rows = inputs.partitions[0].clone();
    let n_rows = rows.len() as f64;
    let config = &inputs.config;
    let (store, build_ns) = rec.time("storage.store.build", ROOT, NO_PLAN, || {
        ClusterStore::build(
            inputs.schema.clone(),
            rows,
            config.cluster_capacity,
            config.partition_strategy,
        )
    });
    let mut store = store.map_err(|e| format!("store build: {e}"))?;
    let (_, meta_ns) = rec.time("storage.meta.build", ROOT, NO_PLAN, || {
        ProviderMeta::build(&store, config.agreed_s)
    });
    let appended: Vec<_> = inputs.partitions[1].iter().take(10_000).cloned().collect();
    let n_appended = appended.len() as f64;
    let (result, append_ns) = rec.time("storage.store.append", ROOT, NO_PLAN, || {
        appended
            .into_iter()
            .try_for_each(|row| store.append_row(row).map(|_| ()))
    });
    result.map_err(|e| format!("append_row: {e}"))?;
    report.set("storage.store.build_ns_per_row", build_ns / n_rows);
    report.set("storage.meta.build_ns_per_row", meta_ns / n_rows);
    report.set(
        "storage.store.append_ns_per_row",
        append_ns / n_appended.max(1.0),
    );
    Ok(())
}

/// The SQL text of a plan: what the workload carries, or the scalar
/// rendering of its range query (only `mixed_sharded` parses in its path).
fn sql_text(inputs: &Inputs, spec: &PlanSpec) -> Option<String> {
    spec.sql.clone().or_else(|| match &spec.plan {
        QueryPlan::Scalar { query, .. } | QueryPlan::Online { query, .. } => {
            Some(query.display_sql(&inputs.schema))
        }
        _ => None,
    })
}

fn probe_optimizer(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    handle: &EngineHandle,
) -> Result<Vec<PlanExplanation>, String> {
    let mut explanations = Vec::with_capacity(inputs.plans.len());
    let (mut subqueries, mut pruned, mut reused) = (0u64, 0u64, 0u64);
    for (i, spec) in inputs.plans.iter().enumerate() {
        if let Some(sql) = sql_text(inputs, spec) {
            let (parsed, _) = rec.time_reps("model.sql.parse", ROOT, i as u32, 4, || {
                crate::surface::parse_sql_plan(&inputs.schema, &sql, &inputs::PLAN_PARAMS)
            });
            parsed.map_err(|e| format!("plan {i}: {e}"))?;
        }
        let (explanation, _) = rec.time("core.optimizer.explain", ROOT, i as u32, || {
            handle.explain_plan(&spec.plan)
        });
        let explanation = explanation.map_err(|e| format!("explain plan {i}: {e}"))?;
        subqueries += spec
            .plan
            .sub_query_count(&inputs.schema)
            .map_err(|e| e.to_string())?;
        pruned += explanation.pruned_total();
        reused += explanation.reused_total();
        explanations.push(explanation);
    }
    let slots = (subqueries * inputs.config.n_providers as u64).max(1) as f64;
    report.set(
        "model.sql.parse_ns",
        median(&rec.durations("model.sql.parse")),
    );
    report.set(
        "core.optimizer.explain_ns",
        p50(rec, "core.optimizer.explain"),
    );
    report.set("core.optimizer.pruned_frac", pruned as f64 / slots);
    report.set(
        "core.optimizer.reused_frac",
        reused as f64 / subqueries.max(1) as f64,
    );
    report.set(
        "core.plan.subqueries_per_plan",
        subqueries as f64 / inputs.plans.len() as f64,
    );
    Ok(explanations)
}

fn record_layers(report: &mut Report, t: &Totals, n_plans: f64) {
    let per = |sum: f64, n: u64| sum / n.max(1) as f64;
    report.set(
        "core.provider.prepare_us",
        ns_to_us(per(t.prepare_ns, t.prepared)),
    );
    report.set(
        "core.provider.execute_us",
        ns_to_us(per(t.execute_ns, t.turns)),
    );
    report.set(
        "core.provider.execute_self_us",
        ns_to_us(per(t.execute_ns - t.execute_children_ns, t.turns)),
    );
    report.set(
        "core.provider.exact_path_frac",
        per(t.exact_turns as f64, t.turns),
    );
    report.set(
        "storage.meta.covering_ns_per_cluster",
        per(t.covering_ns, t.clusters_tested),
    );
    report.set(
        "storage.meta.covering_frac",
        per(t.covering as f64, t.clusters_tested),
    );
    report.set(
        "storage.meta.proportions_ns_per_cluster",
        per(t.proportions_ns, t.covering),
    );
    report.set("storage.cluster.scan_ns_per_cell", per(t.scan_ns, t.cells));
    report.set(
        "storage.cluster.calib_ns_per_cell",
        per(t.calib_ns, t.cells),
    );
    report.set(
        "storage.cluster.scan_over_calib",
        t.scan_ns / t.calib_ns.max(1.0),
    );
    report.set("storage.cluster.cells_per_plan", t.cells as f64 / n_plans);
    report.set(
        "storage.cluster.scanned_frac",
        per(t.scanned as f64, t.covering),
    );
    report.set("sampling.em.sample_ns_per_draw", per(t.em_ns, t.draws));
    report.set("sampling.em.draws_per_plan", t.draws as f64 / n_plans);
    report.set("sampling.em.distinct_frac", per(t.distinct as f64, t.draws));
    report.set("sampling.hh.estimate_ns", per(t.hh_ns, t.em_turns));
    report.set("core.sensitivity.smooth_ns", per(t.smooth_ns, t.em_turns));
    report.set("dp.smooth.release_ns", per(t.release_ns, t.em_turns));
    report.set("dp.laplace.summary_ns", per(t.summary_ns, t.turns));
    report.set(
        "core.aggregator.allocate_ns",
        per(t.allocate_ns, t.subqueries),
    );
}

/// Σ of the compute phases of an answer, in nanoseconds.
fn phases_ns(answer: &PlanAnswer) -> f64 {
    let t = &answer.timings;
    dur_ns(t.summary + t.allocation + t.execution + t.release)
}

fn probe_engine(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    handle: &EngineHandle,
    paths: &[PlanPath],
) -> Result<Vec<PlanAnswer>, String> {
    let mut answers = Vec::with_capacity(inputs.plans.len());
    let mut walls = Vec::with_capacity(inputs.plans.len());
    for (i, spec) in inputs.plans.iter().enumerate() {
        let (answer, wall) = rec.time("core.engine.run_plan", ROOT, i as u32, || {
            handle.run_plan(&spec.plan)
        });
        answers.push(answer.map_err(|e| format!("run_plan {i}: {e}"))?);
        walls.push(wall);
    }
    let rel_errs: Vec<f64> = inputs
        .plans
        .iter()
        .zip(&answers)
        .filter_map(|(spec, answer)| rel_err(spec, answer))
        .collect();
    record_rel_err(report, inputs.workload, &rel_errs);
    // Phase figures are per scalar plan where the workload has them (a
    // multi-sub-query plan reports per-phase maxima, not a critical path).
    let scalar: Vec<usize> = (0..answers.len())
        .filter(|&i| matches!(inputs.plans[i].plan, QueryPlan::Scalar { .. }))
        .collect();
    let over = |f: &dyn Fn(usize) -> f64| median(&scalar.iter().map(|&i| f(i)).collect::<Vec<_>>());
    let phase = |f: fn(&PlanAnswer) -> Duration| ns_to_us(over(&|i| dur_ns(f(&answers[i]))));
    report.set("core.engine.run_plan_us", ns_to_us(median(&walls)));
    report.set("core.engine.phase_summary_us", phase(|a| a.timings.summary));
    report.set(
        "core.engine.phase_allocation_us",
        phase(|a| a.timings.allocation),
    );
    report.set(
        "core.engine.phase_execution_us",
        phase(|a| a.timings.execution),
    );
    report.set("core.engine.phase_release_us", phase(|a| a.timings.release));
    report.set(
        "core.engine.overhead_us",
        ns_to_us(over(&|i| walls[i] - phases_ns(&answers[i]))),
    );
    report.set(
        "core.engine.overhead_frac",
        over(&|i| (walls[i] - phases_ns(&answers[i])) / walls[i].max(1.0)),
    );
    report.set(
        "core.engine.provider_sum_over_phase",
        over(&|i| paths[i].execute_sum_ns / dur_ns(answers[i].timings.execution).max(1.0)),
    );

    // The hand-off floor: a metadata-only Extreme plan crosses the queues
    // and wakes the waiter but never parks at the allocation barrier.
    let floor_plan = QueryPlan::Extreme {
        dim: 0,
        extreme: Extreme::Min,
        epsilon: EPSILON,
    };
    for _ in 0..200 {
        let (answer, _) = rec.time("core.engine.handoff", ROOT, NO_PLAN, || {
            handle.run_plan(&floor_plan)
        });
        answer.map_err(|e| format!("handoff probe: {e}"))?;
    }
    report.set(
        "core.engine.handoff_floor_us",
        ns_to_us(p50(rec, "core.engine.handoff")),
    );

    // The paper's speed-up: plain scan vs private answer on the same pool.
    let mut private = Vec::new();
    for &i in scalar.iter().take(50) {
        let QueryPlan::Scalar { query, .. } = &inputs.plans[i].plan else {
            continue;
        };
        let (plain, _) = rec.time("paper.plain", ROOT, i as u32, || {
            handle.submit_plain(query).and_then(|p| p.wait())
        });
        let plain = plain.map_err(|e| format!("plain scan {i}: {e}"))?;
        if Some(plain.value) != inputs.plans[i].exact {
            return Err(format!(
                "plan {i}: plain scan {} != the selector's exact answer {:?}",
                plain.value, inputs.plans[i].exact
            ));
        }
        private.push(walls[i]);
    }
    report.set(
        "paper.speedup_vs_plain",
        p50(rec, "paper.plain") / median(&private).max(1.0),
    );
    Ok(answers)
}

/// The query a plan filters on, if it has one.
fn base_query(plan: &QueryPlan) -> Option<&RangeQuery> {
    match plan {
        QueryPlan::Scalar { query, .. }
        | QueryPlan::Derived { query, .. }
        | QueryPlan::Online { query, .. } => Some(query),
        QueryPlan::GroupBy { base, .. } => Some(base),
        QueryPlan::Extreme { .. } => None,
    }
}

/// Every plan kind over the workload's own ranges: the first 16 base
/// queries, each run as a scalar, a VAR, a `GROUP BY workclass`, a MIN and
/// a 4-round online plan through the in-process engine.
fn probe_plan_kinds(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    handle: &EngineHandle,
) -> Result<(), String> {
    const GROUP_DIM: usize = 1;
    let bases: Vec<&RangeQuery> = inputs
        .plans
        .iter()
        .filter_map(|s| base_query(&s.plan))
        .take(16)
        .collect();
    for (i, base) in bases.iter().enumerate() {
        let (sampling_rate, epsilon, delta) = (SAMPLING_RATE, EPSILON, DELTA);
        let query = (*base).clone();
        let ungrouped: Vec<Range> = base
            .ranges()
            .iter()
            .filter(|r| r.dim != GROUP_DIM)
            .copied()
            .collect();
        let mut kinds: Vec<(&'static str, QueryPlan)> = vec![
            (
                "core.plan.scalar",
                QueryPlan::Scalar {
                    query: query.clone(),
                    sampling_rate,
                    epsilon,
                    delta,
                },
            ),
            (
                "core.plan.derived",
                QueryPlan::Derived {
                    query: query.clone(),
                    statistic: DerivedStatistic::Variance,
                    sampling_rate,
                    epsilon,
                    delta,
                },
            ),
            (
                "core.plan.extreme",
                QueryPlan::Extreme {
                    dim: base.ranges()[0].dim,
                    extreme: Extreme::Min,
                    epsilon,
                },
            ),
            (
                "core.plan.online",
                QueryPlan::Online {
                    query,
                    sampling_rate,
                    epsilon,
                    delta,
                    rounds: ONLINE_ROUNDS,
                },
            ),
        ];
        if !ungrouped.is_empty() {
            kinds.push((
                "core.plan.groupby",
                QueryPlan::GroupBy {
                    base: RangeQuery::new(base.aggregate(), ungrouped)
                        .map_err(|e| e.to_string())?,
                    statistic: None,
                    group_dim: GROUP_DIM,
                    threshold: 0.0,
                    sampling_rate,
                    epsilon,
                    delta,
                },
            ));
        }
        for (name, plan) in kinds {
            let (answer, _) = rec.time(name, ROOT, i as u32, || handle.run_plan(&plan));
            answer.map_err(|e| format!("{name} probe: {e}"))?;
        }
    }
    for kind in ["scalar", "derived", "groupby", "extreme", "online"] {
        report.set(
            &format!("core.plan.{kind}_p50_ms"),
            ns_to_ms(p50(rec, &format!("core.plan.{kind}"))),
        );
    }
    Ok(())
}

/// The frames one plan and its answer cross the wire as.
fn frames_of(plan: &QueryPlan, answer: &PlanAnswer) -> Vec<Frame> {
    let t = &answer.timings;
    let micros = |d: Duration| d.as_micros() as u64;
    if let (
        QueryPlan::Online {
            query,
            sampling_rate,
            epsilon,
            delta,
            rounds,
        },
        PlanResult::Snapshots { snapshots },
    ) = (plan, &answer.result)
    {
        let mut frames = vec![Frame::OnlinePlan(OnlinePlanRequest {
            query: query.clone(),
            sampling_rate: *sampling_rate,
            epsilon: *epsilon,
            delta: *delta,
            rounds: *rounds as u32,
        })];
        frames.extend(snapshots.iter().map(|s| {
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index: 0,
                round: s.round as u32,
                rounds: s.rounds as u32,
                sample_fraction: s.sample_fraction,
                value: s.value,
                ci_halfwidth: s.ci_halfwidth,
                clusters_scanned: s.clusters_scanned,
            })
        }));
        frames.push(Frame::OnlineDone(OnlineDoneFrame {
            index: 0,
            eps: answer.cost.eps,
            delta: answer.cost.delta,
            value: answer.value().unwrap_or(0.0),
            summary_us: micros(t.summary),
            allocation_us: micros(t.allocation),
            execution_us: micros(t.execution),
            release_us: micros(t.release),
            network_us: micros(t.network),
        }));
        return frames;
    }
    let result = match &answer.result {
        PlanResult::Value {
            value,
            ci_halfwidth,
        } => WirePlanResult::Value {
            value: *value,
            ci_halfwidth: *ci_halfwidth,
        },
        PlanResult::Groups { groups, suppressed } => WirePlanResult::Groups {
            groups: groups
                .iter()
                .map(|g| WireGroup {
                    key: g.key,
                    value: g.value,
                    ci_halfwidth: g.ci_halfwidth,
                })
                .collect(),
            suppressed: *suppressed,
        },
        PlanResult::Extreme { value } => WirePlanResult::Extreme { value: *value },
        PlanResult::Snapshots { snapshots } => WirePlanResult::Value {
            value: snapshots.last().map_or(0.0, |s| s.value),
            ci_halfwidth: None,
        },
    };
    vec![
        Frame::Plan(PlanRequest { plan: plan.clone() }),
        Frame::PlanAnswer(PlanAnswerFrame {
            index: 0,
            eps: answer.cost.eps,
            delta: answer.cost.delta,
            result,
            summary_us: micros(t.summary),
            allocation_us: micros(t.allocation),
            execution_us: micros(t.execution),
            release_us: micros(t.release),
            network_us: micros(t.network),
        }),
    ]
}

fn probe_codec(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    answers: &[PlanAnswer],
) -> Result<(), String> {
    let mut bytes_total = 0usize;
    for (i, (spec, answer)) in inputs.plans.iter().zip(answers).enumerate() {
        for frame in frames_of(&spec.plan, answer) {
            let (bytes, _) = rec.time_reps("net.wire.encode", ROOT, i as u32, 4, || {
                encode_frame(&frame)
            });
            let bytes = bytes.map_err(|e| format!("encode plan {i}: {e}"))?;
            bytes_total += bytes.len();
            let (decoded, _) = rec.time_reps("net.wire.decode", ROOT, i as u32, 4, || {
                read_frame(&mut bytes.as_slice())
            });
            if decoded.map_err(|e| format!("decode plan {i}: {e}"))? != frame {
                return Err(format!("plan {i}: a frame did not survive the codec"));
            }
        }
    }
    let mean = |name: &str| {
        let d = rec.durations(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    report.set("net.wire.encode_ns_per_frame", mean("net.wire.encode"));
    report.set("net.wire.decode_ns_per_frame", mean("net.wire.decode"));
    report.set(
        "net.wire.bytes_per_plan",
        bytes_total as f64 / inputs.plans.len() as f64,
    );
    Ok(())
}

fn probe_accountant(rec: &mut Recorder, report: &mut Report) -> Result<(), String> {
    let accountant = SharedAccountant::new(SESSION_XI, SESSION_PSI).map_err(|e| e.to_string())?;
    let cost = PrivacyCost {
        eps: EPSILON,
        delta: DELTA,
    };
    // One session's worth of charges (ψ runs out after 999 of them).
    let (charged, ns) = rec.time_reps(
        "dp.accountant.charge",
        ROOT,
        NO_PLAN,
        SESSION_PLANS as u32,
        || accountant.charge(cost),
    );
    charged.map_err(|e| format!("charge: {e}"))?;
    report.set("dp.accountant.charge_ns", ns);
    Ok(())
}

/// One pass of the plan list through `client`, one span per plan; returns
/// the per-plan wall times (ns).
fn pass_through(
    rec: &mut Recorder,
    name: &'static str,
    inputs: &Inputs,
    client: &mut Client,
    parse_sql: bool,
) -> Result<Vec<f64>, String> {
    let mut walls = Vec::with_capacity(inputs.plans.len());
    for (i, spec) in inputs.plans.iter().enumerate() {
        let unparsed;
        let spec = if parse_sql {
            spec
        } else {
            unparsed = PlanSpec {
                sql: None,
                ..spec.clone()
            };
            &unparsed
        };
        let (served, wall) = rec.time(name, ROOT, i as u32, || client.run(&inputs.schema, spec));
        served.map_err(|e| format!("{name} plan {i}: {e}"))?;
        walls.push(wall);
    }
    Ok(walls)
}

/// The same engine behind a loopback analyst server: what the socket,
/// the codec and the connection thread add to the in-process figures.
fn probe_loopback(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    handle: &EngineHandle,
) -> Result<(), String> {
    let server = LoopbackServer::analyst(handle.clone(), serve_options())
        .map_err(|e| format!("bind probe server: {e}"))?;
    let connect = |identity: &str| {
        crate::surface::RemoteFederation::connect_as(server.addr(), identity)
            .map_err(|e| format!("connect probe: {e}"))
    };
    for k in 0..7 {
        let (conn, _) = rec.time("net.server.connect", ROOT, NO_PLAN, || {
            connect(&format!("probe-connect-{k}"))
        });
        drop(conn?);
    }
    let mut client = Client::Remote(Box::new(connect("probe")?));
    for _ in 0..300 {
        let (ledger, _) = rec.time("net.server.ping", ROOT, NO_PLAN, || client.ledger());
        ledger?;
    }
    let frames = obs::global().counter(obs::names::SERVER_FRAMES);
    let frames_before = frames.get();
    let walls = pass_through(rec, "net.server.remote_plan", inputs, &mut client, false)?;
    let frames_per_plan = (frames.get() - frames_before) as f64 / inputs.plans.len() as f64;
    drop(client);
    server.shutdown();

    let remote = median(&walls);
    let inproc = p50(rec, "core.engine.run_plan");
    report.set(
        "net.server.connect_ms",
        ns_to_ms(p50(rec, "net.server.connect")),
    );
    report.set(
        "net.server.ping_rtt_us",
        ns_to_us(p50(rec, "net.server.ping")),
    );
    report.set("net.server.remote_overhead_us", ns_to_us(remote - inproc));
    report.set("net.server.remote_over_inproc", remote / inproc.max(1.0));
    report.set("net.server.frames_per_plan", frames_per_plan);
    Ok(())
}

/// Sharding, layer by layer: in-process shards vs the unsharded engine,
/// then loopback shards vs in-process shards, on the same plans.
fn probe_shards(rec: &mut Recorder, report: &mut Report, inputs: &Inputs) -> Result<(), String> {
    let (config, schema) = (inputs.config.clone(), inputs.schema.clone());
    let in_process =
        ShardedFederation::in_process(config.clone(), schema.clone(), inputs.partitions.clone(), 2)
            .map_err(|e| format!("in-process shards: {e}"))?;
    for (i, spec) in inputs.plans.iter().enumerate() {
        let (answer, _) = rec.time("core.shard.inproc_plan", ROOT, i as u32, || {
            in_process.run_plan(&spec.plan)
        });
        answer.map_err(|e| format!("in-process shards, plan {i}: {e}"))?;
    }
    in_process.shutdown();

    let (engines, servers, backends) = loopback_shards(&config, &schema, &inputs.partitions)?;
    let coordinator = ShardedFederation::from_backends(config, schema, backends)
        .map_err(|e| format!("coordinator: {e}"))?;
    obs::global().reset();
    for (i, spec) in inputs.plans.iter().enumerate() {
        let (answer, _) = rec.time("net.shard.remote_plan", ROOT, i as u32, || {
            coordinator.run_plan(&spec.plan)
        });
        answer.map_err(|e| format!("loopback shards, plan {i}: {e}"))?;
    }
    let histogram_p50_us = |name: &str| obs::global().histogram(name).percentile(50.0) * 1e6;
    report.set(
        "core.shard.scatter_p50_us",
        histogram_p50_us(obs::names::SHARD_SCATTER),
    );
    report.set(
        "core.shard.gather_p50_us",
        histogram_p50_us(obs::names::SHARD_GATHER),
    );
    drop(coordinator);
    for server in servers {
        server.shutdown();
    }
    for engine in engines {
        drop(engine.shutdown());
    }
    let unsharded = p50(rec, "core.engine.run_plan");
    let sharded = p50(rec, "core.shard.inproc_plan");
    report.set(
        "core.shard.inproc_overhead_us",
        ns_to_us(sharded - unsharded),
    );
    report.set(
        "net.shard.remote_overhead_us",
        ns_to_us(p50(rec, "net.shard.remote_plan") - sharded),
    );
    Ok(())
}

/// Direct `LiveFederation::ingest` (no refresh in the batch) and direct
/// `refresh`, on the federation the engine handed back.
fn probe_stream(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    federation: Federation,
) -> Result<(), String> {
    let never = RefreshPolicy {
        max_stale_rows: usize::MAX,
        max_stale_age: Duration::from_secs(86_400),
    };
    let mut live = LiveFederation::new(federation, never);
    let n_providers = inputs.partitions.len();
    let batches = 40usize;
    for b in 0..batches {
        // The live workload feeds its stream; the frozen ones re-feed rows
        // of their own table (any schema-valid row costs the same).
        let batch = if inputs.stream.is_empty() {
            let rows = &inputs.partitions[b % n_providers];
            (0..INGEST_BATCH_ROWS)
                .map(|i| rows[(b * INGEST_BATCH_ROWS + i) % rows.len()].clone())
                .collect()
        } else {
            inputs.stream_batch(b * INGEST_BATCH_ROWS, INGEST_BATCH_ROWS)
        };
        let (ingested, _) = rec.time("core.stream.ingest", ROOT, NO_PLAN, || {
            live.ingest(b % n_providers, batch)
        });
        let ingested = ingested.map_err(|e| format!("direct ingest: {e}"))?;
        if ingested.accepted != INGEST_BATCH_ROWS as u64 || ingested.refreshed {
            return Err("direct ingest: a batch was cut short or triggered a refresh".into());
        }
    }
    for _ in 0..3 {
        rec.time("core.stream.refresh", ROOT, NO_PLAN, || live.refresh());
    }
    report.set(
        "core.stream.ingest_ns_per_row",
        p50(rec, "core.stream.ingest") / INGEST_BATCH_ROWS as f64,
    );
    report.set(
        "core.stream.refresh_ms",
        ns_to_ms(p50(rec, "core.stream.refresh")),
    );
    Ok(())
}

/// The front door with the harness's spans off, then on, three times
/// each after a warm-up pass; returns each plan's traced wall time (the
/// quietest of its three). Interference on a shared box only ever adds
/// time, so the quietest pass of each kind is the one compared.
fn probe_front_door(
    rec: &mut Recorder,
    report: &mut Report,
    inputs: &Inputs,
    world: &World,
) -> Result<Vec<f64>, String> {
    const ROUNDS: usize = 3;
    let untraced_pass = |identity: &str| -> Result<(), String> {
        // A session per pass: a long plan list would outrun one ledger.
        let mut client = world.client(identity)?;
        inputs
            .plans
            .iter()
            .try_for_each(|spec| client.run(&inputs.schema, spec).map(|_| ()))
    };
    untraced_pass("front-door-warm-up")?;
    let mut untraced_total = f64::INFINITY;
    let mut traced_total = f64::INFINITY;
    let mut walls = vec![f64::INFINITY; inputs.plans.len()];
    for round in 0..ROUNDS {
        let (result, wall) = rec.time("obs.untraced_pass", ROOT, NO_PLAN, || {
            untraced_pass(&format!("untraced-{round}"))
        });
        result.map_err(|e| format!("untraced pass: {e}"))?;
        untraced_total = untraced_total.min(wall);
        let mut client = world.client(&format!("traced-{round}"))?;
        let begin = Instant::now();
        let pass = pass_through(rec, "trace.front_door", inputs, &mut client, true)?;
        traced_total = traced_total.min(dur_ns(begin.elapsed()));
        for (quietest, wall) in walls.iter_mut().zip(pass) {
            *quietest = quietest.min(wall);
        }
    }
    report.set(
        "obs.trace_overhead_frac",
        (traced_total - untraced_total) / untraced_total.max(1.0),
    );
    Ok(walls)
}

/// Holds the layer self times on the blocking path against the measured
/// front-door wall time. The gap is printed, never hidden: it is queue
/// wait, barrier wake-ups, thread hand-offs, socket time and core
/// contention beyond the model — an unexplained gap *is* the finding.
fn reconcile(
    report: &mut Report,
    inputs: &Inputs,
    paths: &[PlanPath],
    walls: &[f64],
    cores: usize,
    rec: &Recorder,
) {
    let remote = inputs.workload.name != catalog::SCAN_WIDE;
    let parse_in_path = inputs.workload.name == catalog::MIXED_SHARDED;
    let per_plan = |name: &str| -> Vec<f64> {
        let mut sums = vec![0.0; inputs.plans.len()];
        for s in rec.spans().iter().filter(|s| s.name == name) {
            if let Some(slot) = sums.get_mut(s.plan_id as usize) {
                *slot += s.ns();
            }
        }
        sums
    };
    let (parse, encode, decode) = (
        per_plan("model.sql.parse"),
        per_plan("net.wire.encode"),
        per_plan("net.wire.decode"),
    );
    let (mut wall, mut accounted, mut providers, mut allocate, mut codec) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (i, path) in paths.iter().enumerate() {
        let blocking = path.blocking_ns(cores);
        let wire = if remote { encode[i] + decode[i] } else { 0.0 };
        let sql = if parse_in_path { parse[i] } else { 0.0 };
        wall += walls[i];
        providers += blocking;
        allocate += path.allocate_ns;
        codec += wire;
        accounted += blocking + path.allocate_ns + wire + sql;
    }
    let unaccounted = wall - accounted;
    report.set("trace.unaccounted_frac", unaccounted / wall.max(1.0));
    // By construction: accounted + unaccounted = front-door wall.
    eprintln!(
        "[{}] blocking path per plan: providers {:.1} us + allocate {:.1} us + codec {:.1} us \
         + unaccounted {:.1} us = front door {:.1} us",
        inputs.workload.name,
        ns_to_us(providers) / paths.len() as f64,
        ns_to_us(allocate) / paths.len() as f64,
        ns_to_us(codec) / paths.len() as f64,
        ns_to_us(unaccounted) / paths.len() as f64,
        ns_to_us(wall) / paths.len() as f64,
    );
    let self_times = rec.self_ns_by_name();
    let provider_total: f64 = [
        "core.provider.prepare",
        "storage.meta.covering",
        "storage.meta.proportions",
        "dp.laplace.summary",
        "core.provider.execute",
        "sampling.em.sample",
        "storage.cluster.scan",
        "sampling.hh.estimate",
        "core.sensitivity.smooth",
        "dp.smooth.release",
    ]
    .iter()
    .map(|name| {
        let ns = self_times.get(name).copied().unwrap_or(0.0);
        eprintln!(
            "[{}]   self time {name:<28} {:>10.1} us/plan",
            inputs.workload.name,
            ns_to_us(ns) / paths.len() as f64
        );
        ns
    })
    .sum();
    eprintln!(
        "[{}]   provider self times sum to {:.1} us/plan over {} providers ({} cores)",
        inputs.workload.name,
        ns_to_us(provider_total) / paths.len() as f64,
        inputs.partitions.len(),
        cores
    );
}

/// The front door under the workload's own load for a short window: the
/// user-visible figures `BENCHMARK.json` cannot bound (`plan_p99_ms`
/// everywhere; on `live_rw` also the reader alone before the writer
/// starts, the first snapshot, the writer's acks and the fixed-work burst).
fn probe_loaded(
    report: &mut Report,
    inputs: &Inputs,
    world: &World,
    schedule: Schedule,
    seconds: f64,
) -> Result<(), String> {
    let (readers, writer) = readers_of(inputs.workload);
    let alone = Schedule {
        slices: schedule.slices.div_ceil(5),
        ..schedule
    };
    let beside = Schedule {
        slices: 2 * alone.slices,
        ..schedule
    };
    let read_only = match writer {
        true => Some(run_timed(
            world,
            inputs,
            "read-only",
            readers,
            false,
            alone,
        )?),
        false => None,
    };
    let loaded = run_timed(world, inputs, "loaded", readers, writer, beside)?;
    for timed in read_only.iter().chain([&loaded]) {
        report.attempted += timed.attempted;
        report.failed += timed.failed;
        for e in &timed.errors {
            report.problem(e.clone());
        }
    }
    report.set_estimate("plan_p99_ms", loaded.p99_ms());
    if loaded.undersampled() {
        report.note("plan_p99_ms", "undersampled");
    }
    if let Some(first) = loaded.first_snapshot_ms() {
        report.set_estimate("first_snapshot_ms", first);
    }
    if let (Some(read_only), Some(w)) = (&read_only, &loaded.writer) {
        record_writer(report, w, seconds >= 5.0 && loaded.calm());
        let alone_p50 = read_only.p50_ms().value;
        report.set("core.stream.read_only_p50_ms", alone_p50);
        report.set(
            "core.stream.rw_slowdown",
            loaded.p50_ms().value / alone_p50.max(f64::MIN_POSITIVE),
        );
        let fed = writer_rows(beside.total());
        report.set("ingest_rows_per_s", ingest_burst(world, inputs, fed)?);
    }
    Ok(())
}
