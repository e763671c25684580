//! Live-federation experiment: streaming ingest throughput, query
//! latency against a growing federation, and server-push progressive
//! answers, all over a loopback `fedaqp serve --live`-style server.
//!
//! One remote analyst drives three phases against a live Adult
//! federation:
//!
//! 1. **Queries, epoch 0** — the workload runs once against the frozen
//!    seed table (the latency reference).
//! 2. **Ingest** — a fresh Adult-like stream (same schema, different
//!    seed) is fed in `BATCHES` batches round-robin over the providers.
//!    The refresh policy is pinned to two batches of staleness, so the
//!    full Algorithm 1 recompute path fires on every second ack — a run
//!    where `refreshes` stays 0 never exercised incremental metadata
//!    and the gate calls it vacuous.
//! 3. **Queries + online, grown table** — the same workload reruns
//!    (post-ingest qps is the regression-gated headline), then
//!    `ONLINE_QUERIES` queries run as `ONLINE_ROUNDS`-round online
//!    plans, timing the first pushed snapshot against the full answer.
//!    `first_snapshot_fraction` is the point of progressive answers:
//!    round 1 scans at `1/rounds` of the terminal rate, so the first
//!    snapshot must land well before the last (the gate pins ≤ 0.6).
//!
//! Emits `BENCH_stream.json` (headline keys `ingest_rows_per_sec`,
//! `refreshes`, `live_qps`, `online_rounds_ok`,
//! `first_snapshot_fraction`), compared in CI against the committed
//! `BENCH_stream_baseline.json` by `bench_gate` (rows in [`crate::gate`]).

use std::time::{Duration, Instant};

use fedaqp_core::{LiveFederation, RefreshPolicy};
use fedaqp_data::{AdultConfig, AdultSynth};
use fedaqp_model::Aggregate;
use fedaqp_net::{LoopbackServer, RemoteFederation, ServeOptions};
use fedaqp_obs::Histogram;

use crate::gate::STREAM_SCHEMA;
use crate::report::{fmt_f, mean, Table};
use crate::setup::{build_testbed, filtered_workload, DatasetKind, ExperimentContext};

/// Ingest batches fed to the live server (round-robin over providers).
const BATCHES: usize = 8;
/// Progressive rounds per online query.
const ONLINE_ROUNDS: u32 = 4;
/// Queries rerun as online plans for the first-snapshot timing.
const ONLINE_QUERIES: usize = 4;

/// Runs the live-federation loopback phases and writes `BENCH_stream.json`.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let mut table = Table::new(
        "live federation — ingest, queries, and progressive answers (Adult, loopback TCP)",
        &["stage", "metric", "value"],
    );
    let sampling_rate = DatasetKind::Adult.default_sampling_rate();
    let testbed = build_testbed(DatasetKind::Adult, ctx, |_| {});
    let n_queries = ctx.queries.max(ONLINE_QUERIES);
    let queries = filtered_workload(&testbed, 2, Aggregate::Count, n_queries, ctx.seed ^ 0x57AE);
    let epsilon = testbed.federation.config().epsilon;
    let delta = testbed.federation.config().delta;
    let n_providers = testbed.federation.providers().len() as u32;

    // The stream: an eighth of the base table's worth of fresh rows.
    let stream_rows = (ctx.rows_for(DatasetKind::Adult) / 8).max(BATCHES as u64);
    let stream = AdultSynth::generate(AdultConfig {
        n_rows: stream_rows,
        seed: ctx.seed ^ 0x57,
    })
    .expect("stream generation")
    .cells;
    let batch_len = stream.len().div_ceil(BATCHES);
    let policy = RefreshPolicy {
        // Every second batch crosses the staleness threshold (the
        // trigger is `>=`), so half the acks report a full recompute.
        max_stale_rows: 2 * batch_len,
        // Pinned far out: only the row policy may fire, deterministically.
        max_stale_age: Duration::from_secs(3600),
    };

    let live = LiveFederation::new(testbed.federation, policy);
    let server = LoopbackServer::live(live, ServeOptions::unlimited()).expect("bind live server");
    let mut conn = RemoteFederation::connect_as(server.addr(), "stream-bench").expect("connect");

    // Phase 1: the workload against the frozen epoch-0 table.
    let pre = Histogram::new();
    let t0 = Instant::now();
    for q in &queries {
        let t = Instant::now();
        conn.run_plan(&conn.scalar_plan(q, sampling_rate))
            .expect("pre-ingest query");
        pre.record_duration(t.elapsed());
    }
    let pre_qps = pre.count() as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Phase 2: the ingest stream, one batch per ack.
    let mut accepted = 0u64;
    let mut epochs = 0u64;
    let mut refreshes = 0u64;
    let t0 = Instant::now();
    for (i, batch) in stream.chunks(batch_len).enumerate() {
        let ack = conn
            .ingest((i as u32) % n_providers, batch)
            .expect("ingest batch");
        accepted += ack.accepted;
        epochs = ack.epoch;
        refreshes += u64::from(ack.refreshed);
    }
    let ingest_wall = t0.elapsed().as_secs_f64();
    let ingest_rows_per_sec = accepted as f64 / ingest_wall.max(1e-9);

    // Phase 3a: the same workload against the grown table.
    let post = Histogram::new();
    let t0 = Instant::now();
    for q in &queries {
        let t = Instant::now();
        conn.run_plan(&conn.scalar_plan(q, sampling_rate))
            .expect("post-ingest query");
        post.record_duration(t.elapsed());
    }
    let live_qps = post.count() as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Phase 3b: online plans, timing first snapshot vs full answer.
    let mut rounds_ok = true;
    let mut fractions = Vec::new();
    let mut firsts = Vec::new();
    let mut totals = Vec::new();
    for q in queries.iter().take(ONLINE_QUERIES) {
        let t = Instant::now();
        let mut first: Option<f64> = None;
        let ans = conn
            .run_online_plan(q, sampling_rate, epsilon, delta, ONLINE_ROUNDS, |_s| {
                if first.is_none() {
                    first = Some(t.elapsed().as_secs_f64() * 1e3);
                }
            })
            .expect("online plan");
        let total = t.elapsed().as_secs_f64() * 1e3;
        rounds_ok &= ans.snapshots().map(<[_]>::len) == Some(ONLINE_ROUNDS as usize);
        let first = first.expect("at least one pushed snapshot");
        fractions.push(first / total.max(1e-9));
        firsts.push(first);
        totals.push(total);
    }
    let first_snapshot_fraction = mean(&fractions);
    let first_snapshot_ms = mean(&firsts);
    let online_total_ms = mean(&totals);

    drop(conn);
    server.shutdown();

    for (stage, metric, value) in [
        ("ingest", "batches", BATCHES.to_string()),
        ("ingest", "rows", accepted.to_string()),
        ("ingest", "rows_per_sec", fmt_f(ingest_rows_per_sec, 1)),
        ("ingest", "epochs", epochs.to_string()),
        ("ingest", "refreshes", refreshes.to_string()),
        ("queries", "pre_ingest_qps", fmt_f(pre_qps, 1)),
        ("queries", "post_ingest_qps", fmt_f(live_qps, 1)),
        (
            "queries",
            "post_p50_ms",
            fmt_f(post.percentile(50.0) * 1e3, 3),
        ),
        (
            "queries",
            "post_p95_ms",
            fmt_f(post.percentile(95.0) * 1e3, 3),
        ),
        ("online", "rounds", ONLINE_ROUNDS.to_string()),
        ("online", "first_snapshot_ms", fmt_f(first_snapshot_ms, 3)),
        ("online", "total_ms", fmt_f(online_total_ms, 3)),
        (
            "online",
            "first_fraction",
            fmt_f(first_snapshot_fraction, 3),
        ),
    ] {
        table.push_row(vec![stage.to_string(), metric.to_string(), value]);
    }

    // Machine-readable summary for CI (`bench_gate` reads the
    // ingest_rows_per_sec / refreshes / live_qps / online_rounds_ok /
    // first_snapshot_fraction keys).
    let json = format!(
        "{{\n  \"schema\": \"{STREAM_SCHEMA}\",\n  \"dataset\": \"{}\",\n  \
         \"queries\": {},\n  \"batches\": {},\n  \"stream_rows\": {},\n  \
         \"ingest_rows_per_sec\": {:.3},\n  \"epochs\": {},\n  \"refreshes\": {},\n  \
         \"pre_qps\": {:.3},\n  \"live_qps\": {:.3},\n  \"live_p50_ms\": {:.4},\n  \
         \"live_p95_ms\": {:.4},\n  \"online_rounds\": {},\n  \"online_rounds_ok\": {},\n  \
         \"first_snapshot_ms\": {:.4},\n  \"online_total_ms\": {:.4},\n  \
         \"first_snapshot_fraction\": {:.4}\n}}\n",
        DatasetKind::Adult.name(),
        queries.len(),
        BATCHES,
        accepted,
        ingest_rows_per_sec,
        epochs,
        refreshes,
        pre_qps,
        live_qps,
        post.percentile(50.0) * 1e3,
        post.percentile(95.0) * 1e3,
        ONLINE_ROUNDS,
        i32::from(rounds_ok),
        first_snapshot_ms,
        online_total_ms,
        first_snapshot_fraction,
    );
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("[stream] cannot create {}: {e}", ctx.out_dir.display());
    }
    let path = ctx.out_dir.join("BENCH_stream.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[stream] wrote {}", path.display()),
        Err(e) => eprintln!("[stream] json write failed: {e}"),
    }
    vec![table]
}
