//! Sharded-coordinator scaling experiment: queries/sec of a 2-shard
//! remote grid vs a 1-shard grid at *equal total providers*, under a
//! slept shard-uplink model, over loopback TCP.
//!
//! Both grids hold the same 8 Adult providers and answer the same
//! workload through a [`fedaqp_core::ShardedFederation`] coordinator
//! served by [`LoopbackServer::coordinator`]; only the partitioning
//! differs — one engine of 8 providers behind one uplink, or two
//! engines of 4 behind an uplink each. Every data-bearing reply a shard
//! sends (fragment summaries, fragment partials) occupies that shard's
//! simulated uplink for its transfer time ([`RemoteShard::with_uplink`],
//! one virtual-clock [`Uplink`] per shard; the coordinator sleeps until
//! the latest arrival), with a bandwidth low enough that the
//! uplinks — not the engines — are the bottleneck. Splitting the
//! providers across two shards halves each reply and sends the halves
//! in parallel, so with 16 concurrent analysts pipelining queries the
//! 2-shard grid must approach 2× the 1-shard throughput. That is the
//! scaling property the `scaling` gate row pins: it fails if the
//! coordinator ever starts serializing the gather across shards.
//!
//! Emits `BENCH_shard.json` (headline keys `one_shard_qps`,
//! `two_shard_qps`, `scaling`), compared in CI against the committed
//! `BENCH_shard_baseline.json`.

use std::time::{Duration, Instant};

use fedaqp_core::{
    Federation, FederationConfig, FederationEngine, ShardBackend, ShardedFederation,
};
use fedaqp_data::{partition_rows, PartitionMode};
use fedaqp_model::Aggregate;
use fedaqp_net::{LoopbackServer, RemoteFederation, RemoteShard, ServeOptions, Uplink};
use fedaqp_obs::Histogram;
use fedaqp_smc::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gate::SHARD_SCHEMA;
use crate::report::{fmt_f, Table};
use crate::setup::{filtered_workload, generate_dataset, DatasetKind, ExperimentContext, Testbed};

/// Total providers, held constant across grids.
const PROVIDERS: usize = 8;
/// Concurrent remote analysts pipelining queries through the coordinator.
/// Uplink sleeps are tens of ms, so keeping both uplinks of the 2-shard
/// grid saturated (the coordinator gathers each query's replies from
/// all shards in parallel) needs well more in-flight queries than
/// shards; 16 analysts measure ~1.7× scaling.
const ANALYSTS: usize = 16;
/// Shard counts compared (the JSON headline is 2-vs-1).
const SHARDS: [usize; 2] = [1, 2];

/// The simulated shard→coordinator uplink: latency low, bandwidth low
/// enough that reply *bytes* dominate. `round_time` over a fragment
/// partial for 8 providers is ~20 ms at 15 kB/s, so the uplink — not
/// engine compute (sub-ms) or loopback TCP — bounds throughput, and the
/// 1-vs-2-shard ratio tracks the reply-size ratio machine-independently.
fn uplink_model() -> CostModel {
    CostModel {
        latency: Duration::from_micros(200),
        bandwidth_bytes_per_sec: 15_000.0,
        ns_per_gate: 500,
        bytes_per_share: 8,
    }
}

#[derive(Debug, Clone, Copy)]
struct Trial {
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Runs the grid comparison and writes `BENCH_shard.json`.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let mut table = Table::new(
        "sharded coordinator — 2-shard vs 1-shard grid at 8 total providers (slept uplinks)",
        &[
            "shards",
            "providers",
            "queries",
            "wall_ms",
            "qps",
            "p50_ms",
            "p95_ms",
            "scaling_vs_1",
        ],
    );
    // Several queries per analyst, so pipeline ramp-up/drain does not
    // dominate the wall time at 16 concurrent connections.
    let n_queries = ctx.queries.max(6 * ANALYSTS);
    let sampling_rate = DatasetKind::Adult.default_sampling_rate();

    // One dataset, one partitioning: both grids serve exactly these 8
    // providers. Engines run the zero cost model — the slept uplink *is*
    // the simulated network here, and it lives on the coordinator side.
    let dataset = generate_dataset(DatasetKind::Adult, ctx);
    let cells_per_provider = dataset.cells.len().div_ceil(PROVIDERS);
    let capacity = ((cells_per_provider as f64 * DatasetKind::Adult.cluster_fraction()).round()
        as usize)
        .max(32);
    let mut cfg = FederationConfig::paper_default(capacity);
    cfg.n_providers = PROVIDERS;
    cfg.seed = ctx.seed;
    cfg.cost_model = CostModel::zero();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5117);
    let partitions = partition_rows(
        &mut rng,
        dataset.cells.clone(),
        PROVIDERS,
        &PartitionMode::Equal,
    )
    .expect("partitioning");

    // Workload selection wants a queryable federation; build a throwaway
    // unsharded one over the same partitions (dropped before timing).
    let queries = {
        let selector = Testbed {
            federation: Federation::build(cfg.clone(), dataset.schema.clone(), partitions.clone())
                .expect("selector federation"),
            truth: dataset.cells.clone(),
            kind: DatasetKind::Adult,
        };
        filtered_workload(&selector, 2, Aggregate::Count, n_queries, ctx.seed ^ 0x5A4D)
    };

    let mut one_shard: Option<Trial> = None;
    let mut headline: Option<Trial> = None;

    for &n_shards in &SHARDS {
        eprintln!("[shard] spawning {n_shards}-shard grid ({PROVIDERS} providers total)…");
        // Contiguous split with lane offsets — the same arithmetic the
        // in-process coordinator uses, so the two grids draw identical
        // noise streams.
        let mut engines = Vec::with_capacity(n_shards);
        let mut servers = Vec::with_capacity(n_shards);
        let (base, extra) = (PROVIDERS / n_shards, PROVIDERS % n_shards);
        let mut offset = 0usize;
        for s in 0..n_shards {
            let k = base + usize::from(s < extra);
            let mut shard_cfg = cfg.clone();
            shard_cfg.n_providers = k;
            shard_cfg.provider_lane_base = cfg.provider_lane_base + offset as u64;
            let slice: Vec<_> = partitions[offset..offset + k].to_vec();
            let engine = FederationEngine::start(
                Federation::build(shard_cfg, dataset.schema.clone(), slice)
                    .expect("shard federation"),
            );
            servers.push(LoopbackServer::shard(engine.handle()).expect("bind shard server"));
            engines.push(engine);
            offset += k;
        }
        let backends: Vec<Box<dyn ShardBackend>> = servers
            .iter()
            .map(|server| {
                let shard = RemoteShard::connect(server.addr())
                    .expect("connect shard")
                    // One link *per shard*: each shard owns its uplink,
                    // so a 2-shard grid has twice the aggregate reply
                    // bandwidth of the 1-shard grid.
                    .with_uplink(Uplink::new(uplink_model()));
                Box::new(shard) as Box<dyn ShardBackend>
            })
            .collect();
        let coordinator =
            ShardedFederation::from_backends(cfg.clone(), dataset.schema.clone(), backends)
                .expect("coordinator");
        let front = LoopbackServer::coordinator(coordinator, ServeOptions::unlimited())
            .expect("bind coordinator");

        // Analysts record into a shared lock-free obs histogram — the same
        // implementation that backs the coordinator's live telemetry.
        let latencies = Histogram::new();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for analyst in 0..ANALYSTS {
                let addr = front.addr();
                let queries = &queries;
                let latencies = &latencies;
                scope.spawn(move || {
                    let mut conn = RemoteFederation::connect_as(addr, &format!("bench-{analyst}"))
                        .expect("connect");
                    for q in queries.iter().skip(analyst).step_by(ANALYSTS) {
                        let t = Instant::now();
                        conn.run_plan(&conn.scalar_plan(q, sampling_rate))
                            .expect("remote query");
                        latencies.record_duration(t.elapsed());
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();

        front.shutdown();
        for server in servers {
            server.shutdown();
        }
        for engine in engines {
            let _ = engine.shutdown();
        }

        let trial = Trial {
            qps: latencies.count() as f64 / wall.max(1e-9),
            p50_ms: latencies.percentile(50.0) * 1e3,
            p95_ms: latencies.percentile(95.0) * 1e3,
        };
        if n_shards == 1 {
            one_shard = Some(trial);
        } else {
            headline = Some(trial);
        }
        let scaling = trial.qps / one_shard.expect("1-shard grid runs first").qps.max(1e-9);
        eprintln!(
            "[shard] {n_shards}-shard grid: {:.1} qps (scaling {:.2}x)",
            trial.qps, scaling
        );
        table.push_row(vec![
            n_shards.to_string(),
            format!("{n_shards}x{}", PROVIDERS / n_shards),
            latencies.count().to_string(),
            fmt_f(wall * 1e3, 1),
            fmt_f(trial.qps, 1),
            fmt_f(trial.p50_ms, 3),
            fmt_f(trial.p95_ms, 3),
            fmt_f(scaling, 2),
        ]);
    }

    // Machine-readable summary for CI (`bench_gate` reads the
    // one_shard_qps / two_shard_qps / scaling keys).
    if let (Some(one), Some(two)) = (one_shard, headline) {
        let json = format!(
            "{{\n  \"schema\": \"{SHARD_SCHEMA}\",\n  \"dataset\": \"{}\",\n  \
             \"providers\": {},\n  \"analysts\": {},\n  \"queries\": {},\n  \
             \"one_shard_qps\": {:.3},\n  \"two_shard_qps\": {:.3},\n  \"scaling\": {:.3},\n  \
             \"two_shard_p50_ms\": {:.4},\n  \"two_shard_p95_ms\": {:.4}\n}}\n",
            DatasetKind::Adult.name(),
            PROVIDERS,
            ANALYSTS,
            n_queries,
            one.qps,
            two.qps,
            two.qps / one.qps.max(1e-9),
            two.p50_ms,
            two.p95_ms,
        );
        if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
            eprintln!("[shard] cannot create {}: {e}", ctx.out_dir.display());
        }
        let path = ctx.out_dir.join("BENCH_shard.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("[shard] wrote {}", path.display()),
            Err(e) => eprintln!("[shard] json write failed: {e}"),
        }
    }
    vec![table]
}
