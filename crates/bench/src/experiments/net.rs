//! Remote-federation throughput experiment: queries/sec and tail latency
//! of the TCP serving path (`fedaqp-net`) vs. the number of concurrent
//! remote analysts, over loopback sockets.
//!
//! Setup mirrors the engine throughput benchmark: 4 providers under the
//! slept-WAN cost model, where every analyst *waits out* its own query's
//! simulated WAN transit after the answer arrives. A single analyst is
//! therefore transit-bound; N analysts on N connections overlap their
//! transits against one engine, so remote throughput must scale with the
//! analyst count — the property the `scaling` gate row pins (a floor on
//! 8 analysts' qps over one analyst's). Latency stays flat: the per-query
//! p50/p95 at 8 analysts should match the single-analyst numbers, because
//! the server pipelines rather than queues.
//!
//! Emits `BENCH_net.json` (headline keys `single_qps`, `net_qps`,
//! `scaling`) next to the CSV, compared in CI against the committed
//! `BENCH_net_baseline.json`.

use std::time::Instant;

use fedaqp_model::Aggregate;
use fedaqp_net::{LoopbackServer, RemoteFederation, ServeOptions};
use fedaqp_obs::Histogram;
use fedaqp_smc::CostModel;

use crate::gate::NET_SCHEMA;
use crate::report::{fmt_f, Table};
use crate::setup::{build_testbed, filtered_workload, DatasetKind, ExperimentContext};

/// Concurrent remote-analyst counts swept.
const ANALYSTS: [usize; 4] = [1, 2, 4, 8];
/// The analyst count the JSON headline (and the CI gate) reads.
const HEADLINE_ANALYSTS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Trial {
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Runs the loopback sweep and writes `BENCH_net.json`.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let mut table = Table::new(
        "remote federation — queries/sec vs #remote analysts (Adult, loopback TCP)",
        &[
            "analysts",
            "queries",
            "wall_ms",
            "qps",
            "p50_ms",
            "p95_ms",
            "scaling_vs_1",
        ],
    );
    // Enough queries that 8 analysts each see several.
    let n_queries = ctx.queries.max(2 * ANALYSTS[ANALYSTS.len() - 1]);
    let sampling_rate = DatasetKind::Adult.default_sampling_rate();
    let testbed = build_testbed(DatasetKind::Adult, ctx, |cfg| {
        cfg.cost_model = CostModel::wan();
    });
    let queries = filtered_workload(&testbed, 2, Aggregate::Count, n_queries, ctx.seed ^ 0x6E65);

    let mut grid_json: Vec<String> = Vec::new();
    let mut single: Option<Trial> = None;
    let mut headline: Option<Trial> = None;

    testbed.federation.with_engine(|engine| {
        let server = LoopbackServer::analyst(engine.clone(), ServeOptions::unlimited())
            .expect("bind loopback server");

        for &analysts in &ANALYSTS {
            // Analysts record into a shared lock-free obs histogram — the
            // same implementation that backs the engine's live telemetry.
            let latencies = Histogram::new();
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for analyst in 0..analysts {
                    let addr = server.addr();
                    let queries = &queries;
                    let latencies = &latencies;
                    scope.spawn(move || {
                        let mut conn =
                            RemoteFederation::connect_as(addr, &format!("bench-{analyst}"))
                                .expect("connect");
                        for q in queries.iter().skip(analyst).step_by(analysts) {
                            let t = Instant::now();
                            let plan = conn.scalar_plan(q, sampling_rate);
                            let ans = conn.run_plan(&plan).expect("remote query");
                            // Each analyst waits out its own simulated WAN
                            // transit; other analysts' queries keep the
                            // server busy meanwhile.
                            std::thread::sleep(ans.timings.network);
                            latencies.record_duration(t.elapsed());
                        }
                    });
                }
            });
            let wall = t0.elapsed().as_secs_f64();
            let trial = Trial {
                qps: latencies.count() as f64 / wall.max(1e-9),
                p50_ms: latencies.percentile(50.0) * 1e3,
                p95_ms: latencies.percentile(95.0) * 1e3,
            };
            if analysts == 1 {
                single = Some(trial);
            }
            if analysts == HEADLINE_ANALYSTS {
                headline = Some(trial);
            }
            let scaling = trial.qps / single.expect("analysts=1 runs first").qps.max(1e-9);
            table.push_row(vec![
                analysts.to_string(),
                latencies.count().to_string(),
                fmt_f(wall * 1e3, 1),
                fmt_f(trial.qps, 1),
                fmt_f(trial.p50_ms, 3),
                fmt_f(trial.p95_ms, 3),
                fmt_f(scaling, 2),
            ]);
            grid_json.push(format!(
                "    {{\"analysts\": {analysts}, \"qps\": {:.3}, \"p50_ms\": {:.4}, \
                 \"p95_ms\": {:.4}}}",
                trial.qps, trial.p50_ms, trial.p95_ms
            ));
        }

        server.shutdown();
    });

    // Machine-readable summary for CI (`bench_gate` reads the net_qps /
    // scaling keys; the grid is for dashboards).
    if let (Some(single), Some(headline)) = (single, headline) {
        let json = format!(
            "{{\n  \"schema\": \"{NET_SCHEMA}\",\n  \"dataset\": \"{}\",\n  \
             \"queries\": {},\n  \"headline_analysts\": {},\n  \"single_qps\": {:.3},\n  \
             \"net_qps\": {:.3},\n  \"scaling\": {:.3},\n  \"net_p50_ms\": {:.4},\n  \
             \"net_p95_ms\": {:.4},\n  \"grid\": [\n{}\n  ]\n}}\n",
            DatasetKind::Adult.name(),
            n_queries,
            HEADLINE_ANALYSTS,
            single.qps,
            headline.qps,
            headline.qps / single.qps.max(1e-9),
            headline.p50_ms,
            headline.p95_ms,
            grid_json.join(",\n"),
        );
        if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
            eprintln!("[net] cannot create {}: {e}", ctx.out_dir.display());
        }
        let path = ctx.out_dir.join("BENCH_net.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("[net] wrote {}", path.display()),
            Err(e) => eprintln!("[net] json write failed: {e}"),
        }
    }
    vec![table]
}
