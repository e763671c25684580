//! The unified `QueryPlan` analyst API, end to end: one SQL string
//! compiled to a plan, executed on the concurrent engine, and then served
//! over a real TCP socket — with byte-identical released values.
//!
//! ```sh
//! cargo run --release --example query_plans
//! ```

use fedaqp::core::{Federation, FederationConfig, FederationEngine};
use fedaqp::data::{partition_rows, AdultConfig, AdultSynth, PartitionMode};
use fedaqp::model::{parse_sql_plan, PlanParams, QueryPlan};
use fedaqp::net::{FederationServer, RemoteFederation, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_federation() -> Result<Federation, Box<dyn std::error::Error>> {
    let dataset = AdultSynth::generate(AdultConfig {
        n_rows: 120_000,
        seed: 11,
    })?;
    let mut rng = StdRng::seed_from_u64(4);
    let partitions = partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal)?;
    let mut config = FederationConfig::paper_default(400);
    config.epsilon = 4.0;
    Ok(Federation::build(config, dataset.schema, partitions)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let federation = build_federation()?;
    let params = PlanParams {
        sampling_rate: 0.2,
        epsilon: 4.0,
        delta: 1e-3,
        threshold: 0.0,
    };

    // One SQL string drives the whole stack: group-by, derived statistic,
    // and extreme all compile to the same QueryPlan type.
    let statements = [
        "SELECT COUNT(*) FROM adult WHERE 25 <= age <= 60",
        "SELECT AVG(Measure) FROM adult WHERE 25 <= age <= 60",
        "SELECT COUNT(*) FROM adult WHERE 25 <= age <= 60 GROUP BY workclass",
        "SELECT MAX(hours_per_week) FROM adult",
    ];
    let plans: Vec<QueryPlan> = statements
        .iter()
        .map(|sql| parse_sql_plan(federation.schema(), sql, &params))
        .collect::<Result<_, _>>()?;

    // In-process: a scoped engine runs each of a plan's sub-queries on
    // this thread as the plan waits for it.
    let local: Vec<_> = federation.with_engine(|engine| {
        plans
            .iter()
            .map(|plan| engine.run_plan(plan))
            .collect::<Result<Vec<_>, _>>()
    })?;
    for (sql, answer) in statements.iter().zip(&local) {
        println!("{sql}");
        match answer.groups() {
            Some(groups) => {
                for g in groups {
                    println!("    workclass {:>2} -> {:>10.1}", g.key, g.value);
                }
            }
            None => println!("    -> {:.2}", answer.value().unwrap_or(f64::NAN)),
        }
        println!(
            "    (ε = {}, δ = {:e} for the whole plan)\n",
            answer.cost.eps, answer.cost.delta
        );
    }

    // Over the wire: the identical plans through a real server are
    // byte-identical for the same seed — the wire adds transport, never
    // arithmetic.
    let engine = FederationEngine::start(build_federation()?);
    let server = FederationServer::bind("127.0.0.1:0", engine.handle(), ServeOptions::unlimited())?;
    let mut remote = RemoteFederation::connect(&server.local_addr().to_string())?;
    println!(
        "serving on {} (wire v{})",
        server.local_addr(),
        fedaqp::net::wire::VERSION
    );
    for (plan, local_answer) in plans.iter().zip(&local) {
        let remote_answer = remote.run_plan(plan)?;
        assert_eq!(
            remote_answer.result, local_answer.result,
            "remote and in-process answers must be byte-identical"
        );
    }
    println!("remote answers byte-identical to the in-process engine ✓");

    drop(remote);
    server.shutdown();
    engine.shutdown();
    Ok(())
}
