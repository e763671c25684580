//! Quickstart: build a four-provider federation over synthetic census data
//! and answer one private range query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fedaqp::core::{relative_error, Federation, FederationConfig};
use fedaqp::data::{partition_rows, AdultConfig, AdultSynth, PartitionMode};
use fedaqp::model::{Aggregate, QueryBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data: an Adult-like count tensor (stand-in for each provider's
    //    private census extract), split horizontally over four providers.
    let dataset = AdultSynth::generate(AdultConfig {
        n_rows: 600_000,
        seed: 42,
    })?;
    println!(
        "dataset: {} raw rows aggregated into {} tensor cells",
        dataset.raw_rows,
        dataset.cells.len()
    );
    let mut rng = StdRng::seed_from_u64(7);
    let partitions = partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal)?;

    // 2. Federation: the paper's §6.1 defaults — per-query budget ε = 1,
    //    δ = 1e-3 split (0.1, 0.1, 0.8) across allocation/sampling/release.
    let capacity = 1500; // cluster size S (≈1% of a provider's partition)
    let config = FederationConfig::paper_default(capacity);
    let federation = Federation::build(config, dataset.schema.clone(), partitions)?;

    // 3. Query: COUNT of cells for prime-age, full-time workers.
    let query = QueryBuilder::new(federation.schema(), Aggregate::Count)
        .range("age", 25, 55)?
        .range("hours_per_week", 35, 60)?
        .build()?;
    println!("query:   {}", query.display_sql(federation.schema()));

    // 4. Run privately at a 10% sampling rate, and plainly as the baseline
    //    (whose exact sum doubles as the experiment oracle — the private
    //    answer never carries one).
    let plain = federation.run_plain(&query)?;
    let answer = federation.run(&query, 0.10)?;

    println!("exact answer        : {}", plain.value);
    println!("private answer      : {:.0}", answer.value);
    println!(
        "relative error      : {:.2}%",
        100.0 * relative_error(plain.value, answer.value)
    );
    println!(
        "privacy cost        : (ε = {:.2}, δ = {:.0e})",
        answer.cost.eps, answer.cost.delta
    );
    println!(
        "clusters scanned    : {} of {} covering",
        answer.clusters_scanned, answer.covering_total
    );
    println!(
        "latency             : private {:?} vs plain {:?} (speed-up {:.2}x)",
        answer.timings.total(),
        plain.duration,
        plain.duration.as_secs_f64() / answer.timings.total().as_secs_f64()
    );
    Ok(())
}
