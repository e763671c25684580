//! Analyst session walk-through: the §5.4 interactive model with a total
//! budget, derived aggregations (AVG — §7), private MIN/MAX (extension),
//! and persisting a provider's store between sessions.
//!
//! ```sh
//! cargo run --release --example analyst_session
//! ```

use fedaqp::core::{
    relative_error, ConcurrentSession, DerivedStatistic, Extreme, Federation, FederationConfig,
    QueryPlan, SessionPlan,
};
use fedaqp::data::{partition_rows, AmazonConfig, AmazonSynth, PartitionMode};
use fedaqp::model::{Aggregate, QueryBuilder};
use fedaqp::storage::{decode_store, encode_store};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = AmazonSynth::generate(AmazonConfig {
        n_rows: 400_000,
        seed: 3,
    })?;
    let mut rng = StdRng::seed_from_u64(8);
    let partitions = partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal)?;
    let config = FederationConfig::paper_default(500);
    let federation = Federation::build(config, dataset.schema.clone(), partitions)?;

    // --- Persist one provider's clustered table (offline artifact) ---
    let blob = encode_store(federation.providers()[0].store());
    let restored = decode_store(&blob)?;
    println!(
        "provider 0 store persisted : {} bytes for {} cells in {} clusters (round-trip ok: {})",
        blob.len(),
        restored.total_rows(),
        restored.n_clusters(),
        restored.total_measure() == federation.providers()[0].store().total_measure(),
    );

    let five_star = QueryBuilder::new(federation.schema(), Aggregate::Sum)
        .range("rating", 5, 5)?
        .build()?;
    let recent = QueryBuilder::new(federation.schema(), Aggregate::Count)
        .range("week", 150, 199)?
        .build()?;

    // Every query runs on an engine over the federation; one scope is one
    // occurrence ledger, so the repeated queries below draw fresh noise.
    federation.with_engine(|engine| -> Result<(), Box<dyn std::error::Error>> {
        // --- A plan straight on the engine (no session budget) ---
        let max_votes = engine.run_plan(&QueryPlan::Extreme {
            dim: 2,
            extreme: Extreme::Max,
            epsilon: 1.0,
        })?;
        println!(
            "private MAX(helpful_votes) : {} (ε = {})",
            max_votes.value().expect("extreme plans release a value"),
            max_votes.cost.eps
        );

        // --- An interactive session: ξ = 6 at ε = 1 per query ---
        let session = ConcurrentSession::open(engine.clone(), 6.0, 1e-2, SessionPlan::PayAsYouGo)?;
        let per_query = session.per_query_cost();
        println!(
            "\nsession opened: per-query ε = {}, budget ξ = {}",
            per_query.eps,
            session.remaining().eps
        );

        let ans = session.query(&five_star, 0.1)?;
        // The exact answer is the experiment oracle, asked for explicitly.
        let exact = federation.exact(&five_star);
        println!(
            "5★ review volume           : {:.0} (exact {exact}, err {:.2}%) — ξ left {:.1}",
            ans.value,
            100.0 * relative_error(exact, ans.value),
            session.remaining().eps
        );

        // A derived statistic is a plan: AVG = SUM/COUNT, two sub-queries.
        let avg = session.run_plan(&QueryPlan::Derived {
            query: recent.clone(),
            statistic: DerivedStatistic::Average,
            sampling_rate: 0.1,
            epsilon: 2.0 * per_query.eps,
            delta: 2.0 * per_query.delta,
        })?;
        println!(
            "AVG reviews per cell (recent weeks): {:.2} — charged 2ε, ξ left {:.1}",
            avg.value().expect("derived plans release a value"),
            session.remaining().eps
        );

        while session.can_query() {
            session.query(&five_star, 0.1)?;
            println!(
                "extra query answered        — ξ left {:.1}",
                session.remaining().eps
            );
        }
        match session.query(&five_star, 0.1) {
            Err(e) => println!("next query rejected         : {e}"),
            Ok(_) => unreachable!("budget must be exhausted"),
        }
        let spent = session.spent();
        println!(
            "session closed, spent (ε = {}, δ = {:.0e})",
            spent.eps, spent.delta
        );
        Ok(())
    })
}
