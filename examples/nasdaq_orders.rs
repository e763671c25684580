//! Financial analytics: the paper's §3 example — "a big database
//! aggregating per-stock order data for the NASDAQ exchange, [COUNT and
//! SUM] queries are typically used to analyze order data from past days."
//!
//! Four brokerages hold order flow for the same market; an analyst studies
//! volume patterns over price/size/time ranges with SUM(Measure) queries
//! (the tensor's measure counts orders per (symbol-bucket, price-bucket,
//! size-bucket, minute) cell), comparing the SMC release mode against
//! local-DP noise.
//!
//! ```sh
//! cargo run --release --example nasdaq_orders
//! ```

use fedaqp::core::{relative_error, Federation, FederationConfig, ReleaseMode};
use fedaqp::model::{Aggregate, CountTensor, Dimension, Domain, QueryBuilder, Row, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesizes one brokerage's raw orders and aggregates them into the
/// shared count-tensor schema.
fn brokerage_orders(
    schema: &Schema,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let raw: Vec<Row> = (0..n)
        .map(|_| {
            let symbol = rng.gen_range(0..200i64); // symbol bucket
                                                   // Price bucket: log-normal-ish concentration in the mid range.
            let price = ((rng.gen_range(0.0f64..1.0) + rng.gen_range(0.0f64..1.0)) * 50.0) as i64;
            // Order size bucket: heavy-tailed, most orders small.
            let size = (rng.gen_range(0.0f64..1.0).powi(3) * 49.0) as i64;
            let minute = rng.gen_range(0..390i64); // trading day minutes
            Row::raw(vec![symbol, price.min(99), size, minute])
        })
        .collect();
    let keep: Vec<usize> = (0..schema.arity()).collect();
    let tensor = CountTensor::aggregate(schema, &raw, &keep)?;
    Ok(tensor.into_cells())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::new(vec![
        Dimension::new("symbol_bucket", Domain::new(0, 199)?),
        Dimension::new("price_bucket", Domain::new(0, 99)?),
        Dimension::new("size_bucket", Domain::new(0, 49)?),
        Dimension::new("minute", Domain::new(0, 389)?),
    ])?;

    let mut rng = StdRng::seed_from_u64(93);
    let partitions: Vec<Vec<Row>> = (0..4)
        .map(|_| brokerage_orders(&schema, &mut rng, 250_000))
        .collect::<Result<_, _>>()?;
    let total_orders: u64 = partitions.iter().flatten().map(|c| c.measure()).sum();
    println!("federated order book: {total_orders} orders across 4 brokerages");

    let queries = [
        ("morning small-lot volume", {
            QueryBuilder::new(&schema, Aggregate::Sum)
                .range("minute", 0, 60)?
                .range("size_bucket", 0, 9)?
                .build()?
        }),
        ("mid-price volume across the day", {
            QueryBuilder::new(&schema, Aggregate::Sum)
                .range("price_bucket", 30, 70)?
                .build()?
        }),
        ("close-auction large orders", {
            QueryBuilder::new(&schema, Aggregate::Sum)
                .range("minute", 330, 389)?
                .range("size_bucket", 20, 49)?
                .build()?
        }),
    ];

    for mode in [ReleaseMode::LocalDp, ReleaseMode::Smc] {
        let mut config = FederationConfig::paper_default(1000);
        config.release_mode = mode;
        let federation = Federation::build(config, schema.clone(), partitions.clone())?;
        println!("\n-- release mode: {mode:?} --");
        for (title, query) in &queries {
            let ans = federation.run(query, 0.10)?;
            let exact = federation.exact(query);
            println!(
                "{title:<34} exact {exact:>9}  private {:>11.0}  err {:>6.2}%  noise {:>+9.0}",
                ans.answer.value,
                100.0 * relative_error(exact, ans.answer.value),
                ans.answer.value - ans.raw_estimate,
            );
        }
    }
    println!(
        "\nSMC releases a single Laplace noise on the oblivious sum, so its \
         noise column is typically tighter than local-DP's four summed noises (Fig. 8)."
    );
    Ok(())
}
