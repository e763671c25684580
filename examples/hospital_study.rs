//! Federated health study: the paper's motivating scenario (§1) — several
//! hospitals jointly analyse patient data during a pandemic without any of
//! them disclosing individual records.
//!
//! Four hospitals of very different sizes hold admissions records
//! (age, severity, ward, stay length, comorbidities). An epidemiologist
//! runs a sequence of range queries through the private federation under a
//! total budget (ξ, ψ); the accountant cuts her off when it is spent.
//!
//! ```sh
//! cargo run --release --example hospital_study
//! ```

use fedaqp::core::{relative_error, ConcurrentSession, Federation, FederationConfig, SessionPlan};
use fedaqp::model::{Aggregate, Dimension, Domain, QueryBuilder, Row, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesizes one hospital's admissions as count-tensor cells.
fn hospital_records(rng: &mut StdRng, n: usize, severity_bias: f64) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let age: i64 = {
                // Elderly-skewed admissions.
                let base: f64 = rng.gen_range(0.0..1.0f64);
                (20.0 + 70.0 * base.sqrt()) as i64
            };
            let severity = ((rng.gen_range(0.0..1.0f64) * severity_bias * 4.0) as i64).min(4);
            let ward = rng.gen_range(0..6i64);
            let stay = (rng.gen_range(0.0f64..1.0).powi(2) * 29.0) as i64 + 1;
            let comorb = rng.gen_range(0..5i64);
            Row::raw(vec![age, severity, ward, stay, comorb])
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::new(vec![
        Dimension::new("age", Domain::new(20, 90)?),
        Dimension::new("severity", Domain::new(0, 4)?),
        Dimension::new("ward", Domain::new(0, 5)?),
        Dimension::new("stay_days", Domain::new(1, 30)?),
        Dimension::new("comorbidities", Domain::new(0, 4)?),
    ])?;

    // Four hospitals: one university clinic and three regional ones.
    let mut rng = StdRng::seed_from_u64(2024);
    let partitions = vec![
        hospital_records(&mut rng, 120_000, 1.2),
        hospital_records(&mut rng, 40_000, 0.9),
        hospital_records(&mut rng, 30_000, 1.0),
        hospital_records(&mut rng, 15_000, 0.8),
    ];
    for (i, p) in partitions.iter().enumerate() {
        println!("hospital {i}: {} admissions", p.len());
    }

    let mut config = FederationConfig::paper_default(300);
    config.epsilon = 1.0;
    config.delta = 1e-3;
    let federation = Federation::build(config, schema, partitions)?;

    let studies = [
        ("elderly severe cases", {
            QueryBuilder::new(federation.schema(), Aggregate::Count)
                .range("age", 65, 90)?
                .range("severity", 3, 4)?
                .build()?
        }),
        ("long stays in ICU-like wards", {
            QueryBuilder::new(federation.schema(), Aggregate::Count)
                .range("ward", 0, 1)?
                .range("stay_days", 14, 30)?
                .build()?
        }),
        ("mid-age multi-morbidity admissions", {
            QueryBuilder::new(federation.schema(), Aggregate::Count)
                .range("age", 40, 64)?
                .range("comorbidities", 2, 4)?
                .build()?
        }),
        ("mild short stays", {
            QueryBuilder::new(federation.schema(), Aggregate::Count)
                .range("severity", 0, 1)?
                .range("stay_days", 1, 3)?
                .build()?
        }),
        ("all severe admissions", {
            QueryBuilder::new(federation.schema(), Aggregate::Count)
                .range("severity", 3, 4)?
                .build()?
        }),
        // This sixth query must be rejected: the budget is spent.
        ("one query too many", {
            QueryBuilder::new(federation.schema(), Aggregate::Count)
                .range("age", 20, 90)?
                .build()?
        }),
    ];

    federation.with_engine(|engine| -> Result<(), Box<dyn std::error::Error>> {
        // The epidemiologist's total budget: ξ = 5 → five ε = 1 queries. The
        // session charges before any provider touches data.
        let session = ConcurrentSession::open(engine.clone(), 5.0, 1e-2, SessionPlan::PayAsYouGo)?;
        for (title, query) in &studies {
            match session.query(query, 0.15) {
                Ok(ans) => {
                    // The exact answer is the experiment oracle, never released.
                    let exact = federation.exact(query);
                    println!(
                        "{title:<38} exact {exact:>8}  private {:>10.0}  err {:>6.2}%  (ξ left: {:.1})",
                        ans.value,
                        100.0 * relative_error(exact, ans.value),
                        session.remaining().eps,
                    );
                }
                Err(e) => println!("{title:<38} REJECTED: {e}"),
            }
        }
        Ok(())
    })
}
