//! Private MIN/MAX queries (extension; §7: "to handle other aggregations
//! (such as Min, Max and Mode), different estimators are required").
//!
//! MIN/MAX have unbounded global sensitivity under Laplace, so the
//! standard private approach is an **Exponential-mechanism selection over
//! the domain**, scored by rank counts: for MAX, `score(v) = #rows ≥ v`
//! (monotone, sensitivity 1). The federation already stores exactly those
//! tail counts in its Algorithm 1 metadata, so each provider answers from
//! metadata alone — no data scan — and the aggregator combines the
//! per-provider selections by post-processing (max of DP outputs for MAX,
//! min for MIN).
//!
//! This module is the per-provider half: a [`fedaqp_model::QueryPlan::Extreme`]
//! compiles to one metadata-only engine job, so
//! every provider's selection runs as its own turn under the
//! per-`(query, provider)` derived RNG — deterministic regardless of how
//! jobs interleave, and identical whether the plan arrives in-process or
//! over the wire.

use fedaqp_dp::ExponentialMechanism;
use fedaqp_model::{Extreme, Value};
use rand::rngs::StdRng;

use crate::Result;

/// Scores every domain value for one provider from its metadata.
///
/// The rank-target utility: for MAX, `u(v) = −| (#rows ≥ v) − 1 |` — zero
/// exactly where the upper tail holds one row (the maximum when it is
/// unique), decaying linearly on both sides; symmetrically for MIN with
/// the lower tail. Tail counts move by at most 1 when one row is
/// added/removed, so `Δu = 1`. When the true extreme is heavily
/// duplicated, unoccupied values just beyond it (score −1) may outscore it
/// — a known, privacy-benign bias of rank-target selection (the release
/// drifts marginally outward, never inward into dense data).
fn provider_scores(
    provider: &crate::provider::DataProvider,
    dim: usize,
    extreme: Extreme,
) -> Vec<f64> {
    let domain = provider
        .store()
        .schema()
        .dimension(dim)
        .expect("validated dimension")
        .domain();
    let metas = provider.meta().clusters();
    let total: u64 = provider.store().total_rows() as u64;
    domain
        .iter()
        .map(|v| {
            let tail: u64 = match extreme {
                Extreme::Max => metas
                    .iter()
                    .map(|m| m.dims()[dim].tail_count(v) as u64)
                    .sum(),
                Extreme::Min => {
                    let geq_next: u64 = metas
                        .iter()
                        .map(|m| m.dims()[dim].tail_count(fedaqp_model::value::succ(v)) as u64)
                        .sum();
                    total - geq_next
                }
            };
            -((tail as f64) - 1.0).abs()
        })
        .collect()
}

/// One provider's DP extreme selection: scores from metadata, one
/// Exponential-mechanism draw from `rng` (the engine passes the job's
/// derived RNG). Runs as the provider's turn of an extreme job.
pub(crate) fn provider_select(
    provider: &crate::provider::DataProvider,
    dim: usize,
    extreme: Extreme,
    epsilon: f64,
    rng: &mut StdRng,
) -> Result<Value> {
    let scores = provider_scores(provider, dim, extreme);
    let mechanism = ExponentialMechanism::new(&scores, 1.0, epsilon)?;
    let idx = mechanism.select(rng);
    let domain = provider
        .store()
        .schema()
        .dimension(dim)
        .expect("validated dimension")
        .domain();
    Ok(domain.min() + idx as Value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::federation::Federation;
    use fedaqp_model::{Dimension, Domain, QueryPlan, Row, Schema};

    fn federation() -> Federation {
        let schema = Schema::new(vec![
            Dimension::new("x", Domain::new(0, 99).unwrap()),
            Dimension::new("y", Domain::new(0, 49).unwrap()),
        ])
        .unwrap();
        // Values concentrated in [10, 60] on x with a single row at 85.
        let partitions: Vec<Vec<Row>> = (0..4)
            .map(|p| {
                let mut rows: Vec<Row> = (0..400)
                    .map(|i| Row::cell(vec![10 + ((i * 3 + p) % 51) as i64, (i % 50) as i64], 1))
                    .collect();
                if p == 2 {
                    rows.push(Row::cell(vec![85, 7], 1));
                }
                rows
            })
            .collect();
        let mut cfg = FederationConfig::paper_default(64);
        cfg.cost_model = fedaqp_smc::CostModel::zero();
        Federation::build(cfg, schema, partitions).unwrap()
    }

    /// One extreme plan on a fresh engine scope.
    fn select(fed: &Federation, dim: usize, extreme: Extreme, epsilon: f64) -> Result<Value> {
        let plan = QueryPlan::Extreme {
            dim,
            extreme,
            epsilon,
        };
        let answer = fed.with_engine(|engine| engine.run_plan(&plan))?;
        assert_eq!(answer.cost.eps, epsilon);
        Ok(answer.value().expect("extreme plans release a value") as Value)
    }

    #[test]
    fn loose_budget_finds_true_extremes() {
        // True extremes by construction: max 85 (the lone row), min 10.
        let fed = federation();
        // With a huge ε the EM picks (near-)extreme values; the selection
        // is biased by the rank scores, so allow slack but require closeness.
        let max = select(&fed, 0, Extreme::Max, 500.0).unwrap();
        assert!((55..=99).contains(&max), "max selection {max} too low");
        let min = select(&fed, 0, Extreme::Min, 500.0).unwrap();
        assert!((0..=25).contains(&min), "min selection {min} too high");
    }

    #[test]
    fn tight_budget_still_returns_domain_value() {
        let value = select(&federation(), 0, Extreme::Max, 0.001).unwrap();
        assert!((0..=99).contains(&value));
    }

    #[test]
    fn rejects_bad_inputs() {
        let fed = federation();
        assert!(select(&fed, 0, Extreme::Max, 0.0).is_err());
        assert!(select(&fed, 99, Extreme::Max, 1.0).is_err());
    }

    #[test]
    fn scores_peak_at_unique_extremes() {
        let fed = federation();
        // Provider 2 holds the unique global max 85 on dim 0: its score
        // there is exactly 0 (tail = 1), the global optimum of the utility.
        let scores = provider_scores(&fed.providers()[2], 0, Extreme::Max);
        let argmax = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i as i64)
            .expect("non-empty scores");
        assert_eq!(argmax, 85);
        assert_eq!(scores[85], 0.0);
        // All scores are ≤ 0 with sensitivity-1 structure.
        assert!(scores.iter().all(|&s| s <= 0.0));
    }

    #[test]
    fn second_dimension_works_too() {
        let value = select(&federation(), 1, Extreme::Max, 200.0).unwrap();
        assert!((0..=49).contains(&value));
    }
}
