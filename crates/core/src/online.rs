//! Online (progressive) aggregation (extension; §2 related work).
//!
//! Hellerstein-style online aggregation "provides a quick initial answer
//! with a certain error, refining it as processing continues". The
//! federation supports a private variant as a plan shape
//! ([`fedaqp_model::QueryPlan::Online`], compiled in [`crate::plan`]): the
//! analyst asks for `k` snapshots; snapshot `i` samples at `i/k` of the
//! terminal rate and is released under `(ε/k, δ/k)` by sequential
//! composition — the earlier answers are cheaper and noisier, the last
//! one matches a plain single-release run at `ε/k`.
//!
//! Each snapshot also carries the Hansen–Hurwitz confidence half-width of
//! the *pre-noise* estimate (a sampling-error indicator; it is derived
//! from the released sample structure, not from raw data beyond what the
//! release already reveals, and is reported for interpretability).
//!
//! What lives here is the analyst-side post-processing of those snapshots.

use crate::plan::PlanSnapshot;

/// Inverse-variance-weighted combination of the snapshots: since each
/// release is an independent noisy estimate of the same quantity, the
/// analyst can post-process them (free under DP) into one answer more
/// accurate than the last snapshot alone. Later snapshots use larger
/// samples, so they are weighted by their sample fraction.
pub fn combine_snapshots(snapshots: &[PlanSnapshot]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for s in snapshots {
        let w = s.sample_fraction;
        num += w * s.value;
        den += w;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::federation::Federation;
    use crate::plan::PlanAnswer;
    use crate::protocol::relative_error;
    use crate::Result;
    use fedaqp_model::{Aggregate, Dimension, Domain, QueryPlan, Range, RangeQuery, Row, Schema};

    fn federation() -> Federation {
        let schema = Schema::new(vec![Dimension::new("x", Domain::new(0, 99).unwrap())]).unwrap();
        let partitions: Vec<Vec<Row>> = (0..4)
            .map(|p| {
                (0..2000)
                    .map(|i| Row::cell(vec![((i * 3 + p) % 100) as i64], 1))
                    .collect()
            })
            .collect();
        let mut cfg = FederationConfig::paper_default(64);
        cfg.cost_model = fedaqp_smc::CostModel::zero();
        Federation::build(cfg, schema, partitions).unwrap()
    }

    fn query() -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, 10, 80).unwrap()]).unwrap()
    }

    /// One online plan on a fresh engine scope.
    fn online(fed: &Federation, rate: f64, epsilon: f64, rounds: usize) -> Result<PlanAnswer> {
        let plan = QueryPlan::Online {
            query: query(),
            sampling_rate: rate,
            epsilon,
            delta: 1e-3,
            rounds,
        };
        fed.with_engine(|engine| engine.run_plan(&plan))
    }

    #[test]
    fn produces_requested_rounds_with_growing_samples() {
        let fed = federation();
        let ans = online(&fed, 0.3, 40.0, 5).unwrap();
        let snapshots = ans.snapshots().unwrap();
        assert_eq!(snapshots.len(), 5);
        for w in snapshots.windows(2) {
            assert!(w[1].sample_fraction > w[0].sample_fraction);
        }
        assert!((ans.cost.eps - 40.0).abs() < 1e-12);
        // Final snapshot reasonably close under the loose budget.
        let err = relative_error(fed.exact(&query()), ans.value().unwrap());
        assert!(err < 0.5, "final snapshot error {err}");
    }

    #[test]
    fn combined_estimate_is_finite_and_reasonable() {
        let fed = federation();
        let ans = online(&fed, 0.3, 40.0, 4).unwrap();
        let combined = combine_snapshots(ans.snapshots().unwrap());
        assert!(combined.is_finite());
        let err = relative_error(fed.exact(&query()), combined);
        assert!(err < 0.5, "combined error {err}");
    }

    #[test]
    fn single_round_equals_plain_run_cost() {
        let ans = online(&federation(), 0.2, 1.0, 1).unwrap();
        let snapshots = ans.snapshots().unwrap();
        assert_eq!(snapshots.len(), 1);
        assert!((snapshots[0].sample_fraction - 1.0).abs() < 1e-12);
        assert!((ans.cost.eps - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let fed = federation();
        assert!(online(&fed, 0.2, 1.0, 0).is_err());
        assert!(online(&fed, 0.2, 0.0, 3).is_err());
    }

    #[test]
    fn empty_combination_is_zero() {
        assert_eq!(combine_snapshots(&[]), 0.0);
    }
}
