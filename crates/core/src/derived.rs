//! Behaviour tests of the derived-statistic plan shape
//! ([`fedaqp_model::QueryPlan::Derived`], compiled in [`crate::plan`]).

mod tests {
    use fedaqp_model::{Aggregate, DerivedStatistic, QueryPlan, RangeQuery};

    use crate::federation::Federation;
    use crate::plan::tests::{base, federation};
    use crate::plan::PlanAnswer;
    use crate::{CoreError, Result};

    /// One derived plan over `base()` on a fresh engine scope.
    fn derived(fed: &Federation, statistic: DerivedStatistic, epsilon: f64) -> Result<PlanAnswer> {
        let plan = QueryPlan::Derived {
            query: base(),
            statistic,
            sampling_rate: 0.3,
            epsilon,
            delta: 1e-3,
        };
        fed.with_engine(|engine| engine.run_plan(&plan))
    }

    #[test]
    fn average_tracks_exact_under_loose_budget() {
        let fed = federation(1.0);
        let ans = derived(&fed, DerivedStatistic::Average, 100.0).unwrap();
        let value = ans.value().unwrap();
        let over = |aggregate| RangeQuery::new(aggregate, base().ranges().to_vec()).unwrap();
        let exact =
            fed.exact(&over(Aggregate::Sum)) as f64 / fed.exact(&over(Aggregate::Count)) as f64;
        assert!(
            (value - exact).abs() < 0.3 * exact,
            "avg {value} vs exact {exact}"
        );
        // AVG of measures 1..=3 lies in [1, 3].
        assert!(exact > 0.9 && exact < 3.1);
    }

    #[test]
    fn cost_is_sequential_over_sub_queries() {
        let fed = federation(1.0);
        let ans = derived(&fed, DerivedStatistic::Average, 2.0).unwrap();
        assert!((ans.cost.eps - 2.0).abs() < 1e-9, "eps {}", ans.cost.eps);
        assert!((ans.cost.delta - 1e-3).abs() < 1e-12);
        let ans = derived(&fed, DerivedStatistic::Variance, 3.0).unwrap();
        assert!((ans.cost.eps - 3.0).abs() < 1e-9);
    }

    #[test]
    fn variance_and_std_consistent() {
        // VAR and STD under one budget compile to the same three
        // sub-queries — the same noise lanes on identically seeded scopes —
        // and differ only in the post-processing.
        let fed = federation(1.0);
        let var = derived(&fed, DerivedStatistic::Variance, 50.0).unwrap();
        let std = derived(&fed, DerivedStatistic::StdDev, 50.0).unwrap();
        let (var, std) = (var.value().unwrap(), std.value().unwrap());
        assert!(var >= 0.0);
        assert!(std >= 0.0);
        assert!((std * std - var).abs() < 1e-9 * var.max(1.0));
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(matches!(
            derived(&federation(1.0), DerivedStatistic::Average, 0.0),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn sub_query_counts() {
        assert_eq!(DerivedStatistic::Average.sub_queries(), 2);
        assert_eq!(DerivedStatistic::Variance.sub_queries(), 3);
        assert_eq!(DerivedStatistic::StdDev.sub_queries(), 3);
    }
}
