//! Behaviour tests of the GROUP-BY plan shape
//! ([`fedaqp_model::QueryPlan::GroupBy`], compiled in [`crate::plan`]).

mod tests {
    use fedaqp_model::{Aggregate, QueryPlan, Range, RangeQuery, Row, Value};

    use crate::federation::Federation;
    use crate::plan::tests::{base, federation, group_plan};
    use crate::plan::PlanAnswer;
    use crate::{CoreError, Result};

    /// One count group-by on a fresh engine scope.
    fn group_by(
        fed: &Federation,
        base: RangeQuery,
        group_dim: usize,
        epsilon: f64,
        threshold: f64,
    ) -> Result<PlanAnswer> {
        let plan = QueryPlan::GroupBy {
            base,
            statistic: None,
            group_dim,
            threshold,
            sampling_rate: 0.3,
            epsilon,
            delta: 1e-3,
        };
        fed.with_engine(|engine| engine.run_plan(&plan))
    }

    #[test]
    fn recovers_group_ordering_under_loose_budget() {
        // Category populations: 0 → 2000, 1 → 1000, 2 → 400, 3 → 40, 4 → 0.
        let ans = group_by(&federation(1.0), base(), 0, 250.0, 0.0).unwrap();
        let by_key: Vec<f64> = ans.groups().unwrap().iter().map(|g| g.value).collect();
        assert_eq!(by_key.len(), 5);
        assert!(by_key[0] > by_key[1]);
        assert!(by_key[1] > by_key[2]);
        assert!(by_key[2] > by_key[3]);
    }

    #[test]
    fn threshold_suppresses_small_groups() {
        let ans = group_by(&federation(1.0), base(), 0, 250.0, 150.0).unwrap();
        let crate::plan::PlanResult::Groups { groups, suppressed } = &ans.result else {
            panic!("expected groups, got {:?}", ans.result);
        };
        // Groups 3 (40 rows) and 4 (0 rows) fall under the threshold
        // (modulo noise); at minimum the empty group must vanish.
        assert!(*suppressed >= 1, "nothing suppressed");
        assert_eq!(groups.len() as u64 + suppressed, 5);
        assert!(groups.iter().all(|g| g.value >= 150.0));
    }

    #[test]
    fn cost_is_total_epsilon_and_split_evenly() {
        let fed = federation(1.0);
        let ans = group_by(&fed, base(), 0, 2.0, f64::NEG_INFINITY).unwrap();
        assert!((ans.cost.eps - 2.0).abs() < 1e-12);
        assert!((ans.cost.delta - 1e-3).abs() < 1e-15);
        // The even split, observed through the noise derivation: group
        // `key` releases the bytes of its point query run alone under
        // `(ε/k, δ/k)` — any other per-group budget is a different lane.
        for g in ans.groups().unwrap() {
            let mut ranges = base().ranges().to_vec();
            ranges.push(Range::new(0, g.key, g.key).unwrap());
            let alone = QueryPlan::Scalar {
                query: RangeQuery::new(Aggregate::Count, ranges).unwrap(),
                sampling_rate: 0.3,
                epsilon: 2.0 / 5.0,
                delta: 1e-3 / 5.0,
            };
            let alone = fed.with_engine(|engine| engine.run_plan(&alone)).unwrap();
            assert_eq!(alone.value().unwrap().to_bits(), g.value.to_bits());
        }
    }

    #[test]
    fn rejects_group_dim_in_filter() {
        let fed = federation(1.0);
        let bad = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 2).unwrap()]).unwrap();
        assert!(matches!(
            group_by(&fed, bad, 0, 1.0, 0.0),
            Err(CoreError::BadConfig(_))
        ));
        assert!(group_by(&fed, base(), 0, 0.0, 0.0).is_err());
        assert!(group_by(&fed, base(), 9, 1.0, 0.0).is_err());
    }

    #[test]
    fn rejects_oversized_group_domains() {
        let base_fed = federation(1.0);
        let mut cfg = base_fed.config().clone();
        cfg.max_group_domain = 4; // category has 5 values
        let partitions: Vec<Vec<Row>> = base_fed
            .providers()
            .iter()
            .map(|p| p.store().clusters().iter().flat_map(|c| c.rows()).collect())
            .collect();
        let fed = Federation::build(cfg, base_fed.schema().clone(), partitions).unwrap();
        let err = fed
            .with_engine(|engine| engine.run_plan(&group_plan(1.0, None)))
            .unwrap_err();
        assert!(
            matches!(err, CoreError::GroupDomainTooLarge { size: 5, cap: 4 }),
            "{err:?}"
        );
    }

    #[test]
    fn groups_ascend_by_key() {
        let ans = group_by(&federation(1.0), base(), 0, 50.0, f64::NEG_INFINITY).unwrap();
        let keys: Vec<Value> = ans.groups().unwrap().iter().map(|g| g.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }
}
