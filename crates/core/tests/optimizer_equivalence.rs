//! The optimizer's contract, tested end to end: **optimization never
//! changes released answers**. For any plan and any seed, running with
//! every optimizer pass on must produce answers *byte-identical* (same
//! `f64` bits, same group keys, same suppression counts, same charged
//! cost) to running with every pass off — pruning, dedup, and reordering
//! may only change *work*, never *output*.
//!
//! Also covered here:
//! * pruning soundness against the exact oracle — a provider the
//!   optimizer prunes from public bounds alone provably contributes
//!   nothing to the query;
//! * the all-pruned corner (every provider answered inline, no worker
//!   ever sees the job) completes and stays byte-identical;
//! * `EXPLAIN` through a budgeted session costs nothing.

use fedaqp_core::{
    Federation, FederationConfig, OptimizerConfig, PlanAnswer, PlanResult, QueryPlan, Session,
    SessionPlan,
};
use fedaqp_model::{
    Aggregate, DerivedStatistic, Dimension, Domain, Range, RangeQuery, Row, Schema,
};
use fedaqp_smc::CostModel;
use proptest::prelude::*;

const N_PROVIDERS: usize = 4;
const ROWS_PER_PROVIDER: usize = 200;

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("g", Domain::new(0, 4).unwrap()),
    ])
    .unwrap()
}

/// Disjoint per-provider bands on dimension 0 (`x`): provider `p` holds
/// `x ∈ [p·band, p·band + band)`. A query inside one band is prunable on
/// every other provider from public bounds alone.
fn band_partitions(band: usize) -> Vec<Vec<Row>> {
    (0..N_PROVIDERS)
        .map(|p| {
            (0..ROWS_PER_PROVIDER)
                .map(|i| {
                    let x = (p * band + (i * 7) % band) as i64;
                    Row::cell(vec![x, (i % 5) as i64], 1 + (i % 3) as u64)
                })
                .collect()
        })
        .collect()
}

fn config(seed: u64, optimizer: OptimizerConfig) -> FederationConfig {
    let mut cfg = FederationConfig::paper_default(32);
    cfg.seed = seed;
    cfg.cost_model = CostModel::zero();
    cfg.optimizer = optimizer;
    cfg
}

fn federation(seed: u64, band: usize, optimizer: OptimizerConfig) -> Federation {
    Federation::build(config(seed, optimizer), schema(), band_partitions(band)).unwrap()
}

/// Runs `plans` in order through one engine + session and returns every
/// answer. A fresh engine per mode matters: the per-content occurrence
/// ledger must start from zero on both sides for the comparison to pit
/// the same noise indices against each other.
fn run_all(federation: &Federation, plans: &[QueryPlan]) -> Vec<PlanAnswer> {
    federation.with_engine(|handle| {
        let session = Session::open(handle.clone(), 1e6, 0.5, SessionPlan::PayAsYouGo).unwrap();
        plans.iter().map(|p| session.run_plan(p).unwrap()).collect()
    })
}

/// Byte-level equality: `f64`s compared by bits, not by `==` (which would
/// let `-0.0 == 0.0` or NaN asymmetries slip through).
fn assert_bit_identical(optimized: &PlanAnswer, exhaustive: &PlanAnswer) {
    assert_eq!(
        optimized.cost.eps.to_bits(),
        exhaustive.cost.eps.to_bits(),
        "optimization changed the charged epsilon"
    );
    assert_eq!(
        optimized.cost.delta.to_bits(),
        exhaustive.cost.delta.to_bits(),
        "optimization changed the charged delta"
    );
    match (&optimized.result, &exhaustive.result) {
        (
            PlanResult::Value {
                value: a,
                ci_halfwidth: ca,
            },
            PlanResult::Value {
                value: b,
                ci_halfwidth: cb,
            },
        ) => {
            assert_eq!(a.to_bits(), b.to_bits(), "released value diverged");
            assert_eq!(
                ca.map(f64::to_bits),
                cb.map(f64::to_bits),
                "confidence interval diverged"
            );
        }
        (
            PlanResult::Groups {
                groups: ga,
                suppressed: sa,
            },
            PlanResult::Groups {
                groups: gb,
                suppressed: sb,
            },
        ) => {
            assert_eq!(sa, sb, "suppression count diverged");
            assert_eq!(ga.len(), gb.len(), "group count diverged");
            for (a, b) in ga.iter().zip(gb) {
                assert_eq!(a.key, b.key, "group key diverged");
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "group value diverged at key {}",
                    a.key
                );
                assert_eq!(
                    a.ci_halfwidth.map(f64::to_bits),
                    b.ci_halfwidth.map(f64::to_bits),
                    "group interval diverged at key {}",
                    a.key
                );
            }
        }
        (PlanResult::Extreme { value: a }, PlanResult::Extreme { value: b }) => {
            assert_eq!(a, b, "extreme selection diverged");
        }
        _ => panic!("optimization changed the result shape"),
    }
}

fn count_query(lo: i64, hi: i64) -> RangeQuery {
    RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
}

/// The plan mix every equivalence case runs: a band-local scalar (pruning
/// fires), a variance (dedup reuses the repeated COUNT), and a group-by
/// (reordering fires), all over the same predicate.
fn plan_mix(lo: i64, hi: i64, sampling_rate: f64) -> Vec<QueryPlan> {
    let query = count_query(lo, hi);
    vec![
        QueryPlan::Scalar {
            query: query.clone(),
            sampling_rate,
            epsilon: 1.0,
            delta: 1e-6,
        },
        QueryPlan::Derived {
            query: query.clone(),
            statistic: DerivedStatistic::Variance,
            sampling_rate,
            epsilon: 1.5,
            delta: 1e-6,
        },
        QueryPlan::GroupBy {
            base: query,
            statistic: None,
            group_dim: 1,
            threshold: 0.0,
            sampling_rate,
            epsilon: 2.0,
            delta: 1e-6,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline invariant, property-tested: for random seeds and
    /// random predicates (band-local and band-spanning alike), every
    /// released byte is identical with the optimizer on and off.
    #[test]
    fn optimized_answers_are_byte_identical_to_exhaustive(
        seed in any::<u64>(),
        lo in 0i64..960,
        width in 1i64..400,
        sr_idx in 0usize..3,
    ) {
        let hi = (lo + width).min(999);
        let sampling_rate = [0.1, 0.3, 0.6][sr_idx];
        let plans = plan_mix(lo, hi, sampling_rate);
        let optimized = run_all(&federation(seed, 250, OptimizerConfig::enabled()), &plans);
        let exhaustive = run_all(&federation(seed, 250, OptimizerConfig::disabled()), &plans);
        for (a, b) in optimized.iter().zip(&exhaustive) {
            assert_bit_identical(a, b);
        }
    }

    /// Pruning soundness against the exact oracle: every provider the
    /// optimizer prunes (from public bounds alone) holds zero rows under
    /// the query, so the pruned plan's covering set is exactly the
    /// exhaustive one.
    #[test]
    fn pruned_providers_provably_contribute_nothing(
        lo in 0i64..999,
        width in 0i64..999,
    ) {
        let hi = (lo + width).min(999);
        let fed = federation(7, 250, OptimizerConfig::enabled());
        let query = count_query(lo, hi);
        let plan = QueryPlan::Scalar {
            query: query.clone(),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-6,
        };
        let explanation = fed.with_engine(|handle| handle.explain_plan(&plan)).unwrap();
        for sub in &explanation.sub_queries {
            for &id in &sub.pruned_providers {
                let pruned = &fed.providers()[id as usize];
                assert_eq!(
                    pruned.exact_answer(&query),
                    0,
                    "provider {id} was pruned but holds matching rows"
                );
            }
        }
    }
}

/// The all-pruned corner: the data covers only `x < 400` while the query
/// asks about `x ∈ [600, 900]`, so *every* provider is pruned and the
/// whole job is answered inline on the submitting thread — it must
/// complete (no worker ever sees the job, so parking at the allocation
/// barrier would deadlock) and stay byte-identical to the exhaustive run.
#[test]
fn all_pruned_query_completes_and_matches_exhaustive() {
    let plans = plan_mix(600, 900, 0.3);
    for seed in [1u64, 42, 9001] {
        let optimized = run_all(&federation(seed, 100, OptimizerConfig::enabled()), &plans);
        let exhaustive = run_all(&federation(seed, 100, OptimizerConfig::disabled()), &plans);
        let explanation = federation(seed, 100, OptimizerConfig::enabled())
            .with_engine(|handle| handle.explain_plan(&plans[0]))
            .unwrap();
        assert_eq!(
            explanation.sub_queries[0].pruned_providers.len(),
            N_PROVIDERS,
            "the fixture must prune every provider"
        );
        for (a, b) in optimized.iter().zip(&exhaustive) {
            assert_bit_identical(a, b);
        }
    }
}

/// `EXPLAIN` through a budgeted session spends nothing: the explanation
/// conditions only on the analyst's own plan and public offline metadata.
#[test]
fn explain_through_a_session_costs_no_budget() {
    let fed = federation(3, 250, OptimizerConfig::enabled());
    fed.with_engine(|handle| {
        let session = Session::open(handle.clone(), 10.0, 1e-3, SessionPlan::PayAsYouGo).unwrap();
        let plans = plan_mix(100, 220, 0.25);
        for plan in &plans {
            session.explain_plan(plan).unwrap();
        }
        assert_eq!(session.spent().eps, 0.0);
        assert_eq!(session.spent().delta, 0.0);
        // A real run charges exactly the declared cost; explaining again
        // afterwards still charges nothing.
        session.run_plan(&plans[0]).unwrap();
        let spent = session.spent();
        session.explain_plan(&plans[0]).unwrap();
        assert_eq!(session.spent(), spent);
    });
}
