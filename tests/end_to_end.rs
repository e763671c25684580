//! End-to-end integration tests: dataset generation → partitioning →
//! federation → private query answering, across release modes and paths.

use fedaqp::core::{
    relative_error, EngineHandle, Federation, FederationConfig, FederationEngine, QueryPlan,
    ReleaseMode,
};
use fedaqp::data::{partition_rows, AdultConfig, AdultSynth, PartitionMode};
use fedaqp::dp::{BudgetAccountant, QueryBudget};
use fedaqp::model::{Aggregate, QueryBuilder, RangeQuery, Row, Schema};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_federation(
    seed: u64,
    tweak: impl FnOnce(&mut FederationConfig),
) -> (Federation, Vec<Row>) {
    let dataset = AdultSynth::generate(AdultConfig {
        n_rows: 12_000,
        seed,
    })
    .expect("dataset");
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let partitions = partition_rows(&mut rng, dataset.cells.clone(), 4, &PartitionMode::Equal)
        .expect("partitioning");
    let mut cfg = FederationConfig::paper_default(64);
    cfg.seed = seed;
    cfg.cost_model = fedaqp::smc::CostModel::zero();
    tweak(&mut cfg);
    let fed = Federation::build(cfg, dataset.schema.clone(), partitions).expect("federation");
    (fed, dataset.cells)
}

fn broad_count(schema: &Schema) -> RangeQuery {
    QueryBuilder::new(schema, Aggregate::Count)
        .range("age", 20, 80)
        .expect("range")
        .range("hours_per_week", 10, 90)
        .expect("range")
        .build()
        .expect("query")
}

#[test]
fn plain_execution_equals_union_oracle() {
    let (fed, cells) = small_federation(1, |_| {});
    let q = broad_count(fed.schema());
    let oracle: u64 = cells.iter().filter(|c| q.matches(c)).count() as u64;
    assert_eq!(fed.exact(&q), oracle);
    assert_eq!(fed.run_plain(&q).expect("plain").value, oracle);
}

#[test]
fn private_answer_is_reasonable_under_loose_budget() {
    let (fed, _) = small_federation(2, |cfg| cfg.epsilon = 200.0);
    let q = broad_count(fed.schema());
    let ans = fed.run(&q, 0.3).expect("run");
    assert!(ans.answer.value.is_finite());
    let err = relative_error(fed.exact(&q), ans.answer.value);
    assert!(err < 0.35, "relative error {err} too large under eps=200");
    assert!(ans.answer.clusters_scanned < ans.answer.covering_total);
    assert_eq!(ans.answer.approximated_providers, 4);
}

#[test]
fn sum_and_count_share_the_pipeline() {
    let (fed, cells) = small_federation(3, |cfg| cfg.epsilon = 200.0);
    let schema = fed.schema().clone();
    let count_q = QueryBuilder::new(&schema, Aggregate::Count)
        .range("age", 25, 60)
        .expect("range")
        .build()
        .expect("query");
    let sum_q = QueryBuilder::new(&schema, Aggregate::Sum)
        .range("age", 25, 60)
        .expect("range")
        .build()
        .expect("query");
    let count_ans = fed.run(&count_q, 0.3).expect("count");
    let sum_ans = fed.run(&sum_q, 0.3).expect("sum");
    // SUM counts raw rows (measures), COUNT counts cells: SUM ≥ COUNT.
    let sum_exact: u64 = cells
        .iter()
        .filter(|c| sum_q.matches(c))
        .map(|c| c.measure())
        .sum();
    assert_eq!(fed.exact(&sum_q), sum_exact);
    assert!(sum_exact >= fed.exact(&count_q));
    // Both aggregates come out of the same pipeline, near their truths.
    assert!(relative_error(sum_exact, sum_ans.answer.value) < 0.35);
    assert!(relative_error(fed.exact(&count_q), count_ans.answer.value) < 0.35);
}

#[test]
fn smc_release_mode_matches_local_dp_in_expectation() {
    let q_of = |fed: &Federation| broad_count(fed.schema());
    let trials = 30;
    let mut local_sum = 0.0;
    let mut smc_sum = 0.0;
    let mut exact = 0;
    for t in 0..trials {
        let (fed_l, _) = small_federation(100 + t, |cfg| {
            cfg.release_mode = ReleaseMode::LocalDp;
            cfg.epsilon = 5.0;
        });
        let q = q_of(&fed_l);
        let a = fed_l.run(&q, 0.3).expect("local");
        local_sum += a.answer.value;
        exact = fed_l.exact(&q);
        let (fed_s, _) = small_federation(100 + t, |cfg| {
            cfg.release_mode = ReleaseMode::Smc;
            cfg.epsilon = 5.0;
        });
        let b = fed_s.run(&q, 0.3).expect("smc");
        smc_sum += b.answer.value;
    }
    let local_mean = local_sum / trials as f64;
    let smc_mean = smc_sum / trials as f64;
    // Both modes estimate the same quantity; means agree loosely.
    assert!(
        (local_mean - smc_mean).abs() < 0.35 * exact as f64,
        "local {local_mean} vs smc {smc_mean} (exact {exact})"
    );
}

#[test]
fn exact_path_taken_when_covering_below_threshold() {
    let (fed, _) = small_federation(5, |cfg| {
        cfg.n_min = 100_000; // impossible threshold: always exact
        cfg.epsilon = 100.0;
    });
    let q = broad_count(fed.schema());
    let ans = fed.run(&q, 0.2).expect("run");
    assert_eq!(ans.answer.approximated_providers, 0);
    assert_eq!(ans.answer.clusters_scanned, ans.answer.covering_total);
    assert!((ans.raw_estimate - fed.exact(&q) as f64).abs() < 1e-6);
}

#[test]
fn accountant_gates_a_query_session() {
    let (fed, _) = small_federation(6, |_| {});
    let q = broad_count(fed.schema());
    let mut accountant = BudgetAccountant::new(2.5, 1e-2).expect("accountant");
    let mut answered = 0;
    loop {
        let cost = fed.default_query_cost().expect("cost");
        if accountant.charge(cost).is_err() {
            break;
        }
        fed.run(&q, 0.2).expect("run");
        answered += 1;
        assert!(answered < 100, "accountant never exhausted");
    }
    // ξ = 2.5 at ε = 1 per query → exactly 2 queries.
    assert_eq!(answered, 2);
}

#[test]
fn explicit_budget_overrides_default() {
    let (fed, _) = small_federation(7, |_| {});
    let q = broad_count(fed.schema());
    let tight = QueryBudget::paper_split(0.1, 1e-4).expect("budget");
    let ans = fed.run_with_budget(&q, 0.2, &tight).expect("run");
    assert!((ans.answer.cost.eps - 0.1).abs() < 1e-12);
    assert_eq!(ans.answer.cost.delta, 1e-4);
}

#[test]
fn deterministic_given_identical_seeds() {
    let run_once = |seed: u64| {
        let (fed, _) = small_federation(seed, |_| {});
        let q = broad_count(fed.schema());
        fed.run(&q, 0.2).expect("run").answer.value
    };
    assert_eq!(run_once(42), run_once(42));
    assert_ne!(run_once(42), run_once(43));
}

#[test]
fn timings_and_network_are_populated() {
    let (fed, _) = small_federation(8, |cfg| {
        cfg.cost_model = fedaqp::smc::CostModel::lan();
    });
    let q = broad_count(fed.schema());
    let ans = fed.run(&q, 0.2).expect("run");
    assert!(ans.answer.timings.total() > std::time::Duration::ZERO);
    // 4 protocol rounds under LAN latency (0.5 ms each) dominate.
    assert!(ans.answer.timings.network >= std::time::Duration::from_millis(2));
    let plain = fed.run_plain(&q).expect("plain");
    assert!(plain.duration > std::time::Duration::ZERO);
}

#[test]
fn weighted_partitions_still_answer_correctly() {
    let dataset = AdultSynth::generate(AdultConfig {
        n_rows: 8_000,
        seed: 9,
    })
    .expect("dataset");
    let mut rng = StdRng::seed_from_u64(10);
    let partitions = partition_rows(
        &mut rng,
        dataset.cells.clone(),
        4,
        &PartitionMode::Weighted(vec![7.0, 1.0, 1.0, 1.0]),
    )
    .expect("partitioning");
    let mut cfg = FederationConfig::paper_default(64);
    cfg.epsilon = 200.0;
    cfg.cost_model = fedaqp::smc::CostModel::zero();
    let fed = Federation::build(cfg, dataset.schema.clone(), partitions).expect("federation");
    let q = broad_count(fed.schema());
    let ans = fed.run(&q, 0.3).expect("run");
    let err = relative_error(fed.exact(&q), ans.answer.value);
    assert!(err < 0.5, "error {err}");
    // The heavy provider must receive the lion's share of the allocation.
    let max_alloc = *ans.answer.allocations.iter().max().expect("allocations");
    assert_eq!(ans.answer.allocations[0], max_alloc);
}

/// An SMC release keeps its bits: a seeded scalar plan and its repeat
/// (occurrence 1) on a scoped and an owned engine — each value and the
/// simulated network time it charges — and the in-process oracle's raw
/// estimate, pinned as the engine computed them before the coordinator
/// took over the SMC merge.
#[test]
fn smc_releases_keep_their_pinned_bits() {
    let (fed, _) = small_federation(7, |cfg| {
        cfg.release_mode = ReleaseMode::Smc;
        cfg.epsilon = 2.0;
        cfg.cost_model = fedaqp::smc::CostModel::lan();
    });
    let q = broad_count(fed.schema());
    let plan = QueryPlan::Scalar {
        query: q.clone(),
        sampling_rate: 0.3,
        epsilon: 2.0,
        delta: 1e-3,
    };
    let run_twice = |engine: &EngineHandle| -> Vec<(u64, u128)> {
        (0..2)
            .map(|_| {
                let answer = engine.run_plan(&plan).expect("plan");
                let value = answer.value().expect("scalar").to_bits();
                (value, answer.timings.network.as_nanos())
            })
            .collect()
    };
    let scoped = fed.with_engine(run_twice);
    let raw_estimate = fed.run(&q, 0.3).expect("run").raw_estimate.to_bits();
    let engine = FederationEngine::start(fed);
    let owned = run_twice(&engine.handle());
    engine.shutdown();
    // (value bits, simulated network ns) of occurrences 0 and 1.
    const PINNED_RELEASES: [(u64, u128); 2] = [
        (4_667_886_958_505_118_391, 4_184_344),
        (4_667_715_751_613_924_669, 4_184_344),
    ];
    const PINNED_RAW_ESTIMATE: u64 = 4_667_662_487_186_716_638;
    assert_eq!(scoped, owned, "scoped and owned engines diverged");
    assert_eq!(scoped, PINNED_RELEASES);
    assert_eq!(raw_estimate, PINNED_RAW_ESTIMATE);
}
