//! Integration tests for the extension surface: sessions, derived
//! aggregates, group-by, online aggregation, private extremes, and store
//! persistence — everything a downstream adopter layers on top of the
//! §5 protocol.

use fedaqp::core::{
    combine_snapshots, relative_error, DerivedStatistic, Extreme, Federation, FederationConfig,
    QueryPlan, Session, SessionPlan,
};
use fedaqp::data::{partition_rows, AdultConfig, AdultSynth, PartitionMode};
use fedaqp::model::{Aggregate, QueryBuilder, RangeQuery};
use fedaqp::storage::{decode_store, encode_store};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn federation(seed: u64, epsilon: f64) -> Federation {
    let dataset = AdultSynth::generate(AdultConfig {
        n_rows: 15_000,
        seed,
    })
    .expect("dataset");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE);
    let partitions =
        partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal).expect("partitioning");
    let mut cfg = FederationConfig::paper_default(64);
    cfg.seed = seed;
    cfg.epsilon = epsilon;
    cfg.cost_model = fedaqp::smc::CostModel::zero();
    Federation::build(cfg, dataset.schema, partitions).expect("federation")
}

fn age_query(fed: &Federation) -> RangeQuery {
    QueryBuilder::new(fed.schema(), Aggregate::Count)
        .range("age", 25, 60)
        .expect("range")
        .build()
        .expect("query")
}

#[test]
fn session_lifecycle_with_mixed_query_types() {
    let fed = federation(1, 1.0);
    let q = age_query(&fed);
    fed.with_engine(|engine| {
        let session =
            Session::open(engine.clone(), 10.0, 1e-2, SessionPlan::PayAsYouGo).expect("session");
        let plain = session.query(&q, 0.2).expect("plain query");
        assert!(plain.value.is_finite());
        // A derived statistic is a plan; it charges its declared total —
        // here two sub-queries at the session's per-query cost.
        let per_query = session.per_query_cost();
        let avg = session
            .run_plan(&QueryPlan::Derived {
                query: q.clone(),
                statistic: DerivedStatistic::Average,
                sampling_rate: 0.2,
                epsilon: 2.0 * per_query.eps,
                delta: 2.0 * per_query.delta,
            })
            .expect("derived query");
        assert!(avg.value().expect("derived value").is_finite());
        // 1 (plain) + 2 (average) ε spent.
        assert!((session.remaining().eps - 7.0).abs() < 1e-9);
    });
}

#[test]
fn group_by_over_workclass_preserves_total_mass() {
    let fed = federation(2, 1.0);
    let base = QueryBuilder::new(fed.schema(), Aggregate::Count)
        .range("age", 17, 90)
        .expect("range")
        .build()
        .expect("query");
    let plan = QueryPlan::GroupBy {
        base: base.clone(),
        statistic: None,
        group_dim: fed.schema().index_of("workclass").expect("dimension"),
        threshold: 0.0,
        sampling_rate: 0.3,
        epsilon: 200.0,
        delta: 1e-3,
    };
    let ans = fed
        .with_engine(|engine| engine.run_plan(&plan))
        .expect("group by");
    let groups = ans.groups().expect("groups");
    assert_eq!(groups.len(), 8);
    // The groups partition the table (COUNT counts tensor cells, and every
    // cell has exactly one workclass value), so the noisy totals land near
    // the base query's truth under the loose budget.
    let exact_total = fed.exact(&base);
    let noisy_total: f64 = groups.iter().map(|g| g.value).sum();
    assert!(
        (noisy_total - exact_total as f64).abs() < 0.2 * exact_total as f64,
        "noisy total {noisy_total} vs exact {exact_total}"
    );
}

#[test]
fn online_rounds_refine_and_combine() {
    let fed = federation(3, 1.0);
    let q = age_query(&fed);
    let plan = QueryPlan::Online {
        query: q.clone(),
        sampling_rate: 0.4,
        epsilon: 60.0,
        delta: 1e-3,
        rounds: 5,
    };
    let ans = fed
        .with_engine(|engine| engine.run_plan(&plan))
        .expect("online");
    let snapshots = ans.snapshots().expect("snapshots");
    assert_eq!(snapshots.len(), 5);
    // Later rounds scan at least as many clusters as the first.
    assert!(snapshots[4].clusters_scanned >= snapshots[0].clusters_scanned);
    let err = relative_error(fed.exact(&q), combine_snapshots(snapshots));
    assert!(err < 0.5, "combined error {err}");
}

#[test]
fn extremes_on_real_schema() {
    let fed = federation(4, 1.0);
    let hours = fed.schema().index_of("hours_per_week").expect("dimension");
    let [max, min] = fed.with_engine(|engine| {
        [Extreme::Max, Extreme::Min].map(|extreme| {
            let plan = QueryPlan::Extreme {
                dim: hours,
                extreme,
                epsilon: 100.0,
            };
            let answer = engine.run_plan(&plan).expect("extreme");
            answer.value().expect("extreme value") as i64
        })
    });
    // Domain is [1, 99]; with real data both extremes are occupied densely,
    // so selections must stay in-domain and ordered.
    assert!((1..=99).contains(&max));
    assert!((1..=99).contains(&min));
    assert!(min < max);
}

#[test]
fn derived_average_within_measure_bounds() {
    let fed = federation(5, 1.0);
    let plan = QueryPlan::Derived {
        query: age_query(&fed),
        statistic: DerivedStatistic::Average,
        sampling_rate: 0.3,
        epsilon: 100.0,
        delta: 1e-3,
    };
    let avg = fed
        .with_engine(|engine| engine.run_plan(&plan))
        .expect("derived")
        .value()
        .expect("derived value");
    // Cell measures are ≥ 1; averages must be sane.
    assert!(avg > 0.0 && avg < 100.0);
}

#[test]
fn provider_stores_persist_and_answer_identically() {
    let fed = federation(6, 1.0);
    let q = age_query(&fed);
    for p in fed.providers() {
        let blob = encode_store(p.store());
        let restored = decode_store(&blob).expect("decode");
        assert_eq!(restored.evaluate_full(&q), p.store().evaluate_full(&q));
        assert_eq!(restored.n_clusters(), p.store().n_clusters());
    }
}

#[test]
fn advanced_session_supports_many_cheap_queries() {
    let fed = federation(7, 1.0);
    let q = age_query(&fed);
    fed.with_engine(|engine| {
        let session = Session::open(
            engine.clone(),
            20.0,
            1e-3,
            SessionPlan::AdvancedComposition {
                planned_queries: 200,
            },
        )
        .expect("session");
        for _ in 0..25 {
            session.query(&q, 0.2).expect("query");
        }
        assert_eq!(session.queries_answered(), 25);
        assert!(session.can_query());
    });
}
