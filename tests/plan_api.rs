//! Integration tests for the unified `QueryPlan` analyst API: one request
//! type executed identically by a scoped engine, an owned engine, and the
//! TCP federation server — with the group-by fan-out demonstrably riding
//! the worker pool.

use std::time::{Duration, Instant};

use fedaqp::core::{
    Federation, FederationConfig, FederationEngine, QueryPlan, Session, SessionPlan,
};
use fedaqp::model::{
    Aggregate, DerivedStatistic, Dimension, Domain, Extreme, Range, RangeQuery, Row, Schema,
};
use fedaqp::net::{FederationServer, RemoteFederation, ServeOptions};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 99).unwrap()),
        Dimension::new("cat", Domain::new(0, 4).unwrap()),
    ])
    .unwrap()
}

fn partitions(rows_per: usize) -> Vec<Vec<Row>> {
    (0..4)
        .map(|p| {
            (0..rows_per)
                .map(|i| {
                    Row::cell(
                        vec![((i * 7 + p * 13) % 100) as i64, ((i + p) % 5) as i64],
                        1 + (i % 3) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

fn federation(cost_model: fedaqp::smc::CostModel) -> Federation {
    let mut cfg = FederationConfig::paper_default(40);
    cfg.cost_model = cost_model;
    cfg.n_min = 3;
    cfg.epsilon = 2.0;
    Federation::build(cfg, schema(), partitions(1500)).unwrap()
}

fn base_query() -> RangeQuery {
    RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 99).unwrap()]).unwrap()
}

fn group_plan() -> QueryPlan {
    QueryPlan::GroupBy {
        base: base_query(),
        statistic: None,
        group_dim: 1,
        threshold: 0.0,
        sampling_rate: 0.25,
        epsilon: 2.5,
        delta: 1e-3,
    }
}

/// The headline acceptance: a group-by plan submitted through
/// `RemoteFederation::submit_plan` over a real socket (an owned engine
/// behind a server) returns groups byte-identical to the same plan on a
/// scoped in-process engine for the same seed — one compiler, one noise
/// derivation, two layers.
#[test]
fn remote_group_by_plan_matches_the_in_process_engine_byte_for_byte() {
    let engine = FederationEngine::start(federation(fedaqp::smc::CostModel::zero()));
    let server =
        FederationServer::bind("127.0.0.1:0", engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut client = RemoteFederation::connect(&server.local_addr().to_string()).unwrap();

    let remote = client.submit_plan(&group_plan()).unwrap().wait().unwrap();
    let in_process = federation(fedaqp::smc::CostModel::zero())
        .with_engine(|engine| engine.run_plan(&group_plan()))
        .unwrap();

    // Released data — keys, value bits, suppression count — and the cost
    // are identical; only the wall-clock timings differ.
    assert!(remote.groups().is_some_and(|groups| !groups.is_empty()));
    assert_eq!(remote.result, in_process.result);
    assert_eq!(remote.cost, in_process.cost);

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// The per-group sub-queries of a plan run through the engine worker pool
/// concurrently: under the slept-WAN model (every sub-query's simulated
/// transit actually waited out), the engine path overlaps the 5 groups'
/// transits while one sub-query in flight at a time stalls on each in turn.
#[test]
fn concurrent_group_by_beats_serial_on_the_slept_wan_model() {
    let wan = fedaqp::smc::CostModel::wan();
    let serial_fed = federation(wan);
    let budget = {
        let mut cfg = serial_fed.config().clone();
        cfg.epsilon = 2.5 / 5.0;
        cfg.delta = 1e-3 / 5.0;
        cfg.query_budget().unwrap()
    };

    // Without plan-level fan-out: one group sub-query in flight at a time,
    // each stalling on its own WAN transit before the next is submitted.
    let t0 = Instant::now();
    serial_fed.with_engine(|engine| {
        for key in 0..5i64 {
            let mut ranges = base_query().ranges().to_vec();
            ranges.push(Range::new(1, key, key).unwrap());
            let q = RangeQuery::new(Aggregate::Count, ranges).unwrap();
            let pending = engine.submit_with_budget(&q, 0.25, &budget).unwrap();
            std::thread::sleep(pending.wait().unwrap().timings.network);
        }
    });
    let serial_wall = t0.elapsed();

    // Plan execution: all 5 sub-queries in flight on the pool; their
    // transits overlap, so the plan pays the *max*, not the sum.
    let concurrent_fed = federation(wan);
    let t0 = Instant::now();
    let answer = concurrent_fed
        .with_engine(|engine| engine.run_plan(&group_plan()))
        .unwrap();
    std::thread::sleep(answer.timings.network);
    let concurrent_wall = t0.elapsed();

    assert!(
        concurrent_wall < serial_wall / 2,
        "concurrent group-by ({concurrent_wall:?}) must beat the serial path \
         ({serial_wall:?}) by ≥2x on the slept-WAN model"
    );
    // Sanity: the WAN stall dominates both sides (≈100 ms per round trip).
    assert!(serial_wall >= Duration::from_millis(250), "{serial_wall:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `rounds = 1` online aggregation degenerates exactly to the scalar
    /// plan: one snapshot at the full sampling rate whose released value
    /// and cost are bit-identical to [`QueryPlan::Scalar`] with the same
    /// parameters — the progressive path adds no noise of its own.
    #[test]
    fn one_round_online_degenerates_to_the_scalar_plan(
        rate_idx in 0usize..3,
        lo in 0i64..40,
        width in 20i64..60,
    ) {
        let rate = [0.15, 0.25, 0.4][rate_idx];
        let hi = (lo + width).min(99);
        let query =
            RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap();

        let online = federation(fedaqp::smc::CostModel::zero())
            .with_engine(|engine| {
                engine.run_plan(&QueryPlan::Online {
                    query: query.clone(),
                    sampling_rate: rate,
                    epsilon: 1.5,
                    delta: 1e-3,
                    rounds: 1,
                })
            })
            .unwrap();
        let scalar = federation(fedaqp::smc::CostModel::zero())
            .with_engine(|engine| {
                engine.run_plan(&QueryPlan::Scalar {
                    query: query.clone(),
                    sampling_rate: rate,
                    epsilon: 1.5,
                    delta: 1e-3,
                })
            })
            .unwrap();

        let snapshots = online.snapshots().expect("online plan releases snapshots");
        prop_assert_eq!(snapshots.len(), 1);
        prop_assert_eq!(snapshots[0].sample_fraction.to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(
            snapshots[0].value.to_bits(),
            scalar.value().expect("scalar value").to_bits()
        );
        prop_assert_eq!(online.cost.eps.to_bits(), scalar.cost.eps.to_bits());
        prop_assert_eq!(online.cost.delta.to_bits(), scalar.cost.delta.to_bits());
    }
}

/// Every plan kind runs through a budget session, which charges the whole
/// declared cost atomically up front.
#[test]
fn sessions_charge_whole_plans_atomically() {
    let fed = federation(fedaqp::smc::CostModel::zero());
    fed.with_engine(|engine| {
        let session = Session::open(engine.clone(), 5.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
        let pending = session.submit_plan(&group_plan()).unwrap();
        // The whole 2.5ε is on the ledger before the first group resolves.
        assert!((session.spent().eps - 2.5).abs() < 1e-9);
        pending.wait().unwrap();

        let derived = QueryPlan::Derived {
            query: base_query(),
            statistic: DerivedStatistic::Average,
            sampling_rate: 0.25,
            epsilon: 2.0,
            delta: 1e-3,
        };
        session.run_plan(&derived).unwrap();
        assert!((session.spent().eps - 4.5).abs() < 1e-9);

        let extreme = QueryPlan::Extreme {
            dim: 0,
            extreme: Extreme::Max,
            epsilon: 0.5,
        };
        session.run_plan(&extreme).unwrap();
        assert!((session.spent().eps - 5.0).abs() < 1e-9);

        // Exhausted: the next plan is rejected before any work, and the
        // ledger is untouched by the rejection.
        assert!(session.submit_plan(&extreme).is_err());
        assert!((session.spent().eps - 5.0).abs() < 1e-9);
    });
}
