//! Statistical privacy/mechanism invariants across the whole stack.

use fedaqp::core::{
    ConcurrentSession, Federation, FederationConfig, FederationEngine, QueryBatch, QueryPlan,
    SessionPlan,
};
use fedaqp::data::{partition_rows, AmazonConfig, AmazonSynth, PartitionMode};
use fedaqp::dp::QueryBudget;
use fedaqp::model::{Aggregate, QueryBuilder, RangeQuery, Row};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn federation(seed: u64, epsilon: f64) -> (Federation, Vec<Row>) {
    let dataset = AmazonSynth::generate(AmazonConfig {
        n_rows: 15_000,
        seed,
    })
    .expect("dataset");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00);
    let partitions = partition_rows(&mut rng, dataset.cells.clone(), 4, &PartitionMode::Equal)
        .expect("partitioning");
    let mut cfg = FederationConfig::paper_default(64);
    cfg.seed = seed;
    cfg.epsilon = epsilon;
    cfg.cost_model = fedaqp::smc::CostModel::zero();
    let fed = Federation::build(cfg, dataset.schema.clone(), partitions).expect("federation");
    (fed, dataset.cells)
}

fn demo_query(fed: &Federation) -> RangeQuery {
    QueryBuilder::new(fed.schema(), Aggregate::Sum)
        .range("rating", 2, 5)
        .expect("range")
        .range("week", 20, 180)
        .expect("range")
        .build()
        .expect("query")
}

/// The injected noise (released value − raw estimate) of `trials`
/// repetitions of one query, all submitted inside **one** engine scope: an
/// engine scope is the lifetime of an occurrence ledger, so the repeats are
/// occurrences `0..trials` of one content and draw independent noise.
fn repeated_noise(fed: &Federation, q: &RangeQuery, trials: usize) -> Vec<f64> {
    fed.with_engine(|engine| {
        (0..trials)
            .map(|_| {
                let ans = engine.submit(q, 0.2).expect("submit").wait().expect("run");
                ans.value - ans.raw_estimate
            })
            .collect()
    })
}

/// The released value must differ from the raw estimate (noise is actually
/// injected) yet centre on it across repetitions.
#[test]
fn release_noise_is_centered() {
    let (fed, _) = federation(1, 2.0);
    let q = demo_query(&fed);
    let trials = 120;
    let noises = repeated_noise(&fed, &q, 2 * trials);
    let (for_mean, for_spread) = noises.split_at(trials);
    assert!(
        for_mean.iter().any(|noise| noise.abs() > 1e-9),
        "no noise was ever injected"
    );
    let mean_noise = for_mean.iter().sum::<f64>() / trials as f64;
    // Mean noise ≈ 0; the scale depends on smooth sensitivity, so compare
    // against the observed spread rather than a fixed constant.
    let std = (for_spread.iter().map(|noise| noise * noise).sum::<f64>() / trials as f64).sqrt();
    assert!(
        mean_noise.abs() < 0.5 * std + 1.0,
        "mean noise {mean_noise} vs std {std}"
    );
}

/// What an engine scope means for noise: the same query twice in one scope
/// is occurrence 0 then 1 — different released bits (averaging repeats is
/// never free) — while the same query in two scopes of identically seeded
/// federations is occurrence 0 twice — identical bits (a replay reveals
/// nothing new). `Federation::run` is one query on a fresh scope.
#[test]
fn an_engine_scope_is_the_lifetime_of_the_occurrence_ledger() {
    let (fed_a, _) = federation(11, 1.0);
    let (fed_b, _) = federation(11, 1.0);
    let q = demo_query(&fed_a);
    let in_one_scope = fed_a.with_engine(|engine| {
        [0, 1].map(|_| engine.submit(&q, 0.2).expect("submit").wait().expect("run"))
    });
    assert_ne!(
        in_one_scope[0].value.to_bits(),
        in_one_scope[1].value.to_bits(),
        "a repeat inside one scope must draw fresh noise"
    );
    let fresh_scope = fed_b.run(&q, 0.2).expect("run");
    assert_eq!(
        in_one_scope[0].value.to_bits(),
        fresh_scope.value.to_bits(),
        "occurrence 0 of identically seeded federations must agree"
    );
    assert_eq!(
        fed_a.run(&q, 0.2).expect("run").value.to_bits(),
        fresh_scope.value.to_bits(),
        "two separate runs replay occurrence 0"
    );
}

/// Noise magnitude scales like 1/ε: quartering ε must visibly widen the
/// noise distribution.
#[test]
fn noise_scales_inversely_with_epsilon() {
    let spread = |epsilon: f64| {
        let (fed, _) = federation(2, epsilon);
        let trials = 80;
        let noises = repeated_noise(&fed, &demo_query(&fed), trials);
        noises.iter().map(|noise| noise.abs()).sum::<f64>() / trials as f64
    };
    let tight = spread(4.0);
    let loose = spread(0.5);
    assert!(
        loose > 2.0 * tight,
        "spread at eps=0.5 ({loose}) should dwarf eps=4 ({tight})"
    );
}

/// The allocation-phase summaries are perturbed: two federations over the
/// *same* data with different seeds produce different allocations at least
/// sometimes, and the allocation respects the global budget.
#[test]
fn summaries_are_noisy_but_allocations_feasible() {
    // One engine scope, repeated identical queries: each repeat is a later
    // occurrence with its own RNG lanes, so the Laplace-perturbed summaries
    // — and hence the allocations — must vary across runs while staying
    // feasible.
    let (fed, _) = federation(3, 1.0);
    let q = demo_query(&fed);
    let mut distinct = false;
    let mut reference: Option<Vec<u64>> = None;
    fed.with_engine(|engine| {
        for _ in 0..8 {
            let ans = engine.submit(&q, 0.2).expect("submit").wait().expect("run");
            let total: u64 = ans.allocations.iter().sum();
            assert!(total >= 4, "every provider gets at least one cluster");
            match &reference {
                None => reference = Some(ans.allocations.clone()),
                Some(r) => {
                    if *r != ans.allocations {
                        distinct = true;
                    }
                }
            }
        }
    });
    assert!(
        distinct,
        "allocations identical across noisy runs — summary noise missing?"
    );
}

/// Per-query privacy cost equals ε_O + ε_S + ε_E regardless of path.
#[test]
fn query_cost_is_phase_sum() {
    let budget = QueryBudget::paper_split(1.4, 1e-3).expect("budget");
    assert!((budget.eps_o + budget.eps_s + budget.eps_e - 1.4).abs() < 1e-12);
    let (fed, _) = federation(4, 1.4);
    let q = demo_query(&fed);
    let ans = fed.run_with_budget(&q, 0.2, &budget).expect("run");
    assert!((ans.cost.eps - 1.4).abs() < 1e-12);
    assert_eq!(ans.cost.delta, 1e-3);
}

/// Smooth sensitivities are strictly positive on the approximate path and
/// grow no faster than the per-provider covering-set size allows.
#[test]
fn smooth_sensitivities_are_sane() {
    let (fed, _) = federation(5, 1.0);
    let q = demo_query(&fed);
    let ans = fed.run(&q, 0.2).expect("run");
    assert_eq!(ans.smooth_ls.len(), 4);
    for &s in &ans.smooth_ls {
        assert!(s.is_finite() && s > 0.0, "smooth sensitivity {s}");
    }
}

/// Concurrency privacy invariant: N analyst threads hammering one session
/// through the concurrent engine can never drive the accountant past the
/// session's `(ξ, ψ)` — the check-and-charge is atomic, so exactly
/// `⌊ξ/ε⌋` of the racing queries get answered and the rest are rejected
/// before any provider touches data.
#[test]
fn concurrent_session_never_overspends_budget() {
    let (fed, _) = federation(8, 1.0);
    let engine = FederationEngine::start(fed);
    let session =
        ConcurrentSession::open(engine.handle(), 5.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
    // 8 threads × 3 attempts = 24 queries racing for ⌊ξ/ε⌋ = 5 slots.
    let answered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let session = session.clone();
                scope.spawn(move || {
                    let mut ok = 0u64;
                    for _ in 0..3 {
                        let q = demo_query_for(session.handle().schema());
                        if session.query(&q, 0.2).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(answered, 5, "exactly ξ/ε queries may be answered");
    assert_eq!(session.queries_answered(), 5);
    assert!(session.spent().eps <= 5.0 + 1e-9, "ε overspent");
    assert!(session.spent().delta <= 1e-2 + 1e-9, "δ overspent");
    assert!(!session.can_query());
    engine.shutdown();
}

/// Online plans are fail-closed on the budget ledger: the whole k-round
/// sequential-composition cost is validated and charged atomically before
/// round 1 samples anything. A session that cannot afford the full plan
/// answers *no* round — a partial progressive release would leak rounds
/// the ledger never covered — and the rejection costs nothing.
#[test]
fn online_plans_charge_their_whole_cost_up_front_or_not_at_all() {
    let (fed, _) = federation(10, 1.0);
    let engine = FederationEngine::start(fed);
    let session =
        ConcurrentSession::open(engine.handle(), 2.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
    let q = demo_query_for(session.handle().schema());
    let plan = |epsilon: f64| QueryPlan::Online {
        query: q.clone(),
        sampling_rate: 0.2,
        epsilon,
        delta: 1e-3,
        rounds: 4,
    };

    // Affordable: the whole 1.5ε is on the ledger before round 1 resolves.
    let pending = session.submit_plan(&plan(1.5)).unwrap();
    assert!((session.spent().eps - 1.5).abs() < 1e-9);
    let answer = pending.wait().unwrap();
    assert_eq!(answer.snapshots().map(<[_]>::len), Some(4));
    assert!((session.spent().eps - 1.5).abs() < 1e-9, "cost drifted");

    // Unaffordable (0.5ε left, the plan declares 1.0ε): rejected before
    // any round touches data, ledger untouched.
    assert!(session.submit_plan(&plan(1.0)).is_err());
    assert!((session.spent().eps - 1.5).abs() < 1e-9);

    // The remaining 0.5ε still buys an exactly-affordable plan — the
    // rejection above closed nothing it shouldn't have.
    let answer = session.run_plan(&plan(0.5)).unwrap();
    assert_eq!(answer.snapshots().map(<[_]>::len), Some(4));
    assert!((session.spent().eps - 2.0).abs() < 1e-9);
    assert!(session.submit_plan(&plan(0.1)).is_err(), "ξ is exhausted");
    engine.shutdown();
}

fn demo_query_for(schema: &fedaqp::model::Schema) -> RangeQuery {
    QueryBuilder::new(schema, Aggregate::Sum)
        .range("rating", 2, 5)
        .expect("range")
        .range("week", 20, 180)
        .expect("range")
        .build()
        .expect("query")
}

/// Determinism invariant: a seeded `QueryBatch` returns bit-identical
/// answers whether its queries run one at a time or all concurrently —
/// every `(query, provider)` pair derives its own RNG, so noise cannot
/// depend on how queries interleave on the shared providers.
#[test]
fn seeded_batch_identical_serial_vs_concurrent() {
    let batch_for = |fed: &Federation| {
        let mut batch = QueryBatch::new();
        for i in 0..6 {
            let q = QueryBuilder::new(fed.schema(), Aggregate::Count)
                .range("rating", 1, 4)
                .expect("range")
                .range("week", 10 + 5 * i, 150 + 10 * i)
                .expect("range")
                .build()
                .expect("query");
            batch.push(q, 0.15);
        }
        batch
    };
    let (fed_a, _) = federation(9, 1.0);
    let (fed_b, _) = federation(9, 1.0);
    let serial: Vec<_> = fed_a
        .with_engine(|engine| engine.run_batch_serial(&batch_for(&fed_a)))
        .into_iter()
        .map(|r| r.expect("serial batch"))
        .collect();
    let concurrent: Vec<_> = fed_b
        .with_engine(|engine| engine.run_batch(&batch_for(&fed_b)))
        .into_iter()
        .map(|r| r.expect("concurrent batch"))
        .collect();
    assert_eq!(serial.len(), concurrent.len());
    for (a, b) in serial.iter().zip(&concurrent) {
        assert_eq!(
            a.value, b.value,
            "released value must not depend on interleaving"
        );
        assert_eq!(a.allocations, b.allocations);
        assert_eq!(a.raw_estimate, b.raw_estimate);
        assert_eq!(a.smooth_ls, b.smooth_ls);
        assert_eq!(a.cost.eps, b.cost.eps);
    }
}

/// Queries outside the schema or with invalid rates are rejected without
/// consuming anything.
#[test]
fn invalid_queries_rejected_cleanly() {
    let (fed, _) = federation(6, 1.0);
    let bad_dim = fedaqp::model::RangeQuery::new(
        Aggregate::Count,
        vec![fedaqp::model::Range::new(99, 0, 1).expect("range")],
    )
    .expect("query");
    assert!(fed.run(&bad_dim, 0.2).is_err());
    let q = demo_query(&fed);
    assert!(fed.run(&q, -0.5).is_err());
    assert!(fed.run(&q, 2.0).is_err());
}
