//! End-to-end socket tests: a real [`FederationServer`] on an ephemeral
//! loopback port, driven by real [`RemoteFederation`] clients.
//!
//! Coverage targets:
//! * seeded remote answers are **byte-identical** to the in-process
//!   engine's serial submissions and `run_plan`,
//! * ≥ 4 concurrent clients are served without a dropped connection,
//! * budget exhaustion surfaces as a typed `Error` frame (the connection
//!   survives), and reconnecting cannot reset a spent budget.

use fedaqp_core::{
    ExtremeFragmentSpec, Federation, FederationConfig, FederationEngine, FragmentSpec,
};
use fedaqp_model::{
    Aggregate, DerivedStatistic, Dimension, Domain, Extreme, QueryPlan, Range, RangeQuery, Row,
    Schema,
};
use fedaqp_net::{
    wire, ErrorCode, FederationServer, LoopbackServer, NetError, RemoteFederation, RemoteShard,
    ServeOptions,
};

/// One scalar query under the server's advertised `(ε, δ)`: the released
/// value, or the typed failure.
fn scalar(client: &mut RemoteFederation, query: &RangeQuery, rate: f64) -> Result<f64, NetError> {
    let answer = client.run_plan(&client.scalar_plan(query, rate))?;
    Ok(answer.value().expect("a scalar plan releases a value"))
}

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("y", Domain::new(0, 99).unwrap()),
    ])
    .unwrap()
}

fn partitions(rows_per: usize, n: usize) -> Vec<Vec<Row>> {
    (0..n)
        .map(|p| {
            (0..rows_per)
                .map(|i| {
                    let v = (i * 7 + p * 13) % 1000;
                    Row::cell(vec![v as i64, ((i + p) % 100) as i64], 1 + (i % 3) as u64)
                })
                .collect()
        })
        .collect()
}

fn federation(epsilon: f64) -> Federation {
    let mut cfg = FederationConfig::paper_default(50);
    cfg.cost_model = fedaqp_smc::CostModel::zero();
    cfg.n_min = 3;
    cfg.epsilon = epsilon;
    Federation::build(cfg, schema(), partitions(2000, 4)).unwrap()
}

fn count_query(lo: i64, hi: i64) -> RangeQuery {
    RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
}

/// A shard fragment of `query` under a fixed, valid budget.
fn fragment_spec(query: RangeQuery, sampling_rate: f64, occurrence: u64) -> FragmentSpec {
    FragmentSpec {
        query,
        sampling_rate,
        budget: fedaqp_dp::QueryBudget {
            eps_o: 0.1,
            eps_s: 0.4,
            eps_e: 0.5,
            delta: 1e-3,
        },
        occurrence,
    }
}

fn batch() -> Vec<RangeQuery> {
    (0..6).map(|i| count_query(50 * i, 500 + 50 * i)).collect()
}

/// Two federations built from identical inputs: one served over TCP, one
/// queried in-process. A seeded batch must produce byte-identical
/// released values through both paths — the wire adds transport, never
/// arithmetic.
#[test]
fn remote_batch_is_byte_identical_to_in_process_serial() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    assert_eq!(client.schema(), &schema());
    assert_eq!(client.n_providers(), 4);
    assert_eq!(client.session_budget(), None);
    // One scalar plan per query, back to back on the one connection.
    let remote: Vec<_> = batch()
        .iter()
        .map(|query| {
            let plan = client.scalar_plan(query, 0.2);
            client.run_plan(&plan).unwrap()
        })
        .collect();

    // In process, each query is waited before the next is submitted.
    let in_process: Vec<_> = federation(1.0).with_engine(|engine| {
        batch()
            .iter()
            .map(|query| engine.submit(query, 0.2).unwrap().wait().unwrap())
            .collect()
    });

    assert_eq!(remote.len(), in_process.len());
    for (r, l) in remote.iter().zip(&in_process) {
        let fedaqp_core::PlanResult::Value {
            value,
            ci_halfwidth,
        } = r.result
        else {
            panic!("a scalar plan releases a value, got {:?}", r.result);
        };
        assert_eq!(value.to_bits(), l.value.to_bits(), "released value");
        assert_eq!(
            ci_halfwidth.map(f64::to_bits),
            l.ci_halfwidth.map(f64::to_bits),
            "confidence half-width"
        );
        assert_eq!(r.cost.eps, l.cost.eps);
    }

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// Submit/wait pipelining on one connection mirrors the engine handle:
/// answers come back in submission order.
#[test]
fn pipelined_submits_answer_in_order() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    // The borrow rules make interleaved pending handles impossible on one
    // connection, so pipeline at the wire level: plans are answered
    // strictly in order, so sequential waits pair up correctly.
    let q1 = count_query(0, 400);
    let q2 = count_query(100, 900);
    let a1 = scalar(&mut client, &q1, 0.2).unwrap();
    let a2 = scalar(&mut client, &q2, 0.2).unwrap();
    assert!(a1.is_finite() && a2.is_finite());
    // Spot-check submit/wait as separate steps too.
    let plan = client.scalar_plan(&q1, 0.2);
    let a3 = client.submit_plan(&plan).unwrap().wait().unwrap();
    assert!(a3.value().unwrap().is_finite());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// Dropping a pending query without waiting must not desynchronize the
/// stream: the next query's answer is its own, not the abandoned one's.
#[test]
fn dropped_pending_does_not_desync_the_connection() {
    // High ε keeps the DP noise small so "big answer" vs "small answer"
    // is unambiguous.
    let engine = FederationEngine::start(federation(50.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    // A query matching (almost) everything vs. one matching (almost)
    // nothing: with ε = 1 their answers are orders of magnitude apart, so
    // a swapped reply is unmistakable.
    let q_big = count_query(0, 999);
    let q_small = count_query(998, 999);
    let expected_small = scalar(&mut client, &q_small, 0.2).unwrap();

    // Submit the big query and abandon the pending handle.
    let big_plan = client.scalar_plan(&q_big, 0.2);
    let _ = client.submit_plan(&big_plan).unwrap();
    // The next query must get its own answer, not q_big's stale reply.
    let small_again = scalar(&mut client, &q_small, 0.2).unwrap();
    let big = scalar(&mut client, &q_big, 0.2).unwrap();
    assert!(
        (small_again - expected_small).abs() < 0.2 * big.max(1.0),
        "stale reply leaked: got {small_again}, small ≈ {expected_small}, big ≈ {big}"
    );
    assert!(big > 10.0 * small_again.abs().max(1.0));
    // A status request after an abandoned submit also stays in sync.
    let _ = client.submit_plan(&big_plan).unwrap();
    assert!(!client.budget_status().unwrap().limited);

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// ≥ 4 concurrent remote analysts hammer one server; every query is
/// answered (no dropped connections, no cross-talk between sockets).
#[test]
fn four_concurrent_clients_are_all_served() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let per_client = 8usize;
    let answers: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|analyst: usize| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client =
                        RemoteFederation::connect_as(&addr, &format!("analyst-{analyst}")).unwrap();
                    (0..per_client)
                        .map(|i| {
                            let lo = ((i * 31 + analyst * 7) % 300) as i64;
                            let hi = (400 + (i * 53) % 500) as i64;
                            scalar(&mut client, &count_query(lo, hi), 0.2).unwrap()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answers.len(), 4);
    for per_analyst in &answers {
        assert_eq!(per_analyst.len(), per_client);
        assert!(per_analyst.iter().all(|v| v.is_finite()));
    }

    server.shutdown();
    engine.shutdown();
}

/// Budget exhaustion is a *typed* protocol error, not a hangup: the
/// connection keeps answering status requests, and neither reconnecting
/// nor parallel connections reset the analyst's ledger.
#[test]
fn budget_exhaustion_is_typed_and_sticky_across_reconnects() {
    let engine = FederationEngine::start(federation(1.0));
    // ξ = 2 at ε = 1 per query: exactly two queries fit.
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(2.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut alice = RemoteFederation::connect_as(&addr, "alice").unwrap();
    assert_eq!(alice.session_budget(), Some((2.0, 1e-2)));
    let q = count_query(100, 800);
    scalar(&mut alice, &q, 0.2).unwrap();
    scalar(&mut alice, &q, 0.2).unwrap();
    match scalar(&mut alice, &q, 0.2) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BudgetExhausted);
            assert!(message.contains("budget"), "{message}");
        }
        other => panic!("expected a typed budget error, got {other:?}"),
    }
    // The connection survived the rejection.
    let status = alice.budget_status().unwrap();
    assert!(status.limited);
    assert!((status.spent_eps - 2.0).abs() < 1e-9);
    assert_eq!(status.queries_answered, 2);

    // Reconnecting under the same identity cannot reset the ledger…
    let mut alice_again = RemoteFederation::connect_as(&addr, "alice").unwrap();
    match scalar(&mut alice_again, &q, 0.2) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExhausted),
        other => panic!("expected a typed budget error, got {other:?}"),
    }
    // …while a different analyst gets a fresh one.
    let mut bob = RemoteFederation::connect_as(&addr, "bob").unwrap();
    assert!(scalar(&mut bob, &q, 0.2).is_ok());

    drop((alice, alice_again, bob));
    server.shutdown();
    engine.shutdown();
}

/// Six plans pipelined past the budget boundary — all written before any
/// reply is read: the affordable prefix is answered, the rest comes back
/// as typed errors, in order.
#[test]
fn batch_straddling_the_budget_gets_partial_answers() {
    let engine = FederationEngine::start(federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(3.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    use fedaqp_net::wire::{read_frame, write_frame, Frame, Hello, PlanRequest};

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "carol".into(),
        }),
    )
    .unwrap();
    let Frame::HelloAck(ack) = read_frame(&mut stream).unwrap() else {
        panic!("expected HelloAck");
    };
    for query in batch() {
        let plan = QueryPlan::Scalar {
            query,
            sampling_rate: 0.2,
            epsilon: ack.epsilon,
            delta: ack.delta,
        };
        write_frame(&mut stream, &Frame::Plan(PlanRequest { plan })).unwrap();
    }
    // 6 plans, 3 afford: exactly ξ/ε answers, then the typed refusals.
    for i in 0..6 {
        match read_frame(&mut stream).unwrap() {
            Frame::PlanAnswer(_) if i < 3 => {}
            Frame::Error(e) if i >= 3 => assert_eq!(e.code, ErrorCode::BudgetExhausted),
            other => panic!("reply {i}: {other:?}"),
        }
    }

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// Garbage on the socket gets a typed error reply, then the connection is
/// closed — never a panic, never a silent drop.
#[test]
fn malformed_bytes_get_a_typed_error_then_close() {
    use std::io::Write as _;

    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr();

    // Handshake properly first, then send garbage.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    fedaqp_net::wire::write_frame(
        &mut stream,
        &fedaqp_net::Frame::Hello(fedaqp_net::wire::Hello {
            analyst: "mallory".into(),
        }),
    )
    .unwrap();
    match fedaqp_net::wire::read_frame(&mut stream).unwrap() {
        fedaqp_net::Frame::HelloAck(_) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    stream.write_all(&[0xDE; 64]).unwrap();
    stream.flush().unwrap();
    match fedaqp_net::wire::read_frame(&mut stream) {
        Ok(fedaqp_net::Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected a BadRequest error frame, got {other:?}"),
    }
    // The server closed its side after the unsyncable stream.
    assert!(matches!(
        fedaqp_net::wire::read_frame(&mut stream),
        Err(NetError::Disconnected)
    ));

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// Schema with a small categorical dimension for plan tests.
fn plan_schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("cat", Domain::new(0, 4).unwrap()),
    ])
    .unwrap()
}

/// The seeded per-provider data the plan tests run over.
fn plan_partitions() -> Vec<Vec<Row>> {
    (0..4)
        .map(|p| {
            (0..2000)
                .map(|i| {
                    let v = (i * 7 + p * 13) % 1000;
                    Row::cell(vec![v as i64, ((i + p) % 5) as i64], 1 + (i % 3) as u64)
                })
                .collect()
        })
        .collect()
}

fn plan_config(epsilon: f64) -> FederationConfig {
    let mut cfg = FederationConfig::paper_default(50);
    cfg.cost_model = fedaqp_smc::CostModel::zero();
    cfg.n_min = 3;
    cfg.epsilon = epsilon;
    cfg
}

/// A federation with a small categorical dimension for plan tests.
fn plan_federation(epsilon: f64) -> Federation {
    Federation::build(plan_config(epsilon), plan_schema(), plan_partitions()).unwrap()
}

/// The seeded mixed workload: one plan of every kind.
fn mixed_plans() -> Vec<QueryPlan> {
    vec![
        QueryPlan::Scalar {
            query: count_query(100, 800),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
        QueryPlan::Derived {
            query: count_query(0, 900),
            statistic: DerivedStatistic::Average,
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
        QueryPlan::GroupBy {
            base: count_query(0, 999),
            statistic: None,
            group_dim: 1,
            threshold: 0.0,
            sampling_rate: 0.2,
            epsilon: 2.5,
            delta: 1e-3,
        },
        QueryPlan::Extreme {
            dim: 0,
            extreme: Extreme::Max,
            epsilon: 5.0,
        },
    ]
}

/// The acceptance bar of the plan redesign: a seeded mixed batch — scalar,
/// derived, group-by, and extreme — answered over a real socket is
/// byte-identical to the same plans run in-process. The wire carries
/// plans, never arithmetic.
#[test]
fn remote_plans_are_byte_identical_to_in_process() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    let remote: Vec<_> = mixed_plans()
        .iter()
        .map(|plan| client.run_plan(plan).unwrap())
        .collect();

    let in_process: Vec<_> = plan_federation(1.0).with_engine(|engine| {
        mixed_plans()
            .iter()
            .map(|plan| engine.run_plan(plan).unwrap())
            .collect()
    });

    assert_eq!(remote.len(), in_process.len());
    for (r, l) in remote.iter().zip(&in_process) {
        assert_eq!(r.result, l.result, "released result");
        assert_eq!(r.cost, l.cost, "charged cost");
    }
    // Spot-check the shapes came through. Threshold 0 still suppresses
    // groups whose noise swung negative, so released + suppressed = 5.
    assert!(remote[0].value().is_some());
    let groups = remote[2].groups().unwrap();
    match &remote[2].result {
        fedaqp_core::PlanResult::Groups { suppressed, .. } => {
            assert_eq!(groups.len() as u64 + suppressed, 5, "5 categories");
        }
        other => panic!("expected groups, got {other:?}"),
    }
    assert!(!groups.is_empty());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// EXPLAIN over the wire: the remote explanation is identical to the one
/// the in-process engine computes, asking for it charges nothing to a
/// session-capped analyst, and the explained plan still runs afterwards.
#[test]
fn remote_explain_matches_in_process_and_charges_nothing() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(5.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect_as(&addr, "erin").unwrap();
    for plan in mixed_plans() {
        let remote = client.explain_plan(&plan).unwrap();
        let local = plan_federation(1.0).with_engine(|engine| engine.explain_plan(&plan).unwrap());
        assert_eq!(remote, local, "explanations must agree across the wire");
    }
    let status = client.budget_status().unwrap();
    assert_eq!(status.spent_eps, 0.0, "explaining must charge nothing");
    assert_eq!(status.queries_answered, 0);

    // The explained plan still runs on the same connection.
    let answer = client
        .run_plan(&QueryPlan::Scalar {
            query: count_query(100, 800),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        })
        .unwrap();
    assert!(answer.value().unwrap().is_finite());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// A session-capped server charges a plan's *whole* declared (ε, δ)
/// atomically: a group-by that fits is answered, the next plan that does
/// not is a typed error, and reconnecting cannot reset the ledger.
#[test]
fn plan_budgets_are_charged_whole_and_typed() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(3.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut dana = RemoteFederation::connect_as(&addr, "dana").unwrap();
    let group_by = QueryPlan::GroupBy {
        base: count_query(0, 999),
        statistic: None,
        group_dim: 1,
        threshold: 0.0,
        sampling_rate: 0.2,
        epsilon: 2.5,
        delta: 1e-3,
    };
    dana.run_plan(&group_by).unwrap();
    let status = dana.budget_status().unwrap();
    assert!(
        (status.spent_eps - 2.5).abs() < 1e-9,
        "the whole plan (not per-sub-query driblets) is on the ledger: {}",
        status.spent_eps
    );
    // ξ has 0.5 left: the same 2.5-ε plan no longer fits, typed error.
    match dana.run_plan(&group_by) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExhausted),
        other => panic!("expected a typed budget error, got {other:?}"),
    }
    // An invalid plan costs nothing (validate-before-charge): the spend is
    // unchanged after a rejected group-by over a filtered group dim.
    let invalid = QueryPlan::GroupBy {
        base: RangeQuery::new(Aggregate::Count, vec![Range::new(1, 0, 2).unwrap()]).unwrap(),
        statistic: None,
        group_dim: 1,
        threshold: 0.0,
        sampling_rate: 0.2,
        epsilon: 0.1,
        delta: 1e-4,
    };
    assert!(dana.run_plan(&invalid).is_err());
    let status = dana.budget_status().unwrap();
    assert!((status.spent_eps - 2.5).abs() < 1e-9);
    // Reconnecting cannot reset the plan spend.
    let mut dana_again = RemoteFederation::connect_as(&addr, "dana").unwrap();
    match dana_again.run_plan(&group_by) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExhausted),
        other => panic!("expected a typed budget error, got {other:?}"),
    }

    drop((dana, dana_again));
    server.shutdown();
    engine.shutdown();
}

/// A `Hello` stamped with any version but the current one — retired or
/// from the future — gets a typed negotiation error frame carrying the
/// server's version, from every role, before the close: never a bare
/// hangup, never a role-specific refusal.
#[test]
fn unknown_versions_get_a_typed_error_not_a_hangup() {
    use fedaqp_net::wire::{encode_frame, read_frame, Frame, Hello};
    use std::io::Write as _;

    let roles = EveryRole::spawn(ServeOptions::unlimited());
    for (role, listener) in &roles.listeners {
        for version in [1u16, 5, 99] {
            let mut stream = std::net::TcpStream::connect(listener.addr()).unwrap();
            let mut bytes = encode_frame(&Frame::Hello(Hello {
                analyst: "out-of-date".into(),
            }))
            .unwrap();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            stream.write_all(&bytes).unwrap();
            stream.flush().unwrap();

            match read_frame(&mut stream) {
                Ok(Frame::Error(e)) => {
                    assert_eq!(e.code, ErrorCode::UnsupportedVersion, "{role} v{version}");
                    assert_eq!(e.index, 6, "{role}: the server's version");
                    assert!(e.message.contains(&version.to_string()), "{}", e.message);
                }
                other => panic!("{role} v{version}: expected a version error, got {other:?}"),
            }
            // The server closed after the unsyncable stream.
            assert!(
                matches!(read_frame(&mut stream), Err(NetError::Disconnected)),
                "{role} v{version}"
            );
        }
    }
    roles.shutdown();
}

/// Connecting to a dead port and binding an unbindable address both fail
/// with displayable errors (the CLI turns these into one-line exits).
#[test]
fn connect_and_bind_failures_are_clean() {
    // Grab an ephemeral port, then free it: connecting is very likely to
    // be refused.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    match RemoteFederation::connect(&format!("127.0.0.1:{port}")) {
        Err(NetError::Connect { addr, .. }) => assert!(addr.contains(&port.to_string())),
        other => panic!("expected a connect error, got {other:?}"),
    }

    let engine = FederationEngine::start(federation(1.0));
    match FederationServer::bind("256.0.0.1:1", engine.handle(), ServeOptions::unlimited()) {
        Err(NetError::Bind { .. }) => {}
        other => panic!("expected a bind error, got {other:?}"),
    }
    // Invalid serve budgets are rejected at bind time.
    match FederationServer::bind(
        "127.0.0.1:0",
        engine.handle(),
        ServeOptions::with_budget(-1.0, 1e-2),
    ) {
        Err(NetError::BadServeConfig(_)) => {}
        other => panic!("expected a config error, got {other:?}"),
    }
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Sharded deployment: coordinator federating shard-mode servers.
// ---------------------------------------------------------------------------

/// Builds the plan-test federation as `n_shards` contiguous engine
/// shards, each behind its own shard-mode loopback server. Returns the
/// engines (kept alive for shutdown) alongside their servers.
fn spawn_shard_grid(n_shards: usize) -> (Vec<FederationEngine>, Vec<LoopbackServer>) {
    spawn_grid(plan_schema(), plan_partitions(), n_shards)
}

/// [`spawn_shard_grid`] over any schema and partitions.
fn spawn_grid(
    schema: Schema,
    partitions: Vec<Vec<Row>>,
    n_shards: usize,
) -> (Vec<FederationEngine>, Vec<LoopbackServer>) {
    let cfg = plan_config(1.0);
    let mut partitions = partitions.into_iter();
    let (base, extra) = (cfg.n_providers / n_shards, cfg.n_providers % n_shards);
    let mut offset = 0usize;
    let mut engines = Vec::with_capacity(n_shards);
    let mut servers = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        let k = base + usize::from(s < extra);
        let mut shard_cfg = cfg.clone();
        shard_cfg.n_providers = k;
        shard_cfg.provider_lane_base = cfg.provider_lane_base + offset as u64;
        let shard_partitions: Vec<Vec<Row>> = partitions.by_ref().take(k).collect();
        let engine = FederationEngine::start(
            Federation::build(shard_cfg, schema.clone(), shard_partitions).unwrap(),
        );
        servers.push(LoopbackServer::shard(engine.handle()).unwrap());
        engines.push(engine);
        offset += k;
    }
    (engines, servers)
}

/// Connects a coordinator to the given shard servers and serves it to
/// analysts on its own loopback port.
fn spawn_coordinator(servers: &[LoopbackServer], options: ServeOptions) -> LoopbackServer {
    LoopbackServer::coordinator(connect_coordinator(servers), options).unwrap()
}

/// The tentpole's acceptance bar, over real sockets: a coordinator
/// federating TWO engine shards answers the seeded mixed plans — and a
/// scalar under the advertised default budget — byte-identically to one in-process engine
/// holding the same four providers. Sharding moves execution, never
/// arithmetic, and the analyst protocol is exactly the one engine-backed
/// servers speak.
#[test]
fn two_remote_shards_serve_plans_byte_identical_to_one_engine() {
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::unlimited());

    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    assert_eq!(client.schema(), &plan_schema());
    assert_eq!(client.n_providers(), 4);
    let remote_plans: Vec<_> = mixed_plans()
        .iter()
        .map(|plan| client.run_plan(plan).unwrap())
        .collect();
    let default_scalar = client.scalar_plan(&count_query(100, 800), 0.2);
    let remote_scalar = client.run_plan(&default_scalar).unwrap();

    let (local_plans, local_scalar) = plan_federation(1.0).with_engine(|engine| {
        let plans: Vec<_> = mixed_plans()
            .iter()
            .map(|plan| engine.run_plan(plan).unwrap())
            .collect();
        let scalar = engine
            .submit(&count_query(100, 800), 0.2)
            .unwrap()
            .wait()
            .unwrap();
        (plans, scalar)
    });

    for (r, l) in remote_plans.iter().zip(&local_plans) {
        assert_eq!(r.result, l.result, "released result");
        assert_eq!(r.cost, l.cost, "charged cost");
    }
    assert_eq!(
        remote_scalar.result,
        fedaqp_core::PlanResult::Value {
            value: local_scalar.value,
            ci_halfwidth: local_scalar.ci_halfwidth,
        },
        "released scalar"
    );
    assert_eq!(remote_scalar.cost.eps, local_scalar.cost.eps);

    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// A shard dying between coordinator start-up and a plan surfaces as the
/// typed `shard-unavailable` error frame — never a hangup — and the
/// fail-closed contract holds over the wire: the whole plan budget was
/// charged before the scatter, and the charge is kept.
#[test]
fn a_dead_shard_is_typed_shard_unavailable_and_the_charge_is_kept() {
    let (engines, mut shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::with_budget(20.0, 1e-1));
    // Kill shard 1 after the coordinator cached its bounds: every
    // fragment sent its way now hits a refused connection.
    shard_servers.pop().unwrap().shutdown();

    let plan = mixed_plans().swap_remove(0);
    // What the plan charges when it succeeds (costs are data-independent).
    let expected = plan_federation(1.0).with_engine(|engine| engine.run_plan(&plan).unwrap().cost);

    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    match client.run_plan(&plan) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
            assert!(message.contains("shard-unavailable"), "{message}");
        }
        other => panic!("expected a typed shard fault, got {other:?}"),
    }
    // Fail-closed: the whole charge stays on the analyst's ledger, and
    // the connection survives to report it.
    let status = client.budget_status().unwrap();
    assert_eq!(status.spent_eps, expected.eps, "whole plan cost kept");
    // The ledger counts charges, and the failed plan WAS charged — the
    // status frame agrees with the fail-closed story.
    assert_eq!(status.queries_answered, 1);

    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// Connects a coordinator to the given shard servers, in-process — the
/// front door the pool tests drive directly, so no analyst connection
/// muddies the shard-side counters.
fn connect_coordinator(servers: &[LoopbackServer]) -> fedaqp_core::ShardedFederation {
    let shards: Vec<Box<dyn fedaqp_core::ShardBackend>> = servers
        .iter()
        .map(|s| {
            Box::new(RemoteShard::connect(s.addr()).unwrap()) as Box<dyn fedaqp_core::ShardBackend>
        })
        .collect();
    fedaqp_core::ShardedFederation::from_backends(plan_config(1.0), plan_schema(), shards).unwrap()
}

fn shutdown_grid(engines: Vec<FederationEngine>, servers: Vec<LoopbackServer>) {
    for server in servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// Liveness without ordering: shard workers never park at a fragment's
/// allocation barrier — a summary turn leaves its carry in the fragment
/// and the allocation queues the execute turns — so the shards' queues
/// may see two analysts' batches as `[P, Q]` on one shard and `[Q, P]` on
/// the other, and both still drain. Four analyst connections hammering a
/// 2-shard grid with the mixed plans (group-bys batch many fragments)
/// must finish — and a hang must fail this test, not wedge the run.
#[test]
fn concurrent_analysts_on_a_shard_grid_never_deadlock() {
    const ANALYSTS: usize = 4;
    const PASSES: usize = 6;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (engines, shard_servers) = spawn_shard_grid(2);
        let coordinator = spawn_coordinator(&shard_servers, ServeOptions::unlimited());
        std::thread::scope(|scope| {
            for analyst in 0..ANALYSTS {
                let addr = coordinator.addr();
                scope.spawn(move || {
                    let mut client =
                        RemoteFederation::connect_as(addr, &format!("analyst-{analyst}")).unwrap();
                    for _ in 0..PASSES {
                        for plan in mixed_plans() {
                            client.run_plan(&plan).unwrap();
                        }
                    }
                });
            }
        });
        coordinator.shutdown();
        shutdown_grid(engines, shard_servers);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the shard grid deadlocked (or a worker panicked) under concurrent analysts");
}

/// Connection reuse, as counts. After one warm-up pass, `K` further
/// passes open **no** connection to any shard while the shards receive
/// exactly the fragment frames the lifecycle is made of: two per shard
/// per private sub-query (the batch and its allocations), one per shard
/// per extreme.
///
/// The obs registry is process-global and sibling tests only ever push
/// its counters *up*, so the measurement is retried until a window is
/// clean: a window with zero new connections proves reuse (without the
/// pool no window can show fewer than `K × 4`), and no window may ever
/// show fewer frames than the lifecycle needs.
#[test]
fn pooled_connections_are_reused_and_the_frame_count_is_unchanged() {
    const K: u64 = 8;
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = connect_coordinator(&shard_servers);
    let scalar = mixed_plans().swap_remove(0);
    let extreme = mixed_plans().swap_remove(3);
    let run_pass = || {
        coordinator.run_plan(&scalar).unwrap();
        coordinator.run_plan(&extreme).unwrap();
    };
    let frames_per_pass = 2 * 2 + 2;
    let counter = |name: &str| fedaqp_obs::global().counter(name).get();
    let connections = || counter("fedaqp_server_connections_total");
    let frames = || counter("fedaqp_server_frames_total.fragment");

    run_pass();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (connections_before, frames_before) = (connections(), frames());
        for _ in 0..K {
            run_pass();
        }
        let opened = connections() - connections_before;
        let received = frames() - frames_before;
        assert!(received >= K * frames_per_pass, "{received} frames");
        if opened == 0 && received == K * frames_per_pass {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{K} passes opened {opened} connections and sent {received} fragment frames \
             (expected 0 and {})",
            K * frames_per_pass
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    shutdown_grid(engines, shard_servers);
}

/// A remote shard that counts the coordinator's writes to it — each one
/// round trip: a batch begun (its fragments go out, the summaries come
/// back), its allocations delivered (the allocations go out, the partials
/// stream back).
struct CountingShard {
    inner: RemoteShard,
    writes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

struct CountingBatch {
    inner: Box<dyn fedaqp_core::FragmentBatch>,
    writes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl fedaqp_core::ShardBackend for CountingShard {
    fn n_providers(&self) -> usize {
        self.inner.n_providers()
    }

    fn bounds(&self) -> Vec<fedaqp_core::ProviderBounds> {
        self.inner.bounds()
    }

    fn begin(
        &self,
        specs: &[fedaqp_core::FragmentSpec],
    ) -> fedaqp_core::Result<Box<dyn fedaqp_core::FragmentBatch>> {
        self.writes
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(Box::new(CountingBatch {
            inner: self.inner.begin(specs)?,
            writes: std::sync::Arc::clone(&self.writes),
        }))
    }

    fn extreme(
        &self,
        spec: &fedaqp_core::ExtremeFragmentSpec,
    ) -> fedaqp_core::Result<Box<dyn fedaqp_core::ExtremeReply>> {
        self.writes
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.extreme(spec)
    }
}

impl fedaqp_core::FragmentBatch for CountingBatch {
    fn summaries(&mut self) -> fedaqp_core::Result<Vec<fedaqp_core::FragmentSummaries>> {
        self.inner.summaries()
    }

    fn allocate(&mut self, allocations: Vec<Vec<u64>>) -> fedaqp_core::Result<()> {
        self.writes
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.allocate(allocations)
    }

    fn partial(&mut self) -> fedaqp_core::Result<fedaqp_core::FragmentPartial> {
        self.inner.partial()
    }
}

/// A plan crosses the shard wire once: a GROUP BY over 8 groups — eight
/// sub-queries — costs each shard of a 2-shard loopback grid exactly the
/// round trips of a scalar (its fragments travel as one batch), and
/// still answers byte-identically to one engine.
#[test]
fn a_group_by_costs_each_shard_the_round_trips_of_a_scalar() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let schema = Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("g", Domain::new(0, 7).unwrap()),
    ])
    .unwrap();
    let partitions: Vec<Vec<Row>> = (0..4)
        .map(|p| {
            (0..800)
                .map(|i| {
                    Row::cell(
                        vec![((i * 7 + p * 13) % 1000) as i64, ((i + p) % 8) as i64],
                        1,
                    )
                })
                .collect()
        })
        .collect();
    let (engines, servers) = spawn_grid(schema.clone(), partitions.clone(), 2);
    let writes: Vec<Arc<AtomicUsize>> = servers.iter().map(|_| Arc::default()).collect();
    let shards: Vec<Box<dyn fedaqp_core::ShardBackend>> = servers
        .iter()
        .zip(&writes)
        .map(|(server, writes)| {
            Box::new(CountingShard {
                inner: RemoteShard::connect(server.addr()).unwrap(),
                writes: Arc::clone(writes),
            }) as Box<dyn fedaqp_core::ShardBackend>
        })
        .collect();
    let coordinator =
        fedaqp_core::ShardedFederation::from_backends(plan_config(1.0), schema.clone(), shards)
            .unwrap();
    let scalar = QueryPlan::Scalar {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        epsilon: 1.0,
        delta: 1e-3,
    };
    let group_by = QueryPlan::GroupBy {
        base: count_query(0, 999),
        statistic: None,
        group_dim: 1,
        threshold: 0.0,
        sampling_rate: 0.2,
        epsilon: 4.0,
        delta: 1e-3,
    };
    let round_trips = |plan: &QueryPlan| {
        let before: Vec<usize> = writes.iter().map(|w| w.load(Ordering::SeqCst)).collect();
        let answer = coordinator.run_plan(plan).unwrap();
        let trips: Vec<usize> = writes
            .iter()
            .zip(before)
            .map(|(w, before)| w.load(Ordering::SeqCst) - before)
            .collect();
        (answer, trips)
    };
    let (_, scalar_trips) = round_trips(&scalar);
    let (grouped, group_trips) = round_trips(&group_by);
    assert_eq!(scalar_trips, [2, 2]);
    assert_eq!(group_trips, scalar_trips, "8 groups, one batch per shard");
    let fedaqp_core::PlanResult::Groups { groups, suppressed } = &grouped.result else {
        panic!("a group-by answers groups: {:?}", grouped.result);
    };
    assert_eq!(groups.len() as u64 + suppressed, 8);

    let expected = Federation::build(plan_config(1.0), schema, partitions)
        .unwrap()
        .with_engine(|engine| {
            engine.run_plan(&scalar).unwrap();
            engine.run_plan(&group_by).unwrap()
        });
    assert_eq!(grouped.result, expected.result);
    shutdown_grid(engines, servers);
}

/// Reuse preserves bytes: the seeded mixed plans run twice through one
/// coordinator — the second pass entirely on pooled connections — are
/// bit-identical to the in-process engine's first and second
/// occurrences. A connection carries no state from one fragment to the
/// next; the occurrence index travels in every `Fragment` frame.
#[test]
fn pooled_connections_serve_repeat_plans_byte_identical_to_one_engine() {
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::unlimited());
    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    let two_passes = || mixed_plans().into_iter().chain(mixed_plans());
    let remote: Vec<_> = two_passes()
        .map(|plan| client.run_plan(&plan).unwrap())
        .collect();
    let local: Vec<_> = plan_federation(1.0).with_engine(|engine| {
        two_passes()
            .map(|plan| engine.run_plan(&plan).unwrap())
            .collect()
    });
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(r.result, l.result, "released result");
        assert_eq!(r.cost, l.cost, "charged cost");
    }
    let n = mixed_plans().len();
    assert_ne!(
        remote[0].result, remote[n].result,
        "a repeat draws fresh noise"
    );
    drop(client);
    coordinator.shutdown();
    shutdown_grid(engines, shard_servers);
}

/// A shard whose *engine* stops after it served fragments: the listener
/// still accepts and the coordinator holds idle pooled connections to it,
/// so no socket ever fails — the shard answers the next fragment with a
/// typed rejection. That must surface exactly like a refused connection:
/// typed `shard-unavailable`, whole charge kept, connection alive.
#[test]
fn a_shard_stopped_behind_idle_pooled_connections_is_typed_shard_unavailable() {
    let (mut engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::with_budget(20.0, 1e-1));
    let plan = mixed_plans().swap_remove(0);
    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    let cost = client.run_plan(&plan).unwrap().cost;

    engines.pop().unwrap().shutdown();
    match client.run_plan(&plan) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
            assert!(message.contains("shard-unavailable"), "{message}");
        }
        other => panic!("expected a typed shard fault, got {other:?}"),
    }
    let status = client.budget_status().unwrap();
    assert_eq!(status.spent_eps, 2.0 * cost.eps, "both charges kept");
    assert_eq!(status.queries_answered, 2);

    drop(client);
    coordinator.shutdown();
    shutdown_grid(engines, shard_servers);
}

/// A sub-query dropped un-gathered closes its connections instead of
/// returning them (their streams still owe replies), so it can neither
/// desynchronize a sibling already in flight nor the plans that follow:
/// everything else stays bit-identical to the one-engine run.
#[test]
fn a_fragment_dropped_ungathered_leaves_siblings_and_later_plans_unaffected() {
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = connect_coordinator(&shard_servers);
    let group_by = mixed_plans().swap_remove(2);
    let scalar = mixed_plans().swap_remove(0);
    // Warm the pool, so the dropped plan runs on pooled connections.
    let warm_up = coordinator.run_plan(&scalar).unwrap();

    let dropped = coordinator.submit_plan(&group_by).unwrap();
    let sibling = coordinator.submit_plan(&scalar).unwrap();
    drop(dropped);
    let sibling = sibling.wait().unwrap();
    let after: Vec<_> = mixed_plans()
        .iter()
        .map(|plan| coordinator.run_plan(plan).unwrap())
        .collect();

    plan_federation(1.0).with_engine(|engine| {
        assert_eq!(warm_up.result, engine.run_plan(&scalar).unwrap().result);
        // The dropped plan still advanced the occurrence ledger.
        engine.run_plan(&group_by).unwrap();
        assert_eq!(sibling.result, engine.run_plan(&scalar).unwrap().result);
        for (plan, got) in mixed_plans().iter().zip(&after) {
            assert_eq!(got.result, engine.run_plan(plan).unwrap().result);
        }
    });
    shutdown_grid(engines, shard_servers);
}

/// Analyst-facing servers refuse every coordinator→shard fragment frame
/// with a pointed typed error: serving fragments to arbitrary analysts
/// would hand out budget-unchecked partials and per-fragment occurrence
/// control (a differencing lever). The refusal is per-frame — the
/// connection keeps serving analyst frames.
#[test]
fn analyst_servers_refuse_fragment_frames() {
    use fedaqp_net::wire::{read_frame, write_frame, Frame, Hello};

    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "rogue-coordinator".into(),
        }),
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));

    let allocation = Frame::FragmentAllocation(vec![vec![1; 4]]);
    for frame in [Frame::ShardBoundsRequest, allocation] {
        write_frame(&mut stream, &frame).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.message.contains("shard-mode"), "{}", e.message);
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
    write_frame(&mut stream, &Frame::BudgetRequest).unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::BudgetStatus(_)
    ));

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// Shard-mode servers are the mirror image: analyst frames get a typed
/// redirect to the coordinator — querying a shard directly would bypass
/// the coordinator's single budget ledger. (A `Hello` at a retired
/// version is refused like at any other role:
/// `unknown_versions_get_a_typed_error_not_a_hangup`.)
#[test]
fn shard_servers_refuse_old_hellos_and_analyst_frames() {
    use fedaqp_net::wire::{read_frame, write_frame, Frame, Hello, PlanRequest};

    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::shard(engine.handle()).unwrap();

    // (a, b) A connection speaking analyst frames is redirected.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "direct-analyst".into(),
        }),
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));
    write_frame(
        &mut stream,
        &Frame::Plan(PlanRequest {
            plan: mixed_plans().swap_remove(0),
        }),
    )
    .unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("coordinator"), "{}", e.message);
        }
        other => panic!("expected a typed redirect, got {other:?}"),
    }
    // (c) Fragment-lifecycle frames with no fragment in flight are typed
    // too, and the connection survives both refusals.
    let allocation = Frame::FragmentAllocation(vec![vec![1; 4]]);
    write_frame(&mut stream, &allocation).unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("no fragment"), "{}", e.message);
        }
        other => panic!("expected a typed lifecycle error, got {other:?}"),
    }
    write_frame(&mut stream, &Frame::ShardBoundsRequest).unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::ShardBounds(_)
    ));

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// Every arm of a shard connection's batch handling, on one raw
/// connection: each misuse gets a typed `bad-request` error and the
/// connection keeps answering `ShardBoundsRequest`; a rejected allocation
/// leaves no batch behind, so the next `Fragment` on the same connection
/// is served.
#[test]
fn shard_connections_answer_every_batch_misuse_and_keep_serving() {
    use fedaqp_net::wire::{read_frame, write_frame, Frame, Hello};

    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::shard(engine.handle()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let hello = Frame::Hello(Hello {
        analyst: "coordinator".into(),
    });
    write_frame(&mut stream, &hello).unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));

    let spec = |occurrence| fragment_spec(count_query(100, 800), 0.2, occurrence);
    let batch = |n: u64| Frame::Fragment((0..n).map(spec).collect());
    // A batch of two whose second spec is one the shard's entry refuses.
    let bad_second = |bad: fn(&mut FragmentSpec)| {
        let mut second = spec(1);
        bad(&mut second);
        Frame::Fragment(vec![spec(0), second])
    };
    let allocation = |entries: usize, providers: usize| {
        Frame::FragmentAllocation(vec![vec![2; providers]; entries])
    };
    let bad = |needle| Err((ErrorCode::BadRequest, needle));
    // The four providers' batch of two, misused every way in turn: each
    // step's reply kinds, or the typed error's code and message. A refused
    // batch leaves nothing in flight, so the next batch is served.
    type Expected = Result<&'static [&'static str], (ErrorCode, &'static str)>;
    let steps: Vec<(Frame, Expected)> = vec![
        (batch(0), bad("at least one fragment")),
        (allocation(1, 4), bad("no fragment in flight")),
        (batch(2), Ok(&["FragmentSummaries"])),
        (batch(1), bad("one fragment batch at a time")),
        (allocation(1, 4), bad("do not match the batch")),
        (batch(2), Ok(&["FragmentSummaries"])),
        (allocation(2, 3), bad("does not match shard providers")),
        (
            bad_second(|s| s.sampling_rate = 1.5),
            Err((ErrorCode::InvalidSamplingRate, "1.5")),
        ),
        (
            bad_second(|s| {
                s.query =
                    RangeQuery::new(Aggregate::Count, vec![Range::new(7, 0, 9).unwrap()]).unwrap()
            }),
            Err((ErrorCode::InvalidQuery, "7")),
        ),
        (bad_second(|s| s.budget.eps_o = 0.0), bad("budget phases")),
        (batch(2), Ok(&["FragmentSummaries"])),
        (
            allocation(2, 4),
            Ok(&["FragmentPartial", "FragmentPartial"]),
        ),
    ];
    for (step, (frame, expected)) in steps.into_iter().enumerate() {
        let what = format!("step {step} ({})", frame_kind(&frame));
        write_frame(&mut stream, &frame).unwrap();
        match expected {
            Ok(kinds) => {
                let got: Vec<String> = kinds
                    .iter()
                    .map(|_| frame_kind(&read_frame(&mut stream).unwrap()))
                    .collect();
                assert_eq!(got, kinds, "{what}");
            }
            Err((code, needle)) => match read_frame(&mut stream).unwrap() {
                Frame::Error(e) => {
                    assert!(e.message.contains(needle), "{what}: {}", e.message);
                    assert_eq!(e.code, code, "{what}: {}", e.message);
                }
                other => panic!("{what}: expected a typed error, got {other:?}"),
            },
        }
        write_frame(&mut stream, &Frame::ShardBoundsRequest).unwrap();
        let alive = read_frame(&mut stream).unwrap();
        assert!(matches!(alive, Frame::ShardBounds(_)), "{what}: {alive:?}");
    }

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// The metrics admin frame, end to end against both analyst-facing
/// listeners: after a served workload, `RemoteFederation::metrics()`
/// returns *live* counters — queries answered, frames received,
/// connections accepted — from the engine-backed server and the
/// coordinator alike. The snapshot is one shared process-global registry,
/// so both roles expose the same catalog.
#[test]
fn metrics_frame_returns_live_counters_from_serve_and_coordinate() {
    use fedaqp_net::wire::WireMetric;

    let get = |metrics: &[WireMetric], name: &str| -> Option<f64> {
        metrics.iter().find(|m| m.name == name).map(|m| m.value)
    };
    // Cells are interned on first use, so a name may legitimately be
    // absent before the instrumented path ran — treat that as zero.
    let find = |metrics: &[WireMetric], name: &str| -> f64 {
        get(metrics, name).unwrap_or_else(|| panic!("{name} missing from snapshot"))
    };

    // ---- Engine-backed analyst server. ----
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut client = RemoteFederation::connect(server.addr()).unwrap();
    let before = get(&client.metrics().unwrap(), "fedaqp_server_queries_total").unwrap_or(0.0);
    scalar(&mut client, &count_query(100, 800), 0.2).unwrap();
    let after = client.metrics().unwrap();
    assert!(
        find(&after, "fedaqp_server_queries_total") >= before + 1.0,
        "query counter must advance across a served query"
    );
    assert!(find(&after, "fedaqp_server_connections_total") >= 1.0);
    assert!(find(&after, "fedaqp_server_frames_total") >= 1.0);
    assert!(find(&after, "fedaqp_engine_queries_total") >= 1.0);
    assert!(
        find(&after, "fedaqp_engine_phase_summary_seconds_count") >= 1.0,
        "phase histograms must be fed by served queries"
    );
    // The per-kind frame family is live too.
    assert!(find(&after, "fedaqp_server_frames_total.plan") >= 1.0);
    drop(client);
    server.shutdown();
    engine.shutdown();

    // ---- Coordinator over two remote shards. ----
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::with_budget(50.0, 0.5));
    let mut client = RemoteFederation::connect_as(coordinator.addr(), "alice").unwrap();
    let before_shard = get(&client.metrics().unwrap(), "fedaqp_shard_queries_total").unwrap_or(0.0);
    scalar(&mut client, &count_query(100, 800), 0.2).unwrap();
    let after = client.metrics().unwrap();
    assert!(
        find(&after, "fedaqp_shard_queries_total") >= before_shard + 1.0,
        "the coordinator's scatter counter must advance"
    );
    assert!(find(&after, "fedaqp_shard_scatter_seconds_count") >= 1.0);
    assert!(find(&after, "fedaqp_shard_gather_seconds_count") >= 1.0);
    // The budget directory feeds the per-analyst ξ gauge family.
    let xi = find(&after, "fedaqp_server_xi_spent.alice");
    assert!(xi > 0.0, "ξ spend gauge must reflect the charged query");
    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Online plans (server push) and live federations (streaming ingest).
// ---------------------------------------------------------------------------

fn online_plan(rounds: usize) -> QueryPlan {
    QueryPlan::Online {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        epsilon: 1.0,
        delta: 1e-3,
        rounds,
    }
}

/// The acceptance bar of the live-federation work, wire edition: an
/// online plan pushed over a real socket is byte-identical — every
/// snapshot, the cost, and the final value — to the same plan compiled
/// in-process. The wire carries snapshots, never arithmetic.
#[test]
fn remote_online_plans_are_byte_identical_to_in_process() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    let mut pushed = Vec::new();
    let remote = client
        .run_online_plan(&count_query(100, 800), 0.2, 1.0, 1e-3, 4, |s| {
            pushed.push(*s);
        })
        .unwrap();

    // The push hook saw every round, in order, as it resolved.
    assert_eq!(pushed.len(), 4);
    for (i, s) in pushed.iter().enumerate() {
        assert_eq!(s.round, i as u64 + 1);
        assert_eq!(s.rounds, 4);
    }

    let in_process = plan_federation(1.0)
        .with_engine(|engine| engine.run_plan(&online_plan(4)))
        .unwrap();
    assert_eq!(remote.result, in_process.result, "released snapshots");
    assert_eq!(remote.cost, in_process.cost, "charged cost");

    // What the push hook saw is what the in-process plan released, round
    // for round.
    assert_eq!(in_process.snapshots(), Some(pushed.as_slice()));

    // A single-round online plan degenerates to the one-shot scalar: the
    // lone snapshot is byte-identical to the `Scalar` plan's answer.
    let one_round = client
        .run_online_plan(&count_query(100, 800), 0.2, 1.0, 1e-3, 1, |_| {})
        .unwrap();
    let scalar = plan_federation(1.0)
        .with_engine(|engine| {
            engine.run_plan(&QueryPlan::Scalar {
                query: count_query(100, 800),
                sampling_rate: 0.2,
                epsilon: 1.0,
                delta: 1e-3,
            })
        })
        .unwrap();
    assert_eq!(
        one_round.value().unwrap().to_bits(),
        scalar.value().unwrap().to_bits(),
        "rounds=1 must equal the one-shot scalar answer"
    );
    assert_eq!(one_round.cost, scalar.cost);

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// A live server answers queries, accepts ingest batches (bumping the
/// data epoch), and keeps answering — including online plans — after the
/// federation has grown. Before any ingest (epoch 0) its answers are
/// byte-identical to a frozen federation built from the same inputs.
#[test]
fn live_servers_serve_ingest_and_queries_across_epochs() {
    use fedaqp_core::{LiveFederation, RefreshPolicy};

    let live = LiveFederation::new(federation(1.0), RefreshPolicy::default());
    let server = LoopbackServer::live(live, ServeOptions::with_budget(50.0, 0.5)).unwrap();
    let mut client = RemoteFederation::connect_as(server.addr(), "alice").unwrap();
    assert_eq!(client.schema(), &schema());
    assert_eq!(client.session_budget(), Some((50.0, 0.5)));

    // Epoch 0: the live server is byte-identical to a frozen federation.
    let remote = scalar(&mut client, &count_query(100, 800), 0.2).unwrap();
    let frozen = federation(1.0)
        .with_engine(|engine| {
            engine
                .submit(&count_query(100, 800), 0.2)
                .and_then(|p| p.wait())
        })
        .unwrap();
    assert_eq!(
        remote.to_bits(),
        frozen.value.to_bits(),
        "epoch 0 must answer exactly like a frozen federation"
    );

    // Ingest a batch into provider 0: acknowledged atomically, epoch bumps.
    let rows: Vec<Row> = (0..50)
        .map(|i| Row::cell(vec![(i * 11) % 1000, i % 100], 2))
        .collect();
    let ack = client.ingest(0, &rows).unwrap();
    assert_eq!(ack.accepted, 50);
    assert_eq!(ack.epoch, 1);
    assert!(!ack.refreshed, "50 rows stay under the staleness floor");

    // Out-of-range provider ids are refused with a typed error; the
    // connection (and the ledger) survive.
    match client.ingest(99, &rows) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("provider"), "{message}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }

    // Epoch 1: queries, plans, and online pushes all still answer.
    let grown = scalar(&mut client, &count_query(100, 800), 0.2).unwrap();
    assert!(grown.is_finite());
    let mut rounds_seen = 0;
    let online = client
        .run_online_plan(&count_query(100, 800), 0.2, 1.0, 1e-3, 3, |_| {
            rounds_seen += 1
        })
        .unwrap();
    assert_eq!(rounds_seen, 3);
    assert!(online.value().unwrap().is_finite());

    // The per-analyst ledger is durable across the whole live session:
    // three charged requests so far, each ε = 1.
    let status = client.budget_status().unwrap();
    assert!(
        status.spent_eps > 2.9,
        "three ε=1 releases charged, got {}",
        status.spent_eps
    );
    assert!(status.queries_answered >= 3);

    drop(client);
    server.shutdown();
}

/// Ingest frames sent to a frozen analyst server get a typed refusal,
/// not a hangup — only live-mode servers mutate their federation.
#[test]
fn frozen_servers_refuse_ingest_with_a_typed_error() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut client = RemoteFederation::connect(server.addr()).unwrap();

    match client.ingest(0, &[Row::cell(vec![1, 2], 1)]) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("live-mode"), "{message}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // The connection still answers queries.
    assert!(scalar(&mut client, &count_query(100, 800), 0.2).is_ok());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// One loop, four roles: the handshake and the gate table, role by role.
// ---------------------------------------------------------------------------

/// One listener of every role over the plan-test federation. The engines
/// and the coordinator's shard servers ride along so they outlive the
/// listeners.
struct EveryRole {
    listeners: Vec<(&'static str, LoopbackServer)>,
    shard_servers: Vec<LoopbackServer>,
    engines: Vec<FederationEngine>,
}

impl EveryRole {
    fn spawn(options: ServeOptions) -> Self {
        use fedaqp_core::{LiveFederation, RefreshPolicy};

        let (mut engines, shard_servers) = spawn_shard_grid(2);
        let coordinator = spawn_coordinator(&shard_servers, options);
        let engine = FederationEngine::start(plan_federation(1.0));
        let shard_engine = FederationEngine::start(plan_federation(1.0));
        let live = LiveFederation::new(plan_federation(1.0), RefreshPolicy::default());
        let listeners = vec![
            (
                "engine",
                LoopbackServer::analyst(engine.handle(), options).unwrap(),
            ),
            ("coordinator", coordinator),
            ("live", LoopbackServer::live(live, options).unwrap()),
            (
                "shard",
                LoopbackServer::shard(shard_engine.handle()).unwrap(),
            ),
        ];
        engines.extend([engine, shard_engine]);
        Self {
            listeners,
            shard_servers,
            engines,
        }
    }

    fn shutdown(self) {
        for (_, listener) in self.listeners {
            listener.shutdown();
        }
        for server in self.shard_servers {
            server.shutdown();
        }
        for engine in self.engines {
            engine.shutdown();
        }
    }
}

/// A non-`Hello` first frame is answered with a typed error the peer can
/// decode by every role, then the connection closes.
#[test]
fn a_wrong_first_frame_is_answered_at_the_peers_version_by_every_role() {
    use fedaqp_net::wire::{read_frame, write_frame, Frame};

    let roles = EveryRole::spawn(ServeOptions::unlimited());
    for (role, listener) in &roles.listeners {
        let mut stream = std::net::TcpStream::connect(listener.addr()).unwrap();
        write_frame(&mut stream, &Frame::BudgetRequest).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest, "{role}");
                assert!(
                    e.message.contains("expected a Hello"),
                    "{role}: {}",
                    e.message
                );
            }
            other => panic!("{role}: expected a typed handshake error, got {other:?}"),
        }
        assert!(
            matches!(read_frame(&mut stream), Err(NetError::Disconnected)),
            "{role}: the handshake failure closes the connection"
        );
    }
    roles.shutdown();
}

/// The variant name of a frame, for reply-kind expectations.
fn frame_kind(frame: &wire::Frame) -> String {
    let debug = format!("{frame:?}");
    let end = debug
        .find(|c: char| !c.is_alphanumeric())
        .unwrap_or(debug.len());
    debug[..end].to_owned()
}

/// One request frame kind and what the protocol promises about it.
struct GateCase {
    frame: wire::Frame,
    /// The roles that serve the frame.
    served_by: &'static [&'static str],
    /// The ε a served frame charges a capped analyst.
    charges: f64,
    /// The reply kinds a served frame is answered with, in order.
    replies: &'static [&'static str],
}

/// Every request frame kind, in an order that is also a valid shard
/// fragment lifecycle (a batch, then its allocations).
fn gate_cases() -> Vec<GateCase> {
    use fedaqp_net::wire::{ExplainRequest, Frame, IngestRequest, OnlinePlanRequest, PlanRequest};

    const ANALYST: &[&str] = &["engine", "coordinator", "live"];
    const SHARD: &[&str] = &["shard"];
    let scalar = || QueryPlan::Scalar {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        epsilon: 0.5,
        delta: 1e-3,
    };
    let case = |frame, served_by, charges, replies| GateCase {
        frame,
        served_by,
        charges,
        replies,
    };
    vec![
        case(
            Frame::Plan(PlanRequest { plan: scalar() }),
            ANALYST,
            0.5,
            &["PlanAnswer"],
        ),
        case(
            Frame::Explain(ExplainRequest { plan: scalar() }),
            ANALYST,
            0.0,
            &["ExplainAnswer"],
        ),
        case(Frame::BudgetRequest, ANALYST, 0.0, &["BudgetStatus"]),
        case(Frame::Metrics, ANALYST, 0.0, &["MetricsAnswer"]),
        case(
            Frame::OnlinePlan(OnlinePlanRequest {
                query: count_query(100, 800),
                sampling_rate: 0.2,
                epsilon: 0.25,
                delta: 1e-3,
                rounds: 2,
            }),
            ANALYST,
            0.25,
            &["OnlineSnapshot", "OnlineSnapshot", "OnlineDone"],
        ),
        case(
            Frame::Ingest(IngestRequest {
                provider: 0,
                rows: vec![Row::cell(vec![1, 2], 1)],
            }),
            &["live"],
            0.0,
            &["IngestAck"],
        ),
        case(
            Frame::Fragment(vec![fragment_spec(count_query(100, 800), 0.2, 0)]),
            SHARD,
            0.0,
            &["FragmentSummaries"],
        ),
        case(
            Frame::FragmentAllocation(vec![vec![2; 4]]),
            SHARD,
            0.0,
            &["FragmentPartial"],
        ),
        case(
            Frame::ExtremeFragment(ExtremeFragmentSpec {
                dim: 0,
                extreme: Extreme::Max,
                epsilon: 1.0,
                occurrence: 0,
            }),
            SHARD,
            0.0,
            &["ExtremePartial"],
        ),
        case(Frame::ShardBoundsRequest, SHARD, 0.0, &["ShardBounds"]),
    ]
}

/// The conformance matrix of the serving loop: every role × every request
/// frame kind. A frame the role does not serve is refused with a typed
/// `bad-request` naming the reason; the refusal charges nothing, and the
/// connection keeps serving. A served frame gets exactly its reply kinds
/// and charges exactly its declared ε. Every frame — fragment frames on a
/// shard listener included — lands in the frame counters.
#[test]
fn every_role_gates_every_frame_kind_by_role_then_version() {
    use fedaqp_net::wire::{read_frame, write_frame, Frame, Hello};

    let roles = EveryRole::spawn(ServeOptions::with_budget(1000.0, 0.9));
    let metric = |client: &mut RemoteFederation, name: &str| -> f64 {
        let metrics = client.metrics().unwrap();
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mut admin = RemoteFederation::connect_as(roles.listeners[0].1.addr(), "admin").unwrap();
    let frames_before = metric(&mut admin, "fedaqp_server_frames_total");
    let fragments_before = metric(&mut admin, "fedaqp_server_frames_total.fragment");
    let (frames_sent, fragments_sent) = (std::cell::Cell::new(0.0), std::cell::Cell::new(0.0));

    for (role, listener) in &roles.listeners {
        let mut stream = std::net::TcpStream::connect(listener.addr()).unwrap();
        let hello = Frame::Hello(Hello {
            analyst: "matrix".into(),
        });
        write_frame(&mut stream, &hello).unwrap();
        let ack = read_frame(&mut stream).unwrap();
        assert!(matches!(ack, Frame::HelloAck(_)), "{role}: {ack:?}");

        let mut exchange = |frame: &Frame, replies: usize| -> Vec<Frame> {
            write_frame(&mut stream, frame).unwrap();
            frames_sent.set(frames_sent.get() + 1.0);
            let kind = frame_kind(frame);
            if kind.contains("Fragment") || kind == "ShardBoundsRequest" {
                fragments_sent.set(fragments_sent.get() + 1.0);
            }
            (0..replies)
                .map(|_| read_frame(&mut stream).unwrap())
                .collect()
        };
        // The ledger as the analyst sees it; a shard listener has none
        // (and refuses the inquiry like any other analyst frame).
        let spent = |status: Vec<Frame>| -> Option<f64> {
            match &status[0] {
                Frame::BudgetStatus(status) => Some(status.spent_eps),
                Frame::Error(_) => None,
                other => panic!("{role}: unexpected status reply {other:?}"),
            }
        };

        for case in gate_cases() {
            let what = format!("{role} {}", frame_kind(&case.frame));
            let before = spent(exchange(&Frame::BudgetRequest, 1));
            let refusal = (!case.served_by.contains(role)).then(|| {
                match (*role, frame_kind(&case.frame).as_str()) {
                    ("shard", _) => "coordinator",
                    (_, "Ingest") => "live-mode",
                    _ => "shard-mode",
                }
            });
            let replies = exchange(&case.frame, refusal.map_or(case.replies.len(), |_| 1));
            let charged = match refusal {
                Some(fragment) => {
                    match &replies[0] {
                        Frame::Error(e) => {
                            assert_eq!(e.code, ErrorCode::BadRequest, "{what}");
                            assert!(e.message.contains(fragment), "{what}: {}", e.message);
                        }
                        other => panic!("{what}: expected a typed refusal, got {other:?}"),
                    }
                    0.0
                }
                None => {
                    let kinds: Vec<String> = replies.iter().map(frame_kind).collect();
                    assert_eq!(kinds, case.replies, "{what}");
                    case.charges
                }
            };
            // The connection is still usable, and the ledger moved by
            // exactly what the frame declared — nothing on a refusal.
            match (before, spent(exchange(&Frame::BudgetRequest, 1))) {
                (Some(before), Some(after)) => assert!(
                    (after - before - charged).abs() < 1e-9,
                    "{what}: ledger moved {before} -> {after}, expected +{charged}"
                ),
                (None, None) => {
                    assert_eq!(*role, "shard", "{what}: only shards keep no ledger");
                    let alive = exchange(&Frame::ShardBoundsRequest, 1);
                    assert_eq!(frame_kind(&alive[0]), "ShardBounds", "{what}");
                }
                other => panic!("{what}: ledger visibility changed mid-connection: {other:?}"),
            }
        }
    }

    // Every frame was counted once, whatever the role; the fragment
    // family has its own cell, fed by shard listeners too. (Lower bounds:
    // the registry is process-global and sibling tests share it.)
    let frames = metric(&mut admin, "fedaqp_server_frames_total") - frames_before;
    let fragments = metric(&mut admin, "fedaqp_server_frames_total.fragment") - fragments_before;
    let (frames_sent, fragments_sent) = (frames_sent.get(), fragments_sent.get());
    assert!(
        frames >= frames_sent,
        "{frames} of {frames_sent} frames counted"
    );
    assert!(
        fragments >= fragments_sent && fragments_sent > 0.0,
        "{fragments} of {fragments_sent} fragment frames counted"
    );

    drop(admin);
    roles.shutdown();
}
