//! Adversarial server tests: budget-directory abuse under connection
//! churn, and byte-level hygiene of every answer frame.
//!
//! * **Churn** — one analyst identity hammering the ledger through
//!   reconnect loops and parallel sessions must win *exactly* the queries
//!   its `(ξ, ψ)` affords: no double-spend through racing connections, no
//!   reset through reconnecting, no leakage into other identities.
//! * **Hygiene** — the only numbers that may cross the socket are
//!   DP-released. Raw pre-noise estimates and smooth sensitivities exist
//!   in the engine's [`EngineAnswer`] as simulation-boundary diagnostics;
//!   their exact byte patterns must be absent from every captured answer
//!   frame, while the released value's bytes are present (the positive
//!   control that the scan works). The same scan covers the telemetry
//!   exposition: a `MetricsAnswer` frame is assembled inside the process
//!   that holds those diagnostics in memory, so it gets the identical
//!   byte-level audit — and the server-push path (`OnlineSnapshot` /
//!   `OnlineDone`), which releases *several* values per plan, gets a
//!   per-round scan. The struct literals in
//!   `answer_frames_carry_no_diagnostic_fields` are the compile-time half:
//!   adding any field to `PlanAnswerFrame`/`MetricsAnswerFrame`/
//!   `OnlineSnapshotFrame`/`OnlineDoneFrame`/`IngestAckFrame` breaks them,
//!   forcing a conscious review of what new bytes reach an analyst.

use std::io::Read as _;

use fedaqp_core::{Federation, FederationConfig, FederationEngine, QueryBatch};
use fedaqp_model::{Aggregate, Dimension, Domain, QueryPlan, Range, RangeQuery, Row, Schema};
use fedaqp_net::wire::{
    read_frame, write_frame, Frame, Hello, IngestAckFrame, MetricsAnswerFrame, OnlineDoneFrame,
    OnlinePlanRequest, OnlineSnapshotFrame, PlanAnswerFrame, PlanRequest, WireMetric,
    WirePlanResult, HEADER_BYTES,
};
use fedaqp_net::{ErrorCode, FederationServer, NetError, RemoteFederation, ServeOptions};

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("y", Domain::new(0, 99).unwrap()),
    ])
    .unwrap()
}

fn federation() -> Federation {
    let partitions: Vec<Vec<Row>> = (0..4)
        .map(|p| {
            (0..2000)
                .map(|i| {
                    let v = (i * 7 + p * 13) % 1000;
                    Row::cell(vec![v as i64, ((i + p) % 100) as i64], 1 + (i % 3) as u64)
                })
                .collect()
        })
        .collect();
    let mut cfg = FederationConfig::paper_default(50);
    cfg.cost_model = fedaqp_smc::CostModel::zero();
    cfg.n_min = 3;
    Federation::build(cfg, schema(), partitions).unwrap()
}

fn count_query(lo: i64, hi: i64) -> RangeQuery {
    RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
}

/// The scalar plan a probe sends: the federation's default `(ε, δ)`, so
/// the served job is the one `run_batch_serial` runs in process.
fn scalar_plan(query: &RangeQuery) -> QueryPlan {
    QueryPlan::Scalar {
        query: query.clone(),
        sampling_rate: 0.2,
        epsilon: 1.0,
        delta: 1e-3,
    }
}

/// Sends one scalar plan on a raw stream; returns the reply's bytes as
/// they crossed the socket and the released value.
fn probe(stream: &mut std::net::TcpStream, query: &RangeQuery) -> (Vec<u8>, f64) {
    let plan = scalar_plan(query);
    write_frame(stream, &Frame::Plan(PlanRequest { plan })).unwrap();
    match read_raw_frame(stream) {
        (
            bytes,
            Frame::PlanAnswer(PlanAnswerFrame {
                result: WirePlanResult::Value { value, .. },
                ..
            }),
        ) => (bytes, value),
        (_, other) => panic!("expected a scalar PlanAnswer, got {other:?}"),
    }
}

/// One identity, ξ = 4 at ε = 1 per query, abused three ways in sequence:
/// a reconnect loop (fresh connection per query), a 3-connection parallel
/// swarm under a second identity, and post-exhaustion churn. The ledger
/// must grant exactly ⌊ξ/ε⌋ queries per identity — never more (double
/// spend), never fewer (lost grant) — and never reset.
#[test]
fn budget_survives_reconnect_churn_and_parallel_sessions() {
    let engine = FederationEngine::start(federation());
    let server = FederationServer::bind(
        "127.0.0.1:0",
        engine.handle(),
        ServeOptions::with_budget(4.0, 1e-2),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let q = count_query(100, 800);

    // Reconnect churn: 8 one-shot sessions under one identity. The first
    // 4 queries fit ξ = 4; the rest are typed rejections on fresh
    // connections that inherited the spent ledger.
    let mut served = 0;
    for round in 0..8 {
        let mut conn = RemoteFederation::connect_as(&addr, "mallet").unwrap();
        match conn.run_plan(&scalar_plan(&q)) {
            Ok(answer) => {
                served += 1;
                assert!(answer.value().unwrap().is_finite());
                assert!(round < 4, "query {round} exceeded the ledger");
            }
            Err(NetError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::BudgetExhausted);
                assert!(round >= 4, "query {round} rejected with budget left");
            }
            Err(other) => panic!("expected answer or typed rejection, got {other:?}"),
        }
        let status = conn.budget_status().unwrap();
        assert!(
            status.spent_eps <= 4.0 + 1e-9,
            "ledger shows overspend: {}",
            status.spent_eps
        );
    }
    assert_eq!(served, 4, "exactly xi/eps queries served across reconnects");

    // Parallel sessions: 3 connections race 3 queries each under one
    // fresh identity. Whatever the interleaving, exactly 4 of the 9
    // attempts may win the atomic check-and-charge.
    let outcomes: Vec<Result<(), ErrorCode>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let q = q.clone();
                scope.spawn(move || {
                    let mut conn = RemoteFederation::connect_as(&addr, "swarm").unwrap();
                    (0..3)
                        .map(|_| match conn.run_plan(&scalar_plan(&q)) {
                            Ok(_) => Ok(()),
                            Err(NetError::Remote { code, .. }) => Err(code),
                            Err(other) => panic!("unexpected transport error: {other:?}"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let won = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(won, 4, "racing sessions double-spent or lost a grant");
    for rejected in outcomes.iter().filter_map(|r| r.as_ref().err()) {
        assert_eq!(*rejected, ErrorCode::BudgetExhausted);
    }

    // Both identities sit exactly at their cap, and more churn cannot
    // move them.
    for identity in ["mallet", "swarm"] {
        let mut conn = RemoteFederation::connect_as(&addr, identity).unwrap();
        let status = conn.budget_status().unwrap();
        assert!((status.spent_eps - 4.0).abs() < 1e-9, "{identity} ledger");
        assert_eq!(status.queries_answered, 4, "{identity} answers");
        assert!(matches!(
            conn.run_plan(&scalar_plan(&q)),
            Err(NetError::Remote {
                code: ErrorCode::BudgetExhausted,
                ..
            })
        ));
    }
    // A bystander identity still has its own fresh grant.
    let mut bystander = RemoteFederation::connect_as(&addr, "bystander").unwrap();
    assert!(bystander.run_plan(&scalar_plan(&q)).is_ok());

    drop(bystander);
    server.shutdown();
    engine.shutdown();
}

/// Reads one frame from the stream, returning both the raw bytes and the
/// decoded frame — the hygiene scan needs the bytes as they crossed the
/// socket.
fn read_raw_frame(stream: &mut std::net::TcpStream) -> (Vec<u8>, Frame) {
    let mut bytes = vec![0u8; HEADER_BYTES];
    stream.read_exact(&mut bytes).unwrap();
    let payload_len = u32::from_le_bytes(bytes[7..11].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; payload_len];
    stream.read_exact(&mut payload).unwrap();
    bytes.extend_from_slice(&payload);
    let frame = read_frame(&mut &bytes[..]).unwrap();
    (bytes, frame)
}

/// True when `needle`'s exact little-endian f64 byte pattern occurs
/// anywhere in `haystack`.
fn contains_f64(haystack: &[u8], needle: f64) -> bool {
    let pattern = needle.to_le_bytes();
    haystack.windows(8).any(|w| w == pattern)
}

/// Walks every answer frame of an e2e run at the byte level: the
/// DP-released values appear (positive control), the raw pre-noise
/// estimates and smooth sensitivities — recovered from a bit-identical
/// in-process run of the same federation — do not.
#[test]
fn answer_frames_never_carry_raw_estimates_or_sensitivities() {
    let engine = FederationEngine::start(federation());
    let server =
        FederationServer::bind("127.0.0.1:0", engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();

    let queries = [
        count_query(100, 800),
        count_query(0, 400),
        count_query(250, 999),
    ];

    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "auditor".into(),
        }),
    )
    .unwrap();
    match read_raw_frame(&mut stream).1 {
        Frame::HelloAck(_) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // The same answers, computed in-process on an identical federation:
    // noise derives from (seed, content, occurrence), so this run is
    // bit-identical to the served one and exposes the diagnostics the
    // wire must not carry.
    let mut batch = QueryBatch::new();
    for q in &queries {
        batch.push(q.clone(), 0.2);
    }
    let in_process: Vec<_> = federation()
        .with_engine(|engine| engine.run_batch_serial(&batch))
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    for (q, oracle) in queries.iter().zip(&in_process) {
        let (bytes, released) = probe(&mut stream, q);
        assert_eq!(
            released.to_bits(),
            oracle.value.to_bits(),
            "served and in-process runs diverged; the hygiene scan is void"
        );
        assert_ne!(
            oracle.raw_estimate.to_bits(),
            oracle.value.to_bits(),
            "noise-free release would make the scan vacuous"
        );
        assert!(
            contains_f64(&bytes, released),
            "positive control: the released value's bytes must be present"
        );
        assert!(
            !contains_f64(&bytes, oracle.raw_estimate),
            "raw pre-noise estimate leaked into a PlanAnswer frame"
        );
        for &ls in &oracle.smooth_ls {
            assert!(
                !contains_f64(&bytes, ls),
                "smooth sensitivity leaked into a PlanAnswer frame"
            );
        }
    }

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// The telemetry exposition audited at the byte level: after a served
/// workload, the captured `MetricsAnswer` frame must carry none of the
/// diagnostics the engine held in memory while producing it — no raw
/// pre-noise estimates, no smooth sensitivities, no noise draws. The
/// in-process oracle is bit-identical to the served run (noise derives
/// from `(seed, content, occurrence)`), so its diagnostic values are
/// exactly the ones the served engine computed.
#[test]
fn metrics_frames_never_carry_raw_estimates_or_sensitivities() {
    let engine = FederationEngine::start(federation());
    let server =
        FederationServer::bind("127.0.0.1:0", engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();

    let queries = [
        count_query(100, 800),
        count_query(0, 400),
        count_query(250, 999),
    ];

    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "auditor".into(),
        }),
    )
    .unwrap();
    match read_raw_frame(&mut stream).1 {
        Frame::HelloAck(_) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // The bit-identical in-process oracle exposing the diagnostics the
    // metrics frame must not carry.
    let mut batch = QueryBatch::new();
    for q in &queries {
        batch.push(q.clone(), 0.2);
    }
    let in_process: Vec<_> = federation()
        .with_engine(|engine| engine.run_batch_serial(&batch))
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    // Serve the workload, checking bit-identity so the oracle's
    // diagnostics are provably the served engine's own.
    for (q, oracle) in queries.iter().zip(&in_process) {
        assert_eq!(
            probe(&mut stream, q).1.to_bits(),
            oracle.value.to_bits(),
            "served and in-process runs diverged; the hygiene scan is void"
        );
    }

    // Capture the metrics exposition exactly as it crossed the socket.
    write_frame(&mut stream, &Frame::Metrics).unwrap();
    let (bytes, frame) = read_raw_frame(&mut stream);
    let samples = match frame {
        Frame::MetricsAnswer(a) => a.metrics,
        other => panic!("expected a MetricsAnswer, got {other:?}"),
    };

    // Positive control: a sample value that IS in the frame is found by
    // the scan. (The registry is process-global, so the counter may also
    // reflect queries served by sibling tests — hence ≥.)
    let served = samples
        .iter()
        .find(|m| m.name == "fedaqp_server_queries_total")
        .expect("served-queries counter missing from the metrics frame");
    assert!(served.value >= queries.len() as f64);
    assert!(
        contains_f64(&bytes, served.value),
        "positive control: a carried sample's bytes must be present"
    );

    for oracle in &in_process {
        assert!(
            !contains_f64(&bytes, oracle.raw_estimate),
            "raw pre-noise estimate leaked into a MetricsAnswer frame"
        );
        // The total noise draw is `value − raw_estimate`; a telemetry
        // cell holding it would let an analyst denoise the release.
        assert!(
            !contains_f64(&bytes, oracle.value - oracle.raw_estimate),
            "noise draw leaked into a MetricsAnswer frame"
        );
        for &ls in &oracle.smooth_ls {
            assert!(
                !contains_f64(&bytes, ls),
                "smooth sensitivity leaked into a MetricsAnswer frame"
            );
        }
    }

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// The server-push path audited at the byte level: an online plan
/// releases one value per round, so *every* captured `OnlineSnapshot`
/// frame (and the trailing `OnlineDone`) is scanned for the raw
/// pre-noise estimates and smooth sensitivities of its round's
/// sub-query — recovered from an in-process run of the same content on
/// an identical federation. Released snapshot values appear (positive
/// control); diagnostics never do.
#[test]
fn online_push_frames_never_carry_raw_estimates_or_sensitivities() {
    let rounds = 4u32;
    let query = count_query(100, 800);
    let engine = FederationEngine::start(federation());
    let server =
        FederationServer::bind("127.0.0.1:0", engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();

    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "auditor".into(),
        }),
    )
    .unwrap();
    match read_raw_frame(&mut stream).1 {
        Frame::HelloAck(_) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // In-process oracle: each online round samples the same query at
    // rate `sr·round/rounds`, and the raw pre-noise estimate and smooth
    // sensitivities are deterministic in (query, rate) — independent of
    // the noise occurrence counter — so a plain serial batch at the
    // per-round rates exposes exactly the diagnostics the push frames
    // must not carry.
    let mut batch = QueryBatch::new();
    for round in 1..=rounds {
        batch.push(query.clone(), 0.2 * round as f64 / rounds as f64);
    }
    let oracle: Vec<_> = federation()
        .with_engine(|engine| engine.run_batch_serial(&batch))
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    write_frame(
        &mut stream,
        &Frame::OnlinePlan(OnlinePlanRequest {
            query: query.clone(),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
            rounds,
        }),
    )
    .unwrap();

    for round in 1..=rounds {
        let (bytes, frame) = read_raw_frame(&mut stream);
        let snapshot = match frame {
            Frame::OnlineSnapshot(s) => s,
            other => panic!("expected round {round} snapshot, got {other:?}"),
        };
        assert_eq!(snapshot.round, round);
        let diag = &oracle[(round - 1) as usize];
        assert_ne!(
            diag.raw_estimate.to_bits(),
            snapshot.value.to_bits(),
            "noise-free release would make the scan vacuous"
        );
        assert!(
            contains_f64(&bytes, snapshot.value),
            "positive control: the released snapshot's bytes must be present"
        );
        assert!(
            !contains_f64(&bytes, diag.raw_estimate),
            "round {round}: raw pre-noise estimate leaked into an OnlineSnapshot frame"
        );
        for &ls in &diag.smooth_ls {
            assert!(
                !contains_f64(&bytes, ls),
                "round {round}: smooth sensitivity leaked into an OnlineSnapshot frame"
            );
        }
    }

    // The trailing OnlineDone frame repeats only the final released
    // value; scan it against every round's diagnostics.
    let (bytes, frame) = read_raw_frame(&mut stream);
    let done = match frame {
        Frame::OnlineDone(d) => d,
        other => panic!("expected OnlineDone, got {other:?}"),
    };
    assert!(contains_f64(&bytes, done.value), "positive control");
    for diag in &oracle {
        assert!(
            !contains_f64(&bytes, diag.raw_estimate),
            "raw pre-noise estimate leaked into an OnlineDone frame"
        );
        for &ls in &diag.smooth_ls {
            assert!(
                !contains_f64(&bytes, ls),
                "smooth sensitivity leaked into an OnlineDone frame"
            );
        }
    }

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// Compile-time hygiene: exhaustive struct literals over the answer
/// frame, the telemetry exposition, and the push/ingest frames.
/// Adding ANY field to [`PlanAnswerFrame`],
/// [`MetricsAnswerFrame`], [`WireMetric`], [`OnlineSnapshotFrame`],
/// [`OnlineDoneFrame`], or [`IngestAckFrame`] — say a `raw_estimate`
/// diagnostic — fails this build with "missing field", forcing review of
/// what new bytes would reach an analyst. (No functional-update `..`
/// shorthand here, deliberately.)
#[test]
fn answer_frames_carry_no_diagnostic_fields() {
    let plan_answer = PlanAnswerFrame {
        index: 0,
        eps: 1.0,
        delta: 1e-3,
        result: WirePlanResult::Value {
            value: 1.0,
            ci_halfwidth: None,
        },
        summary_us: 1,
        allocation_us: 2,
        execution_us: 3,
        release_us: 4,
        network_us: 5,
    };
    assert!(matches!(plan_answer.result, WirePlanResult::Value { .. }));

    let metrics_answer = MetricsAnswerFrame {
        metrics: vec![WireMetric {
            name: "fedaqp_server_queries_total".into(),
            value: 1.0,
        }],
    };
    assert_eq!(metrics_answer.metrics.len(), 1);

    let snapshot = OnlineSnapshotFrame {
        index: 0,
        round: 1,
        rounds: 4,
        sample_fraction: 0.25,
        value: 1.0,
        ci_halfwidth: Some(0.5),
        clusters_scanned: 2,
    };
    assert_eq!(snapshot.round, 1);

    let done = OnlineDoneFrame {
        index: 0,
        eps: 1.0,
        delta: 1e-3,
        value: 1.0,
        summary_us: 1,
        allocation_us: 2,
        execution_us: 3,
        release_us: 4,
        network_us: 5,
    };
    assert_eq!(done.index, 0);

    let ack = IngestAckFrame {
        accepted: 50,
        epoch: 1,
        refreshed: false,
    };
    assert_eq!(ack.epoch, 1);
}
