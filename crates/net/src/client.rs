//! The remote-analyst client: an [`EngineHandle`]-shaped API over TCP.
//!
//! [`RemoteFederation`] mirrors the engine's plan surface
//! ([`RemoteFederation::submit_plan`] → [`PendingRemotePlan::wait`], plus
//! [`RemoteFederation::run_plan`]), so analyst code written against a
//! local [`fedaqp_core::EngineHandle`] ports to a remote endpoint by
//! swapping the handle for a connection. The client is blocking and owns
//! one socket; plans pipelined on one connection are answered strictly
//! in submission order, which is what makes the wait side trivially
//! correlatable without request ids.
//!
//! [`EngineHandle`]: fedaqp_core::EngineHandle

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use fedaqp_core::{
    EstimatorCalibration, PhaseTimings, PlanAnswer, PlanExplanation, PlanGroup, PlanResult,
    PlanSnapshot, QueryPlan,
};
use fedaqp_dp::PrivacyCost;
use fedaqp_model::{Dimension, Domain, RangeQuery, Row, Schema};

use crate::wire::{
    calibration_from_code, encode_frame, read_frame, BudgetStatus, ErrorCode, ExplainRequest,
    Frame, Hello, HelloAck, IngestAckFrame, IngestRequest, OnlinePlanRequest, PlanAnswerFrame,
    PlanRequest, WireMetric, WirePlanResult, WireRow, VERSION,
};
use crate::{NetError, Result};

/// A blocking connection to a [`crate::FederationServer`].
#[derive(Debug)]
pub struct RemoteFederation {
    conn: Conn,
    schema: Schema,
    n_providers: usize,
    epsilon: f64,
    delta: f64,
    calibration: EstimatorCalibration,
    session_budget: Option<(f64, f64)>,
    /// Replies the server still owes for submitted-but-unwaited plans.
    /// Every new request first drains these, so dropping a
    /// [`PendingRemotePlan`] without waiting can never desynchronize the
    /// stream (the next reply would otherwise be attributed to the wrong
    /// plan).
    outstanding: usize,
}

fn plan_answer_from_wire(frame: PlanAnswerFrame) -> PlanAnswer {
    let result = match frame.result {
        WirePlanResult::Value {
            value,
            ci_halfwidth,
        } => PlanResult::Value {
            value,
            ci_halfwidth,
        },
        WirePlanResult::Groups { groups, suppressed } => PlanResult::Groups {
            groups: groups
                .into_iter()
                .map(|g| PlanGroup {
                    key: g.key,
                    value: g.value,
                    ci_halfwidth: g.ci_halfwidth,
                })
                .collect(),
            suppressed,
        },
        WirePlanResult::Extreme { value } => PlanResult::Extreme { value },
    };
    PlanAnswer {
        result,
        cost: PrivacyCost {
            eps: frame.eps,
            delta: frame.delta,
        },
        timings: PhaseTimings {
            summary: Duration::from_micros(frame.summary_us),
            allocation: Duration::from_micros(frame.allocation_us),
            execution: Duration::from_micros(frame.execution_us),
            release: Duration::from_micros(frame.release_us),
            network: Duration::from_micros(frame.network_us),
        },
    }
}

/// A blocking, handshaken connection: the one socket stack under both
/// the analyst client and the coordinator's shard pool. Requests are
/// written whole; every reply is read through [`Conn::recv`].
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects to `addr`, turns Nagle off and says `Hello` as
    /// `identity`, returning the server's `HelloAck`.
    pub(crate) fn open(addr: &str, identity: &str) -> Result<(Self, HelloAck)> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::Connect {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;
        stream.set_nodelay(true).ok();
        let mut conn = Self { stream };
        conn.send(&Frame::Hello(Hello {
            analyst: identity.to_owned(),
        }))?;
        match conn.recv()? {
            Frame::HelloAck(ack) => Ok((conn, ack)),
            _ => Err(NetError::Handshake("expected HelloAck")),
        }
    }

    /// Writes already-encoded frames in one go.
    pub(crate) fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Encodes and writes one frame.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<()> {
        self.write(&encode_frame(frame)?)
    }

    /// Reads the next reply. A typed error frame becomes
    /// [`NetError::Remote`] — or, from a server on another version,
    /// [`NetError::UnsupportedVersion`] carrying both versions (the frame's
    /// index carries the server's; see the wire-module docs).
    pub(crate) fn recv(&mut self) -> Result<Frame> {
        match read_frame(&mut self.stream)? {
            Frame::Error(e) if e.code == ErrorCode::UnsupportedVersion => {
                Err(NetError::UnsupportedVersion {
                    requested: VERSION,
                    supported: e.index as u16,
                })
            }
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            frame => Ok(frame),
        }
    }
}

impl RemoteFederation {
    /// Connects anonymously (all anonymous connections share one budget
    /// ledger on a budget-capped server — declare an identity with
    /// [`Self::connect_as`] to get your own).
    pub fn connect(addr: &str) -> Result<Self> {
        Self::connect_as(addr, "anonymous")
    }

    /// Connects and declares an analyst identity (the server's budget
    /// ledger key).
    ///
    /// Every frame is stamped with this build's [`VERSION`]. A server
    /// that speaks another answers the `Hello` with a typed negotiation
    /// error, surfaced as [`NetError::UnsupportedVersion`] carrying both
    /// versions.
    pub fn connect_as(addr: &str, analyst: &str) -> Result<Self> {
        let (conn, ack) = Conn::open(addr, analyst)?;
        let dimensions: Vec<Dimension> = ack
            .dimensions
            .iter()
            .map(|d| {
                Domain::new(d.min, d.max)
                    .map(|domain| Dimension::new(d.name.clone(), domain))
                    .map_err(|_| NetError::Malformed("inverted schema domain"))
            })
            .collect::<Result<_>>()?;
        let schema = Schema::new(dimensions).map_err(|_| NetError::Malformed("invalid schema"))?;
        Ok(Self {
            conn,
            schema,
            n_providers: ack.n_providers as usize,
            epsilon: ack.epsilon,
            delta: ack.delta,
            calibration: calibration_from_code(ack.calibration)?,
            session_budget: ack.session_budget,
            outstanding: 0,
        })
    }

    /// The served federation's public table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of data providers behind the served federation.
    pub fn n_providers(&self) -> usize {
        self.n_providers
    }

    /// The server's default per-query ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The server's default per-query δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The server's Hansen–Hurwitz calibration.
    pub fn calibration(&self) -> EstimatorCalibration {
        self.calibration
    }

    /// The per-analyst session budget `(ξ, ψ)` the server enforces, if
    /// any.
    pub fn session_budget(&self) -> Option<(f64, f64)> {
        self.session_budget
    }

    /// Reads and discards replies for requests whose pending handle was
    /// dropped without a wait, so the next reply read belongs to the next
    /// request. Answers drained this way are lost (their budget, if any,
    /// was spent server-side when the request was submitted).
    fn drain_outstanding(&mut self) -> Result<()> {
        while self.outstanding > 0 {
            self.outstanding -= 1;
            // A typed per-request Error frame is a valid (discarded)
            // reply; only connection-level failures propagate.
            match self.conn.recv() {
                Ok(_) | Err(NetError::Remote { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends one request once every owed reply is drained, and reads its
    /// reply.
    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        self.drain_outstanding()?;
        self.conn.send(frame)?;
        self.conn.recv()
    }

    /// The scalar plan for `query` under the server's advertised default
    /// `(ε, δ)` — the budget a query runs under when the analyst names
    /// none.
    pub fn scalar_plan(&self, query: &RangeQuery, sampling_rate: f64) -> QueryPlan {
        QueryPlan::Scalar {
            query: query.clone(),
            sampling_rate,
            epsilon: self.epsilon,
            delta: self.delta,
        }
    }

    /// Sends one [`QueryPlan`] without waiting for its answer — the
    /// remote mirror of `EngineHandle::submit_plan`. The server charges
    /// the plan's whole `(ε, δ)` atomically (validate-before-charge) and
    /// fans its sub-queries out across the engine worker pool. Pipelining
    /// is allowed: waits resolve in submission order, and the reply of a
    /// pending plan that is dropped un-waited is discarded on the next
    /// request.
    pub fn submit_plan(&mut self, plan: &QueryPlan) -> Result<PendingRemotePlan<'_>> {
        self.drain_outstanding()?;
        self.conn
            .send(&Frame::Plan(PlanRequest { plan: plan.clone() }))?;
        self.outstanding += 1;
        Ok(PendingRemotePlan { conn: self })
    }

    /// Answers one plan (submit + wait).
    pub fn run_plan(&mut self, plan: &QueryPlan) -> Result<PlanAnswer> {
        self.submit_plan(plan)?.wait()
    }

    /// Asks the server what its optimizer would decide about `plan`
    /// without running it — the remote mirror of
    /// `EngineHandle::explain_plan`. Nothing executes and no budget is
    /// charged, on either side.
    pub fn explain_plan(&mut self, plan: &QueryPlan) -> Result<PlanExplanation> {
        match self.request(&Frame::Explain(ExplainRequest { plan: plan.clone() }))? {
            Frame::ExplainAnswer(answer) => Ok(answer.explanation),
            _ => Err(NetError::Malformed("expected ExplainAnswer")),
        }
    }

    /// Asks the server for this analyst's session ledger.
    pub fn budget_status(&mut self) -> Result<BudgetStatus> {
        match self.request(&Frame::BudgetRequest)? {
            Frame::BudgetStatus(status) => Ok(status),
            _ => Err(NetError::Malformed("expected BudgetStatus")),
        }
    }

    /// Fetches the server's telemetry snapshot: flat `(name, value)`
    /// samples from its metrics registry — counters, gauges, and expanded
    /// histogram aggregates, all public-data-only by the `fedaqp-obs`
    /// provenance boundary.
    pub fn metrics(&mut self) -> Result<Vec<WireMetric>> {
        match self.request(&Frame::Metrics)? {
            Frame::MetricsAnswer(answer) => Ok(answer.metrics),
            _ => Err(NetError::Malformed("expected MetricsAnswer")),
        }
    }

    /// Runs one online-aggregation plan, invoking `on_snapshot` with every
    /// server-pushed progressive release *as it arrives* — the remote
    /// mirror of `PendingPlan::wait_streaming` over an engine. The server
    /// validates and atomically charges the plan's whole `(ε, δ)` before
    /// the first round dispatches, then pushes one snapshot frame per
    /// round and closes the conversation with an `OnlineDone`.
    ///
    /// The returned [`PlanAnswer`] carries [`PlanResult::Snapshots`] —
    /// the snapshots handed to the hook, in round order — so on a frozen
    /// federation it compares byte-identical against the same plan run
    /// through a local engine.
    pub fn run_online_plan(
        &mut self,
        query: &RangeQuery,
        sampling_rate: f64,
        epsilon: f64,
        delta: f64,
        rounds: u32,
        mut on_snapshot: impl FnMut(&PlanSnapshot),
    ) -> Result<PlanAnswer> {
        self.drain_outstanding()?;
        self.conn.send(&Frame::OnlinePlan(OnlinePlanRequest {
            query: query.clone(),
            sampling_rate,
            epsilon,
            delta,
            rounds,
        }))?;
        let mut snapshots = Vec::new();
        // A typed error closes the conversation — mid-stream it means an
        // engine failure after the (kept, fail-closed) charge; before any
        // snapshot it is an ordinary rejection.
        loop {
            match self.conn.recv()? {
                Frame::OnlineSnapshot(frame) => {
                    let snapshot = PlanSnapshot {
                        round: frame.round as u64,
                        rounds: frame.rounds as u64,
                        sample_fraction: frame.sample_fraction,
                        value: frame.value,
                        ci_halfwidth: frame.ci_halfwidth,
                        clusters_scanned: frame.clusters_scanned,
                    };
                    on_snapshot(&snapshot);
                    snapshots.push(snapshot);
                }
                Frame::OnlineDone(done) => {
                    return Ok(PlanAnswer {
                        result: PlanResult::Snapshots { snapshots },
                        cost: PrivacyCost {
                            eps: done.eps,
                            delta: done.delta,
                        },
                        timings: PhaseTimings {
                            summary: Duration::from_micros(done.summary_us),
                            allocation: Duration::from_micros(done.allocation_us),
                            execution: Duration::from_micros(done.execution_us),
                            release: Duration::from_micros(done.release_us),
                            network: Duration::from_micros(done.network_us),
                        },
                    });
                }
                _ => return Err(NetError::Malformed("expected OnlineSnapshot or OnlineDone")),
            }
        }
    }

    /// Feeds a batch of rows to a live server's provider `provider` —
    /// accepted atomically (all rows or none), acknowledged with the
    /// federation's new epoch and whether the batch triggered a full
    /// metadata recompute. Non-live servers refuse with a typed error.
    pub fn ingest(&mut self, provider: u32, rows: &[Row]) -> Result<IngestAckFrame> {
        let rows = rows
            .iter()
            .map(|r| WireRow {
                values: r.values().to_vec(),
                measure: r.measure(),
            })
            .collect();
        match self.request(&Frame::Ingest(IngestRequest { provider, rows }))? {
            Frame::IngestAck(ack) => Ok(ack),
            _ => Err(NetError::Malformed("expected IngestAck")),
        }
    }
}

/// A plan in flight on the remote connection — the network mirror of
/// [`fedaqp_core::PendingPlan`].
#[derive(Debug)]
pub struct PendingRemotePlan<'a> {
    conn: &'a mut RemoteFederation,
}

impl PendingRemotePlan<'_> {
    /// Blocks until the server's reply for this plan arrives.
    pub fn wait(self) -> Result<PlanAnswer> {
        self.conn.outstanding -= 1;
        match self.conn.conn.recv()? {
            Frame::PlanAnswer(answer) => Ok(plan_answer_from_wire(answer)),
            _ => Err(NetError::Malformed("expected PlanAnswer")),
        }
    }
}
