//! The TCP federation server: one connection loop, four roles.
//!
//! A [`FederationServer`] is an accept thread plus one thread per
//! connection, and every connection — whatever the listener serves — runs
//! the same state machine, `serve_connection`:
//!
//! 1. **Handshake** (`handshake`): exactly one `Hello`, answered with a
//!    `HelloAck` advertising the one wire version this build speaks. A
//!    wrong first frame and a header stamped with any other version each
//!    get a typed error frame, then the close.
//! 2. **Gate** (`Gate::of`): each request frame is looked up in one static
//!    table — which roles serve its kind, under which metric name —
//!    *before* anything else runs. A frame the role does not serve is
//!    refused with a typed `bad-request` right there: one place, always
//!    before any ledger is touched. The connection stays open.
//! 3. **Dispatch**: the handler reaches the engine through the
//!    `Backend` trait and writes its replies to the connection's
//!    stream. A malformed frame leaves the stream unsynchronized; it is
//!    reported (typed, including version mismatches) and the connection
//!    closed.
//!
//! The four roles are four columns of the gate table over three backends
//! (`docs/architecture.md` carries the full role × frame table):
//!
//! * **Engine** ([`FederationServer::bind`]) — the analyst protocol over a
//!   long-lived [`EngineHandle`]: N remote analysts drive the worker pool
//!   exactly like N in-process analyst threads do.
//! * **Coordinator** ([`FederationServer::bind_coordinator`]) — the same
//!   analyst protocol over a [`ShardedFederation`] that scatters each
//!   sub-query to downstream shards. Analysts cannot tell the difference:
//!   same frames, same typed errors, byte-identical answers.
//! * **Live** ([`FederationServer::bind_live`]) — the analyst protocol
//!   plus `Ingest`, over a [`LiveFederation`] behind one reader–writer
//!   lock. A handler takes the read side only to clone the current
//!   epoch's engine (a scoped one, whose jobs run on the connection's own
//!   thread) and runs its plan on that clone, so a plan — every round of
//!   an online plan included — conditions on exactly one epoch. An
//!   accepted `Ingest` batch takes the write side just to apply itself:
//!   it may be acked while an older epoch's plan is still running, and a
//!   plan started after the ack runs on the new epoch.
//! * **Shard** ([`FederationServer::bind_shard`]) — only the fragment
//!   frames, to an upstream coordinator, one fragment batch's lifecycle
//!   at a time per connection, with *no* budget directory: fragments
//!   arrive already charged at the coordinator, the single ξ authority (see
//!   `docs/privacy-model.md`). Each shard frame is one call on the
//!   engine's own [`ShardBackend`] — the implementation an in-process
//!   coordinator calls — which checks each fragment as it enters. The
//!   analyst roles symmetrically refuse fragment frames — serving a
//!   fragment to an arbitrary analyst would bypass the budget ledger and
//!   hand out occurrence-differencing oracles.
//!
//! Budget enforcement: with [`ServeOptions::with_budget`], a connection's
//! ledger is the [`SharedAccountant`] a [`BudgetDirectory`] keeps for the
//! analyst identity declared in the `Hello`; each charged request opens a
//! transient [`Session`] over it, which validates, charges atomically,
//! then submits (a whole [`QueryPlan`] is charged up front the same way).
//! Reconnecting or opening parallel connections can therefore never reset
//! or multiply an analyst's `(ξ, ψ)`. An exhausted budget surfaces as a
//! typed [`ErrorCode::BudgetExhausted`] error frame; the connection stays
//! open.
//!
//! What never crosses the wire: providers' raw (pre-noise) estimates and
//! smooth sensitivities. A [`PlanAnswer`] — the only thing a handler
//! projects onto the wire — has no such fields, so a remote analyst sees
//! only DP-released values. Transport security (TLS, authn) is out of
//! scope — see the README threat model.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;

use fedaqp_core::{
    CoreError, EngineHandle, FederationConfig, FragmentBatch, IngestReport, LiveFederation,
    PendingPlan, PlanAnswer, PlanResult, PlanSnapshot, QueryPlan, Session, SessionPlan,
    ShardBackend, ShardedFederation,
};
use fedaqp_dp::{BudgetDirectory, DpError, SharedAccountant};
use fedaqp_model::{Row, Schema};
use fedaqp_obs as obs;

use crate::wire::{
    calibration_code, read_frame, write_frame, BudgetStatus, ErrorCode, ErrorFrame,
    ExplainAnswerFrame, Frame, HelloAck, IngestAckFrame, MetricsAnswerFrame, OnlineDoneFrame,
    OnlinePlanRequest, OnlineSnapshotFrame, PlanAnswerFrame, WireDimension, WireGroup, WireMetric,
    WirePlanResult, VERSION,
};
use crate::{NetError, Result};

/// Longest error message shipped in an [`ErrorFrame`].
const MAX_ERROR_MESSAGE: usize = 1024;

/// How a server treats its analysts' budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Per-analyst session budget `(ξ, ψ)`; `None` serves without a
    /// session cap (each query still pays its own `(ε, δ)`).
    pub per_analyst: Option<(f64, f64)>,
}

impl ServeOptions {
    /// No session cap: any analyst may keep querying.
    pub fn unlimited() -> Self {
        Self { per_analyst: None }
    }

    /// Every analyst is granted a total `(xi, psi)` across all of their
    /// connections, enforced through one shared ledger per identity.
    pub fn with_budget(xi: f64, psi: f64) -> Self {
        Self {
            per_analyst: Some((xi, psi)),
        }
    }

    /// The per-identity ledger directory these options ask for.
    fn directory(self) -> Result<Option<Arc<BudgetDirectory>>> {
        self.per_analyst
            .map(|(xi, psi)| {
                BudgetDirectory::new(xi, psi)
                    .map(Arc::new)
                    .map_err(|e| NetError::BadServeConfig(e.to_string()))
            })
            .transpose()
    }
}

/// Which of the four serving roles a listener plays — a column of the
/// gate table ([`Gate::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Analysts over a long-lived engine.
    Engine,
    /// Analysts over a scatter–gather coordinator.
    Coordinator,
    /// Analysts plus streaming ingest over a live federation.
    Live,
    /// An upstream coordinator's fragments over an engine.
    Shard,
}

const LIVE: u8 = Role::Live.bit();
const SHARD: u8 = Role::Shard.bit();
/// Every role that faces analysts.
const ANALYST: u8 = Role::Engine.bit() | Role::Coordinator.bit() | LIVE;

impl Role {
    /// The role's bit in a [`Gate::roles`] mask.
    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// One row of the gate table.
struct Gate {
    /// Bitmask of the roles that serve the frame kind.
    roles: u8,
    /// The kind's cell of the `fedaqp_server_frames_total.` family — a
    /// static protocol kind, never request content.
    metric: &'static str,
}

/// The cell counting frames no gate row names.
const OTHER_FRAMES: &str = "fedaqp_server_frames_total.other";

impl Gate {
    /// The gate table: every request-frame kind and who serves it. `None`
    /// is a second `Hello` or a server-to-client frame, which no role
    /// serves. (The coordinator → shard family — the batch's two requests,
    /// the extreme fragment and the bounds fetch — shares one row.)
    #[rustfmt::skip]
    fn of(frame: &Frame) -> Option<Gate> {
        use Frame::*;
        let (roles, metric) = match frame {
            Plan(_)       => (ANALYST, "fedaqp_server_frames_total.plan"),
            Explain(_)    => (ANALYST, "fedaqp_server_frames_total.explain"),
            BudgetRequest => (ANALYST, "fedaqp_server_frames_total.budget"),
            Metrics       => (ANALYST, "fedaqp_server_frames_total.metrics"),
            OnlinePlan(_) => (ANALYST, "fedaqp_server_frames_total.online"),
            Ingest(_)     => (LIVE,    "fedaqp_server_frames_total.ingest"),
            Fragment(_) | FragmentAllocation(_) | ExtremeFragment(_) | ShardBoundsRequest
                          => (SHARD,   "fedaqp_server_frames_total.fragment"),
            _ => return None,
        };
        Some(Gate { roles, metric })
    }
}

/// The one place a frame is refused for its role: `Some` carries the
/// `bad-request` message, `None` admits the frame to its handler.
fn refusal(role: Role, gate: Option<&Gate>) -> Option<&'static str> {
    let roles = gate.map(|gate| gate.roles);
    if roles.is_some_and(|roles| roles & role.bit() != 0) {
        return None;
    }
    Some(match (role, roles) {
        // Querying a shard directly would bypass the coordinator's
        // single budget ledger.
        (Role::Shard, _) => {
            "analyst frames are not served in shard mode (connect to the coordinator)"
        }
        // Fragments arrive pre-charged from a coordinator and let the
        // caller pick occurrence indices — an occurrence-differencing
        // oracle in an analyst's hands.
        (_, Some(SHARD)) => "fragment frames are served only by a shard-mode server",
        // A frozen federation's metadata, epochs and seed never move;
        // accepting rows would silently drop them from every answer.
        (_, Some(LIVE)) => "ingest frames are served only by a live-mode server",
        _ => "unexpected frame kind",
    })
}

/// How handlers reach the engine behind a listener. Three impls: the
/// long-lived [`EngineHandle`] (engine and shard roles; the shard role
/// reaches it as its [`ShardBackend`]), the [`ShardedFederation`]
/// coordinator, and the live federation's lock.
trait Backend: Clone + Send + 'static {
    /// The coordinator one request plans on; its configuration and schema
    /// are what a `HelloAck` advertises. An engine's is its own one-shard
    /// coordinator; the live backend hands out its current epoch's
    /// engine's, which pins one epoch, data version and seed for
    /// everything run on it.
    fn plans(&self) -> ShardedFederation;

    /// Appends one ingest batch. Only a live federation moves; the gate
    /// table keeps `Ingest` frames from every other backend.
    fn ingest(&self, _provider: usize, _rows: Vec<Row>) -> fedaqp_core::Result<IngestReport> {
        Err(CoreError::BadConfig("this server's federation is frozen"))
    }

    /// The shard fragment frames run on; only an engine is one.
    fn fragment_engine(&self) -> Option<&dyn ShardBackend> {
        None
    }
}

impl Backend for EngineHandle {
    fn plans(&self) -> ShardedFederation {
        self.clone().into()
    }

    fn fragment_engine(&self) -> Option<&dyn ShardBackend> {
        Some(self)
    }
}

impl Backend for ShardedFederation {
    fn plans(&self) -> ShardedFederation {
        self.clone()
    }
}

/// The live federation behind its reader–writer lock, which is never held
/// across a plan. Lock poisoning is survivable: the lock guards no
/// invariant a panicked handler could have broken (a reader only clones
/// the current epoch's engine; ingest applies its batch atomically before
/// any unlock), so a poisoned lock is served rather than cascading the
/// panic across every connection thread.
impl Backend for Arc<RwLock<LiveFederation>> {
    /// Read side of the lock, just long enough to clone the current
    /// epoch's engine (the epoch's first request builds it).
    fn plans(&self) -> ShardedFederation {
        self.read()
            .unwrap_or_else(PoisonError::into_inner)
            .with_engine(EngineHandle::clone)
            .into()
    }

    /// Write side of the lock: applies the batch atomically (append +
    /// incremental metadata + epoch bump + seed re-salt) and releases
    /// before the ack is written. Plans running on the old epoch's engine
    /// finish there.
    fn ingest(&self, provider: usize, rows: Vec<Row>) -> fedaqp_core::Result<IngestReport> {
        self.write()
            .unwrap_or_else(PoisonError::into_inner)
            .ingest(provider, rows)
    }
}

/// A running federation server.
///
/// Dropping the value does *not* stop the accept loop — call
/// [`FederationServer::shutdown`] (tests, embedding) or block on
/// [`FederationServer::join`] (a serve binary).
#[derive(Debug)]
pub struct FederationServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl FederationServer {
    /// Binds `addr` (e.g. `"127.0.0.1:4751"`, or port `0` for an
    /// ephemeral port) and starts accepting analyst connections against
    /// `handle`'s engine.
    pub fn bind(addr: &str, handle: EngineHandle, options: ServeOptions) -> Result<Self> {
        Self::bind_role(addr, Role::Engine, handle, options.directory()?)
    }

    /// Binds `addr` and serves the analyst protocol from a sharded
    /// coordinator. Upstream this is indistinguishable from
    /// [`Self::bind`]; downstream every sub-query scatters to the
    /// coordinator's shards.
    pub fn bind_coordinator(
        addr: &str,
        federation: ShardedFederation,
        options: ServeOptions,
    ) -> Result<Self> {
        Self::bind_role(addr, Role::Coordinator, federation, options.directory()?)
    }

    /// Binds `addr` in live mode: the analyst protocol of [`Self::bind`]
    /// plus the streaming-ingest path. Each query runs on the scoped
    /// engine of the epoch current when it arrived (one consistent epoch
    /// per query, one occurrence ledger per epoch); an accepted
    /// [`Frame::Ingest`] batch appends rows with incremental metadata
    /// maintenance, re-salts the noise seed and starts the next epoch
    /// (see [`LiveFederation`]). Non-live servers refuse `Ingest` frames
    /// with a typed error.
    pub fn bind_live(addr: &str, live: LiveFederation, options: ServeOptions) -> Result<Self> {
        let live = Arc::new(RwLock::new(live));
        Self::bind_role(addr, Role::Live, live, options.directory()?)
    }

    /// Binds `addr` in shard mode: the server answers only fragment
    /// frames (plus the handshake), one fragment lifecycle per
    /// connection, and never opens a budget session — the upstream
    /// coordinator is the single ξ authority and charges before it
    /// scatters.
    pub fn bind_shard(addr: &str, handle: EngineHandle) -> Result<Self> {
        Self::bind_role(addr, Role::Shard, handle, None)
    }

    fn bind_role<B: Backend>(
        addr: &str,
        role: Role,
        backend: B,
        directory: Option<Arc<BudgetDirectory>>,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Bind {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, role, backend, directory, stop))
        };
        Ok(Self {
            local_addr,
            stop,
            accept,
        })
    }

    /// The address the server actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the accept loop exits (it only does on
    /// [`Self::shutdown`] from another owner, so this is "serve forever"
    /// for a server binary).
    pub fn join(self) {
        let _ = self.accept.join();
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Connections already open keep being served until their analysts
    /// disconnect (or the engine behind them shuts down).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept.join();
    }
}

fn accept_loop<B: Backend>(
    listener: TcpListener,
    role: Role,
    backend: B,
    directory: Option<Arc<BudgetDirectory>>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let backend = backend.clone();
        let directory = directory.clone();
        std::thread::spawn(move || {
            // Connection failures are the peer's problem to observe; the
            // server just moves on to other connections.
            let _ = serve_connection(stream, role, &backend, directory.as_deref());
        });
    }
}

/// Everything one connection remembers between frames.
struct Connection {
    stream: TcpStream,
    /// The identity declared in the `Hello` (labels the ξ gauge).
    analyst: String,
    /// The analyst's durable ledger, when the listener caps budgets. The
    /// sessions that charge it are opened per request; the ledger is not.
    ledger: Option<SharedAccountant>,
    /// Requests answered on this connection (what an uncapped
    /// `BudgetStatus` reports).
    answered: u64,
    /// The shard role's fragment batch between its two requests, and its
    /// length: a connection carries at most one batch at a time. Dropping
    /// the connection mid-batch drops the batch, which aborts it, so
    /// closing is how a coordinator aborts, and a vanished one costs the
    /// shard nothing more.
    batch: Option<(Box<dyn FragmentBatch>, usize)>,
}

/// One connection of any role, served to completion.
fn serve_connection<B: Backend>(
    stream: TcpStream,
    role: Role,
    backend: &B,
    directory: Option<&BudgetDirectory>,
) -> Result<()> {
    obs::counter_add(obs::names::SERVER_CONNECTIONS, 1);
    // Frames are small and latency-sensitive; never batch them.
    stream.set_nodelay(true).ok();
    let Some(mut conn) = handshake(stream, backend, directory)? else {
        return Ok(());
    };
    loop {
        let frame = match read_frame(&mut conn.stream) {
            Ok(frame) => frame,
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => {
                // A malformed frame leaves the stream unsynchronized;
                // report (typed, including version mismatches) and close.
                let _ = write_frame(&mut conn.stream, &malformed_reply(&e));
                return Err(e);
            }
        };
        let gate = Gate::of(&frame);
        if obs::enabled() {
            obs::counter_add(obs::names::SERVER_FRAMES, 1);
            obs::counter_add(gate.as_ref().map_or(OTHER_FRAMES, |gate| gate.metric), 1);
        }
        match refusal(role, gate.as_ref()) {
            // Protocol misuse is answered, not fatal.
            Some(message) => write_frame(
                &mut conn.stream,
                &error_reply(0, ErrorCode::BadRequest, message),
            )?,
            None => dispatch(&mut conn, backend, frame)?,
        }
    }
}

/// Exactly one `Hello`, answered with a `HelloAck`. `Ok(None)` is a peer
/// that connected and left without a word.
fn handshake<B: Backend>(
    mut stream: TcpStream,
    backend: &B,
    directory: Option<&BudgetDirectory>,
) -> Result<Option<Connection>> {
    let hello = match read_frame(&mut stream) {
        Ok(Frame::Hello(hello)) => hello,
        Err(NetError::Disconnected) => return Ok(None),
        // Never a bare hangup: the typed reason goes out before the close.
        refused => {
            let (reply, error) = match refused {
                Err(e) => (malformed_reply(&e), e),
                Ok(_) => (
                    error_reply(0, ErrorCode::BadRequest, "expected a Hello frame"),
                    NetError::Handshake("expected Hello"),
                ),
            };
            let _ = write_frame(&mut stream, &reply);
            return Err(error);
        }
    };
    let plans = backend.plans();
    let ack = hello_ack(plans.config(), plans.schema(), directory);
    write_frame(&mut stream, &Frame::HelloAck(ack))?;
    Ok(Some(Connection {
        stream,
        ledger: directory.map(|directory| directory.accountant(&hello.analyst)),
        analyst: hello.analyst,
        answered: 0,
        batch: None,
    }))
}

fn hello_ack(
    config: &FederationConfig,
    schema: &Schema,
    directory: Option<&BudgetDirectory>,
) -> HelloAck {
    HelloAck {
        dimensions: schema
            .dimensions()
            .iter()
            .map(|d| WireDimension {
                name: d.name().to_owned(),
                min: d.domain().min(),
                max: d.domain().max(),
            })
            .collect(),
        n_providers: config.n_providers as u32,
        epsilon: config.epsilon,
        delta: config.delta,
        calibration: calibration_code(config.estimator_calibration),
        session_budget: directory.map(|directory| {
            let per = directory.per_analyst();
            (per.eps, per.delta)
        }),
        max_version: VERSION,
    }
}

/// Answers one frame the gate table admitted.
fn dispatch<B: Backend>(conn: &mut Connection, backend: &B, frame: Frame) -> Result<()> {
    let ledger = conn.ledger.as_ref();
    match frame {
        Frame::Plan(request) => {
            // Every sub-query is submitted (and the whole plan charged)
            // before the wait — the per-group fan-out pipelines on the
            // worker pool exactly as in-process plans do.
            let reply = match submit_plan(&backend.plans(), ledger, &request.plan)
                .and_then(PendingPlan::wait)
            {
                Ok(answer) => {
                    count_answer(&mut conn.answered);
                    plan_answer_frame(0, &answer)
                }
                Err(e) => core_error_reply(0, &e),
            };
            record_xi_spent(&conn.analyst, ledger);
            write_frame(&mut conn.stream, &reply)
        }
        Frame::Explain(request) => {
            // Explaining runs nothing and charges no budget — the
            // explanation is a pure function of the plan and the current
            // epoch's public offline metadata, so it bypasses the ledger
            // entirely (and `answered` stays put).
            let reply = match backend.plans().explain_plan(&request.plan) {
                Ok(explanation) => Frame::ExplainAnswer(ExplainAnswerFrame {
                    index: 0,
                    explanation,
                }),
                Err(e) => core_error_reply(0, &e),
            };
            write_frame(&mut conn.stream, &reply)
        }
        Frame::BudgetRequest => {
            let status = budget_status(ledger, conn.answered);
            write_frame(&mut conn.stream, &Frame::BudgetStatus(status))
        }
        // The snapshot is public by construction: every sample in the
        // registry passed the `ObsValue` provenance boundary (durations,
        // counts, public metadata, released spend).
        Frame::Metrics => write_frame(&mut conn.stream, &metrics_answer_frame()),
        Frame::OnlinePlan(request) => {
            // The whole plan's (ε, δ) is validated and charged atomically
            // before the first round dispatches (fail-closed); snapshots
            // then push as rounds resolve, every round on the one engine
            // the plan was submitted to — on a live server every snapshot
            // is computed against one epoch, even when an ingest is acked
            // before the `OnlineDone`.
            let pushed = match submit_plan(&backend.plans(), ledger, &online_plan(&request)) {
                Ok(pending) => stream_online_answer(&mut conn.stream, pending),
                Err(e) => write_frame(&mut conn.stream, &core_error_reply(0, &e)).map(|()| false),
            };
            record_xi_spent(&conn.analyst, ledger);
            if pushed? {
                count_answer(&mut conn.answered);
            }
            Ok(())
        }
        Frame::Ingest(request) => {
            let reply = match backend.ingest(request.provider as usize, request.rows) {
                Ok(report) => Frame::IngestAck(IngestAckFrame {
                    accepted: report.accepted,
                    epoch: report.epoch,
                    refreshed: report.refreshed,
                }),
                Err(e) => core_error_reply(0, &e),
            };
            write_frame(&mut conn.stream, &reply)
        }
        // The gate admits nothing else but the fragment family, and that
        // only on the shard role's engine.
        frame => match backend.fragment_engine() {
            Some(shard) => serve_fragment(shard, &mut conn.batch, frame, &mut conn.stream),
            None => write_frame(
                &mut conn.stream,
                &error_reply(0, ErrorCode::Internal, "this backend runs no fragments"),
            ),
        },
    }
}

/// A transient [`Session`] over the analyst's durable ledger: the session
/// object is per-request, the ledger it charges is not.
fn session(plans: &ShardedFederation, ledger: &SharedAccountant) -> fedaqp_core::Result<Session> {
    Session::open_with_accountant(plans.clone(), ledger.clone(), SessionPlan::PayAsYouGo)
}

/// Submits a whole plan: with a ledger, the plan's entire declared
/// `(ε, δ)` is validated and charged atomically before any sub-query is
/// dispatched (validate-before-charge, whole-plan ξ accounting).
fn submit_plan(
    plans: &ShardedFederation,
    ledger: Option<&SharedAccountant>,
    plan: &QueryPlan,
) -> fedaqp_core::Result<PendingPlan> {
    match ledger {
        Some(ledger) => session(plans, ledger)?.submit_plan(plan),
        None => plans.submit_plan(plan),
    }
}

/// Counts one answered request, on the connection and in telemetry.
fn count_answer(answered: &mut u64) {
    *answered += 1;
    obs::counter_add(obs::names::SERVER_QUERIES, 1);
}

/// Serves one request of the coordinator → shard family through the
/// shard's [`ShardBackend`], writing its replies: a `Fragment` batch is
/// begun and answered with its summaries; its `FragmentAllocation` is
/// delivered and answered with one partial per fragment, streamed in batch
/// order as each resolves (or one typed error, which ends the batch);
/// `ExtremeFragment` and `ShardBoundsRequest` are single round trips. The
/// shard checks each fragment as it enters and each allocation's shape;
/// this loop keeps only the connection's own order. No budget is involved
/// by construction: the upstream coordinator charged the whole plan before
/// scattering.
fn serve_fragment(
    shard: &dyn ShardBackend,
    batch: &mut Option<(Box<dyn FragmentBatch>, usize)>,
    frame: Frame,
    stream: &mut TcpStream,
) -> Result<()> {
    let bad_request = |message| error_reply(0, ErrorCode::BadRequest, message);
    let reply = match frame {
        Frame::Fragment(_) if batch.is_some() => {
            bad_request("one shard connection carries one fragment batch at a time")
        }
        Frame::Fragment(specs) if specs.is_empty() => {
            bad_request("a fragment batch needs at least one fragment")
        }
        Frame::Fragment(specs) => {
            let begun = shard.begin(&specs).and_then(|mut fragments| {
                let summaries = fragments.summaries()?;
                *batch = Some((fragments, specs.len()));
                Ok(summaries)
            });
            begun.map_or_else(|e| core_error_reply(0, &e), Frame::FragmentSummaries)
        }
        Frame::FragmentAllocation(allocations) => {
            let Some((mut fragments, len)) = batch.take() else {
                return write_frame(
                    stream,
                    &bad_request("no fragment in flight on this connection"),
                );
            };
            if let Err(e) = fragments.allocate(allocations) {
                return write_frame(stream, &core_error_reply(0, &e));
            }
            // One partial per fragment, each written as it resolves; the
            // last completes the batch and frees the connection for the
            // next one.
            for _ in 0..len {
                match fragments.partial() {
                    Ok(partial) => write_frame(stream, &Frame::FragmentPartial(partial))?,
                    Err(e) => return write_frame(stream, &core_error_reply(0, &e)),
                }
            }
            return Ok(());
        }
        Frame::ExtremeFragment(spec) => match shard.extreme(&spec).and_then(|mut r| r.answer()) {
            Ok(answer) => Frame::ExtremePartial(answer),
            Err(e) => core_error_reply(0, &e),
        },
        Frame::ShardBoundsRequest => Frame::ShardBounds(shard.bounds()),
        _ => bad_request("unexpected frame kind"),
    };
    write_frame(stream, &reply)
}

/// The [`QueryPlan`] an [`OnlinePlanRequest`] compiles to — the variant an
/// in-process caller hands to `run_plan`, which is what keeps remote
/// snapshots byte-identical to in-process ones on a frozen federation.
fn online_plan(request: &OnlinePlanRequest) -> QueryPlan {
    QueryPlan::Online {
        query: request.query.clone(),
        sampling_rate: request.sampling_rate,
        epsilon: request.epsilon,
        delta: request.delta,
        rounds: request.rounds as usize,
    }
}

/// Drives an in-flight online plan to completion, pushing one
/// [`Frame::OnlineSnapshot`] per resolved round and closing the
/// conversation with a [`Frame::OnlineDone`] (success, returns `true`) or
/// a typed error frame (an engine failure mid-stream, returns `false` —
/// the budget stays spent either way, fail-closed). Transport failures
/// propagate as [`NetError`] and tear the connection down.
fn stream_online_answer(stream: &mut TcpStream, pending: PendingPlan) -> Result<bool> {
    let mut write_err: Option<NetError> = None;
    let outcome = pending.wait_streaming(|snapshot: &PlanSnapshot| {
        if write_err.is_some() {
            return;
        }
        let frame = Frame::OnlineSnapshot(OnlineSnapshotFrame {
            index: 0,
            round: snapshot.round as u32,
            rounds: snapshot.rounds as u32,
            sample_fraction: snapshot.sample_fraction,
            value: snapshot.value,
            ci_halfwidth: snapshot.ci_halfwidth,
            clusters_scanned: snapshot.clusters_scanned,
        });
        write_err = write_frame(stream, &frame).err();
    });
    if let Some(e) = write_err {
        return Err(e);
    }
    match outcome {
        Ok(answer) => {
            let done = Frame::OnlineDone(OnlineDoneFrame {
                index: 0,
                eps: answer.cost.eps,
                delta: answer.cost.delta,
                value: answer.value().unwrap_or(f64::NAN),
                summary_us: answer.timings.summary.as_micros() as u64,
                allocation_us: answer.timings.allocation.as_micros() as u64,
                execution_us: answer.timings.execution.as_micros() as u64,
                release_us: answer.timings.release.as_micros() as u64,
                network_us: answer.timings.network.as_micros() as u64,
            });
            write_frame(stream, &done)?;
            Ok(true)
        }
        Err(e) => {
            write_frame(stream, &core_error_reply(0, &e))?;
            Ok(false)
        }
    }
}

/// Projects a [`PlanAnswer`] onto the wire. A plan answer already holds
/// only analyst-visible fields — the simulation-boundary diagnostics
/// (`raw_estimate`, `smooth_ls`) were dropped by every backend before this
/// point — and suppressed groups contribute a count, never their noisy
/// values. The frame is the same whichever role served it.
fn plan_answer_frame(index: u32, answer: &PlanAnswer) -> Frame {
    let result = match &answer.result {
        PlanResult::Value {
            value,
            ci_halfwidth,
        } => WirePlanResult::Value {
            value: *value,
            ci_halfwidth: *ci_halfwidth,
        },
        PlanResult::Groups { groups, suppressed } => WirePlanResult::Groups {
            groups: groups
                .iter()
                .map(|g| WireGroup {
                    key: g.key,
                    value: g.value,
                    ci_halfwidth: g.ci_halfwidth,
                })
                .collect(),
            suppressed: *suppressed,
        },
        PlanResult::Extreme { value } => WirePlanResult::Extreme { value: *value },
        // Online plans answer through the dedicated push conversation
        // (snapshot frames closed by an `OnlineDone`), never through a
        // `PlanAnswer` — and the `Plan` frame cannot even carry a
        // `QueryPlan::Online`, so no wire request reaches this arm.
        PlanResult::Snapshots { .. } => {
            return error_reply(
                index,
                ErrorCode::Internal,
                "online plans answer with snapshot frames",
            )
        }
    };
    Frame::PlanAnswer(PlanAnswerFrame {
        index,
        eps: answer.cost.eps,
        delta: answer.cost.delta,
        result,
        summary_us: answer.timings.summary.as_micros() as u64,
        allocation_us: answer.timings.allocation.as_micros() as u64,
        execution_us: answer.timings.execution.as_micros() as u64,
        release_us: answer.timings.release.as_micros() as u64,
        network_us: answer.timings.network.as_micros() as u64,
    })
}

/// Publishes the analyst's cumulative ξ spend under
/// `fedaqp_server_xi_spent.{identity}`. The spend is *released* budget
/// accounting — the analyst already observes it through `BudgetStatus`
/// frames — so exposing it in telemetry leaks nothing new.
fn record_xi_spent(analyst: &str, ledger: Option<&SharedAccountant>) {
    if !obs::enabled() {
        return;
    }
    let Some(ledger) = ledger else { return };
    obs::gauge_set(
        &format!("{}.{analyst}", obs::names::SERVER_XI_SPENT),
        obs::ObsValue::from_released(ledger.spent().eps),
    );
}

/// The server's telemetry snapshot as a wire frame. Flat `(name, value)`
/// samples straight from the global registry — every one of which passed
/// the [`fedaqp_obs::ObsValue`] provenance boundary.
fn metrics_answer_frame() -> Frame {
    Frame::MetricsAnswer(MetricsAnswerFrame {
        metrics: obs::global()
            .snapshot()
            .into_iter()
            .map(|s| WireMetric {
                name: s.name,
                value: s.value,
            })
            .collect(),
    })
}

fn error_reply(index: u32, code: ErrorCode, message: &str) -> Frame {
    obs::counter_add(obs::names::SERVER_ERRORS, 1);
    let mut message = message.to_owned();
    if message.len() > MAX_ERROR_MESSAGE {
        // Truncate on a char boundary to stay valid UTF-8.
        let cut = (0..=MAX_ERROR_MESSAGE)
            .rev()
            .find(|&i| message.is_char_boundary(i))
            .unwrap_or(0);
        message.truncate(cut);
    }
    Frame::Error(ErrorFrame {
        index,
        code,
        message,
    })
}

/// Maps an engine/protocol failure onto the typed wire error vocabulary.
fn core_error_reply(index: u32, error: &CoreError) -> Frame {
    let code = match error {
        CoreError::Dp(DpError::BudgetExhausted { .. }) => ErrorCode::BudgetExhausted,
        CoreError::Model(_) | CoreError::GroupDomainTooLarge { .. } => ErrorCode::InvalidQuery,
        CoreError::InvalidSamplingRate(_) => ErrorCode::InvalidSamplingRate,
        CoreError::BadConfig(_) => ErrorCode::BadRequest,
        CoreError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
        _ => ErrorCode::Internal,
    };
    error_reply(index, code, &error.to_string())
}

/// The typed reply to a frame that failed to decode. A foreign header
/// version becomes the negotiation error, whose `index` field carries the
/// server's version (documented on [`ErrorCode::UnsupportedVersion`]) so
/// the client can surface both sides of the failed negotiation.
fn malformed_reply(error: &NetError) -> Frame {
    match error {
        NetError::UnsupportedVersion { requested, .. } => Frame::Error(ErrorFrame {
            index: VERSION as u32,
            code: ErrorCode::UnsupportedVersion,
            message: format!(
                "server speaks wire-protocol version {VERSION}, frame declared {requested}"
            ),
        }),
        _ => error_reply(0, ErrorCode::BadRequest, &error.to_string()),
    }
}

/// The analyst's ledger as a status frame; without a ledger the
/// connection reports itself uncapped.
fn budget_status(ledger: Option<&SharedAccountant>, answered: u64) -> BudgetStatus {
    match ledger {
        Some(ledger) => {
            let (total, spent) = (ledger.total(), ledger.spent());
            BudgetStatus {
                limited: true,
                total_eps: total.eps,
                total_delta: total.delta,
                spent_eps: spent.eps,
                spent_delta: spent.delta,
                queries_answered: ledger.queries_answered(),
            }
        }
        None => BudgetStatus {
            limited: false,
            total_eps: f64::INFINITY,
            total_delta: 1.0,
            spent_eps: 0.0,
            spent_delta: 0.0,
            queries_answered: answered,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_model::ModelError;

    #[test]
    fn core_errors_map_to_typed_codes() {
        let cases = [
            (
                CoreError::Dp(DpError::BudgetExhausted {
                    requested_eps: 1.0,
                    remaining_eps: 0.0,
                    requested_delta: 0.0,
                    remaining_delta: 0.0,
                }),
                ErrorCode::BudgetExhausted,
            ),
            (
                CoreError::Model(ModelError::NoRanges),
                ErrorCode::InvalidQuery,
            ),
            (
                CoreError::InvalidSamplingRate(1.5),
                ErrorCode::InvalidSamplingRate,
            ),
            (CoreError::BadConfig("x"), ErrorCode::BadRequest),
            (
                CoreError::GroupDomainTooLarge {
                    size: 1_000_000_000,
                    cap: 4096,
                },
                ErrorCode::InvalidQuery,
            ),
            (
                CoreError::ShardUnavailable {
                    shard: 1,
                    reason: "connection refused",
                },
                ErrorCode::ShardUnavailable,
            ),
            (CoreError::NoProviders, ErrorCode::Internal),
        ];
        for (error, expected) in cases {
            match core_error_reply(7, &error) {
                Frame::Error(e) => {
                    assert_eq!(e.code, expected);
                    assert_eq!(e.index, 7);
                    assert!(!e.message.is_empty());
                }
                other => panic!("expected an error frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn long_error_messages_are_truncated_to_the_wire_cap() {
        let long = "é".repeat(2 * MAX_ERROR_MESSAGE);
        match error_reply(0, ErrorCode::Internal, &long) {
            Frame::Error(e) => {
                assert!(e.message.len() <= MAX_ERROR_MESSAGE);
                // Still encodable.
                assert!(crate::wire::encode_frame(&Frame::Error(e)).is_ok());
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_status_is_uncapped() {
        let status = budget_status(None, 5);
        assert!(!status.limited);
        assert!(status.total_eps.is_infinite());
        assert_eq!(status.queries_answered, 5);
    }
}
