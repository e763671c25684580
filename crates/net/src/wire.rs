//! The length-prefixed binary wire protocol.
//!
//! Every message on a federation connection is one *frame*:
//!
//! ```text
//! magic   u32  = 0x4651_4E50  ("FQNP")
//! version u16  (6)
//! kind    u8
//! len     u32  (payload bytes; hard-capped at MAX_PAYLOAD)
//! payload [len bytes]
//! ```
//!
//! All integers are little-endian, matching `fedaqp_storage::codec`. The
//! codec is hand-rolled in the same defensive style: every declared count
//! is capped and bounded by [`fedaqp_storage::declared_len_fits`] before
//! it is trusted (one helper pair, `put_list`/`get_list`), truncation
//! anywhere fails loudly, and a payload that decodes without consuming
//! every byte is rejected (`trailing bytes`) — a frame either round-trips
//! exactly or it is an error. Each payload states its field order once:
//! one private `Wire` impl per type carries both directions, derived by
//! one `wire_struct!` row for a plain struct and written by hand, the two
//! directions side by side, for the few types that check an invariant or
//! keep fields private (a range, a plan, a plan result, a duration in
//! microseconds, a fragment's summaries, an allocation slice, a
//! provider's bounds). One frame table maps every [`Frame`] variant to
//! its kind byte.
//!
//! **One version.** Every frame is stamped [`VERSION`] and nothing else
//! decodes: a header declaring any other version fails with
//! [`NetError::UnsupportedVersion`] *before* any payload is read, and
//! servers answer it with a typed [`ErrorCode::UnsupportedVersion`] frame
//! (whose `index` field carries the server's version, as does
//! [`HelloAck::max_version`]) instead of hanging up bare. Kind bytes 3, 4,
//! 5, 14, 15, 18, 19, 21 and 22 are retired holes, never reused; decoding
//! one is the ordinary [`NetError::UnknownKind`].
//!
//! Conversation shape (client ⇒ server unless noted):
//!
//! * [`Frame::Hello`] opens a connection; the server replies with
//!   [`Frame::HelloAck`] (schema, defaults, session budget) or a typed
//!   [`Frame::Error`].
//! * [`Frame::Plan`] submits one [`QueryPlan`] — the only way to ask for
//!   an answer; the server replies with one [`Frame::PlanAnswer`] or
//!   [`Frame::Error`]. Plans pipelined on one connection are answered in
//!   submission order.
//! * [`Frame::Explain`] asks what the optimizer would decide about a
//!   [`QueryPlan`] *without running it*; the server replies with one
//!   [`Frame::ExplainAnswer`] (carrying a [`PlanExplanation`]) or
//!   [`Frame::Error`]. Explaining charges no budget — the explanation is
//!   computed from the plan and public offline metadata only.
//! * [`Frame::BudgetRequest`] asks for the session ledger; the server
//!   replies with [`Frame::BudgetStatus`].
//! * [`Frame::Metrics`] asks for the server's telemetry snapshot; the
//!   server replies with one [`Frame::MetricsAnswer`] carrying flat
//!   `(name, value)` samples. Every sample passed the `fedaqp-obs`
//!   `ObsValue` provenance boundary — durations, counts, public metadata,
//!   and already-released budget spend only; raw estimates and
//!   sensitivities are unrepresentable (pinned by the adversarial
//!   frame-hygiene scan).
//! * [`Frame::OnlinePlan`] submits one progressive (online aggregation)
//!   plan; the server validates, charges the *whole* `(ε, δ)` atomically
//!   up front (fail-closed), then pushes one [`Frame::OnlineSnapshot`]
//!   per round **as each round completes** and closes the stream with one
//!   [`Frame::OnlineDone`] (or a [`Frame::Error`]). Every snapshot value
//!   is a DP release under the plan's per-round `(ε/k, δ/k)` — nothing
//!   pre-noise is pushed.
//! * [`Frame::Ingest`] appends a batch of rows to one provider of a
//!   server started in *live mode*; the server replies with
//!   [`Frame::IngestAck`] (rows accepted, new data epoch, whether the
//!   staleness policy triggered a full metadata recompute). Non-live
//!   servers refuse ingest with a typed error.
//!
//! **Shard fragment frames (coordinator ⇒ shard).** A server started
//! in *shard mode* serves a scatter–gather coordinator instead of
//! analysts: one connection carries one *batch* of fragments — the
//! sub-queries one plan submitted together — through the paper's two
//! rounds, each one request and its reply. The frames carry the core's
//! shard types ([`fedaqp_core::ShardBackend`]) as they are, each with its
//! field order stated once below. [`Frame::Fragment`] (one
//! [`FragmentSpec`] per fragment, each with its explicit occurrence
//! index) ⇒ [`Frame::FragmentSummaries`] (per fragment, the per-provider
//! DP summaries in local provider order), or one typed [`Frame::Error`]
//! when the shard refuses a spec at its entry. [`Frame::FragmentAllocation`]
//! (per fragment, the coordinator's globally solved slice) ⇒ one
//! [`Frame::FragmentPartial`] per fragment (the mergeable per-provider
//! releases), in batch order, each written as its fragment resolves — or
//! one typed [`Frame::Error`] when the allocation is rejected, which ends
//! the batch. Closing the connection aborts a begun batch.
//! [`Frame::ExtremeFragment`] ⇒ [`Frame::ExtremePartial`] runs a MIN/MAX
//! fragment in one round trip, and [`Frame::ShardBoundsRequest`] ⇒
//! [`Frame::ShardBounds`] publishes the shard's offline pruning metadata
//! at coordinator construction. A shard-mode server accepts *only*
//! fragment frames (analyst frames are refused — a party that can mix
//! both against one shard could difference the occurrence ledger), and
//! an analyst-mode server refuses fragment frames (they carry an
//! explicit, pre-charged budget, so accepting them from analysts would
//! bypass the session ledger). Seeds never cross the wire: operators
//! configure every shard with the deployment seed out of band.
//!
//! What is *not* on the wire is as deliberate as what is: a provider's raw
//! (pre-noise) estimate and smooth sensitivities are simulation-boundary
//! diagnostics and never leave the server (see the README threat-model
//! note) — and a plan answer carries only the released groups/values, never
//! the suppressed groups' noisy values.

use std::io::{Read, Write};
use std::time::Duration;

use bytes::{Buf, BufMut};
use fedaqp_core::{
    EstimatorCalibration, ExtremeFragmentSpec, FragmentPartial, FragmentSpec, FragmentSummaries,
    OptimizerConfig, PartialRow, PlanExplanation, ProviderBounds, ProviderSummary,
    SubQueryExplanation,
};
use fedaqp_dp::QueryBudget;
use fedaqp_model::{Aggregate, DerivedStatistic, Extreme, QueryPlan, Range, RangeQuery, Value};
use fedaqp_storage::declared_len_fits;

use crate::{NetError, Result};

/// Frame magic ("FQNP").
pub const MAGIC: u32 = 0x4651_4E50;
/// The wire-protocol version: stamped on every frame this build writes,
/// and the only one it reads.
pub const VERSION: u16 = 6;
/// Hard cap on a frame payload. Nothing legitimate comes close (the
/// largest frame is a maximal ingest batch at well under 200 KiB);
/// anything larger is a hostile or corrupt length prefix.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Frame header size: magic + version + kind + payload length.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4;

/// Caps on declared collection sizes inside payloads. All are generous
/// for real deployments while keeping worst-case decode work tiny.
const MAX_STRING: usize = 1024;
/// Rows one `Ingest` frame may carry (exported so clients can chunk
/// larger batches themselves).
pub const MAX_INGEST_ROWS: usize = 4096;
const MAX_DIMS: usize = 1024;
const MAX_RANGES: usize = 1024;
const MAX_ALLOCATIONS: usize = 4096;
/// Cap on groups in a plan answer — matches the engine's default
/// group-domain cap (`FederationConfig::max_group_domain`).
const MAX_GROUPS: usize = 4096;
/// Cap on sub-queries in an explanation: a maximal group-by with a
/// derived statistic fans out to three sub-queries per key plus the
/// shared base probe.
const MAX_SUBQUERIES: usize = 3 * MAX_GROUPS + 1;
/// Cap on fragments in one batch: one per sub-query of a plan.
const MAX_FRAGMENTS: usize = MAX_SUBQUERIES;
/// Cap on samples in a metrics answer (static catalog + labeled families
/// stay far below this).
const MAX_METRICS: usize = 4096;

/// One collection field of the protocol, as [`put_list`] and [`get_list`]
/// enforce it — a declared count is capped, and checked against the bytes
/// remaining, before it is trusted: the count's width on the wire
/// ([`U16`] or [`U32`]), the most items either side accepts, the fewest
/// bytes one encoded item occupies (what bounds the reservation a count
/// may ask for), and the refusal of a count beyond the cap or the bytes
/// present.
struct List(usize, usize, usize, &'static str);

/// Count widths, in bytes.
const U16: usize = 2;
const U32: usize = 4;

/// Every collection field of the protocol, one row each, with what the
/// fewest-bytes column counts.
#[rustfmt::skip]
mod lists {
    use super::*;
    pub const RANGES: List       = List(U16, MAX_RANGES, 4 + 8 + 8, "declared range count too large"); // dim + bounds
    pub const DIMENSIONS: List   = List(U16, MAX_DIMS, 2 + 8 + 8, "declared dimension count too large"); // name length + domain
    pub const GROUPS: List       = List(U32, MAX_GROUPS, 8 + 8 + 1, "declared group count too large"); // key + value + option tag
    // Label length + pruned count + cost + reuse tag + order.
    pub const SUBQUERIES: List   = List(U32, MAX_SUBQUERIES, 2 + 4 + 8 + 1 + 8, "declared sub-query count too large");
    pub const PRUNED: List       = List(U32, MAX_ALLOCATIONS, 8, "declared pruned count too large");
    // The six floats and the occurrence, the aggregate, the range count.
    pub const FRAGMENTS: List    = List(U32, MAX_FRAGMENTS, FRAGMENT_BYTES, "declared fragment count too large");
    pub const SUMMARY_SETS: List = List(U32, MAX_FRAGMENTS, U32 + 8, "declared summary set count too large"); // summary count + timing
    pub const SUMMARIES: List    = List(U32, MAX_ALLOCATIONS, 8 + 8, "declared summary count too large");
    pub const ALLOCATION_SETS: List = List(U32, MAX_FRAGMENTS, U32, "declared allocation set count too large"); // allocation count
    pub const ALLOCATIONS: List  = List(U32, MAX_ALLOCATIONS, 8, "declared allocation count too large");
    // Released + option tag + flag + two counters.
    pub const PARTIAL_ROWS: List = List(U32, MAX_ALLOCATIONS, 8 + 1 + 1 + 8 + 8, "declared partial row count too large");
    pub const BOUNDS: List       = List(U32, MAX_ALLOCATIONS, 2 + 8, "declared bounds count too large"); // dim count + cluster count
    pub const BOUND_DIMS: List   = List(U16, MAX_DIMS, 1, "declared bound dimension count too large"); // option tag
    pub const METRICS: List      = List(U32, MAX_METRICS, 2 + 8, "declared metric count too large"); // name length + value
    pub const INGEST_ROWS: List  = List(U32, MAX_INGEST_ROWS, 2 + 8, "declared ingest batch too large"); // value count + measure
    pub const ROW_VALUES: List   = List(U16, MAX_DIMS, 8, "declared ingest row too large");
}
use lists::*;

/// Encoded bytes of one fragment spec with no ranges: five floats, the
/// occurrence, the aggregate and the range count.
const FRAGMENT_BYTES: usize = 6 * 8 + 1 + U16;
/// Encoded bytes of one range of a query.
const RANGE_BYTES: usize = 4 + 8 + 8;

/// A connection-opening frame: the analyst declares an identity the
/// server keys budget ledgers by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The analyst's identity (budget-ledger key on the server).
    pub analyst: String,
}

/// One schema dimension as published to remote analysts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDimension {
    /// Dimension name.
    pub name: String,
    /// Domain minimum.
    pub min: i64,
    /// Domain maximum.
    pub max: i64,
}

/// The server's handshake reply: everything a remote analyst needs to
/// form queries without local data access.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloAck {
    /// The public table schema.
    pub dimensions: Vec<WireDimension>,
    /// Number of data providers behind the federation.
    pub n_providers: u32,
    /// Default per-query ε.
    pub epsilon: f64,
    /// Default per-query δ.
    pub delta: f64,
    /// The server's Hansen–Hurwitz calibration (see
    /// [`calibration_code`]).
    pub calibration: u8,
    /// The per-analyst session budget `(ξ, ψ)`; `None` when the server
    /// imposes no session cap.
    pub session_budget: Option<(f64, f64)>,
    /// The highest wire-protocol version the server speaks.
    pub max_version: u16,
}

/// Typed error classes a server reports per query or per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The analyst's session `(ξ, ψ)` cannot afford the query.
    BudgetExhausted,
    /// The query itself is invalid (unknown dimension, empty range, …).
    InvalidQuery,
    /// The sampling rate is outside `(0, 1)`.
    InvalidSamplingRate,
    /// The request was malformed or arrived out of protocol order.
    BadRequest,
    /// The server failed internally.
    Internal,
    /// The client's frame header declared a wire-protocol version the
    /// server does not speak. The error frame's `index` field carries the
    /// server's maximum supported version so the client can surface both
    /// sides of the failed negotiation.
    UnsupportedVersion,
    /// A downstream engine shard refused a connection or dropped
    /// mid-plan (reported by a coordinator to its analysts). The
    /// plan's already-charged budget stays charged — fail-closed.
    ShardUnavailable,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BudgetExhausted => "budget-exhausted",
            ErrorCode::InvalidQuery => "invalid-query",
            ErrorCode::InvalidSamplingRate => "invalid-sampling-rate",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::ShardUnavailable => "shard-unavailable",
        };
        f.write_str(name)
    }
}

/// A typed error for one query (or the whole connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Position within the submitted batch (0 for connection-level).
    pub index: u32,
    /// The typed error class.
    pub code: ErrorCode,
    /// Human-readable detail (capped at 1 KiB on the wire).
    pub message: String,
}

/// The session ledger as reported to the analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetStatus {
    /// Whether the server caps this analyst's session at all.
    pub limited: bool,
    /// Total ξ granted (∞ when unlimited).
    pub total_eps: f64,
    /// Total ψ granted.
    pub total_delta: f64,
    /// ε spent so far.
    pub spent_eps: f64,
    /// δ spent so far.
    pub spent_delta: f64,
    /// Queries successfully charged so far.
    pub queries_answered: u64,
}

/// One released group on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGroup {
    /// The group key.
    pub key: i64,
    /// The noisy aggregate (or derived statistic) for the group.
    pub value: f64,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
}

/// The shape-specific part of a [`PlanAnswerFrame`] — the wire projection
/// of `fedaqp_core::PlanResult`.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePlanResult {
    /// A scalar or derived-statistic release.
    Value {
        /// The DP-released value.
        value: f64,
        /// 95% sampling confidence half-width, when estimable.
        ci_halfwidth: Option<f64>,
    },
    /// A GROUP-BY release, ascending by key.
    Groups {
        /// Released groups (count capped at the group-domain cap).
        groups: Vec<WireGroup>,
        /// Groups suppressed by the significance threshold.
        suppressed: u64,
    },
    /// A private MIN/MAX selection.
    Extreme {
        /// The selected domain value.
        value: i64,
    },
}

/// One plan submission (client → server).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// The plan, complete with sampling rate and `(ε, δ)` spend.
    pub plan: QueryPlan,
}

/// The released answer to one plan (server → client).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnswerFrame {
    /// Position within the submitted stream (0 for a lone plan).
    pub index: u32,
    /// ε charged for the whole plan.
    pub eps: f64,
    /// δ charged for the whole plan.
    pub delta: f64,
    /// The released result.
    pub result: WirePlanResult,
    /// Summary-phase time (max over concurrent sub-queries), microseconds.
    pub summary_us: u64,
    /// Allocation-phase time, microseconds.
    pub allocation_us: u64,
    /// Execution-phase time, microseconds.
    pub execution_us: u64,
    /// Release-phase time, microseconds.
    pub release_us: u64,
    /// Simulated network time (overlapped transit), microseconds.
    pub network_us: u64,
}

/// Splits a batch of fragment specs into consecutive runs whose frames
/// each fit the wire for a shard of `n_providers`, returning the run
/// lengths: the `Fragment` frame of a run, and the `FragmentSummaries`
/// and `FragmentAllocation` frames answering it, stay under
/// [`MAX_PAYLOAD`] and the lists' caps. Any plan's batch but the very
/// widest is one run.
pub fn fragment_runs(specs: &[FragmentSpec], n_providers: usize) -> Vec<usize> {
    // The larger of one fragment's summary set and its allocation set.
    let per_reply = (U32 + n_providers * 16 + 8).max(U32 + n_providers * 8);
    let mut runs = Vec::new();
    let (mut start, mut bytes) = (0, U32);
    for (i, spec) in specs.iter().enumerate() {
        let spec_bytes = FRAGMENT_BYTES + spec.query.ranges().len() * RANGE_BYTES;
        let n = i - start;
        let full = n == MAX_FRAGMENTS
            || bytes + spec_bytes > MAX_PAYLOAD as usize
            || U32 + (n + 1) * per_reply > MAX_PAYLOAD as usize;
        if n > 0 && full {
            runs.push(n);
            (start, bytes) = (i, U32);
        }
        bytes += spec_bytes;
    }
    if start < specs.len() {
        runs.push(specs.len() - start);
    }
    runs
}

/// One metric sample inside a [`MetricsAnswerFrame`]: a flat name/value
/// pair from the server's `fedaqp-obs` registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetric {
    /// Metric name (static catalog entry or a labeled family member).
    pub name: String,
    /// The sample value. On the serving side every value entered the
    /// registry through the `ObsValue` provenance boundary: durations,
    /// counts, public metadata, and already-released budget spend only.
    pub value: f64,
}

/// The server's telemetry snapshot (server → client).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsAnswerFrame {
    /// Flat samples, sorted by name.
    pub metrics: Vec<WireMetric>,
}

/// One progressive (online aggregation) plan submission (client → server,
/// v6). The server answers with `rounds` [`OnlineSnapshotFrame`]s pushed
/// as each round completes, closed by one [`OnlineDoneFrame`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePlanRequest {
    /// The range query to refine progressively.
    pub query: RangeQuery,
    /// Final-round sampling rate `sr ∈ (0, 1)`.
    pub sampling_rate: f64,
    /// Total ε across all rounds (each round spends `ε/rounds`).
    pub epsilon: f64,
    /// Total δ across all rounds.
    pub delta: f64,
    /// Number of progressive releases.
    pub rounds: u32,
}

/// One server-pushed progressive release (server → client). Only the
/// DP-released running estimate and public work counters cross the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSnapshotFrame {
    /// Position within the submitted stream (0 for a lone plan).
    pub index: u32,
    /// Round number (1-based).
    pub round: u32,
    /// Total rounds in the plan.
    pub rounds: u32,
    /// Fraction of the final sample this round used (`round/rounds`).
    pub sample_fraction: f64,
    /// The DP-released running estimate.
    pub value: f64,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
    /// Clusters scanned across providers up to this snapshot.
    pub clusters_scanned: u64,
}

/// The close of an online-plan stream (server → client): the total
/// charge and the final released value, plus the plan's phase timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineDoneFrame {
    /// Position within the submitted stream (0 for a lone plan).
    pub index: u32,
    /// ε charged for the whole plan (all rounds).
    pub eps: f64,
    /// δ charged for the whole plan.
    pub delta: f64,
    /// The final snapshot's released value, repeated for convenience.
    pub value: f64,
    /// Summary-phase time (max over rounds), microseconds.
    pub summary_us: u64,
    /// Allocation-phase time, microseconds.
    pub allocation_us: u64,
    /// Execution-phase time, microseconds.
    pub execution_us: u64,
    /// Release-phase time, microseconds.
    pub release_us: u64,
    /// Simulated network time, microseconds.
    pub network_us: u64,
}

/// One row of an ingest batch: dimension values plus the cell measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRow {
    /// Per-dimension values, schema order.
    pub values: Vec<i64>,
    /// The cell measure (1 for a raw tabular row).
    pub measure: u64,
}

/// One streaming-ingest batch (client → server): rows to append to
/// one provider of a live federation. The batch is atomic server-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRequest {
    /// The target provider (federation-local id).
    pub provider: u32,
    /// The rows to append.
    pub rows: Vec<WireRow>,
}

/// The server's ingest receipt (server → client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAckFrame {
    /// Rows appended (the whole batch, or zero).
    pub accepted: u64,
    /// The federation's data epoch after the ingest.
    pub epoch: u64,
    /// Whether the staleness policy triggered a full metadata recompute.
    pub refreshed: bool,
}

/// One explain request (client → server): what would the optimizer
/// decide about this plan? Nothing runs and no budget is charged.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// The plan to explain, complete with sampling rate and `(ε, δ)`.
    pub plan: QueryPlan,
}

/// The explanation of one plan (server → client).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainAnswerFrame {
    /// Position within the submitted stream (0 for a lone request).
    pub index: u32,
    /// The optimizer's structured decisions for the plan.
    pub explanation: PlanExplanation,
}

/// Every message of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opening (client → server).
    Hello(Hello),
    /// Handshake reply (server → client).
    HelloAck(HelloAck),
    /// A typed error (server → client).
    Error(ErrorFrame),
    /// Ledger inquiry (client → server; empty payload).
    BudgetRequest,
    /// Ledger report (server → client).
    BudgetStatus(BudgetStatus),
    /// One plan submission (client → server).
    Plan(PlanRequest),
    /// One plan answer (server → client).
    PlanAnswer(PlanAnswerFrame),
    /// One explain request (client → server).
    Explain(ExplainRequest),
    /// One explain answer (server → client).
    ExplainAnswer(ExplainAnswerFrame),
    /// One batch of fragments, in batch order (coordinator → shard),
    /// answered by one [`Frame::FragmentSummaries`].
    Fragment(Vec<FragmentSpec>),
    /// Each fragment's per-provider summaries, in local provider order,
    /// and its slowest summary time; fragments in batch order (shard →
    /// coordinator).
    FragmentSummaries(Vec<FragmentSummaries>),
    /// Each fragment's globally solved allocation slice, in local provider
    /// order; fragments in batch order (coordinator → shard), answered by
    /// one [`Frame::FragmentPartial`] per fragment.
    FragmentAllocation(Vec<Vec<u64>>),
    /// One fragment's mergeable partial; a batch's come in batch order
    /// (shard → coordinator). Only released values cross: raw estimates
    /// and smooth sensitivities stay on the shard.
    FragmentPartial(FragmentPartial),
    /// One MIN/MAX fragment (coordinator → shard).
    ExtremeFragment(ExtremeFragmentSpec),
    /// The shard-local MIN/MAX selection and the slowest provider's time
    /// (shard → coordinator).
    ExtremePartial((Value, Duration)),
    /// Ask for the shard's pruning metadata (coordinator → shard).
    ShardBoundsRequest,
    /// The shard's pruning metadata, one entry per local provider (shard →
    /// coordinator).
    ShardBounds(Vec<ProviderBounds>),
    /// Telemetry snapshot inquiry (client → server; empty payload).
    Metrics,
    /// The server's telemetry snapshot (server → client).
    MetricsAnswer(MetricsAnswerFrame),
    /// One progressive-plan submission (client → server).
    OnlinePlan(OnlinePlanRequest),
    /// One server-pushed progressive release (server → client).
    OnlineSnapshot(OnlineSnapshotFrame),
    /// The close of an online-plan stream (server → client).
    OnlineDone(OnlineDoneFrame),
    /// One streaming-ingest batch (client → server).
    Ingest(IngestRequest),
    /// The server's ingest receipt (server → client).
    IngestAck(IngestAckFrame),
}

/// Wire code of an [`EstimatorCalibration`] (`0` = EM, `1` = PPS).
pub fn calibration_code(calibration: EstimatorCalibration) -> u8 {
    match calibration {
        EstimatorCalibration::EmCalibrated => 0,
        EstimatorCalibration::PpsEq3 => 1,
    }
}

/// Inverse of [`calibration_code`].
pub fn calibration_from_code(code: u8) -> Result<EstimatorCalibration> {
    match code {
        0 => Ok(EstimatorCalibration::EmCalibrated),
        1 => Ok(EstimatorCalibration::PpsEq3),
        _ => Err(NetError::Malformed("unknown calibration code")),
    }
}

// ----------------------------------------------------------------- codec

/// A payload type's wire form, both directions side by side: `put`
/// appends it, `get` reads it back and refuses anything `put` could not
/// have written.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()>;
    fn get(data: &mut &[u8]) -> Result<Self>;
}

/// Fixed-width little-endian numbers.
macro_rules! wire_le {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
                buf.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }

            fn get(data: &mut &[u8]) -> Result<Self> {
                let mut bytes = [0; std::mem::size_of::<$ty>()];
                if data.len() < bytes.len() {
                    return Err(NetError::Malformed("payload truncated"));
                }
                data.copy_to_slice(&mut bytes);
                Ok(Self::from_le_bytes(bytes))
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64, i64, f64);

/// A dimension index travels as a `u32`.
impl Wire for usize {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        u32::try_from(*self)
            .map_err(|_| NetError::Malformed("dimension index exceeds u32"))?
            .put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        u32::get(data).map(|v| v as usize)
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        u8::from(*self).put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        match u8::get(data)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("bad boolean tag")),
        }
    }
}

/// A `u16` length, then that many UTF-8 bytes (at most [`MAX_STRING`]).
impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        if self.len() > MAX_STRING {
            return Err(NetError::Malformed("string exceeds wire cap"));
        }
        (self.len() as u16).put(buf)?;
        buf.extend_from_slice(self.as_bytes());
        Ok(())
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        let len = u16::get(data)? as usize;
        if len > MAX_STRING || !declared_len_fits(len, 1, data.remaining()) {
            return Err(NetError::Malformed("string length out of range"));
        }
        let (bytes, rest) = data.split_at(len);
        *data = rest;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Malformed("string is not utf-8"))
    }
}

/// A `0`/`1` tag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            Some(value) => {
                1u8.put(buf)?;
                value.put(buf)
            }
            None => 0u8.put(buf),
        }
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        match u8::get(data)? {
            0 => Ok(None),
            1 => T::get(data).map(Some),
            _ => Err(NetError::Malformed("bad option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.0.put(buf)?;
        self.1.put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        Ok((A::get(data)?, B::get(data)?))
    }
}

/// Writes a collection: the count is checked against the list's cap
/// before it is written, so no frame this build encodes can trip
/// [`get_list`]'s.
fn put_list<T: Wire>(buf: &mut Vec<u8>, list: &List, items: &[T]) -> Result<()> {
    let &List(width, cap, _, too_large) = list;
    if items.len() > cap {
        return Err(NetError::Malformed(too_large));
    }
    match width {
        U16 => (items.len() as u16).put(buf)?,
        _ => (items.len() as u32).put(buf)?,
    }
    items.iter().try_for_each(|item| item.put(buf))
}

/// Reads a collection. The declared count is capped and checked against
/// the bytes remaining *before* anything is reserved or read, so a hostile
/// prefix can neither over-allocate nor drive the item loop past the
/// input: any count that passes is bounded by the payload itself.
fn get_list<T: Wire>(data: &mut &[u8], list: &List) -> Result<Vec<T>> {
    let &List(width, cap, min_item_bytes, too_large) = list;
    let n = match width {
        U16 => u16::get(data)? as usize,
        _ => u32::get(data)? as usize,
    };
    if n > cap || !declared_len_fits(n, min_item_bytes, data.remaining()) {
        return Err(NetError::Malformed(too_large));
    }
    debug_assert!(
        n * min_item_bytes <= data.remaining(),
        "a list reservation must be backed by bytes present"
    );
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(data)?);
    }
    Ok(items)
}

/// One-byte codes: one row per enum, its variants and their codes.
macro_rules! wire_codes {
    ($($ty:ident $unknown:literal { $($variant:ident = $code:literal),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
                let code: u8 = match self {
                    $($ty::$variant => $code,)*
                };
                code.put(buf)
            }

            fn get(data: &mut &[u8]) -> Result<Self> {
                match u8::get(data)? {
                    $($code => Ok($ty::$variant),)*
                    _ => Err(NetError::Malformed($unknown)),
                }
            }
        }
    )*};
}

wire_codes! {
    Aggregate "unknown aggregate" { Count = 0, Sum = 1 }
    DerivedStatistic "unknown derived-statistic code" { Average = 0, Variance = 1, StdDev = 2 }
    Extreme "unknown extreme code" { Min = 0, Max = 1 }
    ErrorCode "unknown error code" {
        BudgetExhausted = 1, InvalidQuery = 2, InvalidSamplingRate = 3, BadRequest = 4,
        Internal = 5, UnsupportedVersion = 6, ShardUnavailable = 7
    }
}

/// Plain structs: one row each, fields in wire order. `field: LIST`
/// marks a collection, counted and capped by its `lists` row.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident $(: $list:ident)?),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
                $(wire_field!(put buf, self.$field $(, $list)?);)*
                Ok(())
            }

            fn get(data: &mut &[u8]) -> Result<Self> {
                Ok(Self { $($field: wire_field!(get data $(, $list)?),)* })
            }
        }
    )*};
}

macro_rules! wire_field {
    (put $buf:ident, $value:expr) => {
        $value.put($buf)?
    };
    (put $buf:ident, $value:expr, $list:ident) => {
        put_list($buf, &$list, &$value)?
    };
    (get $data:ident) => {
        Wire::get($data)?
    };
    (get $data:ident, $list:ident) => {
        get_list($data, &$list)?
    };
}

wire_struct! {
    Hello { analyst }
    WireDimension { name, min, max }
    HelloAck { dimensions: DIMENSIONS, n_providers, epsilon, delta, calibration, session_budget, max_version }
    ErrorFrame { index, code, message }
    BudgetStatus { limited, total_eps, total_delta, spent_eps, spent_delta, queries_answered }
    WireGroup { key, value, ci_halfwidth }
    PlanRequest { plan }
    PlanAnswerFrame { index, eps, delta, result, summary_us, allocation_us, execution_us, release_us, network_us }
    ExplainRequest { plan }
    ExplainAnswerFrame { index, explanation }
    PlanExplanation { plan_kind, n_providers, optimizer, eps, delta, sub_queries: SUBQUERIES }
    OptimizerConfig { prune_providers, dedup_subqueries, reorder_subqueries }
    SubQueryExplanation { label, pruned_providers: PRUNED, estimated_cost, reuses, order }
    FragmentSpec { sampling_rate, budget, occurrence, query }
    QueryBudget { eps_o, eps_s, eps_e, delta }
    FragmentPartial { rows: PARTIAL_ROWS, execution }
    PartialRow { released, variance, approximated, clusters_scanned, n_covering }
    ExtremeFragmentSpec { dim, extreme, epsilon, occurrence }
    MetricsAnswerFrame { metrics: METRICS }
    WireMetric { name, value }
    OnlinePlanRequest { sampling_rate, epsilon, delta, rounds, query }
    OnlineSnapshotFrame { index, round, rounds, sample_fraction, value, ci_halfwidth, clusters_scanned }
    OnlineDoneFrame { index, eps, delta, value, summary_us, allocation_us, execution_us, release_us, network_us }
    IngestRequest { provider, rows: INGEST_ROWS }
    WireRow { values: ROW_VALUES, measure }
    IngestAckFrame { accepted, epoch, refreshed }
}

/// A duration travels as whole microseconds.
impl Wire for Duration {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        (self.as_micros() as u64).put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        u64::get(data).map(Duration::from_micros)
    }
}

/// One fragment's step-2 summaries: each local provider's two noisy
/// values, its id being its place in the list, then the slowest
/// provider's summary time.
impl Wire for FragmentSummaries {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        let (summaries, time) = self;
        let values: Vec<(f64, f64)> = summaries
            .iter()
            .map(|s| (s.noisy_n_q, s.noisy_avg_r))
            .collect();
        put_list(buf, &SUMMARIES, &values)?;
        time.put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        let values: Vec<(f64, f64)> = get_list(data, &SUMMARIES)?;
        let summaries = values
            .into_iter()
            .enumerate()
            .map(|(provider, (noisy_n_q, noisy_avg_r))| ProviderSummary {
                provider,
                noisy_n_q,
                noisy_avg_r,
            })
            .collect();
        Ok((summaries, Wire::get(data)?))
    }
}

/// One fragment's allocation slice: each local provider's sample size.
impl Wire for Vec<u64> {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        put_list(buf, &ALLOCATIONS, self)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        get_list(data, &ALLOCATIONS)
    }
}

/// One provider's public pruning bounds: per dimension its `(min, max)`,
/// or none, then its cluster count.
impl Wire for ProviderBounds {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        put_list(buf, &BOUND_DIMS, self.dims())?;
        (self.n_clusters() as u64).put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        let dims = get_list(data, &BOUND_DIMS)?;
        Ok(ProviderBounds::new(dims, u64::get(data)? as usize))
    }
}

/// A range decodes only if it is non-empty.
impl Wire for Range {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        (self.dim, (self.lo, self.hi)).put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        let (dim, (lo, hi)) = Wire::get(data)?;
        Range::new(dim, lo, hi).map_err(|_| NetError::Malformed("empty range"))
    }
}

/// A query decodes only if its ranges form a valid set.
impl Wire for RangeQuery {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.aggregate().put(buf)?;
        put_list(buf, &RANGES, self.ranges())
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        let aggregate = Aggregate::get(data)?;
        RangeQuery::new(aggregate, get_list(data, &RANGES)?)
            .map_err(|_| NetError::Malformed("invalid range set"))
    }
}

/// A shape tag and the shape's own fields, then — for every shape that
/// samples — the rate, the spend and the query.
impl Wire for QueryPlan {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        let (sampling_rate, epsilon, delta, query) = match self {
            QueryPlan::Scalar {
                query,
                sampling_rate,
                epsilon,
                delta,
            } => {
                0u8.put(buf)?;
                (*sampling_rate, *epsilon, *delta, query)
            }
            QueryPlan::Derived {
                query,
                statistic,
                sampling_rate,
                epsilon,
                delta,
            } => {
                (1u8, *statistic).put(buf)?;
                (*sampling_rate, *epsilon, *delta, query)
            }
            QueryPlan::GroupBy {
                base,
                statistic,
                group_dim,
                threshold,
                sampling_rate,
                epsilon,
                delta,
            } => {
                (2u8, (*group_dim, (*statistic, *threshold))).put(buf)?;
                (*sampling_rate, *epsilon, *delta, base)
            }
            QueryPlan::Extreme {
                dim,
                extreme,
                epsilon,
            } => return (3u8, (*dim, (*extreme, *epsilon))).put(buf),
            // Online plans are never smuggled through the request/response
            // Plan frames: their streaming answer shape needs the dedicated
            // conversation (OnlinePlan ⇒ OnlineSnapshot* ⇒ OnlineDone).
            QueryPlan::Online { .. } => {
                return Err(NetError::Malformed("online plans use the OnlinePlan frame"))
            }
        };
        ((sampling_rate, epsilon), delta).put(buf)?;
        query.put(buf)
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        let sampled =
            |data: &mut &[u8]| -> Result<((f64, f64), (f64, RangeQuery))> { Wire::get(data) };
        Ok(match u8::get(data)? {
            0 => {
                let ((sampling_rate, epsilon), (delta, query)) = sampled(data)?;
                QueryPlan::Scalar {
                    query,
                    sampling_rate,
                    epsilon,
                    delta,
                }
            }
            1 => {
                let statistic = Wire::get(data)?;
                let ((sampling_rate, epsilon), (delta, query)) = sampled(data)?;
                QueryPlan::Derived {
                    query,
                    statistic,
                    sampling_rate,
                    epsilon,
                    delta,
                }
            }
            2 => {
                let (group_dim, (statistic, threshold)) = Wire::get(data)?;
                let ((sampling_rate, epsilon), (delta, base)) = sampled(data)?;
                QueryPlan::GroupBy {
                    base,
                    statistic,
                    group_dim,
                    threshold,
                    sampling_rate,
                    epsilon,
                    delta,
                }
            }
            3 => {
                let (dim, (extreme, epsilon)) = Wire::get(data)?;
                QueryPlan::Extreme {
                    dim,
                    extreme,
                    epsilon,
                }
            }
            _ => return Err(NetError::Malformed("unknown plan tag")),
        })
    }
}

/// A shape tag, then the shape's fields.
impl Wire for WirePlanResult {
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            WirePlanResult::Value {
                value,
                ci_halfwidth,
            } => (0u8, (*value, *ci_halfwidth)).put(buf),
            WirePlanResult::Groups { groups, suppressed } => {
                1u8.put(buf)?;
                put_list(buf, &GROUPS, groups)?;
                suppressed.put(buf)
            }
            WirePlanResult::Extreme { value } => (2u8, *value).put(buf),
        }
    }

    fn get(data: &mut &[u8]) -> Result<Self> {
        Ok(match u8::get(data)? {
            0 => {
                let (value, ci_halfwidth) = Wire::get(data)?;
                WirePlanResult::Value {
                    value,
                    ci_halfwidth,
                }
            }
            1 => WirePlanResult::Groups {
                groups: get_list(data, &GROUPS)?,
                suppressed: Wire::get(data)?,
            },
            2 => WirePlanResult::Extreme {
                value: Wire::get(data)?,
            },
            _ => return Err(NetError::Malformed("unknown plan result tag")),
        })
    }
}

/// The frame table: one row per [`Frame`] variant — its kind constant
/// and byte, then `(T)` for a payload written through `T`'s [`Wire`]
/// impl, `[LIST]` for a payload that is one list, or nothing for an
/// empty payload. Both directions derive from it; a byte not in it is
/// [`NetError::UnknownKind`] (the module docs list the retired ones).
macro_rules! frames {
    ($($name:ident = $kind:literal => $variant:ident $(($ty:ty))? $([$list:ident])?,)*) => {
        $(const $name: u8 = $kind;)*

        /// Every kind byte in use, ascending.
        #[cfg(test)]
        const KINDS: &[u8] = &[$($kind),*];

        /// Appends `frame`'s payload, returning its kind byte.
        fn encode_payload(frame: &Frame, buf: &mut Vec<u8>) -> Result<u8> {
            Ok(match frame {
                $(frame_codec!(pattern $variant body $(($ty))? $([$list])?) => {
                    frame_codec!(put buf, body $(($ty))? $([$list])?);
                    $name
                })*
            })
        }

        fn decode_payload(kind: u8, mut data: &[u8]) -> Result<Frame> {
            let frame = match kind {
                $($name => frame_codec!(get data, $variant $(($ty))? $([$list])?),)*
                other => return Err(NetError::UnknownKind(other)),
            };
            if data.has_remaining() {
                return Err(NetError::Malformed("trailing bytes in frame"));
            }
            Ok(frame)
        }
    };
}

macro_rules! frame_codec {
    (pattern $variant:ident $body:ident) => {
        Frame::$variant
    };
    (pattern $variant:ident $body:ident $payload:tt) => {
        Frame::$variant($body)
    };
    (put $buf:ident, $body:ident) => {};
    (put $buf:ident, $body:ident ($ty:ty)) => {
        $body.put($buf)?
    };
    (put $buf:ident, $body:ident [$list:ident]) => {
        put_list($buf, &$list, $body)?
    };
    (get $data:ident, $variant:ident) => {
        Frame::$variant
    };
    (get $data:ident, $variant:ident ($ty:ty)) => {
        Frame::$variant(<$ty>::get(&mut $data)?)
    };
    (get $data:ident, $variant:ident [$list:ident]) => {
        Frame::$variant(get_list(&mut $data, &$list)?)
    };
}

#[rustfmt::skip]
frames! {
    KIND_HELLO = 1                 => Hello(Hello),
    KIND_HELLO_ACK = 2             => HelloAck(HelloAck),
    KIND_ERROR = 6                 => Error(ErrorFrame),
    KIND_BUDGET_REQUEST = 7        => BudgetRequest,
    KIND_BUDGET_STATUS = 8         => BudgetStatus(BudgetStatus),
    KIND_PLAN = 9                  => Plan(PlanRequest),
    KIND_PLAN_ANSWER = 10          => PlanAnswer(PlanAnswerFrame),
    KIND_EXPLAIN = 11              => Explain(ExplainRequest),
    KIND_EXPLAIN_ANSWER = 12       => ExplainAnswer(ExplainAnswerFrame),
    KIND_FRAGMENT = 13             => Fragment[FRAGMENTS],
    KIND_FRAGMENT_SUMMARIES = 16   => FragmentSummaries[SUMMARY_SETS],
    KIND_FRAGMENT_ALLOCATION = 17  => FragmentAllocation[ALLOCATION_SETS],
    KIND_FRAGMENT_PARTIAL = 20     => FragmentPartial(FragmentPartial),
    KIND_EXTREME_FRAGMENT = 23     => ExtremeFragment(ExtremeFragmentSpec),
    KIND_EXTREME_PARTIAL = 24      => ExtremePartial((Value, Duration)),
    KIND_SHARD_BOUNDS_REQUEST = 25 => ShardBoundsRequest,
    KIND_SHARD_BOUNDS = 26         => ShardBounds[BOUNDS],
    KIND_METRICS = 27              => Metrics,
    KIND_METRICS_ANSWER = 28       => MetricsAnswer(MetricsAnswerFrame),
    KIND_ONLINE_PLAN = 29          => OnlinePlan(OnlinePlanRequest),
    KIND_ONLINE_SNAPSHOT = 30      => OnlineSnapshot(OnlineSnapshotFrame),
    KIND_ONLINE_DONE = 31          => OnlineDone(OnlineDoneFrame),
    KIND_INGEST = 32               => Ingest(IngestRequest),
    KIND_INGEST_ACK = 33           => IngestAck(IngestAckFrame),
}

/// Encodes one frame (header + payload).
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    out.put_u32_le(MAGIC);
    out.put_u16_le(VERSION);
    // The kind and the payload length are patched in once known.
    out.resize(HEADER_BYTES, 0);
    let kind = encode_payload(frame, &mut out)?;
    out[6] = kind;
    let len = out.len() - HEADER_BYTES;
    if len > MAX_PAYLOAD as usize {
        return Err(NetError::Malformed("payload exceeds frame cap"));
    }
    out[7..HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(out)
}

// ------------------------------------------------------------------- io

fn eof_to_disconnect(e: std::io::Error) -> NetError {
    match e.kind() {
        // A clean close, or a peer that closed with bytes still unread
        // (the OS then resets instead of FIN-closing): both mean "the
        // other side is gone", which callers handle as one condition.
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted => NetError::Disconnected,
        _ => NetError::Io(e),
    }
}

/// Writes one frame, flushing it.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<()> {
    let bytes = encode_frame(frame)?;
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame from a socket (or any [`Read`]).
///
/// A clean connection close surfaces as [`NetError::Disconnected`]; a
/// header with a bad magic, a version other than [`VERSION`], or a payload
/// above [`MAX_PAYLOAD`] fails *before* any payload is read.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame> {
    let mut header = [0u8; HEADER_BYTES];
    reader.read_exact(&mut header).map_err(eof_to_disconnect)?;
    let mut h: &[u8] = &header;
    if h.get_u32_le() != MAGIC {
        return Err(NetError::Malformed("bad frame magic"));
    }
    let version = h.get_u16_le();
    if version != VERSION {
        return Err(NetError::UnsupportedVersion {
            requested: version,
            supported: VERSION,
        });
    }
    let kind = h.get_u8();
    let len = h.get_u32_le();
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge {
            declared: len,
            max: MAX_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(eof_to_disconnect)?;
    decode_payload(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    fn spec(query: RangeQuery, occurrence: u64) -> FragmentSpec {
        FragmentSpec {
            query,
            sampling_rate: 0.2,
            budget: QueryBudget {
                eps_o: 0.3,
                eps_s: 0.3,
                eps_e: 0.4,
                delta: 1e-3,
            },
            occurrence,
        }
    }

    fn sample_answer() -> Frame {
        Frame::PlanAnswer(PlanAnswerFrame {
            index: 3,
            eps: 1.0,
            delta: 1e-3,
            result: WirePlanResult::Value {
                value: 123.5,
                ci_halfwidth: Some(4.25),
            },
            summary_us: 100,
            allocation_us: 20,
            execution_us: 900,
            release_us: 5,
            network_us: 100_000,
        })
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                analyst: "alice".into(),
            }),
            Frame::HelloAck(HelloAck {
                dimensions: vec![
                    WireDimension {
                        name: "age".into(),
                        min: 17,
                        max: 90,
                    },
                    WireDimension {
                        name: "hours".into(),
                        min: 1,
                        max: 99,
                    },
                ],
                n_providers: 4,
                epsilon: 1.0,
                delta: 1e-3,
                calibration: 0,
                session_budget: Some((10.0, 1e-2)),
                max_version: VERSION,
            }),
            Frame::Plan(PlanRequest {
                plan: QueryPlan::Scalar {
                    query: query(10, 60),
                    sampling_rate: 0.2,
                    epsilon: 1.0,
                    delta: 1e-3,
                },
            }),
            sample_answer(),
            Frame::Error(ErrorFrame {
                index: 2,
                code: ErrorCode::BudgetExhausted,
                message: "requested (ε=1) but only (ε=0.2) remains".into(),
            }),
            Frame::BudgetRequest,
            Frame::BudgetStatus(BudgetStatus {
                limited: true,
                total_eps: 10.0,
                total_delta: 1e-2,
                spent_eps: 3.0,
                spent_delta: 3e-3,
                queries_answered: 3,
            }),
            Frame::Plan(PlanRequest {
                plan: QueryPlan::GroupBy {
                    base: query(10, 60),
                    statistic: Some(DerivedStatistic::Average),
                    group_dim: 3,
                    threshold: 12.5,
                    sampling_rate: 0.2,
                    epsilon: 4.0,
                    delta: 1e-3,
                },
            }),
            Frame::Plan(PlanRequest {
                plan: QueryPlan::Extreme {
                    dim: 1,
                    extreme: Extreme::Max,
                    epsilon: 0.5,
                },
            }),
            Frame::PlanAnswer(PlanAnswerFrame {
                index: 2,
                eps: 4.0,
                delta: 1e-3,
                result: WirePlanResult::Groups {
                    groups: vec![
                        WireGroup {
                            key: 0,
                            value: 812.5,
                            ci_halfwidth: Some(3.25),
                        },
                        WireGroup {
                            key: 2,
                            value: 41.0,
                            ci_halfwidth: None,
                        },
                    ],
                    suppressed: 3,
                },
                summary_us: 120,
                allocation_us: 30,
                execution_us: 1100,
                release_us: 9,
                network_us: 100_500,
            }),
            Frame::Explain(ExplainRequest {
                plan: QueryPlan::Derived {
                    query: query(10, 60),
                    statistic: DerivedStatistic::Variance,
                    sampling_rate: 0.2,
                    epsilon: 3.0,
                    delta: 1e-3,
                },
            }),
            Frame::ExplainAnswer(ExplainAnswerFrame {
                index: 4,
                explanation: sample_explanation(),
            }),
            Frame::Fragment(vec![spec(query(10, 60), 7)]),
            Frame::FragmentSummaries(vec![(
                vec![
                    ProviderSummary {
                        provider: 0,
                        noisy_n_q: 812.5,
                        noisy_avg_r: 0.41,
                    },
                    ProviderSummary {
                        provider: 1,
                        noisy_n_q: 17.25,
                        noisy_avg_r: 0.03,
                    },
                ],
                Duration::from_micros(130),
            )]),
            Frame::FragmentAllocation(vec![vec![3, 9]]),
            Frame::FragmentPartial(FragmentPartial {
                rows: vec![
                    PartialRow {
                        released: 812.5,
                        variance: Some(14.5),
                        approximated: true,
                        clusters_scanned: 9,
                        n_covering: 40,
                    },
                    PartialRow {
                        released: -3.25,
                        variance: None,
                        approximated: false,
                        clusters_scanned: 2,
                        n_covering: 2,
                    },
                ],
                execution: Duration::from_micros(1400),
            }),
            Frame::ExtremeFragment(ExtremeFragmentSpec {
                dim: 1,
                extreme: Extreme::Max,
                epsilon: 0.5,
                occurrence: 2,
            }),
            Frame::ExtremePartial((97, Duration::from_micros(300))),
            Frame::ShardBoundsRequest,
            Frame::ShardBounds(vec![
                ProviderBounds::new(vec![Some((0, 249)), None], 12),
                ProviderBounds::new(vec![Some((250, 499)), Some((0, 4))], 12),
            ]),
            Frame::Metrics,
            Frame::MetricsAnswer(MetricsAnswerFrame {
                metrics: vec![
                    WireMetric {
                        name: "fedaqp_server_connections_total".into(),
                        value: 3.0,
                    },
                    WireMetric {
                        name: "fedaqp_server_xi_spent.alice".into(),
                        value: 1.25,
                    },
                ],
            }),
            Frame::OnlinePlan(OnlinePlanRequest {
                query: query(10, 60),
                sampling_rate: 0.3,
                epsilon: 4.0,
                delta: 1e-3,
                rounds: 5,
            }),
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index: 1,
                round: 2,
                rounds: 5,
                sample_fraction: 0.4,
                value: 812.5,
                ci_halfwidth: Some(3.25),
                clusters_scanned: 17,
            }),
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index: 0,
                round: 5,
                rounds: 5,
                sample_fraction: 1.0,
                value: -41.0,
                ci_halfwidth: None,
                clusters_scanned: 90,
            }),
            Frame::OnlineDone(OnlineDoneFrame {
                index: 1,
                eps: 4.0,
                delta: 1e-3,
                value: 812.5,
                summary_us: 120,
                allocation_us: 30,
                execution_us: 1100,
                release_us: 9,
                network_us: 100_500,
            }),
            Frame::Ingest(IngestRequest {
                provider: 2,
                rows: vec![
                    WireRow {
                        values: vec![17, -4],
                        measure: 1,
                    },
                    WireRow {
                        values: vec![90, 3],
                        measure: 12,
                    },
                ],
            }),
            Frame::IngestAck(IngestAckFrame {
                accepted: 2,
                epoch: 7,
                refreshed: true,
            }),
        ]
    }

    fn sample_explanation() -> PlanExplanation {
        PlanExplanation {
            plan_kind: "derived".into(),
            n_providers: 4,
            optimizer: OptimizerConfig {
                prune_providers: true,
                dedup_subqueries: true,
                reorder_subqueries: false,
            },
            eps: 3.0,
            delta: 1e-3,
            sub_queries: vec![
                SubQueryExplanation {
                    label: "count".into(),
                    pruned_providers: vec![1, 3],
                    estimated_cost: 12,
                    reuses: None,
                    order: 0,
                },
                SubQueryExplanation {
                    label: "second-moment".into(),
                    pruned_providers: vec![],
                    estimated_cost: 12,
                    reuses: Some(0),
                    order: 1,
                },
            ],
        }
    }

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame).unwrap();
        let mut slice: &[u8] = &bytes;
        let decoded = read_frame(&mut slice).unwrap();
        assert!(!slice.has_remaining(), "frame left bytes unread");
        decoded
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in all_frames() {
            assert_eq!(round_trip(&frame), frame);
        }
    }

    /// Every frame of `all_frames()`, in order, exactly as the six-version
    /// codec encoded it at v6 (one hex line per frame, generated at the
    /// commit before the version ladder was deleted). A kind byte, a field
    /// order, a width or the header's `06 00` moving fails here.
    #[test]
    fn surviving_frames_keep_their_v6_bytes() {
        let pinned: Vec<&str> = include_str!("wire_v6_frames.hex").lines().collect();
        let frames = all_frames();
        assert_eq!(frames.len(), pinned.len());
        for (frame, want) in frames.iter().zip(pinned) {
            let bytes = encode_frame(frame).unwrap();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{frame:?} moved on the wire");
        }
    }

    /// A batch too wide for one frame splits into runs, in order and
    /// whole, whose every frame fits the cap; an ordinary batch is one run.
    #[test]
    fn fragment_batches_split_into_runs_whose_frames_fit() {
        let fits = |frame: Frame| {
            let bytes = encode_frame(&frame).unwrap();
            assert!(bytes.len() <= HEADER_BYTES + MAX_PAYLOAD as usize);
            assert_eq!(read_frame(&mut &bytes[..]).unwrap(), frame);
        };
        let narrow: Vec<_> = (0..40).map(|i| spec(query(10, 60), i)).collect();
        let wide_query = RangeQuery::new(
            Aggregate::Count,
            (0..MAX_RANGES)
                .map(|d| Range::new(d, 0, 9).unwrap())
                .collect(),
        )
        .unwrap();
        let wide: Vec<_> = (0..120).map(|i| spec(wide_query.clone(), i)).collect();
        assert_eq!(fragment_runs(&narrow, 4), [narrow.len()]);
        // Summary sets of the widest shard, and queries of the most ranges.
        for (specs, n_providers) in [(&narrow, MAX_ALLOCATIONS), (&wide, 4)] {
            let lengths = fragment_runs(specs, n_providers);
            assert!(lengths.len() > 1);
            assert_eq!(lengths.iter().sum::<usize>(), specs.len());
            let mut rest = &specs[..];
            for len in lengths {
                let (run, later) = rest.split_at(len);
                rest = later;
                fits(Frame::Fragment(run.to_vec()));
                let summaries = (0..n_providers)
                    .map(|provider| ProviderSummary {
                        provider,
                        noisy_n_q: 1.0,
                        noisy_avg_r: 0.5,
                    })
                    .collect();
                let set = (summaries, Duration::ZERO);
                fits(Frame::FragmentSummaries(vec![set; run.len()]));
                let allocation = vec![1; n_providers];
                fits(Frame::FragmentAllocation(vec![allocation; run.len()]));
            }
        }
    }

    #[test]
    fn none_ci_and_unlimited_budget_round_trip() {
        let mut answer = sample_answer();
        if let Frame::PlanAnswer(a) = &mut answer {
            a.result = WirePlanResult::Value {
                value: 123.5,
                ci_halfwidth: None,
            };
        }
        assert_eq!(round_trip(&answer), answer);
        let ack = Frame::HelloAck(HelloAck {
            dimensions: vec![],
            n_providers: 1,
            epsilon: 0.5,
            delta: 0.0,
            calibration: 1,
            session_budget: None,
            max_version: VERSION,
        });
        assert_eq!(round_trip(&ack), ack);
        let status = Frame::BudgetStatus(BudgetStatus {
            limited: false,
            total_eps: f64::INFINITY,
            total_delta: 1.0,
            spent_eps: 0.0,
            spent_delta: 0.0,
            queries_answered: 9,
        });
        assert_eq!(round_trip(&status), status);
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame).unwrap();
            for cut in 0..bytes.len() {
                let mut slice = &bytes[..cut];
                assert!(
                    read_frame(&mut slice).is_err(),
                    "prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in all_frames() {
            // Grow the payload by one byte and patch the declared length:
            // the decoder must reject the leftover byte, not ignore it.
            let mut bytes = encode_frame(&frame).unwrap();
            bytes.push(0);
            let len = (bytes.len() - HEADER_BYTES) as u32;
            bytes[7..11].copy_from_slice(&len.to_le_bytes());
            let mut slice: &[u8] = &bytes;
            assert!(matches!(
                read_frame(&mut slice),
                Err(NetError::Malformed("trailing bytes in frame"))
            ));
        }
    }

    #[test]
    fn header_validation() {
        let good = encode_frame(&Frame::BudgetRequest).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad_magic[..]),
            Err(NetError::Malformed("bad frame magic"))
        ));

        // Retired and future versions alike fail on the header alone: the
        // 64-byte payload it declares is absent, so reading it first would
        // surface as `Disconnected` instead.
        for version in [1u16, 2, 3, 4, 5, 7, 99] {
            let mut bad_version = good[..HEADER_BYTES].to_vec();
            bad_version[4..6].copy_from_slice(&version.to_le_bytes());
            bad_version[7..11].copy_from_slice(&64u32.to_le_bytes());
            match read_frame(&mut &bad_version[..]) {
                Err(NetError::UnsupportedVersion {
                    requested,
                    supported: 6,
                }) => assert_eq!(requested, version),
                other => panic!("v{version}: {other:?}"),
            }
        }

        // The retired pre-plan kinds are holes, not panics: a well-formed
        // old `Query` payload under kind 3, 4 or 5 is as unknown a kind as
        // one never assigned.
        let mut old_query = Vec::new();
        old_query.put_f64_le(0.2);
        query(10, 60).put(&mut old_query).unwrap();
        for kind in [3u8, 4, 5, 200] {
            let mut bytes = good[..HEADER_BYTES].to_vec();
            bytes[6] = kind;
            bytes[7..11].copy_from_slice(&(old_query.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&old_query);
            match read_frame(&mut &bytes[..]) {
                Err(NetError::UnknownKind(k)) => assert_eq!(k, kind),
                other => panic!("kind {kind}: {other:?}"),
            }
        }

        let mut oversized = good;
        oversized[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &oversized[..]),
            Err(NetError::FrameTooLarge { .. })
        ));

        assert!(matches!(
            read_frame(&mut &b""[..]),
            Err(NetError::Disconnected)
        ));
    }

    /// Retired, never reused: every byte below the highest kind in use
    /// that the frame table does not name — the retired holes the module
    /// docs list among them — decodes to `UnknownKind`, whatever follows.
    #[test]
    fn every_unassigned_kind_below_the_highest_is_unknown() {
        let highest = *KINDS.last().unwrap();
        assert!(KINDS.windows(2).all(|pair| pair[0] < pair[1]));
        let holes: Vec<u8> = (1..highest).filter(|k| !KINDS.contains(k)).collect();
        assert_eq!(holes, [3, 4, 5, 14, 15, 18, 19, 21, 22]);
        for kind in holes.into_iter().chain([0]) {
            for payload in [&[][..], &[0; 16][..]] {
                match decode_payload(kind, payload) {
                    Err(NetError::UnknownKind(k)) => assert_eq!(k, kind),
                    other => panic!("kind {kind}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn absurd_declared_counts_are_rejected() {
        // A scalar plan's one-range query claiming u16::MAX ranges: the
        // count sits after the plan tag, three floats and the aggregate.
        let mut bytes = encode_frame(&all_frames()[2]).unwrap();
        let at = HEADER_BYTES + 1 + 3 * 8 + 1;
        bytes[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared range count too large"))
        ));

        // An allocation slice claiming u32::MAX entries.
        let mut bytes = encode_frame(&Frame::FragmentAllocation(vec![vec![]])).unwrap();
        bytes[HEADER_BYTES + 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared allocation count too large"))
        ));
    }

    #[test]
    fn rejects_bad_query_payloads() {
        // A scalar plan's header, then the query under test.
        let scalar = || {
            let mut bytes = Vec::new();
            bytes.put_u8(0);
            bytes.put_f64_le(0.2);
            bytes.put_f64_le(1.0);
            bytes.put_f64_le(1e-3);
            bytes
        };

        // lo > hi.
        let mut bytes = scalar();
        bytes.put_u8(0);
        bytes.put_u16_le(1);
        bytes.put_u32_le(0);
        bytes.put_i64_le(10);
        bytes.put_i64_le(5);
        assert!(decode_payload(KIND_PLAN, &bytes).is_err());

        // Duplicate dimension.
        let mut bytes = scalar();
        bytes.put_u8(0);
        bytes.put_u16_le(2);
        for _ in 0..2 {
            bytes.put_u32_le(3);
            bytes.put_i64_le(0);
            bytes.put_i64_le(5);
        }
        assert!(decode_payload(KIND_PLAN, &bytes).is_err());

        // Unknown aggregate.
        let mut bytes = scalar();
        bytes.put_u8(9);
        bytes.put_u16_le(0);
        assert!(decode_payload(KIND_PLAN, &bytes).is_err());
    }

    #[test]
    fn strings_are_capped_and_utf8_checked() {
        let long = "x".repeat(MAX_STRING + 1);
        assert!(encode_frame(&Frame::Hello(Hello { analyst: long })).is_err());

        let mut bytes = Vec::new();
        bytes.put_u16_le(2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_payload(KIND_HELLO, &bytes),
            Err(NetError::Malformed("string is not utf-8"))
        ));
    }

    #[test]
    fn online_plans_never_ride_the_plan_frame() {
        // The generic Plan/Explain frames refuse QueryPlan::Online — its
        // streaming answer needs the dedicated push conversation.
        let plan = QueryPlan::Online {
            query: query(10, 60),
            sampling_rate: 0.3,
            epsilon: 4.0,
            delta: 1e-3,
            rounds: 5,
        };
        for frame in [
            Frame::Plan(PlanRequest { plan: plan.clone() }),
            Frame::Explain(ExplainRequest { plan }),
        ] {
            assert!(matches!(
                encode_frame(&frame),
                Err(NetError::Malformed("online plans use the OnlinePlan frame"))
            ));
        }
    }

    #[test]
    fn absurd_ingest_counts_are_rejected() {
        // An ingest claiming u32::MAX rows over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_INGEST);
        bytes.put_u32_le(4 + 4 + 8);
        bytes.put_u32_le(0); // provider
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared ingest batch too large"))
        ));

        // One row claiming u16::MAX values over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_INGEST);
        bytes.put_u32_le(4 + 4 + 2 + 8);
        bytes.put_u32_le(0); // provider
        bytes.put_u32_le(1);
        bytes.put_u16_le(u16::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared ingest row too large"))
        ));
    }

    #[test]
    fn absurd_metric_counts_are_rejected() {
        // A metrics answer claiming u32::MAX samples over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_METRICS_ANSWER);
        bytes.put_u32_le(4 + 8);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared metric count too large"))
        ));
    }

    #[test]
    fn absurd_fragment_counts_are_rejected() {
        // A partial claiming u32::MAX rows over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_FRAGMENT_PARTIAL);
        bytes.put_u32_le(4 + 8);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared partial row count too large"))
        ));

        // Shard bounds claiming u32::MAX providers.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_SHARD_BOUNDS);
        bytes.put_u32_le(4 + 8);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared bounds count too large"))
        ));
    }

    #[test]
    fn absurd_subquery_counts_are_rejected() {
        // An explain answer claiming u32::MAX sub-queries over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_EXPLAIN_ANSWER);
        bytes.put_u32_le(4 + 2 + 8 + 3 + 8 + 8 + 4);
        bytes.put_u32_le(0); // index
        bytes.put_u16_le(0); // plan kind: ""
        bytes.put_u64_le(4); // n_providers
        bytes.put_u8(1);
        bytes.put_u8(1);
        bytes.put_u8(1);
        bytes.put_f64_le(1.0); // eps
        bytes.put_f64_le(0.0); // delta
        bytes.put_u32_le(u32::MAX);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared sub-query count too large"))
        ));
    }

    #[test]
    fn absurd_group_counts_are_rejected() {
        // A plan answer claiming u32::MAX groups over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_PLAN_ANSWER);
        bytes.put_u32_le(4 + 8 + 8 + 1 + 4 + 8);
        bytes.put_u32_le(0); // index
        bytes.put_f64_le(1.0); // eps
        bytes.put_f64_le(0.0); // delta
        bytes.put_u8(1); // groups tag
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared group count too large"))
        ));
    }

    #[test]
    fn calibration_codes_round_trip() {
        for cal in [
            EstimatorCalibration::EmCalibrated,
            EstimatorCalibration::PpsEq3,
        ] {
            assert_eq!(calibration_from_code(calibration_code(cal)).unwrap(), cal);
        }
        assert!(calibration_from_code(9).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Lowercase ASCII strings of up to 24 bytes (the vendored proptest
    /// shim has no regex strategies).
    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(97u8..123, 0..24)
            .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
    }

    /// The five phase timings of an answer frame.
    fn arb_timings() -> impl Strategy<Value = (u64, u64, u64, u64, u64)> {
        let t = any::<u64>;
        (t(), t(), t(), t(), t())
    }

    fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
        (any::<bool>(), 0.0f64..1e6).prop_map(|(some, v)| some.then_some(v))
    }

    /// A valid range query and a sampling rate.
    fn arb_query() -> impl Strategy<Value = (RangeQuery, f64)> {
        (
            prop_oneof![Just(Aggregate::Count), Just(Aggregate::Sum)],
            proptest::collection::vec((0u32..64, -1000i64..1000, 0i64..1000), 1..6),
            0.001f64..0.999,
        )
            .prop_map(|(agg, raw, sampling_rate)| {
                // Distinct dims via an offset walk; widths non-negative.
                let ranges: Vec<Range> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(dim, lo, width))| {
                        Range::new(dim as usize + i * 64, lo, lo + width).unwrap()
                    })
                    .collect();
                (RangeQuery::new(agg, ranges).unwrap(), sampling_rate)
            })
    }

    /// Every plan shape a `Plan` or `Explain` frame can carry.
    fn arb_plan() -> impl Strategy<Value = QueryPlan> {
        let arb_statistic = || {
            prop_oneof![
                Just(DerivedStatistic::Average),
                Just(DerivedStatistic::Variance),
                Just(DerivedStatistic::StdDev),
            ]
        };
        (
            arb_query(),
            (0.001f64..100.0, 0.0f64..0.1, 0.0f64..500.0),
            0u32..256,
            (any::<bool>(), arb_statistic()),
            prop_oneof![Just(Extreme::Min), Just(Extreme::Max)],
            0u8..4,
        )
            .prop_map(
                |(
                    (query, sampling_rate),
                    (epsilon, delta, threshold),
                    dim,
                    (grouped_stat, stat),
                    extreme,
                    shape,
                )| {
                    let statistic = grouped_stat.then_some(stat);
                    match shape {
                        0 => QueryPlan::Scalar {
                            query,
                            sampling_rate,
                            epsilon,
                            delta,
                        },
                        1 => QueryPlan::Derived {
                            query,
                            statistic: stat,
                            sampling_rate,
                            epsilon,
                            delta,
                        },
                        2 => QueryPlan::GroupBy {
                            base: query,
                            statistic,
                            group_dim: dim as usize,
                            threshold,
                            sampling_rate,
                            epsilon,
                            delta,
                        },
                        _ => QueryPlan::Extreme {
                            dim: dim as usize,
                            extreme,
                            epsilon,
                        },
                    }
                },
            )
    }

    fn arb_frame() -> BoxedStrategy<Frame> {
        let hello = arb_name()
            .prop_map(|analyst| Frame::Hello(Hello { analyst }))
            .boxed();
        let ack = (
            proptest::collection::vec((arb_name(), -5000i64..5000, 0i64..5000), 0..6),
            1u32..64,
            (0.001f64..100.0, 0.0f64..0.1),
            0u8..2,
            (any::<bool>(), 0.001f64..100.0, 0.0f64..0.1),
            1u16..8,
        )
            .prop_map(
                |(dims, n_providers, (epsilon, delta), calibration, (capped, xi, psi), max_v)| {
                    Frame::HelloAck(HelloAck {
                        dimensions: dims
                            .into_iter()
                            .map(|(name, min, width)| WireDimension {
                                name,
                                min,
                                max: min + width,
                            })
                            .collect(),
                        n_providers,
                        epsilon,
                        delta,
                        calibration,
                        session_budget: capped.then_some((xi, psi)),
                        max_version: max_v,
                    })
                },
            )
            .boxed();
        let error = (
            any::<u32>(),
            prop_oneof![
                Just(ErrorCode::BudgetExhausted),
                Just(ErrorCode::InvalidQuery),
                Just(ErrorCode::InvalidSamplingRate),
                Just(ErrorCode::BadRequest),
                Just(ErrorCode::Internal),
            ],
            arb_name(),
        )
            .prop_map(|(index, code, message)| {
                Frame::Error(ErrorFrame {
                    index,
                    code,
                    message,
                })
            })
            .boxed();
        let plan = arb_plan()
            .prop_map(|plan| Frame::Plan(PlanRequest { plan }))
            .boxed();
        let plan_answer = (
            (any::<u32>(), 0.0f64..100.0, 0.0f64..0.1),
            0u8..3,
            (any::<f64>(), arb_opt_f64(), -5000i64..5000),
            proptest::collection::vec((-5000i64..5000, 0.0f64..1e6, arb_opt_f64()), 0..6),
            any::<u64>(),
            arb_timings(),
        )
            .prop_map(
                |(
                    (index, eps, delta),
                    shape,
                    (value, ci_halfwidth, extreme_value),
                    raw_groups,
                    suppressed,
                    (summary_us, allocation_us, execution_us, release_us, network_us),
                )| {
                    let result = match shape {
                        0 => WirePlanResult::Value {
                            value,
                            ci_halfwidth,
                        },
                        1 => WirePlanResult::Groups {
                            groups: raw_groups
                                .into_iter()
                                .map(|(key, value, ci_halfwidth)| WireGroup {
                                    key,
                                    value,
                                    ci_halfwidth,
                                })
                                .collect(),
                            suppressed,
                        },
                        _ => WirePlanResult::Extreme {
                            value: extreme_value,
                        },
                    };
                    Frame::PlanAnswer(PlanAnswerFrame {
                        index,
                        eps,
                        delta,
                        result,
                        summary_us,
                        allocation_us,
                        execution_us,
                        release_us,
                        network_us,
                    })
                },
            )
            .boxed();
        let explain = arb_plan()
            .prop_map(|plan| Frame::Explain(ExplainRequest { plan }))
            .boxed();
        let explain_answer = (
            (any::<u32>(), arb_name(), 0u64..64),
            (any::<bool>(), any::<bool>(), any::<bool>()),
            (0.0f64..100.0, 0.0f64..0.1),
            proptest::collection::vec(
                (
                    arb_name(),
                    proptest::collection::vec(any::<u64>(), 0..6),
                    any::<u64>(),
                    (any::<bool>(), any::<u64>()),
                    any::<u64>(),
                ),
                0..6,
            ),
        )
            .prop_map(
                |((index, plan_kind, n_providers), (prune, dedup, reorder), (eps, delta), subs)| {
                    Frame::ExplainAnswer(ExplainAnswerFrame {
                        index,
                        explanation: PlanExplanation {
                            plan_kind,
                            n_providers,
                            optimizer: OptimizerConfig {
                                prune_providers: prune,
                                dedup_subqueries: dedup,
                                reorder_subqueries: reorder,
                            },
                            eps,
                            delta,
                            sub_queries: subs
                                .into_iter()
                                .map(|(label, pruned_providers, cost, (reused, at), order)| {
                                    SubQueryExplanation {
                                        label,
                                        pruned_providers,
                                        estimated_cost: cost,
                                        reuses: reused.then_some(at),
                                        order,
                                    }
                                })
                                .collect(),
                        },
                    })
                },
            )
            .boxed();
        let budget_req = Just(Frame::BudgetRequest).boxed();
        let budget_status = (
            any::<bool>(),
            (0.0f64..1000.0, 0.0f64..1.0, 0.0f64..1000.0, 0.0f64..1.0),
            any::<u64>(),
        )
            .prop_map(
                |(limited, (total_eps, total_delta, spent_eps, spent_delta), queries)| {
                    Frame::BudgetStatus(BudgetStatus {
                        limited,
                        total_eps,
                        total_delta,
                        spent_eps,
                        spent_delta,
                        queries_answered: queries,
                    })
                },
            )
            .boxed();
        let fragment = proptest::collection::vec(
            (
                arb_query(),
                (0.001f64..10.0, 0.001f64..10.0, 0.001f64..10.0, 0.0f64..0.1),
                any::<u64>(),
            ),
            0..5,
        )
        .prop_map(|raw| {
            Frame::Fragment(
                raw.into_iter()
                    .map(
                        |((query, sampling_rate), (eps_o, eps_s, eps_e, delta), occurrence)| {
                            FragmentSpec {
                                query,
                                sampling_rate,
                                budget: QueryBudget {
                                    eps_o,
                                    eps_s,
                                    eps_e,
                                    delta,
                                },
                                occurrence,
                            }
                        },
                    )
                    .collect(),
            )
        })
        .boxed();
        let fragment_summaries = proptest::collection::vec(
            (
                proptest::collection::vec((any::<f64>(), any::<f64>()), 0..8),
                any::<u64>(),
            ),
            0..5,
        )
        .prop_map(|raw| {
            Frame::FragmentSummaries(
                raw.into_iter()
                    .map(|(summaries, summary_us)| {
                        let summaries = summaries
                            .into_iter()
                            .enumerate()
                            .map(|(provider, (noisy_n_q, noisy_avg_r))| ProviderSummary {
                                provider,
                                noisy_n_q,
                                noisy_avg_r,
                            })
                            .collect();
                        (summaries, Duration::from_micros(summary_us))
                    })
                    .collect(),
            )
        })
        .boxed();
        let fragment_allocation =
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..8), 0..5)
                .prop_map(Frame::FragmentAllocation)
                .boxed();
        let fragment_partial = (
            proptest::collection::vec(
                (
                    any::<f64>(),
                    arb_opt_f64(),
                    any::<bool>(),
                    any::<u64>(),
                    any::<u64>(),
                ),
                0..8,
            ),
            any::<u64>(),
        )
            .prop_map(|(raw, execution_us)| {
                Frame::FragmentPartial(FragmentPartial {
                    rows: raw
                        .into_iter()
                        .map(
                            |(released, variance, approximated, clusters_scanned, n_covering)| {
                                PartialRow {
                                    released,
                                    variance,
                                    approximated,
                                    clusters_scanned,
                                    n_covering,
                                }
                            },
                        )
                        .collect(),
                    execution: Duration::from_micros(execution_us),
                })
            })
            .boxed();
        let extreme_fragment = (
            0u32..256,
            prop_oneof![Just(Extreme::Min), Just(Extreme::Max)],
            0.001f64..100.0,
            any::<u64>(),
        )
            .prop_map(|(dim, extreme, epsilon, occurrence)| {
                Frame::ExtremeFragment(ExtremeFragmentSpec {
                    dim: dim as usize,
                    extreme,
                    epsilon,
                    occurrence,
                })
            })
            .boxed();
        let extreme_partial = (any::<i64>(), any::<u64>())
            .prop_map(|(value, execution_us)| {
                Frame::ExtremePartial((value, Duration::from_micros(execution_us)))
            })
            .boxed();
        let shard_bounds = proptest::collection::vec(
            (
                proptest::collection::vec((any::<bool>(), -5000i64..5000, 0i64..5000), 0..4),
                any::<u64>(),
            ),
            0..6,
        )
        .prop_map(|raw| {
            Frame::ShardBounds(
                raw.into_iter()
                    .map(|(dims, n_clusters)| {
                        let dims = dims
                            .into_iter()
                            .map(|(some, lo, width)| some.then_some((lo, lo + width)))
                            .collect();
                        ProviderBounds::new(dims, n_clusters as usize)
                    })
                    .collect(),
            )
        })
        .boxed();
        let fragment_signals = prop_oneof![Just(Frame::ShardBoundsRequest)].boxed();
        let online_plan = (arb_query(), (0.001f64..100.0, 0.0f64..0.1), 1u32..64)
            .prop_map(|((query, sampling_rate), (epsilon, delta), rounds)| {
                Frame::OnlinePlan(OnlinePlanRequest {
                    query,
                    sampling_rate,
                    epsilon,
                    delta,
                    rounds,
                })
            })
            .boxed();
        let online_snapshot = (
            (any::<u32>(), 1u32..64, 1u32..64),
            (0.0f64..1.0, any::<f64>()),
            arb_opt_f64(),
            any::<u64>(),
        )
            .prop_map(
                |((index, round, rounds), (sample_fraction, value), ci_halfwidth, scanned)| {
                    Frame::OnlineSnapshot(OnlineSnapshotFrame {
                        index,
                        round,
                        rounds,
                        sample_fraction,
                        value,
                        ci_halfwidth,
                        clusters_scanned: scanned,
                    })
                },
            )
            .boxed();
        let online_done = (
            (any::<u32>(), 0.0f64..100.0, 0.0f64..0.1, any::<f64>()),
            arb_timings(),
        )
            .prop_map(
                |(
                    (index, eps, delta, value),
                    (summary_us, allocation_us, execution_us, release_us, network_us),
                )| {
                    Frame::OnlineDone(OnlineDoneFrame {
                        index,
                        eps,
                        delta,
                        value,
                        summary_us,
                        allocation_us,
                        execution_us,
                        release_us,
                        network_us,
                    })
                },
            )
            .boxed();
        let ingest = (
            any::<u32>(),
            proptest::collection::vec(
                (
                    proptest::collection::vec(any::<i64>(), 0..4),
                    1u64..1_000_000,
                ),
                0..8,
            ),
        )
            .prop_map(|(provider, raw)| {
                Frame::Ingest(IngestRequest {
                    provider,
                    rows: raw
                        .into_iter()
                        .map(|(values, measure)| WireRow { values, measure })
                        .collect(),
                })
            })
            .boxed();
        let ingest_ack = (any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(accepted, epoch, refreshed)| {
                Frame::IngestAck(IngestAckFrame {
                    accepted,
                    epoch,
                    refreshed,
                })
            })
            .boxed();
        let metrics = Just(Frame::Metrics).boxed();
        let metrics_answer = proptest::collection::vec((arb_name(), -1e9f64..1e9), 0..8)
            .prop_map(|raw| {
                Frame::MetricsAnswer(MetricsAnswerFrame {
                    metrics: raw
                        .into_iter()
                        .map(|(name, value)| WireMetric { name, value })
                        .collect(),
                })
            })
            .boxed();
        prop_oneof![
            hello,
            ack,
            error,
            budget_req,
            budget_status,
            plan,
            plan_answer,
            explain,
            explain_answer,
            fragment,
            fragment_summaries,
            fragment_allocation,
            fragment_partial,
            extreme_fragment,
            extreme_partial,
            shard_bounds,
            fragment_signals,
            metrics,
            metrics_answer,
            online_plan,
            online_snapshot,
            online_done,
            ingest,
            ingest_ack
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every frame the protocol can express round-trips bit-exactly,
        /// and the decode consumes the whole frame.
        #[test]
        fn arbitrary_frames_round_trip(frame in arb_frame()) {
            let bytes = encode_frame(&frame).unwrap();
            let mut slice: &[u8] = &bytes;
            let decoded = read_frame(&mut slice).unwrap();
            prop_assert!(!slice.has_remaining());
            prop_assert_eq!(decoded, frame);
        }

        /// No byte-flip in the header survives validation silently: the
        /// result is either an error or (for a payload-length byte) a
        /// stalled read, never a silently different frame kind.
        #[test]
        fn header_bit_flips_never_panic(frame in arb_frame(), byte in 0usize..HEADER_BYTES, bit in 0u8..8) {
            let mut bytes = encode_frame(&frame).unwrap();
            bytes[byte] ^= 1 << bit;
            let mut slice: &[u8] = &bytes;
            let _ = read_frame(&mut slice); // must not panic
        }

        /// A hostile or corrupt payload — any bit flipped, any 4-byte
        /// window overwritten with `0xFFFF_FFFF` (every declared count
        /// becomes absurd), any suffix cut off with the header's length
        /// patched to match — decodes to a frame or a typed error: never
        /// a panic, and never a reservation `declared_len_fits` did not
        /// admit (`get_list` asserts that one in debug builds).
        #[test]
        fn payload_corruption_never_panics_or_overallocates(
            frame in arb_frame(),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let bytes = encode_frame(&frame).unwrap();
            let payload_len = bytes.len() - HEADER_BYTES;
            if payload_len == 0 {
                return Ok(());
            }
            let at = HEADER_BYTES + at % payload_len;

            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let _ = read_frame(&mut &flipped[..]);

            let mut saturated = bytes.clone();
            let end = (at + 4).min(saturated.len());
            saturated[at..end].fill(0xFF);
            let _ = read_frame(&mut &saturated[..]);

            let mut truncated = bytes[..at].to_vec();
            let len = (at - HEADER_BYTES) as u32;
            truncated[7..11].copy_from_slice(&len.to_le_bytes());
            prop_assert!(read_frame(&mut &truncated[..]).is_err());
        }
    }
}
