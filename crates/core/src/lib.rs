//! The `fedaqp` federated private-AQP protocol — the paper's primary
//! contribution (§5).
//!
//! A [`federation::Federation`] holds `n` [`provider::DataProvider`]s; an
//! [`engine`] over it (an owned engine runs one worker per provider, a
//! scoped one runs each job on the thread that waits for it; either way a
//! per-query [`aggregator`]) is the one implementation of the query
//! lifecycle of Fig. 3:
//!
//! 1. The aggregator broadcasts the query; each provider identifies its
//!    covering clusters `C^Q` and their approximate proportions `R̂` from
//!    offline metadata (no data touched).
//! 2. Each provider releases a DP summary `(Ñ^Q, Avg(R̂)~)` under budget
//!    `ε_O` (Eq. 5, Thm. 5.1).
//! 3. The aggregator solves the allocation program (Eq. 6) and returns a
//!    per-provider sample size `s_i`.
//! 4. Providers with `N^Q < N_min` answer exactly ("regularly"); the
//!    threshold test runs *after* allocation so non-participation leaks
//!    nothing (§5.3.1).
//! 5. Otherwise each provider samples `s_i` clusters with the Exponential
//!    mechanism under `ε_S` (Alg. 2, Thm. 5.2).
//! 6. Each provider estimates the query with the Hansen–Hurwitz estimator,
//!    computes the smooth sensitivity of the estimate (Thms. 5.3–5.4,
//!    App. B), and releases under `ε_E` (Alg. 3).
//! 7. In [`config::ReleaseMode::Smc`] the providers instead secret-share
//!    `(estimate, S_LS)`; the aggregator sums obliviously, takes the max
//!    sensitivity, and adds a *single* Laplace noise (§6.5). The sharing is
//!    additive, so every provider must take part: one that fails mid-query
//!    fails the plan with a typed [`CoreError::ProtocolViolation`], and
//!    nothing reconstructs the sum from a threshold of survivors.
//!
//! Per-query privacy: `(ε_O + ε_S + ε_E, δ)` by sequential composition
//! within a provider and parallel composition across providers (§5.4).

pub mod aggregator;
pub mod allocation;
pub mod config;
#[cfg(test)]
mod derived;
pub mod engine;
pub mod error;
pub mod extremes;
pub mod federation;
#[cfg(test)]
mod groupby;
pub mod online;
pub mod optimizer;
pub mod plan;
pub mod protocol;
pub mod provider;
pub mod sensitivity;
pub mod session;
pub mod shard;
pub mod stream;

pub use aggregator::Aggregator;
pub use allocation::{allocate_greedy, AllocationInput};
pub use config::{
    AllocationPolicy, EstimatorCalibration, FederationConfig, OptimizerConfig, ProportionSource,
    ReleaseMode, SamplingPolicy, SensitivityRegime,
};
pub use engine::{
    EngineAnswer, EngineExtreme, EngineHandle, FederationEngine, PendingAnswer, PendingExtreme,
    PendingPlain, QueryBatch, QuerySpec,
};
pub use error::CoreError;
pub use fedaqp_model::{DerivedStatistic, Extreme};
pub use federation::{Federation, PlainAnswer};
pub use online::combine_snapshots;
pub use optimizer::{MetaSnapshot, PlanExplanation, ProviderBounds, SubQueryExplanation};
pub use plan::{
    ExtremeOutcome, ExtremeQuery, PendingPlan, PlanAnswer, PlanBackend, PlanGroup, PlanResult,
    PlanSnapshot, QueryPlan, ShardedAnswer, SubQuery,
};
pub use protocol::{relative_error, LocalOutcome, PhaseTimings, ProviderSummary};
pub use provider::DataProvider;
pub use session::{ConcurrentSession, Session, SessionPlan, ShardedSession};
pub use shard::{
    ExtremeFragmentSpec, ExtremeReply, FragmentBatch, FragmentPartial, FragmentSpec,
    FragmentSummaries, PartialRow, ShardBackend, ShardedFederation, ShardedSub,
};
pub use stream::{IngestReport, LiveFederation, RefreshPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
