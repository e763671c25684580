//! The program under test, as the benchmark sees it: every `fedaqp_*`
//! item the harness touches is imported here and nowhere else.
//!
//! Nothing scheduled for deletion by ROADMAP item 2 is on this list: no
//! `crates/bench`, no `Federation::run*`, no pre-plan wrappers
//! (`run_group_by`, `run_derived`, `private_extreme`, `run_online`), no v1
//! `Query`/`Batch`/`Answer` frames or client calls.

pub use fedaqp_core::provider::PreparedQuery;
pub use fedaqp_core::sensitivity::{
    delta_r_for, smooth_estimator_sensitivity, ClusterSensitivityInput, SensitivityContext,
};
pub use fedaqp_core::{
    Aggregator, DataProvider, EngineHandle, Federation, FederationConfig, FederationEngine,
    LiveFederation, PlanAnswer, PlanExplanation, PlanResult, ProviderSummary, QueryPlan,
    RefreshPolicy, ShardBackend, ShardedFederation,
};
pub use fedaqp_data::{
    partition_rows, AdultConfig, AdultSynth, PartitionMode, WorkloadConfig, WorkloadGenerator,
};
pub use fedaqp_dp::{HyperParams, PrivacyCost, QueryBudget, SharedAccountant, SmoothSensitivity};
pub use fedaqp_model::{
    parse_sql_plan, Aggregate, DerivedStatistic, Extreme, PlanParams, Range, RangeQuery, Row,
    Schema,
};
pub use fedaqp_net::wire::{
    encode_frame, read_frame, Frame, OnlineDoneFrame, OnlinePlanRequest, OnlineSnapshotFrame,
    PlanAnswerFrame, PlanRequest, WireGroup, WirePlanResult,
};
pub use fedaqp_net::{LoopbackServer, RemoteFederation, RemoteShard, ServeOptions};
pub use fedaqp_obs as obs;
pub use fedaqp_sampling::em::{delta_p, em_sample};
pub use fedaqp_sampling::hansen_hurwitz::{hh_estimate, HansenHurwitz};
pub use fedaqp_smc::CostModel;
pub use fedaqp_storage::{Cluster, ClusterStore, ProviderMeta};
