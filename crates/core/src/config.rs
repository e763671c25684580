//! Federation configuration.

use fedaqp_dp::{HyperParams, QueryBudget};
use fedaqp_smc::CostModel;
use fedaqp_storage::PartitionStrategy;

use crate::{CoreError, Result};

/// How final results are released to the aggregator (§5.3.3, §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseMode {
    /// Each provider perturbs its own estimate with Laplace noise and the
    /// aggregator sums the noisy values (noise variance adds across
    /// providers).
    LocalDp,
    /// Providers secret-share `(estimate, S_LS)`; the runtime sums the
    /// estimates and takes the max sensitivity obliviously, then a single
    /// Laplace noise is added (tighter noise range, small SMC overhead —
    /// Fig. 8).
    Smc,
}

/// Which dimension count enters `ΔR = 1 − (1 − 1/S)^{|·|}`.
///
/// Theorem 5.1 states the bound with the full dimension count `|D|`
/// (query-independent, safe to publish once); Appendix A derives it with
/// the query's `|D^Q|` (tighter, still public since `D^Q` is part of the
/// query). Both are public quantities; the regime is an accuracy/pessimism
/// trade-off the harness ablates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensitivityRegime {
    /// `|D|` — the conservative bound of Thm. 5.1.
    AllDims,
    /// `|D^Q|` — the per-query bound of App. A.1.
    QueryDims,
}

/// How the aggregator assigns per-provider sample sizes (§4's global vs
/// local sampling discussion; ablation `repro ablation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Global, distribution-aware allocation: solve Eq. 6 over the DP
    /// summaries (the paper's contribution).
    Optimized,
    /// Local sampling baseline: every provider gets `sr · Ñ^Q_i` with no
    /// cross-provider optimization ("the sample size is distributed
    /// uniformly on data providers", §4).
    LocalUniform,
}

/// How clusters are weighted during sampling (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingPolicy {
    /// Unequal-probability PPS weights from `R̂` (Eq. 1) — the paper.
    Pps,
    /// Equal-probability cluster sampling (the §4 uniform baseline).
    Uniform,
}

/// Which probability the Hansen–Hurwitz estimator divides each draw by.
///
/// Algorithm 2 *selects* clusters with the Exponential mechanism (per-draw
/// budget `ε_s = ε_S/s`), whose selection distribution is the softmax of
/// `ε_s·p_j/(2Δp)` — not the raw PPS distribution `p_j` of Eq. 1. Eq. 3
/// nevertheless divides by `p_j`. The mismatch grows with the sample size:
/// larger `s` shrinks `ε_s`, flattening the draw distribution toward
/// uniform while the divisor stays PPS, so the estimator's bias *grows*
/// with the sampling rate and eats the variance reduction the extra draws
/// paid for (the Fig. 5 "error falls with rate" trend inverts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorCalibration {
    /// Divide by the raw PPS probability `p_j` (Eq. 3 verbatim) — the
    /// paper-faithful baseline, biased under the actual draw distribution.
    PpsEq3,
    /// Divide by the Exponential mechanism's exact per-draw selection
    /// probability — unbiased by construction under the distribution the
    /// sampler actually used (the default).
    EmCalibrated,
}

impl EstimatorCalibration {
    /// Canonical short name (`em` / `pps`) — the CLI `--calibration`
    /// vocabulary and the `BENCH_accuracy.json` key prefix, kept in one
    /// place so the parser and the benchmark writer cannot drift.
    pub fn as_str(&self) -> &'static str {
        match self {
            EstimatorCalibration::EmCalibrated => "em",
            EstimatorCalibration::PpsEq3 => "pps",
        }
    }
}

impl std::str::FromStr for EstimatorCalibration {
    type Err = CoreError;

    fn from_str(text: &str) -> Result<Self> {
        match text {
            "em" => Ok(EstimatorCalibration::EmCalibrated),
            "pps" => Ok(EstimatorCalibration::PpsEq3),
            _ => Err(CoreError::BadConfig("unknown calibration (use em|pps)")),
        }
    }
}

/// Where the per-cluster proportions `R` come from (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProportionSource {
    /// Algorithm 1 metadata with the independence approximation (Eq. 1) —
    /// the paper.
    Metadata,
    /// Exact per-cluster scan — "as costly as evaluating the query itself"
    /// (§5.2), but the accuracy ceiling the approximation is measured
    /// against.
    ExactScan,
}

/// Toggles for the metadata-driven plan optimizer (see
/// [`crate::optimizer`]).
///
/// Every pass conditions **only on offline Algorithm 1 metadata** (public
/// by Theorem 5.1's one-time release) and on the query itself, never on
/// sampled data — so toggling a pass can change how much work the engine
/// does but never which bytes it releases. The equivalence is asserted by
/// the optimizer test suite; the default enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Skip protocol step 1 on providers whose public per-dimension
    /// `[v_min, v_max]` bounds prove an empty covering set `C^Q` (Eq. 2).
    pub prune_providers: bool,
    /// Answer a plan's *cost-only* repeated sub-queries (VAR/STD's second
    /// moment re-issues the cell's COUNT) by re-reading the already
    /// released answer — post-processing, zero extra ξ, zero extra work.
    pub dedup_subqueries: bool,
    /// Submit a GROUP-BY's cells costliest-first (by metadata-estimated
    /// surviving cluster count) so the stragglers start pipelining
    /// earliest. Released bytes are order-independent for distinct
    /// sub-queries (content-derived noise), so this is latency-only.
    pub reorder_subqueries: bool,
}

impl OptimizerConfig {
    /// All passes on (the default).
    pub fn enabled() -> Self {
        Self {
            prune_providers: true,
            dedup_subqueries: true,
            reorder_subqueries: true,
        }
    }

    /// All passes off — the exhaustive fan-out the optimizer is measured
    /// against (and the reference side of the equivalence tests).
    pub fn disabled() -> Self {
        Self {
            prune_providers: false,
            dedup_subqueries: false,
            reorder_subqueries: false,
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::enabled()
    }
}

/// Full configuration of a federation.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of data providers (the paper's evaluation uses 4).
    pub n_providers: usize,
    /// Physical cluster capacity of each provider's store.
    pub cluster_capacity: usize,
    /// Federation-wide agreed `S` used to normalize proportions (§7). Must
    /// be ≥ every provider's capacity; defaults to `cluster_capacity`.
    pub agreed_s: usize,
    /// Approximation threshold `N_min`: queries covering fewer clusters are
    /// answered exactly (protocol step 4).
    pub n_min: usize,
    /// Per-query ε split across phases.
    pub hyperparams: HyperParams,
    /// Default per-query privacy budget ε.
    pub epsilon: f64,
    /// Default per-query failure probability δ.
    pub delta: f64,
    /// Release mode for final results.
    pub release_mode: ReleaseMode,
    /// Dimension-count regime for `ΔR`.
    pub sensitivity_regime: SensitivityRegime,
    /// Sensitivity cap for the exact (non-approximated) SUM path: the
    /// assumed maximum `Measure` contribution of one individual. COUNT uses
    /// sensitivity 1.
    pub sum_measure_cap: u64,
    /// Row → cluster layout of each provider's store.
    pub partition_strategy: PartitionStrategy,
    /// Allocation policy (global optimized vs local uniform).
    pub allocation_policy: AllocationPolicy,
    /// Cluster sampling weights (PPS vs uniform).
    pub sampling_policy: SamplingPolicy,
    /// Hansen–Hurwitz divisor: actual EM draw probability (calibrated,
    /// unbiased) vs raw PPS probability (paper's Eq. 3).
    pub estimator_calibration: EstimatorCalibration,
    /// Proportion source (metadata approximation vs exact scan).
    pub proportion_source: ProportionSource,
    /// Metadata resolution: `None` stores every distinct value's tail
    /// (Algorithm 1 verbatim); `Some(b)` keeps at most `b` histogram-style
    /// entries per dimension per cluster — smaller metadata, coarser `R̂`
    /// (the metadata-resolution ablation).
    pub metadata_buckets: Option<usize>,
    /// Network cost model for protocol messages and the SMC release path.
    pub cost_model: CostModel,
    /// Largest group-dimension domain a GROUP-BY plan may enumerate. A
    /// group-by fans out one sub-query per domain value, so an unbounded
    /// domain (say `categorical(10^9)`) would loop and allocate without
    /// limit; plans over larger domains are rejected with
    /// [`CoreError::GroupDomainTooLarge`] before any work starts.
    pub max_group_domain: u64,
    /// Metadata-driven plan-optimizer passes (all on by default; released
    /// bytes are identical either way — see [`crate::optimizer`]).
    pub optimizer: OptimizerConfig,
    /// Base seed for all provider/aggregator randomness.
    pub seed: u64,
    /// Offset added to the per-provider RNG lane (`lane_base + provider_id`
    /// instead of `provider_id`). A sharded deployment gives shard *s*
    /// holding global providers `[o, o+k)` a lane base of `o`, so its
    /// local providers `0..k` draw from exactly the noise streams the
    /// 1-shard engine would give providers `o..o+k` — the mechanism behind
    /// the scoped ≡ owned ≡ remote ≡ sharded byte-identity contract.
    /// Single-engine deployments leave this at 0 (bit-identical to every
    /// prior release).
    pub provider_lane_base: u64,
}

impl FederationConfig {
    /// The paper's evaluation configuration (§6.1): 4 providers, ε = 1,
    /// δ = 10⁻³, budget split (0.1, 0.1, 0.8), local-DP release.
    ///
    /// One deliberate deviation: the estimator defaults to
    /// [`EstimatorCalibration::EmCalibrated`], which restores the Fig. 5
    /// "error falls with sampling rate" behaviour the paper reports but
    /// Eq. 3's PPS divisor does not deliver under Algorithm 2's actual
    /// draw distribution. Set [`EstimatorCalibration::PpsEq3`] for the
    /// verbatim-paper estimator.
    pub fn paper_default(cluster_capacity: usize) -> Self {
        Self {
            n_providers: 4,
            cluster_capacity,
            agreed_s: cluster_capacity,
            n_min: 10,
            hyperparams: HyperParams::paper_default(),
            epsilon: 1.0,
            delta: 1e-3,
            release_mode: ReleaseMode::LocalDp,
            sensitivity_regime: SensitivityRegime::QueryDims,
            sum_measure_cap: 1,
            // Clustered-index layout: tight min/max bands on the leading
            // dimension (effective pruning) while the remaining dimensions
            // stay well-mixed within each cluster, which keeps the per-
            // cluster independence approximation of Eq. 1 accurate and the
            // scenario-1 sensitivities moderate.
            partition_strategy: PartitionStrategy::SortedBy(0),
            allocation_policy: AllocationPolicy::Optimized,
            sampling_policy: SamplingPolicy::Pps,
            estimator_calibration: EstimatorCalibration::EmCalibrated,
            proportion_source: ProportionSource::Metadata,
            metadata_buckets: None,
            cost_model: CostModel::lan(),
            max_group_domain: 4096,
            optimizer: OptimizerConfig::enabled(),
            seed: 0xFEDA,
            provider_lane_base: 0,
        }
    }

    /// The default per-query budget this configuration implies: `(ε, δ)`
    /// split across the protocol phases by the hyper-parameters. Engines,
    /// sessions and coordinators all derive their defaults here so they
    /// can never drift apart.
    pub fn query_budget(&self) -> Result<QueryBudget> {
        Ok(QueryBudget::split(
            self.epsilon,
            self.delta,
            self.hyperparams,
        )?)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_providers == 0 {
            return Err(CoreError::NoProviders);
        }
        if self.cluster_capacity == 0 {
            return Err(CoreError::BadConfig("cluster capacity must be positive"));
        }
        if self.agreed_s < self.cluster_capacity {
            return Err(CoreError::BadConfig(
                "agreed S must be at least the physical cluster capacity",
            ));
        }
        if self.n_min < 1 {
            return Err(CoreError::BadConfig("N_min must be at least 1"));
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(CoreError::BadConfig("epsilon must be positive"));
        }
        if !(self.delta.is_finite() && (0.0..1.0).contains(&self.delta)) {
            return Err(CoreError::BadConfig("delta must be in [0, 1)"));
        }
        if self.sum_measure_cap == 0 {
            return Err(CoreError::BadConfig("sum measure cap must be positive"));
        }
        if self.max_group_domain == 0 {
            return Err(CoreError::BadConfig(
                "max group-by domain size must be positive",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = FederationConfig::paper_default(1000);
        cfg.validate().unwrap();
        assert_eq!(cfg.n_providers, 4);
        assert_eq!(cfg.epsilon, 1.0);
        assert_eq!(cfg.delta, 1e-3);
        assert_eq!(cfg.release_mode, ReleaseMode::LocalDp);
        assert_eq!(
            cfg.estimator_calibration,
            EstimatorCalibration::EmCalibrated
        );
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut cfg = FederationConfig::paper_default(100);
        cfg.n_providers = 0;
        assert!(matches!(cfg.validate(), Err(CoreError::NoProviders)));

        let mut cfg = FederationConfig::paper_default(100);
        cfg.agreed_s = 50;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::paper_default(100);
        cfg.epsilon = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::paper_default(100);
        cfg.delta = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::paper_default(100);
        cfg.n_min = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::paper_default(100);
        cfg.sum_measure_cap = 0;
        assert!(cfg.validate().is_err());
    }
}
