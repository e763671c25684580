//! Protocol message and accounting types.

use std::time::Duration;

use fedaqp_model::RangeQuery;
use fedaqp_smc::CostModel;

/// Approximate wire size of a range query (protocol accounting): what the
/// private and the plain job both charge for the simulated broadcast.
pub(crate) fn query_bytes(query: &RangeQuery) -> u64 {
    16 + 24 * query.ranges().len() as u64
}

/// Simulated network time of one private query: the query broadcast, the
/// summary and allocation rounds, then the release — the local-DP result
/// round, or `smc`, the rounds an SMC release timed itself. The engine
/// and the sharded coordinator both charge this one sum.
pub(crate) fn private_network(
    cost_model: CostModel,
    query: &RangeQuery,
    smc: Option<Duration>,
) -> Duration {
    cost_model.round_time(query_bytes(query))
        + cost_model.round_time(16)
        + cost_model.round_time(8)
        + smc.unwrap_or_else(|| cost_model.round_time(16))
}

/// Simulated network time of one MIN/MAX selection: the request and the
/// selection rounds (engine and coordinator alike).
pub(crate) fn extreme_network(cost_model: CostModel) -> Duration {
    cost_model.round_time(16) + cost_model.round_time(8)
}

/// The DP summary a provider releases for the allocation phase (Eq. 5):
/// `(Ñ^Q, Avg(R̂)~)` perturbed under `ε_O`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderSummary {
    /// Provider id.
    pub provider: usize,
    /// `Ñ^Q` — Laplace-perturbed covering-cluster count.
    pub noisy_n_q: f64,
    /// `Avg(R̂)~` — Laplace-perturbed average proportion.
    pub noisy_avg_r: f64,
}

/// A provider's local result for one query (protocol steps 4–6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalOutcome {
    /// Provider id.
    pub provider: usize,
    /// The DP-perturbed value, present in [`crate::ReleaseMode::LocalDp`]
    /// mode (each provider noises its own estimate).
    pub released: Option<f64>,
    /// The raw (pre-noise) estimate. In SMC mode this value exists only as
    /// secret shares outside the simulation boundary; it is carried here
    /// for the oblivious sum and for test oracles.
    pub estimate: f64,
    /// The smooth sensitivity accompanying the estimate (Alg. 3 line 6).
    pub smooth_ls: f64,
    /// Hansen–Hurwitz variance of the raw estimate (simulation-boundary
    /// diagnostic, like `estimate`). `None` when inestimable — a single
    /// draw carries no variance information; the exact path reports
    /// `Some(0.0)` (a full scan genuinely has zero sampling variance).
    pub variance: Option<f64>,
    /// Whether the provider approximated (`N^Q ≥ N_min`) or answered
    /// exactly.
    pub approximated: bool,
    /// Clusters actually scanned to produce the answer (cost proxy).
    pub clusters_scanned: usize,
    /// Size of the provider's covering set `N^Q`.
    pub n_covering: usize,
}

/// 95% confidence half-width of the federation-wide raw estimate: the
/// per-provider estimates are independent, so their variances add, and
/// [`fedaqp_sampling::hh_confidence_halfwidth`] turns the sum into the
/// half-width. `None` as soon as any provider's variance is inestimable
/// (a single draw) — an unknown term makes the whole interval unknown,
/// not zero.
pub(crate) fn combined_ci_halfwidth(outcomes: &[LocalOutcome]) -> Option<f64> {
    let total = outcomes
        .iter()
        .try_fold(0.0f64, |acc, o| o.variance.map(|v| acc + v.max(0.0)));
    fedaqp_sampling::hh_confidence_halfwidth(total)
}

/// The §6.1 accuracy metric: `|exact − value| / exact`, and `|value|` when
/// the exact answer is zero. `exact` is the experiment oracle
/// ([`crate::Federation::exact`]), never part of a release.
pub fn relative_error(exact: u64, value: f64) -> f64 {
    if exact == 0 {
        value.abs()
    } else {
        (exact as f64 - value).abs() / exact as f64
    }
}

/// Wall-clock/simulated time spent in each protocol phase of one query.
///
/// Compute phases are measured in real time; the network components are
/// simulated via the configured [`fedaqp_smc::CostModel`]. The paper's
/// speed-up metric divides the plain-execution total by this total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Step 1–2: metadata lookup and summary release (max across parallel
    /// providers).
    pub summary: Duration,
    /// Step 3: allocation optimization at the aggregator.
    pub allocation: Duration,
    /// Steps 4–6: sampling, scanning, estimation, sensitivity (max across
    /// parallel providers).
    pub execution: Duration,
    /// Step 6/7: release path (local noise or SMC aggregation).
    pub release: Duration,
    /// Simulated network time across all protocol rounds.
    pub network: Duration,
}

impl PhaseTimings {
    /// Total query latency.
    pub fn total(&self) -> Duration {
        self.summary + self.allocation + self.execution + self.release + self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_halfwidth_combines_or_abstains() {
        let outcome = |variance| LocalOutcome {
            provider: 0,
            released: None,
            estimate: 1.0,
            smooth_ls: 1.0,
            variance,
            approximated: true,
            clusters_scanned: 1,
            n_covering: 1,
        };
        // Variances add; half-width is 1.96·√Σ.
        let hw = combined_ci_halfwidth(&[outcome(Some(9.0)), outcome(Some(16.0))]).unwrap();
        assert!((hw - 1.96 * 5.0).abs() < 1e-12);
        // One inestimable provider poisons the whole interval.
        assert_eq!(
            combined_ci_halfwidth(&[outcome(Some(9.0)), outcome(None)]),
            None
        );
        // No providers: degenerate zero-width interval.
        assert_eq!(combined_ci_halfwidth(&[]), Some(0.0));
    }

    #[test]
    fn relative_error_is_scaled_by_the_exact_answer_unless_it_is_zero() {
        assert_eq!(relative_error(200, 150.0), 0.25);
        assert_eq!(relative_error(200, 250.0), 0.25);
        assert_eq!(relative_error(0, -3.5), 3.5);
    }

    #[test]
    fn total_sums_phases() {
        let t = PhaseTimings {
            summary: Duration::from_millis(1),
            allocation: Duration::from_millis(2),
            execution: Duration::from_millis(3),
            release: Duration::from_millis(4),
            network: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(15));
        assert_eq!(PhaseTimings::default().total(), Duration::ZERO);
    }
}
