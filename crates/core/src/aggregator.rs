//! The aggregator: allocation optimization and result finalization.

use std::time::Duration;

use fedaqp_dp::laplace_noise;
use fedaqp_smc::{CostModel, SmcRuntime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::allocation::{allocate_greedy, AllocationInput};
use crate::config::AllocationPolicy;
use crate::protocol::{LocalOutcome, ProviderSummary};
use crate::{CoreError, Result};

/// The semi-honest aggregator of Fig. 3(b): receives DP summaries, solves
/// the allocation program, and combines provider results.
///
/// The aggregator never touches raw data; everything it sees is already
/// differentially private (summaries, locally noised results) or secret-
/// shared (SMC mode), so it needs no trust beyond honest-but-curious.
#[derive(Debug)]
pub struct Aggregator {
    rng: StdRng,
    cost_model: CostModel,
}

impl Aggregator {
    /// Creates the aggregator.
    pub fn new(seed: u64, cost_model: CostModel) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0xA66A),
            cost_model,
        }
    }

    /// Protocol step 3: solve Eq. 6 over the received summaries.
    pub fn allocate(&self, summaries: &[ProviderSummary], sampling_rate: f64) -> Result<Vec<u64>> {
        let inputs: Vec<AllocationInput> = summaries
            .iter()
            .map(|s| AllocationInput {
                noisy_n_q: s.noisy_n_q,
                noisy_avg_r: s.noisy_avg_r,
            })
            .collect();
        allocate_greedy(&inputs, sampling_rate)
    }

    /// Protocol step 3 under `policy` — the one rule the engine and the
    /// sharded coordinator both apply, so their allocations agree bit for
    /// bit.
    pub fn allocate_under(
        &self,
        policy: AllocationPolicy,
        summaries: &[ProviderSummary],
        sampling_rate: f64,
    ) -> Result<Vec<u64>> {
        match policy {
            AllocationPolicy::Optimized => self.allocate(summaries, sampling_rate),
            AllocationPolicy::LocalUniform => self.allocate_local_uniform(summaries, sampling_rate),
        }
    }

    /// Local-sampling baseline (§4, ablation): every provider receives
    /// `sr · Ñ^Q_i` with no cross-provider optimization.
    fn allocate_local_uniform(
        &self,
        summaries: &[ProviderSummary],
        sampling_rate: f64,
    ) -> Result<Vec<u64>> {
        if summaries.is_empty() {
            return Err(CoreError::NoProviders);
        }
        if !(sampling_rate.is_finite() && 0.0 < sampling_rate && sampling_rate < 1.0) {
            return Err(CoreError::InvalidSamplingRate(sampling_rate));
        }
        Ok(summaries
            .iter()
            .map(|s| {
                let n = s.noisy_n_q.max(1.0);
                ((sampling_rate * n).round() as u64).max(1)
            })
            .collect())
    }

    /// Local-DP finalization: sum the providers' already-noised releases
    /// (post-processing — no extra budget).
    pub fn finalize_local(&self, outcomes: &[LocalOutcome]) -> Result<f64> {
        if outcomes.is_empty() {
            return Err(CoreError::NoProviders);
        }
        let mut total = 0.0;
        for o in outcomes {
            total += o.released.ok_or(CoreError::ProtocolViolation(
                "local-DP finalization requires released values",
            ))?;
        }
        Ok(total)
    }

    /// SMC finalization (protocol step 7, §6.5): obliviously sum the raw
    /// estimates, take the maximum smooth sensitivity, and add a *single*
    /// Laplace noise `Lap(2·max S_LS / ε_E)`.
    ///
    /// Returns the released value and the simulated SMC duration.
    pub fn finalize_smc(
        &mut self,
        outcomes: &[LocalOutcome],
        eps_e: f64,
    ) -> Result<(f64, Duration)> {
        if outcomes.is_empty() {
            return Err(CoreError::NoProviders);
        }
        if !(eps_e.is_finite() && eps_e > 0.0) {
            return Err(CoreError::BadConfig("release budget must be positive"));
        }
        let estimates: Vec<f64> = outcomes.iter().map(|o| o.estimate).collect();
        let sensitivities: Vec<f64> = outcomes.iter().map(|o| o.smooth_ls).collect();
        let mut rt = SmcRuntime::new(outcomes.len().max(2), self.cost_model)?;
        let sum = rt.secure_sum(&mut self.rng, &estimates)?;
        let max_ls = rt.secure_max(&mut self.rng, &sensitivities)?;
        let released = sum + laplace_noise(&mut self.rng, 2.0 * max_ls / eps_e);
        Ok((released, rt.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(provider: usize, released: Option<f64>, estimate: f64, ls: f64) -> LocalOutcome {
        LocalOutcome {
            provider,
            released,
            estimate,
            smooth_ls: ls,
            variance: None,
            approximated: true,
            clusters_scanned: 1,
            n_covering: 10,
        }
    }

    #[test]
    fn allocate_delegates_to_greedy() {
        let agg = Aggregator::new(1, CostModel::zero());
        let summaries = [
            ProviderSummary {
                provider: 0,
                noisy_n_q: 50.0,
                noisy_avg_r: 0.9,
            },
            ProviderSummary {
                provider: 1,
                noisy_n_q: 50.0,
                noisy_avg_r: 0.1,
            },
        ];
        let alloc = agg.allocate(&summaries, 0.2).unwrap();
        assert_eq!(alloc.iter().sum::<u64>(), 20);
        assert!(alloc[0] > alloc[1]);
    }

    #[test]
    fn finalize_local_sums_released() {
        let agg = Aggregator::new(2, CostModel::zero());
        let outs = [
            outcome(0, Some(10.0), 9.0, 1.0),
            outcome(1, Some(20.0), 21.0, 1.0),
        ];
        assert_eq!(agg.finalize_local(&outs).unwrap(), 30.0);
    }

    #[test]
    fn finalize_local_rejects_missing_release() {
        let agg = Aggregator::new(3, CostModel::zero());
        let outs = [outcome(0, None, 9.0, 1.0)];
        assert!(matches!(
            agg.finalize_local(&outs),
            Err(CoreError::ProtocolViolation(_))
        ));
        assert!(matches!(
            agg.finalize_local(&[]),
            Err(CoreError::NoProviders)
        ));
    }

    #[test]
    fn finalize_smc_sums_and_noises_once() {
        let mut agg = Aggregator::new(4, CostModel::zero());
        let outs = [
            outcome(0, None, 100.0, 2.0),
            outcome(1, None, 200.0, 5.0),
            outcome(2, None, 300.0, 1.0),
        ];
        // Average many releases: noise has mean 0, so the mean approaches
        // the exact sum 600 with scale 2·5/ε.
        let trials = 2000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let (v, _) = agg.finalize_smc(&outs, 1.0).unwrap();
            acc += v;
        }
        let mean = acc / trials as f64;
        assert!((mean - 600.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn finalize_smc_reports_duration_under_lan() {
        let mut agg = Aggregator::new(5, CostModel::lan());
        let outs = [outcome(0, None, 1.0, 1.0), outcome(1, None, 2.0, 1.0)];
        let (_, d) = agg.finalize_smc(&outs, 1.0).unwrap();
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn finalize_smc_validates_inputs() {
        let mut agg = Aggregator::new(6, CostModel::zero());
        assert!(matches!(
            agg.finalize_smc(&[], 1.0),
            Err(CoreError::NoProviders)
        ));
        let outs = [outcome(0, None, 1.0, 1.0)];
        assert!(agg.finalize_smc(&outs, 0.0).is_err());
        // Single provider still works (runtime pads to 2 parties).
        assert!(agg.finalize_smc(&outs, 1.0).is_ok());
    }
}
