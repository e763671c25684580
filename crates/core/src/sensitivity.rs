//! Paper-specific sensitivity analysis (Thms. 5.1–5.4, Appendices A–B).

use fedaqp_dp::SmoothSensitivity;

use crate::config::{EstimatorCalibration, SensitivityRegime};

/// `ΔR = 1 − (1 − 1/S)^{n_dims}` (Thm. 5.1 / App. A.1): how much one
/// individual can move a single cluster's proportion `R`.
pub fn delta_r(agreed_s: usize, n_dims: usize) -> f64 {
    let s = agreed_s.max(1) as f64;
    1.0 - (1.0 - 1.0 / s).powi(n_dims as i32)
}

/// Picks the dimension count for `ΔR` under the configured regime.
pub fn delta_r_for(
    regime: SensitivityRegime,
    agreed_s: usize,
    schema_dims: usize,
    query_dims: usize,
) -> f64 {
    match regime {
        SensitivityRegime::AllDims => delta_r(agreed_s, schema_dims),
        SensitivityRegime::QueryDims => delta_r(agreed_s, query_dims),
    }
}

/// `ΔAvg(R̂) = max(ΔR/N_min, 1/(N_min + 1))` (Thm. 5.1): sensitivity of the
/// summary average released in the allocation phase.
pub fn delta_avg_r(delta_r: f64, n_min: usize) -> f64 {
    let n = n_min.max(1) as f64;
    (delta_r / n).max(1.0 / (n + 1.0))
}

/// `Δp = 1/(N_min (N_min + 1))` (Thm. 5.2): sensitivity of the sampling
/// probabilities scoring the Exponential mechanism. Re-exported from the
/// sampling substrate for a single source of truth.
pub use fedaqp_sampling::em::delta_p;

/// Inputs describing one *sampled* cluster for the estimator-sensitivity
/// computation of Alg. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSensitivityInput {
    /// `Q(C)` — the exact aggregate over the cluster.
    pub q_c: f64,
    /// `R` — the cluster's approximated proportion.
    pub r: f64,
    /// `p` — the probability the Hansen–Hurwitz estimator actually divides
    /// this cluster's draw by (see [`SensitivityContext::divisor`]): the
    /// exact EM draw probability under
    /// [`EstimatorCalibration::EmCalibrated`], the floored PPS probability
    /// under [`EstimatorCalibration::PpsEq3`]. The scenario-4 slope is
    /// `1/p` for whichever divisor the estimator used.
    pub p: f64,
}

/// Per-provider context shared by all clusters of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityContext {
    /// `Σ_{R ∈ R̂} R` over the provider's covering set.
    pub sum_r: f64,
    /// `ΔR` for this query (see [`delta_r_for`]).
    pub delta_r: f64,
    /// Numerical floor for `R` (one row's worth of mass, `1/S`): keeps the
    /// scenario-1 slope finite when metadata approximates `R ≈ 0` for a
    /// sampled cluster.
    pub r_floor: f64,
    /// Numerical floor for `p`: keeps the scenario-4 slope and the
    /// Hansen–Hurwitz division finite when a zero-probability cluster is
    /// drawn by the (privacy-noised) EM sampler.
    pub p_floor: f64,
    /// Which divisor the Hansen–Hurwitz estimator uses — and hence which
    /// scenario-4 bound applies (see [`SensitivityContext::divisor`]).
    pub calibration: EstimatorCalibration,
}

impl SensitivityContext {
    /// Builds the context for one provider and query.
    ///
    /// `p_floor` should be the *minimum actual draw probability* of the
    /// sampler ([`fedaqp_sampling::EmSample::min_draw_probability`], lower-
    /// bounded analytically by `exp(−ε_s/(2Δp)) / N^Q`); dividing by
    /// anything smaller than the true draw probability inflates both the
    /// estimate and its sensitivity without statistical justification.
    pub fn new(
        sum_r: f64,
        delta_r: f64,
        agreed_s: usize,
        p_floor: f64,
        calibration: EstimatorCalibration,
    ) -> Self {
        let s = agreed_s.max(1) as f64;
        Self {
            sum_r,
            delta_r,
            r_floor: 1.0 / s,
            p_floor: p_floor.max(f64::MIN_POSITIVE),
            calibration,
        }
    }

    /// Effective (floored) proportion.
    #[inline]
    fn r_eff(&self, r: f64) -> f64 {
        r.max(self.r_floor)
    }

    /// Effective (floored) probability.
    #[inline]
    fn p_eff(&self, p: f64) -> f64 {
        p.max(self.p_floor)
    }

    /// The probability the Hansen–Hurwitz estimator divides one draw by,
    /// given both probability views of that draw.
    ///
    /// * [`EstimatorCalibration::EmCalibrated`] — the exact EM selection
    ///   probability `q_i`: the draw *actually* happened with this
    ///   probability, so `E[(1/s)·Σ Q(C_i)/q_i] = Σ_j Q(C_j)` holds by
    ///   construction. Since every `q_i ≥ p_floor = min_j q_j`, the
    ///   resulting scenario-4 slope `1/q_i ≤ 1/p_floor` — the calibrated
    ///   divisor *tightens* the sensitivity bound relative to the floored-
    ///   PPS fallback, so the released noise shrinks too.
    /// * [`EstimatorCalibration::PpsEq3`] — the paper's Eq. 3 divisor: the
    ///   raw PPS probability, floored at `p_floor` because metadata can
    ///   assign `R̂ ≈ 0` (hence `p ≈ 0`) to a cluster the privacy-noised
    ///   sampler nevertheless selected.
    #[inline]
    pub fn divisor(&self, pps: f64, em: f64) -> f64 {
        match self.calibration {
            EstimatorCalibration::PpsEq3 => self.p_eff(pps),
            EstimatorCalibration::EmCalibrated => em.max(f64::MIN_POSITIVE),
        }
    }
}

/// Lower bound on the Exponential mechanism's per-draw selection
/// probability over `n` candidates with scores in `[0, 1]`:
///
/// ```text
/// q_i = w_i / Σ w_j ≥ exp(−ε_s/(2Δp)) / n      (w_i = exp(ε_s·p_i/(2Δp)))
/// ```
///
/// since weights differ by at most a factor `exp(ε_s·(max p − min p)/(2Δp))
/// ≤ exp(ε_s/(2Δp))`. Alg. 2 divides Hansen–Hurwitz contributions by the
/// *PPS* probability `p_i`, which can be arbitrarily smaller than the EM
/// probability that actually governed the draw; flooring the divisor at
/// this bound keeps the estimator (and the scenario-4 sensitivity `1/p`)
/// finite when the metadata assigns `R̂ ≈ 0` to a cluster the privacy-
/// noised sampler nevertheless selected. DESIGN.md records this deviation.
#[cfg(test)]
fn em_draw_probability_floor(eps_per_selection: f64, delta_p: f64, n_candidates: usize) -> f64 {
    let exponent = (eps_per_selection / (2.0 * delta_p)).min(30.0);
    (-exponent).exp() / n_candidates.max(1) as f64
}

/// Worst-case scenario-4 slope of the *calibrated* estimator — the
/// rederived bound for the `EmCalibrated` divisor.
///
/// The calibrated Hansen–Hurwitz divides draw `i` by its exact EM
/// probability `q_i = w_i / Σ w_j` (`w_i = exp(ε_s·p_i/(2Δp))`), so the
/// scenario-4 local-sensitivity slope is `1/q_i`. With scores `p_i ∈
/// [0, 1]` the weights differ by at most the per-draw ratio bound
/// `exp(ε_s·(max p − min p)/(2Δp)) ≤ exp(ε_s/(2Δp))`, hence
///
/// ```text
/// 1/q_i ≤ N^Q · exp(ε_s/(2Δp))        for every candidate i,
/// ```
///
/// the reciprocal of [`em_draw_probability_floor`]. Two orderings follow:
///
/// * the *realized* calibrated slope `1/q_i` of any drawn cluster is at
///   most `1/min_j q_j = 1/p_floor` — i.e. never worse than the floored-
///   PPS fallback's worst case, and strictly better for every cluster
///   that is not the least-likely one (the released noise shrinks);
/// * `1/p_floor` itself never exceeds this analytic bound, so the bound
///   is safe to publish without inspecting the realized distribution.
///
/// This function is **analysis-only**: the runtime noise computation uses
/// the realized slopes (`ClusterSensitivityInput::p` carries the exact EM
/// probability each draw was divided by), which are tighter than this
/// worst case. It exists to prove the orderings above and to give
/// auditors a distribution-free cap — changing it does not change any
/// released noise.
#[cfg(test)]
fn em_calibrated_slope_bound(eps_per_selection: f64, delta_p: f64, n_candidates: usize) -> f64 {
    1.0 / em_draw_probability_floor(eps_per_selection, delta_p, n_candidates)
}

/// The linear local-sensitivity slope `LS^k / k` for one cluster, choosing
/// the dominant neighbouring scenario by Thm. 5.4:
///
/// * scenario 1 (another cluster gained the new row) dominates iff
///   `Q(C) > ΣR/ΔR`, with slope `Q(C)·ΔR/R`;
/// * otherwise scenario 4 (the row joined an existing cell's measure)
///   dominates, with slope `1/p`.
fn dominant_ls_slope(input: ClusterSensitivityInput, ctx: &SensitivityContext) -> f64 {
    let threshold = if ctx.delta_r > 0.0 {
        ctx.sum_r / ctx.delta_r
    } else {
        f64::INFINITY
    };
    if input.q_c > threshold {
        input.q_c * ctx.delta_r / ctx.r_eff(input.r)
    } else {
        1.0 / ctx.p_eff(input.p)
    }
}

/// Average smooth sensitivity over the sampled clusters (Eq. 9 / Alg. 3
/// lines 2–6): `S_LS_E = (1/s) Σ_i S_LS_E(C_i)` where each per-cluster
/// bound is `max_k e^{−βk}·k·slope_i`.
pub fn smooth_estimator_sensitivity(
    smooth: &SmoothSensitivity,
    clusters: &[ClusterSensitivityInput],
    ctx: &SensitivityContext,
) -> f64 {
    if clusters.is_empty() {
        return 0.0;
    }
    let total: f64 = clusters
        .iter()
        .map(|&c| smooth.smooth_bound_linear(dominant_ls_slope(c, ctx)))
        .sum();
    total / clusters.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_r_matches_formula_and_monotone() {
        let s = 100usize;
        let d1 = delta_r(s, 1);
        assert!((d1 - 0.01).abs() < 1e-12);
        // More dimensions ⇒ larger ΔR (more sub-proportions can shift).
        assert!(delta_r(s, 2) > d1);
        assert!(delta_r(s, 9) > delta_r(s, 5));
        // Bounded by 1.
        assert!(delta_r(2, 64) <= 1.0);
        // Larger S ⇒ smaller ΔR.
        assert!(delta_r(1000, 3) < delta_r(100, 3));
    }

    #[test]
    fn delta_r_regimes() {
        let all = delta_r_for(SensitivityRegime::AllDims, 100, 9, 2);
        let q = delta_r_for(SensitivityRegime::QueryDims, 100, 9, 2);
        assert!(all > q, "all-dims bound must be more conservative");
        assert!((q - delta_r(100, 2)).abs() < 1e-15);
    }

    #[test]
    fn delta_avg_r_takes_max_branch() {
        // Small ΔR: the 1/(N_min+1) branch dominates.
        assert!((delta_avg_r(0.001, 10) - 1.0 / 11.0).abs() < 1e-12);
        // Large ΔR: the ΔR/N_min branch dominates.
        assert!((delta_avg_r(0.9, 2) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn dominant_scenario_switches_at_threshold() {
        let ctx = SensitivityContext::new(5.0, 0.1, 100, 0.5 / 20.0, EstimatorCalibration::PpsEq3);
        // Threshold = sum_r/delta_r = 50.
        let heavy = ClusterSensitivityInput {
            q_c: 100.0,
            r: 0.5,
            p: 0.1,
        };
        let light = ClusterSensitivityInput {
            q_c: 10.0,
            r: 0.5,
            p: 0.1,
        };
        // Scenario 1 for the heavy cluster: slope = 100·0.1/0.5 = 20.
        assert!((dominant_ls_slope(heavy, &ctx) - 20.0).abs() < 1e-12);
        // Scenario 4 for the light cluster: slope = 1/0.1 = 10.
        assert!((dominant_ls_slope(light, &ctx) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn floors_keep_slopes_finite() {
        let ctx = SensitivityContext::new(1.0, 0.05, 100, 0.5 / 10.0, EstimatorCalibration::PpsEq3);
        let degenerate = ClusterSensitivityInput {
            q_c: 1000.0,
            r: 0.0,
            p: 0.0,
        };
        let slope = dominant_ls_slope(degenerate, &ctx);
        assert!(slope.is_finite() && slope > 0.0);
        let light_degenerate = ClusterSensitivityInput {
            q_c: 0.0,
            r: 0.0,
            p: 0.0,
        };
        let slope = dominant_ls_slope(light_degenerate, &ctx);
        assert!(slope.is_finite() && slope > 0.0);
    }

    #[test]
    fn smooth_sensitivity_averages_clusters() {
        let smooth = SmoothSensitivity::new(0.8, 1e-3).unwrap();
        let ctx = SensitivityContext::new(2.0, 0.1, 100, 0.5 / 10.0, EstimatorCalibration::PpsEq3);
        let a = ClusterSensitivityInput {
            q_c: 100.0,
            r: 0.5,
            p: 0.5,
        };
        let b = ClusterSensitivityInput {
            q_c: 1.0,
            r: 0.5,
            p: 0.5,
        };
        let both = smooth_estimator_sensitivity(&smooth, &[a, b], &ctx);
        let only_a = smooth_estimator_sensitivity(&smooth, &[a], &ctx);
        let only_b = smooth_estimator_sensitivity(&smooth, &[b], &ctx);
        assert!((both - (only_a + only_b) / 2.0).abs() < 1e-9);
        assert_eq!(smooth_estimator_sensitivity(&smooth, &[], &ctx), 0.0);
    }

    #[test]
    fn smooth_sensitivity_grows_with_query_mass() {
        // Larger per-cluster aggregates (scenario 1) ⇒ larger sensitivity:
        // the reason SUM answers carry more noise than their magnitude
        // would suggest on small data (§6.6 discussion).
        let smooth = SmoothSensitivity::new(0.8, 1e-3).unwrap();
        let ctx = SensitivityContext::new(2.0, 0.1, 100, 0.5 / 10.0, EstimatorCalibration::PpsEq3);
        let small = ClusterSensitivityInput {
            q_c: 50.0,
            r: 0.5,
            p: 0.5,
        };
        let large = ClusterSensitivityInput {
            q_c: 500.0,
            r: 0.5,
            p: 0.5,
        };
        assert!(
            smooth_estimator_sensitivity(&smooth, &[large], &ctx)
                > smooth_estimator_sensitivity(&smooth, &[small], &ctx)
        );
    }

    #[test]
    fn divisor_follows_calibration() {
        let pps_ctx = SensitivityContext::new(2.0, 0.1, 100, 0.05, EstimatorCalibration::PpsEq3);
        let em_ctx =
            SensitivityContext::new(2.0, 0.1, 100, 0.05, EstimatorCalibration::EmCalibrated);
        // PPS path: raw probability, floored.
        assert_eq!(pps_ctx.divisor(0.3, 0.2), 0.3);
        assert_eq!(pps_ctx.divisor(0.01, 0.2), 0.05);
        // Calibrated path: always the exact EM probability.
        assert_eq!(em_ctx.divisor(0.3, 0.2), 0.2);
        assert_eq!(em_ctx.divisor(0.01, 0.2), 0.2);
        // Degenerate EM probability is clamped away from zero.
        assert!(em_ctx.divisor(0.3, 0.0) > 0.0);
    }

    #[test]
    fn calibrated_slope_bound_dominates_realized_slopes() {
        // A realistic EM distribution: softmax of ε_s·p_j/(2Δp).
        let eps_s = 0.05;
        let dp = delta_p(10);
        let scores = [0.5, 0.3, 0.15, 0.05, 0.0];
        let t = eps_s / (2.0 * dp);
        let weights: Vec<f64> = scores.iter().map(|&p| (t * p).exp()).collect();
        let total: f64 = weights.iter().sum();
        let q: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let q_min = q.iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = em_calibrated_slope_bound(eps_s, dp, scores.len());
        for &qi in &q {
            // Realized calibrated slope ≤ floored-PPS worst case ≤ analytic
            // bound — the orderings the rederivation promises.
            assert!(1.0 / qi <= 1.0 / q_min + 1e-12);
            assert!(
                1.0 / q_min <= bound + 1e-9,
                "1/q_min {} vs {bound}",
                1.0 / q_min
            );
        }
        assert!((bound - 1.0 / em_draw_probability_floor(eps_s, dp, 5)).abs() < 1e-9);
    }

    #[test]
    fn calibrated_inputs_give_tighter_smooth_sensitivity() {
        // Same drawn clusters, scenario-4-dominant (small Q): feeding the
        // exact EM probabilities yields a strictly smaller smooth
        // sensitivity than the floored-PPS divisors whenever the sampler
        // flattened the distribution above the floor.
        let smooth = SmoothSensitivity::new(0.8, 1e-3).unwrap();
        let pps = [0.01, 0.02, 0.4];
        let em = [0.2, 0.25, 0.55]; // flattened towards uniform
        let p_floor = 0.2; // min realized EM probability
        let mk = |probs: &[f64], calibration| {
            let ctx = SensitivityContext::new(0.5, 0.001, 100, p_floor, calibration);
            let inputs: Vec<ClusterSensitivityInput> = probs
                .iter()
                .zip(&pps)
                .map(|(&p, &raw)| ClusterSensitivityInput {
                    q_c: 1.0,
                    r: 0.5,
                    p: ctx.divisor(raw, p),
                })
                .collect();
            smooth_estimator_sensitivity(&smooth, &inputs, &ctx)
        };
        let calibrated = mk(&em, EstimatorCalibration::EmCalibrated);
        let paper = mk(&pps, EstimatorCalibration::PpsEq3);
        assert!(
            calibrated < paper,
            "calibrated {calibrated} should be below paper {paper}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// ΔR is always in (0, 1] and monotone in dimensions.
        #[test]
        fn delta_r_bounds(s in 2usize..10_000, d in 1usize..32) {
            let x = delta_r(s, d);
            prop_assert!(x > 0.0 && x <= 1.0);
            prop_assert!(delta_r(s, d + 1) >= x);
        }

        /// The dominant slope is finite and positive for any inputs.
        #[test]
        fn slope_always_finite(
            q_c in 0.0f64..1e9,
            r in 0.0f64..1.0,
            p in 0.0f64..1.0,
            sum_r in 0.0f64..100.0,
            n_cov in 1usize..1000,
        ) {
            let ctx = SensitivityContext::new(
                sum_r,
                delta_r(100, 4),
                100,
                em_draw_probability_floor(0.0125, 1.0/110.0, n_cov),
                EstimatorCalibration::PpsEq3,
            );
            let slope = dominant_ls_slope(ClusterSensitivityInput { q_c, r, p }, &ctx);
            prop_assert!(slope.is_finite() && slope > 0.0);
        }
    }
}
