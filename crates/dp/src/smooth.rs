//! Smooth-sensitivity framework (Defs. 3.6–3.8, Appendix B of the paper).
//!
//! When a query's global sensitivity is unbounded — as the paper proves for
//! the Hansen–Hurwitz estimator `E` (Thm. 5.3) — noise must be calibrated to
//! a *smooth upper bound* of the local sensitivity:
//!
//! ```text
//! S_LS_f(T) = max_{k = 0,1,…} exp(−βk) · LS_f(T)^k,   β = ε / (2·ln(2/δ))
//! ```
//!
//! For the estimator, both dominant neighbouring scenarios give local
//! sensitivities that grow *linearly* in the distance `k` (App. B.2):
//! scenario 1 gives `k·Q(C)·ΔR/R` and scenario 4 gives `k·(1/p)`, so the
//! scan terminates once the exponential decay dominates, at
//! `k > 1/(1 − e^{−β})` (App. B.3 — note the appendix's `e^β` is a sign
//! typo: the decay factor is `e^{−β}` and the displayed derivation
//! `(k−1)/k > e^{−β}` yields the bound used here).

use rand::Rng;

use crate::laplace::laplace_noise;
use crate::{check_delta, check_epsilon, DpError, Result};

/// Smooth-sensitivity calculator for one `(ε, δ)` release budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothSensitivity {
    epsilon: f64,
    delta: f64,
    beta: f64,
}

impl SmoothSensitivity {
    /// Creates the calculator; requires `ε > 0` and `δ ∈ (0, 1)` (pure DP
    /// admits no smooth bound).
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        if delta == 0.0 {
            return Err(DpError::SmoothNeedsPositiveDelta);
        }
        let beta = epsilon / (2.0 * (2.0 / delta).ln());
        Ok(Self {
            epsilon,
            delta,
            beta,
        })
    }

    /// The smoothing parameter `β = ε / (2 ln(2/δ))`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The release budget ε.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability δ.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Largest distance `k` worth scanning (App. B.3):
    /// `k_stop = ⌈1/(1 − e^{−β})⌉ + 1`.
    ///
    /// Valid whenever `LS^k` grows at most linearly in `k`, which holds for
    /// both estimator scenarios. Guarded against β ≈ 0 blow-up by capping at
    /// a defensive constant — β that small means δ or ε are degenerate and
    /// the caller's parameters deserve scrutiny, not an endless loop.
    fn k_stop(&self) -> u64 {
        const CAP: u64 = 1 << 22;
        let denom = 1.0 - (-self.beta).exp();
        if denom <= 0.0 {
            return CAP;
        }
        let k = (1.0 / denom).ceil() as u64 + 1;
        k.min(CAP)
    }

    /// Computes `max_{k=0..k_stop} e^{−βk}·ls_at_k(k)` for an arbitrary
    /// non-decreasing local-sensitivity profile.
    #[cfg(test)]
    fn smooth_bound<F>(&self, ls_at_k: F) -> f64
    where
        F: Fn(u64) -> f64,
    {
        let mut best = 0.0f64;
        for k in 0..=self.k_stop() {
            let v = (-self.beta * k as f64).exp() * ls_at_k(k);
            if v > best {
                best = v;
            }
        }
        best
    }

    /// Specialized smooth bound for a *linear* profile `LS^k = k·slope`
    /// (both estimator scenarios, App. B.2).
    ///
    /// `k ↦ k·e^{−βk}` is unimodal with continuous maximizer `k* = 1/β`, so
    /// only `⌊k*⌋` and `⌈k*⌉` (clamped to `[0, k_stop]`) can attain the
    /// integer maximum — an O(1) evaluation the harness uses in hot loops.
    pub fn smooth_bound_linear(&self, slope: f64) -> f64 {
        debug_assert!(slope.is_finite() && slope >= 0.0);
        if slope == 0.0 {
            return 0.0;
        }
        let k_star = 1.0 / self.beta;
        let k_stop = self.k_stop();
        let candidates = [
            (k_star.floor() as u64).min(k_stop),
            (k_star.ceil() as u64).min(k_stop),
            1, // k = 0 contributes 0 for a linear profile; k = 1 is the floor.
        ];
        let mut best = 0.0f64;
        for &k in &candidates {
            let v = (-self.beta * k as f64).exp() * k as f64 * slope;
            if v > best {
                best = v;
            }
        }
        best
    }

    /// Laplace noise scale calibrated to a smooth bound: `2·S_LS/ε`
    /// (Alg. 3 line 10).
    #[inline]
    fn noise_scale(&self, smooth_ls: f64) -> f64 {
        2.0 * smooth_ls / self.epsilon
    }

    /// Releases `value` with smooth-sensitivity-calibrated Laplace noise.
    pub fn release<R: Rng + ?Sized>(&self, rng: &mut R, value: f64, smooth_ls: f64) -> f64 {
        value + laplace_noise(rng, self.noise_scale(smooth_ls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_pure_dp() {
        assert!(matches!(
            SmoothSensitivity::new(1.0, 0.0),
            Err(DpError::SmoothNeedsPositiveDelta)
        ));
        assert!(SmoothSensitivity::new(0.0, 1e-3).is_err());
        assert!(SmoothSensitivity::new(1.0, 1.5).is_err());
    }

    #[test]
    fn beta_formula() {
        let s = SmoothSensitivity::new(0.8, 1e-3).unwrap();
        let expected = 0.8 / (2.0 * (2.0f64 / 1e-3).ln());
        assert!((s.beta() - expected).abs() < 1e-15);
    }

    #[test]
    fn k_stop_terminates_and_covers_max() {
        let s = SmoothSensitivity::new(0.8, 1e-3).unwrap();
        let k_stop = s.k_stop();
        // The continuous maximizer 1/β must be within the scanned range.
        assert!((1.0 / s.beta()) < k_stop as f64);
        assert!(k_stop < 1 << 22);
    }

    #[test]
    fn linear_matches_exhaustive_scan() {
        for &(eps, delta) in &[(0.8, 1e-3), (0.1, 1e-6), (2.0, 1e-2)] {
            let s = SmoothSensitivity::new(eps, delta).unwrap();
            let slope = 3.7;
            let scanned = s.smooth_bound(|k| k as f64 * slope);
            let closed = s.smooth_bound_linear(slope);
            assert!(
                (scanned - closed).abs() < 1e-9 * scanned.max(1.0),
                "eps={eps} delta={delta}: scan {scanned} vs closed {closed}"
            );
        }
    }

    #[test]
    fn smooth_bound_dominates_local_sensitivity() {
        // S_LS ≥ e^{−β·k}·LS^k for every k by definition; in particular it
        // upper-bounds the distance-1 local sensitivity up to the e^{−β}
        // factor that the framework requires.
        let s = SmoothSensitivity::new(1.0, 1e-3).unwrap();
        let slope = 5.0;
        let bound = s.smooth_bound_linear(slope);
        assert!(bound >= (-s.beta()).exp() * slope);
    }

    #[test]
    fn zero_slope_zero_bound() {
        let s = SmoothSensitivity::new(1.0, 1e-3).unwrap();
        assert_eq!(s.smooth_bound_linear(0.0), 0.0);
        assert_eq!(s.smooth_bound(|_| 0.0), 0.0);
    }

    #[test]
    fn noise_scale_is_two_s_over_eps() {
        let s = SmoothSensitivity::new(0.5, 1e-3).unwrap();
        assert!((s.noise_scale(3.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn release_centers_on_value() {
        let s = SmoothSensitivity::new(1.0, 1e-3).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| s.release(&mut rng, 100.0, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn smaller_beta_larger_k_stop() {
        let tight = SmoothSensitivity::new(2.0, 1e-2).unwrap();
        let loose = SmoothSensitivity::new(0.1, 1e-6).unwrap();
        assert!(loose.beta() < tight.beta());
        assert!(loose.k_stop() > tight.k_stop());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The closed-form linear bound always equals the exhaustive scan.
        #[test]
        fn linear_closed_form_correct(
            eps in 0.05f64..4.0,
            delta_exp in 1u32..9,
            slope in 0.0f64..1e6,
        ) {
            let delta = 10f64.powi(-(delta_exp as i32));
            let s = SmoothSensitivity::new(eps, delta).unwrap();
            let scanned = s.smooth_bound(|k| k as f64 * slope);
            let closed = s.smooth_bound_linear(slope);
            prop_assert!((scanned - closed).abs() <= 1e-9 * scanned.max(1.0));
        }

        /// The smooth bound is monotone in the slope.
        #[test]
        fn monotone_in_slope(
            eps in 0.05f64..4.0,
            a in 0.0f64..1e3,
            b in 0.0f64..1e3,
        ) {
            let s = SmoothSensitivity::new(eps, 1e-3).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(s.smooth_bound_linear(lo) <= s.smooth_bound_linear(hi) + 1e-12);
        }
    }
}
