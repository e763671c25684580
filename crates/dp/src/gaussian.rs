//! The Gaussian mechanism (extension).
//!
//! Not used by the paper's protocol (which is Laplace-based throughout) but
//! provided as the standard `(ε, δ)`-DP alternative: DP toolkits ship it,
//! and the `repro ablation` noise comparisons use it as a reference point.
//! The classical calibration `σ = Δ·√(2·ln(1.25/δ))/ε` requires `ε < 1`
//! (Dwork & Roth, Thm. A.1); construction rejects anything else rather
//! than silently under-noising.

use rand::Rng;

use crate::{check_delta, check_sensitivity, DpError, Result};

/// Draws one standard-normal sample via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] avoids ln(0); u2 ∈ [0, 1).
    let u1: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The Gaussian mechanism `M(T) = f(T) + N(0, σ²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    sigma: f64,
    epsilon: f64,
    delta: f64,
}

impl GaussianMechanism {
    /// Calibrates `σ` for `(ε, δ)`-DP with `ε ∈ (0, 1)` and `δ ∈ (0, 1)`.
    pub fn new(sensitivity: f64, epsilon: f64, delta: f64) -> Result<Self> {
        check_sensitivity(sensitivity)?;
        check_delta(delta)?;
        if !(epsilon.is_finite() && 0.0 < epsilon && epsilon < 1.0) {
            return Err(DpError::InvalidEpsilon(epsilon));
        }
        if delta <= 0.0 {
            return Err(DpError::InvalidDelta(delta));
        }
        let sigma = sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        Ok(Self {
            sigma,
            epsilon,
            delta,
        })
    }

    /// The calibrated standard deviation.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The budget ε.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability δ.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Releases `value + N(0, σ²)`.
    pub fn release<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        value + self.sigma * standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_out_of_range_parameters() {
        assert!(GaussianMechanism::new(1.0, 1.0, 1e-5).is_err()); // ε must be < 1
        assert!(GaussianMechanism::new(1.0, 0.0, 1e-5).is_err());
        assert!(GaussianMechanism::new(1.0, 0.5, 0.0).is_err()); // δ must be > 0
        assert!(GaussianMechanism::new(-1.0, 0.5, 1e-5).is_err());
        assert!(GaussianMechanism::new(1.0, 0.5, 1e-5).is_ok());
    }

    #[test]
    fn sigma_matches_classical_formula() {
        let m = GaussianMechanism::new(2.0, 0.5, 1e-5).unwrap();
        let expected = 2.0 * (2.0 * (1.25f64 / 1e-5).ln()).sqrt() / 0.5;
        assert!((m.sigma() - expected).abs() < 1e-12);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn release_centers_on_value_with_sigma_spread() {
        let m = GaussianMechanism::new(1.0, 0.5, 1e-4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = m.release(&mut rng, 50.0) - 50.0;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let std = (sq / n as f64).sqrt();
        assert!(mean.abs() < 0.1 * m.sigma());
        assert!((std - m.sigma()).abs() < 0.05 * m.sigma());
    }

    #[test]
    fn gaussian_beats_laplace_tails_at_same_budget() {
        // At equal (ε, δ) the Gaussian has lighter tails than the Laplace
        // with scale Δ/ε for large deviations — sanity of the calibration.
        let m = GaussianMechanism::new(1.0, 0.5, 1e-3).unwrap();
        let laplace_scale = 1.0 / 0.5;
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let threshold = 6.0 * laplace_scale;
        let mut gauss_exceed = 0u32;
        let mut laplace_exceed = 0u32;
        for _ in 0..n {
            if (m.release(&mut rng, 0.0)).abs() > threshold + m.sigma() * 3.0 {
                gauss_exceed += 1;
            }
            if crate::laplace::laplace_noise(&mut rng, laplace_scale).abs()
                > threshold + m.sigma() * 3.0
            {
                laplace_exceed += 1;
            }
        }
        assert!(gauss_exceed <= laplace_exceed + 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Samples are always finite and deterministic per seed.
        #[test]
        fn finite_and_deterministic(
            sens in 0.0f64..1e6,
            eps in 0.01f64..0.99,
            delta_exp in 2u32..9,
            seed in any::<u64>(),
        ) {
            let delta = 10f64.powi(-(delta_exp as i32));
            let m = GaussianMechanism::new(sens, eps, delta).unwrap();
            let a = m.release(&mut StdRng::seed_from_u64(seed), 1.0);
            let b = m.release(&mut StdRng::seed_from_u64(seed), 1.0);
            prop_assert!(a.is_finite());
            prop_assert_eq!(a, b);
        }
    }
}
