//! The Laplace mechanism (Def. 3.4 of the paper).

use rand::Rng;

use crate::{check_epsilon, check_sensitivity, Result};

/// Draws one sample from `Laplace(0, scale)` by inverse-CDF sampling.
///
/// With `U ~ Uniform(-1/2, 1/2)`, `X = −scale · sign(U) · ln(1 − 2|U|)` is
/// Laplace-distributed with mean 0 and scale `scale`. The uniform draw is
/// clamped away from ±1/2 so `ln` never sees 0.
pub fn laplace_noise<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(scale.is_finite() && scale >= 0.0);
    if scale == 0.0 {
        return 0.0;
    }
    // `gen::<f64>()` yields [0, 1); shift to (-0.5, 0.5) and nudge off the
    // endpoints so `1 - 2|u|` stays strictly positive.
    let mut u: f64 = rng.gen::<f64>() - 0.5;
    const EDGE: f64 = 0.499_999_999_999_9;
    u = u.clamp(-EDGE, EDGE);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln_1p_guard()
}

/// Internal helper: `ln(x)` with a guard that keeps the compiler from
/// folding the clamp away; extracted for readability.
trait LnGuard {
    fn ln_1p_guard(self) -> f64;
}

impl LnGuard for f64 {
    #[inline]
    fn ln_1p_guard(self) -> f64 {
        self.max(f64::MIN_POSITIVE).ln()
    }
}

/// The Laplace mechanism `M(T) = f(T) + Lap(Δf/ε)`.
///
/// The struct is configured once per release point (sensitivity + budget)
/// and can then perturb any number of values drawn from *disjoint* data
/// (parallel composition) or be accounted sequentially by the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    sensitivity: f64,
    epsilon: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism with global (or smooth-bound) sensitivity
    /// `sensitivity` and privacy budget `epsilon`.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self> {
        check_sensitivity(sensitivity)?;
        check_epsilon(epsilon)?;
        Ok(Self {
            sensitivity,
            epsilon,
        })
    }

    /// The noise scale `b = Δf/ε`.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// The configured sensitivity.
    #[inline]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The configured budget.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Releases `value + Lap(Δf/ε)`.
    pub fn release<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        value + laplace_noise(rng, self.scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(LaplaceMechanism::new(-1.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(1.0, f64::NAN).is_err());
        assert!(LaplaceMechanism::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn zero_scale_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = LaplaceMechanism::new(0.0, 1.0).unwrap();
        assert_eq!(m.release(&mut rng, 42.0), 42.0);
    }

    #[test]
    fn noise_is_centered_and_scaled() {
        // Mean ≈ 0, E|X| = b for Laplace(0, b).
        let mut rng = StdRng::seed_from_u64(42);
        let b = 3.0;
        let n = 200_000;
        let (mut sum, mut abs_sum) = (0.0, 0.0);
        for _ in 0..n {
            let x = laplace_noise(&mut rng, b);
            sum += x;
            abs_sum += x.abs();
        }
        let mean = sum / n as f64;
        let mean_abs = abs_sum / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!(
            (mean_abs - b).abs() < 0.05,
            "E|X| {mean_abs} too far from {b}"
        );
    }

    #[test]
    fn variance_matches_2b_squared() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = 2.0;
        let n = 200_000;
        let var: f64 = (0..n)
            .map(|_| {
                let x = laplace_noise(&mut rng, b);
                x * x
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (var - 2.0 * b * b).abs() < 0.2,
            "var {var} vs {}",
            2.0 * b * b
        );
    }

    #[test]
    fn release_adds_noise_around_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LaplaceMechanism::new(1.0, 0.5).unwrap();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.release(&mut rng, 10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let m = LaplaceMechanism::new(2.0, 1.0).unwrap();
        for _ in 0..32 {
            assert_eq!(m.release(&mut a, 1.0), m.release(&mut b, 1.0));
        }
    }

    /// Empirical DP check: for two adjacent counts (differing by the
    /// sensitivity), the histogram likelihood ratio respects e^ε within
    /// statistical slack.
    #[test]
    fn empirical_privacy_ratio() {
        let eps = 1.0;
        let m = LaplaceMechanism::new(1.0, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 400_000;
        let bucket = |x: f64| (x.floor() as i64).clamp(-20, 20);
        let mut h0 = std::collections::HashMap::new();
        let mut h1 = std::collections::HashMap::new();
        for _ in 0..n {
            *h0.entry(bucket(m.release(&mut rng, 0.0))).or_insert(0u64) += 1;
            *h1.entry(bucket(m.release(&mut rng, 1.0))).or_insert(0u64) += 1;
        }
        for (k, &c0) in &h0 {
            let c1 = *h1.get(k).unwrap_or(&0);
            if c0 > 2000 && c1 > 2000 {
                let ratio = c0 as f64 / c1 as f64;
                // Buckets are 1 wide and sensitivities 1 apart, so ratios are
                // bounded by e^{2ε}; allow generous sampling slack.
                assert!(
                    ratio < (2.0 * eps).exp() * 1.3 && ratio > (-2.0 * eps).exp() / 1.3,
                    "bucket {k}: ratio {ratio}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Noise is always finite for any valid scale.
        #[test]
        fn noise_finite(seed in any::<u64>(), scale in 0.0f64..1e9) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = laplace_noise(&mut rng, scale);
            prop_assert!(x.is_finite());
        }

        /// Released values are finite and deterministic per seed.
        #[test]
        fn release_finite(
            seed in any::<u64>(),
            value in -1e12f64..1e12,
            sens in 0.0f64..1e6,
            eps in 1e-3f64..10.0,
        ) {
            let m = LaplaceMechanism::new(sens, eps).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = m.release(&mut rng, value);
            let mut rng = StdRng::seed_from_u64(seed);
            let b = m.release(&mut rng, value);
            prop_assert!(a.is_finite());
            prop_assert_eq!(a, b);
        }
    }
}
