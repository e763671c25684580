//! Skewed discrete distributions used by the generators.

use rand::Rng;

use crate::{DataError, Result};

/// A Zipf(n, s) sampler over ranks `0..n` (rank 0 most probable), via
/// precomputed CDF and binary search.
///
/// Real review/engagement data is heavy-tailed; Zipf with `s ∈ [0.8, 1.5]`
/// is the customary stand-in.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Result<Self> {
        if n == 0 {
            return Err(DataError::BadConfig("Zipf needs at least one rank"));
        }
        if !(s.is_finite() && s > 0.0) {
            return Err(DataError::BadConfig("Zipf exponent must be positive"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Self { cdf })
    }

    /// Number of ranks.
    #[inline]
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// A general weighted discrete sampler (multinomial marginals for the
/// Adult-like categorical attributes).
#[derive(Debug, Clone)]
pub struct WeightedDiscrete {
    cdf: Vec<f64>,
}

impl WeightedDiscrete {
    /// Builds from non-negative weights (at least one positive).
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(DataError::BadConfig("weighted sampler needs weights"));
        }
        let mut acc = 0.0f64;
        let mut cdf = Vec::with_capacity(weights.len());
        for &w in weights {
            if !(w.is_finite() && w >= 0.0) {
                return Err(DataError::BadConfig("weights must be non-negative"));
            }
            acc += w;
            cdf.push(acc);
        }
        if acc <= 0.0 {
            return Err(DataError::BadConfig("weights must not all be zero"));
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Ok(Self { cdf })
    }

    /// Number of categories.
    #[inline]
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rejects_bad_config() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, 0.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn zipf_pmf_is_distribution_and_decreasing() {
        let z = Zipf::new(100, 1.1).unwrap();
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15);
        }
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(20, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!(
                (freq - z.pmf(k)).abs() < 0.01,
                "rank {k}: freq {freq} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn weighted_rejects_bad_inputs() {
        assert!(WeightedDiscrete::new(&[]).is_err());
        assert!(WeightedDiscrete::new(&[0.0, 0.0]).is_err());
        assert!(WeightedDiscrete::new(&[1.0, -1.0]).is_err());
        assert!(WeightedDiscrete::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn weighted_empirical_frequencies() {
        let w = WeightedDiscrete::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[w.sample(&mut rng)] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freqs[0] - 0.1).abs() < 0.01);
        assert!((freqs[1] - 0.2).abs() < 0.01);
        assert!((freqs[2] - 0.7).abs() < 0.01);
    }

    #[test]
    fn zero_weight_categories_never_drawn() {
        let w = WeightedDiscrete::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert_eq!(w.sample(&mut rng), 1);
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
        /// Samples are always in range.
        #[test]
        fn zipf_in_range(n in 1usize..1000, s in 0.1f64..3.0, seed in any::<u64>()) {
            let z = Zipf::new(n, s).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn weighted_in_range(
            ws in proptest::collection::vec(0.0f64..10.0, 1..64),
            seed in any::<u64>(),
        ) {
            prop_assume!(ws.iter().sum::<f64>() > 0.0);
            let w = WeightedDiscrete::new(&ws).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(w.sample(&mut rng) < ws.len());
            }
        }
    }
}
