//! The Exponential mechanism (Def. 3.5 of the paper).
//!
//! Selects candidates with probability proportional to
//! `exp(ε·L(e) / (2·ΔL))`. The federated sampler (Alg. 2) uses cluster
//! sampling probabilities as scores with sensitivity
//! `Δp = 1/(N_min(N_min+1))` (Thm. 5.2) — a *tiny* ΔL, so the exponent can
//! reach thousands. Direct exponentiation overflows; we therefore sample
//! with the Gumbel-max trick (`argmax_i logits_i + G_i` is distributed as
//! the softmax of the logits), which is exact and stable for any logit
//! magnitude.

use rand::Rng;

use crate::{check_epsilon, DpError, Result};

/// Exponential mechanism over a candidate set with externally supplied
/// scores.
#[derive(Debug, Clone)]
pub struct ExponentialMechanism {
    logits: Vec<f64>,
}

impl ExponentialMechanism {
    /// Prepares a mechanism that selects index `i` with probability
    /// ∝ `exp(epsilon · scores[i] / (2 · sensitivity))`.
    ///
    /// `sensitivity` is the score function's sensitivity `ΔL`; it must be
    /// strictly positive (a zero-sensitivity score is a constant and needs
    /// no privacy).
    pub fn new(scores: &[f64], sensitivity: f64, epsilon: f64) -> Result<Self> {
        if scores.is_empty() {
            return Err(DpError::EmptyCandidates);
        }
        check_epsilon(epsilon)?;
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(DpError::InvalidSensitivity(sensitivity));
        }
        let mut logits = Vec::with_capacity(scores.len());
        for (index, &s) in scores.iter().enumerate() {
            if !s.is_finite() {
                return Err(DpError::InvalidScore { index, score: s });
            }
            logits.push(epsilon * s / (2.0 * sensitivity));
        }
        Ok(Self { logits })
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.logits.len()
    }

    /// Whether the candidate set is empty (never true post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.logits.is_empty()
    }

    /// Exact selection probabilities (normalized in a numerically stable
    /// way); exposed for tests and for the estimator diagnostics.
    pub fn probabilities(&self) -> Vec<f64> {
        let max = self
            .logits
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = self.logits.iter().map(|&l| (l - max).exp()).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Draws one candidate index via Gumbel-max.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut best = 0usize;
        let mut best_key = f64::NEG_INFINITY;
        for (i, &logit) in self.logits.iter().enumerate() {
            let key = logit + gumbel(rng);
            if key > best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Draws `s` candidates **with replacement** (independent selections).
    ///
    /// Alg. 2 makes `s` selections, each charged `ε_s = ε_S/s`; drawing with
    /// replacement matches the Hansen–Hurwitz estimator downstream.
    pub fn select_many<R: Rng + ?Sized>(&self, rng: &mut R, s: usize) -> Vec<usize> {
        (0..s).map(|_| self.select(rng)).collect()
    }
}

/// Standard Gumbel(0,1) sample: `−ln(−ln U)`, `U ∈ (0,1)`.
#[inline]
fn gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -(-u.ln()).max(f64::MIN_POSITIVE).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            ExponentialMechanism::new(&[], 1.0, 1.0),
            Err(DpError::EmptyCandidates)
        ));
        assert!(ExponentialMechanism::new(&[1.0], 0.0, 1.0).is_err());
        assert!(ExponentialMechanism::new(&[1.0], 1.0, -1.0).is_err());
        assert!(matches!(
            ExponentialMechanism::new(&[f64::NAN], 1.0, 1.0),
            Err(DpError::InvalidScore { index: 0, .. })
        ));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = ExponentialMechanism::new(&[0.1, 0.5, 0.9], 0.01, 1.0).unwrap();
        let p = m.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn huge_logits_do_not_overflow() {
        // Δp tiny as in Thm. 5.2 with N_min = 2: Δp = 1/6 and big ε blow up
        // naive exp(); probabilities must stay finite and normalized.
        let m = ExponentialMechanism::new(&[1.0, 0.999, 0.0], 1e-6, 10.0).unwrap();
        let p = m.probabilities();
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The top candidate dominates overwhelmingly.
        assert!(p[0] > 0.9);
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let m = ExponentialMechanism::new(&[0.0, 1.0, 2.0], 1.0, 2.0).unwrap();
        let p = m.probabilities();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 200_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[m.select(&mut rng)] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - p[i]).abs() < 0.01,
                "candidate {i}: freq {freq} vs p {}",
                p[i]
            );
        }
    }

    #[test]
    fn uniform_scores_give_uniform_selection() {
        let m = ExponentialMechanism::new(&[0.5; 4], 0.1, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[m.select(&mut rng)] += 1;
        }
        for c in counts {
            let freq = c as f64 / n as f64;
            assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
        }
    }

    #[test]
    fn select_many_length_and_range() {
        let m = ExponentialMechanism::new(&[0.2, 0.8], 0.1, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let picks = m.select_many(&mut rng, 10);
        assert_eq!(picks.len(), 10);
        assert!(picks.iter().all(|&i| i < 2));
    }

    #[test]
    fn deterministic_under_seed() {
        let m = ExponentialMechanism::new(&[0.3, 0.3, 0.4], 0.05, 1.0).unwrap();
        let a: Vec<_> = m.select_many(&mut StdRng::seed_from_u64(1), 20);
        let b: Vec<_> = m.select_many(&mut StdRng::seed_from_u64(1), 20);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Probabilities are a distribution for any finite scores.
        #[test]
        fn probs_are_distribution(
            scores in proptest::collection::vec(-1e3f64..1e3, 1..64),
            sens in 1e-6f64..10.0,
            eps in 1e-3f64..5.0,
        ) {
            let m = ExponentialMechanism::new(&scores, sens, eps).unwrap();
            let p = m.probabilities();
            prop_assert_eq!(p.len(), scores.len());
            prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }

        /// Selection always returns a valid index.
        #[test]
        fn select_in_range(
            scores in proptest::collection::vec(0.0f64..1.0, 1..32),
            seed in any::<u64>(),
        ) {
            let m = ExponentialMechanism::new(&scores, 0.01, 1.0).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            prop_assert!(m.select(&mut rng) < scores.len());
        }
    }
}
