//! Additive `n`-party secret sharing.
//!
//! A secret `x ∈ GF(p)` is split into `n` shares summing to `x`; any
//! `n − 1` shares are uniformly random and reveal nothing. Addition of
//! shared values is local (share-wise), which is the only homomorphism the
//! protocol's release mode needs (summing local estimates, step 7).

use rand::Rng;

use crate::field::Fp;
use crate::{Result, SmcError};

/// Splits `secret` into `n` additive shares.
pub fn share_value<R: Rng + ?Sized>(rng: &mut R, secret: Fp, n: usize) -> Result<Vec<Fp>> {
    if n < 2 {
        return Err(SmcError::TooFewParties(n));
    }
    let mut shares = Vec::with_capacity(n);
    let mut acc = Fp::ZERO;
    for _ in 0..n - 1 {
        let s = Fp::random(rng);
        acc += s;
        shares.push(s);
    }
    shares.push(secret - acc);
    Ok(shares)
}

/// Reconstructs a secret from all its shares.
pub fn reconstruct(shares: &[Fp]) -> Fp {
    shares.iter().fold(Fp::ZERO, |acc, &s| acc + s)
}

/// A value held in shared form across `n` parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedValue {
    shares: Vec<Fp>,
}

impl SharedValue {
    /// Shares `secret` among `n` parties.
    pub fn share<R: Rng + ?Sized>(rng: &mut R, secret: Fp, n: usize) -> Result<Self> {
        Ok(Self {
            shares: share_value(rng, secret, n)?,
        })
    }

    /// Number of parties.
    #[inline]
    pub fn n_parties(&self) -> usize {
        self.shares.len()
    }

    /// Local (share-wise) addition: `[x] + [y] = [x + y]`.
    pub fn add(&self, other: &SharedValue) -> Result<SharedValue> {
        if self.n_parties() != other.n_parties() {
            return Err(SmcError::PartyMismatch {
                left: self.n_parties(),
                right: other.n_parties(),
            });
        }
        Ok(SharedValue {
            shares: self
                .shares
                .iter()
                .zip(&other.shares)
                .map(|(&a, &b)| a + b)
                .collect(),
        })
    }

    /// Local multiplication by a *public* scalar: `c·[x] = [c·x]`.
    pub fn scale(&self, c: Fp) -> SharedValue {
        SharedValue {
            shares: self.shares.iter().map(|&s| s * c).collect(),
        }
    }

    /// Opens the value (all parties publish their shares).
    pub fn open(&self) -> Fp {
        reconstruct(&self.shares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn share_and_reconstruct() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = Fp::new(123_456_789);
        for n in 2..8 {
            let shares = share_value(&mut rng, secret, n).unwrap();
            assert_eq!(shares.len(), n);
            assert_eq!(reconstruct(&shares), secret);
        }
    }

    #[test]
    fn rejects_single_party() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            share_value(&mut rng, Fp::ONE, 1),
            Err(SmcError::TooFewParties(1))
        ));
    }

    #[test]
    fn shares_look_random() {
        // The same secret shared twice yields different share vectors
        // (overwhelmingly), and individual shares span the field.
        let mut rng = StdRng::seed_from_u64(2);
        let secret = Fp::new(42);
        let a = share_value(&mut rng, secret, 4).unwrap();
        let b = share_value(&mut rng, secret, 4).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn addition_homomorphism() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Fp::new(1000);
        let y = Fp::new(2345);
        let sx = SharedValue::share(&mut rng, x, 4).unwrap();
        let sy = SharedValue::share(&mut rng, y, 4).unwrap();
        assert_eq!(sx.add(&sy).unwrap().open(), x + y);
    }

    #[test]
    fn scalar_multiplication() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Fp::new(77);
        let sx = SharedValue::share(&mut rng, x, 3).unwrap();
        assert_eq!(sx.scale(Fp::new(10)).open(), Fp::new(770));
    }

    #[test]
    fn party_mismatch_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = SharedValue::share(&mut rng, Fp::ONE, 3).unwrap();
        let b = SharedValue::share(&mut rng, Fp::ONE, 4).unwrap();
        assert!(matches!(
            a.add(&b),
            Err(SmcError::PartyMismatch { left: 3, right: 4 })
        ));
    }

    #[test]
    fn partial_shares_do_not_determine_secret() {
        // Statistical smoke test: fixing all but one share, the remaining
        // share varies uniformly with the sharing randomness, so the sum of
        // any strict subset is independent of the secret. We verify that two
        // different secrets can produce identical n−1 prefixes only through
        // differing last shares.
        let mut rng = StdRng::seed_from_u64(6);
        let s1 = share_value(&mut rng, Fp::new(1), 3).unwrap();
        let s2 = share_value(&mut rng, Fp::new(2), 3).unwrap();
        // Reconstruct with swapped last shares gives swapped secrets offset.
        let forged = reconstruct(&[s1[0], s1[1], s2[2]]);
        assert_ne!(forged, Fp::new(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Sharing always reconstructs, for any secret, party count, seed.
        #[test]
        fn always_reconstructs(
            secret in any::<u64>(),
            n in 2usize..16,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = Fp::new(secret);
            let shares = share_value(&mut rng, s, n).unwrap();
            prop_assert_eq!(reconstruct(&shares), s);
        }

        /// Share-wise sums reconstruct to the sum of secrets (k values).
        #[test]
        fn sum_homomorphism(
            secrets in proptest::collection::vec(any::<u64>(), 1..10),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5;
            let mut acc: Option<SharedValue> = None;
            let mut expected = Fp::ZERO;
            for &v in &secrets {
                let f = Fp::new(v);
                expected += f;
                let sv = SharedValue::share(&mut rng, f, n).unwrap();
                acc = Some(match acc {
                    None => sv,
                    Some(a) => a.add(&sv).unwrap(),
                });
            }
            prop_assert_eq!(acc.unwrap().open(), expected);
        }
    }
}
