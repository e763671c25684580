//! Arithmetic in `GF(p)` for the Mersenne prime `p = 2^61 − 1`.
//!
//! Additive secret shares live in this field. A Mersenne modulus keeps
//! reduction branch-light (`x mod p = (x & p) + (x >> 61)`, iterated), and
//! 61 bits leave ample headroom for the fixed-point encoding of estimates.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::{Result, SmcError};

/// The field modulus `p = 2^61 − 1` (a Mersenne prime).
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of `GF(2^61 − 1)`; the inner value is always `< MODULUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Creates an element, reducing `v` modulo `p`.
    #[inline]
    pub fn new(v: u64) -> Self {
        Fp(reduce64(v))
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// A uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling over 61 bits keeps the distribution exactly
        // uniform (the acceptance probability is 1 − 1/2^61).
        loop {
            let v = rng.gen::<u64>() & MODULUS;
            if v < MODULUS {
                return Fp(v);
            }
        }
    }

    /// Modular exponentiation by squaring.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^{p−2}`).
    pub fn inverse(self) -> Result<Self> {
        if self.0 == 0 {
            return Err(SmcError::NotInvertible);
        }
        Ok(self.pow(MODULUS - 2))
    }
}

/// Reduces a `u64` modulo the Mersenne prime.
#[inline]
fn reduce64(x: u64) -> u64 {
    let mut r = (x & MODULUS) + (x >> 61);
    if r >= MODULUS {
        r -= MODULUS;
    }
    r
}

/// Reduces a `u128` product modulo the Mersenne prime.
#[inline]
fn reduce128(x: u128) -> u64 {
    let lo = (x as u64) & MODULUS;
    let hi = x >> 61;
    // hi < 2^67, fold once more.
    let hi_lo = (hi as u64) & MODULUS;
    let hi_hi = (hi >> 61) as u64;
    let mut r = lo as u128 + hi_lo as u128 + hi_hi as u128;
    while r >= MODULUS as u128 {
        r -= MODULUS as u128;
    }
    r as u64
}

impl Add for Fp {
    type Output = Fp;
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        let mut s = self.0 + rhs.0;
        if s >= MODULUS {
            s -= MODULUS;
        }
        Fp(s)
    }
}

impl AddAssign for Fp {
    #[inline]
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl Sub for Fp {
    type Output = Fp;
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + MODULUS - rhs.0
        };
        Fp(s)
    }
}

impl SubAssign for Fp {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl Neg for Fp {
    type Output = Fp;
    #[inline]
    fn neg(self) -> Fp {
        if self.0 == 0 {
            self
        } else {
            Fp(MODULUS - self.0)
        }
    }
}

impl Mul for Fp {
    type Output = Fp;
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl MulAssign for Fp {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_reduces() {
        assert_eq!(Fp::new(MODULUS).value(), 0);
        assert_eq!(Fp::new(MODULUS + 5).value(), 5);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MODULUS);
    }

    #[test]
    fn additive_group_laws() {
        let a = Fp::new(MODULUS - 1);
        let b = Fp::new(2);
        assert_eq!((a + b).value(), 1);
        assert_eq!((a + (-a)).value(), 0);
        assert_eq!((b - a).value(), 3);
        assert_eq!((a - a).value(), 0);
        assert_eq!((-Fp::ZERO).value(), 0);
    }

    #[test]
    fn multiplication_wraps_correctly() {
        // (p−1)² mod p = 1 since p−1 ≡ −1.
        let a = Fp::new(MODULUS - 1);
        assert_eq!((a * a).value(), 1);
        assert_eq!((Fp::new(3) * Fp::new(7)).value(), 21);
        assert_eq!((a * Fp::ZERO).value(), 0);
    }

    #[test]
    fn pow_and_fermat() {
        let a = Fp::new(123_456_789);
        assert_eq!(a.pow(0), Fp::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a * a);
        // Fermat: a^{p−1} = 1.
        assert_eq!(a.pow(MODULUS - 1), Fp::ONE);
    }

    #[test]
    fn inverse_works() {
        let a = Fp::new(987_654_321);
        let inv = a.inverse().unwrap();
        assert_eq!(a * inv, Fp::ONE);
        assert!(matches!(Fp::ZERO.inverse(), Err(SmcError::NotInvertible)));
    }

    #[test]
    fn random_is_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut low = 0u32;
        for _ in 0..1000 {
            let x = Fp::random(&mut rng);
            assert!(x.value() < MODULUS);
            if x.value() < MODULUS / 2 {
                low += 1;
            }
        }
        assert!((350..=650).contains(&low), "low half hit {low}/1000 times");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_fp() -> impl Strategy<Value = Fp> {
        any::<u64>().prop_map(Fp::new)
    }

    proptest! {
        #[test]
        fn add_commutative_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn mul_commutative_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributive(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_is_add_neg(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn mul_matches_u128_reference(x in any::<u64>(), y in any::<u64>()) {
            let a = Fp::new(x);
            let b = Fp::new(y);
            let expected = ((a.value() as u128 * b.value() as u128) % MODULUS as u128) as u64;
            prop_assert_eq!((a * b).value(), expected);
        }

        #[test]
        fn inverse_round_trips(x in 1u64..MODULUS) {
            let a = Fp::new(x);
            prop_assert_eq!(a * a.inverse().unwrap(), Fp::ONE);
        }
    }
}
