//! Fixed-point encoding of reals into field elements.
//!
//! Estimates and smooth sensitivities are reals; additive sharing works
//! over `GF(p)`. We embed `x` as `round(x · 2^FRAC_BITS) mod p`, with
//! negative values wrapping into the upper half of the field (two's-
//! complement style). Decoding treats elements above `p/2` as negative.

use crate::field::{Fp, MODULUS};
use crate::{Result, SmcError};

/// Fractional bits of the fixed-point embedding (≈ 6 decimal digits).
pub const FRAC_BITS: u32 = 20;

/// The scaling factor `2^FRAC_BITS`.
pub const SCALE: f64 = (1u64 << FRAC_BITS) as f64;

/// Largest magnitude representable: `(p−1)/2 / 2^FRAC_BITS`.
#[cfg(test)]
fn max_magnitude() -> f64 {
    ((MODULUS - 1) / 2) as f64 / SCALE
}

/// Encodes a real into the field.
pub fn encode_fixed(x: f64) -> Result<Fp> {
    if !x.is_finite() {
        return Err(SmcError::NonFinite(x));
    }
    let scaled = x * SCALE;
    if scaled.abs() >= ((MODULUS - 1) / 2) as f64 {
        return Err(SmcError::FixedPointOverflow(x));
    }
    let q = scaled.round() as i64;
    if q >= 0 {
        Ok(Fp::new(q as u64))
    } else {
        Ok(-Fp::new(q.unsigned_abs()))
    }
}

/// Decodes a field element back to a real.
pub fn decode_fixed(f: Fp) -> f64 {
    let v = f.value();
    if v > MODULUS / 2 {
        -((MODULUS - v) as f64) / SCALE
    } else {
        v as f64 / SCALE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_positive_and_negative() {
        for &x in &[0.0, 1.0, -1.0, 3.25125, -2.75875, 1e6, -1e6, 0.000001] {
            let f = encode_fixed(x).unwrap();
            let back = decode_fixed(f);
            assert!((back - x).abs() <= 1.0 / SCALE, "{x} -> {back}");
        }
    }

    #[test]
    fn rejects_overflow_and_nonfinite() {
        assert!(matches!(
            encode_fixed(1e30),
            Err(SmcError::FixedPointOverflow(_))
        ));
        assert!(matches!(
            encode_fixed(f64::NAN),
            Err(SmcError::NonFinite(_))
        ));
        assert!(matches!(
            encode_fixed(f64::INFINITY),
            Err(SmcError::NonFinite(_))
        ));
    }

    #[test]
    fn addition_homomorphism() {
        // encode(a) + encode(b) decodes to a + b — the property that makes
        // additive sharing of fixed-point values sum correctly.
        let a = 1234.5678;
        let b = -987.6543;
        let sum = decode_fixed(encode_fixed(a).unwrap() + encode_fixed(b).unwrap());
        assert!((sum - (a + b)).abs() <= 2.0 / SCALE);
    }

    #[test]
    fn max_magnitude_is_encodable() {
        let m = max_magnitude() * 0.999;
        assert!(encode_fixed(m).is_ok());
        assert!(encode_fixed(-m).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Round-trip error is bounded by half an ulp of the encoding.
        #[test]
        fn round_trip_error_bounded(x in -1e9f64..1e9) {
            let back = decode_fixed(encode_fixed(x).unwrap());
            prop_assert!((back - x).abs() <= 0.5 / SCALE + f64::EPSILON * x.abs());
        }

        /// Homomorphic addition over random pairs.
        #[test]
        fn homomorphic_add(a in -1e8f64..1e8, b in -1e8f64..1e8) {
            let sum = decode_fixed(encode_fixed(a).unwrap() + encode_fixed(b).unwrap());
            prop_assert!((sum - (a + b)).abs() <= 2.0 / SCALE);
        }
    }
}
