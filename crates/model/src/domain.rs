//! Discrete, totally ordered attribute domains.

use crate::error::ModelError;
use crate::value::Value;

/// A contiguous integer domain `|d| = {min, min+1, …, max}`.
///
/// The paper writes `||d||` for the domain size; [`Domain::size`] returns it.
/// Categorical attributes are dictionary-encoded to `0..k-1` before entering
/// the system, so a contiguous range loses no generality while keeping
/// metadata lookups branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain {
    min: Value,
    max: Value,
}

impl Domain {
    /// Creates a domain spanning `[min, max]` inclusive.
    pub fn new(min: Value, max: Value) -> Result<Self, ModelError> {
        if min > max {
            return Err(ModelError::InvalidDomain { min, max });
        }
        Ok(Self { min, max })
    }

    /// Domain covering `0..=k-1`, the natural encoding for a categorical
    /// attribute with `k` distinct labels.
    #[cfg(test)]
    fn categorical(k: u64) -> Self {
        debug_assert!(k > 0, "categorical domain needs at least one label");
        Self {
            min: 0,
            max: (k.max(1) - 1) as Value,
        }
    }

    /// Smallest value of the domain.
    #[inline]
    pub fn min(&self) -> Value {
        self.min
    }

    /// Largest value of the domain.
    #[inline]
    pub fn max(&self) -> Value {
        self.max
    }

    /// Number of distinct values, `||d||`.
    #[inline]
    pub fn size(&self) -> u64 {
        (self.max - self.min) as u64 + 1
    }

    /// Whether `v` belongs to the domain.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        self.min <= v && v <= self.max
    }

    /// Clamps `v` into the domain.
    #[inline]
    pub fn clamp(&self, v: Value) -> Value {
        v.clamp(self.min, self.max)
    }

    /// Iterates over every value of the domain in ascending order.
    ///
    /// Intended for small (categorical) domains, e.g. when the NBC attack
    /// enumerates every sensitive-attribute value.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.min..=self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_inverted_bounds() {
        assert!(matches!(
            Domain::new(3, 1),
            Err(ModelError::InvalidDomain { min: 3, max: 1 })
        ));
    }

    #[test]
    fn size_counts_inclusively() {
        assert_eq!(Domain::new(0, 0).unwrap().size(), 1);
        assert_eq!(Domain::new(-2, 2).unwrap().size(), 5);
        assert_eq!(Domain::categorical(7).size(), 7);
    }

    #[test]
    fn contains_and_clamp() {
        let d = Domain::new(10, 20).unwrap();
        assert!(d.contains(10) && d.contains(20));
        assert!(!d.contains(9) && !d.contains(21));
        assert_eq!(d.clamp(5), 10);
        assert_eq!(d.clamp(25), 20);
        assert_eq!(d.clamp(15), 15);
    }

    #[test]
    fn iter_yields_ascending() {
        let d = Domain::new(1, 4).unwrap();
        let vals: Vec<_> = d.iter().collect();
        assert_eq!(vals, vec![1, 2, 3, 4]);
    }
}
