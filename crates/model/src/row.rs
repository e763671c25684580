//! Rows / count-tensor cells.

use crate::value::{Measure, Value};

/// One row of a table, or equivalently one cell of a count tensor.
///
/// Following Fig. 2 of the paper, a table is transformed into a count tensor
/// whose `Measure` attribute stores the number of raw rows aggregated into
/// the cell. A raw (un-aggregated) row is the special case `measure == 1`,
/// so a single type serves both representations and the paper's convention
/// of using "table" for both carries over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Row {
    values: Vec<Value>,
    measure: Measure,
}

impl Row {
    /// A raw tabular row (measure 1).
    pub fn raw(values: Vec<Value>) -> Self {
        Self { values, measure: 1 }
    }

    /// A count-tensor cell aggregating `measure` raw rows.
    pub fn cell(values: Vec<Value>, measure: Measure) -> Self {
        Self { values, measure }
    }

    /// Dimension values of the row.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value on dimension `dim` (panics if out of bounds; schema validation
    /// happens at insertion time).
    #[inline]
    pub fn value(&self, dim: usize) -> Value {
        self.values[dim]
    }

    /// The `Measure` attribute.
    #[inline]
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// Adds `extra` raw rows to this cell's measure.
    #[inline]
    #[cfg(test)]
    fn absorb(&mut self, extra: Measure) {
        self.measure += extra;
    }

    /// Consumes the row, returning its parts.
    pub fn into_parts(self) -> (Vec<Value>, Measure) {
        (self.values, self.measure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_has_measure_one() {
        let r = Row::raw(vec![1, 2, 3]);
        assert_eq!(r.measure(), 1);
        assert_eq!(r.values(), &[1, 2, 3]);
        assert_eq!(r.value(1), 2);
    }

    #[test]
    fn absorb_accumulates() {
        let mut r = Row::cell(vec![4], 10);
        r.absorb(5);
        assert_eq!(r.measure(), 15);
    }

    #[test]
    fn into_parts_round_trips() {
        let (vals, m) = Row::cell(vec![7, 8], 3).into_parts();
        assert_eq!(vals, vec![7, 8]);
        assert_eq!(m, 3);
    }
}
