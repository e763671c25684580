//! Count-tensor construction (Fig. 2 of the paper).

use std::collections::HashMap;

use crate::error::ModelError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// A count tensor `T^a`: the aggregation of a raw table over a dimension
/// subset `D^a ⊂ D`, with a `Measure` column counting collapsed raw rows.
///
/// The offline pre-processing phase of every data provider converts its raw
/// partition into a count tensor before clustering; all online query
/// processing then happens on tensor cells.
#[derive(Debug, Clone)]
pub struct CountTensor {
    schema: Schema,
    cells: Vec<Row>,
    raw_rows: u64,
}

impl CountTensor {
    /// Aggregates `rows` (validated against `schema`) over the dimension
    /// subset `keep` (indices into `schema`).
    ///
    /// The resulting tensor's schema is `schema.project(keep)`; each distinct
    /// value combination becomes one cell whose measure sums the measures of
    /// the collapsed rows.
    pub fn aggregate(schema: &Schema, rows: &[Row], keep: &[usize]) -> Result<Self> {
        if keep.is_empty() {
            return Err(ModelError::EmptyAggregation);
        }
        let projected = schema.project(keep)?;
        let mut groups: HashMap<Vec<Value>, u64> = HashMap::new();
        let mut raw_rows = 0u64;
        for row in rows {
            schema.check_row(row)?;
            let key: Vec<Value> = keep.iter().map(|&i| row.value(i)).collect();
            *groups.entry(key).or_insert(0) += row.measure();
            raw_rows += row.measure();
        }
        let mut cells: Vec<Row> = groups
            .into_iter()
            .map(|(values, measure)| Row::cell(values, measure))
            .collect();
        // Deterministic order: lexicographic on values. Group-by iteration
        // order would otherwise leak HashMap nondeterminism into cluster
        // layout and make experiments unrepeatable.
        cells.sort_by(|a, b| a.values().cmp(b.values()));
        Ok(Self {
            schema: projected,
            cells,
            raw_rows,
        })
    }

    /// Wraps pre-aggregated cells (e.g. from a synthetic generator that
    /// produces tensor cells directly) without re-grouping.
    #[cfg(test)]
    fn from_cells(schema: Schema, cells: Vec<Row>) -> Result<Self> {
        let mut raw_rows = 0u64;
        for c in &cells {
            schema.check_row(c)?;
            raw_rows += c.measure();
        }
        Ok(Self {
            schema,
            cells,
            raw_rows,
        })
    }

    /// The tensor's (projected) schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tensor cells.
    #[inline]
    pub fn cells(&self) -> &[Row] {
        &self.cells
    }

    /// Number of tensor cells (what `COUNT(*)` ranges over).
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the tensor is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total number of raw rows aggregated (Σ measure).
    #[inline]
    pub fn raw_rows(&self) -> u64 {
        self.raw_rows
    }

    /// Consumes the tensor into its cells.
    pub fn into_cells(self) -> Vec<Row> {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::Dimension;
    use crate::domain::Domain;

    fn schema3() -> Schema {
        Schema::new(vec![
            Dimension::new("age", Domain::new(0, 99).unwrap()),
            Dimension::new("svc", Domain::new(0, 9).unwrap()),
            Dimension::new("zip", Domain::new(0, 9).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn aggregate_collapses_duplicates() {
        // Mirrors Fig. 2: aggregating away the `Service` dimension.
        let s = schema3();
        let rows = vec![
            Row::raw(vec![25, 1, 3]),
            Row::raw(vec![25, 2, 3]),
            Row::raw(vec![25, 3, 3]),
            Row::raw(vec![40, 1, 7]),
        ];
        let t = CountTensor::aggregate(&s, &rows, &[0, 2]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.raw_rows(), 4);
        let cell = t
            .cells()
            .iter()
            .find(|c| c.values() == [25, 3])
            .expect("cell (25,3)");
        assert_eq!(cell.measure(), 3);
    }

    #[test]
    fn aggregate_sums_measures_of_cells() {
        let s = schema3();
        let rows = vec![Row::cell(vec![1, 1, 1], 10), Row::cell(vec![1, 2, 1], 5)];
        let t = CountTensor::aggregate(&s, &rows, &[0, 2]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.cells()[0].measure(), 15);
    }

    #[test]
    fn aggregate_rejects_empty_subset_and_bad_rows() {
        let s = schema3();
        assert!(matches!(
            CountTensor::aggregate(&s, &[], &[]),
            Err(ModelError::EmptyAggregation)
        ));
        let bad = vec![Row::raw(vec![200, 0, 0])];
        assert!(CountTensor::aggregate(&s, &bad, &[0]).is_err());
    }

    #[test]
    fn cells_are_deterministically_sorted() {
        let s = schema3();
        let rows = vec![
            Row::raw(vec![9, 0, 1]),
            Row::raw(vec![3, 0, 2]),
            Row::raw(vec![3, 0, 1]),
        ];
        let t = CountTensor::aggregate(&s, &rows, &[0, 2]).unwrap();
        let keys: Vec<_> = t.cells().iter().map(|c| c.values().to_vec()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn from_cells_validates_schema() {
        let s = schema3().project(&[0]).unwrap();
        assert!(CountTensor::from_cells(s.clone(), vec![Row::cell(vec![5], 2)]).is_ok());
        assert!(CountTensor::from_cells(s, vec![Row::cell(vec![500], 2)]).is_err());
    }
}
