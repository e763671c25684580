//! Exact, plain-text query evaluation.
//!
//! This is the *baseline* the paper's speed-up metric divides by
//! (`Speed-UP = time of normal computation / time of estimate computation`,
//! §6.1) and the oracle that every approximate answer is compared against
//! for the relative-error metric.

use crate::query::RangeQuery;
use crate::row::Row;

/// Evaluates `query` over a slice of rows, returning the exact aggregate.
///
/// The scan is branch-light: each row is tested against the (sorted)
/// predicate list and contributes `1` (COUNT) or its measure (SUM).
#[inline]
fn scan_aggregate(query: &RangeQuery, rows: &[Row]) -> u64 {
    let agg = query.aggregate();
    let mut acc = 0u64;
    for row in rows {
        if query.matches(row) {
            acc += agg.contribution(row);
        }
    }
    acc
}

/// Evaluates `query` over an iterator of rows (e.g. chained cluster scans).
#[cfg(test)]
fn scan_aggregate_rows<'a, I>(query: &RangeQuery, rows: I) -> u64
where
    I: IntoIterator<Item = &'a Row>,
{
    let agg = query.aggregate();
    rows.into_iter()
        .filter(|r| query.matches(r))
        .map(|r| agg.contribution(r))
        .sum()
}

/// A reusable plain executor bound to a row collection.
///
/// Providers use this for the "regular" (non-approximated) path taken when a
/// query touches fewer than `N_min` clusters (protocol step 4).
#[derive(Debug, Clone, Copy)]
pub struct PlainExecutor<'a> {
    rows: &'a [Row],
}

impl<'a> PlainExecutor<'a> {
    /// Binds the executor to `rows`.
    pub fn new(rows: &'a [Row]) -> Self {
        Self { rows }
    }

    /// Exact answer for `query`.
    pub fn execute(&self, query: &RangeQuery) -> u64 {
        scan_aggregate(query, self.rows)
    }

    /// Number of rows scanned per query (for cost accounting).
    #[cfg(test)]
    fn rows_scanned(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, Range};

    fn rows() -> Vec<Row> {
        vec![
            Row::cell(vec![10, 1], 5),
            Row::cell(vec![20, 2], 7),
            Row::cell(vec![30, 3], 11),
            Row::cell(vec![40, 1], 13),
        ]
    }

    fn q(agg: Aggregate, lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(agg, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    #[test]
    fn count_counts_cells() {
        assert_eq!(scan_aggregate(&q(Aggregate::Count, 10, 30), &rows()), 3);
        assert_eq!(scan_aggregate(&q(Aggregate::Count, 0, 5), &rows()), 0);
    }

    #[test]
    fn sum_sums_measures() {
        assert_eq!(scan_aggregate(&q(Aggregate::Sum, 10, 30), &rows()), 23);
        assert_eq!(scan_aggregate(&q(Aggregate::Sum, 40, 40), &rows()), 13);
    }

    #[test]
    fn iterator_form_matches_slice_form() {
        let rs = rows();
        let query = q(Aggregate::Sum, 10, 40);
        assert_eq!(
            scan_aggregate(&query, &rs),
            scan_aggregate_rows(&query, rs.iter())
        );
    }

    #[test]
    fn multi_dim_conjunction() {
        let rs = rows();
        let query = RangeQuery::new(
            Aggregate::Sum,
            vec![Range::new(0, 10, 40).unwrap(), Range::new(1, 1, 1).unwrap()],
        )
        .unwrap();
        assert_eq!(scan_aggregate(&query, &rs), 18); // cells (10,1) and (40,1)
    }

    #[test]
    fn plain_executor_binds_rows() {
        let rs = rows();
        let ex = PlainExecutor::new(&rs);
        assert_eq!(ex.execute(&q(Aggregate::Count, 0, 100)), 4);
        assert_eq!(ex.rows_scanned(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::query::{Aggregate, Range};
    use proptest::prelude::*;

    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        proptest::collection::vec(
            (0i64..50, 0i64..50, 1u64..100).prop_map(|(a, b, m)| Row::cell(vec![a, b], m)),
            0..200,
        )
    }

    fn arb_query() -> impl Strategy<Value = RangeQuery> {
        (
            prop_oneof![Just(Aggregate::Count), Just(Aggregate::Sum)],
            0i64..50,
            0u64..50,
            0i64..50,
            0u64..50,
        )
            .prop_map(|(agg, lo0, w0, lo1, w1)| {
                RangeQuery::new(
                    agg,
                    vec![
                        Range::new(0, lo0, lo0 + w0 as i64).unwrap(),
                        Range::new(1, lo1, lo1 + w1 as i64).unwrap(),
                    ],
                )
                .unwrap()
            })
    }

    proptest! {
        /// The fast scan agrees with a naive reference implementation.
        #[test]
        fn scan_matches_reference(rows in arb_rows(), query in arb_query()) {
            let reference: u64 = rows
                .iter()
                .filter(|r| query.ranges().iter().all(|p| p.lo <= r.value(p.dim) && r.value(p.dim) <= p.hi))
                .map(|r| match query.aggregate() {
                    Aggregate::Count => 1,
                    Aggregate::Sum => r.measure(),
                })
                .sum();
            prop_assert_eq!(scan_aggregate(&query, &rows), reference);
        }

        /// Splitting the rows arbitrarily and summing partial aggregates is
        /// exactly the whole-table aggregate (the property horizontal
        /// federation relies on).
        #[test]
        fn aggregate_is_additive_over_partitions(
            rows in arb_rows(),
            query in arb_query(),
            split in 0usize..200,
        ) {
            let k = split.min(rows.len());
            let (left, right) = rows.split_at(k);
            prop_assert_eq!(
                scan_aggregate(&query, &rows),
                scan_aggregate(&query, left) + scan_aggregate(&query, right)
            );
        }
    }
}
