//! Bounded storage clusters.

use fedaqp_model::{Aggregate, Range, RangeQuery, Row};

use crate::{Result, StorageError};

/// Identifier of a cluster within one provider's store.
pub type ClusterId = u32;

/// Rows per selection vector of the scan kernel: 256 bytes of stack, the
/// kernel's only state.
const SCAN_CHUNK: usize = 256;

/// A storage cluster: up to `S` count-tensor cells in column-major layout.
///
/// Columns are stored contiguously so a range predicate on one dimension
/// walks one cache-friendly array; the per-cluster scan is the cost unit of
/// the whole system (sampling s clusters ⇒ scanning `s · S` cells instead of
/// `N^Q · S`).
///
/// # Scan kernel
///
/// [`evaluate`](Self::evaluate) and [`matching_rows`](Self::matching_rows)
/// share one column-at-a-time kernel. Per chunk of `SCAN_CHUNK` = 256 rows
/// a byte selection vector starts at all ones; each predicate makes one
/// branch-free pass over its column slice, ANDing in
/// `(v.wrapping_sub(lo) as u64 <= range.span()) as u8` — one unsigned
/// compare that equals `lo ≤ v ≤ hi` for every `lo ≤ hi` over all of `i64`
/// (a value below `lo` wraps to more than any span). The precondition is
/// checked once per scan: an inverted range matches nothing. One reduction
/// per chunk then adds `Σ sel` (COUNT) or `Σ sel · measure` (SUM), so the
/// aggregate is never matched per row. It is portable safe Rust on purpose
/// — no `std::arch`, target features or runtime dispatch: the win is the
/// mispredicted early-exit branch per predicate that is gone, which every
/// target gets (baseline x86-64 has no packed 64-bit compare, so there the
/// loops are branch-free scalar code; a target that has one may vectorise
/// them), every build runs the same path, and the counts are bit-identical
/// to a row-at-a-time walk (`tests::reference` keeps one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    id: ClusterId,
    len: usize,
    /// `cols[d][i]` = value of row `i` on dimension `d`.
    cols: Vec<Vec<i64>>,
    measures: Vec<u64>,
}

impl Cluster {
    /// Builds a cluster from rows, enforcing the capacity bound.
    pub fn from_rows(id: ClusterId, arity: usize, rows: &[Row], capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(StorageError::ZeroCapacity);
        }
        if rows.len() > capacity {
            return Err(StorageError::CapacityExceeded {
                rows: rows.len(),
                capacity,
            });
        }
        // One allocation per column: `vec![v; arity]` would clone `v`, and a
        // clone of an empty `Vec` has no capacity.
        let mut cols: Vec<Vec<i64>> = (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
        let mut measures = Vec::with_capacity(rows.len());
        for row in rows {
            debug_assert_eq!(row.values().len(), arity);
            for (d, &v) in row.values().iter().enumerate() {
                cols[d].push(v);
            }
            measures.push(row.measure());
        }
        Ok(Self {
            id,
            len: rows.len(),
            cols,
            measures,
        })
    }

    /// The cluster's id.
    #[inline]
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Number of stored cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cluster is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dimensions.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column for dimension `d`.
    #[inline]
    pub fn column(&self, d: usize) -> &[i64] {
        &self.cols[d]
    }

    /// Measures column.
    #[inline]
    pub fn measures(&self) -> &[u64] {
        &self.measures
    }

    /// Sum of measures (raw rows aggregated into this cluster).
    pub fn total_measure(&self) -> u64 {
        self.measures.iter().sum()
    }

    /// Evaluates a range query over this cluster — the `Q(C_i)` of Eq. 3:
    /// one call of the scan kernel (see [`Cluster`]), `Σ sel` for COUNT and
    /// `Σ sel · measure` for SUM.
    pub fn evaluate(&self, query: &RangeQuery) -> u64 {
        debug_assert!(!query.ranges().is_empty());
        let weights = match query.aggregate() {
            Aggregate::Count => None,
            Aggregate::Sum => Some(self.measures()),
        };
        self.scan(query.ranges(), weights)
    }

    /// Exact number of cells matching the query's ranges (the exact `R·S`
    /// numerator, used by the exact-R ablation).
    pub fn matching_rows(&self, ranges: &[Range]) -> usize {
        self.scan(ranges, None) as usize
    }

    /// The scan kernel: `Σ sel[i] · weights[i]` over the rows satisfying
    /// every range, with `weights` = 1 when absent.
    fn scan(&self, ranges: &[Range], weights: Option<&[u64]>) -> u64 {
        // The unsigned-span compare needs `lo ≤ hi`; an inverted range
        // (constructible through `Range`'s public fields) matches nothing.
        if ranges.iter().any(|r| r.lo > r.hi) {
            return 0;
        }
        let mut sel = [0u8; SCAN_CHUNK];
        let mut acc = 0u64;
        for at in (0..self.len).step_by(SCAN_CHUNK) {
            let sel = &mut sel[..SCAN_CHUNK.min(self.len - at)];
            sel.fill(1);
            for r in ranges {
                let (lo, span) = (r.lo, r.span());
                let col = &self.cols[r.dim][at..at + sel.len()];
                for (s, &v) in sel.iter_mut().zip(col) {
                    *s &= u8::from(v.wrapping_sub(lo) as u64 <= span);
                }
            }
            acc += match weights {
                None => sel.iter().map(|&s| u64::from(s)).sum::<u64>(),
                Some(w) => sel
                    .iter()
                    .zip(&w[at..])
                    .map(|(&s, &w)| u64::from(s) * w)
                    .sum(),
            };
        }
        acc
    }

    /// Reconstructs row `i` (used when rows must be serialized, e.g. the
    /// SMC row-sharing simulation of Fig. 1).
    pub fn row(&self, i: usize) -> Row {
        let values: Vec<i64> = self.cols.iter().map(|c| c[i]).collect();
        Row::cell(values, self.measures[i])
    }

    /// Iterates all rows (materializing each).
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Appends one row in place (columnar push). The capacity bound is the
    /// caller's responsibility — see [`crate::store::ClusterStore::append_row`],
    /// which opens a fresh cluster when the tail is full.
    pub fn append_row(&mut self, row: &Row) {
        debug_assert_eq!(row.values().len(), self.arity());
        for (d, &v) in row.values().iter().enumerate() {
            self.cols[d].push(v);
        }
        self.measures.push(row.measure());
        self.len += 1;
    }

    /// Approximate in-memory footprint in bytes (columnar payload only).
    pub fn payload_bytes(&self) -> usize {
        self.len * (self.arity() * std::mem::size_of::<i64>() + std::mem::size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_model::{Aggregate, Range, RangeQuery, Row};

    fn cluster() -> Cluster {
        let rows = [
            Row::cell(vec![10, 100], 2),
            Row::cell(vec![20, 200], 3),
            Row::cell(vec![30, 300], 5),
        ];
        Cluster::from_rows(7, 2, &rows, 10).unwrap()
    }

    #[test]
    fn from_rows_builds_columns() {
        let c = cluster();
        assert_eq!(c.id(), 7);
        assert_eq!(c.len(), 3);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.column(0), &[10, 20, 30]);
        assert_eq!(c.column(1), &[100, 200, 300]);
        assert_eq!(c.measures(), &[2, 3, 5]);
        assert_eq!(c.total_measure(), 10);
    }

    /// Every column is allocated once at its final size — none grows by
    /// doubling into slack.
    #[test]
    fn every_column_is_allocated_at_its_length() {
        let rows: Vec<Row> = (0..37)
            .map(|i| Row::cell((0..10).map(|d| i * 10 + d).collect(), 1))
            .collect();
        let c = Cluster::from_rows(0, 10, &rows, 64).unwrap();
        for (d, col) in c.cols.iter().enumerate() {
            assert_eq!(col.capacity(), col.len(), "column {d}");
        }
        assert_eq!(c.measures.capacity(), c.measures.len());
    }

    #[test]
    fn capacity_enforced() {
        let rows: Vec<Row> = (0..5).map(|i| Row::raw(vec![i])).collect();
        assert!(matches!(
            Cluster::from_rows(0, 1, &rows, 4),
            Err(StorageError::CapacityExceeded {
                rows: 5,
                capacity: 4
            })
        ));
        assert!(matches!(
            Cluster::from_rows(0, 1, &rows, 0),
            Err(StorageError::ZeroCapacity)
        ));
    }

    #[test]
    fn evaluate_matches_row_scan() {
        let c = cluster();
        let q = RangeQuery::new(
            Aggregate::Sum,
            vec![
                Range::new(0, 10, 20).unwrap(),
                Range::new(1, 150, 300).unwrap(),
            ],
        )
        .unwrap();
        // Only row (20, 200, m=3) matches both predicates.
        assert_eq!(c.evaluate(&q), 3);
        let qc = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 99).unwrap()]).unwrap();
        assert_eq!(c.evaluate(&qc), 3);
    }

    #[test]
    fn matching_rows_counts_cells() {
        let c = cluster();
        assert_eq!(c.matching_rows(&[Range::new(0, 15, 35).unwrap()]), 2);
        assert_eq!(c.matching_rows(&[Range::new(1, 0, 50).unwrap()]), 0);
    }

    /// The row-at-a-time walk the kernel replaced, kept as its oracle: one
    /// early-exit branch per predicate, two signed compares, no arithmetic
    /// on the bounds (so an inverted range matches nothing by itself).
    pub(super) fn reference(c: &Cluster, ranges: &[Range], weights: Option<&[u64]>) -> u64 {
        let mut acc = 0u64;
        'rows: for i in 0..c.len {
            for r in ranges {
                let v = c.cols[r.dim][i];
                if v < r.lo || v > r.hi {
                    continue 'rows;
                }
            }
            acc += weights.map_or(1, |w| w[i]);
        }
        acc
    }

    #[test]
    fn inverted_range_matches_nothing() {
        let c = cluster();
        let inverted = Range {
            dim: 0,
            lo: 30,
            hi: 10,
        };
        assert_eq!(c.matching_rows(&[inverted]), 0);
        // Also beside a predicate that matches every row, in either order.
        let all = Range::new(1, i64::MIN, i64::MAX).unwrap();
        assert_eq!(c.matching_rows(&[all, inverted]), 0);
        assert_eq!(c.matching_rows(&[inverted, all]), 0);
        for agg in [Aggregate::Count, Aggregate::Sum] {
            let q = RangeQuery::new(agg, vec![all, inverted]).unwrap();
            assert_eq!(c.evaluate(&q), 0);
        }
    }

    #[test]
    fn compare_is_exact_at_the_edges_of_i64() {
        let values = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let rows: Vec<Row> = values.iter().map(|&v| Row::cell(vec![v], 1)).collect();
        let c = Cluster::from_rows(0, 1, &rows, rows.len()).unwrap();
        // Every (lo, hi) pair over the edge values: the full domain and
        // every single point are among them.
        for &lo in &values {
            for &hi in values.iter().filter(|&&hi| hi >= lo) {
                let expected = values.iter().filter(|&&v| lo <= v && v <= hi).count();
                let r = Range::new(0, lo, hi).unwrap();
                assert_eq!(c.matching_rows(&[r]), expected, "[{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn row_round_trips() {
        let c = cluster();
        assert_eq!(c.row(1), Row::cell(vec![20, 200], 3));
        let all: Vec<Row> = c.rows().collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn empty_cluster_evaluates_to_zero() {
        let c = Cluster::from_rows(0, 2, &[], 10).unwrap();
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 9).unwrap()]).unwrap();
        assert_eq!(c.evaluate(&q), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn payload_bytes_scale_with_rows() {
        let c = cluster();
        assert_eq!(c.payload_bytes(), 3 * (2 * 8 + 8));
    }

    #[test]
    fn append_row_matches_from_rows() {
        let rows = [
            Row::cell(vec![10, 100], 2),
            Row::cell(vec![20, 200], 3),
            Row::cell(vec![30, 300], 5),
        ];
        let mut incremental = Cluster::from_rows(7, 2, &rows[..1], 10).unwrap();
        incremental.append_row(&rows[1]);
        incremental.append_row(&rows[2]);
        assert_eq!(incremental, cluster());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::reference;
    use super::*;
    use proptest::prelude::*;

    const ARITY: usize = 4;
    /// Chunk edges: empty, one row, one short of / exactly / one past a
    /// chunk, and two chunks with a ragged tail.
    const LENS: [usize; 6] = [
        0,
        1,
        SCAN_CHUNK - 1,
        SCAN_CHUNK,
        SCAN_CHUNK + 1,
        2 * SCAN_CHUNK + 3,
    ];
    /// Values and bounds share one small pool, so bounds land on stored
    /// values and the extremes of `i64` meet each other.
    const POOL: [i64; 10] = [
        i64::MIN,
        i64::MIN + 1,
        -3,
        -1,
        0,
        1,
        2,
        7,
        i64::MAX - 1,
        i64::MAX,
    ];

    proptest! {
        /// The kernel equals the retained row-at-a-time reference: COUNT,
        /// SUM and `matching_rows`, at every chunk edge, for predicates on
        /// any subset and order of dimensions (repeats included), bounds
        /// and values at the ends of `i64`, and one range in eight left
        /// inverted.
        #[test]
        fn kernel_matches_row_at_a_time_reference(
            picks in collection::vec(0..POOL.len(), ARITY * LENS[5]),
            measures in collection::vec(0u64..1000, LENS[5]),
            preds in collection::vec(
                (0..ARITY, 0..POOL.len(), 0..POOL.len(), 0u8..8),
                0..=6,
            ),
        ) {
            let rows: Vec<Row> = picks
                .chunks(ARITY)
                .zip(&measures)
                .map(|(p, &m)| Row::cell(p.iter().map(|&i| POOL[i]).collect(), m))
                .collect();
            let ranges: Vec<Range> = preds
                .iter()
                .map(|&(dim, a, b, keep_order)| {
                    let (lo, hi) = (POOL[a], POOL[b]);
                    if keep_order == 0 || lo <= hi {
                        Range { dim, lo, hi }
                    } else {
                        Range { dim, lo: hi, hi: lo }
                    }
                })
                .collect();
            // `RangeQuery` wants each dimension once: the first predicate
            // on each, still in drawn order until `new` sorts them.
            let mut distinct: Vec<Range> = Vec::new();
            for r in &ranges {
                if distinct.iter().all(|d| d.dim != r.dim) {
                    distinct.push(*r);
                }
            }
            // `Err(NoRanges)` when no predicate was drawn: `matching_rows`
            // alone takes the empty list.
            let count = RangeQuery::new(Aggregate::Count, distinct.clone());
            let sum = RangeQuery::new(Aggregate::Sum, distinct.clone());
            for len in LENS {
                let c = Cluster::from_rows(0, ARITY, &rows[..len], LENS[5]).unwrap();
                prop_assert_eq!(
                    c.matching_rows(&ranges) as u64,
                    reference(&c, &ranges, None),
                    "matching_rows, len {}, {:?}", len, ranges
                );
                let (Ok(count), Ok(sum)) = (&count, &sum) else {
                    continue;
                };
                prop_assert_eq!(
                    c.evaluate(count),
                    reference(&c, &distinct, None),
                    "COUNT, len {}, {:?}", len, distinct
                );
                prop_assert_eq!(
                    c.evaluate(sum),
                    reference(&c, &distinct, Some(c.measures())),
                    "SUM, len {}, {:?}", len, distinct
                );
                prop_assert_eq!(c.matching_rows(&distinct) as u64, c.evaluate(count));
            }
        }
    }
}
