//! Range aggregation queries.

use crate::error::ModelError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// The aggregation of a range query (§3 "Queries").
///
/// `COUNT(*)` counts matching cells of the stored table; `SUM(Measure)` sums
/// the `Measure` attribute, i.e. counts matching *raw* rows when the stored
/// table is a count tensor. Averages, variances, etc. are derived from these
/// two downstream (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `SELECT COUNT(*)`.
    Count,
    /// `SELECT SUM(Measure)`.
    Sum,
}

impl Aggregate {
    /// Contribution of a single matching row to the aggregate.
    #[inline]
    pub fn contribution(&self, row: &Row) -> u64 {
        match self {
            Aggregate::Count => 1,
            Aggregate::Sum => row.measure(),
        }
    }

    /// Human-readable SQL-ish name.
    pub fn sql(&self) -> &'static str {
        match self {
            Aggregate::Count => "COUNT(*)",
            Aggregate::Sum => "SUM(Measure)",
        }
    }
}

/// A closed interval `r_d = [lo, hi]` on one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    /// Index of the constrained dimension in the schema.
    pub dim: usize,
    /// Inclusive lower bound `l_b^d`.
    pub lo: Value,
    /// Inclusive upper bound `u_b^d`.
    pub hi: Value,
}

impl Range {
    /// Creates a range, rejecting `lo > hi`.
    pub fn new(dim: usize, lo: Value, hi: Value) -> Result<Self> {
        if lo > hi {
            return Err(ModelError::EmptyRange { dim, lo, hi });
        }
        Ok(Self { dim, lo, hi })
    }

    /// Whether `v` satisfies `lo ≤ v ≤ hi`.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether this range intersects `[min, max]` (used by cluster pruning,
    /// Eq. 2 of the paper).
    #[inline]
    pub fn intersects(&self, min: Value, max: Value) -> bool {
        self.lo <= max && min <= self.hi
    }

    /// `hi − lo` as an unsigned distance, exact for every `lo ≤ hi` over all
    /// of `i64` (the difference of two `i64`s always fits a `u64`). With it,
    /// `lo ≤ v ≤ hi` is the single unsigned compare
    /// `(v.wrapping_sub(lo) as u64) <= span()`, which is what the cluster
    /// scan kernel evaluates. Meaningless for an inverted range.
    #[inline]
    pub fn span(&self) -> u64 {
        self.hi.wrapping_sub(self.lo) as u64
    }

    /// Number of domain points covered by the range, saturating at
    /// `u64::MAX` for the full `i64` domain (2^64 points).
    #[inline]
    pub fn width(&self) -> u64 {
        self.span().saturating_add(1)
    }
}

/// A multidimensional range aggregation query
/// `SELECT <agg> FROM T WHERE ⋀_d lo_d ≤ d ≤ hi_d` over `D^Q ⊆ D`.
///
/// Ranges are stored sorted by dimension index and each dimension appears at
/// most once, so `D^Q` is well-defined and membership tests are a linear
/// merge over the row's values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RangeQuery {
    agg: Aggregate,
    ranges: Vec<Range>,
}

impl RangeQuery {
    /// Builds a query from predicate ranges; ranges are sorted by dimension
    /// and duplicates rejected.
    pub fn new(agg: Aggregate, mut ranges: Vec<Range>) -> Result<Self> {
        if ranges.is_empty() {
            return Err(ModelError::NoRanges);
        }
        ranges.sort_by_key(|r| r.dim);
        for pair in ranges.windows(2) {
            if pair[0].dim == pair[1].dim {
                return Err(ModelError::DuplicateRange(pair[0].dim));
            }
        }
        Ok(Self { agg, ranges })
    }

    /// The aggregation requested.
    #[inline]
    pub fn aggregate(&self) -> Aggregate {
        self.agg
    }

    /// Predicate ranges, sorted by dimension index.
    #[inline]
    pub fn ranges(&self) -> &[Range] {
        &self.ranges
    }

    /// `|D^Q|` — number of constrained dimensions.
    #[inline]
    pub fn dimensionality(&self) -> usize {
        self.ranges.len()
    }

    /// Indices of the constrained dimensions, ascending.
    pub fn dims(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().map(|r| r.dim)
    }

    /// Whether a row satisfies every predicate.
    #[inline]
    pub fn matches(&self, row: &Row) -> bool {
        self.matches_values(row.values())
    }

    /// Whether a value vector satisfies every predicate.
    #[inline]
    fn matches_values(&self, values: &[Value]) -> bool {
        self.ranges.iter().all(|r| r.contains(values[r.dim]))
    }

    /// Validates the query against a schema: every constrained dimension
    /// exists. Out-of-domain bounds are allowed (they simply match fewer
    /// rows), matching SQL semantics.
    pub fn check_schema(&self, schema: &Schema) -> Result<()> {
        for r in &self.ranges {
            schema.dimension(r.dim)?;
        }
        Ok(())
    }

    /// Returns the same query with its ranges clipped to the schema domains.
    /// Clipping never changes the answer; it tightens metadata lookups.
    #[cfg(test)]
    fn clipped(&self, schema: &Schema) -> Result<RangeQuery> {
        let mut ranges = Vec::with_capacity(self.ranges.len());
        for r in &self.ranges {
            let dom = schema.domain(r.dim)?;
            let lo = dom.clamp(r.lo);
            let hi = dom.clamp(r.hi);
            // A range entirely outside the domain clamps to an empty-ish
            // single point; keep it (it matches nothing inside the domain
            // only if it didn't intersect at all).
            if r.hi < dom.min() || r.lo > dom.max() {
                // No intersection with the domain: represent as an
                // impossible range on the domain edge. `Range::new` forbids
                // lo > hi, so keep a degenerate range and let it match
                // nothing via the original bounds instead.
                return Ok(self.clone());
            }
            ranges.push(Range::new(r.dim, lo, hi)?);
        }
        RangeQuery::new(self.agg, ranges)
    }

    /// SQL-ish rendering used in logs and the experiment reports.
    pub fn display_sql(&self, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut s = format!("SELECT {} FROM T WHERE ", self.agg.sql());
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                s.push_str(" AND ");
            }
            let name = schema
                .dimension(r.dim)
                .map(|d| d.name().to_owned())
                .unwrap_or_else(|_| format!("d{}", r.dim));
            let _ = write!(s, "{} <= {} <= {}", r.lo, name, r.hi);
        }
        s
    }
}

/// Fluent builder resolving dimension names through a schema.
///
/// ```
/// use fedaqp_model::{Aggregate, Dimension, Domain, QueryBuilder, Schema};
///
/// let schema = Schema::new(vec![
///     Dimension::new("age", Domain::new(17, 90).unwrap()),
///     Dimension::new("hours", Domain::new(1, 99).unwrap()),
/// ]).unwrap();
/// let q = QueryBuilder::new(&schema, Aggregate::Count)
///     .range("age", 20, 40).unwrap()
///     .build().unwrap();
/// assert_eq!(q.dimensionality(), 1);
/// ```
pub struct QueryBuilder<'a> {
    schema: &'a Schema,
    agg: Aggregate,
    ranges: Vec<Range>,
}

impl<'a> QueryBuilder<'a> {
    /// Starts building a query against `schema`.
    pub fn new(schema: &'a Schema, agg: Aggregate) -> Self {
        Self {
            schema,
            agg,
            ranges: Vec::new(),
        }
    }

    /// Adds a predicate `lo ≤ name ≤ hi`.
    pub fn range(mut self, name: &str, lo: Value, hi: Value) -> Result<Self> {
        let dim = self.schema.index_of(name)?;
        self.ranges.push(Range::new(dim, lo, hi)?);
        Ok(self)
    }

    /// Finalizes the query.
    pub fn build(self) -> Result<RangeQuery> {
        RangeQuery::new(self.agg, self.ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::Dimension;
    use crate::domain::Domain;

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::new("a", Domain::new(0, 100).unwrap()),
            Dimension::new("b", Domain::new(0, 100).unwrap()),
            Dimension::new("c", Domain::new(0, 100).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn ranges_sorted_and_deduped() {
        let q = RangeQuery::new(
            Aggregate::Count,
            vec![Range::new(2, 0, 1).unwrap(), Range::new(0, 5, 9).unwrap()],
        )
        .unwrap();
        assert_eq!(q.dims().collect::<Vec<_>>(), vec![0, 2]);

        let err = RangeQuery::new(
            Aggregate::Count,
            vec![Range::new(1, 0, 1).unwrap(), Range::new(1, 2, 3).unwrap()],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::DuplicateRange(1));
    }

    #[test]
    fn empty_query_rejected() {
        assert_eq!(
            RangeQuery::new(Aggregate::Sum, vec![]).unwrap_err(),
            ModelError::NoRanges
        );
    }

    #[test]
    fn matches_is_conjunctive_and_inclusive() {
        let q = RangeQuery::new(
            Aggregate::Count,
            vec![Range::new(0, 10, 20).unwrap(), Range::new(1, 0, 5).unwrap()],
        )
        .unwrap();
        assert!(q.matches(&Row::raw(vec![10, 5, 99])));
        assert!(q.matches(&Row::raw(vec![20, 0, 0])));
        assert!(!q.matches(&Row::raw(vec![21, 0, 0])));
        assert!(!q.matches(&Row::raw(vec![15, 6, 0])));
    }

    #[test]
    fn contribution_depends_on_aggregate() {
        let cell = Row::cell(vec![1], 42);
        assert_eq!(Aggregate::Count.contribution(&cell), 1);
        assert_eq!(Aggregate::Sum.contribution(&cell), 42);
    }

    #[test]
    fn range_intersects() {
        let r = Range::new(0, 10, 20).unwrap();
        assert!(r.intersects(20, 30));
        assert!(r.intersects(0, 10));
        assert!(r.intersects(12, 15));
        assert!(!r.intersects(21, 30));
        assert!(!r.intersects(0, 9));
    }

    #[test]
    fn span_and_width_are_exact_at_the_edges_of_i64() {
        let full = Range::new(0, i64::MIN, i64::MAX).unwrap();
        assert_eq!(full.span(), u64::MAX);
        assert_eq!(full.width(), u64::MAX);
        let point = Range::new(0, i64::MIN, i64::MIN).unwrap();
        assert_eq!((point.span(), point.width()), (0, 1));
        let r = Range::new(0, -3, 6).unwrap();
        assert_eq!((r.span(), r.width()), (9, 10));
    }

    #[test]
    fn builder_resolves_names() {
        let s = schema();
        let q = QueryBuilder::new(&s, Aggregate::Sum)
            .range("c", 1, 2)
            .unwrap()
            .range("a", 0, 50)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(q.dims().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.aggregate(), Aggregate::Sum);
        assert!(QueryBuilder::new(&s, Aggregate::Sum)
            .range("zz", 0, 1)
            .is_err());
    }

    #[test]
    fn clipping_preserves_matches_inside_domain() {
        let s = schema();
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, -50, 200).unwrap()]).unwrap();
        let c = q.clipped(&s).unwrap();
        assert_eq!(c.ranges()[0].lo, 0);
        assert_eq!(c.ranges()[0].hi, 100);
    }

    #[test]
    fn display_sql_mentions_names() {
        let s = schema();
        let q = QueryBuilder::new(&s, Aggregate::Count)
            .range("b", 3, 9)
            .unwrap()
            .build()
            .unwrap();
        let sql = q.display_sql(&s);
        assert!(sql.contains("COUNT(*)"));
        assert!(sql.contains("3 <= b <= 9"));
    }
}
