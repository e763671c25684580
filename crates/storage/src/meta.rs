//! Offline cluster metadata (Algorithm 1 of the paper).
//!
//! For every cluster `C` and dimension `d`, the provider stores the tail
//! proportions `R_{d≥}(v) = |rows_d ≥ v| / S` for each distinct value `v`
//! present in `C`, plus the per-dimension `[v_min, v_max]` in a global file.
//! Online, a query's per-cluster proportion is assembled *without touching
//! data*:
//!
//! ```text
//! R_d = R_{d≥}(l_b) − R_{d≥}(succ(u_b))      (per dimension, inclusive)
//! R   = ∏_{d ∈ D^Q} R_d                       (independence assumption)
//! ```
//!
//! and the covering set `C^Q` is pruned by min/max intersection (Eq. 2).
//!
//! The paper's formula subtracts `R_{d≥}(u_b)`, which would drop rows equal
//! to the upper bound even though ranges are inclusive (§3). We subtract the
//! tail of the *successor* value, preserving the inclusive semantics the
//! rest of the paper (and plain SQL) uses. DESIGN.md records the delta.

use std::sync::Arc;

use fedaqp_model::value::succ;
use fedaqp_model::{Range, RangeQuery, Row, Value};

use crate::cluster::{Cluster, ClusterId};
use crate::store::{radix_digits, radix_sort, ClusterStore};

/// Per-dimension metadata of one cluster: sorted distinct values with
/// suffix (tail) row counts.
///
/// Algorithm 1 builds it in time linear in the column, with no comparison
/// sort: one counting table over the column's offsets from its minimum
/// when the span fits one radix digit (every column of the repo's
/// schemas), a radix sort of those offsets otherwise, then one ascending
/// walk that assigns each distinct value the rows not yet passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimMeta {
    values: Vec<Value>,
    /// `tails[i]` = number of rows whose value is ≥ `values[i]`.
    tails: Vec<u32>,
}

impl DimMeta {
    /// Builds the tail structure from one cluster column, without a
    /// comparison sort: each value is keyed by its offset from the
    /// column's minimum, and the distinct values are visited in ascending
    /// order with their counts, each tail being the rows not yet passed.
    /// When one [`radix_digits`] digit covers the column's span (every
    /// column of the repo's schemas), that digit's counting table holds
    /// every value's count; a wider column is put in order by
    /// [`radix_sort`] and counted run by run.
    fn from_column(col: &[Value]) -> Self {
        let (mut values, mut tails) = (Vec::new(), Vec::new());
        let Some(&first) = col.first() else {
            return Self { values, tails };
        };
        let (min, max) = col
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let span = max.wrapping_sub(min) as u64;
        let mut at_or_above = col.len() as u32;
        let mut run = |offset: u64, count: u32| {
            values.push(min.wrapping_add(offset as Value));
            tails.push(at_or_above);
            at_or_above -= count;
        };
        if radix_digits(col.len(), span).0 <= 1 {
            let mut counts = vec![0u32; span as usize + 1];
            for &v in col {
                counts[v.wrapping_sub(min) as usize] += 1;
            }
            for (offset, &count) in counts.iter().enumerate() {
                if count > 0 {
                    run(offset as u64, count);
                }
            }
        } else {
            let mut offsets: Vec<u64> = col.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
            radix_sort(&mut offsets, span, |k| k);
            let mut rest = &offsets[..];
            while let Some(&offset) = rest.first() {
                let count = rest.iter().take_while(|&&k| k == offset).count();
                run(offset, count as u32);
                rest = &rest[count..];
            }
        }
        Self { values, tails }
    }

    /// Folds one freshly appended value into the tail structure in
    /// `O(n_values)` — the incremental counterpart of rebuilding with
    /// `DimMeta::from_column` (which this is exactly equivalent to when
    /// the metadata is uncoarsened; on a coarsened copy the inserted value
    /// becomes a retained boundary, so tails stay sound but drift from what
    /// a coarsen-after-rebuild would keep).
    pub fn insert(&mut self, v: Value) {
        let idx = self.values.partition_point(|&x| x < v);
        if self.values.get(idx) != Some(&v) {
            // New distinct value: its tail starts at the successor's tail
            // (rows strictly greater than `v`), +1 below for `v` itself.
            let tail_after = self.tails.get(idx).copied().unwrap_or(0);
            self.values.insert(idx, v);
            self.tails.insert(idx, tail_after);
        }
        // Every value ≤ v now has one more row at or above it.
        for t in &mut self.tails[..=idx] {
            *t += 1;
        }
    }

    /// Number of rows with value ≥ `x` — the exact `|rows_d ≥ x|` of §5.2
    /// for arbitrary `x` (not only stored values), via binary search.
    pub fn tail_count(&self, x: Value) -> u32 {
        let idx = self.values.partition_point(|&v| v < x);
        if idx == self.values.len() {
            0
        } else {
            self.tails[idx]
        }
    }

    /// Number of rows with value in `[lo, hi]` (inclusive).
    fn range_count(&self, lo: Value, hi: Value) -> u32 {
        if lo > hi {
            return 0;
        }
        self.tail_count(lo) - self.tail_count(succ(hi))
    }

    /// Smallest stored value `v_min^d`.
    pub fn min(&self) -> Option<Value> {
        self.values.first().copied()
    }

    /// Largest stored value `v_max^d`.
    pub fn max(&self) -> Option<Value> {
        self.values.last().copied()
    }

    /// Number of distinct values (metadata entries for this dimension).
    #[inline]
    fn n_values(&self) -> usize {
        self.values.len()
    }

    /// The sorted distinct values (codec access).
    #[inline]
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// The tail counts (codec access).
    #[inline]
    pub(crate) fn tails(&self) -> &[u32] {
        &self.tails
    }

    /// Rebuilds from codec parts (validated by the codec).
    pub(crate) fn from_parts(values: Vec<Value>, tails: Vec<u32>) -> Self {
        Self { values, tails }
    }

    /// A lossy, histogram-resolution copy keeping at most `buckets` entries
    /// (every ⌈n/buckets⌉-th distinct value, always including the extremes).
    ///
    /// Coarsening trades metadata size for proportion accuracy: tail
    /// lookups between retained values snap to the next retained value's
    /// tail, so `R_d` errs by at most the rows between two retained
    /// boundaries. Exposed through
    /// [`ProviderMeta::coarsened`] for the metadata-resolution ablation.
    pub fn coarsened(&self, buckets: usize) -> DimMeta {
        let n = self.values.len();
        if buckets == 0 || n <= buckets {
            return self.clone();
        }
        let mut values = Vec::with_capacity(buckets + 1);
        let mut tails = Vec::with_capacity(buckets + 1);
        let step = n.div_ceil(buckets);
        let mut i = 0;
        while i < n {
            values.push(self.values[i]);
            tails.push(self.tails[i]);
            i += step;
        }
        // Always retain the maximum so `max()` stays exact.
        if *values.last().expect("non-empty") != self.values[n - 1] {
            values.push(self.values[n - 1]);
            tails.push(self.tails[n - 1]);
        }
        DimMeta { values, tails }
    }
}

/// Metadata of one cluster: a [`DimMeta`] per dimension plus the row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMeta {
    id: ClusterId,
    len: u32,
    dims: Vec<DimMeta>,
}

impl ClusterMeta {
    /// Builds metadata for `cluster` (Alg. 1 lines 3–12).
    fn from_cluster(cluster: &Cluster) -> Self {
        let dims = (0..cluster.arity())
            .map(|d| DimMeta::from_column(cluster.column(d)))
            .collect();
        Self {
            id: cluster.id(),
            len: cluster.len() as u32,
            dims,
        }
    }

    /// Rebuilds from codec parts.
    pub(crate) fn from_parts(id: ClusterId, len: u32, dims: Vec<DimMeta>) -> Self {
        Self { id, len, dims }
    }

    /// The described cluster's id.
    #[inline]
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The described cluster's row count.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the described cluster is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-dimension metadata.
    #[inline]
    pub fn dims(&self) -> &[DimMeta] {
        &self.dims
    }

    /// Folds one appended row into this cluster's metadata (incremental
    /// Algorithm 1): bumps the row count and inserts each dimension value
    /// into the corresponding tail structure.
    pub fn append_row(&mut self, row: &Row) {
        debug_assert_eq!(row.values().len(), self.dims.len());
        self.len += 1;
        for (d, &v) in row.values().iter().enumerate() {
            self.dims[d].insert(v);
        }
    }

    /// `R_d` for one range predicate (inclusive), relative to `s`.
    fn r_range(&self, range: &Range, s: usize) -> f64 {
        self.dims[range.dim].range_count(range.lo, range.hi) as f64 / s as f64
    }

    /// The approximated proportion `R = ∏_d R_d` (Eq. 1) of rows in this
    /// cluster matching `query`, relative to the agreed size `s`.
    ///
    /// The product form assumes dimension independence *within the cluster*
    /// (§5.2); the correlated-dimensions ablation quantifies the error this
    /// introduces.
    fn r_query(&self, query: &RangeQuery, s: usize) -> f64 {
        let mut r = 1.0f64;
        for range in query.ranges() {
            r *= self.r_range(range, s);
            if r == 0.0 {
                break;
            }
        }
        r
    }

    /// Whether this cluster can contain rows matching `query` (Eq. 2):
    /// every queried dimension's `[v_min, v_max]` intersects the range.
    fn covers(&self, query: &RangeQuery) -> bool {
        query.ranges().iter().all(|r| {
            match (self.dims[r.dim].min(), self.dims[r.dim].max()) {
                (Some(lo), Some(hi)) => r.intersects(lo, hi),
                _ => false, // empty cluster covers nothing
            }
        })
    }

    /// Total metadata entries (for space accounting): Σ_d distinct values.
    pub fn n_entries(&self) -> usize {
        self.dims.iter().map(|d| d.n_values()).sum()
    }
}

/// All metadata of one provider: per-cluster files plus the agreed `S`.
///
/// `agreed_s` is the federation-wide cluster size all providers must use
/// when *normalizing* proportions, so that `Avg(R̂)` values are comparable
/// across providers during allocation (§5.1, §7). It may exceed the local
/// store's physical capacity.
///
/// Each cluster's metadata sits behind its own `Arc`, as the store's
/// clusters do: a clone shares them all, and an append to a tail cluster
/// a clone still holds copies that one cluster first.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderMeta {
    agreed_s: usize,
    clusters: Vec<Arc<ClusterMeta>>,
}

impl ProviderMeta {
    /// Runs the offline phase (Algorithm 1) over a provider's store.
    pub fn build(store: &ClusterStore, agreed_s: usize) -> Self {
        let clusters = store
            .clusters()
            .iter()
            .map(|c| Arc::new(ClusterMeta::from_cluster(c)))
            .collect();
        Self {
            agreed_s: agreed_s.max(1),
            clusters,
        }
    }

    /// Rebuilds from codec parts.
    pub(crate) fn from_parts(agreed_s: usize, clusters: Vec<ClusterMeta>) -> Self {
        let clusters = clusters.into_iter().map(Arc::new).collect();
        Self { agreed_s, clusters }
    }

    /// The agreed cluster size `S`.
    #[inline]
    pub fn agreed_s(&self) -> usize {
        self.agreed_s
    }

    /// Per-cluster metadata, indexed by cluster id.
    #[inline]
    pub fn clusters(&self) -> &[Arc<ClusterMeta>] {
        &self.clusters
    }

    /// Number of described clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Identifies the covering set `C^Q` (Eq. 2) — protocol step 1(i).
    pub fn covering(&self, query: &RangeQuery) -> Vec<ClusterId> {
        self.clusters
            .iter()
            .filter(|m| m.covers(query))
            .map(|m| m.id())
            .collect()
    }

    /// Approximated proportions `R̂` for the given covering set — protocol
    /// step 1(ii).
    pub fn proportions(&self, query: &RangeQuery, covering: &[ClusterId]) -> Vec<f64> {
        covering
            .iter()
            .map(|&id| self.clusters[id as usize].r_query(query, self.agreed_s))
            .collect()
    }

    /// Folds one appended row into the provider metadata — the incremental
    /// maintenance path of streaming ingest. `cluster` and `new_cluster`
    /// come from the matching [`crate::store::ClusterStore::append_row`]
    /// outcome; when the append opened a fresh cluster, an empty
    /// [`ClusterMeta`] with `arity` dimensions is created for it first.
    ///
    /// On uncoarsened metadata this is exactly equivalent to re-running
    /// Algorithm 1 ([`ProviderMeta::build`]) over the grown store
    /// (property-tested below). On coarsened metadata it stays *sound*
    /// (min/max exact, so covering never misses) but tail resolution drifts
    /// from a fresh coarsen — the refresh policy's job is to bound that.
    pub fn append_row(&mut self, cluster: ClusterId, new_cluster: bool, row: &Row, arity: usize) {
        if new_cluster {
            debug_assert_eq!(cluster as usize, self.clusters.len());
            self.clusters.push(Arc::new(ClusterMeta {
                id: cluster,
                len: 0,
                dims: vec![DimMeta::from_column(&[]); arity],
            }));
        }
        Arc::make_mut(&mut self.clusters[cluster as usize]).append_row(row);
    }

    /// A histogram-resolution copy of the whole provider metadata: every
    /// dimension of every cluster keeps at most `buckets` tail entries.
    pub fn coarsened(&self, buckets: usize) -> ProviderMeta {
        ProviderMeta {
            agreed_s: self.agreed_s,
            clusters: self
                .clusters
                .iter()
                .map(|c| {
                    Arc::new(ClusterMeta {
                        id: c.id,
                        len: c.len,
                        dims: c.dims.iter().map(|d| d.coarsened(buckets)).collect(),
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_model::{Aggregate, Dimension, Domain, Range, RangeQuery, Row, Schema};

    use crate::store::PartitionStrategy;

    fn dim_meta(col: &[Value]) -> DimMeta {
        DimMeta::from_column(col)
    }

    #[test]
    fn tail_counts_exact() {
        let m = dim_meta(&[5, 1, 3, 3, 9, 5]);
        assert_eq!(m.tail_count(0), 6);
        assert_eq!(m.tail_count(1), 6);
        assert_eq!(m.tail_count(2), 5);
        assert_eq!(m.tail_count(3), 5);
        assert_eq!(m.tail_count(4), 3);
        assert_eq!(m.tail_count(5), 3);
        assert_eq!(m.tail_count(6), 1);
        assert_eq!(m.tail_count(9), 1);
        assert_eq!(m.tail_count(10), 0);
    }

    #[test]
    fn range_count_is_inclusive() {
        let m = dim_meta(&[1, 2, 3, 4, 5]);
        assert_eq!(m.range_count(2, 4), 3);
        assert_eq!(m.range_count(1, 5), 5);
        assert_eq!(m.range_count(5, 5), 1);
        assert_eq!(m.range_count(6, 9), 0);
        assert_eq!(m.range_count(4, 2), 0);
    }

    #[test]
    fn insert_matches_rebuild() {
        let mut m = dim_meta(&[5, 1, 3]);
        m.insert(3); // duplicate of a stored value
        m.insert(9); // new maximum
        m.insert(0); // new minimum
        assert_eq!(m, dim_meta(&[5, 1, 3, 3, 9, 0]));
        let mut empty = dim_meta(&[]);
        empty.insert(4);
        assert_eq!(empty, dim_meta(&[4]));
    }

    #[test]
    fn min_max() {
        let m = dim_meta(&[7, 3, 9]);
        assert_eq!(m.min(), Some(3));
        assert_eq!(m.max(), Some(9));
        let empty = dim_meta(&[]);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    fn demo_store() -> ClusterStore {
        let schema = Schema::new(vec![
            Dimension::new("a", Domain::new(0, 99).unwrap()),
            Dimension::new("b", Domain::new(0, 99).unwrap()),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..40)
            .map(|i| Row::cell(vec![i as i64 * 2, 99 - i as i64], 1))
            .collect();
        ClusterStore::build(schema, rows, 10, PartitionStrategy::SortedBy(0)).unwrap()
    }

    #[test]
    fn covering_prunes_by_min_max() {
        let store = demo_store();
        let meta = ProviderMeta::build(&store, 10);
        // dim-0 values are 0,2,…,78 sorted; clusters hold bands of 10 rows:
        // [0..18], [20..38], [40..58], [60..78].
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 25, 45).unwrap()]).unwrap();
        let cov = meta.covering(&q);
        assert_eq!(cov, vec![1, 2]);
    }

    #[test]
    fn covering_never_misses_matching_clusters() {
        // Soundness: any cluster with a matching row must appear in C^Q.
        let store = demo_store();
        let meta = ProviderMeta::build(&store, 10);
        let q = RangeQuery::new(
            Aggregate::Count,
            vec![
                Range::new(0, 10, 70).unwrap(),
                Range::new(1, 40, 90).unwrap(),
            ],
        )
        .unwrap();
        let cov = meta.covering(&q);
        for c in store.clusters() {
            if c.matching_rows(q.ranges()) > 0 {
                assert!(cov.contains(&c.id()), "cluster {} pruned wrongly", c.id());
            }
        }
    }

    #[test]
    fn r_query_single_dim_is_exact() {
        // With one queried dimension the independence assumption is vacuous:
        // R·S must equal the exact matching-row count.
        let store = demo_store();
        let meta = ProviderMeta::build(&store, 10);
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 20, 38).unwrap()]).unwrap();
        for c in store.clusters() {
            let exact = c.matching_rows(q.ranges()) as f64;
            let r = meta.clusters()[c.id() as usize].r_query(&q, 10);
            assert!((r * 10.0 - exact).abs() < 1e-9, "cluster {}", c.id());
        }
    }

    #[test]
    fn proportions_bounded_by_len_over_s() {
        let store = demo_store();
        let meta = ProviderMeta::build(&store, 10);
        let q = RangeQuery::new(
            Aggregate::Count,
            vec![Range::new(0, 0, 99).unwrap(), Range::new(1, 0, 99).unwrap()],
        )
        .unwrap();
        let cov = meta.covering(&q);
        for (r, &id) in meta.proportions(&q, &cov).iter().zip(&cov) {
            let len = meta.clusters()[id as usize].len() as f64;
            assert!(*r >= 0.0 && *r <= len / 10.0 + 1e-12);
        }
    }

    #[test]
    fn agreed_s_scales_proportions() {
        let store = demo_store();
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 99).unwrap()]).unwrap();
        let meta10 = ProviderMeta::build(&store, 10);
        let meta20 = ProviderMeta::build(&store, 20);
        let cov = meta10.covering(&q);
        let p10 = meta10.proportions(&q, &cov);
        let p20 = meta20.proportions(&q, &cov);
        for (a, b) in p10.iter().zip(&p20) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_cluster_covers_nothing() {
        let c = Cluster::from_rows(0, 1, &[], 4).unwrap();
        let m = ClusterMeta::from_cluster(&c);
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 100).unwrap()]).unwrap();
        assert!(!m.covers(&q));
        assert_eq!(m.r_query(&q, 4), 0.0);
    }

    #[test]
    fn n_entries_counts_distinct_values() {
        let rows = vec![
            Row::raw(vec![1, 5]),
            Row::raw(vec![1, 6]),
            Row::raw(vec![2, 6]),
        ];
        let c = Cluster::from_rows(0, 2, &rows, 4).unwrap();
        let m = ClusterMeta::from_cluster(&c);
        assert_eq!(m.n_entries(), 2 + 2);
    }
}

#[cfg(test)]
mod coarsen_tests {
    use super::*;

    #[test]
    fn coarsened_keeps_extremes_and_shrinks() {
        let col: Vec<Value> = (0..200).collect();
        let full = DimMeta::from_column(&col);
        let coarse = full.coarsened(16);
        assert!(coarse.n_values() <= 17);
        assert_eq!(coarse.min(), full.min());
        assert_eq!(coarse.max(), full.max());
    }

    #[test]
    fn coarsened_tails_are_monotone_and_bounded() {
        let col: Vec<Value> = (0..300).map(|i| (i * 7) % 100).collect();
        let full = DimMeta::from_column(&col);
        let coarse = full.coarsened(8);
        let mut prev = u32::MAX;
        for x in -5..105 {
            let t = coarse.tail_count(x);
            assert!(t <= prev);
            prev = t;
            // Coarse tails never exceed the exact tail at the same probe
            // (snapping moves to a later boundary, dropping rows).
            assert!(t <= full.tail_count(x));
        }
    }

    #[test]
    fn small_metadata_returns_self() {
        let col = vec![1, 2, 3];
        let full = DimMeta::from_column(&col);
        assert_eq!(full.coarsened(10), full);
        assert_eq!(full.coarsened(0), full);
    }

    #[test]
    fn provider_coarsening_reduces_encoded_size() {
        use crate::codec::encode_provider_meta;
        use crate::store::{ClusterStore, PartitionStrategy};
        use fedaqp_model::{Dimension, Domain, Row, Schema};
        let schema = Schema::new(vec![Dimension::new("x", Domain::new(0, 999).unwrap())]).unwrap();
        let rows: Vec<Row> = (0..3000)
            .map(|i| Row::raw(vec![(i * 17 % 1000) as i64]))
            .collect();
        let store = ClusterStore::build(schema, rows, 500, PartitionStrategy::SortedBy(0)).unwrap();
        let full = ProviderMeta::build(&store, 500);
        let coarse = full.coarsened(16);
        let full_bytes = encode_provider_meta(&full).len();
        let coarse_bytes = encode_provider_meta(&coarse).len();
        assert!(
            coarse_bytes * 4 < full_bytes,
            "coarse {coarse_bytes} vs full {full_bytes}"
        );
        // Covering sets stay identical (extremes retained).
        let q = fedaqp_model::RangeQuery::new(
            fedaqp_model::Aggregate::Count,
            vec![fedaqp_model::Range::new(0, 100, 700).unwrap()],
        )
        .unwrap();
        assert_eq!(full.covering(&q), coarse.covering(&q));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The comparison-sort tail build that [`DimMeta::from_column`]
    /// replaced, kept as its oracle.
    fn sorted_tails(col: &[Value]) -> DimMeta {
        let mut sorted: Vec<Value> = col.to_vec();
        sorted.sort_unstable();
        let mut values = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for &v in &sorted {
            match values.last() {
                Some(&last) if last == v => *counts.last_mut().expect("non-empty") += 1,
                _ => {
                    values.push(v);
                    counts.push(1);
                }
            }
        }
        let mut tails = counts;
        let mut acc = 0u32;
        for t in tails.iter_mut().rev() {
            acc += *t;
            *t = acc;
        }
        DimMeta { values, tails }
    }

    #[test]
    fn full_width_columns_match_the_sorted_oracle() {
        for col in [
            vec![],
            vec![i64::MAX, i64::MIN, 0, -1, i64::MAX, 1, i64::MIN],
            vec![i64::MIN; 5],
            vec![-3, 3, -3, 0, i64::MIN + 7, 1 << 62],
        ] {
            assert_eq!(DimMeta::from_column(&col), sorted_tails(&col), "{col:?}");
        }
    }

    proptest! {
        /// The radix tail build is the sort-based one, tail for tail:
        /// empty columns, many equal values, columns straddling zero and
        /// columns whose span needs one to four radix passes (up to all
        /// of `i64`).
        #[test]
        fn from_column_equals_the_sorted_oracle(
            pool in proptest::collection::vec(any::<i64>(), 1..8),
            picks in proptest::collection::vec(any::<u64>(), 0..300),
            shift in 0u32..64,
            pooled in any::<bool>(),
        ) {
            let col: Vec<Value> = picks
                .iter()
                .map(|&p| match pooled {
                    true => pool[p as usize % pool.len()] >> shift,
                    false => (p as i64) >> shift,
                })
                .collect();
            prop_assert_eq!(DimMeta::from_column(&col), sorted_tails(&col));
        }

        /// The same on narrow columns around zero, where ties are dense.
        #[test]
        fn narrow_columns_equal_the_sorted_oracle(
            col in proptest::collection::vec(-300i64..300, 0..500),
        ) {
            prop_assert_eq!(DimMeta::from_column(&col), sorted_tails(&col));
        }
    }

    proptest! {
        /// `tail_count` matches a brute-force scan for arbitrary columns and
        /// probes.
        #[test]
        fn tail_count_matches_bruteforce(
            col in proptest::collection::vec(-50i64..50, 0..300),
            probe in -60i64..60,
        ) {
            let m = DimMeta::from_column(&col);
            let expected = col.iter().filter(|&&v| v >= probe).count() as u32;
            prop_assert_eq!(m.tail_count(probe), expected);
        }

        /// `range_count` matches a brute-force inclusive scan.
        #[test]
        fn range_count_matches_bruteforce(
            col in proptest::collection::vec(-50i64..50, 0..300),
            lo in -60i64..60,
            width in 0i64..40,
        ) {
            let m = DimMeta::from_column(&col);
            let hi = lo + width;
            let expected = col.iter().filter(|&&v| lo <= v && v <= hi).count() as u32;
            prop_assert_eq!(m.range_count(lo, hi), expected);
        }

        /// Tail counts are monotone non-increasing in the probe.
        #[test]
        fn tail_monotone(col in proptest::collection::vec(-50i64..50, 1..200)) {
            let m = DimMeta::from_column(&col);
            let mut prev = u32::MAX;
            for x in -55..55 {
                let t = m.tail_count(x);
                prop_assert!(t <= prev);
                prev = t;
            }
        }

        /// Folding values in one at a time equals rebuilding from scratch.
        #[test]
        fn dim_insert_matches_from_column(
            base in proptest::collection::vec(-50i64..50, 0..150),
            extra in proptest::collection::vec(-50i64..50, 1..150),
        ) {
            let mut m = DimMeta::from_column(&base);
            for &v in &extra {
                m.insert(v);
            }
            let mut all = base;
            all.extend_from_slice(&extra);
            prop_assert_eq!(m, DimMeta::from_column(&all));
        }

        /// N appended rows via incremental `ProviderMeta` maintenance ≡ a
        /// from-scratch Algorithm 1 recompute over the grown store: same
        /// cluster count, same per-cluster lengths, same tails, same
        /// min/max bounds (full structural equality).
        #[test]
        fn incremental_append_matches_full_recompute(
            seed in proptest::collection::vec((0i64..50, 0i64..50, 1u64..4), 0..60),
            appended in proptest::collection::vec((0i64..50, 0i64..50, 1u64..4), 1..60),
            capacity in 1usize..9,
        ) {
            use crate::store::{ClusterStore, PartitionStrategy};
            use fedaqp_model::{Dimension, Domain, Schema};
            let schema = Schema::new(vec![
                Dimension::new("a", Domain::new(0, 49).unwrap()),
                Dimension::new("b", Domain::new(0, 49).unwrap()),
            ])
            .unwrap();
            let rows: Vec<Row> = seed
                .iter()
                .map(|&(a, b, m)| Row::cell(vec![a, b], m))
                .collect();
            let mut store = ClusterStore::build(
                schema,
                rows,
                capacity,
                PartitionStrategy::SortedBy(0),
            )
            .unwrap();
            let mut meta = ProviderMeta::build(&store, capacity);
            for &(a, b, m) in &appended {
                let row = Row::cell(vec![a, b], m);
                let out = store.append_row(row.clone()).unwrap();
                meta.append_row(out.cluster, out.new_cluster, &row, 2);
            }
            prop_assert_eq!(&meta, &ProviderMeta::build(&store, capacity));
        }
    }
}
