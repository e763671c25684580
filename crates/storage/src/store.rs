//! A provider's local table stored as a set of clusters.

use std::borrow::Borrow;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

use fedaqp_model::{RangeQuery, Row, Schema};

use crate::cluster::{Cluster, ClusterId};
use crate::{Result, StorageError};

/// How rows are laid out into clusters.
///
/// The layout determines how skewed the per-cluster value distributions are,
/// which is exactly what distribution-aware sampling exploits: "the
/// assumption of a uniform distribution of rows among all clusters is rarely
/// valid in real databases" (§4).
///
/// Each strategy is an order of the input rows; [`ClusterStore::build`]
/// cuts that order into clusters of `capacity` rows. No strategy compares
/// rows: the sorted ones are radix sorts over public domain offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Keep input order and chunk. With generator output this approximates
    /// insertion order (mild locality).
    Sequential,
    /// Sort by one dimension, then chunk — models a clustered index /
    /// naturally ordered pages; produces strong per-cluster locality and is
    /// the evaluation default. The sort is a stable radix sort (ties keep
    /// input order) keyed by `value − min` of the dimension's domain: one
    /// pass for every schema of the repo.
    SortedBy(usize),
    /// Sort lexicographically by all dimensions, then chunk — the layout a
    /// count tensor materialized in dimension order would have. One stable
    /// radix sort per dimension, the last dimension first.
    SortedLex,
    /// Round-robin rows across clusters — the adversarial, *uniform* layout
    /// where cluster sampling has nothing to exploit (ablation baseline).
    /// Row `i` joins bucket `i % N` (`N` = the cluster count), and the
    /// buckets, laid end to end, are chunked like any other order; when
    /// the buckets are not all full, a chunk boundary can fall inside one.
    RoundRobin,
}

/// Where [`ClusterStore::append_row`] put a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The cluster the row landed in.
    pub cluster: ClusterId,
    /// Whether that cluster was freshly opened by this append.
    pub new_cluster: bool,
}

/// The cluster-resident table of one data provider.
///
/// Each cluster sits behind an `Arc`, so a fanned-out read hands the scan
/// helpers shared clusters instead of borrowed ones (see
/// [`ClusterStore::evaluate_each`]); an append to a tail cluster a
/// helper still holds copies that one cluster first.
#[derive(Debug, Clone)]
pub struct ClusterStore {
    schema: Schema,
    capacity: usize,
    clusters: Vec<Arc<Cluster>>,
}

impl ClusterStore {
    /// Partitions `rows` into clusters of at most `capacity` cells using
    /// `strategy`.
    ///
    /// The strategy decides only each row's place `p` in the store's
    /// layout, which puts the row at slot `p % capacity` of cluster
    /// `p / capacity` (every cluster full but the last). One pass then
    /// reads the rows in input order and writes each row's values and
    /// measure straight into its cluster's pre-sized columns. The layout
    /// is the one a stable sort of the rows followed by chunking gives,
    /// but the sorted strategies reach it with a radix sort over each
    /// value's offset in its public domain, not with a comparison sort.
    pub fn build(
        schema: Schema,
        rows: Vec<Row>,
        capacity: usize,
        strategy: PartitionStrategy,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(StorageError::ZeroCapacity);
        }
        for r in &rows {
            schema.check_row(r)?;
        }
        let n = rows.len();
        let places = match strategy {
            PartitionStrategy::Sequential => (0..n).collect(),
            PartitionStrategy::SortedBy(d) => places_of(&sorted_order(&schema, &rows, &[d])?),
            PartitionStrategy::SortedLex => {
                let dims: Vec<usize> = (0..schema.arity()).collect();
                places_of(&sorted_order(&schema, &rows, &dims)?)
            }
            PartitionStrategy::RoundRobin => round_robin_places(n, capacity),
        };
        let arity = schema.arity();
        let mut parts: Vec<(Vec<Vec<i64>>, Vec<u64>)> = (0..n.div_ceil(capacity))
            .map(|c| {
                let len = capacity.min(n - c * capacity);
                ((0..arity).map(|_| vec![0; len]).collect(), vec![0; len])
            })
            .collect();
        for (row, &place) in rows.iter().zip(&places) {
            let (cols, measures) = &mut parts[place / capacity];
            let slot = place % capacity;
            for (col, &v) in cols.iter_mut().zip(row.values()) {
                col[slot] = v;
            }
            measures[slot] = row.measure();
        }
        let clusters = parts
            .into_iter()
            .enumerate()
            .map(|(id, (cols, measures))| {
                Arc::new(Cluster::from_columns(id as ClusterId, cols, measures))
            })
            .collect();
        Ok(Self {
            schema,
            capacity,
            clusters,
        })
    }

    /// Rebuilds a store from pre-validated parts (the store codec).
    pub(crate) fn from_parts(
        schema: Schema,
        capacity: usize,
        clusters: Vec<Cluster>,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(StorageError::ZeroCapacity);
        }
        Ok(Self {
            schema,
            capacity,
            clusters: clusters.into_iter().map(Arc::new).collect(),
        })
    }

    /// The table schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The agreed per-cluster capacity `S`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// All clusters.
    #[inline]
    pub fn clusters(&self) -> &[Arc<Cluster>] {
        &self.clusters
    }

    /// Number of clusters `N`.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster by id.
    pub fn cluster(&self, id: ClusterId) -> Result<&Cluster> {
        self.clusters
            .get(id as usize)
            .map(Arc::as_ref)
            .ok_or(StorageError::UnknownCluster(id))
    }

    /// Total stored cells.
    pub fn total_rows(&self) -> usize {
        self.clusters.iter().map(|c| c.len()).sum()
    }

    /// Total raw rows (Σ measure).
    pub fn total_measure(&self) -> u64 {
        self.clusters.iter().map(|c| c.total_measure()).sum()
    }

    /// Appends one row to the tail cluster, opening a new cluster when the
    /// tail is at capacity — the streaming-ingest counterpart of
    /// [`ClusterStore::build`].
    ///
    /// Appended rows keep arrival order (the [`PartitionStrategy::Sequential`]
    /// layout): a store built with a sorted strategy keeps the locality of
    /// its existing clusters and grows a sequential tail, which is exactly
    /// the drift a staleness-bounded rebuild policy exists to cap.
    ///
    /// The row is only read, so a caller that keeps it passes a borrow.
    pub fn append_row(&mut self, row: impl Borrow<Row>) -> Result<AppendOutcome> {
        let row = row.borrow();
        self.schema.check_row(row)?;
        match self.clusters.last_mut() {
            Some(tail) if tail.len() < self.capacity => {
                Arc::make_mut(tail).append_row(row);
                Ok(AppendOutcome {
                    cluster: tail.id(),
                    new_cluster: false,
                })
            }
            _ => {
                let id = self.clusters.len() as ClusterId;
                self.clusters.push(Arc::new(Cluster::from_rows(
                    id,
                    self.schema.arity(),
                    std::slice::from_ref(row),
                    self.capacity,
                )?));
                Ok(AppendOutcome {
                    cluster: id,
                    new_cluster: true,
                })
            }
        }
    }

    /// Exact full-scan evaluation — the provider's "normal computation"
    /// baseline of the speed-up metric (§6.1). It reads through
    /// [`Self::evaluate_each`]'s fan-out, so the baseline gets the same
    /// cores as the private path it is compared with.
    pub fn evaluate_full(&self, query: &RangeQuery) -> u64 {
        let all: Vec<&Arc<Cluster>> = self.clusters.iter().collect();
        scan_each(query, &all).into_iter().sum()
    }

    /// Evaluates the query over a subset of clusters (the exact path's
    /// covering set): the sum of [`Self::evaluate_each`].
    pub fn evaluate_clusters(&self, query: &RangeQuery, ids: &[ClusterId]) -> Result<u64> {
        Ok(self.evaluate_each(query, ids)?.into_iter().sum())
    }

    /// [`Cluster::evaluate`] on each of `ids`, in `ids` order (repeats
    /// included) — the one read behind every multi-cluster scan.
    ///
    /// Every id is resolved first, so an unknown id is
    /// [`StorageError::UnknownCluster`] before any cluster is scanned. A
    /// read of fewer than [`FAN_OUT_CELLS`] cells (cluster rows × query
    /// dimensions) is scanned serially on the calling thread. A larger one
    /// is also offered to the process's scan helpers
    /// (`available_parallelism() − 1` threads, started on first use): they
    /// and the calling thread each claim the next unscanned cluster until
    /// none is left, and the calling thread then scans again any cluster
    /// no helper has finished — one still running, not yet woken, or
    /// panicked — instead of waiting for it. Each value is one cluster's
    /// pure `u64` count in its place, so the result is the serial read's,
    /// whichever thread scanned which cluster, and a scan that panics on a
    /// helper panics again on the calling thread.
    pub fn evaluate_each(&self, query: &RangeQuery, ids: &[ClusterId]) -> Result<Vec<u64>> {
        let clusters = ids
            .iter()
            .map(|&id| {
                self.clusters
                    .get(id as usize)
                    .ok_or(StorageError::UnknownCluster(id))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(scan_each(query, &clusters))
    }
}

/// The stable order of `rows` by their values on `dims`, the first
/// dimension the most significant: one [`radix_sort`] per dimension, the
/// last first, keyed by each value's offset from its domain's minimum.
fn sorted_order(schema: &Schema, rows: &[Row], dims: &[usize]) -> Result<Vec<usize>> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut keys = vec![0u64; rows.len()];
    for &d in dims.iter().rev() {
        let domain = schema.domain(d)?;
        let offset = |v: i64| v.wrapping_sub(domain.min()) as u64;
        for (key, row) in keys.iter_mut().zip(rows) {
            *key = offset(row.value(d));
        }
        radix_sort(&mut order, offset(domain.max()), |i| keys[i]);
    }
    Ok(order)
}

/// Each row's place in the layout, given the rows in layout order.
fn places_of(order: &[usize]) -> Vec<usize> {
    let mut places = vec![0; order.len()];
    for (place, &row) in order.iter().enumerate() {
        places[row] = place;
    }
    places
}

/// Each row's place under [`PartitionStrategy::RoundRobin`]: row `i`
/// joins bucket `i % buckets`, one bucket per cluster, and the buckets
/// are laid end to end, the first `n % buckets` of them one row longer.
fn round_robin_places(n: usize, capacity: usize) -> Vec<usize> {
    let buckets = n.div_ceil(capacity).max(1);
    let (short, longer) = (n / buckets, n % buckets);
    (0..n)
        .map(|i| {
            let b = i % buckets;
            b * short + b.min(longer) + i / buckets
        })
        .collect()
}

/// The digits [`radix_sort`] splits keys of up to `max_key` into for `n`
/// items, as `(passes, width)`: as few passes as the key's bits need,
/// with digits no wider than 16 bits or `n`'s own bit length (but at
/// least 8), split evenly. So a counting table has at most
/// `min(65,536, max(256, 2n))` entries, and a key of up to 8 bits (every
/// public domain of the repo's schemas) is one pass.
pub(crate) fn radix_digits(n: usize, max_key: u64) -> (u32, u32) {
    let bits = u64::BITS - max_key.leading_zeros();
    let passes = bits.div_ceil((usize::BITS - n.leading_zeros()).clamp(8, 16));
    (passes, bits.div_ceil(passes.max(1)))
}

/// Stably sorts `items` by `key`, no key exceeding `max_key`: a
/// least-significant-digit radix sort, one counting pass per digit of
/// [`radix_digits`].
pub(crate) fn radix_sort<T: Copy>(items: &mut Vec<T>, max_key: u64, key: impl Fn(T) -> u64) {
    let (passes, width) = radix_digits(items.len(), max_key);
    if passes == 0 || items.len() < 2 {
        return;
    }
    let mask = (1u64 << width) - 1;
    let mut counts = vec![0usize; 1 << width];
    let mut from = std::mem::take(items);
    let mut to = from.clone();
    for pass in 0..passes {
        let digit = |x: T| ((key(x) >> (pass * width)) & mask) as usize;
        counts.fill(0);
        for &x in &from {
            counts[digit(x)] += 1;
        }
        let mut at = 0;
        for count in &mut counts {
            (at, *count) = (at + *count, at);
        }
        for &x in &from {
            let slot = &mut counts[digit(x)];
            to[*slot] = x;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *items = from;
}

/// Cells (cluster rows × query dimensions) from which one read of many
/// clusters fans out over the cores ([`ClusterStore::evaluate_each`]).
///
/// Sized from measurements on a 2-vCPU x86-64 virtual machine: handing a
/// read to a parked helper and waking it costs `c` ≈ 20 µs, the woken
/// helper starts scanning `d` ≈ 50–80 µs later at the median (an idle
/// virtual CPU must wake), and the kernel scans about 1.5 ns per cell. A
/// read whose serial scan takes `S` then ends near `(S + d) / 2 + c`, so
/// a helper pays from `S ≈ d + 2c` (about 80k cells). At 2^17 cells (`S`
/// ≈ 200 µs) it saves about 40 µs, and at `scan_wide`'s ≈ 530k cells per
/// plan about 340 µs; reads of a few dozen small clusters stay serial.
pub const FAN_OUT_CELLS: usize = 1 << 17;

/// The cores this process may run on, read once: `available_parallelism`
/// reads the affinity mask and the cgroup quota on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// One fanned-out read: every thread claims its next cluster from
/// `next`, and a finished scan fills that cluster's slot.
struct Read {
    query: RangeQuery,
    clusters: Vec<Arc<Cluster>>,
    next: AtomicUsize,
    values: Vec<OnceLock<u64>>,
}

impl Read {
    /// Scans unclaimed clusters until none is left. The cursor publishes
    /// no data (`Relaxed`); each value travels through its `OnceLock`.
    fn scan(&self) {
        loop {
            let at = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(cluster) = self.clusters.get(at) else {
                return;
            };
            // Each position is claimed once, so the slot is still empty.
            let _ = self.values[at].set(cluster.evaluate(&self.query));
        }
    }
}

/// The process's scan helpers: one queue of reads, and how many threads
/// take from it.
struct Helpers {
    reads: mpsc::Sender<Arc<Read>>,
    count: usize,
}

/// The scan helpers, started on the first fanned-out read. They live as
/// long as the process and are never waited for (see
/// [`ClusterStore::evaluate_each`]); a thread the OS refuses to start is
/// simply not counted.
fn helpers() -> &'static Helpers {
    static HELPERS: OnceLock<Helpers> = OnceLock::new();
    HELPERS.get_or_init(|| {
        let (reads, queue) = mpsc::channel::<Arc<Read>>();
        let queue = Arc::new(Mutex::new(queue));
        let count = (1..cores())
            .filter(|i| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("fedaqp-scan-{i}"))
                    .spawn(move || help(&queue))
                    .is_ok()
            })
            .count();
        Helpers { reads, count }
    })
}

/// A helper's loop: take the next read and scan what is left of it. A
/// scan that panics leaves its slot empty, so the reading thread scans
/// that cluster again and panics there; the helper lives on.
fn help(queue: &Mutex<mpsc::Receiver<Arc<Read>>>) {
    loop {
        let read = match queue.lock() {
            Ok(queue) => queue.recv(),
            Err(_) => return,
        };
        let Ok(read) = read else {
            return;
        };
        let _ = panic::catch_unwind(AssertUnwindSafe(|| read.scan()));
    }
}

/// [`Cluster::evaluate`] on each cluster, in order, fanned out as
/// [`ClusterStore::evaluate_each`] describes.
fn scan_each(query: &RangeQuery, clusters: &[&Arc<Cluster>]) -> Vec<u64> {
    let cells = clusters.iter().map(|c| c.len()).sum::<usize>() * query.dimensionality();
    let serial = || clusters.iter().map(|c| c.evaluate(query)).collect();
    if cells < FAN_OUT_CELLS {
        return serial();
    }
    let helpers = helpers();
    // At least one cluster, since the read has cells.
    let offers = helpers.count.min(clusters.len() - 1);
    if offers == 0 {
        return serial();
    }
    let read = Arc::new(Read {
        query: query.clone(),
        clusters: clusters.iter().map(|&c| Arc::clone(c)).collect(),
        next: AtomicUsize::new(0),
        values: clusters.iter().map(|_| OnceLock::new()).collect(),
    });
    for _ in 0..offers {
        // A send fails only once every helper has exited; the calling
        // thread then scans the read alone.
        let _ = helpers.reads.send(Arc::clone(&read));
    }
    read.scan();
    read.values
        .iter()
        .zip(clusters)
        .map(|(value, cluster)| {
            value
                .get()
                .copied()
                .unwrap_or_else(|| cluster.evaluate(query))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_model::{Aggregate, Dimension, Domain, Range, RangeQuery};

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::new("a", Domain::new(0, 99).unwrap()),
            Dimension::new("b", Domain::new(0, 99).unwrap()),
        ])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::cell(
                    vec![(i % 100) as i64, ((i * 7) % 100) as i64],
                    1 + (i % 3) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn build_chunks_by_capacity() {
        let s = ClusterStore::build(schema(), rows(25), 10, PartitionStrategy::Sequential).unwrap();
        assert_eq!(s.n_clusters(), 3);
        assert_eq!(s.clusters()[0].len(), 10);
        assert_eq!(s.clusters()[2].len(), 5);
        assert_eq!(s.total_rows(), 25);
    }

    #[test]
    fn sorted_by_gives_value_locality() {
        let s =
            ClusterStore::build(schema(), rows(100), 10, PartitionStrategy::SortedBy(0)).unwrap();
        // Each cluster's dim-0 values form a contiguous sorted band.
        let mut prev_max = i64::MIN;
        for c in s.clusters() {
            let lo = *c.column(0).iter().min().unwrap();
            let hi = *c.column(0).iter().max().unwrap();
            assert!(lo >= prev_max);
            prev_max = hi;
        }
    }

    #[test]
    fn round_robin_spreads_values() {
        let s =
            ClusterStore::build(schema(), rows(100), 10, PartitionStrategy::RoundRobin).unwrap();
        assert_eq!(s.n_clusters(), 10);
        // Every cluster should see both low and high dim-0 values.
        for c in s.clusters() {
            let lo = *c.column(0).iter().min().unwrap();
            let hi = *c.column(0).iter().max().unwrap();
            assert!(hi - lo > 50, "cluster too localized for round-robin");
        }
    }

    #[test]
    fn full_scan_is_partition_invariant() {
        let q = RangeQuery::new(
            Aggregate::Sum,
            vec![
                Range::new(0, 20, 60).unwrap(),
                Range::new(1, 0, 50).unwrap(),
            ],
        )
        .unwrap();
        let exact = {
            let rs = rows(200);
            rs.iter()
                .filter(|r| q.matches(r))
                .map(|r| r.measure())
                .sum::<u64>()
        };
        for strat in [
            PartitionStrategy::Sequential,
            PartitionStrategy::SortedBy(1),
            PartitionStrategy::SortedLex,
            PartitionStrategy::RoundRobin,
        ] {
            let s = ClusterStore::build(schema(), rows(200), 16, strat).unwrap();
            assert_eq!(s.evaluate_full(&q), exact, "strategy {strat:?}");
        }
    }

    #[test]
    fn evaluate_clusters_subsets() {
        let s = ClusterStore::build(schema(), rows(30), 10, PartitionStrategy::Sequential).unwrap();
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 99).unwrap()]).unwrap();
        let all: u64 = s.evaluate_full(&q);
        let parts =
            s.evaluate_clusters(&q, &[0]).unwrap() + s.evaluate_clusters(&q, &[1, 2]).unwrap();
        assert_eq!(all, parts);
        assert!(s.evaluate_clusters(&q, &[99]).is_err());
    }

    #[test]
    fn append_fills_tail_then_opens_new_cluster() {
        let mut s =
            ClusterStore::build(schema(), rows(25), 10, PartitionStrategy::Sequential).unwrap();
        // Tail cluster holds 5 of 10: the next five appends fill it.
        for i in 0..5 {
            let out = s.append_row(Row::cell(vec![1, 2], 1)).unwrap();
            assert_eq!(
                out,
                AppendOutcome {
                    cluster: 2,
                    new_cluster: false
                },
                "append {i}"
            );
        }
        let out = s.append_row(Row::cell(vec![3, 4], 1)).unwrap();
        assert_eq!(
            out,
            AppendOutcome {
                cluster: 3,
                new_cluster: true
            }
        );
        assert_eq!(s.n_clusters(), 4);
        assert_eq!(s.total_rows(), 31);
        // An appended store answers queries exactly like a rebuilt one.
        let all: Vec<Row> = s.clusters().iter().flat_map(|c| c.rows()).collect();
        let rebuilt =
            ClusterStore::build(schema(), all, 10, PartitionStrategy::Sequential).unwrap();
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 99).unwrap()]).unwrap();
        assert_eq!(s.evaluate_full(&q), rebuilt.evaluate_full(&q));
    }

    #[test]
    fn append_into_empty_store_opens_cluster_zero() {
        let mut s =
            ClusterStore::build(schema(), Vec::new(), 4, PartitionStrategy::Sequential).unwrap();
        assert_eq!(s.n_clusters(), 0);
        let out = s.append_row(Row::cell(vec![7, 8], 2)).unwrap();
        assert_eq!(
            out,
            AppendOutcome {
                cluster: 0,
                new_cluster: true
            }
        );
        assert_eq!(s.total_measure(), 2);
        // Schema violations are rejected without mutating the store.
        assert!(s.append_row(Row::raw(vec![500, 0])).is_err());
        assert_eq!(s.total_rows(), 1);
    }

    #[test]
    fn a_panicking_scan_reaches_the_calling_thread() {
        // Every cluster holds two dimensions but the last, which holds
        // one: a range on dimension 1 indexes past its columns on
        // whichever thread claims it.
        let (n_clusters, rows_per) = (64, FAN_OUT_CELLS / 64);
        let clusters = (0..n_clusters)
            .map(|i| {
                let arity = if i + 1 < n_clusters { 2 } else { 1 };
                let rows: Vec<Row> = (0..rows_per)
                    .map(|j| Row::cell(vec![(j % 100) as i64; arity], 1))
                    .collect();
                Cluster::from_rows(i as ClusterId, arity, &rows, rows_per).unwrap()
            })
            .collect();
        let s = ClusterStore::from_parts(schema(), rows_per, clusters).unwrap();
        let q = RangeQuery::new(Aggregate::Count, vec![Range::new(1, 0, 49).unwrap()]).unwrap();
        let ids: Vec<ClusterId> = (0..n_clusters as ClusterId).collect();
        // At the threshold, so the read fans out wherever there are cores.
        assert_eq!(n_clusters * rows_per * q.dimensionality(), FAN_OUT_CELLS);
        let reads: [&dyn Fn() -> Result<u64>; 3] = [
            &|| s.evaluate_each(&q, &ids).map(|v| v.len() as u64),
            &|| s.evaluate_clusters(&q, &ids),
            &|| Ok(s.evaluate_full(&q)),
        ];
        for _ in 0..4 {
            for read in reads {
                // A panic, not a hang, a short vector or a partial sum.
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
                    .expect_err("the short cluster's scan must panic");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(message.contains("index out of bounds"), "{message}");
            }
        }
        // Every id is resolved before any scan: an unknown one is the
        // typed error, and no cluster was scanned (so none panicked).
        let mut with_unknown = ids.clone();
        with_unknown.push(n_clusters as ClusterId);
        assert_eq!(
            s.evaluate_each(&q, &with_unknown),
            Err(StorageError::UnknownCluster(n_clusters as ClusterId))
        );
        // Without the short cluster the same read answers.
        let matching = (0..rows_per).filter(|j| j % 100 < 50).count() as u64;
        let healthy = &ids[..n_clusters - 1];
        assert_eq!(
            s.evaluate_each(&q, healthy),
            Ok(vec![matching; healthy.len()])
        );
    }

    #[test]
    fn build_rejects_bad_rows_and_dims() {
        let bad = vec![Row::raw(vec![200, 0])];
        assert!(ClusterStore::build(schema(), bad, 10, PartitionStrategy::Sequential).is_err());
        assert!(
            ClusterStore::build(schema(), rows(5), 10, PartitionStrategy::SortedBy(9)).is_err()
        );
        assert!(matches!(
            ClusterStore::build(schema(), rows(5), 0, PartitionStrategy::Sequential),
            Err(StorageError::ZeroCapacity)
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fedaqp_model::{Aggregate, Dimension, Domain, Range};
    use proptest::prelude::*;

    const ARITY: usize = 3;

    /// `n_rows` cells over `ARITY` dimensions valued `0..=99`, mixed from
    /// `salt` — cheap enough for stores on both sides of the threshold.
    fn store(n_rows: usize, capacity: usize, salt: u64) -> ClusterStore {
        let schema = Schema::new(
            (0..ARITY)
                .map(|d| Dimension::new(format!("d{d}"), Domain::new(0, 99).unwrap()))
                .collect(),
        )
        .unwrap();
        let rows = (0..n_rows as u64)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let values = (0..ARITY).map(|d| ((h >> (8 * d)) % 100) as i64).collect();
                Row::cell(values, 1 + (h >> 40) % 7)
            })
            .collect();
        ClusterStore::build(schema, rows, capacity, PartitionStrategy::Sequential).unwrap()
    }

    /// The comparison-sort build that [`ClusterStore::build`] replaced,
    /// kept as its oracle: a stable sort of the rows (or a bucket copy for
    /// round-robin), then chunks of `capacity`.
    fn sort_then_chunk(
        schema: Schema,
        mut rows: Vec<Row>,
        capacity: usize,
        strategy: PartitionStrategy,
    ) -> Result<ClusterStore> {
        if capacity == 0 {
            return Err(StorageError::ZeroCapacity);
        }
        for r in &rows {
            schema.check_row(r)?;
        }
        match strategy {
            PartitionStrategy::Sequential => {}
            PartitionStrategy::SortedBy(d) => {
                if d >= schema.arity() {
                    return Err(fedaqp_model::ModelError::DimensionIndexOutOfBounds {
                        index: d,
                        len: schema.arity(),
                    }
                    .into());
                }
                rows.sort_by_key(|r| r.value(d));
            }
            PartitionStrategy::SortedLex => {
                rows.sort_by(|a, b| a.values().cmp(b.values()));
            }
            PartitionStrategy::RoundRobin => {
                let n_clusters = rows.len().div_ceil(capacity).max(1);
                let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n_clusters];
                for (i, r) in rows.drain(..).enumerate() {
                    buckets[i % n_clusters].push(r);
                }
                rows = buckets.into_iter().flatten().collect();
            }
        }
        let clusters = rows
            .chunks(capacity)
            .enumerate()
            .map(|(i, chunk)| {
                Cluster::from_rows(i as ClusterId, schema.arity(), chunk, capacity).map(Arc::new)
            })
            .collect::<Result<_>>()?;
        Ok(ClusterStore {
            schema,
            capacity,
            clusters,
        })
    }

    const STRATEGIES: [PartitionStrategy; 4] = [
        PartitionStrategy::Sequential,
        PartitionStrategy::SortedBy(0),
        PartitionStrategy::SortedLex,
        PartitionStrategy::RoundRobin,
    ];

    /// A domain of one of five shapes: small and non-negative, straddling
    /// zero, wider than one radix pass, the full width of `i64`, or a
    /// single value.
    fn domain(shape: u8, at: i64) -> Domain {
        let (min, max) = match shape {
            0 => (0, 9),
            1 => (-(at & 0xFF) - 1, at & 0xFF),
            2 => (at >> 2, (at >> 2).saturating_add(1 << 40)),
            3 => (i64::MIN, i64::MAX),
            _ => (at, at),
        };
        Domain::new(min, max).unwrap()
    }

    /// The value `h` lands on in `domain`.
    fn value_in(domain: Domain, h: u64) -> i64 {
        let span = domain.max().wrapping_sub(domain.min()) as u64;
        let offset = match span.checked_add(1) {
            Some(size) => h % size,
            None => h,
        };
        domain.min().wrapping_add(offset as i64)
    }

    #[test]
    fn an_empty_input_builds_no_cluster_under_every_strategy() {
        let schema = Schema::new(vec![Dimension::new("a", domain(1, 3))]).unwrap();
        for strategy in STRATEGIES {
            for capacity in [1, 4] {
                let s = ClusterStore::build(schema.clone(), vec![], capacity, strategy);
                assert_eq!(s.as_ref().map(ClusterStore::n_clusters), Ok(0));
                let oracle = sort_then_chunk(schema.clone(), vec![], capacity, strategy);
                assert_eq!(s.unwrap().clusters, oracle.unwrap().clusters);
            }
        }
    }

    /// The serial read: one [`Cluster::evaluate`] per id, in order.
    fn serial(s: &ClusterStore, q: &RangeQuery, ids: &[ClusterId]) -> Result<Vec<u64>> {
        ids.iter()
            .map(|&id| Ok(s.cluster(id)?.evaluate(q)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The fan-out read is the serial one, value for value, and the
        /// exact and full reads are its sums: random stores, COUNT and
        /// SUM over random ranges, id lists with repeats whose cells fall
        /// on either side of `FAN_OUT_CELLS`, and an unknown id (the
        /// serial read's error, the first unknown in order).
        #[test]
        fn fan_out_read_matches_the_serial_scan(
            n_rows in 1usize..(FAN_OUT_CELLS / 2),
            capacity in 32usize..4096,
            salt in any::<u64>(),
            sum in any::<bool>(),
            bounds in collection::vec((0i64..100, 0i64..100), ARITY),
            n_dims in 1usize..=ARITY,
            picks in collection::vec(any::<u32>(), 0..2000),
            unknown in 0u8..4,
        ) {
            let s = store(n_rows, capacity, salt);
            let ranges = bounds[..n_dims]
                .iter()
                .enumerate()
                .map(|(d, &(a, b))| Range::new(d, a.min(b), a.max(b)).unwrap())
                .collect();
            let aggregate = if sum { Aggregate::Sum } else { Aggregate::Count };
            let q = RangeQuery::new(aggregate, ranges).unwrap();
            let n = s.n_clusters() as u32;
            let mut ids: Vec<ClusterId> = picks.iter().map(|&p| p % n).collect();
            if unknown == 0 && !ids.is_empty() {
                let at = picks[0] as usize % ids.len();
                ids[at] = n + picks[0] % 3;
                ids.push(n);
            }
            let expected = serial(&s, &q, &ids);
            prop_assert_eq!(s.evaluate_each(&q, &ids), expected.clone());
            prop_assert_eq!(
                s.evaluate_clusters(&q, &ids),
                expected.map(|v| v.into_iter().sum())
            );
            let all: Vec<ClusterId> = (0..n).collect();
            let full: u64 = serial(&s, &q, &all).unwrap().into_iter().sum();
            prop_assert_eq!(s.evaluate_full(&q), full);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix-and-scatter build is the sort-then-chunk build,
        /// cluster for cluster: every strategy (and a sort dimension out
        /// of range), capacity 1, `n`, above `n` or random, empty inputs,
        /// rows drawn from a pool of a few values (ties, kept in input
        /// order: each row's measure is its own), and domains that are
        /// small, straddle zero, need several radix passes or span all of
        /// `i64`.
        #[test]
        fn build_equals_the_sort_then_chunk_oracle(
            shapes in collection::vec((0u8..5, any::<i64>()), 1..4),
            pool in collection::vec(any::<u64>(), 1..6),
            picks in collection::vec(any::<u64>(), 0..120),
            pooled in any::<bool>(),
            capacity in (0u8..4, 1usize..40),
            strategy in 0usize..4,
            sort_dim in 0usize..4,
        ) {
            let domains: Vec<Domain> = shapes.iter().map(|&(s, at)| domain(s, at)).collect();
            let schema = Schema::new(
                domains
                    .iter()
                    .enumerate()
                    .map(|(d, &domain)| Dimension::new(format!("d{d}"), domain))
                    .collect(),
            )
            .unwrap();
            let rows: Vec<Row> = picks
                .iter()
                .enumerate()
                .map(|(i, &pick)| {
                    let h = if pooled { pool[pick as usize % pool.len()] } else { pick };
                    let values = domains
                        .iter()
                        .enumerate()
                        .map(|(d, &dom)| {
                            value_in(dom, h.rotate_left(13 * d as u32).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        })
                        .collect();
                    Row::cell(values, i as u64 + 1)
                })
                .collect();
            let n = rows.len();
            let capacity = match capacity {
                (0, _) => 1,
                (1, _) => n.max(1),
                (2, extra) => n + extra,
                (_, c) => c,
            };
            let strategy = match STRATEGIES[strategy] {
                PartitionStrategy::SortedBy(_) => PartitionStrategy::SortedBy(sort_dim),
                other => other,
            };
            let built = ClusterStore::build(schema.clone(), rows.clone(), capacity, strategy);
            let oracle = sort_then_chunk(schema, rows, capacity, strategy);
            match (built, oracle) {
                (Ok(built), Ok(oracle)) => {
                    prop_assert_eq!(built.capacity, oracle.capacity);
                    prop_assert_eq!(built.clusters, oracle.clusters);
                }
                (built, oracle) => prop_assert_eq!(built.err(), oracle.err()),
            }
        }
    }

    #[test]
    fn radix_sort_orders_full_width_keys_stably() {
        let keys = [u64::MAX, 0, 1 << 63, 7, u64::MAX, 1 << 20, 0, (1 << 48) + 3];
        let mut order: Vec<usize> = (0..keys.len()).collect();
        radix_sort(&mut order, u64::MAX, |i| keys[i]);
        let mut expected: Vec<usize> = (0..keys.len()).collect();
        expected.sort_by_key(|&i| keys[i]);
        assert_eq!(order, expected);
    }
}
