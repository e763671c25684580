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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Keep input order and chunk. With generator output this approximates
    /// insertion order (mild locality).
    Sequential,
    /// Sort by one dimension, then chunk — models a clustered index /
    /// naturally ordered pages; produces strong per-cluster locality and is
    /// the evaluation default.
    SortedBy(usize),
    /// Sort lexicographically by all dimensions, then chunk — the layout a
    /// count tensor materialized in dimension order would have.
    SortedLex,
    /// Round-robin rows across clusters — the adversarial, *uniform* layout
    /// where cluster sampling has nothing to exploit (ablation baseline).
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
    pub fn build(
        schema: Schema,
        mut rows: Vec<Row>,
        capacity: usize,
        strategy: PartitionStrategy,
    ) -> Result<Self> {
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
                // Stable round-robin: row i goes to cluster i % n_clusters.
                let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n_clusters];
                for (i, r) in rows.drain(..).enumerate() {
                    buckets[i % n_clusters].push(r);
                }
                rows = buckets.into_iter().flatten().collect();
            }
        }
        let arity = schema.arity();
        let mut clusters = Vec::with_capacity(rows.len().div_ceil(capacity));
        for (i, chunk) in rows.chunks(capacity.max(1)).enumerate() {
            clusters.push(Arc::new(Cluster::from_rows(
                i as ClusterId,
                arity,
                chunk,
                capacity,
            )?));
        }
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
}
