//! Shared experiment plumbing: datasets → federations → workloads.

use std::path::PathBuf;
use std::time::Duration;

use fedaqp_core::{Federation, FederationConfig};
use fedaqp_data::{
    partition_rows, AdultConfig, AdultSynth, AmazonConfig, AmazonSynth, Dataset, PartitionMode,
    WorkloadConfig, WorkloadGenerator,
};
use fedaqp_model::{Aggregate, RangeQuery, Row};
use fedaqp_smc::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which evaluation dataset (§6.1) a testbed uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Adult-like (9 queryable dimensions; the paper queries 2–7).
    Adult,
    /// Amazon-Review-like (5 queryable dimensions; the paper queries 2–5).
    Amazon,
}

impl DatasetKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Adult => "adult_synth",
            DatasetKind::Amazon => "amazon",
        }
    }

    /// The paper's per-dataset cluster-size fraction of the per-provider
    /// tensor: 1% for Adult, 0.5% for Amazon (§6.1).
    pub fn cluster_fraction(&self) -> f64 {
        match self {
            DatasetKind::Adult => 0.01,
            DatasetKind::Amazon => 0.005,
        }
    }

    /// The paper's figure-default sampling rates: 20% Adult, 5% Amazon
    /// (§6.2).
    pub fn default_sampling_rate(&self) -> f64 {
        match self {
            DatasetKind::Adult => 0.20,
            DatasetKind::Amazon => 0.05,
        }
    }

    /// Query dimensionalities the paper sweeps for Fig. 4.
    pub fn dims_range(&self) -> std::ops::RangeInclusive<usize> {
        match self {
            DatasetKind::Adult => 2..=7,
            DatasetKind::Amazon => 2..=5,
        }
    }
}

/// Global experiment parameters (scales, seeds, output location).
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Raw rows for the Adult-like generator.
    pub adult_rows: u64,
    /// Raw rows for the Amazon-like generator.
    pub amazon_rows: u64,
    /// Queries per workload (`m`; the paper uses 100).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Directory for CSV outputs.
    pub out_dir: PathBuf,
}

impl ExperimentContext {
    /// Standard laptop-scale run (paper workload sizes, scaled data).
    ///
    /// The scales are chosen so typical workload answers reach ~10⁵ rows:
    /// the protocol's DP noise magnitude is data-size-independent (it is
    /// driven by `N^Q ≈ 100` clusters by the `S = 1%` rule), so relative
    /// errors only land in the paper's band once answers clear that bar.
    pub fn standard() -> Self {
        Self {
            adult_rows: 1_200_000,
            amazon_rows: 3_000_000,
            queries: 100,
            seed: 42,
            out_dir: PathBuf::from("results"),
        }
    }

    /// Fast smoke-test scale (trends visible, absolute errors inflated).
    pub fn quick() -> Self {
        Self {
            adult_rows: 150_000,
            amazon_rows: 300_000,
            queries: 15,
            seed: 42,
            out_dir: PathBuf::from("results"),
        }
    }

    /// Row count for `kind`.
    pub fn rows_for(&self, kind: DatasetKind) -> u64 {
        match kind {
            DatasetKind::Adult => self.adult_rows,
            DatasetKind::Amazon => self.amazon_rows,
        }
    }
}

/// A ready-to-query federation plus its ground truth.
pub struct Testbed {
    /// The federation under test.
    pub federation: Federation,
    /// Union of all partitions (experiment oracle; e.g. attack targets).
    pub truth: Vec<Row>,
    /// Which dataset this is.
    pub kind: DatasetKind,
}

/// Grid5000-flavoured network (§6.1 hardware: 10 Gbps SR-IOV links): the
/// cost model under which speed-ups are reported.
pub fn grid_network() -> CostModel {
    CostModel {
        latency: Duration::from_micros(100),
        bandwidth_bytes_per_sec: 1.25e9, // 10 Gbps
        ns_per_gate: 500,
        bytes_per_share: 8,
    }
}

/// Generates the dataset for `kind` at the context's scale.
pub fn generate_dataset(kind: DatasetKind, ctx: &ExperimentContext) -> Dataset {
    match kind {
        DatasetKind::Adult => AdultSynth::generate(AdultConfig {
            n_rows: ctx.rows_for(kind),
            seed: ctx.seed ^ 0xAD,
        })
        .expect("adult generation"),
        DatasetKind::Amazon => AmazonSynth::generate(AmazonConfig {
            n_rows: ctx.rows_for(kind),
            seed: ctx.seed ^ 0xA9,
        })
        .expect("amazon generation"),
    }
}

/// Builds a federation over `kind` with the paper's §6.1 configuration;
/// `tweak` customizes the config (ε, release mode, policies, …) before the
/// build.
pub fn build_testbed(
    kind: DatasetKind,
    ctx: &ExperimentContext,
    tweak: impl FnOnce(&mut FederationConfig),
) -> Testbed {
    let dataset = generate_dataset(kind, ctx);
    let n_providers = 4usize;
    let cells_per_provider = dataset.cells.len().div_ceil(n_providers);
    let capacity = ((cells_per_provider as f64 * kind.cluster_fraction()).round() as usize).max(32);
    let mut cfg = FederationConfig::paper_default(capacity);
    cfg.seed = ctx.seed;
    cfg.cost_model = grid_network();
    tweak(&mut cfg);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5117);
    let partitions = partition_rows(
        &mut rng,
        dataset.cells.clone(),
        cfg.n_providers,
        &PartitionMode::Equal,
    )
    .expect("partitioning");
    let federation =
        Federation::build(cfg, dataset.schema.clone(), partitions).expect("federation build");
    Testbed {
        federation,
        truth: dataset.cells,
        kind,
    }
}

/// Draws `m` random queries that (a) trigger approximation on every
/// provider (`N_min < N^Q`, §6.1) and (b) are "significantly large": their
/// exact answer clears 0.2% of the dataset (min 50).
///
/// The size floor reproduces the paper's regime at laptop scale: on a
/// 4×10⁶-row table every random wide range matches tens of thousands of
/// rows, so DP noise (whose magnitude is data-size-independent) is small in
/// *relative* terms. At our scaled-down sizes, unfloored random queries
/// can match a handful of rows, where the same absolute noise produces
/// meaningless 10⁴% relative errors.
pub fn filtered_workload(
    testbed: &Testbed,
    n_dims: usize,
    aggregate: Aggregate,
    m: usize,
    seed: u64,
) -> Vec<RangeQuery> {
    let mut generator = WorkloadGenerator::new(
        testbed.federation.schema().clone(),
        WorkloadConfig::new(n_dims, aggregate),
        seed,
    )
    .expect("workload config");
    let fed = &testbed.federation;
    let total: u64 = match aggregate {
        Aggregate::Count => fed
            .providers()
            .iter()
            .map(|p| p.store().total_rows() as u64)
            .sum(),
        Aggregate::Sum => fed
            .providers()
            .iter()
            .map(|p| p.store().total_measure())
            .sum(),
    };
    let floor = ((total as f64 * 0.002) as u64).max(50);
    generator.take_filtered(m, |q| {
        fed.triggers_approximation(q) && fed.exact(q) >= floor
    })
}

/// Aggregate statistics of running one workload through a federation.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadStats {
    /// Mean relative error across queries.
    pub mean_rel_error: f64,
    /// Mean speed-up (`plain duration / private duration`).
    pub mean_speedup: f64,
    /// Mean fraction of covering clusters actually scanned.
    pub mean_scanned_fraction: f64,
}

/// Runs every query both plainly and privately, under an explicit ε
/// (overriding the federation's configured default budget).
///
/// Both paths run through one engine worker pool (one persistent thread
/// per provider), so the speed-up metric compares like for like: the plain
/// scan and the timed private phases execute on identical threads and are
/// both charged the slowest provider's wall time plus simulated network.
pub fn run_workload_with_epsilon(
    testbed: &mut Testbed,
    queries: &[RangeQuery],
    sampling_rate: f64,
    epsilon: f64,
) -> WorkloadStats {
    let delta = testbed.federation.config().delta;
    let hp = testbed.federation.config().hyperparams;
    let budget =
        fedaqp_dp::QueryBudget::split(epsilon, delta, hp).expect("valid experiment budget");
    let mut errors = Vec::with_capacity(queries.len());
    let mut speedups = Vec::with_capacity(queries.len());
    let mut fractions = Vec::with_capacity(queries.len());
    testbed.federation.with_engine(|engine| {
        for q in queries {
            let plain = engine
                .submit_plain(q)
                .and_then(fedaqp_core::PendingPlain::wait)
                .expect("plain run");
            let ans = engine
                .submit_with_budget(q, sampling_rate, &budget)
                .and_then(fedaqp_core::PendingAnswer::wait)
                .expect("private run");
            errors.push(fedaqp_core::relative_error(plain.value, ans.value));
            let private = ans.timings.total().as_secs_f64().max(1e-9);
            speedups.push(plain.duration.as_secs_f64() / private);
            if ans.covering_total > 0 {
                fractions.push(ans.clusters_scanned as f64 / ans.covering_total as f64);
            }
        }
    });
    WorkloadStats {
        mean_rel_error: crate::report::mean(&errors),
        mean_speedup: crate::report::mean(&speedups),
        mean_scanned_fraction: crate::report::mean(&fractions),
    }
}

/// Runs a workload under the federation's configured default ε.
pub fn run_workload(
    testbed: &mut Testbed,
    queries: &[RangeQuery],
    sampling_rate: f64,
) -> WorkloadStats {
    let eps = testbed.federation.config().epsilon;
    run_workload_with_epsilon(testbed, queries, sampling_rate, eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext {
            adult_rows: 20_000,
            amazon_rows: 30_000,
            queries: 5,
            seed: 7,
            out_dir: PathBuf::from("/tmp/fedaqp_test_results"),
        }
    }

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::Adult.name(), "adult_synth");
        assert_eq!(DatasetKind::Amazon.cluster_fraction(), 0.005);
        assert_eq!(DatasetKind::Adult.dims_range(), 2..=7);
        assert!(DatasetKind::Amazon.default_sampling_rate() < 0.1);
    }

    #[test]
    fn builds_adult_testbed() {
        let ctx = tiny_ctx();
        let tb = build_testbed(DatasetKind::Adult, &ctx, |cfg| cfg.n_min = 3);
        assert_eq!(tb.federation.providers().len(), 4);
        assert_eq!(tb.kind, DatasetKind::Adult);
        let total: u64 = tb
            .federation
            .providers()
            .iter()
            .map(|p| p.store().total_measure())
            .sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn filtered_workload_respects_filter() {
        let ctx = tiny_ctx();
        let tb = build_testbed(DatasetKind::Adult, &ctx, |cfg| cfg.n_min = 2);
        let qs = filtered_workload(&tb, 2, Aggregate::Count, 5, 11);
        assert!(!qs.is_empty());
        for q in &qs {
            assert!(tb.federation.triggers_approximation(q));
            assert!(tb.federation.exact(q) > 0);
            assert_eq!(q.dimensionality(), 2);
        }
    }

    #[test]
    fn contexts_have_sane_defaults() {
        let std_ctx = ExperimentContext::standard();
        let quick = ExperimentContext::quick();
        assert!(std_ctx.adult_rows > quick.adult_rows);
        assert!(std_ctx.queries > quick.queries);
        assert_eq!(std_ctx.rows_for(DatasetKind::Amazon), std_ctx.amazon_rows);
    }
}
