//! The federation runtime: end-to-end query lifecycle (Fig. 3).

use std::sync::Arc;
use std::time::Duration;

use fedaqp_dp::{PrivacyCost, QueryBudget};
use fedaqp_model::{RangeQuery, Row, Schema};
use fedaqp_storage::{ClusterStore, MetaSpaceReport};

use crate::config::FederationConfig;
use crate::engine::EngineHandle;
use crate::plan::ShardedAnswer;
use crate::provider::DataProvider;
use crate::{CoreError, Result};

/// The answer and latency of a plain (non-private, non-approximate)
/// federated execution — the baseline of the speed-up metric.
#[derive(Debug, Clone, Copy)]
pub struct PlainAnswer {
    /// The exact aggregate.
    pub value: u64,
    /// Wall-clock latency (parallel scans) plus simulated network rounds.
    pub duration: Duration,
}

/// One private query answered in process, with the simulation-boundary
/// diagnostics no served answer carries: the experiments' oracle.
///
/// The raw estimate and the smooth sensitivities are read from the one
/// engine's own outcomes, in the coordinator that released `answer`; no
/// remote shard is ever asked for them, and no wire frame can carry them.
#[derive(Debug, Clone)]
pub struct OracleAnswer {
    /// What an analyst would have been released.
    pub answer: ShardedAnswer,
    /// Σ of the providers' raw (pre-noise) estimates.
    pub raw_estimate: f64,
    /// Per-provider smooth sensitivities, in provider order.
    pub smooth_ls: Vec<f64>,
}

/// A federation at rest: the configuration, the public schema and the `n`
/// providers. Every protocol step runs on an engine over it
/// ([`Federation::with_engine`] or [`crate::FederationEngine`]).
#[derive(Debug)]
pub struct Federation {
    config: FederationConfig,
    schema: Schema,
    /// Shared with every scoped engine built over this federation, and
    /// copied on write while one still holds it.
    providers: Arc<Vec<DataProvider>>,
}

impl Federation {
    /// Builds the federation from per-provider horizontal partitions
    /// (offline phase: clustering + Algorithm 1 metadata per provider).
    pub fn build(
        config: FederationConfig,
        schema: Schema,
        partitions: Vec<Vec<Row>>,
    ) -> Result<Self> {
        config.validate()?;
        if partitions.len() != config.n_providers {
            return Err(CoreError::PartitionMismatch {
                partitions: partitions.len(),
                providers: config.n_providers,
            });
        }
        let stores = partitions
            .into_iter()
            .map(|rows| {
                ClusterStore::build(
                    schema.clone(),
                    rows,
                    config.cluster_capacity,
                    config.partition_strategy,
                )
            })
            .collect::<std::result::Result<_, _>>()?;
        Self::from_stores(config, schema, stores)
    }

    /// Assembles the federation from per-provider stores that are already
    /// clustered — decoded from disk, say — building only the Algorithm 1
    /// metadata. Every store must share `schema` and have been clustered
    /// at `config.cluster_capacity`; a store that differs is refused, since
    /// nothing here re-clusters it.
    pub fn from_stores(
        config: FederationConfig,
        schema: Schema,
        stores: Vec<ClusterStore>,
    ) -> Result<Self> {
        config.validate()?;
        if stores.len() != config.n_providers {
            return Err(CoreError::PartitionMismatch {
                partitions: stores.len(),
                providers: config.n_providers,
            });
        }
        if stores.iter().any(|s| s.schema() != &schema) {
            return Err(CoreError::BadConfig(
                "a provider store's schema differs from the federation's",
            ));
        }
        if stores
            .iter()
            .any(|s| s.capacity() != config.cluster_capacity)
        {
            return Err(CoreError::BadConfig(
                "a provider store's cluster capacity differs from the configured one",
            ));
        }
        let providers = stores
            .into_iter()
            .enumerate()
            .map(|(id, store)| DataProvider::from_store(id, store, &config))
            .collect();
        Ok(Self::from_parts(config, schema, providers))
    }

    /// The federation's configuration.
    #[inline]
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The public table schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The data providers (read access for diagnostics/experiments).
    #[inline]
    pub fn providers(&self) -> &[DataProvider] {
        &self.providers
    }

    /// Exact plain-text answer over the union of partitions — the
    /// experiment oracle: a full scan of every provider, never released
    /// and never part of a served answer. Callers that want the §6.1
    /// accuracy metric pair it with [`crate::protocol::relative_error`].
    pub fn exact(&self, query: &RangeQuery) -> u64 {
        self.providers.iter().map(|p| p.exact_answer(query)).sum()
    }

    /// Whether `query` would trigger approximation on **every** provider
    /// (`N^Q ≥ N_min` for all) — the §6.1 workload filter.
    pub fn triggers_approximation(&self, query: &RangeQuery) -> bool {
        self.providers
            .iter()
            .all(|p| p.prepare(query).n_q() >= p.n_min())
    }

    /// The `(ε, δ)` a query run under the default budget costs the analyst.
    pub fn default_query_cost(&self) -> Result<PrivacyCost> {
        Ok(self.default_budget()?.cost())
    }

    /// The default per-query budget from the configuration.
    pub fn default_budget(&self) -> Result<QueryBudget> {
        self.config.query_budget()
    }

    /// Mutable provider access for the streaming-ingest layer
    /// ([`crate::stream::LiveFederation`]): copies the providers first if
    /// an engine still holds them, which keeps answering from its copy.
    pub(crate) fn providers_mut(&mut self) -> &mut [DataProvider] {
        Arc::make_mut(&mut self.providers).as_mut_slice()
    }

    /// Re-salts the noise seed — the streaming layer calls this once per
    /// accepted ingest batch so no RNG lane is ever replayed against two
    /// different data versions (a differencing attack would otherwise
    /// subtract identical noise).
    pub(crate) fn set_seed(&mut self, seed: u64) {
        self.config.seed = seed;
    }

    /// Decomposes the federation so the engine can move each provider onto
    /// its own worker thread (a copy of them, if a scoped engine still
    /// holds them).
    pub(crate) fn into_parts(self) -> (FederationConfig, Schema, Vec<DataProvider>) {
        let providers = Arc::try_unwrap(self.providers).unwrap_or_else(|shared| (*shared).clone());
        (self.config, self.schema, providers)
    }

    /// Reassembles a federation from parts handed back by the engine
    /// (`providers` must be in id order).
    pub(crate) fn from_parts(
        config: FederationConfig,
        schema: Schema,
        providers: Vec<DataProvider>,
    ) -> Self {
        Self {
            config,
            schema,
            providers: Arc::new(providers),
        }
    }

    /// Runs `f` against a temporary engine that shares this federation's
    /// providers and spawns no worker: each job `f` submits runs, every
    /// provider's turn in id order, on the first thread that waits for it
    /// (see [`crate::engine`]). Concurrency comes from `f`'s own threads,
    /// and from a large cluster read, which fans out for its own length
    /// ([`fedaqp_storage::ClusterStore::evaluate_each`]).
    /// This is the cheap way to run queries — including the plain
    /// baseline on the *same* threads as the private path — without giving
    /// up ownership of the federation; for a long-lived service with a
    /// per-provider worker pool use [`crate::engine::FederationEngine`].
    ///
    /// The engine is the lifetime of its occurrence ledger: a fresh one
    /// starts every content at occurrence 0. A clone of it that outlives
    /// `f` keeps answering from this federation's providers as they were.
    pub fn with_engine<R>(&self, f: impl FnOnce(&EngineHandle) -> R) -> R {
        f(&self.scoped_engine())
    }

    /// A scoped engine over the providers as they are now, with a fresh
    /// occurrence ledger.
    pub(crate) fn scoped_engine(&self) -> EngineHandle {
        EngineHandle::scoped(&self.config, &self.schema, &self.providers)
    }

    /// Runs one query under the configured default budget: one submission
    /// on a fresh [`Self::with_engine`] scope, answered with the in-process
    /// oracle's diagnostics.
    ///
    /// A scope owns its occurrence ledger, so every call is occurrence 0
    /// of its content: calling this twice with the same query releases the
    /// same bytes twice (a replay reveals nothing new). A loop that needs
    /// independent draws opens **one** scope and submits inside it.
    pub fn run(&self, query: &RangeQuery, sampling_rate: f64) -> Result<OracleAnswer> {
        self.run_with_budget(query, sampling_rate, &self.default_budget()?)
    }

    /// [`Self::run`] under an explicit per-query budget (the analyst's
    /// accountant charges `budget.cost()`; by parallel composition across
    /// providers that is the federation-wide cost, §5.4).
    pub fn run_with_budget(
        &self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
    ) -> Result<OracleAnswer> {
        self.with_engine(|engine| engine.run_oracle(query, sampling_rate, budget))
    }

    /// Plain federated execution: every provider scans its full partition
    /// (on the same kind of engine as the private path, charged the
    /// slowest provider's time) and the exact sum is returned — the
    /// "normal computation" baseline of the speed-up metric (§6.1).
    pub fn run_plain(&self, query: &RangeQuery) -> Result<PlainAnswer> {
        self.with_engine(|engine| engine.submit_plain(query)?.wait())
    }

    /// Per-provider encoded-metadata footprints (§6.1 space report).
    pub fn meta_space(&self) -> Vec<MetaSpaceReport> {
        self.providers.iter().map(|p| p.meta_space()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReleaseMode;
    use crate::protocol::relative_error;
    use fedaqp_model::{Aggregate, Dimension, Domain, Range};
    use fedaqp_smc::CostModel;

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::new("x", Domain::new(0, 999).unwrap()),
            Dimension::new("y", Domain::new(0, 99).unwrap()),
        ])
        .unwrap()
    }

    fn partitions(rows_per: usize, n: usize) -> Vec<Vec<Row>> {
        (0..n)
            .map(|p| {
                (0..rows_per)
                    .map(|i| {
                        let v = (i * 7 + p * 13) % 1000;
                        Row::cell(vec![v as i64, ((i + p) % 100) as i64], 1 + (i % 3) as u64)
                    })
                    .collect()
            })
            .collect()
    }

    fn config(capacity: usize) -> FederationConfig {
        let mut cfg = FederationConfig::paper_default(capacity);
        cfg.cost_model = CostModel::zero();
        cfg.n_min = 3;
        cfg
    }

    fn count_query(lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    #[test]
    fn build_validates_partition_count() {
        let err = Federation::build(config(50), schema(), partitions(100, 2)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PartitionMismatch {
                partitions: 2,
                providers: 4
            }
        ));
    }

    #[test]
    fn plain_execution_is_exact() {
        let fed = Federation::build(config(50), schema(), partitions(1000, 4)).unwrap();
        let q = count_query(100, 700);
        let plain = fed.run_plain(&q).unwrap();
        assert_eq!(plain.value, fed.exact(&q));
    }

    #[test]
    fn run_rejects_bad_sampling_rate() {
        let fed = Federation::build(config(50), schema(), partitions(200, 4)).unwrap();
        let q = count_query(0, 999);
        assert!(matches!(
            fed.run(&q, 0.0),
            Err(CoreError::InvalidSamplingRate(_))
        ));
        assert!(matches!(
            fed.run(&q, 1.0),
            Err(CoreError::InvalidSamplingRate(_))
        ));
    }

    #[test]
    fn answer_fields_are_consistent() {
        let fed = Federation::build(config(50), schema(), partitions(2000, 4)).unwrap();
        let q = count_query(100, 800);
        let ans = fed.run(&q, 0.2).unwrap();
        assert!(ans.answer.value.is_finite());
        assert!(ans.raw_estimate.is_finite());
        assert_eq!(ans.answer.allocations.len(), 4);
        assert!(ans.answer.clusters_scanned > 0);
        assert!(ans.answer.covering_total >= ans.answer.clusters_scanned);
        assert!((ans.answer.cost.eps - 1.0).abs() < 1e-9);
        assert_eq!(ans.answer.cost.delta, 1e-3);
    }

    #[test]
    fn approximation_scans_fewer_clusters_than_covering() {
        let fed = Federation::build(config(50), schema(), partitions(5000, 4)).unwrap();
        let q = count_query(0, 999);
        let ans = fed.run(&q, 0.1).unwrap();
        assert_eq!(ans.answer.approximated_providers, 4);
        assert!(
            (ans.answer.clusters_scanned as f64) < 0.5 * ans.answer.covering_total as f64,
            "scanned {} of {}",
            ans.answer.clusters_scanned,
            ans.answer.covering_total
        );
    }

    #[test]
    fn loose_budget_gives_accurate_answers() {
        // With ε = 100 and 20% sampling the answer should land within ~20%
        // of the truth on this well-mixed data.
        let mut cfg = config(50);
        cfg.epsilon = 100.0;
        let fed = Federation::build(cfg, schema(), partitions(5000, 4)).unwrap();
        let q = count_query(0, 999);
        let err = relative_error(fed.exact(&q), fed.run(&q, 0.2).unwrap().answer.value);
        assert!(err < 0.2, "relative error {err} too large");
    }

    #[test]
    fn smc_mode_releases_single_noise() {
        let mut cfg = config(50);
        cfg.release_mode = ReleaseMode::Smc;
        cfg.epsilon = 100.0;
        let fed = Federation::build(cfg, schema(), partitions(5000, 4)).unwrap();
        let q = count_query(0, 999);
        let ans = fed.run(&q, 0.2).unwrap();
        assert!(ans.answer.value.is_finite());
        let err = relative_error(fed.exact(&q), ans.answer.value);
        assert!(err < 0.2, "err {err}");
    }

    #[test]
    fn small_covering_sets_take_exact_path() {
        let mut cfg = config(50);
        cfg.n_min = 10_000; // force the exact path everywhere
        cfg.epsilon = 50.0;
        let fed = Federation::build(cfg, schema(), partitions(2000, 4)).unwrap();
        let q = count_query(100, 900);
        let ans = fed.run(&q, 0.2).unwrap();
        assert_eq!(ans.answer.approximated_providers, 0);
        // Exact path + loose budget ⇒ tiny error.
        let err = relative_error(fed.exact(&q), ans.answer.value);
        assert!(err < 0.05, "err {err}");
        assert!(!fed.triggers_approximation(&q));
    }

    #[test]
    fn meta_space_covers_all_providers() {
        let fed = Federation::build(config(50), schema(), partitions(500, 4)).unwrap();
        let reports = fed.meta_space();
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.total_bytes > 0));
    }

    #[test]
    fn default_cost_matches_config() {
        let fed = Federation::build(config(50), schema(), partitions(100, 4)).unwrap();
        let c = fed.default_query_cost().unwrap();
        assert!((c.eps - 1.0).abs() < 1e-9);
        assert_eq!(c.delta, 1e-3);
    }
}
