//! The federation runtime: end-to-end query lifecycle (Fig. 3).

use std::time::{Duration, Instant};

use fedaqp_dp::{PrivacyCost, QueryBudget};
use fedaqp_model::{RangeQuery, Row, Schema};
use fedaqp_storage::MetaSpaceReport;

use crate::aggregator::Aggregator;
use crate::config::{AllocationPolicy, FederationConfig, ReleaseMode};
use crate::engine::EngineHandle;
use crate::protocol::{combined_ci_halfwidth, query_bytes, LocalOutcome, PhaseTimings};
use crate::provider::DataProvider;
use crate::{CoreError, Result};

/// The answer to one federated query.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The DP-released answer returned to the analyst.
    pub value: f64,
    /// The exact (plain-text) answer — computed outside the timed path as
    /// the experiment oracle, never released.
    pub exact: u64,
    /// `|answer − estimation| / answer` (§6.1); `|estimation|` when the
    /// exact answer is zero.
    pub relative_error: f64,
    /// Per-phase latency breakdown.
    pub timings: PhaseTimings,
    /// Total clusters scanned across providers (work proxy).
    pub clusters_scanned: usize,
    /// Total covering-set size across providers (`Σ N^Q_i`).
    pub covering_total: usize,
    /// How many providers took the approximate path.
    pub approximated_providers: usize,
    /// The `(ε, δ)` charged for this query.
    pub cost: PrivacyCost,
    /// The per-provider sample-size allocations the aggregator computed.
    pub allocations: Vec<u64>,
    /// Σ of the providers' raw (pre-noise) estimates — a simulation-
    /// boundary diagnostic used by the Fig. 8 noise-range experiment;
    /// never released to the analyst.
    pub raw_estimate: f64,
    /// Per-provider smooth sensitivities (simulation-boundary diagnostic:
    /// the scale of each provider's release noise is `2·S_LS/ε_E`).
    pub smooth_ls: Vec<f64>,
    /// 95% confidence half-width of `raw_estimate` from the providers'
    /// Hansen–Hurwitz variances (sampling error only, noise excluded).
    /// `None` when any provider's variance was inestimable (single draw).
    pub ci_halfwidth: Option<f64>,
}

/// The answer and latency of a plain (non-private, non-approximate)
/// federated execution — the baseline of the speed-up metric.
#[derive(Debug, Clone, Copy)]
pub struct PlainAnswer {
    /// The exact aggregate.
    pub value: u64,
    /// Wall-clock latency (parallel scans) plus simulated network rounds.
    pub duration: Duration,
}

/// A running federation: `n` providers plus the aggregator.
#[derive(Debug)]
pub struct Federation {
    config: FederationConfig,
    schema: Schema,
    providers: Vec<DataProvider>,
    aggregator: Aggregator,
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
        let mut providers = Vec::with_capacity(partitions.len());
        for (id, rows) in partitions.into_iter().enumerate() {
            providers.push(DataProvider::build(id, schema.clone(), rows, &config)?);
        }
        let aggregator = Aggregator::new(config.seed, config.cost_model);
        Ok(Self {
            config,
            schema,
            providers,
            aggregator,
        })
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

    /// Exact plain-text answer over the union of partitions (oracle).
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
    /// ([`crate::stream::LiveFederation`]).
    pub(crate) fn providers_mut(&mut self) -> &mut [DataProvider] {
        &mut self.providers
    }

    /// Re-salts the noise seed (and the aggregator derived from it) — the
    /// streaming layer calls this once per accepted ingest batch so no RNG
    /// lane is ever replayed against two different data versions (a
    /// differencing attack would otherwise subtract identical noise).
    pub(crate) fn set_seed(&mut self, seed: u64) {
        self.config.seed = seed;
        self.aggregator = Aggregator::new(seed, self.config.cost_model);
    }

    /// Decomposes the federation so the engine can move each provider onto
    /// its own worker thread.
    pub(crate) fn into_parts(self) -> (FederationConfig, Schema, Vec<DataProvider>) {
        (self.config, self.schema, self.providers)
    }

    /// Reassembles a federation from parts handed back by the engine
    /// (`providers` must be in id order; the aggregator is rebuilt from the
    /// configured seed exactly as [`Federation::build`] does).
    pub(crate) fn from_parts(
        config: FederationConfig,
        schema: Schema,
        providers: Vec<DataProvider>,
    ) -> Self {
        let aggregator = Aggregator::new(config.seed, config.cost_model);
        Self {
            config,
            schema,
            providers,
            aggregator,
        }
    }

    /// Runs `f` against a temporary concurrent engine whose worker pool
    /// borrows this federation's providers (one worker thread per provider,
    /// alive for the whole closure). This is the cheap way to get pooled
    /// execution — including the plain baseline on the *same* threads as
    /// the private path — without giving up ownership of the federation;
    /// for a long-lived service use [`crate::engine::FederationEngine`].
    pub fn with_engine<R>(&self, f: impl FnOnce(&EngineHandle) -> R) -> R {
        let snapshot = crate::optimizer::MetaSnapshot::from_providers(&self.providers);
        let shadows = self.providers.iter().map(DataProvider::shadow).collect();
        let (handle, receivers) =
            crate::engine::pool_channels(&self.config, &self.schema, snapshot, shadows);
        std::thread::scope(|scope| {
            for (provider, rx) in self.providers.iter().zip(receivers) {
                scope.spawn(move || crate::engine::worker_loop(provider, rx));
            }
            // Close the pool when the closure returns *or unwinds*: the
            // scoped workers block in `recv()` until every sender is gone,
            // and `thread::scope` joins them before re-raising a panic —
            // without the drop guard, a panic inside `f` would deadlock
            // the process instead of propagating. Handle clones that
            // outlive the closure turn into errors rather than hangs.
            struct CloseOnDrop<'a>(&'a EngineHandle);
            impl Drop for CloseOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.close();
                }
            }
            let guard = CloseOnDrop(&handle);
            f(guard.0)
        })
    }

    /// Runs one query under the configured default budget.
    pub fn run(&mut self, query: &RangeQuery, sampling_rate: f64) -> Result<QueryAnswer> {
        let budget = self.default_budget()?;
        self.run_with_budget(query, sampling_rate, &budget)
    }

    /// Runs one query under an explicit per-query budget (the analyst's
    /// accountant charges `budget.cost()`; by parallel composition across
    /// providers that is the federation-wide cost, §5.4).
    pub fn run_with_budget(
        &mut self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
    ) -> Result<QueryAnswer> {
        self.run_query_inner(query, sampling_rate, budget, true)
    }

    /// [`Federation::run_with_budget`] without the exact-answer oracle:
    /// `exact` is 0 and `relative_error` is `NaN` in the returned answer.
    ///
    /// The oracle is a full plain scan of every provider — experiment
    /// instrumentation, not part of the protocol — so benchmarks that
    /// measure the *serving* cost of the serial runtime (e.g. the
    /// `throughput` experiment's baseline) must use this path or the
    /// serial side would be charged work the engine never does.
    pub fn run_protocol_only(
        &mut self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
    ) -> Result<QueryAnswer> {
        self.run_query_inner(query, sampling_rate, budget, false)
    }

    fn run_query_inner(
        &mut self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
        with_oracle: bool,
    ) -> Result<QueryAnswer> {
        if !(sampling_rate.is_finite() && 0.0 < sampling_rate && sampling_rate < 1.0) {
            return Err(CoreError::InvalidSamplingRate(sampling_rate));
        }
        query.check_schema(&self.schema)?;
        let cost_model = self.config.cost_model;
        let mode = self.config.release_mode;
        let eps_o = budget.eps_o;

        // ---- Steps 1–2: prepare + DP summaries ----
        // Providers run on dedicated servers in parallel (§6.1); this
        // serial runtime executes them one after another and charges each
        // phase the slowest provider's time (real threads are the
        // engine's job).
        let mut summary_time = Duration::ZERO;
        let mut prepared = Vec::with_capacity(self.providers.len());
        let mut summaries = Vec::with_capacity(self.providers.len());
        for p in self.providers.iter_mut() {
            let t = Instant::now();
            let prep = p.prepare(query);
            let summary = p.summary(query, &prep, eps_o)?;
            summary_time = summary_time.max(t.elapsed());
            prepared.push(prep);
            summaries.push(summary);
        }

        // ---- Step 3: allocation at the aggregator ----
        let t = Instant::now();
        let allocations = match self.config.allocation_policy {
            AllocationPolicy::Optimized => self.aggregator.allocate(&summaries, sampling_rate)?,
            AllocationPolicy::LocalUniform => self
                .aggregator
                .allocate_local_uniform(&summaries, sampling_rate)?,
        };
        let allocation_time = t.elapsed();

        // ---- Steps 4–6: local execution (parallel servers; see above) ----
        let release_local = mode == ReleaseMode::LocalDp;
        let mut execution_time = Duration::ZERO;
        let mut outcomes: Vec<LocalOutcome> = Vec::with_capacity(self.providers.len());
        for (p, (prep, &alloc)) in self
            .providers
            .iter_mut()
            .zip(prepared.iter().zip(&allocations))
        {
            let t = Instant::now();
            let outcome = p.execute(query, prep, alloc, budget, release_local)?;
            execution_time = execution_time.max(t.elapsed());
            outcomes.push(outcome);
        }

        // ---- Step 6/7: release ----
        let t = Instant::now();
        let (value, smc_network) = match mode {
            ReleaseMode::LocalDp => (self.aggregator.finalize_local(&outcomes)?, Duration::ZERO),
            ReleaseMode::Smc => {
                let (v, d) = self.aggregator.finalize_smc(&outcomes, budget.eps_e)?;
                (v, d)
            }
        };
        let release_time = t.elapsed();

        // ---- Simulated network: broadcast, summaries, allocations, and
        // (in local-DP mode) the result round; the SMC path accounts its own
        // rounds in `smc_network`. ----
        let mut network = cost_model.round_time(query_bytes(query))
            + cost_model.round_time(16)
            + cost_model.round_time(8);
        network += match mode {
            ReleaseMode::LocalDp => cost_model.round_time(16),
            ReleaseMode::Smc => smc_network,
        };

        let (exact, relative_error) = if with_oracle {
            let exact = self.exact(query);
            let relative_error = if exact == 0 {
                value.abs()
            } else {
                (exact as f64 - value).abs() / exact as f64
            };
            (exact, relative_error)
        } else {
            (0, f64::NAN)
        };
        Ok(QueryAnswer {
            value,
            exact,
            relative_error,
            timings: PhaseTimings {
                summary: summary_time,
                allocation: allocation_time,
                execution: execution_time,
                release: release_time,
                network,
            },
            clusters_scanned: outcomes.iter().map(|o| o.clusters_scanned).sum(),
            covering_total: outcomes.iter().map(|o| o.n_covering).sum(),
            approximated_providers: outcomes.iter().filter(|o| o.approximated).count(),
            cost: budget.cost(),
            allocations,
            raw_estimate: outcomes.iter().map(|o| o.estimate).sum(),
            smooth_ls: outcomes.iter().map(|o| o.smooth_ls).collect(),
            ci_halfwidth: combined_ci_halfwidth(&outcomes),
        })
    }

    /// Plain federated execution: every provider scans its full partition
    /// (in parallel) and the exact sum is returned — the "normal
    /// computation" baseline of the speed-up metric (§6.1).
    pub fn run_plain(&self, query: &RangeQuery) -> Result<PlainAnswer> {
        query.check_schema(&self.schema)?;
        // Parallel-server model: the phase costs the slowest provider.
        let mut scan_time = Duration::ZERO;
        let mut partials: Vec<u64> = Vec::with_capacity(self.providers.len());
        for p in &self.providers {
            let t = Instant::now();
            partials.push(p.exact_answer(query));
            scan_time = scan_time.max(t.elapsed());
        }
        let network = self.config.cost_model.round_time(query_bytes(query))
            + self.config.cost_model.round_time(16);
        Ok(PlainAnswer {
            value: partials.iter().sum(),
            duration: scan_time + network,
        })
    }

    /// Per-provider encoded-metadata footprints (§6.1 space report).
    pub fn meta_space(&self) -> Vec<MetaSpaceReport> {
        self.providers.iter().map(|p| p.meta_space()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut fed = Federation::build(config(50), schema(), partitions(200, 4)).unwrap();
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
        let mut fed = Federation::build(config(50), schema(), partitions(2000, 4)).unwrap();
        let q = count_query(100, 800);
        let ans = fed.run(&q, 0.2).unwrap();
        assert_eq!(ans.exact, fed.exact(&q));
        assert!(ans.value.is_finite());
        assert!(ans.relative_error >= 0.0);
        assert_eq!(ans.allocations.len(), 4);
        assert!(ans.clusters_scanned > 0);
        assert!(ans.covering_total >= ans.clusters_scanned);
        assert!((ans.cost.eps - 1.0).abs() < 1e-9);
        assert_eq!(ans.cost.delta, 1e-3);
    }

    #[test]
    fn approximation_scans_fewer_clusters_than_covering() {
        let mut fed = Federation::build(config(50), schema(), partitions(5000, 4)).unwrap();
        let q = count_query(0, 999);
        let ans = fed.run(&q, 0.1).unwrap();
        assert_eq!(ans.approximated_providers, 4);
        assert!(
            (ans.clusters_scanned as f64) < 0.5 * ans.covering_total as f64,
            "scanned {} of {}",
            ans.clusters_scanned,
            ans.covering_total
        );
    }

    #[test]
    fn loose_budget_gives_accurate_answers() {
        // With ε = 100 and 20% sampling the answer should land within ~20%
        // of the truth on this well-mixed data.
        let mut cfg = config(50);
        cfg.epsilon = 100.0;
        let mut fed = Federation::build(cfg, schema(), partitions(5000, 4)).unwrap();
        let q = count_query(0, 999);
        let ans = fed.run(&q, 0.2).unwrap();
        assert!(
            ans.relative_error < 0.2,
            "relative error {} too large",
            ans.relative_error
        );
    }

    #[test]
    fn smc_mode_releases_single_noise() {
        let mut cfg = config(50);
        cfg.release_mode = ReleaseMode::Smc;
        cfg.epsilon = 100.0;
        let mut fed = Federation::build(cfg, schema(), partitions(5000, 4)).unwrap();
        let q = count_query(0, 999);
        let ans = fed.run(&q, 0.2).unwrap();
        assert!(ans.value.is_finite());
        assert!(ans.relative_error < 0.2, "err {}", ans.relative_error);
    }

    #[test]
    fn small_covering_sets_take_exact_path() {
        let mut cfg = config(50);
        cfg.n_min = 10_000; // force the exact path everywhere
        cfg.epsilon = 50.0;
        let mut fed = Federation::build(cfg, schema(), partitions(2000, 4)).unwrap();
        let q = count_query(100, 900);
        let ans = fed.run(&q, 0.2).unwrap();
        assert_eq!(ans.approximated_providers, 0);
        // Exact path + loose budget ⇒ tiny error.
        assert!(ans.relative_error < 0.05, "err {}", ans.relative_error);
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
