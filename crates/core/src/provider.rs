//! A data provider: local cluster store + metadata + the per-query local
//! protocol (steps 1–6 of Fig. 3).

use fedaqp_dp::{laplace_noise, QueryBudget, SmoothSensitivity};
use fedaqp_model::{Aggregate, RangeQuery, Row};
use fedaqp_sampling::em::{delta_p, em_sample};
use fedaqp_sampling::hansen_hurwitz::{hh_estimate, hh_variance, HansenHurwitz};
use fedaqp_storage::codec::meta_space_report;
use fedaqp_storage::{ClusterId, ClusterStore, MetaSpaceReport, ProviderMeta};
use rand::rngs::StdRng;

use crate::config::{
    EstimatorCalibration, FederationConfig, ProportionSource, SamplingPolicy, SensitivityRegime,
};
use crate::protocol::{LocalOutcome, ProviderSummary};
use crate::sensitivity::{
    delta_avg_r, delta_r_for, smooth_estimator_sensitivity, ClusterSensitivityInput,
    SensitivityContext,
};
use crate::{CoreError, Result};

/// The covering set and proportions a provider computes once per query
/// (protocol step 1) and reuses across phases.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// `C^Q` — ids of covering clusters (Eq. 2).
    pub covering: Vec<ClusterId>,
    /// `R̂` — approximated proportions, aligned with `covering`.
    pub proportions: Vec<f64>,
    /// `Σ R̂` (used by the summary and by Thm. 5.4).
    pub sum_r: f64,
}

impl PreparedQuery {
    /// `N^Q` — the covering-set size.
    #[inline]
    pub fn n_q(&self) -> usize {
        self.covering.len()
    }

    /// `Avg(R̂)` — the exact (pre-noise) summary average.
    fn avg_r(&self) -> f64 {
        if self.covering.is_empty() {
            0.0
        } else {
            self.sum_r / self.covering.len() as f64
        }
    }
}

/// The provider-independent scalars of protocol steps 2 and 4–6:
/// everything a provider's *noise-only* turn (a provably empty covering
/// set) reads. All of it is public — configuration plus the agreed
/// cluster size — never data.
///
/// [`crate::engine`] captures one shadow per provider at pool start so a
/// pruned provider's turn can be answered on the analyst thread without a
/// worker round trip; the provider's own summary and exact-release
/// methods route through the same shadow, so the inline and worker paths
/// share one implementation and cannot drift apart byte-wise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProviderShadow {
    id: usize,
    n_min: usize,
    regime: SensitivityRegime,
    agreed_s: usize,
    arity: usize,
    sum_measure_cap: u64,
}

impl ProviderShadow {
    /// The provider id this shadow answers for.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Protocol step 2: the DP summary `(Ñ^Q, Avg(R̂)~)` under `ε_O`
    /// (Eq. 5); each component gets `ε_O/2`.
    pub(crate) fn summary(
        &self,
        query: &RangeQuery,
        prep: &PreparedQuery,
        eps_o: f64,
        rng: &mut StdRng,
    ) -> Result<ProviderSummary> {
        if !(eps_o.is_finite() && eps_o > 0.0) {
            return Err(CoreError::BadConfig("summary budget must be positive"));
        }
        let dr = delta_r_for(
            self.regime,
            self.agreed_s,
            self.arity,
            query.dimensionality(),
        );
        let d_avg = delta_avg_r(dr, self.n_min);
        let half = eps_o / 2.0;
        let noisy_avg_r = prep.avg_r() + laplace_noise(rng, d_avg / half);
        let noisy_n_q = prep.n_q() as f64 + laplace_noise(rng, 1.0 / half);
        Ok(ProviderSummary {
            provider: self.id,
            noisy_n_q,
            noisy_avg_r,
        })
    }

    /// The exact-path release (the `N^Q < N_min` branch of steps 4–6)
    /// over an already-computed scan `value`.
    pub(crate) fn exact_outcome(
        &self,
        query: &RangeQuery,
        value: f64,
        covering: usize,
        budget: &QueryBudget,
        release_local: bool,
        rng: &mut StdRng,
    ) -> LocalOutcome {
        let sensitivity = match query.aggregate() {
            Aggregate::Count => 1.0,
            Aggregate::Sum => self.sum_measure_cap as f64,
        };
        // The EM budget is unspent on this path; fold it into the release
        // so the per-query total stays ε_O + ε_S + ε_E.
        let eps_release = budget.eps_s + budget.eps_e;
        let released = if release_local {
            Some(value + laplace_noise(rng, sensitivity / eps_release))
        } else {
            None
        };
        LocalOutcome {
            provider: self.id,
            released,
            estimate: value,
            smooth_ls: sensitivity,
            // A full covering-set scan has genuinely zero sampling variance.
            variance: Some(0.0),
            approximated: false,
            clusters_scanned: covering,
            n_covering: covering,
        }
    }

    /// A pruned provider's whole steps-4–6 turn: an empty covering set
    /// always takes the exact path (`N^Q = 0 < N_min`, since `N_min ≥ 1`)
    /// and scans zero clusters, so only the release noise remains.
    pub(crate) fn empty_outcome(
        &self,
        query: &RangeQuery,
        budget: &QueryBudget,
        release_local: bool,
        rng: &mut StdRng,
    ) -> LocalOutcome {
        self.exact_outcome(query, 0.0, 0, budget, release_local, rng)
    }
}

/// The Algorithm 1 metadata of `store` under `config`'s agreed `S`, with
/// the configured coarsening.
fn provider_meta(store: &ClusterStore, config: &FederationConfig) -> ProviderMeta {
    let full = ProviderMeta::build(store, config.agreed_s);
    match config.metadata_buckets {
        Some(buckets) => full.coarsened(buckets),
        None => full,
    }
}

/// One data provider of the federation.
#[derive(Debug, Clone)]
pub struct DataProvider {
    id: usize,
    store: ClusterStore,
    meta: ProviderMeta,
    n_min: usize,
    regime: SensitivityRegime,
    sum_measure_cap: u64,
    sampling_policy: SamplingPolicy,
    proportion_source: ProportionSource,
    calibration: EstimatorCalibration,
}

impl DataProvider {
    /// Wraps an already-clustered store — one decoded from disk, say — and
    /// constructs its Algorithm 1 metadata. The store is taken as is: the
    /// caller vouches that it was clustered under `config`.
    pub fn from_store(id: usize, store: ClusterStore, config: &FederationConfig) -> Self {
        Self {
            id,
            meta: provider_meta(&store, config),
            store,
            n_min: config.n_min.max(1),
            regime: config.sensitivity_regime,
            sum_measure_cap: config.sum_measure_cap.max(1),
            sampling_policy: config.sampling_policy,
            proportion_source: config.proportion_source,
            calibration: config.estimator_calibration,
        }
    }

    /// Provider id.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The local cluster store.
    #[inline]
    pub fn store(&self) -> &ClusterStore {
        &self.store
    }

    /// The local metadata.
    #[inline]
    pub fn meta(&self) -> &ProviderMeta {
        &self.meta
    }

    /// The provider's approximation threshold `N_min`.
    #[inline]
    pub fn n_min(&self) -> usize {
        self.n_min
    }

    /// Encoded metadata footprint (for the §6.1 space report).
    pub fn meta_space(&self) -> MetaSpaceReport {
        meta_space_report(&self.meta)
    }

    /// Streaming ingest: appends `row` to the live store and maintains the
    /// Algorithm 1 metadata incrementally (tail counters bumped in place; a
    /// freshly opened cluster gets empty per-dimension metadata first). On
    /// uncoarsened metadata this is exactly equivalent to a from-scratch
    /// rebuild; on bucketed metadata the min/max stay exact while interior
    /// tails drift, which is why [`crate::stream::LiveFederation`] bounds
    /// staleness with a full-recompute policy.
    pub(crate) fn append_row(&mut self, row: &Row) -> Result<()> {
        let arity = self.store.schema().arity();
        let outcome = self.store.append_row(row)?;
        self.meta
            .append_row(outcome.cluster, outcome.new_cluster, row, arity);
        Ok(())
    }

    /// Full Algorithm 1 metadata recompute (plus the configured coarsening),
    /// exactly as [`DataProvider::from_store`] does — the staleness-triggered
    /// refresh path of [`crate::stream::LiveFederation`].
    pub(crate) fn rebuild_meta(&mut self, config: &FederationConfig) {
        self.meta = provider_meta(&self.store, config);
    }

    /// Protocol step 1: identify `C^Q` and compute `R̂`.
    ///
    /// With [`ProportionSource::Metadata`] (the paper) proportions come from
    /// the Algorithm 1 tail structures without touching data; the
    /// [`ProportionSource::ExactScan`] ablation instead scans every covering
    /// cluster — as expensive as answering the query, which is exactly the
    /// overhead §5.2 argues the metadata avoids.
    pub fn prepare(&self, query: &RangeQuery) -> PreparedQuery {
        let covering = self.meta.covering(query);
        let proportions = match self.proportion_source {
            ProportionSource::Metadata => self.meta.proportions(query, &covering),
            ProportionSource::ExactScan => covering
                .iter()
                .map(|&id| {
                    let cluster = self.store.cluster(id).expect("covering id valid");
                    cluster.matching_rows(query.ranges()) as f64 / self.meta.agreed_s() as f64
                })
                .collect(),
        };
        let sum_r = proportions.iter().sum();
        PreparedQuery {
            covering,
            proportions,
            sum_r,
        }
    }

    /// Protocol step 2: release the DP summary `(Ñ^Q, Avg(R̂)~)` under
    /// `ε_O` (Eq. 5); each component gets `ε_O/2`.
    ///
    /// The provider holds no RNG of its own: the caller supplies one. The
    /// engine derives one per `(query content, occurrence, provider)`, so
    /// a seeded run is deterministic however queries interleave on the
    /// provider — a stateful per-provider stream would make every release
    /// depend on the order of unrelated traffic.
    pub fn summary_with_rng(
        &self,
        query: &RangeQuery,
        prep: &PreparedQuery,
        eps_o: f64,
        rng: &mut StdRng,
    ) -> Result<ProviderSummary> {
        self.shadow().summary(query, prep, eps_o, rng)
    }

    /// This provider's [`ProviderShadow`] — the public protocol scalars
    /// the engine needs to answer a pruned turn without the provider.
    pub(crate) fn shadow(&self) -> ProviderShadow {
        ProviderShadow {
            id: self.id,
            n_min: self.n_min,
            regime: self.regime,
            agreed_s: self.meta.agreed_s(),
            arity: self.store.schema().arity(),
            sum_measure_cap: self.sum_measure_cap,
        }
    }

    /// Protocol steps 4–6: answer the query locally.
    ///
    /// * `N^Q < N_min` → exact path: scan the covering clusters and release
    ///   with plain Laplace noise (sensitivity 1 for COUNT, the configured
    ///   measure cap for SUM) under the unspent `ε_S + ε_E`.
    /// * Otherwise → approximate path: EM-sample `allocation` clusters
    ///   (Alg. 2, `ε_S`), Hansen–Hurwitz estimate (Eq. 3), smooth
    ///   sensitivity (Alg. 3), and—in local-DP mode—release with
    ///   `Lap(2·S_LS/ε_E)`.
    ///
    /// `release_local` selects whether the provider perturbs its own value
    /// (local-DP mode) or leaves `released = None` for the SMC path. All
    /// randomness (EM sampling, release noise) is drawn from `rng` — see
    /// [`Self::summary_with_rng`].
    pub fn execute_with_rng(
        &self,
        query: &RangeQuery,
        prep: &PreparedQuery,
        allocation: u64,
        budget: &QueryBudget,
        release_local: bool,
        rng: &mut StdRng,
    ) -> Result<LocalOutcome> {
        let n_q = prep.n_q();
        if n_q < self.n_min {
            return self.execute_exact(query, prep, budget, release_local, rng);
        }
        let s = (allocation.max(1) as usize).min(n_q);
        // Uniform ablation: every covering cluster scores equally, turning
        // the EM draw into DP-uniform cluster sampling.
        let uniform_weights;
        let weights: &[f64] = match self.sampling_policy {
            SamplingPolicy::Pps => &prep.proportions,
            SamplingPolicy::Uniform => {
                uniform_weights = vec![1.0; n_q];
                &uniform_weights
            }
        };
        let dp_score = delta_p(self.n_min);
        let sample = em_sample(rng, weights, s, budget.eps_s, dp_score)?;
        let dr = delta_r_for(
            self.regime,
            self.meta.agreed_s(),
            self.store.schema().arity(),
            query.dimensionality(),
        );
        // The sampler's *actual* minimum draw probability. Under
        // `EmCalibrated` (the default) every Hansen–Hurwitz draw is divided
        // by its own exact EM probability — the distribution the sampler
        // actually used — which makes the estimator unbiased by
        // construction and keeps the scenario-4 slope at `1/q_i ≤
        // 1/p_floor`. Under `PpsEq3` (the paper's Eq. 3) the divisor is
        // the raw PPS probability floored at `p_floor`: dividing by less
        // would inflate both the estimate and the sensitivity without
        // statistical meaning (metadata can assign `R̂ ≈ 0` to a cluster
        // the privacy-noised sampler nevertheless selected).
        let p_floor = sample.min_draw_probability()?;
        let ctx = SensitivityContext::new(
            prep.sum_r,
            dr,
            self.meta.agreed_s(),
            p_floor,
            self.calibration,
        );
        // Scan each *distinct* drawn cluster once, in first-draw order, in
        // one read (which fans out when it is large); repeats reuse the
        // value.
        let mut drawn = vec![false; n_q];
        let distinct: Vec<usize> = sample
            .chosen
            .iter()
            .copied()
            .filter(|&pos| !std::mem::replace(&mut drawn[pos], true))
            .collect();
        let ids: Vec<ClusterId> = distinct.iter().map(|&pos| prep.covering[pos]).collect();
        let mut value_at = vec![0u64; n_q];
        for (&pos, v) in distinct.iter().zip(self.store.evaluate_each(query, &ids)?) {
            value_at[pos] = v;
        }
        let mut draws = Vec::with_capacity(s);
        let mut sens_inputs = Vec::with_capacity(s);
        for &pos in &sample.chosen {
            let q_c = value_at[pos];
            let p = ctx.divisor(sample.pps[pos], sample.em_probabilities[pos]);
            draws.push(HansenHurwitz {
                value: q_c as f64,
                probability: p,
            });
            sens_inputs.push(ClusterSensitivityInput {
                q_c: q_c as f64,
                r: prep.proportions[pos],
                p,
            });
        }
        let estimate = hh_estimate(&draws)?;
        let variance = hh_variance(&draws, estimate);
        let smooth = SmoothSensitivity::new(budget.eps_e, budget.delta)?;
        let smooth_ls = smooth_estimator_sensitivity(&smooth, &sens_inputs, &ctx);
        let released = if release_local {
            Some(smooth.release(rng, estimate, smooth_ls))
        } else {
            None
        };
        Ok(LocalOutcome {
            provider: self.id,
            released,
            estimate,
            smooth_ls,
            variance,
            approximated: true,
            clusters_scanned: distinct.len(),
            n_covering: n_q,
        })
    }

    /// The exact ("regular") path of protocol step 4.
    fn execute_exact(
        &self,
        query: &RangeQuery,
        prep: &PreparedQuery,
        budget: &QueryBudget,
        release_local: bool,
        rng: &mut StdRng,
    ) -> Result<LocalOutcome> {
        let value = self.store.evaluate_clusters(query, &prep.covering)? as f64;
        Ok(self.shadow().exact_outcome(
            query,
            value,
            prep.covering.len(),
            budget,
            release_local,
            rng,
        ))
    }

    /// Exact full-partition answer (test oracle / plain baseline).
    pub fn exact_answer(&self, query: &RangeQuery) -> u64 {
        self.store.evaluate_full(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_dp::HyperParams;
    use fedaqp_model::{Dimension, Domain, Range, Schema};
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::new("x", Domain::new(0, 999).unwrap()),
            Dimension::new("y", Domain::new(0, 99).unwrap()),
        ])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::cell(
                    vec![(i % 1000) as i64, ((i * 13) % 100) as i64],
                    1 + (i % 4) as u64,
                )
            })
            .collect()
    }

    fn provider(n_rows: usize, capacity: usize, n_min: usize) -> DataProvider {
        let mut cfg = FederationConfig::paper_default(capacity);
        cfg.n_min = n_min;
        cfg.sum_measure_cap = 4;
        cfg.partition_strategy = fedaqp_storage::PartitionStrategy::SortedBy(0);
        cfg.sensitivity_regime = SensitivityRegime::QueryDims;
        let store = ClusterStore::build(
            schema(),
            rows(n_rows),
            cfg.cluster_capacity,
            cfg.partition_strategy,
        )
        .unwrap();
        DataProvider::from_store(0, store, &cfg)
    }

    fn query(lo: i64, hi: i64, agg: Aggregate) -> RangeQuery {
        RangeQuery::new(agg, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    fn budget() -> QueryBudget {
        QueryBudget::split(1.0, 1e-3, HyperParams::paper_default()).unwrap()
    }

    #[test]
    fn prepare_matches_metadata() {
        let p = provider(2000, 100, 5);
        let q = query(100, 400, Aggregate::Count);
        let prep = p.prepare(&q);
        assert_eq!(prep.covering, p.meta().covering(&q));
        assert_eq!(prep.n_q(), prep.covering.len());
        assert!((prep.sum_r - prep.proportions.iter().sum::<f64>()).abs() < 1e-12);
        assert!(prep.avg_r() >= 0.0);
    }

    #[test]
    fn summary_concentrates_with_big_budget() {
        let p = provider(2000, 100, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let q = query(100, 400, Aggregate::Count);
        let prep = p.prepare(&q);
        let mut n_sum = 0.0;
        let mut a_sum = 0.0;
        let trials = 400;
        for _ in 0..trials {
            let s = p.summary_with_rng(&q, &prep, 50.0, &mut rng).unwrap();
            n_sum += s.noisy_n_q;
            a_sum += s.noisy_avg_r;
        }
        assert!((n_sum / trials as f64 - prep.n_q() as f64).abs() < 0.5);
        assert!((a_sum / trials as f64 - prep.avg_r()).abs() < 0.05);
    }

    #[test]
    fn summary_rejects_zero_budget() {
        let p = provider(100, 50, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let q = query(0, 999, Aggregate::Count);
        let prep = p.prepare(&q);
        assert!(p.summary_with_rng(&q, &prep, 0.0, &mut rng).is_err());
    }

    #[test]
    fn small_queries_take_exact_path() {
        // N_min larger than any covering set ⇒ exact path always.
        let p = provider(500, 100, 100);
        let mut rng = StdRng::seed_from_u64(4);
        let q = query(0, 999, Aggregate::Sum);
        let prep = p.prepare(&q);
        let exact = p.exact_answer(&q) as f64;
        let out = p
            .execute_with_rng(&q, &prep, 3, &budget(), true, &mut rng)
            .unwrap();
        assert!(!out.approximated);
        assert_eq!(out.estimate, exact);
        assert_eq!(out.clusters_scanned, prep.n_q());
        // Released value carries Laplace noise but centres on the truth.
        let mut acc = 0.0;
        let trials = 200;
        for _ in 0..trials {
            acc += p
                .execute_with_rng(&q, &prep, 3, &budget(), true, &mut rng)
                .unwrap()
                .released
                .unwrap();
        }
        assert!((acc / trials as f64 - exact).abs() < 0.15 * exact.max(10.0));
    }

    #[test]
    fn approximate_path_samples_and_estimates() {
        let p = provider(5000, 100, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let q = query(100, 800, Aggregate::Sum);
        let prep = p.prepare(&q);
        assert!(prep.n_q() >= 5, "test needs a large covering set");
        let out = p
            .execute_with_rng(&q, &prep, 10, &budget(), true, &mut rng)
            .unwrap();
        assert!(out.approximated);
        assert!(out.clusters_scanned <= 10);
        assert!(out.clusters_scanned >= 1);
        assert!(out.smooth_ls > 0.0);
        assert!(out.released.is_some());
        assert!(out.estimate.is_finite());
        assert_eq!(out.n_covering, prep.n_q());
    }

    #[test]
    fn estimator_is_unbiased_over_seeds() {
        // Average the raw estimate over many runs: it should approach the
        // exact covering-set answer (HH unbiasedness through the whole
        // provider pipeline, EM bias notwithstanding at loose ε).
        let q = query(100, 800, Aggregate::Sum);
        let mut acc = 0.0;
        let trials = 300;
        let p = provider(5000, 100, 5);
        let prep = p.prepare(&q);
        let exact = prep
            .covering
            .iter()
            .map(|&id| p.store().cluster(id).unwrap().evaluate(&q))
            .sum::<u64>() as f64;
        // Large allocation + loose sampling budget: EM ≈ PPS.
        let loose = QueryBudget::split(50.0, 1e-3, HyperParams::paper_default()).unwrap();
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = p
                .execute_with_rng(&q, &prep, 20, &loose, false, &mut rng)
                .unwrap();
            acc += out.estimate;
        }
        let mean = acc / trials as f64;
        assert!(
            (mean - exact).abs() < 0.25 * exact,
            "mean estimate {mean} too far from exact {exact}"
        );
    }

    /// A turn whose distinct draws cross `FAN_OUT_CELLS` reads them in
    /// one fanned-out read, and releases the bits a serial replay
    /// computes: EM on a cloned lane, one `Cluster::evaluate` per draw,
    /// `hh_estimate`, then the smooth release on the same lane.
    #[test]
    fn a_fanned_out_turn_releases_the_serial_replays_bits() {
        let p = provider(200_000, 2000, 5);
        let q = RangeQuery::new(
            Aggregate::Sum,
            vec![
                Range::new(0, 0, 899).unwrap(),
                Range::new(1, 10, 89).unwrap(),
            ],
        )
        .unwrap();
        let prep = p.prepare(&q);
        let loose = QueryBudget::split(50.0, 1e-3, HyperParams::paper_default()).unwrap();
        let allocation = 80;
        let mut rng = StdRng::seed_from_u64(11);
        let mut lane = rng.clone();
        let out = p
            .execute_with_rng(&q, &prep, allocation, &loose, true, &mut rng)
            .unwrap();
        assert!(out.approximated);

        let s = (allocation as usize).min(prep.n_q());
        let sample = em_sample(&mut lane, &prep.proportions, s, loose.eps_s, delta_p(5)).unwrap();
        let cluster = |pos: usize| p.store().cluster(prep.covering[pos]).unwrap();
        let mut distinct = sample.chosen.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let cells = distinct
            .iter()
            .map(|&pos| cluster(pos).len())
            .sum::<usize>()
            * q.dimensionality();
        assert!(
            cells >= fedaqp_storage::FAN_OUT_CELLS,
            "the draw must fan out: {cells} cells"
        );
        assert_eq!(out.clusters_scanned, distinct.len());

        let delta_r = delta_r_for(p.regime, p.meta.agreed_s(), 2, q.dimensionality());
        let p_floor = sample.min_draw_probability().unwrap();
        let ctx = SensitivityContext::new(
            prep.sum_r,
            delta_r,
            p.meta.agreed_s(),
            p_floor,
            p.calibration,
        );
        let (draws, sens): (Vec<HansenHurwitz>, Vec<ClusterSensitivityInput>) = sample
            .chosen
            .iter()
            .map(|&pos| {
                let q_c = cluster(pos).evaluate(&q) as f64;
                let p = ctx.divisor(sample.pps[pos], sample.em_probabilities[pos]);
                (
                    HansenHurwitz {
                        value: q_c,
                        probability: p,
                    },
                    ClusterSensitivityInput {
                        q_c,
                        r: prep.proportions[pos],
                        p,
                    },
                )
            })
            .unzip();
        let estimate = hh_estimate(&draws).unwrap();
        assert_eq!(estimate.to_bits(), out.estimate.to_bits());
        let smooth = SmoothSensitivity::new(loose.eps_e, loose.delta).unwrap();
        let smooth_ls = smooth_estimator_sensitivity(&smooth, &sens, &ctx);
        assert_eq!(smooth_ls.to_bits(), out.smooth_ls.to_bits());
        let released = smooth.release(&mut lane, estimate, smooth_ls);
        assert_eq!(released.to_bits(), out.released.unwrap().to_bits());
    }

    #[test]
    fn smc_mode_returns_no_released_value() {
        let p = provider(3000, 100, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let q = query(0, 999, Aggregate::Count);
        let prep = p.prepare(&q);
        let out = p
            .execute_with_rng(&q, &prep, 5, &budget(), false, &mut rng)
            .unwrap();
        assert!(out.released.is_none());
        assert!(out.estimate.is_finite());
    }

    #[test]
    fn empty_covering_set_is_handled() {
        let p = provider(500, 100, 5);
        let mut rng = StdRng::seed_from_u64(7);
        // Query outside any stored value range on dim 1.
        let q = RangeQuery::new(
            Aggregate::Count,
            vec![
                Range::new(0, 0, 999).unwrap(),
                Range::new(1, 10_000, 20_000).unwrap(),
            ],
        )
        .unwrap();
        let prep = p.prepare(&q);
        // Pruning may or may not drop everything depending on layout; if it
        // did, the execute path must still answer.
        let out = p
            .execute_with_rng(&q, &prep, 2, &budget(), true, &mut rng)
            .unwrap();
        assert!(out.estimate.is_finite());
    }

    #[test]
    fn meta_space_reports_bytes() {
        let p = provider(1000, 100, 5);
        let r = p.meta_space();
        assert!(r.total_bytes > 0);
        assert_eq!(r.n_clusters, p.store().n_clusters());
    }
}
