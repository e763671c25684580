//! Layer probes: the protocol's steps called one by one, in protocol
//! order and single-threaded, through each layer's public functions.
//!
//! For every scalar sub-query and every provider: prepare (then its
//! covering walk and proportions again, directly) → summary → allocate →
//! execute, then the inner steps of the execution (EM sampling with the
//! real weights and allocation, the scan of the clusters that were drawn,
//! Hansen–Hurwitz, smooth sensitivity, release) are repeated directly on
//! the same inputs. A step is timed first as a whole, as the engine meets
//! it; its parts run after it, on warm caches. Counts come from
//! return values, so they repeat exactly under one seed.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::Inputs;
use crate::stats::mix;
use crate::surface::{
    delta_p, delta_r_for, em_sample, hh_estimate, smooth_estimator_sensitivity, Aggregator,
    ClusterSensitivityInput, DataProvider, Federation, HansenHurwitz, PlanExplanation,
    PreparedQuery, ProviderSummary, SensitivityContext, SmoothSensitivity,
};
use crate::trace::{subqueries, Recorder, SubQuery, ROOT};

/// Sums over every provider turn of the replay.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub subqueries: u64,
    pub turns: u64,
    /// Turns that walked the metadata (all but the pruned ones).
    pub prepared: u64,
    pub exact_turns: u64,
    pub prepare_ns: f64,
    pub execute_ns: f64,
    pub execute_children_ns: f64,
    pub summary_ns: f64,
    pub allocate_ns: f64,
    pub covering_ns: f64,
    pub clusters_tested: u64,
    pub covering: u64,
    pub proportions_ns: f64,
    pub em_ns: f64,
    pub em_turns: u64,
    pub draws: u64,
    pub distinct: u64,
    pub scan_ns: f64,
    pub calib_ns: f64,
    pub cells: u64,
    pub scanned: u64,
    pub hh_ns: f64,
    pub smooth_ns: f64,
    pub release_ns: f64,
}

/// What one plan's replay contributes to the blocking-path model.
#[derive(Debug, Default, Clone)]
pub struct PlanPath {
    /// Per provider: Σ over the plan's sub-queries of prepare + summary +
    /// execute.
    pub provider_ns: Vec<f64>,
    /// Σ allocation solves (on the barrier's critical path).
    pub allocate_ns: f64,
    /// Σ over providers of the execute step (scalar plans: one sub-query).
    pub execute_sum_ns: f64,
}

impl PlanPath {
    /// Time the provider work blocks the answer for: no shorter than the
    /// busiest provider, nor than all provider work spread over the cores
    /// that can run it.
    pub fn blocking_ns(&self, cores: usize) -> f64 {
        let total: f64 = self.provider_ns.iter().sum();
        let busiest = self.provider_ns.iter().copied().fold(0.0, f64::max);
        let lanes = cores.min(self.provider_ns.len()).max(1) as f64;
        busiest.max(total / lanes)
    }
}

struct Turn<'a> {
    provider: &'a DataProvider,
    prep: PreparedQuery,
    rng: StdRng,
}

/// Replays every plan's sub-queries through the providers of
/// `federation`, recording one span per call.
pub fn replay_providers(
    rec: &mut Recorder,
    inputs: &Inputs,
    federation: &Federation,
    explanations: &[PlanExplanation],
) -> Result<(Totals, Vec<PlanPath>), String> {
    let config = &inputs.config;
    let n_min = config.n_min.max(1);
    let arity = inputs.schema.arity();
    let aggregator = Aggregator::new(mix(inputs.seed, 0xA66), config.cost_model);
    let mut totals = Totals::default();
    let mut paths = Vec::with_capacity(inputs.plans.len());

    for (plan_id, (spec, explanation)) in inputs.plans.iter().zip(explanations).enumerate() {
        let plan_id = plan_id as u32;
        let subs = subqueries(&spec.plan, &inputs.schema, config.hyperparams)?;
        let explained = if explanation.plan_kind == "extreme" {
            0
        } else {
            explanation.sub_queries.len()
        };
        if subs.len() != explained {
            return Err(format!(
                "plan {plan_id}: harness compiles {} sub-queries, explain_plan reports {explained}",
                subs.len()
            ));
        }
        let mut path = PlanPath {
            provider_ns: vec![0.0; federation.providers().len()],
            ..PlanPath::default()
        };
        for (j, sub) in subs.iter().enumerate() {
            // Answered by re-reading another sub-query's release (VAR's
            // second moment under the dedup pass): nothing executes.
            if explanation.sub_queries[j].reuses.is_some() {
                continue;
            }
            totals.subqueries += 1;
            let pruned = &explanation.sub_queries[j].pruned_providers;
            replay_subquery(
                rec,
                federation,
                &aggregator,
                sub,
                pruned,
                (plan_id, j as u64, inputs.seed),
                (n_min, arity),
                &mut totals,
                &mut path,
            )?;
        }
        paths.push(path);
    }
    Ok((totals, paths))
}

#[allow(clippy::too_many_arguments)]
fn replay_subquery(
    rec: &mut Recorder,
    federation: &Federation,
    aggregator: &Aggregator,
    sub: &SubQuery,
    pruned: &[u64],
    (plan_id, sub_id, seed): (u32, u64, u64),
    (n_min, arity): (usize, usize),
    totals: &mut Totals,
    path: &mut PlanPath,
) -> Result<(), String> {
    let query = &sub.query;
    let config = federation.config();
    let mut turns: Vec<Turn> = Vec::with_capacity(federation.providers().len());
    let mut summaries: Vec<ProviderSummary> = Vec::with_capacity(turns.capacity());

    // ---- Steps 1–2 per provider: covering, proportions, prepare, summary.
    for provider in federation.providers() {
        let id = provider.id();
        let mut rng =
            StdRng::seed_from_u64(mix(mix(seed, plan_id as u64), sub_id * 64 + id as u64));
        let prep = if pruned.contains(&(id as u64)) {
            // The engine answers a pruned provider's noise-only turn
            // without the metadata walk; so does the replay.
            PreparedQuery {
                covering: Vec::new(),
                proportions: Vec::new(),
                sum_r: 0.0,
            }
        } else {
            // The whole step first, as the engine meets it; then its two
            // halves again, recorded as its children.
            let meta = provider.meta();
            let prepare_id = rec.reserve();
            let (prep, prepare_ns) =
                rec.time_as(prepare_id, "core.provider.prepare", ROOT, plan_id, || {
                    provider.prepare(query)
                });
            let (covering, covering_ns) =
                rec.time("storage.meta.covering", prepare_id, plan_id, || {
                    meta.covering(query)
                });
            let (_, proportions_ns) =
                rec.time("storage.meta.proportions", prepare_id, plan_id, || {
                    meta.proportions(query, &covering)
                });
            totals.covering_ns += covering_ns;
            totals.clusters_tested += meta.n_clusters() as u64;
            totals.covering += covering.len() as u64;
            totals.proportions_ns += proportions_ns;
            totals.prepare_ns += prepare_ns;
            totals.prepared += 1;
            path.provider_ns[id] += prepare_ns;
            prep
        };
        let (summary, summary_ns) = rec.time_reps("dp.laplace.summary", ROOT, plan_id, 4, || {
            provider.summary_with_rng(query, &prep, sub.budget.eps_o, &mut rng)
        });
        summaries.push(summary.map_err(|e| format!("summary: {e}"))?);
        totals.summary_ns += summary_ns;
        path.provider_ns[id] += summary_ns;
        turns.push(Turn {
            provider,
            prep,
            rng,
        });
    }

    // ---- Step 3: the allocation program over all summaries.
    let (allocations, allocate_ns) =
        rec.time_reps("core.aggregator.allocate", ROOT, plan_id, 4, || {
            aggregator.allocate(&summaries, sub.sampling_rate)
        });
    let allocations = allocations.map_err(|e| format!("allocate: {e}"))?;
    totals.allocate_ns += allocate_ns;
    path.allocate_ns += allocate_ns;

    // ---- Steps 4–6 per provider, then its inner steps again, directly.
    for (turn, &allocation) in turns.iter_mut().zip(&allocations) {
        let Turn {
            provider,
            prep,
            rng: turn_rng,
        } = turn;
        let (provider, prep) = (*provider, &*prep);
        let id = provider.id();
        let rng_before = turn_rng.clone();
        let execute_id = rec.reserve();
        let (outcome, execute_ns) =
            rec.time_as(execute_id, "core.provider.execute", ROOT, plan_id, || {
                provider.execute_with_rng(query, prep, allocation, &sub.budget, true, turn_rng)
            });
        let outcome = outcome.map_err(|e| format!("execute: {e}"))?;
        totals.turns += 1;
        totals.execute_ns += execute_ns;
        path.provider_ns[id] += execute_ns;
        path.execute_sum_ns += execute_ns;

        let store = provider.store();
        let cluster = |pos: usize| {
            store
                .cluster(prep.covering[pos])
                .map_err(|e| format!("cluster: {e}"))
        };
        // Which covering positions the turn scanned, in scan order.
        let mut children_ns = 0.0;
        let mut rng = rng_before;
        let (positions, sample) = if outcome.approximated {
            let s = (allocation.max(1) as usize).min(prep.n_q());
            let (sample, em_ns) = rec.time("sampling.em.sample", execute_id, plan_id, || {
                em_sample(
                    &mut rng,
                    &prep.proportions,
                    s,
                    sub.budget.eps_s,
                    delta_p(n_min),
                )
            });
            let sample = sample.map_err(|e| format!("em_sample: {e}"))?;
            totals.em_ns += em_ns;
            totals.em_turns += 1;
            totals.draws += sample.chosen.len() as u64;
            children_ns += em_ns;
            let mut seen = vec![false; prep.n_q()];
            let distinct: Vec<usize> = sample
                .chosen
                .iter()
                .copied()
                .filter(|&pos| !std::mem::replace(&mut seen[pos], true))
                .collect();
            totals.distinct += distinct.len() as u64;
            (distinct, Some(sample))
        } else {
            totals.exact_turns += 1;
            ((0..prep.n_q()).collect(), None)
        };
        let clusters = positions
            .iter()
            .map(|&pos| cluster(pos))
            .collect::<Result<Vec<_>, _>>()?;
        let (values, scan_ns) = rec.time("storage.cluster.scan", execute_id, plan_id, || {
            clusters
                .iter()
                .map(|c| c.evaluate(query))
                .collect::<Vec<u64>>()
        });
        // The machine-speed normaliser: a plain sum over the same column
        // slices the scan read.
        let (_, calib_ns) = rec.time("storage.cluster.calib", ROOT, plan_id, || {
            let mut acc = 0i64;
            for c in &clusters {
                for r in query.ranges() {
                    acc = c.column(r.dim).iter().fold(acc, |a, &v| a.wrapping_add(v));
                }
            }
            black_box(acc)
        });
        totals.scan_ns += scan_ns;
        totals.calib_ns += calib_ns;
        totals.cells += clusters
            .iter()
            .map(|c| (c.len() * query.dimensionality()) as u64)
            .sum::<u64>();
        totals.scanned += clusters.len() as u64;
        children_ns += scan_ns;
        if clusters.len() != outcome.clusters_scanned {
            return Err(format!(
                "plan {plan_id}: replay scanned {} clusters, the provider {}",
                clusters.len(),
                outcome.clusters_scanned
            ));
        }

        if let Some(sample) = sample {
            let p_floor = sample
                .min_draw_probability()
                .map_err(|e| format!("min_draw_probability: {e}"))?;
            let delta_r = delta_r_for(
                config.sensitivity_regime,
                provider.meta().agreed_s(),
                arity,
                query.dimensionality(),
            );
            let ctx = SensitivityContext::new(
                prep.sum_r,
                delta_r,
                provider.meta().agreed_s(),
                p_floor,
                config.estimator_calibration,
            );
            let mut value_at = vec![0u64; prep.n_q()];
            for (&pos, &v) in positions.iter().zip(&values) {
                value_at[pos] = v;
            }
            let (draws, sens): (Vec<HansenHurwitz>, Vec<ClusterSensitivityInput>) = sample
                .chosen
                .iter()
                .map(|&pos| {
                    let p = ctx.divisor(sample.pps[pos], sample.em_probabilities[pos]);
                    let q_c = value_at[pos] as f64;
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
            let (estimate, hh_ns) =
                rec.time_reps("sampling.hh.estimate", execute_id, plan_id, 8, || {
                    hh_estimate(&draws)
                });
            let estimate = estimate.map_err(|e| format!("hh_estimate: {e}"))?;
            if estimate.to_bits() != outcome.estimate.to_bits() {
                return Err(format!(
                    "plan {plan_id}: replayed estimate {estimate} != the provider's {}",
                    outcome.estimate
                ));
            }
            let smooth = SmoothSensitivity::new(sub.budget.eps_e, sub.budget.delta)
                .map_err(|e| format!("smooth sensitivity: {e}"))?;
            let (smooth_ls, smooth_ns) =
                rec.time_reps("core.sensitivity.smooth", execute_id, plan_id, 4, || {
                    smooth_estimator_sensitivity(&smooth, &sens, &ctx)
                });
            let (_, release_ns) =
                rec.time_reps("dp.smooth.release", execute_id, plan_id, 8, || {
                    smooth.release(&mut rng, estimate, smooth_ls)
                });
            totals.hh_ns += hh_ns;
            totals.smooth_ns += smooth_ns;
            totals.release_ns += release_ns;
            children_ns += hh_ns + smooth_ns + release_ns;
        }
        totals.execute_children_ns += children_ns;
    }
    Ok(())
}
