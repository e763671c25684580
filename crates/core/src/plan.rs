//! Plan execution: compiling a [`QueryPlan`] into concurrent engine
//! sub-queries.
//!
//! Every analyst-facing layer — [`crate::Session`], the TCP server, the
//! sharded coordinator, and the CLI — executes plans through this one
//! compiler, so the semantics (budget splits, suppression, noise
//! derivation) cannot drift between layers.
//!
//! A plan is compiled once. One function, `compile`, turns a plan into
//! its sub-queries: the budget split, group enumeration and its cap, the
//! dedup decision, the cost order and the online round rates. It reads
//! only the coordinator's configuration, schema and public metadata, and
//! it validates every sub-query it produces. The coordinator's three
//! entry points read the compiled plan:
//! [`validate_plan`](ShardedFederation::validate_plan) compiles and keeps
//! nothing, [`submit_plan`](ShardedFederation::submit_plan) scatters the
//! compiled sub-queries as one batch, and
//! [`explain_plan`](ShardedFederation::explain_plan) renders the compiled
//! shape, so `EXPLAIN` shows what submission sends.
//!
//! Compilation shape:
//!
//! * [`QueryPlan::Scalar`] → one private sub-query.
//! * [`QueryPlan::Derived`] (§7: AVG/VAR/STD "can be derived from SUM and
//!   COUNT using the sequential composition of DP") → 2–3 sub-queries,
//!   each under a `1/n` share of the plan's `(ε, δ)` (sequential
//!   composition, Thm. 3.1); the statistic is post-processed from the
//!   noisy releases (Thm. 3.3 — free). VAR/STD are a *measure dispersion
//!   proxy*, `mean·(mean − 1)`: the count-tensor model exposes only
//!   COUNT/SUM (§3), so a faithful M²-sum would need a dedicated
//!   aggregate; the third sub-query exists to charge the budget the
//!   proxy's refinement release costs.
//! * [`QueryPlan::GroupBy`] → the *known-domain* variant of the GROUP-BY
//!   the paper defers (§7 — "adding noise to the final result will not be
//!   enough to guarantee privacy", citing partition selection): the
//!   grouped dimension's domain is part of the public schema, so the
//!   compiler enumerates every group as one point sub-query (× the
//!   statistic's sub-queries when grouping a derived aggregate), each
//!   under a `1/k` (or `1/(k·n)`) share. Group queries are *not* disjoint
//!   under this pipeline (a cluster's metadata — hence every group's
//!   summary and sampling mechanisms — depends on all rows in the
//!   cluster), so sequential — not parallel — composition applies.
//!   Groups whose noisy value falls below the plan's threshold are
//!   suppressed: a utility measure mirroring partition selection's
//!   thresholding, not a privacy one (`2/ε_group` ≈ two noise standard
//!   deviations is a common choice). Practical for small categorical
//!   domains, and guarded: domains above
//!   [`crate::FederationConfig::max_group_domain`] are rejected with
//!   [`CoreError::GroupDomainTooLarge`].
//! * [`QueryPlan::Online`] → `rounds` sub-queries over the same ranges at
//!   progressively larger sampling rates (`sr · r/rounds`), each under a
//!   `(ε/rounds, δ/rounds)` share (sequential composition — progressive
//!   samples of the same data are not disjoint): earlier answers are
//!   cheaper and noisier, the last matches a single release at
//!   `ε/rounds`; snapshots stream out through
//!   [`PendingPlan::wait_streaming`] as rounds resolve, and
//!   [`crate::combine_snapshots`] post-processes them into one estimate.
//! * [`QueryPlan::Extreme`] → one metadata-only engine job: a rank-target
//!   Exponential-mechanism selection over the dimension's public domain
//!   per provider (see [`crate::extremes`]), combined by post-processing;
//!   `ε` is the federation-wide cost by parallel composition over
//!   disjoint providers.
//!
//! **One coordinator.** Every plan runs on a [`ShardedFederation`]: an
//! [`EngineHandle`] is a one-shard coordinator over its own engine, so
//! the compilation, budget-split, suppression and post-processing code
//! below is the only copy — which is what makes the sharded determinism
//! contract checkable: only the shards behind the coordinator differ.
//!
//! **Concurrency.** [`ShardedFederation::submit_plan`] submits *every*
//! sub-query before anything is awaited, so on an owned engine a
//! group-by's `k` point queries pipeline across the provider worker pool
//! (a scoped engine runs each one's execute turns as it is awaited) —
//! under a WAN cost model
//! their transits overlap, which is why
//! [`PlanAnswer::timings`] reports per-phase *maxima* over the concurrent
//! sub-queries rather than sums.
//!
//! **Determinism.** Sub-queries are submitted in a canonical order
//! (groups ascending by key; within a derived cell: COUNT, SUM, second
//! moment), and each draws noise from the engine's per-`(query content,
//! occurrence, provider)` RNG derivation — so a seeded plan produces
//! byte-identical answers whether it runs through a scoped engine, a
//! shared [`crate::FederationEngine`], a remote connection, or a sharded
//! coordinator.
//!
//! **Budget.** A plan's whole `(ε, δ)` is known up front
//! ([`QueryPlan::total_cost`]), and compiling is side-effect free, so a
//! budget-charging session compiles first (which validates), charges the
//! compiled plan's *entire* cost atomically, and only then submits that
//! same compiled plan — a plan the engine would reject costs nothing, and
//! a plan that is accepted can never be half-charged (fail-closed once
//! dispatched).

use std::time::Duration;

use fedaqp_dp::{HyperParams, PrivacyCost, QueryBudget};
pub use fedaqp_model::QueryPlan;
use fedaqp_model::{Aggregate, DerivedStatistic, Extreme, Range, RangeQuery, Schema, Value};
use fedaqp_obs as obs;

use crate::engine::EngineHandle;
use crate::optimizer::{submission_order, PlanExplanation, SubQueryExplanation};
use crate::protocol::PhaseTimings;
use crate::shard::{ShardedFederation, ShardedSub};
use crate::{CoreError, Result};

/// One released group of a GROUP-BY plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanGroup {
    /// The group key (a value of the grouped dimension).
    pub key: Value,
    /// The noisy aggregate (or derived statistic) for the group.
    pub value: f64,
    /// 95% sampling confidence half-width of the group's release, when
    /// estimable (`None` for derived statistics, whose post-processing has
    /// no closed-form interval here).
    pub ci_halfwidth: Option<f64>,
}

/// One progressive release of a [`QueryPlan::Online`] plan: round `round`
/// of `rounds`, sampled at `sample_fraction` of the plan's terminal rate,
/// released under a `1/rounds` share of the plan's budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSnapshot {
    /// 1-based round index.
    pub round: u64,
    /// Total rounds of the plan.
    pub rounds: u64,
    /// `round / rounds` — the fraction of the terminal sampling rate this
    /// snapshot sampled at.
    pub sample_fraction: f64,
    /// The DP-released snapshot value.
    pub value: f64,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
    /// Clusters scanned for this snapshot (public work proxy).
    pub clusters_scanned: u64,
}

/// The shape-specific part of a [`PlanAnswer`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanResult {
    /// A scalar or derived-statistic release.
    Value {
        /// The DP-released value.
        value: f64,
        /// 95% sampling confidence half-width, when estimable.
        ci_halfwidth: Option<f64>,
    },
    /// An online-aggregation release: every progressive snapshot, in round
    /// order (the last one is the plan's terminal answer).
    Snapshots {
        /// The released snapshots, ascending by round.
        snapshots: Vec<PlanSnapshot>,
    },
    /// A GROUP-BY release: surviving groups ascending by key.
    Groups {
        /// Released groups (noisy value ≥ threshold).
        groups: Vec<PlanGroup>,
        /// Number of groups suppressed by the significance threshold.
        suppressed: u64,
    },
    /// A private MIN/MAX selection.
    Extreme {
        /// The selected (privately released) domain value.
        value: Value,
    },
}

/// The uniform answer to any [`QueryPlan`]: the shape-specific result plus
/// the privacy cost and latency accounting every plan kind shares.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnswer {
    /// The released result.
    pub result: PlanResult,
    /// The `(ε, δ)` the plan charged — always exactly
    /// [`QueryPlan::total_cost`].
    pub cost: PrivacyCost,
    /// Per-phase latency, taken as the *maximum* over the plan's
    /// concurrent sub-queries (their execution and simulated transit
    /// overlap on the worker pool; a serial executor would pay the sum).
    pub timings: PhaseTimings,
}

impl PlanAnswer {
    /// The scalar value, when the plan released one.
    pub fn value(&self) -> Option<f64> {
        match &self.result {
            PlanResult::Value { value, .. } => Some(*value),
            PlanResult::Snapshots { snapshots } => snapshots.last().map(|s| s.value),
            PlanResult::Extreme { value } => Some(*value as f64),
            PlanResult::Groups { .. } => None,
        }
    }

    /// The progressive snapshots, when the plan ran online aggregation.
    pub fn snapshots(&self) -> Option<&[PlanSnapshot]> {
        match &self.result {
            PlanResult::Snapshots { snapshots } => Some(snapshots),
            _ => None,
        }
    }

    /// The released groups, when the plan was a GROUP-BY.
    pub fn groups(&self) -> Option<&[PlanGroup]> {
        match &self.result {
            PlanResult::Groups { groups, .. } => Some(groups),
            _ => None,
        }
    }
}

/// The analyst-visible answer to one private scalar query, and nothing
/// else: the simulation-boundary diagnostics (`raw_estimate`,
/// `smooth_ls`) have no field here — only the in-process oracle
/// ([`crate::OracleAnswer`]) carries them, and a coordinator never
/// receives them from a remote shard in the first place.
///
/// The coordinator resolves every sub-query to this one type, so the plan
/// compiler, the budget sessions and the wire's answer frames read the
/// same fields in every deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedAnswer {
    /// The DP-released answer (byte-identical across deployments).
    pub value: f64,
    /// The `(ε, δ)` charged.
    pub cost: PrivacyCost,
    /// Per-phase latency (maxima across shards, coordinator allocation).
    pub timings: PhaseTimings,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
    /// Total clusters scanned across providers (public work proxy; what
    /// online snapshots report as their progress measure).
    pub clusters_scanned: usize,
    /// Total covering-set size across providers.
    pub covering_total: usize,
    /// How many providers took the approximate path.
    pub approximated_providers: usize,
    /// Per-provider sample-size allocations, in global provider order.
    pub allocations: Vec<u64>,
}

/// What one resolved extreme selection hands back to the plan compiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremeOutcome {
    /// The combined (post-processed) selection.
    pub value: Value,
    /// Wall time of the slowest provider's selection.
    pub execution: Duration,
    /// Simulated network time.
    pub network: Duration,
}

/// One private sub-query of a plan, as the compiler hands it to the
/// coordinator's scatter. Only this crate builds one, and only after the
/// compiler's check passed it, so the coordinator's own engines run it
/// unchecked.
#[derive(Debug, Clone)]
pub struct SubQuery {
    /// The range query.
    pub(crate) query: RangeQuery,
    /// The sampling rate `sr ∈ (0, 1)`.
    pub(crate) sampling_rate: f64,
    /// The sub-query's share of the plan budget.
    pub(crate) budget: QueryBudget,
}

/// A plan's private MIN/MAX, as the compiler hands it to the
/// coordinator: only this crate builds one, checked.
#[derive(Debug, Clone, Copy)]
pub struct ExtremeQuery {
    /// The selected dimension.
    pub(crate) dim: usize,
    /// MIN or MAX.
    pub(crate) extreme: Extreme,
    /// Per-provider EM budget.
    pub(crate) epsilon: f64,
}

impl ExtremeQuery {
    /// Checks one MIN/MAX — the dimension is in the schema, `ε` positive.
    pub(crate) fn new(schema: &Schema, dim: usize, extreme: Extreme, epsilon: f64) -> Result<Self> {
        schema.dimension(dim)?;
        check_positive(epsilon, "extreme-query epsilon must be positive")?;
        Ok(Self {
            dim,
            extreme,
            epsilon,
        })
    }
}

/// Checks one private sub-query — sampling rate in `(0, 1)`, dimensions
/// in the schema, budget phases positive — once per engine it enters.
pub(crate) fn check_sub(
    schema: &Schema,
    query: &RangeQuery,
    sampling_rate: f64,
    budget: &QueryBudget,
) -> Result<()> {
    check_sampling_rate(sampling_rate)?;
    query.check_schema(schema)?;
    check_budget(budget)
}

/// Sampling-rate sanity shared by every sub-query and by an online
/// plan's terminal rate: `sr ∈ (0, 1)`.
fn check_sampling_rate(sampling_rate: f64) -> Result<()> {
    if !(sampling_rate.is_finite() && 0.0 < sampling_rate && sampling_rate < 1.0) {
        return Err(CoreError::InvalidSamplingRate(sampling_rate));
    }
    Ok(())
}

/// A finite, positive `epsilon`, or the typed `message`.
fn check_positive(epsilon: f64, message: &'static str) -> Result<()> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CoreError::BadConfig(message));
    }
    Ok(())
}

/// Budget-phase sanity shared by every sub-query.
fn check_budget(budget: &QueryBudget) -> Result<()> {
    let ok = |x: f64| x.is_finite() && x > 0.0;
    let valid = ok(budget.eps_o)
        && ok(budget.eps_s)
        && ok(budget.eps_e)
        && budget.delta.is_finite()
        && (0.0..1.0).contains(&budget.delta);
    if !valid {
        return Err(CoreError::BadConfig(
            "query budget phases must be positive and delta in [0, 1)",
        ));
    }
    Ok(())
}

/// Merges per-phase timings under the overlap model (element-wise max).
fn merge_timings(into: &mut PhaseTimings, other: &PhaseTimings) {
    into.summary = into.summary.max(other.summary);
    into.allocation = into.allocation.max(other.allocation);
    into.execution = into.execution.max(other.execution);
    into.release = into.release.max(other.release);
    into.network = into.network.max(other.network);
}

/// The sub-queries of one scalar or derived "cell" (a lone plan, or one
/// group of a GROUP-BY): positions in the plan's submission while it
/// compiles, in-flight handles once submitted.
enum Cell<S> {
    Scalar(S),
    Derived {
        statistic: DerivedStatistic,
        count: S,
        sum: S,
        /// The third budgeted release of VAR/STD (cost-only: see the
        /// dispersion-proxy note in the module docs).
        second_moment: Option<S>,
    },
}

impl<S> Cell<S> {
    fn map<T>(self, mut f: impl FnMut(S) -> T) -> Cell<T> {
        match self {
            Cell::Scalar(sub) => Cell::Scalar(f(sub)),
            Cell::Derived {
                statistic,
                count,
                sum,
                second_moment,
            } => Cell::Derived {
                statistic,
                count: f(count),
                sum: f(sum),
                second_moment: second_moment.map(f),
            },
        }
    }
}

impl Cell<ShardedSub> {
    /// Waits out the cell's sub-queries and post-processes the statistic.
    /// Noisy denominators are clamped to ≥ 1 so the post-processing stays
    /// finite; variance is clamped at ≥ 0.
    fn wait(self) -> Result<(f64, Option<f64>, PhaseTimings)> {
        match self {
            Cell::Scalar(pending) => {
                let answer = pending.wait()?;
                Ok((answer.value, answer.ci_halfwidth, answer.timings))
            }
            Cell::Derived {
                statistic,
                count,
                sum,
                second_moment,
            } => {
                let count = count.wait()?;
                let sum = sum.wait()?;
                let mut timings = count.timings;
                merge_timings(&mut timings, &sum.timings);
                if let Some(pending) = second_moment {
                    let heavy = pending.wait()?;
                    merge_timings(&mut timings, &heavy.timings);
                }
                let noisy_count = count.value.max(1.0);
                let mean = sum.value / noisy_count;
                let value = match statistic {
                    DerivedStatistic::Average => mean,
                    DerivedStatistic::Variance => (mean * (mean - 1.0)).max(0.0),
                    DerivedStatistic::StdDev => (mean * (mean - 1.0)).max(0.0).sqrt(),
                };
                Ok((value, None, timings))
            }
        }
    }
}

/// A [`QueryPlan`] in flight on a coordinator: every sub-query has been
/// submitted (an extreme already resolved); [`wait`] collects and
/// post-processes.
///
/// [`wait`]: PendingPlan::wait
pub struct PendingPlan {
    kind: PendingKind<ShardedSub, ExtremeOutcome>,
    cost: PrivacyCost,
}

/// A plan's shape over its sub-queries `S` (positions while compiling,
/// in-flight handles once submitted) and its extreme selection `E` (the
/// spec while compiling, the selection once submitted).
enum PendingKind<S, E> {
    Cell(Cell<S>),
    Groups {
        keys: Vec<Value>,
        cells: Vec<Cell<S>>,
        threshold: f64,
    },
    /// The rounds of an online plan, ascending by round (every round is
    /// submitted before the first wait; a scoped engine runs each one as
    /// the push loop waits for it, so round 1 resolves after its own
    /// work).
    Online {
        subs: Vec<S>,
    },
    Extreme(E),
}

impl<S, E> PendingKind<S, E> {
    fn map<T, F>(
        self,
        mut sub: impl FnMut(S) -> T,
        ext: impl FnOnce(E) -> Result<F>,
    ) -> Result<PendingKind<T, F>> {
        Ok(match self {
            PendingKind::Cell(cell) => PendingKind::Cell(cell.map(sub)),
            PendingKind::Groups {
                keys,
                cells,
                threshold,
            } => PendingKind::Groups {
                keys,
                cells: cells.into_iter().map(|cell| cell.map(&mut sub)).collect(),
                threshold,
            },
            PendingKind::Online { subs } => PendingKind::Online {
                subs: subs.into_iter().map(sub).collect(),
            },
            PendingKind::Extreme(spec) => PendingKind::Extreme(ext(spec)?),
        })
    }
}

impl PendingPlan {
    /// Blocks until every sub-query resolved, then assembles the plan's
    /// uniform answer.
    pub fn wait(self) -> Result<PlanAnswer> {
        self.wait_streaming(|_| {})
    }

    /// [`PendingPlan::wait`], invoking `on_snapshot` with each progressive
    /// release of an online plan *as it resolves* — the hook the server's
    /// push loop hangs its per-snapshot frames on. Non-online plans never
    /// call the hook. The returned answer is identical to [`wait`]'s
    /// (the snapshots handed to the hook, in order, are exactly
    /// [`PlanResult::Snapshots`]).
    ///
    /// [`wait`]: PendingPlan::wait
    pub fn wait_streaming(self, mut on_snapshot: impl FnMut(&PlanSnapshot)) -> Result<PlanAnswer> {
        let mut timings = PhaseTimings::default();
        let result = match self.kind {
            PendingKind::Online { subs } => {
                let rounds = subs.len() as u64;
                let mut snapshots = Vec::with_capacity(subs.len());
                for (i, sub) in subs.into_iter().enumerate() {
                    let round = i as u64 + 1;
                    let outcome = sub.wait()?;
                    merge_timings(&mut timings, &outcome.timings);
                    let snapshot = PlanSnapshot {
                        round,
                        rounds,
                        sample_fraction: round as f64 / rounds as f64,
                        value: outcome.value,
                        ci_halfwidth: outcome.ci_halfwidth,
                        clusters_scanned: outcome.clusters_scanned as u64,
                    };
                    on_snapshot(&snapshot);
                    snapshots.push(snapshot);
                }
                PlanResult::Snapshots { snapshots }
            }
            PendingKind::Cell(cell) => {
                let (value, ci_halfwidth, cell_timings) = cell.wait()?;
                timings = cell_timings;
                PlanResult::Value {
                    value,
                    ci_halfwidth,
                }
            }
            PendingKind::Groups {
                keys,
                cells,
                threshold,
            } => {
                let mut groups = Vec::with_capacity(keys.len());
                let mut suppressed = 0u64;
                for (key, cell) in keys.into_iter().zip(cells) {
                    let (value, ci_halfwidth, cell_timings) = cell.wait()?;
                    merge_timings(&mut timings, &cell_timings);
                    if value >= threshold {
                        groups.push(PlanGroup {
                            key,
                            value,
                            ci_halfwidth,
                        });
                    } else {
                        suppressed += 1;
                    }
                }
                PlanResult::Groups { groups, suppressed }
            }
            PendingKind::Extreme(extreme) => {
                (timings.execution, timings.network) = (extreme.execution, extreme.network);
                PlanResult::Extreme {
                    value: extreme.value,
                }
            }
        };
        Ok(PlanAnswer {
            result,
            cost: self.cost,
            timings,
        })
    }
}

/// Fan-out cap on online rounds: a wire client chooses `rounds`, and each
/// round is a full sub-query, so an uncapped plan would be a resource
/// grief even when the budget ledger is unlimited (mirrors the
/// group-domain cap).
const MAX_ONLINE_ROUNDS: usize = 1024;

/// A sub-query's budget: `(ε, δ)` split evenly over `n` sub-queries
/// (sequential composition — a plan's sub-queries read the same data),
/// then phase-split.
fn share(hyperparams: HyperParams, epsilon: f64, delta: f64, n: f64) -> Result<QueryBudget> {
    Ok(QueryBudget::split(epsilon / n, delta / n, hyperparams)?)
}

/// The sampling rate of round `round` (1-based) of `rounds`: the terminal
/// rate scaled by `round/rounds`, clamped into the engine's valid open
/// interval. Every deployment derives round rates from this one function,
/// which is what keeps the deployments byte-identical.
fn online_round_rate(sampling_rate: f64, round: usize, rounds: usize) -> f64 {
    let fraction = round as f64 / rounds as f64;
    (sampling_rate * fraction).clamp(f64::MIN_POSITIVE, 0.999)
}

/// The enumerated `(key, point query)` pairs of a GROUP-BY plan, ascending
/// by key.
fn compile_groups(base: &RangeQuery, group_dim: usize, keys: &[Value]) -> Result<Vec<RangeQuery>> {
    keys.iter()
        .map(|&key| {
            let mut ranges = base.ranges().to_vec();
            ranges.push(Range::new(group_dim, key, key)?);
            Ok(RangeQuery::new(base.aggregate(), ranges)?)
        })
        .collect()
}

/// The keys a GROUP-BY plan enumerates, after the domain-size guard:
/// a grouped dimension whose public domain exceeds
/// [`crate::FederationConfig::max_group_domain`] is rejected with a
/// typed error instead of iterating an enormous domain.
fn group_keys(coordinator: &ShardedFederation, group_dim: usize) -> Result<Vec<Value>> {
    let domain = coordinator.schema().dimension(group_dim)?.domain();
    let cap = coordinator.config().max_group_domain;
    if domain.size() > cap {
        return Err(CoreError::GroupDomainTooLarge {
            size: domain.size(),
            cap,
        });
    }
    Ok(domain.iter().collect())
}

/// Appends one sub-query to a plan's submission, returning its position.
fn push(
    subs: &mut Vec<SubQuery>,
    query: RangeQuery,
    sampling_rate: f64,
    budget: QueryBudget,
) -> usize {
    subs.push(SubQuery {
        query,
        sampling_rate,
        budget,
    });
    subs.len() - 1
}

/// Compiles one derived cell: COUNT, SUM, and for VAR/STD the cost-only
/// second moment, appended to the plan's submission in that order.
fn derived_cell(
    subs: &mut Vec<SubQuery>,
    dedup: bool,
    query: &RangeQuery,
    statistic: DerivedStatistic,
    sampling_rate: f64,
    budget: QueryBudget,
) -> Result<Cell<usize>> {
    let of = |aggregate| RangeQuery::new(aggregate, query.ranges().to_vec());
    let count = push(subs, of(Aggregate::Count)?, sampling_rate, budget);
    let sum = push(subs, of(Aggregate::Sum)?, sampling_rate, budget);
    let second_moment = match statistic {
        DerivedStatistic::Average => None,
        // The second moment is *cost-only*: its released value is never
        // read (the dispersion proxy of the module docs), and its content
        // is identical to the cell's COUNT. The dedup pass re-reads the
        // COUNT's release instead of executing a third sub-query —
        // post-processing, zero extra ξ — while the plan still declares
        // (and sessions still charge) the full three-way split.
        DerivedStatistic::Variance | DerivedStatistic::StdDev if dedup => Some(count),
        DerivedStatistic::Variance | DerivedStatistic::StdDev => {
            Some(push(subs, of(Aggregate::Count)?, sampling_rate, budget))
        }
    };
    Ok(Cell::Derived {
        statistic,
        count,
        sum,
        second_moment,
    })
}

/// A [`QueryPlan`] compiled against one coordinator: the only form of a plan
/// that validation, submission and `EXPLAIN` read, so the three cannot
/// disagree about what the plan sends.
pub(crate) struct Compiled {
    /// The private sub-queries, in submission order.
    subs: Vec<SubQuery>,
    /// The plan's shape over positions in `subs` (a position two cells
    /// share is the dedup pass's release reuse), with an extreme inline.
    shape: PendingKind<usize, ExtremeQuery>,
    /// The declared cost ([`QueryPlan::total_cost`]): what a session
    /// charges, whatever the optimizer saved.
    pub(crate) cost: PrivacyCost,
}

/// Compiles `plan` on `coordinator`: the only code that turns a
/// [`QueryPlan`] into sub-queries — budget splits, group enumeration and
/// its cap, the dedup decision, cost-ordered submission and online round
/// rates. It reads only the coordinator's configuration, schema and
/// public metadata snapshot, and validates every sub-query it produces,
/// so a plan that compiles is a plan every shard accepts.
pub(crate) fn compile(coordinator: &ShardedFederation, plan: &QueryPlan) -> Result<Compiled> {
    let config = coordinator.config();
    let hyperparams = config.hyperparams;
    let dedup = config.optimizer.dedup_subqueries;
    let mut subs = Vec::new();
    let shape = match plan {
        QueryPlan::Scalar {
            query,
            sampling_rate,
            epsilon,
            delta,
        } => {
            let budget = share(hyperparams, *epsilon, *delta, 1.0)?;
            let position = push(&mut subs, query.clone(), *sampling_rate, budget);
            PendingKind::Cell(Cell::Scalar(position))
        }
        QueryPlan::Derived {
            query,
            statistic,
            sampling_rate,
            epsilon,
            delta,
        } => {
            check_positive(*epsilon, "derived epsilon must be positive")?;
            let budget = share(
                hyperparams,
                *epsilon,
                *delta,
                statistic.sub_queries().into(),
            )?;
            let cell = derived_cell(&mut subs, dedup, query, *statistic, *sampling_rate, budget)?;
            PendingKind::Cell(cell)
        }
        QueryPlan::GroupBy {
            base,
            statistic,
            group_dim,
            threshold,
            sampling_rate,
            epsilon,
            delta,
        } => {
            check_positive(*epsilon, "group-by epsilon must be positive")?;
            if base.dims().any(|d| d == *group_dim) {
                return Err(CoreError::BadConfig(
                    "filter ranges must not constrain the grouped dimension",
                ));
            }
            let keys = group_keys(coordinator, *group_dim)?;
            // A group's share, then each of its sub-queries' (`ε/k/n`, not
            // `ε/(k·n)`: the bits differ).
            let k = keys.len() as f64;
            let n = statistic.map_or(1, |s| s.sub_queries());
            let budget = share(hyperparams, epsilon / k, delta / k, n.into())?;
            let queries = compile_groups(base, *group_dim, &keys)?;
            // Cost-ordered submission: costliest cells (by metadata-
            // estimated surviving cluster count) are submitted first, so
            // the stragglers pipeline from the start. The cells land back
            // in key-order slots — `PendingKind::Groups` zips keys with
            // cells positionally — and distinct sub-queries draw
            // content-derived noise, so the released groups are
            // byte-identical in any submission order.
            let costs: Vec<u64> = queries
                .iter()
                .map(|q| coordinator.meta_snapshot().estimated_cost(q))
                .collect();
            let mut cells: Vec<Option<Cell<usize>>> = queries.iter().map(|_| None).collect();
            for i in submission_order(&costs, config.optimizer.reorder_subqueries) {
                let query = &queries[i];
                cells[i] = Some(match statistic {
                    None => Cell::Scalar(push(&mut subs, query.clone(), *sampling_rate, budget)),
                    Some(statistic) => {
                        derived_cell(&mut subs, dedup, query, *statistic, *sampling_rate, budget)?
                    }
                });
            }
            PendingKind::Groups {
                keys,
                cells: cells
                    .into_iter()
                    .map(|c| c.expect("every cell compiled"))
                    .collect(),
                threshold: *threshold,
            }
        }
        QueryPlan::Online {
            query,
            sampling_rate,
            epsilon,
            delta,
            rounds,
        } => {
            if *rounds == 0 {
                return Err(CoreError::BadConfig("online aggregation needs >= 1 round"));
            }
            if *rounds > MAX_ONLINE_ROUNDS {
                return Err(CoreError::BadConfig(
                    "online aggregation is capped at 1024 rounds",
                ));
            }
            check_positive(*epsilon, "online epsilon must be positive")?;
            let budget = share(hyperparams, *epsilon, *delta, *rounds as f64)?;
            // The rounds' clamped rates are always in range; the plan's
            // own terminal rate must be too.
            check_sampling_rate(*sampling_rate)?;
            // Every round is submitted before anything is awaited, so the
            // progressive samples pipeline across the provider pool. Each
            // round's distinct sampling rate gives it a distinct content
            // hash (an independent noise lane); rounds whose clamped rates
            // collide are disambiguated by the coordinator's occurrence
            // counter — exactly the scalar-query derivation, so the final
            // round is byte-identical to a standalone `Scalar` plan under
            // the same per-round budget.
            PendingKind::Online {
                subs: (1..=*rounds)
                    .map(|r| {
                        let rate = online_round_rate(*sampling_rate, r, *rounds);
                        push(&mut subs, query.clone(), rate, budget)
                    })
                    .collect(),
            }
        }
        QueryPlan::Extreme {
            dim,
            extreme,
            epsilon,
        } => PendingKind::Extreme(ExtremeQuery::new(
            coordinator.schema(),
            *dim,
            *extreme,
            *epsilon,
        )?),
    };
    for sub in &subs {
        check_sub(
            coordinator.schema(),
            &sub.query,
            sub.sampling_rate,
            &sub.budget,
        )?;
    }
    let (eps, delta) = plan.total_cost();
    Ok(Compiled {
        subs,
        shape,
        cost: PrivacyCost { eps, delta },
    })
}

impl<E> PendingKind<usize, E> {
    /// The plan's scalar and derived cells, in key order.
    fn cells(&self) -> &[Cell<usize>] {
        match self {
            PendingKind::Cell(cell) => std::slice::from_ref(cell),
            PendingKind::Groups { cells, .. } => cells,
            PendingKind::Online { .. } | PendingKind::Extreme(_) => &[],
        }
    }
}

impl Cell<usize> {
    /// The cell's first position: where its submission starts.
    fn first(&self) -> usize {
        match self {
            Cell::Scalar(position) => *position,
            Cell::Derived { count, .. } => *count,
        }
    }

    /// Whether the second moment re-reads the COUNT's release (the dedup
    /// pass).
    fn reuses_count(&self) -> bool {
        matches!(self, Cell::Derived { count, second_moment: Some(second), .. } if second == count)
    }

    /// Appends one `(label, position, order)` row per sub-query of the
    /// cell — COUNT, SUM, second moment — labelled under `name` (empty
    /// for a lone cell).
    fn rows(&self, name: &str, order: usize, rows: &mut Vec<(String, usize, usize)>) {
        match self {
            Cell::Scalar(position) => {
                let label = if name.is_empty() { "query" } else { name };
                rows.push((label.into(), *position, order));
            }
            Cell::Derived {
                count,
                sum,
                second_moment,
                ..
            } => {
                let prefix = if name.is_empty() {
                    String::new()
                } else {
                    format!("{name} ")
                };
                rows.push((format!("{prefix}count"), *count, order));
                rows.push((format!("{prefix}sum"), *sum, order));
                if let Some(position) = second_moment {
                    rows.push((format!("{prefix}second-moment"), *position, order));
                }
            }
        }
    }
}

impl Compiled {
    /// Submits the compiled plan: every private sub-query in one
    /// scattered batch (an extreme run to its answer) before returning.
    pub(crate) fn submit(self, coordinator: &ShardedFederation) -> Result<PendingPlan> {
        obs::counter_add(obs::names::OPTIMIZER_PLANS, 1);
        let _span = obs::span("submit_plan", "optimizer", obs::SpanId::NONE);
        let cells = self.shape.cells();
        let reused = cells.iter().filter(|cell| cell.reuses_count()).count();
        if reused > 0 {
            obs::counter_add(obs::names::OPTIMIZER_REUSED, reused as u64);
        }
        if cells.windows(2).any(|w| w[0].first() > w[1].first()) {
            obs::counter_add(obs::names::OPTIMIZER_REORDERED, 1);
        }
        let submitted = coordinator.scatter(&self.subs)?;
        // A position shared by two cells (the dedup pass's reuse) becomes
        // two sharers of one in-flight sub-query.
        let kind = self
            .shape
            .map(|i| submitted[i].share(), |ext| coordinator.run_extreme(ext))?;
        Ok(PendingPlan {
            kind,
            cost: self.cost,
        })
    }

    /// `EXPLAIN`: the compiled shape, walked in key order. A row's
    /// `order` is its cell's submission rank; `reuses` names the first
    /// row at the same position.
    pub(crate) fn explain(&self, coordinator: &ShardedFederation) -> PlanExplanation {
        let opt = coordinator.config().optimizer;
        let snap = coordinator.meta_snapshot();
        let mut rows: Vec<(String, usize, usize)> = Vec::new();
        let plan_kind = match &self.shape {
            PendingKind::Cell(cell) => {
                cell.rows("", 0, &mut rows);
                match cell {
                    Cell::Scalar(_) => "scalar",
                    Cell::Derived { .. } => "derived",
                }
            }
            PendingKind::Groups { keys, cells, .. } => {
                let mut firsts: Vec<usize> = cells.iter().map(Cell::first).collect();
                firsts.sort_unstable();
                for (key, cell) in keys.iter().zip(cells) {
                    let rank = firsts.partition_point(|&p| p < cell.first());
                    cell.rows(&format!("group {key}"), rank, &mut rows);
                }
                "group-by"
            }
            // Each round is one sub-query, submitted in round order.
            PendingKind::Online { subs } => {
                for (r, &position) in subs.iter().enumerate() {
                    rows.push((format!("round {}/{}", r + 1, subs.len()), position, r));
                }
                "online"
            }
            PendingKind::Extreme(_) => "extreme",
        };
        let mut first_row = vec![None; self.subs.len()];
        let mut sub_queries: Vec<SubQueryExplanation> = rows
            .into_iter()
            .enumerate()
            .map(|(row, (label, position, order))| {
                let query = &self.subs[position].query;
                let first = *first_row[position].get_or_insert(row);
                SubQueryExplanation {
                    label,
                    pruned_providers: if opt.prune_providers {
                        let flags = snap.pruned_flags(query).into_iter().enumerate();
                        flags.filter_map(|(i, p)| p.then_some(i as u64)).collect()
                    } else {
                        Vec::new()
                    },
                    estimated_cost: snap.estimated_cost(query),
                    reuses: (first != row).then_some(first as u64),
                    order: order as u64,
                }
            })
            .collect();
        // Extremes are answered from metadata by *every* provider's
        // Exponential-mechanism selection — pruning a provider would
        // change the released value, so the optimizer never does.
        if let PendingKind::Extreme(_) = self.shape {
            sub_queries.push(SubQueryExplanation {
                label: "extreme".into(),
                pruned_providers: Vec::new(),
                estimated_cost: 0,
                reuses: None,
                order: 0,
            });
        }
        PlanExplanation {
            plan_kind: plan_kind.into(),
            n_providers: coordinator.config().n_providers as u64,
            optimizer: opt,
            eps: self.cost.eps,
            delta: self.cost.delta,
            sub_queries,
        }
    }
}

impl EngineHandle {
    /// [`ShardedFederation::validate_plan`] on the engine's coordinator.
    pub fn validate_plan(&self, plan: &QueryPlan) -> Result<()> {
        self.coordinator().validate_plan(plan)
    }

    /// Compiles `plan` and submits **all** of its sub-queries through the
    /// engine's coordinator before returning — on an owned engine a
    /// group-by's per-group queries are in flight together, pipelining
    /// across providers, by the time the caller first waits; a scoped
    /// engine runs each one's execute turns as it is awaited.
    ///
    /// Compiling validates, so a rejected plan touches no data and costs
    /// no budget.
    pub fn submit_plan(&self, plan: &QueryPlan) -> Result<PendingPlan> {
        self.coordinator().submit_plan(plan)
    }

    /// Submits a plan and waits it out (submit + wait).
    ///
    /// ```
    /// use fedaqp_core::{Federation, FederationConfig, QueryPlan};
    /// use fedaqp_model::{Aggregate, Dimension, Domain, Range, RangeQuery, Row, Schema};
    ///
    /// let schema = Schema::new(vec![Dimension::new("x", Domain::new(0, 99).unwrap())]).unwrap();
    /// let partitions: Vec<Vec<Row>> = (0..4)
    ///     .map(|p| (0..300).map(|i| Row::cell(vec![((i * 7 + p) % 100) as i64], 1)).collect())
    ///     .collect();
    /// let federation =
    ///     Federation::build(FederationConfig::paper_default(32), schema, partitions).unwrap();
    ///
    /// let plan = QueryPlan::Scalar {
    ///     query: RangeQuery::new(Aggregate::Count, vec![Range::new(0, 20, 70).unwrap()]).unwrap(),
    ///     sampling_rate: 0.2,
    ///     epsilon: 1.0,
    ///     delta: 1e-6,
    /// };
    /// let answer = federation.with_engine(|engine| {
    ///     // EXPLAIN first: the optimizer's pruning/dedup/ordering decisions,
    ///     // computed from public metadata alone — free, nothing dispatched.
    ///     let explanation = engine.explain_plan(&plan)?;
    ///     assert_eq!(explanation.sub_queries.len(), 1);
    ///     engine.run_plan(&plan)
    /// }).unwrap();
    /// assert!(answer.value().unwrap().is_finite());
    /// assert_eq!(answer.cost.eps, 1.0);
    /// ```
    pub fn run_plan(&self, plan: &QueryPlan) -> Result<PlanAnswer> {
        self.coordinator().run_plan(plan)
    }

    /// `EXPLAIN`: the optimizer's decisions for `plan`, computed from the
    /// plan and the engine's public metadata snapshot alone — nothing is
    /// dispatched, no data is touched, and (because the inputs are the
    /// analyst's own query plus already-public Algorithm 1 metadata) no
    /// budget is charged. It renders the plan [`Self::submit_plan`]
    /// compiles, so the reported pruning, reuse, and ordering are what
    /// submission does under the current
    /// [`crate::config::OptimizerConfig`].
    pub fn explain_plan(&self, plan: &QueryPlan) -> Result<PlanExplanation> {
        self.coordinator().explain_plan(plan)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{FederationConfig, OptimizerConfig};
    use crate::federation::Federation;
    use crate::optimizer::ProviderBounds;
    use crate::shard::{
        ExtremeFragmentSpec, ExtremeReply, FragmentBatch, FragmentSpec, ShardBackend,
    };
    use fedaqp_model::{Dimension, Domain, Extreme, Row, Schema};
    use std::sync::{Arc, Mutex};

    /// The shared plan fixture (also driven by the shape-specific tests in
    /// `groupby`/`derived`): five categories of 2000/1000/400/40/0 cells
    /// with measures 1..=3, spread over four providers.
    pub(crate) fn federation(epsilon: f64) -> Federation {
        let schema = Schema::new(vec![
            Dimension::new("category", Domain::new(0, 4).unwrap()),
            Dimension::new("x", Domain::new(0, 99).unwrap()),
        ])
        .unwrap();
        let sizes = [2000usize, 1000, 400, 40, 0];
        let partitions: Vec<Vec<Row>> = (0..4)
            .map(|p| {
                let mut rows = Vec::new();
                for (cat, &n) in sizes.iter().enumerate() {
                    for i in 0..n / 4 {
                        rows.push(Row::cell(
                            vec![cat as i64, ((i * 7 + p) % 100) as i64],
                            1 + (i % 3) as u64,
                        ));
                    }
                }
                rows
            })
            .collect();
        let mut cfg = FederationConfig::paper_default(64);
        cfg.cost_model = fedaqp_smc::CostModel::zero();
        cfg.n_min = 2;
        cfg.epsilon = epsilon;
        // A seed whose draw for the empty group is nonnegative, so the
        // zero-threshold release keeps all five groups.
        cfg.seed = 1;
        Federation::build(cfg, schema, partitions).unwrap()
    }

    pub(crate) fn base() -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(1, 0, 99).unwrap()]).unwrap()
    }

    pub(crate) fn group_plan(epsilon: f64, statistic: Option<DerivedStatistic>) -> QueryPlan {
        QueryPlan::GroupBy {
            base: base(),
            statistic,
            group_dim: 0,
            threshold: 0.0,
            sampling_rate: 0.3,
            epsilon,
            delta: 1e-3,
        }
    }

    fn timings(us: [u64; 5]) -> PhaseTimings {
        PhaseTimings {
            summary: Duration::from_micros(us[0]),
            allocation: Duration::from_micros(us[1]),
            execution: Duration::from_micros(us[2]),
            release: Duration::from_micros(us[3]),
            network: Duration::from_micros(us[4]),
        }
    }

    #[test]
    fn merge_timings_takes_element_wise_max() {
        // The overlap model: concurrent sub-queries cost the *slowest*
        // phase across cells, per phase independently — not the sum.
        let mut into = timings([10, 200, 3, 40, 500]);
        merge_timings(&mut into, &timings([100, 2, 30, 4, 5000]));
        assert_eq!(into, timings([100, 200, 30, 40, 5000]));
    }

    #[test]
    fn merge_timings_empty_is_identity() {
        // Merging all-zero timings leaves the accumulator unchanged, and
        // merging into a zero accumulator copies the other side — the
        // identity element of the element-wise-max monoid.
        let mut into = timings([10, 20, 30, 40, 50]);
        merge_timings(&mut into, &timings([0, 0, 0, 0, 0]));
        assert_eq!(into, timings([10, 20, 30, 40, 50]));

        let mut zero = timings([0, 0, 0, 0, 0]);
        merge_timings(&mut zero, &timings([10, 20, 30, 40, 50]));
        assert_eq!(zero, timings([10, 20, 30, 40, 50]));
    }

    #[test]
    fn merge_timings_is_commutative_and_idempotent() {
        let a = timings([7, 300, 11, 0, 90]);
        let b = timings([70, 3, 11, 80, 9]);
        let mut ab = a;
        merge_timings(&mut ab, &b);
        let mut ba = b;
        merge_timings(&mut ba, &a);
        assert_eq!(ab, ba);

        let mut aa = a;
        merge_timings(&mut aa, &a);
        assert_eq!(aa, a);
    }

    #[test]
    fn scalar_plan_matches_direct_submission() {
        let fed = federation(1.0);
        let plan = QueryPlan::Scalar {
            query: base(),
            sampling_rate: 0.3,
            epsilon: 1.0,
            delta: 1e-3,
        };
        let via_plan = fed.with_engine(|e| e.run_plan(&plan)).unwrap();
        let direct = fed
            .with_engine(|e| e.submit(&base(), 0.3).unwrap().wait())
            .unwrap();
        assert_eq!(via_plan.value().unwrap().to_bits(), direct.value.to_bits());
        assert_eq!(via_plan.cost.eps, 1.0);
    }

    #[test]
    fn group_by_plan_releases_every_group_in_key_order() {
        let fed = federation(250.0);
        let answer = fed
            .with_engine(|e| e.run_plan(&group_plan(250.0, None)))
            .unwrap();
        let groups = answer.groups().unwrap();
        assert_eq!(groups.len(), 5);
        let keys: Vec<Value> = groups.iter().map(|g| g.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
        // The big groups come out in the right order under the loose budget.
        assert!(groups[0].value > groups[1].value);
        assert!(groups[1].value > groups[2].value);
        assert!((answer.cost.eps - 250.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_plan_is_deterministic_across_runs() {
        let a = federation(2.0)
            .with_engine(|e| e.run_plan(&group_plan(2.0, None)))
            .unwrap();
        let b = federation(2.0)
            .with_engine(|e| e.run_plan(&group_plan(2.0, None)))
            .unwrap();
        // Released data is byte-identical; only wall-clock timings vary.
        assert_eq!(a.result, b.result);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn grouped_average_stays_in_measure_range() {
        // Cell measures are 1..=3, so per-group averages live in [1, 3]
        // modulo noise; a huge ε pins them there.
        let fed = federation(5000.0);
        let answer = fed
            .with_engine(|e| e.run_plan(&group_plan(5000.0, Some(DerivedStatistic::Average))))
            .unwrap();
        let groups = answer.groups().unwrap();
        assert!(!groups.is_empty());
        for g in groups.iter().take(3) {
            // Only the populated groups are pinned by data.
            assert!(g.value > 0.5 && g.value < 4.0, "group {g:?}");
        }
    }

    #[test]
    fn validate_rejects_before_any_work() {
        let fed = federation(1.0);
        fed.with_engine(|e| {
            // Group dim constrained by the filter.
            let bad = QueryPlan::GroupBy {
                base: RangeQuery::new(Aggregate::Count, vec![Range::new(0, 0, 2).unwrap()])
                    .unwrap(),
                statistic: None,
                group_dim: 0,
                threshold: 0.0,
                sampling_rate: 0.3,
                epsilon: 1.0,
                delta: 1e-3,
            };
            assert!(matches!(
                e.validate_plan(&bad),
                Err(CoreError::BadConfig(_))
            ));
            // Bad sampling rate.
            let bad = QueryPlan::Scalar {
                query: base(),
                sampling_rate: 1.5,
                epsilon: 1.0,
                delta: 1e-3,
            };
            assert!(matches!(
                e.validate_plan(&bad),
                Err(CoreError::InvalidSamplingRate(_))
            ));
            // Non-positive ε.
            assert!(e.validate_plan(&group_plan(0.0, None)).is_err());
            // Unknown extreme dimension.
            let bad = QueryPlan::Extreme {
                dim: 7,
                extreme: Extreme::Max,
                epsilon: 1.0,
            };
            assert!(e.validate_plan(&bad).is_err());
        });
    }

    #[test]
    fn oversized_group_domain_is_a_typed_error() {
        let mut cfg_fed = federation(1.0);
        // Shrink the cap below the category domain (5 values).
        let plan = group_plan(1.0, None);
        let err = {
            let fed = &mut cfg_fed;
            // Rebuild with a tiny cap.
            let schema = fed.schema().clone();
            let mut cfg = fed.config().clone();
            cfg.max_group_domain = 3;
            let partitions: Vec<Vec<Row>> = fed
                .providers()
                .iter()
                .map(|p| p.store().clusters().iter().flat_map(|c| c.rows()).collect())
                .collect();
            let capped = Federation::build(cfg, schema, partitions).unwrap();
            capped.with_engine(|e| e.validate_plan(&plan)).unwrap_err()
        };
        assert!(
            matches!(err, CoreError::GroupDomainTooLarge { size: 5, cap: 3 }),
            "{err:?}"
        );
    }

    #[test]
    fn extreme_plan_runs_on_the_pool() {
        let fed = federation(1.0);
        let plan = QueryPlan::Extreme {
            dim: 1,
            extreme: Extreme::Max,
            epsilon: 100.0,
        };
        let answer = fed.with_engine(|e| e.run_plan(&plan)).unwrap();
        match answer.result {
            PlanResult::Extreme { value } => assert!((0..=99).contains(&value)),
            other => panic!("expected an extreme result, got {other:?}"),
        }
        assert_eq!(answer.cost.eps, 100.0);
        assert_eq!(answer.cost.delta, 0.0);
    }

    /// Every batch a coordinator begins on a [`Recording`] shard:
    /// `Some(specs)` per `begin`, `None` per extreme.
    type Calls = Arc<Mutex<Vec<Option<Vec<FragmentSpec>>>>>;

    /// A shard that records what the coordinator sends it, then forwards
    /// it to its engine.
    struct Recording {
        engine: EngineHandle,
        calls: Calls,
    }

    impl ShardBackend for Recording {
        fn n_providers(&self) -> usize {
            ShardBackend::n_providers(&self.engine)
        }
        fn bounds(&self) -> Vec<ProviderBounds> {
            ShardBackend::bounds(&self.engine)
        }
        fn begin(&self, specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>> {
            self.calls.lock().unwrap().push(Some(specs.to_vec()));
            self.engine.begin(specs)
        }
        fn extreme(&self, spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>> {
            self.calls.lock().unwrap().push(None);
            self.engine.extreme(spec)
        }
    }

    /// EXPLAIN lists what submission sends: on every shard, one `begin`
    /// carrying every row that does not reuse another, in the rows'
    /// `order`, each row's cost, pruning, group key, aggregate and round
    /// rate matching the sub-query at its rank.
    fn explain_lists_what_is_submitted(
        config: &FederationConfig,
        engines: &[EngineHandle],
        plan: &QueryPlan,
    ) {
        let calls = Calls::default();
        let shards = engines
            .iter()
            .map(|engine| {
                Box::new(Recording {
                    engine: engine.clone(),
                    calls: Arc::clone(&calls),
                }) as Box<dyn ShardBackend>
            })
            .collect();
        let schema = engines[0].schema().clone();
        let coordinator = ShardedFederation::from_backends(config.clone(), schema, shards).unwrap();
        let explanation = coordinator.explain_plan(plan).unwrap();
        assert!(calls.lock().unwrap().is_empty(), "EXPLAIN submitted");
        coordinator.submit_plan(plan).unwrap().wait().unwrap();
        let calls = std::mem::take(&mut *calls.lock().unwrap());
        assert_eq!(calls.len(), engines.len(), "one call per shard: {calls:?}");
        assert!(calls.iter().all(|call| *call == calls[0]), "{calls:?}");
        let rows = &explanation.sub_queries;
        let Some(subs) = &calls[0] else {
            assert!(matches!(plan, QueryPlan::Extreme { .. }), "{calls:?}");
            assert_eq!(rows.len(), 1);
            return;
        };
        let reused = explanation.reused_total() as usize;
        assert_eq!(subs.len(), rows.len() - reused, "{explanation:?}");
        let mut executed: Vec<&SubQueryExplanation> =
            rows.iter().filter(|row| row.reuses.is_none()).collect();
        executed.sort_by_key(|row| row.order);
        let snap = coordinator.meta_snapshot();
        for (sub, row) in subs.iter().zip(executed) {
            let query = &sub.query;
            assert_eq!(snap.estimated_cost(query), row.estimated_cost, "{row:?}");
            if config.optimizer.prune_providers {
                let pruned = snap.pruned_flags(query).into_iter().enumerate();
                let pruned: Vec<u64> = pruned.filter_map(|(i, p)| p.then_some(i as u64)).collect();
                assert_eq!(pruned, row.pruned_providers, "{row:?}");
            }
            let words: Vec<&str> = row.label.split(' ').collect();
            if let ["group", key, ..] = words[..] {
                let key: Value = key.parse().unwrap();
                assert!(query.ranges().contains(&Range::new(0, key, key).unwrap()));
            }
            let aggregate = match words.last() {
                Some(&"sum") => Aggregate::Sum,
                _ => Aggregate::Count,
            };
            assert_eq!(query.aggregate(), aggregate, "{row:?}");
            if let (["round", r], QueryPlan::Online { sampling_rate, .. }) = (&words[..], plan) {
                let (r, rounds) = r.split_once('/').unwrap();
                let rate =
                    online_round_rate(*sampling_rate, r.parse().unwrap(), rounds.parse().unwrap());
                assert_eq!(sub.sampling_rate, rate);
            }
        }
        // A reused second moment re-reads its own cell's COUNT.
        for row in rows.iter().filter(|row| row.reuses.is_some()) {
            let count = &rows[row.reuses.unwrap() as usize];
            assert_eq!(row.label.replace("second-moment", "count"), count.label);
            assert_eq!(count.reuses, None);
        }
    }

    #[test]
    fn explain_lists_what_submission_sends_on_every_backend() {
        // Provider `p` holds only `g = p`, with more rows (so more
        // clusters) the higher `p`: grouping by `g` prunes three providers
        // per group, and the cost order reverses the key order.
        let schema = Schema::new(vec![
            Dimension::new("g", Domain::new(0, 3).unwrap()),
            Dimension::new("x", Domain::new(0, 99).unwrap()),
        ])
        .unwrap();
        let partitions: Vec<Vec<Row>> = (0..4)
            .map(|p| {
                let row = |i| Row::cell(vec![p, (i * 7 + p) % 100], 1 + (i % 3) as u64);
                (0..150 * (p + 1)).map(row).collect()
            })
            .collect();
        let x = RangeQuery::new(Aggregate::Count, vec![Range::new(1, 5, 90).unwrap()]).unwrap();
        let derived = |statistic| QueryPlan::Derived {
            query: x.clone(),
            statistic,
            sampling_rate: 0.3,
            epsilon: 3.0,
            delta: 1e-3,
        };
        let grouped = |statistic| QueryPlan::GroupBy {
            base: x.clone(),
            statistic,
            group_dim: 0,
            threshold: f64::NEG_INFINITY,
            sampling_rate: 0.3,
            epsilon: 8.0,
            delta: 1e-3,
        };
        let plans = [
            QueryPlan::Scalar {
                query: x.clone(),
                sampling_rate: 0.3,
                epsilon: 1.0,
                delta: 1e-3,
            },
            derived(DerivedStatistic::Average),
            derived(DerivedStatistic::Variance),
            derived(DerivedStatistic::StdDev),
            grouped(None),
            grouped(Some(DerivedStatistic::Average)),
            grouped(Some(DerivedStatistic::Variance)),
            QueryPlan::Online {
                query: x.clone(),
                sampling_rate: 0.3,
                epsilon: 3.0,
                delta: 1e-3,
                rounds: 3,
            },
            QueryPlan::Extreme {
                dim: 1,
                extreme: Extreme::Max,
                epsilon: 2.0,
            },
        ];
        for optimizer in [OptimizerConfig::enabled(), OptimizerConfig::disabled()] {
            let mut cfg = FederationConfig::paper_default(32);
            cfg.cost_model = fedaqp_smc::CostModel::zero();
            cfg.optimizer = optimizer;
            let fed = Federation::build(cfg.clone(), schema.clone(), partitions.clone()).unwrap();
            // The same providers as two engines, as a 2-shard deployment
            // splits them.
            let halves: Vec<EngineHandle> = (0..2)
                .map(|s| {
                    let mut half = cfg.clone();
                    half.n_providers = 2;
                    half.provider_lane_base = 2 * s as u64;
                    let rows = partitions[2 * s..2 * s + 2].to_vec();
                    let engine = Federation::build(half, schema.clone(), rows).unwrap();
                    engine.with_engine(EngineHandle::clone)
                })
                .collect();
            for plan in &plans {
                fed.with_engine(|engine| {
                    explain_lists_what_is_submitted(&cfg, std::slice::from_ref(engine), plan)
                });
                explain_lists_what_is_submitted(&cfg, &halves, plan);
            }
            // The cost order is live here: the grouped VAR goes out
            // costliest group first.
            let explanation = fed.with_engine(|e| e.explain_plan(&plans[6])).unwrap();
            let orders: Vec<u64> = explanation.sub_queries.iter().map(|s| s.order).collect();
            let reordered = optimizer.reorder_subqueries;
            let want = if reordered {
                [3, 2, 1, 0]
            } else {
                [0, 1, 2, 3]
            };
            assert_eq!(
                orders,
                want.iter().flat_map(|&o| [o; 3]).collect::<Vec<_>>()
            );
        }
        // An online plan's terminal rate is validated as the plan's own,
        // not as the clamped rates its rounds run at.
        let mut online = plans[7].clone();
        if let QueryPlan::Online { sampling_rate, .. } = &mut online {
            *sampling_rate = 1.5;
        }
        let err = federation(1.0).with_engine(|e| e.validate_plan(&online));
        assert!(
            matches!(err, Err(CoreError::InvalidSamplingRate(_))),
            "{err:?}"
        );
    }
}
