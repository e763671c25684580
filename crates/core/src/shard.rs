//! Sharded federation: plan fragmentation + the scatter–gather
//! coordinator.
//!
//! A single [`crate::FederationEngine`] runs every provider in one
//! process. This module partitions the providers across *N engine
//! shards* — each a full worker pool of its own, in-process or behind a
//! wire connection — and puts a **coordinator** in front that speaks the
//! analyst surface of an engine while scattering each sub-query as
//! per-shard *fragments* and gathering the mergeable partials back:
//!
//! ```text
//!  analysts ──plans──▶ ShardedFederation ──fragments──▶ shard 0 (providers 0..k)
//!     ▲                 │ occurrence ledger             shard 1 (providers k..m)
//!     │                 │ global allocation (Eq. 6)       …
//!     └── PlanAnswer ◀──┴── merge partials (serial fold, global order)
//! ```
//!
//! **Determinism contract.** A seeded plan is byte-identical between the
//! 1-shard and the N-shard run — scoped ≡ owned ≡ remote ≡ sharded.
//! Three mechanisms make this hold:
//!
//! 1. *Lane offsets.* Shard `s` holding global providers `[o, o+k)` is
//!    configured with [`FederationConfig::provider_lane_base`] `= o`, so
//!    its local providers `0..k` draw from exactly the RNG lanes the
//!    1-shard engine gives providers `o..o+k`.
//! 2. *One occurrence ledger.* The coordinator owns the per-content
//!    occurrence counters (the same content hash the engine uses) and
//!    passes each fragment its explicit occurrence index — shards never
//!    consult their own ledgers for fragments, so a shard serving two
//!    coordinators (or analyst traffic on the side) cannot skew the
//!    noise streams. See the differencing note in [`crate::engine`].
//! 3. *Serial merge fold.* f64 addition is not associative, so partials
//!    carry *per-provider* released values and the coordinator re-runs
//!    the 1-shard release fold ([`Aggregator::finalize_local`]) over the
//!    global concatenation, in global provider order — bit-exact, not
//!    merely close. MIN/MAX fragments fold exactly (integer domain).
//!
//! The global allocation program (Eq. 6) runs at the coordinator over
//! the concatenated summaries: step 3 is *externalized* on every shard
//! (a [`FragmentBatch`]), which holds its providers' carries — not their
//! workers — until the coordinator feeds the globally solved slice back.
//! [`Aggregator::allocate`] is RNG-free, so the coordinator's solution is
//! identical to the one the 1-shard aggregator would compute.
//!
//! **One shard, both ends of the socket.** [`EngineHandle`]'s
//! [`ShardBackend`] is the only shard: an in-process coordinator calls it,
//! and so does a shard-mode server, once per frame. It checks each
//! fragment as it enters — a shard cannot know who compiled it.
//!
//! **Single-ξ authority.** The coordinator (its sessions, or the serving
//! endpoint's `BudgetDirectory`) is the *only* place analyst budgets are
//! validated and charged: a plan's whole [`QueryPlan::total_cost`] is
//! charged atomically *before* any fragment is scattered, and downstream
//! shards execute fragments budget-unchecked. A shard must therefore
//! accept fragments **only** from its coordinator (the wire layer
//! enforces this by serving fragment frames and analyst frames from
//! disjoint endpoints); the full argument lives in
//! `docs/privacy-model.md`.
//!
//! **Faults.** A shard refusing a connection or dropping mid-plan
//! surfaces as the typed [`CoreError::ShardUnavailable`] — never a
//! hangup. Budget already charged for the plan stays charged
//! (fail-closed, the conservative direction for privacy; pinned by
//! tests). Fragments begun on healthy shards are aborted on drop, so
//! their queued turns skip.
//!
//! **Deadlock discipline: there is none to keep.** A shard's provider
//! workers never park: a summary turn leaves its carry in the fragment,
//! and the allocation, when it lands, queues the execute turns (see
//! [`crate::engine`]). So any number of fragments can wait for their
//! allocations on any shard, in any queue order, and the coordinator
//! needs no lock and no acknowledgement to scatter.
//!
//! **One batch per plan.** A plan hands the coordinator every sub-query
//! it submits before its first wait in one [`PlanBackend::submit_subs`]
//! call. The coordinator numbers them on its one occurrence ledger, in
//! submission order, and sends them to each shard as one
//! [`FragmentBatch`]: one round trip for every fragment's summaries, then
//! the solved allocations in one write; the partials come back one per
//! fragment, in batch order, so each sub-query (each round of an online
//! plan) resolves as soon as its own partials are in.
//!
//! **No threads.** By the time a reply is read, every shard already has
//! its request, so reading the replies in shard order waits for the
//! slowest shard, not for the sum. A backend that simulates a slow link
//! reports when its reply will have arrived
//! ([`FragmentBatch::ready_at`]) and the coordinator sleeps once, until
//! the latest arrival across shards.
//!
//! SMC release ([`ReleaseMode::Smc`]) is not shardable — its oblivious
//! sum needs every provider's secret shares in one place — and is
//! rejected at construction with a typed error.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fedaqp_dp::{PrivacyCost, QueryBudget};
use fedaqp_model::{Extreme, QueryPlan, RangeQuery, Row, Schema, Value};
use fedaqp_obs as obs;

use crate::aggregator::Aggregator;
use crate::config::{FederationConfig, ReleaseMode};
use crate::engine::{
    extreme_content_hash, private_content_hash, EngineHandle, FederationEngine, OccurrenceLedger,
    PendingExtreme, PendingFragment,
};
use crate::federation::Federation;
use crate::optimizer::{MetaSnapshot, PlanExplanation, ProviderBounds};
use crate::plan::{
    check_sub, ExtremeOutcome, ExtremeQuery, PendingPlan, PlanAnswer, PlanBackend, ShardedAnswer,
    SubQuery,
};
use crate::protocol::{
    combined_ci_halfwidth, extreme_network, private_network, LocalOutcome, PhaseTimings,
    ProviderSummary,
};
use crate::{CoreError, Result};

/// One provider's slice of a fragment's mergeable partial answer: the
/// locally noised release plus the public per-provider diagnostics the
/// coordinator folds. Raw estimates and smooth sensitivities never leave
/// a shard — the coordinator (like any aggregator) sees only
/// already-released values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialRow {
    /// The provider's locally noised release (protocol step 6).
    pub released: f64,
    /// Hansen–Hurwitz variance of the raw estimate (`None` when
    /// inestimable) — public CI accounting, not a data leak: the 1-shard
    /// engine surfaces the same per-provider variances to its analyst.
    pub variance: Option<f64>,
    /// Whether the provider approximated.
    pub approximated: bool,
    /// Clusters scanned (work proxy).
    pub clusters_scanned: u64,
    /// Covering-set size `N^Q`.
    pub n_covering: u64,
}

/// One shard's mergeable partial for a private fragment: per-provider
/// rows in *local* provider order, plus the shard's slowest-provider
/// execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentPartial {
    /// One row per local provider, in local provider order.
    pub rows: Vec<PartialRow>,
    /// Wall time of the shard's slowest provider (steps 4–6).
    pub execution: Duration,
}

/// Everything a shard needs to run one private fragment. The occurrence
/// index comes from the coordinator's ledger (mechanism 2 of the
/// determinism contract); the shard's own ledger is untouched. The
/// coordinator charged the budget before it scattered; the shard checks
/// the spec at [`ShardBackend::begin`], its entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentSpec {
    /// The range query.
    pub query: RangeQuery,
    /// The sampling rate `sr ∈ (0, 1)`.
    pub sampling_rate: f64,
    /// The per-query budget.
    pub budget: QueryBudget,
    /// Coordinator-assigned occurrence index for the noise derivation.
    pub occurrence: u64,
}

/// Everything a shard needs to run one MIN/MAX fragment, checked at
/// [`ShardBackend::extreme`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremeFragmentSpec {
    /// The selected dimension.
    pub dim: usize,
    /// MIN or MAX.
    pub extreme: Extreme,
    /// Per-provider EM budget.
    pub epsilon: f64,
    /// Coordinator-assigned occurrence index.
    pub occurrence: u64,
}

/// One shard's step-2 summaries for one fragment: local provider order,
/// with the slowest provider's summary time.
pub type FragmentSummaries = (Vec<ProviderSummary>, Duration);

/// A batch of private fragments in flight on one shard — every sub-query
/// a plan submitted before its first wait, in submission order. Called
/// in order: summaries once, allocate once, then one partial per fragment
/// in batch order. Dropping an unfinished batch must abort its fragments
/// (the in-process implementation's fragments abort on drop; a
/// wire-backed implementation aborts on connection close).
pub trait FragmentBatch: Send {
    /// Blocks until every local provider delivered its step-2 summary for
    /// every fragment; one entry per fragment, in batch order.
    fn summaries(&mut self) -> Result<Vec<FragmentSummaries>>;
    /// Delivers the coordinator's globally solved allocations: this
    /// shard's slice (local provider order) of each fragment's, in batch
    /// order. A batch refuses the wrong number of slices, or a slice of
    /// the wrong length, before any fragment gets its own.
    fn allocate(&mut self, allocations: &[Vec<u64>]) -> Result<()>;
    /// Blocks until the next fragment, in batch order, executed; returns
    /// its mergeable partial.
    fn partial(&mut self) -> Result<FragmentPartial>;
    /// When the reply read last will have crossed a simulated link —
    /// `None` (the default) when it already has. The coordinator sleeps
    /// until the latest such instant across a gather's shards.
    fn ready_at(&self) -> Option<Instant> {
        None
    }
}

/// One MIN/MAX fragment sent to a shard, its reply not read yet.
pub trait ExtremeReply: Send {
    /// Blocks until the shard answered: its shard-local combined
    /// selection and its slowest provider's execution time.
    fn answer(&mut self) -> Result<(Value, Duration)>;
    /// As [`FragmentBatch::ready_at`].
    fn ready_at(&self) -> Option<Instant> {
        None
    }
}

/// One engine shard as the coordinator sees it: provider count and
/// public bounds up front, fragments on demand. Implemented in-process
/// by [`EngineHandle`] and over the wire by the net crate's remote-shard
/// client.
pub trait ShardBackend: Send + Sync {
    /// Number of providers this shard holds.
    fn n_providers(&self) -> usize;
    /// The shard's public per-provider pruning bounds, in local provider
    /// order (offline Algorithm 1 metadata — the coordinator concatenates
    /// these into the global [`MetaSnapshot`]).
    fn bounds(&self) -> Vec<ProviderBounds>;
    /// Begins a batch of private fragments without waiting for any reply.
    fn begin(&self, specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>>;
    /// Sends one MIN/MAX fragment without waiting for its reply.
    fn extreme(&self, spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>>;
}

impl ShardBackend for EngineHandle {
    fn n_providers(&self) -> usize {
        EngineHandle::n_providers(self)
    }

    fn bounds(&self) -> Vec<ProviderBounds> {
        self.meta_snapshot().providers().to_vec()
    }

    /// Checks every spec, then launches them all: a batch with a bad
    /// spec launches nothing.
    fn begin(&self, specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>> {
        for spec in specs {
            check_sub(self.schema(), &spec.query, spec.sampling_rate, &spec.budget)?;
        }
        Ok(Box::new(LocalBatch {
            fragments: specs
                .iter()
                .map(|spec| self.submit_fragment(spec))
                .collect::<Result<_>>()?,
            providers: EngineHandle::n_providers(self),
            gathered: 0,
        }))
    }

    fn extreme(&self, spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>> {
        let ext = ExtremeQuery::new(self.schema(), spec.dim, spec.extreme, spec.epsilon)?;
        Ok(Box::new(self.launch_extreme(ext, Some(spec.occurrence))?))
    }
}

/// An in-process shard's batch: its engine's fragments, the engine's
/// provider count, and how many partials were read.
struct LocalBatch {
    fragments: Vec<PendingFragment>,
    providers: usize,
    gathered: usize,
}

impl FragmentBatch for LocalBatch {
    fn summaries(&mut self) -> Result<Vec<FragmentSummaries>> {
        self.fragments
            .iter()
            .map(PendingFragment::summaries)
            .collect()
    }

    /// The one check of an allocation's shape, before any fragment gets
    /// its slice: a refused batch holds no allocation.
    fn allocate(&mut self, allocations: &[Vec<u64>]) -> Result<()> {
        if allocations.len() != self.fragments.len() {
            return Err(CoreError::BadConfig(
                "fragment allocations do not match the batch",
            ));
        }
        if allocations
            .iter()
            .any(|slice| slice.len() != self.providers)
        {
            return Err(CoreError::BadConfig(
                "fragment allocation length does not match shard providers",
            ));
        }
        self.fragments
            .iter()
            .zip(allocations)
            .try_for_each(|(fragment, allocation)| fragment.provide_allocation(allocation.clone()))
    }

    fn partial(&mut self) -> Result<FragmentPartial> {
        let fragment = self
            .fragments
            .get(self.gathered)
            .ok_or(CoreError::ProtocolViolation(
                "every fragment of the batch was gathered",
            ))?;
        self.gathered += 1;
        fragment.partial()
    }
}

impl ExtremeReply for PendingExtreme {
    fn answer(&mut self) -> Result<(Value, Duration)> {
        let answer = self.wait()?;
        Ok((answer.value, answer.execution))
    }
}

/// Shared interior of [`ShardedFederation`].
struct CoordinatorInner {
    /// Coordinator-wide configuration: `n_providers` is the federation
    /// total; `provider_lane_base` the global base (0 unless this
    /// coordinator is itself a shard of a larger one).
    config: FederationConfig,
    schema: Schema,
    /// Global pruning snapshot: the shards' bounds concatenated in shard
    /// order == global provider order.
    snapshot: MetaSnapshot,
    shards: Vec<Box<dyn ShardBackend>>,
    /// Global provider offset of each shard (prefix sums).
    offsets: Vec<usize>,
    /// THE per-content occurrence ledger of the deployment (mechanism 2
    /// of the determinism contract) — same content-hash keys as the
    /// engine's own ledger.
    occurrences: OccurrenceLedger,
    /// Each shard's `(scatter, gather)` latency metric names — the
    /// labeled families `{base}.shard{s}`, built once.
    shard_metrics: Vec<(String, String)>,
    /// Worker pools of in-process shards (empty when the shards are
    /// remote); drained by [`ShardedFederation::shutdown`].
    engines: Mutex<Vec<FederationEngine>>,
}

/// A cloneable, thread-safe handle onto a sharded federation — the
/// scatter–gather coordinator. Implements [`PlanBackend`], so the *same*
/// plan compiler (budget splits, group enumeration, suppression, dedup,
/// cost-ordered submission) that drives [`EngineHandle`] drives the
/// sharded deployment; only the sub-query transport differs.
#[derive(Clone)]
pub struct ShardedFederation {
    inner: Arc<CoordinatorInner>,
}

impl std::fmt::Debug for ShardedFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFederation")
            .field("n_shards", &self.inner.shards.len())
            .field("n_providers", &self.inner.config.n_providers)
            .finish()
    }
}

impl ShardedFederation {
    /// Builds an in-process sharded federation: `partitions` (one per
    /// global provider) are split contiguously across `n_shards` worker
    /// pools, each configured with the *same* seed and its global lane
    /// offset — the setup under which N-shard answers are byte-identical
    /// to the 1-shard run.
    pub fn in_process(
        config: FederationConfig,
        schema: Schema,
        partitions: Vec<Vec<Row>>,
        n_shards: usize,
    ) -> Result<Self> {
        config.validate()?;
        reject_unshardable(&config)?;
        if n_shards == 0 || n_shards > config.n_providers {
            return Err(CoreError::BadConfig(
                "shard count must be in [1, n_providers]",
            ));
        }
        if partitions.len() != config.n_providers {
            return Err(CoreError::PartitionMismatch {
                partitions: partitions.len(),
                providers: config.n_providers,
            });
        }
        let mut partitions = partitions.into_iter();
        let mut shards: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(n_shards);
        let mut engines = Vec::with_capacity(n_shards);
        let (base, extra) = (config.n_providers / n_shards, config.n_providers % n_shards);
        let mut offset = 0usize;
        for s in 0..n_shards {
            let k = base + usize::from(s < extra);
            let mut shard_cfg = config.clone();
            shard_cfg.n_providers = k;
            shard_cfg.provider_lane_base = config.provider_lane_base + offset as u64;
            let shard_partitions: Vec<Vec<Row>> = partitions.by_ref().take(k).collect();
            let engine = FederationEngine::start(Federation::build(
                shard_cfg,
                schema.clone(),
                shard_partitions,
            )?);
            shards.push(Box::new(engine.handle()));
            engines.push(engine);
            offset += k;
        }
        Self::assemble(config, schema, shards, engines)
    }

    /// Builds a coordinator over externally provided shard backends (the
    /// net crate federates remote `fedaqp-net` servers this way).
    /// `config.n_providers` must equal the shard total.
    pub fn from_backends(
        config: FederationConfig,
        schema: Schema,
        shards: Vec<Box<dyn ShardBackend>>,
    ) -> Result<Self> {
        config.validate()?;
        reject_unshardable(&config)?;
        if shards.is_empty() {
            return Err(CoreError::BadConfig("coordinator needs at least one shard"));
        }
        Self::assemble(config, schema, shards, Vec::new())
    }

    fn assemble(
        config: FederationConfig,
        schema: Schema,
        shards: Vec<Box<dyn ShardBackend>>,
        engines: Vec<FederationEngine>,
    ) -> Result<Self> {
        let mut offsets = Vec::with_capacity(shards.len());
        let mut bounds = Vec::with_capacity(config.n_providers);
        let mut offset = 0usize;
        for shard in &shards {
            offsets.push(offset);
            let k = shard.n_providers();
            let shard_bounds = shard.bounds();
            if shard_bounds.len() != k {
                return Err(CoreError::ProtocolViolation(
                    "shard bounds do not match its provider count",
                ));
            }
            bounds.extend(shard_bounds);
            offset += k;
        }
        if offset != config.n_providers {
            return Err(CoreError::PartitionMismatch {
                partitions: offset,
                providers: config.n_providers,
            });
        }
        let shard_metrics = (0..shards.len())
            .map(|s| {
                (
                    format!("{}.shard{s}", obs::names::SHARD_SCATTER),
                    format!("{}.shard{s}", obs::names::SHARD_GATHER),
                )
            })
            .collect();
        Ok(Self {
            inner: Arc::new(CoordinatorInner {
                config,
                schema,
                snapshot: MetaSnapshot::from_bounds(bounds),
                shards,
                offsets,
                shard_metrics,
                occurrences: OccurrenceLedger::default(),
                engines: Mutex::new(engines),
            }),
        })
    }

    /// The coordinator-wide federation configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.inner.config
    }

    /// The public table schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Number of shards behind this coordinator.
    pub fn n_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Total providers across all shards.
    pub fn n_providers(&self) -> usize {
        self.inner.config.n_providers
    }

    /// The global pruning snapshot (shards' bounds concatenated).
    pub fn meta_snapshot(&self) -> &MetaSnapshot {
        &self.inner.snapshot
    }

    /// The default per-query budget from the configuration.
    pub fn default_budget(&self) -> Result<QueryBudget> {
        self.inner.config.query_budget()
    }

    /// Stops the in-process shard pools (no-op for remote backends,
    /// whose servers are shut down by their owners). Later submissions
    /// on any clone fail cleanly.
    pub fn shutdown(&self) {
        let mut engines = self
            .inner
            .engines
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for engine in engines.drain(..) {
            let _ = engine.shutdown();
        }
    }

    /// Compiles `plan` and scatters **all** of its sub-queries before
    /// returning — the sharded twin of [`EngineHandle::submit_plan`].
    pub fn submit_plan(&self, plan: &QueryPlan) -> Result<PendingPlan<ShardedFederation>> {
        PlanBackend::submit_plan(self, plan)
    }

    /// Submits a plan and waits it out.
    pub fn run_plan(&self, plan: &QueryPlan) -> Result<PlanAnswer> {
        self.submit_plan(plan)?.wait()
    }

    /// `EXPLAIN` on the coordinator: identical decisions to the 1-shard
    /// engine (same optimizer code over the same concatenated bounds).
    pub fn explain_plan(&self, plan: &QueryPlan) -> Result<PlanExplanation> {
        PlanBackend::explain_plan(self, plan)
    }

    /// Rebinds a shard-reported error to the coordinator's shard index.
    fn shard_error(&self, shard: usize, error: CoreError) -> CoreError {
        match error {
            CoreError::ShardUnavailable { reason, .. } => {
                obs::counter_add(obs::names::SHARD_UNAVAILABLE, 1);
                CoreError::ShardUnavailable { shard, reason }
            }
            other => other,
        }
    }

    /// The scatter half of a plan's private sub-queries: number them on
    /// the occurrence ledger, begin them as one batch on every shard,
    /// gather and concatenate each one's summaries, solve each global
    /// allocation, and feed every shard its slices — synchronously, so the
    /// returned sub-queries only have partials left to gather.
    fn scatter(&self, subs: &[SubQuery]) -> Result<Vec<ShardedSub>> {
        if subs.is_empty() {
            return Ok(Vec::new());
        }
        obs::counter_add(obs::names::SHARD_QUERIES, subs.len() as u64);
        let _span = obs::span("scatter", "shard", obs::SpanId::NONE);
        let scatter_start = Instant::now();
        let inner = &*self.inner;
        let specs: Vec<FragmentSpec> = subs
            .iter()
            .map(|sub| FragmentSpec {
                query: sub.query.clone(),
                sampling_rate: sub.sampling_rate,
                budget: sub.budget,
                occurrence: inner.occurrences.next(private_content_hash(
                    &sub.query,
                    sub.sampling_rate,
                    &sub.budget,
                )),
            })
            .collect();
        // Write the batch to every shard before reading any reply.
        let begun: Vec<_> = inner
            .shards
            .iter()
            .map(|shard| shard.begin(&specs))
            .collect();
        // Gather summaries in shard order — every shard is already
        // working, so this waits for the slowest, not the sum — and
        // concatenate each fragment's into global provider order.
        let mut batches = Vec::with_capacity(inner.shards.len());
        let mut summaries: Vec<Vec<ProviderSummary>> = specs
            .iter()
            .map(|_| Vec::with_capacity(inner.config.n_providers))
            .collect();
        let mut summary_times = vec![Duration::ZERO; specs.len()];
        for (s, (first, shard)) in begun.into_iter().zip(&inner.shards).enumerate() {
            let wait = Instant::now();
            // One immediate retry absorbs a transient fault (a dropped
            // connection, a mid-restart shard). The specs — and with them
            // the occurrence indices — are reused verbatim, so a retried
            // batch draws byte-identical noise. Dropping a failed batch
            // aborts its fragments.
            let (batch, shard_summaries) = summarized(first)
                .or_else(|e| {
                    if matches!(e, CoreError::ShardUnavailable { .. }) {
                        obs::counter_add(obs::names::SHARD_RETRIES, 1);
                        summarized(shard.begin(&specs))
                    } else {
                        Err(e)
                    }
                })
                .map_err(|e| self.shard_error(s, e))?;
            obs::observe_duration(&inner.shard_metrics[s].0, wait.elapsed());
            if shard_summaries.len() != specs.len() {
                return Err(CoreError::ProtocolViolation(
                    "fragment summaries do not match the batch",
                ));
            }
            for ((mut fragment, time), (all, summary_time)) in shard_summaries
                .into_iter()
                .zip(summaries.iter_mut().zip(&mut summary_times))
            {
                if fragment.len() != shard.n_providers() {
                    return Err(CoreError::ProtocolViolation(
                        "fragment summaries do not match the shard's provider count",
                    ));
                }
                *summary_time = (*summary_time).max(time);
                for (i, summary) in fragment.iter_mut().enumerate() {
                    summary.provider = inner.offsets[s] + i;
                }
                all.extend(fragment);
            }
            batches.push(batch);
        }
        sleep_until_ready(&batches);
        // Step 3, globally: each fragment's allocation program over *all*
        // its summaries. `allocate` is RNG-free, so any aggregator seed
        // reproduces the 1-shard solution exactly.
        let aggregator = Aggregator::new(0, inner.config.cost_model);
        let mut scattered = VecDeque::with_capacity(specs.len());
        for ((spec, summaries), summary_time) in specs.iter().zip(&summaries).zip(summary_times) {
            let t = Instant::now();
            let policy = inner.config.allocation_policy;
            let allocations = aggregator.allocate_under(policy, summaries, spec.sampling_rate)?;
            scattered.push_back(Scattered {
                summary_time,
                allocation_time: t.elapsed(),
                network: private_network(inner.config.cost_model, &spec.query, None),
                allocations,
                cost: spec.budget.cost(),
            });
        }
        for (s, batch) in batches.iter_mut().enumerate() {
            let o = inner.offsets[s];
            let k = inner.shards[s].n_providers();
            let slices: Vec<Vec<u64>> = scattered
                .iter()
                .map(|sub| sub.allocations[o..o + k].to_vec())
                .collect();
            batch
                .allocate(&slices)
                .map_err(|e| self.shard_error(s, e))?;
        }
        obs::observe_duration(obs::names::SHARD_SCATTER, scatter_start.elapsed());
        let gather = Arc::new(Mutex::new(Gather {
            batches,
            scattered,
            answers: Vec::with_capacity(specs.len()),
        }));
        Ok((0..specs.len())
            .map(|index| ShardedSub {
                gather: Arc::clone(&gather),
                index,
            })
            .collect())
    }

    /// The gather half of the batch's next sub-query: fetch every shard's
    /// next partial, rebuild the global outcome rows, and re-run the
    /// 1-shard release fold.
    fn gather_next(&self, gather: &mut Gather) -> Result<ShardedAnswer> {
        let Scattered {
            summary_time,
            allocation_time,
            network,
            allocations,
            cost,
        } = gather
            .scattered
            .pop_front()
            .expect("one scattered sub-query per answer still to gather");
        let _span = obs::span("gather", "shard", obs::SpanId::NONE);
        let gather_start = Instant::now();
        let inner = &*self.inner;
        let mut outcomes = Vec::with_capacity(inner.config.n_providers);
        let mut execution = Duration::ZERO;
        for (s, batch) in gather.batches.iter_mut().enumerate() {
            let wait = Instant::now();
            let partial = batch.partial().map_err(|e| self.shard_error(s, e))?;
            obs::observe_duration(&inner.shard_metrics[s].1, wait.elapsed());
            if partial.rows.len() != inner.shards[s].n_providers() {
                return Err(CoreError::ProtocolViolation(
                    "fragment partial does not match the shard's provider count",
                ));
            }
            execution = execution.max(partial.execution);
            for (i, row) in partial.rows.iter().enumerate() {
                // Raw estimates and smooth sensitivities never cross the
                // shard boundary; the fold below reads only `released`
                // (and the public variances for the CI).
                outcomes.push(LocalOutcome {
                    provider: inner.offsets[s] + i,
                    released: Some(row.released),
                    estimate: 0.0,
                    smooth_ls: 0.0,
                    variance: row.variance,
                    approximated: row.approximated,
                    clusters_scanned: row.clusters_scanned as usize,
                    n_covering: row.n_covering as usize,
                });
            }
        }
        sleep_until_ready(&gather.batches);
        let t = Instant::now();
        let aggregator = Aggregator::new(0, inner.config.cost_model);
        let value = aggregator.finalize_local(&outcomes)?;
        let release = t.elapsed();
        obs::observe_duration(obs::names::SHARD_GATHER, gather_start.elapsed());
        Ok(ShardedAnswer {
            value,
            cost,
            timings: PhaseTimings {
                summary: summary_time,
                allocation: allocation_time,
                execution,
                release,
                network,
            },
            ci_halfwidth: combined_ci_halfwidth(&outcomes),
            clusters_scanned: outcomes.iter().map(|o| o.clusters_scanned).sum(),
            covering_total: outcomes.iter().map(|o| o.n_covering).sum(),
            approximated_providers: outcomes.iter().filter(|o| o.approximated).count(),
            allocations,
        })
    }
}

/// Reads a just-begun batch's summaries, passing the batch through.
fn summarized(
    batch: Result<Box<dyn FragmentBatch>>,
) -> Result<(Box<dyn FragmentBatch>, Vec<FragmentSummaries>)> {
    let mut batch = batch?;
    let summaries = batch.summaries()?;
    Ok((batch, summaries))
}

/// Sleeps until the replies just read from `batches` have all crossed
/// their simulated links; returns at once when (as in every real
/// deployment) no backend simulates one.
fn sleep_until_ready(batches: &[Box<dyn FragmentBatch>]) {
    sleep_until(batches.iter().filter_map(|b| b.ready_at()).max());
}

fn sleep_until(latest: Option<Instant>) {
    if let Some(latest) = latest {
        std::thread::sleep(latest.saturating_duration_since(Instant::now()));
    }
}

/// Rejects configurations the coordinator cannot serve.
fn reject_unshardable(config: &FederationConfig) -> Result<()> {
    if config.release_mode == ReleaseMode::Smc {
        return Err(CoreError::BadConfig(
            "SMC release is not shardable: the oblivious sum needs every provider's shares in one place",
        ));
    }
    Ok(())
}

/// A private sub-query in flight across the shards: its position in the
/// batch it was scattered with. Cloning via [`PlanBackend::share_sub`]
/// shares the gather, so dedup'd sub-queries resolve once and every
/// sharer reads the memoized merge.
pub struct ShardedSub {
    gather: Arc<Mutex<Gather>>,
    index: usize,
}

/// One scattered batch's gather, shared by its sub-queries: the shards'
/// batches, and the answers gathered so far, in batch order — a
/// sub-query's partials are read after every earlier one's.
struct Gather {
    batches: Vec<Box<dyn FragmentBatch>>,
    /// The sub-queries not gathered yet, in batch order.
    scattered: VecDeque<Scattered>,
    answers: Vec<Result<ShardedAnswer>>,
}

/// A scattered sub-query whose fragments hold their allocations: what its
/// answer needs besides the partials.
struct Scattered {
    summary_time: Duration,
    allocation_time: Duration,
    /// The 1-shard engine's simulated local-DP network time.
    network: Duration,
    allocations: Vec<u64>,
    cost: PrivacyCost,
}

impl PlanBackend for ShardedFederation {
    type Sub = ShardedSub;
    type Ext = ExtremeOutcome;

    fn config(&self) -> &FederationConfig {
        &self.inner.config
    }

    fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    fn snapshot(&self) -> &MetaSnapshot {
        &self.inner.snapshot
    }

    fn submit_subs(&self, subs: &[SubQuery]) -> Result<Vec<ShardedSub>> {
        self.scatter(subs)
    }

    fn share_sub(&self, sub: &ShardedSub) -> ShardedSub {
        ShardedSub {
            gather: Arc::clone(&sub.gather),
            index: sub.index,
        }
    }

    /// Resolves a sharded sub-query — gathering, in batch order, every
    /// sub-query of its batch up to it — and memoizes each merge, so
    /// every sharer (the dedup pass) observes byte-identical answers
    /// without re-gathering.
    fn wait_sub(&self, sub: ShardedSub) -> Result<ShardedAnswer> {
        let mut gather = sub.gather.lock().unwrap_or_else(PoisonError::into_inner);
        while gather.answers.len() <= sub.index {
            let answer = self.gather_next(&mut gather);
            gather.answers.push(answer);
        }
        gather.answers[sub.index].clone()
    }

    fn submit_ext(&self, ext: ExtremeQuery) -> Result<ExtremeOutcome> {
        // Extreme fragments carry no allocation barrier and resolve
        // blocking right here. Every shard's fragment is written before
        // any reply is read, so the shards select concurrently; the
        // shard-local MIN/MAX folds are combined exactly (integer
        // domain), reproducing the 1-shard post-processing bit-for-bit.
        obs::counter_add(obs::names::SHARD_QUERIES, 1);
        let spec = ExtremeFragmentSpec {
            dim: ext.dim,
            extreme: ext.extreme,
            epsilon: ext.epsilon,
            occurrence: self.inner.occurrences.next(extreme_content_hash(&ext)),
        };
        let mut replies = self
            .inner
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| shard.extreme(&spec).map_err(|e| self.shard_error(s, e)))
            .collect::<Result<Vec<_>>>()?;
        let mut value: Option<Value> = None;
        let mut execution = Duration::ZERO;
        for (s, reply) in replies.iter_mut().enumerate() {
            let (v, t) = reply.answer().map_err(|e| self.shard_error(s, e))?;
            execution = execution.max(t);
            value = Some(match (value, ext.extreme) {
                (None, _) => v,
                (Some(a), Extreme::Max) => a.max(v),
                (Some(a), Extreme::Min) => a.min(v),
            });
        }
        sleep_until(replies.iter().filter_map(|r| r.ready_at()).max());
        Ok(ExtremeOutcome {
            value: value.expect("coordinator has at least one shard"),
            execution,
            network: extreme_network(self.inner.config.cost_model),
        })
    }

    fn wait_ext(&self, ext: ExtremeOutcome) -> Result<ExtremeOutcome> {
        Ok(ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionPlan, ShardedSession};
    use fedaqp_model::{Aggregate, DerivedStatistic, Dimension, Domain, Range};
    use fedaqp_smc::CostModel;

    /// Two dimensions: `x` (clustered per provider, so the optimizer has
    /// real bounds to prune on) and a 5-value `cat` to group by.
    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::new("x", Domain::new(0, 999).unwrap()),
            Dimension::new("cat", Domain::new(0, 4).unwrap()),
        ])
        .unwrap()
    }

    /// Provider `p` holds `x ∈ [250p, 250p + 249]`: a filter on the low
    /// band prunes providers 1–3 via metadata alone.
    fn partitions() -> Vec<Vec<Row>> {
        (0..4)
            .map(|p| {
                (0..600)
                    .map(|i| {
                        let x = (p * 250 + (i * 7) % 250) as i64;
                        Row::cell(vec![x, (i % 5) as i64], 1 + (i % 3) as u64)
                    })
                    .collect()
            })
            .collect()
    }

    fn config(seed: u64) -> FederationConfig {
        let mut cfg = FederationConfig::paper_default(50);
        cfg.n_min = 3;
        cfg.cost_model = CostModel::zero();
        cfg.epsilon = 4.0;
        cfg.seed = seed;
        cfg
    }

    fn count(lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    /// Every plan kind the compiler knows, including one whose filter
    /// prunes three of the four providers (so the byte-identity claim
    /// covers the optimizer's pruned-provider path too).
    fn plans() -> Vec<QueryPlan> {
        vec![
            QueryPlan::Scalar {
                query: count(100, 900),
                sampling_rate: 0.3,
                epsilon: 2.0,
                delta: 1e-3,
            },
            QueryPlan::Scalar {
                query: count(0, 240),
                sampling_rate: 0.3,
                epsilon: 2.0,
                delta: 1e-3,
            },
            QueryPlan::Derived {
                query: count(50, 800),
                statistic: DerivedStatistic::StdDev,
                sampling_rate: 0.25,
                epsilon: 3.0,
                delta: 1e-3,
            },
            QueryPlan::GroupBy {
                base: count(0, 999),
                statistic: None,
                group_dim: 1,
                threshold: 0.0,
                sampling_rate: 0.3,
                epsilon: 10.0,
                delta: 1e-3,
            },
            QueryPlan::GroupBy {
                base: count(0, 999),
                statistic: Some(DerivedStatistic::Average),
                group_dim: 1,
                threshold: 0.0,
                sampling_rate: 0.3,
                epsilon: 12.0,
                delta: 1e-3,
            },
            QueryPlan::Extreme {
                dim: 0,
                extreme: Extreme::Max,
                epsilon: 50.0,
            },
        ]
    }

    #[test]
    fn sharded_answers_are_byte_identical_across_shard_counts() {
        for seed in [0xFEDA_u64, 7] {
            // The 1-engine ground truth: the whole plan sequence on one
            // pool, in order (the order matters — the occurrence ledger
            // advances per content hash).
            let reference: Vec<PlanAnswer> =
                Federation::build(config(seed), schema(), partitions())
                    .unwrap()
                    .with_engine(|e| {
                        plans()
                            .iter()
                            .map(|p| e.run_plan(p))
                            .collect::<Result<Vec<_>>>()
                    })
                    .unwrap();
            for n_shards in [1usize, 2, 4] {
                let coordinator =
                    ShardedFederation::in_process(config(seed), schema(), partitions(), n_shards)
                        .unwrap();
                for (plan, expected) in plans().iter().zip(&reference) {
                    let got = coordinator.run_plan(plan).unwrap();
                    assert_eq!(
                        got.result, expected.result,
                        "seed {seed:#x}, {n_shards} shards, plan {plan:?}"
                    );
                    assert_eq!(got.cost, expected.cost);
                }
                coordinator.shutdown();
            }
        }
    }

    #[test]
    fn unshardable_configurations_are_rejected() {
        let mut smc = config(1);
        smc.release_mode = ReleaseMode::Smc;
        assert!(matches!(
            ShardedFederation::in_process(smc, schema(), partitions(), 2),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            ShardedFederation::in_process(config(1), schema(), partitions(), 0),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            ShardedFederation::in_process(config(1), schema(), partitions(), 5),
            Err(CoreError::BadConfig(_))
        ));
    }

    /// A shard whose engine is unreachable: every fragment fails the way
    /// the wire client fails when the TCP connect is refused.
    struct DeadShard {
        n: usize,
    }

    impl ShardBackend for DeadShard {
        fn n_providers(&self) -> usize {
            self.n
        }

        fn bounds(&self) -> Vec<ProviderBounds> {
            vec![ProviderBounds::new(vec![Some((0, 999)), Some((0, 4))], 1); self.n]
        }

        fn begin(&self, _specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>> {
            Err(CoreError::ShardUnavailable {
                shard: 0,
                reason: "connection refused",
            })
        }

        fn extreme(&self, _spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>> {
            Err(CoreError::ShardUnavailable {
                shard: 0,
                reason: "connection refused",
            })
        }
    }

    #[test]
    fn dead_shard_yields_typed_error_and_keeps_the_charge() {
        // Shard 0 is a live two-provider engine; shard 1 refuses.
        let mut live_cfg = config(0xFEDA);
        live_cfg.n_providers = 2;
        let live_partitions: Vec<Vec<Row>> = partitions().into_iter().take(2).collect();
        let live = FederationEngine::start(
            Federation::build(live_cfg, schema(), live_partitions).unwrap(),
        );
        let coordinator = ShardedFederation::from_backends(
            config(0xFEDA),
            schema(),
            vec![Box::new(live.handle()), Box::new(DeadShard { n: 2 })],
        )
        .unwrap();
        let session =
            ShardedSession::open(coordinator, 100.0, 0.5, SessionPlan::PayAsYouGo).unwrap();
        let plan = QueryPlan::Scalar {
            query: count(100, 900),
            sampling_rate: 0.3,
            epsilon: 2.0,
            delta: 1e-3,
        };
        let err = match session.submit_plan(&plan) {
            Err(e) => e,
            Ok(_) => panic!("a dead shard must fail the plan"),
        };
        assert_eq!(
            err,
            CoreError::ShardUnavailable {
                shard: 1,
                reason: "connection refused",
            },
            "the coordinator rebinds the error to its own shard index"
        );
        // Fail-closed: the whole plan charge stays on the ledger even
        // though no answer was released.
        assert!((session.spent().eps - 2.0).abs() < 1e-12);
        assert!((session.spent().delta - 1e-3).abs() < 1e-12);
        // The live shard's begun fragment was aborted on drop, so its
        // queued turns skip and the pool shuts down cleanly.
        live.shutdown();
    }

    /// A live shard behind a simulated link: every data-bearing reply
    /// will have arrived `LINK` after it was read.
    struct SlowLinkShard {
        engine: EngineHandle,
        reads: Arc<Mutex<Vec<Instant>>>,
    }

    struct SlowLinkFragment {
        inner: Box<dyn FragmentBatch>,
        reads: Arc<Mutex<Vec<Instant>>>,
        ready_at: Option<Instant>,
    }

    const LINK: Duration = Duration::from_millis(100);

    impl SlowLinkFragment {
        fn read(&mut self) {
            let now = Instant::now();
            self.reads.lock().unwrap().push(now);
            self.ready_at = Some(now + LINK);
        }
    }

    impl ShardBackend for SlowLinkShard {
        fn n_providers(&self) -> usize {
            ShardBackend::n_providers(&self.engine)
        }

        fn bounds(&self) -> Vec<ProviderBounds> {
            ShardBackend::bounds(&self.engine)
        }

        fn begin(&self, specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>> {
            Ok(Box::new(SlowLinkFragment {
                inner: self.engine.begin(specs)?,
                reads: Arc::clone(&self.reads),
                ready_at: None,
            }))
        }

        fn extreme(&self, spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>> {
            self.engine.extreme(spec)
        }
    }

    impl FragmentBatch for SlowLinkFragment {
        fn summaries(&mut self) -> Result<Vec<FragmentSummaries>> {
            let summaries = self.inner.summaries()?;
            self.read();
            Ok(summaries)
        }

        fn allocate(&mut self, allocations: &[Vec<u64>]) -> Result<()> {
            self.inner.allocate(allocations)
        }

        fn partial(&mut self) -> Result<FragmentPartial> {
            let partial = self.inner.partial()?;
            self.read();
            Ok(partial)
        }

        fn ready_at(&self) -> Option<Instant> {
            self.ready_at
        }
    }

    /// Simulated links are waited out once per gather, for the latest
    /// arrival — never between two shards' reads, which would add the
    /// links up instead of overlapping them.
    #[test]
    fn simulated_links_are_slept_once_per_gather_not_once_per_shard() {
        let reads = Arc::new(Mutex::new(Vec::new()));
        let mut engines = Vec::new();
        let mut shards: Vec<Box<dyn ShardBackend>> = Vec::new();
        let mut shard_partitions = partitions().into_iter();
        for s in 0..2u64 {
            let mut cfg = config(0xFEDA);
            cfg.n_providers = 2;
            cfg.provider_lane_base = 2 * s;
            let engine = FederationEngine::start(
                Federation::build(cfg, schema(), shard_partitions.by_ref().take(2).collect())
                    .unwrap(),
            );
            shards.push(Box::new(SlowLinkShard {
                engine: engine.handle(),
                reads: Arc::clone(&reads),
            }));
            engines.push(engine);
        }
        let coordinator =
            ShardedFederation::from_backends(config(0xFEDA), schema(), shards).unwrap();
        let plan = plans().swap_remove(0);
        let start = Instant::now();
        let sharded = coordinator.run_plan(&plan).unwrap();
        let elapsed = start.elapsed();
        // Two gathers (summaries, partials), each behind one link time.
        assert!(elapsed >= 2 * LINK, "{elapsed:?}");
        let reads = reads.lock().unwrap();
        assert_eq!(reads.len(), 4, "two shards, two data-bearing replies each");
        for gather in reads.chunks(2) {
            assert!(gather[1] - gather[0] < LINK, "slept between shards");
        }
        // The link delays answers; it does not change them.
        let unsharded = Federation::build(config(0xFEDA), schema(), partitions())
            .unwrap()
            .with_engine(|e| e.run_plan(&plan))
            .unwrap();
        assert_eq!(sharded.result, unsharded.result);
        for engine in engines {
            engine.shutdown();
        }
    }

    /// Two owned two-provider engines holding `partitions()` in order, as
    /// the 2-shard in-process coordinator builds them.
    fn two_engines() -> Vec<FederationEngine> {
        let mut shard_partitions = partitions().into_iter();
        (0..2u64)
            .map(|s| {
                let mut cfg = config(0xFEDA);
                cfg.n_providers = 2;
                cfg.provider_lane_base = 2 * s;
                FederationEngine::start(
                    Federation::build(cfg, schema(), shard_partitions.by_ref().take(2).collect())
                        .unwrap(),
                )
            })
            .collect()
    }

    /// A live shard that logs when the coordinator sends it an extreme
    /// fragment and when it reads the reply.
    struct LoggedShard {
        shard: usize,
        engine: EngineHandle,
        log: Arc<Mutex<Vec<String>>>,
    }

    struct LoggedReply {
        shard: usize,
        inner: Box<dyn ExtremeReply>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl ShardBackend for LoggedShard {
        fn n_providers(&self) -> usize {
            ShardBackend::n_providers(&self.engine)
        }

        fn bounds(&self) -> Vec<ProviderBounds> {
            ShardBackend::bounds(&self.engine)
        }

        fn begin(&self, specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>> {
            self.engine.begin(specs)
        }

        fn extreme(&self, spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>> {
            self.log
                .lock()
                .unwrap()
                .push(format!("send {}", self.shard));
            Ok(Box::new(LoggedReply {
                shard: self.shard,
                inner: self.engine.extreme(spec)?,
                log: Arc::clone(&self.log),
            }))
        }
    }

    impl ExtremeReply for LoggedReply {
        fn answer(&mut self) -> Result<(Value, Duration)> {
            self.log
                .lock()
                .unwrap()
                .push(format!("read {}", self.shard));
            self.inner.answer()
        }
    }

    /// MIN/MAX scatters before it gathers: every shard has its fragment
    /// before the first reply is read, and the fold is the 1-shard one.
    #[test]
    fn extreme_fragments_reach_every_shard_before_any_reply_is_read() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let engines = two_engines();
        let shards: Vec<Box<dyn ShardBackend>> = engines
            .iter()
            .enumerate()
            .map(|(shard, engine)| {
                Box::new(LoggedShard {
                    shard,
                    engine: engine.handle(),
                    log: Arc::clone(&log),
                }) as Box<dyn ShardBackend>
            })
            .collect();
        let coordinator =
            ShardedFederation::from_backends(config(0xFEDA), schema(), shards).unwrap();
        let plan = plans().swap_remove(5);
        let sharded = coordinator.run_plan(&plan).unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            ["send 0", "send 1", "read 0", "read 1"]
        );
        let unsharded = Federation::build(config(0xFEDA), schema(), partitions())
            .unwrap()
            .with_engine(|e| e.run_plan(&plan))
            .unwrap();
        assert_eq!(sharded.result, unsharded.result);
        for engine in engines {
            engine.shutdown();
        }
    }

    /// A live shard whose fourth fragment partial is held back until a
    /// gate opens.
    struct GatedShard {
        engine: EngineHandle,
        gate: Arc<(Mutex<bool>, std::sync::Condvar)>,
    }

    struct GatedBatch {
        inner: Box<dyn FragmentBatch>,
        gathered: usize,
        gate: Arc<(Mutex<bool>, std::sync::Condvar)>,
    }

    impl ShardBackend for GatedShard {
        fn n_providers(&self) -> usize {
            ShardBackend::n_providers(&self.engine)
        }

        fn bounds(&self) -> Vec<ProviderBounds> {
            ShardBackend::bounds(&self.engine)
        }

        fn begin(&self, specs: &[FragmentSpec]) -> Result<Box<dyn FragmentBatch>> {
            Ok(Box::new(GatedBatch {
                inner: self.engine.begin(specs)?,
                gathered: 0,
                gate: Arc::clone(&self.gate),
            }))
        }

        fn extreme(&self, spec: &ExtremeFragmentSpec) -> Result<Box<dyn ExtremeReply>> {
            self.engine.extreme(spec)
        }
    }

    impl FragmentBatch for GatedBatch {
        fn summaries(&mut self) -> Result<Vec<FragmentSummaries>> {
            self.inner.summaries()
        }

        fn allocate(&mut self, allocations: &[Vec<u64>]) -> Result<()> {
            self.inner.allocate(allocations)
        }

        fn partial(&mut self) -> Result<FragmentPartial> {
            if self.gathered == 3 {
                let (open, cond) = &*self.gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cond.wait(open).unwrap();
                }
            }
            self.gathered += 1;
            self.inner.partial()
        }
    }

    /// An online plan is one batch, yet it still streams: its first
    /// snapshot is delivered while its last round's partials are held
    /// back (the hook that sees round 1 is what releases them), and the
    /// rounds are byte-identical to the 1-engine run.
    #[test]
    fn an_online_plan_through_a_coordinator_streams_before_its_last_round() {
        let plan = QueryPlan::Online {
            query: count(100, 900),
            sampling_rate: 0.4,
            epsilon: 4.0,
            delta: 1e-3,
            rounds: 4,
        };
        let unsharded = Federation::build(config(0xFEDA), schema(), partitions())
            .unwrap()
            .with_engine(|e| e.run_plan(&plan))
            .unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let streamed = plan.clone();
        std::thread::spawn(move || {
            let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
            let engines = two_engines();
            let shards: Vec<Box<dyn ShardBackend>> = engines
                .iter()
                .map(|engine| {
                    Box::new(GatedShard {
                        engine: engine.handle(),
                        gate: Arc::clone(&gate),
                    }) as Box<dyn ShardBackend>
                })
                .collect();
            let coordinator =
                ShardedFederation::from_backends(config(0xFEDA), schema(), shards).unwrap();
            let answer = coordinator
                .submit_plan(&streamed)
                .unwrap()
                .wait_streaming(|snapshot| {
                    if snapshot.round == 1 {
                        *gate.0.lock().unwrap() = true;
                        gate.1.notify_all();
                    }
                })
                .unwrap();
            for engine in engines {
                engine.shutdown();
            }
            done.send(answer).unwrap();
        });
        let sharded = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the first snapshot waited for the last round");
        assert_eq!(sharded.result, unsharded.result);
    }

    /// An in-process batch checks an allocation's whole shape before any
    /// fragment gets its slice: refused for a short second slice, it holds
    /// no allocation, so the right one is taken afterwards and releases
    /// what a batch allocated right the first time releases.
    #[test]
    fn a_refused_allocation_leaves_every_fragment_unallocated() {
        let fed = Federation::build(config(0xFEDA), schema(), partitions()).unwrap();
        let partials = |refuse_first: bool| {
            fed.with_engine(|engine| {
                let budget = engine.default_budget().unwrap();
                let specs: Vec<FragmentSpec> = [count(100, 900), count(0, 500)]
                    .into_iter()
                    .map(|query| FragmentSpec {
                        query,
                        sampling_rate: 0.3,
                        budget,
                        occurrence: 0,
                    })
                    .collect();
                let mut batch = ShardBackend::begin(engine, &specs).unwrap();
                let aggregator = Aggregator::new(0, CostModel::zero());
                let allocations: Vec<Vec<u64>> = batch
                    .summaries()
                    .unwrap()
                    .iter()
                    .map(|(summaries, _)| aggregator.allocate(summaries, 0.3).unwrap())
                    .collect();
                if refuse_first {
                    let mut short = allocations.clone();
                    short[1].pop();
                    assert_eq!(
                        batch.allocate(&short),
                        Err(CoreError::BadConfig(
                            "fragment allocation length does not match shard providers"
                        ))
                    );
                }
                batch.allocate(&allocations).unwrap();
                [batch.partial().unwrap().rows, batch.partial().unwrap().rows]
            })
        };
        assert_eq!(partials(true), partials(false));
    }

    #[test]
    fn sharded_session_charges_like_a_concurrent_session() {
        let coordinator =
            ShardedFederation::in_process(config(0xFEDA), schema(), partitions(), 2).unwrap();
        let session =
            ShardedSession::open(coordinator.clone(), 100.0, 0.5, SessionPlan::PayAsYouGo).unwrap();
        let answer = session.query(&count(100, 900), 0.3).unwrap();
        assert_eq!(answer.cost, session.per_query_cost());
        assert_eq!(session.spent(), session.per_query_cost());
        assert_eq!(session.queries_answered(), 1);
        // A rejected submission (bad rate) touches no data and costs
        // nothing; neither does EXPLAIN.
        assert!(session.submit(&count(100, 900), 1.5).is_err());
        session
            .explain_plan(&QueryPlan::Scalar {
                query: count(100, 900),
                sampling_rate: 0.3,
                epsilon: 2.0,
                delta: 1e-3,
            })
            .unwrap();
        assert_eq!(session.spent(), session.per_query_cost());
        coordinator.shutdown();
    }

    #[test]
    fn sharded_explain_matches_the_engine() {
        // EXPLAIN reads only the concatenated metadata snapshot, so the
        // coordinator must reach exactly the 1-engine decisions —
        // including pruning three providers on the low band.
        let explained: Vec<PlanExplanation> = plans()
            .iter()
            .map(|p| {
                Federation::build(config(0xFEDA), schema(), partitions())
                    .unwrap()
                    .with_engine(|e| e.explain_plan(p))
                    .unwrap()
            })
            .collect();
        let coordinator =
            ShardedFederation::in_process(config(0xFEDA), schema(), partitions(), 4).unwrap();
        for (plan, expected) in plans().iter().zip(&explained) {
            assert_eq!(
                &coordinator.explain_plan(plan).unwrap(),
                expected,
                "{plan:?}"
            );
        }
        coordinator.shutdown();
    }
}
