//! The concurrent multi-query federation engine — the one implementation
//! of protocol steps 1–7.
//!
//! A [`crate::Federation`] is data at rest; every query runs here, as a
//! *job* of per-provider *turns* — a private job's summary turn (steps
//! 1–2) and execute turn (steps 4–6) around the allocation barrier
//! (step 3) that synchronizes only its own job. Two engines hand out the
//! same [`EngineHandle`] and differ only in which thread runs a turn:
//!
//! - An **owned** engine ([`FederationEngine`], a long-lived service)
//!   keeps a persistent per-provider worker pool — one OS thread per data
//!   provider, alive across queries — whose queues carry *turns*, not
//!   jobs, so one provider interleaves the phases of many in-flight jobs.
//! - A **scoped** engine ([`crate::Federation::with_engine`], sharing the
//!   providers' `Arc`) spawns no worker: a job runs to completion on the
//!   first thread that waits for it, every provider's turn in id order,
//!   and any other waiter parks until it lands. Nothing runs at submission,
//!   so a job nobody waits for costs nothing, and concurrency comes from
//!   the analysts' own threads.
//!
//! Under either engine, a turn whose cluster read is large fans out for
//! the length of that one read: [`fedaqp_storage::ClusterStore::evaluate_each`]
//! shares it with the process's scan helpers beside the turn's own thread,
//! never waits for them, and puts each cluster's count back in its place,
//! so the released bytes do not depend on it.
//!
//! Owned-engine architecture:
//!
//! ```text
//!  analysts ──submit──▶ EngineHandle ──summary turns──▶ provider queues
//!     ▲                                                   │ carry stays in the job
//!     │                                                   ▼
//!     │        last summary (or the coordinator) lands the allocation
//!     │                                                   │ execute turns queued
//!     └──── PendingAnswer::wait ◀──(job fan-in)───────────┘ finalize
//! ```
//!
//! **No worker ever parks.** A summary turn leaves its carry (covering
//! set, RNG lane mid-stream) in the job and returns; whoever lands the
//! allocation — the last summary in, or the coordinator's, through
//! [`crate::FragmentBatch::allocate`], for a shard's fragment —
//! queues every un-pruned provider's execute turn (a worker that lands it
//! runs its own at once). A worker only ever waits on its own queue, so
//! no queue order can deadlock the pool: a shard can hold any number of
//! fragments whose allocations are still being solved elsewhere.
//!
//! Workers and waiting threads call the same turn functions, contained by
//! the same panic guard, so where a turn ran never changes what it
//! released.
//!
//! Determinism: every `(query, provider)` pair draws from an RNG derived
//! from `(config.seed, job content, occurrence, provider id)`, where
//! *occurrence* counts how many times this exact job content has been
//! submitted on this engine (an engine — scoped or owned — is the
//! lifetime of its occurrence ledger). Distinct requests therefore have noise
//! streams that are fully determined by their content — independent of
//! global submission order, of which connection carried them, and of how
//! queries interleave on the shared providers — so a seeded workload of
//! distinct queries is bit-reproducible even when raced across analyst
//! connections. Repeated *identical* requests advance their occurrence
//! counter and draw fresh noise each time (averaging repeats must not be
//! free), while two *different* requests never share a stream:
//! differencing two different releases always faces independent draws.
//!
//! Privacy: each query runs under a validated [`QueryBudget`] and costs
//! exactly `budget.cost()`; session-level budgets are
//! enforced by [`crate::session::ConcurrentSession`], whose
//! [`fedaqp_dp::SharedAccountant`] makes check-and-charge atomic so racing
//! queries cannot jointly overspend `(ξ, ψ)`.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedaqp_dp::{PrivacyCost, QueryBudget};
use fedaqp_model::{Extreme, RangeQuery, Schema};
use fedaqp_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregator::Aggregator;
use crate::config::{AllocationPolicy, FederationConfig, ReleaseMode};
use crate::federation::{Federation, PlainAnswer};
use crate::optimizer::MetaSnapshot;
use crate::plan::{check_sub, ExtremeQuery, SubQuery};
use crate::protocol::{
    extreme_network, private_network, query_bytes, LocalOutcome, PhaseTimings, ProviderSummary,
};
use crate::provider::{DataProvider, PreparedQuery, ProviderShadow};
use crate::shard::FragmentSpec;
use crate::{CoreError, Result};

/// SplitMix64 finalizer over `(seed, index, lane)` — the per-job RNG
/// derivation. `lane` is the provider id (or [`AGGREGATOR_LANE`]).
fn derive_seed(seed: u64, index: u64, lane: u64) -> u64 {
    let mut z = seed
        ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (lane.wrapping_add(1)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The error of a submission to (or a turn queued on) a shut-down pool.
const SHUT_DOWN: CoreError = CoreError::ProtocolViolation("engine is shut down");

/// RNG lane of the per-job aggregator (must differ from any provider id).
const AGGREGATOR_LANE: u64 = u64::MAX;

/// Derivation lane that folds a job's content hash into its seed (a
/// separate derivation *level* from the per-provider lanes, which are
/// applied to the result).
const CONTENT_LANE: u64 = u64::MAX - 1;

/// FNV-1a accumulation of `bytes` into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One query of a [`QueryBatch`].
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The range query.
    pub query: RangeQuery,
    /// The sampling rate `sr ∈ (0, 1)`.
    pub sampling_rate: f64,
}

/// An ordered set of queries submitted together. Noise is derived from
/// each query's content and occurrence count, so `run_batch` and
/// `run_batch_serial` are comparable draw-for-draw; only the relative
/// order of *repeated identical* queries affects which draw each one gets.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    specs: Vec<QuerySpec>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one query at `sampling_rate`.
    pub fn push(&mut self, query: RangeQuery, sampling_rate: f64) {
        self.specs.push(QuerySpec {
            query,
            sampling_rate,
        });
    }

    /// The batch contents, in submission order.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl FromIterator<QuerySpec> for QueryBatch {
    fn from_iter<T: IntoIterator<Item = QuerySpec>>(iter: T) -> Self {
        Self {
            specs: iter.into_iter().collect(),
        }
    }
}

/// The engine's answer to one private query.
///
/// It carries no exact oracle / relative error: the engine is the serving
/// path, and computing the exact answer would scan every provider per
/// query. Experiments that need the oracle ask for it —
/// [`crate::Federation::exact`], or a plain job on the same engine —
/// and compare with [`crate::protocol::relative_error`].
#[derive(Debug, Clone)]
pub struct EngineAnswer {
    /// The DP-released answer.
    pub value: f64,
    /// The `(ε, δ)` charged for this query.
    pub cost: PrivacyCost,
    /// Per-phase latency breakdown (providers run on dedicated servers in
    /// parallel, §6.1: per-provider phases are charged the slowest
    /// provider's time).
    pub timings: PhaseTimings,
    /// Total clusters scanned across providers.
    pub clusters_scanned: usize,
    /// Total covering-set size across providers (`Σ N^Q_i`).
    pub covering_total: usize,
    /// How many providers took the approximate path.
    pub approximated_providers: usize,
    /// The per-provider sample-size allocations.
    pub allocations: Vec<u64>,
    /// Σ of the providers' raw (pre-noise) estimates (simulation-boundary
    /// diagnostic; never released to an analyst).
    pub raw_estimate: f64,
    /// Per-provider smooth sensitivities (simulation-boundary diagnostic).
    pub smooth_ls: Vec<f64>,
    /// 95% confidence half-width of `raw_estimate` from the providers'
    /// Hansen–Hurwitz variances; `None` when any provider's variance was
    /// inestimable (single draw).
    pub ci_halfwidth: Option<f64>,
}

/// What a job asks of the providers.
#[derive(Debug)]
enum JobKind {
    /// The full private protocol.
    Private {
        query: RangeQuery,
        sampling_rate: f64,
        budget: QueryBudget,
    },
    /// A full plain scan (the speed-up baseline), on the same engine.
    Plain { query: RangeQuery },
    /// A private MIN/MAX: per-provider Exponential-mechanism selection
    /// over the dimension's public domain, answered from Algorithm 1
    /// metadata alone (no data scan, no allocation barrier).
    Extreme {
        dim: usize,
        extreme: Extreme,
        epsilon: f64,
    },
}

impl JobKind {
    /// A stable hash of everything that shapes the job's mechanisms —
    /// query ranges, aggregate, sampling rate, and budget.
    ///
    /// Folded into the job seed so that *different* requests never share
    /// a noise stream — differencing two different releases must face
    /// independent draws, not cancelling ones. It also keys the engine's
    /// per-content occurrence counter, which replaces a global submission
    /// index: a request's noise depends only on its content and on how
    /// many identical copies preceded it, never on unrelated traffic, so
    /// concurrent multi-analyst workloads of distinct queries are
    /// bit-reproducible. Repeated identical requests still advance the
    /// counter and draw fresh noise (each is charged, each is noisy).
    fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let put_u64 = |h: &mut u64, v: u64| fnv1a(h, &v.to_le_bytes());
        match self {
            JobKind::Private {
                query,
                sampling_rate,
                budget,
            } => {
                fnv1a(&mut h, &[1, query.aggregate() as u8]);
                for r in query.ranges() {
                    put_u64(&mut h, r.dim as u64);
                    put_u64(&mut h, r.lo as u64);
                    put_u64(&mut h, r.hi as u64);
                }
                put_u64(&mut h, sampling_rate.to_bits());
                put_u64(&mut h, budget.eps_o.to_bits());
                put_u64(&mut h, budget.eps_s.to_bits());
                put_u64(&mut h, budget.eps_e.to_bits());
                put_u64(&mut h, budget.delta.to_bits());
            }
            // Plain scans draw no noise; any constant works.
            JobKind::Plain { .. } => fnv1a(&mut h, &[2]),
            JobKind::Extreme {
                dim,
                extreme,
                epsilon,
            } => {
                fnv1a(&mut h, &[3, matches!(extreme, Extreme::Max) as u8]);
                put_u64(&mut h, *dim as u64);
                put_u64(&mut h, epsilon.to_bits());
            }
        }
        h
    }
}

/// What a provider's summary turn hands its execute turn: the step-1
/// covering set and the provider's RNG lane, mid-stream.
type Carry = (PreparedQuery, StdRng);

/// Where a job's provider turns stand.
#[derive(Debug)]
enum Turns {
    /// No thread has run them yet.
    Pending,
    /// A scoped job's waiting thread claimed them; every other waiter
    /// parks on the job's condvar.
    Running,
    /// Summary turns ran: each un-pruned provider's carry waits here for
    /// the allocation — a scoped fragment's all at once, an owned
    /// engine's private job's one per summary turn.
    Summarized(Vec<Option<Carry>>),
}

/// One unit of an owned engine's provider queue: a turn of one job.
#[derive(Debug, Clone, Copy)]
enum Turn {
    /// Steps 1–2 of a private job; the carry stays in the job.
    Summary,
    /// Steps 4–6 of a private job, queued once its allocation landed.
    Execute,
    /// A plain or extreme job's whole turn.
    Single,
}

/// An owned engine's per-provider turn queues; `None` once shut down.
type Queues = RwLock<Option<Vec<Sender<(Arc<JobState>, Turn)>>>>;

/// Mutable per-job progress, guarded by the job mutex.
#[derive(Debug)]
struct JobProgress {
    summaries: Vec<Option<ProviderSummary>>,
    summaries_done: usize,
    allocations: Option<Arc<Vec<u64>>>,
    outcomes: Vec<Option<LocalOutcome>>,
    done: usize,
    error: Option<CoreError>,
    summary_time: Duration,
    allocation_time: Duration,
    execution_time: Duration,
    turns: Turns,
}

/// One in-flight query job, shared between the submitting analyst and
/// whichever threads run its provider turns.
#[derive(Debug)]
pub(crate) struct JobState {
    kind: JobKind,
    index: u64,
    seed: u64,
    /// Who runs this job's turns; set at launch.
    executor: Option<Executor>,
    /// Per-provider pruning verdicts from the engine's public metadata
    /// snapshot (`true` ⇒ provably empty covering set, skip the step-1
    /// walk). Empty when the pruning pass is off. Deliberately *not* part
    /// of [`JobKind::content_hash`]: pruning is derived from the query and
    /// public metadata, so the job's noise streams must not depend on it.
    pruned: Vec<bool>,
    n_providers: usize,
    /// RNG-lane offset for this engine's providers (see
    /// [`FederationConfig::provider_lane_base`]): local provider `id`
    /// draws from lane `lane_base + id`, so a shard holding global
    /// providers `[o, o+k)` reproduces exactly the 1-shard streams.
    lane_base: u64,
    /// When set, step 3 is solved *outside* this engine: the last summary
    /// only wakes the fragment's waiter, and the execute turns run once
    /// [`PendingFragment::provide_allocation`] delivers the coordinator's
    /// globally solved allocation.
    external_allocation: bool,
    allocation_policy: AllocationPolicy,
    release_mode: ReleaseMode,
    cost_model: fedaqp_smc::CostModel,
    progress: Mutex<JobProgress>,
    cond: Condvar,
}

impl JobState {
    fn new(kind: JobKind, index: u64, config: &FederationConfig) -> Self {
        let n = config.n_providers;
        // The job seed mixes the configured seed with the job's content
        // (see [`JobKind::content_hash`]); the per-provider lanes then
        // derive from the result.
        let seed = derive_seed(config.seed, kind.content_hash(), CONTENT_LANE);
        Self {
            kind,
            index,
            seed,
            executor: None,
            pruned: Vec::new(),
            n_providers: n,
            lane_base: config.provider_lane_base,
            external_allocation: false,
            allocation_policy: config.allocation_policy,
            release_mode: config.release_mode,
            cost_model: config.cost_model,
            progress: Mutex::new(JobProgress {
                summaries: vec![None; n],
                summaries_done: 0,
                allocations: None,
                outcomes: vec![None; n],
                done: 0,
                error: None,
                summary_time: Duration::ZERO,
                allocation_time: Duration::ZERO,
                execution_time: Duration::ZERO,
                turns: Turns::Pending,
            }),
            cond: Condvar::new(),
        }
    }

    /// Whether the optimizer pruned provider `id` from this job.
    fn is_pruned(&self, id: usize) -> bool {
        self.pruned.get(id).copied().unwrap_or(false)
    }

    /// Provider `id`'s RNG lane — content-derived, so the draws are the
    /// same whichever thread runs the provider's turn.
    fn provider_rng(&self, id: usize) -> StdRng {
        StdRng::seed_from_u64(derive_seed(
            self.seed,
            self.index,
            self.lane_base.wrapping_add(id as u64),
        ))
    }

    /// The request of a private job.
    fn private(&self) -> (&RangeQuery, f64, &QueryBudget) {
        match &self.kind {
            JobKind::Private {
                query,
                sampling_rate,
                budget,
            } => (query, *sampling_rate, budget),
            _ => unreachable!("only private jobs take summary and execute turns"),
        }
    }

    fn fail(&self, progress: &mut JobProgress, error: CoreError) {
        progress.error.get_or_insert(error);
        self.cond.notify_all();
    }

    /// Locks the job progress, recovering from poisoning: a turn that
    /// panicked mid-job marks the job failed (see [`contain`]), so the
    /// state behind a poisoned lock is still consistent for waiters.
    fn lock_progress(&self) -> MutexGuard<'_, JobProgress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Condvar::wait`] with the same poison recovery.
    fn wait_on<'a>(&self, guard: MutexGuard<'a, JobProgress>) -> MutexGuard<'a, JobProgress> {
        self.cond
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `ready` holds or the job failed, returning the locked
    /// progress. On a scoped engine the first thread here claims the
    /// job's turns and runs them itself ([`run_scoped`]); any other
    /// waiter parks on the condvar until they land.
    fn settle(&self, ready: impl Fn(&JobProgress) -> bool) -> MutexGuard<'_, JobProgress> {
        let mut progress = self.lock_progress();
        while progress.error.is_none() && !ready(&progress) {
            match self.claim(&mut progress) {
                Some(claimed) => {
                    drop(progress);
                    self.run_here(claimed);
                    progress = self.lock_progress();
                }
                None => progress = self.wait_on(progress),
            }
        }
        progress
    }

    /// Claims the job's runnable turns for the calling thread: the whole
    /// job when nobody has started it, or a summarized fragment's execute
    /// turns once its allocation landed. `None` when there is nothing to
    /// run here — an owned engine's job, or turns another thread holds.
    fn claim(&self, progress: &mut JobProgress) -> Option<Turns> {
        if !matches!(self.executor, Some(Executor::Scope(_))) {
            return None;
        }
        let runnable = match &progress.turns {
            Turns::Pending => true,
            Turns::Summarized(_) => progress.allocations.is_some(),
            Turns::Running => false,
        };
        runnable.then(|| std::mem::replace(&mut progress.turns, Turns::Running))
    }

    /// Runs claimed turns on the calling thread, over the providers the
    /// job's scoped engine was built on.
    fn run_here(&self, claimed: Turns) {
        let Some(Executor::Scope(providers)) = &self.executor else {
            unreachable!("only scoped jobs are claimed");
        };
        contain(self, || run_scoped(self, providers, claimed));
    }
}

/// Runs one job's provider turns, failing the job with the typed
/// [`CoreError::ProtocolViolation`] if they panic — the one containment
/// for pool workers and waiting threads alike, so a panicking provider
/// fails a query the same way wherever its turn ran.
fn contain(job: &JobState, turns: impl FnOnce()) {
    // The turns mutate only the mutex-guarded JobProgress (consistent at
    // every unlock) and read providers immutably, so resuming after an
    // unwind observes no broken invariants.
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(turns)).is_err() {
        let mut progress = job.lock_progress();
        job.fail(
            &mut progress,
            CoreError::ProtocolViolation("provider worker panicked mid-query"),
        );
    }
}

/// Runs a scoped job's provider turns on the waiting thread, in provider
/// id order: every un-pruned provider's steps 1–2, the step-3 allocation
/// (solved by the last summary in, as on a pool — or, for a fragment,
/// delivered by the coordinator), then every provider's steps 4–6. Each
/// turn draws from its own content-derived lane and is timed alone, so
/// the released bytes and the slowest-provider phase timings are the
/// pool's.
fn run_scoped(job: &JobState, providers: &[DataProvider], claimed: Turns) {
    let carried = match claimed {
        Turns::Summarized(carried) => carried,
        _ if !matches!(job.kind, JobKind::Private { .. }) => {
            providers.iter().for_each(|p| single_turn(job, p));
            return;
        }
        _ => providers
            .iter()
            .map(|p| (!job.is_pruned(p.id())).then(|| summary_turn(job, p).0))
            .collect(),
    };
    let allocations = {
        let mut progress = job.lock_progress();
        if progress.error.is_some() {
            return;
        }
        match &progress.allocations {
            Some(allocations) => Arc::clone(allocations),
            None => {
                progress.turns = Turns::Summarized(carried);
                return;
            }
        }
    };
    for (provider, carry) in providers.iter().zip(carried) {
        if let Some(carry) = carry {
            execute_turn(job, provider, carry, allocations[provider.id()]);
        }
    }
}

/// One turn of a job on an owned engine's provider worker. No turn waits
/// for another: a summary turn leaves its carry in the job and returns,
/// and the execute turns are queued by whoever lands the allocation
/// ([`queue`]). A failed or aborted job's turns return at once.
fn run_turn(job: &Arc<JobState>, provider: &DataProvider, turn: Turn) {
    let id = provider.id();
    match turn {
        Turn::Single => single_turn(job, provider),
        Turn::Summary => {
            if job.lock_progress().error.is_some() {
                return;
            }
            let (carry, due) = summary_turn(job, provider);
            // Stored after the delivery, yet before this provider's own
            // execute turn can run: that turn queues behind this one, on
            // this thread.
            if let Turns::Summarized(carried) = &mut job.lock_progress().turns {
                carried[id] = Some(carry);
            }
            if due {
                // Every other provider's execute turn is queued; this
                // one's runs here, now, without a trip through its own
                // queue.
                if queue(job, Turn::Execute, Some(id)).is_ok() {
                    run_turn(job, provider, Turn::Execute);
                }
            }
        }
        Turn::Execute => {
            let claimed = {
                let mut progress = job.lock_progress();
                let allocation = progress.allocations.as_ref().map(|a| a[id]);
                let failed = progress.error.is_some();
                match &mut progress.turns {
                    Turns::Summarized(carried) if !failed => carried[id].take().zip(allocation),
                    _ => None,
                }
            };
            if let Some((carry, allocation)) = claimed {
                execute_turn(job, provider, carry, allocation);
            }
        }
    }
}

/// Queues `turn` of `job` on every un-pruned provider's worker but
/// `except` — nothing on a scoped engine, whose waiting threads run the
/// turns. A shut-down pool or a dead worker fails the job instead, so no
/// waiter waits on a turn that will never run.
fn queue(job: &Arc<JobState>, turn: Turn, except: Option<usize>) -> Result<()> {
    let Some(Executor::Pool(queues)) = &job.executor else {
        return Ok(());
    };
    let queues = queues.read().unwrap_or_else(PoisonError::into_inner);
    let queued = match queues.as_ref() {
        None => Err(SHUT_DOWN),
        Some(senders) => senders
            .iter()
            .enumerate()
            .filter(|&(id, _)| !job.is_pruned(id) && Some(id) != except)
            .try_for_each(|(_, sender)| {
                sender
                    .send((Arc::clone(job), turn))
                    .map_err(|_| CoreError::ProtocolViolation("engine worker terminated"))?;
                obs::gauge_inc(obs::names::ENGINE_QUEUE_DEPTH);
                Ok(())
            }),
    };
    if let Err(error) = &queued {
        job.fail(&mut job.lock_progress(), error.clone());
    }
    queued
}

/// Steps 1–2 of a private job for one provider: prepare, then the DP
/// summary, delivered into the job. Returns the provider's carry, and
/// whether this summary landed the job's allocation (see
/// [`deliver_summary`]). A provider the optimizer pruned never takes this
/// turn — the engine answers its noise-only turn inline at submission
/// (see [`EngineHandle::answer_for_pruned`]).
fn summary_turn(job: &JobState, provider: &DataProvider) -> (Carry, bool) {
    let (query, sampling_rate, budget) = job.private();
    let id = provider.id();
    let mut rng = job.provider_rng(id);
    let t = Instant::now();
    let prep = provider.prepare(query);
    let summary = provider.summary_with_rng(query, &prep, budget.eps_o, &mut rng);
    let due = deliver_summary(job, id, summary, t.elapsed(), sampling_rate);
    ((prep, rng), due)
}

/// Steps 4–6 of a private job for one provider, once its allocation is
/// known: local execution and release, delivered into the job.
fn execute_turn(job: &JobState, provider: &DataProvider, carry: Carry, allocation: u64) {
    let (query, _, budget) = job.private();
    let (prep, mut rng) = carry;
    let release_local = job.release_mode == ReleaseMode::LocalDp;
    let t = Instant::now();
    let outcome =
        provider.execute_with_rng(query, &prep, allocation, budget, release_local, &mut rng);
    deliver_outcome(job, provider.id(), outcome, t.elapsed());
}

/// A plain or extreme job's whole turn for one provider (neither has an
/// allocation barrier).
fn single_turn(job: &JobState, provider: &DataProvider) {
    let id = provider.id();
    let mut rng = job.provider_rng(id);
    match &job.kind {
        JobKind::Plain { query } => {
            let t = Instant::now();
            let value = provider.exact_answer(query);
            let elapsed = t.elapsed();
            let mut progress = job.lock_progress();
            let n_clusters = provider.store().n_clusters();
            progress.outcomes[id] = Some(LocalOutcome {
                provider: id,
                released: None,
                estimate: value as f64,
                smooth_ls: 0.0,
                variance: Some(0.0),
                approximated: false,
                clusters_scanned: n_clusters,
                n_covering: n_clusters,
            });
            progress.execution_time = progress.execution_time.max(elapsed);
            progress.done += 1;
            job.cond.notify_all();
        }
        JobKind::Extreme {
            dim,
            extreme,
            epsilon,
        } => {
            // One EM selection from metadata; no allocation barrier, no
            // data touched. The selection is parked in the outcome's
            // `estimate` slot for the waiter to combine.
            let t = Instant::now();
            let selected =
                crate::extremes::provider_select(provider, *dim, *extreme, *epsilon, &mut rng);
            let elapsed = t.elapsed();
            let mut progress = job.lock_progress();
            progress.execution_time = progress.execution_time.max(elapsed);
            match selected {
                Ok(value) => {
                    progress.outcomes[id] = Some(LocalOutcome {
                        provider: id,
                        released: None,
                        estimate: value as f64,
                        smooth_ls: 0.0,
                        variance: None,
                        approximated: false,
                        clusters_scanned: 0,
                        n_covering: 0,
                    })
                }
                Err(e) => job.fail(&mut progress, e),
            }
            progress.done += 1;
            job.cond.notify_all();
        }
        JobKind::Private { .. } => unreachable!("private jobs take summary and execute turns"),
    }
}

/// Delivers provider `id`'s step-2 summary into the job. The last summary
/// in solves the allocation program (Eq. 6) for everyone — the step-3
/// barrier needs no dedicated coordinator thread. Shared by the summary
/// turn and the inline pruned path so both feed the barrier identically.
///
/// Returns whether this summary landed the job's allocation: the job's
/// execute turns are then due, and a pool caller [`queue`]s them.
fn deliver_summary(
    job: &JobState,
    id: usize,
    summary: Result<ProviderSummary>,
    elapsed: Duration,
    sampling_rate: f64,
) -> bool {
    let mut progress = job.lock_progress();
    progress.summary_time = progress.summary_time.max(elapsed);
    match summary {
        Ok(s) => progress.summaries[id] = Some(s),
        Err(e) => job.fail(&mut progress, e),
    }
    progress.summaries_done += 1;
    // ---- Step 3: the last provider in solves the allocation program
    // (Eq. 6) for everyone. ----
    if progress.summaries_done == job.n_providers && progress.error.is_none() {
        if job.external_allocation {
            // A fragment's allocation is solved by the coordinator over
            // *every* shard's summaries: wake the fragment waiter gathering
            // them. The execute turns are due now only if the allocation
            // already landed; otherwise
            // [`PendingFragment::provide_allocation`] queues them.
            job.cond.notify_all();
            return progress.allocations.is_some();
        }
        let summaries: Vec<ProviderSummary> = progress
            .summaries
            .iter()
            .map(|s| s.expect("all summaries delivered"))
            .collect();
        let t = Instant::now();
        let aggregator = Aggregator::new(
            derive_seed(job.seed, job.index, AGGREGATOR_LANE),
            job.cost_model,
        );
        let allocated = aggregator.allocate_under(job.allocation_policy, &summaries, sampling_rate);
        progress.allocation_time = t.elapsed();
        match allocated {
            Ok(a) => {
                progress.allocations = Some(Arc::new(a));
                job.cond.notify_all();
                return true;
            }
            Err(e) => job.fail(&mut progress, e),
        }
    }
    false
}

/// Delivers provider `id`'s steps-4–6 outcome into the job and performs
/// the final `done` bookkeeping that unblocks the waiter.
fn deliver_outcome(job: &JobState, id: usize, outcome: Result<LocalOutcome>, elapsed: Duration) {
    let mut progress = job.lock_progress();
    progress.execution_time = progress.execution_time.max(elapsed);
    match outcome {
        Ok(o) => progress.outcomes[id] = Some(o),
        Err(e) => job.fail(&mut progress, e),
    }
    progress.done += 1;
    job.cond.notify_all();
}

/// The worker loop an owned engine's provider thread runs: drain turns
/// until the engine shuts down and its queue is empty.
///
/// A panic inside the protocol (provider code, or a poisoned job mutex
/// cascading from a sibling worker) is contained per turn ([`contain`]):
/// the job is marked failed so waiting analysts get an error instead of
/// blocking forever, and the worker moves on to its next turn.
fn worker_loop(provider: &DataProvider, turns: Receiver<(Arc<JobState>, Turn)>) {
    while let Ok((job, turn)) = turns.recv() {
        obs::gauge_dec(obs::names::ENGINE_QUEUE_DEPTH);
        obs::gauge_inc(obs::names::ENGINE_WORKERS_BUSY);
        let _busy = ObsGaugeDecOnDrop(obs::names::ENGINE_WORKERS_BUSY);
        contain(&job, || run_turn(&job, provider, turn));
    }
}

/// Decrements the named gauge when dropped — keeps the worker-occupancy
/// gauge honest even when a provider job unwinds.
struct ObsGaugeDecOnDrop(&'static str);

impl Drop for ObsGaugeDecOnDrop {
    fn drop(&mut self) {
        obs::gauge_dec(self.0);
    }
}

/// Per-content submission counts, keyed by [`JobKind::content_hash`]. The
/// job index for a submission is the number of identical submissions that
/// preceded it, so noise derivation is independent of unrelated traffic
/// (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct OccurrenceLedger(Mutex<HashMap<u64, u64>>);

impl OccurrenceLedger {
    fn counts(&self) -> MutexGuard<'_, HashMap<u64, u64>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch-and-increment the count for `key`: the returned index is the
    /// number of identical submissions seen before this one.
    pub(crate) fn next(&self, key: u64) -> u64 {
        let mut counts = self.counts();
        let slot = counts.entry(key).or_insert(0);
        let index = *slot;
        *slot += 1;
        index
    }
}

/// Who runs an engine's jobs; every job holds a clone.
#[derive(Debug, Clone)]
enum Executor {
    /// An owned engine's per-provider worker pool: one turn queue per
    /// provider.
    Pool(Arc<Queues>),
    /// A scoped engine over a snapshot of the providers: no worker threads
    /// of its own; the first thread to wait for a job runs it (a large
    /// cluster read inside a turn still fans out for its own length).
    Scope(Arc<Vec<DataProvider>>),
}

/// Shared interior of [`EngineHandle`].
#[derive(Debug)]
struct HandleInner {
    executor: Executor,
    config: FederationConfig,
    schema: Schema,
    /// Public per-provider pruning bounds, captured at engine start. Read
    /// by the optimizer (pruning, cost estimates, `EXPLAIN`) — offline
    /// Algorithm 1 metadata only, never sampled data.
    snapshot: MetaSnapshot,
    occurrences: OccurrenceLedger,
    /// Public scalar facets of each provider (id, `n_min`, regime, agreed
    /// smooth-sensitivity order, arity, SUM cap) — everything the
    /// noise-only turn of a *pruned* provider reads. Lets the engine
    /// answer for pruned providers inline instead of running a turn for a
    /// provably empty covering set (see
    /// [`EngineHandle`]'s pruning notes on `submit_with_budget`).
    shadows: Vec<ProviderShadow>,
}

/// A cloneable, thread-safe handle analysts use to submit queries to an
/// engine. All clones share one per-content occurrence ledger (the noise
/// derivation) and one executor.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    inner: Arc<HandleInner>,
}

impl EngineHandle {
    fn new(
        config: &FederationConfig,
        schema: &Schema,
        providers: &[DataProvider],
        executor: Executor,
    ) -> Self {
        Self {
            inner: Arc::new(HandleInner {
                executor,
                config: config.clone(),
                schema: schema.clone(),
                snapshot: MetaSnapshot::from_providers(providers),
                occurrences: OccurrenceLedger::default(),
                shadows: providers.iter().map(DataProvider::shadow).collect(),
            }),
        }
    }

    /// A scoped engine over `providers`, with a fresh occurrence ledger:
    /// it spawns no worker, and every clone of it holds its share of the
    /// providers, so it answers from this snapshot for as long as it
    /// lives.
    pub(crate) fn scoped(
        config: &FederationConfig,
        schema: &Schema,
        providers: &Arc<Vec<DataProvider>>,
    ) -> Self {
        Self::new(
            config,
            schema,
            providers,
            Executor::Scope(Arc::clone(providers)),
        )
    }

    /// The federation configuration the engine serves.
    pub fn config(&self) -> &FederationConfig {
        &self.inner.config
    }

    /// The public table schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Number of providers behind this engine.
    pub fn n_providers(&self) -> usize {
        self.inner.config.n_providers
    }

    /// The engine's public metadata snapshot: per-provider pruning bounds
    /// captured at start-up. Offline Algorithm 1 metadata only — reading
    /// (or publishing) it reveals nothing beyond the one-time metadata
    /// release the protocol already accounts for.
    pub fn meta_snapshot(&self) -> &MetaSnapshot {
        &self.inner.snapshot
    }

    /// The default per-query budget from the configuration.
    pub fn default_budget(&self) -> Result<QueryBudget> {
        self.inner.config.query_budget()
    }

    /// Closes an owned engine's pool; later submissions on any clone of
    /// this handle fail cleanly. The workers run the turns already queued
    /// and exit; a job whose execute turns were not queued yet fails when
    /// its allocation lands. A scoped engine has nothing to close.
    fn close(&self) {
        if let Executor::Pool(queues) = &self.inner.executor {
            queues
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
    }

    /// Hands a new job to the executor. A scoped engine only attaches
    /// itself: the job runs when first waited for. A pool queues the job's
    /// first turn on every *un-pruned* provider's worker, in any order
    /// relative to concurrent submissions: no turn waits for another, so
    /// queue order is only a schedule. Pruned providers never see the job
    /// at all: their noise-only turn is answered inline by
    /// [`Self::answer_for_pruned`], which delivers into the job directly.
    fn launch(&self, mut job: JobState) -> Result<Arc<JobState>> {
        let executor = &self.inner.executor;
        let first = match (executor, &job.kind) {
            (Executor::Scope(_), _) => None,
            (Executor::Pool(_), JobKind::Private { .. }) => {
                let progress = job
                    .progress
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                progress.turns = Turns::Summarized((0..job.n_providers).map(|_| None).collect());
                Some(Turn::Summary)
            }
            (Executor::Pool(_), _) => Some(Turn::Single),
        };
        job.executor = Some(executor.clone());
        let job = Arc::new(job);
        if let Some(turn) = first {
            queue(&job, turn, None)?;
        }
        Ok(job)
    }

    /// Fetch-and-increment the occurrence count for `kind`'s content: the
    /// returned index is the number of identical submissions seen before
    /// this one, which (with the content hash) fully determines the job's
    /// noise streams.
    fn next_occurrence(&self, kind: &JobKind) -> u64 {
        self.inner.occurrences.next(kind.content_hash())
    }

    /// Submits one private query under the configured default budget.
    pub fn submit(&self, query: &RangeQuery, sampling_rate: f64) -> Result<PendingAnswer> {
        let budget = self.default_budget()?;
        self.submit_with_budget(query, sampling_rate, &budget)
    }

    /// Submits one private query under an explicit per-query budget.
    ///
    /// The query is checked here, once, before any provider sees the job,
    /// so a malformed query costs nothing.
    pub fn submit_with_budget(
        &self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
    ) -> Result<PendingAnswer> {
        check_sub(&self.inner.schema, query, sampling_rate, budget)?;
        let job = self.launch_sub(query, sampling_rate, budget, None)?;
        Ok(PendingAnswer { job })
    }

    /// Submits a sub-query `compile` built, and so already checked.
    pub(crate) fn submit_sub(&self, sub: &SubQuery) -> Result<PendingAnswer> {
        let job = self.launch_sub(&sub.query, sub.sampling_rate, &sub.budget, None)?;
        Ok(PendingAnswer { job })
    }

    /// Submits one *fragment* of a sharded private query, already checked
    /// at the shard's entry ([`crate::ShardBackend::begin`]).
    pub(crate) fn submit_fragment(&self, spec: &FragmentSpec) -> Result<PendingFragment> {
        let (query, rate, budget) = (&spec.query, spec.sampling_rate, &spec.budget);
        let job = self.launch_sub(query, rate, budget, Some(spec.occurrence))?;
        Ok(PendingFragment { job })
    }

    /// Launches a checked private sub-query at its next occurrence on this
    /// engine — or, a shard's fragment, at the coordinator's `occurrence`
    /// (the coordinator sees the whole analyst stream, a shard only its
    /// fragments), step 3 left to the coordinator: until
    /// [`PendingFragment::provide_allocation`] delivers its slice, a
    /// fragment holds its providers' carries, not their workers. With the
    /// 1-shard seed and its global lane offset, a shard draws exactly the
    /// noise of the providers it replaced.
    fn launch_sub(
        &self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
        occurrence: Option<u64>,
    ) -> Result<Arc<JobState>> {
        let kind = JobKind::Private {
            query: query.clone(),
            sampling_rate,
            budget: *budget,
        };
        let index = occurrence.unwrap_or_else(|| self.next_occurrence(&kind));
        let mut job = JobState::new(kind, index, &self.inner.config);
        job.external_allocation = occurrence.is_some();
        let _span = obs::span("submit", "engine", obs::SpanId::NONE);
        self.launch_private(job)
    }

    /// Launches a validated private job after the pruning pass: providers
    /// whose public bounds prove an empty covering set skip the step-1
    /// metadata walk. An O(dims) check per provider against start-up
    /// bounds — never the per-cluster walk it avoids, and never anything
    /// data-derived.
    fn launch_private(&self, mut job: JobState) -> Result<Arc<JobState>> {
        if self.inner.config.optimizer.prune_providers {
            job.pruned = self.inner.snapshot.pruned_flags(job.private().0);
        }
        obs::counter_add(
            obs::names::OPTIMIZER_PRUNED,
            job.pruned.iter().filter(|&&p| p).count() as u64,
        );
        obs::counter_add(obs::names::ENGINE_QUERIES, 1);
        let job = self.launch(job)?;
        self.answer_for_pruned(&job);
        Ok(job)
    }

    /// Answers the noise-only turn of every pruned provider inline, on the
    /// submitting thread, so pruned providers cost no provider turn.
    ///
    /// Byte-identical to a provider turn by construction: a pruned
    /// provider's covering set is provably empty, so its turn reads only
    /// public scalars — captured in [`ProviderShadow`], the *same* code the
    /// provider turns delegate to — and its noise lanes are content-derived
    /// ([`JobState::provider_rng`]), independent of which thread draws
    /// them.
    ///
    /// Free of the barrier: the empty-prep execution ignores its
    /// allocation, so the inline path delivers its summary *and* outcome
    /// immediately — waiting for the allocation would block `submit` and
    /// deadlock the all-pruned case, where no provider turn ever runs.
    /// When the last summary in is an inline one, it queues the un-pruned
    /// providers' execute turns like any summary that lands an allocation.
    fn answer_for_pruned(&self, job: &Arc<JobState>) {
        if !job.pruned.iter().any(|&p| p) {
            return;
        }
        obs::counter_add(
            obs::names::ENGINE_PRUNED_INLINE,
            job.pruned.iter().filter(|&&p| p).count() as u64,
        );
        let (query, sampling_rate, budget) = job.private();
        let release_local = job.release_mode == ReleaseMode::LocalDp;
        let empty = PreparedQuery {
            covering: Vec::new(),
            proportions: Vec::new(),
            sum_r: 0.0,
        };
        for shadow in &self.inner.shadows {
            let id = shadow.id();
            if !job.is_pruned(id) {
                continue;
            }
            let mut rng = job.provider_rng(id);
            let t = Instant::now();
            let summary = shadow.summary(query, &empty, budget.eps_o, &mut rng);
            if deliver_summary(job, id, summary, t.elapsed(), sampling_rate) {
                let _ = queue(job, Turn::Execute, None);
            }
            // A failed job releases nothing more.
            if job.lock_progress().error.is_some() {
                continue;
            }
            let t = Instant::now();
            let outcome = shadow.empty_outcome(query, budget, release_local, &mut rng);
            deliver_outcome(job, id, Ok(outcome), t.elapsed());
        }
    }

    /// Launches a checked private MIN/MAX at its next occurrence on this
    /// engine, or — a shard's fragment — at the coordinator's
    /// `occurrence`: every provider runs one
    /// Exponential-mechanism selection over the domain (from metadata
    /// alone) under its job-derived RNG, so extreme queries are
    /// deterministic and concurrent like every other job.
    pub(crate) fn launch_extreme(
        &self,
        ext: ExtremeQuery,
        occurrence: Option<u64>,
    ) -> Result<PendingExtreme> {
        let kind = JobKind::Extreme {
            dim: ext.dim,
            extreme: ext.extreme,
            epsilon: ext.epsilon,
        };
        let index = occurrence.unwrap_or_else(|| self.next_occurrence(&kind));
        obs::counter_add(obs::names::ENGINE_EXTREMES, 1);
        let job = self.launch(JobState::new(kind, index, &self.inner.config))?;
        Ok(PendingExtreme { job })
    }

    /// Submits a plain (non-private, exact) execution of `query` on the
    /// same engine — the like-for-like baseline of the speed-up metric:
    /// both paths run on the same threads and are charged the slowest
    /// provider's time.
    pub fn submit_plain(&self, query: &RangeQuery) -> Result<PendingPlain> {
        query.check_schema(&self.inner.schema)?;
        let kind = JobKind::Plain {
            query: query.clone(),
        };
        let index = self.next_occurrence(&kind);
        obs::counter_add(obs::names::ENGINE_PLAIN, 1);
        let job = self.launch(JobState::new(kind, index, &self.inner.config))?;
        Ok(PendingPlain { job })
    }

    /// Runs a batch: every query is submitted before any answer is
    /// awaited, so an owned engine's workers pipeline across queries (a
    /// scoped engine runs each in turn as it is awaited).
    pub fn run_batch(&self, batch: &QueryBatch) -> Vec<Result<EngineAnswer>> {
        let pending: Vec<Result<PendingAnswer>> = batch
            .specs()
            .iter()
            .map(|spec| self.submit(&spec.query, spec.sampling_rate))
            .collect();
        pending
            .into_iter()
            .map(|p| p.and_then(PendingAnswer::wait))
            .collect()
    }

    /// Runs a batch one query at a time (each answer awaited before the
    /// next submission). Under a fixed seed this returns exactly the same
    /// answers as [`Self::run_batch`] — the determinism contract of the
    /// per-job RNG derivation.
    pub fn run_batch_serial(&self, batch: &QueryBatch) -> Vec<Result<EngineAnswer>> {
        batch
            .specs()
            .iter()
            .map(|spec| {
                self.submit(&spec.query, spec.sampling_rate)
                    .and_then(PendingAnswer::wait)
            })
            .collect()
    }
}

/// A private query in flight on an engine.
#[derive(Debug)]
pub struct PendingAnswer {
    job: Arc<JobState>,
}

impl PendingAnswer {
    /// A second waiter on the same in-flight job — the dedup pass's
    /// release reuse. The job's turns run once, whichever sharer waits
    /// first; [`Self::wait`] then only reads job progress and
    /// *recomputes* the release from the job's derived aggregator seed,
    /// so every sharer observes byte-identical answers; nothing is
    /// resubmitted, re-noised, or re-charged.
    pub(crate) fn share(&self) -> PendingAnswer {
        PendingAnswer {
            job: Arc::clone(&self.job),
        }
    }

    /// Blocks until every provider reported — on a scoped engine, by
    /// running the providers' turns on this thread if no other waiter
    /// has — then finalizes the release (protocol step 6/7) on the
    /// calling thread.
    pub fn wait(self) -> Result<EngineAnswer> {
        let job = &self.job;
        let progress = job.settle(|p| p.done == job.n_providers);
        if let Some(error) = progress.error.clone() {
            return Err(error);
        }
        let outcomes: Vec<LocalOutcome> = progress
            .outcomes
            .iter()
            .map(|o| o.expect("all providers reported"))
            .collect();
        let allocations = progress
            .allocations
            .as_ref()
            .expect("allocation computed")
            .to_vec();
        let (query, _, &budget) = job.private();

        // ---- Step 6/7: release ----
        let mut aggregator = Aggregator::new(
            derive_seed(job.seed, job.index, AGGREGATOR_LANE),
            job.cost_model,
        );
        let t = Instant::now();
        let (value, smc_network) = match job.release_mode {
            ReleaseMode::LocalDp => (aggregator.finalize_local(&outcomes)?, None),
            ReleaseMode::Smc => {
                let (value, network) = aggregator.finalize_smc(&outcomes, budget.eps_e)?;
                (value, Some(network))
            }
        };
        let release_time = t.elapsed();
        let network = private_network(job.cost_model, query, smc_network);

        let timings = PhaseTimings {
            summary: progress.summary_time,
            allocation: progress.allocation_time,
            execution: progress.execution_time,
            release: release_time,
            network,
        };
        // Telemetry reads *only* phase wall-times — public by the threat
        // model (the analyst observes them anyway). Never estimates or
        // sensitivities.
        obs::observe_duration(obs::names::PHASE_SUMMARY, timings.summary);
        obs::observe_duration(obs::names::PHASE_ALLOCATION, timings.allocation);
        obs::observe_duration(obs::names::PHASE_EXECUTION, timings.execution);
        obs::observe_duration(obs::names::PHASE_RELEASE, timings.release);
        obs::observe_duration(obs::names::PHASE_NETWORK, timings.network);

        Ok(EngineAnswer {
            value,
            cost: budget.cost(),
            timings,
            clusters_scanned: outcomes.iter().map(|o| o.clusters_scanned).sum(),
            covering_total: outcomes.iter().map(|o| o.n_covering).sum(),
            approximated_providers: outcomes.iter().filter(|o| o.approximated).count(),
            allocations,
            raw_estimate: outcomes.iter().map(|o| o.estimate).sum(),
            smooth_ls: outcomes.iter().map(|o| o.smooth_ls).collect(),
            ci_halfwidth: crate::protocol::combined_ci_halfwidth(&outcomes),
        })
    }
}

/// Content hash of a private job — the coordinator's occurrence-ledger
/// key. Identical to the key the 1-shard engine uses internally, so the
/// coordinator's occurrence indices reproduce the 1-shard indices exactly.
pub(crate) fn private_content_hash(
    query: &RangeQuery,
    sampling_rate: f64,
    budget: &QueryBudget,
) -> u64 {
    JobKind::Private {
        query: query.clone(),
        sampling_rate,
        budget: *budget,
    }
    .content_hash()
}

/// Content hash of an extreme job (coordinator occurrence-ledger key).
pub(crate) fn extreme_content_hash(ext: &ExtremeQuery) -> u64 {
    JobKind::Extreme {
        dim: ext.dim,
        extreme: ext.extreme,
        epsilon: ext.epsilon,
    }
    .content_hash()
}

/// One shard's half of a sharded private query: summaries out, allocation
/// in, partial out. Created by `EngineHandle::submit_fragment`;
/// dropping it before the allocation lands aborts the job, so the summary
/// turns still queued skip their work for a coordinator that gave up (a
/// failed sibling shard, a dropped connection). On a scoped engine
/// [`Self::summaries`] runs the summary turns on the calling thread and
/// [`Self::partial`] the execute turns.
#[derive(Debug)]
pub(crate) struct PendingFragment {
    job: Arc<JobState>,
}

impl PendingFragment {
    /// Blocks until every local provider delivered its step-2 summary,
    /// then returns them in local provider order together with the
    /// slowest provider's summary time.
    pub(crate) fn summaries(&self) -> Result<(Vec<ProviderSummary>, Duration)> {
        let job = &self.job;
        let progress = job.settle(|p| p.summaries_done == job.n_providers);
        if let Some(error) = progress.error.clone() {
            return Err(error);
        }
        let summaries = progress
            .summaries
            .iter()
            .map(|s| s.expect("all summaries delivered"))
            .collect();
        Ok((summaries, progress.summary_time))
    }

    /// Feeds the coordinator's globally solved allocation (this shard's
    /// slice, in local provider order, its length checked by the batch) to
    /// the execute turns — on a pool, by queueing them, once every summary
    /// is in.
    pub(crate) fn provide_allocation(&self, allocations: Vec<u64>) -> Result<()> {
        let job = &self.job;
        let due = {
            let mut progress = job.lock_progress();
            if progress.allocations.is_some() {
                return Err(CoreError::ProtocolViolation(
                    "fragment allocation delivered twice",
                ));
            }
            progress.allocations = Some(Arc::new(allocations));
            job.cond.notify_all();
            progress.summaries_done == job.n_providers && progress.error.is_none()
        };
        if due {
            queue(job, Turn::Execute, None)?;
        }
        Ok(())
    }

    /// Blocks until every local provider executed, then returns the
    /// shard's mergeable partial (per-provider released values in local
    /// provider order — the coordinator re-runs the 1-shard release fold
    /// over the global concatenation, so merging is bit-exact).
    pub(crate) fn partial(&self) -> Result<crate::shard::FragmentPartial> {
        let job = &self.job;
        let progress = job.settle(|p| p.done == job.n_providers);
        if let Some(error) = progress.error.clone() {
            return Err(error);
        }
        let rows = progress
            .outcomes
            .iter()
            .map(|o| {
                let o = o.expect("all providers reported");
                let released = o.released.ok_or(CoreError::ProtocolViolation(
                    "fragment provider withheld its release (SMC mode is not shardable)",
                ))?;
                Ok(crate::shard::PartialRow {
                    released,
                    variance: o.variance,
                    approximated: o.approximated,
                    clusters_scanned: o.clusters_scanned as u64,
                    n_covering: o.n_covering as u64,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(crate::shard::FragmentPartial {
            rows,
            execution: progress.execution_time,
        })
    }
}

impl Drop for PendingFragment {
    fn drop(&mut self) {
        // Abort an incomplete fragment: its queued summary turns skip, and
        // its execute turns are never queued. Allocated fragments finish
        // on their own; failed ones are already settled.
        let mut progress = self.job.lock_progress();
        if progress.allocations.is_none() && progress.error.is_none() {
            self.job.fail(
                &mut progress,
                CoreError::ProtocolViolation("fragment aborted before allocation"),
            );
        }
    }
}

/// A plain (baseline) execution in flight on an engine.
#[derive(Debug)]
pub struct PendingPlain {
    job: Arc<JobState>,
}

impl PendingPlain {
    /// Blocks until every provider scanned, then combines the exact sum.
    pub fn wait(self) -> Result<PlainAnswer> {
        let job = &self.job;
        let progress = job.settle(|p| p.done == job.n_providers);
        if let Some(error) = progress.error.clone() {
            return Err(error);
        }
        let value: u64 = progress
            .outcomes
            .iter()
            .map(|o| o.expect("all providers reported").estimate as u64)
            .sum();
        let query = match &job.kind {
            JobKind::Plain { query } => query,
            _ => unreachable!("only plain jobs resolve via PendingPlain"),
        };
        let network = job.cost_model.round_time(query_bytes(query)) + job.cost_model.round_time(16);
        Ok(PlainAnswer {
            value,
            duration: progress.execution_time + network,
        })
    }
}

/// The engine's answer to one private MIN/MAX job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineExtreme {
    /// The combined (post-processed) selection across providers.
    pub value: fedaqp_model::Value,
    /// ε charged (per provider; parallel composition across providers).
    pub epsilon: f64,
    /// Wall time of the slowest provider's selection.
    pub execution: Duration,
    /// Simulated network time (query broadcast + one result round).
    pub network: Duration,
}

/// A private extreme query in flight on an engine.
#[derive(Debug)]
pub struct PendingExtreme {
    job: Arc<JobState>,
}

impl PendingExtreme {
    /// Blocks until every provider selected, then combines the per-provider
    /// DP selections by post-processing (max of outputs for MAX, min for
    /// MIN — Thm. 3.3, free).
    pub fn wait(&self) -> Result<EngineExtreme> {
        let job = &self.job;
        let progress = job.settle(|p| p.done == job.n_providers);
        if let Some(error) = progress.error.clone() {
            return Err(error);
        }
        let (extreme, epsilon) = match &job.kind {
            JobKind::Extreme {
                extreme, epsilon, ..
            } => (*extreme, *epsilon),
            _ => unreachable!("only extreme jobs resolve via PendingExtreme"),
        };
        let selections = progress
            .outcomes
            .iter()
            .map(|o| o.expect("all providers reported").estimate as fedaqp_model::Value);
        let value = match extreme {
            Extreme::Max => selections.max(),
            Extreme::Min => selections.min(),
        }
        .expect("non-empty providers");
        Ok(EngineExtreme {
            value,
            epsilon,
            execution: progress.execution_time,
            network: extreme_network(job.cost_model),
        })
    }
}

/// An owned, long-lived engine: consumes a [`Federation`], moves each
/// provider onto a dedicated worker thread, and serves queries through
/// cloneable [`EngineHandle`]s until [`FederationEngine::shutdown`] hands
/// the federation back.
#[derive(Debug)]
pub struct FederationEngine {
    handle: EngineHandle,
    workers: Vec<JoinHandle<DataProvider>>,
}

impl FederationEngine {
    /// Starts the worker pool (one thread per provider).
    pub fn start(federation: Federation) -> Self {
        let (config, schema, providers) = federation.into_parts();
        let (senders, receivers): (Vec<_>, Vec<_>) = providers.iter().map(|_| channel()).unzip();
        let handle = EngineHandle::new(
            &config,
            &schema,
            &providers,
            Executor::Pool(Arc::new(RwLock::new(Some(senders)))),
        );
        let workers = providers
            .into_iter()
            .zip(receivers)
            .map(|(provider, turns)| {
                std::thread::spawn(move || {
                    worker_loop(&provider, turns);
                    provider
                })
            })
            .collect();
        Self { handle, workers }
    }

    /// A new handle onto this engine (cheap; clone freely across threads).
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Drains in-flight jobs, stops the workers, and reassembles the
    /// federation (providers return in id order).
    pub fn shutdown(self) -> Federation {
        self.handle.close();
        let mut providers: Vec<DataProvider> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("engine worker panicked"))
            .collect();
        providers.sort_by_key(DataProvider::id);
        Federation::from_parts(
            self.handle.config().clone(),
            self.handle.schema().clone(),
            providers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use fedaqp_model::{Aggregate, Dimension, Domain, Range, Row};
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

    fn federation() -> Federation {
        Federation::build(config(50), schema(), partitions(2000, 4)).unwrap()
    }

    fn count_query(lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    fn batch() -> QueryBatch {
        let mut batch = QueryBatch::new();
        for i in 0..6 {
            batch.push(count_query(50 * i, 500 + 50 * i), 0.2);
        }
        batch
    }

    #[test]
    fn scoped_engine_answers_are_consistent() {
        let fed = federation();
        let q = count_query(100, 800);
        let ans = fed
            .with_engine(|engine| engine.submit(&q, 0.2).unwrap().wait())
            .unwrap();
        assert!(ans.value.is_finite());
        assert_eq!(ans.allocations.len(), 4);
        assert_eq!(ans.smooth_ls.len(), 4);
        assert!(ans.clusters_scanned > 0);
        assert!(ans.covering_total >= ans.clusters_scanned);
        assert!((ans.cost.eps - 1.0).abs() < 1e-9);
        assert!(ans.raw_estimate.is_finite());
    }

    #[test]
    fn plain_jobs_run_on_the_pool_and_are_exact() {
        let fed = federation();
        let q = count_query(100, 700);
        let exact = fed.exact(&q);
        let plain = fed
            .with_engine(|engine| engine.submit_plain(&q).unwrap().wait())
            .unwrap();
        assert_eq!(plain.value, exact);
    }

    #[test]
    fn batch_is_deterministic_serial_vs_concurrent() {
        let serial: Vec<_> = federation()
            .with_engine(|engine| engine.run_batch_serial(&batch()))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let concurrent: Vec<_> = federation()
            .with_engine(|engine| engine.run_batch(&batch()))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(serial.len(), concurrent.len());
        for (a, b) in serial.iter().zip(&concurrent) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.allocations, b.allocations);
            assert_eq!(a.raw_estimate, b.raw_estimate);
            assert_eq!(a.smooth_ls, b.smooth_ls);
        }
    }

    #[test]
    fn smc_release_works_through_the_engine() {
        let mut cfg = config(50);
        cfg.release_mode = ReleaseMode::Smc;
        cfg.epsilon = 100.0;
        let fed = Federation::build(cfg, schema(), partitions(3000, 4)).unwrap();
        let q = count_query(0, 999);
        let exact = fed.exact(&q) as f64;
        let ans = fed
            .with_engine(|engine| engine.submit(&q, 0.2).unwrap().wait())
            .unwrap();
        assert!(ans.value.is_finite());
        assert!(
            (ans.value - exact).abs() < 0.3 * exact,
            "value {}",
            ans.value
        );
    }

    #[test]
    fn invalid_submissions_fail_before_touching_workers() {
        let fed = federation();
        fed.with_engine(|engine| {
            let q = count_query(0, 999);
            assert!(matches!(
                engine.submit(&q, 0.0),
                Err(CoreError::InvalidSamplingRate(_))
            ));
            assert!(matches!(
                engine.submit(&q, 1.0),
                Err(CoreError::InvalidSamplingRate(_))
            ));
            let bad_dim =
                RangeQuery::new(Aggregate::Count, vec![Range::new(7, 0, 1).unwrap()]).unwrap();
            assert!(engine.submit(&bad_dim, 0.2).is_err());
            let mut bad_budget = engine.default_budget().unwrap();
            bad_budget.eps_s = 0.0;
            assert!(engine.submit_with_budget(&q, 0.2, &bad_budget).is_err());
        });
    }

    #[test]
    fn handle_clones_error_after_close() {
        let engine = FederationEngine::start(federation());
        let escaped = engine.handle();
        engine.shutdown();
        let q = count_query(0, 999);
        assert!(matches!(
            escaped.submit(&q, 0.2),
            Err(CoreError::ProtocolViolation("engine is shut down"))
        ));
    }

    #[test]
    fn owned_engine_round_trips_the_federation() {
        let fed = federation();
        let q = count_query(100, 800);
        let engine = FederationEngine::start(fed);
        let handle = engine.handle();
        let ans = handle.submit(&q, 0.2).unwrap().wait().unwrap();
        assert!(ans.value.is_finite());
        let fed = engine.shutdown();
        // The reassembled federation still answers queries, and its
        // providers are back in id order.
        for (i, p) in fed.providers().iter().enumerate() {
            assert_eq!(p.id(), i);
        }
        let again = fed.run(&q, 0.2).unwrap();
        assert!(again.value.is_finite());
        // The handle is dead after shutdown.
        assert!(handle.submit(&q, 0.2).is_err());
    }

    #[test]
    fn many_analysts_share_one_engine() {
        let fed = federation();
        let answers = fed.with_engine(|engine| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|a| {
                        let engine = engine.clone();
                        scope.spawn(move || {
                            let q = count_query(10 * a, 400 + 40 * a);
                            engine.submit(&q, 0.2).unwrap().wait().unwrap().value
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<f64>>()
            })
        });
        assert_eq!(answers.len(), 8);
        assert!(answers.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn heavy_interleaved_submission_does_not_deadlock() {
        // Regression: two analysts' sends can interleave and land in
        // different orders on different provider queues. That once
        // deadlocked the pool, each worker parked at a different job's
        // allocation barrier; workers no longer park, so any order
        // drains. 8 analysts × 25 queries must finish.
        let fed = Federation::build(config(50), schema(), partitions(400, 4)).unwrap();
        fed.with_engine(|engine| {
            std::thread::scope(|scope| {
                for analyst in 0..8usize {
                    let engine = engine.clone();
                    scope.spawn(move || {
                        for i in 0..25usize {
                            let lo = ((i * 7 + analyst) % 200) as i64;
                            let hi = (500 + (i * 11) % 400) as i64;
                            let q = count_query(lo, hi);
                            engine.submit(&q, 0.2).unwrap().wait().unwrap();
                        }
                    });
                }
            });
        });
    }

    /// A fanned-out scan that panics — on a helper or on the turn's own
    /// thread — fails its job with the typed error through the panic
    /// guard, never a hang or a short read, on both engines. The
    /// federation's schema has a dimension its stores lack, so the plain
    /// scan of a query on it passes validation and then indexes past the
    /// stores' columns, on more than `FAN_OUT_CELLS` cells.
    #[test]
    fn a_panicking_fanned_out_scan_fails_its_job_with_the_typed_error() {
        let mut cfg = config(1000);
        cfg.n_providers = 2;
        let rows_per = fedaqp_storage::FAN_OUT_CELLS / 3 + 1;
        let providers = partitions(rows_per, 2)
            .into_iter()
            .enumerate()
            .map(|(id, rows)| {
                let store = fedaqp_storage::ClusterStore::build(
                    schema(),
                    rows,
                    cfg.cluster_capacity,
                    cfg.partition_strategy,
                )
                .unwrap();
                DataProvider::from_store(id, store, &cfg)
            })
            .collect();
        let mut dims = schema().dimensions().to_vec();
        dims.push(Dimension::new("z", Domain::new(0, 9).unwrap()));
        let fed = Federation::from_parts(cfg, Schema::new(dims).unwrap(), providers);
        let q = RangeQuery::new(
            Aggregate::Count,
            vec![
                Range::new(0, 0, 999).unwrap(),
                Range::new(1, 0, 99).unwrap(),
                Range::new(2, 0, 9).unwrap(),
            ],
        )
        .unwrap();
        let violation =
            |answer: Result<PlainAnswer>| matches!(answer, Err(CoreError::ProtocolViolation(_)));
        assert!(fed.with_engine(|engine| violation(engine.submit_plain(&q).unwrap().wait())));
        let engine = FederationEngine::start(fed);
        let handle = engine.handle();
        assert!(violation(handle.submit_plain(&q).unwrap().wait()));
        // The worker survived its turn's panic and keeps serving.
        let narrow = count_query(100, 800);
        assert!(handle.submit_plain(&narrow).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn panic_inside_with_engine_propagates_instead_of_hanging() {
        // A panic in the closure must propagate out of with_engine, never
        // hang it (scoped engines once had workers left blocked in recv()
        // while thread::scope waited to join them).
        let fed = federation();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fed.with_engine(|_engine| panic!("analyst code failed"));
        }));
        assert!(result.is_err(), "panic must propagate out of with_engine");
        // The federation (and a fresh pool) still works afterwards.
        let q = count_query(100, 800);
        let ans = fed
            .with_engine(|engine| engine.submit(&q, 0.2).unwrap().wait())
            .unwrap();
        assert!(ans.value.is_finite());
    }

    #[test]
    fn job_seeds_differ_across_different_requests_at_the_same_index() {
        // Regression: every fresh scoped engine starts its occurrence
        // ledger at 0, so many jobs land on index 0 with the same
        // configured seed. Different requests must still draw independent
        // noise, so the job seed mixes the request content.
        let cfg = config(50);
        let budget = cfg.query_budget().unwrap();
        let seed_of = |kind: JobKind| JobState::new(kind, 0, &cfg).seed;
        let private = |lo: i64, hi: i64, sr: f64| JobKind::Private {
            query: count_query(lo, hi),
            sampling_rate: sr,
            budget,
        };
        let base = seed_of(private(0, 500, 0.2));
        // Identical request → identical seed (repeating a release reveals
        // no more than one release).
        assert_eq!(base, seed_of(private(0, 500, 0.2)));
        // Different ranges, sampling rate, or budget → different stream.
        assert_ne!(base, seed_of(private(0, 501, 0.2)));
        assert_ne!(base, seed_of(private(0, 500, 0.3)));
        let mut other_budget = budget;
        other_budget.eps_e *= 2.0;
        assert_ne!(
            base,
            seed_of(JobKind::Private {
                query: count_query(0, 500),
                sampling_rate: 0.2,
                budget: other_budget,
            })
        );
        // Extreme jobs separate by dimension and direction.
        let extreme = |dim: usize, extreme: Extreme| JobKind::Extreme {
            dim,
            extreme,
            epsilon: 1.0,
        };
        assert_ne!(
            seed_of(extreme(0, Extreme::Max)),
            seed_of(extreme(0, Extreme::Min))
        );
        assert_ne!(
            seed_of(extreme(0, Extreme::Max)),
            seed_of(extreme(1, Extreme::Max))
        );
        assert_ne!(base, seed_of(extreme(0, Extreme::Max)));
    }

    #[test]
    fn different_queries_draw_independent_noise_at_index_zero() {
        // Two fresh scoped engines over identical federations: index 0 on
        // both, but the queries differ, so the realized noise must too.
        let noise_of = |lo: i64, hi: i64| {
            let ans = federation()
                .with_engine(|engine| engine.submit(&count_query(lo, hi), 0.2).unwrap().wait())
                .unwrap();
            ans.value - ans.raw_estimate
        };
        assert_ne!(noise_of(0, 500).to_bits(), noise_of(1, 500).to_bits());
    }

    #[test]
    fn distinct_queries_are_independent_of_submission_order() {
        // The attack-gate determinism contract: a workload of *distinct*
        // queries returns bit-identical answers no matter which order (or
        // which analyst thread) submitted them — each job's noise derives
        // from its content and occurrence count, not a global counter.
        let run_in_order = |order: &[usize]| -> Vec<(i64, f64, f64)> {
            let fed = federation();
            let mut out: Vec<(i64, f64, f64)> = fed.with_engine(|engine| {
                order
                    .iter()
                    .map(|&i| {
                        let lo = 10 * i as i64;
                        let ans = engine
                            .submit(&count_query(lo, 700), 0.2)
                            .unwrap()
                            .wait()
                            .unwrap();
                        (lo, ans.value, ans.raw_estimate)
                    })
                    .collect()
            });
            out.sort_by_key(|(lo, _, _)| *lo);
            out
        };
        let forward = run_in_order(&[0, 1, 2, 3, 4]);
        let reversed = run_in_order(&[4, 3, 2, 1, 0]);
        let shuffled = run_in_order(&[2, 0, 4, 1, 3]);
        for ((a, b), c) in forward.iter().zip(&reversed).zip(&shuffled) {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "order-dependent noise");
            assert_eq!(a.1.to_bits(), c.1.to_bits(), "order-dependent noise");
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        // Repeats of an identical query still draw fresh noise: averaging
        // a query by resubmitting it is never free.
        let fed = federation();
        let (first, second) = fed.with_engine(|engine| {
            let q = count_query(100, 800);
            let a = engine.submit(&q, 0.2).unwrap().wait().unwrap();
            let b = engine.submit(&q, 0.2).unwrap().wait().unwrap();
            (a.value - a.raw_estimate, b.value - b.raw_estimate)
        });
        assert_ne!(first.to_bits(), second.to_bits(), "repeat reused noise");
    }

    #[test]
    fn derive_seed_separates_lanes_and_indices() {
        let a = derive_seed(7, 0, 0);
        let b = derive_seed(7, 1, 0);
        let c = derive_seed(7, 0, 1);
        let d = derive_seed(7, 0, AGGREGATOR_LANE);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn batch_builder_basics() {
        let mut b = QueryBatch::new();
        assert!(b.is_empty());
        b.push(count_query(0, 10), 0.1);
        assert_eq!(b.len(), 1);
        let collected: QueryBatch = b.specs().to_vec().into_iter().collect();
        assert_eq!(collected.len(), 1);
    }

    /// The bits of an answer a byte-identity check compares.
    fn bits(answer: &EngineAnswer) -> (u64, u64, Vec<u64>) {
        (
            answer.value.to_bits(),
            answer.raw_estimate.to_bits(),
            answer.allocations.clone(),
        )
    }

    #[test]
    fn concurrent_waiters_on_a_shared_scoped_job_run_it_once() {
        let q = count_query(100, 800);
        let lone = federation()
            .with_engine(|engine| engine.submit(&q, 0.2).unwrap().wait())
            .unwrap();
        let fed = federation();
        let (answers, turns) = fed.with_engine(|engine| {
            let pending = engine.submit(&q, 0.2).unwrap();
            let probe = pending.share();
            let start = std::sync::Barrier::new(2);
            let answers = std::thread::scope(|scope| {
                let waiters: Vec<_> = [pending.share(), pending]
                    .into_iter()
                    .map(|p| {
                        let start = &start;
                        scope.spawn(move || {
                            start.wait();
                            p.wait().unwrap()
                        })
                    })
                    .collect();
                waiters
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .collect::<Vec<_>>()
            });
            let progress = probe.job.lock_progress();
            (answers, (progress.summaries_done, progress.done))
        });
        assert_eq!(turns, (4, 4), "every provider's turns ran exactly once");
        for answer in &answers {
            assert_eq!(bits(answer), bits(&lone));
        }
    }

    #[test]
    fn a_scoped_batch_waited_in_reverse_matches_in_order_waits() {
        let in_order: Vec<_> = federation()
            .with_engine(|engine| engine.run_batch_serial(&batch()))
            .into_iter()
            .map(|r| bits(&r.unwrap()))
            .collect();
        let mut reversed: Vec<_> = federation().with_engine(|engine| {
            let pending: Vec<_> = batch()
                .specs()
                .iter()
                .map(|spec| engine.submit(&spec.query, spec.sampling_rate).unwrap())
                .collect();
            pending
                .into_iter()
                .rev()
                .map(|p| bits(&p.wait().unwrap()))
                .collect()
        });
        reversed.reverse();
        assert_eq!(reversed, in_order);
    }

    #[test]
    fn a_scoped_answer_dropped_unwaited_still_consumes_its_occurrence() {
        let q = count_query(100, 800);
        let second_draw = federation().with_engine(|engine| {
            engine.submit(&q, 0.2).unwrap().wait().unwrap();
            engine.submit(&q, 0.2).unwrap().wait().unwrap()
        });
        // The dropped job never runs, and the scope returns without it.
        let after_drop = federation().with_engine(|engine| {
            drop(engine.submit(&q, 0.2).unwrap());
            engine.submit(&q, 0.2).unwrap().wait().unwrap()
        });
        assert_eq!(bits(&after_drop), bits(&second_draw));
    }

    /// The barrier no worker parks at: an owned engine with one worker
    /// per provider holds a batch of fragments whose summaries are all
    /// read before any allocation is provided — each worker runs every
    /// fragment's summary turn first — and completes it, byte-identical to
    /// a scoped engine. (With workers parked at their first fragment's
    /// allocation barrier, the second fragment's summaries never come.)
    #[test]
    fn an_owned_engine_completes_a_fragment_batch_whose_summaries_are_read_first() {
        fn run(engine: &EngineHandle) -> Vec<Vec<crate::shard::PartialRow>> {
            let budget = engine.default_budget().unwrap();
            let fragments: Vec<_> = (0..4)
                .map(|i| {
                    let spec = crate::shard::FragmentSpec {
                        query: count_query(50 * i, 600 + 50 * i),
                        sampling_rate: 0.2,
                        budget,
                        occurrence: 0,
                    };
                    engine.submit_fragment(&spec).unwrap()
                })
                .collect();
            let summaries: Vec<_> = fragments.iter().map(|f| f.summaries().unwrap()).collect();
            for (fragment, (summaries, _)) in fragments.iter().zip(&summaries) {
                let allocation = Aggregator::new(0, CostModel::zero())
                    .allocate(summaries, 0.2)
                    .unwrap();
                fragment.provide_allocation(allocation).unwrap();
            }
            fragments
                .iter()
                .map(|f| f.partial().unwrap().rows)
                .collect()
        }
        let scoped = federation().with_engine(run);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let engine = FederationEngine::start(federation());
            let partials = run(&engine.handle());
            engine.shutdown();
            done.send(partials).unwrap();
        });
        let partials = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the owned engine deadlocked on a fragment batch");
        assert_eq!(partials, scoped);
    }

    /// A job that outlives its `with_engine` scope runs on the providers
    /// its engine was built on, even after the federation changed them.
    #[test]
    fn a_scoped_job_waited_after_its_scope_returned_answers_from_its_snapshot() {
        let q = count_query(0, 999);
        let inside = federation()
            .with_engine(|engine| engine.submit(&q, 0.2).unwrap().wait())
            .unwrap();
        let mut fed = federation();
        let escaped = fed.with_engine(|engine| engine.submit(&q, 0.2).unwrap());
        fed.providers_mut()[0]
            .append_row(&Row::cell(vec![500, 50], 1))
            .unwrap();
        assert_ne!(fed.exact(&q), federation().exact(&q));
        assert_eq!(bits(&escaped.wait().unwrap()), bits(&inside));
    }
}
