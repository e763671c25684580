//! The concurrent multi-query federation engine: the providers' half of
//! the protocol, protocol steps 1–2 and 4–6.
//!
//! A [`crate::Federation`] is data at rest; every private query runs
//! here as a *job* of per-provider *turns* — a summary turn (steps 1–2)
//! and an execute turn (steps 4–6) around the allocation barrier (step
//! 3), which synchronizes only its own job. The engine never solves step
//! 3 or finalizes step 7: every [`EngineHandle`] is a one-shard
//! [`crate::ShardedFederation`] over its own engine, and that coordinator
//! is the one place both steps run, for every deployment (see
//! [`crate::shard`]). Two engines hand out the same [`EngineHandle`] and
//! differ only in which thread runs a turn:
//!
//! - An **owned** engine ([`FederationEngine`], a long-lived service)
//!   keeps a persistent per-provider worker pool — one OS thread per data
//!   provider, alive across queries — whose queues carry *turns*, not
//!   jobs, so one provider interleaves the phases of many in-flight jobs.
//! - A **scoped** engine ([`crate::Federation::with_engine`], sharing the
//!   providers' `Arc`) spawns no worker: the thread that reads a batch's
//!   summaries runs its summary turns, and the first thread to wait for a
//!   fragment's outcomes runs its execute turns, every provider in id
//!   order; any other waiter parks until they land. Concurrency comes
//!   from the analysts' own threads.
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
//!  coordinator ──batch──▶ engine ──summary turns──▶ provider queues
//!     ▲  │                                            │ carry stays in the job
//!     │  └──── allocation (Eq. 6) ──▶ execute turns queued
//!     │                                               ▼
//!     └──── outcomes (job fan-in) ◀───────────────────┘  coordinator folds
//! ```
//!
//! **No worker ever parks.** A summary turn leaves its carry (covering
//! set, RNG lane mid-stream) in the job and returns; the coordinator's
//! allocation, when it lands through [`crate::FragmentBatch::allocate`],
//! queues every un-pruned provider's execute turn. A worker only ever
//! waits on its own queue, so no queue order can deadlock the pool: an
//! engine can hold any number of fragments whose allocations are still
//! being solved.
//!
//! Workers and waiting threads call the same turn functions, contained by
//! the same panic guard, so where a turn ran never changes what it
//! released.
//!
//! Determinism: every `(query, provider)` pair draws from an RNG derived
//! from `(config.seed, job content, occurrence, provider id)`, where
//! *occurrence* counts how many times this exact job content was
//! submitted to the coordinator in front of the engine (its occurrence
//! ledger is the only one; an engine — scoped or owned — is its
//! lifetime). Distinct requests therefore have noise
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
//! enforced by [`crate::session::Session`], whose
//! [`fedaqp_dp::SharedAccountant`] makes check-and-charge atomic so racing
//! queries cannot jointly overspend `(ξ, ψ)`.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedaqp_dp::QueryBudget;
use fedaqp_model::{Extreme, RangeQuery, Schema, Value};
use fedaqp_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{FederationConfig, ReleaseMode};
use crate::federation::{Federation, OracleAnswer, PlainAnswer};
use crate::optimizer::{MetaSnapshot, ProviderBounds};
use crate::protocol::{query_bytes, LocalOutcome, ProviderSummary};
use crate::provider::{DataProvider, PreparedQuery, ProviderShadow};
use crate::shard::{
    ExtremeFragmentSpec, ExtremeReply, FragmentBatch, FragmentPartial, FragmentSpec,
    FragmentSummaries, PartialRow, ShardedFederation, ShardedSub,
};
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

/// What a job asks of the providers.
#[derive(Debug)]
enum JobKind {
    /// The providers' half of the private protocol.
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
    /// independent draws, not cancelling ones. It also keys the
    /// coordinator's per-content occurrence counter, which replaces a
    /// global submission index: a request's noise depends only on its
    /// content and on how many identical copies preceded it, never on
    /// unrelated traffic, so concurrent multi-analyst workloads of
    /// distinct queries are bit-reproducible. Repeated identical requests
    /// still advance the counter and draw fresh noise (each is charged,
    /// each is noisy).
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
    /// engine's one per summary turn.
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
    fn private(&self) -> (&RangeQuery, &QueryBudget) {
        match &self.kind {
            JobKind::Private { query, budget, .. } => (query, budget),
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
    /// progress, or the job's error. On a scoped engine the first thread
    /// here claims the job's runnable turns and runs them itself
    /// ([`run_scoped`]); any other waiter parks on the condvar until they
    /// land.
    fn settle(&self, ready: impl Fn(&JobProgress) -> bool) -> Result<MutexGuard<'_, JobProgress>> {
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
        match progress.error.clone() {
            Some(error) => Err(error),
            None => Ok(progress),
        }
    }

    /// Blocks until every provider reported.
    fn settle_done(&self) -> Result<MutexGuard<'_, JobProgress>> {
        self.settle(|p| p.done == self.n_providers)
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
/// id order: every un-pruned provider's steps 1–2, then — once the
/// coordinator delivered the step-3 allocation — every provider's steps
/// 4–6. Each turn draws from its own content-derived lane and is timed
/// alone, so the released bytes and the slowest-provider phase timings
/// are the pool's.
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
/// and the execute turns are queued when the allocation lands
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
/// whether its execute turns are due (see [`deliver_summary`]). A
/// provider the optimizer pruned never takes this turn — the engine
/// answers its noise-only turn inline at submission (see
/// [`Engine::answer_for_pruned`]).
fn summary_turn(job: &JobState, provider: &DataProvider) -> (Carry, bool) {
    let (query, budget) = job.private();
    let id = provider.id();
    let mut rng = job.provider_rng(id);
    let t = Instant::now();
    let prep = provider.prepare(query);
    let summary = provider.summary_with_rng(query, &prep, budget.eps_o, &mut rng);
    let due = deliver_summary(job, id, summary, t.elapsed());
    ((prep, rng), due)
}

/// Steps 4–6 of a private job for one provider, once its allocation is
/// known: local execution and release, delivered into the job.
fn execute_turn(job: &JobState, provider: &DataProvider, carry: Carry, allocation: u64) {
    let (query, budget) = job.private();
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

/// Delivers provider `id`'s step-2 summary into the job. Shared by the
/// summary turn and the inline pruned path so both feed the barrier
/// identically. Step 3 is the coordinator's: the last summary in wakes
/// the batch gathering the summaries.
///
/// Returns whether the job's execute turns are due — the allocation
/// landed before this last summary did — so a pool caller [`queue`]s
/// them; otherwise [`LocalBatch::allocate`] does.
fn deliver_summary(
    job: &JobState,
    id: usize,
    summary: Result<ProviderSummary>,
    elapsed: Duration,
) -> bool {
    let mut progress = job.lock_progress();
    progress.summary_time = progress.summary_time.max(elapsed);
    match summary {
        Ok(s) => progress.summaries[id] = Some(s),
        Err(e) => job.fail(&mut progress, e),
    }
    progress.summaries_done += 1;
    if progress.summaries_done == job.n_providers && progress.error.is_none() {
        job.cond.notify_all();
        return progress.allocations.is_some();
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

/// Shared interior of [`Engine`].
#[derive(Debug)]
struct EngineInner {
    executor: Executor,
    config: FederationConfig,
    schema: Schema,
    /// Public per-provider pruning bounds, captured at engine start. Read
    /// by the optimizer (pruning, cost estimates, `EXPLAIN`) — offline
    /// Algorithm 1 metadata only, never sampled data.
    snapshot: MetaSnapshot,
    /// Public scalar facets of each provider (id, `n_min`, regime, agreed
    /// smooth-sensitivity order, arity, SUM cap) — everything the
    /// noise-only turn of a *pruned* provider reads. Lets the engine
    /// answer for pruned providers inline instead of running a turn for a
    /// provably empty covering set (see [`Engine::answer_for_pruned`]).
    shadows: Vec<ProviderShadow>,
}

/// The providers' half of an engine, as its coordinator holds it: jobs
/// launched at the coordinator's occurrences, allocations taken from
/// outside. Every clone shares one executor.
#[derive(Debug, Clone)]
pub(crate) struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    fn new(
        config: &FederationConfig,
        schema: &Schema,
        providers: &[DataProvider],
        executor: Executor,
    ) -> Self {
        Self {
            inner: Arc::new(EngineInner {
                executor,
                config: config.clone(),
                schema: schema.clone(),
                snapshot: MetaSnapshot::from_providers(providers),
                shadows: providers.iter().map(DataProvider::shadow).collect(),
            }),
        }
    }

    /// The federation configuration the engine serves.
    pub(crate) fn config(&self) -> &FederationConfig {
        &self.inner.config
    }

    /// The public table schema.
    pub(crate) fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The providers' public pruning bounds, in local provider order.
    pub(crate) fn bounds(&self) -> Vec<ProviderBounds> {
        self.inner.snapshot.providers().to_vec()
    }

    /// Closes an owned engine's pool; later submissions on any clone of
    /// this engine fail cleanly. The workers run the turns already queued
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

    /// Launches a batch of private fragments, checked by whoever built
    /// them, each at the coordinator's occurrence (the coordinator sees
    /// the whole analyst stream, an engine only its fragments). Until
    /// [`LocalBatch::allocate`] delivers its slice, a fragment holds its
    /// providers' carries, not their workers. With the coordinator's
    /// seed and its global lane offset, an engine draws exactly the noise
    /// of the providers it holds in a one-engine deployment.
    pub(crate) fn begin(&self, specs: &[FragmentSpec]) -> Result<LocalBatch> {
        let _span = obs::span("submit", "engine", obs::SpanId::NONE);
        // Built one job at a time, so a failed launch drops (and aborts)
        // the jobs launched before it.
        let mut batch = LocalBatch {
            jobs: Vec::with_capacity(specs.len()),
            providers: self.inner.config.n_providers,
            gathered: 0,
        };
        for spec in specs {
            batch.jobs.push(self.launch_private(spec)?);
        }
        Ok(batch)
    }

    /// Launches one private fragment after the pruning pass: providers
    /// whose public bounds prove an empty covering set skip the step-1
    /// metadata walk. An O(dims) check per provider against start-up
    /// bounds — never the per-cluster walk it avoids, and never anything
    /// data-derived.
    fn launch_private(&self, spec: &FragmentSpec) -> Result<Arc<JobState>> {
        let kind = JobKind::Private {
            query: spec.query.clone(),
            sampling_rate: spec.sampling_rate,
            budget: spec.budget,
        };
        let mut job = JobState::new(kind, spec.occurrence, &self.inner.config);
        if self.inner.config.optimizer.prune_providers {
            job.pruned = self.inner.snapshot.pruned_flags(&spec.query);
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
    /// immediately — waiting for the allocation would block the
    /// submission and deadlock the all-pruned case, where no provider
    /// turn ever runs.
    fn answer_for_pruned(&self, job: &Arc<JobState>) {
        if !job.pruned.iter().any(|&p| p) {
            return;
        }
        obs::counter_add(
            obs::names::ENGINE_PRUNED_INLINE,
            job.pruned.iter().filter(|&&p| p).count() as u64,
        );
        let (query, budget) = job.private();
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
            if deliver_summary(job, id, summary, t.elapsed()) {
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

    /// Launches a private MIN/MAX, checked by whoever built it, at the
    /// coordinator's occurrence: every provider runs one
    /// Exponential-mechanism selection over the domain (from metadata
    /// alone) under its job-derived RNG, so extreme queries are
    /// deterministic and concurrent like every other job.
    pub(crate) fn launch_extreme(&self, spec: &ExtremeFragmentSpec) -> Result<PendingExtreme> {
        let kind = JobKind::Extreme {
            dim: spec.dim,
            extreme: spec.extreme,
            epsilon: spec.epsilon,
        };
        obs::counter_add(obs::names::ENGINE_EXTREMES, 1);
        let job = JobState::new(kind, spec.occurrence, &self.inner.config);
        Ok(PendingExtreme {
            job: self.launch(job)?,
        })
    }

    /// Launches a plain scan. It draws no noise, so it takes no
    /// occurrence.
    fn submit_plain(&self, query: &RangeQuery) -> Result<PendingPlain> {
        query.check_schema(&self.inner.schema)?;
        let kind = JobKind::Plain {
            query: query.clone(),
        };
        obs::counter_add(obs::names::ENGINE_PLAIN, 1);
        let job = self.launch(JobState::new(kind, 0, &self.inner.config))?;
        Ok(PendingPlain { job })
    }
}

/// Content hash of a private job — the coordinator's occurrence-ledger
/// key and the job's seed material.
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
pub(crate) fn extreme_content_hash(dim: usize, extreme: Extreme, epsilon: f64) -> u64 {
    JobKind::Extreme {
        dim,
        extreme,
        epsilon,
    }
    .content_hash()
}

/// The seed of a private job's aggregator: the lane beside the providers'
/// of the job `(seed, content, occurrence)` launches — what an SMC
/// release draws its shares and its single noise from.
pub(crate) fn aggregator_seed(seed: u64, content: u64, occurrence: u64) -> u64 {
    derive_seed(
        derive_seed(seed, content, CONTENT_LANE),
        occurrence,
        AGGREGATOR_LANE,
    )
}

/// A batch of private fragments in flight on one engine: summaries out,
/// allocation in, outcomes out, in batch order. Dropping it before the
/// allocation lands aborts its jobs, so the summary turns still queued
/// skip their work for a coordinator that gave up (a failed sibling
/// shard, a dropped connection). On a scoped engine
/// [`FragmentBatch::summaries`] runs the summary turns on the calling
/// thread and [`Self::outcomes`] the execute turns.
#[derive(Debug)]
pub(crate) struct LocalBatch {
    jobs: Vec<Arc<JobState>>,
    /// The engine's provider count: the length of every allocation slice.
    providers: usize,
    /// Fragments whose outcomes were read.
    gathered: usize,
}

impl LocalBatch {
    /// Blocks until the next fragment, in batch order, executed; returns
    /// its raw per-provider outcomes in local provider order and its
    /// slowest provider's execution time. An in-process value only: no
    /// `Wire` impl carries a [`LocalOutcome`], so a coordinator reads
    /// these only from an engine in its own process.
    pub(crate) fn outcomes(&mut self) -> Result<(Vec<LocalOutcome>, Duration)> {
        let job = self
            .jobs
            .get(self.gathered)
            .ok_or(CoreError::ProtocolViolation(
                "every fragment of the batch was gathered",
            ))?;
        self.gathered += 1;
        let progress = job.settle_done()?;
        let outcomes = progress
            .outcomes
            .iter()
            .map(|o| o.expect("all providers reported"))
            .collect();
        Ok((outcomes, progress.execution_time))
    }
}

impl FragmentBatch for LocalBatch {
    fn summaries(&mut self) -> Result<Vec<FragmentSummaries>> {
        self.jobs
            .iter()
            .map(|job| {
                let progress = job.settle(|p| p.summaries_done == job.n_providers)?;
                let summaries = progress
                    .summaries
                    .iter()
                    .map(|s| s.expect("all summaries delivered"))
                    .collect();
                Ok((summaries, progress.summary_time))
            })
            .collect()
    }

    /// The one check of an allocation's shape, before any fragment gets
    /// its slice: a refused batch holds no allocation. Each slice then
    /// moves into its fragment, which (on a pool) queues its execute
    /// turns once every summary is in.
    fn allocate(&mut self, allocations: Vec<Vec<u64>>) -> Result<()> {
        if allocations.len() != self.jobs.len() {
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
        self.jobs
            .iter()
            .zip(allocations)
            .try_for_each(|(job, allocation)| {
                let due = {
                    let mut progress = job.lock_progress();
                    if progress.allocations.is_some() {
                        return Err(CoreError::ProtocolViolation(
                            "fragment allocation delivered twice",
                        ));
                    }
                    progress.allocations = Some(Arc::new(allocation));
                    job.cond.notify_all();
                    progress.summaries_done == job.n_providers && progress.error.is_none()
                };
                if due {
                    queue(job, Turn::Execute, None)?;
                }
                Ok(())
            })
    }

    /// The next fragment's mergeable partial: its providers' released
    /// values, never their raw estimates. An SMC engine releases nothing
    /// per provider, so its fragments cannot leave the process.
    fn partial(&mut self) -> Result<FragmentPartial> {
        let (outcomes, execution) = self.outcomes()?;
        let rows = outcomes
            .iter()
            .map(|o| {
                let released = o.released.ok_or(CoreError::ProtocolViolation(
                    "fragment provider withheld its release (an SMC release is finalized only in process)",
                ))?;
                Ok(PartialRow {
                    released,
                    variance: o.variance,
                    approximated: o.approximated,
                    clusters_scanned: o.clusters_scanned as u64,
                    n_covering: o.n_covering as u64,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(FragmentPartial { rows, execution })
    }
}

impl Drop for LocalBatch {
    fn drop(&mut self) {
        // Abort an incomplete batch: its queued summary turns skip, and
        // its execute turns are never queued. Allocated fragments finish
        // on their own; failed ones are already settled.
        for job in &self.jobs {
            let mut progress = job.lock_progress();
            if progress.allocations.is_none() && progress.error.is_none() {
                job.fail(
                    &mut progress,
                    CoreError::ProtocolViolation("fragment aborted before allocation"),
                );
            }
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
        let progress = job.settle_done()?;
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

/// A private extreme query in flight on an engine.
#[derive(Debug)]
pub(crate) struct PendingExtreme {
    job: Arc<JobState>,
}

impl ExtremeReply for PendingExtreme {
    /// Blocks until every provider selected, then combines the per-provider
    /// DP selections by post-processing (max of outputs for MAX, min for
    /// MIN — Thm. 3.3, free).
    fn answer(&mut self) -> Result<(Value, Duration)> {
        let job = &self.job;
        let progress = job.settle_done()?;
        let JobKind::Extreme { extreme, .. } = &job.kind else {
            unreachable!("only extreme jobs resolve via PendingExtreme");
        };
        let selections = progress
            .outcomes
            .iter()
            .map(|o| o.expect("all providers reported").estimate as Value);
        let value = match extreme {
            Extreme::Max => selections.max(),
            Extreme::Min => selections.min(),
        }
        .expect("non-empty providers");
        Ok((value, progress.execution_time))
    }
}

/// A cloneable, thread-safe handle analysts use to submit queries to an
/// engine: the engine, and the one-shard coordinator in front of it. All
/// clones share one occurrence ledger (the coordinator's: the noise
/// derivation) and one executor.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    pub(crate) engine: Engine,
    coordinator: ShardedFederation,
}

impl EngineHandle {
    fn new(
        config: &FederationConfig,
        schema: &Schema,
        providers: &[DataProvider],
        executor: Executor,
    ) -> Self {
        let engine = Engine::new(config, schema, providers, executor);
        Self {
            coordinator: ShardedFederation::over_engine(engine.clone()),
            engine,
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

    /// The one-shard coordinator every plan and private query on this
    /// engine runs through.
    pub(crate) fn coordinator(&self) -> &ShardedFederation {
        &self.coordinator
    }

    /// The federation configuration the engine serves.
    pub fn config(&self) -> &FederationConfig {
        self.engine.config()
    }

    /// The public table schema.
    pub fn schema(&self) -> &Schema {
        self.engine.schema()
    }

    /// Number of providers behind this engine.
    pub fn n_providers(&self) -> usize {
        self.config().n_providers
    }

    /// The engine's public metadata snapshot: per-provider pruning bounds
    /// captured at start-up. Offline Algorithm 1 metadata only — reading
    /// (or publishing) it reveals nothing beyond the one-time metadata
    /// release the protocol already accounts for.
    pub fn meta_snapshot(&self) -> &MetaSnapshot {
        &self.engine.inner.snapshot
    }

    /// The default per-query budget from the configuration.
    pub fn default_budget(&self) -> Result<QueryBudget> {
        self.config().query_budget()
    }

    /// Submits one private query under the configured default budget.
    pub fn submit(&self, query: &RangeQuery, sampling_rate: f64) -> Result<ShardedSub> {
        let budget = self.default_budget()?;
        self.submit_with_budget(query, sampling_rate, &budget)
    }

    /// Submits one private query under an explicit per-query budget,
    /// through the engine's coordinator. The query is checked once,
    /// before any provider sees it, so a malformed query costs nothing.
    pub fn submit_with_budget(
        &self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
    ) -> Result<ShardedSub> {
        self.coordinator
            .submit_with_budget(query, sampling_rate, budget)
    }

    /// Runs one private query through the engine's coordinator — the
    /// next occurrence of its content, as [`Self::submit_with_budget`] —
    /// and answers with the in-process oracle's diagnostics. Only an
    /// engine in this process has them.
    pub fn run_oracle(
        &self,
        query: &RangeQuery,
        sampling_rate: f64,
        budget: &QueryBudget,
    ) -> Result<OracleAnswer> {
        self.submit_with_budget(query, sampling_rate, budget)?
            .wait_oracle()
    }

    /// Submits a plain (non-private, exact) execution of `query` on the
    /// same engine — the like-for-like baseline of the speed-up metric:
    /// both paths run on the same threads and are charged the slowest
    /// provider's time. It is not the protocol, so no coordinator takes
    /// part.
    pub fn submit_plain(&self, query: &RangeQuery) -> Result<PendingPlain> {
        self.engine.submit_plain(query)
    }
}

impl From<EngineHandle> for ShardedFederation {
    /// The engine's own one-shard coordinator, sharing its occurrence
    /// ledger.
    fn from(handle: EngineHandle) -> Self {
        handle.coordinator
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
        self.handle.engine.close();
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
impl LocalBatch {
    /// How many summary and execute turns fragment `index` ran.
    pub(crate) fn turns_run(&self, index: usize) -> (usize, usize) {
        let progress = self.jobs[index].lock_progress();
        (progress.summaries_done, progress.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregator;
    use crate::config::FederationConfig;
    use crate::shard::ShardBackend;
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

    fn batch() -> Vec<RangeQuery> {
        (0..6).map(|i| count_query(50 * i, 500 + 50 * i)).collect()
    }

    /// The oracle of one private query on `engine` at rate 0.2, under the
    /// default budget.
    fn oracle(engine: &EngineHandle, query: &RangeQuery) -> OracleAnswer {
        let budget = engine.default_budget().unwrap();
        engine.run_oracle(query, 0.2, &budget).unwrap()
    }

    #[test]
    fn scoped_engine_answers_are_consistent() {
        let fed = federation();
        let q = count_query(100, 800);
        let oracle = fed.with_engine(|engine| oracle(engine, &q));
        let ans = &oracle.answer;
        assert!(ans.value.is_finite());
        assert_eq!(ans.allocations.len(), 4);
        assert_eq!(oracle.smooth_ls.len(), 4);
        assert!(ans.clusters_scanned > 0);
        assert!(ans.covering_total >= ans.clusters_scanned);
        assert!((ans.cost.eps - 1.0).abs() < 1e-9);
        assert!(oracle.raw_estimate.is_finite());
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
        // Serial: each query waited before the next is submitted.
        // Concurrent: every query submitted before the first wait (on a
        // pool, the turns of all six interleave on the workers).
        let serial: Vec<_> =
            federation().with_engine(|engine| batch().iter().map(|q| oracle(engine, q)).collect());
        let concurrent: Vec<_> = {
            let engine = FederationEngine::start(federation());
            let handle = engine.handle();
            let pending: Vec<_> = batch()
                .iter()
                .map(|q| handle.submit(q, 0.2).unwrap())
                .collect();
            let answers = pending
                .into_iter()
                .map(|p| p.wait_oracle().unwrap())
                .collect();
            engine.shutdown();
            answers
        };
        assert_eq!(serial.len(), concurrent.len());
        for (a, b) in serial.iter().zip(&concurrent) {
            assert_eq!(a.answer.value, b.answer.value);
            assert_eq!(a.answer.allocations, b.answer.allocations);
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
        assert!(again.answer.value.is_finite());
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
            let ans = federation().run(&count_query(lo, hi), 0.2).unwrap();
            ans.answer.value - ans.raw_estimate
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
                        let ans = oracle(engine, &count_query(lo, 700));
                        (lo, ans.answer.value, ans.raw_estimate)
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
            let (a, b) = (oracle(engine, &q), oracle(engine, &q));
            (
                a.answer.value - a.raw_estimate,
                b.answer.value - b.raw_estimate,
            )
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

    /// The bits of an answer a byte-identity check compares.
    fn bits(oracle: &OracleAnswer) -> (u64, u64, Vec<u64>) {
        (
            oracle.answer.value.to_bits(),
            oracle.raw_estimate.to_bits(),
            oracle.answer.allocations.clone(),
        )
    }

    #[test]
    fn concurrent_waiters_on_a_shared_scoped_job_run_it_once() {
        let q = count_query(100, 800);
        let lone = federation().run(&q, 0.2).unwrap();
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
                            p.wait_oracle().unwrap()
                        })
                    })
                    .collect();
                waiters
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .collect::<Vec<_>>()
            });
            (answers, probe.turns_run())
        });
        assert_eq!(turns, (4, 4), "every provider's turns ran exactly once");
        for answer in &answers {
            assert_eq!(bits(answer), bits(&lone));
        }
    }

    #[test]
    fn a_scoped_batch_waited_in_reverse_matches_in_order_waits() {
        let in_order: Vec<_> = federation()
            .with_engine(|engine| batch().iter().map(|q| bits(&oracle(engine, q))).collect());
        let mut reversed: Vec<_> = federation().with_engine(|engine| {
            let pending: Vec<_> = batch()
                .iter()
                .map(|q| engine.submit(q, 0.2).unwrap())
                .collect();
            pending
                .into_iter()
                .rev()
                .map(|p| bits(&p.wait_oracle().unwrap()))
                .collect()
        });
        reversed.reverse();
        assert_eq!(reversed, in_order);
    }

    #[test]
    fn a_scoped_answer_dropped_unwaited_still_consumes_its_occurrence() {
        let q = count_query(100, 800);
        let second_draw = federation().with_engine(|engine| {
            oracle(engine, &q);
            oracle(engine, &q)
        });
        // The dropped job's execute turns never run, and the scope returns
        // without them.
        let after_drop = federation().with_engine(|engine| {
            drop(engine.submit(&q, 0.2).unwrap());
            oracle(engine, &q)
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
        fn run(engine: &EngineHandle) -> Vec<Vec<PartialRow>> {
            let budget = engine.default_budget().unwrap();
            let specs: Vec<_> = (0..4)
                .map(|i| FragmentSpec {
                    query: count_query(50 * i, 600 + 50 * i),
                    sampling_rate: 0.2,
                    budget,
                    occurrence: 0,
                })
                .collect();
            let mut batch = ShardBackend::begin(engine, &specs).unwrap();
            let allocations = batch
                .summaries()
                .unwrap()
                .iter()
                .map(|(summaries, _)| {
                    Aggregator::new(0, CostModel::zero())
                        .allocate(summaries, 0.2)
                        .unwrap()
                })
                .collect();
            batch.allocate(allocations).unwrap();
            (0..4).map(|_| batch.partial().unwrap().rows).collect()
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
        let inside = federation().run(&q, 0.2).unwrap();
        let mut fed = federation();
        let escaped = fed.with_engine(|engine| engine.submit(&q, 0.2).unwrap());
        fed.providers_mut()[0]
            .append_row(&Row::cell(vec![500, 50], 1))
            .unwrap();
        assert_ne!(fed.exact(&q), federation().exact(&q));
        assert_eq!(bits(&escaped.wait_oracle().unwrap()), bits(&inside));
    }
}
