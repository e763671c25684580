//! Live federation: streaming ingest with incremental metadata.
//!
//! The paper's offline phase (clustering + Algorithm 1 metadata) assumes a
//! frozen table. This module lets a provider keep accepting rows *while
//! serving queries*:
//!
//! - **Incremental maintenance.** Each appended row lands in the provider's
//!   open tail cluster ([`fedaqp_storage::ClusterStore::append_row`]) and
//!   bumps the Algorithm 1 tail counters in place
//!   ([`fedaqp_storage::ProviderMeta::append_row`]). On uncoarsened metadata
//!   this is property-tested byte-equivalent to a from-scratch recompute; on
//!   bucketed metadata the min/max stay exact while interior tails drift.
//! - **Staleness-bounded refresh.** A [`RefreshPolicy`] bounds that drift:
//!   once `max_stale_rows` rows or `max_stale_age` wall time accumulate
//!   since the last full recompute, the next ingest recomputes Algorithm 1
//!   metadata (plus the configured coarsening) on every provider, over the
//!   clusters as they stand — nothing is re-clustered.
//! - **One engine per epoch.** Every data **epoch** — the one
//!   [`LiveFederation::new`] starts and each one an accepted batch or a
//!   refresh advances to — gets one scoped [`EngineHandle`], built by the
//!   epoch's first plan over that epoch's providers, metadata snapshot and
//!   seed, with a fresh occurrence ledger: a plan repeated within an epoch
//!   draws its next occurrence, exactly as on a frozen server's long-lived
//!   engine.
//! - **Epoch-salted noise.** Every epoch re-derives the federation seed
//!   from the base seed and the epoch (SplitMix64 finalizer). Each epoch's
//!   fresh ledger starts every content at occurrence 0 again, so without
//!   the salt an analyst could replay the same query before and after an
//!   ingest, get *identical* noise on *different* data, and subtract it —
//!   a differencing attack. Epoch 0 keeps the base seed bit-for-bit, so a
//!   frozen federation stays byte-identical to every other deployment of
//!   the same seed.
//! - **Snapshot consistency.** A plan runs on the handle it was submitted
//!   to ([`LiveFederation::with_engine`]), so it reads one epoch from
//!   start to finish. An ingest lets go of the current epoch's handle
//!   before it touches the providers: they change in place when no plan
//!   holds that epoch any more, and are copied first when one still does
//!   — that plan finishes on the epoch it started in. The copy is shallow:
//!   every cluster and its metadata stay shared behind their `Arc`s, and
//!   an append copies only the tail cluster it touches. An ingest therefore
//!   never waits for a plan, and a plan submitted after it returned sees
//!   the new epoch. The TCP server takes its lock only to clone the
//!   current epoch's handle or to apply one ingest.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fedaqp_model::Row;
use fedaqp_obs as obs;

use crate::engine::EngineHandle;
use crate::error::CoreError;
use crate::federation::Federation;
use crate::provider::DataProvider;
use crate::Result;

/// Bounds on how stale incrementally-maintained metadata may get before an
/// ingest forces a full Algorithm 1 recompute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshPolicy {
    /// Recompute after this many rows appended since the last refresh.
    pub max_stale_rows: usize,
    /// Recompute once this much wall time passed since the last refresh.
    pub max_stale_age: Duration,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        Self {
            max_stale_rows: 4096,
            max_stale_age: Duration::from_secs(60),
        }
    }
}

/// What one [`LiveFederation::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Rows appended (the whole batch, or zero — batches are atomic).
    pub accepted: u64,
    /// Data epoch after the ingest (bumped once per accepted batch).
    pub epoch: u64,
    /// Whether the staleness policy triggered a full metadata recompute.
    pub refreshed: bool,
}

/// A federation that accepts streaming ingest while serving queries.
#[derive(Debug)]
pub struct LiveFederation {
    federation: Federation,
    /// The current epoch's engine, once a plan asked for it.
    engine: OnceLock<EngineHandle>,
    policy: RefreshPolicy,
    base_seed: u64,
    /// The data epoch (0 until the first accepted batch).
    epoch: u64,
    /// Rows appended since the last full metadata recompute.
    stale_rows: usize,
    last_refresh: Instant,
}

/// SplitMix64 finalizer: derives the epoch-salted noise seed. Epoch 0 is
/// the identity so a never-ingested federation keeps its configured seed.
fn epoch_seed(base: u64, epoch: u64) -> u64 {
    if epoch == 0 {
        return base;
    }
    let mut z = base ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl LiveFederation {
    /// Wraps a built federation for live serving under `policy`.
    pub fn new(federation: Federation, policy: RefreshPolicy) -> Self {
        Self {
            base_seed: federation.config().seed,
            federation,
            engine: OnceLock::new(),
            policy,
            epoch: 0,
            stale_rows: 0,
            last_refresh: Instant::now(),
        }
    }

    /// Runs `f` against the current epoch's engine (see the module docs).
    /// A plan repeated within one epoch is its next occurrence and draws
    /// fresh noise, as on a frozen server; a clone of the handle keeps
    /// answering from its epoch after the next ingest.
    pub fn with_engine<R>(&self, f: impl FnOnce(&EngineHandle) -> R) -> R {
        f(self.engine.get_or_init(|| self.federation.scoped_engine()))
    }

    /// Appends `rows` to `provider`'s live store.
    ///
    /// The batch is atomic: every row is schema-checked *before* anything
    /// mutates, so a bad batch is rejected whole (no partial appends, no
    /// epoch bump). An accepted batch maintains the metadata incrementally,
    /// bumps the data epoch, re-salts the noise seed, and — if the
    /// [`RefreshPolicy`] bounds are exceeded — recomputes Algorithm 1
    /// metadata from scratch on every provider.
    pub fn ingest(&mut self, provider: usize, rows: Vec<Row>) -> Result<IngestReport> {
        if provider >= self.federation.providers().len() {
            return Err(CoreError::BadConfig("ingest provider id out of range"));
        }
        if rows.is_empty() {
            return Ok(IngestReport {
                accepted: 0,
                epoch: self.epoch,
                refreshed: false,
            });
        }
        for row in &rows {
            self.federation.schema().check_row(row)?;
        }
        let accepted = rows.len() as u64;
        let target = &mut self.next_epoch()[provider];
        for row in &rows {
            target.append_row(row)?;
        }
        obs::counter_add(obs::names::STREAM_INGESTED_ROWS, accepted);
        self.stale_rows += accepted as usize;
        let refreshed = self.stale_rows >= self.policy.max_stale_rows
            || self.last_refresh.elapsed() >= self.policy.max_stale_age;
        if refreshed {
            self.recompute_meta();
        }
        Ok(IngestReport {
            accepted,
            epoch: self.epoch,
            refreshed,
        })
    }

    /// Forces a full Algorithm 1 recompute now, regardless of staleness.
    /// Counts as a new epoch (the metadata — hence the sampling
    /// distribution — changes, so the noise seed is re-salted too).
    pub fn refresh(&mut self) {
        self.next_epoch();
        self.recompute_meta();
    }

    /// Enters the next epoch and hands out its providers to change. The
    /// old epoch's engine goes first, so the providers are copied only
    /// while a plan still holds that epoch (which finishes on it); the new
    /// epoch's engine, over a fresh occurrence ledger and the re-salted
    /// seed, is built by the first plan that asks for it.
    fn next_epoch(&mut self) -> &mut [DataProvider] {
        self.engine.take();
        self.epoch += 1;
        self.federation
            .set_seed(epoch_seed(self.base_seed, self.epoch));
        self.federation.providers_mut()
    }

    fn recompute_meta(&mut self) {
        obs::counter_add(obs::names::STREAM_REFRESHES, 1);
        let config = self.federation.config().clone();
        for p in self.federation.providers_mut() {
            p.rebuild_meta(&config);
        }
        self.stale_rows = 0;
        self.last_refresh = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::plan::{PlanAnswer, PlanResult};
    use fedaqp_model::{Aggregate, Dimension, Domain, QueryPlan, Range, RangeQuery, Schema};
    use fedaqp_storage::ProviderMeta;

    fn schema() -> Schema {
        Schema::new(vec![Dimension::new("x", Domain::new(0, 99).unwrap())]).unwrap()
    }

    fn federation(metadata_buckets: Option<usize>) -> Federation {
        let partitions: Vec<Vec<Row>> = (0..2)
            .map(|p| {
                (0..600)
                    .map(|i| Row::cell(vec![((i * 7 + p) % 100) as i64], 1))
                    .collect()
            })
            .collect();
        let mut cfg = FederationConfig::paper_default(32);
        cfg.n_providers = 2;
        cfg.cost_model = fedaqp_smc::CostModel::zero();
        cfg.metadata_buckets = metadata_buckets;
        Federation::build(cfg, schema(), partitions).unwrap()
    }

    fn query() -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, 10, 80).unwrap()]).unwrap()
    }

    #[test]
    fn frozen_federation_keeps_base_seed() {
        let fed = federation(None);
        let base = fed.config().seed;
        let live = LiveFederation::new(fed, RefreshPolicy::default());
        assert_eq!(live.epoch, 0);
        assert_eq!(live.federation.config().seed, base);
        assert_eq!(epoch_seed(base, 0), base);
    }

    #[test]
    fn ingest_appends_rows_and_maintains_exact_metadata() {
        let mut live = LiveFederation::new(federation(None), RefreshPolicy::default());
        let before = live.federation.exact(&query());
        let rows: Vec<Row> = (0..40)
            .map(|i| Row::cell(vec![(i % 71) as i64], 1))
            .collect();
        let report = live.ingest(0, rows).unwrap();
        assert_eq!(report.accepted, 40);
        assert_eq!(report.epoch, 1);
        assert!(!report.refreshed);
        assert!(live.federation.exact(&query()) > before);
        // Uncoarsened incremental metadata is exactly a full recompute.
        let agreed_s = live.federation.config().agreed_s;
        for p in live.federation.providers() {
            assert_eq!(p.meta(), &ProviderMeta::build(p.store(), agreed_s));
        }
        // Queries still run through the engine on the new version.
        let budget = live.federation.default_budget().unwrap();
        let ans = live
            .federation
            .with_engine(|engine| engine.submit_with_budget(&query(), 0.3, &budget)?.wait())
            .unwrap();
        assert!(ans.value.is_finite());
    }

    #[test]
    fn ingest_bumps_epoch_and_resalts_seed() {
        let mut live = LiveFederation::new(federation(None), RefreshPolicy::default());
        let base = live.federation.config().seed;
        live.ingest(1, vec![Row::cell(vec![5], 1)]).unwrap();
        assert_eq!(live.epoch, 1);
        let salted = live.federation.config().seed;
        assert_ne!(salted, base);
        assert_eq!(salted, epoch_seed(base, 1));
        live.ingest(1, vec![Row::cell(vec![6], 1)]).unwrap();
        assert_eq!(live.federation.config().seed, epoch_seed(base, 2));
    }

    #[test]
    fn row_bound_triggers_full_recompute_on_coarse_metadata() {
        let policy = RefreshPolicy {
            max_stale_rows: 5,
            max_stale_age: Duration::from_secs(3600),
        };
        let mut live = LiveFederation::new(federation(Some(4)), policy);
        let r1 = live
            .ingest(0, (0..3).map(|i| Row::cell(vec![i], 1)).collect())
            .unwrap();
        assert!(!r1.refreshed);
        assert_eq!(live.stale_rows, 3);
        let r2 = live
            .ingest(0, (0..3).map(|i| Row::cell(vec![i + 10], 1)).collect())
            .unwrap();
        assert!(r2.refreshed);
        assert_eq!(live.stale_rows, 0);
        // After the refresh the metadata is exactly the from-scratch
        // coarsened build — no residual drift.
        let cfg = live.federation.config().clone();
        for p in live.federation.providers() {
            let full = ProviderMeta::build(p.store(), cfg.agreed_s);
            assert_eq!(p.meta(), &full.coarsened(cfg.metadata_buckets.unwrap()));
        }
    }

    #[test]
    fn age_bound_triggers_full_recompute() {
        let policy = RefreshPolicy {
            max_stale_rows: usize::MAX,
            max_stale_age: Duration::ZERO,
        };
        let mut live = LiveFederation::new(federation(None), policy);
        let report = live.ingest(0, vec![Row::cell(vec![7], 1)]).unwrap();
        assert!(report.refreshed);
        assert_eq!(live.stale_rows, 0);
    }

    #[test]
    fn manual_refresh_counts_as_an_epoch() {
        let mut live = LiveFederation::new(federation(Some(4)), RefreshPolicy::default());
        let base = live.federation.config().seed;
        live.refresh();
        assert_eq!(live.epoch, 1);
        assert_eq!(live.federation.config().seed, epoch_seed(base, 1));
    }

    #[test]
    fn bad_batches_are_rejected_atomically() {
        let mut live = LiveFederation::new(federation(None), RefreshPolicy::default());
        let before = live.federation.exact(&query());
        // Unknown provider.
        assert!(live.ingest(9, vec![Row::cell(vec![5], 1)]).is_err());
        // Second row violates the schema: whole batch refused, nothing
        // appended, epoch unchanged.
        let bad = vec![Row::cell(vec![5], 1), Row::cell(vec![500], 1)];
        assert!(live.ingest(0, bad).is_err());
        assert_eq!(live.epoch, 0);
        assert_eq!(live.federation.exact(&query()), before);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut live = LiveFederation::new(federation(None), RefreshPolicy::default());
        let report = live.ingest(0, vec![]).unwrap();
        assert_eq!(
            report,
            IngestReport {
                accepted: 0,
                epoch: 0,
                refreshed: false
            }
        );
    }

    #[test]
    fn scopes_share_one_occurrence_ledger_per_epoch() {
        let mut live = LiveFederation::new(federation(None), RefreshPolicy::default());
        let value = |live: &LiveFederation| {
            live.with_engine(|engine| engine.submit(&query(), 0.3)?.wait())
                .unwrap()
                .value
                .to_bits()
        };
        let (first, repeat) = (value(&live), value(&live));
        assert_ne!(first, repeat, "a repeat within an epoch is occurrence 1");
        let frozen = federation(None);
        let frozen_pair = frozen.with_engine(|engine| {
            [0, 1].map(|_| {
                engine
                    .submit(&query(), 0.3)
                    .unwrap()
                    .wait()
                    .unwrap()
                    .value
                    .to_bits()
            })
        });
        assert_eq!([first, repeat], frozen_pair);
        // A new epoch starts the ledger over: its first answer is
        // occurrence 0 under the new salt.
        live.refresh();
        let fresh_epoch = value(&live);
        let mut twin = LiveFederation::new(federation(None), RefreshPolicy::default());
        twin.refresh();
        assert_eq!(fresh_epoch, value(&twin));
    }

    /// A handle taken before an ingest answers its plan on the data and
    /// seed of its own epoch, even when that plan is waited after the
    /// ingest moved the federation on.
    #[test]
    fn an_epochs_engine_answers_from_its_epoch_after_the_next_ingest() {
        let plan = QueryPlan::Scalar {
            query: query(),
            sampling_rate: 0.3,
            epsilon: 1.0,
            delta: 1e-6,
        };
        let released = |answer: PlanAnswer| match answer.result {
            PlanResult::Value {
                value,
                ci_halfwidth,
            } => (value.to_bits(), ci_halfwidth.map(f64::to_bits)),
            other => panic!("expected a scalar result, got {other:?}"),
        };
        let batch = || -> Vec<Row> { (0..40).map(|i| Row::cell(vec![20 + i % 50], 1)).collect() };
        let mut live = LiveFederation::new(federation(None), RefreshPolicy::default());
        let epoch0 = live.with_engine(EngineHandle::clone);
        let pending = epoch0.submit_plan(&plan).unwrap();
        let before = live.federation.exact(&query());
        live.ingest(0, batch()).unwrap();
        assert_ne!(live.federation.exact(&query()), before);
        let frozen = federation(None)
            .with_engine(|engine| engine.run_plan(&plan))
            .unwrap();
        assert_eq!(released(pending.wait().unwrap()), released(frozen));
        // A plan submitted after the ingest runs on the new epoch.
        let after = live.with_engine(|engine| engine.run_plan(&plan)).unwrap();
        let mut twin = LiveFederation::new(federation(None), RefreshPolicy::default());
        twin.ingest(0, batch()).unwrap();
        let twin_answer = twin.with_engine(|engine| engine.run_plan(&plan)).unwrap();
        assert_eq!(released(after), released(twin_answer));
    }

    #[test]
    fn epoch_seed_is_stable_and_well_spread() {
        assert_eq!(epoch_seed(0xFEDA, 0), 0xFEDA);
        let a = epoch_seed(0xFEDA, 1);
        let b = epoch_seed(0xFEDA, 2);
        assert_ne!(a, b);
        assert_eq!(a, epoch_seed(0xFEDA, 1));
    }
}
