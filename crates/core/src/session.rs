//! Analyst sessions: the interactive query interface of §5.4.
//!
//! "In the online query answering settings under DP, the end user is
//! limited by a total privacy budget of (ξ, ψ). … The analyst can continue
//! sending queries until their total budget is consumed." A [`Session`]
//! bundles a coordinator ([`ShardedFederation`]) with a
//! [`SharedAccountant`] and charges every
//! query *before* touching data. Two budget plans are offered:
//!
//! * [`SessionPlan::PayAsYouGo`] — every query costs the federation's
//!   configured `(ε, δ)` under plain sequential composition.
//! * [`SessionPlan::AdvancedComposition`] — the analyst pre-declares how
//!   many queries the session will serve; each gets the (larger) per-query
//!   budget of §6.6's advanced composition.

use fedaqp_dp::{advanced_per_query, PrivacyCost, QueryBudget, SharedAccountant};
use fedaqp_model::{QueryPlan, RangeQuery};

use crate::optimizer::PlanExplanation;
use crate::plan::{check_sub, compile, PendingPlan, PlanAnswer, ShardedAnswer};
use crate::shard::{ShardedFederation, ShardedSub};
use crate::{CoreError, Result};

/// How the session stretches the analyst's `(ξ, ψ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionPlan {
    /// Each query spends the federation's default `(ε, δ)`; the session
    /// ends when the accountant rejects the next charge.
    PayAsYouGo,
    /// The session pre-plans `n` queries under advanced composition; each
    /// query gets `ε = ξ/(2√(2n·ln(1/δ)))`, `δ = ψ/n`.
    AdvancedComposition {
        /// The declared number of queries.
        planned_queries: u64,
    },
}

/// An analyst session over a coordinator — an engine's own
/// ([`crate::EngineHandle`] converts into it) or a sharded one: the §5.4
/// budget semantics, safe to clone across analyst threads. In a sharded
/// deployment it is the single ξ authority (downstream shards run
/// fragments budget-unchecked).
///
/// This is the one enforcement site of the budget discipline: compile
/// (which validates) → charge → submit. The accountant sits behind a
/// [`SharedAccountant`], so the affordability check and the charge are
/// one atomic step: N racing queries can never jointly drive the session
/// past its `(ξ, ψ)` — losers of the race are rejected *before* any
/// provider touches data. A charge
/// is kept even if the query subsequently fails downstream (fail-closed,
/// the conservative direction for privacy: a mid-plan shard failure must
/// not refund, because released fragments may already have leaked their
/// sub-answers' budget worth).
#[derive(Debug, Clone)]
pub struct Session {
    backend: ShardedFederation,
    accountant: SharedAccountant,
    plan: SessionPlan,
    per_query: QueryBudget,
}

impl Session {
    /// Opens a session with total budget `(xi, psi)` under `plan`.
    pub fn open(
        backend: impl Into<ShardedFederation>,
        xi: f64,
        psi: f64,
        plan: SessionPlan,
    ) -> Result<Self> {
        let accountant = SharedAccountant::new(xi, psi).map_err(CoreError::Dp)?;
        Self::open_with_accountant(backend, accountant, plan)
    }

    /// Opens a session over an externally owned ledger.
    ///
    /// A serving endpoint keys ledgers by analyst identity (e.g. through a
    /// [`fedaqp_dp::BudgetDirectory`]) so that reconnecting — or opening
    /// several parallel connections — can never reset or multiply an
    /// analyst's `(ξ, ψ)`: every session opened on the same accountant
    /// charges the same atomic ledger.
    pub fn open_with_accountant(
        backend: impl Into<ShardedFederation>,
        accountant: SharedAccountant,
        plan: SessionPlan,
    ) -> Result<Self> {
        let backend = backend.into();
        let config = backend.config();
        let per_query = match plan {
            SessionPlan::PayAsYouGo => config.query_budget()?,
            SessionPlan::AdvancedComposition { planned_queries } => {
                let total = accountant.total();
                let per = advanced_per_query(total.eps, total.delta, planned_queries)?;
                QueryBudget::split(per.eps, per.delta, config.hyperparams)?
            }
        };
        Ok(Self {
            backend,
            accountant,
            plan,
            per_query,
        })
    }

    /// The session's budget plan.
    #[inline]
    pub fn plan(&self) -> SessionPlan {
        self.plan
    }

    /// The `(ε, δ)` each scalar query costs under this session's plan.
    pub fn per_query_cost(&self) -> PrivacyCost {
        self.per_query.cost()
    }

    /// Remaining total budget.
    pub fn remaining(&self) -> PrivacyCost {
        self.accountant.remaining()
    }

    /// The budget consumed so far.
    pub fn spent(&self) -> PrivacyCost {
        self.accountant.spent()
    }

    /// Queries answered so far (successfully charged).
    pub fn queries_answered(&self) -> u64 {
        self.accountant.queries_answered()
    }

    /// Whether another query of this session's cost still fits (advisory:
    /// the authoritative gate is the atomic charge inside [`Self::submit`]).
    pub fn can_query(&self) -> bool {
        self.accountant.can_afford(self.per_query.cost())
    }

    /// The coordinator this session queries through.
    pub fn handle(&self) -> &ShardedFederation {
        &self.backend
    }

    /// The shared ledger this session charges.
    pub fn accountant(&self) -> &SharedAccountant {
        &self.accountant
    }

    /// Atomically charges the session budget, then submits the query to
    /// the backend *without* waiting for the answer. Submitting a whole
    /// batch before the first wait lets the worker pool pipeline one
    /// analyst's queries.
    ///
    /// A request the backend would reject up front (bad sampling rate,
    /// unknown dimension) is checked, once, *before* the charge — it
    /// touches no data, so it must not cost budget. Once a query is
    /// dispatched, the charge is kept even if it later fails downstream
    /// (fail-closed).
    pub fn submit(&self, query: &RangeQuery, sampling_rate: f64) -> Result<ShardedSub> {
        check_sub(self.backend.schema(), query, sampling_rate, &self.per_query)?;
        self.accountant
            .charge(self.per_query.cost())
            .map_err(CoreError::Dp)?;
        self.backend
            .submit_checked(query, sampling_rate, &self.per_query)
    }

    /// Answers one private query, atomically charging the session budget
    /// first.
    pub fn query(&self, query: &RangeQuery, sampling_rate: f64) -> Result<ShardedAnswer> {
        self.submit(query, sampling_rate)?.wait()
    }

    /// Compiles `plan` once, atomically charges its *entire* declared
    /// [`QueryPlan::total_cost`], then submits every compiled sub-query
    /// without waiting — so a group-by's per-group queries pipeline on
    /// the worker pool while the budget ledger already covers all of them
    /// (racing plans cannot jointly overspend `(ξ, ψ)`, and a plan can
    /// never be half-charged).
    ///
    /// Compiling validates, so a plan the backend would reject fails
    /// *before* the charge — it touches no data, so it must not cost
    /// budget. Once dispatched, the whole charge is kept even if a
    /// sub-query later fails or a shard drops mid-plan (fail-closed —
    /// pinned by tests).
    ///
    /// A plan always charges its *declared* cost: unlike [`Self::submit`],
    /// whose per-query `(ε, δ)` comes from the session's [`SessionPlan`]
    /// (including the advanced-composition discount), a [`QueryPlan`] is a
    /// self-contained privacy contract and spends exactly
    /// [`QueryPlan::total_cost`] regardless of the plan the session was
    /// opened with — the sequential-composition accounting, which is never
    /// an undercharge.
    pub fn submit_plan(&self, plan: &QueryPlan) -> Result<PendingPlan> {
        let compiled = compile(&self.backend, plan)?;
        self.accountant
            .charge(compiled.cost)
            .map_err(CoreError::Dp)?;
        compiled.submit(&self.backend)
    }

    /// Answers one plan, atomically charging its whole cost first.
    pub fn run_plan(&self, plan: &QueryPlan) -> Result<PlanAnswer> {
        self.submit_plan(plan)?.wait()
    }

    /// `EXPLAIN` through a budgeted session — charges **nothing**. The
    /// explanation conditions only on the analyst's own plan and on public
    /// offline metadata (same rationale as validate-before-charge: a
    /// request that touches no data must not cost budget), so an analyst
    /// can inspect pruning/dedup/ordering decisions before committing
    /// their `(ξ, ψ)` to the plan itself.
    pub fn explain_plan(&self, plan: &QueryPlan) -> Result<PlanExplanation> {
        self.backend.explain_plan(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::federation::Federation;
    use fedaqp_model::{Aggregate, DerivedStatistic, Dimension, Domain, Range, Row, Schema};

    fn federation(epsilon: f64) -> Federation {
        let schema = Schema::new(vec![Dimension::new("x", Domain::new(0, 99).unwrap())]).unwrap();
        let partitions: Vec<Vec<Row>> = (0..4)
            .map(|p| {
                (0..500)
                    .map(|i| Row::cell(vec![((i * 7 + p) % 100) as i64], 1))
                    .collect()
            })
            .collect();
        let mut cfg = FederationConfig::paper_default(32);
        cfg.epsilon = epsilon;
        cfg.cost_model = fedaqp_smc::CostModel::zero();
        Federation::build(cfg, schema, partitions).unwrap()
    }

    fn query() -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, 10, 90).unwrap()]).unwrap()
    }

    #[test]
    fn pay_as_you_go_exhausts_after_xi_over_eps_queries() {
        federation(1.0).with_engine(|engine| {
            let session =
                Session::open(engine.clone(), 3.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
            let mut answered = 0;
            while session.can_query() {
                session.query(&query(), 0.2).unwrap();
                answered += 1;
                assert!(answered < 50);
            }
            assert_eq!(answered, 3);
            assert!(session.query(&query(), 0.2).is_err());
            assert_eq!(session.queries_answered(), 3);
        });
    }

    #[test]
    fn advanced_plan_gives_larger_per_query_epsilon() {
        let n = 1000u64;
        let per_query = federation(1.0).with_engine(|engine| {
            Session::open(
                engine.clone(),
                10.0,
                1e-4,
                SessionPlan::AdvancedComposition { planned_queries: n },
            )
            .unwrap()
            .per_query_cost()
        });
        let seq_eps = 10.0 / n as f64;
        assert!(
            per_query.eps > seq_eps,
            "advanced {} should beat sequential {seq_eps}",
            per_query.eps
        );
    }

    #[test]
    fn failed_charge_leaves_budget_untouched() {
        federation(5.0).with_engine(|engine| {
            let session =
                Session::open(engine.clone(), 1.0, 1e-3, SessionPlan::PayAsYouGo).unwrap();
            // ε per query = 5 > ξ = 1: first query already unaffordable.
            assert!(!session.can_query());
            assert!(session.query(&query(), 0.2).is_err());
            assert_eq!(session.remaining().eps, 1.0);
        });
    }

    #[test]
    fn derived_queries_charge_multiples() {
        // A derived statistic is a plan: it charges its declared total —
        // here two sub-queries at the session's per-query ε.
        federation(1.0).with_engine(|engine| {
            let session =
                Session::open(engine.clone(), 10.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
            let per_query = session.per_query_cost();
            let before = session.remaining().eps;
            session
                .run_plan(&QueryPlan::Derived {
                    query: query(),
                    statistic: DerivedStatistic::Average,
                    sampling_rate: 0.2,
                    epsilon: 2.0 * per_query.eps,
                    delta: 2.0 * per_query.delta,
                })
                .unwrap();
            let after = session.remaining().eps;
            assert!(
                (before - after - 2.0).abs() < 1e-9,
                "charged {}",
                before - after
            );
        });
    }

    #[test]
    fn sessions_on_one_accountant_share_the_ledger() {
        // Two "connections" of one analyst: sessions opened over the same
        // shared accountant cannot jointly overspend its (ξ, ψ).
        let fed = federation(1.0);
        fed.with_engine(|engine| {
            let ledger = SharedAccountant::new(2.0, 1e-2).unwrap();
            let s1 = Session::open_with_accountant(
                engine.clone(),
                ledger.clone(),
                SessionPlan::PayAsYouGo,
            )
            .unwrap();
            let s2 = Session::open_with_accountant(engine.clone(), ledger, SessionPlan::PayAsYouGo)
                .unwrap();
            s1.query(&query(), 0.2).unwrap();
            s2.query(&query(), 0.2).unwrap();
            assert!(s1.query(&query(), 0.2).is_err());
            assert!(s2.query(&query(), 0.2).is_err());
            assert_eq!(s1.queries_answered(), 2);
            assert!((s2.accountant().spent().eps - 2.0).abs() < 1e-9);
        });
    }

    #[test]
    fn submit_charges_before_waiting() {
        let fed = federation(1.0);
        fed.with_engine(|engine| {
            let session =
                Session::open(engine.clone(), 1.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
            let pending = session.submit(&query(), 0.2).unwrap();
            // The charge landed at submission time, before the wait.
            assert!((session.spent().eps - 1.0).abs() < 1e-9);
            assert!(pending.wait().unwrap().value.is_finite());
            assert!(session.submit(&query(), 0.2).is_err());
        });
    }

    #[test]
    fn rejected_submissions_cost_no_budget() {
        // A request the engine rejects up front touches no data, so the
        // session must not charge for it — otherwise a couple of typos
        // (sampling rate 1.5, a bogus dimension) would burn a remote
        // analyst's whole ξ with zero queries answered.
        let fed = federation(1.0);
        fed.with_engine(|engine| {
            let session =
                Session::open(engine.clone(), 2.0, 1e-2, SessionPlan::PayAsYouGo).unwrap();
            assert!(matches!(
                session.submit(&query(), 1.5),
                Err(CoreError::InvalidSamplingRate(_))
            ));
            let bad_dim =
                RangeQuery::new(Aggregate::Count, vec![Range::new(9, 0, 1).unwrap()]).unwrap();
            assert!(session.submit(&bad_dim, 0.2).is_err());
            assert_eq!(session.spent().eps, 0.0);
            assert_eq!(session.queries_answered(), 0);
            // The budget is still whole: both valid queries fit.
            session.query(&query(), 0.2).unwrap();
            session.query(&query(), 0.2).unwrap();
        });
    }

    #[test]
    fn close_reports_spend() {
        // The ledger outlives the engine scope the session queried through.
        let ledger = SharedAccountant::new(5.0, 1e-2).unwrap();
        federation(1.0).with_engine(|engine| {
            Session::open_with_accountant(engine.clone(), ledger.clone(), SessionPlan::PayAsYouGo)
                .unwrap()
                .query(&query(), 0.2)
                .unwrap();
        });
        assert!((ledger.spent().eps - 1.0).abs() < 1e-9);
    }
}
