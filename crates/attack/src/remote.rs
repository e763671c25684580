//! The §6.6 NBC adversary as a *remote analyst*: the same probe workload
//! as [`crate::run_attack`], but issued through wire `Plan` frames
//! against a live [`fedaqp_net::FederationServer`] — the surface the
//! system actually ships.
//!
//! Two drivers:
//!
//! * [`run_remote_attack`] — one analyst identity, one connection,
//!   stretching its `(ξ, ψ)` across the whole probe plan under a
//!   [`CompositionRegime`](crate::CompositionRegime).
//! * [`run_coalition_attack`] — `k` analyst identities on `k` parallel
//!   connections, each holding its *own* server-side ledger and issuing a
//!   round-robin slice of the plan, with the observations pooled into one
//!   classifier. Besides modelling the paper's coalition adversary, this
//!   hammers [`fedaqp_dp::BudgetDirectory`]'s atomic cross-connection
//!   accounting with a workload that actually tries to learn something.
//!
//! Both report what the server's ledger says was spent, so callers can
//! assert the adversary could not be over- *or* under-charged.

use fedaqp_dp::PrivacyCost;
use fedaqp_model::{QueryPlan, RangeQuery, Row, Schema};
use fedaqp_net::RemoteFederation;

use crate::attack::{per_query_budget, AttackConfig};
use crate::nbc::NbcModel;
use crate::plan::{build_plan, AttackPlan};
use crate::{AttackError, Result};

/// Outcome of an over-the-wire attack run.
#[derive(Debug, Clone)]
pub struct RemoteAttackOutcome {
    /// NBC prediction accuracy over the true rows (§6.6 metric).
    pub accuracy: f64,
    /// ROC AUC of the binary-SA margin (`None` unless `‖d_SA‖ = 2` and
    /// both classes appear in the evaluation rows).
    pub auc: Option<f64>,
    /// Number of training queries issued across all members.
    pub n_queries: u64,
    /// The per-query budget each training query enjoyed.
    pub per_query: PrivacyCost,
    /// `‖d_SA‖` — chance-level accuracy is `1/classes`.
    pub classes: u64,
    /// Per analyst identity, the server ledger's view after the run:
    /// `(identity, ε spent, δ spent)`.
    pub spent: Vec<(String, f64, f64)>,
}

/// One plan query as the wire carries it: a scalar plan frame under an
/// explicit per-query `(ε, δ)`.
fn scalar_plan(query: &RangeQuery, cfg: &AttackConfig, per_query: PrivacyCost) -> QueryPlan {
    QueryPlan::Scalar {
        query: query.clone(),
        sampling_rate: cfg.sampling_rate,
        epsilon: per_query.eps,
        delta: per_query.delta,
    }
}

/// Issues one scalar plan and extracts the released value.
fn probe(
    remote: &mut RemoteFederation,
    query: &RangeQuery,
    cfg: &AttackConfig,
    per_query: PrivacyCost,
) -> Result<f64> {
    let answer = remote.run_plan(&scalar_plan(query, cfg, per_query))?;
    answer
        .value()
        .ok_or_else(|| AttackError::Net("scalar plan released no value".into()))
}

/// Reads the server ledger's view of `analyst`'s spend.
fn ledger_entry(remote: &mut RemoteFederation, analyst: &str) -> Result<(String, f64, f64)> {
    let status = remote.budget_status()?;
    Ok((analyst.to_owned(), status.spent_eps, status.spent_delta))
}

/// Trains the classifier from the pooled answers and evaluates it.
fn evaluate(
    schema: &Schema,
    plan: &AttackPlan,
    answers: &[f64],
    per_query: PrivacyCost,
    truth: &[Row],
    spent: Vec<(String, f64, f64)>,
) -> Result<RemoteAttackOutcome> {
    let model = NbcModel::train(schema, plan, answers)?;
    Ok(RemoteAttackOutcome {
        accuracy: model.accuracy(truth)?,
        auc: model.binary_auc(truth)?,
        n_queries: plan.n_queries(),
        per_query,
        classes: model.n_classes(),
        spent,
    })
}

/// Runs the attack as a single remote analyst: connect as `analyst`,
/// build the probe plan from the *served* schema, stretch `(ξ, ψ)`
/// across it under `cfg.regime`, issue every probe as a wire plan frame,
/// and train/evaluate the classifier on the pooled answers.
///
/// `truth` is the experiment oracle (the union of provider cells); it
/// never reaches the classifier's training side.
pub fn run_remote_attack(
    addr: &str,
    analyst: &str,
    truth: &[Row],
    cfg: &AttackConfig,
) -> Result<RemoteAttackOutcome> {
    let mut remote = RemoteFederation::connect_as(addr, analyst)?;
    let schema = remote.schema().clone();
    let plan = build_plan(&schema, cfg.sa_dim, &cfg.qi_dims, cfg.aggregate)?;
    let per_query = per_query_budget(cfg.regime, cfg.xi, cfg.psi, plan.n_queries())?;
    let mut answers = Vec::with_capacity(plan.queries.len());
    for (_, query) in &plan.queries {
        answers.push(probe(&mut remote, query, cfg, per_query)?);
    }
    let spent = vec![ledger_entry(&mut remote, analyst)?];
    evaluate(&schema, &plan, &answers, per_query, truth, spent)
}

/// Runs the coalition attack: `k` analyst identities
/// (`{prefix}-0 … {prefix}-{k-1}`) on `k` parallel connections, each
/// spending its own `(ξ, ψ)` ledger over a round-robin slice of the probe
/// plan (stretched under `cfg.regime` across the slice), pooling every
/// observation into one classifier.
///
/// With `k` ledgers the coalition enjoys `k·ξ` total budget — the privacy
/// claim under test is that the *per-release* noise still keeps the
/// pooled classifier at chance.
pub fn run_coalition_attack(
    addr: &str,
    prefix: &str,
    k: usize,
    truth: &[Row],
    cfg: &AttackConfig,
) -> Result<RemoteAttackOutcome> {
    if k == 0 {
        return Err(AttackError::Net(
            "coalition needs at least one member".into(),
        ));
    }
    // One probe connection to learn the served schema; the members then
    // connect under their own identities.
    let schema = RemoteFederation::connect_as(addr, &format!("{prefix}-schema"))?
        .schema()
        .clone();
    let plan = build_plan(&schema, cfg.sa_dim, &cfg.qi_dims, cfg.aggregate)?;
    // Every member stretches its full (ξ, ψ) across its own slice; slices
    // differ in length by at most one, so the largest fixes the uniform
    // per-query budget (members with a short slice underspend slightly).
    let slice_len = plan.n_queries().div_ceil(k as u64);
    let per_query = per_query_budget(cfg.regime, cfg.xi, cfg.psi, slice_len)?;
    // One member's contribution: (plan index, answer) observations plus
    // the (identity, spent ε, spent δ) ledger entry it ends with.
    type MemberResult = Result<(Vec<(usize, f64)>, (String, f64, f64))>;
    let member_results: Vec<MemberResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|member| {
                let plan = &plan;
                scope.spawn(move || {
                    let analyst = format!("{prefix}-{member}");
                    let mut remote = RemoteFederation::connect_as(addr, &analyst)?;
                    let mut observed = Vec::new();
                    for (i, (_, query)) in plan.queries.iter().enumerate().skip(member).step_by(k) {
                        observed.push((i, probe(&mut remote, query, cfg, per_query)?));
                    }
                    let ledger = ledger_entry(&mut remote, &analyst)?;
                    Ok((observed, ledger))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coalition member panicked"))
            .collect()
    });
    let mut answers = vec![f64::NAN; plan.queries.len()];
    let mut spent = Vec::with_capacity(k);
    for result in member_results {
        let (observed, ledger) = result?;
        for (i, value) in observed {
            answers[i] = value;
        }
        spent.push(ledger);
    }
    debug_assert!(answers.iter().all(|v| !v.is_nan()), "unprobed plan query");
    evaluate(&schema, &plan, &answers, per_query, truth, spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::CompositionRegime;
    use fedaqp_core::{Federation, FederationConfig, FederationEngine, SensitivityRegime};
    use fedaqp_model::{Aggregate, Dimension, Domain, Schema};
    use fedaqp_net::{FederationServer, ServeOptions};
    use fedaqp_smc::CostModel;
    use fedaqp_storage::PartitionStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A binary-SA world where SA tracks qi1's parity 85% of the time.
    fn world(seed: u64) -> (Federation, Vec<Row>) {
        let schema = Schema::new(vec![
            Dimension::new("sa", Domain::new(0, 1).unwrap()),
            Dimension::new("qi1", Domain::new(0, 7).unwrap()),
            Dimension::new("qi2", Domain::new(0, 3).unwrap()),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Row> = (0..3_000)
            .map(|_| {
                let qi1 = rng.gen_range(0..8i64);
                let sa = if rng.gen::<f64>() < 0.85 {
                    qi1 % 2
                } else {
                    rng.gen_range(0..2i64)
                };
                Row::raw(vec![sa, qi1, rng.gen_range(0..4i64)])
            })
            .collect();
        let mut cfg = FederationConfig::paper_default(48);
        cfg.seed = seed;
        cfg.n_min = 2;
        cfg.cost_model = CostModel::zero();
        cfg.partition_strategy = PartitionStrategy::SortedLex;
        cfg.sensitivity_regime = SensitivityRegime::QueryDims;
        let n = cfg.n_providers;
        let partitions: Vec<Vec<Row>> = (0..n)
            .map(|p| {
                rows.iter()
                    .enumerate()
                    .filter(|(i, _)| i % n == p)
                    .map(|(_, r)| r.clone())
                    .collect()
            })
            .collect();
        let fed = Federation::build(cfg, schema, partitions).unwrap();
        (fed, rows)
    }

    fn attack_cfg(xi: f64) -> AttackConfig {
        AttackConfig {
            sa_dim: 0,
            qi_dims: vec![1, 2],
            xi,
            psi: 1e-6,
            regime: CompositionRegime::Sequential,
            aggregate: Aggregate::Count,
            sampling_rate: 0.25,
        }
    }

    fn with_server<R>(seed: u64, options: ServeOptions, f: impl FnOnce(&str, &[Row]) -> R) -> R {
        let (fed, rows) = world(seed);
        let engine = FederationEngine::start(fed);
        let server =
            FederationServer::bind("127.0.0.1:0", engine.handle().clone(), options).unwrap();
        let addr = server.local_addr().to_string();
        let out = f(&addr, &rows);
        server.shutdown();
        engine.shutdown();
        out
    }

    #[test]
    fn single_analyst_attack_runs_over_the_wire() {
        let out = with_server(11, ServeOptions::unlimited(), |addr, rows| {
            run_remote_attack(addr, "red-team", rows, &attack_cfg(1.0)).unwrap()
        });
        // n = 1 + 2 + 2·(8 + 4) = 27 probes; binary SA ⇒ AUC defined.
        assert_eq!(out.n_queries, 27);
        assert_eq!(out.classes, 2);
        assert!((0.0..=1.0).contains(&out.accuracy));
        let auc = out.auc.expect("binary SA has an AUC");
        assert!((0.0..=1.0).contains(&auc));
        assert_eq!(out.spent.len(), 1);
    }

    #[test]
    fn coalition_pools_members_and_ledgers() {
        let out = with_server(12, ServeOptions::with_budget(2.0, 1e-5), |addr, rows| {
            run_coalition_attack(addr, "coalition", 3, rows, &attack_cfg(2.0)).unwrap()
        });
        assert_eq!(out.n_queries, 27);
        assert_eq!(out.spent.len(), 3);
        // Every member's ledger spend stays within its own (ξ, ψ): slices
        // are ⌈27/3⌉ = 9 probes at ξ/9 each.
        for (identity, eps, delta) in &out.spent {
            assert!(*eps <= 2.0 + 1e-9, "{identity} overspent ε: {eps}");
            assert!(*delta <= 1e-5 + 1e-12, "{identity} overspent δ: {delta}");
            assert!(*eps > 0.0, "{identity} spent nothing");
        }
    }

    #[test]
    fn remote_attack_matches_itself_bit_for_bit() {
        // Determinism over the wire: two fresh servers over the same seeded
        // world answer the probe workload identically, so the whole attack
        // outcome — accuracy and AUC included — reproduces exactly.
        let run = || {
            with_server(13, ServeOptions::unlimited(), |addr, rows| {
                run_remote_attack(addr, "red-team", rows, &attack_cfg(5.0)).unwrap()
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(
            a.auc.map(f64::to_bits),
            b.auc.map(f64::to_bits),
            "AUC must reproduce"
        );
    }

    #[test]
    fn coalition_is_order_independent() {
        // The k members race on parallel connections; the per-content
        // noise derivation makes the pooled outcome identical to a fresh
        // run regardless of interleaving.
        let run = || {
            with_server(14, ServeOptions::unlimited(), |addr, rows| {
                run_coalition_attack(addr, "coalition", 4, rows, &attack_cfg(5.0)).unwrap()
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(a.auc.map(f64::to_bits), b.auc.map(f64::to_bits));
    }

    #[test]
    fn zero_member_coalition_is_rejected() {
        let err = run_coalition_attack("127.0.0.1:1", "c", 0, &[], &attack_cfg(1.0)).unwrap_err();
        assert!(matches!(err, AttackError::Net(_)));
    }
}
