//! End-to-end attack orchestration against a federation (§6.6, Table 1).

use fedaqp_core::Federation;
use fedaqp_dp::{advanced_per_query, sequential_per_query, PrivacyCost, QueryBudget};
use fedaqp_model::{Aggregate, Row};

use crate::nbc::NbcModel;
use crate::plan::build_plan;
use crate::Result;

/// How the attacker stretches the total budget `(ξ, ψ)` across the
/// training queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionRegime {
    /// Sequential composition: `ε = ξ/n`, `δ = ψ/n` per query.
    Sequential,
    /// Advanced composition (§6.6): `ε = ξ/(2√(2n·ln(1/δ)))`, `δ = ψ/n` —
    /// more per-query budget, hence the stronger attack variant.
    Advanced,
    /// A coalition of `n` single-query attackers: each query enjoys the
    /// *full* `(ξ, ψ)` (parallel composition across attackers).
    Coalition,
}

/// Attack configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Sensitive-attribute dimension index.
    pub sa_dim: usize,
    /// Quasi-identifier dimension indices.
    pub qi_dims: Vec<usize>,
    /// Total attacker budget ξ.
    pub xi: f64,
    /// Total attacker budget ψ.
    pub psi: f64,
    /// Budget-stretching regime.
    pub regime: CompositionRegime,
    /// COUNT or SUM training queries (Table 1 evaluates both).
    pub aggregate: Aggregate,
    /// Sampling rate the attacker requests from the AQP interface.
    pub sampling_rate: f64,
}

/// Result of an attack run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// NBC prediction accuracy over the original rows (§6.6 metric).
    pub accuracy: f64,
    /// Number of training queries issued.
    pub n_queries: u64,
    /// The per-query budget each training query enjoyed.
    pub per_query: PrivacyCost,
    /// `‖d_SA‖` — the chance-level accuracy is `1/classes`.
    pub classes: u64,
}

/// Per-query `(ε, δ)` under the regime.
pub fn per_query_budget(
    regime: CompositionRegime,
    xi: f64,
    psi: f64,
    n_queries: u64,
) -> Result<PrivacyCost> {
    Ok(match regime {
        CompositionRegime::Sequential => sequential_per_query(xi, psi, n_queries)?,
        CompositionRegime::Advanced => advanced_per_query(xi, psi, n_queries)?,
        CompositionRegime::Coalition => PrivacyCost {
            eps: xi,
            delta: psi,
        },
    })
}

/// Runs the full attack: plan the queries, stretch the budget, issue every
/// query through the *private* federation interface, train the NBC, and
/// measure its accuracy against the true rows.
///
/// `truth` is the union of the providers' cells (the evaluation target the
/// attacker is trying to reconstruct; it is an experiment oracle, never
/// shown to the classifier).
pub fn run_attack(
    federation: &mut Federation,
    truth: &[Row],
    cfg: &AttackConfig,
) -> Result<AttackOutcome> {
    let schema = federation.schema().clone();
    let plan = build_plan(&schema, cfg.sa_dim, &cfg.qi_dims, cfg.aggregate)?;
    let n_queries = plan.n_queries();
    let per_query = per_query_budget(cfg.regime, cfg.xi, cfg.psi, n_queries)?;
    // δ = 0 would break the smooth-sensitivity release; the accountant's ψ
    // is always positive in the Table 1 setting (ψ = 10⁻⁶).
    let budget = QueryBudget::paper_split(per_query.eps, per_query.delta)?;

    // One engine scope for the whole attack: a repeated training query
    // would be a later occurrence and face fresh noise, as on a server.
    let answers = federation.with_engine(|engine| {
        plan.queries
            .iter()
            .map(|(_, query)| {
                let pending = engine.submit_with_budget(query, cfg.sampling_rate, &budget)?;
                Ok(pending.wait()?.value)
            })
            .collect::<Result<Vec<f64>>>()
    })?;
    let model = NbcModel::train(&schema, &plan, &answers)?;
    let accuracy = model.accuracy(truth)?;
    Ok(AttackOutcome {
        accuracy,
        n_queries,
        per_query,
        classes: model.n_classes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_core::{FederationConfig, SensitivityRegime};
    use fedaqp_model::{Dimension, Domain, Schema};
    use fedaqp_smc::CostModel;
    use fedaqp_storage::PartitionStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small federated world where SA (0..9) is strongly correlated with
    /// one QI dimension.
    fn federation(seed: u64) -> (Federation, Vec<Row>) {
        let schema = Schema::new(vec![
            Dimension::new("sa", Domain::new(0, 9).unwrap()),
            Dimension::new("qi1", Domain::new(0, 9).unwrap()),
            Dimension::new("qi2", Domain::new(0, 4).unwrap()),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for _ in 0..4000 {
            let qi1 = rng.gen_range(0..10i64);
            // SA equals qi1 with probability 0.9 — learnable correlation.
            let sa = if rng.gen::<f64>() < 0.9 {
                qi1
            } else {
                rng.gen_range(0..10i64)
            };
            rows.push(Row::raw(vec![sa, qi1, rng.gen_range(0..5i64)]));
        }
        let mut cfg = FederationConfig::paper_default(64);
        cfg.cost_model = CostModel::zero();
        cfg.n_min = 2;
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

    fn attack_cfg(regime: CompositionRegime, xi: f64) -> AttackConfig {
        AttackConfig {
            sa_dim: 0,
            qi_dims: vec![1, 2],
            xi,
            psi: 1e-6,
            regime,
            aggregate: Aggregate::Count,
            sampling_rate: 0.2,
        }
    }

    #[test]
    fn per_query_budgets_ordered_as_expected() {
        // Coalition > Advanced > Sequential for large n.
        let n = 1000;
        let seq = per_query_budget(CompositionRegime::Sequential, 10.0, 1e-6, n).unwrap();
        let adv = per_query_budget(CompositionRegime::Advanced, 10.0, 1e-6, n).unwrap();
        let coal = per_query_budget(CompositionRegime::Coalition, 10.0, 1e-6, n).unwrap();
        assert!(seq.eps < adv.eps);
        assert!(adv.eps < coal.eps);
    }

    #[test]
    fn budget_limited_attack_is_near_chance() {
        let (mut fed, rows) = federation(1);
        // ξ = 1 over ~151 queries (10 classes, QI sizes 10 + 5) — per-query
        // ε ≈ 0.0066: answers are noise.
        let out = run_attack(
            &mut fed,
            &rows,
            &attack_cfg(CompositionRegime::Sequential, 1.0),
        )
        .unwrap();
        assert_eq!(out.classes, 10);
        assert_eq!(out.n_queries, 1 + 10 + 10 * (10 + 5));
        // Chance level is 10%; allow generous slack above it but nowhere
        // near the 90% the correlation would allow with clean data.
        assert!(
            out.accuracy < 0.35,
            "attack accuracy {} too high under tight budget",
            out.accuracy
        );
    }

    #[test]
    fn unbounded_budget_recovers_correlation() {
        // Sanity check of the attack harness itself: with an absurd budget
        // (ε per query in the thousands) the system's DP protection is
        // effectively off and the classifier must find the correlation.
        let (mut fed, rows) = federation(2);
        let out = run_attack(
            &mut fed,
            &rows,
            &attack_cfg(CompositionRegime::Coalition, 500_000.0),
        )
        .unwrap();
        assert!(
            out.accuracy > 0.5,
            "attack accuracy {} too low with unbounded budget",
            out.accuracy
        );
    }
}
