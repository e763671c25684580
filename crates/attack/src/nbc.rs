//! Discrete Naive Bayes classifier trained from (noisy) count answers.
//!
//! Prediction rule (§6.6):
//!
//! ```text
//! ŷ = argmax_y  P(y) · ∏_i P(v_i | y) / P(v_i)
//! ```
//!
//! with `P(y) = c(y)/N`, `P(v|y) = c(y,v)/c(y)`, and `P(v) = Σ_y c(y,v)/N`
//! — all assembled from the attack plan's counts. Scores are computed in
//! log space with Laplace-style smoothing so that noisy (possibly
//! negative) DP answers never produce NaNs.

use std::collections::HashMap;

use fedaqp_model::{Domain, Row, Schema, Value};

use crate::plan::{AttackPlan, PlannedCount};
use crate::{AttackError, Result};

/// Pseudocount keeping probabilities strictly positive under noise.
const SMOOTHING: f64 = 0.5;

/// A trained classifier.
#[derive(Debug, Clone)]
pub struct NbcModel {
    sa_dim: usize,
    sa_domain: Domain,
    qi_dims: Vec<(usize, Domain)>,
    /// `log P(y)` indexed by `y − sa_min`.
    log_prior: Vec<f64>,
    /// Per QI dim: `log (P(v|y)/P(v))` indexed `[y − sa_min][v − qi_min]`.
    log_likelihood_ratio: Vec<Vec<Vec<f64>>>,
}

impl NbcModel {
    /// Trains the classifier from the plan's answers (same order as
    /// `plan.queries`). Answers may be noisy and even negative.
    pub fn train(schema: &Schema, plan: &AttackPlan, answers: &[f64]) -> Result<Self> {
        if answers.len() != plan.queries.len() {
            return Err(AttackError::PlanMismatch {
                expected: plan.queries.len(),
                got: answers.len(),
            });
        }
        let sa_domain = schema.domain(plan.sa_dim)?;
        let k = sa_domain.size() as usize;
        let mut total = 0.0f64;
        let mut class = vec![0.0f64; k];
        // joint[qi][y][v]
        let mut joint: HashMap<usize, Vec<Vec<f64>>> = HashMap::new();
        let mut qi_dims = Vec::with_capacity(plan.qi_dims.len());
        for &qi in &plan.qi_dims {
            let dom = schema.domain(qi)?;
            qi_dims.push((qi, dom));
            joint.insert(qi, vec![vec![0.0; dom.size() as usize]; k]);
        }
        for ((what, _), &ans) in plan.queries.iter().zip(answers) {
            let ans = ans.max(0.0); // noisy answers clamp at zero mass
            match *what {
                PlannedCount::Total => total = ans,
                PlannedCount::Class { y } => {
                    class[(y - sa_domain.min()) as usize] = ans;
                }
                PlannedCount::Joint { y, qi_dim, v } => {
                    let dom = schema.domain(qi_dim)?;
                    joint.get_mut(&qi_dim).expect("planned qi dim")
                        [(y - sa_domain.min()) as usize][(v - dom.min()) as usize] = ans;
                }
            }
        }
        let total = total.max(1.0);

        // log P(y) with smoothing.
        let denom = total + SMOOTHING * k as f64;
        let log_prior: Vec<f64> = class
            .iter()
            .map(|&c| ((c + SMOOTHING) / denom).ln())
            .collect();

        // log (P(v|y)/P(v)).
        let mut log_likelihood_ratio = Vec::with_capacity(qi_dims.len());
        for &(qi, dom) in &qi_dims {
            let m = dom.size() as usize;
            let j = &joint[&qi];
            // Marginal c(v) = Σ_y c(y,v) — derived, no extra queries.
            let marginal: Vec<f64> = (0..m).map(|v| (0..k).map(|y| j[y][v]).sum()).collect();
            let mut per_dim = vec![vec![0.0f64; m]; k];
            for (y, row) in per_dim.iter_mut().enumerate() {
                let cy = class[y].max(0.0);
                for (v, cell) in row.iter_mut().enumerate() {
                    let p_v_given_y = (j[y][v] + SMOOTHING) / (cy + SMOOTHING * m as f64);
                    let p_v = (marginal[v] + SMOOTHING * k as f64)
                        / (total + SMOOTHING * k as f64 * m as f64);
                    *cell = (p_v_given_y / p_v).ln();
                }
            }
            log_likelihood_ratio.push(per_dim);
        }
        Ok(Self {
            sa_dim: plan.sa_dim,
            sa_domain,
            qi_dims,
            log_prior,
            log_likelihood_ratio,
        })
    }

    /// The classifier's log score for class index `y` on a row.
    fn class_score(&self, y: usize, values: &[Value]) -> f64 {
        let mut score = self.log_prior[y];
        for (i, &(qi, dom)) in self.qi_dims.iter().enumerate() {
            let v = values[qi];
            if dom.contains(v) {
                score += self.log_likelihood_ratio[i][y][(v - dom.min()) as usize];
            }
        }
        score
    }

    /// Predicts the sensitive value from a full row (QI values are read
    /// from the row's dimensions).
    fn predict(&self, values: &[Value]) -> Value {
        let k = self.sa_domain.size() as usize;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for y in 0..k {
            let score = self.class_score(y, values);
            if score > best_score {
                best_score = score;
                best = y;
            }
        }
        self.sa_domain.min() + best as Value
    }

    /// The log-score margin for the positive class of a *binary* SA,
    /// `score(y₁) − score(y₀)` — the continuous confidence an ROC curve
    /// thresholds over. `None` when the SA domain is not binary.
    fn binary_margin(&self, values: &[Value]) -> Option<f64> {
        if self.sa_domain.size() != 2 {
            return None;
        }
        Some(self.class_score(1, values) - self.class_score(0, values))
    }

    /// Measure-weighted ROC AUC of `binary_margin` over tensor
    /// cells (Mann–Whitney form, ties counted half). `Ok(None)` when the
    /// SA is not binary or the evaluation set lacks one of the classes —
    /// AUC is undefined there, not zero.
    pub fn binary_auc(&self, cells: &[Row]) -> Result<Option<f64>> {
        if cells.is_empty() {
            return Err(AttackError::NoEvaluationRows);
        }
        if self.sa_domain.size() != 2 {
            return Ok(None);
        }
        let positive = self.sa_domain.min() + 1;
        let mut scored: Vec<(f64, bool, u64)> = cells
            .iter()
            .map(|cell| {
                let margin = self
                    .binary_margin(cell.values())
                    .expect("binary SA checked above");
                (margin, cell.value(self.sa_dim) == positive, cell.measure())
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut w_pos, mut w_neg) = (0.0f64, 0.0f64);
        for &(_, is_pos, w) in &scored {
            if is_pos {
                w_pos += w as f64;
            } else {
                w_neg += w as f64;
            }
        }
        if w_pos == 0.0 || w_neg == 0.0 {
            return Ok(None);
        }
        // Walk ascending scores, grouping ties: every (positive, negative)
        // pair with the positive scored higher counts 1, ties count ½.
        let mut auc_pairs = 0.0f64;
        let mut neg_below = 0.0f64;
        let mut i = 0;
        while i < scored.len() {
            let mut j = i;
            let (mut tie_pos, mut tie_neg) = (0.0f64, 0.0f64);
            while j < scored.len() && scored[j].0 == scored[i].0 {
                if scored[j].1 {
                    tie_pos += scored[j].2 as f64;
                } else {
                    tie_neg += scored[j].2 as f64;
                }
                j += 1;
            }
            auc_pairs += tie_pos * (neg_below + 0.5 * tie_neg);
            neg_below += tie_neg;
            i = j;
        }
        Ok(Some(auc_pairs / (w_pos * w_neg)))
    }

    /// Measure-weighted prediction accuracy over tensor cells: the §6.6
    /// metric `accuracy = correct predictions / total predictions`, where
    /// each cell counts `measure` raw rows.
    pub fn accuracy(&self, cells: &[Row]) -> Result<f64> {
        if cells.is_empty() {
            return Err(AttackError::NoEvaluationRows);
        }
        let mut correct = 0u64;
        let mut total = 0u64;
        for cell in cells {
            let predicted = self.predict(cell.values());
            total += cell.measure();
            if predicted == cell.value(self.sa_dim) {
                correct += cell.measure();
            }
        }
        Ok(correct as f64 / total as f64)
    }

    /// Number of classes `‖d_SA‖`.
    pub fn n_classes(&self) -> u64 {
        self.sa_domain.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use fedaqp_model::{Aggregate, Dimension, RangeQuery};

    /// 3 classes, 1 QI dim of 6 values: SA = v/2 deterministically.
    fn correlated_world() -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Dimension::new("sa", Domain::new(0, 2).unwrap()),
            Dimension::new("qi", Domain::new(0, 5).unwrap()),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for v in 0..6i64 {
            for _ in 0..50 {
                rows.push(Row::raw(vec![v / 2, v]));
            }
        }
        (schema, rows)
    }

    fn exact_answers(plan: &AttackPlan, rows: &[Row]) -> Vec<f64> {
        plan.queries
            .iter()
            .map(|(_, q): &(_, RangeQuery)| {
                rows.iter()
                    .filter(|r| q.matches(r))
                    .map(|r| r.measure())
                    .sum::<u64>() as f64
            })
            .collect()
    }

    #[test]
    fn learns_deterministic_correlation_from_exact_counts() {
        let (schema, rows) = correlated_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        let answers = exact_answers(&plan, &rows);
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        // With exact counts the deterministic mapping is fully recovered.
        let acc = model.accuracy(&rows).unwrap();
        assert!(acc > 0.99, "accuracy {acc}");
        assert_eq!(model.n_classes(), 3);
    }

    #[test]
    fn garbage_answers_give_chance_level_accuracy() {
        let (schema, rows) = correlated_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        // Pure-noise answers: alternate huge positive/negative garbage.
        let answers: Vec<f64> = (0..plan.queries.len())
            .map(|i| if i % 2 == 0 { 1e6 } else { -1e6 })
            .collect();
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        let acc = model.accuracy(&rows).unwrap();
        // Noise answers can't beat the deterministic oracle; in this world
        // chance is 1/3 and systematic garbage stays near or below it.
        assert!(acc < 0.67, "accuracy {acc} suspiciously high for garbage");
    }

    #[test]
    fn train_rejects_wrong_answer_count() {
        let (schema, _) = correlated_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        let err = NbcModel::train(&schema, &plan, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, AttackError::PlanMismatch { .. }));
    }

    #[test]
    fn accuracy_requires_rows() {
        let (schema, rows) = correlated_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        let answers = exact_answers(&plan, &rows);
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        assert!(matches!(
            model.accuracy(&[]),
            Err(AttackError::NoEvaluationRows)
        ));
    }

    #[test]
    fn negative_noisy_answers_are_survivable() {
        let (schema, rows) = correlated_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        let answers: Vec<f64> = vec![-5.0; plan.queries.len()];
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        // All scores finite, prediction well-defined.
        let acc = model.accuracy(&rows).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    /// Binary SA (2 classes), 1 QI dim of 4 values: SA = v/2.
    fn binary_world() -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Dimension::new("sa", Domain::new(0, 1).unwrap()),
            Dimension::new("qi", Domain::new(0, 3).unwrap()),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for v in 0..4i64 {
            for _ in 0..25 {
                rows.push(Row::raw(vec![v / 2, v]));
            }
        }
        (schema, rows)
    }

    #[test]
    fn auc_is_perfect_on_exact_counts_and_undefined_off_binary() {
        let (schema, rows) = binary_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        let answers = exact_answers(&plan, &rows);
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        let auc = model.binary_auc(&rows).unwrap().expect("binary SA");
        assert!(auc > 0.99, "auc {auc}");
        // The 3-class world has no binary margin, hence no AUC.
        let (schema3, rows3) = correlated_world();
        let plan3 = build_plan(&schema3, 0, &[1], Aggregate::Count).unwrap();
        let answers3 = exact_answers(&plan3, &rows3);
        let model3 = NbcModel::train(&schema3, &plan3, &answers3).unwrap();
        assert!(model3.binary_margin(rows3[0].values()).is_none());
        assert!(model3.binary_auc(&rows3).unwrap().is_none());
    }

    #[test]
    fn auc_is_half_when_scores_are_constant() {
        let (schema, rows) = binary_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        // Identical answers everywhere ⇒ constant margin ⇒ every pair is
        // a tie ⇒ AUC exactly ½.
        let answers = vec![100.0; plan.queries.len()];
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        let auc = model.binary_auc(&rows).unwrap().expect("binary SA");
        assert!((auc - 0.5).abs() < 1e-12, "auc {auc}");
    }

    #[test]
    fn auc_undefined_when_a_class_is_absent() {
        let (schema, rows) = binary_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        let answers = exact_answers(&plan, &rows);
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        let only_zero: Vec<Row> = rows.iter().filter(|r| r.value(0) == 0).cloned().collect();
        assert!(model.binary_auc(&only_zero).unwrap().is_none());
    }

    #[test]
    fn measure_weighting_counts_raw_rows() {
        let (schema, _) = correlated_world();
        let plan = build_plan(&schema, 0, &[1], Aggregate::Count).unwrap();
        // Cells with measures: one correct-prediction cell with weight 99,
        // one wrong with weight 1 — accuracy must be 0.99 not 0.5.
        let rows = vec![Row::cell(vec![0, 0], 99), Row::cell(vec![2, 1], 1)];
        let answers = exact_answers(&plan, &rows);
        let model = NbcModel::train(&schema, &plan, &answers).unwrap();
        let acc = model.accuracy(&rows).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }
}
