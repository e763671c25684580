//! The untimed verification pass: every distinct plan once, checked for
//! finiteness, shape, cost and ledger agreement. A speed-up cannot be
//! bought with a wrong answer, an unpaid release or lost accuracy.

use crate::inputs::{Inputs, PlanSpec};
use crate::surface::{PlanAnswer, PlanResult, QueryPlan, Schema};
use crate::world::Client;

/// What one pass over a plan list released and was charged.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Pass {
    /// Bit patterns of every released value, in plan order: two freshly
    /// built systems under one seed must agree on this exactly.
    pub released: Vec<u64>,
    /// `|released − exact| / max(exact, 1)` per scalar plan.
    pub rel_errs: Vec<f64>,
}

/// Running total of what an identity was answered, to hold against its
/// server-side ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct Charged {
    pub plans: u64,
    pub eps: f64,
    pub delta: f64,
}

impl Charged {
    pub fn add(&mut self, answer: &PlanAnswer) {
        self.plans += 1;
        self.eps += answer.cost.eps;
        self.delta += answer.cost.delta;
    }

    /// No release without a charge: the identity's ledger must show
    /// exactly the plans it was answered and their summed cost.
    pub fn check_ledger(&self, identity: &str, client: &mut Client) -> Result<(), String> {
        let Some((eps, delta, answered)) = client.ledger()? else {
            return Ok(());
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        if answered != self.plans || !close(eps, self.eps) || !close(delta, self.delta) {
            return Err(format!(
                "{identity}: ledger shows {answered} plans, ({eps}, {delta}) spent; \
                 answered {} plans costing ({}, {})",
                self.plans, self.eps, self.delta
            ));
        }
        Ok(())
    }
}

/// Checks one answer against its plan and appends its released values.
pub fn check_answer(
    schema: &Schema,
    spec: &PlanSpec,
    answer: &PlanAnswer,
    pass: &mut Pass,
) -> Result<(), String> {
    let (eps, delta) = spec.plan.total_cost();
    if answer.cost.eps != eps || answer.cost.delta != delta {
        return Err(format!(
            "cost ({}, {}) != plan total_cost ({eps}, {delta})",
            answer.cost.eps, answer.cost.delta
        ));
    }
    let mut release = |v: f64| {
        pass.released.push(v.to_bits());
        v.is_finite()
    };
    let finite = match (&spec.plan, &answer.result) {
        (QueryPlan::Scalar { .. } | QueryPlan::Derived { .. }, PlanResult::Value { value, .. }) => {
            release(*value)
        }
        (QueryPlan::GroupBy { group_dim, .. }, PlanResult::Groups { groups, suppressed }) => {
            let domain = schema
                .dimension(*group_dim)
                .map_err(|e| e.to_string())?
                .domain()
                .size();
            if groups.len() as u64 + suppressed != domain {
                return Err(format!(
                    "{} released + {suppressed} suppressed groups != domain of {domain}",
                    groups.len()
                ));
            }
            groups
                .iter()
                .all(|g| release(g.key as f64) && release(g.value))
        }
        (QueryPlan::Online { rounds, .. }, PlanResult::Snapshots { snapshots }) => {
            let last_round = snapshots.last().map(|s| s.round);
            if snapshots.len() != *rounds || last_round != Some(*rounds as u64) {
                return Err(format!(
                    "{} snapshots (last round {last_round:?}) for a {rounds}-round plan",
                    snapshots.len()
                ));
            }
            snapshots.iter().all(|s| release(s.value))
        }
        (QueryPlan::Extreme { dim, .. }, PlanResult::Extreme { value }) => {
            let domain = schema.dimension(*dim).map_err(|e| e.to_string())?.domain();
            if !domain.contains(*value) {
                return Err(format!("extreme {value} outside the dimension's domain"));
            }
            release(*value as f64)
        }
        (plan, result) => {
            return Err(format!(
                "result shape {result:?} does not match plan {plan:?}"
            ));
        }
    };
    if !finite {
        return Err("non-finite released value".into());
    }
    pass.rel_errs.extend(rel_err(spec, answer));
    Ok(())
}

/// `|released − exact| / max(exact, 1)` of a scalar plan's answer.
pub fn rel_err(spec: &PlanSpec, answer: &PlanAnswer) -> Option<f64> {
    let (exact, value) = (spec.exact? as f64, answer.value()?);
    Some((value - exact).abs() / exact.max(1.0))
}

/// Runs every plan of the list once through `client`, checking each
/// answer, then holds the identity's ledger against what was answered.
pub fn verification_pass(
    identity: &str,
    client: &mut Client,
    inputs: &Inputs,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut charged = Charged::default();
    for (i, spec) in inputs.plans.iter().enumerate() {
        let served = client
            .run(&inputs.schema, spec)
            .map_err(|e| format!("plan {i}: {e}"))?;
        check_answer(&inputs.schema, spec, &served.answer, &mut pass)
            .map_err(|e| format!("plan {i}: {e}"))?;
        if matches!(spec.plan, QueryPlan::Online { .. }) && served.first_snapshot.is_none() {
            if let Client::Remote(_) = client {
                return Err(format!("plan {i}: no snapshot was pushed"));
            }
        }
        charged.add(&served.answer);
    }
    charged.check_ledger(identity, client)?;
    Ok(pass)
}
