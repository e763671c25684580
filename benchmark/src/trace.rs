//! The harness's own spans: `{name, start_ns, end_ns, parent, plan_id}`
//! recorded around calls into each layer's public functions, kept in
//! memory and written out when the traced pass ends. Nothing is recorded
//! inside the program under test (that is a later change).
//!
//! A parent link is *logical*: the inner steps of a provider turn are
//! re-run directly on the same inputs after the turn itself was timed, and
//! recorded as its children, so `self time = span − children` gives what
//! the turn spent outside them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::inputs::ONLINE_ROUNDS;
use crate::surface::{
    Aggregate, DerivedStatistic, HyperParams, QueryBudget, QueryPlan, Range, RangeQuery, Schema,
};

/// `plan_id` of a span that belongs to no plan.
pub const NO_PLAN: u32 = u32::MAX;
/// `parent` of a root span.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub plan_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// In-memory span log of one traced pass.
pub struct Recorder {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Reserves an id, so children recorded first can name their parent.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Times `f` as span `id` (from [`Self::reserve`]); returns its result
    /// and duration in nanoseconds.
    pub fn time_as<T>(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        plan_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.origin.elapsed();
        let out = black_box(f());
        let end = self.origin.elapsed();
        let ns = self.push(
            id,
            name,
            parent,
            plan_id,
            start.as_nanos() as u64,
            end.as_nanos() as u64,
        );
        (out, ns)
    }

    /// Times `f` as a fresh span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        plan_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.reserve();
        self.time_as(id, name, parent, plan_id, f)
    }

    /// Times `reps` back-to-back calls of a function too short for one
    /// clock reading and records one span of the mean duration; returns
    /// the last result and nanoseconds per call.
    pub fn time_reps<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        plan_id: u32,
        reps: u32,
        mut f: impl FnMut() -> T,
    ) -> (T, f64) {
        let id = self.reserve();
        let start = self.origin.elapsed();
        let mut out = black_box(f());
        for _ in 1..reps {
            out = black_box(f());
        }
        let total = (self.origin.elapsed() - start).as_nanos() as u64;
        let start_ns = start.as_nanos() as u64;
        let per_call = total / reps.max(1) as u64;
        self.push(id, name, parent, plan_id, start_ns, start_ns + per_call);
        (out, total as f64 / reps.max(1) as f64)
    }

    fn push(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        plan_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> f64 {
        self.spans.push(Span {
            id,
            parent,
            plan_id,
            name,
            start_ns,
            end_ns,
        });
        (end_ns - start_ns) as f64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != ROOT {
                *children.entry(s.parent).or_default() += s.ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_default() +=
                s.ns() - children.get(&s.id).copied().unwrap_or(0.0);
        }
        by_name
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let plan = if s.plan_id == NO_PLAN {
                "null".to_owned()
            } else {
                s.plan_id.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"plan_id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, plan, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One scalar sub-query a plan compiles to, as the harness replays it.
#[derive(Debug, Clone)]
pub struct SubQuery {
    pub query: RangeQuery,
    pub sampling_rate: f64,
    pub budget: QueryBudget,
}

/// The scalar sub-queries of `plan`, in the plan compiler's canonical
/// order (groups ascending by key; within a derived cell COUNT, SUM,
/// second moment). Mirrors the budget splits of `fedaqp_core::plan` from
/// outside; [`crate::run`] checks the count against `explain_plan`, so a
/// drift in the compiler fails the traced pass instead of skewing it.
pub fn subqueries(
    plan: &QueryPlan,
    schema: &Schema,
    hyperparams: HyperParams,
) -> Result<Vec<SubQuery>, String> {
    let split = |eps: f64, delta: f64| {
        QueryBudget::split(eps, delta, hyperparams).map_err(|e| format!("budget split: {e}"))
    };
    let requery = |agg: Aggregate, ranges: &[Range]| {
        RangeQuery::new(agg, ranges.to_vec()).map_err(|e| e.to_string())
    };
    let derived = |query: &RangeQuery,
                   statistic: DerivedStatistic,
                   eps: f64,
                   delta: f64,
                   rate: f64|
     -> Result<Vec<SubQuery>, String> {
        let n = statistic.sub_queries() as f64;
        let budget = split(eps / n, delta / n)?;
        let sub = |agg| -> Result<SubQuery, String> {
            Ok(SubQuery {
                query: requery(agg, query.ranges())?,
                sampling_rate: rate,
                budget,
            })
        };
        let mut subs = vec![sub(Aggregate::Count)?, sub(Aggregate::Sum)?];
        if statistic.sub_queries() > 2 {
            // The second moment (the dedup pass may answer it by reuse;
            // `explain_plan` says whether it did).
            subs.push(sub(Aggregate::Count)?);
        }
        Ok(subs)
    };
    Ok(match plan {
        QueryPlan::Scalar {
            query,
            sampling_rate,
            epsilon,
            delta,
        } => vec![SubQuery {
            query: query.clone(),
            sampling_rate: *sampling_rate,
            budget: split(*epsilon, *delta)?,
        }],
        QueryPlan::Derived {
            query,
            statistic,
            sampling_rate,
            epsilon,
            delta,
        } => derived(query, *statistic, *epsilon, *delta, *sampling_rate)?,
        QueryPlan::GroupBy {
            base,
            statistic,
            group_dim,
            sampling_rate,
            epsilon,
            delta,
            ..
        } => {
            let domain = schema
                .dimension(*group_dim)
                .map_err(|e| e.to_string())?
                .domain();
            let k = domain.size() as f64;
            let mut subs = Vec::new();
            for key in domain.iter() {
                let mut ranges = base.ranges().to_vec();
                ranges.push(Range::new(*group_dim, key, key).map_err(|e| e.to_string())?);
                let cell = requery(base.aggregate(), &ranges)?;
                match statistic {
                    Some(s) => {
                        subs.extend(derived(&cell, *s, epsilon / k, delta / k, *sampling_rate)?)
                    }
                    None => subs.push(SubQuery {
                        query: cell,
                        sampling_rate: *sampling_rate,
                        budget: split(epsilon / k, delta / k)?,
                    }),
                }
            }
            subs
        }
        QueryPlan::Online {
            query,
            sampling_rate,
            epsilon,
            delta,
            rounds,
        } => {
            debug_assert_eq!(*rounds, ONLINE_ROUNDS);
            let k = *rounds as f64;
            let budget = split(epsilon / k, delta / k)?;
            (1..=*rounds)
                .map(|r| SubQuery {
                    query: query.clone(),
                    sampling_rate: (sampling_rate * r as f64 / k).clamp(f64::MIN_POSITIVE, 0.999),
                    budget,
                })
                .collect()
        }
        QueryPlan::Extreme { .. } => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        let parent = rec.reserve();
        rec.push(parent, "outer", ROOT, 0, 0, 100);
        let child = rec.reserve();
        rec.push(child, "inner", parent, 0, 10, 40);
        let by_name = rec.self_ns_by_name();
        assert_eq!(by_name["outer"], 70.0);
        assert_eq!(by_name["inner"], 30.0);
        assert_eq!(rec.durations("inner"), vec![30.0]);
    }

    #[test]
    fn time_reps_reports_per_call() {
        let mut rec = Recorder::new();
        let (out, per_call) = rec.time_reps("tiny", ROOT, NO_PLAN, 8, || 7);
        assert_eq!(out, 7);
        assert!(per_call >= 0.0);
        assert_eq!(rec.spans().len(), 1);
    }
}
