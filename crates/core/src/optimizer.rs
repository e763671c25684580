//! Metadata-driven plan optimization: prune, dedup, reorder — and explain.
//!
//! Algorithm 1's offline metadata exists precisely so the federation can
//! reason about a query *without touching data*. This module puts that to
//! work between plan construction and submission:
//!
//! 1. **Provider pruning.** A provider whose public per-dimension
//!    `[v_min, v_max]` bounds miss any queried range provably has an empty
//!    covering set `C^Q` (Eq. 2): every cluster's band is contained in the
//!    provider band, so no cluster can intersect either. The engine then
//!    skips protocol step 1 (the per-cluster metadata walk) on that
//!    provider and substitutes the empty [`crate::provider::PreparedQuery`]
//!    that `prepare` would have returned — the *same value*, so every
//!    downstream draw (DP summary, allocation, release) is bit-identical
//!    to the exhaustive path.
//! 2. **Sub-query dedup.** VAR/STD plans re-issue the cell's COUNT as a
//!    budget-carrying second moment whose released *value* is never read
//!    (see [`crate::plan`]). Re-reading the already-released COUNT is
//!    post-processing (Thm. 3.3): zero extra ξ, zero extra work. The plan
//!    still declares (and sessions still charge) the conservative
//!    [`fedaqp_model::QueryPlan::total_cost`].
//! 3. **Cost-ordered submission.** A GROUP-BY's cells are submitted
//!    costliest-first, by the metadata-estimated surviving cluster count,
//!    so the slowest cells start pipelining across the worker pool
//!    earliest. Distinct sub-queries draw content-derived noise, so
//!    submission order cannot change released bytes.
//!
//! **Why this is DP-safe.** Every decision above conditions only on the
//! query (the analyst's own input) and on Algorithm 1 metadata — which the
//! protocol already treats as public once released (Thm. 5.1's one-time
//! ΔR accounting). No pass looks at sampled data, at noisy summaries, or
//! at any released answer's *value*; the optimizer could be run by the
//! analyst themselves without interacting with the federation. See
//! `docs/privacy-model.md` for the full argument.
//!
//! The decisions are surfaced as a structured [`PlanExplanation`] —
//! `EXPLAIN` in SQL, `--explain` on the CLI, and an `Explain` frame pair
//! on the wire — computed by [`crate::EngineHandle::explain_plan`]
//! without dispatching work or charging budget.

use fedaqp_model::{RangeQuery, Value};

use crate::config::OptimizerConfig;
use crate::provider::DataProvider;

/// One provider's public pruning bounds: per-dimension global
/// `[v_min, v_max]` (the elementwise min/max over its clusters' Algorithm 1
/// bands) plus its cluster count. Metadata coarsening keeps first/last
/// values exact, so these bounds are exact at any resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderBounds {
    /// Per-dimension bounds; `None` when no cluster has values there.
    dims: Vec<Option<(Value, Value)>>,
    /// Number of clusters behind the bounds (the step-1 walk length, i.e.
    /// what pruning saves and what the cost estimate counts).
    n_clusters: usize,
}

impl ProviderBounds {
    /// Builds bounds from already-public per-dimension `[v_min, v_max]`
    /// pairs — the constructor a sharded coordinator uses to rebuild a
    /// remote shard's snapshot from its wire-served bounds.
    pub fn new(dims: Vec<Option<(Value, Value)>>, n_clusters: usize) -> Self {
        Self { dims, n_clusters }
    }

    /// Per-dimension bounds (`None` where no cluster has values).
    pub fn dims(&self) -> &[Option<(Value, Value)>] {
        &self.dims
    }

    fn of(provider: &DataProvider) -> Self {
        let meta = provider.meta();
        let n_dims = meta.clusters().first().map_or(0, |c| c.dims().len());
        let mut dims: Vec<Option<(Value, Value)>> = vec![None; n_dims];
        for cluster in meta.clusters() {
            for (d, dim) in cluster.dims().iter().enumerate() {
                if let (Some(lo), Some(hi)) = (dim.min(), dim.max()) {
                    let slot = &mut dims[d];
                    *slot = Some(match *slot {
                        Some((a, b)) => (a.min(lo), b.max(hi)),
                        None => (lo, hi),
                    });
                }
            }
        }
        Self {
            dims,
            n_clusters: meta.n_clusters(),
        }
    }

    /// Whether any cluster of this provider *could* cover `query`: every
    /// queried range must intersect the provider's bounds on that
    /// dimension. `false` proves `C^Q = ∅` (Eq. 2) — the sound direction;
    /// `true` is merely "cannot rule it out".
    fn may_cover(&self, query: &RangeQuery) -> bool {
        query.ranges().iter().all(|r| {
            matches!(self.dims.get(r.dim).copied().flatten(),
                     Some((lo, hi)) if r.intersects(lo, hi))
        })
    }

    /// Number of clusters behind these bounds.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }
}

/// The public, offline pruning metadata of a whole federation, captured
/// when an engine starts. One [`ProviderBounds`] per provider, in id
/// order.
#[derive(Debug, Clone, Default)]
pub struct MetaSnapshot {
    providers: Vec<ProviderBounds>,
}

impl MetaSnapshot {
    /// Captures the bounds of every provider (engine start-up).
    pub(crate) fn from_providers(providers: &[DataProvider]) -> Self {
        Self {
            providers: providers.iter().map(ProviderBounds::of).collect(),
        }
    }

    /// Assembles a snapshot from per-provider bounds in id order — how a
    /// sharded coordinator concatenates its shards' public bounds into
    /// the global federation snapshot.
    pub fn from_bounds(providers: Vec<ProviderBounds>) -> Self {
        Self { providers }
    }

    /// Per-provider bounds, in provider-id order.
    pub fn providers(&self) -> &[ProviderBounds] {
        &self.providers
    }

    /// `flags[i] == true` ⇔ provider `i` is *proven* to contribute nothing
    /// to `query`'s covering set.
    pub fn pruned_flags(&self, query: &RangeQuery) -> Vec<bool> {
        self.providers.iter().map(|p| !p.may_cover(query)).collect()
    }

    /// Metadata-derived cost estimate for `query`: the number of clusters
    /// the step-1 walk still has to visit after pruning (Σ `n_clusters`
    /// over surviving providers). An upper bound on `Σ N^Q_i`.
    pub fn estimated_cost(&self, query: &RangeQuery) -> u64 {
        self.providers
            .iter()
            .filter(|p| p.may_cover(query))
            .map(|p| p.n_clusters as u64)
            .sum()
    }
}

/// The submission order of a plan's cells: `costs[i]` is cell `i`'s
/// metadata cost estimate; the result is a permutation of `0..costs.len()`
/// — costliest first when `reorder`, identity otherwise. Ties keep key
/// order (stable), so the order is deterministic.
pub(crate) fn submission_order(costs: &[u64], reorder: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    if reorder {
        order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    }
    order
}

/// What the optimizer decided about one sub-query of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SubQueryExplanation {
    /// Human-readable role: `"query"`, `"count"`, `"sum"`,
    /// `"second-moment"`, `"group 3"`, `"group 3 count"`, `"extreme"`, …
    pub label: String,
    /// Provider ids proven (from public bounds alone) to have `C^Q = ∅`.
    pub pruned_providers: Vec<u64>,
    /// Metadata cost estimate: clusters the step-1 walk still visits
    /// across surviving providers.
    pub estimated_cost: u64,
    /// `Some(i)` when this sub-query is answered by re-reading the release
    /// of row `i` of [`PlanExplanation::sub_queries`] instead of executing
    /// (the dedup pass).
    pub reuses: Option<u64>,
    /// Position in the submission order after reordering (0 = first).
    pub order: u64,
}

/// A structured, serializable account of every optimizer decision for one
/// plan — the payload of `EXPLAIN` locally, over SQL, and on the wire.
///
/// Computed from the plan and public metadata only: producing (or
/// transmitting) an explanation touches no data and costs no budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplanation {
    /// Plan shape: `"scalar"`, `"derived"`, `"group-by"`, `"online"`, or
    /// `"extreme"`.
    pub plan_kind: String,
    /// Providers in the federation.
    pub n_providers: u64,
    /// Which optimizer passes were active when the plan would run.
    pub optimizer: OptimizerConfig,
    /// The plan's declared total ε (what a session charges — unchanged by
    /// any optimization).
    pub eps: f64,
    /// The plan's declared total δ.
    pub delta: f64,
    /// One entry per sub-query, in canonical (pre-reorder) plan order.
    pub sub_queries: Vec<SubQueryExplanation>,
}

impl PlanExplanation {
    /// Total pruned `(provider × sub-query)` slots.
    pub fn pruned_total(&self) -> u64 {
        self.sub_queries
            .iter()
            .map(|s| s.pruned_providers.len() as u64)
            .sum()
    }

    /// Sub-queries answered by release reuse instead of execution.
    pub fn reused_total(&self) -> u64 {
        self.sub_queries
            .iter()
            .filter(|s| s.reuses.is_some())
            .count() as u64
    }

    /// Multi-line human rendering (the CLI's `--explain` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let on = |b: bool| if b { "on" } else { "off" };
        out.push_str(&format!(
            "plan        : {} ({} sub-quer{}, {} providers)\n",
            self.plan_kind,
            self.sub_queries.len(),
            if self.sub_queries.len() == 1 {
                "y"
            } else {
                "ies"
            },
            self.n_providers,
        ));
        out.push_str(&format!(
            "cost        : epsilon {} delta {} (charged in full; optimization never changes cost)\n",
            self.eps, self.delta
        ));
        out.push_str(&format!(
            "optimizer   : prune {} | dedup {} | reorder {}\n",
            on(self.optimizer.prune_providers),
            on(self.optimizer.dedup_subqueries),
            on(self.optimizer.reorder_subqueries),
        ));
        out.push_str(&format!(
            "pruned      : {} provider slot(s) proven empty from public bounds; {} sub-query(ies) reuse a prior release\n",
            self.pruned_total(),
            self.reused_total(),
        ));
        for (row, s) in self.sub_queries.iter().enumerate() {
            let pruned = if s.pruned_providers.is_empty() {
                "-".to_string()
            } else {
                s.pruned_providers
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let mode = match s.reuses {
                Some(i) => format!("reuses #{i}"),
                None => format!("cost ~{} clusters", s.estimated_cost),
            };
            out.push_str(&format!(
                "  #{:<3} {:<18} order {:<3} pruned [{}]  {}\n",
                row, s.label, s.order, pruned, mode
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_model::{Aggregate, Range};

    fn bounds(dims: Vec<Option<(Value, Value)>>, n_clusters: usize) -> ProviderBounds {
        ProviderBounds { dims, n_clusters }
    }

    fn query(dim: usize, lo: Value, hi: Value) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(dim, lo, hi).unwrap()]).unwrap()
    }

    #[test]
    fn bounds_miss_proves_empty_covering() {
        let p = bounds(vec![Some((10, 20))], 7);
        assert!(p.may_cover(&query(0, 15, 30)));
        assert!(p.may_cover(&query(0, 20, 25)));
        assert!(!p.may_cover(&query(0, 21, 30)));
        assert!(!p.may_cover(&query(0, 0, 9)));
        // A dimension with no values can cover nothing.
        let empty = bounds(vec![None], 3);
        assert!(!empty.may_cover(&query(0, 0, 100)));
        // A queried dimension outside the known dims can cover nothing.
        assert!(!p.may_cover(&query(3, 0, 100)));
    }

    #[test]
    fn snapshot_prunes_and_costs_per_provider() {
        let snap = MetaSnapshot {
            providers: vec![
                bounds(vec![Some((0, 9))], 4),
                bounds(vec![Some((10, 19))], 6),
                bounds(vec![Some((20, 29))], 8),
            ],
        };
        assert_eq!(
            snap.pruned_flags(&query(0, 12, 14)),
            vec![true, false, true]
        );
        assert_eq!(snap.estimated_cost(&query(0, 12, 14)), 6);
        assert_eq!(snap.estimated_cost(&query(0, 5, 25)), 18);
        assert_eq!(snap.estimated_cost(&query(0, 40, 50)), 0);
    }

    #[test]
    fn submission_order_is_stable_and_identity_when_off() {
        assert_eq!(submission_order(&[1, 5, 3], false), vec![0, 1, 2]);
        assert_eq!(submission_order(&[1, 5, 3], true), vec![1, 2, 0]);
        // Ties keep key order.
        assert_eq!(submission_order(&[2, 2, 9, 2], true), vec![2, 0, 1, 3]);
    }

    #[test]
    fn explanation_totals_and_rendering() {
        let expl = PlanExplanation {
            plan_kind: "group-by".into(),
            n_providers: 4,
            optimizer: OptimizerConfig::enabled(),
            eps: 2.0,
            delta: 1e-3,
            sub_queries: vec![
                SubQueryExplanation {
                    label: "group 0".into(),
                    pruned_providers: vec![1, 3],
                    estimated_cost: 12,
                    reuses: None,
                    order: 1,
                },
                SubQueryExplanation {
                    label: "group 1".into(),
                    pruned_providers: vec![],
                    estimated_cost: 40,
                    reuses: Some(0),
                    order: 0,
                },
            ],
        };
        assert_eq!(expl.pruned_total(), 2);
        assert_eq!(expl.reused_total(), 1);
        let text = expl.render();
        assert!(text.contains("group-by"));
        assert!(text.contains("pruned [1,3]"));
        assert!(text.contains("reuses #0"));

        // A grouped VAR submitted costliest-first: group 1's cell goes out
        // before group 0's. The `#` column is the row index — what
        // `reuses #j` names — and `order` the cell's submission rank.
        let row = |label: &str, reuses, order| SubQueryExplanation {
            label: label.into(),
            pruned_providers: vec![],
            estimated_cost: 8,
            reuses,
            order,
        };
        let var = PlanExplanation {
            sub_queries: vec![
                row("group 0 count", None, 1),
                row("group 0 sum", None, 1),
                row("group 0 second-moment", Some(0), 1),
                row("group 1 count", None, 0),
                row("group 1 sum", None, 0),
                row("group 1 second-moment", Some(3), 0),
            ],
            ..expl
        };
        let text = var.render();
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("  #")).collect();
        assert_eq!(lines.len(), 6, "{text}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("  #{i:<3} ")), "{line}");
        }
        assert!(lines[3].contains("group 1 count") && lines[3].contains("order 0  "));
        assert!(lines[0].contains("order 1  "), "{}", lines[0]);
        for (line, count) in [(lines[2], 0), (lines[5], 3)] {
            let j: usize = line.rsplit('#').next().unwrap().trim().parse().unwrap();
            assert_eq!(j, count, "{line}");
            assert!(lines[j].contains(" count "), "{}", lines[j]);
        }
    }
}
