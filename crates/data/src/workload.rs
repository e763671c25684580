//! Random range-query workloads (§6.1: "a workload (m, n) is a set of m
//! distinct queries with ranges over n dimensions").

use fedaqp_model::{Aggregate, Range, RangeQuery, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DataError, Result};

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of constrained dimensions per query (`n`).
    pub n_dims: usize,
    /// Aggregation of every query in the workload.
    pub aggregate: Aggregate,
    /// Smallest range width as a fraction of the domain size.
    pub min_width_frac: f64,
    /// Largest range width as a fraction of the domain size.
    pub max_width_frac: f64,
}

impl WorkloadConfig {
    /// A workload over `n_dims` dimensions with the paper-style wide random
    /// ranges: wide enough that queries cover many clusters (triggering
    /// approximation) and match a macroscopic share of the data — the
    /// regime in which the paper's evaluation operates (its tables hold
    /// 4×10⁶–10⁹ rows, so random ranges match ≥ 10⁵ rows).
    pub fn new(n_dims: usize, aggregate: Aggregate) -> Self {
        Self {
            n_dims,
            aggregate,
            min_width_frac: 0.40,
            max_width_frac: 0.90,
        }
    }
}

/// Draws random range queries against a schema.
///
/// The generator is an infinite stream; the evaluation harness keeps
/// drawing and retains only queries that trigger approximation on every
/// provider (`N^Q > N_min`, §6.1), exactly as the paper does.
pub struct WorkloadGenerator {
    schema: Schema,
    cfg: WorkloadConfig,
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Creates a generator; validates the configuration against the schema.
    pub fn new(schema: Schema, cfg: WorkloadConfig, seed: u64) -> Result<Self> {
        if cfg.n_dims == 0 {
            return Err(DataError::BadConfig("queries need at least one dimension"));
        }
        if cfg.n_dims > schema.arity() {
            return Err(DataError::BadConfig("more query dims than schema dims"));
        }
        if !(0.0 < cfg.min_width_frac
            && cfg.min_width_frac <= cfg.max_width_frac
            && cfg.max_width_frac <= 1.0)
        {
            return Err(DataError::BadConfig(
                "width fractions must satisfy 0 < min <= max <= 1",
            ));
        }
        Ok(Self {
            schema,
            cfg,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Draws the next random query.
    fn next_query(&mut self) -> RangeQuery {
        // Choose n distinct dimensions by partial Fisher–Yates.
        let arity = self.schema.arity();
        let mut dims: Vec<usize> = (0..arity).collect();
        for i in 0..self.cfg.n_dims {
            let j = self.rng.gen_range(i..arity);
            dims.swap(i, j);
        }
        let ranges: Vec<Range> = dims[..self.cfg.n_dims]
            .iter()
            .map(|&d| {
                let dom = self.schema.domain(d).expect("validated dimension");
                let size = dom.size() as f64;
                let frac = self
                    .rng
                    .gen_range(self.cfg.min_width_frac..=self.cfg.max_width_frac);
                let width = ((size * frac).round() as i64).max(1) - 1; // inclusive span
                let max_lo = dom.max() - width;
                let lo = if max_lo > dom.min() {
                    self.rng.gen_range(dom.min()..=max_lo)
                } else {
                    dom.min()
                };
                Range::new(d, lo, (lo + width).min(dom.max())).expect("lo <= hi by construction")
            })
            .collect();
        RangeQuery::new(self.cfg.aggregate, ranges).expect("non-empty distinct ranges")
    }

    /// Draws queries until `keep` accepts `m` of them (the harness's
    /// "run only queries that lead to approximation" filter).
    pub fn take_filtered<F>(&mut self, m: usize, mut keep: F) -> Vec<RangeQuery>
    where
        F: FnMut(&RangeQuery) -> bool,
    {
        let mut out = Vec::with_capacity(m);
        let mut attempts = 0usize;
        while out.len() < m && attempts < 1000 * m.max(1) {
            let q = self.next_query();
            attempts += 1;
            if keep(&q) {
                out.push(q);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adult::AdultSynth;

    fn gen(n_dims: usize, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(
            AdultSynth::schema(),
            WorkloadConfig::new(n_dims, Aggregate::Count),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn validates_config() {
        let s = AdultSynth::schema();
        assert!(
            WorkloadGenerator::new(s.clone(), WorkloadConfig::new(0, Aggregate::Count), 1).is_err()
        );
        assert!(
            WorkloadGenerator::new(s.clone(), WorkloadConfig::new(99, Aggregate::Count), 1)
                .is_err()
        );
        let mut bad = WorkloadConfig::new(2, Aggregate::Count);
        bad.min_width_frac = 0.9;
        bad.max_width_frac = 0.5;
        assert!(WorkloadGenerator::new(s, bad, 1).is_err());
    }

    #[test]
    fn queries_have_requested_dimensionality() {
        let mut g = gen(4, 1);
        for _ in 0..50 {
            let q = g.next_query();
            assert_eq!(q.dimensionality(), 4);
            // Dimensions are distinct (RangeQuery::new would reject dups,
            // but also verify the draw itself).
            let dims: Vec<usize> = q.dims().collect();
            let mut uniq = dims.clone();
            uniq.dedup();
            assert_eq!(dims, uniq);
        }
    }

    #[test]
    fn ranges_stay_inside_domains() {
        let mut g = gen(3, 2);
        let schema = AdultSynth::schema();
        for _ in 0..100 {
            let q = g.next_query();
            for r in q.ranges() {
                let dom = schema.domain(r.dim).unwrap();
                assert!(r.lo >= dom.min() && r.hi <= dom.max(), "range {r:?}");
                assert!(r.lo <= r.hi);
            }
        }
    }

    #[test]
    fn widths_respect_fractions() {
        let mut g = gen(1, 3);
        let schema = AdultSynth::schema();
        for _ in 0..200 {
            let q = g.next_query();
            let r = q.ranges()[0];
            let dom = schema.domain(r.dim).unwrap();
            let frac = r.width() as f64 / dom.size() as f64;
            assert!(
                (0.3..=0.95).contains(&frac),
                "width fraction {frac} out of expected band"
            );
        }
    }

    #[test]
    fn take_filtered_applies_predicate() {
        let mut g = gen(2, 5);
        let qs = g.take_filtered(20, |q| q.ranges()[0].dim == 0);
        assert!(qs.len() <= 20);
        for q in &qs {
            assert_eq!(q.ranges()[0].dim, 0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let draw = || {
            let mut g = gen(3, 9);
            (0..10).map(|_| g.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }
}
