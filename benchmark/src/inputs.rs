//! Seeded inputs: every dataset, partition, plan list and ingest stream is
//! a pure function of `(workload, --seed)`. The program under test sees
//! only what is generated here.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{self, WorkloadDef};
use crate::stats::mix;
use crate::surface::{
    parse_sql_plan, partition_rows, AdultConfig, AdultSynth, Aggregate, CostModel, Federation,
    FederationConfig, PartitionMode, PlanParams, QueryPlan, RangeQuery, Row, Schema,
    WorkloadConfig, WorkloadGenerator,
};

/// Every workload: 4 providers, ε = 1, δ = 1e-3, sr = 0.2 (the paper's
/// §6.1 defaults for Adult).
pub const N_PROVIDERS: usize = 4;
pub const SAMPLING_RATE: f64 = 0.2;
pub const EPSILON: f64 = 1.0;
pub const DELTA: f64 = 1e-3;
pub const ONLINE_ROUNDS: usize = 4;
/// The paper's per-dataset cluster size: 1 % of a provider's tensor.
const CLUSTER_FRACTION: f64 = 0.01;
/// The paper's "significantly large" filter: ≥ 0.2 % of the table.
const MIN_MATCH_FRACTION: f64 = 0.002;
/// `live_rw` writer: one batch of this many rows every `INGEST_PERIOD_MS`.
pub const INGEST_BATCH_ROWS: usize = 250;
pub const INGEST_PERIOD_MS: u64 = 50;
/// `live_rw` fixed-work burst.
pub const BURST_ROWS: usize = 200_000;
pub const BURST_BATCH_ROWS: usize = 1_000;

pub const PLAN_PARAMS: PlanParams = PlanParams {
    sampling_rate: SAMPLING_RATE,
    epsilon: EPSILON,
    delta: DELTA,
    threshold: 0.0,
};

/// One entry of a workload's plan list.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    pub plan: QueryPlan,
    /// SQL text the client parses inside the timed path (`mixed_sharded`).
    pub sql: Option<String>,
    /// Exact answer over the epoch-0 table, for scalar plans.
    pub exact: Option<u64>,
}

/// Everything one workload run is built from.
pub struct Inputs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub schema: Schema,
    pub config: FederationConfig,
    pub partitions: Vec<Vec<Row>>,
    pub plans: Vec<PlanSpec>,
    /// `live_rw`: rows the writer and the burst feed, in order.
    pub stream: Vec<Row>,
}

impl Inputs {
    /// The `i`-th ingest batch of `len` rows, cycling over the stream.
    pub fn stream_batch(&self, start_row: usize, len: usize) -> Vec<Row> {
        (0..len)
            .map(|i| self.stream[(start_row + i) % self.stream.len()].clone())
            .collect()
    }
}

/// Generates the inputs of `workload` from `seed`. `stream_rows` sizes the
/// `live_rw` ingest stream (ignored elsewhere).
pub fn generate(
    workload: &'static WorkloadDef,
    seed: u64,
    stream_rows: usize,
) -> Result<Inputs, String> {
    let dataset = AdultSynth::generate(AdultConfig {
        n_rows: workload.raw_rows,
        seed: mix(seed, 0xAD),
    })
    .map_err(|e| format!("dataset generation: {e}"))?;
    let schema = dataset.schema;
    let cells_per_provider = dataset.cells.len().div_ceil(N_PROVIDERS);
    let capacity = ((cells_per_provider as f64 * CLUSTER_FRACTION).round() as usize).max(32);
    let mut config = FederationConfig::paper_default(capacity);
    config.n_providers = N_PROVIDERS;
    config.epsilon = EPSILON;
    config.delta = DELTA;
    config.seed = mix(seed, 0xC0FE);
    config.cost_model = CostModel::zero();

    let partitions = if workload.name == catalog::MIXED_SHARDED {
        zipf_age_bands(dataset.cells, N_PROVIDERS)
    } else {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5117));
        partition_rows(&mut rng, dataset.cells, N_PROVIDERS, &PartitionMode::Equal)
            .map_err(|e| format!("partitioning: {e}"))?
    };

    // Plan selection needs the covering sets and exact answers, so it runs
    // against a throwaway federation over the same partitions.
    let selector = Federation::build(config.clone(), schema.clone(), partitions.clone())
        .map_err(|e| format!("selector federation: {e}"))?;
    let plans = match workload.name {
        catalog::SCAN_WIDE => {
            let half = workload.plans / 2;
            let mut plans = filtered_scalars(&selector, 5, Aggregate::Count, half, mix(seed, 1));
            plans.extend(filtered_scalars(
                &selector,
                5,
                Aggregate::Sum,
                workload.plans - half,
                mix(seed, 2),
            ));
            // Interleave COUNT and SUM so every slice sees both.
            let (counts, sums) = plans.split_at(half);
            counts
                .iter()
                .zip(sums)
                .flat_map(|(c, s)| [c.clone(), s.clone()])
                .collect()
        }
        catalog::NARROW_REMOTE => {
            filtered_scalars(&selector, 2, Aggregate::Count, workload.plans, mix(seed, 3))
        }
        catalog::MIXED_SHARDED => {
            mixed_sql_plans(&selector, &partitions, workload.plans, mix(seed, 4))?
        }
        catalog::LIVE_RW => {
            let mut plans =
                filtered_scalars(&selector, 2, Aggregate::Count, workload.plans, mix(seed, 5));
            // Every fifth plan runs as a 4-round online plan (20 %).
            for spec in plans.iter_mut().skip(4).step_by(5) {
                if let QueryPlan::Scalar { query, .. } = &spec.plan {
                    spec.plan = QueryPlan::Online {
                        query: query.clone(),
                        sampling_rate: SAMPLING_RATE,
                        epsilon: EPSILON,
                        delta: DELTA,
                        rounds: ONLINE_ROUNDS,
                    };
                    spec.exact = None;
                }
            }
            plans
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    if plans.len() != workload.plans {
        return Err(format!(
            "{}: generated {} of {} plans",
            workload.name,
            plans.len(),
            workload.plans
        ));
    }

    let stream = if workload.name == catalog::LIVE_RW {
        AdultSynth::generate(AdultConfig {
            n_rows: (stream_rows.max(INGEST_BATCH_ROWS) as u64) * 23 / 20,
            seed: mix(seed, 0x57),
        })
        .map_err(|e| format!("stream generation: {e}"))?
        .cells
    } else {
        Vec::new()
    };

    Ok(Inputs {
        workload,
        seed,
        schema,
        config,
        partitions,
        plans,
        stream,
    })
}

fn scalar(query: RangeQuery, exact: u64) -> PlanSpec {
    PlanSpec {
        plan: QueryPlan::Scalar {
            query,
            sampling_rate: SAMPLING_RATE,
            epsilon: EPSILON,
            delta: DELTA,
        },
        sql: None,
        exact: Some(exact),
    }
}

/// Exact answer over the union of the selector's partitions.
fn exact_answer(selector: &Federation, query: &RangeQuery) -> u64 {
    selector
        .providers()
        .iter()
        .flat_map(|p| p.store().clusters())
        .map(|c| c.evaluate(query))
        .sum()
}

/// `m` distinct random `n_dims`-dimension scalar plans (range widths
/// 0.4–0.9 of each domain) that pass the paper's §6.1 filter: they trigger
/// approximation on every provider and match ≥ 0.2 % of the table.
fn filtered_scalars(
    selector: &Federation,
    n_dims: usize,
    aggregate: Aggregate,
    m: usize,
    seed: u64,
) -> Vec<PlanSpec> {
    let total: u64 = selector
        .providers()
        .iter()
        .map(|p| match aggregate {
            Aggregate::Count => p.store().total_rows() as u64,
            Aggregate::Sum => p.store().total_measure(),
        })
        .sum();
    let floor = ((total as f64 * MIN_MATCH_FRACTION) as u64).max(50);
    let mut generator = WorkloadGenerator::new(
        selector.schema().clone(),
        WorkloadConfig::new(n_dims, aggregate),
        seed,
    )
    .expect("n_dims fits the Adult schema");
    let mut exacts = Vec::with_capacity(m);
    let queries = generator.take_filtered(m, |q| {
        let approximates = selector
            .providers()
            .iter()
            .all(|p| p.prepare(q).n_q() >= p.n_min());
        if !approximates {
            return false;
        }
        let exact = exact_answer(selector, q);
        if exact >= floor {
            exacts.push(exact);
        }
        exact >= floor
    });
    queries
        .into_iter()
        .zip(exacts)
        .map(|(q, exact)| scalar(q, exact))
        .collect()
}

/// Sorts cells by `age` and hands each provider a contiguous, disjoint
/// band sized by Zipf weights (1/k). Cuts advance only at value
/// boundaries, so two providers never share an age and the public
/// per-provider bounds genuinely separate them (pruning fires).
fn zipf_age_bands(mut rows: Vec<Row>, n: usize) -> Vec<Vec<Row>> {
    rows.sort_by_key(|r| r.value(0));
    let norm: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let total = rows.len() as f64;
    let mut parts: Vec<Vec<Row>> = vec![Vec::new(); n];
    let (mut p, mut cumulative) = (0usize, 1.0 / norm);
    for (i, row) in rows.into_iter().enumerate() {
        let at_boundary = parts[p]
            .last()
            .is_some_and(|prev| prev.value(0) != row.value(0));
        if p + 1 < n && at_boundary && i as f64 >= cumulative * total {
            p += 1;
            cumulative += 1.0 / ((p + 1) as f64 * norm);
        }
        parts[p].push(row);
    }
    parts
}

/// The `mixed_sharded` plan list, as SQL text: 50 % scalar COUNT, 10 %
/// SUM, 10 % AVG, 10 % VAR, 10 % `GROUP BY workclass`, 10 % MIN/MAX. Range
/// predicates sit on `age` inside one provider's band (sometimes reaching
/// into the next), so the other providers are provably empty.
fn mixed_sql_plans(
    selector: &Federation,
    partitions: &[Vec<Row>],
    m: usize,
    seed: u64,
) -> Result<Vec<PlanSpec>, String> {
    let schema = selector.schema();
    let bands: Vec<(i64, i64)> = partitions
        .iter()
        .map(|rows| {
            let ages = rows.iter().map(|r| r.value(0));
            (ages.clone().min().unwrap_or(0), ages.max().unwrap_or(0))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut plans = Vec::with_capacity(m);
    let mut attempts = 0usize;
    while plans.len() < m {
        attempts += 1;
        if attempts > 100 * m {
            return Err("mixed_sharded: plan generator ran dry".into());
        }
        let kind = plans.len() % 10;
        let sql = if kind == 9 {
            // Only 18 distinct MIN/MAX statements exist; repeats are fine
            // (each is charged and draws fresh noise).
            let dim = schema.dimensions()[rng.gen_range(0..schema.arity())].name();
            let which = if rng.gen::<bool>() { "MIN" } else { "MAX" };
            format!("SELECT {which}({dim}) FROM T")
        } else {
            let b = rng.gen_range(0..bands.len());
            let (lo, mut hi) = bands[b];
            if b + 1 < bands.len() && rng.gen::<f64>() < 0.25 {
                hi = bands[b + 1].1;
            }
            let span = hi - lo;
            let width = rng.gen_range((span / 4).max(1)..=span.max(1));
            let start = lo + rng.gen_range(0..=(span - width).max(0));
            let mut predicate = format!("{start} <= age <= {}", (start + width).min(hi));
            if rng.gen::<bool>() {
                // A second predicate on any dimension but age and the
                // grouped workclass.
                let d = rng.gen_range(2..schema.arity());
                let dim = &schema.dimensions()[d];
                let (dmin, dmax) = (dim.domain().min(), dim.domain().max());
                let dspan = dmax - dmin;
                let dwidth = ((dspan as f64) * rng.gen_range(0.4..0.9)) as i64;
                let dstart = dmin + rng.gen_range(0..=(dspan - dwidth).max(0));
                predicate.push_str(&format!(
                    " AND {dstart} <= {} <= {}",
                    dim.name(),
                    dstart + dwidth
                ));
            }
            let (aggregate, tail) = match kind {
                0..=4 => ("COUNT(*)", ""),
                5 => ("SUM(Measure)", ""),
                6 => ("AVG(Measure)", ""),
                7 => ("VAR(Measure)", ""),
                _ => ("COUNT(*)", " GROUP BY workclass"),
            };
            format!("SELECT {aggregate} FROM T WHERE {predicate}{tail}")
        };
        if kind != 9 && !seen.insert(sql.clone()) {
            continue;
        }
        let plan = parse_sql_plan(schema, &sql, &PLAN_PARAMS)
            .map_err(|e| format!("generated SQL `{sql}` does not parse: {e}"))?;
        let exact = match &plan {
            QueryPlan::Scalar { query, .. } => Some(exact_answer(selector, query)),
            _ => None,
        };
        plans.push(PlanSpec {
            plan,
            sql: Some(sql),
            exact,
        });
    }
    Ok(plans)
}
