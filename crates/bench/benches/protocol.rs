//! Criterion benchmarks for the federated protocol: allocation solving,
//! per-provider execution, and the end-to-end private query vs the plain
//! baseline (the microscopic version of the paper's speed-up metric).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedaqp_core::{
    allocate_greedy, AllocationInput, Federation, FederationConfig, PendingAnswer, PendingPlain,
};
use fedaqp_model::{Aggregate, Dimension, Domain, Range, RangeQuery, Row, Schema};
use fedaqp_smc::CostModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).expect("domain")),
        Dimension::new("y", Domain::new(0, 99).expect("domain")),
    ])
    .expect("schema")
}

fn federation(rows_per_provider: usize) -> Federation {
    let mut rng = StdRng::seed_from_u64(11);
    let partitions: Vec<Vec<Row>> = (0..4)
        .map(|_| {
            (0..rows_per_provider)
                .map(|_| {
                    Row::cell(
                        vec![rng.gen_range(0..1000i64), rng.gen_range(0..100i64)],
                        1 + rng.gen_range(0..3u64),
                    )
                })
                .collect()
        })
        .collect();
    let mut cfg = FederationConfig::paper_default(rows_per_provider / 100);
    cfg.cost_model = CostModel::zero();
    Federation::build(cfg, schema(), partitions).expect("federation")
}

fn demo_query() -> RangeQuery {
    RangeQuery::new(
        Aggregate::Sum,
        vec![
            Range::new(0, 100, 800).expect("range"),
            Range::new(1, 5, 80).expect("range"),
        ],
    )
    .expect("query")
}

fn bench_allocation(c: &mut Criterion) {
    let inputs: Vec<AllocationInput> = (0..16)
        .map(|i| AllocationInput {
            noisy_n_q: 100.0 + i as f64,
            noisy_avg_r: (i as f64 * 0.37) % 1.0,
        })
        .collect();
    c.bench_function("protocol/allocate_greedy_16", |b| {
        b.iter(|| black_box(allocate_greedy(black_box(&inputs), 0.2).expect("alloc")))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let fed = federation(20_000);
    let q = demo_query();
    // One engine scope held across every measurement: criterion times the
    // protocol, not a thread spawn per provider per iteration.
    fed.with_engine(|engine| {
        let mut group = c.benchmark_group("protocol/query");
        group.sample_size(20);
        group.bench_function("plain_full_scan", |b| {
            b.iter(|| {
                let plain = engine.submit_plain(&q).and_then(PendingPlain::wait);
                black_box(plain.expect("plain"))
            })
        });
        for (name, rate) in [("private_sr10", 0.10), ("private_sr20", 0.20)] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    let answer = engine.submit(&q, rate).and_then(PendingAnswer::wait);
                    black_box(answer.expect("private"))
                })
            });
        }
        group.finish();
    });
}

criterion_group!(benches, bench_allocation, bench_end_to_end);
criterion_main!(benches);
