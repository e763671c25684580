//! Design-choice ablations (§4 global-vs-local discussion, §5.2 metadata
//! approximation, §7 independence-assumption limitation).
//!
//! Six comparisons, each isolating one design decision of the paper:
//!
//! 1. **Allocation** — global optimized allocation (Eq. 6) vs the local
//!    baseline (`sr·N^Q_i` per provider, no collaboration), on *skewed*
//!    partitions where collaboration matters.
//! 2. **Sampling weights** — distribution-aware PPS vs uniform cluster
//!    sampling.
//! 3. **Proportion source** — Algorithm 1 metadata (independence
//!    approximation) vs exact per-cluster scans.
//! 4. **Correlated dimensions** — the §7 caveat: accuracy under strongly
//!    correlated dimensions, where `R = ∏ R_d` misestimates badly.
//! 5. **Release mechanism** — the paper's smooth-sensitivity Laplace vs a
//!    Gaussian release at the same budget.
//! 6. **Metadata resolution** — full Algorithm 1 tails vs histogram-
//!    coarsened metadata (size/accuracy trade-off).

use fedaqp_core::{
    relative_error, AllocationPolicy, Federation, FederationConfig, ProportionSource,
    SamplingPolicy,
};
use fedaqp_data::{partition_rows, PartitionMode, WorkloadConfig, WorkloadGenerator};
use fedaqp_model::{Aggregate, Dimension, Domain, RangeQuery, Row, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{fmt_pct, mean, Table};
use crate::setup::{
    build_testbed, filtered_workload, grid_network, run_workload, DatasetKind, ExperimentContext,
};

/// Runs all six ablations.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    vec![
        allocation_ablation(ctx),
        sampling_ablation(ctx),
        proportion_ablation(ctx),
        correlation_ablation(ctx),
        mechanism_ablation(ctx),
        resolution_ablation(ctx),
    ]
}

/// Ablation 6: metadata resolution — Algorithm 1's full per-value tails vs
/// histogram-coarsened metadata (size/accuracy trade-off).
fn resolution_ablation(ctx: &ExperimentContext) -> Table {
    eprintln!("[ablation] metadata resolution…");
    let mut table = Table::new(
        "Ablation 6 — metadata resolution (adult, COUNT, n=3)",
        &["resolution", "meta_bytes_total", "mean_rel_error"],
    );
    for (buckets, label) in [
        (None, "full (Algorithm 1)"),
        (Some(32usize), "32 buckets"),
        (Some(8), "8 buckets"),
    ] {
        let mut testbed = build_testbed(DatasetKind::Adult, ctx, |cfg| {
            cfg.metadata_buckets = buckets;
        });
        let meta_bytes: usize = testbed
            .federation
            .meta_space()
            .iter()
            .map(|r| r.total_bytes)
            .sum();
        let queries = filtered_workload(&testbed, 3, Aggregate::Count, ctx.queries, ctx.seed ^ 6);
        let stats = run_workload(&mut testbed, &queries, 0.15);
        table.push_row(vec![
            label.into(),
            meta_bytes.to_string(),
            fmt_pct(stats.mean_rel_error),
        ]);
    }
    table
}

/// Ablation 5: release-mechanism comparison — the paper's
/// smooth-sensitivity Laplace release vs a Gaussian release calibrated at
/// the same `(ε_E, δ)` and the same smooth sensitivities.
fn mechanism_ablation(ctx: &ExperimentContext) -> Table {
    use fedaqp_dp::{laplace_noise, GaussianMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    eprintln!("[ablation] release mechanism: Laplace vs Gaussian…");
    let mut table = Table::new(
        "Ablation 5 — release noise at equal budget (eps_E = 0.8, delta = 1e-3)",
        &["mechanism", "mean_abs_noise", "p95_abs_noise"],
    );
    // Harvest realistic smooth sensitivities from live federation answers.
    let testbed = build_testbed(DatasetKind::Adult, ctx, |_| {});
    let queries = filtered_workload(
        &testbed,
        3,
        Aggregate::Count,
        ctx.queries.min(20),
        ctx.seed ^ 0xA5,
    );
    let mut sensitivities = Vec::new();
    for q in &queries {
        let ans = testbed.federation.run(q, 0.15).expect("run");
        sensitivities.extend(ans.smooth_ls.iter().copied());
    }
    let eps_e = 0.8;
    let delta = 1e-3;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xA6);
    let draws_per_s = 200usize;
    let mut collect = |label: &str, f: &mut dyn FnMut(&mut StdRng, f64) -> f64| {
        let mut mags: Vec<f64> = sensitivities
            .iter()
            .flat_map(|&s| {
                (0..draws_per_s)
                    .map(|_| f(&mut rng, s).abs())
                    .collect::<Vec<_>>()
            })
            .collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite noise"));
        let mean_abs = mean(&mags);
        let p95 = mags[(mags.len() as f64 * 0.95) as usize];
        table.push_row(vec![
            label.into(),
            format!("{mean_abs:.1}"),
            format!("{p95:.1}"),
        ]);
    };
    collect("Laplace 2S/eps (paper)", &mut |rng, s| {
        laplace_noise(rng, 2.0 * s / eps_e)
    });
    collect("Gaussian (classical sigma)", &mut |rng, s| {
        GaussianMechanism::new(2.0 * s, eps_e, delta)
            .expect("valid gaussian")
            .release(rng, 0.0)
    });
    table
}

/// Ablation 1: optimized (Eq. 6) vs local-uniform allocation on skewed
/// partitions (one provider holds 60% of the data).
fn allocation_ablation(ctx: &ExperimentContext) -> Table {
    eprintln!("[ablation] allocation: optimized vs local-uniform…");
    let mut table = Table::new(
        "Ablation 1 — allocation policy on skewed partitions (adult, COUNT, n=3)",
        &["policy", "mean_rel_error", "mean_speedup"],
    );
    let dataset = crate::setup::generate_dataset(DatasetKind::Adult, ctx);
    for (policy, label) in [
        (AllocationPolicy::Optimized, "global optimized (Eq. 6)"),
        (AllocationPolicy::LocalUniform, "local uniform (baseline)"),
    ] {
        let cells_per_provider = dataset.cells.len().div_ceil(4);
        let capacity = ((cells_per_provider as f64 * 0.01).round() as usize).max(32);
        let mut cfg = FederationConfig::paper_default(capacity);
        cfg.seed = ctx.seed;
        cfg.cost_model = grid_network();
        cfg.allocation_policy = policy;
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xAB1);
        let partitions = partition_rows(
            &mut rng,
            dataset.cells.clone(),
            4,
            &PartitionMode::Weighted(vec![6.0, 2.0, 1.0, 1.0]),
        )
        .expect("skewed partitioning");
        let federation = Federation::build(cfg, dataset.schema.clone(), partitions).expect("build");
        let mut testbed = crate::setup::Testbed {
            federation,
            truth: dataset.cells.clone(),
            kind: DatasetKind::Adult,
        };
        let queries = filtered_workload(&testbed, 3, Aggregate::Count, ctx.queries, ctx.seed);
        let stats = run_workload(&mut testbed, &queries, 0.15);
        table.push_row(vec![
            label.into(),
            fmt_pct(stats.mean_rel_error),
            format!("{:.2}", stats.mean_speedup),
        ]);
    }
    table
}

/// Ablation 2: PPS vs uniform cluster sampling.
fn sampling_ablation(ctx: &ExperimentContext) -> Table {
    eprintln!("[ablation] sampling: PPS vs uniform…");
    let mut table = Table::new(
        "Ablation 2 — sampling weights (adult, SUM, n=3)",
        &["weights", "mean_rel_error"],
    );
    for (policy, label) in [
        (SamplingPolicy::Pps, "PPS (Eq. 1)"),
        (SamplingPolicy::Uniform, "uniform (baseline)"),
    ] {
        let mut testbed = build_testbed(DatasetKind::Adult, ctx, |cfg| {
            cfg.sampling_policy = policy;
        });
        let queries = filtered_workload(&testbed, 3, Aggregate::Sum, ctx.queries, ctx.seed ^ 2);
        let stats = run_workload(&mut testbed, &queries, 0.15);
        table.push_row(vec![label.into(), fmt_pct(stats.mean_rel_error)]);
    }
    table
}

/// Ablation 3: metadata-approximated R vs exact-scan R.
fn proportion_ablation(ctx: &ExperimentContext) -> Table {
    eprintln!("[ablation] proportions: metadata vs exact scan…");
    let mut table = Table::new(
        "Ablation 3 — proportion source (adult, COUNT, n=4)",
        &["source", "mean_rel_error", "mean_private_time_ms"],
    );
    for (source, label) in [
        (ProportionSource::Metadata, "Algorithm 1 metadata"),
        (ProportionSource::ExactScan, "exact per-cluster scan"),
    ] {
        let testbed = build_testbed(DatasetKind::Adult, ctx, |cfg| {
            cfg.proportion_source = source;
        });
        let queries = filtered_workload(&testbed, 4, Aggregate::Count, ctx.queries, ctx.seed ^ 3);
        let mut errors = Vec::new();
        let mut times = Vec::new();
        for q in &queries {
            let ans = testbed.federation.run(q, 0.15).expect("run");
            errors.push(relative_error(
                testbed.federation.exact(q),
                ans.answer.value,
            ));
            times.push(ans.answer.timings.total().as_secs_f64() * 1e3);
        }
        table.push_row(vec![
            label.into(),
            fmt_pct(mean(&errors)),
            format!("{:.3}", mean(&times)),
        ]);
    }
    table
}

/// Ablation 4: the §7 independence caveat — a synthetic table whose second
/// dimension is a noisy copy of the first (age → profession style).
fn correlation_ablation(ctx: &ExperimentContext) -> Table {
    eprintln!("[ablation] correlated dimensions…");
    let mut table = Table::new(
        "Ablation 4 — independence assumption under correlated dimensions (COUNT, n=2)",
        &["world", "proportions", "mean_rel_error"],
    );
    let n_rows = (ctx.adult_rows / 2).max(10_000) as usize;
    for correlated in [false, true] {
        let schema = Schema::new(vec![
            Dimension::new("x", Domain::new(0, 99).expect("domain")),
            Dimension::new("y", Domain::new(0, 99).expect("domain")),
            Dimension::new("z", Domain::new(0, 9).expect("domain")),
        ])
        .expect("schema");
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xC0 ^ correlated as u64);
        let rows: Vec<Row> = (0..n_rows)
            .map(|_| {
                let x = rng.gen_range(0..100i64);
                let y = if correlated {
                    (x + rng.gen_range(-5..=5i64)).clamp(0, 99)
                } else {
                    rng.gen_range(0..100i64)
                };
                Row::raw(vec![x, y, rng.gen_range(0..10i64)])
            })
            .collect();
        for (source, source_label) in [
            (ProportionSource::Metadata, "metadata (independent R)"),
            (ProportionSource::ExactScan, "exact scan"),
        ] {
            let capacity = (n_rows / 4 / 100).max(32);
            let mut cfg = FederationConfig::paper_default(capacity);
            cfg.seed = ctx.seed;
            cfg.cost_model = grid_network();
            cfg.proportion_source = source;
            let mut prng = StdRng::seed_from_u64(ctx.seed ^ 0xC1);
            let partitions =
                partition_rows(&mut prng, rows.clone(), 4, &PartitionMode::Equal).expect("split");
            let federation = Federation::build(cfg, schema.clone(), partitions).expect("build");
            let mut generator = WorkloadGenerator::new(
                schema.clone(),
                WorkloadConfig::new(2, Aggregate::Count),
                ctx.seed ^ 0xC2,
            )
            .expect("workload");
            let queries: Vec<RangeQuery> = {
                let fed_ref = &federation;
                generator.take_filtered(ctx.queries.min(40), |q| {
                    q.dims().all(|d| d < 2)
                        && fed_ref.triggers_approximation(q)
                        && fed_ref.exact(q) > 0
                })
            };
            let mut errors = Vec::new();
            for q in &queries {
                let ans = federation.run(q, 0.15).expect("run");
                errors.push(relative_error(federation.exact(q), ans.answer.value));
            }
            table.push_row(vec![
                if correlated {
                    "correlated (y ≈ x)"
                } else {
                    "independent"
                }
                .into(),
                source_label.into(),
                fmt_pct(mean(&errors)),
            ]);
        }
    }
    table
}
