//! Fig. 8 — "SMC effect on speed-up and accuracy".
//!
//! Five random two-dimensional COUNT queries on Adult, each repeated five
//! times under both release modes. Reported per query: the range of
//! Laplace noise actually injected (released value − raw estimate) and the
//! mean speed-up per mode. The paper's shape: SMC's single-noise release
//! has a visibly tighter noise range than local-DP (whose four independent
//! noises may accumulate), at a small speed-up penalty.

use fedaqp_core::{PendingPlain, ReleaseMode};
use fedaqp_model::Aggregate;

use crate::report::{fmt_f, Table};
use crate::setup::{build_testbed, filtered_workload, DatasetKind, ExperimentContext};

/// Iterations per query per mode (paper: 5).
const ITERATIONS: usize = 5;

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let mut noise_table = Table::new(
        "Fig. 8 — Laplace noise range per query (Adult, 2-dim COUNT)",
        &["query", "mode", "noise_min", "noise_max", "noise_absmean"],
    );
    let mut speed_table = Table::new(
        "Fig. 8 — speed-up per release mode",
        &["mode", "mean_speedup"],
    );

    // The same query set is used for both modes; modes need separate
    // federations because the release path is a build-time config.
    let queries = {
        let testbed = build_testbed(DatasetKind::Adult, ctx, |_| {});
        filtered_workload(&testbed, 2, Aggregate::Count, 5, ctx.seed ^ 0xF8)
    };

    for (mode, label) in [
        (ReleaseMode::LocalDp, "local-DP"),
        (ReleaseMode::Smc, "SMC"),
    ] {
        eprintln!("[fig8] building Adult federation ({label})…");
        let testbed = build_testbed(DatasetKind::Adult, ctx, |cfg| {
            cfg.release_mode = mode;
        });
        let sr = DatasetKind::Adult.default_sampling_rate();
        let mut speedups = Vec::new();
        // One engine scope per federation: a query's repeats are occurrences
        // 0..ITERATIONS of one content and draw independent noise (a fresh
        // scope per repeat would replay occurrence 0 and collapse every
        // noise range to a point).
        testbed.federation.with_engine(|engine| {
            let budget = engine.default_budget().expect("budget");
            for (i, q) in queries.iter().enumerate() {
                let mut noises = Vec::with_capacity(ITERATIONS);
                for _ in 0..ITERATIONS {
                    let plain = engine
                        .submit_plain(q)
                        .and_then(PendingPlain::wait)
                        .expect("plain");
                    let ans = engine.run_oracle(q, sr, &budget).expect("private");
                    noises.push(ans.answer.value - ans.raw_estimate);
                    let private = ans.answer.timings.total().as_secs_f64();
                    speedups.push(plain.duration.as_secs_f64() / private.max(1e-9));
                }
                let min = noises.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = noises.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let absmean = noises.iter().map(|n| n.abs()).sum::<f64>() / noises.len() as f64;
                noise_table.push_row(vec![
                    format!("Q{}", i + 1),
                    label.into(),
                    fmt_f(min, 1),
                    fmt_f(max, 1),
                    fmt_f(absmean, 1),
                ]);
            }
        });
        let mean_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
        eprintln!("[fig8] {label}: mean speedup {mean_speedup:.2}");
        speed_table.push_row(vec![label.into(), fmt_f(mean_speedup, 2)]);
    }
    vec![noise_table, speed_table]
}
