//! Estimator-accuracy experiment: RMS estimation error vs sampling rate ×
//! ε, for both Hansen–Hurwitz calibrations, on Adult-10k — the Fig. 5
//! accuracy trend isolated per divisor, and the benchmark CI gates on.
//!
//! The paper's Fig. 5 shows estimation error *falling* with the sampling
//! rate. Under the paper-faithful `PpsEq3` divisor it does not: raising
//! the rate enlarges `s`, the per-draw budget ε_S/s shrinks, the
//! Exponential-mechanism draw distribution flattens toward uniform, and
//! dividing by the raw PPS probability (Eq. 3) acquires a bias that grows
//! with `s`. The calibrated `EmCalibrated` divisor — each draw divided by
//! the probability the sampler actually used — is unbiased at every rate,
//! restoring the trend.
//!
//! Both calibrations run on identically seeded federations, so every
//! `(trial, ε, rate)` cell compares the two divisors on the *same* EM
//! draws (a paired design: the difference is pure divisor arithmetic).
//!
//! What the sweep consistently shows (and the gate encodes): calibrated
//! RMS *falls* monotonically-with-jitter from sr = 4% to 50% and beats
//! the PPS divisor by 15–20% at sr ≥ 35% (roughly ties at 20%); at the
//! lowest rates the two tie — with one or two draws per provider the
//! floored-PPS divisor acts as a shrinkage estimator (slightly biased,
//! lower spread) and can keep a ≲15% RMS edge. The gate is strict where
//! the calibration claims wins (trend + top rate) and slack-tolerant in
//! the documented tie regime.
//!
//! Besides the table/CSV this emits machine-readable `BENCH_accuracy.json`
//! (schema documented in the README) which `bench_gate` checks against
//! the committed `BENCH_accuracy_baseline.json` (rows in [`crate::gate`]).

use fedaqp_core::{EstimatorCalibration, Federation, FederationConfig};
use fedaqp_data::{partition_rows, AdultConfig, AdultSynth, PartitionMode};
use fedaqp_dp::QueryBudget;
use fedaqp_model::{Aggregate, QueryBuilder, RangeQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gate::ACCURACY_SCHEMA;
use crate::report::{fmt_f, Table};
use crate::setup::ExperimentContext;

/// Sampling rates swept (the acceptance window is the 4% → 50% span).
pub const RATES: [f64; 5] = [0.04, 0.10, 0.20, 0.35, 0.50];
/// Privacy budgets swept.
pub const EPSILONS: [f64; 2] = [1.0, 5.0];
/// The ε whose per-rate RMS values become flat JSON headline keys.
pub const HEADLINE_EPSILON: f64 = 5.0;
/// Dataset scale: the Adult-10k configuration of the estimator-quality
/// tier-1 test, so the gate and the test guard the same regime.
pub const ADULT_ROWS: u64 = 10_000;

/// Flat JSON key for one calibration × rate cell of the headline ε, e.g.
/// `em_raw_rms_04` / `pps_raw_rms_50`. Shared with the gate table
/// ([`crate::gate`]) so the writer and the reader cannot drift apart.
pub fn rate_key(calibration: &str, rate: f64) -> String {
    format!("{calibration}_raw_rms_{:02.0}", rate * 100.0)
}

/// One trial's shared raw material: the dataset is synthesized and
/// partitioned once, then both calibrations build their federation from
/// the same partitions (the pairing is by construction, and the dataset
/// work is not paid twice).
struct TrialData {
    schema: fedaqp_model::Schema,
    partitions: Vec<Vec<fedaqp_model::Row>>,
    seed: u64,
}

impl TrialData {
    fn generate(seed: u64) -> Self {
        let dataset = AdultSynth::generate(AdultConfig {
            n_rows: ADULT_ROWS,
            seed,
        })
        .expect("dataset");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE57);
        let partitions = partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal)
            .expect("partitioning");
        Self {
            schema: dataset.schema,
            partitions,
            seed,
        }
    }

    fn federation(&self, calibration: EstimatorCalibration) -> Federation {
        let capacity = (ADULT_ROWS as usize / 4 / 50).max(32);
        let mut cfg = FederationConfig::paper_default(capacity);
        cfg.seed = self.seed;
        cfg.estimator_calibration = calibration;
        cfg.cost_model = fedaqp_smc::CostModel::zero();
        Federation::build(cfg, self.schema.clone(), self.partitions.clone()).expect("federation")
    }
}

/// The mid-selectivity 6-dim probe: extends the tier-1 estimator-quality
/// test's `education_num × occupation` probe with four more dimensions —
/// the regime where the metadata approximation visibly degrades (the
/// Fig. 4 trend), which is where the choice of divisor matters. Broad
/// 1–2-dim queries saturate the estimator (every `Q(C)/p` is already ≈
/// the total) and hide the sampling-rate response this experiment
/// measures.
fn probe_query(federation: &Federation) -> RangeQuery {
    QueryBuilder::new(federation.schema(), Aggregate::Count)
        .range("education_num", 9, 12)
        .expect("range")
        .range("occupation", 2, 7)
        .expect("range")
        .range("age", 22, 70)
        .expect("range")
        .range("hours_per_week", 20, 80)
        .expect("range")
        .range("marital_status", 0, 4)
        .expect("range")
        .range("relationship", 0, 4)
        .expect("range")
        .build()
        .expect("query")
}

/// RMS of the per-trial relative errors accumulated per `(ε, rate)` cell.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    raw_sq: f64,
    released_sq: f64,
    n: usize,
}

impl Cell {
    fn raw_rms(&self) -> f64 {
        (self.raw_sq / self.n.max(1) as f64).sqrt()
    }

    fn released_rms(&self) -> f64 {
        (self.released_sq / self.n.max(1) as f64).sqrt()
    }
}

/// Runs the sweep and writes `BENCH_accuracy.json` next to the CSVs.
pub fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let mut table = Table::new(
        "estimator accuracy — RMS estimation error vs sampling rate x epsilon (Adult-10k)",
        &[
            "calibration",
            "epsilon",
            "sampling_rate",
            "trials",
            "raw_rms",
            "released_rms",
        ],
    );
    let trials = ctx.queries.max(10);
    let calibrations = [
        EstimatorCalibration::EmCalibrated,
        EstimatorCalibration::PpsEq3,
    ];
    // cells[calibration][epsilon][rate]
    let mut cells = [[[Cell::default(); RATES.len()]; EPSILONS.len()]; 2];
    eprintln!(
        "[accuracy] em+pps calibrations: {trials} paired trials x {} epsilons x {} rates…",
        EPSILONS.len(),
        RATES.len()
    );
    for trial in 0..trials {
        // Fresh dataset/partition per trial, shared by both calibrations:
        // the identically seeded federations pair the comparison
        // draw-for-draw. The golden-ratio mixer keeps trial-seed sets
        // disjoint across master seeds (plain XOR would permute the same
        // small set).
        let trial_seed =
            (ctx.seed ^ 0xACC).wrapping_add((trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let data = TrialData::generate(trial_seed);
        for (c, &calibration) in calibrations.iter().enumerate() {
            let fed = data.federation(calibration);
            let query = probe_query(&fed);
            let exact = fed.exact(&query).max(1) as f64;
            let delta = fed.config().delta;
            let hp = fed.config().hyperparams;
            for (e, &epsilon) in EPSILONS.iter().enumerate() {
                let budget = QueryBudget::split(epsilon, delta, hp).expect("budget");
                for (r, &rate) in RATES.iter().enumerate() {
                    let ans = fed.run_with_budget(&query, rate, &budget).expect("run");
                    let raw = (ans.raw_estimate - exact) / exact;
                    let released = (ans.value - exact) / exact;
                    let cell = &mut cells[c][e][r];
                    cell.raw_sq += raw * raw;
                    cell.released_sq += released * released;
                    cell.n += 1;
                }
            }
        }
    }

    let mut grid_json: Vec<String> = Vec::new();
    let mut headline_json: Vec<String> = Vec::new();
    for (c, &calibration) in calibrations.iter().enumerate() {
        for (e, &epsilon) in EPSILONS.iter().enumerate() {
            for (r, &rate) in RATES.iter().enumerate() {
                let cell = &cells[c][e][r];
                table.push_row(vec![
                    calibration.as_str().into(),
                    fmt_f(epsilon, 1),
                    format!("{:.0}%", rate * 100.0),
                    cell.n.to_string(),
                    fmt_f(cell.raw_rms(), 4),
                    fmt_f(cell.released_rms(), 4),
                ]);
                grid_json.push(format!(
                    "    {{\"calibration\": \"{}\", \"epsilon\": {epsilon}, \"rate\": {rate}, \
                     \"raw_rms\": {:.6}, \"released_rms\": {:.6}}}",
                    calibration.as_str(),
                    cell.raw_rms(),
                    cell.released_rms()
                ));
                if epsilon == HEADLINE_EPSILON {
                    headline_json.push(format!(
                        "  \"{}\": {:.6}",
                        rate_key(calibration.as_str(), rate),
                        cell.raw_rms()
                    ));
                }
            }
        }
    }

    let json = format!(
        "{{\n  \"schema\": \"{ACCURACY_SCHEMA}\",\n  \"dataset\": \"adult_synth\",\n  \
         \"rows\": {ADULT_ROWS},\n  \"trials\": {trials},\n  \
         \"headline_epsilon\": {HEADLINE_EPSILON},\n{},\n  \"grid\": [\n{}\n  ]\n}}\n",
        headline_json.join(",\n"),
        grid_json.join(",\n"),
    );
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("[accuracy] cannot create {}: {e}", ctx.out_dir.display());
    }
    let path = ctx.out_dir.join("BENCH_accuracy.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[accuracy] wrote {}", path.display()),
        Err(e) => eprintln!("[accuracy] json write failed: {e}"),
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_keys_are_stable_and_unique() {
        assert_eq!(rate_key("em", 0.04), "em_raw_rms_04");
        assert_eq!(rate_key("pps", 0.50), "pps_raw_rms_50");
        let mut keys: Vec<String> = RATES
            .iter()
            .flat_map(|&r| ["em", "pps"].map(|c| rate_key(c, r)))
            .collect();
        let len = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), len);
    }
}
