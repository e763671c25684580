//! `bench_gate` — the CI regression gates over the machine-readable
//! benchmark summaries.
//!
//! Run `bench_gate --help` for a usage summary of every mode and flag.
//!
//! Throughput mode (`BENCH_engine.json`):
//!
//! ```text
//! bench_gate <current.json> <baseline.json> [--max-regression 0.25]
//!            [--min-speedup 2.0] [--min-pruned-speedup 1.15]
//!            [--min-pruned-fraction 0.5]
//! ```
//!
//! Fails (exit 1) when any of
//! * the concurrent engine's queries/sec dropped more than
//!   `--max-regression` (default 25%) below the committed baseline,
//! * the engine no longer beats the serial runtime by at least
//!   `--min-speedup` (default 2×) at the headline grid point,
//! * metadata pruning no longer beats the exhaustive plan by at least
//!   `--min-pruned-speedup` (default 1.15×) on the skewed band layout,
//! * the optimizer pruned less than `--min-pruned-fraction` (default 0.5)
//!   of the provider slots on that layout — the speed-up gate would be
//!   vacuous if nothing were actually pruned (the committed layout prunes
//!   exactly 3 of 4 providers per query, fraction 0.75).
//!
//! The obs instrumentation's cost (`telemetry_overhead_pct`) is reported,
//! not gated: on a shared 2-vCPU runner it reads noise on both sides of
//! zero.
//!
//! The comparison deliberately leans on the *speed-up ratios* (machine
//! independent) and treats absolute qps with a generous regression band,
//! since CI runners vary in raw speed.
//!
//! Accuracy mode (`BENCH_accuracy.json`):
//!
//! ```text
//! bench_gate --accuracy <current.json> <baseline.json>
//!            [--max-regression 0.25] [--pairwise-slack 1.15]
//! ```
//!
//! Fails (exit 1) when, at the headline ε, any of
//! * the calibrated (`EmCalibrated`) raw RMS at the top sampling rate
//!   regressed more than `--max-regression` above the committed baseline,
//! * calibrated RMS at the top rate is not strictly below the bottom rate
//!   (estimation error must *fall* with the sampling rate — Fig. 5),
//! * calibrated RMS does not beat the `PpsEq3` divisor at the top rate
//!   (strict: this is where the calibration claims its win), or
//! * calibrated RMS exceeds `--pairwise-slack` × the `PpsEq3` RMS at any
//!   swept rate. The slack covers the documented tie regime: at the
//!   lowest rates (one or two draws per provider) the floored-PPS divisor
//!   acts as a shrinkage estimator and can hold a ≲15% RMS edge; the gate
//!   tolerates that tie but fails if the calibrated estimator ever loses
//!   materially anywhere.
//!
//! Accuracy numbers are seeded Monte-Carlo, deterministic for a given
//! code state — regressions mean the estimator changed, not the machine.
//!
//! Net mode (`BENCH_net.json`):
//!
//! ```text
//! bench_gate --net <current.json> <baseline.json>
//!            [--max-regression 0.25] [--min-scaling 4.0]
//! ```
//!
//! Fails (exit 1) when either
//! * the remote path's queries/sec at the headline analyst count dropped
//!   more than `--max-regression` below the committed baseline, or
//! * remote throughput no longer scales: 8 concurrent analysts must reach
//!   at least `--min-scaling` × the single-analyst qps (the latency-hiding
//!   property the serving path exists for; under the slept-WAN model this
//!   ratio is machine-independent).
//!
//! Shard mode (`BENCH_shard.json`):
//!
//! ```text
//! bench_gate --shard <current.json> <baseline.json>
//!            [--max-regression 0.25] [--min-scaling 1.3]
//! ```
//!
//! Fails (exit 1) when any of
//! * the 2-shard grid's queries/sec dropped more than `--max-regression`
//!   below the committed baseline,
//! * the 2-shard grid no longer reaches `--min-scaling` (default 1.3×)
//!   the 1-shard grid's qps at equal total providers — the scatter–gather
//!   coordinator's reason to exist; under the slept-uplink model this
//!   ratio is machine-independent, or
//! * the 1-shard qps is not positive (the comparison would be vacuous).
//!
//! Stream mode (`BENCH_stream.json`):
//!
//! ```text
//! bench_gate --stream <current.json> <baseline.json>
//!            [--max-regression 0.25] [--max-first-fraction 0.6]
//! ```
//!
//! The live-federation gate over `repro stream` (streaming ingest +
//! server-push online answers on a loopback live server). Fails (exit 1)
//! when any of
//! * ingested rows/sec dropped more than `--max-regression` below the
//!   committed baseline,
//! * the run never triggered a staleness-policy metadata refresh
//!   (`refreshes` = 0) — the incremental-metadata path went unexercised,
//!   so the ingest number would be vacuous,
//! * post-ingest queries/sec dropped more than `--max-regression` below
//!   the baseline (queries against a grown, refreshed federation),
//! * the server failed to push every online round (`online_rounds_ok`
//!   ≠ 1), or
//! * the first pushed snapshot no longer lands early: its mean arrival
//!   exceeds `--max-first-fraction` (default 0.6) of the full online
//!   answer's latency. Round 1 scans at `1/rounds` of the terminal rate,
//!   so this ratio is machine-independent; it is the time-to-first-result
//!   property progressive answers exist for.
//!
//! Attack mode (`BENCH_attack.json`):
//!
//! ```text
//! bench_gate --attack <current.json> <baseline.json>
//!            [--attack-band 0.10] [--attack-drift 0.05] [--min-ceiling 0.65]
//! ```
//!
//! The empirical privacy gate over the red-team harness (`repro attack`):
//! single-analyst and coalition NBC accuracy/AUC against a live loopback
//! server, every swept ξ. Fails (exit 1) when any of
//! * an attacked accuracy or AUC strays more than `--attack-band` from
//!   chance (0.5 — the world's SA is binary), i.e. the private interface
//!   leaked a learnable signal,
//! * a metric drifts more than `--attack-drift` from the committed
//!   baseline (attack numbers are bit-reproducible; unexplained movement
//!   means the noise path changed),
//! * the current run's no-DP ceiling accuracy is below `--min-ceiling`
//!   (the harness could not learn even from clean answers — the gate
//!   would be vacuously green), or
//! * any analyst identity's server-side ledger exceeded its `(ξ, ψ)`
//!   grant (`ledgers_ok` ≠ 1).

use std::process::ExitCode;

use fedaqp_bench::experiments::accuracy::{rate_key, RATES};
use fedaqp_bench::experiments::attack::{metric_key, XIS};

/// Extracts the number following `"key":` from a flat JSON document. Only
/// headline keys are parsed, and they are chosen to be unique substrings,
/// so a full JSON parser is not needed (and the build stays offline).
fn json_number(text: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("key `{key}` not found"))?;
    let rest = text[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|e| format!("key `{key}`: {e}"))
}

fn load(path: &str) -> Result<(f64, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok((
        json_number(&text, "engine_qps")?,
        json_number(&text, "speedup")?,
    ))
}

/// The accuracy-mode gate (see the module docs).
fn run_accuracy(
    current_path: &str,
    baseline_path: &str,
    max_regression: f64,
    pairwise_slack: f64,
) -> Result<String, String> {
    let current =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let baseline =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let top_rate = RATES[RATES.len() - 1];
    let bottom_rate = RATES[0];
    let em_top = json_number(&current, &rate_key("em", top_rate))?;
    let pps_top = json_number(&current, &rate_key("pps", top_rate))?;
    let em_bottom = json_number(&current, &rate_key("em", bottom_rate))?;
    let baseline_em_top = json_number(&baseline, &rate_key("em", top_rate))?;
    let ceiling = (1.0 + max_regression) * baseline_em_top;
    let mut report = format!(
        "accuracy gate: calibrated raw RMS at sr={:.0}% = {em_top:.4} \
         (baseline {baseline_em_top:.4}, ceiling {ceiling:.4}); sr={:.0}% = {em_bottom:.4}\n",
        top_rate * 100.0,
        bottom_rate * 100.0,
    );
    let mut failed = false;
    if em_top > ceiling {
        failed = true;
        report.push_str(&format!(
            "FAIL: calibrated RMS at the top sampling rate regressed more than {:.0}% \
             above the baseline\n",
            100.0 * max_regression
        ));
    }
    if em_top >= em_bottom {
        failed = true;
        report.push_str(
            "FAIL: estimation error no longer falls with the sampling rate \
             (calibrated RMS at the top rate >= bottom rate)\n",
        );
    }
    if em_top >= pps_top {
        failed = true;
        report.push_str(&format!(
            "FAIL: calibrated RMS no longer beats the PpsEq3 divisor at sr={:.0}%\n",
            top_rate * 100.0
        ));
    }
    for &rate in &RATES {
        let em = json_number(&current, &rate_key("em", rate))?;
        let pps = json_number(&current, &rate_key("pps", rate))?;
        report.push_str(&format!(
            "  sr={:>3.0}%: em {em:.4} vs pps {pps:.4}\n",
            rate * 100.0
        ));
        if em > pairwise_slack * pps {
            failed = true;
            report.push_str(&format!(
                "FAIL: calibrated RMS exceeds {pairwise_slack:.2}x the PpsEq3 RMS \
                 (the tie slack) at sr={:.0}%\n",
                rate * 100.0
            ));
        }
    }
    if failed {
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

/// The net-mode gate (see the module docs).
fn run_net(
    current_path: &str,
    baseline_path: &str,
    max_regression: f64,
    min_scaling: f64,
) -> Result<String, String> {
    let current =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let baseline =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let net_qps = json_number(&current, "net_qps")?;
    let scaling = json_number(&current, "scaling")?;
    let baseline_qps = json_number(&baseline, "net_qps")?;
    let qps_floor = (1.0 - max_regression) * baseline_qps;
    let mut report = format!(
        "net gate: net_qps {net_qps:.1} (baseline {baseline_qps:.1}, floor {qps_floor:.1}), \
         scaling {scaling:.2}x (floor {min_scaling:.2}x)\n"
    );
    let mut failed = false;
    if net_qps < qps_floor {
        failed = true;
        report.push_str(&format!(
            "FAIL: remote queries/sec regressed more than {:.0}% below the baseline\n",
            100.0 * max_regression
        ));
    }
    if scaling < min_scaling {
        failed = true;
        report.push_str(&format!(
            "FAIL: remote throughput no longer scales ≥{min_scaling:.1}x from 1 to the \
             headline analyst count\n"
        ));
    }
    if failed {
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

/// The shard-mode gate (see the module docs).
fn run_shard(
    current_path: &str,
    baseline_path: &str,
    max_regression: f64,
    min_scaling: f64,
) -> Result<String, String> {
    let current =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let baseline =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let one_qps = json_number(&current, "one_shard_qps")?;
    let two_qps = json_number(&current, "two_shard_qps")?;
    let scaling = json_number(&current, "scaling")?;
    let baseline_qps = json_number(&baseline, "two_shard_qps")?;
    let qps_floor = (1.0 - max_regression) * baseline_qps;
    let mut report = format!(
        "shard gate: two_shard_qps {two_qps:.1} (baseline {baseline_qps:.1}, floor {qps_floor:.1}), \
         one_shard_qps {one_qps:.1}, scaling {scaling:.2}x (floor {min_scaling:.2}x)\n"
    );
    let mut failed = false;
    if one_qps <= 0.0 {
        failed = true;
        report.push_str(
            "FAIL: the 1-shard grid answered nothing — the scaling comparison is vacuous\n",
        );
    }
    if two_qps < qps_floor {
        failed = true;
        report.push_str(&format!(
            "FAIL: 2-shard queries/sec regressed more than {:.0}% below the baseline\n",
            100.0 * max_regression
        ));
    }
    if scaling < min_scaling {
        failed = true;
        report.push_str(&format!(
            "FAIL: the 2-shard grid no longer reaches ≥{min_scaling:.1}x the 1-shard grid \
             at equal total providers\n"
        ));
    }
    if failed {
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

/// The stream-mode gate (see the module docs).
fn run_stream(
    current_path: &str,
    baseline_path: &str,
    max_regression: f64,
    max_first_fraction: f64,
) -> Result<String, String> {
    let current =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let baseline =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let ingest = json_number(&current, "ingest_rows_per_sec")?;
    let refreshes = json_number(&current, "refreshes")?;
    let live_qps = json_number(&current, "live_qps")?;
    let rounds_ok = json_number(&current, "online_rounds_ok")?;
    let fraction = json_number(&current, "first_snapshot_fraction")?;
    let baseline_ingest = json_number(&baseline, "ingest_rows_per_sec")?;
    let baseline_qps = json_number(&baseline, "live_qps")?;
    let ingest_floor = (1.0 - max_regression) * baseline_ingest;
    let qps_floor = (1.0 - max_regression) * baseline_qps;
    let mut report = format!(
        "stream gate: ingest {ingest:.1} rows/s (baseline {baseline_ingest:.1}, floor \
         {ingest_floor:.1}), live_qps {live_qps:.1} (baseline {baseline_qps:.1}, floor \
         {qps_floor:.1}), refreshes {refreshes:.0}, first snapshot at {fraction:.2} of the \
         full answer (ceiling {max_first_fraction:.2})\n"
    );
    let mut failed = false;
    if ingest < ingest_floor {
        failed = true;
        report.push_str(&format!(
            "FAIL: ingested rows/sec regressed more than {:.0}% below the baseline\n",
            100.0 * max_regression
        ));
    }
    if refreshes < 1.0 {
        failed = true;
        report.push_str(
            "FAIL: the run never triggered a staleness-policy metadata refresh — the \
             incremental-metadata path went unexercised, so the ingest number is vacuous\n",
        );
    }
    if live_qps < qps_floor {
        failed = true;
        report.push_str(&format!(
            "FAIL: post-ingest queries/sec regressed more than {:.0}% below the baseline\n",
            100.0 * max_regression
        ));
    }
    if rounds_ok != 1.0 {
        failed = true;
        report.push_str(
            "FAIL: the server did not push every online round — progressive answers \
             arrived truncated\n",
        );
    }
    if fraction > max_first_fraction {
        failed = true;
        report.push_str(&format!(
            "FAIL: the first pushed snapshot no longer lands early (mean arrival \
             {fraction:.2} of the full answer, ceiling {max_first_fraction:.2})\n"
        ));
    }
    if failed {
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

/// The attack-mode gate (see the module docs).
fn run_attack(
    current_path: &str,
    baseline_path: &str,
    band: f64,
    drift: f64,
    min_ceiling: f64,
) -> Result<String, String> {
    let current =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let baseline =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let chance = json_number(&current, "chance")?;
    let ceiling = json_number(&current, "ceiling_accuracy")?;
    let ledgers_ok = json_number(&current, "ledgers_ok")?;
    let mut report = format!(
        "attack gate: chance {chance:.2}, band ±{band:.2}, drift ±{drift:.2}; \
         no-DP ceiling accuracy {ceiling:.4} (floor {min_ceiling:.2})\n"
    );
    let mut failed = false;
    if ceiling < min_ceiling {
        failed = true;
        report.push_str(&format!(
            "FAIL: the no-DP ceiling accuracy is below {min_ceiling:.2} — the harness cannot \
             learn even from clean answers, so a chance-level attack proves nothing\n"
        ));
    }
    if ledgers_ok != 1.0 {
        failed = true;
        report.push_str(
            "FAIL: an analyst identity's server-side ledger exceeded its (xi, psi) grant\n",
        );
    }
    for variant in ["single", "coalition"] {
        for &xi in &XIS {
            for metric in ["accuracy", "auc"] {
                let key = metric_key(variant, xi, metric);
                let cur = json_number(&current, &key)?;
                let base = json_number(&baseline, &key)?;
                report.push_str(&format!("  {key}: {cur:.4} (baseline {base:.4})\n"));
                if (cur - chance).abs() > band {
                    failed = true;
                    report.push_str(&format!(
                        "FAIL: `{key}` strayed more than {band:.2} from chance — the private \
                         interface leaked a learnable signal\n"
                    ));
                }
                if (cur - base).abs() > drift {
                    failed = true;
                    report.push_str(&format!(
                        "FAIL: `{key}` drifted more than {drift:.2} from the committed baseline \
                         (attack runs are bit-reproducible; explain or re-baseline)\n"
                    ));
                }
            }
        }
    }
    if failed {
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

/// The `--help` text: one block per mode, flags with their defaults.
const HELP: &str = "\
bench_gate — CI regression gates over the repro benchmark summaries

usage: bench_gate [MODE] <current.json> <baseline.json> [FLAGS]

modes (default: throughput over BENCH_engine.json):
  --accuracy   estimator-quality gate over BENCH_accuracy.json
  --net        remote-serving gate over BENCH_net.json
  --shard      sharded-coordinator gate over BENCH_shard.json
  --stream     live-federation gate over BENCH_stream.json
  --attack     empirical-privacy gate over BENCH_attack.json

throughput flags:
  --max-regression R       allowed engine_qps drop vs baseline  [0.25]
  --min-speedup S          engine-vs-serial speedup floor       [2.0]
  --min-pruned-speedup P   pruned-vs-exhaustive speedup floor   [1.15]
  --min-pruned-fraction F  pruned provider-slot fraction floor  [0.5]

accuracy flags:
  --max-regression R       allowed calibrated-RMS rise          [0.25]
  --pairwise-slack K       calibrated-vs-PPS tie tolerance      [1.15]

net flags:
  --max-regression R       allowed net_qps drop vs baseline     [0.25]
  --min-scaling X          8-analyst vs 1-analyst scaling floor [4.0]

shard flags:
  --max-regression R       allowed two_shard_qps drop vs baseline [0.25]
  --min-scaling X          2-shard vs 1-shard grid scaling floor  [1.3]

stream flags:
  --max-regression R       allowed ingest/live_qps drop vs baseline [0.25]
  --max-first-fraction F   first-snapshot arrival ceiling, as a
                           fraction of the full online answer       [0.6]

attack flags:
  --attack-band B          allowed |metric - chance|            [0.10]
  --attack-drift D         allowed |metric - baseline|          [0.05]
  --min-ceiling C          no-DP ceiling accuracy floor         [0.65]

Exit status 0 on PASS, 1 on any FAIL (report on stderr).
";

fn run(args: &[String]) -> Result<String, String> {
    let mut positional = Vec::new();
    let mut max_regression = 0.25_f64;
    let mut min_speedup = 2.0_f64;
    let mut min_pruned_speedup = 1.15_f64;
    let mut min_pruned_fraction = 0.5_f64;
    let mut min_scaling: Option<f64> = None;
    let mut pairwise_slack = 1.15_f64;
    let mut attack_band = 0.10_f64;
    let mut attack_drift = 0.05_f64;
    let mut min_ceiling = 0.65_f64;
    let mut max_first_fraction = 0.6_f64;
    let mut accuracy = false;
    let mut net = false;
    let mut shard = false;
    let mut stream = false;
    let mut attack = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(HELP.to_string()),
            "--accuracy" => accuracy = true,
            "--net" => net = true,
            "--shard" => shard = true,
            "--stream" => stream = true,
            "--attack" => attack = true,
            "--max-first-fraction" => {
                i += 1;
                max_first_fraction = args
                    .get(i)
                    .ok_or("--max-first-fraction needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-first-fraction: {e}"))?;
            }
            "--attack-band" => {
                i += 1;
                attack_band = args
                    .get(i)
                    .ok_or("--attack-band needs a value")?
                    .parse()
                    .map_err(|e| format!("--attack-band: {e}"))?;
            }
            "--attack-drift" => {
                i += 1;
                attack_drift = args
                    .get(i)
                    .ok_or("--attack-drift needs a value")?
                    .parse()
                    .map_err(|e| format!("--attack-drift: {e}"))?;
            }
            "--min-ceiling" => {
                i += 1;
                min_ceiling = args
                    .get(i)
                    .ok_or("--min-ceiling needs a value")?
                    .parse()
                    .map_err(|e| format!("--min-ceiling: {e}"))?;
            }
            "--min-scaling" => {
                i += 1;
                min_scaling = Some(
                    args.get(i)
                        .ok_or("--min-scaling needs a value")?
                        .parse()
                        .map_err(|e| format!("--min-scaling: {e}"))?,
                );
            }
            "--max-regression" => {
                i += 1;
                max_regression = args
                    .get(i)
                    .ok_or("--max-regression needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-regression: {e}"))?;
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = args
                    .get(i)
                    .ok_or("--min-speedup needs a value")?
                    .parse()
                    .map_err(|e| format!("--min-speedup: {e}"))?;
            }
            "--min-pruned-speedup" => {
                i += 1;
                min_pruned_speedup = args
                    .get(i)
                    .ok_or("--min-pruned-speedup needs a value")?
                    .parse()
                    .map_err(|e| format!("--min-pruned-speedup: {e}"))?;
            }
            "--min-pruned-fraction" => {
                i += 1;
                min_pruned_fraction = args
                    .get(i)
                    .ok_or("--min-pruned-fraction needs a value")?
                    .parse()
                    .map_err(|e| format!("--min-pruned-fraction: {e}"))?;
            }
            "--pairwise-slack" => {
                i += 1;
                pairwise_slack = args
                    .get(i)
                    .ok_or("--pairwise-slack needs a value")?
                    .parse()
                    .map_err(|e| format!("--pairwise-slack: {e}"))?;
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let [current_path, baseline_path] = positional.as_slice() else {
        return Err(format!(
            "usage: bench_gate [--accuracy | --net | --shard | --stream | --attack] \
             <current.json> <baseline.json> [flags]\n\n{HELP}"
        ));
    };
    if accuracy {
        return run_accuracy(current_path, baseline_path, max_regression, pairwise_slack);
    }
    if net {
        return run_net(
            current_path,
            baseline_path,
            max_regression,
            min_scaling.unwrap_or(4.0),
        );
    }
    if shard {
        return run_shard(
            current_path,
            baseline_path,
            max_regression,
            min_scaling.unwrap_or(1.3),
        );
    }
    if stream {
        return run_stream(
            current_path,
            baseline_path,
            max_regression,
            max_first_fraction,
        );
    }
    if attack {
        return run_attack(
            current_path,
            baseline_path,
            attack_band,
            attack_drift,
            min_ceiling,
        );
    }
    let current_text =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let (current_qps, current_speedup) = load(current_path)?;
    let (baseline_qps, baseline_speedup) = load(baseline_path)?;
    let pruned_speedup = json_number(&current_text, "pruned_speedup")?;
    let pruned_fraction = json_number(&current_text, "pruned_fraction")?;
    let telemetry_overhead_pct = json_number(&current_text, "telemetry_overhead_pct")?;
    let qps_floor = (1.0 - max_regression) * baseline_qps;
    let mut report = format!(
        "bench gate: engine_qps {current_qps:.1} (baseline {baseline_qps:.1}, floor {qps_floor:.1}), \
         speedup {current_speedup:.2}x (baseline {baseline_speedup:.2}x, floor {min_speedup:.2}x), \
         pruned speedup {pruned_speedup:.2}x (floor {min_pruned_speedup:.2}x) at pruned fraction \
         {pruned_fraction:.2} (floor {min_pruned_fraction:.2}), telemetry overhead \
         {telemetry_overhead_pct:.2}% (reported, not gated)\n"
    );
    let mut failed = false;
    if current_qps < qps_floor {
        failed = true;
        report.push_str(&format!(
            "FAIL: queries/sec regressed more than {:.0}% below the baseline\n",
            100.0 * max_regression
        ));
    }
    if current_speedup < min_speedup {
        failed = true;
        report.push_str(&format!(
            "FAIL: concurrent engine no longer ≥{min_speedup:.1}x the serial runtime\n"
        ));
    }
    if pruned_fraction < min_pruned_fraction {
        failed = true;
        report.push_str(&format!(
            "FAIL: the optimizer pruned only {:.0}% of provider slots on the skewed layout \
             (floor {:.0}%) — the pruned-speedup gate would be vacuous\n",
            100.0 * pruned_fraction,
            100.0 * min_pruned_fraction
        ));
    }
    if pruned_speedup < min_pruned_speedup {
        failed = true;
        report.push_str(&format!(
            "FAIL: metadata pruning no longer ≥{min_pruned_speedup:.2}x the exhaustive plan \
             on the skewed band layout\n"
        ));
    }
    if failed {
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprint!("{report}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": "fedaqp-bench-engine/v1",
  "queries": 24,
  "serial_qps": 100.5,
  "engine_qps": 402.25,
  "speedup": 4.002,
  "pruned_jobs": 1200,
  "pruned_fraction": 0.75,
  "pruned_exhaustive_qps": 22000.0,
  "pruned_qps": 30000.0,
  "pruned_speedup": 1.364,
  "telemetry_on_qps": 29700.0,
  "telemetry_off_qps": 30000.0,
  "telemetry_overhead_pct": 1.000,
  "grid": [
    {"providers": 4, "mode": "engine", "analysts": 8, "qps": 402.25, "p50_ms": 1.2, "p95_ms": 3.4}
  ]
}"#;

    #[test]
    fn extracts_headline_numbers() {
        assert_eq!(json_number(DOC, "engine_qps").unwrap(), 402.25);
        assert_eq!(json_number(DOC, "speedup").unwrap(), 4.002);
        assert_eq!(json_number(DOC, "queries").unwrap(), 24.0);
        assert!(json_number(DOC, "missing").is_err());
    }

    #[test]
    fn gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&current, DOC).unwrap();
        std::fs::write(&baseline, DOC).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [current.to_str().unwrap(), baseline.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .chain(extra.iter().map(|s| s.to_string()))
                .collect()
        };
        // Identical current/baseline passes.
        assert!(run(&args(&[])).is_ok());
        // A baseline 10x above the current qps fails the regression band.
        let fast = DOC.replace("\"engine_qps\": 402.25", "\"engine_qps\": 4022.5");
        std::fs::write(&baseline, fast).unwrap();
        assert!(run(&args(&[])).unwrap_err().contains("regressed"));
        // ... unless the band is loosened to 95%.
        assert!(run(&args(&["--max-regression", "0.95"])).is_ok());
        // Speed-up floor above the current ratio fails.
        std::fs::write(&baseline, DOC).unwrap();
        let slow = DOC.replace("\"speedup\": 4.002", "\"speedup\": 1.5");
        std::fs::write(&current, slow).unwrap();
        assert!(run(&args(&[])).unwrap_err().contains("serial runtime"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_pruned_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&baseline, DOC).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [current.to_str().unwrap(), baseline.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .chain(extra.iter().map(|s| s.to_string()))
                .collect()
        };
        // Pruning losing its edge fails...
        let flat = DOC.replace("\"pruned_speedup\": 1.364", "\"pruned_speedup\": 1.01");
        std::fs::write(&current, flat).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("exhaustive plan"), "{err}");
        // ... unless the floor is lowered below the measurement.
        assert!(run(&args(&["--min-pruned-speedup", "1.0"])).is_ok());
        // A layout where (almost) nothing is pruned makes the speed-up
        // gate vacuous: fail loudly even though the ratio itself passes.
        let vacuous = DOC.replace("\"pruned_fraction\": 0.75", "\"pruned_fraction\": 0.05");
        std::fs::write(&current, vacuous).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        assert!(run(&args(&["--min-pruned-fraction", "0.01"])).is_ok());
        // A summary predating the pruned keys is a hard error, not a pass.
        std::fs::write(&current, DOC.replace("\"pruned_speedup\": 1.364,\n", "")).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("pruned_speedup"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_telemetry_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&baseline, DOC).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [current.to_str().unwrap(), baseline.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .chain(extra.iter().map(|s| s.to_string()))
                .collect()
        };
        // The overhead is reported, never gated: a costly reading and a
        // negative one ("on" won the race — noise) both pass.
        for overhead in ["5.000", "-0.400"] {
            let doc = DOC.replace(
                "\"telemetry_overhead_pct\": 1.000",
                &format!("\"telemetry_overhead_pct\": {overhead}"),
            );
            std::fs::write(&current, doc).unwrap();
            let report = run(&args(&[])).unwrap();
            assert!(report.contains("reported, not gated"), "{report}");
        }
        // The retired ceiling flag is no longer a flag.
        let err = run(&args(&["--max-telemetry-overhead-pct", "10.0"])).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        // A summary predating the telemetry keys is a hard error.
        std::fs::write(
            &current,
            DOC.replace("\"telemetry_overhead_pct\": 1.000,\n", ""),
        )
        .unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("telemetry_overhead_pct"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(run(&["one".into()]).unwrap_err().contains("usage"));
    }

    #[test]
    fn help_prints_every_mode_and_exits_zero() {
        let help = run(&["--help".into()]).unwrap();
        for needle in [
            "--accuracy",
            "--net",
            "--shard",
            "--stream",
            "--attack",
            "--max-first-fraction",
            "--min-pruned-speedup",
            "--min-pruned-fraction",
            "--min-speedup",
            "--min-scaling",
            "--pairwise-slack",
            "--attack-band",
            "--min-ceiling",
        ] {
            assert!(help.contains(needle), "help is missing `{needle}`");
        }
        assert_eq!(run(&["-h".into()]).unwrap(), help);
    }

    const NET_DOC: &str = r#"{
  "schema": "fedaqp-bench-net/v1",
  "queries": 48,
  "headline_analysts": 8,
  "single_qps": 9.8,
  "net_qps": 71.5,
  "scaling": 7.296,
  "net_p50_ms": 104.1,
  "net_p95_ms": 110.2,
  "grid": [
    {"analysts": 8, "qps": 71.5, "p50_ms": 104.1, "p95_ms": 110.2}
  ]
}"#;

    #[test]
    fn net_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_net_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&current, NET_DOC).unwrap();
        std::fs::write(&baseline, NET_DOC).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [
                "--net",
                current.to_str().unwrap(),
                baseline.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect()
        };
        // Identical current/baseline passes.
        assert!(run(&args(&[])).is_ok());
        // A baseline 10x above the current qps fails the regression band.
        let fast = NET_DOC.replace("\"net_qps\": 71.5", "\"net_qps\": 715.0");
        std::fs::write(&baseline, fast).unwrap();
        assert!(run(&args(&[])).unwrap_err().contains("regressed"));
        assert!(run(&args(&["--max-regression", "0.95"])).is_ok());
        // Scaling below the floor fails.
        std::fs::write(&baseline, NET_DOC).unwrap();
        let flat = NET_DOC.replace("\"scaling\": 7.296", "\"scaling\": 2.1");
        std::fs::write(&current, flat).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("no longer scales"), "{err}");
        // ... unless the floor is lowered.
        assert!(run(&args(&["--min-scaling", "2.0"])).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    const SHARD_DOC: &str = r#"{
  "schema": "fedaqp-bench-shard/v1",
  "dataset": "adult_synth",
  "providers": 8,
  "analysts": 8,
  "queries": 48,
  "one_shard_qps": 44.2,
  "two_shard_qps": 81.6,
  "scaling": 1.846,
  "two_shard_p50_ms": 22.4,
  "two_shard_p95_ms": 30.1
}"#;

    #[test]
    fn shard_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_shard_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&current, SHARD_DOC).unwrap();
        std::fs::write(&baseline, SHARD_DOC).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [
                "--shard",
                current.to_str().unwrap(),
                baseline.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect()
        };
        // Identical current/baseline passes.
        assert!(run(&args(&[])).is_ok());
        // A baseline 10x above the current 2-shard qps fails the band.
        let fast = SHARD_DOC.replace("\"two_shard_qps\": 81.6", "\"two_shard_qps\": 816.0");
        std::fs::write(&baseline, fast).unwrap();
        assert!(run(&args(&[])).unwrap_err().contains("regressed"));
        assert!(run(&args(&["--max-regression", "0.95"])).is_ok());
        // Scaling below the 1.3x floor fails.
        std::fs::write(&baseline, SHARD_DOC).unwrap();
        let flat = SHARD_DOC.replace("\"scaling\": 1.846", "\"scaling\": 1.05");
        std::fs::write(&current, flat).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("equal total providers"), "{err}");
        // ... unless the floor is lowered below the measurement.
        assert!(run(&args(&["--min-scaling", "1.0"])).is_ok());
        // A 1-shard grid that answered nothing makes the ratio vacuous.
        let dead = SHARD_DOC.replace("\"one_shard_qps\": 44.2", "\"one_shard_qps\": 0.0");
        std::fs::write(&current, dead).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    const STREAM_DOC: &str = r#"{
  "schema": "fedaqp-bench-stream/v1",
  "dataset": "adult_synth",
  "queries": 24,
  "batches": 8,
  "stream_rows": 7500,
  "ingest_rows_per_sec": 52000.0,
  "epochs": 8,
  "refreshes": 4,
  "pre_qps": 310.0,
  "live_qps": 285.5,
  "live_p50_ms": 3.1,
  "live_p95_ms": 4.8,
  "online_rounds": 4,
  "online_rounds_ok": 1,
  "first_snapshot_ms": 2.4,
  "online_total_ms": 10.6,
  "first_snapshot_fraction": 0.2264
}"#;

    #[test]
    fn stream_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_stream_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&current, STREAM_DOC).unwrap();
        std::fs::write(&baseline, STREAM_DOC).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [
                "--stream",
                current.to_str().unwrap(),
                baseline.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect()
        };
        // Identical current/baseline passes.
        assert!(run(&args(&[])).is_ok());
        // A baseline 10x above the current ingest rate fails the band.
        let fast = STREAM_DOC.replace(
            "\"ingest_rows_per_sec\": 52000.0",
            "\"ingest_rows_per_sec\": 520000.0",
        );
        std::fs::write(&baseline, fast).unwrap();
        assert!(run(&args(&[])).unwrap_err().contains("ingested rows/sec"));
        assert!(run(&args(&["--max-regression", "0.95"])).is_ok());
        // A live-qps regression fails too.
        let fast = STREAM_DOC.replace("\"live_qps\": 285.5", "\"live_qps\": 2855.0");
        std::fs::write(&baseline, fast).unwrap();
        assert!(run(&args(&[]))
            .unwrap_err()
            .contains("post-ingest queries/sec"));
        std::fs::write(&baseline, STREAM_DOC).unwrap();
        // A run that never refreshed metadata is vacuous: fail loudly.
        let frozen = STREAM_DOC.replace("\"refreshes\": 4", "\"refreshes\": 0");
        std::fs::write(&current, frozen).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        // A truncated online stream fails regardless of throughput.
        let truncated = STREAM_DOC.replace("\"online_rounds_ok\": 1", "\"online_rounds_ok\": 0");
        std::fs::write(&current, truncated).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // A late first snapshot fails...
        let late = STREAM_DOC.replace(
            "\"first_snapshot_fraction\": 0.2264",
            "\"first_snapshot_fraction\": 0.9100",
        );
        std::fs::write(&current, late).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("no longer lands early"), "{err}");
        // ... unless the ceiling is raised above the measurement.
        assert!(run(&args(&["--max-first-fraction", "0.95"])).is_ok());
        // A summary predating the stream keys is a hard error.
        std::fs::write(&current, STREAM_DOC.replace("\"refreshes\": 4,\n", "")).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("refreshes"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A synthetic attack summary: every attacked metric hugs chance, the
    /// no-DP ceiling shows real signal, and every ledger held.
    fn attack_doc() -> String {
        let mut keys = Vec::new();
        for (v, variant) in ["single", "coalition"].iter().enumerate() {
            for (i, &xi) in XIS.iter().enumerate() {
                let acc = 0.5 + 0.01 * (i as f64 - v as f64);
                let auc = 0.5 - 0.008 * (i as f64 + v as f64);
                keys.push(format!(
                    "  \"{}\": {acc:.6}",
                    metric_key(variant, xi, "accuracy")
                ));
                keys.push(format!(
                    "  \"{}\": {auc:.6}",
                    metric_key(variant, xi, "auc")
                ));
            }
        }
        format!(
            "{{\n  \"schema\": \"fedaqp-bench-attack/v1\",\n  \"chance\": 0.5,\n  \
             \"cells\": 9000,\n  \"coalition_members\": 4,\n  \"ceiling_accuracy\": 0.831000,\n  \
             \"ceiling_auc\": 0.902000,\n  \"ledgers_ok\": 1,\n{}\n}}\n",
            keys.join(",\n")
        )
    }

    #[test]
    fn attack_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_attack_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        let doc = attack_doc();
        std::fs::write(&current, &doc).unwrap();
        std::fs::write(&baseline, &doc).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [
                "--attack",
                current.to_str().unwrap(),
                baseline.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect()
        };
        // Identical current/baseline at chance passes.
        assert!(run(&args(&[])).is_ok());
        // An attacked accuracy escaping the chance band fails.
        let key = metric_key("coalition", XIS[2], "accuracy");
        let leaky = doc.replace(&format!("\"{key}\": 0.51"), &format!("\"{key}\": 0.70"));
        assert_ne!(leaky, doc, "test fixture must hit the coalition key");
        std::fs::write(&current, &leaky).unwrap();
        let err = run(&args(&["--attack-drift", "10.0"])).unwrap_err();
        assert!(err.contains("leaked a learnable signal"), "{err}");
        // ... unless the band is widened past the excursion.
        assert!(run(&args(&["--attack-drift", "10.0", "--attack-band", "0.30"])).is_ok());
        // Within-band but off-baseline movement fails the drift check.
        let drifted = doc.replace(&format!("\"{key}\": 0.51"), &format!("\"{key}\": 0.44"));
        std::fs::write(&current, &drifted).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        assert!(run(&args(&["--attack-drift", "0.20"])).is_ok());
        // A collapsed no-DP ceiling makes the gate vacuous: fail loudly.
        let blind = doc.replace(
            "\"ceiling_accuracy\": 0.831000",
            "\"ceiling_accuracy\": 0.503000",
        );
        std::fs::write(&current, &blind).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("proves nothing"), "{err}");
        assert!(run(&args(&["--min-ceiling", "0.50"])).is_ok());
        // An overspent ledger fails regardless of the metrics.
        let overspent = doc.replace("\"ledgers_ok\": 1", "\"ledgers_ok\": 0");
        std::fs::write(&current, &overspent).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("ledger"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A synthetic accuracy summary: calibrated RMS falls with the rate
    /// and beats the PPS divisor everywhere.
    fn accuracy_doc() -> String {
        let mut keys = Vec::new();
        for (i, &rate) in RATES.iter().enumerate() {
            let em = 0.30 - 0.04 * i as f64;
            let pps = em + 0.02 * i as f64 + 0.001;
            keys.push(format!("  \"{}\": {em:.6}", rate_key("em", rate)));
            keys.push(format!("  \"{}\": {pps:.6}", rate_key("pps", rate)));
        }
        format!(
            "{{\n  \"schema\": \"fedaqp-bench-accuracy/v1\",\n  \"trials\": 40,\n{}\n}}\n",
            keys.join(",\n")
        )
    }

    #[test]
    fn accuracy_gate_passes_and_fails() {
        let dir = std::env::temp_dir().join("fedaqp_accuracy_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        let doc = accuracy_doc();
        std::fs::write(&current, &doc).unwrap();
        std::fs::write(&baseline, &doc).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [
                "--accuracy",
                current.to_str().unwrap(),
                baseline.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect()
        };
        // Identical current/baseline passes.
        assert!(run(&args(&[])).is_ok());
        // A baseline far below the current top-rate RMS fails the band.
        let top = rate_key("em", RATES[RATES.len() - 1]);
        let tightened = doc.replace(&format!("\"{top}\": 0.14"), &format!("\"{top}\": 0.05"));
        assert_ne!(tightened, doc, "test fixture must hit the top-rate key");
        std::fs::write(&baseline, &tightened).unwrap();
        assert!(run(&args(&[])).unwrap_err().contains("regressed"));
        // ... unless the band is loosened.
        assert!(run(&args(&["--max-regression", "2.0"])).is_ok());
        std::fs::write(&baseline, &doc).unwrap();
        // Error no longer falling with rate fails.
        let rising = doc.replace(&format!("\"{top}\": 0.14"), &format!("\"{top}\": 0.50"));
        std::fs::write(&current, &rising).unwrap();
        let err = run(&args(&["--max-regression", "10.0"])).unwrap_err();
        assert!(err.contains("falls with the sampling rate"), "{err}");
        // Calibrated losing to PPS at one rate fails.
        let losing = doc.replace(
            &format!("\"{}\": 0.26", rate_key("em", RATES[1])),
            &format!("\"{}\": 0.40", rate_key("em", RATES[1])),
        );
        assert_ne!(losing, doc);
        std::fs::write(&current, &losing).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.contains("the tie slack"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
