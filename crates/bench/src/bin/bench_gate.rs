//! `bench_gate` — the CI regression gates over the machine-readable
//! benchmark summaries.
//!
//! ```text
//! bench_gate <current.json> <baseline.json>
//! ```
//!
//! Checks every row of the gate table ([`fedaqp_bench::gate`]) whose
//! schema is the current summary's `"schema"`, and exits 1 on any
//! failure, a schema mismatch or a missing key. There are no threshold
//! flags: the table is the only place a threshold lives.

use std::process::ExitCode;

use fedaqp_bench::gate;

const USAGE: &str = "usage: bench_gate <current.json> <baseline.json>";

fn help() -> String {
    format!(
        "bench_gate — CI regression gates over the repro benchmark summaries\n\n\
         {USAGE}\n\n\
         Checks every row below whose schema is the current summary's \"schema\".\n\
         Exit status 0 on PASS, 1 on any FAIL (report on stderr).\n\n{}",
        gate::markdown()
    )
}

fn run(args: &[String]) -> Result<String, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(help());
    }
    let [current, baseline] = args else {
        return Err(format!("{USAGE}\n"));
    };
    if current.starts_with('-') || baseline.starts_with('-') {
        return Err(format!("{USAGE}\n"));
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}\n"));
    gate::check(&read(current)?, &read(baseline)?)
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
    use fedaqp_bench::experiments::accuracy::{rate_key, RATES};
    use fedaqp_bench::experiments::attack::{metric_key, XIS};
    use gate::{check, json_number};

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

    /// `doc` with `from` replaced by `to`, which must hit.
    fn edit(doc: &str, from: &str, to: &str) -> String {
        assert!(doc.contains(from), "fixture lacks `{from}`");
        doc.replace(from, to)
    }

    #[test]
    fn extracts_headline_numbers() {
        assert_eq!(json_number(DOC, "engine_qps").unwrap(), 402.25);
        assert_eq!(json_number(DOC, "speedup").unwrap(), 4.002);
        assert_eq!(json_number(DOC, "queries").unwrap(), 24.0);
        assert!(json_number(DOC, "missing").is_err());
    }

    #[test]
    fn gate_passes_and_fails() {
        // Identical current/baseline passes.
        assert!(check(DOC, DOC).unwrap().ends_with("PASS\n"));
        // A baseline 10x above the current qps fails the regression band.
        let fast = edit(DOC, "\"engine_qps\": 402.25", "\"engine_qps\": 4022.5");
        assert!(check(DOC, &fast).unwrap_err().contains("regressed"));
        // Speed-up floor above the current ratio fails.
        let slow = edit(DOC, "\"speedup\": 4.002", "\"speedup\": 1.5");
        assert!(check(&slow, DOC).unwrap_err().contains("serial runtime"));
        // Summaries of two different experiments are not compared.
        let net = edit(DOC, "engine/v1", "net/v1");
        assert!(check(DOC, &net).unwrap_err().contains("schema mismatch"));
        let unknown = edit(DOC, "engine/v1", "engine/v0");
        let err = check(&unknown, &unknown).unwrap_err();
        assert!(err.contains("no gate rows"), "{err}");
    }

    #[test]
    fn pruned_gate_passes_and_fails() {
        // Pruning losing its edge fails.
        let flat = edit(DOC, "\"pruned_speedup\": 1.364", "\"pruned_speedup\": 1.01");
        let err = check(&flat, DOC).unwrap_err();
        assert!(err.contains("exhaustive plan"), "{err}");
        // A layout where (almost) nothing is pruned makes the speed-up
        // gate vacuous: fail loudly even though the ratio itself passes.
        let vacuous = edit(
            DOC,
            "\"pruned_fraction\": 0.75",
            "\"pruned_fraction\": 0.05",
        );
        let err = check(&vacuous, DOC).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        // A summary predating the pruned keys is a hard error, not a pass.
        let old = edit(DOC, "\"pruned_speedup\": 1.364,\n", "");
        let err = check(&old, DOC).unwrap_err();
        assert!(err.contains("pruned_speedup"), "{err}");
    }

    #[test]
    fn telemetry_gate_passes_and_fails() {
        // The overhead is reported, never gated: a costly reading and a
        // negative one ("on" won the race — noise) both pass.
        for overhead in ["5.000", "-0.400"] {
            let doc = edit(
                DOC,
                "\"telemetry_overhead_pct\": 1.000",
                &format!("\"telemetry_overhead_pct\": {overhead}"),
            );
            let report = check(&doc, DOC).unwrap();
            assert!(report.contains("reported, not gated"), "{report}");
        }
        // The retired ceiling flag is no longer a flag.
        let args = ["a.json", "b.json", "--max-telemetry-overhead-pct", "10.0"];
        let err = run(&args.map(String::from)).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        // A summary predating the telemetry keys is a hard error.
        let old = edit(DOC, "\"telemetry_overhead_pct\": 1.000,\n", "");
        let err = check(&old, DOC).unwrap_err();
        assert!(err.contains("telemetry_overhead_pct"), "{err}");
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(run(&["one".into()]).unwrap_err().contains("usage"));
        // Flags (the retired modes and thresholds included) are refused,
        // not ignored.
        for flag in ["--frob", "-x"] {
            let args = [flag, "a.json", "b.json"].map(String::from);
            assert!(run(&args).unwrap_err().contains("usage"), "{flag}");
        }
    }

    #[test]
    fn help_prints_every_mode_and_exits_zero() {
        let help = run(&["--help".into()]).unwrap();
        assert!(help.contains(&gate::markdown()), "{help}");
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
        assert!(check(NET_DOC, NET_DOC).is_ok());
        // A baseline 10x above the current qps fails the regression band.
        let fast = edit(NET_DOC, "\"net_qps\": 71.5", "\"net_qps\": 715.0");
        assert!(check(NET_DOC, &fast).unwrap_err().contains("regressed"));
        // Scaling below the floor fails.
        let flat = edit(NET_DOC, "\"scaling\": 7.296", "\"scaling\": 2.1");
        let err = check(&flat, NET_DOC).unwrap_err();
        assert!(err.contains("no longer scales"), "{err}");
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
        assert!(check(SHARD_DOC, SHARD_DOC).is_ok());
        // A baseline 10x above the current 2-shard qps fails the band.
        let fast = edit(
            SHARD_DOC,
            "\"two_shard_qps\": 81.6",
            "\"two_shard_qps\": 816.0",
        );
        assert!(check(SHARD_DOC, &fast).unwrap_err().contains("regressed"));
        // Scaling below the 1.3x floor fails.
        let flat = edit(SHARD_DOC, "\"scaling\": 1.846", "\"scaling\": 1.05");
        let err = check(&flat, SHARD_DOC).unwrap_err();
        assert!(err.contains("equal total providers"), "{err}");
        // A 1-shard grid that answered nothing makes the ratio vacuous.
        let dead = edit(
            SHARD_DOC,
            "\"one_shard_qps\": 44.2",
            "\"one_shard_qps\": 0.0",
        );
        let err = check(&dead, SHARD_DOC).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
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
        assert!(check(STREAM_DOC, STREAM_DOC).is_ok());
        // The compute-bound numbers get a 50% band: 0.6x passes, 0.1x fails.
        let faster = edit(
            STREAM_DOC,
            "\"ingest_rows_per_sec\": 52000.0",
            "\"ingest_rows_per_sec\": 86000.0",
        );
        assert!(check(STREAM_DOC, &faster).is_ok());
        let fast = edit(
            STREAM_DOC,
            "\"ingest_rows_per_sec\": 52000.0",
            "\"ingest_rows_per_sec\": 520000.0",
        );
        let err = check(STREAM_DOC, &fast).unwrap_err();
        assert!(err.contains("ingested rows/sec"), "{err}");
        // A live-qps regression fails too.
        let fast = edit(STREAM_DOC, "\"live_qps\": 285.5", "\"live_qps\": 2855.0");
        let err = check(STREAM_DOC, &fast).unwrap_err();
        assert!(err.contains("post-ingest queries/sec"), "{err}");
        // A run that never refreshed metadata is vacuous: fail loudly.
        let frozen = edit(STREAM_DOC, "\"refreshes\": 4", "\"refreshes\": 0");
        let err = check(&frozen, STREAM_DOC).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        // A truncated online stream fails regardless of throughput.
        let truncated = edit(
            STREAM_DOC,
            "\"online_rounds_ok\": 1",
            "\"online_rounds_ok\": 0",
        );
        let err = check(&truncated, STREAM_DOC).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // A late first snapshot fails.
        let late = edit(
            STREAM_DOC,
            "\"first_snapshot_fraction\": 0.2264",
            "\"first_snapshot_fraction\": 0.9100",
        );
        let err = check(&late, STREAM_DOC).unwrap_err();
        assert!(err.contains("no longer lands early"), "{err}");
        // A summary predating the stream keys is a hard error.
        let old = edit(STREAM_DOC, "\"refreshes\": 4,\n", "");
        let err = check(&old, STREAM_DOC).unwrap_err();
        assert!(err.contains("refreshes"), "{err}");
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
        let doc = attack_doc();
        // Identical current/baseline at chance passes.
        assert!(check(&doc, &doc).is_ok());
        // An attacked accuracy escaping the chance band fails, even when
        // the baseline moved with it.
        let key = metric_key("coalition", XIS[2], "accuracy");
        let leaky = edit(
            &doc,
            &format!("\"{key}\": 0.51"),
            &format!("\"{key}\": 0.70"),
        );
        let err = check(&leaky, &leaky).unwrap_err();
        assert!(err.contains("leaked a learnable signal"), "{err}");
        assert!(!err.contains("drifted"), "{err}");
        // Within-band but off-baseline movement fails the drift check.
        let drifted = edit(
            &doc,
            &format!("\"{key}\": 0.51"),
            &format!("\"{key}\": 0.44"),
        );
        let err = check(&drifted, &doc).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        assert!(!err.contains("leaked"), "{err}");
        // A collapsed no-DP ceiling makes the gate vacuous: fail loudly.
        let blind = edit(
            &doc,
            "\"ceiling_accuracy\": 0.831000",
            "\"ceiling_accuracy\": 0.503000",
        );
        let err = check(&blind, &doc).unwrap_err();
        assert!(err.contains("proves nothing"), "{err}");
        // An overspent ledger fails regardless of the metrics.
        let overspent = edit(&doc, "\"ledgers_ok\": 1", "\"ledgers_ok\": 0");
        let err = check(&overspent, &doc).unwrap_err();
        assert!(err.contains("ledger"), "{err}");
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
        let doc = accuracy_doc();
        assert!(check(&doc, &doc).is_ok());
        // A baseline far below the current top-rate RMS fails the band.
        let top = rate_key("em", RATES[RATES.len() - 1]);
        let tightened = edit(
            &doc,
            &format!("\"{top}\": 0.14"),
            &format!("\"{top}\": 0.05"),
        );
        assert!(check(&doc, &tightened).unwrap_err().contains("regressed"));
        // Error no longer falling with rate fails, even when the baseline
        // moved with it.
        let rising = edit(
            &doc,
            &format!("\"{top}\": 0.14"),
            &format!("\"{top}\": 0.50"),
        );
        let err = check(&rising, &rising).unwrap_err();
        assert!(err.contains("falls with the sampling rate"), "{err}");
        // Calibrated losing to PPS at one rate fails.
        let em = rate_key("em", RATES[1]);
        let losing = edit(&doc, &format!("\"{em}\": 0.26"), &format!("\"{em}\": 0.40"));
        let err = check(&losing, &doc).unwrap_err();
        assert!(err.contains("the tie slack"), "{err}");
    }
}
