//! The CI gate table: every check `bench_gate` runs over the `repro`
//! benchmark summaries, one [`Row`] each.
//!
//! A row says that the summary whose `"schema"` value is
//! [`Row::schema`] must satisfy [`Row::rule`] at [`Row::key`], and what
//! the failure means. [`check`] takes the rows from the *current*
//! summary's own schema, so the file says which gates apply and no
//! command-line flag can move a threshold: a threshold change is a diff
//! to [`rules`], and to the copy of [`markdown`] in `docs/benchmarks.md`
//! that a test holds to it. That page explains why each row exists.
//!
//! The summaries are flat JSON written by the experiments themselves;
//! every gated key is a unique substring, so a key lookup
//! ([`json_number`]) is all the parsing needed.

use std::fmt;

use crate::experiments::accuracy::{rate_key, RATES};
use crate::experiments::attack::{metric_key, XIS};

/// `repro throughput` → `BENCH_engine.json` (baseline `BENCH_baseline.json`).
pub const ENGINE_SCHEMA: &str = "fedaqp-bench-engine/v1";
/// `repro accuracy` → `BENCH_accuracy.json`.
pub const ACCURACY_SCHEMA: &str = "fedaqp-bench-accuracy/v1";
/// `repro net` → `BENCH_net.json`.
pub const NET_SCHEMA: &str = "fedaqp-bench-net/v1";
/// `repro shard` → `BENCH_shard.json`.
pub const SHARD_SCHEMA: &str = "fedaqp-bench-shard/v1";
/// `repro stream` → `BENCH_stream.json`.
pub const STREAM_SCHEMA: &str = "fedaqp-bench-stream/v1";
/// `repro attack` → `BENCH_attack.json`.
pub const ATTACK_SCHEMA: &str = "fedaqp-bench-attack/v1";

/// What a row requires of the value `v` at its key in the current
/// summary. "Baseline" is the same key in the committed baseline; an
/// `other` key is read from the current summary.
#[derive(Debug)]
pub enum Rule {
    /// `v ≥ (1 − r) · baseline`: a regression band on a throughput.
    Floor(f64),
    /// `v ≤ (1 + r) · baseline`: a regression band on an error.
    Ceiling(f64),
    /// `v ≥ c`.
    AtLeast(f64),
    /// `v > c`.
    Above(f64),
    /// `v ≤ c`.
    AtMost(f64),
    /// `v = c`.
    Equals(f64),
    /// `v < other`.
    Below(String),
    /// `v ≤ k · other`.
    AtMostTimes(f64, String),
    /// `|v − other| ≤ b`.
    Near(f64, String),
    /// `|v − baseline| ≤ d`.
    Drift(f64),
    /// Printed, never gated; the key must still be present.
    Report,
}

impl Rule {
    /// Whether `v` meets the rule (`None` for [`Rule::Report`]), and the
    /// number it was compared against when that is not a constant.
    fn evaluate(
        &self,
        v: f64,
        key: &str,
        current: &str,
        baseline: &str,
    ) -> Result<(Option<bool>, Option<f64>), String> {
        let base = || json_number(baseline, key).map_err(|e| format!("baseline: {e}"));
        let other = |o: &str| json_number(current, o).map_err(|e| format!("current: {e}"));
        let (holds, against) = match self {
            Rule::Floor(r) => {
                let b = base()?;
                (v >= (1.0 - r) * b, Some(b))
            }
            Rule::Ceiling(r) => {
                let b = base()?;
                (v <= (1.0 + r) * b, Some(b))
            }
            Rule::AtLeast(c) => (v >= *c, None),
            Rule::Above(c) => (v > *c, None),
            Rule::AtMost(c) => (v <= *c, None),
            Rule::Equals(c) => (v == *c, None),
            Rule::Below(o) => {
                let x = other(o)?;
                (v < x, Some(x))
            }
            Rule::AtMostTimes(k, o) => {
                let x = other(o)?;
                (v <= k * x, Some(x))
            }
            Rule::Near(b, o) => {
                let x = other(o)?;
                ((v - x).abs() <= *b, Some(x))
            }
            Rule::Drift(d) => {
                let b = base()?;
                ((v - b).abs() <= *d, Some(b))
            }
            Rule::Report => return Ok((None, None)),
        };
        Ok((Some(holds), against))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Floor(r) => write!(f, "≥ (1 − {r}) × baseline"),
            Rule::Ceiling(r) => write!(f, "≤ (1 + {r}) × baseline"),
            Rule::AtLeast(c) => write!(f, "≥ {c}"),
            Rule::Above(c) => write!(f, "> {c}"),
            Rule::AtMost(c) => write!(f, "≤ {c}"),
            Rule::Equals(c) => write!(f, "= {c}"),
            Rule::Below(o) => write!(f, "< `{o}`"),
            Rule::AtMostTimes(k, o) => write!(f, "≤ {k} × `{o}`"),
            Rule::Near(b, o) => write!(f, "within ±{b} of `{o}`"),
            Rule::Drift(d) => write!(f, "within ±{d} of baseline"),
            Rule::Report => write!(f, "reported, not gated"),
        }
    }
}

/// One gate: `rule` must hold at `key` in every summary of `schema`.
#[derive(Debug)]
pub struct Row {
    /// The summary's `"schema"` value.
    pub schema: &'static str,
    /// The JSON key the rule reads.
    pub key: String,
    /// The requirement.
    pub rule: Rule,
    /// What a failure means; printed only when the rule does not hold.
    pub message: String,
}

fn row(
    schema: &'static str,
    key: impl Into<String>,
    rule: Rule,
    message: impl Into<String>,
) -> Row {
    Row {
        schema,
        key: key.into(),
        rule,
        message: message.into(),
    }
}

/// Every gate, in report order. Absolute throughputs get regression
/// bands (runners differ in speed); the other rows are machine-independent
/// ratios, orderings, vacuity guards and seeded Monte-Carlo numbers.
#[rustfmt::skip]
pub fn rules() -> Vec<Row> {
    use Rule::*;
    let top = RATES[RATES.len() - 1];
    let mut rows = vec![
        row(ENGINE_SCHEMA, "engine_qps", Floor(0.25),
            "queries/sec regressed below the baseline's band"),
        row(ENGINE_SCHEMA, "speedup", AtLeast(2.0),
            "the concurrent engine is no longer enough faster than the serial runtime"),
        row(ENGINE_SCHEMA, "pruned_fraction", AtLeast(0.5),
            "the optimizer pruned too few provider slots on the skewed layout — the pruned-speedup gate would be vacuous"),
        row(ENGINE_SCHEMA, "pruned_speedup", AtLeast(1.15),
            "metadata pruning no longer beats the exhaustive plan on the skewed band layout"),
        row(ENGINE_SCHEMA, "telemetry_overhead_pct", Report,
            "obs telemetry cost, noise on both sides of zero on a shared runner"),
        row(ACCURACY_SCHEMA, rate_key("em", top), Ceiling(0.25),
            "calibrated RMS at the top sampling rate regressed above the baseline's band"),
        row(ACCURACY_SCHEMA, rate_key("em", top), Below(rate_key("em", RATES[0])),
            "estimation error no longer falls with the sampling rate"),
        row(ACCURACY_SCHEMA, rate_key("em", top), Below(rate_key("pps", top)),
            "calibrated RMS no longer beats the PpsEq3 divisor at the top sampling rate"),
    ];
    // The low-rate tie slack. At the top rate the strict win above
    // already implies it.
    for &rate in &RATES[..RATES.len() - 1] {
        rows.push(row(ACCURACY_SCHEMA, rate_key("em", rate), AtMostTimes(1.15, rate_key("pps", rate)),
            format!("calibrated RMS loses to PpsEq3 beyond the tie slack at sr={:.0}%", rate * 100.0)));
    }
    rows.extend([
        row(NET_SCHEMA, "net_qps", Floor(0.25),
            "remote queries/sec regressed below the baseline's band"),
        row(NET_SCHEMA, "scaling", AtLeast(4.0),
            "remote throughput no longer scales from 1 to the headline analyst count"),
        row(SHARD_SCHEMA, "one_shard_qps", Above(0.0),
            "the 1-shard grid answered nothing — the scaling comparison is vacuous"),
        row(SHARD_SCHEMA, "two_shard_qps", Floor(0.25),
            "2-shard queries/sec regressed below the baseline's band"),
        row(SHARD_SCHEMA, "scaling", AtLeast(1.3),
            "the 2-shard grid no longer outscales the 1-shard grid at equal total providers"),
        // Compute-bound (no slept transit): a band wide enough that runner
        // speed alone cannot trip it.
        row(STREAM_SCHEMA, "ingest_rows_per_sec", Floor(0.5),
            "ingested rows/sec regressed below the baseline's band"),
        row(STREAM_SCHEMA, "refreshes", AtLeast(1.0),
            "the run never triggered a staleness-policy metadata refresh — the ingest number is vacuous"),
        row(STREAM_SCHEMA, "live_qps", Floor(0.5),
            "post-ingest queries/sec regressed below the baseline's band"),
        row(STREAM_SCHEMA, "online_rounds_ok", Equals(1.0),
            "the server did not push every online round — progressive answers arrived truncated"),
        row(STREAM_SCHEMA, "first_snapshot_fraction", AtMost(0.6),
            "the first pushed snapshot no longer lands early"),
        row(ATTACK_SCHEMA, "ceiling_accuracy", AtLeast(0.65),
            "the harness cannot learn even from clean answers, so a chance-level attack proves nothing"),
        row(ATTACK_SCHEMA, "ledgers_ok", Equals(1.0),
            "an analyst identity's server-side ledger exceeded its (xi, psi) grant"),
    ]);
    for variant in ["single", "coalition"] {
        for &xi in &XIS {
            for metric in ["accuracy", "auc"] {
                let key = metric_key(variant, xi, metric);
                rows.push(row(ATTACK_SCHEMA, &key, Near(0.10, "chance".into()),
                    format!("`{key}` strayed from chance: the private interface leaked a learnable signal")));
                rows.push(row(ATTACK_SCHEMA, &key, Drift(0.05),
                    format!("`{key}` drifted from the committed baseline: the noise path changed")));
            }
        }
    }
    rows
}

/// The table as Markdown, one line per row in [`rules`] order.
pub fn markdown() -> String {
    let mut out = String::from("| schema | key | rule | on failure |\n|---|---|---|---|\n");
    for r in rules() {
        out.push_str(&format!(
            "| `{}` | `{}` | {} | {} |\n",
            r.schema, r.key, r.rule, r.message
        ));
    }
    out
}

/// Gates the `current` summary against the committed `baseline`, both as
/// JSON text: `Ok(report)` when every row of the current summary's schema
/// holds, `Err(report)` naming each failed row's message otherwise. A
/// schema mismatch, a schema without rows and a missing key are errors.
pub fn check(current: &str, baseline: &str) -> Result<String, String> {
    let baseline_schema = schema(baseline).map_err(|e| format!("baseline: {e}\n"))?;
    let schema = schema(current).map_err(|e| format!("current: {e}\n"))?;
    if schema != baseline_schema {
        return Err(format!(
            "schema mismatch: current is `{schema}`, baseline is `{baseline_schema}`\n"
        ));
    }
    let rows: Vec<Row> = rules().into_iter().filter(|r| r.schema == schema).collect();
    if rows.is_empty() {
        return Err(format!("no gate rows for schema `{schema}`\n"));
    }
    let mut report = format!("gate {schema}: {} rows\n", rows.len());
    let mut failures = 0;
    for r in &rows {
        let v = json_number(current, &r.key).map_err(|e| format!("current: {e}\n"))?;
        let (holds, against) = r
            .rule
            .evaluate(v, &r.key, current, baseline)
            .map_err(|e| format!("{e}\n"))?;
        let status = match holds {
            None => "info",
            Some(true) => "ok",
            Some(false) => "FAIL",
        };
        report.push_str(&format!("  {status:<4} {} = {v} ({}", r.key, r.rule));
        if let Some(x) = against {
            report.push_str(&format!("; against {x}"));
        }
        report.push(')');
        if holds == Some(false) {
            failures += 1;
            report.push_str(&format!(": {}", r.message));
        }
        report.push('\n');
    }
    if failures > 0 {
        report.push_str(&format!("FAIL ({failures} of {} rows)\n", rows.len()));
        Err(report)
    } else {
        report.push_str("PASS\n");
        Ok(report)
    }
}

/// The text after `"key":` in a flat JSON document, leading whitespace
/// trimmed.
fn value_of<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("key `{key}` not found"))?;
    Ok(text[at + needle.len()..].trim_start())
}

/// The number following `"key":` in a flat JSON document.
pub fn json_number(text: &str, key: &str) -> Result<f64, String> {
    let rest = value_of(text, key)?;
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|e| format!("key `{key}`: {e}"))
}

/// A summary's `"schema"` value, which selects its rows.
pub fn schema(text: &str) -> Result<&str, String> {
    value_of(text, "schema")?
        .strip_prefix('"')
        .and_then(|rest| rest.find('"').map(|end| &rest[..end]))
        .ok_or_else(|| "key `schema` is not a string".to_string())
}
