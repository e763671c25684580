//! What one workload run measured, and how it is printed: a line per
//! metric with its unit for people, and the single JSON result line the
//! driver reads last.

use crate::catalog::{self, MetricDef};
use crate::drive::Estimate;
use crate::json::Value;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Reading {
    pub def: &'static MetricDef,
    pub value: f64,
    /// Interquartile range across slices, where the metric has slices.
    pub iqr: Option<f64>,
    pub samples: Option<usize>,
    pub note: Option<&'static str>,
}

/// One printed metric: `workload name value unit [iqr n] [note]`.
pub fn metric_line(
    workload: &str,
    name: &str,
    value: f64,
    unit: &str,
    spread: Option<(f64, usize)>,
    note: Option<&str>,
) -> String {
    let mut line = format!("{workload:<14} {name:<42} {value:>16.6} {unit:<10}");
    if let Some((iqr, n)) = spread {
        line.push_str(&format!(" iqr {iqr:.6} n {n}"));
    }
    if let Some(note) = note {
        line.push_str(&format!(" [{note}]"));
    }
    line
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub readings: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and vacuity failures; any entry fails the run.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_owned(),
            ..Report::default()
        }
    }

    /// Records `name`; the name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::find(name).unwrap_or_else(|| panic!("`{name}` is not in the catalogue"));
        self.readings.retain(|r| r.def.name != name);
        self.readings.push(Reading {
            def,
            value,
            iqr: None,
            samples: None,
            note: None,
        });
    }

    pub fn set_estimate(&mut self, name: &str, estimate: Estimate) {
        self.set(name, estimate.value);
        let reading = self.readings.last_mut().expect("just pushed");
        reading.iqr = Some(estimate.iqr);
        reading.samples = Some(estimate.samples);
    }

    pub fn note(&mut self, name: &str, note: &'static str) {
        if let Some(r) = self.readings.iter_mut().find(|r| r.def.name == name) {
            r.note = Some(note);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.def.name == name)
            .map(|r| r.value)
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// One `workload metric value unit` line per reading, for people.
    pub fn print_human(&self) {
        for r in &self.readings {
            let spread = r.iqr.zip(r.samples);
            println!(
                "{}",
                metric_line(
                    &self.workload,
                    r.def.name,
                    r.value,
                    r.def.unit,
                    spread,
                    r.note
                )
            );
        }
        for p in &self.problems {
            println!("{:<14} PROBLEM {p}", self.workload);
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `wanted`.
    /// A metric the workload does not exercise reads 0.
    pub fn result_line<'a>(&self, wanted: impl Iterator<Item = &'a MetricDef>) -> Value {
        let metrics = wanted
            .map(|def| {
                let value = self.get(def.name).unwrap_or(0.0);
                (
                    def.name.to_owned(),
                    Value::obj(vec![
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(def.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// Everything this run measured, for the parent of a full run.
    pub fn to_json(&self) -> Value {
        let readings = self
            .readings
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("value", Value::Num(r.value)),
                    ("unit", Value::Str(r.def.unit.to_owned())),
                ];
                if let (Some(iqr), Some(n)) = (r.iqr, r.samples) {
                    fields.push(("iqr", Value::Num(iqr)));
                    fields.push(("samples", Value::Num(n as f64)));
                }
                if let Some(note) = r.note {
                    fields.push(("note", Value::Str(note.to_owned())));
                }
                (r.def.name.to_owned(), Value::obj(fields))
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "problems",
                Value::Arr(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", Value::Obj(readings)),
        ])
    }
}
