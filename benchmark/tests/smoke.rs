//! Drift test: the names the benchmark prints, the names `BENCHMARK.json`
//! declares and the names `README.md` documents are one set; every
//! workload runs end to end; the traced pass records every layer.
//!
//! Run with `cargo test --offline --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use fedaqp_benchmark::catalog::{self, MetricDef};
use fedaqp_benchmark::json::{self, Value};
use fedaqp_benchmark::run::{timed_run, traced_run, RunArgs};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {entry}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn assert_metrics_match(declared: &[Value], catalogue: &[&MetricDef], bounded: bool) {
    assert_eq!(declared.len(), catalogue.len(), "metric count");
    for (entry, def) in declared.iter().zip(catalogue) {
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
        let bound = entry.get("bound").and_then(Value::as_f64);
        assert_eq!(bound, def.bound, "{}", def.name);
        assert_eq!(bound.is_some(), bounded, "{}", def.name);
        assert_eq!(
            entry.as_obj().len(),
            if bounded { 4 } else { 3 },
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").unwrap().as_arr();
    assert_eq!(workloads.len(), catalog::WORKLOADS.len());
    for (entry, def) in workloads.iter().zip(&catalog::WORKLOADS) {
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "why"), def.why);
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
        assert!(
            def.clients <= 2,
            "{}: more load generators than nproc",
            def.name
        );
    }

    let end_to_end: Vec<&MetricDef> = catalog::END_TO_END.iter().collect();
    assert_metrics_match(doc.get("end_to_end").unwrap().as_arr(), &end_to_end, true);
    let per_layer: Vec<&MetricDef> = catalog::per_layer().collect();
    assert_metrics_match(doc.get("per_layer").unwrap().as_arr(), &per_layer, false);

    assert_eq!(catalog::LAYER.len(), 66, "the issue's 66 per-layer metrics");
    assert_eq!(
        end_to_end.len() + catalog::USER_ONLY.len(),
        10,
        "the issue's ten user metrics"
    );
    assert_eq!(end_to_end[0].name, "setup_s");
    assert!(end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for w in &catalog::WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
    }
    for m in catalog::all() {
        assert!(is_name(m.name), "{}", m.name);
        assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
}

#[test]
fn readme_documents_every_name() {
    let readme = std::fs::read_to_string(manifest_dir().join("README.md")).expect("README.md");
    for name in catalog::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(catalog::all().map(|m| m.name))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not mention `{name}`"
        );
    }
}

/// Names of the spans a traced pass wrote.
fn span_names(path: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .map(|line| {
            let span = json::parse(line).expect("a span is one JSON object");
            for key in ["id", "parent", "start_ns", "end_ns"] {
                assert!(
                    span.get(key).and_then(Value::as_f64).is_some(),
                    "{key} in {line}"
                );
            }
            assert!(span.get("plan_id").is_some(), "plan_id in {line}");
            str_of(&span, "name").to_owned()
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_names() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-results");
    let declared_e2e: BTreeSet<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
    let declared_layer: BTreeSet<&str> = catalog::per_layer().map(|m| m.name).collect();
    let mut printed = BTreeSet::new();
    let mut spans = BTreeSet::new();
    // One workload after another: they share the process-wide obs
    // registry, whose counters the exact-count metrics read.
    for workload in &catalog::WORKLOADS {
        let args = RunArgs {
            workload,
            seed: 7,
            seconds: 1.0,
            out_dir: out_dir.clone(),
        };
        let timed = timed_run(&args);
        assert!(timed.correct(), "{}: {:?}", workload.name, timed.problems);
        assert!(timed.attempted > 0 && timed.failed == 0);
        for def in catalog::END_TO_END {
            let value = timed
                .get(def.name)
                .unwrap_or_else(|| panic!("{}: {}", workload.name, def.name));
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {} = {value}",
                workload.name,
                def.name
            );
        }
        let line = timed.result_line(catalog::END_TO_END.iter());
        let keys: BTreeSet<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, declared_e2e, "{}", workload.name);
        printed.extend(timed.readings.iter().map(|r| r.def.name));

        let traced = traced_run(&args);
        assert!(traced.correct(), "{}: {:?}", workload.name, traced.problems);
        let line = traced.result_line(catalog::per_layer());
        let keys: BTreeSet<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, declared_layer, "{}", workload.name);
        assert!(
            traced.readings.iter().all(|r| r.value.is_finite()),
            "{}",
            workload.name
        );
        printed.extend(traced.readings.iter().map(|r| r.def.name));

        let names = span_names(&out_dir.join(format!("trace-{}.jsonl", workload.name)));
        for row in catalog::LAYER_ROWS {
            assert!(
                names.iter().any(|n| n.starts_with(row)),
                "{}: no span for layer `{row}`",
                workload.name
            );
        }
        spans.extend(names);
    }
    // Across the four workloads every catalogue name was printed and every
    // layer row of the table (the sharded ones included) was traced.
    let catalogue: BTreeSet<&str> = catalog::all().map(|m| m.name).collect();
    assert_eq!(printed, catalogue);
    for row in catalog::SHARD_ROWS {
        assert!(
            spans.iter().any(|n| n.starts_with(row)),
            "no span for layer `{row}`"
        );
    }
}
