//! Stale-docs sweep: the wire-version lists, the CI-gated experiment
//! set, the committed baselines, and the JSON keys the gate reads are
//! all *named* in README/docs/ci.yml prose — and prose drifts silently.
//! These tests turn that drift into a CI failure that names the stale
//! file and the expected text.

use std::fs;
use std::path::{Path, PathBuf};

use fedaqp_bench::experiments::registry;
use fedaqp_net::wire;
use fedaqp_obs::{METRIC_NAMES, METRIC_PREFIXES};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// Names of the committed gate baselines at the repo root.
fn committed_baselines() -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(repo_root())
        .expect("read repo root")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with("baseline.json"))
        .collect();
    names.sort();
    names
}

/// The README's frame diagram and the architecture layer map name the
/// one wire version; bumping `wire::VERSION` without updating them — or a
/// second version creeping back into either — fails here.
#[test]
fn wire_version_lists_track_the_codec() {
    let frame_line = format!("version u16 ({})", wire::VERSION);

    let readme = read("README.md");
    assert!(
        readme.contains("version u16 ("),
        "README.md lost its wire-format diagram (searched for `version u16 (`)"
    );
    for line in readme.lines().filter(|l| l.contains("version u16 (")) {
        assert!(
            line.contains(&frame_line),
            "README.md wire-format diagram is stale — expected `{frame_line}` in: {line}"
        );
    }

    let arch = read("docs/architecture.md");
    let span = format!("(one version: v{})", wire::VERSION);
    assert!(
        arch.contains(&span),
        "docs/architecture.md layer map should say `wire protocol {span}`"
    );
}

/// Every experiment the registry marks `(CI gate)` must actually be run
/// by the bench job and documented in the gate-by-gate page.
#[test]
fn ci_gated_experiments_are_run_and_documented() {
    let gated: Vec<&str> = registry()
        .iter()
        .filter(|(_, desc, _)| desc.contains("(CI gate)"))
        .map(|(name, _, _)| *name)
        .collect();
    assert!(
        gated.len() >= 5,
        "expected at least 5 CI-gated experiments, found {gated:?}"
    );

    let ci = read(".github/workflows/ci.yml");
    let benchmarks = read("docs/benchmarks.md");
    for name in &gated {
        assert!(
            ci.contains(&format!("\n          {name} ")),
            ".github/workflows/ci.yml bench job never runs `repro -- {name}`"
        );
        assert!(
            benchmarks.contains(&format!("repro {name}"))
                || benchmarks.contains(&format!("{name} --")),
            "docs/benchmarks.md never documents the `{name}` experiment"
        );
    }
}

/// The gate-by-gate page opens by counting the gated experiments; the
/// count must track the registry.
#[test]
fn benchmarks_doc_counts_the_gated_experiments() {
    let gated = registry()
        .iter()
        .filter(|(_, desc, _)| desc.contains("(CI gate)"))
        .count();
    let words = [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    ];
    let word = words
        .get(gated)
        .unwrap_or_else(|| panic!("spell out {gated} in docs_sync.rs"));
    let expected = format!("reruns {word} seeded experiments");
    assert!(
        read("docs/benchmarks.md").contains(&expected),
        "docs/benchmarks.md intro should say `{expected}` ({gated} registry entries are marked `(CI gate)`)"
    );
}

/// Committed baselines, CI gate invocations, and the benchmarks page
/// must agree file-for-file, in both directions.
#[test]
fn committed_baselines_are_gated_and_documented() {
    let baselines = committed_baselines();
    assert!(
        baselines.len() >= 5,
        "expected at least 5 committed BENCH_*baseline.json files, found {baselines:?}"
    );

    let ci = read(".github/workflows/ci.yml");
    let benchmarks = read("docs/benchmarks.md");
    for name in &baselines {
        assert!(
            ci.contains(name.as_str()),
            ".github/workflows/ci.yml never gates against the committed {name}"
        );
        assert!(
            benchmarks.contains(name.as_str()),
            "docs/benchmarks.md never mentions the committed {name}"
        );
    }
    // The reverse: a baseline the workflow names must exist on disk
    // (deleting or renaming one without touching ci.yml fails here).
    // Generated `results/BENCH_*.json` mentions are out of scope.
    for token in ci
        .split_whitespace()
        .filter(|t| t.starts_with("BENCH_") && t.ends_with("baseline.json"))
    {
        assert!(
            repo_root().join(token).is_file(),
            ".github/workflows/ci.yml references {token}, which is not committed at the repo root"
        );
    }
}

/// The metric catalog in docs/observability.md must name every static
/// metric and every dynamic family the obs crate exports — a new
/// counter cannot ship undocumented, and the doc cannot advertise a
/// metric that no longer exists (names live in one `names` module, so
/// a rename breaks the doc's copy here).
#[test]
fn observability_doc_catalogs_every_metric() {
    let doc = read("docs/observability.md");
    for name in METRIC_NAMES {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/observability.md never catalogs the `{name}` metric"
        );
    }
    for prefix in METRIC_PREFIXES {
        assert!(
            doc.contains(&format!("`{prefix}`")),
            "docs/observability.md never catalogs the `{prefix}` dynamic family"
        );
    }
    // The README points at the catalog rather than duplicating it.
    assert!(
        read("README.md").contains("docs/observability.md"),
        "README.md never links docs/observability.md"
    );
}

/// Every JSON key `bench_gate` reads as a string literal must exist in
/// some committed baseline: the experiments' emitted schema and the
/// gate cannot drift apart without a failure naming the key.
#[test]
fn gate_keys_exist_in_committed_baselines() {
    let source = include_str!("../src/bin/bench_gate.rs");
    let source = source
        .split("#[cfg(test)]")
        .next()
        .expect("bench_gate source");

    let mut keys: Vec<String> = Vec::new();
    let mut rest = source;
    while let Some(pos) = rest.find("json_number(") {
        rest = &rest[pos + "json_number(".len()..];
        let Some(quote) = rest.find('"') else { break };
        // A literal key looks like `json_number(&doc, "engine_qps")`:
        // one comma and no parens/close before the quote. Dynamically
        // built keys (`&rate_key(...)`, `&key`) are skipped — their
        // construction is covered by bench_gate's own tests.
        let before = &rest[..quote];
        if before.matches(',').count() == 1 && !before.contains('(') && !before.contains(')') {
            let lit = &rest[quote + 1..];
            if let Some(close) = lit.find('"') {
                keys.push(lit[..close].to_string());
            }
        }
    }
    keys.sort();
    keys.dedup();
    assert!(
        keys.len() >= 8,
        "literal-key extraction from bench_gate.rs broke: {keys:?}"
    );

    let all: String = committed_baselines()
        .iter()
        .map(|name| read(name))
        .collect();
    for key in &keys {
        assert!(
            all.contains(&format!("\"{key}\"")),
            "bench_gate reads `{key}`, but no committed BENCH_*baseline.json contains that key"
        );
    }
}
