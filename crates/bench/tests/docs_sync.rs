//! Stale-docs sweep: the wire-version lists, the CI-gated experiment
//! set, the committed baselines, the gate table and the JSON keys it
//! reads are all *named* in README/docs/ci.yml prose and doc comments —
//! and prose drifts silently.
//! These tests turn that drift into a CI failure that names the stale
//! file and the expected text.

use std::fs;
use std::path::{Path, PathBuf};

use fedaqp_bench::experiments::registry;
use fedaqp_bench::gate::{self, Rule};
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

/// Kind bytes are retired, never reused: the holes listed by the wire
/// module's docs and by the README must be exactly the gaps the frame
/// table in `wire.rs` leaves below its highest byte. Retiring a kind
/// without listing it, or reusing a listed one, fails here.
#[test]
fn retired_kind_lists_match_the_frame_table() {
    let source = read("crates/net/src/wire.rs");
    // The table's `KIND_NAME = byte => Variant` rows.
    let kinds: Vec<u8> = source
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.trim().split_once(" = ")?;
            let byte = rest.split_whitespace().next()?;
            name.starts_with("KIND_").then(|| byte.parse().ok())?
        })
        .collect();
    let highest = *kinds.iter().max().expect("wire.rs lost its frame table");
    let holes: Vec<u8> = (1..highest).filter(|k| !kinds.contains(k)).collect();

    // The numbers of the first `kind bytes … are retired` phrase, read
    // across line breaks and module-doc markers.
    let listed = |text: &str| -> Option<Vec<u8>> {
        let flat = text
            .lines()
            .map(|l| l.trim_start().trim_start_matches("//!").trim())
            .collect::<Vec<_>>()
            .join(" ");
        let start = flat.find("ind bytes ")? + "ind bytes ".len();
        let end = start + flat[start..].find(" are retired")?;
        flat[start..end]
            .split(|c: char| !c.is_ascii_digit())
            .filter(|word| !word.is_empty())
            .map(|word| word.parse().ok())
            .collect()
    };
    for file in ["crates/net/src/wire.rs", "README.md"] {
        assert_eq!(
            listed(&read(file)),
            Some(holes.clone()),
            "{file} should say `kind bytes {holes:?} are retired` (the frame table's gaps)"
        );
    }
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

/// The committed baselines as `(file name, text, schema)`.
fn baselines_with_schemas() -> Vec<(String, String, String)> {
    committed_baselines()
        .into_iter()
        .map(|name| {
            let text = read(&name);
            let schema = gate::schema(&text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .to_string();
            (name, text, schema)
        })
        .collect()
}

/// Every key a gate row reads — its own and any key it compares against
/// — must exist in the committed baseline of its schema, and every
/// schema with rows must have one: the experiments' emitted schema and
/// the gate cannot drift apart without a failure naming the key.
#[test]
fn gate_keys_exist_in_committed_baselines() {
    let baselines = baselines_with_schemas();
    for row in gate::rules() {
        let Some((name, text, _)) = baselines.iter().find(|(_, _, s)| s == row.schema) else {
            panic!(
                "no committed BENCH_*baseline.json has schema `{}`",
                row.schema
            );
        };
        let mut keys = vec![row.key.as_str()];
        if let Rule::Below(other) | Rule::AtMostTimes(_, other) | Rule::Near(_, other) = &row.rule {
            keys.push(other);
        }
        for key in keys {
            assert!(
                gate::json_number(text, key).is_ok(),
                "the gate reads `{key}` ({}), but {name} has no such number",
                row.schema
            );
        }
    }
}

/// Every committed baseline passes the gate against itself, and every
/// one has rows (a baseline nothing checks is dead weight).
#[test]
fn committed_baselines_pass_their_own_gate() {
    for (name, text, _) in baselines_with_schemas() {
        let report = gate::check(&text, &text).unwrap_or_else(|e| panic!("{name}:\n{e}"));
        assert!(report.ends_with("PASS\n"), "{name}:\n{report}");
    }
}

/// `text` with the number at `key` replaced by `value`.
fn set_number(text: &str, key: &str, value: f64) -> String {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle).expect("key present") + needle.len();
    let start = at + text[at..].len() - text[at..].trim_start().len();
    let end = start
        + text[start..]
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(text.len() - start);
    format!("{}{value}{}", &text[..start], &text[end..])
}

/// Each row, broken alone on its schema's committed baseline, fails the
/// gate with its own message and no other row's; a report-only row's key
/// going missing is an error that names it.
#[test]
fn every_gate_row_fails_alone_with_its_message() {
    let baselines = baselines_with_schemas();
    let rules = gate::rules();
    for row in &rules {
        let (_, text, _) = baselines.iter().find(|(_, _, s)| s == row.schema).unwrap();
        let v = gate::json_number(text, &row.key).unwrap();
        let (mut current, mut baseline) = (text.clone(), text.clone());
        match &row.rule {
            Rule::Floor(r) => baseline = set_number(text, &row.key, 2.0 * v / (1.0 - r) + 1.0),
            Rule::Ceiling(r) => baseline = set_number(text, &row.key, v / (1.0 + r) / 2.0),
            Rule::AtLeast(c) => current = set_number(text, &row.key, c - 0.5),
            Rule::Above(c) => current = set_number(text, &row.key, *c),
            Rule::AtMost(c) => current = set_number(text, &row.key, c + 0.5),
            Rule::Equals(c) => current = set_number(text, &row.key, c + 1.0),
            Rule::Below(other) => current = set_number(text, other, v),
            Rule::AtMostTimes(k, other) => current = set_number(text, other, v / k / 2.0),
            Rule::Near(b, other) => {
                let x = gate::json_number(text, other).unwrap() + 2.0 * b;
                current = set_number(text, &row.key, x);
                baseline = set_number(text, &row.key, x);
            }
            Rule::Drift(d) => baseline = set_number(text, &row.key, v + 2.0 * d),
            Rule::Report => {
                let gone = text.replace(&format!("\"{}\":", row.key), "\"gone\":");
                let err = gate::check(&gone, text).unwrap_err();
                assert!(err.contains(&row.key), "{err}");
                continue;
            }
        }
        let err = gate::check(&current, &baseline)
            .expect_err(&format!("breaking `{}` {} passed", row.key, row.rule));
        assert!(err.contains("FAIL (1 of"), "{}: {err}", row.key);
        assert!(err.contains(&row.message), "{}: {err}", row.key);
        for other in rules.iter().filter(|o| o.schema == row.schema) {
            assert!(
                other.message == row.message || !err.contains(&other.message),
                "breaking `{}` also tripped `{}`:\n{err}",
                row.key,
                other.message
            );
        }
    }
}

/// `docs/benchmarks.md` carries the rendered gate table row for row:
/// every row's line, and no table line the gate no longer has.
#[test]
fn benchmarks_doc_renders_the_gate_table() {
    let doc = read("docs/benchmarks.md");
    let table = gate::markdown();
    for line in table.lines() {
        assert!(
            doc.lines().any(|l| l == line),
            "docs/benchmarks.md is missing the gate row:\n{line}"
        );
    }
    let prefix = "| `fedaqp-bench-";
    let documented = doc.lines().filter(|l| l.starts_with(prefix)).count();
    let rows = table.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(
        documented, rows,
        "docs/benchmarks.md lists {documented} gate rows, the table has {rows}"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The wire speaks one version: no doc comment under `crates/*/src/` may
/// name an older one (`protocol vN`, `wire vN`, `a vN server`), even
/// across a line break.
#[test]
fn doc_comments_name_only_the_current_wire_version() {
    let mut files = Vec::new();
    for krate in fs::read_dir(repo_root().join("crates"))
        .expect("crates")
        .flatten()
    {
        let src = krate.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let older = |word: &str| {
        let digits: String = word
            .strip_prefix('v')
            .unwrap_or("")
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<u16>().is_ok_and(|n| n < wire::VERSION)
    };
    let mut stale = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("read source");
        // Doc-comment words with their line numbers; any other line breaks
        // the run, so a phrase may span the lines of one comment only.
        let mut words: Vec<(usize, &str)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_start();
            match line
                .strip_prefix("///")
                .or_else(|| line.strip_prefix("//!"))
            {
                Some(body) => words.extend(
                    body.split_whitespace()
                        .map(|w| (i + 1, w.trim_matches(|c: char| !c.is_alphanumeric()))),
                ),
                None => words.push((i + 1, "")),
            }
        }
        for (i, &(line, word)) in words.iter().enumerate() {
            let next = |k: usize| words.get(i + k).map_or("", |w| w.1);
            if matches!(word, "protocol" | "wire") && older(next(1))
                || word == "a" && older(next(1)) && next(2).starts_with("server")
            {
                let rel = file.strip_prefix(repo_root()).unwrap_or(&file);
                stale.push(format!("{}:{line}: `{word} {}`", rel.display(), next(1)));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "doc comments name a wire version other than v{}:\n{}",
        wire::VERSION,
        stale.join("\n")
    );
}

/// Public functions kept without a caller in another file, each with the
/// reason it stays.
const UNCALLED_ALLOWED: &[(&str, &str)] = &[
    // The privacy boundary's vocabulary: every observable value is built
    // by one `ObsValue::from_*` constructor naming its kind, kept whole
    // even where today's instruments use a subset.
    ("from_duration", "ObsValue constructor"),
    ("from_count", "ObsValue constructor"),
    ("from_public", "ObsValue constructor"),
    // `data::adult_csv`: the loader for the real UCI Adult file; its caller
    // arrives with the file.
    (
        "load_adult_file",
        "waits for the UCI Adult file in the repository",
    ),
];

/// Strips a `//` comment (doc comments included) from one source line.
fn code_part(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// Whether `word` occurs in `text` with no identifier character on
/// either side.
fn has_word(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        !text[..at].chars().next_back().is_some_and(ident)
            && !text[at + word.len()..].chars().next().is_some_and(ident)
    })
}

/// Every `pub fn` under `crates/*/src` must be called from some other
/// file of the workspace — the facade, the examples, the tests and the
/// benchmark harness count; a `pub use` line does not. A public item only
/// its own file reaches is surface nobody asked for: drop the `pub`,
/// move it under `#[cfg(test)]`, or delete it with its tests.
#[test]
fn every_pub_fn_has_a_caller_in_another_file() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut sources);
    }
    // Code lines of every file, comments and `pub use` lines removed.
    let code: Vec<(PathBuf, String)> = sources
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("read source");
            let body = text
                .lines()
                .map(code_part)
                .filter(|line| !line.trim_start().starts_with("pub use "))
                .collect::<Vec<_>>()
                .join("\n");
            (path, body)
        })
        .collect();
    let crates_dir = root.join("crates");
    let mut uncalled = Vec::new();
    for (path, body) in &code {
        let in_crate_src = path.strip_prefix(&crates_dir).is_ok_and(|rel| {
            rel.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if !in_crate_src {
            continue;
        }
        for line in body.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if UNCALLED_ALLOWED.iter().any(|(allowed, _)| *allowed == name) {
                continue;
            }
            let called = code
                .iter()
                .any(|(other, text)| other != path && has_word(text, &name));
            if !called {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                uncalled.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "public functions with no caller outside their own file:\n{}",
        uncalled.join("\n")
    );
}
