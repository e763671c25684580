//! `fedaqp-benchmark`: the command named in `BENCHMARK.json`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload (what the driver calls); the last line of standard output is
//!   the JSON result.
//! * without `--workload` — every workload, timed then traced, each in a
//!   fresh child process (so `peak_rss_mb` is its own); prints every
//!   metric by name with its unit and exits non-zero on any correctness or
//!   vacuity failure.
//! * `--repeat N` — N such sets back to back, summarised in
//!   `results/repeat.json`; non-zero when a spread exceeds its bound.
//! * `--list` — the catalogue: names, units, directions, what each moves.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use fedaqp_benchmark::catalog::{self, WorkloadDef};
use fedaqp_benchmark::json::{self, Value};
use fedaqp_benchmark::report::metric_line;
use fedaqp_benchmark::run::{timed_run, traced_run, RunArgs};
use fedaqp_benchmark::stats::{load_average, median, nproc};

/// Prefix of the line carrying everything a child run measured.
const ALL_PREFIX: &str = "ALL ";
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;

struct Cli {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    list: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: fedaqp-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N] [--out DIR] [--list]",
        catalog::WORKLOADS.map(|w| w.name).join("|")
    )
}

/// `results/` beside the package manifest when that checkout still
/// exists, else under the working directory.
fn default_out_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    if manifest.is_dir() {
        manifest.join("results")
    } else {
        PathBuf::from("benchmark/results")
    }
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        list: false,
        out_dir: default_out_dir(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    catalog::workload(&name)
                        .ok_or(format!("unknown workload `{name}`\n{}", usage()))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--list" => cli.list = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print_catalogue();
        return ExitCode::SUCCESS;
    }
    match (cli.workload, cli.trace) {
        (Some(workload), Some(trace)) => single_run(&cli, workload, trace),
        _ => full_run(&cli),
    }
}

fn print_catalogue() {
    println!("workloads (seed-derived inputs; nproc here = {}):", nproc());
    for w in &catalog::WORKLOADS {
        println!(
            "  {:<14} clients {}  raw rows {:>9}  plans {}",
            w.name, w.clients, w.raw_rows, w.plans
        );
        println!("  {:<14} {}", "", w.why);
    }
    println!("metrics:");
    for m in catalog::all() {
        let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
        println!(
            "  {:<42} {:<10} {:<6}{bound}  -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// One run of one workload in this process: what the driver calls.
fn single_run(cli: &Cli, workload: &'static WorkloadDef, trace: bool) -> ExitCode {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        out_dir: cli.out_dir.clone(),
    };
    let report = if trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    report.print_human();
    println!("{ALL_PREFIX}{}", report.to_json());
    // With `--trace 0` the result carries every end-to-end metric, with
    // `--trace 1` every per-layer metric.
    let line = if trace {
        report.result_line(catalog::per_layer())
    } else {
        report.result_line(catalog::END_TO_END.iter())
    };
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process and reads its report back.
fn child_run(cli: &Cli, workload: &WorkloadDef, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let all = stdout
        .lines()
        .find_map(|l| l.strip_prefix(ALL_PREFIX))
        .ok_or(format!("{}: the child printed no report", workload.name))?;
    json::parse(all).map_err(|e| format!("{}: unreadable report: {e}", workload.name))
}

/// `name -> value` of one child's report.
fn metric_values(report: &Value) -> Vec<(String, f64)> {
    report
        .get("metrics")
        .map(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

fn print_child(report: &Value) -> bool {
    let workload = report
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("?");
    for (name, m) in report.get("metrics").map(Value::as_obj).unwrap_or(&[]) {
        let num = |key: &str| m.get(key).and_then(Value::as_f64);
        let text = |key: &str| m.get(key).and_then(Value::as_str);
        println!(
            "{}",
            metric_line(
                workload,
                name,
                num("value").unwrap_or(0.0),
                text("unit").unwrap_or(""),
                num("iqr").zip(num("samples").map(|n| n as usize)),
                text("note"),
            )
        );
    }
    let problems = report.get("problems").map(Value::as_arr).unwrap_or(&[]);
    for p in problems {
        println!("{workload:<14} PROBLEM {}", p.as_str().unwrap_or("?"));
    }
    report
        .get("correct")
        .and_then(Value::as_bool)
        .unwrap_or(false)
}

/// Every workload (or the one named), timed then traced, `--repeat` times.
fn full_run(cli: &Cli) -> ExitCode {
    let workloads: Vec<&WorkloadDef> = match cli.workload {
        Some(w) => vec![w],
        None => catalog::WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    let mut sets = Vec::with_capacity(cli.repeat);
    // metric values per (workload, metric), one per set
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for set in 0..cli.repeat {
        let started = Value::obj(vec![
            ("set", Value::Num(set as f64)),
            ("nproc", Value::Num(nproc() as f64)),
            ("load_1m", Value::Num(load_average())),
            ("seed", Value::Num(cli.seed as f64)),
            ("seconds", Value::Num(cli.seconds)),
        ]);
        println!("# set {set}: {started}");
        sets.push(started);
        for workload in &workloads {
            for trace in [false, true] {
                if cli.trace.is_some_and(|only| only != trace) {
                    continue;
                }
                match child_run(cli, workload, trace) {
                    Ok(report) => {
                        all_correct &= print_child(&report);
                        // As in the driver: the timed run speaks for the
                        // end-to-end metrics, the traced run for the rest.
                        let end_to_end =
                            |name: &str| catalog::END_TO_END.iter().any(|m| m.name == name);
                        for (name, value) in metric_values(&report) {
                            if end_to_end(&name) == trace {
                                continue;
                            }
                            match series
                                .iter_mut()
                                .find(|(w, m, _)| w == workload.name && *m == name)
                            {
                                Some((_, _, values)) => values.push(value),
                                None => series.push((workload.name.to_owned(), name, vec![value])),
                            }
                        }
                    }
                    Err(e) => {
                        println!("{:<14} PROBLEM {e}", workload.name);
                        all_correct = false;
                    }
                }
            }
        }
    }
    let within_bounds = write_repeat(cli, &sets, &series);
    if all_correct && within_bounds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `repeat.json`: per workload and metric the per-set values, their
/// median, `(max − min) / median`, and the bound from the catalogue.
/// Returns whether every bounded metric stayed within its bound.
fn write_repeat(cli: &Cli, sets: &[Value], series: &[(String, String, Vec<f64>)]) -> bool {
    let mut ok = true;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for w in catalog::WORKLOADS.iter().map(|w| w.name) {
        let metrics: Vec<(String, Value)> = series
            .iter()
            .filter(|(workload, _, _)| workload == w)
            .map(|(_, name, values)| {
                let mid = median(values);
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                let spread = if mid != 0.0 {
                    (hi - lo) / mid.abs()
                } else {
                    hi - lo
                };
                let bound = catalog::find(name).and_then(|m| m.bound);
                // `setup_s` is bounded on its median only, as in the
                // driver: its spread is informational.
                let within = name == "setup_s" || bound.map_or(true, |b| spread <= b);
                if values.len() > 1 && !within {
                    println!(
                        "{w:<14} SPREAD {name} {spread:.4} exceeds its bound {}",
                        bound.unwrap_or(0.0)
                    );
                    ok = false;
                }
                let mut fields = vec![
                    (
                        "values",
                        Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                    ("median", Value::Num(mid)),
                    ("spread", Value::Num(spread)),
                ];
                fields.push(("bound", bound.map_or(Value::Null, Value::Num)));
                fields.push(("within_bound", Value::Bool(within)));
                (name.clone(), Value::obj(fields))
            })
            .collect();
        if !metrics.is_empty() {
            workloads.push((w.to_owned(), Value::Obj(metrics)));
        }
    }
    let doc = Value::obj(vec![
        ("sets", Value::Arr(sets.to_vec())),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = cli.out_dir.join("repeat.json");
    let written = std::fs::create_dir_all(&cli.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            println!("PROBLEM cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}
