//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p fedaqp-bench --release --bin repro -- <experiment> [flags]
//!
//! experiments: all, fig1, fig4, fig5, fig6, fig7, fig8, table1,
//!              table1-dims, metadata, ablation, throughput, accuracy
//! flags:
//!   --quick             smoke-test scale (small data, few queries)
//!   --out <dir>         CSV output directory        (default: results)
//!   --seed <n>          master seed                 (default: 42)
//!   --queries <m>       queries per workload        (default: 100)
//!   --adult-rows <n>    Adult generator rows        (default: 300000)
//!   --amazon-rows <n>   Amazon generator rows       (default: 800000)
//!   --trace-json <path> after the run, dump the telemetry span ring
//!                       (engine/optimizer/shard/server spans recorded
//!                       while the experiments executed) as JSON
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use fedaqp_bench::experiments::registry;
use fedaqp_bench::setup::ExperimentContext;

fn usage() -> String {
    let mut s = String::from(
        "usage: repro <experiment> [--quick] [--out DIR] [--seed N] [--queries M]\n\
         \x20            [--adult-rows N] [--amazon-rows N] [--trace-json PATH]\n\nexperiments:\n  all\n",
    );
    for (name, desc, _) in registry() {
        s.push_str(&format!("  {name:<12} {desc}\n"));
    }
    s
}

fn parse_args(args: &[String]) -> Result<(String, ExperimentContext, Option<PathBuf>), String> {
    if args.is_empty() {
        return Err(usage());
    }
    let target = args[0].clone();
    let mut ctx = ExperimentContext::standard();
    let mut i = 1;
    let mut explicit: Vec<(&str, u64)> = Vec::new();
    let mut quick = false;
    let mut trace_json: Option<PathBuf> = None;
    while i < args.len() {
        let flag = args[i].as_str();
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--quick" => quick = true,
            "--out" => ctx.out_dir = PathBuf::from(take_value(&mut i)?),
            "--trace-json" => trace_json = Some(PathBuf::from(take_value(&mut i)?)),
            "--seed" => {
                let v = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                ctx.seed = v;
            }
            "--queries" => {
                let v: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?;
                explicit.push(("queries", v));
            }
            "--adult-rows" => {
                let v: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--adult-rows: {e}"))?;
                explicit.push(("adult", v));
            }
            "--amazon-rows" => {
                let v: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--amazon-rows: {e}"))?;
                explicit.push(("amazon", v));
            }
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
        i += 1;
    }
    if quick {
        let (seed, out) = (ctx.seed, ctx.out_dir.clone());
        ctx = ExperimentContext::quick();
        ctx.seed = seed;
        ctx.out_dir = out;
    }
    for (k, v) in explicit {
        match k {
            "queries" => ctx.queries = v as usize,
            "adult" => ctx.adult_rows = v,
            "amazon" => ctx.amazon_rows = v,
            _ => unreachable!(),
        }
    }
    Ok((target, ctx, trace_json))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, ctx, trace_json) = match parse_args(&args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let reg = registry();
    let selected: Vec<_> = if target == "all" {
        reg
    } else {
        let found: Vec<_> = reg.into_iter().filter(|(n, _, _)| *n == target).collect();
        if found.is_empty() {
            eprintln!("unknown experiment `{target}`\n\n{}", usage());
            return ExitCode::FAILURE;
        }
        found
    };
    for (name, desc, f) in selected {
        eprintln!("== {name}: {desc} ==");
        let started = std::time::Instant::now();
        let tables = f(&ctx);
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            let stem = if tables.len() == 1 {
                name.to_string()
            } else {
                format!("{name}_{i}")
            };
            match t.save_csv(&ctx.out_dir, &stem) {
                Ok(path) => eprintln!("[{name}] wrote {}", path.display()),
                Err(e) => eprintln!("[{name}] csv write failed: {e}"),
            }
        }
        eprintln!(
            "== {name} done in {:.1}s ==\n",
            started.elapsed().as_secs_f64()
        );
    }
    // The experiments above exercised real engines/optimizers/servers in
    // this process, so the global span ring now holds their most recent
    // traces — phase names, durations, and public counts only (the same
    // privacy boundary as every other obs surface).
    if let Some(path) = trace_json {
        match std::fs::write(&path, fedaqp_obs::spans_json()) {
            Ok(()) => eprintln!("[repro] wrote trace spans to {}", path.display()),
            Err(e) => {
                eprintln!("[repro] trace-json write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
