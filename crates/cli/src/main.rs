//! `fedaqp` — the command-line interface.
//!
//! ```text
//! fedaqp generate --dataset adult --rows 100000 --providers 4 --out data/
//! fedaqp inspect  data/provider0.fqst
//! fedaqp query    --data data/ --rate 0.1 --epsilon 1.0 --baseline \
//!                 "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60"
//! ```

use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use fedaqp_cli::{
    batch, coordinate, generate, ingest, inspect, parse_calibration, parse_extreme,
    parse_shard_slice, parse_stat, query, serve, shutdown_summary, stats, BatchArgs,
    CoordinateArgs, GenerateArgs, IngestArgs, QueryArgs, ServeArgs, StatsArgs,
};
use fedaqp_core::EstimatorCalibration;
use fedaqp_net::FederationServer;

const USAGE: &str = "\
fedaqp — private approximate queries over horizontal data federations

usage:
  fedaqp generate --dataset adult|amazon [--rows N] [--providers K]
                  [--capacity S] [--seed X] --out DIR
  fedaqp inspect  STORE.fqst
  fedaqp query    (--data DIR | --remote HOST:PORT) [--rate R]
                  [--epsilon E] [--delta D] [--calibration em|pps]
                  [--smc] [--baseline] [--explain] [--group-by DIM]
                  [--stat avg|var|std] [--extreme min:DIM|max:DIM]
                  [--threshold T] [--online K]
                  \"[EXPLAIN] SELECT ... FROM T WHERE ... [GROUP BY DIM]\"
                  (SQL may also say AVG/VAR/STD(Measure), MIN(dim)/MAX(dim),
                   and GROUP BY; --extreme replaces the SQL argument.
                   with --remote, ε/δ/calibration/release mode come from
                   the server; --rate and the plan shape still apply.
                   --explain, or an EXPLAIN prefix on the SQL, prints the
                   optimizer's decisions without running the plan or
                   spending any budget. --online K answers a scalar query
                   progressively in K rounds under the same total (ε, δ);
                   with --remote the server pushes each round's snapshot
                   as it resolves)
  fedaqp batch    (--data DIR | --remote HOST:PORT) --queries FILE
                  [--rate R] [--epsilon E] [--delta D] [--analysts N]
                  [--xi X] [--psi P] [--calibration em|pps] [--smc]
                  (answer a file of SQL queries through the concurrent
                   engine, one line per query)
  fedaqp serve    --data DIR [--listen HOST:PORT] [--epsilon E]
                  [--delta D] [--xi X] [--psi P] [--calibration em|pps]
                  [--smc] [--shard I/N] [--live [--max-stale-rows N]]
                  (expose the federation to remote analysts over TCP;
                   --xi caps each analyst identity at a session budget.
                   --shard I/N serves only provider slice I of N and
                   speaks the coordinator fragment protocol instead —
                   analysts then connect to `fedaqp coordinate`, which
                   holds the single budget ledger, so --xi and --smc do
                   not combine with --shard. --live accepts `fedaqp
                   ingest` batches while serving: every query runs on
                   the data epoch current when it arrived, incremental metadata maintains the cluster
                   tails, and --max-stale-rows bounds how stale they may
                   grow before a full recompute)
  fedaqp ingest   --remote HOST:PORT --provider I --dataset adult|amazon
                  [--rows N] [--seed X]
                  (synthesize N rows and append them to provider I of a
                   live server in Ingest frames of at most 4096 cells:
                   each frame is atomic and starts its own data epoch,
                   so a larger batch may land partly; the report gives
                   the last epoch)
  fedaqp coordinate --data DIR --shards ADDR,ADDR,... 
                  [--listen HOST:PORT] [--epsilon E] [--delta D]
                  [--xi X] [--psi P] [--calibration em|pps]
                  (federate `serve --shard` servers behind one analyst
                   endpoint: plans are charged whole here, fragmented
                   across the shards, and merged byte-identically to an
                   unsharded server; DIR supplies the manifest and schema
                   only — the rows stay with the shards)
  fedaqp stats    [--connect HOST:PORT]
                  (text exposition of the telemetry registry, one
                   `name value` line per sample; --connect fetches the
                   snapshot from a running serve/coordinate process over
                   the wire's Metrics frame — only public operational
                   counters and timings cross, never raw estimates)

calibration: `em` (default) divides each Hansen-Hurwitz draw by its exact
exponential-mechanism probability (unbiased under the actual sampler);
`pps` divides by the raw Eq. 3 PPS probability (paper-faithful).
";

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("flag {flag} needs a value"))
}

/// Takes `flag`'s value and parses it; a malformed value is refused as
/// `FLAG: why`.
fn take_parsed<T: FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    take_value(args, i, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Privacy parameters and release mode are fixed by the server; a flag
/// that silently did nothing would let the analyst believe they ran a
/// different query than they did.
fn refuse_server_side(remote: bool, server_side: &[&str]) -> Result<(), String> {
    if remote && !server_side.is_empty() {
        return Err(format!(
            "{} {} set by the server and cannot be used with --remote",
            server_side.join(", "),
            if server_side.len() == 1 { "is" } else { "are" },
        ));
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    let mut out = GenerateArgs {
        dataset: String::new(),
        rows: 100_000,
        providers: 4,
        capacity: 0,
        seed: 42,
        out: PathBuf::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => out.dataset = take_value(args, &mut i, "--dataset")?,
            "--rows" => out.rows = take_parsed(args, &mut i, "--rows")?,
            "--providers" => out.providers = take_parsed(args, &mut i, "--providers")?,
            "--capacity" => out.capacity = take_parsed(args, &mut i, "--capacity")?,
            "--seed" => out.seed = take_parsed(args, &mut i, "--seed")?,
            "--out" => out.out = PathBuf::from(take_value(args, &mut i, "--out")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if out.dataset.is_empty() {
        return Err("--dataset is required".into());
    }
    if out.out.as_os_str().is_empty() {
        return Err("--out is required".into());
    }
    generate(&out)
}

fn cmd_query(args: &[String]) -> Result<String, String> {
    let mut q = QueryArgs {
        data: PathBuf::new(),
        sql: String::new(),
        rate: 0.10,
        epsilon: 1.0,
        delta: 1e-3,
        smc: false,
        baseline: false,
        calibration: EstimatorCalibration::EmCalibrated,
        remote: None,
        group_by: None,
        stat: None,
        extreme: None,
        threshold: 0.0,
        explain: false,
        online: None,
    };
    let mut i = 0;
    let mut server_side: Vec<&'static str> = Vec::new();
    while i < args.len() {
        match args[i].as_str() {
            "--data" => q.data = PathBuf::from(take_value(args, &mut i, "--data")?),
            "--remote" => q.remote = Some(take_value(args, &mut i, "--remote")?),
            "--calibration" => {
                q.calibration = parse_calibration(&take_value(args, &mut i, "--calibration")?)?;
                server_side.push("--calibration");
            }
            "--rate" => q.rate = take_parsed(args, &mut i, "--rate")?,
            "--epsilon" => {
                q.epsilon = take_parsed(args, &mut i, "--epsilon")?;
                server_side.push("--epsilon");
            }
            "--delta" => {
                q.delta = take_parsed(args, &mut i, "--delta")?;
                server_side.push("--delta");
            }
            "--smc" => {
                q.smc = true;
                server_side.push("--smc");
            }
            "--baseline" => q.baseline = true,
            "--explain" => q.explain = true,
            "--group-by" => q.group_by = Some(take_value(args, &mut i, "--group-by")?),
            "--stat" => q.stat = Some(parse_stat(&take_value(args, &mut i, "--stat")?)?),
            "--extreme" => {
                q.extreme = Some(parse_extreme(&take_value(args, &mut i, "--extreme")?)?)
            }
            "--threshold" => q.threshold = take_parsed(args, &mut i, "--threshold")?,
            "--online" => q.online = Some(take_parsed(args, &mut i, "--online")?),
            sql if !sql.starts_with("--") => q.sql = sql.to_owned(),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if q.data.as_os_str().is_empty() && q.remote.is_none() {
        return Err("--data or --remote is required".into());
    }
    refuse_server_side(q.remote.is_some(), &server_side)?;
    if q.sql.is_empty() && q.extreme.is_none() {
        return Err("a SQL query argument is required".into());
    }
    query(&q)
}

fn cmd_serve(args: &[String]) -> Result<fedaqp_cli::RunningServer, String> {
    let mut s = ServeArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => s.data = PathBuf::from(take_value(args, &mut i, "--data")?),
            "--listen" => s.listen = take_value(args, &mut i, "--listen")?,
            "--calibration" => {
                s.calibration = parse_calibration(&take_value(args, &mut i, "--calibration")?)?
            }
            "--epsilon" => s.epsilon = take_parsed(args, &mut i, "--epsilon")?,
            "--delta" => s.delta = take_parsed(args, &mut i, "--delta")?,
            "--xi" => s.xi = Some(take_parsed(args, &mut i, "--xi")?),
            "--psi" => s.psi = Some(take_parsed(args, &mut i, "--psi")?),
            "--smc" => s.smc = true,
            "--shard" => s.shard = Some(parse_shard_slice(&take_value(args, &mut i, "--shard")?)?),
            "--live" => s.live = true,
            "--max-stale-rows" => {
                s.max_stale_rows = Some(take_parsed(args, &mut i, "--max-stale-rows")?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if s.data.as_os_str().is_empty() {
        return Err("--data is required".into());
    }
    serve(&s)
}

fn cmd_coordinate(args: &[String]) -> Result<fedaqp_cli::RunningCoordinator, String> {
    let mut c = CoordinateArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => c.data = PathBuf::from(take_value(args, &mut i, "--data")?),
            "--shards" => {
                c.shards = take_value(args, &mut i, "--shards")?
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_owned)
                    .collect()
            }
            "--listen" => c.listen = take_value(args, &mut i, "--listen")?,
            "--calibration" => {
                c.calibration = parse_calibration(&take_value(args, &mut i, "--calibration")?)?
            }
            "--epsilon" => c.epsilon = take_parsed(args, &mut i, "--epsilon")?,
            "--delta" => c.delta = take_parsed(args, &mut i, "--delta")?,
            "--xi" => c.xi = Some(take_parsed(args, &mut i, "--xi")?),
            "--psi" => c.psi = Some(take_parsed(args, &mut i, "--psi")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if c.data.as_os_str().is_empty() {
        return Err("--data is required".into());
    }
    if c.shards.is_empty() {
        return Err("--shards is required".into());
    }
    coordinate(&c)
}

fn cmd_ingest(args: &[String]) -> Result<String, String> {
    let mut g = IngestArgs {
        remote: String::new(),
        provider: 0,
        dataset: String::new(),
        rows: 1_000,
        seed: 1,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--remote" => g.remote = take_value(args, &mut i, "--remote")?,
            "--provider" => g.provider = take_parsed(args, &mut i, "--provider")?,
            "--dataset" => g.dataset = take_value(args, &mut i, "--dataset")?,
            "--rows" => g.rows = take_parsed(args, &mut i, "--rows")?,
            "--seed" => g.seed = take_parsed(args, &mut i, "--seed")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if g.remote.is_empty() {
        return Err("--remote is required".into());
    }
    if g.dataset.is_empty() {
        return Err("--dataset is required".into());
    }
    ingest(&g)
}

fn cmd_stats(args: &[String]) -> Result<String, String> {
    let mut s = StatsArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => s.connect = Some(take_value(args, &mut i, "--connect")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    stats(&s)
}

fn cmd_batch(args: &[String]) -> Result<String, String> {
    let mut b = BatchArgs {
        data: PathBuf::new(),
        queries: PathBuf::new(),
        rate: 0.10,
        epsilon: 1.0,
        delta: 1e-3,
        analysts: 4,
        xi: None,
        psi: None,
        smc: false,
        calibration: EstimatorCalibration::EmCalibrated,
        remote: None,
    };
    let mut i = 0;
    let mut server_side: Vec<&'static str> = Vec::new();
    while i < args.len() {
        match args[i].as_str() {
            "--data" => b.data = PathBuf::from(take_value(args, &mut i, "--data")?),
            "--remote" => b.remote = Some(take_value(args, &mut i, "--remote")?),
            "--calibration" => {
                b.calibration = parse_calibration(&take_value(args, &mut i, "--calibration")?)?;
                server_side.push("--calibration");
            }
            "--queries" => b.queries = PathBuf::from(take_value(args, &mut i, "--queries")?),
            "--rate" => b.rate = take_parsed(args, &mut i, "--rate")?,
            "--epsilon" => {
                b.epsilon = take_parsed(args, &mut i, "--epsilon")?;
                server_side.push("--epsilon");
            }
            "--delta" => {
                b.delta = take_parsed(args, &mut i, "--delta")?;
                server_side.push("--delta");
            }
            "--analysts" => b.analysts = take_parsed(args, &mut i, "--analysts")?,
            "--xi" => b.xi = Some(take_parsed(args, &mut i, "--xi")?),
            "--psi" => b.psi = Some(take_parsed(args, &mut i, "--psi")?),
            "--smc" => {
                b.smc = true;
                server_side.push("--smc");
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if b.data.as_os_str().is_empty() && b.remote.is_none() {
        return Err("--data or --remote is required".into());
    }
    refuse_server_side(b.remote.is_some(), &server_side)?;
    if b.queries.as_os_str().is_empty() {
        return Err("--queries is required".into());
    }
    batch(&b)
}

/// Prints a server's banner, then blocks on its accept loop for the life
/// of the process (Ctrl-C stops it). A clean shutdown leaves an
/// operational record of what this process served before the registry
/// vanishes.
fn serve_until_stopped(banner: &str, server: FederationServer) -> String {
    print!("{banner}");
    std::io::stdout().flush().ok();
    server.join();
    shutdown_summary()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Any setup failure of serve or coordinate — bad data dir, unbindable
    // address, invalid budget — exits non-zero with a one-line message
    // like every other command.
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..])
            .map(|running| serve_until_stopped(&running.banner, running.server)),
        Some("coordinate") => cmd_coordinate(&args[1..])
            .map(|running| serve_until_stopped(&running.banner, running.server)),
        Some("stats") => cmd_stats(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("inspect") => match args.get(1) {
            Some(path) => inspect(std::path::Path::new(path)),
            None => Err("inspect needs a store path".into()),
        },
        Some("query") => cmd_query(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            if !out.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
