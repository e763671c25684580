//! The CLI operations: generate / inspect / query.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use fedaqp_core::{
    relative_error, ConcurrentSession, EstimatorCalibration, Federation, FederationConfig,
    FederationEngine, LiveFederation, PendingAnswer, PendingPlain, PlanAnswer, PlanResult,
    PlanSnapshot, RefreshPolicy, ReleaseMode, SessionPlan,
};
use fedaqp_data::{
    partition_rows, AdultConfig, AdultSynth, AmazonConfig, AmazonSynth, PartitionMode,
};
use fedaqp_model::{
    parse_sql, parse_sql_statement, DerivedStatistic, Extreme, PlanParams, QueryPlan, RangeQuery,
    Row, Schema,
};
use fedaqp_net::{FederationServer, RemoteFederation, RemoteShard, ServeOptions};
use fedaqp_obs as obs;
use fedaqp_storage::{decode_store, encode_store, ClusterStore, PartitionStrategy, ProviderMeta};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::manifest::Manifest;

/// Arguments of `fedaqp generate`.
#[derive(Debug, Clone)]
pub struct GenerateArgs {
    /// `adult` or `amazon`.
    pub dataset: String,
    /// Raw rows to generate.
    pub rows: u64,
    /// Number of providers.
    pub providers: usize,
    /// Cluster capacity `S` (0 = 1% of a provider's partition).
    pub capacity: usize,
    /// Generator seed.
    pub seed: u64,
    /// Output directory.
    pub out: PathBuf,
}

/// `fedaqp generate`: synthesize a dataset, partition it, build each
/// provider's clustered store, and persist everything plus a manifest.
pub fn generate(args: &GenerateArgs) -> Result<String, String> {
    let dataset = match args.dataset.as_str() {
        "adult" => AdultSynth::generate(AdultConfig {
            n_rows: args.rows,
            seed: args.seed,
        })
        .map_err(|e| e.to_string())?,
        "amazon" => AmazonSynth::generate(AmazonConfig {
            n_rows: args.rows,
            seed: args.seed,
        })
        .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown dataset `{other}` (use adult|amazon)")),
    };
    if args.providers == 0 {
        return Err("need at least one provider".into());
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC11);
    let partitions = partition_rows(
        &mut rng,
        dataset.cells,
        args.providers,
        &PartitionMode::Equal,
    )
    .map_err(|e| e.to_string())?;
    let capacity = if args.capacity == 0 {
        (partitions[0].len() / 100).max(32)
    } else {
        args.capacity
    };
    let manifest = Manifest {
        dataset: args.dataset.clone(),
        providers: args.providers,
        capacity,
        seed: args.seed,
        rows: dataset.raw_rows,
    };
    let total_bytes = write_data_dir(&args.out, &manifest, &dataset.schema, partitions)?;
    Ok(format!(
        "wrote {} provider stores ({} bytes total) to {} — {}",
        manifest.providers,
        total_bytes,
        args.out.display(),
        manifest
    ))
}

/// Writes a data directory: each provider's rows clustered into its store
/// at the manifest's capacity, then the manifest. Returns the bytes of
/// store written.
pub fn write_data_dir(
    out: &Path,
    manifest: &Manifest,
    schema: &Schema,
    partitions: Vec<Vec<Row>>,
) -> Result<usize, String> {
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let mut total_bytes = 0usize;
    for (i, rows) in partitions.into_iter().enumerate() {
        let strategy = PartitionStrategy::SortedBy(0);
        let store = ClusterStore::build(schema.clone(), rows, manifest.capacity, strategy)
            .map_err(|e| e.to_string())?;
        let blob = encode_store(&store);
        total_bytes += blob.len();
        std::fs::write(out.join(Manifest::store_file(i)), &blob).map_err(|e| e.to_string())?;
    }
    manifest.save(out)?;
    Ok(total_bytes)
}

/// `fedaqp inspect`: print statistics of one persisted store.
pub fn inspect(path: &Path) -> Result<String, String> {
    let blob = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let store = decode_store(&blob).map_err(|e| e.to_string())?;
    let meta = ProviderMeta::build(&store, store.capacity());
    let meta_bytes = fedaqp_storage::encode_provider_meta(&meta).len();
    let mut out = String::new();
    out.push_str(&format!("store       : {}\n", path.display()));
    out.push_str(&format!(
        "schema      : {} dimensions ({})\n",
        store.schema().arity(),
        store
            .schema()
            .dimensions()
            .iter()
            .map(|d| d.name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "clusters    : {} (S = {})\n",
        store.n_clusters(),
        store.capacity()
    ));
    out.push_str(&format!(
        "cells       : {} ({} raw rows)\n",
        store.total_rows(),
        store.total_measure()
    ));
    out.push_str(&format!(
        "bytes       : {} data, {} metadata ({:.1}%)\n",
        blob.len(),
        meta_bytes,
        100.0 * meta_bytes as f64 / blob.len().max(1) as f64
    ));
    Ok(out)
}

/// Arguments of `fedaqp query`.
#[derive(Debug, Clone)]
pub struct QueryArgs {
    /// Data directory produced by `fedaqp generate` (unused with
    /// `remote`).
    pub data: PathBuf,
    /// The SQL text.
    pub sql: String,
    /// Sampling rate.
    pub rate: f64,
    /// Per-query ε.
    pub epsilon: f64,
    /// Per-query δ.
    pub delta: f64,
    /// Use the SMC release mode.
    pub smc: bool,
    /// Also run the plain baseline and report the speed-up.
    pub baseline: bool,
    /// Hansen–Hurwitz calibration (`em` default, `pps` paper-faithful).
    pub calibration: EstimatorCalibration,
    /// Query a served federation at `host:port` instead of local data.
    pub remote: Option<String>,
    /// Group the query by this dimension (`GROUP BY` in SQL works too).
    pub group_by: Option<String>,
    /// Derive this statistic instead of the plain aggregate (`AVG(...)`
    /// etc. in SQL works too).
    pub stat: Option<DerivedStatistic>,
    /// Release this extreme of a dimension (`min:DIM` / `max:DIM`) —
    /// replaces the SQL query.
    pub extreme: Option<(Extreme, String)>,
    /// GROUP BY suppression threshold (noisy groups below it vanish).
    pub threshold: f64,
    /// Print the optimizer's decisions instead of running the plan
    /// (`EXPLAIN` as a SQL prefix works too). Charges no budget.
    pub explain: bool,
    /// Answer progressively in this many rounds (online aggregation):
    /// each round releases a refined estimate under `1/rounds` of the
    /// query's `(ε, δ)`. Applies to scalar COUNT/SUM queries.
    pub online: Option<usize>,
}

/// Parses a `--calibration` value: `em` (EM-calibrated, the default) or
/// `pps` (the paper's Eq. 3 divisor). The vocabulary is
/// [`EstimatorCalibration`]'s canonical `FromStr`.
pub fn parse_calibration(text: &str) -> Result<EstimatorCalibration, String> {
    text.parse()
        .map_err(|_| format!("unknown calibration `{text}` (use em|pps)"))
}

/// Parses a `--stat` value: `avg`, `var`, or `std`.
pub fn parse_stat(text: &str) -> Result<DerivedStatistic, String> {
    match text {
        "avg" => Ok(DerivedStatistic::Average),
        "var" => Ok(DerivedStatistic::Variance),
        "std" => Ok(DerivedStatistic::StdDev),
        _ => Err(format!("unknown statistic `{text}` (use avg|var|std)")),
    }
}

/// Parses an `--extreme` value: `min:DIM` or `max:DIM`.
pub fn parse_extreme(text: &str) -> Result<(Extreme, String), String> {
    let (which, dim) = text
        .split_once(':')
        .ok_or_else(|| format!("`{text}` is not of the form min:DIM or max:DIM"))?;
    let extreme = match which {
        "min" => Extreme::Min,
        "max" => Extreme::Max,
        _ => return Err(format!("unknown extreme `{which}` (use min|max)")),
    };
    if dim.is_empty() {
        return Err("the extreme needs a dimension name (e.g. max:age)".into());
    }
    Ok((extreme, dim.to_owned()))
}

/// Compiles the SQL text plus the plan-shaping flags into one
/// [`QueryPlan`] against `schema`, plus whether the SQL asked for
/// `EXPLAIN` (the `--explain` flag is OR-ed in by the caller).
fn build_plan(
    schema: &Schema,
    args: &QueryArgs,
    epsilon: f64,
    delta: f64,
) -> Result<(QueryPlan, bool), String> {
    let mut sql_explain = false;
    let mut plan = match &args.extreme {
        Some((extreme, dim_name)) => {
            if !args.sql.is_empty() {
                return Err(
                    "--extreme replaces the SQL query (or express it as SELECT MIN(dim) FROM T)"
                        .into(),
                );
            }
            let dim = schema
                .index_of(dim_name)
                .map_err(|_| format!("unknown dimension `{dim_name}`"))?;
            QueryPlan::Extreme {
                dim,
                extreme: *extreme,
                epsilon,
            }
        }
        None => {
            let params = PlanParams {
                sampling_rate: args.rate,
                epsilon,
                delta,
                threshold: args.threshold,
            };
            let (plan, explain) =
                parse_sql_statement(schema, &args.sql, &params).map_err(|e| e.to_string())?;
            sql_explain = explain;
            plan
        }
    };
    if let Some(stat) = args.stat {
        plan = match plan {
            QueryPlan::Scalar {
                query,
                sampling_rate,
                epsilon,
                delta,
            } => QueryPlan::Derived {
                query,
                statistic: stat,
                sampling_rate,
                epsilon,
                delta,
            },
            QueryPlan::GroupBy {
                base,
                statistic: None,
                group_dim,
                threshold,
                sampling_rate,
                epsilon,
                delta,
            } => QueryPlan::GroupBy {
                base,
                statistic: Some(stat),
                group_dim,
                threshold,
                sampling_rate,
                epsilon,
                delta,
            },
            _ => {
                return Err("--stat applies to a COUNT/SUM query (with or without GROUP BY)".into())
            }
        };
    }
    if let Some(name) = &args.group_by {
        let dim = schema
            .index_of(name)
            .map_err(|_| format!("unknown dimension `{name}`"))?;
        plan = match plan {
            QueryPlan::Scalar {
                query,
                sampling_rate,
                epsilon,
                delta,
            } => QueryPlan::GroupBy {
                base: query,
                statistic: None,
                group_dim: dim,
                threshold: args.threshold,
                sampling_rate,
                epsilon,
                delta,
            },
            QueryPlan::Derived {
                query,
                statistic,
                sampling_rate,
                epsilon,
                delta,
            } => QueryPlan::GroupBy {
                base: query,
                statistic: Some(statistic),
                group_dim: dim,
                threshold: args.threshold,
                sampling_rate,
                epsilon,
                delta,
            },
            _ => {
                return Err(
                    "--group-by applies to a scalar or derived query (or use GROUP BY in SQL)"
                        .into(),
                )
            }
        };
    }
    if let Some(rounds) = args.online {
        if rounds == 0 {
            return Err("--online needs at least one round".into());
        }
        plan = match plan {
            QueryPlan::Scalar {
                query,
                sampling_rate,
                epsilon,
                delta,
            } => QueryPlan::Online {
                query,
                sampling_rate,
                epsilon,
                delta,
                rounds,
            },
            _ => return Err("--online applies to a scalar COUNT/SUM query".into()),
        };
    }
    Ok((plan, sql_explain))
}

/// One progressive snapshot of `query --online`: a line of the rendered
/// answer, and what `--remote` prints as each pushed frame arrives.
fn round_line(s: &PlanSnapshot) -> String {
    format!(
        "round {:>2}/{} : {:.3} ({:.0}% sample, {} clusters)",
        s.round,
        s.rounds,
        s.value,
        100.0 * s.sample_fraction,
        s.clusters_scanned
    )
}

/// Renders a plan answer — the lines `fedaqp query` prints the same
/// locally and over `--remote`: the result (scalar value, group table,
/// snapshots or extreme), the privacy cost and, for a scalar, the
/// estimator. Online rounds already printed as their frames arrived
/// (`rounds_printed`) are not repeated.
pub fn render_answer(
    out: &mut String,
    schema: &Schema,
    plan: &QueryPlan,
    answer: &PlanAnswer,
    calibration: EstimatorCalibration,
    rounds_printed: bool,
) {
    match &answer.result {
        PlanResult::Value { value, .. } => {
            out.push_str(&format!("private     : {value:.3}\n"));
        }
        PlanResult::Groups { groups, suppressed } => {
            let group_dim = match plan {
                QueryPlan::GroupBy { group_dim, .. } => *group_dim,
                _ => 0,
            };
            let name = schema
                .dimension(group_dim)
                .map(|d| d.name().to_owned())
                .unwrap_or_else(|_| format!("dim{group_dim}"));
            for g in groups {
                out.push_str(&format!("{name:<12}= {:<6} -> {:.1}\n", g.key, g.value));
            }
            out.push_str(&format!(
                "groups      : {} released, {suppressed} suppressed\n",
                groups.len()
            ));
        }
        PlanResult::Extreme { value } => {
            out.push_str(&format!("private     : {value}\n"));
        }
        PlanResult::Snapshots { snapshots } => {
            if !rounds_printed {
                for s in snapshots {
                    out.push_str(&round_line(s));
                    out.push('\n');
                }
            }
            if let Some(last) = snapshots.last() {
                out.push_str(&format!("private     : {:.3} (final round)\n", last.value));
            }
        }
    }
    out.push_str(&format!(
        "privacy     : (ε = {}, δ = {:e}) for the whole plan\n",
        answer.cost.eps, answer.cost.delta
    ));
    if let (QueryPlan::Scalar { .. }, PlanResult::Value { ci_halfwidth, .. }) =
        (plan, &answer.result)
    {
        out.push_str(&format!(
            "estimator   : {} calibration, sampling CI ±{}\n",
            match calibration {
                EstimatorCalibration::EmCalibrated => "EM",
                EstimatorCalibration::PpsEq3 => "PPS (Eq. 3)",
            },
            match ci_halfwidth {
                Some(hw) => format!("{hw:.1} (95%)"),
                None => "unknown (single-draw sample)".into(),
            }
        ));
    }
}

/// The contiguous provider slice `(offset, len)` shard `index` of `count`
/// holds, mirroring the coordinator's split: earlier shards take the
/// remainder, every provider lands in exactly one shard.
fn shard_slice(providers: usize, index: usize, count: usize) -> Result<(usize, usize), String> {
    if count > providers {
        return Err(format!(
            "{count} shards cannot split {providers} providers (at most one shard per provider)"
        ));
    }
    let (base, extra) = (providers / count, providers % count);
    Ok((
        index * base + index.min(extra),
        base + usize::from(index < extra),
    ))
}

/// Reads and decodes provider `i`'s store from a data directory.
fn read_store(data: &Path, i: usize) -> Result<ClusterStore, String> {
    let path = data.join(Manifest::store_file(i));
    let blob = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    decode_store(&blob).map_err(|e| format!("{}: {e}", path.display()))
}

/// The federation configuration a data directory's manifest implies,
/// under the command's privacy parameters.
fn manifest_config(
    manifest: &Manifest,
    epsilon: f64,
    delta: f64,
    calibration: EstimatorCalibration,
) -> FederationConfig {
    let mut config = FederationConfig::paper_default(manifest.capacity);
    config.n_providers = manifest.providers;
    config.epsilon = epsilon;
    config.delta = delta;
    config.seed = manifest.seed;
    config.estimator_calibration = calibration;
    config
}

/// Rebuilds a federation (and its schema) from a `fedaqp generate` data
/// directory — shared by `fedaqp query`, `batch` and `serve`. The decoded
/// stores are served as clustered on disk; a store whose schema or cluster
/// capacity disagrees with the rest of the directory is refused. With a
/// `shard` slice, only that contiguous range of provider stores is
/// loaded, and the noise-lane base is offset so the shard draws exactly
/// the lanes it would hold in the unsharded federation (the determinism
/// contract of `fedaqp serve --shard`).
fn load_federation(
    data: &Path,
    epsilon: f64,
    delta: f64,
    smc: bool,
    calibration: EstimatorCalibration,
    shard: Option<(usize, usize)>,
) -> Result<Federation, String> {
    let manifest = Manifest::load(data)?;
    let (offset, len) = match shard {
        Some((index, count)) => shard_slice(manifest.providers, index, count)?,
        None => (0, manifest.providers),
    };
    let stores = (offset..offset + len)
        .map(|i| read_store(data, i))
        .collect::<Result<Vec<_>, _>>()?;
    let schema = stores
        .first()
        .ok_or("data directory holds no providers")?
        .schema()
        .clone();
    let mut config = manifest_config(&manifest, epsilon, delta, calibration);
    config.n_providers = len;
    config.provider_lane_base = offset as u64;
    if smc {
        config.release_mode = ReleaseMode::Smc;
    }
    Federation::from_stores(config, schema, stores).map_err(|e| format!("{}: {e}", data.display()))
}

/// `fedaqp query`: compile the SQL and the plan-shaping flags into one
/// [`QueryPlan`] and answer it — on a scoped engine over `--data`, or over
/// the wire at `--remote` (the server's `(ε, δ)`, one `Plan` frame, or an
/// `OnlinePlan` whose rounds print as they arrive). Both sides print the
/// answer through `render_answer`, so a seeded answer prints the same
/// lines either way; locally only the oracle lines follow (`exact`,
/// `combined`, the `--baseline` speed-up), over the wire the `budget` line.
pub fn query(args: &QueryArgs) -> Result<String, String> {
    let mut out = String::new();
    if !args.sql.is_empty() {
        out.push_str(&format!("query       : {}\n", args.sql));
    }
    let Some(addr) = args.remote.as_deref() else {
        let federation = load_federation(
            &args.data,
            args.epsilon,
            args.delta,
            args.smc,
            args.calibration,
            None,
        )?;
        let (plan, sql_explain) = build_plan(federation.schema(), args, args.epsilon, args.delta)?;
        return federation.with_engine(|engine| {
            if args.explain || sql_explain {
                let explanation = engine.explain_plan(&plan).map_err(|e| e.to_string())?;
                out.push_str(&explanation.render());
                return Ok(out);
            }
            let answer = engine.run_plan(&plan).map_err(|e| e.to_string())?;
            render_answer(
                &mut out,
                federation.schema(),
                &plan,
                &answer,
                args.calibration,
                false,
            );
            out.push_str(&format!(
                "latency     : {:.2} ms protocol\n",
                answer.timings.total().as_secs_f64() * 1e3
            ));
            // The oracle lines: the exact answer is never released, so
            // only local data can print it.
            if let QueryPlan::Scalar { query, .. } | QueryPlan::Online { query, .. } = &plan {
                if let Some(snapshots) = answer.snapshots() {
                    out.push_str(&format!(
                        "combined    : {:.3} (sample-fraction weighted)\n",
                        fedaqp_core::combine_snapshots(snapshots)
                    ));
                }
                let exact = federation.exact(query);
                out.push_str(&format!(
                    "exact       : {exact} (relative error {:.2}%)\n",
                    100.0 * relative_error(exact, answer.value().unwrap_or(f64::NAN))
                ));
            }
            if let (true, QueryPlan::Scalar { query, .. }) = (args.baseline, &plan) {
                let plain = engine
                    .submit_plain(query)
                    .and_then(PendingPlain::wait)
                    .map_err(|e| e.to_string())?;
                out.push_str(&format!(
                    "baseline    : private {:?} vs plain {:?} (speed-up {:.2}x)\n",
                    answer.timings.total(),
                    plain.duration,
                    plain.duration.as_secs_f64() / answer.timings.total().as_secs_f64().max(1e-12)
                ));
            }
            Ok(out)
        });
    };
    if args.baseline {
        return Err("--baseline needs local data; it is unavailable with --remote".into());
    }
    let mut remote = RemoteFederation::connect_as(addr, "cli").map_err(|e| e.to_string())?;
    let (plan, sql_explain) = build_plan(remote.schema(), args, remote.epsilon(), remote.delta())?;
    out.push_str(&format!(
        "remote      : {addr} ({} providers, wire v{})\n",
        remote.n_providers(),
        fedaqp_net::wire::VERSION
    ));
    if args.explain || sql_explain {
        // The server's optimizer explains the plan; nothing runs and no
        // budget is spent on either side.
        let explanation = remote.explain_plan(&plan).map_err(|e| e.to_string())?;
        out.push_str(&explanation.render());
        return Ok(out);
    }
    let started = Instant::now();
    let answer = match &plan {
        // Each snapshot prints the moment its frame arrives: the analyst
        // watches the estimate refine while later rounds still run.
        QueryPlan::Online {
            query,
            sampling_rate,
            epsilon,
            delta,
            rounds,
        } => remote.run_online_plan(
            query,
            *sampling_rate,
            *epsilon,
            *delta,
            *rounds as u32,
            |s| println!("{}", round_line(s)),
        ),
        plan => remote.run_plan(plan),
    }
    .map_err(|e| e.to_string())?;
    let round_trip = started.elapsed();
    let online = matches!(plan, QueryPlan::Online { .. });
    render_answer(
        &mut out,
        remote.schema(),
        &plan,
        &answer,
        remote.calibration(),
        online,
    );
    out.push_str(&format!(
        "latency     : {:.2} ms round trip ({:.2} ms server protocol)\n",
        round_trip.as_secs_f64() * 1e3,
        answer.timings.total().as_secs_f64() * 1e3,
    ));
    if let Some((xi, psi)) = remote.session_budget() {
        let status = remote.budget_status().map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "budget      : spent (ε = {:.3}, δ = {:.1e}) of (ξ = {xi}, ψ = {psi:.1e})\n",
            status.spent_eps, status.spent_delta
        ));
    }
    Ok(out)
}

/// Arguments of `fedaqp batch`.
#[derive(Debug, Clone)]
pub struct BatchArgs {
    /// Data directory produced by `fedaqp generate`.
    pub data: PathBuf,
    /// File with one SQL query per line (`#` comments and blanks skipped).
    pub queries: PathBuf,
    /// Sampling rate.
    pub rate: f64,
    /// Per-query ε.
    pub epsilon: f64,
    /// Per-query δ.
    pub delta: f64,
    /// Concurrent analyst threads submitting queries.
    pub analysts: usize,
    /// Optional session budget ξ: when set, queries run inside one
    /// `ConcurrentSession` and stop being answered once `(ξ, ψ)` is spent.
    pub xi: Option<f64>,
    /// Session failure budget ψ (default 1e-2); refused without
    /// `xi`.
    pub psi: Option<f64>,
    /// Use the SMC release mode.
    pub smc: bool,
    /// Hansen–Hurwitz calibration (`em` default, `pps` paper-faithful).
    pub calibration: EstimatorCalibration,
    /// Run the batch against a served federation at `host:port` instead
    /// of local data (one connection per analyst thread).
    pub remote: Option<String>,
}

/// The session failure budget ψ when `--xi` is given without `--psi`.
const DEFAULT_PSI: f64 = 1e-2;

/// The session budget `(ξ, ψ)` of `--xi`/`--psi`. A ψ without a ξ caps
/// nothing, so it is refused rather than silently ignored.
fn session_budget(xi: Option<f64>, psi: Option<f64>) -> Result<Option<(f64, f64)>, String> {
    match (xi, psi) {
        (None, Some(_)) => {
            Err("--psi is the failure budget of a --xi session and needs --xi".into())
        }
        (xi, psi) => Ok(xi.map(|xi| (xi, psi.unwrap_or(DEFAULT_PSI)))),
    }
}

/// The server options and banner text of a per-analyst session budget.
fn serve_budget(budget: Option<(f64, f64)>) -> (ServeOptions, String) {
    match budget {
        Some((xi, psi)) => (
            ServeOptions::with_budget(xi, psi),
            format!("per-analyst (ξ = {xi}, ψ = {psi:e})"),
        ),
        None => (ServeOptions::unlimited(), "uncapped sessions".into()),
    }
}

/// Reads and parses a query file (one SQL statement per line; `#`
/// comments and blanks skipped) against `schema`.
fn load_query_file(path: &Path, schema: &Schema) -> Result<Vec<(String, RangeQuery)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let sql = line.trim();
        if sql.is_empty() || sql.starts_with('#') {
            continue;
        }
        let parsed = parse_sql(schema, sql).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        queries.push((sql.to_owned(), parsed));
    }
    if queries.is_empty() {
        return Err(format!("{}: no queries found", path.display()));
    }
    Ok(queries)
}

/// Answers a query file from `analysts` threads, round-robin, and renders
/// one line per query in file order plus the `total` line. Each thread
/// first opens its own `S` (a connection, or nothing); `answer` then
/// answers one query on it. An error — opening or answering — is that
/// query's line.
fn fan_out<S>(
    queries: &[(String, RangeQuery)],
    analysts: usize,
    open: impl Fn() -> Result<S, String> + Sync,
    answer: impl Fn(&mut S, &RangeQuery) -> Result<f64, String> + Sync,
) -> String {
    let results: Mutex<Vec<(usize, String, bool)>> = Mutex::new(Vec::with_capacity(queries.len()));
    let analysts = analysts.min(queries.len());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for analyst in 0..analysts {
            let (open, answer, results) = (&open, &answer, &results);
            scope.spawn(move || {
                let mut state = open();
                for (i, (sql, q)) in queries.iter().enumerate().skip(analyst).step_by(analysts) {
                    let t = Instant::now();
                    let (line, ok) = match state
                        .as_mut()
                        .map_err(|e| e.clone())
                        .and_then(|s| answer(s, q))
                    {
                        Ok(value) => (
                            format!(
                                "[{i}] {sql} -> {value:.1} ({:.2} ms)",
                                t.elapsed().as_secs_f64() * 1e3
                            ),
                            true,
                        ),
                        Err(e) => (format!("[{i}] {sql} -> {e}"), false),
                    };
                    results.lock().expect("results lock").push((i, line, ok));
                }
            });
        }
    });
    let wall = started.elapsed();
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(i, _, _)| *i);
    let answered = results.iter().filter(|(_, _, ok)| *ok).count();
    let mut out = String::new();
    for (_, line, _) in &results {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "total       : {answered}/{} answered in {:.2} ms ({:.1} queries/sec)\n",
        queries.len(),
        wall.as_secs_f64() * 1e3,
        answered as f64 / wall.as_secs_f64().max(1e-9)
    ));
    out
}

/// `fedaqp batch`: answer a whole file of SQL queries with `analysts`
/// concurrent submitters — on a federation engine over `--data` (one
/// persistent worker thread per provider, optionally inside one `(ξ, ψ)`
/// session), or over `--remote` with one connection per analyst thread.
pub fn batch(args: &BatchArgs) -> Result<String, String> {
    if args.analysts == 0 {
        return Err("need at least one analyst thread".into());
    }
    let budget = session_budget(args.xi, args.psi)?;
    if let Some(addr) = args.remote.as_deref() {
        if budget.is_some() {
            return Err(
                "session budgets are enforced server-side with --remote (start the server \
                 with `fedaqp serve --xi`)"
                    .into(),
            );
        }
        let schema = RemoteFederation::connect_as(addr, "cli")
            .map_err(|e| e.to_string())?
            .schema()
            .clone();
        let queries = load_query_file(&args.queries, &schema)?;
        let lines = fan_out(
            &queries,
            args.analysts,
            || RemoteFederation::connect_as(addr, "cli").map_err(|e| format!("connect error: {e}")),
            |conn, q| {
                conn.run_plan(&conn.scalar_plan(q, args.rate))
                    .map(|a| a.value().unwrap_or(f64::NAN))
                    .map_err(|e| format!("error: {e}"))
            },
        );
        return Ok(format!(
            "batch       : {} queries, {} analysts over {addr}\n{lines}",
            queries.len(),
            args.analysts.min(queries.len()),
        ));
    }
    let federation = load_federation(
        &args.data,
        args.epsilon,
        args.delta,
        args.smc,
        args.calibration,
        None,
    )?;
    let queries = load_query_file(&args.queries, federation.schema())?;
    let engine = FederationEngine::start(federation);
    let handle = engine.handle();
    let session = budget
        .map(|(xi, psi)| {
            ConcurrentSession::open(handle.clone(), xi, psi, SessionPlan::PayAsYouGo)
                .map_err(|e| e.to_string())
        })
        .transpose()?;
    let lines = fan_out(
        &queries,
        args.analysts,
        || Ok(()),
        |(), q| {
            match &session {
                Some(s) => s.submit(q, args.rate),
                None => handle.submit(q, args.rate),
            }
            .and_then(PendingAnswer::wait)
            .map(|a| a.value)
            .map_err(|e| format!("error: {e}"))
        },
    );
    let mut out = format!(
        "batch       : {} queries, {} analysts, {} release, per-query ε = {}\n{lines}",
        queries.len(),
        args.analysts,
        if args.smc { "SMC" } else { "local-DP" },
        args.epsilon
    );
    if let (Some(s), Some((xi, psi))) = (&session, budget) {
        let spent = s.spent();
        out.push_str(&format!(
            "privacy     : spent (ε = {:.3}, δ = {:.1e}) of (ξ = {xi}, ψ = {psi:.1e})\n",
            spent.eps, spent.delta,
        ));
    }
    engine.shutdown();
    Ok(out)
}

/// Arguments of `fedaqp serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Data directory produced by `fedaqp generate`.
    pub data: PathBuf,
    /// Listen address, e.g. `127.0.0.1:4751` (port `0` = ephemeral).
    pub listen: String,
    /// Default per-query ε.
    pub epsilon: f64,
    /// Default per-query δ.
    pub delta: f64,
    /// Per-analyst session budget ξ; `None` serves uncapped.
    pub xi: Option<f64>,
    /// Per-analyst session failure budget ψ (default 1e-2);
    /// refused without `xi`.
    pub psi: Option<f64>,
    /// Use the SMC release mode.
    pub smc: bool,
    /// Hansen–Hurwitz calibration (`em` default, `pps` paper-faithful).
    pub calibration: EstimatorCalibration,
    /// Serve shard `I` of `N` (`--shard I/N`): hold only that contiguous
    /// provider slice and speak the coordinator's fragment protocol
    /// instead of the analyst protocol.
    pub shard: Option<(usize, usize)>,
    /// Serve a live federation: accept `Ingest` frames that append
    /// rows to a provider while analysts keep querying. Each query runs
    /// on the data epoch current when it arrived; an ingest starts the
    /// next epoch without waiting for the queries in flight.
    pub live: bool,
    /// Live mode: trigger a full metadata recompute after this many
    /// stale rows (`None` = the default policy).
    pub max_stale_rows: Option<usize>,
}

/// The flags' defaults: serve on `127.0.0.1:4751` at `(ε, δ) = (1, 1e-3)`,
/// uncapped, local-DP, EM-calibrated, frozen and unsharded.
impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            data: PathBuf::new(),
            listen: "127.0.0.1:4751".into(),
            epsilon: 1.0,
            delta: 1e-3,
            xi: None,
            psi: None,
            smc: false,
            calibration: EstimatorCalibration::EmCalibrated,
            shard: None,
            live: false,
            max_stale_rows: None,
        }
    }
}

/// A running `fedaqp serve` instance. Keep both fields alive for the
/// lifetime of the service; the binary blocks on
/// [`FederationServer::join`], tests call
/// [`FederationServer::shutdown`].
#[derive(Debug)]
pub struct RunningServer {
    /// The TCP server (accept loop).
    pub server: FederationServer,
    /// The engine whose worker pool answers the queries. `None` in live
    /// mode, where each data epoch has a scoped engine of its own (see
    /// [`LiveFederation`]).
    pub engine: Option<FederationEngine>,
    /// Human-readable startup report.
    pub banner: String,
}

impl RunningServer {
    /// Stops the accept loop and (when present) the worker pool.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Some(engine) = self.engine {
            engine.shutdown();
        }
    }
}

/// Parses a `--shard` value: `I/N` — this server holds contiguous
/// provider slice `I` (0-based) of `N` shards.
pub fn parse_shard_slice(text: &str) -> Result<(usize, usize), String> {
    let (index, count) = text
        .split_once('/')
        .ok_or_else(|| format!("`{text}` is not of the form I/N (e.g. 0/2)"))?;
    let index: usize = index.parse().map_err(|e| format!("--shard index: {e}"))?;
    let count: usize = count.parse().map_err(|e| format!("--shard count: {e}"))?;
    if count == 0 || index >= count {
        return Err(format!("--shard wants I < N, got {index}/{count}"));
    }
    Ok((index, count))
}

/// `fedaqp serve --shard I/N`: rebuild shard `I`'s provider slice, start
/// its engine, and expose it to an upstream coordinator (fragment frames
/// only — analysts connect to `fedaqp coordinate`).
fn serve_shard(args: &ServeArgs, index: usize, count: usize) -> Result<RunningServer, String> {
    if args.xi.is_some() {
        return Err(
            "shards run budget-unchecked: the coordinator holds the single ξ ledger \
             (use --xi on `fedaqp coordinate`)"
                .into(),
        );
    }
    if args.smc {
        return Err(
            "SMC release is not shardable: the oblivious sum needs every provider's \
             shares in one place"
                .into(),
        );
    }
    let federation = load_federation(
        &args.data,
        args.epsilon,
        args.delta,
        false,
        args.calibration,
        Some((index, count)),
    )?;
    let n_providers = federation.config().n_providers;
    let lane_base = federation.config().provider_lane_base;
    let engine = FederationEngine::start(federation);
    let server =
        FederationServer::bind_shard(&args.listen, engine.handle()).map_err(|e| e.to_string())?;
    let banner = format!(
        "shard       : {index} of {count} — {n_providers} providers (global lanes {lane_base}..{}) \
         from {} on {}\n\
         mode        : coordinator fragment frames only (wire v{}); analysts connect to \
         `fedaqp coordinate`\n",
        lane_base + n_providers as u64,
        args.data.display(),
        server.local_addr(),
        fedaqp_net::wire::VERSION,
    );
    Ok(RunningServer {
        server,
        engine: Some(engine),
        banner,
    })
}

/// `fedaqp serve --live`: rebuild the federation, wrap it in a
/// [`LiveFederation`], and expose it with the ingest path enabled.
/// Each query runs on the data epoch current when it arrived; `fedaqp
/// ingest` starts a new epoch per frame without waiting for them, and the
/// staleness policy decides when metadata is recomputed from scratch.
fn serve_live(args: &ServeArgs, budget: Option<(f64, f64)>) -> Result<RunningServer, String> {
    let federation = load_federation(
        &args.data,
        args.epsilon,
        args.delta,
        args.smc,
        args.calibration,
        None,
    )?;
    let n_providers = federation.config().n_providers;
    let mut policy = RefreshPolicy::default();
    if let Some(rows) = args.max_stale_rows {
        policy.max_stale_rows = rows;
    }
    let max_stale_rows = policy.max_stale_rows;
    let live = LiveFederation::new(federation, policy);
    let (options, budget) = serve_budget(budget);
    let server =
        FederationServer::bind_live(&args.listen, live, options).map_err(|e| e.to_string())?;
    let banner = format!(
        "serving     : {n_providers} providers (live) from {} on {}\n\
         privacy     : per-query ε = {}, δ = {:e}, {} release\n\
         budget      : {}\n\
         ingest      : wire v{} `fedaqp ingest` enabled; metadata refresh after {} stale rows\n",
        args.data.display(),
        server.local_addr(),
        args.epsilon,
        args.delta,
        if args.smc { "SMC" } else { "local-DP" },
        budget,
        fedaqp_net::wire::VERSION,
        max_stale_rows,
    );
    Ok(RunningServer {
        server,
        engine: None,
        banner,
    })
}

/// `fedaqp serve`: rebuild the federation from a data directory, start
/// the concurrent engine, and expose it on a TCP listener.
pub fn serve(args: &ServeArgs) -> Result<RunningServer, String> {
    if args.live && args.shard.is_some() {
        return Err("--live does not combine with --shard: shards are frozen slices".into());
    }
    if args.max_stale_rows.is_some() && !args.live {
        return Err(
            "--max-stale-rows tunes a --live server's metadata refresh; pass --live".into(),
        );
    }
    let budget = session_budget(args.xi, args.psi)?;
    if let Some((index, count)) = args.shard {
        return serve_shard(args, index, count);
    }
    if args.live {
        return serve_live(args, budget);
    }
    let federation = load_federation(
        &args.data,
        args.epsilon,
        args.delta,
        args.smc,
        args.calibration,
        None,
    )?;
    let n_providers = federation.config().n_providers;
    let engine = FederationEngine::start(federation);
    let (options, budget) = serve_budget(budget);
    let server = FederationServer::bind(&args.listen, engine.handle(), options)
        .map_err(|e| e.to_string())?;
    let banner = format!(
        "serving     : {n_providers} providers from {} on {}\n\
         privacy     : per-query ε = {}, δ = {:e}, {} release\n\
         budget      : {}\n",
        args.data.display(),
        server.local_addr(),
        args.epsilon,
        args.delta,
        if args.smc { "SMC" } else { "local-DP" },
        budget,
    );
    Ok(RunningServer {
        server,
        engine: Some(engine),
        banner,
    })
}

/// Arguments of `fedaqp ingest`.
#[derive(Debug, Clone)]
pub struct IngestArgs {
    /// The live server at `host:port` (started with `fedaqp serve
    /// --live`).
    pub remote: String,
    /// The provider (federation-local id) the rows are appended to.
    pub provider: u32,
    /// `adult` or `amazon` — must match the served dataset's schema.
    pub dataset: String,
    /// Raw rows to synthesize and push.
    pub rows: u64,
    /// Generator seed (use a different one per batch for fresh rows).
    pub seed: u64,
}

/// `fedaqp ingest`: synthesize a batch of rows and append it to one
/// provider of a live federation over the wire's `Ingest` frame,
/// chunked at the frame's row cap ([`fedaqp_net::wire::MAX_INGEST_ROWS`])
/// so any `--rows` count round-trips. Each chunk is atomic server-side;
/// the final ack reports the new data epoch, and the summary notes
/// whether any chunk's staleness crossing triggered a full metadata
/// recompute.
pub fn ingest(args: &IngestArgs) -> Result<String, String> {
    let dataset = match args.dataset.as_str() {
        "adult" => AdultSynth::generate(AdultConfig {
            n_rows: args.rows,
            seed: args.seed,
        })
        .map_err(|e| e.to_string())?,
        "amazon" => AmazonSynth::generate(AmazonConfig {
            n_rows: args.rows,
            seed: args.seed,
        })
        .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown dataset `{other}` (use adult|amazon)")),
    };
    let mut remote =
        RemoteFederation::connect_as(&args.remote, "cli").map_err(|e| e.to_string())?;
    if remote.schema() != &dataset.schema {
        return Err(format!(
            "the served schema does not match dataset `{}` — ingest rows must share the \
             federation's dimensions",
            args.dataset
        ));
    }
    let started = Instant::now();
    let mut accepted = 0u64;
    let mut epoch = 0u64;
    let mut refreshed = false;
    for chunk in dataset.cells.chunks(fedaqp_net::wire::MAX_INGEST_ROWS) {
        let ack = remote
            .ingest(args.provider, chunk)
            .map_err(|e| e.to_string())?;
        accepted += ack.accepted;
        epoch = ack.epoch;
        refreshed |= ack.refreshed;
    }
    Ok(format!(
        "ingested    : {} cells ({} raw rows) into provider {} in {:.2} ms\n\
         epoch       : {}{}\n",
        accepted,
        dataset.raw_rows,
        args.provider,
        started.elapsed().as_secs_f64() * 1e3,
        epoch,
        if refreshed {
            " (staleness policy triggered a full metadata recompute)"
        } else {
            " (incremental tail maintenance only)"
        },
    ))
}

/// Arguments of `fedaqp stats`.
#[derive(Debug, Clone, Default)]
pub struct StatsArgs {
    /// Fetch the snapshot from a served federation over the `Metrics`
    /// frame instead of rendering this process's own registry.
    pub connect: Option<String>,
}

/// `fedaqp stats`: text exposition of the telemetry registry — one
/// `name value` line per sample, sorted by name. With `--connect`, the
/// samples come from the server's process over the wire; without, from
/// this process (useful mainly under test or when embedding the CLI as a
/// library).
pub fn stats(args: &StatsArgs) -> Result<String, String> {
    let Some(addr) = args.connect.as_deref() else {
        let text = obs::global().render_text();
        return Ok(if text.is_empty() {
            "# no telemetry samples in this process\n".into()
        } else {
            text
        });
    };
    let mut remote = RemoteFederation::connect_as(addr, "cli").map_err(|e| e.to_string())?;
    let metrics = remote.metrics().map_err(|e| e.to_string())?;
    if metrics.is_empty() {
        return Ok(format!("# no telemetry samples yet on {addr}\n"));
    }
    let mut out = String::new();
    for m in &metrics {
        out.push_str(&format!("{} {}\n", m.name, obs::fmt_value(m.value)));
    }
    Ok(out)
}

/// The final snapshot `fedaqp serve` / `fedaqp coordinate` print on clean
/// shutdown: queries served, error counts, and the per-identity ξ spend —
/// read from the same process-global registry the wire `Metrics` frame
/// serves, so the summary matches what analysts could already observe.
pub fn shutdown_summary() -> String {
    let samples = obs::global().snapshot();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.value)
    };
    let mut out = format!(
        "shutdown    : {:.0} queries served over {:.0} connections ({:.0} frames), \
         {:.0} error replies\n",
        value(obs::names::SERVER_QUERIES),
        value(obs::names::SERVER_CONNECTIONS),
        value(obs::names::SERVER_FRAMES),
        value(obs::names::SERVER_ERRORS),
    );
    let prefix = format!("{}.", obs::names::SERVER_XI_SPENT);
    for s in &samples {
        if let Some(identity) = s.name.strip_prefix(&prefix) {
            out.push_str(&format!(
                "            : analyst `{identity}` spent ξ = {:.3}\n",
                s.value
            ));
        }
    }
    out
}

/// Arguments of `fedaqp coordinate`.
#[derive(Debug, Clone)]
pub struct CoordinateArgs {
    /// Data directory produced by `fedaqp generate` — read for the
    /// manifest and the schema only; the rows stay with the shards.
    pub data: PathBuf,
    /// Shard server addresses, in shard order (`--shard 0/N` first).
    pub shards: Vec<String>,
    /// Listen address for analysts.
    pub listen: String,
    /// Default per-query ε.
    pub epsilon: f64,
    /// Default per-query δ.
    pub delta: f64,
    /// Per-analyst session budget ξ; `None` serves uncapped.
    pub xi: Option<f64>,
    /// Per-analyst session failure budget ψ (default 1e-2);
    /// refused without `xi`.
    pub psi: Option<f64>,
    /// Hansen–Hurwitz calibration — must match the shards'.
    pub calibration: EstimatorCalibration,
}

/// The flags' defaults: listen on `127.0.0.1:4750` at `(ε, δ) = (1, 1e-3)`,
/// uncapped and EM-calibrated.
impl Default for CoordinateArgs {
    fn default() -> Self {
        Self {
            data: PathBuf::new(),
            shards: Vec::new(),
            listen: "127.0.0.1:4750".into(),
            epsilon: 1.0,
            delta: 1e-3,
            xi: None,
            psi: None,
            calibration: EstimatorCalibration::EmCalibrated,
        }
    }
}

/// A running `fedaqp coordinate` instance: the scatter–gather TCP
/// server. The shard connections live inside the coordinator; shutting
/// the server down releases them.
#[derive(Debug)]
pub struct RunningCoordinator {
    /// The analyst-facing TCP server.
    pub server: FederationServer,
    /// Human-readable startup report.
    pub banner: String,
}

/// `fedaqp coordinate`: federate `--shards` fragment servers behind one
/// analyst-facing endpoint. The coordinator is the single ξ authority —
/// every plan's whole cost is charged here before any fragment is
/// scattered; the shards themselves run budget-unchecked.
pub fn coordinate(args: &CoordinateArgs) -> Result<RunningCoordinator, String> {
    if args.shards.is_empty() {
        return Err("--shards needs at least one address".into());
    }
    let budget = session_budget(args.xi, args.psi)?;
    let manifest = Manifest::load(&args.data)?;
    // The schema comes from the first provider store; its rows are not
    // kept by the coordinator (they are the shards' business).
    let schema = read_store(&args.data, 0)?.schema().clone();
    let config = manifest_config(&manifest, args.epsilon, args.delta, args.calibration);
    let mut backends: Vec<Box<dyn fedaqp_core::ShardBackend>> =
        Vec::with_capacity(args.shards.len());
    for addr in &args.shards {
        let shard = RemoteShard::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        backends.push(Box::new(shard));
    }
    let counts: Vec<String> = backends
        .iter()
        .map(|b| b.n_providers().to_string())
        .collect();
    let federation = fedaqp_core::ShardedFederation::from_backends(config, schema, backends)
        .map_err(|e| e.to_string())?;
    let (options, budget) = serve_budget(budget);
    let server = FederationServer::bind_coordinator(&args.listen, federation, options)
        .map_err(|e| e.to_string())?;
    let banner = format!(
        "coordinating: {} shards ({} providers) on {}\n\
         privacy     : per-query ε = {}, δ = {:e}, local-DP release\n\
         budget      : {} — charged whole here before any scatter; shards run \
         budget-unchecked\n",
        args.shards.len(),
        counts.join("+"),
        server.local_addr(),
        args.epsilon,
        args.delta,
        budget,
    );
    Ok(RunningCoordinator { server, banner })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedaqp_cli_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn generate_args(out: PathBuf) -> GenerateArgs {
        GenerateArgs {
            dataset: "adult".into(),
            rows: 8_000,
            providers: 3,
            capacity: 0,
            seed: 5,
            out,
        }
    }

    #[test]
    fn generate_then_inspect_then_query() {
        let dir = tmp_dir("e2e");
        let msg = generate(&generate_args(dir.clone())).unwrap();
        assert!(msg.contains("3 provider stores"));
        // Manifest and stores exist.
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.providers, 3);
        for i in 0..3 {
            assert!(dir.join(Manifest::store_file(i)).exists());
        }
        // Inspect one store.
        let report = inspect(&dir.join(Manifest::store_file(0))).unwrap();
        assert!(report.contains("clusters"));
        assert!(report.contains("age"));
        // Query through the rebuilt federation.
        let out = query(&QueryArgs {
            baseline: true,
            ..plan_query_args(dir.clone(), "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60")
        })
        .unwrap();
        assert!(out.contains("private"));
        assert!(out.contains("speed-up"));
        assert!(out.contains("EM calibration"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `private :` line of a `query` output — the released bytes.
    fn private_line(out: &str) -> &str {
        out.lines().find(|l| l.starts_with("private")).unwrap()
    }

    fn plan_query_args(data: PathBuf, sql: &str) -> QueryArgs {
        QueryArgs {
            data,
            sql: sql.into(),
            rate: 0.2,
            epsilon: 50.0,
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
        }
    }

    #[test]
    fn plan_shaped_queries_run_locally() {
        let dir = tmp_dir("plan_local");
        generate(&generate_args(dir.clone())).unwrap();

        // GROUP BY via SQL.
        let out = query(&plan_query_args(
            dir.clone(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60 GROUP BY workclass",
        ))
        .unwrap();
        assert!(out.contains("groups      :"), "{out}");
        assert!(out.contains("for the whole plan"), "{out}");

        // GROUP BY via flag, derived statistic via flag.
        let mut args = plan_query_args(dir.clone(), "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60");
        args.group_by = Some("workclass".into());
        args.stat = Some(DerivedStatistic::Average);
        let out = query(&args).unwrap();
        assert!(out.contains("groups      :"), "{out}");

        // AVG via SQL.
        let out = query(&plan_query_args(
            dir.clone(),
            "SELECT AVG(Measure) FROM T WHERE 25 <= age <= 60",
        ))
        .unwrap();
        assert!(out.contains("private     :"), "{out}");

        // Extreme via flag (no SQL needed).
        let mut args = plan_query_args(dir.clone(), "");
        args.extreme = Some((Extreme::Max, "age".into()));
        let out = query(&args).unwrap();
        assert!(out.contains("private     :"), "{out}");

        // Extreme via SQL.
        let out = query(&plan_query_args(dir.clone(), "SELECT MIN(age) FROM T")).unwrap();
        assert!(out.contains("private     :"), "{out}");

        // Bad combinations fail with one-line guidance.
        let mut args = plan_query_args(dir.clone(), "SELECT MIN(age) FROM T");
        args.extreme = Some((Extreme::Max, "age".into()));
        assert!(
            query(&args).unwrap_err().contains("--extreme"),
            "flag + SQL"
        );
        let mut args = plan_query_args(dir.clone(), "SELECT COUNT(*) FROM T WHERE age >= 20");
        args.group_by = Some("bogus".into());
        assert!(query(&args).unwrap_err().contains("bogus"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_prints_the_optimizer_decisions_without_running() {
        let dir = tmp_dir("explain_local");
        generate(&generate_args(dir.clone())).unwrap();

        // Via the flag.
        let mut args = plan_query_args(
            dir.clone(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60 GROUP BY workclass",
        );
        args.explain = true;
        let out = query(&args).unwrap();
        assert!(out.contains("optimizer   :"), "{out}");
        assert!(out.contains("pruned      :"), "{out}");
        assert!(
            !out.contains("groups      :"),
            "explain must not run: {out}"
        );

        // Via an EXPLAIN prefix in the SQL itself.
        let out = query(&plan_query_args(
            dir.clone(),
            "EXPLAIN SELECT VAR(Measure) FROM T WHERE 25 <= age <= 60",
        ))
        .unwrap();
        assert!(out.contains("optimizer   :"), "{out}");
        assert!(
            out.contains("reuses"),
            "VAR second moment reuses COUNT: {out}"
        );
        assert!(
            !out.contains("private     :"),
            "explain must not run: {out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_stat_and_extreme_vocabulary() {
        assert_eq!(parse_stat("avg"), Ok(DerivedStatistic::Average));
        assert_eq!(parse_stat("var"), Ok(DerivedStatistic::Variance));
        assert_eq!(parse_stat("std"), Ok(DerivedStatistic::StdDev));
        assert!(parse_stat("median").unwrap_err().contains("avg|var|std"));
        assert_eq!(parse_extreme("min:age"), Ok((Extreme::Min, "age".into())));
        assert_eq!(
            parse_extreme("max:hours"),
            Ok((Extreme::Max, "hours".into()))
        );
        assert!(parse_extreme("max").unwrap_err().contains("min:DIM"));
        assert!(parse_extreme("top:age").unwrap_err().contains("min|max"));
        assert!(parse_extreme("min:").is_err());
    }

    #[test]
    fn parse_calibration_accepts_both_modes() {
        assert_eq!(
            parse_calibration("em"),
            Ok(EstimatorCalibration::EmCalibrated)
        );
        assert_eq!(parse_calibration("pps"), Ok(EstimatorCalibration::PpsEq3));
        assert!(parse_calibration("exact").unwrap_err().contains("em|pps"));
    }

    #[test]
    fn query_honours_pps_calibration() {
        let dir = tmp_dir("pps_cal");
        generate(&GenerateArgs {
            rows: 4_000,
            ..generate_args(dir.clone())
        })
        .unwrap();
        let out = query(&QueryArgs {
            calibration: EstimatorCalibration::PpsEq3,
            ..plan_query_args(dir.clone(), "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60")
        })
        .unwrap();
        assert!(out.contains("PPS (Eq. 3) calibration"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let mut args = generate_args(tmp_dir("bad"));
        args.dataset = "tpch".into();
        assert!(generate(&args).unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn query_fails_cleanly_without_data() {
        let err = query(&QueryArgs {
            rate: 0.1,
            epsilon: 1.0,
            ..plan_query_args(
                tmp_dir("missing"),
                "SELECT COUNT(*) FROM T WHERE 1 <= age <= 2",
            )
        })
        .unwrap_err();
        assert!(err.contains("manifest"));
    }

    #[test]
    fn query_reports_sql_errors() {
        let dir = tmp_dir("sqlerr");
        generate(&GenerateArgs {
            rows: 2_000,
            ..generate_args(dir.clone())
        })
        .unwrap();
        let err = query(&QueryArgs {
            rate: 0.1,
            epsilon: 1.0,
            ..plan_query_args(dir.clone(), "SELECT COUNT(*) FROM T WHERE 1 <= bogus <= 2")
        })
        .unwrap_err();
        assert!(err.contains("bogus"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn batch_args(dir: PathBuf, queries: PathBuf) -> BatchArgs {
        BatchArgs {
            data: dir,
            queries,
            rate: 0.2,
            epsilon: 5.0,
            delta: 1e-3,
            analysts: 4,
            xi: None,
            psi: None,
            smc: false,
            calibration: EstimatorCalibration::EmCalibrated,
            remote: None,
        }
    }

    #[test]
    fn batch_answers_a_query_file_concurrently() {
        let dir = tmp_dir("batch");
        generate(&generate_args(dir.clone())).unwrap();
        let qfile = dir.join("queries.sql");
        std::fs::write(
            &qfile,
            "# comment line\n\
             SELECT COUNT(*) FROM T WHERE 25 <= age <= 60\n\
             \n\
             SELECT SUM(Measure) FROM T WHERE 20 <= age <= 70\n\
             SELECT COUNT(*) FROM T WHERE 30 <= age <= 50\n",
        )
        .unwrap();
        let out = batch(&batch_args(dir.clone(), qfile)).unwrap();
        assert!(out.contains("batch       : 3 queries, 4 analysts"));
        assert!(out.contains("[0] SELECT COUNT"));
        assert!(out.contains("[2] SELECT COUNT"));
        assert!(out.contains("3/3 answered"));
        assert!(out.contains("queries/sec"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_session_budget_caps_answers() {
        let dir = tmp_dir("batch_budget");
        generate(&generate_args(dir.clone())).unwrap();
        let qfile = dir.join("queries.sql");
        // 4 identical queries at ε = 5 under ξ = 10: exactly 2 fit.
        let sql = "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60\n".repeat(4);
        std::fs::write(&qfile, sql).unwrap();
        let mut args = batch_args(dir.clone(), qfile);
        args.xi = Some(10.0);
        args.psi = Some(1e-2);
        let out = batch(&args).unwrap();
        assert!(out.contains("2/4 answered"), "{out}");
        assert!(out.contains("spent (ε = 10.000"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let dir = tmp_dir("batch_bad");
        generate(&generate_args(dir.clone())).unwrap();
        let qfile = dir.join("queries.sql");
        std::fs::write(&qfile, "SELECT COUNT(*) FROM T WHERE 1 <= bogus <= 2\n").unwrap();
        let err = batch(&batch_args(dir.clone(), qfile.clone())).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::write(&qfile, "# only comments\n").unwrap();
        assert!(batch(&batch_args(dir.clone(), qfile.clone()))
            .unwrap_err()
            .contains("no queries"));
        let mut args = batch_args(dir.clone(), qfile);
        args.analysts = 0;
        assert!(batch(&args).unwrap_err().contains("analyst"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn serve_args(data: PathBuf) -> ServeArgs {
        ServeArgs {
            data,
            listen: "127.0.0.1:0".into(),
            epsilon: 5.0,
            ..ServeArgs::default()
        }
    }

    #[test]
    fn serve_then_query_and_batch_remotely() {
        let dir = tmp_dir("serve");
        generate(&generate_args(dir.clone())).unwrap();
        let running = serve(&serve_args(dir.clone())).unwrap();
        assert!(running.banner.contains("serving"));
        let addr = running.server.local_addr().to_string();

        // Remote query over the wire.
        let out = query(&QueryArgs {
            epsilon: 5.0,
            remote: Some(addr.clone()),
            ..plan_query_args(
                PathBuf::new(),
                "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60",
            )
        })
        .unwrap();
        assert!(out.contains("remote"), "{out}");
        assert!(out.contains("private"), "{out}");
        assert!(out.contains("round trip"), "{out}");

        // A plan-shaped query travels as one `Plan` frame; ε/δ come from the
        // server's advertised defaults.
        let mut plan_args = plan_query_args(
            PathBuf::new(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60 GROUP BY workclass",
        );
        plan_args.epsilon = 1.0; // ignored: set above by the server
        plan_args.remote = Some(addr.clone());
        let out = query(&plan_args).unwrap();
        assert!(
            out.contains(&format!("wire v{}", fedaqp_net::wire::VERSION)),
            "{out}"
        );
        assert!(out.contains("groups      :"), "{out}");
        assert!(out.contains("for the whole plan"), "{out}");

        // EXPLAIN travels as one `Explain` frame and runs nothing.
        let mut explain_args = plan_args.clone();
        explain_args.explain = true;
        let out = query(&explain_args).unwrap();
        assert!(out.contains("optimizer   :"), "{out}");
        assert!(
            out.contains(&format!("wire v{}", fedaqp_net::wire::VERSION)),
            "{out}"
        );
        assert!(
            !out.contains("groups      :"),
            "explain must not run: {out}"
        );

        // Remote batch with several analyst connections.
        let qfile = dir.join("queries.sql");
        std::fs::write(
            &qfile,
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60\n\
             SELECT SUM(Measure) FROM T WHERE 20 <= age <= 70\n\
             SELECT COUNT(*) FROM T WHERE 30 <= age <= 50\n",
        )
        .unwrap();
        let mut args = batch_args(dir.clone(), qfile);
        args.data = PathBuf::new();
        args.remote = Some(addr.clone());
        let out = batch(&args).unwrap();
        assert!(out.contains(&format!("over {addr}")), "{out}");
        assert!(out.contains("3/3 answered"), "{out}");

        running.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `fedaqp stats` three ways after a served query: the local
    /// exposition (this test shares the server's process, so its registry
    /// holds the served counters), the remote exposition over the wire's
    /// `Metrics` frame, and the shutdown summary — all showing the same
    /// live counters.
    #[test]
    fn stats_renders_local_and_remote_snapshots() {
        let dir = tmp_dir("stats");
        generate(&generate_args(dir.clone())).unwrap();
        let mut serve_args = serve_args(dir.clone());
        serve_args.xi = Some(50.0);
        let running = serve(&serve_args).unwrap();
        let addr = running.server.local_addr().to_string();

        // Serve one query so the counters are live.
        let mut args = plan_query_args(
            PathBuf::new(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60",
        );
        args.remote = Some(addr.clone());
        query(&args).unwrap();

        let local = stats(&StatsArgs { connect: None }).unwrap();
        assert!(local.contains("fedaqp_server_queries_total"), "{local}");

        let remote = stats(&StatsArgs {
            connect: Some(addr),
        })
        .unwrap();
        assert!(remote.contains("fedaqp_server_queries_total"), "{remote}");
        assert!(
            remote.contains("fedaqp_engine_phase_summary_seconds_count"),
            "{remote}"
        );

        let summary = shutdown_summary();
        assert!(summary.contains("queries served"), "{summary}");
        assert!(summary.contains("analyst `cli`"), "{summary}");

        running.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_errors_are_one_line_strings() {
        // Nothing is listening here: connect errors must surface as clean
        // one-line strings, not panics.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = query(&QueryArgs {
            epsilon: 1.0,
            remote: Some(format!("127.0.0.1:{port}")),
            ..plan_query_args(PathBuf::new(), "SELECT COUNT(*) FROM T WHERE 1 <= age <= 2")
        })
        .unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        assert!(!err.contains('\n'), "one line, no backtrace: {err}");

        // --baseline needs the local exact oracle.
        let err = query(&QueryArgs {
            epsilon: 1.0,
            baseline: true,
            remote: Some("127.0.0.1:1".into()),
            ..plan_query_args(PathBuf::new(), "SELECT COUNT(*) FROM T WHERE 1 <= age <= 2")
        })
        .unwrap_err();
        assert!(err.contains("--baseline"), "{err}");

        // --xi with --remote is a serve-side concern.
        let mut args = batch_args(PathBuf::new(), PathBuf::from("/nonexistent.sql"));
        args.remote = Some("127.0.0.1:1".into());
        args.xi = Some(1.0);
        let err = batch(&args).unwrap_err();
        assert!(err.contains("server-side"), "{err}");
    }

    #[test]
    fn serve_fails_cleanly_on_bad_inputs() {
        // Missing data directory.
        let err = serve(&serve_args(tmp_dir("serve_missing"))).unwrap_err();
        assert!(err.contains("manifest"), "{err}");

        // Unbindable listen address.
        let dir = tmp_dir("serve_badaddr");
        generate(&generate_args(dir.clone())).unwrap();
        let mut args = serve_args(dir.clone());
        args.listen = "256.0.0.1:1".into();
        let err = serve(&args).unwrap_err();
        assert!(err.contains("cannot listen"), "{err}");
        assert!(!err.contains('\n'), "one line, no backtrace: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--smc` reaches the SMC release: the aggregator adds one noise to
    /// the oblivious sum, so the seeded release differs from the local-DP
    /// release of the same query on the same data.
    #[test]
    fn smc_mode_round_trips() {
        let dir = tmp_dir("smc");
        generate(&GenerateArgs {
            rows: 4_000,
            ..generate_args(dir.clone())
        })
        .unwrap();
        let mut args = plan_query_args(
            dir.clone(),
            "SELECT SUM(Measure) FROM T WHERE 20 <= age <= 70",
        );
        args.smc = true;
        let smc = query(&args).unwrap();
        args.smc = false;
        let local_dp = query(&args).unwrap();
        assert_ne!(private_line(&smc), private_line(&local_dp), "{smc}");
        assert!(smc.contains("for the whole plan"), "{smc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--online K` on local data: every round, the
    /// sample-fraction-weighted combination, and the exact oracle — all
    /// in one process, nothing over a wire.
    #[test]
    fn online_queries_run_locally() {
        let dir = tmp_dir("online_local");
        generate(&generate_args(dir.clone())).unwrap();
        let mut args = plan_query_args(dir.clone(), "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60");
        args.online = Some(3);
        let out = query(&args).unwrap();
        assert!(out.contains("round  1/3"), "{out}");
        assert!(out.contains("round  3/3"), "{out}");
        assert!(out.contains("combined    :"), "{out}");
        assert!(out.contains("exact       :"), "{out}");
        assert!(out.contains("for the whole plan"), "{out}");

        // EXPLAIN of an online plan runs nothing.
        args.explain = true;
        let out = query(&args).unwrap();
        assert!(out.contains("optimizer   :"), "{out}");
        assert!(!out.contains("combined"), "explain must not run: {out}");

        // --online shapes scalar queries only.
        let mut args = plan_query_args(
            dir.clone(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60 GROUP BY workclass",
        );
        args.online = Some(3);
        assert!(query(&args).unwrap_err().contains("--online"), "group-by");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The live walkthrough, end to end through the CLI ops: `serve
    /// --live`, an online query pushed over the wire, an `ingest` batch
    /// that bumps the data epoch, and a plain query over the grown
    /// federation.
    #[test]
    fn live_serve_answers_online_queries_and_ingest() {
        let dir = tmp_dir("live_serve");
        generate(&generate_args(dir.clone())).unwrap();
        let mut args = serve_args(dir.clone());
        args.live = true;
        args.epsilon = 5.0;
        let running = serve(&args).unwrap();
        assert!(running.banner.contains("(live)"), "{}", running.banner);
        assert!(
            running.banner.contains("`fedaqp ingest` enabled"),
            "{}",
            running.banner
        );
        let addr = running.server.local_addr().to_string();

        // An online query over the wire: snapshots are pushed by the
        // server and the whole plan's cost is charged up front.
        let mut qargs = plan_query_args(
            PathBuf::new(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60",
        );
        qargs.remote = Some(addr.clone());
        qargs.online = Some(3);
        let out = query(&qargs).unwrap();
        assert!(out.contains("(final round)"), "{out}");
        assert!(out.contains("for the whole plan"), "{out}");

        // Ingest a batch; the epoch bumps and the ack says whether the
        // staleness policy refreshed.
        let out = ingest(&IngestArgs {
            remote: addr.clone(),
            provider: 0,
            dataset: "adult".into(),
            rows: 500,
            seed: 9,
        })
        .unwrap();
        assert!(out.contains("ingested    :"), "{out}");
        assert!(out.contains("epoch       : 1"), "{out}");

        // The grown federation still answers plain queries.
        let mut qargs = plan_query_args(
            PathBuf::new(),
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60",
        );
        qargs.remote = Some(addr.clone());
        let out = query(&qargs).unwrap();
        assert!(out.contains("private"), "{out}");

        // Ingest into a frozen (non-live) server is a one-line refusal.
        let frozen = serve(&serve_args(dir.clone())).unwrap();
        let err = ingest(&IngestArgs {
            remote: frozen.server.local_addr().to_string(),
            provider: 0,
            dataset: "adult".into(),
            rows: 100,
            seed: 9,
        })
        .unwrap_err();
        assert!(err.contains("live-mode"), "{err}");

        // A mismatched dataset is caught client-side before any frame.
        let err = ingest(&IngestArgs {
            remote: addr,
            provider: 0,
            dataset: "amazon".into(),
            rows: 100,
            seed: 9,
        })
        .unwrap_err();
        assert!(err.contains("schema"), "{err}");

        frozen.shutdown();
        running.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_mode_rejects_shard() {
        let mut args = serve_args(PathBuf::from("/nonexistent"));
        args.live = true;
        args.shard = Some((0, 2));
        assert!(serve(&args).unwrap_err().contains("--live"), "live+shard");
    }

    #[test]
    fn parse_shard_slice_vocabulary() {
        assert_eq!(parse_shard_slice("0/2"), Ok((0, 2)));
        assert_eq!(parse_shard_slice("3/4"), Ok((3, 4)));
        assert!(parse_shard_slice("2").unwrap_err().contains("I/N"));
        assert!(parse_shard_slice("2/2").unwrap_err().contains("I < N"));
        assert!(parse_shard_slice("0/0").unwrap_err().contains("I < N"));
        assert!(parse_shard_slice("x/2").is_err());
    }

    #[test]
    fn shard_slices_are_contiguous_and_cover_every_provider() {
        for providers in 1..=7 {
            for count in 1..=providers {
                let mut next = 0;
                for index in 0..count {
                    let (offset, len) = shard_slice(providers, index, count).unwrap();
                    assert_eq!(offset, next, "contiguous");
                    assert!(len > 0, "no empty shard");
                    next = offset + len;
                }
                assert_eq!(next, providers, "every provider in exactly one shard");
            }
        }
        assert!(shard_slice(2, 0, 3).unwrap_err().contains("cannot split"));
    }

    #[test]
    fn shard_mode_rejects_budget_and_smc_flags() {
        let mut args = serve_args(PathBuf::from("/nonexistent"));
        args.shard = Some((0, 2));
        args.xi = Some(5.0);
        assert!(serve(&args).unwrap_err().contains("coordinator"), "xi");
        let mut args = serve_args(PathBuf::from("/nonexistent"));
        args.shard = Some((0, 2));
        args.smc = true;
        assert!(serve(&args).unwrap_err().contains("not shardable"), "smc");
    }

    #[test]
    fn max_stale_rows_needs_live() {
        let mut args = serve_args(PathBuf::from("/nonexistent"));
        args.max_stale_rows = Some(100);
        let err = serve(&args).unwrap_err();
        assert!(
            err.contains("--max-stale-rows") && err.contains("--live"),
            "{err}"
        );
    }

    /// The README's 2-shard walkthrough, end to end: two `serve --shard`
    /// servers over one generated data directory, a `coordinate` server
    /// federating them, and `query --remote` against the coordinator —
    /// answering byte-identically to a single unsharded `serve` of the
    /// same directory.
    #[test]
    fn shard_grid_answers_byte_identical_to_single_server() {
        let dir = tmp_dir("shard_grid");
        generate(&GenerateArgs {
            providers: 4,
            ..generate_args(dir.clone())
        })
        .unwrap();

        let mut shard0_args = serve_args(dir.clone());
        shard0_args.shard = Some((0, 2));
        let shard0 = serve(&shard0_args).unwrap();
        assert!(
            shard0.banner.contains("shard       : 0 of 2"),
            "{}",
            shard0.banner
        );
        assert!(
            shard0
                .banner
                .contains(&format!("wire v{}", fedaqp_net::wire::VERSION)),
            "{}",
            shard0.banner
        );
        let mut shard1_args = serve_args(dir.clone());
        shard1_args.shard = Some((1, 2));
        let shard1 = serve(&shard1_args).unwrap();
        assert!(shard1.banner.contains("lanes 2..4"), "{}", shard1.banner);

        let running = coordinate(&coordinate_args(
            dir.clone(),
            vec![
                shard0.server.local_addr().to_string(),
                shard1.server.local_addr().to_string(),
            ],
        ))
        .unwrap();
        assert!(
            running
                .banner
                .contains("coordinating: 2 shards (2+2 providers)"),
            "{}",
            running.banner
        );

        let single = serve(&serve_args(dir.clone())).unwrap();

        let remote_query = |addr: String| {
            let mut args = plan_query_args(
                PathBuf::new(),
                "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60",
            );
            args.remote = Some(addr);
            query(&args).unwrap()
        };
        let sharded = remote_query(running.server.local_addr().to_string());
        let unsharded = remote_query(single.server.local_addr().to_string());
        assert_eq!(
            private_line(&sharded),
            private_line(&unsharded),
            "byte-identical"
        );

        running.server.shutdown();
        single.shutdown();
        shard0.shutdown();
        shard1.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lines a local and a `--remote` answer share: all but the
    /// `remote`/`latency`/`budget` lines and the local oracle lines.
    fn shared_lines(out: &str) -> Vec<&str> {
        const OWN: [&str; 6] = [
            "remote", "latency", "budget", "exact", "combined", "baseline",
        ];
        out.lines()
            .filter(|l| !OWN.iter().any(|own| l.starts_with(own)))
            .collect()
    }

    /// The local/remote half of the determinism contract, at the CLI: for
    /// one seeded data directory, `query --data D` and `query --remote`
    /// against `serve --data D` run the same engine job and print it
    /// through the same renderer — the same lines in the same order for a
    /// scalar, a derived statistic, a group-by and an extreme, and the same
    /// rounds for `--online 3`. Every plan reads a range no earlier one
    /// read, so each is occurrence 0 on the long-lived server as in the
    /// fresh local scope.
    #[test]
    fn local_query_prints_the_bytes_a_served_query_prints() {
        let dir = tmp_dir("local_vs_remote");
        generate(&generate_args(dir.clone())).unwrap();
        let single = serve(&serve_args(dir.clone())).unwrap();
        let addr = single.server.local_addr().to_string();
        let sql = "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60";

        // Same (ε, δ) on both sides: the server advertises its own.
        let both = |sql: &str, extreme: Option<(Extreme, String)>| {
            let mut local = plan_query_args(dir.clone(), sql);
            local.epsilon = 5.0;
            local.extreme = extreme;
            let mut remote = local.clone();
            remote.data = PathBuf::new();
            remote.remote = Some(addr.clone());
            (query(&local).unwrap(), query(&remote).unwrap())
        };
        for (sql, extreme, result) in [
            (sql, None, "private     :"),
            (
                "SELECT VAR(Measure) FROM T WHERE 30 <= age <= 50",
                None,
                "private     :",
            ),
            (
                "SELECT COUNT(*) FROM T WHERE 20 <= age <= 70 GROUP BY workclass",
                None,
                "groups      :",
            ),
            ("", Some((Extreme::Max, "age".to_owned())), "private     :"),
        ] {
            let (local, remote) = both(sql, extreme);
            assert!(local.contains(result), "{local}");
            assert_eq!(shared_lines(&local), shared_lines(&remote), "{sql}");
        }

        // Online: the remote side prints rounds as frames arrive, so the
        // same conversation is replayed here with a collecting hook.
        let mut local = plan_query_args(dir.clone(), sql);
        local.epsilon = 5.0;
        local.online = Some(3);
        let local_out = query(&local).unwrap();
        let local_rounds: Vec<&str> = local_out
            .lines()
            .filter(|l| l.starts_with("round"))
            .collect();
        let mut connection = RemoteFederation::connect_as(&addr, "cli").unwrap();
        let parsed = parse_sql(connection.schema(), sql).unwrap();
        let mut remote_rounds = Vec::new();
        connection
            .run_online_plan(&parsed, 0.2, 5.0, 1e-3, 3, |s| {
                remote_rounds.push(round_line(s))
            })
            .unwrap();
        assert_eq!(local_rounds.len(), 3);
        assert_eq!(local_rounds, remote_rounds, "online: local vs --remote");

        single.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serving the decoded stores as clustered on disk answers exactly as
    /// the old load path did — flatten each store back to rows and let
    /// `Federation::build` re-cluster them — kept here as the oracle:
    /// `generate` and the served configuration both cluster by dimension 0
    /// at the manifest's capacity, so the clusters, and every seeded
    /// release, are the same.
    #[test]
    fn served_stores_answer_as_their_reclustered_rows() {
        let dir = tmp_dir("from_store");
        generate(&generate_args(dir.clone())).unwrap();
        let calibration = EstimatorCalibration::EmCalibrated;
        let served = load_federation(&dir, 5.0, 1e-3, false, calibration, None).unwrap();
        let partitions = (0..served.config().n_providers)
            .map(|i| {
                let store = read_store(&dir, i).unwrap();
                store.clusters().iter().flat_map(|c| c.rows()).collect()
            })
            .collect();
        let rebuilt =
            Federation::build(served.config().clone(), served.schema().clone(), partitions)
                .unwrap();
        for (a, b) in served.providers().iter().zip(rebuilt.providers()) {
            assert_eq!(encode_store(a.store()), encode_store(b.store()));
        }
        let params = PlanParams {
            sampling_rate: 0.2,
            epsilon: 5.0,
            delta: 1e-3,
            threshold: 0.0,
        };
        for sql in [
            "SELECT COUNT(*) FROM T WHERE 25 <= age <= 60",
            "SELECT SUM(Measure) FROM T WHERE 20 <= age <= 70 GROUP BY workclass",
        ] {
            let (plan, _) = parse_sql_statement(served.schema(), sql, &params).unwrap();
            let a = served.with_engine(|e| e.run_plan(&plan)).unwrap();
            let b = rebuilt.with_engine(|e| e.run_plan(&plan)).unwrap();
            assert_eq!((a.result, a.cost), (b.result, b.cost), "{sql}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Nothing re-clusters a decoded store any more, so a data directory
    /// whose stores disagree — another capacity, another schema — is
    /// refused with one line instead of being silently re-shaped.
    #[test]
    fn load_federation_refuses_mismatched_stores() {
        let dir = tmp_dir("mismatch");
        generate(&generate_args(dir.clone())).unwrap();
        let load = || {
            load_federation(
                &dir,
                5.0,
                1e-3,
                false,
                EstimatorCalibration::EmCalibrated,
                None,
            )
        };
        let path = dir.join(Manifest::store_file(1));
        let store = read_store(&dir, 1).unwrap();

        // The same rows, clustered at another capacity.
        let rows = store.clusters().iter().flat_map(|c| c.rows()).collect();
        let other = ClusterStore::build(
            store.schema().clone(),
            rows,
            store.capacity() + 1,
            PartitionStrategy::SortedBy(0),
        )
        .unwrap();
        std::fs::write(&path, encode_store(&other)).unwrap();
        let err = load().unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");

        // Another dataset's schema at the manifest's capacity.
        let amazon = tmp_dir("mismatch_amazon");
        generate(&GenerateArgs {
            dataset: "amazon".into(),
            rows: 2_000,
            providers: 1,
            capacity: store.capacity(),
            ..generate_args(amazon.clone())
        })
        .unwrap();
        std::fs::copy(amazon.join(Manifest::store_file(0)), &path).unwrap();
        let err = load().unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&amazon).ok();
    }

    /// `--psi` without `--xi` would cap nothing: every subcommand that
    /// takes a session budget refuses it in one line.
    #[test]
    fn batch_refuses_psi_without_xi() {
        let mut args = batch_args(PathBuf::from("/nonexistent"), PathBuf::new());
        args.psi = Some(0.1);
        let err = batch(&args).unwrap_err();
        assert!(err.contains("--psi") && err.contains("--xi"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn serve_refuses_psi_without_xi() {
        let mut args = serve_args(PathBuf::from("/nonexistent"));
        args.psi = Some(0.1);
        let err = serve(&args).unwrap_err();
        assert!(err.contains("--psi") && err.contains("--xi"), "{err}");
    }

    fn coordinate_args(data: PathBuf, shards: Vec<String>) -> CoordinateArgs {
        CoordinateArgs {
            data,
            shards,
            listen: "127.0.0.1:0".into(),
            epsilon: 5.0,
            ..CoordinateArgs::default()
        }
    }

    #[test]
    fn coordinate_refuses_psi_without_xi() {
        let err = coordinate(&CoordinateArgs {
            psi: Some(0.1),
            ..coordinate_args(PathBuf::from("/nonexistent"), vec!["127.0.0.1:1".into()])
        })
        .unwrap_err();
        assert!(err.contains("--psi") && err.contains("--xi"), "{err}");
    }

    #[test]
    fn coordinate_fails_cleanly_on_bad_inputs() {
        // No shards.
        let err = coordinate(&coordinate_args(PathBuf::from("/nonexistent"), vec![])).unwrap_err();
        assert!(err.contains("at least one"), "{err}");

        // A dead shard address is a one-line connect error.
        let dir = tmp_dir("coordinate_dead");
        generate(&generate_args(dir.clone())).unwrap();
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = coordinate(&coordinate_args(
            dir.clone(),
            vec![format!("127.0.0.1:{port}")],
        ))
        .unwrap_err();
        assert!(err.contains(&port.to_string()), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
