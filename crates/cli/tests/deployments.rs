//! The determinism contract as one table: a seeded plan corpus runs
//! through every deployment row, and each row must release the scoped
//! engine's bytes (every plan's result and cost, every EXPLAIN) under
//! both seeds. A new deployment is one row of `matrix!`; a new plan kind
//! is one entry of `STATEMENTS` (or of `corpus`). A failure names the
//! row, the seed and, for a cell, the corpus entry.
//!
//! The `telemetry_off` row is the only code in this binary that toggles
//! `fedaqp_obs::set_enabled`, and no test here reads metrics, so the
//! toggle cannot race a sibling's assertion.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use fedaqp_cli::{coordinate, render_answer, serve, write_data_dir, CoordinateArgs, Manifest};
use fedaqp_cli::{RunningServer, ServeArgs};
use fedaqp_core::ShardedFederation;
use fedaqp_core::{EstimatorCalibration, Federation, FederationConfig, FederationEngine};
use fedaqp_core::{LiveFederation, PendingPlan, PlanAnswer, PlanExplanation, RefreshPolicy};
use fedaqp_model::{parse_sql, parse_sql_plan, Dimension, Domain, PlanParams, QueryPlan, Row};
use fedaqp_net::{FederationServer, LoopbackServer, RemoteFederation, ServeOptions};

const SEEDS: [u64; 2] = [0xFEDA, 7];
const CAPACITY: usize = 50;
/// Run at `PlanParams::default()`, which is also what `fedaqp query
/// --remote` asks of the servers here. No two statements read the same
/// ranges, so each is occurrence 0 on the first pass and occurrence 1 on
/// the second. The second one prunes three providers on metadata alone.
const STATEMENTS: [&str; 9] = [
    "SELECT COUNT(*) FROM T WHERE 100 <= x <= 900",
    "SELECT COUNT(*) FROM T WHERE 0 <= x <= 240",
    "SELECT AVG(Measure) FROM T WHERE 50 <= x <= 800",
    "SELECT VAR(Measure) FROM T WHERE 60 <= x <= 810",
    "SELECT STD(Measure) FROM T WHERE 70 <= x <= 820",
    "SELECT COUNT(*) FROM T WHERE 0 <= x <= 999 GROUP BY cat",
    "SELECT AVG(Measure) FROM T WHERE 10 <= x <= 990 GROUP BY cat",
    "SELECT MIN(x) FROM T",
    "SELECT MAX(x) FROM T",
];
/// Answered online in 1 and in 4 rounds; neither scalar is in the corpus.
const ONLINE: [&str; 2] = [
    "SELECT COUNT(*) FROM T WHERE 200 <= x <= 700",
    "SELECT COUNT(*) FROM T WHERE 150 <= x <= 750",
];
/// The statements the `fedaqp_binary` row runs: a scalar, an AVG, a GROUP BY.
const BINARY: [usize; 3] = [0, 2, 5];

/// Provider `p` holds `x ∈ [250p, 250p + 249]`; `cat` has five values.
fn partitions() -> Vec<Vec<Row>> {
    let row = |p: i64, i: i64| Row::cell(vec![p * 250 + i * 7 % 250, i % 5], 1 + i as u64 % 3);
    let provider = |p| (0..1000).map(|i| row(p, i)).collect();
    (0..4).map(provider).collect()
}

fn schema() -> fedaqp_model::Schema {
    let dim = |name, max| Dimension::new(name, Domain::new(0, max).unwrap());
    fedaqp_model::Schema::new(vec![dim("x", 999), dim("cat", 4)]).unwrap()
}

/// Configured as `fedaqp serve` configures the fixture's data directory.
fn federation(seed: u64) -> Federation {
    let mut config = FederationConfig::paper_default(CAPACITY);
    config.seed = seed;
    Federation::build(config, schema(), partitions()).unwrap()
}

/// The fixture as a data directory, for the rows the CLI serves.
fn data_dir(seed: u64) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("fedaqp_matrix_{}_{n}", std::process::id()));
    let manifest = format!("dataset=matrix\nproviders=4\ncapacity={CAPACITY}\nseed={seed}\nrows=0");
    let manifest = Manifest::parse(&manifest).unwrap();
    write_data_dir(&dir, &manifest, &schema(), partitions()).unwrap();
    dir
}

/// `fedaqp serve` of a data directory on an ephemeral port.
fn cli_serve(dir: &Path, shape: impl FnOnce(&mut ServeArgs)) -> RunningServer {
    let mut args = ServeArgs::default();
    (args.data, args.listen) = (dir.to_owned(), "127.0.0.1:0".into());
    shape(&mut args);
    serve(&args).unwrap()
}

fn addr(server: &FederationServer) -> String {
    server.local_addr().to_string()
}

/// `(label, plan)`.
type Entry = (String, QueryPlan);

/// Every plan kind, then all of it again.
fn corpus() -> Vec<Entry> {
    let p = PlanParams::default();
    let mut plans = vec![];
    for sql in STATEMENTS {
        plans.push((sql.to_owned(), parse_sql_plan(&schema(), sql, &p).unwrap()));
    }
    for (rounds, sql) in [1, 4].into_iter().zip(ONLINE) {
        let online = QueryPlan::Online {
            query: parse_sql(&schema(), sql).unwrap(),
            sampling_rate: p.sampling_rate,
            epsilon: p.epsilon,
            delta: p.delta,
            rounds,
        };
        plans.push((format!("{rounds}-round ONLINE {sql}"), online));
    }
    let mut entries = Vec::new();
    for pass in 1..=2 {
        for (label, plan) in &plans {
            entries.push((format!("pass {pass}, {label}"), plan.clone()));
        }
    }
    entries
}

#[derive(Debug, PartialEq)]
enum Outcome {
    /// The plan's EXPLAIN (none for an online plan: the wire cannot
    /// explain one) and its answer, timings zeroed.
    Released(Option<PlanExplanation>, PlanAnswer),
    /// What the binary printed.
    Printed(String),
}

fn released(explained: Option<PlanExplanation>, mut answer: PlanAnswer) -> Outcome {
    answer.timings = Default::default();
    Outcome::Released(explained, answer)
}

fn explainable(plan: &QueryPlan) -> bool {
    !matches!(plan, QueryPlan::Online { .. })
}

/// `(corpus index, outcome)`: what one row released.
type Cells = Vec<(usize, Outcome)>;

/// Runs the corpus, in order, through one deployment's door.
fn through(mut door: impl FnMut(&QueryPlan) -> Outcome) -> Cells {
    let answer = |(i, (_, plan)): (usize, Entry)| (i, door(&plan));
    corpus().into_iter().enumerate().map(answer).collect()
}

/// The door of anything with `explain_plan` and `run_plan`: explain the
/// plan, then run it.
macro_rules! door {
    ($front:expr) => {
        |plan: &QueryPlan| {
            let explained = explainable(plan).then(|| $front.explain_plan(plan).unwrap());
            released(explained, $front.run_plan(plan).unwrap())
        }
    };
}

/// A remote door. Online plans take the push conversation; its hook sees
/// every round, in order, as it is released.
fn remote(client: &mut RemoteFederation) -> Cells {
    // The handshake advertises the fixture's schema and provider count.
    assert_eq!((client.schema(), client.n_providers()), (&schema(), 4));
    through(|plan| {
        let QueryPlan::Online { query, rounds, .. } = plan else {
            return door!(client)(plan);
        };
        let (p, rounds, mut pushed) = (PlanParams::default(), *rounds as u32, vec![]);
        let hook = |s: &_| pushed.push(*s);
        let answer =
            client.run_online_plan(query, p.sampling_rate, p.epsilon, p.delta, rounds, hook);
        let answer = answer.unwrap();
        let mut in_order = pushed.iter().enumerate();
        let in_order = in_order.all(|(i, s)| (s.round, s.rounds) == (i as u64 + 1, rounds.into()));
        let released_as_pushed = in_order && answer.snapshots() == Some(&pushed[..]);
        assert!(released_as_pushed, "{plan:?}: {pushed:?}");
        released(None, answer)
    })
}

fn scoped(seed: u64) -> Cells {
    federation(seed).with_engine(|engine| through(door!(engine)))
}

/// The reference row, and the corpus facts it pins: a repeat draws fresh
/// noise, and one online round is the one-shot scalar.
fn reference(seed: u64) -> Cells {
    let (cells, corpus) = (scoped(seed), corpus());
    let bits = |answer: &PlanAnswer| (answer.value().map(f64::to_bits), answer.cost);
    let value = |i: usize| match &cells[i].1 {
        Outcome::Released(_, answer) => bits(answer),
        other => panic!("{other:?}"),
    };
    let one_round = format!("pass 1, 1-round ONLINE {}", ONLINE[0]);
    let scalar = parse_sql_plan(&schema(), ONLINE[0], &PlanParams::default()).unwrap();
    let scalar = federation(seed).with_engine(|engine| engine.run_plan(&scalar).unwrap());
    let half = corpus.len() / 2;
    for (i, (label, plan)) in corpus[..half].iter().enumerate() {
        // A clamped statistic or an extreme may release a repeat's value again.
        let noisy = matches!(plan, QueryPlan::Scalar { .. } | QueryPlan::Online { .. });
        let fresh = !noisy || value(i) != value(i + half);
        assert!(fresh, "{label}: its repeat drew no fresh noise");
        let degenerate = *label != one_round || value(i) == bits(&scalar);
        assert!(degenerate, "{label} is not its one-shot scalar");
    }
    cells
}

/// Every plan in flight on an owned engine before the first wait.
fn submitted_before_waiting(seed: u64) -> Cells {
    let engine = FederationEngine::start(federation(seed));
    let handle = engine.handle();
    let submit = |(_, plan): Entry| {
        let explained = explainable(&plan).then(|| handle.explain_plan(&plan).unwrap());
        (explained, handle.submit_plan(&plan).unwrap())
    };
    let pending: Vec<_> = corpus().into_iter().map(submit).collect();
    let wait = |(explained, p): (_, PendingPlan)| released(explained, p.wait().unwrap());
    let cells = pending.into_iter().map(wait).enumerate().collect();
    engine.shutdown();
    cells
}

/// `fedaqp serve --xi`: the ledger holds exactly the runs' costs, so no
/// EXPLAIN was charged.
fn loopback_analyst(seed: u64) -> Cells {
    let dir = data_dir(seed);
    let running = cli_serve(&dir, |args| (args.xi, args.psi) = (Some(1e3), Some(0.5)));
    let mut client = RemoteFederation::connect(&addr(&running.server)).unwrap();
    let cells = remote(&mut client);
    let (mut spent, mut answered) = (0.0, 0);
    for (_, outcome) in &cells {
        if let Outcome::Released(_, answer) = outcome {
            (spent, answered) = (spent + answer.cost.eps, answered + 1);
        }
    }
    let status = client.budget_status().unwrap();
    let ledger = (status.spent_eps, status.queries_answered);
    assert_eq!(ledger, (spent, answered), "an EXPLAIN was charged");
    running.shutdown();
    std::fs::remove_dir_all(dir).ok();
    cells
}

fn in_process(seed: u64, n_shards: usize) -> Cells {
    let config = federation(seed).config().clone();
    let coordinator = ShardedFederation::in_process(config, schema(), partitions(), n_shards);
    let coordinator = coordinator.unwrap();
    let cells = through(door!(coordinator));
    coordinator.shutdown();
    cells
}

/// The README's walkthrough, `fedaqp serve --shard I/2` twice behind
/// `fedaqp coordinate`; the second pass runs on pooled connections.
fn loopback_grid(seed: u64) -> Cells {
    let dir = data_dir(seed);
    let shards = [0, 1].map(|i| cli_serve(&dir, |args| args.shard = Some((i, 2))));
    let mut args = CoordinateArgs::default();
    (args.data, args.listen) = (dir.clone(), "127.0.0.1:0".into());
    args.shards = shards.iter().map(|shard| addr(&shard.server)).collect();
    let running = coordinate(&args).unwrap();
    let banners = format!("{}{}{}", shards[0].banner, shards[1].banner, running.banner);
    let wire = format!("fragment frames only (wire v{})", fedaqp_net::wire::VERSION);
    let coordinating = "coordinating: 2 shards (2+2 providers)";
    for line in ["shard       : 0 of 2", "lanes 2..4", &wire, coordinating] {
        assert!(banners.contains(line), "{line}: {banners}");
    }
    let cells = remote(&mut RemoteFederation::connect(&addr(&running.server)).unwrap());
    running.server.shutdown();
    shards.into_iter().for_each(RunningServer::shutdown);
    std::fs::remove_dir_all(dir).ok();
    cells
}

/// `fedaqp query --remote` against `fedaqp serve` prints the lines the
/// CLI renders for the scoped engine's answer; a malformed flag is a
/// one-line error, exit 1.
fn binary(seed: u64) -> Cells {
    let dir = data_dir(seed);
    let running = cli_serve(&dir, |_| {});
    let (bin, addr) = (env!("CARGO_BIN_EXE_fedaqp"), addr(&running.server));
    let fedaqp = |args: &[&str]| {
        let args = [&["query", "--remote", &addr], args].concat();
        Command::new(bin).args(args).output().unwrap()
    };
    let malformed = fedaqp(&["--rate", "often", STATEMENTS[0]]);
    let stderr = String::from_utf8_lossy(&malformed.stderr);
    let refused = malformed.status.code() == Some(1) && stderr.starts_with("error: --rate: ");
    assert!(refused, "{:?}: {stderr}", malformed.status);
    // Statement `s` is corpus entry `s`: the statements open the corpus.
    let cells = BINARY.map(|s| {
        let out = fedaqp(&[STATEMENTS[s]]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        (s, Outcome::Printed(String::from_utf8(out.stdout).unwrap()))
    });
    running.shutdown();
    std::fs::remove_dir_all(dir).ok();
    cells.into()
}

/// Whether a row's cell says what the scoped engine's does.
fn agrees(got: &Outcome, want: &Outcome, plan: &QueryPlan) -> bool {
    let (Outcome::Printed(out), Outcome::Released(_, want)) = (got, want) else {
        return got == want;
    };
    let (mut lines, em) = (String::new(), EstimatorCalibration::EmCalibrated);
    render_answer(&mut lines, &schema(), plan, want, em, false);
    out.contains(&lines)
}

/// Runs one row under every seed against the reference; a row-local
/// assertion that fails is reported under the row and the seed too.
fn check(row: &str, deploy: fn(u64) -> Cells) {
    let corpus = corpus();
    for seed in SEEDS {
        let name = format!("row {row}, seed {seed:#x}");
        let cells = std::panic::catch_unwind(|| deploy(seed));
        let cells = cells.unwrap_or_else(|_| panic!("{name}: failed, see the panic above"));
        let reference = scoped(seed);
        for (i, got) in cells {
            let ((entry, plan), want) = (&corpus[i], &reference[i].1);
            let cell = format!("{name}, corpus entry `{entry}`");
            let diff = format!("{row}: {got:?}\nscoped_engine: {want:?}");
            assert!(agrees(&got, want, plan), "{cell}:\n{diff}");
        }
    }
}

/// The deployment table: each row is one test.
macro_rules! matrix {
    ($($row:ident => $deploy:expr,)*) => {$(
        #[test]
        fn $row() {
            check(stringify!($row), $deploy);
        }
    )*};
}

matrix! {
    scoped_engine => reference,
    owned_engine => |seed| {
        let engine = FederationEngine::start(federation(seed));
        let cells = through(door!(engine.handle()));
        engine.shutdown();
        cells
    },
    all_submitted_before_waiting => submitted_before_waiting,
    loopback_analyst_server => loopback_analyst,
    in_process_1_shard => |seed| in_process(seed, 1),
    in_process_2_shards => |seed| in_process(seed, 2),
    in_process_4_shards => |seed| in_process(seed, 4),
    loopback_2_shards => loopback_grid,
    // Each plan in its own scope on the one epoch-0 ledger, as a live server runs it.
    live_in_process => |seed| {
        let live = LiveFederation::new(federation(seed), RefreshPolicy::default());
        through(|plan| live.with_engine(|engine| door!(engine)(plan)))
    },
    live_loopback_server => |seed| {
        let live = LiveFederation::new(federation(seed), RefreshPolicy::default());
        let server = LoopbackServer::live(live, ServeOptions::unlimited()).unwrap();
        let cells = remote(&mut RemoteFederation::connect(server.addr()).unwrap());
        server.shutdown();
        cells
    },
    telemetry_off => |seed| {
        fedaqp_obs::set_enabled(false);
        let cells = loopback_grid(seed);
        fedaqp_obs::set_enabled(true);
        cells
    },
    fedaqp_binary => binary,
}
