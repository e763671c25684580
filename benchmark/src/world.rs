//! A workload's running system — engines, servers, coordinator — and the
//! front door its clients go through.

use std::time::{Duration, Instant};

use crate::catalog;
use crate::inputs::{Inputs, PlanSpec, ONLINE_ROUNDS, PLAN_PARAMS};
use crate::surface::{
    parse_sql_plan, EngineHandle, Federation, FederationConfig, FederationEngine, LiveFederation,
    LoopbackServer, PlanAnswer, QueryPlan, RefreshPolicy, RemoteFederation, RemoteShard, Row,
    Schema, ServeOptions, ShardBackend, ShardedFederation,
};

/// Session budget `(ξ, ψ)` per analyst identity, so the charge path runs
/// on the hot path as in production. The ledger caps ψ below 1, which at
/// δ = 1e-3 per plan ends a session after 999 plans: a load generator
/// opens a fresh session (a new identity on a new connection) every
/// [`SESSION_PLANS`] plans, as a production analyst would have to.
pub const SESSION_XI: f64 = 1e12;
pub const SESSION_PSI: f64 = 0.95;
pub const SESSION_PLANS: u64 = 900;

pub fn serve_options() -> ServeOptions {
    ServeOptions::with_budget(SESSION_XI, SESSION_PSI)
}

/// How a workload's clients reach the system.
#[derive(Clone)]
pub enum Door {
    /// `EngineHandle::run_plan` in this process.
    InProc(EngineHandle),
    /// A loopback server at this address.
    Remote(String),
}

impl Door {
    /// Opens one client under `identity` (its session-ledger key).
    pub fn client(&self, identity: &str) -> Result<Client, String> {
        match self {
            Door::InProc(handle) => Ok(Client::InProc(handle.clone())),
            Door::Remote(addr) => RemoteFederation::connect_as(addr, identity)
                .map(|c| Client::Remote(Box::new(c)))
                .map_err(|e| format!("connect {identity}: {e}")),
        }
    }
}

/// One built instance of a workload's system. Shut down with
/// [`World::shutdown`], front to back.
pub struct World {
    pub door: Door,
    front: Option<LoopbackServer>,
    coordinator: Option<ShardedFederation>,
    shard_servers: Vec<LoopbackServer>,
    engines: Vec<FederationEngine>,
}

/// Splits `config` into per-shard configurations over contiguous provider
/// ranges, with the lane offsets that keep N-shard noise identical to the
/// unsharded run.
pub fn shard_configs(config: &FederationConfig, n_shards: usize) -> Vec<(FederationConfig, usize)> {
    let (base, extra) = (config.n_providers / n_shards, config.n_providers % n_shards);
    let mut offset = 0usize;
    (0..n_shards)
        .map(|s| {
            let k = base + usize::from(s < extra);
            let mut cfg = config.clone();
            cfg.n_providers = k;
            cfg.provider_lane_base = config.provider_lane_base + offset as u64;
            offset += k;
            (cfg, offset - k)
        })
        .collect()
}

/// The shard engines, their loopback servers, and the remote backends a
/// coordinator scatters to.
pub type LoopbackShards = (
    Vec<FederationEngine>,
    Vec<LoopbackServer>,
    Vec<Box<dyn ShardBackend>>,
);

/// Two loopback shard servers (2 providers each) and their backends.
pub fn loopback_shards(
    config: &FederationConfig,
    schema: &Schema,
    partitions: &[Vec<Row>],
) -> Result<LoopbackShards, String> {
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut backends: Vec<Box<dyn ShardBackend>> = Vec::new();
    for (cfg, offset) in shard_configs(config, 2) {
        let slice = partitions[offset..offset + cfg.n_providers].to_vec();
        let federation = Federation::build(cfg, schema.clone(), slice)
            .map_err(|e| format!("shard federation: {e}"))?;
        let engine = FederationEngine::start(federation);
        let server =
            LoopbackServer::shard(engine.handle()).map_err(|e| format!("bind shard: {e}"))?;
        backends.push(Box::new(
            RemoteShard::connect(server.addr()).map_err(|e| format!("connect shard: {e}"))?,
        ));
        engines.push(engine);
        servers.push(server);
    }
    Ok((engines, servers, backends))
}

impl World {
    /// Builds the workload's system over `partitions` (consumed: this is
    /// what `setup_s` times, minus the caller's clone).
    pub fn build(inputs: &Inputs, partitions: Vec<Vec<Row>>) -> Result<World, String> {
        let (config, schema) = (inputs.config.clone(), inputs.schema.clone());
        let build = |partitions| {
            Federation::build(config.clone(), schema.clone(), partitions)
                .map_err(|e| format!("federation build: {e}"))
        };
        let mut world = World {
            door: Door::Remote(String::new()),
            front: None,
            coordinator: None,
            shard_servers: Vec::new(),
            engines: Vec::new(),
        };
        match inputs.workload.name {
            catalog::SCAN_WIDE => {
                let engine = FederationEngine::start(build(partitions)?);
                world.door = Door::InProc(engine.handle());
                world.engines.push(engine);
            }
            catalog::NARROW_REMOTE => {
                let engine = FederationEngine::start(build(partitions)?);
                let server = LoopbackServer::analyst(engine.handle(), serve_options())
                    .map_err(|e| format!("bind analyst server: {e}"))?;
                world.door = Door::Remote(server.addr().to_owned());
                world.front = Some(server);
                world.engines.push(engine);
            }
            catalog::MIXED_SHARDED => {
                let (engines, servers, backends) = loopback_shards(&config, &schema, &partitions)?;
                let coordinator =
                    ShardedFederation::from_backends(config.clone(), schema.clone(), backends)
                        .map_err(|e| format!("coordinator: {e}"))?;
                let server = LoopbackServer::coordinator(coordinator.clone(), serve_options())
                    .map_err(|e| format!("bind coordinator: {e}"))?;
                world.door = Door::Remote(server.addr().to_owned());
                world.front = Some(server);
                world.coordinator = Some(coordinator);
                world.shard_servers = servers;
                world.engines = engines;
            }
            catalog::LIVE_RW => {
                let live = LiveFederation::new(build(partitions)?, RefreshPolicy::default());
                let server = LoopbackServer::live(live, serve_options())
                    .map_err(|e| format!("bind live server: {e}"))?;
                world.door = Door::Remote(server.addr().to_owned());
                world.front = Some(server);
            }
            other => return Err(format!("unknown workload `{other}`")),
        }
        Ok(world)
    }

    /// Opens one client through the front door under `identity`.
    pub fn client(&self, identity: &str) -> Result<Client, String> {
        self.door.client(identity)
    }

    /// Stops servers, coordinator and engines, front to back. Clients must
    /// be dropped first (connection threads serve until their peer hangs
    /// up).
    pub fn shutdown(self) {
        if let Some(front) = self.front {
            front.shutdown();
        }
        // Dropping the coordinator closes its shard connections.
        drop(self.coordinator);
        for server in self.shard_servers {
            server.shutdown();
        }
        for engine in self.engines {
            drop(engine.shutdown());
        }
    }
}

/// What one served plan hands back.
pub struct Served {
    pub answer: PlanAnswer,
    /// Time from submission to the first pushed snapshot (online plans
    /// over a connection).
    pub first_snapshot: Option<Duration>,
}

/// One load generator: an engine handle or one analyst connection.
pub enum Client {
    InProc(EngineHandle),
    Remote(Box<RemoteFederation>),
}

impl Client {
    /// Sends one plan through the front door and waits for its full
    /// answer. SQL text, where the workload carries it, is parsed here —
    /// inside the timed path.
    pub fn run(&mut self, schema: &Schema, spec: &PlanSpec) -> Result<Served, String> {
        let parsed;
        let plan = match &spec.sql {
            Some(sql) => {
                parsed = parse_sql_plan(schema, sql, &PLAN_PARAMS).map_err(|e| e.to_string())?;
                &parsed
            }
            None => &spec.plan,
        };
        match self {
            Client::InProc(handle) => handle
                .run_plan(plan)
                .map(|answer| Served {
                    answer,
                    first_snapshot: None,
                })
                .map_err(|e| e.to_string()),
            Client::Remote(conn) => match plan {
                // The `Plan` frame cannot carry an online plan; it has its
                // own server-push conversation.
                QueryPlan::Online {
                    query,
                    sampling_rate,
                    epsilon,
                    delta,
                    rounds,
                } => {
                    debug_assert_eq!(*rounds, ONLINE_ROUNDS);
                    let start = Instant::now();
                    let mut first = None;
                    conn.run_online_plan(
                        query,
                        *sampling_rate,
                        *epsilon,
                        *delta,
                        *rounds as u32,
                        |_| {
                            first.get_or_insert_with(|| start.elapsed());
                        },
                    )
                    .map(|answer| Served {
                        answer,
                        first_snapshot: first,
                    })
                    .map_err(|e| e.to_string())
                }
                _ => conn
                    .run_plan(plan)
                    .map(|answer| Served {
                        answer,
                        first_snapshot: None,
                    })
                    .map_err(|e| e.to_string()),
            },
        }
    }

    /// `(spent ε, spent δ, queries answered)` of this connection's
    /// identity; `None` in process (no session ledger there).
    pub fn ledger(&mut self) -> Result<Option<(f64, f64, u64)>, String> {
        match self {
            Client::InProc(_) => Ok(None),
            Client::Remote(conn) => conn
                .budget_status()
                .map(|s| Some((s.spent_eps, s.spent_delta, s.queries_answered)))
                .map_err(|e| e.to_string()),
        }
    }

    pub fn remote(&mut self) -> Option<&mut RemoteFederation> {
        match self {
            Client::InProc(_) => None,
            Client::Remote(conn) => Some(conn),
        }
    }
}
