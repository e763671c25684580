//! `fedaqp-net` — the federation's network face.
//!
//! The paper's deployment story is a coordinator answering remote
//! analysts' approximate range-aggregate queries; this crate turns the
//! in-process concurrent engine ([`fedaqp_core::engine`]) into exactly
//! that service, on nothing but `std::net`:
//!
//! * [`wire`] — a length-prefixed binary frame codec
//!   (`Hello`/`Plan`/`PlanAnswer`/`Error`/`BudgetStatus`/…), hand-rolled
//!   in the defensive style of `fedaqp_storage::codec`: hard frame cap,
//!   bounded declared lengths, strict trailing-byte rejection.
//! * [`FederationServer`] — a thread-per-connection TCP server running
//!   one connection loop in four roles (engine, coordinator, live,
//!   shard). Per-analyst budgets are charged through
//!   [`fedaqp_dp::BudgetDirectory`]-backed [`fedaqp_core::Session`]s, so
//!   concurrent (or reconnecting) remote analysts can never overspend
//!   their `(ξ, ψ)`.
//! * [`RemoteFederation`] — a blocking client mirroring the engine's
//!   plan submit/wait API, so analyst code is indifferent to whether the
//!   federation is in-process or across the network.
//! * [`RemoteShard`] — a [`fedaqp_core::ShardBackend`] over TCP, letting
//!   a [`fedaqp_core::ShardedFederation`] coordinator federate engines
//!   behind [`FederationServer::bind_shard`] servers (and itself serve
//!   analysts through [`FederationServer::bind_coordinator`], unchanged
//!   upstream).
//! * [`LoopbackServer`] — the ephemeral-port bind/teardown guard every
//!   test and experiment shares.
//!
//! Threat model: the wire carries only DP-released values (never raw
//! estimates or sensitivities), but transport security — encryption,
//! authentication of the declared analyst identity — is out of scope and
//! must come from the deployment (TLS terminator, VPN, …).

pub mod client;
pub mod error;
pub mod loopback;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{PendingRemotePlan, RemoteFederation};
pub use error::NetError;
pub use loopback::LoopbackServer;
pub use server::{FederationServer, ServeOptions};
pub use shard::{RemoteShard, Uplink};
pub use wire::{BudgetStatus, ErrorCode, Frame};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
