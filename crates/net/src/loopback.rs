//! Loopback server guards: ephemeral `127.0.0.1:0` servers that shut
//! down on drop.
//!
//! Every over-the-wire test and experiment in this repository follows
//! the same choreography — bind an ephemeral port, hand clients the
//! resolved address, and *always* shut the accept loop down at the end,
//! even when an assertion panics mid-test. [`LoopbackServer`] is that
//! choreography as a value: the bench experiments (`net`, `attack`,
//! `shard`), the e2e socket tests, and the README walkthrough all spawn
//! their servers through it instead of hand-rolling bind/teardown.

use fedaqp_core::{EngineHandle, LiveFederation, ShardedFederation};

use crate::server::{FederationServer, ServeOptions};
use crate::Result;

/// A server on an ephemeral loopback port, shut down when dropped.
#[derive(Debug)]
pub struct LoopbackServer {
    server: Option<FederationServer>,
    addr: String,
}

impl LoopbackServer {
    /// Serves analysts from an in-process engine.
    pub fn analyst(handle: EngineHandle, options: ServeOptions) -> Result<Self> {
        Self::guard(FederationServer::bind("127.0.0.1:0", handle, options)?)
    }

    /// Serves analysts from a sharded coordinator.
    pub fn coordinator(federation: ShardedFederation, options: ServeOptions) -> Result<Self> {
        Self::guard(FederationServer::bind_coordinator(
            "127.0.0.1:0",
            federation,
            options,
        )?)
    }

    /// Serves analysts (and the streaming-ingest path) from a live
    /// federation.
    pub fn live(live: LiveFederation, options: ServeOptions) -> Result<Self> {
        Self::guard(FederationServer::bind_live("127.0.0.1:0", live, options)?)
    }

    /// Serves fragment frames to an upstream coordinator (shard mode).
    pub fn shard(handle: EngineHandle) -> Result<Self> {
        Self::guard(FederationServer::bind_shard("127.0.0.1:0", handle)?)
    }

    fn guard(server: FederationServer) -> Result<Self> {
        let addr = server.local_addr().to_string();
        Ok(Self {
            server: Some(server),
            addr,
        })
    }

    /// The resolved `127.0.0.1:<port>` address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Explicit shutdown, for tests that assert on teardown order (drop
    /// does the same).
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for LoopbackServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
