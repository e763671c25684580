//! The remote-shard client: a [`ShardBackend`] over TCP.
//!
//! [`RemoteShard`] lets a [`fedaqp_core::ShardedFederation`] coordinator
//! federate engines running behind [`crate::FederationServer::bind_shard`]
//! servers. Construction fetches the shard's provider count and public
//! pruning bounds once (they are offline metadata — immutable for the
//! server's lifetime) and drops that connection; fragments then run over
//! a small pool of idle, already-handshaken connections.
//!
//! **Connection lifecycle.** A connection carries one fragment batch at a
//! time (the server enforces it) — every sub-query one plan submitted
//! together. [`ShardBackend::begin`] and [`ShardBackend::extreme`] check
//! one out of the idle list — or open and handshake a fresh one when the
//! list is empty — and it goes back **only after a complete lifecycle**:
//! the batch's last `FragmentPartial`, or the `ExtremePartial`, was read,
//! so nothing is unread on the stream. A failed or dropped batch closes
//! its connection instead, and closing *is* the abort: the server drops
//! its in-process batch, whose fragments abort on drop, and one slow or
//! dying batch can never desynchronize a sibling's stream. A batch too
//! wide for one frame ([`fragment_runs`]) runs as several lifecycles, each
//! on its own connection.
//!
//! **One request, one reply.** A batch of any size is two writes and two
//! rounds of reads per shard, every read answering one write: `Fragment`
//! ⇒ `FragmentSummaries`, an entry per fragment; then
//! `FragmentAllocation` ⇒ one `FragmentPartial` per fragment in batch
//! order, each read when the coordinator gathers that sub-query — or one
//! typed error, if the shard rejects the allocation, read in place of the
//! first partial. A shard restarted with a different provider count is
//! refused at the handshake of every fresh connection.
//!
//! **The core's own types.** The frames carry the [`ShardBackend`] types
//! themselves — [`FragmentSpec`] out, [`FragmentSummaries`] and
//! [`FragmentPartial`] back, the [`ExtremeFragmentSpec`] and its
//! `(value, execution)` answer, the [`ProviderBounds`] — so neither this
//! client nor the server on the far end, which drives the engine's own
//! [`ShardBackend`], converts anything. The shard checks each fragment as
//! it enters and each allocation's shape; this client forwards both.
//!
//! **Stale connections.** An idle connection can die unnoticed (a shard
//! restart). When the *first* write or the *first* read on a pooled
//! connection fails at the socket level, it and the rest of the idle list
//! are discarded and the same request bytes — the same occurrence index —
//! are re-sent once on a fresh connection. A fault that survives that is
//! the shard's, not a stale socket's, and surfaces to the coordinator.
//!
//! Every failure inside the fragment lifecycle surfaces as
//! [`CoreError::ShardUnavailable`] — the typed fault the coordinator's
//! fail-closed contract is built on (`shard: 0` here; the coordinator
//! rewrites it to the failing shard's index). Setup failures in
//! [`RemoteShard::connect`] stay in the richer [`NetError`] vocabulary,
//! because at construction time there is a human reading the message.
//!
//! Determinism note: nothing in this client touches randomness, and no
//! seed ever crosses the wire — the shard derives its noise from its own
//! configured seed plus the coordinator-assigned occurrence index in the
//! fragment frames.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use fedaqp_core::{
    CoreError, ExtremeFragmentSpec, ExtremeReply, FragmentBatch, FragmentPartial, FragmentSpec,
    FragmentSummaries, ProviderBounds, ShardBackend,
};
use fedaqp_model::Value;
use fedaqp_smc::CostModel;

use crate::client::Conn;
use crate::wire::{encode_frame, fragment_runs, Frame};
use crate::{NetError, Result};

/// Idle connections kept per shard: enough that sixteen analysts' plans
/// (one connection per plan in flight) find theirs waiting. Beyond it a
/// completed batch's connection is simply closed — each idle one also
/// pins a thread on the shard, so the cap is what the pool costs in
/// memory.
const MAX_IDLE: usize = 16;

/// A simulated shard→coordinator uplink, for experiments: every
/// data-bearing reply crossing the link occupies it for the
/// [`CostModel`]'s transfer time of the reply's encoded size, one reply
/// at a time. The link is a virtual clock (`busy_until`), not a lock held
/// across a sleep: a reply *reserves* its slot and learns when it will
/// have arrived, and the coordinator sleeps once, until the latest
/// arrival across shards ([`FragmentBatch::ready_at`]). Clones share the
/// link. Real deployments use none — the real socket *is* the uplink.
#[derive(Debug, Clone)]
pub struct Uplink {
    cost_model: CostModel,
    busy_until: Arc<Mutex<Instant>>,
}

impl Uplink {
    /// An idle link with `cost_model`'s latency and bandwidth.
    pub fn new(cost_model: CostModel) -> Self {
        Self {
            cost_model,
            busy_until: Arc::new(Mutex::new(Instant::now())),
        }
    }

    /// Reserves the link for a `bytes`-long reply that reached it at
    /// `now`: the transfer starts when the link is next free, and the
    /// returned instant is when it completes.
    fn reserve(&self, now: Instant, bytes: u64) -> Instant {
        let mut busy_until = self
            .busy_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *busy_until = (*busy_until).max(now) + self.cost_model.round_time(bytes);
        *busy_until
    }

    /// Reserves the link for one reply frame read just now.
    fn reserve_frame(&self, frame: &Frame) -> Instant {
        let bytes = encode_frame(frame).map(|b| b.len() as u64).unwrap_or(0);
        self.reserve(Instant::now(), bytes)
    }
}

/// A downstream engine shard reached over TCP — the wire implementation
/// of [`ShardBackend`], for [`fedaqp_core::ShardedFederation::from_backends`].
#[derive(Debug, Clone)]
pub struct RemoteShard {
    pool: Arc<Pool>,
    bounds: Vec<ProviderBounds>,
    uplink: Option<Uplink>,
}

impl RemoteShard {
    /// Connects to a shard-mode server at `addr` and fetches its provider
    /// bounds. The connection used for the fetch is dropped, not pooled:
    /// a shard that dies before its first fragment must be seen to be
    /// dead, and only a fresh connect can see it.
    pub fn connect(addr: &str) -> Result<Self> {
        let (mut conn, _) = Conn::open(addr, "coordinator")?;
        conn.send(&Frame::ShardBoundsRequest)?;
        let Frame::ShardBounds(bounds) = conn.recv()? else {
            return Err(NetError::Malformed("expected ShardBounds"));
        };
        Ok(Self {
            pool: Arc::new(Pool {
                addr: addr.to_owned(),
                n_providers: bounds.len(),
                idle: Mutex::new(Vec::new()),
            }),
            bounds,
            uplink: None,
        })
    }

    /// Puts this shard's data-bearing replies behind a simulated uplink.
    /// Experiments give each shard an [`Uplink`] of its own to model
    /// per-shard WAN uplinks (sharding then multiplies the grid's
    /// aggregate reply bandwidth — the scaling the shard benchmark
    /// gates), or clones of one to model a single coordinator NIC.
    pub fn with_uplink(mut self, uplink: Uplink) -> Self {
        self.uplink = Some(uplink);
        self
    }

    /// The shard server's address.
    pub fn addr(&self) -> &str {
        &self.pool.addr
    }
}

impl ShardBackend for RemoteShard {
    fn n_providers(&self) -> usize {
        self.bounds.len()
    }

    fn bounds(&self) -> Vec<ProviderBounds> {
        self.bounds.clone()
    }

    fn begin(&self, specs: &[FragmentSpec]) -> fedaqp_core::Result<Box<dyn FragmentBatch>> {
        let mut rest = specs;
        let runs = fragment_runs(specs, self.pool.n_providers)
            .into_iter()
            .map(|len| {
                let (run, later) = rest.split_at(len);
                rest = later;
                let request = encode_frame(&Frame::Fragment(run.to_vec()))?;
                Ok(Run {
                    sent: Some(self.pool.send(request)?),
                    len,
                    gathered: 0,
                })
            })
            .collect::<Result<Vec<_>>>()
            .map_err(|e| unavailable(&e))?;
        Ok(Box::new(RemoteBatch {
            runs,
            pool: Arc::clone(&self.pool),
            uplink: self.uplink.clone(),
            ready_at: None,
        }))
    }

    fn extreme(&self, spec: &ExtremeFragmentSpec) -> fedaqp_core::Result<Box<dyn ExtremeReply>> {
        let request = encode_frame(&Frame::ExtremeFragment(*spec)).map_err(|e| unavailable(&e))?;
        let sent = self.pool.send(request).map_err(|e| unavailable(&e))?;
        Ok(Box::new(RemoteExtreme {
            sent: Some(sent),
            pool: Arc::clone(&self.pool),
            uplink: self.uplink.clone(),
            ready_at: None,
        }))
    }
}

/// What a lifecycle call after the last partial was read gets told.
const FINISHED: &str = "fragment lifecycle is already complete";

/// One fragment batch on one shard: a lifecycle per run of the batch,
/// in batch order.
struct RemoteBatch {
    runs: Vec<Run>,
    pool: Arc<Pool>,
    uplink: Option<Uplink>,
    /// When the reply read last finishes crossing the simulated uplink.
    ready_at: Option<Instant>,
}

/// One run's lifecycle on a checked-out connection.
struct Run {
    /// The connection, until the run's last partial was read and it went
    /// back to the pool; dropping it here instead closes it.
    sent: Option<Sent>,
    /// Fragments in the run.
    len: usize,
    /// Partials read so far.
    gathered: usize,
}

impl Run {
    /// Reads the run's next reply (the first one through the pool's
    /// stale-connection re-send). A failure closes the connection, so a
    /// later call is told the lifecycle is over instead of reading a
    /// desynchronized stream.
    fn recv(&mut self, pool: &Pool) -> fedaqp_core::Result<Frame> {
        let sent = self.sent.as_mut().ok_or(shard_fault(FINISHED))?;
        pool.reply(sent).map_err(|e| {
            self.sent = None;
            unavailable(&e)
        })
    }
}

impl RemoteBatch {
    fn reserve_uplink(&mut self, frame: &Frame) {
        if let Some(uplink) = &self.uplink {
            self.ready_at = Some(uplink.reserve_frame(frame));
        }
    }
}

impl FragmentBatch for RemoteBatch {
    fn summaries(&mut self) -> fedaqp_core::Result<Vec<FragmentSummaries>> {
        let mut all = Vec::new();
        for i in 0..self.runs.len() {
            let reply = self.runs[i].recv(&self.pool)?;
            self.reserve_uplink(&reply);
            // Local provider ids; the coordinator remaps them to the
            // shard's global offset.
            match reply {
                Frame::FragmentSummaries(sets) if sets.len() == self.runs[i].len => {
                    all.extend(sets)
                }
                _ => {
                    return Err(shard_fault(
                        "shard answered the fragment batch with an unexpected frame",
                    ))
                }
            }
        }
        Ok(all)
    }

    fn allocate(&mut self, allocations: &[Vec<u64>]) -> fedaqp_core::Result<()> {
        // Each run takes its fragments' slices and the last run the rest,
        // so the shard checks them all: a mismatch is its typed error.
        let mut rest = allocations;
        let last = self.runs.len().saturating_sub(1);
        for (i, run) in self.runs.iter_mut().enumerate() {
            let take = if i == last { rest.len() } else { run.len };
            let (mine, later) = rest.split_at(take.min(rest.len()));
            rest = later;
            let sent = run.sent.as_mut().ok_or(shard_fault(FINISHED))?;
            sent.conn
                .send(&Frame::FragmentAllocation(mine.to_vec()))
                .map_err(|e| unavailable(&e))?;
        }
        Ok(())
    }

    fn partial(&mut self) -> fedaqp_core::Result<FragmentPartial> {
        let run = self
            .runs
            .iter_mut()
            .find(|run| run.gathered < run.len)
            .ok_or(shard_fault(FINISHED))?;
        let reply = run.recv(&self.pool)?;
        if let Some(uplink) = &self.uplink {
            self.ready_at = Some(uplink.reserve_frame(&reply));
        }
        let Frame::FragmentPartial(partial) = reply else {
            return Err(shard_fault(
                "shard answered the allocation with an unexpected frame",
            ));
        };
        run.gathered += 1;
        if run.gathered == run.len {
            // Every request answered: the stream is clean, so the
            // connection can carry another batch.
            if let Some(sent) = run.sent.take() {
                self.pool.put_back(sent.conn);
            }
        }
        Ok(partial)
    }

    fn ready_at(&self) -> Option<Instant> {
        self.ready_at
    }
}

/// One MIN/MAX fragment on a checked-out connection, its reply unread.
struct RemoteExtreme {
    /// The connection, until the reply was read and it went back to the
    /// pool; dropping it here instead closes it.
    sent: Option<Sent>,
    pool: Arc<Pool>,
    uplink: Option<Uplink>,
    ready_at: Option<Instant>,
}

impl ExtremeReply for RemoteExtreme {
    fn answer(&mut self) -> fedaqp_core::Result<(Value, Duration)> {
        let mut sent = self.sent.take().ok_or(shard_fault(FINISHED))?;
        match self.pool.reply(&mut sent).map_err(|e| unavailable(&e))? {
            Frame::ExtremePartial(answer) => {
                self.pool.put_back(sent.conn);
                self.ready_at = self
                    .uplink
                    .as_ref()
                    .map(|uplink| uplink.reserve_frame(&Frame::ExtremePartial(answer)));
                Ok(answer)
            }
            _ => Err(shard_fault(
                "shard answered the extreme fragment with an unexpected frame",
            )),
        }
    }

    fn ready_at(&self) -> Option<Instant> {
        self.ready_at
    }
}

/// Maps a connection-level failure onto the coordinator's typed fault.
/// The reasons are static by [`CoreError`]'s design; the full story is in
/// the shard server's log, not in what a failing shard tells an analyst.
fn unavailable(error: &NetError) -> CoreError {
    shard_fault(match error {
        NetError::Connect { .. } => "connection refused",
        NetError::Disconnected => "shard dropped the connection",
        NetError::Io(_) => "shard connection failed",
        NetError::Remote { .. } => "shard rejected the request",
        NetError::UnsupportedVersion { .. } => "shard speaks an incompatible protocol version",
        _ => "shard protocol error",
    })
}

/// The coordinator's typed fault, before it knows the shard's index.
fn shard_fault(reason: &'static str) -> CoreError {
    CoreError::ShardUnavailable { shard: 0, reason }
}

/// One shard's idle, already-handshaken connections.
#[derive(Debug)]
struct Pool {
    addr: String,
    /// The provider count the bounds were fetched with; every fresh
    /// connection's handshake must still declare it.
    n_providers: usize,
    idle: Mutex<Vec<Conn>>,
}

/// A request in flight whose first reply has not been read yet.
struct Sent {
    conn: Conn,
    /// The request's bytes, kept while `conn` came from the idle list
    /// and may yet prove stale; `None` on a fresh connection and once the
    /// first reply was read.
    resend: Option<Vec<u8>>,
}

impl Pool {
    fn idle(&self) -> MutexGuard<'_, Vec<Conn>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool's miss path: connect, handshake, and check that the shard
    /// still holds the providers its bounds were fetched for.
    fn fresh(&self) -> Result<Conn> {
        let (conn, ack) = Conn::open(&self.addr, "coordinator")?;
        if ack.n_providers as usize != self.n_providers {
            return Err(NetError::Handshake(
                "shard's provider count changed since its bounds were fetched",
            ));
        }
        Ok(conn)
    }

    /// Writes `request` on an idle connection, or on a fresh one when
    /// there is none or the idle one turns out dead.
    fn send(&self, request: Vec<u8>) -> Result<Sent> {
        // Popped in a statement of its own: the guard must be gone before
        // the write, and before `clear` takes the lock again.
        let pooled = self.idle().pop();
        if let Some(mut conn) = pooled {
            if conn.write(&request).is_ok() {
                return Ok(Sent {
                    conn,
                    resend: Some(request),
                });
            }
            self.idle().clear();
        }
        let mut conn = self.fresh()?;
        conn.write(&request)?;
        Ok(Sent { conn, resend: None })
    }

    /// Reads the next reply to `sent`'s request. A pooled connection that
    /// dies before its first reply was stale: the idle list goes with it
    /// and the request is re-sent, once, on a fresh connection.
    fn reply(&self, sent: &mut Sent) -> Result<Frame> {
        match (sent.conn.recv(), sent.resend.take()) {
            (Err(NetError::Disconnected | NetError::Io(_)), Some(request)) => {
                self.idle().clear();
                sent.conn = self.fresh()?;
                sent.conn.write(&request)?;
                sent.conn.recv()
            }
            (reply, _) => reply,
        }
    }

    /// Takes back the connection of a completed lifecycle.
    fn put_back(&self, conn: Conn) {
        let mut idle = self.idle();
        if idle.len() < MAX_IDLE {
            idle.push(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use fedaqp_model::Extreme;

    use super::*;
    use crate::wire::{read_frame, write_frame, HelloAck, VERSION};

    /// A scripted shard server: handshakes declaring `ack_providers`,
    /// serves bounds for one provider, and **hangs up after answering
    /// one extreme fragment** — so a connection the client pooled after
    /// that answer is stale by the time it is reused. Counts what it
    /// accepted and answered.
    struct HangUpShard {
        addr: String,
        accepted: Arc<AtomicUsize>,
        answered: Arc<AtomicUsize>,
    }

    impl HangUpShard {
        fn spawn(ack_providers: u32) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let accepted = Arc::new(AtomicUsize::new(0));
            let answered = Arc::new(AtomicUsize::new(0));
            let (accepts, answers) = (Arc::clone(&accepted), Arc::clone(&answered));
            // Detached: it parks in `accept` when the test ends.
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let mut stream = stream.unwrap();
                    accepts.fetch_add(1, Ordering::SeqCst);
                    while let Ok(frame) = read_frame(&mut stream) {
                        let reply = match frame {
                            Frame::Hello(_) => Frame::HelloAck(HelloAck {
                                dimensions: Vec::new(),
                                n_providers: ack_providers,
                                epsilon: 1.0,
                                delta: 1e-3,
                                calibration: 0,
                                session_budget: None,
                                max_version: VERSION,
                            }),
                            Frame::ShardBoundsRequest => {
                                Frame::ShardBounds(vec![ProviderBounds::new(vec![None], 1)])
                            }
                            Frame::ExtremeFragment(spec) => {
                                answers.fetch_add(1, Ordering::SeqCst);
                                Frame::ExtremePartial((spec.occurrence as i64, Duration::ZERO))
                            }
                            other => panic!("unscripted frame {other:?}"),
                        };
                        write_frame(&mut stream, &reply).unwrap();
                        if matches!(reply, Frame::ExtremePartial(_)) {
                            break;
                        }
                    }
                }
            });
            Self {
                addr,
                accepted,
                answered,
            }
        }
    }

    fn extreme(occurrence: u64) -> ExtremeFragmentSpec {
        ExtremeFragmentSpec {
            dim: 0,
            extreme: Extreme::Max,
            epsilon: 1.0,
            occurrence,
        }
    }

    /// A pooled connection that died while idle costs one transparent
    /// re-send of the same request on a fresh connection — no error, no
    /// duplicate answer, and the dead idle list is gone.
    #[test]
    fn a_stale_pooled_connection_is_replaced_and_the_request_resent_once() {
        let server = HangUpShard::spawn(1);
        let shard = RemoteShard::connect(&server.addr).unwrap();
        assert_eq!(shard.pool.idle().len(), 0, "the bounds fetch is not pooled");
        for occurrence in 0..3 {
            // Each answer's connection goes back to the pool, and is dead
            // by the next call: the server hung up behind the answer.
            let (value, _) = shard
                .extreme(&extreme(occurrence))
                .unwrap()
                .answer()
                .unwrap();
            assert_eq!(value, occurrence as i64, "the spec is re-sent verbatim");
            assert_eq!(shard.pool.idle().len(), 1);
        }
        assert_eq!(server.answered.load(Ordering::SeqCst), 3);
        assert_eq!(
            server.accepted.load(Ordering::SeqCst),
            1 + 3,
            "the bounds fetch, then one fresh connection per call"
        );
    }

    /// A shard that came back with a different provider count is refused
    /// at the handshake of the fresh connection, before any fragment of a
    /// batch whose allocation slices it would have to reject.
    #[test]
    fn a_shard_whose_provider_count_changed_is_refused_at_the_handshake() {
        let server = HangUpShard::spawn(2);
        let shard = RemoteShard::connect(&server.addr).unwrap();
        assert_eq!(shard.n_providers(), 1, "the bounds frame said one provider");
        assert_eq!(
            shard.extreme(&extreme(0)).err(),
            Some(shard_fault("shard protocol error"))
        );
        assert_eq!(server.answered.load(Ordering::SeqCst), 0);
    }

    /// 1 kB/s and no latency: a 100-byte reply holds the link for 100 ms.
    fn slow_link() -> Uplink {
        Uplink::new(CostModel {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 1000.0,
            ns_per_gate: 0,
            bytes_per_share: 8,
        })
    }

    /// The virtual clock serialises one link exactly as holding its mutex
    /// across a sleep did — and, like separate mutexes, lets separate
    /// links overlap. The arrival instant is injected, so nothing sleeps.
    #[test]
    fn replies_queue_on_one_link_and_overlap_on_two() {
        let t = Duration::from_millis(100);
        let now = Instant::now() + Duration::from_secs(1);

        let shared = slow_link();
        let same_nic = shared.clone();
        assert_eq!(shared.reserve(now, 100), now + t);
        assert_eq!(same_nic.reserve(now, 100), now + 2 * t);

        let (a, b) = (slow_link(), slow_link());
        assert_eq!(a.reserve(now, 100), now + t);
        assert_eq!(b.reserve(now, 100), now + t);

        // A link left idle is free again: a later reply starts on arrival.
        let later = now + 10 * t;
        assert_eq!(shared.reserve(later, 100), later + t);
    }
}
