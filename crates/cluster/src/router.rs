//! The cluster-aware router: one closed-loop load generator that routes
//! every request to the node owning its LBA range.
//!
//! The router is a *routing policy* over the connection engine of
//! [`rif_server::client`]. A [`Wire`] is the transport to each node
//! (non-blocking socket, unsent bytes, reconnect back-off) and one
//! [`Ledger`] for the whole run issues the tags, keeps the [`Journal`],
//! the in-flight table with its deadlines and the receipt table, and
//! classifies every answer — the same code, and so the same serving
//! contract, as the single-node client. Nothing here sleeps, opens a
//! socket or touches a frame; the loop waits in the poller for a ready
//! socket or the nearest due-time. What is the router's own:
//!
//! - **The shard map**, fetched from the directory at start and
//!   refreshed (rate-limited, a blocking RPC on the directory
//!   connection) on the staleness signals: `WRONG_SHARD(epoch)` and an
//!   owner that cannot be reached, which the directory may have
//!   rebalanced away from.
//! - **Routing at send time**: writes go to the range's primary, reads
//!   to the replica its operation currently prefers, so a re-issue
//!   follows a refreshed map instead of the node that just refused it.
//! - **One global queue and window**: `depth` caps what is in flight
//!   across all nodes, and a refusal backs off only the *operation* it
//!   hit, so sibling requests to the same node keep flowing.
//! - **Read failover**: on a replicated map a read rotates to the next
//!   replica of its range after WRONG_SHARD, `BUSY(moving|unavailable)`,
//!   an unreachable owner, a lost connection, an expired deadline, or
//!   the ERROR of a dying node, so a dead or partitioned primary costs
//!   latency but not the read. Writes never rotate, and — the engine's
//!   write-safety rule — go again only after a refusal that provably
//!   preceded admission; a write whose connection died or whose
//!   deadline passed has unknown fate and is counted `failed`.
//!
//! Every re-issue takes a fresh tag and links `retry_of` to the chain's
//! ROOT tag on the wire, so the server-side trace recorder journals the
//! logical request once however often it was retried; and the chaos
//! ContractChecker audits a cluster run unchanged: each tag resolves
//! exactly once, and `completed + failed + busy_dropped` accounts for
//! every planned request.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use rif_events::stats::LatencyHistogram;
use rif_events::SimRng;
use rif_server::client::{
    conclude, wait_for_work, Conn, How, Journal, Ledger, LoadReport, Op, PlannedIo, Settled, Wire,
};
use rif_server::poller::{best_poller, Poller};
use rif_server::protocol::BusyReason;
use rif_workloads::{IoOp, SynthConfig};

use crate::directory::map_get;
use crate::map::ShardMap;

/// Salt for the endpoints' jitter RNG streams (distinct from the client's).
const JITTER_SALT: u64 = 0x707C_E55E_D0C5_11F0;

/// Base of an endpoint's reconnect back-off. Attempts are unbounded: a
/// node that is down is a refusal for the operations routed to it, not
/// a failed run.
const RECONNECT_BASE: Duration = Duration::from_millis(1);

/// Knobs for one routed load run.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Directory address (`host:port`) serving MAP_GET.
    pub directory: String,
    /// Total requests to issue.
    pub requests: u64,
    /// Global in-flight cap across all endpoints.
    pub depth: usize,
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Zipf exponent for the synthetic workload.
    pub zipf_s: f64,
    /// Transfer size per request.
    pub request_bytes: u32,
    /// Tenant id stamped on every request.
    pub tenant: u32,
    /// Workload seed.
    pub seed: u64,
    /// Delay before re-issuing after BUSY / WRONG_SHARD / failed connect.
    pub busy_backoff: Duration,
    /// Re-issue budget per planned operation.
    pub max_busy_retries: u32,
    /// In-flight deadline; expiry resolves the tag `TimedOut`.
    pub request_deadline: Duration,
}

impl RouterConfig {
    /// The trace generator behind the routed load: the default mix with
    /// this run's read ratio, Zipf exponent and request size.
    pub fn synth(&self) -> SynthConfig {
        SynthConfig {
            read_ratio: self.read_ratio,
            zipf_s: self.zipf_s,
            request_bytes: self.request_bytes,
            ..SynthConfig::default()
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            directory: "127.0.0.1:4000".into(),
            requests: 1000,
            depth: 16,
            read_ratio: 0.9,
            zipf_s: 0.9,
            request_bytes: 64 * 1024,
            tenant: 0,
            seed: 1,
            busy_backoff: Duration::from_millis(1),
            max_busy_retries: 100,
            request_deadline: Duration::from_secs(2),
        }
    }
}

/// The router's per-operation policy state.
#[derive(Default)]
struct Routing {
    /// Refusal re-issues consumed so far.
    refusals: u32,
    /// Which replica of the range a read targets (`pref % replicas`).
    /// Failover bumps it; writes ignore it and always hit the primary.
    replica_pref: u32,
}

/// The state of one routed run.
struct Run<'a> {
    cfg: &'a RouterConfig,
    dir: Conn,
    map: ShardMap,
    last_refresh: Instant,
    poller: Box<dyn Poller>,
    /// One wire per node address routed to so far (a node the map
    /// re-addresses is a new endpoint). The index is the wire's poller
    /// token and the `conn` of its journal records.
    endpoints: Vec<Wire>,
    ledger: Ledger<Routing>,
    /// Planned operations not yet submitted, in plan order.
    fresh: VecDeque<Op<Routing>>,
    /// Refused operations, each with the instant it may go again. Every
    /// refusal waits the same `busy_backoff`, so the head is the nearest.
    refused: VecDeque<(Instant, Op<Routing>)>,
    /// Operations that have reached their ledger bucket.
    settled: u64,
}

/// Runs `cfg.requests` synthetic operations through the cluster behind
/// `cfg.directory`, returning the merged report and journal.
pub fn run_routed(cfg: &RouterConfig) -> io::Result<(LoadReport, Journal)> {
    let mut dir = Conn::connect(&cfg.directory)?;
    let map = current_map(&mut dir)?;
    let mut run = Run {
        cfg,
        dir,
        map,
        last_refresh: Instant::now(),
        poller: best_poller()?,
        endpoints: Vec::new(),
        ledger: Ledger::new(1, cfg.request_deadline),
        fresh: (cfg.synth().generate(cfg.requests as usize, cfg.seed).iter())
            .map(|r| {
                let io = PlannedIo {
                    op: r.op,
                    offset: r.offset,
                    bytes: r.bytes,
                    tenant: cfg.tenant,
                    due_us: None,
                };
                Op::new(io, Routing::default())
            })
            .collect(),
        refused: VecDeque::new(),
        settled: 0,
    };
    let mut hist = LatencyHistogram::new();
    let mut events = Vec::new();
    let mut resolved = Vec::new();
    let started = Instant::now();

    loop {
        // Everything time-driven: fill the window, push queued bytes at
        // the sockets, expire deadlines.
        let now = Instant::now();
        run.fill(now);
        for (conn, wire) in run.endpoints.iter_mut().enumerate() {
            if wire.flush(&mut *run.poller, false).is_err() {
                (run.ledger).lose(conn as u32, wire, &mut *run.poller, &mut resolved);
            }
        }
        run.ledger.sweep(now, &mut resolved);
        run.apply(&mut resolved, now);
        if run.settled >= cfg.requests {
            break;
        }

        // The nearest due-time: a deadline, or — with room in the window
        // — the next refused operation's turn.
        let room = run.ledger.in_flight() < cfg.depth;
        let retry = run.refused.front().filter(|_| room).map(|(due, _)| *due);
        let due = run.ledger.next_sweep().into_iter().chain(retry).min();
        wait_for_work(&mut *run.poller, &mut events, due)?;
        for ev in &events {
            let (conn, wire) = (ev.token as u32, &mut run.endpoints[ev.token]);
            let poller = &mut *run.poller;
            (run.ledger).on_event(conn, wire, poller, ev, &mut hist, &mut resolved);
        }
        run.apply(&mut resolved, Instant::now());
    }

    let parts = vec![(run.ledger.report, hist, run.ledger.journal)];
    Ok(conclude(parts, started.elapsed()))
}

/// Floor between two map refreshes (staleness signals inside the window
/// reuse the map already fetched).
const MAP_REFRESH_FLOOR: Duration = Duration::from_millis(25);

/// Fetches the current map over the directory connection.
fn current_map(dir: &mut Conn) -> io::Result<ShardMap> {
    let (_epoch, text) = map_get(dir)?;
    ShardMap::parse_text(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

impl Run<'_> {
    /// Refreshes the map from the directory unless the last refresh is
    /// within [`MAP_REFRESH_FLOOR`]. Adopts only a higher epoch and keeps
    /// whatever map it has on any failure.
    fn refresh_if_stale(&mut self) {
        if self.last_refresh.elapsed() < MAP_REFRESH_FLOOR {
            return;
        }
        self.last_refresh = Instant::now();
        match current_map(&mut self.dir) {
            Ok(fresh) if fresh.epoch > self.map.epoch => self.map = fresh,
            _ => {}
        }
    }

    /// Fills the global window: refused operations whose back-off has
    /// passed first, then fresh ones in plan order. A turn refuses at most
    /// a window's worth before the loop looks at its sockets again — a
    /// node that is down must not keep the answers of the others waiting.
    fn fill(&mut self, now: Instant) {
        let mut bounced = 0;
        while self.ledger.in_flight() < self.cfg.depth && bounced < self.cfg.depth {
            let due = self.refused.front().is_some_and(|(due, _)| *due <= now);
            let next = if due {
                self.refused.pop_front().map(|(_, op)| op)
            } else {
                self.fresh.pop_front()
            };
            match next {
                Some(op) => bounced += usize::from(!self.dispatch(op, now)),
                None => return,
            }
        }
    }

    /// Routes `op` against the current map and submits it on the chosen
    /// node's wire (`true`) — or, if that node cannot be reached, refuses
    /// it without a submission (`false`).
    fn dispatch(&mut self, op: Op<Routing>, now: Instant) -> bool {
        let (range, primary) = self.map.route(op.io.offset);
        // Writes always target the primary (it owns admission and ships
        // the followers); reads may target any replica, rotated by
        // failover.
        let node = if op.io.op == IoOp::Read {
            let replicas = self.map.replicas_of(range);
            replicas[op.policy.replica_pref as usize % replicas.len()]
        } else {
            primary
        };
        let known = self.endpoints.iter().position(|w| w.addr() == node.addr);
        let conn = known.unwrap_or(self.endpoints.len());
        if known.is_none() {
            let jitter = SimRng::stream(self.cfg.seed ^ JITTER_SALT, conn as u64);
            let wire = Wire::new(node.addr.clone(), conn, RECONNECT_BASE, jitter);
            self.endpoints.push(wire);
        }
        let wire = &mut self.endpoints[conn];
        let journal = &mut self.ledger.journal;
        let up = matches!(wire.ensure_up(&mut *self.poller, journal), Ok(true));
        if up {
            wire.send(self.ledger.submit(conn as u32, op));
        } else {
            // Nothing was submitted, so this is a refusal for either
            // kind. The map may have moved on from an unreachable owner.
            self.refresh_if_stale();
            self.refuse(op, now, true);
        }
        up
    }

    /// One pre-admission refusal: consume a retry or drop the operation.
    /// The back-off is the operation's own — during a migration one
    /// range answers `BUSY(moving)` while the node's other ranges serve,
    /// and `max_busy_retries` is sized against this per-op pacing. With
    /// `rotate` a read moves on to the next replica of its range; writes
    /// only ever target the primary.
    fn refuse(&mut self, mut op: Op<Routing>, now: Instant, rotate: bool) {
        if rotate && op.io.op == IoOp::Read {
            op.policy.replica_pref = op.policy.replica_pref.wrapping_add(1);
        }
        if op.policy.refusals >= self.cfg.max_busy_retries {
            self.ledger.report.busy_dropped += 1;
            self.settled += 1;
        } else {
            op.policy.refusals += 1;
            self.refused.push_back((now + self.cfg.busy_backoff, op));
        }
    }

    /// The routing policy over what the ledger resolved: what refreshes
    /// the map, what goes again, and which of those rotate a read.
    fn apply(&mut self, resolved: &mut Vec<Settled<Routing>>, now: Instant) {
        for (op, how) in resolved.drain(..) {
            let again = match how {
                How::Done => {
                    self.settled += 1;
                    continue;
                }
                How::Busy(_) => true,
                // Stale map: never admitted, so the re-issue is
                // idempotent for both ops.
                How::WrongShard => {
                    self.refresh_if_stale();
                    true
                }
                How::ConnError => op.reissuable(how),
                // An expired deadline, or the ERROR a crashing shard
                // resolves its in-flight requests with before the node
                // drops (`Server::kill`): a read whose range has other
                // replicas fails over instead of dooming the chain on a
                // node that is about to disappear anyway.
                How::TimedOut | How::Error(_) => {
                    let range = self.map.range_of(op.io.offset);
                    op.reissuable(how) && self.map.replicas_of(range).len() > 1
                }
                How::Unsolicited => false,
            };
            if !again {
                self.ledger.report.failed += 1;
                self.settled += 1;
                continue;
            }
            // A full queue or a rate limit is the node's answer for the
            // whole range; after anything else the range may already be
            // readable on another replica.
            let stay = matches!(how, How::Busy(BusyReason::Queue | BusyReason::RateLimit));
            self.refuse(op, now, !stay);
        }
    }
}
